//! The traced replay: a workload's specs run in process through the
//! public entry point of each layer, in pipeline order, with a span
//! around every call. Nothing inside the program is instrumented; the
//! spans sit at the boundaries the benchmark can call.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ver_common::budget::QueryBudget;
use ver_common::cache::CacheStats;
use ver_common::error::{Result, VerError};
use ver_common::ids::ViewId;
use ver_common::timer::PhaseTimer;
use ver_core::engine::view::View;
use ver_core::{QueryResult, Ver, VerConfig};
use ver_distill::{distill_budgeted, DistillOutput};
use ver_present::fasttopk_rank;
use ver_qbe::ViewSpec;
use ver_search::{MaterializeStats, SearchCaches, SearchContext, SearchStats, ShardSearchOutput};
use ver_serve::net::frame::{read_frame, write_frame, ReadOutcome};
use ver_serve::net::{Page, QueryHead, Response, WireResult, WireShardOutput};
use ver_serve::{ServeConfig, ServeEngine};

use crate::corpus::{Fixture, Spec};
use crate::load::{LEGS, PAGE_SIZE};
use crate::sys;
use crate::trace::Tracer;

/// Which serving path a replay follows.
#[derive(Clone, Copy)]
pub enum Path<'a> {
    /// Result-cache miss on a single engine: the whole pipeline.
    Pipeline,
    /// Result-cache hit on this pre-warmed engine.
    CacheHit(&'a ServeEngine),
    /// Scatter over shard legs, leg outputs through the shard codec,
    /// gather at the router.
    Routed,
}

/// Work counted at the layer boundaries, summed over a replay.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub requests: usize,
    pub select_columns: usize,
    pub search: SearchStats,
    pub dag: MaterializeStats,
    pub search_cpu: Duration,
    pub search_wall: Duration,
    pub distill_views_in: usize,
    pub survivors_c2: usize,
    pub distill_cpu: Duration,
    pub distill_wall: Duration,
    pub answer_views: usize,
    pub ranked_views: usize,
    pub wire_bytes: usize,
    pub frames: usize,
    pub shard_output_bytes: usize,
    /// Combinations a single engine enumerates for the same requests.
    pub gathered_combinations: usize,
}

impl Counts {
    fn add_search(&mut self, stats: &SearchStats, dag: &MaterializeStats) {
        self.search.combinations += stats.combinations;
        self.search.join_graphs += stats.join_graphs;
        self.search.views += stats.views;
        self.dag.accumulate(*dag);
    }
}

/// One path's replay state: its own search caches, spans, counters and
/// answers. Each replayer starts from empty caches sized like a serving
/// engine's, so two replayers stepped through the same specs see the
/// same cache states.
pub struct Replayer<'a> {
    path: Path<'a>,
    ver: Ver,
    caches: Vec<SearchCaches>,
    pub tracer: Tracer,
    pub counts: Counts,
    /// One fingerprint per request, in order (see [`fingerprint`]).
    pub answers: Vec<u64>,
    /// Time spent inside requests.
    pub busy: Duration,
}

impl<'a> Replayer<'a> {
    pub fn new(fx: &Fixture, path: Path<'a>, traced: bool) -> Result<Replayer<'a>> {
        let capacity = ServeConfig::default().view_cache_capacity;
        Ok(Replayer {
            path,
            ver: Ver::from_parts(
                Arc::clone(&fx.catalog),
                Arc::clone(&fx.index),
                VerConfig::default(),
            )?,
            caches: (0..LEGS).map(|_| SearchCaches::new(capacity)).collect(),
            tracer: Tracer::new(traced),
            counts: Counts::default(),
            answers: Vec::new(),
            busy: Duration::ZERO,
        })
    }

    /// Run one request in process.
    pub fn step(&mut self, spec: &Spec) -> Result<()> {
        let Replayer {
            path,
            ver,
            caches,
            tracer,
            counts: c,
            ..
        } = self;
        tracer.set_request(c.requests as u32);
        let started = Instant::now();
        let (answer, result) = tracer.span("request", |t| -> Result<_> {
            match *path {
                Path::Pipeline => {
                    let result = pipeline(t, ver, &caches[0], &spec.spec, c)?;
                    Ok((ship(t, &result, c)?, Some(result)))
                }
                Path::CacheHit(engine) => {
                    let result = t.span("serve.engine", |_| engine.query(&spec.spec))?;
                    Ok((ship(t, &result, c)?, None))
                }
                Path::Routed => {
                    let result = routed(t, ver, caches, &spec.spec, c)?;
                    Ok((ship(t, &result, c)?, Some(result)))
                }
            }
        })?;
        self.busy += started.elapsed();
        // A server keeps a fresh answer in its result cache and frees it
        // on a later eviction, not within this request.
        drop(result);
        self.counts.requests += 1;
        self.answers.push(fingerprint(&answer));
        Ok(())
    }

    /// Hit counts of the materialized-view caches, summed over legs.
    pub fn view_cache(&self) -> CacheStats {
        self.sum_caches(SearchCaches::view_stats)
    }

    /// Hit counts of the join-score memos, summed over legs.
    pub fn score_memo(&self) -> CacheStats {
        self.sum_caches(SearchCaches::score_stats)
    }

    fn sum_caches(&self, f: fn(&SearchCaches) -> CacheStats) -> CacheStats {
        self.caches
            .iter()
            .map(f)
            .fold(CacheStats::default(), |a, b| CacheStats {
                hits: a.hits + b.hits,
                misses: a.misses + b.misses,
                disabled: a.disabled || b.disabled,
            })
    }
}

/// `f`'s wall time and the process CPU time it used, added to the totals.
fn measured<T>(cpu: &mut Duration, wall: &mut Duration, f: impl FnOnce() -> T) -> T {
    let (u0, t0) = (sys::usage().cpu, Instant::now());
    let out = f();
    *wall += t0.elapsed();
    *cpu += sys::usage().cpu.saturating_sub(u0);
    out
}

fn distill_phases(timer: &PhaseTimer) -> [(&'static str, Duration); 4] {
    [
        ("distill.schema_partition", timer.get("schema_partition")),
        ("distill.hash_c1", timer.get("hash_c1")),
        ("distill.c2", timer.get("c2")),
        ("distill.c3_c4", timer.get("c3_c4")),
    ]
}

fn search_phases(timer: &PhaseTimer) -> [(&'static str, Duration); 2] {
    [
        ("search.jgs", timer.get("jgs")),
        ("search.materialize", timer.get("materialize")),
    ]
}

/// The single-engine pipeline of `Ver::run_cached`, one layer per call.
fn pipeline(
    t: &mut Tracer,
    ver: &Ver,
    caches: &SearchCaches,
    spec: &ViewSpec,
    c: &mut Counts,
) -> Result<QueryResult> {
    t.span("core.run", |t| {
        let config = ver.config();
        let selection = t.span("select", |_| {
            ver_core::spec_select::select_for_spec(ver.index(), spec, &config.selection)
        });
        c.select_columns += selection
            .per_attribute
            .iter()
            .map(|a| a.candidates.len())
            .sum::<usize>();
        let out = measured(&mut c.search_cpu, &mut c.search_wall, || {
            t.span("search", |_| {
                SearchContext::new(ver.catalog(), ver.index())
                    .with_caches(caches)
                    .search(&selection, &config.search)
            })
        })?;
        t.attach_phases(&search_phases(&out.timer));
        c.add_search(&out.stats, &out.dag);
        let distilled = measured(&mut c.distill_cpu, &mut c.distill_wall, || {
            t.span("distill", |_| {
                distill_budgeted(&out.views, &config.distill, &QueryBudget::none())
            })
        })?;
        t.attach_phases(&distill_phases(&distilled.timer));
        c.distill_views_in += out.views.len();
        c.survivors_c2 += distilled.survivors_c2.len();
        let ranked = t.span("present.rank", |_| {
            rank_survivors(&out.views, &distilled, spec)
        })?;
        Ok(QueryResult {
            views: out.views,
            selection,
            search_stats: out.stats,
            distill: distilled,
            ranked,
            timer: PhaseTimer::new(),
            partial: out.partial,
        })
    })
}

/// The ranking step the pipeline runs after distillation: FastTopK over
/// the C2 survivors of a QBE spec.
fn rank_survivors(
    views: &[View],
    distilled: &DistillOutput,
    spec: &ViewSpec,
) -> Result<Vec<(ViewId, usize)>> {
    let ViewSpec::Qbe(query) = spec else {
        return Err(VerError::InvalidQuery(
            "the benchmark sends QBE specs".into(),
        ));
    };
    let survivors: Vec<View> = views
        .iter()
        .filter(|v| distilled.survivors_c2.contains(&v.id))
        .cloned()
        .collect();
    Ok(fasttopk_rank(&survivors, query))
}

/// The router's scatter/gather with remote legs, minus the sockets: each
/// leg runs `Ver::run_shard_leg` on its own caches, its output crosses
/// the shard codec and a frame, and the router gathers. The legs run one
/// after another here; a router runs them in parallel.
fn routed(
    t: &mut Tracer,
    ver: &Ver,
    caches: &[SearchCaches],
    spec: &ViewSpec,
    c: &mut Counts,
) -> Result<QueryResult> {
    let none = QueryBudget::none();
    let mut outputs = Vec::with_capacity(LEGS);
    for (shard, leg_caches) in caches.iter().enumerate() {
        let out = measured(&mut c.search_cpu, &mut c.search_wall, || {
            t.span("remote.leg", |_| {
                ver.run_shard_leg(spec, Some(leg_caches), &none, shard, LEGS)
            })
        })?;
        t.attach_phases(&search_phases(&out.timer));
        c.add_search(&out.stats, &out.dag);
        let out = t.span("remote.shard_codec", |_| shard_codec(&out, c))?;
        outputs.push(out);
    }
    let result = measured(&mut c.distill_cpu, &mut c.distill_wall, || {
        t.span("remote.gather", |_| {
            ver.gather_shard_outputs(spec, &none, outputs, true)
        })
    })?;
    let stages = t.attach_phases(&[
        ("select", result.timer.get("cs")),
        ("distill", result.timer.get("4c")),
    ]);
    if let Some(&distill) = stages.get(1) {
        t.attach_phases_under(distill, &distill_phases(&result.distill.timer));
    }
    c.select_columns += result
        .selection
        .per_attribute
        .iter()
        .map(|a| a.candidates.len())
        .sum::<usize>();
    c.gathered_combinations += result.search_stats.combinations;
    c.distill_views_in += result.views.len();
    c.survivors_c2 += result.distill.survivors_c2.len();
    Ok(result)
}

/// A leg's output as a shard server sends it and the router rebuilds it.
fn shard_codec(out: &ShardSearchOutput, c: &mut Counts) -> Result<ShardSearchOutput> {
    let payload = Response::ShardOutput(WireShardOutput::from_output(out)).encode();
    c.shard_output_bytes += payload.len();
    let mut frame = Vec::with_capacity(payload.len() + 32);
    write_frame(&mut frame, &payload)?;
    let ReadOutcome::Frame(read) = read_frame(&mut frame.as_slice())? else {
        return Err(VerError::Protocol("empty shard frame".into()));
    };
    match Response::decode(&read)? {
        Response::ShardOutput(wire) => wire.into_output(),
        _ => Err(VerError::Protocol("expected a shard output".into())),
    }
}

/// An answer's way to the client, as the server and client handle it:
/// conversion to wire views, then page by page (the head first) the
/// server's copy and encoding, framing, and the client's unframing and
/// decoding into the reassembled answer. The server frees the parked
/// answer once the last page is out; that release counts as encoding.
fn ship(t: &mut Tracer, result: &QueryResult, c: &mut Counts) -> Result<WireResult> {
    let wire = t.span("wire.to_wire", |_| WireResult::from_query_result(result));
    c.answer_views += wire.views.len();
    c.ranked_views += wire.ranked.len();
    let page = PAGE_SIZE as usize;
    let total = wire.views.len();
    let paged = total > page;
    let mut answer: Option<WireResult> = None;
    let mut start = 0;
    while start < total || answer.is_none() {
        let end = (start + page).min(total);
        let payload = t.span("wire.encode", |_| {
            let views = wire.views[start..end].to_vec();
            let response = if start == 0 {
                Response::Query(QueryHead {
                    partial: wire.partial,
                    stats: wire.stats,
                    survivors_c2: wire.survivors_c2.clone(),
                    ranked: wire.ranked.clone(),
                    total_views: total as u32,
                    page_size: if paged { PAGE_SIZE } else { 0 },
                    cursor: u64::from(paged),
                    views,
                })
            } else {
                Response::Page(Page {
                    cursor: 1,
                    page: (start / page) as u32,
                    last: end == total,
                    views,
                })
            };
            response.encode()
        });
        let frame = t.span("wire.frame", |_| {
            let mut frame = Vec::with_capacity(payload.len() + 32);
            write_frame(&mut frame, &payload).map(|()| frame)
        })?;
        c.frames += 1;
        c.wire_bytes += frame.len();
        drop(payload);
        t.span("wire.decode", |_| unframe(&frame, &mut answer))?;
        start = end;
    }
    t.span("wire.encode", |_| drop(wire));
    answer.ok_or_else(|| VerError::Protocol("no head frame".into()))
}

/// Decode one frame of an answer: the head starts it, pages extend it.
fn unframe(frame: &[u8], answer: &mut Option<WireResult>) -> Result<()> {
    let ReadOutcome::Frame(payload) = read_frame(&mut &frame[..])? else {
        return Err(VerError::Protocol("empty frame".into()));
    };
    match (Response::decode(&payload)?, answer.as_mut()) {
        (Response::Query(head), None) => {
            *answer = Some(WireResult {
                partial: head.partial,
                stats: head.stats,
                survivors_c2: head.survivors_c2,
                ranked: head.ranked,
                views: head.views,
            })
        }
        (Response::Page(p), Some(a)) => a.views.extend(p.views),
        _ => return Err(VerError::Protocol("unexpected frame order".into())),
    }
    Ok(())
}

/// A 64-bit digest of everything an answer carries, rows included, so
/// answers from different paths compare without being kept in memory.
pub fn fingerprint(answer: &WireResult) -> u64 {
    let mut h = DefaultHasher::new();
    answer.partial.hash(&mut h);
    let s = &answer.stats;
    (
        s.combinations,
        s.skipped_by_cache,
        s.joinable_groups,
        s.join_graphs,
        s.views,
    )
        .hash(&mut h);
    answer.survivors_c2.hash(&mut h);
    answer.ranked.hash(&mut h);
    for v in &answer.views {
        (v.id, v.score_bits, v.hops).hash(&mut h);
        v.source_tables.hash(&mut h);
        v.columns.hash(&mut h);
        v.rows.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipping_an_answer_reassembles_it_page_by_page() {
        let fx = Fixture::build().unwrap();
        let spec = &fx.spec_stream(5, 1).unwrap()[0];
        let ver = Ver::from_parts(
            Arc::clone(&fx.catalog),
            Arc::clone(&fx.index),
            VerConfig::default(),
        )
        .unwrap();
        let result = ver.run(&spec.spec).unwrap();
        let mut t = Tracer::new(true);
        let mut c = Counts::default();
        let answer = ship(&mut t, &result, &mut c).unwrap();
        assert_eq!(answer, WireResult::from_query_result(&result));
        let pages = result.views.len().div_ceil(PAGE_SIZE as usize);
        assert!(pages >= 3, "a WDC-250 answer spans several pages");
        assert_eq!(c.frames, pages);
        let layers = t.by_name();
        assert_eq!(layers["wire.decode"].calls, pages);
        assert_eq!(layers["wire.to_wire"].calls, 1);
    }

    #[test]
    fn every_path_replays_the_single_engine_answer() {
        let fx = Fixture::build().unwrap();
        let specs = fx.spec_stream(9, 2).unwrap();
        let engine = ServeEngine::warm_start(
            Arc::clone(&fx.catalog),
            Arc::clone(&fx.index),
            ServeConfig::default(),
        )
        .unwrap();
        let mut pipeline = Replayer::new(&fx, Path::Pipeline, false).unwrap();
        let mut routed = Replayer::new(&fx, Path::Routed, true).unwrap();
        let mut plain_routed = Replayer::new(&fx, Path::Routed, false).unwrap();
        let mut hit = Replayer::new(&fx, Path::CacheHit(&engine), true).unwrap();
        for spec in &specs {
            engine.query(&spec.spec).unwrap();
            pipeline.step(spec).unwrap();
            routed.step(spec).unwrap();
            plain_routed.step(spec).unwrap();
            hit.step(spec).unwrap();
        }
        assert_eq!(pipeline.answers, routed.answers);
        assert_eq!(pipeline.answers, plain_routed.answers);
        assert_eq!(pipeline.answers, hit.answers);
        assert!(pipeline.tracer.spans().is_empty(), "untraced");
        let legs = routed.tracer.by_name()["remote.leg"].calls;
        assert_eq!(legs, LEGS * specs.len());
        assert_eq!(
            routed.counts.search.combinations,
            LEGS * routed.counts.gathered_combinations
        );
    }
}
