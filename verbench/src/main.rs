//! `verbench` — the repository's benchmark: closed-loop WDC-250 traffic
//! against `verd` servers on loopback, and a traced replay that splits a
//! request into the layers it crosses. See `README.md` next to this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! verbench --workload <wdc_cold|wdc_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` switches the
//! timed run off and reports the per-layer metrics instead. The last line
//! of standard output is the result object.

mod corpus;
mod load;
mod replay;
mod report;
mod sys;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ver_common::error::{Result, VerError};
use ver_core::{Ver, VerConfig};
use ver_qbe::noise::NoiseLevel;
use ver_serve::net::{Client, NetConfig, WireResult};
use ver_serve::ServeConfig;

use corpus::{Fixture, Spec};
use load::{closed_loop, fetch, Deployment, DeploymentStats, Until, CLIENTS, LEGS, PAGE_SIZE};
use replay::{fingerprint, Path, Replayer};
use report::{median, quantile, ratio, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Answers per timed run compared with the in-process single engine.
const SAMPLES: usize = 3;
/// The sampled answers are among the first this many of the timed run.
const SAMPLE_WINDOW: usize = 8;
/// Fresh specs a stream holds per second of timed run: above any rate a
/// workload reaches, so that a cold stream never runs out.
const STREAM_PER_SECOND: usize = 40;
/// Times the traced run replays the hot set.
const HOT_TRACE_ROUNDS: usize = 2;
/// Ground truth whose answers the cursor probe parks. WDC-Q5 has the
/// smallest answers of the five (3.6k–6.8k views), which keeps the
/// probe's footprint near 1 GB.
const PROBE_GROUND_TRUTH: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Every request a fresh spec: the full pipeline on a single engine.
    Cold,
    /// Fifteen pre-warmed specs replayed: result-cache hits.
    Hot,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "wdc_cold" => Some(Workload::Cold),
            "wdc_hot" => Some(Workload::Hot),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Cold => "wdc_cold",
            Workload::Hot => "wdc_hot",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
                "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        let seconds = seconds.ok_or("--seconds is required")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("verbench: {e}");
            eprintln!(
                "usage: verbench --workload <wdc_cold|wdc_hot> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let run = if args.trace {
        traced(&args)
    } else {
        timed(&args)
    };
    match run {
        Ok((report, provenance)) => {
            for p in &report.problems {
                eprintln!("verbench: check failed: {p}");
            }
            println!("{provenance}");
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("verbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A deterministic pseudo-random sequence (SplitMix64) for the choices
/// the seed drives besides the spec stream.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// [`SAMPLES`] distinct stream positions among the first
/// [`SAMPLE_WINDOW`] from `first`, chosen by `seed`.
fn sample_positions(seed: u64, first: usize) -> Vec<usize> {
    let mut state = seed ^ 0x5A3D_1E5C;
    let mut picked = Vec::with_capacity(SAMPLES);
    while picked.len() < SAMPLES {
        let p = first + (splitmix(&mut state) % SAMPLE_WINDOW as u64) as usize;
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked.sort_unstable();
    picked
}

/// The live servers of a run, and what setting them up cost.
struct Setup {
    fx: Fixture,
    dep: Deployment,
    /// Median set-up time plus the pre-warm, in seconds.
    setup_s: f64,
    build_ms: Vec<f64>,
    load_ms: Vec<f64>,
}

/// Set the workload up [`SETUP_REPS`] times, keeping the last: corpus
/// generation, index build, persist and load, and server start-up. The
/// hot workload then pre-warms its specs through the wire, once: the
/// pre-warm runs the full pipeline on every hot spec, and three of them
/// would add a quarter to a hot run.
fn set_up(w: Workload, hot: &[Spec]) -> Result<Setup> {
    let mut kept = None;
    let (mut setup_s, mut build_ms, mut load_ms) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..SETUP_REPS {
        if let Some((_, dep)) = kept.take() {
            Deployment::stop(dep);
        }
        let started = Instant::now();
        let fx = Fixture::build()?;
        let dep = Deployment::single(&fx)?;
        setup_s.push(started.elapsed().as_secs_f64());
        build_ms.push(ms(fx.build));
        load_ms.push(ms(fx.load));
        kept = Some((fx, dep));
    }
    let (fx, dep) = kept.expect("at least one set-up");
    let mut prewarm = 0.0;
    if w == Workload::Hot {
        let started = Instant::now();
        let warm = closed_loop(dep.addr(), hot, false, 0, Until::Requests(hot.len()), &[])?;
        if let Some((pos, e)) = warm.failures.first() {
            return Err(VerError::Internal(format!("pre-warm of spec {pos}: {e}")));
        }
        prewarm = started.elapsed().as_secs_f64();
    }
    Ok(Setup {
        fx,
        dep,
        setup_s: median(&setup_s).unwrap_or(0.0) + prewarm,
        build_ms,
        load_ms,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The first `len` specs of the seed's stream, with the fixture that
/// generated them.
fn stream(seed: u64, len: impl FnOnce(&Fixture) -> usize) -> Result<(Fixture, Vec<Spec>)> {
    let fx = Fixture::build()?;
    let specs = fx.spec_stream(seed, len(&fx))?;
    Ok((fx, specs))
}

/// Checks every run makes on the servers' own counters.
fn check_servers(report: &mut Report, stats: &DeploymentStats) {
    for (who, net) in
        std::iter::once(("front", &stats.net)).chain(stats.leg_net.iter().map(|n| ("leg", n)))
    {
        report.check(
            net.protocol_errors == 0 && net.dropped_conns == 0 && net.handler_panics == 0,
            || format!("{who} server: {net:?}"),
        );
    }
    for (who, s) in
        std::iter::once(("front", &stats.serve)).chain(stats.leg_serve.iter().map(|s| ("leg", s)))
    {
        report.check(s.rejected == 0 && s.partial_results == 0, || {
            format!("{who} engine rejected or degraded queries: {s:?}")
        });
    }
    report.check(stats.router.iter().all(|l| l.failovers == 0), || {
        format!("router legs failed over: {:?}", stats.router)
    });
}

/// The end-to-end run: set up, warm up to steady state, then
/// [`CLIENTS`] closed-loop clients for `--seconds`.
fn timed(args: &Args) -> Result<(Report, String)> {
    let w = args.workload;
    let warmup = ServeConfig::default().result_cache_capacity;
    let fresh = warmup + SAMPLE_WINDOW + args.seconds as usize * STREAM_PER_SECOND;
    // The hot set is one spec of every class; cold traffic needs fresh
    // specs for the warm-up and the timed run.
    let (stream_fx, specs) = stream(args.seed, |fx| match w {
        Workload::Hot => fx.classes(),
        Workload::Cold => fresh,
    })?;
    drop(stream_fx);
    let setup = set_up(w, &specs)?;
    let addr = setup.dep.addr();

    // Cold traffic is timed once the result cache is full: until then
    // every answer only inserts, and the process is still growing.
    let first = match w {
        Workload::Hot => 0,
        Workload::Cold => {
            let warm = closed_loop(addr, &specs, false, 0, Until::Requests(warmup), &[])?;
            if let Some((pos, e)) = warm.failures.first() {
                return Err(VerError::Internal(format!("warm-up spec {pos}: {e}")));
            }
            warmup
        }
    };
    let keep = sample_positions(args.seed, first);
    let before = setup.dep.stats();
    let u0 = sys::usage();
    let run = closed_loop(
        addr,
        &specs,
        w == Workload::Hot,
        first,
        Until::Elapsed(Duration::from_secs(args.seconds)),
        &keep,
    )?;
    let u1 = sys::usage();
    let after = setup.dep.stats();

    let mut report = Report {
        attempted: run.attempted(),
        failed: run.failures.len(),
        ..Report::default()
    };
    for (pos, e) in run.failures.iter().take(5) {
        report
            .problems
            .push(format!("request at stream position {pos}: {e}"));
    }
    report.check(!run.exhausted, || "the spec stream ran out".into());
    check_servers(&mut report, &after);
    let hits = after.serve.result_cache.hits - before.serve.result_cache.hits;
    let misses = after.serve.result_cache.misses - before.serve.result_cache.misses;
    match w {
        Workload::Hot => report.check(hits == run.attempted() as u64 && misses == 0, || {
            format!(
                "{hits} hits and {misses} misses for {} hot requests",
                run.attempted()
            )
        }),
        Workload::Cold => report.check(after.serve.result_cache.hits == 0, || {
            format!(
                "{} result-cache hits on fresh specs",
                after.serve.result_cache.hits
            )
        }),
    }
    check_samples(&mut report, &setup.fx, &specs, &keep, &run.kept)?;

    let complete: Vec<f64> = run.timings.iter().map(|t| ms(t.complete)).collect();
    let heads: Vec<f64> = run.timings.iter().map(|t| ms(t.first_page)).collect();
    let answers = run.timings.len() as f64;
    if run.timings.len() < 100 {
        eprintln!(
            "verbench: only {} answers: latency_p90_ms has fewer than ten beyond it",
            run.timings.len()
        );
    }
    report.metric("setup_s", setup.setup_s, "s");
    report.metric("qps", answers / run.wall.as_secs_f64(), "1/s");
    report.metric("latency_p50_ms", median(&complete).unwrap_or(0.0), "ms");
    report.metric(
        "latency_p90_ms",
        quantile(&complete, 0.9).unwrap_or(0.0),
        "ms",
    );
    report.metric("first_page_p50_ms", median(&heads).unwrap_or(0.0), "ms");
    report.metric(
        "cpu_ms_per_query",
        ratio(ms(u1.cpu.saturating_sub(u0.cpu)), answers),
        "ms",
    );
    report.metric(
        "peak_rss_mb",
        u1.peak_rss as f64 / (1u64 << 20) as f64,
        "MB",
    );
    eprintln!(
        "verbench: {} seed {}: {} answers in {:.1} s, {} failed; setup {:.3} s",
        w.name(),
        args.seed,
        run.timings.len(),
        run.wall.as_secs_f64(),
        run.failures.len(),
        setup.setup_s
    );
    let provenance = provenance(args, &setup.fx, specs.len());
    setup.dep.stop();
    Ok((report, provenance))
}

/// Compare the kept answers with the in-process single engine: equal
/// wire answers (rows included) and byte-identical renders.
fn check_samples(
    report: &mut Report,
    fx: &Fixture,
    specs: &[Spec],
    keep: &[usize],
    kept: &[(usize, WireResult)],
) -> Result<()> {
    let ver = Ver::from_parts(
        Arc::clone(&fx.catalog),
        Arc::clone(&fx.index),
        VerConfig::default(),
    )?;
    report.check(kept.len() == keep.len(), || {
        format!(
            "sampled positions {keep:?}, answers kept for {}",
            kept.len()
        )
    });
    for (pos, answer) in kept {
        let spec = &specs[pos % specs.len()];
        let reference = ver.run(&spec.spec)?;
        let (mut got, mut want) = (String::new(), String::new());
        answer.render(&mut got, &spec.name);
        ver_bench::golden::render_query(&mut want, &spec.name, &reference);
        report.check(got == want, || {
            format!("answer at position {pos} renders differently from the single engine")
        });
        report.check(*answer == WireResult::from_query_result(&reference), || {
            format!("answer at position {pos} differs from the single engine")
        });
    }
    Ok(())
}

/// Fill the front server's cursor table with abandoned heads of one spec
/// and return how far the process's peak RSS grew, in MiB: what parked
/// cursors hold. The spec's answer is fetched whole first, so the result
/// cache already holds it and each head only parks its own copy.
fn cursor_probe(fx: &Fixture, spec: &Spec) -> Result<f64> {
    let dep = Deployment::single(fx)?;
    let cursors = NetConfig::default().max_cursors;
    let grown = {
        let mut client = Client::connect(dep.addr())?;
        fetch(&mut client, spec)?;
        let base = sys::usage().peak_rss;
        for _ in 0..cursors {
            let head = client.query_head(&spec.spec, PAGE_SIZE, 0)?;
            if head.cursor == 0 {
                return Err(VerError::Internal(format!(
                    "{} fits one page; the probe needs a paged answer",
                    spec.name
                )));
            }
        }
        sys::usage().peak_rss.saturating_sub(base)
    };
    let open = dep.stats().net.cursors_open;
    dep.stop();
    if open != cursors as u64 {
        return Err(VerError::Internal(format!(
            "{open} cursors open after {cursors} abandoned heads"
        )));
    }
    Ok(grown as f64 / (1u64 << 20) as f64)
}

/// Answers over the wire, one request at a time.
struct WirePass {
    walls: Vec<Duration>,
    answers: Vec<u64>,
    failures: Vec<String>,
}

fn wire_pass(addr: std::net::SocketAddr, specs: &[Spec]) -> Result<WirePass> {
    let mut pass = WirePass {
        walls: Vec::with_capacity(specs.len()),
        answers: Vec::with_capacity(specs.len()),
        failures: Vec::new(),
    };
    let mut client = Client::connect(addr)?;
    for spec in specs {
        match fetch(&mut client, spec) {
            Ok((answer, _, complete)) if !answer.partial && !answer.views.is_empty() => {
                pass.walls.push(complete);
                pass.answers.push(fingerprint(&answer));
            }
            Ok(_) => pass
                .failures
                .push(format!("{}: partial or empty answer", spec.name)),
            Err(e) => pass.failures.push(format!("{}: {e}", spec.name)),
        }
    }
    Ok(pass)
}

/// The per-layer run; the timed run is off. One client sends the traced
/// specs over the wire, then the same specs are replayed in process,
/// untraced and traced in lockstep. The cold specs also go through a
/// router over [`LEGS`] shard legs, over the wire and in a traced
/// replay: the only place the benchmark reaches the remote layer.
fn traced(args: &Args) -> Result<(Report, String)> {
    let w = args.workload;
    // The hot set, or one fresh spec of every class: a round of the mix.
    let (stream_fx, specs) = stream(args.seed, Fixture::classes)?;
    let probe_spec = specs
        .iter()
        .find(|s| s.class / NoiseLevel::all().len() == PROBE_GROUND_TRUTH)
        .ok_or_else(|| VerError::Internal("no spec for the cursor probe".into()))?;
    let retained_mb = cursor_probe(&stream_fx, probe_spec)?;
    drop(stream_fx);

    let setup = set_up(w, &specs)?;
    let (path, traced_specs) = match w {
        Workload::Hot => {
            let cycled = specs.iter().cycle().take(specs.len() * HOT_TRACE_ROUNDS);
            let engine = setup.dep.single_engine().expect("hot runs a single engine");
            (Path::CacheHit(engine), cycled.cloned().collect::<Vec<_>>())
        }
        Workload::Cold => (Path::Pipeline, specs),
    };
    let before = setup.dep.stats();
    let single = wire_pass(setup.dep.addr(), &traced_specs)?;
    let wire = setup.dep.stats();
    let mut plain = Replayer::new(&setup.fx, path, false)?;
    let mut r = Replayer::new(&setup.fx, path, true)?;
    for spec in &traced_specs {
        plain.step(spec)?;
        r.step(spec)?;
    }
    let after = setup.dep.stats();

    let routed = match w {
        Workload::Hot => None,
        Workload::Cold => {
            let dep = Deployment::routed(&setup.fx)?;
            let pass = wire_pass(dep.addr(), &traced_specs)?;
            let stats = dep.stats();
            dep.stop();
            let mut replayer = Replayer::new(&setup.fx, Path::Routed, true)?;
            for spec in &traced_specs {
                replayer.step(spec)?;
            }
            Some((pass, stats, replayer))
        }
    };

    let mut report = Report {
        attempted: traced_specs.len() * if routed.is_some() { 5 } else { 3 },
        ..Report::default()
    };
    report.problems.extend(single.failures.iter().cloned());
    check_servers(&mut report, &after);
    report.check(
        plain.answers == single.answers && r.answers == single.answers,
        || "replayed answers differ from the answers over the wire".into(),
    );
    if let Some((pass, stats, replayer)) = &routed {
        report.problems.extend(pass.failures.iter().cloned());
        check_servers(&mut report, stats);
        report.check(pass.answers == single.answers, || {
            "the router's answers differ from the single engine's".into()
        });
        report.check(replayer.answers == single.answers, || {
            "the replayed scatter/gather differs from the single engine".into()
        });
        report.check(stats.serve.result_cache.hits == 0, || {
            format!(
                "{} router result-cache hits on fresh specs",
                stats.serve.result_cache.hits
            )
        });
    }
    report.failed = single.failures.len()
        + routed
            .as_ref()
            .map_or(0, |(pass, _, _)| pass.failures.len());
    let lookups = |s: &DeploymentStats| s.serve.result_cache.lookups();
    let hits = after.serve.result_cache.hits - before.serve.result_cache.hits;
    match w {
        Workload::Hot => report.check(hits == lookups(&after) - lookups(&before), || {
            format!(
                "hot replay missed the result cache: {:?}",
                after.serve.result_cache
            )
        }),
        Workload::Cold => report.check(hits == 0, || {
            format!("{hits} result-cache hits on fresh specs")
        }),
    }

    let routed_replay = routed.as_ref().map(|(_, _, replayer)| replayer);
    layer_metrics(&mut report, &setup, &r, &plain, routed_replay);
    let wire_hits = (wire.serve.result_cache.hits - before.serve.result_cache.hits) as f64;
    let wire_lookups = (lookups(&wire) - lookups(&before)) as f64;
    report.metric(
        "serve.result_cache_hit_rate",
        ratio(wire_hits, wire_lookups),
        "ratio",
    );
    report.metric("serve.rejected", after.serve.rejected as f64, "count");
    report.metric(
        "serve.partial_results",
        after.serve.partial_results as f64,
        "count",
    );
    let frames = (wire.net.frames_out - before.net.frames_out) as f64;
    report.metric(
        "net.frames_per_answer",
        ratio(frames, single.walls.len() as f64),
        "count",
    );
    let transport: Vec<f64> = single
        .walls
        .iter()
        .zip(r.tracer.spans().iter().filter(|s| s.name == "request"))
        .map(|(wall, traced)| ms(*wall) - ms(traced.duration()))
        .collect();
    report.metric(
        "net.transport_ms",
        ratio(transport.iter().sum(), transport.len() as f64),
        "ms",
    );
    report.metric("net.cursor_retained_mb", retained_mb, "MB");
    let legs = routed
        .as_ref()
        .map_or(&[][..], |(_, stats, _)| &stats.router[..]);
    let leg_sum = |f: fn(&ver_serve::RouterLegStats) -> u64| legs.iter().map(f).sum::<u64>() as f64;
    report.metric("remote.retries", leg_sum(|l| l.retries), "count");
    report.metric("remote.failovers", leg_sum(|l| l.failovers), "count");

    let mut spans = vec![write_spans(args, "", &r.tracer)?];
    if let Some(replayer) = routed_replay {
        spans.push(write_spans(args, "-routed", &replayer.tracer)?);
    }
    eprintln!(
        "verbench: {} seed {}: traced {} requests in {:.2} s (untraced {:.2} s); spans in {}",
        w.name(),
        args.seed,
        r.counts.requests,
        r.busy.as_secs_f64(),
        plain.busy.as_secs_f64(),
        spans.join(", ")
    );
    let provenance = provenance(args, &setup.fx, traced_specs.len());
    setup.dep.stop();
    Ok((report, provenance))
}

/// The per-layer metrics the replays give: times and counts per traced
/// request, ratios over the whole replay. Layers a workload does not
/// reach read 0.
fn layer_metrics(
    report: &mut Report,
    setup: &Setup,
    r: &Replayer,
    plain: &Replayer,
    routed: Option<&Replayer>,
) {
    let n = r.counts.requests as f64;
    let layers = r.tracer.by_name();
    let per = |name: &str| ratio(layers.get(name).map_or(0.0, |l| ms(l.total)), n);
    let c = &r.counts;

    report.metric(
        "index.build_ms",
        median(&setup.build_ms).unwrap_or(0.0),
        "ms",
    );
    report.metric(
        "index.persist_bytes",
        setup.fx.persist_bytes as f64,
        "bytes",
    );
    report.metric("index.load_ms", median(&setup.load_ms).unwrap_or(0.0), "ms");

    report.metric("select.ms", per("select"), "ms");
    report.metric("select.columns", ratio(c.select_columns as f64, n), "count");

    report.metric("search.jgs_ms", per("search.jgs"), "ms");
    report.metric("search.materialize_ms", per("search.materialize"), "ms");
    report.metric(
        "search.combinations",
        ratio(c.search.combinations as f64, n),
        "count",
    );
    report.metric(
        "search.join_graphs",
        ratio(c.search.join_graphs as f64, n),
        "count",
    );
    report.metric("search.views", ratio(c.search.views as f64, n), "count");
    report.metric(
        "search.dag_shared_ratio",
        ratio(c.dag.shared_hits as f64, c.dag.total_steps as f64),
        "ratio",
    );
    report.metric(
        "search.view_cache_hit_rate",
        r.view_cache().hit_rate(),
        "ratio",
    );
    report.metric(
        "search.score_memo_hit_rate",
        r.score_memo().hit_rate(),
        "ratio",
    );
    report.metric(
        "search.parallelism",
        ratio(c.search_cpu.as_secs_f64(), c.search_wall.as_secs_f64()),
        "ratio",
    );

    report.metric("distill.ms", per("distill"), "ms");
    report.metric("distill.hash_c1_ms", per("distill.hash_c1"), "ms");
    report.metric("distill.c2_ms", per("distill.c2"), "ms");
    report.metric("distill.c3_c4_ms", per("distill.c3_c4"), "ms");
    report.metric(
        "distill.views_in",
        ratio(c.distill_views_in as f64, n),
        "count",
    );
    report.metric(
        "distill.survivors_c2",
        ratio(c.survivors_c2 as f64, n),
        "count",
    );
    report.metric(
        "distill.parallelism",
        ratio(c.distill_cpu.as_secs_f64(), c.distill_wall.as_secs_f64()),
        "ratio",
    );

    report.metric("present.rank_ms", per("present.rank"), "ms");
    report.metric("core.run_ms", per("core.run"), "ms");
    report.metric(
        "core.glue_ms",
        ratio(layers.get("core.run").map_or(0.0, |l| ms(l.self_time)), n),
        "ms",
    );

    report.metric("serve.hit_ms", per("serve.engine"), "ms");

    report.metric("wire.to_wire_ms", per("wire.to_wire"), "ms");
    report.metric("wire.encode_ms", per("wire.encode"), "ms");
    report.metric("wire.frame_ms", per("wire.frame"), "ms");
    report.metric("wire.decode_ms", per("wire.decode"), "ms");
    report.metric(
        "wire.bytes_per_answer",
        ratio(c.wire_bytes as f64, n),
        "bytes",
    );
    report.metric(
        "wire.views_per_ranked_view",
        ratio(c.answer_views as f64, c.ranked_views as f64),
        "ratio",
    );

    let (rl, rc) = match routed {
        Some(routed) => (routed.tracer.by_name(), routed.counts.clone()),
        None => Default::default(),
    };
    let rn = rc.requests as f64;
    let rper = |name: &str| ratio(rl.get(name).map_or(0.0, |l| ms(l.total)), rn);
    report.metric("remote.leg_ms", rper("remote.leg"), "ms");
    report.metric(
        "remote.leg_jgs_dup_ratio",
        ratio(
            rc.search.combinations as f64,
            rc.gathered_combinations as f64,
        ),
        "ratio",
    );
    report.metric(
        "remote.shard_output_bytes",
        ratio(rc.shard_output_bytes as f64, rn),
        "bytes",
    );
    report.metric("remote.shard_codec_ms", rper("remote.shard_codec"), "ms");
    report.metric("remote.gather_ms", rper("remote.gather"), "ms");

    // Coverage over every traced request, single-engine and routed.
    let requests = [layers.get("request"), rl.get("request")];
    let (own, total) = requests.iter().flatten().fold((0.0, 0.0), |(o, t), l| {
        (o + l.self_time.as_secs_f64(), t + l.total.as_secs_f64())
    });
    report.metric("trace.coverage", 1.0 - ratio(own, total), "ratio");
    report.metric(
        "trace.overhead",
        ratio(r.busy.as_secs_f64(), plain.busy.as_secs_f64()),
        "ratio",
    );
}

/// Write a tracer's spans, one JSON object per line, under `out/` in
/// this package.
fn write_spans(args: &Args, tag: &str, tracer: &trace::Tracer) -> Result<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}{tag}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.to_jsonl())?;
    Ok(path.display().to_string())
}

/// The conditions the numbers were measured under, as one JSON line:
/// compare runs only where these match.
fn provenance(args: &Args, fx: &Fixture, specs: usize) -> String {
    let env = ["VER_THREADS", "VER_SIMD", "VER_SHARDS", "VER_RETRIES"]
        .iter()
        .map(|k| {
            let v = std::env::var(k).map_or("null".to_string(), |v| report::string(&v));
            format!("\"{k}\": {v}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"hardware\": {}, \"nproc\": {}, \"env\": {{{env}}}, \"corpus\": {{\"name\": \"WDC\", \"tables\": {}, \"columns\": {}, \"rows\": {}}}, \"specs\": {specs}, \"clients\": {CLIENTS}, \"legs\": {LEGS}, \"page_size\": {PAGE_SIZE}, \"git_revision\": {}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        ver_bench::hardware_json(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        fx.catalog.table_count(),
        fx.catalog.column_count(),
        fx.catalog.total_rows(),
        report::string(&git_revision()),
    )
}

/// The commit the benchmark was built from, read from the repository's
/// `.git` directory when there is one; "unknown" in an exported tree.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(git.join(reference)) {
        return sha.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (sha, name) = line.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> std::result::Result<Args, String> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let a = args("--workload wdc_hot --seed 9 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Hot, 9, 20, true)
        );
        assert!(args("--workload wdc_warm --seed 9 --seconds 20 --trace 1").is_err());
        assert!(args("--workload wdc_hot --seed 9 --seconds 0 --trace 0").is_err());
        assert!(args("--workload wdc_hot --seed 9 --seconds 5 --trace 2").is_err());
        assert!(args("--workload wdc_hot --seed 9 --seconds 5").is_err());
        assert!(args("--workload wdc_hot --seed").is_err());
    }

    #[test]
    fn sample_positions_are_seeded_distinct_and_in_the_window() {
        let a = sample_positions(17, 64);
        assert_eq!(a, sample_positions(17, 64));
        assert_eq!(a.len(), SAMPLES);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&p| (64..64 + SAMPLE_WINDOW).contains(&p)));
        assert_ne!(
            (0..8).map(|s| sample_positions(s, 0)).collect::<Vec<_>>(),
            vec![a.iter().map(|p| p - 64).collect::<Vec<_>>(); 8]
        );
    }
}
