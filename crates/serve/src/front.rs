//! The query front end both engines share.
//!
//! [`ServeEngine`](crate::ServeEngine) answers a miss in process and
//! [`RouterEngine`](crate::RouterEngine) scatters it over remote legs,
//! but in front of that work they keep one contract, implemented here
//! once:
//!
//! 1. **Cache hits are free**: a result-LRU hit (keyed by
//!    [`spec_key`]) is returned before the admission gate or budget are
//!    consulted — it does no work.
//! 2. **Admission**: a miss claims an in-flight slot or fails fast with
//!    [`VerError::Overloaded`] ([`ServeConfig::max_in_flight`]); the slot
//!    is released on every exit path, panics included.
//! 3. **Fault point**: every admitted miss passes the `serve.query`
//!    fault point.
//! 4. **Degradation**: a `partial` result is returned but **never
//!    cached**, so a later retry with headroom can produce (and cache) the
//!    complete answer.
//! 5. **Fallback**: a miss that fails outright with
//!    [`VerError::DeadlineExceeded`] consults the result LRU once more (a
//!    concurrent complete run may have landed meanwhile) before the error
//!    is surfaced. Any other error propagates typed and untranslated.

use crate::engine::{spec_key, ServeConfig, ServeStats};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ver_common::cache::LruCache;
use ver_common::error::{Result, VerError};
use ver_core::QueryResult;
use ver_qbe::ViewSpec;

/// Result LRU, admission gate and the counters they keep.
pub(crate) struct Front {
    /// Whole-result cache keyed by the canonical query form.
    results: LruCache<String, Arc<QueryResult>>,
    max_in_flight: usize,
    queries: AtomicU64,
    in_flight: AtomicU64,
    rejected: AtomicU64,
    partial_results: AtomicU64,
}

/// RAII admission permit: one slot of [`ServeConfig::max_in_flight`],
/// released on drop — including when the query errors or (behind the
/// pool's isolation) a worker panicked, so failed queries can never leak
/// the gate shut.
pub(crate) struct InFlightPermit<'a>(&'a AtomicU64);

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }
}

impl Front {
    pub(crate) fn new(config: &ServeConfig) -> Front {
        Front {
            results: LruCache::new(config.result_cache_capacity),
            max_in_flight: config.max_in_flight,
            queries: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            partial_results: AtomicU64::new(0),
        }
    }

    /// Claim an admission slot, failing fast with [`VerError::Overloaded`]
    /// when [`ServeConfig::max_in_flight`] slots are already taken. The
    /// gate counts queries, not scatter legs: one admitted query fans out
    /// to every leg.
    pub(crate) fn admit(&self) -> Result<InFlightPermit<'_>> {
        let limit = self.max_in_flight;
        let prev = self.in_flight.fetch_add(1, Ordering::AcqRel);
        if limit != 0 && prev as usize >= limit {
            self.in_flight.fetch_sub(1, Ordering::AcqRel);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(VerError::Overloaded(format!(
                "{limit} queries already in flight"
            )));
        }
        Ok(InFlightPermit(&self.in_flight))
    }

    /// Answer `spec` under the front-end contract (module docs), running
    /// `miss` only when the result LRU cannot answer.
    pub(crate) fn query(
        &self,
        spec: &ViewSpec,
        miss: impl FnOnce() -> Result<QueryResult>,
    ) -> Result<Arc<QueryResult>> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = spec_key(spec);
        if let Some(hit) = self.results.get(&key) {
            return Ok(hit);
        }
        match self.admitted(miss) {
            Ok(result) => {
                let result = Arc::new(result);
                if result.partial {
                    self.partial_results.fetch_add(1, Ordering::Relaxed);
                } else {
                    self.results.insert(key, Arc::clone(&result));
                }
                Ok(result)
            }
            Err(e @ VerError::DeadlineExceeded(_)) => self.results.get(&key).ok_or(e),
            Err(e) => Err(e),
        }
    }

    /// Count, admit and run `work` past the fault point, bypassing the
    /// result LRU — for scatter legs, whose raw slices are merged (and
    /// cached) at the router, never here.
    pub(crate) fn uncached<T>(&self, work: impl FnOnce() -> Result<T>) -> Result<T> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.admitted(work)
    }

    fn admitted<T>(&self, work: impl FnOnce() -> Result<T>) -> Result<T> {
        let _permit = self.admit()?;
        ver_common::fault::hit(ver_common::fault::points::SERVE_QUERY)?;
        work()
    }

    /// The front end's share of [`ServeStats`]; the engine fills in the
    /// search-cache and session counters it owns.
    pub(crate) fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.queries.load(Ordering::Relaxed),
            result_cache: self.results.stats(),
            rejected: self.rejected.load(Ordering::Relaxed),
            partial_results: self.partial_results.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed) as usize,
            ..ServeStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use ver_common::ids::ViewId;
    use ver_common::timer::PhaseTimer;
    use ver_core::distill::{DistillOutput, ViewGraph};
    use ver_core::select::SelectionResult;

    /// A minimal result whose identity is its `tag` (carried in `ranked`).
    fn result(tag: u32, partial: bool) -> QueryResult {
        QueryResult {
            views: Vec::new(),
            selection: SelectionResult {
                per_attribute: Vec::new(),
            },
            search_stats: Default::default(),
            distill: DistillOutput {
                graph: ViewGraph::new(Vec::new()),
                view_keys: Default::default(),
                compatible_groups: Vec::new(),
                survivors_c1: Vec::new(),
                survivors_c2: Vec::new(),
                contradictions: Vec::new(),
                complementary_pairs: Vec::new(),
                timer: PhaseTimer::new(),
            },
            ranked: vec![(ViewId(tag), 0)],
            timer: PhaseTimer::new(),
            partial,
        }
    }

    fn spec(key: usize) -> ViewSpec {
        ViewSpec::Keyword(vec![format!("k{key}")])
    }

    /// What a scripted miss does when the front end lets it run.
    #[derive(Debug, Clone, Copy)]
    enum Miss {
        Complete,
        Partial,
        /// The miss runs out of time and nothing lands meanwhile.
        Deadline,
        /// The miss runs out of time, but a concurrent complete run for
        /// the same spec lands in the LRU while it runs.
        DeadlineRaced,
        /// A typed non-deadline error (I/O).
        Failed,
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Query(usize, Miss),
        /// Take an admission slot and keep it, as a concurrent miss would.
        Hold,
        /// Release the oldest held slot.
        Release,
    }

    fn op((kind, key, miss): (u8, usize, u8)) -> Op {
        let miss = match miss {
            0 => Miss::Complete,
            1 => Miss::Partial,
            2 => Miss::Deadline,
            3 => Miss::DeadlineRaced,
            _ => Miss::Failed,
        };
        match kind {
            0 => Op::Hold,
            1 => Op::Release,
            _ => Op::Query(key, miss),
        }
    }

    /// The reference model: per key, the result a hit must return;
    /// plus the counters the front end must report.
    #[derive(Default)]
    struct Model {
        cached: [Option<u32>; 3],
        queries: u64,
        rejected: u64,
        partial: u64,
        hits: u64,
    }

    /// Drive one op against both the front end and the model.
    fn step<'a>(
        front: &'a Front,
        limit: usize,
        model: &mut Model,
        held: &mut Vec<InFlightPermit<'a>>,
        next_tag: &mut u32,
        op: Op,
    ) {
        match op {
            Op::Hold => match front.admit() {
                Ok(permit) => {
                    assert!(limit == 0 || held.len() < limit, "gate over-admitted");
                    held.push(permit);
                }
                Err(e) => {
                    assert!(matches!(e, VerError::Overloaded(_)), "{e:?}");
                    assert!(limit != 0 && held.len() >= limit, "gate under-admitted");
                    model.rejected += 1;
                }
            },
            Op::Release => {
                if !held.is_empty() {
                    held.remove(0);
                }
            }
            Op::Query(key, miss) => {
                model.queries += 1;
                *next_tag += 1;
                let tag = *next_tag;
                let mut ran = false;
                let got = front.query(&spec(key), || {
                    ran = true;
                    // The miss runs under its own permit.
                    assert_eq!(front.stats().in_flight, held.len() + 1);
                    match miss {
                        Miss::Complete => Ok(result(tag, false)),
                        Miss::Partial => Ok(result(tag, true)),
                        Miss::Deadline => Err(VerError::DeadlineExceeded("scripted".into())),
                        Miss::DeadlineRaced => {
                            front
                                .results
                                .insert(spec_key(&spec(key)), Arc::new(result(tag, false)));
                            Err(VerError::DeadlineExceeded("scripted".into()))
                        }
                        Miss::Failed => Err(VerError::Io("scripted".into())),
                    }
                });
                if let Some(cached) = model.cached[key] {
                    // Hits bypass the gate and never run the miss.
                    model.hits += 1;
                    assert!(!ran, "a hit ran the pipeline");
                    assert_eq!(got.expect("hit").ranked[0].0, ViewId(cached));
                    return;
                }
                if limit != 0 && held.len() >= limit {
                    model.rejected += 1;
                    assert!(!ran, "a rejected query ran the pipeline");
                    assert!(matches!(got, Err(VerError::Overloaded(_))), "{got:?}");
                    return;
                }
                assert!(ran, "an admitted miss must run");
                match miss {
                    Miss::Complete => {
                        let got = got.expect("complete");
                        assert!(!got.partial);
                        assert_eq!(got.ranked[0].0, ViewId(tag));
                        model.cached[key] = Some(tag);
                    }
                    Miss::Partial => {
                        let got = got.expect("partial");
                        assert!(got.partial);
                        assert_eq!(got.ranked[0].0, ViewId(tag));
                        model.partial += 1;
                    }
                    Miss::Deadline => {
                        assert!(matches!(got, Err(VerError::DeadlineExceeded(_))), "{got:?}");
                    }
                    Miss::DeadlineRaced => {
                        // The one LRU re-check finds the raced result.
                        assert_eq!(got.expect("fallback hit").ranked[0].0, ViewId(tag));
                        model.hits += 1;
                        model.cached[key] = Some(tag);
                    }
                    Miss::Failed => {
                        assert!(matches!(got, Err(VerError::Io(_))), "{got:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

        #[test]
        fn front_end_matches_its_reference_model(
            limit in 0usize..2,
            ops in prop::collection::vec((0u8..6, 0usize..3, 0u8..5), 0..40),
        ) {
            let front = Front::new(&ServeConfig::default().with_max_in_flight(limit));
            let mut model = Model::default();
            let mut held = Vec::new();
            let mut next_tag = 0;
            for raw in ops {
                step(&front, limit, &mut model, &mut held, &mut next_tag, op(raw));
                let stats = front.stats();
                prop_assert_eq!(stats.queries, model.queries);
                prop_assert_eq!(stats.rejected, model.rejected);
                prop_assert_eq!(stats.partial_results, model.partial);
                prop_assert_eq!(stats.result_cache.hits, model.hits);
                prop_assert_eq!(stats.in_flight, held.len());
            }
            held.clear();
            prop_assert_eq!(front.stats().in_flight, 0);
        }
    }
}
