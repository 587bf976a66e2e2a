//! Multi-process sharded serving: remote scatter legs and the router.
//!
//! A [`RouterEngine`] scatters each query over **separate `verd`
//! processes**, one remote leg per shard. A leg speaks the `verd` wire
//! protocol (`ShardQuery` → `ShardOutput`) through the
//! [`ResilientClient`](crate::net::resilient) envelope — per-attempt
//! timeouts, reconnect-on-error, jittered backoff, per-leg circuit
//! breaker — and the router finishes the query centrally
//! ([`Ver::gather_shard_outputs`]).
//!
//! **Determinism invariant 13.** With every leg healthy, the router's
//! answer is bit-identical to the single engine at every leg count: each
//! leg runs COLUMN-SELECTION itself (a pure function of index + spec +
//! config, so every process computes the same selection), ships its slice
//! ([`Ver::run_shard_leg`]) whole over the wire, and the router merges
//! through the same content-based total order (invariant 11). Pinned
//! against live processes in `tests/chaos.rs`.
//!
//! **Failure model.** A leg that cannot answer — process killed
//! mid-query, connection refused while it restarts, circuit open, retry
//! budget exhausted, deadline passed, handler panicked — is *dropped at
//! the gather* and the merged result is flagged partial: a leg failure is
//! never an error, and partial results are never cached. The query
//! budget is deducted before every remote attempt, so the wire carries
//! remaining (not original) milliseconds. Per-leg health is visible in
//! [`RouterEngine::leg_stats`] and on the `Stats` wire reply.

use crate::engine::{ServeConfig, ServeStats};
use crate::front::Front;
use crate::net::resilient::{BreakerState, ResilientClient, RetryPolicy};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::sync::lock_unpoisoned;
use ver_core::{QueryResult, Ver};
use ver_index::DiscoveryIndex;
use ver_qbe::ViewSpec;
use ver_search::ShardSearchOutput;
use ver_store::catalog::TableCatalog;

/// Point-in-time health snapshot of one remote leg, as surfaced in
/// [`RouterEngine::leg_stats`] and on the `Stats` wire reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterLegStats {
    /// The leg's `verd` address.
    pub addr: String,
    /// Network attempts made (first tries, retries, and probes).
    pub attempts: u64,
    /// Attempts beyond the first within a single call.
    pub retries: u64,
    /// Attempts that failed at the transport level.
    pub failures: u64,
    /// Queries in which this leg was dropped at the gather.
    pub failovers: u64,
    /// Circuit-breaker state at snapshot time.
    pub breaker: BreakerState,
}

/// One scatter leg, run on a remote shard-serving `verd` through the
/// resilient-client envelope.
///
/// The wrapped client is behind a `Mutex` because the wire protocol is
/// strictly request→response per connection; the scatter runs each leg on
/// its own pool worker, so legs never contend on one another's locks.
struct RemoteLeg {
    addr: SocketAddr,
    client: Mutex<ResilientClient>,
    failovers: AtomicU64,
}

impl RemoteLeg {
    fn new(addr: SocketAddr, policy: RetryPolicy) -> RemoteLeg {
        RemoteLeg {
            addr,
            client: Mutex::new(ResilientClient::new(addr, policy)),
            failovers: AtomicU64::new(0),
        }
    }

    /// Current health counters and breaker state.
    fn stats(&self) -> RouterLegStats {
        let client = lock_unpoisoned(&self.client);
        let c = client.counters();
        RouterLegStats {
            addr: self.addr.to_string(),
            attempts: c.attempts,
            retries: c.retries,
            failures: c.failures,
            failovers: self.failovers.load(Ordering::Relaxed),
            breaker: client.breaker_state(),
        }
    }

    /// Run shard `shard` of `shard_count` on the remote leg under `budget`.
    fn leg_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ShardSearchOutput> {
        let wire = lock_unpoisoned(&self.client).shard_query(
            spec,
            shard as u32,
            shard_count as u32,
            budget,
        )?;
        if (wire.shard, wire.shard_count) != (shard as u32, shard_count as u32) {
            return Err(VerError::Protocol(format!(
                "leg {} answered for shard {}/{} but was asked {shard}/{shard_count}",
                self.addr, wire.shard, wire.shard_count
            )));
        }
        wire.into_output()
    }
}

/// Whether a leg error **degrades** the query (the leg is dropped at the
/// gather and the merge is flagged partial) rather than failing it: a
/// worker panic or an un-degraded deadline, and every transport-level
/// failure — a dead, desynced or shedding peer costs its leg, never the
/// query.
fn degradable(e: &VerError) -> bool {
    matches!(
        e,
        VerError::DeadlineExceeded(_)
            | VerError::Internal(_)
            | VerError::Io(_)
            | VerError::Protocol(_)
            | VerError::Overloaded(_)
    )
}

/// Scatter `spec` over one leg per shard and classify each answer: a leg
/// whose error is [`degradable`] is dropped (and counted as a failover);
/// any other error fails the query. Returns the surviving outputs and
/// whether every leg survived.
fn scatter(
    legs: &[RemoteLeg],
    spec: &ViewSpec,
    budget: &QueryBudget,
) -> Result<(Vec<ShardSearchOutput>, bool)> {
    let shard_count = legs.len();
    // Fan out wide: legs are network-bound, so give each its own worker
    // regardless of the local compute budget. A panicking worker arrives
    // here as `VerError::Internal`.
    let pool = ver_common::pool::ThreadPool::new(shard_count);
    let shard_ids: Vec<usize> = (0..shard_count).collect();
    let answers = pool.try_par_map(&shard_ids, |&shard| {
        legs[shard].leg_query(spec, shard, shard_count, budget)
    });
    let mut outputs = Vec::with_capacity(shard_count);
    let mut complete = true;
    for (leg, answer) in legs.iter().zip(answers) {
        match answer {
            Ok(out) => outputs.push(out),
            Err(e) if degradable(&e) => {
                complete = false;
                leg.failovers.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => return Err(e),
        }
    }
    Ok((outputs, complete))
}

/// The scatter/gather router over remote legs — `verd --route`.
///
/// Presents the [`ServeEngine`](crate::ServeEngine) query contract (same
/// admission gate, result LRU, partial-never-cached semantics) but every
/// result-cache miss fans out to one remote leg per shard. The router
/// holds its own catalog + index (the same artifacts the legs serve) for
/// COLUMN-SELECTION and the central finish of every query — merge,
/// distillation, ranking.
pub struct RouterEngine {
    ver: Ver,
    config: ServeConfig,
    legs: Vec<RemoteLeg>,
    /// Result LRU and admission gate.
    front: Front,
}

impl RouterEngine {
    /// Route over one remote leg per address in `addrs` (shard `i` is
    /// served by `addrs[i]`, so the order is part of the deployment).
    pub fn new(
        ver: Ver,
        config: ServeConfig,
        addrs: &[SocketAddr],
        policy: RetryPolicy,
    ) -> Result<RouterEngine> {
        if addrs.is_empty() {
            return Err(VerError::Config(
                "router mode needs at least one shard-leg address".into(),
            ));
        }
        Ok(RouterEngine {
            front: Front::new(&config),
            legs: addrs.iter().map(|&a| RemoteLeg::new(a, policy)).collect(),
            ver,
            config,
        })
    }

    /// [`RouterEngine::new`] from shared catalog/index handles.
    pub fn warm_start(
        catalog: Arc<TableCatalog>,
        index: Arc<DiscoveryIndex>,
        config: ServeConfig,
        addrs: &[SocketAddr],
        policy: RetryPolicy,
    ) -> Result<RouterEngine> {
        let ver = Ver::from_parts(catalog, index, config.pipeline.clone())?;
        Self::new(ver, config, addrs, policy)
    }

    /// Number of shards (= remote legs) queries scatter over.
    pub fn shard_count(&self) -> usize {
        self.legs.len()
    }

    /// The wrapped pipeline facade (selection + central finish).
    pub fn ver(&self) -> &Ver {
        &self.ver
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Answer a view specification by scattering over the remote legs.
    /// Unbudgeted shorthand for [`query_with_budget`](Self::query_with_budget).
    pub fn query(&self, spec: &ViewSpec) -> Result<Arc<QueryResult>> {
        self.query_with_budget(spec, &QueryBudget::none())
    }

    /// [`query`](Self::query) under a per-query [`QueryBudget`] — the
    /// [`ServeEngine`](crate::ServeEngine) contract, with remote legs:
    /// cache hits are free, misses claim an admission slot or fail fast, a
    /// leg the envelope cannot reach degrades the merge to a partial
    /// (never-cached) result, a hard deadline consults the LRU once more
    /// before surfacing, and any other error propagates typed.
    pub fn query_with_budget(
        &self,
        spec: &ViewSpec,
        budget: &QueryBudget,
    ) -> Result<Arc<QueryResult>> {
        self.front.query(spec, || {
            let (outputs, complete) = scatter(&self.legs, spec, budget)?;
            self.ver
                .gather_shard_outputs(spec, budget, outputs, complete)
        })
    }

    /// Serving statistics in the common [`ServeStats`] shape. The router
    /// runs no local search, so the view/score cache counters are the
    /// disabled-cache zero (sessions likewise live on the single-engine
    /// surface only).
    pub fn stats(&self) -> ServeStats {
        self.front.stats()
    }

    /// Per-leg health, indexed by shard id.
    pub fn leg_stats(&self) -> Vec<RouterLegStats> {
        self.legs.iter().map(|l| l.stats()).collect()
    }
}
