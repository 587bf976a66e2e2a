//! `verd` servers over loopback inside the benchmark's process, and the
//! closed-loop clients that drive them.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ver_common::error::{Result, VerError};
use ver_serve::net::{
    Backend, Client, NetConfig, NetStats, RetryPolicy, Server, ServerHandle, WireResult,
};
use ver_serve::{RouterEngine, RouterLegStats, ServeConfig, ServeEngine, ServeStats};

use crate::corpus::{Fixture, Spec};

/// Views per page. Every WDC-250 answer carries 3.6k–26k candidate views,
/// so each answer spans at least three pages.
pub const PAGE_SIZE: u32 = 1024;
/// Concurrent clients, one connection each: one per hardware thread of
/// the 2-thread hosts the benchmark was sized on.
pub const CLIENTS: usize = 2;
/// Shard legs behind the router of the routed pass.
pub const LEGS: usize = 2;

/// The servers of one workload: a single engine, or a router over
/// shard-leg servers.
pub struct Deployment {
    front: ServerHandle,
    legs: Vec<ServerHandle>,
    leg_engines: Vec<Arc<ServeEngine>>,
    engine: Engine,
}

enum Engine {
    Single(Arc<ServeEngine>),
    Router(Arc<RouterEngine>),
}

/// Counters of every server in a deployment.
#[derive(Debug, Clone)]
pub struct DeploymentStats {
    /// The front engine: the single engine, or the router.
    pub serve: ServeStats,
    /// The front server's network counters.
    pub net: NetStats,
    /// Network counters of each shard-leg server.
    pub leg_net: Vec<NetStats>,
    /// Engine counters of each shard-leg server.
    pub leg_serve: Vec<ServeStats>,
    /// The router's per-leg health.
    pub router: Vec<RouterLegStats>,
}

fn spawn(backend: Backend) -> Result<ServerHandle> {
    let config = NetConfig {
        addr: "127.0.0.1:0".parse().expect("literal address"),
        // The benchmark sets its own load; admission is the engine's job.
        max_conns: 0,
        ..NetConfig::default()
    };
    Ok(Server::bind(backend, config)?.spawn())
}

impl Deployment {
    /// One `verd` over a single engine with the shipped configuration.
    pub fn single(fx: &Fixture) -> Result<Deployment> {
        let engine = Arc::new(ServeEngine::warm_start(
            Arc::clone(&fx.catalog),
            Arc::clone(&fx.index),
            ServeConfig::default(),
        )?);
        Ok(Deployment {
            front: spawn(Backend::Single(Arc::clone(&engine)))?,
            legs: Vec::new(),
            leg_engines: Vec::new(),
            engine: Engine::Single(engine),
        })
    }

    /// A router `verd` over [`LEGS`] shard-leg `verd`s.
    pub fn routed(fx: &Fixture) -> Result<Deployment> {
        let mut legs = Vec::with_capacity(LEGS);
        let mut leg_engines = Vec::with_capacity(LEGS);
        for _ in 0..LEGS {
            let engine = Arc::new(ServeEngine::warm_start(
                Arc::clone(&fx.catalog),
                Arc::clone(&fx.index),
                ServeConfig::default(),
            )?);
            legs.push(spawn(Backend::Single(Arc::clone(&engine)))?);
            leg_engines.push(engine);
        }
        let addrs: Vec<SocketAddr> = legs.iter().map(ServerHandle::addr).collect();
        let router = Arc::new(RouterEngine::warm_start(
            Arc::clone(&fx.catalog),
            Arc::clone(&fx.index),
            ServeConfig::default(),
            &addrs,
            RetryPolicy::default(),
        )?);
        Ok(Deployment {
            front: spawn(Backend::Router(Arc::clone(&router)))?,
            legs,
            leg_engines,
            engine: Engine::Router(router),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.front.addr()
    }

    /// The single engine behind the front server, if it is not a router.
    pub fn single_engine(&self) -> Option<&ServeEngine> {
        match &self.engine {
            Engine::Single(e) => Some(e),
            Engine::Router(_) => None,
        }
    }

    pub fn stats(&self) -> DeploymentStats {
        let (serve, router) = match &self.engine {
            Engine::Single(e) => (e.stats(), Vec::new()),
            Engine::Router(r) => (r.stats(), r.leg_stats()),
        };
        DeploymentStats {
            serve,
            net: self.front.net_stats(),
            leg_net: self.legs.iter().map(ServerHandle::net_stats).collect(),
            leg_serve: self.leg_engines.iter().map(|e| e.stats()).collect(),
            router,
        }
    }

    /// Stop the front server, then the legs, joining each accept loop.
    pub fn stop(mut self) {
        self.front.stop();
        for leg in &mut self.legs {
            leg.stop();
        }
    }
}

/// One complete answer, timed from the client.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Stream position of the spec.
    pub pos: usize,
    /// Until the head (ranked ids plus the first page) arrived.
    pub first_page: Duration,
    /// Until the last page arrived.
    pub complete: Duration,
}

/// Query `spec` and page through its whole answer the way
/// `Client::query` does, timing the head and the complete answer.
pub fn fetch(client: &mut Client, spec: &Spec) -> Result<(WireResult, Duration, Duration)> {
    let started = Instant::now();
    let head = client.query_head(&spec.spec, PAGE_SIZE, 0)?;
    let first_page = started.elapsed();
    let total = head.total_views as usize;
    let mut answer = WireResult {
        partial: head.partial,
        stats: head.stats,
        survivors_c2: head.survivors_c2,
        ranked: head.ranked,
        views: head.views,
    };
    let mut page = 1;
    while head.cursor != 0 && answer.views.len() < total {
        let p = client.fetch_page(head.cursor, page)?;
        if p.views.is_empty() && !p.last {
            return Err(VerError::Protocol(format!("page {page} was empty")));
        }
        answer.views.extend(p.views);
        page += 1;
        if p.last {
            break;
        }
    }
    let complete = started.elapsed();
    if answer.views.len() != total {
        return Err(VerError::Protocol(format!(
            "reassembled {} views, head promised {total}",
            answer.views.len()
        )));
    }
    Ok((answer, first_page, complete))
}

/// When a closed loop stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    /// After this many requests in total.
    Requests(usize),
    /// Once this much time has passed; requests in flight complete.
    Elapsed(Duration),
}

/// What one closed-loop phase saw.
#[derive(Debug, Default)]
pub struct LoadOutcome {
    pub timings: Vec<Timing>,
    /// `(stream position, error)` of every request that failed, came back
    /// partial, or came back without views.
    pub failures: Vec<(usize, String)>,
    /// Answers kept for the correctness check, by stream position.
    pub kept: Vec<(usize, WireResult)>,
    pub wall: Duration,
    /// A client needed a spec past the end of a non-cyclic stream.
    pub exhausted: bool,
}

impl LoadOutcome {
    pub fn attempted(&self) -> usize {
        self.timings.len() + self.failures.len()
    }
}

/// Drive `addr` with [`CLIENTS`] closed-loop clients, each on its own
/// connection, sending the next request only once its previous answer is
/// complete. Requests take stream positions `first, first + 1, ...` in
/// order; a `cyclic` stream wraps around, any other must not run out.
/// Answers at the positions in `keep` are returned whole.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &[Spec],
    cyclic: bool,
    first: usize,
    until: Until,
    keep: &[usize],
) -> Result<LoadOutcome> {
    let next = AtomicUsize::new(first);
    let exhausted = AtomicBool::new(false);
    let started = Instant::now();
    let per_client: Vec<Result<LoadOutcome>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| -> Result<LoadOutcome> {
                    let mut out = LoadOutcome::default();
                    let mut client = Client::connect(addr)?;
                    loop {
                        if let Until::Elapsed(d) = until {
                            if started.elapsed() >= d {
                                break;
                            }
                        }
                        let pos = next.fetch_add(1, Ordering::Relaxed);
                        if let Until::Requests(n) = until {
                            if pos >= first + n {
                                break;
                            }
                        }
                        let spec = if cyclic {
                            &stream[pos % stream.len()]
                        } else if let Some(spec) = stream.get(pos) {
                            spec
                        } else {
                            exhausted.store(true, Ordering::Relaxed);
                            break;
                        };
                        match fetch(&mut client, spec) {
                            Ok((answer, first_page, complete)) => {
                                if answer.partial {
                                    out.failures.push((pos, "partial answer".into()));
                                } else if answer.views.is_empty() {
                                    out.failures.push((pos, "answer without views".into()));
                                } else {
                                    out.timings.push(Timing {
                                        pos,
                                        first_page,
                                        complete,
                                    });
                                }
                                if keep.contains(&pos) {
                                    out.kept.push((pos, answer));
                                }
                            }
                            Err(e) => {
                                out.failures.push((pos, e.to_string()));
                                if client.is_poisoned() {
                                    client = Client::connect(addr)?;
                                }
                            }
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = LoadOutcome {
        wall: started.elapsed(),
        exhausted: exhausted.load(Ordering::Relaxed),
        ..LoadOutcome::default()
    };
    for part in per_client {
        let part = part?;
        all.timings.extend(part.timings);
        all.failures.extend(part.failures);
        all.kept.extend(part.kept);
    }
    all.timings.sort_by_key(|t| t.pos);
    all.kept.sort_by_key(|(pos, _)| *pos);
    Ok(all)
}
