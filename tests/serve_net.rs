//! The golden suite, over a real socket.
//!
//! Invariant 12: a result fetched through `verd`'s wire protocol is
//! byte-identical to the same query answered in process. This suite
//! drives the fixed golden workload (`tests/golden_online.rs`) through a
//! TCP server + blocking client on an ephemeral port and pins the
//! client-side rendering against `tests/golden/online_snapshot.txt` —
//! cold caches, warm caches, 4 concurrent clients, paginated fetches
//! reassembled page by page, and a router scattering over 1, 2 and 4
//! remote legs.

use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};
use ver_bench::golden::{golden_catalog, golden_queries, SNAPSHOT_PATH};
use ver_index::persist::save_index;
use ver_index::{build_index, DiscoveryIndex, IndexConfig};
use ver_qbe::ViewSpec;
use ver_serve::net::frame::{read_frame, write_frame, ReadOutcome};
use ver_serve::net::wire::{encode_page, encode_query_head};
use ver_serve::net::{
    Backend, Client, NetConfig, Page, QueryHead, Request, Response, RetryPolicy, Server,
    ServerHandle, WireResult,
};
use ver_serve::{RouterEngine, ServeConfig, ServeEngine};
use ver_store::catalog::TableCatalog;

fn golden_expected() -> String {
    std::fs::read_to_string(SNAPSHOT_PATH)
        .expect("missing golden snapshot — run golden_online with VER_UPDATE_GOLDEN=1")
}

fn catalog() -> Arc<TableCatalog> {
    static CAT: OnceLock<Arc<TableCatalog>> = OnceLock::new();
    Arc::clone(CAT.get_or_init(|| Arc::new(golden_catalog())))
}

fn index() -> Arc<DiscoveryIndex> {
    static IDX: OnceLock<Arc<DiscoveryIndex>> = OnceLock::new();
    Arc::clone(IDX.get_or_init(|| {
        Arc::new(build_index(&catalog(), IndexConfig::default()).expect("index build"))
    }))
}

fn queries() -> Vec<(String, ViewSpec)> {
    golden_queries(&catalog())
}

/// Spawn a server on an ephemeral port over a fresh warm-started engine
/// (cold caches — each test that needs a cold pass gets its own).
fn spawn_single() -> ServerHandle {
    let engine =
        ServeEngine::warm_start(catalog(), index(), ServeConfig::default()).expect("warm start");
    spawn_with(Backend::Single(Arc::new(engine)), NetConfig::default())
}

fn spawn_with(backend: Backend, mut config: NetConfig) -> ServerHandle {
    config.addr = "127.0.0.1:0".parse().unwrap();
    Server::bind(backend, config).expect("bind").spawn()
}

/// Render the golden workload fetched through `client` in the snapshot
/// file's exact format.
fn wire_snapshot(client: &mut Client, queries: &[(String, ViewSpec)], page_size: u32) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# golden online-path snapshot (see golden_online.rs)");
    let _ = writeln!(out);
    for (name, spec) in queries {
        let result = client.query(spec, page_size, 0).expect("wire query");
        result.render(&mut out, name);
    }
    out
}

#[test]
fn over_the_wire_matches_the_golden_snapshot_cold_and_warm() {
    // The full deployment path: build → persist → warm-start → serve.
    let dir = std::env::temp_dir().join(format!("ver_serve_net_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("index_net.bin");
    save_index(&index(), &path).expect("save");
    let engine = ServeEngine::open(catalog(), &path, ServeConfig::default()).expect("warm start");
    std::fs::remove_file(&path).ok();

    let handle = spawn_with(Backend::Single(Arc::new(engine)), NetConfig::default());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let expected = golden_expected();
    let queries = queries();

    // Pass 1: cold caches — every query runs the pipeline server-side.
    let cold = wire_snapshot(&mut client, &queries, 0);
    assert_eq!(
        cold, expected,
        "over-the-wire result diverged from the golden snapshot (cold caches)"
    );

    // Pass 2: warm caches — served from the result LRU, same bytes.
    let warm = wire_snapshot(&mut client, &queries, 0);
    assert_eq!(
        warm, expected,
        "cache-hitting wire result diverged from the golden snapshot"
    );

    let stats = client.stats().expect("stats");
    assert_eq!(stats.serve.queries as usize, queries.len() * 2);
    assert_eq!(
        stats.serve.result_cache.hits as usize,
        queries.len(),
        "second pass must be result-cache hits"
    );
    assert_eq!(stats.net.queries_ok as usize, queries.len() * 2);
    assert_eq!(stats.net.protocol_errors, 0);
    assert_eq!(stats.net.dropped_conns, 0);

    let health = client.health().expect("health");
    assert_eq!(health.tables as usize, catalog().table_count());
    assert_eq!(health.shards, 1);

    // Shutdown over the wire: acked, then the accept loop exits.
    client.shutdown().expect("shutdown ack");
    drop(handle); // joins the accept thread (hangs here = shutdown broke)
}

#[test]
fn paginated_fetch_reassembles_the_exact_full_result() {
    let handle = spawn_single();
    let mut client = Client::connect(handle.addr()).expect("connect");

    for (name, spec) in &queries() {
        let whole = client.query(spec, 0, 0).expect("single-shot query");
        // A page size that forces many FetchPage round trips.
        let paged = client.query(spec, 7, 0).expect("paginated query");
        assert_eq!(
            paged, whole,
            "{name}: paginated reassembly differs from the single-shot result"
        );

        // And the rendering — the byte-level claim — agrees too.
        let (mut a, mut b) = (String::new(), String::new());
        whole.render(&mut a, name);
        paged.render(&mut b, name);
        assert_eq!(a, b);
    }

    let stats = client.stats().expect("stats");
    assert!(
        stats.net.pages_served > 0,
        "paginated queries must exercise FetchPage: {:?}",
        stats.net
    );
    assert_eq!(
        stats.net.cursors_open, 0,
        "drained cursors must be freed: {:?}",
        stats.net
    );
}

#[test]
fn four_concurrent_clients_see_identical_golden_bytes() {
    let handle = spawn_single();
    let addr = handle.addr();
    let expected = golden_expected();
    let queries = Arc::new(queries());

    let snapshots: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let queries = Arc::clone(&queries);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    // Two clients paginate, two fetch whole results —
                    // the bytes must not care.
                    let page_size = if i % 2 == 0 { 0 } else { 11 };
                    wire_snapshot(&mut client, &queries, page_size)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(
            snap, &expected,
            "concurrent client {i} diverged from the golden snapshot"
        );
    }
    let stats = handle.net_stats();
    assert_eq!(stats.accepted, 4);
    assert_eq!(stats.protocol_errors, 0);
}

/// The reference payloads for one answer at one requested page size,
/// built the way `Response::encode` always has, from
/// `WireResult::from_query_result`: the head, then every follow-up page.
/// `cursor` is the id a paginated head carries.
fn reference_frames(wire: &WireResult, page_size: u32, cursor: u64) -> Vec<Vec<u8>> {
    let total = wire.views.len();
    let paged = page_size != 0 && total > page_size as usize;
    let page0 = if paged { page_size as usize } else { total };
    let mut frames = vec![Response::Query(QueryHead {
        partial: wire.partial,
        stats: wire.stats,
        survivors_c2: wire.survivors_c2.clone(),
        ranked: wire.ranked.clone(),
        total_views: total as u32,
        page_size: if paged { page_size } else { 0 },
        cursor: if paged { cursor } else { 0 },
        views: wire.views[..page0].to_vec(),
    })
    .encode()];
    if paged {
        for (page, views) in wire.views.chunks(page_size as usize).enumerate().skip(1) {
            frames.push(
                Response::Page(Page {
                    cursor,
                    page: page as u32,
                    last: page * page_size as usize + views.len() == total,
                    views: views.to_vec(),
                })
                .encode(),
            );
        }
    }
    frames
}

/// One exchange on a raw socket: the reply's payload bytes as sent.
fn exchange(stream: &mut std::net::TcpStream, req: &Request) -> Vec<u8> {
    write_frame(stream, &req.encode()).expect("send");
    match read_frame(stream).expect("reply") {
        ReadOutcome::Frame(payload) => payload,
        ReadOutcome::Eof => panic!("server closed the connection"),
    }
}

#[test]
fn server_frames_are_byte_identical_to_the_reference_encoding() {
    let engine = Arc::new(
        ServeEngine::warm_start(catalog(), index(), ServeConfig::default()).expect("warm start"),
    );
    let handle = spawn_with(Backend::Single(Arc::clone(&engine)), NetConfig::default());
    let mut stream = std::net::TcpStream::connect(handle.addr()).expect("connect");
    for (name, spec) in &queries() {
        let result = engine.query(spec).expect("query");
        let wire = WireResult::from_query_result(&result);
        let total = wire.views.len() as u32;
        for page_size in [0, 1, 7, total.saturating_sub(1), total, total + 1] {
            let reference = reference_frames(&wire, page_size, 42);

            // The encoders, straight from the shared result.
            let paged = reference.len() > 1;
            let (effective, cursor) = if paged { (page_size, 42) } else { (0, 0) };
            let mut head = Vec::new();
            encode_query_head(&mut head, &result, effective, cursor);
            assert!(
                head == reference[0],
                "{name}, page size {page_size}: head bytes differ"
            );
            for (page, expected) in reference.iter().enumerate().skip(1) {
                let start = page * page_size as usize;
                let end = (start + page_size as usize).min(total as usize);
                let mut bytes = Vec::new();
                encode_page(
                    &mut bytes,
                    cursor,
                    page as u32,
                    end == total as usize,
                    &result.views[start..end],
                );
                assert!(
                    &bytes == expected,
                    "{name}, page size {page_size}: page {page} bytes differ"
                );
            }

            // The live server, frame by frame.
            let head = exchange(
                &mut stream,
                &Request::Query {
                    spec: spec.clone(),
                    page_size,
                    timeout_ms: 0,
                },
            );
            let cursor = match Response::decode(&head).expect("decode head") {
                Response::Query(h) => h.cursor,
                other => panic!("{name}: expected a head, got {other:?}"),
            };
            let reference = reference_frames(&wire, page_size, cursor);
            assert!(
                head == reference[0],
                "{name}, page size {page_size}: served head differs"
            );
            for (page, expected) in reference.iter().enumerate().skip(1) {
                let served = exchange(
                    &mut stream,
                    &Request::FetchPage {
                        cursor,
                        page: page as u32,
                    },
                );
                assert!(
                    &served == expected,
                    "{name}, page size {page_size}: served page {page} differs"
                );
            }
        }
    }
    assert_eq!(handle.net_stats().cursors_open, 0, "every cursor drained");
}

/// Spawn `n` shard-leg servers (each a plain single-engine `verd`
/// backend answering `ShardQuery`) and a router engine fanning out to
/// them over real sockets. Returns the leg handles (kept alive) and the
/// router.
fn spawn_router(n: usize) -> (Vec<ServerHandle>, RouterEngine) {
    let legs: Vec<ServerHandle> = (0..n)
        .map(|_| {
            let engine = ServeEngine::warm_start(catalog(), index(), ServeConfig::default())
                .expect("leg warm start");
            spawn_with(Backend::Single(Arc::new(engine)), NetConfig::default())
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = legs.iter().map(|h| h.addr()).collect();
    let router = RouterEngine::warm_start(
        catalog(),
        index(),
        ServeConfig::default(),
        &addrs,
        RetryPolicy::default(),
    )
    .expect("router warm start");
    (legs, router)
}

#[test]
fn router_over_remote_legs_is_wire_identical_at_every_shard_count() {
    // Invariant 13: a router fanning the scatter out to *remote* shard
    // legs over TCP answers byte-identically to the single engine — and
    // therefore to the golden snapshot — at shard counts 1, 2, and 4.
    let expected = golden_expected();
    for n in [1usize, 2, 4] {
        let (legs, router) = spawn_router(n);
        let handle = spawn_with(Backend::Router(Arc::new(router)), NetConfig::default());
        let mut client = Client::connect(handle.addr()).expect("connect");

        let snap = wire_snapshot(&mut client, &queries(), 0);
        assert_eq!(
            snap, expected,
            "router over {n} remote legs diverged from the golden snapshot"
        );
        assert_eq!(client.health().expect("health").shards as usize, n);

        // Per-leg wire stats: every leg took at least one attempt, none
        // failed, every breaker closed.
        let stats = client.stats().expect("stats");
        assert_eq!(stats.router.len(), n);
        for leg in &stats.router {
            assert!(leg.attempts > 0, "idle leg in a healthy fan-out: {leg:?}");
            assert_eq!(leg.failures, 0, "{leg:?}");
            assert_eq!(leg.failovers, 0, "{leg:?}");
            assert_eq!(leg.breaker, 0, "{leg:?}");
        }
        drop(legs);
    }
}

#[test]
fn router_degrades_to_partial_when_a_leg_server_stops() {
    let (mut legs, router) = spawn_router(2);
    let queries = queries();
    let (_, spec) = &queries[0];

    // Healthy baseline over both remote legs.
    let clean = router.query(spec).expect("clean routed query");
    assert!(!clean.partial);

    // Stop leg 1 for good: its address now refuses connections. A fresh
    // router (cold result cache — a cache hit would mask the dead leg)
    // must degrade to the surviving leg's views — partial, never an
    // error — and the partial result must never enter the cache.
    let addrs: Vec<std::net::SocketAddr> = legs.iter().map(|h| h.addr()).collect();
    let mut dead = legs.pop().unwrap();
    dead.stop();
    let router = RouterEngine::warm_start(
        catalog(),
        index(),
        ServeConfig::default(),
        &addrs,
        RetryPolicy::default(),
    )
    .expect("router warm start");
    let degraded = router
        .query(spec)
        .expect("a dead leg must degrade the merge, not error it");
    assert!(degraded.partial, "dead leg must flag the merge partial");
    assert!(degraded.views.len() <= clean.views.len());
    let again = router
        .query(spec)
        .expect("repeat query over the degraded fan-out");
    assert!(again.partial);
    let stats = router.stats();
    assert_eq!(stats.partial_results, 2);
    assert_eq!(stats.result_cache.hits, 0, "partials must never be cached");
    let leg_stats = router.leg_stats();
    assert_eq!(leg_stats[1].failovers, 2, "{leg_stats:?}");
    assert!(leg_stats[1].failures > 0, "{leg_stats:?}");
}

#[test]
fn connection_cap_rejects_with_a_typed_overloaded_error() {
    let engine =
        ServeEngine::warm_start(catalog(), index(), ServeConfig::default()).expect("warm start");
    let handle = spawn_with(
        Backend::Single(Arc::new(engine)),
        NetConfig {
            max_conns: 2,
            ..NetConfig::default()
        },
    );

    // Fill the cap with two parked (idle but connected) clients.
    let mut parked: Vec<Client> = (0..2)
        .map(|_| Client::connect(handle.addr()).expect("connect"))
        .collect();
    // Park them for real: one exchange each so the server has surely
    // registered both connections before we over-subscribe.
    for c in parked.iter_mut() {
        c.health().expect("health");
    }

    // The third connection is accepted, told Overloaded, and closed —
    // the error frame arrives unprompted, so read it straight off the
    // socket before the close races any request we might send.
    let mut third = std::net::TcpStream::connect(handle.addr()).expect("tcp connect");
    third
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    match ver_serve::net::frame::read_frame(&mut third).expect("overload frame") {
        ver_serve::net::frame::ReadOutcome::Frame(payload) => {
            match ver_serve::net::Response::decode(&payload).expect("decode") {
                ver_serve::net::Response::Error { code, message } => {
                    let e = ver_common::error::VerError::from_wire(code, message);
                    assert!(
                        matches!(e, ver_common::error::VerError::Overloaded(_)),
                        "expected Overloaded, got {e:?}"
                    );
                }
                other => panic!("expected Error frame, got {other:?}"),
            }
        }
        eof => panic!("expected Overloaded frame before close, got {eof:?}"),
    }
    assert!(handle.net_stats().rejected_conns >= 1);

    // Capacity frees as parked clients hang up.
    drop(parked);
    // The server notices the hangups asynchronously; retry briefly.
    let mut ok = false;
    for _ in 0..100 {
        let mut retry = Client::connect(handle.addr()).expect("tcp connect");
        if retry.health().is_ok() {
            ok = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(ok, "capacity must free once parked connections close");
}
