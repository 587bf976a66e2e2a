//! The `verd` server core: a thread-per-connection accept loop over the
//! framed protocol of [`super::frame`] / [`super::wire`].
//!
//! Deliberately std-only — `TcpListener` + OS threads, no async runtime
//! (the ROADMAP's vendored-deps constraint). Each connection gets one
//! thread that reads frames in a loop; the heavy lifting inside a query
//! still fans out over `ver_common::pool` exactly as in-process callers
//! do, so thread-per-connection costs one mostly-blocked thread per
//! client, not one core.
//!
//! **Blast-radius contract** (mirrors the engine's): any single
//! connection's failure — peer death mid-frame, protocol garbage, a
//! tripped read/write timeout, even a panicking handler — ends *that
//! connection only*. The accept loop, every other connection, and the
//! engine keep going, and `NetStats` counts what happened. The
//! socket-level chaos tests in `tests/chaos.rs` pin this through the
//! `net.accept` / `net.read` / `net.write` fault points.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ver_common::budget::QueryBudget;
use ver_common::error::{Result, VerError};
use ver_common::fault::{self, points};
use ver_common::fxhash::FxHashMap;
use ver_common::sync::lock_unpoisoned;
use ver_core::QueryResult;
use ver_qbe::ViewSpec;

use super::config::NetConfig;
use super::frame::{encode_frame_with, read_frame, write_frame, ReadOutcome, MAX_FRAME_LEN};
use super::wire::{
    encode_page, encode_query_head, HealthReply, NetStats, Request, Response, StatsReply,
    WireRouterLeg, WireShardOutput, PROTOCOL_VERSION,
};
use crate::remote::RouterEngine;
use crate::{ServeEngine, ServeStats};

/// The engine a server fronts: a single [`ServeEngine`], or a
/// [`RouterEngine`] scattering to remote shard `verd`s — same wire surface
/// either way (scatter/gather is invisible to clients, as invariant 13
/// requires).
#[derive(Clone)]
pub enum Backend {
    Single(Arc<ServeEngine>),
    Router(Arc<RouterEngine>),
}

impl Backend {
    fn query_with_budget(&self, spec: &ViewSpec, budget: &QueryBudget) -> Result<Arc<QueryResult>> {
        match self {
            Backend::Single(e) => e.query_with_budget(spec, budget),
            Backend::Router(e) => e.query_with_budget(spec, budget),
        }
    }

    /// Serve one scatter leg (`ShardQuery`). Only a single engine serves
    /// legs: a router answering a leg request would nest scatters, which
    /// the deployment shape rules out — the router fans out to
    /// *shard-serving* `verd`s, never to another router.
    fn shard_query(
        &self,
        spec: &ViewSpec,
        shard: usize,
        shard_count: usize,
        budget: &QueryBudget,
    ) -> Result<ver_search::ShardSearchOutput> {
        match self {
            Backend::Single(e) => e.shard_query(spec, shard, shard_count, budget),
            Backend::Router(_) => Err(VerError::InvalidQuery(
                "this verd is not a shard leg (router backends do not serve ShardQuery)".into(),
            )),
        }
    }

    fn stats(&self) -> ServeStats {
        match self {
            Backend::Single(e) => e.stats(),
            Backend::Router(e) => e.stats(),
        }
    }

    /// Per-leg router health — empty for non-router backends.
    fn router_stats(&self) -> Vec<WireRouterLeg> {
        match self {
            Backend::Single(_) => Vec::new(),
            Backend::Router(e) => e
                .leg_stats()
                .into_iter()
                .map(|l| WireRouterLeg {
                    addr: l.addr,
                    attempts: l.attempts,
                    retries: l.retries,
                    failures: l.failures,
                    failovers: l.failovers,
                    breaker: l.breaker.wire_tag(),
                })
                .collect(),
        }
    }

    fn health(&self) -> (u64, u64, u32) {
        let (catalog, shards) = match self {
            Backend::Single(e) => (e.catalog_shared(), 1),
            Backend::Router(e) => (e.ver().catalog_shared(), e.shard_count() as u32),
        };
        (
            catalog.table_count() as u64,
            catalog.column_count() as u64,
            shards,
        )
    }
}

/// Lifetime counters, lock-free on the hot path.
#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    rejected_conns: AtomicU64,
    dropped_conns: AtomicU64,
    protocol_errors: AtomicU64,
    handler_panics: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    pages_served: AtomicU64,
    cursors_evicted: AtomicU64,
}

impl Counters {
    fn snapshot(&self, cursors_open: u64) -> NetStats {
        NetStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            active: self.active.load(Ordering::Relaxed),
            rejected_conns: self.rejected_conns.load(Ordering::Relaxed),
            dropped_conns: self.dropped_conns.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            handler_panics: self.handler_panics.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            pages_served: self.pages_served.load(Ordering::Relaxed),
            cursors_open,
            cursors_evicted: self.cursors_evicted.load(Ordering::Relaxed),
        }
    }
}

/// One paginated result parked server-side between `FetchPage`s: the
/// same `Arc` the result cache holds, so a cursor costs a map entry, not
/// a copy of the result. Each page is encoded from it on demand.
struct CursorState {
    result: Arc<QueryResult>,
    page_size: u32,
}

/// Open cursors, FIFO-evicted at `max_cursors` (a cursor leak from
/// clients that never finish paging must not grow without bound).
#[derive(Default)]
struct CursorTable {
    map: FxHashMap<u64, CursorState>,
    order: std::collections::VecDeque<u64>,
}

struct Shared {
    backend: Backend,
    config: NetConfig,
    counters: Counters,
    cursors: Mutex<CursorTable>,
    next_cursor: AtomicU64,
    shutdown: AtomicBool,
    started: Instant,
    /// Actual bound address (resolves `:0` ephemeral binds).
    addr: SocketAddr,
}

impl Shared {
    fn net_stats(&self) -> NetStats {
        let open = lock_unpoisoned(&self.cursors).map.len();
        self.counters.snapshot(open as u64)
    }

    /// Set the shutdown flag and nudge the accept loop awake with a
    /// throwaway connection (std has no selectable listener).
    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Ok(s) = TcpStream::connect(self.addr) {
            drop(s);
        }
    }
}

/// A bound-but-not-yet-running server. [`Server::run`] serves on the
/// calling thread; [`Server::spawn`] serves on a background thread and
/// returns a [`ServerHandle`].
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Bind `config.addr` (use port 0 for an ephemeral port — the real
    /// address is available from [`Server::local_addr`]).
    pub fn bind(backend: Backend, config: NetConfig) -> Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        let addr = listener.local_addr()?;
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                backend,
                config,
                counters: Counters::default(),
                cursors: Mutex::new(CursorTable::default()),
                next_cursor: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                started: Instant::now(),
                addr,
            }),
        })
    }

    /// The address actually bound.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Serve until a `Shutdown` request (or [`ServerHandle::stop`])
    /// lands. Connection threads are detached; in-flight requests on
    /// other connections finish writing, but no new connection is
    /// accepted once the flag is up.
    pub fn run(self) -> Result<()> {
        let shared = self.shared;
        loop {
            if shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let (stream, _peer) = match self.listener.accept() {
                Ok(conn) => conn,
                Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
                Err(_) => continue,
            };
            if shared.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection itself
            }
            shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
            let cap = shared.config.max_conns;
            if cap > 0 && shared.counters.active.load(Ordering::Relaxed) >= cap as u64 {
                shared
                    .counters
                    .rejected_conns
                    .fetch_add(1, Ordering::Relaxed);
                reject_overloaded(stream, &shared.config);
                continue;
            }
            shared.counters.active.fetch_add(1, Ordering::Relaxed);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                // A panicking handler (or injected `net.*` panic) costs
                // this connection, nothing else.
                let result = catch_unwind(AssertUnwindSafe(|| serve_conn(&stream, &shared)));
                if result.is_err() {
                    shared
                        .counters
                        .handler_panics
                        .fetch_add(1, Ordering::Relaxed);
                    shared
                        .counters
                        .dropped_conns
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared.counters.active.fetch_sub(1, Ordering::Relaxed);
            });
        }
        Ok(())
    }

    /// Serve on a background thread; the handle stops (and joins) the
    /// accept loop on demand and exposes live counters for tests.
    pub fn spawn(self) -> ServerHandle {
        let shared = Arc::clone(&self.shared);
        let join = std::thread::spawn(move || self.run());
        ServerHandle {
            shared,
            join: Some(join),
        }
    }
}

/// Control handle for a spawned [`Server`].
pub struct ServerHandle {
    shared: Arc<Shared>,
    join: Option<std::thread::JoinHandle<Result<()>>>,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Live network counters (the same snapshot `Stats` returns on the
    /// wire).
    pub fn net_stats(&self) -> NetStats {
        self.shared.net_stats()
    }

    /// Stop accepting and join the accept loop. Idempotent.
    pub fn stop(&mut self) {
        self.shared.begin_shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Tell an over-cap peer why it is being turned away — best-effort, with
/// a short write timeout so a full socket cannot stall the accept loop.
fn reject_overloaded(mut stream: TcpStream, config: &NetConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout.min(Duration::from_secs(1))));
    let resp = Response::Error {
        code: VerError::Overloaded(String::new()).wire_code(),
        message: format!("connection cap ({}) reached", config.max_conns),
    };
    let _ = write_frame(&mut &stream, &resp.encode());
    let _ = stream.flush();
}

/// Serve one connection until the peer closes, errors out, or asks for
/// shutdown.
fn serve_conn(stream: &TcpStream, shared: &Shared) {
    let c = &shared.counters;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(nonzero(shared.config.read_timeout));
    let _ = stream.set_write_timeout(nonzero(shared.config.write_timeout));
    if fault::hit(points::NET_ACCEPT).is_err() {
        c.dropped_conns.fetch_add(1, Ordering::Relaxed);
        return;
    }
    loop {
        if fault::hit(points::NET_READ).is_err() {
            c.dropped_conns.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload = match read_frame(&mut &*stream) {
            Ok(ReadOutcome::Eof) => return, // clean close between frames
            Ok(ReadOutcome::Frame(p)) => {
                c.frames_in.fetch_add(1, Ordering::Relaxed);
                p
            }
            Err(VerError::Protocol(_)) => {
                // Bad preamble / oversized length / checksum mismatch /
                // death mid-frame: the stream can no longer be trusted
                // to be frame-aligned. Best-effort error frame, then cut.
                c.protocol_errors.fetch_add(1, Ordering::Relaxed);
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                let resp = Response::Error {
                    code: VerError::Protocol(String::new()).wire_code(),
                    message: "malformed frame".into(),
                };
                let _ = write_frame(&mut &*stream, &resp.encode());
                return;
            }
            Err(_) => {
                // Socket error or read timeout.
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        let (frame, shutdown_after) = match Request::decode(&payload) {
            Ok(req) => {
                let shutdown = matches!(req, Request::Shutdown);
                (handle_request(shared, req), shutdown)
            }
            Err(e) => {
                // The frame checksum passed, so framing is still aligned
                // — report the typed error and keep the connection.
                c.protocol_errors.fetch_add(1, Ordering::Relaxed);
                (frame_reply(&error_response(&e)), false)
            }
        };
        if fault::hit(points::NET_WRITE).is_err() {
            c.dropped_conns.fetch_add(1, Ordering::Relaxed);
            return;
        }
        match (&*stream)
            .write_all(&frame)
            .and_then(|()| (&*stream).flush())
        {
            Ok(()) => {
                c.frames_out.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Write failure or tripped write timeout (slow-loris
                // peer): this connection is done.
                c.dropped_conns.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        if shutdown_after {
            shared.begin_shutdown();
            return;
        }
    }
}

fn nonzero(d: Duration) -> Option<Duration> {
    if d.is_zero() {
        None
    } else {
        Some(d)
    }
}

/// Map a `VerError` onto a typed wire status frame. The message carries
/// the error's rendered form minus the variant prefix the client will
/// re-attach via `from_wire` → `Display`.
fn error_response(e: &VerError) -> Response {
    let rendered = e.to_string();
    let message = match rendered.split_once(": ") {
        Some((_prefix, m)) => m.to_string(),
        None => rendered,
    };
    Response::Error {
        code: e.wire_code(),
        message,
    }
}

/// Frame a reply whose size is bounded by construction (stats, health,
/// acks, errors): only answers carry view data that can outgrow a frame.
fn frame_reply(resp: &Response) -> Vec<u8> {
    encode_frame_with(|out| resp.encode_into(out)).unwrap_or_else(|len| {
        panic!("a reply without view data is {len} bytes, over the frame cap")
    })
}

/// The typed error for an answer, or one page of it, whose payload is
/// over [`MAX_FRAME_LEN`]: the caller can ask again with a smaller
/// `page_size`.
fn over_cap(what: String, len: usize) -> VerError {
    VerError::InvalidQuery(format!(
        "{what} is {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap; \
         ask for a smaller page_size"
    ))
}

/// Count a query's outcome in `ok` or `err`.
fn count<T>(counters: &Counters, reply: &Result<T>) {
    let counter = match reply {
        Ok(_) => &counters.queries_ok,
        Err(_) => &counters.queries_err,
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Handle one request and return the framed reply. Every failure becomes
/// a typed `Error` frame, so the connection stays usable.
fn handle_request(shared: &Shared, req: Request) -> Vec<u8> {
    let reply = match req {
        Request::Query {
            spec,
            page_size,
            timeout_ms,
        } => {
            let budget = if timeout_ms == 0 {
                QueryBudget::none()
            } else {
                QueryBudget::none().with_timeout(Duration::from_millis(timeout_ms))
            };
            let reply = shared
                .backend
                .query_with_budget(&spec, &budget)
                .and_then(|result| paginate(shared, result, page_size));
            count(&shared.counters, &reply);
            reply
        }
        Request::ShardQuery {
            spec,
            shard,
            shard_count,
            budget_ms,
        } => {
            // The wire carries the budget *remaining at the router*; the
            // leg rebuilds a local deadline from it (0 = no deadline).
            let budget = if budget_ms == 0 {
                QueryBudget::none()
            } else {
                QueryBudget::none().with_timeout(Duration::from_millis(budget_ms))
            };
            let reply = shared
                .backend
                .shard_query(&spec, shard as usize, shard_count as usize, &budget)
                .and_then(|out| shard_output_frame(&out));
            count(&shared.counters, &reply);
            reply
        }
        Request::FetchPage { cursor, page } => fetch_page(shared, cursor, page),
        Request::Stats => Ok(frame_reply(&Response::Stats(StatsReply {
            serve: shared.backend.stats(),
            net: shared.net_stats(),
            router: shared.backend.router_stats(),
        }))),
        Request::Health => {
            let (tables, columns, shards) = shared.backend.health();
            Ok(frame_reply(&Response::Health(HealthReply {
                protocol_version: PROTOCOL_VERSION,
                tables,
                columns,
                shards,
                uptime_ms: shared.started.elapsed().as_millis() as u64,
            })))
        }
        Request::Shutdown => Ok(frame_reply(&Response::ShutdownAck)),
    };
    reply.unwrap_or_else(|e| frame_reply(&error_response(&e)))
}

/// Frame one scatter leg's output. A leg whose output is over the frame
/// cap fails `Internal`, which the router degrades to a partial answer.
fn shard_output_frame(out: &ver_search::ShardSearchOutput) -> Result<Vec<u8>> {
    encode_frame_with(|buf| {
        Response::ShardOutput(WireShardOutput::from_output(out)).encode_into(buf)
    })
    .map_err(|len| {
        VerError::Internal(format!(
            "shard {} output is {len} bytes, over the {MAX_FRAME_LEN}-byte frame cap",
            out.shard
        ))
    })
}

/// Frame the head of a result — page 0, or all of it — straight from the
/// shared result, and park the result under a cursor when pages remain.
fn paginate(
    shared: &Shared,
    result: Arc<QueryResult>,
    requested_page_size: u32,
) -> Result<Vec<u8>> {
    let page_size = if requested_page_size == 0 {
        shared.config.default_page_size
    } else {
        requested_page_size
    };
    let paged = page_size != 0 && result.views.len() > page_size as usize;
    let (cursor, effective) = if paged {
        (
            shared.next_cursor.fetch_add(1, Ordering::Relaxed),
            page_size,
        )
    } else {
        (0, 0)
    };
    let frame = encode_frame_with(|out| encode_query_head(out, &result, effective, cursor))
        .map_err(|len| over_cap("the answer's first frame".into(), len))?;
    if paged {
        // Parked only once its head is framed: a client cannot ask for a
        // page of a cursor it has not been sent.
        let mut evicted = Vec::new();
        let mut table = lock_unpoisoned(&shared.cursors);
        table.map.insert(cursor, CursorState { result, page_size });
        table.order.push_back(cursor);
        while table.map.len() > shared.config.max_cursors.max(1) {
            let Some(old) = table.order.pop_front() else {
                break;
            };
            if let Some(state) = table.map.remove(&old) {
                evicted.push(state);
                shared
                    .counters
                    .cursors_evicted
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(table);
        // An evicted cursor may hold the last reference to its result;
        // free it outside the lock.
        drop(evicted);
    }
    Ok(frame)
}

/// Frame page `page` of a parked result. The lock covers only the cursor
/// lookup: the page is encoded from a clone of the result's `Arc`, and
/// draining the last page frees just the map entry.
fn fetch_page(shared: &Shared, cursor: u64, page: u32) -> Result<Vec<u8>> {
    let (result, start, end, last) = {
        let mut table = lock_unpoisoned(&shared.cursors);
        let state = table.map.get(&cursor).ok_or_else(|| {
            VerError::NotFound(format!(
                "cursor {cursor} (expired, drained, or never issued)"
            ))
        })?;
        let page_size = state.page_size as usize;
        let total = state.result.views.len();
        let start = (page as usize).saturating_mul(page_size);
        if start >= total {
            return Err(VerError::InvalidQuery(format!(
                "page {page} out of range for cursor {cursor} ({total} views, page size {page_size})"
            )));
        }
        let end = (start + page_size).min(total);
        let result = Arc::clone(&state.result);
        let last = end == total;
        if last {
            table.map.remove(&cursor);
            table.order.retain(|c| *c != cursor);
        }
        (result, start, end, last)
    };
    let frame =
        encode_frame_with(|out| encode_page(out, cursor, page, last, &result.views[start..end]))
            .map_err(|len| over_cap(format!("page {page} of cursor {cursor}"), len))?;
    shared.counters.pages_served.fetch_add(1, Ordering::Relaxed);
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::frame::decode_frame;
    use crate::net::Client;
    use crate::ServeConfig;
    use ver_common::ids::ViewId;
    use ver_common::value::{DataType, Value};
    use ver_core::engine::{Provenance, View};
    use ver_core::VerConfig;
    use ver_qbe::ExampleQuery;
    use ver_store::catalog::TableCatalog;
    use ver_store::column::Column;
    use ver_store::schema::{ColumnMeta, TableSchema};
    use ver_store::table::{Table, TableBuilder};

    /// airports ⋈ state_pop plus a conflicting state_pop_old: an answer
    /// of several views, so a page size of 1 paginates it.
    fn engine() -> ServeEngine {
        let mut cat = TableCatalog::new();
        let states: Vec<String> = (0..40).map(|i| format!("st{i}")).collect();
        let mut b = TableBuilder::new("airports", &["iata", "state"]);
        for (i, s) in states.iter().enumerate() {
            b.push_row(vec![Value::text(format!("AP{i}")), Value::text(s.clone())])
                .unwrap();
        }
        cat.add_table(b.build()).unwrap();
        for (name, base) in [("state_pop", 1000), ("state_pop_old", 900)] {
            let mut b = TableBuilder::new(name, &["state", "pop"]);
            for (i, s) in states.iter().enumerate() {
                b.push_row(vec![Value::text(s.clone()), Value::Int(base + i as i64)])
                    .unwrap();
            }
            cat.add_table(b.build()).unwrap();
        }
        let config = ServeConfig {
            pipeline: VerConfig::fast(),
            ..ServeConfig::default()
        };
        ServeEngine::build(cat, config).unwrap()
    }

    fn spec() -> ViewSpec {
        ViewSpec::Qbe(ExampleQuery::from_rows(&[vec!["st1", "1001"], vec!["st2", "1002"]]).unwrap())
    }

    fn bind(engine: &Arc<ServeEngine>) -> Server {
        let config = NetConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            ..NetConfig::default()
        };
        Server::bind(Backend::Single(Arc::clone(engine)), config).unwrap()
    }

    #[test]
    fn a_poisoned_cursor_table_still_pages_and_counts_cursors() {
        let handle = bind(&Arc::new(engine())).spawn();
        let shared = Arc::clone(&handle.shared);
        let poisoner = std::thread::spawn(move || {
            let _table = shared.cursors.lock().unwrap();
            panic!("a handler dies holding the cursor lock");
        });
        assert!(poisoner.join().is_err());
        assert!(handle.shared.cursors.is_poisoned());

        let mut client = Client::connect(handle.addr()).unwrap();
        let whole = client.query(&spec(), 0, 0).unwrap();
        assert!(whole.views.len() > 1, "the answer must span pages");
        let paged = client.query(&spec(), 1, 0).unwrap();
        assert_eq!(paged, whole);
        let head = client.query_head(&spec(), 1, 0).unwrap();
        assert_ne!(head.cursor, 0);
        let net = client.stats().unwrap().net;
        assert_eq!(net.cursors_open, 1, "{net:?}");
        assert_eq!(net.handler_panics, 0, "{net:?}");
    }

    /// One column of `rows` cells that all share one 1 KiB text value.
    fn wide_view(id: u32, rows: usize) -> View {
        let text = Value::text("x".repeat(1024));
        let schema = TableSchema::new(
            "wide",
            vec![ColumnMeta {
                name: Some("c".into()),
                dtype: DataType::Text,
            }],
        );
        let table = Table::new(schema, vec![Column::from_values(vec![text; rows])]).unwrap();
        View::new(ViewId(id), table, Provenance::default())
    }

    /// Decode a reply frame into the typed error it carries.
    fn error_of(frame: &[u8]) -> VerError {
        match Response::decode(&decode_frame(frame).unwrap()).unwrap() {
            Response::Error { code, message } => VerError::from_wire(code, message),
            other => panic!("expected an error, got {other:?}"),
        }
    }

    #[test]
    fn an_answer_over_the_frame_cap_is_a_typed_error() {
        let engine = Arc::new(engine());
        let server = bind(&engine);
        let shared = &server.shared;
        // 1029 bytes per cell: just over the cap in one view.
        let rows = MAX_FRAME_LEN as usize / 1024 + 1024;
        let mut result = engine.ver().run(&spec()).unwrap();
        let small = result.views[0].clone();
        result.views = vec![small, wide_view(1, rows)];
        let result = Arc::new(result);

        // Inline: the head itself is over the cap.
        let err = paginate(shared, Arc::clone(&result), 0).unwrap_err();
        let VerError::InvalidQuery(m) = &err else {
            panic!("expected InvalidQuery, got {err:?}");
        };
        assert!(m.contains(&MAX_FRAME_LEN.to_string()), "{m}");
        assert!(m.contains("page_size"), "{m}");
        // What the connection sends back: the typed error, framed.
        let frame = frame_reply(&error_response(&err));
        assert!(matches!(error_of(&frame), VerError::InvalidQuery(_)));

        // Paged by one view: the head fits, page 1 does not.
        let head = paginate(shared, Arc::clone(&result), 1).unwrap();
        let Response::Query(head) = Response::decode(&decode_frame(&head).unwrap()).unwrap() else {
            panic!("expected a head");
        };
        let err = fetch_page(shared, head.cursor, 1).unwrap_err();
        assert!(
            matches!(&err, VerError::InvalidQuery(m) if m.contains("page 1")),
            "{err:?}"
        );

        // A leg's output over the cap fails Internal, which the router
        // degrades to a partial answer.
        let out = ver_search::ShardSearchOutput {
            shard: 0,
            shard_count: 1,
            views: vec![ver_search::ShardView {
                score: 1.0,
                canon: Vec::new(),
                projection: Arc::from(Vec::new()),
                view: wide_view(0, rows),
            }],
            stats: ver_search::SearchStats::default(),
            dag: ver_search::MaterializeStats::default(),
            timer: ver_common::timer::PhaseTimer::new(),
            partial: false,
        };
        let err = shard_output_frame(&out).unwrap_err();
        assert!(matches!(err, VerError::Internal(_)), "{err:?}");
    }
}
