//! Request/response codecs for the `verd` protocol.
//!
//! Everything here is hand-rolled little-endian binary on plain byte
//! buffers, following the `ver-index::persist` conventions: explicit
//! length prefixes, tagged unions, a bounds-checked [`Reader`] that turns
//! every malformed payload into a typed error instead of a panic, and no
//! reliance on untrusted counts for allocation sizing. Payloads produced
//! here travel inside the checksummed frames of [`super::frame`].
//!
//! The response side ships *materialized view data* — schemas and rows —
//! not just metadata, so a client can reassemble a byte-identical replica
//! of the in-process [`QueryResult`] rendering
//! (invariant 12: over-the-wire result ≡ in-process result).
//! `f64` scores travel as raw IEEE-754 bits to keep that equivalence
//! bit-exact.

use std::fmt::Write as _;
use std::sync::Arc;

use ver_common::error::{Result, VerError};
use ver_common::value::Value;
use ver_core::QueryResult;
use ver_qbe::{ExampleQuery, QueryColumn, ViewSpec};

use crate::ServeStats;

/// Wire-format version carried in `Health` replies; bump on any breaking
/// codec change (the frame preamble version covers framing only).
///
/// v2: `ShardQuery` / `ShardOutput` messages for remote scatter legs, and
/// per-leg router stats appended to `Stats` replies.
pub const PROTOCOL_VERSION: u32 = 2;

// ---------------------------------------------------------------------
// bounds-checked reader + write helpers
// ---------------------------------------------------------------------

/// Bounds-checked little-endian reader over an untrusted payload.
///
/// Mirrors the `ver-index::persist` cursor, but types failures as
/// [`VerError::Protocol`]: a short read here means a peer sent garbage,
/// not that a file on disk rotted.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.len() - self.pos < n {
            return Err(VerError::Protocol(format!(
                "payload truncated reading {what} at offset {}",
                self.pos
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        self.need(n, what)?;
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn u16(&mut self, what: &str) -> Result<u16> {
        Ok(u16::from_le_bytes(
            self.take(2, what)?.try_into().expect("2 bytes"),
        ))
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    /// A `u32` collection count, sanity-capped against the bytes that
    /// remain: every element occupies at least `min_elem_bytes`, so a
    /// count that could not possibly fit is rejected *before* any loop
    /// or allocation.
    pub fn count(&mut self, min_elem_bytes: usize, what: &str) -> Result<usize> {
        let n = self.u32(what)? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(VerError::Protocol(format!(
                "count {n} for {what} exceeds remaining payload"
            )));
        }
        Ok(n)
    }

    pub fn string(&mut self, what: &str) -> Result<String> {
        let len = self.count(1, what)?;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| VerError::Protocol(format!("invalid utf-8 in {what}")))
    }

    pub fn opt_string(&mut self, what: &str) -> Result<Option<String>> {
        match self.u8(what)? {
            0 => Ok(None),
            1 => Ok(Some(self.string(what)?)),
            t => Err(VerError::Protocol(format!("bad option tag {t} for {what}"))),
        }
    }

    pub fn bool(&mut self, what: &str) -> Result<bool> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(VerError::Protocol(format!("bad bool tag {t} for {what}"))),
        }
    }

    pub fn value(&mut self, what: &str) -> Result<Value> {
        match self.u8(what)? {
            0 => Ok(Value::Null),
            1 => Ok(Value::Int(self.u64(what)? as i64)),
            2 => Ok(Value::Float(f64::from_bits(self.u64(what)?))),
            3 => Ok(Value::Text(Arc::from(self.string(what)?.as_str()))),
            t => Err(VerError::Protocol(format!("bad value tag {t} for {what}"))),
        }
    }

    /// Decoding must consume the payload exactly — trailing bytes mean
    /// the peer and we disagree about the format.
    pub fn finish(self, what: &str) -> Result<()> {
        if self.pos != self.buf.len() {
            return Err(VerError::Protocol(format!(
                "{} trailing bytes after {what}",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_string(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_string(out, s);
        }
    }
}

fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(0),
        Value::Int(i) => {
            out.push(1);
            put_u64(out, *i as u64);
        }
        Value::Float(f) => {
            out.push(2);
            put_u64(out, f.to_bits());
        }
        Value::Text(t) => {
            out.push(3);
            put_string(out, t);
        }
    }
}

// ---------------------------------------------------------------------
// ViewSpec codec
// ---------------------------------------------------------------------

fn put_spec(out: &mut Vec<u8>, spec: &ViewSpec) {
    match spec {
        ViewSpec::Qbe(q) => {
            out.push(0);
            put_u32(out, q.columns.len() as u32);
            for col in &q.columns {
                put_opt_string(out, col.name_hint.as_deref());
                put_u32(out, col.examples.len() as u32);
                for v in &col.examples {
                    put_value(out, v);
                }
            }
        }
        ViewSpec::Keyword(terms) => {
            out.push(1);
            put_u32(out, terms.len() as u32);
            for t in terms {
                put_string(out, t);
            }
        }
        ViewSpec::Attribute(terms) => {
            out.push(2);
            put_u32(out, terms.len() as u32);
            for t in terms {
                put_string(out, t);
            }
        }
    }
}

fn read_spec(r: &mut Reader<'_>) -> Result<ViewSpec> {
    match r.u8("spec tag")? {
        0 => {
            let ncols = r.count(1, "qbe columns")?;
            let mut columns = Vec::new();
            for _ in 0..ncols {
                let name_hint = r.opt_string("qbe name hint")?;
                let nex = r.count(1, "qbe examples")?;
                let mut examples = Vec::new();
                for _ in 0..nex {
                    examples.push(r.value("qbe example")?);
                }
                let mut col = QueryColumn::of_values(examples);
                if let Some(h) = name_hint {
                    col = col.named(h);
                }
                columns.push(col);
            }
            // Re-validate: a hostile peer can encode a spec the public
            // constructor would reject (zero columns, all-empty column).
            let q = ExampleQuery::new(columns)
                .map_err(|e| VerError::Protocol(format!("invalid qbe spec on wire: {e}")))?;
            Ok(ViewSpec::Qbe(q))
        }
        1 => {
            let n = r.count(1, "keyword terms")?;
            let mut terms = Vec::new();
            for _ in 0..n {
                terms.push(r.string("keyword term")?);
            }
            Ok(ViewSpec::Keyword(terms))
        }
        2 => {
            let n = r.count(1, "attribute terms")?;
            let mut terms = Vec::new();
            for _ in 0..n {
                terms.push(r.string("attribute term")?);
            }
            Ok(ViewSpec::Attribute(terms))
        }
        t => Err(VerError::Protocol(format!("bad spec tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// requests
// ---------------------------------------------------------------------

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a discovery query. `page_size == 0` asks for the whole result
    /// inline; otherwise the head carries the first page and a cursor for
    /// [`Request::FetchPage`]. `timeout_ms == 0` means no deadline.
    Query {
        spec: ViewSpec,
        page_size: u32,
        timeout_ms: u64,
    },
    /// Fetch page `page` (0-based; page 0 is the one already delivered
    /// inline) from a server-side cursor opened by a paginated `Query`.
    FetchPage { cursor: u64, page: u32 },
    /// Snapshot engine + network counters.
    Stats,
    /// Liveness / deployment-shape probe.
    Health,
    /// Ask the server to stop accepting connections and exit its accept
    /// loop. Acked before the listener closes.
    Shutdown,
    /// Run **one scatter leg** of a sharded query: this server's owned
    /// slice of the candidate space, returned raw (rank keys + full view
    /// data) for the router to merge. `budget_ms` is the budget
    /// *remaining* at the router when the request was sent (`0` = no
    /// deadline) — retries deduct elapsed time, so a retried leg races a
    /// shrinking clock.
    ShardQuery {
        spec: ViewSpec,
        shard: u32,
        shard_count: u32,
        budget_ms: u64,
    },
}

const REQ_QUERY: u8 = 1;
const REQ_FETCH_PAGE: u8 = 2;
const REQ_STATS: u8 = 3;
const REQ_HEALTH: u8 = 4;
const REQ_SHUTDOWN: u8 = 5;
const REQ_SHARD_QUERY: u8 = 6;

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Query {
                spec,
                page_size,
                timeout_ms,
            } => {
                out.push(REQ_QUERY);
                put_spec(&mut out, spec);
                put_u32(&mut out, *page_size);
                put_u64(&mut out, *timeout_ms);
            }
            Request::FetchPage { cursor, page } => {
                out.push(REQ_FETCH_PAGE);
                put_u64(&mut out, *cursor);
                put_u32(&mut out, *page);
            }
            Request::Stats => out.push(REQ_STATS),
            Request::Health => out.push(REQ_HEALTH),
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::ShardQuery {
                spec,
                shard,
                shard_count,
                budget_ms,
            } => {
                out.push(REQ_SHARD_QUERY);
                put_spec(&mut out, spec);
                put_u32(&mut out, *shard);
                put_u32(&mut out, *shard_count);
                put_u64(&mut out, *budget_ms);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Request> {
        let mut r = Reader::new(payload);
        let req = match r.u8("request tag")? {
            REQ_QUERY => {
                let spec = read_spec(&mut r)?;
                let page_size = r.u32("page size")?;
                let timeout_ms = r.u64("timeout")?;
                Request::Query {
                    spec,
                    page_size,
                    timeout_ms,
                }
            }
            REQ_FETCH_PAGE => Request::FetchPage {
                cursor: r.u64("cursor")?,
                page: r.u32("page")?,
            },
            REQ_STATS => Request::Stats,
            REQ_HEALTH => Request::Health,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_SHARD_QUERY => {
                let spec = read_spec(&mut r)?;
                let shard = r.u32("shard")?;
                let shard_count = r.u32("shard count")?;
                let budget_ms = r.u64("budget")?;
                if shard_count == 0 || shard >= shard_count {
                    return Err(VerError::Protocol(format!(
                        "shard {shard} out of range for {shard_count} shards"
                    )));
                }
                Request::ShardQuery {
                    spec,
                    shard,
                    shard_count,
                    budget_ms,
                }
            }
            t => return Err(VerError::Protocol(format!("bad request tag {t}"))),
        };
        r.finish("request")?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// response payload types
// ---------------------------------------------------------------------

/// One materialized view, shipped whole: identity, provenance summary,
/// schema, and row data. Carrying the data (not just metadata) is what
/// lets the client verify invariant 12 byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct WireView {
    /// `ViewId` ordinal.
    pub id: u32,
    /// `provenance.join_score` as IEEE-754 bits (bit-exact transport).
    pub score_bits: u64,
    /// Join hops (`provenance.hops()`).
    pub hops: u32,
    /// Source `TableId` ordinals, base table first.
    pub source_tables: Vec<u32>,
    /// Column headers; `None` models a missing header.
    pub columns: Vec<Option<String>>,
    /// Materialized, deduplicated rows (each `columns.len()` wide).
    pub rows: Vec<Vec<Value>>,
}

impl WireView {
    pub fn join_score(&self) -> f64 {
        f64::from_bits(self.score_bits)
    }

    pub fn from_view(v: &ver_core::engine::View) -> WireView {
        WireView {
            id: v.id.0,
            score_bits: v.provenance.join_score.to_bits(),
            hops: v.provenance.hops() as u32,
            source_tables: v.provenance.source_tables.iter().map(|t| t.0).collect(),
            columns: v
                .table
                .schema
                .columns
                .iter()
                .map(|c| c.name.as_deref().map(str::to_string))
                .collect(),
            rows: v.table.iter_rows().collect(),
        }
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.id);
        put_u64(out, self.score_bits);
        put_u32(out, self.hops);
        put_u32(out, self.source_tables.len() as u32);
        for t in &self.source_tables {
            put_u32(out, *t);
        }
        put_u32(out, self.columns.len() as u32);
        for c in &self.columns {
            put_opt_string(out, c.as_deref());
        }
        put_u32(out, self.rows.len() as u32);
        for row in &self.rows {
            for v in row {
                put_value(out, v);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireView> {
        let id = r.u32("view id")?;
        let score_bits = r.u64("view score")?;
        let hops = r.u32("view hops")?;
        let ntables = r.count(4, "view tables")?;
        let mut source_tables = Vec::new();
        for _ in 0..ntables {
            source_tables.push(r.u32("view table id")?);
        }
        let ncols = r.count(1, "view columns")?;
        let mut columns = Vec::new();
        for _ in 0..ncols {
            columns.push(r.opt_string("view column name")?);
        }
        let nrows = r.count(ncols.max(1), "view rows")?;
        let mut rows = Vec::new();
        for _ in 0..nrows {
            let mut row = Vec::new();
            for _ in 0..ncols {
                row.push(r.value("view cell")?);
            }
            rows.push(row);
        }
        Ok(WireView {
            id,
            score_bits,
            hops,
            source_tables,
            columns,
            rows,
        })
    }
}

/// `ver_search::SearchStats` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireSearchStats {
    pub combinations: u64,
    pub skipped_by_cache: u64,
    pub joinable_groups: u64,
    pub join_graphs: u64,
    pub views: u64,
}

impl WireSearchStats {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.combinations);
        put_u64(out, self.skipped_by_cache);
        put_u64(out, self.joinable_groups);
        put_u64(out, self.join_graphs);
        put_u64(out, self.views);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireSearchStats> {
        Ok(WireSearchStats {
            combinations: r.u64("stats combinations")?,
            skipped_by_cache: r.u64("stats skipped")?,
            joinable_groups: r.u64("stats groups")?,
            join_graphs: r.u64("stats graphs")?,
            views: r.u64("stats views")?,
        })
    }
}

fn dtype_tag(d: ver_common::value::DataType) -> u8 {
    match d {
        ver_common::value::DataType::Int => 0,
        ver_common::value::DataType::Float => 1,
        ver_common::value::DataType::Text => 2,
        ver_common::value::DataType::Unknown => 3,
    }
}

fn dtype_from_tag(t: u8, what: &str) -> Result<ver_common::value::DataType> {
    Ok(match t {
        0 => ver_common::value::DataType::Int,
        1 => ver_common::value::DataType::Float,
        2 => ver_common::value::DataType::Text,
        3 => ver_common::value::DataType::Unknown,
        _ => return Err(VerError::Protocol(format!("bad dtype tag {t} for {what}"))),
    })
}

/// One view of a shard leg's output, shipped with its **rank keys**
/// (score, canonical edge form, projection) and *full-fidelity* view data
/// — schema metadata, provenance, rows — so the router can reconstruct
/// the exact `ShardView` the leg produced and merge legs bit-identically
/// (invariant 13).
#[derive(Debug, Clone, PartialEq)]
pub struct WireShardView {
    /// Rank key, primary: candidate join score as IEEE-754 bits.
    pub score_bits: u64,
    /// Rank key, secondary: canonical edge form of the join graph.
    pub canon: Vec<(u32, u32)>,
    /// Rank key, tie-break: projection columns as `(table, ordinal)`.
    pub projection: Vec<(u32, u16)>,
    /// `ViewId` ordinal (not final until the router's merge renumbers).
    pub view_id: u32,
    /// Materialized table: catalog id, name, per-column metadata, rows.
    pub table_id: u32,
    pub table_name: String,
    /// `(header, dtype tag)` per column; `None` models a missing header.
    pub columns: Vec<(Option<String>, u8)>,
    pub rows: Vec<Vec<Value>>,
    /// Provenance: join edges, source tables, projection, join score bits.
    pub join_edges: Vec<((u32, u16), (u32, u16))>,
    pub source_tables: Vec<u32>,
    pub prov_projection: Vec<(u32, u16)>,
    pub join_score_bits: u64,
}

impl WireShardView {
    pub fn from_shard_view(v: &ver_search::ShardView) -> WireShardView {
        let cref = |c: &ver_common::ids::ColumnRef| (c.table.0, c.ordinal);
        WireShardView {
            score_bits: v.score.to_bits(),
            canon: v.canon.clone(),
            projection: v.projection.iter().map(cref).collect(),
            view_id: v.view.id.0,
            table_id: v.view.table.id.0,
            table_name: v.view.table.name().to_string(),
            columns: v
                .view
                .table
                .schema
                .columns
                .iter()
                .map(|c| (c.name.as_deref().map(str::to_string), dtype_tag(c.dtype)))
                .collect(),
            rows: v.view.table.iter_rows().collect(),
            join_edges: v
                .view
                .provenance
                .join_edges
                .iter()
                .map(|(a, b)| (cref(a), cref(b)))
                .collect(),
            source_tables: v
                .view
                .provenance
                .source_tables
                .iter()
                .map(|t| t.0)
                .collect(),
            prov_projection: v.view.provenance.projection.iter().map(cref).collect(),
            join_score_bits: v.view.provenance.join_score.to_bits(),
        }
    }

    /// Rebuild the in-process `ShardView` this was encoded from. A
    /// payload that decoded cleanly can still describe an impossible
    /// table (hostile peer); those surface as [`VerError::Protocol`].
    pub fn into_shard_view(self) -> Result<ver_search::ShardView> {
        use ver_common::ids::{ColumnRef, TableId, ViewId};
        let cref = |(t, o): (u32, u16)| ColumnRef {
            table: TableId(t),
            ordinal: o,
        };
        let metas: Vec<ver_store::schema::ColumnMeta> = self
            .columns
            .iter()
            .map(|(name, tag)| {
                Ok(ver_store::schema::ColumnMeta {
                    name: name.as_deref().map(Arc::from),
                    dtype: dtype_from_tag(*tag, "shard view column")?,
                })
            })
            .collect::<Result<_>>()?;
        // Transpose the row-major wire form back into columns.
        let ncols = metas.len();
        let mut cols: Vec<Vec<Value>> = (0..ncols).map(|_| Vec::new()).collect();
        for row in self.rows {
            debug_assert_eq!(row.len(), ncols, "decoder reads exactly ncols per row");
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
        }
        let schema = ver_store::schema::TableSchema::new(self.table_name, metas);
        let columns = cols
            .into_iter()
            .map(ver_store::column::Column::from_values)
            .collect();
        let mut table = ver_store::table::Table::new(schema, columns)
            .map_err(|e| VerError::Protocol(format!("shard view table on wire: {e}")))?;
        table.id = TableId(self.table_id);
        let provenance = ver_core::engine::Provenance {
            join_edges: self
                .join_edges
                .into_iter()
                .map(|(a, b)| (cref(a), cref(b)))
                .collect(),
            source_tables: self.source_tables.into_iter().map(TableId).collect(),
            projection: self.prov_projection.into_iter().map(cref).collect(),
            join_score: f64::from_bits(self.join_score_bits),
        };
        Ok(ver_search::ShardView {
            score: f64::from_bits(self.score_bits),
            canon: self.canon,
            projection: self.projection.into_iter().map(cref).collect(),
            view: ver_core::engine::View::new(ViewId(self.view_id), table, provenance),
        })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.score_bits);
        put_u32(out, self.canon.len() as u32);
        for (a, b) in &self.canon {
            put_u32(out, *a);
            put_u32(out, *b);
        }
        put_u32(out, self.projection.len() as u32);
        for (t, o) in &self.projection {
            put_u32(out, *t);
            put_u16(out, *o);
        }
        put_u32(out, self.view_id);
        put_u32(out, self.table_id);
        put_string(out, &self.table_name);
        put_u32(out, self.columns.len() as u32);
        for (name, tag) in &self.columns {
            put_opt_string(out, name.as_deref());
            out.push(*tag);
        }
        put_u32(out, self.rows.len() as u32);
        for row in &self.rows {
            for v in row {
                put_value(out, v);
            }
        }
        put_u32(out, self.join_edges.len() as u32);
        for ((at, ao), (bt, bo)) in &self.join_edges {
            put_u32(out, *at);
            put_u16(out, *ao);
            put_u32(out, *bt);
            put_u16(out, *bo);
        }
        put_u32(out, self.source_tables.len() as u32);
        for t in &self.source_tables {
            put_u32(out, *t);
        }
        put_u32(out, self.prov_projection.len() as u32);
        for (t, o) in &self.prov_projection {
            put_u32(out, *t);
            put_u16(out, *o);
        }
        put_u64(out, self.join_score_bits);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireShardView> {
        let score_bits = r.u64("shard view score")?;
        let ncanon = r.count(8, "shard view canon")?;
        let mut canon = Vec::new();
        for _ in 0..ncanon {
            canon.push((r.u32("canon edge")?, r.u32("canon edge")?));
        }
        let nproj = r.count(6, "shard view projection")?;
        let mut projection = Vec::new();
        for _ in 0..nproj {
            projection.push((r.u32("projection table")?, r.u16("projection ordinal")?));
        }
        let view_id = r.u32("shard view id")?;
        let table_id = r.u32("shard view table id")?;
        let table_name = r.string("shard view table name")?;
        let ncols = r.count(2, "shard view columns")?;
        let mut columns = Vec::new();
        for _ in 0..ncols {
            let name = r.opt_string("shard view column name")?;
            let tag = r.u8("shard view column dtype")?;
            dtype_from_tag(tag, "shard view column")?;
            columns.push((name, tag));
        }
        let nrows = r.count(ncols.max(1), "shard view rows")?;
        let mut rows = Vec::new();
        for _ in 0..nrows {
            let mut row = Vec::new();
            for _ in 0..ncols {
                row.push(r.value("shard view cell")?);
            }
            rows.push(row);
        }
        let nedges = r.count(12, "shard view join edges")?;
        let mut join_edges = Vec::new();
        for _ in 0..nedges {
            let a = (r.u32("edge table")?, r.u16("edge ordinal")?);
            let b = (r.u32("edge table")?, r.u16("edge ordinal")?);
            join_edges.push((a, b));
        }
        let ntables = r.count(4, "shard view source tables")?;
        let mut source_tables = Vec::new();
        for _ in 0..ntables {
            source_tables.push(r.u32("source table")?);
        }
        let npproj = r.count(6, "shard view prov projection")?;
        let mut prov_projection = Vec::new();
        for _ in 0..npproj {
            prov_projection.push((r.u32("prov table")?, r.u16("prov ordinal")?));
        }
        let join_score_bits = r.u64("shard view join score")?;
        Ok(WireShardView {
            score_bits,
            canon,
            projection,
            view_id,
            table_id,
            table_name,
            columns,
            rows,
            join_edges,
            source_tables,
            prov_projection,
            join_score_bits,
        })
    }
}

/// One whole shard leg's output on the wire: this shard's owned slice of
/// the global ranking. The leg's DAG counters and stage timers stay
/// server-side — they never influence merged *results* (only local
/// diagnostics), so shipping them would buy nothing but bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct WireShardOutput {
    pub shard: u32,
    pub shard_count: u32,
    /// `true` when the leg's slice was trimmed by the budget.
    pub partial: bool,
    pub stats: WireSearchStats,
    pub views: Vec<WireShardView>,
}

impl WireShardOutput {
    pub fn from_output(out: &ver_search::ShardSearchOutput) -> WireShardOutput {
        let s = &out.stats;
        WireShardOutput {
            shard: out.shard as u32,
            shard_count: out.shard_count as u32,
            partial: out.partial,
            stats: WireSearchStats {
                combinations: s.combinations as u64,
                skipped_by_cache: s.skipped_by_cache as u64,
                joinable_groups: s.joinable_groups as u64,
                join_graphs: s.join_graphs as u64,
                views: s.views as u64,
            },
            views: out
                .views
                .iter()
                .map(WireShardView::from_shard_view)
                .collect(),
        }
    }

    /// Rebuild the in-process leg output (timers and DAG counters reset —
    /// they are per-process diagnostics, not merge inputs).
    pub fn into_output(self) -> Result<ver_search::ShardSearchOutput> {
        let views: Vec<ver_search::ShardView> = self
            .views
            .into_iter()
            .map(WireShardView::into_shard_view)
            .collect::<Result<_>>()?;
        Ok(ver_search::ShardSearchOutput {
            shard: self.shard as usize,
            shard_count: self.shard_count as usize,
            views,
            stats: ver_search::SearchStats {
                combinations: self.stats.combinations as usize,
                skipped_by_cache: self.stats.skipped_by_cache as usize,
                joinable_groups: self.stats.joinable_groups as usize,
                join_graphs: self.stats.join_graphs as usize,
                views: self.stats.views as usize,
            },
            dag: ver_search::MaterializeStats::default(),
            timer: ver_common::timer::PhaseTimer::new(),
            partial: self.partial,
        })
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.shard);
        put_u32(out, self.shard_count);
        out.push(self.partial as u8);
        self.stats.encode(out);
        put_u32(out, self.views.len() as u32);
        for v in &self.views {
            v.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireShardOutput> {
        let shard = r.u32("shard")?;
        let shard_count = r.u32("shard count")?;
        let partial = r.bool("shard partial")?;
        let stats = WireSearchStats::decode(r)?;
        let nviews = r.count(40, "shard views")?;
        let mut views = Vec::new();
        for _ in 0..nviews {
            views.push(WireShardView::decode(r)?);
        }
        Ok(WireShardOutput {
            shard,
            shard_count,
            partial,
            stats,
            views,
        })
    }
}

/// The head of a query response: result-level facts plus the first page
/// of views. `cursor == 0` means the result is complete as delivered;
/// otherwise the remaining pages are fetched with [`Request::FetchPage`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryHead {
    pub partial: bool,
    pub stats: WireSearchStats,
    /// C2 survivor `ViewId` ordinals (distillation output).
    pub survivors_c2: Vec<u32>,
    /// Ranked `(ViewId ordinal, overlap score)` pairs.
    pub ranked: Vec<(u32, u64)>,
    /// Total views in the result across all pages.
    pub total_views: u32,
    /// Effective page size the server applied (0 = everything inline).
    pub page_size: u32,
    /// Cursor id for `FetchPage`; 0 when no pages remain.
    pub cursor: u64,
    /// Page 0 of the views, id order.
    pub views: Vec<WireView>,
}

/// One follow-up page from a server-side cursor.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    pub cursor: u64,
    pub page: u32,
    /// `true` on the final page; the server frees the cursor after
    /// serving it.
    pub last: bool,
    pub views: Vec<WireView>,
}

/// Network-layer counters, snapshot over the server's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections accepted (including ones later rejected by the cap).
    pub accepted: u64,
    /// Connections currently being served.
    pub active: u64,
    /// Connections turned away by the `max_conns` cap.
    pub rejected_conns: u64,
    /// Connections dropped by peer death, timeouts, or handler panics.
    pub dropped_conns: u64,
    /// Malformed frames / payloads received.
    pub protocol_errors: u64,
    /// Request handlers that panicked (each cost its connection only).
    pub handler_panics: u64,
    /// Frames successfully read.
    pub frames_in: u64,
    /// Frames successfully written.
    pub frames_out: u64,
    /// Queries answered with a result.
    pub queries_ok: u64,
    /// Queries answered with an error status.
    pub queries_err: u64,
    /// Follow-up pages served from cursors.
    pub pages_served: u64,
    /// Cursors currently open.
    pub cursors_open: u64,
    /// Cursors evicted before being drained (FIFO cap).
    pub cursors_evicted: u64,
}

impl NetStats {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.accepted,
            self.active,
            self.rejected_conns,
            self.dropped_conns,
            self.protocol_errors,
            self.handler_panics,
            self.frames_in,
            self.frames_out,
            self.queries_ok,
            self.queries_err,
            self.pages_served,
            self.cursors_open,
            self.cursors_evicted,
        ] {
            put_u64(out, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<NetStats> {
        Ok(NetStats {
            accepted: r.u64("net accepted")?,
            active: r.u64("net active")?,
            rejected_conns: r.u64("net rejected")?,
            dropped_conns: r.u64("net dropped")?,
            protocol_errors: r.u64("net protocol errors")?,
            handler_panics: r.u64("net panics")?,
            frames_in: r.u64("net frames in")?,
            frames_out: r.u64("net frames out")?,
            queries_ok: r.u64("net queries ok")?,
            queries_err: r.u64("net queries err")?,
            pages_served: r.u64("net pages")?,
            cursors_open: r.u64("net cursors open")?,
            cursors_evicted: r.u64("net cursors evicted")?,
        })
    }
}

fn put_cache_stats(out: &mut Vec<u8>, c: &ver_common::cache::CacheStats) {
    put_u64(out, c.hits);
    put_u64(out, c.misses);
    out.push(c.disabled as u8);
}

fn read_cache_stats(r: &mut Reader<'_>, what: &str) -> Result<ver_common::cache::CacheStats> {
    Ok(ver_common::cache::CacheStats {
        hits: r.u64(what)?,
        misses: r.u64(what)?,
        disabled: r.bool(what)?,
    })
}

/// Health of one remote scatter leg, as the router's `Stats` reply
/// reports it. A single-engine backend replies with an empty leg list.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireRouterLeg {
    /// The leg's shard-server address, as configured on the router.
    pub addr: String,
    /// Wire attempts made to this leg (first tries and retries alike).
    pub attempts: u64,
    /// Attempts beyond the first for some query (failure → backoff → retry).
    pub retries: u64,
    /// Attempts that failed (the breaker counts these consecutively).
    pub failures: u64,
    /// Queries that gave up on this leg and degraded the merge to partial.
    pub failovers: u64,
    /// Circuit-breaker state: 0 = closed, 1 = open, 2 = half-open.
    pub breaker: u8,
}

impl WireRouterLeg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_string(out, &self.addr);
        put_u64(out, self.attempts);
        put_u64(out, self.retries);
        put_u64(out, self.failures);
        put_u64(out, self.failovers);
        out.push(self.breaker);
    }

    fn decode(r: &mut Reader<'_>) -> Result<WireRouterLeg> {
        Ok(WireRouterLeg {
            addr: r.string("router leg addr")?,
            attempts: r.u64("router leg attempts")?,
            retries: r.u64("router leg retries")?,
            failures: r.u64("router leg failures")?,
            failovers: r.u64("router leg failovers")?,
            breaker: {
                let b = r.u8("router leg breaker")?;
                if b > 2 {
                    return Err(VerError::Protocol(format!("bad breaker state {b}")));
                }
                b
            },
        })
    }
}

/// Engine + network counters together, plus per-leg router health when
/// the server is a router over remote shard legs.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsReply {
    pub serve: ServeStats,
    pub net: NetStats,
    pub router: Vec<WireRouterLeg>,
}

impl StatsReply {
    fn encode(&self, out: &mut Vec<u8>) {
        let s = &self.serve;
        put_u64(out, s.queries);
        put_cache_stats(out, &s.result_cache);
        put_cache_stats(out, &s.view_cache);
        put_cache_stats(out, &s.score_memo);
        put_u64(out, s.cached_views as u64);
        put_u64(out, s.sessions_opened);
        put_u64(out, s.sessions_active as u64);
        put_u64(out, s.interactions);
        put_u64(out, s.rejected);
        put_u64(out, s.partial_results);
        put_u64(out, s.in_flight as u64);
        self.net.encode(out);
        put_u32(out, self.router.len() as u32);
        for leg in &self.router {
            leg.encode(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<StatsReply> {
        let serve = ServeStats {
            queries: r.u64("serve queries")?,
            result_cache: read_cache_stats(r, "result cache")?,
            view_cache: read_cache_stats(r, "view cache")?,
            score_memo: read_cache_stats(r, "score memo")?,
            cached_views: r.u64("cached views")? as usize,
            sessions_opened: r.u64("sessions opened")?,
            sessions_active: r.u64("sessions active")? as usize,
            interactions: r.u64("interactions")?,
            rejected: r.u64("rejected")?,
            partial_results: r.u64("partial results")?,
            in_flight: r.u64("in flight")? as usize,
        };
        let net = NetStats::decode(r)?;
        let nlegs = r.count(37, "router legs")?;
        let mut router = Vec::new();
        for _ in 0..nlegs {
            router.push(WireRouterLeg::decode(r)?);
        }
        Ok(StatsReply { serve, net, router })
    }
}

/// Liveness + deployment shape (the `ViewDiscoveryService` health
/// endpoint, over binary frames).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthReply {
    pub protocol_version: u32,
    /// Tables in the served catalog.
    pub tables: u64,
    /// Columns in the served catalog.
    pub columns: u64,
    /// Index shards behind this server (1 = single engine).
    pub shards: u32,
    pub uptime_ms: u64,
}

impl HealthReply {
    fn encode(&self, out: &mut Vec<u8>) {
        put_u32(out, self.protocol_version);
        put_u64(out, self.tables);
        put_u64(out, self.columns);
        put_u32(out, self.shards);
        put_u64(out, self.uptime_ms);
    }

    fn decode(r: &mut Reader<'_>) -> Result<HealthReply> {
        Ok(HealthReply {
            protocol_version: r.u32("protocol version")?,
            tables: r.u64("health tables")?,
            columns: r.u64("health columns")?,
            shards: r.u32("health shards")?,
            uptime_ms: r.u64("health uptime")?,
        })
    }
}

// ---------------------------------------------------------------------
// responses
// ---------------------------------------------------------------------

/// A server→client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Query(QueryHead),
    Page(Page),
    Stats(StatsReply),
    Health(HealthReply),
    ShutdownAck,
    /// One shard leg's raw output (reply to [`Request::ShardQuery`]).
    ShardOutput(WireShardOutput),
    /// Typed failure: `code` is [`VerError::wire_code`], `message` the
    /// error's inner message. The client rebuilds the `VerError` with
    /// [`VerError::from_wire`].
    Error {
        code: u16,
        message: String,
    },
}

const RESP_QUERY: u8 = 1;
const RESP_PAGE: u8 = 2;
const RESP_STATS: u8 = 3;
const RESP_HEALTH: u8 = 4;
const RESP_SHUTDOWN_ACK: u8 = 5;
const RESP_ERROR: u8 = 6;
const RESP_SHARD_OUTPUT: u8 = 7;

fn put_views(out: &mut Vec<u8>, views: &[WireView]) {
    put_u32(out, views.len() as u32);
    for v in views {
        v.encode(out);
    }
}

fn read_views(r: &mut Reader<'_>) -> Result<Vec<WireView>> {
    let n = r.count(20, "views")?;
    let mut views = Vec::new();
    for _ in 0..n {
        views.push(WireView::decode(r)?);
    }
    Ok(views)
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Query(head) => {
                out.push(RESP_QUERY);
                out.push(head.partial as u8);
                head.stats.encode(&mut out);
                put_u32(&mut out, head.survivors_c2.len() as u32);
                for v in &head.survivors_c2 {
                    put_u32(&mut out, *v);
                }
                put_u32(&mut out, head.ranked.len() as u32);
                for (v, s) in &head.ranked {
                    put_u32(&mut out, *v);
                    put_u64(&mut out, *s);
                }
                put_u32(&mut out, head.total_views);
                put_u32(&mut out, head.page_size);
                put_u64(&mut out, head.cursor);
                put_views(&mut out, &head.views);
            }
            Response::Page(p) => {
                out.push(RESP_PAGE);
                put_u64(&mut out, p.cursor);
                put_u32(&mut out, p.page);
                out.push(p.last as u8);
                put_views(&mut out, &p.views);
            }
            Response::Stats(s) => {
                out.push(RESP_STATS);
                s.encode(&mut out);
            }
            Response::Health(h) => {
                out.push(RESP_HEALTH);
                h.encode(&mut out);
            }
            Response::ShutdownAck => out.push(RESP_SHUTDOWN_ACK),
            Response::ShardOutput(o) => {
                out.push(RESP_SHARD_OUTPUT);
                o.encode(&mut out);
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                put_u16(&mut out, *code);
                put_string(&mut out, message);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Response> {
        let mut r = Reader::new(payload);
        let resp = match r.u8("response tag")? {
            RESP_QUERY => {
                let partial = r.bool("partial flag")?;
                let stats = WireSearchStats::decode(&mut r)?;
                let nsurv = r.count(4, "survivors")?;
                let mut survivors_c2 = Vec::new();
                for _ in 0..nsurv {
                    survivors_c2.push(r.u32("survivor id")?);
                }
                let nranked = r.count(12, "ranked")?;
                let mut ranked = Vec::new();
                for _ in 0..nranked {
                    let v = r.u32("ranked id")?;
                    let s = r.u64("ranked score")?;
                    ranked.push((v, s));
                }
                let total_views = r.u32("total views")?;
                let page_size = r.u32("page size")?;
                let cursor = r.u64("cursor")?;
                let views = read_views(&mut r)?;
                Response::Query(QueryHead {
                    partial,
                    stats,
                    survivors_c2,
                    ranked,
                    total_views,
                    page_size,
                    cursor,
                    views,
                })
            }
            RESP_PAGE => {
                let cursor = r.u64("cursor")?;
                let page = r.u32("page")?;
                let last = r.bool("last flag")?;
                let views = read_views(&mut r)?;
                Response::Page(Page {
                    cursor,
                    page,
                    last,
                    views,
                })
            }
            RESP_STATS => Response::Stats(StatsReply::decode(&mut r)?),
            RESP_HEALTH => Response::Health(HealthReply::decode(&mut r)?),
            RESP_SHUTDOWN_ACK => Response::ShutdownAck,
            RESP_SHARD_OUTPUT => Response::ShardOutput(WireShardOutput::decode(&mut r)?),
            RESP_ERROR => {
                let code = r.u16("error code")?;
                let message = r.string("error message")?;
                Response::Error { code, message }
            }
            t => return Err(VerError::Protocol(format!("bad response tag {t}"))),
        };
        r.finish("response")?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// assembled results
// ---------------------------------------------------------------------

/// A fully reassembled query result on the client side: the head's
/// result-level facts plus every page of views. `PartialEq` makes
/// "paginated fetch ≡ single-shot fetch" a one-line assertion.
#[derive(Debug, Clone, PartialEq)]
pub struct WireResult {
    pub partial: bool,
    pub stats: WireSearchStats,
    pub survivors_c2: Vec<u32>,
    pub ranked: Vec<(u32, u64)>,
    pub views: Vec<WireView>,
}

impl WireResult {
    /// Server-side conversion from the in-process result. The golden
    /// test pins `render` of this against `render` of a client-fetched
    /// copy *and* against the in-process snapshot file.
    pub fn from_query_result(result: &QueryResult) -> WireResult {
        let s = &result.search_stats;
        WireResult {
            partial: result.partial,
            stats: WireSearchStats {
                combinations: s.combinations as u64,
                skipped_by_cache: s.skipped_by_cache as u64,
                joinable_groups: s.joinable_groups as u64,
                join_graphs: s.join_graphs as u64,
                views: s.views as u64,
            },
            survivors_c2: result.distill.survivors_c2.iter().map(|v| v.0).collect(),
            ranked: result
                .ranked
                .iter()
                .map(|(v, s)| (v.0, *s as u64))
                .collect(),
            views: result.views.iter().map(WireView::from_view).collect(),
        }
    }

    /// Render in the exact format of `ver_bench::golden::render_query`,
    /// byte-for-byte — the network half of invariant 12.
    pub fn render(&self, out: &mut String, name: &str) {
        let s = &self.stats;
        let _ = writeln!(out, "# query {name}");
        let _ = writeln!(
            out,
            "stats combinations={} groups={} graphs={} views={}",
            s.combinations, s.joinable_groups, s.join_graphs, s.views
        );
        for v in &self.views {
            let tables: Vec<String> = v.source_tables.iter().map(|t| format!("T{t}")).collect();
            let _ = writeln!(
                out,
                "view V{} score={:.6} rows={} cols={} hops={} tables={}",
                v.id,
                v.join_score(),
                v.rows.len(),
                v.columns.len(),
                v.hops,
                tables.join(",")
            );
        }
        let survivors: Vec<String> = self.survivors_c2.iter().map(|v| format!("V{v}")).collect();
        let _ = writeln!(out, "survivors_c2 {}", survivors.join(" "));
        let ranked: Vec<String> = self
            .ranked
            .iter()
            .map(|(v, score)| format!("V{v}:{score}"))
            .collect();
        let _ = writeln!(out, "ranked {}", ranked.join(" "));
        let _ = writeln!(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ver_qbe::QueryColumn;

    fn sample_specs() -> Vec<ViewSpec> {
        vec![
            ViewSpec::Qbe(
                ExampleQuery::new(vec![
                    QueryColumn::of_strs(&["ATL", "JFK"]).named("code"),
                    QueryColumn::of_values(vec![Value::Int(42), Value::Null, Value::Float(2.5)]),
                ])
                .unwrap(),
            ),
            ViewSpec::Keyword(vec!["population".into(), "city".into()]),
            ViewSpec::Attribute(vec!["state".into()]),
        ]
    }

    fn sample_view() -> WireView {
        WireView {
            id: 7,
            score_bits: 1.25f64.to_bits(),
            hops: 1,
            source_tables: vec![0, 3],
            columns: vec![Some("a".into()), None],
            rows: vec![
                vec![Value::text("x"), Value::Int(-1)],
                vec![Value::Null, Value::Float(0.5)],
            ],
        }
    }

    fn sample_shard_view() -> WireShardView {
        WireShardView {
            score_bits: 0.75f64.to_bits(),
            canon: vec![(1, 9), (2, 4)],
            projection: vec![(0, 1), (3, 0)],
            view_id: 5,
            table_id: 3,
            table_name: "joined".into(),
            columns: vec![(Some("a".into()), 2), (None, 0)],
            rows: vec![
                vec![Value::text("x"), Value::Int(-1)],
                vec![Value::Null, Value::Int(7)],
            ],
            join_edges: vec![((0, 1), (3, 0))],
            source_tables: vec![0, 3],
            prov_projection: vec![(0, 0), (3, 1)],
            join_score_bits: 0.75f64.to_bits(),
        }
    }

    #[test]
    fn requests_round_trip() {
        let mut reqs = vec![
            Request::FetchPage { cursor: 9, page: 2 },
            Request::Stats,
            Request::Health,
            Request::Shutdown,
        ];
        for spec in sample_specs() {
            reqs.push(Request::Query {
                spec: spec.clone(),
                page_size: 16,
                timeout_ms: 250,
            });
            reqs.push(Request::ShardQuery {
                spec,
                shard: 1,
                shard_count: 4,
                budget_ms: 1500,
            });
        }
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req);
        }
    }

    #[test]
    fn shard_query_with_out_of_range_shard_is_a_protocol_error() {
        for (shard, shard_count) in [(2u32, 2u32), (0, 0), (7, 3)] {
            let enc = Request::ShardQuery {
                spec: sample_specs().remove(1),
                shard,
                shard_count,
                budget_ms: 0,
            }
            .encode();
            assert!(
                matches!(Request::decode(&enc), Err(VerError::Protocol(_))),
                "shard {shard}/{shard_count} must be rejected"
            );
        }
    }

    #[test]
    fn shard_view_reconstruction_is_lossless() {
        // wire → in-process → wire must be the identity: the router's
        // merge works on reconstructed `ShardView`s, so any loss here
        // would silently break invariant 13.
        let wire = sample_shard_view();
        let sv = wire.clone().into_shard_view().unwrap();
        assert_eq!(sv.view.table.row_count(), 2);
        assert_eq!(sv.view.table.schema.columns[0].name.as_deref(), Some("a"));
        assert_eq!(sv.view.provenance.join_edges.len(), 1);
        let back = WireShardView::from_shard_view(&sv);
        assert_eq!(back, wire);
    }

    #[test]
    fn shard_view_with_bad_dtype_tag_is_a_protocol_error() {
        let mut wire = sample_shard_view();
        wire.columns[0].1 = 9;
        let resp = Response::ShardOutput(WireShardOutput {
            shard: 0,
            shard_count: 1,
            partial: false,
            stats: WireSearchStats::default(),
            views: vec![wire],
        });
        assert!(matches!(
            Response::decode(&resp.encode()),
            Err(VerError::Protocol(_))
        ));
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Query(QueryHead {
                partial: true,
                stats: WireSearchStats {
                    combinations: 21,
                    skipped_by_cache: 2,
                    joinable_groups: 21,
                    join_graphs: 402,
                    views: 402,
                },
                survivors_c2: vec![0, 2, 5],
                ranked: vec![(2, 10), (0, 4)],
                total_views: 3,
                page_size: 2,
                cursor: 17,
                views: vec![sample_view()],
            }),
            Response::Page(Page {
                cursor: 17,
                page: 1,
                last: true,
                views: vec![sample_view(), sample_view()],
            }),
            Response::Stats(StatsReply {
                serve: ServeStats::default(),
                net: NetStats {
                    accepted: 4,
                    dropped_conns: 1,
                    ..NetStats::default()
                },
                router: vec![
                    WireRouterLeg {
                        addr: "127.0.0.1:7201".into(),
                        attempts: 12,
                        retries: 3,
                        failures: 3,
                        failovers: 1,
                        breaker: 1,
                    },
                    WireRouterLeg::default(),
                ],
            }),
            Response::ShardOutput(WireShardOutput {
                shard: 1,
                shard_count: 2,
                partial: true,
                stats: WireSearchStats {
                    combinations: 5,
                    skipped_by_cache: 0,
                    joinable_groups: 5,
                    join_graphs: 9,
                    views: 1,
                },
                views: vec![sample_shard_view()],
            }),
            Response::Health(HealthReply {
                protocol_version: PROTOCOL_VERSION,
                tables: 60,
                columns: 240,
                shards: 2,
                uptime_ms: 1234,
            }),
            Response::ShutdownAck,
            Response::Error {
                code: VerError::Overloaded("busy".into()).wire_code(),
                message: "busy".into(),
            },
        ];
        for resp in resps {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut enc = Request::Stats.encode();
        enc.push(0);
        assert!(matches!(Request::decode(&enc), Err(VerError::Protocol(_))));
        let mut enc = Response::ShutdownAck.encode();
        enc.push(0);
        assert!(matches!(Response::decode(&enc), Err(VerError::Protocol(_))));
    }

    #[test]
    fn hostile_counts_fail_before_allocation() {
        // A Query head whose view count claims 4 billion entries must be
        // rejected by the count/remaining-bytes check, not OOM.
        let mut enc = Response::Page(Page {
            cursor: 1,
            page: 1,
            last: true,
            views: vec![],
        })
        .encode();
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Response::decode(&enc), Err(VerError::Protocol(_))));
    }

    #[test]
    fn invalid_qbe_spec_on_wire_is_a_protocol_error() {
        // Hand-encode a Qbe spec with zero columns — the public
        // constructor forbids it, so decode must too.
        let payload = vec![REQ_QUERY, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        assert!(matches!(
            Request::decode(&payload),
            Err(VerError::Protocol(_))
        ));
    }

    #[test]
    fn float_scores_travel_bit_exactly() {
        let v = WireView {
            score_bits: f64::NEG_INFINITY.to_bits(),
            ..sample_view()
        };
        let resp = Response::Page(Page {
            cursor: 0,
            page: 0,
            last: true,
            views: vec![v.clone()],
        });
        match Response::decode(&resp.encode()).unwrap() {
            Response::Page(p) => assert_eq!(p.views[0].score_bits, v.score_bits),
            other => panic!("expected Page, got {other:?}"),
        }
    }
}
