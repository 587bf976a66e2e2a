//! `ver-serve` — the long-lived serving layer: **many users, one index**.
//!
//! Everything upstream of this crate is single-shot: build an index, answer
//! one query, exit. A deployment instead keeps one engine alive and pushes
//! every user's queries through it: a [`ServeEngine`] answering in
//! process, or a [`RouterEngine`] scattering each query over remote
//! shard-leg `verd` processes ([`remote`]). Both keep one front-end
//! contract — result LRU, fail-fast admission gate, partial results never
//! cached — and the single engine adds:
//!
//! * **warm-start** — the engine loads a [persisted discovery
//!   index](ver_index::persist) instead of re-profiling and re-sketching
//!   the catalog ([`ServeEngine::open`] / [`ServeEngine::warm_start`]);
//!   cold building remains available as [`ServeEngine::build`];
//! * **concurrent readers** — catalog and index sit behind `Arc`, every
//!   serving entry point takes `&self`, and each query fans out onto
//!   `ver_common::pool` under the configured per-query thread budget
//!   ([`ServeConfig::with_query_threads`]);
//! * **three caches on the hot path** — a whole-result LRU keyed by the
//!   canonical query form, plus the cross-query
//!   [`SearchCaches`](ver_search::SearchCaches) (materialized-view LRU +
//!   memoized signature/containment join scores), all surfaced with
//!   hit/miss counters in [`ServeStats`];
//! * **sessions** — many simultaneous QBE sessions
//!   ([`ServeEngine::open_session`]) reusing `ver-present`'s Algorithm-2
//!   interaction loop over shared query results.
//!
//! Serving preserves the pipeline's determinism contract: a warm-started,
//! cache-hitting engine answers every query **bit-identically** to a cold
//! `Ver::run` (pinned by `tests/serve_warm_start.rs` against the golden
//! snapshot). See ARCHITECTURE.md ("Serving layer") for how this crate
//! sits on top of the offline → online pipeline.
//!
//! ```
//! use std::sync::Arc;
//! use ver_core::VerConfig;
//! use ver_qbe::{ExampleQuery, ViewSpec};
//! use ver_serve::{ServeConfig, ServeEngine};
//! use ver_store::catalog::TableCatalog;
//! use ver_store::table::TableBuilder;
//!
//! let mut catalog = TableCatalog::new();
//! let mut t = TableBuilder::new("airports", &["iata", "state"]);
//! for (i, s) in [("IND", "Indiana"), ("ATL", "Georgia"), ("ORD", "Illinois")] {
//!     t.push_row(vec![i.into(), s.into()]).unwrap();
//! }
//! catalog.add_table(t.build()).unwrap();
//!
//! // Offline, once: cold-build and persist the index.
//! let config = ServeConfig {
//!     pipeline: VerConfig::fast(),
//!     ..ServeConfig::default()
//! };
//! let cold = ServeEngine::build(catalog, config.clone()).unwrap();
//! let dir = std::env::temp_dir().join(format!("ver_serve_doc_{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let path = dir.join("index.bin");
//! cold.save_index(&path).unwrap();
//!
//! // Every later process: warm-start and serve.
//! let engine = ServeEngine::open(cold.catalog_shared(), &path, config).unwrap();
//! let spec = ViewSpec::Qbe(ExampleQuery::from_rows(&[vec!["IND", "Indiana"]]).unwrap());
//! let first = engine.query(&spec).unwrap();
//! let second = engine.query(&spec).unwrap(); // served from the result cache
//! assert!(Arc::ptr_eq(&first, &second));
//! assert_eq!(engine.stats().result_cache.hits, 1);
//! std::fs::remove_file(&path).ok();
//! ```
//!
//! Layer 5 of the crate map in the repo-root `ARCHITECTURE.md` — the
//! serving layer; see its "Determinism invariants" before changing
//! anything on the query path.

pub mod engine;
mod front;
pub mod net;
pub mod remote;
pub mod session;

pub use engine::{ServeConfig, ServeEngine, ServeStats};
pub use remote::{RouterEngine, RouterLegStats};
pub use session::SessionId;
