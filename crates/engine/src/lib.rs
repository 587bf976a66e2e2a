//! Relational materializer substrate for Ver.
//!
//! The paper's MATERIALIZER executes project-join (PJ) queries over noisy
//! tables (the authors used pandas and note it "could be optimized by using
//! a database"). This crate is that component, built from scratch:
//!
//! * [`plan`] — PJ plans: a join tree linearised into steps plus a
//!   projection list ([`PjPlan::linearize`] turns a join graph's edges into
//!   one).
//! * [`dag`] — the executor. [`JoinState`] row-index intermediates make each
//!   join step touch only its two key columns, so many plans with a common
//!   prefix share one intermediate; [`materialize_state`] projects a state
//!   and deduplicates it into a [`View`] (candidate PJ-views are row *sets*:
//!   4C categorisation compares views as sets of rows). [`execute_plan`]
//!   runs one plan through the same kernel.
//! * [`rowhash`] — the row-wise hash function `H` of Algorithm 3.
//! * [`view`] — materialized views and their provenance.
//!
//! Layer 2 of the crate map in the repo-root `ARCHITECTURE.md`: the
//! relational executor under the MATERIALIZER and distillation.

pub mod dag;
pub mod plan;
pub mod rowhash;
pub mod view;

pub use dag::{execute_plan, materialize_state, ColumnHashes, JoinState};
pub use plan::{JoinStep, PjPlan};
pub use view::{Provenance, View};

// Unit-test builds only: the pre-DAG reference executor (invariant 9's
// oracle), mounted at the crate root so the `dag` tests can compare against
// it and its own unit tests run here.
#[cfg(test)]
extern crate self as ver_engine;
#[cfg(test)]
include!("../tests/support/reference.rs");
