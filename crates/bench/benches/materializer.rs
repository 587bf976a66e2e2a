//! Criterion: the MATERIALIZER (row-index join step + projection/dedup
//! tail) — the "M" bar of Fig. 4(b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ver_common::ids::{ColumnRef, TableId};
use ver_common::value::Value;
use ver_engine::dag::{materialize_state, ColumnHashes, JoinState};
use ver_engine::plan::{JoinStep, PjPlan};
use ver_engine::rowhash::table_hash_set;
use ver_store::catalog::TableCatalog;
use ver_store::table::{Table, TableBuilder};

fn table(name: &str, rows: usize, key_mod: usize) -> Table {
    let mut b = TableBuilder::new(name, &["k", "v"]);
    for i in 0..rows {
        b.push_row(vec![
            Value::Int((i % key_mod) as i64),
            Value::text(format!("val{i}")),
        ])
        .unwrap();
    }
    b.build()
}

fn cref(t: u32, o: u16) -> ColumnRef {
    ColumnRef {
        table: TableId(t),
        ordinal: o,
    }
}

fn bench_materializer(c: &mut Criterion) {
    let mut group = c.benchmark_group("materializer");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    for rows in [1_000usize, 10_000] {
        let mut cat = TableCatalog::new();
        cat.add_table(table("l", rows, rows / 2)).unwrap();
        cat.add_table(table("r", rows, rows / 2)).unwrap();
        // l ⋈ r on k, projecting every column of both sides.
        let plan = PjPlan {
            base: TableId(0),
            joins: vec![JoinStep {
                left: cref(0, 0),
                right: cref(1, 0),
            }],
            projection: vec![cref(0, 0), cref(0, 1), cref(1, 0), cref(1, 1)],
        };
        let base = JoinState::base(&cat, plan.base).unwrap();
        group.bench_with_input(BenchmarkId::new("join_step", rows), &rows, |b, _| {
            b.iter(|| base.step(&cat, plan.joins[0]).unwrap())
        });
        let joined = base.step(&cat, plan.joins[0]).unwrap();
        let name = joined.joined_name(&cat).unwrap();
        let hashes = ColumnHashes::new();
        group.bench_with_input(BenchmarkId::new("project_dedup", rows), &rows, |b, _| {
            b.iter(|| materialize_state(&cat, &joined, &plan, 1.0, &hashes, name.clone()).unwrap())
        });
        let view = materialize_state(&cat, &joined, &plan, 1.0, &hashes, name).unwrap();
        group.bench_with_input(BenchmarkId::new("rowhash_set", rows), &rows, |b, _| {
            b.iter(|| table_hash_set(&view.table))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_materializer);
criterion_main!(benches);
