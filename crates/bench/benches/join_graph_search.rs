//! Criterion: join-graph search (combinations, joinable groups,
//! non-joinable cache, scoring, ranking) without materialization — the JGS
//! bar of Fig. 4(b). Runs through `SearchContext` with `k = 0`, so no
//! ranked candidate is materialized.

use criterion::{criterion_group, criterion_main, Criterion};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_index::{build_index, IndexConfig};
use ver_qbe::ExampleQuery;
use ver_search::{SearchConfig, SearchContext};
use ver_select::{column_selection, SelectionConfig};

fn bench_join_graph_search(c: &mut Criterion) {
    let cat = generate_wdc(&WdcConfig {
        n_tables: 150,
        ..Default::default()
    })
    .unwrap();
    let idx = build_index(
        &cat,
        IndexConfig {
            threads: 4,
            ..Default::default()
        },
    )
    .unwrap();
    let query =
        ExampleQuery::from_rows(&[vec!["Philippines", "2644000"], vec!["Vietnam", "3055000"]])
            .unwrap();
    let selection = column_selection(&idx, &query, &SelectionConfig::default());
    let config = |rho| SearchConfig {
        rho,
        k: 0,
        max_combinations: 20_000,
        ..SearchConfig::default()
    };

    let mut group = c.benchmark_group("join_graph_search");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    for rho in [2, 1] {
        let config = config(rho);
        group.bench_function(format!("search_rho{rho}"), |b| {
            b.iter(|| SearchContext::new(&cat, &idx).search(&selection, &config))
        });
    }
    group.bench_function("generate_join_graphs_pairwise", |b| {
        let tables: Vec<_> = (0..cat.table_count().min(4))
            .map(|i| ver_common::ids::TableId(i as u32))
            .collect();
        b.iter(|| idx.generate_join_graphs(&tables[..2], 2))
    });
    group.finish();
}

criterion_group!(benches, bench_join_graph_search);
criterion_main!(benches);
