//! `exp_bench_report` — the per-PR perf trajectory.
//!
//! Times the hot paths this repo optimises — offline index build
//! (1 / 2 / auto threads), the online query path (join-graph search,
//! view materialization, and the 4C distillation pass, each at 1 / 2 /
//! auto threads), the sketching kernels (MinHash signature, LSH band
//! hashing, containment merge — SIMD vs. scalar reference over the full
//! corpus), and the shared sub-join DAG's shared-edge counters — on the
//! standard corpora, and writes a machine-readable `BENCH_<n>.json` so
//! successive PRs accumulate a comparable perf series. Every report embeds
//! the bench host's hardware context (thread count, CPU features, active
//! SIMD backend).
//!
//! ```text
//! cargo run --release --bin exp_bench_report                 # full corpora → bench_report.json ("pr": null)
//! cargo run --release --bin exp_bench_report -- --smoke      # reduced corpora (CI)
//! cargo run --release --bin exp_bench_report -- --pr 3       # labelled run → BENCH_3.json
//! cargo run --release --bin exp_bench_report -- --out p.json # custom output path
//! ```

use std::fmt::Write as _;
use std::time::Instant;
use ver_bench::{eval_search_config, hardware_json, run_strategy, verify_exact_for, Strategy};
use ver_common::fxhash::fx_hash_u64;
use ver_common::pool::resolve_threads;
use ver_core::{Ver, VerConfig};
use ver_datagen::chembl::{generate_chembl, ChemblConfig};
use ver_datagen::wdc::{generate_wdc, WdcConfig};
use ver_datagen::workload::{chembl_ground_truths, wdc_ground_truths};
use ver_distill::{distill, DistillConfig};
use ver_index::{
    build_index, hashed_containment, hashed_containment_scalar, IndexConfig, LshIndex, MinHasher,
};
use ver_qbe::groundtruth::GroundTruth;
use ver_qbe::noise::{generate_noisy_query, NoiseLevel};
use ver_search::{MaterializeStats, SearchConfig};
use ver_store::catalog::TableCatalog;

/// Best-of-`reps` wall time of `f`, in milliseconds.
fn best_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = f();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        std::hint::black_box(&out);
        best = best.min(ms);
    }
    best
}

/// One online pass over the ground-truth queries at a fixed worker count:
/// summed JGS, materialization, and 4C wall times (the Fig. 4b split plus
/// distillation).
#[derive(Debug, Clone, Copy, Default)]
struct OnlineTimes {
    jgs_ms: f64,
    materialize_ms: f64,
    distill_4c_ms: f64,
}

struct CorpusReport {
    name: &'static str,
    tables: usize,
    columns: usize,
    rows: usize,
    build_ms_1: f64,
    build_ms_2: f64,
    build_ms_auto: f64,
    queries: usize,
    views: usize,
    online_1: OnlineTimes,
    online_2: OnlineTimes,
    online_auto: OnlineTimes,
    /// Shared sub-join DAG counters summed over the workload (identical
    /// for every worker count).
    dag: MaterializeStats,
}

fn index_config(threads: usize, verify_exact: bool) -> IndexConfig {
    IndexConfig {
        threads,
        verify_exact,
        ..Default::default()
    }
}

/// Run every ground-truth query once with search + 4C pinned to `threads`
/// workers; returns summed stage times, the summed DAG counters, and
/// (queries, views) counters.
fn online_pass(
    ver: &Ver,
    gts: &[GroundTruth],
    threads: usize,
) -> (OnlineTimes, MaterializeStats, usize, usize) {
    let search_cfg = SearchConfig {
        threads,
        ..eval_search_config()
    };
    let distill_cfg = DistillConfig {
        threads,
        ..Default::default()
    };
    let mut t = OnlineTimes::default();
    let mut dag = MaterializeStats::default();
    let (mut queries, mut views) = (0usize, 0usize);
    for gt in gts {
        let Ok(query) = generate_noisy_query(ver.catalog(), gt, NoiseLevel::Zero, 3, 1) else {
            continue;
        };
        let out = run_strategy(ver, &query, Strategy::ColumnSelection, &search_cfg);
        t.jgs_ms += out.timer.get("jgs").as_secs_f64() * 1e3;
        t.materialize_ms += out.timer.get("materialize").as_secs_f64() * 1e3;
        dag.accumulate(out.dag);
        let d = distill(&out.views, &distill_cfg);
        t.distill_4c_ms += d.timer.total().as_secs_f64() * 1e3;
        views += out.stats.views;
        queries += 1;
    }
    (t, dag, queries, views)
}

/// Time index builds (1/2/auto threads) and the online path (JGS +
/// materialization + 4C, likewise at 1/2/auto threads) over the corpus's
/// ground-truth queries.
fn report_corpus(
    name: &'static str,
    cat: TableCatalog,
    gts: Vec<GroundTruth>,
    reps: usize,
) -> CorpusReport {
    let verify_exact = verify_exact_for(&cat);
    let build_ms_1 = best_ms(reps, || {
        build_index(&cat, index_config(1, verify_exact)).unwrap()
    });
    let build_ms_2 = best_ms(reps, || {
        build_index(&cat, index_config(2, verify_exact)).unwrap()
    });
    let build_ms_auto = best_ms(reps, || {
        build_index(&cat, index_config(0, verify_exact)).unwrap()
    });

    let (tables, columns, rows) = (cat.table_count(), cat.column_count(), cat.total_rows());
    let config = VerConfig {
        index: index_config(0, verify_exact),
        ..VerConfig::default()
    };
    let ver = Ver::build(cat, config).expect("index build");

    let (online_1, dag, queries, views) = online_pass(&ver, &gts, 1);
    let (online_2, ..) = online_pass(&ver, &gts, 2);
    let (online_auto, ..) = online_pass(&ver, &gts, 0);

    CorpusReport {
        name,
        tables,
        columns,
        rows,
        build_ms_1,
        build_ms_2,
        build_ms_auto,
        queries,
        views,
        online_1,
        online_2,
        online_auto,
        dag,
    }
}

/// One kernel's scalar-vs-SIMD timing.
#[derive(Debug, Clone, Copy)]
struct KernelTimes {
    scalar_ms: f64,
    simd_ms: f64,
}

impl KernelTimes {
    fn speedup(&self) -> f64 {
        self.scalar_ms / self.simd_ms
    }
}

struct SketchKernelReport {
    columns: usize,
    values: usize,
    k: usize,
    minhash: KernelTimes,
    band_hash: KernelTimes,
    containment: KernelTimes,
}

/// Microbenchmark the three sketching kernels over every column of the
/// given corpora: the dispatched SIMD path against the scalar reference the
/// pre-SIMD builder ran. Outputs are asserted identical while timing — the
/// determinism invariant, enforced even here.
fn sketch_kernel_report(corpora: &[&TableCatalog], reps: usize) -> SketchKernelReport {
    let k = ver_index::minhash::DEFAULT_K;
    let hasher = MinHasher::new(k, 0x5eed);
    let hash_sets: Vec<Vec<u64>> = corpora
        .iter()
        .flat_map(|cat| cat.all_columns().map(|(_, cref)| cat.column(cref)))
        .map(|col| col.expect("registered column").distinct_hashes())
        .collect();
    let values: usize = hash_sets.iter().map(Vec::len).sum();

    // MinHash sketch: k seed lanes folded over every distinct value.
    let minhash = KernelTimes {
        scalar_ms: best_ms(reps, || {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hashes_scalar(h.iter().copied(), h.len()))
                .collect::<Vec<_>>()
        }),
        simd_ms: best_ms(reps, || {
            hash_sets
                .iter()
                .map(|h| hasher.signature_of_hash_slice(h, h.len()))
                .collect::<Vec<_>>()
        }),
    };

    // LSH band hashing over the whole signature set (the builder's r = 1
    // containment-friendly banding: k bands of one row). The scalar arm is
    // the PR 4 insert path — one fx hash per band; the SIMD arm the batched
    // kernel. Both write a reused buffer so the hashing is what's timed.
    let signatures: Vec<_> = hash_sets
        .iter()
        .map(|h| hasher.signature_of_hash_slice(h, h.len()))
        .collect();
    let lsh = LshIndex::new(k, 1);
    let mut scratch: Vec<u64> = Vec::new();
    let band_hash = KernelTimes {
        scalar_ms: best_ms(reps, || {
            let mut acc = 0u64;
            for sig in &signatures {
                scratch.clear();
                scratch.extend((0..k).map(|band| fx_hash_u64(&sig.sig[band..band + 1])));
                acc ^= scratch[k - 1];
            }
            acc
        }),
        simd_ms: best_ms(reps, || {
            let mut acc = 0u64;
            for sig in &signatures {
                lsh.band_hashes_into(sig, &mut scratch);
                acc ^= scratch[k - 1];
            }
            acc
        }),
    };

    // Containment scoring over adjacent column pairs (mixed cardinality
    // skew, as verify_exact hypergraph construction sees it). The scalar
    // arm is the PR 4 builder's scoring — a full scalar merge per
    // direction; the SIMD arm is today's single shared merge with
    // galloping/block fast paths (`hashed_containment_max`).
    let pairs: Vec<(&[u64], &[u64])> = hash_sets
        .windows(2)
        .map(|w| (w[0].as_slice(), w[1].as_slice()))
        .collect();
    let containment = KernelTimes {
        scalar_ms: best_ms(reps, || {
            pairs
                .iter()
                .map(|(a, b)| hashed_containment_scalar(a, b).max(hashed_containment_scalar(b, a)))
                .sum::<f64>()
        }),
        simd_ms: best_ms(reps, || {
            pairs
                .iter()
                .map(|(a, b)| ver_index::hashed_containment_max(a, b))
                .sum::<f64>()
        }),
    };

    // The invariant behind all the timing: SIMD ≡ scalar, bit for bit.
    for (h, sig) in hash_sets.iter().zip(&signatures) {
        assert_eq!(
            &hasher.signature_of_hashes_scalar(h.iter().copied(), h.len()),
            sig,
            "SIMD sketch diverged from scalar reference"
        );
    }
    for (a, b) in &pairs {
        assert_eq!(
            hashed_containment_scalar(a, b).to_bits(),
            hashed_containment(a, b).to_bits(),
            "SIMD containment diverged from scalar reference"
        );
        assert_eq!(
            hashed_containment_scalar(a, b)
                .max(hashed_containment_scalar(b, a))
                .to_bits(),
            ver_index::hashed_containment_max(a, b).to_bits(),
            "symmetric-max containment diverged from two-call scalar form"
        );
    }

    SketchKernelReport {
        columns: hash_sets.len(),
        values,
        k,
        minhash,
        band_hash,
        containment,
    }
}

fn write_kernel(json: &mut String, label: &str, t: &KernelTimes, last: bool) {
    let _ = writeln!(
        json,
        "    \"{label}\": {{\"scalar_ms\": {:.3}, \"simd_ms\": {:.3}, \"speedup\": {:.3}}}{}",
        t.scalar_ms,
        t.simd_ms,
        t.speedup(),
        if last { "" } else { "," }
    );
}

fn write_online(json: &mut String, label: &str, t: &OnlineTimes, last: bool) {
    let _ = writeln!(
        json,
        "        \"{label}\": {{\"jgs_ms\": {:.3}, \"materialize_ms\": {:.3}, \"distill_4c_ms\": {:.3}}}{}",
        t.jgs_ms,
        t.materialize_ms,
        t.distill_4c_ms,
        if last { "" } else { "," }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    // Unlabelled runs claim no PR number and write a file no checked-in
    // `BENCH_<n>.json` is named after.
    let pr: Option<u32> = args
        .iter()
        .position(|a| a == "--pr")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--pr takes a number"));
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| match pr {
            Some(pr) => format!("BENCH_{pr}.json"),
            None => "bench_report.json".into(),
        });
    let reps = if smoke { 1 } else { 3 };
    let hw = resolve_threads(0);

    let (wdc_tables, chembl_tables, chembl_compounds) =
        if smoke { (60, 20, 60) } else { (250, 70, 150) };

    eprintln!("exp_bench_report: hardware_threads={hw} smoke={smoke} reps={reps}");

    let wdc = generate_wdc(&WdcConfig {
        n_tables: wdc_tables,
        ..Default::default()
    })
    .expect("wdc generation");
    let chembl = generate_chembl(&ChemblConfig {
        n_compounds: chembl_compounds,
        n_tables: chembl_tables,
        seed: 0xC4EB,
    })
    .expect("chembl generation");

    // Kernel microbenchmarks run over both corpora's columns before the
    // catalogs are consumed by the end-to-end passes.
    let kernels = sketch_kernel_report(&[&wdc, &chembl], reps.max(3));

    let wdc_gts = wdc_ground_truths(&wdc).expect("wdc ground truths");
    let wdc_report = report_corpus("WDC", wdc, wdc_gts, reps);
    let chembl_gts = chembl_ground_truths(&chembl).expect("chembl ground truths");
    let chembl_report = report_corpus("ChEMBL", chembl, chembl_gts, reps);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"bench\": \"exp_bench_report\",");
    let pr_json = pr.map_or_else(|| "null".to_string(), |pr| pr.to_string());
    let _ = writeln!(json, "  \"pr\": {pr_json},");
    let _ = writeln!(json, "  \"hardware\": {},", hardware_json());
    let _ = writeln!(json, "  \"hardware_threads\": {hw},");
    let _ = writeln!(json, "  \"smoke\": {smoke},");
    let _ = writeln!(json, "  \"reps\": {reps},");
    // Sketching kernels: dispatched SIMD path vs. the scalar reference the
    // pre-SIMD builder ran, over every column of both corpora.
    json.push_str("  \"sketch_kernels\": {\n");
    let _ = writeln!(
        json,
        "    \"k\": {}, \"columns\": {}, \"values\": {},",
        kernels.k, kernels.columns, kernels.values
    );
    write_kernel(&mut json, "minhash_signature", &kernels.minhash, false);
    write_kernel(&mut json, "lsh_band_hash", &kernels.band_hash, false);
    write_kernel(&mut json, "containment_merge", &kernels.containment, true);
    json.push_str("  },\n");
    json.push_str("  \"corpora\": [\n");
    for (i, r) in [&wdc_report, &chembl_report].iter().enumerate() {
        let speedup = r.build_ms_1 / r.build_ms_auto;
        json.push_str("    {\n");
        let _ = writeln!(json, "      \"name\": \"{}\",", r.name);
        let _ = writeln!(json, "      \"tables\": {},", r.tables);
        let _ = writeln!(json, "      \"columns\": {},", r.columns);
        let _ = writeln!(json, "      \"rows\": {},", r.rows);
        let _ = writeln!(
            json,
            "      \"index_build_ms\": {{\"threads_1\": {:.3}, \"threads_2\": {:.3}, \"threads_auto\": {:.3}}},",
            r.build_ms_1, r.build_ms_2, r.build_ms_auto
        );
        let _ = writeln!(json, "      \"auto_threads\": {hw},");
        let _ = writeln!(json, "      \"build_speedup_auto_vs_1\": {speedup:.3},");
        let _ = writeln!(json, "      \"search_queries\": {},", r.queries);
        let _ = writeln!(json, "      \"views_found\": {},", r.views);
        // Online query path (one pass over the ground-truth workload per
        // worker count; bit-identical output, so the times are comparable).
        json.push_str("      \"online\": {\n");
        write_online(&mut json, "threads_1", &r.online_1, false);
        write_online(&mut json, "threads_2", &r.online_2, false);
        write_online(&mut json, "threads_auto", &r.online_auto, true);
        json.push_str("      },\n");
        // How much join work the shared sub-join DAG saved.
        let _ = writeln!(
            json,
            "      \"materialize_dag\": {{\"candidates\": {}, \"total_steps\": {}, \"distinct_steps\": {}, \"shared_hits\": {}, \"empty_pruned\": {}}}",
            r.dag.candidates,
            r.dag.total_steps,
            r.dag.distinct_steps,
            r.dag.shared_hits,
            r.dag.empty_pruned
        );
        json.push_str(if i == 0 { "    },\n" } else { "    }\n" });
    }
    json.push_str("  ]\n");
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
