//! Criterion: the `verd` wire codec on one WDC-250 answer, paged 1024
//! views at a time as the benchmark's clients fetch it.
//!
//! * `server_encode/reference` — the owned route: convert the answer with
//!   `WireResult::from_query_result`, copy each page's `WireView`s, encode
//!   the `QueryHead` / `Page` and frame the payload.
//! * `server_encode/direct` — what `verd` runs: every frame encoded
//!   straight from the shared `QueryResult` into its frame buffer.
//! * `client_decode/answer_page` and `client_decode/distinct_text_page` —
//!   decoding (and dropping) one page of the answer, and the same page
//!   with every text cell made distinct: the per-frame text interner's
//!   best case and its worst.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use ver_bench::golden::golden_queries;
use ver_bench::setup_wdc;
use ver_common::fxhash::FxHashSet;
use ver_common::value::Value;
use ver_core::QueryResult;
use ver_serve::net::frame::{encode_frame, encode_frame_with};
use ver_serve::net::wire::{encode_page, encode_query_head};
use ver_serve::net::{Page, QueryHead, Response, WireResult, WireView};

const PAGE: usize = 1024;

/// Every frame of the answer through the owned reference types.
fn reference_frames(result: &QueryResult) -> Vec<Vec<u8>> {
    let wire = WireResult::from_query_result(result);
    let total = wire.views.len();
    let mut frames = vec![encode_frame(
        &Response::Query(QueryHead {
            partial: wire.partial,
            stats: wire.stats,
            survivors_c2: wire.survivors_c2.clone(),
            ranked: wire.ranked.clone(),
            total_views: total as u32,
            page_size: PAGE as u32,
            cursor: 1,
            views: wire.views[..PAGE].to_vec(),
        })
        .encode(),
    )];
    for (page, views) in wire.views.chunks(PAGE).enumerate().skip(1) {
        let response = Response::Page(Page {
            cursor: 1,
            page: page as u32,
            last: page * PAGE + views.len() == total,
            views: views.to_vec(),
        });
        frames.push(encode_frame(&response.encode()));
    }
    frames
}

/// Every frame of the answer straight from the shared result.
fn direct_frames(result: &QueryResult) -> Vec<Vec<u8>> {
    let total = result.views.len();
    let frame = |write: &dyn Fn(&mut Vec<u8>)| encode_frame_with(write).expect("under the cap");
    let mut frames = vec![frame(&|out| encode_query_head(out, result, PAGE as u32, 1))];
    for (page, views) in result.views.chunks(PAGE).enumerate().skip(1) {
        let last = page * PAGE + views.len() == total;
        frames.push(frame(&|out| encode_page(out, 1, page as u32, last, views)));
    }
    frames
}

/// Page 1 of the answer, with every text cell replaced by a distinct
/// string of the same length class.
fn distinct_text_page(result: &QueryResult) -> Vec<u8> {
    let mut n = 0u64;
    let views: Vec<WireView> = result.views[PAGE..2 * PAGE]
        .iter()
        .map(|v| {
            let mut w = WireView::from_view(v);
            for cell in w.rows.iter_mut().flatten() {
                if let Value::Text(t) = cell {
                    n += 1;
                    *cell = Value::text(format!("{t}#{n}"));
                }
            }
            w
        })
        .collect();
    Response::Page(Page {
        cursor: 1,
        page: 1,
        last: false,
        views,
    })
    .encode()
}

/// Text cells and distinct text values of one page.
fn text_profile(views: &[WireView]) -> (usize, usize) {
    let mut cells = 0;
    let mut distinct: FxHashSet<Arc<str>> = FxHashSet::default();
    for cell in views.iter().flat_map(|v| v.rows.iter().flatten()) {
        if let Value::Text(t) = cell {
            cells += 1;
            distinct.insert(Arc::clone(t));
        }
    }
    (cells, distinct.len())
}

fn bench_wire(c: &mut Criterion) {
    let setup = setup_wdc();
    let (name, spec) = golden_queries(setup.ver.catalog()).swap_remove(0);
    let result = setup.ver.run(&spec).expect("answer");
    assert!(
        result.views.len() > 2 * PAGE,
        "{name} must span three pages"
    );
    let direct = direct_frames(&result);
    assert_eq!(direct, reference_frames(&result), "byte-identical frames");
    let bytes: usize = direct.iter().map(Vec::len).sum();
    println!(
        "wire: {name} answer, {} views, {} frames, {bytes} bytes",
        result.views.len(),
        direct.len()
    );

    let page = Response::Page(Page {
        cursor: 1,
        page: 1,
        last: false,
        views: result.views[PAGE..2 * PAGE]
            .iter()
            .map(WireView::from_view)
            .collect(),
    })
    .encode();
    let distinct = distinct_text_page(&result);
    for (label, payload) in [("answer page", &page), ("distinct-text page", &distinct)] {
        let Ok(Response::Page(p)) = Response::decode(payload) else {
            panic!("{label} decodes");
        };
        let (cells, values) = text_profile(&p.views);
        println!("wire: {label}: {cells} text cells, {values} distinct values");
    }

    let mut group = c.benchmark_group("wire");
    group.sample_size(10);
    group.bench_function("server_encode/reference", |b| {
        b.iter(|| reference_frames(&result))
    });
    group.bench_function("server_encode/direct", |b| {
        b.iter(|| direct_frames(&result))
    });
    group.bench_function("client_decode/answer_page", |b| {
        b.iter(|| Response::decode(&page).expect("decode"))
    });
    group.bench_function("client_decode/distinct_text_page", |b| {
        b.iter(|| Response::decode(&distinct).expect("decode"))
    });
    group.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
