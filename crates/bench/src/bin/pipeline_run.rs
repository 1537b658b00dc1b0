//! Ad-hoc ablation harness: run *any* declarative strategy stack over
//! the Dataset 2 corpus.
//!
//! The stack comes from the shared `--pipeline <spec>` flag — a
//! `+`-separated layer list such as `FDE+Rec+Xref` or
//! `Entry+Rec+Fsig.angr+Scan` (unknown layer names are rejected with the
//! full vocabulary; see [`fetch_core::KNOWN_LAYERS`]) — and defaults to
//! the paper's optimal [`Pipeline::fetch`]. The corpus is swept twice
//! through one shared serving-layer [`fetch_core::AnalysisCache`]: round
//! two is pure cache hits, asserted identical, so the harness doubles as
//! an end-to-end cache demonstration.
//!
//! Printed per run: corpus-aggregate coverage/accuracy/FP/FN for the
//! stack, and the per-layer breakdown (wall time, starts added/removed,
//! decode work) summed from the executor's traces.
//!
//! Usage: `cargo run --release -p fetch-bench --bin pipeline_run -- \
//!     --pipeline FDE+Rec+Scan [--scale N] [--jobs N]`

use fetch_bench::{banner, dataset2, opts_from_args, BatchDriver};
use fetch_core::{content_fingerprint, AnalysisCache, Pipeline};
use fetch_metrics::{evaluate, Aggregate, TextTable};

fn main() {
    let opts = opts_from_args(&[]);
    let pipeline = opts.pipeline.clone().unwrap_or_else(Pipeline::fetch);
    banner(&format!("Custom pipeline over Dataset 2 — {pipeline}"));
    let cases = dataset2(&opts);
    println!("binaries: {}, layers: {}\n", cases.len(), pipeline.len());

    let driver = BatchDriver::from_opts(&opts);
    let cache = AnalysisCache::new();
    let sweep = || {
        driver.run_with_cache(&cases, &cache, |engine, cache, case| {
            cache.get_or_compute(content_fingerprint(&case.binary), &pipeline.id(), || {
                pipeline.run_with_engine(&case.binary, engine)
            })
        })
    };
    let results = sweep();
    let rerun = sweep();
    assert_eq!(results, rerun, "cache hits must reproduce cold results");
    let stats = cache.stats();

    let mut agg = Aggregate::new();
    for (case, r) in cases.iter().zip(&results) {
        agg.add(&evaluate(&r.start_set(), case));
    }
    let mut table = TextTable::new(["Metric", "Value"]);
    table.row(["pipeline id".into(), pipeline.id()]);
    table.row(["full coverage".into(), agg.full_coverage.to_string()]);
    table.row(["full accuracy".into(), agg.full_accuracy.to_string()]);
    table.row(["false positives".into(), agg.false_positives.to_string()]);
    table.row(["false negatives".into(), agg.false_negatives.to_string()]);
    table.row([
        "cache hit rate (2 rounds)".into(),
        format!("{:.1}%", 100.0 * stats.hit_rate()),
    ]);
    println!("{table}");

    // Per-layer breakdown summed over the corpus, straight from the
    // executor's traces.
    let mut layers = TextTable::new([
        "Layer",
        "wall ms (sum)",
        "starts added",
        "starts removed",
        "fresh decodes",
    ]);
    for (li, spec) in pipeline.specs().iter().enumerate() {
        let wall_ms: f64 = results.iter().map(|r| r.trace[li].wall_us()).sum::<f64>() / 1e3;
        let added: usize = results.iter().map(|r| r.trace[li].added.len()).sum();
        let removed: usize = results.iter().map(|r| r.trace[li].removed.len()).sum();
        let decodes: u64 = results.iter().map(|r| r.trace[li].decode_misses).sum();
        layers.row([
            spec.id().to_string(),
            format!("{wall_ms:.1}"),
            added.to_string(),
            removed.to_string(),
            decodes.to_string(),
        ]);
    }
    println!("{layers}");
}
