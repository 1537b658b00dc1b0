//! Differential test: the parallel batch driver is observationally
//! identical to the serial one.
//!
//! The determinism guarantee the bench harnesses rely on (see the
//! `fetch-bench` crate docs) is that `--jobs N` output is byte-identical
//! to `--jobs 1` for every `N`: sharding is a pure function of
//! `(len, jobs)`, results merge in corpus index order, and the per-worker
//! decode-cache reuse never leaks across binaries. This suite runs the
//! real workloads — the full FETCH pipeline and the cross-tool sweep —
//! over a scaled corpus for worker counts {1, 2, 7, available
//! parallelism} and diffs every per-binary `DetectionResult` and every
//! corpus-level aggregate against the serial reference.

use fetch_bench::{dataset2, default_jobs, BatchDriver, BenchOpts};
use fetch_core::DetectionResult;
use fetch_metrics::{evaluate, Aggregate};
use fetch_synth::corpus::CorpusScale;
use fetch_tools::{run_tool, Tool};

/// A corpus small enough for a debug-build test but wide enough to give
/// every worker count a multi-item shard (and a ragged tail).
fn scaled_corpus() -> Vec<fetch_binary::TestCase> {
    let opts = BenchOpts {
        scale: CorpusScale {
            bin_divisor: 48,
            func_scale: 0.25,
        },
        ..BenchOpts::default()
    };
    dataset2(&opts)
}

/// The worker counts the differential runs over: the serial reference,
/// an even split, a prime that leaves a ragged tail, and whatever the
/// machine actually has.
fn worker_counts() -> Vec<usize> {
    let mut counts = vec![1, 2, 7, default_jobs()];
    counts.sort_unstable();
    counts.dedup();
    counts
}

#[test]
fn fetch_pipeline_parallel_equals_serial() {
    let cases = scaled_corpus();
    assert!(cases.len() >= 8, "corpus too small to exercise sharding");

    let detect = |engine: &mut fetch_disasm::RecEngine, case: &fetch_binary::TestCase| {
        fetch_core::Pipeline::fetch().run_with_engine(&case.binary, engine)
    };
    let reference: Vec<DetectionResult> = BatchDriver::serial().run(&cases, detect);

    for jobs in worker_counts() {
        let parallel = BatchDriver::new(jobs).run(&cases, detect);
        assert_eq!(
            parallel.len(),
            reference.len(),
            "jobs={jobs}: result count diverged"
        );
        for (i, (p, r)) in parallel.iter().zip(&reference).enumerate() {
            // `==` covers starts, layer order, and the deterministic
            // trace deltas (wall time and decode counters are
            // instrumentation, excluded from equality by design — they
            // legitimately vary with shard layout and engine warmth).
            assert_eq!(p, r, "jobs={jobs}: case {i} diverged");
            assert_eq!(
                format!("{:?} {:?}", p.starts, p.layer_names()),
                format!("{:?} {:?}", r.starts, r.layer_names()),
                "jobs={jobs}: case {i} canonical form diverged"
            );
        }
    }
}

#[test]
fn aggregate_metrics_parallel_equals_serial() {
    let cases = scaled_corpus();

    let aggregate_of = |jobs: usize| -> String {
        let evals = BatchDriver::new(jobs).run(&cases, |engine, case| {
            let r = fetch_core::Pipeline::fetch().run_with_engine(&case.binary, engine);
            evaluate(&r.start_set(), case)
        });
        let mut agg = Aggregate::new();
        for e in &evals {
            agg.add(e);
        }
        // The Debug form covers every counter field; coverage_pct is the
        // derived float the tables print.
        format!("{agg:?} cov={:.6}", agg.coverage_pct())
    };

    let reference = aggregate_of(1);
    for jobs in worker_counts() {
        assert_eq!(
            aggregate_of(jobs),
            reference,
            "jobs={jobs}: aggregate metrics diverged"
        );
    }
}

#[test]
fn cross_tool_sweep_parallel_equals_serial() {
    // The sharpest cache-soundness probe: all nine tool models run
    // back-to-back on each worker's engine, across binaries — any decode
    // or fixpoint state leaking between tools or binaries would change
    // some tool's result for some shard layout.
    let cases = {
        let mut cases = scaled_corpus();
        cases.truncate(12); // 9 tools x 12 binaries is plenty
        cases
    };

    let sweep = |jobs: usize| -> Vec<Vec<Option<DetectionResult>>> {
        BatchDriver::new(jobs).run(&cases, |engine, case| {
            Tool::ALL
                .into_iter()
                .map(|tool| run_tool(tool, &case.binary, engine))
                .collect()
        })
    };

    let reference = sweep(1);
    for jobs in worker_counts() {
        assert_eq!(sweep(jobs), reference, "jobs={jobs}: tool sweep diverged");
    }
}

/// The view-based corpus path: every binary the harnesses consume is
/// materialized from one shared ELF image (zero per-section body
/// copies), and detection over it is byte-identical to detection over
/// the freshly synthesized owned binaries.
#[test]
fn view_backed_corpus_is_zero_copy_and_result_identical() {
    use fetch_synth::corpus::{dataset2_configs, synthesize_all};

    let opts = BenchOpts {
        scale: CorpusScale {
            bin_divisor: 96,
            func_scale: 0.25,
        },
        ..BenchOpts::default()
    };
    // `dataset2` routes through `case_through_elf`; re-synthesize the
    // same corpus without the ELF round trip as the owned reference.
    let viewed = dataset2(&opts);
    let owned = synthesize_all(&dataset2_configs(&opts.scale));
    assert_eq!(viewed.len(), owned.len());

    for (v, o) in viewed.iter().zip(&owned) {
        assert_eq!(v.binary.name, o.binary.name);
        assert_eq!(v.binary.sections, o.binary.sections);
        assert_eq!(v.binary.symbols, o.binary.symbols);
        // Zero-copy invariant: all of a binary's sections are windows
        // of one backing buffer (the resident ELF image).
        for pair in v.binary.sections.windows(2) {
            assert!(
                pair[0].shares_image(&pair[1]),
                "{}: sections must share one image buffer",
                v.binary.name
            );
        }
        // The owned path gives every section its own buffer.
        if o.binary.sections.len() >= 2 {
            assert!(!o.binary.sections[0].shares_image(&o.binary.sections[1]));
        }
    }

    let detect = |engine: &mut fetch_disasm::RecEngine, case: &fetch_binary::TestCase| {
        fetch_core::Pipeline::fetch().run_with_engine(&case.binary, engine)
    };
    let viewed_results = BatchDriver::new(default_jobs()).run(&viewed, detect);
    let owned_results = BatchDriver::serial().run(&owned, detect);
    assert_eq!(
        viewed_results, owned_results,
        "view-backed corpus must detect identically to the owned corpus"
    );
}
