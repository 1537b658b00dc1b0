//! Integration tests encoding the paper's *claims* as assertions over a
//! small multi-binary corpus: each §IV/§V finding must hold in shape.

use fetch::binary::TestCase;
use fetch::core::{CallFrameRepair, DetectionResult, DetectionState, Pipeline};
use fetch::metrics::{evaluate, Aggregate};
use fetch::synth::corpus::{dataset2_configs, synthesize_all, CorpusScale};

fn corpus() -> Vec<TestCase> {
    // ~58 binaries across all projects and opt levels — large enough for
    // the rarer claim preconditions (e.g. CFR's unreferenced-after-
    // noreturn starts) to occur with margin.
    let scale = CorpusScale {
        bin_divisor: 32,
        func_scale: 0.3,
    };
    synthesize_all(&dataset2_configs(&scale))
}

/// Runs a `+`-separated layer stack (`"FDE+Rec"`) over `c`.
fn run(spec: &str, c: &TestCase) -> DetectionResult {
    Pipeline::parse(spec).unwrap().run(&c.binary)
}

fn agg<F: Fn(&TestCase) -> fetch::metrics::BinaryEval>(cases: &[TestCase], f: F) -> Aggregate {
    let mut a = Aggregate::new();
    for c in cases {
        a.add(&f(c));
    }
    a
}

/// §IV-B: FDEs alone give near-full coverage with misses concentrated in
/// a handful of binaries.
#[test]
fn claim_fde_only_high_coverage() {
    let cases = corpus();
    let a = agg(&cases, |c| {
        let r = run("FDE", c);
        evaluate(&r.start_set(), c)
    });
    assert!(a.coverage_pct() > 97.0, "coverage {:.2}", a.coverage_pct());
    assert!(
        a.binaries - a.full_coverage <= a.binaries / 4,
        "misses concentrate: {} of {}",
        a.binaries - a.full_coverage,
        a.binaries
    );
}

/// §IV-C: safe recursion adds coverage and never accuracy loss.
#[test]
fn claim_recursion_helps_never_hurts() {
    let cases = corpus();
    let fde = agg(&cases, |c| {
        let r = run("FDE", c);
        evaluate(&r.start_set(), c)
    });
    let rec = agg(&cases, |c| {
        let r = run("FDE+Rec", c);
        evaluate(&r.start_set(), c)
    });
    assert!(rec.true_positives >= fde.true_positives);
    assert!(rec.full_coverage >= fde.full_coverage);
    assert_eq!(rec.false_positives, fde.false_positives, "Rec adds no FPs");
}

/// §IV-C: control-flow repairing (GHIDRA) reduces coverage.
#[test]
fn claim_cfr_reduces_coverage() {
    let cases = corpus();
    let rec = agg(&cases, |c| {
        let r = run("FDE+Rec", c);
        evaluate(&r.start_set(), c)
    });
    let cfr = agg(&cases, |c| {
        let r = run("FDE+Rec+CFR", c);
        evaluate(&r.start_set(), c)
    });
    assert!(
        cfr.true_positives < rec.true_positives,
        "CFR must remove true starts ({} vs {})",
        cfr.true_positives,
        rec.true_positives
    );
}

/// §IV-C: function merging (ANGR) reduces coverage.
#[test]
fn claim_fmerg_reduces_coverage() {
    let cases = corpus();
    let rec = agg(&cases, |c| {
        let r = run("FDE+Rec", c);
        evaluate(&r.start_set(), c)
    });
    let fm = agg(&cases, |c| {
        let r = run("FDE+Rec+Fmerg", c);
        evaluate(&r.start_set(), c)
    });
    assert!(fm.true_positives <= rec.true_positives);
    assert!(
        fm.full_coverage <= rec.full_coverage,
        "Fmerg cannot improve coverage"
    );
}

/// §IV-D: the unsafe heuristics add false positives far in excess of the
/// true starts they find.
#[test]
fn claim_unsafe_heuristics_hurt_accuracy() {
    let cases = corpus();
    let base = agg(&cases, |c| {
        let r = run("FDE+Rec", c);
        evaluate(&r.start_set(), c)
    });
    for name in ["Scan", "Tcall.ghidra"] {
        let h = agg(&cases, |c| {
            let r = run(&format!("FDE+Rec+{name}"), c);
            evaluate(&r.start_set(), c)
        });
        let new_tp = h.true_positives.saturating_sub(base.true_positives);
        let new_fp = h.false_positives.saturating_sub(base.false_positives);
        assert!(
            new_fp > new_tp,
            "{name}: FPs ({new_fp}) must exceed TPs ({new_tp})"
        );
    }
}

/// §V-C: Algorithm 1 removes the vast majority of FDE false positives
/// and lifts the number of fully accurate binaries.
#[test]
fn claim_repair_lifts_accuracy() {
    let cases = corpus();
    let mut before = Aggregate::new();
    let mut after = Aggregate::new();
    for c in &cases {
        let mut state = DetectionState::new(&c.binary);
        Pipeline::parse("FDE+Rec+Xref").unwrap().apply(&mut state);
        before.add(&evaluate(&state.start_set(), c));
        CallFrameRepair::default().repair(&mut state);
        after.add(&evaluate(&state.start_set(), c));
    }
    assert!(
        before.false_positives >= 10,
        "corpus must exhibit FDE false positives, got {}",
        before.false_positives
    );
    assert!(
        after.false_positives * 4 <= before.false_positives,
        "repair removes at least three quarters: {} -> {}",
        before.false_positives,
        after.false_positives
    );
    assert!(after.full_accuracy > before.full_accuracy);
    // Coverage cost is tiny (repair may even *gain* starts by confirming
    // tail calls to otherwise-invisible functions).
    assert!(
        before.true_positives.saturating_sub(after.true_positives) <= cases.len() * 2,
        "coverage cost too high: {} -> {}",
        before.true_positives,
        after.true_positives
    );
}
