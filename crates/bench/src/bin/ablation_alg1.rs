//! Ablation study: what each criterion of Algorithm 1 buys.
//!
//! Sweeps the repair layer's knobs: drop the calling-convention check,
//! drop the reference check, and replace CFI heights with a static model
//! (the design the paper rejects in §V-B). Reported per variant: false
//! positives repaired, residual false positives, and *true starts
//! wrongly merged* (the safety cost).
//!
//! The shared `FDE+Rec+Xref` prefix is executed **once** per binary
//! through the declarative [`Pipeline`] executor; each variant then
//! repairs a clone of that state, and the prefix's per-layer trace
//! supplies the pre-repair accounting — no bespoke re-sequencing per
//! variant.

use fetch_analyses::HeightStyle;
use fetch_bench::{banner, dataset2, opts_from_args, BatchDriver};
use fetch_binary::Reach;
use fetch_core::{CallFrameRepair, DetectionState, LayerTrace, Pipeline};
use fetch_metrics::TextTable;

fn main() {
    let opts = opts_from_args(&[]);
    banner("Ablation — Algorithm 1 criteria");
    let cases = dataset2(&opts);

    let variants: Vec<(&str, CallFrameRepair)> = vec![
        (
            "paper (CFI heights + cc + refs)",
            CallFrameRepair::default(),
        ),
        (
            "no calling-convention check",
            CallFrameRepair {
                skip_callconv: true,
                ..CallFrameRepair::default()
            },
        ),
        (
            "no reference check",
            CallFrameRepair {
                skip_ref_check: true,
                ..CallFrameRepair::default()
            },
        ),
        (
            "static heights (angr-like)",
            CallFrameRepair {
                use_static_heights: Some(HeightStyle::AngrLike),
                ..CallFrameRepair::default()
            },
        ),
        (
            "static heights (dyninst-like)",
            CallFrameRepair {
                use_static_heights: Some(HeightStyle::DyninstLike),
                ..CallFrameRepair::default()
            },
        ),
        (
            "static heights + no reference check",
            CallFrameRepair {
                use_static_heights: Some(HeightStyle::AngrLike),
                skip_ref_check: true,
                ..CallFrameRepair::default()
            },
        ),
    ];

    // One prefix execution per binary; every variant repairs a clone of
    // the prefix state on the same worker, so the decode cache built for
    // `FDE+Rec+Xref` is shared by all six. The prefix trace rides along
    // for the per-layer summary below.
    let prefix = Pipeline::parse("FDE+Rec+Xref").expect("prefix parses");
    type CaseOut = (Vec<(usize, usize, usize, usize)>, Vec<LayerTrace>);
    let per_case: Vec<CaseOut> = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        let truth = case.truth.starts();
        let mut state = DetectionState::with_engine(&case.binary, std::mem::take(engine));
        prefix.apply(&mut state);
        let before_fp = state.start_set().difference(&truth).count();
        let prefix_trace = state.trace.clone();
        let mut out = Vec::with_capacity(variants.len());
        for (_, repair) in &variants {
            let mut variant_state = state.clone();
            let report = repair.repair(&mut variant_state);
            let after_fp = variant_state.start_set().difference(&truth).count();
            let mut wrong = 0usize;
            let mut harmless = 0usize;
            for (removed, _) in &report.merged {
                if truth.contains(removed) {
                    match case.truth.function_at(*removed).map(|f| f.reach) {
                        // Merging a tail-only function is the paper's
                        // harmless inlining side effect (§V-C).
                        Some(Reach::TailCalled { .. }) => harmless += 1,
                        _ => wrong += 1,
                    }
                }
            }
            out.push((before_fp, after_fp, wrong, harmless));
        }
        *engine = state.into_result_with_engine().1;
        (out, prefix_trace)
    });

    let mut table = TextTable::new([
        "Variant",
        "FPs before",
        "FPs after",
        "true starts wrongly merged",
        "harmless merges",
    ]);
    for (vi, (label, _)) in variants.iter().enumerate() {
        let b: usize = per_case.iter().map(|(r, _)| r[vi].0).sum();
        let a: usize = per_case.iter().map(|(r, _)| r[vi].1).sum();
        let w: usize = per_case.iter().map(|(r, _)| r[vi].2).sum();
        let h: usize = per_case.iter().map(|(r, _)| r[vi].3).sum();
        table.row([
            label.to_string(),
            b.to_string(),
            a.to_string(),
            w.to_string(),
            h.to_string(),
        ]);
    }
    println!("{table}");

    // Where the pre-repair starts came from, corpus-wide — read straight
    // off the executor's traces instead of re-instrumenting the stack.
    let mut layer_table = TextTable::new(["Prefix layer", "starts added", "wall ms (sum)"]);
    for (li, name) in prefix.specs().iter().map(|s| s.name()).enumerate() {
        let added: usize = per_case.iter().map(|(_, t)| t[li].added.len()).sum();
        let wall_ms: f64 = per_case.iter().map(|(_, t)| t[li].wall_us()).sum::<f64>() / 1e3;
        layer_table.row([name.to_string(), added.to_string(), format!("{wall_ms:.1}")]);
    }
    println!("{layer_table}");
    println!(
        "Shape checks: the paper configuration repairs ~95% of FDE false\n\
         positives with zero harmful merges; dropping the reference check\n\
         or substituting static heights introduces harmful merges — the\n\
         quantitative backing for the paper's design choices (§V-B)."
    );
}
