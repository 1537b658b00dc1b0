//! §V-C: evaluation of Algorithm 1 — how many FDE false starts are
//! repaired, at what cost.
//!
//! Paper: false positives 34,772 → 2,659 (~95% removed); full-accuracy
//! binaries 864 → 1,222; 161 new (harmless) false negatives; no new
//! false positives.

use fetch_bench::{banner, compare_line, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::Reach;
use fetch_core::Pipeline;
use std::collections::BTreeSet;

fn main() {
    let opts = opts_from_args(&[]);
    banner("§V-C — Algorithm 1 evaluation (call-frame repair)");
    let cases = dataset2(&opts);

    struct Row {
        fps_before: usize,
        fps_after: usize,
        acc_before: bool,
        acc_after: bool,
        cov_before: bool,
        cov_after: bool,
        new_fns: usize,
        harmless_new_fns: usize,
    }
    let pipeline = Pipeline::fetch();
    let rows = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        let truth = case.truth.starts();
        let r = pipeline.run_with_engine(&case.binary, engine);
        // One full-pipeline run; the pre-repair state is the trace
        // replayed through the FDE+Rec+Xref prefix.
        let before: BTreeSet<u64> = r.starts_after_layer(3).keys().copied().collect();
        let after = r.start_set();

        let fps_before = before.difference(&truth).count();
        let fps_after = after.difference(&truth).count();
        let fns_before: Vec<u64> = truth.difference(&before).copied().collect();
        let fns_after: Vec<u64> = truth.difference(&after).copied().collect();
        let new_fns: Vec<u64> = fns_after
            .iter()
            .filter(|m| !fns_before.contains(m))
            .copied()
            .collect();
        let harmless = new_fns
            .iter()
            .filter(|m| {
                matches!(
                    case.truth.function_at(**m).map(|f| f.reach),
                    Some(Reach::TailCalled { callers: 1 })
                )
            })
            .count();
        Row {
            fps_before,
            fps_after,
            acc_before: fps_before == 0,
            acc_after: fps_after == 0,
            cov_before: fns_before.is_empty(),
            cov_after: fns_after.is_empty(),
            new_fns: new_fns.len(),
            harmless_new_fns: harmless,
        }
    });

    let fb: usize = rows.iter().map(|r| r.fps_before).sum();
    let fa: usize = rows.iter().map(|r| r.fps_after).sum();
    let acc_b = rows.iter().filter(|r| r.acc_before).count();
    let acc_a = rows.iter().filter(|r| r.acc_after).count();
    let cov_b = rows.iter().filter(|r| r.cov_before).count();
    let cov_a = rows.iter().filter(|r| r.cov_after).count();
    let nf: usize = rows.iter().map(|r| r.new_fns).sum();
    let hnf: usize = rows.iter().map(|r| r.harmless_new_fns).sum();

    compare_line(
        "false positives before → after",
        &format!("{} → {}", paper::FDE_FPS, paper::FPS_AFTER_FIX),
        &format!("{fb} → {fa}"),
    );
    compare_line(
        "repair rate (%)",
        "~95",
        &format!(
            "{:.1}",
            100.0 * (fb.saturating_sub(fa)) as f64 / fb.max(1) as f64
        ),
    );
    compare_line(
        "full-accuracy binaries before → after",
        &format!(
            "{} → {}",
            paper::FULL_ACCURACY_BEFORE,
            paper::FULL_ACCURACY_AFTER
        ),
        &format!("{acc_b} → {acc_a}"),
    );
    compare_line(
        "full-coverage binaries before → after",
        "1,346 → 1,334",
        &format!("{cov_b} → {cov_a}"),
    );
    compare_line(
        "new false negatives (harmless / total)",
        &format!("{} / {}", paper::FIX_NEW_FNS, paper::FIX_NEW_FNS),
        &format!("{hnf} / {nf}"),
    );
}
