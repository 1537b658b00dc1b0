//! §IV-E: moving towards full coverage with function-pointer detection.
//!
//! Paper: +154 starts with zero new false positives; 414 residual misses
//! split into 160 unreachable assembly functions and 254 functions only
//! referenced by tail calls within a single function.

use fetch_bench::{banner, compare_line, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::Reach;
use fetch_core::{Pipeline, Provenance};

fn main() {
    let opts = opts_from_args(&[]);
    banner("Q3/§IV-E — function-pointer detection on top of FDE+Rec");
    let cases = dataset2(&opts);
    let pipeline = Pipeline::parse("FDE+Rec+Xref").expect("spec parses");

    struct Row {
        added: usize,
        added_fp: usize,
        remaining: usize,
        remaining_unreachable: usize,
        remaining_tailonly: usize,
    }
    let rows = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        let r = pipeline.run_with_engine(&case.binary, engine);
        // The accepted §IV-E pointers are the Xref layer's trace delta,
        // filtered to pointer-scan provenance (the layer's fixpoint
        // recursion also promotes freshly reachable call targets).
        let accepted: Vec<u64> = r.trace[2]
            .added
            .iter()
            .filter(|(_, p)| *p == Provenance::PointerScan)
            .map(|(a, _)| *a)
            .collect();
        let truth = case.truth.starts();
        let added_fp = accepted.iter().filter(|a| !truth.contains(a)).count();
        let found = r.start_set();
        let remaining: Vec<u64> = truth.difference(&found).copied().collect();
        let mut unreach = 0;
        let mut tailonly = 0;
        for m in &remaining {
            match case.truth.function_at(*m).map(|f| f.reach) {
                Some(Reach::Unreachable) => unreach += 1,
                Some(Reach::TailCalled { .. }) => tailonly += 1,
                _ => {}
            }
        }
        Row {
            added: accepted.len(),
            added_fp,
            remaining: remaining.len(),
            remaining_unreachable: unreach,
            remaining_tailonly: tailonly,
        }
    });

    let added: usize = rows.iter().map(|r| r.added).sum();
    let added_fp: usize = rows.iter().map(|r| r.added_fp).sum();
    let remaining: usize = rows.iter().map(|r| r.remaining).sum();
    let r_unreach: usize = rows.iter().map(|r| r.remaining_unreachable).sum();
    let r_tail: usize = rows.iter().map(|r| r.remaining_tailonly).sum();

    compare_line(
        "starts added by pointer scan",
        &paper::XREF_ADDED.to_string(),
        &added.to_string(),
    );
    compare_line("false positives introduced", "0", &added_fp.to_string());
    compare_line(
        "remaining misses",
        &paper::XREF_REMAINING.to_string(),
        &remaining.to_string(),
    );
    compare_line(
        "  … unreachable assembly",
        &paper::XREF_REMAINING_UNREACHABLE.to_string(),
        &r_unreach.to_string(),
    );
    compare_line(
        "  … tail-call-only functions",
        &paper::XREF_REMAINING_TAILONLY.to_string(),
        &r_tail.to_string(),
    );
    compare_line(
        "avg starts needing manual vetting / binary",
        "0.31",
        &format!("{:.2}", added as f64 / rows.len().max(1) as f64),
    );
}
