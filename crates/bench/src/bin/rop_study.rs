//! §V-A security experiment: ROP gadgets at FDE-introduced false starts.
//!
//! Paper: the blocks at false starts contain 99,932 valid ROP gadgets;
//! a CFI policy that whitelists all "function starts" would leave them
//! unprotected. Algorithm 1 removes ~95% of those starts, shrinking the
//! exposed surface accordingly.

use fetch_analyses::gadgets_at_starts;
use fetch_bench::{banner, compare_line, dataset2, opts_from_args, paper, BatchDriver};
use fetch_core::Pipeline;

fn main() {
    let opts = opts_from_args(&[]);
    banner("§V-A — ROP gadget surface at FDE false starts");
    let cases = dataset2(&opts);

    struct Row {
        gadgets_before: usize,
        gadgets_after: usize,
    }
    let rows = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        // Blocks at FDE false starts (cold parts), with their extents.
        let truth = case.truth.starts();
        let blocks: Vec<(u64, u64)> = case
            .truth
            .functions
            .iter()
            .flat_map(|f| f.parts.iter().skip(1))
            .filter(|p| p.has_fde)
            .map(|p| (p.start, p.len))
            .collect();
        let before = gadgets_at_starts(&case.binary, &blocks, 6);

        // After FETCH's repair, only surviving false starts expose blocks.
        let result = Pipeline::fetch().run_with_engine(&case.binary, engine);
        let survivors: Vec<(u64, u64)> = blocks
            .iter()
            .filter(|(s, _)| result.starts.contains_key(s) && !truth.contains(s))
            .copied()
            .collect();
        let after = gadgets_at_starts(&case.binary, &survivors, 6);
        Row {
            gadgets_before: before,
            gadgets_after: after,
        }
    });

    let before: usize = rows.iter().map(|r| r.gadgets_before).sum();
    let after: usize = rows.iter().map(|r| r.gadgets_after).sum();
    compare_line(
        "gadgets at FDE false starts",
        &paper::ROP_GADGETS.to_string(),
        &before.to_string(),
    );
    compare_line(
        "gadgets still exposed after repair",
        "~5%",
        &after.to_string(),
    );
    compare_line(
        "surface reduction (%)",
        "~95",
        &format!(
            "{:.1}",
            100.0 * (before.saturating_sub(after)) as f64 / before.max(1) as f64
        ),
    );
}
