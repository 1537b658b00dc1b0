//! §V-A: identifying and quantifying the errors FDEs introduce.
//!
//! Paper: 34,772 false starts across 488 binaries; 34,769 from
//! non-contiguous functions, 3 from hand-written CFI directives.

use fetch_bench::{banner, compare_line, dataset2, opts_from_args, paper, BatchDriver};
use fetch_core::Pipeline;

fn main() {
    let opts = opts_from_args(&[]);
    banner("§V-A — errors introduced by FDEs themselves");
    let cases = dataset2(&opts);
    let fde_only = Pipeline::parse("FDE").expect("spec parses");

    struct Row {
        fps: usize,
        noncontig: usize,
        handwritten: usize,
        affected: bool,
        symbol_fps: usize,
    }
    let rows = BatchDriver::from_opts(&opts).run(&cases, |engine, case| {
        let r = fde_only.run_with_engine(&case.binary, engine);
        let truth = case.truth.starts();
        let parts = case.truth.part_starts();
        let found = r.start_set();
        let fps: Vec<u64> = found.difference(&truth).copied().collect();
        let noncontig = fps.iter().filter(|f| parts.contains(f)).count();
        // Symbols exhibit the same non-contiguous duplication (§V-A).
        let symbol_fps = case
            .binary
            .symbols
            .iter()
            .filter(|s| !truth.contains(&s.addr) && parts.contains(&s.addr))
            .count();
        Row {
            fps: fps.len(),
            noncontig,
            handwritten: fps.len() - noncontig,
            affected: !fps.is_empty(),
            symbol_fps,
        }
    });

    let fps: usize = rows.iter().map(|r| r.fps).sum();
    let nc: usize = rows.iter().map(|r| r.noncontig).sum();
    let hw: usize = rows.iter().map(|r| r.handwritten).sum();
    let affected = rows.iter().filter(|r| r.affected).count();
    let sym_fps: usize = rows.iter().map(|r| r.symbol_fps).sum();

    compare_line(
        "FDE-introduced false starts",
        &paper::FDE_FPS.to_string(),
        &fps.to_string(),
    );
    compare_line(
        "binaries affected",
        &format!("{} / 1,352", paper::FDE_FP_BINARIES),
        &format!("{affected} / {}", rows.len()),
    );
    compare_line(
        "  … from non-contiguous functions",
        &paper::FDE_FPS_NONCONTIG.to_string(),
        &nc.to_string(),
    );
    compare_line(
        "  … from hand-written CFI directives",
        &paper::FDE_FPS_HANDWRITTEN.to_string(),
        &hw.to_string(),
    );
    compare_line(
        "symbol-introduced false starts (same cause)",
        "34,769",
        &sym_fps.to_string(),
    );
}
