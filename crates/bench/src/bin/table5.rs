//! Table V: average analysis time per binary for each tool.
//!
//! Absolute numbers are not comparable with the paper (our substrate is a
//! simulator and the models are lightweight); the per-tool *relative*
//! cost ordering is the reproduced shape. `cargo bench` (criterion
//! `tool_timing`) provides statistically robust versions of these points.

use fetch_bench::{banner, dataset2, opts_from_args, paper};
use fetch_metrics::TextTable;
use fetch_tools::{run_tool, Tool};
use std::time::Instant;

fn main() {
    let opts = opts_from_args(&[]);
    banner("Table V — average time per binary");
    let mut cases = dataset2(&opts);
    cases.truncate(40); // a sample is enough for stable averages
    println!("sample: {} binaries\n", cases.len());

    let mut table = TextTable::new(["Tool", "ms/binary (measured)", "s/binary (paper)"]);
    for tool in Tool::ALL {
        let start = Instant::now();
        let mut ran = 0u32;
        for case in &cases {
            if run_tool(tool, &case.binary).is_some() {
                ran += 1;
            }
        }
        let avg_ms = start.elapsed().as_secs_f64() * 1000.0 / ran.max(1) as f64;
        let paper_s = paper::TABLE5
            .iter()
            .find(|(n, _)| *n == tool.name())
            .map(|(_, s)| format!("{s:.1}"))
            .unwrap_or_default();
        table.row([tool.name().to_string(), format!("{avg_ms:.2}"), paper_s]);
    }
    println!("{table}");
    println!(
        "Shape checks: FETCH sits in the fast tier (same class as DYNINST/\n\
         NUCLEUS in the paper); BAP and ANGR are the expensive tier."
    );
}
