//! The §V-A security experiment in miniature: FDE false starts expose
//! ROP gadgets to coarse-grained CFI policies; Algorithm 1 removes them.
//!
//! ```text
//! cargo run --example rop_surface
//! ```

use fetch_analyses::scan_gadgets;
use fetch_core::Pipeline;
use fetch_synth::{synthesize, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SynthConfig::small(4242);
    cfg.n_funcs = 150;
    cfg.rates.split_cold = 0.15; // many non-contiguous functions
    let case = synthesize(&cfg);

    // A coarse-grained CFI policy admits every detected "function start"
    // as an indirect-branch target. FDE false starts therefore whitelist
    // their blocks — count the gadgets inside.
    let false_start_blocks: Vec<(u64, u64)> = case
        .truth
        .functions
        .iter()
        .flat_map(|f| f.parts.iter().skip(1))
        .filter(|p| p.has_fde)
        .map(|p| (p.start, p.len))
        .collect();
    println!(
        "FDE false starts (cold parts): {}",
        false_start_blocks.len()
    );

    let mut total = 0usize;
    for &(start, len) in &false_start_blocks {
        let gadgets = scan_gadgets(&case.binary, start, start + len, 6);
        total += gadgets.len();
        if let Some(g) = gadgets.first() {
            let ops: Vec<String> = g.insts.iter().map(|i| i.to_string()).collect();
            println!(
                "  block {start:#x}: {} gadgets, e.g. [{}]",
                gadgets.len(),
                ops.join("; ")
            );
        }
    }
    println!("\ntotal gadgets whitelisted by the naive policy: {total}");
    println!("(the paper counts 99,932 across its full corpus)");

    // Run FETCH: the repaired start set no longer contains the cold
    // parts, so those gadgets are no longer legitimate branch targets.
    let result = Pipeline::fetch().run(&case.binary);
    let survivors: Vec<(u64, u64)> = false_start_blocks
        .iter()
        .filter(|(s, _)| result.starts.contains_key(s))
        .copied()
        .collect();
    let mut remaining = 0usize;
    for &(start, len) in &survivors {
        remaining += scan_gadgets(&case.binary, start, start + len, 6).len();
    }
    println!(
        "\nafter Algorithm 1: {} false starts survive, {} gadgets still exposed \
         ({:.1}% reduction)",
        survivors.len(),
        remaining,
        100.0 * (total.saturating_sub(remaining)) as f64 / total.max(1) as f64
    );
    Ok(())
}
