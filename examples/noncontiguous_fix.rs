//! Watch Algorithm 1 repair one non-contiguous function, step by step
//! (the paper's Figure 6a scenario).
//!
//! ```text
//! cargo run --example noncontiguous_fix
//! ```

use fetch_core::{CallFrameRepair, DetectionState, LayerSpec, Pipeline};
use fetch_ehframe::stack_heights;
use fetch_synth::{synthesize, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = SynthConfig::small(606);
    cfg.n_funcs = 60;
    cfg.rates.split_cold = 0.25;
    let case = synthesize(&cfg);

    // Find a split function in the ground truth (for narration only —
    // the detector never sees this).
    let split = case
        .truth
        .functions
        .iter()
        .find(|f| f.is_noncontiguous() && f.parts[1].has_fde)
        .expect("corpus has split functions");
    let hot = &split.parts[0];
    let cold = &split.parts[1];
    println!("non-contiguous function {}:", split.name);
    println!("  hot part  {:#x}..{:#x} (FDE 1)", hot.start, hot.end());
    println!(
        "  cold part {:#x}..{:#x} (FDE 2) ← a false 'function start'",
        cold.start,
        cold.end()
    );

    // Step 1: FDE extraction reports BOTH parts as function starts.
    let mut state = DetectionState::new(&case.binary);
    LayerSpec::FdeSeeds.apply(&mut state);
    println!(
        "\nafter FDE extraction: cold part detected as a function? {}",
        state.starts().contains_key(&cold.start)
    );

    // Step 2: recursion + pointer scan (neither can fix FDE errors).
    Pipeline::parse("Rec+Xref")?.apply(&mut state);
    println!(
        "after Rec+Xref:        cold part still a function? {}",
        state.starts().contains_key(&cold.start)
    );

    // Narrate the evidence Algorithm 1 will use.
    let eh = case.binary.eh_frame()?;
    let (cie, fde) = eh
        .fdes_with_cie()
        .find(|(_, f)| f.pc_begin == hot.start)
        .expect("hot FDE");
    match stack_heights(cie, fde)? {
        Some(h) => {
            // Find the jump into the cold part and its recorded height.
            let jump = state
                .rec()
                .disasm
                .iter()
                .find(|i| i.direct_target() == Some(cold.start))
                .copied()
                .expect("the hot→cold branch was disassembled");
            let height = h.height_at(jump.addr).expect("height at jump");
            println!(
                "\nevidence: jump at {:#x} targets the cold part with stack height {} \
                 (≠ 0 ⇒ cannot be a tail call)",
                jump.addr, height
            );
        }
        None => println!("\n(frame-pointer CFI: heights incomplete — repair would skip)"),
    }

    // Step 3: Algorithm 1 merges the call frames.
    let report = CallFrameRepair::default().repair(&mut state);
    let merged_here = report
        .merged
        .iter()
        .any(|(removed, into)| *removed == cold.start && *into == hot.start);
    println!(
        "\nafter TcallFix:        cold part still a function? {}  (merged into hot: {})",
        state.starts().contains_key(&cold.start),
        merged_here
    );
    println!(
        "\nbinary-wide: {} frames merged, {} tail calls confirmed, {} mislabels removed",
        report.merged.len(),
        report.tail_calls.len(),
        report.bad_fdes_removed.len()
    );
    Ok(())
}
