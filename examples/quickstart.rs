//! Quickstart: synthesize a binary, run the FETCH pipeline, and compare
//! against ground truth.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fetch_core::{CallFrameRepair, DetectionState, Pipeline};
use fetch_metrics::evaluate;
use fetch_synth::{synthesize, SynthConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a synthetic x86-64 System-V binary with exact ground truth.
    //    (In a real deployment you would load an ELF with
    //    `fetch_binary::ElfImage::parse` and `to_binary` instead.)
    let mut cfg = SynthConfig::small(2024);
    cfg.n_funcs = 80;
    cfg.rates.split_cold = 0.10; // plenty of non-contiguous functions
    let case = synthesize(&cfg);
    println!("binary: {}", case.binary);
    println!("ground truth functions: {}", case.truth.len());

    // 2. Inspect the exception-handling data the detector will use.
    let eh = case.binary.eh_frame()?;
    println!("FDEs in .eh_frame: {}", eh.fde_count());

    // 3. Run the full FETCH pipeline: FDE → Rec → Xref → TcallFix.
    let result = Pipeline::fetch().run(&case.binary);
    println!(
        "\ndetected {} function starts via layers {:?}",
        result.len(),
        result.layer_names()
    );
    // Algorithm 1's report: run its layer by hand after FDE+Rec+Xref.
    let mut state = DetectionState::new(&case.binary);
    Pipeline::parse("FDE+Rec+Xref")?.apply(&mut state);
    let report = CallFrameRepair::default().repair(&mut state);
    println!(
        "call-frame repair: merged {} non-contiguous parts, confirmed {} tail \
         calls, removed {} mislabeled FDEs",
        report.merged.len(),
        report.tail_calls.len(),
        report.bad_fdes_removed.len()
    );

    // 4. Score against ground truth.
    let eval = evaluate(&result.start_set(), &case);
    println!(
        "\nprecision {:.2}%  recall {:.2}%  (FP {}, FN {})",
        100.0 * eval.precision(),
        100.0 * eval.recall(),
        eval.false_positives,
        eval.false_negatives
    );

    // 5. Show a few detected starts with provenance.
    println!("\nfirst detected starts:");
    for (addr, prov) in result.starts.iter().take(8) {
        let name = case
            .truth
            .function_at(*addr)
            .map(|f| f.name.as_str())
            .unwrap_or("<unknown>");
        println!("  {addr:#x}  [{prov}]  {name}");
    }
    Ok(())
}
