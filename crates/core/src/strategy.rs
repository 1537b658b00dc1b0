//! The seed layers every strategy stack starts from (`FDE`, `Sym`,
//! `Entry`). [`crate::LayerSpec::apply`] dispatches to these bodies;
//! `Rec` is a direct [`DetectionState::run_recursion`] call.

use crate::state::{DetectionState, Provenance};

/// `FDE`: seed starts from every FDE `PC Begin` (§IV-B).
pub(crate) fn fde_seeds(state: &mut DetectionState<'_>) {
    if let Some(eh) = state.eh_frame() {
        for pc in eh.pc_begins() {
            if state.binary.is_code(pc) {
                state.add_start(pc, Provenance::Fde);
            }
        }
    }
}

/// `Sym`: seed starts from surviving symbols (the hybrid tools' first
/// step; a no-op on stripped binaries).
pub(crate) fn symbol_seeds(state: &mut DetectionState<'_>) {
    let addrs: Vec<u64> = state
        .binary
        .symbols
        .iter()
        .map(|s| s.addr)
        .filter(|a| state.binary.is_code(*a))
        .collect();
    for a in addrs {
        state.add_start(a, Provenance::Symbol);
    }
}

/// `Entry`: seed the program entry point (conventional tools always know
/// it from the ELF header).
pub(crate) fn entry_seed(state: &mut DetectionState<'_>) {
    let entry = state.binary.entry;
    if state.binary.is_code(entry) {
        state.add_start(entry, Provenance::Symbol);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use fetch_synth::{synthesize, SynthConfig};

    fn run(binary: &fetch_binary::Binary, spec: &str) -> crate::DetectionResult {
        Pipeline::parse(spec).unwrap().run(binary)
    }

    #[test]
    fn fde_plus_rec_stack_runs() {
        let case = synthesize(&SynthConfig::small(8));
        let result = run(&case.binary, "FDE+Rec");
        assert_eq!(result.layer_names(), ["FDE", "Rec"]);
        // FDE starts cover at least every compiled function entry.
        let fde_count = result
            .starts
            .values()
            .filter(|p| **p == Provenance::Fde)
            .count();
        assert!(fde_count > 10);
    }

    #[test]
    fn symbol_seeds_are_noop_when_stripped() {
        let case = synthesize(&SynthConfig::small(8));
        let stripped = case.binary.stripped();
        let r = run(&stripped, "Sym");
        assert!(r.is_empty());
    }

    #[test]
    fn recursion_covers_fde_only_misses() {
        // Assembly functions without FDEs that are directly called must
        // be found by Rec (the §IV-C finding).
        let mut cfg = SynthConfig::small(15);
        cfg.n_funcs = 80;
        cfg.rates.asm_funcs = 10;
        cfg.rates.asm_fde = 0.0; // no assembly function carries an FDE
        let case = synthesize(&cfg);
        let fde_only = run(&case.binary, "FDE");
        let with_rec = run(&case.binary, "FDE+Rec");
        let called_asm: Vec<u64> = case
            .truth
            .functions
            .iter()
            .filter(|f| {
                f.kind == fetch_binary::FuncKind::Assembly
                    && matches!(f.reach, fetch_binary::Reach::Called)
            })
            .map(|f| f.entry())
            .collect();
        assert!(!called_asm.is_empty());
        for a in &called_asm {
            assert!(!fde_only.starts.contains_key(a), "no FDE for asm fn {a:#x}");
            assert!(
                with_rec.starts.contains_key(a),
                "Rec finds called asm fn {a:#x}"
            );
        }
    }
}
