//! Generation parameters: feature rates and per-binary configuration.
//!
//! Rates are calibrated so the synthetic corpus exhibits the phenomena the
//! paper measures at comparable relative frequencies (`fetch_bench::paper`
//! holds the paper's numbers; the artifact index in `fetch_bench::repro`
//! says which artifact measures each).

use fetch_binary::{BuildInfo, Compiler, Lang, OptLevel};

/// Per-feature probabilities/counts driving the code generator.
#[derive(Debug, Clone)]
pub struct FeatureRates {
    /// P(function is split into hot + cold parts) — the paper's dominant
    /// FDE false-positive source (§V-A). Scaled by optimization level.
    pub split_cold: f64,
    /// P(function keeps a frame pointer). Frame-pointer functions switch
    /// the CFA base to `rbp`, which makes their CFI stack heights
    /// incomplete — the residual unfixable false positives of §V-C.
    pub rbp_frame: f64,
    /// P(function ends in a tail call instead of `ret`).
    pub tail_call: f64,
    /// Fraction of functions reachable *only* via tail calls.
    pub tail_only: f64,
    /// Fraction of functions referenced only through data pointers.
    pub pointer_only: f64,
    /// P(function contains a jump table).
    pub jump_table: f64,
    /// Fraction of functions that never return (abort-style).
    pub noreturn: f64,
    /// Number of hand-written assembly functions (0 for most projects;
    /// tens for infrastructure projects like OpenSSL/glibc, §IV-B).
    pub asm_funcs: usize,
    /// P(an assembly function carries hand-written CFI directives).
    pub asm_fde: f64,
    /// Number of Figure-6b style FDEs whose `PC Begin` mislabels the start.
    pub mislabeled_fdes: usize,
    /// P(a data blob — string/table — is embedded in `.text` after a
    /// function), feeding the unsafe heuristics' false positives.
    pub data_in_text: f64,
    /// P(function makes an `error`/`error_at_line`-style call).
    pub error_calls: f64,
    /// P(function is a thunk: a bare `jmp` to another function).
    pub thunks: f64,
    /// Number of thunk-like entries jumping into the *middle* of another
    /// function (identical-code-folding artifacts) — GHIDRA's thunk
    /// heuristic turns these into false positives.
    pub bad_thunks: usize,
    /// Inter-function alignment (16 for O2/O3/Ofast, smaller for Os).
    pub align: u64,
}

impl Default for FeatureRates {
    fn default() -> Self {
        FeatureRates {
            split_cold: 0.03,
            rbp_frame: 0.06,
            tail_call: 0.10,
            tail_only: 0.007,
            pointer_only: 0.02,
            jump_table: 0.06,
            noreturn: 0.02,
            asm_funcs: 0,
            asm_fde: 0.3,
            mislabeled_fdes: 0,
            data_in_text: 0.07,
            error_calls: 0.05,
            thunks: 0.03,
            bad_thunks: 0,
            align: 16,
        }
    }
}

impl FeatureRates {
    /// Applies the optimization level's characteristic shifts: more
    /// hot/cold splitting at O3/Ofast, almost none at Os (§V-A: Os
    /// binaries show an order of magnitude fewer FDE false positives).
    pub fn tuned_for(mut self, opt: OptLevel) -> FeatureRates {
        match opt {
            OptLevel::O2 => {}
            OptLevel::O3 => {
                self.split_cold *= 1.6;
                self.tail_call *= 1.2;
                self.jump_table *= 1.2;
            }
            OptLevel::Ofast => {
                self.split_cold *= 1.8;
                self.tail_call *= 1.25;
            }
            OptLevel::Os => {
                self.split_cold *= 0.07;
                self.jump_table *= 0.8;
                self.align = 4;
            }
        }
        self
    }
}

/// Everything needed to deterministically synthesize one binary.
#[derive(Debug, Clone)]
pub struct SynthConfig {
    /// RNG seed — equal seeds produce byte-identical binaries.
    pub seed: u64,
    /// Program name.
    pub name: String,
    /// Number of source-level functions (before splitting).
    pub n_funcs: usize,
    /// Feature rates (already tuned for the opt level).
    pub rates: FeatureRates,
    /// Build description recorded on the binary.
    pub info: BuildInfo,
    /// Whether to keep the symbol table (wild binaries are stripped).
    pub symbols: bool,
}

impl SynthConfig {
    /// A small default configuration useful in tests and examples.
    pub fn small(seed: u64) -> SynthConfig {
        SynthConfig {
            seed,
            name: format!("synthetic-{seed}"),
            n_funcs: 40,
            rates: FeatureRates::default(),
            info: BuildInfo {
                compiler: Compiler::Gcc,
                opt: OptLevel::O2,
                lang: Lang::C,
            },
            symbols: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn os_suppresses_splitting() {
        let base = FeatureRates::default();
        let os = base.clone().tuned_for(OptLevel::Os);
        let o3 = base.clone().tuned_for(OptLevel::O3);
        assert!(os.split_cold < base.split_cold / 5.0);
        assert!(o3.split_cold > base.split_cold);
        assert_eq!(os.align, 4);
    }
}
