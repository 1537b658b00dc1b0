//! # fetch-tools
//!
//! Strategy-stack models of the eight tools the paper compares against
//! (§VI, Table III), plus FETCH itself behind the same interface.
//!
//! Each model is a declarative [`Pipeline`] ([`Pipeline::for_tool`]) —
//! the *documented* strategy layers of its tool, the same decomposition
//! the paper and its SoK companion use — run by `fetch-core`'s one
//! instrumented executor over the shared substrate (decoder, recursive
//! engine, heuristics). The goal is the paper's *shape*: who wins on
//! false positives/negatives and by roughly what order of magnitude, not
//! bug-for-bug tool emulation (`repro table3` prints the comparison; see
//! the artifact index in `fetch_bench::repro`).
//!
//! | Tool | Stack ([`Pipeline::id`]) |
//! |---|---|
//! | DYNINST | `Entry+Rec+Fsig.radare+Fsig.angr` |
//! | BAP | `Entry+ByteWeight` |
//! | RADARE2 | `Entry+Rec+Fsig.radare` |
//! | NUCLEUS | `Entry+Nucleus` |
//! | IDA PRO | `Entry+Rec+Flirt` |
//! | BINARY NINJA | `Entry+Rec+Tcall.ghidra+Fsig.angr+Align` |
//! | GHIDRA | `FDE+Rec+CFR+Thunk+Fsig.ghidra` |
//! | ANGR | `FDE+Rec+Fmerg+Fsig.angr+Scan+Align` |
//! | FETCH | `FDE+Rec+Xref+TcallFix` |
//!
//! A golden snapshot (`tests/pipeline_differential.rs`) pins every row
//! byte-identical to the outputs of the pre-pipeline hand-assembled
//! stacks.
//!
//! # Examples
//!
//! ```
//! use fetch_disasm::RecEngine;
//! use fetch_tools::{run_tool, Tool};
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(4));
//! // One engine shared across tools: the second model reuses the
//! // decodes. Its results equal fresh engines' by property test, not by
//! // construction (see `run_tool`).
//! let mut engine = RecEngine::new();
//! let fetch = run_tool(Tool::Fetch, &case.binary, &mut engine).expect("fetch runs");
//! let radare = run_tool(Tool::Radare2, &case.binary, &mut engine).expect("radare runs");
//! assert!(fetch.len() >= radare.len());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fetch_binary::Binary;
use fetch_core::{DetectionResult, Pipeline};
use fetch_disasm::RecEngine;

pub use fetch_core::Tool;

/// Runs `tool` on `binary` through a caller-owned [`RecEngine`], so the
/// decode cache built by one tool model is reused by the next — every
/// model re-disassembles the same `.text`, and decoding dominates the
/// cost; pass `&mut RecEngine::new()` for a one-off run. The engine
/// extends its last walk when the new seeds are a superset of the old,
/// so the result can follow the engine's history (see [`RecEngine`]).
/// That it equals a fresh engine's is property-tested
/// (`proptest_incremental::shared_engine_equals_fresh_engines` in
/// `fetch-core`, and `shared_engine_matches_fresh_engines` here), not
/// guaranteed by construction.
///
/// Returns `None` when the tool fails to open the binary (ANGR could
/// not open 9 of the 1,352 corpus binaries — §IV-C; modeled
/// deterministically from the binary name).
pub fn run_tool(tool: Tool, binary: &Binary, engine: &mut RecEngine) -> Option<DetectionResult> {
    if tool == Tool::Angr && angr_rejects(binary) {
        return None;
    }
    Some(Pipeline::for_tool(tool).run_with_engine(binary, engine))
}

/// Deterministic model of ANGR's 9 loader failures (≈0.7% of binaries).
pub fn angr_rejects(binary: &Binary) -> bool {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in binary.name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h % 150 == 7
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_synth::{synthesize, SynthConfig};
    use std::collections::BTreeSet;

    fn eval(tool: Tool, case: &fetch_binary::TestCase) -> Option<(usize, usize)> {
        let r = run_tool(tool, &case.binary, &mut RecEngine::new())?;
        let truth = case.truth.starts();
        let found = r.start_set();
        let fp = found.difference(&truth).count();
        let fn_ = truth.difference(&found).count();
        Some((fp, fn_))
    }

    fn corpus() -> Vec<fetch_binary::TestCase> {
        (0..6u64)
            .map(|seed| {
                let mut cfg = SynthConfig::small(seed * 131 + 7);
                cfg.n_funcs = 120;
                cfg.rates.split_cold = 0.05;
                // Real binaries carry plenty of data in text (string
                // literals, literal pools, jump tables) — the raw
                // material of the pattern-matchers' false positives.
                cfg.rates.data_in_text = 0.25;
                cfg.rates.asm_funcs = if seed == 0 { 12 } else { 0 };
                cfg.rates.bad_thunks = 2;
                synthesize(&cfg)
            })
            .collect()
    }

    #[test]
    fn shared_engine_matches_fresh_engines() {
        // One engine carried across all nine tool models on one binary
        // must change no result — the cross-tool decode-cache guarantee.
        let case = &corpus()[2];
        let mut engine = RecEngine::new();
        for tool in Tool::ALL {
            let shared = run_tool(tool, &case.binary, &mut engine);
            let fresh = run_tool(tool, &case.binary, &mut RecEngine::new());
            assert_eq!(shared, fresh, "{tool} diverges with a shared engine");
        }
    }

    #[test]
    fn every_tool_runs() {
        let case = &corpus()[1];
        for tool in Tool::ALL {
            if tool == Tool::Angr && angr_rejects(&case.binary) {
                continue;
            }
            let r = run_tool(tool, &case.binary, &mut RecEngine::new()).expect("tool runs");
            assert!(!r.is_empty(), "{tool} found nothing");
        }
    }

    #[test]
    fn fetch_has_best_false_positive_count() {
        let cases = corpus();
        let mut totals: std::collections::BTreeMap<Tool, (usize, usize)> = Default::default();
        for case in &cases {
            for tool in Tool::ALL {
                if let Some((fp, fn_)) = eval(tool, case) {
                    let e = totals.entry(tool).or_default();
                    e.0 += fp;
                    e.1 += fn_;
                }
            }
        }
        let (fetch_fp, fetch_fn) = totals[&Tool::Fetch];
        for (tool, (fp, _)) in &totals {
            if !matches!(tool, Tool::Fetch) {
                assert!(
                    fetch_fp <= *fp,
                    "FETCH fp {fetch_fp} must not exceed {tool} fp {fp}"
                );
            }
        }
        // And FETCH's miss count is minimal or tied.
        for (tool, (_, fn_)) in &totals {
            if !matches!(tool, Tool::Fetch | Tool::Angr) {
                assert!(
                    fetch_fn <= *fn_ + 2,
                    "FETCH fn {fetch_fn} ~ best vs {tool} fn {fn_}"
                );
            }
        }
    }

    #[test]
    fn fde_tools_beat_non_fde_tools_on_misses() {
        let cases = corpus();
        let mut fde_fn = 0usize;
        let mut nofde_fn = 0usize;
        for case in &cases {
            for tool in [Tool::Ghidra, Tool::Fetch] {
                if let Some((_, fn_)) = eval(tool, case) {
                    fde_fn += fn_;
                }
            }
            for tool in [Tool::Dyninst, Tool::Radare2] {
                if let Some((_, fn_)) = eval(tool, case) {
                    nofde_fn += fn_;
                }
            }
        }
        assert!(
            fde_fn * 4 < nofde_fn,
            "call-frame tools miss far less ({fde_fn} vs {nofde_fn})"
        );
    }

    #[test]
    fn bap_is_noisiest() {
        let cases = corpus();
        let mut fp: std::collections::BTreeMap<Tool, usize> = Default::default();
        for case in &cases {
            for tool in [Tool::Bap, Tool::Radare2, Tool::IdaPro] {
                if let Some((f, _)) = eval(tool, case) {
                    *fp.entry(tool).or_default() += f;
                }
            }
        }
        assert!(fp[&Tool::Bap] > fp[&Tool::Radare2]);
        assert!(fp[&Tool::Bap] > fp[&Tool::IdaPro]);
    }

    #[test]
    fn angr_misses_almost_nothing() {
        let cases = corpus();
        let mut angr_fn = 0usize;
        let mut total = 0usize;
        for case in &cases {
            if let Some((_, fn_)) = eval(Tool::Angr, case) {
                angr_fn += fn_;
                total += case.truth.len();
            }
        }
        assert!(total > 0);
        assert!(
            angr_fn * 100 <= total,
            "angr finds ~everything: {angr_fn} misses of {total}"
        );
    }

    #[test]
    fn angr_loader_failures_are_rare_and_deterministic() {
        let mut rejected = BTreeSet::new();
        for i in 0..1500u32 {
            let mut case = synthesize(&SynthConfig::small(1));
            case.binary.name = format!("bin-{i}");
            if angr_rejects(&case.binary) {
                rejected.insert(i);
            }
        }
        assert!(!rejected.is_empty() && rejected.len() < 25);
    }
}
