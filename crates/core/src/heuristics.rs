//! The *unsafe* detection heuristics shipped by existing tools (§II-B,
//! §IV-C/D). Each is modeled as a strategy layer body that
//! [`crate::LayerSpec::apply`] dispatches to, so Figure 5's stacks can be
//! reproduced verbatim. None of these offer correctness guarantees —
//! reproducing their characteristic false positives (and occasional true
//! positives) is the point.

use crate::state::{DetectionState, Provenance};
use fetch_analyses::{model_stack_heights, HeightStyle};
use fetch_disasm::{body_of, ErrorCallPolicy, XrefKind};
use fetch_x64::{decode, Op};
use std::collections::BTreeSet;

/// Computes the unexplored gaps of `.text`: maximal ranges covered by no
/// decoded instruction.
pub fn code_gaps(state: &DetectionState<'_>) -> Vec<(u64, u64)> {
    let text = state.binary.text();
    let mut gaps = Vec::new();
    let mut cursor = text.addr;
    for inst in state.rec.disasm.iter() {
        if inst.addr > cursor {
            gaps.push((cursor, inst.addr));
        }
        cursor = cursor.max(inst.end());
    }
    if cursor < text.end() {
        gaps.push((cursor, text.end()));
    }
    gaps
}

/// Which tool's flavour of a heuristic to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ToolStyle {
    /// GHIDRA's variant (most conservative matching).
    Ghidra,
    /// ANGR's variant (most aggressive matching).
    Angr,
    /// RADARE2's variant: decode-validated matches without semantic
    /// checks — low but nonzero false positives.
    Radare,
}

/// `Fsig`: prologue-signature matching over non-disassembled gaps,
/// followed by recursion from each match.
///
/// The GHIDRA variant requires the full `push rbp; mov rbp, rsp` sequence
/// *and* a clean decode of the following bytes (finding nothing new on
/// FDE-covered corpora — §IV-D). The ANGR variant additionally accepts
/// `endbr64` and a bare `push rbp`, which fires on data-in-text
/// (thousands of false positives in the paper).
pub(crate) fn prologue_match(state: &mut DetectionState<'_>, style: ToolStyle) {
    let text = state.binary.text();
    let mut found = Vec::new();
    for (lo, hi) in code_gaps(state) {
        let bytes = text.slice_from(lo).expect("gap in text");
        let len = (hi - lo) as usize;
        let mut off = 0usize;
        while off < len {
            let b = &bytes[off..len];
            let addr = lo + off as u64;
            let hit = if b.starts_with(&[0x55, 0x48, 0x89, 0xe5]) {
                match style {
                    ToolStyle::Ghidra => {
                        // Conservative: the decoded window must reach
                        // a real control-flow terminator, and the
                        // match must satisfy the calling convention —
                        // GHIDRA's matcher reported no false
                        // positives in the paper (§IV-D).
                        let sweep = fetch_disasm::sweep(&b[..b.len().min(48)], addr);
                        let terminated = sweep
                            .insts
                            .iter()
                            .any(|i| i.is_terminator() && !i.is_padding());
                        terminated
                            && fetch_analyses::validate_calling_convention(state.binary, addr, 48)
                                .is_valid()
                    }
                    // Decode check only: a prologue-looking byte run
                    // in data occasionally slips through.
                    ToolStyle::Radare => fetch_disasm::sweep(&b[..b.len().min(24)], addr).clean(),
                    ToolStyle::Angr => true,
                }
            } else {
                style == ToolStyle::Angr
                    && (b.starts_with(&[0xf3, 0x0f, 0x1e, 0xfa]) || b.starts_with(&[0x55]))
                    && decode(b, addr).is_ok()
                    && b.len() > 4
                    && decode(&b[1..], addr + 1).is_ok()
            };
            if hit {
                found.push(addr);
                off += 4;
            } else {
                off += 1;
            }
        }
    }
    let mut added = false;
    for a in found {
        added |= state.add_start(a, Provenance::Prologue);
    }
    if added {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
}

/// `Tcall`: heuristic tail-call detection (disabled by default in both
/// tools; §IV-D shows why).
///
/// Both variants treat the target of a jump leaving the *contiguous*
/// range of its function as a new function start. The GHIDRA variant
/// applies this to every jump (≈100k false positives in the paper); the
/// ANGR variant only to jumps at stack height zero per its own static
/// height analysis — fewer, but still thousands.
pub(crate) fn tail_call_heuristic(state: &mut DetectionState<'_>, style: ToolStyle) {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
    let starts: Vec<u64> = state.start_set().iter().copied().collect();
    let mut new_starts = Vec::new();
    for (ix, &f) in starts.iter().enumerate() {
        // Contiguous range: up to the next detected start.
        let range_end = starts.get(ix + 1).copied().unwrap_or(u64::MAX);
        let body = body_of(
            f,
            &state.rec.disasm,
            &state.rec.functions,
            &state.rec.noreturn,
        );
        let heights = if style == ToolStyle::Angr {
            Some(model_stack_heights(
                &body,
                &state.rec.disasm,
                HeightStyle::AngrLike,
            ))
        } else {
            None
        };
        for j in &body.jumps {
            let Some(t) = j.direct_target() else { continue };
            if t >= f && t < range_end {
                continue; // stays within the contiguous range
            }
            if let Some(h) = &heights {
                // ANGR: only height-zero jumps are tail-call candidates.
                if h.get(&j.addr).copied().flatten() != Some(0) {
                    continue;
                }
            }
            new_starts.push(t);
        }
    }
    for t in new_starts {
        if state.binary.is_code(t) {
            state.add_start(t, Provenance::TailHeuristic);
        }
    }
}

/// `Scan`: ANGR's linear gap scan — the start of every cleanly decoding
/// gap (after leading padding) becomes a function start. Finds genuinely
/// unreachable assembly functions, and floods the result with data-borne
/// false positives (§IV-D: it eliminated *every* fully accurate binary).
pub(crate) fn linear_scan_starts(state: &mut DetectionState<'_>) {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
    let text = state.binary.text();
    let mut found = Vec::new();
    for (lo, hi) in code_gaps(state) {
        // Skip leading padding.
        let mut addr = lo;
        while addr < hi {
            match decode(text.slice_from(addr).expect("gap"), addr) {
                Ok(i) if i.is_padding() => addr = i.end(),
                _ => break,
            }
        }
        if addr >= hi {
            continue;
        }
        // The remainder must begin with a valid instruction.
        if decode(text.slice_from(addr).expect("gap"), addr).is_ok() {
            found.push(addr);
        }
    }
    let mut added = false;
    for a in found {
        added |= state.add_start(a, Provenance::LinearScan);
    }
    if added {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
}

/// `CFR`: GHIDRA's control-flow repairing — removes a detected start that
/// follows a (believed) non-returning region when no other control flow
/// reaches it. GHIDRA's non-return analysis is aggressive (it treats all
/// `error`-style calls as non-returning), so true starts get removed and
/// coverage *drops* (§IV-C).
pub(crate) fn control_flow_repair(state: &mut DetectionState<'_>) {
    // GHIDRA's view of the world: error calls never return.
    state.run_recursion(true, ErrorCallPolicy::AlwaysNoReturn);
    let xrefs = state.xrefs();
    let entry = state.binary.entry;
    let starts: Vec<u64> = state.start_set().iter().copied().collect();
    let mut to_remove = Vec::new();
    for &s in &starts {
        if s == entry || xrefs.contains_key(s) {
            continue;
        }
        // Find the last decoded instruction before `s`, skipping
        // padding: does the preceding region end without returning?
        let mut prev = None;
        for inst in state.rec.disasm.iter_rev_before(s).take(8) {
            if inst.is_padding() {
                continue;
            }
            prev = Some(*inst);
            break;
        }
        let Some(prev) = prev else { continue };
        let noreturn_end = match prev.op {
            Op::Ud2 | Op::Hlt => true,
            Op::Call(t) => state.rec.noreturn.contains(&t) || state.error_funcs.contains(&t),
            _ => false,
        };
        if noreturn_end {
            to_remove.push(s);
        }
    }
    for s in to_remove {
        state.remove_start(s);
    }
    // Restore the safe disassembly for subsequent layers.
    state.run_recursion(true, ErrorCallPolicy::SliceZero);
}

/// `Fmerg`: ANGR's function merging — two adjacent detected functions
/// connected by a jump that is the only outgoing transfer of the first
/// and the only incoming transfer of the second are merged. Wrongly
/// merges adjacent tail-call pairs, reducing coverage (§IV-C).
pub(crate) fn function_merge(state: &mut DetectionState<'_>) {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
    let xrefs = state.xrefs();
    let extents = state.extents();
    let starts: Vec<u64> = state.start_set().iter().copied().collect();
    let mut to_remove = Vec::new();
    for w in starts.windows(2) {
        let (f1, f2) = (w[0], w[1]);
        let Some(b1) = extents.get(&f1) else { continue };
        // All references to f2 are jumps from f1.
        let refs_ok = xrefs.get(f2).is_some_and(|refs| {
            !refs.is_empty()
                && refs.iter().all(|x| {
                    matches!(x.kind, XrefKind::Jump | XrefKind::CondJump) && b1.contains(x.from)
                })
        });
        if !refs_ok {
            continue;
        }
        // The jump to f2 is f1's only outgoing inter-function transfer.
        let out_edges: BTreeSet<u64> = b1
            .jumps
            .iter()
            .filter_map(|j| j.direct_target())
            .filter(|t| !b1.contains(*t))
            .collect();
        if out_edges.len() == 1 && out_edges.contains(&f2) {
            to_remove.push(f2);
        }
    }
    for s in to_remove {
        state.remove_start(s);
    }
}

/// GHIDRA's thunk heuristic: a detected function whose first instruction
/// is a direct `jmp` is a thunk, and the jump target becomes a new
/// function start. Identical-code-folding entry jumps make the target a
/// mid-function address — a false positive (§IV-C: 400+ in the paper).
pub(crate) fn thunk_heuristic(state: &mut DetectionState<'_>) {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
    let mut targets = Vec::new();
    for &f in state.starts.keys() {
        if let Some(inst) = state.rec.disasm.at(f) {
            if let Op::Jmp { target, .. } = inst.op {
                targets.push(target);
            }
        }
    }
    for t in targets {
        if state.binary.is_code(t) {
            state.add_start(t, Provenance::Thunk);
        }
    }
}

/// ANGR's alignment handling: the first non-padding instruction after an
/// alignment run becomes a new function start (3,973 false positives in
/// the paper, §IV-C).
pub(crate) fn alignment_split(state: &mut DetectionState<'_>) {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
    let text = state.binary.text();
    let mut found = Vec::new();
    for (lo, hi) in code_gaps(state) {
        let mut addr = lo;
        let mut saw_padding = false;
        while addr < hi {
            match decode(text.slice_from(addr).expect("gap"), addr) {
                Ok(i) if i.is_padding() => {
                    saw_padding = true;
                    addr = i.end();
                }
                _ => break,
            }
        }
        if saw_padding && addr < hi {
            found.push(addr);
        }
    }
    for a in found {
        state.add_start(a, Provenance::Alignment);
    }
}

/// BAP's ByteWeight-style matching: fires on raw byte patterns without
/// validation — the worst false-positive count in Table III — then runs
/// recursion treating every error call as returning.
pub(crate) fn byte_weight(state: &mut DetectionState<'_>) {
    let text = state.binary.text();
    let bytes = &text.bytes;
    let mut found = Vec::new();
    for off in 0..bytes.len().saturating_sub(4) {
        let w = &bytes[off..];
        // "Learned" patterns: frame setups, endbr64, saves.
        let hit = w.starts_with(&[0x55, 0x48, 0x89, 0xe5])
            || w.starts_with(&[0xf3, 0x0f, 0x1e, 0xfa])
            || w.starts_with(&[0x41, 0x57])
            || w.starts_with(&[0x41, 0x56])
            || w.starts_with(&[0x53, 0x48])
            || w.starts_with(&[0x55, 0x53]);
        if hit {
            found.push(text.addr + off as u64);
        }
    }
    for a in found {
        state.add_start(a, Provenance::Prologue);
    }
    state.run_recursion(true, ErrorCallPolicy::AlwaysReturn);
}

/// NUCLEUS's compiler-agnostic analysis: linear sweep, then function
/// starts are direct call targets plus the first instruction of every
/// inter-procedural group (approximated as post-padding group heads).
pub(crate) fn nucleus_scan(state: &mut DetectionState<'_>) {
    let text = state.binary.text();
    let insts = fetch_disasm::sweep_tolerant(&text.bytes, text.addr);
    let mut after_gap = true;
    for inst in &insts {
        if inst.is_padding() {
            after_gap = true;
            continue;
        }
        if after_gap {
            state.add_start(inst.addr, Provenance::LinearScan);
            after_gap = false;
        }
        if let fetch_x64::Flow::Call(t) = inst.flow() {
            if state.binary.is_code(t) {
                state.add_start(t, Provenance::CallTarget);
            }
        }
    }
}

/// IDA PRO's curated, *validated* prologue database: matches must decode
/// cleanly and satisfy the calling convention before recursion runs from
/// them.
pub(crate) fn flirt_signatures(state: &mut DetectionState<'_>) {
    let text = state.binary.text();
    let mut found = Vec::new();
    for (lo, hi) in code_gaps(state) {
        let len = (hi - lo) as usize;
        let bytes = text.slice_from(lo).expect("gap");
        for off in 0..len.saturating_sub(4) {
            let w = &bytes[off..len];
            let addr = lo + off as u64;
            let hit = w.starts_with(&[0x55, 0x48, 0x89, 0xe5])
                || w.starts_with(&[0xf3, 0x0f, 0x1e, 0xfa]);
            if hit && fetch_analyses::validate_calling_convention(state.binary, addr, 48).is_valid()
            {
                found.push(addr);
            }
        }
    }
    let mut added = false;
    for a in found {
        added |= state.add_start(a, Provenance::Prologue);
    }
    if added {
        state.run_recursion(true, ErrorCallPolicy::SliceZero);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DetectionResult, Pipeline};
    use fetch_synth::{synthesize, SynthConfig};

    fn run(binary: &fetch_binary::Binary, spec: &str) -> DetectionResult {
        Pipeline::parse(spec).unwrap().run(binary)
    }

    fn case_with_features(seed: u64) -> fetch_binary::TestCase {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = 120;
        cfg.rates.data_in_text = 0.15;
        cfg.rates.bad_thunks = 2;
        // Large enough for the full assembly class mix (tail-only,
        // pointer-only, unreachable) to be generated.
        cfg.rates.asm_funcs = 14;
        synthesize(&cfg)
    }

    #[test]
    fn scan_adds_gap_starts_with_false_positives() {
        let case = case_with_features(61);
        let base = run(&case.binary, "FDE+Rec");
        let scanned = run(&case.binary, "FDE+Rec+Scan");
        assert!(scanned.len() > base.len(), "scan adds starts");
        let truth = case.truth.starts();
        let fp_scan = scanned
            .starts
            .iter()
            .filter(|(a, p)| **p == Provenance::LinearScan && !truth.contains(a))
            .count();
        assert!(fp_scan > 0, "linear scan introduces false positives");
    }

    #[test]
    fn thunk_heuristic_fires_on_icf_entries() {
        let case = case_with_features(62);
        let r = run(&case.binary, "FDE+Rec+Thunk");
        let truth = case.truth.starts();
        let thunk_fps = r
            .starts
            .iter()
            .filter(|(a, p)| **p == Provenance::Thunk && !truth.contains(a))
            .count();
        assert!(thunk_fps > 0, "ICF thunk targets become false positives");
    }

    #[test]
    fn ghidra_tailcall_heuristic_is_noisier_than_angr() {
        let mut fp_g = 0usize;
        let mut fp_a = 0usize;
        for seed in [63, 64, 65] {
            let case = case_with_features(seed);
            let truth = case.truth.starts();
            let g = run(&case.binary, "FDE+Rec+Tcall.ghidra");
            let a = run(&case.binary, "FDE+Rec+Tcall.angr");
            fp_g += g
                .starts
                .iter()
                .filter(|(x, p)| **p == Provenance::TailHeuristic && !truth.contains(x))
                .count();
            fp_a += a
                .starts
                .iter()
                .filter(|(x, p)| **p == Provenance::TailHeuristic && !truth.contains(x))
                .count();
        }
        // ANGR's height-zero filter can only remove candidates, so its
        // false positives are a subset of GHIDRA's; both fire on the
        // synthetic corpus. (The paper's 20× gap comes from constructs —
        // giant crossing jcc webs — that the simulator models only
        // partially; the ordering is the reproduced shape.)
        assert!(
            fp_g >= fp_a,
            "ghidra Tcall ({fp_g}) at least as noisy as angr ({fp_a})"
        );
        assert!(
            fp_g > 0 && fp_a > 0,
            "both heuristics produce false positives"
        );
    }

    #[test]
    fn cfr_reduces_coverage() {
        let mut without = 0usize;
        let mut with_cfr = 0usize;
        for seed in [66, 67, 68, 69] {
            let mut cfg = SynthConfig::small(seed);
            cfg.n_funcs = 150;
            cfg.rates.pointer_only = 0.05;
            cfg.rates.error_calls = 0.15;
            cfg.rates.noreturn = 0.06;
            let case = synthesize(&cfg);
            let truth = case.truth.starts();
            let base = run(&case.binary, "FDE+Rec");
            let cfr = run(&case.binary, "FDE+Rec+CFR");
            without += base.start_set().intersection(&truth).count();
            with_cfr += cfr.start_set().intersection(&truth).count();
        }
        assert!(
            with_cfr < without,
            "CFR removes true starts ({with_cfr} < {without})"
        );
    }

    #[test]
    fn prologue_match_angr_fires_on_data() {
        let case = case_with_features(70);
        let truth = case.truth.starts();
        let a = run(&case.binary, "FDE+Rec+Fsig.angr");
        let fp = a
            .starts
            .iter()
            .filter(|(x, p)| **p == Provenance::Prologue && !truth.contains(x))
            .count();
        assert!(fp > 0, "angr-style prologue matching hits data-in-text");
    }

    #[test]
    fn alignment_split_adds_starts_after_padding() {
        let case = case_with_features(71);
        let r = run(&case.binary, "FDE+Rec+Align");
        let n = r
            .starts
            .values()
            .filter(|p| **p == Provenance::Alignment)
            .count();
        assert!(n > 0, "alignment heuristic fires");
    }
}
