//! Function-pointer detection (§IV-E): the soundness-driven layer that
//! closes the gap between FDE+Rec coverage and full coverage.
//!
//! A super-set of potential function pointers is collected (every sliding
//! 8-byte window in the data sections plus every constant operand and
//! rip-relative `lea` target in the disassembled code). Each candidate is
//! validated by conservative recursive disassembly with four error
//! classes; survivors become new function starts.

use crate::state::{DetectionState, Provenance};
use fetch_analyses::{validate_calling_convention_cached, CallConvVerdict};
use fetch_binary::Binary;
use fetch_disasm::FunctionBody;
use fetch_x64::{decode, Flow};
use std::collections::{BTreeMap, BTreeSet};

/// Why a candidate pointer was rejected (§IV-E's four error classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidationError {
    /// (i) Disassembly from the candidate hits an invalid opcode.
    InvalidOpcode,
    /// (ii) Disassembly runs into the middle of previously disassembled
    /// instructions (misaligned overlap).
    OverlapsExisting,
    /// (iii) A control transfer targets the middle of a previously
    /// detected function.
    JumpsIntoFunction,
    /// (iv) The calling convention is violated at the candidate.
    CallConv,
}

/// Collects the conservative data-pointer super-set: every consecutive
/// 8 bytes of every data section interpreted as a little-endian address,
/// kept when it lands in `.text`. Returns `target → source addresses`.
pub fn collect_data_pointers(bin: &Binary) -> BTreeMap<u64, Vec<u64>> {
    collect_data_pointers_counted(bin).0
}

/// [`collect_data_pointers`], also reporting how many data-section
/// bytes the sweep covered (the `bytes_scanned` trace counter — the
/// scan's work was invisible next to decode hit/miss accounting).
///
/// The scan is batched: when every `.text` address shares one top
/// byte (the usual case — small images nowhere near a 256 TiB
/// boundary), a little-endian window pointing into `.text` must have
/// exactly that byte last, so a word-at-a-time prefilter locates
/// top-byte occurrences eight lanes at a time and only those windows
/// are materialized and range-checked. Candidate set and source order
/// are identical to the naive sliding window (each flagged position
/// still passes the exact bounds check; the filter only skips
/// positions that cannot pass it).
pub fn collect_data_pointers_counted(bin: &Binary) -> (BTreeMap<u64, Vec<u64>>, u64) {
    let text = bin.text();
    let lo = text.addr;
    let hi = text.addr + text.bytes.len() as u64;
    let mut out: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut bytes_scanned = 0u64;
    for sec in bin.data_sections() {
        bytes_scanned += sec.bytes.len() as u64;
        if sec.bytes.len() < 8 {
            continue;
        }
        if lo >> 56 == (hi - 1) >> 56 {
            scan_windows_topbyte(&sec.bytes, sec.addr, lo, hi, &mut out);
        } else {
            for off in 0..=sec.bytes.len() - 8 {
                let v = u64::from_le_bytes(sec.bytes[off..off + 8].try_into().unwrap());
                if lo <= v && v < hi {
                    out.entry(v).or_default().push(sec.addr + off as u64);
                }
            }
        }
    }
    (out, bytes_scanned)
}

/// The word-at-a-time pass of [`collect_data_pointers_counted`]:
/// scans `bytes` for occurrences of `.text`'s shared top byte using
/// SWAR zero-byte detection over `chunk ^ splat(top)` and emits the
/// 8-byte window *ending* at each occurrence. The zero-byte trick
/// (`(x - 0x01…01) & !x & 0x80…80`) can flag a spurious lane when a
/// borrow propagates, never miss a real one — spurious lanes are
/// discarded by the exact range check every candidate passes anyway.
fn scan_windows_topbyte(
    bytes: &[u8],
    sec_addr: u64,
    lo: u64,
    hi: u64,
    out: &mut BTreeMap<u64, Vec<u64>>,
) {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    let top = (lo >> 56) as u8;
    let splat = u64::from_le_bytes([top; 8]);
    let mut consider = |top_at: usize| {
        let Some(off) = top_at.checked_sub(7) else {
            return;
        };
        let v = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        if lo <= v && v < hi {
            out.entry(v).or_default().push(sec_addr + off as u64);
        }
    };
    let mut chunks = bytes.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let x = u64::from_le_bytes(c.try_into().expect("8-byte chunk")) ^ splat;
        let mut lanes = x.wrapping_sub(ONES) & !x & HIGHS;
        while lanes != 0 {
            // Lowest set bit first: candidates stay in ascending
            // source order, matching the naive scan exactly.
            consider(base + (lanes.trailing_zeros() / 8) as usize);
            lanes &= lanes - 1;
        }
        base += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == top {
            consider(base + i);
        }
    }
}

/// An `instruction address → owning function start` index over a
/// round's function extents, for the class-(iii) interior check. The
/// linear `extents.values().find(|b| b.contains(t))` it replaces made
/// every direct-target instruction cost `O(functions × lookup)` — the
/// access pattern behind the superlinear `insts_per_sec` falloff on
/// large corpora.
///
/// Layout: a span directory over the (already-sorted) bodies rather
/// than a flattened copy of every member address — queries are rare
/// (only direct targets of *undecoded* candidate code reach it), so
/// flattening and sorting tens of thousands of addresses per scan
/// round was pure build-cost. Each entry is `(body min, body max,
/// start)` ordered by span start, plus a running maximum of span ends
/// so a lookup knows how far left an overlapping body could begin.
#[derive(Debug, Clone)]
pub struct OwnerIndex<'e> {
    /// `(span_min, span_max, start)` sorted ascending; the body's exact
    /// membership is re-checked against `extents` on a span hit.
    spans: Vec<(u64, u64, u64)>,
    /// `prefix_max[i]` = max span end over `spans[..=i]`.
    prefix_max: Vec<u64>,
    /// The extents snapshot the spans describe.
    extents: &'e BTreeMap<u64, FunctionBody>,
}

impl<'e> OwnerIndex<'e> {
    /// Builds the index. Where bodies overlap (an absorbed tail
    /// callee appears in its caller's extent too), the smallest
    /// owning start wins — the same answer ascending-order `.find`
    /// over the extents map produced.
    pub fn build(extents: &'e BTreeMap<u64, FunctionBody>) -> OwnerIndex<'e> {
        let mut spans: Vec<(u64, u64, u64)> = extents
            .values()
            .filter_map(|body| {
                let (&min, &max) = (body.insts.first()?, body.insts.last()?);
                Some((min, max, body.start))
            })
            .collect();
        spans.sort_unstable();
        let mut prefix_max = Vec::with_capacity(spans.len());
        let mut running = 0u64;
        for &(_, max, _) in &spans {
            running = running.max(max);
            prefix_max.push(running);
        }
        OwnerIndex {
            spans,
            prefix_max,
            extents,
        }
    }

    /// The start of the function owning the instruction at `addr`
    /// (smallest owning start when absorbed bodies overlap).
    pub fn owner_of(&self, addr: u64) -> Option<u64> {
        let mut owner: Option<u64> = None;
        let mut i = self.spans.partition_point(|&(min, _, _)| min <= addr);
        while i > 0 {
            i -= 1;
            if self.prefix_max[i] < addr {
                break; // nothing further left can reach this address
            }
            let (_, max, start) = self.spans[i];
            let in_body = max >= addr && self.extents.get(&start).is_some_and(|b| b.contains(addr));
            if in_body {
                owner = Some(owner.map_or(start, |o: u64| o.min(start)));
            }
        }
        owner
    }
}

/// Validates one candidate start against the four §IV-E error classes.
///
/// `extents` are the bodies of currently detected functions; `known`
/// is the current instruction map (for overlap checks). Callers
/// validating many candidates against one extents snapshot should
/// build an [`OwnerIndex`] once and use
/// [`validate_candidate_indexed`] instead.
pub fn validate_candidate(
    bin: &Binary,
    candidate: u64,
    known: &fetch_disasm::Disassembly,
    extents: &BTreeMap<u64, FunctionBody>,
    starts: &[u64],
    stop_calls: &[u64],
) -> Result<(), ValidationError> {
    validate_candidate_indexed(
        bin,
        candidate,
        known,
        &OwnerIndex::build(extents),
        starts,
        stop_calls,
    )
}

/// [`validate_candidate`] against a prebuilt [`OwnerIndex`] —
/// verdict-identical, without the per-candidate extents walk.
pub fn validate_candidate_indexed(
    bin: &Binary,
    candidate: u64,
    known: &fetch_disasm::Disassembly,
    owners: &OwnerIndex,
    starts: &[u64],
    stop_calls: &[u64],
) -> Result<(), ValidationError> {
    validate_candidate_precheck(bin, candidate, known, stop_calls)?;
    validate_candidate_explore(bin, candidate, known, owners, starts, stop_calls)
}

/// The owner-free first half of candidate validation — bounds, calling
/// convention (iv), and body plausibility. Split out so batch callers
/// can defer the extents/[`OwnerIndex`] build until some candidate
/// actually survives this far (most fail here).
pub fn validate_candidate_precheck(
    bin: &Binary,
    candidate: u64,
    known: &fetch_disasm::Disassembly,
    stop_calls: &[u64],
) -> Result<(), ValidationError> {
    let text = bin.text();
    if !text.contains(candidate) {
        return Err(ValidationError::InvalidOpcode);
    }

    // (iv) calling convention first: it also rejects padding starts.
    match validate_calling_convention_cached(bin, candidate, 96, stop_calls, known) {
        CallConvVerdict::Valid => {}
        CallConvVerdict::Undecodable { .. } => return Err(ValidationError::InvalidOpcode),
        _ => return Err(ValidationError::CallConv),
    }
    // Plausibility: sliding-window composites occasionally alias a lone
    // terminator byte in data; no real function consists of a bare
    // ret/ud2/hlt with no body, so such candidates are rejected.
    if let Ok(first) = decode(text.slice_from(candidate).expect("in range"), candidate) {
        if matches!(first.flow(), Flow::Ret | Flow::Halt) {
            return Err(ValidationError::CallConv);
        }
    }
    Ok(())
}

/// The second half of candidate validation: conservative exploration
/// for classes (i)–(iii). Assumes [`validate_candidate_precheck`]
/// passed.
pub fn validate_candidate_explore(
    bin: &Binary,
    candidate: u64,
    known: &fetch_disasm::Disassembly,
    owners: &OwnerIndex,
    starts: &[u64],
    stop_calls: &[u64],
) -> Result<(), ValidationError> {
    let text = bin.text();
    // Conservative exploration for classes (i)–(iii).
    let mut work = vec![candidate];
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut budget = 256u32;
    while let Some(mut cur) = work.pop() {
        loop {
            if budget == 0 || !text.contains(cur) || !seen.insert(cur) {
                break;
            }
            budget -= 1;
            // (ii) misaligned overlap with previously disassembled code.
            if let Some(prev) = known.at_or_covering(cur) {
                if prev.addr < cur && cur < prev.end() {
                    return Err(ValidationError::OverlapsExisting);
                }
            }
            if known.contains(cur) {
                break; // aligned junction with known code: consistent
            }
            let inst = match decode(text.slice_from(cur).expect("in range"), cur) {
                Ok(i) => i,
                Err(_) => return Err(ValidationError::InvalidOpcode), // (i)
            };
            // (iii) control transfer into the middle of a detected function.
            if let Some(t) = inst.direct_target() {
                if starts.binary_search(&t).is_err() {
                    if let Some(owner) = owners.owner_of(t) {
                        if owner != t {
                            return Err(ValidationError::JumpsIntoFunction);
                        }
                    }
                }
            }
            match inst.flow() {
                Flow::Fallthrough | Flow::IndirectCall => cur = inst.end(),
                Flow::Call(t) if stop_calls.binary_search(&t).is_ok() => break,
                Flow::Call(_) => cur = inst.end(),
                Flow::Jump(t) => {
                    if starts.binary_search(&t).is_err() {
                        work.push(t);
                    }
                    break;
                }
                Flow::CondJump(t) => {
                    if starts.binary_search(&t).is_err() {
                        work.push(t);
                    }
                    cur = inst.end();
                }
                Flow::IndirectJump | Flow::Ret | Flow::Halt | Flow::Trap => break,
            }
        }
    }
    Ok(())
}

/// `Xref`: the §IV-E pointer-scan strategy layer. Runs the scan,
/// returning accepted candidates.
pub(crate) fn pointer_scan(state: &mut DetectionState<'_>) -> Vec<u64> {
    if state.rec.disasm.is_empty() {
        state.run_recursion(true, fetch_disasm::ErrorCallPolicy::SliceZero);
    }
    let mut accepted = Vec::new();
    // The binary (and so `.text`) is immutable for the whole scan;
    // hoist it out of the per-candidate loop.
    let binary = state.binary;
    let text = binary.text();
    loop {
        // (Re)collect candidates: data pointers + code constants,
        // both memoized on the state (the data half never changes;
        // the code half is invalidated by each recursion).
        let mut candidates: Vec<u64> = state.data_pointers().keys().copied().collect();
        candidates.extend(state.code_constants().iter().copied());
        candidates.sort_unstable();
        candidates.dedup();
        // Flattened start set: the precheck and exploration loops
        // probe it per candidate/branch, where a slice search beats
        // a B-tree walk.
        let starts: Vec<u64> = state.start_set().iter().copied().collect();
        let mut stop_calls: Vec<u64> = state.rec.noreturn.iter().copied().collect();
        stop_calls.extend(state.error_funcs.iter().copied());
        stop_calls.sort_unstable();
        stop_calls.dedup();
        // Pass 1 — owner-free prechecks (callconv + plausibility),
        // where most candidates die. The extents/owner index is
        // only built below when something survives, which skips the
        // rebuild entirely on rounds that accept nothing new.
        let mut survivors = Vec::new();
        let mut checked = 0u64;
        for c in candidates {
            if starts.binary_search(&c).is_ok() || !text.contains(c) {
                continue;
            }
            checked += 1;
            if validate_candidate_precheck(binary, c, &state.rec.disasm, &stop_calls).is_ok() {
                survivors.push(c);
            }
        }
        state.note_candidates_checked(checked);
        // Pass 2 — conservative exploration against the per-round
        // ownership snapshot, built once for all survivors.
        let mut new_this_round = Vec::new();
        if !survivors.is_empty() {
            let extents = state.extents();
            let owners = OwnerIndex::build(&extents);
            for c in survivors {
                if validate_candidate_explore(
                    binary,
                    c,
                    &state.rec.disasm,
                    &owners,
                    &starts,
                    &stop_calls,
                )
                .is_ok()
                {
                    new_this_round.push(c);
                }
            }
        }
        if new_this_round.is_empty() {
            break;
        }
        for &c in &new_this_round {
            state.add_start(c, Provenance::PointerScan);
        }
        accepted.extend(new_this_round);
        // Update the collection with code discovered from the newly
        // accepted pointers (the paper's "update the pointer
        // collection" step).
        state.run_recursion(true, fetch_disasm::ErrorCallPolicy::SliceZero);
    }
    accepted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use fetch_binary::{FuncKind, Reach};
    use fetch_synth::{synthesize, SynthConfig};

    fn pointered_case() -> fetch_binary::TestCase {
        let mut cfg = SynthConfig::small(41);
        cfg.n_funcs = 100;
        cfg.rates.pointer_only = 0.06;
        cfg.rates.asm_funcs = 7;
        synthesize(&cfg)
    }

    #[test]
    fn candidate_collection_covers_pointer_only_functions() {
        // The §IV-E super-set (data windows + code constants/lea targets)
        // must contain every pointer-only function's entry.
        let case = pointered_case();
        let mut state = DetectionState::new(&case.binary);
        Pipeline::parse("FDE+Rec").unwrap().apply(&mut state);
        let mut candidates: std::collections::BTreeSet<u64> = collect_data_pointers(&case.binary)
            .keys()
            .copied()
            .collect();
        for inst in state.rec.disasm.iter() {
            if let Some(t) = inst.lea_rip_target() {
                candidates.insert(t);
            }
            for c in inst.const_operands() {
                candidates.insert(c);
            }
        }
        let pointer_only: Vec<u64> = case
            .truth
            .functions
            .iter()
            .filter(|f| matches!(f.reach, Reach::PointerOnly))
            .map(|f| f.entry())
            .collect();
        assert!(!pointer_only.is_empty());
        for p in &pointer_only {
            assert!(candidates.contains(p), "candidate for {p:#x} missing");
        }
    }

    #[test]
    fn scan_recovers_pointer_only_functions_without_false_positives() {
        let case = pointered_case();
        let mut state = DetectionState::new(&case.binary);
        Pipeline::parse("FDE+Rec").unwrap().apply(&mut state);
        let accepted = pointer_scan(&mut state);
        // Every accepted pointer is a true function start (the paper:
        // "+154 starts without introducing new false positives").
        for a in &accepted {
            assert!(
                case.truth.is_start(*a),
                "pointer scan accepted non-start {a:#x}"
            );
        }
        // Pointer-only compiled/assembly functions without FDEs are now
        // covered.
        for f in &case.truth.functions {
            if matches!(f.reach, Reach::PointerOnly) && f.kind == FuncKind::Assembly {
                assert!(
                    state.starts.contains_key(&f.entry()),
                    "{} at {:#x} missed",
                    f.name,
                    f.entry()
                );
            }
        }
    }

    #[test]
    fn full_stack_runs_clean() {
        let case = pointered_case();
        let r = Pipeline::parse("FDE+Rec+Xref").unwrap().run(&case.binary);
        assert_eq!(r.layers, vec!["FDE", "Rec", "Xref"]);
    }
}
