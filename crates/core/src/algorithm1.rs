//! Algorithm 1 (§V-B): tail-call detection and call-frame merging — the
//! first approach that repairs the false function starts FDEs introduce.
//!
//! For every direct/conditional jump `j` in every function `f` whose CFI
//! gives *complete* stack-height information:
//!
//! 1. if the stack height at `j` is zero, the target satisfies the calling
//!    convention, and the target is referenced from outside `f`, then `j`
//!    is a tail call and its target a (confirmed) function start;
//! 2. otherwise, if the target has an FDE record and its only references
//!    are jumps from `f`, the two call frames belong to the same
//!    non-contiguous function and are merged.
//!
//! Functions whose CFIs do not record complete heights (frame-pointer
//! CFAs) are skipped — the source of the residual ~5% unfixed false
//! positives the paper reports in §V-C.
//!
//! Additionally, FDE starts that fail hard calling-convention validation
//! (undecodable or padding-first, the Figure-6b hand-written mislabels)
//! are removed, mirroring the paper's 3-false-positive fix.

use crate::state::{DetectionState, Provenance};
use fetch_analyses::{validate_calling_convention_cached, CallConvVerdict};
use fetch_disasm::{ErrorCallPolicy, XrefKind};
use std::collections::BTreeSet;

/// What the repair pass did. Also deposited on the state
/// ([`DetectionState::take_repair_report`]) so pipeline drivers can
/// retrieve it after running a whole declarative stack.
#[derive(Debug, Clone, Default)]
pub struct RepairReport {
    /// Non-contiguous parts merged into their functions:
    /// `(removed part start, surviving function start)`.
    pub merged: Vec<(u64, u64)>,
    /// Confirmed tail calls: `(jump address, target)`.
    pub tail_calls: Vec<(u64, u64)>,
    /// Hand-mislabeled FDE starts removed.
    pub bad_fdes_removed: Vec<u64>,
    /// Functions skipped because their CFI heights were incomplete.
    pub skipped_incomplete: usize,
}

/// `TcallFix`: the call-frame repair layer (Algorithm 1 + mislabeled-FDE
/// removal). The optimal pipeline runs it after `FDE+Rec+Xref`.
///
/// The three fields are ablation knobs (all `false`/`None` reproduces the
/// paper's algorithm); the `ablation_alg1` bench sweeps them to quantify
/// each criterion's contribution.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallFrameRepair {
    /// Replace CFI stack heights with a static analysis model — the
    /// design choice the paper explicitly rejects (§V-B, Table IV).
    pub use_static_heights: Option<fetch_analyses::HeightStyle>,
    /// Drop the `MeetCallConv` criterion from tail-call detection.
    pub skip_callconv: bool,
    /// Drop the reference criterion (`HasRefTo`/`RefTo == j`) — merging
    /// then fires on any non-tail jump between frames.
    pub skip_ref_check: bool,
}

impl CallFrameRepair {
    /// Runs the repair, returning a detailed report (also deposited on
    /// the state for pipeline drivers — see
    /// [`DetectionState::take_repair_report`]).
    pub fn repair(&self, state: &mut DetectionState<'_>) -> RepairReport {
        let report = self.repair_inner(state);
        state.last_repair = Some(report.clone());
        report
    }

    fn repair_inner(&self, state: &mut DetectionState<'_>) -> RepairReport {
        let mut report = RepairReport::default();
        if state.rec.disasm.is_empty() {
            state.run_recursion(true, ErrorCallPolicy::SliceZero);
        }

        // ---- remove hand-mislabeled FDE starts (hard invalidity only) ----
        let fde_starts: Vec<u64> = state
            .starts
            .iter()
            .filter(|(_, p)| **p == Provenance::Fde)
            .map(|(a, _)| *a)
            .collect();
        let mut stop_calls: Vec<u64> = state.rec.noreturn.iter().copied().collect();
        stop_calls.extend(state.error_funcs.iter().copied());
        stop_calls.sort_unstable();
        stop_calls.dedup();
        // Verdict-preserving short-circuit: the sweep only acts on
        // `Undecodable` and `PaddingStart`. For a start the recursive walk
        // decoded, the calling-convention exploration visits a subset of
        // rec-reachable code — it breaks at every call the walk pruned
        // (`stop_calls` covers the walk's noreturn/error pruning) and at
        // indirect jumps the walk followed — so with no decode errors
        // anywhere in the disassembly the verdict cannot be `Undecodable`,
        // and `PaddingStart` is decided by the first instruction alone.
        // Valid/ReadBeforeWrite are both kept, so skipping the exploration
        // leaves `bad_fdes_removed` byte-identical.
        let no_decode_errors = state.rec.disasm.decode_errors.is_empty();
        for s in fde_starts {
            if no_decode_errors {
                if let Some(first) = state.rec.disasm.at(s) {
                    if !first.is_padding() {
                        continue;
                    }
                    state.remove_start(s);
                    report.bad_fdes_removed.push(s);
                    continue;
                }
            }
            match validate_calling_convention_cached(
                state.binary,
                s,
                96,
                &stop_calls,
                &state.rec.disasm,
            ) {
                CallConvVerdict::Undecodable { .. } | CallConvVerdict::PaddingStart => {
                    state.remove_start(s);
                    report.bad_fdes_removed.push(s);
                }
                _ => {}
            }
        }
        if !report.bad_fdes_removed.is_empty() {
            // Re-run recursion so extents/references no longer include
            // blocks grown from the bogus starts.
            state.run_recursion(true, ErrorCallPolicy::SliceZero);
        }

        // ---- CFI stack heights, complete functions only ----
        // The per-FDE height tables, start set and coverage ranges are a
        // pure function of `.eh_frame`, memoized on the state — repeated
        // repairs stop re-evaluating every CFI program.
        let Some(frames) = state.frame_table() else {
            return report;
        };
        let heights = &frames.heights;
        let has_fde = &frames.has_fde;
        let removed_fdes: BTreeSet<u64> = report.bad_fdes_removed.iter().copied().collect();
        let fde_ranges: Vec<(u64, u64)> = frames
            .ranges
            .iter()
            .copied()
            .filter(|(b, _)| !removed_fdes.contains(b))
            .collect();
        // The CFI range map already assigns every covered byte to a call
        // frame: an address strictly inside a (surviving) FDE's range is
        // some function's interior, never a new start. ICF-style entry
        // jumps into folded bodies otherwise satisfy every tail-call
        // criterion and would mint a false start.
        let fde_interior = |t: u64| -> bool {
            match fde_ranges.binary_search_by(|&(b, _)| b.cmp(&t)) {
                Ok(_) => false, // an FDE begin is a legitimate start
                Err(0) => false,
                Err(i) => {
                    let (b, e) = fde_ranges[i - 1];
                    b < t && t < e
                }
            }
        };

        // ---- references (memoized on the state) ----
        let xrefs = state.xrefs();
        let data_ptrs = state.data_pointers();
        let extents = state.extents();

        // Snapshot of the start set entering the repair loop, flattened
        // to a sorted slice: the reference closures below probe it per
        // incoming jump, and a binary search over one contiguous
        // allocation beats a tree walk at that frequency. `has_fde`
        // gets the same treatment for the per-jump merge test.
        let start_snapshot: Vec<u64> = state.start_set().iter().copied().collect();
        let snapshot_has = |t: u64| start_snapshot.binary_search(&t).is_ok();
        let has_fde_sorted: Vec<u64> = has_fde.iter().copied().collect();
        let fde_has = |t: u64| has_fde_sorted.binary_search(&t).is_ok();

        // Jump-only reference check: every reference to `t` is a jump
        // whose source lies inside `f`'s body, and no data pointer or
        // constant names `t`.
        let only_jumps_from = |t: u64, f_body: &fetch_disasm::FunctionBody| -> bool {
            if data_ptrs.contains_key(&t) {
                return false;
            }
            match xrefs.get(t) {
                None => false, // unreferenced targets are not merge edges
                Some(refs) => refs.iter().all(|x| {
                    matches!(x.kind, XrefKind::Jump | XrefKind::CondJump) && f_body.contains(x.from)
                }),
            }
        };
        // Referenced from somewhere other than jumps inside `f`. Data
        // pointers count only when §IV-E validated them (the pointer scan
        // already promoted them to starts): raw sliding-window composites
        // routinely alias mid-function addresses, and trusting one here
        // would confirm a bogus tail call into a function body.
        let referenced_elsewhere = |t: u64, f_body: &fetch_disasm::FunctionBody| -> bool {
            if data_ptrs.contains_key(&t) && snapshot_has(t) {
                return true;
            }
            xrefs.get(t).is_some_and(|refs| {
                refs.iter().any(|x| {
                    !matches!(x.kind, XrefKind::Jump | XrefKind::CondJump)
                        || !f_body.contains(x.from)
                })
            })
        };

        // ---- Algorithm 1 main loop ----
        let mut removed: BTreeSet<u64> = BTreeSet::new();
        // Calling-convention verdicts are a pure function of the
        // binary, the (fixed-for-the-loop) disassembly, and the stop
        // set — and hot tail-call targets are tested once per incoming
        // jump. Memoize per target across the whole loop.
        let mut cc_memo: std::collections::BTreeMap<u64, bool> = std::collections::BTreeMap::new();
        for &f in &start_snapshot {
            if removed.contains(&f) {
                continue;
            }
            let ht = heights.get(&f);
            if ht.is_none() && self.use_static_heights.is_none() {
                if fde_has(f) {
                    report.skipped_incomplete += 1;
                }
                continue;
            }
            let Some(body) = extents.get(&f) else {
                continue;
            };
            // Ablation: a static stack-height model instead of CFIs.
            let static_heights = self
                .use_static_heights
                .map(|style| fetch_analyses::model_stack_heights(body, &state.rec.disasm, style));
            for j in &body.jumps {
                let Some(t) = j.direct_target() else { continue };
                // A target inside f's discovered body is usually an
                // intra-function label — but an undetected tail-callee is
                // *absorbed* into the caller's extent by traversal, so
                // the tail-call test must still run for such targets
                // (the reference criterion rejects genuine labels, whose
                // only references come from within f).
                let absorbed = body.contains(t) && t != f;
                if t == f || removed.contains(&t) {
                    continue;
                }
                let h = match (&static_heights, ht) {
                    (Some(model), _) => model.get(&j.addr).copied().flatten(),
                    (None, Some(ht)) => ht.height_at(j.addr),
                    (None, None) => None,
                };
                let Some(h) = h else { continue };
                let mut is_tail_call = false;
                if h == 0 && !fde_interior(t) {
                    let cc_ok = self.skip_callconv
                        || match cc_memo.get(&t) {
                            Some(&ok) => ok,
                            None => {
                                let ok = validate_calling_convention_cached(
                                    state.binary,
                                    t,
                                    96,
                                    &stop_calls,
                                    &state.rec.disasm,
                                )
                                .is_valid();
                                cc_memo.insert(t, ok);
                                ok
                            }
                        };
                    if cc_ok && referenced_elsewhere(t, body) {
                        // A confirmed tail call: the target is a function.
                        report.tail_calls.push((j.addr, t));
                        if state.add_start(t, Provenance::TailCallFix) {
                            // Newly discovered function via tail call.
                        }
                        is_tail_call = true;
                    }
                }
                if !is_tail_call
                    && !absorbed
                    && state.starts.contains_key(&t)
                    && fde_has(t)
                    && (self.skip_ref_check || only_jumps_from(t, body))
                {
                    // Same non-contiguous function: merge the frames.
                    state.remove_start(t);
                    removed.insert(t);
                    report.merged.push((t, f));
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;
    use fetch_binary::TestCase;
    use fetch_synth::{synthesize, SynthConfig};

    fn split_case(seed: u64) -> TestCase {
        let mut cfg = SynthConfig::small(seed);
        cfg.n_funcs = 150;
        cfg.rates.split_cold = 0.15;
        cfg.rates.asm_funcs = 6;
        cfg.rates.mislabeled_fdes = 1;
        synthesize(&cfg)
    }

    fn run_pipeline(case: &TestCase) -> (DetectionState<'_>, RepairReport) {
        let mut state = DetectionState::new(&case.binary);
        Pipeline::parse("FDE+Rec+Xref").unwrap().apply(&mut state);
        let report = CallFrameRepair::default().repair(&mut state);
        (state, report)
    }

    #[test]
    fn repair_removes_most_cold_part_false_starts() {
        let case = split_case(51);
        let fde_false = case.truth.fde_false_starts();
        assert!(fde_false.len() >= 10, "corpus has cold-part FDEs");
        let (state, report) = run_pipeline(&case);
        let remaining: Vec<u64> = fde_false
            .iter()
            .copied()
            .filter(|s| state.starts.contains_key(s))
            .collect();
        // The paper repairs ~95% corpus-wide; on one small binary the
        // residual incomplete-CFI class (frame-pointer parents) makes the
        // per-binary rate noisier — require a strong majority and that
        // every survivor is indeed a cold-part start.
        assert!(
            remaining.len() * 4 < fde_false.len(),
            "repaired {}/{} (remaining: {remaining:x?})",
            fde_false.len() - remaining.len(),
            fde_false.len()
        );
        for s in &remaining {
            assert!(case.truth.part_starts().contains(s));
        }
        assert!(report.merged.len() >= fde_false.len() - remaining.len());
    }

    #[test]
    fn repair_never_removes_true_starts_except_tail_only_singles() {
        let case = split_case(52);
        let (_state, report) = run_pipeline(&case);
        for (removed, _into) in &report.merged {
            if case.truth.is_start(*removed) {
                let f = case.truth.function_at(*removed).unwrap();
                assert!(
                    matches!(f.reach, fetch_binary::Reach::TailCalled { callers: 1 }),
                    "merged true start {removed:#x} must be a single-caller \
                     tail-only function (the paper's harmless 161)"
                );
            }
        }
    }

    #[test]
    fn mislabeled_fdes_are_removed() {
        // Mislabeled FDEs are exactly the `PC Begin`s that are not ground
        // truth part starts (they sit one byte early, Figure 6b).
        let mut found_any = false;
        for seed in [53u64, 56, 57, 58] {
            let case = split_case(seed);
            let parts = case.truth.part_starts();
            let mislabeled: Vec<u64> = case
                .binary
                .eh_frame()
                .unwrap()
                .pc_begins()
                .into_iter()
                .filter(|b| !parts.contains(b))
                .collect();
            let (state, report) = run_pipeline(&case);
            // Every removed "bad FDE" is one byte before a true start.
            for r in &report.bad_fdes_removed {
                assert!(
                    case.truth.is_start(r + 1),
                    "removed {r:#x} is not a mislabel artifact"
                );
                assert!(!state.starts.contains_key(r));
            }
            // Every mislabel in the corpus is caught.
            for m in &mislabeled {
                found_any = true;
                assert!(
                    report.bad_fdes_removed.contains(m),
                    "mislabel {m:#x} not caught (seed {seed})"
                );
            }
        }
        assert!(found_any, "test corpus never produced a mislabeled FDE");
    }

    #[test]
    fn incomplete_cfi_functions_are_skipped() {
        let mut cfg = SynthConfig::small(54);
        cfg.n_funcs = 150;
        cfg.rates.rbp_frame = 0.5; // many frame-pointer functions
        let case = synthesize(&cfg);
        let mut state = DetectionState::new(&case.binary);
        Pipeline::parse("FDE+Rec").unwrap().apply(&mut state);
        let report = CallFrameRepair::default().repair(&mut state);
        assert!(report.skipped_incomplete > 10, "rbp frames are skipped");
    }

    #[test]
    fn confirmed_tail_calls_point_at_true_starts() {
        let case = split_case(55);
        let (_state, report) = run_pipeline(&case);
        for (_j, t) in &report.tail_calls {
            assert!(
                case.truth.is_start(*t),
                "tail target {t:#x} is a true start"
            );
        }
    }
}
