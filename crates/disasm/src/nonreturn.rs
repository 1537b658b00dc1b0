//! Non-returning function analysis.
//!
//! A function is non-returning when no path from its entry reaches a
//! `ret`, an unresolved indirect jump (potential tail call), or a tail
//! jump to a returning function. The analysis runs as a monotone fixpoint
//! over the current disassembly and is re-run by the recursive engine
//! until the assumption set stabilizes (DYNINST's algorithm, which the
//! paper reuses and found accurate, §IV-C).

use crate::recursive::Disassembly;
use fetch_x64::{AluOp, Flow, Inst, Op, Reg};
use std::collections::BTreeSet;

/// Treatment of calls to `error`/`error_at_line`-style functions, which
/// return only when their first (status) argument is zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ErrorCallPolicy {
    /// The paper's rule (§IV-C): backward-slice the first argument; the
    /// call returns only when the status provably flows from zero.
    SliceZero,
    /// Treat such calls as always returning (loses code after fatal
    /// calls' sites — a source of coverage gaps in naive tools).
    AlwaysReturn,
    /// Treat such calls as never returning (GHIDRA-style imprecision:
    /// kills true fallthrough code — feeds control-flow repair errors).
    AlwaysNoReturn,
}

/// Backward slice of the status argument within one block: `true` when
/// the last write to `edi`/`rdi` before the call is provably zero.
pub fn status_arg_is_zero(block: &[Inst]) -> bool {
    // The last instruction is the call itself; walk back from before it.
    let mut status = false;
    for inst in &block[..block.len().saturating_sub(1)] {
        fold_status_zero(&mut status, inst);
    }
    status // no write at all: status unknown, non-returning (§IV-C)
}

/// Forward-tracking equivalent of [`status_arg_is_zero`]: folds one
/// instruction into the "last `rdi` write before here is provably
/// zero" state (last-write-wins forward is the same verdict as
/// first-match backward). The classifier folds a straight-line run
/// only when it reaches an `error` call in it, not per instruction.
pub fn fold_status_zero(status: &mut bool, inst: &Inst) {
    if let Some(zero) = rdi_write(inst) {
        *status = zero;
    }
}

/// Whether `inst` writes `edi`/`rdi`, and if so whether the value is
/// provably zero.
pub(crate) fn rdi_write(inst: &Inst) -> Option<bool> {
    match inst.op {
        Op::MovRI(_, Reg::Rdi, v) => Some(v == 0),
        Op::AluRR(AluOp::Xor, _, Reg::Rdi, Reg::Rdi) => Some(true),
        Op::MovAbs(Reg::Rdi, v) => Some(v == 0),
        // Any other write to rdi of unknown value: not provably zero.
        _ => {
            let mut writes_rdi = false;
            inst.each_reg_written(|r| writes_rdi |= r == Reg::Rdi);
            writes_rdi.then_some(false)
        }
    }
}

/// What [`classify_noreturn`] found, and how much slicing it did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NoreturnClasses {
    /// The non-returning functions.
    pub noreturn: BTreeSet<u64>,
    /// `error`-call status slices read (one per `error` call a traversal
    /// reaches under [`ErrorCallPolicy::SliceZero`]).
    pub status_slices: u64,
}

/// Classifies non-returning functions over the decoded instructions.
///
/// `prev_noreturn` carries the assumption from the previous engine pass;
/// call sites of those functions block paths.
pub fn classify_noreturn(
    disasm: &Disassembly,
    functions: &BTreeSet<u64>,
    error_funcs: &BTreeSet<u64>,
    policy: ErrorCallPolicy,
    prev_noreturn: &BTreeSet<u64>,
) -> NoreturnClasses {
    // Flatten every per-visit membership structure to sorted slices (or
    // a dense bitmap for `returning`): the traversal probes them on
    // each call/jump, where binary search over contiguous `u64`s beats
    // a B-tree descent.
    let funcs: Vec<u64> = functions.iter().copied().collect();
    let cx = ClassifyCx {
        disasm,
        funcs: &funcs,
        error_funcs: error_funcs.iter().copied().collect(),
        prev_noreturn: prev_noreturn.iter().copied().collect(),
        policy,
    };
    // `returning[i]` pairs with `funcs[i]` and grows monotonically; the
    // residue is non-returning.
    let mut returning = vec![false; funcs.len()];
    // One dense visited table for the whole classification, re-used by
    // every traversal via generation stamps (a fresh stamp per call
    // replaces a fresh BTreeSet per call).
    let mut scratch = Scratch {
        stamps: vec![0; disasm.len()],
        stamp: 0,
        status_slices: 0,
    };
    // Dependency-driven fixpoint. `can_reach_return` is monotone in
    // `returning` (a larger set only opens more tail edges), so the
    // round-based "re-scan everyone until stable" iteration and this
    // worklist both compute the unique least fixpoint — but the
    // worklist re-examines a function only when a tail-jump target it
    // was actually blocked on flips to returning, instead of
    // re-traversing every still-non-returning function per round.
    let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); funcs.len()];
    let mut queue: Vec<u32> = (0..funcs.len() as u32).collect();
    let mut deps: Vec<u32> = Vec::new();
    while let Some(i) = queue.pop() {
        let i = i as usize;
        if returning[i] {
            continue;
        }
        deps.clear();
        if can_reach_return(&cx, funcs[i], &returning, &mut scratch, &mut deps) {
            returning[i] = true;
            // Unblock everyone who gave up on a tail edge into `i`.
            queue.append(&mut dependents[i]);
        } else {
            for &d in &deps {
                dependents[d as usize].push(i as u32);
            }
        }
    }
    let noreturn = funcs
        .iter()
        .zip(&returning)
        .filter(|&(_, &r)| !r)
        .map(|(&f, _)| f)
        .collect();
    NoreturnClasses {
        noreturn,
        status_slices: scratch.status_slices,
    }
}

struct Scratch {
    stamps: Vec<u32>,
    stamp: u32,
    status_slices: u64,
}

/// Read-only classification context: the disassembly plus every
/// membership set flattened to a sorted slice.
struct ClassifyCx<'a> {
    disasm: &'a Disassembly,
    funcs: &'a [u64],
    error_funcs: Vec<u64>,
    prev_noreturn: Vec<u64>,
    policy: ErrorCallPolicy,
}

fn sorted_contains(s: &[u64], x: u64) -> bool {
    s.binary_search(&x).is_ok()
}

/// Whether any path from `start` reaches a return, given the current
/// `returning` verdicts. On a `false` verdict, `blocked_on` lists the
/// `funcs` indices of non-returning tail-jump targets consulted along
/// the way — exactly the verdicts whose flip could change this one.
fn can_reach_return(
    cx: &ClassifyCx<'_>,
    start: u64,
    returning: &[bool],
    scratch: &mut Scratch,
    blocked_on: &mut Vec<u32>,
) -> bool {
    let disasm = cx.disasm;
    let mut stack = vec![start];
    scratch.stamp += 1;
    // `funcs[i]` returning check for tail edges: index lookup + bitmap.
    let returns = |t: u64| cx.funcs.binary_search(&t).map(|i| (i, returning[i]));
    while let Some(mut cur) = stack.pop() {
        // The status slice of an `error` call covers the straight-line
        // run from where this traversal entered it: `(from, zero)` is
        // the status folded up to `from`, the run's entry or the last
        // `error` call read in it.
        let mut slice = (cur, false);
        loop {
            let Some(slot) = disasm.slot(cur) else {
                // Ran into undecoded bytes: conservatively returning.
                return true;
            };
            if scratch.stamps[slot] == scratch.stamp {
                break;
            }
            scratch.stamps[slot] = scratch.stamp;
            let inst = disasm.inst_in_slot(slot);
            match inst.flow() {
                Flow::Ret => return true,
                Flow::Halt | Flow::Trap => break,
                Flow::Fallthrough | Flow::IndirectCall => cur = inst.end(),
                Flow::Call(t) => {
                    let ret = if sorted_contains(&cx.error_funcs, t) {
                        match cx.policy {
                            ErrorCallPolicy::AlwaysReturn => true,
                            ErrorCallPolicy::AlwaysNoReturn => false,
                            ErrorCallPolicy::SliceZero => {
                                scratch.status_slices += 1;
                                let (mut at, mut zero) = slice;
                                while at != inst.addr {
                                    let before = disasm.at(at).expect("the run was decoded");
                                    fold_status_zero(&mut zero, before);
                                    at = before.end();
                                }
                                slice = (at, zero);
                                zero
                            }
                        }
                    } else {
                        !sorted_contains(&cx.prev_noreturn, t)
                    };
                    if ret {
                        cur = inst.end();
                    } else {
                        break;
                    }
                }
                Flow::Jump(t) => {
                    match returns(t) {
                        // Tail edge to another function: returning iff the
                        // target is (currently known to be) returning.
                        Ok((ti, r)) if t != start => {
                            if r {
                                return true;
                            }
                            blocked_on.push(ti as u32);
                        }
                        _ => stack.push(t),
                    }
                    break;
                }
                Flow::CondJump(t) => {
                    match returns(t) {
                        Ok((ti, r)) if t != start => {
                            if r {
                                return true;
                            }
                            blocked_on.push(ti as u32);
                        }
                        _ => stack.push(t),
                    }
                    cur = inst.end();
                }
                Flow::IndirectJump => {
                    match disasm.jump_tables.get(&inst.addr) {
                        Some(jt) => {
                            for &t in &jt.targets {
                                stack.push(t);
                            }
                        }
                        // Unresolved indirect jump: could be a tail call
                        // to a returning function.
                        None => return true,
                    }
                    break;
                }
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_x64::{decode, Asm, Op};

    fn disasm_of(bytes: &[u8], base: u64) -> Disassembly {
        let mut d = Disassembly::default();
        let mut addr = base;
        let mut off = 0usize;
        while off < bytes.len() {
            let i = decode(&bytes[off..], addr).unwrap();
            d.insert(i);
            off += i.len as usize;
            addr += i.len as u64;
        }
        d
    }

    #[test]
    fn ud2_function_is_noreturn_ret_function_is_not() {
        // f0 at 0x1000: ud2. f1 at 0x1002: ret.
        let d = disasm_of(&[0x0f, 0x0b, 0xc3], 0x1000);
        let funcs: BTreeSet<u64> = [0x1000u64, 0x1002].into_iter().collect();
        let nr = classify_noreturn(
            &d,
            &funcs,
            &BTreeSet::new(),
            ErrorCallPolicy::SliceZero,
            &BTreeSet::new(),
        )
        .noreturn;
        assert!(nr.contains(&0x1000));
        assert!(!nr.contains(&0x1002));
    }

    #[test]
    fn tail_jump_inherits_returning_status() {
        // f0: jmp f1. f1: ret. f2: jmp f3. f3: ud2.
        let mut asm = Asm::new();
        asm.jmp_ext(0); // -> f1
        let f1_off = asm.here();
        asm.push(Op::Ret);
        let f2_off = asm.here();
        asm.jmp_ext(1); // -> f3
        let f3_off = asm.here();
        asm.push(Op::Ud2);
        let mut out = asm.finalize().unwrap();
        let base = 0x1000u64;
        out.patch_rel32(out.fixups[0].pos, base, base + f1_off as u64);
        out.patch_rel32(out.fixups[1].pos, base, base + f3_off as u64);

        let d = disasm_of(&out.bytes, base);
        let funcs: BTreeSet<u64> = [
            base,
            base + f1_off as u64,
            base + f2_off as u64,
            base + f3_off as u64,
        ]
        .into_iter()
        .collect();
        let nr = classify_noreturn(
            &d,
            &funcs,
            &BTreeSet::new(),
            ErrorCallPolicy::SliceZero,
            &BTreeSet::new(),
        )
        .noreturn;
        assert!(!nr.contains(&base), "jmp to returning fn returns");
        assert!(
            nr.contains(&(base + f2_off as u64)),
            "jmp to ud2 fn does not return"
        );
        assert!(nr.contains(&(base + f3_off as u64)));
    }

    #[test]
    fn error_status_slice_starts_where_the_run_was_entered() {
        use fetch_x64::{AluOp, Cc, Reg, Width};
        // h:  jne x; xor edi, edi; l: call error; ret; x: jmp l
        // h2: jne y; jmp l2; y: xor edi, edi; l2: call error; ret
        // error: ret
        // `h` reaches `l` by falling through the `xor` first, so the
        // slice reads it and the call returns. `h2` enters `l2` by the
        // jump first, whose run holds no `rdi` write: the call does not
        // return, and the later run through `y` stops at visited `l2`.
        let xor_edi = || Op::AluRR(AluOp::Xor, Width::W32, Reg::Rdi, Reg::Rdi);
        let mut asm = Asm::new();
        let (x, l) = (asm.new_label(), asm.new_label());
        asm.jcc(Cc::Ne, x);
        asm.push(xor_edi());
        asm.bind(l);
        asm.call_ext(0);
        asm.push(Op::Ret);
        asm.bind(x);
        asm.jmp(l);
        let h2 = asm.here();
        let (y, l2) = (asm.new_label(), asm.new_label());
        asm.jcc(Cc::Ne, y);
        asm.jmp(l2);
        asm.bind(y);
        asm.push(xor_edi());
        asm.bind(l2);
        asm.call_ext(0);
        asm.push(Op::Ret);
        let error = asm.here();
        asm.push(Op::Ret);
        let base = 0x1000u64;
        let mut out = asm.finalize().unwrap();
        for i in 0..2 {
            out.patch_rel32(out.fixups[i].pos, base, base + error as u64);
        }
        let d = disasm_of(&out.bytes, base);
        let (h, h2, error) = (base, base + h2 as u64, base + error as u64);
        let classes = classify_noreturn(
            &d,
            &BTreeSet::from([h, h2, error]),
            &BTreeSet::from([error]),
            ErrorCallPolicy::SliceZero,
            &BTreeSet::new(),
        );
        assert_eq!(classes.noreturn, BTreeSet::from([h2]));
        // One slice per `error` call each traversal reaches.
        assert_eq!(classes.status_slices, 2);
    }

    #[test]
    fn error_slice_distinguishes_status() {
        use fetch_x64::{AluOp, Inst, Reg, Width};
        let mk = |op| Inst {
            addr: 0,
            len: 1,
            op,
        };
        // xor edi, edi; call error → returns.
        let block = vec![
            mk(Op::AluRR(AluOp::Xor, Width::W32, Reg::Rdi, Reg::Rdi)),
            mk(Op::Call(0x5000)),
        ];
        assert!(status_arg_is_zero(&block));
        // mov edi, 1; call error → does not return.
        let block = vec![mk(Op::MovRI(Width::W32, Reg::Rdi, 1)), mk(Op::Call(0x5000))];
        assert!(!status_arg_is_zero(&block));
        // Unknown status → conservatively non-returning.
        let block = vec![mk(Op::Call(0x5000))];
        assert!(!status_arg_is_zero(&block));
    }
}
