//! Function extents and code cross-references over a disassembly.

use crate::recursive::{Disassembly, RecResult};
use fetch_x64::{Flow, Inst};
use std::collections::{BTreeMap, BTreeSet};

/// The instructions belonging to one detected function, computed by
/// intra-procedural traversal (jumps to *other* detected function starts
/// are treated as inter-function edges and not followed).
#[derive(Debug, Clone, Default)]
pub struct FunctionBody {
    /// Entry address.
    pub start: u64,
    /// Addresses of member instructions, ascending. A sorted slice
    /// instead of a tree: membership is a binary search over one
    /// contiguous allocation, which is what keeps the repair layer's
    /// per-jump reference checks flat as functions grow.
    pub insts: Vec<u64>,
    /// Direct and conditional jumps within the function (Algorithm 1
    /// iterates exactly these).
    pub jumps: Vec<Inst>,
    /// Whether any member call/jump ran into undecoded bytes.
    pub ragged: bool,
}

impl FunctionBody {
    /// Whether `addr` belongs to this function's discovered body.
    pub fn contains(&self, addr: u64) -> bool {
        self.insts.binary_search(&addr).is_ok()
    }
}

/// Computes [`FunctionBody`]s for every detected function. The
/// visited-set scratch (slot-indexed stamps over the dense store) is
/// allocated once and shared across every traversal.
pub fn function_extents(result: &RecResult) -> BTreeMap<u64, FunctionBody> {
    let mut scratch = vec![0u32; result.disasm.len()];
    let mut stamp = 0u32;
    // Flatten the start/noreturn sets once: the traversal probes them
    // per call and jump instruction, where a sorted-slice binary search
    // beats a B-tree lookup.
    let functions: Vec<u64> = result.functions.iter().copied().collect();
    let noreturn: Vec<u64> = result.noreturn.iter().copied().collect();
    let mut bufs = BodyBufs::default();
    functions
        .iter()
        .map(|&f| {
            stamp += 1;
            (
                f,
                body_with_bufs(
                    f,
                    &result.disasm,
                    &functions,
                    &noreturn,
                    &mut scratch,
                    stamp,
                    &mut bufs,
                ),
            )
        })
        .collect()
}

/// Computes the body of the function at `start` over an existing
/// disassembly, given the set of all known function starts.
pub fn body_of(
    start: u64,
    disasm: &Disassembly,
    functions: &BTreeSet<u64>,
    noreturn: &BTreeSet<u64>,
) -> FunctionBody {
    let mut scratch = vec![0u32; disasm.len()];
    let functions: Vec<u64> = functions.iter().copied().collect();
    let noreturn: Vec<u64> = noreturn.iter().copied().collect();
    body_with_scratch(start, disasm, &functions, &noreturn, &mut scratch, 1)
}

/// [`body_of`] over a caller-owned visited scratch: `scratch[slot]`
/// equal to `stamp` marks the instruction in that dense-store slot as
/// already traversed for this body (stamping makes re-zeroing between
/// functions unnecessary).
fn body_with_scratch(
    start: u64,
    disasm: &Disassembly,
    functions: &[u64],
    noreturn: &[u64],
    scratch: &mut [u32],
    stamp: u32,
) -> FunctionBody {
    let mut bufs = BodyBufs::default();
    body_with_bufs(
        start, disasm, functions, noreturn, scratch, stamp, &mut bufs,
    )
}

/// Reusable traversal accumulators: one amortized allocation per
/// [`function_extents`] call instead of growing fresh `Vec`s per body
/// (the per-body result `Vec`s are exact-size copies cut at the end).
#[derive(Default)]
struct BodyBufs {
    insts: Vec<u64>,
    jumps: Vec<Inst>,
    stack: Vec<u64>,
}

fn body_with_bufs(
    start: u64,
    disasm: &Disassembly,
    functions: &[u64],
    noreturn: &[u64],
    scratch: &mut [u32],
    stamp: u32,
    bufs: &mut BodyBufs,
) -> FunctionBody {
    let mut body = FunctionBody {
        start,
        ..FunctionBody::default()
    };
    bufs.insts.clear();
    bufs.jumps.clear();
    bufs.stack.clear();
    let stack = &mut bufs.stack;
    stack.push(start);
    while let Some(mut cur) = stack.pop() {
        loop {
            let Some(slot) = disasm.slot(cur) else {
                body.ragged = true;
                break;
            };
            if scratch[slot] == stamp {
                break;
            }
            scratch[slot] = stamp;
            let inst = disasm.inst_in_slot(slot);
            bufs.insts.push(cur);
            match inst.flow() {
                Flow::Fallthrough | Flow::IndirectCall => cur = inst.end(),
                Flow::Call(t) => {
                    if noreturn.binary_search(&t).is_ok() {
                        break;
                    }
                    cur = inst.end();
                }
                Flow::Jump(t) => {
                    bufs.jumps.push(*inst);
                    if t != start && functions.binary_search(&t).is_ok() {
                        break; // inter-function edge: not followed
                    }
                    stack.push(t);
                    break;
                }
                Flow::CondJump(t) => {
                    bufs.jumps.push(*inst);
                    if t == start || functions.binary_search(&t).is_err() {
                        stack.push(t);
                    }
                    cur = inst.end();
                }
                Flow::IndirectJump => {
                    if let Some(jt) = disasm.jump_tables.get(&inst.addr) {
                        for &t in &jt.targets {
                            stack.push(t);
                        }
                    }
                    break;
                }
                Flow::Ret | Flow::Halt | Flow::Trap => break,
            }
        }
    }
    bufs.insts.sort_unstable();
    body.insts = bufs.insts.clone();
    body.jumps = bufs.jumps.clone();
    body
}

/// The way one address references another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XrefKind {
    /// Direct call target.
    Call,
    /// Unconditional jump target.
    Jump,
    /// Conditional jump target.
    CondJump,
    /// `lea r, [rip + target]` — an address take.
    Lea,
    /// A constant operand that equals the address.
    Const,
}

/// One reference: where from and of which kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Xref {
    /// Address of the referencing instruction.
    pub from: u64,
    /// Reference kind.
    pub kind: XrefKind,
}

/// All code-borne references of a disassembly, keyed by target address.
///
/// Layout: one flat, `(target, from)`-sorted arena of [`Xref`]s plus a
/// sorted target directory with group offsets — a `get` is one binary
/// search and a slice, and building it is one bulk sort instead of a
/// B-tree insert and a per-target `Vec` allocation per reference. A
/// consumer that asks about a few known targets builds an index of just
/// those ([`code_xrefs_to`]) instead of the full one ([`code_xrefs`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct XrefIndex {
    /// Distinct referenced targets, ascending.
    targets: Vec<u64>,
    /// `spans[i]` is the end offset in `flat` of `targets[i]`'s group
    /// (its start is `spans[i - 1]`, or 0 for the first group).
    spans: Vec<u32>,
    /// Every reference, grouped by target, `from`-ascending per group.
    flat: Vec<Xref>,
}

impl XrefIndex {
    /// The references to `target`, `from`-ascending, or `None` when
    /// nothing references it.
    pub fn get(&self, target: u64) -> Option<&[Xref]> {
        let i = self.targets.binary_search(&target).ok()?;
        let start = if i == 0 {
            0
        } else {
            self.spans[i - 1] as usize
        };
        Some(&self.flat[start..self.spans[i] as usize])
    }

    /// Whether anything references `target`.
    pub fn contains_key(&self, target: u64) -> bool {
        self.targets.binary_search(&target).is_ok()
    }

    /// Number of distinct referenced targets.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether no reference was found at all.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Iterates `(target, references)` groups in ascending target order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &[Xref])> + '_ {
        self.targets.iter().enumerate().map(|(i, &t)| {
            let start = if i == 0 {
                0
            } else {
                self.spans[i - 1] as usize
            };
            (t, &self.flat[start..self.spans[i] as usize])
        })
    }
}

/// Collects all code-borne references, keyed by target address.
pub fn code_xrefs(disasm: &Disassembly) -> XrefIndex {
    xrefs_where(disasm, |_| true)
}

/// [`code_xrefs`] restricted to `targets`: the same per-instruction
/// enumeration, dropping every other target before it is indexed.
/// `get` answers exactly as the full index for one of `targets` and
/// `None` for any other address.
pub fn code_xrefs_to(disasm: &Disassembly, targets: &[u64]) -> XrefIndex {
    // Every reference is tested, so membership is a bit per byte of the
    // indexed window (a search per reference cost as much as the full
    // build saved); targets outside it stay a sorted list.
    let (base, range) = disasm.indexed_range();
    let offset = |t: u64| t.checked_sub(base).filter(|&off| off < range as u64);
    let mut window = vec![0u64; range.div_ceil(64)];
    let mut outside = Vec::new();
    for &t in targets {
        match offset(t) {
            Some(off) => window[off as usize / 64] |= 1 << (off % 64),
            None => outside.push(t),
        }
    }
    outside.sort_unstable();
    xrefs_where(disasm, |t| match offset(t) {
        Some(off) => window[off as usize / 64] >> (off % 64) & 1 != 0,
        None => outside.binary_search(&t).is_ok(),
    })
}

/// The index of the references whose target `keep` admits.
fn xrefs_where(disasm: &Disassembly, keep: impl Fn(u64) -> bool) -> XrefIndex {
    // Counting-bucket build. Almost every target lands inside the
    // store's indexed window, so references are bucketed by byte
    // offset in two linear passes instead of one comparison sort over
    // the whole set; targets outside the window go through a small
    // sorted overflow list. The layout is canonical regardless of
    // iteration order: each instruction emits at most one reference
    // per class (the flow/lea/const op classes are disjoint), and the
    // final order is `(target, from)`-ascending exactly as the sorting
    // build produced.
    let (base, range) = disasm.indexed_range();
    let mut counts: Vec<u32> = vec![0; range];
    let mut nonempty: Vec<u32> = Vec::new();
    let mut inside: Vec<(u32, Xref)> = Vec::new();
    let mut outside: Vec<(u64, Xref)> = Vec::new();
    for inst in disasm.iter_unordered() {
        let addr = inst.addr;
        let mut add = |target: u64, kind: XrefKind| {
            if !keep(target) {
                return;
            }
            let x = Xref { from: addr, kind };
            match target.checked_sub(base) {
                Some(off) if (off as usize) < range => {
                    let off = off as u32;
                    if counts[off as usize] == 0 {
                        nonempty.push(off);
                    }
                    counts[off as usize] += 1;
                    inside.push((off, x));
                }
                _ => outside.push((target, x)),
            }
        };
        match inst.flow() {
            Flow::Call(t) => add(t, XrefKind::Call),
            Flow::Jump(t) => add(t, XrefKind::Jump),
            Flow::CondJump(t) => add(t, XrefKind::CondJump),
            _ => {}
        }
        if let Some(t) = inst.lea_rip_target() {
            add(t, XrefKind::Lea);
        }
        if let Some(c) = inst.const_operand() {
            add(c, XrefKind::Const);
        }
    }
    nonempty.sort_unstable();
    // Exclusive prefix sums become per-bucket write cursors (stored
    // back into `counts`); `sizes` keeps each bucket's width for the
    // grouping pass below.
    let mut cursors: Vec<u32> = Vec::with_capacity(nonempty.len());
    let mut sizes: Vec<u32> = Vec::with_capacity(nonempty.len());
    let mut acc = 0u32;
    for &off in &nonempty {
        cursors.push(acc);
        sizes.push(counts[off as usize]);
        acc += counts[off as usize];
    }
    for (i, &off) in nonempty.iter().enumerate() {
        counts[off as usize] = cursors[i];
    }
    let mut placed: Vec<Xref> = vec![
        Xref {
            from: 0,
            kind: XrefKind::Call
        };
        inside.len()
    ];
    for &(off, x) in &inside {
        let p = counts[off as usize] as usize;
        counts[off as usize] += 1;
        placed[p] = x;
    }
    // Per-bucket `from` order (buckets are a handful of entries each).
    for (i, &start) in cursors.iter().enumerate() {
        let (start, end) = (start as usize, (start + sizes[i]) as usize);
        placed[start..end].sort_unstable_by_key(|x| x.from);
    }
    outside.sort_unstable_by_key(|&(target, x)| (target, x.from));
    let split = outside.partition_point(|&(t, _)| t < base);
    let (below, above) = outside.split_at(split);

    let mut out = XrefIndex {
        flat: Vec::with_capacity(inside.len() + outside.len()),
        ..XrefIndex::default()
    };
    let push_overflow = |out: &mut XrefIndex, group: &[(u64, Xref)]| {
        let mut i = 0;
        while i < group.len() {
            let target = group[i].0;
            let j = group[i..].partition_point(|&(t, _)| t == target) + i;
            out.targets.push(target);
            out.flat.extend(group[i..j].iter().map(|&(_, x)| x));
            out.spans.push(out.flat.len() as u32);
            i = j;
        }
    };
    push_overflow(&mut out, below);
    for (i, &off) in nonempty.iter().enumerate() {
        let (start, end) = (cursors[i] as usize, (cursors[i] + sizes[i]) as usize);
        out.targets.push(base + off as u64);
        out.flat.extend_from_slice(&placed[start..end]);
        out.spans.push(out.flat.len() as u32);
    }
    push_overflow(&mut out, above);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recursive::{recursive_disassemble, RecOptions};
    use fetch_synth::{synthesize, SynthConfig};

    #[test]
    fn bucket_xref_build_matches_sorted_reference() {
        // The counting-bucket build must produce exactly the layout of
        // the straightforward sort-based build: `(target, from)`
        // ascending, grouped by target.
        let mut cfg = SynthConfig::small(23);
        cfg.n_funcs = 120;
        cfg.rates.asm_funcs = 6;
        let case = synthesize(&cfg);
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());

        let mut reference: Vec<(u64, Xref)> = Vec::new();
        for inst in r.disasm.iter_unordered() {
            let addr = inst.addr;
            let mut add = |target: u64, kind: XrefKind| {
                reference.push((target, Xref { from: addr, kind }));
            };
            match inst.flow() {
                Flow::Call(t) => add(t, XrefKind::Call),
                Flow::Jump(t) => add(t, XrefKind::Jump),
                Flow::CondJump(t) => add(t, XrefKind::CondJump),
                _ => {}
            }
            if let Some(t) = inst.lea_rip_target() {
                add(t, XrefKind::Lea);
            }
            if let Some(c) = inst.const_operand() {
                add(c, XrefKind::Const);
            }
        }
        reference.sort_unstable_by_key(|&(target, x)| (target, x.from));

        let built = code_xrefs(&r.disasm);
        let flattened: Vec<(u64, Xref)> = built
            .iter()
            .flat_map(|(t, refs)| refs.iter().map(move |&x| (t, x)))
            .collect();
        assert!(!flattened.is_empty(), "corpus produces references");
        assert_eq!(flattened, reference, "bucket layout diverged from sort");
    }

    #[test]
    fn bodies_partition_reasonably() {
        let mut cfg = SynthConfig::small(5);
        cfg.n_funcs = 50;
        let case = synthesize(&cfg);
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let extents = function_extents(&r);
        for (&f, body) in &extents {
            assert_eq!(body.start, f);
            assert!(body.insts.contains(&f), "body contains its entry");
        }
    }

    #[test]
    fn xrefs_cover_direct_calls() {
        let mut cfg = SynthConfig::small(6);
        cfg.n_funcs = 40;
        let case = synthesize(&cfg);
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let xrefs = code_xrefs(&r.disasm);
        // main is called from _start.
        let main = case
            .truth
            .functions
            .iter()
            .find(|f| f.name == "main")
            .unwrap();
        let refs = xrefs.get(main.entry()).expect("main referenced");
        assert!(refs.iter().any(|x| x.kind == XrefKind::Call));
    }
}
