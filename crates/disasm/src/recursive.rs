//! The safe recursive disassembler (§IV-C), over a dense instruction
//! store with an incremental re-run engine.
//!
//! Error-freedom comes from four conservative choices, mirroring the
//! paper's setup exactly:
//!
//! 1. **Indirect jumps** are followed only when the bounds-checked
//!    jump-table idiom is proven ([`crate::solve_jump_table`]).
//! 2. **Indirect calls** are skipped (fallthrough only).
//! 3. **Tail calls** are not detected — `jmp` targets are decoded as code
//!    but never promoted to function starts.
//! 4. **Non-returning functions** are detected by an iterative fixpoint,
//!    with `error`/`error_at_line` handled by a backward slice of the
//!    first argument (returning only when it provably flows from zero).
//!
//! Performance architecture (the part the paper only gestures at with
//! its timing table): instructions live in a flat [`Vec<Inst>`] indexed
//! by a dense byte-offset table over `.text`, so `at`/visited checks are
//! O(1) and predecessor scans walk at most [`MAX_INST_LEN`] bytes.
//!
//! A walk is a pure function of (seeds, non-returning set, options) as
//! long as no two decoded instructions overlap. Its two reads of the
//! code before an instruction — a jump table's window and an `error`
//! call's status line (`status_at`) — are re-tried against the
//! closure's contiguous chain whenever the work queue drains, and a
//! chain that grows backward can only turn "unsolved" into "solved" or
//! "unknown" into a verdict. The walk counts every instruction's
//! in-edges. A [`RecEngine`] keeps the decode cache and that walk across
//! calls, which buys two things: a grown seed set extends the walk in
//! place, and a non-return round that adds call targets deletes exactly
//! the code a walk from the seeds would now leave out (`rederive`).
//!
//! Overlapping instructions (only misaligned seeds decode them) break
//! the order-freedom: the nearer of two overlapping predecessors ends a
//! chain, so a chain depends on which was decoded first. Non-return
//! rounds then walk afresh; an extension still walks in place, so its
//! answer there can differ from a walk of the grown seed set from
//! scratch, as it always could.

use crate::jumptable::{solve_jump_table, JumpTable, JT_WINDOW};
use crate::nonreturn::{classify_noreturn, ErrorCallPolicy};
use fetch_binary::{Binary, Section};
use fetch_x64::{decode, DecodeError, Flow, Inst, MAX_INST_LEN};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// Maximum outer fixpoint rounds for non-return analysis. The cap is
/// reached on real inputs, so it is part of the result's definition.
const NORETURN_ROUNDS: usize = 4;

/// Options for [`recursive_disassemble`].
#[derive(Debug, Clone, PartialEq)]
pub struct RecOptions {
    /// Promote direct-call targets to function starts (the paper's
    /// `Rec` layer does; pure FDE extraction does not run recursion).
    pub add_call_targets: bool,
    /// Solve bounds-checked jump tables.
    pub solve_jump_tables: bool,
    /// Addresses of `error`/`error_at_line`-style conditionally
    /// non-returning functions (resolved from dynamic-symbol knowledge).
    /// Shared by reference so per-layer re-runs never copy the set.
    pub error_funcs: Arc<BTreeSet<u64>>,
    /// How call sites of `error_funcs` are treated.
    pub error_policy: ErrorCallPolicy,
}

impl Default for RecOptions {
    fn default() -> Self {
        RecOptions {
            add_call_targets: true,
            solve_jump_tables: true,
            error_funcs: Arc::new(BTreeSet::new()),
            error_policy: ErrorCallPolicy::SliceZero,
        }
    }
}

const NO_SLOT: u32 = 0;

/// The instruction-level output of disassembly: a flat instruction pool
/// plus a dense byte-offset index over the decoded address range, giving
/// O(1) lookup, O(1) visited checks, and bounded predecessor scans.
#[derive(Debug, Clone, Default)]
pub struct Disassembly {
    /// First indexed virtual address (normally `.text`'s base).
    base: u64,
    /// One entry per byte: `slot + 1` of the instruction *starting* at
    /// that offset, or [`NO_SLOT`].
    index: Vec<u32>,
    /// Decoded instructions in insertion order.
    insts: Vec<Inst>,
    /// Addresses where a block walk hit undecodable bytes.
    pub decode_errors: Vec<(u64, DecodeError)>,
    /// Solved jump tables, keyed by the indirect jump's address.
    pub jump_tables: BTreeMap<u64, JumpTable>,
}

impl Disassembly {
    /// An empty disassembly pre-sized to index `[base, base + len)`.
    pub fn with_range(base: u64, len: usize) -> Disassembly {
        Disassembly {
            base,
            index: vec![NO_SLOT; len],
            // Mean x86-64 instruction length is ~4 bytes; reserving
            // range/4 slots makes pool growth during a walk the
            // exception instead of a guaranteed log2(n) realloc-copy
            // chain per walk.
            insts: Vec::with_capacity(len / 4),
            ..Disassembly::default()
        }
    }

    fn offset_of(&self, addr: u64) -> Option<usize> {
        if addr < self.base {
            return None;
        }
        let off = (addr - self.base) as usize;
        (off < self.index.len()).then_some(off)
    }

    /// The dense slot of the instruction starting at `addr`, if any.
    /// Slots are unique per instruction and `< self.len()` — usable as
    /// indices into caller-side scratch tables.
    pub fn slot(&self, addr: u64) -> Option<usize> {
        let off = self.offset_of(addr)?;
        match self.index[off] {
            NO_SLOT => None,
            s => Some((s - 1) as usize),
        }
    }

    /// The instruction stored in `slot` (see [`Disassembly::slot`]).
    pub fn inst_in_slot(&self, slot: usize) -> &Inst {
        &self.insts[slot]
    }

    /// The instruction at `addr`, if decoded.
    #[inline]
    pub fn at(&self, addr: u64) -> Option<&Inst> {
        self.slot(addr).map(|s| &self.insts[s])
    }

    /// Whether an instruction was decoded at `addr` (O(1) — this is the
    /// engine's visited check).
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        self.slot(addr).is_some()
    }

    /// The half-open address window this store indexes, as
    /// `(base, length_in_bytes)` — normally exactly `.text`'s range.
    /// Every decoded instruction starts inside it; bulk consumers
    /// (e.g. the xref index) use it to bucket by byte offset.
    pub fn indexed_range(&self) -> (u64, usize) {
        (self.base, self.index.len())
    }

    /// Number of decoded instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether nothing was decoded.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// Inserts `inst`, growing the index as needed. Re-inserting at an
    /// already-occupied address replaces the instruction.
    pub fn insert(&mut self, inst: Inst) {
        if self.index.is_empty() {
            self.base = inst.addr;
        } else if inst.addr < self.base {
            let shift = (self.base - inst.addr) as usize;
            self.index.splice(0..0, std::iter::repeat_n(NO_SLOT, shift));
            self.base = inst.addr;
        }
        let off = (inst.addr - self.base) as usize;
        if off >= self.index.len() {
            self.index.resize(off + 1, NO_SLOT);
        }
        match self.index[off] {
            NO_SLOT => {
                self.insts.push(inst);
                self.index[off] = self.insts.len() as u32;
            }
            s => self.insts[(s - 1) as usize] = inst,
        }
    }

    /// Removes the instruction in `slot`, moving the pool's last
    /// instruction into it (the pool stays compact; slots above `slot`
    /// other than the last keep their number).
    fn remove_slot(&mut self, slot: usize) {
        let off = (self.insts[slot].addr - self.base) as usize;
        self.index[off] = NO_SLOT;
        self.insts.swap_remove(slot);
        if let Some(moved) = self.insts.get(slot) {
            let off = (moved.addr - self.base) as usize;
            self.index[off] = slot as u32 + 1;
        }
    }

    /// All decoded instructions in unspecified order (storage order).
    /// Same multiset as [`Disassembly::iter`] — replacement happens in
    /// place, so the pool holds exactly the live instructions — but
    /// without the per-byte index scan; prefer it for order-insensitive
    /// consumers (set builders, sorted accumulators).
    pub fn iter_unordered(&self) -> impl Iterator<Item = &Inst> + '_ {
        self.insts.iter()
    }

    /// All decoded instructions in address order.
    pub fn iter(&self) -> impl Iterator<Item = &Inst> + '_ {
        self.index.iter().filter_map(|&s| match s {
            NO_SLOT => None,
            s => Some(&self.insts[(s - 1) as usize]),
        })
    }

    /// Decoded instructions strictly before `addr`, in *descending*
    /// address order (the dense replacement for `range(..addr).rev()`).
    pub fn iter_rev_before(&self, addr: u64) -> impl Iterator<Item = &Inst> + '_ {
        let end = if addr <= self.base {
            0
        } else {
            ((addr - self.base) as usize).min(self.index.len())
        };
        self.index[..end].iter().rev().filter_map(|&s| match s {
            NO_SLOT => None,
            s => Some(&self.insts[(s - 1) as usize]),
        })
    }

    /// The instruction that straight-line precedes `addr` (its end equals
    /// `addr`), if any. O([`MAX_INST_LEN`]): scans the dense index back.
    pub fn prev_contiguous(&self, addr: u64) -> Option<&Inst> {
        self.prev_slot(addr, &|_| true).map(|s| &self.insts[s])
    }

    /// [`Disassembly::prev_contiguous`] over only the slots `present`
    /// admits, as a slot.
    fn prev_slot(&self, addr: u64, present: &impl Fn(usize) -> bool) -> Option<usize> {
        let off = if addr <= self.base {
            return None;
        } else {
            ((addr - self.base) as usize).min(self.index.len())
        };
        let lo = off.saturating_sub(MAX_INST_LEN);
        for o in (lo..off).rev() {
            match self.index[o] {
                NO_SLOT => {}
                s if !present((s - 1) as usize) => {}
                s => {
                    let s = (s - 1) as usize;
                    return (self.insts[s].end() == addr).then_some(s);
                }
            }
        }
        None
    }

    /// Whether the instruction about to go in at byte offset `off` with
    /// length `len` would overlap one already decoded. `run_start` says
    /// nothing decoded ends exactly at `off` on the walk's way in, so
    /// an instruction before it may still cover it.
    fn overlaps(&self, off: usize, len: usize, run_start: bool) -> bool {
        let end = (off + len).min(self.index.len());
        if self.index[off + 1..end].iter().any(|&s| s != NO_SLOT) {
            return true;
        }
        run_start
            && (off.saturating_sub(MAX_INST_LEN - 1)..off)
                .rev()
                .find(|&o| self.index[o] != NO_SLOT)
                .is_some_and(|o| o + self.insts[(self.index[o] - 1) as usize].len as usize > off)
    }

    /// The nearest instruction starting at or before `addr` within one
    /// instruction length — the dense replacement for
    /// `range(..=addr).next_back()` in overlap checks. Like that
    /// replacement, `addr` may lie past the indexed range (the last
    /// instruction can still cover it).
    pub fn at_or_covering(&self, addr: u64) -> Option<&Inst> {
        if addr < self.base || self.index.is_empty() {
            return None;
        }
        let off = (addr - self.base) as usize;
        let hi = off.min(self.index.len() - 1);
        let lo = off.saturating_sub(MAX_INST_LEN - 1);
        for o in (lo..=hi).rev() {
            if self.index[o] != NO_SLOT {
                return Some(&self.insts[(self.index[o] - 1) as usize]);
            }
        }
        None
    }
}

/// The result of safe recursive disassembly.
#[derive(Debug, Clone, Default)]
pub struct RecResult {
    /// Decoded instructions and jump tables.
    pub disasm: Disassembly,
    /// Function starts: the seeds plus (optionally) direct-call targets.
    pub functions: BTreeSet<u64>,
    /// Functions classified as non-returning.
    pub noreturn: BTreeSet<u64>,
}

/// Runs safe recursive disassembly from `seeds` (typically FDE `PC Begin`s
/// plus symbols), from scratch. This is the reference entry point; use a
/// [`RecEngine`] to amortize re-runs over a growing seed set.
pub fn recursive_disassemble(bin: &Binary, seeds: &BTreeSet<u64>, opts: &RecOptions) -> RecResult {
    let mut engine = RecEngine::new();
    engine.sync_fingerprint(bin);
    let (run, _) = engine.compute(bin, seeds, opts, None);
    // The engine holds the only reference: the result moves out.
    Arc::try_unwrap(run.rec).unwrap_or_else(|rec| (*rec).clone())
}

/// Whether a call to `callee` at the end of `block` returns, under the
/// current `noreturn` assumption and the error-function policy.
pub fn call_returns(
    callee: u64,
    block: &[Inst],
    error_funcs: &BTreeSet<u64>,
    policy: ErrorCallPolicy,
    noreturn: &BTreeSet<u64>,
) -> bool {
    call_returns_status(
        callee,
        crate::nonreturn::status_arg_is_zero(block),
        error_funcs,
        policy,
        noreturn,
    )
}

/// [`call_returns`] with the status slice already folded: `status_zero`
/// is the "last `rdi` write before the call is provably zero" state the
/// walker threads forward per block (see
/// [`fold_status_zero`](crate::nonreturn::fold_status_zero)).
pub fn call_returns_status(
    callee: u64,
    status_zero: bool,
    error_funcs: &BTreeSet<u64>,
    policy: ErrorCallPolicy,
    noreturn: &BTreeSet<u64>,
) -> bool {
    if error_funcs.contains(&callee) {
        return match policy {
            ErrorCallPolicy::AlwaysReturn => true,
            ErrorCallPolicy::AlwaysNoReturn => false,
            ErrorCallPolicy::SliceZero => status_zero,
        };
    }
    !noreturn.contains(&callee)
}

/// The slots of the straight line that ends at `addr` (each one's end
/// address equals the next one's start), nearest first, among the slots
/// `present` admits.
fn line_before<'d>(
    disasm: &'d Disassembly,
    addr: u64,
    present: &'d impl Fn(usize) -> bool,
) -> impl Iterator<Item = usize> + 'd {
    let mut cur = addr;
    std::iter::from_fn(move || {
        let s = disasm.prev_slot(cur, present)?;
        cur = disasm.insts[s].addr;
        Some(s)
    })
}

/// Collects up to `n` instructions that straight-line precede `inst`,
/// ending with `inst` itself — the slicing window for jump-table
/// recognition.
fn backward_context(
    disasm: &Disassembly,
    inst: Inst,
    n: usize,
    present: &impl Fn(usize) -> bool,
) -> Vec<Inst> {
    let mut chain: Vec<Inst> = line_before(disasm, inst.addr, present)
        .take(n)
        .map(|s| disasm.insts[s])
        .collect();
    chain.reverse();
    chain.push(inst);
    chain
}

/// Whether an instruction is the last one the straight line into an
/// `error` call reads: it writes the status argument, or does not fall
/// through (so the line does not run on into the call).
fn ends_status_line(inst: &Inst) -> Option<bool> {
    match inst.flow() {
        Flow::Jump(_) | Flow::IndirectJump | Flow::Ret | Flow::Halt | Flow::Trap => Some(false),
        _ => crate::nonreturn::rdi_write(inst),
    }
}

/// The status argument of the `error` call at `call`, read from the
/// straight line of decoded instructions that runs into it (§IV-C's
/// backward slice): `Some(zero)` at the last write to `rdi`, or
/// `Some(false)` where the line starts after an instruction that does
/// not fall through; `None` when the line runs into bytes not decoded,
/// which more code may still settle. It reads the decoded code alone, so
/// it does not depend on the order a walk decoded it in.
fn status_at(disasm: &Disassembly, call: u64, present: &impl Fn(usize) -> bool) -> Option<bool> {
    line_before(disasm, call, present).find_map(|s| ends_status_line(&disasm.insts[s]))
}

/// A dense pure-function cache of `decode` over `.text`: byte offset →
/// decoded instruction or error. Text bytes never change, so entries
/// stay valid across every walk, making fixpoint re-walks decode-free.
#[derive(Debug, Clone, Default)]
struct DecodeCache {
    base: u64,
    /// `slot + 1` into `insts`, [`NO_SLOT`] for unknown, `u32::MAX` for
    /// a cached decode error.
    index: Vec<u32>,
    insts: Vec<Inst>,
    errors: BTreeMap<u64, DecodeError>,
    /// Lookups answered from the cache. Monotone for the engine's
    /// lifetime (a fingerprint reset clears entries, not counters), so
    /// callers can difference them across an operation.
    hits: u64,
    /// Lookups that had to run the decoder.
    misses: u64,
}

const ERR_SLOT: u32 = u32::MAX;

impl DecodeCache {
    fn reset(&mut self, base: u64, len: usize) {
        self.base = base;
        self.index.clear();
        self.index.resize(len, NO_SLOT);
        self.insts.clear();
        self.errors.clear();
    }

    /// Whether decoding at `addr` is known to fail.
    fn is_error(&self, addr: u64) -> bool {
        addr >= self.base && self.index.get((addr - self.base) as usize) == Some(&ERR_SLOT)
    }

    /// `decode(text, addr)` through the cache, with the byte offset
    /// already in hand (walkers compute it once per step and share it
    /// with the dense store, whose index covers the same range).
    /// `addr` must be in `text`.
    fn decode_at_off(
        &mut self,
        text: &Section,
        addr: u64,
        off: usize,
    ) -> Result<Inst, DecodeError> {
        match self.index[off] {
            NO_SLOT => {}
            ERR_SLOT => {
                self.hits += 1;
                return Err(self.errors[&addr]);
            }
            s => {
                self.hits += 1;
                return Ok(self.insts[(s - 1) as usize]);
            }
        }
        self.misses += 1;
        match decode(text.slice_from(addr).expect("in range"), addr) {
            Ok(inst) => {
                self.insts.push(inst);
                self.index[off] = self.insts.len() as u32;
                Ok(inst)
            }
            Err(e) => {
                self.errors.insert(addr, e);
                self.index[off] = ERR_SLOT;
                Err(e)
            }
        }
    }
}

/// How the walk reached an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    /// A seed.
    Root,
    /// A direct call.
    Call,
    /// Any other edge: fall-through, jump, conditional jump, jump table.
    Flow,
}

/// One pool slot's in-edge counts and its own call fall-through. The
/// prune reads them to tell code that stays reachable from code that
/// only a cut edge reached.
#[derive(Debug, Clone, Copy, Default)]
struct SlotEdges {
    /// Edges into the instruction from decoded instructions, one per
    /// edge the walk followed (see [`for_each_edge`]).
    preds: u32,
    /// How many of `preds` are direct calls.
    calls: u32,
    /// A seed starts here.
    root: bool,
    /// The block walk went on past the instruction. [`for_each_edge`]
    /// reads it only for a direct call, whose fall-through a later round
    /// cuts when the callee turns non-returning.
    falls: bool,
}

impl SlotEdges {
    fn enter(&mut self, edge: Edge) {
        match edge {
            Edge::Root => self.root = true,
            Edge::Call => {
                self.preds += 1;
                self.calls += 1;
            }
            Edge::Flow => self.preds += 1,
        }
    }
}

/// Calls `f(target, is_call)` for every edge out of `inst` the walk
/// follows, given the slot's recorded call fall-through `falls`. Targets
/// outside `.text` are included; the walk never enters them.
fn for_each_edge(
    inst: &Inst,
    falls: bool,
    tables: &BTreeMap<u64, JumpTable>,
    mut f: impl FnMut(u64, bool),
) {
    match inst.flow() {
        Flow::Fallthrough | Flow::IndirectCall => f(inst.end(), false),
        Flow::Call(t) => {
            f(t, true);
            if falls {
                f(inst.end(), false);
            }
        }
        Flow::Jump(t) => f(t, false),
        Flow::CondJump(t) => {
            f(t, false);
            f(inst.end(), false);
        }
        Flow::IndirectJump => {
            if let Some(jt) = tables.get(&inst.addr) {
                for &t in &jt.targets {
                    f(t, false);
                }
            }
        }
        Flow::Ret | Flow::Halt | Flow::Trap => {}
    }
}

/// Removes one counted edge into `target`: from its slot's counts, or
/// the decode-error entry the edge left when `target` is undecodable.
fn drop_edge(disasm: &mut Disassembly, slots: &mut [SlotEdges], target: u64, call: bool) {
    let Some(off) = disasm.offset_of(target) else {
        return; // outside .text: never entered
    };
    match disasm.index[off] {
        NO_SLOT => {
            let entry = disasm.decode_errors.iter().position(|&(a, _)| a == target);
            debug_assert!(entry.is_some(), "edge into {target:#x} left no trace");
            if let Some(i) = entry {
                disasm.decode_errors.swap_remove(i);
            }
        }
        s => {
            let e = &mut slots[(s - 1) as usize];
            e.preds -= 1;
            if call {
                e.calls -= 1;
            }
        }
    }
}

/// A walk's bookkeeping beside the result it builds.
#[derive(Debug, Clone, Default)]
struct WalkBook {
    /// Parallel to the disassembly's instruction pool.
    slots: Vec<SlotEdges>,
    /// Indirect jumps that did not solve against a chain shorter than
    /// the solver's window; a walk that grows the chain re-tries them.
    pending_jumps: Vec<u64>,
    /// `error` calls whose status line runs into bytes not decoded (see
    /// [`status_at`]); a walk that grows the line re-tries them.
    pending_calls: Vec<u64>,
    /// Two decoded instructions overlap. A chain then depends on which
    /// one was decoded first, so non-return rounds walk afresh instead of
    /// pruning this walk.
    overlap: bool,
}

/// A walk over the engine's result and bookkeeping.
struct Walk<'a> {
    bin: &'a Binary,
    opts: &'a RecOptions,
    cache: &'a mut DecodeCache,
    rec: &'a mut RecResult,
    book: &'a mut WalkBook,
}

/// A walk from `seeds` over an empty disassembly, under `noreturn`.
fn walk_full(
    bin: &Binary,
    opts: &RecOptions,
    cache: &mut DecodeCache,
    seeds: &BTreeSet<u64>,
    noreturn: BTreeSet<u64>,
) -> (RecResult, WalkBook) {
    let text = bin.text();
    let mut rec = RecResult {
        disasm: Disassembly::with_range(text.addr, text.bytes.len()),
        functions: seeds
            .iter()
            .copied()
            .filter(|a| text.contains(*a))
            .collect(),
        noreturn,
    };
    let mut book = WalkBook {
        slots: Vec::with_capacity(rec.disasm.insts.capacity()),
        ..WalkBook::default()
    };
    let work = rec.functions.iter().map(|&a| (a, Edge::Root)).collect();
    Walk {
        bin,
        opts,
        cache,
        rec: &mut rec,
        book: &mut book,
    }
    .walk(work);
    (rec, book)
}

impl Walk<'_> {
    /// Adds `seeds` (those inside `.text`) to the walk. Returns whether
    /// the result changed.
    fn add_seeds(&mut self, seeds: &[u64]) -> bool {
        let text = self.bin.text();
        let mut changed = false;
        let mut work = VecDeque::new();
        for &a in seeds {
            if text.contains(a) {
                changed |= self.rec.functions.insert(a);
                work.push_back((a, Edge::Root));
            }
        }
        self.walk(work) | changed
    }

    /// Walks `work` to its closure, counting every edge, and re-tries the
    /// pending jump tables and `error` calls each time the queue drains.
    /// Returns whether the result changed.
    fn walk(&mut self, mut work: VecDeque<(u64, Edge)>) -> bool {
        let text = self.bin.text();
        let opts = self.opts;
        let slice_status = opts.error_policy == ErrorCallPolicy::SliceZero;
        // Call targets are not probed mid-walk (the work queue dedups
        // through the index), so accumulate them flat and bulk-merge.
        let mut new_call_targets: Vec<u64> = Vec::new();
        let mut changed = false;
        loop {
            let disasm = &mut self.rec.disasm;
            let slots = &mut self.book.slots;
            // The disassembly is always pre-sized to exactly `.text`'s
            // range, so one offset computation serves the visited check,
            // the decode-cache lookup, and the insert below.
            debug_assert_eq!(disasm.base, text.addr);
            debug_assert_eq!(disasm.index.len(), text.bytes.len());
            while let Some((start, edge)) = work.pop_front() {
                let Some(off) = disasm.offset_of(start) else {
                    continue; // outside .text
                };
                if disasm.index[off] != NO_SLOT {
                    slots[(disasm.index[off] - 1) as usize].enter(edge);
                    continue; // already decoded
                }
                changed = true;
                // Walk one basic block (up to a terminator or known code).
                let mut edge = edge;
                let mut cur = start;
                let mut off = off;
                loop {
                    let inst = match self.cache.decode_at_off(text, cur, off) {
                        Ok(i) => i,
                        Err(e) => {
                            disasm.decode_errors.push((cur, e));
                            break;
                        }
                    };
                    self.book.overlap |= disasm.overlaps(off, inst.len as usize, cur == start);
                    disasm.insts.push(inst);
                    disasm.index[off] = disasm.insts.len() as u32;
                    let mut slot = SlotEdges::default();
                    slot.enter(edge);
                    slot.falls = match inst.flow() {
                        Flow::Fallthrough | Flow::IndirectCall => true,
                        Flow::Call(t) => {
                            if text.contains(t) {
                                new_call_targets.push(t);
                                work.push_back((t, Edge::Call));
                            }
                            let status_zero = slice_status
                                && opts.error_funcs.contains(&t)
                                && match status_at(disasm, inst.addr, &|_| true) {
                                    Some(zero) => zero,
                                    None => {
                                        self.book.pending_calls.push(inst.addr);
                                        false
                                    }
                                };
                            call_returns_status(
                                t,
                                status_zero,
                                &opts.error_funcs,
                                opts.error_policy,
                                &self.rec.noreturn,
                            )
                        }
                        Flow::Jump(t) => {
                            if text.contains(t) {
                                work.push_back((t, Edge::Flow));
                            }
                            false
                        }
                        Flow::CondJump(t) => {
                            if text.contains(t) {
                                work.push_back((t, Edge::Flow));
                            }
                            work.push_back((inst.end(), Edge::Flow));
                            false
                        }
                        Flow::IndirectJump => {
                            if opts.solve_jump_tables {
                                // The bounds check usually sits in a
                                // predecessor block; rebuild a straight-line
                                // backward context from contiguously decoded
                                // instructions.
                                let ctx = backward_context(disasm, inst, JT_WINDOW, &|_| true);
                                match solve_jump_table(&ctx, &inst, self.bin) {
                                    Some(jt) => {
                                        work.extend(jt.targets.iter().map(|&t| (t, Edge::Flow)));
                                        disasm.jump_tables.insert(inst.addr, jt);
                                    }
                                    // The chain may still grow backward.
                                    None if ctx.len() <= JT_WINDOW => {
                                        self.book.pending_jumps.push(inst.addr)
                                    }
                                    None => {}
                                }
                            }
                            false
                        }
                        Flow::Ret | Flow::Halt | Flow::Trap => false,
                    };
                    slots.push(slot);
                    if !slot.falls {
                        break;
                    }
                    cur = inst.end();
                    off += inst.len as usize;
                    if off >= disasm.index.len() {
                        break; // left .text
                    }
                    if disasm.index[off] != NO_SLOT {
                        slots[(disasm.index[off] - 1) as usize].enter(Edge::Flow);
                        break; // reached known code
                    }
                    edge = Edge::Flow;
                }
            }
            if !self.retry_pending(&mut work) {
                break;
            }
        }

        new_call_targets.sort_unstable();
        new_call_targets.dedup();
        if opts.add_call_targets {
            let before = self.rec.functions.len();
            self.rec.functions.extend(new_call_targets);
            changed |= self.rec.functions.len() != before;
        }
        changed
    }

    /// Re-tries the pending jump tables and `error` calls against the
    /// current chains, queueing the targets of the tables that solve and
    /// the fall-through of the calls whose status settles to zero.
    /// Returns whether anything was queued.
    fn retry_pending(&mut self, work: &mut VecDeque<(u64, Edge)>) -> bool {
        let disasm = &mut self.rec.disasm;
        let book = &mut *self.book;
        let mut queued = false;
        let mut i = 0;
        while i < book.pending_jumps.len() {
            let inst = *disasm
                .at(book.pending_jumps[i])
                .expect("pending jumps are decoded");
            let ctx = backward_context(disasm, inst, JT_WINDOW, &|_| true);
            if let Some(jt) = solve_jump_table(&ctx, &inst, self.bin) {
                work.extend(jt.targets.iter().map(|&t| (t, Edge::Flow)));
                disasm.jump_tables.insert(inst.addr, jt);
                queued = true;
            } else if ctx.len() <= JT_WINDOW {
                i += 1;
                continue;
            }
            book.pending_jumps.swap_remove(i);
        }
        let mut i = 0;
        while i < book.pending_calls.len() {
            let at = book.pending_calls[i];
            match status_at(disasm, at, &|_| true) {
                None => {
                    i += 1;
                    continue;
                }
                Some(true) => {
                    let s = disasm.slot(at).expect("pending calls are decoded");
                    book.slots[s].falls = true;
                    work.push_back((disasm.insts[s].end(), Edge::Flow));
                    queued = true;
                }
                Some(false) => {}
            }
            book.pending_calls.swap_remove(i);
        }
        queued
    }

    /// Applies a non-return round that only added functions (`added`):
    /// cuts the fall-through of every call into one of them, then deletes
    /// exactly the code a walk from the seeds would now leave out (see
    /// [`rederive`]), and drops the call targets whose last call site
    /// went from the functions. Returns `false` when a re-solved table found a
    /// *different* answer (only overlapping code can do that; the caller
    /// walks afresh).
    fn prune(&mut self, added: &BTreeSet<u64>, seeds: &BTreeSet<u64>) -> bool {
        let text = self.bin.text();
        let opts = self.opts;
        let disasm = &mut self.rec.disasm;
        let slots = &mut self.book.slots;
        let mut starts: Vec<u64> = Vec::new();
        let mut status_calls: Vec<usize> = Vec::new();
        for (s, (inst, slot)) in disasm.insts.iter().zip(slots.iter_mut()).enumerate() {
            let Flow::Call(t) = inst.flow() else {
                continue;
            };
            if !slot.falls {
                continue;
            }
            if opts.error_funcs.contains(&t) {
                // `error`-style callees follow the policy, not the set.
                if opts.error_policy == ErrorCallPolicy::SliceZero {
                    status_calls.push(s);
                }
            } else if added.contains(&t) {
                slot.falls = false;
                starts.push(inst.end());
            }
        }
        for &a in &starts {
            drop_edge(disasm, slots, a, false);
        }
        let Some(Rederived { dead, failed }) =
            rederive(disasm, slots, self.bin, &starts, &status_calls)
        else {
            return false;
        };

        // The conditional edges that no longer hold (their sources all
        // survive) go first.
        let mut unsolved: Vec<u64> = Vec::new();
        let mut unsettled: Vec<u64> = Vec::new();
        for &c in &failed {
            let inst = disasm.insts[c];
            match inst.flow() {
                Flow::IndirectJump => {
                    let jt = disasm
                        .jump_tables
                        .remove(&inst.addr)
                        .expect("conditional jumps have tables");
                    for &t in &jt.targets {
                        drop_edge(disasm, slots, t, false);
                    }
                    unsolved.push(inst.addr);
                }
                Flow::Call(_) => {
                    slots[c].falls = false;
                    drop_edge(disasm, slots, inst.end(), false);
                    unsettled.push(inst.addr);
                }
                _ => unreachable!("only jumps and calls have conditional edges"),
            }
        }
        let mut lost_calls: Vec<u64> = Vec::new();
        delete(disasm, self.book, dead, &mut lost_calls);
        let book = &mut *self.book;
        // What failed may still turn back on once the line grows again.
        for j in unsolved {
            let inst = *disasm.at(j).expect("survivor");
            if backward_context(disasm, inst, JT_WINDOW, &|_| true).len() <= JT_WINDOW {
                book.pending_jumps.push(j);
            }
        }
        for c in unsettled {
            if status_at(disasm, c, &|_| true).is_none() {
                book.pending_calls.push(c);
            }
        }

        // Call targets whose last call site went stop being functions
        // (seeds stay).
        lost_calls.retain(|&t| text.contains(t) && !seeds.contains(&t));
        lost_calls.sort_unstable();
        lost_calls.dedup();
        for t in lost_calls {
            let called = match disasm.slot(t) {
                Some(s) => book.slots[s].calls > 0,
                // Undecodable targets have no counts; deleted ones had
                // no surviving caller.
                None => {
                    self.cache.is_error(t) && disasm.insts.iter().any(|i| i.flow() == Flow::Call(t))
                }
            };
            if !called && opts.add_call_targets {
                self.rec.functions.remove(&t);
            }
        }
        true
    }
}

/// The outcome of taking edges out of a walk.
struct Rederived {
    /// The slots no edge from the seeds reaches any more, ascending.
    dead: Vec<usize>,
    /// The surviving jumps and `error` calls whose conditional edges no
    /// longer hold.
    failed: Vec<usize>,
}

/// The code a walk from the seeds leaves out once the edges into
/// `starts` are gone (delete and re-derive).
///
/// Two kinds of edge hold only while the straight line before their
/// source reads a certain way: a jump table's targets (its window) and
/// the fall-through of an `error` call in `status_calls` (its status
/// line). The region is everything the edges into `starts` reached,
/// entered past no seed, plus, transitively, the conditional targets of
/// every source whose line runs through the region. Everything outside
/// it keeps a derivation that touches nothing inside, so it stays.
/// Inside, a slot lives when an edge from outside enters it, and liveness
/// spreads along plain edges, and along a source's conditional edges
/// once its line, read over what lives, still gives the same answer —
/// the same least fixpoint a walk from the seeds reaches. Returns `None`
/// when a table re-solves to a *different* answer.
fn rederive(
    disasm: &Disassembly,
    slots: &[SlotEdges],
    bin: &Binary,
    starts: &[u64],
    status_calls: &[usize],
) -> Option<Rederived> {
    let is_status_call = |s: usize| status_calls.binary_search(&s).is_ok();
    let to_slot = |t: u64, f: &mut dyn FnMut(usize)| {
        if let Some(ts) = disasm.slot(t) {
            f(ts);
        }
    };
    // The edges that hold whatever the line before their source reads.
    let plain_edges = |s: usize, f: &mut dyn FnMut(usize)| {
        let inst = &disasm.insts[s];
        match inst.flow() {
            Flow::IndirectJump => {}
            Flow::Call(t) if is_status_call(s) => to_slot(t, f),
            _ => for_each_edge(inst, slots[s].falls, &disasm.jump_tables, |t, _| {
                to_slot(t, f)
            }),
        }
    };
    let conditional_edges = |s: usize, f: &mut dyn FnMut(usize)| {
        let inst = &disasm.insts[s];
        match inst.flow() {
            Flow::IndirectJump => {
                if let Some(jt) = disasm.jump_tables.get(&inst.addr) {
                    for &t in &jt.targets {
                        to_slot(t, f);
                    }
                }
            }
            Flow::Call(_) if is_status_call(s) => to_slot(inst.end(), f),
            _ => {}
        }
    };
    let is_conditional = |s: usize| match disasm.insts[s].flow() {
        Flow::IndirectJump => disasm.jump_tables.contains_key(&disasm.insts[s].addr),
        _ => is_status_call(s),
    };
    // Whether the line `s`'s conditional edges read runs through `region`.
    let every = |_: usize| true;
    let reads = |s: usize, region: &HashMap<usize, u32>| {
        let mut line = line_before(disasm, disasm.insts[s].addr, &every);
        match disasm.insts[s].flow() {
            Flow::IndirectJump => line.take(JT_WINDOW).any(|p| region.contains_key(&p)),
            _ => line
                .find(|&p| region.contains_key(&p) || ends_status_line(&disasm.insts[p]).is_some())
                .is_some_and(|p| region.contains_key(&p)),
        }
    };

    // Region slot → edges into it from inside the region.
    let mut region: HashMap<usize, u32> = HashMap::new();
    let mut order: Vec<usize> = Vec::new();
    let mut stack: Vec<usize> = starts.iter().filter_map(|&a| disasm.slot(a)).collect();
    // Conditional sources outside the region that read into it.
    let mut readers: Vec<usize> = Vec::new();
    let mut others: Vec<usize> = disasm
        .jump_tables
        .keys()
        .filter_map(|&j| disasm.slot(j))
        .chain(status_calls.iter().copied())
        .collect();
    loop {
        while let Some(s) = stack.pop() {
            if slots[s].root || region.contains_key(&s) {
                continue;
            }
            region.insert(s, 0);
            order.push(s);
            plain_edges(s, &mut |t| stack.push(t));
            conditional_edges(s, &mut |t| stack.push(t));
        }
        if order.is_empty() {
            break;
        }
        others.retain(|&c| {
            if region.contains_key(&c) {
                return false;
            }
            if !reads(c, &region) {
                return true;
            }
            readers.push(c);
            conditional_edges(c, &mut |t| stack.push(t));
            false
        });
        if stack.is_empty() {
            break;
        }
    }

    let mut count_in = |t: usize| {
        if let Some(n) = region.get_mut(&t) {
            *n += 1;
        }
    };
    for &s in &order {
        plain_edges(s, &mut count_in);
        conditional_edges(s, &mut count_in);
    }
    for &c in &readers {
        conditional_edges(c, &mut count_in);
    }
    let mut alive: HashSet<usize> = order
        .iter()
        .copied()
        .filter(|s| slots[*s].preds > region[s])
        .collect();
    let mut live: Vec<usize> = alive.iter().copied().collect();
    // Conditional sources that live (or stay outside) whose edges are
    // not taken yet.
    let mut waiting: Vec<usize> = readers;
    loop {
        while let Some(s) = live.pop() {
            plain_edges(s, &mut |t| {
                if region.contains_key(&t) && alive.insert(t) {
                    live.push(t);
                }
            });
            if is_conditional(s) {
                waiting.push(s);
            }
        }
        let present = |s: usize| !region.contains_key(&s) || alive.contains(&s);
        let mut opened: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < waiting.len() {
            let c = waiting[i];
            let inst = disasm.insts[c];
            let holds = match inst.flow() {
                Flow::IndirectJump => {
                    let ctx = backward_context(disasm, inst, JT_WINDOW, &present);
                    match solve_jump_table(&ctx, &inst, bin) {
                        Some(jt) if jt == disasm.jump_tables[&inst.addr] => true,
                        Some(_) => return None,
                        None => false,
                    }
                }
                _ => status_at(disasm, inst.addr, &present) == Some(true),
            };
            if holds {
                opened.push(waiting.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if opened.is_empty() {
            break;
        }
        for c in opened {
            conditional_edges(c, &mut |t| {
                if region.contains_key(&t) && alive.insert(t) {
                    live.push(t);
                }
            });
        }
    }
    order.retain(|s| !alive.contains(s));
    order.sort_unstable();
    Some(Rederived {
        dead: order,
        failed: waiting,
    })
}

/// Deletes the `dead` slots (ascending): drops their edges into surviving
/// code, their jump tables and pending entries, and compacts the pool.
/// Records the call targets they called in `lost_calls`.
fn delete(
    disasm: &mut Disassembly,
    book: &mut WalkBook,
    dead: Vec<usize>,
    lost_calls: &mut Vec<u64>,
) {
    let slots = &mut book.slots;
    let mut survivors_hit: Vec<(u64, bool)> = Vec::new();
    for &d in &dead {
        for_each_edge(
            &disasm.insts[d],
            slots[d].falls,
            &disasm.jump_tables,
            |t, call| {
                if call {
                    lost_calls.push(t);
                }
                if disasm
                    .slot(t)
                    .is_none_or(|s| dead.binary_search(&s).is_err())
                {
                    survivors_hit.push((t, call));
                }
            },
        );
    }
    for (t, call) in survivors_hit {
        drop_edge(disasm, slots, t, call);
    }
    let mut addrs: Vec<u64> = dead.iter().map(|&d| disasm.insts[d].addr).collect();
    for a in &addrs {
        disasm.jump_tables.remove(a);
    }
    addrs.sort_unstable();
    let gone = |a: &u64| addrs.binary_search(a).is_ok();
    book.pending_jumps.retain(|a| !gone(a));
    book.pending_calls.retain(|a| !gone(a));
    // Highest slot first: each removal moves the pool's last instruction
    // down, and that one is never a dead slot still to be removed.
    for &d in dead.iter().rev() {
        disasm.remove_slot(d);
        slots.swap_remove(d);
    }
}

/// An incremental driver for [`recursive_disassemble`]-equivalent runs.
///
/// The engine persists two things across calls: a dense decode cache
/// (text bytes never change, so decoded instructions are reused by every
/// later walk) and the previous run's walk with its edge counts. A
/// re-run whose options match and whose seed set only *grew* extends
/// that walk from the added seeds, in place; a re-run with identical
/// inputs returns the cached result outright; anything else walks from
/// scratch (decode-free). Within a run, the non-return fixpoint edits
/// the walk in place too (see [`RecWorkStats`]). An extension's rounds
/// start from the previous run's non-returning set, so where the
/// fixpoint has more than one answer (or hits the round cap) the result
/// follows the engine's history.
#[derive(Debug, Clone, Default)]
pub struct RecEngine {
    cache: DecodeCache,
    /// (name, text base, text content hash) of the binary the cache
    /// belongs to; a mismatch on any component drops all cached state.
    fingerprint: Option<(String, u64, u64)>,
    last: Option<LastRun>,
    generation: u64,
    stats: RecWorkStats,
}

/// What a [`RecEngine`] has done, monotone for its lifetime like
/// [`RecEngine::decode_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecWorkStats {
    /// Walks from the seeds over an empty disassembly, fallbacks
    /// included.
    pub full_walks: u64,
    /// Walks that extended the previous walk from added seeds.
    pub extension_walks: u64,
    /// Non-return rounds applied by deleting the cut code in place.
    pub pruned_rounds: u64,
    /// Non-return rounds that walked from scratch instead of pruning: a
    /// call target turned returning again, a re-solved jump table
    /// changed, or the walk holds overlapping instructions.
    pub fallback_walks: u64,
    /// Non-return classification rounds.
    pub classify_rounds: u64,
    /// Functions classified, summed over rounds (each round classifies
    /// every function).
    pub functions_classified: u64,
    /// `error`-call status slices the classification rounds read (see
    /// [`NoreturnClasses::status_slices`](crate::NoreturnClasses)).
    pub status_slices: u64,
    /// Runs whose non-return fixpoint stopped at the round cap.
    pub cap_hits: u64,
}

/// FNV-1a over 8-byte chunks — fast enough to run per [`RecEngine::run`]
/// call, strong enough that handing the engine a *different* binary with
/// identical name and text placement (e.g. an in-place patched image)
/// cannot silently reuse stale decode state.
///
/// Public because the delta digest (`fetch_core::ImageDigest`) records
/// the same hash of each version's text.
pub fn text_content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    for &b in chunks.remainder() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[derive(Debug, Clone)]
struct LastRun {
    seeds: BTreeSet<u64>,
    opts: RecOptions,
    /// The run's result, shared with callers. The next run edits it in
    /// place once they have released it (and copies it otherwise).
    rec: Arc<RecResult>,
    book: WalkBook,
}

impl RecEngine {
    /// A fresh engine with an empty cache.
    pub fn new() -> RecEngine {
        RecEngine::default()
    }

    /// Runs safe recursive disassembly, reusing previous work where the
    /// inputs allow. Equal to [`recursive_disassemble`] on the same
    /// `(bin, seeds, opts)` except where an extension's history shows
    /// (see [`RecEngine`] and the module docs).
    pub fn run(&mut self, bin: &Binary, seeds: &BTreeSet<u64>, opts: &RecOptions) -> RecResult {
        (*self.run_shared(bin, seeds, opts)).clone()
    }

    /// [`RecEngine::run`] returning a shared handle to the result, which
    /// is also the engine's own walk: a caller that drops the handle
    /// before the next run lets that run edit the walk in place instead
    /// of copying it.
    pub fn run_shared(
        &mut self,
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
    ) -> Arc<RecResult> {
        self.sync_fingerprint(bin);

        // Identical inputs: the previous result stands (and the
        // generation does not advance — callers may key caches off it).
        if let Some(last) = &self.last {
            if last.opts == *opts && last.seeds == *seeds {
                return Arc::clone(&last.rec);
            }
        }

        let last = self.last.take();
        let (run, changed) = self.compute(bin, seeds, opts, last);
        let rec = Arc::clone(&run.rec);
        self.last = Some(run);
        if changed {
            self.generation += 1;
        }
        rec
    }

    /// Monotone counter advanced whenever a run changed the result;
    /// unchanged on the identical-input fast path and on extensions that
    /// added nothing. Callers invalidate derived caches only when this
    /// moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// `(hits, misses)` of the decode cache, monotone for the engine's
    /// lifetime (a binary-fingerprint reset drops cached entries but not
    /// the counters). Instrumentation layers difference these across an
    /// operation to attribute decode work to it.
    pub fn decode_stats(&self) -> (u64, u64) {
        (self.cache.hits, self.cache.misses)
    }

    /// The engine's walk and classification work so far.
    pub fn work_stats(&self) -> RecWorkStats {
        self.stats
    }

    fn sync_fingerprint(&mut self, bin: &Binary) {
        let text = bin.text();
        let fp = (bin.name.clone(), text.addr, text_content_hash(&text.bytes));
        if self.fingerprint.as_ref() != Some(&fp) {
            self.cache.reset(text.addr, text.bytes.len());
            self.fingerprint = Some(fp);
            self.last = None;
        }
    }

    /// A full walk under `noreturn`, counted.
    fn walk_full(
        &mut self,
        bin: &Binary,
        opts: &RecOptions,
        seeds: &BTreeSet<u64>,
        noreturn: BTreeSet<u64>,
    ) -> (Arc<RecResult>, WalkBook) {
        self.stats.full_walks += 1;
        let (rec, book) = walk_full(bin, opts, &mut self.cache, seeds, noreturn);
        (Arc::new(rec), book)
    }

    /// The walk + non-return fixpoint, without result caching: extends
    /// `last` when the seed set grew under the same options, walks from
    /// scratch otherwise. The second return is whether the result
    /// differs from `last`'s.
    fn compute(
        &mut self,
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
        last: Option<LastRun>,
    ) -> (LastRun, bool) {
        let mut extended = None;
        if let Some(mut last) = last.filter(|l| l.opts == *opts && seeds.is_superset(&l.seeds)) {
            self.stats.extension_walks += 1;
            let added: Vec<u64> = seeds.difference(&last.seeds).copied().collect();
            let changed = Walk {
                bin,
                opts,
                cache: &mut self.cache,
                rec: Arc::make_mut(&mut last.rec),
                book: &mut last.book,
            }
            .add_seeds(&added);
            last.seeds.extend(added);
            extended = Some((last, changed));
        }
        let (mut run, mut changed) = match extended {
            Some(extended) => extended,
            None => {
                let (rec, book) = self.walk_full(bin, opts, seeds, BTreeSet::new());
                let run = LastRun {
                    seeds: seeds.clone(),
                    opts: opts.clone(),
                    rec,
                    book,
                };
                (run, true)
            }
        };

        // Non-return fixpoint. A round that only adds call targets to the
        // set deletes the code behind their call sites in place; one that
        // takes a call target out walks afresh; one that moves no call
        // target leaves the walk as it is.
        let mut settled = false;
        for _ in 0..NORETURN_ROUNDS {
            self.stats.classify_rounds += 1;
            let rec = &run.rec;
            let classes = classify_noreturn(
                &rec.disasm,
                &rec.functions,
                &opts.error_funcs,
                opts.error_policy,
                &rec.noreturn,
            );
            self.stats.functions_classified += rec.functions.len() as u64;
            self.stats.status_slices += classes.status_slices;
            let next = classes.noreturn;
            if next == rec.noreturn {
                settled = true;
                break;
            }
            changed = true;
            let slots = &run.book.slots;
            let is_call_target = |f: &u64| rec.disasm.slot(*f).is_some_and(|s| slots[s].calls > 0);
            let lost_one = rec.noreturn.difference(&next).any(is_call_target);
            let added: BTreeSet<u64> = next.difference(&rec.noreturn).copied().collect();
            let cuts = added.iter().any(is_call_target);
            Arc::make_mut(&mut run.rec).noreturn = next;
            match (lost_one, cuts) {
                (false, false) => continue,
                (false, true) if !run.book.overlap => {
                    self.stats.pruned_rounds += 1;
                    let pruned = Walk {
                        bin,
                        opts,
                        cache: &mut self.cache,
                        rec: Arc::make_mut(&mut run.rec),
                        book: &mut run.book,
                    }
                    .prune(&added, &run.seeds);
                    if pruned {
                        continue;
                    }
                }
                _ => {}
            }
            self.stats.fallback_walks += 1;
            let noreturn = std::mem::take(&mut Arc::make_mut(&mut run.rec).noreturn);
            (run.rec, run.book) = self.walk_full(bin, opts, &run.seeds, noreturn);
        }
        if !settled {
            self.stats.cap_hits += 1;
        }
        (run, changed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_synth::{synthesize, SynthConfig};

    fn case() -> fetch_binary::TestCase {
        let mut cfg = SynthConfig::small(99);
        cfg.n_funcs = 60;
        synthesize(&cfg)
    }

    #[test]
    fn recursion_from_fdes_finds_call_targets() {
        let case = case();
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        // Every seed survives; functions only grow.
        assert!(r.functions.is_superset(&seeds));
        // No decoded instruction lies outside .text.
        let text = case.binary.text();
        for i in r.disasm.iter() {
            assert!(text.contains(i.addr));
            assert_eq!(r.disasm.at(i.addr).unwrap().addr, i.addr);
        }
    }

    #[test]
    fn no_false_function_starts_beyond_truth_parts() {
        // Safe recursion must not invent functions: every discovered
        // start is either a true start or an FDE part start.
        let case = case();
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        let allowed = case.truth.part_starts();
        // Mislabeled FDEs (start-1) are the one permitted exception.
        let mislabeled: BTreeSet<u64> = case.truth.part_starts().iter().map(|s| s - 1).collect();
        for f in &r.functions {
            assert!(
                allowed.contains(f) || mislabeled.contains(f),
                "recursion invented function start {f:#x}"
            );
        }
    }

    #[test]
    fn noreturn_functions_are_detected() {
        let case = case();
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
        // The abort-style function (ends in ud2, no ret) must be flagged.
        let abort = case
            .truth
            .functions
            .iter()
            .find(|f| f.name == "abort_like")
            .expect("synth emits abort_like");
        assert!(
            r.noreturn.contains(&abort.entry()),
            "abort_like at {:#x} not classified noreturn",
            abort.entry()
        );
        // main returns.
        let main = case
            .truth
            .functions
            .iter()
            .find(|f| f.name == "main")
            .unwrap();
        assert!(!r.noreturn.contains(&main.entry()));
    }

    #[test]
    fn jump_tables_are_solved() {
        // At default rates some functions contain jump tables; find one
        // across a few seeds.
        let mut solved = 0;
        for seed in 0..6 {
            let mut cfg = SynthConfig::small(seed);
            cfg.n_funcs = 80;
            let case = synthesize(&cfg);
            let eh = case.binary.eh_frame().unwrap();
            let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
            let r = recursive_disassemble(&case.binary, &seeds, &RecOptions::default());
            solved += r.disasm.jump_tables.len();
            for jt in r.disasm.jump_tables.values() {
                assert!(!jt.targets.is_empty());
                for t in &jt.targets {
                    assert!(case.binary.is_code(*t));
                }
            }
        }
        assert!(solved > 0, "no jump tables solved across 6 corpora");
    }

    #[test]
    fn dense_store_round_trips_inserts() {
        let mut d = Disassembly::default();
        let mk = |addr, len| Inst {
            addr,
            len,
            op: fetch_x64::Op::Ret,
        };
        d.insert(mk(0x1004, 2));
        d.insert(mk(0x1000, 4));
        d.insert(mk(0x1010, 1));
        assert_eq!(d.len(), 3);
        assert!(d.contains(0x1000) && d.contains(0x1004) && d.contains(0x1010));
        assert!(!d.contains(0x1001) && !d.contains(0x100f));
        let addrs: Vec<u64> = d.iter().map(|i| i.addr).collect();
        assert_eq!(addrs, vec![0x1000, 0x1004, 0x1010]);
        // Contiguous predecessor chain.
        assert_eq!(d.prev_contiguous(0x1004).unwrap().addr, 0x1000);
        assert_eq!(d.prev_contiguous(0x1006).unwrap().addr, 0x1004);
        assert!(d.prev_contiguous(0x1010).is_none()); // gap before
                                                      // Reverse iteration.
        let back: Vec<u64> = d.iter_rev_before(0x1010).map(|i| i.addr).collect();
        assert_eq!(back, vec![0x1004, 0x1000]);
        // Covering lookup.
        assert_eq!(d.at_or_covering(0x1002).unwrap().addr, 0x1000);
        assert_eq!(d.at_or_covering(0x1004).unwrap().addr, 0x1004);
    }

    #[test]
    fn engine_rerun_with_same_inputs_is_stable_and_cheap() {
        let case = case();
        let eh = case.binary.eh_frame().unwrap();
        let seeds: BTreeSet<u64> = eh.pc_begins().into_iter().collect();
        let opts = RecOptions::default();
        let mut engine = RecEngine::new();
        let a = engine.run(&case.binary, &seeds, &opts);
        let b = engine.run(&case.binary, &seeds, &opts);
        assert_eq!(a.functions, b.functions);
        assert_eq!(a.noreturn, b.noreturn);
        assert_eq!(a.disasm.len(), b.disasm.len());
    }

    /// The reference fixpoint: a full walk from the seeds in every round
    /// that moves a call target. Returns the result and whether the
    /// round cap stopped it.
    fn full_walk_every_round(
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
    ) -> (RecResult, bool) {
        full_walk_every_round_from(bin, seeds, opts, BTreeSet::new())
    }

    /// [`full_walk_every_round`] from a non-return assumption carried over
    /// from an earlier run, as an engine's extension starts from.
    fn full_walk_every_round_from(
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
        noreturn: BTreeSet<u64>,
    ) -> (RecResult, bool) {
        let text = bin.text();
        let mut cache = DecodeCache::default();
        cache.reset(text.addr, text.bytes.len());
        let (mut rec, _) = walk_full(bin, opts, &mut cache, seeds, noreturn);
        for _ in 0..NORETURN_ROUNDS {
            let next = crate::classify_noreturn(
                &rec.disasm,
                &rec.functions,
                &opts.error_funcs,
                opts.error_policy,
                &rec.noreturn,
            )
            .noreturn;
            if next == rec.noreturn {
                return (rec, false);
            }
            let call_targets: BTreeSet<u64> = rec
                .disasm
                .iter_unordered()
                .filter_map(|i| match i.flow() {
                    Flow::Call(t) if text.contains(t) => Some(t),
                    _ => None,
                })
                .collect();
            if next
                .symmetric_difference(&rec.noreturn)
                .any(|f| call_targets.contains(f))
            {
                rec = walk_full(bin, opts, &mut cache, seeds, next).0;
            } else {
                rec.noreturn = next;
            }
        }
        (rec, true)
    }

    fn assert_same_walk(got: &RecResult, want: &RecResult, what: &str) {
        let addrs = |r: &RecResult| r.disasm.iter().map(|i| i.addr).collect::<Vec<u64>>();
        let errors = |r: &RecResult| {
            let mut e: Vec<u64> = r.disasm.decode_errors.iter().map(|&(a, _)| a).collect();
            e.sort_unstable();
            e
        };
        assert_eq!(addrs(got), addrs(want), "{what}: instructions");
        assert_eq!(
            got.disasm.jump_tables, want.disasm.jump_tables,
            "{what}: jump tables"
        );
        assert_eq!(errors(got), errors(want), "{what}: decode errors");
        assert_eq!(got.functions, want.functions, "{what}: functions");
        assert_eq!(got.noreturn, want.noreturn, "{what}: noreturn");
    }

    #[test]
    fn a_prune_that_cuts_a_bounds_check_unsolves_its_table() {
        // main: call nr; cmp rax, 3; ja default; L: lea r11, [rip+table];
        //       movsxd rax, [r11+rax*4]; add rax, r11; jmp rax
        // four cases and default: ud2 each
        // other: jmp L   (reaches the jump, but not its bounds check)
        // nr: ud2
        // Once `nr` is non-returning, the cut leaves the jump live with a
        // chain too short to solve: its cases go, and `other` returns.
        use fetch_binary::{BuildInfo, Section, SectionKind};
        use fetch_x64::{AluOp, Asm, Cc, Mem, Op, Reg, Rm, Width};
        let (text_base, rodata_base) = (0x40_1000u64, 0x40_2000u64);
        let mut asm = Asm::new();
        asm.call_ext(0);
        asm.push(Op::AluRI(AluOp::Cmp, Width::W64, Reg::Rax, 3));
        let default = asm.new_label();
        asm.jcc(Cc::A, default);
        let lea = asm.new_label();
        asm.bind(lea);
        asm.lea_rip_ext(Reg::R11, 1);
        asm.push(Op::Movsxd(
            Reg::Rax,
            Rm::Mem(Mem::base_index(Reg::R11, Reg::Rax, 4, 0)),
        ));
        asm.push(Op::AluRR(AluOp::Add, Width::W64, Reg::Rax, Reg::R11));
        asm.push(Op::JmpInd(Rm::Reg(Reg::Rax)));
        let cases: Vec<usize> = (0..4)
            .map(|_| {
                let at = asm.here();
                asm.push(Op::Ud2);
                at
            })
            .collect();
        asm.bind(default);
        asm.push(Op::Ud2);
        let other = asm.here();
        asm.jmp(lea);
        let nr = asm.here();
        asm.push(Op::Ud2);
        let mut out = asm.finalize().unwrap();
        let (call, table) = (out.fixups[0].pos, out.fixups[1].pos);
        out.patch_rel32(call, text_base, text_base + nr as u64);
        out.patch_rel32(table, text_base, rodata_base);
        let rodata: Vec<u8> = cases
            .iter()
            .flat_map(|&c| ((text_base + c as u64) as i32 - rodata_base as i32).to_le_bytes())
            .collect();
        let bin = Binary {
            name: "cut-bounds-check".into(),
            info: BuildInfo::gcc_o2(),
            sections: vec![
                Section::new(SectionKind::Text, text_base, out.bytes.clone()),
                Section::new(SectionKind::Rodata, rodata_base, rodata),
            ],
            symbols: vec![],
            entry: text_base,
        };
        let seeds: BTreeSet<u64> = [0, other, nr]
            .into_iter()
            .map(|o| text_base + o as u64)
            .collect();
        let opts = RecOptions::default();
        let (want, _) = full_walk_every_round(&bin, &seeds, &opts);
        assert!(want.disasm.jump_tables.is_empty());
        assert_eq!(
            want.noreturn,
            BTreeSet::from([text_base, text_base + nr as u64])
        );
        let mut engine = RecEngine::new();
        let got = engine.run_shared(&bin, &seeds, &opts);
        assert_same_walk(&got, &want, "cut bounds check");
        assert_eq!(engine.work_stats().pruned_rounds, 1);
    }

    /// A `.text`-only binary from `asm`, its `i`-th external call patched
    /// to text offset `calls[i]`, and a text offset → address map.
    fn text_binary(
        name: &str,
        asm: fetch_x64::Asm,
        calls: &[usize],
    ) -> (Binary, impl Fn(usize) -> u64) {
        use fetch_binary::{BuildInfo, Section, SectionKind};
        let base = 0x40_1000u64;
        let mut out = asm.finalize().unwrap();
        for (i, &to) in calls.iter().enumerate() {
            out.patch_rel32(out.fixups[i].pos, base, base + to as u64);
        }
        let bin = Binary {
            name: name.into(),
            info: BuildInfo::gcc_o2(),
            sections: vec![Section::new(SectionKind::Text, base, out.bytes)],
            symbols: vec![],
            entry: base,
        };
        (bin, move |off| base + off as u64)
    }

    fn xor_edi() -> fetch_x64::Op {
        use fetch_x64::{AluOp, Op, Reg, Width};
        Op::AluRR(AluOp::Xor, Width::W32, Reg::Rdi, Reg::Rdi)
    }

    #[test]
    fn a_seed_on_an_error_call_extends_like_a_full_walk() {
        // main: call f; ret
        // f: xor edi, edi; call error; ret   (reached only by the call)
        // error: ret
        // A seed on f's `call error` is walked before f's entry in a full
        // walk; the status still reads f's `xor`, so the `ret` after the
        // call stays either way.
        use fetch_x64::{Asm, Op};
        let mut asm = Asm::new();
        asm.call_ext(0);
        asm.push(Op::Ret);
        let f = asm.here();
        asm.push(xor_edi());
        let call = asm.here();
        asm.call_ext(1);
        let rest = asm.here();
        asm.push(Op::Ret);
        let error = asm.here();
        asm.push(Op::Ret);
        let (bin, at) = text_binary("error-call-seed", asm, &[f, error]);
        let opts = RecOptions {
            error_funcs: Arc::new(BTreeSet::from([at(error)])),
            ..RecOptions::default()
        };
        let base = BTreeSet::from([at(0), at(error)]);
        let mut grown = base.clone();
        grown.insert(at(call));
        let (want, _) = full_walk_every_round(&bin, &grown, &opts);
        assert!(want.disasm.contains(at(rest)));
        let mut engine = RecEngine::new();
        engine.run_shared(&bin, &base, &opts);
        let got = engine.run_shared(&bin, &grown, &opts);
        assert_same_walk(&got, &want, "seed on an error call");
        let work = engine.work_stats();
        assert_eq!((work.full_walks, work.extension_walks), (1, 1));
    }

    #[test]
    fn a_prune_that_cuts_an_error_status_drops_the_code_it_held() {
        // main: call nr; L: xor edi, edi; C: call error; jmp L
        // nr: ud2      error: ret      seeds: main, C, nr, error
        // Once `nr` is non-returning, only C's own fall-through (through
        // `jmp L`) reaches L, and only L's `xor` lets C fall through: a
        // walk from the seeds decodes neither L nor the `jmp`.
        use fetch_x64::{Asm, Op};
        let mut asm = Asm::new();
        asm.call_ext(0);
        let l = asm.new_label();
        asm.bind(l);
        let l_at = asm.here();
        asm.push(xor_edi());
        let c = asm.here();
        asm.call_ext(1);
        let jmp = asm.here();
        asm.jmp(l);
        let nr = asm.here();
        asm.push(Op::Ud2);
        let error = asm.here();
        asm.push(Op::Ret);
        let (bin, at) = text_binary("cut-error-status", asm, &[nr, error]);
        let opts = RecOptions {
            error_funcs: Arc::new(BTreeSet::from([at(error)])),
            ..RecOptions::default()
        };
        let seeds = BTreeSet::from([at(0), at(c), at(nr), at(error)]);
        let (want, _) = full_walk_every_round(&bin, &seeds, &opts);
        assert!(!want.disasm.contains(at(l_at)) && !want.disasm.contains(at(jmp)));
        let mut engine = RecEngine::new();
        let got = engine.run_shared(&bin, &seeds, &opts);
        assert_same_walk(&got, &want, "cut error status");
        let work = engine.work_stats();
        assert_eq!((work.full_walks, work.pruned_rounds), (1, 1));
    }

    #[test]
    fn in_place_rounds_match_a_full_walk_every_round() {
        // The serving benchmark's feature rates: more split-cold parts,
        // assembly functions and error calls than the default corpus.
        let mut capped = 0;
        for seed in 40..88u64 {
            let mut cfg = SynthConfig::small(1000 + seed);
            cfg.n_funcs = 60 + (seed as usize * 53) % 300;
            cfg.rates.split_cold = 0.08;
            cfg.rates.asm_funcs = cfg.n_funcs / 20;
            cfg.rates.error_calls = 0.10;
            let case = synthesize(&cfg);
            let seeds: BTreeSet<u64> = case
                .binary
                .eh_frame()
                .unwrap()
                .pc_begins()
                .into_iter()
                .collect();
            let opts = RecOptions {
                error_funcs: Arc::new(
                    case.binary
                        .symbols
                        .iter()
                        .filter(|s| s.name == "error" || s.name == "error_at_line")
                        .map(|s| s.addr)
                        .collect(),
                ),
                ..RecOptions::default()
            };
            let (want, hit_cap) = full_walk_every_round(&case.binary, &seeds, &opts);
            let mut engine = RecEngine::new();
            let got = engine.run_shared(&case.binary, &seeds, &opts);
            assert_same_walk(&got, &want, &format!("seed {seed}"));
            let work = engine.work_stats();
            assert_eq!(work.cap_hits, u64::from(hit_cap), "seed {seed}");
            assert_eq!(
                (work.full_walks, work.fallback_walks),
                (1, 0),
                "seed {seed}"
            );
            capped += usize::from(hit_cap);

            // Extending a walk from half the seeds by the rest and by every
            // `error` call site reaches the same result as walking the
            // union from scratch.
            let half: BTreeSet<u64> = seeds.iter().copied().step_by(2).collect();
            let mut grown = seeds.clone();
            grown.extend(want.disasm.iter().filter_map(|i| match i.flow() {
                Flow::Call(t) if opts.error_funcs.contains(&t) => Some(i.addr),
                _ => None,
            }));
            let (from_half, _) = full_walk_every_round(&case.binary, &half, &opts);
            let (want, _) =
                full_walk_every_round_from(&case.binary, &grown, &opts, from_half.noreturn);
            let mut engine = RecEngine::new();
            engine.run_shared(&case.binary, &half, &opts);
            let got = engine.run_shared(&case.binary, &grown, &opts);
            assert_same_walk(&got, &want, &format!("seed {seed}, extended"));
            let work = engine.work_stats();
            assert_eq!(
                (work.full_walks, work.fallback_walks),
                (1, 0),
                "seed {seed}, extended"
            );
        }
        assert!(capped > 0, "no binary reached the round cap");
    }
}
