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
//! O(1) and predecessor scans walk at most [`MAX_INST_LEN`] bytes. A
//! [`RecEngine`] carries a decode cache and the previous run across
//! calls: re-runs triggered by strategy layers re-walk only from newly
//! added seeds when possible, and non-return fixpoint rounds skip the
//! re-walk entirely when no decoded call site's behavior changed.

use crate::jumptable::{solve_jump_table, JumpTable};
use crate::nonreturn::{classify_noreturn, ErrorCallPolicy};
use fetch_binary::{Binary, Section};
use fetch_x64::{decode, DecodeError, Flow, Inst, MAX_INST_LEN};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;

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
    /// Maximum outer fixpoint rounds for non-return analysis.
    pub noreturn_rounds: usize,
}

impl Default for RecOptions {
    fn default() -> Self {
        RecOptions {
            add_call_targets: true,
            solve_jump_tables: true,
            error_funcs: Arc::new(BTreeSet::new()),
            error_policy: ErrorCallPolicy::SliceZero,
            noreturn_rounds: 4,
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
        let off = if addr <= self.base {
            return None;
        } else {
            ((addr - self.base) as usize).min(self.index.len())
        };
        let lo = off.saturating_sub(MAX_INST_LEN);
        for o in (lo..off).rev() {
            if self.index[o] != NO_SLOT {
                let inst = &self.insts[(self.index[o] - 1) as usize];
                return (inst.end() == addr).then_some(inst);
            }
        }
        None
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
/// [`RecEngine`] to amortize re-runs across strategy layers.
pub fn recursive_disassemble(bin: &Binary, seeds: &BTreeSet<u64>, opts: &RecOptions) -> RecResult {
    // One-shot: skip the engine's result caching (and its clone) — the
    // walk state is moved straight into the result.
    let mut engine = RecEngine::new();
    engine.sync_fingerprint(bin);
    let (state, noreturn, _) = engine.compute(bin, seeds, opts);
    RecResult {
        disasm: state.disasm,
        functions: state.functions,
        noreturn,
    }
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

/// Collects up to `n` instructions that straight-line precede `inst`
/// (each one's end address equals the next one's start), ending with
/// `inst` itself — the slicing window for jump-table recognition.
fn backward_context(disasm: &Disassembly, inst: Inst, n: usize) -> Vec<Inst> {
    let mut chain = vec![inst];
    let mut cur = inst.addr;
    for _ in 0..n {
        let Some(prev) = disasm.prev_contiguous(cur) else {
            break;
        };
        chain.push(*prev);
        cur = prev.addr;
    }
    chain.reverse();
    chain
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

/// One walk's accumulated state: the disassembly plus the bookkeeping
/// needed to extend it incrementally and to prove fixpoint rounds moot.
#[derive(Debug, Clone, Default)]
struct WalkState {
    disasm: Disassembly,
    functions: BTreeSet<u64>,
    /// Every decoded direct-call target inside `.text` (drives the
    /// "does this noreturn change affect the walk at all?" test).
    call_targets: BTreeSet<u64>,
    /// Every address a block walk started from. A new seed that is
    /// already a block head re-walks to a no-op, so extension is exact.
    block_heads: BTreeSet<u64>,
}

fn walk_full(
    bin: &Binary,
    opts: &RecOptions,
    cache: &mut DecodeCache,
    seeds: &BTreeSet<u64>,
    noreturn: &BTreeSet<u64>,
) -> WalkState {
    let text = bin.text();
    let mut state = WalkState {
        disasm: Disassembly::with_range(text.addr, text.bytes.len()),
        functions: seeds
            .iter()
            .copied()
            .filter(|a| text.contains(*a))
            .collect(),
        ..WalkState::default()
    };
    let work: VecDeque<u64> = state.functions.iter().copied().collect();
    walk_queue(bin, opts, cache, &mut state, work, noreturn);
    state
}

fn walk_extend(
    bin: &Binary,
    opts: &RecOptions,
    cache: &mut DecodeCache,
    state: &mut WalkState,
    added: &[u64],
    noreturn: &BTreeSet<u64>,
) {
    let text = bin.text();
    let mut work: VecDeque<u64> = VecDeque::new();
    for &a in added {
        if text.contains(a) {
            state.functions.insert(a);
            work.push_back(a);
        }
    }
    walk_queue(bin, opts, cache, state, work, noreturn);
}

fn walk_queue(
    bin: &Binary,
    opts: &RecOptions,
    cache: &mut DecodeCache,
    state: &mut WalkState,
    mut work: VecDeque<u64>,
    noreturn: &BTreeSet<u64>,
) {
    let text = bin.text();
    // The status slice only feeds `error`-call classification; skip the
    // bookkeeping entirely when no error functions are known.
    let track_status = !opts.error_funcs.is_empty();
    // None of the walk-state sets are probed mid-walk (the work queue
    // dedups through `disasm.contains`), so accumulate membership in
    // flat vectors and bulk-merge into the B-trees once at the end.
    let mut new_heads: Vec<u64> = Vec::new();
    let mut new_call_targets: Vec<u64> = Vec::new();

    // The walk's disassembly is always pre-sized to exactly `.text`'s
    // range (`walk_full` builds it with `with_range`; `walk_extend`
    // reuses one built that way), so one offset computation serves the
    // visited check, the decode-cache lookup, and the insert below.
    debug_assert_eq!(state.disasm.base, text.addr);
    debug_assert_eq!(state.disasm.index.len(), text.bytes.len());

    while let Some(start) = work.pop_front() {
        let Some(off) = state.disasm.offset_of(start) else {
            continue; // outside .text
        };
        if state.disasm.index[off] != NO_SLOT {
            continue; // already decoded
        }
        new_heads.push(start);
        // Walk one basic block (up to a terminator or known code),
        // threading the `error`-status slice forward (see
        // [`fold_status_zero`](crate::nonreturn::fold_status_zero)).
        let mut status_zero = false;
        let mut cur = start;
        let mut off = off;
        loop {
            let inst = match cache.decode_at_off(text, cur, off) {
                Ok(i) => i,
                Err(e) => {
                    state.disasm.decode_errors.push((cur, e));
                    break;
                }
            };
            state.disasm.insts.push(inst);
            state.disasm.index[off] = state.disasm.insts.len() as u32;
            // Call sites must see the status as of the instructions
            // *before* the call, so save it pre-fold.
            let status_at_call = status_zero;
            if track_status {
                crate::nonreturn::fold_status_zero(&mut status_zero, &inst);
            }
            let fallthrough = match inst.flow() {
                Flow::Fallthrough | Flow::IndirectCall => true,
                Flow::Call(t) => {
                    if text.contains(t) {
                        new_call_targets.push(t);
                        work.push_back(t);
                    }
                    call_returns_status(
                        t,
                        status_at_call,
                        &opts.error_funcs,
                        opts.error_policy,
                        noreturn,
                    )
                }
                Flow::Jump(t) => {
                    if text.contains(t) {
                        work.push_back(t);
                    }
                    false
                }
                Flow::CondJump(t) => {
                    if text.contains(t) {
                        work.push_back(t);
                    }
                    work.push_back(inst.end());
                    false
                }
                Flow::IndirectJump => {
                    if opts.solve_jump_tables {
                        // The bounds check usually sits in a predecessor
                        // block; rebuild a straight-line backward context
                        // from contiguously decoded instructions.
                        let ctx = backward_context(&state.disasm, inst, 14);
                        if let Some(jt) = solve_jump_table(&ctx, &inst, bin) {
                            for &t in &jt.targets {
                                work.push_back(t);
                            }
                            state.disasm.jump_tables.insert(inst.addr, jt);
                        }
                    }
                    false
                }
                Flow::Ret | Flow::Halt | Flow::Trap => false,
            };
            if !fallthrough {
                break;
            }
            cur = inst.end();
            off += inst.len as usize;
            if off >= state.disasm.index.len() || state.disasm.index[off] != NO_SLOT {
                break; // left .text or reached known code
            }
        }
    }

    new_heads.sort_unstable();
    state.block_heads.extend(new_heads);
    new_call_targets.sort_unstable();
    new_call_targets.dedup();
    if opts.add_call_targets {
        state.functions.extend(new_call_targets.iter().copied());
    }
    state.call_targets.extend(new_call_targets);
}

/// An incremental driver for [`recursive_disassemble`]-equivalent runs.
///
/// The engine persists two things across calls: a dense decode cache
/// (text bytes never change, so decoded instructions are reused by every
/// later walk) and the previous run's walk state. A re-run whose options
/// match and whose seed set only *grew* re-walks from the added seeds
/// alone; a re-run with identical inputs returns the cached result
/// outright; anything else falls back to a full — but decode-free —
/// canonical walk, preserving reference semantics.
#[derive(Debug, Clone, Default)]
pub struct RecEngine {
    cache: DecodeCache,
    /// (name, text base, text content hash) of the binary the cache
    /// belongs to; a mismatch on any component drops all cached state.
    fingerprint: Option<(String, u64, u64)>,
    last: Option<LastRun>,
    generation: u64,
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
    noreturn: BTreeSet<u64>,
    state: WalkState,
    /// The run's result, built once and shared with callers; fast paths
    /// (identical inputs, proven no-op extensions) hand out new
    /// references instead of deep-cloning the disassembly again.
    result: std::sync::Arc<RecResult>,
}

impl RecEngine {
    /// A fresh engine with an empty cache.
    pub fn new() -> RecEngine {
        RecEngine::default()
    }

    /// Runs safe recursive disassembly, reusing previous work where the
    /// inputs allow. Observationally equivalent to
    /// [`recursive_disassemble`] on the same `(bin, seeds, opts)`.
    pub fn run(&mut self, bin: &Binary, seeds: &BTreeSet<u64>, opts: &RecOptions) -> RecResult {
        (*self.run_shared(bin, seeds, opts)).clone()
    }

    /// [`RecEngine::run`] returning a shared handle to the result. The
    /// engine's fast paths (identical inputs; extensions proven to add
    /// nothing) return a new reference to the previous run's result
    /// instead of deep-cloning the disassembly, which is what keeps
    /// per-layer re-runs over an unchanged walk out of the profile.
    pub fn run_shared(
        &mut self,
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
    ) -> std::sync::Arc<RecResult> {
        self.sync_fingerprint(bin);

        // Identical inputs: the previous result stands (and the
        // generation does not advance — callers may key caches off it).
        if let Some(last) = &self.last {
            if last.opts == *opts && last.seeds == *seeds {
                return std::sync::Arc::clone(&last.result);
            }
        }

        let (state, noreturn, extended_only) = self.compute(bin, seeds, opts);
        // A pure extension walk grows every component monotonically, so
        // matching sizes (plus an equal non-return set) prove the result
        // is bit-identical to the previous run — e.g. the added seeds
        // were already decoded as call targets. Keep the generation
        // still so derived caches keyed off it stay valid, and reuse
        // the previous result allocation outright.
        let unchanged = extended_only
            && self.last.as_ref().is_some_and(|last| {
                last.state.disasm.len() == state.disasm.len()
                    && last.state.disasm.decode_errors.len() == state.disasm.decode_errors.len()
                    && last.state.disasm.jump_tables.len() == state.disasm.jump_tables.len()
                    && last.state.functions.len() == state.functions.len()
                    && last.noreturn == noreturn
            });
        let result = match (unchanged, &self.last) {
            (true, Some(last)) => std::sync::Arc::clone(&last.result),
            _ => std::sync::Arc::new(RecResult {
                disasm: state.disasm.clone(),
                functions: state.functions.clone(),
                noreturn: noreturn.clone(),
            }),
        };
        self.last = Some(LastRun {
            seeds: seeds.clone(),
            opts: opts.clone(),
            noreturn,
            state,
            result: std::sync::Arc::clone(&result),
        });
        if !unchanged {
            self.generation += 1;
        }
        result
    }

    /// Monotone counter advanced whenever a run produced a (potentially)
    /// new result; unchanged on the identical-input fast path. Callers
    /// invalidate derived caches only when this moves.
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

    fn sync_fingerprint(&mut self, bin: &Binary) {
        let text = bin.text();
        let fp = (bin.name.clone(), text.addr, text_content_hash(&text.bytes));
        if self.fingerprint.as_ref() != Some(&fp) {
            self.cache.reset(text.addr, text.bytes.len());
            self.fingerprint = Some(fp);
            self.last = None;
        }
    }

    /// The walk + non-return fixpoint, without result caching. The
    /// third return is `true` when the run was a pure extension of the
    /// previous walk (no from-scratch re-walk, in the extension arm or
    /// the fixpoint below), i.e. every component grew monotonically.
    fn compute(
        &mut self,
        bin: &Binary,
        seeds: &BTreeSet<u64>,
        opts: &RecOptions,
    ) -> (WalkState, BTreeSet<u64>, bool) {
        let mut extended_only = true;
        let (mut state, mut noreturn) = match self.plan_extension(seeds, opts) {
            Some(added) => {
                let last = self
                    .last
                    .as_mut()
                    .expect("extension implies a previous run");
                let mut state = last.state.clone();
                let noreturn = last.noreturn.clone();
                walk_extend(bin, opts, &mut self.cache, &mut state, &added, &noreturn);
                (state, noreturn)
            }
            None => {
                extended_only = false;
                let noreturn = BTreeSet::new();
                (
                    walk_full(bin, opts, &mut self.cache, seeds, &noreturn),
                    noreturn,
                )
            }
        };

        // Non-return fixpoint. Each round re-classifies over the current
        // disassembly; the expensive re-walk only happens when some
        // decoded call site actually targets a function whose return
        // status changed.
        for _ in 0..opts.noreturn_rounds {
            let next = classify_noreturn(
                &state.disasm,
                &state.functions,
                &opts.error_funcs,
                opts.error_policy,
                &noreturn,
            );
            if next == noreturn {
                break;
            }
            let affects_walk = next
                .symmetric_difference(&noreturn)
                .any(|f| state.call_targets.contains(f));
            noreturn = next;
            if affects_walk {
                extended_only = false;
                state = walk_full(bin, opts, &mut self.cache, seeds, &noreturn);
            }
        }

        (state, noreturn, extended_only)
    }

    /// Returns the newly added seeds when the previous run can be
    /// extended in place: same options, seed set grew, and every added
    /// seed is either undecoded code or an existing block head (so its
    /// re-walk is a no-op and extension equals a from-scratch run).
    ///
    /// Known residual risk, deliberately accepted: jump-table solving
    /// reads a backward context of whatever happens to be decoded at
    /// solve time, so an extension walk can in principle see a longer
    /// predecessor chain than the canonical walk order would have — the
    /// observational-equivalence property test over random corpora and
    /// layer stacks (`fetch-core/tests/proptest_incremental.rs`) is the
    /// enforcement for this tail; if it ever trips, tighten this guard.
    fn plan_extension(&self, seeds: &BTreeSet<u64>, opts: &RecOptions) -> Option<Vec<u64>> {
        let last = self.last.as_ref()?;
        if last.opts != *opts || !seeds.is_superset(&last.seeds) {
            return None;
        }
        let added: Vec<u64> = seeds.difference(&last.seeds).copied().collect();
        let exact = added
            .iter()
            .all(|a| !last.state.disasm.contains(*a) || last.state.block_heads.contains(a));
        exact.then_some(added)
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

    #[test]
    fn engine_extension_matches_from_scratch() {
        // Grow the seed set engine-side; a fresh from-scratch run over
        // the union must agree on every observable.
        let case = case();
        let eh = case.binary.eh_frame().unwrap();
        let all: Vec<u64> = eh.pc_begins();
        let opts = RecOptions::default();

        let mut engine = RecEngine::new();
        let half: BTreeSet<u64> = all.iter().copied().step_by(2).collect();
        let full: BTreeSet<u64> = all.iter().copied().collect();
        engine.run(&case.binary, &half, &opts);
        let incremental = engine.run(&case.binary, &full, &opts);
        let scratch = recursive_disassemble(&case.binary, &full, &opts);

        assert_eq!(incremental.functions, scratch.functions);
        assert_eq!(incremental.noreturn, scratch.noreturn);
        let a: BTreeSet<u64> = incremental.disasm.iter().map(|i| i.addr).collect();
        let b: BTreeSet<u64> = scratch.disasm.iter().map(|i| i.addr).collect();
        assert_eq!(a, b);
    }
}
