//! Detection state: the evolving set of function starts a strategy stack
//! transforms, with provenance tracking for every start, a persistent
//! incremental recursion engine, and generation-counted analysis caches.

use fetch_binary::Binary;
use fetch_disasm::{
    code_xrefs, function_extents, recursive_disassemble, ErrorCallPolicy, FunctionBody, RecEngine,
    RecOptions, RecResult, XrefIndex,
};
use fetch_ehframe::{stack_heights, EhFrame, HeightTable};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// The CFI side-table of a binary: every FDE's stack-height table (where
/// the CFIs are complete), the set of FDE-covered starts, and the sorted
/// coverage ranges. A pure function of the immutable binary, so
/// [`DetectionState`] computes it at most once per run — call-frame
/// repair used to re-evaluate every CFI program on every invocation.
#[derive(Debug, Clone, Default)]
pub struct FrameTable {
    /// Complete stack-height tables keyed by FDE `PC Begin`.
    pub heights: BTreeMap<u64, HeightTable>,
    /// Every FDE `PC Begin` in the binary.
    pub has_fde: BTreeSet<u64>,
    /// Sorted `(pc_begin, pc_end)` coverage ranges of every FDE.
    pub ranges: Vec<(u64, u64)>,
}

impl FrameTable {
    /// Evaluates an already-parsed `.eh_frame` (absent sections yield an
    /// empty table).
    fn from_eh(eh: &EhFrame) -> FrameTable {
        let mut table = FrameTable::default();
        for (cie, fde) in eh.fdes_with_cie() {
            table.has_fde.insert(fde.pc_begin);
            table.ranges.push((fde.pc_begin, fde.pc_end()));
            if let Ok(Some(h)) = stack_heights(cie, fde) {
                table.heights.insert(fde.pc_begin, h);
            }
        }
        table.ranges.sort_unstable();
        table
    }
}

/// Where a detected start came from. Figure 5's per-layer accounting and
/// the accuracy analysis both key off this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Provenance {
    /// FDE `PC Begin` field.
    Fde,
    /// Surviving symbol.
    Symbol,
    /// Direct-call target found by recursive disassembly.
    CallTarget,
    /// Validated function pointer (§IV-E).
    PointerScan,
    /// Tail-call target confirmed by Algorithm 1.
    TailCallFix,
    /// Prologue signature match (unsafe `Fsig`).
    Prologue,
    /// Heuristic tail-call target (unsafe `Tcall`).
    TailHeuristic,
    /// Gap start found by linear scan (unsafe `Scan`, ANGR).
    LinearScan,
    /// Target of a thunk jump (unsafe, GHIDRA).
    Thunk,
    /// First non-padding instruction after alignment (unsafe, ANGR).
    Alignment,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Provenance::Fde => "fde",
            Provenance::Symbol => "symbol",
            Provenance::CallTarget => "call-target",
            Provenance::PointerScan => "pointer-scan",
            Provenance::TailCallFix => "tail-call-fix",
            Provenance::Prologue => "prologue",
            Provenance::TailHeuristic => "tail-heuristic",
            Provenance::LinearScan => "linear-scan",
            Provenance::Thunk => "thunk",
            Provenance::Alignment => "alignment",
        };
        f.write_str(s)
    }
}

/// Per-layer execution record the traced executor
/// ([`crate::LayerSpec::apply`]) emits into
/// [`DetectionResult::trace`]: what the layer changed (exact start
/// deltas with provenance), how long it took, and how much decode work
/// it caused.
///
/// # Equality
///
/// Only the *deterministic* fields participate in `==`: `name`, `added`,
/// `removed`, and `starts_after`. Wall time and decode-cache counters are
/// instrumentation — they vary run-to-run and with engine warmth, and the
/// differential suites (`parallel ≡ serial`, `shared engine ≡ fresh
/// engine`, `cache hit ≡ cold run`) compare results across exactly those
/// axes.
#[derive(Debug, Clone)]
pub struct LayerTrace {
    /// The layer's display name ([`crate::LayerSpec::name`]).
    pub name: &'static str,
    /// Wall time of the layer, in nanoseconds (excluded from `==`).
    pub wall_nanos: u64,
    /// Starts the layer added (net of its own removals), ascending. An
    /// address whose provenance changed appears in `removed` (old) and
    /// `added` (new).
    pub added: Vec<(u64, Provenance)>,
    /// Starts the layer removed (net of its own additions), ascending.
    pub removed: Vec<(u64, Provenance)>,
    /// Size of the start set after the layer ran.
    pub starts_after: usize,
    /// Decode-cache hits attributed to the layer (excluded from `==`).
    pub decode_hits: u64,
    /// Decode-cache misses — fresh decodes — attributed to the layer
    /// (excluded from `==`).
    pub decode_misses: u64,
    /// Data-section bytes the §IV-E pointer sweep covered during this
    /// layer (excluded from `==`). Decode counters alone made the
    /// `Xref` layer look idle — its work is scanning, not decoding.
    pub bytes_scanned: u64,
    /// Pointer-scan candidates run through §IV-E validation during
    /// this layer (excluded from `==`).
    pub candidates_checked: u64,
}

impl LayerTrace {
    /// Wall time in microseconds.
    pub fn wall_us(&self) -> f64 {
        self.wall_nanos as f64 / 1e3
    }

    /// The provenance delta: how many starts each evidence source
    /// contributed in this layer.
    pub fn added_by_provenance(&self) -> BTreeMap<Provenance, usize> {
        let mut by = BTreeMap::new();
        for (_, p) in &self.added {
            *by.entry(*p).or_insert(0) += 1;
        }
        by
    }
}

impl PartialEq for LayerTrace {
    fn eq(&self, other: &LayerTrace) -> bool {
        self.name == other.name
            && self.added == other.added
            && self.removed == other.removed
            && self.starts_after == other.starts_after
    }
}

impl Eq for LayerTrace {}

/// The final, immutable output of a detector run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectionResult {
    /// Detected function starts with provenance.
    pub starts: BTreeMap<u64, Provenance>,
    /// Names of the strategy layers that ran, in order.
    pub layers: Vec<&'static str>,
    /// Per-layer execution records ([`LayerTrace`]), parallel to
    /// `layers`. Timing/decode fields are instrumentation and excluded
    /// from `==`; the start deltas are deterministic and included.
    pub trace: Vec<LayerTrace>,
}

impl DetectionResult {
    /// The start addresses as a set.
    pub fn start_set(&self) -> BTreeSet<u64> {
        self.starts.keys().copied().collect()
    }

    /// Replays the trace's start deltas through the first `k` layers,
    /// reconstructing the start set as it stood after layer `k - 1` ran
    /// — layers are sequential, so the prefix of a pipeline's trace *is*
    /// the result of running the shorter stack. The `fig5` harness uses
    /// this to evaluate every prefix stack of a panel from one run.
    ///
    /// Requires a complete trace (the state mutated only through
    /// layers); `replay == starts` holds for `k >= trace.len()`.
    pub fn starts_after_layer(&self, k: usize) -> BTreeMap<u64, Provenance> {
        let mut starts = BTreeMap::new();
        for t in &self.trace[..k.min(self.trace.len())] {
            for (a, _) in &t.removed {
                starts.remove(a);
            }
            for &(a, p) in &t.added {
                starts.insert(a, p);
            }
        }
        starts
    }

    /// The start addresses in ascending order, without materializing a
    /// set (use in loops that only need iteration).
    pub fn start_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.starts.keys().copied()
    }

    /// Number of detected starts.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether nothing was detected.
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// Approximate resident heap footprint of the result, in bytes —
    /// the accounting unit of the size-aware serving cache
    /// ([`crate::AnalysisCache`]) and the serve `stats` report. An
    /// estimate (map node overhead is amortized at a fixed per-entry
    /// cost), deterministic for a given result, and monotone in the
    /// result's actual size — exactly what a byte-capacity bound needs.
    pub fn approx_bytes(&self) -> usize {
        // BTreeMap stores entries in node arrays; ~2 words of amortized
        // per-entry bookkeeping on top of the payload.
        const MAP_ENTRY_OVERHEAD: usize = 16;
        let start_entry =
            std::mem::size_of::<u64>() + std::mem::size_of::<Provenance>() + MAP_ENTRY_OVERHEAD;
        let delta_entry = std::mem::size_of::<(u64, Provenance)>();
        let traces: usize = self
            .trace
            .iter()
            .map(|t| {
                std::mem::size_of::<LayerTrace>() + (t.added.len() + t.removed.len()) * delta_entry
            })
            .sum();
        std::mem::size_of::<DetectionResult>()
            + self.starts.len() * start_entry
            + self.layers.len() * std::mem::size_of::<&'static str>()
            + traces
    }
}

/// A cache slot tagged with the generation it was computed at.
type Tagged<T> = Option<(u64, Arc<T>)>;

/// Generation-counted memoization of the analyses every repair/heuristic
/// layer needs. Entries tagged with the starts- or disassembly-generation
/// they were computed at; a stale tag means recompute. (Intra-state
/// memoization — the cross-run result cache is [`crate::AnalysisCache`].)
#[derive(Debug, Clone, Default)]
struct StateMemo {
    start_set: Tagged<BTreeSet<u64>>,
    xrefs: Tagged<XrefIndex>,
    extents: Tagged<BTreeMap<u64, FunctionBody>>,
    code_constants: Tagged<BTreeSet<u64>>,
    /// Derived from the (immutable) binary alone: computed at most once.
    data_ptrs: Option<Arc<BTreeMap<u64, Vec<u64>>>>,
    /// CFI side-table, also binary-pure; the outer `Option` is the
    /// "computed yet?" flag, the inner one records an unparseable
    /// `.eh_frame` so the failure is memoized too.
    frame_table: Option<Option<Arc<FrameTable>>>,
    /// The parsed `.eh_frame`, binary-pure like the two above. FDE
    /// seeding and the CFI side-table each parsed the section from
    /// scratch before this memo existed.
    eh: Option<Option<Arc<EhFrame>>>,
}

/// Mutable state threaded through a strategy stack.
///
/// All mutation funnels through [`DetectionState::add_start`],
/// [`DetectionState::remove_start`] and [`DetectionState::run_recursion`],
/// which advance the generation counters backing the analysis caches
/// ([`DetectionState::xrefs`], [`DetectionState::extents`],
/// [`DetectionState::data_pointers`], [`DetectionState::start_set`]).
#[derive(Debug, Clone)]
pub struct DetectionState<'b> {
    /// The binary under analysis (detectors never see ground truth).
    pub binary: &'b Binary,
    /// Current start set with provenance.
    pub(crate) starts: BTreeMap<u64, Provenance>,
    /// Latest recursive-disassembly result (empty until recursion runs).
    /// Shared with the engine's run cache: re-runs that provably change
    /// nothing hand back another reference instead of a deep clone.
    pub(crate) rec: Arc<RecResult>,
    /// Addresses of `error`/`error_at_line`-style functions (resolved
    /// from symbol names, modeling dynamic-symbol knowledge of libc).
    /// Shared so recursion re-runs never copy the set.
    pub error_funcs: Arc<BTreeSet<u64>>,
    /// Layer names applied so far (pushed by
    /// [`crate::LayerSpec::apply`], never by hand — the executor owns
    /// the bookkeeping so names and traces cannot drift apart).
    pub layers: Vec<&'static str>,
    /// Per-layer execution records, parallel to `layers`.
    pub trace: Vec<LayerTrace>,
    /// The report of the most recent [`crate::CallFrameRepair`] run, for
    /// callers that want it after driving a whole pipeline (see
    /// [`DetectionState::take_repair_report`]).
    pub(crate) last_repair: Option<crate::algorithm1::RepairReport>,
    /// The persistent engine reusing decode and walk state across
    /// [`DetectionState::run_recursion`] calls.
    engine: RecEngine,
    /// When false, every recursion re-runs from scratch (the reference
    /// semantics the incremental engine is tested against).
    incremental: bool,
    starts_gen: u64,
    rec_gen: u64,
    cache: StateMemo,
    frame_hits: u64,
    frame_misses: u64,
    /// Monotone pointer-scan work counters, differenced per layer by
    /// [`crate::LayerSpec::apply`] (like the decode stats).
    scan_bytes: u64,
    scan_candidates: u64,
}

impl<'b> DetectionState<'b> {
    /// Creates an empty state for `binary`, resolving error-function
    /// addresses from its symbols when present.
    pub fn new(binary: &'b Binary) -> DetectionState<'b> {
        DetectionState::with_engine(binary, RecEngine::new())
    }

    /// Creates an empty state that runs its recursions through a caller-
    /// provided [`RecEngine`], so its decode cache survives across states
    /// (e.g. several tool models analysing the same binary). The engine's
    /// binary fingerprint keeps reuse sound: state cached for a different
    /// binary is dropped, not consulted. Reclaim the engine afterwards
    /// with [`DetectionState::into_result_with_engine`].
    pub fn with_engine(binary: &'b Binary, engine: RecEngine) -> DetectionState<'b> {
        let error_funcs = binary
            .symbols
            .iter()
            .filter(|s| s.name == "error" || s.name == "error_at_line")
            .map(|s| s.addr)
            .collect();
        DetectionState {
            binary,
            starts: BTreeMap::new(),
            rec: Arc::new(RecResult::default()),
            error_funcs: Arc::new(error_funcs),
            layers: Vec::new(),
            trace: Vec::new(),
            last_repair: None,
            engine,
            incremental: true,
            starts_gen: 0,
            rec_gen: 0,
            cache: StateMemo::default(),
            frame_hits: 0,
            frame_misses: 0,
            scan_bytes: 0,
            scan_candidates: 0,
        }
    }

    /// Creates a state whose recursions always re-run from scratch — the
    /// reference semantics the incremental engine must reproduce (used by
    /// the observational-equivalence tests).
    pub fn new_reference(binary: &'b Binary) -> DetectionState<'b> {
        DetectionState {
            incremental: false,
            ..DetectionState::new(binary)
        }
    }

    /// The latest recursive-disassembly result.
    pub fn rec(&self) -> &RecResult {
        &self.rec
    }

    /// Current starts with provenance (read-only; mutate through
    /// [`DetectionState::add_start`] / [`DetectionState::remove_start`]).
    pub fn starts(&self) -> &BTreeMap<u64, Provenance> {
        &self.starts
    }

    /// Adds a start, keeping the earliest provenance on duplicates.
    /// Returns `true` when the start is new.
    pub fn add_start(&mut self, addr: u64, prov: Provenance) -> bool {
        match self.starts.entry(addr) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(prov);
                self.starts_gen += 1;
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }

    /// Removes a start (control-flow repair, merging, FDE repair).
    pub fn remove_start(&mut self, addr: u64) -> bool {
        let removed = self.starts.remove(&addr).is_some();
        if removed {
            self.starts_gen += 1;
        }
        removed
    }

    /// The start addresses as a shared set, cached until a start is
    /// added or removed.
    pub fn start_set(&mut self) -> Arc<BTreeSet<u64>> {
        if let Some((gen, set)) = &self.cache.start_set {
            if *gen == self.starts_gen {
                return Arc::clone(set);
            }
        }
        let set = Arc::new(self.starts.keys().copied().collect::<BTreeSet<u64>>());
        self.cache.start_set = Some((self.starts_gen, Arc::clone(&set)));
        set
    }

    /// Code cross-references over the current disassembly, cached until
    /// the next recursion.
    pub fn xrefs(&mut self) -> Arc<XrefIndex> {
        if let Some((gen, x)) = &self.cache.xrefs {
            if *gen == self.rec_gen {
                return Arc::clone(x);
            }
        }
        let x = Arc::new(code_xrefs(&self.rec.disasm));
        self.cache.xrefs = Some((self.rec_gen, Arc::clone(&x)));
        x
    }

    /// Function extents over the current disassembly, cached until the
    /// next recursion.
    pub fn extents(&mut self) -> Arc<BTreeMap<u64, FunctionBody>> {
        if let Some((gen, e)) = &self.cache.extents {
            if *gen == self.rec_gen {
                return Arc::clone(e);
            }
        }
        let e = Arc::new(function_extents(&self.rec));
        self.cache.extents = Some((self.rec_gen, Arc::clone(&e)));
        e
    }

    /// Constant operands and rip-relative `lea` targets of the current
    /// disassembly — the code half of the §IV-E candidate super-set —
    /// cached until the next recursion.
    pub fn code_constants(&mut self) -> Arc<BTreeSet<u64>> {
        if let Some((gen, c)) = &self.cache.code_constants {
            if *gen == self.rec_gen {
                return Arc::clone(c);
            }
        }
        // Flat-accumulate then sort/dedup: `BTreeSet::from_iter` over a
        // sorted run bulk-builds, avoiding a B-tree insert per operand.
        let mut consts: Vec<u64> = Vec::new();
        for inst in self.rec.disasm.iter_unordered() {
            if let Some(t) = inst.lea_rip_target() {
                consts.push(t);
            }
            if let Some(c) = inst.const_operand() {
                consts.push(c);
            }
        }
        consts.sort_unstable();
        consts.dedup();
        let c = Arc::new(BTreeSet::from_iter(consts));
        self.cache.code_constants = Some((self.rec_gen, Arc::clone(&c)));
        c
    }

    /// The CFI side-table ([`FrameTable`]) — FDE stack heights, start
    /// set, and coverage ranges — computed at most once per state (the
    /// binary never changes underneath a run) and shared from then on.
    /// `None` when the binary's `.eh_frame` is malformed; that outcome
    /// is memoized too.
    ///
    /// Call-frame repair ([`crate::CallFrameRepair`]) re-ran this CFI
    /// evaluation on every round before the cache existed; the
    /// [`DetectionState::frame_table_stats`] counters let tests assert
    /// the hit rate.
    pub fn frame_table(&mut self) -> Option<Arc<FrameTable>> {
        if let Some(ft) = &self.cache.frame_table {
            self.frame_hits += 1;
            return ft.clone();
        }
        self.frame_misses += 1;
        let ft = self.eh_frame().map(|eh| Arc::new(FrameTable::from_eh(&eh)));
        self.cache.frame_table = Some(ft.clone());
        ft
    }

    /// The parsed `.eh_frame`, computed at most once per state and
    /// shared by every consumer (`None` memoizes a malformed section).
    /// FDE seeding and [`DetectionState::frame_table`] each re-parsed
    /// the section before this existed — on FDE-dense binaries the
    /// second parse was most of the repair layer's fixed cost.
    pub fn eh_frame(&mut self) -> Option<Arc<EhFrame>> {
        if let Some(eh) = &self.cache.eh {
            return eh.clone();
        }
        let eh = self.binary.eh_frame().ok().map(Arc::new);
        self.cache.eh = Some(eh.clone());
        eh
    }

    /// `(hits, misses)` of [`DetectionState::frame_table`]. Misses can
    /// never exceed one per state.
    pub fn frame_table_stats(&self) -> (u64, u64) {
        (self.frame_hits, self.frame_misses)
    }

    /// The data-section pointer super-set (§IV-E), computed once per
    /// state — the binary never changes underneath a run.
    pub fn data_pointers(&mut self) -> Arc<BTreeMap<u64, Vec<u64>>> {
        if let Some(d) = &self.cache.data_ptrs {
            return Arc::clone(d);
        }
        let (ptrs, bytes) = crate::pointer_scan::collect_data_pointers_counted(self.binary);
        self.scan_bytes += bytes;
        let d = Arc::new(ptrs);
        self.cache.data_ptrs = Some(Arc::clone(&d));
        d
    }

    /// Records `n` pointer-scan candidates validated (called by the
    /// §IV-E scan; attributed to the running layer by
    /// [`crate::LayerSpec::apply`]).
    pub(crate) fn note_candidates_checked(&mut self, n: u64) {
        self.scan_candidates += n;
    }

    /// `(bytes_scanned, candidates_checked)` of the pointer scan so
    /// far (monotone, like [`DetectionState::engine_decode_stats`]).
    pub fn scan_stats(&self) -> (u64, u64) {
        (self.scan_bytes, self.scan_candidates)
    }

    /// Re-runs safe recursive disassembly from the current starts with
    /// the given error-call policy, recording newly discovered direct
    /// call targets as [`Provenance::CallTarget`] starts when
    /// `add_call_targets` is set.
    ///
    /// Incrementally: the persistent [`RecEngine`] reuses the decode
    /// cache and, when the seed set only grew, the previous walk.
    pub fn run_recursion(&mut self, add_call_targets: bool, policy: ErrorCallPolicy) {
        let opts = RecOptions {
            add_call_targets,
            error_funcs: Arc::clone(&self.error_funcs),
            error_policy: policy,
            ..RecOptions::default()
        };
        let seeds = self.start_set();
        let (rec, changed) = if self.incremental {
            let before = self.engine.generation();
            let rec = self.engine.run_shared(self.binary, &seeds, &opts);
            // The engine leaves its generation untouched on the
            // identical-input fast path *and* on no-op extensions: the
            // disassembly is bit-identical either way, so
            // xrefs/extents/code-constants caches stay valid.
            (rec, self.engine.generation() != before)
        } else {
            (
                Arc::new(recursive_disassemble(self.binary, &seeds, &opts)),
                true,
            )
        };
        if add_call_targets {
            for &f in &rec.functions {
                self.add_start(f, Provenance::CallTarget);
            }
        }
        self.rec = rec;
        if changed {
            self.rec_gen += 1;
        }
    }

    /// Takes the report of the most recent [`crate::CallFrameRepair`]
    /// run, if one ran (repair layers deposit it as they execute, so
    /// pipeline drivers need no side channel).
    pub fn take_repair_report(&mut self) -> Option<crate::algorithm1::RepairReport> {
        self.last_repair.take()
    }

    /// `(hits, misses)` of the engine's decode cache (monotone; see
    /// [`RecEngine::decode_stats`]).
    pub fn engine_decode_stats(&self) -> (u64, u64) {
        self.engine.decode_stats()
    }

    /// Freezes the state into a [`DetectionResult`].
    pub fn into_result(self) -> DetectionResult {
        self.into_result_with_engine().0
    }

    /// Freezes the state, also handing back the recursion engine so the
    /// caller can reuse its decode cache for the next run (see
    /// [`DetectionState::with_engine`]).
    pub fn into_result_with_engine(self) -> (DetectionResult, RecEngine) {
        (
            DetectionResult {
                starts: self.starts,
                layers: self.layers,
                trace: self.trace,
            },
            self.engine,
        )
    }
}

/// One side of a layer's start delta (addresses with provenance).
type StartDelta = Vec<(u64, Provenance)>;

/// Ordered symmetric difference of two start maps: `(added, removed)`
/// going from `before` to `after`. An address present in both with a
/// different provenance contributes to both vectors (old provenance
/// removed, new one added), so replaying `removed`-then-`added` over
/// `before` reconstructs `after` exactly.
pub(crate) fn diff_starts(
    before: &BTreeMap<u64, Provenance>,
    after: &BTreeMap<u64, Provenance>,
) -> (StartDelta, StartDelta) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut bi = before.iter().peekable();
    let mut ai = after.iter().peekable();
    loop {
        match (bi.peek(), ai.peek()) {
            (Some(&(&bk, &bv)), Some(&(&ak, &av))) => {
                if bk < ak {
                    removed.push((bk, bv));
                    bi.next();
                } else if ak < bk {
                    added.push((ak, av));
                    ai.next();
                } else {
                    if bv != av {
                        removed.push((bk, bv));
                        added.push((ak, av));
                    }
                    bi.next();
                    ai.next();
                }
            }
            (Some(&(&bk, &bv)), None) => {
                removed.push((bk, bv));
                bi.next();
            }
            (None, Some(&(&ak, &av))) => {
                added.push((ak, av));
                ai.next();
            }
            (None, None) => break,
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_synth::{synthesize, SynthConfig};

    #[test]
    fn provenance_is_first_writer_wins() {
        let case = synthesize(&SynthConfig::small(3));
        let mut st = DetectionState::new(&case.binary);
        assert!(st.add_start(0x40_1000, Provenance::Fde));
        assert!(!st.add_start(0x40_1000, Provenance::Prologue));
        assert_eq!(st.starts[&0x40_1000], Provenance::Fde);
        assert!(st.remove_start(0x40_1000));
        assert!(!st.remove_start(0x40_1000));
    }

    #[test]
    fn error_funcs_resolved_from_symbols() {
        let case = synthesize(&SynthConfig::small(3));
        let st = DetectionState::new(&case.binary);
        let error = case
            .truth
            .functions
            .iter()
            .find(|f| f.name == "error")
            .unwrap();
        assert!(st.error_funcs.contains(&error.entry()));
        // Stripped binaries lose the knowledge.
        let stripped = case.binary.stripped();
        let st2 = DetectionState::new(&stripped);
        assert!(st2.error_funcs.is_empty());
    }

    #[test]
    fn start_set_cache_tracks_mutation() {
        let case = synthesize(&SynthConfig::small(3));
        let mut st = DetectionState::new(&case.binary);
        st.add_start(0x40_1000, Provenance::Fde);
        let a = st.start_set();
        let b = st.start_set();
        assert!(Arc::ptr_eq(&a, &b), "unchanged starts reuse the cache");
        st.add_start(0x40_2000, Provenance::Fde);
        let c = st.start_set();
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(c.contains(&0x40_2000));
        // Failed mutations do not invalidate.
        let before = st.start_set();
        assert!(!st.add_start(0x40_2000, Provenance::Fde));
        assert!(!st.remove_start(0xdead));
        assert!(Arc::ptr_eq(&before, &st.start_set()));
    }

    #[test]
    fn frame_table_is_computed_once() {
        let case = synthesize(&SynthConfig::small(3));
        let mut st = DetectionState::new(&case.binary);
        assert_eq!(st.frame_table_stats(), (0, 0));
        let a = st.frame_table().expect("synth eh_frame parses");
        assert!(!a.has_fde.is_empty());
        assert_eq!(a.has_fde.len(), a.ranges.len());
        let b = st.frame_table().unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the table");
        assert_eq!(st.frame_table_stats(), (1, 1));
        // Mutation does not invalidate: the table depends only on the
        // immutable binary.
        st.add_start(0x40_1000, Provenance::Fde);
        st.run_recursion(true, ErrorCallPolicy::SliceZero);
        assert!(Arc::ptr_eq(&a, &st.frame_table().unwrap()));
        assert_eq!(st.frame_table_stats(), (2, 1));
    }

    #[test]
    fn analysis_caches_invalidate_on_recursion() {
        let case = synthesize(&SynthConfig::small(3));
        let mut st = DetectionState::new(&case.binary);
        crate::LayerSpec::FdeSeeds.apply(&mut st);
        st.run_recursion(true, ErrorCallPolicy::SliceZero);
        let x1 = st.xrefs();
        let e1 = st.extents();
        assert!(Arc::ptr_eq(&x1, &st.xrefs()));
        assert!(Arc::ptr_eq(&e1, &st.extents()));
        let d1 = st.data_pointers();
        // Same seeds, same options: the engine fast-path leaves the
        // disassembly untouched, so derived caches must survive.
        st.run_recursion(true, ErrorCallPolicy::SliceZero);
        assert!(Arc::ptr_eq(&x1, &st.xrefs()), "no-op recursion keeps xrefs");
        // A genuinely new start forces a new walk and invalidates.
        let gap = (0x40_1000..0x50_0000)
            .step_by(16)
            .find(|a| case.binary.is_code(*a) && !st.starts.contains_key(a))
            .expect("some unexplored code address");
        st.add_start(gap, Provenance::Symbol);
        st.run_recursion(true, ErrorCallPolicy::SliceZero);
        assert!(
            !Arc::ptr_eq(&x1, &st.xrefs()),
            "recursion over new seeds invalidates xrefs"
        );
        assert!(
            Arc::ptr_eq(&d1, &st.data_pointers()),
            "data pointers depend only on the binary"
        );
    }
}
