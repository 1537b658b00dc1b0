//! The declarative pipeline subsystem: Figure 5's "detector = stack of
//! strategy layers" view as first-class, serializable data.
//!
//! A [`Pipeline`] is an ordered list of [`LayerSpec`]s — pure data with a
//! stable textual [`Pipeline::id`] that round-trips through
//! [`Pipeline::parse`]. One executor ([`Pipeline::apply`], built on the
//! traced step [`LayerSpec::apply`]) dispatches each spec to its layer
//! body, recording a [`crate::LayerTrace`] per layer, so every
//! caller — the FETCH detector, the nine Table III tool models, the
//! bench harnesses, the daemon's `--pipeline` requests — shares one
//! sequencing/bookkeeping/instrumentation path instead of hand-rolling
//! its own.
//!
//! The nine tool stacks ([`Pipeline::for_tool`]) are the paper's §VI
//! decomposition as data; the serving layer ([`crate::AnalysisCache`])
//! keys memoized results by `(binary fingerprint, pipeline id)`.

use crate::algorithm1::CallFrameRepair;
use crate::heuristics::{self, ToolStyle};
use crate::pointer_scan::pointer_scan;
use crate::state::{diff_starts, DetectionResult, DetectionState, LayerTrace};
use crate::strategy;
use fetch_binary::Binary;
use fetch_disasm::{ErrorCallPolicy, RecEngine};
use std::fmt;
use std::str::FromStr;

/// The nine detectors of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tool {
    /// DYNINST 10.x model.
    Dyninst,
    /// BAP model (ByteWeight-style matching).
    Bap,
    /// RADARE2 model.
    Radare2,
    /// NUCLEUS model (compiler-agnostic, linear-sweep based).
    Nucleus,
    /// IDA PRO model.
    IdaPro,
    /// BINARY NINJA model.
    BinaryNinja,
    /// GHIDRA model (uses call frames).
    Ghidra,
    /// ANGR model (uses call frames).
    Angr,
    /// FETCH — the paper's optimal strategy stack.
    Fetch,
}

impl Tool {
    /// All tools in the paper's column order.
    pub const ALL: [Tool; 9] = [
        Tool::Dyninst,
        Tool::Bap,
        Tool::Radare2,
        Tool::Nucleus,
        Tool::IdaPro,
        Tool::BinaryNinja,
        Tool::Ghidra,
        Tool::Angr,
        Tool::Fetch,
    ];

    /// Display name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Tool::Dyninst => "DYNINST",
            Tool::Bap => "BAP",
            Tool::Radare2 => "RADARE2",
            Tool::Nucleus => "NUCLEUS",
            Tool::IdaPro => "IDA PRO",
            Tool::BinaryNinja => "BINARY NINJA",
            Tool::Ghidra => "GHIDRA",
            Tool::Angr => "ANGR",
            Tool::Fetch => "FETCH",
        }
    }

    /// Whether the tool consumes `.eh_frame` call frames.
    pub fn uses_call_frames(self) -> bool {
        matches!(self, Tool::Ghidra | Tool::Angr | Tool::Fetch)
    }

    /// Resolves a tool by display name, ignoring case and spaces
    /// (`"ida pro"`, `"IDAPRO"`, `"BinaryNinja"` all name
    /// [`Tool::IdaPro`]/[`Tool::BinaryNinja`]) — the lookup the serving
    /// protocol's `tool` field goes through.
    pub fn from_name(name: &str) -> Option<Tool> {
        let normalize = |s: &str| {
            s.chars()
                .filter(|c| !c.is_whitespace())
                .map(|c| c.to_ascii_lowercase())
                .collect::<String>()
        };
        let wanted = normalize(name);
        Tool::ALL
            .into_iter()
            .find(|t| normalize(t.name()) == wanted)
    }
}

impl fmt::Display for Tool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One serializable strategy-layer specification: a spec names a layer
/// and its configuration, [`LayerSpec::apply`] runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LayerSpec {
    /// `FDE`: seed starts from every FDE `PC Begin` (§IV-B).
    FdeSeeds,
    /// `Sym`: seed starts from surviving symbols.
    SymbolSeeds,
    /// `Entry`: seed the ELF entry point.
    EntrySeed,
    /// `Rec`: safe recursive disassembly with the given error-call
    /// policy (the paper's engine uses [`ErrorCallPolicy::SliceZero`]).
    SafeRecursion(ErrorCallPolicy),
    /// `Xref`: validated function-pointer detection (§IV-E).
    PointerScan,
    /// `TcallFix`: Algorithm 1 call-frame repair (§V-B), paper knobs.
    CallFrameRepair,
    /// `Fsig`: prologue-signature matching in the given tool's style.
    PrologueMatch(ToolStyle),
    /// `Tcall`: heuristic tail-call detection in the given tool's style.
    TailCallHeuristic(ToolStyle),
    /// `Scan`: ANGR's linear gap scan.
    LinearScanStarts,
    /// `CFR`: GHIDRA's control-flow repairing.
    ControlFlowRepair,
    /// `Fmerg`: ANGR's function merging.
    FunctionMerge,
    /// `Thunk`: GHIDRA's thunk-target promotion.
    ThunkHeuristic,
    /// `Align`: ANGR's post-padding alignment splitting.
    AlignmentSplit,
    /// `ByteWeight`: BAP's unvalidated byte-pattern matching.
    ByteWeight,
    /// `Nucleus`: NUCLEUS's linear-sweep + call-target analysis.
    NucleusScan,
    /// `Flirt`: IDA PRO's validated prologue database.
    FlirtSignatures,
}

/// Every `(token, spec)` pair [`Pipeline::parse`] accepts;
/// [`LayerSpec::id`] emits exactly these tokens, so `parse ∘ id` is the
/// identity over specs and `id ∘ parse` over well-formed strings.
pub const KNOWN_LAYERS: &[(&str, LayerSpec)] = &[
    ("FDE", LayerSpec::FdeSeeds),
    ("Sym", LayerSpec::SymbolSeeds),
    ("Entry", LayerSpec::EntrySeed),
    ("Rec", LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero)),
    (
        "RecAR",
        LayerSpec::SafeRecursion(ErrorCallPolicy::AlwaysReturn),
    ),
    (
        "RecNR",
        LayerSpec::SafeRecursion(ErrorCallPolicy::AlwaysNoReturn),
    ),
    ("Xref", LayerSpec::PointerScan),
    ("TcallFix", LayerSpec::CallFrameRepair),
    ("Fsig.ghidra", LayerSpec::PrologueMatch(ToolStyle::Ghidra)),
    ("Fsig.angr", LayerSpec::PrologueMatch(ToolStyle::Angr)),
    ("Fsig.radare", LayerSpec::PrologueMatch(ToolStyle::Radare)),
    (
        "Tcall.ghidra",
        LayerSpec::TailCallHeuristic(ToolStyle::Ghidra),
    ),
    ("Tcall.angr", LayerSpec::TailCallHeuristic(ToolStyle::Angr)),
    (
        "Tcall.radare",
        LayerSpec::TailCallHeuristic(ToolStyle::Radare),
    ),
    ("Scan", LayerSpec::LinearScanStarts),
    ("CFR", LayerSpec::ControlFlowRepair),
    ("Fmerg", LayerSpec::FunctionMerge),
    ("Thunk", LayerSpec::ThunkHeuristic),
    ("Align", LayerSpec::AlignmentSplit),
    ("ByteWeight", LayerSpec::ByteWeight),
    ("Nucleus", LayerSpec::NucleusScan),
    ("Flirt", LayerSpec::FlirtSignatures),
];

impl LayerSpec {
    /// The stable serialization token ([`KNOWN_LAYERS`]): unique per
    /// spec, including configuration (`Fsig.angr` vs `Fsig.ghidra`).
    pub fn id(&self) -> &'static str {
        match self {
            LayerSpec::FdeSeeds => "FDE",
            LayerSpec::SymbolSeeds => "Sym",
            LayerSpec::EntrySeed => "Entry",
            LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero) => "Rec",
            LayerSpec::SafeRecursion(ErrorCallPolicy::AlwaysReturn) => "RecAR",
            LayerSpec::SafeRecursion(ErrorCallPolicy::AlwaysNoReturn) => "RecNR",
            LayerSpec::PointerScan => "Xref",
            LayerSpec::CallFrameRepair => "TcallFix",
            LayerSpec::PrologueMatch(ToolStyle::Ghidra) => "Fsig.ghidra",
            LayerSpec::PrologueMatch(ToolStyle::Angr) => "Fsig.angr",
            LayerSpec::PrologueMatch(ToolStyle::Radare) => "Fsig.radare",
            LayerSpec::TailCallHeuristic(ToolStyle::Ghidra) => "Tcall.ghidra",
            LayerSpec::TailCallHeuristic(ToolStyle::Angr) => "Tcall.angr",
            LayerSpec::TailCallHeuristic(ToolStyle::Radare) => "Tcall.radare",
            LayerSpec::LinearScanStarts => "Scan",
            LayerSpec::ControlFlowRepair => "CFR",
            LayerSpec::FunctionMerge => "Fmerg",
            LayerSpec::ThunkHeuristic => "Thunk",
            LayerSpec::AlignmentSplit => "Align",
            LayerSpec::ByteWeight => "ByteWeight",
            LayerSpec::NucleusScan => "Nucleus",
            LayerSpec::FlirtSignatures => "Flirt",
        }
    }

    /// The display name the layer records in its [`LayerTrace`] — the
    /// paper's label, shared by every configuration of a layer (`Fsig`
    /// for all three styles).
    pub fn name(&self) -> &'static str {
        match self {
            LayerSpec::FdeSeeds => "FDE",
            LayerSpec::SymbolSeeds => "Sym",
            LayerSpec::EntrySeed => "Entry",
            LayerSpec::SafeRecursion(_) => "Rec",
            LayerSpec::PointerScan => "Xref",
            LayerSpec::CallFrameRepair => "TcallFix",
            LayerSpec::PrologueMatch(_) => "Fsig",
            LayerSpec::TailCallHeuristic(_) => "Tcall",
            LayerSpec::LinearScanStarts => "Scan",
            LayerSpec::ControlFlowRepair => "CFR",
            LayerSpec::FunctionMerge => "Fmerg",
            LayerSpec::ThunkHeuristic => "Thunk",
            LayerSpec::AlignmentSplit => "Align",
            LayerSpec::ByteWeight => "ByteWeight",
            LayerSpec::NucleusScan => "Nucleus",
            LayerSpec::FlirtSignatures => "Flirt",
        }
    }

    /// Whether the layer's output is invariant under the semantic
    /// bucket equivalence of [`crate::ImageDigest`]: two binaries whose
    /// `.text` buckets differ only in delta-masked `mov reg, imm`
    /// immediates (and agree everywhere else) get identical start
    /// deltas from this layer.
    ///
    /// True for the structural layers: seeding from FDEs/symbols/entry,
    /// safe recursion (decode-driven; masked immediates are never flow
    /// targets), validated pointer/xref analysis (only section-span
    /// constants are candidates, and those are never masked), call-frame
    /// repair, control-flow repair, merging, thunks, and the tail-call
    /// heuristics (all consume decoded flow, not raw immediates).
    ///
    /// False for every layer that reads raw bytes outside the decode
    /// projection — prologue/byte-pattern matching over gap bytes
    /// (`Fsig.*`, `Flirt`, `ByteWeight`), linear gap scanning (`Scan`,
    /// `Nucleus` — sweep phase can differ from the bucket sweep's), and
    /// alignment-padding inspection (`Align`). A pipeline containing
    /// any of these must recompute on *any* text change
    /// ([`Pipeline::delta_safe`] gates the verbatim-reuse tier of
    /// [`crate::run_delta`]).
    pub fn delta_safe(&self) -> bool {
        match self {
            LayerSpec::FdeSeeds
            | LayerSpec::SymbolSeeds
            | LayerSpec::EntrySeed
            | LayerSpec::SafeRecursion(_)
            | LayerSpec::PointerScan
            | LayerSpec::CallFrameRepair
            | LayerSpec::TailCallHeuristic(_)
            | LayerSpec::ControlFlowRepair
            | LayerSpec::FunctionMerge
            | LayerSpec::ThunkHeuristic => true,
            LayerSpec::PrologueMatch(_)
            | LayerSpec::LinearScanStarts
            | LayerSpec::AlignmentSplit
            | LayerSpec::ByteWeight
            | LayerSpec::NucleusScan
            | LayerSpec::FlirtSignatures => false,
        }
    }

    /// The one traced executor step: runs the layer on `state`, then
    /// records its [`LayerTrace`] (name, wall time, exact start delta
    /// with provenance, decode-cache and pointer-scan work). Every
    /// pipeline path funnels through here via [`Pipeline::apply`], so
    /// [`DetectionResult::trace`] can never skip or double-count a layer
    /// the way hand-pushed records could.
    pub fn apply(&self, state: &mut DetectionState<'_>) {
        let before = state.starts.clone();
        let (hits0, misses0) = state.engine_decode_stats();
        let (bytes0, cands0) = state.scan_stats();
        let t = std::time::Instant::now();
        self.run_body(state);
        let wall_nanos = t.elapsed().as_nanos() as u64;
        let (hits1, misses1) = state.engine_decode_stats();
        let (bytes1, cands1) = state.scan_stats();
        let (added, removed) = diff_starts(&before, &state.starts);
        state.trace.push(LayerTrace {
            name: self.name(),
            wall_nanos,
            added,
            removed,
            starts_after: state.starts.len(),
            decode_hits: hits1 - hits0,
            decode_misses: misses1 - misses0,
            bytes_scanned: bytes1 - bytes0,
            candidates_checked: cands1 - cands0,
        });
    }

    /// The layer's body, untraced.
    fn run_body(&self, state: &mut DetectionState<'_>) {
        match *self {
            LayerSpec::FdeSeeds => strategy::fde_seeds(state),
            LayerSpec::SymbolSeeds => strategy::symbol_seeds(state),
            LayerSpec::EntrySeed => strategy::entry_seed(state),
            LayerSpec::SafeRecursion(policy) => state.run_recursion(true, policy),
            LayerSpec::PointerScan => {
                pointer_scan(state);
            }
            LayerSpec::CallFrameRepair => {
                CallFrameRepair::default().repair(state);
            }
            LayerSpec::PrologueMatch(style) => heuristics::prologue_match(state, style),
            LayerSpec::TailCallHeuristic(style) => heuristics::tail_call_heuristic(state, style),
            LayerSpec::LinearScanStarts => heuristics::linear_scan_starts(state),
            LayerSpec::ControlFlowRepair => heuristics::control_flow_repair(state),
            LayerSpec::FunctionMerge => heuristics::function_merge(state),
            LayerSpec::ThunkHeuristic => heuristics::thunk_heuristic(state),
            LayerSpec::AlignmentSplit => heuristics::alignment_split(state),
            LayerSpec::ByteWeight => heuristics::byte_weight(state),
            LayerSpec::NucleusScan => heuristics::nucleus_scan(state),
            LayerSpec::FlirtSignatures => heuristics::flirt_signatures(state),
        }
    }
}

impl fmt::Display for LayerSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// A malformed pipeline specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineParseError {
    /// The spec contained no layer tokens (empty or whitespace-only).
    Empty,
    /// A token named no known layer.
    UnknownLayer(String),
    /// A layer appeared more than once; the value is the second
    /// occurrence's token as written. Running a layer twice is either a
    /// no-op or a typo, and accepting it would give one stack two cache
    /// ids — so the strict front door rejects it ([`Pipeline::new`]
    /// stays permissive for programmatic experiments).
    DuplicateLayer(String),
}

impl fmt::Display for PipelineParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineParseError::Empty => write!(
                f,
                "empty pipeline: no layer tokens (expected e.g. FDE+Rec+Xref)"
            ),
            PipelineParseError::UnknownLayer(token) => {
                write!(f, "unknown layer {token:?} (known layers: ")?;
                for (i, (name, _)) in KNOWN_LAYERS.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    f.write_str(name)?;
                }
                f.write_str(")")
            }
            PipelineParseError::DuplicateLayer(token) => {
                write!(
                    f,
                    "duplicate layer {token:?}: each layer may appear at most once"
                )
            }
        }
    }
}

impl std::error::Error for PipelineParseError {}

/// An ordered stack of [`LayerSpec`]s — a whole detector as declarative
/// data, with a stable textual identity and one instrumented executor.
///
/// # Examples
///
/// ```
/// use fetch_core::{LayerSpec, Pipeline};
/// use fetch_synth::{synthesize, SynthConfig};
///
/// let case = synthesize(&SynthConfig::small(7));
/// let pipeline = Pipeline::parse("FDE+Rec+Xref").unwrap();
/// assert_eq!(pipeline.id(), "FDE+Rec+Xref");
/// let result = pipeline.run(&case.binary);
/// assert_eq!(result.layer_names(), ["FDE", "Rec", "Xref"]);
/// assert_eq!(result.trace.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Pipeline {
    specs: Vec<LayerSpec>,
}

impl Pipeline {
    /// A pipeline running `specs` in order.
    pub fn new(specs: Vec<LayerSpec>) -> Pipeline {
        Pipeline { specs }
    }

    /// The ordered layer specifications.
    pub fn specs(&self) -> &[LayerSpec] {
        &self.specs
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the pipeline has no layers.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Whether every layer is [`LayerSpec::delta_safe`] — the gate for
    /// the verbatim-reuse tier of delta re-analysis: only for such
    /// pipelines may [`crate::run_delta`] return the previous result
    /// without re-running anything when the semantic text digests
    /// match.
    pub fn delta_safe(&self) -> bool {
        self.specs.iter().all(LayerSpec::delta_safe)
    }

    /// The stable textual identity: layer ids joined with `+`
    /// (`"FDE+Rec+Xref+TcallFix"`). Round-trips through
    /// [`Pipeline::parse`]; the serving cache ([`crate::AnalysisCache`])
    /// keys results by it.
    pub fn id(&self) -> String {
        let mut id = String::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                id.push('+');
            }
            id.push_str(spec.id());
        }
        id
    }

    /// Parses a `+`-separated layer list (`"FDE+Rec+Xref"`), accepting
    /// the tokens of [`KNOWN_LAYERS`] case-insensitively and ignoring
    /// whitespace around tokens (empty tokens, as in `"FDE++Rec"`, are
    /// skipped).
    ///
    /// # Errors
    ///
    /// [`PipelineParseError::UnknownLayer`] (naming the bad token and
    /// listing every known one), [`PipelineParseError::DuplicateLayer`]
    /// (naming the repeated token as written), or
    /// [`PipelineParseError::Empty`] for empty/whitespace-only specs.
    pub fn parse(spec: &str) -> Result<Pipeline, PipelineParseError> {
        let mut specs = Vec::new();
        for token in spec.split('+') {
            let token = token.trim();
            if token.is_empty() {
                continue;
            }
            match KNOWN_LAYERS
                .iter()
                .find(|(name, _)| name.eq_ignore_ascii_case(token))
            {
                Some((_, layer)) if specs.contains(layer) => {
                    return Err(PipelineParseError::DuplicateLayer(token.to_string()))
                }
                Some((_, layer)) => specs.push(*layer),
                None => return Err(PipelineParseError::UnknownLayer(token.to_string())),
            }
        }
        if specs.is_empty() {
            return Err(PipelineParseError::Empty);
        }
        Ok(Pipeline::new(specs))
    }

    /// The paper's optimal FETCH stack: `FDE+Rec+Xref+TcallFix`.
    ///
    /// # Examples
    ///
    /// ```
    /// use fetch_core::Pipeline;
    /// use fetch_synth::{synthesize, SynthConfig};
    ///
    /// let case = synthesize(&SynthConfig::small(9));
    /// let result = Pipeline::fetch().run(&case.binary);
    /// // High coverage: nearly every true start is found.
    /// let truth = case.truth.starts();
    /// let found = result.start_set();
    /// let covered = truth.intersection(&found).count();
    /// assert!(covered * 100 >= truth.len() * 95);
    /// ```
    pub fn fetch() -> Pipeline {
        Pipeline::new(vec![
            LayerSpec::FdeSeeds,
            LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero),
            LayerSpec::PointerScan,
            LayerSpec::CallFrameRepair,
        ])
    }

    /// The documented strategy stack of one of the nine Table III tools
    /// (see the table in the `fetch-tools` crate docs). This is the
    /// single source of truth the tool models run on.
    pub fn for_tool(tool: Tool) -> Pipeline {
        let rec = LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero);
        let specs = match tool {
            // Entry + recursion + a moderate prologue database. High
            // false negatives (no FDEs, pattern-limited).
            Tool::Dyninst => vec![
                LayerSpec::EntrySeed,
                rec,
                LayerSpec::PrologueMatch(ToolStyle::Radare),
                LayerSpec::PrologueMatch(ToolStyle::Angr),
            ],
            Tool::Bap => vec![LayerSpec::EntrySeed, LayerSpec::ByteWeight],
            // Conservative: lowest false positives among the non-FDE
            // tools, highest misses.
            Tool::Radare2 => vec![
                LayerSpec::EntrySeed,
                rec,
                LayerSpec::PrologueMatch(ToolStyle::Radare),
            ],
            Tool::Nucleus => vec![LayerSpec::EntrySeed, LayerSpec::NucleusScan],
            Tool::IdaPro => vec![LayerSpec::EntrySeed, rec, LayerSpec::FlirtSignatures],
            // Aggressive recursion — low misses, many false positives.
            Tool::BinaryNinja => vec![
                LayerSpec::EntrySeed,
                rec,
                LayerSpec::TailCallHeuristic(ToolStyle::Ghidra),
                LayerSpec::PrologueMatch(ToolStyle::Angr),
                LayerSpec::AlignmentSplit,
            ],
            // Default GHIDRA pipeline (§IV-C); tail-call detection is
            // NOT enabled by default.
            Tool::Ghidra => vec![
                LayerSpec::FdeSeeds,
                rec,
                LayerSpec::ControlFlowRepair,
                LayerSpec::ThunkHeuristic,
                LayerSpec::PrologueMatch(ToolStyle::Ghidra),
            ],
            // Default ANGR pipeline (§IV-C); tail-call detection is NOT
            // enabled by default.
            Tool::Angr => vec![
                LayerSpec::FdeSeeds,
                rec,
                LayerSpec::FunctionMerge,
                LayerSpec::PrologueMatch(ToolStyle::Angr),
                LayerSpec::LinearScanStarts,
                LayerSpec::AlignmentSplit,
            ],
            Tool::Fetch => return Pipeline::fetch(),
        };
        Pipeline::new(specs)
    }

    /// Applies every layer to `state` in order through the traced
    /// executor — the one sequencing path all pipeline entry points
    /// share. Layer names and [`crate::LayerTrace`]s land in the state
    /// as each layer runs.
    pub fn apply(&self, state: &mut DetectionState<'_>) {
        for spec in &self.specs {
            spec.apply(state);
        }
    }

    /// Runs the pipeline over `binary` with a fresh engine.
    pub fn run(&self, binary: &Binary) -> DetectionResult {
        self.run_with_engine(binary, &mut RecEngine::new())
    }

    /// Runs the pipeline through a caller-owned [`RecEngine`], so the
    /// decode cache survives across stacks run over the same binary (the
    /// cross-tool sharing the batch driver builds on). The engine's
    /// binary fingerprint drops its state between binaries, but on one
    /// binary it extends its last walk when the new seeds are a superset,
    /// so the result can follow the engine's history (see [`RecEngine`]).
    /// Equality with [`Pipeline::run`] is property-tested
    /// (`proptest_incremental::shared_engine_equals_fresh_engines`), not
    /// guaranteed by construction.
    pub fn run_with_engine(&self, binary: &Binary, engine: &mut RecEngine) -> DetectionResult {
        let mut state = DetectionState::with_engine(binary, std::mem::take(engine));
        self.apply(&mut state);
        let (result, used) = state.into_result_with_engine();
        *engine = used;
        result
    }
}

impl fmt::Display for Pipeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.id())
    }
}

impl FromStr for Pipeline {
    type Err = PipelineParseError;

    fn from_str(s: &str) -> Result<Pipeline, PipelineParseError> {
        Pipeline::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_binary::Reach;
    use fetch_synth::{synthesize, SynthConfig};

    #[test]
    fn delta_safety_follows_the_whitelist() {
        assert!(Pipeline::fetch().delta_safe());
        assert!(
            Pipeline::parse("FDE+Sym+Entry+Rec+Xref+TcallFix+CFR+Fmerg+Thunk")
                .unwrap()
                .delta_safe()
        );
        // Any byte-pattern / gap-scanning layer poisons the pipeline.
        for unsafe_id in [
            "Fsig.ghidra",
            "Fsig.angr",
            "Fsig.radare",
            "Scan",
            "Align",
            "ByteWeight",
            "Nucleus",
            "Flirt",
        ] {
            let p = Pipeline::parse(&format!("FDE+Rec+{unsafe_id}")).unwrap();
            assert!(!p.delta_safe(), "{unsafe_id} should not be delta-safe");
        }
        assert!(Pipeline::new(vec![]).delta_safe());
    }

    #[test]
    fn ids_round_trip_through_parse() {
        for (token, spec) in KNOWN_LAYERS {
            assert_eq!(spec.id(), *token, "table token drifted from id()");
            let parsed = Pipeline::parse(token).unwrap();
            assert_eq!(parsed.specs(), &[*spec]);
        }
        let all: Vec<LayerSpec> = KNOWN_LAYERS.iter().map(|(_, s)| *s).collect();
        let pipeline = Pipeline::new(all);
        assert_eq!(Pipeline::parse(&pipeline.id()).unwrap(), pipeline);
    }

    #[test]
    fn parse_is_case_insensitive_and_trims() {
        let p = Pipeline::parse(" fde + rec + xref ").unwrap();
        assert_eq!(p.id(), "FDE+Rec+Xref");
        assert_eq!(p, "FDE+REC+XREF".parse().unwrap());
    }

    #[test]
    fn parse_rejects_unknown_and_empty() {
        let err = Pipeline::parse("FDE+Wat").unwrap_err();
        assert_eq!(err, PipelineParseError::UnknownLayer("Wat".into()));
        let msg = err.to_string();
        assert!(msg.contains("\"Wat\"") && msg.contains("TcallFix"), "{msg}");
        assert_eq!(
            Pipeline::parse(" + ").unwrap_err(),
            PipelineParseError::Empty
        );
        assert_eq!(Pipeline::parse("").unwrap_err(), PipelineParseError::Empty);
        assert_eq!(
            Pipeline::parse("  \t ").unwrap_err(),
            PipelineParseError::Empty,
            "whitespace-only spec is empty"
        );
    }

    #[test]
    fn parse_rejects_duplicate_layers_naming_the_token() {
        // The second occurrence is named as written, case preserved.
        assert_eq!(
            Pipeline::parse("FDE+Rec+fde").unwrap_err(),
            PipelineParseError::DuplicateLayer("fde".into())
        );
        let msg = Pipeline::parse("Rec+Xref+Rec").unwrap_err().to_string();
        assert!(msg.contains("duplicate layer \"Rec\""), "{msg}");
        // Different configurations of one layer family are NOT
        // duplicates (Dyninst stacks two Fsig styles)...
        assert!(Pipeline::parse("Fsig.radare+Fsig.angr").is_ok());
        // ...but the same configuration twice is.
        assert_eq!(
            Pipeline::parse("Fsig.angr+Fsig.angr").unwrap_err(),
            PipelineParseError::DuplicateLayer("Fsig.angr".into())
        );
        // Pipeline::new stays permissive for programmatic experiments.
        let dup = Pipeline::new(vec![LayerSpec::FdeSeeds, LayerSpec::FdeSeeds]);
        assert_eq!(dup.len(), 2);
    }

    #[test]
    fn tool_names_and_static_pipeline_ids_round_trip() {
        for tool in Tool::ALL {
            assert_eq!(Tool::from_name(tool.name()), Some(tool));
            assert_eq!(
                Pipeline::parse(&Pipeline::for_tool(tool).id()).unwrap(),
                Pipeline::for_tool(tool),
                "{tool}: pipeline id must parse back to the same stack"
            );
        }
        assert_eq!(Tool::from_name("ida pro"), Some(Tool::IdaPro));
        assert_eq!(Tool::from_name("IDAPRO"), Some(Tool::IdaPro));
        assert_eq!(Tool::from_name("BinaryNinja"), Some(Tool::BinaryNinja));
        assert_eq!(Tool::from_name("fetch"), Some(Tool::Fetch));
        assert_eq!(Tool::from_name("objdump"), None);
    }

    #[test]
    fn spec_names_match_strategy_names() {
        // The executor records each layer's name(); declarative callers
        // predict labels from it, and the serializer interns it back.
        let case = synthesize(&SynthConfig::small(11));
        for (_, spec) in KNOWN_LAYERS {
            let result = Pipeline::new(vec![*spec]).run(&case.binary);
            assert_eq!(result.layer_names(), [spec.name()]);
            assert_eq!(
                crate::serial::intern_layer_name(spec.name()),
                Some(spec.name())
            );
        }
    }

    #[test]
    fn pipeline_run_matches_ad_hoc_stack() {
        let case = synthesize(&SynthConfig::small(11));
        let declarative = Pipeline::parse("FDE+Rec").unwrap().run(&case.binary);
        let mut state = DetectionState::new(&case.binary);
        LayerSpec::FdeSeeds.apply(&mut state);
        LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero).apply(&mut state);
        let ad_hoc = state.into_result();
        assert_eq!(declarative, ad_hoc);
        assert_eq!(declarative.layer_names(), ["FDE", "Rec"]);
    }

    #[test]
    fn trace_replay_reconstructs_every_prefix() {
        let case = synthesize(&SynthConfig::small(12));
        let pipeline = Pipeline::fetch();
        let full = pipeline.run(&case.binary);
        assert_eq!(full.trace.len(), 4);
        for k in 0..=pipeline.len() {
            let replayed = full.starts_after_layer(k);
            let direct = if k == 0 {
                Default::default()
            } else {
                Pipeline::new(pipeline.specs()[..k].to_vec())
                    .run(&case.binary)
                    .starts
            };
            assert_eq!(replayed, direct, "prefix {k} replay diverged");
        }
        assert_eq!(full.starts_after_layer(pipeline.len()), full.starts);
    }

    #[test]
    fn fetch_end_to_end_shape() {
        // The paper's headline: near-full coverage, near-full accuracy.
        let mut cfg = SynthConfig::small(81);
        cfg.n_funcs = 200;
        cfg.rates.split_cold = 0.08;
        cfg.rates.asm_funcs = 8;
        cfg.rates.mislabeled_fdes = 1;
        let case = synthesize(&cfg);
        let result = Pipeline::fetch().run(&case.binary);

        let truth = case.truth.starts();
        let found = result.start_set();

        // False negatives: only harmless classes (single-caller
        // tail-only and unreachable functions).
        for missed in truth.difference(&found) {
            let f = case.truth.function_at(*missed).unwrap();
            assert!(
                matches!(
                    f.reach,
                    Reach::TailCalled { callers: 1 } | Reach::Unreachable
                ),
                "harmful miss: {} at {missed:#x} ({:?})",
                f.name,
                f.reach
            );
        }

        // False positives: the overwhelming majority of FDE cold-part
        // starts are repaired; remaining FPs must be cold parts of
        // frame-pointer functions (incomplete CFI).
        let part_starts = case.truth.part_starts();
        for fp in found.difference(&truth) {
            assert!(
                part_starts.contains(fp),
                "unexplained false positive {fp:#x}"
            );
        }
    }

    #[test]
    fn ablations_change_results() {
        let mut cfg = SynthConfig::small(82);
        cfg.n_funcs = 150;
        cfg.rates.split_cold = 0.12;
        let case = synthesize(&cfg);
        let full = Pipeline::fetch().run(&case.binary);
        let no_repair = Pipeline::parse("FDE+Rec+Xref").unwrap().run(&case.binary);
        let truth = case.truth.starts();
        let fp = |r: &DetectionResult| r.start_set().difference(&truth).count();
        assert!(
            fp(&no_repair) > fp(&full),
            "repair reduces false positives ({} > {})",
            fp(&no_repair),
            fp(&full)
        );
    }

    #[test]
    fn for_tool_covers_all_nine_and_fetch_matches() {
        for tool in Tool::ALL {
            let p = Pipeline::for_tool(tool);
            assert!(!p.is_empty(), "{tool} has an empty stack");
            assert_eq!(
                p.specs().first().copied().unwrap() == LayerSpec::FdeSeeds,
                tool.uses_call_frames(),
                "{tool}: FDE seeding must match uses_call_frames()"
            );
        }
        assert_eq!(Pipeline::for_tool(Tool::Fetch), Pipeline::fetch());
        assert_eq!(Pipeline::fetch().id(), "FDE+Rec+Xref+TcallFix");
    }
}
