//! # fetch-core
//!
//! The FETCH function-start detector and the composable strategy
//! framework of the reproduction ("Towards Optimal Use of Exception
//! Handling Information for Function Detection", DSN 2021).
//!
//! ## Layers
//!
//! Every layer is a [`LayerSpec`] variant; [`LayerSpec::apply`] runs it.
//!
//! *Safe* (correctness-preserving): `FDE` seeds, `Sym` seeds, `Entry`,
//! `Rec` (safe recursion), `Xref` (pointer scan, §IV-E) and `TcallFix`
//! ([`CallFrameRepair`], Algorithm 1 of §V-B).
//!
//! *Unsafe* (tool heuristics, modeled for the Figure 5 study): `Fsig`
//! (prologue matching), `Tcall` (tail-call heuristic), `Scan`, `CFR`,
//! `Fmerg`, `Thunk`, `Align`, `ByteWeight`, `Nucleus` and `Flirt`.
//!
//! The [`Fetch`] type wires the optimal stack together.
//!
//! ## The shared substrate (what layers run *on*)
//!
//! Layers never re-disassemble the binary themselves. A
//! [`DetectionState`] owns three pieces of machinery that make stacking
//! layers cheap:
//!
//! * **Dense instruction store** — decoded instructions live in a flat
//!   pool indexed by a byte-offset table over `.text`
//!   ([`fetch_disasm::Disassembly`]): O(1) lookup and visited checks,
//!   bounded predecessor scans, cache-friendly iteration.
//! * **Incremental recursion** — [`DetectionState::run_recursion`] goes
//!   through a persistent [`fetch_disasm::RecEngine`] that caches every
//!   decode (text bytes never change) and reuses the previous walk:
//!   a layer that adds a few starts re-walks only from those seeds, an
//!   unchanged seed set returns the cached result, and non-return
//!   fixpoint rounds re-walk only when a decoded call site's behavior
//!   actually changed.
//! * **Analysis caches** — [`DetectionState::xrefs`],
//!   [`DetectionState::extents`], [`DetectionState::data_pointers`],
//!   [`DetectionState::code_constants`] and [`DetectionState::start_set`]
//!   are memoized under generation counters advanced by
//!   `add_start`/`remove_start`/`run_recursion`, so `TcallFix`, `Xref`
//!   and the unsafe heuristics stop recomputing each other's inputs.
//!
//! The incremental path is observationally identical to from-scratch
//! re-runs ([`DetectionState::new_reference`]); a property test over
//! random corpora and random layer stacks enforces the equivalence.
//!
//! The engine can also outlive a single state:
//! [`Pipeline::run_with_engine`] and [`Fetch::detect_with_engine`]
//! thread a caller-owned [`fetch_disasm::RecEngine`] through the run, so
//! several stacks (e.g. all nine tool models of `fetch-tools`) analysing
//! the same binary share one decode cache. A second property test
//! proves sharing an engine across different stacks changes no result.
//! Parallelism lives outside one analysis — the batch driver's
//! per-binary workers (`BatchDriver --jobs` in `fetch-bench`) and the
//! serving daemon's worker pool (`fetch-serve --jobs`) — and each worker
//! owns its engine. The walk for one binary stays serial.
//!
//! ## Pipelines: spec → executor → trace → cache
//!
//! Detectors are *data*, not code paths. The pipeline subsystem has four
//! stages:
//!
//! 1. **Spec** — a [`Pipeline`] is an ordered `Vec<`[`LayerSpec`]`>`
//!    with a stable textual identity ([`Pipeline::id`], e.g.
//!    `"FDE+Rec+Xref+TcallFix"`) that round-trips through
//!    [`Pipeline::parse`]. [`Pipeline::fetch`] is the paper's optimal
//!    stack; [`Pipeline::for_tool`] holds all nine Table III tool
//!    stacks as declarative data.
//! 2. **Executor** — [`Pipeline::apply`] runs each spec through the
//!    one traced step, [`LayerSpec::apply`], which dispatches by `match`
//!    to the layer's body. Every entry point (`Fetch` detectors, tool
//!    models, ad-hoc `Pipeline::parse("FDE+Rec+…")` stacks) funnels
//!    through that step, so layer names in
//!    [`DetectionResult::layers`] can never drift from what ran.
//! 3. **Trace** — the executor records a [`LayerTrace`] per layer (wall
//!    time, exact start delta with provenance, decode-cache work) into
//!    [`DetectionResult::trace`]. Traces replay:
//!    [`DetectionResult::starts_after_layer`] reconstructs every prefix
//!    stack's result from one run — the ablation harnesses consume that
//!    instead of re-running shared prefixes.
//! 4. **Cache** — [`AnalysisCache`] memoizes `Arc<DetectionResult>`
//!    under `(binary content fingerprint, pipeline id)`; re-analyzing a
//!    seen binary under a seen pipeline is a lookup
//!    ([`Fetch::detect_image_cached`], [`Fetch::detect_cached`]).
//!
//! ## Serving: spec → executor → trace → bounded cache → persistent store → daemon
//!
//! The pipeline stages above compose into a long-lived serving path —
//! the deployment mode the paper motivates for downstream binary-analysis
//! consumers, implemented by the `fetch-serve` crate:
//!
//! * **Bounded cache.** A daemon's cache cannot grow with its traffic:
//!   [`AnalysisCache::with_capacity`] bounds residency by entry count
//!   and/or approximate bytes ([`CacheCapacity`],
//!   [`DetectionResult::approx_bytes`]) with least-recently-used
//!   eviction. Eviction never changes an answer — a re-query recomputes
//!   the identical result — and [`CacheStats`] reports evictions and the
//!   live footprint alongside hits/misses.
//! * **Persistent store.** [`serialize_result`] /
//!   [`deserialize_result`] encode a [`DetectionResult`] *with its full
//!   [`LayerTrace`] telemetry* into a versioned, checksummed,
//!   deterministic byte format, keyed externally by
//!   `(content fingerprint, pipeline id)` — the same stable identities
//!   the cache uses — so a restarted daemon answers warm from disk, and
//!   a truncated or bit-flipped store file is rejected, never misread.
//! * **Daemon.** `fetch-serve` accepts work over a local socket and a
//!   directory queue, answers bounded-cache-first, store-second,
//!   cold-compute-last, and streams each request's per-layer trace to
//!   telemetry subscribers.
//!
//! The full serving round trip, in process:
//!
//! ```
//! use fetch_core::{
//!     content_fingerprint, deserialize_result, serialize_result, AnalysisCache,
//!     CacheCapacity, Pipeline,
//! };
//! use fetch_synth::{synthesize, SynthConfig};
//! use std::sync::Arc;
//!
//! let case = synthesize(&SynthConfig::small(6));
//! let pipeline = Pipeline::fetch();
//! let fp = content_fingerprint(&case.binary);
//!
//! // A bounded serving cache: at most 128 entries stay resident.
//! let cache = AnalysisCache::with_capacity(CacheCapacity::entries(128));
//! let cold = cache.get_or_compute(fp, &pipeline.id(), || pipeline.run(&case.binary));
//!
//! // Persist across a "restart": serialize, then restore into a fresh
//! // cache — the answer (and its trace) survives byte-identically.
//! let bytes = serialize_result(&cold).unwrap();
//! let restarted = AnalysisCache::with_capacity(CacheCapacity::entries(128));
//! let warm = restarted.insert(fp, &pipeline.id(), Arc::new(deserialize_result(&bytes).unwrap()));
//! assert_eq!(*warm, *cold);
//! assert_eq!(restarted.lookup(fp, &pipeline.id()).as_deref(), Some(&*cold));
//! ```
//!
//! ## Observability: registry-backed cache counters
//!
//! [`CacheStats`] counters (hits/misses/evictions/coalesced) are
//! plain shared atomics, so a serving process can export them without
//! mirroring: [`AnalysisCache::register_metrics`] hands the *same*
//! atomics to a `fetch-obs` [`fetch_obs::Registry`], and any later
//! exposition reads what [`AnalysisCache::stats`] reads — the two can
//! never disagree. (Naming note: `fetch-obs` is runtime telemetry;
//! the `fetch-metrics` crate is the paper's detection-accuracy
//! metrics. Different axes, different crates.)
//!
//! ```
//! use fetch_core::{AnalysisCache, CacheCapacity, Pipeline};
//! use fetch_obs::{MetricValue, Registry};
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let cache = AnalysisCache::with_capacity(CacheCapacity::entries(8));
//! let registry = Registry::new();
//! cache.register_metrics(&registry, "fetch_cache");
//!
//! let case = synthesize(&SynthConfig::small(3));
//! let pipeline = Pipeline::fetch();
//! let fp = fetch_core::content_fingerprint(&case.binary);
//! cache.get_or_compute(fp, &pipeline.id(), || pipeline.run(&case.binary));
//! cache.get_or_compute(fp, &pipeline.id(), || unreachable!());
//!
//! // The registry sees the hit the cache's own stats saw.
//! let snap = registry.snapshot();
//! let hits = snap
//!     .entries
//!     .iter()
//!     .find_map(|(name, v)| match (name.as_str(), v) {
//!         ("fetch_cache_hits_total", MetricValue::Counter(n)) => Some(*n),
//!         _ => None,
//!     })
//!     .unwrap();
//! assert_eq!(hits, cache.stats().hits);
//! assert_eq!(hits, 1);
//! ```
//!
//! ## Versioned delta: digest → diff → replay → fallback
//!
//! Serving CI/CD workloads means the *same program, rebuilt*: most
//! resubmissions differ from an already-analyzed image by a handful of
//! functions. The delta subsystem makes those incremental:
//!
//! 1. **Digest.** [`ImageDigest::compute`] fingerprints an image at
//!    section granularity, bucketing `.text` by its (merged) FDE ranges.
//!    Each [`BucketDigest`] carries a `raw` hash of the exact bytes and
//!    a `sem` hash of a masked linear sweep — `mov reg, imm`
//!    immediates that no layer can observe (non-`rdi`, not
//!    section-address-like) are elided, so data-constant patches hash
//!    equal. The sweep hashes each instruction's typed [`fetch_x64::Op`]
//!    through its derived `Hash`. Given the predecessor's digest,
//!    [`ImageDigest::compute_from`] returns the same digest for a
//!    fraction of the work: it keeps the predecessor's bucket geometry
//!    when no section shape and no `.eh_frame` byte moved, and its `sem`
//!    for every covered bucket whose bytes, plus the
//!    `MAX_INST_LEN − 1` bytes after it, are unchanged. A one-function
//!    patch re-sweeps one bucket. Digests travel with results: the serial
//!    format ([`serialize_result_with_digest`], version
//!    [`RESULT_VERSION`]) embeds them, and older blobs still read back
//!    with digest `None` — pre-digest ([`RESULT_VERSION_V1`]) ones, and
//!    [`RESULT_VERSION_V2`]/[`RESULT_VERSION_V3`] ones whose `sem` used
//!    another hash scheme.
//! 2. **Diff.** [`diff_digests`] classifies a version pair:
//!    [`DigestDiff::Identical`], [`DigestDiff::LocalText`] (only text
//!    bucket contents moved — with the changed windows, a semantic
//!    verdict, and the reuse count), or [`DigestDiff::NonLocal`]
//!    (layout/symbols/entry/non-text changed).
//! 3. **Replay.** [`run_delta`] walks the ladder: identical → old
//!    result verbatim; local + semantically equal + a
//!    [`Pipeline::delta_safe`] stack → old result verbatim (the
//!    `delta_hits` path); local otherwise → full pipeline re-run
//!    through [`fetch_disasm::RecEngine::rewarm_patched`], which keeps
//!    every decode outside the patched windows warm.
//! 4. **Fallback.** Non-local diffs and digest-less predecessors drop
//!    to a plain cold run — delta is an optimization, never a gamble:
//!    every tier's answer is byte-identical to cold (differentially
//!    property-tested in `tests/proptest_delta.rs`).
//!
//! ```
//! use fetch_core::{image_fingerprint, DeltaClass, Fetch, ImageDigest};
//! use fetch_binary::{write_elf, ElfImage};
//! use fetch_disasm::RecEngine;
//! use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
//! use std::sync::Arc;
//!
//! // Version 1: analyze cold, keep the result and its digest.
//! let case = synthesize(&SynthConfig::small(11));
//! let mut engine = RecEngine::new();
//! let fetch = Fetch::new();
//! let v1_image = ElfImage::parse(write_elf(&case.binary)).unwrap();
//! let v1 = Arc::new(fetch.detect_image(&v1_image, &mut engine));
//! let v1_digest = ImageDigest::compute(&case.binary, 0);
//!
//! // Version 2: one function's constant changed (a neutral patch).
//! let patched = patch_function(&case, 7, PatchKind::Neutral).unwrap();
//! let v2_image = ElfImage::parse(write_elf(&patched.binary)).unwrap();
//!
//! // Delta answers from the old result without re-running a layer...
//! let (out, v2_digest) =
//!     fetch.detect_delta(&v1, Some(&v1_digest), &v2_image, &mut engine);
//! assert_eq!(out.class, DeltaClass::SectionReuse);
//! // ...and is byte-identical to a cold run on the new version.
//! assert_eq!(*out.result, fetch.detect(&patched.binary));
//! // The incrementally derived digest is the full one.
//! let full = ImageDigest::compute(&patched.binary, image_fingerprint(&v2_image));
//! assert_eq!(v2_digest, full);
//! ```
//!
//! # Examples
//!
//! Build and run a custom pipeline, inspect its trace, then serve a
//! repeat query from the cache:
//!
//! ```
//! use fetch_core::{content_fingerprint, AnalysisCache, LayerSpec, Pipeline};
//! use fetch_disasm::ErrorCallPolicy;
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(5));
//!
//! // A custom stack, from specs or from its textual id.
//! let pipeline = Pipeline::new(vec![
//!     LayerSpec::FdeSeeds,
//!     LayerSpec::SafeRecursion(ErrorCallPolicy::SliceZero),
//!     LayerSpec::PointerScan,
//! ]);
//! assert_eq!(pipeline, Pipeline::parse("FDE+Rec+Xref").unwrap());
//!
//! let result = pipeline.run(&case.binary);
//! assert_eq!(result.layers, ["FDE", "Rec", "Xref"]);
//! // The trace knows what each layer contributed...
//! assert!(result.trace[0].added.len() > 10, "FDE seeded starts");
//! // ...and replays: the prefix FDE+Rec falls out of the same run.
//! let fde_rec = result.starts_after_layer(2);
//! assert!(fde_rec.len() <= result.starts.len());
//!
//! // Serve the same query again: one fingerprint, one lookup.
//! let cache = AnalysisCache::new();
//! let fp = content_fingerprint(&case.binary);
//! let cold = cache.get_or_compute(fp, &pipeline.id(), || pipeline.run(&case.binary));
//! let warm = cache.get_or_compute(fp, &pipeline.id(), || unreachable!());
//! assert!(std::sync::Arc::ptr_eq(&cold, &warm));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm1;
mod cache;
mod delta;
mod fetch;
mod heuristics;
mod pipeline;
mod pointer_scan;
mod serial;
mod state;
mod strategy;

pub use algorithm1::{CallFrameRepair, RepairReport};
pub use cache::{
    content_fingerprint, diff_digests, image_fingerprint, AnalysisCache, BucketDigest,
    CacheCapacity, CacheStats, DigestDiff, Flight, FlightGuard, ImageDigest, SectionDigest,
};
pub use delta::{run_delta, DeltaClass, DeltaOutcome};
pub use fetch::Fetch;
pub use heuristics::{code_gaps, ToolStyle};
pub use pipeline::{LayerSpec, Pipeline, PipelineParseError, Tool, KNOWN_LAYERS};
pub use pointer_scan::{
    collect_data_pointers, collect_data_pointers_counted, validate_candidate,
    validate_candidate_indexed, OwnerIndex, ValidationError,
};
pub use serial::{
    deserialize_result, deserialize_result_full, intern_layer_name, serialize_result,
    serialize_result_legacy, serialize_result_with_digest, SerialError, RESULT_MAGIC,
    RESULT_VERSION, RESULT_VERSION_V1, RESULT_VERSION_V2, RESULT_VERSION_V3,
};
pub use state::{DetectionResult, DetectionState, FrameTable, LayerTrace, Provenance};
