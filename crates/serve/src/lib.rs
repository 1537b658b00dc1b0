//! # fetch-serve
//!
//! The long-lived analysis service of the reproduction: a concurrent,
//! fault-tolerant daemon that accepts binaries, answers function-start
//! queries from a **bounded** serving cache backed by a **persistent,
//! crash-safe result store**, and streams per-layer trace telemetry to
//! subscribers — the deployment mode the source paper (Pang et al.,
//! DSN 2021) motivates for downstream binary-analysis consumers, where
//! the same detector runs over huge corpora and repeat traffic
//! dominates.
//!
//! ## Architecture
//!
//! ```text
//!   socket ──▶ accept loop ──▶ worker pool ─┐            ┌─ bounded AnalysisCache (LRU,
//!                                           ├─ service ──┤    request coalescing)
//!   stdio  ─────────────────────────────────┘     │      ├─ ResultStore (crash-safe,
//!                                                 │      │    recovery sweep + GC)
//!            FaultPlan ───────────────────────────┤      ├─ flight leader: pipeline or
//!            telemetry hub ◀──────────────────────┘      │    delta ladder (engine pool)
//!                                                        └─ side worker (one thread,
//!                                                             bounded queue): frame
//!                                                             table + digest beside the
//!                                                             pipeline, store save
//!                                                             after the reply
//! ```
//!
//! * [`protocol`] — the line-delimited JSON wire format: requests
//!   (`analyze`, `reanalyze`, `query`, `stats`, `subscribe`,
//!   `shutdown`), replies, and telemetry events. Deterministic
//!   rendering: a warm answer's `result` object is byte-identical to
//!   the cold one. Every failure is a *structured* error
//!   (`bad_request` / `too_large` / `busy` / `not_found` / `internal`),
//!   and request lines / inline images are hard-capped
//!   ([`protocol::MAX_LINE_BYTES`], [`protocol::MAX_INLINE_BYTES`]).
//! * [`service`] — [`AnalysisService`], the transport-agnostic core.
//!   `Sync`: one instance serves every worker. `analyze` and
//!   `reanalyze` share one answer path: the raw bytes' fingerprint →
//!   bounded cache → pending saves → persistent store (promoting hits
//!   into the cache) → only then the ELF parse → a *coalesced* flight —
//!   concurrent requests for one uncached key elect a single leader and
//!   share its answer, so N identical requests cost exactly one
//!   compute. An `analyze` leader runs the pipeline; a `reanalyze`
//!   leader answers a *new version* of a known binary through the delta
//!   ladder ([`fetch_core::run_delta`]): verbatim reuse when the persisted
//!   [`fetch_core::ImageDigest`] proves the patch answer-preserving
//!   (source `"delta"`, `stats.delta` counters), cold
//!   otherwise — always byte-identical to a cold `analyze`. The new
//!   version's digest is derived from the predecessor's
//!   ([`fetch_core::ImageDigest::compute_from`]), so a one-function patch
//!   re-sweeps one bucket. A cold leader shares the image's
//!   [`fetch_core::BinaryFacts`] with the service's side worker, which
//!   builds the CFI frame table and the digest while the pipeline runs,
//!   and saves the result to the store after the reply; until the save
//!   lands, lookups find the result among the pending saves.
//! * [`store`] — [`ResultStore`]: one atomic, versioned, checksummed
//!   file per `(image fingerprint, pipeline id)` (the
//!   [`fetch_core::bytes_fingerprint`] of the raw ELF), holding the
//!   content of a [`fetch_core::DetectionResult`] (starts and per-layer
//!   start deltas, no timings) and the image's
//!   [`fetch_core::ImageDigest`], via
//!   [`fetch_core::serialize_result_with_digest`]. Opening runs a
//!   recovery sweep (orphaned temps reaped, invalid entries
//!   quarantined); a [`store::GcPolicy`] bounds the store by entries /
//!   bytes / age. There is one store format and one result format
//!   ([`fetch_core::RESULT_VERSION`]): a corrupted, misfiled or
//!   other-version file takes one path — rejected (quarantined by the
//!   sweep), recomputed on demand, overwritten — and is never misread
//!   or migrated.
//! * [`server`] — the transports, socket or stdio: a Unix-socket accept
//!   loop feeding a bounded worker pool with per-connection deadlines
//!   and `busy` load shedding, and stdio, the fallback on every
//!   platform. Both share one request-line loop.
//! * [`fault`] — [`FaultPlan`]: deterministic fault injection at named
//!   sites in the store and the transports, armed in the daemon by
//!   `--fault-plan`, so tests and chaos runs exercise the same code
//!   they ship.
//! * [`json`] — the minimal dependency-free JSON tree under all of it.
//!
//! ## The answer path under failure
//!
//! Every failure mode has a defined, observable outcome — never a hang,
//! a panic, or a wrong answer:
//!
//! | failure | outcome |
//! |---|---|
//! | store entry corrupt/truncated | rejected by checksum, recomputed cold, overwritten (`store_errors`); the startup sweep quarantines it |
//! | store write fails | answer still served; warmth degraded (logged) |
//! | crash between the reply and its save (`service.persist`) | answer already served; the restart recomputes it cold |
//! | crash mid store-write | temp file reaped by the next startup sweep; no live key ever refers to a partial file |
//! | leader compute fails (`analyze` or `reanalyze`) | waiters wake and elect a new leader; the failed request gets a structured `internal` error |
//! | pending queue full | connection shed with structured `busy` (`shed_busy`) |
//! | request over size caps | structured `too_large` (`rejected_too_large`) |
//! | client stalls or goes silent | connection dropped at the read/write deadline |
//! | `--socket` path held by a live daemon | the new daemon exits with `AddrInUse`; the live one keeps its socket |
//!
//! ## Knobs
//!
//! | knob | flag | default |
//! |---|---|---|
//! | worker threads | `--jobs` | 4 |
//! | pending-connection bound | `--queue-depth` | 64 |
//! | read/write deadline | `--io-timeout-ms` | 30 000 |
//! | cache entries / bytes | `--cache-capacity` / `--cache-bytes` | unbounded |
//! | store GC: entries / bytes / age | `--store-max-entries` / `--store-max-bytes` / `--store-max-age-secs` | unbounded |
//! | fault plan | `--fault-plan` | empty |
//! | log level | `--log-level` | `info` |
//!
//! ## Observability
//!
//! The daemon carries a full runtime-observability layer built on
//! [`fetch_obs`] (note the naming split: `fetch-obs` is *runtime*
//! telemetry — counters, latency histograms, spans, logging — while
//! the `fetch-metrics` crate is the paper's *accuracy* metrics,
//! precision/recall against ground truth; they share nothing):
//!
//! * **Registry-backed counters.** Every counter the `stats` reply
//!   reports is an `Arc<AtomicU64>` registered into one
//!   [`fetch_obs::Registry`] — the `metrics` verb and the `stats` verb
//!   read the *same atomics*, so the two can never drift (asserted
//!   exactly by the `obs_reconciliation` property test, and under
//!   fault-armed socket load across a restart by the `fault_injection`
//!   suite).
//!   The partition identity holds by construction:
//!   `fetch_requests_total == cache_hits + store_hits + delta_hits +
//!   cold + coalesced + errors + shed_busy`.
//! * **Latency histograms.** Log-bucketed ([`fetch_obs::Histogram`])
//!   per-source request latency (`fetch_request_us{source="…"}`, one
//!   observation per answer-path request), pending-queue wait,
//!   reply-write, coalescing leader/waiter walls, store save/load, and
//!   per-layer pipeline walls (`fetch_layer_wall_us{layer="…"}`,
//!   recorded on cold answers only — no other answer runs a layer).
//! * **The `metrics` verb.** `{"cmd":"metrics"}` returns both a
//!   Prometheus-style text exposition (`text`) and the same snapshot as
//!   structured JSON (`metrics`). Gauges (cache/store residency) are
//!   refreshed at exposition time. Every [`FaultPlan`] site appears as
//!   `fetch_fault_fired_total{site="…"}` — zeros included, so a chaos
//!   run can assert where its plan landed.
//! * **Request IDs.** Every reply envelope carries a per-daemon
//!   monotonic `req_id` (stamped at the transport; `result` bytes are
//!   unaffected), and telemetry `request`/`layer` events carry the same
//!   id — one grep correlates a reply with its event stream and any
//!   log lines it produced.
//! * **Structured logging.** [`fetch_obs::logmsg`] replaces ad-hoc
//!   stderr prints: `level seconds req_id message`, gated by
//!   `--log-level` (`off`..`trace`).
//!
//! `perf_snapshot`'s `obs` group prices the layer itself: the
//! instrumented answer path must hold the same 10 ms large-corpus
//! budget as the bare pipeline, with the histogram-record and
//! exposition micro-costs published alongside.
//!
//! ## Example
//!
//! In-process use (the transports are optional — harnesses drive the
//! service directly; `fetch-bench`'s `perf_snapshot` publishes the
//! cold / cache-hit / store-hit latencies and the concurrency sweep as
//! the `serve` group):
//!
//! ```
//! use fetch_serve::protocol::{AnalyzeInput, Reply, Request, ServeSource};
//! use fetch_serve::service::{AnalysisService, ServeConfig};
//! use fetch_core::Pipeline;
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let case = synthesize(&SynthConfig::small(1));
//! let elf = fetch_binary::write_elf(&case.binary);
//! let service = AnalysisService::new(&ServeConfig::default()).unwrap();
//! let request = Request::Analyze {
//!     input: AnalyzeInput::Bytes(elf),
//!     pipeline: Pipeline::fetch(),
//! };
//! let (cold, warm) = match (service.handle(request.clone()), service.handle(request)) {
//!     (Reply::Analyze(c), Reply::Analyze(w)) => (c, w),
//!     other => panic!("{other:?}"),
//! };
//! assert_eq!(cold.source, ServeSource::Cold);
//! assert_eq!(warm.source, ServeSource::CacheHit);
//! assert_eq!(*cold.result, *warm.result);
//! ```
//!
//! Daemon use: `fetch-serve daemon --socket /tmp/fetch.sock --store
//! /var/cache/fetch --cache-capacity 4096 --jobs 8`, then `fetch-serve
//! client --socket /tmp/fetch.sock --analyze ./a.out`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;
mod side;
pub mod store;

pub use fault::{FaultKind, FaultPlan};
pub use protocol::{
    AnalyzeReply, ErrorCode, MetricsReply, Reply, Request, ServeSource, StatsCounter,
};
pub use server::{serve, serve_io, ServeSummary, ServerOptions};
pub use service::{AnalysisService, ServeConfig, TelemetryHub};
pub use store::{GcPolicy, ResultStore, StoreError, StoreLifecycle};
