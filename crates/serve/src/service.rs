//! The transport-agnostic daemon core: one [`AnalysisService`] owns the
//! bounded cache, the persistent store, a pool of decode engines, and
//! the telemetry hub, and turns parsed [`Request`]s into [`Reply`]s.
//!
//! The service is `Sync` — [`AnalysisService::handle`] takes `&self`,
//! so one instance is shared by every worker of the server's pool
//! (and by the directory-queue and stdio transports) without an outer
//! lock around request handling.
//!
//! Answer path for an analyze request, in order:
//!
//! 1. **Bounded cache** ([`fetch_core::AnalysisCache`]) — fingerprint
//!    hash + map lookup, no ELF materialization.
//! 2. **Persistent store** ([`ResultStore`]) — one file read +
//!    checksummed decode; the loaded result is promoted into the cache.
//!    A corrupt entry is *rejected* (counted in
//!    [`RequestCounters::store_errors`]), recomputed cold, and
//!    overwritten.
//! 3. **Coalesced cold compute** — the request joins the cache's
//!    flight table ([`fetch_core::AnalysisCache::join_flight`]): the
//!    first arrival for an uncached key becomes the *leader* and runs
//!    the pipeline; every concurrent arrival for the same key blocks on
//!    the flight and receives the leader's `Arc` (source
//!    `"coalesced"`). N concurrent requests for one uncached
//!    fingerprint perform exactly one cold compute. A leader that fails
//!    (panic or injected fault) wakes the waiters, one of which takes
//!    over — a dead leader never strands the group.
//!
//! Cold computes borrow a [`RecEngine`] from the service's engine pool
//! (decode caches persist across requests; concurrent colds each get
//! their own engine) and the leader persists the answer — plus the
//! image's [`ImageDigest`] — to the store *after* publishing it to
//! waiters, so coalesced repliers never block on disk.
//!
//! A `reanalyze` request names a previously-analyzed *predecessor* and
//! submits a new version of the same binary; the service fetches the
//! predecessor's result and digest (cache, then store) and runs the
//! delta ladder ([`run_delta`]), so an unchanged or locally-patched
//! binary is answered without re-running the pipeline (source
//! `"delta"`, counted in `stats.delta`). Every tier is byte-identical
//! to a cold analyze of the same image.
//!
//! Every analyze/query answer also broadcasts its telemetry — a
//! `request` event plus one `layer` event per [`fetch_core::LayerTrace`]
//! — to the subscribers registered on the [`TelemetryHub`]. Warm
//! answers replay the trace persisted with the result, so the per-layer
//! telemetry survives both the cache and a restart.

use crate::fault::{FaultKind, FaultPlan};
use crate::json::Json;
use crate::protocol::{
    telemetry_events, AnalyzeInput, AnalyzeReply, DeltaCounters, ErrorCode, MetricsReply, Reply,
    Request, RequestCounters, ServeSource, StatsReply,
};
use crate::store::{GcPolicy, ResultStore};
use fetch_binary::{Binary, ElfImage};
use fetch_core::{
    image_fingerprint, run_delta, AnalysisCache, CacheCapacity, DeltaClass, DetectionResult,
    Flight, ImageDigest, Pipeline,
};
use fetch_disasm::RecEngine;
use fetch_obs::{logmsg, Histogram, IdGen, LogLevel, MetricValue, Registry, Snapshot};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Telemetry fan-out: registered sinks receive every event line. A sink
/// whose write fails is dropped (a disconnected subscriber must never
/// wedge the daemon).
#[derive(Default)]
pub struct TelemetryHub {
    sinks: Mutex<Vec<Box<dyn Write + Send>>>,
}

impl std::fmt::Debug for TelemetryHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TelemetryHub({} sinks)", self.subscriber_count())
    }
}

impl TelemetryHub {
    /// Registers a sink; it receives every subsequent event line.
    pub fn subscribe(&self, sink: Box<dyn Write + Send>) {
        self.sinks.lock().expect("hub lock").push(sink);
    }

    /// Currently registered sinks.
    pub fn subscriber_count(&self) -> usize {
        self.sinks.lock().expect("hub lock").len()
    }

    /// Writes one event line (newline appended) to every sink, dropping
    /// sinks that fail.
    pub fn broadcast(&self, line: &str) {
        let mut sinks = self.sinks.lock().expect("hub lock");
        sinks.retain_mut(|sink| {
            sink.write_all(line.as_bytes())
                .and_then(|()| sink.write_all(b"\n"))
                .and_then(|()| sink.flush())
                .is_ok()
        });
    }
}

/// Configuration of an [`AnalysisService`].
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Directory of the persistent result store (`None` = memory-only:
    /// answers do not survive a restart).
    pub store_dir: Option<PathBuf>,
    /// Bounds of the in-memory cache (default: unbounded).
    pub cache_capacity: CacheCapacity,
    /// Age/size bounds of the store (default: unbounded, no GC).
    pub store_gc: GcPolicy,
    /// The armed fault plan (default: empty — never fires).
    pub faults: Arc<FaultPlan>,
}

/// Lock-free request counters ([`RequestCounters`] is their snapshot).
///
/// Every field is an `Arc<AtomicU64>` so the same atomic can be
/// registered into the service's [`Registry`] — the `stats` reply and
/// the `metrics` exposition read *identical* storage and therefore
/// reconcile exactly by construction.
#[derive(Debug, Default)]
struct Counters {
    requests_total: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    analyze: Arc<AtomicU64>,
    reanalyze: Arc<AtomicU64>,
    query: Arc<AtomicU64>,
    cold: Arc<AtomicU64>,
    cache_hits: Arc<AtomicU64>,
    store_hits: Arc<AtomicU64>,
    store_errors: Arc<AtomicU64>,
    coalesced: Arc<AtomicU64>,
    shed_busy: Arc<AtomicU64>,
    rejected_too_large: Arc<AtomicU64>,
    queue_quarantined: Arc<AtomicU64>,
    delta_hits: Arc<AtomicU64>,
    sections_reused: Arc<AtomicU64>,
    fallback_cold: Arc<AtomicU64>,
    digest_mismatch: Arc<AtomicU64>,
}

impl Counters {
    /// Binds every counter into `registry` under its exposition name.
    fn register(&self, registry: &Registry) {
        for (name, atomic) in [
            ("fetch_requests_total", &self.requests_total),
            ("fetch_requests_errors_total", &self.errors),
            ("fetch_requests_analyze_total", &self.analyze),
            ("fetch_requests_reanalyze_total", &self.reanalyze),
            ("fetch_requests_query_total", &self.query),
            ("fetch_requests_cold_total", &self.cold),
            ("fetch_requests_cache_hits_total", &self.cache_hits),
            ("fetch_requests_store_hits_total", &self.store_hits),
            ("fetch_requests_store_errors_total", &self.store_errors),
            ("fetch_requests_coalesced_total", &self.coalesced),
            ("fetch_requests_shed_busy_total", &self.shed_busy),
            (
                "fetch_requests_rejected_too_large_total",
                &self.rejected_too_large,
            ),
            (
                "fetch_requests_queue_quarantined_total",
                &self.queue_quarantined,
            ),
            ("fetch_delta_hits_total", &self.delta_hits),
            ("fetch_delta_sections_reused_total", &self.sections_reused),
            ("fetch_delta_fallback_cold_total", &self.fallback_cold),
            ("fetch_delta_digest_mismatch_total", &self.digest_mismatch),
        ] {
            registry.register_counter(name, Arc::clone(atomic));
        }
    }

    fn snapshot(&self) -> RequestCounters {
        RequestCounters {
            requests_total: self.requests_total.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            analyze: self.analyze.load(Ordering::Relaxed),
            reanalyze: self.reanalyze.load(Ordering::Relaxed),
            query: self.query.load(Ordering::Relaxed),
            cold: self.cold.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            store_hits: self.store_hits.load(Ordering::Relaxed),
            store_errors: self.store_errors.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            shed_busy: self.shed_busy.load(Ordering::Relaxed),
            rejected_too_large: self.rejected_too_large.load(Ordering::Relaxed),
            queue_quarantined: self.queue_quarantined.load(Ordering::Relaxed),
        }
    }

    fn delta_snapshot(&self) -> DeltaCounters {
        DeltaCounters {
            delta_hits: self.delta_hits.load(Ordering::Relaxed),
            sections_reused: self.sections_reused.load(Ordering::Relaxed),
            fallback_cold: self.fallback_cold.load(Ordering::Relaxed),
            digest_mismatch: self.digest_mismatch.load(Ordering::Relaxed),
        }
    }
}

/// The answer-source tokens a request latency is bucketed under —
/// `fetch_request_us{source="…"}` histograms, one per token. The sum of
/// their counts equals `fetch_requests_total` (every answer-path
/// request is recorded exactly once).
const REQUEST_SOURCES: [&str; 7] = [
    "cache",
    "store",
    "cold",
    "coalesced",
    "delta",
    "error",
    "shed",
];

/// The observability core of one service instance: the metric registry
/// plus the pre-resolved histogram handles of every instrumented site
/// on the answer path (resolving by name per request would take the
/// registry lock on the hot path).
pub(crate) struct ServiceObs {
    pub(crate) registry: Arc<Registry>,
    ids: IdGen,
    /// Request latency per answer source, [`REQUEST_SOURCES`] order.
    request_us: [Arc<Histogram>; 7],
    /// Wall time a connection sat in the server's pending queue.
    pub(crate) queue_wait_us: Arc<Histogram>,
    /// Wall time writing one reply line to a transport.
    pub(crate) reply_write_us: Arc<Histogram>,
    /// Coalescing: how long a leader held the flight (compute+publish).
    coalesce_leader_us: Arc<Histogram>,
    /// Coalescing: how long a waiter blocked for the leader's answer.
    coalesce_wait_us: Arc<Histogram>,
    /// Per-layer pipeline walls of fresh computes, keyed by layer name.
    layer_walls: Mutex<HashMap<&'static str, Arc<Histogram>>>,
}

impl std::fmt::Debug for ServiceObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ServiceObs({:?})", self.registry)
    }
}

impl ServiceObs {
    fn new(registry: Arc<Registry>) -> ServiceObs {
        let request_us = REQUEST_SOURCES
            .map(|source| registry.histogram(&format!("fetch_request_us{{source=\"{source}\"}}")));
        ServiceObs {
            ids: IdGen::new(),
            queue_wait_us: registry.histogram("fetch_queue_wait_us"),
            reply_write_us: registry.histogram("fetch_reply_write_us"),
            coalesce_leader_us: registry.histogram("fetch_coalesce_leader_us"),
            coalesce_wait_us: registry.histogram("fetch_coalesce_wait_us"),
            layer_walls: Mutex::new(HashMap::new()),
            request_us,
            registry,
        }
    }

    fn request_hist(&self, source: &str) -> &Arc<Histogram> {
        let idx = REQUEST_SOURCES
            .iter()
            .position(|s| *s == source)
            .expect("known source token");
        &self.request_us[idx]
    }

    /// Records the per-layer walls of a freshly computed trace (warm
    /// answers replay persisted traces and are *not* re-recorded).
    fn record_layer_walls(&self, result: &DetectionResult) {
        let mut walls = self.layer_walls.lock().unwrap_or_else(|p| p.into_inner());
        for t in &result.trace {
            let hist = walls.entry(t.name).or_insert_with(|| {
                self.registry
                    .histogram(&format!("fetch_layer_wall_us{{layer=\"{}\"}}", t.name))
            });
            hist.record(t.wall_us() as u64);
        }
    }
}

/// The daemon core (see the [module docs](self)).
#[derive(Debug)]
pub struct AnalysisService {
    cache: AnalysisCache,
    store: Option<ResultStore>,
    /// Decode engines for cold computes: borrowed per compute, returned
    /// after, so decode caches persist across requests and concurrent
    /// colds never contend on one engine.
    engines: Mutex<Vec<RecEngine>>,
    telemetry: TelemetryHub,
    counters: Counters,
    faults: Arc<FaultPlan>,
    shutdown: AtomicBool,
    obs: ServiceObs,
}

impl AnalysisService {
    /// Builds a service from `config`, opening (or creating) the store
    /// directory — which runs the startup recovery sweep — when one is
    /// configured.
    pub fn new(config: &ServeConfig) -> std::io::Result<AnalysisService> {
        let registry = Arc::new(Registry::new());
        let obs = ServiceObs::new(Arc::clone(&registry));
        let mut store = match &config.store_dir {
            Some(dir) => Some(ResultStore::open_with(
                dir,
                config.store_gc,
                config.faults.clone(),
            )?),
            None => None,
        };
        if let Some(store) = &mut store {
            store.bind_obs(
                registry.histogram("fetch_store_save_us"),
                registry.histogram("fetch_store_load_us"),
            );
        }
        let counters = Counters::default();
        counters.register(&registry);
        let cache = AnalysisCache::with_capacity(config.cache_capacity);
        cache.register_metrics(&registry, "fetch_cache");
        registry.register_counter("fetch_faults_injected_total", config.faults.fired_handle());
        for (site, handle) in config.faults.site_counter_handles() {
            registry.register_counter(
                &format!("fetch_fault_fired_total{{site=\"{site}\"}}"),
                handle,
            );
        }
        Ok(AnalysisService {
            cache,
            store,
            engines: Mutex::new(Vec::new()),
            telemetry: TelemetryHub::default(),
            counters,
            faults: config.faults.clone(),
            shutdown: AtomicBool::new(false),
            obs,
        })
    }

    /// The service's metric registry (the `metrics` verb renders it;
    /// harnesses may register their own series).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs.registry
    }

    /// The service's observability handles (transport instrumentation).
    pub(crate) fn obs(&self) -> &ServiceObs {
        &self.obs
    }

    /// Draws the next monotonic request ID. Transports draw one per
    /// incoming request so the reply envelope, the telemetry events,
    /// and the log lines of one request all agree.
    pub fn next_req_id(&self) -> u64 {
        self.obs.ids.next_id()
    }

    /// The telemetry hub (transports register subscribers here).
    pub fn telemetry(&self) -> &TelemetryHub {
        &self.telemetry
    }

    /// The bounded cache (read-only access for harnesses).
    pub fn cache(&self) -> &AnalysisCache {
        &self.cache
    }

    /// The armed fault plan (transports fire connection-level sites).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Whether a shutdown request has been handled; transports exit
    /// their accept loops when this turns true.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Records a request shed with a `busy` error (transport-level).
    /// Shed requests count into `requests_total` and the
    /// `source="shed"` latency histogram (the daemon spent ~no time on
    /// them), so the reconciliation identity covers load shedding.
    pub fn note_shed_busy(&self) {
        self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
        self.counters.shed_busy.fetch_add(1, Ordering::Relaxed);
        self.obs.request_hist("shed").record(0);
    }

    /// Records a request rejected with `too_large` (transport-level).
    pub fn note_rejected_too_large(&self) {
        self.counters
            .rejected_too_large
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records a directory-queue request moved to quarantine.
    pub fn note_queue_quarantined(&self) {
        self.counters
            .queue_quarantined
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Handles one request under a freshly drawn request ID. Every path
    /// returns a reply — errors become structured [`Reply::Error`]s,
    /// and the daemon keeps serving. Takes `&self`: any number of
    /// workers call this concurrently.
    pub fn handle(&self, request: Request) -> Reply {
        self.handle_with_id(self.next_req_id(), request)
    }

    /// [`AnalysisService::handle`] with the caller's request ID — the
    /// transports draw the ID first so they can stamp it into the reply
    /// envelope ([`Reply::to_line_with`]) and their log lines.
    ///
    /// Answer-path requests (`analyze`/`reanalyze`/`query`) are counted
    /// into `requests_total`, bucketed into exactly one outcome counter
    /// (hit/cold/coalesced/delta/error), and recorded into exactly one
    /// `fetch_request_us{source="…"}` latency histogram.
    pub fn handle_with_id(&self, req_id: u64, request: Request) -> Reply {
        match request {
            Request::Analyze { input, pipeline } => {
                let t0 = Instant::now();
                self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
                let reply = match self.analyze(req_id, input, &pipeline) {
                    Ok(reply) => {
                        self.emit(&reply);
                        Reply::Analyze(reply)
                    }
                    Err((code, message)) => {
                        self.counters.errors.fetch_add(1, Ordering::Relaxed);
                        Reply::error(code, message)
                    }
                };
                self.record_request(&reply, t0);
                reply
            }
            Request::Reanalyze {
                prev_fingerprint,
                input,
                pipeline,
            } => {
                let t0 = Instant::now();
                self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
                let reply = match self.reanalyze(req_id, prev_fingerprint, input, &pipeline) {
                    Ok(reply) => {
                        self.emit(&reply);
                        Reply::Analyze(reply)
                    }
                    Err((code, message)) => {
                        self.counters.errors.fetch_add(1, Ordering::Relaxed);
                        Reply::error(code, message)
                    }
                };
                self.record_request(&reply, t0);
                reply
            }
            Request::Query {
                fingerprint,
                pipeline_id,
            } => {
                let t0 = Instant::now();
                self.counters.requests_total.fetch_add(1, Ordering::Relaxed);
                self.counters.query.fetch_add(1, Ordering::Relaxed);
                let reply = match self.lookup_warm(req_id, fingerprint, &pipeline_id) {
                    Some((reply, _has_digest)) => {
                        self.emit(&reply);
                        Reply::Analyze(reply)
                    }
                    None => {
                        self.counters.errors.fetch_add(1, Ordering::Relaxed);
                        Reply::error(
                            ErrorCode::NotFound,
                            format!(
                                "no cached or stored result for ({}, {pipeline_id})",
                                crate::protocol::hex_u64(fingerprint)
                            ),
                        )
                    }
                };
                self.record_request(&reply, t0);
                reply
            }
            Request::Stats => Reply::Stats(self.stats()),
            Request::Metrics => Reply::Metrics(self.metrics_reply()),
            Request::Subscribe => Reply::Subscribed,
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Reply::Shutdown
            }
        }
    }

    /// Buckets one finished answer-path request into its
    /// `fetch_request_us{source="…"}` histogram.
    fn record_request(&self, reply: &Reply, t0: Instant) {
        let source = match reply {
            Reply::Analyze(a) => a.source.token(),
            _ => "error",
        };
        self.obs
            .request_hist(source)
            .record(t0.elapsed().as_micros() as u64);
    }

    /// Builds the `metrics` reply: point-in-time gauges are refreshed
    /// from structural state (cache/store footprints), then the whole
    /// registry snapshots into both exposition forms.
    fn metrics_reply(&self) -> MetricsReply {
        let cache = self.cache.stats();
        self.obs
            .registry
            .gauge("fetch_cache_entries")
            .set(cache.entries as u64);
        self.obs
            .registry
            .gauge("fetch_cache_bytes")
            .set(cache.bytes as u64);
        if let Some(Ok(store)) = self.store.as_ref().map(|s| s.stats()) {
            self.obs
                .registry
                .gauge("fetch_store_entries")
                .set(store.entries as u64);
            self.obs
                .registry
                .gauge("fetch_store_disk_bytes")
                .set(store.disk_bytes);
        }
        let snap = self.obs.registry.snapshot();
        MetricsReply {
            text: fetch_obs::render_text(&snap),
            metrics: snapshot_json(&snap),
        }
    }

    /// The service's statistics snapshot.
    pub fn stats(&self) -> StatsReply {
        StatsReply {
            cache: self.cache.stats(),
            store: self.store.as_ref().and_then(|s| s.stats().ok()),
            requests: self.counters.snapshot(),
            delta: self.counters.delta_snapshot(),
            faults_injected: self.faults.fired(),
        }
    }

    fn emit(&self, reply: &AnalyzeReply) {
        if self.telemetry.subscriber_count() == 0 {
            return;
        }
        for event in telemetry_events(reply) {
            self.telemetry.broadcast(&event);
        }
    }

    /// Cache-then-store lookup without computing (the `query` path; also
    /// the warm half of `analyze`/`reanalyze`). Promotes store hits —
    /// digest included — into the cache. The returned flag says whether
    /// the warm entry carries an [`ImageDigest`]; `analyze` heals
    /// digest-less (pre-digest) entries when it has the image in hand.
    fn lookup_warm(
        &self,
        req_id: u64,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Option<(AnalyzeReply, bool)> {
        let t0 = Instant::now();
        if let Some((result, digest)) = self.cache.lookup_with_digest(fingerprint, pipeline_id) {
            self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
            return Some((
                AnalyzeReply {
                    req_id,
                    fingerprint,
                    pipeline_id: pipeline_id.to_string(),
                    source: ServeSource::CacheHit,
                    wall_us: t0.elapsed().as_secs_f64() * 1e6,
                    result,
                },
                digest.is_some(),
            ));
        }
        match self
            .store
            .as_ref()
            .map(|s| s.load_full(fingerprint, pipeline_id))
        {
            Some(Ok(Some((result, digest)))) => {
                self.counters.store_hits.fetch_add(1, Ordering::Relaxed);
                let has_digest = digest.is_some();
                let result = self.cache.insert_with_digest(
                    fingerprint,
                    pipeline_id,
                    Arc::new(result),
                    digest.map(Arc::new),
                );
                Some((
                    AnalyzeReply {
                        req_id,
                        fingerprint,
                        pipeline_id: pipeline_id.to_string(),
                        source: ServeSource::StoreHit,
                        wall_us: t0.elapsed().as_secs_f64() * 1e6,
                        result,
                    },
                    has_digest,
                ))
            }
            Some(Err(e)) => {
                self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                logmsg!(
                    LogLevel::Warn,
                    req_id,
                    "fetch-serve: rejecting store entry for ({}, {pipeline_id}): {e}",
                    crate::protocol::hex_u64(fingerprint)
                );
                None
            }
            Some(Ok(None)) | None => None,
        }
    }

    /// Pops a pool engine (or makes a fresh one).
    fn borrow_engine(&self) -> RecEngine {
        self.engines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default()
    }

    /// Runs the pipeline on a borrowed pool engine.
    fn compute(&self, pipeline: &Pipeline, binary: &Binary) -> fetch_core::DetectionResult {
        let mut engine = self.borrow_engine();
        let result = pipeline.run_with_engine(binary, &mut engine);
        self.engines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(engine);
        result
    }

    /// Reads and parses a request's ELF image (shared by `analyze` and
    /// `reanalyze`).
    fn load_image(&self, input: AnalyzeInput) -> Result<ElfImage, (ErrorCode, String)> {
        let bytes = match input {
            AnalyzeInput::Path(path) => std::fs::read(&path).map_err(|e| {
                (
                    ErrorCode::BadRequest,
                    format!("cannot read {}: {e}", path.display()),
                )
            })?,
            AnalyzeInput::Bytes(bytes) => bytes,
        };
        ElfImage::parse(bytes)
            .map_err(|e| (ErrorCode::BadRequest, format!("not a loadable ELF: {e}")))
    }

    /// Attaches `digest` to the published result in the cache and (when
    /// configured) the store. Returns the canonical cached `Arc`. A
    /// failed persist degrades restart warmth, not answers.
    fn publish_digest(
        &self,
        req_id: u64,
        fingerprint: u64,
        pipeline_id: &str,
        result: Arc<DetectionResult>,
        digest: Arc<ImageDigest>,
    ) -> Arc<DetectionResult> {
        let result =
            self.cache
                .insert_with_digest(fingerprint, pipeline_id, result, Some(digest.clone()));
        if let Some(store) = &self.store {
            if let Err(e) = store.save_with_digest(fingerprint, pipeline_id, &result, Some(&digest))
            {
                logmsg!(
                    LogLevel::Warn,
                    req_id,
                    "fetch-serve: failed to persist ({}, {pipeline_id}): {e}",
                    crate::protocol::hex_u64(fingerprint)
                );
            }
        }
        result
    }

    fn analyze(
        &self,
        req_id: u64,
        input: AnalyzeInput,
        pipeline: &Pipeline,
    ) -> Result<AnalyzeReply, (ErrorCode, String)> {
        self.counters.analyze.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let image = self.load_image(input)?;
        let fingerprint = image_fingerprint(&image);
        let pipeline_id = pipeline.id();

        if let Some((mut warm, has_digest)) = self.lookup_warm(req_id, fingerprint, &pipeline_id) {
            if !has_digest {
                // A pre-digest entry, and we have the image in hand:
                // heal it so a later reanalyze can delta against it.
                let digest = Arc::new(ImageDigest::compute(&image.to_binary(), fingerprint));
                warm.result =
                    self.publish_digest(req_id, fingerprint, &pipeline_id, warm.result, digest);
            }
            // Charge the reply the full request time (parse included).
            warm.wall_us = t0.elapsed().as_secs_f64() * 1e6;
            return Ok(warm);
        }

        // Cold path, coalesced: the first arrival leads and computes;
        // concurrent arrivals for the same key wait on the flight.
        loop {
            let t_join = Instant::now();
            match self.cache.join_flight(fingerprint, &pipeline_id) {
                Flight::Hit(result) => {
                    // Completed between our lookup and the join.
                    self.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(AnalyzeReply {
                        req_id,
                        fingerprint,
                        pipeline_id,
                        source: ServeSource::CacheHit,
                        wall_us: t0.elapsed().as_secs_f64() * 1e6,
                        result,
                    });
                }
                Flight::Waited(Some(result)) => {
                    self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                    self.obs
                        .coalesce_wait_us
                        .record(t_join.elapsed().as_micros() as u64);
                    return Ok(AnalyzeReply {
                        req_id,
                        fingerprint,
                        pipeline_id,
                        source: ServeSource::Coalesced,
                        wall_us: t0.elapsed().as_secs_f64() * 1e6,
                        result,
                    });
                }
                // The leader aborted without an answer; rejoin (one of
                // the waiters — possibly us — takes over as leader).
                Flight::Waited(None) => continue,
                Flight::Leader(guard) => {
                    if let Some(FaultKind::Io) = self.faults.fire(FaultPlan::COMPUTE) {
                        // Dropping the guard aborts the flight: waiters
                        // wake and elect a new leader, so one injected
                        // failure never fails the whole group.
                        drop(guard);
                        return Err((
                            ErrorCode::Internal,
                            FaultPlan::injected_error(FaultPlan::COMPUTE).to_string(),
                        ));
                    }
                    self.counters.cold.fetch_add(1, Ordering::Relaxed);
                    let binary = image.to_binary();
                    let result = Arc::new(self.compute(pipeline, &binary));
                    // Publish to cache and waiters first; digest + disk
                    // after, so coalesced repliers never block on them.
                    let result = guard.complete(result);
                    self.obs
                        .coalesce_leader_us
                        .record(t_join.elapsed().as_micros() as u64);
                    self.obs.record_layer_walls(&result);
                    let digest = Arc::new(ImageDigest::compute(&binary, fingerprint));
                    let result =
                        self.publish_digest(req_id, fingerprint, &pipeline_id, result, digest);
                    return Ok(AnalyzeReply {
                        req_id,
                        fingerprint,
                        pipeline_id,
                        source: ServeSource::Cold,
                        wall_us: t0.elapsed().as_secs_f64() * 1e6,
                        result,
                    });
                }
            }
        }
    }

    /// The `reanalyze` path: answer a new version of a known binary
    /// through the delta ladder ([`run_delta`]).
    ///
    /// Order of resolution:
    ///
    /// 1. If the *new* image is itself already warm (cache or store),
    ///    that answer wins — same as `analyze`.
    /// 2. The predecessor named by `prev_fingerprint` is fetched from
    ///    the cache, then the store. A missing or digest-less
    ///    predecessor drops the ladder to its cold tier (counted as
    ///    `digest_mismatch` — there was nothing sound to delta against).
    /// 3. The ladder runs on a pooled engine; tiers 1–2 reuse the
    ///    previous result verbatim (source `"delta"`, counted in
    ///    `delta_hits`), tier 3 recomputes decode-warm
    ///    (`fallback_cold`), tier 4 runs plain cold (`digest_mismatch`).
    ///
    /// Whatever tier answered, the result and the new image's digest
    /// are published to the cache and store, so the next version deltas
    /// against *this* one. Every tier is byte-identical to a cold
    /// `analyze` of the same image (property-tested in core and pinned
    /// end-to-end by the serve tests).
    fn reanalyze(
        &self,
        req_id: u64,
        prev_fingerprint: u64,
        input: AnalyzeInput,
        pipeline: &Pipeline,
    ) -> Result<AnalyzeReply, (ErrorCode, String)> {
        self.counters.reanalyze.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let image = self.load_image(input)?;
        let fingerprint = image_fingerprint(&image);
        let pipeline_id = pipeline.id();

        // The new version may already be known (a resubmission, or two
        // clients racing on the same rebuild): warm answers win.
        if let Some((mut warm, has_digest)) = self.lookup_warm(req_id, fingerprint, &pipeline_id) {
            if !has_digest {
                let digest = Arc::new(ImageDigest::compute(&image.to_binary(), fingerprint));
                warm.result =
                    self.publish_digest(req_id, fingerprint, &pipeline_id, warm.result, digest);
            }
            warm.wall_us = t0.elapsed().as_secs_f64() * 1e6;
            return Ok(warm);
        }

        // Fetch the predecessor: cache first, then store (not counted
        // as a store hit — it is an input of the ladder, not the
        // answer). Load failures degrade to the cold tier.
        let prev = self
            .cache
            .lookup_with_digest(prev_fingerprint, &pipeline_id)
            .or_else(|| {
                match self
                    .store
                    .as_ref()
                    .map(|s| s.load_full(prev_fingerprint, &pipeline_id))
                {
                    Some(Ok(Some((result, digest)))) => {
                        Some((Arc::new(result), digest.map(Arc::new)))
                    }
                    Some(Err(e)) => {
                        self.counters.store_errors.fetch_add(1, Ordering::Relaxed);
                        logmsg!(
                            LogLevel::Warn,
                            req_id,
                            "fetch-serve: rejecting store entry for ({}, {pipeline_id}): {e}",
                            crate::protocol::hex_u64(prev_fingerprint)
                        );
                        None
                    }
                    Some(Ok(None)) | None => None,
                }
            });

        // Only the buckets the patch touched are swept: the rest of the
        // digest is copied from the predecessor's.
        let binary = image.to_binary();
        let prev_digest = prev.as_ref().and_then(|(_, d)| d.as_deref());
        let new_digest = ImageDigest::compute_from(prev_digest, &binary, fingerprint);
        let mut engine = self.borrow_engine();
        let (result, class, sections_reused) = match &prev {
            Some((prev_result, _)) => {
                let out = run_delta(
                    pipeline,
                    prev_result,
                    prev_digest,
                    &binary,
                    &new_digest,
                    &mut engine,
                );
                (out.result, out.class, out.sections_reused)
            }
            // Unknown predecessor: nothing to delta against.
            None => (
                Arc::new(pipeline.run_with_engine(&binary, &mut engine)),
                DeltaClass::Cold,
                0,
            ),
        };
        self.engines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(engine);

        self.counters
            .sections_reused
            .fetch_add(sections_reused as u64, Ordering::Relaxed);
        let source = if class.is_hit() {
            self.counters.delta_hits.fetch_add(1, Ordering::Relaxed);
            ServeSource::Delta
        } else {
            match class {
                DeltaClass::Recompute => {
                    self.counters.fallback_cold.fetch_add(1, Ordering::Relaxed)
                }
                _ => self
                    .counters
                    .digest_mismatch
                    .fetch_add(1, Ordering::Relaxed),
            };
            self.counters.cold.fetch_add(1, Ordering::Relaxed);
            // A non-hit tier ran the pipeline: its trace is fresh.
            self.obs.record_layer_walls(&result);
            ServeSource::Cold
        };
        let result = self.publish_digest(
            req_id,
            fingerprint,
            &pipeline_id,
            result,
            Arc::new(new_digest),
        );
        Ok(AnalyzeReply {
            req_id,
            fingerprint,
            pipeline_id,
            source,
            wall_us: t0.elapsed().as_secs_f64() * 1e6,
            result,
        })
    }
}

/// Renders a registry snapshot as the `metrics` reply's JSON form:
/// counters/gauges become numbers, histograms become
/// `{count,sum,max,p50,p95,p99}` objects, keyed by the full metric name
/// (labels included). Key order is deterministic ([`Json::Obj`] renders
/// sorted).
fn snapshot_json(snap: &Snapshot) -> Json {
    Json::Obj(
        snap.entries
            .iter()
            .map(|(name, value)| {
                let v = match value {
                    MetricValue::Counter(v) | MetricValue::Gauge(v) => Json::int(*v),
                    MetricValue::Histogram(h) => crate::json::obj([
                        ("count", Json::int(h.count)),
                        ("sum", Json::int(h.sum)),
                        ("max", Json::int(h.max)),
                        ("p50", Json::int(h.p50)),
                        ("p95", Json::int(h.p95)),
                        ("p99", Json::int(h.p99)),
                    ]),
                };
                (name.clone(), v)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use fetch_binary::write_elf;
    use fetch_synth::{synthesize, SynthConfig};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fetch-serve-service-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn analyze_req(bytes: Vec<u8>) -> Request {
        Request::Analyze {
            input: AnalyzeInput::Bytes(bytes),
            pipeline: Pipeline::fetch(),
        }
    }

    fn reply_source(reply: &Reply) -> ServeSource {
        match reply {
            Reply::Analyze(a) => a.source,
            other => panic!("expected analyze reply, got {other:?}"),
        }
    }

    #[test]
    fn cold_then_cache_then_store_across_restart() {
        let dir = scratch_dir("restart");
        let case = synthesize(&SynthConfig::small(61));
        let elf = write_elf(&case.binary);
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            cache_capacity: CacheCapacity::entries(16),
            ..ServeConfig::default()
        };

        let service = AnalysisService::new(&config).unwrap();
        let cold = service.handle(analyze_req(elf.clone()));
        assert_eq!(reply_source(&cold), ServeSource::Cold);
        let warm = service.handle(analyze_req(elf.clone()));
        assert_eq!(reply_source(&warm), ServeSource::CacheHit);
        let (cold_a, warm_a) = match (&cold, &warm) {
            (Reply::Analyze(c), Reply::Analyze(w)) => (c, w),
            other => panic!("{other:?}"),
        };
        assert!(Arc::ptr_eq(&cold_a.result, &warm_a.result));
        assert!(!service.shutdown_requested());
        assert!(matches!(service.handle(Request::Shutdown), Reply::Shutdown));
        assert!(service.shutdown_requested());
        drop(service);

        // Restart: fresh cache, same store directory.
        let restarted = AnalysisService::new(&config).unwrap();
        let from_store = restarted.handle(analyze_req(elf.clone()));
        assert_eq!(reply_source(&from_store), ServeSource::StoreHit);
        match (&cold, &from_store) {
            (Reply::Analyze(c), Reply::Analyze(s)) => {
                assert_eq!(*c.result, *s.result, "persisted answer must equal cold");
            }
            other => panic!("{other:?}"),
        }
        // And the promotion means the next one is a cache hit.
        assert_eq!(
            reply_source(&restarted.handle(analyze_req(elf))),
            ServeSource::CacheHit
        );
        let stats = restarted.stats();
        assert_eq!(stats.requests.store_hits, 1);
        assert_eq!(stats.requests.cold, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_store_entry_is_recomputed_and_overwritten() {
        let dir = scratch_dir("heal");
        let case = synthesize(&SynthConfig::small(62));
        let elf = write_elf(&case.binary);
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            cache_capacity: CacheCapacity::UNBOUNDED,
            ..ServeConfig::default()
        };
        let service = AnalysisService::new(&config).unwrap();
        let cold = service.handle(analyze_req(elf.clone()));

        // Corrupt the single store file in place — *after* open, so the
        // recovery sweep has not seen it.
        let entry = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "fres"))
            .expect("one persisted entry");
        let mut bytes = std::fs::read(&entry).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&entry, &bytes).unwrap();

        // Restart: the startup recovery sweep quarantines the corrupt
        // entry, the request recomputes cold, and the store heals —
        // the entry is never misread.
        let healed = AnalysisService::new(&config).unwrap();
        let recomputed = healed.handle(analyze_req(elf.clone()));
        assert_eq!(reply_source(&recomputed), ServeSource::Cold);
        match (&cold, &recomputed) {
            (Reply::Analyze(c), Reply::Analyze(r)) => assert_eq!(*c.result, *r.result),
            other => panic!("{other:?}"),
        }
        let stats = healed.stats();
        assert_eq!(
            stats.store.unwrap().quarantined,
            1,
            "the sweep quarantined the corrupt entry"
        );

        // The overwrite healed the store: one more restart hits it.
        let third = AnalysisService::new(&config).unwrap();
        assert_eq!(
            reply_source(&third.handle(analyze_req(elf))),
            ServeSource::StoreHit
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn query_answers_warm_only_and_telemetry_streams() {
        let case = synthesize(&SynthConfig::small(63));
        let elf = write_elf(&case.binary);
        let service = AnalysisService::new(&ServeConfig::default()).unwrap();

        // Telemetry sink capturing into a shared buffer.
        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let captured = Arc::new(Mutex::new(Vec::new()));
        service
            .telemetry()
            .subscribe(Box::new(Sink(captured.clone())));

        let fp = {
            let image = ElfImage::parse(elf.clone()).unwrap();
            image_fingerprint(&image)
        };
        let miss = service.handle(Request::Query {
            fingerprint: fp,
            pipeline_id: Pipeline::fetch().id(),
        });
        match miss {
            Reply::Error { code, .. } => {
                assert_eq!(code, ErrorCode::NotFound, "query never computes")
            }
            other => panic!("{other:?}"),
        }

        let cold = service.handle(analyze_req(elf));
        assert_eq!(reply_source(&cold), ServeSource::Cold);
        let hit = service.handle(Request::Query {
            fingerprint: fp,
            pipeline_id: Pipeline::fetch().id(),
        });
        assert_eq!(reply_source(&hit), ServeSource::CacheHit);

        let text = String::from_utf8(captured.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Two answered requests × (1 request event + 4 layer events).
        assert_eq!(lines.len(), 10, "{text}");
        assert!(lines[0].contains("\"event\":\"request\""));
        assert!(lines[0].contains("\"source\":\"cold\""));
        assert!(lines[1].contains("\"event\":\"layer\""));
        assert!(lines[1].contains("\"layer\":\"FDE\""));
        assert!(lines[5].contains("\"source\":\"cache\""));
        let stats = service.stats();
        assert_eq!(stats.requests.query, 2);
        assert_eq!(stats.requests.analyze, 1);
        assert!(stats.store.is_none());
    }

    #[test]
    fn concurrent_analyzes_coalesce_to_exactly_one_cold_compute() {
        let case = synthesize(&SynthConfig::small(64));
        let elf = write_elf(&case.binary);
        let service = AnalysisService::new(&ServeConfig::default()).unwrap();

        // The serial reference answer, from an independent service.
        let reference = AnalysisService::new(&ServeConfig::default()).unwrap();
        let serial = match reference.handle(analyze_req(elf.clone())) {
            Reply::Analyze(a) => crate::protocol::result_json(&a.result).to_string(),
            other => panic!("{other:?}"),
        };

        const CALLERS: usize = 8;
        let barrier = std::sync::Barrier::new(CALLERS);
        let replies: Vec<Reply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    let service = &service;
                    let barrier = &barrier;
                    let elf = elf.clone();
                    scope.spawn(move || {
                        barrier.wait();
                        service.handle(analyze_req(elf))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        // Exactly one cold compute; every reply byte-identical to the
        // serial answer; every source a known warm/cold token.
        let stats = service.stats();
        assert_eq!(stats.requests.cold, 1, "exactly one cold compute");
        assert_eq!(stats.requests.analyze, CALLERS as u64);
        for reply in &replies {
            let a = match reply {
                Reply::Analyze(a) => a,
                other => panic!("{other:?}"),
            };
            assert_eq!(
                crate::protocol::result_json(&a.result).to_string(),
                serial,
                "coalesced reply must be byte-identical to the serial answer"
            );
            assert!(matches!(
                a.source,
                ServeSource::Cold | ServeSource::Coalesced | ServeSource::CacheHit
            ));
        }
        let cold_replies = replies
            .iter()
            .filter(|r| reply_source(r) == ServeSource::Cold)
            .count();
        assert_eq!(cold_replies, 1);
    }

    fn result_json_of(reply: &Reply) -> String {
        match reply {
            Reply::Analyze(a) => crate::protocol::result_json(&a.result).to_string(),
            other => panic!("expected analyze reply, got {other:?}"),
        }
    }

    #[test]
    fn reanalyze_serves_patched_binaries_from_the_delta_path() {
        use fetch_synth::{patch_function, PatchKind};
        let dir = scratch_dir("delta");
        let case = synthesize(&SynthConfig::small(11));
        let neutral = patch_function(&case, 7, PatchKind::Neutral).expect("a neutral patch site");
        let behavioral =
            patch_function(&case, 9, PatchKind::Behavioral).expect("a behavioral patch site");
        let elf_v1 = write_elf(&case.binary);
        let elf_v2 = write_elf(&neutral.binary);
        let elf_v2b = write_elf(&behavioral.binary);
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };

        // Version 1 lands cold (digest persisted alongside the result).
        let service = AnalysisService::new(&config).unwrap();
        let prev_fp = match service.handle(analyze_req(elf_v1)) {
            Reply::Analyze(a) => a.fingerprint,
            other => panic!("{other:?}"),
        };
        drop(service);

        // Cold reference answers for both new versions, from an
        // independent store-less service.
        let reference = AnalysisService::new(&ServeConfig::default()).unwrap();
        let ref_v2 = result_json_of(&reference.handle(analyze_req(elf_v2.clone())));
        let ref_v2b = result_json_of(&reference.handle(analyze_req(elf_v2b.clone())));

        // Restart (fresh cache): the predecessor — digest included —
        // comes out of the store, and the neutral patch is answered
        // verbatim from the delta path.
        let restarted = AnalysisService::new(&config).unwrap();
        let reanalyze = |elf: Vec<u8>| {
            restarted.handle(Request::Reanalyze {
                prev_fingerprint: prev_fp,
                input: AnalyzeInput::Bytes(elf),
                pipeline: Pipeline::fetch(),
            })
        };
        let delta = reanalyze(elf_v2);
        assert_eq!(reply_source(&delta), ServeSource::Delta);
        assert_eq!(
            result_json_of(&delta),
            ref_v2,
            "a delta answer must be byte-identical to the cold answer"
        );
        let stats = restarted.stats();
        assert_eq!(stats.requests.reanalyze, 1);
        assert_eq!(stats.delta.delta_hits, 1);
        assert!(stats.delta.sections_reused > 0);
        assert_eq!(stats.requests.cold, 0, "no pipeline ran");

        // A behavioral patch (an immediate became a code address) is
        // not provably answer-preserving: decode-warm recompute,
        // byte-identical, counted as a cold fallback.
        let recomputed = reanalyze(elf_v2b);
        assert_eq!(reply_source(&recomputed), ServeSource::Cold);
        assert_eq!(result_json_of(&recomputed), ref_v2b);
        assert_eq!(restarted.stats().delta.fallback_cold, 1);

        // An unknown predecessor bottoms out on the ladder's cold tier.
        let other = synthesize(&SynthConfig::small(67));
        let re = restarted.handle(Request::Reanalyze {
            prev_fingerprint: 0x1234_5678,
            input: AnalyzeInput::Bytes(write_elf(&other.binary)),
            pipeline: Pipeline::fetch(),
        });
        assert_eq!(reply_source(&re), ServeSource::Cold);
        assert_eq!(restarted.stats().delta.digest_mismatch, 1);

        // Every reanalyze republished under the new fingerprint: a
        // plain resubmission of the neutral patch is now a cache hit.
        let again = reanalyze(write_elf(&neutral.binary));
        assert_eq!(reply_source(&again), ServeSource::CacheHit);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn pre_digest_store_entries_heal_on_the_next_analyze() {
        let dir = scratch_dir("healdigest");
        let case = synthesize(&SynthConfig::small(68));
        let elf = write_elf(&case.binary);
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let service = AnalysisService::new(&config).unwrap();
        let fp = match service.handle(analyze_req(elf.clone())) {
            Reply::Analyze(a) => a.fingerprint,
            other => panic!("{other:?}"),
        };
        let id = Pipeline::fetch().id();

        // Strip the persisted digest, simulating an entry written
        // before digests existed.
        let store = ResultStore::open(&dir).unwrap();
        let (result, digest) = store.load_full(fp, &id).unwrap().unwrap();
        assert!(digest.is_some(), "cold analyzes persist digests");
        store.save(fp, &id, &result).unwrap();
        assert!(store.load_full(fp, &id).unwrap().unwrap().1.is_none());
        drop(store);

        // A restarted daemon's warm analyze heals the entry in place.
        let restarted = AnalysisService::new(&config).unwrap();
        assert_eq!(
            reply_source(&restarted.handle(analyze_req(elf))),
            ServeSource::StoreHit
        );
        let store = ResultStore::open(&dir).unwrap();
        assert!(
            store.load_full(fp, &id).unwrap().unwrap().1.is_some(),
            "the warm analyze re-persisted the digest"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_compute_fault_fails_one_request_not_the_group() {
        let case = synthesize(&SynthConfig::small(65));
        let elf = write_elf(&case.binary);
        let config = ServeConfig {
            faults: Arc::new(FaultPlan::parse("service.compute=io#1").unwrap()),
            ..ServeConfig::default()
        };
        let service = AnalysisService::new(&config).unwrap();

        // First analyze hits the armed fault: a structured internal
        // error, not a panic or a wrong answer.
        match service.handle(analyze_req(elf.clone())) {
            Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        // The plan is spent: the retry computes fine.
        assert_eq!(
            reply_source(&service.handle(analyze_req(elf))),
            ServeSource::Cold
        );
        assert_eq!(service.stats().faults_injected, 1);
    }
}
