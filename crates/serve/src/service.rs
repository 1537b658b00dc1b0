//! The transport-agnostic daemon core: one [`AnalysisService`] owns the
//! bounded cache, the persistent store, a pool of decode engines, and
//! the telemetry hub, and turns parsed [`Request`]s into [`Reply`]s.
//!
//! The service is `Sync` — [`AnalysisService::handle`] takes `&self`,
//! so one instance is shared by every worker of the server's socket
//! pool (and by the stdio transport) without an outer lock around
//! request handling.
//!
//! `analyze` and `reanalyze` share one answer path, in order
//! read → fingerprint → warm → parse → flight → pipeline ∥ side (frames,
//! digest) → publish → reply → side save:
//!
//! 1. **Read and fingerprint** — the request's bytes, from its path or
//!    inline, are hashed whole ([`fetch_core::bytes_fingerprint`], the
//!    one cache and store key). Nothing is parsed yet.
//! 2. **Warm lookup** — the bounded cache ([`fetch_core::AnalysisCache`]:
//!    a map lookup), then the results whose store save is still pending
//!    (an answer cache capacity already evicted stays visible until its
//!    save lands; source `"cache"`), then the persistent store
//!    ([`ResultStore`]: one file read + checksummed decode, promoted
//!    into the cache). A corrupt entry is *rejected* (counted in
//!    [`StatsCounter::StoreErrors`]), recomputed, and overwritten. A warm
//!    answer wins for either verb, so a repeat costs a hash and a lookup.
//! 3. **Parse** — only when all three miss is the ELF parsed
//!    ([`ElfImage::parse`], counted in `fetch_elf_parses_total`). A
//!    malformed image fails here with `bad_request`, before it joins a
//!    flight, so it is never cached or stored.
//! 4. **Flight** — the request joins the cache's flight table
//!    ([`fetch_core::AnalysisCache::join_flight`]) for the new image's
//!    key: the first arrival becomes the *leader*; every concurrent
//!    arrival for the same key blocks on the flight and receives the
//!    leader's `Arc` (source `"coalesced"`). N concurrent requests for
//!    one uncached fingerprint do the leader's work exactly once. A
//!    leader that fails (panic or injected fault) wakes the waiters, one
//!    of which takes over — a dead leader never strands the group.
//! 5. **Leader: pipeline ∥ side** — an `analyze` runs the pipeline cold.
//!    A `reanalyze` fetches the *predecessor* it names (cache, pending
//!    saves, then store), derives the new image's [`ImageDigest`] from
//!    the predecessor's, and picks the delta ladder's tier
//!    ([`delta_tier`]): an unchanged or locally-patched binary is
//!    answered verbatim (source `"delta"`, counted in `stats.delta`);
//!    anything else, an unknown or digest-less predecessor included,
//!    runs the pipeline cold. Every tier is byte-identical to a cold
//!    `analyze` of the same image. A cold run hands the image's
//!    [`BinaryFacts`] to the service's *side worker*, one persistent
//!    thread with a bounded queue, which builds the CFI frame table and
//!    then the digest while the pipeline runs on the same facts.
//!    Whoever reaches a fact first computes it, so `.eh_frame` is
//!    parsed once; a full queue leaves the work to the leader. The
//!    pipeline runs on a [`RecEngine`] borrowed from the service's pool
//!    (decode caches persist across requests; concurrent leaders each
//!    get their own engine).
//! 6. **Publish** — the leader enters the result and its digest in the
//!    pending-save map, then completes the flight with both together
//!    (cache and waiters), so the next version deltas against this one.
//! 7. **Reply** — the answer returns to the transport.
//! 8. **Side save** — the store save runs on the side worker (inline
//!    when its queue is full) and retires the pending entry when it
//!    lands or fails. `shutdown` and dropping the service drain the
//!    pending saves, so a clean exit keeps every answer it gave.
//!
//! Every analyze/query answer also broadcasts its telemetry to the
//! subscribers registered on the [`TelemetryHub`]: a `request` event,
//! plus, for a `cold` answer, one `layer` event per
//! [`fetch_core::LayerTrace`] of the run it just did. A warm, coalesced
//! or delta answer ran no layer, so it sends the `request` event alone
//! (see [`telemetry_events`]).

use crate::fault::{FaultKind, FaultPlan};
use crate::json::Json;
use crate::protocol::{
    telemetry_events, AnalyzeInput, AnalyzeReply, ErrorCode, MetricsReply, Reply, Request,
    ServeSource, StatsCounter, StatsReply, STATS_COUNTERS,
};
use crate::side::SideWorker;
use crate::store::{GcPolicy, ResultStore};
use fetch_binary::{Binary, ElfImage};
use fetch_core::{
    bytes_fingerprint, delta_tier, AnalysisCache, BinaryFacts, CacheCapacity, DeltaClass,
    DetectionResult, DetectionState, Flight, ImageDigest, LayerSpec, Pipeline,
};
use fetch_disasm::RecEngine;
use fetch_obs::{logmsg, Counter, Histogram, IdGen, LogLevel, MetricValue, Registry, Snapshot};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

/// Lock-free `stats` counters, one per [`STATS_COUNTERS`] row.
///
/// Every counter is an `Arc<AtomicU64>` registered into the service's
/// [`Registry`] — the `stats` reply and the `metrics` exposition read
/// *identical* storage and therefore reconcile exactly by construction.
#[derive(Debug)]
struct Counters([Arc<AtomicU64>; STATS_COUNTERS.len()]);

impl Counters {
    /// Fresh zeroed counters, each bound into `registry` under its
    /// exposition name.
    fn registered(registry: &Registry) -> Counters {
        let counters = Counters(std::array::from_fn(|_| Arc::default()));
        for (spec, atomic) in STATS_COUNTERS.iter().zip(&counters.0) {
            registry.register_counter(spec.metric, Arc::clone(atomic));
        }
        counters
    }

    fn add(&self, counter: StatsCounter, n: u64) {
        self.0[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    fn inc(&self, counter: StatsCounter) {
        self.add(counter, 1);
    }

    fn snapshot(&self) -> [u64; STATS_COUNTERS.len()] {
        std::array::from_fn(|i| self.0[i].load(Ordering::Relaxed))
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
    /// `.eh_frame` parses by flight leaders (one per cold request).
    eh_parses: Counter,
    /// ELF parses: one per request that missed every warm tier.
    elf_parses: Counter,
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
            eh_parses: registry.counter("fetch_eh_frame_parses_total"),
            elf_parses: registry.counter("fetch_elf_parses_total"),
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

    /// Records the per-layer walls of a freshly computed trace (only a
    /// cold answer ran its layers).
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

/// A published result and the digest it travels with.
type Published = (Arc<DetectionResult>, Arc<ImageDigest>);

/// The store and the saves on their way to it, shared with the side
/// worker that lands them.
#[derive(Debug)]
struct Persistence {
    store: ResultStore,
    /// Results published to the flight whose save has not landed yet:
    /// a lookup finds them here after the cache (which may already have
    /// evicted them) and before the store (which does not hold them
    /// yet).
    pending: Mutex<HashMap<(u64, String), Published>>,
    faults: Arc<FaultPlan>,
}

impl Persistence {
    fn pending(&self) -> std::sync::MutexGuard<'_, HashMap<(u64, String), Published>> {
        self.pending.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Saves a published result (the `service.persist` site fires
    /// first), then retires it from the pending map whether or not the
    /// save landed: a failed save degrades restart warmth, not answers.
    fn land(&self, req_id: u64, fingerprint: u64, pipeline_id: String, published: Published) {
        let (result, digest) = &published;
        let saved = match self.faults.fire(FaultPlan::PERSIST) {
            Some(_) => Err(FaultPlan::injected_error(FaultPlan::PERSIST).into()),
            None => self
                .store
                .save_with_digest(fingerprint, &pipeline_id, result, Some(digest)),
        };
        if let Err(e) = saved {
            logmsg!(
                LogLevel::Warn,
                req_id,
                "fetch-serve: failed to persist ({}, {pipeline_id}): {e}",
                crate::protocol::hex_u64(fingerprint)
            );
        }
        self.pending().remove(&(fingerprint, pipeline_id));
    }
}

/// The binary-pure work of one image a flight leader computes: the
/// binary, its [`BinaryFacts`] and its digest. Shared with the side
/// worker, which runs ahead on it; whoever asks for a part first
/// computes it, and the other reads it.
struct ImageWork {
    binary: Binary,
    fingerprint: u64,
    facts: Arc<BinaryFacts>,
    digest: OnceLock<Arc<ImageDigest>>,
}

impl ImageWork {
    fn new(binary: Binary, fingerprint: u64) -> ImageWork {
        ImageWork {
            binary,
            fingerprint,
            facts: Arc::default(),
            digest: OnceLock::new(),
        }
    }

    /// The image's digest. `prev` (a predecessor's digest) only saves
    /// work: [`ImageDigest::compute_from`] returns what `compute` does.
    fn digest(&self, prev: Option<&ImageDigest>) -> Arc<ImageDigest> {
        Arc::clone(self.digest.get_or_init(|| {
            Arc::new(ImageDigest::compute_with_facts(
                prev,
                &self.binary,
                &self.facts,
                self.fingerprint,
            ))
        }))
    }

    /// The side worker's share: the frame table (when the pipeline
    /// reads one) first, the digest second.
    fn run_ahead(&self, frames: bool) {
        if frames {
            self.facts.frame_table(&self.binary);
        }
        self.digest(None);
    }
}

/// The daemon core (see the [module docs](self)).
#[derive(Debug)]
pub struct AnalysisService {
    cache: AnalysisCache,
    /// The store, when one is configured, with its pending saves.
    persist: Option<Arc<Persistence>>,
    /// Runs cold requests' frame tables and digests beside the
    /// pipeline, and their store saves after the reply.
    side: SideWorker,
    /// Decode engines for flight leaders: borrowed per compute, returned
    /// after, so decode caches persist across requests and concurrent
    /// leaders never contend on one engine.
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
        let persist = store.map(|store| {
            Arc::new(Persistence {
                store,
                pending: Mutex::default(),
                faults: config.faults.clone(),
            })
        });
        let counters = Counters::registered(&registry);
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
            persist,
            side: SideWorker::spawn(),
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

    /// The armed fault plan (transports fire connection-level sites).
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// The persistent store, when one is configured.
    fn store(&self) -> Option<&ResultStore> {
        self.persist.as_ref().map(|p| &p.store)
    }

    /// Blocks until every store save queued so far has landed (or
    /// failed). `shutdown` does this before it replies, and dropping the
    /// service does it too; a harness that reopens the store directory
    /// while this service lives calls it first.
    pub fn drain_saves(&self) {
        self.side.drain();
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
        self.counters.inc(StatsCounter::RequestsTotal);
        self.counters.inc(StatsCounter::ShedBusy);
        self.obs.request_hist("shed").record(0);
    }

    /// Records a request rejected with `too_large` (transport-level).
    pub fn note_rejected_too_large(&self) {
        self.counters.inc(StatsCounter::RejectedTooLarge);
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
    /// into `requests_total` and their verb counter, bucketed into
    /// exactly one outcome counter (hit/cold/coalesced/delta/error), and
    /// recorded into exactly one `fetch_request_us{source="…"}` latency
    /// histogram.
    pub fn handle_with_id(&self, req_id: u64, request: Request) -> Reply {
        let t0 = Instant::now();
        let (verb, answer) = match request {
            Request::Analyze { input, pipeline } => (
                StatsCounter::Analyze,
                self.answer(req_id, None, input, &pipeline),
            ),
            Request::Reanalyze {
                prev_fingerprint,
                input,
                pipeline,
            } => (
                StatsCounter::Reanalyze,
                self.answer(req_id, Some(prev_fingerprint), input, &pipeline),
            ),
            Request::Query {
                fingerprint,
                pipeline_id,
            } => (
                StatsCounter::Query,
                self.lookup_warm(req_id, fingerprint, &pipeline_id)
                    .ok_or_else(|| {
                        (
                            ErrorCode::NotFound,
                            format!(
                                "no cached or stored result for ({}, {pipeline_id})",
                                crate::protocol::hex_u64(fingerprint)
                            ),
                        )
                    }),
            ),
            Request::Stats => return Reply::Stats(self.stats()),
            Request::Metrics => return Reply::Metrics(self.metrics_reply()),
            Request::Subscribe => return Reply::Subscribed,
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                self.drain_saves();
                return Reply::Shutdown;
            }
        };
        self.counters.inc(StatsCounter::RequestsTotal);
        self.counters.inc(verb);
        let reply = match answer {
            Ok(mut reply) => {
                reply.wall_us = t0.elapsed().as_secs_f64() * 1e6;
                self.emit(&reply);
                Reply::Analyze(reply)
            }
            Err((code, message)) => {
                self.counters.inc(StatsCounter::Errors);
                Reply::error(code, message)
            }
        };
        self.record_request(&reply, t0);
        reply
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
        if let Some(Ok(store)) = self.store().map(|s| s.stats()) {
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
            store: self.store().and_then(|s| s.stats().ok()),
            counters: self.counters.snapshot(),
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
    /// the warm step of the answer path). A result whose save is still
    /// pending is found between the two and answers as a cache hit; store
    /// hits are promoted — digest included — into the cache. The reply's
    /// `wall_us` is stamped by [`AnalysisService::handle_with_id`].
    fn lookup_warm(
        &self,
        req_id: u64,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Option<AnalyzeReply> {
        let (source, result) = match self.cache.lookup(fingerprint, pipeline_id) {
            Some(result) => {
                self.counters.inc(StatsCounter::CacheHits);
                (ServeSource::CacheHit, result)
            }
            None => {
                let (source, result, digest) = match self.lookup_pending(fingerprint, pipeline_id) {
                    Some((result, digest)) => {
                        self.counters.inc(StatsCounter::CacheHits);
                        (ServeSource::CacheHit, result, Some(digest))
                    }
                    None => {
                        let (result, digest) =
                            self.load_stored(req_id, fingerprint, pipeline_id)?;
                        self.counters.inc(StatsCounter::StoreHits);
                        (
                            ServeSource::StoreHit,
                            Arc::new(result),
                            digest.map(Arc::new),
                        )
                    }
                };
                let result =
                    self.cache
                        .insert_with_digest(fingerprint, pipeline_id, result, digest);
                (source, result)
            }
        };
        Some(AnalyzeReply {
            req_id,
            fingerprint,
            pipeline_id: pipeline_id.to_string(),
            source,
            wall_us: 0.0,
            result,
        })
    }

    /// A published result whose store save has not landed yet.
    fn lookup_pending(&self, fingerprint: u64, pipeline_id: &str) -> Option<Published> {
        let persist = self.persist.as_ref()?;
        let pending = persist.pending();
        pending
            .get(&(fingerprint, pipeline_id.to_string()))
            .cloned()
    }

    /// Loads `(fingerprint, pipeline_id)` from the store, when one is
    /// configured. A rejected entry is counted and logged, then treated
    /// as absent: the caller recomputes, and its save overwrites it.
    fn load_stored(
        &self,
        req_id: u64,
        fingerprint: u64,
        pipeline_id: &str,
    ) -> Option<(DetectionResult, Option<ImageDigest>)> {
        match self.store()?.load_full(fingerprint, pipeline_id) {
            Ok(found) => found,
            Err(e) => {
                self.counters.inc(StatsCounter::StoreErrors);
                logmsg!(
                    LogLevel::Warn,
                    req_id,
                    "fetch-serve: rejecting store entry for ({}, {pipeline_id}): {e}",
                    crate::protocol::hex_u64(fingerprint)
                );
                None
            }
        }
    }

    /// Queues the store save of a published result on the side worker
    /// (inline when its queue is full). The result stays in the pending
    /// map, where lookups find it, until the save lands.
    fn persist_later(
        &self,
        req_id: u64,
        fingerprint: u64,
        pipeline_id: &str,
        published: Published,
    ) {
        let Some(persist) = &self.persist else {
            return;
        };
        let (persist, pipeline_id) = (Arc::clone(persist), pipeline_id.to_string());
        let save = Box::new(move || persist.land(req_id, fingerprint, pipeline_id, published));
        if let Err(save) = self.side.submit(save) {
            save();
        }
    }

    /// The answer path of `analyze` (`prev_fingerprint` = `None`) and
    /// `reanalyze` (the predecessor's fingerprint): read and fingerprint
    /// the bytes, look up warm, and only on a miss parse the ELF and
    /// join the flight, whose leader computes, publishes and queues the
    /// save (see the [module docs](self)).
    fn answer(
        &self,
        req_id: u64,
        prev_fingerprint: Option<u64>,
        input: AnalyzeInput,
        pipeline: &Pipeline,
    ) -> Result<AnalyzeReply, (ErrorCode, String)> {
        let bytes = match input {
            AnalyzeInput::Path(path) => std::fs::read(&path).map_err(|e| {
                (
                    ErrorCode::BadRequest,
                    format!("cannot read {}: {e}", path.display()),
                )
            })?,
            AnalyzeInput::Bytes(bytes) => bytes,
        };
        let fingerprint = bytes_fingerprint(&bytes);
        let pipeline_id = pipeline.id();
        if let Some(warm) = self.lookup_warm(req_id, fingerprint, &pipeline_id) {
            return Ok(warm);
        }
        // Past every warm tier: only a request that computes parses, and
        // a malformed image fails before it can join a flight.
        self.obs.elf_parses.inc();
        let image = ElfImage::parse(bytes)
            .map_err(|e| (ErrorCode::BadRequest, format!("not a loadable ELF: {e}")))?;
        let (source, result, to_save) = loop {
            let t_join = Instant::now();
            match self.cache.join_flight(fingerprint, &pipeline_id) {
                Flight::Hit(result) => {
                    // Completed between our lookup and the join.
                    self.counters.inc(StatsCounter::CacheHits);
                    break (ServeSource::CacheHit, result, None);
                }
                Flight::Waited(Some(result)) => {
                    self.counters.inc(StatsCounter::Coalesced);
                    self.obs
                        .coalesce_wait_us
                        .record(t_join.elapsed().as_micros() as u64);
                    break (ServeSource::Coalesced, result, None);
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
                    let work = Arc::new(ImageWork::new(image.to_binary(), fingerprint));
                    let (source, result) =
                        self.lead(req_id, prev_fingerprint, pipeline, &work, &pipeline_id);
                    // The digest is usually ready: the side worker built
                    // it while the pipeline ran. The cache keeps it as
                    // long as the entry, so this thread keeps a copy:
                    // left in the side thread's malloc arena, cached
                    // digests raised the daemon's peak RSS by 2-3 MiB
                    // (+20%) under a reanalyze chain load.
                    let digest = Arc::new(ImageDigest::clone(&work.digest(None)));
                    self.obs.eh_parses.add(work.facts.work().eh_parses);
                    if let Some(persist) = &self.persist {
                        // Pending before the flight completes: from then
                        // until the save lands, a lookup that misses the
                        // cache still finds the result here.
                        persist.pending().insert(
                            (fingerprint, pipeline_id.clone()),
                            (Arc::clone(&result), Arc::clone(&digest)),
                        );
                    }
                    // Result and digest reach cache and waiters together.
                    let result = guard.complete(result, Some(Arc::clone(&digest)));
                    self.obs
                        .coalesce_leader_us
                        .record(t_join.elapsed().as_micros() as u64);
                    if source == ServeSource::Cold {
                        self.obs.record_layer_walls(&result);
                    }
                    break (source, Arc::clone(&result), Some((result, digest)));
                }
            }
        };
        if let Some(published) = to_save {
            self.persist_later(req_id, fingerprint, &pipeline_id, published);
        }
        Ok(AnalyzeReply {
            req_id,
            fingerprint,
            pipeline_id,
            source,
            wall_us: 0.0,
            result,
        })
    }

    /// The flight leader's compute: the delta ladder against the
    /// predecessor a `reanalyze` names, or the pipeline cold when there
    /// is nothing to delta against. Counts the outcome.
    ///
    /// The predecessor comes from the cache, then the pending saves,
    /// then the store. Its digest lets the new image's digest
    /// ([`ImageDigest::compute_from`]) re-sweep only the buckets the
    /// patch touched, and picks the ladder's tier ([`delta_tier`]).
    /// Tiers 1–2 reuse the previous result verbatim (source `"delta"`,
    /// counted in `delta_hits`). Tier 3 (a local change no verbatim tier
    /// can prove, counted as `fallback_cold`) and tier 4 (a non-local
    /// change, or a missing or digest-less predecessor, counted as
    /// `digest_mismatch`) run the pipeline cold.
    fn lead(
        &self,
        req_id: u64,
        prev_fingerprint: Option<u64>,
        pipeline: &Pipeline,
        work: &Arc<ImageWork>,
        pipeline_id: &str,
    ) -> (ServeSource, Arc<DetectionResult>) {
        // Not counted as a store hit: the predecessor is an input of the
        // ladder, not the answer. Load failures degrade to the cold tier.
        let prev = prev_fingerprint.and_then(|prev_fp| {
            self.cache
                .lookup_with_digest(prev_fp, pipeline_id)
                .or_else(|| {
                    self.lookup_pending(prev_fp, pipeline_id)
                        .map(|(result, digest)| (result, Some(digest)))
                })
                .or_else(|| {
                    self.load_stored(req_id, prev_fp, pipeline_id)
                        .map(|(result, digest)| (Arc::new(result), digest.map(Arc::new)))
                })
        });
        let class = match &prev {
            Some((prev_result, prev_digest)) => {
                let digest = work.digest(prev_digest.as_deref());
                let (class, reused) = delta_tier(pipeline, prev_digest.as_deref(), &digest);
                self.counters
                    .add(StatsCounter::SectionsReused, reused as u64);
                if class.is_hit() {
                    self.counters.inc(StatsCounter::DeltaHits);
                    return (ServeSource::Delta, Arc::clone(prev_result));
                }
                Some(class)
            }
            None => prev_fingerprint.map(|_| DeltaClass::Cold),
        };
        match class {
            Some(DeltaClass::Recompute) => self.counters.inc(StatsCounter::FallbackCold),
            Some(_) => self.counters.inc(StatsCounter::DigestMismatch),
            None => {}
        }
        self.counters.inc(StatsCounter::Cold);
        (ServeSource::Cold, self.run_cold(pipeline, work))
    }

    /// Runs the pipeline over `work`'s binary on a [`RecEngine`]
    /// borrowed from the pool, with the side worker building the frame
    /// table and the digest on the same [`BinaryFacts`] meanwhile. A
    /// full side queue skips that: the pipeline builds the table when
    /// it reads it, and the leader the digest after.
    fn run_cold(&self, pipeline: &Pipeline, work: &Arc<ImageWork>) -> Arc<DetectionResult> {
        let frames = pipeline.specs().contains(&LayerSpec::CallFrameRepair);
        let ahead = Arc::clone(work);
        let _ = self.side.submit(Box::new(move || ahead.run_ahead(frames)));
        let engine = self
            .engines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .pop()
            .unwrap_or_default();
        let mut state = DetectionState::with_facts(&work.binary, engine, Arc::clone(&work.facts));
        pipeline.apply(&mut state);
        let (result, engine) = state.into_result_with_engine();
        self.engines
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(engine);
        Arc::new(result)
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
        assert_eq!(stats.counter(StatsCounter::StoreHits), 1);
        assert_eq!(stats.counter(StatsCounter::Cold), 0);
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
        // The save lands after the reply.
        service.drain_saves();

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
        healed.drain_saves();
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
            fetch_core::image_fingerprint(&image)
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
        // The cold answer: 1 request event + 4 layer events. The cache
        // hit ran no layer: its request event alone.
        assert_eq!(lines.len(), 6, "{text}");
        assert!(lines[0].contains("\"event\":\"request\""));
        assert!(lines[0].contains("\"source\":\"cold\""));
        assert!(lines[1].contains("\"event\":\"layer\""));
        assert!(lines[1].contains("\"layer\":\"FDE\""));
        assert!(lines[5].contains("\"event\":\"request\""));
        assert!(lines[5].contains("\"source\":\"cache\""));
        let stats = service.stats();
        assert_eq!(stats.counter(StatsCounter::Query), 2);
        assert_eq!(stats.counter(StatsCounter::Analyze), 1);
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
        assert_eq!(
            stats.counter(StatsCounter::Cold),
            1,
            "exactly one cold compute"
        );
        assert_eq!(stats.counter(StatsCounter::Analyze), CALLERS as u64);
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
        assert_eq!(stats.counter(StatsCounter::Reanalyze), 1);
        assert_eq!(stats.counter(StatsCounter::DeltaHits), 1);
        assert!(stats.counter(StatsCounter::SectionsReused) > 0);
        assert_eq!(stats.counter(StatsCounter::Cold), 0, "no pipeline ran");

        // A behavioral patch (an immediate became a code address) is
        // not provably answer-preserving: a cold recompute,
        // byte-identical, counted as a cold fallback.
        let recomputed = reanalyze(elf_v2b);
        assert_eq!(reply_source(&recomputed), ServeSource::Cold);
        assert_eq!(result_json_of(&recomputed), ref_v2b);
        assert_eq!(restarted.stats().counter(StatsCounter::FallbackCold), 1);

        // An unknown predecessor bottoms out on the ladder's cold tier.
        let other = synthesize(&SynthConfig::small(67));
        let re = restarted.handle(Request::Reanalyze {
            prev_fingerprint: 0x1234_5678,
            input: AnalyzeInput::Bytes(write_elf(&other.binary)),
            pipeline: Pipeline::fetch(),
        });
        assert_eq!(reply_source(&re), ServeSource::Cold);
        assert_eq!(restarted.stats().counter(StatsCounter::DigestMismatch), 1);

        // Every reanalyze republished under the new fingerprint: a
        // plain resubmission of the neutral patch is now a cache hit.
        let again = reanalyze(write_elf(&neutral.binary));
        assert_eq!(reply_source(&again), ServeSource::CacheHit);
        // Dropping the service drains its pending store saves.
        drop(restarted);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Version 1 of the delta corpus analyzed cold, a neutral patch of
    /// it, and the patch's cold answer from an independent service.
    fn neutral_patch_of_analyzed(service: &AnalysisService) -> (u64, Vec<u8>, String) {
        use fetch_synth::{patch_function, PatchKind};
        let case = synthesize(&SynthConfig::small(11));
        let neutral = patch_function(&case, 7, PatchKind::Neutral).expect("a neutral patch site");
        let prev_fp = match service.handle(analyze_req(write_elf(&case.binary))) {
            Reply::Analyze(a) => a.fingerprint,
            other => panic!("{other:?}"),
        };
        let elf_v2 = write_elf(&neutral.binary);
        let reference = AnalysisService::new(&ServeConfig::default()).unwrap();
        let cold_v2 = result_json_of(&reference.handle(analyze_req(elf_v2.clone())));
        (prev_fp, elf_v2, cold_v2)
    }

    fn reanalyze_req(prev_fingerprint: u64, elf: Vec<u8>) -> Request {
        Request::Reanalyze {
            prev_fingerprint,
            input: AnalyzeInput::Bytes(elf),
            pipeline: Pipeline::fetch(),
        }
    }

    #[test]
    fn concurrent_reanalyzes_of_one_version_run_the_ladder_once() {
        // Every flight leader stalls before its compute, so all callers
        // join the reanalyze's flight before its leader completes.
        let service = AnalysisService::new(&ServeConfig {
            faults: Arc::new(FaultPlan::parse("service.compute=stall:300").unwrap()),
            ..ServeConfig::default()
        })
        .unwrap();
        let (prev_fp, elf_v2, cold_v2) = neutral_patch_of_analyzed(&service);

        const CALLERS: usize = 8;
        let barrier = std::sync::Barrier::new(CALLERS);
        let replies: Vec<Reply> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..CALLERS)
                .map(|_| {
                    let (service, barrier, elf) = (&service, &barrier, elf_v2.clone());
                    scope.spawn(move || {
                        barrier.wait();
                        service.handle(reanalyze_req(prev_fp, elf))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        let stats = service.stats();
        assert_eq!(stats.counter(StatsCounter::Reanalyze), CALLERS as u64);
        assert_eq!(stats.counter(StatsCounter::DeltaHits), 1, "one ladder run");
        assert_eq!(stats.counter(StatsCounter::Coalesced), CALLERS as u64 - 1);
        assert_eq!(stats.counter(StatsCounter::Cold), 1, "version 1 only");
        for reply in &replies {
            assert_eq!(result_json_of(reply), cold_v2, "byte-identical to cold");
        }
        let sources: Vec<ServeSource> = replies.iter().map(reply_source).collect();
        assert_eq!(
            sources.iter().filter(|s| **s == ServeSource::Delta).count(),
            1,
            "{sources:?}"
        );
    }

    #[test]
    fn injected_compute_fault_fails_one_reanalyze_and_the_retry_deltas() {
        // The first leader (version 1's analyze) spends the stall rule;
        // the second (the reanalyze) hits the io rule.
        let service = AnalysisService::new(&ServeConfig {
            faults: Arc::new(
                FaultPlan::parse("service.compute=stall:1#1,service.compute=io#1").unwrap(),
            ),
            ..ServeConfig::default()
        })
        .unwrap();
        let (prev_fp, elf_v2, cold_v2) = neutral_patch_of_analyzed(&service);
        match service.handle(reanalyze_req(prev_fp, elf_v2.clone())) {
            Reply::Error { code, message } => {
                assert_eq!(code, ErrorCode::Internal);
                assert!(message.contains("injected fault"), "{message}");
            }
            other => panic!("{other:?}"),
        }
        let retry = service.handle(reanalyze_req(prev_fp, elf_v2));
        assert_eq!(reply_source(&retry), ServeSource::Delta);
        assert_eq!(result_json_of(&retry), cold_v2);
        let stats = service.stats();
        assert_eq!(stats.counter(StatsCounter::Errors), 1);
        assert_eq!(stats.counter(StatsCounter::DeltaHits), 1);
        assert_eq!(stats.faults_injected, 2);
    }

    #[test]
    fn results_stay_visible_while_their_save_is_pending() {
        use fetch_synth::{patch_function, PatchKind};
        let dir = scratch_dir("pending");
        // One cache slot, and the first save stalls on the side worker;
        // every later save queues behind it, so nothing reaches the store
        // while the requests below run.
        let service = AnalysisService::new(&ServeConfig {
            store_dir: Some(dir.clone()),
            cache_capacity: CacheCapacity::entries(1),
            faults: Arc::new(FaultPlan::parse("store.save=stall:1500#1").unwrap()),
            ..ServeConfig::default()
        })
        .unwrap();
        let case = synthesize(&SynthConfig::small(11));
        let neutral = patch_function(&case, 7, PatchKind::Neutral).expect("a neutral patch site");
        let other = synthesize(&SynthConfig::small(68));
        let (elf_a, elf_b) = (write_elf(&case.binary), write_elf(&other.binary));
        let fp_a = match service.handle(analyze_req(elf_a.clone())) {
            Reply::Analyze(a) => a.fingerprint,
            other => panic!("{other:?}"),
        };
        let cold_b = service.handle(analyze_req(elf_b));
        assert_eq!(reply_source(&cold_b), ServeSource::Cold, "B evicts A");

        // A's predecessor entry is neither cached nor stored: the ladder
        // finds it, digest included, among the pending saves.
        let delta = service.handle(reanalyze_req(fp_a, write_elf(&neutral.binary)));
        // And A itself answers warm, not cold.
        let again = service.handle(analyze_req(elf_a));
        assert_eq!(
            (reply_source(&delta), reply_source(&again)),
            (ServeSource::Delta, ServeSource::CacheHit)
        );
        let stats = service.stats();
        assert_eq!(stats.counter(StatsCounter::Cold), 2);
        assert_eq!(
            stats.store.map(|s| s.entries),
            Some(0),
            "every answer above ran before the first save landed"
        );
        service.drain_saves();
        assert_eq!(service.stats().store.map(|s| s.entries), Some(3));
        drop(service);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The service's `fetch_elf_parses_total`.
    fn elf_parses(service: &AnalysisService) -> u64 {
        service.registry().counter("fetch_elf_parses_total").get()
    }

    fn error_of(reply: &Reply) -> (ErrorCode, String) {
        match reply {
            Reply::Error { code, message } => (*code, message.clone()),
            other => panic!("expected an error reply, got {other:?}"),
        }
    }

    #[test]
    fn only_a_request_that_misses_every_warm_tier_parses_its_elf() {
        let dir = scratch_dir("parses");
        // One cache slot, and the first save stalls, so B's cold answer
        // evicts A while A's save is still pending.
        let config = ServeConfig {
            store_dir: Some(dir.clone()),
            cache_capacity: CacheCapacity::entries(1),
            faults: Arc::new(FaultPlan::parse("store.save=stall:1500#1").unwrap()),
            ..ServeConfig::default()
        };
        let service = AnalysisService::new(&config).unwrap();
        let elf_a = write_elf(&synthesize(&SynthConfig::small(69)).binary);
        let elf_b = write_elf(&synthesize(&SynthConfig::small(70)).binary);
        let fp_a = match service.handle(analyze_req(elf_a.clone())) {
            Reply::Analyze(a) => {
                assert_eq!(a.source, ServeSource::Cold);
                a.fingerprint
            }
            other => panic!("{other:?}"),
        };
        assert_eq!(elf_parses(&service), 1, "a cold submit parses once");
        let hit = service.handle(analyze_req(elf_a.clone()));
        assert_eq!(reply_source(&hit), ServeSource::CacheHit);
        assert_eq!(elf_parses(&service), 1, "a cache hit parses nothing");
        let cold_b = service.handle(analyze_req(elf_b));
        assert_eq!(reply_source(&cold_b), ServeSource::Cold, "B evicts A");
        assert_eq!(elf_parses(&service), 2);
        let pending = service.handle(analyze_req(elf_a.clone()));
        assert_eq!(reply_source(&pending), ServeSource::CacheHit);
        assert_eq!(
            service.stats().store.map(|s| s.entries),
            Some(0),
            "A came from the pending saves"
        );
        assert_eq!(elf_parses(&service), 2, "a pending-save hit parses nothing");

        // A malformed image misses every tier, parses once per attempt
        // and fails before it joins a flight: never cached or stored.
        let junk = b"\x7fELF but not really an image".to_vec();
        let before = service.stats();
        let mut errors = Vec::new();
        for attempt in 1..=2 {
            errors.push(error_of(&service.handle(analyze_req(junk.clone()))));
            let stats = service.stats();
            assert_eq!(elf_parses(&service), 2 + attempt);
            assert_eq!(
                stats.counter(StatsCounter::Errors),
                before.counter(StatsCounter::Errors) + attempt
            );
            assert_eq!(stats.cache.misses, before.cache.misses + attempt);
            assert_eq!(stats.cache.entries, before.cache.entries);
        }
        let (code, message) = &errors[0];
        assert_eq!(*code, ErrorCode::BadRequest);
        assert!(message.starts_with("not a loadable ELF"), "{message}");
        assert_eq!(errors[0], errors[1]);

        // A reanalyze of the same bytes against a known predecessor:
        // the same error, and the delta ladder never runs.
        let delta = [
            StatsCounter::DeltaHits,
            StatsCounter::SectionsReused,
            StatsCounter::FallbackCold,
            StatsCounter::DigestMismatch,
        ];
        let re = service.handle(reanalyze_req(fp_a, junk));
        assert_eq!(error_of(&re), errors[0]);
        assert_eq!(elf_parses(&service), 5);
        let stats = service.stats();
        for counter in delta {
            assert_eq!(stats.counter(counter), 0, "{counter:?}");
        }
        service.drain_saves();
        assert_eq!(
            service.stats().store.map(|s| s.entries),
            Some(2),
            "A and B only"
        );
        drop(service);

        let restarted = AnalysisService::new(&ServeConfig {
            faults: Arc::default(),
            ..config
        })
        .unwrap();
        let stored = restarted.handle(analyze_req(elf_a));
        assert_eq!(reply_source(&stored), ServeSource::StoreHit);
        assert_eq!(elf_parses(&restarted), 0, "a store hit parses nothing");
        drop(restarted);
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
