//! The traced run. A workload's timed requests are replayed in-process
//! twice against the same daemon configuration: once through
//! [`AnalysisService::handle`] untimed inside (the `service.handle_us`
//! baseline), and once through [`Stages`], which calls each stage's
//! public function in the order the service calls them and records a
//! span around each call. The difference between the two is the tracing
//! overhead; what the spans do not cover is reported as unattributed.

use crate::stats::{mean, median, percentile};
use fetch_binary::ElfImage;
use fetch_core::{
    diff_digests, image_fingerprint, run_delta, serialize_result_with_digest, AnalysisCache,
    CacheCapacity, DeltaClass, DetectionResult, DetectionState, ImageDigest, Pipeline,
};
use fetch_disasm::RecEngine;
use fetch_serve::protocol::{
    parse_request, result_json, AnalyzeInput, AnalyzeReply, Reply, Request, ServeSource,
};
use fetch_serve::{AnalysisService, ResultStore, ServeConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One timed interval of one request.
struct Span {
    /// Request id (position in the replayed stream).
    req: u64,
    /// Index of the span that caused this one.
    parent: Option<usize>,
    /// Stage name.
    name: &'static str,
    /// Start, nanoseconds since the tracer was made.
    start_ns: u64,
    /// End, nanoseconds since the tracer was made.
    end_ns: u64,
}

/// Spans kept in memory until the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, req: u64, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn us(span: &Span) -> f64 {
        (span.end_ns - span.start_ns) as f64 / 1e3
    }

    /// Writes the spans as JSON lines.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"req":{},"span":{id},"parent":{parent},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Counts gathered where the work happens, next to the spans.
#[derive(Default)]
struct Counts {
    store_loads: u64,
    store_hits: u64,
    /// `run_delta` outcomes: verbatim reuse, recompute, cold.
    tiers: [u64; 3],
    reply_bytes: Vec<f64>,
    blob_bytes: Vec<f64>,
    rec_hits: u64,
    rec_misses: Vec<f64>,
    xref_bytes: Vec<f64>,
    xref_candidates: Vec<f64>,
    tcall_removed: Vec<f64>,
    /// `(functions, decoded instructions per second of Rec + Xref)`.
    ips: Vec<(usize, f64)>,
    /// Layer walls the executor recorded inside `run_delta`'s fallback
    /// tiers (no span can reach inside that call).
    delta_layer_us: BTreeMap<&'static str, Vec<f64>>,
    /// The result and digest the current request saved, sized after the
    /// request's spans end.
    saved: Option<(Arc<DetectionResult>, Arc<ImageDigest>)>,
}

/// The service's answer path, stage by stage, on the same components
/// the daemon uses: a bounded cache, a result store, and one persistent
/// decode engine (one client, so one engine).
struct Stages {
    cache: AnalysisCache,
    store: ResultStore,
    engine: RecEngine,
    pipeline: Pipeline,
    pipeline_id: String,
}

type Answer = Result<Arc<DetectionResult>, String>;

impl Stages {
    fn new(store_dir: &Path, cache_entries: usize) -> std::io::Result<Stages> {
        let pipeline = Pipeline::fetch();
        Ok(Stages {
            cache: AnalysisCache::with_capacity(CacheCapacity::entries(cache_entries)),
            store: ResultStore::open(store_dir)?,
            engine: RecEngine::new(),
            pipeline_id: pipeline.id(),
            pipeline,
        })
    }

    /// Handles one request line; returns the answer it replies with.
    fn handle(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        line: &str,
        n_funcs: usize,
        c: &mut Counts,
    ) -> Answer {
        let root = tr.begin(req, None, "request");
        let s = tr.begin(req, Some(root), "protocol.parse");
        let request = parse_request(line).map_err(|e| e.message)?;
        tr.end(s);
        let handle = tr.begin(req, Some(root), "service.handle");
        let (fingerprint, source, result) = match request {
            Request::Analyze { input, .. } => self.analyze(tr, req, handle, input, n_funcs, c)?,
            Request::Reanalyze {
                prev_fingerprint,
                input,
                ..
            } => self.reanalyze(tr, req, handle, prev_fingerprint, input, c)?,
            other => return Err(format!("unexpected request {other:?}")),
        };
        tr.end(handle);
        let s = tr.begin(req, Some(root), "protocol.render");
        let reply = Reply::Analyze(AnalyzeReply {
            req_id: req,
            fingerprint,
            pipeline_id: self.pipeline_id.clone(),
            source,
            wall_us: 0.0,
            result: Arc::clone(&result),
        })
        .to_line_with(req);
        tr.end(s);
        tr.end(root);
        c.reply_bytes.push(reply.len() as f64);
        // Sizing the saved blob re-serializes it: done outside every span.
        if let Some((saved, digest)) = c.saved.take() {
            let blob =
                serialize_result_with_digest(&saved, Some(&digest)).map_err(|e| e.to_string())?;
            c.blob_bytes.push(blob.len() as f64);
        }
        Ok(result)
    }

    /// Reads and parses the image: the `binary.load` stage.
    fn load(
        &self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        input: AnalyzeInput,
    ) -> Result<(ElfImage, fetch_binary::Binary, u64), String> {
        let s = tr.begin(req, Some(parent), "binary.load");
        let bytes = match input {
            AnalyzeInput::Path(path) => std::fs::read(&path).map_err(|e| e.to_string())?,
            AnalyzeInput::Bytes(bytes) => bytes,
        };
        let image = ElfImage::parse(bytes).map_err(|e| e.to_string())?;
        let binary = image.to_binary();
        tr.end(s);
        let s = tr.begin(req, Some(parent), "cache.fingerprint");
        let fingerprint = image_fingerprint(&image);
        tr.end(s);
        Ok((image, binary, fingerprint))
    }

    /// Cache, then store: the warm half of both verbs.
    fn lookup(
        &self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        fp: u64,
        c: &mut Counts,
    ) -> Option<(Arc<DetectionResult>, ServeSource)> {
        let s = tr.begin(req, Some(parent), "cache.lookup");
        let hit = self.cache.lookup_with_digest(fp, &self.pipeline_id);
        tr.end(s);
        if let Some((result, _)) = hit {
            return Some((result, ServeSource::CacheHit));
        }
        let s = tr.begin(req, Some(parent), "store.load");
        let loaded = self.store.load_full(fp, &self.pipeline_id);
        tr.end(s);
        c.store_loads += 1;
        let (result, digest) = loaded.ok().flatten()?;
        c.store_hits += 1;
        let s = tr.begin(req, Some(parent), "cache.insert");
        let result = self.cache.insert_with_digest(
            fp,
            &self.pipeline_id,
            Arc::new(result),
            digest.map(Arc::new),
        );
        tr.end(s);
        Some((result, ServeSource::StoreHit))
    }

    /// Publishes a fresh answer with its digest to the cache and store.
    fn publish(
        &self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        fp: u64,
        result: Arc<DetectionResult>,
        digest: &Arc<ImageDigest>,
    ) -> Result<Arc<DetectionResult>, String> {
        let s = tr.begin(req, Some(parent), "cache.insert");
        let result =
            self.cache
                .insert_with_digest(fp, &self.pipeline_id, result, Some(Arc::clone(digest)));
        tr.end(s);
        let s = tr.begin(req, Some(parent), "store.save");
        let saved = self
            .store
            .save_with_digest(fp, &self.pipeline_id, &result, Some(digest));
        tr.end(s);
        saved.map_err(|e| e.to_string())?;
        Ok(result)
    }

    fn analyze(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        input: AnalyzeInput,
        n_funcs: usize,
        c: &mut Counts,
    ) -> Result<(u64, ServeSource, Arc<DetectionResult>), String> {
        let (_image, binary, fp) = self.load(tr, req, parent, input)?;
        if let Some((result, source)) = self.lookup(tr, req, parent, fp, c) {
            return Ok((fp, source, result));
        }
        // Cold: each layer of the pipeline on one state, through the
        // persistent engine.
        let mut state = DetectionState::with_engine(&binary, std::mem::take(&mut self.engine));
        let mut rec_xref_ns = 0;
        for spec in self.pipeline.specs() {
            let before = state.engine_decode_stats();
            let s = tr.begin(req, Some(parent), layer_span(spec.id()));
            spec.apply(&mut state);
            tr.end(s);
            let span = &tr.spans[s];
            match spec.id() {
                "Rec" => {
                    let (hits, misses) = state.engine_decode_stats();
                    c.rec_hits += hits - before.0;
                    c.rec_misses.push((misses - before.1) as f64);
                    rec_xref_ns += span.end_ns - span.start_ns;
                }
                "Xref" => rec_xref_ns += span.end_ns - span.start_ns,
                _ => {}
            }
        }
        let insts = state.rec().disasm.len();
        c.ips
            .push((n_funcs, insts as f64 / (rec_xref_ns.max(1) as f64 / 1e9)));
        let (result, engine) = state.into_result_with_engine();
        self.engine = engine;
        record_trace_counts(&result, c);
        let s = tr.begin(req, Some(parent), "digest.compute");
        let digest = Arc::new(ImageDigest::compute(&binary, fp));
        tr.end(s);
        let result = self.publish(tr, req, parent, fp, Arc::new(result), &digest)?;
        c.saved = Some((Arc::clone(&result), digest));
        Ok((fp, ServeSource::Cold, result))
    }

    fn reanalyze(
        &mut self,
        tr: &mut Tracer,
        req: u64,
        parent: usize,
        prev_fp: u64,
        input: AnalyzeInput,
        c: &mut Counts,
    ) -> Result<(u64, ServeSource, Arc<DetectionResult>), String> {
        let (_image, binary, fp) = self.load(tr, req, parent, input)?;
        if let Some((result, source)) = self.lookup(tr, req, parent, fp, c) {
            return Ok((fp, source, result));
        }
        // The predecessor: cache, then store.
        let s = tr.begin(req, Some(parent), "cache.lookup");
        let mut prev = self.cache.lookup_with_digest(prev_fp, &self.pipeline_id);
        tr.end(s);
        if prev.is_none() {
            let s = tr.begin(req, Some(parent), "store.load");
            let loaded = self.store.load_full(prev_fp, &self.pipeline_id);
            tr.end(s);
            c.store_loads += 1;
            prev = loaded
                .ok()
                .flatten()
                .map(|(r, d)| (Arc::new(r), d.map(Arc::new)));
            c.store_hits += u64::from(prev.is_some());
        }
        let (prev_result, prev_digest) =
            prev.ok_or_else(|| format!("predecessor {prev_fp:#x} is unknown"))?;
        let s = tr.begin(req, Some(parent), "digest.compute");
        let digest = ImageDigest::compute(&binary, fp);
        tr.end(s);
        if let Some(old) = &prev_digest {
            let s = tr.begin(req, Some(parent), "digest.diff");
            std::hint::black_box(diff_digests(old, &digest));
            tr.end(s);
        }
        let s = tr.begin(req, Some(parent), "delta.run");
        let out = run_delta(
            &self.pipeline,
            &prev_result,
            prev_digest.as_deref(),
            &binary,
            &digest,
            &mut self.engine,
        );
        tr.end(s);
        let source = match out.class {
            DeltaClass::Unchanged | DeltaClass::SectionReuse => {
                c.tiers[0] += 1;
                ServeSource::Delta
            }
            DeltaClass::Recompute => {
                c.tiers[1] += 1;
                ServeSource::Cold
            }
            DeltaClass::Cold => {
                c.tiers[2] += 1;
                ServeSource::Cold
            }
        };
        if !out.class.is_hit() {
            record_trace_counts(&out.result, c);
            for t in &out.result.trace {
                if t.name == "Rec" {
                    c.rec_hits += t.decode_hits;
                    c.rec_misses.push(t.decode_misses as f64);
                }
                let key = match t.name {
                    "FDE" => "layer.FDE",
                    "Rec" => "layer.Rec",
                    "Xref" => "layer.Xref",
                    "TcallFix" => "layer.TcallFix",
                    _ => continue,
                };
                c.delta_layer_us.entry(key).or_default().push(t.wall_us());
            }
        }
        let digest = Arc::new(digest);
        let result = self.publish(tr, req, parent, fp, out.result, &digest)?;
        c.saved = Some((Arc::clone(&result), digest));
        Ok((fp, source, result))
    }
}

fn layer_span(id: &'static str) -> &'static str {
    match id {
        "FDE" => "layer.FDE",
        "Rec" => "layer.Rec",
        "Xref" => "layer.Xref",
        "TcallFix" => "layer.TcallFix",
        _ => "layer.other",
    }
}

/// The executor's own per-layer work counters of a fresh result.
fn record_trace_counts(result: &DetectionResult, c: &mut Counts) {
    for t in &result.trace {
        match t.name {
            "Xref" => {
                c.xref_bytes.push(t.bytes_scanned as f64);
                c.xref_candidates.push(t.candidates_checked as f64);
            }
            "TcallFix" => c.tcall_removed.push(t.removed.len() as f64),
            _ => {}
        }
    }
}

/// Calls its argument with `(function count, line)` of each timed
/// request, in order.
pub type Requests<'a> = &'a dyn Fn(&mut dyn FnMut(usize, String));

/// What the traced run replays, in request order.
pub struct Replay<'a> {
    /// Setup traffic that brings the in-process state to where the
    /// daemon's was when its timed phase began (not measured).
    pub prefill: &'a [String],
    /// The timed requests: `(function count, line)` in the order the
    /// socket phase sent them, produced on demand (the lines of a
    /// cold or rebuild stream are too large to hold at once).
    pub requests: Requests<'a>,
    /// The expected `result` of each timed request (from the verified
    /// socket replies), rendered.
    pub expected: &'a [String],
    /// The daemon's `--cache-capacity`.
    pub cache_entries: usize,
}

/// Facts of the traced run's own socket phase.
pub struct SocketFacts {
    /// Client-side p50 latency, ms.
    pub latency_p50_ms: f64,
    /// Daemon CPU per answered request, ms.
    pub cpu_ms_per_req: f64,
    /// The store's on-disk size from `stats`, KiB.
    pub store_disk_kib: f64,
}

/// A per-layer metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// Replays `replay` untraced and traced, writes the spans to `spans_out`,
/// and returns the per-layer metrics plus a readable report.
pub fn run(
    replay: &Replay<'_>,
    work: &Path,
    socket: &SocketFacts,
    spans_out: &Path,
) -> Result<(Vec<Metric>, String), String> {
    let io = |e: std::io::Error| e.to_string();

    // Untraced: the daemon's own service, timed around `handle` only.
    let service = AnalysisService::new(&ServeConfig {
        store_dir: Some(work.join("replay-untraced")),
        cache_capacity: CacheCapacity::entries(replay.cache_entries),
        ..ServeConfig::default()
    })
    .map_err(io)?;
    for line in replay.prefill {
        service.handle(parse_request(line).map_err(|e| e.message)?);
    }
    let mut handle_us = Vec::new();
    let mut mismatch = None;
    (replay.requests)(&mut |_, line| {
        let Ok(request) = parse_request(&line) else {
            mismatch.get_or_insert_with(|| "unparsable request".to_string());
            return;
        };
        let t0 = Instant::now();
        let reply = service.handle(request);
        handle_us.push(t0.elapsed().as_secs_f64() * 1e6);
        let k = handle_us.len() - 1;
        let got = match &reply {
            Reply::Analyze(a) => result_json(&a.result).to_string(),
            other => format!("{other:?}"),
        };
        if replay.expected.get(k) != Some(&got) {
            mismatch.get_or_insert_with(|| format!("untraced replay request {k} differs"));
        }
    });
    drop(service);

    // Traced: stage by stage.
    let mut stages = Stages::new(&work.join("replay-traced"), replay.cache_entries).map_err(io)?;
    let (mut scratch, mut scratch_counts) = (Tracer::new(), Counts::default());
    for (i, line) in replay.prefill.iter().enumerate() {
        stages.handle(&mut scratch, i as u64, line, 0, &mut scratch_counts)?;
    }
    let cache_before = stages.cache.stats();
    let mut tr = Tracer::new();
    let mut c = Counts::default();
    let mut req = 0u64;
    (replay.requests)(&mut |n_funcs, line| {
        let k = req as usize;
        match stages.handle(&mut tr, req, &line, n_funcs, &mut c) {
            Ok(result) if replay.expected.get(k) == Some(&result_json(&result).to_string()) => {}
            Ok(_) => {
                mismatch.get_or_insert_with(|| format!("traced replay request {k} differs"));
            }
            Err(e) => {
                mismatch.get_or_insert_with(|| format!("traced replay request {k}: {e}"));
            }
        }
        req += 1;
    });
    if let Some(m) = mismatch {
        return Err(m);
    }
    if handle_us.len() != replay.expected.len() || req as usize != replay.expected.len() {
        return Err("a replay did not see every timed request".into());
    }
    let cache_after = stages.cache.stats();
    tr.write(spans_out).map_err(io)?;

    // Per-stage durations, and the per-request sum of the stages directly
    // under `service.handle`.
    let mut by_stage: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut handle_traced = Vec::new();
    let mut handle_span_of_req = BTreeMap::new();
    for (id, s) in tr.spans.iter().enumerate() {
        by_stage.entry(s.name).or_default().push(Tracer::us(s));
        if s.name == "service.handle" {
            handle_traced.push(Tracer::us(s));
            handle_span_of_req.insert(s.req, id);
        }
    }
    let mut stage_sum = vec![0.0; handle_traced.len()];
    for s in &tr.spans {
        if s.parent.is_some() && s.parent == handle_span_of_req.get(&s.req).copied() {
            stage_sum[s.req as usize] += Tracer::us(s);
        }
    }
    for (layer, walls) in &c.delta_layer_us {
        by_stage.entry(layer).or_default().extend(walls);
    }
    let p50 = |name: &str| by_stage.get(name).map_or(0.0, |v| median(v));

    let requests = handle_us.len().max(1) as f64;
    let handle_p50 = median(&handle_us);
    let unattributed = mean(&handle_us) - mean(&stage_sum);
    let residual_ms = socket.latency_p50_ms - handle_p50 / 1e3;
    let lookups =
        (cache_after.hits + cache_after.misses) - (cache_before.hits + cache_before.misses);
    let cache_hit_ratio = ratio(
        (cache_after.hits - cache_before.hits) as f64,
        lookups as f64,
    );
    let tiers: u64 = c.tiers.iter().sum();
    let rec_lookups = c.rec_hits as f64 + c.rec_misses.iter().sum::<f64>();
    let band = |keep: &dyn Fn(usize) -> bool| {
        let v: Vec<f64> = c
            .ips
            .iter()
            .filter(|(n, _)| keep(*n))
            .map(|(_, ips)| *ips)
            .collect();
        median(&v)
    };
    let ips_small = band(&|n| n < crate::gen::SMALL_BELOW);
    let ips_large = band(&|n| n >= crate::gen::LARGE_FROM);
    let latency_us = socket.latency_p50_ms * 1e3;

    let metrics: Vec<Metric> = vec![
        ("transport.residual_ms", residual_ms, "ms"),
        (
            "transport.residual_share",
            ratio(residual_ms, socket.latency_p50_ms),
            "ratio",
        ),
        ("protocol.parse_us", p50("protocol.parse"), "us"),
        ("protocol.render_us", p50("protocol.render"), "us"),
        ("protocol.reply_kib", median(&c.reply_bytes) / 1024.0, "KiB"),
        ("binary.load_us", p50("binary.load"), "us"),
        ("cache.fingerprint_us", p50("cache.fingerprint"), "us"),
        ("cache.lookup_us", p50("cache.lookup"), "us"),
        ("cache.insert_us", p50("cache.insert"), "us"),
        ("cache.hit_ratio", cache_hit_ratio, "ratio"),
        (
            "cache.evictions",
            (cache_after.evictions - cache_before.evictions) as f64,
            "count",
        ),
        ("store.load_us", p50("store.load"), "us"),
        (
            "store.hit_ratio",
            ratio(c.store_hits as f64, c.store_loads as f64),
            "ratio",
        ),
        ("store.save_us", p50("store.save"), "us"),
        ("store.blob_kib", median(&c.blob_bytes) / 1024.0, "KiB"),
        ("store.disk_kib", socket.store_disk_kib, "KiB"),
        ("digest.compute_us", p50("digest.compute"), "us"),
        ("digest.diff_us", p50("digest.diff"), "us"),
        ("delta.run_us", p50("delta.run"), "us"),
        (
            "delta.reuse_share",
            ratio(c.tiers[0] as f64, tiers as f64),
            "ratio",
        ),
        (
            "delta.recompute_share",
            ratio(c.tiers[1] as f64, tiers as f64),
            "ratio",
        ),
        (
            "delta.cold_share",
            ratio(c.tiers[2] as f64, tiers as f64),
            "ratio",
        ),
        ("layer.FDE.us", p50("layer.FDE"), "us"),
        ("layer.Rec.us", p50("layer.Rec"), "us"),
        ("layer.Xref.us", p50("layer.Xref"), "us"),
        ("layer.TcallFix.us", p50("layer.TcallFix"), "us"),
        ("rec.decode_misses", median(&c.rec_misses), "count"),
        (
            "rec.decode_hit_ratio",
            ratio(c.rec_hits as f64, rec_lookups),
            "ratio",
        ),
        ("rec.ips_small", ips_small, "insts/s"),
        ("rec.ips_large", ips_large, "insts/s"),
        ("rec.ips_flatness", ratio(ips_large, ips_small), "ratio"),
        ("xref.bytes_scanned", median(&c.xref_bytes), "bytes"),
        (
            "xref.candidates_checked",
            median(&c.xref_candidates),
            "count",
        ),
        (
            "layer.TcallFix.starts_removed",
            median(&c.tcall_removed),
            "count",
        ),
        ("service.handle_us", handle_p50, "us"),
        ("service.unattributed_us", unattributed, "us"),
        (
            "service.unattributed_share",
            ratio(unattributed, latency_us),
            "ratio",
        ),
        (
            "trace.overhead_us",
            median(&handle_traced) - handle_p50,
            "us",
        ),
        ("daemon.cpu_ms_per_req", socket.cpu_ms_per_req, "ms"),
    ];

    let mut report = String::new();
    let _ = writeln!(
        report,
        "# traced replay of {} requests (spans: {})",
        handle_us.len(),
        spans_out.display()
    );
    let _ = writeln!(
        report,
        "# {:<20} {:>8} {:>12} {:>12} {:>12}",
        "stage", "spans", "p50_us", "p95_us", "us/request"
    );
    for (name, v) in &by_stage {
        let _ = writeln!(
            report,
            "# {:<20} {:>8} {:>12.1} {:>12.1} {:>12.1}",
            name,
            v.len(),
            median(v),
            percentile(v, 95.0),
            v.iter().sum::<f64>() / requests
        );
    }
    let _ = writeln!(
        report,
        "# service.handle: untraced mean {:.1} us = stages under handle {:.1} us + unattributed {:.1} us \
         ({:.1}% of latency_p50 {:.3} ms); traced handle p50 {:.1} vs untraced p50 {:.1} us",
        mean(&handle_us),
        mean(&stage_sum),
        unattributed,
        100.0 * ratio(unattributed, latency_us),
        socket.latency_p50_ms,
        median(&handle_traced),
        handle_p50
    );
    let _ = writeln!(
        report,
        "# transport residual: client p50 {:.3} ms - handle p50 {:.3} ms = {:.3} ms ({:.1}% of latency_p50)",
        socket.latency_p50_ms,
        handle_p50 / 1e3,
        residual_ms,
        100.0 * ratio(residual_ms, socket.latency_p50_ms)
    );
    Ok((metrics, report))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
