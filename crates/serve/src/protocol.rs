//! The line-delimited JSON serve protocol: one request per line in, one
//! reply per line out, plus a telemetry event stream for subscribers.
//!
//! ## Requests
//!
//! Every request is a JSON object with a `cmd` field:
//!
//! * `{"cmd":"analyze", "path":"/bin/x"}` — analyze the ELF at a path.
//!   Alternatives/extras: `"bytes_hex":"7f454c46…"` submits the image
//!   inline; `"pipeline":"FDE+Rec+Xref"` picks a strategy stack
//!   ([`Pipeline::parse`]); `"tool":"GHIDRA"` picks a Table III tool
//!   model ([`Tool::from_name`]). Default stack:
//!   [`Pipeline::fetch`].
//! * `{"cmd":"reanalyze", "prev_fingerprint":"0x1234abcd…",
//!   "path":"/bin/x"}` — analyze a *new version* of a previously-
//!   analyzed binary, reusing the previous answer wherever the digest
//!   diff proves that sound (the delta ladder, [`fetch_core::run_delta`]).
//!   Takes the same `path`/`bytes_hex`/`pipeline`/`tool` fields as
//!   `analyze`; `prev_fingerprint` names the earlier analyze reply's
//!   fingerprint. Byte-identical to a cold `analyze` of the same image;
//!   an unknown predecessor, or one whose digest is not attached yet,
//!   just falls back cold.
//! * `{"cmd":"query", "fingerprint":"0x1234abcd…", "pipeline":"FDE+Rec"}`
//!   — cache/store lookup only, never computes.
//! * `{"cmd":"stats"}` — cache, store, and request counters.
//! * `{"cmd":"metrics"}` — the runtime observability registry
//!   ([`fetch_obs::Registry`]): a Prometheus-style `text` exposition
//!   plus a structured `metrics` JSON object (counters as numbers,
//!   histograms as `{count,sum,max,p50,p95,p99}`).
//! * `{"cmd":"subscribe"}` — switch this connection to the telemetry
//!   stream (one JSON event line per request, and per layer a cold
//!   request ran).
//! * `{"cmd":"shutdown"}` — reply, then stop the daemon.
//!
//! ## Replies
//!
//! `{"ok":true, …}` or `{"ok":false,"code":"…","error":"…"}` — every
//! failure carries a machine-readable [`ErrorCode`]
//! (`bad_request` / `too_large` / `busy` / `not_found` / `internal`)
//! alongside the human-readable message, so clients can tell load
//! shedding from malformed input without string matching. Every reply
//! the daemon writes also carries a monotonic `req_id` (stamped by
//! [`Reply::to_line_with`]) which the telemetry events of the same
//! request echo, so subscribers can correlate layer events with the
//! originating request. Analysis replies carry the image fingerprint
//! ([`fetch_core::bytes_fingerprint`] of the raw ELF, as a hex string —
//! it does not fit a JSON double), the canonical pipeline
//! id, the answer `source`
//! (`"cold"` / `"cache"` / `"store"` / `"coalesced"` / `"delta"`), the
//! request wall time, and a `result` object whose rendering is
//! deterministic: a warm answer is byte-identical to the cold answer
//! that seeded it (asserted by the end-to-end smoke test). The
//! `req_id`/`wall_us` envelope fields differ per request by design —
//! byte-identity guarantees are about `result`, never the envelope.
//!
//! ## Input bounds
//!
//! A request line is capped at [`MAX_LINE_BYTES`] and an inline
//! `bytes_hex` image at [`MAX_INLINE_BYTES`] decoded bytes; an
//! over-limit request is answered with a structured `too_large` error
//! before the payload is materialized, never by an allocation or a
//! silent truncation.

use crate::json::{escape_into, obj, write_num, Json};
use fetch_core::{CacheStats, DetectionResult, LayerTrace, Pipeline, Provenance, Tool};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

/// Maximum accepted request-line length, in bytes. An inline hex image
/// doubles its byte size on the wire, so the line cap leaves headroom
/// over [`MAX_INLINE_BYTES`] for the JSON framing around it.
pub const MAX_LINE_BYTES: usize = 16 << 20;

/// Maximum accepted inline ELF image (`bytes_hex`, decoded bytes).
pub const MAX_INLINE_BYTES: usize = 4 << 20;

/// Machine-readable failure class of an error reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request was malformed (bad JSON, unknown command/field,
    /// unparsable pipeline, unloadable ELF).
    BadRequest,
    /// The request exceeded [`MAX_LINE_BYTES`] or [`MAX_INLINE_BYTES`].
    TooLarge,
    /// The daemon shed this request under load (its pending queue was
    /// full); retrying later is expected to succeed.
    Busy,
    /// A query for a key with no cached or stored answer.
    NotFound,
    /// A daemon-side failure (store I/O, injected faults on the answer
    /// path).
    Internal,
}

impl ErrorCode {
    /// The wire token of the `code` field.
    pub fn token(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Busy => "busy",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses a wire token back (the client side).
    pub fn from_token(token: &str) -> Option<ErrorCode> {
        Some(match token {
            "bad_request" => ErrorCode::BadRequest,
            "too_large" => ErrorCode::TooLarge,
            "busy" => ErrorCode::Busy,
            "not_found" => ErrorCode::NotFound,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }
}

/// A rejected request: the structured code plus the human-readable
/// message the daemon echoes back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// Failure class.
    pub code: ErrorCode,
    /// What was wrong, naming the field/limit involved.
    pub message: String,
}

impl RequestError {
    /// A `bad_request` error.
    pub fn bad(message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::BadRequest,
            message: message.into(),
        }
    }

    /// A `too_large` error.
    pub fn too_large(message: impl Into<String>) -> RequestError {
        RequestError {
            code: ErrorCode::TooLarge,
            message: message.into(),
        }
    }
}

impl From<RequestError> for Reply {
    fn from(e: RequestError) -> Reply {
        Reply::Error {
            code: e.code,
            message: e.message,
        }
    }
}

/// The binary payload of an analyze request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeInput {
    /// Read the ELF image from a filesystem path (daemon-side).
    Path(PathBuf),
    /// The raw ELF image, submitted inline.
    Bytes(Vec<u8>),
}

/// A parsed protocol request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze a binary under a pipeline (cache → store → cold).
    Analyze {
        /// Where the ELF image comes from.
        input: AnalyzeInput,
        /// The strategy stack to run.
        pipeline: Pipeline,
    },
    /// Analyze a new version of a previously-analyzed binary through
    /// the delta ladder (digest diff → verbatim reuse, else a cold
    /// run). Result-identical to [`Request::Analyze`].
    Reanalyze {
        /// Fingerprint of the previous version (from its analyze
        /// reply) — the entry to delta against.
        prev_fingerprint: u64,
        /// Where the new ELF image comes from.
        input: AnalyzeInput,
        /// The strategy stack to run.
        pipeline: Pipeline,
    },
    /// Look up a previously-computed answer; never computes.
    Query {
        /// Content fingerprint (from an earlier analyze reply).
        fingerprint: u64,
        /// Canonical pipeline id ([`Pipeline::id`]).
        pipeline_id: String,
    },
    /// Report cache/store/request statistics.
    Stats,
    /// Report the runtime observability registry (text exposition +
    /// JSON form).
    Metrics,
    /// Switch this connection to the telemetry event stream.
    Subscribe,
    /// Stop the daemon after replying.
    Shutdown,
}

/// Where an analysis answer came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Computed on this request.
    Cold,
    /// Served from the in-memory bounded cache.
    CacheHit,
    /// Served from the persistent result store (and promoted into the
    /// cache).
    StoreHit,
    /// This request joined an in-flight compute for the same key and
    /// received the leader's answer (the leader's pipeline run or delta
    /// ladder ran once for the whole group).
    Coalesced,
    /// A `reanalyze` answered from the delta ladder's reuse tiers: the
    /// previous version's result was returned verbatim because the
    /// digest diff proved it sound.
    Delta,
}

impl ServeSource {
    /// The wire token (`"cold"` / `"cache"` / `"store"` /
    /// `"coalesced"` / `"delta"`).
    pub fn token(self) -> &'static str {
        match self {
            ServeSource::Cold => "cold",
            ServeSource::CacheHit => "cache",
            ServeSource::StoreHit => "store",
            ServeSource::Coalesced => "coalesced",
            ServeSource::Delta => "delta",
        }
    }
}

/// A successful analysis (or query) answer.
#[derive(Debug, Clone)]
pub struct AnalyzeReply {
    /// Monotonic request ID (echoed by this request's telemetry
    /// events; 0 on client-constructed replies).
    pub req_id: u64,
    /// Content fingerprint of the analyzed image.
    pub fingerprint: u64,
    /// Canonical pipeline id the answer is keyed under.
    pub pipeline_id: String,
    /// Where the answer came from.
    pub source: ServeSource,
    /// Wall time of handling this request, in microseconds.
    pub wall_us: f64,
    /// The detection result (shared with the cache — not copied).
    pub result: Arc<DetectionResult>,
}

impl AnalyzeReply {
    /// Streams the reply line in the key order the tree form's
    /// `BTreeMap` renders: `fingerprint, ok, pipeline, req_id,
    /// result{layers, start_count, starts}, source, wall_us`.
    fn to_line_with(&self, req_id: u64) -> String {
        let result = &self.result;
        let mut out = String::with_capacity(
            160 + self.pipeline_id.len() + 16 * result.trace.len() + 32 * result.starts.len(),
        );
        out.push_str("{\"fingerprint\":\"");
        push_hex(&mut out, self.fingerprint);
        out.push_str("\",\"ok\":true,\"pipeline\":");
        escape_into(&mut out, &self.pipeline_id);
        let _ = write!(out, ",\"req_id\":{req_id},\"result\":{{\"layers\":[");
        for (i, t) in result.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            escape_into(&mut out, t.name);
        }
        let _ = write!(
            out,
            "],\"start_count\":{},\"starts\":[",
            result.starts.len()
        );
        // Each provenance's quoted token, rendered on first use: one
        // `Display` per distinct provenance, not one per start.
        let mut tokens: Vec<(Provenance, String)> = Vec::new();
        for (i, (addr, prov)) in result.starts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("[\"");
            push_hex(&mut out, *addr);
            out.push_str("\",");
            let at = match tokens.iter().position(|(p, _)| p == prov) {
                Some(at) => at,
                None => {
                    let mut quoted = String::new();
                    escape_into(&mut quoted, &prov.to_string());
                    tokens.push((*prov, quoted));
                    tokens.len() - 1
                }
            };
            out.push_str(&tokens[at].1);
            out.push(']');
        }
        out.push_str("]},\"source\":");
        escape_into(&mut out, self.source.token());
        out.push_str(",\"wall_us\":");
        write_num(&mut out, self.wall_us);
        out.push('}');
        out
    }
}

/// Persistent-store statistics for the `stats` reply.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Result files resident in the store directory.
    pub entries: usize,
    /// Total bytes of those files.
    pub disk_bytes: u64,
    /// Orphaned temp files reaped by the recovery/compaction sweep.
    pub recovered_temps: u64,
    /// Invalid entries moved to `quarantine/` by the sweep.
    pub quarantined: u64,
    /// Entries removed by age/size GC.
    pub gc_removed: u64,
    /// Bytes freed by age/size GC.
    pub gc_bytes_freed: u64,
}

/// Where one `stats` counter lives: the reply block and key it renders
/// under, and the registry metric it is exposed as. Its doc is the doc
/// of its [`StatsCounter`] variant, whose `as usize` is its row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSpec {
    /// Reply block (`"requests"` or `"delta"`).
    pub block: &'static str,
    /// Key inside the block.
    pub key: &'static str,
    /// Name in the `metrics` registry.
    pub metric: &'static str,
}

/// Declares every `stats` counter once: one documented variant of
/// [`StatsCounter`] plus its [`CounterSpec`] row of [`STATS_COUNTERS`].
macro_rules! stats_counters {
    ($($(#[doc = $doc:literal])+ $variant:ident => $block:literal, $key:literal, $metric:literal;)+) => {
        /// A counter of the `stats` reply, one daemon lifetime.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum StatsCounter {
            $($(#[doc = $doc])+ $variant,)+
        }

        /// Every `stats` counter, in [`StatsCounter`] order: the one
        /// table the registry registration, the `stats` reply and its
        /// render all read.
        pub const STATS_COUNTERS: &[CounterSpec] = &[$(CounterSpec {
            block: $block,
            key: $key,
            metric: $metric,
        },)+];
    };
}

stats_counters! {
    /// Every answer-path request (`analyze` + `reanalyze` + `query` +
    /// shed connections). Reconciles exactly:
    /// `requests_total == cache_hits + store_hits + delta_hits + cold
    /// + coalesced + errors + shed_busy`.
    RequestsTotal => "requests", "requests_total", "fetch_requests_total";
    /// Answer-path requests that ended in an error reply (bad input,
    /// unreadable path, not-found query, injected compute fault, …).
    Errors => "requests", "errors", "fetch_requests_errors_total";
    /// `analyze` requests handled.
    Analyze => "requests", "analyze", "fetch_requests_analyze_total";
    /// `reanalyze` requests handled.
    Reanalyze => "requests", "reanalyze", "fetch_requests_reanalyze_total";
    /// `query` requests handled.
    Query => "requests", "query", "fetch_requests_query_total";
    /// Answers computed cold.
    Cold => "requests", "cold", "fetch_requests_cold_total";
    /// Answers served from the in-memory cache.
    CacheHits => "requests", "cache_hits", "fetch_requests_cache_hits_total";
    /// Answers served from the persistent store.
    StoreHits => "requests", "store_hits", "fetch_requests_store_hits_total";
    /// Store entries that failed to load (corrupt/unreadable; the
    /// answer was recomputed cold and the entry rewritten).
    StoreErrors => "requests", "store_errors", "fetch_requests_store_errors_total";
    /// Answers received by joining another request's in-flight compute.
    Coalesced => "requests", "coalesced", "fetch_requests_coalesced_total";
    /// Requests shed with a `busy` error (pending queue full).
    ShedBusy => "requests", "shed_busy", "fetch_requests_shed_busy_total";
    /// Requests rejected with a `too_large` error.
    RejectedTooLarge => "requests", "rejected_too_large", "fetch_requests_rejected_too_large_total";
    /// Reanalyzes answered verbatim from the previous result (ladder
    /// tiers 1–2: unchanged image, or a local semantically-equal text
    /// patch under a delta-safe pipeline).
    DeltaHits => "delta", "delta_hits", "fetch_delta_hits_total";
    /// Total text buckets whose reuse the digest diffs proved, summed
    /// over all reanalyzes (whichever tier ran).
    SectionsReused => "delta", "sections_reused", "fetch_delta_sections_reused_total";
    /// Reanalyzes that ran cold because the change was local but not
    /// provably answer-preserving (ladder tier 3, `recompute`).
    FallbackCold => "delta", "fallback_cold", "fetch_delta_fallback_cold_total";
    /// Reanalyzes that ran cold because the change was non-local, or
    /// there was no usable predecessor (unknown fingerprint, or an
    /// entry whose digest is not attached yet).
    DigestMismatch => "delta", "digest_mismatch", "fetch_delta_digest_mismatch_total";
}

/// The full `stats` answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsReply {
    /// Bounded-cache counters and footprint.
    pub cache: CacheStats,
    /// Store footprint, when a store is configured.
    pub store: Option<StoreStats>,
    /// Every [`STATS_COUNTERS`] value, in table order (read one with
    /// [`StatsReply::counter`]).
    pub counters: [u64; STATS_COUNTERS.len()],
    /// Faults fired by the armed [`crate::FaultPlan`] (0 when no plan
    /// is armed) — chaos runs assert on this to prove injection armed.
    pub faults_injected: u64,
}

impl StatsReply {
    /// The value of one counter.
    pub fn counter(&self, counter: StatsCounter) -> u64 {
        self.counters[counter as usize]
    }
}

/// The `metrics` answer: the same registry snapshot in both forms.
#[derive(Debug, Clone)]
pub struct MetricsReply {
    /// Prometheus-style text exposition ([`fetch_obs::render_text`]).
    pub text: String,
    /// Structured form: metric name → number (counter/gauge) or
    /// `{count,sum,max,p50,p95,p99}` object (histogram).
    pub metrics: Json,
}

/// A reply to one request.
#[derive(Debug, Clone)]
pub enum Reply {
    /// An analysis or query answer.
    Analyze(AnalyzeReply),
    /// Statistics.
    Stats(StatsReply),
    /// The runtime observability registry.
    Metrics(MetricsReply),
    /// The connection is now a telemetry subscriber.
    Subscribed,
    /// The daemon acknowledges shutdown.
    Shutdown,
    /// The request failed; the code classifies it, the message says
    /// why.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Reply {
    /// Shorthand for an error reply.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Reply {
        Reply::Error {
            code,
            message: message.into(),
        }
    }
}

/// Renders a `u64` identifier as the protocol's hex-string form
/// (`0x`, then lowercase digits without leading zeros — `{v:#x}`).
pub fn hex_u64(v: u64) -> String {
    let mut out = String::with_capacity(18);
    push_hex(&mut out, v);
    out
}

/// Appends [`hex_u64`]'s form of `v` to `out` (a digit loop: `{:#x}`
/// through the formatter costs several times more per start).
fn push_hex(out: &mut String, v: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    out.push_str("0x");
    let digits = (64 - v.leading_zeros()).max(1).div_ceil(4);
    for i in (0..digits).rev() {
        out.push(DIGITS[(v >> (4 * i)) as usize & 0xf] as char);
    }
}

/// Parses the protocol's hex-string identifier form: 1–16 ASCII hex
/// digits after an optional `0x`/`0X`. No sign, so every accepted string
/// names its value one way up to case and leading zeros.
pub fn parse_hex_u64(s: &str) -> Option<u64> {
    let digits = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    if digits.is_empty() || digits.len() > 16 || !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(digits, 16).ok()
}

/// Hex digit values by byte, `0xff` for a byte that is not a hex digit
/// (either case is accepted).
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[b"0123456789abcdef"[i] as usize] = i as u8;
        table[b"0123456789ABCDEF"[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Decodes the `bytes_hex` form: one table lookup per digit into a
/// buffer sized up front, with a bad digit noted in an accumulated mask
/// rather than a branch per byte (whole ELF images travel through here).
fn decode_hex(s: &str) -> Option<Vec<u8>> {
    let s = s.as_bytes();
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let mut out = vec![0u8; s.len() / 2];
    let mut bad = 0u8;
    for (byte, pair) in out.iter_mut().zip(s.chunks_exact(2)) {
        let (hi, lo) = (HEX_VALUE[pair[0] as usize], HEX_VALUE[pair[1] as usize]);
        bad |= hi | lo;
        *byte = hi << 4 | lo;
    }
    (bad < 0x10).then_some(out)
}

/// Renders bytes as lowercase hex (the `bytes_hex` request form).
/// Nibble-table lookup: whole ELF images travel through here, so the
/// encoder must not allocate per byte.
pub fn encode_hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(DIGITS[(b >> 4) as usize] as char);
        out.push(DIGITS[(b & 0xf) as usize] as char);
    }
    out
}

/// Parses one request line, enforcing [`MAX_LINE_BYTES`] and
/// [`MAX_INLINE_BYTES`].
///
/// # Errors
///
/// A [`RequestError`] naming the malformed field (code `bad_request`)
/// or the exceeded limit (code `too_large`) — the daemon echoes it back
/// as a structured error reply and keeps serving.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    if line.len() > MAX_LINE_BYTES {
        return Err(RequestError::too_large(format!(
            "request line is {} bytes; the limit is {MAX_LINE_BYTES}",
            line.len()
        )));
    }
    let json = Json::parse(line.trim()).map_err(|e| RequestError::bad(e.to_string()))?;
    let cmd = json
        .get("cmd")
        .and_then(Json::as_str)
        .ok_or_else(|| RequestError::bad("missing \"cmd\" field"))?;
    match cmd {
        "analyze" => {
            let input = request_input(&json, "analyze")?;
            let pipeline = request_pipeline(&json)?;
            Ok(Request::Analyze { input, pipeline })
        }
        "reanalyze" => {
            let prev_fingerprint = json
                .get("prev_fingerprint")
                .and_then(Json::as_str)
                .and_then(parse_hex_u64)
                .ok_or_else(|| {
                    RequestError::bad("reanalyze needs a hex-string \"prev_fingerprint\"")
                })?;
            let input = request_input(&json, "reanalyze")?;
            let pipeline = request_pipeline(&json)?;
            Ok(Request::Reanalyze {
                prev_fingerprint,
                input,
                pipeline,
            })
        }
        "query" => {
            let fingerprint = json
                .get("fingerprint")
                .and_then(Json::as_str)
                .and_then(parse_hex_u64)
                .ok_or_else(|| RequestError::bad("query needs a hex-string \"fingerprint\""))?;
            let pipeline_id = request_pipeline(&json)?.id();
            Ok(Request::Query {
                fingerprint,
                pipeline_id,
            })
        }
        "stats" => Ok(Request::Stats),
        "metrics" => Ok(Request::Metrics),
        "subscribe" => Ok(Request::Subscribe),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(RequestError::bad(format!(
            "unknown cmd {other:?} \
             (known: analyze, reanalyze, query, stats, metrics, subscribe, shutdown)"
        ))),
    }
}

/// Resolves the request's binary payload (`path` or `bytes_hex`, not
/// both), enforcing [`MAX_INLINE_BYTES`] on inline images. Shared by
/// `analyze` and `reanalyze`.
fn request_input(json: &Json, cmd: &str) -> Result<AnalyzeInput, RequestError> {
    match (
        json.get("path").and_then(Json::as_str),
        json.get("bytes_hex").and_then(Json::as_str),
    ) {
        (Some(_), Some(_)) => Err(RequestError::bad(format!(
            "{cmd} takes \"path\" or \"bytes_hex\", not both"
        ))),
        (Some(path), None) => Ok(AnalyzeInput::Path(PathBuf::from(path))),
        (None, Some(hex)) => {
            // Check the (cheap) encoded length before decoding, so an
            // oversized image never allocates.
            if hex.len() > MAX_INLINE_BYTES * 2 {
                return Err(RequestError::too_large(format!(
                    "inline image is {} bytes; the limit is {MAX_INLINE_BYTES}",
                    hex.len() / 2
                )));
            }
            Ok(AnalyzeInput::Bytes(decode_hex(hex).ok_or_else(|| {
                RequestError::bad("\"bytes_hex\" is not valid hex")
            })?))
        }
        (None, None) => Err(RequestError::bad(format!(
            "{cmd} needs \"path\" or \"bytes_hex\""
        ))),
    }
}

/// Resolves the request's strategy stack: `pipeline` spec, `tool` name,
/// or the FETCH default.
fn request_pipeline(json: &Json) -> Result<Pipeline, RequestError> {
    match (
        json.get("pipeline").and_then(Json::as_str),
        json.get("tool").and_then(Json::as_str),
    ) {
        (Some(_), Some(_)) => Err(RequestError::bad("give \"pipeline\" or \"tool\", not both")),
        (Some(spec), None) => {
            Pipeline::parse(spec).map_err(|e| RequestError::bad(format!("bad pipeline: {e}")))
        }
        (None, Some(tool)) => Tool::from_name(tool)
            .map(Pipeline::for_tool)
            .ok_or_else(|| RequestError::bad(format!("unknown tool {tool:?}"))),
        (None, None) => Ok(Pipeline::fetch()),
    }
}

fn push_input(pairs: &mut Vec<(String, Json)>, input: &AnalyzeInput) {
    match input {
        AnalyzeInput::Path(p) => pairs.push(("path".into(), Json::str(p.display().to_string()))),
        AnalyzeInput::Bytes(b) => pairs.push(("bytes_hex".into(), Json::str(encode_hex(b)))),
    }
}

impl Request {
    /// Renders the request as one protocol line (the client side).
    pub fn to_line(&self) -> String {
        let json = match self {
            Request::Analyze { input, pipeline } => {
                let mut pairs = vec![
                    ("cmd".to_string(), Json::str("analyze")),
                    ("pipeline".to_string(), Json::str(pipeline.id())),
                ];
                push_input(&mut pairs, input);
                Json::Obj(pairs.into_iter().collect())
            }
            Request::Reanalyze {
                prev_fingerprint,
                input,
                pipeline,
            } => {
                let mut pairs = vec![
                    ("cmd".to_string(), Json::str("reanalyze")),
                    (
                        "prev_fingerprint".to_string(),
                        Json::str(hex_u64(*prev_fingerprint)),
                    ),
                    ("pipeline".to_string(), Json::str(pipeline.id())),
                ];
                push_input(&mut pairs, input);
                Json::Obj(pairs.into_iter().collect())
            }
            Request::Query {
                fingerprint,
                pipeline_id,
            } => obj([
                ("cmd", Json::str("query")),
                ("fingerprint", Json::str(hex_u64(*fingerprint))),
                ("pipeline", Json::str(pipeline_id.clone())),
            ]),
            Request::Stats => obj([("cmd", Json::str("stats"))]),
            Request::Metrics => obj([("cmd", Json::str("metrics"))]),
            Request::Subscribe => obj([("cmd", Json::str("subscribe"))]),
            Request::Shutdown => obj([("cmd", Json::str("shutdown"))]),
        };
        json.to_string()
    }
}

/// The `result` object of an analysis reply: starts (hex address,
/// provenance token) in address order, layer names, and the start
/// count. It renders only the result's content, so a cold run, a cache
/// or store hit, and a delta answer render it byte-identically; the
/// layer timings of a cold run travel in its telemetry events.
pub fn result_json(result: &DetectionResult) -> Json {
    let starts: Vec<Json> = result
        .starts
        .iter()
        .map(|(addr, prov)| Json::Arr(vec![Json::str(hex_u64(*addr)), Json::str(prov.to_string())]))
        .collect();
    let layers: Vec<Json> = result.trace.iter().map(|t| Json::str(t.name)).collect();
    obj([
        ("start_count", Json::int(result.starts.len() as u64)),
        ("starts", Json::Arr(starts)),
        ("layers", Json::Arr(layers)),
    ])
}

fn cache_stats_json(stats: &CacheStats) -> Json {
    obj([
        ("hits", Json::int(stats.hits)),
        ("misses", Json::int(stats.misses)),
        ("evictions", Json::int(stats.evictions)),
        ("coalesced", Json::int(stats.coalesced)),
        ("entries", Json::int(stats.entries as u64)),
        ("bytes", Json::int(stats.bytes as u64)),
    ])
}

impl Reply {
    /// Renders the reply as one protocol line (no `req_id` — the
    /// client-side and test form; the daemon uses
    /// [`Reply::to_line_with`]).
    pub fn to_line(&self) -> String {
        self.to_json().to_string()
    }

    /// Renders the reply as one protocol line with the monotonic
    /// `req_id` stamped into the envelope — every reply the daemon
    /// writes goes through here.
    ///
    /// An analyze reply — the hot path — is streamed straight into one
    /// buffer instead of being built as a [`Json`] tree; its bytes are
    /// pinned identical to rendering the tree form.
    pub fn to_line_with(&self, req_id: u64) -> String {
        if let Reply::Analyze(a) = self {
            return a.to_line_with(req_id);
        }
        let mut json = self.to_json();
        if let Json::Obj(map) = &mut json {
            map.insert("req_id".to_string(), Json::int(req_id));
        }
        json.to_string()
    }

    fn to_json(&self) -> Json {
        match self {
            Reply::Analyze(a) => obj([
                ("ok", Json::Bool(true)),
                ("fingerprint", Json::str(hex_u64(a.fingerprint))),
                ("pipeline", Json::str(a.pipeline_id.clone())),
                ("source", Json::str(a.source.token())),
                ("wall_us", Json::Num(a.wall_us)),
                ("result", result_json(&a.result)),
            ]),
            Reply::Stats(s) => {
                let mut pairs = BTreeMap::from([
                    ("ok".to_string(), Json::Bool(true)),
                    ("cache".to_string(), cache_stats_json(&s.cache)),
                    ("faults_injected".to_string(), Json::int(s.faults_injected)),
                ]);
                for (spec, &value) in STATS_COUNTERS.iter().zip(&s.counters) {
                    let Json::Obj(block) = pairs
                        .entry(spec.block.to_string())
                        .or_insert_with(|| Json::Obj(BTreeMap::new()))
                    else {
                        unreachable!("a counter block is an object");
                    };
                    block.insert(spec.key.to_string(), Json::int(value));
                }
                if let Some(store) = &s.store {
                    pairs.insert(
                        "store".to_string(),
                        obj([
                            ("entries", Json::int(store.entries as u64)),
                            ("disk_bytes", Json::int(store.disk_bytes)),
                            ("recovered_temps", Json::int(store.recovered_temps)),
                            ("quarantined", Json::int(store.quarantined)),
                            ("gc_removed", Json::int(store.gc_removed)),
                            ("gc_bytes_freed", Json::int(store.gc_bytes_freed)),
                        ]),
                    );
                }
                Json::Obj(pairs)
            }
            Reply::Subscribed => obj([("ok", Json::Bool(true)), ("subscribed", Json::Bool(true))]),
            Reply::Shutdown => obj([("ok", Json::Bool(true)), ("shutdown", Json::Bool(true))]),
            Reply::Metrics(m) => obj([
                ("ok", Json::Bool(true)),
                ("metrics", m.metrics.clone()),
                ("text", Json::str(m.text.clone())),
            ]),
            Reply::Error { code, message } => obj([
                ("ok", Json::Bool(false)),
                ("code", Json::str(code.token())),
                ("error", Json::str(message.clone())),
            ]),
        }
    }
}

/// Renders the telemetry event stream of one handled request: a
/// `request` event (source, wall time), then — for a `cold` answer only
/// — one `layer` event per [`LayerTrace`]: per-layer wall time, start
/// delta sizes, and decode-cache work. The events describe only layers
/// that ran for this request: a cache, store, coalesced or delta answer
/// ran none, so it emits the `request` event alone. Every event carries
/// the reply's `req_id`, so a subscriber can correlate layer events
/// with the originating request.
pub fn telemetry_events(reply: &AnalyzeReply) -> Vec<String> {
    let ran: &[LayerTrace] = match reply.source {
        ServeSource::Cold => &reply.result.trace,
        _ => &[],
    };
    let mut events = Vec::with_capacity(1 + ran.len());
    events.push(
        obj([
            ("event", Json::str("request")),
            ("req_id", Json::int(reply.req_id)),
            ("fingerprint", Json::str(hex_u64(reply.fingerprint))),
            ("pipeline", Json::str(reply.pipeline_id.clone())),
            ("source", Json::str(reply.source.token())),
            ("wall_us", Json::Num(reply.wall_us)),
            ("start_count", Json::int(reply.result.starts.len() as u64)),
        ])
        .to_string(),
    );
    for (index, t) in ran.iter().enumerate() {
        events.push(layer_event(reply, index, t));
    }
    events
}

fn layer_event(reply: &AnalyzeReply, index: usize, t: &LayerTrace) -> String {
    obj([
        ("event", Json::str("layer")),
        ("req_id", Json::int(reply.req_id)),
        ("fingerprint", Json::str(hex_u64(reply.fingerprint))),
        ("pipeline", Json::str(reply.pipeline_id.clone())),
        ("index", Json::int(index as u64)),
        ("layer", Json::str(t.name)),
        ("wall_us", Json::Num(t.wall_us())),
        ("starts_added", Json::int(t.added.len() as u64)),
        ("starts_removed", Json::int(t.removed.len() as u64)),
        ("starts_after", Json::int(t.starts_after as u64)),
        ("decode_hits", Json::int(t.decode_hits)),
        ("decode_misses", Json::int(t.decode_misses)),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn requests_round_trip_through_lines() {
        let requests = [
            Request::Analyze {
                input: AnalyzeInput::Path(PathBuf::from("/tmp/a.elf")),
                pipeline: Pipeline::fetch(),
            },
            Request::Analyze {
                input: AnalyzeInput::Bytes(vec![0x7f, b'E', b'L', b'F']),
                pipeline: Pipeline::parse("FDE+Rec").unwrap(),
            },
            Request::Reanalyze {
                prev_fingerprint: 0xdead_beef_cafe,
                input: AnalyzeInput::Path(PathBuf::from("/tmp/a-v2.elf")),
                pipeline: Pipeline::fetch(),
            },
            Request::Reanalyze {
                prev_fingerprint: 7,
                input: AnalyzeInput::Bytes(vec![0x7f, b'E', b'L', b'F']),
                pipeline: Pipeline::parse("FDE+Rec").unwrap(),
            },
            Request::Query {
                fingerprint: u64::MAX - 3,
                pipeline_id: "FDE+Rec+Xref".into(),
            },
            Request::Stats,
            Request::Metrics,
            Request::Subscribe,
            Request::Shutdown,
        ];
        for req in requests {
            let line = req.to_line();
            assert_eq!(parse_request(&line).unwrap(), req, "{line}");
        }
    }

    #[test]
    fn tool_and_default_pipelines_resolve() {
        let req = parse_request(r#"{"cmd":"analyze","path":"/x","tool":"ghidra"}"#).unwrap();
        match req {
            Request::Analyze { pipeline, .. } => {
                assert_eq!(pipeline, Pipeline::for_tool(Tool::Ghidra))
            }
            other => panic!("{other:?}"),
        }
        let req = parse_request(r#"{"cmd":"analyze","path":"/x"}"#).unwrap();
        match req {
            Request::Analyze { pipeline, .. } => assert_eq!(pipeline, Pipeline::fetch()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        for (line, needle) in [
            ("{}", "cmd"),
            (r#"{"cmd":"warp"}"#, "unknown cmd"),
            (r#"{"cmd":"analyze"}"#, "path"),
            (
                r#"{"cmd":"analyze","path":"a","bytes_hex":"00"}"#,
                "not both",
            ),
            (
                r#"{"cmd":"analyze","path":"a","pipeline":"FDE+Nope"}"#,
                "Nope",
            ),
            (
                r#"{"cmd":"analyze","path":"a","pipeline":"FDE+FDE"}"#,
                "duplicate",
            ),
            (
                r#"{"cmd":"analyze","path":"a","tool":"objdump"}"#,
                "objdump",
            ),
            (r#"{"cmd":"query","pipeline":"FDE"}"#, "fingerprint"),
            (r#"{"cmd":"analyze","bytes_hex":"0g"}"#, "hex"),
            (r#"{"cmd":"reanalyze","path":"/x"}"#, "prev_fingerprint"),
            (
                r#"{"cmd":"reanalyze","prev_fingerprint":"0x1"}"#,
                "reanalyze needs",
            ),
            (
                r#"{"cmd":"reanalyze","prev_fingerprint":"0x1","path":"a","bytes_hex":"00"}"#,
                "not both",
            ),
            ("not json", "JSON"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{line}");
            assert!(err.message.contains(needle), "{line} → {}", err.message);
        }
    }

    #[test]
    fn size_caps_reject_at_the_boundary_with_too_large() {
        // Inline image exactly at the cap parses; one byte over is a
        // structured too_large. Build the hex payloads once (8 MiB of
        // text each) and splice them into an analyze request.
        let at_cap = "00".repeat(MAX_INLINE_BYTES);
        let over = "00".repeat(MAX_INLINE_BYTES + 1);
        let line_at = format!(r#"{{"cmd":"analyze","bytes_hex":"{at_cap}"}}"#);
        assert!(
            line_at.len() <= MAX_LINE_BYTES,
            "an at-cap image must fit the line cap"
        );
        match parse_request(&line_at).unwrap() {
            Request::Analyze {
                input: AnalyzeInput::Bytes(bytes),
                ..
            } => assert_eq!(bytes.len(), MAX_INLINE_BYTES),
            other => panic!("{other:?}"),
        }
        let err =
            parse_request(&format!(r#"{{"cmd":"analyze","bytes_hex":"{over}"}}"#)).unwrap_err();
        assert_eq!(err.code, ErrorCode::TooLarge);
        assert!(err.message.contains("inline image"), "{}", err.message);

        // The line cap itself: at the boundary the (padded) request
        // still parses; one byte over is rejected by length alone.
        let pad = MAX_LINE_BYTES - r#"{"cmd":"stats","pad":""}"#.len();
        let line = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(pad));
        assert_eq!(line.len(), MAX_LINE_BYTES);
        assert_eq!(parse_request(&line).unwrap(), Request::Stats);
        let line = format!(r#"{{"cmd":"stats","pad":"{}"}}"#, "x".repeat(pad + 1));
        let err = parse_request(&line).unwrap_err();
        assert_eq!(err.code, ErrorCode::TooLarge);
        assert!(err.message.contains("request line"), "{}", err.message);
    }

    #[test]
    fn error_replies_carry_their_code_on_the_wire() {
        let line = Reply::error(ErrorCode::Busy, "pending queue full").to_line();
        assert!(line.contains(r#""code":"busy""#), "{line}");
        assert!(line.contains(r#""ok":false"#), "{line}");
        assert!(line.contains("pending queue full"), "{line}");
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::TooLarge,
            ErrorCode::Busy,
            ErrorCode::NotFound,
            ErrorCode::Internal,
        ] {
            assert_eq!(ErrorCode::from_token(code.token()), Some(code));
        }
        assert_eq!(ErrorCode::from_token("nope"), None);
    }

    #[test]
    fn replies_stamp_req_id_into_every_envelope() {
        let tagged = Reply::error(ErrorCode::Busy, "full").to_line_with(41);
        assert!(tagged.contains(r#""req_id":41"#), "{tagged}");
        let tagged = Reply::Shutdown.to_line_with(42);
        assert!(tagged.contains(r#""req_id":42"#), "{tagged}");
        let tagged = Reply::Metrics(MetricsReply {
            text: "# TYPE x counter\nx 1\n".into(),
            metrics: obj([("x", Json::int(1))]),
        })
        .to_line_with(43);
        assert!(tagged.contains(r#""req_id":43"#), "{tagged}");
        assert!(tagged.contains(r#""metrics":{"x":1}"#), "{tagged}");
        // On the wire the newlines are JSON-escaped (`\n` two-char).
        assert!(
            tagged.contains(r##""text":"# TYPE x counter\nx 1\n""##),
            "{tagged}"
        );
        // The untagged form stays req_id-free (client-constructed).
        assert!(!Reply::Shutdown.to_line().contains("req_id"));
    }

    const PROVENANCES: [Provenance; 10] = [
        Provenance::Fde,
        Provenance::Symbol,
        Provenance::CallTarget,
        Provenance::PointerScan,
        Provenance::TailCallFix,
        Provenance::Prologue,
        Provenance::TailHeuristic,
        Provenance::LinearScan,
        Provenance::Thunk,
        Provenance::Alignment,
    ];

    /// Layer names, plain and hostile (a name is escaped like any string).
    const LAYER_NAMES: [&str; 7] = ["FDE", "Rec", "Xref", "TcallFix", "q\"b\\", "\u{1}é", ""];

    /// Characters pipeline ids are drawn from: JSON escapes, control
    /// characters, DEL, multi-byte UTF-8 and plain ASCII.
    const ID_CHARS: [char; 14] = [
        '"', '\\', '\n', '\r', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '😀', 'F', '+', ' ', '/',
    ];

    /// `wall_us` values of every rendering class: integral, fractional,
    /// at or above 2^53, and subnormal.
    fn arb_wall_us() -> impl Strategy<Value = f64> {
        (0u8..4, any::<u64>()).prop_map(|(class, bits)| match class {
            0 => (bits % 1_000_000_000) as f64,
            1 => (bits >> 11) as f64 / (1u64 << 40) as f64,
            2 => (1u64 << 53) as f64 + (bits >> 8) as f64 * 1024.0,
            _ => f64::from_bits(bits & ((1 << 52) - 1)),
        })
    }

    fn arb_analyze_reply() -> impl Strategy<Value = AnalyzeReply> {
        let starts = |len| proptest::collection::vec((any::<u64>(), 0..PROVENANCES.len()), len);
        (
            prop_oneof![starts(0..4), starts(0..3001)],
            proptest::collection::vec(0..LAYER_NAMES.len(), 0..6),
            proptest::collection::vec(0..ID_CHARS.len(), 0..24),
            any::<u64>(),
            0..5usize,
            arb_wall_us(),
        )
            .prop_map(
                |(starts, layers, id, fingerprint, source, wall_us)| AnalyzeReply {
                    req_id: 0,
                    fingerprint,
                    pipeline_id: id.into_iter().map(|c| ID_CHARS[c]).collect(),
                    source: [
                        ServeSource::Cold,
                        ServeSource::CacheHit,
                        ServeSource::StoreHit,
                        ServeSource::Coalesced,
                        ServeSource::Delta,
                    ][source],
                    wall_us,
                    result: Arc::new(DetectionResult {
                        starts: starts
                            .into_iter()
                            .map(|(addr, p)| (addr, PROVENANCES[p]))
                            .collect(),
                        trace: layers
                            .into_iter()
                            .map(|l| LayerTrace {
                                name: LAYER_NAMES[l],
                                ..LayerTrace::default()
                            })
                            .collect(),
                    }),
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The streamed analyze line is byte-identical to rendering the
        /// tree form with `req_id` stamped in, parses back, re-renders
        /// to itself, and carries `result_json`'s `result`.
        #[test]
        fn streamed_analyze_reply_matches_the_tree_form(
            reply in arb_analyze_reply(),
            req_id in 0u64..(1 << 53),
        ) {
            let result = reply.result.clone();
            let reply = Reply::Analyze(reply);
            let line = reply.to_line_with(req_id);

            let mut tree = reply.to_json();
            if let Json::Obj(map) = &mut tree {
                map.insert("req_id".to_string(), Json::int(req_id));
            }
            prop_assert_eq!(&line, &tree.to_string());

            let parsed = Json::parse(&line).expect("the streamed line parses");
            prop_assert_eq!(&parsed.to_string(), &line);
            prop_assert_eq!(parsed.get("result"), Some(&result_json(&result)));
            for key in ["fingerprint", "ok", "pipeline", "req_id", "source", "wall_us"] {
                prop_assert_eq!(parsed.get(key), tree.get(key), "{}", key);
            }
        }
    }

    #[test]
    fn hex_helpers_round_trip() {
        for v in [0u64, 1, 0xf, 0x10, 0xdead_beef, 1 << 63, u64::MAX] {
            assert_eq!(hex_u64(v), format!("{v:#x}"));
            assert_eq!(parse_hex_u64(&hex_u64(v)), Some(v));
        }
        assert_eq!(parse_hex_u64("1234"), Some(0x1234));
        assert_eq!(parse_hex_u64(""), None);
        assert_eq!(parse_hex_u64("0x"), None);
        assert_eq!(parse_hex_u64("zz"), None);
        assert_eq!(decode_hex("7f454c46"), Some(vec![0x7f, 0x45, 0x4c, 0x46]));
        assert_eq!(decode_hex("7f4"), None);
        assert_eq!(encode_hex(&[0x7f, 0x45]), "7f45");
    }

    #[test]
    fn parse_hex_u64_accepts_only_unsigned_hex_digits() {
        // `u64::from_str_radix` takes a leading `+`; the protocol form
        // must not, or one fingerprint would have several spellings.
        for bad in [
            "+ff",
            "0x+ff",
            "-1",
            "0x",
            "",
            "00000000000000001",
            "0x 1",
            "ff ",
        ] {
            assert_eq!(parse_hex_u64(bad), None, "{bad:?}");
        }
        assert_eq!(parse_hex_u64("ff"), Some(255));
        assert_eq!(parse_hex_u64("0xFF"), Some(255));
        assert_eq!(parse_hex_u64("0Xffffffffffffffff"), Some(u64::MAX));
    }
}
