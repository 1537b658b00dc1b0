//! # fetch-obs
//!
//! Offline, dependency-free **runtime observability** for the serving
//! stack: an atomic counter/gauge registry, log-bucketed latency
//! histograms with quantile extraction, per-request IDs, and a leveled
//! structured logger.
//!
//! **Naming note:** the workspace already has a `fetch-metrics` crate —
//! that one scores detector output against ground truth (the *paper's*
//! precision/recall metrics). This crate is about *runtime* metrics
//! (what the daemon did and how long it took), hence `fetch-obs`.
//!
//! ## Model
//!
//! * [`Registry`] — named metrics behind shared atomics. Counters and
//!   gauges are `Arc<AtomicU64>` handles, so a subsystem that already
//!   owns an atomic (e.g. the cache hit counter in `fetch-core`) can
//!   *register the very same atomic* and the exposition reads it with
//!   no mirroring or drift.
//! * [`Histogram`] — lock-free log-bucketed recording (two sub-buckets
//!   per power of two, ≤ ±25 % bucket error) with exact `count`, `sum`
//!   and `max`; [`Histogram::snapshot`] extracts p50/p95/p99.
//! * [`IdGen`] — monotonic request IDs for correlating replies,
//!   telemetry events, and log lines.
//! * [`render_text`] — Prometheus-style text exposition of a registry
//!   [`Snapshot`] (counters as `name value`, histograms as
//!   `_count`/`_sum`/`quantile=` series). Metric names may carry a
//!   literal `{label="value"}` suffix which is preserved and merged.
//! * [`log_line`] / [`logmsg!`](crate::logmsg) — leveled stderr logging,
//!   line-structured as `level ts req_id msg`.
//!
//! ## Example
//!
//! ```
//! use fetch_obs::{LogLevel, Registry};
//!
//! let reg = Registry::new();
//! let hits = reg.counter("demo_hits_total");
//! hits.inc();
//! let lat = reg.histogram("demo_request_us");
//! lat.record(42);
//! let snap = reg.snapshot();
//! let text = fetch_obs::render_text(&snap);
//! assert!(text.contains("demo_hits_total 1"));
//! assert!(text.contains("demo_request_us_count 1"));
//! assert_eq!("warn".parse::<LogLevel>().unwrap(), LogLevel::Warn);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

// ---------------------------------------------------------------------------
// Counters and gauges
// ---------------------------------------------------------------------------

/// A monotonically increasing counter handle (cheap to clone).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable gauge handle (cheap to clone).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge to `v`.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Two sub-buckets per power of two up to 2^63: index 0 and 1 hold the
/// exact values 0 and 1, bucket `2o + s` holds `[2^o | s·2^(o-1), …)`.
const BUCKETS: usize = 128;

/// A lock-free log-bucketed latency histogram (microsecond samples).
///
/// Buckets are geometric with two sub-buckets per octave, bounding the
/// quantile estimation error at ±25 % of the true value; `count`,
/// `sum`, and `max` are exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    fn index(v: u64) -> usize {
        if v <= 1 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() as usize;
        let sub = ((v >> (octave - 1)) & 1) as usize;
        (octave * 2 + sub).min(BUCKETS - 1)
    }

    /// Inclusive upper bound of bucket `idx` (the quantile estimate).
    fn upper(idx: usize) -> u64 {
        if idx <= 1 {
            return idx as u64;
        }
        let octave = idx / 2;
        let sub = (idx % 2) as u64;
        let lower = (1u64 << octave) | (sub << (octave - 1));
        lower + (1u64 << (octave - 1)) - 1
    }

    /// Records one sample (in microseconds, by convention).
    pub fn record(&self, v: u64) {
        self.buckets[Self::index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// The number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time view with extracted quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let target = ((q * count as f64).ceil() as u64).max(1);
            let mut seen = 0u64;
            for (idx, c) in counts.iter().enumerate() {
                seen += c;
                if seen >= target {
                    return Self::upper(idx);
                }
            }
            Self::upper(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p95: quantile(0.95),
            p99: quantile(0.99),
        }
    }
}

/// A point-in-time histogram view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact maximum sample.
    pub max: u64,
    /// Estimated 50th percentile (µs).
    pub p50: u64,
    /// Estimated 95th percentile (µs).
    pub p95: u64,
    /// Estimated 99th percentile (µs).
    pub p99: u64,
}

// ---------------------------------------------------------------------------
// Request IDs
// ---------------------------------------------------------------------------

/// A monotonic ID generator; the first issued ID is 1 (0 means "no
/// request context" in log lines).
#[derive(Debug, Default)]
pub struct IdGen(AtomicU64);

impl IdGen {
    /// A fresh generator starting at 1.
    pub fn new() -> IdGen {
        IdGen(AtomicU64::new(0))
    }

    /// The next ID.
    pub fn next_id(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// How many IDs have been issued.
    pub fn issued(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Metric {
    Counter(Arc<AtomicU64>),
    Gauge(Arc<AtomicU64>),
    Histogram(Arc<Histogram>),
}

/// A named-metric registry.
///
/// Metric names follow Prometheus conventions (`snake_case`, unit and
/// `_total` suffixes) and may carry one literal label set:
/// `fetch_request_us{source="cache"}`. Lookup is get-or-create, so
/// every subsystem holding a clone of the registry converges on the
/// same atomics.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(AtomicU64::new(0))));
        match m {
            Metric::Counter(a) | Metric::Gauge(a) => Counter(Arc::clone(a)),
            Metric::Histogram(_) => panic!("metric {name} already registered as a histogram"),
        }
    }

    /// Registers an *existing* atomic as the counter `name` — the
    /// exposition reads the caller's own atomic (no mirroring).
    pub fn register_counter(&self, name: &str, atomic: Arc<AtomicU64>) {
        self.lock()
            .insert(name.to_string(), Metric::Counter(atomic));
    }

    /// Get-or-create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(AtomicU64::new(0))));
        match m {
            Metric::Counter(a) | Metric::Gauge(a) => Gauge(Arc::clone(a)),
            Metric::Histogram(_) => panic!("metric {name} already registered as a histogram"),
        }
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.lock();
        let m = map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match m {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered as a counter/gauge"),
        }
    }

    /// A point-in-time snapshot of every registered metric, sorted by
    /// name.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.lock();
        Snapshot {
            entries: map
                .iter()
                .map(|(name, m)| {
                    let value = match m {
                        Metric::Counter(a) => MetricValue::Counter(a.load(Ordering::Relaxed)),
                        Metric::Gauge(a) => MetricValue::Gauge(a.load(Ordering::Relaxed)),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    };
                    (name.clone(), value)
                })
                .collect(),
        }
    }
}

/// One metric's value inside a [`Snapshot`].
#[derive(Clone, Copy, Debug)]
pub enum MetricValue {
    /// A counter reading.
    Counter(u64),
    /// A gauge reading.
    Gauge(u64),
    /// A histogram view.
    Histogram(HistogramSnapshot),
}

/// A point-in-time registry view (sorted by metric name).
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` pairs in name order.
    pub entries: Vec<(String, MetricValue)>,
}

/// Splits `fetch_x_us{label="v"}` into `("fetch_x_us", "label=\"v\"")`;
/// the label part is empty when the name carries none.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

fn series(base: &str, suffix: &str, labels: &str, extra: &str) -> String {
    let mut all = String::new();
    if !labels.is_empty() {
        all.push_str(labels);
    }
    if !extra.is_empty() {
        if !all.is_empty() {
            all.push(',');
        }
        all.push_str(extra);
    }
    if all.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{all}}}")
    }
}

/// Renders a snapshot in Prometheus text-exposition style.
///
/// Counters/gauges render as `name value`; a histogram named `h`
/// renders `h_count`, `h_sum`, `h_max`, and `h{quantile="…"}` series.
/// `# TYPE` comments are emitted once per base metric name.
pub fn render_text(snap: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in &snap.entries {
        let (base, labels) = split_labels(name);
        let kind = match value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "summary",
        };
        if base != last_base {
            out.push_str(&format!("# TYPE {base} {kind}\n"));
            last_base = base.to_string();
        }
        match value {
            MetricValue::Counter(v) | MetricValue::Gauge(v) => {
                out.push_str(&series(base, "", labels, ""));
                out.push_str(&format!(" {v}\n"));
            }
            MetricValue::Histogram(h) => {
                for (suffix, v) in [("_count", h.count), ("_sum", h.sum), ("_max", h.max)] {
                    out.push_str(&series(base, suffix, labels, ""));
                    out.push_str(&format!(" {v}\n"));
                }
                for (q, v) in [("0.5", h.p50), ("0.95", h.p95), ("0.99", h.p99)] {
                    out.push_str(&series(base, "", labels, &format!("quantile=\"{q}\"")));
                    out.push_str(&format!(" {v}\n"));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Leveled logging
// ---------------------------------------------------------------------------

/// Log severity, most to least severe.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Nothing is emitted.
    Off,
    /// Unrecoverable or data-affecting problems.
    Error,
    /// Degraded-but-continuing conditions (store read errors, sheds).
    Warn,
    /// Lifecycle events (startup, shutdown summary).
    Info,
    /// Per-request diagnostics.
    Debug,
    /// Everything.
    Trace,
}

impl LogLevel {
    fn as_str(self) -> &'static str {
        match self {
            LogLevel::Off => "off",
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
            LogLevel::Trace => "trace",
        }
    }

    fn from_u8(v: u8) -> LogLevel {
        match v {
            0 => LogLevel::Off,
            1 => LogLevel::Error,
            2 => LogLevel::Warn,
            3 => LogLevel::Info,
            4 => LogLevel::Debug,
            _ => LogLevel::Trace,
        }
    }
}

impl fmt::Display for LogLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for LogLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<LogLevel, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(LogLevel::Off),
            "error" => Ok(LogLevel::Error),
            "warn" | "warning" => Ok(LogLevel::Warn),
            "info" => Ok(LogLevel::Info),
            "debug" => Ok(LogLevel::Debug),
            "trace" => Ok(LogLevel::Trace),
            other => Err(format!(
                "unknown log level {other:?} (known: off, error, warn, info, debug, trace)"
            )),
        }
    }
}

/// Process-wide log threshold (default: `info`).
static LOG_LEVEL: AtomicU8 = AtomicU8::new(LogLevel::Info as u8);

/// Sets the process-wide log threshold.
pub fn set_log_level(level: LogLevel) {
    LOG_LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current process-wide log threshold.
pub fn log_level() -> LogLevel {
    LogLevel::from_u8(LOG_LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `level` would be emitted.
pub fn log_enabled(level: LogLevel) -> bool {
    level != LogLevel::Off && level <= log_level()
}

/// Emits one structured stderr line: `level ts req_id msg`.
///
/// `ts` is seconds-with-millis since the Unix epoch; `req_id` renders
/// as `-` when 0 (no request context). Prefer the [`logmsg!`] macro,
/// which skips the message formatting entirely below the threshold.
pub fn log_line(level: LogLevel, req_id: u64, msg: &str) {
    if !log_enabled(level) {
        return;
    }
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .unwrap_or_default();
    if req_id == 0 {
        eprintln!(
            "{} {}.{:03} - {}",
            level,
            now.as_secs(),
            now.subsec_millis(),
            msg
        );
    } else {
        eprintln!(
            "{} {}.{:03} {} {}",
            level,
            now.as_secs(),
            now.subsec_millis(),
            req_id,
            msg
        );
    }
}

/// Leveled logging with lazy formatting:
/// `logmsg!(LogLevel::Warn, req_id, "store read error: {e}")`.
#[macro_export]
macro_rules! logmsg {
    ($level:expr, $req_id:expr, $($arg:tt)*) => {
        if $crate::log_enabled($level) {
            $crate::log_line($level, $req_id, &format!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_cover_and_estimate_within_bounds() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 10_000, u64::MAX / 2] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.max, u64::MAX / 2);
        // The estimate for a single-valued histogram stays within the
        // 2-sub-bucket-per-octave bound (upper edge ≤ 1.5× the value).
        let one = Histogram::new();
        one.record(1000);
        let s = one.snapshot();
        assert!(s.p50 >= 1000 && s.p50 <= 1500, "p50={}", s.p50);
        assert_eq!(s.p50, s.p99);
        assert_eq!(s.sum, 1000);
    }

    #[test]
    fn histogram_quantiles_order() {
        let h = Histogram::new();
        for i in 0..1000u64 {
            h.record(i);
        }
        let s = h.snapshot();
        assert!(s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= 1500);
        assert!(s.p50 >= 400, "p50={}", s.p50);
        assert_eq!(s.count, 1000);
    }

    #[test]
    fn registry_converges_on_shared_atomics() {
        let reg = Registry::new();
        reg.counter("a_total").inc();
        reg.counter("a_total").add(2);
        assert_eq!(reg.counter("a_total").get(), 3);

        let external = Arc::new(AtomicU64::new(7));
        reg.register_counter("ext_total", Arc::clone(&external));
        external.fetch_add(1, Ordering::Relaxed);
        let snap = reg.snapshot();
        let ext = snap
            .entries
            .iter()
            .find(|(n, _)| n == "ext_total")
            .expect("registered");
        assert!(matches!(ext.1, MetricValue::Counter(8)));
    }

    #[test]
    fn idgen_is_monotonic_from_one() {
        let ids = IdGen::new();
        assert_eq!(ids.next_id(), 1);
        assert_eq!(ids.next_id(), 2);
        assert_eq!(ids.issued(), 2);
    }

    #[test]
    fn text_exposition_renders_labels_and_quantiles() {
        let reg = Registry::new();
        reg.counter("fetch_requests_total").add(4);
        reg.histogram("fetch_request_us{source=\"cache\"}")
            .record(10);
        let text = render_text(&reg.snapshot());
        assert!(text.contains("# TYPE fetch_requests_total counter"));
        assert!(text.contains("fetch_requests_total 4"));
        assert!(text.contains("fetch_request_us_count{source=\"cache\"} 1"));
        assert!(text.contains("fetch_request_us{source=\"cache\",quantile=\"0.5\"}"));
    }

    #[test]
    fn log_levels_parse_and_order() {
        assert!(LogLevel::Error < LogLevel::Trace);
        assert_eq!("WARN".parse::<LogLevel>().unwrap(), LogLevel::Warn);
        assert!("nope".parse::<LogLevel>().is_err());
        set_log_level(LogLevel::Warn);
        assert!(log_enabled(LogLevel::Error));
        assert!(!log_enabled(LogLevel::Info));
        set_log_level(LogLevel::Info);
    }
}
