//! Load generator for the `fetch-serve` daemon: starts a daemon on a
//! Unix socket, drives it with analyze requests over the determinism
//! corpus (Dataset 2), and prints per-source latency percentiles —
//! the end-to-end serving numbers *including* the transport hop
//! (`perf_snapshot`'s `serve` group measures the same path in-process).
//!
//! The run has seven phases over one daemon lifetime plus two
//! restarts:
//!
//! 1. **cold** — every corpus binary submitted once (all misses);
//! 2. **warm** — `--rounds` more sweeps (bounded-cache hits, or
//!    recomputes when `--cache-capacity` forces eviction);
//! 3. **concurrency** — warm sweeps from 1 / 2 / 4 / 8 concurrent
//!    clients against the `--jobs` worker pool: p50/p95 vs client
//!    count;
//! 4. **coalesce** — 8 clients submit one *uncached* binary at the same
//!    instant; the run asserts exactly **one** cold compute served the
//!    whole group and every reply is byte-identical;
//! 5. **restart** — the daemon is shut down and restarted over the same
//!    store directory, then swept once more (persistent-store hits);
//! 6. **rebuild** — every corpus binary that offers a patch site is
//!    resubmitted as a *new version* (one function's constant
//!    rewritten) through `reanalyze`: the restarted daemon must answer
//!    from the delta path (`source: "delta"`, `stats.delta` counters),
//!    byte-identical to an independent cold analysis of the patched
//!    bytes;
//! 7. **intra sweep** — a third daemon over a *fresh* store with its
//!    workers' intra-binary shard width forced wide (`--intra-jobs`,
//!    defaulting to 4 when left at 1) recomputes every corpus binary
//!    cold: shard width is an execution knob, so each reply must be
//!    byte-identical to the width-1 cold sweep.
//!
//! Every reply's rendered `result` object is asserted byte-identical to
//! the cold reply for that binary — warm, coalesced, and persisted
//! answers must never drift.
//!
//! Setting `FETCH_FAULT_PLAN` arms deterministic fault injection in the
//! daemon under load (see [`fetch_serve::fault`]) — the CI chaos smoke
//! runs this harness with store faults and transport stalls armed and
//! the assertions unchanged: injected failures must never change an
//! answer, hang the run, or prevent a clean shutdown.
//!
//! After the coalesce phase the harness fetches `stats` and `metrics`
//! back-to-back and asserts **exact** reconciliation: the exposition's
//! counters equal the stats counters number-for-number, the outcome
//! counters partition `requests_total`, and the per-source latency
//! histograms hold exactly one observation per request — the registry
//! and the stats reply read the same atomics, and this harness proves
//! it under real concurrent load (fault-armed included).
//!
//! Usage: `cargo run --release -p fetch-bench --bin serve_load --
//! [--scale N] [--funcs F] [--rounds R] [--cache-capacity N] [--jobs N]
//! [--metrics-out FILE]`
//!
//! `--metrics-out FILE` writes the final daemon's Prometheus-style
//! metrics exposition to `FILE` before shutdown (the CI nightly
//! publishes it to the job summary; the chaos smoke greps it for the
//! per-site fault counters).

#![cfg(unix)]

use fetch_bench::{banner, dataset2, opts_from_args};
use fetch_binary::{write_elf, ElfImage};
use fetch_core::{image_fingerprint, CacheCapacity, Pipeline};
use fetch_serve::json::Json;
use fetch_serve::protocol::{Reply, Request};
use fetch_serve::server::{serve, ServerOptions};
use fetch_serve::service::{AnalysisService, ServeConfig};
use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

fn start_daemon(
    socket: PathBuf,
    config: ServeConfig,
    jobs: usize,
) -> std::thread::JoinHandle<std::io::Result<fetch_serve::ServeSummary>> {
    let handle = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let service = AnalysisService::new(&config)?;
            serve(
                &service,
                &ServerOptions {
                    socket: Some(socket),
                    jobs: Some(jobs),
                    ..ServerOptions::default()
                },
            )
        })
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if UnixStream::connect(&socket).is_ok() {
            return handle;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("daemon did not start listening on {}", socket.display());
}

/// One request/reply round trip over a fresh connection; returns
/// (latency µs, reply).
fn roundtrip(socket: &Path, line: &str) -> (f64, Json) {
    let t = Instant::now();
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .write_all(format!("{line}\n").as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    let us = t.elapsed().as_secs_f64() * 1e6;
    (
        us,
        Json::parse(&reply).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}")),
    )
}

/// Pulls one counter out of a `stats` reply's `requests` object.
fn request_counter(stats: &Json, name: &str) -> u64 {
    stats
        .get("requests")
        .and_then(|r| r.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats reply lacks requests.{name}: {stats}"))
}

/// Pulls one plain counter out of a `metrics` reply's `metrics` object.
fn metric_counter(metrics: &Json, name: &str) -> u64 {
    metrics
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics reply lacks {name}: {metrics}"))
}

/// Asserts the `metrics` exposition reconciles *exactly* with a
/// `stats` reply taken in the same quiescent instant: equal counters,
/// the partition identity, and one latency observation per request.
fn assert_reconciled(stats: &Json, metrics: &Json) {
    let total = request_counter(stats, "requests_total");
    let delta_hits = stats
        .get("delta")
        .and_then(|d| d.get("delta_hits"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats reply lacks delta.delta_hits: {stats}"));
    let outcomes = request_counter(stats, "cache_hits")
        + request_counter(stats, "store_hits")
        + delta_hits
        + request_counter(stats, "cold")
        + request_counter(stats, "coalesced")
        + request_counter(stats, "errors")
        + request_counter(stats, "shed_busy");
    assert_eq!(
        total, outcomes,
        "outcome counters must partition requests_total: {stats}"
    );
    for (metric, stat) in [
        ("fetch_requests_total", "requests_total"),
        ("fetch_requests_errors_total", "errors"),
        ("fetch_requests_cold_total", "cold"),
        ("fetch_requests_cache_hits_total", "cache_hits"),
        ("fetch_requests_store_hits_total", "store_hits"),
        ("fetch_requests_coalesced_total", "coalesced"),
        ("fetch_requests_shed_busy_total", "shed_busy"),
    ] {
        assert_eq!(
            metric_counter(metrics, metric),
            request_counter(stats, stat),
            "{metric} must equal stats.requests.{stat} exactly"
        );
    }
    assert_eq!(
        metric_counter(metrics, "fetch_delta_hits_total"),
        delta_hits
    );
    let hist_total: u64 = match metrics.get("metrics") {
        Some(Json::Obj(map)) => map
            .iter()
            .filter(|(name, _)| name.starts_with("fetch_request_us{"))
            .map(|(name, v)| {
                v.get("count")
                    .and_then(Json::as_u64)
                    .unwrap_or_else(|| panic!("histogram {name} has no count"))
            })
            .sum(),
        _ => panic!("metrics reply has no metrics object: {metrics}"),
    };
    assert_eq!(
        hist_total, total,
        "every request must land in exactly one fetch_request_us histogram"
    );
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let ix = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[ix]
}

fn report(label: &str, mut latencies: Vec<f64>) {
    latencies.sort_by(|a, b| a.total_cmp(b));
    println!(
        "  {label:<8} n={:<5} p50 {:>9.1} µs   p95 {:>9.1} µs   max {:>9.1} µs",
        latencies.len(),
        percentile(&latencies, 0.50),
        percentile(&latencies, 0.95),
        percentile(&latencies, 1.0),
    );
}

fn main() {
    let opts = opts_from_args();
    let jobs = opts.jobs;
    let mut rounds = 2usize;
    let mut metrics_out: Option<PathBuf> = None;
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--rounds" {
            i += 1;
            rounds = args[i].parse().expect("--rounds takes a positive integer");
            assert!(rounds >= 1);
        }
        if args[i] == "--metrics-out" {
            i += 1;
            metrics_out = Some(PathBuf::from(
                args.get(i).expect("--metrics-out takes a file path"),
            ));
        }
        i += 1;
    }

    let base = std::env::temp_dir().join(format!("fetch-serve-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let socket = base.join("fetch.sock");
    let store = base.join("store");
    let faults =
        std::sync::Arc::new(fetch_serve::FaultPlan::from_env().unwrap_or_else(|e| panic!("{e}")));
    let config = ServeConfig {
        store_dir: Some(store),
        cache_capacity: match opts.cache_capacity {
            Some(n) => CacheCapacity::entries(n),
            None => CacheCapacity::UNBOUNDED,
        },
        faults: faults.clone(),
        ..ServeConfig::default()
    };

    banner("fetch-serve load generator (Dataset 2 over a Unix socket)");
    let cases = dataset2(&opts);
    let lines: Vec<String> = cases
        .iter()
        .map(|case| {
            Request::Analyze {
                input: fetch_serve::protocol::AnalyzeInput::Bytes(write_elf(&case.binary)),
                pipeline: Pipeline::fetch(),
            }
            .to_line()
        })
        .collect();
    // Submitting inline keeps the harness hermetic; report the volume.
    let payload: usize = lines.iter().map(String::len).sum();
    println!(
        "  corpus: {} binaries, {:.1} KiB of request payload per sweep, \
         cache capacity {:?}, {jobs} workers",
        cases.len(),
        payload as f64 / 1024.0,
        opts.cache_capacity,
    );
    if !faults.is_empty() {
        println!("  chaos: fault plan armed from FETCH_FAULT_PLAN");
    }

    let sweep = |socket: &Path, expect: Option<&[String]>| -> (Vec<f64>, Vec<String>) {
        let mut latencies = Vec::with_capacity(lines.len());
        let mut results = Vec::with_capacity(lines.len());
        for (ci, line) in lines.iter().enumerate() {
            let (us, reply) = roundtrip(socket, line);
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{reply}"
            );
            let result = reply.get("result").expect("result").to_string();
            if let Some(expect) = expect {
                assert_eq!(
                    result, expect[ci],
                    "case {ci}: answer drifted from the cold sweep"
                );
            }
            latencies.push(us);
            results.push(result);
        }
        (latencies, results)
    };

    // Phase 1+2: cold sweep, then warm rounds, one daemon lifetime.
    let daemon = start_daemon(socket.clone(), config.clone(), jobs);
    let t_total = Instant::now();
    let (cold, cold_results) = sweep(&socket, None);
    report("cold", cold);
    for round in 0..rounds {
        let (warm, _) = sweep(&socket, Some(&cold_results));
        report(&format!("warm#{}", round + 1), warm);
    }

    // Phase 3: concurrency sweep — C warm clients share the worker
    // pool; every reply is still asserted byte-identical to the cold
    // sweep, so contention can reorder work but never change answers.
    const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
    for clients in CLIENT_COUNTS {
        let latencies: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let (socket, lines, cold_results) = (&socket, &lines, &cold_results);
                    scope.spawn(move || {
                        let mut latencies = Vec::with_capacity(lines.len());
                        for (ci, line) in lines.iter().enumerate() {
                            let (us, reply) = roundtrip(socket, line);
                            assert_eq!(
                                reply.get("ok").and_then(Json::as_bool),
                                Some(true),
                                "{reply}"
                            );
                            assert_eq!(
                                reply.get("result").expect("result").to_string(),
                                cold_results[ci],
                                "case {ci}: a concurrent answer drifted"
                            );
                            latencies.push(us);
                        }
                        latencies
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep client"))
                .collect()
        });
        report(&format!("c={clients}"), latencies);
    }

    // Phase 4: coalescing — 8 clients submit one binary the daemon has
    // never seen, released by a barrier. Exactly one cold compute must
    // serve the whole group, and all replies must agree byte-for-byte.
    let coalesce_clients = 8usize;
    let fresh_line = {
        let mut cfg = SynthConfig::small(777_001);
        cfg.n_funcs = 40;
        Request::Analyze {
            input: fetch_serve::protocol::AnalyzeInput::Bytes(write_elf(&synthesize(&cfg).binary)),
            pipeline: Pipeline::fetch(),
        }
        .to_line()
    };
    let (_, before) = roundtrip(&socket, &Request::Stats.to_line());
    let cold_before = request_counter(&before, "cold");
    let barrier = std::sync::Barrier::new(coalesce_clients);
    let group: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..coalesce_clients)
            .map(|_| {
                let (socket, fresh_line, barrier) = (&socket, &fresh_line, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (_, reply) = roundtrip(socket, fresh_line);
                    assert_eq!(
                        reply.get("ok").and_then(Json::as_bool),
                        Some(true),
                        "{reply}"
                    );
                    reply.get("result").expect("result").to_string()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("coalesce client"))
            .collect()
    });
    assert!(
        group.windows(2).all(|w| w[0] == w[1]),
        "coalesced replies must be byte-identical"
    );
    let (_, after) = roundtrip(&socket, &Request::Stats.to_line());
    let cold_computes = request_counter(&after, "cold") - cold_before;
    assert_eq!(
        cold_computes, 1,
        "{coalesce_clients} concurrent submits of one uncached binary must \
         cost exactly one cold compute"
    );
    println!(
        "  coalesce: {coalesce_clients} concurrent clients, {cold_computes} cold compute, \
         {} coalesced, {} shed",
        request_counter(&after, "coalesced"),
        request_counter(&after, "shed_busy"),
    );

    let (_, stats) = roundtrip(&socket, &Request::Stats.to_line());
    let cache = stats.get("cache").expect("cache stats");
    println!(
        "  cache: hits {} / lookups {}, evictions {}, resident {} entries / {} B",
        cache.get("hits").and_then(Json::as_u64).unwrap_or(0),
        cache.get("hits").and_then(Json::as_u64).unwrap_or(0)
            + cache.get("misses").and_then(Json::as_u64).unwrap_or(0),
        cache.get("evictions").and_then(Json::as_u64).unwrap_or(0),
        cache.get("entries").and_then(Json::as_u64).unwrap_or(0),
        cache.get("bytes").and_then(Json::as_u64).unwrap_or(0),
    );
    // Reconciliation check: stats and metrics back-to-back in a
    // quiescent instant (stats/metrics requests do not count
    // themselves), after the 8-client coalesce burst — so the counters
    // being reconciled were written under real contention.
    let (_, metrics) = roundtrip(&socket, &Request::Metrics.to_line());
    assert_reconciled(&stats, &metrics);
    println!(
        "  metrics: exposition reconciles exactly with stats          ({} requests partitioned across outcomes and histograms)",
        request_counter(&stats, "requests_total"),
    );
    roundtrip(&socket, &Request::Shutdown.to_line());
    daemon.join().expect("daemon").expect("serve loop");

    // Phase 5: restart over the same store; answers come back warm.
    let daemon = start_daemon(socket.clone(), config, jobs);
    let (restored, _) = sweep(&socket, Some(&cold_results));
    report("restart", restored);
    let (_, stats) = roundtrip(&socket, &Request::Stats.to_line());
    let store_hits = stats
        .get("requests")
        .and_then(|r| r.get("store_hits"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    println!(
        "  restart: {store_hits} of {} answers from the persistent store",
        cases.len()
    );
    assert!(
        store_hits > 0,
        "a restarted daemon must answer from the store"
    );

    // Phase 6: rebuild sweep — the CI/CD workload. Each corpus binary
    // that offers a neutral patch site is resubmitted as a new version
    // via `reanalyze` against its own fingerprint; the daemon answers
    // through the delta ladder. Byte-identity is checked against an
    // independent in-process cold analysis of the patched bytes (the
    // daemon-side answer is verbatim reuse, so it must not be compared
    // against itself).
    let rebuilds: Vec<(usize, String, String)> = {
        let reference = AnalysisService::new(&ServeConfig::default()).expect("reference service");
        cases
            .iter()
            .enumerate()
            .filter_map(|(ci, case)| {
                let patch = (0..8).find_map(|s| patch_function(case, s, PatchKind::Neutral))?;
                let elf = write_elf(&case.binary);
                let prev_fingerprint =
                    image_fingerprint(&ElfImage::parse(elf).expect("own ELF parses"));
                let patched_elf = write_elf(&patch.binary);
                let line = Request::Reanalyze {
                    prev_fingerprint,
                    input: fetch_serve::protocol::AnalyzeInput::Bytes(patched_elf.clone()),
                    pipeline: Pipeline::fetch(),
                }
                .to_line();
                let cold = reference.handle(Request::Analyze {
                    input: fetch_serve::protocol::AnalyzeInput::Bytes(patched_elf),
                    pipeline: Pipeline::fetch(),
                });
                assert!(
                    matches!(cold, Reply::Analyze(_)),
                    "reference failed: {cold:?}"
                );
                let rendered = Json::parse(&cold.to_line()).expect("reference reply parses");
                Some((
                    ci,
                    line,
                    rendered.get("result").expect("result").to_string(),
                ))
            })
            .collect()
    };
    let (_, before) = roundtrip(&socket, &Request::Stats.to_line());
    let delta_before = before
        .get("delta")
        .and_then(|d| d.get("delta_hits"))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("stats reply lacks delta.delta_hits: {before}"));
    let mut rebuild_lat = Vec::with_capacity(rebuilds.len());
    let mut delta_sources = 0usize;
    for (ci, line, cold) in &rebuilds {
        let (us, reply) = roundtrip(&socket, line);
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        assert_eq!(
            reply.get("result").expect("result").to_string(),
            *cold,
            "case {ci}: the reanalyze answer drifted from a cold analysis"
        );
        if reply.get("source").and_then(Json::as_str) == Some("delta") {
            delta_sources += 1;
        }
        rebuild_lat.push(us);
    }
    report("rebuild", rebuild_lat);
    let (_, after) = roundtrip(&socket, &Request::Stats.to_line());
    let delta = after.get("delta").expect("stats delta block");
    let delta_hits = delta.get("delta_hits").and_then(Json::as_u64).unwrap_or(0) - delta_before;
    println!(
        "  rebuild: {} patched versions, {delta_sources} answered from the delta path \
         ({delta_hits} delta hits, {} buckets reused, {} fell cold)",
        rebuilds.len(),
        delta
            .get("sections_reused")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        delta
            .get("fallback_cold")
            .and_then(Json::as_u64)
            .unwrap_or(0)
            + delta
                .get("digest_mismatch")
                .and_then(Json::as_u64)
                .unwrap_or(0),
    );
    // Injected store faults can knock a predecessor fetch over to the
    // cold rung; without a fault plan every neutral rebuild must be a
    // verbatim delta hit.
    if faults.is_empty() {
        assert!(!rebuilds.is_empty(), "the corpus must offer patch sites");
        assert_eq!(
            delta_sources,
            rebuilds.len(),
            "every neutral rebuild must be answered from the delta path"
        );
    }
    roundtrip(&socket, &Request::Shutdown.to_line());
    daemon.join().expect("daemon").expect("serve loop");

    // Phase 7: intra-jobs sweep — same corpus, fresh store, workers
    // analyzing with a sharded recursive walk. Every answer must match
    // the width-1 cold sweep byte-for-byte (shard width never leaks
    // into results); the fresh store guarantees the replies really come
    // from wide cold computes, not cache or store reuse.
    let intra_jobs = if opts.intra_jobs > 1 {
        opts.intra_jobs
    } else {
        4
    };
    let intra_socket = base.join("fetch-intra.sock");
    let intra_config = ServeConfig {
        store_dir: Some(base.join("store-intra")),
        cache_capacity: CacheCapacity::UNBOUNDED,
        intra_jobs,
        faults: faults.clone(),
        ..ServeConfig::default()
    };
    let daemon = start_daemon(intra_socket.clone(), intra_config, jobs);
    let (wide, _) = sweep(&intra_socket, Some(&cold_results));
    report(&format!("intra={intra_jobs}"), wide);
    println!(
        "  intra sweep: {} cold recomputes at shard width {intra_jobs},          all byte-identical to width 1",
        cases.len()
    );
    if let Some(path) = &metrics_out {
        let (_, metrics) = roundtrip(&intra_socket, &Request::Metrics.to_line());
        let text = metrics
            .get("text")
            .and_then(Json::as_str)
            .expect("metrics reply carries the text exposition");
        std::fs::write(path, text).expect("write --metrics-out file");
        println!("  metrics: exposition written to {}", path.display());
    }
    roundtrip(&intra_socket, &Request::Shutdown.to_line());
    daemon.join().expect("daemon").expect("serve loop");

    println!(
        "  total: {:.2} s wall for {} requests",
        t_total.elapsed().as_secs_f64(),
        lines.len() * (rounds + 3 + CLIENT_COUNTS.iter().sum::<usize>())
            + rebuilds.len()
            + coalesce_clients
            + 10,
    );
    if !faults.is_empty() {
        println!(
            "  chaos: {} faults fired; every answer stayed byte-identical and \
             both daemon lifetimes shut down cleanly",
            faults.fired()
        );
        assert!(
            faults.fired() > 0,
            "an armed fault plan must fire under load"
        );
    }
    let _ = std::fs::remove_dir_all(&base);
}
