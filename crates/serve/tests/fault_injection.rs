//! The chaos property of the serving subsystem: **any single injected
//! fault, at any site, in any transport, yields either a correct
//! byte-identical answer or a structured error / visible connection
//! drop — never a hang, a panic, or a wrong result** — and once the
//! fault budget is spent, service returns to normal, with the store's
//! startup recovery sweep healing whatever the fault left on disk.
//!
//! Two layers:
//! * a deterministic sweep over the full fault matrix (every
//!   [`FaultPlan`] site × every kind), each combo driven through the
//!   transport that owns the site (in-process for store/compute sites,
//!   the real Unix socket and stdio for `conn.*`);
//! * a property test over random *composite* plans (several sites,
//!   budgets > 1) against the in-process service across a restart;
//!
//! plus one load test: a fixed multi-site plan armed in a 4-worker
//! socket daemon under 8 concurrent clients across a restart, with the
//! `stats` and `metrics` replies reconciled exactly and the armed store
//! sites visible in the exposition.
//!
//! Every wait in here is deadline-bounded, so a hang shows up as a
//! test failure, not a stuck CI job.

#![cfg(unix)]

use fetch_binary::{write_elf, ElfImage};
use fetch_core::{image_fingerprint, Pipeline};
use fetch_serve::json::Json;
use fetch_serve::protocol::{
    result_json, AnalyzeInput, ErrorCode, Reply, Request, StatsReply, STATS_COUNTERS,
};
use fetch_serve::server::{serve, serve_io, ServerOptions};
use fetch_serve::service::{AnalysisService, ServeConfig};
use fetch_serve::{FaultPlan, ServeSource, StatsCounter};
use fetch_synth::{patch_function, synthesize, PatchKind, SynthConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Every fault kind's spec token (stalls kept short: they add latency,
/// not failures).
const KINDS: [&str; 4] = ["io", "short", "corrupt", "stall:10"];

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "fetch-serve-chaos-{}-{}",
        tag.replace(['.', '=', '#', ':'], "-"),
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The fault-free cold rendering of `elf`'s answer, which every answer
/// under a fault plan must match byte-for-byte.
fn cold_reference(elf: &[u8]) -> String {
    let service = AnalysisService::new(&ServeConfig::default()).unwrap();
    match service.handle(analyze_request(elf)) {
        Reply::Analyze(a) => result_json(&a.result).to_string(),
        other => panic!("reference run failed: {other:?}"),
    }
}

/// The corpus binary every matrix case analyzes, plus its reference.
fn reference() -> (Vec<u8>, String) {
    let elf = write_elf(&synthesize(&SynthConfig::small(4242)).binary);
    let reference = cold_reference(&elf);
    (elf, reference)
}

fn analyze_request(elf: &[u8]) -> Request {
    Request::Analyze {
        input: AnalyzeInput::Bytes(elf.to_vec()),
        pipeline: Pipeline::fetch(),
    }
}

/// The invariant on one in-process reply: correct and byte-identical,
/// or a structured error. Returns whether it was the correct answer.
fn check_reply(reply: &Reply, reference: &str, spec: &str) -> bool {
    match reply {
        Reply::Analyze(a) => {
            assert_eq!(
                result_json(&a.result).to_string(),
                reference,
                "spec {spec}: a successful answer must be byte-identical"
            );
            true
        }
        Reply::Error { code, message } => {
            assert!(
                !message.is_empty(),
                "spec {spec}: structured errors carry a message"
            );
            assert!(
                ErrorCode::from_token(code.token()).is_some(),
                "spec {spec}: error code must be a known wire token"
            );
            false
        }
        other => panic!("spec {spec}: unexpected reply {other:?}"),
    }
}

/// The invariant on one wire reply line (socket / stdio transports).
fn check_wire_reply(line: &str, reference: &str, spec: &str) -> bool {
    let reply =
        Json::parse(line).unwrap_or_else(|e| panic!("spec {spec}: bad reply {line:?}: {e}"));
    match reply.get("ok").and_then(Json::as_bool) {
        Some(true) => {
            let result = reply.get("result").expect("result object").to_string();
            assert_eq!(result, reference, "spec {spec}");
            true
        }
        Some(false) => {
            let code = reply.get("code").and_then(Json::as_str).unwrap_or("");
            assert!(
                ErrorCode::from_token(code).is_some(),
                "spec {spec}: unknown error code in {line:?}"
            );
            false
        }
        None => panic!("spec {spec}: reply without ok field: {line:?}"),
    }
}

/// Store/compute sites: drive the service in-process across two
/// lifetimes over one store directory — the restart is what proves the
/// recovery sweep heals whatever the fault persisted.
fn drive_in_process(spec: &str, elf: &[u8], reference: &str, dir: &Path) {
    let plan = Arc::new(FaultPlan::parse(spec).unwrap());
    let mut quarantined = 0;
    for lifetime in 0..2 {
        let service = AnalysisService::new(&ServeConfig {
            store_dir: Some(dir.join("store")),
            faults: plan.clone(),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut last_correct = false;
        for _ in 0..3 {
            last_correct = check_reply(&service.handle(analyze_request(elf)), reference, spec);
        }
        assert!(
            last_correct,
            "spec {spec} lifetime {lifetime}: once the budget is spent \
             every answer must be correct"
        );
        let stats = service.stats();
        assert_eq!(stats.counter(StatsCounter::Analyze), 3);
        quarantined = stats.store.expect("store stats").quarantined;
    }
    // A torn or corrupted persist is healed by the restart sweep.
    if spec == "store.save=short#1" || spec == "store.save=corrupt#1" {
        assert_eq!(
            quarantined, 1,
            "spec {spec}: the restart sweep must quarantine the bad entry"
        );
    }
    assert!(plan.fired() >= 1, "spec {spec} never armed its site");
}

/// `service.persist`: the site fires after the reply is ready, so the
/// answer is always correct. A dropped save (any kind but a stall)
/// leaves the store without the entry once the saves drain, and the
/// restart answers cold, byte-identical; a stall only delays the save.
fn drive_persist(spec: &str, elf: &[u8], reference: &str, dir: &Path) {
    let plan = Arc::new(FaultPlan::parse(spec).unwrap());
    let config = ServeConfig {
        store_dir: Some(dir.join("store")),
        faults: plan.clone(),
        ..ServeConfig::default()
    };
    let source = |reply: &Reply| match reply {
        Reply::Analyze(a) => a.source,
        other => panic!("spec {spec}: {other:?}"),
    };
    let dropped = !spec.contains("stall");
    let service = AnalysisService::new(&config).unwrap();
    let reply = service.handle(analyze_request(elf));
    assert!(check_reply(&reply, reference, spec));
    assert_eq!(source(&reply), ServeSource::Cold);
    service.drain_saves();
    assert_eq!(
        service.stats().store.expect("store stats").entries,
        usize::from(!dropped),
        "spec {spec}: a dropped save never reaches the store"
    );
    drop(service);
    let restarted = AnalysisService::new(&config).unwrap();
    let reply = restarted.handle(analyze_request(elf));
    assert!(check_reply(&reply, reference, spec));
    let expect = if dropped {
        ServeSource::Cold
    } else {
        ServeSource::StoreHit
    };
    assert_eq!(source(&reply), expect, "spec {spec}: after the restart");
    assert_eq!(plan.fired(), 1, "spec {spec} must fire exactly once");
}

fn wait_until(what: &str, mut ready: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(20);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One request/reply over a fresh connection. `None` = the connection
/// was dropped (EOF or reset) — a *visible* failure, allowed under an
/// injected `conn.*` fault. A read past the deadline panics: that would
/// be a hang.
fn roundtrip(socket: &Path, line: &str) -> Option<String> {
    let stream = UnixStream::connect(socket).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    if writer.write_all(format!("{line}\n").as_bytes()).is_err() {
        return None; // dropped while writing
    }
    let mut reply = String::new();
    match BufReader::new(stream).read_line(&mut reply) {
        Ok(0) => None, // dropped before replying
        Ok(_) => Some(reply),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => None,
        Err(e) => panic!("read timed out or failed (a hang?): {e}"),
    }
}

/// Asks the daemon on the socket to shut down when dropped, so a failed
/// assertion inside a daemon's thread scope fails the test instead of
/// leaving the scope waiting on the daemon forever.
struct ShutdownOnDrop<'a>(&'a Path);

impl Drop for ShutdownOnDrop<'_> {
    fn drop(&mut self) {
        let _ = roundtrip(self.0, &Request::Shutdown.to_line());
    }
}

/// `conn.*` sites: drive the real socket transport.
fn drive_socket(spec: &str, elf: &[u8], reference: &str, dir: &Path) {
    let socket = dir.join("fetch.sock");
    let plan = Arc::new(FaultPlan::parse(spec).unwrap());
    let service = AnalysisService::new(&ServeConfig {
        faults: plan.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| {
            serve(
                &service,
                &ServerOptions {
                    socket: socket.clone(),
                    ..ServerOptions::default()
                },
            )
        });
        wait_until("daemon socket", || UnixStream::connect(&socket).is_ok());
        let request = analyze_request(elf).to_line();
        let mut last_correct = false;
        for _ in 0..4 {
            last_correct = match roundtrip(&socket, &request) {
                Some(line) => check_wire_reply(&line, reference, spec),
                None => false, // dropped: visible, never wrong
            };
        }
        assert!(
            last_correct,
            "spec {spec}: with the budget spent the transport must answer correctly"
        );
        for _ in 0..4 {
            if roundtrip(&socket, &Request::Shutdown.to_line()).is_some() {
                break;
            }
        }
        let summary = daemon.join().expect("daemon thread").expect("serve loop");
        assert!(summary.connections >= 5);
    });
    assert!(plan.fired() >= 1, "spec {spec} never armed its site");
}

/// A cloneable writer over a shared buffer, standing in for stdout.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `conn.*` sites over the stdio transport: one `serve_io` session per
/// attempt, each fed the analyze line. An injected failure must end its
/// session with an `Err` (the stdio form of a dropped connection) and
/// never write a wrong reply.
fn drive_stdio(spec: &str, elf: &[u8], reference: &str) {
    let plan = Arc::new(FaultPlan::parse(spec).unwrap());
    let service = AnalysisService::new(&ServeConfig {
        faults: plan.clone(),
        ..ServeConfig::default()
    })
    .unwrap();
    let request = format!("{}\n", analyze_request(elf).to_line());
    let mut last_correct = false;
    for _ in 0..2 {
        let mut out = SharedBuf::default();
        let served = serve_io(&service, request.as_bytes(), &mut out);
        let text = String::from_utf8(out.0.lock().unwrap().clone()).unwrap();
        last_correct = match served {
            Ok(handled) => {
                assert_eq!(handled, 1, "spec {spec}");
                check_wire_reply(text.trim(), reference, spec)
            }
            Err(e) => {
                assert!(e.to_string().contains("injected fault"), "spec {spec}: {e}");
                assert!(
                    text.is_empty(),
                    "spec {spec}: a failed session wrote {text:?}"
                );
                false
            }
        };
    }
    assert!(
        last_correct,
        "spec {spec}: with the budget spent stdio must answer correctly"
    );
    assert!(plan.fired() >= 1, "spec {spec} never armed its site");
    assert_eq!(service.stats().faults_injected, 1, "spec {spec}");
}

/// The full matrix, deterministically: every site × every kind, one
/// firing each, through the transport that owns the site (both stream
/// transports for `conn.*`).
#[test]
fn every_single_fault_yields_a_correct_answer_or_a_structured_failure() {
    let (elf, reference) = reference();
    for site in FaultPlan::SITES {
        for kind in KINDS {
            let spec = format!("{site}={kind}#1");
            let dir = scratch_dir(&spec);
            match site {
                "conn.read" | "conn.write" => {
                    drive_socket(&spec, &elf, &reference, &dir);
                    drive_stdio(&spec, &elf, &reference);
                }
                "service.persist" => drive_persist(&spec, &elf, &reference, &dir),
                _ => drive_in_process(&spec, &elf, &reference, &dir),
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}

/// A random composite plan: several sites, budgets above one.
fn arb_plan() -> impl Strategy<Value = (String, u32)> {
    let sites = FaultPlan::SITES.len();
    proptest::collection::vec((0..sites, 0usize..4, 1u32..3), 1..4).prop_map(|entries| {
        let budget = entries.iter().map(|(_, _, c)| *c).sum();
        let spec = entries
            .iter()
            .map(|(s, k, c)| format!("{}={}#{}", FaultPlan::SITES[*s], KINDS[*k], c))
            .collect::<Vec<_>>()
            .join(",");
        (spec, budget)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random multi-fault plans against the in-process service across a
    /// restart: every reply is correct-and-identical or a structured
    /// error, and within `budget + 2` attempts per lifetime the answer
    /// is always correct (each compute firing can fail at most one
    /// request, and everything else degrades warmth, not answers).
    #[test]
    fn random_composite_fault_plans_never_corrupt_answers((spec, budget) in arb_plan()) {
        let (elf, reference) = reference();
        let dir = scratch_dir(&format!("prop-{budget}"));
        let plan = Arc::new(FaultPlan::parse(&spec).unwrap());
        for lifetime in 0..2 {
            let service = AnalysisService::new(&ServeConfig {
                store_dir: Some(dir.join("store")),
                faults: plan.clone(),
                ..ServeConfig::default()
            })
            .unwrap();
            let mut last_correct = false;
            for _ in 0..budget + 2 {
                last_correct =
                    check_reply(&service.handle(analyze_request(&elf)), &reference, &spec);
            }
            prop_assert!(
                last_correct,
                "spec {} lifetime {}: answers must recover within the fault budget",
                spec,
                lifetime
            );
            // The service stays fully observable under any plan.
            let stats = service.stats();
            prop_assert!(stats.counter(StatsCounter::Analyze) >= u64::from(budget) + 2);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The chaos plan of the load test: store writes failing and torn,
/// store reads corrupted and stalled, request reads stalled, saves
/// dropped and delayed between the reply and the store.
const LOAD_PLAN: &str = "store.save=io#2,store.save=short#2,store.load=corrupt#3,\
                         store.load=stall:5#3,conn.read=stall:5#3,\
                         service.persist=io#2,service.persist=stall:5#2";

/// A `stats` reply and a `metrics` reply read in the same quiescent
/// instant reconcile exactly: every counter equal, the outcome counters
/// partitioning `requests_total`, one latency observation per request.
fn assert_reconciled(stats: &StatsReply, metrics: &Json) {
    let metrics = metrics.get("metrics").expect("metrics object");
    let metric = |name: &str| {
        metrics
            .get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metric {name:?} missing: {metrics}"))
    };
    for (spec, &value) in STATS_COUNTERS.iter().zip(&stats.counters) {
        assert_eq!(metric(spec.metric), value, "{}", spec.metric);
    }
    assert_eq!(metric("fetch_faults_injected_total"), stats.faults_injected);
    let c = |counter: StatsCounter| stats.counter(counter);
    let total = c(StatsCounter::RequestsTotal);
    assert_eq!(
        total,
        c(StatsCounter::CacheHits)
            + c(StatsCounter::StoreHits)
            + c(StatsCounter::DeltaHits)
            + c(StatsCounter::Cold)
            + c(StatsCounter::Coalesced)
            + c(StatsCounter::Errors)
            + c(StatsCounter::ShedBusy),
        "outcome counters must partition requests_total: {:?}",
        stats.counters
    );
    let Json::Obj(series) = metrics else {
        panic!("metrics is not an object: {metrics}")
    };
    let observed: u64 = series
        .iter()
        .filter(|(name, _)| name.starts_with("fetch_request_us{"))
        .map(|(_, h)| h.get("count").and_then(Json::as_u64).expect("count"))
        .sum();
    assert_eq!(observed, total, "one latency observation per request");
}

/// The value of one series line of a text exposition.
fn text_series(text: &str, series: &str) -> u64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("exposition lacks {series}:\n{text}"))
}

/// [`LOAD_PLAN`] armed in a 4-worker socket daemon under 8 concurrent
/// clients, across two lifetimes over one store directory (the second
/// also reanalyzes a neutral patch of every binary): every reply is the
/// byte-identical fault-free answer or a structured error, the last
/// attempt on each binary is correct, both lifetimes shut down under a
/// deadline, `stats` and `metrics` reconcile exactly, and the armed
/// store sites show up in `fetch_fault_fired_total`. The final
/// exposition is left in `fault_load_metrics.txt` under the target's
/// test scratch directory.
#[test]
fn fault_armed_socket_load_across_a_restart() {
    const CLIENTS: usize = 8;
    let dir = scratch_dir("load");
    let socket = dir.join("fetch.sock");
    let config = ServeConfig {
        store_dir: Some(dir.join("store")),
        faults: Arc::new(FaultPlan::parse(LOAD_PLAN).unwrap()),
        ..ServeConfig::default()
    };
    // (analyze line, its reference, reanalyze line of a neutral patch,
    // the patched version's reference) per corpus binary.
    let corpus: Vec<(String, String, String, String)> = (0..8)
        .map(|seed| {
            let case = synthesize(&SynthConfig::small(4300 + seed));
            let elf = write_elf(&case.binary);
            let patch = (0..8)
                .find_map(|s| patch_function(&case, s, PatchKind::Neutral))
                .expect("a corpus binary offers a patch site");
            let patched = write_elf(&patch.binary);
            let reanalyze = Request::Reanalyze {
                prev_fingerprint: image_fingerprint(&ElfImage::parse(elf.clone()).unwrap()),
                input: AnalyzeInput::Bytes(patched.clone()),
                pipeline: Pipeline::fetch(),
            };
            (
                analyze_request(&elf).to_line(),
                cold_reference(&elf),
                reanalyze.to_line(),
                cold_reference(&patched),
            )
        })
        .collect();
    // Every wire reply: the reference or a structured error. The plan
    // arms no connection drop, so a reply always arrives.
    let ask = |line: &str, reference: &str| {
        let reply = roundtrip(&socket, line).expect("the plan drops no connection");
        check_wire_reply(&reply, reference, LOAD_PLAN)
    };
    let ask_json = |request: Request| {
        let reply = roundtrip(&socket, &request.to_line()).expect("reply");
        Json::parse(&reply).unwrap()
    };

    for lifetime in 0..2 {
        let service = AnalysisService::new(&config).unwrap();
        std::thread::scope(|scope| {
            let daemon = scope.spawn(|| {
                serve(
                    &service,
                    &ServerOptions {
                        socket: socket.clone(),
                        jobs: Some(4),
                        ..ServerOptions::default()
                    },
                )
            });
            wait_until("daemon socket", || UnixStream::connect(&socket).is_ok());
            let _stop = ShutdownOnDrop(&socket);
            // Each client sweeps the corpus from its own offset, so the
            // clients collide on keys: coalesced computes, cache hits.
            std::thread::scope(|clients| {
                for client in 0..CLIENTS {
                    let (corpus, ask) = (&corpus, &ask);
                    clients.spawn(move || {
                        for i in 0..corpus.len() {
                            let (line, reference, ..) = &corpus[(client + i) % corpus.len()];
                            ask(line, reference);
                        }
                    });
                }
            });
            for (line, reference, reanalyze, patched_reference) in &corpus {
                if lifetime == 1 {
                    assert!(
                        ask(reanalyze, patched_reference),
                        "the one reanalyze of a patched version must be correct"
                    );
                }
                assert!(
                    ask(line, reference),
                    "lifetime {lifetime}: the last attempt on a binary must be correct"
                );
            }
            // A metrics request does not count itself: the two reads
            // describe the same quiescent instant.
            let metrics = ask_json(Request::Metrics);
            assert_reconciled(&service.stats(), &metrics);
            if lifetime == 1 {
                let text = metrics
                    .get("text")
                    .and_then(Json::as_str)
                    .expect("text exposition");
                let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fault_load_metrics.txt");
                std::fs::write(&out, text).unwrap();
                for site in [
                    FaultPlan::STORE_SAVE,
                    FaultPlan::STORE_LOAD,
                    FaultPlan::PERSIST,
                ] {
                    let series = format!("fetch_fault_fired_total{{site=\"{site}\"}}");
                    assert!(
                        text_series(text, &series) > 0,
                        "armed site {site} never surfaced in the exposition"
                    );
                }
            }
            let bye = ask_json(Request::Shutdown);
            assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
            wait_until("daemon exit", || daemon.is_finished());
            daemon.join().expect("daemon thread").expect("serve loop");
        });
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
