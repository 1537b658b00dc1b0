//! End-to-end smoke test of the daemon, over the real socket transport:
//! start `fetch-serve`, submit a corpus binary twice, subscribe to
//! telemetry, shut down cleanly, restart over the same store directory,
//! and assert the second and post-restart answers are cache/store hits
//! whose rendered `result` objects are **byte-identical** to the cold
//! one. This is the CI smoke step for the serving subsystem.

#![cfg(unix)]

use fetch_binary::write_elf;
use fetch_core::CacheCapacity;
use fetch_core::Pipeline;
use fetch_serve::json::Json;
use fetch_serve::protocol::{parse_hex_u64, AnalyzeInput, Request};
use fetch_serve::server::{serve, ServerOptions};
use fetch_serve::service::{AnalysisService, ServeConfig};
use fetch_serve::ServeSummary;
use fetch_synth::{synthesize, SynthConfig};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fetch-serve-e2e-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Starts a daemon thread on `socket`, waits until it accepts.
fn start_daemon(
    socket: PathBuf,
    config: ServeConfig,
) -> std::thread::JoinHandle<std::io::Result<ServeSummary>> {
    let handle = {
        let socket = socket.clone();
        std::thread::spawn(move || {
            let service = AnalysisService::new(&config)?;
            serve(
                &service,
                &ServerOptions {
                    socket,
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

/// One request, one reply, over a fresh connection.
fn roundtrip(socket: &Path, request: &Request) -> Json {
    let mut stream = UnixStream::connect(socket).expect("connect");
    stream
        .write_all(format!("{}\n", request.to_line()).as_bytes())
        .expect("send");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("reply");
    Json::parse(&reply).unwrap_or_else(|e| panic!("bad reply {reply:?}: {e}"))
}

fn expect_source(reply: &Json, source: &str) {
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(
        reply.get("source").and_then(Json::as_str),
        Some(source),
        "{reply}"
    );
}

/// The deterministic payload of an analysis reply.
fn result_text(reply: &Json) -> String {
    reply.get("result").expect("result object").to_string()
}

#[test]
fn daemon_serves_cache_and_store_hits_byte_identical_across_restart() {
    let dir = scratch_dir("restart");
    let store_dir = dir.join("store");
    let socket = dir.join("fetch.sock");

    // A corpus binary, submitted by path like a production client would.
    let mut cfg = SynthConfig::small(901);
    cfg.n_funcs = 40;
    let case = synthesize(&cfg);
    let elf = write_elf(&case.binary);
    let elf_path = dir.join("sample.elf");
    std::fs::write(&elf_path, &elf).unwrap();

    let config = ServeConfig {
        store_dir: Some(store_dir.clone()),
        cache_capacity: CacheCapacity::entries(64),
        ..ServeConfig::default()
    };
    let analyze = Request::Analyze {
        input: AnalyzeInput::Path(elf_path.clone()),
        pipeline: Pipeline::fetch(),
    };

    // ---- First daemon lifetime: cold, then cache hit. ----
    let daemon = start_daemon(socket.clone(), config.clone());

    // A telemetry subscriber registered before any work.
    let mut sub = UnixStream::connect(&socket).unwrap();
    sub.write_all(format!("{}\n", Request::Subscribe.to_line()).as_bytes())
        .unwrap();
    sub.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut sub_reader = BufReader::new(sub);
    let mut line = String::new();
    sub_reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"subscribed\":true"), "{line}");

    let cold = roundtrip(&socket, &analyze);
    expect_source(&cold, "cold");
    let cold_result = result_text(&cold);
    let fingerprint = cold
        .get("fingerprint")
        .and_then(Json::as_str)
        .and_then(parse_hex_u64)
        .expect("fingerprint");

    let cached = roundtrip(&socket, &analyze);
    expect_source(&cached, "cache");
    assert_eq!(
        result_text(&cached),
        cold_result,
        "cache hit must render the byte-identical result"
    );

    // Query by fingerprint answers warm too.
    let queried = roundtrip(
        &socket,
        &Request::Query {
            fingerprint,
            pipeline_id: Pipeline::fetch().id(),
        },
    );
    expect_source(&queried, "cache");
    assert_eq!(result_text(&queried), cold_result);

    // Telemetry: the subscriber saw a request event per answer, and one
    // layer event per pipeline layer for the cold answer only (the two
    // warm answers ran no layer).
    let expected_events = 3 + Pipeline::fetch().len();
    let mut events = Vec::new();
    for _ in 0..expected_events {
        let mut event = String::new();
        sub_reader.read_line(&mut event).expect("telemetry event");
        events.push(event);
    }
    assert!(
        events[0].contains("\"event\":\"request\"") && events[0].contains("\"source\":\"cold\"")
    );
    assert!(events[1].contains("\"event\":\"layer\"") && events[1].contains("\"layer\":\"FDE\""));
    for warm in &events[5..] {
        assert!(
            warm.contains("\"event\":\"request\"") && warm.contains("\"source\":\"cache\""),
            "{warm}"
        );
    }

    // Stats expose the new cache counters. The store save lands on the
    // service's side worker after the reply, so the store's one entry
    // is awaited (deadline-bounded) rather than assumed.
    let store_entries = |stats: &Json| {
        stats
            .get("store")
            .and_then(|s| s.get("entries"))
            .and_then(Json::as_u64)
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        let stats = roundtrip(&socket, &Request::Stats);
        if store_entries(&stats) == Some(1) || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    let cache_stats = stats.get("cache").expect("cache stats");
    assert_eq!(cache_stats.get("misses").and_then(Json::as_u64), Some(1));
    assert_eq!(cache_stats.get("hits").and_then(Json::as_u64), Some(2));
    assert_eq!(cache_stats.get("evictions").and_then(Json::as_u64), Some(0));
    assert_eq!(cache_stats.get("entries").and_then(Json::as_u64), Some(1));
    assert!(cache_stats.get("bytes").and_then(Json::as_u64).unwrap() > 0);
    assert_eq!(store_entries(&stats), Some(1), "{stats}");

    // Clean shutdown.
    let bye = roundtrip(&socket, &Request::Shutdown);
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    let summary = daemon.join().expect("daemon thread").expect("serve loop");
    assert!(summary.connections >= 5);
    assert!(!socket.exists(), "socket file removed on shutdown");

    // ---- Second daemon lifetime: same store, fresh cache. ----
    let daemon = start_daemon(socket.clone(), config);
    let restored = roundtrip(&socket, &analyze);
    expect_source(&restored, "store");
    assert_eq!(
        result_text(&restored),
        cold_result,
        "post-restart answer must be byte-identical to the cold run"
    );
    // Promotion into the cache: the next answer is a cache hit.
    let warm = roundtrip(&socket, &analyze);
    expect_source(&warm, "cache");
    assert_eq!(result_text(&warm), cold_result);
    let stats = roundtrip(&socket, &Request::Stats);
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("store_hits"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(
        stats
            .get("requests")
            .and_then(|r| r.get("cold"))
            .and_then(Json::as_u64),
        Some(0),
        "the restarted daemon never computed"
    );
    roundtrip(&socket, &Request::Shutdown);
    daemon.join().expect("daemon thread").expect("serve loop");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn daemon_rejects_malformed_requests_and_keeps_serving() {
    let dir = scratch_dir("errors");
    let socket = dir.join("fetch.sock");
    let daemon = start_daemon(socket.clone(), ServeConfig::default());

    // A malformed line gets an error reply on the same connection, and
    // the next request on that connection still works.
    let mut stream = UnixStream::connect(&socket).unwrap();
    stream.write_all(b"{\"cmd\":\"analyze\"}\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let reply = Json::parse(&line).unwrap();
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(false));
    assert!(reply
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("path"));

    // Nonexistent path: still an error reply, not a dead daemon.
    stream
        .write_all(b"{\"cmd\":\"analyze\",\"path\":\"/nonexistent/x.elf\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"ok\":false"), "{line}");

    // Garbage bytes inline: parse error surfaces as a reply.
    stream
        .write_all(b"{\"cmd\":\"analyze\",\"bytes_hex\":\"00010203\"}\n")
        .unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("not a loadable ELF"), "{line}");
    drop(reader);
    drop(stream);

    let bye = roundtrip(&socket, &Request::Shutdown);
    assert_eq!(bye.get("ok").and_then(Json::as_bool), Some(true));
    daemon.join().expect("daemon thread").expect("serve loop");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Runs `serve` over `opts` on a daemon thread and returns once the
/// socket accepts; the daemon's result lands on the returned channel.
fn spawn_daemon(opts: ServerOptions) -> mpsc::Receiver<std::io::Result<ServeSummary>> {
    let socket = opts.socket.clone();
    let (done_tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let out = AnalysisService::new(&ServeConfig::default())
            .and_then(|service| serve(&service, &opts));
        let _ = done_tx.send(out);
    });
    let deadline = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never listened");
        std::thread::sleep(Duration::from_millis(5));
    }
    done
}

/// The watchdog: fails the test unless the daemon thread reports that
/// `serve` returned within 2 s of `sent` (the shutdown request).
fn expect_exit_within_2s(
    done: &mpsc::Receiver<std::io::Result<ServeSummary>>,
    sent: Instant,
) -> ServeSummary {
    done.recv_timeout(Duration::from_secs(2).saturating_sub(sent.elapsed()))
        .expect("serve did not return within 2 s of the shutdown request")
        .expect("serve loop")
}

/// Shuts a daemon down over its socket and checks that `serve` returns
/// within 2 s. No other connection is made until it has: any connection
/// wakes a blocked acceptor and would hide a missing wake-up.
#[test]
fn shutdown_over_the_socket_returns_promptly() {
    let dir = scratch_dir("stop-socket");
    let socket = dir.join("fetch.sock");
    let done = spawn_daemon(ServerOptions {
        socket: socket.clone(),
        ..ServerOptions::default()
    });
    // One answered request first: the acceptor is back in accept().
    assert!(roundtrip(&socket, &Request::Stats).get("cache").is_some());

    let sent = Instant::now();
    let bye = roundtrip(&socket, &Request::Shutdown);
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    expect_exit_within_2s(&done, sent);
    assert!(!socket.exists(), "socket file removed on shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A second daemon started on a socket path where a live daemon listens
/// fails with `AddrInUse` and leaves the live daemon's socket alone: the
/// first daemon still answers on it, and still shuts down cleanly.
#[test]
fn second_daemon_on_a_live_socket_fails_and_leaves_it_serving() {
    let dir = scratch_dir("steal");
    let socket = dir.join("fetch.sock");
    let first = spawn_daemon(ServerOptions {
        socket: socket.clone(),
        ..ServerOptions::default()
    });

    // `spawn_daemon`'s readiness probe reaches the first daemon, so it
    // returns at once; the second daemon's result is on the channel.
    let second = spawn_daemon(ServerOptions {
        socket: socket.clone(),
        ..ServerOptions::default()
    });
    let err = second
        .recv_timeout(Duration::from_secs(5))
        .expect("the second serve must return at once, not take the socket over")
        .expect_err("the second serve must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse, "{err}");
    assert!(err.to_string().contains("fetch.sock"), "{err}");

    assert!(roundtrip(&socket, &Request::Stats).get("cache").is_some());
    let sent = Instant::now();
    let bye = roundtrip(&socket, &Request::Shutdown);
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    expect_exit_within_2s(&first, sent);
    assert!(!socket.exists(), "socket file removed on shutdown");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A client that connects once the daemon has answered `shutdown` sees
/// EOF or a refused connection — never a reply, never a hang — whether
/// it lands before the acceptor wakes, in the listen backlog after the
/// acceptor has stopped, or after the socket file is gone.
#[test]
fn client_connecting_after_shutdown_is_turned_away() {
    let dir = scratch_dir("stop-late");
    let socket = dir.join("fetch.sock");
    let done = spawn_daemon(ServerOptions {
        socket: socket.clone(),
        ..ServerOptions::default()
    });
    let bye = roundtrip(&socket, &Request::Shutdown);
    let sent = Instant::now();
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    let turned_away = || {
        let Ok(mut stream) = UnixStream::connect(&socket) else {
            return; // refused, or the socket file is already gone
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        let _ = stream.write_all(format!("{}\n", Request::Stats.to_line()).as_bytes());
        let mut line = String::new();
        match BufReader::new(stream).read_line(&mut line) {
            Ok(0) => {}
            Ok(_) => panic!("a client connecting after shutdown was served: {line}"),
            Err(e) => assert!(
                !matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ),
                "a client connecting after shutdown hung: {e}"
            ),
        }
    };
    turned_away();
    turned_away();
    expect_exit_within_2s(&done, sent);
    turned_away();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A spawned `fetch-serve`, killed when dropped so a failed assertion
/// never leaves it running.
struct Spawned(Child);

impl Spawned {
    /// Waits up to 10 s for the process to exit; fails the test past that.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.0.try_wait().unwrap() {
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "fetch-serve did not exit within 10 s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The shipped binary's `--fault-plan` flag: a malformed plan fails
/// startup with status 2 and names the rule, and a valid one arms the
/// daemon's fault sites.
#[test]
fn fault_plan_flag_is_validated_and_arms_the_shipped_daemon() {
    let dir = scratch_dir("fault-flag");
    let socket = dir.join("fetch.sock");
    let daemon = |plan: &str| {
        let child = Command::new(env!("CARGO_BIN_EXE_fetch-serve"))
            .arg("daemon")
            .arg("--socket")
            .arg(&socket)
            .args(["--fault-plan", plan, "--log-level", "off"])
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn fetch-serve");
        Spawned(child)
    };

    let mut bad = daemon("nowhere=io");
    assert_eq!(bad.wait_exit().code(), Some(2));
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut bad.0.stderr.take().unwrap(), &mut stderr).unwrap();
    assert!(stderr.contains("\"nowhere=io\""), "{stderr}");

    let mut armed = daemon("conn.read=stall:1#1");
    let deadline = Instant::now() + Duration::from_secs(10);
    while UnixStream::connect(&socket).is_err() {
        assert!(Instant::now() < deadline, "daemon never listened");
        std::thread::sleep(Duration::from_millis(5));
    }
    roundtrip(&socket, &Request::Stats);
    let stats = roundtrip(&socket, &Request::Stats);
    assert!(
        stats.get("faults_injected").and_then(Json::as_u64) >= Some(1),
        "{stats}"
    );
    let bye = roundtrip(&socket, &Request::Shutdown);
    assert_eq!(bye.get("shutdown").and_then(Json::as_bool), Some(true));
    assert!(armed.wait_exit().success());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every numeric daemon flag rejects `0` and a non-number: the shipped
/// binary exits with status 2 and a message naming the flag, before it
/// opens any transport.
#[test]
fn numeric_daemon_flags_reject_zero_and_garbage() {
    for flag in [
        "--cache-capacity",
        "--cache-bytes",
        "--jobs",
        "--queue-depth",
        "--io-timeout-ms",
        "--store-max-entries",
        "--store-max-bytes",
        "--store-max-age-secs",
    ] {
        for value in ["0", "x"] {
            let child = Command::new(env!("CARGO_BIN_EXE_fetch-serve"))
                .args(["daemon", flag, value])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn fetch-serve");
            let mut daemon = Spawned(child);
            assert_eq!(daemon.wait_exit().code(), Some(2), "{flag} {value}");
            let mut stderr = String::new();
            std::io::Read::read_to_string(&mut daemon.0.stderr.take().unwrap(), &mut stderr)
                .unwrap();
            assert!(stderr.contains(flag), "{flag} {value}: {stderr}");
        }
    }
}

/// Runs the shipped binary with `args`, expects exit status 2, and
/// returns its stderr.
fn fails_with_status_2(args: &[&str]) -> String {
    let child = Command::new(env!("CARGO_BIN_EXE_fetch-serve"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fetch-serve");
    let mut daemon = Spawned(child);
    assert_eq!(daemon.wait_exit().code(), Some(2), "{args:?}");
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut daemon.0.stderr.take().unwrap(), &mut stderr).unwrap();
    stderr
}

/// The daemon's transports are `--socket` and `--stdio`: any other
/// transport flag is an unknown flag, a daemon given neither transport
/// exits before it opens anything (here: its store), and `--stdio`
/// rejects each socket-transport flag before it creates the socket or
/// the store. Each exits with status 2 and a message naming what is
/// wrong.
#[test]
fn daemon_rejects_unknown_transport_flags_and_a_missing_transport() {
    for (flag, value) in [("--queue", "x"), ("--poll-ms", "20")] {
        let stderr = fails_with_status_2(&["daemon", flag, value]);
        assert!(stderr.contains("unknown daemon flag"), "{flag}: {stderr}");
        assert!(stderr.contains(flag), "{flag}: {stderr}");
    }
    let dir = scratch_dir("no-transport");
    let store = dir.join("store");
    let store_arg = store.to_str().unwrap();
    let stderr = fails_with_status_2(&["daemon", "--store", store_arg]);
    assert!(
        stderr.contains("--socket") && stderr.contains("--stdio"),
        "{stderr}"
    );
    assert!(!store.exists(), "the store was opened before the check");
    let socket = dir.join("fetch.sock");
    for (flag, value) in [
        ("--socket", socket.to_str().unwrap()),
        ("--jobs", "3"),
        ("--queue-depth", "4"),
        ("--io-timeout-ms", "5"),
    ] {
        let args = ["daemon", "--stdio", flag, value, "--store", store_arg];
        let stderr = fails_with_status_2(&args);
        assert!(stderr.contains(flag), "{flag}: {stderr}");
        assert!(!socket.exists(), "{flag}: a socket was created");
        assert!(!store.exists(), "{flag}: the store was opened");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The client sends one request: two request flags, two pipeline
/// flags, or a pipeline flag beside a request that takes none exit 2
/// with a message naming both flags, before the client connects (the
/// socket here does not exist, so a connect would fail differently).
#[test]
fn client_rejects_conflicting_request_flags() {
    let dir = scratch_dir("client-flags");
    let socket = dir.join("none.sock");
    let socket = socket.to_str().unwrap();
    for (args, named) in [
        (
            &["--shutdown", "--subscribe"][..],
            ["--shutdown", "--subscribe"],
        ),
        (
            &["--analyze", "/nonexistent", "--stats"],
            ["--analyze", "--stats"],
        ),
        (&["--stats", "--shutdown"], ["--stats", "--shutdown"]),
        (&["--metrics", "--json", "{}"], ["--metrics", "--json"]),
        (&["--query", "ab", "--query", "cd"], ["--query", "--query"]),
        (&["--tool", "ghidra", "--stats"], ["--tool", "--stats"]),
        (
            &["--subscribe", "--pipeline", "FDE"],
            ["--pipeline", "--subscribe"],
        ),
        (
            &[
                "--analyze",
                "/nonexistent",
                "--pipeline",
                "FDE",
                "--tool",
                "ghidra",
            ],
            ["--pipeline", "--tool"],
        ),
    ] {
        let mut full = vec!["client", "--socket", socket];
        full.extend_from_slice(args);
        let stderr = fails_with_status_2(&full);
        for flag in named {
            assert!(stderr.contains(flag), "{args:?}: {stderr}");
        }
        assert!(!stderr.contains("cannot connect"), "{args:?}: {stderr}");
    }
    let stderr = fails_with_status_2(&["client", "--socket", socket, "--tool", "ghidra"]);
    assert!(stderr.contains("--tool"), "{stderr}");
    assert!(!stderr.contains("cannot connect"), "{stderr}");
    // One request with its pipeline gets as far as the connect.
    let stderr = fails_with_status_2(&[
        "client", "--socket", socket, "--query", "ab", "--tool", "angr",
    ]);
    assert!(stderr.contains("cannot connect"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The shipped binary over stdio with a store: one request line in,
/// then `shutdown`; returns the reply lines once the process exited.
fn stdio_session(store: &Path, fault_plan: &str, request: &Request) -> Vec<Json> {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fetch-serve"))
        .arg("daemon")
        .arg("--stdio")
        .arg("--store")
        .arg(store)
        .args(["--fault-plan", fault_plan, "--log-level", "off"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fetch-serve");
    let input = format!("{}\n{}\n", request.to_line(), Request::Shutdown.to_line());
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let mut stdout = child.stdout.take().unwrap();
    let mut spawned = Spawned(child);
    let mut out = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut out).unwrap();
    assert!(spawned.wait_exit().success(), "{out}");
    out.lines()
        .map(|line| Json::parse(line).unwrap_or_else(|e| panic!("bad reply {line:?}: {e}")))
        .collect()
}

/// A cold analyze answered just before `shutdown` is on disk when the
/// shipped daemon exits, although its save lands after the reply (here
/// stalled on purpose): shutting down drains the pending saves, and the
/// restart answers from the store, byte-identical.
#[test]
fn shutdown_right_after_a_cold_answer_keeps_its_save() {
    let dir = scratch_dir("drain");
    let store = dir.join("store");
    let case = synthesize(&SynthConfig::small(902));
    let analyze = Request::Analyze {
        input: AnalyzeInput::Bytes(write_elf(&case.binary)),
        pipeline: Pipeline::fetch(),
    };
    let first = stdio_session(&store, "store.save=stall:300#1", &analyze);
    assert_eq!(first.len(), 2, "one answer and the shutdown reply");
    expect_source(&first[0], "cold");
    assert_eq!(first[1].get("shutdown").and_then(Json::as_bool), Some(true));

    let second = stdio_session(&store, "", &analyze);
    expect_source(&second[0], "store");
    assert_eq!(
        result_text(&second[0]),
        result_text(&first[0]),
        "the restart's answer must be byte-identical to the cold one"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
