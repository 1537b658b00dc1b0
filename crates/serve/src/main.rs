//! The `fetch-serve` binary: daemon and client modes over the
//! `fetch_serve` library.
//!
//! ```text
//! fetch-serve daemon [--socket PATH] [--queue DIR] [--stdio]
//!                    [--store DIR] [--cache-capacity N] [--cache-bytes B]
//!                    [--poll-ms M] [--jobs N] [--queue-depth N]
//!                    [--io-timeout-ms M]
//!                    [--store-max-entries N] [--store-max-bytes B]
//!                    [--store-max-age-secs S] [--fault-plan SPEC]
//! fetch-serve client --socket PATH
//!                    (--analyze FILE [--pipeline SPEC | --tool NAME]
//!                     | --query FP [--pipeline SPEC]
//!                     | --stats | --subscribe | --shutdown | --json LINE)
//! ```
//!
//! The daemon serves until a `shutdown` request arrives. The client
//! sends one request line and prints the reply line (`--subscribe`
//! keeps printing telemetry events until the daemon goes away) — small
//! enough for shell scripting, no client library needed.
//!
//! `--poll-ms` sets how often the `--queue` directory is polled
//! (default 20 ms). It is the queue's interval only: the socket
//! transport blocks in `accept()` and never polls.
//!
//! `--fault-plan` (or the `FETCH_FAULT_PLAN` env var; the flag wins)
//! arms deterministic fault injection — see [`fetch_serve::fault`] for
//! the spec grammar. A malformed plan fails startup loudly: a chaos
//! harness must never silently run an unfaulted binary.
//!
//! `--log-level LEVEL` (off, error, warn, info, debug, trace; default
//! `info`) sets the daemon's structured stderr log level — lines are
//! `level seconds req_id message`, with `-` for messages outside any
//! request.

use fetch_core::{Pipeline, Tool};
use fetch_obs::{logmsg, LogLevel};
use fetch_serve::fault::FaultPlan;
use fetch_serve::protocol::{parse_hex_u64, AnalyzeInput, Request};
use fetch_serve::server::{serve, serve_io, ServerOptions};
use fetch_serve::service::{AnalysisService, ServeConfig};
use std::io::Write;
use std::path::PathBuf;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  fetch-serve daemon [--socket PATH] [--queue DIR] [--stdio] \
         [--store DIR]\n                     [--cache-capacity N] [--cache-bytes B] [--poll-ms M]\n                     \
         [--jobs N] [--queue-depth N] [--io-timeout-ms M]\n                     \
         [--store-max-entries N] [--store-max-bytes B] [--store-max-age-secs S]\n                     \
         [--fault-plan SPEC] [--log-level LEVEL]\n  \
         fetch-serve client --socket PATH (--analyze FILE [--pipeline SPEC | --tool NAME]\n                     \
         | --query FP [--pipeline SPEC] | --stats | --metrics | --subscribe | --shutdown | --json LINE)\n\n  \
         --poll-ms M: poll interval of the --queue directory (default 20); the socket never polls"
    );
    exit(2)
}

fn fail(message: impl std::fmt::Display) -> ! {
    eprintln!("error: {message}");
    exit(2)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("daemon") => daemon(&args[2..]),
        Some("client") => client(&args[2..]),
        _ => usage(),
    }
}

/// Pulls the value following a flag out of an argument list.
fn flag_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => fail(format_args!("{flag} takes a value")),
    }
}

fn daemon(args: &[String]) {
    let mut opts = ServerOptions::default();
    let mut config = ServeConfig::default();
    let mut stdio = false;
    let mut fault_plan: Option<FaultPlan> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => opts.socket = Some(PathBuf::from(flag_value(args, &mut i, "--socket"))),
            "--queue" => opts.queue = Some(PathBuf::from(flag_value(args, &mut i, "--queue"))),
            "--store" => {
                config.store_dir = Some(PathBuf::from(flag_value(args, &mut i, "--store")))
            }
            "--stdio" => stdio = true,
            "--cache-capacity" => {
                // Zero would evict every entry on arrival — reject it
                // (matching the bench parser) instead of silently
                // serving everything cold.
                let n: usize = flag_value(args, &mut i, "--cache-capacity")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--cache-capacity takes a positive entry count"));
                config.cache_capacity.max_entries = Some(n);
            }
            "--cache-bytes" => {
                let n: usize = flag_value(args, &mut i, "--cache-bytes")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--cache-bytes takes a positive byte count"));
                config.cache_capacity.max_bytes = Some(n);
            }
            "--poll-ms" => {
                let ms: u64 = flag_value(args, &mut i, "--poll-ms")
                    .parse()
                    .unwrap_or_else(|_| {
                        fail("--poll-ms takes the queue poll interval in milliseconds")
                    });
                opts.poll = Some(std::time::Duration::from_millis(ms));
            }
            "--jobs" => {
                let n: usize = flag_value(args, &mut i, "--jobs")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--jobs takes a positive worker count"));
                opts.jobs = Some(n);
            }
            "--queue-depth" => {
                let n: usize = flag_value(args, &mut i, "--queue-depth")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--queue-depth takes a positive bound"));
                opts.queue_depth = Some(n);
            }
            "--io-timeout-ms" => {
                let ms: u64 = flag_value(args, &mut i, "--io-timeout-ms")
                    .parse()
                    .ok()
                    .filter(|ms| *ms > 0)
                    .unwrap_or_else(|| fail("--io-timeout-ms takes positive milliseconds"));
                opts.io_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--store-max-entries" => {
                let n: usize = flag_value(args, &mut i, "--store-max-entries")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--store-max-entries takes a positive count"));
                config.store_gc.max_entries = Some(n);
            }
            "--store-max-bytes" => {
                let n: u64 = flag_value(args, &mut i, "--store-max-bytes")
                    .parse()
                    .ok()
                    .filter(|n| *n > 0)
                    .unwrap_or_else(|| fail("--store-max-bytes takes a positive byte count"));
                config.store_gc.max_bytes = Some(n);
            }
            "--store-max-age-secs" => {
                let s: u64 = flag_value(args, &mut i, "--store-max-age-secs")
                    .parse()
                    .ok()
                    .filter(|s| *s > 0)
                    .unwrap_or_else(|| fail("--store-max-age-secs takes positive seconds"));
                config.store_gc.max_age = Some(std::time::Duration::from_secs(s));
            }
            "--fault-plan" => {
                let spec = flag_value(args, &mut i, "--fault-plan");
                fault_plan =
                    Some(FaultPlan::parse(spec).unwrap_or_else(|e| fail(format_args!("{e}"))));
            }
            "--log-level" => {
                let level: LogLevel = flag_value(args, &mut i, "--log-level")
                    .parse()
                    .unwrap_or_else(|e| fail(format_args!("{e}")));
                fetch_obs::set_log_level(level);
            }
            other => fail(format_args!("unknown daemon flag {other:?}")),
        }
        i += 1;
    }
    // The flag wins over FETCH_FAULT_PLAN; a malformed env spec fails
    // startup loudly either way.
    config.faults = std::sync::Arc::new(match fault_plan {
        Some(plan) => plan,
        None => FaultPlan::from_env().unwrap_or_else(|e| fail(format_args!("{e}"))),
    });
    let service = match AnalysisService::new(&config) {
        Ok(service) => service,
        Err(e) => fail(format_args!("cannot start service: {e}")),
    };
    if stdio {
        let stdin = std::io::stdin();
        let mut out = StdoutSink;
        if let Err(e) = serve_io(&service, stdin.lock(), &mut out) {
            fail(format_args!("stdio transport failed: {e}"));
        }
        return;
    }
    match serve(&service, &opts) {
        Ok(summary) => logmsg!(
            LogLevel::Info,
            0,
            "fetch-serve: shut down after {} connections ({} shed), {} queue files ({} quarantined)",
            summary.connections,
            summary.shed,
            summary.queue_files,
            summary.queue_quarantined
        ),
        Err(e) => fail(format_args!("serve loop failed: {e}")),
    }
}

/// A cloneable stdout writer (the stdio transport hands clones to the
/// telemetry hub).
#[derive(Clone)]
struct StdoutSink;

impl Write for StdoutSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        std::io::stdout().write(buf)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        std::io::stdout().flush()
    }
}

fn client(args: &[String]) {
    let mut socket: Option<PathBuf> = None;
    let mut request: Option<String> = None;
    let mut analyze: Option<PathBuf> = None;
    let mut query: Option<u64> = None;
    let mut pipeline: Option<Pipeline> = None;
    let mut subscribe = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--socket" => socket = Some(PathBuf::from(flag_value(args, &mut i, "--socket"))),
            "--analyze" => analyze = Some(PathBuf::from(flag_value(args, &mut i, "--analyze"))),
            "--query" => {
                let fp = flag_value(args, &mut i, "--query");
                query = Some(
                    parse_hex_u64(fp).unwrap_or_else(|| fail("--query takes a hex fingerprint")),
                );
            }
            "--pipeline" => {
                let spec = flag_value(args, &mut i, "--pipeline");
                pipeline =
                    Some(Pipeline::parse(spec).unwrap_or_else(|e| fail(format_args!("{e}"))));
            }
            "--tool" => {
                let name = flag_value(args, &mut i, "--tool");
                let tool = Tool::from_name(name)
                    .unwrap_or_else(|| fail(format_args!("unknown tool {name:?}")));
                pipeline = Some(Pipeline::for_tool(tool));
            }
            "--stats" => request = Some(Request::Stats.to_line()),
            "--metrics" => request = Some(Request::Metrics.to_line()),
            "--shutdown" => request = Some(Request::Shutdown.to_line()),
            "--subscribe" => subscribe = true,
            "--json" => request = Some(flag_value(args, &mut i, "--json").to_string()),
            other => fail(format_args!("unknown client flag {other:?}")),
        }
        i += 1;
    }
    let line = if subscribe {
        Request::Subscribe.to_line()
    } else if let Some(path) = analyze {
        Request::Analyze {
            input: AnalyzeInput::Path(path),
            pipeline: pipeline.unwrap_or_else(Pipeline::fetch),
        }
        .to_line()
    } else if let Some(fingerprint) = query {
        Request::Query {
            fingerprint,
            pipeline_id: pipeline.unwrap_or_else(Pipeline::fetch).id(),
        }
        .to_line()
    } else {
        match request {
            Some(line) => line,
            None => usage(),
        }
    };
    let socket = socket.unwrap_or_else(|| fail("client needs --socket PATH"));
    run_client(&socket, &line, subscribe);
}

#[cfg(unix)]
fn run_client(socket: &std::path::Path, line: &str, keep_reading: bool) {
    use std::io::{BufRead, BufReader};
    let stream = std::os::unix::net::UnixStream::connect(socket)
        .unwrap_or_else(|e| fail(format_args!("cannot connect to {}: {e}", socket.display())));
    let mut writer = stream
        .try_clone()
        .unwrap_or_else(|e| fail(format_args!("{e}")));
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .unwrap_or_else(|e| fail(format_args!("send failed: {e}")));
    let reader = BufReader::new(stream);
    for reply in reader.lines() {
        match reply {
            Ok(reply) => println!("{reply}"),
            Err(e) => fail(format_args!("read failed: {e}")),
        }
        if !keep_reading {
            break;
        }
    }
}

#[cfg(not(unix))]
fn run_client(_socket: &std::path::Path, _line: &str, _keep_reading: bool) {
    fail("the client requires Unix-domain sockets on this platform")
}
