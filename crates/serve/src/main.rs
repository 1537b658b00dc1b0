//! The `fetch-serve` binary: daemon and client modes over the
//! `fetch_serve` library.
//!
//! ```text
//! fetch-serve daemon (--socket PATH [--jobs N] [--queue-depth N]
//!                              [--io-timeout-ms M] | --stdio)
//!                    [--store DIR] [--cache-capacity N] [--cache-bytes B]
//!                    [--store-max-entries N] [--store-max-bytes B]
//!                    [--store-max-age-secs S] [--fault-plan SPEC]
//!                    [--log-level LEVEL]
//! fetch-serve client --socket PATH
//!                    (--analyze FILE [--pipeline SPEC | --tool NAME]
//!                     | --query FP [--pipeline SPEC] | --stats | --metrics
//!                     | --subscribe | --shutdown | --json LINE)
//! ```
//!
//! The daemon serves one transport, a Unix socket or stdio, until a
//! `shutdown` request arrives. `--jobs`, `--queue-depth` and
//! `--io-timeout-ms` configure the socket transport, so `--stdio`
//! rejects them. The client sends one request line and prints the reply
//! line (`--subscribe` keeps printing telemetry events until the daemon
//! goes away) — small enough for shell scripting, no client library
//! needed. It takes exactly one request flag, and `--pipeline` or
//! `--tool` (not both) only beside `--analyze` or `--query`; any other
//! combination exits 2, naming the two flags, before it connects.
//!
//! `--fault-plan` arms deterministic fault injection — see
//! [`fetch_serve::fault`] for the spec grammar. A malformed plan fails
//! startup loudly: a chaos harness must never silently run an unfaulted
//! binary.
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
        "usage:\n  fetch-serve daemon (--socket PATH [--jobs N] [--queue-depth N]\n                     \
         [--io-timeout-ms M] | --stdio) [--store DIR]\n                     \
         [--cache-capacity N] [--cache-bytes B]\n                     \
         [--store-max-entries N] [--store-max-bytes B] [--store-max-age-secs S]\n                     \
         [--fault-plan SPEC] [--log-level LEVEL]\n  \
         fetch-serve client --socket PATH (--analyze FILE [--pipeline SPEC | --tool NAME]\n                     \
         | --query FP [--pipeline SPEC] | --stats | --metrics | --subscribe | --shutdown | --json LINE)"
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

/// Parses the value following the flag at `args[*i]` as a positive
/// number, failing with a message naming the flag otherwise.
fn positive<T: std::str::FromStr + PartialOrd + Default>(
    args: &[String],
    i: &mut usize,
    what: &str,
) -> T {
    let flag = &args[*i];
    flag_value(args, i, flag)
        .parse()
        .ok()
        .filter(|n| *n > T::default())
        .unwrap_or_else(|| fail(format_args!("{flag} takes a positive {what}")))
}

fn daemon(args: &[String]) {
    let mut server = ServerOptions::default();
    let mut config = ServeConfig::default();
    let mut stdio = false;
    // The last socket-transport flag given, which `--stdio` rejects.
    let mut socket_flag = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if matches!(
            flag,
            "--socket" | "--jobs" | "--queue-depth" | "--io-timeout-ms"
        ) {
            socket_flag = Some(flag);
        }
        match flag {
            "--socket" => server.socket = PathBuf::from(flag_value(args, &mut i, "--socket")),
            "--store" => {
                config.store_dir = Some(PathBuf::from(flag_value(args, &mut i, "--store")))
            }
            "--stdio" => stdio = true,
            // Every numeric flag rejects zero: a zero bound would evict
            // every cache or store entry, and a zero deadline would fail
            // every read.
            "--cache-capacity" => {
                config.cache_capacity.max_entries = Some(positive(args, &mut i, "entry count"))
            }
            "--cache-bytes" => {
                config.cache_capacity.max_bytes = Some(positive(args, &mut i, "byte count"))
            }
            "--jobs" => server.jobs = Some(positive(args, &mut i, "worker count")),
            "--queue-depth" => server.queue_depth = Some(positive(args, &mut i, "bound")),
            "--io-timeout-ms" => {
                let ms = positive(args, &mut i, "deadline in milliseconds");
                server.io_timeout = Some(std::time::Duration::from_millis(ms));
            }
            "--store-max-entries" => {
                config.store_gc.max_entries = Some(positive(args, &mut i, "entry count"))
            }
            "--store-max-bytes" => {
                config.store_gc.max_bytes = Some(positive(args, &mut i, "byte count"))
            }
            "--store-max-age-secs" => {
                let s = positive(args, &mut i, "age in seconds");
                config.store_gc.max_age = Some(std::time::Duration::from_secs(s));
            }
            "--fault-plan" => {
                let spec = flag_value(args, &mut i, "--fault-plan");
                config.faults = std::sync::Arc::new(
                    FaultPlan::parse(spec).unwrap_or_else(|e| fail(format_args!("{e}"))),
                );
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
    if !stdio && server.socket.as_os_str().is_empty() {
        fail("daemon needs --socket PATH or --stdio");
    }
    if let (true, Some(flag)) = (stdio, socket_flag) {
        fail(format_args!(
            "{flag} configures the socket transport; --stdio does not take it"
        ));
    }
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
    match serve(&service, &server) {
        Ok(summary) => logmsg!(
            LogLevel::Info,
            0,
            "fetch-serve: shut down after {} connections ({} shed)",
            summary.connections,
            summary.shed
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
    // The request and pipeline flags given, in order: the client sends
    // one request, and only `--analyze` and `--query` take a pipeline.
    let mut requests = Vec::new();
    let mut pipelines = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--analyze" | "--query" | "--stats" | "--metrics" | "--subscribe" | "--shutdown"
            | "--json" => requests.push(flag),
            "--pipeline" | "--tool" => pipelines.push(flag),
            _ => {}
        }
        match flag {
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
    if let [first, second, ..] = requests[..] {
        fail(format_args!(
            "{first} and {second} are two requests; the client sends one"
        ));
    }
    if let [first, second, ..] = pipelines[..] {
        fail(format_args!(
            "{first} and {second} both choose the pipeline; give one"
        ));
    }
    match (pipelines.first(), requests.first()) {
        (Some(_), Some(&"--analyze" | &"--query")) | (None, _) => {}
        (Some(flag), Some(request)) => fail(format_args!(
            "{flag} applies to --analyze or --query, not {request}"
        )),
        (Some(flag), None) => fail(format_args!("{flag} needs --analyze or --query")),
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
