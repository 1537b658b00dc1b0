//! Transports of the daemon: a Unix-domain socket acceptor feeding a
//! bounded worker pool, a directory-queue intake, and a stdio mode —
//! all driving one shared [`AnalysisService`].
//!
//! * **Socket** (`--socket <path>`): the thread that calls [`serve`]
//!   blocks in `accept()` — a connection is handed on the moment it
//!   arrives, with no idle poll in front of it. Clients exchange one
//!   JSON line per request/reply. Accepted connections land on a
//!   bounded pending queue ([`ServerOptions::queue_depth`]) drained by
//!   [`ServerOptions::jobs`] worker threads; when the queue is full the
//!   daemon *sheds* the connection with a structured `busy` error
//!   instead of queueing unbounded work. Every connection carries
//!   read/write deadlines ([`ServerOptions::io_timeout`]), so a silent
//!   or stalled client can never hold a worker forever. A `subscribe`
//!   request hands the connection's write half to the telemetry hub; it
//!   then receives event lines until it disconnects.
//! * **Directory queue** (`--queue <dir>`): a directory cannot be
//!   waited on without OS-specific APIs, so the queue runs on its own
//!   thread that polls every [`ServerOptions::poll`]. Files dropped
//!   into `<dir>/in/*.json` (one request line each) are handled in
//!   filename order on that one thread (keeping queue semantics
//!   deterministic under any worker count); the reply is written
//!   atomically to `<dir>/out/<same name>` and the input file removed
//!   — input removal happens *after* the reply is durably in `out/`, so
//!   a crash between the two re-processes the request instead of losing
//!   it. Producers should write-then-rename into `in/`; a file that
//!   does not parse gets one grace poll (an in-place writer is not eaten
//!   mid-write), and is then *quarantined*: moved to
//!   `<dir>/failed/<same name>` with a structured error reply in `out/`
//!   — never deleted silently, never retried forever.
//! * **Shutdown**: the transport that handles `shutdown` — a socket
//!   worker or the queue thread — writes its reply, then opens one
//!   connection to the daemon's own socket to wake the blocked acceptor.
//!   The acceptor drops every connection it accepts once shutdown is
//!   requested, the queue thread stops at its next poll, the workers
//!   drain what is pending, and [`serve`] returns.
//! * **Stdio** (`--stdio`): one request line per stdin line, one reply
//!   line per stdout line, until EOF or `shutdown` — the
//!   inetd/subprocess shape, and the fallback transport everywhere.
//!
//! The socket and stdio transports run one request-line loop; each
//! transport supplies only its deadlines and what a `subscribe` does
//! with the stream. Every transport, the queue included, answers a line
//! through one parse → handle → render step. Request lines are read
//! through a hard cap ([`MAX_LINE_BYTES`]): an over-long line is
//! answered with a `too_large` error and the connection dropped (the
//! remainder of the line cannot be resynchronized), so no client can
//! balloon daemon memory.
//!
//! Concurrency never changes answers: workers share the service's
//! coalescing cache, so N concurrent requests for one uncached
//! fingerprint still perform exactly one cold compute, and every reply
//! body is byte-identical to the serial answer. Scale-out beyond one
//! process happens by running more daemons over one shared store
//! directory — entries are written atomically and content-addressed, so
//! writers never conflict.

use crate::fault::FaultPlan;
use crate::protocol::{parse_request, ErrorCode, Reply, Request, RequestError, MAX_LINE_BYTES};
use crate::service::AnalysisService;
use fetch_obs::{logmsg, LogLevel};
use std::fs;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
#[cfg(unix)]
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Default worker-pool size for the socket transport.
pub const DEFAULT_JOBS: usize = 4;
/// Default bound of the pending-connection queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;
/// Default per-connection read/write deadline.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Transport configuration of [`serve`].
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Unix-domain socket path to listen on.
    pub socket: Option<PathBuf>,
    /// Directory-queue root (`in/`, `out/` and `failed/` are created
    /// beneath it).
    pub queue: Option<PathBuf>,
    /// Poll interval of the directory queue (default 20 ms). Only the
    /// queue polls: the socket acceptor blocks until a client connects.
    pub poll: Option<Duration>,
    /// Socket worker threads (default [`DEFAULT_JOBS`], min 1).
    pub jobs: Option<usize>,
    /// Pending-connection bound before shedding (default
    /// [`DEFAULT_QUEUE_DEPTH`], min 1).
    pub queue_depth: Option<usize>,
    /// Per-connection read/write deadline (default
    /// [`DEFAULT_IO_TIMEOUT`]). A connection idle past the deadline is
    /// dropped; a write stalled past it errors out.
    pub io_timeout: Option<Duration>,
}

/// What a finished [`serve`] loop handled.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeSummary {
    /// Socket connections accepted and handed to workers.
    pub connections: u64,
    /// Connections shed with a `busy` error (pending queue full).
    pub shed: u64,
    /// Queue files processed (replies written).
    pub queue_files: u64,
    /// Queue files quarantined to `failed/`.
    pub queue_quarantined: u64,
}

/// The bounded hand-off between the accept loop and the worker pool.
#[cfg(unix)]
struct ConnQueue {
    /// Pending connections with their enqueue instants — popped age
    /// feeds the `fetch_queue_wait_us` histogram.
    state: std::sync::Mutex<(
        std::collections::VecDeque<(Instant, std::os::unix::net::UnixStream)>,
        bool,
    )>,
    ready: std::sync::Condvar,
    depth: usize,
}

#[cfg(unix)]
impl ConnQueue {
    fn new(depth: usize) -> ConnQueue {
        ConnQueue {
            state: std::sync::Mutex::new((std::collections::VecDeque::new(), false)),
            ready: std::sync::Condvar::new(),
            depth,
        }
    }

    /// Enqueues a connection, or returns it when the queue is full (the
    /// caller sheds it with a `busy` error).
    fn try_push(
        &self,
        stream: std::os::unix::net::UnixStream,
    ) -> Result<(), std::os::unix::net::UnixStream> {
        let mut state = self.state.lock().expect("conn queue lock");
        if state.0.len() >= self.depth {
            return Err(stream);
        }
        state.0.push_back((Instant::now(), stream));
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next connection (with its enqueue instant);
    /// `None` once closed and drained.
    fn pop(&self) -> Option<(Instant, std::os::unix::net::UnixStream)> {
        let mut state = self.state.lock().expect("conn queue lock");
        loop {
            if let Some(entry) = state.0.pop_front() {
                return Some(entry);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("conn queue lock");
        }
    }

    /// Closes the queue: workers drain what is pending, then exit.
    fn close(&self) {
        self.state.lock().expect("conn queue lock").1 = true;
        self.ready.notify_all();
    }
}

/// Runs the daemon loop over the configured transports until a
/// `shutdown` request arrives. At least one of `socket`/`queue` must be
/// configured (use [`serve_io`] for the stdio shape). Takes `&self` on
/// the service: the worker pool shares it.
pub fn serve(service: &AnalysisService, opts: &ServerOptions) -> io::Result<ServeSummary> {
    if opts.socket.is_none() && opts.queue.is_none() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "serve needs a socket path or a queue directory",
        ));
    }
    let poll = opts.poll.unwrap_or(Duration::from_millis(20));
    let io_timeout = opts.io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT);

    #[cfg(unix)]
    let listener = match &opts.socket {
        Some(path) => {
            // A stale socket file from a dead daemon would fail bind.
            let _ = fs::remove_file(path);
            Some(std::os::unix::net::UnixListener::bind(path)?)
        }
        None => None,
    };
    #[cfg(not(unix))]
    if opts.socket.is_some() {
        return Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "socket transport requires Unix-domain sockets; use --queue or --stdio",
        ));
    }

    if let Some(queue) = &opts.queue {
        fs::create_dir_all(queue.join("in"))?;
        fs::create_dir_all(queue.join("out"))?;
        fs::create_dir_all(queue.join("failed"))?;
    }

    let mut summary = ServeSummary::default();

    #[cfg(unix)]
    {
        let jobs = opts.jobs.unwrap_or(DEFAULT_JOBS).max(1);
        let depth = opts.queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH).max(1);
        let pending = ConnQueue::new(depth);
        let stop = StopSignal {
            socket: opts.socket.as_deref(),
            raised: AtomicBool::new(false),
        };
        std::thread::scope(|scope| -> io::Result<()> {
            let (pending, stop) = (&pending, &stop);
            let workers: Vec<_> = (0..jobs)
                .map(|_| {
                    scope.spawn(move || {
                        while let Some((queued_at, stream)) = pending.pop() {
                            service
                                .obs()
                                .queue_wait_us
                                .record(queued_at.elapsed().as_micros() as u64);
                            if let Err(e) = handle_connection(service, stream, io_timeout, stop) {
                                logmsg!(LogLevel::Warn, 0, "fetch-serve: connection error: {e}");
                            }
                        }
                    })
                })
                .collect();
            let queue_thread = opts.queue.as_deref().map(|queue| {
                scope.spawn(move || {
                    let counts = run_queue(service, queue, poll, || stop.raised());
                    // Shutdown or an error ended the queue: the acceptor
                    // must stop too.
                    stop.raise();
                    counts
                })
            });
            let accepted = match &listener {
                Some(listener) => {
                    let out =
                        accept_loop(service, listener, pending, io_timeout, stop, &mut summary);
                    // The acceptor is done (shutdown or an accept error):
                    // the queue thread stops at its next poll, and nobody
                    // needs to wake the acceptor any more.
                    stop.raised.store(true, Ordering::SeqCst);
                    out
                }
                None => Ok(()),
            };
            let queued = queue_thread.map(|t| t.join().expect("serve queue thread panicked"));
            // Drain the pool either way.
            pending.close();
            for worker in workers {
                worker.join().expect("serve worker panicked");
            }
            accepted?;
            if let Some(counts) = queued {
                (summary.queue_files, summary.queue_quarantined) = counts?;
            }
            Ok(())
        })?;
    }
    #[cfg(not(unix))]
    if let Some(queue) = &opts.queue {
        (summary.queue_files, summary.queue_quarantined) =
            run_queue(service, queue, poll, || false)?;
    }

    #[cfg(unix)]
    if let Some(path) = &opts.socket {
        let _ = fs::remove_file(path);
    }
    Ok(summary)
}

/// How the transport threads of one [`serve`] call tell each other to
/// stop. The first transport to stop raises it; a raise from anywhere
/// but the acceptor also opens one connection to the socket, because
/// the acceptor is blocked in `accept()` and only looks at the signal
/// when a connection arrives. The listener outlives every thread that
/// can raise, so the wake-up connect only fails when the socket file
/// was removed under the daemon.
#[cfg(unix)]
struct StopSignal<'a> {
    /// The listening socket to wake, when the daemon has one.
    socket: Option<&'a Path>,
    raised: AtomicBool,
}

#[cfg(unix)]
impl StopSignal<'_> {
    fn raised(&self) -> bool {
        self.raised.load(Ordering::SeqCst)
    }

    /// Raises the signal; the first raise wakes the acceptor.
    fn raise(&self) {
        if self.raised.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(path) = self.socket {
            if let Err(e) = std::os::unix::net::UnixStream::connect(path) {
                logmsg!(
                    LogLevel::Warn,
                    0,
                    "fetch-serve: shutdown wake-up connect to {} failed: {e}",
                    path.display()
                );
            }
        }
    }
}

/// The socket acceptor: blocks in `accept()` and hands each connection
/// to the worker pool, shedding it with `busy` when the pending queue is
/// full. Once shutdown is requested or `stop` is raised, the connection
/// that woke it (the wake-up connect, or a late client) is dropped and
/// the loop ends.
#[cfg(unix)]
fn accept_loop(
    service: &AnalysisService,
    listener: &std::os::unix::net::UnixListener,
    pending: &ConnQueue,
    io_timeout: Duration,
    stop: &StopSignal,
    summary: &mut ServeSummary,
) -> io::Result<()> {
    loop {
        let (stream, _addr) = listener.accept()?;
        if service.shutdown_requested() || stop.raised() {
            return Ok(());
        }
        match pending.try_push(stream) {
            Ok(()) => summary.connections += 1,
            Err(stream) => {
                summary.shed += 1;
                let req_id = service.next_req_id();
                service.note_shed_busy();
                shed_connection(stream, io_timeout, req_id);
            }
        }
    }
}

/// The directory-queue loop: drains `<queue>/in` in filename order until
/// shutdown or `stopped()`, sleeping `poll` after a pass that found
/// nothing to do. Returns the `(handled, quarantined)` totals.
fn run_queue(
    service: &AnalysisService,
    queue: &Path,
    poll: Duration,
    stopped: impl Fn() -> bool,
) -> io::Result<(u64, u64)> {
    // Unparseable queue files seen once, awaiting their grace poll.
    let mut deferred = std::collections::HashSet::new();
    let (mut handled, mut quarantined) = (0, 0);
    while !service.shutdown_requested() && !stopped() {
        let (h, q) = poll_queue(service, queue, &mut deferred)?;
        handled += h;
        quarantined += q;
        if h + q == 0 && !service.shutdown_requested() {
            std::thread::sleep(poll);
        }
    }
    Ok((handled, quarantined))
}

/// Answers a shed connection with a structured `busy` error, best
/// effort under a short deadline — load shedding must never block the
/// accept loop.
#[cfg(unix)]
fn shed_connection(stream: std::os::unix::net::UnixStream, io_timeout: Duration, req_id: u64) {
    let _ = stream.set_write_timeout(Some(io_timeout.min(Duration::from_millis(250))));
    let mut stream = stream;
    let reply = Reply::error(
        ErrorCode::Busy,
        "daemon at capacity (pending-connection queue full); retry later",
    );
    let _ = write_line(&mut stream, reply.to_line_with(req_id));
}

/// Reads one request line through the [`MAX_LINE_BYTES`] cap.
///
/// `Ok(Some(line))` is a complete in-cap line; `Ok(None)` is EOF;
/// `Err` with kind [`io::ErrorKind::InvalidData`] marks an over-cap
/// line (the caller replies `too_large` and drops the connection — the
/// stream cannot be resynchronized mid-line).
fn read_capped_line(reader: &mut impl BufRead, line: &mut String) -> io::Result<Option<()>> {
    line.clear();
    let mut limited = reader.take((MAX_LINE_BYTES + 1) as u64);
    let n = limited.read_line(line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        ));
    }
    Ok(Some(()))
}

/// Handles one socket connection through [`serve_lines`] under
/// read/write deadlines; a `subscribe` parks the write half on the
/// telemetry hub and stops reading. Once shutdown is requested, `stop`
/// is raised after the reply — even when the write failed, or the
/// daemon never exits.
#[cfg(unix)]
fn handle_connection(
    service: &AnalysisService,
    stream: std::os::unix::net::UnixStream,
    io_timeout: Duration,
    stop: &StopSignal,
) -> io::Result<()> {
    // A silent or stalled client is disconnected, not waited on.
    stream.set_read_timeout(Some(io_timeout))?;
    stream.set_write_timeout(Some(io_timeout))?;
    let mut writer = stream.try_clone()?;
    let served = serve_lines(service, BufReader::new(stream), &mut writer, |writer| {
        // The write timeout stays armed on the parked half: a
        // subscriber that stops reading makes broadcast() error out and
        // be dropped, instead of wedging the daemon on a full socket
        // buffer.
        service.telemetry().subscribe(Box::new(writer.try_clone()?));
        Ok(false)
    });
    if service.shutdown_requested() {
        stop.raise();
    }
    served.map(drop)
}

/// The request-line loop of the stream transports (socket and stdio):
/// fires `conn.read` and reads one line through the [`MAX_LINE_BYTES`]
/// cap, answers it through [`answer`] under a fresh request ID, and
/// writes the reply through [`write_checked`] — until EOF, a read
/// deadline, an over-cap line (answered `too_large`: the stream cannot be
/// resynchronized mid-line), or a handled `shutdown`. After answering a
/// `subscribe`, `subscribe(writer)` registers the telemetry sink and
/// says whether to keep reading. Returns the request lines handled.
fn serve_lines<W: Write>(
    service: &AnalysisService,
    mut reader: impl BufRead,
    writer: &mut W,
    mut subscribe: impl FnMut(&mut W) -> io::Result<bool>,
) -> io::Result<u64> {
    let mut handled = 0;
    let mut line = String::new();
    loop {
        if service.faults().fire(FaultPlan::CONN_READ).is_some() {
            // An injected transport failure: the connection is dropped
            // (the client observes EOF / connection reset — a visible
            // failure, never a wrong or truncated reply).
            return Err(FaultPlan::injected_error(FaultPlan::CONN_READ));
        }
        match read_capped_line(&mut reader, &mut line) {
            Ok(None) => return Ok(handled),
            Ok(Some(())) => {}
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                service.note_rejected_too_large();
                let reply = Reply::error(ErrorCode::TooLarge, e.to_string());
                let line = reply.to_line_with(service.next_req_id());
                return write_checked(service, writer, line).map(|()| handled);
            }
            // Timed out mid-silence: drop the connection.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Ok(handled)
            }
            Err(e) => return Err(e),
        }
        if line.trim().is_empty() {
            continue;
        }
        handled += 1;
        let parsed = parse_request(&line);
        let subscribing = matches!(parsed, Ok(Request::Subscribe));
        let reply = answer(service, service.next_req_id(), parsed);
        let written = write_checked(service, writer, reply);
        if service.shutdown_requested() {
            return written.map(|()| handled);
        }
        written?;
        if subscribing && !subscribe(writer)? {
            return Ok(handled);
        }
    }
}

/// Answers one parsed request line under `req_id` and renders the reply
/// line — the per-line step of every transport. A parse error becomes
/// its structured error reply (counted when it is `too_large`).
fn answer(service: &AnalysisService, req_id: u64, parsed: Result<Request, RequestError>) -> String {
    let reply = match parsed {
        Ok(request) => service.handle_with_id(req_id, request),
        Err(e) => {
            if e.code == ErrorCode::TooLarge {
                service.note_rejected_too_large();
            }
            Reply::from(e)
        }
    };
    reply.to_line_with(req_id)
}

/// [`write_line`] behind the `conn.write` fault site, timed into the
/// `fetch_reply_write_us` histogram.
fn write_checked(
    service: &AnalysisService,
    writer: &mut impl Write,
    line: String,
) -> io::Result<()> {
    if service.faults().fire(FaultPlan::CONN_WRITE).is_some() {
        return Err(FaultPlan::injected_error(FaultPlan::CONN_WRITE));
    }
    let t0 = Instant::now();
    let out = write_line(writer, line);
    service
        .obs()
        .reply_write_us
        .record(t0.elapsed().as_micros() as u64);
    out
}

/// Writes `line` and its newline in one `write_all`, so a reader is
/// woken once per reply, not once for the line and again for `\n`.
fn write_line(writer: &mut impl Write, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())?;
    writer.flush()
}

/// Processes every pending `<queue>/in/*.json` file in filename order;
/// returns `(handled, quarantined)` counts.
///
/// Producers should write-then-rename into `in/`; as a safety net for
/// producers that write in place, a file whose content does not parse
/// (or cannot be read) is left untouched for one extra poll
/// (`deferred`) before being *quarantined*: moved to
/// `<queue>/failed/<name>` with a structured error reply in `out/` —
/// a half-written file gets one poll interval to finish, and a
/// genuinely bad file is preserved for inspection instead of being
/// deleted silently or retried forever.
///
/// Reply files are written temp-then-rename, and the input is removed
/// only *after* the reply lands — a reply-write failure (injected or
/// real) leaves the input in place to be retried on the next poll.
fn poll_queue(
    service: &AnalysisService,
    queue: &Path,
    deferred: &mut std::collections::HashSet<PathBuf>,
) -> io::Result<(u64, u64)> {
    let in_dir = queue.join("in");
    let out_dir = queue.join("out");
    let failed_dir = queue.join("failed");
    let mut pending: Vec<PathBuf> = fs::read_dir(&in_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .collect();
    pending.sort();
    let mut handled = 0u64;
    let mut quarantined = 0u64;
    for path in pending {
        let parsed = match fs::read_to_string(&path) {
            Ok(text) => {
                let request_line = text.lines().find(|l| !l.trim().is_empty()).unwrap_or("");
                parse_request(request_line)
            }
            Err(e) => Err(RequestError::bad(format!("unreadable queue file: {e}"))),
        };
        let bad = parsed.is_err();
        if bad && deferred.insert(path.clone()) {
            // First sighting of a bad file: grace poll.
            continue;
        }
        deferred.remove(&path);
        let parsed = match parsed {
            Ok(Request::Subscribe) => Err(RequestError::bad(
                "subscribe requires a stream transport (socket or stdio)",
            )),
            parsed => parsed,
        };
        let name = path.file_name().expect("queue file has a name").to_owned();
        let req_id = service.next_req_id();
        let reply = answer(service, req_id, parsed);
        if let Err(e) = write_queue_reply(service, &out_dir, &name, reply) {
            // Leave the input: the next poll retries it (handling is
            // idempotent through the cache).
            logmsg!(
                LogLevel::Warn,
                req_id,
                "fetch-serve: failed to write reply for {}: {e}",
                name.to_string_lossy()
            );
            continue;
        }
        // A bad file is quarantined, never silently deleted.
        if !bad {
            fs::remove_file(&path)?;
            handled += 1;
        } else if let Err(e) = fs::rename(&path, failed_dir.join(&name)) {
            logmsg!(
                LogLevel::Warn,
                req_id,
                "fetch-serve: failed to quarantine {}: {e}",
                name.to_string_lossy()
            );
        } else {
            service.note_queue_quarantined();
            quarantined += 1;
        }
        if service.shutdown_requested() {
            break;
        }
    }
    Ok((handled, quarantined))
}

/// Atomically writes one reply file, behind the `queue.reply` fault
/// site (any injected kind fails the write before the rename, so a
/// consumer can never observe a torn reply).
fn write_queue_reply(
    service: &AnalysisService,
    out_dir: &Path,
    name: &std::ffi::OsStr,
    reply: String,
) -> io::Result<()> {
    if service.faults().fire(FaultPlan::QUEUE_REPLY).is_some() {
        return Err(FaultPlan::injected_error(FaultPlan::QUEUE_REPLY));
    }
    let t0 = Instant::now();
    let out_path = out_dir.join(name);
    let tmp = out_path.with_extension(format!("tmp{}", std::process::id()));
    fs::write(&tmp, reply + "\n")?;
    let out = fs::rename(&tmp, &out_path).inspect_err(|_| {
        let _ = fs::remove_file(&tmp);
    });
    service
        .obs()
        .reply_write_us
        .record(t0.elapsed().as_micros() as u64);
    out
}

/// The stdio transport: request lines on `input`, reply lines on
/// `output`, until EOF or `shutdown`, through the socket transport's
/// request-line loop — the same [`MAX_LINE_BYTES`] cap and the same
/// `conn.read`/`conn.write` fault sites (an injected failure ends the
/// session with an `Err`). `subscribe` turns the remainder of `output`
/// into the telemetry stream and keeps reading (replies and events
/// share stdout; subscribe last, or use a socket, to separate them).
/// Returns the request lines handled.
pub fn serve_io(
    service: &AnalysisService,
    input: impl BufRead,
    output: &mut (impl Write + Send + Clone + 'static),
) -> io::Result<u64> {
    serve_lines(service, input, output, |output| {
        service.telemetry().subscribe(Box::new(output.clone()));
        Ok(true)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServeConfig;
    use crate::StatsCounter;
    use fetch_binary::write_elf;
    use fetch_core::CacheCapacity;
    use fetch_synth::{synthesize, SynthConfig};

    fn scratch_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("fetch-serve-server-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A cloneable writer over a shared buffer, standing in for stdout.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);
    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }
    impl SharedBuf {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn stdio_transport_serves_and_shuts_down() {
        let case = synthesize(&SynthConfig::small(71));
        let elf_hex = crate::protocol::encode_hex(&write_elf(&case.binary));
        let script = format!(
            "{}\n\n{}\n{{\"cmd\":\"stats\"}}\nnot json\n{{\"cmd\":\"shutdown\"}}\n{}\n",
            format_args!("{{\"cmd\":\"analyze\",\"bytes_hex\":\"{elf_hex}\"}}"),
            format_args!("{{\"cmd\":\"analyze\",\"bytes_hex\":\"{elf_hex}\"}}"),
            "{\"cmd\":\"stats\"}",
        );
        let service = AnalysisService::new(&ServeConfig::default()).unwrap();
        let mut out = SharedBuf::default();
        let handled = serve_io(&service, script.as_bytes(), &mut out).unwrap();
        assert_eq!(handled, 5, "blank skipped, post-shutdown line unread");
        let text = out.text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"source\":\"cold\""));
        assert!(lines[1].contains("\"source\":\"cache\""));
        assert!(lines[2].contains("\"cache\":{"));
        assert!(lines[3].contains("\"ok\":false"));
        assert!(lines[3].contains("\"code\":\"bad_request\""));
        assert!(lines[4].contains("\"shutdown\":true"));
        assert!(service.shutdown_requested());
    }

    #[test]
    fn queue_grace_polls_then_quarantines_unparseable_files() {
        let dir = scratch_dir("grace");
        let queue = dir.join("q");
        fs::create_dir_all(queue.join("in")).unwrap();
        fs::create_dir_all(queue.join("out")).unwrap();
        fs::create_dir_all(queue.join("failed")).unwrap();
        let service = AnalysisService::new(&ServeConfig::default()).unwrap();
        let mut deferred = std::collections::HashSet::new();

        // A half-written file is deferred on first sight...
        let partial = queue.join("in/00-req.json");
        fs::write(&partial, "{\"cmd\":\"ana").unwrap();
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (0, 0));
        assert!(partial.exists(), "mid-write file must not be consumed");

        // ...and handled normally once the producer finishes it.
        fs::write(&partial, "{\"cmd\":\"stats\"}\n").unwrap();
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (1, 0));
        assert!(!partial.exists());
        assert!(fs::read_to_string(queue.join("out/00-req.json"))
            .unwrap()
            .contains("\"cache\":{"));

        // A file that stays garbage is quarantined on its second poll —
        // moved to failed/ with a structured error reply, not deleted,
        // not retried forever.
        let garbage = queue.join("in/01-bad.json");
        fs::write(&garbage, "not json at all").unwrap();
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (0, 0));
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (0, 1));
        assert!(!garbage.exists(), "quarantined out of in/");
        assert_eq!(
            fs::read_to_string(queue.join("failed/01-bad.json")).unwrap(),
            "not json at all",
            "the bad input is preserved for inspection"
        );
        let reply = fs::read_to_string(queue.join("out/01-bad.json")).unwrap();
        assert!(reply.contains("\"ok\":false"), "{reply}");
        assert!(reply.contains("\"code\":\"bad_request\""), "{reply}");
        assert!(deferred.is_empty(), "consumed files leave the grace set");
        assert_eq!(service.stats().counter(StatsCounter::QueueQuarantined), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queue_reply_fault_leaves_input_for_retry() {
        let dir = scratch_dir("qfault");
        let queue = dir.join("q");
        fs::create_dir_all(queue.join("in")).unwrap();
        fs::create_dir_all(queue.join("out")).unwrap();
        fs::create_dir_all(queue.join("failed")).unwrap();
        let service = AnalysisService::new(&ServeConfig {
            faults: std::sync::Arc::new(FaultPlan::parse("queue.reply=io#1").unwrap()),
            ..ServeConfig::default()
        })
        .unwrap();
        let mut deferred = std::collections::HashSet::new();

        let req = queue.join("in/00-stats.json");
        fs::write(&req, "{\"cmd\":\"stats\"}\n").unwrap();
        // Firing 1: the reply write fails; the input must survive.
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (0, 0));
        assert!(req.exists(), "input is kept when the reply write fails");
        assert!(!queue.join("out/00-stats.json").exists());
        // Plan spent: the retry succeeds and consumes the input.
        assert_eq!(poll_queue(&service, &queue, &mut deferred).unwrap(), (1, 0));
        assert!(!req.exists());
        assert!(queue.join("out/00-stats.json").exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queue_transport_round_trips_files() {
        let dir = scratch_dir("queue");
        let case = synthesize(&SynthConfig::small(72));
        let elf = write_elf(&case.binary);
        let elf_path = dir.join("sample.elf");
        fs::write(&elf_path, &elf).unwrap();

        let queue = dir.join("q");
        fs::create_dir_all(queue.join("in")).unwrap();
        fs::create_dir_all(queue.join("out")).unwrap();
        let analyze = format!(
            "{{\"cmd\":\"analyze\",\"path\":\"{}\"}}\n",
            elf_path.display()
        );
        fs::write(queue.join("in/00-a.json"), &analyze).unwrap();
        fs::write(queue.join("in/01-b.json"), &analyze).unwrap();
        fs::write(queue.join("in/02-sub.json"), "{\"cmd\":\"subscribe\"}\n").unwrap();
        fs::write(queue.join("in/03-stop.json"), "{\"cmd\":\"shutdown\"}\n").unwrap();
        fs::write(queue.join("in/ignored.txt"), "not a queue file").unwrap();

        let service = AnalysisService::new(&ServeConfig {
            store_dir: Some(dir.join("store")),
            cache_capacity: CacheCapacity::entries(8),
            ..ServeConfig::default()
        })
        .unwrap();
        let summary = serve(
            &service,
            &ServerOptions {
                queue: Some(queue.clone()),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.queue_files, 4);
        assert_eq!(summary.queue_quarantined, 0);

        let read = |name: &str| fs::read_to_string(queue.join("out").join(name)).unwrap();
        assert!(read("00-a.json").contains("\"source\":\"cold\""));
        assert!(read("01-b.json").contains("\"source\":\"cache\""));
        assert!(read("02-sub.json").contains("stream transport"));
        assert!(read("03-stop.json").contains("\"shutdown\":true"));
        assert!(
            !queue.join("in/00-a.json").exists(),
            "handled inputs are consumed"
        );
        assert!(queue.join("in/ignored.txt").exists(), "non-.json untouched");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn queue_transport_handles_reanalyze() {
        use crate::protocol::{encode_hex, hex_u64};
        use crate::service::ServeConfig;
        use fetch_synth::{patch_function, PatchKind};

        let dir = scratch_dir("queue-delta");
        let case = synthesize(&SynthConfig::small(11));
        let patched = patch_function(&case, 7, PatchKind::Neutral).expect("a neutral patch site");

        let service = AnalysisService::new(&ServeConfig::default()).unwrap();
        let prev_fp = match service.handle(crate::protocol::Request::Analyze {
            input: crate::protocol::AnalyzeInput::Bytes(write_elf(&case.binary)),
            pipeline: fetch_core::Pipeline::fetch(),
        }) {
            Reply::Analyze(a) => a.fingerprint,
            other => panic!("{other:?}"),
        };

        let queue = dir.join("q");
        fs::create_dir_all(queue.join("in")).unwrap();
        fs::create_dir_all(queue.join("out")).unwrap();
        let line = format!(
            "{{\"cmd\":\"reanalyze\",\"prev_fingerprint\":\"{}\",\"bytes_hex\":\"{}\"}}\n",
            hex_u64(prev_fp),
            encode_hex(&write_elf(&patched.binary)),
        );
        fs::write(queue.join("in/00-re.json"), &line).unwrap();
        fs::write(queue.join("in/01-stop.json"), "{\"cmd\":\"shutdown\"}\n").unwrap();

        let summary = serve(
            &service,
            &ServerOptions {
                queue: Some(queue.clone()),
                ..ServerOptions::default()
            },
        )
        .unwrap();
        assert_eq!(summary.queue_files, 2);
        let reply = fs::read_to_string(queue.join("out/00-re.json")).unwrap();
        assert!(reply.contains("\"source\":\"delta\""), "{reply}");
        assert_eq!(service.stats().counter(StatsCounter::DeltaHits), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capped_line_reader_rejects_over_limit_lines() {
        let service = AnalysisService::new(&ServeConfig::default()).unwrap();
        let mut out = SharedBuf::default();
        // One giant line, no newline within the cap.
        let giant = format!("{{\"pad\":\"{}\"}}", "y".repeat(MAX_LINE_BYTES));
        let handled = serve_io(&service, giant.as_bytes(), &mut out).unwrap();
        assert_eq!(handled, 0);
        let text = out.text();
        assert!(text.contains("\"code\":\"too_large\""), "{text}");
        assert_eq!(service.stats().counter(StatsCounter::RejectedTooLarge), 1);
    }
}
