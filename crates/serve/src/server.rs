//! Transports of the daemon: a Unix-domain socket acceptor feeding a
//! bounded worker pool, and a stdio mode — both driving one shared
//! [`AnalysisService`].
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
//!   then receives event lines until it disconnects. A socket path
//!   another daemon still answers on is never taken over: [`serve`]
//!   fails with `AddrInUse`, and only a file nobody answers on (a dead
//!   daemon's leftover) is replaced.
//! * **Shutdown**: the socket worker that handles `shutdown` writes its
//!   reply, then opens one connection to the daemon's own socket to
//!   wake the blocked acceptor. The acceptor drops every connection it
//!   accepts once shutdown is requested, the workers drain what is
//!   pending, and [`serve`] returns.
//! * **Stdio** (`--stdio`): one request line per stdin line, one reply
//!   line per stdout line, until EOF or `shutdown` — the
//!   inetd/subprocess shape, and the fallback transport everywhere (the
//!   socket transport needs Unix-domain sockets).
//!
//! Both transports run one request-line loop; each supplies only its
//! deadlines and what a `subscribe` does with the stream. Request lines
//! are read through a hard cap ([`MAX_LINE_BYTES`]): an over-long line
//! is answered with a `too_large` error and the connection dropped (the
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
use crate::protocol::{parse_request, ErrorCode, Reply, Request, MAX_LINE_BYTES};
use crate::service::AnalysisService;
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

pub use socket::serve;

/// Default worker-pool size for the socket transport.
pub const DEFAULT_JOBS: usize = 4;
/// Default bound of the pending-connection queue.
pub const DEFAULT_QUEUE_DEPTH: usize = 64;
/// Default per-connection read/write deadline.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Configuration of the socket transport ([`serve`]).
#[derive(Debug, Clone, Default)]
pub struct ServerOptions {
    /// Unix-domain socket path to listen on (required: the empty
    /// default fails to bind).
    pub socket: PathBuf,
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
}

/// The socket transport: acceptor, worker pool and shutdown wake-up.
#[cfg(unix)]
mod socket {
    use super::*;
    use fetch_obs::{logmsg, LogLevel};
    use std::collections::VecDeque;
    use std::fs;
    use std::io::BufReader;
    use std::os::unix::net::{UnixListener, UnixStream};
    use std::path::Path;
    use std::sync::{Condvar, Mutex, Once};

    /// The bounded hand-off between the accept loop and the worker pool.
    struct ConnQueue {
        /// Pending connections with their enqueue instants — popped age
        /// feeds the `fetch_queue_wait_us` histogram.
        state: Mutex<(VecDeque<(Instant, UnixStream)>, bool)>,
        ready: Condvar,
        depth: usize,
    }

    impl ConnQueue {
        fn new(depth: usize) -> ConnQueue {
            ConnQueue {
                state: Mutex::new((VecDeque::new(), false)),
                ready: Condvar::new(),
                depth,
            }
        }

        /// Enqueues a connection, or returns it when the queue is full
        /// (the caller sheds it with a `busy` error).
        fn try_push(&self, stream: UnixStream) -> Result<(), UnixStream> {
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
        fn pop(&self) -> Option<(Instant, UnixStream)> {
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

    /// Runs the socket transport on `opts.socket` until a `shutdown`
    /// request arrives (use [`serve_io`] for the stdio shape). Takes
    /// `&self` on the service: the worker pool shares it.
    ///
    /// # Errors
    ///
    /// `AddrInUse` when another daemon answers on the socket path (its
    /// socket is left in place), and any bind or accept error.
    pub fn serve(service: &AnalysisService, opts: &ServerOptions) -> io::Result<ServeSummary> {
        let ServerOptions {
            socket,
            jobs,
            queue_depth,
            io_timeout,
        } = opts;
        let listener = bind_unless_live(socket)?;
        let io_timeout = io_timeout.unwrap_or(DEFAULT_IO_TIMEOUT);
        let jobs = jobs.unwrap_or(DEFAULT_JOBS).max(1);
        let pending = ConnQueue::new(queue_depth.unwrap_or(DEFAULT_QUEUE_DEPTH).max(1));
        let stop = StopSignal {
            socket,
            woken: Once::new(),
        };
        let mut summary = ServeSummary::default();
        let accepted = std::thread::scope(|scope| {
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
            let accepted = accept_loop(service, &listener, pending, io_timeout, &mut summary);
            // Drain the pool either way.
            pending.close();
            for worker in workers {
                worker.join().expect("serve worker panicked");
            }
            accepted
        });
        let _ = fs::remove_file(socket);
        accepted.map(|()| summary)
    }

    /// Binds `path`, first removing a file left there by a dead daemon.
    /// A socket that accepts a connection has a live daemon behind it:
    /// taking its path over would orphan that daemon, so this fails with
    /// `AddrInUse` and leaves the file alone.
    fn bind_unless_live(path: &Path) -> io::Result<UnixListener> {
        if UnixStream::connect(path).is_ok() {
            return Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a daemon is already listening on {}", path.display()),
            ));
        }
        let _ = fs::remove_file(path);
        UnixListener::bind(path)
    }

    /// How a socket worker that handled `shutdown` stops the acceptor,
    /// which is blocked in `accept()` and only looks at the service's
    /// shutdown flag when a connection arrives: the first worker to get
    /// here opens one connection to the socket. The listener outlives
    /// every worker, so the wake-up connect only fails when the socket
    /// file was removed under the daemon.
    struct StopSignal<'a> {
        socket: &'a Path,
        woken: Once,
    }

    impl StopSignal<'_> {
        /// Wakes the acceptor; only the first call connects.
        fn wake_acceptor(&self) {
            self.woken.call_once(|| {
                if let Err(e) = UnixStream::connect(self.socket) {
                    logmsg!(
                        LogLevel::Warn,
                        0,
                        "fetch-serve: shutdown wake-up connect to {} failed: {e}",
                        self.socket.display()
                    );
                }
            });
        }
    }

    /// The socket acceptor: blocks in `accept()` and hands each
    /// connection to the worker pool, shedding it with `busy` when the
    /// pending queue is full. Once shutdown is requested, the connection
    /// that woke it (the wake-up connect, or a late client) is dropped
    /// and the loop ends.
    fn accept_loop(
        service: &AnalysisService,
        listener: &UnixListener,
        pending: &ConnQueue,
        io_timeout: Duration,
        summary: &mut ServeSummary,
    ) -> io::Result<()> {
        loop {
            let (stream, _addr) = listener.accept()?;
            if service.shutdown_requested() {
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

    /// Answers a shed connection with a structured `busy` error, best
    /// effort under a short deadline — load shedding must never block
    /// the accept loop.
    fn shed_connection(mut stream: UnixStream, io_timeout: Duration, req_id: u64) {
        let _ = stream.set_write_timeout(Some(io_timeout.min(Duration::from_millis(250))));
        let reply = Reply::error(
            ErrorCode::Busy,
            "daemon at capacity (pending-connection queue full); retry later",
        );
        let _ = write_line(&mut stream, reply.to_line_with(req_id));
    }

    /// Handles one socket connection through [`serve_lines`] under
    /// read/write deadlines; a `subscribe` parks the write half on the
    /// telemetry hub and stops reading. Once shutdown is requested, the
    /// acceptor is woken after the reply — even when the write failed,
    /// or the daemon never exits.
    fn handle_connection(
        service: &AnalysisService,
        stream: UnixStream,
        io_timeout: Duration,
        stop: &StopSignal,
    ) -> io::Result<()> {
        // A silent or stalled client is disconnected, not waited on.
        stream.set_read_timeout(Some(io_timeout))?;
        stream.set_write_timeout(Some(io_timeout))?;
        let mut writer = stream.try_clone()?;
        let served = serve_lines(service, BufReader::new(stream), &mut writer, |writer| {
            // The write timeout stays armed on the parked half: a
            // subscriber that stops reading makes broadcast() error out
            // and be dropped, instead of wedging the daemon on a full
            // socket buffer.
            service.telemetry().subscribe(Box::new(writer.try_clone()?));
            Ok(false)
        });
        if service.shutdown_requested() {
            stop.wake_acceptor();
        }
        served.map(drop)
    }
}

/// Without Unix-domain sockets there is no socket transport; [`serve_io`]
/// is the fallback.
#[cfg(not(unix))]
mod socket {
    use super::*;

    /// Fails with `Unsupported`: use the stdio transport.
    pub fn serve(_service: &AnalysisService, _opts: &ServerOptions) -> io::Result<ServeSummary> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the socket transport requires Unix-domain sockets; use --stdio",
        ))
    }
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

/// The request-line loop of the stream transports (socket and stdio):
/// fires `conn.read` and reads one line through the [`MAX_LINE_BYTES`]
/// cap, answers it under a fresh request ID (a parse error becomes its
/// structured error reply, counted when it is `too_large`), and writes
/// the reply through [`write_checked`] — until EOF, a read deadline, an
/// over-cap line (answered `too_large`: the stream cannot be
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
        let req_id = service.next_req_id();
        let reply = match parsed {
            Ok(request) => service.handle_with_id(req_id, request),
            Err(e) => {
                if e.code == ErrorCode::TooLarge {
                    service.note_rejected_too_large();
                }
                Reply::from(e)
            }
        };
        let written = write_checked(service, writer, reply.to_line_with(req_id));
        if service.shutdown_requested() {
            return written.map(|()| handled);
        }
        written?;
        if subscribing && !subscribe(writer)? {
            return Ok(handled);
        }
    }
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
    use fetch_synth::{synthesize, SynthConfig};

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
