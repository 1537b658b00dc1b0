//! The daemon under test: the shipped `fetch-serve daemon` binary as a
//! child process, reached over its Unix socket, with its resource use
//! read from `/proc/<pid>` (outside the process).

use fetch_serve::json::Json;
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Worker threads: the 2-vCPU host the numbers are quoted on.
pub const JOBS: &str = "2";
/// A request still unanswered after this long counts as failed.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
/// `/proc/<pid>/stat` reports CPU time in clock ticks of `USER_HZ`,
/// which Linux fixes at 100 for userspace.
const TICKS_PER_SEC: f64 = 100.0;

/// A running daemon; killed and reaped on drop if still alive.
pub struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
}

/// Resource use of the daemon process at one instant.
#[derive(Debug, Clone, Copy)]
pub struct ProcSample {
    /// Peak resident set (`VmHWM`), MiB.
    pub peak_rss_mib: f64,
    /// User plus system CPU time since start, seconds.
    pub cpu_s: f64,
}

impl Daemon {
    /// Starts `fetch-serve daemon` on `socket` with a store in `store`,
    /// and waits until the socket accepts connections.
    pub fn spawn(
        exe: &Path,
        socket: &Path,
        store: &Path,
        cache_capacity: usize,
        log: &Path,
    ) -> io::Result<Daemon> {
        let child = Command::new(exe)
            .arg("daemon")
            .arg("--socket")
            .arg(socket)
            .arg("--store")
            .arg(store)
            .args(["--jobs", JOBS])
            .args(["--cache-capacity", &cache_capacity.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(File::create(log)?)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            socket: socket.to_path_buf(),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if UnixStream::connect(socket).is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon.child_mut().try_wait()? {
                return Err(io::Error::other(format!(
                    "daemon exited during startup ({status}); see {}",
                    log.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("daemon socket never accepted"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("daemon is running")
    }

    /// Opens a connection.
    pub fn connect(&self) -> io::Result<Conn> {
        Conn::open(&self.socket)
    }

    /// The daemon's `stats` reply.
    pub fn stats(&self) -> io::Result<Json> {
        let mut conn = self.connect()?;
        let mut reply = String::new();
        conn.request(r#"{"cmd":"stats"}"#, &mut reply)?;
        Json::parse(reply.trim()).map_err(|e| io::Error::other(format!("stats reply: {e}")))
    }

    /// Reads `VmHWM` and `utime + stime` from `/proc/<pid>`.
    pub fn sample(&self) -> io::Result<ProcSample> {
        let pid = self.child.as_ref().expect("daemon is running").id();
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
        let hwm_kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // Fields after the parenthesized command name: state is field 3,
        // utime and stime are fields 14 and 15.
        let after_comm = &stat[stat.rfind(')').map_or(0, |i| i + 1)..];
        let fields: Vec<&str> = after_comm.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("malformed /proc stat"))
        };
        Ok(ProcSample {
            peak_rss_mib: hwm_kib / 1024.0,
            cpu_s: (ticks(11)? + ticks(12)?) / TICKS_PER_SEC,
        })
    }

    /// Sends `shutdown` and waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut reply = String::new();
        self.connect()?
            .request(r#"{"cmd":"shutdown"}"#, &mut reply)?;
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Some(status) = self.child_mut().try_wait()? {
                self.child = None;
                return if status.success() {
                    Ok(())
                } else {
                    Err(io::Error::other(format!("daemon exited with {status}")))
                };
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other("daemon ignored shutdown"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one request line and reads the reply line into `reply`.
    /// Returns the latency from the write until the whole reply line was
    /// read.
    pub fn request(&mut self, line: &str, reply: &mut String) -> io::Result<Duration> {
        reply.clear();
        let t0 = Instant::now();
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        if self.reader.read_line(reply)? == 0 || !reply.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ));
        }
        Ok(t0.elapsed())
    }
}

/// A counter of a `stats` reply, by path (`"requests.cold"`).
pub fn stat(stats: &Json, path: &str) -> u64 {
    path.split('.')
        .try_fold(stats, |j, key| j.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
