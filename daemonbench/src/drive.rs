//! Load generation over the daemon's socket. Both patterns are closed
//! loops: a client sends its next request only after the reply to the
//! previous one has been read.

use crate::daemon::Daemon;
use crate::steal;
use std::io;
use std::time::{Duration, Instant};

/// One request of a timed phase.
pub struct Sample {
    /// Position of the request in the workload's request stream.
    pub index: usize,
    /// When it was sent, from the start of the phase.
    pub sent_at: Duration,
    /// Write-to-reply latency; `None` when the transport failed (error,
    /// timeout, or a connection closed without a reply).
    pub latency: Option<Duration>,
    /// The reply line.
    pub reply: String,
    /// Host CPU times ([`steal::read`]) just before the request.
    pub cpu_at_send: steal::CpuTimes,
}

/// A timed phase.
pub struct Phase {
    /// Requests in the order they were sent.
    pub samples: Vec<Sample>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Host CPU times at the start and at the end of the phase.
    pub cpu_at_start: steal::CpuTimes,
    pub cpu_at_end: steal::CpuTimes,
}

/// One client on one persistent connection. `next` yields the next
/// request (its stream position and line), `None` when the stream is
/// exhausted; building it happens between requests, outside the measured
/// latency.
pub fn persistent(
    daemon: &Daemon,
    seconds: f64,
    mut next: impl FnMut() -> Option<(usize, String)>,
) -> io::Result<Phase> {
    let limit = Duration::from_secs_f64(seconds);
    let mut conn = daemon.connect()?;
    let cpu_at_start = steal::read();
    let start = Instant::now();
    let mut samples = Vec::new();
    while start.elapsed() < limit {
        let Some((index, line)) = next() else { break };
        let cpu_at_send = steal::read();
        let sent_at = start.elapsed();
        let mut reply = String::new();
        let latency = match conn.request(&line, &mut reply) {
            Ok(latency) => Some(latency),
            Err(_) => {
                conn = daemon.connect()?;
                None
            }
        };
        samples.push(Sample {
            index,
            sent_at,
            latency,
            reply,
            cpu_at_send,
        });
    }
    Ok(Phase {
        samples,
        elapsed: start.elapsed(),
        cpu_at_start,
        cpu_at_end: steal::read(),
    })
}

/// `clients` concurrent clients, each opening a new connection per
/// request as `fetch-serve client` does and pausing `think(k)` after
/// request `k`. Client `c` sends stream positions `c, c + clients, …`;
/// `stream[k]` picks the line.
pub fn per_connection(
    daemon: &Daemon,
    clients: usize,
    seconds: f64,
    lines: &[String],
    stream: &[u32],
    think: &(dyn Fn(usize) -> Duration + Sync),
) -> Phase {
    let limit = Duration::from_secs_f64(seconds);
    let cpu_at_start = steal::read();
    let start = Instant::now();
    let mut samples: Vec<Sample> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    for index in (c..stream.len()).step_by(clients) {
                        if start.elapsed() >= limit {
                            break;
                        }
                        let cpu_at_send = steal::read();
                        let sent_at = start.elapsed();
                        let mut reply = String::new();
                        let latency = daemon
                            .connect()
                            .and_then(|mut conn| {
                                conn.request(&lines[stream[index] as usize], &mut reply)
                            })
                            .ok();
                        samples.push(Sample {
                            index,
                            sent_at,
                            latency,
                            reply,
                            cpu_at_send,
                        });
                        std::thread::sleep(think(index));
                    }
                    samples
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    samples.sort_by_key(|s| s.sent_at);
    Phase {
        samples,
        elapsed,
        cpu_at_start,
        cpu_at_end: steal::read(),
    }
}
