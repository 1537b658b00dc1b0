//! Host steal: time the hypervisor kept the VM's vCPUs from running while
//! they had work, read per CPU from the `steal` column of `/proc/stat`.
//!
//! On a shared host, steal comes and goes with the neighbours' load and
//! stretches the wall-clock time of CPU-bound work by the stolen share:
//! runs made minutes apart on the same code read 20% apart when one of
//! them lost a fifth of its CPU. The timings of the CPU-bound workloads
//! are therefore reported net of steal, which measures the program
//! rather than the host; the figures as measured and the share taken out
//! are printed next to them.

use crate::drive::Phase;
use std::time::Duration;

/// Wall time per steal-accounting window of a timed phase. The counters
/// move in steps of 10 ms, so a window must be long enough to resolve a
/// share of a few percent; shorter windows follow bursts more closely.
const WINDOW: Duration = Duration::from_secs(2);
/// The largest share counted as stolen.
const MAX_SHARE: f64 = 0.9;

/// Busy and stolen time of each CPU since boot, in `USER_HZ` ticks.
#[derive(Debug, Clone, Default)]
pub struct CpuTimes(Vec<[u64; 2]>);

/// Reads [`CpuTimes`]; empty where `/proc/stat` cannot be read.
pub fn read() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    CpuTimes(
        stat.lines()
            .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
            .map(|l| {
                // "cpuN user nice system idle iowait irq softirq steal ..."
                let f: Vec<u64> = l
                    .split_whitespace()
                    .skip(1)
                    .map(|v| v.parse().unwrap_or(0))
                    .collect();
                let at = |i: usize| f.get(i).copied().unwrap_or(0);
                [at(0) + at(1) + at(2) + at(5) + at(6), at(7)]
            })
            .collect(),
    )
}

/// The share of the CPU time wanted between two readings that the host
/// withheld: on each CPU, stolen over busy plus stolen, weighted by how
/// busy the CPU was. This is the share of wall time a chain of CPU-bound
/// work loses: a saturated CPU contributes its stolen share of the wall
/// time, and a CPU that idles contributes little however much steal its
/// wake-ups collect.
pub fn share(from: &CpuTimes, to: &CpuTimes) -> f64 {
    let (mut busy_total, mut weighted) = (0.0, 0.0);
    for (a, b) in from.0.iter().zip(&to.0) {
        let busy = b[0].saturating_sub(a[0]) as f64;
        let stolen = b[1].saturating_sub(a[1]) as f64;
        if busy + stolen > 0.0 {
            weighted += busy * stolen / (busy + stolen);
        }
        busy_total += busy;
    }
    if busy_total > 0.0 {
        (weighted / busy_total).min(MAX_SHARE)
    } else {
        0.0
    }
}

/// A timed phase with host steal taken out.
pub struct Net {
    /// Latency of each answered request in ms, scaled by the share of
    /// its window not lost to steal ([`share`]).
    pub latencies_ms: Vec<f64>,
    /// Wall time of the phase scaled the same way over the whole phase,
    /// seconds.
    pub elapsed_s: f64,
    /// The share lost to steal over the whole phase.
    pub share: f64,
}

impl Net {
    /// A phase as measured, with no steal taken out.
    pub fn as_measured(phase: &Phase) -> Net {
        Net {
            latencies_ms: phase
                .samples
                .iter()
                .filter_map(|s| s.latency.map(|l| l.as_secs_f64() * 1e3))
                .collect(),
            elapsed_s: phase.elapsed.as_secs_f64(),
            share: 0.0,
        }
    }
}

/// Takes host steal out of a phase of CPU-bound work. Requests are grouped into windows of
/// [`WINDOW`] by send time; a window's stolen share is measured from its
/// first send to the next window's first send (or the end of the phase).
pub fn net(phase: &Phase) -> Net {
    let samples = &phase.samples;
    let window = |i: usize| samples[i].sent_at.as_nanos() / WINDOW.as_nanos();
    let firsts: Vec<usize> = (0..samples.len())
        .filter(|&i| i == 0 || window(i) != window(i - 1))
        .collect();
    let mut latencies_ms = Vec::with_capacity(samples.len());
    for (j, &first) in firsts.iter().enumerate() {
        let (end, end_times) = match firsts.get(j + 1) {
            Some(&next) => (next, &samples[next].cpu_at_send),
            None => (samples.len(), &phase.cpu_at_end),
        };
        let kept = 1.0 - share(&samples[first].cpu_at_send, end_times);
        latencies_ms.extend(
            samples[first..end]
                .iter()
                .filter_map(|s| s.latency.map(|l| l.as_secs_f64() * 1e3 * kept)),
        );
    }
    let share = share(&phase.cpu_at_start, &phase.cpu_at_end);
    Net {
        latencies_ms,
        elapsed_s: phase.elapsed.as_secs_f64() * (1.0 - share),
        share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn share_weights_each_cpu_by_how_busy_it_was() {
        let from = CpuTimes(vec![[0, 0], [0, 0]]);
        // CPU 0 works throughout and loses a fifth of its time; CPU 1
        // does a little work and collects steal on its wake-ups.
        let to = CpuTimes(vec![[80, 20], [0, 30]]);
        assert!((share(&from, &to) - 0.2).abs() < 1e-12);
        let to = CpuTimes(vec![[80, 20], [20, 20]]);
        assert!((share(&from, &to) - (0.8 * 0.2 + 0.2 * 0.5)).abs() < 1e-12);
        assert_eq!(share(&from, &from), 0.0);
        assert!(!read().0.is_empty(), "/proc/stat lists the CPUs");
    }
}
