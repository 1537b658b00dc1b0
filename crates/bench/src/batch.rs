//! # The parallel corpus batch driver
//!
//! Every table and figure of the paper is an aggregate over a corpus of
//! binaries, and every per-binary computation is independent of the
//! others. [`BatchDriver`] is the one scheduler all the `src/bin/*`
//! harnesses run on: it shards the corpus across hand-rolled
//! [`std::thread::scope`] workers and merges the results back into
//! corpus order, so aggregation code downstream consumes one ordered
//! stream regardless of how many workers produced it.
//!
//! ## Architecture
//!
//! * **Deterministic sharding.** Worker `w` of `j` processes items
//!   `w, w + j, w + 2j, …` (a stride, which balances corpora whose cost
//!   grows along the index, e.g. by optimization level). The shard
//!   assignment is a pure function of `(len, jobs)` — no work stealing,
//!   no scheduling nondeterminism.
//! * **Index-ordered merge.** Workers emit `(case_index, result)` pairs
//!   over a channel; the driver writes each into its slot of a
//!   pre-sized buffer and hands back a `Vec` in corpus order. Because
//!   every per-item computation is independent and deterministic, the
//!   merged output is *byte-identical* for every worker count —
//!   `--jobs 1` is the reference the differential tests compare against.
//! * **Per-worker [`RecEngine`].** Each worker owns one persistent
//!   recursion engine for its whole shard, so the decode cache is
//!   shared across the tool models and strategy stacks run on a binary
//!   (the engine's binary fingerprint resets it between binaries, so no
//!   result depends on the shard layout). Item callbacks receive
//!   `&mut RecEngine` and thread it through
//!   [`fetch_core::Pipeline::run_with_engine`], `fetch_tools::run_tool`,
//!   or [`fetch_core::DetectionState::with_engine`]. That a shared
//!   engine's results equal fresh engines' is property-tested
//!   (`proptest_incremental::shared_engine_equals_fresh_engines`), not
//!   guaranteed by construction: an engine may extend its last walk.
//!   The engine stays because it pays. With a fresh engine per stack,
//!   `repro all --scale 32 --jobs 2` printed the same tables, but over
//!   8 alternating pairs on a 2-vCPU host `repro fig5 --scale 32
//!   --jobs 1` went from ~127 to ~170 ms and `repro table3` from ~134
//!   to ~148 ms.
//! * **Panic containment.** A panicking item is caught in the worker,
//!   converted into an error, and reported by [`BatchDriver::try_run`]
//!   after the remaining workers drain — the scope never deadlocks and
//!   never tears down the process from a worker thread.
//!
//! ## Example
//!
//! ```
//! use fetch_bench::BatchDriver;
//! use fetch_core::Pipeline;
//! use fetch_synth::{synthesize, SynthConfig};
//!
//! let cases: Vec<_> = (0..4u64)
//!     .map(|s| synthesize(&SynthConfig::small(s)))
//!     .collect();
//! let fde_rec = Pipeline::parse("FDE+Rec").unwrap();
//! let lens = BatchDriver::new(2).run(&cases, |engine, case| {
//!     fde_rec.run_with_engine(&case.binary, engine).len()
//! });
//! assert_eq!(lens.len(), cases.len());
//! ```

use fetch_disasm::RecEngine;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

/// A worker panic surfaced by [`BatchDriver::try_run`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchError {
    /// Corpus index of the item whose computation panicked.
    pub case_index: usize,
    /// The panic payload, when it was a string.
    pub message: String,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch worker panicked on case {}: {}",
            self.case_index, self.message
        )
    }
}

impl std::error::Error for BatchError {}

/// The corpus scheduler: deterministic sharding, per-worker engines,
/// index-ordered merge (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct BatchDriver {
    jobs: usize,
}

impl BatchDriver {
    /// A driver running `jobs` workers (clamped to at least one).
    pub fn new(jobs: usize) -> BatchDriver {
        BatchDriver { jobs: jobs.max(1) }
    }

    /// A single-worker driver — the serial reference the differential
    /// tests compare every parallel run against.
    pub fn serial() -> BatchDriver {
        BatchDriver::new(1)
    }

    /// A driver sized from [`crate::BenchOpts::jobs`] (the `--jobs`
    /// flag; defaults to the machine's available parallelism).
    pub fn from_opts(opts: &crate::BenchOpts) -> BatchDriver {
        BatchDriver::new(opts.jobs)
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Maps `f` over `items`, returning results in item order. Each
    /// worker threads its persistent [`RecEngine`] through every call.
    ///
    /// Panics when an item's computation panics (after all workers have
    /// drained); use [`BatchDriver::try_run`] to handle that case.
    pub fn run<C, T, F>(&self, items: &[C], f: F) -> Vec<T>
    where
        C: Sync,
        T: Send,
        F: Fn(&mut RecEngine, &C) -> T + Sync,
    {
        match self.try_run(items, f) {
            Ok(out) => out,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`BatchDriver::run`], but a worker panic is returned as a
    /// [`BatchError`] instead of propagated. The remaining workers stop
    /// at their next item and the scope joins cleanly — no deadlock,
    /// no abandoned threads.
    pub fn try_run<C, T, F>(&self, items: &[C], f: F) -> Result<Vec<T>, BatchError>
    where
        C: Sync,
        T: Send,
        F: Fn(&mut RecEngine, &C) -> T + Sync,
    {
        let jobs = self.jobs.min(items.len()).max(1);
        if jobs == 1 {
            return run_shard_serial(RecEngine::new(), items, &f);
        }

        let abort = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<Result<(usize, T), BatchError>>();
        std::thread::scope(|scope| {
            for worker in 0..jobs {
                let tx = tx.clone();
                let (f, abort) = (&f, &abort);
                let mut engine = RecEngine::new();
                scope.spawn(move || {
                    for index in (worker..items.len()).step_by(jobs) {
                        if abort.load(Ordering::Relaxed) {
                            break;
                        }
                        let engine = &mut engine;
                        match catch_unwind(AssertUnwindSafe(|| f(engine, &items[index]))) {
                            Ok(value) => {
                                if tx.send(Ok((index, value))).is_err() {
                                    break;
                                }
                            }
                            Err(payload) => {
                                abort.store(true, Ordering::Relaxed);
                                let _ = tx.send(Err(BatchError {
                                    case_index: index,
                                    message: panic_message(payload),
                                }));
                                break;
                            }
                        }
                    }
                });
            }
            drop(tx);

            // Merge in index order. The receive loop ends when every
            // worker has exited (all senders dropped), so a panicked
            // shard can never leave the scope waiting.
            let mut slots: Vec<Option<T>> = Vec::with_capacity(items.len());
            slots.resize_with(items.len(), || None);
            let mut first_error: Option<BatchError> = None;
            for message in rx {
                match message {
                    Ok((index, value)) => slots[index] = Some(value),
                    Err(e) => {
                        if first_error
                            .as_ref()
                            .is_none_or(|first| e.case_index < first.case_index)
                        {
                            first_error = Some(e);
                        }
                    }
                }
            }
            match first_error {
                Some(e) => Err(e),
                None => Ok(slots
                    .into_iter()
                    .map(|slot| slot.expect("every index scheduled exactly once"))
                    .collect()),
            }
        })
    }
}

/// The `jobs == 1` path: no threads, one engine, plain iteration — the
/// reference semantics. Panics are still converted to [`BatchError`] so
/// `try_run`'s contract is worker-count independent.
fn run_shard_serial<C, T, F>(
    mut engine: RecEngine,
    items: &[C],
    f: &F,
) -> Result<Vec<T>, BatchError>
where
    F: Fn(&mut RecEngine, &C) -> T,
{
    let mut out = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        let engine = &mut engine;
        match catch_unwind(AssertUnwindSafe(|| f(engine, item))) {
            Ok(value) => out.push(value),
            Err(payload) => {
                return Err(BatchError {
                    case_index: index,
                    message: panic_message(payload),
                })
            }
        }
    }
    Ok(out)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stride_covers_every_index_once() {
        for len in 0..40usize {
            for jobs in 1..9usize {
                let mut seen = vec![0u32; len];
                let j = jobs.min(len).max(1);
                for w in 0..j {
                    for i in (w..len).step_by(j) {
                        seen[i] += 1;
                    }
                }
                assert!(seen.iter().all(|&c| c == 1), "len {len} jobs {jobs}");
            }
        }
    }

    #[test]
    fn results_arrive_in_item_order() {
        let items: Vec<usize> = (0..57).collect();
        for jobs in [1, 2, 3, 7, 16] {
            let out = BatchDriver::new(jobs).run(&items, |_, &i| i * 3);
            assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_corpus_is_fine() {
        let out = BatchDriver::new(4).run(&[] as &[u8], |_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn panics_surface_as_errors() {
        let items: Vec<usize> = (0..23).collect();
        for jobs in [1, 2, 5] {
            let err = BatchDriver::new(jobs)
                .try_run(&items, |_, &i| {
                    if i == 11 {
                        panic!("boom on {i}");
                    }
                    i
                })
                .expect_err("panic must surface");
            assert_eq!(err.case_index, 11);
            assert!(err.message.contains("boom"), "{}", err.message);
        }
    }

    #[test]
    fn run_propagates_the_panic_message() {
        let items = [1u8];
        let caught = catch_unwind(AssertUnwindSafe(|| {
            BatchDriver::serial().run(&items, |_, _| -> u8 { panic!("inner") })
        }));
        let msg = panic_message(caught.expect_err("must panic"));
        assert!(msg.contains("case 0") && msg.contains("inner"), "{msg}");
    }
}
