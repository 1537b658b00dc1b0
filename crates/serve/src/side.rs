//! The service's side worker: one persistent thread with a bounded job
//! queue, so the work a cold reply does not wait for runs on another
//! core instead of after the reply.
//!
//! A flight leader hands it the binary-pure work of a cold image (the
//! CFI frame table, then the image digest) while it runs the pipeline,
//! and the store save once the reply is ready. Jobs run in submission
//! order. A full queue refuses a job and hands it back, and the caller
//! does the work inline — the queue bound is what keeps a burst from
//! piling up unbounded work (and memory) behind the replies.
//!
//! One thread per service, not one per request: a thread per request
//! costs a thread start per cold answer, and every new thread can claim
//! its own malloc arena, which shows up as daemon peak RSS.

use fetch_obs::{logmsg, LogLevel};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{self, SyncSender, TrySendError};
use std::thread::JoinHandle;

/// One unit of side work.
pub(crate) type Job = Box<dyn FnOnce() + Send>;

/// Jobs the side queue holds before [`SideWorker::submit`] refuses one.
pub(crate) const SIDE_QUEUE: usize = 8;

/// The side thread and the sending end of its queue (see the [module
/// docs](self)). Dropping it drains the queue: every job submitted
/// before the drop runs before the drop returns.
#[derive(Debug)]
pub(crate) struct SideWorker {
    tx: Option<SyncSender<Job>>,
    thread: Option<JoinHandle<()>>,
}

impl SideWorker {
    /// Starts the side thread. If the thread cannot be started, every
    /// job is refused and runs inline.
    pub(crate) fn spawn() -> SideWorker {
        let (tx, rx) = mpsc::sync_channel::<Job>(SIDE_QUEUE);
        let thread = std::thread::Builder::new()
            .name("fetch-serve-side".into())
            .spawn(move || {
                for job in rx {
                    // A panicking job must not take later saves with it.
                    if std::panic::catch_unwind(AssertUnwindSafe(job)).is_err() {
                        logmsg!(LogLevel::Error, 0, "fetch-serve: a side job panicked");
                    }
                }
            });
        match thread {
            Ok(thread) => SideWorker {
                tx: Some(tx),
                thread: Some(thread),
            },
            Err(e) => {
                logmsg!(
                    LogLevel::Warn,
                    0,
                    "fetch-serve: no side thread ({e}); side work runs inline"
                );
                SideWorker {
                    tx: None,
                    thread: None,
                }
            }
        }
    }

    /// Queues `job`, or hands it back when the queue is full so the
    /// caller can run it inline (or skip it, when it was only ahead-of-
    /// time work).
    pub(crate) fn submit(&self, job: Job) -> Result<(), Job> {
        match &self.tx {
            Some(tx) => tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(job) | TrySendError::Disconnected(job) => job,
            }),
            None => Err(job),
        }
    }

    /// Blocks until every job submitted before this call has run.
    pub(crate) fn drain(&self) {
        let Some(tx) = &self.tx else { return };
        let (done_tx, done_rx) = mpsc::channel();
        let marker: Job = Box::new(move || {
            let _ = done_tx.send(());
        });
        if tx.send(marker).is_ok() {
            let _ = done_rx.recv();
        }
    }
}

impl Drop for SideWorker {
    fn drop(&mut self) {
        // Closing the queue ends the thread once it has run every job
        // already queued.
        self.tx = None;
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                logmsg!(LogLevel::Error, 0, "fetch-serve: the side thread panicked");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Barrier, Mutex};

    #[test]
    fn jobs_run_in_order_a_full_queue_refuses_and_drop_drains() {
        let side = SideWorker::spawn();
        // Hold the thread in a first job so the queue fills behind it.
        let (started_tx, started_rx) = mpsc::channel();
        let gate = Arc::new(Barrier::new(2));
        let held = Arc::clone(&gate);
        assert!(side
            .submit(Box::new(move || {
                started_tx.send(()).unwrap();
                held.wait();
            }))
            .is_ok());
        started_rx.recv().unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut refused = 0;
        for i in 0..SIDE_QUEUE + 1 {
            let order = Arc::clone(&order);
            if side
                .submit(Box::new(move || order.lock().unwrap().push(i)))
                .is_err()
            {
                refused += 1;
            }
        }
        assert_eq!(refused, 1, "the bound is {SIDE_QUEUE} queued jobs");
        gate.wait();
        side.drain();
        let expect: Vec<usize> = (0..SIDE_QUEUE).collect();
        assert_eq!(*order.lock().unwrap(), expect, "FIFO order");

        let late = Arc::clone(&order);
        assert!(side
            .submit(Box::new(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                late.lock().unwrap().push(SIDE_QUEUE);
            }))
            .is_ok());
        drop(side);
        assert_eq!(order.lock().unwrap().len(), SIDE_QUEUE + 1, "drop drains");
    }

    #[test]
    fn a_panicking_job_does_not_stop_the_thread() {
        let side = SideWorker::spawn();
        assert!(side.submit(Box::new(|| panic!("boom"))).is_ok());
        let ran = Arc::new(AtomicUsize::new(0));
        let r = Arc::clone(&ran);
        assert!(side
            .submit(Box::new(move || {
                r.fetch_add(1, Ordering::SeqCst);
            }))
            .is_ok());
        side.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }
}
