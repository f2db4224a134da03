//! Persistent bounded transfer pool.
//!
//! A [`TransferPool`] owns a fixed set of worker threads fed from one MPMC
//! channel (the vendored `crossbeam::channel`). The distributor creates it
//! lazily on first use and shares it across every
//! [`Session`](crate::Session): the put pipeline submits its stripe
//! encodes here, and a get of a large file its segments (`core::get`),
//! instead of spawning fresh threads per call, which is what keeps the
//! hot I/O path free of thread-creation cost. The host's available
//! parallelism is read once, here, for the get's fan-out rule.
//!
//! **Invariant: no pool job takes a table lock or waits on another pool
//! job.** A job may hold what it was given (an `Arc` of a plan or of the
//! provider boundary) and send one result; it never blocks on a shard
//! guard, the client directory or a sibling task. A job that did could
//! deadlock against a caller that holds a guard while it waits on the
//! pool. The submitter, in turn, never waits on a job that has not
//! started: a get runs its own unclaimed segments, so a parked or
//! saturated pool delays it by nothing but the work itself.
//!
//! Panics inside a task are caught per task, so one poisoned job can never
//! wedge the queue or kill a worker. Dropping the pool closes the channel
//! and joins all workers.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel::{self, Sender};
use fragcloud_telemetry::{clock, TelemetryHandle};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool consuming boxed closures from a shared queue.
pub struct TransferPool {
    tx: Sender<Job>,
    workers: Vec<JoinHandle<()>>,
    depth: Arc<AtomicUsize>,
    panicked: Arc<AtomicUsize>,
    parallelism: usize,
}

impl TransferPool {
    /// Spawns `workers` threads (clamped to at least one) draining one
    /// shared queue.
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let (tx, rx) = channel::unbounded::<Job>();
        let depth = Arc::new(AtomicUsize::new(0));
        let panicked = Arc::new(AtomicUsize::new(0));
        let handles = (0..workers)
            .map(|i| {
                let rx = rx.clone();
                let depth = Arc::clone(&depth);
                let panicked = Arc::clone(&panicked);
                std::thread::Builder::new()
                    .name(format!("fragcloud-xfer-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            depth.fetch_sub(1, Ordering::Relaxed);
                            // A panicking task must not take the worker
                            // down with it: swallow the payload, count it,
                            // keep draining.
                            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                                panicked.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                    // fraglint: allow(no-unwrap-in-lib) — a failed worker
                    // spawn at pool construction leaves nothing to fall
                    // back to, and `OnceLock::get_or_init` (the shared-pool
                    // path) cannot thread a Result out.
                    .expect("spawn transfer-pool worker")
            })
            .collect();
        TransferPool {
            tx,
            workers: handles,
            depth,
            panicked,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Enqueues a task. Tasks start in submission order but complete in
    /// any order; callers needing results thread their own channel through
    /// the closure.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.depth.fetch_add(1, Ordering::Relaxed);
        let sent = self.tx.send(Box::new(job)).is_ok();
        assert!(sent, "workers outlive the sender");
    }

    /// [`submit`](Self::submit) plus telemetry: bumps `pool_tasks_total`,
    /// records the post-submit queue depth into the
    /// `pool_queue_depth_count` histogram (a gauge-style sample of
    /// backlog at submission time), and observes how long the task sat
    /// queued before a worker picked it up into `pool_queue_dwell_us`.
    pub fn submit_observed(&self, tel: &TelemetryHandle, job: impl FnOnce() + Send + 'static) {
        let enqueued = clock::monotonic_now();
        let dwell_tel = tel.clone();
        self.submit(move || {
            dwell_tel.observe_micros("pool_queue_dwell_us", enqueued.elapsed());
            job();
        });
        tel.incr("pool_tasks_total");
        tel.observe("pool_queue_depth_count", self.queue_depth() as u64);
    }

    /// Tasks submitted but not yet started (snapshot; racy by nature).
    pub fn queue_depth(&self) -> usize {
        self.depth.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The host's available parallelism, read when the pool was built.
    pub fn host_parallelism(&self) -> usize {
        self.parallelism
    }

    /// Tasks that terminated by panicking (swallowed, workers kept).
    pub fn panicked_tasks(&self) -> usize {
        self.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for TransferPool {
    fn drop(&mut self) {
        // Disconnect the queue so workers drain what's left and exit: the
        // pool's sender gives way to one whose receiver is already gone.
        drop(std::mem::replace(&mut self.tx, channel::unbounded().0));
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for TransferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferPool")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth())
            .field("panicked_tasks", &self.panicked_tasks())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    #[test]
    fn tasks_run_and_drop_joins() {
        let pool = TransferPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        let (tx, rx) = mpsc::channel();
        for i in 0..20u32 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).expect("receiver alive"));
        }
        drop(tx);
        let mut got: Vec<u32> = rx.iter().collect();
        got.sort_unstable();
        assert_eq!(got, (0..20).collect::<Vec<_>>());
        drop(pool); // joins without hanging
    }

    #[test]
    fn zero_workers_clamped_to_one() {
        let pool = TransferPool::new(0);
        assert_eq!(pool.worker_count(), 1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u8).expect("receiver alive"));
        assert_eq!(rx.recv().expect("task ran"), 7);
    }

    #[test]
    fn panicking_task_does_not_wedge_the_queue() {
        let pool = TransferPool::new(1); // single worker: a dead worker would hang us
        let (tx, rx) = mpsc::channel();
        pool.submit(|| panic!("task goes boom"));
        let tx2 = tx.clone();
        pool.submit(move || tx2.send("after panic").expect("receiver alive"));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("queue survived the panic"),
            "after panic"
        );
        assert_eq!(pool.panicked_tasks(), 1);
        // And the worker still accepts more work.
        pool.submit(move || tx.send("still alive").expect("receiver alive"));
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10))
                .expect("worker alive"),
            "still alive"
        );
    }

    #[test]
    fn observed_submit_records_counters() {
        let tel = TelemetryHandle::enabled();
        let pool = TransferPool::new(2);
        let (tx, rx) = mpsc::channel();
        for _ in 0..5 {
            let tx = tx.clone();
            pool.submit_observed(&tel, move || tx.send(()).expect("receiver alive"));
        }
        drop(tx);
        assert_eq!(rx.iter().count(), 5);
        let reg = tel.registry().expect("enabled");
        assert_eq!(reg.counter_total("pool_tasks_total"), 5);
        assert_eq!(reg.histogram("pool_queue_depth_count", "").count(), 5);
        // Every task that ran also reported how long it sat queued.
        assert_eq!(reg.histogram("pool_queue_dwell_us", "").count(), 5);
    }
}
