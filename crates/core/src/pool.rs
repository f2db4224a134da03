//! Persistent bounded transfer pool, and the one way work is handed to it.
//!
//! A [`TransferPool`] is a fixed set of worker threads draining a queue it
//! owns (a `Mutex<VecDeque>` and a `Condvar`), created lazily by the
//! distributor and shared by every [`Session`](crate::Session). A put's
//! stripe encodes and a get's segments are [offered](TransferPool::offer):
//! whoever claims a job first runs it, a worker or the caller, so a parked
//! or saturated pool delays a verb by nothing but the work itself.
//!
//! **Invariant: no pool job takes a table lock or waits on another pool
//! job.** One that did could deadlock against a caller that joins it while
//! holding a guard. A job's panic is caught here, once: an offer's is
//! `None` from `join`, which each verb maps to its typed error.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use fragcloud_telemetry::{clock, TelemetryHandle};

/// A queued job; `false` when what it ran panicked.
type Job = Box<dyn FnOnce() -> bool + Send + 'static>;
type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

fn caught<T>(job: impl FnOnce() -> T) -> Option<T> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(job)).ok()
}

/// Each critical section here only moves values: poison leaves nothing torn.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

#[derive(Default)]
struct Shared {
    /// The jobs, and whether the pool has dropped.
    queue: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
    panicked: AtomicUsize,
}

impl Shared {
    /// Queues `job`, wakes a worker and returns the queue's length.
    fn push(&self, job: Job) -> usize {
        let depth = {
            let mut queue = lock(&self.queue);
            queue.0.push_back(job);
            queue.0.len()
        };
        self.ready.notify_one();
        depth
    }

    /// A worker: jobs in order until the pool drops and the queue empties.
    fn work(&self) {
        let mut queue = lock(&self.queue);
        loop {
            if let Some(job) = queue.0.pop_front() {
                drop(queue);
                if !job() {
                    self.panicked.fetch_add(1, Ordering::Relaxed);
                }
                queue = lock(&self.queue);
            } else if queue.1 {
                return;
            } else {
                queue = wait(&self.ready, queue);
            }
        }
    }
}

/// Where an offered job waits to be claimed, and its result to be joined.
struct Slot<T> {
    claim: Mutex<Claim<T>>,
    done: Condvar,
}

enum Claim<T> {
    Open(Task<T>),
    /// A worker has claimed it.
    Running,
    /// A worker has run it: `None` if it panicked, or once the owner has
    /// run it, dropped it or taken its result.
    Done(Option<T>),
}

impl<T> Slot<T> {
    fn run_on_worker(&self, tel: &TelemetryHandle) -> bool {
        let task = {
            let mut claim = lock(&self.claim);
            match std::mem::replace(&mut *claim, Claim::Running) {
                Claim::Open(task) => task,
                done => {
                    *claim = done;
                    return true;
                }
            }
        };
        tel.incr("pool_tasks_on_workers");
        let out = caught(task);
        let ran = out.is_some();
        *lock(&self.claim) = Claim::Done(out);
        self.done.notify_one();
        ran
    }

    /// The owner's claim: runs the job here (`run`) or drops it if nobody
    /// has started it, else waits for the worker's result.
    fn settle(&self, run: bool) -> Option<T> {
        let mut claim = lock(&self.claim);
        loop {
            match std::mem::replace(&mut *claim, Claim::Done(None)) {
                Claim::Open(task) => {
                    drop(claim);
                    return if run { caught(task) } else { None };
                }
                Claim::Running => {
                    *claim = Claim::Running;
                    claim = wait(&self.done, claim);
                }
                Claim::Done(out) => return out,
            }
        }
    }
}

/// A job offered to the pool, run by whichever of a worker and its owner
/// claims it first. Dropping an offer withdraws it.
#[must_use = "an offer is joined or withdrawn"]
pub struct Offer<T> {
    slot: Arc<Slot<T>>,
}

impl<T> Offer<T> {
    /// An offer no worker can claim: [`join`](Self::join) runs it on the
    /// caller, under the same panic rule.
    pub fn inline(job: impl FnOnce() -> T + Send + 'static) -> Self {
        let claim = Mutex::new(Claim::Open(Box::new(job)));
        Offer {
            slot: Arc::new(Slot {
                claim,
                done: Condvar::new(),
            }),
        }
    }

    /// The job's result, run here if no worker has started it; `None` if
    /// it panicked.
    pub fn join(self) -> Option<T> {
        self.slot.settle(true)
    }

    /// Drops the job if nobody has started it, else waits for the worker.
    pub fn withdraw(self) {}
}

impl<T> Drop for Offer<T> {
    fn drop(&mut self) {
        self.slot.settle(false);
    }
}

/// A fixed-size worker pool draining one shared queue.
pub struct TransferPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    parallelism: usize,
}

impl TransferPool {
    /// Spawns `workers` threads (clamped to at least one) draining one
    /// shared queue.
    pub fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared::default());
        let handles = (0..workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fragcloud-xfer-{i}"))
                    .spawn(move || shared.work())
                    // fraglint: allow(no-unwrap-in-lib) — a failed spawn
                    // leaves nothing to fall back to, and the shared pool's
                    // `OnceLock::get_or_init` cannot thread a Result out.
                    .expect("spawn transfer-pool worker")
            })
            .collect();
        TransferPool {
            shared,
            workers: handles,
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// Queues a job with no result; a panic is counted and swallowed.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.push(Box::new(move || caught(job).is_some()));
    }

    /// Offers `job`. Counts `pool_tasks_total`, `pool_queue_depth_count`,
    /// `pool_queue_dwell_us` (offer to claim) and `pool_tasks_on_workers`.
    pub fn offer<T: Send + 'static>(
        &self,
        tel: &TelemetryHandle,
        job: impl FnOnce() -> T + Send + 'static,
    ) -> Offer<T> {
        let (offered, dwell) = (clock::monotonic_now(), tel.clone());
        let offer = Offer::inline(move || {
            dwell.observe_micros("pool_queue_dwell_us", offered.elapsed());
            job()
        });
        let (slot, wtel) = (Arc::clone(&offer.slot), tel.clone());
        let job = Box::new(move || slot.run_on_worker(&wtel));
        let depth = self.shared.push(job);
        tel.incr("pool_tasks_total");
        tel.observe("pool_queue_depth_count", depth as u64);
        offer
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The host's available parallelism, read when the pool was built.
    pub fn host_parallelism(&self) -> usize {
        self.parallelism
    }

    /// Jobs a worker ran that panicked (swallowed, the worker kept).
    pub fn panicked_tasks(&self) -> usize {
        self.shared.panicked.load(Ordering::Relaxed)
    }
}

impl Drop for TransferPool {
    fn drop(&mut self) {
        lock(&self.shared.queue).1 = true;
        self.shared.ready.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::mpsc;
    use std::time::Duration;

    const WAIT: Duration = Duration::from_secs(10);

    /// Parks `pool`'s one worker on a job until the returned sender is
    /// dropped or sent to.
    fn park(pool: &TransferPool) -> mpsc::Sender<()> {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            started_tx.send(()).expect("test alive");
            let _ = release_rx.recv();
        });
        started_rx.recv_timeout(WAIT).expect("the worker parked");
        release_tx
    }

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
            rx.recv_timeout(WAIT).expect("queue survived the panic"),
            "after panic"
        );
        assert_eq!(pool.panicked_tasks(), 1);
        // And the worker still accepts more work.
        pool.submit(move || tx.send("still alive").expect("receiver alive"));
        assert_eq!(rx.recv_timeout(WAIT).expect("worker alive"), "still alive");
    }

    #[test]
    fn a_panicking_offer_is_none_whoever_ran_it() {
        let tel = TelemetryHandle::disabled();
        let pool = TransferPool::new(1);
        // A worker runs it: the offer is joined only once its panic counted.
        let offer = pool.offer(&tel, || -> u8 { panic!("worker-side boom") });
        let start = clock::monotonic_now();
        while pool.panicked_tasks() == 0 {
            assert!(start.elapsed() < WAIT, "the worker never ran the offer");
            std::thread::yield_now();
        }
        assert_eq!(offer.join(), None);
        // The caller runs it: the one worker is parked.
        let release = park(&pool);
        let offer = pool.offer(&tel, || -> u8 { panic!("caller-side boom") });
        assert_eq!(offer.join(), None);
        assert_eq!(
            Offer::inline(|| -> u8 { panic!("inline boom") }).join(),
            None
        );
        drop(release);
        assert_eq!(
            pool.panicked_tasks(),
            1,
            "only the worker's panic is counted"
        );
        // Both sides still run the next job.
        assert_eq!(pool.offer(&tel, || 3u8).join(), Some(3));
    }

    #[test]
    fn a_withdrawn_offer_nobody_started_never_runs() {
        let pool = TransferPool::new(1);
        let release = park(&pool);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        let offer = pool.offer(&TelemetryHandle::disabled(), move || {
            flag.store(true, Ordering::SeqCst)
        });
        offer.withdraw();
        drop(release);
        drop(pool); // the workers drain the queue before they exit
        assert!(!ran.load(Ordering::SeqCst));
    }

    #[test]
    fn withdraw_waits_for_a_started_offer() {
        let pool = TransferPool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let offer = pool.offer(&TelemetryHandle::disabled(), move || {
            started_tx.send(()).expect("test alive");
            std::thread::sleep(Duration::from_millis(50));
            flag.store(true, Ordering::SeqCst);
        });
        started_rx.recv_timeout(WAIT).expect("a worker started it");
        offer.withdraw();
        assert!(done.load(Ordering::SeqCst), "withdraw returned mid-job");
    }

    #[test]
    fn offers_join_in_order_and_record_counters() {
        let tel = TelemetryHandle::enabled();
        let pool = TransferPool::new(2);
        let offers: Vec<_> = (0..5u32)
            .map(|i| pool.offer(&tel, move || i * 10))
            .collect();
        let got: Vec<_> = offers.into_iter().map(Offer::join).collect();
        assert_eq!(got, (0..5).map(|i| Some(i * 10)).collect::<Vec<_>>());
        let reg = tel.registry().expect("enabled");
        assert_eq!(reg.counter_total("pool_tasks_total"), 5);
        assert_eq!(reg.histogram("pool_queue_depth_count", "").count(), 5);
        // Every offer was claimed, by a worker or by its owner, and
        // reported how long it waited.
        assert_eq!(reg.histogram("pool_queue_dwell_us", "").count(), 5);
        assert!(reg.counter_total("pool_tasks_on_workers") <= 5);
    }
}
