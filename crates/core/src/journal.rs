//! Append-only write-ahead op journal for the distributor — delta records
//! with cross-operation group commit.
//!
//! [`persist`](crate::persist) gives durability of *quiescent* table
//! state; this module makes the mutating operations themselves
//! crash-consistent. Every state-mutating operation (`put_file`,
//! `remove_file`, `repair`, rebalance moves, `update_chunk`,
//! `restore_snapshot`, `remove_chunk`, client registration and password
//! changes) runs in the one bracket of [`mutation`](crate::mutation):
//! intent/commit/abort records, with — critically — every virtual id it
//! allocates logged *before* the corresponding provider upload. A distributor
//! that dies mid-operation therefore leaves a journal whose dangling op
//! names exactly the objects that may exist on providers without being
//! acknowledged in any snapshot; [`recovery`](crate::recovery) uses that
//! to garbage-collect them.
//!
//! ## v2: deltas instead of snapshots
//!
//! v1 closed every op by rewriting a **full** checkpoint snapshot — the
//! ~1.9× put-path tax E20 measured. v2 closes an op with a small **delta**
//! against the last checkpoint: just the table rows the op touched
//! (serialized by the distributor; the journal treats the payload as
//! opaque text).
//!
//! ## v3: write-once objects
//!
//! The record grammar is v2's. What changed is what the records can mean:
//! in v3 every verb stores only under the vids its `alloc` records name,
//! so a dangling op of any kind is undone by collecting those vids. A v2
//! journal still parses and recovers, except for a dangling chunk-level
//! op that logged an intent: its verb overwrote objects in place, and
//! recovery refuses it with a typed `CorruptState`.
//!
//! ## Compaction is a fold
//!
//! The checkpoint is held as a row-keyed image of the snapshot text
//! ([`persist`]'s `StateImage`, which owns the format). Every
//! [`checkpoint_interval`](crate::config::DurabilityConfig::checkpoint_interval)
//! commits the bracket calls `compact`: under the journal's own mutex,
//! each **released** op's delta lines are copied over the image rows they
//! name, in close order, and the op's records are dropped. Nothing is
//! exported, no table shard is locked, and the cost is that of the rows
//! the folded ops touched — not of the state the distributor holds.
//! [`checkpoint`](Journal::checkpoint) and [`export`](Journal::export)
//! render the image to the `v2` snapshot text on demand.
//!
//! An op is *released* by its bracket once its doomed objects are deleted
//! (step 5 of [`mutation`](crate::mutation); an aborted op once it is
//! rolled back). Until then its records stay whoever compacts: its `doom`
//! record is all that names those objects should the process die before
//! the deletes — and the closes behind it wait with it, because rows are
//! state and must fold in the order they closed. Recovery replays with the
//! same fold — every durable close, each line validated first — and
//! imports the image once.
//!
//! Record grammar (one record per line, `|`-separated, the same `%xx`
//! escaping as `persist`):
//!
//! ```text
//! fragcloud-journal|v3
//! checkpoint|<escaped full persist snapshot>
//! begin|<op>|<kind>|<client>|<target>
//! alloc|<op>|<vid>,<vid>,...     # fresh ids, logged BEFORE upload
//! doom|<op>|<vid>,<vid>,...      # ids this op deletes, only after
//!                                # its commit is durable
//! commit|<op>|<escaped delta>
//! abort|<op>|<escaped delta>
//! end
//! ```
//!
//! ## Group commit
//!
//! Closing records are made durable in **batches**: [`commit_prepare`]
//! appends the record (cheap, under the journal mutex) and returns a
//! sequence number; [`sync`] blocks until a flush covering that sequence
//! has run. The first syncer becomes the *leader*: it optionally lingers
//! for the configured group-commit window (skipped when other close
//! records are already pending — the batch the linger exists to gather
//! has formed), then drains every pending close record into a single
//! [`JournalSink::persist`] call — the modeled fsync — so N concurrent
//! operations pay ~1 flush instead of N.
//! Followers that arrive while a flush is in flight piggyback on it
//! (`fsync_waits` counts them, `journal_fsync_wait_us` observes how long
//! they blocked; `journal_batch_ops_count` observes the drain size).
//!
//! A close record that was appended but **not yet flushed** is not
//! durable: [`ops`](Journal::ops) reports its op as dangling,
//! [`export`](Journal::export) omits it, compaction leaves it alone, and
//! recovery begins by
//! [`discard_unflushed`](Journal::discard_unflushed) — exactly the "crash
//! between batch intent and group fsync" window of the crash matrix. An
//! operation is only acknowledged to its caller after its record is
//! flushed, so *acked ⇔ durable* holds under group commit too.
//!
//! [`commit_prepare`]: Journal::commit_prepare
//! [`sync`]: Journal::sync
//! [`persist`]: crate::persist

use crate::config::DurabilityConfig;
use crate::persist::{esc, esc_into, unesc, StateImage};
use crate::{CoreError, Result};
use fragcloud_sim::VirtualId;
use fragcloud_telemetry::{clock, span, TelemetryHandle};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// Journal format version. `v3` journals only verbs that store under
/// fresh vids; [`Journal::parse`] also reads `v2`, whose chunk-level
/// verbs overwrote objects in place.
const VERSION: u32 = 3;

/// Identifier of one journaled operation (unique per journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Which mutation path an op belongs to. Recovery rolls a dangling op
/// **back** — collects its fresh uploads — whatever its kind, except
/// `Remove`, which stores nothing and rolls **forward** (its doomed
/// objects are deleted last, so the removal can always be finished). A
/// dangling `Client` op stored nothing and committed no row: it rolls back
/// by doing nothing.
///
/// Chunk-level kinds (`Migrate`, `Update`, `Restore`, `RemoveChunk`) name
/// their target `"{filename}#{serial}"`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `put_file`: new file upload.
    Put,
    /// `remove_file`: file deletion.
    Remove,
    /// `repair`: stripe re-placement after provider loss — and a
    /// standalone `scrub` / `scrub_verify` (target `scrub`), whose only
    /// rows are the degraded markers it flips. One op per table shard.
    Repair,
    /// A rebalance move (`migrate_chunk`).
    Migrate,
    /// `update_chunk`: the chunk's new bytes and a snapshot of its
    /// pre-state, under fresh vids.
    Update,
    /// `restore_snapshot`: the snapshot's bytes stored again under fresh
    /// vids, the snapshot consumed.
    Restore,
    /// `remove_chunk`: one chunk tombstoned, its stripe's parity re-planned.
    RemoveChunk,
    /// `register_client` / `add_password`: one client-directory entry.
    Client,
}

impl OpKind {
    /// The kind's tag in the journal text (also its telemetry label).
    pub(crate) fn tag(self) -> &'static str {
        match self {
            OpKind::Put => "put",
            OpKind::Remove => "remove",
            OpKind::Repair => "repair",
            OpKind::Migrate => "migrate",
            OpKind::Update => "update",
            OpKind::Restore => "restore",
            OpKind::RemoveChunk => "rmchunk",
            OpKind::Client => "client",
        }
    }

    fn parse(s: &str, line_no: usize) -> Result<Self> {
        match s {
            "put" => Ok(OpKind::Put),
            "remove" => Ok(OpKind::Remove),
            "repair" => Ok(OpKind::Repair),
            "migrate" => Ok(OpKind::Migrate),
            "update" => Ok(OpKind::Update),
            "restore" => Ok(OpKind::Restore),
            "rmchunk" => Ok(OpKind::RemoveChunk),
            "client" => Ok(OpKind::Client),
            other => Err(bad(line_no, &format!("unknown op kind {other:?}"))),
        }
    }
}

impl std::fmt::Display for OpKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Fate of a journaled op, as read back by recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpStatus {
    /// A *flushed* `commit` record exists: the op finished and its delta
    /// is durable.
    Committed,
    /// A *flushed* `abort` record exists: the op failed and was rolled
    /// back inline by the live distributor.
    Aborted,
    /// Neither record is durable: the distributor died inside the op (or
    /// between appending the close record and the group fsync).
    Dangling,
}

/// One op folded out of the record stream (see [`Journal::ops`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpView {
    /// The op's journal-unique id.
    pub id: OpId,
    /// Mutation path.
    pub kind: OpKind,
    /// Client the op acted for (empty for client-less ops like `repair`).
    pub client: String,
    /// Target of the op — a filename (`put`, `remove`),
    /// `"{filename}#{serial}"` for the chunk-level kinds, or a
    /// descriptive tag (`repair`, `client`).
    pub target: String,
    /// Freshly allocated vids, in allocation order.
    pub fresh: Vec<VirtualId>,
    /// Vids the op intended to delete.
    pub doomed: Vec<VirtualId>,
    /// Committed / aborted / dangling.
    pub status: OpStatus,
}

/// The durable medium behind the journal's group commit.
///
/// [`Journal::sync`]'s leader calls [`persist`](JournalSink::persist)
/// exactly once per flush with the batch of newly durable close records.
/// The default sink is a no-op (the in-memory journal *is* the durable
/// medium in this simulation); experiments install a
/// [`SimulatedFsyncSink`] to price each flush realistically.
pub trait JournalSink: Send + Sync {
    /// Persist one flushed batch of serialized close records.
    fn persist(&self, batch: &str);
}

/// The default sink: flushing costs nothing.
#[derive(Debug, Default)]
pub struct NoopSink;

impl JournalSink for NoopSink {
    fn persist(&self, _batch: &str) {}
}

/// A sink that charges a fixed wall-clock cost per flush, standing in for
/// a real fsync. With group commit, N concurrent operations amortize one
/// such cost instead of paying N.
#[derive(Debug)]
pub struct SimulatedFsyncSink {
    /// Wall-clock cost of one flush.
    pub cost: Duration,
}

impl JournalSink for SimulatedFsyncSink {
    fn persist(&self, _batch: &str) {
        std::thread::sleep(self.cost);
    }
}

/// How a [`FaultySink`] sabotages its scheduled flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SinkFault {
    /// The flush is silently dropped: the inner sink never sees the batch
    /// (a lost fsync — power cut after the write syscall returned).
    Drop,
    /// Only the given number of bytes reach the inner sink (a torn write:
    /// the tail of the batch never hit the platter). Clamped to the batch
    /// length; cutting on a UTF-8 boundary is handled internally.
    Torn(usize),
}

/// A [`JournalSink`] wrapper that injects exactly one scheduled flush
/// fault — the journal-side leg of the chaos harness. Deterministic: the
/// fault fires on the `at_flush`-th call to [`persist`](JournalSink::persist)
/// (1-based) and never again; all other flushes pass through untouched.
///
/// Recovery code paired with this sink asserts the invariant the delta
/// log is designed around: a dropped or torn close-record batch rolls the
/// affected ops back (or forward, for removals) — it never invents state.
pub struct FaultySink<S: JournalSink> {
    inner: S,
    fault: SinkFault,
    at_flush: u64,
    flushes: std::sync::atomic::AtomicU64,
    fired: std::sync::atomic::AtomicBool,
}

impl<S: JournalSink> FaultySink<S> {
    /// Wraps `inner`, scheduling `fault` for the `at_flush`-th flush
    /// (1-based; 0 never fires).
    pub fn new(inner: S, fault: SinkFault, at_flush: u64) -> Self {
        FaultySink {
            inner,
            fault,
            at_flush,
            flushes: std::sync::atomic::AtomicU64::new(0),
            fired: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Whether the scheduled fault has fired yet.
    pub fn fired(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Flushes the inner sink has been asked to persist so far (the
    /// faulted one included — it was *attempted*).
    pub fn flushes(&self) -> u64 {
        self.flushes.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The wrapped sink, for post-crash inspection.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: JournalSink> JournalSink for FaultySink<S> {
    fn persist(&self, batch: &str) {
        use std::sync::atomic::Ordering;
        let n = self.flushes.fetch_add(1, Ordering::AcqRel) + 1;
        if n == self.at_flush {
            self.fired.store(true, Ordering::Release);
            match self.fault {
                SinkFault::Drop => {}
                SinkFault::Torn(keep) => {
                    let mut keep = keep.min(batch.len());
                    while keep > 0 && !batch.is_char_boundary(keep) {
                        keep -= 1;
                    }
                    self.inner.persist(&batch[..keep]);
                }
            }
            return;
        }
        self.inner.persist(batch);
    }
}

/// How far a close record has come.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stage {
    /// Appended, not yet covered by a group flush: not durable.
    Appended,
    /// Flushed: the op is committed (or aborted) for good.
    Durable,
    /// Durable, and the op's bracket has run its post-commit deletes (or
    /// its rollback): nothing needs the op's records any more, so
    /// compaction may fold its delta and drop them.
    Released,
}

#[derive(Debug, Clone)]
enum Record {
    Begin {
        op: OpId,
        kind: OpKind,
        client: String,
        target: String,
    },
    Alloc {
        op: OpId,
        vids: Vec<VirtualId>,
    },
    Doom {
        op: OpId,
        vids: Vec<VirtualId>,
    },
    /// A `commit` (`committed`) or `abort` record.
    Close {
        op: OpId,
        committed: bool,
        delta: String,
        stage: Stage,
    },
}

impl Record {
    fn op(&self) -> OpId {
        match self {
            Record::Begin { op, .. }
            | Record::Alloc { op, .. }
            | Record::Doom { op, .. }
            | Record::Close { op, .. } => *op,
        }
    }

    /// The op and stage of a close record.
    fn close(&self) -> Option<(OpId, Stage)> {
        match self {
            Record::Close { op, stage, .. } => Some((*op, *stage)),
            _ => None,
        }
    }
}

/// Appends a close record's text form: `commit|<op>|<escaped delta>`.
fn close_line(out: &mut String, op: OpId, committed: bool, delta: &str) {
    let tag = if committed { "commit" } else { "abort" };
    out.push_str(&format!("{tag}|{}|{}\n", op.0, esc(delta)));
}

#[derive(Default)]
struct JournalInner {
    /// Parsed from a `v2` journal whose ops recovery has not yet resolved:
    /// its chunk-level verbs overwrote objects in place.
    v2: bool,
    next_op: u64,
    /// The checkpoint, row by row (empty until a distributor attaches).
    image: StateImage,
    records: Vec<Record>,
    /// Close records appended so far — the group-commit sequence space.
    closes_appended: u64,
    /// Commits since the last checkpoint compaction.
    commits_since_checkpoint: u32,
}

impl JournalInner {
    fn append_close(&mut self, op: OpId, committed: bool, delta: String) -> u64 {
        self.records.push(Record::Close {
            op,
            committed,
            delta,
            stage: Stage::Appended,
        });
        self.closes_appended += 1;
        self.closes_appended
    }

    /// Drops every record of the ops in `gone`.
    fn drop_ops(&mut self, gone: &HashSet<OpId>) {
        self.records.retain(|r| !gone.contains(&r.op()));
    }
}

/// Group-commit flush progress, guarded by a std mutex so the leader's
/// followers can park on the condvar.
struct FlushState {
    /// Highest close sequence covered by a completed flush.
    flushed: u64,
    /// Whether a leader currently owns the flush.
    leader: bool,
}

/// The append-only write-ahead op journal.
///
/// Thread-safe; attach one to a
/// [`CloudDataDistributor`](crate::CloudDataDistributor) via
/// [`attach_journal`](crate::CloudDataDistributor::attach_journal) and it
/// records every mutation. [`export`](Self::export) the text form to
/// durable storage as often as desired; after a crash,
/// [`parse`](Self::parse) it back and hand it to
/// [`recover`](crate::recovery::recover).
pub struct Journal {
    inner: Mutex<JournalInner>,
    flush: StdMutex<FlushState>,
    flush_cv: Condvar,
    sink: Mutex<Arc<dyn JournalSink>>,
    tel: Mutex<TelemetryHandle>,
    window: Mutex<Duration>,
    checkpoint_interval: Mutex<u32>,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal").finish_non_exhaustive()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal {
            inner: Mutex::new(JournalInner::default()),
            flush: StdMutex::new(FlushState {
                flushed: 0,
                leader: false,
            }),
            flush_cv: Condvar::new(),
            sink: Mutex::new(Arc::new(NoopSink)),
            tel: Mutex::new(TelemetryHandle::disabled()),
            window: Mutex::new(Duration::ZERO),
            checkpoint_interval: Mutex::new(DurabilityConfig::default().checkpoint_interval),
        }
    }
}

fn bad(line_no: usize, why: &str) -> CoreError {
    CoreError::CorruptState {
        line: line_no,
        why: why.to_string(),
    }
}

impl Journal {
    /// An empty journal (no checkpoint, no records, no-op sink).
    pub fn new() -> Self {
        Self::default()
    }

    /// Applies a [`DurabilityConfig`]'s journal knobs (group-commit window
    /// and checkpoint interval). The distributor calls this from
    /// [`attach_journal`](crate::CloudDataDistributor::attach_journal).
    pub fn configure(&self, durability: &DurabilityConfig) {
        *self.window.lock() = durability.group_commit_window;
        *self.checkpoint_interval.lock() = durability.checkpoint_interval.max(1);
    }

    /// Installs the durable-medium sink the group-commit leader flushes
    /// through.
    pub fn set_sink(&self, sink: Arc<dyn JournalSink>) {
        *self.sink.lock() = sink;
    }

    /// Routes the journal's `fsync_total` / `fsync_waits` /
    /// `journal_batch_ops_count` / `journal_fsync_wait_us` telemetry to
    /// `tel`.
    pub fn set_telemetry(&self, tel: TelemetryHandle) {
        *self.tel.lock() = tel;
    }

    /// Opens an op: appends its `begin` record and returns the new id.
    pub fn begin(&self, kind: OpKind, client: &str, target: &str) -> OpId {
        let mut inner = self.inner.lock();
        inner.next_op += 1;
        let op = OpId(inner.next_op);
        inner.records.push(Record::Begin {
            op,
            kind,
            client: client.to_string(),
            target: target.to_string(),
        });
        op
    }

    /// Logs freshly allocated vids for `op`. Must happen *before* the
    /// corresponding provider uploads — that ordering is what makes
    /// orphans enumerable after a crash.
    pub fn log_alloc(&self, op: OpId, vids: &[VirtualId]) {
        if vids.is_empty() {
            return;
        }
        self.inner.lock().records.push(Record::Alloc {
            op,
            vids: vids.to_vec(),
        });
    }

    /// Logs vids `op` intends to delete once committed (roll-forward set
    /// for removals; whatever a migration, a repair or a chunk-level verb
    /// supersedes).
    pub fn log_doom(&self, op: OpId, vids: &[VirtualId]) {
        if vids.is_empty() {
            return;
        }
        self.inner.lock().records.push(Record::Doom {
            op,
            vids: vids.to_vec(),
        });
    }

    /// Appends `op`'s commit record carrying its state delta, **without**
    /// flushing it. Returns the close sequence to pass to
    /// [`sync`](Self::sync) and whether a checkpoint compaction is due
    /// (every [`checkpoint_interval`] commits).
    ///
    /// Until the sequence is covered by a flush the record is not durable:
    /// the op still reads as [`OpStatus::Dangling`].
    ///
    /// [`checkpoint_interval`]: crate::config::DurabilityConfig::checkpoint_interval
    pub fn commit_prepare(&self, op: OpId, delta: String) -> (u64, bool) {
        let interval = *self.checkpoint_interval.lock();
        let mut inner = self.inner.lock();
        let seq = inner.append_close(op, true, delta);
        inner.commits_since_checkpoint += 1;
        let due = inner.commits_since_checkpoint >= interval;
        if due {
            inner.commits_since_checkpoint = 0;
        }
        (seq, due)
    }

    /// True when at least two unflushed close records are already pending
    /// — the group-commit linger has nothing left to buy.
    fn batch_formed(&self) -> bool {
        let appended = self.inner.lock().closes_appended;
        let flushed = self
            .flush
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flushed;
        appended.saturating_sub(flushed) >= 2
    }

    /// Blocks until a group flush covering close sequence `seq` has run.
    ///
    /// The first caller to find no flush in flight becomes the leader: it
    /// lingers for the configured group-commit window (default zero),
    /// drains **every** pending close record in one [`JournalSink`] call,
    /// and wakes the followers. Followers count into `fsync_waits` and
    /// observe their blocked time into `journal_fsync_wait_us`; the
    /// drain size lands in the `journal_batch_ops_count` histogram.
    pub fn sync(&self, seq: u64) {
        let tel = self.tel.lock().clone();
        let mut waited: Option<std::time::Instant> = None;
        let mut g = self.flush.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if g.flushed >= seq {
                if let Some(since) = waited {
                    tel.incr("fsync_waits");
                    tel.observe_micros("journal_fsync_wait_us", since.elapsed());
                }
                return;
            }
            if g.leader {
                waited.get_or_insert_with(clock::monotonic_now);
                g = self
                    .flush_cv
                    .wait(g)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            g.leader = true;
            drop(g);

            let window = *self.window.lock();
            if window > Duration::ZERO && !self.batch_formed() {
                // Linger: let concurrent commits pile into this window.
                // Skipped when a batch has already formed behind this
                // leader — lingering then would only delay an fsync that
                // is already amortized.
                std::thread::sleep(window);
            }

            // Drain every unflushed close record in one batch.
            let (batch, n, upto) = {
                let mut inner = self.inner.lock();
                let mut batch = String::new();
                let mut n = 0u64;
                for r in inner.records.iter_mut() {
                    if let Record::Close {
                        op,
                        committed,
                        delta,
                        stage: stage @ Stage::Appended,
                    } = r
                    {
                        *stage = Stage::Durable;
                        close_line(&mut batch, *op, *committed, delta);
                        n += 1;
                    }
                }
                (batch, n, inner.closes_appended)
            };
            if n > 0 {
                let sink = Arc::clone(&self.sink.lock());
                sink.persist(&batch);
                tel.observe("journal_batch_ops_count", n);
            }
            tel.incr("fsync_total");

            let mut g2 = self.flush.lock().unwrap_or_else(PoisonError::into_inner);
            g2.flushed = g2.flushed.max(upto);
            g2.leader = false;
            self.flush_cv.notify_all();
            if let Some(since) = waited {
                tel.incr("fsync_waits");
                tel.observe_micros("journal_fsync_wait_us", since.elapsed());
            }
            return;
        }
    }

    /// Closes `op` as committed and flushes immediately:
    /// [`commit_prepare`](Self::commit_prepare) + [`sync`](Self::sync).
    /// Returns whether a checkpoint compaction is due.
    pub fn commit(&self, op: OpId, delta: String) -> bool {
        let (seq, due) = self.commit_prepare(op, delta);
        self.sync(seq);
        due
    }

    /// Closes `op` as aborted (the live distributor already rolled it
    /// back), carrying the post-rollback delta, and flushes immediately.
    /// With the rollback behind it the op is released at once.
    pub fn abort(&self, op: OpId, delta: String) {
        let seq = self.inner.lock().append_close(op, false, delta);
        self.sync(seq);
        self.release(op);
    }

    /// Marks `op` — durably closed — as done with its records: its bracket
    /// has deleted what the op doomed, so the next compaction may fold its
    /// delta and drop them. Until then they survive every compaction: the
    /// `doom` record is all that names those objects if the process dies
    /// before the deletes.
    pub(crate) fn release(&self, op: OpId) {
        let mut inner = self.inner.lock();
        // The op has just closed: its record is at the tail.
        let close = inner.records.iter_mut().rev().find_map(|r| match r {
            Record::Close { op: o, stage, .. } if *o == op => Some(stage),
            _ => None,
        });
        if let Some(stage @ Stage::Durable) = close {
            *stage = Stage::Released;
        }
    }

    /// Seeds the checkpoint of a journal being attached. Every later
    /// change to it is a fold.
    pub(crate) fn set_checkpoint(&self, image: StateImage) {
        self.inner.lock().image = image;
    }

    /// Runs `f` on the checkpoint image.
    pub(crate) fn with_checkpoint<T>(&self, f: impl FnOnce(&StateImage) -> T) -> T {
        f(&self.inner.lock().image)
    }

    /// The checkpoint as snapshot text (empty string if none yet).
    pub fn checkpoint(&self) -> String {
        self.with_checkpoint(StateImage::render)
    }

    /// Current record count.
    pub fn record_len(&self) -> usize {
        self.inner.lock().records.len()
    }

    /// Checkpoint compaction: folds the deltas of released ops into the
    /// checkpoint image and drops those ops' records. Runs under the
    /// journal's own mutex and touches nothing else — no table, no shard
    /// lock — so it costs what the folded rows cost.
    ///
    /// Deltas are state, so they fold in close order and never out of it:
    /// the fold stops at the first close record that is not yet released
    /// (unflushed, or its bracket still deleting). Folding a later op's
    /// rows past it would let its older rows overwrite them at the next
    /// compaction. Ops without a close record — dangling, still running —
    /// hold nothing up. Returns the number of delta rows folded
    /// (`journal_compaction_rows_total`).
    pub(crate) fn compact(&self) -> u64 {
        let tel = self.tel.lock().clone();
        let _fold = span!(tel, "journal.compact");
        let started = clock::monotonic_now();
        let rows = {
            let mut inner = self.inner.lock();
            let JournalInner { image, records, .. } = &mut *inner;
            let mut folded = HashSet::new();
            let mut rows = 0u64;
            for r in records.iter() {
                let Record::Close {
                    op, delta, stage, ..
                } = r
                else {
                    continue;
                };
                if *stage != Stage::Released {
                    break;
                }
                for line in delta.lines().filter(|l| !l.is_empty()) {
                    let placed = image.fold_line(line).is_some();
                    debug_assert!(placed, "a live delta row the image cannot place: {line}");
                    rows += u64::from(placed);
                }
                folded.insert(*op);
            }
            inner.drop_ops(&folded);
            rows
        };
        tel.incr("journal_compactions_total");
        tel.add("journal_compaction_rows_total", rows);
        tel.observe_micros("journal_compaction_us", started.elapsed());
        rows
    }

    /// Recovery's delta replay: folds every durable close record's delta
    /// into the checkpoint image, in record order, each line validated
    /// first (it was read back from storage). Records are kept — recovery
    /// still needs the ops' doom lists, and a recovery that fails later
    /// must leave the journal replayable (folding twice is harmless: rows
    /// are state, applied in the same order). Returns how many lines were
    /// refused; a `full|` row — an inline snapshot earlier versions
    /// journaled — is an error: skipping it would fold every later row
    /// onto the wrong base.
    pub(crate) fn fold_durable(&self) -> Result<usize> {
        let mut inner = self.inner.lock();
        let JournalInner { image, records, .. } = &mut *inner;
        let mut refused = 0;
        for r in records.iter() {
            let Record::Close {
                op, delta, stage, ..
            } = r
            else {
                continue;
            };
            if *stage < Stage::Durable {
                continue;
            }
            for (i, line) in delta.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
                if line.starts_with("full|") {
                    return Err(bad(
                        i + 1,
                        &format!("{op}: `full|` delta rows are not replayable"),
                    ));
                }
                if image
                    .admits(line)
                    .and_then(|()| image.fold_line(line))
                    .is_none()
                {
                    refused += 1;
                }
            }
        }
        Ok(refused)
    }

    /// Drops all records of durably closed ops, released or not. Recovery
    /// calls this once it has resolved the journal — every closed op's
    /// effects are in the recovered tables, which re-seed the checkpoint
    /// when the journal is attached to them.
    pub(crate) fn drop_closed(&self) {
        let mut inner = self.inner.lock();
        let closed = (inner.records.iter())
            .filter_map(Record::close)
            .filter_map(|(op, stage)| (stage >= Stage::Durable).then_some(op))
            .collect();
        inner.drop_ops(&closed);
        // With no record of a `v2` op left, what follows is `v3`.
        if inner.records.is_empty() {
            inner.v2 = false;
        }
    }

    /// Recovery's refusal of what it cannot roll back: in a `v2` journal,
    /// a dangling `update`, `restore` or `rmchunk` that logged an intent
    /// may have overwritten objects in place, which collecting fresh vids
    /// cannot undo. Fails with [`CoreError::CorruptState`] naming the op,
    /// as a `full|` delta row does.
    pub(crate) fn refuse_overwrites_in_place(&self) -> Result<()> {
        if !self.inner.lock().v2 {
            return Ok(());
        }
        let chunk_level = [OpKind::Update, OpKind::Restore, OpKind::RemoveChunk];
        let overwrote = self.ops().into_iter().find(|o| {
            o.status == OpStatus::Dangling
                && chunk_level.contains(&o.kind)
                && !(o.fresh.is_empty() && o.doomed.is_empty())
        });
        overwrote.map_or(Ok(()), |o| {
            let why = format!("{}: a dangling `{}` of a v2 journal", o.id, o.kind);
            Err(bad(0, &format!("{why} overwrote objects in place")))
        })
    }

    /// Removes close records that were appended but never covered by a
    /// group flush — after a crash, what never reached the sink is gone.
    /// Recovery calls this first; the affected ops read as dangling.
    pub fn discard_unflushed(&self) {
        (self.inner.lock().records).retain(|r| !matches!(r.close(), Some((_, Stage::Appended))));
    }

    /// Folds the record stream into per-op views, in `begin` order.
    /// Unflushed close records do not count: their ops read as dangling.
    pub fn ops(&self) -> Vec<OpView> {
        let inner = self.inner.lock();
        let mut views: Vec<OpView> = Vec::new();
        for r in &inner.records {
            match r {
                Record::Begin {
                    op,
                    kind,
                    client,
                    target,
                } => views.push(OpView {
                    id: *op,
                    kind: *kind,
                    client: client.clone(),
                    target: target.clone(),
                    fresh: Vec::new(),
                    doomed: Vec::new(),
                    status: OpStatus::Dangling,
                }),
                Record::Alloc { op, vids } => {
                    if let Some(v) = views.iter_mut().find(|v| v.id == *op) {
                        v.fresh.extend_from_slice(vids);
                    }
                }
                Record::Doom { op, vids } => {
                    if let Some(v) = views.iter_mut().find(|v| v.id == *op) {
                        v.doomed.extend_from_slice(vids);
                    }
                }
                Record::Close {
                    op,
                    committed,
                    stage,
                    ..
                } => {
                    if *stage >= Stage::Durable {
                        if let Some(v) = views.iter_mut().find(|v| v.id == *op) {
                            v.status = if *committed {
                                OpStatus::Committed
                            } else {
                                OpStatus::Aborted
                            };
                        }
                    }
                }
            }
        }
        views
    }

    /// Serializes the journal to its versioned text form. Unflushed close
    /// records are omitted — the text form models what durable storage
    /// would hold after a crash.
    pub fn export(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        let version = if inner.v2 { 2 } else { VERSION };
        out.push_str(&format!("fragcloud-journal|v{version}\n"));
        out.push_str("checkpoint|");
        esc_into(&mut out, &inner.image.render());
        out.push('\n');
        for r in &inner.records {
            match r {
                Record::Begin {
                    op,
                    kind,
                    client,
                    target,
                } => out.push_str(&format!(
                    "begin|{}|{}|{}|{}\n",
                    op.0,
                    kind.tag(),
                    esc(client),
                    esc(target)
                )),
                Record::Alloc { op, vids } => {
                    out.push_str(&format!("alloc|{}|{}\n", op.0, join_vids(vids)))
                }
                Record::Doom { op, vids } => {
                    out.push_str(&format!("doom|{}|{}\n", op.0, join_vids(vids)))
                }
                Record::Close {
                    op,
                    committed,
                    delta,
                    stage,
                } => {
                    if *stage >= Stage::Durable {
                        close_line(&mut out, *op, *committed, delta);
                    }
                }
            }
        }
        out.push_str("end\n");
        out
    }

    /// Parses a journal back from its text form. Reports malformed input
    /// through [`CoreError::CorruptState`], like the snapshot parser.
    pub fn parse(text: &str) -> Result<Journal> {
        let mut lines = text.lines().enumerate();
        let (ln, header) = lines.next().ok_or_else(|| bad(0, "empty journal"))?;
        let v2 = match header.strip_prefix("fragcloud-journal|v") {
            Some("2") => true,
            Some(v) if v == VERSION.to_string() => false,
            _ => return Err(bad(ln + 1, "bad journal header/version")),
        };
        let (ln, cline) = lines.next().ok_or_else(|| bad(0, "truncated journal"))?;
        let checkpoint = cline
            .strip_prefix("checkpoint|")
            .ok_or_else(|| bad(ln + 1, "expected checkpoint"))?;
        // An empty checkpoint is a journal no distributor ever attached.
        let image = if checkpoint.is_empty() {
            StateImage::default()
        } else {
            StateImage::parse(&unesc(checkpoint))?
        };

        let mut records = Vec::new();
        let mut next_op = 0u64;
        let mut closes = 0u64;
        let mut saw_end = false;
        for (ln, line) in lines {
            let line_no = ln + 1;
            if line == "end" {
                saw_end = true;
                break;
            }
            let f: Vec<&str> = line.split('|').collect();
            let op_of = |s: &str| -> Result<OpId> {
                s.parse::<u64>()
                    .map(OpId)
                    .map_err(|_| bad(line_no, "expected op id"))
            };
            match f[0] {
                "begin" => {
                    if f.len() != 5 {
                        return Err(bad(line_no, "expected begin record"));
                    }
                    let op = op_of(f[1])?;
                    next_op = next_op.max(op.0);
                    records.push(Record::Begin {
                        op,
                        kind: OpKind::parse(f[2], line_no)?,
                        client: unesc(f[3]),
                        target: unesc(f[4]),
                    });
                }
                "alloc" | "doom" => {
                    if f.len() != 3 {
                        return Err(bad(line_no, "expected vid-list record"));
                    }
                    let op = op_of(f[1])?;
                    let vids = parse_vids(f[2], line_no)?;
                    records.push(if f[0] == "alloc" {
                        Record::Alloc { op, vids }
                    } else {
                        Record::Doom { op, vids }
                    });
                }
                "commit" | "abort" => {
                    if f.len() != 3 {
                        return Err(bad(line_no, "expected op-close record"));
                    }
                    closes += 1;
                    // Parsed records were durable by definition; whether
                    // their ops' deletes ran is not on record.
                    records.push(Record::Close {
                        op: op_of(f[1])?,
                        committed: f[0] == "commit",
                        delta: unesc(f[2]),
                        stage: Stage::Durable,
                    });
                }
                other => return Err(bad(line_no, &format!("unexpected record {other:?}"))),
            }
        }
        if !saw_end {
            return Err(bad(0, "missing end marker"));
        }
        Ok(Journal {
            inner: Mutex::new(JournalInner {
                v2,
                next_op,
                image,
                records,
                closes_appended: closes,
                commits_since_checkpoint: 0,
            }),
            flush: StdMutex::new(FlushState {
                flushed: closes,
                leader: false,
            }),
            ..Default::default()
        })
    }
}

fn join_vids(vids: &[VirtualId]) -> String {
    vids.iter()
        .map(|v| v.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_vids(s: &str, line_no: usize) -> Result<Vec<VirtualId>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|x| {
            x.parse::<u64>()
                .map(VirtualId)
                .map_err(|_| bad(line_no, "expected vid"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vids(xs: &[u64]) -> Vec<VirtualId> {
        xs.iter().map(|&x| VirtualId(x)).collect()
    }

    /// A one-shard, one-client snapshot with nothing stored.
    const SNAPSHOT: &str = "fragcloud-state|v2\nvids|3\nshards|1\nproviders|1\nprovider|cp0\n\
        clients|1\nclient|c\npassword|pw|3\nshard|0\nchunks|0\nstripes|0\nfiles|0\nend\n";
    const CHUNK_ROW: &str = "7|1|0|-|||10|10|-|d0|live";

    fn attached() -> Journal {
        let j = Journal::new();
        j.set_checkpoint(StateImage::parse(SNAPSHOT).unwrap());
        j
    }

    #[test]
    fn export_parse_roundtrip() {
        let j = attached();
        let a = j.begin(OpKind::Put, "cli|ent", "fi%le");
        j.log_alloc(a, &vids(&[10, 11]));
        j.log_alloc(a, &vids(&[12]));
        j.commit(a, "chunk|0|0|some|row\nvids|12\n".to_string());
        let b = j.begin(OpKind::Remove, "c", "gone");
        j.log_doom(b, &vids(&[10]));
        // b left dangling: the crash case.

        let text = j.export();
        assert!(text.starts_with("fragcloud-journal|v3\n"));
        assert!(text.ends_with("end\n"));
        let back = Journal::parse(&text).unwrap();
        assert_eq!(back.checkpoint(), SNAPSHOT);
        let ops = back.ops();
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].id, a);
        assert_eq!(ops[0].kind, OpKind::Put);
        assert_eq!(ops[0].client, "cli|ent");
        assert_eq!(ops[0].target, "fi%le");
        assert_eq!(ops[0].fresh, vids(&[10, 11, 12]));
        assert_eq!(ops[0].status, OpStatus::Committed);
        assert_eq!(ops[1].status, OpStatus::Dangling);
        assert_eq!(ops[1].doomed, vids(&[10]));
        // The delta survives the roundtrip verbatim.
        assert!(text.contains("commit|1|chunk%7C0%7C0%7Csome%7Crow%0Avids%7C12%0A\n"));
        assert_eq!(back.export(), text);

        // A re-parsed journal keeps allocating fresh op ids.
        let c = back.begin(OpKind::Repair, "", "stripes");
        assert!(c.0 > b.0);
    }

    #[test]
    fn chunk_level_kinds_roundtrip_under_their_tags() {
        let j = Journal::new();
        let kinds = [
            (OpKind::Update, "update"),
            (OpKind::Restore, "restore"),
            (OpKind::RemoveChunk, "rmchunk"),
        ];
        for (kind, _) in kinds {
            j.begin(kind, "c", "some#file#3");
        }
        let text = j.export();
        assert!(text.starts_with("fragcloud-journal|v3\n"), "still v3");
        for (_, tag) in kinds {
            assert!(text.contains(&format!("|{tag}|c|some#file#3\n")), "{tag}");
        }
        let back = Journal::parse(&text).unwrap();
        let parsed: Vec<OpKind> = back.ops().iter().map(|o| o.kind).collect();
        assert_eq!(parsed, kinds.map(|(kind, _)| kind));
    }

    #[test]
    fn abort_marks_op_aborted() {
        let j = Journal::new();
        let a = j.begin(OpKind::Put, "c", "f");
        j.log_alloc(a, &vids(&[7]));
        j.abort(a, "chunk|0|3|rolled|back".to_string());
        assert_eq!(j.ops()[0].status, OpStatus::Aborted);
        assert!(j
            .export()
            .contains("abort|1|chunk%7C0%7C3%7Crolled%7Cback\n"));
    }

    #[test]
    fn compact_drops_closed_ops_keeps_dangling() {
        let j = attached();
        let a = j.begin(OpKind::Put, "c", "f1");
        j.commit(a, format!("vids|9\nchunk|0|0|{CHUNK_ROW}\n"));
        j.release(a);
        let b = j.begin(OpKind::Put, "c", "f2");
        j.log_alloc(b, &vids(&[5]));
        assert_eq!(j.compact(), 2, "two delta rows folded");
        let ops = j.ops();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].id, b);
        assert_eq!(ops[0].status, OpStatus::Dangling);
        assert!(!j.export().contains("commit|"));
        // a's rows are the checkpoint's now.
        let folded = SNAPSHOT
            .replace("vids|3", "vids|9")
            .replace("chunks|0\n", &format!("chunks|1\nchunk|{CHUNK_ROW}\n"));
        assert_eq!(j.checkpoint(), folded);
    }

    /// Release before fold: an op whose commit is durable but whose
    /// bracket has not yet deleted what it doomed keeps every record — the
    /// doom list above all — through a compaction another op runs; only
    /// once released is it folded. (A compaction that dropped it here
    /// would leave the doomed objects with no row and no record if the
    /// process died before the deletes.)
    #[test]
    fn compaction_spares_a_committed_op_until_it_is_released() {
        let j = attached();
        let a = j.begin(OpKind::Put, "c", "f1");
        j.commit(a, "vids|4\n".to_string());
        j.release(a);
        let b = j.begin(OpKind::Remove, "c", "f0");
        j.log_doom(b, &vids(&[10, 11]));
        j.commit(b, "vids|8\nfiledel|0|c|f0\n".to_string());
        // b: committed and synced, its deletes still ahead. c closes after
        // it and is done; its bracket compacts.
        let c = j.begin(OpKind::Client, "zed", "register");
        j.commit(c, "vids|8\nclient|zed|\n".to_string());
        j.release(c);
        assert_eq!(j.compact(), 1, "only a's row");
        let ops = j.ops();
        assert_eq!(ops.len(), 2, "a folded, b kept — and c behind it");
        assert_eq!((ops[0].id, ops[0].status), (b, OpStatus::Committed));
        assert_eq!(ops[0].doomed, vids(&[10, 11]));
        // Close order is fold order: c's rows wait for b's.
        assert_eq!(ops[1].id, c);
        let checkpoint = j.checkpoint();
        assert!(checkpoint.contains("vids|4\n") && !checkpoint.contains("client|zed\n"));
        // What a crash now leaves on storage still names the doomed ids.
        assert!(j.export().contains("doom|2|10,11\n"));

        j.release(b);
        assert_eq!(j.compact(), 4);
        assert!(j.ops().is_empty());
        let checkpoint = j.checkpoint();
        assert!(checkpoint.contains("vids|8\n") && checkpoint.contains("client|zed\n"));
    }

    /// An aborted op's rollback precedes its abort record: it is released
    /// as it closes. An unflushed close is never folded.
    #[test]
    fn compaction_folds_aborts_and_leaves_unflushed_closes() {
        let j = attached();
        let a = j.begin(OpKind::Put, "c", "f1");
        j.abort(a, format!("vids|5\nchunk|0|1|{CHUNK_ROW}\n"));
        let b = j.begin(OpKind::Put, "c", "f2");
        let (seq, _) = j.commit_prepare(b, "vids|6\n".to_string());
        assert_eq!(j.compact(), 2);
        assert_eq!(j.ops().len(), 1, "b still open");
        // The gap below a's chunk reads as a placeholder tombstone.
        let checkpoint = j.checkpoint();
        assert!(checkpoint.contains("vids|5\n"));
        assert!(checkpoint.contains(&format!(
            "chunks|2\nchunk|18446744073709551615|0|0|-|||0|0|-|d0|removed\nchunk|{CHUNK_ROW}\n"
        )));
        j.sync(seq);
        j.release(b);
        j.compact();
        assert!(j.checkpoint().contains("vids|6\n"));
    }

    #[test]
    fn unflushed_commits_are_not_durable() {
        let j = Journal::new();
        let a = j.begin(OpKind::Put, "c", "f");
        j.log_alloc(a, &vids(&[3]));
        let (seq, _) = j.commit_prepare(a, "delta-a".to_string());
        // Before sync: dangling everywhere a reader looks.
        assert_eq!(j.ops()[0].status, OpStatus::Dangling);
        assert!(!j.export().contains("commit|"));
        // The crash path: discard, and the record is gone for good.
        j.discard_unflushed();
        j.sync(seq); // a flush with nothing to drain is harmless
        assert_eq!(j.ops()[0].status, OpStatus::Dangling);

        // The happy path on a fresh op: prepare + sync = durable.
        let b = j.begin(OpKind::Put, "c", "g");
        let (seq, _) = j.commit_prepare(b, "delta-b".to_string());
        j.sync(seq);
        let ops = j.ops();
        assert_eq!(ops[1].status, OpStatus::Committed);
        assert!(j.export().contains("commit|"));
    }

    #[test]
    fn checkpoint_interval_signals_compaction() {
        let j = Journal::new();
        j.configure(&DurabilityConfig::default().with_checkpoint_interval(3));
        let mut dues = Vec::new();
        for i in 0..7 {
            let op = j.begin(OpKind::Put, "c", &format!("f{i}"));
            dues.push(j.commit(op, String::new()));
        }
        assert_eq!(dues, vec![false, false, true, false, false, true, false]);
    }

    #[test]
    fn group_commit_batches_concurrent_closes() {
        use std::sync::atomic::{AtomicU64, Ordering};

        struct CountingSink(AtomicU64);
        impl JournalSink for CountingSink {
            fn persist(&self, _batch: &str) {
                self.0.fetch_add(1, Ordering::SeqCst);
                // Make the flush slow enough that other threads pile up.
                std::thread::sleep(Duration::from_millis(2));
            }
        }

        let j = Arc::new(Journal::new());
        let sink = Arc::new(CountingSink(AtomicU64::new(0)));
        j.set_sink(Arc::clone(&sink) as Arc<dyn JournalSink>);
        let tel = TelemetryHandle::enabled();
        j.set_telemetry(tel.clone());

        const N: usize = 16;
        crossbeam::thread::scope(|s| {
            for i in 0..N {
                let j = Arc::clone(&j);
                s.spawn(move |_| {
                    let op = j.begin(OpKind::Put, "c", &format!("f{i}"));
                    let (seq, _) = j.commit_prepare(op, format!("delta-{i}"));
                    j.sync(seq);
                });
            }
        })
        .expect("no panics");

        // Every op is durable…
        assert!(j.ops().iter().all(|o| o.status == OpStatus::Committed));
        // …but the sink saw strictly fewer flushes than closes: at least
        // one batch carried more than one record.
        let flushes = sink.0.load(Ordering::SeqCst);
        assert!(flushes >= 1);
        assert!(
            flushes < N as u64,
            "expected batching, got {flushes} flushes for {N} closes"
        );
        let reg = tel.registry().expect("enabled");
        assert_eq!(reg.counter_total("fsync_total"), flushes);
        let batched: u64 = reg.histogram("journal_batch_ops_count", "").count();
        assert!(batched >= 1);
        // Every follower that counted a wait also observed its duration.
        assert_eq!(
            reg.histogram("journal_fsync_wait_us", "").count(),
            reg.counter_total("fsync_waits")
        );
    }

    #[test]
    fn faulty_sink_drops_or_tears_exactly_the_scheduled_flush() {
        use parking_lot::Mutex as PlMutex;

        #[derive(Default)]
        struct RecordingSink(PlMutex<Vec<String>>);
        impl JournalSink for RecordingSink {
            fn persist(&self, batch: &str) {
                self.0.lock().push(batch.to_string());
            }
        }

        // Drop: flush 2 of 3 vanishes; 1 and 3 arrive intact.
        let sink = FaultySink::new(RecordingSink::default(), SinkFault::Drop, 2);
        sink.persist("one");
        sink.persist("two");
        sink.persist("three");
        assert!(sink.fired());
        assert_eq!(sink.flushes(), 3);
        assert_eq!(*sink.inner().0.lock(), vec!["one", "three"]);

        // Torn: flush 1 is cut mid-record (on a char boundary).
        let sink = FaultySink::new(RecordingSink::default(), SinkFault::Torn(4), 1);
        sink.persist("commit|1|é");
        sink.persist("commit|2|x");
        assert!(sink.fired());
        assert_eq!(*sink.inner().0.lock(), vec!["comm", "commit|2|x"]);
        // A cut landing inside a multi-byte char backs off to the boundary.
        let sink = FaultySink::new(RecordingSink::default(), SinkFault::Torn(2), 1);
        sink.persist("aé");
        assert_eq!(*sink.inner().0.lock(), vec!["a"]);

        // `at_flush: 0` never fires.
        let sink = FaultySink::new(RecordingSink::default(), SinkFault::Drop, 0);
        sink.persist("only");
        assert!(!sink.fired());
        assert_eq!(*sink.inner().0.lock(), vec!["only"]);
    }

    #[test]
    fn journal_survives_faulty_sink() {
        // The sink losing a flush must not corrupt the in-memory journal:
        // ops still read back Committed, and the export still parses.
        let j = Journal::new();
        j.set_sink(Arc::new(FaultySink::new(NoopSink, SinkFault::Drop, 1)));
        for i in 0..3 {
            let op = j.begin(OpKind::Put, "c", &format!("f{i}"));
            j.commit(op, String::new());
        }
        assert!(j.ops().iter().all(|o| o.status == OpStatus::Committed));
        Journal::parse(&j.export()).expect("export still parses");
    }

    #[test]
    fn parse_errors_are_corrupt_state() {
        for garbage in [
            "",
            "fragcloud-journal|v999\ncheckpoint|\nend\n",
            "fragcloud-journal|v1\ncheckpoint|\nend\n",
            "fragcloud-journal|v3\nno-checkpoint\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\nbegin|1|teleport|c|f\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\nalloc|1|notanumber\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\ncommit|1\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\nbegin|1|put|c|f\n",
        ] {
            let err = Journal::parse(garbage).unwrap_err();
            assert!(
                matches!(err, CoreError::CorruptState { .. }),
                "{garbage:?} -> {err:?}"
            );
        }
    }

    /// A `v2` journal parses and exports as `v2` until recovery has
    /// resolved its ops; only a dangling chunk-level op that logged an
    /// intent is refused, by name.
    #[test]
    fn a_v2_journal_refuses_only_its_dangling_chunk_level_intents() {
        let v2 = "fragcloud-journal|v2\ncheckpoint|\nbegin|1|put|c|f\nalloc|1|4\n\
            begin|2|update|c|f#0\nbegin|3|rmchunk|c|f#1\ndoom|3|5\nend\n";
        let j = Journal::parse(v2).unwrap();
        assert_eq!(j.export(), v2);
        let err = j.refuse_overwrites_in_place().unwrap_err();
        assert!(
            matches!(&err, CoreError::CorruptState { why, .. } if why.starts_with("op3: a dangling `rmchunk`")),
            "{err:?}"
        );
        // Without op 3, the v2 journal's dangling ops are all rollbacks.
        let j = Journal::parse(&v2.replace("doom|3|5\n", "")).unwrap();
        j.refuse_overwrites_in_place().unwrap();
        // Resolved, it is a v3 journal.
        for op in j.ops() {
            j.abort(op.id, String::new());
        }
        j.drop_closed();
        assert!(j.export().starts_with("fragcloud-journal|v3\n"));
    }

    #[test]
    fn empty_vid_lists_are_not_recorded() {
        let j = Journal::new();
        let a = j.begin(OpKind::Put, "c", "f");
        j.log_alloc(a, &[]);
        j.log_doom(a, &[]);
        // Only the begin line plus header/checkpoint/end.
        assert_eq!(j.export().lines().count(), 4);
    }
}
