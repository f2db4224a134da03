//! Append-only write-ahead journal for the distributor: a checkpoint, the
//! commit records of the ops since it, and a virtual-id lease — with
//! cross-operation group commit.
//!
//! [`persist`](crate::persist) gives durability of *quiescent* table
//! state; this module makes the mutating operations themselves
//! crash-consistent. Every state-mutating operation (`put_file`,
//! `remove_file`, `repair`, rebalance moves, `update_chunk`,
//! `restore_snapshot`, `remove_chunk`, client registration and password
//! changes) runs in the one bracket of [`mutation`](crate::mutation), and
//! closes with one **commit** record: a *delta*, the table rows it touched
//! as they stand under the guard that published them (serialized by the
//! distributor; the journal treats the payload as opaque text).
//!
//! Nothing else about an op is journaled. Objects are write-once — every
//! verb stores under fresh vids and deletes what it supersedes only after
//! its commit is durable — so the durable rows alone say which objects
//! are live: [`recovery`](crate::recovery) folds the commits and deletes
//! every object a provider lists that no recovered row names. What the
//! rows cannot say is how far the crashed process got with the allocator,
//! and a recovered distributor must never store under a vid an orphan of
//! the crashed one still holds (an unswept provider, offline at recovery,
//! may hold one for a long time). That is the **lease**: before any vid
//! past it is stored, the allocator's count is rounded up to the next
//! multiple of [`VID_LEASE_BLOCK`], journaled and flushed
//! (`Journal::lease`); recovery resumes the allocator past it.
//!
//! ## Compaction is a fold
//!
//! The checkpoint is held as a row-keyed image of the snapshot text
//! ([`persist`]'s `StateImage`, which owns the format). Every
//! [`checkpoint_interval`](crate::config::DurabilityConfig::checkpoint_interval)
//! commits the bracket calls `compact`: under the journal's own mutex,
//! each durable commit's delta lines are copied over the image rows they
//! name, in commit order, and the records are dropped. Nothing is
//! exported, no table shard is locked, and the cost is that of the rows
//! the folded commits touched — not of the state the distributor holds.
//! [`checkpoint`](Journal::checkpoint) and [`export`](Journal::export)
//! render the image to the `v2` snapshot text on demand. The lease is
//! not folded: the checkpoint stays the state the tables export.
//!
//! Record grammar (one record per line, `|`-separated, the same `%xx`
//! escaping as `persist`):
//!
//! ```text
//! fragcloud-journal|v4
//! checkpoint|<escaped full persist snapshot>
//! lease|<vid count>              # no vid past it stored before this
//!                                # record was durable
//! commit|<op>|<escaped delta>
//! end
//! ```
//!
//! `v2` and `v3` journals — written before the lease, with per-op
//! `begin` / `alloc` / `doom` / `abort` records — still parse. Their
//! `abort`s fold like commits; their `begin` / `alloc` lines are reduced
//! to a lease past the `alloc`s of the ops left dangling, and, in a `v2`
//! journal, to the refusal of a dangling chunk-level op that logged an
//! intent (its verb overwrote objects in place, which no sweep undoes).
//!
//! ## Group commit
//!
//! Records are made durable in **batches**: [`commit_prepare`] appends a
//! commit record (cheap, under the journal mutex) and returns a sequence
//! number; [`sync`] blocks until a flush covering that sequence has run.
//! The first syncer becomes the *leader*: it optionally lingers for the
//! configured group-commit window (skipped when other records are already
//! pending — the batch the linger exists to gather has formed), then
//! drains every pending record into a single [`JournalSink::persist`]
//! call — the modeled fsync — so N concurrent operations pay ~1 flush
//! instead of N. Followers that arrive while a flush is in flight
//! piggyback on it (`fsync_waits` counts them, `journal_fsync_wait_us`
//! observes how long they blocked; `journal_batch_ops_count` observes the
//! drain size). A lease record takes a sequence number too, and rides the
//! same flushes.
//!
//! A record that was appended but **not yet flushed** is not durable:
//! [`export`](Journal::export) omits it, compaction leaves it alone, and
//! recovery begins by
//! [`discard_unflushed`](Journal::discard_unflushed) — exactly the "crash
//! between batch intent and group fsync" window of the crash matrix. An
//! operation is only acknowledged to its caller after its record is
//! flushed, so *acked ⇒ durable* holds under group commit too.
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
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::time::Duration;

/// Journal format version: checkpoint, lease and commits. [`Journal::parse`]
/// also reads the pre-lease `v2` and `v3`.
const VERSION: u32 = 4;

/// Vids one lease record covers: the allocator journals a lease once per
/// this many ids, rounded to a multiple of it.
pub const VID_LEASE_BLOCK: u64 = 1024;

/// Identifier of one journaled operation (unique per journal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct OpId(pub u64);

impl std::fmt::Display for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Which mutation path an op belongs to: the telemetry label of its
/// bracket (`journal_ops_total{kind}`). A journal records no op's kind;
/// [`Journal::parse`] reads it from the `begin` lines of pre-lease
/// journals only, to refuse a `v2` chunk-level op left dangling.
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
/// log is designed around: a dropped or torn batch rolls the affected ops
/// back — it never invents state.
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

/// One commit record.
#[derive(Debug, Clone)]
struct Commit {
    op: OpId,
    delta: String,
    /// Covered by a group flush: the op is committed for good.
    durable: bool,
}

/// Appends a commit record's text form: `commit|<op>|<escaped delta>`.
fn commit_line(out: &mut String, op: OpId, delta: &str) {
    out.push_str(&format!("commit|{}|{}\n", op.0, esc(delta)));
}

#[derive(Default)]
struct JournalInner {
    next_op: u64,
    /// The checkpoint, row by row (empty until a distributor attaches).
    image: StateImage,
    commits: Vec<Commit>,
    /// The vid count the last appended lease covers, its record's
    /// sequence, and the lease a flush has drained (the durable one).
    lease: u64,
    lease_seq: u64,
    durable_lease: u64,
    /// Records appended so far — the group-commit sequence space.
    appended: u64,
    /// Commits since the last checkpoint compaction.
    commits_since_checkpoint: u32,
    /// A pre-lease `v2` journal's dangling chunk-level op that logged an
    /// intent: what recovery refuses, by name. Held in memory only — a
    /// refused journal never recovers, so nothing re-attaches or exports
    /// it.
    refusal: Option<String>,
}

/// Group-commit flush progress, guarded by a std mutex so the leader's
/// followers can park on the condvar.
struct FlushState {
    /// Highest record sequence covered by a completed flush.
    flushed: u64,
    /// Whether a leader currently owns the flush.
    leader: bool,
}

/// The append-only write-ahead journal.
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

    /// Hands out the id of a new op. Nothing is recorded: the op's commit
    /// is all the journal ever holds of it.
    pub fn begin(&self, _kind: OpKind, _client: &str, _target: &str) -> OpId {
        let mut inner = self.inner.lock();
        inner.next_op += 1;
        OpId(inner.next_op)
    }

    /// Records nothing: a vid is covered by the lease (`Journal::lease`),
    /// not by a per-op record. Kept for `fragperf`'s replay of the journal
    /// commit cost until that replay goes (ROADMAP item 5b).
    pub fn log_alloc(&self, _op: OpId, _vids: &[VirtualId]) {}

    /// Makes sure a durable lease covers the first `allocated` vids the
    /// allocator handed out: when `allocated` is past the current lease,
    /// appends a new one at the next multiple of [`VID_LEASE_BLOCK`]; then
    /// waits until the lease covering it is flushed. The caller stores
    /// none of those vids before this returns.
    pub(crate) fn lease(&self, allocated: u64) {
        let seq = {
            let mut inner = self.inner.lock();
            if allocated > inner.lease {
                inner.lease = allocated.next_multiple_of(VID_LEASE_BLOCK);
                inner.appended += 1;
                inner.lease_seq = inner.appended;
            }
            inner.lease_seq
        };
        self.sync(seq);
    }

    /// Appends `op`'s commit record carrying its state delta, **without**
    /// flushing it. Returns the record's sequence to pass to
    /// [`sync`](Self::sync) and whether a checkpoint compaction is due
    /// (every [`checkpoint_interval`] commits).
    ///
    /// Until the sequence is covered by a flush the record is not durable.
    ///
    /// [`checkpoint_interval`]: crate::config::DurabilityConfig::checkpoint_interval
    pub fn commit_prepare(&self, op: OpId, delta: String) -> (u64, bool) {
        let interval = *self.checkpoint_interval.lock();
        let mut inner = self.inner.lock();
        inner.commits.push(Commit {
            op,
            delta,
            durable: false,
        });
        inner.appended += 1;
        inner.commits_since_checkpoint += 1;
        let due = inner.commits_since_checkpoint >= interval;
        if due {
            inner.commits_since_checkpoint = 0;
        }
        (inner.appended, due)
    }

    /// True when at least two unflushed records are already pending — the
    /// group-commit linger has nothing left to buy.
    fn batch_formed(&self) -> bool {
        let appended = self.inner.lock().appended;
        let flushed = self
            .flush
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .flushed;
        appended.saturating_sub(flushed) >= 2
    }

    /// Blocks until a group flush covering record sequence `seq` has run.
    ///
    /// The first caller to find no flush in flight becomes the leader: it
    /// lingers for the configured group-commit window (default zero),
    /// drains **every** pending record in one [`JournalSink`] call, and
    /// wakes the followers. Followers count into `fsync_waits` and
    /// observe their blocked time into `journal_fsync_wait_us`; the
    /// drain size lands in the `journal_batch_ops_count` histogram.
    pub fn sync(&self, seq: u64) {
        let mut g = self.flush.lock().unwrap_or_else(PoisonError::into_inner);
        if g.flushed >= seq {
            return;
        }
        let tel = self.tel.lock().clone();
        let mut waited: Option<std::time::Instant> = None;
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

            // Drain every unflushed record in one batch: the lease first,
            // then the commits in append order.
            let (batch, n, upto) = {
                let mut inner = self.inner.lock();
                let mut batch = String::new();
                let mut n = 0u64;
                if inner.lease > inner.durable_lease {
                    inner.durable_lease = inner.lease;
                    batch.push_str(&format!("lease|{}\n", inner.lease));
                    n += 1;
                }
                for c in inner.commits.iter_mut().filter(|c| !c.durable) {
                    c.durable = true;
                    commit_line(&mut batch, c.op, &c.delta);
                    n += 1;
                }
                (batch, n, inner.appended)
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

    /// Commit records held (durable or not) — what the next compaction
    /// folds.
    pub fn record_len(&self) -> usize {
        self.inner.lock().commits.len()
    }

    /// Checkpoint compaction: folds the deltas of durable commits into the
    /// checkpoint image and drops their records. Runs under the journal's
    /// own mutex and touches nothing else — no table, no shard lock — so
    /// it costs what the folded rows cost.
    ///
    /// Deltas are state, so they fold in commit order and never out of it:
    /// the fold stops at the first commit not yet flushed. Returns the
    /// number of delta rows folded (`journal_compaction_rows_total`).
    pub(crate) fn compact(&self) -> u64 {
        let tel = self.tel.lock().clone();
        let _fold = span!(tel, "journal.compact");
        let started = clock::monotonic_now();
        let rows = {
            let mut inner = self.inner.lock();
            let JournalInner { image, commits, .. } = &mut *inner;
            let n = commits.iter().take_while(|c| c.durable).count();
            let mut rows = 0u64;
            for c in commits.drain(..n) {
                for line in c.delta.lines().filter(|l| !l.is_empty()) {
                    let placed = image.fold_line(line).is_some();
                    debug_assert!(placed, "a live delta row the image cannot place: {line}");
                    rows += u64::from(placed);
                }
            }
            rows
        };
        tel.incr("journal_compactions_total");
        tel.add("journal_compaction_rows_total", rows);
        tel.observe_micros("journal_compaction_us", started.elapsed());
        rows
    }

    /// Recovery's replay: folds every durable commit's delta into the
    /// checkpoint image, in record order, each line validated first (it
    /// was read back from storage), then the lease as a `vids|` row, so
    /// the recovered allocator starts past it. Records are kept — a
    /// recovery that fails later must leave the journal replayable
    /// (folding twice is harmless: rows are state, applied in the same
    /// order, and `vids|` keeps its maximum). Returns how many lines were
    /// refused; a `full|` row — an inline snapshot earlier versions
    /// journaled — is an error: skipping it would fold every later row
    /// onto the wrong base.
    pub(crate) fn fold_durable(&self) -> Result<usize> {
        let mut inner = self.inner.lock();
        let JournalInner {
            image,
            commits,
            durable_lease,
            ..
        } = &mut *inner;
        let mut refused = 0;
        for c in commits.iter().filter(|c| c.durable) {
            for (i, line) in c.delta.lines().enumerate().filter(|(_, l)| !l.is_empty()) {
                if line.starts_with("full|") {
                    let why = format!("{}: `full|` delta rows are not replayable", c.op);
                    return Err(bad(i + 1, &why));
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
        image.fold_line(&format!("vids|{durable_lease}"));
        Ok(refused)
    }

    /// Drops every commit record. Recovery calls this once the recovered
    /// tables hold every commit's rows: they re-seed the checkpoint when
    /// the journal is attached to them.
    pub(crate) fn clear(&self) {
        self.inner.lock().commits.clear();
    }

    /// Recovery's refusal of what it cannot roll back: in a `v2` journal,
    /// a dangling `update`, `restore` or `rmchunk` that logged an intent
    /// may have overwritten objects in place, which no sweep undoes.
    /// Fails with [`CoreError::CorruptState`] naming the op, as a `full|`
    /// delta row does.
    pub(crate) fn refuse_overwrites_in_place(&self) -> Result<()> {
        match &self.inner.lock().refusal {
            Some(why) => Err(bad(0, why)),
            None => Ok(()),
        }
    }

    /// Removes commit records that were appended but never covered by a
    /// group flush — after a crash, what never reached the sink is gone
    /// (of the lease, only the flushed one is ever read). Recovery calls
    /// this first.
    pub fn discard_unflushed(&self) {
        self.inner.lock().commits.retain(|c| c.durable);
    }

    /// Serializes the journal to its versioned text form. Unflushed
    /// records are omitted — the text form models what durable storage
    /// would hold after a crash.
    pub fn export(&self) -> String {
        let inner = self.inner.lock();
        let mut out = format!("fragcloud-journal|v{VERSION}\ncheckpoint|");
        esc_into(&mut out, &inner.image.render());
        out.push('\n');
        if inner.durable_lease > 0 {
            out.push_str(&format!("lease|{}\n", inner.durable_lease));
        }
        for c in inner.commits.iter().filter(|c| c.durable) {
            commit_line(&mut out, c.op, &c.delta);
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
            Some("3") => false,
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

        let mut commits = Vec::new();
        let mut lease = 0u64;
        let mut next_op = 0u64;
        // A pre-lease journal's ops still open: kind, vids allocated, and
        // whether any intent (`alloc` / `doom`) was logged.
        let mut open: BTreeMap<OpId, (OpKind, u64, bool)> = BTreeMap::new();
        let mut saw_end = false;
        for (ln, line) in lines {
            let line_no = ln + 1;
            if line == "end" {
                saw_end = true;
                break;
            }
            let f: Vec<&str> = line.split('|').collect();
            let mut op_of = |s: &str| -> Result<OpId> {
                let op = s
                    .parse::<u64>()
                    .map_err(|_| bad(line_no, "expected op id"))?;
                next_op = next_op.max(op);
                Ok(OpId(op))
            };
            match (f[0], f.len()) {
                ("lease", 2) => {
                    let hi = f[1].parse::<u64>();
                    lease = lease.max(hi.map_err(|_| bad(line_no, "expected vid count"))?);
                }
                ("commit" | "abort", 3) => {
                    let op = op_of(f[1])?;
                    open.remove(&op);
                    commits.push(Commit {
                        op,
                        delta: unesc(f[2]),
                        durable: true,
                    });
                }
                ("begin", 5) => {
                    let kind = OpKind::parse(f[2], line_no)?;
                    open.insert(op_of(f[1])?, (kind, 0, false));
                }
                ("alloc" | "doom", 3) => {
                    let op = op_of(f[1])?;
                    let n = parse_vid_count(f[2], line_no)?;
                    if let Some((_, allocs, intent)) = open.get_mut(&op) {
                        *allocs += if f[0] == "alloc" { n } else { 0 };
                        *intent |= n > 0;
                    }
                }
                (other, _) => return Err(bad(line_no, &format!("unexpected record {other:?}"))),
            }
        }
        if !saw_end {
            return Err(bad(0, "missing end marker"));
        }

        // The dangling ops' `alloc`s may have reached providers: the
        // recovered allocator must start past them, as past a lease.
        let skip: u64 = open.values().map(|&(_, allocs, _)| allocs).sum();
        if skip > 0 {
            let watermark = (commits.iter().flat_map(|c| c.delta.lines()))
                .filter_map(|l| l.strip_prefix("vids|")?.parse().ok())
                .fold(image.vids(), u64::max);
            lease = lease.max(watermark + skip);
        }
        let chunk_level = [OpKind::Update, OpKind::Restore, OpKind::RemoveChunk];
        let refusal = (open.iter())
            .find(|(_, (kind, _, intent))| v2 && *intent && chunk_level.contains(kind))
            .map(|(op, (kind, ..))| {
                format!("{op}: a dangling `{kind}` of a v2 journal overwrote objects in place")
            });

        let appended = commits.len() as u64;
        Ok(Journal {
            inner: Mutex::new(JournalInner {
                next_op,
                image,
                commits,
                lease,
                lease_seq: 0,
                durable_lease: lease,
                appended,
                commits_since_checkpoint: 0,
                refusal,
            }),
            flush: StdMutex::new(FlushState {
                flushed: appended,
                leader: false,
            }),
            ..Default::default()
        })
    }
}

/// The length of a pre-lease `alloc` / `doom` record's vid list.
fn parse_vid_count(s: &str, line_no: usize) -> Result<u64> {
    let vids = s.split(',').filter(|x| !x.is_empty());
    let mut n = 0;
    for vid in vids {
        vid.parse::<u64>()
            .map_err(|_| bad(line_no, "expected vid"))?;
        n += 1;
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shard, one-client snapshot with nothing stored.
    const SNAPSHOT: &str = "fragcloud-state|v2\nvids|3\nshards|1\nproviders|1\nprovider|cp0\n\
        clients|1\nclient|c\npassword|pw|3\nshard|0\nchunks|0\nstripes|0\nfiles|0\nend\n";
    const CHUNK_ROW: &str = "7|1|0|-|||10|10|-|d0|live";

    fn attached() -> Journal {
        let j = Journal::new();
        j.set_checkpoint(StateImage::parse(SNAPSHOT).unwrap());
        j
    }

    #[derive(Default)]
    struct RecordingSink(Mutex<Vec<String>>);
    impl JournalSink for RecordingSink {
        fn persist(&self, batch: &str) {
            self.0.lock().push(batch.to_string());
        }
    }

    #[test]
    fn export_parse_roundtrip() {
        let j = attached();
        j.lease(5);
        let a = j.begin(OpKind::Put, "cli|ent", "fi%le");
        j.commit(a, "chunk|0|0|some|row\nvids|12\n".to_string());
        let b = j.begin(OpKind::Remove, "c", "gone");
        // b never commits: the crash case. Nothing of it is on record.

        let text = j.export();
        assert!(text.starts_with("fragcloud-journal|v4\n"));
        assert!(text.ends_with("end\n"));
        assert!(text.contains(&format!("\nlease|{VID_LEASE_BLOCK}\n")));
        // The delta survives the roundtrip verbatim.
        assert!(text.contains("commit|1|chunk%7C0%7C0%7Csome%7Crow%0Avids%7C12%0A\n"));
        assert_eq!(
            text.lines().count(),
            5,
            "header, checkpoint, lease, commit, end"
        );
        let back = Journal::parse(&text).unwrap();
        assert_eq!(back.checkpoint(), SNAPSHOT);
        assert_eq!(back.record_len(), 1);
        assert_eq!(back.export(), text);

        // A re-parsed journal keeps handing out fresh op ids.
        let c = back.begin(OpKind::Repair, "", "stripes");
        assert!(c.0 > a.0 && b.0 > a.0);
    }

    /// Pre-lease journals recorded each op's kind in a `begin` line; every
    /// chunk-level tag parses back to its kind, named in the refusal of a
    /// dangling op of that kind in a `v2` journal.
    #[test]
    fn chunk_level_kinds_roundtrip_under_their_tags() {
        for (kind, tag) in [
            (OpKind::Update, "update"),
            (OpKind::Restore, "restore"),
            (OpKind::RemoveChunk, "rmchunk"),
        ] {
            assert_eq!(kind.to_string(), tag);
            let text =
                format!("fragcloud-journal|v2\ncheckpoint|\nbegin|4|{tag}|c|f#3\nalloc|4|9\nend\n");
            let err = Journal::parse(&text).unwrap().refuse_overwrites_in_place();
            let why = format!("op4: a dangling `{tag}` of a v2 journal overwrote objects in place");
            assert_eq!(err, Err(bad(0, &why)));
        }
    }

    /// Compaction folds the durable commits and drops them; an unflushed
    /// commit — an op still open at a crash — stays a record.
    #[test]
    fn compact_drops_closed_ops_keeps_dangling() {
        let j = attached();
        let a = j.begin(OpKind::Put, "c", "f1");
        j.commit(a, format!("vids|9\nchunk|0|0|{CHUNK_ROW}\n"));
        let b = j.begin(OpKind::Put, "c", "f2");
        j.commit_prepare(b, "vids|10\n".to_string());
        assert_eq!(j.compact(), 2, "two delta rows folded");
        assert_eq!(j.record_len(), 1, "b still open");
        assert!(!j.export().contains("commit|"));
        // a's rows are the checkpoint's now.
        let folded = SNAPSHOT
            .replace("vids|3", "vids|9")
            .replace("chunks|0\n", &format!("chunks|1\nchunk|{CHUNK_ROW}\n"));
        assert_eq!(j.checkpoint(), folded);
    }

    /// A pre-lease journal's `abort` record folds like a commit; an
    /// unflushed commit is never folded.
    #[test]
    fn compaction_folds_aborts_and_leaves_unflushed_closes() {
        let abort = format!("vids|5\nchunk|0|1|{CHUNK_ROW}\n");
        let text = format!(
            "fragcloud-journal|v3\ncheckpoint|{}\nbegin|1|put|c|f1\nabort|1|{}\nend\n",
            esc(SNAPSHOT),
            esc(&abort)
        );
        let j = Journal::parse(&text).unwrap();
        let b = j.begin(OpKind::Put, "c", "f2");
        assert_eq!(b, OpId(2));
        let (seq, _) = j.commit_prepare(b, "vids|6\n".to_string());
        assert_eq!(j.compact(), 2);
        assert_eq!(j.record_len(), 1, "b still open");
        // The gap below the aborted op's chunk reads as a placeholder
        // tombstone.
        let checkpoint = j.checkpoint();
        assert!(checkpoint.contains("vids|5\n"));
        assert!(checkpoint.contains(&format!(
            "chunks|2\nchunk|18446744073709551615|0|0|-|||0|0|-|d0|removed\nchunk|{CHUNK_ROW}\n"
        )));
        j.sync(seq);
        j.compact();
        assert!(j.checkpoint().contains("vids|6\n"));
    }

    #[test]
    fn unflushed_commits_are_not_durable() {
        let j = Journal::new();
        let a = j.begin(OpKind::Put, "c", "f");
        let (seq, _) = j.commit_prepare(a, "delta-a".to_string());
        // Before sync: not on durable storage.
        assert!(!j.export().contains("commit|"));
        // The crash path: discard, and the record is gone for good.
        j.discard_unflushed();
        j.sync(seq); // a flush with nothing to drain is harmless
        assert_eq!(j.record_len(), 0);

        // The happy path on a fresh op: prepare + sync = durable.
        let b = j.begin(OpKind::Put, "c", "g");
        let (seq, _) = j.commit_prepare(b, "delta-b".to_string());
        j.sync(seq);
        assert!(j.export().contains("commit|2|delta-b\n"));
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
        assert_eq!(j.export().matches("\ncommit|").count(), N);
        // …but the sink saw strictly fewer flushes than commits: at least
        // one batch carried more than one record.
        let flushes = sink.0.load(Ordering::SeqCst);
        assert!(flushes >= 1);
        assert!(
            flushes < N as u64,
            "expected batching, got {flushes} flushes for {N} commits"
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
        // every commit is still held, and the export still parses.
        let j = Journal::new();
        j.set_sink(Arc::new(FaultySink::new(NoopSink, SinkFault::Drop, 1)));
        for i in 0..3 {
            let op = j.begin(OpKind::Put, "c", &format!("f{i}"));
            j.commit(op, String::new());
        }
        let back = Journal::parse(&j.export()).expect("export still parses");
        assert_eq!(back.record_len(), 3);
    }

    #[test]
    fn parse_errors_are_corrupt_state() {
        for garbage in [
            "",
            "fragcloud-journal|v999\ncheckpoint|\nend\n",
            "fragcloud-journal|v1\ncheckpoint|\nend\n",
            "fragcloud-journal|v4\nno-checkpoint\nend\n",
            "fragcloud-journal|v4\ncheckpoint|\nlease|many\nend\n",
            "fragcloud-journal|v4\ncheckpoint|\nlease\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\nbegin|1|teleport|c|f\nend\n",
            "fragcloud-journal|v3\ncheckpoint|\nalloc|1|notanumber\nend\n",
            "fragcloud-journal|v4\ncheckpoint|\ncommit|1\nend\n",
            "fragcloud-journal|v4\ncheckpoint|\ncommit|1|x\n",
        ] {
            let err = Journal::parse(garbage).unwrap_err();
            assert!(
                matches!(err, CoreError::CorruptState { .. }),
                "{garbage:?} -> {err:?}"
            );
        }
    }

    /// A `v2` journal parses to its commits, a lease past the vids its
    /// dangling ops allocated, and — only for a dangling chunk-level op
    /// that logged an intent — a refusal naming that op.
    #[test]
    fn a_v2_journal_refuses_only_its_dangling_chunk_level_intents() {
        let v2 = "fragcloud-journal|v2\ncheckpoint|\nbegin|1|put|c|f\nalloc|1|4\n\
            begin|2|update|c|f#0\nbegin|3|rmchunk|c|f#1\ndoom|3|5\nend\n";
        let j = Journal::parse(v2).unwrap();
        let err = j.refuse_overwrites_in_place().unwrap_err();
        assert!(
            matches!(&err, CoreError::CorruptState { why, .. } if why.starts_with("op3: a dangling `rmchunk`")),
            "{err:?}"
        );
        // Without op 3's intent, the v2 journal's dangling ops are all
        // swept back: no refusal, and a lease past op 1's one vid.
        let j = Journal::parse(&v2.replace("doom|3|5\n", "")).unwrap();
        j.refuse_overwrites_in_place().unwrap();
        assert_eq!(
            j.export(),
            "fragcloud-journal|v4\ncheckpoint|\nlease|1\nend\n"
        );
        // A `v3` journal's dangling chunk-level intents are swept too.
        let v3 = v2.replacen("|v2\n", "|v3\n", 1);
        Journal::parse(&v3)
            .unwrap()
            .refuse_overwrites_in_place()
            .unwrap();
    }

    /// `log_alloc` records nothing: a vid is covered by the lease.
    #[test]
    fn empty_vid_lists_are_not_recorded() {
        let j = Journal::new();
        let a = j.begin(OpKind::Put, "c", "f");
        j.log_alloc(a, &[]);
        j.log_alloc(a, &[VirtualId(7)]);
        // Header, checkpoint and end only.
        assert_eq!(j.export().lines().count(), 3);
    }
}
