//! The mutation protocol: the one bracket every state-mutating verb runs
//! in.
//!
//! §IV-C names the distributor as the single point of failure and §VI
//! asks that what a client removes is actually removed. Both come down to
//! ordering, so the order is written once — `journaled(kind, client,
//! target, body)`, the only caller of `journal_begin`:
//!
//! 1. **Fresh vids.** The body hands every vid it allocated to
//!    `journal_alloc` before the upload that uses it: the op's rollback
//!    collects them, and with a journal attached no vid past its durable
//!    lease is stored (`Journal::lease`).
//! 2. **Stores**, through the provider-object boundary
//!    ([`crate::objectio`]).
//! 3. **Rows.** Each table row is marked dirty as it is written
//!    (`touch_chunk` / `touch_stripe` / `touch_file` / `touch_client`).
//! 4. **One commit.** Still holding the write guard that published its
//!    rows, the body appends its commit record (`commit_under`): its
//!    dirty rows, serialized from that guard's tables, as one delta. Any
//!    op that reads those rows takes the guard after it and so closes
//!    after it, and a group flush makes a prefix of the records durable:
//!    no durable op can depend on one that is not. A body that changed no
//!    row may return without it; the bracket then closes the op with its
//!    `vids|` watermark alone. The record joins the group fsync once the
//!    body has returned.
//! 5. **Reclaim.** Only now, with the commit durable, are the objects the
//!    body superseded handed to the `Reclaimer`, and the close drains
//!    it: no provider `delete` runs under a shard guard, and a verb that
//!    fails or crashes never finds a row naming an object that is gone. A
//!    delete its provider refuses — offline, or failing — stays queued,
//!    and whichever op closes next retries it. No entry waits for a
//!    reader: a get holds its shard read guard until its reads are done,
//!    so no commit that dooms what it reads can close meanwhile.
//! 6. **Compaction** when the checkpoint interval has elapsed: whichever
//!    op's bracket runs it folds the durable commits, in commit order,
//!    into the journal's own checkpoint image and drops their records
//!    (`Journal::compact`: no table read, no shard lock).
//!
//! Rollback has one rule. A verb stores only under fresh vids and
//! publishes rows only once its stores have landed, with no fallible step
//! after the first row it touches, so a body that fails has changed no
//! row: its fresh vids are orphans, and the bracket hands the reclaimer
//! each one a provider holds — with or without a journal. It journals
//! nothing. A simulated crash passes through untouched; [`crate::recovery`]
//! applies the same rule to every object no recovered row names.

use crate::distributor::CloudDataDistributor;
use crate::journal::{Journal, OpId, OpKind};
use crate::persist;
use crate::tables::{ClientEntry, Tables};
use crate::{CoreError, Result};
use fragcloud_sim::{CloudProvider, ObjectStore, StoreError, VirtualId};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Objects a verb has doomed, as the ⟨provider index, vid⟩ pairs a row
/// names ([`ChunkEntry::objects`](crate::tables::ChunkEntry::objects)):
/// what its body hands back to [`CloudDataDistributor::journaled`].
pub(crate) type Doomed = Vec<(usize, VirtualId)>;

/// The one reclaimer: a queue of ⟨provider index, vid⟩ no row names — for
/// good, as no vid is re-issued — and the crate's one provider `delete`.
/// Not journaled: after a crash the queue is exactly the keys no recovered
/// row names, which recovery's listing recomputes.
#[derive(Default)]
pub(crate) struct Reclaimer(Mutex<Doomed>);

impl Reclaimer {
    /// Queues `doomed` and drains the queue: takes every entry out under
    /// the lock, deletes with no lock held — and no caller holds a shard
    /// guard — and puts back the entries whose provider is offline or
    /// refused the delete, for a later drain. An object already gone is
    /// done. Returns (objects deleted, entries put back).
    pub(crate) fn reclaim(&self, fleet: &[Arc<CloudProvider>], mut doomed: Doomed) -> (u64, usize) {
        doomed.append(&mut self.0.lock());
        let mut deleted = 0;
        doomed.retain(|&(p, vid)| {
            // An offline provider is not asked: each refusal would count
            // against it, at every close until it is back.
            let res = fleet[p].is_online().then(|| fleet[p].delete(vid));
            deleted += u64::from(matches!(res, Some(Ok(()))));
            !matches!(res, Some(Ok(()) | Err(StoreError::NotFound(_))))
        });
        let left = doomed.len();
        if left > 0 {
            self.0.lock().append(&mut doomed);
        }
        (deleted, left)
    }
}

/// An open mutating op: the fresh vids it has allocated — recorded
/// whether or not a journal is attached, as they are what its rollback
/// collects — and its journal record, if any. Threaded as `&OpCtx`
/// through the mutation paths.
pub(crate) struct OpCtx {
    fresh: Mutex<Vec<VirtualId>>,
    journal: Option<OpJournal>,
}

/// An op's journal: the journal it lives in, its id, the table rows it
/// has dirtied (its commit record's delta is serialized from exactly these
/// rows), and — once its body has called `commit_under` — its appended
/// commit record's sequence and whether a compaction is due. A
/// journal-less op pays only an `Option` check.
struct OpJournal {
    journal: Arc<Journal>,
    op: OpId,
    dirty: Mutex<DirtyRows>,
    prepared: Mutex<Option<(u64, bool)>>,
}

/// Rows an op touched in the one shard it publishes to, by arena index or
/// key — ordered sets, so the captured delta is deterministic.
#[derive(Default)]
struct DirtyRows {
    chunks: BTreeSet<usize>,
    stripes: BTreeSet<usize>,
    /// File entries touched: (client, filename). Capture emits a `file`
    /// row when the entry exists and a `filedel` tombstone when it does
    /// not (removed).
    files: BTreeSet<(String, String)>,
    /// Client-directory rows touched, serialized as `client|…` lines when
    /// touched: a client op touches its row under the directory write
    /// guard it commits under, so the text is the row at the commit.
    clients: String,
}

impl DirtyRows {
    fn is_empty(&self) -> bool {
        self.chunks.is_empty()
            && self.stripes.is_empty()
            && self.files.is_empty()
            && self.clients.is_empty()
    }
}

impl CloudDataDistributor {
    /// Runs one mutating verb under the protocol in the module doc. On
    /// success the op's commit record — appended by the body under its
    /// guard ([`commit_under`](Self::commit_under)), or here for a body
    /// that changed no row — joins the journal's group-commit flush; the
    /// objects `body` superseded are then reclaimed and a due checkpoint
    /// compaction runs. A [`CoreError::SimulatedCrash`] passes through
    /// untouched — the "process" is dead, so no rollback. Any other error
    /// rolls the op back: its fresh vids are reclaimed.
    ///
    /// Two crash windows follow the commit record (numbered crash points,
    /// see DESIGN.md §5d): after it is appended but before the group fsync
    /// (op is *not* durable — recovery discards the unflushed commit and
    /// sweeps its uploads), and after the fsync but before the reclaim and
    /// checkpoint compaction (op is durable though never acked — recovery
    /// folds it and sweeps what it superseded).
    pub(crate) fn journaled<T>(
        &self,
        kind: OpKind,
        client: &str,
        target: &str,
        body: impl FnOnce(&OpCtx) -> Result<(T, Doomed)>,
    ) -> Result<T> {
        let ctx = OpCtx {
            fresh: Mutex::new(Vec::new()),
            journal: self.journal_begin(kind, client, target),
        };
        match body(&ctx) {
            Ok((v, doomed)) => {
                if let Some(j) = &ctx.journal {
                    if j.prepared.lock().is_none() {
                        // A body that changed no row — a migrate whose
                        // chunk is already on its target — closes against no
                        // table: its delta is its watermark alone.
                        debug_assert!(j.dirty.lock().is_empty(), "rows left uncommitted");
                        self.commit_under(&ctx, 0, &Tables::default());
                    }
                    let (seq, checkpoint_due) = j.prepared.lock().take().unwrap_or_default();
                    // Window: commit record appended but unflushed — the op
                    // must NOT survive a crash here (ack ⇒ flushed).
                    self.crash_point()?;
                    j.journal.sync(seq);
                    self.telemetry().incr("journal_commits_total");
                    // Window: durable, but its superseded objects still
                    // stored and the op not yet acked.
                    self.crash_point()?;
                    self.reclaimer.reclaim(self.fleet(), doomed);
                    if checkpoint_due {
                        j.journal.compact();
                    }
                } else {
                    self.reclaimer.reclaim(self.fleet(), doomed);
                }
                Ok(v)
            }
            Err(e @ CoreError::SimulatedCrash { .. }) => Err(e),
            Err(e) => {
                let fresh = ctx.fresh.lock();
                let mut stored = Doomed::new();
                if !fresh.is_empty() {
                    let referenced = self.referenced_objects();
                    for (i, p) in self.fleet().iter().enumerate() {
                        let held = fresh.iter().map(|&vid| (i, vid));
                        stored.extend(held.filter(|o| p.contains(o.1) && !referenced.contains(o)));
                    }
                }
                let (collected, _) = self.reclaimer.reclaim(self.fleet(), stored);
                if let Some(j) = &ctx.journal {
                    debug_assert!(j.dirty.lock().is_empty(), "a failed body touched a row");
                    let tel = self.telemetry();
                    tel.add("journal_rollback_objects", collected);
                    tel.incr("journal_aborts_total");
                }
                Err(e)
            }
        }
    }

    /// Opens a journaled op; `None` when no journal is attached.
    fn journal_begin(&self, kind: OpKind, client: &str, target: &str) -> Option<OpJournal> {
        let journal = self.journal()?;
        let op = journal.begin(kind, client, target);
        self.telemetry()
            .add_labeled("journal_ops_total", kind.tag(), 1);
        Some(OpJournal {
            journal,
            op,
            dirty: Mutex::new(DirtyRows::default()),
            prepared: Mutex::new(None),
        })
    }

    /// Appends the open op's commit record while its body still holds the
    /// write guard that published its rows: `st`, the tables of `shard`,
    /// the one shard those rows live in. A client op holds the directory
    /// write guard instead, and passes empty tables: its row is in the
    /// dirty set already. No other op can read the rows before this op's close is in
    /// the journal, so an op that reads them — re-planning the same
    /// stripe's parity, putting a name this op removed — closes after it,
    /// and a flush that makes that op durable makes this one durable too.
    /// The body's last step, with no crash window before it. Journal-less,
    /// a no-op.
    pub(crate) fn commit_under(&self, ctx: &OpCtx, shard: usize, st: &Tables) {
        if let Some(j) = &ctx.journal {
            let delta = self.capture_delta(&j.dirty.lock(), shard, st);
            *j.prepared.lock() = Some(j.journal.commit_prepare(j.op, delta));
        }
    }

    /// Records freshly allocated vids for the open op — always *before*
    /// the uploads that use them — and, with a journal attached, returns
    /// only once a durable lease covers every vid allocated so far.
    pub(crate) fn journal_alloc(&self, ctx: &OpCtx, vids: &[VirtualId]) {
        ctx.fresh.lock().extend_from_slice(vids);
        if let Some(j) = &ctx.journal {
            // Vids are mixed counters: the allocator's count stands for
            // them all.
            j.journal.lease(self.vids_allocated());
        }
    }

    /// Marks one chunk-arena row dirty for the open op's delta.
    pub(crate) fn touch_chunk(&self, ctx: &OpCtx, idx: usize) {
        if let Some(j) = &ctx.journal {
            j.dirty.lock().chunks.insert(idx);
        }
    }

    /// Marks one stripe-arena row dirty for the open op's delta.
    pub(crate) fn touch_stripe(&self, ctx: &OpCtx, idx: usize) {
        if let Some(j) = &ctx.journal {
            j.dirty.lock().stripes.insert(idx);
        }
    }

    /// Marks one file entry dirty for the open op's delta (present at
    /// capture time → `file` row; absent → `filedel` tombstone).
    pub(crate) fn touch_file(&self, ctx: &OpCtx, client: &str, name: &str) {
        if let Some(j) = &ctx.journal {
            let key = (client.to_string(), name.to_string());
            j.dirty.lock().files.insert(key);
        }
    }

    /// Adds one client-directory row (name + passwords), as it stands, to
    /// the open op's delta.
    pub(crate) fn touch_client(&self, ctx: &OpCtx, name: &str, entry: &ClientEntry) {
        if let Some(j) = &ctx.journal {
            let rows = &mut j.dirty.lock().clients;
            rows.push_str("client|");
            persist::esc_into(rows, name);
            rows.push('|');
            persist::passwords_into(rows, &entry.passwords);
            rows.push('\n');
        }
    }

    /// Serializes the `dirty` rows of `shard` from `st`, the tables the
    /// caller's write guard holds: the allocator watermark (`vids|`, the
    /// whole delta of a commit that carries no row), then each row's state
    /// as it stands — deltas describe state, not intent, so a dropped file
    /// entry serializes as `filedel`.
    fn capture_delta(&self, dirty: &DirtyRows, shard: usize, st: &Tables) -> String {
        use std::fmt::Write as _;
        let mut out = format!("vids|{}\n", self.vids_allocated());
        out.push_str(&dirty.clients);
        for &idx in &dirty.chunks {
            let _ = write!(out, "chunk|{shard}|{idx}|");
            persist::chunk_row_into(&mut out, &st.chunks[idx]);
            out.push('\n');
        }
        for &idx in &dirty.stripes {
            let _ = write!(out, "stripe|{shard}|{idx}|");
            persist::stripe_row_into(&mut out, &st.stripes[idx]);
            out.push('\n');
        }
        for (client, name) in &dirty.files {
            let (c, n) = (persist::esc(client), persist::esc(name));
            match st.files.get(client).and_then(|files| files.get(name)) {
                Some(fe) => {
                    let _ = write!(out, "file|{shard}|{c}|{n}|");
                    persist::file_row_into(&mut out, fe);
                    out.push('\n');
                }
                None => {
                    let _ = writeln!(out, "filedel|{shard}|{c}|{n}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{JournalSink, VID_LEASE_BLOCK};
    use crate::DistributorConfig;
    use fragcloud_sim::{CostLevel, PrivacyLevel, ProviderProfile};

    #[derive(Default)]
    struct RecordingSink(Mutex<Vec<String>>);
    impl JournalSink for RecordingSink {
        fn persist(&self, batch: &str) {
            self.0.lock().push(batch.to_string());
        }
    }

    /// No vid is stored before a durable lease covers it: `journal_alloc`
    /// of the first vid of each block returns only once the sink holds the
    /// block's lease, and every other vid flushes nothing.
    #[test]
    fn journal_alloc_returns_once_a_lease_covers_its_vids() {
        let fleet = (0..4)
            .map(|i| {
                let profile =
                    ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(0));
                Arc::new(CloudProvider::new(profile))
            })
            .collect();
        let d = CloudDataDistributor::try_new(fleet, DistributorConfig::default()).unwrap();
        let journal = Arc::new(Journal::new());
        let sink = Arc::new(RecordingSink::default());
        journal.set_sink(Arc::clone(&sink) as Arc<dyn JournalSink>);
        d.attach_journal(journal);
        d.journaled(OpKind::Put, "c", "f", |ctx| {
            for _ in 0..=VID_LEASE_BLOCK {
                let vid = d.allocate_vid();
                let before = sink.0.lock().len();
                d.journal_alloc(ctx, &[vid]);
                let (n, batches) = (d.vids_allocated(), sink.0.lock());
                if n % VID_LEASE_BLOCK == 1 {
                    let lease = format!("lease|{}\n", n.next_multiple_of(VID_LEASE_BLOCK));
                    assert_eq!(batches[before..], [lease], "vid {n}");
                } else {
                    assert_eq!(batches.len(), before, "vid {n}");
                }
            }
            Ok(((), Doomed::new()))
        })
        .unwrap();
    }
}
