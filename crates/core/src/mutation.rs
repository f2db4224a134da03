//! The mutation protocol: the one bracket every state-mutating verb runs
//! in.
//!
//! §IV-C names the distributor as the single point of failure and §VI
//! asks that what a client removes is actually removed. Both come down to
//! ordering, so the order is written once — `journaled(kind, client,
//! target, body)`, the only caller of `journal_begin`:
//!
//! 1. **Intents.** The body journals every fresh vid (`journal_alloc`)
//!    before the upload that uses it and every object it will delete
//!    (`journal_doom`) before it changes anything.
//! 2. **Stores**, through the provider-object boundary
//!    ([`crate::objectio`]).
//! 3. **Rows.** Each table row is marked dirty as it is written
//!    (`touch_chunk` / `touch_stripe` / `touch_file` / `touch_client`).
//! 4. **One commit.** The body returns — its shard guards dropped — with
//!    its value and the objects it doomed; the bracket serializes the
//!    dirty rows into one delta record and joins the group fsync. A verb
//!    whose rows live in one shard and that re-plans what a later verb
//!    reads — the chunk-level verbs — appends its commit record before
//!    its guard drops instead (`commit_under`), so whatever reads its rows
//!    next closes after it.
//! 5. **Deletes.** Only now, with the commit durable, are the doomed
//!    objects deleted: no provider `delete` runs under a shard guard, and
//!    a verb that fails or crashes never finds a row naming an object
//!    that is gone.
//! 6. **Release**, then compaction when the checkpoint interval has
//!    elapsed. With its deletes done the op no longer needs its `doom`
//!    record, and says so (`Journal::release`); compaction — whichever
//!    op's bracket runs it — folds the deltas of released ops, in close
//!    order, into the journal's own checkpoint image and drops their
//!    records (`Journal::compact`: no table read, no shard lock). An op
//!    that has committed but not yet deleted keeps its records through
//!    any number of compactions.
//!
//! Rollback has one rule. A verb stores only under fresh vids and
//! publishes rows only once its stores have landed, so a body that fails
//! has changed no row: its fresh vids are orphans, which the bracket
//! collects (`recovery::collect_orphans`) — with or without a journal —
//! before closing the op with an abort record (released at once: its
//! rollback is behind it). A simulated crash passes through untouched and
//! leaves the op dangling — or committed but unreleased — for
//! [`crate::recovery`], which applies the same rule from the journal.

use crate::distributor::CloudDataDistributor;
use crate::journal::{Journal, OpId, OpKind};
use crate::persist;
use crate::recovery;
use crate::tables::Tables;
use crate::{CoreError, Result};
use fragcloud_sim::{CloudProvider, ObjectStore, VirtualId};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Objects a verb has doomed, with the provider holding each: what its
/// body hands back to [`CloudDataDistributor::journaled`].
pub(crate) type Doomed = Vec<(Arc<CloudProvider>, VirtualId)>;

/// Binds the ⟨provider index, vid⟩ pairs a row names
/// ([`ChunkEntry::objects`](crate::tables::ChunkEntry::objects)) to their
/// provider handles.
pub(crate) fn doom(st: &Tables, objects: impl IntoIterator<Item = (usize, VirtualId)>) -> Doomed {
    objects
        .into_iter()
        .map(|(p, vid)| (Arc::clone(&st.providers[p]), vid))
        .collect()
}

/// Step 5. Best-effort: the objects are doomed in the journal, so
/// recovery collects any straggler.
fn delete_doomed(doomed: &Doomed) {
    for (provider, vid) in doomed {
        let _ = provider.delete(*vid);
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
/// has dirtied (the commit/abort record's delta is serialized from exactly
/// these rows), and — once its body has called `commit_under` — its
/// appended commit record's close sequence and whether a compaction is
/// due. A journal-less op pays only an `Option` check.
struct OpJournal {
    journal: Arc<Journal>,
    op: OpId,
    dirty: Mutex<DirtyRows>,
    prepared: Mutex<Option<(u64, bool)>>,
}

/// Rows an op touched, keyed by (shard, arena index) — ordered sets so the
/// captured delta is deterministic and shard locks are taken ascending.
#[derive(Default)]
struct DirtyRows {
    chunks: BTreeSet<(usize, usize)>,
    stripes: BTreeSet<(usize, usize)>,
    /// File entries touched: (shard, client, filename). Capture emits a
    /// `file` row when the entry exists and a `filedel` tombstone when it
    /// does not (removed, or rolled back).
    files: BTreeSet<(usize, String, String)>,
    /// Client-directory entries touched, by name. The directory is
    /// replicated: capture reads shard 0, replay writes every shard.
    clients: BTreeSet<String>,
}

/// One shard's tables as delta capture reads them: through a read guard
/// it takes, or through the write guard its caller already holds.
enum Shard<'a> {
    Read(parking_lot::RwLockReadGuard<'a, Tables>),
    Held(&'a Tables),
}

impl std::ops::Deref for Shard<'_> {
    type Target = Tables;
    fn deref(&self) -> &Tables {
        match self {
            Shard::Read(guard) => guard,
            Shard::Held(st) => st,
        }
    }
}

impl CloudDataDistributor {
    /// Runs one mutating verb under the protocol in the module doc. On
    /// success the op commits with a *delta record* (just the rows `body`
    /// dirtied) and joins the journal's group-commit flush; the objects
    /// `body` doomed are then deleted, the op is released, and a due
    /// checkpoint compaction runs. A [`CoreError::SimulatedCrash`] passes
    /// through untouched — the "process" is dead, so no abort record and
    /// no rollback, leaving the op dangling for recovery. Any other error
    /// rolls the op back — its fresh vids are collected — and, with a
    /// journal, closes it with an abort record carrying the post-rollback
    /// delta.
    ///
    /// Three crash windows bracket the commit (numbered crash points, see
    /// DESIGN.md §5d): before the commit record exists (op dangles and is
    /// rolled back), after the record is appended but before the group
    /// fsync (op is *not* durable — recovery discards the unflushed
    /// close), and after the fsync but before the deletes and checkpoint
    /// compaction (op is durable though never acked — recovery replays it
    /// and collects its doom list). A body that appended its commit record
    /// under its guard ([`commit_under`](Self::commit_under)) has no first
    /// window: no other op can see its rows before the record exists.
    ///
    /// `body` must hold no shard guard when it returns: delta capture
    /// takes its own locks.
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
                    let prepared = j.prepared.lock().take();
                    let (seq, checkpoint_due) = match prepared {
                        Some(prepared) => prepared,
                        None => {
                            // Window: tables mutated, commit record not yet
                            // written.
                            self.crash_point()?;
                            j.journal.commit_prepare(j.op, self.capture_delta(j, None))
                        }
                    };
                    // Window: commit record appended but unflushed — the op
                    // must NOT survive a crash here (ack ⟺ flushed).
                    self.crash_point()?;
                    j.journal.sync(seq);
                    self.telemetry().incr("journal_commits_total");
                    // Window: durable, but its doomed objects still stored
                    // and the op not yet acked: unreleased, so no
                    // compaction — this op's or another's — drops its doom
                    // record.
                    self.crash_point()?;
                    delete_doomed(&doomed);
                    j.journal.release(j.op);
                    if checkpoint_due {
                        j.journal.compact();
                    }
                } else {
                    delete_doomed(&doomed);
                }
                Ok(v)
            }
            Err(e @ CoreError::SimulatedCrash { .. }) => Err(e),
            Err(e) => {
                let (collected, _) = recovery::collect_orphans(self, &ctx.fresh.lock());
                if let Some(j) = &ctx.journal {
                    let tel = self.telemetry();
                    tel.add("journal_rollback_objects", collected);
                    j.journal.abort(j.op, self.capture_delta(j, None));
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
    /// write guard of `shard`, the one shard its rows live in (`st`): no
    /// other op can read those rows before this op's close is in the
    /// journal, so an op that reads them — re-planning the same stripe's
    /// parity, say — closes after it, and a flush that makes that op
    /// durable makes this one durable too. The body's last step, with no
    /// crash window before it. Journal-less, a no-op.
    pub(crate) fn commit_under(&self, ctx: &OpCtx, shard: usize, st: &Tables) {
        if let Some(j) = &ctx.journal {
            let delta = self.capture_delta(j, Some((shard, st)));
            *j.prepared.lock() = Some(j.journal.commit_prepare(j.op, delta));
        }
    }

    /// Records freshly allocated vids for the open op — always *before*
    /// the uploads that use them — and logs them to its journal.
    pub(crate) fn journal_alloc(&self, ctx: &OpCtx, vids: &[VirtualId]) {
        ctx.fresh.lock().extend_from_slice(vids);
        if let Some(j) = &ctx.journal {
            j.journal.log_alloc(j.op, vids);
        }
    }

    /// Logs vids the open op intends to delete.
    pub(crate) fn journal_doom(&self, ctx: &OpCtx, vids: impl IntoIterator<Item = VirtualId>) {
        if let Some(j) = &ctx.journal {
            j.journal
                .log_doom(j.op, &vids.into_iter().collect::<Vec<_>>());
        }
    }

    /// Marks one chunk-arena row dirty for the open op's delta.
    pub(crate) fn touch_chunk(&self, ctx: &OpCtx, shard: usize, idx: usize) {
        if let Some(j) = &ctx.journal {
            j.dirty.lock().chunks.insert((shard, idx));
        }
    }

    /// Marks one stripe-arena row dirty for the open op's delta.
    pub(crate) fn touch_stripe(&self, ctx: &OpCtx, shard: usize, idx: usize) {
        if let Some(j) = &ctx.journal {
            j.dirty.lock().stripes.insert((shard, idx));
        }
    }

    /// Marks one file entry dirty for the open op's delta (present at
    /// capture time → `file` row; absent → `filedel` tombstone).
    pub(crate) fn touch_file(&self, ctx: &OpCtx, shard: usize, client: &str, name: &str) {
        if let Some(j) = &ctx.journal {
            j.dirty
                .lock()
                .files
                .insert((shard, client.to_string(), name.to_string()));
        }
    }

    /// Marks one client-directory entry (name + passwords) dirty for the
    /// open op's delta.
    pub(crate) fn touch_client(&self, ctx: &OpCtx, name: &str) {
        if let Some(j) = &ctx.journal {
            j.dirty.lock().clients.insert(name.to_string());
        }
    }

    /// Serializes the open op's delta from the *current* state of its
    /// dirty rows. Called at op close with all table locks released
    /// (capture takes shard read locks, ascending) — or with `held`, the
    /// one shard whose write guard the caller holds, which is read through
    /// that guard instead. The same routine serves commits (post-op state)
    /// and aborts (post-rollback state: tombstoned chunks serialize as
    /// removed, a stripped file entry as `filedel`), because deltas
    /// describe *state*, not intent.
    fn capture_delta(&self, j: &OpJournal, held: Option<(usize, &Tables)>) -> String {
        use std::fmt::Write as _;
        let read = |shard: usize| match held {
            Some((h, st)) if h == shard => Shard::Held(st),
            _ => Shard::Read(self.shard_read(shard)),
        };
        let dirty = j.dirty.lock();
        let mut out = format!("vids|{}\n", self.vids_allocated());
        if !dirty.clients.is_empty() {
            let st = read(0);
            for (name, entry) in dirty
                .clients
                .iter()
                .filter_map(|name| Some((name, st.clients.get(name)?)))
            {
                let _ = write!(out, "client|{}|", persist::esc(name));
                persist::passwords_into(&mut out, &entry.passwords);
                out.push('\n');
            }
        }
        for shard in 0..self.shard_count() {
            let has = dirty.chunks.range((shard, 0)..=(shard, usize::MAX)).count() > 0
                || dirty
                    .stripes
                    .range((shard, 0)..=(shard, usize::MAX))
                    .count()
                    > 0
                || dirty.files.iter().any(|(s, _, _)| *s == shard);
            if !has {
                continue;
            }
            let st = read(shard);
            for &(_, idx) in dirty.chunks.range((shard, 0)..=(shard, usize::MAX)) {
                let _ = write!(out, "chunk|{shard}|{idx}|");
                persist::chunk_row_into(&mut out, &st.chunks[idx]);
                out.push('\n');
            }
            for &(_, idx) in dirty.stripes.range((shard, 0)..=(shard, usize::MAX)) {
                let _ = write!(out, "stripe|{shard}|{idx}|");
                persist::stripe_row_into(&mut out, &st.stripes[idx]);
                out.push('\n');
            }
            for (s, client, name) in dirty.files.iter().filter(|(s, _, _)| *s == shard) {
                let _ = s;
                let entry = st
                    .clients
                    .get(client)
                    .and_then(|c| c.files.get(name.as_str()));
                match entry {
                    Some(fe) => {
                        let _ = write!(
                            out,
                            "file|{shard}|{}|{}|",
                            persist::esc(client),
                            persist::esc(name)
                        );
                        persist::file_row_into(&mut out, fe);
                        out.push('\n');
                    }
                    None => {
                        let _ = writeln!(
                            out,
                            "filedel|{shard}|{}|{}",
                            persist::esc(client),
                            persist::esc(name)
                        );
                    }
                }
            }
        }
        out
    }
}
