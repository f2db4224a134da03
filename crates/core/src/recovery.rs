//! Crash recovery: rebuild a distributor from a write-ahead [`Journal`] —
//! checkpoint, commit records and vid lease — over a live provider fleet.
//!
//! §IV-C names the Cloud Data Distributor as the single point of failure,
//! and §VI promises that what a client removes is removed. [`persist`]
//! makes *quiescent* state durable; this module makes a distributor that
//! died **mid-operation** recoverable. Objects are write-once: every verb
//! stores under fresh vids, appends its commit record under the write
//! guard that published its rows, and queues what it superseded for
//! deletion only after that record is durable. So the durable rows alone
//! say which objects are live, and recovery is three steps:
//!
//! 1. **Fold.** Unflushed records are discarded (what never reached the
//!    sink does not exist), every durable commit's delta is folded into
//!    the journal's checkpoint image in record order — the same fold that
//!    compacts a live journal (`Journal::fold_durable` over
//!    `StateImage::fold_line`) — then the lease, as a `vids|` row that
//!    keeps its maximum, so the recovered allocator can never re-issue a
//!    vid the crashed process may have stored under. The folded image is
//!    imported, once, through `persist`'s row gate: a malformed row is
//!    refused and counted, rows that do not link up fail the import.
//! 2. **List** each online provider's keys (`ObjectStore::keys`).
//! 3. **Reclaim** every ⟨provider, vid⟩ that no recovered row's
//!    [`ChunkEntry::objects`](crate::tables::ChunkEntry::objects) names —
//!    a crashed op's uploads, whatever a durable op superseded and did not
//!    get to delete, what the crashed distributor's reclaimer still had
//!    queued — by queueing it on the recovered distributor's reclaimer
//!    ([`crate::mutation`]) and draining that.
//!
//! An op whose commit missed the flush is rolled back by the sweep alone:
//! a verb deletes nothing before its commit is durable, so every object
//! its old rows name is still in place, and its uploads are orphans. A
//! journal in the older `v2` format recovers the same way, with one
//! exception: its chunk-level verbs overwrote objects in place, so a
//! dangling `update` / `restore` / `rmchunk` that logged an intent cannot
//! be swept back, and recovery refuses it with a typed
//! [`CoreError::CorruptState`](crate::CoreError::CorruptState).
//!
//! The sweep costs O(objects listed), not O(journal tail); a real cloud
//! lists with pagination. What cannot be fixed — a corrupt delta row, a
//! recovered stripe missing more members than it tolerates, a provider
//! offline and so not listed (its orphans wait for the next recovery), an
//! orphan the drain could not delete (it stays queued, for the next op's
//! close) — lands in [`RecoveryReport::unrecoverable`] instead of
//! aborting the recovery. The one delta row that does abort it
//! is `full|` — an inline snapshot earlier versions wrote for `repair`:
//! skipping it would fold every later row onto the wrong base.

use crate::config::DistributorConfig;
use crate::distributor::CloudDataDistributor;
use crate::journal::Journal;
use crate::persist;
use crate::Result;
use fragcloud_sim::{CloudProvider, ObjectStore, VirtualId};
use fragcloud_telemetry::{span, TelemetryHandle};
use std::sync::Arc;

/// Outcome totals of one recovery run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Objects the sweep's drain deleted: held by a listed provider, named
    /// by no recovered row.
    pub orphans_collected: usize,
    /// What recovery could not make whole: delta rows that would not parse
    /// or fit, recovered stripes missing more members than their fault
    /// tolerance, providers offline (not listed, so not swept), and
    /// orphans the drain could not delete (still queued).
    pub unrecoverable: usize,
}

/// Rebuilds a distributor from `journal` (checkpoint, commits, lease) over
/// a live provider fleet and sweeps the fleet of every object the
/// recovered rows do not name. On success the journal holds no record, is
/// re-attached to the returned distributor — its checkpoint re-seeded
/// from the recovered tables — and operation, and journaling, can resume.
///
/// Fails only when the folded checkpoint cannot be imported (corrupt or
/// unlinked rows, missing provider, invalid config), a delta carries a
/// `full|` row, or a `v2` journal holds a dangling chunk-level op that
/// overwrote objects in place; other trouble is reported, not raised.
pub fn recover(
    journal: Arc<Journal>,
    providers: Vec<Arc<CloudProvider>>,
    config: DistributorConfig,
) -> Result<(CloudDataDistributor, RecoveryReport)> {
    recover_with(journal, providers, config, &TelemetryHandle::disabled())
}

/// [`recover`] with a telemetry handle: the run is spanned (`recover`)
/// and counted (`recovery_runs_total`, `recovery_orphans_collected`,
/// `recovery_unrecoverable`).
pub fn recover_with(
    journal: Arc<Journal>,
    providers: Vec<Arc<CloudProvider>>,
    config: DistributorConfig,
    tel: &TelemetryHandle,
) -> Result<(CloudDataDistributor, RecoveryReport)> {
    let _op = span!(tel, "recover");

    // Records appended but never covered by a group flush are gone: the
    // distributor never acked those ops.
    journal.discard_unflushed();
    journal.refuse_overwrites_in_place()?;

    // A journal no distributor ever attached has no checkpoint: give it a
    // fresh distributor's (empty) state to fold onto.
    if journal.with_checkpoint(persist::StateImage::is_empty) {
        CloudDataDistributor::try_new(providers.clone(), config)?
            .attach_journal(Arc::clone(&journal));
    }

    // 1. Fold: every durable commit, then the lease, into the checkpoint
    // image; the image imported once. A row that fails to parse or lands
    // out of range is counted, not fatal.
    let mut report = RecoveryReport {
        unrecoverable: journal.fold_durable()?,
        ..Default::default()
    };
    let d = journal.with_checkpoint(|image| persist::import_image(image, providers, config))?;

    // 2. List every provider that can be listed; 3. hand the reclaimer
    // what no row names, and drain it.
    let referenced = d.referenced_objects();
    let mut orphans = Vec::new();
    for (i, p) in d.fleet().iter().enumerate() {
        if p.is_online() {
            let held = p.keys().into_iter().map(|vid| (i, vid));
            orphans.extend(held.filter(|o| !referenced.contains(o)));
        } else {
            report.unrecoverable += 1;
        }
    }
    let (collected, left) = d.reclaimer.reclaim(d.fleet(), orphans);
    report.orphans_collected = collected as usize;
    report.unrecoverable += left + unreadable_stripes(&d);

    // The recovered tables hold every commit's rows: they are the journal's
    // new checkpoint, and journaling resumes on the recovered distributor.
    journal.clear();
    d.attach_journal(Arc::clone(&journal));

    tel.incr("recovery_runs_total");
    tel.add("recovery_orphans_collected", collected);
    tel.add("recovery_unrecoverable", report.unrecoverable as u64);
    Ok((d, report))
}

/// Recovered stripes that miss more live members than their fault
/// tolerance — a member counts as present when its primary or a replica
/// is on an online provider.
fn unreadable_stripes(d: &CloudDataDistributor) -> usize {
    let fleet = d.fleet();
    let present = |(p, vid): (usize, VirtualId)| fleet[p].is_online() && fleet[p].contains(vid);
    let shards = d.lock_all_read();
    let stripes = shards.iter().flat_map(|st| {
        st.stripes.iter().filter(|stripe| {
            let missing = (stripe.members.iter().map(|&m| &st.chunks[m]))
                .filter(|e| !e.removed)
                .filter(|e| !present((e.provider_idx, e.vid)))
                .filter(|e| !e.replicas.iter().any(|&r| present(r)))
                .count();
            missing > stripe.level.fault_tolerance()
        })
    });
    stripes.count()
}
