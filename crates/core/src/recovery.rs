//! Crash recovery: replay a write-ahead [`Journal`] — checkpoint plus
//! per-op delta records — against a live provider fleet.
//!
//! §IV-C names the Cloud Data Distributor as the single point of failure.
//! [`persist`] makes *quiescent* state durable; this
//! module makes a distributor that died **mid-operation** recoverable.
//! The journal's checkpoint is the last compacted snapshot; every op
//! after it closed with a **delta record** (the table rows it touched) or
//! — when the crash hit inside it — is dangling. Recovery proceeds in two
//! passes:
//!
//! 1. **Delta replay.** Unflushed close records are discarded (what never
//!    reached the sink does not exist), every durable close delta is
//!    folded into the journal's checkpoint image in record order — the
//!    same fold that compacts a live journal (`Journal::fold_durable`
//!    over `StateImage::fold_line`): chunk/stripe arena upserts, file
//!    upserts and deletions, client-directory upserts, and a virtual-id
//!    watermark that keeps its maximum so the recovered allocator can
//!    never re-issue a journaled id — and the folded image is imported,
//!    once. Each row is validated before it is folded; one that is
//!    malformed or out of range is refused and counted.
//! 2. **Dangling resolution**, by one rule: every verb stores only under
//!    vids it journaled (`alloc`) before the store, deletes what it
//!    supersedes (`doom`) only after its commit, and appends its commit
//!    record under the write guard that published its rows. An op that
//!    read those rows closed after it, and a group flush makes a prefix of
//!    the close records durable, so no durable op depends on a dangling
//!    one and no durable delta carries a dangling op's rows:
//!    - a dangling `remove` stores nothing — its doom list is its whole
//!      effect — and **rolls forward**: the file's rows are dropped, then
//!      the doom list is collected;
//!    - every other dangling op **rolls back**: its fresh vids are
//!      garbage-collected from every provider still holding them, so no
//!      orphan objects survive. A `client` op stored nothing: it rolls
//!      back by doing nothing;
//!    - committed ops are verified present (their files must still be
//!      readable within RAID fault tolerance) and their doomed
//!      stragglers — whatever a migration, an update, a restore, a chunk
//!      removal or a file removal superseded and whose post-commit delete
//!      never ran — are collected.
//!
//! A journal in the older `v2` format recovers the same way, with one
//! exception: its chunk-level verbs overwrote objects in place, so a
//! dangling `update` / `restore` / `rmchunk` that logged an intent cannot
//! be rolled back by collecting fresh vids, and recovery refuses it with a
//! typed [`CoreError::CorruptState`](crate::CoreError::CorruptState).
//!
//! Everything is best-effort and telemetry-counted; what cannot be fixed
//! (an orphan on an offline provider, a committed file that does not
//! verify, a corrupt delta row) lands in
//! [`RecoveryReport::unrecoverable`] instead of aborting the recovery.
//! The one delta row that does abort it is `full|` — an inline snapshot
//! earlier versions wrote for `repair`: skipping it would fold every
//! later row onto the wrong base.

use crate::config::DistributorConfig;
use crate::distributor::CloudDataDistributor;
use crate::journal::{Journal, OpKind, OpStatus, OpView};
use crate::persist;
use crate::Result;
use fragcloud_sim::{CloudProvider, ObjectStore, VirtualId};
use fragcloud_telemetry::{span, TelemetryHandle};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Outcome totals of one recovery run. All counters are exact: the
/// crash-matrix harness asserts them against the journal's op list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Ops found in the journal (any status).
    pub ops_seen: usize,
    /// Committed ops verified. A dangling op is never replayed: no durable
    /// close can carry its rows.
    pub replayed: usize,
    /// Dangling ops rolled back: every kind but `remove`.
    pub rolled_back: usize,
    /// Dangling `remove` ops rolled forward to completion.
    pub rolled_forward: usize,
    /// Ops the live distributor had already aborted and rolled back.
    pub aborted: usize,
    /// Orphan objects garbage-collected from providers.
    pub orphans_collected: usize,
    /// Failures recovery could not repair: orphan deletes that failed
    /// (offline provider), committed files that no longer verify, and
    /// delta rows that would not parse or fit.
    pub unrecoverable: usize,
}

/// How recovery resolved one op (drives journal close-out and the
/// file-presence expectations).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Resolution {
    Replayed,
    RolledBack,
    RolledForward,
    Aborted,
}

/// Rebuilds a distributor from `journal` (checkpoint + delta records)
/// over a live provider fleet, resolving every dangling op. On success
/// the journal keeps only what is still open, is re-attached to the
/// returned distributor — its checkpoint re-seeded from the recovered
/// tables — and operation, and journaling, can resume.
///
/// Fails only when the folded checkpoint cannot be imported (corrupt
/// snapshot, missing provider, invalid config), a delta carries a
/// `full|` row, or a `v2` journal holds a dangling chunk-level op that
/// overwrote objects in place; per-op and other per-row trouble is
/// reported, not raised.
pub fn recover(
    journal: Arc<Journal>,
    providers: Vec<Arc<CloudProvider>>,
    config: DistributorConfig,
) -> Result<(CloudDataDistributor, RecoveryReport)> {
    recover_with(journal, providers, config, &TelemetryHandle::disabled())
}

/// [`recover`] with a telemetry handle: the run is spanned (`recover`)
/// and counted (`recovery_runs_total`, `recovery_ops_replayed`,
/// `recovery_ops_rolled_back` / `recovery_ops_rolled_forward` labeled by
/// op kind, `recovery_orphans_collected`, `recovery_unrecoverable`).
pub fn recover_with(
    journal: Arc<Journal>,
    providers: Vec<Arc<CloudProvider>>,
    config: DistributorConfig,
    tel: &TelemetryHandle,
) -> Result<(CloudDataDistributor, RecoveryReport)> {
    let _op = span!(tel, "recover");

    // Close records appended but never covered by a group flush are gone:
    // the distributor never acked those ops, and they must read as
    // dangling so they resolve below.
    journal.discard_unflushed();
    journal.refuse_overwrites_in_place()?;

    // A journal no distributor ever attached has no checkpoint: give it a
    // fresh distributor's (empty) state to fold onto.
    if journal.with_checkpoint(persist::StateImage::is_empty) {
        CloudDataDistributor::try_new(providers.clone(), config)?
            .attach_journal(Arc::clone(&journal));
    }

    // Delta replay: every durable close folded into the checkpoint image
    // in close order, the image imported once. A row that fails to parse
    // or lands out of range is counted, not fatal — the op-level
    // verification below catches any file it leaves broken. The folded
    // `vids|` maximum moves the allocator past every id a closed op
    // journaled, even when the checkpoint predates the allocation.
    let mut report = RecoveryReport {
        unrecoverable: journal.fold_durable()?,
        ..Default::default()
    };
    let d = journal.with_checkpoint(|image| persist::import_image(image, providers, config))?;

    let ops = journal.ops();
    report.ops_seen = ops.len();

    // The crashed incarnation allocated (and journaled) ids that no close
    // delta's watermark covers — dangling ops never committed. Skip past
    // them too so the recovered allocator can never re-issue one.
    let dangling_allocs: u64 = ops
        .iter()
        .filter(|o| o.status == OpStatus::Dangling)
        .map(|o| o.fresh.len() as u64)
        .sum();
    d.skip_vids(dangling_allocs);

    let mut resolutions: Vec<(OpView, Resolution)> = Vec::with_capacity(ops.len());
    for op in ops {
        let resolution = match op.status {
            OpStatus::Aborted => Resolution::Aborted,
            OpStatus::Committed => {
                // Doomed stragglers: a committed migration's source copy
                // whose post-commit delete never ran, a removal's object
                // on a provider that has come back online.
                gc_vids(&d, &op.doomed, &mut report, tel);
                Resolution::Replayed
            }
            OpStatus::Dangling if op.kind == OpKind::Remove => {
                // Table removal first: until the entries are tombstoned,
                // the doomed vids look referenced and the GC would
                // (correctly) refuse to collect them. The name is still the
                // removed file's: the removal held its shard guard until it
                // appended its commit record, so any later close on the
                // shard came after that record and is no more durable.
                let shard = d.shard_for(&op.client, &op.target);
                let _ = d.shard_write(shard).drop_file(&op.client, &op.target);
                gc_vids(&d, &op.doomed, &mut report, tel);
                Resolution::RolledForward
            }
            OpStatus::Dangling => {
                gc_vids(&d, &op.fresh, &mut report, tel);
                Resolution::RolledBack
            }
        };
        match resolution {
            Resolution::Replayed => report.replayed += 1,
            Resolution::RolledBack => {
                report.rolled_back += 1;
                tel.add_labeled("recovery_ops_rolled_back", op.kind.tag(), 1);
            }
            Resolution::RolledForward => {
                report.rolled_forward += 1;
                tel.add_labeled("recovery_ops_rolled_forward", op.kind.tag(), 1);
            }
            Resolution::Aborted => report.aborted += 1,
        }
        resolutions.push((op, resolution));
    }

    verify_expectations(&d, &resolutions, &mut report);

    // Close out the dangling ops (with empty deltas — their effects are
    // in the recovered tables) and drop every closed op's records: the
    // journal's new baseline is the checkpoint `attach_journal` seeds
    // from those tables, and journaling resumes on the recovered
    // distributor.
    for (op, resolution) in &resolutions {
        match resolution {
            Resolution::RolledForward => {
                journal.commit(op.id, String::new());
            }
            Resolution::RolledBack => journal.abort(op.id, String::new()),
            Resolution::Replayed | Resolution::Aborted => {}
        }
    }
    journal.drop_closed();
    d.attach_journal(Arc::clone(&journal));

    tel.incr("recovery_runs_total");
    tel.add("recovery_ops_replayed", report.replayed as u64);
    tel.add("recovery_unrecoverable", report.unrecoverable as u64);
    Ok((d, report))
}

/// The one orphan collector: deletes `vids` from every provider still
/// holding them, skipping any id the tables reference (live data — a
/// repair's already re-placed shards, say — is never collected). Returns
/// `(objects collected, delete failures)`. Recovery runs it over a
/// dangling op's fresh ids and a closed op's doom list; the live abort of
/// a failed op runs it over the op's fresh ids.
pub(crate) fn collect_orphans(d: &CloudDataDistributor, vids: &[VirtualId]) -> (u64, u64) {
    if vids.is_empty() {
        return (0, 0);
    }
    let referenced = d.referenced_vids();
    let providers = d.providers();
    let mut seen = HashSet::new();
    let (mut collected, mut failed) = (0u64, 0u64);
    for &vid in vids {
        if referenced.contains(&vid) || !seen.insert(vid) {
            continue;
        }
        for p in &providers {
            if p.contains(vid) {
                match p.delete(vid) {
                    Ok(()) => collected += 1,
                    Err(_) => failed += 1,
                }
            }
        }
    }
    (collected, failed)
}

/// [`collect_orphans`] for recovery's report: successful deletes count as
/// orphans collected, failed ones (offline provider) as unrecoverable.
fn gc_vids(
    d: &CloudDataDistributor,
    vids: &[VirtualId],
    report: &mut RecoveryReport,
    tel: &TelemetryHandle,
) {
    let (collected, failed) = collect_orphans(d, vids);
    report.orphans_collected += collected as usize;
    report.unrecoverable += failed as usize;
    if collected > 0 {
        tel.add("recovery_orphans_collected", collected);
    }
}

/// Derives last-op-wins file expectations from the resolutions and
/// checks them against the recovered tables: a file whose final fate is
/// "present" must exist and stay within every stripe's fault tolerance; a
/// file whose final fate is "absent" must be gone. Violations are counted
/// as unrecoverable.
fn verify_expectations(
    d: &CloudDataDistributor,
    resolutions: &[(OpView, Resolution)],
    report: &mut RecoveryReport,
) {
    let mut expect: HashMap<(&str, &str), bool> = HashMap::new();
    for (op, resolution) in resolutions {
        let key = (op.client.as_str(), op.target.as_str());
        match (op.kind, resolution) {
            (OpKind::Put, Resolution::Replayed) => {
                expect.insert(key, true);
            }
            (OpKind::Put, Resolution::RolledBack) => {
                expect.insert(key, false);
            }
            (OpKind::Remove, Resolution::Replayed | Resolution::RolledForward) => {
                expect.insert(key, false);
            }
            // Aborted ops restored the prior state; repair ops and the
            // chunk-level kinds (whose targets are `file#serial`, not
            // file names) never change which files exist.
            _ => {}
        }
    }

    for ((client, target), present) in expect {
        let st = d.read_shard_for(client, target);
        let file = st.file(client, target);
        if !present {
            if file.is_ok() {
                report.unrecoverable += 1;
            }
            continue;
        }
        let Ok(file) = file else {
            report.unrecoverable += 1;
            continue;
        };
        for &sid in &file.stripe_ids {
            let stripe = &st.stripes[sid];
            let tolerable = stripe.level.fault_tolerance();
            let mut missing = 0usize;
            for &m in &stripe.members {
                let e = &st.chunks[m];
                if e.removed {
                    continue;
                }
                let primary_ok = {
                    let p = &d.fleet()[e.provider_idx];
                    p.is_online() && p.contains(e.vid)
                };
                let replica_ok = e.replicas.iter().any(|&(rp, rv)| {
                    let p = &d.fleet()[rp];
                    p.is_online() && p.contains(rv)
                });
                if !primary_ok && !replica_ok {
                    missing += 1;
                }
            }
            if missing > tolerable {
                report.unrecoverable += 1;
                break;
            }
        }
    }
}
