//! Crash-consistency matrix: for **every** deterministic crash point in a
//! mixed workload — and for arbitrary proptest-generated workloads — kill
//! the distributor mid-operation, rebuild it from the journal's checkpoint
//! snapshot and close deltas with [`recover`], and assert the recovery
//! contract:
//!
//! 1. every acknowledged file reads back byte-identical, chunk by chunk;
//! 2. a file's post-recovery presence matches what reached the group
//!    fsync: a put or a remove whose commit record was flushed is durable
//!    even when the crash beat the ack; one whose commit never reached the
//!    fsync rolls back — a remove deletes nothing before its commit, so
//!    the file reads back byte-identical;
//! 3. the chunk a crashed `update_chunk` / `restore_snapshot` /
//!    `remove_chunk` was working on reads back as exactly its pre-op
//!    bytes — its post-op bytes once the commit is durable — and parity
//!    agrees with data: after a repair pass every chunk still reads the
//!    same with each provider offline in turn;
//! 4. no provider holds an orphan object (every live key is
//!    table-referenced), and none ever stored different bytes under a key
//!    it already held (a vid names one payload for its lifetime);
//! 5. the [`RecoveryReport`] counts exactly the orphans the sweep
//!    deleted, with nothing unrecoverable;
//! 6. recovering a second time from the same crashed journal gives the
//!    same report and the same state;
//! 7. the recovered distributor accepts new traffic — another update of
//!    the very chunk the crash interrupted included;
//! 8. a client registered (or given a password) after the journal was
//!    attached is known in every table shard once the verb was
//!    acknowledged — or its commit reached the group fsync — and unknown
//!    when the crash beat its commit.

use fragcloud::core::journal::{JournalSink, VID_LEASE_BLOCK};
use fragcloud::core::persist;
use fragcloud::sim::{CloudProvider, CostLevel, ObjectStore, ProviderProfile};
use fragcloud::{
    recover, ChunkSizeSchedule, CloudDataDistributor, CoreError, CrashPlan, DistributorConfig,
    Journal, PrivacyLevel, PutOptions, RaidLevel, RecoveryReport,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const FLEET: usize = 8;
const CHUNK: usize = 512;

fn config() -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
        stripe_width: 3,
        raid_level: RaidLevel::Raid5,
        // Misleading bytes on: a rolled-back or rolled-forward chunk must
        // also get its position list right to read back byte-identical.
        mislead_rate: 0.05,
        ..Default::default()
    }
}

/// [`config`] with a real (nonzero) group-commit window and a short
/// checkpoint interval, so the commit path exercises the leader linger
/// and the compaction cadence.
fn windowed_config() -> DistributorConfig {
    let mut cfg = config();
    cfg.durability = cfg
        .durability
        .with_group_commit_window(Duration::from_micros(300))
        .with_checkpoint_interval(4);
    cfg
}

struct World {
    fleet: Vec<Arc<CloudProvider>>,
    journal: Arc<Journal>,
    d: CloudDataDistributor,
    cfg: DistributorConfig,
    /// The journal's sink: what reached durable storage.
    flushed: Arc<CommitCount>,
}

impl World {
    /// Commit records flushed so far.
    fn commits(&self) -> usize {
        self.flushed.0.load(Ordering::SeqCst)
    }
}

/// A journal sink counting the commit records each flush carries.
#[derive(Default)]
struct CommitCount(AtomicUsize);

impl JournalSink for CommitCount {
    fn persist(&self, batch: &str) {
        let commits = batch.lines().filter(|l| l.starts_with("commit|"));
        self.0.fetch_add(commits.count(), Ordering::SeqCst);
    }
}

fn fleet(n: usize) -> Vec<Arc<CloudProvider>> {
    (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}

fn world_with(plan: Arc<CrashPlan>, cfg: DistributorConfig) -> World {
    let fleet = fleet(FLEET);
    let d = CloudDataDistributor::try_new(fleet.clone(), cfg).unwrap();
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let journal = Arc::new(Journal::new());
    let flushed = Arc::new(CommitCount::default());
    journal.set_sink(Arc::clone(&flushed) as Arc<dyn JournalSink>);
    d.attach_journal(Arc::clone(&journal));
    d.set_crash_plan(Some(plan));
    World {
        fleet,
        journal,
        d,
        cfg,
        flushed,
    }
}

fn world(plan: Arc<CrashPlan>) -> World {
    world_with(plan, config())
}

fn body(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(41).wrapping_add(salt * 13 + 7) % 251) as u8)
        .collect()
}

/// Deletes the lowest-numbered live table-referenced object straight off
/// its provider — the shard loss that makes the following repair real.
/// Not a distributor op: it always completes (no crash points).
fn damage(w: &World) {
    let referenced = w.d.referenced_vids();
    let mut pairs: Vec<_> = w
        .fleet
        .iter()
        .enumerate()
        .flat_map(|(i, p)| p.virtual_id_list().into_iter().map(move |v| (v, i)))
        .filter(|(v, _)| referenced.contains(v))
        .collect();
    pairs.sort();
    if let Some(&(vid, provider)) = pairs.first() {
        w.fleet[provider].delete(vid).unwrap();
    }
}

/// Migrates chunk ⟨`filename`, 0⟩ to the first eligible provider. Ineligible
/// targets (same provider is a committed no-op; anti-affinity rejections
/// become aborted journal ops) are part of the exercise; only a simulated
/// crash propagates.
fn migrate_somewhere(w: &World, filename: &str) -> Result<(), CoreError> {
    for target in 0..FLEET {
        match w.d.migrate_chunk("c", "pw", filename, 0, target) {
            Ok(()) => {}
            Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
            Err(_) => {}
        }
    }
    Ok(())
}

/// A file as the client sees it: its chunks by serial, `None` once
/// removed.
type Chunks = Vec<Option<Vec<u8>>>;

fn chunks_of(data: &[u8]) -> Chunks {
    data.chunks(CHUNK).map(|c| Some(c.to_vec())).collect()
}

/// A chunk-level verb of the workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChunkVerb {
    Update,
    Restore,
    RemoveChunk,
}

/// The oracle. Every acknowledged mutation updates `acked`; every
/// *attempted* put logs its chunks in `attempted` (the reference for a put
/// whose commit outran its ack); `snapshots` models what a restore yields;
/// `put_in_flight`, `remove_in_flight` and `in_flight` name the put, the
/// remove or the chunk-level verb the crash interrupted — the last with
/// the chunk's post-op bytes — and `commits_before` counts the commits
/// flushed before it began.
#[derive(Default)]
struct Ledger {
    acked: BTreeMap<String, Chunks>,
    attempted: BTreeMap<String, Chunks>,
    snapshots: BTreeMap<(String, usize), Vec<u8>>,
    put_in_flight: Option<String>,
    remove_in_flight: Option<String>,
    in_flight: Option<(String, usize, Option<Vec<u8>>)>,
    commits_before: usize,
    /// Acknowledged `client` ops: ⟨client, its passwords⟩.
    clients: BTreeMap<String, Vec<String>>,
    /// The `client` op the crash interrupted: the client, and the
    /// password being added (`None`: the registration itself).
    client_in_flight: Option<(String, Option<String>)>,
}

impl Ledger {
    /// One `put_file`. Duplicate names abort inside the journaled body — a
    /// legitimate aborted op, not an ack; only a crash propagates.
    fn put(
        &mut self,
        w: &World,
        name: &str,
        data: &[u8],
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<(), CoreError> {
        self.attempted.insert(name.into(), chunks_of(data));
        self.put_in_flight = Some(name.into());
        self.commits_before = w.commits();
        match w.d.session("c", "pw")?.put_file(name, data, pl, opts) {
            Ok(_) => {
                self.acked.insert(name.into(), chunks_of(data));
            }
            Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
            Err(_) => {}
        }
        self.put_in_flight = None;
        Ok(())
    }

    /// One `remove_file`. A crashed one is left to `remove_in_flight`: it
    /// is gone after recovery iff its commit was flushed.
    fn remove(&mut self, w: &World, name: &str) -> Result<(), CoreError> {
        self.remove_in_flight = Some(name.into());
        self.commits_before = w.commits();
        match w.d.session("c", "pw")?.remove_file(name) {
            Ok(()) => {
                self.acked.remove(name);
                self.snapshots.retain(|(file, _), _| file != name);
            }
            Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
            Err(_) => {}
        }
        self.remove_in_flight = None;
        Ok(())
    }

    /// Registers `name` and gives it the password `pw`: two `client` ops.
    /// A duplicate name, or a password `name` already lists, is an aborted
    /// journal op.
    fn client(&mut self, w: &World, name: &str, pw: &str) -> Result<(), CoreError> {
        self.client_in_flight = Some((name.into(), None));
        self.commits_before = w.commits();
        match w.d.register_client(name) {
            Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
            _ => self.clients.entry(name.into()).or_default(),
        };
        self.client_in_flight = Some((name.into(), Some(pw.into())));
        self.commits_before = w.commits();
        match w.d.add_password(name, pw, PrivacyLevel::Low) {
            Err(CoreError::PasswordExists(_)) => {}
            res => {
                res?;
                self.clients.entry(name.into()).or_default().push(pw.into());
            }
        }
        self.client_in_flight = None;
        Ok(())
    }

    /// One chunk-level verb on ⟨`name`, `serial`⟩. A verb the tables refuse
    /// (unknown file, removed chunk, no snapshot) is an aborted journal op
    /// and changes nothing.
    fn chunk_op(
        &mut self,
        w: &World,
        verb: ChunkVerb,
        name: &str,
        serial: usize,
        patch: &[u8],
    ) -> Result<(), CoreError> {
        let key = (name.to_string(), serial);
        let current = self
            .acked
            .get(name)
            .and_then(|chunks| chunks.get(serial).cloned().flatten());
        let post = match verb {
            ChunkVerb::Update => Some(patch.to_vec()),
            ChunkVerb::Restore => self.snapshots.get(&key).cloned(),
            ChunkVerb::RemoveChunk => None,
        };
        self.in_flight = Some((name.into(), serial, post.clone()));
        self.commits_before = w.commits();
        let s = w.d.session("c", "pw")?;
        let res = match verb {
            ChunkVerb::Update => s.update_chunk(name, serial as u32, patch),
            ChunkVerb::Restore => s.restore_snapshot(name, serial as u32),
            ChunkVerb::RemoveChunk => s.remove_chunk(name, serial as u32),
        };
        match res {
            Ok(()) => {
                let chunks = self
                    .acked
                    .get_mut(name)
                    .expect("acked verb on a known file");
                chunks[serial] = post;
                match (verb, current) {
                    (ChunkVerb::Update, Some(old)) => {
                        self.snapshots.insert(key, old);
                    }
                    _ => {
                        self.snapshots.remove(&key);
                    }
                }
            }
            Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
            Err(_) => {}
        }
        self.in_flight = None;
        Ok(())
    }
}

/// The fixed matrix workload: puts (one replicated), a remove, a client
/// registered after the journal was attached, a first and a second update
/// of one chunk, restores, a chunk removal, induced shard
/// loss + repair, migrations, and a final put. The first simulated crash
/// aborts the run.
fn run_workload(w: &World, l: &mut Ledger) -> Result<(), CoreError> {
    use ChunkVerb::*;
    let plain = PutOptions::new();
    l.put(w, "f0", &body(5000, 1), PrivacyLevel::Low, plain)?;
    l.put(w, "f1", &body(3100, 2), PrivacyLevel::Moderate, plain)?;
    l.remove(w, "f0")?;
    l.client(w, "late", "pw2")?;
    l.put(
        w,
        "f2",
        &body(2048, 3),
        PrivacyLevel::Low,
        plain.replicas(1),
    )?;

    // First update, second update (supersedes the first snapshot), restore.
    l.chunk_op(w, Update, "f1", 1, &body(CHUNK, 11))?;
    l.chunk_op(w, Update, "f1", 1, &body(400, 12))?;
    l.chunk_op(w, Restore, "f1", 1, &[])?;
    // The same on a replicated file; its chunk 0 keeps a snapshot through
    // the repair and the migrations below.
    l.chunk_op(w, Update, "f2", 1, &body(300, 13))?;
    l.chunk_op(w, Restore, "f2", 1, &[])?;
    l.chunk_op(w, Update, "f2", 0, &body(CHUNK, 14))?;
    // Removals: a chunk with a snapshot and a replica, and the ragged tail.
    l.chunk_op(w, Update, "f2", 3, &body(100, 15))?;
    l.chunk_op(w, RemoveChunk, "f2", 3, &[])?;
    l.chunk_op(w, RemoveChunk, "f1", 6, &[])?;

    damage(w);
    w.d.try_repair()?;

    migrate_somewhere(w, "f2")?;

    l.put(w, "f3", &body(1300, 4), PrivacyLevel::Low, plain)?;
    Ok(())
}

/// Every object the fleet holds, as ⟨provider index, vid⟩.
fn held(fleet: &[Arc<CloudProvider>]) -> HashSet<(usize, fragcloud::VirtualId)> {
    let providers = fleet.iter().enumerate();
    providers
        .flat_map(|(i, p)| p.keys().into_iter().map(move |v| (i, v)))
        .collect()
}

/// Recovery reports what it did: it deleted exactly the `swept` objects
/// the fleet no longer holds, and found nothing it could not repair.
fn assert_report(got: &RecoveryReport, swept: usize, tag: &str) {
    let want = RecoveryReport {
        orphans_collected: swept,
        unrecoverable: 0,
    };
    assert_eq!(*got, want, "{tag}: report");
}

/// Zero orphans: every object any provider still holds is referenced by
/// the recovered tables (the sim observer's view of live keys). The
/// converse is not asserted: the workload's induced damage deletes a
/// referenced object on purpose, and repair re-creates stripe members
/// only, not a lost snapshot or replica.
fn assert_no_orphans(w: &World, d: &CloudDataDistributor, tag: &str) {
    let held: HashSet<_> = w.fleet.iter().flat_map(|p| p.virtual_id_list()).collect();
    let referenced = d.referenced_vids();
    let orphans: Vec<_> = held.difference(&referenced).collect();
    assert!(orphans.is_empty(), "{tag}: orphans {orphans:?}");
    assert_no_overwrites(&w.fleet, tag);
}

/// Write-once objects: no provider ever stored different bytes under a
/// key it already held.
fn assert_no_overwrites(fleet: &[Arc<CloudProvider>], tag: &str) {
    for p in fleet {
        let overwrites = p.stats().overwrites.load(Ordering::Relaxed);
        assert_eq!(overwrites, 0, "{tag}: {} overwrote a held key", p.name());
    }
}

/// Reads every chunk of every expected file and compares it with
/// `expect`.
fn assert_chunks(d: &CloudDataDistributor, expect: &BTreeMap<String, Chunks>, tag: &str) {
    let s = d.session("c", "pw").unwrap();
    for (name, chunks) in expect {
        for (serial, want) in chunks.iter().enumerate() {
            let got = match s.get_chunk(name, serial as u32) {
                Ok(bytes) => Some(bytes),
                Err(CoreError::UnknownChunk { .. }) => None,
                Err(e) => panic!("{tag}: {name}#{serial} unreadable: {e}"),
            };
            assert!(got == *want, "{tag}: {name}#{serial} reads wrong bytes");
        }
        if chunks.iter().all(Option::is_some) {
            let whole: Vec<u8> = chunks.iter().flatten().flatten().copied().collect();
            assert_eq!(s.get_file(name).unwrap().data, whole, "{tag}: {name}");
        }
    }
}

/// Every acknowledged `client` op survived — the directory knows the
/// client and each password opens a session — and the one the crash
/// interrupted took effect iff its commit was `durable`.
fn assert_clients(d: &CloudDataDistributor, l: &Ledger, durable: bool, tag: &str) {
    for (name, passwords) in &l.clients {
        assert!(
            d.client_chunks_per_provider(name).is_ok(),
            "{tag}: acked client {name} unknown"
        );
        for pw in passwords {
            assert!(d.session(name, pw).is_ok(), "{tag}: {name}/{pw} lost");
        }
    }
    match &l.client_in_flight {
        Some((name, None)) if !l.clients.contains_key(name) => assert_eq!(
            d.client_chunks_per_provider(name).is_ok(),
            durable,
            "{tag}: interrupted registration of {name}"
        ),
        Some((name, Some(pw))) => assert_eq!(
            d.session(name, pw).is_ok(),
            durable,
            "{tag}: interrupted password of {name}"
        ),
        _ => {}
    }
}

/// Recovers the crashed world and asserts the full contract (see the
/// module doc). `tag` labels assertion failures with the crash point.
fn recover_and_check(w: &World, l: &Ledger, tag: &str) {
    // What durable storage holds at the crash — the second recovery below
    // starts from the same text.
    let crashed_journal = w.journal.export();

    // Presence and bytes from the ack ledger, overlaid with the verb the
    // crash interrupted: with group commit, "un-acked" does not imply
    // "rolled back" — a verb whose commit record made the group fsync is
    // durable even though the crash beat the ack. A put then lands its
    // attempted bytes, a remove its removal, a chunk-level verb its
    // post-op bytes; any other interrupted verb rolled back.
    let durable = w.commits() > l.commits_before;
    let mut expect = l.acked.clone();
    if durable {
        if let Some(name) = &l.put_in_flight {
            expect.insert(name.clone(), l.attempted[name].clone());
        }
        if let Some(name) = &l.remove_in_flight {
            expect.remove(name);
        }
        if let Some((name, serial, post)) = &l.in_flight {
            expect.get_mut(name).expect("in-flight verb on a live file")[*serial] = post.clone();
        }
    }

    let before = held(&w.fleet);
    let (d, report) = recover(Arc::clone(&w.journal), w.fleet.clone(), w.cfg)
        .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
    assert_report(&report, before.len() - held(&w.fleet).len(), tag);
    let s = d.session("c", "pw").unwrap();
    // Present files are read chunk by chunk below; absent ones must be gone.
    for name in l
        .attempted
        .keys()
        .filter(|name| !expect.contains_key(*name))
    {
        assert!(
            matches!(s.get_file(name), Err(CoreError::UnknownFile { .. })),
            "{tag}: {name} should be absent (a put that missed the group fsync rolls back, a flushed remove is durable)"
        );
    }
    assert_chunks(&d, &expect, tag);
    assert_clients(&d, l, durable, tag);
    assert_no_orphans(w, &d, tag);
    assert_eq!(w.journal.record_len(), 0, "{tag}: journal not settled");

    // Recover twice ≡ recover once: the same crashed journal against the
    // fleet the first recovery left behind gives the same report and the
    // same state.
    let state: BTreeMap<String, Chunks> = expect
        .iter()
        .map(|(name, chunks)| {
            let read = |sl| s.get_chunk(name, sl as u32).ok();
            (name.clone(), (0..chunks.len()).map(read).collect())
        })
        .collect();
    drop(s);
    let referenced = d.referenced_vids();
    drop(d);
    let again = Arc::new(Journal::parse(&crashed_journal).unwrap());
    let (d, report) = recover(Arc::clone(&again), w.fleet.clone(), w.cfg)
        .unwrap_or_else(|e| panic!("{tag}: second recovery failed: {e}"));
    let tag = &format!("{tag}, recovered twice");
    assert_report(&report, 0, tag);
    assert_eq!(d.referenced_vids(), referenced, "{tag}: tables diverged");
    assert_chunks(&d, &state, tag);
    assert_clients(&d, l, durable, tag);
    assert_no_orphans(w, &d, tag);

    // Parity agrees with data: heal whatever shard the workload's induced
    // damage (or a crashed repair) left missing, then every chunk must
    // read the same with each provider offline in turn.
    d.try_repair()
        .unwrap_or_else(|e| panic!("{tag}: post-recovery repair failed: {e}"));
    assert_no_orphans(w, &d, tag);
    for p in &w.fleet {
        p.set_online(false);
        assert_chunks(&d, &state, &format!("{tag}, {} offline", p.name()));
        p.set_online(true);
    }

    // The journal is settled (recovery closed every dangling op and
    // compacted; the repair above journaled one op per table shard) and the
    // distributor takes new, journaled traffic — first of all another
    // update of the chunk the crash interrupted.
    let s = d.session("c", "pw").unwrap();
    if let Some((name, serial, _)) = &l.in_flight {
        if state
            .get(name)
            .is_some_and(|chunks| chunks[*serial].is_some())
        {
            let patch = body(333, 21);
            s.update_chunk(name, *serial as u32, &patch)
                .unwrap_or_else(|e| panic!("{tag}: update of {name}#{serial} failed: {e}"));
            assert_eq!(s.get_chunk(name, *serial as u32).unwrap(), patch, "{tag}");
            assert_no_orphans(w, &d, tag);
        }
    }
    let before = again.record_len();
    let post = body(700, 9);
    s.put_file("post", &post, PrivacyLevel::Low, PutOptions::new())
        .unwrap_or_else(|e| panic!("{tag}: post-recovery put failed: {e}"));
    assert_eq!(s.get_file("post").unwrap().data, post, "{tag}: post bytes");
    assert_eq!(
        again.record_len(),
        before + 1,
        "{tag}: post-recovery op journaled"
    );
}

#[test]
fn crash_matrix_every_point_recovers() {
    // Dry run enumerates the crash surface.
    let counter = Arc::new(CrashPlan::count_only());
    let w = world(Arc::clone(&counter));
    run_workload(&w, &mut Ledger::default()).expect("dry run must not crash");
    let points = counter.points_seen();
    assert!(points >= 100, "crash surface too small: {points} points");

    // Kill the distributor at every single point and recover.
    for k in 1..=points {
        let plan = Arc::new(CrashPlan::at_point(k));
        let w = world(Arc::clone(&plan));
        let mut ledger = Ledger::default();
        match run_workload(&w, &mut ledger) {
            Err(CoreError::SimulatedCrash { point }) => assert_eq!(point, k),
            other => panic!("point {k}: expected a crash, got {other:?}"),
        }
        recover_and_check(&w, &ledger, &format!("point {k}"));
    }
}

#[test]
fn journal_survives_a_quiet_workload() {
    // No crash: every op commits, the journal compacts down to nothing at
    // recovery, and the report is all replays/aborts.
    let w = world(Arc::new(CrashPlan::count_only()));
    let mut ledger = Ledger::default();
    run_workload(&w, &mut ledger).unwrap();
    recover_and_check(&w, &ledger, "no crash");
}

/// An acknowledged chunk-level verb survives a crash while its file's own
/// put delta is still un-compacted: its rows are journaled as a delta
/// that replays *after* the put's (the checkpoint rewrite it replaces was
/// replayed *under* them — the update was lost, wrong bytes read back with
/// misleading bytes on, and its snapshot object was orphaned).
#[test]
fn acked_chunk_verbs_survive_a_crash_before_compaction() {
    use ChunkVerb::*;
    let mut cfg = config();
    cfg.mislead_rate = 0.08;
    let data = body(4 * CHUNK, 6);
    let scripts: [&[(ChunkVerb, usize)]; 4] = [
        &[(Update, CHUNK)],
        // The second update dooms the first one's snapshot.
        &[(Update, CHUNK), (Update, 200)],
        &[(Update, CHUNK), (RemoveChunk, 0)],
        &[(Update, CHUNK), (Restore, 0)],
    ];
    for script in scripts {
        let tag = &format!("{script:?}");
        let w = world_with(Arc::new(CrashPlan::count_only()), cfg);
        let mut l = Ledger::default();
        l.put(&w, "doc", &data, PrivacyLevel::High, PutOptions::new())
            .unwrap();
        for (i, &(verb, len)) in script.iter().enumerate() {
            l.chunk_op(&w, verb, "doc", 2, &body(len, 7 + i as u64))
                .unwrap();
        }

        // Crash: all that survives is the exported journal and the fleet.
        let journal = Arc::new(Journal::parse(&w.journal.export()).unwrap());
        let (d, report) = recover(journal, w.fleet.clone(), cfg).unwrap();
        // Every op was acked, so it deleted what it superseded: there is
        // nothing to sweep.
        assert_eq!(report, RecoveryReport::default(), "{tag}");
        assert_chunks(&d, &l.acked, tag);
        let held: HashSet<_> = w.fleet.iter().flat_map(|p| p.virtual_id_list()).collect();
        assert_eq!(held, d.referenced_vids(), "{tag}: provider keys vs tables");

        // The snapshot came through as well: the recovered distributor
        // can still take the last update back.
        if script.last() == Some(&(Update, CHUNK)) {
            let s = d.session("c", "pw").unwrap();
            s.restore_snapshot("doc", 2).unwrap();
            assert_eq!(s.get_file("doc").unwrap().data, data, "{tag}: restored");
        }
    }
}

/// A dangling update rolls back by the one rule, with a provider offline:
/// crashed after its new data object is stored, it reads its pre-op bytes
/// — the row still names the untouched old objects — and the provider
/// holding its fresh object, offline, is counted unrecoverable: it could
/// not be listed, so its orphan is left for the next recovery.
#[test]
fn a_dangling_update_rolls_back_with_a_provider_offline() {
    let data = body(4 * CHUNK, 6);
    let put = |w: &World, l: &mut Ledger| {
        l.put(w, "doc", &data, PrivacyLevel::High, PutOptions::new())
            .unwrap()
    };
    let counter = Arc::new(CrashPlan::count_only());
    put(&world(Arc::clone(&counter)), &mut Ledger::default());
    // The update's second window: its new data object is stored.
    let w = world(Arc::new(CrashPlan::at_point(counter.points_seen() + 2)));
    let mut l = Ledger::default();
    put(&w, &mut l);
    let before = held(&w.fleet);
    let crashed = l.chunk_op(&w, ChunkVerb::Update, "doc", 1, &body(CHUNK, 8));
    assert!(matches!(crashed, Err(CoreError::SimulatedCrash { .. })));

    let stored: Vec<_> = held(&w.fleet).difference(&before).copied().collect();
    let [(offline, lost)] = stored[..] else {
        panic!("one fresh object stored before the crash: {stored:?}");
    };
    let offline = &w.fleet[offline];
    offline.set_online(false);
    let (d, report) = recover(Arc::clone(&w.journal), w.fleet.clone(), w.cfg).unwrap();
    assert_eq!(report.unrecoverable, 1, "the offline provider: {report:?}");
    assert_eq!(w.journal.record_len(), 0, "the journal is settled");
    assert_chunks(&d, &l.acked, "rolled back");
    offline.set_online(true);
    let held: HashSet<_> = w.fleet.iter().flat_map(|p| p.virtual_id_list()).collect();
    let orphans: Vec<_> = held.difference(&d.referenced_vids()).copied().collect();
    assert_eq!(orphans, [lost], "only the unreachable object is left");
    assert_no_overwrites(&w.fleet, "rolled back");
}

/// A verb of the commit-order table below, on the file "doc".
#[derive(Debug, Clone, Copy)]
enum DocVerb {
    /// `put_file` of `body(4 * CHUNK, salt)`.
    Put(u64),
    Remove,
    /// A chunk-level verb on ⟨doc, serial⟩; an update writes
    /// `body(len, salt)`.
    Chunk(ChunkVerb, usize, usize, u64),
}

impl DocVerb {
    fn run(self, w: &World, l: &mut Ledger) -> Result<(), CoreError> {
        match self {
            DocVerb::Put(salt) => {
                let data = body(4 * CHUNK, salt);
                l.put(w, "doc", &data, PrivacyLevel::High, PutOptions::new())
            }
            DocVerb::Remove => l.remove(w, "doc"),
            DocVerb::Chunk(verb, serial, len, salt) => {
                l.chunk_op(w, verb, "doc", serial, &body(len, salt))
            }
        }
    }

    /// Runs a put or an update as the follow-up to a crashed verb,
    /// straight through the session. Returns whether it was acked: a
    /// follow-up refused with `FileExists` or `UnknownFile` changed nothing.
    fn follow(self, w: &World) -> bool {
        let s = w.d.session("c", "pw").unwrap();
        let res = match self {
            DocVerb::Put(salt) => {
                let data = body(4 * CHUNK, salt);
                s.put_file("doc", &data, PrivacyLevel::High, PutOptions::new())
                    .map(drop)
            }
            DocVerb::Chunk(ChunkVerb::Update, serial, len, salt) => {
                s.update_chunk("doc", serial as u32, &body(len, salt))
            }
            other => unreachable!("no follow-up {other:?}"),
        };
        match res {
            Ok(()) => true,
            Err(CoreError::FileExists(_) | CoreError::UnknownFile { .. }) => false,
            Err(e) => panic!("{self:?}: the follow-up failed: {e}"),
        }
    }

    /// What the follow-up, acked, leaves in `expect`.
    fn acked(self, expect: &mut BTreeMap<String, Chunks>, tag: &str) {
        match self {
            DocVerb::Put(salt) => {
                expect.insert("doc".into(), chunks_of(&body(4 * CHUNK, salt)));
            }
            DocVerb::Chunk(ChunkVerb::Update, serial, len, salt) => {
                let doc = expect
                    .get_mut("doc")
                    .unwrap_or_else(|| panic!("{tag}: an acked update's file is rolled back"));
                doc[serial] = Some(body(len, salt));
            }
            other => unreachable!("no follow-up {other:?}"),
        }
    }
}

/// Commit order follows lock order: every verb appends its commit record
/// under the write guard that publishes its rows, so a verb that reads
/// those rows next — taking the guard once the crashed verb let go —
/// closes after it and can never be durable while it is not. Each case
/// crashes a verb at every one of its crash points, then runs a
/// follow-up on the same rows:
///
/// - an update, a restore and a removal of chunk 1, then an update of
///   chunk 0, which re-plans their stripe's parity over chunk 1's bytes:
///   were the crashed verb rolled back alone, that parity would encode
///   bytes no row names and a degraded read would decode wrong data;
/// - a put of "doc", then an update of its chunk 0: recovery must not
///   roll back the file an acked update changed;
/// - a removal of "doc", then a put of "doc" with new bytes: recovery
///   must not roll the removal forward over the new file.
///
/// After recovery every acked follow-up reads back byte-identical with
/// each provider offline in turn, and no orphan is left. A refused
/// follow-up was never acked: what "doc" holds is then the crashed verb's
/// resolution alone.
#[test]
fn a_peer_update_never_outlives_a_crashed_verb_on_its_stripe() {
    use ChunkVerb::*;
    use DocVerb::*;
    let update_peer = Chunk(Update, 0, CHUNK, 9);
    // An acked update first, so the restore has a snapshot to consume.
    let written: &[DocVerb] = &[Put(6), Chunk(Update, 1, CHUNK, 7)];
    let cases: [(&[DocVerb], DocVerb, DocVerb); 5] = [
        (written, Chunk(Update, 1, 300, 8), update_peer),
        (written, Chunk(Restore, 1, 0, 0), update_peer),
        (written, Chunk(RemoveChunk, 1, 0, 0), update_peer),
        (&[], Put(6), update_peer),
        (written, Remove, Put(10)),
    ];
    for (setup, crashed, follow) in cases {
        let setup = |w: &World, l: &mut Ledger| {
            for verb in setup {
                verb.run(w, l).unwrap();
            }
        };
        let counter = Arc::new(CrashPlan::count_only());
        let (dry, mut l) = (world(Arc::clone(&counter)), Ledger::default());
        setup(&dry, &mut l);
        let before = counter.points_seen();
        crashed.run(&dry, &mut l).unwrap();
        let points = counter.points_seen() - before;
        assert!(
            points >= 3,
            "{crashed:?}: crash surface too small: {points}"
        );

        for k in 1..=points {
            let tag = &format!("{crashed:?} then {follow:?}, point {k}");
            let w = world(Arc::new(CrashPlan::at_point(before + k)));
            let mut l = Ledger::default();
            setup(&w, &mut l);
            let res = crashed.run(&w, &mut l);
            assert!(
                matches!(res, Err(CoreError::SimulatedCrash { .. })),
                "{tag}: {res:?}"
            );
            let followed = follow.follow(&w);

            // The crashed verb's resolution, by whether its commit is
            // flushed now that the follow-up has run: an acked follow-up
            // flushed one commit of its own, and any beyond it is the
            // crashed verb's. A flushed put lands its attempted bytes, a
            // flushed removal drops the file, a flushed chunk-level verb
            // lands its post-op bytes; an unflushed one left the ledger's
            // bytes.
            let mut expect = l.acked.clone();
            if w.commits() - l.commits_before > usize::from(followed) {
                match crashed {
                    Put(_) => {
                        expect.insert("doc".into(), l.attempted["doc"].clone());
                    }
                    Chunk(..) => {
                        let (_, serial, post) = l.in_flight.clone().expect("the crashed verb");
                        expect.get_mut("doc").unwrap()[serial] = post;
                    }
                    Remove => {
                        expect.remove("doc");
                    }
                }
            }
            if followed {
                follow.acked(&mut expect, tag);
            }

            let (d, report) = recover(Arc::clone(&w.journal), w.fleet.clone(), w.cfg)
                .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
            assert_eq!(report.unrecoverable, 0, "{tag}: {report:?}");
            if !expect.contains_key("doc") {
                let gone = d.session("c", "pw").unwrap().get_file("doc");
                assert!(
                    matches!(gone, Err(CoreError::UnknownFile { .. })),
                    "{tag}: doc is back"
                );
            }
            assert_chunks(&d, &expect, tag);
            for p in &w.fleet {
                p.set_online(false);
                assert_chunks(&d, &expect, &format!("{tag}, {} offline", p.name()));
                p.set_online(true);
            }
            assert_no_orphans(&w, &d, tag);
        }
    }
}

/// Deleted ⇒ commit durable: `remove_file` changes only table rows
/// before its commit, so at every crash point up to and including the
/// window where the commit record is appended but unflushed, every
/// provider still holds every object of the file — data, parity, replica
/// and snapshot.
#[test]
fn remove_file_deletes_nothing_before_its_commit_is_durable() {
    let setup = |w: &World| {
        let mut l = Ledger::default();
        let (data, replicated) = (body(4 * CHUNK, 6), PutOptions::new().replicas(1));
        l.put(w, "doc", &data, PrivacyLevel::High, replicated)
            .unwrap();
        l.chunk_op(w, ChunkVerb::Update, "doc", 1, &body(CHUNK, 7))
            .unwrap();
        l
    };
    let counter = Arc::new(CrashPlan::count_only());
    let dry = world(Arc::clone(&counter));
    let mut l = setup(&dry);
    let before = counter.points_seen();
    l.remove(&dry, "doc").unwrap();
    let points = counter.points_seen() - before;
    assert!(
        held(&dry.fleet).is_empty(),
        "an acked removal leaves nothing"
    );
    assert!(points >= 3, "crash surface too small: {points}");

    for k in 1..=points {
        let w = world(Arc::new(CrashPlan::at_point(before + k)));
        let mut l = setup(&w);
        let file = held(&w.fleet);
        assert!(matches!(
            l.remove(&w, "doc"),
            Err(CoreError::SimulatedCrash { .. })
        ));
        if w.commits() == l.commits_before {
            let now = held(&w.fleet);
            assert_eq!(now, file, "point {k}: deleted before the commit");
        }
        recover_and_check(&w, &l, &format!("remove point {k}"));
    }
}

/// A remove whose commit record was appended but missed the group flush
/// is rolled back, not forward: it deleted nothing, so after recovery the
/// file reads back byte-identical — with each provider offline in turn —
/// and no object of it was swept.
#[test]
fn a_remove_whose_commit_missed_the_flush_rolls_back() {
    let data = body(4 * CHUNK, 6);
    let setup = |w: &World, l: &mut Ledger| {
        l.put(
            w,
            "doc",
            &data,
            PrivacyLevel::High,
            PutOptions::new().replicas(1),
        )
        .unwrap()
    };
    let counter = Arc::new(CrashPlan::count_only());
    let dry = world(Arc::clone(&counter));
    setup(&dry, &mut Ledger::default());
    let before = counter.points_seen();
    dry.d
        .session("c", "pw")
        .unwrap()
        .remove_file("doc")
        .unwrap();
    // The remove's last two points: appended but unflushed, then flushed.
    let unflushed = counter.points_seen() - 1;
    assert!(unflushed > before + 1, "crash surface too small");

    let w = world(Arc::new(CrashPlan::at_point(unflushed)));
    let mut l = Ledger::default();
    setup(&w, &mut l);
    let file = held(&w.fleet);
    let crashed = l.remove(&w, "doc");
    assert!(matches!(crashed, Err(CoreError::SimulatedCrash { .. })));
    assert_eq!(w.commits(), l.commits_before, "the commit missed the flush");

    let (d, report) = recover(Arc::clone(&w.journal), w.fleet.clone(), w.cfg).unwrap();
    assert_eq!(report, RecoveryReport::default());
    assert_eq!(held(&w.fleet), file, "nothing of the file was deleted");
    let s = d.session("c", "pw").unwrap();
    assert_eq!(s.get_file("doc").unwrap().data, data);
    for p in &w.fleet {
        p.set_online(false);
        let got = s.get_file("doc").unwrap().data;
        assert!(got == data, "{} offline: wrong bytes", p.name());
        p.set_online(true);
    }
}

/// A journal sink that takes its `armed` providers offline during the
/// next flush that carries a commit record: between an op's commit and
/// the deletes of what it superseded.
#[derive(Default)]
struct OutageOnFlush {
    armed: std::sync::Mutex<Vec<Arc<CloudProvider>>>,
}

impl JournalSink for OutageOnFlush {
    fn persist(&self, batch: &str) {
        if batch.contains("commit|") {
            for p in self.armed.lock().unwrap().drain(..) {
                p.set_online(false);
            }
        }
    }
}

/// A journaled distributor whose sink is an [`OutageOnFlush`], with
/// client "c" / "pw" at [`PrivacyLevel::High`].
struct OutageWorld {
    fleet: Vec<Arc<CloudProvider>>,
    journal: Arc<Journal>,
    d: CloudDataDistributor,
    sink: Arc<OutageOnFlush>,
}

impl OutageWorld {
    fn new() -> Self {
        let fleet = fleet(FLEET);
        let d = CloudDataDistributor::try_new(fleet.clone(), config()).unwrap();
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        let journal = Arc::new(Journal::new());
        let sink = Arc::new(OutageOnFlush::default());
        journal.set_sink(Arc::clone(&sink) as Arc<dyn JournalSink>);
        d.attach_journal(Arc::clone(&journal));
        OutageWorld {
            fleet,
            journal,
            d,
            sink,
        }
    }

    /// Takes `providers` offline at the next commit's flush.
    fn arm(&self, providers: impl IntoIterator<Item = usize>) {
        let armed = providers.into_iter().map(|p| Arc::clone(&self.fleet[p]));
        *self.sink.armed.lock().unwrap() = armed.collect();
    }

    fn all_online(&self) {
        self.fleet.iter().for_each(|p| p.set_online(true));
    }

    /// Provider keys no row names.
    fn unreferenced(&self) -> Vec<(usize, fragcloud::VirtualId)> {
        let referenced = self.d.referenced_vids();
        let held = held(&self.fleet).into_iter();
        held.filter(|(_, v)| !referenced.contains(v)).collect()
    }

    fn session(&self) -> fragcloud::Session<'_> {
        self.d.session("c", "pw").unwrap()
    }

    fn put(&self, name: &str, data: &[u8], opts: PutOptions) {
        let s = self.session();
        s.put_file(name, data, PrivacyLevel::High, opts).unwrap();
    }
}

/// A delete an outage refused waits for the provider, not for a recovery.
/// In each row a verb dooms objects whose provider is offline at the
/// delete: every provider goes offline between the commit's flush and the
/// deletes, or — for repair — the provider of the shard it re-places is
/// offline throughout. Once the providers are back and one more op (a
/// small put) has closed, the provider keys are exactly the vids the
/// tables reference, with no recovery, and no key was ever overwritten.
#[test]
fn a_delete_an_outage_refused_is_reclaimed_once_the_provider_is_back() {
    type Verb = fn(&OutageWorld);
    let rows: [(&str, Verb); 5] = [
        ("remove_file", |w| {
            w.arm(0..FLEET);
            w.session().remove_file("doc").unwrap();
        }),
        ("remove_chunk", |w| {
            w.arm(0..FLEET);
            w.session().remove_chunk("doc", 1).unwrap();
        }),
        ("a second update_chunk", |w| {
            let s = w.session();
            s.update_chunk("doc", 1, &body(CHUNK, 7)).unwrap();
            w.arm(0..FLEET);
            s.update_chunk("doc", 1, &body(CHUNK, 8)).unwrap();
        }),
        ("migrate_chunk", |w| {
            // The first target that moves the chunk; a refused or
            // same-provider migration dooms nothing.
            for target in 0..FLEET {
                w.arm(0..FLEET);
                let moved = w.d.migrate_chunk("c", "pw", "doc", 0, target).is_ok();
                if moved && !w.unreferenced().is_empty() {
                    return;
                }
                w.all_online();
            }
            panic!("chunk 0 moved nowhere");
        }),
        ("try_repair", |w| {
            let per_provider = w.d.client_chunks_per_provider("c").unwrap();
            let lost = per_provider.iter().position(|&n| n > 0).unwrap();
            w.fleet[lost].set_online(false);
            let report = w.d.try_repair().unwrap();
            assert!(report.shards_rebuilt > 0, "{report:?}");
        }),
    ];
    let mut left = Vec::new();
    for (verb, run) in rows {
        let w = OutageWorld::new();
        w.put("doc", &body(4 * CHUNK, 6), PutOptions::new().replicas(1));
        run(&w);
        assert!(
            !w.unreferenced().is_empty(),
            "{verb}: no delete was refused"
        );
        w.all_online();
        w.put("next", &body(700, 1), PutOptions::new());
        let keys: HashSet<_> = held(&w.fleet).into_iter().map(|(_, v)| v).collect();
        let referenced = w.d.referenced_vids();
        if keys != referenced {
            left.push((verb, keys.difference(&referenced).count()));
        }
        assert_no_overwrites(&w.fleet, verb);
    }
    assert!(
        left.is_empty(),
        "keys != referenced vids (verb, orphans): {left:?}"
    );
}

/// A crash with a non-empty reclaim queue loses nothing: the queue is not
/// journaled, and recovery's listing finds exactly what it held. Every
/// provider holding the removed file's objects goes offline while the
/// removal's commit is flushed and stays offline through more than a
/// checkpoint interval of puts, so each of its deletes stays queued; the
/// distributor dies, the holders come back, and recovery from the
/// exported journal collects exactly the file's objects.
#[test]
fn a_crash_with_a_non_empty_reclaim_queue_loses_nothing() {
    let w = OutageWorld::new();
    let cfg = config();
    let before = held(&w.fleet);
    w.put("F", &body(2 * CHUNK, 3), PutOptions::new());
    let objects: Vec<_> = held(&w.fleet).difference(&before).copied().collect();
    let holders: HashSet<usize> = objects.iter().map(|&(p, _)| p).collect();
    w.arm(holders.iter().copied());
    let s = w.session();
    s.remove_file("F").unwrap();
    for i in 0..=cfg.durability.checkpoint_interval {
        s.put_file(
            &format!("g{i}"),
            &body(700, i as u64),
            PrivacyLevel::Low,
            PutOptions::new(),
        )
        .unwrap();
    }
    let left = held(&w.fleet);
    assert!(
        objects.iter().all(|o| left.contains(o)),
        "every delete waits"
    );
    let text = w.journal.export();
    assert!(
        !text.contains("doom|"),
        "no record names the queued objects"
    );
    drop(s);
    let OutageWorld { fleet, d, .. } = w;
    drop(d);
    for &p in &holders {
        assert!(!fleet[p].is_online(), "the holders stayed offline");
        fleet[p].set_online(true);
    }

    let journal = Arc::new(Journal::parse(&text).unwrap());
    let (d, report) = recover(journal, fleet.clone(), cfg).unwrap();
    assert_eq!(report.orphans_collected, objects.len());
    assert_eq!(report.unrecoverable, 0);
    let referenced = d.referenced_vids();
    let unreferenced = fleet.iter().flat_map(|p| p.keys());
    assert_eq!(unreferenced.filter(|v| !referenced.contains(v)).count(), 0);
}

/// The lease keeps a recovered allocator from re-issuing a vid an unswept
/// orphan still holds. A put crashes after storing on provider P; P is
/// offline at recovery, so its orphans are not swept, and comes back. The
/// recovered distributor then allocates across a lease boundary: no
/// provider ever stores different bytes under a key it holds, P's orphans
/// stay the only keys no row names, and the next recovery collects them.
#[test]
fn a_recovered_allocator_never_reissues_an_unswept_orphans_vid() {
    let lease = |j: &Journal| -> u64 {
        let text = j.export();
        let line = text.lines().find_map(|l| l.strip_prefix("lease|"));
        line.map_or(0, |n| n.parse().unwrap())
    };
    let put = |w: &World, l: &mut Ledger, name: &str, salt| {
        l.put(
            w,
            name,
            &body(3000, salt),
            PrivacyLevel::Low,
            PutOptions::new(),
        )
    };
    let counter = Arc::new(CrashPlan::count_only());
    let dry = world(Arc::clone(&counter));
    put(&dry, &mut Ledger::default(), "a", 1).unwrap();
    let before = counter.points_seen();
    put(&dry, &mut Ledger::default(), "b", 2).unwrap();

    // The first crash point of "b" with an object stored and no commit.
    let (w, orphans) = (before + 1..=counter.points_seen())
        .find_map(|k| {
            let w = world(Arc::new(CrashPlan::at_point(k)));
            let mut l = Ledger::default();
            put(&w, &mut l, "a", 1).unwrap();
            let stored = held(&w.fleet);
            assert!(put(&w, &mut l, "b", 2).is_err(), "point {k} crashes b");
            let orphans: Vec<_> = held(&w.fleet).difference(&stored).copied().collect();
            (!orphans.is_empty() && w.commits() == l.commits_before).then_some((w, orphans))
        })
        .expect("a crash point after b's first store");
    let p = orphans[0].0;
    let on_p: HashSet<_> = orphans.iter().filter(|o| o.0 == p).map(|o| o.1).collect();

    w.fleet[p].set_online(false);
    let (d, report) = recover(Arc::clone(&w.journal), w.fleet.clone(), w.cfg).unwrap();
    assert_eq!(report.unrecoverable, 1, "P is not listed: {report:?}");
    w.fleet[p].set_online(true);

    let (s, start) = (d.session("c", "pw").unwrap(), lease(&w.journal));
    let mut i = 0;
    while lease(&w.journal) < start + VID_LEASE_BLOCK {
        s.put_file(
            &format!("n{i}"),
            &body(3000, i),
            PrivacyLevel::Low,
            PutOptions::new(),
        )
        .unwrap();
        i += 1;
    }
    assert_no_overwrites(&w.fleet, "across a lease boundary");
    let referenced = d.referenced_vids();
    let unreferenced: HashSet<_> = held(&w.fleet)
        .into_iter()
        .filter(|(_, v)| !referenced.contains(v))
        .collect();
    let want: HashSet<_> = on_p.iter().map(|&v| (p, v)).collect();
    assert_eq!(
        unreferenced, want,
        "P's orphans are the only unreferenced keys"
    );

    let text = w.journal.export();
    drop(s);
    drop(d);
    let journal = Arc::new(Journal::parse(&text).unwrap());
    let (d, report) = recover(journal, w.fleet.clone(), w.cfg).unwrap();
    assert_eq!(report.orphans_collected, on_p.len());
    assert_no_orphans(&w, &d, "the next recovery");
}

/// A delta that carries a `full|` row (the inline snapshot `repair` once
/// journaled) is refused with a typed error: skipping the row would
/// replay every later delta onto the wrong base.
#[test]
fn a_full_snapshot_delta_row_fails_recovery_with_corrupt_state() {
    let w = world(Arc::new(CrashPlan::count_only()));
    one_windowed_put(&w, &mut Ledger::default()).unwrap();
    let text = w.journal.export();
    let commit = text
        .lines()
        .find(|line| line.starts_with("commit|"))
        .expect("the put's commit record");
    // A well-formed row: the checkpoint itself, escaped once as the row's
    // payload and once more with the delta it joins.
    let row = format!("full|{}\n", esc(&w.journal.checkpoint()));
    let inline = format!("{commit}{}", esc(&row));
    let journal = Arc::new(Journal::parse(&text.replace(commit, &inline)).unwrap());
    assert!(matches!(
        recover(journal, w.fleet.clone(), w.cfg),
        Err(CoreError::CorruptState { .. })
    ));
}

/// Stripes of a snapshot text with at least one live member chunk.
fn live_stripes(state: &str) -> usize {
    let mut chunks: Vec<&str> = Vec::new();
    let mut live = 0;
    for line in state.lines() {
        if line.starts_with("shard|") {
            chunks.clear();
        } else if let Some(row) = line.strip_prefix("chunk|") {
            chunks.push(row);
        } else if let Some(row) = line.strip_prefix("stripe|") {
            let members = row.split('|').nth(3).unwrap_or("");
            let is_live = |m: &str| m.parse().is_ok_and(|m: usize| chunks[m].contains("|live"));
            live += usize::from(members.split(',').any(is_live));
        }
    }
    live
}

/// The `%xx` escaping a delta gets inside its close record.
fn esc(s: &str) -> String {
    s.replace('%', "%25")
        .replace('|', "%7C")
        .replace('\n', "%0A")
}

/// A delta row that is malformed, or names a shard, provider, arena slot
/// or chunk the state does not have, is refused by the fold and counted —
/// one `unrecoverable` each — and recovery still succeeds, with every
/// well-formed row of the same delta applied.
#[test]
fn bad_delta_rows_are_counted_and_recovery_still_succeeds() {
    let w = world(Arc::new(CrashPlan::count_only()));
    let mut l = Ledger::default();
    one_windowed_put(&w, &mut l).unwrap();
    let text = w.journal.export();
    let commit = text
        .lines()
        .find(|line| line.starts_with("commit|"))
        .expect("the put's commit record");
    let sh = put_shard(commit);
    let good_chunk = "7|1|0|-|||10|10|-|d0|live";
    let bad_rows = [
        "nonsense|1".to_string(),
        "vids|many".to_string(),
        "chunk|0|0|garbage".to_string(),
        format!("chunk|99|0|{good_chunk}"),
        format!("chunk|0|0|{}", good_chunk.replacen("|0|", "|77|", 1)),
        format!("chunk|0|99999999999|{good_chunk}"),
        "stripe|0|0|3|raid5|68|0,1,99999|healthy".to_string(),
        "file|0|c|ghost|1|10|99999|0".to_string(),
        "file|0|nobody|ghost|1|10||".to_string(),
        "filedel|99|c|solo".to_string(),
        "client|eve|pw-without-a-level".to_string(),
        // Rows of the put's own shard whose every index is in its arenas,
        // each still not a row: a snapshot or replica provider past the
        // fleet, a stripe whose width is not `k` plus its parity, one
        // listing a member twice, a file's stripe past any arena.
        format!("chunk|{sh}|3|7|1|0|99:5|||10|10|-|d0|live"),
        format!("chunk|{sh}|3|7|1|0|-|||10|10|-|d0|live;99:5"),
        format!("stripe|{sh}|1|5|raid5|68|0,1,2|healthy"),
        format!("stripe|{sh}|1|2|rs5|68|0,1,2|healthy"),
        format!("stripe|{sh}|1|2|raid5|68|0,0,1|healthy"),
        format!("file|{sh}|c|ghost|1|10|0|99999999999"),
    ];
    let inline = format!("{commit}{}", esc(&(bad_rows.join("\n") + "\n")));
    let journal = Arc::new(Journal::parse(&text.replace(commit, &inline)).unwrap());
    let (d, report) = recover(journal, w.fleet.clone(), w.cfg).unwrap();
    assert_eq!(report.unrecoverable, bad_rows.len(), "{report:?}");
    assert_eq!(report.orphans_collected, 0);
    assert_chunks(&d, &l.acked, "bad rows beside good ones");
    assert!(d.client_chunks_per_provider("eve").is_err());
}

/// The table shard of the `solo` put whose commit record is `commit`.
fn put_shard(commit: &str) -> String {
    let delta = unesc(commit);
    let file_row = delta
        .lines()
        .find_map(|l| l.strip_prefix("file|")?.split_once('|'));
    file_row.expect("the put's file row").0.to_string()
}

/// [`esc`] undone.
fn unesc(s: &str) -> String {
    s.replace("%0A", "\n")
        .replace("%7C", "|")
        .replace("%25", "%")
}

/// Regression: a delta row each of whose fields is fine alone, but which
/// disagrees with the rows it names, was folded, imported, and reported
/// as `unrecoverable: 0`; the next verb then indexed past the stripe
/// arena (the file re-pointed at stripe 99: `remove_file` panicked) or
/// read the wrong stripe slot (the chunk moved to its peer's slot). Now
/// the folded image's import refuses it, so `recover` fails typed.
#[test]
fn a_delta_row_that_breaks_a_link_fails_recovery_with_corrupt_state() {
    let w = world(Arc::new(CrashPlan::count_only()));
    one_windowed_put(&w, &mut Ledger::default()).unwrap();
    let text = w.journal.export();
    let commit = text
        .lines()
        .find(|line| line.starts_with("commit|"))
        .expect("the put's commit record");
    let (head, delta) = commit.rsplit_once('|').unwrap();
    let delta = unesc(delta);
    let relink = [
        |row: &str| match row.strip_prefix("file|") {
            Some(rest) => format!("file|{}|99", rest.rsplit_once('|').unwrap().0),
            None => row.to_string(),
        },
        |row: &str| row.replacen("|0:0|d0|", "|0:1|d0|", 1),
    ];
    for edit in relink {
        let edited: String = delta.lines().map(|row| edit(row) + "\n").collect();
        assert_ne!(edited, delta);
        let damaged = text.replace(commit, &format!("{head}|{}", esc(&edited)));
        let journal = Arc::new(Journal::parse(&damaged).unwrap());
        match recover(journal, w.fleet.clone(), w.cfg) {
            Err(CoreError::CorruptState { line, .. }) => assert!(line > 0),
            Err(e) => panic!("expected CorruptState, got {e}"),
            Ok((_, report)) => panic!("a broken link recovered: {report:?}"),
        }
    }
}

/// A journal written by the commit before compaction became a fold —
/// exported mid-interval, so it carries a checkpoint (escaped names, a
/// replica, a snapshot, tombstones, an RS(2,2) stripe) *and* five
/// un-compacted ops: a removal (`filedel`), a client registration, two
/// committed puts, and a put left dangling whose arena slots the later
/// put's delta skips over (an arena gap in chunks and stripes). It
/// recovers — over an empty fleet: only the tables are compared — to the
/// `export_state` and the report that commit's own recovery produced.
#[test]
fn a_journal_exported_before_the_fold_recovers_to_the_same_state() {
    let journal = include_str!("fixtures/journal_pr23_mid_interval.txt");
    let state = include_str!("fixtures/state_pr23_recovered.txt");
    let mut cfg = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(64),
        ..config()
    };
    cfg.durability = cfg
        .durability
        .with_table_shards(2)
        .with_checkpoint_interval(6);
    let journal = Arc::new(Journal::parse(journal).unwrap());
    assert!(journal.checkpoint().starts_with("fragcloud-state|v2\n"));
    assert_eq!(journal.record_len(), 4, "four closes: the fifth op dangles");
    let (d, report) = recover(journal, fleet(6), cfg).unwrap();
    assert_eq!(persist::export_state(&d), state);
    // The fleet is empty: nothing to sweep, and every recovered stripe
    // with a live member misses all of them.
    let stripes = (d.providers().iter())
        .map(|p| p.keys().len())
        .sum::<usize>();
    assert_eq!(stripes, 0);
    let want = RecoveryReport {
        orphans_collected: 0,
        unrecoverable: live_stripes(state),
    };
    assert_eq!(report, want);
}

/// A `v2` journal — written when the chunk-level verbs still overwrote
/// objects in place — holding a dangling `update_chunk` that crashed after
/// overwriting the data object: collecting fresh vids cannot undo that, so
/// recovery refuses it with a typed error naming the op.
#[test]
fn a_v2_journal_with_a_dangling_update_fails_recovery_with_corrupt_state() {
    let text = include_str!("fixtures/journal_v2_dangling_update.txt");
    // The fixture's one dangling op is an update: a `begin` with no commit.
    let id = (text.lines())
        .find_map(|l| l.strip_prefix("begin|")?.strip_suffix("|update|c|doc#1"))
        .expect("the fixture's update");
    assert!(
        !text.contains(&format!("\ncommit|{id}|")),
        "op {id} dangles"
    );
    let journal = Arc::new(Journal::parse(text).unwrap());
    match recover(journal, fleet(FLEET), config()) {
        Err(CoreError::CorruptState { why, .. }) => {
            let named = why.starts_with(&format!("op{id}: a dangling `update`"));
            assert!(named, "{why}")
        }
        Err(e) => panic!("expected CorruptState, got {e}"),
        Ok(_) => panic!("expected CorruptState, the v2 journal recovered"),
    }
}

/// One journaled put under a real group-commit window.
fn one_windowed_put(w: &World, l: &mut Ledger) -> Result<(), CoreError> {
    l.put(
        w,
        "solo",
        &body(900, 5),
        PrivacyLevel::Low,
        PutOptions::new(),
    )
}

#[test]
fn group_commit_window_crash_semantics() {
    // Size the crash surface of a single journaled put.
    let counter = Arc::new(CrashPlan::count_only());
    let w = world_with(Arc::clone(&counter), windowed_config());
    one_windowed_put(&w, &mut Ledger::default()).unwrap();
    let points = counter.points_seen();
    assert!(points >= 3, "crash surface too small: {points}");

    // The put's last three crash points bracket the group-commit window:
    //   points−2 — before its last store, so before the commit record is
    //              appended: dangling, rolls back (the file never existed);
    //   points−1 — appended but before the group fsync: the close record
    //              is discarded at recovery, rolls back (ack ⟺ flushed);
    //   points   — after the group fsync, before the ack: the commit is
    //              durable, so recovery replays it even though the caller
    //              saw a crash.
    for (back, present) in [(2u64, false), (1, false), (0, true)] {
        let k = points - back;
        let plan = Arc::new(CrashPlan::at_point(k));
        let w = world_with(Arc::clone(&plan), windowed_config());
        let mut ledger = Ledger::default();
        match one_windowed_put(&w, &mut ledger) {
            Err(CoreError::SimulatedCrash { point }) => assert_eq!(point, k),
            other => panic!("point {k}: expected a crash, got {other:?}"),
        }
        assert!(
            ledger.acked.is_empty(),
            "point {k}: the crashed put must not ack"
        );
        // What reached the sink must match the window semantics.
        let committed = w.commits() > 0;
        assert_eq!(
            committed, present,
            "point {k}: journal status vs window semantics"
        );
        recover_and_check(&w, &ledger, &format!("window point {k}"));
    }
}

/// One step of a generated workload.
#[derive(Debug, Clone)]
enum Step {
    Put(u8, usize),
    Remove(u8),
    /// Shard loss immediately followed by repair, so un-crashed runs never
    /// accumulate more missing shards per stripe than RAID-5 tolerates.
    DamageAndRepair,
    Migrate(u8),
    /// A chunk-level verb on ⟨file, serial modulo the file's chunk count⟩;
    /// the last field is the patch length of an update. Serials are drawn
    /// from a small range so second updates, restores after an update and
    /// verbs on a removed chunk all come up.
    Chunk(ChunkVerb, u8, u8, usize),
    /// Registers client `u{n}` (again, sometimes) and adds a password.
    Client(u8),
}

fn chunk_step(verb: ChunkVerb) -> impl Strategy<Value = Step> {
    (0u8..4, 0u8..3, 1usize..=CHUNK).prop_map(move |(i, sl, len)| Step::Chunk(verb, i, sl, len))
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (0u8..4, 300usize..4000).prop_map(|(i, len)| Step::Put(i, len)),
        2 => (0u8..4).prop_map(Step::Remove),
        1 => Just(Step::DamageAndRepair),
        1 => (0u8..4).prop_map(Step::Migrate),
        4 => chunk_step(ChunkVerb::Update),
        2 => chunk_step(ChunkVerb::Restore),
        1 => chunk_step(ChunkVerb::RemoveChunk),
        1 => (0u8..2).prop_map(Step::Client),
    ]
}

/// [`step_strategy`] without [`Step::DamageAndRepair`]: repair visits the
/// table shards in shard order, so its placement draws depend on the shard
/// count by design, which would break the 1-vs-N equivalence below.
fn shard_agnostic_step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u8..4, 300usize..3000).prop_map(|(i, len)| Step::Put(i, len)),
        2 => (0u8..4).prop_map(Step::Remove),
        1 => (0u8..4).prop_map(Step::Migrate),
    ]
}

fn apply_steps(w: &World, steps: &[Step], l: &mut Ledger) -> Result<(), CoreError> {
    for (i, step) in steps.iter().enumerate() {
        match step {
            Step::Put(idx, len) => {
                // Odd-numbered files carry a replica per chunk.
                let opts = PutOptions::new().replicas((idx % 2) as usize);
                let data = body(*len, i as u64 + 1);
                l.put(w, &format!("f{idx}"), &data, PrivacyLevel::Low, opts)?;
            }
            Step::Remove(idx) => l.remove(w, &format!("f{idx}"))?,
            Step::DamageAndRepair => {
                damage(w);
                w.d.try_repair()?;
            }
            Step::Migrate(idx) => migrate_somewhere(w, &format!("f{idx}"))?,
            Step::Chunk(verb, idx, sl, len) => {
                let name = format!("f{idx}");
                let chunks = l.acked.get(&name).map_or(1, Vec::len);
                let serial = *sl as usize % chunks;
                l.chunk_op(w, *verb, &name, serial, &body(*len, i as u64 + 31))?;
            }
            Step::Client(idx) => l.client(w, &format!("u{idx}"), &format!("pw{i}"))?,
        }
    }
    Ok(())
}

/// Proptest case count: 12 under tier-1; CI's wider sweep sets
/// `PROPTEST_CASES` (an explicit `with_cases` would otherwise win over it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// The recovery contract holds for arbitrary workloads crashed at an
    /// arbitrary point of their crash surface.
    #[test]
    fn arbitrary_workloads_recover_at_any_point(
        steps in proptest::collection::vec(step_strategy(), 1..10),
        point_sel in 0u64..10_000,
    ) {
        // Dry run to size this workload's crash surface.
        let counter = Arc::new(CrashPlan::count_only());
        let dry = world(Arc::clone(&counter));
        apply_steps(&dry, &steps, &mut Ledger::default()).expect("dry run must not crash");
        let points = counter.points_seen();
        prop_assume!(points > 0);

        let k = 1 + point_sel % points;
        let plan = Arc::new(CrashPlan::at_point(k));
        let w = world(Arc::clone(&plan));
        let mut ledger = Ledger::default();
        match apply_steps(&w, &steps, &mut ledger) {
            Err(CoreError::SimulatedCrash { point }) => prop_assert_eq!(point, k),
            other => prop_assert!(false, "expected a crash at {}, got {:?}", k, other),
        }
        recover_and_check(&w, &ledger, &format!("proptest point {k}"));
    }

    /// Compaction is a fold of deltas, never a re-export — so what it
    /// leaves must be what a re-export would have written. With a
    /// compaction after every commit (`checkpoint_interval(1)`), the
    /// journal holds no record after any step, and after every step that
    /// committed the checkpoint equals a fresh image of the tables
    /// (`persist::export_state`) byte for byte, no line excepted, over all
    /// eight op kinds. A verb that aborts journals nothing; the next
    /// commit's watermark covers any vid it allocated.
    #[test]
    fn the_folded_checkpoint_is_the_exported_state(
        steps in proptest::collection::vec(step_strategy(), 1..14),
    ) {
        let mut cfg = config();
        cfg.durability = cfg.durability.with_checkpoint_interval(1);
        let w = world_with(Arc::new(CrashPlan::count_only()), cfg);
        let mut ledger = Ledger::default();
        let mut compared = 0;
        // The last step always commits: a client nobody registered yet.
        let flush = [Step::Client(9)];
        for step in steps.iter().chain(&flush) {
            let commits = w.commits();
            apply_steps(&w, std::slice::from_ref(step), &mut ledger).expect("no crash planned");
            assert_no_overwrites(&w.fleet, &format!("after {step:?}"));
            prop_assert_eq!(w.journal.record_len(), 0, "after {:?}", step);
            if w.commits() > commits {
                prop_assert_eq!(w.journal.checkpoint(), persist::export_state(&w.d), "after {:?}", step);
                compared += 1;
            }
        }
        prop_assert!(compared >= 1);
    }

    /// The sharded tables are an invisible optimization: the same serial
    /// workload against 1 table shard and 8 table shards must leave
    /// byte-identical provider state (same virtual ids, same placements,
    /// same object bytes) and identical readback.
    #[test]
    fn sharded_tables_equal_single_lock_reference(
        steps in proptest::collection::vec(shard_agnostic_step_strategy(), 1..12),
    ) {
        let mut outcomes = Vec::new();
        for shards in [1usize, 8] {
            let mut cfg = config();
            cfg.durability = cfg.durability.with_table_shards(shards);
            let w = world_with(Arc::new(CrashPlan::count_only()), cfg);
            let mut ledger = Ledger::default();
            apply_steps(&w, &steps, &mut ledger).expect("no crash planned");
            // Readback sanity on this side before comparing.
            assert_chunks(&w.d, &ledger.acked, "sharding reference");
            assert_no_overwrites(&w.fleet, "sharding reference");
            let acked = ledger.acked;
            let contents: Vec<Vec<_>> = w
                .fleet
                .iter()
                .map(|p| {
                    let mut objects: Vec<_> = p
                        .virtual_id_list()
                        .into_iter()
                        .map(|vid| (vid, p.get(vid).unwrap()))
                        .collect();
                    objects.sort_by_key(|&(vid, _)| vid);
                    objects
                })
                .collect();
            outcomes.push((acked, contents));
        }
        let (acked_1, contents_1) = &outcomes[0];
        let (acked_8, contents_8) = &outcomes[1];
        prop_assert_eq!(acked_1, acked_8, "ack ledgers diverged");
        prop_assert_eq!(contents_1, contents_8, "provider state diverged");
    }
}
