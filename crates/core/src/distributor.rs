//! The Cloud Data Distributor facade.
//!
//! Implements the §VI system design: `split`/`distribute` on upload,
//! `get_chunk`/`get_file`/`get` on retrieval, `remove_chunk`/`remove_file`/
//! `remove` on deletion — plus snapshotting on update (§IV-A) and RAID
//! reconstruction when providers are down (§III-B availability).
//!
//! Every provider read and write any verb here issues crosses the one
//! boundary in [`crate::objectio`] — framed or verified, retried under the
//! configured [`RetryPolicy`](crate::resilience::RetryPolicy), scored once
//! per attempt. Reads fail over health-ordered replicas into inline parity
//! reconstruction (and can *hedge* stragglers by racing that parity path),
//! writes re-place or skip shards lost to dead providers within the
//! stripe's fault tolerance; [`crate::maintain`]'s
//! [`scrub`](CloudDataDistributor::scrub) /
//! [`try_repair`](CloudDataDistributor::try_repair) walk and heal what's left.
//! The client surface is the typed [`crate::session::Session`] API (the
//! old ⟨client, password, …⟩ string wrappers have been removed).
//!
//! Concurrency: the chunk/client tables are sharded by file-hash into
//! independently locked stripes, and journaled commits ride a cross-
//! operation group-commit window — see DESIGN.md §5d.

use crate::access;
use crate::chunker;
use crate::config::{DistributorConfig, Geometry};
use crate::health::{self, HealthTracker};
use crate::journal::{Journal, OpKind};
use crate::mislead;
use crate::mutation::{Doomed, OpCtx, Reclaimer};
use crate::objectio::{Boundary, Framed, ShardBuf, StripeReadSet, StripeRows};
use crate::persist;
use crate::policy;
use crate::pool::{Offer, TransferPool};
use crate::tables::{
    self, ChunkEntry, ChunkRole, Directory, FileEntry, StripeInfo, StripeRef, Tables,
};
use crate::vid::VidAllocator;
use crate::{CoreError, Result};
use bytes::Bytes;
use fragcloud_raid::{RaidLevel, StripeCodec};
use fragcloud_sim::{CloudProvider, CrashPlan, PrivacyLevel, StoreError, VirtualId};
use fragcloud_telemetry::{span, TelemetryHandle};
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashSet, VecDeque};
use std::io::Read;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Per-upload options, built fluently:
///
/// ```
/// use fragcloud_core::PutOptions;
/// let opts = PutOptions::new().geometry(4, 2).mislead_rate(0.02);
/// ```
///
/// `#[non_exhaustive]`: construct through [`PutOptions::new`] /
/// [`PutOptions::default`] plus the builder methods, so new knobs can be
/// added without breaking callers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct PutOptions {
    /// Override the erasure geometry (data + parity shard counts) for
    /// this file. Takes precedence over the distributor's
    /// [`GeometrySchedule`](crate::GeometrySchedule).
    pub geometry: Option<Geometry>,
    /// Override the misleading-byte rate for this file (§VII-D: "depending
    /// on the demand of clients").
    pub mislead_rate: Option<f64>,
    /// Extra full copies of each data chunk on additional distinct
    /// providers — §VI: "same chunk can be provided to multiple Cloud
    /// Providers depending on the clients' requirement. Here requirement
    /// indicates the degree of assurance the client demands."
    pub replicas: usize,
}

impl PutOptions {
    /// Defaults: distributor-level geometry, distributor-level mislead
    /// rate, no replicas.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the erasure geometry — `data` data shards plus `parity`
    /// parity shards per stripe — for this file. Validated against the
    /// GF(2⁸) field limits when the put runs.
    pub fn geometry(mut self, data: usize, parity: usize) -> Self {
        self.geometry = Some(Geometry::new(data, parity));
        self
    }

    /// Overrides the misleading-byte rate for this file.
    pub fn mislead_rate(mut self, rate: f64) -> Self {
        self.mislead_rate = Some(rate);
        self
    }

    /// Requests `n` extra full copies of each data chunk.
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }
}

/// Upload receipt: "the total number of chunks for each file is notified to
/// the client so that any chunk can be asked … by mentioning the filename
/// and serial no." (§IV-A).
#[derive(Debug, Clone, PartialEq)]
pub struct PutReceipt {
    /// Number of data chunks (valid serials are `0..chunk_count`).
    pub chunk_count: usize,
    /// Number of RAID stripes written.
    pub stripe_count: usize,
    /// Total bytes stored across providers (data + misleading + parity).
    pub bytes_stored: usize,
    /// Simulated distribution time (per-provider serialization, cross-
    /// provider parallelism).
    pub sim_time: Duration,
    /// Peak bytes of source the distributor held at once (read into its
    /// own stripe blocks but not yet stored): the measured in-flight
    /// window, bounded regardless of file size for both entry points. The
    /// caller's own buffer of a `put_file` is not counted.
    pub peak_buffer_bytes: usize,
}

/// Retrieval result with its simulated transfer time.
#[derive(Debug, Clone, PartialEq)]
pub struct GetReceipt {
    /// The reassembled plaintext.
    pub data: Vec<u8>,
    /// Simulated retrieval time.
    pub sim_time: Duration,
    /// Chunks that had to be RAID-reconstructed (provider down/object gone).
    pub reconstructed_chunks: usize,
    /// Chunks not served by their primary provider on the first try
    /// (replica failover, parity reconstruction, or a hedged read).
    pub degraded_chunks: usize,
    /// Chunks where the read raced the parity path against a straggling
    /// primary and the parity path won.
    pub hedged_chunks: usize,
    /// Total provider-operation retries spent across the file.
    pub retries: u64,
}

/// Minimum source bytes the put pipeline keeps in flight (read but not yet
/// stored), however small the stripes: the window is this many bytes or
/// [`transfer_workers`](crate::config::DurabilityConfig::transfer_workers)
/// stripes, whichever is more. A constant, not a knob — it only has to be
/// large enough that pool workers never wait on the storing thread.
pub const PUT_WINDOW_BYTES: usize = 1 << 20;

/// Where the put pipeline reads a file from.
enum PutSource<'a> {
    /// The caller's whole-file buffer (`put_file`), shrinking from the
    /// front as stripes are read.
    Buffer(&'a [u8]),
    /// A reader of declared length (`put_stream`).
    Stream(&'a mut dyn Read),
}

impl PutSource<'_> {
    /// Appends the source's next `want` bytes to `block` — fewer only at
    /// its end. A buffer copies exactly those bytes; a reader retries short
    /// reads (`take` + `read_to_end`) without zeroing the block.
    fn read_into(&mut self, block: &mut Vec<u8>, want: usize) -> std::io::Result<()> {
        match self {
            PutSource::Buffer(data) => {
                let (head, rest) = data.split_at(want.min(data.len()));
                block.extend_from_slice(head);
                *data = rest;
            }
            PutSource::Stream(reader) => {
                block.reserve(want);
                reader.take(want as u64).read_to_end(block)?;
            }
        }
        Ok(())
    }
}

/// Deferred parity writes computed by `plan_parity`.
struct ParityPlan {
    stripe_id: usize,
    width: usize,
    writes: Vec<(usize, Vec<u8>)>,
}

/// The objects a chunk-level verb stores, each under a fresh vid on the
/// provider of the object it supersedes
/// ([`CloudDataDistributor::apply_chunk_stores`]).
#[derive(Default)]
struct ChunkStores {
    /// The data object, then each replica (none for a removal); all hold
    /// `stored`.
    copies: Vec<(usize, VirtualId)>,
    stored: Bytes,
    /// An update's new snapshot, holding `pre_state`.
    snapshot: Option<(usize, VirtualId)>,
    pre_state: Bytes,
    /// One vid per parity member of the chunk's stripe, in slot order: the
    /// objects of the re-planned parity.
    parity: Vec<VirtualId>,
}

impl ChunkStores {
    /// Every fresh vid, in store order: what the verb journals.
    fn vids(&self) -> Vec<VirtualId> {
        let objects = (self.copies.iter().chain(&self.snapshot)).map(|&(_, vid)| vid);
        objects.chain(self.parity.iter().copied()).collect()
    }
}

/// Journal target of a chunk-level op: `"{filename}#{serial}"`.
pub(crate) fn chunk_target(filename: &str, serial: u32) -> String {
    format!("{filename}#{serial}")
}

/// Pre-check of a mutation's write set: every provider it will store to
/// must be reachable **before** the first store, so an outage fails the
/// verb with nothing changed.
fn ensure_online(
    fleet: &[Arc<CloudProvider>],
    providers: impl IntoIterator<Item = usize>,
) -> Result<()> {
    for idx in providers {
        let p = &fleet[idx];
        if !p.is_online() {
            return Err(CoreError::Store(StoreError::Unavailable {
                provider: p.name().to_string(),
            }));
        }
    }
    Ok(())
}

/// The Cloud Data Distributor (Fig. 1's central entity).
pub struct CloudDataDistributor {
    /// The provider-object boundary: the Cloud Provider Table (live
    /// provider handles, row index = CP index, fixed at construction or
    /// import), the per-provider health tracker every engine-issued
    /// operation feeds — detected corruptions, timeouts and errors raise
    /// a provider's EWMA score and trip its breaker, which placement then
    /// sheds; the score orders read candidates, degraded-write alternates
    /// and repair targets (see [`crate::health`]) — and the retry
    /// config. Behind an `Arc` and no lock, so a get segment on a pool
    /// worker owns a handle to it.
    io: Arc<Boundary>,
    /// The client directory (names + ⟨password, PL⟩ pairs), one map behind
    /// one lock. Its guard is taken before any shard guard and dropped
    /// before a verb takes one, and is never held across provider I/O or
    /// `JournalSink::persist`.
    clients: RwLock<Directory>,
    /// The table shards, by file-hash, each independently locked (see
    /// [`DurabilityConfig::table_shards`]): concurrent puts from different
    /// clients never contend on a table lock. A shard holds only the rows
    /// it partitions — chunk and stripe arenas, each client's files in it,
    /// put reservations; a file lives wholly in one shard.
    ///
    /// [`DurabilityConfig::table_shards`]: crate::config::DurabilityConfig::table_shards
    state: Vec<RwLock<Tables>>,
    vids: VidAllocator,
    config: DistributorConfig,
    rng: Mutex<StdRng>,
    /// Runtime observability handle (disabled by default — see
    /// [`Self::enable_telemetry`]). Kept outside `config` (which is
    /// `Copy`) and behind a lock so it can be attached to a live,
    /// shared distributor.
    telemetry: RwLock<TelemetryHandle>,
    /// Persistent transfer pool shared by every [`crate::Session`] on this
    /// distributor, created lazily on the first multi-stripe put (so
    /// single-stripe workloads never spawn a thread).
    pool: OnceLock<TransferPool>,
    /// Optional write-ahead op journal (see [`Self::attach_journal`]).
    /// Behind its own lock, never the table lock: journal records are
    /// appended while table mutations are in flight.
    journal: RwLock<Option<Arc<Journal>>>,
    /// Sim-only crash-injection plan (see [`Self::set_crash_plan`]).
    crash: RwLock<Option<Arc<CrashPlan>>>,
    /// Objects no row names, queued for deletion ([`crate::mutation`]).
    pub(crate) reclaimer: Reclaimer,
}

/// One stripe's worth of encoded shards, produced by
/// [`CloudDataDistributor::encode_stripe_group`] on the storing thread or
/// on a transfer-pool worker, whichever claimed it.
struct EncodedGroup {
    /// The stripe's source block, handed back for a later stripe to reuse.
    block: Vec<u8>,
    /// Per data chunk: its filled upload buffer, mislead positions,
    /// logical length.
    chunks: Vec<(ShardBuf, Arc<[usize]>, usize)>,
    /// Stripe shard width (longest stored chunk; shorter chunks are
    /// logically zero-padded for parity).
    width: usize,
    /// Parity blobs: empty for `RaidLevel::None`, `[P]` for RAID-5,
    /// `[P, Q]` for RAID-6.
    parity: Vec<Vec<u8>>,
}

/// One put as its execute phase sees it: the plan resolved once per put,
/// then the pieces of the final [`PutReceipt`] and the rows that grow
/// stripe by stripe. No table is reachable from here — stores reach the
/// distributor's fleet through the boundary, and rows are owned until the
/// commit publishes them.
struct PutProgress<'a> {
    filename: &'a str,
    pl: PrivacyLevel,
    raid: RaidLevel,
    k_max: usize,
    chunk_size: usize,
    rate: f64,
    replicas: usize,
    ctx: &'a OpCtx,
    /// The put's telemetry handle, resolved once in `put_pipeline`.
    tel: &'a TelemetryHandle,
    /// Chunk rows in landing order; stripe references are indices into
    /// `stripes`.
    chunks: Vec<ChunkEntry>,
    /// Stripe rows; members are indices into `chunks`.
    stripes: Vec<StripeInfo>,
    /// Indices into `chunks` of the data chunks, in serial order.
    data_rows: Vec<usize>,
    bytes_stored: usize,
    per_provider_time: Vec<Duration>,
}

/// A put's claim on ⟨client, filename⟩ (`Tables::reserved`) from its plan
/// to its commit. Dropped without [`release`](Self::release) — the put
/// failed, crashed or panicked — it frees the name under the shard lock,
/// so it is never dropped while that lock is held.
struct Reservation<'a> {
    d: &'a CloudDataDistributor,
    shard: usize,
    key: Option<(String, String)>,
}

impl Reservation<'_> {
    /// Frees the name under the guard the commit holds.
    fn release(mut self, st: &mut Tables) {
        if let Some(key) = self.key.take() {
            st.reserved.remove(&key);
        }
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.d.shard_write(self.shard).reserved.remove(&key);
        }
    }
}

/// One stripe's degraded-write bookkeeping, threaded through
/// [`CloudDataDistributor::store_slot`].
struct StripeSlots<'a> {
    /// Intended provider per shard slot.
    placement: &'a [usize],
    /// Provider actually hosting each slot so far.
    hosting: Vec<usize>,
    /// Slots whose shard could not land anywhere.
    missing: usize,
    /// Missing slots the stripe's parity still covers.
    tolerance: usize,
}

impl CloudDataDistributor {
    /// Creates a distributor over a provider fleet, or
    /// [`CoreError::InvalidConfig`] when `config` fails
    /// [`DistributorConfig::validate`].
    pub fn try_new(providers: Vec<Arc<CloudProvider>>, config: DistributorConfig) -> Result<Self> {
        let shards = (0..config.durability.table_shards)
            .map(|_| Tables::default())
            .collect();
        Self::from_shards(providers, Directory::new(), shards, config, 0)
    }

    /// The active configuration.
    pub fn config(&self) -> &DistributorConfig {
        &self.config
    }

    /// Rehydrates a distributor from an imported fleet (in the snapshot's
    /// provider order), client directory and per-shard tables (see
    /// `crate::persist`). The snapshot's shard layout is preserved as-is —
    /// `config.durability.table_shards` only governs fresh construction.
    /// `already_allocated` fast-forwards the virtual-id allocator past the
    /// previous incarnation's ids.
    pub(crate) fn from_shards(
        providers: Vec<Arc<CloudProvider>>,
        clients: Directory,
        shards: Vec<Tables>,
        config: DistributorConfig,
        already_allocated: u64,
    ) -> Result<Self> {
        config.validate()?;
        Ok(CloudDataDistributor {
            io: Arc::new(Boundary::new(providers, config.resilience, config.seed)),
            clients: RwLock::new(clients),
            state: shards.into_iter().map(RwLock::new).collect(),
            vids: VidAllocator::resume(config.seed, already_allocated),
            config,
            rng: Mutex::new(StdRng::seed_from_u64(config.seed ^ already_allocated)),
            telemetry: RwLock::new(TelemetryHandle::disabled()),
            pool: OnceLock::new(),
            journal: RwLock::new(None),
            crash: RwLock::new(None),
            reclaimer: Reclaimer::default(),
        })
    }

    // ------------------------------------------------------------------
    // Shard routing & locking
    // ------------------------------------------------------------------

    /// Number of table shards (fixed at construction / import).
    pub fn shard_count(&self) -> usize {
        self.state.len()
    }

    /// Routes a ⟨client, filename⟩ pair to its owning table shard via a
    /// self-contained FNV-1a hash (stable across platforms and releases,
    /// unlike `DefaultHasher`). A file's chunks, stripes, and file entry
    /// all live in this one shard.
    pub(crate) fn shard_for(&self, client: &str, filename: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in client
            .as_bytes()
            .iter()
            .chain(&[0xffu8])
            .chain(filename.as_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.state.len() as u64) as usize
    }

    /// Read-locks one shard, counting `shard_contention_total` when the
    /// lock was not immediately available.
    pub(crate) fn shard_read(&self, shard: usize) -> parking_lot::RwLockReadGuard<'_, Tables> {
        match self.state[shard].try_read() {
            Some(g) => g,
            None => {
                self.telemetry().incr("shard_contention_total");
                self.state[shard].read()
            }
        }
    }

    /// Write-locks one shard, counting `shard_contention_total` when the
    /// lock was not immediately available.
    pub(crate) fn shard_write(&self, shard: usize) -> parking_lot::RwLockWriteGuard<'_, Tables> {
        match self.state[shard].try_write() {
            Some(g) => g,
            None => {
                self.telemetry().incr("shard_contention_total");
                self.state[shard].write()
            }
        }
    }

    /// Read-locks the shard owning ⟨client, filename⟩.
    pub(crate) fn read_shard_for(
        &self,
        client: &str,
        filename: &str,
    ) -> parking_lot::RwLockReadGuard<'_, Tables> {
        self.shard_read(self.shard_for(client, filename))
    }

    /// Read-locks every shard in ascending order (the global lock order —
    /// all multi-shard paths must acquire ascending to stay deadlock-free).
    pub(crate) fn lock_all_read(&self) -> Vec<parking_lot::RwLockReadGuard<'_, Tables>> {
        (0..self.state.len()).map(|i| self.shard_read(i)).collect()
    }

    /// Read-locks the client directory. Its guard is taken before any
    /// shard guard and dropped before a verb takes one, and is never held
    /// across provider I/O or `JournalSink::persist`.
    pub(crate) fn directory_read(&self) -> parking_lot::RwLockReadGuard<'_, Directory> {
        self.clients.read()
    }

    /// Write-locks the client directory (the client ops), under
    /// [`directory_read`](Self::directory_read)'s rule.
    pub(crate) fn directory_write(&self) -> parking_lot::RwLockWriteGuard<'_, Directory> {
        self.clients.write()
    }

    /// `client`'s row of the client directory, read under the directory
    /// guard alone: [`CoreError::UnknownClient`] when there is none, else
    /// `password`'s level — `None` for a password the client does not
    /// list, which the verb denies once it has found its rows (§V's check
    /// follows the lookup).
    pub(crate) fn password_level(
        &self,
        client: &str,
        password: &str,
    ) -> Result<Option<PrivacyLevel>> {
        let clients = self.directory_read();
        let entry = (clients.get(client)).ok_or_else(|| CoreError::UnknownClient(client.into()))?;
        Ok(access::password_level(entry, password).ok())
    }

    /// [`CoreError::UnknownClient`] unless the directory lists `client`.
    pub(crate) fn known_client(&self, client: &str) -> Result<()> {
        match self.directory_read().contains_key(client) {
            true => Ok(()),
            false => Err(CoreError::UnknownClient(client.to_string())),
        }
    }

    /// The provider fleet (the Cloud Provider Table), fixed for the
    /// distributor's life.
    pub(crate) fn fleet(&self) -> &[Arc<CloudProvider>] {
        self.io.fleet()
    }

    /// The provider-object boundary (see [`crate::objectio`]).
    pub(crate) fn io(&self) -> &Arc<Boundary> {
        &self.io
    }

    /// The shared transfer pool, created on first use with
    /// [`DurabilityConfig::transfer_workers`] worker threads. Multi-stripe
    /// puts offer their stripe encodes here, and large gets their
    /// segments, instead of spawning fresh threads per call.
    ///
    /// [`DurabilityConfig::transfer_workers`]: crate::config::DurabilityConfig::transfer_workers
    pub fn transfer_pool(&self) -> &TransferPool {
        self.pool
            .get_or_init(|| TransferPool::new(self.config.durability.transfer_workers))
    }

    /// The current telemetry handle (a cheap clone; disabled by default).
    pub fn telemetry(&self) -> TelemetryHandle {
        self.telemetry.read().clone()
    }

    /// Attach a fresh enabled telemetry registry to this distributor and
    /// its provider fleet, returning a handle to drain it. From this
    /// point every put/get/scrub/repair (and every provider op they
    /// issue) records spans, counters, and histograms.
    pub fn enable_telemetry(&self) -> TelemetryHandle {
        let handle = TelemetryHandle::enabled();
        self.set_telemetry(handle.clone());
        handle
    }

    /// Install `handle` (enabled or disabled) on this distributor and
    /// propagate it to every provider in the fleet and any attached
    /// journal — passing a shared handle aggregates several distributors
    /// into one registry.
    pub fn set_telemetry(&self, handle: TelemetryHandle) {
        for p in self.fleet() {
            p.set_telemetry(handle.clone());
        }
        if let Some(j) = self.journal.read().clone() {
            j.set_telemetry(handle.clone());
        }
        *self.telemetry.write() = handle;
    }

    /// Number of virtual ids allocated so far (persisted by `persist`).
    pub(crate) fn vids_allocated(&self) -> u64 {
        self.vids.allocated()
    }

    // ------------------------------------------------------------------
    // Write-ahead journal + crash injection
    // ------------------------------------------------------------------

    /// Attaches a write-ahead op [`Journal`]: every subsequent mutating
    /// operation — `put_file` / `put_stream`, `remove_file`, `repair`,
    /// rebalance moves, `update_chunk`, `restore_snapshot`, `remove_chunk`,
    /// `register_client` and `add_password` — runs in the one bracket of
    /// [`crate::mutation`]: virtual ids under a durable lease *before*
    /// their provider uploads, superseded objects deleted only after the
    /// commit. Commit records carry a *delta* (just the rows the op
    /// touched) instead of a full snapshot; every
    /// [`DurabilityConfig::checkpoint_interval`] commits the journal folds
    /// the closed deltas into its checkpoint. The checkpoint is seeded
    /// here with the current state, row by row — the one time the tables
    /// are read for it — so [`recover`](crate::recovery::recover) can
    /// rebuild this distributor from the journal alone.
    ///
    /// The journal inherits this distributor's
    /// [`DurabilityConfig`](crate::config::DurabilityConfig) (group-commit
    /// window, checkpoint interval) and telemetry handle.
    ///
    /// [`DurabilityConfig::checkpoint_interval`]: crate::config::DurabilityConfig::checkpoint_interval
    pub fn attach_journal(&self, journal: Arc<Journal>) {
        journal.configure(&self.config.durability);
        journal.set_telemetry(self.telemetry());
        journal.set_checkpoint(persist::StateImage::of(self));
        *self.journal.write() = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<Journal>> {
        self.journal.read().clone()
    }

    /// Installs (or clears) a [`CrashPlan`]. Sim-only hook for the
    /// crash-injection harness: when the plan fires, the active mutation
    /// path returns [`CoreError::SimulatedCrash`] *without running any
    /// cleanup or writing an abort record* — exactly as if the distributor
    /// process had died at that instant. Never set this outside tests,
    /// benches, or recovery drills.
    pub fn set_crash_plan(&self, plan: Option<Arc<CrashPlan>>) {
        *self.crash.write() = plan;
    }

    /// One numbered crash point on a mutation path (the crash-point map
    /// lives in DESIGN.md §"Durability & crash recovery"). A no-op unless
    /// a [`CrashPlan`] is armed for this encounter.
    pub(crate) fn crash_point(&self) -> Result<()> {
        let plan = self.crash.read().clone();
        if let Some(plan) = plan {
            if plan.note_point() {
                self.telemetry().incr("sim_crashes_total");
                return Err(CoreError::SimulatedCrash {
                    point: plan.target(),
                });
            }
        }
        Ok(())
    }

    /// Registers a new client in the client directory, under its write
    /// guard alone — no table shard is touched. Journaled as a `client`
    /// op whose delta is the one directory row, appended before the guard
    /// drops.
    pub fn register_client(&self, name: &str) -> Result<()> {
        self.journaled(OpKind::Client, name, "register", |ctx| {
            let mut clients = self.directory_write();
            if clients.contains_key(name) {
                return Err(CoreError::ClientExists(name.to_string()));
            }
            self.touch_client(ctx, name, clients.entry(name.to_string()).or_default());
            self.commit_under(ctx, 0, &Tables::default());
            Ok(((), Doomed::new()))
        })
    }

    /// Adds a ⟨password, PL⟩ pair for a client (§V access control), like
    /// [`register_client`](Self::register_client) under the directory
    /// write guard. A password the client already lists fails
    /// [`CoreError::PasswordExists`] and changes nothing: a second pair
    /// would never be matched, whatever its level.
    pub fn add_password(&self, client: &str, password: &str, pl: PrivacyLevel) -> Result<()> {
        self.journaled(OpKind::Client, client, "password", |ctx| {
            let mut clients = self.directory_write();
            let entry = (clients.get_mut(client))
                .ok_or_else(|| CoreError::UnknownClient(client.to_string()))?;
            if entry.passwords.iter().any(|(listed, _)| listed == password) {
                return Err(CoreError::PasswordExists(client.to_string()));
            }
            entry.passwords.push((password.to_string(), pl));
            self.touch_client(ctx, client, entry);
            self.commit_under(ctx, 0, &Tables::default());
            Ok(((), Doomed::new()))
        })
    }

    // ------------------------------------------------------------------
    // Upload: categorize → fragment → distribute
    // ------------------------------------------------------------------

    pub(crate) fn put_file_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        data: &[u8],
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        self.journaled(OpKind::Put, client, filename, |ctx| {
            let (source, len) = (PutSource::Buffer(data), data.len());
            let receipt =
                self.put_pipeline(client, password, filename, source, len, pl, opts, ctx)?;
            Ok((receipt, Doomed::new()))
        })
    }

    /// Streaming upload: the same pipeline as
    /// [`put_file`](crate::session::Session::put_file), fed from a
    /// [`Read`](std::io::Read) of declared length `len`, so peak memory is
    /// bounded by the pipeline window instead of the file size.
    ///
    /// A source that produces more or fewer bytes than `len` fails the put
    /// with [`CoreError::StreamLengthMismatch`]; the journal rolls the
    /// partial upload back like any other failed operation.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn put_stream_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        reader: &mut dyn std::io::Read,
        len: usize,
        pl: PrivacyLevel,
        opts: PutOptions,
    ) -> Result<PutReceipt> {
        self.journaled(OpKind::Put, client, filename, |ctx| {
            let source = PutSource::Stream(reader);
            let receipt =
                self.put_pipeline(client, password, filename, source, len, pl, opts, ctx)?;
            Ok((receipt, Doomed::new()))
        })
    }

    /// The one upload path (§VI `split` → assign virtual ids → stripe →
    /// place), in three phases:
    ///
    /// 1. **Plan**, under the shard write lock: authorize, refuse a taken
    ///    name and reserve ⟨client, filename⟩ ([`Self::plan_put`]).
    /// 2. **Execute**, with no guard in scope: allocate and journal the
    ///    data vids, then one windowed loop — refill the window from the
    ///    stripe source, offering each encode to the transfer pool, join
    ///    in stripe order, store — landing owned rows ([`Self::execute_put`]).
    /// 3. **Commit**, under the write lock again: insert the file row,
    ///    push the rows, release the name ([`Self::commit_put`]), and append
    ///    the commit record before the lock drops (`commit_under`).
    ///
    /// Nothing is published before the commit: a put that fails leaves no
    /// row, only fresh vids for the bracket's rollback to collect.
    ///
    /// Provider state is a function of the inputs alone, whatever the
    /// source, the worker count or the order encodes finish in: virtual
    /// ids are allocated upfront from the declared chunk count, each
    /// stripe block is cut at [`chunker::split`]'s boundaries,
    /// stripe encode is a pure function of ⟨chunk, rate, seed ⊕ vid⟩, and
    /// stores run in stripe order on this thread (placement rng draws and
    /// parity/replica vid allocations therefore interleave identically).
    #[allow(clippy::too_many_arguments)]
    fn put_pipeline(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        source: PutSource<'_>,
        len: usize,
        pl: PrivacyLevel,
        opts: PutOptions,
        ctx: &OpCtx,
    ) -> Result<PutReceipt> {
        let tel = self.telemetry();
        let streaming = matches!(source, PutSource::Stream(_));
        let _op = span!(
            tel,
            if streaming { "put_stream" } else { "put" },
            file = filename,
            pl = pl
        );
        let shard = self.shard_for(client, filename);
        let reservation = self.plan_put(shard, client, password, filename, pl)?;

        // Effective erasure geometry, resolved once per put: an explicit
        // per-put geometry wins; otherwise the distributor's per-PL
        // schedule (or its (stripe_width, raid_level) defaults) applies.
        let geo = opts.geometry.unwrap_or(self.config.geometry_for(pl));
        geo.validate()?;
        let rate = opts.mislead_rate.unwrap_or(self.config.mislead_rate);
        mislead::validate_rate(rate)?;

        let chunk_count = chunker::chunk_count(len, pl, &self.config.chunk_sizes);
        let mut progress = PutProgress {
            filename,
            pl,
            raid: geo.level(),
            k_max: geo.data.max(1),
            chunk_size: self.config.chunk_sizes.size_for(pl),
            rate,
            replicas: opts.replicas,
            ctx,
            tel: &tel,
            per_provider_time: vec![Duration::ZERO; self.fleet().len()],
            chunks: Vec::new(),
            stripes: Vec::new(),
            data_rows: Vec::with_capacity(chunk_count),
            bytes_stored: 0,
        };
        let peak_in_flight_bytes = self.execute_put(&mut progress, source, len, chunk_count)?;

        let stripe_count = progress.stripes.len();
        {
            let mut st = self.shard_write(shard);
            self.commit_put(&mut st, client, filename, len, &mut progress);
            reservation.release(&mut st);
            self.commit_under(ctx, shard, &st);
        }

        let sim_time = progress
            .per_provider_time
            .into_iter()
            .max()
            .unwrap_or_default();
        tel.incr("puts_total");
        tel.add("put_bytes", len as u64);
        tel.add("put_chunks", chunk_count as u64);
        tel.observe_micros("put_sim_us", sim_time);
        if streaming {
            tel.incr("puts_streaming");
            tel.observe("put_stream_peak_buffer_bytes", peak_in_flight_bytes as u64);
        }
        Ok(PutReceipt {
            chunk_count,
            stripe_count,
            bytes_stored: progress.bytes_stored,
            sim_time,
            peak_buffer_bytes: peak_in_flight_bytes,
        })
    }

    /// Plan, under the shard write lock: authorize, refuse a name that has
    /// a file row or a put in flight, and reserve it — a racing put of the
    /// same name fails [`CoreError::FileExists`] before it uploads a byte.
    fn plan_put(
        &self,
        shard: usize,
        client: &str,
        password: &str,
        filename: &str,
        pl: PrivacyLevel,
    ) -> Result<Reservation<'_>> {
        access::check(self.password_level(client, password)?, pl)?;
        let key = (client.to_string(), filename.to_string());
        {
            let mut st = self.shard_write(shard);
            let files = st.files.get(client);
            if files.is_some_and(|f| f.contains_key(filename)) || st.reserved.contains(&key) {
                return Err(CoreError::FileExists(filename.to_string()));
            }
            st.reserved.insert(key.clone());
        }
        Ok(Reservation {
            d: self,
            shard,
            key: Some(key),
        })
    }

    /// Execute, with no shard guard in scope: allocates every data vid
    /// upfront, in chunk order, and hands them to `journal_alloc` — the
    /// op's rollback set, and a durable lease before any provider sees a
    /// byte — then reads the source a window ahead, offers each stripe's
    /// encode to the pool and stores stripe by stripe in order. Returns
    /// the peak source bytes in flight.
    fn execute_put(
        &self,
        progress: &mut PutProgress<'_>,
        mut source: PutSource<'_>,
        len: usize,
        chunk_count: usize,
    ) -> Result<usize> {
        let (chunk_size, k_max, rate, tel) = (
            progress.chunk_size,
            progress.k_max,
            progress.rate,
            progress.tel,
        );
        let data_vids: Vec<VirtualId> = (0..chunk_count).map(|_| self.vids.allocate()).collect();
        self.journal_alloc(progress.ctx, &data_vids);
        self.crash_point()?;

        let n_groups = chunk_count.div_ceil(k_max);
        // Stripes in flight (read but not yet stored). Sized in bytes, not
        // stripes: at PL3 a stripe is 16 KiB and encodes faster than one
        // pool round trip, so a window of `transfer_workers` stripes
        // starves the workers (see DESIGN.md §5c).
        let stripe_bytes = chunk_size.saturating_mul(k_max).max(1);
        let window = self
            .config
            .durability
            .transfer_workers
            .max(PUT_WINDOW_BYTES.div_ceil(stripe_bytes));
        let mismatch = |read: u64| CoreError::StreamLengthMismatch {
            declared: len as u64,
            read,
        };
        let io_err = |e: std::io::Error| CoreError::StreamIo { why: e.to_string() };

        // Explicit buffer accounting: a stripe's logical bytes are in
        // flight from its read-from-source to the completion of its store.
        // This brackets the lifetime of both the source block and the
        // encoded copies derived from it.
        let mut read_bytes = 0usize;
        let mut stored_logical_bytes = 0usize;
        let mut peak_in_flight_bytes = 0usize;

        let seed = self.config.seed;
        // Resolved once per put, at the first stripe's width: every full
        // stripe encodes on its tables.
        let codec = StripeCodec::new(chunk_count.clamp(1, k_max), progress.raid)?;
        // A single stripe is encoded inline; anything longer offers each
        // stripe's encode to the pool and joins them in order, so encodes
        // overlap stores and this thread encodes any stripe no worker has
        // started. A stored stripe's block and parity buffers are kept on
        // local spare lists for the stripes read after it.
        let pool = (n_groups > 1).then(|| self.transfer_pool());
        let mut offers: VecDeque<Offer<Result<EncodedGroup>>> = VecDeque::new();
        let mut spare_blocks: Vec<Vec<u8>> = Vec::new();
        let mut spare_parity: Vec<Vec<Vec<u8>>> = Vec::new();

        for next in 0..n_groups {
            // Refill the window (primes it on the first iteration). Reads
            // and offers happen on this thread, interleaved with the
            // in-order stores.
            while offers.len() < window && next + offers.len() < n_groups {
                let stripe = next + offers.len();
                // The stripe's bytes as one owned block, short only at the
                // source's end; an empty block is the empty file's one
                // empty chunk, and a source that ended early otherwise.
                let mut block = spare_blocks.pop().unwrap_or_default();
                block.clear();
                source.read_into(&mut block, stripe_bytes).map_err(io_err)?;
                read_bytes += block.len();
                if block.is_empty() && stripe > 0 {
                    return Err(mismatch(read_bytes as u64));
                }
                // Every stripe before the source's last is full, so stripe
                // `stripe` starts at chunk `stripe * k_max`.
                let first = stripe * k_max;
                let n_chunks = block.len().div_ceil(chunk_size).max(1);
                let vids = data_vids
                    .get(first..first + n_chunks)
                    .ok_or_else(|| mismatch(read_bytes as u64))?;
                peak_in_flight_bytes = peak_in_flight_bytes.max(read_bytes - stored_logical_bytes);
                // Each data shard's upload buffer is allocated here, on the
                // storing thread; the encode fills it from its span of the
                // block.
                let group: Vec<(ShardBuf, Range<usize>)> = vids
                    .iter()
                    .enumerate()
                    .map(|(i, &vid)| {
                        let span = i * chunk_size..block.len().min((i + 1) * chunk_size);
                        (ShardBuf::for_chunk(vid, span.len(), rate), span)
                    })
                    .collect();
                let scratch = spare_parity.pop().unwrap_or_default();
                let (codec, wtel) = (codec.clone(), tel.clone());
                let job = move || {
                    wtel.time("stripe_encode_ns", || {
                        Self::encode_stripe_group(block, group, rate, seed, &codec, scratch)
                    })
                };
                offers.push_back(match pool {
                    Some(pool) => pool.offer(tel, job),
                    None => Offer::inline(job),
                });
            }

            let enc = (offers.pop_front().and_then(Offer::join))
                .unwrap_or(Err(CoreError::EncodeTaskPanicked))?;
            if progress.raid != RaidLevel::None {
                tel.incr("stripe_encodes");
            }
            let (block, parity) =
                tel.time("stripe_store_ns", || self.store_stripe(progress, next, enc))?;
            spare_parity.push(parity);
            stored_logical_bytes += block.len();
            // Kept to the end of the put even once no later stripe reads
            // into it: freed mid-put, its memory is carved up by the put's
            // later allocations, and the next put's blocks land on fresh
            // pages that fault in on the read path.
            spare_blocks.push(block);
        }

        // The source must be exactly `len` bytes, drained in full (no
        // trailing byte).
        let mut trailing = Vec::new();
        source.read_into(&mut trailing, 1).map_err(io_err)?;
        read_bytes += trailing.len();
        if read_bytes != len {
            return Err(mismatch(read_bytes as u64));
        }
        Ok(peak_in_flight_bytes)
    }

    /// Commit, under the shard write lock: moves the put's rows to the
    /// lowest free slots ([`tables::fill`]), remapping stripe refs and
    /// members, then inserts the file row. Nothing here can fail: the put
    /// authorized at plan, and the client directory is append-only. Slots
    /// are assigned in the order the execute phase landed the rows, so a
    /// sequential run numbers them as a put holding the lock throughout
    /// would. Every row is marked for the op's delta.
    fn commit_put(
        &self,
        st: &mut Tables,
        client: &str,
        filename: &str,
        len: usize,
        progress: &mut PutProgress<'_>,
    ) {
        let ctx = progress.ctx;
        let chunk_slots = tables::fill(&mut st.chunks, &mut st.free_chunks, &mut progress.chunks);
        for m in progress.stripes.iter_mut().flat_map(|s| &mut s.members) {
            *m = chunk_slots[*m];
        }
        let stripe_ids = tables::fill(&mut st.stripes, &mut st.free_stripes, &mut progress.stripes);
        for &c in &chunk_slots {
            if let Some(at) = &mut st.chunks[c].stripe {
                at.stripe_id = stripe_ids[at.stripe_id];
            }
            self.touch_chunk(ctx, c);
        }
        for &j in &stripe_ids {
            self.touch_stripe(ctx, j);
        }
        let file = FileEntry {
            pl: progress.pl,
            chunk_indices: progress.data_rows.iter().map(|&i| chunk_slots[i]).collect(),
            stripe_ids,
            total_len: len,
        };
        let files = st.files.entry(client.to_string()).or_default();
        files.insert(filename.to_string(), file);
        self.touch_file(ctx, client, filename);
    }

    /// Encodes one stripe group: fills each data shard's upload buffer with
    /// its stored (mislead-injected), framed form and computes parity over
    /// the (logically zero-padded) stored chunks.
    ///
    /// An associated function on purpose — it borrows nothing from the
    /// distributor, so the put pipeline can run it on a transfer-pool
    /// worker. Determinism comes from the inputs alone: virtual ids were
    /// allocated in chunk order by the caller, and the stored form is a
    /// pure function of ⟨chunk, rate, seed ⊕ vid⟩.
    ///
    /// `group` pairs each data shard's buffer with its chunk's span of
    /// `block`, the stripe's source bytes; the block comes back in the
    /// result for the pipeline to reuse. `scratch` recycles parity buffers
    /// from already-stored stripes (popped as needed; missing entries just
    /// allocate). `codec` is resolved once per put; a short final stripe
    /// resolves its own.
    fn encode_stripe_group(
        block: Vec<u8>,
        group: Vec<(ShardBuf, Range<usize>)>,
        rate: f64,
        seed: u64,
        codec: &StripeCodec,
        mut scratch: Vec<Vec<u8>>,
    ) -> Result<EncodedGroup> {
        let chunks: Vec<(ShardBuf, Arc<[usize]>, usize)> = group
            .into_iter()
            .map(|(mut shard, span)| {
                let positions = shard.fill_stored(&block[span.clone()], rate, seed ^ shard.vid().0);
                (shard, positions, span.len())
            })
            .collect();
        let refs: Vec<&[u8]> = chunks.iter().map(|(s, _, _)| s.payload()).collect();
        let width = refs.iter().map(|s| s.len()).max().unwrap_or(0);
        let tail;
        let codec = if refs.len() == codec.data_shards() {
            codec
        } else {
            tail = StripeCodec::new(refs.len(), codec.level())?;
            &tail
        };
        let mut parity: Vec<Vec<u8>> = (0..codec.level().parity_shards())
            .map(|_| scratch.pop().unwrap_or_default())
            .collect();
        codec.parity_padded_into(&refs, width, &mut parity)?;
        Ok(EncodedGroup {
            block,
            chunks,
            width,
            parity,
        })
    }

    /// Places and stores one encoded stripe: provider placement, resilient
    /// data/replica/parity writes, and the stripe's owned rows. Runs on the
    /// caller thread only (it draws from the placement rng, allocates vids
    /// and drives provider I/O), in stripe order, with no table in reach.
    ///
    /// Returns the stripe's source block and parity buffers so the
    /// pipeline can recycle them into later reads and encodes.
    fn store_stripe(
        &self,
        progress: &mut PutProgress<'_>,
        stripe_no: usize,
        enc: EncodedGroup,
    ) -> Result<(Vec<u8>, Vec<Vec<u8>>)> {
        let (pl, raid, ctx) = (progress.pl, progress.raid, progress.ctx);
        let EncodedGroup {
            block,
            chunks: group,
            width,
            parity: parity_blobs,
        } = enc;
        let k = group.len();
        let total_shards = k + raid.parity_shards();
        // The placement rng is global (deterministic stream across the
        // whole distributor); hold its lock only for the draw itself so
        // concurrent puts never serialize on it.
        // Quarantined providers (breaker Open) are shed from placement;
        // `place_stripe_avoiding` ignores the list when the fleet is too
        // small to route around them, so writes never brick.
        let quarantined: Vec<usize> = self
            .health()
            .open_providers()
            .into_iter()
            .filter(|&i| self.health().should_shed(i, progress.tel))
            .collect();
        let first_serial = (stripe_no * progress.k_max) as u32;
        let placement = {
            let mut rng = self.rng.lock();
            policy::place_stripe_avoiding(
                self.fleet(),
                pl,
                total_shards,
                self.config.placement,
                &mut rng,
                &quarantined,
                (progress.filename, first_serial),
            )?
        };

        let stripe_id = progress.stripes.len();
        let mut members = Vec::with_capacity(total_shards);

        // Degraded-write bookkeeping: shards the engine could not land
        // anywhere are skipped (the parity already covers them) as long
        // as the stripe stays within its fault tolerance.
        let mut slots = StripeSlots {
            placement: &placement,
            hosting: placement.clone(), // actual provider per shard slot
            missing: 0,
            tolerance: raid.fault_tolerance(),
        };

        // Replica placement pool: eligible providers not used by this
        // stripe, cycled per chunk so copies spread out.
        let eligible = policy::eligible_providers(self.fleet(), pl);
        let replica_pool: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|i| !placement.contains(i))
            .collect();

        // Store data shards, each uploaded from the buffer it was encoded
        // into.
        for (i, (shard, positions, logical_len)) in group.into_iter().enumerate() {
            let object = shard.into_framed();
            let provider_idx = self.store_slot(&mut slots, i, &object, progress)?;
            let stored = object.payload();

            // Extra copies (§VI client-demanded assurance).
            let mut replicas = Vec::with_capacity(progress.replicas);
            for r in 0..progress.replicas {
                // Prefer providers outside the stripe; fall back to other
                // stripe members (still a distinct provider per copy).
                let candidates: Vec<usize> = replica_pool
                    .iter()
                    .chain(placement.iter().filter(|&&p| p != provider_idx))
                    .copied()
                    .collect();
                if candidates.is_empty() {
                    return Err(CoreError::InsufficientProviders {
                        needed: 2,
                        available: 1,
                    });
                }
                let rp = candidates[(i + r) % candidates.len()];
                let rvid = self.vids.allocate();
                self.journal_alloc(ctx, &[rvid]);
                self.crash_point()?;
                // Replicas are best-effort extra assurance: a copy that
                // cannot land is dropped, not fatal.
                let (res, t, _) = self.io.put_with_retry(rp, rvid, stored, progress.tel);
                progress.per_provider_time[rp] += t;
                if res.is_ok() {
                    progress.bytes_stored += stored.len();
                    replicas.push((rp, rvid));
                }
            }

            let row = progress.chunks.len();
            let serial = (stripe_no * progress.k_max + i) as u32;
            progress.chunks.push(ChunkEntry {
                vid: object.vid(),
                pl,
                provider_idx,
                snapshot_provider_idx: None,
                snapshot_vid: None,
                snapshot_mislead: Arc::default(),
                mislead_positions: positions,
                stored_len: stored.len(),
                logical_len,
                stripe: Some(StripeRef {
                    stripe_id,
                    index: i,
                }),
                role: ChunkRole::Data { serial },
                removed: false,
                replicas,
            });
            members.push(row);
            progress.data_rows.push(row);
        }
        // Store parity shards (buffers collected back for recycling).
        let mut recycled = Vec::with_capacity(parity_blobs.len());
        for (pi, blob) in parity_blobs.into_iter().enumerate() {
            let vid = self.vids.allocate();
            self.journal_alloc(ctx, &[vid]);
            let object = Framed::copy_of(vid, &blob);
            let provider_idx = self.store_slot(&mut slots, k + pi, &object, progress)?;
            members.push(progress.chunks.len());
            progress.chunks.push(ChunkEntry {
                vid,
                pl,
                provider_idx,
                snapshot_provider_idx: None,
                snapshot_vid: None,
                snapshot_mislead: Arc::default(),
                mislead_positions: Arc::default(),
                stored_len: width,
                logical_len: width,
                stripe: Some(StripeRef {
                    stripe_id,
                    index: k + pi,
                }),
                role: ChunkRole::Parity { index: pi as u8 },
                removed: false,
                replicas: Vec::new(),
            });
            recycled.push(blob);
        }

        progress.stripes.push(StripeInfo {
            k,
            level: raid,
            members,
            shard_width: width,
            degraded: slots.missing > 0,
        });
        Ok((block, recycled))
    }

    /// Stores one stripe member (data or parity) into its slot: a crash
    /// point, then a retried store on the intended provider; on failure the
    /// shard is re-placed on an alternative eligible provider outside the
    /// stripe (preserving anti-affinity). Returns the provider the chunk
    /// row should name — the one that took the shard, or the intended
    /// placement when every option failed (the object is simply absent
    /// until `repair` rebuilds it, and the stripe goes degraded), which is
    /// an error once the stripe has lost more members than its parity
    /// covers.
    fn store_slot(
        &self,
        slots: &mut StripeSlots<'_>,
        slot: usize,
        object: &Framed,
        progress: &mut PutProgress<'_>,
    ) -> Result<usize> {
        self.crash_point()?;
        let (preferred, pl) = (slots.placement[slot], progress.pl);
        // A preferred provider whose breaker is Open is shed up front (the
        // shard goes straight to an alternative); if no alternative can
        // take it, the quarantined preferred is still tried last — a
        // suspect provider beats a lost shard.
        let shed_preferred = self.health().should_shed(preferred, progress.tel);
        let mut lands_on = |idx: usize| {
            let (res, t, _) = self.io.put_framed(idx, object, progress.tel);
            progress.per_provider_time[idx] += t;
            res.is_ok()
        };
        let landed = if !shed_preferred && lands_on(preferred) {
            Some(preferred)
        } else {
            let alts = policy::rehoming_candidates(self.fleet(), pl, &slots.hosting, self.health());
            match alts.into_iter().find(|&alt| lands_on(alt)) {
                None if shed_preferred && lands_on(preferred) => Some(preferred),
                landed => landed,
            }
        };
        match landed {
            Some(p) => {
                slots.hosting[slot] = p;
                progress.bytes_stored += object.payload().len();
                Ok(p)
            }
            None => {
                slots.missing += 1;
                if slots.missing > slots.tolerance {
                    return Err(CoreError::RetriesExhausted {
                        attempts: self.config.resilience.retry.max_attempts,
                    });
                }
                Ok(preferred)
            }
        }
    }

    // ------------------------------------------------------------------
    // Chunk-level mutation: update, restore, remove_chunk
    // ------------------------------------------------------------------
    //
    // None of the three verbs overwrites an object. Under the file's shard
    // write lock each reads what it needs and allocates a fresh vid for
    // every object it will store (`chunk_stores`), handed to
    // `journal_alloc` before the first store; `apply_chunk_stores` re-plans the stripe's parity,
    // checks that every provider it stores to is reachable (a failure up
    // to here has stored nothing), stores, and only then switches the rows
    // to the new vids. The objects the rows named before are the verb's
    // doom list, which the bracket (`journaled`) hands to the reclaimer
    // once the commit is durable. A verb that fails or crashes before its
    // commit leaves its rows as they were and its fresh vids named by no
    // row: the bracket's rollback, or recovery, collects them.
    //
    // Each verb appends its commit record before its guard drops
    // (`commit_under`). The next verb on the same stripe re-plans parity
    // over these rows' bytes, so it must close after this one: were this
    // one rolled back alone, that parity would encode bytes no row names.

    /// `update_chunk`: the new bytes, each replica and the stripe's parity
    /// go under fresh vids; the pre-state becomes the chunk's snapshot
    /// (§IV-A), superseding any earlier one.
    pub(crate) fn update_chunk_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        serial: u32,
        new_data: &[u8],
    ) -> Result<()> {
        let tel = self.telemetry();
        let _op = span!(tel, "update", file = filename, serial = serial);
        let target = chunk_target(filename, serial);
        self.journaled(OpKind::Update, client, &target, |ctx| {
            let level = self.password_level(client, password)?;
            let shard = self.shard_for(client, filename);
            let mut st = self.shard_write(shard);
            let chunk_idx = st.live_chunk_index(client, filename, serial)?;
            let e = &st.chunks[chunk_idx];
            access::check(level, e.pl)?;
            // The pre-state, verified under the data vid: the new
            // snapshot's payload, stored on a provider other than the data
            // provider where one is eligible.
            let pre_state = self
                .io
                .get_with_retry(e.provider_idx, e.vid, Some(e.stored_len), &tel) // fraglint: allow(lock-order) — shard lock held across the boundary call until item 2 (optimistic commit)
                .0?;
            let eligible = policy::eligible_providers(self.fleet(), e.pl);
            let other = eligible.iter().copied().find(|&i| i != e.provider_idx);
            let snapshot = (other.or(eligible.first().copied()))
                .ok_or(CoreError::NoEligibleProvider { pl: e.pl })?;
            let mut stores = self.chunk_stores(&st, chunk_idx, true, Some(snapshot));
            self.journal_alloc(ctx, &stores.vids());
            // Misleading bytes as the chunk had them, seeded like a put's
            // by the (fresh) data vid.
            let rate = if e.mislead_positions.is_empty() {
                0.0
            } else {
                self.config.mislead_rate
            };
            let data_vid = stores.copies[0].1;
            let (stored, positions) =
                mislead::inject(new_data, rate, self.config.seed ^ data_vid.0);
            (stores.stored, stores.pre_state) = (stored.into(), pre_state);
            let doomed = self.apply_chunk_stores(&mut st, chunk_idx, stores, ctx)?;
            let e = &mut st.chunks[chunk_idx];
            // The snapshot holds the pre-state's *stored* form: its mislead
            // positions go with it, for a restore to strip.
            e.snapshot_mislead = std::mem::replace(&mut e.mislead_positions, positions.into());
            e.logical_len = new_data.len();
            self.commit_under(ctx, shard, &st);
            Ok(((), doomed))
        })
    }

    /// `restore_snapshot`: the snapshot's bytes — the pre-update stored
    /// form — become the chunk's again under fresh vids, with re-planned
    /// parity, and the snapshot is consumed.
    pub(crate) fn restore_snapshot_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        serial: u32,
    ) -> Result<()> {
        let tel = self.telemetry();
        let _op = span!(tel, "restore", file = filename, serial = serial);
        let target = chunk_target(filename, serial);
        self.journaled(OpKind::Restore, client, &target, |ctx| {
            let level = self.password_level(client, password)?;
            let shard = self.shard_for(client, filename);
            let mut st = self.shard_write(shard);
            let chunk_idx = st.live_chunk_index(client, filename, serial)?;
            let e = &st.chunks[chunk_idx];
            access::check(level, e.pl)?;
            let (sp, svid) = (e.snapshot_provider_idx.zip(e.snapshot_vid)).ok_or_else(|| {
                CoreError::UnknownChunk {
                    filename: filename.to_string(),
                    serial,
                }
            })?;
            // No row records the snapshot's length, so import checks its
            // positions for order only; `get_file` will strip them.
            let stored = self
                .io
                .get_with_retry(sp, svid, None, &tel) // fraglint: allow(lock-order) — shard lock held across the boundary call until item 2 (optimistic commit)
                .0?;
            if matches!(e.snapshot_mislead.last(), Some(&p) if p >= stored.len()) {
                let why = format!("{target}: snapshot mislead positions beyond its bytes");
                return Err(CoreError::CorruptState { line: 0, why });
            }
            let mut stores = self.chunk_stores(&st, chunk_idx, true, None);
            self.journal_alloc(ctx, &stores.vids());
            stores.stored = stored;
            let doomed = self.apply_chunk_stores(&mut st, chunk_idx, stores, ctx)?;
            let e = &mut st.chunks[chunk_idx];
            e.mislead_positions = std::mem::take(&mut e.snapshot_mislead);
            e.logical_len = e.stored_len - e.mislead_positions.len();
            self.commit_under(ctx, shard, &st);
            Ok(((), doomed))
        })
    }

    /// `remove_chunk`: the chunk becomes a tombstone whose stripe slot
    /// counts as zeros; only the re-planned parity is stored.
    pub(crate) fn remove_chunk_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        serial: u32,
    ) -> Result<()> {
        let tel = self.telemetry();
        let _op = span!(tel, "remove_chunk", file = filename, serial = serial);
        let target = chunk_target(filename, serial);
        self.journaled(OpKind::RemoveChunk, client, &target, |ctx| {
            let level = self.password_level(client, password)?;
            let shard = self.shard_for(client, filename);
            let mut st = self.shard_write(shard);
            let chunk_idx = st.live_chunk_index(client, filename, serial)?;
            access::check(level, st.chunks[chunk_idx].pl)?;
            let stores = self.chunk_stores(&st, chunk_idx, false, None);
            self.journal_alloc(ctx, &stores.vids());
            let doomed = self.apply_chunk_stores(&mut st, chunk_idx, stores, ctx)?;
            st.chunks[chunk_idx].tombstone();
            self.commit_under(ctx, shard, &st);
            Ok(((), doomed))
        })
    }

    /// A chunk-level verb's fresh vids, allocated in store order, each on
    /// the provider of the object it supersedes: the data object's and each
    /// replica's when the verb stores `data`, the snapshot's on `snapshot`,
    /// one per parity member of the chunk's stripe. The verb journals them
    /// before the first store and fills in the payloads.
    fn chunk_stores(
        &self,
        st: &Tables,
        chunk_idx: usize,
        data: bool,
        snapshot: Option<usize>,
    ) -> ChunkStores {
        let e = &st.chunks[chunk_idx];
        let fresh = |p: usize| (p, self.vids.allocate());
        let copies = if data {
            std::iter::once(e.provider_idx)
                .chain(e.replicas.iter().map(|&(p, _)| p))
                .map(fresh)
                .collect()
        } else {
            Vec::new()
        };
        let snapshot = snapshot.map(fresh);
        let parity_members = e.stripe.map_or(0, |at| {
            let s = &st.stripes[at.stripe_id];
            s.members.len() - s.k
        });
        ChunkStores {
            copies,
            snapshot,
            parity: (0..parity_members).map(|_| self.vids.allocate()).collect(),
            ..Default::default()
        }
    }

    /// The parity plan, the stores and the row switch of a chunk-level
    /// verb. Parity is re-planned over `stores.stored`, the chunk's new
    /// stored bytes (a removal's are empty: its slot turns to zeros), and
    /// every provider the verb stores to must be online.
    /// Then every object of `stores` goes to its provider under its fresh
    /// vid through the boundary — a crash window before the first store
    /// and after each — and no row changes until all have landed, so a
    /// failure leaves only vids no row names. Then the objects the rows
    /// name now (the chunk's [`objects`](ChunkEntry::objects), the
    /// re-planned parity members') are doomed and the rows pointed at the
    /// fresh ones: data vid, replicas and stored length, snapshot, parity
    /// vids and lengths, the stripe's width. Returns the doomed for the
    /// post-commit reclaim; the verb sets the rest of the data row.
    fn apply_chunk_stores(
        &self,
        st: &mut Tables,
        chunk_idx: usize,
        stores: ChunkStores,
        ctx: &OpCtx,
    ) -> Result<Doomed> {
        let plan = self.plan_parity(st, chunk_idx, &stores.stored)?;
        let copies = stores.copies.iter().map(|&(p, _)| p);
        ensure_online(self.fleet(), copies.chain(stores.snapshot.map(|(p, _)| p)))?;

        let tel = self.telemetry();
        let copies = (stores.copies.iter()).map(|&(p, vid)| (p, vid, &stores.stored[..]));
        let snapshot = (stores.snapshot).map(|(p, vid)| (p, vid, &stores.pre_state[..]));
        let parity = (plan.iter().flat_map(|plan| &plan.writes))
            .zip(&stores.parity)
            .map(|((m, blob), &vid)| (st.chunks[*m].provider_idx, vid, &blob[..]));
        self.crash_point()?;
        for (p, vid, bytes) in copies.chain(snapshot).chain(parity) {
            self.io.put_with_retry(p, vid, bytes, &tel).0?;
            self.crash_point()?;
        }

        let mut superseded: Vec<(usize, VirtualId)> = st.chunks[chunk_idx].objects().collect();
        if let Some(plan) = &plan {
            for (&(m, _), &vid) in plan.writes.iter().zip(&stores.parity) {
                let e = &mut st.chunks[m];
                superseded.push((e.provider_idx, e.vid));
                (e.vid, e.stored_len, e.logical_len) = (vid, plan.width, plan.width);
                self.touch_chunk(ctx, m);
            }
            st.stripes[plan.stripe_id].shard_width = plan.width;
            self.touch_stripe(ctx, plan.stripe_id);
        }
        let e = &mut st.chunks[chunk_idx];
        if let Some((&(_, vid), replicas)) = stores.copies.split_first() {
            (e.vid, e.replicas) = (vid, replicas.to_vec());
            e.stored_len = stores.stored.len();
        }
        (e.snapshot_provider_idx, e.snapshot_vid) = stores.snapshot.unzip();
        self.touch_chunk(ctx, chunk_idx);
        Ok(superseded)
    }

    /// Computes the parity a chunk-level verb stores, **without mutating
    /// anything**: `stored` is the chunk's new stored bytes (empty for a
    /// removal), and every peer is read from its provider, so an
    /// unavailable peer fails the plan before the verb stores a byte.
    fn plan_parity(
        &self,
        st: &Tables,
        chunk_idx: usize,
        stored: &[u8],
    ) -> Result<Option<ParityPlan>> {
        let Some(stripe_ref) = st.chunks[chunk_idx].stripe else {
            return Ok(None);
        };
        let stripe_id = stripe_ref.stripe_id;
        let members = &st.stripes[stripe_id].members;
        let rows = StripeRows::of(st, stripe_id);
        let (k, level) = (rows.k, rows.level);
        if level == RaidLevel::None {
            return Ok(None);
        }
        // Gather all data shards (empty for removed ones); parity treats
        // them as zero-padded to the new width. Every peer is verified
        // before the parity math: corrupt bytes would otherwise be folded
        // into the new parity permanently.
        let tel = self.telemetry();
        let mut set = StripeReadSet::default();
        let mut datas: Vec<Bytes> = Vec::with_capacity(k);
        for slot in 0..k {
            datas.push(if slot == stripe_ref.index {
                Bytes::copy_from_slice(stored)
            } else {
                self.io.read_member(&rows, &mut set, slot, &tel).0?
            });
        }
        let width = datas.iter().map(Bytes::len).max().unwrap_or(0);
        let refs: Vec<&[u8]> = datas.iter().map(|d| &d[..]).collect();
        let mut blobs: Vec<Vec<u8>> = vec![Vec::new(); level.parity_shards()];
        StripeCodec::new(k, level)?.parity_padded_into(&refs, width, &mut blobs)?;
        let writes: Vec<(usize, Vec<u8>)> = blobs
            .into_iter()
            .enumerate()
            .map(|(pi, blob)| (members[k + pi], blob))
            .collect();
        // Pre-check: the parity providers must be reachable.
        let providers = writes.iter().map(|(m, _)| st.chunks[*m].provider_idx);
        ensure_online(self.fleet(), providers)?;
        Ok(Some(ParityPlan {
            stripe_id,
            width,
            writes,
        }))
    }

    // ------------------------------------------------------------------
    // Removal
    // ------------------------------------------------------------------

    /// Removes a whole file (§VI `remove file`): data chunks, parity
    /// chunks, snapshots and all table entries.
    ///
    /// Under the shard guard only rows change; the objects go to the
    /// reclaimer once the commit is durable, so an offline holder does not
    /// fail the removal: its objects stay queued until it is back.
    pub(crate) fn remove_file_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
    ) -> Result<()> {
        let tel = self.telemetry();
        let _op = span!(tel, "remove", file = filename);
        self.journaled(OpKind::Remove, client, filename, |ctx| {
            let level = self.password_level(client, password)?;
            let shard = self.shard_for(client, filename);
            let mut st = self.shard_write(shard);
            let file = st.file(client, filename)?;
            access::check(level, file.pl)?;
            let objects: Vec<(usize, VirtualId)> = st
                .file_members(file)
                .into_iter()
                .flat_map(|m| st.chunks[m].objects())
                .collect();

            // Until its commit is durable the removal has deleted nothing:
            // a crash from here rolls it back, and the file reads as before.
            self.crash_point()?;

            let (chunks, stripes) = st.drop_file(client, filename)?;
            for m in chunks {
                self.touch_chunk(ctx, m);
            }
            for j in stripes {
                self.touch_stripe(ctx, j);
            }
            self.touch_file(ctx, client, filename);
            self.commit_under(ctx, shard, &st);
            Ok(((), objects))
        })
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Read access to the provider fleet (shared `Arc`s).
    pub fn providers(&self) -> Vec<Arc<CloudProvider>> {
        self.fleet().to_vec()
    }

    /// The live per-provider health tracker (EWMA scores + breaker
    /// states), for operator dashboards and harness assertions.
    pub fn health(&self) -> &HealthTracker {
        self.io.health()
    }

    /// Every virtual id the tables still reference: live chunks' primary
    /// ids, their replicas, and snapshot ids, unioned across all table
    /// shards. An object held by a provider under an id outside this set
    /// is an orphan — the crash-recovery harness asserts there are none
    /// after recovery.
    pub fn referenced_vids(&self) -> HashSet<VirtualId> {
        let objects = self.referenced_objects().into_iter();
        objects.map(|(_, vid)| vid).collect()
    }

    /// Every ⟨provider index, vid⟩ a row names, across all table shards:
    /// what recovery's sweep and a failed op's rollback never delete.
    pub(crate) fn referenced_objects(&self) -> HashSet<(usize, VirtualId)> {
        let mut all = HashSet::new();
        for st in self.lock_all_read() {
            all.extend(st.referenced_objects());
        }
        all
    }

    /// Allocates one fresh virtual id (migration and repair re-home an
    /// object under one).
    pub(crate) fn allocate_vid(&self) -> VirtualId {
        self.vids.allocate()
    }

    /// Chunk count per provider for one client (exposure accounting).
    pub fn client_chunks_per_provider(&self, client: &str) -> Result<Vec<usize>> {
        self.client_sum_per_provider(client, |_| 1)
    }

    /// Stored bytes per provider for one client.
    pub fn client_bytes_per_provider(&self, client: &str) -> Result<Vec<u64>> {
        self.client_sum_per_provider(client, |e| e.stored_len as u64)
    }

    /// Sums `weight` over the client's live chunks, per provider. A
    /// client's files are spread across shards, so the sum runs over
    /// every shard's files of the client.
    fn client_sum_per_provider<T: Copy + Default + std::ops::AddAssign>(
        &self,
        client: &str,
        weight: impl Fn(&ChunkEntry) -> T,
    ) -> Result<Vec<T>> {
        self.known_client(client)?;
        let mut sums = vec![T::default(); self.fleet().len()];
        for st in self.lock_all_read() {
            for file in st.files.get(client).into_iter().flat_map(|f| f.values()) {
                for e in file.chunk_indices.iter().map(|&ci| &st.chunks[ci]) {
                    if !e.removed {
                        sums[e.provider_idx] += weight(e);
                    }
                }
            }
        }
        Ok(sums)
    }

    /// Chunk count notified for a file (valid serials `0..n`).
    pub fn file_chunk_count(&self, client: &str, filename: &str) -> Result<usize> {
        self.known_client(client)?;
        Ok(self
            .read_shard_for(client, filename)
            .file(client, filename)?
            .chunk_indices
            .len())
    }

    /// Renders the three tables (Tables I–III) for demos and the Fig. 3
    /// walkthrough. Shard arenas are flattened into one global view
    /// (indices offset by shard, matching `scrub`'s id encoding) so the
    /// rendering is independent of the shard count.
    pub fn render_tables(&self) -> String {
        let st = self.merged_tables();
        format!(
            "{}\n{}\n{}",
            tables::render_provider_table(self.fleet()),
            st.render_client_table(&self.directory_read()),
            st.render_chunk_table()
        )
    }

    /// Flattens the per-shard arenas into one `Tables` value: chunk and
    /// stripe indices are offset by the cumulative sizes of earlier
    /// shards, and each client's file map is unioned. Display/introspection
    /// only — the live distributor never operates on the merged view.
    fn merged_tables(&self) -> Tables {
        let shards = self.lock_all_read();
        let mut merged = Tables::default();
        let mut chunk_off = 0usize;
        let mut stripe_off = 0usize;
        for st in &shards {
            for c in &st.chunks {
                let mut c = c.clone();
                if let Some(sref) = &mut c.stripe {
                    sref.stripe_id += stripe_off;
                }
                merged.chunks.push(c);
            }
            for s in &st.stripes {
                let mut s = s.clone();
                for m in &mut s.members {
                    *m += chunk_off;
                }
                merged.stripes.push(s);
            }
            for (name, files) in &st.files {
                let target = merged.files.entry(name.clone()).or_default();
                for (file, fe) in files {
                    let mut fe = fe.clone();
                    for ci in &mut fe.chunk_indices {
                        *ci += chunk_off;
                    }
                    for sid in &mut fe.stripe_ids {
                        *sid += stripe_off;
                    }
                    target.insert(file.clone(), fe);
                }
            }
            chunk_off += st.chunks.len();
            stripe_off += st.stripes.len();
        }
        merged
    }

    /// Derives a reputation report from the providers' lifetime operation
    /// statistics — the operator-side audit behind §IV-A's "reliability of
    /// a cloud provider is defined in terms of its reputation". Returns
    /// `(per-provider score, indices whose earned level is below their
    /// assigned PL)`; see [`health::lifetime_score`] and
    /// [`health::earned_level`].
    pub fn reputation_report(&self) -> (Vec<f64>, Vec<usize>) {
        use std::sync::atomic::Ordering;
        let fleet = self.fleet();
        let scores: Vec<f64> = (fleet.iter())
            .map(|p| {
                let stats = p.stats();
                let ok = stats.puts.load(Ordering::Relaxed)
                    + stats.gets.load(Ordering::Relaxed)
                    + stats.deletes.load(Ordering::Relaxed);
                health::lifetime_score(ok, stats.rejected.load(Ordering::Relaxed))
            })
            .collect();
        let downgrades = (0..scores.len())
            .filter(|&i| health::earned_level(scores[i]) < fleet[i].profile().privacy_level)
            .collect();
        (scores, downgrades)
    }
}

#[cfg(test)]
// The unit tests drive the typed `Session` API exclusively — the
// deprecated string-triple wrappers are gone.
mod tests {
    use super::*;
    use crate::config::{ChunkSizeSchedule, GeometrySchedule, PlacementStrategy};
    use crate::session::Session;
    use fragcloud_sim::{CostLevel, ObjectStore, ProviderProfile};

    fn fleet(n: usize, pl: PrivacyLevel) -> Vec<Arc<CloudProvider>> {
        (0..n)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    pl,
                    CostLevel::new((i % 4) as u8),
                )))
            })
            .collect()
    }

    fn small_config() -> DistributorConfig {
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule {
                sizes: [64, 32, 16, 8],
            },
            stripe_width: 3,
            ..Default::default()
        }
    }

    fn distributor() -> CloudDataDistributor {
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), small_config())
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d.add_password("Bob", "aB1c", PrivacyLevel::Public).unwrap();
        d
    }

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 131 + 17) as u8).collect()
    }

    fn high_session(d: &CloudDataDistributor) -> Session<'_> {
        d.session("Bob", "Ty7e").unwrap()
    }

    #[test]
    fn put_get_roundtrip_all_levels() {
        let d = distributor();
        let s = high_session(&d);
        for (i, pl) in PrivacyLevel::ALL.into_iter().enumerate() {
            let name = format!("f{i}");
            let body = data(200);
            s.put_file(&name, &body, pl, PutOptions::default()).unwrap();
            let got = s.get_file(&name).unwrap();
            assert_eq!(got.data, body, "{pl}");
            assert_eq!(got.reconstructed_chunks, 0);
        }
    }

    #[test]
    fn receipt_counts_match_schedule() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(100); // PL High → 8-byte chunks → 13 chunks
        let r = s
            .put_file("f", &body, PrivacyLevel::High, PutOptions::default())
            .unwrap();
        assert_eq!(r.chunk_count, 13);
        assert_eq!(r.stripe_count, 5); // ceil(13 / 3)
        assert!(r.bytes_stored > 100, "parity adds bytes");
        assert!(r.sim_time > Duration::ZERO);
        assert_eq!(s.file_chunk_count("f").unwrap(), 13);
    }

    #[test]
    fn duplicate_file_rejected() {
        let d = distributor();
        let s = high_session(&d);
        s.put_file("f", &data(10), PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        assert!(matches!(
            s.put_file("f", &data(10), PrivacyLevel::Public, PutOptions::default()),
            Err(CoreError::FileExists(_))
        ));
    }

    #[test]
    fn access_control_enforced_on_write_and_read() {
        let d = distributor();
        let high = high_session(&d);
        let public = d.session("Bob", "aB1c").unwrap();
        // Low-privilege password cannot write high data…
        assert_eq!(
            public
                .put_file("f", &data(10), PrivacyLevel::High, PutOptions::default())
                .unwrap_err(),
            CoreError::AccessDenied
        );
        // …nor read it back.
        high.put_file("f", &data(10), PrivacyLevel::High, PutOptions::default())
            .unwrap();
        assert_eq!(public.get_file("f").unwrap_err(), CoreError::AccessDenied);
        assert_eq!(
            public.get_chunk("f", 0).unwrap_err(),
            CoreError::AccessDenied
        );
        // Public file is readable by the low password.
        high.put_file(
            "pub",
            &data(10),
            PrivacyLevel::Public,
            PutOptions::default(),
        )
        .unwrap();
        assert!(public.get_file("pub").is_ok());
    }

    #[test]
    fn get_chunk_by_serial() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(70); // Public → 64-byte chunks → 2 chunks (64 + 6)
        s.put_file("f", &body, PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        let c0 = s.get_chunk("f", 0).unwrap();
        let c1 = s.get_chunk("f", 1).unwrap();
        assert_eq!(c0, &body[..64]);
        assert_eq!(c1, &body[64..]);
        assert!(matches!(
            s.get_chunk("f", 2),
            Err(CoreError::UnknownChunk { serial: 2, .. })
        ));
    }

    #[test]
    fn raid5_survives_one_provider_outage() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(300);
        s.put_file("f", &body, PrivacyLevel::Moderate, PutOptions::default())
            .unwrap();
        let providers = d.providers();
        providers[0].set_online(false);
        let got = s.get_file("f").unwrap();
        assert_eq!(got.data, body);
        providers[0].set_online(true);
    }

    #[test]
    fn raid6_survives_two_provider_outages() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(300);
        s.put_file(
            "f",
            &body,
            PrivacyLevel::Moderate,
            PutOptions::new().geometry(3, 2),
        )
        .unwrap();
        let providers = d.providers();
        providers[0].set_online(false);
        providers[1].set_online(false);
        let got = s.get_file("f").unwrap();
        assert_eq!(got.data, body);
        assert!(
            got.reconstructed_chunks > 0 || {
                // Possible the affected providers held no data chunks of this
                // file; force by checking exposure instead.
                true
            }
        );
    }

    #[test]
    fn raid_none_fails_on_outage_of_holding_provider() {
        let d = CloudDataDistributor::try_new(
            fleet(3, PrivacyLevel::High),
            DistributorConfig {
                raid_level: RaidLevel::None,
                chunk_sizes: ChunkSizeSchedule::uniform(16),
                stripe_width: 3,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let s = d.session("c", "p").unwrap();
        let body = data(48);
        s.put_file("f", &body, PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        // Take down every provider that holds a chunk of the file: with 3
        // chunks on 3 distinct providers, any one outage loses data.
        let holdings = d.client_chunks_per_provider("c").unwrap();
        let victim = holdings.iter().position(|&c| c > 0).unwrap();
        d.providers()[victim].set_online(false);
        assert!(s.get_file("f").is_err());
    }

    #[test]
    fn misleading_bytes_roundtrip_and_grow_storage() {
        let d = CloudDataDistributor::try_new(
            fleet(6, PrivacyLevel::High),
            DistributorConfig {
                mislead_rate: 0.1,
                chunk_sizes: ChunkSizeSchedule::uniform(50),
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let s = d.session("c", "p").unwrap();
        let body = data(500);
        let r = s
            .put_file("f", &body, PrivacyLevel::Moderate, PutOptions::default())
            .unwrap();
        // ~10% inflation on data chunks (plus parity).
        assert!(r.bytes_stored > 550, "bytes_stored={}", r.bytes_stored);
        assert_eq!(s.get_file("f").unwrap().data, body);
        // Attacker view: stored bytes differ from logical bytes.
        let providers = d.providers();
        let any_chunk = providers
            .iter()
            .flat_map(|p| p.observer().snapshot())
            .next()
            .unwrap();
        assert_ne!(any_chunk.data.len(), 50.min(body.len()));
    }

    #[test]
    fn update_chunk_snapshots_and_parity_stays_consistent() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(96); // Public 64 → 2 chunks
        s.put_file("f", &body, PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        let new_chunk = vec![0xEE; 64];
        s.update_chunk("f", 0, &new_chunk).unwrap();
        let got = s.get_file("f").unwrap();
        assert_eq!(&got.data[..64], new_chunk.as_slice());
        assert_eq!(&got.data[64..], &body[64..]);
        // Parity still protects the updated stripe.
        let providers = d.providers();
        #[allow(clippy::needless_range_loop)] // victim IS the index under test
        for victim in 0..providers.len() {
            providers[victim].set_online(false);
            let r = s.get_file("f");
            providers[victim].set_online(true);
            let r = r.unwrap();
            assert_eq!(&r.data[..64], new_chunk.as_slice(), "victim={victim}");
        }
        // Restore brings back the original.
        s.restore_snapshot("f", 0).unwrap();
        let got = s.get_file("f").unwrap();
        assert_eq!(got.data, body);
    }

    /// A chunk-level verb costs the journal its own few records — it never
    /// rewrites the checkpoint, so its cost cannot grow with the state the
    /// distributor holds. Pinned by counts, not time: the same four verbs
    /// against 10 resident files and against 200.
    #[test]
    fn chunk_verbs_journal_a_delta_whatever_the_resident_state() {
        // (records appended, exported bytes added) per verb.
        let measure = |files: usize| -> Vec<(usize, usize)> {
            let d = distributor();
            let journal = Arc::new(Journal::new());
            d.attach_journal(Arc::clone(&journal));
            let s = high_session(&d);
            // 10 and 200 puts leave 10 and 8 commits since the last
            // compaction (interval 16): the four verbs below never trip one.
            for i in 0..files {
                s.put_file(
                    &format!("f{i}"),
                    &data(96),
                    PrivacyLevel::Public,
                    PutOptions::new(),
                )
                .unwrap();
            }
            let verbs: [&dyn Fn() -> Result<()>; 4] = [
                &|| s.update_chunk("f0", 0, &[0xA1; 64]),
                &|| s.update_chunk("f0", 0, &[0xA2; 64]),
                &|| s.restore_snapshot("f0", 0),
                &|| s.remove_chunk("f0", 0),
            ];
            verbs
                .iter()
                .map(|verb| {
                    let checkpoint = journal.checkpoint();
                    let (records, bytes) = (journal.record_len(), journal.export().len());
                    verb().unwrap();
                    assert_eq!(journal.checkpoint(), checkpoint, "checkpoint rewritten");
                    (
                        journal.record_len() - records,
                        journal.export().len() - bytes,
                    )
                })
                .collect()
        };
        let (small, large) = (measure(10), measure(200));
        // One commit each: a verb journals nothing else.
        let records: Vec<usize> = small.iter().map(|&(r, _)| r).collect();
        assert_eq!(records, [1, 1, 1, 1]);
        assert_eq!(records, large.iter().map(|&(r, _)| r).collect::<Vec<_>>());
        // The bytes differ by the digits of op ids, the vid watermark and
        // the lease only — a few per record, not a table's worth.
        for (&(_, few), &(_, many)) in small.iter().zip(&large) {
            assert!(
                many.abs_diff(few) <= 16,
                "{few} B with 10 files, {many} B with 200"
            );
        }
    }

    /// A compaction folds the deltas of the ops that closed since the last
    /// one — it never reads the tables — so what it costs cannot grow with
    /// the state the distributor holds. Pinned by counts: the same 17 puts
    /// (the 16th commit compacts, the 17th stays a record) fold the same
    /// number of rows and leave the same number of records behind with no
    /// file resident and with 400.
    #[test]
    fn compaction_folds_the_same_rows_whatever_the_resident_state() {
        // (compactions, rows folded, records left, checkpoint == export).
        let measure = |files: usize| -> (u64, u64, usize, bool) {
            let d = distributor();
            let s = high_session(&d);
            for i in 0..files {
                let name = format!("f{i}");
                s.put_file(&name, &data(96), PrivacyLevel::Public, PutOptions::new())
                    .unwrap();
            }
            let tel = d.enable_telemetry();
            let journal = Arc::new(Journal::new());
            d.attach_journal(Arc::clone(&journal));
            for i in 0..16 {
                let name = format!("n{i}");
                s.put_file(&name, &data(96), PrivacyLevel::Public, PutOptions::new())
                    .unwrap();
            }
            let folded = journal.checkpoint() == persist::export_state(&d);
            assert_eq!(journal.record_len(), 0, "the 16th commit folds all 16");
            s.put_file("n16", &data(96), PrivacyLevel::Public, PutOptions::new())
                .unwrap();
            let reg = tel.registry().expect("enabled");
            assert_eq!(
                reg.histogram("journal_compaction_us", "").count(),
                reg.counter_total("journal_compactions_total")
            );
            (
                reg.counter_total("journal_compactions_total"),
                reg.counter_total("journal_compaction_rows_total"),
                journal.record_len(),
                folded,
            )
        };
        let (empty, full) = (measure(0), measure(400));
        assert_eq!(empty, full);
        let (compactions, rows, records, folded) = empty;
        // Per put: `vids|`, 2 data + 1 parity chunk rows, 1 stripe row, 1
        // file row; the 17th put's commit is the one record left.
        assert_eq!((compactions, rows, records), (1, 16 * 6, 1));
        assert!(folded, "the folded checkpoint is the exported state");
    }

    /// A standalone scrub runs in the mutation bracket: the degraded
    /// markers it flips are delta rows, durable with the scrub's own
    /// commit — not whenever a later compaction happens to notice them.
    #[test]
    fn a_standalone_scrub_journals_the_markers_it_flips() {
        let d = distributor();
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        let s = high_session(&d);
        for name in ["f0", "f1"] {
            s.put_file(name, &data(200), PrivacyLevel::High, PutOptions::new())
                .unwrap();
        }
        let holdings = d.client_chunks_per_provider("Bob").unwrap();
        let victim = holdings.iter().position(|&c| c > 0).unwrap();
        d.providers()[victim].set_online(false);
        let report = d.scrub();
        assert!(!report.degraded.is_empty());

        // Crash before any compaction: the journal text is what survives.
        let stripe_rows = |d: &CloudDataDistributor| -> Vec<String> {
            let state = persist::export_state(d);
            let rows = state.lines().filter(|l| l.starts_with("stripe|"));
            rows.map(str::to_string).collect()
        };
        let crashed = Arc::new(Journal::parse(&journal.export()).unwrap());
        let (recovered, _) = crate::recovery::recover(crashed, d.providers(), *d.config()).unwrap();
        let marked = stripe_rows(&recovered);
        assert_eq!(marked, stripe_rows(&d));
        assert!(marked.iter().any(|row| row.ends_with("|degraded")));

        // The way back is journaled the same way.
        d.providers()[victim].set_online(true);
        assert!(d.scrub_verify().degraded.is_empty());
        let crashed = Arc::new(Journal::parse(&journal.export()).unwrap());
        let (recovered, _) = crate::recovery::recover(crashed, d.providers(), *d.config()).unwrap();
        assert!(stripe_rows(&recovered)
            .iter()
            .all(|row| row.ends_with("|healthy")));
    }

    /// Registering a client journals its one directory row — one commit,
    /// the checkpoint untouched — with no file resident and with 200.
    #[test]
    fn client_ops_journal_one_row_whatever_the_resident_state() {
        let measure = |files: usize| -> Vec<(usize, usize)> {
            let d = distributor();
            let journal = Arc::new(Journal::new());
            d.attach_journal(Arc::clone(&journal));
            let s = high_session(&d);
            for i in 0..files {
                let name = format!("f{i}");
                s.put_file(&name, &data(96), PrivacyLevel::Public, PutOptions::new())
                    .unwrap();
            }
            let (who, pw) = ("Late|comer", "p,w:1%2C");
            let register = || d.register_client(who);
            let add_password = || d.add_password(who, pw, PrivacyLevel::Low);
            let verbs: [&dyn Fn() -> Result<()>; 2] = [&register, &add_password];
            let counts = verbs
                .iter()
                .map(|verb| {
                    let checkpoint = journal.checkpoint();
                    let (records, bytes) = (journal.record_len(), journal.export().len());
                    verb().unwrap();
                    assert_eq!(journal.checkpoint(), checkpoint, "checkpoint rewritten");
                    (
                        journal.record_len() - records,
                        journal.export().len() - bytes,
                    )
                })
                .collect();
            // The row replays: a crash now loses neither verb.
            let crashed = Arc::new(Journal::parse(&journal.export()).unwrap());
            let (r, report) =
                crate::recovery::recover(crashed, d.providers(), *d.config()).unwrap();
            assert_eq!(report.unrecoverable, 0);
            r.session(who, pw).unwrap();
            counts
        };
        let (empty, full) = (measure(0), measure(200));
        assert_eq!(empty.iter().map(|&(r, _)| r).collect::<Vec<_>>(), [1, 1]);
        for (&(records, few), &(many_records, many)) in empty.iter().zip(&full) {
            assert_eq!(records, many_records);
            // Digits of the op id and the vid watermark, nothing else.
            assert!(many.abs_diff(few) <= 16, "{few} B empty, {many} B full");
        }
    }

    /// The client directory is one map behind its own lock: the client
    /// ops and `session()` return while another thread holds any table
    /// shard's write guard.
    #[test]
    fn client_ops_never_wait_on_a_shard_guard() {
        let d = distributor();
        for shard in 0..d.shard_count() {
            let name = format!("c{shard}");
            let register = || d.register_client(&name);
            let add_password = || d.add_password(&name, "pw", PrivacyLevel::Low);
            let session = || d.session(&name, "pw").map(drop);
            let ops: [(&str, &(dyn Fn() -> Result<()> + Sync)); 3] = [
                ("register_client", &register),
                ("add_password", &add_password),
                ("session", &session),
            ];
            for (verb, op) in ops {
                let held = d.shard_write(shard);
                let (tx, rx) = std::sync::mpsc::channel();
                std::thread::scope(|scope| {
                    scope.spawn(move || tx.send(op()));
                    let got = rx.recv_timeout(Duration::from_secs(2));
                    drop(held);
                    assert_eq!(got, Ok(Ok(())), "{verb} waited on shard {shard}'s guard");
                });
            }
        }
    }

    /// A password the client already lists is refused, typed, and changes
    /// nothing: not the tables, not the journal.
    #[test]
    fn a_listed_password_is_refused_and_changes_nothing() {
        let d = distributor();
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        let before = persist::export_state(&d);
        let journaled = journal.export();
        assert_eq!(
            d.add_password("Bob", "aB1c", PrivacyLevel::High),
            Err(CoreError::PasswordExists("Bob".into()))
        );
        assert_eq!(persist::export_state(&d), before);
        let privilege = d.session("Bob", "aB1c").unwrap().privilege();
        assert_eq!(privilege, PrivacyLevel::Public);
        assert_eq!(journal.export(), journaled);
    }

    #[test]
    fn update_and_restore_with_mislead_bytes() {
        // Regression: the snapshot stores the pre-state WITH its misleading
        // bytes; restore must reinstate the matching positions, not treat
        // the snapshot as clean.
        let d = CloudDataDistributor::try_new(
            fleet(6, PrivacyLevel::High),
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(64),
                stripe_width: 3,
                mislead_rate: 0.1,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let s = d.session("c", "p").unwrap();
        let body = data(200);
        s.put_file("f", &body, PrivacyLevel::Moderate, PutOptions::default())
            .unwrap();
        s.update_chunk("f", 1, &[7u8; 64]).unwrap();
        let got = s.get_file("f").unwrap().data;
        assert_eq!(&got[..64], &body[..64]);
        assert_eq!(&got[64..128], &[7u8; 64]);
        s.restore_snapshot("f", 1).unwrap();
        assert_eq!(s.get_file("f").unwrap().data, body);
    }

    #[test]
    fn restore_without_snapshot_fails() {
        let d = distributor();
        let s = high_session(&d);
        s.put_file("f", &data(10), PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        assert!(s.restore_snapshot("f", 0).is_err());
    }

    #[test]
    fn remove_chunk_tombstones_and_parity_protects_survivors() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(192); // Public 64 → 3 chunks, one stripe of 3
        s.put_file("f", &body, PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        s.remove_chunk("f", 1).unwrap();
        // The removed chunk is gone…
        assert!(s.get_chunk("f", 1).is_err());
        // Removing again fails.
        assert!(s.remove_chunk("f", 1).is_err());
        // …but survivors are still parity-protected after the tombstone.
        let c0_provider = {
            let st = d.read_shard_for("Bob", "f");
            let file = st.file("Bob", "f").unwrap();
            st.chunks[file.chunk_indices[0]].provider_idx
        };
        d.providers()[c0_provider].set_online(false);
        let c0 = s.get_chunk("f", 0).unwrap();
        assert_eq!(c0, &body[..64]);
    }

    #[test]
    fn remove_file_deletes_everything() {
        let d = distributor();
        let s = high_session(&d);
        s.put_file(
            "f",
            &data(200),
            PrivacyLevel::Moderate,
            PutOptions::default(),
        )
        .unwrap();
        let stored_before: usize = d.providers().iter().map(|p| p.chunk_count()).sum();
        assert!(stored_before > 0);
        s.remove_file("f").unwrap();
        let stored_after: usize = d.providers().iter().map(|p| p.chunk_count()).sum();
        assert_eq!(stored_after, 0);
        assert!(matches!(
            s.get_file("f"),
            Err(CoreError::UnknownFile { .. })
        ));
        // Name is reusable afterwards.
        s.put_file("f", &data(10), PrivacyLevel::Public, PutOptions::default())
            .unwrap();
    }

    #[test]
    fn placement_respects_privacy_levels() {
        // Mixed fleet: 4 trusted + 4 cheap/low-trust providers.
        let mut providers = fleet(4, PrivacyLevel::High);
        providers.extend(fleet(4, PrivacyLevel::Low));
        let d = CloudDataDistributor::try_new(
            providers,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(8),
                stripe_width: 2,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        d.session("c", "p")
            .unwrap()
            .put_file(
                "secret",
                &data(64),
                PrivacyLevel::High,
                PutOptions::default(),
            )
            .unwrap();
        let providers = d.providers();
        for p in providers.iter() {
            if p.profile().privacy_level < PrivacyLevel::High {
                assert_eq!(
                    p.chunk_count(),
                    0,
                    "low-trust provider {} must hold no PL3 chunks",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn single_provider_baseline_concentrates_everything() {
        let d = CloudDataDistributor::try_new(
            fleet(5, PrivacyLevel::High),
            DistributorConfig {
                placement: PlacementStrategy::SingleProvider,
                raid_level: RaidLevel::None,
                chunk_sizes: ChunkSizeSchedule::uniform(16),
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        d.session("c", "p")
            .unwrap()
            .put_file("f", &data(160), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        let holdings = d.client_chunks_per_provider("c").unwrap();
        let nonzero: Vec<usize> = holdings.iter().copied().filter(|&c| c > 0).collect();
        assert_eq!(nonzero.len(), 1);
        assert_eq!(nonzero[0], 10);
    }

    #[test]
    fn unknown_client_and_file_errors() {
        let d = distributor();
        // An unknown client cannot even open a session.
        assert!(matches!(
            d.session("Eve", "x").unwrap_err(),
            CoreError::UnknownClient(_)
        ));
        assert!(matches!(
            high_session(&d).get_file("missing"),
            Err(CoreError::UnknownFile { .. })
        ));
        assert!(d.register_client("Bob").is_err());
    }

    #[test]
    fn empty_file_roundtrip() {
        let d = distributor();
        let s = high_session(&d);
        s.put_file("empty", &[], PrivacyLevel::High, PutOptions::default())
            .unwrap();
        assert_eq!(s.file_chunk_count("empty").unwrap(), 1);
        let got = s.get_file("empty").unwrap();
        assert!(got.data.is_empty());
    }

    #[test]
    fn exposure_accounting_sums_to_file() {
        let d = distributor();
        let body = data(320);
        high_session(&d)
            .put_file("f", &body, PrivacyLevel::Public, PutOptions::default())
            .unwrap();
        let chunks = d.client_chunks_per_provider("Bob").unwrap();
        assert_eq!(chunks.iter().sum::<usize>(), 5); // 320/64
        let bytes = d.client_bytes_per_provider("Bob").unwrap();
        assert_eq!(bytes.iter().sum::<u64>(), 320);
    }

    #[test]
    fn replicas_stored_and_served_on_primary_outage() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(96); // Public 64 → 2 chunks
        let r = s
            .put_file(
                "f",
                &body,
                PrivacyLevel::Public,
                PutOptions::new().geometry(3, 0).replicas(1),
            )
            .unwrap();
        // Each chunk stored twice (no parity).
        assert_eq!(r.bytes_stored, 2 * body.len());
        // Kill ANY single provider: without parity, replicas alone must
        // keep the file readable.
        let providers = d.providers();
        #[allow(clippy::needless_range_loop)] // victim IS the index under test
        for victim in 0..providers.len() {
            providers[victim].set_online(false);
            let got = s.get_file("f");
            providers[victim].set_online(true);
            let got = got.unwrap();
            assert_eq!(got.data, body, "victim={victim}");
            assert_eq!(got.reconstructed_chunks, 0, "replicas, not RAID");
        }
    }

    #[test]
    fn replicas_follow_updates_and_removal() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(64);
        s.put_file(
            "f",
            &body,
            PrivacyLevel::Public,
            PutOptions::new().geometry(3, 0).replicas(2),
        )
        .unwrap();
        let new_chunk = vec![0x11; 64];
        s.update_chunk("f", 0, &new_chunk).unwrap();
        // Knock out the primary: the replica must serve the POST-update state.
        let primary = {
            let st = d.read_shard_for("Bob", "f");
            let file = st.file("Bob", "f").unwrap();
            st.chunks[file.chunk_indices[0]].provider_idx
        };
        d.providers()[primary].set_online(false);
        let got = s.get_file("f").unwrap();
        assert_eq!(got.data, new_chunk);
        d.providers()[primary].set_online(true);
        // Removal wipes replicas too.
        s.remove_file("f").unwrap();
        let residue: usize = d.providers().iter().map(|p| p.chunk_count()).sum();
        assert_eq!(residue, 0);
    }

    #[test]
    fn replica_vids_differ_from_primary() {
        // Providers must not be able to correlate copies by id.
        let d = distributor();
        high_session(&d)
            .put_file(
                "f",
                &data(64),
                PrivacyLevel::Public,
                PutOptions {
                    replicas: 1,
                    ..Default::default()
                },
            )
            .unwrap();
        let st = d.read_shard_for("Bob", "f");
        for e in st.chunks.iter() {
            for (rp, rvid) in &e.replicas {
                assert_ne!(*rvid, e.vid);
                assert_ne!(*rp, e.provider_idx, "replica on a distinct provider");
            }
        }
    }

    #[test]
    fn reputation_report_flags_flaky_provider() {
        let d = distributor();
        let s = high_session(&d);
        let body = data(2000);
        s.put_file("f", &body, PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        // Exercise the providers: lots of successful reads…
        for _ in 0..20 {
            s.get_file("f").unwrap();
        }
        // …then hammer one with rejected requests.
        let providers = d.providers();
        providers[2].set_online(false);
        for _ in 0..30 {
            let _ = providers[2].get(fragcloud_sim::VirtualId(0));
        }
        providers[2].set_online(true);
        let (scores, downgrades) = d.reputation_report();
        assert_eq!(scores.len(), providers.len());
        assert!(
            downgrades.contains(&2),
            "scores={scores:?} downgrades={downgrades:?}"
        );
        // A provider with clean stats is not flagged.
        let healthy = (0..providers.len()).find(|i| !downgrades.contains(i));
        assert!(healthy.is_some());
    }

    #[test]
    fn tables_render_after_activity() {
        let d = distributor();
        high_session(&d)
            .put_file("file1", &data(96), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        let t = d.render_tables();
        assert!(t.contains("Cloud Provider"));
        assert!(t.contains("Bob"));
        assert!(t.contains("file1"));
    }

    // --- degraded-mode engine ---------------------------------------

    #[test]
    fn degraded_write_replaces_shard_on_spare_provider() {
        // 6 providers, stripes use 4 (3 data + P): two spares. One provider
        // passes placement but dies on its very first op — the engine must
        // re-place that shard on a spare and keep the stripe healthy.
        let d = distributor();
        d.providers()[0].fail_after_ops(0);
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        let scrub = d.scrub();
        assert!(scrub.is_healthy(), "{scrub:?}");
        assert_eq!(s.get_file("f").unwrap().data, data(40));
    }

    #[test]
    fn degraded_write_skips_shard_when_no_spare_exists() {
        // Exactly 4 providers for a 3+P stripe: no spares. A mid-write
        // death leaves the stripe degraded-but-readable; repair heals it
        // once the provider returns.
        let d = CloudDataDistributor::try_new(fleet(4, PrivacyLevel::High), small_config())
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d.providers()[1].fail_after_ops(0);
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();

        let scrub = d.scrub();
        assert_eq!(scrub.degraded.len() + scrub.unreadable.len(), 1);
        assert!(scrub.unreadable.is_empty(), "{scrub:?}");
        assert_eq!(scrub.missing_shards, 1);
        // Degraded ≠ unavailable: the file still reads back correctly.
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(40));

        // While the provider is still down and every peer hosts a sibling,
        // repair has nowhere to put the rebuilt shard.
        let failed = d.try_repair().unwrap();
        assert!(!failed.is_complete(), "{failed:?}");

        // Provider back (fail_after cleared by set_online) → full heal.
        d.providers()[1].set_online(true);
        let report = d.try_repair().unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert_eq!(report.shards_rebuilt, 1);
        assert!(d.scrub().is_healthy());
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(40));
        assert_eq!(receipt.reconstructed_chunks, 0);
        assert_eq!(receipt.degraded_chunks, 0);
    }

    #[test]
    fn repair_rebuilds_after_total_provider_loss() {
        // A provider dies *with* its stored objects (outage keeps the
        // store, but scrub/repair must treat it as lost while offline).
        let d = distributor();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(96), PrivacyLevel::Low, PutOptions::new())
            .unwrap();
        let victim = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks[0].provider_idx
        };
        d.providers()[victim].set_online(false);

        let scrub = d.scrub();
        assert!(!scrub.is_healthy());
        let report = d.try_repair().unwrap();
        assert!(report.is_complete(), "{report:?}");
        assert!(report.shards_rebuilt >= 1);
        // Rebuilt shards moved to healthy providers under fresh vids, so
        // the fleet is whole again even with the victim still dark.
        assert!(d.scrub().is_healthy());
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(96));
        assert_eq!(receipt.reconstructed_chunks, 0);
    }

    #[test]
    fn retries_surface_in_receipt_and_sim_time() {
        let d = distributor();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        let healthy_time = s.get_file("f").unwrap().sim_time;
        let victim = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks[0].provider_idx
        };
        d.providers()[victim].set_online(false);
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(40));
        assert!(receipt.reconstructed_chunks >= 1);
        assert!(receipt.degraded_chunks >= 1);
        // Default policy: 3 attempts → 2 retries against the dead primary,
        // and their backoff waits sit on the simulated clock.
        assert!(receipt.retries >= 2, "retries={}", receipt.retries);
        assert!(receipt.sim_time > healthy_time);
    }

    #[test]
    fn retry_deadline_caps_the_wait() {
        let mut config = small_config();
        config.resilience.retry = crate::resilience::RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(10),
            jitter: 0.0,
            op_deadline: Some(Duration::from_millis(15)),
        };
        config.raid_level = RaidLevel::None;
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        let victim = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks[0].provider_idx
        };
        d.providers()[victim].set_online(false);
        // 10ms + 10ms backoff > 15ms deadline → Timeout on the second wait,
        // long before the 50-attempt budget.
        let err = s.get_file("f").unwrap_err();
        assert!(
            matches!(err, CoreError::Timeout { .. }),
            "expected Timeout, got {err:?}"
        );
    }

    #[test]
    fn unstriped_loss_reports_retries_exhausted() {
        let mut config = small_config();
        config.raid_level = RaidLevel::None;
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        let victim = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks[0].provider_idx
        };
        d.providers()[victim].set_online(false);
        let gets = || -> Vec<u64> {
            use std::sync::atomic::Ordering::Relaxed;
            let fleet = d.providers();
            fleet.iter().map(|p| p.stats().gets.load(Relaxed)).collect()
        };
        let before = gets();
        let err = s.get_file("f").unwrap_err();
        assert!(
            matches!(err, CoreError::RetriesExhausted { attempts } if attempts >= 3),
            "expected RetriesExhausted, got {err:?}"
        );
        // With no parity there is nothing to rebuild from: the loss of
        // chunk 0 is reported without reading a single surviving peer.
        assert_eq!(gets(), before);
    }

    #[test]
    fn hedged_read_beats_a_straggler() {
        use fragcloud_sim::net::LatencyModel;
        use fragcloud_sim::ProviderProfile;
        // Provider 0 is a WAN-grade straggler; the rest are LAN-fast.
        let mut providers: Vec<Arc<CloudProvider>> = Vec::new();
        for i in 0..6 {
            let mut profile =
                ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(0));
            if i == 0 {
                profile.latency = LatencyModel {
                    base: Duration::from_millis(400),
                    bandwidth_bps: 1_000_000.0,
                    jitter: 0.0,
                };
            }
            providers.push(Arc::new(CloudProvider::new(profile)));
        }
        let mut config = small_config();
        config.resilience.hedge_threshold = Some(Duration::from_millis(50));
        let d = CloudDataDistributor::try_new(providers, config).expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();

        let slow_holds_data = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks
                .iter()
                .any(|c| c.provider_idx == 0 && matches!(c.role, ChunkRole::Data { .. }))
        };
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(40));
        if slow_holds_data {
            assert!(receipt.hedged_chunks >= 1, "{receipt:?}");
            // The winner's time is charged: well under the straggler's base.
            assert!(receipt.sim_time < Duration::from_millis(400));
        }
    }

    #[test]
    fn health_reorders_candidates_after_one_failed_read() {
        let d = distributor();
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file(
            "f",
            &data(8), // single chunk → one primary, one replica
            PrivacyLevel::High,
            PutOptions::new().replicas(1),
        )
        .unwrap();
        let primary = {
            let st = d.read_shard_for("Bob", "f");
            st.chunks[0].provider_idx
        };
        d.providers()[primary].set_online(false);
        // With both candidates clean the primary is tried first: retries.
        assert!(s.get_file("f").unwrap().retries > 0);
        // Those failed attempts are on the primary's score (its breaker
        // still Closed), so the very next read goes straight to the
        // replica — no retries — even though the primary is still dark.
        assert_eq!(d.health().state(primary), health::BreakerState::Closed);
        let receipt = s.get_file("f").unwrap();
        assert_eq!(receipt.data, data(8));
        assert_eq!(receipt.retries, 0, "{receipt:?}");
        assert_eq!(receipt.reconstructed_chunks, 0);
    }

    #[test]
    fn scrub_ignores_removed_stripes_and_persist_round_trips_degraded() {
        let d = CloudDataDistributor::try_new(fleet(4, PrivacyLevel::High), small_config())
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d.providers()[1].fail_after_ops(0);
        let s = d.session("Bob", "Ty7e").unwrap();
        s.put_file("f", &data(40), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        assert_eq!(d.scrub().degraded.len(), 1);

        // The degraded marker survives a persist round-trip.
        let snapshot = crate::persist::export_state(&d);
        assert!(snapshot.contains("|degraded"));
        let d2 = crate::persist::import_state(&snapshot, d.providers(), *d.config()).unwrap();
        assert!(d2
            .lock_all_read()
            .iter()
            .any(|st| st.stripes.iter().any(|s| s.degraded)));

        // Removing the file clears the stripe from scrub's ledger.
        d.providers()[1].set_online(true);
        s.remove_file("f").unwrap();
        let scrub = d.scrub();
        assert_eq!(scrub.stripes_checked, 0);
        assert!(scrub.is_healthy());
    }

    /// Every ⟨vid, payload⟩ each provider ever observed, sorted — the
    /// attacker-visible ground truth two puts must agree on to count as
    /// byte-identical.
    fn provider_state(d: &CloudDataDistributor) -> Vec<Vec<(u64, Vec<u8>)>> {
        d.providers()
            .iter()
            .map(|p| {
                let mut objs: Vec<(u64, Vec<u8>)> = p
                    .observer()
                    .snapshot()
                    .into_iter()
                    .map(|o| (o.key.0, o.data.to_vec()))
                    .collect();
                objs.sort();
                objs
            })
            .collect()
    }

    #[test]
    fn streaming_put_rejects_length_mismatch() {
        let d = distributor();
        let body = data(100);
        // Source longer than declared.
        let err = high_session(&d)
            .put_stream(
                "f",
                &mut &body[..],
                90,
                PrivacyLevel::High,
                PutOptions::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::StreamLengthMismatch { declared: 90, .. }));
        // Source shorter than declared.
        let err = high_session(&d)
            .put_stream(
                "f",
                &mut &body[..],
                120,
                PrivacyLevel::High,
                PutOptions::new(),
            )
            .unwrap_err();
        assert!(matches!(err, CoreError::StreamLengthMismatch { declared: 120, .. }));
        // The failed puts left no file behind; an exact-length retry works.
        assert!(high_session(&d).get_file("f").is_err());
        high_session(&d)
            .put_stream(
                "f",
                &mut &body[..],
                body.len(),
                PrivacyLevel::High,
                PutOptions::new(),
            )
            .unwrap();
        assert_eq!(high_session(&d).get_file("f").unwrap().data, body);
    }

    #[test]
    fn rs_geometry_put_survives_m_provider_losses() {
        // RS(4,3): any three lost stripe members must be reconstructable —
        // beyond what RAID-6 could ever deliver.
        let mut config = small_config();
        config.mislead_rate = 0.05;
        let d = CloudDataDistributor::try_new(fleet(9, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let body = data(300);
        let receipt = high_session(&d)
            .put_file(
                "f",
                &body,
                PrivacyLevel::High,
                PutOptions::new().geometry(4, 3),
            )
            .unwrap();
        assert!(receipt.stripe_count >= 2);
        {
            let st = d.lock_all_read();
            for shard in st.iter() {
                for s in &shard.stripes {
                    assert_eq!(s.level, RaidLevel::Rs { parity: 3 });
                    assert!(s.k <= 4);
                    assert_eq!(s.members.len(), s.k + 3);
                }
            }
        }
        // Kill three providers hosting shards of the first stripe.
        let victims: Vec<usize> = {
            let st = d.lock_all_read();
            let shard = st
                .iter()
                .find(|s| !s.stripes.is_empty())
                .expect("stripes exist");
            shard.stripes[0].members[..3]
                .iter()
                .map(|&m| shard.chunks[m].provider_idx)
                .collect()
        };
        for v in &victims {
            d.providers()[*v].set_online(false);
        }
        let got = high_session(&d).get_file("f").unwrap();
        assert_eq!(got.data, body);
        assert!(got.reconstructed_chunks > 0 || got.degraded_chunks > 0);
    }

    #[test]
    fn geometry_resolution_precedence() {
        // Config-level schedule applies when options are silent; a per-put
        // geometry wins outright.
        let mut config = small_config();
        config.geometry = Some(crate::GeometrySchedule::uniform(crate::Geometry::new(4, 2)));
        let d = CloudDataDistributor::try_new(fleet(8, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let s = high_session(&d);
        let body = data(200);
        s.put_file("schedule", &body, PrivacyLevel::High, PutOptions::new())
            .unwrap();
        s.put_file(
            "geometry-override",
            &body,
            PrivacyLevel::High,
            PutOptions::new().geometry(2, 3),
        )
        .unwrap();
        let st = d.lock_all_read();
        let stripe_levels = |file: &str| -> Vec<(usize, RaidLevel)> {
            st.iter()
                .flat_map(|sh| {
                    sh.files.get("Bob").into_iter().flat_map(|files| {
                        files.get(file).into_iter().flat_map(|f| {
                            f.stripe_ids
                                .iter()
                                .map(|&sid| (sh.stripes[sid].k, sh.stripes[sid].level))
                                .collect::<Vec<_>>()
                        })
                    })
                })
                .collect()
        };
        let sched = stripe_levels("schedule");
        assert!(!sched.is_empty());
        assert!(sched.iter().all(|&(k, l)| k <= 4 && l == RaidLevel::Raid6));
        let geo_over = stripe_levels("geometry-override");
        assert!(geo_over
            .iter()
            .all(|&(k, l)| k <= 2 && l == RaidLevel::Rs { parity: 3 }));
    }

    #[test]
    fn rs_stripes_survive_persist_roundtrip() {
        let mut config = small_config();
        config.mislead_rate = 0.0;
        let providers = fleet(9, PrivacyLevel::High);
        let d = CloudDataDistributor::try_new(providers.clone(), config).expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let body = data(150);
        high_session(&d)
            .put_file(
                "f",
                &body,
                PrivacyLevel::High,
                PutOptions::new().geometry(3, 3),
            )
            .unwrap();
        let snapshot = persist::export_state(&d);
        assert!(snapshot.contains("|rs3|"), "rs level tag persisted");
        let d2 = persist::import_state(&snapshot, providers, config).unwrap();
        let st = d2.lock_all_read();
        assert!(st
            .iter()
            .flat_map(|sh| sh.stripes.iter())
            .all(|s| s.level == RaidLevel::Rs { parity: 3 }));
        drop(st);
        assert_eq!(high_session(&d2).get_file("f").unwrap().data, body);
    }

    // --- sharded tables + group commit -------------------------------

    #[test]
    fn shard_routing_is_stable_and_in_range() {
        let mut config = small_config();
        config.durability = config.durability.with_table_shards(8);
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
            .expect("valid config");
        assert_eq!(d.shard_count(), 8);
        let a = d.shard_for("Bob", "f0");
        assert_eq!(a, d.shard_for("Bob", "f0"), "routing is deterministic");
        assert!(a < 8);
        // Distinct files spread: with 32 names, at least two shards get hit.
        let shards: std::collections::HashSet<usize> = (0..32)
            .map(|i| d.shard_for("Bob", &format!("f{i}")))
            .collect();
        assert!(shards.len() >= 2, "{shards:?}");
    }

    #[test]
    fn concurrent_puts_group_commit_and_stay_readable() {
        use crate::journal::{Journal, SimulatedFsyncSink};
        let mut config = small_config();
        config.durability = config
            .durability
            .with_table_shards(8)
            .with_group_commit_window(Duration::from_millis(2))
            .with_checkpoint_interval(64);
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        let tel = d.enable_telemetry();
        let journal = Arc::new(Journal::new());
        journal.set_sink(Arc::new(SimulatedFsyncSink {
            cost: Duration::from_millis(2),
        }));
        d.attach_journal(Arc::clone(&journal));

        let n = 8usize;
        crossbeam::thread::scope(|scope| {
            for t in 0..n {
                let d = &d;
                scope.spawn(move |_| {
                    let s = d.session("Bob", "Ty7e").unwrap();
                    s.put_file(
                        &format!("f{t}"),
                        &data(96),
                        PrivacyLevel::High,
                        PutOptions::new(),
                    )
                    .unwrap();
                });
            }
        })
        .unwrap();

        // Every put committed durably and reads back.
        let s = d.session("Bob", "Ty7e").unwrap();
        for t in 0..n {
            assert_eq!(s.get_file(&format!("f{t}")).unwrap().data, data(96));
        }
        let reg = tel.registry().expect("enabled");
        assert_eq!(reg.counter_total("journal_commits_total"), n as u64);
        let fsyncs = reg.counter_total("fsync_total");
        assert!(fsyncs >= 1, "at least one group flush");
        // Group commit can only merge flushes, never multiply them.
        assert!(fsyncs <= n as u64, "fsyncs={fsyncs}");
        // Every put survives a recovery replay.
        let providers = d.providers();
        let config = *d.config();
        drop(d);
        let (recovered, _) = crate::recovery::recover(journal, providers, config).unwrap();
        for t in 0..n {
            let s2 = recovered.session("Bob", "Ty7e").unwrap();
            assert_eq!(s2.get_file(&format!("f{t}")).unwrap().data, data(96));
        }
    }

    #[test]
    fn per_put_mislead_rate_is_validated_before_any_side_effect() {
        // Regression: only the config-level rate was checked, so a bad
        // per-put override reached inject's assert on a pool worker, after
        // vids were allocated and journaled, and left the op dangling.
        use crate::journal::Journal;
        let d = distributor();
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        let s = high_session(&d);
        let body = data(500);
        for (i, rate) in [0.5, 0.8, -0.1, f64::NAN].into_iter().enumerate() {
            let opts = || PutOptions::new().mislead_rate(rate);
            let vids_before = d.vids_allocated();
            let buffered = s.put_file(&format!("b{i}"), &body, PrivacyLevel::High, opts());
            let streamed = s.put_stream(
                &format!("s{i}"),
                &mut body.as_slice(),
                body.len(),
                PrivacyLevel::High,
                opts(),
            );
            for res in [buffered, streamed] {
                match res {
                    Err(CoreError::InvalidConfig { detail }) => {
                        assert!(detail.contains("mislead_rate"), "{detail}")
                    }
                    other => panic!("rate {rate}: expected InvalidConfig, got {other:?}"),
                }
            }
            assert_eq!(d.vids_allocated(), vids_before, "rate {rate}");
        }
        // Eight refused puts journaled nothing: no commit, no lease.
        assert_eq!(journal.export().lines().count(), 3);
        assert!(d.providers().iter().all(|p| p.chunk_count() == 0));
        // The same session still works with a legal override.
        s.put_file(
            "ok",
            &body,
            PrivacyLevel::High,
            PutOptions::new().mislead_rate(0.49),
        )
        .unwrap();
        assert_eq!(s.get_file("ok").unwrap().data, body);
    }

    #[test]
    fn remove_file_tombstones_reference_nothing() {
        // Regression: the tombstone kept `snapshot_vid` (object already
        // deleted) and both position lists, so `referenced_vids` named a
        // vid no provider holds and every checkpoint re-wrote dead rows —
        // and `remove_file` kept the replica list, a rolled-back put both
        // position lists. Every route to a dead row is the one
        // `ChunkEntry::tombstone`.
        let mut config = small_config();
        config.mislead_rate = 0.1;
        let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
            .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d.attach_journal(Arc::new(Journal::new()));
        let s = high_session(&d);
        let opts = PutOptions::new().replicas(1);
        for name in ["keep", "gone"] {
            s.put_file(name, &data(100), PrivacyLevel::High, opts)
                .unwrap();
            s.update_chunk(name, 1, &[7u8; 8]).unwrap();
        }
        s.remove_file("gone").unwrap();
        let dead_rows = || -> usize {
            let shards = d.lock_all_read();
            shards.iter().flat_map(|st| &st.chunks).filter(|e| e.removed).count()
        };
        let removed_by_remove_file = dead_rows();
        assert!(removed_by_remove_file > 0);
        // A put that fails after its stripes were stored is rolled back
        // live: it published no row, so it leaves no dead one either.
        let rows = || {
            d.lock_all_read()
                .iter()
                .map(|st| st.chunks.len())
                .sum::<usize>()
        };
        let rows_before = rows();
        s.put_stream("aborted", &mut &data(100)[..], 90, PrivacyLevel::High, opts)
            .unwrap_err();
        assert_eq!(rows(), rows_before);
        assert_eq!(dead_rows(), removed_by_remove_file);

        let held: HashSet<VirtualId> = d
            .providers()
            .iter()
            .flat_map(|p| p.virtual_id_list())
            .collect();
        let mut referenced = HashSet::new();
        for st in d.lock_all_read().iter() {
            referenced.extend(st.referenced_objects().into_iter().map(|(_, vid)| vid));
            for e in st.chunks.iter().filter(|e| e.removed) {
                let mut fresh = e.clone();
                fresh.tombstone();
                assert_eq!(format!("{e:?}"), format!("{fresh:?}"));
            }
        }
        assert_eq!(referenced, held);
        assert_eq!(s.get_file("keep").unwrap().data[8..16], [7u8; 8]);
    }

    #[test]
    fn sharded_tables_match_single_lock_reference() {
        // The same serial workload against 1 shard and 8 shards must leave
        // byte-identical provider state: the placement rng stream, vid
        // allocation order, and upload order are all shard-independent.
        let build = |shards: usize| {
            let mut config = small_config();
            config.raid_level = RaidLevel::Raid5;
            config.durability = config.durability.with_table_shards(shards);
            let d = CloudDataDistributor::try_new(fleet(6, PrivacyLevel::High), config)
                .expect("valid config");
            d.register_client("Bob").unwrap();
            d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
            let s = d.session("Bob", "Ty7e").unwrap();
            for i in 0..6 {
                s.put_file(
                    &format!("f{i}"),
                    &data(100 + i),
                    PrivacyLevel::High,
                    PutOptions::new(),
                )
                .unwrap();
            }
            s.remove_file("f2").unwrap();
            d
        };
        let reference = build(1);
        let sharded = build(8);
        assert_eq!(reference.shard_count(), 1);
        assert_eq!(sharded.shard_count(), 8);
        assert_eq!(provider_state(&reference), provider_state(&sharded));
        let s = sharded.session("Bob", "Ty7e").unwrap();
        for i in [0usize, 1, 3, 4, 5] {
            assert_eq!(s.get_file(&format!("f{i}")).unwrap().data, data(100 + i));
        }
    }

    /// §IV-C's client-side distributor: a client runs a distributor of
    /// its own with Chord placement, one chunk per stripe, no parity.
    fn chord_distributor(providers: &[(&str, PrivacyLevel)]) -> CloudDataDistributor {
        let fleet = providers
            .iter()
            .map(|&(name, pl)| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    name,
                    pl,
                    CostLevel::new(1),
                )))
            })
            .collect();
        let d = CloudDataDistributor::try_new(
            fleet,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(32),
                geometry: Some(GeometrySchedule::uniform(Geometry::new(1, 0))),
                placement: PlacementStrategy::Chord,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("Bob").unwrap();
        d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
        d
    }

    fn chord_fleet() -> CloudDataDistributor {
        chord_distributor(&[
            ("AWS", PrivacyLevel::High),
            ("Google", PrivacyLevel::High),
            ("Sky", PrivacyLevel::Moderate),
            ("Sea", PrivacyLevel::Low),
            ("Earth", PrivacyLevel::Low),
        ])
    }

    #[test]
    fn chord_roundtrip_all_levels() {
        let d = chord_fleet();
        let s = high_session(&d);
        for (i, pl) in PrivacyLevel::ALL.into_iter().enumerate() {
            let name = format!("f{i}");
            let body = data(150);
            let r = s.put_file(&name, &body, pl, PutOptions::new()).unwrap();
            assert_eq!((r.chunk_count, r.stripe_count), (5, 5), "{pl}");
            assert_eq!(s.file_chunk_count(&name).unwrap(), 5);
            assert_eq!(s.get_file(&name).unwrap().data, body, "{pl}");
            assert_eq!(s.get_chunk(&name, 0).unwrap(), &body[..32]);
        }
    }

    #[test]
    fn chord_table_memory_accounting() {
        // The client's Chunk Table is the distributor's own chunk rows:
        // one per chunk, and nothing before the first put.
        let d = chord_fleet();
        assert!(d.merged_tables().chunks.is_empty());
        let s = high_session(&d);
        s.put_file("f", &data(320), PrivacyLevel::Public, PutOptions::new())
            .unwrap();
        assert_eq!(s.file_chunk_count("f").unwrap(), 10);
        assert_eq!(d.merged_tables().chunks.len(), 10);
        let held = d.client_chunks_per_provider("Bob").unwrap();
        assert_eq!(held.iter().sum::<usize>(), 10, "{held:?}");
    }

    #[test]
    fn chord_places_by_pl_with_no_central_table() {
        let d = chord_fleet();
        high_session(&d)
            .put_file("secret", &data(320), PrivacyLevel::High, PutOptions::new())
            .unwrap();
        // Only AWS and Google (PL High) may hold chunks…
        let held = d.client_chunks_per_provider("Bob").unwrap();
        assert_eq!(
            (held[0] + held[1], &held[2..]),
            (10, &[0, 0, 0][..]),
            "{held:?}"
        );
        // …and the PL-High ring alone says which: the client can find
        // every chunk by recomputing ⟨filename, serial⟩'s owner.
        let mut ring = fragcloud_dht::ChordRing::new(policy::CHORD_VIRTUAL_NODES);
        ring.join("AWS");
        ring.join("Google");
        let st = d.merged_tables();
        for e in &st.chunks {
            let ChunkRole::Data { serial } = e.role else {
                panic!("a parity-less stripe has no parity rows");
            };
            let owner = ring.owner("secret", serial).unwrap();
            assert_eq!(
                d.providers()[e.provider_idx].name(),
                owner,
                "serial {serial}"
            );
        }
    }

    #[test]
    fn chord_spreads_chunks_across_eligible_providers() {
        let d = chord_fleet();
        high_session(&d)
            .put_file(
                "pub",
                &data(32 * 40),
                PrivacyLevel::Public,
                PutOptions::new(),
            )
            .unwrap();
        let used = d.client_chunks_per_provider("Bob").unwrap();
        assert!(used.iter().filter(|&&n| n > 0).count() >= 3, "{used:?}");
    }

    #[test]
    fn chord_remove_file_leaves_no_object() {
        let d = chord_fleet();
        let s = high_session(&d);
        s.put_file("f", &data(100), PrivacyLevel::Low, PutOptions::new())
            .unwrap();
        let stored = || d.providers().iter().map(|p| p.chunk_count()).sum::<usize>();
        assert_eq!(stored(), 4);
        s.remove_file("f").unwrap();
        assert_eq!(stored(), 0);
        assert!(matches!(
            s.get_file("f"),
            Err(CoreError::UnknownFile { .. })
        ));
    }

    #[test]
    fn chord_without_an_eligible_provider_fails_typed() {
        let d = chord_distributor(&[("Sea", PrivacyLevel::Low)]);
        assert!(matches!(
            high_session(&d).put_file("s", &data(8), PrivacyLevel::High, PutOptions::new()),
            Err(CoreError::NoEligibleProvider {
                pl: PrivacyLevel::High
            })
        ));
    }
}
