//! The provider-object boundary: the one pair of functions through which
//! an object crosses between the distributor and a Cloud Provider.
//!
//! §IV-A makes the distributor *the* place where "a chunk is given to a
//! provider". Every read and write `crates/core` issues — put pipeline,
//! get path, chunk-level verbs, read-repair, scrub, repair,
//! migration — is a call to `get_with_retry` or to the write side,
//! `put_framed` (and `put_with_retry`, which frames a copy of a payload
//! and calls it); nothing else in the crate calls
//! `ObjectStore::{get, put}` or names the `integrity` framing functions.
//! Deletes carry no frame, are best-effort everywhere and stay with their
//! verbs.
//!
//! Only a `Framed` object is written, and only this module makes one:
//! a framed copy of a payload, or a put's data shard — a `ShardBuf`
//! that the storing thread allocates, an encode worker fills with the
//! chunk's stored form and frames in place, and that is uploaded as it
//! is.
//!
//! The pair are methods of a `Boundary`: the fleet, the one
//! `HealthTracker`, and the retry policy, hedge threshold and seed they
//! run under, in one value the distributor holds behind an `Arc` and no
//! lock. No boundary call takes the tables, a guard or the distributor,
//! so a store or a read runs with no shard guard in its signature, and a
//! get segment on a transfer-pool worker owns what it reads through (a
//! clone of that `Arc`, plus its `ReadPlan`).
//!
//! The contract:
//!
//! - **`Ok`.** A write's `Ok(())`: the provider acknowledged the payload
//!   in a fresh vid-seeded [`integrity`] frame. A read's `Ok(payload)`:
//!   the provider answered, the frame verified under `vid` and is
//!   stripped; bytes that fail the check are a
//!   [`CoreError::ShardCorrupt`] erasure, never payload.
//! - **`expected_len`.** `Some(len)` — the row's `stored_len`, passed by
//!   every read of a chunk, replica or parity object — also rejects an
//!   intact frame of another length (a stale object replayed under the
//!   same vid). `None` is legal only for the object a restore reads its
//!   bytes from — the snapshot — whose length no table row records.
//! - **Retried.** Under the configured
//!   [`RetryPolicy`](crate::resilience::RetryPolicy): a provider error is
//!   transient; a missing object or a failed verification is fatal.
//! - **Recorded.** One [`HealthTracker`] record per
//!   provider attempt (plus one timeout when the deadline cut the op
//!   short), the retry loop's `retries_total` / `backoff_wait_us` /
//!   `timeouts_total`, and `corruption_detected_total` per failed check.
//! - **Charged.** The returned [`Duration`] is simulated time: every
//!   backoff wait plus, on success, the provider's transfer time; the
//!   `u64` counts retries. A verb with no receipt for them drops both.
//!
//! One layer up, `read_member` over a `StripeReadSet` is the only way a
//! stripe is gathered, and `decode_lost` the only stripe decode: a get's
//! rebuild and repair (`core::maintain`) both decode through it. Both read
//! a stripe through `StripeRows`, its rows copied out under the caller's
//! guard — never through the tables themselves.

use crate::health::{FailureKind, HealthTracker};
use crate::integrity::{self, FRAME_OVERHEAD};
use crate::mislead;
use crate::resilience::{AttemptOutcome, ResilienceConfig};
use crate::tables::{ChunkEntry, Tables};
use crate::{CoreError, Result};
use bytes::Bytes;
use fragcloud_raid::{RaidLevel, StripeCodec};
use fragcloud_sim::{CloudProvider, ObjectStore, StoreError, VirtualId};
use fragcloud_telemetry::TelemetryHandle;
use std::sync::Arc;
use std::time::Duration;

/// A provider object: a payload behind its vid-seeded integrity frame,
/// ready for [`Boundary::put_framed`].
pub(crate) struct Framed {
    vid: VirtualId,
    object: Bytes,
}

impl Framed {
    /// Frames a copy of `payload` under `vid` (parity, replicas, every
    /// chunk-level verb).
    pub(crate) fn copy_of(vid: VirtualId, payload: &[u8]) -> Self {
        Framed {
            vid,
            object: integrity::frame(vid, payload),
        }
    }

    /// The id the object is framed (and stored) under.
    pub(crate) fn vid(&self) -> VirtualId {
        self.vid
    }

    /// The payload — what the table's `stored_len` records.
    pub(crate) fn payload(&self) -> &[u8] {
        self.object.get(FRAME_OVERHEAD..).unwrap_or_default()
    }
}

/// A put's data-shard upload buffer. The storing thread allocates it with
/// room for the frame header and the chunk's stored form (a long-lived
/// buffer allocated on a pool worker would sit in that worker's allocator
/// arena and raise peak memory); an encode worker fills it
/// ([`Self::fill_stored`]); it is uploaded as it is. A shard costs two
/// whole copies on its way to a provider — the pipeline's copy of the
/// source and the stored form written here — and its checksum pass runs
/// on the worker.
pub(crate) struct ShardBuf {
    vid: VirtualId,
    object: Vec<u8>,
}

impl ShardBuf {
    /// An empty buffer for chunk `vid` of `logical_len` bytes at mislead
    /// `rate`, sized exactly for its framed stored form.
    pub(crate) fn for_chunk(vid: VirtualId, logical_len: usize, rate: f64) -> Self {
        let size = FRAME_OVERHEAD + mislead::stored_len(logical_len, rate);
        ShardBuf {
            vid,
            object: Vec::with_capacity(size),
        }
    }

    /// The chunk's vid.
    pub(crate) fn vid(&self) -> VirtualId {
        self.vid
    }

    /// Writes `logical`'s stored form behind the header room — through
    /// [`mislead::inject_into`], at rate 0 too — and frames it in place.
    /// Returns the misleading-byte positions.
    pub(crate) fn fill_stored(&mut self, logical: &[u8], rate: f64, seed: u64) -> Arc<[usize]> {
        self.object.resize(FRAME_OVERHEAD, 0);
        let positions = mislead::inject_into(logical, rate, seed, &mut self.object);
        integrity::frame_in_place(self.vid, &mut self.object);
        positions
    }

    /// The stored form (empty until filled): what parity is computed over.
    pub(crate) fn payload(&self) -> &[u8] {
        self.object.get(FRAME_OVERHEAD..).unwrap_or_default()
    }

    /// The filled buffer as the object to upload, without a copy.
    pub(crate) fn into_framed(self) -> Framed {
        Framed {
            vid: self.vid,
            object: Bytes::from(self.object),
        }
    }
}

/// One stripe member's row as a read needs it.
#[derive(Clone, Copy)]
pub(crate) struct MemberRow {
    pub(crate) vid: VirtualId,
    pub(crate) provider_idx: usize,
    pub(crate) stored_len: usize,
    pub(crate) removed: bool,
}

impl MemberRow {
    /// The read-side view of a Chunk Table row.
    pub(crate) fn of(e: &ChunkEntry) -> Self {
        MemberRow {
            vid: e.vid,
            provider_idx: e.provider_idx,
            stored_len: e.stored_len,
            removed: e.removed,
        }
    }
}

/// One stripe's rows as a read needs them, copied out under the guard
/// that holds the tables — a get's [`ReadPlan`](crate::get::ReadPlan),
/// a maintenance walk, `plan_parity` — so that nothing below takes the
/// tables.
pub(crate) struct StripeRows {
    /// The stripe's id in its shard: what a read set is keyed by.
    pub(crate) id: usize,
    pub(crate) k: usize,
    pub(crate) level: RaidLevel,
    pub(crate) shard_width: usize,
    /// In slot order: `k` data members, then parity.
    pub(crate) members: Vec<MemberRow>,
}

impl StripeRows {
    /// Stripe `id`'s rows in `st`.
    pub(crate) fn of(st: &Tables, id: usize) -> Self {
        let s = &st.stripes[id];
        StripeRows {
            id,
            k: s.k,
            level: s.level,
            shard_width: s.shard_width,
            members: s
                .members
                .iter()
                .map(|&m| MemberRow::of(&st.chunks[m]))
                .collect(),
        }
    }
}

/// What one reader knows about one stripe member.
#[derive(Clone)]
pub(crate) enum Member {
    Untried,
    /// The member's stored payload, as `get_with_retry` returned it.
    Verified(Bytes),
    /// The member's primary could not be read.
    Lost,
}

/// The stripe read set of a get segment (or of a maintenance walk's
/// stripe): one [`Member`] slot per member of the stripe, so no member is
/// fetched from its provider twice — a chunk read directly is a survivor
/// for a later rebuild, and a peer read for a rebuild serves that peer's
/// own fetch with no provider op. One stripe is resident at a time:
/// `k + m` ref-counted handles, no payload copy. Invariants:
///
/// - a slot holds only a payload that came back `Ok` from
///   `get_with_retry`: it has passed `integrity::unframe_expecting`, and
///   its read fed retry, health and corruption accounting;
/// - the rows it mirrors ([`StripeRows`]) were copied under a shard guard
///   that is held until the reader is done, so they cannot change under
///   it; a stripe is read by one reader, so the set is never shared;
/// - `Lost` only stops a rebuild asking that member's primary again (a
///   walk marks a member it found gone); a get's own fetch of the chunk
///   still tries every candidate and replica.
#[derive(Default)]
pub(crate) struct StripeReadSet {
    stripe_id: Option<usize>,
    members: Vec<Member>,
}

impl StripeReadSet {
    /// The slots of `rows`' stripe, forgetting the previous stripe's when
    /// the reader has moved on.
    pub(crate) fn slots(&mut self, rows: &StripeRows) -> &mut [Member] {
        if self.stripe_id != Some(rows.id) {
            self.stripe_id = Some(rows.id);
            self.members.clear();
            self.members.resize(rows.members.len(), Member::Untried);
        }
        &mut self.members
    }
}

/// A gathered stripe member at the stripe's decode width: a full-width
/// shard is shared as it is; only a short one (tail chunk, updated chunk,
/// a tombstone's empty shard) is copied, to zero-pad it.
fn pad_shard(shard: Bytes, width: usize) -> Bytes {
    if shard.len() >= width {
        return shard;
    }
    let mut padded = shard.to_vec();
    padded.resize(width, 0);
    padded.into()
}

/// The provider-object boundary as a value a task can own: the fleet, its
/// health tracker, and the retry policy, hedge threshold and seed every
/// call runs under. All of it is fixed for the distributor's life or
/// internally synchronized, so the distributor holds one behind an `Arc`
/// with no lock, and a get's pooled segment clones that `Arc`.
pub(crate) struct Boundary {
    fleet: Vec<Arc<CloudProvider>>,
    health: HealthTracker,
    resilience: ResilienceConfig,
    seed: u64,
}

impl Boundary {
    /// The boundary over `fleet`, every provider starting healthy.
    pub(crate) fn new(
        fleet: Vec<Arc<CloudProvider>>,
        resilience: ResilienceConfig,
        seed: u64,
    ) -> Self {
        Boundary {
            health: HealthTracker::new(fleet.len()),
            fleet,
            resilience,
            seed,
        }
    }

    /// The provider fleet (the Cloud Provider Table).
    pub(crate) fn fleet(&self) -> &[Arc<CloudProvider>] {
        &self.fleet
    }

    /// The one health tracker every call records into.
    pub(crate) fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The retry policy and hedge threshold.
    pub(crate) fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// Deterministic backoff-jitter seed for one ⟨object, provider⟩ pair.
    fn retry_seed(&self, vid: VirtualId, provider_idx: usize) -> u64 {
        self.seed ^ vid.0 ^ (provider_idx as u64).rotate_left(17)
    }

    /// One provider read under the retry policy (the shared loop lives in
    /// [`crate::resilience::RetryPolicy::execute`]). Returns the outcome
    /// plus the simulated time spent (transfer + backoff waits) and the
    /// number of retries consumed — failures cost simulated time too.
    pub(crate) fn get_with_retry(
        &self,
        provider_idx: usize,
        vid: VirtualId,
        expected_len: Option<usize>,
        tel: &TelemetryHandle,
    ) -> (Result<Bytes>, Duration, u64) {
        let provider = &self.fleet[provider_idx];
        let health = &self.health;
        let run = self.resilience.retry.execute(
            self.retry_seed(vid, provider_idx),
            provider.name(),
            tel,
            |_| match provider.get(vid) {
                // Every read crosses the integrity check before its bytes
                // reach any caller (decode included): an object that fails
                // verification — or carries no frame at all — is an
                // erasure, never payload.
                Ok(bytes) => {
                    let verified = match expected_len {
                        Some(len) => integrity::unframe_expecting(vid, bytes, len),
                        None => integrity::unframe(vid, bytes),
                    };
                    match verified {
                        Ok(payload) => {
                            health.record_success(provider_idx, tel);
                            AttemptOutcome::Success(payload)
                        }
                        Err(e) => {
                            // The provider answered with damaged or swapped
                            // bytes — Byzantine, not transient: retrying the
                            // same stored object cannot un-corrupt it. The
                            // caller routes to replicas/parity instead.
                            tel.incr("corruption_detected_total");
                            health.record_failure(provider_idx, FailureKind::Corruption, tel);
                            AttemptOutcome::Fatal(e)
                        }
                    }
                }
                Err(e @ StoreError::NotFound(_)) => {
                    // The object is gone, not the provider: retrying the
                    // same request cannot help.
                    health.record_failure(provider_idx, FailureKind::Error, tel);
                    AttemptOutcome::Fatal(e.into())
                }
                Err(e) => {
                    health.record_failure(provider_idx, FailureKind::Error, tel);
                    AttemptOutcome::Transient(e.into())
                }
            },
        );
        let mut time = run.sim_time;
        if let Err(CoreError::Timeout { .. }) = &run.result {
            health.record_failure(provider_idx, FailureKind::Timeout, tel);
        }
        if let Ok(bytes) = &run.result {
            time += provider.simulate_transfer(bytes.len());
        }
        (run.result, time, run.retries)
    }

    /// One provider write of a framed copy of `bytes` under the retry
    /// policy; same accounting contract as [`Self::get_with_retry`].
    pub(crate) fn put_with_retry(
        &self,
        provider_idx: usize,
        vid: VirtualId,
        bytes: &[u8],
        tel: &TelemetryHandle,
    ) -> (Result<()>, Duration, u64) {
        // `bytes` stays the payload: table `stored_len` never includes
        // framing.
        self.put_framed(provider_idx, &Framed::copy_of(vid, bytes), tel)
    }

    /// The boundary write: one provider write of `object` under the retry
    /// policy, every attempt scored; same accounting contract as
    /// [`Self::get_with_retry`].
    pub(crate) fn put_framed(
        &self,
        provider_idx: usize,
        object: &Framed,
        tel: &TelemetryHandle,
    ) -> (Result<()>, Duration, u64) {
        let provider = &self.fleet[provider_idx];
        let health = &self.health;
        let run = self.resilience.retry.execute(
            self.retry_seed(object.vid, provider_idx),
            provider.name(),
            tel,
            |_| match provider.put(object.vid, object.object.clone()) {
                Ok(()) => {
                    health.record_success(provider_idx, tel);
                    AttemptOutcome::Success(())
                }
                Err(e) => {
                    health.record_failure(provider_idx, FailureKind::Error, tel);
                    AttemptOutcome::Transient(e.into())
                }
            },
        );
        let mut time = run.sim_time;
        if let Err(CoreError::Timeout { .. }) = &run.result {
            health.record_failure(provider_idx, FailureKind::Timeout, tel);
        }
        if run.result.is_ok() {
            time += provider.simulate_transfer(object.object.len());
        }
        (run.result, time, run.retries)
    }

    /// One stripe member as a gather of its stripe sees it — the single
    /// place that decides what a member contributes. A tombstone is a zero
    /// shard (returned empty: the caller that decodes pads it); a slot
    /// `set` has not tried costs one boundary read and becomes `Verified`
    /// or `Lost`; a failed read, now or earlier in this reader, is an
    /// erasure. Returns what the boundary returns.
    pub(crate) fn read_member(
        &self,
        rows: &StripeRows,
        set: &mut StripeReadSet,
        slot: usize,
        tel: &TelemetryHandle,
    ) -> (Result<Bytes>, Duration, u64) {
        let e = rows.members[slot];
        let state = &mut set.slots(rows)[slot];
        let known = match state {
            _ if e.removed => Ok(Bytes::new()),
            Member::Verified(stored) => Ok(stored.clone()),
            // No new attempt is made on a member already counted lost.
            Member::Lost => Err(CoreError::RetriesExhausted { attempts: 0 }),
            Member::Untried => {
                let read = self.get_with_retry(e.provider_idx, e.vid, Some(e.stored_len), tel);
                *state = match &read.0 {
                    Ok(stored) => Member::Verified(stored.clone()),
                    Err(_) => Member::Lost,
                };
                return read;
            }
        };
        (known, Duration::ZERO, 0)
    }

    /// Rebuilds the `lost` slots of `rows`' stripe at the stripe width,
    /// in `lost` order, from the first `k` other members that survive a
    /// read through `set` (only untried ones cost a read). Also returns
    /// the reads' simulated cost (the slowest: peers are read in
    /// parallel) and the retries consumed.
    pub(crate) fn decode_lost(
        &self,
        rows: &StripeRows,
        set: &mut StripeReadSet,
        lost: &[usize],
        tel: &TelemetryHandle,
    ) -> Result<(Vec<Vec<u8>>, Duration, u64)> {
        let mut survivors: Vec<(usize, Bytes)> = Vec::with_capacity(rows.k);
        let mut worst = Duration::ZERO;
        let mut retries = 0u64;
        for slot in (0..rows.members.len()).filter(|slot| !lost.contains(slot)) {
            if survivors.len() == rows.k {
                break;
            }
            let (res, t, r) = self.read_member(rows, set, slot, tel);
            // Even a failed peer's retries sit on the critical path.
            worst = worst.max(t);
            retries += r;
            if let Ok(shard) = res {
                survivors.push((slot, pad_shard(shard, rows.shard_width)));
            }
        }
        let codec = StripeCodec::new(rows.k, rows.level)?;
        let refs: Vec<(usize, &[u8])> = survivors.iter().map(|(i, b)| (*i, &b[..])).collect();
        let shards = lost
            .iter()
            .map(|&slot| codec.reconstruct_shard_observed(&refs, slot, tel))
            .collect::<std::result::Result<_, _>>()?;
        Ok((shards, worst, retries))
    }
}
