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
//! is. Neither side takes the tables: both reach a provider through the
//! distributor's fleet, which needs no lock, so a store or a read can run
//! with no shard guard in scope.
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
//! - **Recorded.** One [`HealthTracker`](crate::HealthTracker) record per
//!   provider attempt (plus one timeout when the deadline cut the op
//!   short), the retry loop's `retries_total` / `backoff_wait_us` /
//!   `timeouts_total`, and `corruption_detected_total` per failed check.
//! - **Charged.** The returned [`Duration`] is simulated time: every
//!   backoff wait plus, on success, the provider's transfer time; the
//!   `u64` counts retries. A verb with no receipt for them drops both.
//!
//! One layer up, `read_member` over a `StripeReadSet` is the only way a
//! stripe is gathered: `reconstruct_stored`, `repair_stripe` and
//! `plan_parity` each walk the slots they need through it.

use crate::distributor::CloudDataDistributor;
use crate::health::FailureKind;
use crate::integrity::{self, FRAME_OVERHEAD};
use crate::mislead;
use crate::resilience::AttemptOutcome;
use crate::tables::{ChunkEntry, Tables};
use crate::{CoreError, Result};
use bytes::Bytes;
use fragcloud_sim::{ObjectStore, StoreError, VirtualId};
use fragcloud_telemetry::TelemetryHandle;
use std::time::Duration;

/// A provider object: a payload behind its vid-seeded integrity frame,
/// ready for [`CloudDataDistributor::put_framed`].
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
    pub(crate) fn fill_stored(&mut self, logical: &[u8], rate: f64, seed: u64) -> Vec<usize> {
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

/// What one get knows about one stripe member.
#[derive(Clone)]
pub(crate) enum Member {
    Untried,
    /// The member's stored payload, as `get_with_retry` returned it.
    Verified(Bytes),
    /// The member's primary could not be read.
    Lost,
}

/// The per-get stripe read set: one [`Member`] slot per member of the
/// stripe the get is in, so no member is fetched from its provider twice —
/// a chunk read directly is a survivor for a later rebuild, and a peer
/// read for a rebuild serves that peer's own fetch with no provider op.
/// A file's chunks are in stripe order, so one stripe is resident at a
/// time: `k + m` ref-counted handles, no payload copy. Invariants:
///
/// - a slot holds only a payload that came back `Ok` from
///   `get_with_retry`: it has passed `integrity::unframe_expecting`, and
///   its read fed retry, health and corruption accounting;
/// - the set lives inside one shard read guard — the rows it mirrors
///   cannot change under it;
/// - `Lost` only stops a rebuild's peer loop asking that member's primary
///   again; the chunk's own fetch still tries every candidate and replica.
#[derive(Default)]
pub(crate) struct StripeReadSet {
    stripe_id: Option<usize>,
    members: Vec<Member>,
}

impl StripeReadSet {
    /// The slots of stripe `stripe_id` (`len` members), forgetting the
    /// previous stripe's when the get has moved on.
    fn stripe(&mut self, stripe_id: usize, len: usize) -> &mut [Member] {
        if self.stripe_id != Some(stripe_id) {
            self.stripe_id = Some(stripe_id);
            self.members.clear();
            self.members.resize(len, Member::Untried);
        }
        &mut self.members
    }

    /// `entry`'s own slot; `None` for a chunk outside any stripe.
    pub(crate) fn slot(&mut self, st: &Tables, entry: &ChunkEntry) -> Option<&mut Member> {
        let at = entry.stripe?;
        Some(&mut self.stripe(at.stripe_id, st.stripes[at.stripe_id].members.len())[at.index])
    }
}

/// A gathered stripe member at the stripe's decode width: a full-width
/// shard is shared as it is; only a short one (tail chunk, updated chunk,
/// a tombstone's empty shard) is copied, to zero-pad it.
pub(crate) fn pad_shard(shard: Bytes, width: usize) -> Bytes {
    if shard.len() >= width {
        return shard;
    }
    let mut padded = shard.to_vec();
    padded.resize(width, 0);
    padded.into()
}

impl CloudDataDistributor {
    /// Deterministic backoff-jitter seed for one ⟨object, provider⟩ pair.
    fn retry_seed(&self, vid: VirtualId, provider_idx: usize) -> u64 {
        self.config().seed ^ vid.0 ^ (provider_idx as u64).rotate_left(17)
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
        let provider = &self.fleet()[provider_idx];
        let health = self.health();
        let run = self.config().resilience.retry.execute(
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
        let provider = &self.fleet()[provider_idx];
        let health = self.health();
        let run = self.config().resilience.retry.execute(
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
    /// or `Lost`; a failed read, now or earlier in this get, is an
    /// erasure. Returns what the boundary returns.
    pub(crate) fn read_member(
        &self,
        st: &Tables,
        set: &mut StripeReadSet,
        stripe_id: usize,
        slot: usize,
        tel: &TelemetryHandle,
    ) -> (Result<Bytes>, Duration, u64) {
        let members = &st.stripes[stripe_id].members;
        let e = &st.chunks[members[slot]];
        let state = &mut set.stripe(stripe_id, members.len())[slot];
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
}
