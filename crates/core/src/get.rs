//! The get path (§VI `get file` / `get chunk`): one owned plan, read in
//! segments on the caller thread and the transfer pool.
//!
//! Under the file's shard read guard a get copies the rows it will read
//! into a `ReadPlan` — per data chunk its vid, provider, replicas,
//! stored length and (shared, not copied) mislead positions, and per
//! stripe the member rows a rebuild needs. A tombstoned chunk fails here,
//! under the guard, with its filename and serial, before any provider
//! read. Everything after reads the plan and the provider-object
//! boundary ([`objectio`](crate::objectio)'s `Boundary`), never the
//! tables.
//!
//! The plan is cut into contiguous, stripe-aligned segments. Their count
//! is the smallest of the host's available parallelism, one more than
//! `transfer_workers`, the file's stripe runs and `total_len /`
//! [`GET_SEGMENT_BYTES`], and at least one. The caller reads segment 0;
//! every other segment is offered to the transfer pool and joined in
//! order, so the caller runs every segment no worker has started. A get
//! never waits on a queued task: a pool saturated by a put's encodes, or
//! parked, cannot stall it. Each segment reads its chunks in order
//! through its own stripe read set; a stripe never spans two segments, so
//! no member is read twice. The caller stitches the segments' bytes in
//! order and sums their receipts. A panicking segment is
//! [`CoreError::ReadTaskPanicked`] on the caller, and once a segment has
//! failed the rest are withdrawn.
//!
//! The shard read guard is held until every segment has joined: a commit
//! that dooms an object the plan names only queues it for the reclaimer,
//! but its close drains that queue at once, with no reader epoch to wait
//! for, and a reader still naming a deleted object would score a healthy
//! provider as failed (DESIGN.md §5c, "The get path").

use crate::access;
use crate::distributor::{CloudDataDistributor, GetReceipt};
use crate::mislead;
use crate::objectio::{Boundary, Member, MemberRow, StripeReadSet, StripeRows};
use crate::pool::Offer;
use crate::tables::Tables;
use crate::{CoreError, Result};
use bytes::Bytes;
use fragcloud_raid::{RaidError, RaidLevel};
use fragcloud_sim::VirtualId;
use fragcloud_telemetry::{span, TelemetryHandle};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// File bytes per get segment below which a get does not fan out: a
/// segment on the pool costs a round trip (≈ 20 µs) that only a segment
/// of this size repays. A constant, not a knob.
pub const GET_SEGMENT_BYTES: usize = 1 << 20;

/// One data chunk as a plan holds it.
struct ChunkRead {
    row: MemberRow,
    replicas: Vec<(usize, VirtualId)>,
    /// Ascending positions of the misleading bytes in the stored chunk.
    mislead: Arc<[usize]>,
    logical_len: usize,
    /// The chunk's stripe, as an index into [`ReadPlan::stripes`], and its
    /// slot in it.
    stripe: Option<(usize, usize)>,
}

/// The rows one get reads, copied out of the tables under the shard
/// guard: the file's data chunks in serial order and the rows of the
/// stripes they sit in.
pub(crate) struct ReadPlan {
    chunks: Vec<ChunkRead>,
    stripes: Vec<StripeRows>,
    total_len: usize,
}

/// One segment's part of a [`GetReceipt`].
struct Tally {
    /// Simulated time per provider, summed over the segment's chunks.
    per_provider_time: Vec<Duration>,
    reconstructed: usize,
    degraded: usize,
    hedged: usize,
    retries: u64,
}

impl Tally {
    fn new(providers: usize) -> Self {
        Tally {
            per_provider_time: vec![Duration::ZERO; providers],
            reconstructed: 0,
            degraded: 0,
            hedged: 0,
            retries: 0,
        }
    }

    fn absorb(&mut self, other: Tally) {
        for (mine, t) in self
            .per_provider_time
            .iter_mut()
            .zip(other.per_provider_time)
        {
            *mine += t;
        }
        self.reconstructed += other.reconstructed;
        self.degraded += other.degraded;
        self.hedged += other.hedged;
        self.retries += other.retries;
    }
}

/// What a segment returns: its chunks' logical bytes, in order, and its
/// tally.
type SegmentRead = Result<(Vec<u8>, Tally)>;

/// Outcome of fetching one logical chunk on the degraded-mode read path.
#[derive(Default)]
struct ChunkFetch {
    /// The chunk as stored (misleading bytes still in), frame-verified.
    stored: Bytes,
    /// Provider whose link the simulated clock charges for this chunk.
    charged_provider: usize,
    /// Simulated time on this chunk's critical path (transfer + backoff).
    time: Duration,
    reconstructed: bool,
    degraded: bool,
    hedged: bool,
    retries: u64,
}

impl ReadPlan {
    /// The plan of `chunks` — ⟨serial, chunk-table index⟩ pairs of
    /// `filename`, in output order. A tombstoned chunk is
    /// [`CoreError::UnknownChunk`], as a serial past the end is.
    fn of_chunks(
        st: &Tables,
        filename: &str,
        chunks: impl IntoIterator<Item = (u32, usize)>,
    ) -> Result<Self> {
        let mut plan = ReadPlan {
            chunks: Vec::new(),
            stripes: Vec::new(),
            total_len: 0,
        };
        for (serial, idx) in chunks {
            let e = &st.chunks[idx];
            if e.removed {
                return Err(CoreError::UnknownChunk {
                    filename: filename.to_string(),
                    serial,
                });
            }
            let stripe = e.stripe.map(|at| {
                if plan.stripes.last().map(|rows| rows.id) != Some(at.stripe_id) {
                    plan.stripes.push(StripeRows::of(st, at.stripe_id));
                }
                (plan.stripes.len() - 1, at.index)
            });
            plan.total_len += e.logical_len;
            plan.chunks.push(ChunkRead {
                row: MemberRow::of(e),
                replicas: e.replicas.clone(),
                mislead: Arc::clone(&e.mislead_positions),
                logical_len: e.logical_len,
                stripe,
            });
        }
        Ok(plan)
    }

    /// Cuts the plan into at most `n` contiguous segments of about equal
    /// stripe runs, never between two chunks of one stripe — or into one
    /// when fewer than two would result.
    fn segments(&self, n: usize) -> Vec<Range<usize>> {
        let stripe_of = |i: usize| self.chunks[i].stripe.map(|(s, _)| s);
        let starts: Vec<usize> = (0..self.chunks.len())
            .filter(|&i| i == 0 || stripe_of(i).is_none() || stripe_of(i) != stripe_of(i - 1))
            .collect();
        let n = n.min(starts.len());
        if n < 2 {
            return std::iter::once(0..self.chunks.len()).collect();
        }
        let bound = |j: usize| match j {
            _ if j == n => self.chunks.len(),
            _ => starts[j * starts.len() / n],
        };
        (0..n).map(|j| bound(j)..bound(j + 1)).collect()
    }

    /// Logical bytes of the chunks in `chunks`.
    fn logical_len(&self, chunks: &Range<usize>) -> usize {
        self.chunks[chunks.clone()]
            .iter()
            .map(|c| c.logical_len)
            .sum()
    }

    /// Reads the chunks in `chunks`, in order, through one stripe read
    /// set, stripping each into `out`.
    fn read_segment(
        &self,
        io: &Boundary,
        chunks: Range<usize>,
        out: &mut Vec<u8>,
        tel: &TelemetryHandle,
    ) -> Result<Tally> {
        let mut tally = Tally::new(io.fleet().len());
        let mut set = StripeReadSet::default();
        for chunk in &self.chunks[chunks] {
            let fetch = self.fetch_logical_chunk(io, chunk, &mut set, tel)?;
            tally.per_provider_time[fetch.charged_provider] += fetch.time;
            tally.reconstructed += usize::from(fetch.reconstructed);
            tally.degraded += usize::from(fetch.degraded);
            tally.hedged += usize::from(fetch.hedged);
            tally.retries += fetch.retries;
            mislead::strip_into(&fetch.stored, &chunk.mislead, out);
        }
        Ok(tally)
    }

    /// Fetches a chunk's stored bytes through the degraded-mode read path:
    /// the segment's stripe read set first, then an optional hedge against
    /// a straggling primary, then retried reads over health-ordered
    /// candidates (primary + replicas), then inline RAID reconstruction
    /// from the stripe.
    fn fetch_logical_chunk(
        &self,
        io: &Boundary,
        chunk: &ChunkRead,
        set: &mut StripeReadSet,
        tel: &TelemetryHandle,
    ) -> Result<ChunkFetch> {
        let entry = chunk.row;
        let stripe = chunk.stripe.map(|(s, slot)| (&self.stripes[s], slot));

        // Already read and verified as a peer of an earlier rebuild in
        // this segment: its transfer was charged there, nothing is left to
        // do.
        if let Some((rows, slot)) = stripe {
            if let Member::Verified(stored) = &set.slots(rows)[slot] {
                return Ok(ChunkFetch {
                    stored: stored.clone(),
                    charged_provider: entry.provider_idx,
                    ..Default::default()
                });
            }
        }

        // Hedge: when the primary looks like a straggler and the parity
        // path is predicted faster, take the reconstruction instead of
        // waiting out the slow link — the winner of the race is the only
        // branch the simulated clock charges.
        if let Some(threshold) = io.resilience().hedge_threshold {
            let direct_est = io.fleet()[entry.provider_idx].estimate_transfer(entry.stored_len);
            if direct_est > threshold {
                tel.incr("hedges_considered");
                let parity = stripe.and_then(|(rows, slot)| {
                    estimate_reconstruct(io, rows, slot).map(|est| (est, rows, slot))
                });
                if let Some((parity_est, rows, slot)) = parity {
                    if parity_est < direct_est {
                        if let Ok((stored, time, retries)) =
                            reconstruct_stored(io, rows, slot, set, tel)
                        {
                            tel.incr("reads_hedged");
                            return Ok(ChunkFetch {
                                stored,
                                charged_provider: entry.provider_idx,
                                time,
                                reconstructed: true,
                                degraded: false,
                                hedged: true,
                                retries,
                            });
                        }
                    }
                }
            }
        }

        // Candidate sources: primary then replicas, healthiest first. A
        // quarantined provider (breaker HalfOpen/Open) sorts last but is
        // never dropped: an Open provider holding the only live copy must
        // still be readable. The sort is stable, so providers that have
        // never failed keep stored order. Each key is read once, so the
        // order is consistent while other threads record outcomes.
        let mut candidates: Vec<(usize, VirtualId)> = Vec::with_capacity(1 + chunk.replicas.len());
        candidates.push((entry.provider_idx, entry.vid));
        candidates.extend(chunk.replicas.iter().copied());
        if candidates.len() > 1 {
            let mut keyed: Vec<(f64, (usize, VirtualId))> = candidates
                .iter()
                .map(|&c| (io.health().penalty(c.0), c))
                .collect();
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            candidates = keyed.into_iter().map(|(_, c)| c).collect();
        }

        let mut time = Duration::ZERO;
        let mut retries = 0u64;
        let mut attempts_made = 0u32;
        let mut timed_out: Option<CoreError> = None;
        for (rank, &(pidx, vid)) in candidates.iter().enumerate() {
            let (res, t, r) = io.get_with_retry(pidx, vid, Some(entry.stored_len), tel);
            time += t;
            retries += r;
            attempts_made += r as u32 + 1;
            if let Err(e @ CoreError::Timeout { .. }) = &res {
                timed_out = Some(e.clone());
            }
            if let Ok(stored) = res {
                if rank > 0 {
                    tel.incr("failovers_total");
                }
                if let Some((rows, slot)) = stripe {
                    set.slots(rows)[slot] = Member::Verified(stored.clone());
                }
                return Ok(ChunkFetch {
                    stored,
                    charged_provider: pidx,
                    time,
                    reconstructed: false,
                    // Falling past the first-choice source is a failover;
                    // health *reordering* alone is not.
                    degraded: rank > 0,
                    hedged: false,
                    retries,
                });
            }
        }

        // Last resort: RAID reconstruction from the stripe. No stripe or
        // no parity, nothing a peer could tell us: report the deadline
        // breach if one happened, else the exhausted budget — not a
        // meaningless erasure count.
        let exhausted = || {
            timed_out.unwrap_or(CoreError::RetriesExhausted {
                attempts: attempts_made,
            })
        };
        let Some((rows, slot)) = stripe else {
            return Err(exhausted());
        };
        set.slots(rows)[slot] = Member::Lost;
        match reconstruct_stored(io, rows, slot, set, tel) {
            Ok((stored, rtime, rretries)) => {
                // Read-repair: every candidate failed (missing or corrupt)
                // but parity could rebuild the shard — re-upload the
                // healed bytes under the primary's vid so the next read
                // is clean again. Best-effort and off the read's critical
                // path (repair traffic is charged to telemetry, not to
                // this fetch's simulated time).
                read_repair(io, entry.provider_idx, entry.vid, &stored, tel);
                Ok(ChunkFetch {
                    stored,
                    charged_provider: entry.provider_idx,
                    time: time + rtime,
                    reconstructed: true,
                    degraded: true,
                    hedged: false,
                    retries: retries + rretries,
                })
            }
            Err(CoreError::Raid(RaidError::TooManyErasures { tolerable: 0, .. })) => {
                Err(exhausted())
            }
            Err(e) => Err(e),
        }
    }
}

/// Predicted parallel transfer time of reconstructing `slot` of `rows`'
/// stripe from its peers, or `None` when the stripe cannot absorb the
/// loss (no parity, or too few live peers). Pure estimate: no provider
/// state is touched.
fn estimate_reconstruct(io: &Boundary, rows: &StripeRows, slot: usize) -> Option<Duration> {
    if rows.level == RaidLevel::None {
        return None;
    }
    let mut live = 0usize;
    let mut worst = Duration::ZERO;
    for (at, member) in rows.members.iter().enumerate() {
        if at == slot {
            continue;
        }
        if member.removed {
            live += 1; // tombstones contribute zero shards for free
            continue;
        }
        let p = &io.fleet()[member.provider_idx];
        if !p.is_online() {
            continue;
        }
        live += 1;
        worst = worst.max(p.estimate_transfer(member.stored_len));
    }
    (live >= rows.k).then_some(worst)
}

/// Reconstructs `slot`'s *stored* bytes from its stripe peers
/// ([`decode_lost`](Boundary::decode_lost) of that one slot, truncated to
/// its `stored_len`). Returns the bytes plus the simulated cost of the
/// peer fan-out and the retries consumed.
fn reconstruct_stored(
    io: &Boundary,
    rows: &StripeRows,
    slot: usize,
    set: &mut StripeReadSet,
    tel: &TelemetryHandle,
) -> Result<(Bytes, Duration, u64)> {
    let _op = span!(tel, "chunk.reconstruct", stripe = rows.id, slot = slot);
    // No parity, nothing a peer could tell us: fail before any read.
    if rows.level.parity_shards() == 0 {
        return Err(CoreError::Raid(RaidError::TooManyErasures {
            missing: 1,
            tolerable: 0,
        }));
    }
    let (mut shards, worst, retries) = io.decode_lost(rows, set, &[slot], tel)?;
    let mut stored = shards.swap_remove(0);
    stored.truncate(rows.members[slot].stored_len);
    tel.incr("parity_reconstructions");
    Ok((Bytes::from(stored), worst, retries))
}

/// Re-uploads a parity-reconstructed shard to its primary provider under
/// its original virtual id (in a fresh frame), so a corrupted or lost
/// object is healed by the very read that detected it instead of waiting
/// for an operator [`try_repair`](CloudDataDistributor::try_repair) pass.
/// Best-effort: an offline primary or failed write leaves the stripe
/// degraded, and the tables are untouched either way (same vid, same
/// provider — no journal entry needed: the id is already referenced).
fn read_repair(io: &Boundary, idx: usize, vid: VirtualId, stored: &[u8], tel: &TelemetryHandle) {
    if !io.fleet()[idx].is_online() {
        return;
    }
    match io.put_with_retry(idx, vid, stored, tel).0 {
        Ok(()) => tel.incr("read_repair_total"),
        Err(_) => tel.incr("read_repair_failed_total"),
    }
}

impl CloudDataDistributor {
    /// Reads every chunk of `plan` in stripe-aligned segments (see the
    /// module doc): segment 0 on the caller, the rest offered to the pool.
    /// The first error in segment order wins; the segments after it are
    /// withdrawn, so none outlives the caller's guard.
    fn read_plan(&self, plan: ReadPlan, tel: &TelemetryHandle) -> SegmentRead {
        let width =
            (plan.total_len / GET_SEGMENT_BYTES).min(self.config().durability.transfer_workers + 1);
        let pool = (width > 1).then(|| self.transfer_pool());
        let segments = plan.segments(pool.map_or(1, |p| width.min(p.host_parallelism())));
        if segments.len() > 1 {
            tel.incr("gets_fanned_out");
        }
        let plan = Arc::new(plan);
        let offers: Vec<Offer<SegmentRead>> = (segments.into_iter().enumerate())
            .map(|(i, chunks)| {
                // The caller allocates every segment's buffer, so a segment
                // read on a worker grows no worker's allocator arena.
                // Segment 0's is the output: the others are appended to it.
                let mut out = Vec::with_capacity(match i {
                    0 => plan.total_len,
                    _ => plan.logical_len(&chunks),
                });
                let (plan, io, wtel) = (Arc::clone(&plan), Arc::clone(self.io()), tel.clone());
                let job = move || {
                    let tally = plan.read_segment(&io, chunks, &mut out, &wtel)?;
                    Ok((out, tally))
                };
                match pool {
                    Some(pool) if i > 0 => pool.offer(tel, job),
                    _ => Offer::inline(job),
                }
            })
            .collect();
        let mut parts = (offers.into_iter())
            .map(|offer| offer.join().unwrap_or(Err(CoreError::ReadTaskPanicked)));
        let (mut out, mut tally) = parts.next().unwrap_or(Err(CoreError::ReadTaskPanicked))?;
        for part in parts {
            let (bytes, t) = part?;
            out.extend_from_slice(&bytes);
            tally.absorb(t);
        }
        Ok((out, tally))
    }

    pub(crate) fn get_chunk_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        serial: u32,
    ) -> Result<Vec<u8>> {
        let tel = self.telemetry();
        let _op = span!(tel, "get_chunk", file = filename, serial = serial);
        let level = self.password_level(client, password)?;
        let st = self.read_shard_for(client, filename);
        let chunk_idx = st.chunk_index(client, filename, serial)?;
        access::check(level, st.chunks[chunk_idx].pl)?;
        let plan = ReadPlan::of_chunks(&st, filename, [(serial, chunk_idx)])?;
        tel.incr("chunk_gets_total");
        Ok(self.read_plan(plan, &tel)?.0)
    }

    pub(crate) fn get_file_impl(
        &self,
        client: &str,
        password: &str,
        filename: &str,
    ) -> Result<GetReceipt> {
        let tel = self.telemetry();
        let _op = span!(tel, "get", file = filename);
        let level = self.password_level(client, password)?;
        let st = self.read_shard_for(client, filename);
        let file = st.file(client, filename)?;
        access::check(level, file.pl)?;
        let chunks = (0u32..).zip(file.chunk_indices.iter().copied());
        let plan = ReadPlan::of_chunks(&st, filename, chunks)?;

        let (data, tally) = self.read_plan(plan, &tel)?;
        // Every segment has joined: only now may a commit that dooms an
        // object the plan names take the shard.
        drop(st);
        let receipt = GetReceipt {
            data,
            sim_time: tally
                .per_provider_time
                .into_iter()
                .max()
                .unwrap_or_default(),
            reconstructed_chunks: tally.reconstructed,
            degraded_chunks: tally.degraded,
            hedged_chunks: tally.hedged,
            retries: tally.retries,
        };
        tel.incr("gets_total");
        tel.add("get_bytes", receipt.data.len() as u64);
        tel.add("degraded_chunk_reads", receipt.degraded_chunks as u64);
        tel.observe_micros("get_sim_us", receipt.sim_time);
        Ok(receipt)
    }
}
