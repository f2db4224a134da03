//! Scrub and repair (§III-B: parity rebuilds what a lost provider held;
//! §IV-A: under fresh virtual ids), one walk for both.
//!
//! A pass takes the table shards in ascending order, each in its own
//! bracketed `repair` op under that shard's write guard, and the shard's
//! stripes in turn, each through one `StripeReadSet`: every live member is
//! probed, a deep pass also reads it, the stripe's degraded marker is set
//! to what that found, and a repair heals a bad stripe with the same set
//! before it moves on — decoding the lost shards with the get path's
//! `decode_lost`. So a pass reads each member from its provider at most
//! once.

use crate::distributor::CloudDataDistributor;
use crate::journal::OpKind;
use crate::mutation::{Doomed, OpCtx};
use crate::objectio::{Member, StripeReadSet, StripeRows};
use crate::policy;
use crate::resilience::{RepairReport, ScrubReport};
use crate::tables::Tables;
use crate::{CoreError, Result};
use fragcloud_sim::ObjectStore;
use fragcloud_telemetry::{clock, span, TelemetryHandle};
use std::time::Duration;

/// One scrub or repair, accumulated across its per-shard ops.
#[derive(Default)]
struct RepairPass {
    /// Read and verify every held member, not only probe for it.
    verify: bool,
    /// Heal each bad stripe as the walk reaches it (a repair).
    heal: bool,
    scrub: ScrubReport,
    repaired: RepairReport,
    /// Each provider's simulated share: every member read once, every
    /// rebuilt shard stored.
    per_provider_time: Vec<Duration>,
}

impl CloudDataDistributor {
    /// Checks that every live member's object is where the Chunk Table
    /// says (provider online and holding the vid) and refreshes the
    /// stripes' degraded markers. Operator-side: no credentials, no
    /// payload read. Journaled as one `repair` op targeting `scrub` per
    /// table shard, so the markers it flips are delta rows.
    pub fn scrub(&self) -> ScrubReport {
        self.scrub_pass(false)
    }

    /// Deep scrub: like [`scrub`](Self::scrub), but additionally *reads*
    /// every live shard and verifies its integrity frame, so bit-rot at
    /// rest is caught before a client read trips over it. Shards that fail
    /// verification are counted in [`ScrubReport::corrupt_shards`], their
    /// stripes marked degraded, and the providers' breakers fed — a
    /// following [`try_repair_verify`](Self::try_repair_verify) rebuilds
    /// them from parity.
    pub fn scrub_verify(&self) -> ScrubReport {
        self.scrub_pass(true)
    }

    fn scrub_pass(&self, verify: bool) -> ScrubReport {
        let tel = self.telemetry();
        let _op = span!(tel, "scrub");
        let wall = clock::monotonic_now();
        // It stores and dooms nothing: the only error is a crash plan fired
        // at a shard's close, and the shards scrubbed by then stand.
        let (pass, _) = self.per_shard(verify, false);
        self.count_scrub(&tel, &pass.scrub);
        tel.observe_micros("scrub_wall_us", wall.elapsed());
        pass.scrub
    }

    /// Heals every stripe a [`scrub`](Self::scrub) walk finds unhealthy:
    /// lost shards are rebuilt from the survivors under fresh virtual ids
    /// (uncorrelatable with the lost ones) on the original provider when
    /// it is back and holds no sibling shard, else on the best-ranked
    /// eligible one. Stripes beyond their fault tolerance are reported in
    /// [`RepairReport::failed`]. Journaled as one op per table shard; the
    /// only error is a fired [`CrashPlan`](fragcloud_sim::CrashPlan),
    /// surfaced as [`CoreError::SimulatedCrash`].
    pub fn try_repair(&self) -> Result<RepairReport> {
        self.repair(false)
    }

    /// [`try_repair`](Self::try_repair) over a *deep* walk
    /// ([`scrub_verify`](Self::scrub_verify)'s): shards that exist but fail
    /// integrity verification are treated as erasures and rebuilt from
    /// parity alongside the missing ones. This is the heal half of the
    /// bit-rot story — `scrub_verify` finds rot at rest, this rebuilds it.
    pub fn try_repair_verify(&self) -> Result<RepairReport> {
        self.repair(true)
    }

    fn repair(&self, verify: bool) -> Result<RepairReport> {
        let tel = self.telemetry();
        let _op = span!(tel, "repair");
        let wall = clock::monotonic_now();
        let (pass, walked) = self.per_shard(verify, true);
        walked?;
        self.count_scrub(&tel, &pass.scrub);
        let mut report = pass.repaired;
        report.failed.sort_unstable();
        report.sim_time = pass.per_provider_time.into_iter().max().unwrap_or_default();
        tel.incr("repairs_total");
        tel.add("shards_rebuilt", report.shards_rebuilt as u64);
        tel.add("repair_failures", report.failed.len() as u64);
        tel.observe_micros("repair_wall_us", wall.elapsed());
        Ok(report)
    }

    /// One pass: walks each table shard, ascending, each walk a bracketed
    /// `repair` op (targeting `stripes` for a repair, `scrub` for a scrub)
    /// under that shard's write guard, which commits it: stripes never
    /// span shards, so every row a walk touches lives in the shard it
    /// holds. Stripe ids are made global by offsetting each shard's by the
    /// stripes of the shards before it. Stops at the first error, which it
    /// returns beside the pass: only a fired crash plan.
    fn per_shard(&self, verify: bool, heal: bool) -> (RepairPass, Result<()>) {
        let per_provider_time = vec![Duration::ZERO; self.fleet().len()];
        let mut pass = RepairPass {
            verify,
            heal,
            per_provider_time,
            ..Default::default()
        };
        let target = if heal { "stripes" } else { "scrub" };
        let mut offset = 0usize;
        let walked = (0..self.shard_count()).try_for_each(|shard| {
            self.journaled(OpKind::Repair, "", target, |ctx| {
                let mut st = self.shard_write(shard);
                let doomed = self.walk(ctx, &mut st, offset, &mut pass)?;
                offset += st.stripes.len();
                self.commit_under(ctx, shard, &st);
                Ok(((), doomed))
            })
        });
        (pass, walked)
    }

    /// Surveys one shard's stripes into the pass, each through its own read
    /// set, healing each bad one with that set when the pass repairs; the
    /// rows it changes are `ctx`'s delta. Returns what the heals doomed.
    fn walk(
        &self,
        ctx: &OpCtx,
        st: &mut Tables,
        offset: usize,
        pass: &mut RepairPass,
    ) -> Result<Doomed> {
        let tel = self.telemetry();
        let mut doomed = Doomed::new();
        for sid in 0..st.stripes.len() {
            let rows = StripeRows::of(st, sid);
            let mut set = StripeReadSet::default();
            let (mut live, mut missing, mut corrupt) = (0usize, 0usize, 0usize);
            for (slot, &m) in st.stripes[sid].members.iter().enumerate() {
                let e = &st.chunks[m];
                if e.removed {
                    continue;
                }
                live += 1;
                let p = &self.fleet()[e.provider_idx];
                if !(p.is_online() && p.contains(e.vid)) {
                    // Known gone: it costs no read, now or in the heal.
                    set.slots(&rows)[slot] = Member::Lost;
                    missing += 1;
                    continue;
                }
                if pass.verify {
                    // The boundary counts the corruption and feeds the
                    // provider's breaker; the walk only classifies.
                    let (res, t, _) = self.io().read_member(&rows, &mut set, slot, &tel);
                    pass.per_provider_time[e.provider_idx] += t;
                    match res {
                        Ok(_) => {}
                        Err(CoreError::ShardCorrupt { .. }) => corrupt += 1,
                        Err(_) => missing += 1,
                    }
                }
            }
            // A corrupt shard is an erasure like a missing one: the
            // degraded marker routes it into repair. A fully removed
            // stripe has nothing left to protect, so it is not counted.
            let bad = missing + corrupt;
            if st.stripes[sid].degraded != (bad > 0) {
                st.stripes[sid].degraded = bad > 0;
                self.touch_stripe(ctx, sid);
            }
            pass.scrub.stripes_checked += usize::from(live > 0);
            pass.scrub.missing_shards += missing;
            pass.scrub.corrupt_shards += corrupt;
            if bad == 0 {
                continue;
            }
            if bad <= st.stripes[sid].level.fault_tolerance() {
                pass.scrub.degraded.push(offset + sid);
            } else {
                pass.scrub.unreadable.push(offset + sid);
            }
            if !pass.heal {
                continue;
            }
            match self.repair_stripe(ctx, st, &rows, &mut set, pass, &mut doomed) {
                Ok(n) => {
                    pass.repaired.stripes_repaired += 1;
                    pass.repaired.shards_rebuilt += n;
                    st.stripes[sid].degraded = false;
                    self.touch_stripe(ctx, sid);
                }
                // The crash plan fired: the "process" is dead, stop here.
                Err(e @ CoreError::SimulatedCrash { .. }) => return Err(e),
                Err(_) => pass.repaired.failed.push(offset + sid),
            }
        }
        Ok(doomed)
    }

    /// The counters of one scrub pass, standalone or inside a repair.
    fn count_scrub(&self, tel: &TelemetryHandle, report: &ScrubReport) {
        tel.incr("scrubs_total");
        tel.add("scrub_missing_shards", report.missing_shards as u64);
        tel.add("scrub_corrupt_shards", report.corrupt_shards as u64);
    }

    /// Rebuilds every lost shard of `rows`' stripe with the walk's read set:
    /// reads every member the walk left untried (so a shallow repair still
    /// finds a corrupt one), decodes the lost slots and re-places each
    /// under a fresh vid, dooming the object it replaces: the reclaimer
    /// deletes it once its provider is reachable, and drops it if it is
    /// gone. An error leaves the rows not yet re-placed untouched.
    fn repair_stripe(
        &self,
        ctx: &OpCtx,
        st: &mut Tables,
        rows: &StripeRows,
        set: &mut StripeReadSet,
        pass: &mut RepairPass,
        doomed: &mut Doomed,
    ) -> Result<usize> {
        let tel = self.telemetry();
        let members = st.stripes[rows.id].members.clone();

        // Phase 1: every member the walk left untried is read now.
        let mut lost: Vec<usize> = Vec::new(); // slots
        let mut hosting: Vec<usize> = Vec::new(); // providers of live shards
        for (slot, &m) in members.iter().enumerate() {
            let e = &st.chunks[m];
            let (res, t, _) = self.io().read_member(rows, set, slot, &tel);
            pass.per_provider_time[e.provider_idx] += t;
            match res {
                Ok(_) if e.removed => {}
                Ok(_) => hosting.push(e.provider_idx),
                Err(_) => lost.push(slot),
            }
        }

        // Phase 2a: decode the lost shards; every survivor is in the set.
        let (rebuilt, _, _) = self.io().decode_lost(rows, set, &lost, &tel)?;

        // Phase 2b: re-place each rebuilt shard.
        let fleet = self.fleet();
        for (&slot, bytes) in lost.iter().zip(rebuilt) {
            let m = members[slot];
            let (orig, pl, stored_len, old_vid) = {
                let e = &st.chunks[m];
                (e.provider_idx, e.pl, e.stored_len, e.vid)
            };
            let target = Some(orig)
                .filter(|&o| fleet[o].is_online() && !hosting.contains(&o))
                .or_else(|| {
                    policy::rehoming_candidates(fleet, pl, &hosting, self.health())
                        .first()
                        .copied()
                })
                .ok_or(CoreError::NoEligibleProvider { pl })?;
            // Fresh virtual id: the rebuilt object must not be correlatable
            // with the lost one (§IV-A identity concealment). The lost id
            // is doomed whether or not its provider is reachable now.
            let new_vid = self.allocate_vid();
            self.journal_alloc(ctx, &[new_vid]);
            self.crash_point()?;
            let (res, t, _) = self
                .io()
                .put_with_retry(target, new_vid, &bytes[..stored_len], &tel);
            pass.per_provider_time[target] += t;
            res?;
            let e = &mut st.chunks[m];
            e.provider_idx = target;
            e.vid = new_vid;
            self.touch_chunk(ctx, m);
            doomed.push((orig, old_vid));
            hosting.push(target);
        }
        // Crash window between two repaired stripes.
        self.crash_point()?;
        Ok(lost.len())
    }
}
