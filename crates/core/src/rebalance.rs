//! Chunk migration and locality-driven rebalancing.
//!
//! §VII-E: "Some optimized methods of fragmentation can be used like
//! storing the chunks in the locations where they are frequently used (for
//! multi national companies)." We model *locations* as providers with
//! different [`fragcloud_sim::net::LatencyModel`]s and let the distributor
//! move hot chunks toward low-latency providers:
//!
//! - [`CloudDataDistributor::migrate_chunk`] — move one chunk to a chosen
//!   eligible provider (snapshot-safe: the object is copied, the table
//!   updated, then the old object reclaimed);
//! - [`CloudDataDistributor::rebalance_by_access`] — greedy policy: for
//!   each of the client's chunks whose access count exceeds a threshold,
//!   migrate it to the eligible provider with the lowest link latency,
//!   respecting stripe anti-affinity.

use crate::distributor::{chunk_target, CloudDataDistributor};
use crate::journal::OpKind;
use crate::mutation::Doomed;
use crate::policy;
use crate::tables::ChunkRole;
use crate::{CoreError, Result};
use std::time::Duration;

/// Report of one rebalancing pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebalanceReport {
    /// Chunks moved.
    pub migrated: usize,
    /// Chunks inspected.
    pub inspected: usize,
}

impl CloudDataDistributor {
    /// Moves the chunk ⟨filename, serial⟩ to `target_provider` (a Cloud
    /// Provider Table index). The target must be online, eligible for the
    /// chunk's PL and must not already hold another shard of the same
    /// stripe (anti-affinity).
    ///
    /// The moved object gets a **fresh virtual id** at the target, so the
    /// new provider cannot correlate it with the old copy (§IV-A identity
    /// concealment, matching `repair`). Ordering is copy → table switch →
    /// commit record (under the shard guard) → source handed to the
    /// reclaimer, so a crash at any instant leaves at least one live,
    /// table-referenced copy; a source whose provider is offline stays
    /// queued until it is back, and one a crash left behind is collected by
    /// recovery's sweep.
    pub fn migrate_chunk(
        &self,
        client: &str,
        password: &str,
        filename: &str,
        serial: u32,
        target_provider: usize,
    ) -> Result<()> {
        let target = chunk_target(filename, serial);
        self.journaled(OpKind::Migrate, client, &target, |ctx| {
            let level = self.password_level(client, password)?;
            let shard = self.shard_for(client, filename);
            let mut st = self.shard_write(shard);
            let chunk_idx = st.live_chunk_index(client, filename, serial)?;
            let pl = st.chunks[chunk_idx].pl;
            crate::access::check(level, pl)?;
            let Some(target) = self.fleet().get(target_provider) else {
                return Err(CoreError::NoEligibleProvider { pl });
            };
            if !target.is_online() || target.profile().privacy_level < pl {
                return Err(CoreError::NoEligibleProvider { pl });
            }
            let source_provider = st.chunks[chunk_idx].provider_idx;
            if source_provider == target_provider {
                return Ok(((), Doomed::new())); // already there
            }
            // Anti-affinity within the stripe.
            if let Some(stripe_ref) = st.chunks[chunk_idx].stripe {
                let stripe = &st.stripes[stripe_ref.stripe_id];
                for &m in &stripe.members {
                    if m != chunk_idx && st.chunks[m].provider_idx == target_provider {
                        return Err(CoreError::InsufficientProviders {
                            needed: stripe.members.len(),
                            available: stripe.members.len() - 1,
                        });
                    }
                }
            }
            // Copy (under a fresh id), switch the table, and leave the doomed
            // source copy to the post-commit reclaim.
            let old_vid = st.chunks[chunk_idx].vid;
            let new_vid = self.allocate_vid();
            self.journal_alloc(ctx, &[new_vid]);
            self.crash_point()?;
            // Verified under the old id (and against the row's length),
            // re-framed under the new one: migration must not launder a
            // corrupted or stale object into a fresh valid frame.
            let tel = self.telemetry();
            let stored_len = st.chunks[chunk_idx].stored_len;
            let payload = self
                .io()
                .get_with_retry(source_provider, old_vid, Some(stored_len), &tel) // fraglint: allow(lock-order) — shard lock held across the boundary call until item 2 (optimistic commit)
                .0?;
            self.io()
                .put_with_retry(target_provider, new_vid, &payload, &tel) // fraglint: allow(lock-order) — shard lock held across the boundary call until item 2 (optimistic commit)
                .0?;
            self.crash_point()?;
            st.chunks[chunk_idx].vid = new_vid;
            st.chunks[chunk_idx].provider_idx = target_provider;
            self.touch_chunk(ctx, chunk_idx);
            self.commit_under(ctx, shard, &st);
            Ok(((), vec![(source_provider, old_vid)]))
        })
    }

    /// Greedy locality pass: migrate every data chunk of the client that
    /// was fetched more than `hot_threshold` times to the eligible provider
    /// with the lowest base link latency.
    ///
    /// Access counts are the providers' per-object `get` statistics, which
    /// the distributor can observe; the pass resets nothing, so repeated
    /// calls are idempotent once chunks sit at their best locations.
    pub fn rebalance_by_access(
        &self,
        client: &str,
        password: &str,
        hot_threshold: u64,
    ) -> Result<RebalanceReport> {
        // Collect candidate moves under the read locks (every shard: the
        // client's files are spread by file-hash), then apply lock-free.
        let level = self.password_level(client, password)?;
        let fleet = self.fleet();
        let moves: Vec<(String, u32, usize)> = {
            let shards = self.lock_all_read();
            // Eligible providers per PL, sorted by base latency.
            let mut moves = Vec::new();
            for st in shards.iter() {
                for (filename, file) in st.files.get(client).into_iter().flatten() {
                    crate::access::check(level, file.pl)?;
                    let mut candidates = policy::eligible_providers(fleet, file.pl);
                    candidates.sort_by_key(|&i| fleet[i].profile().latency.base);
                    let Some(&best) = candidates.first() else {
                        continue;
                    };
                    for &ci in &file.chunk_indices {
                        let e = &st.chunks[ci];
                        if e.removed || e.provider_idx == best {
                            continue;
                        }
                        // Hotness: total gets at the current provider is our
                        // proxy (per-object stats would need provider support).
                        let gets = fleet[e.provider_idx]
                            .stats()
                            .gets
                            .load(std::sync::atomic::Ordering::Relaxed);
                        if gets <= hot_threshold {
                            continue;
                        }
                        let serial = match e.role {
                            ChunkRole::Data { serial } => serial,
                            ChunkRole::Parity { .. } => continue,
                        };
                        // Only better-latency targets.
                        if fleet[best].profile().latency.base
                            < fleet[e.provider_idx].profile().latency.base
                        {
                            moves.push((filename.clone(), serial, best));
                        }
                    }
                }
            }
            moves
        };

        let mut report = RebalanceReport {
            inspected: moves.len(),
            ..Default::default()
        };
        for (filename, serial, target) in moves {
            match self.migrate_chunk(client, password, &filename, serial, target) {
                Ok(()) => report.migrated += 1,
                // Anti-affinity conflicts are expected; skip those chunks.
                Err(CoreError::InsufficientProviders { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }

    /// Simulated latency advantage of the current placement of a file for
    /// this client versus placing everything at the worst eligible
    /// provider — a locality score for tests/experiments.
    pub fn locality_gain(&self, client: &str, filename: &str) -> Result<Duration> {
        self.known_client(client)?;
        let fleet = self.fleet();
        let st = self.read_shard_for(client, filename);
        let file = st.file(client, filename)?;
        let mut current = Duration::ZERO;
        let mut worst_case = Duration::ZERO;
        let eligible = policy::eligible_providers(fleet, file.pl);
        let worst = eligible
            .iter()
            .copied()
            .max_by_key(|&i| fleet[i].profile().latency.base)
            .ok_or(CoreError::NoEligibleProvider { pl: file.pl })?;
        for &ci in &file.chunk_indices {
            let e = &st.chunks[ci];
            current += fleet[e.provider_idx]
                .profile()
                .latency
                .transfer_time(e.stored_len, 0);
            worst_case += fleet[worst]
                .profile()
                .latency
                .transfer_time(e.stored_len, 0);
        }
        Ok(worst_case.saturating_sub(current))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkSizeSchedule, DistributorConfig};
    use crate::{PrivacyLevel, PutOptions};
    use fragcloud_sim::net::LatencyModel;
    use fragcloud_sim::{CloudProvider, CostLevel, ProviderProfile};
    use std::sync::Arc;

    /// Fleet with one "near" low-latency provider and several "far" ones.
    fn fleet() -> Vec<Arc<CloudProvider>> {
        (0..6)
            .map(|i| {
                let mut profile =
                    ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(1));
                profile.latency = if i == 0 {
                    LatencyModel::lan()
                } else {
                    LatencyModel::wan()
                };
                Arc::new(CloudProvider::new(profile))
            })
            .collect()
    }

    fn world() -> CloudDataDistributor {
        let d = CloudDataDistributor::try_new(
            fleet(),
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(256),
                stripe_width: 3,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        d
    }

    fn body(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 256) as u8).collect()
    }

    #[test]
    fn migrate_moves_object_and_preserves_reads() {
        let d = world();
        let data = body(1000);
        d.session("c", "pw")
            .unwrap()
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        // Find chunk 0's provider and pick a different, stripe-safe target.
        let before = d.client_chunks_per_provider("c").unwrap();
        // Try all targets until one succeeds (anti-affinity may veto some).
        let mut moved = false;
        for target in 0..6 {
            match d.migrate_chunk("c", "pw", "f", 0, target) {
                Ok(()) => {
                    moved = true;
                    break;
                }
                Err(CoreError::InsufficientProviders { .. }) => continue,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(moved);
        let after = d.client_chunks_per_provider("c").unwrap();
        // Either it stayed (same target) or counts shifted by one somewhere.
        assert_eq!(
            before.iter().sum::<usize>(),
            after.iter().sum::<usize>(),
            "no chunk lost"
        );
        assert_eq!(
            d.session("c", "pw").unwrap().get_file("f").unwrap().data,
            data
        );
    }

    #[test]
    fn migrating_a_removed_chunk_is_unknown_and_scores_no_provider() {
        let d = world();
        let session = d.session("c", "pw").unwrap();
        session
            .put_file("f", &body(1000), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        session.remove_chunk("f", 0).unwrap();
        let scores = || -> Vec<f64> {
            (0..d.providers().len())
                .map(|i| d.health().score(i))
                .collect()
        };
        let before = scores();
        for target in 0..d.providers().len() {
            assert!(
                matches!(
                    d.migrate_chunk("c", "pw", "f", 0, target),
                    Err(CoreError::UnknownChunk { serial: 0, .. })
                ),
                "target {target}"
            );
        }
        assert_eq!(scores(), before, "a tombstone's lookup reached a provider");
        let held: std::collections::HashSet<_> = d
            .providers()
            .iter()
            .flat_map(|p| p.virtual_id_list())
            .collect();
        assert_eq!(held, d.referenced_vids());
    }

    #[test]
    fn migrate_rejects_low_pl_target() {
        let mut providers = fleet();
        providers.push(Arc::new(CloudProvider::new(ProviderProfile::new(
            "lowtrust",
            PrivacyLevel::Low,
            CostLevel::new(0),
        ))));
        let d = CloudDataDistributor::try_new(
            providers,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(256),
                stripe_width: 3,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        d.session("c", "pw")
            .unwrap()
            .put_file("f", &body(500), PrivacyLevel::High, PutOptions::default())
            .unwrap();
        assert!(matches!(
            d.migrate_chunk("c", "pw", "f", 0, 6),
            Err(CoreError::NoEligibleProvider { .. })
        ));
        // Out-of-range index too.
        assert!(d.migrate_chunk("c", "pw", "f", 0, 99).is_err());
    }

    #[test]
    fn migrate_respects_stripe_anti_affinity() {
        let d = world();
        d.session("c", "pw")
            .unwrap()
            .put_file("f", &body(700), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        // Chunks 0..2 share a stripe (width 3); moving chunk 0 onto chunk
        // 1's provider must be vetoed.
        let st_chunk1_provider = {
            // provider of serial 1 via public accessors: probe by migrating
            // serial 0 to each provider and find the veto.
            let mut veto = None;
            for target in 0..6 {
                if matches!(
                    d.migrate_chunk("c", "pw", "f", 0, target),
                    Err(CoreError::InsufficientProviders { .. })
                ) {
                    veto = Some(target);
                    break;
                }
            }
            veto
        };
        assert!(
            st_chunk1_provider.is_some(),
            "some provider must be vetoed by anti-affinity"
        );
        // File still fully readable after the probe migrations.
        assert_eq!(
            d.session("c", "pw").unwrap().get_file("f").unwrap().data,
            body(700)
        );
    }

    #[test]
    fn rebalance_moves_hot_chunks_toward_low_latency() {
        let d = world();
        let data = body(2000);
        d.session("c", "pw")
            .unwrap()
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        // Heat the file up.
        for _ in 0..5 {
            d.session("c", "pw").unwrap().get_file("f").unwrap();
        }
        let gain_before = d.locality_gain("c", "f").unwrap();
        let report = d.rebalance_by_access("c", "pw", 1).unwrap();
        // Some chunks move to cp0 (the only LAN provider); anti-affinity
        // caps it at one shard per stripe.
        assert!(report.migrated >= 1, "{report:?}");
        let gain_after = d.locality_gain("c", "f").unwrap();
        assert!(
            gain_after > gain_before,
            "locality must improve: {gain_before:?} -> {gain_after:?}"
        );
        // Data integrity preserved.
        assert_eq!(
            d.session("c", "pw").unwrap().get_file("f").unwrap().data,
            data
        );
        // Idempotence: a second pass moves nothing new onto cp0 beyond the
        // anti-affinity cap.
        let again = d.rebalance_by_access("c", "pw", 1).unwrap();
        assert_eq!(again.migrated, 0, "{again:?}");
    }

    #[test]
    fn rebalance_requires_authorization() {
        let d = world();
        d.add_password("c", "weak", PrivacyLevel::Public).unwrap();
        d.session("c", "pw")
            .unwrap()
            .put_file("f", &body(300), PrivacyLevel::High, PutOptions::default())
            .unwrap();
        assert_eq!(
            d.rebalance_by_access("c", "weak", 0).unwrap_err(),
            CoreError::AccessDenied
        );
        assert_eq!(
            d.migrate_chunk("c", "weak", "f", 0, 0).unwrap_err(),
            CoreError::AccessDenied
        );
    }
}
