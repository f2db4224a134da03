//! Provider eligibility and stripe placement.
//!
//! §IV-A: "A chunk is given to a provider having equal or higher privacy
//! level compared to the privacy level of the chunk … in case of equal
//! privacy level, the one with a lower cost level is given preference."
//! §VI adds that distribution among eligible providers is randomized.
//!
//! For RAID stripes we additionally enforce **anti-affinity**: the shards
//! of one stripe land on distinct providers, otherwise losing one provider
//! could take out several shards and defeat the parity (DESIGN.md §5).
//!
//! §IV-C's client-side variant is [`PlacementStrategy::Chord`]: the same
//! eligibility, the provider chosen by a hash ring instead of by cost.

use crate::config::PlacementStrategy;
use crate::health::HealthTracker;
use crate::{CoreError, Result};
use fragcloud_dht::ChordRing;
use fragcloud_sim::{CloudProvider, PrivacyLevel};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use std::sync::Arc;

/// Indices of providers eligible to store a chunk of privacy level `pl`:
/// online and with provider PL ≥ chunk PL.
pub fn eligible_providers(providers: &[Arc<CloudProvider>], pl: PrivacyLevel) -> Vec<usize> {
    providers
        .iter()
        .enumerate()
        .filter(|(_, p)| p.is_online() && p.profile().privacy_level >= pl)
        .map(|(i, _)| i)
        .collect()
}

/// Virtual nodes per provider on a [`PlacementStrategy::Chord`] ring.
pub(crate) const CHORD_VIRTUAL_NODES: u32 = 4;

/// Chooses providers for one stripe of `shards` chunks of level `pl`.
///
/// Returns one provider index per shard. All strategies respect
/// eligibility; `CheapestEligible`, `RandomEligible` and `Chord` guarantee
/// distinct providers per stripe, while `SingleProvider` (the attack
/// baseline) deliberately concentrates every shard on one provider.
/// `Chord` places by the empty stripe key here; see
/// [`place_stripe_avoiding`].
pub fn place_stripe(
    providers: &[Arc<CloudProvider>],
    pl: PrivacyLevel,
    shards: usize,
    strategy: PlacementStrategy,
    rng: &mut StdRng,
) -> Result<Vec<usize>> {
    place_stripe_avoiding(providers, pl, shards, strategy, rng, &[], ("", 0))
}

/// [`place_stripe`] with a quarantine list: providers in `avoid` (typically
/// those whose circuit breaker is Open — see [`crate::health`]) are dropped
/// from the eligible set **only when enough others remain** for the stripe.
/// A fleet too small to route around its quarantined members places on them
/// anyway — a suspect provider never bricks a write that has nowhere else
/// to go.
///
/// `stripe` is the stripe's ⟨filename, first chunk serial⟩. Only `Chord`
/// reads it: shard *i* goes to the *i*-th distinct successor of that key
/// on a ring of the eligible providers, so a one-shard stripe lands on
/// `ChordRing::owner(filename, serial)`.
pub fn place_stripe_avoiding(
    providers: &[Arc<CloudProvider>],
    pl: PrivacyLevel,
    shards: usize,
    strategy: PlacementStrategy,
    rng: &mut StdRng,
    avoid: &[usize],
    stripe: (&str, u32),
) -> Result<Vec<usize>> {
    let mut eligible = eligible_providers(providers, pl);
    if eligible.is_empty() {
        return Err(CoreError::NoEligibleProvider { pl });
    }
    let concentrates = strategy == PlacementStrategy::SingleProvider;
    if !avoid.is_empty() {
        let trimmed: Vec<usize> = eligible
            .iter()
            .copied()
            .filter(|i| !avoid.contains(i))
            .collect();
        let enough = if concentrates {
            !trimmed.is_empty()
        } else {
            trimmed.len() >= shards
        };
        if enough {
            eligible = trimmed;
        }
    }
    if !concentrates && eligible.len() < shards {
        return Err(CoreError::InsufficientProviders {
            needed: shards,
            available: eligible.len(),
        });
    }
    match strategy {
        PlacementStrategy::SingleProvider => {
            // Cheapest eligible provider takes everything.
            let idx = *eligible
                .iter()
                .min_by_key(|&&i| providers[i].profile().cost_level)
                .ok_or(CoreError::NoEligibleProvider { pl })?;
            Ok(vec![idx; shards])
        }
        PlacementStrategy::RandomEligible => {
            eligible.shuffle(rng);
            Ok(eligible[..shards].to_vec())
        }
        PlacementStrategy::CheapestEligible => {
            // Sort by cost level; break ties with a per-stripe random key so
            // equal-cost providers share load across stripes.
            let mut keyed: Vec<(u8, u64, usize)> = eligible
                .iter()
                .map(|&i| (providers[i].profile().cost_level.0, rng.gen::<u64>(), i))
                .collect();
            keyed.sort_unstable();
            Ok(keyed.into_iter().take(shards).map(|(_, _, i)| i).collect())
        }
        PlacementStrategy::Chord => {
            let mut ring = ChordRing::new(CHORD_VIRTUAL_NODES);
            for &i in &eligible {
                ring.join(providers[i].name());
            }
            let (filename, first_serial) = stripe;
            let placed: Vec<usize> = ring
                .successors(filename, first_serial)
                .into_iter()
                .take(shards)
                .filter_map(|name| {
                    eligible
                        .iter()
                        .copied()
                        .find(|&i| providers[i].name() == name)
                })
                .collect();
            if placed.len() < shards {
                // Two eligible providers share a name: one ring member.
                return Err(CoreError::InsufficientProviders {
                    needed: shards,
                    available: placed.len(),
                });
            }
            Ok(placed)
        }
    }
}

/// Where a stripe member goes when its own provider cannot take it — a
/// degraded write's alternates and a repair's targets, in preference
/// order: eligible providers hosting no member of the stripe (`hosting`),
/// healthiest first ([`HealthTracker::penalty`]), then cheapest, then
/// lowest index.
pub(crate) fn rehoming_candidates(
    providers: &[Arc<CloudProvider>],
    pl: PrivacyLevel,
    hosting: &[usize],
    health: &HealthTracker,
) -> Vec<usize> {
    let mut alts: Vec<usize> = eligible_providers(providers, pl)
        .into_iter()
        .filter(|i| !hosting.contains(i))
        .collect();
    alts.sort_by(|&a, &b| {
        let cost = |i: usize| providers[i].profile().cost_level;
        health
            .penalty(a)
            .total_cmp(&health.penalty(b))
            .then(cost(a).cmp(&cost(b)))
            .then(a.cmp(&b))
    });
    alts
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragcloud_sim::{CostLevel, ProviderProfile};
    use rand::SeedableRng;

    fn fleet() -> Vec<Arc<CloudProvider>> {
        // Mirrors the spirit of Fig. 3's provider table: premium trusted
        // providers plus cheap low-trust ones.
        let spec = [
            ("Adobe", PrivacyLevel::High, 3),
            ("AWS", PrivacyLevel::High, 3),
            ("Google", PrivacyLevel::High, 3),
            ("Microsoft", PrivacyLevel::High, 3),
            ("Sky", PrivacyLevel::Moderate, 1),
            ("Sea", PrivacyLevel::Low, 1),
            ("Earth", PrivacyLevel::Low, 1),
        ];
        spec.iter()
            .map(|(n, pl, cl)| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    *n,
                    *pl,
                    CostLevel::new(*cl),
                )))
            })
            .collect()
    }

    #[test]
    fn eligibility_respects_pl_and_online() {
        let f = fleet();
        assert_eq!(eligible_providers(&f, PrivacyLevel::High).len(), 4);
        assert_eq!(eligible_providers(&f, PrivacyLevel::Moderate).len(), 5);
        assert_eq!(eligible_providers(&f, PrivacyLevel::Public).len(), 7);
        f[0].set_online(false);
        assert_eq!(eligible_providers(&f, PrivacyLevel::High).len(), 3);
    }

    #[test]
    fn stripe_members_distinct_and_eligible() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(1);
        for strat in [
            PlacementStrategy::CheapestEligible,
            PlacementStrategy::RandomEligible,
        ] {
            for _ in 0..50 {
                let placed = place_stripe(&f, PrivacyLevel::Moderate, 4, strat, &mut rng).unwrap();
                assert_eq!(placed.len(), 4);
                let mut uniq = placed.clone();
                uniq.sort_unstable();
                uniq.dedup();
                assert_eq!(uniq.len(), 4, "{strat:?}: {placed:?}");
                for &i in &placed {
                    assert!(f[i].profile().privacy_level >= PrivacyLevel::Moderate);
                }
            }
        }
    }

    #[test]
    fn cheapest_prefers_low_cost() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(2);
        // PL Public: all 7 eligible; cheapest are Sky/Sea/Earth (CL1).
        let placed = place_stripe(
            &f,
            PrivacyLevel::Public,
            3,
            PlacementStrategy::CheapestEligible,
            &mut rng,
        )
        .unwrap();
        for &i in &placed {
            assert_eq!(f[i].profile().cost_level, CostLevel(1), "{placed:?}");
        }
    }

    #[test]
    fn cheapest_tiebreak_spreads_load() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let mut first_seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let placed = place_stripe(
                &f,
                PrivacyLevel::Public,
                1,
                PlacementStrategy::CheapestEligible,
                &mut rng,
            )
            .unwrap();
            first_seen.insert(placed[0]);
        }
        // All three CL1 providers should appear as first pick over time.
        assert_eq!(first_seen.len(), 3, "{first_seen:?}");
    }

    #[test]
    fn single_provider_concentrates() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(4);
        let placed = place_stripe(
            &f,
            PrivacyLevel::High,
            5,
            PlacementStrategy::SingleProvider,
            &mut rng,
        )
        .unwrap();
        assert_eq!(placed.len(), 5);
        assert!(placed.iter().all(|&i| i == placed[0]));
        // High PL: must still be a trusted provider.
        assert!(f[placed[0]].profile().privacy_level >= PrivacyLevel::High);
    }

    #[test]
    fn avoiding_sheds_only_when_enough_remain() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(6);
        // 4 PL-High providers; a 3-shard stripe avoiding provider 0 must
        // land entirely on the other three.
        for _ in 0..20 {
            let placed = place_stripe_avoiding(
                &f,
                PrivacyLevel::High,
                3,
                PlacementStrategy::RandomEligible,
                &mut rng,
                &[0],
                ("", 0),
            )
            .unwrap();
            assert!(!placed.contains(&0), "{placed:?}");
        }
        // Avoiding two of the four leaves only two for a 3-shard stripe:
        // the quarantine is ignored rather than failing the write.
        let placed = place_stripe_avoiding(
            &f,
            PrivacyLevel::High,
            3,
            PlacementStrategy::CheapestEligible,
            &mut rng,
            &[0, 1],
            ("", 0),
        )
        .unwrap();
        assert_eq!(placed.len(), 3);
    }

    #[test]
    fn errors_when_impossible() {
        let f = fleet();
        let mut rng = StdRng::seed_from_u64(5);
        // 6 distinct PL-High providers don't exist.
        assert!(matches!(
            place_stripe(
                &f,
                PrivacyLevel::High,
                6,
                PlacementStrategy::CheapestEligible,
                &mut rng
            ),
            Err(CoreError::InsufficientProviders {
                needed: 6,
                available: 4
            })
        ));
        // No providers at all for a level when all are offline.
        for p in &f {
            p.set_online(false);
        }
        assert!(matches!(
            place_stripe(
                &f,
                PrivacyLevel::Public,
                1,
                PlacementStrategy::RandomEligible,
                &mut rng
            ),
            Err(CoreError::NoEligibleProvider { .. })
        ));
    }

    fn chord(
        f: &[Arc<CloudProvider>],
        pl: PrivacyLevel,
        shards: usize,
        seed: u64,
        key: (&str, u32),
    ) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(seed);
        place_stripe_avoiding(f, pl, shards, PlacementStrategy::Chord, &mut rng, &[], key).unwrap()
    }

    #[test]
    fn chord_placement_is_independent_of_the_rng() {
        let f = fleet();
        for serial in 0..40 {
            let key = ("ledger.csv", serial);
            let placed = chord(&f, PrivacyLevel::Public, 3, 1, key);
            assert_eq!(chord(&f, PrivacyLevel::Public, 3, 0xFEED, key), placed);
        }
        // Nothing is drawn: the stream continues as if no stripe was placed.
        let mut used = StdRng::seed_from_u64(9);
        place_stripe(
            &f,
            PrivacyLevel::Low,
            2,
            PlacementStrategy::Chord,
            &mut used,
        )
        .unwrap();
        assert_eq!(used.gen::<u64>(), StdRng::seed_from_u64(9).gen::<u64>());
    }

    #[test]
    fn chord_stripe_members_distinct_and_eligible() {
        let f = fleet();
        let mut spread = std::collections::HashSet::new();
        for serial in (0..200).step_by(4) {
            let placed = chord(&f, PrivacyLevel::Moderate, 4, 0, ("bulk", serial));
            let mut uniq = placed.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 4, "serial {serial}: {placed:?}");
            for &i in &placed {
                assert!(f[i].profile().privacy_level >= PrivacyLevel::Moderate);
            }
            spread.insert(placed[0]);
        }
        assert!(spread.len() >= 3, "stripes lead from only {spread:?}");
    }

    #[test]
    fn chord_with_one_shard_is_the_ring_owner() {
        let f = fleet();
        for pl in PrivacyLevel::ALL {
            let mut ring = ChordRing::new(CHORD_VIRTUAL_NODES);
            for p in f.iter().filter(|p| p.profile().privacy_level >= pl) {
                ring.join(p.name());
            }
            for serial in 0..100 {
                let placed = chord(&f, pl, 1, 0, ("diary.txt", serial));
                let owner = ring.owner("diary.txt", serial).unwrap();
                assert_eq!(f[placed[0]].name(), owner, "{pl} serial {serial}");
            }
        }
    }
}
