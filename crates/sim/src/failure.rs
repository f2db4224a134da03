//! Outage injection and Monte-Carlo availability sampling.
//!
//! §I motivates the distributed design with the April 2011 EC2 outage;
//! §III-B claims the distributed approach "ensures the greater availability
//! of data". Experiment E9 quantifies that: sample provider up/down states
//! from per-provider availability probabilities and check whether each
//! file's stripes remain decodable.

use crate::provider::CloudProvider;
use crate::store::StoreError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A scripted sequence of **mid-stream** provider deaths: each event kills
/// one provider after it serves a given number of further operations, so an
/// outage can land in the middle of a multi-chunk read exactly like the
/// April 2011 EC2 incident landed mid-workload (§I).
///
/// ```
/// # use fragcloud_sim::{CloudProvider, CostLevel, PrivacyLevel, ProviderProfile};
/// # use fragcloud_sim::failure::OutageScript;
/// # use std::sync::Arc;
/// # let fleet: Vec<Arc<CloudProvider>> = (0..3).map(|i| Arc::new(CloudProvider::new(
/// #     ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(1))))).collect();
/// OutageScript::new()
///     .kill_after(0, 2)
///     .kill_after(2, 5)
///     .try_arm(&fleet)
///     .expect("provider indices are in range");
/// ```
#[derive(Debug, Clone, Default)]
pub struct OutageScript {
    events: Vec<(usize, u64)>,
}

impl OutageScript {
    /// An empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event: provider `idx` dies after serving `ops` more
    /// operations (`0` = its very next request fails).
    pub fn kill_after(mut self, idx: usize, ops: u64) -> Self {
        self.events.push((idx, ops));
        self
    }

    /// Scheduled events as `(provider index, ops before death)` pairs.
    pub fn events(&self) -> &[(usize, u64)] {
        &self.events
    }

    /// Arms every event against a live fleet, validating every provider
    /// index first — nothing is armed if any event names a provider the
    /// fleet does not have.
    pub fn try_arm(&self, fleet: &[Arc<CloudProvider>]) -> Result<(), StoreError> {
        for &(idx, _) in &self.events {
            if idx >= fleet.len() {
                return Err(StoreError::UnknownProvider {
                    index: idx,
                    fleet: fleet.len(),
                });
            }
        }
        for &(idx, ops) in &self.events {
            fleet[idx].fail_after_ops(ops);
        }
        Ok(())
    }
}

/// Independent per-provider availability model.
#[derive(Debug, Clone)]
pub struct AvailabilityModel {
    /// Probability that each provider is up at observation time.
    pub per_provider_up: Vec<f64>,
}

impl AvailabilityModel {
    /// Uniform availability across `n` providers.
    pub fn uniform(n: usize, up: f64) -> Self {
        assert!((0.0..=1.0).contains(&up), "probability out of range");
        AvailabilityModel {
            per_provider_up: vec![up; n],
        }
    }

    /// Samples one up/down outcome per provider.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<bool> {
        self.per_provider_up
            .iter()
            .map(|&p| rng.gen_bool(p))
            .collect()
    }
}

/// Result of a Monte-Carlo availability run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityEstimate {
    /// Fraction of trials in which the file was readable.
    pub availability: f64,
    /// Trials run.
    pub trials: usize,
}

/// Estimates the probability that a read succeeds, given a survival
/// predicate over the sampled provider states.
///
/// `readable(up)` returns whether the file can be reconstructed when
/// `up[i]` says provider `i` is online — e.g. "at most 1 of the stripe's
/// providers is down" for RAID-5.
pub fn estimate_availability<F>(
    model: &AvailabilityModel,
    trials: usize,
    seed: u64,
    mut readable: F,
) -> AvailabilityEstimate
where
    F: FnMut(&[bool]) -> bool,
{
    assert!(trials > 0, "trials must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ok = 0usize;
    for _ in 0..trials {
        let up = model.sample(&mut rng);
        if readable(&up) {
            ok += 1;
        }
    }
    AvailabilityEstimate {
        availability: ok as f64 / trials as f64,
        trials,
    }
}

/// Analytic availability of a `k`-of-`n` code under i.i.d. provider
/// availability `p`: `Σ_{i=k}^{n} C(n,i) pⁱ (1−p)^{n−i}`.
pub fn k_of_n_availability(k: usize, n: usize, p: f64) -> f64 {
    assert!(k <= n, "k must be <= n");
    assert!((0.0..=1.0).contains(&p));
    let mut total = 0.0;
    for i in k..=n {
        total += binomial(n, i) * p.powi(i as i32) * (1.0 - p).powi((n - i) as i32);
    }
    total.min(1.0)
}

fn binomial(n: usize, k: usize) -> f64 {
    let k = k.min(n - k);
    let mut c = 1.0;
    for i in 0..k {
        c = c * (n - i) as f64 / (i + 1) as f64;
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_model_shape() {
        let m = AvailabilityModel::uniform(5, 0.9);
        assert_eq!(m.per_provider_up.len(), 5);
        let mut rng = StdRng::seed_from_u64(1);
        let up = m.sample(&mut rng);
        assert_eq!(up.len(), 5);
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        AvailabilityModel::uniform(3, 1.5);
    }

    #[test]
    fn always_up_gives_certainty() {
        let m = AvailabilityModel::uniform(4, 1.0);
        let est = estimate_availability(&m, 100, 7, |up| up.iter().all(|&u| u));
        assert_eq!(est.availability, 1.0);
    }

    #[test]
    fn always_down_gives_zero() {
        let m = AvailabilityModel::uniform(4, 0.0);
        let est = estimate_availability(&m, 100, 7, |up| up.iter().any(|&u| u));
        assert_eq!(est.availability, 0.0);
    }

    #[test]
    fn monte_carlo_matches_analytic_k_of_n() {
        // 3-of-5 at p=0.9
        let m = AvailabilityModel::uniform(5, 0.9);
        let est =
            estimate_availability(&m, 200_000, 42, |up| up.iter().filter(|&&u| u).count() >= 3);
        let analytic = k_of_n_availability(3, 5, 0.9);
        assert!(
            (est.availability - analytic).abs() < 0.005,
            "mc={} analytic={analytic}",
            est.availability
        );
    }

    #[test]
    fn analytic_known_values() {
        // 1-of-1: availability = p
        assert!((k_of_n_availability(1, 1, 0.9) - 0.9).abs() < 1e-12);
        // 0-of-n: always readable
        assert_eq!(k_of_n_availability(0, 3, 0.5), 1.0);
        // n-of-n: p^n
        assert!((k_of_n_availability(3, 3, 0.9) - 0.729).abs() < 1e-12);
        // RAID-5 style 4-of-5 beats 5-of-5.
        assert!(k_of_n_availability(4, 5, 0.95) > k_of_n_availability(5, 5, 0.95));
        // RAID-6 style 4-of-6 beats 4-of-5.
        assert!(k_of_n_availability(4, 6, 0.95) > k_of_n_availability(4, 5, 0.95));
    }

    #[test]
    fn outage_script_arms_fleet() {
        use crate::store::ObjectStore;
        use crate::types::{CostLevel, PrivacyLevel, VirtualId};
        use crate::{CloudProvider, ProviderProfile};
        let fleet: Vec<Arc<CloudProvider>> = (0..2)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect();
        fleet[0]
            .put(VirtualId(1), bytes::Bytes::from_static(b"x"))
            .unwrap();
        let script = OutageScript::new().kill_after(0, 1);
        assert_eq!(script.events(), &[(0, 1)]);
        script.try_arm(&fleet).expect("index 0 is in range");
        assert!(fleet[0].get(VirtualId(1)).is_ok());
        assert!(fleet[0].get(VirtualId(1)).is_err());
        assert!(!fleet[0].is_online());
        assert!(fleet[1].is_online());
    }

    #[test]
    fn try_arm_rejects_bad_index_without_arming() {
        use crate::{CloudProvider, ProviderProfile};
        use crate::types::{CostLevel, PrivacyLevel};
        let fleet: Vec<Arc<CloudProvider>> = (0..2)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect();
        // Valid event listed before the invalid one: neither may arm.
        let script = OutageScript::new().kill_after(0, 0).kill_after(7, 3);
        assert_eq!(
            script.try_arm(&fleet).unwrap_err(),
            StoreError::UnknownProvider { index: 7, fleet: 2 }
        );
        assert!(fleet[0].is_online());
        assert!(fleet[1].is_online());
    }

    #[test]
    fn determinism() {
        let m = AvailabilityModel::uniform(6, 0.8);
        let e1 = estimate_availability(&m, 1000, 99, |up| up[0]);
        let e2 = estimate_availability(&m, 1000, 99, |up| up[0]);
        assert_eq!(e1, e2);
    }
}
