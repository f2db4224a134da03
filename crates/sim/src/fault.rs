//! Byzantine / gray-failure injection: seeded per-provider corruption
//! and degraded-latency "limping" links.
//!
//! [`crate::failure::OutageScript`] and [`crate::crash::CrashPlan`] model
//! *crash-stop* faults — a provider or the distributor simply stops. Real
//! multi-provider deployments also fail **gray**: a provider stays up and
//! keeps answering, but the answers are wrong (bit-rot, truncated reads,
//! stale replicas, misrouted objects) or merely slow. A [`FaultPlan`]
//! scripts those faults deterministically, so a chaos experiment can sweep
//! fault type × intensity and replay the exact same corruption schedule on
//! every run.
//!
//! Corruption decisions are **hash-gated, not sequence-gated**: whether the
//! `n`-th read of object `v` on a given provider is corrupted depends only
//! on `(plan seed, v, n)`, never on how reads of *other* objects interleave
//! — so parallel fan-out reads stay reproducible.

use crate::provider::CloudProvider;
use crate::store::{MemoryStore, ObjectStore, StoreError};
use crate::types::VirtualId;
use bytes::Bytes;
use std::collections::HashMap;
use std::sync::Arc;

/// How an armed provider corrupts the reads that the fault gate selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultMode {
    /// Flip one payload bit and **persist** the damage — classic at-rest
    /// bit-rot: every later read of the object sees the same rot until a
    /// repair re-uploads it.
    BitFlip,
    /// Cut the payload short and **persist** the truncation, as if a
    /// partial write was silently acknowledged.
    Truncate,
    /// Serve the pre-overwrite version of an updated object (transient):
    /// a stale replica answering after the acked write superseded it.
    StaleReplay,
    /// Serve some *other* stored object's bytes (transient): an internally
    /// consistent but misrouted response.
    WrongObject,
}

/// Per-provider fault state installed by [`FaultPlan::try_arm`]; owned by
/// the [`CloudProvider`] behind a mutex, like its flakiness state.
#[derive(Debug)]
pub struct FaultState {
    mode: FaultMode,
    rate: f64,
    seed: u64,
    /// Per-object read ordinals — the `n` in the hash gate.
    reads: HashMap<VirtualId, u64>,
    /// First-overwrite snapshots served by [`FaultMode::StaleReplay`].
    stale: HashMap<VirtualId, Bytes>,
    /// Corrupted serves so far (diagnostics for experiments).
    injected: u64,
}

/// splitmix-style finalizer over the gate inputs → `[0, 1)` unit plus raw
/// bits for position choices.
fn gate(seed: u64, vid: u64, ordinal: u64) -> (f64, u64) {
    let mut h = seed
        ^ vid.rotate_left(32)
        ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h = h.wrapping_mul(0xC4CE_B9FE_1A85_EC53);
    h ^= h >> 33;
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    (unit, h)
}

impl FaultState {
    /// Fresh state; `rate` is assumed validated by the caller.
    pub(crate) fn new(mode: FaultMode, rate: f64, seed: u64) -> Self {
        FaultState {
            mode,
            rate,
            seed,
            reads: HashMap::new(),
            stale: HashMap::new(),
            injected: 0,
        }
    }

    /// Corrupted serves so far.
    pub(crate) fn injected(&self) -> u64 {
        self.injected
    }

    /// Called before an overwrite lands: stash the object's **first**
    /// acked version so [`FaultMode::StaleReplay`] has something genuinely
    /// stale to serve.
    pub(crate) fn on_put(&mut self, store: &MemoryStore, key: VirtualId) {
        if self.mode == FaultMode::StaleReplay {
            if let Ok(old) = store.get(key) {
                self.stale.entry(key).or_insert(old);
            }
        }
    }

    /// Called on a successful read: decide via the hash gate whether this
    /// serve is corrupted, and if so produce the corrupted bytes. Returns
    /// the bytes to serve, and whether they are at-rest damage the
    /// provider must persist (`BitFlip`, `Truncate`).
    pub(crate) fn on_get(
        &mut self,
        store: &MemoryStore,
        key: VirtualId,
        bytes: Bytes,
    ) -> (Bytes, bool) {
        let ordinal = {
            let n = self.reads.entry(key).or_insert(0);
            let now = *n;
            *n += 1;
            now
        };
        let (unit, raw) = gate(self.seed, key.0, ordinal);
        if unit >= self.rate {
            return (bytes, false);
        }
        let served = match self.mode {
            FaultMode::BitFlip => {
                if bytes.is_empty() {
                    return (bytes, false);
                }
                let mut rotted = bytes.to_vec();
                let bit = (raw as usize) % (rotted.len() * 8);
                rotted[bit / 8] ^= 1 << (bit % 8);
                Bytes::from(rotted)
            }
            FaultMode::Truncate => {
                if bytes.is_empty() {
                    return (bytes, false);
                }
                let keep = (raw as usize) % bytes.len();
                bytes.slice(..keep)
            }
            FaultMode::StaleReplay => match self.stale.get(&key) {
                Some(old) => old.clone(),
                // Never overwritten: nothing stale exists to replay.
                None => return (bytes, false),
            },
            FaultMode::WrongObject => {
                let mut keys = store.keys();
                keys.sort_unstable();
                keys.retain(|&k| k != key);
                if keys.is_empty() {
                    return (bytes, false);
                }
                let swap = keys[(raw as usize) % keys.len()];
                match store.get(swap) {
                    Ok(other) => other,
                    Err(_) => return (bytes, false),
                }
            }
        };
        self.injected += 1;
        let at_rest = matches!(self.mode, FaultMode::BitFlip | FaultMode::Truncate);
        (served, at_rest)
    }
}

/// A deterministic, seeded gray-failure script: which providers corrupt
/// which fraction of their reads (and how), and which links limp.
///
/// ```
/// # use fragcloud_sim::{CloudProvider, CostLevel, PrivacyLevel, ProviderProfile};
/// # use fragcloud_sim::fault::{FaultMode, FaultPlan};
/// # use std::sync::Arc;
/// # let fleet: Vec<Arc<CloudProvider>> = (0..3).map(|i| Arc::new(CloudProvider::new(
/// #     ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(1))))).collect();
/// FaultPlan::new(42)
///     .corrupt(0, FaultMode::BitFlip, 0.25)
///     .limp(2, 8.0)
///     .try_arm(&fleet)
///     .expect("indices and rates are valid");
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    corruptions: Vec<(usize, FaultMode, f64)>,
    limps: Vec<(usize, f64)>,
}

impl FaultPlan {
    /// An empty plan; `seed` drives every corruption decision.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..Default::default()
        }
    }

    /// Provider `idx` corrupts each read independently with probability
    /// `rate`, in the given mode. Validation happens at
    /// [`try_arm`](Self::try_arm) time.
    pub fn corrupt(mut self, idx: usize, mode: FaultMode, rate: f64) -> Self {
        self.corruptions.push((idx, mode, rate));
        self
    }

    /// Provider `idx`'s link slows down by `factor` (≥ 1.0): both its
    /// simulated transfers and the side-effect-free estimates the hedging
    /// read path consults, so hedging decisions see the limp too.
    pub fn limp(mut self, idx: usize, factor: f64) -> Self {
        self.limps.push((idx, factor));
        self
    }

    /// Scheduled corruption events as `(provider, mode, rate)` triples.
    pub fn corruptions(&self) -> &[(usize, FaultMode, f64)] {
        &self.corruptions
    }

    /// Scheduled limps as `(provider, factor)` pairs.
    pub fn limps(&self) -> &[(usize, f64)] {
        &self.limps
    }

    /// Arms every event against a live fleet, validating indices, rates
    /// and limp factors first — nothing is armed if any event is invalid.
    ///
    /// Each corrupted provider's gate is seeded by `plan seed ^ provider
    /// index`, so two providers armed from one plan rot different reads.
    pub fn try_arm(&self, fleet: &[Arc<CloudProvider>]) -> Result<(), StoreError> {
        for &(idx, _, rate) in &self.corruptions {
            if idx >= fleet.len() {
                return Err(StoreError::UnknownProvider {
                    index: idx,
                    fleet: fleet.len(),
                });
            }
            if !(0.0..=1.0).contains(&rate) {
                return Err(StoreError::InvalidProbability);
            }
        }
        for &(idx, factor) in &self.limps {
            if idx >= fleet.len() {
                return Err(StoreError::UnknownProvider {
                    index: idx,
                    fleet: fleet.len(),
                });
            }
            if !factor.is_finite() || factor < 1.0 {
                return Err(StoreError::InvalidProbability);
            }
        }
        for &(idx, mode, rate) in &self.corruptions {
            fleet[idx].install_fault(mode, rate, self.seed ^ idx as u64);
        }
        for &(idx, factor) in &self.limps {
            fleet[idx].set_limp_factor(factor);
        }
        Ok(())
    }

    /// [`try_arm`](Self::try_arm) for test scripts that know the plan is
    /// valid.
    ///
    /// # Panics
    /// Panics when an event's provider index, rate, or limp factor is out
    /// of range.
    pub fn arm(&self, fleet: &[Arc<CloudProvider>]) {
        self.try_arm(fleet)
            // fraglint: allow(no-unwrap-in-lib) — documented panicking convenience form; try_arm is the fallible variant.
            .expect("fault plan out of range for this fleet");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::ProviderProfile;
    use crate::types::{CostLevel, PrivacyLevel};

    fn fleet(n: usize) -> Vec<Arc<CloudProvider>> {
        (0..n)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect()
    }

    #[test]
    fn bitflip_corrupts_deterministically_and_persists() {
        let run = || {
            let f = fleet(1);
            f[0].put(VirtualId(7), Bytes::from(vec![0u8; 64])).unwrap();
            FaultPlan::new(9)
                .corrupt(0, FaultMode::BitFlip, 1.0)
                .try_arm(&f)
                .unwrap();
            f[0].get(VirtualId(7)).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same rot");
        assert_ne!(a, Bytes::from(vec![0u8; 64]), "a bit actually flipped");
        assert_eq!(a.len(), 64);
        // And it persisted: clearing the fault still shows the damage.
        let f = fleet(1);
        f[0].put(VirtualId(7), Bytes::from(vec![0u8; 64])).unwrap();
        FaultPlan::new(9)
            .corrupt(0, FaultMode::BitFlip, 1.0)
            .try_arm(&f)
            .unwrap();
        let rotted = f[0].get(VirtualId(7)).unwrap();
        f[0].clear_fault();
        let at_rest = f[0].get(VirtualId(7)).unwrap();
        assert_eq!(rotted, at_rest, "bit-rot is at-rest damage");
    }

    #[test]
    fn truncate_shortens_and_persists() {
        let f = fleet(1);
        f[0].put(VirtualId(1), Bytes::from(vec![7u8; 100])).unwrap();
        FaultPlan::new(3)
            .corrupt(0, FaultMode::Truncate, 1.0)
            .try_arm(&f)
            .unwrap();
        let cut = f[0].get(VirtualId(1)).unwrap();
        assert!(cut.len() < 100);
        f[0].clear_fault();
        assert_eq!(f[0].get(VirtualId(1)).unwrap().len(), cut.len());
    }

    #[test]
    fn stale_replay_serves_pre_overwrite_version() {
        let f = fleet(1);
        f[0].put(VirtualId(5), Bytes::from_static(b"v1")).unwrap();
        FaultPlan::new(1)
            .corrupt(0, FaultMode::StaleReplay, 1.0)
            .try_arm(&f)
            .unwrap();
        // Nothing stale yet: the first version is served as-is.
        assert_eq!(f[0].get(VirtualId(5)).unwrap(), Bytes::from_static(b"v1"));
        f[0].put(VirtualId(5), Bytes::from_static(b"v2")).unwrap();
        // Now the overwrite exists to betray.
        assert_eq!(f[0].get(VirtualId(5)).unwrap(), Bytes::from_static(b"v1"));
        f[0].clear_fault();
        assert_eq!(f[0].get(VirtualId(5)).unwrap(), Bytes::from_static(b"v2"));
    }

    #[test]
    fn wrong_object_swaps_and_rate_zero_is_clean() {
        let f = fleet(1);
        f[0].put(VirtualId(1), Bytes::from_static(b"one")).unwrap();
        f[0].put(VirtualId(2), Bytes::from_static(b"two")).unwrap();
        FaultPlan::new(4)
            .corrupt(0, FaultMode::WrongObject, 1.0)
            .try_arm(&f)
            .unwrap();
        assert_eq!(f[0].get(VirtualId(1)).unwrap(), Bytes::from_static(b"two"));
        // Store contents untouched (transient fault).
        f[0].clear_fault();
        assert_eq!(f[0].get(VirtualId(1)).unwrap(), Bytes::from_static(b"one"));
        // rate 0 never fires.
        FaultPlan::new(4)
            .corrupt(0, FaultMode::WrongObject, 0.0)
            .try_arm(&f)
            .unwrap();
        for _ in 0..20 {
            assert_eq!(f[0].get(VirtualId(1)).unwrap(), Bytes::from_static(b"one"));
        }
    }

    #[test]
    fn gate_is_per_object_not_per_sequence() {
        // Interleaving reads of other objects must not change which reads
        // of VirtualId(1) get corrupted.
        let observe = |interleave: bool| {
            let f = fleet(1);
            f[0].put(VirtualId(1), Bytes::from(vec![1u8; 32])).unwrap();
            f[0].put(VirtualId(2), Bytes::from(vec![2u8; 32])).unwrap();
            FaultPlan::new(77)
                .corrupt(0, FaultMode::WrongObject, 0.5)
                .try_arm(&f)
                .unwrap();
            let mut outcomes = Vec::new();
            for _ in 0..16 {
                if interleave {
                    let _ = f[0].get(VirtualId(2));
                }
                outcomes.push(f[0].get(VirtualId(1)).unwrap());
            }
            outcomes
        };
        assert_eq!(observe(false), observe(true));
    }

    #[test]
    fn limp_slows_both_estimate_and_simulate() {
        let f = fleet(2);
        let base_est = f[0].estimate_transfer(1 << 20);
        FaultPlan::new(0).limp(0, 4.0).try_arm(&f).unwrap();
        let est = f[0].estimate_transfer(1 << 20);
        assert!((est.as_secs_f64() / base_est.as_secs_f64() - 4.0).abs() < 1e-6);
        let sim = f[0].simulate_transfer(1 << 20);
        assert_eq!(est, sim, "hedging estimates must match what reads pay");
        // Other providers unaffected.
        assert_eq!(f[1].estimate_transfer(1 << 20), base_est);
    }

    #[test]
    fn try_arm_validates_without_partially_arming() {
        let f = fleet(2);
        let bad_idx = FaultPlan::new(0)
            .corrupt(0, FaultMode::BitFlip, 1.0)
            .corrupt(9, FaultMode::BitFlip, 1.0);
        assert_eq!(
            bad_idx.try_arm(&f).unwrap_err(),
            StoreError::UnknownProvider { index: 9, fleet: 2 }
        );
        // The valid event before the bad one must not have armed.
        f[0].put(VirtualId(1), Bytes::from(vec![0u8; 16])).unwrap();
        assert_eq!(f[0].get(VirtualId(1)).unwrap(), Bytes::from(vec![0u8; 16]));

        for bad_rate in [-0.1, 1.5, f64::NAN] {
            assert_eq!(
                FaultPlan::new(0)
                    .corrupt(0, FaultMode::BitFlip, bad_rate)
                    .try_arm(&f)
                    .unwrap_err(),
                StoreError::InvalidProbability,
                "rate={bad_rate}"
            );
        }
        for bad_factor in [0.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                FaultPlan::new(0).limp(0, bad_factor).try_arm(&f).unwrap_err(),
                StoreError::InvalidProbability,
                "factor={bad_factor}"
            );
        }
        assert_eq!(
            FaultPlan::new(0).limp(5, 2.0).try_arm(&f).unwrap_err(),
            StoreError::UnknownProvider { index: 5, fleet: 2 }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn arm_panics_on_bad_index() {
        FaultPlan::new(0)
            .corrupt(3, FaultMode::BitFlip, 0.5)
            .arm(&fleet(2));
    }
}
