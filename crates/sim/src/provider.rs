//! A simulated cloud provider: profile + object store + failure switch +
//! curious observer + op accounting.

use crate::fault::{FaultMode, FaultState};
use crate::net::LatencyModel;
use crate::observer::Observer;
use crate::store::{MemoryStore, ObjectStore, StoreError};
use crate::types::{CostLevel, PrivacyLevel, VirtualId};
use bytes::Bytes;
use fragcloud_telemetry::TelemetryHandle;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::Duration;

/// Static description of a provider, mirroring one row of the paper's
/// Cloud Provider Table (Table I: name, PL, CL).
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderProfile {
    /// Provider name ("AWS", "Google", "Sky", "Earth", …).
    pub name: String,
    /// Trustworthiness level; a chunk may only be placed here if the chunk's
    /// PL ≤ this.
    pub privacy_level: PrivacyLevel,
    /// Price tier.
    pub cost_level: CostLevel,
    /// Network characteristics of the link to this provider.
    pub latency: LatencyModel,
}

impl ProviderProfile {
    /// Convenience constructor with a LAN-class link.
    pub fn new(name: impl Into<String>, pl: PrivacyLevel, cl: CostLevel) -> Self {
        ProviderProfile {
            name: name.into(),
            privacy_level: pl,
            cost_level: cl,
            latency: LatencyModel::lan(),
        }
    }
}

/// Cumulative operation counters for a provider.
#[derive(Debug, Default)]
pub struct ProviderStats {
    /// Successful `put` calls.
    pub puts: AtomicU64,
    /// Successful `get` calls.
    pub gets: AtomicU64,
    /// Successful `delete` calls.
    pub deletes: AtomicU64,
    /// Bytes written.
    pub bytes_in: AtomicU64,
    /// Bytes read.
    pub bytes_out: AtomicU64,
    /// Requests rejected because the provider was offline.
    pub rejected: AtomicU64,
    /// Successful `put` calls that stored *different* bytes under a key
    /// already held, compared with the bytes last acked through `put`
    /// (at-rest damage is not an ack, so re-uploading the acked bytes over
    /// it counts nothing).
    pub overwrites: AtomicU64,
}

/// A simulated cloud storage provider.
///
/// All operations go through the S3-like [`ObjectStore`] interface; an
/// internal [`Observer`] records stored chunks for the attack experiments,
/// and an online/offline switch injects outages (§I's EC2 incident).
pub struct CloudProvider {
    profile: ProviderProfile,
    store: MemoryStore,
    observer: Observer,
    online: AtomicBool,
    stats: ProviderStats,
    op_seq: AtomicU64,
    /// Probabilistic per-op failure (grey failures, as opposed to the
    /// binary outage switch). `None` = reliable.
    flakiness: Mutex<Option<(f64, StdRng)>>,
    /// Scripted mid-stream death: number of further operations this
    /// provider will serve before going offline (`-1` = no script).
    fail_after: AtomicI64,
    /// Byzantine corruption script installed by a
    /// [`FaultPlan`](crate::fault::FaultPlan); `None` = honest provider.
    fault: Mutex<Option<FaultState>>,
    /// The acked bytes of every key whose stored bytes were since damaged
    /// at rest: what the next `put` of that key is compared with.
    acked_before_damage: Mutex<HashMap<VirtualId, Bytes>>,
    /// Degraded-link multiplier on every transfer time, stored as `f64`
    /// bits (1.0 = healthy link).
    limp: AtomicU64,
    /// Runtime telemetry sink; disabled (no-op) by default.
    telemetry: RwLock<TelemetryHandle>,
}

impl CloudProvider {
    /// Brings up an empty, online provider.
    pub fn new(profile: ProviderProfile) -> Self {
        CloudProvider {
            profile,
            store: MemoryStore::new(),
            observer: Observer::new(),
            online: AtomicBool::new(true),
            stats: ProviderStats::default(),
            op_seq: AtomicU64::new(0),
            flakiness: Mutex::new(None),
            fail_after: AtomicI64::new(-1),
            fault: Mutex::new(None),
            acked_before_damage: Mutex::new(HashMap::new()),
            limp: AtomicU64::new(1.0f64.to_bits()),
            telemetry: RwLock::new(TelemetryHandle::disabled()),
        }
    }

    /// Routes this provider's per-op telemetry (op counts, rejections,
    /// simulated latencies — all labeled by provider name) to `handle`.
    pub fn set_telemetry(&self, handle: TelemetryHandle) {
        *self.telemetry.write() = handle;
    }

    /// The provider's current telemetry sink (disabled unless
    /// [`set_telemetry`](Self::set_telemetry) was called).
    pub fn telemetry(&self) -> TelemetryHandle {
        self.telemetry.read().clone()
    }

    /// Scripts a **mid-stream death**: the provider serves `n` more
    /// operations, then flips itself offline (as if the outage started
    /// while a multi-chunk transfer was in flight). `set_online(true)`
    /// clears the script along with the outage.
    pub fn fail_after_ops(&self, n: u64) {
        self.fail_after
            .store(i64::try_from(n).unwrap_or(i64::MAX), Ordering::Release);
    }

    /// Makes every operation fail independently with probability `p`
    /// (seeded, so runs are reproducible); `p = 0` restores reliability.
    /// Rejects `p` outside `[0, 1]` — including NaN — with
    /// [`StoreError::InvalidProbability`], leaving the current flakiness
    /// untouched.
    pub fn try_set_flaky(&self, p: f64, seed: u64) -> Result<(), StoreError> {
        if !(0.0..=1.0).contains(&p) {
            return Err(StoreError::InvalidProbability);
        }
        *self.flakiness.lock() = if p > 0.0 {
            Some((p, StdRng::seed_from_u64(seed)))
        } else {
            None
        };
        Ok(())
    }

    /// Installs a Byzantine corruption script — reads are corrupted in
    /// `mode` with probability `rate` (hash-gated per object, see
    /// [`crate::fault`]). Callers arm through
    /// [`FaultPlan::try_arm`](crate::fault::FaultPlan::try_arm), which
    /// validates `rate` first.
    pub(crate) fn install_fault(&self, mode: FaultMode, rate: f64, seed: u64) {
        *self.fault.lock() = Some(FaultState::new(mode, rate, seed));
    }

    /// Restores honesty: pending stale snapshots are dropped, but at-rest
    /// damage (persisted bit-flips / truncations) stays in the store —
    /// clearing the *injector* does not heal the *data*.
    pub fn clear_fault(&self) {
        *self.fault.lock() = None;
    }

    /// Corrupted serves injected by the current fault script (0 when no
    /// script is installed, or since the last install).
    pub fn faults_injected(&self) -> u64 {
        self.fault.lock().as_ref().map_or(0, |s| s.injected())
    }

    /// Replaces the bytes stored under `key` without an ack: at-rest
    /// damage (bit-rot, a torn or misdirected write). The next `put` of
    /// `key` is still compared with the bytes last acked, so re-uploading
    /// them is no overwrite. Works offline too; fails only for a key the
    /// provider does not hold.
    pub fn corrupt_at_rest(&self, key: VirtualId, bytes: Bytes) -> Result<(), StoreError> {
        let acked = self.store.get(key)?;
        self.acked_before_damage.lock().entry(key).or_insert(acked);
        self.store.put(key, bytes)
    }

    /// Sets the degraded-link multiplier (validated ≥ 1.0 and finite by
    /// [`FaultPlan::try_arm`](crate::fault::FaultPlan::try_arm); 1.0
    /// restores the healthy link).
    pub(crate) fn set_limp_factor(&self, factor: f64) {
        self.limp.store(factor.to_bits(), Ordering::Release);
    }

    /// Current degraded-link multiplier (1.0 = healthy).
    pub fn limp_factor(&self) -> f64 {
        f64::from_bits(self.limp.load(Ordering::Acquire))
    }

    /// The provider's static profile.
    pub fn profile(&self) -> &ProviderProfile {
        &self.profile
    }

    /// Provider name.
    pub fn name(&self) -> &str {
        &self.profile.name
    }

    /// Whether the provider currently accepts requests.
    pub fn is_online(&self) -> bool {
        self.online.load(Ordering::Acquire)
    }

    /// Injects or clears an outage. Recovery also clears any pending
    /// [`fail_after_ops`](Self::fail_after_ops) script.
    pub fn set_online(&self, online: bool) {
        if online {
            self.fail_after.store(-1, Ordering::Release);
        }
        self.online.store(online, Ordering::Release);
    }

    /// The curious-observer log for attack experiments.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Operation counters.
    pub fn stats(&self) -> &ProviderStats {
        &self.stats
    }

    /// Number of chunks currently stored (Table I's `Count` column).
    pub fn chunk_count(&self) -> usize {
        self.store.len()
    }

    /// Stored ids (Table I's `Virtual id list` column).
    pub fn virtual_id_list(&self) -> Vec<VirtualId> {
        self.store.keys()
    }

    /// Monthly storage cost at the provider's CL price, in dollars.
    pub fn monthly_cost_dollars(&self) -> f64 {
        let gb = self.store.bytes_stored() as f64 / 1e9;
        gb * self.profile.cost_level.dollars_per_gb_month()
    }

    /// Simulated network time for an operation of `size` bytes (scaled by
    /// any armed limp factor).
    pub fn simulate_transfer(&self, size: usize) -> Duration {
        let seq = self.op_seq.fetch_add(1, Ordering::Relaxed);
        let d = self
            .profile
            .latency
            .transfer_time(size, seq)
            .mul_f64(self.limp_factor());
        let tel = self.telemetry.read();
        if tel.is_enabled() {
            tel.observe_labeled("provider_op_us", &self.profile.name, d.as_micros() as u64);
        }
        d
    }

    /// Predicted transfer time for `size` bytes **without** consuming an
    /// operation slot — what a hedging read path consults before deciding
    /// whether racing the parity reconstruction is worthwhile. Sees the
    /// same limp factor real transfers pay, so hedging reacts to limping
    /// links.
    pub fn estimate_transfer(&self, size: usize) -> Duration {
        let seq = self.op_seq.load(Ordering::Relaxed);
        self.profile
            .latency
            .transfer_time(size, seq)
            .mul_f64(self.limp_factor())
    }

    fn check_online(&self) -> Result<(), StoreError> {
        // A scripted mid-stream death fires before the op is served.
        if self.fail_after.load(Ordering::Acquire) >= 0 {
            let prev = self.fail_after.fetch_sub(1, Ordering::AcqRel);
            if prev <= 0 {
                self.fail_after.store(-1, Ordering::Release);
                self.online.store(false, Ordering::Release);
            }
        }
        if !self.is_online() {
            self.record_rejection();
            return Err(StoreError::Unavailable {
                provider: self.profile.name.clone(),
            });
        }
        if let Some((p, rng)) = self.flakiness.lock().as_mut() {
            if rng.gen_bool(*p) {
                self.record_rejection();
                return Err(StoreError::Unavailable {
                    provider: self.profile.name.clone(),
                });
            }
        }
        Ok(())
    }

    fn record_rejection(&self) {
        self.stats.rejected.fetch_add(1, Ordering::Relaxed);
        let tel = self.telemetry.read();
        if tel.is_enabled() {
            tel.add_labeled("provider_rejected_total", &self.profile.name, 1);
        }
    }

    fn record_op(&self, op: &str) {
        let tel = self.telemetry.read();
        if tel.is_enabled() {
            tel.add_labeled("provider_ops_total", &self.profile.name, 1);
            tel.add_labeled(op, &self.profile.name, 1);
        }
    }
}

impl ObjectStore for CloudProvider {
    fn put(&self, key: VirtualId, value: Bytes) -> Result<(), StoreError> {
        self.check_online()?;
        // A stale-replay fault stashes the first acked version before the
        // overwrite lands, so it has something genuinely old to serve.
        if let Some(state) = self.fault.lock().as_mut() {
            state.on_put(&self.store, key);
        }
        self.record_op("provider_puts");
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_in
            .fetch_add(value.len() as u64, Ordering::Relaxed);
        self.observer.record(key, value.clone());
        // Only a key already held is compared, against the bytes last
        // acked: a first put costs nothing here.
        if let Some(held) = self.store.replace(key, value.clone()) {
            let acked = self.acked_before_damage.lock().remove(&key);
            if acked.unwrap_or(held) != value {
                self.stats.overwrites.fetch_add(1, Ordering::Relaxed);
                let tel = self.telemetry.read();
                if tel.is_enabled() {
                    tel.add_labeled("provider_overwrites", &self.profile.name, 1);
                }
            }
        }
        Ok(())
    }

    fn get(&self, key: VirtualId) -> Result<Bytes, StoreError> {
        self.check_online()?;
        let mut v = self.store.get(key)?;
        if let Some(state) = self.fault.lock().as_mut() {
            let before = state.injected();
            let (served, at_rest) = state.on_get(&self.store, key, v);
            if at_rest {
                // Later reads see the same damage.
                let _ = self.corrupt_at_rest(key, served.clone());
            }
            v = served;
            if state.injected() > before {
                let tel = self.telemetry.read();
                if tel.is_enabled() {
                    tel.add_labeled("provider_faults_injected", &self.profile.name, 1);
                }
            }
        }
        self.record_op("provider_gets");
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_out
            .fetch_add(v.len() as u64, Ordering::Relaxed);
        Ok(v)
    }

    fn delete(&self, key: VirtualId) -> Result<(), StoreError> {
        self.check_online()?;
        self.store.delete(key)?;
        self.acked_before_damage.lock().remove(&key);
        self.record_op("provider_deletes");
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn contains(&self, key: VirtualId) -> bool {
        self.store.contains(key)
    }

    fn len(&self) -> usize {
        self.store.len()
    }

    fn bytes_stored(&self) -> u64 {
        self.store.bytes_stored()
    }

    fn keys(&self) -> Vec<VirtualId> {
        self.store.keys()
    }
}

impl std::fmt::Debug for CloudProvider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CloudProvider")
            .field("name", &self.profile.name)
            .field("privacy_level", &self.profile.privacy_level)
            .field("cost_level", &self.profile.cost_level)
            .field("online", &self.is_online())
            .field("chunks", &self.chunk_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> CloudProvider {
        CloudProvider::new(ProviderProfile::new(
            "AWS",
            PrivacyLevel::High,
            CostLevel::new(3),
        ))
    }

    #[test]
    fn basic_ops_update_stats() {
        let p = provider();
        p.put(VirtualId(1), Bytes::from_static(b"hello")).unwrap();
        assert_eq!(p.get(VirtualId(1)).unwrap(), Bytes::from_static(b"hello"));
        p.delete(VirtualId(1)).unwrap();
        assert_eq!(p.stats().puts.load(Ordering::Relaxed), 1);
        assert_eq!(p.stats().gets.load(Ordering::Relaxed), 1);
        assert_eq!(p.stats().deletes.load(Ordering::Relaxed), 1);
        assert_eq!(p.stats().bytes_in.load(Ordering::Relaxed), 5);
        assert_eq!(p.stats().bytes_out.load(Ordering::Relaxed), 5);
    }

    fn overwrites(p: &CloudProvider) -> u64 {
        p.stats().overwrites.load(Ordering::Relaxed)
    }

    #[test]
    fn a_put_of_different_bytes_under_a_held_key_is_an_overwrite() {
        let p = provider();
        let tel = TelemetryHandle::enabled();
        p.set_telemetry(tel.clone());
        p.put(VirtualId(1), Bytes::from_static(b"v1")).unwrap();
        p.put(VirtualId(1), Bytes::from_static(b"v1")).unwrap();
        assert_eq!(overwrites(&p), 0, "the same bytes again");
        p.put(VirtualId(1), Bytes::from_static(b"v2")).unwrap();
        assert_eq!(overwrites(&p), 1);
        let snap = tel.registry().unwrap().snapshot();
        assert_eq!(snap.counter("provider_overwrites", "AWS"), 1);
        // A deleted key is no longer held.
        p.delete(VirtualId(1)).unwrap();
        p.put(VirtualId(1), Bytes::from_static(b"v3")).unwrap();
        assert_eq!(overwrites(&p), 1);
    }

    #[test]
    fn a_read_repair_over_at_rest_damage_is_no_overwrite() {
        use crate::fault::FaultPlan;
        let p = std::sync::Arc::new(provider());
        let acked = Bytes::from(vec![7u8; 64]);
        p.put(VirtualId(1), acked.clone()).unwrap();
        FaultPlan::new(3)
            .corrupt(0, FaultMode::BitFlip, 1.0)
            .try_arm(std::slice::from_ref(&p))
            .unwrap();
        assert_ne!(p.get(VirtualId(1)).unwrap(), acked, "rotted at rest");
        p.clear_fault();
        p.put(VirtualId(1), acked.clone()).unwrap();
        assert_eq!(overwrites(&p), 0, "the acked bytes, re-uploaded");
        // The same through the test hook, then a genuinely new payload.
        p.corrupt_at_rest(VirtualId(1), Bytes::from_static(b"junk"))
            .unwrap();
        p.put(VirtualId(1), Bytes::from_static(b"new")).unwrap();
        assert_eq!(overwrites(&p), 1);
    }

    #[test]
    fn outage_rejects_everything() {
        let p = provider();
        p.put(VirtualId(1), Bytes::from_static(b"x")).unwrap();
        p.set_online(false);
        assert!(matches!(
            p.get(VirtualId(1)),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            p.put(VirtualId(2), Bytes::from_static(b"y")),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(matches!(
            p.delete(VirtualId(1)),
            Err(StoreError::Unavailable { .. })
        ));
        assert_eq!(p.stats().rejected.load(Ordering::Relaxed), 3);
        // Recovery: data survived the outage.
        p.set_online(true);
        assert_eq!(p.get(VirtualId(1)).unwrap(), Bytes::from_static(b"x"));
    }

    #[test]
    fn observer_sees_puts_even_after_delete() {
        // A malicious employee keeps what they saw; deleting from the store
        // does not delete from the adversary's memory.
        let p = provider();
        p.put(VirtualId(9), Bytes::from_static(b"secret")).unwrap();
        p.delete(VirtualId(9)).unwrap();
        assert_eq!(p.observer().len(), 1);
        assert_eq!(p.observer().pooled_bytes(), b"secret");
    }

    #[test]
    fn accounting() {
        let p = provider();
        p.put(VirtualId(1), Bytes::from(vec![0u8; 500_000_000]))
            .unwrap();
        // 0.5 GB at CL3 ($0.08/GB-month) = $0.04
        assert!((p.monthly_cost_dollars() - 0.04).abs() < 1e-9);
        assert_eq!(p.chunk_count(), 1);
        assert_eq!(p.virtual_id_list(), vec![VirtualId(1)]);
    }

    #[test]
    fn simulated_transfer_uses_profile_latency() {
        let p = provider();
        let d = p.simulate_transfer(0);
        assert_eq!(d, Duration::from_millis(1)); // LAN base
    }

    #[test]
    fn flaky_provider_fails_probabilistically() {
        let p = provider();
        p.put(VirtualId(1), Bytes::from_static(b"x")).unwrap();
        p.try_set_flaky(0.5, 42).unwrap();
        let mut ok = 0;
        let mut fail = 0;
        for _ in 0..200 {
            match p.get(VirtualId(1)) {
                Ok(_) => ok += 1,
                Err(StoreError::Unavailable { .. }) => fail += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(ok > 50 && fail > 50, "ok={ok} fail={fail}");
        // Restore reliability.
        p.try_set_flaky(0.0, 0).unwrap();
        for _ in 0..50 {
            p.get(VirtualId(1)).unwrap();
        }
    }

    #[test]
    fn try_set_flaky_validates_probability() {
        let p = provider();
        p.put(VirtualId(1), Bytes::from_static(b"x")).unwrap();
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                p.try_set_flaky(bad, 0).unwrap_err(),
                StoreError::InvalidProbability,
                "p={bad}"
            );
        }
        // Rejected values leave the provider reliable.
        for _ in 0..50 {
            p.get(VirtualId(1)).unwrap();
        }
        // The bounds themselves are valid.
        p.try_set_flaky(1.0, 7).unwrap();
        assert!(matches!(
            p.get(VirtualId(1)),
            Err(StoreError::Unavailable { .. })
        ));
        // A rejected value does not clobber installed flakiness either.
        assert!(p.try_set_flaky(2.0, 0).is_err());
        assert!(matches!(
            p.get(VirtualId(1)),
            Err(StoreError::Unavailable { .. })
        ));
        p.try_set_flaky(0.0, 0).unwrap();
        p.get(VirtualId(1)).unwrap();
    }

    #[test]
    fn fail_after_ops_dies_mid_stream() {
        let p = provider();
        for i in 0..5u64 {
            p.put(VirtualId(i), Bytes::from_static(b"x")).unwrap();
        }
        p.fail_after_ops(3);
        assert!(p.get(VirtualId(0)).is_ok());
        assert!(p.get(VirtualId(1)).is_ok());
        assert!(p.get(VirtualId(2)).is_ok());
        // The fourth op hits the scripted outage — and the switch sticks.
        assert!(matches!(
            p.get(VirtualId(3)),
            Err(StoreError::Unavailable { .. })
        ));
        assert!(!p.is_online());
        assert!(p.get(VirtualId(4)).is_err());
        // Recovery clears the script.
        p.set_online(true);
        assert!(p.get(VirtualId(4)).is_ok());
        assert!(p.get(VirtualId(0)).is_ok());
    }

    #[test]
    fn estimate_transfer_does_not_consume_op_seq() {
        let p = provider();
        let e1 = p.estimate_transfer(1000);
        let e2 = p.estimate_transfer(1000);
        assert_eq!(e1, e2);
        // The first *real* transfer still sees the untouched sequence.
        assert_eq!(p.simulate_transfer(1000), e1);
    }

    #[test]
    fn telemetry_records_labeled_provider_ops() {
        let p = provider();
        let tel = TelemetryHandle::enabled();
        p.set_telemetry(tel.clone());
        p.put(VirtualId(1), Bytes::from_static(b"hello")).unwrap();
        p.get(VirtualId(1)).unwrap();
        p.simulate_transfer(1024);
        p.set_online(false);
        let _ = p.get(VirtualId(1));
        let reg = tel.registry().expect("enabled handle has a registry");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("provider_ops_total", "AWS"), 2);
        assert_eq!(snap.counter("provider_puts", "AWS"), 1);
        assert_eq!(snap.counter("provider_gets", "AWS"), 1);
        assert_eq!(snap.counter("provider_rejected_total", "AWS"), 1);
        let h = snap
            .histogram("provider_op_us", "AWS")
            .expect("latency histogram recorded");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn debug_format_mentions_name() {
        let p = provider();
        let s = format!("{p:?}");
        assert!(s.contains("AWS"));
    }
}
