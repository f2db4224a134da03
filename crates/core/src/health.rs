//! Per-provider health: the one place a provider's observed behaviour is
//! scored.
//!
//! The paper grades providers by *declared* trust (privacy level) and
//! price; this module grades them by what they did. Every provider
//! operation the distributor issues is recorded here once, into an EWMA
//! failure score — weighted so a detected corruption (a Byzantine act)
//! counts more than a plain error — and the score drives a three-state
//! circuit breaker:
//!
//! ```text
//!            score > TRIP_THRESHOLD
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ PROBE_AFTER_OPS sheds
//!     │ score ≤ RECOVER_THRESHOLD       ▼
//!     └────────────────────────────  HalfOpen
//!                (probe succeeds)       │ probe fails (score trips again)
//!                                       └──────▶ Open
//! ```
//!
//! - **Closed**: healthy — placement ignores the score; where several
//!   providers could serve (read candidates, degraded-write alternates,
//!   repair targets) the lower score goes first.
//! - **Open**: quarantined — placement sheds it when enough other
//!   providers remain, and every ordering puts it last (it is *never*
//!   skipped outright for reads: a suspect provider still beats a
//!   reconstruction that cannot find `k` shards).
//! - **HalfOpen**: one probe operation is allowed through; a success
//!   recovers the provider, another failure re-opens the breaker.
//!
//! [`HealthTracker::penalty`] folds state and score into the single key
//! those orderings sort by. The four thresholds are constants: no caller
//! ever set them to anything else. What is scored is errors, timeouts and
//! corruption; a provider that answers correctly but slowly is not.
//!
//! Everything is counted in *operations*, never wall-clock time, so runs
//! stay deterministic under the simulated clock.
//!
//! [`lifetime_score`] and [`earned_level`] are the paper's operator-side
//! audit — does a provider still deserve its declared level? — as pure
//! functions of the providers' own lifetime counters.

use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::TelemetryHandle;
use parking_lot::Mutex;

/// EWMA smoothing factor: the weight of the newest observation. Two
/// corruptions in a row (0.3, then 0.51) trip a clean provider; plain
/// errors (0.6 each) take six.
pub const EWMA_ALPHA: f64 = 0.3;
/// Failure score above which a Closed (or probing HalfOpen) breaker
/// opens. A Closed provider's score therefore never exceeds it.
pub const TRIP_THRESHOLD: f64 = 0.5;
/// Operations shed while Open before the breaker moves to HalfOpen and
/// lets one probe through.
pub const PROBE_AFTER_OPS: u64 = 16;
/// Failure score at or below which a non-Closed breaker closes again.
pub const RECOVER_THRESHOLD: f64 = 0.1;

// What the breaker's hysteresis and `penalty`'s tiers rely on.
const _: () = assert!(EWMA_ALPHA > 0.0 && EWMA_ALPHA <= 1.0 && PROBE_AFTER_OPS >= 1);
const _: () = assert!(0.0 <= RECOVER_THRESHOLD && RECOVER_THRESHOLD < TRIP_THRESHOLD);
const _: () = assert!(TRIP_THRESHOLD < 1.0);

/// Position of one provider's circuit breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow normally.
    Closed,
    /// Quarantined: placement sheds this provider, reads deprioritize it.
    Open,
    /// Probing: one operation is allowed through to test recovery.
    HalfOpen,
}

impl BreakerState {
    fn label(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// How a provider operation failed, ordered by how strongly it indicts the
/// provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The provider returned bytes that failed integrity verification —
    /// Byzantine behavior, the strongest possible signal.
    Corruption,
    /// The operation breached its deadline.
    Timeout,
    /// The provider returned an error (offline, flaky, missing object on
    /// a path where it was expected).
    Error,
}

impl FailureKind {
    fn weight(self) -> f64 {
        match self {
            FailureKind::Corruption => 1.0,
            FailureKind::Timeout => 1.0,
            FailureKind::Error => 0.6,
        }
    }
}

#[derive(Debug)]
struct ProviderHealth {
    /// EWMA of failure weights in `[0, 1]`; 0 = flawless.
    score: f64,
    state: BreakerState,
    /// Operations shed since the breaker opened (resets on transitions).
    sheds: u64,
}

/// EWMA health scores and circuit breakers for a provider fleet, indexed
/// by the distributor's provider index. The only place a provider's
/// observed behaviour is scored.
///
/// Interior-mutable (per-provider mutexes) so the distributor can feed it
/// from concurrent transfer-pool workers without serializing reads. An
/// index the tracker does not know reads as a clean Closed provider and
/// records nothing, so callers never have to range-check.
#[derive(Debug)]
pub struct HealthTracker {
    cells: Vec<Mutex<ProviderHealth>>,
}

impl HealthTracker {
    /// A tracker for `fleet` providers, all starting Closed with score 0.
    pub fn new(fleet: usize) -> Self {
        let fresh = || ProviderHealth {
            score: 0.0,
            state: BreakerState::Closed,
            sheds: 0,
        };
        HealthTracker {
            cells: (0..fleet).map(|_| Mutex::new(fresh())).collect(),
        }
    }

    /// Current breaker state for provider `idx`.
    pub fn state(&self, idx: usize) -> BreakerState {
        match self.cells.get(idx) {
            Some(p) => p.lock().state,
            None => BreakerState::Closed,
        }
    }

    /// Current EWMA failure score for provider `idx`.
    pub fn score(&self, idx: usize) -> f64 {
        match self.cells.get(idx) {
            Some(p) => p.lock().score,
            None => 0.0,
        }
    }

    /// Records a successful operation against provider `idx`: the score
    /// decays toward 0, and a non-Closed breaker whose score falls to
    /// [`RECOVER_THRESHOLD`] closes (a HalfOpen probe succeeding is the
    /// canonical path here).
    pub fn record_success(&self, idx: usize, tel: &TelemetryHandle) {
        let Some(cell) = self.cells.get(idx) else {
            return;
        };
        let mut p = cell.lock();
        p.score *= 1.0 - EWMA_ALPHA;
        if p.state != BreakerState::Closed && p.score <= RECOVER_THRESHOLD {
            Self::transition(&mut p, BreakerState::Closed, tel);
        }
    }

    /// Records a failed operation against provider `idx`, weighted by
    /// `kind`. A Closed (or probing HalfOpen) breaker whose score crosses
    /// [`TRIP_THRESHOLD`] opens.
    pub fn record_failure(&self, idx: usize, kind: FailureKind, tel: &TelemetryHandle) {
        let Some(cell) = self.cells.get(idx) else {
            return;
        };
        let mut p = cell.lock();
        p.score = (1.0 - EWMA_ALPHA) * p.score + EWMA_ALPHA * kind.weight();
        if p.state != BreakerState::Open && p.score > TRIP_THRESHOLD {
            Self::transition(&mut p, BreakerState::Open, tel);
        }
    }

    /// Consulted by *placement* before writing to provider `idx`: `true`
    /// means the breaker is Open and this operation should go elsewhere.
    /// Every shed is counted; after [`PROBE_AFTER_OPS`] sheds the breaker
    /// moves to HalfOpen and the next operation is let through as a probe.
    pub fn should_shed(&self, idx: usize, tel: &TelemetryHandle) -> bool {
        let Some(cell) = self.cells.get(idx) else {
            return false;
        };
        let mut p = cell.lock();
        if p.state != BreakerState::Open {
            return false;
        }
        if p.sheds >= PROBE_AFTER_OPS {
            Self::transition(&mut p, BreakerState::HalfOpen, tel);
            return false;
        }
        p.sheds += 1;
        tel.incr("breaker_shed_total");
        true
    }

    /// The one ordering key over observed behaviour, lower is better:
    /// the score for Closed, `1 + score` for HalfOpen, `2 + score` for
    /// Open. A Closed score is at most [`TRIP_THRESHOLD`], so the tiers
    /// never overlap, and a provider that has never failed keys 0 however
    /// many operations it has served — ties fall to the caller's next
    /// key, not to the busiest provider. Sorting by it pushes quarantined
    /// providers to the back *without ever removing them*: a read must
    /// still be able to fall through to an Open provider when it holds
    /// the only copy.
    pub fn penalty(&self, idx: usize) -> f64 {
        let Some(cell) = self.cells.get(idx) else {
            return 0.0;
        };
        let p = cell.lock();
        match p.state {
            BreakerState::Closed => p.score,
            BreakerState::HalfOpen => 1.0 + p.score,
            BreakerState::Open => 2.0 + p.score,
        }
    }

    /// Indexes whose breaker is currently Open (quarantined).
    pub fn open_providers(&self) -> Vec<usize> {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, p)| p.lock().state == BreakerState::Open)
            .map(|(i, _)| i)
            .collect()
    }

    fn transition(p: &mut ProviderHealth, to: BreakerState, tel: &TelemetryHandle) {
        p.state = to;
        p.sheds = 0;
        tel.add_labeled("breaker_transitions_total", to.label(), 1);
    }
}

/// The paper's reliability grade (§IV-A: "the reliability of a cloud
/// provider is defined in terms of its reputation") from a provider's
/// lifetime `ok` / `bad` operation counts: the mean of a Beta(3, 1)
/// prior updated with them, 0.75 for a provider that has served nothing.
pub fn lifetime_score(ok: u64, bad: u64) -> f64 {
    let (ok, bad) = (ok as f64, bad as f64);
    (3.0 + ok) / (4.0 + ok + bad)
}

/// The privacy level a [`lifetime_score`] earns: ≥ 0.95 → PL3,
/// ≥ 0.85 → PL2, ≥ 0.70 → PL1, else PL0.
pub fn earned_level(score: f64) -> PrivacyLevel {
    if score >= 0.95 {
        PrivacyLevel::High
    } else if score >= 0.85 {
        PrivacyLevel::Moderate
    } else if score >= 0.70 {
        PrivacyLevel::Low
    } else {
        PrivacyLevel::Public
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker() -> (HealthTracker, TelemetryHandle) {
        (HealthTracker::new(3), TelemetryHandle::enabled())
    }

    fn trip(t: &HealthTracker, idx: usize, tel: &TelemetryHandle) {
        t.record_failure(idx, FailureKind::Corruption, tel);
        t.record_failure(idx, FailureKind::Corruption, tel);
        assert_eq!(t.state(idx), BreakerState::Open);
    }

    #[test]
    fn defaults_validate_and_start_closed() {
        let (t, tel) = tracker();
        for idx in 0..3 {
            assert_eq!(t.state(idx), BreakerState::Closed);
            assert_eq!(t.score(idx), 0.0);
            assert_eq!(t.penalty(idx), 0.0);
        }
        // Out-of-range indexes read as healthy and record nothing rather
        // than panicking.
        t.record_failure(99, FailureKind::Corruption, &tel);
        t.record_success(99, &tel);
        assert!(!t.should_shed(99, &tel));
        assert_eq!(t.state(99), BreakerState::Closed);
        assert_eq!(t.penalty(99), 0.0);
    }

    #[test]
    fn corruption_trips_faster_than_slowness() {
        let (t, tel) = tracker();
        // Two corruptions: 0.3, then 0.51 > 0.5 → Open.
        t.record_failure(0, FailureKind::Corruption, &tel);
        assert_eq!(t.state(0), BreakerState::Closed);
        t.record_failure(0, FailureKind::Corruption, &tel);
        assert_eq!(t.state(0), BreakerState::Open);
        // Plain errors (0.6 each) need six: 0.18, 0.306, … 0.499, 0.529.
        for _ in 0..5 {
            t.record_failure(1, FailureKind::Error, &tel);
        }
        assert_eq!(t.state(1), BreakerState::Closed);
        assert!(t.score(1) <= TRIP_THRESHOLD);
        t.record_failure(1, FailureKind::Error, &tel);
        assert_eq!(t.state(1), BreakerState::Open);
        assert_eq!(
            tel.registry()
                .unwrap()
                .counter_value("breaker_transitions_total", "open"),
            2
        );
    }

    #[test]
    fn penalty_is_a_total_order_over_tiers() {
        let (t, tel) = tracker();
        // A Closed provider with failures on record keys its score: behind
        // a clean one, ahead of any quarantined one — and successes never
        // push a clean provider below 0.
        t.record_failure(0, FailureKind::Error, &tel);
        for _ in 0..200 {
            t.record_success(1, &tel);
        }
        trip(&t, 2, &tel);
        assert_eq!(t.penalty(1), 0.0);
        assert_eq!(t.penalty(0), t.score(0));
        assert!(t.penalty(1) < t.penalty(0) && t.penalty(0) <= TRIP_THRESHOLD);
        assert!(t.penalty(2) > 2.0);
    }

    #[test]
    fn shed_then_probe_then_recover() {
        let (t, tel) = tracker();
        trip(&t, 0, &tel);
        assert!(t.penalty(0) > 2.0);

        // PROBE_AFTER_OPS sheds while Open, then the breaker half-opens
        // and lets a probe through.
        for _ in 0..PROBE_AFTER_OPS {
            assert!(t.should_shed(0, &tel));
        }
        assert!(!t.should_shed(0, &tel));
        assert_eq!(t.state(0), BreakerState::HalfOpen);
        assert!(t.penalty(0) > 1.0 && t.penalty(0) < 2.0);
        assert!(!t.should_shed(0, &tel), "HalfOpen does not shed");

        // Successful probes decay the score to RECOVER_THRESHOLD → Closed.
        while t.state(0) != BreakerState::Closed {
            t.record_success(0, &tel);
        }
        assert!(t.penalty(0) <= RECOVER_THRESHOLD);
        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter_total("breaker_shed_total"), PROBE_AFTER_OPS);
        assert_eq!(
            reg.counter_value("breaker_transitions_total", "half_open"),
            1
        );
        assert_eq!(reg.counter_value("breaker_transitions_total", "closed"), 1);
    }

    #[test]
    fn failed_probe_reopens() {
        let (t, tel) = tracker();
        trip(&t, 2, &tel);
        while t.should_shed(2, &tel) {}
        assert_eq!(t.state(2), BreakerState::HalfOpen);
        // The probe comes back corrupt: straight back to Open.
        t.record_failure(2, FailureKind::Corruption, &tel);
        assert_eq!(t.state(2), BreakerState::Open);
        assert_eq!(t.open_providers(), vec![2]);
    }

    #[test]
    fn success_decays_score() {
        let (t, tel) = tracker();
        t.record_failure(1, FailureKind::Error, &tel);
        let before = t.score(1);
        t.record_success(1, &tel);
        assert!(t.score(1) < before);
    }

    /// The closed form against what the deleted decay-free Beta tracker
    /// returned after `ok` successes and `bad` failures (values computed
    /// once from `(3 + ok) / (4 + ok + bad)`), with each level threshold
    /// approached from both sides.
    #[test]
    fn lifetime_score_and_earned_level_match_the_beta_posterior() {
        use PrivacyLevel::*;
        let table: [(u64, u64, f64, PrivacyLevel); 10] = [
            (0, 0, 0.75, Low),                       // the prior mean
            (16, 0, 0.95, High),                     // 19/20: exactly on PL3
            (15, 0, 18.0 / 19.0, Moderate),          // 0.947…: just under PL3
            (14, 2, 0.85, Moderate),                 // 17/20: exactly on PL2
            (13, 3, 0.80, Low),                      // 16/20: under PL2
            (11, 6, 14.0 / 21.0, Public),            // 0.667: under PL1
            (11, 5, 0.70, Low),                      // 14/20: exactly on PL1
            (10, 6, 0.65, Public),                   // 13/20: under PL1
            (0, 50, 3.0 / 54.0, Public),             // only failures
            (20_000, 30, 20_003.0 / 20_034.0, High), // past the old replay cap
        ];
        for (ok, bad, score, level) in table {
            let got = lifetime_score(ok, bad);
            assert!(
                (got - score).abs() < 1e-12,
                "({ok}, {bad}): {got} vs {score}"
            );
            assert_eq!(earned_level(got), level, "({ok}, {bad}) scores {got}");
        }
    }
}
