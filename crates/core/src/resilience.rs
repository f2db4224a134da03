//! Degraded-mode I/O policy: retry budgets with deterministic backoff,
//! hedged-read thresholds, and scrub/repair reporting.
//!
//! The paper motivates multi-provider distribution with the April 2011 EC2
//! outage (§I) and claims "greater availability of data" (§III-B), but its
//! system design stops at *placement*. This module supplies the runtime
//! half: what the distributor does when a provider misbehaves mid-request —
//! how often it retries, how long it (virtually) waits, when a slow read is
//! hedged by racing the parity path, and how an operator walks and heals
//! the degraded stripes left behind by failures. Which provider is tried
//! first, and when one stops being tried, is [`crate::health`]'s half.
//!
//! Everything here is deterministic under a fixed seed: backoff jitter is
//! hashed from `(seed, attempt)`, not sampled from a shared RNG, and all
//! waiting is charged to the *simulated* clock (see `fragcloud_sim::net`),
//! never to wall time.

use crate::CoreError;
use fragcloud_telemetry::TelemetryHandle;
use std::time::Duration;

/// Per-operation retry budget with capped exponential backoff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per provider operation (1 = no retries).
    pub max_attempts: u32,
    /// Simulated wait before the first retry; doubles per attempt.
    pub base_backoff: Duration,
    /// Ceiling on a single backoff wait.
    pub max_backoff: Duration,
    /// Multiplicative jitter amplitude in `[0, 1)`: each wait is scaled by
    /// a deterministic factor in `[1 − jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Budget on the *total* simulated wait per operation; exceeding it
    /// surfaces as [`crate::CoreError::Timeout`]
    /// instead of further retries. `None` = bounded by attempts only.
    pub op_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(200),
            jitter: 0.25,
            op_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries (and never waits).
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter: 0.0,
            op_deadline: None,
        }
    }

    /// Check the policy's invariants; called via
    /// `DistributorConfig::validate`.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.max_attempts < 1 {
            return Err(CoreError::InvalidConfig {
                detail: "max_attempts must be >= 1".into(),
            });
        }
        if !(0.0..1.0).contains(&self.jitter) {
            return Err(CoreError::InvalidConfig {
                detail: "retry jitter must be in [0, 1)".into(),
            });
        }
        if self.max_backoff < self.base_backoff {
            return Err(CoreError::InvalidConfig {
                detail: "max_backoff must be >= base_backoff".into(),
            });
        }
        Ok(())
    }

    /// Simulated wait before retry number `attempt` (1-based: the wait
    /// after the first failure is `backoff(1, …)`). Deterministic: the
    /// jitter is hashed from `(seed, attempt)`, so a fixed distributor
    /// seed replays the exact same schedule.
    pub fn backoff(&self, attempt: u32, seed: u64) -> Duration {
        let exp =
            self.base_backoff.as_secs_f64() * 2f64.powi(attempt.saturating_sub(1).min(62) as i32);
        let capped = exp.min(self.max_backoff.as_secs_f64());
        if self.jitter == 0.0 {
            return Duration::from_secs_f64(capped);
        }
        // splitmix-style finalizer over (seed, attempt) → unit in [0, 1)
        let mut h = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 33;
        h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        h ^= h >> 33;
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + (2.0 * unit - 1.0) * self.jitter;
        Duration::from_secs_f64((capped * factor).max(0.0))
    }

    /// Run `attempt` (1-based attempt number in) under this policy's
    /// budget, charging backoff waits to the simulated clock and
    /// recording `retries_total{provider}`, `backoff_wait_us`, and
    /// `timeouts_total` into `telemetry`.
    ///
    /// This is the single retry loop shared by the distributor's
    /// provider `get`s and `put`s: the closure decides per attempt
    /// whether the failure is [`Fatal`](AttemptOutcome::Fatal) (e.g. the
    /// object is simply not there) or
    /// [`Transient`](AttemptOutcome::Transient) (worth retrying).
    /// Exceeding [`op_deadline`](Self::op_deadline) in cumulative waits
    /// surfaces as [`CoreError::Timeout`] naming `provider`; the wait
    /// that breached the deadline is *not* charged.
    pub fn execute<T>(
        &self,
        seed: u64,
        provider: &str,
        telemetry: &TelemetryHandle,
        mut attempt: impl FnMut(u32) -> AttemptOutcome<T>,
    ) -> RetryExecution<T> {
        let mut sim_time = Duration::ZERO;
        let mut waited = Duration::ZERO;
        let mut retries = 0u64;
        let mut n = 1;
        let result = loop {
            let e = match attempt(n) {
                AttemptOutcome::Success(v) => break Ok(v),
                AttemptOutcome::Fatal(e) => break Err(e),
                AttemptOutcome::Transient(e) => e,
            };
            if n >= self.max_attempts {
                break Err(e);
            }
            let pause = self.backoff(n, seed);
            waited += pause;
            if self.op_deadline.is_some_and(|deadline| waited > deadline) {
                telemetry.incr("timeouts_total");
                break Err(CoreError::Timeout {
                    provider: provider.to_string(),
                });
            }
            telemetry.add_labeled("retries_total", provider, 1);
            telemetry.observe(
                "backoff_wait_us",
                pause.as_micros().min(u128::from(u64::MAX)) as u64,
            );
            sim_time += pause;
            retries += 1;
            n += 1;
        };
        RetryExecution {
            result,
            sim_time,
            retries,
        }
    }
}

/// What a single attempt inside [`RetryPolicy::execute`] produced.
#[derive(Debug)]
pub enum AttemptOutcome<T> {
    /// The attempt succeeded; stop and return the value.
    Success(T),
    /// The attempt failed in a way more attempts cannot fix (e.g. the
    /// object does not exist); stop and return the error.
    Fatal(CoreError),
    /// The attempt failed transiently (provider offline, throttled);
    /// retry if the budget allows.
    Transient(CoreError),
}

/// Aggregate outcome of a [`RetryPolicy::execute`] run.
#[derive(Debug)]
pub struct RetryExecution<T> {
    /// Final result: the first success, the first fatal error, the last
    /// transient error, or [`CoreError::Timeout`].
    pub result: crate::Result<T>,
    /// Simulated time charged to backoff waits.
    pub sim_time: Duration,
    /// Retries performed (0 = first attempt settled it).
    pub retries: u64,
}

/// Degraded-mode knobs for the distributor's I/O engine. Which provider
/// is tried first is not one of them: that is [`crate::health`]'s ordering
/// key, with nothing to tune.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResilienceConfig {
    /// Retry budget applied to every provider `get`/`put` the engine issues.
    pub retry: RetryPolicy,
    /// Hedged reads: when the primary's *estimated* transfer time exceeds
    /// this threshold and the stripe's parity path is predicted to be
    /// faster, the read races the reconstruction against the straggler and
    /// the simulated clock is charged the winner. `None` disables hedging.
    pub hedge_threshold: Option<Duration>,
}

impl ResilienceConfig {
    /// Check the configuration's invariants.
    pub fn validate(&self) -> Result<(), CoreError> {
        self.retry.validate()
    }
}

/// Findings of a [`scrub`](crate::CloudDataDistributor::scrub) pass over
/// the stripe list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Stripes examined (fully removed stripes are skipped).
    pub stripes_checked: usize,
    /// Stripe ids with at least one lost shard, still within the level's
    /// fault tolerance (readable, but one failure closer to data loss).
    pub degraded: Vec<usize>,
    /// Stripe ids with more shards lost than the level tolerates.
    pub unreadable: Vec<usize>,
    /// Total primary shard objects found missing or unreachable.
    pub missing_shards: usize,
    /// Shard objects that were present but failed integrity verification
    /// (bit-rot at rest, truncation, or a wrong-object swap). Only
    /// populated by [`scrub_verify`](crate::CloudDataDistributor::scrub_verify),
    /// which reads shard payloads; the cheap existence-only
    /// [`scrub`](crate::CloudDataDistributor::scrub) leaves it 0.
    pub corrupt_shards: usize,
}

impl ScrubReport {
    /// Whether every stripe had all its shards where the tables said.
    pub fn is_healthy(&self) -> bool {
        self.degraded.is_empty() && self.unreadable.is_empty() && self.corrupt_shards == 0
    }
}

/// Outcome of a [`try_repair`](crate::CloudDataDistributor::try_repair) pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairReport {
    /// Stripes restored to full health.
    pub stripes_repaired: usize,
    /// Individual shards re-encoded and re-placed.
    pub shards_rebuilt: usize,
    /// Stripe ids that could not be fully repaired (beyond fault tolerance,
    /// or no eligible provider to host the rebuilt shard).
    pub failed: Vec<usize>,
    /// Simulated time of the repair traffic (peer reads + shard writes).
    pub sim_time: Duration,
}

impl RepairReport {
    /// Whether the pass left no stripe behind.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..Default::default()
        };
        let b1 = p.backoff(1, 0);
        let b2 = p.backoff(2, 0);
        let b3 = p.backoff(3, 0);
        assert_eq!(b1, Duration::from_millis(2));
        assert_eq!(b2, Duration::from_millis(4));
        assert_eq!(b3, Duration::from_millis(8));
        // Far-out attempts hit the cap.
        assert_eq!(p.backoff(30, 0), Duration::from_millis(200));
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=6 {
            for seed in [0u64, 1, 0xDEAD_BEEF] {
                let a = p.backoff(attempt, seed);
                let b = p.backoff(attempt, seed);
                assert_eq!(a, b, "same (attempt, seed) must agree");
                let nominal = RetryPolicy { jitter: 0.0, ..p }
                    .backoff(attempt, seed)
                    .as_secs_f64();
                let ratio = a.as_secs_f64() / nominal;
                assert!(
                    (1.0 - p.jitter - 1e-9..=1.0 + p.jitter + 1e-9).contains(&ratio),
                    "attempt={attempt} seed={seed} ratio={ratio}"
                );
            }
        }
        // Different seeds decorrelate.
        assert_ne!(p.backoff(1, 1), p.backoff(1, 2));
    }

    #[test]
    fn none_policy_is_a_single_attempt() {
        let p = RetryPolicy::none();
        p.validate().expect("none() is valid");
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff(1, 7), Duration::ZERO);
    }

    #[test]
    fn invalid_policies_return_named_errors() {
        let err = RetryPolicy {
            max_attempts: 0,
            ..Default::default()
        }
        .validate()
        .expect_err("zero attempts");
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("max_attempts"))
        );

        let err = RetryPolicy {
            jitter: 1.0,
            ..Default::default()
        }
        .validate()
        .expect_err("full jitter");
        assert!(matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("jitter")));

        let err = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(5),
            ..Default::default()
        }
        .validate()
        .expect_err("inverted bounds");
        assert!(
            matches!(&err, CoreError::InvalidConfig { detail } if detail.contains("max_backoff"))
        );
    }

    #[test]
    fn execute_retries_transient_and_stops_on_fatal() {
        use fragcloud_telemetry::TelemetryHandle;
        let p = RetryPolicy {
            jitter: 0.0,
            ..Default::default()
        };
        let tel = TelemetryHandle::enabled();

        // Succeeds on the third (final) attempt: two retries charged.
        let mut calls = 0;
        let run = p.execute(0, "cp0", &tel, |n| {
            calls += 1;
            if n < 3 {
                AttemptOutcome::Transient(CoreError::AccessDenied)
            } else {
                AttemptOutcome::Success(n)
            }
        });
        assert_eq!(run.result.as_ref().copied().unwrap(), 3);
        assert_eq!((calls, run.retries), (3, 2));
        assert_eq!(run.sim_time, Duration::from_millis(2 + 4));

        // Fatal on attempt one: no retries, no waits.
        let run = p.execute(0, "cp0", &tel, |_| {
            AttemptOutcome::Fatal::<u32>(CoreError::AccessDenied)
        });
        assert!(run.result.is_err());
        assert_eq!((run.retries, run.sim_time), (0, Duration::ZERO));

        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter_value("retries_total", "cp0"), 2);
        assert_eq!(reg.histogram("backoff_wait_us", "").count(), 2);
    }

    #[test]
    fn execute_deadline_surfaces_timeout() {
        use fragcloud_telemetry::TelemetryHandle;
        let p = RetryPolicy {
            max_attempts: 10,
            jitter: 0.0,
            op_deadline: Some(Duration::from_millis(5)),
            ..Default::default()
        };
        let tel = TelemetryHandle::enabled();
        let run = p.execute(0, "slowpoke", &tel, |_| {
            AttemptOutcome::Transient::<()>(CoreError::AccessDenied)
        });
        // Waits are 2ms, 4ms… — cumulative 6ms breaches the 5ms deadline
        // on the second pause, which must not itself be charged.
        assert!(matches!(
            run.result,
            Err(CoreError::Timeout { ref provider }) if provider == "slowpoke"
        ));
        assert_eq!(run.retries, 1);
        assert_eq!(run.sim_time, Duration::from_millis(2));
        assert_eq!(tel.registry().unwrap().counter_total("timeouts_total"), 1);
    }

    #[test]
    fn reports_summarize_health() {
        let healthy = ScrubReport {
            stripes_checked: 4,
            ..Default::default()
        };
        assert!(healthy.is_healthy());
        let sick = ScrubReport {
            stripes_checked: 4,
            degraded: vec![2],
            unreadable: vec![],
            missing_shards: 1,
            corrupt_shards: 0,
        };
        assert!(!sick.is_healthy());
        let rotted = ScrubReport {
            stripes_checked: 4,
            corrupt_shards: 1,
            ..Default::default()
        };
        assert!(!rotted.is_healthy());
        assert!(RepairReport::default().is_complete());
        assert!(!RepairReport {
            failed: vec![1],
            ..Default::default()
        }
        .is_complete());
    }

    #[test]
    fn default_resilience_validates() {
        ResilienceConfig::default()
            .validate()
            .expect("defaults are valid");
    }
}
