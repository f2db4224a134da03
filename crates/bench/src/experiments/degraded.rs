//! E18 — degraded-mode engine: whole-file availability vs provider
//! failure rate, driven end-to-end through the resilient read path
//! (retry → replica → parity reconstruction) and the `try_repair()` loop.
//!
//! Unlike E9's closed-form stripe geometry, this experiment exercises the
//! real engine: a 16-provider fleet, files uploaded through a
//! [`Session`](fragcloud_core::Session), a seeded coin deciding which
//! providers die, and then actual reads and repairs against the survivors.

use super::uniform_fleet;
use crate::{fnum, render_table};
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::CloudDataDistributor;
use fragcloud_raid::RaidLevel;
use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::slo::SloSpec;
use fragcloud_telemetry::{RollingHistogram, TelemetryHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

const FLEET: usize = 16;
const TRIALS: usize = 40;
const FILE_LEN: usize = 40_000;
/// Trials per rolling window: each failure-rate sweep point (its
/// `TRIALS` paired trials across the three RAID levels) is one window,
/// so the windowed table reads as percentiles *per failure rate*.
const WINDOW_TRIALS: u64 = (TRIALS * 3) as u64;

/// One sweep point: measured availabilities at a provider failure rate.
#[derive(Debug, Clone)]
pub struct DegradedPoint {
    /// Probability that each provider has died by read time.
    pub failure_rate: f64,
    /// Unstriped (no parity) whole-file read success fraction.
    pub unstriped: f64,
    /// RAID-5 read success fraction.
    pub raid5: f64,
    /// RAID-6 read success fraction.
    pub raid6: f64,
    /// Fraction of RAID-5 trials in which `try_repair()` restored every
    /// degraded stripe onto the surviving providers.
    pub raid5_repaired: f64,
}

fn trial(level: RaidLevel, dead: &[bool], tel: &TelemetryHandle) -> (bool, bool, Option<Duration>) {
    let fleet = uniform_fleet(FLEET);
    let d = CloudDataDistributor::new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    );
    d.set_telemetry(tel.clone());
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High)
        .expect("client");
    let session = d.session("c", "pw").expect("valid pair");
    let data: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 37) % 251) as u8).collect();
    session
        .put_file("f", &data, PrivacyLevel::Low, Default::default())
        .expect("upload against a healthy fleet");

    for (p, &down) in fleet.iter().zip(dead) {
        if down {
            p.set_online(false);
        }
    }
    let read = session
        .get_file("f")
        .ok()
        .filter(|r| r.data == data)
        .map(|r| r.sim_time);
    let repaired = {
        d.try_repair().expect("no crash plan armed");
        d.scrub().is_healthy()
    };
    (read.is_some(), repaired, read)
}

/// Runs the failure-rate sweep (deterministic under the fixed seed).
pub fn run() -> (Vec<DegradedPoint>, String) {
    run_with(&TelemetryHandle::disabled())
}

/// [`run`] with telemetry on: every trial distributor reports into one
/// shared registry, which the returned handle exposes — the `experiments`
/// binary embeds its snapshot in `BENCH_degraded.json`.
pub fn run_instrumented() -> (Vec<DegradedPoint>, String, TelemetryHandle) {
    let tel = TelemetryHandle::enabled();
    let (points, report) = run_with(&tel);
    (points, report, tel)
}

fn run_with(tel: &TelemetryHandle) -> (Vec<DegradedPoint>, String) {
    let rates = [0.05, 0.10, 0.20, 0.30];
    // Simulated whole-file read latency, windowed per sweep point: the
    // trial ordinal is the window tick, so each failure rate is exactly
    // one window and the table below shows how the latency distribution
    // shifts as more of the fleet dies.
    let read_windows = RollingHistogram::new(rates.len(), WINDOW_TRIALS);
    let mut points = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        let mut ok = [0usize; 3]; // unstriped / raid5 / raid6
        let mut repaired5 = 0usize;
        for t in 0..TRIALS {
            // The same outage sample is replayed against every geometry,
            // so the comparison between levels is paired.
            let mut rng = StdRng::seed_from_u64(0xDE6 + (ri * TRIALS + t) as u64);
            let dead: Vec<bool> = (0..FLEET).map(|_| rng.gen_bool(rate)).collect();
            for (li, level) in [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6]
                .into_iter()
                .enumerate()
            {
                let (readable, repaired, sim_time) = trial(level, &dead, tel);
                if readable {
                    ok[li] += 1;
                }
                if let Some(d) = sim_time {
                    let tick = (ri * TRIALS + t) as u64 * 3 + li as u64;
                    read_windows.record_at(tick, d.as_micros().min(u128::from(u64::MAX)) as u64);
                }
                if li == 1 && repaired {
                    repaired5 += 1;
                }
            }
        }
        points.push(DegradedPoint {
            failure_rate: rate,
            unstriped: ok[0] as f64 / TRIALS as f64,
            raid5: ok[1] as f64 / TRIALS as f64,
            raid6: ok[2] as f64 / TRIALS as f64,
            raid5_repaired: repaired5 as f64 / TRIALS as f64,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| {
            vec![
                format!("{:.2}", pt.failure_rate),
                fnum(pt.unstriped),
                fnum(pt.raid5),
                fnum(pt.raid6),
                fnum(pt.raid5_repaired),
            ]
        })
        .collect();
    let mut report = String::from(
        "E18 — degraded-mode engine: availability vs provider failure rate\n\
         (16 providers, 40 paired trials/point, reads through the resilient\n\
         retry + parity-reconstruction path; repair() re-homes lost shards)\n\n",
    );
    report.push_str(&render_table(
        &["fail rate", "unstriped", "raid5", "raid6", "raid5 repaired"],
        &rows,
    ));

    // Percentiles over time: one rolling window per sweep point.
    let windowed = read_windows.snapshot();
    let window_rows: Vec<Vec<String>> = windowed
        .windows
        .iter()
        .map(|w| {
            let rate = rates
                .get((w.start_tick / windowed.window_ticks) as usize)
                .copied()
                .unwrap_or(0.0);
            let p = w.histogram.percentiles();
            vec![
                format!("{rate:.2}"),
                w.histogram.count().to_string(),
                p.p50.to_string(),
                p.p90.to_string(),
                p.p99.to_string(),
                w.histogram.max_observed().to_string(),
            ]
        })
        .collect();
    report.push_str(
        "\nsuccessful whole-file read latency per failure-rate window\n\
         (interpolated percentiles of simulated read time, us)\n\n",
    );
    report.push_str(&render_table(
        &["fail rate", "reads", "p50", "p90", "p99", "max"],
        &window_rows,
    ));
    report.push_str(
        "\nconclusion: the degraded read path keeps striped files readable far\n\
         past the failure rates that sink unstriped placement, and repair()\n\
         restores full-stripe health on the survivors in nearly every trial\n\
         where the stripe was still decodable; the windowed percentiles show\n\
         the surviving reads paying a bounded latency premium as the failure\n\
         rate climbs (retries and parity reconstruction on the tail).\n",
    );
    (points, report)
}

/// E18's SLO gates, evaluated by the `experiments` binary against the
/// instrumented run's registry. The distributor's `*_sim_us` histograms
/// are *simulated* time — deterministic under the fixed seed — so these
/// bounds are tight without being flaky: they move only when placement,
/// retry, or reconstruction behavior changes.
pub fn slos() -> Vec<SloSpec> {
    vec![
        SloSpec::p99_max("degraded_get_sim_p99_us", "get_sim_us", "", 150_000),
        SloSpec::p99_max("degraded_put_sim_p99_us", "put_sim_us", "", 20_000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_dominates_and_runs_deterministically() {
        let (points, report) = run();
        assert_eq!(points.len(), 4);
        for pt in &points {
            // Paired trials: parity can only help.
            assert!(pt.raid5 + 1e-9 >= pt.unstriped, "{pt:?}");
            assert!(pt.raid6 + 1e-9 >= pt.raid5, "{pt:?}");
        }
        // Low failure rates must be near-perfect for RAID-6.
        assert!(points[0].raid6 >= 0.95, "{:?}", points[0]);
        // Deterministic under the fixed seed — and telemetry is an
        // observer, not a participant: the instrumented run must land on
        // identical numbers.
        let (again, _, tel) = run_instrumented();
        for (a, b) in points.iter().zip(&again) {
            assert_eq!(a.raid5, b.raid5);
            assert_eq!(a.raid6, b.raid6);
            assert_eq!(a.raid5_repaired, b.raid5_repaired);
        }
        assert!(report.contains("E18"));
        assert!(
            report.contains("per failure-rate window"),
            "windowed percentile table missing:\n{report}"
        );
        let reg = tel.registry().expect("instrumented run is enabled");
        assert!(reg.counter_total("puts_total") > 0);
        assert!(reg.counter_total("parity_reconstructions") > 0);
        assert!(reg.counter_total("repairs_total") > 0);
        assert!(reg.spans_balanced());
        // The declared SLOs hold on the deterministic simulated-time
        // histograms (the same evaluation the binary turns into its exit
        // code).
        let outcomes = fragcloud_telemetry::slo::evaluate(&slos(), &reg.snapshot());
        assert!(
            fragcloud_telemetry::slo::all_pass(&outcomes),
            "{}",
            fragcloud_telemetry::slo::render(&outcomes)
        );
    }
}
