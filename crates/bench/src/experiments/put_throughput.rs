//! E19 — put-path throughput: 1 vs 4 transfer workers on the one pipeline.
//!
//! The put pipeline overlaps stripe encoding (misleading-byte injection +
//! RAID parity, running on the distributor's transfer pool) with the
//! provider uploads of earlier stripes. This experiment measures real
//! wall-clock time of `Session::put_file` over a multi-stripe file at both
//! pool widths on the same fleet geometry; one worker is the serial put.
//!
//! The speedup is hardware-dependent: overlap needs at least two cores
//! (the report records how many the host offers), so CI asserts on the
//! summary's *structure* (both widths complete, pool tasks were issued),
//! not on the ratio.

use super::uniform_fleet;
use crate::{fnum, render_table};
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::TelemetryHandle;
use std::time::Instant;

const FLEET: usize = 8;
const FILE_LEN: usize = 2 << 20; // 2 MiB → 256 chunks → 64 stripes
const CHUNK: usize = 8 << 10;
const TRIALS: usize = 3;

/// Pool widths compared: the serial put and the default.
const WORKERS: [usize; 2] = [1, 4];

/// One measured pool width.
#[derive(Debug, Clone)]
pub struct PutThroughputPoint {
    /// Transfer-pool worker threads the put ran with.
    pub workers: usize,
    /// Best-of-trials wall-clock milliseconds for one `put_file`.
    pub wall_ms: f64,
    /// Corresponding payload throughput in MiB/s.
    pub mib_per_s: f64,
}

fn config(workers: usize) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
        stripe_width: 4,
        raid_level: RaidLevel::Raid6,
        mislead_rate: 0.08,
        durability: fragcloud_core::DurabilityConfig::default().with_transfer_workers(workers),
        ..Default::default()
    }
}

fn measure(workers: usize, body: &[u8], tel: &TelemetryHandle) -> PutThroughputPoint {
    // Best of TRIALS fresh distributors: each put must write a fresh
    // namespace, and best-of filters scheduler noise.
    let mut best = f64::INFINITY;
    for t in 0..TRIALS {
        let d = CloudDataDistributor::try_new(uniform_fleet(FLEET), config(workers))
            .expect("valid config");
        d.set_telemetry(tel.clone());
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High)
            .expect("client");
        let session = d.session("c", "pw").expect("valid pair");
        let start = Instant::now();
        session
            .put_file("f", body, PrivacyLevel::Low, PutOptions::new())
            .expect("upload against a healthy fleet");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if ms < best {
            best = ms;
        }
        // Sanity on the first trial only: the file reads back intact.
        if t == 0 {
            let got = session.get_file("f").expect("read back");
            assert_eq!(got.data, body, "round-trip");
        }
    }
    PutThroughputPoint {
        workers,
        wall_ms: best,
        mib_per_s: (FILE_LEN as f64 / (1 << 20) as f64) / (best / 1e3),
    }
}

/// Runs both pool widths and renders the comparison.
pub fn run() -> (Vec<PutThroughputPoint>, String) {
    run_with(&TelemetryHandle::disabled())
}

/// [`run`] with telemetry on; the `experiments` binary embeds the registry
/// snapshot (pool task counts, encode/store span histograms) in
/// `BENCH_put_throughput.json`.
pub fn run_instrumented() -> (Vec<PutThroughputPoint>, String, TelemetryHandle) {
    let tel = TelemetryHandle::enabled();
    let (points, report) = run_with(&tel);
    (points, report, tel)
}

fn run_with(tel: &TelemetryHandle) -> (Vec<PutThroughputPoint>, String) {
    let body: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 131 + 7) % 251) as u8).collect();
    let points: Vec<PutThroughputPoint> =
        WORKERS.iter().map(|&w| measure(w, &body, tel)).collect();
    let ratio = points[0].wall_ms / points[1].wall_ms;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|pt| vec![pt.workers.to_string(), fnum(pt.wall_ms), fnum(pt.mib_per_s)])
        .collect();
    let mut report = format!(
        "E19 — put throughput: 1 vs 4 transfer workers on the one put pipeline\n\
         ({FLEET} providers, {} MiB file, {CHUNK}-byte chunks, RAID-6 stripes of 4,\n\
         mislead rate 0.08, best of {TRIALS} trials, {cores} host core(s))\n\n",
        FILE_LEN / (1 << 20),
    );
    report.push_str(&render_table(&["workers", "wall ms", "MiB/s"], &rows));
    report.push_str(&format!(
        "\n4-worker/1-worker speedup: {ratio:.2}x on {cores} core(s)\n\
         conclusion: the pipeline overlaps stripe encoding with earlier\n\
         stripes' uploads; the overlap needs >= 2 cores to pay off, and on a\n\
         single core (or with one worker) it degrades gracefully to\n\
         serial-equivalent work (identical provider state either way).\n"
    ));
    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_widths_complete_and_pool_is_exercised() {
        let (points, report, tel) = run_instrumented();
        assert_eq!(points.len(), 2);
        assert_eq!((points[0].workers, points[1].workers), (1, 4));
        for pt in &points {
            assert!(pt.wall_ms > 0.0, "{pt:?}");
            assert!(pt.mib_per_s > 0.0, "{pt:?}");
        }
        assert!(report.contains("E19"));
        assert!(report.contains("speedup"));
        let reg = tel.registry().expect("instrumented run is enabled");
        // Every stripe encode of every trial went through the pool.
        let stripes = (FILE_LEN / CHUNK / 4 * WORKERS.len() * TRIALS) as u64;
        assert_eq!(reg.counter_total("pool_tasks_total"), stripes);
        assert_eq!(reg.counter_total("stripe_encodes"), stripes);
        assert!(reg.histogram("stripe_store_ns", "").count() > 0);
        assert!(reg.spans_balanced());
    }
}
