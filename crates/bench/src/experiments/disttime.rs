//! E4 — prototype performance: distribution and retrieval time.
//!
//! The paper "monitored its performance (Distribution time)" on a LAN of
//! lab PCs. We sweep file size × provider count × RAID level and report
//! both wall-clock CPU time (the distributor's own work) and simulated
//! network time from the latency model, plus the multi-distributor variant.

use super::uniform_fleet;
use crate::render_table;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::multi::DistributorGroup;
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_workloads::files;
use std::sync::Arc;
use std::time::Instant;

/// One sweep measurement.
#[derive(Debug, Clone)]
pub struct DistTimePoint {
    /// File size in bytes.
    pub size: usize,
    /// Provider count.
    pub providers: usize,
    /// RAID level.
    pub raid: RaidLevel,
    /// Wall-clock microseconds for `put_file`.
    pub put_wall_us: u128,
    /// Simulated network time (µs) for the distribution.
    pub put_sim_us: u128,
    /// Wall-clock microseconds for `get_file`.
    pub get_wall_us: u128,
    /// Simulated network time (µs) for retrieval.
    pub get_sim_us: u128,
    /// Storage overhead factor (stored bytes / file bytes).
    pub overhead: f64,
}

/// Runs the sweep.
pub fn run() -> (Vec<DistTimePoint>, String) {
    let sizes = [64 << 10, 256 << 10, 1 << 20, 4 << 20];
    let provider_counts = [4usize, 8, 16];
    let levels = [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6];
    let mut points = Vec::new();

    for &n in &provider_counts {
        for &level in &levels {
            for &size in &sizes {
                let d = CloudDataDistributor::try_new(
                    uniform_fleet(n),
                    DistributorConfig {
                        chunk_sizes: ChunkSizeSchedule::paper_default(),
                        stripe_width: (n - level.parity_shards()).min(4),
                        raid_level: level,
                        ..Default::default()
                    },
                )
                .expect("valid config");
                d.register_client("c").expect("fresh");
                d.add_password("c", "p", PrivacyLevel::High)
                    .expect("client exists");
                let body = files::random_file(size, size as u64);

                let t0 = Instant::now();
                let session = d.session("c", "p").expect("valid pair");
                let receipt = session
                    .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
                    .expect("upload");
                let put_wall_us = t0.elapsed().as_micros();

                let t1 = Instant::now();
                let got = session.get_file("f").expect("retrieve");
                let get_wall_us = t1.elapsed().as_micros();
                assert_eq!(got.data.len(), size, "roundtrip integrity");

                points.push(DistTimePoint {
                    size,
                    providers: n,
                    raid: level,
                    put_wall_us,
                    put_sim_us: receipt.sim_time.as_micros(),
                    get_wall_us,
                    get_sim_us: got.sim_time.as_micros(),
                    overhead: receipt.bytes_stored as f64 / size.max(1) as f64,
                });
            }
        }
    }

    let mut rows = Vec::new();
    for p in &points {
        rows.push(vec![
            format!("{} KiB", p.size >> 10),
            p.providers.to_string(),
            p.raid.to_string(),
            p.put_wall_us.to_string(),
            p.put_sim_us.to_string(),
            p.get_wall_us.to_string(),
            p.get_sim_us.to_string(),
            format!("{:.3}", p.overhead),
        ]);
    }
    let mut report =
        String::from("E4 — distribution/retrieval time sweep (simulated LAN providers)\n\n");
    report.push_str(&render_table(
        &[
            "file",
            "prov",
            "raid",
            "put wall(us)",
            "put sim(us)",
            "get wall(us)",
            "get sim(us)",
            "overhead",
        ],
        &rows,
    ));

    // Multi-distributor comparison at a fixed working point.
    report.push_str("\nmulti-distributor (Fig. 2) read fan-out, 1 MiB file:\n");
    let shared = Arc::new(
        CloudDataDistributor::try_new(uniform_fleet(8), DistributorConfig::default())
            .expect("valid config"),
    );
    let group = DistributorGroup::try_new(Arc::clone(&shared), 3).expect("non-empty group");
    group.register_client(0, "c").expect("fresh");
    group
        .add_password(0, "c", "p", PrivacyLevel::High)
        .expect("client exists");
    let body = files::random_file(1 << 20, 42);
    group
        .put_file(
            0,
            "c",
            "p",
            "f",
            &body,
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .expect("upload via primary");
    let mut mrows = Vec::new();
    for via in 0..3 {
        let t = Instant::now();
        let r = group
            .get_file(via, "c", "p", "f")
            .expect("read via any node");
        mrows.push(vec![
            group.node_name(via).to_string(),
            t.elapsed().as_micros().to_string(),
            r.sim_time.as_micros().to_string(),
        ]);
    }
    report.push_str(&render_table(
        &["node", "get wall(us)", "get sim(us)"],
        &mrows,
    ));

    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes_hold() {
        let (points, report) = run();
        assert_eq!(points.len(), 3 * 3 * 4);
        // Simulated time grows with file size at fixed (providers, raid).
        for n in [4usize, 8, 16] {
            for level in [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6] {
                let series: Vec<&DistTimePoint> = points
                    .iter()
                    .filter(|p| p.providers == n && p.raid == level)
                    .collect();
                for w in series.windows(2) {
                    assert!(
                        w[1].put_sim_us >= w[0].put_sim_us,
                        "sim time must grow with size"
                    );
                }
            }
        }
        // Parity adds storage overhead: raid6 > raid5 > none at same point.
        let over = |raid: RaidLevel| {
            points
                .iter()
                .find(|p| p.providers == 8 && p.raid == raid && p.size == 1 << 20)
                .map(|p| p.overhead)
                .expect("point exists")
        };
        assert!(over(RaidLevel::None) <= over(RaidLevel::Raid5));
        assert!(over(RaidLevel::Raid5) <= over(RaidLevel::Raid6));
        assert!(report.contains("distributor-2"));
    }
}
