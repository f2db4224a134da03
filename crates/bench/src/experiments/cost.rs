//! E14 — storage-cost optimization (extension experiment).
//!
//! §I: "the proposed system ensures greater availability of data and
//! optimizes cost"; §IV-B: "it is wise to make a trade off between
//! security and cost by providing regular data to cheaper providers while
//! sensitive data to secured providers."
//!
//! We upload a mixed-sensitivity corpus and compare the monthly storage
//! bill under three regimes: everything on premium providers ("paranoid"),
//! the paper's PL-aware cheapest-eligible placement, and everything on the
//! cheapest provider regardless of PL ("reckless", shown for scale only —
//! it violates the trust rule).

use super::fig3_fleet;
use crate::render_table;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud_workloads::files;
use std::sync::Arc;

/// One regime's bill.
#[derive(Debug, Clone)]
pub struct CostPoint {
    /// Regime label.
    pub regime: &'static str,
    /// Total monthly cost in dollars.
    pub monthly_dollars: f64,
    /// Whether the PL placement rule held.
    pub policy_clean: bool,
}

/// The mixed corpus: (PL, MiB) pairs — mostly public bulk, a little
/// sensitive data, which is what makes PL-aware placement pay off.
const CORPUS: [(PrivacyLevel, usize); 4] = [
    (PrivacyLevel::Public, 64),
    (PrivacyLevel::Low, 16),
    (PrivacyLevel::Moderate, 4),
    (PrivacyLevel::High, 1),
];

fn upload_corpus(d: &CloudDataDistributor) {
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client");
    let session = d.session("c", "p").expect("valid pair");
    for (i, (pl, mib)) in CORPUS.iter().enumerate() {
        let body = files::random_file(mib << 20, i as u64);
        session
            .put_file(&format!("f{i}"), &body, *pl, PutOptions::new())
            .expect("upload");
    }
}

fn bill(fleet: &[Arc<CloudProvider>]) -> f64 {
    fleet.iter().map(|p| p.monthly_cost_dollars()).sum()
}

/// Runs the cost comparison.
pub fn run() -> (Vec<CostPoint>, String) {
    let mut points = Vec::new();

    // Regime 1: paper policy on the mixed Fig. 3 fleet.
    let fleet = fig3_fleet();
    let d = CloudDataDistributor::try_new(
        fleet.clone(),
        DistributorConfig {
            stripe_width: 3,
            chunk_sizes: ChunkSizeSchedule::paper_default(),
            raid_level: RaidLevel::Raid5,
            ..Default::default()
        },
    )
    .expect("valid config");
    upload_corpus(&d);
    points.push(CostPoint {
        regime: "PL-aware cheapest-eligible (paper)",
        monthly_dollars: bill(&fleet),
        policy_clean: true,
    });

    // Regime 2: paranoid — premium-only fleet (four CL3 providers).
    let premium: Vec<Arc<CloudProvider>> = ["Adobe", "AWS", "Google", "Microsoft"]
        .iter()
        .map(|n| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                *n,
                PrivacyLevel::High,
                CostLevel::new(3),
            )))
        })
        .collect();
    let d = CloudDataDistributor::try_new(
        premium.clone(),
        DistributorConfig {
            stripe_width: 3,
            chunk_sizes: ChunkSizeSchedule::paper_default(),
            raid_level: RaidLevel::Raid5,
            ..Default::default()
        },
    )
    .expect("valid config");
    upload_corpus(&d);
    points.push(CostPoint {
        regime: "everything premium (paranoid)",
        monthly_dollars: bill(&premium),
        policy_clean: true,
    });

    // Regime 3: reckless — treat all data as public on the cheap fleet
    // (violates the trust rule; scale reference only).
    let cheap: Vec<Arc<CloudProvider>> = ["Sky", "Sea", "Earth", "Wind"]
        .iter()
        .map(|n| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                *n,
                PrivacyLevel::High, // pretend-trusted so placement succeeds
                CostLevel::new(1),
            )))
        })
        .collect();
    let d = CloudDataDistributor::try_new(
        cheap.clone(),
        DistributorConfig {
            stripe_width: 3,
            chunk_sizes: ChunkSizeSchedule::paper_default(),
            raid_level: RaidLevel::Raid5,
            ..Default::default()
        },
    )
    .expect("valid config");
    upload_corpus(&d);
    points.push(CostPoint {
        regime: "everything cheap (trust rule ignored)",
        monthly_dollars: bill(&cheap),
        policy_clean: false,
    });

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.regime.to_string(),
                format!("${:.4}/month", p.monthly_dollars),
                if p.policy_clean { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    let mut report = String::from(
        "E14 — storage-cost comparison (extension)\n\
         (85 MiB mixed corpus: 64 MiB public, 16 MiB low, 4 MiB moderate, 1 MiB high;\n\
          RAID-5; CL prices $0.01-$0.08 per GB-month)\n\n",
    );
    report.push_str(&render_table(
        &["regime", "monthly bill", "PL rule held"],
        &rows,
    ));
    report.push_str(
        "\nconclusion: PL-aware placement gets within a small factor of the\n\
         (rule-violating) all-cheap bill because bulk public data flows to cheap\n\
         providers, while the paranoid all-premium regime pays the full premium\n\
         on every byte — the §IV-B security/cost trade-off, priced.\n",
    );
    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_policy_sits_between_extremes() {
        let (points, report) = run();
        let paper = points[0].monthly_dollars;
        let paranoid = points[1].monthly_dollars;
        let reckless = points[2].monthly_dollars;
        assert!(
            paper < paranoid,
            "paper ${paper} must beat paranoid ${paranoid}"
        );
        assert!(
            reckless <= paper,
            "reckless ${reckless} is the floor (paper ${paper})"
        );
        // The bulk-public corpus makes the paper bill close to the floor.
        assert!(
            paper < paranoid * 0.5,
            "PL-aware placement should at least halve the premium bill"
        );
        assert!(report.contains("monthly bill"));
    }
}
