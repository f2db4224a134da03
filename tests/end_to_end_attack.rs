//! Integration test: the full attack-vs-defence pipeline across all crates.
//!
//! A victim uploads a minable ledger; attackers of both paper categories
//! (§III-A: malicious insider at one provider, outside attacker compromising
//! several) mount the regression attack; the defence is judged by the
//! mining outcome, not by implementation details.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig, PlacementStrategy};
use fragcloud::core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud::metrics::exposure::exposure;
use fragcloud::mining::regression::RegressionModel;
use fragcloud::mining::Dataset;
use fragcloud::raid::RaidLevel;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud::workloads::bidding::{self, BiddingConfig, COLUMNS, PREDICTORS, RESPONSE};
use fragcloud::workloads::records;
use std::sync::Arc;

const N: usize = 6;

fn fleet() -> Vec<Arc<CloudProvider>> {
    (0..N)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new(1),
            )))
        })
        .collect()
}

fn upload(placement: PlacementStrategy, chunk: usize) -> (CloudDataDistributor, [f64; 3], Vec<u8>) {
    let cfg = BiddingConfig {
        rows: 500,
        noise_std: 60.0,
        ..Default::default()
    };
    let bytes = records::encode(&bidding::generate(cfg));
    let d = CloudDataDistributor::try_new(
        fleet(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(chunk),
            stripe_width: 4,
            raid_level: RaidLevel::None,
            placement,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("victim").unwrap();
    d.add_password("victim", "pw", PrivacyLevel::High).unwrap();
    d.session("victim", "pw")
        .unwrap()
        .put_file("ledger", &bytes, PrivacyLevel::Moderate, PutOptions::new())
        .unwrap();
    (d, cfg.slopes, bytes)
}

fn mine(d: &CloudDataDistributor, compromised: &[bool]) -> Option<(usize, f64)> {
    let mut rows = Vec::new();
    for (p, &owned) in d.providers().iter().zip(compromised) {
        if owned {
            for obs in p.observer().snapshot() {
                rows.extend(records::scavenge_rows(&obs.data, COLUMNS.len()));
            }
        }
    }
    let n = rows.len();
    let ds = Dataset::from_rows(COLUMNS.iter().map(|s| s.to_string()).collect(), rows).ok()?;
    let m = RegressionModel::fit(&ds, &PREDICTORS, RESPONSE).ok()?;
    Some((
        n,
        m.slopes()
            .to_vec()
            .iter()
            .zip([1.4, 1.5, 3.1])
            .map(|(g, w)| (g - w).abs() / w)
            .sum::<f64>()
            / 3.0,
    ))
}

#[test]
fn insider_wins_against_single_provider_loses_against_distribution() {
    // Baseline: single provider — one insider sees it all.
    let (d, _slopes, _) = upload(PlacementStrategy::SingleProvider, 2 << 10);
    let holder = d
        .client_chunks_per_provider("victim")
        .unwrap()
        .iter()
        .position(|&c| c > 0)
        .unwrap();
    let mut compromised = vec![false; N];
    compromised[holder] = true;
    let (rows, err) = mine(&d, &compromised).expect("insider fits the model");
    assert!(rows > 400, "insider sees almost all rows, got {rows}");
    assert!(err < 0.15, "insider recovers the model, err={err}");

    // Defence: distributed — the same single insider is starved.
    let (d, _slopes, _) = upload(PlacementStrategy::CheapestEligible, 2 << 10);
    let mut best_rows = 0;
    for i in 0..N {
        let mut compromised = vec![false; N];
        compromised[i] = true;
        if let Some((rows, _)) = mine(&d, &compromised) {
            best_rows = best_rows.max(rows);
        }
    }
    assert!(
        best_rows < 250,
        "no single insider should see most rows, best={best_rows}"
    );
}

#[test]
fn exposure_grows_linearly_with_compromised_providers() {
    let (d, _, _) = upload(PlacementStrategy::CheapestEligible, 2 << 10);
    let chunks = d.client_chunks_per_provider("victim").unwrap();
    let bytes = d.client_bytes_per_provider("victim").unwrap();
    let mut last = 0.0;
    for k in 0..=N {
        let compromised: Vec<bool> = (0..N).map(|i| i < k).collect();
        let e = exposure(&chunks, &bytes, &compromised);
        assert!(e.byte_fraction >= last - 1e-12);
        last = e.byte_fraction;
    }
    assert!((last - 1.0).abs() < 1e-12);
}

#[test]
fn smaller_chunks_starve_the_per_chunk_attacker_harder() {
    // With large chunks a compromised provider can mine rows per chunk;
    // with small chunks each chunk is useless even if exposure (bytes) is
    // identical.
    let mut yields = Vec::new();
    for chunk in [8 << 10, 256] {
        let (d, _, _) = upload(PlacementStrategy::CheapestEligible, chunk);
        let mut rows_total = 0;
        for p in d.providers().iter() {
            for obs in p.observer().snapshot() {
                rows_total += records::scavenge_rows(&obs.data, COLUMNS.len()).len();
            }
        }
        yields.push(rows_total);
    }
    assert!(
        yields[1] < yields[0],
        "small chunks must scavenge fewer rows: {yields:?}"
    );
}

#[test]
fn misleading_bytes_poison_the_insider_even_with_full_compromise() {
    let cfg = BiddingConfig {
        rows: 500,
        noise_std: 60.0,
        ..Default::default()
    };
    let bytes = records::encode(&bidding::generate(cfg));
    let d = CloudDataDistributor::try_new(
        fleet(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(4 << 10),
            stripe_width: 4,
            raid_level: RaidLevel::None,
            mislead_rate: 0.05,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("victim").unwrap();
    d.add_password("victim", "pw", PrivacyLevel::High).unwrap();
    d.session("victim", "pw")
        .unwrap()
        .put_file("ledger", &bytes, PrivacyLevel::Moderate, PutOptions::new())
        .unwrap();
    // Attacker owns EVERY provider, yet mines the polluted stored bytes.
    let compromised = vec![true; N];
    let rows_seen = match mine(&d, &compromised) {
        Some((rows, _)) => rows,
        None => 0,
    };
    assert!(
        rows_seen < 250,
        "misleading bytes should poison most rows, attacker got {rows_seen}"
    );
    // The legitimate owner still reads clean data.
    assert_eq!(
        d.session("victim", "pw")
            .unwrap()
            .get_file("ledger")
            .unwrap()
            .data,
        bytes
    );
}
