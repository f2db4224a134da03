//! Integration test: availability under provider outages — the §III-B
//! claim that distribution "ensures the greater availability of data",
//! exercised end-to-end through the distributor.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud::core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud::raid::RaidLevel;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use std::sync::Arc;

fn world(n: usize, level: RaidLevel) -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    let fleet: Vec<Arc<CloudProvider>> = (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new(1),
            )))
        })
        .collect();
    let d = CloudDataDistributor::new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(2 << 10),
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    );
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    (d, fleet)
}

fn body(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 37) % 251) as u8).collect()
}

#[test]
fn raid5_survives_every_single_provider_outage() {
    let (d, fleet) = world(8, RaidLevel::Raid5);
    let data = body(100_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    #[allow(clippy::needless_range_loop)] // victim IS the index under test
    for victim in 0..fleet.len() {
        fleet[victim].set_online(false);
        let got = session.get_file("f").unwrap();
        assert_eq!(got.data, data, "outage of cp{victim}");
        fleet[victim].set_online(true);
    }
}

#[test]
fn raid6_survives_every_pair_of_outages() {
    let (d, fleet) = world(7, RaidLevel::Raid6);
    let data = body(60_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    for a in 0..fleet.len() {
        for b in (a + 1)..fleet.len() {
            fleet[a].set_online(false);
            fleet[b].set_online(false);
            let got = session.get_file("f").unwrap();
            assert_eq!(got.data, data, "outage of cp{a}+cp{b}");
            fleet[a].set_online(true);
            fleet[b].set_online(true);
        }
    }
}

#[test]
fn raid5_double_outage_can_fail_but_recovers_when_one_returns() {
    let (d, fleet) = world(6, RaidLevel::Raid5);
    let data = body(50_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    // With 6 providers and 5-shard stripes, some double outage must break a
    // stripe (pigeonhole); find one.
    let mut broke = false;
    'outer: for a in 0..fleet.len() {
        for b in (a + 1)..fleet.len() {
            fleet[a].set_online(false);
            fleet[b].set_online(false);
            if session.get_file("f").is_err() {
                // One provider returns: readable again.
                fleet[a].set_online(true);
                assert_eq!(session.get_file("f").unwrap().data, data);
                fleet[b].set_online(true);
                broke = true;
                break 'outer;
            }
            fleet[a].set_online(true);
            fleet[b].set_online(true);
        }
    }
    assert!(broke, "some double outage must exceed RAID-5 tolerance");
}

#[test]
fn data_survives_outage_during_which_file_is_removed_elsewhere() {
    // Removing a *different* file while a provider is down must not damage
    // the surviving file's stripes.
    let (d, fleet) = world(8, RaidLevel::Raid5);
    let keep = body(30_000);
    let drop = body(10_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("keep", &keep, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    session
        .put_file("drop", &drop, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    fleet[0].set_online(false);
    // Removal may fail if cp0 holds one of drop's chunks; retry online.
    if session.remove_file("drop").is_err() {
        fleet[0].set_online(true);
        session.remove_file("drop").unwrap();
        fleet[0].set_online(false);
    }
    let got = session.get_file("keep").unwrap();
    assert_eq!(got.data, keep);
    fleet[0].set_online(true);
    assert_eq!(session.get_file("keep").unwrap().data, keep);
}

#[test]
fn grey_failures_are_absorbed_by_replicas_and_parity() {
    // Flaky (not dead) providers: every op fails with 5% probability.
    // Replica + RAID-5 fallback keeps whole-file reads succeeding almost
    // always (a read only fails when a chunk's primary AND replica AND a
    // stripe peer all fail in one pass).
    let (d, fleet) = world(8, RaidLevel::Raid5);
    let data = body(40_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new().replicas(1))
        .unwrap();
    for (i, p) in fleet.iter().enumerate() {
        p.try_set_flaky(0.05, 1000 + i as u64).unwrap();
    }
    let mut successes = 0;
    for _ in 0..10 {
        if let Ok(got) = session.get_file("f") {
            assert_eq!(got.data, data);
            successes += 1;
        }
    }
    assert!(successes >= 8, "only {successes}/10 flaky reads succeeded");
    for p in &fleet {
        p.try_set_flaky(0.0, 0).unwrap();
    }
    assert_eq!(session.get_file("f").unwrap().data, data);
}

#[test]
fn reconstructed_chunk_count_reported() {
    let (d, fleet) = world(8, RaidLevel::Raid5);
    let data = body(80_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    let holdings = d.client_chunks_per_provider("c").unwrap();
    let victim = holdings
        .iter()
        .position(|&n| n > 0)
        .expect("chunks stored somewhere");
    fleet[victim].set_online(false);
    let got = session.get_file("f").unwrap();
    assert_eq!(got.data, data);
    assert_eq!(got.reconstructed_chunks, holdings[victim]);
}
