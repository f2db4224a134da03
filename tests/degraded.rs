//! Integration test: the degraded-mode I/O engine end to end — retrying
//! reads survive providers that die *mid-stream* (§I's EC2-outage
//! motivation), and `scrub()`/`try_repair()` restore full-stripe health after a
//! provider is lost outright.

use fragcloud::sim::failure::OutageScript;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud::core::{BreakerState, CoreError};
use fragcloud::{
    ChunkSizeSchedule, CloudDataDistributor, DistributorConfig, PrivacyLevel, PutOptions, RaidLevel,
};
use proptest::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const FLEET: usize = 16;

fn world(level: RaidLevel) -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    world_with(
        FLEET,
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    )
}

fn world_with(
    providers: usize,
    config: DistributorConfig,
) -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    let fleet: Vec<Arc<CloudProvider>> = (0..providers)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect();
    let d = CloudDataDistributor::try_new(fleet.clone(), config).expect("valid config");
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    (d, fleet)
}

fn body(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 41 + 7) % 251) as u8).collect()
}

/// Indices of the providers holding the most of the client's chunks —
/// killing these makes the outage bite instead of missing the file.
fn top_holders(d: &CloudDataDistributor, n: usize) -> Vec<usize> {
    let counts = d.client_chunks_per_provider("c").unwrap();
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    idx.truncate(n);
    idx
}

#[test]
fn raid5_read_survives_one_mid_stream_death() {
    let (d, fleet) = world(RaidLevel::Raid5);
    let data = body(100_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // The busiest provider serves two more ops, then dies mid-read.
    let victims = top_holders(&d, 1);
    OutageScript::new()
        .kill_after(victims[0], 2)
        .try_arm(&fleet)
        .expect("victim index is in range");

    let got = session.get_file("f").unwrap();
    assert_eq!(got.data, data);
    assert!(!fleet[victims[0]].is_online(), "the script must have fired");
    assert!(
        got.reconstructed_chunks > 0 || got.retries > 0,
        "the engine should have had to work for this read"
    );
}

#[test]
fn raid6_read_survives_two_mid_stream_deaths() {
    let (d, fleet) = world(RaidLevel::Raid6);
    let data = body(120_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // Two providers die at different points of the same read.
    let victims = top_holders(&d, 2);
    OutageScript::new()
        .kill_after(victims[0], 1)
        .kill_after(victims[1], 3)
        .try_arm(&fleet)
        .expect("victim indices are in range");

    let got = session.get_file("f").unwrap();
    assert_eq!(got.data, data);
    assert!(!fleet[victims[0]].is_online());
    assert!(!fleet[victims[1]].is_online());

    // Still readable in the steady degraded state (both stay down).
    assert_eq!(session.get_file("f").unwrap().data, data);
}

#[test]
fn scrub_sees_the_outage_and_repair_clears_it() {
    let (d, fleet) = world(RaidLevel::Raid5);
    let data = body(80_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    assert!(d.scrub().is_healthy());

    let victim = top_holders(&d, 1)[0];
    fleet[victim].set_online(false);

    let report = d.scrub();
    assert!(!report.is_healthy());
    assert!(report.missing_shards > 0);
    assert_eq!(report.unreadable, Vec::<usize>::new());

    let repaired = d.try_repair().unwrap();
    assert!(repaired.is_complete(), "failed: {:?}", repaired.failed);
    assert_eq!(repaired.shards_rebuilt, report.missing_shards);
    // Health is restored even though the victim never came back.
    assert!(d.scrub().is_healthy());
    assert_eq!(session.get_file("f").unwrap().data, data);
}

/// Providers 0–2 are cheap and take every (3-wide, parity-less) stripe;
/// providers 3 and 4 cost more, so they only ever hold a shard that was
/// re-homed off a dying stripe member — as its two equal-cost alternates.
fn rehoming_world() -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    let fleet: Vec<Arc<CloudProvider>> = (0..5)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new(u8::from(i >= 3)),
            )))
        })
        .collect();
    let config = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
        stripe_width: 3,
        raid_level: RaidLevel::None,
        ..Default::default()
    };
    let d = CloudDataDistributor::try_new(fleet.clone(), config).expect("valid config");
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    (d, fleet)
}

/// Puts a one-stripe file while each of `dying` fails its store (placed,
/// then dead on its next request), and brings them back afterwards.
fn put_while_dying(
    d: &CloudDataDistributor,
    fleet: &[Arc<CloudProvider>],
    name: &str,
    dying: &[usize],
) {
    for &p in dying {
        fleet[p].fail_after_ops(0);
    }
    d.session("c", "pw")
        .unwrap()
        .put_file(name, &body(3 << 10), PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    for &p in dying {
        fleet[p].set_online(true);
    }
}

/// A re-homed shard goes to the alternate with the lower health score:
/// failures on record count even while the breaker is still Closed.
#[test]
fn rehomed_shard_prefers_the_alternate_with_no_failures_on_record() {
    let (d, fleet) = rehoming_world();
    let holdings = || d.client_chunks_per_provider("c").unwrap();
    // Two clean equal-cost alternates tie; the lower index takes the shard.
    put_while_dying(&d, &fleet, "g", &[0]);
    assert_eq!(holdings(), [0, 1, 1, 1, 0]);

    // Provider 3 then fails a read — three attempts, three errors: on its
    // score, not enough to open its breaker.
    fleet[3].set_online(false);
    assert!(d.session("c", "pw").unwrap().get_file("g").is_err());
    fleet[3].set_online(true);
    assert_eq!(d.health().state(3), BreakerState::Closed);
    assert!(d.health().score(3) > 0.0);

    // The next re-homed shard passes it over for the clean provider 4.
    put_while_dying(&d, &fleet, "f", &[1]);
    assert_eq!(holdings(), [1, 1, 2, 1, 1]);
}

/// Repair ranks its targets as a degraded write ranks its alternates:
/// health first, then cost. A cheap provider with failures on record loses
/// the rebuilt shards to the clean, costlier ones.
#[test]
fn repair_rehomes_onto_the_alternate_with_no_failures_on_record() {
    let (d, fleet) = rehoming_world();
    let s = d.session("c", "pw").unwrap();
    let put = |name: &str, data: usize| {
        s.put_file(
            name,
            &body(data << 10),
            PrivacyLevel::Low,
            PutOptions::new().geometry(data, 1),
        )
        .unwrap();
    };
    let objects = || fleet.iter().map(|p| p.chunk_count()).collect::<Vec<_>>();
    // RS(1,1) on two of the three cheap providers; the third is spare.
    put("f", 1);
    let held = objects();
    let spare = (0..3)
        .find(|&i| held[i] == 0)
        .expect("f leaves a cheap provider out");
    let lost = (0..3)
        .find(|&i| held[i] > 0)
        .expect("f sits on the cheap providers");

    // RS(2,1) on the three cheap providers; the spare fails its store, so
    // its shard goes to provider 3 and its failures go on its score.
    fleet[spare].fail_after_ops(0);
    put("g", 2);
    fleet[spare].set_online(true);
    assert!(d.health().score(spare) > 0.0);
    assert_eq!((objects()[spare], objects()[3]), (0, 1));

    // A provider holding a shard of both files is lost for good. Both
    // rebuilt shards pass the spare over for a clean provider: 3 for f,
    // 4 for g, which 3 already hosts.
    fleet[lost].set_online(false);
    let repaired = d.try_repair().unwrap();
    assert!(repaired.is_complete(), "failed: {:?}", repaired.failed);
    assert_eq!(repaired.shards_rebuilt, 2);
    let after = objects();
    assert_eq!((after[spare], after[3], after[4]), (0, 2, 1), "{after:?}");
    assert_eq!(s.get_file("f").unwrap().data, body(1 << 10));
    assert_eq!(s.get_file("g").unwrap().data, body(2 << 10));
}

/// How many operations an alternate has *served* decides nothing: two
/// worlds that differ only in 200 extra clean reads from the higher-index
/// alternate re-home a shard onto the same provider. (A score that rises
/// with every success would move it to the busiest one.)
#[test]
fn past_successes_do_not_move_a_rehomed_shard() {
    let holdings_after = |extra_reads: usize| {
        let (d, fleet) = rehoming_world();
        let s = d.session("c", "pw").unwrap();
        // Both alternates end up holding one chunk of `g`.
        put_while_dying(&d, &fleet, "g", &[0, 1]);
        assert_eq!(d.client_chunks_per_provider("c").unwrap(), [0, 0, 1, 1, 1]);
        let gets = || fleet[4].stats().gets.load(Ordering::Relaxed);
        let on_4 = (0..3)
            .find(|&serial| {
                let before = gets();
                s.get_chunk("g", serial).unwrap();
                gets() > before
            })
            .expect("provider 4 holds a chunk of g");
        for _ in 0..extra_reads {
            s.get_chunk("g", on_4).unwrap();
        }
        put_while_dying(&d, &fleet, "f", &[2]);
        d.client_chunks_per_provider("c").unwrap()
    };
    let quiet = holdings_after(0);
    assert_eq!(quiet, [1, 1, 1, 2, 1], "lowest-index alternate takes the shard");
    assert_eq!(holdings_after(200), quiet);
}

/// A degraded `get_file` fetches no stripe member twice: what it reads
/// directly serves the rebuilds, what a rebuild reads serves the chunks
/// after it, and a rebuild stops at `k` survivors.
#[test]
fn degraded_get_reads_each_stripe_member_at_most_once() {
    const CHUNK: usize = 64 << 10;
    let (d, fleet) = world_with(
        12,
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
            ..Default::default()
        },
    );
    // Three full RS(8,3) stripes and a three-chunk tail ending mid-chunk.
    let chunks = 3 * 8 + 3;
    let data = body((chunks - 1) * CHUNK + 1000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file(
            "f",
            &data,
            PrivacyLevel::Low,
            PutOptions::new().geometry(8, 3),
        )
        .unwrap();
    assert_eq!(session.file_chunk_count("f").unwrap(), chunks);

    let offline = top_holders(&d, 2);
    let held = d.client_chunks_per_provider("c").unwrap();
    for &p in &offline {
        fleet[p].set_online(false);
    }
    let served = || -> Vec<u64> {
        fleet
            .iter()
            .map(|p| p.stats().gets.load(Ordering::Relaxed))
            .collect()
    };
    let before = served();
    let got = session.get_file("f").unwrap();
    assert_eq!(got.data, data);
    assert_eq!(
        got.reconstructed_chunks,
        held[offline[0]] + held[offline[1]]
    );

    let served: Vec<u64> = served().iter().zip(&before).map(|(a, b)| a - b).collect();
    // A provider holds one member of a stripe at most, so it cannot serve
    // more objects than it holds without serving one of them twice …
    for (p, &n) in served.iter().enumerate() {
        assert!(
            n <= fleet[p].chunk_count() as u64,
            "provider {p} served {n}"
        );
    }
    // … and in total the get is served exactly what no read of the file
    // can do without — every live data chunk, plus one parity shard per
    // lost one — which leaves no room for a second fetch of anything.
    assert_eq!(served.iter().sum::<u64>(), chunks as u64);
}

/// A repair reads each live member of a degraded stripe from its provider
/// once: a deep repair's heal is served by the reads of its walk, and the
/// decode by the heal's, so no member is fetched twice.
#[test]
fn repair_reads_each_live_stripe_member_once() {
    let world = || {
        let (d, fleet) = world_with(
            8,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
                ..Default::default()
            },
        );
        // Four RS(4,2) stripes: 24 shards on 8 providers.
        d.session("c", "pw")
            .unwrap()
            .put_file(
                "f",
                &body(16 << 10),
                PrivacyLevel::Low,
                PutOptions::new().geometry(4, 2),
            )
            .unwrap();
        let victim = top_holders(&d, 1)[0];
        fleet[victim].set_online(false);
        (d, fleet)
    };
    let served = |fleet: &[Arc<CloudProvider>]| -> u64 {
        fleet
            .iter()
            .map(|p| p.stats().gets.load(Ordering::Relaxed))
            .sum()
    };
    for verify in [true, false] {
        let (d, fleet) = world();
        let before = served(&fleet);
        let repaired = match verify {
            true => d.try_repair_verify(),
            false => d.try_repair(),
        }
        .unwrap();
        // The victim held one shard of each stripe; the other 20 are read
        // once each.
        assert_eq!(served(&fleet) - before, 20, "verify = {verify}");
        assert!(repaired.is_complete(), "failed: {:?}", repaired.failed);
        assert_eq!((repaired.stripes_repaired, repaired.shards_rebuilt), (4, 4));
        assert!(d.scrub_verify().is_healthy());
        let s = d.session("c", "pw").unwrap();
        assert_eq!(s.get_file("f").unwrap().data, body(16 << 10));
    }
}

/// Every verb that moves an object retries a transient provider error,
/// not only `put_file` and `get_file`: with every provider rejecting 5 %
/// of its operations, the chunk-level verbs and a migration all go
/// through, and what they wrote reads back byte-identical. (Three attempts
/// per operation leave about 10⁻⁴ per op; the seeds are fixed.)
#[test]
fn chunk_verbs_and_migration_ride_through_a_flaky_fleet() {
    const CHUNK: usize = 1 << 10;
    for seed in [1u64, 2, 4, 5, 8] {
        let (d, fleet) = world_with(
            FLEET,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
                ..Default::default()
            },
        );
        for (i, p) in fleet.iter().enumerate() {
            p.try_set_flaky(0.05, seed * 1000 + i as u64).unwrap();
        }
        let tel = d.enable_telemetry();
        let session = d.session("c", "pw").unwrap();
        let mut want: Vec<Vec<u8>> = body(8 * CHUNK).chunks(CHUNK).map(<[u8]>::to_vec).collect();
        let opts = PutOptions::new().geometry(4, 2).replicas(1);
        session
            .put_file("f", &want.concat(), PrivacyLevel::Low, opts)
            .unwrap_or_else(|e| panic!("seed {seed}: put: {e}"));

        let kept = vec![0xA5u8; 700];
        session
            .update_chunk("f", 0, &kept)
            .unwrap_or_else(|e| panic!("seed {seed}: update: {e}"));
        session
            .update_chunk("f", 0, &[0x5A; CHUNK])
            .unwrap_or_else(|e| panic!("seed {seed}: second update: {e}"));
        session
            .restore_snapshot("f", 0)
            .unwrap_or_else(|e| panic!("seed {seed}: restore: {e}"));
        want[0] = kept;
        assert_eq!(session.get_file("f").unwrap().data, want.concat());

        session
            .remove_chunk("f", 1)
            .unwrap_or_else(|e| panic!("seed {seed}: remove_chunk: {e}"));
        // Anti-affinity vetoes some targets; nothing else may fail.
        for target in 0..FLEET {
            match d.migrate_chunk("c", "pw", "f", 2, target) {
                Ok(()) | Err(CoreError::InsufficientProviders { .. }) => {}
                Err(e) => panic!("seed {seed}: migrate to {target}: {e}"),
            }
        }
        for (serial, chunk) in want.iter().enumerate() {
            let got = session.get_chunk("f", serial as u32);
            if serial == 1 {
                assert!(got.is_err(), "seed {seed}: removed chunk still reads");
            } else {
                assert_eq!(&got.unwrap(), chunk, "seed {seed}: chunk {serial}");
            }
        }
        let retries = tel.registry().unwrap().counter_total("retries_total");
        assert!(retries > 0, "seed {seed}: the fleet was never flaky");
    }
}

/// Every way to take `n` of `fleet` providers offline.
fn subsets(fleet: usize, n: usize) -> Vec<Vec<usize>> {
    (0u32..1 << fleet)
        .filter(|mask| mask.count_ones() as usize == n)
        .map(|mask| (0..fleet).filter(|i| mask & (1 << i) != 0).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any RS(k, m) file — tail stripe, misleading bytes, a chunk updated
    /// to a shorter or longer one (so a stripe peer needs zero-padding), a
    /// chunk removed (a zero shard) — reads back exactly, whole and chunk
    /// by chunk, with every set of at most `m` providers offline; one more
    /// loss is an error or the right bytes, never wrong ones.
    #[test]
    fn reads_match_oracle_under_every_tolerable_outage(
        k in 1usize..=8,
        m in 1usize..=3,
        len in 1usize..1_500,
        mislead in any::<bool>(),
        update in proptest::collection::vec((any::<usize>(), 1usize..130), 0..=1),
        remove in proptest::collection::vec(any::<usize>(), 0..=1),
    ) {
        const CHUNK: usize = 64;
        // Exactly k + m providers: every full stripe has a member on each.
        let (d, fleet) = world_with(
            k + m,
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
                mislead_rate: if mislead { 0.1 } else { 0.0 },
                ..Default::default()
            },
        );
        let data = body(len);
        let session = d.session("c", "pw").unwrap();
        session
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::new().geometry(k, m))
            .unwrap();
        let mut oracle: Vec<Option<Vec<u8>>> =
            data.chunks(CHUNK).map(|c| Some(c.to_vec())).collect();
        if let Some(&(at, new_len)) = update.first() {
            let at = at % oracle.len();
            let new = body(new_len + 7)[7..].to_vec();
            session.update_chunk("f", at as u32, &new).unwrap();
            oracle[at] = Some(new);
        }
        if let Some(&at) = remove.first() {
            let at = at % oracle.len();
            session.remove_chunk("f", at as u32).unwrap();
            oracle[at] = None;
        }
        let whole: Option<Vec<u8>> = oracle.iter().cloned().collect::<Option<Vec<_>>>()
            .map(|chunks| chunks.concat());

        for offline in (0..=m + 1).flat_map(|n| subsets(k + m, n)) {
            for &p in &offline {
                fleet[p].set_online(false);
            }
            let tolerable = offline.len() <= m;
            if let Some(whole) = &whole {
                match session.get_file("f") {
                    Ok(got) => {
                        // With no tombstone to stand in for a shard, stripe 0
                        // of a file that fills it cannot survive m + 1 losses.
                        prop_assert!(tolerable || oracle.len() < k, "offline {:?}", &offline);
                        prop_assert_eq!(&got.data, whole, "offline {:?}", &offline)
                    }
                    Err(e) => prop_assert!(!tolerable, "offline {:?}: {}", &offline, e),
                }
            }
            for (i, want) in oracle.iter().enumerate() {
                match (session.get_chunk("f", i as u32), want) {
                    (Ok(got), Some(want)) => {
                        prop_assert_eq!(&got, want, "chunk {} offline {:?}", i, &offline)
                    }
                    (Err(e), Some(_)) => {
                        prop_assert!(!tolerable, "chunk {} offline {:?}: {}", i, &offline, e)
                    }
                    (got, None) => prop_assert!(got.is_err(), "chunk {} was removed", i),
                }
            }
            for &p in &offline {
                fleet[p].set_online(true);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Losing ANY single provider leaves RAID-5 stripes repairable: after
    /// `try_repair()`, a fresh `scrub()` reports full health with the victim
    /// still gone.
    #[test]
    fn repair_restores_health_after_any_single_loss(
        victim in 0usize..FLEET,
        len in 2_000usize..60_000,
    ) {
        let (d, fleet) = world(RaidLevel::Raid5);
        let data = body(len);
        let session = d.session("c", "pw").unwrap();
        session
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
            .unwrap();

        fleet[victim].set_online(false);
        let before = d.scrub();
        let repaired = d.try_repair().unwrap();
        prop_assert!(repaired.is_complete(), "failed: {:?}", repaired.failed);
        prop_assert_eq!(repaired.shards_rebuilt, before.missing_shards);
        prop_assert!(d.scrub().is_healthy());
        // And the file still reads back byte-identical.
        prop_assert_eq!(session.get_file("f").unwrap().data, data);
    }
}
