//! Integration tests: end-to-end shard integrity, read-repair, and the
//! provider circuit breaker.
//!
//! Every stored shard carries a checksum frame stamped at `put` and
//! verified on every read (see `fragcloud::core::integrity`). These tests
//! corrupt objects at rest (directly in the provider stores) and in
//! flight (via `FaultPlan`) and assert the system's robustness contract:
//! a `get_file` either returns byte-identical plaintext or a typed error
//! — never silently wrong bytes.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig, Geometry, GeometrySchedule};
use fragcloud::core::health::EWMA_ALPHA;
use fragcloud::core::{integrity, BreakerState, CloudDataDistributor, CoreError, PutOptions};
use fragcloud::sim::{
    Bytes, CloudProvider, CostLevel, FaultMode, FaultPlan, ObjectStore, PrivacyLevel,
    ProviderProfile,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn fleet(n: usize) -> Vec<Arc<CloudProvider>> {
    (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}

fn config(k: usize, m: usize) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
        stripe_width: k,
        geometry: Some(GeometrySchedule::uniform(Geometry::new(k, m))),
        ..Default::default()
    }
}

fn distributor_with(fleet: Vec<Arc<CloudProvider>>, k: usize, m: usize) -> CloudDataDistributor {
    CloudDataDistributor::new(fleet, config(k, m))
}

/// Write-once objects: damage at rest is not an ack, so healing it with
/// the acked bytes is no overwrite — and nothing else may be one.
fn assert_no_overwrites(fleet: &[Arc<CloudProvider>]) {
    for p in fleet {
        let overwrites = p.stats().overwrites.load(Ordering::Relaxed);
        assert_eq!(overwrites, 0, "{} overwrote a held key", p.name());
    }
}

fn body(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 131) % 256) as u8)
        .collect()
}

/// Corrupts every object currently stored on `p` at rest in the given
/// `mode` (0 = bit-flip, 1 = truncate-one-byte, 2 = swap-with-reversed-self).
/// All three keep the frame magic intact, so the damage must be caught by
/// the checksum, not by framing heuristics.
fn corrupt_all_objects(p: &CloudProvider, mode: usize) -> usize {
    let mut corrupted = 0;
    for vid in p.virtual_id_list() {
        let mut raw = p.get(vid).expect("object readable").to_vec();
        match mode {
            0 => {
                let last = raw.len() - 1;
                raw[last] ^= 0x01;
            }
            1 => {
                raw.pop();
            }
            _ => {
                // Reverse the payload in place: same length, same frame
                // header, wrong bytes — models a mis-directed write.
                let start = integrity::FRAME_OVERHEAD.min(raw.len());
                raw[start..].reverse();
            }
        }
        p.corrupt_at_rest(vid, Bytes::from(raw)).expect("held");
        corrupted += 1;
    }
    corrupted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arbitrary RS(k, m) geometry, one provider wholly corrupted at rest:
    /// `get_file` still returns byte-identical plaintext, the corruption is
    /// detected (typed, counted), and read-repair re-uploads the healed
    /// shard so a second read is already clean.
    #[test]
    fn single_provider_corruption_heals_byte_identical(
        k in 2usize..5,
        m in 1usize..3,
        victim_sel in 0usize..64,
        mode in 0usize..3,
        len in 1_000usize..20_000,
    ) {
        let fleet = fleet(k + m + 1);
        let d = distributor_with(fleet, k, m);
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        let session = d.session("c", "pw").unwrap();
        let data = body(k * 1000 + m * 100 + mode, len);
        session
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
            .unwrap();

        // Pick a victim that actually holds client data (not just parity),
        // so the read path is guaranteed to touch a corrupt object.
        let bytes_per = d.client_bytes_per_provider("c").unwrap();
        let holders: Vec<usize> = bytes_per
            .iter()
            .enumerate()
            .filter(|(_, b)| **b > 0)
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!holders.is_empty());
        let victim = holders[victim_sel % holders.len()];

        let tel = d.enable_telemetry();
        let corrupted = corrupt_all_objects(&d.providers()[victim], mode);
        prop_assert!(corrupted > 0);

        let got = session.get_file("f").unwrap();
        prop_assert_eq!(&got.data, &data, "healed read must be byte-identical");

        let reg = tel.registry().unwrap();
        prop_assert!(reg.counter_total("corruption_detected_total") >= 1);
        prop_assert!(reg.counter_total("read_repair_total") >= 1);

        // Read-repair re-uploaded the healed data shards: a second read of
        // the data path needs no reconstruction at all.
        let again = session.get_file("f").unwrap();
        prop_assert_eq!(&again.data, &data);
        prop_assert_eq!(again.reconstructed_chunks, 0);
        assert_no_overwrites(&d.providers());
    }

    /// Corruption beyond the parity budget (m+1 providers) surfaces as a
    /// typed error — never as silently wrong bytes.
    #[test]
    fn corruption_beyond_parity_is_typed_never_wrong_bytes(
        k in 2usize..5,
        m in 1usize..3,
        len in 1_000usize..20_000,
    ) {
        // Exactly k+m providers: every stripe touches all of them, so
        // corrupting m+1 providers kills m+1 shards per stripe.
        let fleet = fleet(k + m);
        let d = distributor_with(fleet, k, m);
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        let session = d.session("c", "pw").unwrap();
        let data = body(k + 10 * m, len);
        session
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
            .unwrap();
        for idx in 0..=m {
            corrupt_all_objects(&d.providers()[idx], idx % 3);
        }
        match session.get_file("f") {
            // A success is only acceptable if the bytes are right (cannot
            // happen with m+1 erasures, but the contract is the point).
            Ok(r) => prop_assert_eq!(&r.data, &data),
            Err(
                CoreError::Raid(_)
                | CoreError::ShardCorrupt { .. }
                | CoreError::RetriesExhausted { .. }
                | CoreError::Store(_),
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error kind: {other}"),
        }
        assert_no_overwrites(&d.providers());
    }

    /// Write-once objects leave a replaying provider nothing stale to
    /// serve: with `StaleReplay` armed at rate 1.0 on every provider, an
    /// `update_chunk` of a same-length chunk — the case a length check
    /// cannot catch — reads back as the new bytes, healthy and with each
    /// provider offline in turn, with or without misleading bytes.
    #[test]
    fn stale_replay_after_an_update_reads_the_new_bytes(
        k in 2usize..5,
        m in 1usize..3,
        mislead in any::<bool>(),
        serial_sel in 0usize..64,
        len in 1_000usize..12_000,
    ) {
        let fleet = fleet(k + m + 2);
        let rate = if mislead { 0.08 } else { 0.0 };
        let d = CloudDataDistributor::new(
            fleet.clone(),
            DistributorConfig { mislead_rate: rate, ..config(k, m) },
        );
        d.register_client("c").unwrap();
        d.add_password("c", "pw", PrivacyLevel::High).unwrap();
        let session = d.session("c", "pw").unwrap();
        let mut data = body(k * 100 + m, len);
        session
            .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
            .unwrap();
        let replay = (0..fleet.len()).fold(FaultPlan::new(0x57A1E), |plan, i| {
            plan.corrupt(i, FaultMode::StaleReplay, 1.0)
        });
        replay.try_arm(&fleet).expect("indices are in range");

        let serial = serial_sel % len.div_ceil(1 << 10);
        let chunk = &mut data[serial << 10..((serial + 1) << 10).min(len)];
        let patch = body(serial + 7, chunk.len());
        session.update_chunk("f", serial as u32, &patch).unwrap();
        chunk.copy_from_slice(&patch);
        prop_assert!(session.get_file("f").unwrap().data == data, "healthy: stale bytes");
        for (i, p) in fleet.iter().enumerate() {
            p.set_online(false);
            let got = session.get_file("f");
            p.set_online(true);
            prop_assert!(got.unwrap().data == data, "cp{} offline: stale bytes", i);
        }
        assert_no_overwrites(&fleet);
    }
}

/// Every stored object is framed or the read is an erasure: an object
/// whose frame was stripped (magic and checksum gone, payload intact) is
/// never passed through — parity rebuilds it and read-repair re-frames
/// it, so the next read is clean.
#[test]
fn unframed_objects_heal_through_parity_and_read_repair() {
    let d = distributor_with(fleet(6), 4, 1);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(42, 32 << 10);
    session
        .put_file("doc", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // Strip the integrity frame from every object one provider holds.
    let victim = &d.providers()[0];
    let vids = victim.virtual_id_list();
    assert!(!vids.is_empty());
    for &vid in &vids {
        let raw = victim.get(vid).expect("object readable");
        let payload = integrity::unframe(vid, raw).expect("fresh frame verifies");
        victim.corrupt_at_rest(vid, payload).expect("object held");
    }

    let tel = d.enable_telemetry();
    let got = session.get_file("doc").unwrap();
    assert_eq!(got.data, data);
    assert!(
        got.reconstructed_chunks > 0,
        "unframed objects are erasures"
    );
    let reg = tel.registry().unwrap();
    assert!(reg.counter_total("corruption_detected_total") > 0);
    assert!(reg.counter_total("read_repair_total") > 0);

    // Read-repair re-framed what the first read touched.
    let again = session.get_file("doc").unwrap();
    assert_eq!(again.data, data);
    assert_eq!(again.reconstructed_chunks, 0);
    // What it did not touch (parity) scrub reports and repair heals.
    d.scrub_verify();
    d.try_repair().unwrap();
    assert!(d.scrub_verify().is_healthy());
    for vid in vids {
        integrity::unframe(vid, victim.get(vid).unwrap()).expect("re-framed");
    }
    assert_no_overwrites(&d.providers());
}

/// A provider serving corrupt bytes on every read trips its circuit
/// breaker: reads keep succeeding (reconstruction), the breaker opens,
/// and new writes route around the quarantined provider.
#[test]
fn byzantine_provider_trips_breaker_and_is_quarantined() {
    let fleet = fleet(8);
    let d = distributor_with(fleet.clone(), 4, 1);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(9, 24 << 10);
    session
        .put_file("hot", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // Find a provider holding client data and turn it Byzantine: every
    // read it serves is bit-flipped from here on.
    let bytes_per = d.client_bytes_per_provider("c").unwrap();
    let victim = bytes_per
        .iter()
        .position(|b| *b > 0)
        .expect("some provider holds data");
    let tel = d.enable_telemetry();
    FaultPlan::new(0xB12A)
        .corrupt(victim, FaultMode::BitFlip, 1.0)
        .try_arm(&fleet)
        .expect("victim index is in range");

    for _ in 0..4 {
        let got = session.get_file("hot").unwrap();
        assert_eq!(got.data, data, "reads stay byte-identical under corruption");
    }
    assert_eq!(d.health().state(victim), BreakerState::Open);
    let reg = tel.registry().unwrap();
    assert!(reg.counter_value("breaker_transitions_total", "open") >= 1);
    assert!(reg.counter_total("corruption_detected_total") >= 1);

    // New writes avoid the quarantined provider entirely.
    let before = d.providers()[victim].chunk_count();
    session
        .put_file("new", &body(10, 8 << 10), PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    assert_eq!(
        d.providers()[victim].chunk_count(),
        before,
        "open breaker sheds placements"
    );
    assert!(reg.counter_total("breaker_shed_total") >= 1);
    assert_eq!(session.get_file("new").unwrap().data, body(10, 8 << 10));
    assert_no_overwrites(&fleet);
}

/// Bit-rot at rest is invisible to the existence-only scrub but caught by
/// `scrub_verify`, and `try_repair_verify` heals it in place.
#[test]
fn scrub_verify_catches_bit_rot_and_repair_heals_it() {
    let d = distributor_with(fleet(6), 4, 1);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(5, 16 << 10);
    session
        .put_file("cold", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // Rot one byte of one object, somewhere in the payload.
    let providers = d.providers();
    let rotted = providers
        .iter()
        .position(|p| p.chunk_count() > 0)
        .expect("fleet holds objects");
    let p = &providers[rotted];
    let vid = p.virtual_id_list()[0];
    let mut raw = p.get(vid).unwrap().to_vec();
    let last = raw.len() - 1;
    raw[last] ^= 0x80;
    p.corrupt_at_rest(vid, Bytes::from(raw)).unwrap();

    let tel = d.enable_telemetry();
    // The existence-only scrub sees nothing wrong…
    let shallow = d.scrub();
    assert_eq!(shallow.corrupt_shards, 0);
    assert!(shallow.is_healthy());
    // …the verifying scrub does.
    let deep = d.scrub_verify();
    assert_eq!(deep.corrupt_shards, 1);
    assert!(!deep.is_healthy());
    let reg = tel.registry().unwrap();
    assert_eq!(reg.counter_total("scrub_corrupt_shards"), 1);
    // Counted and scored once, by the read that detected it: a second
    // feed of the same corruption would trip the breaker on its own.
    assert_eq!(reg.counter_total("corruption_detected_total"), 1);
    let score = d.health().score(rotted);
    assert!(0.0 < score && score <= EWMA_ALPHA, "score {score}");
    assert_eq!(d.health().state(rotted), BreakerState::Closed);

    // Repair with verification rebuilds the rotted shard from parity.
    let report = d.try_repair_verify().unwrap();
    assert!(report.is_complete());
    assert!(report.shards_rebuilt >= 1);
    let after = d.scrub_verify();
    assert_eq!(after.corrupt_shards, 0);
    assert!(after.is_healthy());
    assert_eq!(session.get_file("cold").unwrap().data, data);
    // The rotted object was replaced under a fresh id — and deleted: no
    // provider holds an object the tables no longer name.
    let held: HashSet<_> = providers.iter().flat_map(|p| p.virtual_id_list()).collect();
    assert_eq!(held, d.referenced_vids());
    assert_no_overwrites(&providers);
}

/// A one-chunk RS(4,1) file — one data object, one parity object — and
/// the index of the provider holding the data object.
fn one_chunk_file(d: &CloudDataDistributor, data: &[u8]) -> usize {
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    d.session("c", "pw")
        .unwrap()
        .put_file("one", data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    let held = d.client_chunks_per_provider("c").unwrap();
    held.iter().position(|&n| n == 1).expect("a data holder")
}

/// What every provider holds, byte for byte.
fn fleet_state(fleet: &[Arc<CloudProvider>]) -> Vec<Vec<(u64, Bytes)>> {
    fleet
        .iter()
        .map(|p| {
            let mut held: Vec<(u64, Bytes)> = p
                .virtual_id_list()
                .into_iter()
                .map(|vid| (vid.0, p.get(vid).unwrap()))
                .collect();
            held.sort_by_key(|(vid, _)| *vid);
            held
        })
        .collect()
}

/// `update_chunk` reads the chunk's pre-state through the same boundary
/// as a get: a provider that serves it corrupt fails the verb with the
/// typed error, changes nothing — and is counted and scored for it.
#[test]
fn corrupt_pre_state_fails_the_update_and_scores_the_provider() {
    let fleet = fleet(8);
    let d = distributor_with(fleet.clone(), 4, 1);
    let data = body(3, 900);
    let holder = one_chunk_file(&d, &data);
    let session = d.session("c", "pw").unwrap();
    let tel = d.enable_telemetry();
    FaultPlan::new(0xF11B)
        .corrupt(holder, FaultMode::BitFlip, 1.0)
        .try_arm(&fleet)
        .expect("holder index is in range");

    let err = session.update_chunk("one", 0, &body(4, 900)).unwrap_err();
    assert!(matches!(err, CoreError::ShardCorrupt { .. }), "{err}");
    let reg = tel.registry().unwrap();
    assert_eq!(reg.counter_total("corruption_detected_total"), 1);
    assert!(d.health().penalty(holder) > 0.0);
    // Untouched: no snapshot exists, and the chunk still reads as put
    // (rebuilt from parity — the rot is at rest now).
    assert!(session.restore_snapshot("one", 0).is_err());
    assert_eq!(session.get_file("one").unwrap().data, data);
    assert_no_overwrites(&fleet);
}

/// `migrate_chunk` checks the source object against the row's length like
/// every other read: a provider serving an intact frame of another length
/// under the chunk's vid — a stale object replayed under it — must not
/// have it re-framed under a fresh vid as if it were good.
#[test]
fn migration_refuses_a_stale_source_object() {
    let fleet = fleet(8);
    let d = distributor_with(fleet.clone(), 4, 1);
    let data = body(5, 900);
    let holder = one_chunk_file(&d, &data);
    let p = &fleet[holder];
    let [vid] = p.virtual_id_list()[..] else {
        panic!("the holder holds the data object only");
    };
    let stored = integrity::unframe(vid, p.get(vid).unwrap()).unwrap();
    let stale = integrity::frame(vid, &stored[..stored.len() / 2]);
    p.corrupt_at_rest(vid, stale).unwrap();

    let target = fleet
        .iter()
        .position(|p| p.chunk_count() == 0)
        .expect("an empty provider");
    let before = fleet_state(&fleet);
    let err = d.migrate_chunk("c", "pw", "one", 0, target).unwrap_err();
    assert!(matches!(err, CoreError::ShardCorrupt { .. }), "{err}");
    // Nothing under a fresh vid, nothing moved, nothing rewritten.
    assert_eq!(fleet_state(&fleet), before);
    assert_eq!(d.client_chunks_per_provider("c").unwrap()[holder], 1);
    let session = d.session("c", "pw").unwrap();
    assert_eq!(session.get_file("one").unwrap().data, data);
    assert_no_overwrites(&fleet);
}
