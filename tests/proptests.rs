//! Cross-crate property tests: the system-level invariants DESIGN.md §7
//! promises, checked with proptest-generated inputs.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig, PlacementStrategy};
use fragcloud::core::vid::VidAllocator;
use fragcloud::core::{chunker, mislead, unframe, CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud::raid::{RaidLevel, StripeCodec};
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use proptest::prelude::*;
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

/// `mislead::inject` / `mislead::strip` as they stood before the kernels
/// were rewritten (BTreeSet sampler, `extend_from_slice` splice, per-byte
/// strip), kept verbatim as the oracle: the library must return the same
/// bytes and positions for every input, because stored objects, chunk
/// tables and journals were written from them.
mod oracle {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    pub fn inject(chunk: &[u8], rate: f64, seed: u64) -> (Vec<u8>, Vec<usize>) {
        assert!(
            (0.0..0.5).contains(&rate),
            "mislead rate must be in [0, 0.5)"
        );
        if rate == 0.0 || chunk.is_empty() {
            return (chunk.to_vec(), Vec::new());
        }
        let n_inject = ((chunk.len() as f64 * rate).ceil() as usize).max(1);
        let out_len = chunk.len() + n_inject;
        let mut rng = StdRng::seed_from_u64(seed);

        let mut positions = std::collections::BTreeSet::new();
        while positions.len() < n_inject {
            positions.insert(rng.gen_range(0..out_len));
        }
        let positions: Vec<usize> = positions.into_iter().collect();

        let mut out = Vec::with_capacity(out_len);
        let mut copied = 0usize;
        for (k, &p) in positions.iter().enumerate() {
            let run_end = p - k;
            out.extend_from_slice(&chunk[copied..run_end]);
            copied = run_end;
            let base = chunk[rng.gen_range(0..chunk.len())];
            out.push(base.wrapping_add(rng.gen_range(1..=32)));
        }
        out.extend_from_slice(&chunk[copied..]);
        (out, positions)
    }

    pub fn strip(stored: &[u8], positions: &[usize]) -> Vec<u8> {
        let mut out = Vec::with_capacity(stored.len() - positions.len());
        let mut pos_iter = positions.iter().peekable();
        for (i, &b) in stored.iter().enumerate() {
            if pos_iter.peek() == Some(&&i) {
                pos_iter.next();
            } else {
                out.push(b);
            }
        }
        out
    }
}

fn assert_mislead_matches_oracle(data: &[u8], rate: f64, seed: u64) {
    let (stored, positions) = mislead::inject(data, rate, seed);
    let (want_stored, want_positions) = oracle::inject(data, rate, seed);
    let ctx = format!("len={} rate={rate} seed={seed}", data.len());
    assert_eq!(positions, want_positions, "positions, {ctx}");
    assert_eq!(stored, want_stored, "stored bytes, {ctx}");
    assert_eq!(
        mislead::strip(&stored, &positions),
        oracle::strip(&stored, &positions),
        "strip, {ctx}"
    );
    assert_eq!(
        mislead::strip(&stored, &positions),
        data,
        "roundtrip, {ctx}"
    );
}

/// The lengths where the 16- and 32-byte block copies switch on and off (a
/// run or the buffer tail shorter than, equal to, or just past one block)
/// and the two chunk sizes the distributor runs, at the rates' extremes.
#[test]
fn mislead_matches_oracle_at_block_copy_edges() {
    for len in [
        0usize, 1, 2, 15, 16, 17, 31, 32, 33, 4095, 4096, 4097, 65_536, 70_000,
    ] {
        let data: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
        for rate in [0.001, 0.02, 0.08, 0.3, 0.49] {
            for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                assert_mislead_matches_oracle(&data, rate, seed ^ len as u64);
            }
        }
    }
}

/// A PL3 / 0.08 put leaves on the providers exactly the objects the oracle
/// predicts — every data chunk's decoy-injected bytes and every stripe's
/// parity over them — and reads back what was written.
#[test]
fn provider_state_at_max_privacy_matches_oracle() {
    const K: usize = 4;
    let config = DistributorConfig {
        mislead_rate: 0.08,
        stripe_width: K,
        ..Default::default()
    };
    let chunk_size = config.chunk_sizes.size_for(PrivacyLevel::High);
    let data: Vec<u8> = (0..10 * chunk_size + 123)
        .map(|i| (i * 7 + i / 251) as u8)
        .collect();

    let providers = fleet(6);
    let d = CloudDataDistributor::try_new(providers.clone(), config).expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High)
        .expect("client");
    let session = d.session("c", "pw").expect("valid pair");
    session
        .put_file("f", &data, PrivacyLevel::High, PutOptions::new())
        .expect("upload");
    assert_eq!(session.get_file("f").expect("read").data, data);
    assert_eq!(session.get_file_parallel("f").expect("read").data, data);

    // Data vids are the allocator's first ids, in chunk order; each chunk
    // is injected under `seed ^ vid`.
    let vids = VidAllocator::new(config.seed);
    let mut expected: Vec<Vec<u8>> = Vec::new();
    for group in data.chunks(chunk_size).collect::<Vec<_>>().chunks(K) {
        let stored: Vec<Vec<u8>> = group
            .iter()
            .map(|chunk| oracle::inject(chunk, 0.08, config.seed ^ vids.allocate().0).0)
            .collect();
        let width = stored.iter().map(Vec::len).max().expect("non-empty group");
        let mut parity = vec![0u8; width];
        for shard in &stored {
            for (p, b) in parity.iter_mut().zip(shard) {
                *p ^= b;
            }
        }
        expected.extend(stored);
        expected.push(parity);
    }
    let mut held: Vec<Vec<u8>> = providers
        .iter()
        .flat_map(|p| p.observer().snapshot())
        .map(|o| unframe(o.key, o.data).expect("intact frame").to_vec())
        .collect();
    expected.sort();
    held.sort();
    assert_eq!(held.len(), expected.len());
    assert!(
        held == expected,
        "provider objects differ from the oracle's"
    );
}

fn arb_pl() -> impl Strategy<Value = PrivacyLevel> {
    (0u8..4).prop_map(|v| PrivacyLevel::from_u8(v).expect("0..4"))
}

/// Cases per property: `PROPTEST_CASES` when set (CI widens the mislead
/// properties with it), 64 otherwise.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// split ∘ join = id for any payload and privacy level.
    #[test]
    fn chunker_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..5000), pl in arb_pl()) {
        let schedule = ChunkSizeSchedule { sizes: [257, 101, 43, 11] };
        let chunks = chunker::split(&data, pl, &schedule);
        prop_assert_eq!(chunker::join(&chunks), data);
    }

    /// inject ∘ strip = id for any payload and rate.
    #[test]
    fn mislead_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..2000),
        rate in 0.0f64..0.49,
        seed in any::<u64>(),
    ) {
        let (stored, positions) = mislead::inject(&data, rate, seed);
        prop_assert_eq!(&mislead::strip(&stored, &positions), &data);
        // `strip_into` appends: what the buffer already held stays put.
        let held = vec![0xA5u8; 1 + (seed % 40) as usize];
        let mut out = held.clone();
        mislead::strip_into(&stored, &positions, &mut out);
        prop_assert_eq!(out, [held, data].concat());
    }

    /// The rewritten kernels return the oracle's bytes and positions for
    /// any payload up to past the largest chunk size, any legal rate
    /// (weighted toward the extremes) and any seed.
    #[test]
    fn mislead_matches_oracle(
        data in proptest::collection::vec(any::<u8>(), 0..=70_000),
        rate in prop_oneof![Just(0.001), Just(0.49), 0.0f64..0.5],
        seed in any::<u64>(),
    ) {
        assert_mislead_matches_oracle(&data, rate, seed);
    }

    /// `strip` agrees with the per-byte oracle on arbitrary position sets,
    /// not only the ones `inject` draws (dense clusters, first/last byte).
    #[test]
    fn strip_matches_oracle_on_arbitrary_positions(
        stored in proptest::collection::vec(any::<u8>(), 1..600),
        picks in proptest::collection::btree_set(any::<usize>(), 0..300),
    ) {
        let positions: Vec<usize> = picks
            .into_iter()
            .map(|p| p % stored.len())
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        prop_assert_eq!(
            mislead::strip(&stored, &positions),
            oracle::strip(&stored, &positions)
        );
    }

    /// RAID stripes decode after any tolerable erasure pattern.
    #[test]
    fn stripe_roundtrip_with_erasures(
        data in proptest::collection::vec(any::<u8>(), 0..3000),
        k in 1usize..8,
        lose in proptest::collection::vec(any::<usize>(), 0..2),
        level_pick in 0u8..3,
    ) {
        let level = match level_pick {
            0 => RaidLevel::None,
            1 => RaidLevel::Raid5,
            _ => RaidLevel::Raid6,
        };
        let codec = StripeCodec::new(k, level).expect("valid geometry");
        let enc = codec.encode(&data).expect("encode");
        let total = codec.total_shards();
        // Drop up to `fault_tolerance` distinct shards.
        let mut lost: Vec<usize> = lose
            .into_iter()
            .map(|v| v % total)
            .collect();
        lost.sort_unstable();
        lost.dedup();
        lost.truncate(level.fault_tolerance());
        let avail: Vec<(usize, &[u8])> = enc
            .shards
            .iter()
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .map(|(i, s)| (i, s.as_slice()))
            .collect();
        prop_assert_eq!(codec.decode(&avail, data.len()).expect("decode"), data);
    }

    /// End-to-end distributor roundtrip for arbitrary payloads, levels and
    /// placement strategies; placement never violates the PL rule.
    #[test]
    fn distributor_roundtrip_and_policy(
        data in proptest::collection::vec(any::<u8>(), 0..4000),
        pl in arb_pl(),
        placement_pick in 0u8..2,
        raid_pick in 0u8..3,
    ) {
        let placement = if placement_pick == 0 {
            PlacementStrategy::CheapestEligible
        } else {
            PlacementStrategy::RandomEligible
        };
        let raid = match raid_pick {
            0 => RaidLevel::None,
            1 => RaidLevel::Raid5,
            _ => RaidLevel::Raid6,
        };
        let providers = fleet(8);
        let d = CloudDataDistributor::try_new(
            providers.clone(),
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule { sizes: [512, 256, 128, 64] },
                stripe_width: 3,
                raid_level: raid,
                placement,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High).expect("client");
        let session = d.session("c", "pw").expect("valid pair");
        session.put_file("f", &data, pl, PutOptions::new()).expect("upload");
        let got = session.get_file("f").expect("read");
        prop_assert_eq!(got.data, data);
        // PL rule: a provider below the file PL holds nothing.
        for p in &providers {
            if p.profile().privacy_level < pl {
                prop_assert_eq!(p.chunk_count(), 0);
            }
        }
    }

    /// Misleading data never corrupts the owner's view.
    #[test]
    fn mislead_through_distributor(
        data in proptest::collection::vec(any::<u8>(), 1..3000),
        rate in 0.01f64..0.3,
    ) {
        let d = CloudDataDistributor::try_new(
            fleet(6),
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(333),
                stripe_width: 3,
                mislead_rate: rate,
                ..Default::default()
            },
        )
        .expect("valid config");
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High).expect("client");
        let session = d.session("c", "pw").expect("valid pair");
        let receipt = session
            .put_file("f", &data, PrivacyLevel::High, PutOptions::new())
            .expect("upload");
        prop_assert!(receipt.bytes_stored > data.len());
        prop_assert_eq!(session.get_file("f").expect("read").data, data);
    }
}
