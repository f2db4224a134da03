//! Property tests for the erasure-coding layer.

use fragcloud_raid::{gf256, RaidLevel, RsCodec, StripeCodec};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Field axioms on random elements.
    #[test]
    fn gf256_field_axioms(a: u8, b: u8, c: u8) {
        // Commutativity and associativity of multiplication.
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(gf256::mul(gf256::mul(a, b), c), gf256::mul(a, gf256::mul(b, c)));
        // Distributivity over addition (xor).
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
        // Inverse law.
        if a != 0 {
            prop_assert_eq!(gf256::mul(a, gf256::inv(a)), 1);
            prop_assert_eq!(gf256::div(gf256::mul(a, b), a), b);
        }
    }

    /// RAID-5 parity is its own reconstruction for every erased position.
    #[test]
    fn raid5_reconstructs_any_position(
        data in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..64),
            2..6,
        ),
        lose_pick in any::<usize>(),
    ) {
        // Equalize lengths.
        let width = data.iter().map(Vec::len).max().expect("non-empty stripe");
        let shards: Vec<Vec<u8>> = data
            .into_iter()
            .map(|mut s| {
                s.resize(width, 0);
                s
            })
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let codec = RsCodec::new(refs.len(), 1).expect("valid stripe");
        let p = codec.parity(&refs).expect("valid stripe");
        let lose = lose_pick % shards.len();
        let present: Vec<(usize, &[u8])> = refs
            .iter()
            .copied()
            .chain([p[0].as_slice()])
            .enumerate()
            .filter(|(i, _)| *i != lose)
            .collect();
        prop_assert_eq!(
            codec.reconstruct_shard(&present, lose).expect("one loss"),
            shards[lose].clone()
        );
    }

    /// RAID-6 verify accepts generated parity and rejects any bit flip.
    #[test]
    fn raid6_verify_detects_any_single_bitflip(
        data in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 4..32),
            2..5,
        ),
        flip_shard in any::<usize>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let width = data.iter().map(Vec::len).max().expect("non-empty");
        let shards: Vec<Vec<u8>> = data
            .into_iter()
            .map(|mut s| {
                s.resize(width, 0);
                s
            })
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let codec = RsCodec::new(refs.len(), 2).expect("valid stripe");
        let pq = codec.parity(&refs).expect("valid stripe");
        prop_assert!(codec.verify(&refs, &pq).expect("same geometry"));

        let mut corrupted = shards.clone();
        let si = flip_shard % corrupted.len();
        let bi = flip_byte % width;
        corrupted[si][bi] ^= 1 << flip_bit;
        let crefs: Vec<&[u8]> = corrupted.iter().map(|s| s.as_slice()).collect();
        prop_assert!(!codec.verify(&crefs, &pq).expect("same geometry"));
    }

    /// Codec roundtrip with arbitrary original_len boundaries.
    #[test]
    fn codec_roundtrip_arbitrary_blobs(
        blob in proptest::collection::vec(any::<u8>(), 0..2048),
        k in 1usize..10,
    ) {
        for level in [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6] {
            let codec = StripeCodec::new(k, level).expect("valid geometry");
            let enc = codec.encode(&blob).expect("encode");
            let avail: Vec<(usize, &[u8])> = enc
                .shards
                .iter()
                .enumerate()
                .map(|(i, s)| (i, s.as_slice()))
                .collect();
            prop_assert_eq!(codec.decode(&avail, blob.len()).expect("decode"), blob.clone());
        }
    }

    /// The wide (word/SIMD) parity kernel must agree with the
    /// byte-at-a-time scalar reference for every geometry: zero-length
    /// shards, 1..8-byte tails, and misaligned start addresses (sub-slicing
    /// from `offset` shifts the base pointer off word boundaries).
    #[test]
    fn wide_parity_matches_scalar_reference(
        data in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..130),
            1..6,
        ),
        offset in 0usize..8,
    ) {
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let shards: Vec<Vec<u8>> = data
            .into_iter()
            .map(|mut s| {
                s.resize(width, 0);
                s
            })
            .collect();
        let off = offset.min(width);
        let refs: Vec<&[u8]> = shards.iter().map(|s| &s[off..]).collect();
        let codec = RsCodec::new(refs.len(), 1).expect("valid stripe");
        prop_assert_eq!(codec.parity(&refs).expect("wide"), codec.parity_scalar(&refs).expect("scalar"));
    }

    /// Wide `mul_acc` ≡ scalar reference across lengths (including the
    /// c == 0 and c == 1 special-cased dispatch arms) and misaligned
    /// sub-slices.
    #[test]
    fn wide_mul_acc_matches_scalar_reference(
        data in proptest::collection::vec(any::<u8>(), 0..257),
        c: u8,
        offset in 0usize..8,
    ) {
        let off = offset.min(data.len());
        let src = &data[off..];
        let mut acc_wide: Vec<u8> = (0..src.len()).map(|i| (i * 37 + 11) as u8).collect();
        let mut acc_scalar = acc_wide.clone();
        gf256::mul_acc(&mut acc_wide, src, c);
        gf256::mul_acc_scalar(&mut acc_scalar, src, c);
        prop_assert_eq!(acc_wide, acc_scalar);
    }

    /// The padded-parity fast path (no materialized zero-pad) must match
    /// parity over explicitly padded shards, for every parity count.
    #[test]
    fn padded_parity_matches_explicit_padding(
        data in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64),
            1..5,
        ),
        m in 1usize..=4,
    ) {
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let padded: Vec<Vec<u8>> = data
            .iter()
            .map(|s| {
                let mut p = s.clone();
                p.resize(width, 0);
                p
            })
            .collect();
        let short_refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let full_refs: Vec<&[u8]> = padded.iter().map(|s| s.as_slice()).collect();
        let codec = RsCodec::new(data.len(), m).expect("valid geometry");
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); m];
        codec.parity_padded_into(&short_refs, width, &mut out).expect("padded");
        prop_assert_eq!(out, codec.parity(&full_refs).expect("full"));
    }

    /// RS(k, m) round-trip under an arbitrary erasure pattern of up to m
    /// losses: shard widths are arbitrary (including zero and sub-word
    /// tails) and the shards are viewed through a misaligned sub-slice so
    /// the SIMD kernels cross word boundaries off-base.
    #[test]
    fn rs_roundtrips_any_erasure_pattern_up_to_m(
        k in 1usize..10,
        m in 1usize..5,
        width in 0usize..130,
        offset in 0usize..8,
        loss_seed in any::<u64>(),
        fill in any::<u8>(),
    ) {
        let shards: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                (0..width)
                    .map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8) ^ fill)
                    .collect()
            })
            .collect();
        let off = offset.min(width);
        let refs: Vec<&[u8]> = shards.iter().map(|s| &s[off..]).collect();
        let codec = RsCodec::new(k, m).expect("valid geometry");
        let parity = codec.parity(&refs).expect("encode");
        prop_assert_eq!(&parity, &codec.parity_scalar(&refs).expect("scalar"));

        // Erase up to m members chosen by the seed (possibly fewer when
        // the seed picks duplicates — any pattern ≤ m must decode).
        let total = k + m;
        let mut lost = std::collections::HashSet::new();
        let mut s = loss_seed;
        for _ in 0..m {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            lost.insert((s >> 33) as usize % total);
        }
        let avail: Vec<(usize, &[u8])> = refs
            .iter()
            .copied()
            .chain(parity.iter().map(|p| p.as_slice()))
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .collect();
        let rec = codec.reconstruct(&avail).expect("within tolerance");
        prop_assert_eq!(rec, refs.iter().map(|r| r.to_vec()).collect::<Vec<_>>());
    }

    /// RS(k, 1) and RS(k, 2) parity against the RAID-5/6 definitions,
    /// written out here byte by byte: P is the XOR of the column, Q the
    /// XOR of `gʲ · byte`. Every RAID-5/6 stripe on a provider was written
    /// with these bytes, so this (with the coefficient pins in `rs.rs`)
    /// is what keeps them decodable.
    #[test]
    fn rs_small_m_matches_xor_and_pq_definitions(
        data in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..100),
            1..8,
        ),
    ) {
        let width = data.iter().map(Vec::len).max().unwrap_or(0);
        let shards: Vec<Vec<u8>> = data
            .into_iter()
            .map(|mut s| {
                s.resize(width, 0);
                s
            })
            .collect();
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let k = refs.len();
        let p: Vec<u8> = (0..width)
            .map(|b| shards.iter().fold(0, |acc, s| acc ^ s[b]))
            .collect();
        let q: Vec<u8> = (0..width)
            .map(|b| {
                shards.iter().enumerate().fold(0, |acc, (j, s)| {
                    acc ^ gf256::mul(gf256::pow(gf256::GENERATOR, j as u32), s[b])
                })
            })
            .collect();

        let rs1 = RsCodec::new(k, 1).expect("geometry").parity(&refs).expect("rs1");
        prop_assert_eq!(&rs1, &vec![p.clone()]);
        let rs2 = RsCodec::new(k, 2).expect("geometry").parity(&refs).expect("rs2");
        prop_assert_eq!(&rs2, &vec![p, q]);
    }

    /// The stripe facade's Rs level round-trips arbitrary blobs like the
    /// named levels do.
    #[test]
    fn codec_roundtrip_rs_levels(
        blob in proptest::collection::vec(any::<u8>(), 0..1024),
        k in 1usize..8,
        m in 3usize..6,
    ) {
        let codec = StripeCodec::new(k, RaidLevel::Rs { parity: m as u8 })
            .expect("valid geometry");
        let enc = codec.encode(&blob).expect("encode");
        prop_assert_eq!(enc.shards.len(), k + m);
        let avail: Vec<(usize, &[u8])> = enc
            .shards
            .iter()
            .enumerate()
            .skip(m) // lose the first m members — worst case for data loss
            .map(|(i, s)| (i, s.as_slice()))
            .collect();
        prop_assert_eq!(codec.decode(&avail, blob.len()).expect("decode"), blob.clone());
    }

    /// Parity is linear: P(a ⊕ b) = P(a) ⊕ P(b) over same-width shard sets.
    #[test]
    fn raid5_parity_is_linear(
        a in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 16), 3),
        b in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 16), 3),
    ) {
        let xor: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let codec = RsCodec::new(3, 1).expect("valid stripe");
        let parity = |v: &[Vec<u8>]| {
            codec.parity(&v.iter().map(|s| s.as_slice()).collect::<Vec<_>>()).expect("parity").remove(0)
        };
        let (pa, pb, pxor) = (parity(&a), parity(&b), parity(&xor));
        let manual: Vec<u8> = pa.iter().zip(&pb).map(|(x, y)| x ^ y).collect();
        prop_assert_eq!(pxor, manual);
    }
}
