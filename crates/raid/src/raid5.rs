//! RAID-5 — the paper's default assurance level (§IV-A): one XOR parity
//! shard `P = D₀ ⊕ D₁ ⊕ … ⊕ D_{k−1}`, any one lost shard rebuilt.
//!
//! There is no RAID-5 implementation here: the level is geometry `(k, 1)`
//! of [`RsCodec`], reached through
//! [`StripeCodec`](crate::StripeCodec) with
//! [`RaidLevel::Raid5`](crate::RaidLevel::Raid5).

use crate::{Result, RsCodec};

/// [`RsCodec::parity_padded_into`] at `(shards.len(), 1)`. Kept only
/// because the benchmark's replay row calls it; a later `benchmark` PR
/// drops it.
pub fn parity_padded_into(shards: &[&[u8]], width: usize, out: &mut Vec<u8>) -> Result<()> {
    RsCodec::new(shards.len(), 1)?.parity_padded_into(shards, width, std::slice::from_mut(out))
}

#[cfg(test)]
mod tests {
    //! The behaviours the dedicated RAID-5 code was tested for, now
    //! asserted of geometry `(k, 1)` on the one engine.

    use super::*;
    use crate::RaidError;

    fn parity(shards: &[&[u8]]) -> Result<Vec<u8>> {
        Ok(RsCodec::new(shards.len(), 1)?.parity(shards)?.remove(0))
    }

    fn parity_padded(shards: &[&[u8]], width: usize) -> Result<Vec<u8>> {
        let mut p = vec![0xAA; 3]; // stale contents must be overwritten
        parity_padded_into(shards, width, &mut p)?;
        Ok(p)
    }

    #[test]
    fn parity_of_single_shard_is_shard() {
        let d = [1u8, 2, 3];
        assert_eq!(parity(&[&d]).unwrap(), d.to_vec());
    }

    #[test]
    fn parity_xor_known() {
        let a = [0b1010u8];
        let b = [0b0110u8];
        assert_eq!(parity(&[&a, &b]).unwrap(), vec![0b1100u8]);
        assert_eq!(parity_padded(&[&a, &b], 1).unwrap(), vec![0b1100u8]);
    }

    #[test]
    fn reconstruct_any_data_shard() {
        let shards: Vec<Vec<u8>> = vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]];
        let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        let p = parity(&refs).unwrap();
        let codec = RsCodec::new(3, 1).unwrap();
        for missing in 0..shards.len() {
            let mut present: Vec<(usize, &[u8])> = refs.iter().copied().enumerate().collect();
            present.push((3, &p));
            present.remove(missing);
            assert_eq!(
                codec.reconstruct(&present).unwrap(),
                shards,
                "failed for shard {missing}"
            );
        }
    }

    #[test]
    fn reconstruct_parity_shard() {
        let shards: Vec<Vec<u8>> = vec![vec![10, 20], vec![30, 40]];
        let present: Vec<(usize, &[u8])> =
            shards.iter().map(|s| s.as_slice()).enumerate().collect();
        let p = parity(&[&shards[0], &shards[1]]).unwrap();
        // Parity lost: recompute from data alone.
        let codec = RsCodec::new(2, 1).unwrap();
        assert_eq!(codec.reconstruct_shard(&present, 2).unwrap(), p);
    }

    #[test]
    fn verify_detects_corruption() {
        let a = [1u8, 2];
        let b = [3u8, 4];
        let codec = RsCodec::new(2, 1).unwrap();
        let p = codec.parity(&[&a, &b]).unwrap();
        assert!(codec.verify(&[&a, &b], &p).unwrap());
        let mut bad = p.clone();
        bad[0][0] ^= 0xFF;
        assert!(!codec.verify(&[&a, &b], &bad).unwrap());
    }

    #[test]
    fn errors() {
        assert!(matches!(parity(&[]), Err(RaidError::BadGeometry { .. })));
        let a = [1u8, 2];
        let b = [3u8];
        assert_eq!(
            parity(&[&a, &b]).unwrap_err(),
            RaidError::ShardLengthMismatch
        );
    }

    #[test]
    fn empty_width_shards_ok() {
        let a: [u8; 0] = [];
        assert!(parity(&[&a[..], &a[..]]).unwrap().is_empty());
        assert!(parity_padded(&[&a[..], &a[..]], 0).unwrap().is_empty());
    }

    #[test]
    fn wide_parity_matches_scalar_reference() {
        // Cover word-multiple, tail-carrying, and sub-word widths.
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000] {
            let shards: Vec<Vec<u8>> = (0..5)
                .map(|i| {
                    (0..len)
                        .map(|b| ((i * 31 + b * 7 + 3) % 251) as u8)
                        .collect()
                })
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
            let codec = RsCodec::new(5, 1).unwrap();
            assert_eq!(
                codec.parity(&refs).unwrap(),
                codec.parity_scalar(&refs).unwrap(),
                "len={len}"
            );
        }
    }

    #[test]
    fn padded_parity_matches_explicit_zero_pad() {
        let full: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10, 0, 0]];
        let short: Vec<Vec<u8>> = vec![vec![1, 2, 3, 4], vec![5, 6, 7, 8], vec![9, 10]];
        let full_refs: Vec<&[u8]> = full.iter().map(|s| s.as_slice()).collect();
        let short_refs: Vec<&[u8]> = short.iter().map(|s| s.as_slice()).collect();
        assert_eq!(
            parity_padded(&short_refs, 4).unwrap(),
            parity(&full_refs).unwrap()
        );
        // Geometry errors.
        assert!(matches!(
            parity_padded(&[], 4),
            Err(RaidError::BadGeometry { .. })
        ));
        assert!(matches!(
            parity_padded(&short_refs, 1),
            Err(RaidError::BadGeometry { .. })
        ));
    }
}
