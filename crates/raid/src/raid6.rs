//! RAID-6 — the paper's "higher assurance" level (§IV-A): dual parity
//! `P = ⊕ᵢ Dᵢ`, `Q = ⊕ᵢ gⁱ·Dᵢ` over GF(2⁸), any two lost shards rebuilt.
//!
//! There is no RAID-6 implementation here: the level is geometry `(k, 2)`
//! of [`RsCodec`], reached through
//! [`StripeCodec`](crate::StripeCodec) with
//! [`RaidLevel::Raid6`](crate::RaidLevel::Raid6).

use crate::{Result, RsCodec};

/// [`RsCodec::parity_padded_into`] at `(shards.len(), 2)` with P and Q in
/// separate buffers. Kept only because the benchmark's replay row calls
/// it; a later `benchmark` PR drops it.
pub fn parity_padded_into(
    shards: &[&[u8]],
    width: usize,
    p: &mut Vec<u8>,
    q: &mut Vec<u8>,
) -> Result<()> {
    let codec = RsCodec::new(shards.len(), 2)?;
    let mut rows = [std::mem::take(p), std::mem::take(q)];
    let res = codec.parity_padded_into(shards, width, &mut rows);
    [*p, *q] = rows;
    res
}

#[cfg(test)]
mod tests {
    //! The behaviours the dedicated RAID-6 code was tested for, now
    //! asserted of geometry `(k, 2)` on the one engine.

    use super::*;
    use crate::RaidError;

    fn stripe(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len)
                    .map(|b| ((i * 37 + b * 11 + 5) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn refs(v: &[Vec<u8>]) -> Vec<&[u8]> {
        v.iter().map(|s| s.as_slice()).collect()
    }

    /// `[P, Q]` for `data`.
    fn parity(data: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        RsCodec::new(data.len(), 2)?.parity(&refs(data))
    }

    /// Reconstructs the data stripe with the members in `lost` (stripe
    /// indices: data `0..k`, P = `k`, Q = `k + 1`) erased.
    fn reconstruct_without(data: &[Vec<u8>], lost: &[usize]) -> Result<Vec<Vec<u8>>> {
        let pq = parity(data)?;
        let survivors: Vec<(usize, &[u8])> = data
            .iter()
            .chain(&pq)
            .map(|s| s.as_slice())
            .enumerate()
            .filter(|(i, _)| !lost.contains(i))
            .collect();
        RsCodec::new(data.len(), 2)?.reconstruct(&survivors)
    }

    #[test]
    fn p_matches_raid5_parity() {
        let data = stripe(4, 64);
        let p5 = RsCodec::new(4, 1).unwrap().parity(&refs(&data)).unwrap();
        assert_eq!(parity(&data).unwrap()[0], p5[0]);
    }

    #[test]
    fn reconstruct_nothing_missing() {
        let data = stripe(3, 16);
        assert_eq!(reconstruct_without(&data, &[]).unwrap(), data);
    }

    #[test]
    fn reconstruct_every_single_data_loss() {
        let data = stripe(5, 32);
        for lost in 0..5 {
            assert_eq!(
                reconstruct_without(&data, &[lost]).unwrap(),
                data,
                "lost={lost}"
            );
        }
    }

    #[test]
    fn reconstruct_every_pair_of_data_losses() {
        let data = stripe(6, 24);
        for a in 0..6 {
            for b in (a + 1)..6 {
                assert_eq!(
                    reconstruct_without(&data, &[a, b]).unwrap(),
                    data,
                    "lost {a},{b}"
                );
            }
        }
    }

    #[test]
    fn reconstruct_data_plus_p_lost() {
        let data = stripe(4, 16);
        for lost in 0..4 {
            assert_eq!(
                reconstruct_without(&data, &[lost, 4]).unwrap(),
                data,
                "lost={lost}+P"
            );
        }
    }

    #[test]
    fn reconstruct_data_plus_q_lost() {
        let data = stripe(4, 16);
        for lost in 0..4 {
            assert_eq!(
                reconstruct_without(&data, &[lost, 5]).unwrap(),
                data,
                "lost={lost}+Q"
            );
        }
    }

    #[test]
    fn both_parities_lost_is_fine() {
        let data = stripe(3, 8);
        assert_eq!(reconstruct_without(&data, &[3, 4]).unwrap(), data);
    }

    #[test]
    fn three_losses_rejected() {
        let data = stripe(5, 8);
        assert!(matches!(
            reconstruct_without(&data, &[0, 1, 2]),
            Err(RaidError::TooManyErasures { missing: 3, .. })
        ));
    }

    #[test]
    fn verify_detects_corruption() {
        let data = stripe(4, 16);
        let codec = RsCodec::new(4, 2).unwrap();
        let pq = parity(&data).unwrap();
        assert!(codec.verify(&refs(&data), &pq).unwrap());
        let mut bad = data.clone();
        bad[2][5] ^= 1;
        assert!(!codec.verify(&refs(&bad), &pq).unwrap());
    }

    #[test]
    fn geometry_errors() {
        assert!(matches!(parity(&[]), Err(RaidError::BadGeometry { .. })));
        assert_eq!(
            parity(&[vec![1, 2], vec![3]]).unwrap_err(),
            RaidError::ShardLengthMismatch
        );
        // Distinct powers gʲ cap dual parity at 255 data shards.
        assert!(RsCodec::new(255, 2).is_ok());
        assert!(matches!(
            RsCodec::new(256, 2),
            Err(RaidError::BadGeometry { .. })
        ));
        // Shard index out of range.
        let d = [1u8];
        assert!(matches!(
            RsCodec::new(2, 2).unwrap().reconstruct(&[(7, &d)]),
            Err(RaidError::BadGeometry { .. })
        ));
    }

    #[test]
    fn padded_parity_matches_explicit_zero_pad() {
        let mut data = stripe(4, 33);
        data[3].truncate(9); // logically zero-padded final shard
        let mut full = data.clone();
        full[3].resize(33, 0);
        let (mut p, mut q) = (vec![0xAA; 3], Vec::new());
        parity_padded_into(&refs(&data), 33, &mut p, &mut q).unwrap();
        assert_eq!(vec![p, q], parity(&full).unwrap());
        // Geometry errors.
        let (mut p, mut q) = (Vec::new(), Vec::new());
        assert!(matches!(
            parity_padded_into(&[], 8, &mut p, &mut q),
            Err(RaidError::BadGeometry { .. })
        ));
        assert!(matches!(
            parity_padded_into(&refs(&data), 8, &mut p, &mut q),
            Err(RaidError::BadGeometry { .. })
        ));
    }

    #[test]
    fn large_stripe_double_loss() {
        let data = stripe(32, 128);
        assert_eq!(reconstruct_without(&data, &[0, 31]).unwrap(), data);
    }
}
