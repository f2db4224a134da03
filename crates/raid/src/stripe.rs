//! The striping facade the Cloud Data Distributor talks to.
//!
//! A [`StripeCodec`] slices a byte blob into `k` equal-width data shards
//! (zero-padded), appends the parity shards demanded by the configured
//! [`RaidLevel`], and can rebuild the original blob from any sufficient
//! subset of shards. A level only names a parity-shard count: every
//! `(k, m)` — `m = 0` included — runs on the one [`RsCodec`] engine.

use crate::rs::RsCodec;
use crate::{RaidError, Result};
use fragcloud_telemetry::TelemetryHandle;

/// Assurance level for a stripe, mirroring the paper's §IV-A choices plus
/// the general RS(k, m) geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RaidLevel {
    /// No parity: all shards are required to read (maximum fragmentation,
    /// zero storage overhead). The single-provider baseline uses this.
    None,
    /// One XOR parity shard; tolerates one lost provider. Paper default.
    Raid5,
    /// P+Q Reed–Solomon parity; tolerates two lost providers. Paper's
    /// "higher assurance" choice.
    Raid6,
    /// General Reed–Solomon with `parity` parity shards; tolerates any
    /// `parity` lost providers. `Rs { parity: 1 }` is the same code as
    /// [`Raid5`](RaidLevel::Raid5), `Rs { parity: 2 }` as
    /// [`Raid6`](RaidLevel::Raid6) — only the name differs.
    Rs {
        /// Number of parity shards (`m`).
        parity: u8,
    },
}

impl RaidLevel {
    /// Number of parity shards this level appends.
    pub fn parity_shards(self) -> usize {
        match self {
            RaidLevel::None => 0,
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
            RaidLevel::Rs { parity } => parity as usize,
        }
    }

    /// Number of shard losses the level tolerates.
    pub fn fault_tolerance(self) -> usize {
        self.parity_shards()
    }

    /// The level for a given parity-shard count, canonicalizing the small
    /// geometries onto the paper's names (and their persist/journal tags):
    /// 0 → `None`, 1 → `Raid5`, 2 → `Raid6`, m ≥ 3 → `Rs { parity: m }`.
    pub fn for_parity_shards(m: usize) -> Self {
        match m {
            0 => RaidLevel::None,
            1 => RaidLevel::Raid5,
            2 => RaidLevel::Raid6,
            m => RaidLevel::Rs { parity: m as u8 },
        }
    }
}

impl std::fmt::Display for RaidLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidLevel::None => write!(f, "none"),
            RaidLevel::Raid5 => write!(f, "raid5"),
            RaidLevel::Raid6 => write!(f, "raid6"),
            RaidLevel::Rs { parity } => write!(f, "rs{parity}"),
        }
    }
}

/// An encoded stripe: `k` data shards followed by the level's parity shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedStripe {
    /// All shards; indices `0..k` are data, the rest parity (P then Q).
    pub shards: Vec<Vec<u8>>,
    /// Number of data shards.
    pub k: usize,
    /// Original blob length before padding.
    pub original_len: usize,
    /// The level used to encode.
    pub level: RaidLevel,
}

/// Stripe encoder/decoder with a fixed geometry. Holds its engine's
/// coefficient tables, so build one per put (or per stripe read) rather
/// than per call; clones share the tables.
#[derive(Debug, Clone)]
pub struct StripeCodec {
    level: RaidLevel,
    engine: RsCodec,
}

impl StripeCodec {
    /// Creates a codec; the `(data_shards, parity_shards)` pair must pass
    /// the shared [`check_geometry`](crate::check_geometry) validation
    /// (`data_shards ≥ 1`, field-size caps per parity count).
    pub fn new(data_shards: usize, level: RaidLevel) -> Result<Self> {
        let engine = RsCodec::new(data_shards, level.parity_shards())?;
        Ok(StripeCodec { level, engine })
    }

    /// Number of data shards per stripe.
    pub fn data_shards(&self) -> usize {
        self.engine.data_shards()
    }

    /// Assurance level.
    pub fn level(&self) -> RaidLevel {
        self.level
    }

    /// Total shards per stripe (data + parity).
    pub fn total_shards(&self) -> usize {
        self.engine.total_shards()
    }

    /// Encodes a blob into an [`EncodedStripe`].
    ///
    /// The blob is split into `data_shards` equal slices, the last one
    /// zero-padded. An empty blob yields zero-width shards.
    pub fn encode(&self, blob: &[u8]) -> Result<EncodedStripe> {
        let k = self.data_shards();
        let width = blob.len().div_ceil(k);
        let mut shards: Vec<Vec<u8>> = Vec::with_capacity(self.total_shards());
        for i in 0..k {
            let start = (i * width).min(blob.len());
            let end = ((i + 1) * width).min(blob.len());
            let mut s = Vec::with_capacity(width);
            s.extend_from_slice(&blob[start..end]);
            s.resize(width, 0);
            shards.push(s);
        }
        let data_refs: Vec<&[u8]> = shards.iter().map(|s| s.as_slice()).collect();
        shards.extend(self.engine.parity(&data_refs)?);
        Ok(EncodedStripe {
            shards,
            k,
            original_len: blob.len(),
            level: self.level,
        })
    }

    /// Parity of `k` shards logically zero-padded to `width`, written into
    /// `out` (exactly [`parity_shards`](RaidLevel::parity_shards) buffers,
    /// each cleared and resized to `width`) so the put pipeline can
    /// recycle parity allocations across stripes.
    pub fn parity_padded_into(
        &self,
        shards: &[&[u8]],
        width: usize,
        out: &mut [Vec<u8>],
    ) -> Result<()> {
        self.engine.parity_padded_into(shards, width, out)
    }

    /// Rebuilds the original blob from the available shards.
    ///
    /// `available` pairs each surviving shard with its stripe index
    /// (`0..k` = data, `k` = P, `k+1` = Q, …); all must share one width.
    /// `original_len` is the pre-padding blob length recorded at encode
    /// time.
    pub fn decode(&self, available: &[(usize, &[u8])], original_len: usize) -> Result<Vec<u8>> {
        let data = self.engine.reconstruct(available)?;
        let capacity: usize = data.iter().map(Vec::len).sum();
        if original_len > capacity {
            return Err(RaidError::BadGeometry {
                detail: format!("original_len {original_len} exceeds stripe capacity {capacity}"),
            });
        }
        let mut blob = data.concat();
        blob.truncate(original_len);
        Ok(blob)
    }

    /// Rebuilds **one** shard (data `0..k`, parity `k` = P, `k+1` = Q, …)
    /// from the surviving shards — the repair path's workhorse: a scrubber
    /// that found a single lost shard re-materializes exactly that shard
    /// instead of decoding and re-encoding the whole stripe.
    ///
    /// All shards in `available` must share one width; the returned shard
    /// has that width (parity shards always do; data shards may need the
    /// caller to trim trailing padding using its recorded stored length).
    pub fn reconstruct_shard(
        &self,
        available: &[(usize, &[u8])],
        target: usize,
    ) -> Result<Vec<u8>> {
        self.engine.reconstruct_shard(available, target)
    }

    /// [`reconstruct_shard`](Self::reconstruct_shard), recording
    /// `raid_shard_rebuilds` and a `raid_reconstruct_ns` timing into `tel`
    /// (the codec carries no handle; callers thread one in).
    pub fn reconstruct_shard_observed(
        &self,
        available: &[(usize, &[u8])],
        target: usize,
        tel: &TelemetryHandle,
    ) -> Result<Vec<u8>> {
        tel.incr("raid_shard_rebuilds");
        tel.time("raid_reconstruct_ns", || {
            self.reconstruct_shard(available, target)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 31 + 7) as u8).collect()
    }

    fn avail(stripe: &EncodedStripe) -> Vec<(usize, &[u8])> {
        stripe
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i, s.as_slice()))
            .collect()
    }

    #[test]
    fn roundtrip_all_levels_various_sizes() {
        for level in [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6] {
            for k in [1usize, 2, 3, 5, 8] {
                for n in [0usize, 1, 7, 64, 100, 1000] {
                    let codec = StripeCodec::new(k, level).unwrap();
                    let b = blob(n);
                    let enc = codec.encode(&b).unwrap();
                    assert_eq!(enc.shards.len(), codec.total_shards());
                    let dec = codec.decode(&avail(&enc), n).unwrap();
                    assert_eq!(dec, b, "level={level} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn duplicate_shard_index_is_an_error_not_a_panic() {
        // A duplicated index used to satisfy the "all data present" count
        // while leaving another slot empty, panicking in the fast path.
        let codec = StripeCodec::new(3, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(96)).unwrap();
        let mut a = avail(&enc);
        a[1] = a[0]; // shard 0 twice, shard 1 gone
        let err = codec.decode(&a, 96).unwrap_err();
        assert!(matches!(
            err,
            RaidError::BadGeometry { ref detail } if detail.contains("duplicate")
        ));
    }

    #[test]
    fn raid5_survives_any_single_loss() {
        let codec = StripeCodec::new(4, RaidLevel::Raid5).unwrap();
        let b = blob(123);
        let enc = codec.encode(&b).unwrap();
        for lost in 0..codec.total_shards() {
            let a: Vec<(usize, &[u8])> = avail(&enc)
                .into_iter()
                .filter(|(i, _)| *i != lost)
                .collect();
            assert_eq!(codec.decode(&a, 123).unwrap(), b, "lost={lost}");
        }
    }

    #[test]
    fn raid5_two_losses_fail() {
        let codec = StripeCodec::new(4, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(50)).unwrap();
        let a: Vec<(usize, &[u8])> = avail(&enc)
            .into_iter()
            .filter(|(i, _)| *i != 0 && *i != 1)
            .collect();
        assert!(matches!(
            codec.decode(&a, 50),
            Err(RaidError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn raid6_survives_any_double_loss() {
        let codec = StripeCodec::new(5, RaidLevel::Raid6).unwrap();
        let b = blob(333);
        let enc = codec.encode(&b).unwrap();
        let t = codec.total_shards();
        for l1 in 0..t {
            for l2 in (l1 + 1)..t {
                let a: Vec<(usize, &[u8])> = avail(&enc)
                    .into_iter()
                    .filter(|(i, _)| *i != l1 && *i != l2)
                    .collect();
                assert_eq!(codec.decode(&a, 333).unwrap(), b, "lost {l1},{l2}");
            }
        }
    }

    #[test]
    fn raid6_three_losses_fail() {
        let codec = StripeCodec::new(5, RaidLevel::Raid6).unwrap();
        let enc = codec.encode(&blob(100)).unwrap();
        let a: Vec<(usize, &[u8])> = avail(&enc).into_iter().filter(|(i, _)| *i > 2).collect();
        assert!(matches!(
            codec.decode(&a, 100),
            Err(RaidError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn level_none_requires_everything() {
        let codec = StripeCodec::new(3, RaidLevel::None).unwrap();
        let b = blob(30);
        let enc = codec.encode(&b).unwrap();
        assert_eq!(enc.shards.len(), 3);
        let a: Vec<(usize, &[u8])> = avail(&enc).into_iter().skip(1).collect();
        assert!(matches!(
            codec.decode(&a, 30),
            Err(RaidError::TooManyErasures {
                missing: 1,
                tolerable: 0
            })
        ));
    }

    #[test]
    fn geometry_validation() {
        assert!(StripeCodec::new(0, RaidLevel::Raid5).is_err());
        assert!(StripeCodec::new(256, RaidLevel::Raid6).is_err());
        assert!(StripeCodec::new(255, RaidLevel::Raid6).is_ok());
        let codec = StripeCodec::new(2, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(10)).unwrap();
        // Out-of-range shard index rejected.
        let bad = [(9usize, enc.shards[0].as_slice())];
        assert!(matches!(
            codec.decode(&bad, 10),
            Err(RaidError::BadGeometry { .. })
        ));
        // original_len larger than capacity rejected.
        let a = avail(&enc);
        assert!(matches!(
            codec.decode(&a, 1000),
            Err(RaidError::BadGeometry { .. })
        ));
    }

    #[test]
    fn parity_counts() {
        assert_eq!(RaidLevel::None.parity_shards(), 0);
        assert_eq!(RaidLevel::Raid5.parity_shards(), 1);
        assert_eq!(RaidLevel::Raid6.parity_shards(), 2);
        assert_eq!(RaidLevel::Rs { parity: 4 }.parity_shards(), 4);
        assert_eq!(format!("{}", RaidLevel::Raid6), "raid6");
        assert_eq!(format!("{}", RaidLevel::Rs { parity: 3 }), "rs3");
    }

    #[test]
    fn for_parity_shards_canonicalizes_small_geometries() {
        assert_eq!(RaidLevel::for_parity_shards(0), RaidLevel::None);
        assert_eq!(RaidLevel::for_parity_shards(1), RaidLevel::Raid5);
        assert_eq!(RaidLevel::for_parity_shards(2), RaidLevel::Raid6);
        assert_eq!(
            RaidLevel::for_parity_shards(3),
            RaidLevel::Rs { parity: 3 }
        );
    }

    #[test]
    fn rs_level_roundtrip_and_loss_tolerance() {
        let level = RaidLevel::Rs { parity: 3 };
        let codec = StripeCodec::new(4, level).unwrap();
        assert_eq!(codec.total_shards(), 7);
        let b = blob(123);
        let enc = codec.encode(&b).unwrap();
        assert_eq!(enc.shards.len(), 7);
        // Any 3 losses decode; shown here by dropping 3 spread-out shards.
        let a: Vec<(usize, &[u8])> = avail(&enc)
            .into_iter()
            .filter(|(i, _)| *i != 0 && *i != 3 && *i != 5)
            .collect();
        assert_eq!(codec.decode(&a, 123).unwrap(), b);
        // Four losses do not.
        let short: Vec<(usize, &[u8])> = avail(&enc)
            .into_iter()
            .filter(|(i, _)| *i > 3)
            .collect();
        assert!(matches!(
            codec.decode(&short, 123),
            Err(RaidError::TooManyErasures { .. })
        ));
        // reconstruct_shard covers data and every parity row.
        for lost in 0..codec.total_shards() {
            let a: Vec<(usize, &[u8])> = avail(&enc)
                .into_iter()
                .filter(|(i, _)| *i != lost)
                .collect();
            assert_eq!(
                codec.reconstruct_shard(&a, lost).unwrap(),
                enc.shards[lost],
                "lost={lost}"
            );
        }
    }

    #[test]
    fn reconstruct_shard_rebuilds_any_single_member() {
        for level in [RaidLevel::Raid5, RaidLevel::Raid6] {
            let codec = StripeCodec::new(4, level).unwrap();
            let b = blob(97);
            let enc = codec.encode(&b).unwrap();
            for lost in 0..codec.total_shards() {
                let a: Vec<(usize, &[u8])> = avail(&enc)
                    .into_iter()
                    .filter(|(i, _)| *i != lost)
                    .collect();
                let rebuilt = codec.reconstruct_shard(&a, lost).unwrap();
                assert_eq!(rebuilt, enc.shards[lost], "level={level} lost={lost}");
            }
        }
    }

    #[test]
    fn reconstruct_shard_rebuilds_under_double_loss_raid6() {
        let codec = StripeCodec::new(5, RaidLevel::Raid6).unwrap();
        let b = blob(211);
        let enc = codec.encode(&b).unwrap();
        let t = codec.total_shards();
        for l1 in 0..t {
            for l2 in (l1 + 1)..t {
                let a: Vec<(usize, &[u8])> = avail(&enc)
                    .into_iter()
                    .filter(|(i, _)| *i != l1 && *i != l2)
                    .collect();
                for lost in [l1, l2] {
                    let rebuilt = codec.reconstruct_shard(&a, lost).unwrap();
                    assert_eq!(rebuilt, enc.shards[lost], "lost {l1},{l2} → {lost}");
                }
            }
        }
    }

    #[test]
    fn reconstruct_shard_returns_surviving_copy_verbatim() {
        let codec = StripeCodec::new(3, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(40)).unwrap();
        let a = avail(&enc);
        for i in 0..codec.total_shards() {
            assert_eq!(codec.reconstruct_shard(&a, i).unwrap(), enc.shards[i]);
        }
    }

    #[test]
    fn reconstruct_shard_rejects_bad_targets_and_excess_loss() {
        let codec = StripeCodec::new(4, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(64)).unwrap();
        let a = avail(&enc);
        assert!(matches!(
            codec.reconstruct_shard(&a, 9),
            Err(RaidError::BadGeometry { .. })
        ));
        // Two losses exceed RAID-5's tolerance.
        let short: Vec<(usize, &[u8])> =
            a.into_iter().filter(|(i, _)| *i != 0 && *i != 1).collect();
        assert!(matches!(
            codec.reconstruct_shard(&short, 0),
            Err(RaidError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn observed_variants_match_plain_and_record() {
        let tel = TelemetryHandle::enabled();
        let codec = StripeCodec::new(4, RaidLevel::Raid5).unwrap();
        let enc = codec.encode(&blob(77)).unwrap();
        let a: Vec<(usize, &[u8])> = avail(&enc).into_iter().filter(|(i, _)| *i != 1).collect();
        assert_eq!(
            codec.reconstruct_shard_observed(&a, 1, &tel).unwrap(),
            enc.shards[1]
        );
        let reg = tel.registry().unwrap();
        assert_eq!(reg.counter_total("raid_shard_rebuilds"), 1);
        assert_eq!(reg.histogram("raid_reconstruct_ns", "").count(), 1);
        // A disabled handle records nothing but behaves identically.
        let off = TelemetryHandle::disabled();
        assert_eq!(
            codec.reconstruct_shard_observed(&a, 1, &off).unwrap(),
            enc.shards[1]
        );
    }

    #[test]
    fn storage_overhead_is_parity_only() {
        let b = blob(1000);
        let codec = StripeCodec::new(5, RaidLevel::Raid6).unwrap();
        let enc = codec.encode(&b).unwrap();
        let stored: usize = enc.shards.iter().map(|s| s.len()).sum();
        let width = 1000usize.div_ceil(5);
        assert_eq!(stored, width * 7); // 5 data + P + Q
    }
}
