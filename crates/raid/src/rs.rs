//! RS(k, m) erasure coding — the crate's one parity engine: `k` data
//! shards, `m` parity shards, any `m` losses tolerated.
//!
//! The encode matrix is systematic — `[Iₖ ; C]` with `C` an `m × k`
//! coefficient block — chosen per parity count so the paper's two
//! assurance levels (§IV-A) are the small geometries of the same code,
//! with the parity bytes RAID-5 and RAID-6 define:
//!
//! - `m = 1`: the all-ones row — XOR parity, i.e. RAID-5's `P`,
//! - `m = 2`: rows `[1 … 1]` and `[g⁰ … g^{k−1}]` — RAID-6's `P` and `Q`;
//!   every 2×2 minor is `gʲ¹ ⊕ gʲ²` ≠ 0 for distinct powers, so the code
//!   is MDS for `k ≤ 255`,
//! - `m ≥ 3`: a Cauchy block `C[r][j] = (xᵣ ⊕ yⱼ)⁻¹` with `xᵣ = k + r`,
//!   `yⱼ = j` — all points distinct for `k + m ≤ 256`, and every minor of
//!   a Cauchy matrix is nonzero, so `[Iₖ ; C]` is MDS.
//!
//! Each geometry's coefficient block is expanded **once** into split-nibble
//! multiplication tables (one `NibbleTables` per `(row, column)` cell,
//! 32 bytes each) and cached process-wide, so the encode hot loop is a
//! single pass per parity row through the SWAR-XOR and SSSE3/`pshufb`
//! kernels — no per-call table builds, no log/exp walks.
//!
//! Decode picks any `k` surviving rows of `[Iₖ ; C]`, inverts that
//! submatrix exactly with [`fragcloud_linalg::FieldLu`] over GF(2⁸), and
//! drives the back-substituted product through the same kernels.

use crate::geometry::{check_equal_lengths, check_geometry, check_within_width};
use crate::kernel::{self, NibbleTables};
use crate::{gf256, RaidError, Result};
use fragcloud_linalg::{Field, FieldLu};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// GF(2⁸) element adapter for the exact-LU [`Field`] trait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Gf(u8);

impl Field for Gf {
    const ZERO: Self = Gf(0);
    const ONE: Self = Gf(1);
    fn add(self, rhs: Self) -> Self {
        Gf(self.0 ^ rhs.0)
    }
    fn sub(self, rhs: Self) -> Self {
        // Characteristic 2: subtraction is addition.
        Gf(self.0 ^ rhs.0)
    }
    fn mul(self, rhs: Self) -> Self {
        Gf(gf256::mul(self.0, rhs.0))
    }
    fn inv(self) -> Option<Self> {
        if self.0 == 0 {
            None
        } else {
            Some(Gf(gf256::inv(self.0)))
        }
    }
}

/// One geometry's coefficient block plus its cached kernel tables.
#[derive(Debug)]
struct RsMatrix {
    k: usize,
    m: usize,
    /// `m × k` parity coefficients (row-major).
    rows: Vec<Vec<u8>>,
    /// Split-nibble tables, one per `(row, column)` cell, built once.
    tables: Vec<Vec<NibbleTables>>,
}

impl RsMatrix {
    fn build(k: usize, m: usize) -> Self {
        let mut rows: Vec<Vec<u8>> = Vec::with_capacity(m);
        match m {
            0 => {}
            1 => rows.push(vec![1u8; k]),
            2 => {
                rows.push(vec![1u8; k]);
                rows.push((0..k).map(|j| gf256::pow(gf256::GENERATOR, j as u32)).collect());
            }
            _ => {
                // Cauchy points: x_r = k + r, y_j = j; disjoint by
                // construction, all within u8 because k + m ≤ 256.
                for r in 0..m {
                    rows.push(
                        (0..k)
                            .map(|j| gf256::inv(((k + r) as u8) ^ (j as u8)))
                            .collect(),
                    );
                }
            }
        }
        let tables = rows
            .iter()
            .map(|row| row.iter().map(|&c| NibbleTables::new(c)).collect())
            .collect();
        RsMatrix { k, m, rows, tables }
    }
}

/// Process-wide matrix cache: the tables are immutable once built, so one
/// `Arc` per geometry serves every codec, thread and stripe.
fn matrix(k: usize, m: usize) -> Arc<RsMatrix> {
    type Cache = Mutex<HashMap<(usize, usize), Arc<RsMatrix>>>;
    static CACHE: OnceLock<Cache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = match cache.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(), // cache holds no invariants beyond the map
    };
    Arc::clone(
        guard
            .entry((k, m))
            .or_insert_with(|| Arc::new(RsMatrix::build(k, m))),
    )
}

/// RS(k, m) encoder/decoder with a fixed geometry.
///
/// Cheap to construct after the first build of a given `(k, m)` — the
/// coefficient tables come from a process-wide cache.
#[derive(Debug, Clone)]
pub struct RsCodec {
    matrix: Arc<RsMatrix>,
}

/// A validated survivor set, solved for its missing data shards by
/// [`RsCodec::solve`].
struct Solved<'a> {
    /// Which stripe indices the survivor set holds.
    seen: Vec<bool>,
    /// The survivors' common width.
    width: usize,
    /// The `k` survivors chosen to solve from, in row order, and the
    /// inverse of their rows of `[Iₖ ; C]` — both empty when every data
    /// shard survived.
    survivors: Vec<&'a [u8]>,
    inverse: Vec<Vec<Gf>>,
}

impl Solved<'_> {
    /// A missing data shard: `data_j = Σᵢ inverse[j][i] · survivorᵢ`.
    fn data_shard(&self, j: usize) -> Vec<u8> {
        let mut acc = vec![0u8; self.width];
        for (payload, coef) in self.survivors.iter().zip(&self.inverse[j]) {
            gf256::mul_acc(&mut acc, payload, coef.0);
        }
        acc
    }
}

impl RsCodec {
    /// Creates a codec for `data_shards` data and `parity_shards` parity
    /// shards; the geometry must pass
    /// [`check_geometry`].
    pub fn new(data_shards: usize, parity_shards: usize) -> Result<Self> {
        check_geometry(data_shards, parity_shards)?;
        Ok(RsCodec {
            matrix: matrix(data_shards, parity_shards),
        })
    }

    /// Data-shard count `k`.
    pub fn data_shards(&self) -> usize {
        self.matrix.k
    }

    /// Parity-shard count `m`.
    pub fn parity_shards(&self) -> usize {
        self.matrix.m
    }

    /// Total shards per stripe.
    pub fn total_shards(&self) -> usize {
        self.matrix.k + self.matrix.m
    }

    /// Parity coefficient for `(row, data column)` — row `r` of the `C`
    /// block. Exposed so equivalence tests can pin the construction.
    pub fn coefficient(&self, row: usize, col: usize) -> u8 {
        self.matrix.rows[row][col]
    }

    fn check_shard_count(&self, n: usize) -> Result<()> {
        if n != self.matrix.k {
            return Err(RaidError::BadGeometry {
                detail: format!("expected {} data shards, got {n}", self.matrix.k),
            });
        }
        Ok(())
    }

    /// Computes all `m` parity shards for `k` equal-length data shards
    /// through the cached-table kernels.
    pub fn parity(&self, shards: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
        self.check_shard_count(shards.len())?;
        let width = check_equal_lengths(shards)?;
        let mut out: Vec<Vec<u8>> = (0..self.matrix.m).map(|_| Vec::new()).collect();
        self.parity_padded_into(shards, width, &mut out)?;
        Ok(out)
    }

    /// Parity of shards logically zero-padded to `width`, written into
    /// caller-provided buffers (cleared and resized to `width`) so
    /// pipelined encoders can recycle allocations across stripes. `out`
    /// must hold exactly `m` buffers.
    ///
    /// Single pass per parity row: each data shard is folded into the row
    /// accumulator with one kernel call (`xor_acc` for coefficient 1,
    /// cached split-nibble `mul_acc` otherwise).
    pub fn parity_padded_into(
        &self,
        shards: &[&[u8]],
        width: usize,
        out: &mut [Vec<u8>],
    ) -> Result<()> {
        self.check_shard_count(shards.len())?;
        check_within_width(shards, width)?;
        if out.len() != self.matrix.m {
            return Err(RaidError::BadGeometry {
                detail: format!(
                    "expected {} parity buffers, got {}",
                    self.matrix.m,
                    out.len()
                ),
            });
        }
        for (r, o) in out.iter_mut().enumerate() {
            o.clear();
            o.resize(width, 0);
            for (j, s) in shards.iter().enumerate() {
                match self.matrix.rows[r][j] {
                    0 => {}
                    1 => kernel::xor_acc(o, s),
                    _ => kernel::mul_acc_wide(o, s, &self.matrix.tables[r][j]),
                }
            }
        }
        Ok(())
    }

    /// Byte-at-a-time reference implementation of [`parity`](Self::parity)
    /// via [`gf256::mul_acc_scalar`] — kept so proptests and the
    /// `rs_coding` criterion group can pin the kernel path against it.
    pub fn parity_scalar(&self, shards: &[&[u8]]) -> Result<Vec<Vec<u8>>> {
        self.check_shard_count(shards.len())?;
        let width = check_equal_lengths(shards)?;
        let mut out = Vec::with_capacity(self.matrix.m);
        for row in &self.matrix.rows {
            let mut acc = vec![0u8; width];
            for (j, s) in shards.iter().enumerate() {
                gf256::mul_acc_scalar(&mut acc, s, row[j]);
            }
            out.push(acc);
        }
        Ok(out)
    }

    /// Validates `available`, and — when a data shard is missing — picks
    /// the `k` survivor rows of `[Iₖ ; C]` to solve it from and inverts
    /// that submatrix with an exact GF(2⁸) LU. The one place survivor
    /// indices are checked and rows chosen, shared by
    /// [`reconstruct`](Self::reconstruct) and
    /// [`reconstruct_shard`](Self::reconstruct_shard).
    fn solve<'a>(&self, available: &[(usize, &'a [u8])]) -> Result<Solved<'a>> {
        let k = self.matrix.k;
        let m = self.matrix.m;
        let total = k + m;
        let mut seen = vec![false; total];
        for (idx, _) in available {
            if *idx >= total {
                return Err(RaidError::BadGeometry {
                    detail: format!("shard index {idx} out of range (total {total})"),
                });
            }
            if seen[*idx] {
                return Err(RaidError::BadGeometry {
                    detail: format!("duplicate shard index {idx}"),
                });
            }
            seen[*idx] = true;
        }
        let width = check_equal_lengths(
            &available.iter().map(|(_, s)| *s).collect::<Vec<_>>(),
        )?;
        let mut solved = Solved {
            seen,
            width,
            survivors: Vec::new(),
            inverse: Vec::new(),
        };
        if solved.seen[..k].iter().all(|&s| s) {
            return Ok(solved);
        }
        if available.len() < k {
            return Err(RaidError::TooManyErasures {
                missing: total - available.len(),
                tolerable: m,
            });
        }

        // Select k surviving rows of [I_k ; C]: all surviving data rows
        // first, then parity rows until the square system is full.
        let mut sel_rows: Vec<Vec<Gf>> = Vec::with_capacity(k);
        let mut sorted = available.to_vec();
        sorted.sort_by_key(|(i, _)| *i);
        for (idx, s) in sorted.into_iter().take(k) {
            let mut row = vec![Gf::ZERO; k];
            if idx < k {
                row[idx] = Gf::ONE;
            } else {
                for (j, cell) in row.iter_mut().enumerate() {
                    *cell = Gf(self.matrix.rows[idx - k][j]);
                }
            }
            sel_rows.push(row);
            solved.survivors.push(s);
        }

        // The code is MDS, so this submatrix is invertible; Singular here
        // would indicate a construction bug, surfaced as BadGeometry.
        let not_invertible = |e| RaidError::BadGeometry {
            detail: format!("survivor submatrix not invertible: {e}"),
        };
        solved.inverse = FieldLu::decompose(&sel_rows)
            .and_then(|lu| lu.inverse())
            .map_err(not_invertible)?;
        Ok(solved)
    }

    /// Rebuilds the full data stripe (`k` shards, in order) from any `≥ k`
    /// surviving stripe members.
    ///
    /// `available` pairs each survivor with its stripe index (`0..k` =
    /// data, `k..k+m` = parity row `idx − k`); all survivors must share
    /// one width. Surviving data shards are passed through verbatim;
    /// missing ones are solved by inverting the surviving-row submatrix of
    /// `[Iₖ ; C]` with an exact GF(2⁸) LU and applying only the rows for
    /// the lost shards through the kernels.
    pub fn reconstruct(&self, available: &[(usize, &[u8])]) -> Result<Vec<Vec<u8>>> {
        let solved = self.solve(available)?;
        let mut data: Vec<Vec<u8>> = vec![Vec::new(); self.matrix.k];
        for (idx, s) in available {
            if *idx < self.matrix.k {
                data[*idx] = s.to_vec();
            }
        }
        for (j, shard) in data.iter_mut().enumerate() {
            if !solved.seen[j] {
                *shard = solved.data_shard(j);
            }
        }
        Ok(data)
    }

    /// Rebuilds **one** shard (data `0..k`, parity `k..k+m`) from the
    /// survivors — the degraded read's and the repair path's workhorse. A
    /// lost data shard is its one row of the inverse applied to the
    /// survivors, written once; no other shard is copied or solved.
    pub fn reconstruct_shard(
        &self,
        available: &[(usize, &[u8])],
        target: usize,
    ) -> Result<Vec<u8>> {
        let k = self.matrix.k;
        let total = self.total_shards();
        if target >= total {
            return Err(RaidError::BadGeometry {
                detail: format!("target shard {target} out of range (total {total})"),
            });
        }
        if let Some((_, s)) = available.iter().find(|(i, _)| *i == target) {
            return Ok(s.to_vec());
        }
        if target < k {
            return Ok(self.solve(available)?.data_shard(target));
        }
        let data = self.reconstruct(available)?;
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let width = refs.first().map_or(0, |s| s.len());
        let mut out: Vec<Vec<u8>> = (0..self.matrix.m).map(|_| Vec::new()).collect();
        self.parity_padded_into(&refs, width, &mut out)?;
        Ok(out.swap_remove(target - k))
    }

    /// Verifies that data and parity are consistent.
    pub fn verify(&self, shards: &[&[u8]], parity: &[Vec<u8>]) -> Result<bool> {
        let computed = self.parity(shards)?;
        Ok(computed == parity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// All shards + parity as (index, slice) pairs.
    fn full_avail<'a>(data: &'a [Vec<u8>], parity: &'a [Vec<u8>]) -> Vec<(usize, &'a [u8])> {
        data.iter()
            .chain(parity.iter())
            .enumerate()
            .map(|(i, s)| (i, s.as_slice()))
            .collect()
    }

    #[test]
    fn kernel_parity_matches_scalar_reference() {
        for (k, m) in [(1, 1), (4, 2), (5, 3), (8, 4), (3, 5)] {
            for len in [0usize, 1, 7, 16, 63, 257] {
                let data = stripe(k, len);
                let c = RsCodec::new(k, m).unwrap();
                assert_eq!(
                    c.parity(&refs(&data)).unwrap(),
                    c.parity_scalar(&refs(&data)).unwrap(),
                    "k={k} m={m} len={len}"
                );
            }
        }
    }

    // On-disk compatibility of every RAID-5/6 stripe ever written rests on
    // these two coefficient pins (plus the kernel ≡ `parity_scalar` tests
    // and the definition proptest in `tests/prop.rs`).

    #[test]
    fn rs_k1_matches_raid5_parity() {
        // RAID-5's P is the XOR of the column: an all-ones row, every k.
        for k in 1..=255usize {
            let c = RsCodec::new(k, 1).unwrap();
            assert!((0..k).all(|j| c.coefficient(0, j) == 1), "k={k}");
        }
    }

    #[test]
    fn rs_k2_matches_raid6_pq() {
        // RAID-6's P is the XOR row and its Q row is g⁰ … g^{k−1}.
        for k in 1..=255usize {
            let c = RsCodec::new(k, 2).unwrap();
            for j in 0..k {
                assert_eq!(c.coefficient(0, j), 1, "k={k} P[{j}]");
                assert_eq!(
                    c.coefficient(1, j),
                    gf256::pow(gf256::GENERATOR, j as u32),
                    "k={k} Q[{j}]"
                );
            }
        }
    }

    #[test]
    fn survives_every_m_loss_pattern_small_geometries() {
        // Exhaustive loss patterns for small (k, m): every way to lose at
        // most m of k+m shards — for m ≤ 2 that is every data/P/Q
        // combination RAID-5/6 tolerate.
        for (k, m) in [
            (1usize, 1usize),
            (4, 1),
            (1, 2),
            (4, 2),
            (5, 2),
            (2, 3),
            (3, 3),
            (5, 4),
        ] {
            let data = stripe(k, 33);
            let c = RsCodec::new(k, m).unwrap();
            let parity = c.parity(&refs(&data)).unwrap();
            let total = k + m;
            // Iterate all survivor subsets of size `≥ total - m`; each must
            // rebuild the stripe, and every single member on its own.
            for mask in 0u32..(1 << total) {
                if (mask.count_ones() as usize) < total - m {
                    continue;
                }
                let avail: Vec<(usize, &[u8])> = full_avail(&data, &parity)
                    .into_iter()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .collect();
                let rec = c.reconstruct(&avail).unwrap();
                assert_eq!(rec, data, "k={k} m={m} mask={mask:b}");
                for t in 0..total {
                    let want = if t < k { &rec[t] } else { &parity[t - k] };
                    assert_eq!(
                        &c.reconstruct_shard(&avail, t).unwrap(),
                        want,
                        "k={k} m={m} mask={mask:b} target={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn too_many_losses_rejected() {
        let data = stripe(4, 16);
        let c = RsCodec::new(4, 3).unwrap();
        let parity = c.parity(&refs(&data)).unwrap();
        let avail: Vec<(usize, &[u8])> = full_avail(&data, &parity)
            .into_iter()
            .skip(4) // lose all 4 data shards, keep only 3 parity
            .collect();
        assert!(matches!(
            c.reconstruct(&avail),
            Err(RaidError::TooManyErasures {
                missing: 4,
                tolerable: 3
            })
        ));
    }

    #[test]
    fn reconstruct_shard_rebuilds_every_member() {
        let (k, m) = (5usize, 3usize);
        let data = stripe(k, 41);
        let c = RsCodec::new(k, m).unwrap();
        let parity = c.parity(&refs(&data)).unwrap();
        let all = full_avail(&data, &parity);
        for lost in 0..(k + m) {
            let avail: Vec<(usize, &[u8])> =
                all.iter().filter(|(i, _)| *i != lost).copied().collect();
            let rebuilt = c.reconstruct_shard(&avail, lost).unwrap();
            let want = if lost < k { &data[lost] } else { &parity[lost - k] };
            assert_eq!(&rebuilt, want, "lost={lost}");
        }
    }

    #[test]
    fn duplicate_and_out_of_range_indices_rejected() {
        let data = stripe(3, 8);
        let c = RsCodec::new(3, 3).unwrap();
        let parity = c.parity(&refs(&data)).unwrap();
        let mut avail = full_avail(&data, &parity);
        avail[1] = avail[0];
        assert!(matches!(
            c.reconstruct(&avail),
            Err(RaidError::BadGeometry { ref detail }) if detail.contains("duplicate")
        ));
        let bad = [(99usize, data[0].as_slice())];
        assert!(matches!(
            c.reconstruct(&bad),
            Err(RaidError::BadGeometry { .. })
        ));
    }

    #[test]
    fn verify_detects_corruption() {
        let data = stripe(4, 32);
        let c = RsCodec::new(4, 3).unwrap();
        let parity = c.parity(&refs(&data)).unwrap();
        assert!(c.verify(&refs(&data), &parity).unwrap());
        let mut bad = parity.clone();
        bad[2][7] ^= 1;
        assert!(!c.verify(&refs(&data), &bad).unwrap());
    }

    #[test]
    fn geometry_validation_shared() {
        assert!(RsCodec::new(0, 3).is_err());
        assert!(RsCodec::new(1, 0).is_ok()); // m = 0: striping only
        assert!(RsCodec::new(253, 3).is_ok());
        assert!(RsCodec::new(254, 3).is_err()); // 257 total points
        // m = 0 parity is empty and reconstruct needs all data.
        let c = RsCodec::new(2, 0).unwrap();
        let data = stripe(2, 8);
        assert!(c.parity(&refs(&data)).unwrap().is_empty());
        let avail = [(0usize, data[0].as_slice())];
        assert!(matches!(
            c.reconstruct(&avail),
            Err(RaidError::TooManyErasures { tolerable: 0, .. })
        ));
    }

    #[test]
    fn padded_parity_matches_explicit_zero_pad() {
        let mut data = stripe(4, 33);
        data[3].truncate(9);
        let mut full = data.clone();
        full[3].resize(33, 0);
        for m in 1..=4usize {
            let c = RsCodec::new(4, m).unwrap();
            let mut padded: Vec<Vec<u8>> = (0..m).map(|_| vec![0xAA; 3]).collect();
            c.parity_padded_into(&refs(&data), 33, &mut padded).unwrap();
            assert_eq!(padded, c.parity(&refs(&full)).unwrap(), "m={m}");
            // Wrong buffer count and over-wide shards rejected.
            padded.pop();
            assert!(c.parity_padded_into(&refs(&data), 33, &mut padded).is_err());
            let mut out: Vec<Vec<u8>> = (0..m).map(|_| Vec::new()).collect();
            assert!(c.parity_padded_into(&refs(&data), 8, &mut out).is_err());
        }
    }

    #[test]
    fn matrix_cache_shares_one_build_per_geometry() {
        let a = RsCodec::new(6, 3).unwrap();
        let b = RsCodec::new(6, 3).unwrap();
        assert!(Arc::ptr_eq(&a.matrix, &b.matrix));
        let c = RsCodec::new(6, 4).unwrap();
        assert!(!Arc::ptr_eq(&a.matrix, &c.matrix));
    }

    #[test]
    fn large_geometry_double_ended_loss() {
        let (k, m) = (16usize, 4usize);
        let data = stripe(k, 128);
        let c = RsCodec::new(k, m).unwrap();
        let parity = c.parity(&refs(&data)).unwrap();
        // Lose first and last data shards plus two parity rows.
        let avail: Vec<(usize, &[u8])> = full_avail(&data, &parity)
            .into_iter()
            .filter(|(i, _)| *i != 0 && *i != k - 1 && *i != k && *i != k + 3)
            .collect();
        assert_eq!(c.reconstruct(&avail).unwrap(), data);
    }
}
