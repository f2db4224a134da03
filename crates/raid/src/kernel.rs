//! Word-parallel inner kernels behind the parity hot paths.
//!
//! [`RsCodec`](crate::RsCodec) and [`gf256::mul_acc`](crate::gf256::mul_acc)
//! dispatch through this module; the byte-at-a-time reference
//! implementations are kept alongside as `*_scalar` functions so
//! proptests and criterion benches can pin the wide kernels against them.
//!
//! Two techniques carry the speedup:
//!
//! - **SWAR XOR**: parity accumulation works on `u64` words via
//!   `as_chunks::<8>()` (eight bytes per op) with a scalar tail, instead of
//!   one byte per iteration.
//! - **Split-nibble GF(2⁸) multiply**: a constant coefficient `c` is
//!   expanded once into two 16-entry product tables (`lo[n] = c·n`,
//!   `hi[n] = c·(n«4)`), so `c·b = lo[b & 0xF] ⊕ hi[b » 4]` — two L1
//!   lookups with no data-dependent branch and no log/exp dependency
//!   chain. The tables are applied eight lanes at a time and the product
//!   word is folded into the accumulator with a single `u64` XOR.

use crate::gf256;

/// XORs `data` into the prefix of `acc` (`acc[i] ^= data[i]`), eight bytes
/// per iteration. `data` may be shorter than `acc` (the suffix of `acc` is
/// untouched) — this is what lets parity run over logically zero-padded
/// shards without materializing the padding.
///
/// # Panics
/// Panics when `data` is longer than `acc`.
pub(crate) fn xor_acc(acc: &mut [u8], data: &[u8]) {
    assert!(
        data.len() <= acc.len(),
        "kernel::xor_acc: data longer than accumulator"
    );
    let (aw, at) = acc[..data.len()].as_chunks_mut::<8>();
    let (dw, dt) = data.as_chunks::<8>();
    for (ac, dc) in aw.iter_mut().zip(dw) {
        *ac = (u64::from_ne_bytes(*ac) ^ u64::from_ne_bytes(*dc)).to_ne_bytes();
    }
    for (ab, &db) in at.iter_mut().zip(dt) {
        *ab ^= db;
    }
}

/// Split-nibble product tables for one GF(2⁸) coefficient.
///
/// `lo[n] = c·n` and `hi[n] = c·(n«4)` for `n` in `0..16`; by linearity of
/// the field over GF(2), `c·b = lo[b & 0xF] ⊕ hi[b » 4]` for every byte
/// `b`. Thirty-two bytes total, so both tables stay resident in L1 for the
/// whole slice walk.
#[derive(Debug)]
pub(crate) struct NibbleTables {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl NibbleTables {
    /// Builds the tables for coefficient `c`.
    pub(crate) fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u8 {
            lo[n as usize] = gf256::mul(c, n);
            hi[n as usize] = gf256::mul(c, n << 4);
        }
        NibbleTables { lo, hi }
    }

    /// Multiplies one byte by the table's coefficient.
    #[inline(always)]
    pub(crate) fn mul(&self, b: u8) -> u8 {
        // Both indices are provably < 16, so the bounds checks compile out.
        self.lo[(b & 0x0F) as usize] ^ self.hi[(b >> 4) as usize]
    }
}

/// `acc[i] ^= c · data[i]` over the prefix `..data.len()` through the
/// split-nibble tables: 16 lanes per iteration via `pshufb` where the CPU
/// has SSSE3, 8 lanes per iteration otherwise.
///
/// # Panics
/// Panics when `data` is longer than `acc`.
pub(crate) fn mul_acc_wide(acc: &mut [u8], data: &[u8], t: &NibbleTables) {
    assert!(
        data.len() <= acc.len(),
        "kernel::mul_acc_wide: data longer than accumulator"
    );
    let acc = &mut acc[..data.len()];
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("ssse3") {
        // SAFETY: SSSE3 availability was just verified at runtime.
        unsafe { x86::mul_acc_ssse3(acc, data, t) };
        return;
    }
    mul_acc_portable(acc, data, t);
}

/// Portable word-wise body of [`mul_acc_wide`]: the two 16-entry tables
/// applied to eight lanes per iteration, product word folded in with one
/// `u64` XOR.
fn mul_acc_portable(acc: &mut [u8], data: &[u8], t: &NibbleTables) {
    let (aw, at) = acc.as_chunks_mut::<8>();
    let (dw, dt) = data.as_chunks::<8>();
    for (ac, dc) in aw.iter_mut().zip(dw) {
        let mut prod = [0u8; 8];
        for i in 0..8 {
            prod[i] = t.mul(dc[i]);
        }
        *ac = (u64::from_ne_bytes(*ac) ^ u64::from_ne_bytes(prod)).to_ne_bytes();
    }
    for (ab, &db) in at.iter_mut().zip(dt) {
        *ab ^= t.mul(db);
    }
}

/// SSSE3 bodies: the same two 16-entry nibble tables, applied to 16 lanes
/// per iteration with `pshufb` (each table register *is* the 16-entry
/// table; the data nibbles are the shuffle indices).
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::NibbleTables;
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_loadu_si128, _mm_set1_epi8, _mm_shuffle_epi8, _mm_srli_epi64,
        _mm_storeu_si128, _mm_xor_si128,
    };

    /// Product of 16 data lanes with the table coefficient.
    ///
    /// # Safety
    /// Requires SSSE3.
    #[target_feature(enable = "ssse3")]
    #[inline]
    unsafe fn mul16(v: __m128i, lo: __m128i, hi: __m128i, mask: __m128i) -> __m128i {
        let ln = _mm_and_si128(v, mask);
        let hn = _mm_and_si128(_mm_srli_epi64(v, 4), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, ln), _mm_shuffle_epi8(hi, hn))
    }

    /// # Safety
    /// Requires SSSE3; `acc` and `data` must have equal lengths (the
    /// dispatcher already trimmed `acc`).
    #[target_feature(enable = "ssse3")]
    pub(super) unsafe fn mul_acc_ssse3(acc: &mut [u8], data: &[u8], t: &NibbleTables) {
        debug_assert_eq!(acc.len(), data.len());
        let lo = _mm_loadu_si128(t.lo.as_ptr().cast());
        let hi = _mm_loadu_si128(t.hi.as_ptr().cast());
        let mask = _mm_set1_epi8(0x0F);
        let mut aw = acc.chunks_exact_mut(16);
        let mut dw = data.chunks_exact(16);
        for (ac, dc) in (&mut aw).zip(&mut dw) {
            let v = _mm_loadu_si128(dc.as_ptr().cast());
            let cur = _mm_loadu_si128(ac.as_ptr().cast());
            let prod = mul16(v, lo, hi, mask);
            _mm_storeu_si128(ac.as_mut_ptr().cast(), _mm_xor_si128(cur, prod));
        }
        for (ab, &db) in aw.into_remainder().iter_mut().zip(dw.remainder()) {
            *ab ^= t.mul(db);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nibble_tables_match_mul_exhaustive() {
        for c in 0..=255u8 {
            let t = NibbleTables::new(c);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), gf256::mul(c, b), "c={c} b={b}");
            }
        }
    }

    #[test]
    fn xor_acc_prefix_only() {
        let mut acc = vec![0xAAu8; 20];
        let data = vec![0xFFu8; 13];
        xor_acc(&mut acc, &data);
        assert!(acc[..13].iter().all(|&b| b == 0x55));
        assert!(acc[13..].iter().all(|&b| b == 0xAA));
    }

    #[test]
    #[should_panic(expected = "data longer than accumulator")]
    fn xor_acc_rejects_long_data() {
        let mut acc = [0u8; 2];
        xor_acc(&mut acc, &[0u8; 3]);
    }

    #[test]
    fn dispatch_matches_portable_body() {
        // On x86 this pins the SSSE3 path against the portable loop; on
        // other targets both sides run the same code and it is a no-op.
        for len in [0usize, 1, 5, 8, 15, 16, 17, 31, 33, 257] {
            let data: Vec<u8> = (0..len).map(|i| (i * 89 + 41) as u8).collect();
            let t = NibbleTables::new(0xC3);

            let mut a1: Vec<u8> = (0..len).map(|i| (i * 7) as u8).collect();
            let mut a2 = a1.clone();
            mul_acc_wide(&mut a1, &data, &t);
            mul_acc_portable(&mut a2, &data, &t);
            assert_eq!(a1, a2, "mul_acc len={len}");
        }
    }
}
