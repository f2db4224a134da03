#![allow(clippy::needless_range_loop)] // index form mirrors the math

//! Arithmetic in GF(2⁸) modulo x⁸+x⁴+x³+x²+1 (`0x11D`), the standard
//! Reed–Solomon / RAID-6 polynomial, under which `g = 2` is primitive.
//!
//! Multiplication and inversion are table-driven (exp/log tables built at
//! first use from generator 2), which keeps the Reed–Solomon matrix
//! construction and decode in `rs` branch-free per byte.

use std::sync::OnceLock;

/// The field polynomial (x⁸ + x⁴ + x³ + x² + 1).
pub const POLY: u16 = 0x11D;

/// The primitive generator used for tables and RAID-6 coefficients.
pub const GENERATOR: u8 = 2;

/// Exp/log tables for GF(2⁸) with generator 2.
struct Tables {
    /// `exp[i] = g^i` for i in 0..510 (doubled so mul avoids a mod 255).
    exp: [u8; 510],
    /// `log[x]` for x in 1..=255; `log[0]` is unused (set to 0).
    log: [u16; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 510];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..510 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    })
}

/// Adds two field elements (XOR).
#[inline]
pub fn add(a: u8, b: u8) -> u8 {
    a ^ b
}

/// Multiplies two field elements.
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] + t.log[b as usize]) as usize]
}

/// Multiplicative inverse.
///
/// # Panics
/// Panics on `0`, which has no inverse.
#[inline]
pub fn inv(a: u8) -> u8 {
    assert!(a != 0, "gf256: zero has no multiplicative inverse");
    let t = tables();
    t.exp[(255 - t.log[a as usize]) as usize]
}

/// Division `a / b`.
///
/// # Panics
/// Panics when `b == 0`.
#[inline]
pub fn div(a: u8, b: u8) -> u8 {
    assert!(b != 0, "gf256: division by zero");
    if a == 0 {
        return 0;
    }
    let t = tables();
    t.exp[(t.log[a as usize] + 255 - t.log[b as usize]) as usize]
}

/// Exponentiation `base^e` in the field.
#[inline]
pub fn pow(base: u8, e: u32) -> u8 {
    if base == 0 {
        return if e == 0 { 1 } else { 0 };
    }
    let t = tables();
    let l = (t.log[base as usize] as u64 * e as u64) % 255;
    t.exp[l as usize]
}

/// Multiplies every byte of `data` by `c`, XOR-accumulating into `acc`:
/// `acc[i] ^= c · data[i]`. This is the inner loop of Reed–Solomon
/// encode/decode; it dispatches to the word-parallel split-nibble kernel
/// (see [`mul_acc_scalar`] for the byte-at-a-time reference).
///
/// # Panics
/// Panics when slice lengths differ.
pub fn mul_acc(acc: &mut [u8], data: &[u8], c: u8) {
    assert_eq!(acc.len(), data.len(), "gf256::mul_acc: length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        crate::kernel::xor_acc(acc, data);
        return;
    }
    crate::kernel::mul_acc_wide(acc, data, &crate::kernel::NibbleTables::new(c));
}

/// Byte-at-a-time reference implementation of [`mul_acc`]: one log/exp
/// table walk per byte, exactly as the math reads. Kept for proptests and
/// benches that pin the wide kernel against it.
///
/// # Panics
/// Panics when slice lengths differ.
pub fn mul_acc_scalar(acc: &mut [u8], data: &[u8], c: u8) {
    assert_eq!(acc.len(), data.len(), "gf256::mul_acc: length mismatch");
    if c == 0 {
        return;
    }
    if c == 1 {
        for (a, &d) in acc.iter_mut().zip(data) {
            *a ^= d;
        }
        return;
    }
    let t = tables();
    let lc = t.log[c as usize];
    for (a, &d) in acc.iter_mut().zip(data) {
        if d != 0 {
            *a ^= t.exp[(lc + t.log[d as usize]) as usize];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference bitwise ("Russian peasant") multiplication.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= (POLY & 0xFF) as u8;
            }
            b >>= 1;
        }
        p
    }

    #[test]
    fn addition_is_xor_and_self_inverse() {
        for a in 0..=255u8 {
            assert_eq!(add(a, a), 0);
            assert_eq!(add(a, 0), a);
        }
    }

    #[test]
    fn table_mul_matches_bitwise_mul_exhaustive() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                assert_eq!(mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn multiplication_identity_and_zero() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(1, a), a);
            assert_eq!(mul(a, 0), 0);
            assert_eq!(mul(0, a), 0);
        }
    }

    #[test]
    fn field_axioms_sampled() {
        for &a in &[1u8, 2, 3, 0x53, 0xCA, 255] {
            for &b in &[1u8, 7, 0x11, 0x80, 254] {
                for &c in &[1u8, 5, 0x1B, 200] {
                    assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
                    assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn inverse_roundtrip_exhaustive() {
        for a in 1..=255u8 {
            assert_eq!(mul(a, inv(a)), 1, "inv failed for {a}");
            assert_eq!(div(a, a), 1);
            assert_eq!(div(0, a), 0);
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn inv_zero_panics() {
        inv(0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_zero_panics() {
        div(1, 0);
    }

    #[test]
    fn generator_is_primitive() {
        // 2 must generate all 255 nonzero elements under 0x11D. This is what
        // lets RAID-6 support up to 255 data shards with distinct g^i.
        let mut seen = std::collections::HashSet::new();
        let mut x = 1u8;
        for _ in 0..255 {
            assert!(seen.insert(x), "generator order < 255");
            x = mul(x, GENERATOR);
        }
        assert_eq!(x, 1, "g^255 must be 1");
        assert_eq!(seen.len(), 255);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        for &g in &[2u8, 3, 0x1D] {
            let mut acc = 1u8;
            for e in 0..300u32 {
                assert_eq!(pow(g, e), acc, "g={g} e={e}");
                acc = mul(acc, g);
            }
        }
        assert_eq!(pow(0, 0), 1);
        assert_eq!(pow(0, 5), 0);
    }

    #[test]
    fn mul_acc_and_mul_slice() {
        let data = [1u8, 2, 3, 0, 255];
        let mut acc = [0u8; 5];
        mul_acc(&mut acc, &data, 0x57);
        for (a, &d) in acc.iter().zip(&data) {
            assert_eq!(*a, mul(d, 0x57));
        }
        // acc ^= 1*data == plain xor
        let mut acc2 = acc;
        mul_acc(&mut acc2, &data, 1);
        for ((a2, a), d) in acc2.iter().zip(&acc).zip(&data) {
            assert_eq!(*a2, a ^ d);
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mul_acc_length_mismatch_panics() {
        let mut acc = [0u8; 2];
        mul_acc(&mut acc, &[1u8; 3], 2);
    }
}
