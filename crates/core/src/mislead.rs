//! Misleading-data injection and stripping.
//!
//! §IV-A / §VII-D: "the Cloud Data Distributor may add misleading data into
//! chunks depending on the demand of clients. The positions of misleading
//! data bytes are also maintained by the distributor and these misleading
//! bytes are removed while providing the chunks to the clients."
//!
//! Injection expands the chunk; a provider (or attacker) that mines the
//! stored bytes sees plausible-looking but false values interleaved with
//! the real ones. Positions refer to offsets **in the stored chunk**, in
//! ascending order, matching the Chunk Table's `M` column.

use rand::distributions::Uniform;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Deref;
use std::sync::Arc;

/// Short runs move as one block of this many bytes (one SSE register).
const BLOCK: usize = 16;

/// Copies the `len`-byte run `src[from..]` to `dst[to..]`.
///
/// A run of at most [`BLOCK`] bytes moves as one fixed-size block when
/// both slices have room for it: a constant-length copy compiles to a
/// single load/store pair, where a variable-length one is a `memcpy`
/// call that costs more than the ~12 bytes it moves. The block may write
/// up to `BLOCK - len` bytes past the run, so callers fill `dst` in
/// ascending order and overwrite that overshoot with what follows.
#[inline(always)]
fn copy_run(dst: &mut [u8], to: usize, src: &[u8], from: usize, len: usize) {
    if len <= BLOCK {
        if let (Some(d), Some(s)) = (
            dst.get_mut(to..).and_then(|d| d.first_chunk_mut::<BLOCK>()),
            src.get(from..).and_then(|s| s.first_chunk::<BLOCK>()),
        ) {
            *d = *s;
            return;
        }
    }
    dst[to..to + len].copy_from_slice(&src[from..from + len]);
}

/// Checks that `rate` is one [`inject`] accepts: in `[0, 0.5)`, not NaN.
/// Config validation and the per-put override both go through here, so a
/// bad rate is a typed error on the caller's thread instead of a panic on
/// an encode worker.
pub fn validate_rate(rate: f64) -> crate::Result<()> {
    if (0.0..0.5).contains(&rate) {
        Ok(())
    } else {
        Err(crate::CoreError::InvalidConfig {
            detail: format!("mislead_rate must be in [0, 0.5), got {rate}"),
        })
    }
}

/// Length of the stored form [`inject`] makes of a `len`-byte chunk at
/// `rate` — what a caller allocates before [`inject_into`] fills it.
pub fn stored_len(len: usize, rate: f64) -> usize {
    if rate == 0.0 || len == 0 {
        len
    } else {
        len + ((len as f64 * rate).ceil() as usize).max(1)
    }
}

/// Injects `⌈rate · len⌉` misleading bytes at pseudo-random positions.
///
/// Returns the expanded chunk plus the sorted positions of the inserted
/// bytes (stored-chunk offsets). Injected byte values mimic the local byte
/// distribution (they copy a random nearby real byte, perturbed), so they
/// don't stand out statistically.
///
/// The draw sequence is frozen: positions are drawn from `0..out_len`
/// until `n_inject` distinct ones exist, then each decoy in position order
/// draws a source index and a perturbation. Stored objects, chunk tables
/// and journals all hold bytes derived from it, so any reordering changes
/// what every existing deployment would re-derive for the same seed.
///
/// # Panics
/// Panics when `rate` is not in `[0, 0.5)`.
pub fn inject(chunk: &[u8], rate: f64, seed: u64) -> (Vec<u8>, Vec<usize>) {
    let mut out = Vec::with_capacity(stored_len(chunk.len(), rate));
    let positions = inject_as(chunk, rate, seed, &mut out);
    (out, positions)
}

/// [`inject`], appending the stored form to `out` — the put pipeline
/// writes it straight into the buffer it uploads. At rate 0 the stored
/// form is the chunk itself, copied once. Returns the positions, as
/// offsets into the appended stored form, in the shared list a chunk row
/// holds — allocated once, at its final size.
///
/// # Panics
/// Panics when `rate` is not in `[0, 0.5)`.
pub fn inject_into(chunk: &[u8], rate: f64, seed: u64, out: &mut Vec<u8>) -> Arc<[usize]> {
    inject_as(chunk, rate, seed, out)
}

/// [`inject_into`], the positions collected as `P`.
fn inject_as<P>(chunk: &[u8], rate: f64, seed: u64, out: &mut Vec<u8>) -> P
where
    P: Default + FromIterator<usize> + Deref<Target = [usize]>,
{
    assert!(
        validate_rate(rate).is_ok(),
        "mislead rate must be in [0, 0.5)"
    );
    let n_inject = stored_len(chunk.len(), rate) - chunk.len();
    if n_inject == 0 {
        out.extend_from_slice(chunk);
        return P::default();
    }
    let out_len = chunk.len() + n_inject;
    let mut rng = StdRng::seed_from_u64(seed);

    // Choose distinct positions in the *output* index space: one bit per
    // output byte, set by rejection on duplicates, read back in ascending
    // order a word at a time.
    let any_position = Uniform::<usize>::new(0, out_len);
    let mut taken = vec![0u64; out_len.div_ceil(64)];
    let mut n_taken = 0usize;
    while n_taken < n_inject {
        let p = any_position.sample(&mut rng);
        let bit = 1u64 << (p % 64);
        n_taken += usize::from(taken[p / 64] & bit == 0);
        taken[p / 64] |= bit;
    }
    let positions: P = set_bits(&taken, n_inject);

    // Splice real-byte runs around the injected positions. For the k-th
    // (0-based) injected position p, the output prefix `..p` holds k
    // earlier injected bytes, so exactly `p - k` real bytes precede it —
    // copying run-by-run needs no per-byte bookkeeping and cannot run
    // out of source bytes.
    let any_real_byte = Uniform::<usize>::new(0, chunk.len());
    let perturbation = Uniform::<u8>::new_inclusive(1, 32);
    let base = out.len();
    out.resize(base + out_len, 0);
    let dst = &mut out[base..];
    let mut copied = 0usize;
    for (k, &p) in positions.iter().enumerate() {
        let run_end = p - k;
        copy_run(dst, copied + k, chunk, copied, run_end - copied);
        copied = run_end;
        // A misleading byte: a perturbed copy of a random real byte.
        let real = chunk[any_real_byte.sample(&mut rng)];
        dst[p] = real.wrapping_add(perturbation.sample(&mut rng));
    }
    dst[copied + n_inject..].copy_from_slice(&chunk[copied..]);
    positions
}

/// The offsets of the set bits of `words`, ascending — `n` of them, the
/// number set. Counted by `0..n`, the collection knows its exact length
/// up front, so a `Vec` or an `Arc<[usize]>` is allocated once.
fn set_bits<P: FromIterator<usize>>(words: &[u64], n: usize) -> P {
    let (mut w, mut rest) = (0usize, words.first().copied().unwrap_or(0));
    (0..n)
        .map(|_| {
            while rest == 0 && w + 1 < words.len() {
                w += 1;
                rest = words[w];
            }
            let bit = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            w * 64 + bit
        })
        .collect()
}

/// Removes the bytes at `positions` (ascending stored-chunk offsets),
/// restoring the original chunk.
///
/// # Panics
/// Panics when positions are out of bounds or unsorted.
pub fn strip(stored: &[u8], positions: &[usize]) -> Vec<u8> {
    let mut out = Vec::with_capacity(stored.len().saturating_sub(positions.len()));
    strip_into(stored, positions, &mut out);
    out
}

/// [`strip`], appending the original chunk to `out` — the get path
/// assembles a file by stripping each chunk straight into its output.
///
/// # Panics
/// Panics when positions are out of bounds or unsorted.
pub fn strip_into(stored: &[u8], positions: &[usize], out: &mut Vec<u8>) {
    let Some(&last) = positions.last() else {
        out.extend_from_slice(stored);
        return;
    };
    assert!(
        positions.windows(2).all(|w| w[0] < w[1]),
        "positions must be strictly ascending"
    );
    assert!(last < stored.len(), "position out of bounds");
    // The real bytes are the runs between consecutive positions; the run
    // before the k-th position lands k bytes earlier than it was stored.
    let base = out.len();
    out.resize(base + stored.len() - positions.len(), 0);
    let dst = &mut out[base..];
    let mut run_start = 0usize;
    for (k, &p) in positions.iter().enumerate() {
        copy_run(dst, run_start - k, stored, run_start, p - run_start);
        run_start = p + 1;
    }
    dst[run_start - positions.len()..].copy_from_slice(&stored[run_start..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rate_is_identity() {
        let data = vec![1u8, 2, 3];
        let (out, pos) = inject(&data, 0.0, 1);
        assert_eq!(out, data);
        assert!(pos.is_empty());
        assert_eq!(strip(&out, &pos), data);
    }

    #[test]
    fn inject_strip_roundtrip() {
        for n in [1usize, 2, 10, 100, 1000] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31) as u8).collect();
            for rate in [0.01, 0.05, 0.2, 0.49] {
                let (stored, pos) = inject(&data, rate, n as u64);
                assert_eq!(strip(&stored, &pos), data, "n={n} rate={rate}");
                assert_eq!(stored.len(), data.len() + pos.len());
            }
        }
    }

    #[test]
    fn inject_into_appends_what_inject_returns() {
        let data: Vec<u8> = (0..300).map(|i| (i * 7) as u8).collect();
        for rate in [0.0, 0.08, 0.3] {
            let (stored, positions) = inject(&data, rate, 11);
            assert_eq!(stored.len(), stored_len(data.len(), rate), "rate={rate}");
            let mut out = vec![0xAAu8; 13];
            assert_eq!(inject_into(&data, rate, 11, &mut out)[..], positions[..]);
            assert_eq!(out[..13], [0xAAu8; 13]);
            assert_eq!(out[13..], stored[..], "rate={rate}");
        }
        assert_eq!(stored_len(0, 0.3), 0);
    }

    #[test]
    fn injection_count_matches_rate() {
        let data = vec![0u8; 1000];
        let (_, pos) = inject(&data, 0.1, 7);
        assert_eq!(pos.len(), 100);
        let (_, pos) = inject(&data, 0.001, 7);
        assert_eq!(pos.len(), 1);
    }

    #[test]
    fn positions_sorted_unique_in_bounds() {
        let data: Vec<u8> = (0..500).map(|i| i as u8).collect();
        let (stored, pos) = inject(&data, 0.3, 42);
        for w in pos.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert!(*pos.last().unwrap() < stored.len());
    }

    #[test]
    fn deterministic_for_seed() {
        let data = vec![9u8; 64];
        let a = inject(&data, 0.2, 5);
        let b = inject(&data, 0.2, 5);
        assert_eq!(a, b);
        let c = inject(&data, 0.2, 6);
        assert_ne!(a.1, c.1);
    }

    #[test]
    fn output_is_frozen() {
        // Digests recorded from the BTreeSet / per-byte implementation this
        // module replaced: same seed, same stored bytes, same positions.
        fn fnv(bytes: &[u8]) -> u64 {
            bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
        }
        for (n, rate, seed, stored_digest, positions_digest) in [
            (
                1usize,
                0.08,
                1u64,
                0x0828_6407_b4e2_de3c_u64,
                0x89cd_3129_1d2a_efa4_u64,
            ),
            (17, 0.3, 2, 0x762a_34ff_1597_38f8, 0x4837_710b_b456_4b01),
            (
                4096,
                0.08,
                0xDEAD_BEEF,
                0xcfd7_2d9b_7ee3_bf8a,
                0x5632_b87a_c842_ecef,
            ),
            (
                65536,
                0.02,
                42,
                0x7e25_b42a_7156_0f9c,
                0x8982_d448_c21f_ac9b,
            ),
            (1000, 0.49, 9, 0x20d8_7706_f65d_274d, 0x132c_00f2_5502_cd41),
        ] {
            let data: Vec<u8> = (0..n).map(|i| (i * 31 + 7) as u8).collect();
            let (stored, pos) = inject(&data, rate, seed);
            let pos_bytes: Vec<u8> = pos.iter().flat_map(|&p| (p as u64).to_le_bytes()).collect();
            assert_eq!(fnv(&stored), stored_digest, "n={n} rate={rate}");
            assert_eq!(fnv(&pos_bytes), positions_digest, "n={n} rate={rate}");
            assert_eq!(strip(&stored, &pos), data, "n={n} rate={rate}");
        }
    }

    #[test]
    fn strip_handles_every_run_shape() {
        // Runs shorter than, equal to and longer than the copy block, at
        // the start, the middle and flush against the end of the buffer.
        let stored: Vec<u8> = (0..100).map(|i| i as u8).collect();
        for positions in [
            vec![0],
            vec![99],
            vec![0, 1, 2],
            vec![97, 98, 99],
            vec![15, 31, 47],
            vec![16, 33, 50, 84],
            vec![17, 80],
            (0..100).step_by(2).collect::<Vec<_>>(),
            (0..100).collect::<Vec<_>>(),
        ] {
            let want: Vec<u8> = stored
                .iter()
                .enumerate()
                .filter(|(i, _)| !positions.contains(i))
                .map(|(_, &b)| b)
                .collect();
            assert_eq!(strip(&stored, &positions), want, "{positions:?}");
        }
    }

    #[test]
    fn empty_chunk_safe() {
        let (out, pos) = inject(&[], 0.2, 1);
        assert!(out.is_empty());
        assert!(pos.is_empty());
        assert!(strip(&[], &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "rate must be")]
    fn excessive_rate_panics() {
        inject(&[1, 2, 3], 0.8, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn strip_out_of_bounds_panics() {
        strip(&[1, 2], &[5]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn strip_unsorted_panics() {
        strip(&[1, 2, 3], &[1, 0]);
    }

    #[test]
    fn misleading_bytes_resemble_real_distribution() {
        // Injected bytes are perturbed copies of real bytes, so the stored
        // chunk should not contain byte values wildly outside the data's
        // range for a narrow-range input.
        let data = vec![100u8; 200];
        let (stored, pos) = inject(&data, 0.1, 3);
        for &p in &pos {
            let v = stored[p];
            assert!((101..=132).contains(&v), "injected byte {v} out of family");
        }
    }
}
