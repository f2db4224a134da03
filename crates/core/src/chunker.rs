//! Fragmentation: files → PL-sized chunks and back.
//!
//! §VI `chunks[] split(file)`: "The chunk size is fixed for a particular
//! privilege level. The higher the privilege level, the lower the chunk
//! size." Smaller chunks mean less minable data per exposure point
//! (§VII-C).

use crate::config::ChunkSizeSchedule;
use bytes::Bytes;
use fragcloud_sim::PrivacyLevel;
use std::io::Read;

/// Splits a file into chunks sized by the schedule for its privacy level.
///
/// The final chunk may be shorter; an empty file yields one empty chunk so
/// that every file has at least one addressable serial.
pub fn split(data: &[u8], pl: PrivacyLevel, schedule: &ChunkSizeSchedule) -> Vec<Vec<u8>> {
    let size = schedule.size_for(pl);
    if data.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::with_capacity(data.len().div_ceil(size));
    for c in data.chunks(size) {
        // Exact-capacity allocation per chunk — the final (short) chunk
        // gets `c.len()`, never a rounded-up full block, so downstream
        // stages can hold many chunks without slack.
        let mut chunk = Vec::with_capacity(c.len());
        chunk.extend_from_slice(c);
        out.push(chunk);
    }
    out
}

/// Borrowed variant of [`split`]: the same chunk boundaries, but as slices
/// into `data` with **no per-chunk copies or allocations** beyond the outer
/// vector.
///
/// No longer called by the put pipeline (which stripes through
/// [`StripeFeeder`]); kept `pub` only because the `fragperf` replay still
/// times it, until a benchmark change drops that row.
///
/// An empty file yields one empty slice, mirroring [`split`].
pub fn split_borrowed<'a>(
    data: &'a [u8],
    pl: PrivacyLevel,
    schedule: &ChunkSizeSchedule,
) -> Vec<&'a [u8]> {
    if data.is_empty() {
        return vec![data];
    }
    // `chunks` is an exact-size iterator, so `collect` sizes the outer
    // vector exactly — the only allocation this function performs.
    data.chunks(schedule.size_for(pl)).collect()
}

/// Shared-buffer variant of [`split`]: each chunk is a cheap ref-counted
/// [`Bytes`] slice of the one shared file buffer.
///
/// No longer called by the put pipeline ([`StripeFeeder::shared`] yields
/// the same slices a stripe at a time); kept `pub` only because the
/// `fragperf` replay still times it, until a benchmark change drops that
/// row.
///
/// An empty file yields one empty chunk, mirroring [`split`].
pub fn split_shared(data: &Bytes, pl: PrivacyLevel, schedule: &ChunkSizeSchedule) -> Vec<Bytes> {
    let size = schedule.size_for(pl);
    if data.is_empty() {
        return vec![Bytes::new()];
    }
    let mut out = Vec::with_capacity(data.len().div_ceil(size));
    let mut off = 0;
    while off < data.len() {
        let end = (off + size).min(data.len());
        out.push(data.slice(off..end));
        off = end;
    }
    out
}

/// Where a [`StripeFeeder`] takes its bytes from.
enum Source<R> {
    /// Pulled from a reader, one stripe-sized block per stripe.
    Reader(R),
    /// One shared in-memory copy of the whole file, sliced by reference.
    Shared(Bytes),
}

/// The put pipeline's stripe source: yields one stripe of up to `stripe_k`
/// chunks (each `chunk_size` bytes, the final chunk possibly short) per
/// call, as ref-counted [`Bytes`] slices that can move onto transfer-pool
/// workers without copying. Over a [`Read`] it holds one stripe-sized
/// block at a time, so multi-GB files upload at bounded memory; over a
/// shared buffer ([`StripeFeeder::shared`]) it copies nothing at all.
///
/// Chunk boundaries are **identical** to [`split`] over the concatenated
/// source bytes — including the empty-source case, which yields exactly one
/// stripe containing one empty chunk so every file keeps at least one
/// addressable serial.
pub struct StripeFeeder<R> {
    source: Source<R>,
    chunk_size: usize,
    stripe_k: usize,
    bytes_read: u64,
    yielded_any: bool,
    eof: bool,
}

impl<R: Read> StripeFeeder<R> {
    /// Wraps `reader`; `chunk_size` and `stripe_k` are clamped to ≥ 1.
    pub fn new(reader: R, chunk_size: usize, stripe_k: usize) -> Self {
        Self::over(Source::Reader(reader), chunk_size, stripe_k)
    }

    /// Stripes an in-memory file: every chunk is a slice of `data`'s one
    /// allocation. `chunk_size` and `stripe_k` are clamped to ≥ 1.
    pub fn shared(data: Bytes, chunk_size: usize, stripe_k: usize) -> Self {
        Self::over(Source::Shared(data), chunk_size, stripe_k)
    }

    fn over(source: Source<R>, chunk_size: usize, stripe_k: usize) -> Self {
        StripeFeeder {
            source,
            chunk_size: chunk_size.max(1),
            stripe_k: stripe_k.max(1),
            bytes_read: 0,
            yielded_any: false,
            eof: false,
        }
    }

    /// Total source bytes consumed so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Yields the next stripe, or `None` once the source is exhausted.
    pub fn next_stripe(&mut self) -> std::io::Result<Option<Vec<Bytes>>> {
        if self.eof {
            return Ok(None);
        }
        // The stripe's bytes as one block, short only at the source's end.
        let want = self.stripe_k.saturating_mul(self.chunk_size);
        let block = match &mut self.source {
            Source::Reader(reader) => {
                // `take` + `read_to_end` retries short reads until the block
                // is full or the source ends, without zeroing the buffer.
                let mut block = Vec::with_capacity(want);
                reader.by_ref().take(want as u64).read_to_end(&mut block)?;
                Bytes::from(block)
            }
            Source::Shared(data) => {
                let start = (self.bytes_read as usize).min(data.len());
                data.slice(start..data.len().min(start.saturating_add(want)))
            }
        };
        self.bytes_read += block.len() as u64;
        self.eof = block.len() < want;
        if block.is_empty() {
            // Empty source: one empty chunk, exactly once.
            let first = !std::mem::replace(&mut self.yielded_any, true);
            return Ok(first.then(|| vec![Bytes::new()]));
        }
        self.yielded_any = true;
        let stripe = (0..block.len())
            .step_by(self.chunk_size)
            .map(|off| block.slice(off..block.len().min(off + self.chunk_size)))
            .collect();
        Ok(Some(stripe))
    }
}

/// Reassembles chunks (in serial order) into the original file.
pub fn join(chunks: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = chunks.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    for c in chunks {
        out.extend_from_slice(c);
    }
    out
}

/// Number of chunks `split` will produce for a file of `len` bytes.
pub fn chunk_count(len: usize, pl: PrivacyLevel, schedule: &ChunkSizeSchedule) -> usize {
    if len == 0 {
        1
    } else {
        len.div_ceil(schedule.size_for(pl))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched() -> ChunkSizeSchedule {
        ChunkSizeSchedule {
            sizes: [16, 8, 4, 2],
        }
    }

    #[test]
    fn split_exact_multiple() {
        let data: Vec<u8> = (0..16).collect();
        let chunks = split(&data, PrivacyLevel::Low, &sched());
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 8);
        assert_eq!(chunks[1].len(), 8);
    }

    #[test]
    fn split_with_remainder() {
        let data: Vec<u8> = (0..10).collect();
        let chunks = split(&data, PrivacyLevel::Moderate, &sched());
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[2], vec![8, 9]);
    }

    #[test]
    fn higher_pl_means_more_smaller_chunks() {
        let data = vec![7u8; 64];
        let s = sched();
        let mut last = 0;
        for pl in PrivacyLevel::ALL {
            let n = split(&data, pl, &s).len();
            assert!(n >= last, "chunk count must not decrease with PL");
            last = n;
        }
        assert_eq!(split(&data, PrivacyLevel::Public, &s).len(), 4);
        assert_eq!(split(&data, PrivacyLevel::High, &s).len(), 32);
    }

    #[test]
    fn empty_file_single_empty_chunk() {
        let chunks = split(&[], PrivacyLevel::Public, &sched());
        assert_eq!(chunks.len(), 1);
        assert!(chunks[0].is_empty());
        assert_eq!(chunk_count(0, PrivacyLevel::Public, &sched()), 1);
    }

    #[test]
    fn join_inverts_split() {
        let s = sched();
        for n in [0usize, 1, 2, 15, 16, 17, 100] {
            let data: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
            for pl in PrivacyLevel::ALL {
                assert_eq!(join(&split(&data, pl, &s)), data, "n={n} pl={pl}");
            }
        }
    }

    #[test]
    fn split_and_join_allocate_exactly() {
        let s = sched();
        // Empty file: one chunk, no heap allocation at all.
        let chunks = split(&[], PrivacyLevel::Public, &s);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].capacity(), 0);
        assert_eq!(join(&chunks).capacity(), 0);
        // Exact multiple and short-tail: every chunk's capacity equals its
        // length (no rounded-up blocks), and `join` never reallocates past
        // the total.
        let data: Vec<u8> = (0..32).map(|i| i as u8).collect();
        for body in [&data[..32], &data[..30]] {
            let chunks = split(body, PrivacyLevel::Low, &s);
            assert_eq!(chunks.capacity(), chunks.len(), "outer vec sized exactly");
            for c in &chunks {
                assert_eq!(c.capacity(), c.len(), "chunk over-allocated");
            }
            let joined = join(&chunks);
            assert_eq!(joined.capacity(), body.len());
            assert_eq!(joined, body);
        }
    }

    #[test]
    fn borrowed_and_shared_variants_are_zero_copy() {
        let s = sched();
        let data: Vec<u8> = (0..37).map(|i| i as u8).collect();
        let owned = split(&data, PrivacyLevel::Low, &s);

        // Borrowed: same boundaries, every slice points INTO the caller's
        // buffer (pointer identity proves zero-copy), outer vec exact.
        let borrowed = split_borrowed(&data, PrivacyLevel::Low, &s);
        assert_eq!(borrowed.len(), owned.len());
        assert_eq!(borrowed.capacity(), borrowed.len());
        let range = data.as_ptr() as usize..data.as_ptr() as usize + data.len();
        for (b, o) in borrowed.iter().zip(&owned) {
            assert_eq!(*b, o.as_slice());
            assert!(range.contains(&(b.as_ptr() as usize)), "slice escaped buffer");
        }

        // Shared: ref-counted slices of ONE buffer — again pointer
        // identity, no per-chunk copies.
        let shared_buf = Bytes::from(data.clone());
        let base = shared_buf.as_ptr() as usize;
        let shared = split_shared(&shared_buf, PrivacyLevel::Low, &s);
        assert_eq!(shared.len(), owned.len());
        for (sh, o) in shared.iter().zip(&owned) {
            assert_eq!(sh.as_ref(), o.as_slice());
            let p = sh.as_ptr() as usize;
            assert!((base..base + data.len()).contains(&p), "chunk was copied");
        }

        // Empty-file semantics match `split` for both variants.
        assert_eq!(split_borrowed(&[], PrivacyLevel::Low, &s).len(), 1);
        assert!(split_borrowed(&[], PrivacyLevel::Low, &s)[0].is_empty());
        let e = split_shared(&Bytes::new(), PrivacyLevel::Low, &s);
        assert_eq!(e.len(), 1);
        assert!(e[0].is_empty());
    }

    /// Drains a feeder into owned chunks, checking no stripe overfills.
    fn drain<R: Read>(feeder: &mut StripeFeeder<R>, k: usize) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while let Some(stripe) = feeder.next_stripe().expect("in-memory read") {
            assert!(stripe.len() <= k, "stripe overfilled");
            got.extend(stripe.iter().map(|c| c.to_vec()));
        }
        got
    }

    #[test]
    fn feeder_matches_split_boundaries() {
        let s = sched();
        for n in [0usize, 1, 7, 8, 9, 16, 17, 40, 100] {
            let data: Vec<u8> = (0..n).map(|i| (i * 13) as u8).collect();
            for pl in PrivacyLevel::ALL {
                for k in [1usize, 2, 3, 5] {
                    let expect = split(&data, pl, &s);
                    let mut reader = StripeFeeder::new(&data[..], s.size_for(pl), k);
                    let mut shared = StripeFeeder::<&[u8]>::shared(
                        Bytes::copy_from_slice(&data),
                        s.size_for(pl),
                        k,
                    );
                    for feeder in [&mut reader, &mut shared] {
                        assert_eq!(drain(feeder, k), expect, "n={n} pl={pl} k={k}");
                        assert_eq!(feeder.bytes_read(), n as u64);
                        // Exhausted feeder stays exhausted.
                        assert!(feeder.next_stripe().expect("eof").is_none());
                    }
                }
            }
        }
    }

    #[test]
    fn feeder_survives_short_reads() {
        // A reader that returns one byte at a time exercises the
        // fill-until-full loop.
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() || buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let s = sched();
        let data: Vec<u8> = (0..25).map(|i| i as u8).collect();
        let mut feeder = StripeFeeder::new(OneByte(&data), s.size_for(PrivacyLevel::Low), 2);
        assert_eq!(drain(&mut feeder, 2), split(&data, PrivacyLevel::Low, &s));
    }

    #[test]
    fn shared_feeder_slices_one_buffer() {
        // Pointer identity: every chunk lies inside the one shared buffer.
        let s = sched();
        let buf = Bytes::from((0..37).map(|i| i as u8).collect::<Vec<u8>>());
        let base = buf.as_ptr() as usize;
        let mut feeder =
            StripeFeeder::<&[u8]>::shared(buf.clone(), s.size_for(PrivacyLevel::Low), 3);
        while let Some(stripe) = feeder.next_stripe().expect("in-memory") {
            for c in &stripe {
                let p = c.as_ptr() as usize;
                assert!((base..base + buf.len()).contains(&p), "chunk was copied");
            }
        }
    }

    #[test]
    fn chunk_count_matches_split() {
        let s = sched();
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let data = vec![0u8; n];
            for pl in PrivacyLevel::ALL {
                assert_eq!(
                    chunk_count(n, pl, &s),
                    split(&data, pl, &s).len(),
                    "n={n} pl={pl}"
                );
            }
        }
    }
}
