//! Shard-integrity framing: a checksum stamped into every stored object.
//!
//! Every byte string the distributor hands to a provider is wrapped in a
//! small frame before `put` and verified + stripped after `get`:
//!
//! ```text
//! +-------+---------+------------------+----------------+
//! | magic | version | checksum (LE u64)| payload ...    |
//! | 4 B   | 1 B     | 8 B              |                |
//! +-------+---------+------------------+----------------+
//! ```
//!
//! The checksum is [`fragcloud_crypto::checksum64`] over the payload,
//! **seeded by the object's virtual id** — so a provider serving an
//! internally consistent but *wrong* object (a misrouted or swapped
//! read) fails verification exactly like bit-rot does, without the
//! tables having to store a digest per chunk. A mismatch surfaces as
//! [`CoreError::ShardCorrupt`], which the read path treats as an
//! erasure: the shard routes into parity reconstruction and read-repair
//! rather than ever reaching decode as bad bytes.
//!
//! Every stored object is framed: bytes too short to hold a frame, or
//! not starting with the magic, are a `ShardCorrupt` erasure like any
//! other damage — parity heals them and read-repair re-frames them.

use crate::{CoreError, Result};
use bytes::Bytes;
use fragcloud_crypto::checksum64;
use fragcloud_sim::VirtualId;

/// Frame format version stamped after the magic.
pub const FRAME_VERSION: u8 = 2;

/// Frame magic: "FraGcloud Integrity".
const MAGIC: [u8; 4] = *b"FGI\x02";

/// Bytes of framing overhead per stored object.
pub const FRAME_OVERHEAD: usize = MAGIC.len() + 1 + 8;

/// Wraps a payload for storage under `vid`: magic, version, and a
/// vid-seeded checksum over the payload.
pub fn frame(vid: VirtualId, payload: &[u8]) -> Bytes {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    out.resize(FRAME_OVERHEAD, 0);
    out.extend_from_slice(payload);
    frame_in_place(vid, &mut out);
    Bytes::from(out)
}

/// [`frame`] for a payload already in its storage buffer: `object` is
/// [`FRAME_OVERHEAD`] bytes of room followed by the payload, and the room
/// becomes the frame header. The payload is read once, for the checksum.
///
/// # Panics
/// Panics when `object` is shorter than [`FRAME_OVERHEAD`].
pub fn frame_in_place(vid: VirtualId, object: &mut [u8]) {
    let (head, payload) = object.split_at_mut(FRAME_OVERHEAD);
    let sum = checksum64(payload, vid.0);
    head[..MAGIC.len()].copy_from_slice(&MAGIC);
    head[MAGIC.len()] = FRAME_VERSION;
    head[MAGIC.len() + 1..].copy_from_slice(&sum.to_le_bytes());
}

/// Verifies and strips the frame from bytes read back for `vid`.
///
/// Bytes without a frame (too short, or no magic), a frame whose version
/// is unknown, and a checksum that does not match the vid-seeded payload
/// sum all fail with [`CoreError::ShardCorrupt`].
pub fn unframe(vid: VirtualId, bytes: Bytes) -> Result<Bytes> {
    let corrupt = |why: String| CoreError::ShardCorrupt { vid, why };
    if bytes.len() < FRAME_OVERHEAD || bytes[..MAGIC.len()] != MAGIC {
        return Err(corrupt("no integrity frame".to_string()));
    }
    let version = bytes[MAGIC.len()];
    if version != FRAME_VERSION {
        return Err(corrupt(format!("unsupported frame version {version}")));
    }
    let mut sum = [0u8; 8];
    sum.copy_from_slice(&bytes[MAGIC.len() + 1..FRAME_OVERHEAD]);
    let payload = bytes.slice(FRAME_OVERHEAD..);
    if checksum64(&payload, vid.0) != u64::from_le_bytes(sum) {
        return Err(corrupt("checksum mismatch".to_string()));
    }
    Ok(payload)
}

/// [`unframe`] plus a cross-check against the payload length the chunk
/// tables record out-of-band: an intact frame of another length is a
/// stale object replayed under the same vid, and must not reach decode.
pub fn unframe_expecting(vid: VirtualId, bytes: Bytes, expected_len: usize) -> Result<Bytes> {
    let payload = unframe(vid, bytes)?;
    if payload.len() != expected_len {
        return Err(CoreError::ShardCorrupt {
            vid,
            why: format!(
                "object is {} bytes, table says {expected_len}",
                payload.len()
            ),
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_overhead() {
        let vid = VirtualId(1234);
        let payload = Bytes::from((0u16..700).map(|i| (i % 251) as u8).collect::<Vec<u8>>());
        let object = frame(vid, &payload);
        assert_eq!(object.len(), payload.len() + FRAME_OVERHEAD);
        let back = unframe(vid, object).expect("clean frame verifies");
        assert_eq!(back, payload);
        // Empty payloads frame too.
        assert!(unframe(vid, frame(vid, b"")).unwrap().is_empty());
        // Framing in place stamps the same bytes as framing a copy.
        let mut object = vec![0u8; FRAME_OVERHEAD];
        object.extend_from_slice(&payload);
        frame_in_place(vid, &mut object);
        assert_eq!(object, frame(vid, &payload).to_vec());
    }

    #[test]
    fn every_flipped_bit_is_caught() {
        let vid = VirtualId(77);
        let payload: Vec<u8> = (0..64).map(|i| (i * 3) as u8).collect();
        let framed = frame(vid, &payload);
        for byte in 0..framed.len() {
            for bit in 0..8 {
                let mut bad = framed.to_vec();
                bad[byte] ^= 1 << bit;
                // Magic, version, checksum or payload: every flip is a
                // typed corruption.
                let outcome = unframe(vid, Bytes::from(bad));
                assert!(
                    matches!(outcome, Err(CoreError::ShardCorrupt { .. })),
                    "byte={byte} bit={bit}: {outcome:?}"
                );
            }
        }
    }

    #[test]
    fn truncation_is_caught() {
        let vid = VirtualId(9);
        let framed = frame(vid, &[7u8; 100]);
        for keep in FRAME_OVERHEAD..framed.len() {
            assert!(
                matches!(
                    unframe(vid, framed.slice(..keep)),
                    Err(CoreError::ShardCorrupt { .. })
                ),
                "keep={keep}"
            );
        }
    }

    #[test]
    fn wrong_object_swap_is_caught() {
        // The same payload framed for a different vid must not verify:
        // the checksum seed is the vid.
        let payload = [42u8; 32];
        let framed_for_a = frame(VirtualId(1), &payload);
        assert!(matches!(
            unframe(VirtualId(2), framed_for_a.clone()),
            Err(CoreError::ShardCorrupt { vid: VirtualId(2), .. })
        ));
        assert!(unframe(VirtualId(1), framed_for_a).is_ok());
    }

    #[test]
    fn unframed_objects_are_corrupt() {
        let vid = VirtualId(5);
        for raw in [&b""[..], b"short", &[0u8; 64][..]] {
            assert!(matches!(
                unframe(vid, Bytes::copy_from_slice(raw)),
                Err(CoreError::ShardCorrupt { why, .. }) if why.contains("no integrity frame")
            ));
        }
    }

    #[test]
    fn length_cross_check_catches_same_vid_stale_replay() {
        let vid = VirtualId(11);
        let payload: Vec<u8> = (0..100).map(|i| (i * 7) as u8).collect();
        // An intact frame passes the cross-check at the recorded length…
        let back = unframe_expecting(vid, frame(vid, &payload), payload.len()).unwrap();
        assert_eq!(back, Bytes::copy_from_slice(&payload));
        // …but an older object under the same vid verifies its own
        // checksum and is caught only by the table's length.
        for stale in [&payload[..60], &[][..]] {
            assert!(unframe(vid, frame(vid, stale)).is_ok());
            assert!(matches!(
                unframe_expecting(vid, frame(vid, stale), payload.len()),
                Err(CoreError::ShardCorrupt { why, .. }) if why.contains("table says 100")
            ));
        }
    }

    #[test]
    fn unknown_frame_version_is_corrupt_not_garbage() {
        let vid = VirtualId(3);
        let mut object = frame(vid, b"hello").to_vec();
        object[MAGIC.len()] = 99;
        assert!(matches!(
            unframe(vid, Bytes::from(object)),
            Err(CoreError::ShardCorrupt { why, .. }) if why.contains("version 99")
        ));
    }
}
