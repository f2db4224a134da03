// fraglint-fixture: verify-before-decode
//! Fixture: a reconstruction path that feeds raw provider bytes
//! straight into the stripe decode. A corrupted, truncated or swapped
//! shard would decode into plausible garbage instead of surfacing as a
//! typed `ShardCorrupt` erasure.

pub fn reconstruct_stored(st: &Tables, chunk_idx: usize) -> Result<Vec<u8>> {
    let entry = &st.chunks[chunk_idx];
    let mut available = Vec::new();
    for (slot, member) in stripe_members(st, entry) {
        if let Ok(raw) = fetch_shard(st, member) {
            available.push((slot, raw.to_vec()));
        }
    }
    let refs: Vec<(usize, &[u8])> = available
        .iter()
        .map(|(slot, bytes)| (*slot, bytes.as_slice()))
        .collect();
    st.codec.reconstruct_shard_observed(&refs, entry.slot, &st.tel)
}
