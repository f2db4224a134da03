//! Fixture: the same reconstruction path, but every fetched shard
//! crosses the vid-seeded checksum verify (with the table-length
//! cross-check) before the decode — corruption becomes a typed erasure
//! the parity machinery absorbs.

pub fn reconstruct_stored(st: &Tables, chunk_idx: usize) -> Result<Vec<u8>> {
    let entry = &st.chunks[chunk_idx];
    let mut available = Vec::new();
    for (slot, member) in stripe_members(st, entry) {
        if let Ok(raw) = fetch_shard(st, member) {
            let (payload, _framed) =
                integrity::unframe_expecting(member.vid, raw, member.stored_len)?;
            available.push((slot, payload.to_vec()));
        }
    }
    let refs: Vec<(usize, &[u8])> = available
        .iter()
        .map(|(slot, bytes)| (*slot, bytes.as_slice()))
        .collect();
    st.codec.reconstruct_shard_observed(&refs, entry.slot, &st.tel)
}
