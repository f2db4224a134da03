// fraglint-fixture: lock-order
//! Fixture: a provider-boundary read issued while a shard guard is live.
//! The receiver is the distributor, not a provider — the call is
//! provider I/O by name (`get_with_retry` / `put_with_retry`), so moving
//! a raw `provider.get` behind the boundary does not hide it.

pub fn pre_state_under_lock(d: &Distributor, e: &ChunkEntry, tel: &Tel) -> Result<Bytes> {
    let st = d.shard_write(0);
    d.get_with_retry(&st, e.provider_idx, e.vid, Some(e.stored_len), tel)
        .0
}
