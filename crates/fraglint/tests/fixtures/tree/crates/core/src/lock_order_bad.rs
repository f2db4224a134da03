// fraglint-fixture: lock-order
//! Fixture: two lock-discipline breaches — a cross-shard swap that
//! acquires shard locks in descending index order (deadlock with the
//! ascending convention), and a journal persist issued while a shard
//! guard is still live (provider/journal I/O under a held lock).

pub fn cross_shard_swap(d: &Distributor) -> usize {
    let hi = d.shard_write(2);
    let lo = d.shard_write(1);
    hi.chunks.len() + lo.chunks.len()
}

pub fn persist_under_lock(d: &Distributor, batch: &Batch) {
    let guard = d.shard_write(0);
    d.journal.persist(batch);
    drop(guard);
}

pub fn persist_under_directory(d: &Distributor, b: &Batch) { let dir = d.directory_write(); d.journal.persist(b); }
