//! Fixture: the disciplined versions — ascending acquisition, and the
//! guard dropped (or scoped out) before any journal/provider I/O.

pub fn cross_shard_swap(d: &Distributor) -> usize {
    let lo = d.shard_write(1);
    let hi = d.shard_write(2);
    lo.chunks.len() + hi.chunks.len()
}

pub fn persist_after_unlock(d: &Distributor, batch: &Batch) {
    let known = d.directory_read().contains_key("c");
    let n = {
        let guard = d.shard_write(0);
        guard.chunks.len()
    };
    d.journal.persist(batch);
    d.note_persisted(n);
}

pub fn reacquire_lower_after_drop(d: &Distributor) {
    let hi = d.shard_write(2);
    drop(hi);
    let lo = d.shard_write(1);
    drop(lo);
}
