// fraglint-fixture: lock-order
//! Fixture: a removal that drains the reclaimer itself — under its shard
//! guard and before its commit — instead of handing its doom list back to
//! the bracket. A crash or a failed commit after it finds table rows
//! naming objects that are gone, and every op on the shard waits out the
//! provider round-trips.

pub fn remove_file(d: &Distributor, client: &str, name: &str) -> Result<()> {
    d.journaled(OpKind::Remove, client, name, |jctx| {
        let mut st = d.shard_write(0);
        let doomed = doom(&st, st.file_objects(client, name)?);
        d.reclaimer.reclaim(d.fleet(), doomed);
        st.drop_file(client, name)?;
        Ok(((), Doomed::new()))
    })
}
