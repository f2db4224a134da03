//! Fixture: the protocol — under the guard only rows change; the doom
//! list goes back to the bracket, which hands it to the reclaimer once the
//! commit is durable and the guard is gone.

pub fn remove_file(d: &Distributor, client: &str, name: &str) -> Result<()> {
    d.journaled(OpKind::Remove, client, name, |jctx| {
        let mut st = d.shard_write(0);
        let doomed = doom(&st, st.file_objects(client, name)?);
        st.drop_file(client, name)?;
        Ok(((), doomed))
    })
}
