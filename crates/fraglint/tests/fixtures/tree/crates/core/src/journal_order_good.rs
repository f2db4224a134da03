//! Fixture: the same migration with the intents in crash-consistent
//! order — alloc is durable before the upload, so recovery can always
//! enumerate (and if needed collect) the new vid.

pub fn migrate_chunk(d: &Distributor, tables: &mut Tables) -> Result<()> {
    d.journaled(OpKind::Migrate, "c", "f#0", |jctx| {
        let new_vid = tables.vids.allocate();
        journal_alloc(jctx, &[new_vid]);
        put_with_retry(tables, new_vid, tables.staged_bytes(new_vid))?;
        Ok(((), Doomed::new()))
    })
}
