// fraglint-fixture: journal-ordering
//! Fixture: a journaled migration that uploads the new object before
//! recording the alloc intent — a crash between the two leaks an
//! orphan no recovery pass can enumerate.

pub fn migrate_chunk(d: &Distributor, tables: &mut Tables) -> Result<()> {
    d.journaled(OpKind::Migrate, "c", "f#0", |jctx| {
        let new_vid = tables.vids.allocate();
        put_with_retry(tables, new_vid, tables.staged_bytes(new_vid))?;
        journal_alloc(jctx, &[new_vid]);
        Ok(((), Doomed::new()))
    })
}
