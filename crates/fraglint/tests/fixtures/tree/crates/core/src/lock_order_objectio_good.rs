//! Fixture: the disciplined version — the read is planned under the
//! guard and crosses the provider boundary after it is gone.

pub fn pre_state_after_unlock(d: &Distributor, serial: u32, tel: &Tel) -> Result<Bytes> {
    let plan = {
        let st = d.shard_read(0);
        st.read_plan(serial)
    };
    d.get_with_retry(&plan.tables, plan.provider_idx, plan.vid, Some(plan.len), tel)
        .0
}
