//! Distributor-state persistence: export/import of the three tables.
//!
//! §IV-C worries about the Cloud Data Distributor as "the single point of
//! failure". Fig. 2's multiple distributors address availability; this
//! module addresses *durability*: the table state (Tables I–III plus stripe
//! bookkeeping) serializes to a line-oriented text snapshot that a restarted
//! distributor — or a newly promoted secondary — can import, given live
//! handles to the same provider fleet. The providers themselves are the
//! clouds; they persist on their own.
//!
//! The format is versioned, self-delimiting and deliberately boring:
//! one record per line, `|`-separated fields, `%xx` escaping for the two
//! structural characters inside names.
//!
//! ## v2: sharded sections
//!
//! Since the chunk/client tables split into independently locked shards,
//! the snapshot records them shard by shard — chunk and stripe indices
//! are *shard-local*, and a file's row names its owning client because
//! the client directory itself is global (names and passwords are
//! replicated across shards; only files are partitioned):
//!
//! ```text
//! fragcloud-state|v2
//! vids|<allocated>
//! shards|<S>
//! providers|<P>            provider|<name> ×P
//! clients|<C>              client|<name> / password|<pw>|<pl> …
//! shard|0
//!   chunks|<n>             chunk|<row> ×n
//!   stripes|<n>            stripe|<row> ×n
//!   files|<n>              file|<client>|<name>|<row> ×n
//! shard|1 …
//! end
//! ```
//!
//! Import preserves the recorded shard layout verbatim (no re-sharding):
//! `durability.table_shards` only governs *freshly constructed*
//! distributors. The per-row serializers (`chunk_row` and friends) are
//! shared with `core::journal`'s delta records, so a delta line and a
//! snapshot line never drift apart.

use crate::distributor::CloudDataDistributor;
use crate::tables::{ChunkEntry, ChunkRole, ClientEntry, FileEntry, StripeInfo, StripeRef, Tables};
use crate::{CoreError, PrivacyLevel, Result};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::{CloudProvider, VirtualId};
use std::sync::Arc;

/// Snapshot format version.
const VERSION: u32 = 2;

pub(crate) fn esc(s: &str) -> String {
    // Single pass; escaping '%' inline cannot double-escape because the
    // replacement is emitted, never rescanned.
    if !s.contains(['%', '|', '\n']) {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 16);
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '\n' => out.push_str("%0A"),
            _ => out.push(ch),
        }
    }
    out
}

pub(crate) fn unesc(s: &str) -> String {
    s.replace("%0A", "\n")
        .replace("%7C", "|")
        .replace("%25", "%")
}

/// Snapshot parse failures, as the dedicated corruption variant (the
/// journal parser in `crate::journal` reports through the same one).
fn bad(line_no: usize, why: &str) -> CoreError {
    CoreError::CorruptState {
        line: line_no,
        why: why.to_string(),
    }
}

// The stripe-row level tag is `RaidLevel`'s `Display` form: `none`,
// `raid5`, `raid6`, or `rs<m>` for general RS(k,m) geometries. The default
// levels keep their historical tags, so snapshots written before RS landed
// parse unchanged (and vice versa for parity ≤ 2).
fn parse_raid(s: &str, line_no: usize) -> Result<RaidLevel> {
    match s {
        "none" => Ok(RaidLevel::None),
        "raid5" => Ok(RaidLevel::Raid5),
        "raid6" => Ok(RaidLevel::Raid6),
        other => match other.strip_prefix("rs").and_then(|m| m.parse::<u8>().ok()) {
            // Canonicalize: `rs1`/`rs2` written by hand map back onto the
            // dedicated codes, matching `RaidLevel::for_parity_shards`.
            Some(m) if m > 0 => Ok(RaidLevel::for_parity_shards(m as usize)),
            _ => Err(bad(line_no, &format!("unknown raid level {other:?}"))),
        },
    }
}

/// Writes a `,`-joined list of `Display` items without intermediate
/// allocations.
fn push_list<T: std::fmt::Display>(out: &mut String, items: impl Iterator<Item = T>) {
    use std::fmt::Write as _;
    for (k, item) in items.enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(out, "{item}");
    }
}

/// Appends one chunk entry's 11 `|`-joined payload fields to `out`:
/// `vid|pl|provider|sp|snap_mislead|mislead|stored|logical|stripe|role|liveness`.
/// Shared between snapshot export and journal delta records; written
/// in-place because delta capture runs on the commit hot path.
pub(crate) fn chunk_row_into(out: &mut String, c: &ChunkEntry) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}|{}|{}|", c.vid.0, c.pl.as_u8(), c.provider_idx);
    match c.snapshot_provider_idx.zip(c.snapshot_vid) {
        Some((i, v)) => {
            let _ = write!(out, "{}:{}", i, v.0);
        }
        None => out.push('-'),
    }
    out.push('|');
    push_list(out, c.snapshot_mislead.iter());
    out.push('|');
    push_list(out, c.mislead_positions.iter());
    let _ = write!(out, "|{}|{}|", c.stored_len, c.logical_len);
    match c.stripe {
        Some(s) => {
            let _ = write!(out, "{}:{}", s.stripe_id, s.index);
        }
        None => out.push('-'),
    }
    out.push('|');
    match c.role {
        ChunkRole::Data { serial } => {
            let _ = write!(out, "d{serial}");
        }
        ChunkRole::Parity { index } => {
            let _ = write!(out, "p{index}");
        }
    }
    out.push('|');
    if c.removed {
        out.push_str("removed");
    } else {
        out.push_str("live");
        for (k, (i, v)) in c.replicas.iter().enumerate() {
            out.push(if k == 0 { ';' } else { ',' });
            let _ = write!(out, "{}:{}", i, v.0);
        }
    }
}

/// [`chunk_row_into`] as an owned string (snapshot export convenience).
pub(crate) fn chunk_row(c: &ChunkEntry) -> String {
    let mut out = String::with_capacity(64);
    chunk_row_into(&mut out, c);
    out
}

/// Parses the 11 payload fields produced by [`chunk_row`]. Provider-index
/// range checks are the caller's job (delta replay may legitimately see
/// placeholders filled later).
pub(crate) fn parse_chunk_fields(f: &[&str], line_no: usize) -> Result<ChunkEntry> {
    if f.len() != 11 {
        return Err(bad(line_no, "expected 11 chunk fields"));
    }
    let vid = VirtualId(parse_u64(f[0], line_no)?);
    let pl = parse_pl(f[1], line_no)?;
    let provider_idx = parse_usize(f[2], line_no)?;
    let (snapshot_provider_idx, snapshot_vid) = if f[3] == "-" {
        (None, None)
    } else {
        let (i, v) = parse_idx_vid(f[3], line_no)?;
        (Some(i), Some(v))
    };
    let snapshot_mislead = parse_list(f[4], line_no, parse_usize)?;
    let mislead_positions = parse_list(f[5], line_no, parse_usize)?;
    let stored_len = parse_usize(f[6], line_no)?;
    let logical_len = parse_usize(f[7], line_no)?;
    let stripe = if f[8] == "-" {
        None
    } else {
        let (sid, idx) = f[8]
            .split_once(':')
            .ok_or_else(|| bad(line_no, "expected stripe id:index"))?;
        Some(StripeRef {
            stripe_id: parse_usize(sid, line_no)?,
            index: parse_usize(idx, line_no)?,
        })
    };
    let role = match f[9].split_at(1) {
        ("d", serial) => ChunkRole::Data {
            serial: serial
                .parse()
                .map_err(|_| bad(line_no, "bad data serial"))?,
        },
        ("p", index) => ChunkRole::Parity {
            index: index
                .parse()
                .map_err(|_| bad(line_no, "bad parity index"))?,
        },
        _ => return Err(bad(line_no, "bad role tag")),
    };
    let (removed, replicas) = match f[10].split_once(';') {
        Some(("live", reps)) => (false, parse_list(reps, line_no, parse_idx_vid)?),
        None if f[10] == "live" => (false, Vec::new()),
        None if f[10] == "removed" => (true, Vec::new()),
        _ => return Err(bad(line_no, "bad liveness tag")),
    };
    // `get_file` hands these positions to `mislead::strip`, which asserts
    // them; a damaged artifact must fail here, typed, not there.
    let ascending = |p: &[usize]| p.windows(2).all(|w| w[0] < w[1]);
    if !ascending(&snapshot_mislead) || !ascending(&mislead_positions) {
        return Err(bad(line_no, "mislead positions not strictly ascending"));
    }
    if !removed {
        if mislead_positions.last().is_some_and(|&p| p >= stored_len) {
            return Err(bad(line_no, "mislead position beyond stored length"));
        }
        if stored_len.checked_sub(mislead_positions.len()) != Some(logical_len) {
            return Err(bad(
                line_no,
                "stored length minus mislead count is not the logical length",
            ));
        }
    }
    Ok(ChunkEntry {
        vid,
        pl,
        provider_idx,
        snapshot_provider_idx,
        snapshot_vid,
        snapshot_mislead,
        mislead_positions,
        stored_len,
        logical_len,
        stripe,
        role,
        removed,
        replicas,
    })
}

/// Appends one stripe's 5 payload fields to `out`:
/// `k|level|width|members|health`.
pub(crate) fn stripe_row_into(out: &mut String, s: &StripeInfo) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}|{}|{}|", s.k, s.level, s.shard_width);
    push_list(out, s.members.iter());
    out.push('|');
    out.push_str(if s.degraded { "degraded" } else { "healthy" });
}

/// [`stripe_row_into`] as an owned string (snapshot export convenience).
pub(crate) fn stripe_row(s: &StripeInfo) -> String {
    let mut out = String::with_capacity(32);
    stripe_row_into(&mut out, s);
    out
}

/// Parses the 5 payload fields produced by [`stripe_row`]. Member range
/// checks are the caller's job.
pub(crate) fn parse_stripe_fields(f: &[&str], line_no: usize) -> Result<StripeInfo> {
    if f.len() != 5 {
        return Err(bad(line_no, "expected 5 stripe fields"));
    }
    let degraded = match f[4] {
        "healthy" => false,
        "degraded" => true,
        _ => return Err(bad(line_no, "expected stripe health tag")),
    };
    Ok(StripeInfo {
        k: parse_usize(f[0], line_no)?,
        level: parse_raid(f[1], line_no)?,
        members: parse_list(f[3], line_no, parse_usize)?,
        shard_width: parse_usize(f[2], line_no)?,
        degraded,
    })
}

/// Appends one file entry's 4 payload fields to `out`:
/// `pl|total_len|chunks|stripes`.
pub(crate) fn file_row_into(out: &mut String, fe: &FileEntry) {
    use std::fmt::Write as _;
    let _ = write!(out, "{}|{}|", fe.pl.as_u8(), fe.total_len);
    push_list(out, fe.chunk_indices.iter());
    out.push('|');
    push_list(out, fe.stripe_ids.iter());
}

/// [`file_row_into`] as an owned string (snapshot export convenience).
pub(crate) fn file_row(fe: &FileEntry) -> String {
    let mut out = String::with_capacity(32);
    file_row_into(&mut out, fe);
    out
}

/// Parses the 4 payload fields produced by [`file_row`]. Chunk-index
/// range checks are the caller's job.
pub(crate) fn parse_file_fields(f: &[&str], line_no: usize) -> Result<FileEntry> {
    if f.len() != 4 {
        return Err(bad(line_no, "expected 4 file fields"));
    }
    Ok(FileEntry {
        pl: parse_pl(f[0], line_no)?,
        total_len: parse_usize(f[1], line_no)?,
        chunk_indices: parse_list(f[2], line_no, parse_usize)?,
        stripe_ids: parse_list(f[3], line_no, parse_usize)?,
    })
}

/// Appends a client's ⟨password, PL⟩ pairs as `<password>:<pl>,…` — the
/// payload of a journal delta's `client|<name>|…` row. A password is
/// escaped like any name, plus `%2C` for the list separator; the PL is
/// what follows the last `:`.
pub(crate) fn passwords_into(out: &mut String, passwords: &[(String, PrivacyLevel)]) {
    push_list(
        out,
        passwords
            .iter()
            .map(|(pass, pl)| format!("{}:{}", esc(pass).replace(',', "%2C"), pl.as_u8())),
    );
}

/// Parses the list [`passwords_into`] wrote.
pub(crate) fn parse_passwords(s: &str, line_no: usize) -> Result<Vec<(String, PrivacyLevel)>> {
    parse_list(s, line_no, |item, line_no| {
        let (pass, pl) = item
            .rsplit_once(':')
            .ok_or_else(|| bad(line_no, "expected password:pl"))?;
        Ok((unesc(&pass.replace("%2C", ",")), parse_pl(pl, line_no)?))
    })
}

/// Serializes the distributor's table state to the snapshot text format.
pub fn export_state(d: &CloudDataDistributor) -> String {
    let shards = d.lock_all_read();
    let mut out = String::new();
    out.push_str(&format!("fragcloud-state|v{VERSION}\n"));
    out.push_str(&format!("vids|{}\n", d.vids_allocated()));
    out.push_str(&format!("shards|{}\n", shards.len()));
    // Providers are referenced by name so import can re-bind live handles.
    // Every shard carries the same fleet; shard 0 speaks for all.
    let fleet = &shards[0].providers;
    out.push_str(&format!("providers|{}\n", fleet.len()));
    for p in fleet {
        out.push_str(&format!("provider|{}\n", esc(p.name())));
    }
    // Global client directory: names + passwords (replicated identically
    // across shards; shard 0 speaks for all). Files follow per shard.
    let mut names: Vec<&String> = shards[0].clients.keys().collect();
    names.sort();
    out.push_str(&format!("clients|{}\n", names.len()));
    for name in &names {
        out.push_str(&format!("client|{}\n", esc(name)));
        for (pass, pl) in &shards[0].clients[*name].passwords {
            out.push_str(&format!("password|{}|{}\n", esc(pass), pl.as_u8()));
        }
    }
    // Per-shard tables.
    for (si, st) in shards.iter().enumerate() {
        out.push_str(&format!("shard|{si}\n"));
        out.push_str(&format!("chunks|{}\n", st.chunks.len()));
        for c in &st.chunks {
            out.push_str(&format!("chunk|{}\n", chunk_row(c)));
        }
        out.push_str(&format!("stripes|{}\n", st.stripes.len()));
        for s in &st.stripes {
            out.push_str(&format!("stripe|{}\n", stripe_row(s)));
        }
        let mut files: Vec<(&String, &String, &FileEntry)> = Vec::new();
        for name in &names {
            for (fname, fe) in &st.clients[*name].files {
                files.push((name, fname, fe));
            }
        }
        files.sort_by_key(|(c, f, _)| ((*c).clone(), (*f).clone()));
        out.push_str(&format!("files|{}\n", files.len()));
        for (cname, fname, fe) in files {
            out.push_str(&format!(
                "file|{}|{}|{}\n",
                esc(cname),
                esc(fname),
                file_row(fe)
            ));
        }
    }
    out.push_str("end\n");
    out
}

fn parse_usize(s: &str, line_no: usize) -> Result<usize> {
    s.parse().map_err(|_| bad(line_no, "expected integer"))
}

fn parse_u64(s: &str, line_no: usize) -> Result<u64> {
    s.parse().map_err(|_| bad(line_no, "expected integer"))
}

fn parse_pl(s: &str, line_no: usize) -> Result<PrivacyLevel> {
    s.parse::<u8>()
        .ok()
        .and_then(PrivacyLevel::from_u8)
        .ok_or_else(|| bad(line_no, "bad privacy level"))
}

fn parse_idx_vid(s: &str, line_no: usize) -> Result<(usize, VirtualId)> {
    let (i, v) = s
        .split_once(':')
        .ok_or_else(|| bad(line_no, "expected idx:vid"))?;
    Ok((parse_usize(i, line_no)?, VirtualId(parse_u64(v, line_no)?)))
}

fn parse_list<T>(s: &str, line_no: usize, f: impl Fn(&str, usize) -> Result<T>) -> Result<Vec<T>> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',').map(|x| f(x, line_no)).collect()
}

/// Reconstructs table state from a snapshot, re-binding live provider
/// handles **by name**. The fleet must contain every provider the snapshot
/// references, in any order. The snapshot's shard layout is preserved
/// verbatim; `config.durability.table_shards` does not re-shard imports.
pub fn import_state(
    snapshot: &str,
    providers: Vec<Arc<CloudProvider>>,
    config: crate::DistributorConfig,
) -> Result<CloudDataDistributor> {
    let mut lines = snapshot.lines().enumerate().peekable();
    macro_rules! next {
        () => {
            lines.next().ok_or_else(|| bad(0, "truncated snapshot"))
        };
    }
    macro_rules! counted {
        ($prefix:literal) => {{
            let (ln, line) = next!()?;
            parse_usize(
                line.strip_prefix($prefix)
                    .ok_or_else(|| bad(ln + 1, concat!("expected ", $prefix, "count")))?,
                ln + 1,
            )?
        }};
    }

    // Header.
    let (ln, header) = next!()?;
    if header != format!("fragcloud-state|v{VERSION}") {
        return Err(bad(ln + 1, "bad header/version"));
    }
    let (ln, vline) = next!()?;
    let already_allocated = parse_u64(
        vline
            .strip_prefix("vids|")
            .ok_or_else(|| bad(ln + 1, "expected vids"))?,
        ln + 1,
    )?;
    let n_shards = counted!("shards|");
    if n_shards == 0 {
        return Err(bad(0, "snapshot must have at least one shard"));
    }

    // Provider name order → handle re-binding.
    let n_providers = counted!("providers|");
    let mut ordered: Vec<Arc<CloudProvider>> = Vec::with_capacity(n_providers);
    for _ in 0..n_providers {
        let (ln, line) = next!()?;
        let name = unesc(
            line.strip_prefix("provider|")
                .ok_or_else(|| bad(ln + 1, "expected provider"))?,
        );
        let handle = providers
            .iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| bad(ln + 1, &format!("no live provider named {name:?}")))?;
        ordered.push(Arc::clone(handle));
    }

    // Global client directory (names + passwords; files come per shard).
    let n_clients = counted!("clients|");
    let mut directory: Vec<(String, ClientEntry)> = Vec::with_capacity(n_clients);
    while let Some((_, line)) = lines.peek() {
        if line.starts_with("shard|") || *line == "end" {
            break;
        }
        let (ln, line) = next!()?;
        let line_no = ln + 1;
        let f: Vec<&str> = line.split('|').collect();
        match f[0] {
            "client" => {
                if f.len() != 2 {
                    return Err(bad(line_no, "expected client record"));
                }
                directory.push((unesc(f[1]), ClientEntry::default()));
            }
            "password" => {
                if f.len() != 3 {
                    return Err(bad(line_no, "expected password record"));
                }
                let (_, entry) = directory
                    .last_mut()
                    .ok_or_else(|| bad(line_no, "password outside client"))?;
                entry
                    .passwords
                    .push((unesc(f[1]), parse_pl(f[2], line_no)?));
            }
            other => return Err(bad(line_no, &format!("unexpected record {other:?}"))),
        }
    }
    if directory.len() != n_clients {
        return Err(bad(0, "client count mismatch"));
    }

    // Per-shard tables; every shard replicates the directory.
    let mut shards: Vec<Tables> = Vec::with_capacity(n_shards);
    for expect_si in 0..n_shards {
        let (ln, line) = next!()?;
        if line != format!("shard|{expect_si}") {
            return Err(bad(ln + 1, "expected shard header"));
        }
        let mut tables = Tables::new(ordered.clone());
        for (name, entry) in &directory {
            tables.clients.insert(name.clone(), entry.clone());
        }

        let n_chunks = counted!("chunks|");
        for _ in 0..n_chunks {
            let (ln, line) = next!()?;
            let line_no = ln + 1;
            let f: Vec<&str> = line.split('|').collect();
            if f.first() != Some(&"chunk") {
                return Err(bad(line_no, "expected chunk record"));
            }
            let c = parse_chunk_fields(&f[1..], line_no)?;
            if c.provider_idx >= tables.providers.len() {
                return Err(bad(line_no, "provider index out of range"));
            }
            tables.chunks.push(c);
        }

        let n_stripes = counted!("stripes|");
        for _ in 0..n_stripes {
            let (ln, line) = next!()?;
            let line_no = ln + 1;
            let f: Vec<&str> = line.split('|').collect();
            if f.first() != Some(&"stripe") {
                return Err(bad(line_no, "expected stripe record"));
            }
            let s = parse_stripe_fields(&f[1..], line_no)?;
            if s.members.iter().any(|&m| m >= tables.chunks.len()) {
                return Err(bad(line_no, "stripe member out of range"));
            }
            tables.stripes.push(s);
        }

        let n_files = counted!("files|");
        for _ in 0..n_files {
            let (ln, line) = next!()?;
            let line_no = ln + 1;
            let f: Vec<&str> = line.split('|').collect();
            if f.first() != Some(&"file") || f.len() != 7 {
                return Err(bad(line_no, "expected file record"));
            }
            let fe = parse_file_fields(&f[3..], line_no)?;
            if fe.chunk_indices.iter().any(|&c| c >= tables.chunks.len()) {
                return Err(bad(line_no, "file chunk index out of range"));
            }
            let cname = unesc(f[1]);
            let entry = tables
                .clients
                .get_mut(&cname)
                .ok_or_else(|| bad(line_no, "file for unknown client"))?;
            entry.files.insert(unesc(f[2]), fe);
        }
        shards.push(tables);
    }

    let (ln, line) = next!()?;
    if line != "end" {
        return Err(bad(ln + 1, "missing end marker"));
    }
    CloudDataDistributor::from_shards(shards, config, already_allocated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ChunkSizeSchedule, DistributorConfig};
    use crate::PutOptions;
    use fragcloud_sim::{CostLevel, ProviderProfile};

    fn fleet() -> Vec<Arc<CloudProvider>> {
        (0..6)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(1),
                )))
            })
            .collect()
    }

    fn config() -> DistributorConfig {
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(64),
            stripe_width: 3,
            mislead_rate: 0.05,
            ..Default::default()
        }
    }

    fn body(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 256) as u8).collect()
    }

    #[test]
    fn export_import_roundtrip_preserves_reads() {
        let providers = fleet();
        let d = CloudDataDistributor::new(providers.clone(), config());
        d.register_client("Bob|weird%name").unwrap();
        d.add_password("Bob|weird%name", "p|w%d", PrivacyLevel::High)
            .unwrap();
        let data = body(500);
        {
            let s = d.session("Bob|weird%name", "p|w%d").unwrap();
            s.put_file(
                "file|one",
                &data,
                PrivacyLevel::Moderate,
                PutOptions {
                    replicas: 1,
                    ..Default::default()
                },
            )
            .unwrap();
            s.update_chunk("file|one", 1, &[9u8; 64]).unwrap();
        }

        let snapshot = export_state(&d);
        drop(d); // the distributor dies; the clouds live on

        // Re-bind with the fleet in a DIFFERENT order: names must resolve.
        let mut shuffled = providers.clone();
        shuffled.reverse();
        let d2 = import_state(&snapshot, shuffled, config()).unwrap();
        let s2 = d2.session("Bob|weird%name", "p|w%d").unwrap();
        let got = s2.get_file("file|one").unwrap();
        let mut expected = data.clone();
        expected[64..128].copy_from_slice(&[9u8; 64]);
        assert_eq!(got.data, expected);
        // Snapshot restore still works through the imported state.
        s2.restore_snapshot("file|one", 1).unwrap();
        assert_eq!(s2.get_file("file|one").unwrap().data, data);
        // RAID protection survives the restart.
        let holdings = d2.client_chunks_per_provider("Bob|weird%name").unwrap();
        let victim = holdings.iter().position(|&c| c > 0).unwrap();
        d2.providers()[victim].set_online(false);
        assert_eq!(s2.get_file("file|one").unwrap().data, data);
    }

    #[test]
    fn import_preserves_shard_layout() {
        // A 4-shard export re-imported under a 2-shard config keeps its
        // 4 shards: table_shards only governs fresh construction.
        let providers = fleet();
        let d = CloudDataDistributor::new(providers.clone(), config());
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let s = d.session("c", "p").unwrap();
        for i in 0..4 {
            s.put_file(
                &format!("f{i}"),
                &body(200),
                PrivacyLevel::Low,
                PutOptions::default(),
            )
            .unwrap();
        }
        assert_eq!(d.shard_count(), 4);
        let snapshot = export_state(&d);
        let mut cfg2 = config();
        cfg2.durability = cfg2.durability.with_table_shards(2);
        let d2 = import_state(&snapshot, providers, cfg2).unwrap();
        assert_eq!(d2.shard_count(), 4);
        let s2 = d2.session("c", "p").unwrap();
        for i in 0..4 {
            assert_eq!(s2.get_file(&format!("f{i}")).unwrap().data, body(200));
        }
    }

    #[test]
    fn import_rejects_missing_provider() {
        let d = CloudDataDistributor::new(fleet(), config());
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        d.session("c", "p")
            .unwrap()
            .put_file("f", &body(64), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        let snapshot = export_state(&d);
        let short_fleet = fleet().into_iter().take(2).collect();
        assert!(import_state(&snapshot, short_fleet, config()).is_err());
    }

    #[test]
    fn import_rejects_garbage() {
        assert!(import_state("", fleet(), config()).is_err());
        assert!(import_state("fragcloud-state|v999\nend\n", fleet(), config()).is_err());
        assert!(import_state(
            "fragcloud-state|v2\nvids|0\nshards|1\nproviders|0\nclients|0\nshard|0\nchunks|1\nchunk|garbage\n",
            fleet(),
            config()
        )
        .is_err());
    }

    #[test]
    fn parse_errors_are_corrupt_state_not_unknown_client() {
        // Regression: parse failures used to be folded into
        // CoreError::UnknownClient, which callers could not tell apart from
        // a genuine missing-client lookup.
        let err = import_state("", fleet(), config()).unwrap_err();
        assert!(matches!(err, CoreError::CorruptState { .. }), "{err:?}");
        assert!(!matches!(err, CoreError::UnknownClient(_)));

        let err = import_state("fragcloud-state|v999\nend\n", fleet(), config()).unwrap_err();
        assert!(
            matches!(err, CoreError::CorruptState { line: 1, .. }),
            "{err:?}"
        );
        assert!(err.to_string().contains("corrupt state at line 1"));
    }

    #[test]
    fn import_rejects_tampered_mislead_positions() {
        // Regression: positions were parsed unchecked, so a damaged row
        // imported fine and the next get_file panicked inside strip.
        let providers = fleet();
        let d = CloudDataDistributor::new(providers.clone(), config());
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        d.session("c", "p")
            .unwrap()
            .put_file("f", &body(64), PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        let snapshot = export_state(&d);
        assert!(import_state(&snapshot, providers.clone(), config()).is_ok());

        // The one data chunk: 64 logical + ⌈64·0.05⌉ = 4 decoys = 68 stored.
        let (row_no, row) = snapshot
            .lines()
            .enumerate()
            .find(|(_, l)| l.starts_with("chunk|") && l.contains("|68|64|"))
            .expect("data chunk row");
        let fields: Vec<&str> = row.split('|').collect();
        let positions: Vec<usize> = fields[6].split(',').map(|p| p.parse().unwrap()).collect();
        assert_eq!(positions.len(), 4);
        let join = |p: &[usize]| {
            p.iter()
                .map(|x| x.to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut beyond = positions.clone();
        beyond[3] = 68;
        let mut unsorted = positions.clone();
        unsorted[3] = unsorted[2];
        let dropped = &positions[..3];
        for (bad_positions, why) in [
            (join(&beyond), "beyond stored length"),
            (join(&unsorted), "ascending"),
            (join(dropped), "logical length"),
        ] {
            let mut tampered = fields.clone();
            tampered[6] = &bad_positions;
            let tampered = snapshot.replace(row, &tampered.join("|"));
            match import_state(&tampered, providers.clone(), config()) {
                Err(CoreError::CorruptState { line, why: got }) => {
                    assert_eq!(line, row_no + 1);
                    assert!(got.contains(why), "{got:?} should mention {why:?}");
                }
                Err(other) => panic!("expected CorruptState, got {other:?}"),
                Ok(_) => panic!("tampered snapshot ({why}) must not import"),
            }
        }
    }

    #[test]
    fn export_is_stable_and_versioned() {
        let d = CloudDataDistributor::new(fleet(), config());
        d.register_client("a").unwrap();
        let s1 = export_state(&d);
        let s2 = export_state(&d);
        assert_eq!(s1, s2);
        assert!(s1.starts_with("fragcloud-state|v2\n"));
        assert!(s1.ends_with("end\n"));
    }

    #[test]
    fn tombstones_survive_roundtrip() {
        let providers = fleet();
        let d = CloudDataDistributor::new(providers.clone(), config());
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let data = body(192);
        let s = d.session("c", "p").unwrap();
        s.put_file("f", &data, PrivacyLevel::Low, PutOptions::default())
            .unwrap();
        s.remove_chunk("f", 1).unwrap();
        let snapshot = export_state(&d);
        let d2 = import_state(&snapshot, providers, config()).unwrap();
        let s2 = d2.session("c", "p").unwrap();
        assert!(s2.get_chunk("f", 1).is_err());
        assert_eq!(s2.get_chunk("f", 0).unwrap(), &data[..64]);
    }
}
