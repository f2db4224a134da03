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
//! the client directory itself is global (the distributor holds it once;
//! only files are partitioned):
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
//! distributors. The per-row serializers (`chunk_row_into` and friends)
//! are shared with `core::journal`'s delta records, so a delta line and a
//! snapshot line never drift apart — which is what lets the journal keep
//! its checkpoint as a `StateImage`: the same text, held row by row, so
//! that a delta line is *copied* over the row it names
//! (`StateImage::fold_line`) instead of the tables being re-exported.
//!
//! One row gate decides what a valid row is, for [`import_state`] and
//! recovery's fold of a delta line (`StateImage::admits`) alike. Its first
//! half, `RowGate` (and `client_row`), checks a row alone: fields parse,
//! providers in the fleet, arena indices in range, mislead positions and
//! stripe geometry. Its second, `check_links`, checks once per shard at
//! import how rows name each other: stripe slots both ways, roles, and a
//! file's chunks as its stripes' data members in serial order.

use crate::distributor::CloudDataDistributor;
use crate::tables::{
    ChunkEntry, ChunkRole, ClientEntry, Directory, FileEntry, StripeInfo, StripeRef, Tables,
};
use crate::{CoreError, PrivacyLevel, Result};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::{CloudProvider, VirtualId};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Snapshot format version.
const VERSION: u32 = 2;

pub(crate) fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    esc_into(&mut out, s);
    out
}

/// Appends `s` with the format's structural characters escaped.
pub(crate) fn esc_into(out: &mut String, s: &str) {
    // Single pass; escaping '%' inline cannot double-escape because the
    // replacement is emitted, never rescanned.
    if !s.contains(['%', '|', '\n']) {
        out.push_str(s);
        return;
    }
    for ch in s.chars() {
        match ch {
            '%' => out.push_str("%25"),
            '|' => out.push_str("%7C"),
            '\n' => out.push_str("%0A"),
            _ => out.push(ch),
        }
    }
}

pub(crate) fn unesc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('%') {
        out.push_str(&rest[..i]);
        let (ch, len) = match rest.as_bytes().get(i + 1..i + 3) {
            Some(b"0A") => ('\n', 3),
            Some(b"7C") => ('|', 3),
            Some(b"25") => ('%', 3),
            _ => ('%', 1),
        };
        out.push(ch);
        rest = &rest[i + len..];
    }
    out.push_str(rest);
    out
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

/// Appends one stripe's 5 payload fields to `out`:
/// `k|level|width|members|health`.
pub(crate) fn stripe_row_into(out: &mut String, s: &StripeInfo) {
    let _ = write!(out, "{}|{}|{}|", s.k, s.level, s.shard_width);
    push_list(out, s.members.iter());
    out.push('|');
    out.push_str(if s.degraded { "degraded" } else { "healthy" });
}

/// Appends one file entry's 4 payload fields to `out`:
/// `pl|total_len|chunks|stripes`.
pub(crate) fn file_row_into(out: &mut String, fe: &FileEntry) {
    let _ = write!(out, "{}|{}|", fe.pl.as_u8(), fe.total_len);
    push_list(out, fe.chunk_indices.iter());
    out.push('|');
    push_list(out, fe.stripe_ids.iter());
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

/// Appends a client's `password|<password>|<pl>` snapshot lines.
fn password_lines_into(out: &mut String, passwords: &[(String, PrivacyLevel)]) {
    for (pass, pl) in passwords {
        out.push_str("password|");
        esc_into(out, pass);
        let _ = writeln!(out, "|{}", pl.as_u8());
    }
}

/// Appends what follows `file|` on a snapshot's file line:
/// `<client>|<name>|<4 file fields>`.
fn file_line_into(out: &mut String, client: &str, name: &str, fe: &FileEntry) {
    esc_into(out, client);
    out.push('|');
    esc_into(out, name);
    out.push('|');
    file_row_into(out, fe);
}

/// Serializes the distributor's table state to the snapshot text format:
/// the rendered `StateImage` of its tables, the one serializer.
pub fn export_state(d: &CloudDataDistributor) -> String {
    StateImage::of(d).render()
}

/// The most rows a delta may leave unclaimed below the one it writes (the
/// arena slots of ops still open when its op closed) before the fold
/// calls the index damage rather than concurrency — it bounds what a
/// corrupt index can make [`StateImage::fold_line`] allocate.
const MAX_ARENA_GAP: usize = 1 << 20;

/// The snapshot text held row by row: the journal's checkpoint.
///
/// Every row is kept as its snapshot-line text, keyed the
/// way a journal delta line names it — chunk and stripe rows by ⟨shard,
/// arena index⟩, file rows by ⟨shard, client, name⟩, directory entries by
/// client name — so folding a delta is [`fold_line`](Self::fold_line) per
/// line: a copy, with no field parsed and no table touched.
/// [`render`](Self::render) gives back the `v2` text byte for byte.
/// An image with no shard is "no checkpoint" and renders as `""`.
#[derive(Debug, Clone, Default)]
pub(crate) struct StateImage {
    vids: u64,
    /// Escaped provider names, in fleet order.
    providers: Vec<String>,
    /// Client name → its `password|…` lines.
    clients: BTreeMap<String, String>,
    shards: Vec<ShardImage>,
}

#[derive(Debug, Clone, Default)]
struct ShardImage {
    /// What follows `chunk|`, by arena index.
    chunks: Vec<String>,
    /// What follows `stripe|`, by arena index.
    stripes: Vec<String>,
    /// ⟨client, name⟩ → what follows `file|`.
    files: BTreeMap<(String, String), String>,
}

/// One row as an owned string.
fn row(write: impl FnOnce(&mut String)) -> String {
    let mut out = String::new();
    write(&mut out);
    out
}

/// The row an arena slot reads as until a delta claims it (the op that
/// owns the lower index closed later): a tombstone that names no object —
/// vid `u64::MAX`, provider 0, no stripe, `removed`.
const PLACEHOLDER_CHUNK_ROW: &str = "18446744073709551615|0|0|-|||0|0|-|d0|removed";

/// The stripe counterpart: `k` 0 and no members, so nothing references it
/// until a row claims the slot.
const PLACEHOLDER_STRIPE_ROW: &str = "0|none|0||healthy";

/// Appends one counted section of a shard: `<tag>s|<n>`, then a
/// `<tag>|<row>` line per row.
fn section<'a>(out: &mut String, tag: &str, rows: impl ExactSizeIterator<Item = &'a String>) {
    let _ = writeln!(out, "{tag}s|{}", rows.len());
    for r in rows {
        let _ = writeln!(out, "{tag}|{r}");
    }
}

/// A delta's client list, `<password>:<pl>,…` (see [`passwords_into`]),
/// as the entry's snapshot `password|<password>|<pl>` lines.
fn password_lines(list: &str) -> Option<String> {
    let mut lines = String::new();
    for item in list.split(',').filter(|item| !item.is_empty()) {
        let (pass, pl) = item.rsplit_once(':')?;
        let _ = writeln!(lines, "password|{}|{pl}", pass.replace("%2C", ","));
    }
    Some(lines)
}

/// Splits `<shard>|<rest>` and range-checks the shard.
fn shard_field(s: &str, shards: usize) -> Option<(usize, &str)> {
    let (shard, rest) = s.split_once('|')?;
    let shard: usize = shard.parse().ok()?;
    (shard < shards).then_some((shard, rest))
}

/// The ⟨client, name⟩ key of `<client>|<name>[|…]`.
fn file_key(s: &str) -> Option<(String, String)> {
    let mut f = s.splitn(3, '|');
    Some((unesc(f.next()?), unesc(f.next()?)))
}

impl StateImage {
    /// The image of `d`'s tables as they stand, row by row.
    pub(crate) fn of(d: &CloudDataDistributor) -> StateImage {
        // The directory guard before the shards': one consistent cut.
        let directory = d.directory_read();
        let shards = d.lock_all_read();
        StateImage {
            vids: d.vids_allocated(),
            providers: d.fleet().iter().map(|p| esc(p.name())).collect(),
            clients: directory
                .iter()
                .map(|(name, e)| {
                    let lines = row(|out| password_lines_into(out, &e.passwords));
                    (name.clone(), lines)
                })
                .collect(),
            shards: shards
                .iter()
                .map(|st| ShardImage {
                    chunks: (st.chunks.iter())
                        .map(|c| row(|out| chunk_row_into(out, c)))
                        .collect(),
                    stripes: (st.stripes.iter())
                        .map(|s| row(|out| stripe_row_into(out, s)))
                        .collect(),
                    files: (st.files.iter())
                        .flat_map(|(cname, files)| {
                            files.iter().map(move |(fname, fe)| {
                                let line = row(|out| file_line_into(out, cname, fname, fe));
                                ((cname.clone(), fname.clone()), line)
                            })
                        })
                        .collect(),
                })
                .collect(),
        }
    }

    /// Whether this is "no checkpoint" (a journal never attached).
    pub(crate) fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The virtual-id watermark: how many ids the allocator had handed out.
    pub(crate) fn vids(&self) -> u64 {
        self.vids
    }

    /// Copies one journal delta line over the row it names — the one delta
    /// applier, behind both checkpoint compaction and recovery's replay.
    /// A `chunk` / `stripe` / `file` row replaces (or adds) its row, an
    /// arena index past the end fills the gap with placeholder rows,
    /// `filedel` removes, `client` rewrites one directory entry, `vids`
    /// keeps the maximum. Returns `None`, changing nothing, for a line
    /// that names no row of this image: unknown tag, shard out of range, a
    /// slot [`MAX_ARENA_GAP`] past the arena, a file of an unknown client.
    pub(crate) fn fold_line(&mut self, line: &str) -> Option<()> {
        let (tag, rest) = line.split_once('|')?;
        match tag {
            "vids" => self.vids = self.vids.max(rest.parse().ok()?),
            "chunk" | "stripe" => {
                let (shard, rest) = shard_field(rest, self.shards.len())?;
                let (idx, payload) = rest.split_once('|')?;
                let idx: usize = idx.parse().ok()?;
                let sh = &mut self.shards[shard];
                let (arena, filler) = if tag == "chunk" {
                    (&mut sh.chunks, PLACEHOLDER_CHUNK_ROW)
                } else {
                    (&mut sh.stripes, PLACEHOLDER_STRIPE_ROW)
                };
                (idx < arena.len().saturating_add(MAX_ARENA_GAP)).then_some(())?;
                if let Some(row) = arena.get_mut(idx) {
                    row.clear();
                    row.push_str(payload);
                } else {
                    arena.resize(idx, filler.to_string());
                    arena.push(payload.to_string());
                }
            }
            "file" => {
                let (shard, entry) = shard_field(rest, self.shards.len())?;
                let key = file_key(entry)?;
                if !self.clients.contains_key(&key.0) {
                    return None;
                }
                self.shards[shard].files.insert(key, entry.to_string());
            }
            "filedel" => {
                let (shard, entry) = shard_field(rest, self.shards.len())?;
                self.shards[shard].files.remove(&file_key(entry)?);
            }
            "client" => {
                let (name, list) = rest.split_once('|')?;
                self.clients.insert(unesc(name), password_lines(list)?);
            }
            _ => return None,
        }
        Some(())
    }

    /// Recovery's gate in front of [`fold_line`](Self::fold_line): a delta
    /// line's row must pass the row gate against the image folded so far,
    /// a stripe named up to [`MAX_ARENA_GAP`] past its arena (a delta
    /// writes an op's chunks before its stripes); links wait for import.
    pub(crate) fn admits(&self, line: &str) -> Option<()> {
        let (tag, rest) = line.split_once('|')?;
        let ok = match tag {
            "client" => client_row(&password_lines(rest.split_once('|')?.1)?, 0).is_ok(),
            "chunk" | "stripe" | "file" => {
                let (shard, rest) = shard_field(rest, self.shards.len())?;
                let gate = self.gate(shard, MAX_ARENA_GAP);
                match tag {
                    "chunk" => gate.chunk(rest.split_once('|')?.1, 0).is_ok(),
                    "stripe" => gate.stripe(rest.split_once('|')?.1, 0).is_ok(),
                    _ => gate.file(rest, 0).is_ok(),
                }
            }
            _ => true,
        };
        ok.then_some(())
    }

    /// The row gate of shard `shard`, stripes `stripe_slack` past its arena.
    fn gate(&self, shard: usize, stripe_slack: usize) -> RowGate<'_> {
        let sh = &self.shards[shard];
        RowGate {
            providers: self.providers.len(),
            chunks: sh.chunks.len(),
            stripes: sh.stripes.len().saturating_add(stripe_slack),
            clients: &self.clients,
        }
    }

    /// The `fragcloud-state|v2` text of this image, which is what
    /// [`export_state`] writes.
    pub(crate) fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let bytes: usize = self
            .shards
            .iter()
            .flat_map(|sh| sh.chunks.iter().chain(&sh.stripes).chain(sh.files.values()))
            .map(|r| r.len() + 8)
            .sum();
        let mut out = String::with_capacity(256 + bytes);
        let _ = writeln!(out, "fragcloud-state|v{VERSION}");
        let _ = writeln!(out, "vids|{}", self.vids);
        let _ = writeln!(out, "shards|{}", self.shards.len());
        let _ = writeln!(out, "providers|{}", self.providers.len());
        for name in &self.providers {
            let _ = writeln!(out, "provider|{name}");
        }
        let _ = writeln!(out, "clients|{}", self.clients.len());
        for (name, passwords) in &self.clients {
            out.push_str("client|");
            esc_into(&mut out, name);
            out.push('\n');
            out.push_str(passwords);
        }
        for (si, sh) in self.shards.iter().enumerate() {
            let _ = writeln!(out, "shard|{si}");
            section(&mut out, "chunk", sh.chunks.iter());
            section(&mut out, "stripe", sh.stripes.iter());
            section(&mut out, "file", sh.files.values());
        }
        out.push_str("end\n");
        out
    }

    /// Reads the snapshot text's framing — header, counts, sections — and
    /// keeps every row verbatim; the rows' fields are parsed when the image
    /// is imported ([`import_image`]).
    pub(crate) fn parse(snapshot: &str) -> Result<StateImage> {
        let mut lines = snapshot.lines().enumerate().peekable();
        macro_rules! next {
            () => {
                lines.next().ok_or_else(|| bad(0, "truncated snapshot"))
            };
        }
        // The payload of the next line, which must carry `$prefix`.
        macro_rules! tagged {
            ($prefix:literal) => {{
                let (ln, line) = next!()?;
                let payload = line.strip_prefix($prefix);
                (
                    ln + 1,
                    payload.ok_or_else(|| bad(ln + 1, concat!("expected ", $prefix)))?,
                )
            }};
        }
        macro_rules! counted {
            ($prefix:literal) => {{
                let (line_no, count) = tagged!($prefix);
                parse_usize(count, line_no)?
            }};
        }

        let (ln, header) = next!()?;
        if header != format!("fragcloud-state|v{VERSION}") {
            return Err(bad(ln + 1, "bad header/version"));
        }
        let (line_no, vids) = tagged!("vids|");
        let mut image = StateImage {
            vids: parse_u64(vids, line_no)?,
            ..Default::default()
        };
        let n_shards = counted!("shards|");
        if n_shards == 0 {
            return Err(bad(0, "snapshot must have at least one shard"));
        }
        for _ in 0..counted!("providers|") {
            image.providers.push(tagged!("provider|").1.to_string());
        }

        // Global client directory (names + passwords; files come per shard).
        let n_clients = counted!("clients|");
        let mut current: Option<&mut String> = None;
        while let Some((_, line)) = lines.peek() {
            if line.starts_with("shard|") || *line == "end" {
                break;
            }
            let (ln, line) = next!()?;
            if let Some(name) = line.strip_prefix("client|") {
                current = Some(image.clients.entry(unesc(name)).or_default());
            } else if line.starts_with("password|") {
                let passwords = current
                    .as_mut()
                    .ok_or_else(|| bad(ln + 1, "password outside client"))?;
                passwords.push_str(line);
                passwords.push('\n');
            } else {
                return Err(bad(ln + 1, "unexpected record in the client directory"));
            }
        }
        if image.clients.len() != n_clients {
            return Err(bad(0, "client count mismatch"));
        }

        for expect_si in 0..n_shards {
            let (ln, line) = next!()?;
            if line != format!("shard|{expect_si}") {
                return Err(bad(ln + 1, "expected shard header"));
            }
            let mut sh = ShardImage::default();
            for _ in 0..counted!("chunks|") {
                sh.chunks.push(tagged!("chunk|").1.to_string());
            }
            for _ in 0..counted!("stripes|") {
                sh.stripes.push(tagged!("stripe|").1.to_string());
            }
            for _ in 0..counted!("files|") {
                let (line_no, entry) = tagged!("file|");
                let key = file_key(entry).ok_or_else(|| bad(line_no, "expected file record"))?;
                sh.files.insert(key, entry.to_string());
            }
            image.shards.push(sh);
        }
        let (ln, line) = next!()?;
        if line != "end" {
            return Err(bad(ln + 1, "missing end marker"));
        }
        Ok(image)
    }
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

/// The row gate's first half (see the module doc): a row of one shard
/// names only the fleet's providers, its arenas' rows and known clients.
struct RowGate<'a> {
    providers: usize,
    chunks: usize,
    stripes: usize,
    clients: &'a BTreeMap<String, String>,
}

impl RowGate<'_> {
    /// The 11 fields of [`chunk_row_into`]: providers in the fleet, the
    /// stripe in the arena, mislead positions that `mislead::strip` takes.
    fn chunk(&self, row: &str, line_no: usize) -> Result<ChunkEntry> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 11 {
            return Err(bad(line_no, "expected 11 chunk fields"));
        }
        let (snapshot_provider_idx, snapshot_vid) = match f[3] {
            "-" => (None, None),
            s => parse_idx_vid(s, line_no).map(|(i, v)| (Some(i), Some(v)))?,
        };
        let stripe = match f[8].split_once(':') {
            None if f[8] == "-" => None,
            Some((sid, idx)) => Some(StripeRef {
                stripe_id: parse_usize(sid, line_no)?,
                index: parse_usize(idx, line_no)?,
            }),
            None => return Err(bad(line_no, "expected stripe id:index")),
        };
        let role = match f[9].split_at_checked(1) {
            Some(("d", serial)) => serial.parse().ok().map(|serial| ChunkRole::Data { serial }),
            Some(("p", index)) => index.parse().ok().map(|index| ChunkRole::Parity { index }),
            _ => None,
        };
        let role = role.ok_or_else(|| bad(line_no, "bad role tag"))?;
        let (removed, replicas) = match f[10].split_once(';') {
            Some(("live", reps)) => (false, parse_list(reps, line_no, parse_idx_vid)?),
            None if f[10] == "live" => (false, Vec::new()),
            None if f[10] == "removed" => (true, Vec::new()),
            _ => return Err(bad(line_no, "bad liveness tag")),
        };
        let provider_idx = parse_usize(f[2], line_no)?;
        let snapshot_mislead = parse_list(f[4], line_no, parse_usize)?;
        let mislead_positions = parse_list(f[5], line_no, parse_usize)?;
        let stored_len = parse_usize(f[6], line_no)?;
        let logical_len = parse_usize(f[7], line_no)?;
        let mut named = replicas.iter().map(|r| r.0).chain(snapshot_provider_idx);
        if provider_idx >= self.providers || named.any(|p| p >= self.providers) {
            return Err(bad(line_no, "provider index out of range"));
        }
        if stripe.is_some_and(|at| at.stripe_id >= self.stripes) {
            return Err(bad(line_no, "stripe index out of range"));
        }
        let ascending = |p: &[usize]| p.windows(2).all(|w| w[0] < w[1]);
        if !ascending(&snapshot_mislead) || !ascending(&mislead_positions) {
            return Err(bad(line_no, "mislead positions not strictly ascending"));
        }
        if !removed {
            if mislead_positions.last().is_some_and(|&p| p >= stored_len) {
                return Err(bad(line_no, "mislead position beyond stored length"));
            }
            if stored_len.checked_sub(mislead_positions.len()) != Some(logical_len) {
                return Err(bad(line_no, "mislead count does not match the lengths"));
            }
        }
        Ok(ChunkEntry {
            vid: VirtualId(parse_u64(f[0], line_no)?),
            pl: parse_pl(f[1], line_no)?,
            provider_idx,
            snapshot_provider_idx,
            snapshot_vid,
            snapshot_mislead: snapshot_mislead.into(),
            mislead_positions: mislead_positions.into(),
            stored_len,
            logical_len,
            stripe,
            role,
            removed,
            replicas,
        })
    }

    /// The 5 fields of [`stripe_row_into`]: distinct members in the arena,
    /// `k ≥ 1` data then the level's parity — or none at all, `k` 0.
    fn stripe(&self, row: &str, line_no: usize) -> Result<StripeInfo> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 5 {
            return Err(bad(line_no, "expected 5 stripe fields"));
        }
        let degraded = match f[4] {
            "healthy" => false,
            "degraded" => true,
            _ => return Err(bad(line_no, "expected stripe health tag")),
        };
        let (k, level) = (parse_usize(f[0], line_no)?, parse_raid(f[1], line_no)?);
        let members = parse_list(f[3], line_no, parse_usize)?;
        let width = k.checked_add(level.parity_shards());
        let distinct: HashSet<&usize> = members.iter().collect();
        if width != Some(members.len()) || (k == 0 && width != Some(0)) {
            return Err(bad(line_no, "stripe width is not k ≥ 1 plus parity"));
        }
        if members.iter().any(|&m| m >= self.chunks) || distinct.len() < members.len() {
            return Err(bad(line_no, "stripe members out of range or repeated"));
        }
        Ok(StripeInfo {
            k,
            level,
            members,
            shard_width: parse_usize(f[2], line_no)?,
            degraded,
        })
    }

    /// `<client>|<name>|` and the 4 fields of [`file_row_into`]: a client
    /// the directory lists, chunk and stripe indices in the arenas.
    fn file(&self, row: &str, line_no: usize) -> Result<FileEntry> {
        let f: Vec<&str> = row.split('|').collect();
        if f.len() != 6 {
            return Err(bad(line_no, "expected file record"));
        }
        if !self.clients.contains_key(&unesc(f[0])) {
            return Err(bad(line_no, "file for unknown client"));
        }
        let chunk_indices = parse_list(f[4], line_no, parse_usize)?;
        let stripe_ids = parse_list(f[5], line_no, parse_usize)?;
        let out_of = |ids: &[usize], len: usize| ids.iter().any(|&i| i >= len);
        if out_of(&chunk_indices, self.chunks) || out_of(&stripe_ids, self.stripes) {
            return Err(bad(line_no, "file index out of range"));
        }
        Ok(FileEntry {
            pl: parse_pl(f[2], line_no)?,
            total_len: parse_usize(f[3], line_no)?,
            chunk_indices,
            stripe_ids,
        })
    }
}

/// A directory row: its `password|<password>|<pl>` lines, from `line_no + 1`.
fn client_row(passwords: &str, line_no: usize) -> Result<ClientEntry> {
    let mut entry = ClientEntry::default();
    for (k, line) in passwords.lines().enumerate() {
        let f: Vec<&str> = line.split('|').collect();
        if f.len() != 3 || f[0] != "password" {
            return Err(bad(line_no + 1 + k, "expected password record"));
        }
        let pl = parse_pl(f[2], line_no + 1 + k)?;
        entry.passwords.push((unesc(f[1]), pl));
    }
    Ok(entry)
}

/// The row gate's second half, over a shard's gated rows: a chunk sits in
/// its stripe slot for its role and each member points back; a file's
/// chunks are its stripes' data members, serial by serial.
fn check_links<'a>(
    chunks: &[ChunkEntry],
    stripes: &[StripeInfo],
    files: impl Iterator<Item = &'a FileEntry>,
    first: [usize; 3],
) -> Result<()> {
    for (i, c) in chunks.iter().enumerate() {
        let Some(at) = c.stripe else { continue };
        let s = &stripes[at.stripe_id];
        let slot = match c.role {
            ChunkRole::Data { .. } => at.index < s.k,
            ChunkRole::Parity { index } => at.index == s.k + usize::from(index),
        };
        if !slot || s.members.get(at.index) != Some(&i) {
            return Err(bad(first[0] + i, "chunk is not in its stripe slot"));
        }
    }
    for (j, s) in stripes.iter().enumerate() {
        for (index, &m) in s.members.iter().enumerate() {
            if chunks[m].stripe.map(|at| (at.stripe_id, at.index)) != Some((j, index)) {
                return Err(bad(first[1] + j, "stripe member is not in its slot"));
            }
        }
    }
    for (n, fe) in files.enumerate() {
        let mut data = (fe.stripe_ids.iter()).flat_map(|&s| &stripes[s].members[..stripes[s].k]);
        let linked = (fe.chunk_indices.iter().enumerate()).all(|(s, &c)| {
            data.next() == Some(&c) && chunks[c].role == ChunkRole::Data { serial: s as u32 }
        });
        if !linked || data.next().is_some() || fe.stripe_ids.iter().any(|&s| stripes[s].k == 0) {
            return Err(bad(first[2] + n, "file chunks do not match its stripes"));
        }
    }
    Ok(())
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
    import_image(&StateImage::parse(snapshot)?, providers, config)
}

/// [`import_state`] of the text `image` renders to (errors carry that
/// text's line numbers), without rendering it.
pub(crate) fn import_image(
    image: &StateImage,
    providers: Vec<Arc<CloudProvider>>,
    config: crate::DistributorConfig,
) -> Result<CloudDataDistributor> {
    if image.is_empty() {
        return Err(bad(0, "snapshot must have at least one shard"));
    }
    // Header, vids, shards, providers: the first row is on line 5.
    let mut line_no = 4;

    // Provider name order → handle re-binding.
    let mut ordered: Vec<Arc<CloudProvider>> = Vec::with_capacity(image.providers.len());
    for name in &image.providers {
        line_no += 1;
        let name = unesc(name);
        let handle = providers
            .iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| bad(line_no, &format!("no live provider named {name:?}")))?;
        ordered.push(Arc::clone(handle));
    }

    // Global client directory (names + passwords; files come per shard).
    line_no += 1;
    let mut directory = Directory::with_capacity(image.clients.len());
    for (name, passwords) in &image.clients {
        line_no += 1;
        directory.insert(name.clone(), client_row(passwords, line_no)?);
        line_no += passwords.lines().count();
    }

    // Per-shard tables: the rows each partitions, each through the gate.
    let mut shards: Vec<Tables> = Vec::with_capacity(image.shards.len());
    for (si, sh) in image.shards.iter().enumerate() {
        let gate = image.gate(si, 0);
        // The first chunk, stripe and file row: past `shard|`, `chunks|`,
        // the chunks, `stripes|`, the stripes and `files|`.
        let stripes_at = line_no + 4 + sh.chunks.len();
        let first = [line_no + 3, stripes_at, stripes_at + sh.stripes.len() + 1];
        line_no = first[2] + sh.files.len() - 1;
        let chunks = (sh.chunks.iter().enumerate())
            .map(|(i, row)| gate.chunk(row, first[0] + i))
            .collect::<Result<Vec<_>>>()?;
        let stripes = (sh.stripes.iter().enumerate())
            .map(|(j, row)| gate.stripe(row, first[1] + j))
            .collect::<Result<Vec<_>>>()?;
        let files = (sh.files.iter().enumerate())
            .map(|(n, (key, row))| Ok((key, gate.file(row, first[2] + n)?)))
            .collect::<Result<Vec<_>>>()?;
        check_links(&chunks, &stripes, files.iter().map(|(_, fe)| fe), first)?;
        let mut tables = Tables::default();
        (tables.chunks, tables.stripes) = (chunks, stripes);
        for ((cname, fname), fe) in files {
            let client = tables.files.entry(cname.clone()).or_default();
            client.insert(fname.clone(), fe);
        }
        shards.push(tables);
    }
    CloudDataDistributor::from_shards(ordered, directory, shards, config, image.vids)
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

    /// The serializer `export_state` replaced — a `format!` and an owned
    /// row string per line — kept verbatim as the byte-for-byte oracle.
    fn export_state_oracle(d: &CloudDataDistributor) -> String {
        let owned = |write: &dyn Fn(&mut String)| {
            let mut out = String::new();
            write(&mut out);
            out
        };
        let directory = d.directory_read();
        let shards = d.lock_all_read();
        let mut out = String::new();
        out.push_str(&format!("fragcloud-state|v{VERSION}\n"));
        out.push_str(&format!("vids|{}\n", d.vids_allocated()));
        out.push_str(&format!("shards|{}\n", shards.len()));
        let fleet = d.providers();
        out.push_str(&format!("providers|{}\n", fleet.len()));
        for p in &fleet {
            out.push_str(&format!("provider|{}\n", esc(p.name())));
        }
        let mut names: Vec<&String> = directory.keys().collect();
        names.sort();
        out.push_str(&format!("clients|{}\n", names.len()));
        for name in &names {
            out.push_str(&format!("client|{}\n", esc(name)));
            for (pass, pl) in &directory[*name].passwords {
                out.push_str(&format!("password|{}|{}\n", esc(pass), pl.as_u8()));
            }
        }
        for (si, st) in shards.iter().enumerate() {
            out.push_str(&format!("shard|{si}\n"));
            out.push_str(&format!("chunks|{}\n", st.chunks.len()));
            for c in &st.chunks {
                let row = owned(&|out| chunk_row_into(out, c));
                out.push_str(&format!("chunk|{row}\n"));
            }
            out.push_str(&format!("stripes|{}\n", st.stripes.len()));
            for s in &st.stripes {
                let row = owned(&|out| stripe_row_into(out, s));
                out.push_str(&format!("stripe|{row}\n"));
            }
            let mut files: Vec<(&String, &String, &FileEntry)> = Vec::new();
            for name in &names {
                for (fname, fe) in st.files.get(*name).into_iter().flatten() {
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
                    owned(&|out| file_row_into(out, fe))
                ));
            }
        }
        out.push_str("end\n");
        out
    }

    /// Every shape the round-trip tests of this module cover, in one
    /// state: escaped client, password and file names, two clients whose
    /// names sort differently escaped and raw, replicas, a snapshot, a
    /// chunk tombstone, a removed file, an RS(2,3) stripe beside RAID-5
    /// ones, a degraded marker, several shards.
    fn every_row_shape() -> CloudDataDistributor {
        let d = CloudDataDistributor::try_new(fleet(), config()).expect("valid config");
        for (client, pass) in [("Bob|weird%name", "p|w%d,:"), ("Bob}", "plain")] {
            d.register_client(client).unwrap();
            d.add_password(client, pass, PrivacyLevel::High).unwrap();
            d.add_password(client, "low", PrivacyLevel::Low).unwrap();
            let s = d.session(client, pass).unwrap();
            let replicated = PutOptions::new().replicas(1);
            s.put_file("file|one", &body(500), PrivacyLevel::Moderate, replicated)
                .unwrap();
            s.update_chunk("file|one", 1, &[9u8; 64]).unwrap();
            s.put_file("z%25", &body(192), PrivacyLevel::Low, PutOptions::new())
                .unwrap();
            s.remove_chunk("z%25", 1).unwrap();
            s.put_file("gone", &body(100), PrivacyLevel::Low, PutOptions::new())
                .unwrap();
            s.remove_file("gone").unwrap();
            let rs = PutOptions::new().geometry(2, 3);
            s.put_file("rs\nfile", &body(150), PrivacyLevel::High, rs)
                .unwrap();
        }
        d.providers()[0].set_online(false);
        assert!(!d.scrub().degraded.is_empty());
        d.providers()[0].set_online(true);
        d
    }

    #[test]
    fn export_state_matches_the_serializer_it_replaced() {
        let d = every_row_shape();
        let text = export_state(&d);
        assert_eq!(text, export_state_oracle(&d));
        for shape in ["|rs3|", "|degraded", "|removed", ";", "%7C", "%0A", "%2525"] {
            assert!(text.contains(shape), "fixture lost {shape:?}");
        }
        // The image of the tables, and the image read back from the text,
        // both render to the same bytes.
        assert_eq!(StateImage::of(&d).render(), text);
        assert_eq!(StateImage::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn unesc_is_the_three_pass_replace_it_replaced() {
        let three_pass = |s: &str| {
            s.replace("%0A", "\n")
                .replace("%7C", "|")
                .replace("%25", "%")
        };
        for s in [
            "",
            "plain",
            "%",
            "%2",
            "a%7Cb%0Ac%25d",
            "%250A",
            "%25257C",
            "%%7C%",
            "%2%25",
            "é%0Aü%",
            "%7c%0a",
        ] {
            assert_eq!(unesc(s), three_pass(s), "{s:?}");
            assert_eq!(unesc(&esc(s)), s, "{s:?}");
        }
    }

    /// The one delta applier, case by case, against the state it must
    /// leave: the image after folding an op's delta renders to what
    /// `export_state` writes after the op.
    #[test]
    fn folding_a_delta_is_copying_its_rows() {
        let text = "fragcloud-state|v2\nvids|3\nshards|2\nproviders|1\nprovider|cp0\n\
            clients|1\nclient|c%7C1\npassword|pw|3\n\
            shard|0\nchunks|0\nstripes|0\nfiles|0\n\
            shard|1\nchunks|1\nchunk|7|1|0|-|||10|10|-|d0|live\nstripes|0\n\
            files|1\nfile|c%7C1|f|1|10|0|\nend\n";
        let mut image = StateImage::parse(text).unwrap();
        assert_eq!(image.render(), text);

        // Refused, image untouched: unknown tag, shard out of range, a
        // file of a client the directory does not list, no payload.
        for line in [
            "full|x",
            "novalue",
            "chunk|2|0|7|1|0|-|||10|10|-|d0|live",
            "chunk|x|0|row",
            "chunk|0|x|row",
            "file|0|nobody|f|1|10||",
            "filedel|9|c|f",
            "vids|x",
            "client|eve|pw",
        ] {
            assert!(image.fold_line(line).is_none(), "{line}");
        }
        assert_eq!(image.render(), text);

        for line in [
            "vids|9",
            "vids|5",                               // the maximum stays
            "chunk|1|0|7|1|0|-|||0|0|-|d0|removed", // in place
            "chunk|0|2|8|2|0|-|||4|4|1:0|d0|live",  // a gap of two below it
            "stripe|0|1|1|none|4|2|degraded",       // a gap of one
            "filedel|1|c%7C1|f",
            "filedel|1|c%7C1|never-there",
            "file|0|c%7C1|g%7Ch|2|4|2|1",
            "client|late|p%2Cw%7C:2,q:0",
            "client|c%7C1|", // passwords rewritten: none left
        ] {
            assert!(image.fold_line(line).is_some(), "{line}");
        }
        let filler = PLACEHOLDER_CHUNK_ROW;
        let want = format!(
            "fragcloud-state|v2\nvids|9\nshards|2\nproviders|1\nprovider|cp0\n\
             clients|2\nclient|c%7C1\nclient|late\npassword|p,w%7C|2\npassword|q|0\n\
             shard|0\nchunks|3\nchunk|{filler}\nchunk|{filler}\n\
             chunk|8|2|0|-|||4|4|1:0|d0|live\n\
             stripes|2\nstripe|{PLACEHOLDER_STRIPE_ROW}\nstripe|1|none|4|2|degraded\n\
             files|1\nfile|c%7C1|g%7Ch|2|4|2|1\n\
             shard|1\nchunks|1\nchunk|7|1|0|-|||0|0|-|d0|removed\nstripes|0\nfiles|0\nend\n"
        );
        assert_eq!(image.render(), want);
        // What the fold leaves imports: placeholders pass the row gate,
        // and its links, as long as no row names them.
        let d = import_image(&image, fleet(), config()).unwrap();
        assert_eq!(export_state(&d), want);
        assert!(d.session("late", "p,w|").is_ok());
    }

    #[test]
    fn export_import_roundtrip_preserves_reads() {
        let providers = fleet();
        let d = CloudDataDistributor::try_new(providers.clone(), config()).expect("valid config");
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
        let d = CloudDataDistributor::try_new(providers.clone(), config()).expect("valid config");
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
        let d = CloudDataDistributor::try_new(fleet(), config()).expect("valid config");
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

    /// One field of one row, damaged: a row of `tag` that `pick` accepts
    /// (its `|`-split line) gets `edit`, and import must refuse it as
    /// `CorruptState` naming the line of that row, for `why`.
    struct Tamper {
        tag: &'static str,
        pick: fn(&[&str]) -> bool,
        edit: fn(&mut Vec<String>),
        why: &'static str,
    }

    /// A live chunk line with mislead positions.
    fn live_positions(f: &[&str]) -> bool {
        f[11].starts_with("live") && !f[6].is_empty()
    }

    /// Rewrites a chunk line's mislead positions; `edit` also gets the
    /// stored length.
    fn edit_positions(f: &mut [String], edit: fn(&mut Vec<usize>, usize)) {
        let mut positions: Vec<usize> = f[6].split(',').map(|p| p.parse().unwrap()).collect();
        edit(&mut positions, f[7].parse().unwrap());
        let positions: Vec<String> = positions.iter().map(usize::to_string).collect();
        f[6] = positions.join(",");
    }

    /// Regression: each of these imported, and the next verb indexed past
    /// a table or the fleet and panicked (the mislead cases inside
    /// `mislead::strip`; a stripe ref past the arena in a get or an
    /// update; a slot past the stripe's width in a get; a snapshot or
    /// replica provider past the fleet in `ensure_online`; a stripe
    /// narrower than `k` plus its parity in the parity plan's
    /// `members.len() - k`; a file's stripe past the arena in
    /// `remove_file`). Now no verb sees them: the row gate refuses one
    /// row's fields, the link check the rows that disagree.
    #[test]
    fn import_rejects_a_tampered_field_of_any_row() {
        let providers = fleet();
        let snapshot = export_state(&every_row_shape());
        assert!(import_state(&snapshot, providers.clone(), config()).is_ok());

        let cases = [
            Tamper {
                tag: "chunk",
                pick: live_positions,
                edit: |f| edit_positions(f, |p, stored| *p.last_mut().unwrap() = stored),
                why: "beyond stored length",
            },
            Tamper {
                tag: "chunk",
                pick: |f| live_positions(f) && f[6].contains(','),
                edit: |f| {
                    edit_positions(f, |p, _| {
                        let n = p.len();
                        p[n - 1] = p[n - 2];
                    })
                },
                why: "ascending",
            },
            Tamper {
                tag: "chunk",
                pick: live_positions,
                edit: |f| edit_positions(f, |p, _| p.truncate(p.len() - 1)),
                why: "does not match the lengths",
            },
            Tamper {
                tag: "chunk",
                pick: |_| true,
                edit: |f| f[3] = "6".into(),
                why: "provider index out of range",
            },
            Tamper {
                tag: "chunk",
                pick: |f| f[4] != "-",
                edit: |f| f[4] = format!("6:{}", f[4].split_once(':').unwrap().1),
                why: "provider index out of range",
            },
            Tamper {
                tag: "chunk",
                pick: |f| f[11].starts_with("live;"),
                edit: |f| f[11] = f[11].replacen("live;", "live;6:0,", 1),
                why: "provider index out of range",
            },
            Tamper {
                tag: "chunk",
                pick: |f| f[9] != "-",
                edit: |f| f[9] = "999:0".into(),
                why: "stripe index out of range",
            },
            Tamper {
                tag: "chunk",
                pick: |f| f[9] != "-",
                edit: |f| f[9] = format!("{}:9", f[9].split_once(':').unwrap().0),
                why: "not in its stripe slot",
            },
            Tamper {
                tag: "chunk",
                pick: |f| f[10] == "p0",
                edit: |f| f[10] = "d0".into(),
                why: "not in its stripe slot",
            },
            Tamper {
                tag: "stripe",
                pick: |f| f[2] == "raid5",
                edit: |f| f[1] = "7".into(),
                why: "width is not k",
            },
            Tamper {
                tag: "stripe",
                pick: |f| f[2] == "raid5",
                edit: |f| f[2] = "rs5".into(),
                why: "width is not k",
            },
            Tamper {
                tag: "stripe",
                pick: |_| true,
                edit: |f| f[4] = format!("{},0", f[4]),
                why: "width is not k",
            },
            Tamper {
                tag: "stripe",
                pick: |_| true,
                edit: |f| {
                    let mut members: Vec<&str> = f[4].split(',').collect();
                    members[1] = members[0];
                    f[4] = members.join(",");
                },
                why: "repeated",
            },
            Tamper {
                tag: "stripe",
                pick: |_| true,
                edit: |f| f[4] = format!("999{}", &f[4][f[4].find(',').unwrap()..]),
                why: "members out of range",
            },
            Tamper {
                tag: "file",
                pick: |f| !f[6].is_empty(),
                edit: |f| f[6] = "999".into(),
                why: "file index out of range",
            },
            Tamper {
                tag: "file",
                pick: |f| f[5].contains(','),
                edit: |f| {
                    let mut chunks: Vec<&str> = f[5].split(',').collect();
                    chunks.swap(0, 1);
                    f[5] = chunks.join(",");
                },
                why: "do not match its stripes",
            },
        ];
        for case in &cases {
            let (row_no, row) = (snapshot.lines().enumerate())
                .find(|(_, l)| {
                    let f: Vec<&str> = l.split('|').collect();
                    f[0] == case.tag && (case.pick)(&f)
                })
                .unwrap_or_else(|| panic!("no {} row for {:?}", case.tag, case.why));
            let mut fields: Vec<String> = row.split('|').map(str::to_string).collect();
            (case.edit)(&mut fields);
            let tampered = snapshot.replacen(row, &fields.join("|"), 1);
            assert_ne!(tampered, snapshot, "{:?} changed nothing", case.why);
            match import_state(&tampered, providers.clone(), config()) {
                Err(CoreError::CorruptState { line, why }) => {
                    assert_eq!(line, row_no + 1, "{why}");
                    assert!(
                        why.contains(case.why),
                        "{why:?} should mention {:?}",
                        case.why
                    );
                }
                Err(other) => panic!("expected CorruptState, got {other:?}"),
                Ok(_) => panic!("{}: {:?} must not import", fields.join("|"), case.why),
            }
        }
    }

    #[test]
    fn restore_refuses_snapshot_positions_beyond_the_snapshot() {
        // No row records a snapshot's length, so import checks its
        // positions for order only; the restore checks them against the
        // bytes it read, before it allocates a vid, and changes nothing.
        let providers = fleet();
        let config = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            ..config()
        };
        let d = CloudDataDistributor::try_new(providers.clone(), config).expect("valid config");
        d.register_client("c").unwrap();
        d.add_password("c", "p", PrivacyLevel::High).unwrap();
        let s = d.session("c", "p").unwrap();
        s.put_file(
            "f",
            &body(1 << 10),
            PrivacyLevel::Low,
            PutOptions::default(),
        )
        .unwrap();
        s.update_chunk("f", 0, &body(1 << 9)).unwrap();
        let snapshot = export_state(&d);
        let row = snapshot
            .lines()
            .find(|l| l.starts_with("chunk|") && l.split('|').nth(4) != Some("-"))
            .expect("the updated chunk's row names its snapshot");
        let mut fields: Vec<&str> = row.split('|').collect();
        fields[5] = "5,100000";
        let tampered = snapshot.replace(row, &fields.join("|"));
        let d = import_state(&tampered, providers, config).expect("order is all import checks");
        let s = d.session("c", "p").unwrap();
        let before = export_state(&d);
        let vids = d.vids_allocated();

        match s.restore_snapshot("f", 0) {
            Err(CoreError::CorruptState { why, .. }) => assert!(why.contains("f#0"), "{why}"),
            other => panic!("expected CorruptState, got {other:?}"),
        }
        assert_eq!(export_state(&d), before);
        assert_eq!(d.vids_allocated(), vids);
        assert_eq!(s.get_file("f").unwrap().data, body(1 << 9));
    }

    #[test]
    fn export_is_stable_and_versioned() {
        let d = CloudDataDistributor::try_new(fleet(), config()).expect("valid config");
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
        let d = CloudDataDistributor::try_new(providers.clone(), config()).expect("valid config");
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
