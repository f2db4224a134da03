//! The distributor's three tables (paper Tables I–III).
//!
//! - **Cloud Provider Table** — name, PL, CL, chunk count, virtual-id list
//!   (we hold a live handle to the simulated provider and derive the
//!   count/list columns from it);
//! - **Client Table** — client name, ⟨password, PL⟩ pairs, chunk count, and
//!   per-chunk ⟨filename, serial, PL, chunk-table index⟩ quadruples;
//! - **Chunk Table** — virtual id, PL, current-provider index, snapshot-
//!   provider index, misleading-byte positions (plus the stripe bookkeeping
//!   our RAID layer needs).

use crate::{CoreError, Result};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::{CloudProvider, PrivacyLevel, VirtualId};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Role of a chunk within its stripe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkRole {
    /// A data chunk, carrying the file's serial `sl`.
    Data {
        /// Serial number within the file.
        serial: u32,
    },
    /// A parity chunk (`index` 0 = P, 1 = Q).
    Parity {
        /// Parity slot within the stripe.
        index: u8,
    },
}

/// Stripe membership pointer stored on each chunk entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripeRef {
    /// Index into the stripe list.
    pub stripe_id: usize,
    /// Shard index within the stripe: `0..k` data, `k` = P, `k+1` = Q.
    pub index: usize,
}

/// One row of the Chunk Table (Table III) plus RAID bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkEntry {
    /// Opaque id under which the chunk is stored at providers.
    pub vid: VirtualId,
    /// The chunk's privacy level (inherited from its file).
    pub pl: PrivacyLevel,
    /// Cloud Provider Table index of the current provider (`CP`).
    pub provider_idx: usize,
    /// Provider index of the snapshot provider (`SP`), if a snapshot exists.
    pub snapshot_provider_idx: Option<usize>,
    /// Virtual id of the snapshot object at the snapshot provider.
    pub snapshot_vid: Option<VirtualId>,
    /// Misleading-byte positions of the snapshotted pre-state (the snapshot
    /// object holds the *stored* form, so restore needs these to strip it).
    pub snapshot_mislead: Arc<[usize]>,
    /// Ascending positions of misleading bytes in the stored chunk (`M`),
    /// shared by reference count: a get's plan holds them without a copy,
    /// and a put hands over the list the encode produced without one.
    pub mislead_positions: Arc<[usize]>,
    /// Stored length (logical + misleading bytes).
    pub stored_len: usize,
    /// Logical (client-visible) length.
    pub logical_len: usize,
    /// Stripe membership, when RAID is active.
    pub stripe: Option<StripeRef>,
    /// Data or parity role.
    pub role: ChunkRole,
    /// Tombstone: the chunk was explicitly removed (§VI `remove chunk`);
    /// its stripe slot contributes zeros to parity from then on.
    pub removed: bool,
    /// Extra copies: "same chunk can be provided to multiple Cloud
    /// Providers depending on the clients' requirement" (§VI). Each replica
    /// lives at a distinct provider under its own virtual id (so providers
    /// cannot correlate copies).
    pub replicas: Vec<(usize, VirtualId)>,
}

impl ChunkEntry {
    /// The free slot — the one definition of a chunk row no file owns,
    /// which `Tables::drop_file` leaves and the next put claims: removed,
    /// in no stripe, naming no object (vid `u64::MAX` is never allocated).
    pub fn free() -> ChunkEntry {
        ChunkEntry {
            vid: VirtualId(u64::MAX),
            pl: PrivacyLevel::Public,
            provider_idx: 0,
            snapshot_provider_idx: None,
            snapshot_vid: None,
            snapshot_mislead: Arc::default(),
            mislead_positions: Arc::default(),
            stored_len: 0,
            logical_len: 0,
            stripe: None,
            role: ChunkRole::Data { serial: 0 },
            removed: true,
            replicas: Vec::new(),
        }
    }

    /// Turns the row into a tombstone — `remove_chunk`'s dead row of a
    /// live file. It names nothing that still exists: no replica or
    /// snapshot id (either would read as referenced), no lengths, and no
    /// position lists (they would be rewritten into every checkpoint).
    /// `vid`, `provider_idx`, `stripe` and `role` stay: the stripe still
    /// counts the slot, as zeros.
    pub fn tombstone(&mut self) {
        self.removed = true;
        self.stored_len = 0;
        self.logical_len = 0;
        self.replicas.clear();
        self.mislead_positions = Arc::default();
        self.snapshot_mislead = Arc::default();
        self.snapshot_provider_idx = None;
        self.snapshot_vid = None;
    }

    /// Every provider object the row names, as ⟨provider index, vid⟩: the
    /// primary while the row is live, each replica, the snapshot. The one
    /// enumeration behind a verb's doom list and
    /// [`Tables::referenced_objects`].
    pub fn objects(&self) -> impl Iterator<Item = (usize, VirtualId)> + '_ {
        (!self.removed)
            .then_some((self.provider_idx, self.vid))
            .into_iter()
            .chain(self.replicas.iter().copied())
            .chain(self.snapshot_provider_idx.zip(self.snapshot_vid))
    }
}

/// Geometry and membership of one RAID stripe.
#[derive(Debug, Clone, PartialEq)]
pub struct StripeInfo {
    /// Number of data shards.
    pub k: usize,
    /// Assurance level.
    pub level: RaidLevel,
    /// Chunk-table indices of the members: `k` data chunks then parity.
    pub members: Vec<usize>,
    /// Common padded shard width used for parity math.
    pub shard_width: usize,
    /// Degraded marker: at least one member shard is known lost (write
    /// skipped a dead provider, or a scrub found the object missing) and a
    /// repair pass has not yet re-materialized it.
    pub degraded: bool,
}

impl StripeInfo {
    /// [`ChunkEntry::free`]'s counterpart: `k` 0, no members.
    pub fn free() -> StripeInfo {
        StripeInfo {
            k: 0,
            level: RaidLevel::None,
            members: Vec::new(),
            shard_width: 0,
            degraded: false,
        }
    }
}

/// One file's metadata inside a client entry.
#[derive(Debug, Clone)]
pub struct FileEntry {
    /// Privacy level chosen by the client at upload.
    pub pl: PrivacyLevel,
    /// Chunk-table indices of the data chunks, in serial order.
    pub chunk_indices: Vec<usize>,
    /// Stripes covering this file.
    pub stripe_ids: Vec<usize>,
    /// Original file length.
    pub total_len: usize,
}

/// One row of the Client Table (Table II) as the client directory holds
/// it: the client's ⟨password, PL⟩ pairs. Its files — the row's count and
/// quadruples — are partitioned across the table shards
/// ([`Tables::files`]).
#[derive(Debug, Clone, Default)]
pub struct ClientEntry {
    /// ⟨password, PL⟩ pairs; "associates a group of users with a
    /// ⟨password, PL⟩ pair at client side". No password is listed twice.
    pub passwords: Vec<(String, PrivacyLevel)>,
}

/// The client directory: client name → its [`ClientEntry`]. The
/// distributor holds one, behind one lock.
pub type Directory = HashMap<String, ClientEntry>;

/// One table shard: the rows it partitions. A file lives wholly in one
/// shard; the provider fleet and the client directory are held once, by
/// the distributor.
#[derive(Debug, Default)]
pub struct Tables {
    /// The Client Table's files in this shard: client → filename → entry.
    pub files: HashMap<String, HashMap<String, FileEntry>>,
    /// Chunk Table.
    pub chunks: Vec<ChunkEntry>,
    /// Stripe list (not in the paper's tables; implements its RAID call).
    pub stripes: Vec<StripeInfo>,
    /// ⟨client, filename⟩ of the puts between their plan and their commit:
    /// the name is taken, though no file row exists yet. Neither persisted
    /// nor journaled — a crashed put's claim dies with the process.
    pub(crate) reserved: HashSet<(String, String)>,
    /// The slots holding [`ChunkEntry::free`] / [`StripeInfo::free`]: a
    /// function of the rows, never persisted ([`Tables::with_rows`]).
    pub(crate) free_chunks: BTreeSet<usize>,
    pub(crate) free_stripes: BTreeSet<usize>,
}

impl Tables {
    /// Tables of these arenas, every free-form row a free slot (import).
    pub(crate) fn with_rows(chunks: Vec<ChunkEntry>, stripes: Vec<StripeInfo>) -> Tables {
        let (c, s) = (ChunkEntry::free(), StripeInfo::free());
        Tables {
            free_chunks: (0..chunks.len()).filter(|&i| chunks[i] == c).collect(),
            free_stripes: (0..stripes.len()).filter(|&j| stripes[j] == s).collect(),
            chunks,
            stripes,
            ..Tables::default()
        }
    }

    /// Looks up a client's file in this shard or fails. Whether the client
    /// exists is the directory's question, asked first.
    pub fn file(&self, client: &str, filename: &str) -> Result<&FileEntry> {
        self.files
            .get(client)
            .and_then(|files| files.get(filename))
            .ok_or_else(|| CoreError::UnknownFile {
                client: client.to_string(),
                filename: filename.to_string(),
            })
    }

    /// Chunk-table index for a file's serial number.
    pub fn chunk_index(&self, client: &str, filename: &str, serial: u32) -> Result<usize> {
        let file = self.file(client, filename)?;
        file.chunk_indices
            .get(serial as usize)
            .copied()
            .ok_or_else(|| CoreError::UnknownChunk {
                filename: filename.to_string(),
                serial,
            })
    }

    /// [`chunk_index`](Self::chunk_index) for the verbs that rewrite a
    /// chunk's object (update, restore, remove): a tombstoned row is as
    /// unknown as a serial past the end — nothing may be folded back into
    /// its stripe's parity.
    pub fn live_chunk_index(&self, client: &str, filename: &str, serial: u32) -> Result<usize> {
        let idx = self.chunk_index(client, filename, serial)?;
        if self.chunks[idx].removed {
            return Err(CoreError::UnknownChunk {
                filename: filename.to_string(),
                serial,
            });
        }
        Ok(idx)
    }

    /// Chunk-table rows of every member (data and parity) of a file's
    /// stripes.
    pub fn file_members(&self, file: &FileEntry) -> Vec<usize> {
        file.stripe_ids
            .iter()
            .flat_map(|&sid| self.stripes[sid].members.iter().copied())
            .collect()
    }

    /// Removes a file at the table level — the file entry goes, its
    /// stripes and their members become free slots — and returns the chunk
    /// and stripe rows it freed. `remove_file` runs it under its shard
    /// guard; the file's objects are the caller's to delete.
    pub fn drop_file(&mut self, client: &str, filename: &str) -> Result<(Vec<usize>, Vec<usize>)> {
        let file = self.file(client, filename)?;
        let (members, stripe_ids) = (self.file_members(file), file.stripe_ids.clone());
        if let Some(files) = self.files.get_mut(client) {
            files.remove(filename);
        }
        for &m in &members {
            self.chunks[m] = ChunkEntry::free();
        }
        for &s in &stripe_ids {
            self.stripes[s] = StripeInfo::free();
        }
        self.free_chunks.extend(&members);
        self.free_stripes.extend(&stripe_ids);
        Ok((members, stripe_ids))
    }

    /// Every provider object the tables still reference
    /// ([`ChunkEntry::objects`] over every row). The complement — a key a
    /// provider holds that is *not* in this set — is an orphan.
    pub fn referenced_objects(&self) -> HashSet<(usize, VirtualId)> {
        self.chunks.iter().flat_map(ChunkEntry::objects).collect()
    }

    /// Renders the Client Table like the paper's Table II: every client of
    /// `directory`, with its files in these tables.
    pub fn render_client_table(&self, directory: &Directory) -> String {
        let mut out = String::from("Client | (pass, PL) | Count | (filename, sl, PL, idx)\n");
        let mut names: Vec<&String> = directory.keys().collect();
        names.sort();
        for name in names {
            let passes: Vec<String> = directory[name]
                .passwords
                .iter()
                .map(|(p, pl)| format!("({p}, {})", pl.as_u8()))
                .collect();
            let mut quads = Vec::new();
            let mut files: Vec<(&String, &FileEntry)> =
                self.files.get(name).into_iter().flatten().collect();
            files.sort_by_key(|(n, _)| (*n).clone());
            for (fname, fe) in files {
                for (sl, &idx) in fe.chunk_indices.iter().enumerate() {
                    quads.push(format!("({fname}, {sl}, {}, {idx})", fe.pl.as_u8()));
                }
            }
            out.push_str(&format!(
                "{name} | {} | {} | {}\n",
                passes.join(" "),
                quads.len(),
                quads.join(" ")
            ));
        }
        out
    }

    /// Renders the Chunk Table like the paper's Table III (no free slot).
    pub fn render_chunk_table(&self) -> String {
        let mut out = String::from("virtual id | PL | CP index | SP index | M\n");
        let free = ChunkEntry::free();
        for ch in self.chunks.iter().filter(|&ch| *ch != free) {
            let sp = ch
                .snapshot_provider_idx
                .map(|i| i.to_string())
                .unwrap_or_else(|| "NA".to_string());
            let m: Vec<String> = ch
                .mislead_positions
                .iter()
                .take(3)
                .map(|p| p.to_string())
                .collect();
            let ell = if ch.mislead_positions.len() > 3 {
                ", ..."
            } else {
                ""
            };
            out.push_str(&format!(
                "{} | {} | {} | {} | {{{}{}}}\n",
                ch.vid.0,
                ch.pl.as_u8(),
                ch.provider_idx,
                sp,
                m.join(", "),
                ell
            ));
        }
        out
    }
}

/// Moves `rows` to the lowest `free` slots of `arena`, the rest past its
/// end, and returns their slots in order: how a put's commit places rows.
pub(crate) fn fill<T>(
    arena: &mut Vec<T>,
    free: &mut BTreeSet<usize>,
    rows: &mut Vec<T>,
) -> Vec<usize> {
    let n = rows.len();
    let mut slots: Vec<usize> = std::iter::from_fn(|| free.pop_first()).take(n).collect();
    let fresh = rows.drain(slots.len()..);
    slots.extend(arena.len()..arena.len() + fresh.len());
    arena.extend(fresh);
    for (row, &slot) in rows.drain(..).zip(&slots) {
        arena[slot] = row;
    }
    slots
}

/// Renders the Cloud Provider Table like the paper's Table I.
pub fn render_provider_table(providers: &[Arc<CloudProvider>]) -> String {
    let mut out = String::from("Cloud Provider | PL | CL | Count | Virtual id list\n");
    for p in providers {
        let ids = p.virtual_id_list();
        let preview: Vec<String> = ids.iter().take(3).map(|v| v.0.to_string()).collect();
        let ell = if ids.len() > 3 { ", ..." } else { "" };
        out.push_str(&format!(
            "{} | {} | {} | {} | {{{}{}}}\n",
            p.name(),
            p.profile().privacy_level,
            p.profile().cost_level,
            p.chunk_count(),
            preview.join(", "),
            ell
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragcloud_sim::{CostLevel, ProviderProfile};

    fn fleet() -> Vec<Arc<CloudProvider>> {
        ["Adobe", "AWS", "Google"]
            .iter()
            .map(|n| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    *n,
                    PrivacyLevel::High,
                    CostLevel::new(3),
                )))
            })
            .collect()
    }

    fn file(chunk_indices: Vec<usize>) -> FileEntry {
        FileEntry {
            pl: PrivacyLevel::Public,
            total_len: chunk_indices.len(),
            chunk_indices,
            stripe_ids: vec![],
        }
    }

    #[test]
    fn lookups_fail_cleanly() {
        let mut t = Tables::default();
        assert!(matches!(
            t.file("Bob", "file1"),
            Err(CoreError::UnknownFile { .. })
        ));
        let bob = t.files.entry("Bob".into()).or_default();
        bob.insert("file1".into(), file(vec![0]));
        assert!(t.chunk_index("Bob", "file1", 0).is_ok());
        assert!(matches!(
            t.chunk_index("Bob", "file1", 5),
            Err(CoreError::UnknownChunk { serial: 5, .. })
        ));
    }

    /// Table II's `Count` column sums the client's files in the shard.
    #[test]
    fn chunk_count_sums_files() {
        let mut t = Tables::default();
        let bob = t.files.entry("Bob".into()).or_default();
        bob.insert("a".into(), file(vec![0, 1, 2]));
        bob.insert("b".into(), file(vec![3]));
        let directory = Directory::from([("Bob".into(), ClientEntry::default())]);
        let row = t.render_client_table(&directory);
        assert!(row.contains("\nBob |  | 4 | (a, 0, 0, 0) "), "{row}");
    }

    #[test]
    fn renders_contain_headers_and_rows() {
        let mut t = Tables::default();
        let directory = Directory::from([(
            "Bob".into(),
            ClientEntry {
                passwords: vec![("x9pr".into(), PrivacyLevel::Low)],
            },
        )]);
        t.chunks.push(ChunkEntry {
            vid: VirtualId(10986),
            pl: PrivacyLevel::Low,
            provider_idx: 0,
            snapshot_provider_idx: None,
            snapshot_vid: None,
            snapshot_mislead: Arc::default(),
            mislead_positions: Arc::default(),
            stored_len: 8,
            logical_len: 8,
            stripe: None,
            role: ChunkRole::Data { serial: 0 },
            removed: false,
            replicas: Vec::new(),
        });
        let pt = render_provider_table(&fleet());
        assert!(pt.contains("AWS"));
        assert!(pt.contains("PL3"));
        let ct = t.render_client_table(&directory);
        assert!(ct.contains("Bob"));
        assert!(ct.contains("x9pr"));
        let kt = t.render_chunk_table();
        assert!(kt.contains("10986"));
        assert!(kt.contains("NA"));
    }
}
