//! Hostile state: the snapshot and the journal are bytes the distributor
//! reads back from storage, and the paper's adversary sits on the storage
//! side (§II). A seeded run's `export_state` text and its journal each get
//! one structured mutation — a row dropped, duplicated or swapped, one
//! index-valued field (provider, arena index, stripe ref, `k`, member,
//! serial, mislead position) set out of range or to another row's value,
//! a line truncated, an escape flipped — and are imported or recovered.
//! Then every verb runs on every file inside `catch_unwind`:
//!
//! 1. nothing panics — import, recovery and each verb return `Ok` or a
//!    typed `CoreError`;
//! 2. every file whose rows the mutation left alone reads back
//!    byte-identical.
//!
//! Byte-length fields (stored and logical length, stripe width, file
//! length) are left alone: a consistent huge length sizes an allocation
//! before the boundary's `expected_len` check can refuse the object, and
//! an allocation failure aborts rather than panics.
//!
//! `PROPTEST_CASES` widens the sweep; CI runs it in `--release`, where an
//! integer overflow wraps instead of panicking.

use fragcloud::core::persist;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud::{
    recover, ChunkSizeSchedule, CloudDataDistributor, DistributorConfig, Journal, PrivacyLevel,
    PutOptions, RaidLevel,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

const FLEET: usize = 6;
/// ⟨client, password⟩: the second needs escaping in every row that names it.
const CLIENTS: [(&str, &str); 2] = [("ann", "pw"), ("b|%z", "p|w")];
/// Every client's files after the seeded run (`gone` was removed).
const FILES: [&str; 5] = ["plain", "copies", "rs\n|%", "holey", "gone"];

/// Values an index-valued field is set to when pushed out of range: just
/// past the fleet, past any arena of the seeded run, past `u32` (a
/// serial), the largest `usize`, and past it.
const OUT_OF_RANGE: [&str; 6] = [
    "6",
    "99",
    "4096",
    "4294967296",
    "18446744073709551615",
    "340282366920938463463374607431768211456",
];

/// `PROPTEST_CASES`, or a small default for tier-1.
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

fn config() -> DistributorConfig {
    let mut cfg = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(64),
        stripe_width: 3,
        raid_level: RaidLevel::Raid5,
        mislead_rate: 0.05,
        ..Default::default()
    };
    // Every op after the journal attaches stays a commit record to damage.
    cfg.durability = cfg.durability.with_checkpoint_interval(1 << 20);
    cfg
}

fn body(len: usize, salt: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 37 + salt * 101) % 251) as u8)
        .collect()
}

/// The seeded run: per client, a plain RAID-5 file, one with a replica per
/// chunk and a snapshot (an update), an RS(2,2) file, one with a removed
/// chunk, and one removed. The journal attaches after the first put, so
/// its checkpoint holds rows and its commits hold the rest — the second
/// client's registration included.
fn seeded() -> (Vec<Arc<CloudProvider>>, CloudDataDistributor, Arc<Journal>) {
    let fleet: Vec<Arc<CloudProvider>> = (0..FLEET)
        .map(|i| {
            let profile =
                ProviderProfile::new(format!("cp{i}"), PrivacyLevel::High, CostLevel::new(1));
            Arc::new(CloudProvider::new(profile))
        })
        .collect();
    let d = CloudDataDistributor::try_new(fleet.clone(), config()).unwrap();
    let journal = Arc::new(Journal::new());
    for (n, (client, pw)) in CLIENTS.into_iter().enumerate() {
        d.register_client(client).unwrap();
        d.add_password(client, pw, PrivacyLevel::High).unwrap();
        let s = d.session(client, pw).unwrap();
        let put = |name: &str, len: usize, salt: usize, pl: PrivacyLevel, opts: PutOptions| {
            s.put_file(name, &body(len, n * 10 + salt), pl, opts)
                .unwrap();
        };
        put("plain", 300, 0, PrivacyLevel::Low, PutOptions::new());
        if n == 0 {
            d.attach_journal(Arc::clone(&journal));
        }
        let replicated = PutOptions::new().replicas(1);
        put("copies", 200, 1, PrivacyLevel::Moderate, replicated);
        s.update_chunk("copies", 1, &body(64, 7)).unwrap();
        put(
            "rs\n|%",
            150,
            2,
            PrivacyLevel::High,
            PutOptions::new().geometry(2, 2),
        );
        put("holey", 192, 3, PrivacyLevel::Low, PutOptions::new());
        s.remove_chunk("holey", 1).unwrap();
        put("gone", 100, 4, PrivacyLevel::Low, PutOptions::new());
        s.remove_file("gone").unwrap();
    }
    (fleet, d, journal)
}

/// The `%xx` escaping of names inside a row.
fn esc(s: &str) -> String {
    s.replace('%', "%25")
        .replace('|', "%7C")
        .replace('\n', "%0A")
}

/// [`esc`] undone.
fn unesc(s: &str) -> String {
    s.replace("%0A", "\n")
        .replace("%7C", "|")
        .replace("%25", "%")
}

/// What a read of `client`'s `name` depends on in snapshot `text`: the
/// client's passwords, the file row's level and length, each of its data rows, each of its
/// stripes' rows and every member's row — arena indices and stripe refs
/// left out, so a row moved in the arena reads the same. `None` when the
/// text has no such file.
fn closure(text: &str, client: &str, name: &str) -> Option<String> {
    let (client, name) = (esc(client), esc(name));
    let (mut chunks, mut stripes) = (Vec::new(), Vec::new());
    let (mut passwords, mut in_client) = (String::new(), false);
    for line in text.lines() {
        if let Some(c) = line.strip_prefix("client|") {
            in_client = c == client;
        } else if line.starts_with("password|") {
            if in_client {
                passwords += line;
            }
        } else if line.starts_with("shard|") {
            chunks.clear();
            stripes.clear();
        } else if let Some(row) = line.strip_prefix("chunk|") {
            chunks.push(row);
        } else if let Some(row) = line.strip_prefix("stripe|") {
            stripes.push(row);
        } else if let Some(row) = line.strip_prefix("file|") {
            let f: Vec<&str> = row.split('|').collect();
            if f.len() != 6 || f[0] != client || f[1] != name {
                continue;
            }
            let chunk = |i: &str| {
                let mut g: Vec<&str> = chunks.get(i.parse::<usize>().ok()?)?.split('|').collect();
                *g.get_mut(8)? = "";
                Some(g.join("|") + "\n")
            };
            let mut out = format!("{passwords}\n{}|{}\n", f[2], f[3]);
            for c in f[4].split(',').filter(|c| !c.is_empty()) {
                out += &chunk(c)?;
            }
            for s in f[5].split(',').filter(|s| !s.is_empty()) {
                let g: Vec<&str> = stripes.get(s.parse::<usize>().ok()?)?.split('|').collect();
                out += &format!("{}|{}|{}|{}\n", g.first()?, g.get(1)?, g.get(2)?, g.get(4)?);
                for m in g.get(3)?.split(',').filter(|m| !m.is_empty()) {
                    out += &chunk(m)?;
                }
            }
            return Some(out);
        }
    }
    None
}

/// Key fields after the tag of a row line: a delta's shard and arena slot
/// (`chunk|<shard>|<slot>|…`), a delta file's shard; none in a snapshot.
fn key_fields(line: &str, delta: bool) -> usize {
    match line.split('|').next() {
        Some("chunk" | "stripe") if delta => 2,
        Some("file" | "filedel") if delta => 1,
        _ => 0,
    }
}

/// The index-valued numbers of a row line, as ⟨field, byte range⟩ (a
/// payload field by its snapshot number, key field `i` as `100 + i`):
/// every key field, and of the payload a chunk's provider, snapshot
/// provider, both mislead lists, stripe ref, serial or parity index and
/// replica providers; a stripe's `k` and members; a file's chunk and
/// stripe indices. A provider inside `<provider>:<vid>` is the digit run
/// before the `:`.
fn index_tokens(line: &str, delta: bool) -> Vec<(usize, Range<usize>)> {
    let keys = key_fields(line, delta);
    let tag = line.split('|').next().unwrap_or("");
    let mut out = Vec::new();
    let mut start = 0;
    for (i, field) in line.split('|').enumerate() {
        let payload = i.wrapping_sub(keys);
        let (every, before_colon) = match (tag, payload) {
            _ if i == 0 => (false, false),
            _ if i <= keys => (true, false),
            ("chunk", 3 | 5 | 6 | 9 | 10) | ("stripe", 1 | 4) | ("file", 5 | 6) => (true, false),
            ("chunk", 4 | 11) => (false, true),
            _ => (false, false),
        };
        let bytes = field.as_bytes();
        let mut j = 0;
        while j < bytes.len() {
            if !bytes[j].is_ascii_digit() {
                j += 1;
                continue;
            }
            let run = j;
            while j < bytes.len() && bytes[j].is_ascii_digit() {
                j += 1;
            }
            if every || (before_colon && bytes.get(j) == Some(&b':')) {
                out.push((
                    if i <= keys { 100 + i } else { payload },
                    start + run..start + j,
                ));
            }
        }
        start += field.len() + 1;
    }
    out
}

/// One structured mutation of `rows`, drawn from `kind`, `a` and `b`.
/// Each row is tagged with the commit record it belongs to; a row tagged
/// `0` (a snapshot's framing) is never picked. Returns what it did, or
/// `None` when the draw names nothing to change.
fn mutate(
    rows: &mut Vec<(usize, String)>,
    delta: bool,
    kind: u8,
    a: u64,
    b: u64,
) -> Option<String> {
    let picked: Vec<usize> = (0..rows.len()).filter(|&r| rows[r].0 != 0).collect();
    let pick = |x: u64| picked[(x % picked.len() as u64) as usize];
    let i = pick(a);
    match kind {
        0 => Some(format!("dropped {:?}", rows.remove(i).1)),
        1 => {
            rows.insert(i, rows[i].clone());
            Some(format!("duplicated {:?}", rows[i].1))
        }
        2 => {
            let j = pick(b);
            let (x, y) = (rows[i].1.clone(), rows[j].1.clone());
            (x != y).then(|| {
                rows[i].1 = y;
                rows[j].1 = x;
                format!("swapped {:?} and {:?}", rows[i].1, rows[j].1)
            })
        }
        3 | 4 => {
            let tokens: Vec<(usize, usize, Range<usize>)> = (picked.iter())
                .flat_map(|&r| {
                    index_tokens(&rows[r].1, delta)
                        .into_iter()
                        .map(move |(f, t)| (r, f, t))
                })
                .collect();
            let tag = |r: usize| rows[r].1.split('|').next().unwrap_or("").to_string();
            // A kind of field first, then one of its numbers: a field few
            // rows carry (a snapshot's, a replica's) is drawn as often as
            // a member.
            let mut kinds: Vec<(String, usize)> =
                (tokens.iter()).map(|(r, f, _)| (tag(*r), *f)).collect();
            kinds.sort();
            kinds.dedup();
            let picked_kind = kinds.get((a % kinds.len().max(1) as u64) as usize)?;
            let of_kind: Vec<&(usize, usize, Range<usize>)> = (tokens.iter())
                .filter(|(r, f, _)| (tag(*r), *f) == *picked_kind)
                .collect();
            let (r, field, range) = (*of_kind[((a >> 32) % of_kind.len() as u64) as usize]).clone();
            let value = if kind == 3 {
                OUT_OF_RANGE[(b % OUT_OF_RANGE.len() as u64) as usize].to_string()
            } else {
                // The same field of another row of the same kind.
                let peers: Vec<&(usize, usize, Range<usize>)> = (tokens.iter())
                    .filter(|(p, f, _)| *p != r && *f == field && tag(*p) == tag(r))
                    .collect();
                let (p, _, t) = peers.get((b % peers.len().max(1) as u64) as usize)?;
                rows[*p].1[t.clone()].to_string()
            };
            let row = &mut rows[r].1;
            let before = row.clone();
            row.replace_range(range, &value);
            (*row != before).then(|| format!("set a field of {before:?} to {value}"))
        }
        5 => {
            let row = &mut rows[i].1;
            let mut cut = (b % row.len().max(1) as u64) as usize;
            while !row.is_char_boundary(cut) {
                cut -= 1;
            }
            let before = row.clone();
            row.truncate(cut);
            Some(format!("truncated {before:?} to {row:?}"))
        }
        _ => {
            // Flip one escape: `%xx` becomes the character it stands for,
            // a bare `%` goes.
            let escapes: Vec<(usize, usize)> = (picked.iter())
                .flat_map(|&r| rows[r].1.match_indices('%').map(move |(at, _)| (r, at)))
                .collect();
            let &(r, at) = escapes.get((a % escapes.len().max(1) as u64) as usize)?;
            let row = &mut rows[r].1;
            let before = row.clone();
            let (len, raw) = match row.get(at..at + 3) {
                Some("%0A") => (3, "\n"),
                Some("%7C") => (3, "|"),
                Some("%25") => (3, "%"),
                _ => (1, ""),
            };
            row.replace_range(at..at + len, raw);
            Some(format!("flipped an escape of {before:?}"))
        }
    }
}

/// A snapshot's `<tag>s|<n>` headers recounted after rows were dropped or
/// duplicated, so the damage reaches the rows rather than the framing.
fn recount(lines: &mut [String]) {
    for h in 0..lines.len() {
        let Some((header, _)) = lines[h].split_once('|') else {
            continue;
        };
        let Some(tag) = (header.strip_suffix('s'))
            .filter(|t| ["chunk", "stripe", "file", "client"].contains(t))
        else {
            continue;
        };
        let row = format!("{tag}|");
        let count = lines[h + 1..]
            .iter()
            .take_while(|l| l.starts_with(&row) || (tag == "client" && l.starts_with("password|")))
            .filter(|l| l.starts_with(&row))
            .count();
        lines[h] = format!("{header}|{count}");
    }
}

/// The op id and escaped delta of a `commit|<op>|<delta>` journal line.
fn commit_record(line: &str) -> Option<(&str, &str)> {
    line.strip_prefix("commit|")?.split_once('|')
}

/// Runs `f`, turning a panic into a failed case that names `what`.
fn no_panic<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, TestCaseError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|_| TestCaseError::fail(format!("{what} panicked")))
}

/// [`no_panic`] for a verb whose result — `Ok` or a typed error — is
/// not checked.
fn verb<T>(what: &str, f: impl FnOnce() -> T) -> Result<(), TestCaseError> {
    no_panic(what, f).map(drop)
}

/// The contract over a distributor built from damaged state: `reference`
/// is the undamaged export and `contents` each file's bytes in it.
fn exercise(
    d: &CloudDataDistributor,
    reference: &str,
    contents: &BTreeMap<(usize, &str), Vec<u8>>,
) -> Result<(), TestCaseError> {
    let state = no_panic("export_state", || persist::export_state(d))?;
    for (&(c, name), want) in contents {
        let (client, pw) = CLIENTS[c];
        let untouched = closure(reference, client, name);
        if untouched.is_none() || closure(&state, client, name) != untouched {
            continue;
        }
        let got = no_panic("get_file", || d.session(client, pw)?.get_file(name))?;
        match got {
            Ok(receipt) if receipt.data == *want => {}
            Ok(_) => {
                return Err(TestCaseError::fail(format!(
                    "{name:?} of {client:?} reads wrong bytes"
                )))
            }
            Err(e) => return Err(TestCaseError::fail(format!("{name:?} of {client:?}: {e}"))),
        }
    }
    for (client, pw) in CLIENTS {
        let Ok(s) = d.session(client, pw) else {
            continue;
        };
        for name in FILES {
            verb("get_file", || s.get_file(name))?;
            verb("get_file_parallel", || s.get_file_parallel(name))?;
            verb("get_chunk", || s.get_chunk(name, 1))?;
            verb("file_chunk_count", || s.file_chunk_count(name))?;
            verb("locality_gain", || d.locality_gain(client, name))?;
        }
        verb("client_chunks_per_provider", || {
            d.client_chunks_per_provider(client)
        })?;
        verb("client_bytes_per_provider", || {
            d.client_bytes_per_provider(client)
        })?;
    }
    verb("scrub_verify", || d.scrub_verify())?;
    verb("try_repair_verify", || d.try_repair_verify())?;
    verb("render_tables", || d.render_tables())?;
    verb("reputation_report", || d.reputation_report())?;
    for (client, pw) in CLIENTS {
        let Ok(s) = d.session(client, pw) else {
            continue;
        };
        for name in FILES {
            verb("update_chunk", || s.update_chunk(name, 0, &[7; 40]))?;
            verb("restore_snapshot", || s.restore_snapshot(name, 1))?;
            verb("restore_snapshot", || s.restore_snapshot(name, 0))?;
            verb("get_file", || s.get_file(name))?;
            for target in [0, FLEET - 1] {
                verb("migrate_chunk", || {
                    d.migrate_chunk(client, pw, name, 0, target)
                })?;
            }
            verb("remove_chunk", || s.remove_chunk(name, 1))?;
            verb("get_file", || s.get_file(name))?;
        }
        verb("rebalance_by_access", || {
            d.rebalance_by_access(client, pw, 0)
        })?;
        verb("scrub", || d.scrub())?;
        verb("try_repair", || d.try_repair())?;
        for name in FILES {
            verb("remove_file", || s.remove_file(name))?;
        }
        let put = || s.put_file("fresh", &body(500, 9), PrivacyLevel::Low, PutOptions::new());
        verb("put_file", put)?;
        verb("get_file", || s.get_file("fresh"))?;
    }
    Ok(())
}

/// The seeded run's reference state and every file's bytes in it.
fn reference(d: &CloudDataDistributor) -> (String, BTreeMap<(usize, &'static str), Vec<u8>>) {
    let mut contents = BTreeMap::new();
    for (c, (client, pw)) in CLIENTS.into_iter().enumerate() {
        let s = d.session(client, pw).unwrap();
        for name in FILES {
            if let Ok(receipt) = s.get_file(name) {
                contents.insert((c, name), receipt.data);
            }
        }
    }
    (persist::export_state(d), contents)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// A damaged snapshot imports typed or not at all, and what imports
    /// serves every verb without a panic.
    #[test]
    fn a_damaged_snapshot_never_panics_a_verb(
        kind in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (fleet, d, _) = seeded();
        let (text, contents) = reference(&d);
        drop(d);
        let row = |l: &str| ["chunk|", "stripe|", "file|", "client|", "password|"]
            .iter().any(|tag| l.starts_with(tag));
        let mut rows: Vec<(usize, String)> =
            text.lines().map(|l| (usize::from(row(l)), l.to_string())).collect();
        let Some(what) = mutate(&mut rows, false, kind, a, b) else {
            return Err(TestCaseError::reject("nothing to mutate"));
        };
        let mut lines: Vec<String> = rows.into_iter().map(|(_, l)| l).collect();
        recount(&mut lines);
        let damaged = lines.join("\n") + "\n";
        let imported = no_panic("import_state", || persist::import_state(&damaged, fleet, config()))
            .map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
        if let Ok(d) = imported {
            exercise(&d, &text, &contents).map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
        }
    }

    /// A journal whose commit records were damaged recovers typed or not
    /// at all, and what recovers serves every verb without a panic.
    #[test]
    fn a_damaged_journal_never_panics_a_verb(
        kind in 0u8..7,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let (fleet, d, journal) = seeded();
        let (text, contents) = reference(&d);
        drop(d);
        let exported = journal.export();
        let lines: Vec<&str> = exported.lines().collect();
        let mut rows: Vec<(usize, String)> = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            if let Some((_, delta)) = commit_record(line) {
                rows.extend(unesc(delta).lines().map(|row| (i, row.to_string())));
            }
        }
        let Some(what) = mutate(&mut rows, true, kind, a, b) else {
            return Err(TestCaseError::reject("nothing to mutate"));
        };
        let mut damaged = String::new();
        for (i, line) in lines.iter().enumerate() {
            match commit_record(line) {
                Some((op, _)) => {
                    let delta: String = (rows.iter().filter(|(c, _)| *c == i))
                        .map(|(_, row)| format!("{row}\n"))
                        .collect();
                    damaged += &format!("commit|{op}|{}\n", esc(&delta));
                }
                None => damaged += &format!("{line}\n"),
            }
        }
        let recovered = no_panic("recover", || {
            recover(Arc::new(Journal::parse(&damaged)?), fleet, config())
        })
        .map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
        if let Ok((d, _)) = recovered {
            exercise(&d, &text, &contents).map_err(|e| TestCaseError::fail(format!("{what}: {e}")))?;
        }
    }
}

/// A freed slot names nothing, so a live row that names one is damage:
/// a file's chunk or stripe list, or a live stripe's member list,
/// rewritten onto a slot `remove_file` freed fails the import typed.
#[test]
fn a_live_row_naming_a_freed_slot_fails_the_import() {
    const FREE_CHUNK: &str = "18446744073709551615|0|0|-|||0|0|-|d0|removed";
    const FREE_STRIPE: &str = "0|none|0||healthy";
    let (fleet, d, _) = seeded();
    let text = persist::export_state(&d);
    drop(d);
    let lines: Vec<&str> = text.lines().collect();
    // Per shard: its free chunk and stripe slots, and its live file and
    // stripe rows by line number.
    let mut shards: Vec<(Vec<usize>, Vec<usize>, Vec<usize>)> = Vec::new();
    let (mut chunk, mut stripe) = (0, 0);
    for (n, line) in lines.iter().enumerate() {
        if line.starts_with("shard|") {
            shards.push(Default::default());
            (chunk, stripe) = (0, 0);
        } else if let Some(row) = line.strip_prefix("chunk|") {
            if row == FREE_CHUNK {
                shards.last_mut().unwrap().0.push(chunk);
            }
            chunk += 1;
        } else if let Some(row) = line.strip_prefix("stripe|") {
            if row == FREE_STRIPE {
                shards.last_mut().unwrap().1.push(stripe);
            } else {
                shards.last_mut().unwrap().2.push(n);
            }
            stripe += 1;
        } else if line.starts_with("file|") {
            shards.last_mut().unwrap().2.push(n);
        }
    }
    // Field `field` of row line `n`: its first index set to `slot`.
    let damaged = |n: usize, field: usize, slot: usize| {
        let mut f: Vec<String> = lines[n].split('|').map(str::to_string).collect();
        let mut list: Vec<&str> = f[field].split(',').collect();
        let slot = slot.to_string();
        list[0] = &slot;
        f[field] = list.join(",");
        let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        out[n] = f.join("|");
        out.join("\n") + "\n"
    };
    let mut cases = 0;
    for (free_chunks, free_stripes, live) in &shards {
        for &n in live {
            // A file's chunk and stripe lists, a stripe's member list.
            let targets = if lines[n].starts_with("file|") {
                vec![(5, free_chunks.first()), (6, free_stripes.first())]
            } else {
                vec![(4, free_chunks.first())]
            };
            for (field, slot) in targets {
                let Some(&slot) = slot else { continue };
                let snapshot = damaged(n, field, slot);
                let imported = catch_unwind(AssertUnwindSafe(|| {
                    persist::import_state(&snapshot, fleet.clone(), config())
                }))
                .unwrap_or_else(|_| panic!("import panicked on {:?}", snapshot.lines().nth(n)));
                assert!(
                    matches!(imported, Err(fragcloud::CoreError::CorruptState { .. })),
                    "{:?} imported",
                    snapshot.lines().nth(n)
                );
                cases += 1;
            }
        }
    }
    assert!(cases >= 3, "the seeded run freed no slot beside a live row");
}
