//! Integration test: consistency of the prototype — the paper "tested the
//! consistency of the system" (§VIII). Concurrent clients, interleaved
//! uploads/retrievals/removals, update+snapshot semantics.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud::core::{CloudDataDistributor, CoreError, PrivacyLevel, PutOptions};
use fragcloud::sim::{CloudProvider, CostLevel, ObjectStore, ProviderProfile};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn distributor(n_providers: usize) -> CloudDataDistributor {
    let fleet: Vec<Arc<CloudProvider>> = (0..n_providers)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect();
    CloudDataDistributor::try_new(
        fleet,
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: 4,
            ..Default::default()
        },
    )
    .expect("valid config")
}

fn body(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| ((i * 31 + seed * 131) % 256) as u8)
        .collect()
}

/// The providers hold exactly the objects the tables name, and none ever
/// stored different bytes under a key it already held.
fn assert_write_once(d: &CloudDataDistributor, tag: &str) {
    let held: HashSet<_> = d
        .providers()
        .iter()
        .flat_map(|p| p.virtual_id_list())
        .collect();
    assert_eq!(held, d.referenced_vids(), "{tag}: orphans or lost objects");
    for p in d.providers() {
        let overwrites = p.stats().overwrites.load(Ordering::Relaxed);
        assert_eq!(overwrites, 0, "{tag}: {} overwrote a held key", p.name());
    }
}

#[test]
fn concurrent_clients_roundtrip() {
    let d = Arc::new(distributor(8));
    const CLIENTS: usize = 8;
    const FILES_PER_CLIENT: usize = 5;
    for c in 0..CLIENTS {
        d.register_client(&format!("client{c}")).unwrap();
        d.add_password(&format!("client{c}"), "pw", PrivacyLevel::High)
            .unwrap();
    }
    crossbeam::thread::scope(|scope| {
        for c in 0..CLIENTS {
            let d = Arc::clone(&d);
            scope.spawn(move |_| {
                let client = format!("client{c}");
                let session = d.session(&client, "pw").unwrap();
                for f in 0..FILES_PER_CLIENT {
                    let name = format!("file{f}");
                    let data = body(c * 100 + f, 10_000 + f * 777);
                    session
                        .put_file(&name, &data, PrivacyLevel::Low, PutOptions::new())
                        .unwrap();
                    let got = session.get_file(&name).unwrap();
                    assert_eq!(got.data, data, "{client}/{name}");
                }
            });
        }
    })
    .unwrap();
    // After the storm: every file still reads back for every client.
    for c in 0..CLIENTS {
        let session = d.session(&format!("client{c}"), "pw").unwrap();
        for f in 0..FILES_PER_CLIENT {
            let name = format!("file{f}");
            let data = body(c * 100 + f, 10_000 + f * 777);
            assert_eq!(session.get_file(&name).unwrap().data, data);
        }
    }
    assert_write_once(&d, "after the storm");
}

#[test]
fn concurrent_readers_of_one_file() {
    let d = Arc::new(distributor(6));
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let data = body(7, 200_000);
    d.session("c", "pw")
        .unwrap()
        .put_file("shared", &data, PrivacyLevel::Moderate, PutOptions::new())
        .unwrap();
    crossbeam::thread::scope(|scope| {
        for _ in 0..16 {
            let d = Arc::clone(&d);
            let data = data.clone();
            scope.spawn(move |_| {
                let session = d.session("c", "pw").unwrap();
                for _ in 0..5 {
                    assert_eq!(session.get_file("shared").unwrap().data, data);
                }
            });
        }
    })
    .unwrap();
    assert_write_once(&d, "after the readers");
}

#[test]
fn update_then_read_sees_new_data_and_snapshot_restores() {
    let d = distributor(6);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(1, 4096); // 4 chunks of 1 KiB
    session
        .put_file("doc", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    let new_chunk = vec![0xAB; 1024];
    session.update_chunk("doc", 2, &new_chunk).unwrap();
    let got = session.get_file("doc").unwrap().data;
    assert_eq!(&got[..2048], &data[..2048]);
    assert_eq!(&got[2048..3072], new_chunk.as_slice());
    assert_eq!(&got[3072..], &data[3072..]);

    session.restore_snapshot("doc", 2).unwrap();
    assert_eq!(session.get_file("doc").unwrap().data, data);
    assert_write_once(&d, "update, restore");
}

/// Snapshots must not leak: a second update supersedes the first snapshot
/// object and a restore consumes the current one, so after every step the
/// providers hold exactly the objects the tables reference.
#[test]
fn snapshot_objects_are_never_orphaned() {
    let d = distributor(6);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(7, 4096);
    let no_orphans = |step: &str| assert_write_once(&d, &format!("after {step}"));
    session
        .put_file("doc", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    no_orphans("put");
    session.update_chunk("doc", 1, &[0xA1; 1024]).unwrap();
    no_orphans("first update");
    session.update_chunk("doc", 1, &[0xA2; 1024]).unwrap();
    no_orphans("second update");
    session.restore_snapshot("doc", 1).unwrap();
    no_orphans("restore");
    session.update_chunk("doc", 1, &[0xA3; 1024]).unwrap();
    no_orphans("update after restore");
    let got = session.get_file("doc").unwrap().data;
    assert_eq!(&got[1024..2048], &[0xA3; 1024]);
}

/// A removed chunk stays removed: no verb may re-upload bytes under its
/// vid or fold them into the stripe's parity while the row is a
/// tombstone (reads treat tombstones as zero shards — a resurrected
/// object would make every degraded read of a peer return wrong bytes).
#[test]
fn removed_chunk_cannot_be_resurrected_into_its_stripe() {
    let d = distributor(6);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    let data = body(9, 4096); // one RAID-5 stripe: 4 x 1 KiB chunks + P
    let no_orphans = |step: &str| assert_write_once(&d, &format!("after {step}"));
    let unknown = |res: fragcloud::core::Result<()>, step: &str| {
        assert!(
            matches!(res, Err(CoreError::UnknownChunk { serial: 1, .. })),
            "{step}: {res:?}"
        );
    };
    session
        .put_file("doc", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    no_orphans("put");
    session.update_chunk("doc", 1, &[0xB1; 1024]).unwrap();
    no_orphans("update");
    session.remove_chunk("doc", 1).unwrap();
    no_orphans("remove");
    // Whatever the verbs below answer, the invariants come first: no
    // provider holds an object the tables do not name…
    let restored = session.restore_snapshot("doc", 1);
    no_orphans("restore of a removed chunk");
    let updated = session.update_chunk("doc", 1, &[0xB2; 1024]);
    no_orphans("update of a removed chunk");
    // …and whichever provider is down, every surviving chunk still reads
    // byte-identical (through parity where it must).
    for p in d.providers() {
        p.set_online(false);
        for serial in [0usize, 2, 3] {
            assert_eq!(
                session.get_chunk("doc", serial as u32).unwrap(),
                &data[serial * 1024..(serial + 1) * 1024],
                "chunk {serial} with {} offline",
                p.name()
            );
        }
        p.set_online(true);
    }
    unknown(restored, "restore of a removed chunk");
    unknown(updated, "update of a removed chunk");
    unknown(session.remove_chunk("doc", 1), "second remove");
    unknown(
        session.get_chunk("doc", 1).map(drop),
        "read of a removed chunk",
    );
}

#[test]
fn interleaved_put_remove_cycles_leave_no_residue() {
    let d = distributor(6);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let session = d.session("c", "pw").unwrap();
    for round in 0..10 {
        let data = body(round, 5000);
        session
            .put_file("cycle", &data, PrivacyLevel::Low, PutOptions::new())
            .unwrap();
        assert_eq!(session.get_file("cycle").unwrap().data, data);
        session.remove_file("cycle").unwrap();
    }
    let residue: usize = d.providers().iter().map(|p| p.chunk_count()).sum();
    assert_eq!(residue, 0);
    assert_write_once(&d, "after the cycles");
}

#[test]
fn bytes_conserved_across_providers() {
    let d = distributor(8);
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let data = body(3, 64 << 10);
    let receipt = d
        .session("c", "pw")
        .unwrap()
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    // Providers see the integrity frame on every object; the receipt
    // counts payload bytes only.
    let objects: u64 = d.providers().iter().map(|p| p.chunk_count() as u64).sum();
    let overhead = objects * fragcloud::core::integrity::FRAME_OVERHEAD as u64;
    let stored: u64 = d.providers().iter().map(|p| p.bytes_stored()).sum();
    assert_eq!(stored, receipt.bytes_stored as u64 + overhead);
    // Data bytes (excluding parity) equal the file size: client accounting.
    let client_bytes: u64 = d.client_bytes_per_provider("c").unwrap().iter().sum();
    assert_eq!(client_bytes, data.len() as u64);
    assert_write_once(&d, "after the put");
}

/// What the three invariants of a chunk-level verb look like from outside,
/// with every provider back online. `expect` lists the file's chunks by
/// serial (`None`: removed). The file reads back straight off its
/// primaries, the providers hold exactly the objects the tables name, and
/// parity agrees with data (each provider offline in turn).
fn assert_untorn(d: &CloudDataDistributor, expect: &[Option<Vec<u8>>], tag: &str) {
    assert_untorn_but(d, expect, tag, None);
}

/// [`assert_untorn`], except that provider `died` went down *during* a
/// verb that succeeded: the post-commit delete of a doomed object is
/// best-effort, so that provider (and only it) may still hold objects the
/// tables no longer name — with a journal attached they are on the op's
/// doom list and recovery collects them.
fn assert_untorn_but(
    d: &CloudDataDistributor,
    expect: &[Option<Vec<u8>>],
    tag: &str,
    died: Option<usize>,
) {
    let session = d.session("c", "pw").unwrap();
    if expect.iter().all(Option::is_some) {
        let got = session.get_file("doc").unwrap();
        let whole: Vec<u8> = expect.iter().flatten().flatten().copied().collect();
        assert_eq!(got.data, whole, "{tag}: bytes");
        assert_eq!(got.reconstructed_chunks, 0, "{tag}: served by parity");
        assert_eq!(got.degraded_chunks, 0, "{tag}: served by a replica");
    }
    match died {
        None => assert_write_once(d, tag),
        Some(died) => {
            let held: HashSet<_> = d
                .providers()
                .iter()
                .flat_map(|p| p.virtual_id_list())
                .collect();
            let referenced = d.referenced_vids();
            assert!(referenced.is_subset(&held), "{tag}: lost objects");
            for vid in held.difference(&referenced) {
                assert!(d.providers()[died].contains(*vid), "{tag}: orphan {vid}");
            }
            for p in d.providers() {
                assert_eq!(p.stats().overwrites.load(Ordering::Relaxed), 0, "{tag}");
            }
        }
    }
    let check_chunks = |tag: &str| {
        for (serial, chunk) in expect.iter().enumerate() {
            let got = session.get_chunk("doc", serial as u32);
            match chunk {
                Some(bytes) => assert_eq!(&got.unwrap(), bytes, "{tag}: chunk {serial}"),
                None => assert!(
                    matches!(got, Err(CoreError::UnknownChunk { .. })),
                    "{tag}: removed chunk {serial} reads {got:?}"
                ),
            }
        }
    };
    check_chunks(tag);
    for p in d.providers() {
        p.set_online(false);
        check_chunks(&format!("{tag}: parity vs data, {} offline", p.name()));
        p.set_online(true);
    }
}

fn chunks_of(data: &[u8]) -> Vec<Option<Vec<u8>>> {
    data.chunks(1024).map(|c| Some(c.to_vec())).collect()
}

fn replicated_doc(d: &CloudDataDistributor) -> Vec<Option<Vec<u8>>> {
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    let data = body(11, 4096); // one RAID-5 stripe: 4 x 1 KiB chunks + P
    d.session("c", "pw")
        .unwrap()
        .put_file(
            "doc",
            &data,
            PrivacyLevel::Low,
            PutOptions::new().replicas(1),
        )
        .unwrap();
    chunks_of(&data)
}

/// An `update_chunk` that reports failure changed nothing: every provider
/// the mutation writes (primary, replica, snapshot target, parity) is
/// checked before the first store, so with any one of them offline the
/// chunk, its replica and its parity keep the pre-update bytes and no
/// snapshot object is left behind.
#[test]
fn failed_update_leaves_the_chunk_untouched() {
    let patch = vec![0xC3u8; 1024];
    let (mut failed, mut succeeded) = (0, 0);
    for victim in 0..8 {
        let d = distributor(8);
        let data = replicated_doc(&d);
        let mut updated = data.clone();
        updated[1] = Some(patch.clone());

        d.providers()[victim].set_online(false);
        let res = d.session("c", "pw").unwrap().update_chunk("doc", 1, &patch);
        d.providers()[victim].set_online(true);
        let expect = match res {
            Ok(()) => {
                succeeded += 1;
                &updated
            }
            Err(CoreError::Store(_)) => {
                failed += 1;
                &data
            }
            Err(e) => panic!("cp{victim} offline: unexpected {e}"),
        };
        assert_untorn(&d, expect, &format!("cp{victim} offline"));
    }
    // Primary, replica, snapshot target, parity and the three peers read
    // for the parity plan are seven distinct providers of the eight.
    assert!(failed >= 4, "only {failed} outages failed the update");
    assert!(succeeded >= 1, "no outage left the update alone");
}

/// A provider that dies *between* the pre-check and its store (a scripted
/// mid-stream death) still cannot tear the chunk: the verb stores only
/// under fresh vids and switches no row until every store has landed, so
/// the rollback — the bracket's, with no journal attached — collects its
/// fresh objects and the chunk keeps its pre-op objects. Same for
/// `restore_snapshot` and `remove_chunk`.
#[test]
fn mid_flight_provider_death_is_undone() {
    let patch = vec![0x5Au8; 1000]; // a shorter chunk: the stripe width moves too
    for verb in ["update", "restore", "remove_chunk"] {
        let mut undone = 0;
        for victim in 0..8 {
            for ops_before_death in 0..6 {
                let d = distributor(8);
                let data = replicated_doc(&d);
                let session = d.session("c", "pw").unwrap();
                let mut patched = data.clone();
                patched[1] = Some(patch.clone());
                // restore / remove_chunk act on an already-updated chunk.
                let (before, after) = match verb {
                    "update" => (data, patched),
                    _ => {
                        session.update_chunk("doc", 1, &patch).unwrap();
                        let mut after = if verb == "restore" {
                            data
                        } else {
                            patched.clone()
                        };
                        if verb == "remove_chunk" {
                            after[1] = None;
                        }
                        (patched, after)
                    }
                };

                d.providers()[victim].fail_after_ops(ops_before_death);
                let res = match verb {
                    "update" => session.update_chunk("doc", 1, &patch),
                    "restore" => session.restore_snapshot("doc", 1),
                    _ => session.remove_chunk("doc", 1),
                };
                let died = (!d.providers()[victim].is_online()).then_some(victim);
                d.providers()[victim].set_online(true);
                let tag = format!("{verb}: cp{victim} dies after {ops_before_death} ops");
                match res {
                    Ok(()) => assert_untorn_but(&d, &after, &tag, died),
                    Err(CoreError::Store(_)) => {
                        undone += 1;
                        // The rollback left no fresh object behind.
                        assert_write_once(&d, &format!("{tag}: rolled back"));
                        assert_untorn(&d, &before, &tag);
                    }
                    Err(e) => panic!("{tag}: unexpected {e}"),
                }
            }
        }
        assert!(undone >= 4, "{verb}: only {undone} deaths hit the verb");
    }
}
