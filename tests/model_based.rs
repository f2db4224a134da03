//! Model-based stateful testing: random operation sequences against the
//! distributor, checked after every step against a trivial in-memory
//! reference model (`HashMap<filename, bytes>`). Whatever RAID, placement,
//! misleading-byte or snapshot machinery does internally, the client-visible
//! semantics must match the model exactly. The distributor runs with a
//! write-ahead journal attached, and the run ends with a crash: the
//! exported journal, recovered over the same fleet, must serve the model
//! too (every acknowledged mutation — updates included — is durable).

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud::core::{
    persist, recover, CloudDataDistributor, CoreError, Journal, PrivacyLevel, PutOptions,
};
use fragcloud::raid::RaidLevel;
use fragcloud::sim::{CloudProvider, CostLevel, ObjectStore, ProviderProfile};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// The operations the fuzzer may issue.
#[derive(Debug, Clone)]
enum Op {
    Put { file: u8, size: usize, pl: u8 },
    Get { file: u8 },
    GetParallel { file: u8 },
    UpdateChunk { file: u8, serial: u8, size: usize },
    RemoveFile { file: u8 },
    OutageToggle { provider: u8 },
    Rebalance,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..4, 1usize..3000, 0u8..4).prop_map(|(file, size, pl)| Op::Put { file, size, pl }),
        3 => (0u8..4).prop_map(|file| Op::Get { file }),
        1 => (0u8..4).prop_map(|file| Op::GetParallel { file }),
        1 => (0u8..4, 0u8..4, 1usize..600).prop_map(|(file, serial, size)| Op::UpdateChunk { file, serial, size }),
        1 => (0u8..4).prop_map(|file| Op::RemoveFile { file }),
        1 => (0u8..8).prop_map(|provider| Op::OutageToggle { provider }),
        1 => Just(Op::Rebalance),
    ]
}

fn fleet() -> Vec<Arc<CloudProvider>> {
    (0..8)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}

/// The `chunk|` and `stripe|` lines of a snapshot that are not a free
/// slot and belong to no stripe a `file|` line of their shard lists.
fn rows_outliving_their_file(text: &str) -> Vec<String> {
    const FREE: [&str; 2] = [
        "chunk|18446744073709551615|0|0|-|||0|0|-|d0|removed",
        "stripe|0|none|0||healthy",
    ];
    let mut outliving = Vec::new();
    for shard in text.split("\nshard|").skip(1) {
        let lines = || shard.lines().skip(1);
        let stripes: Vec<&str> = lines().filter(|l| l.starts_with("stripe|")).collect();
        let mut owned_stripes = HashSet::new();
        for file in lines().filter_map(|l| l.strip_prefix("file|")) {
            let ids = file.rsplit('|').next().unwrap_or("");
            owned_stripes.extend(ids.split(',').filter_map(|s| s.parse::<usize>().ok()));
        }
        let mut owned_chunks = HashSet::new();
        for &j in &owned_stripes {
            let members = stripes
                .get(j)
                .and_then(|s| s.split('|').nth(4))
                .unwrap_or("");
            owned_chunks.extend(members.split(',').filter_map(|m| m.parse::<usize>().ok()));
        }
        let arena = |tag: &'static str| lines().filter(move |l| l.starts_with(tag)).enumerate();
        for (tag, owned) in [("chunk|", &owned_chunks), ("stripe|", &owned_stripes)] {
            let dead = arena(tag).filter(|(i, l)| !owned.contains(i) && !FREE.contains(l));
            outliving.extend(dead.map(|(_, l)| l.to_string()));
        }
    }
    outliving
}

fn payload(tag: u64, size: usize) -> Vec<u8> {
    (0..size)
        .map(|i| ((i as u64).wrapping_mul(31).wrapping_add(tag * 131) % 251) as u8)
        .collect()
}

/// Proptest case count: 32 under tier-1; CI's wider sweep sets
/// `PROPTEST_CASES` (an explicit `with_cases` would otherwise win over it).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn distributor_matches_reference_model(
        ops in proptest::collection::vec(arb_op(), 1..60),
    ) {
        let providers = fleet();
        let config = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule { sizes: [512, 256, 128, 64] },
            stripe_width: 3,
            raid_level: RaidLevel::Raid5,
            mislead_rate: 0.03,
            ..Default::default()
        };
        let d = CloudDataDistributor::try_new(providers.clone(), config).expect("valid config");
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High).expect("client");
        let journal = Arc::new(Journal::new());
        d.attach_journal(Arc::clone(&journal));
        let session = d.session("c", "pw").expect("valid pair");

        // The reference model: filename -> logical chunk list. Chunks are
        // the unit of update, and an update may change a chunk's length, so
        // the model tracks boundaries rather than a flat byte string.
        let mut model: HashMap<u8, Vec<Vec<u8>>> = HashMap::new();
        let flat = |chunks: &[Vec<u8>]| -> Vec<u8> { chunks.concat() };
        let mut offline = [false; 8];
        let mut tag = 0u64;

        for op in ops {
            tag += 1;
            match op {
                Op::Put { file, size, pl } => {
                    let pl = PrivacyLevel::from_u8(pl).expect("0..4");
                    // Need enough online providers for a 3+1 stripe.
                    let online = offline.iter().filter(|&&o| !o).count();
                    let data = payload(tag, size);
                    let res = session.put_file(&format!("f{file}"), &data, pl, PutOptions::new());
                    match res {
                        Ok(_) => {
                            prop_assert!(
                                !model.contains_key(&file),
                                "put must fail on existing file"
                            );
                            let chunk_size = [512usize, 256, 128, 64][pl.as_u8() as usize];
                            let chunks: Vec<Vec<u8>> = if data.is_empty() {
                                vec![Vec::new()]
                            } else {
                                data.chunks(chunk_size).map(|c| c.to_vec()).collect()
                            };
                            model.insert(file, chunks);
                        }
                        Err(CoreError::FileExists(_)) => {
                            prop_assert!(model.contains_key(&file));
                        }
                        Err(CoreError::InsufficientProviders { .. })
                        | Err(CoreError::NoEligibleProvider { .. }) => {
                            prop_assert!(online < 4, "placement failed with {online} online");
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("put: {e}"))),
                    }
                }
                Op::Get { file } | Op::GetParallel { file } => {
                    let parallel = matches!(op, Op::GetParallel { .. });
                    let res = if parallel {
                        session.get_file_parallel(&format!("f{file}"))
                    } else {
                        session.get_file(&format!("f{file}"))
                    };
                    match (&res, model.get(&file)) {
                        (Ok(r), Some(chunks)) => {
                            prop_assert_eq!(&r.data, &flat(chunks), "read mismatch for f{}", file);
                        }
                        (Err(CoreError::UnknownFile { .. }), None) => {}
                        (Err(e), Some(_)) => {
                            // Reads may legitimately fail when >1 stripe
                            // provider is down (RAID-5 tolerance exceeded).
                            let down = offline.iter().filter(|&&o| o).count();
                            prop_assert!(
                                down >= 2,
                                "read failed ({e}) with only {down} providers down"
                            );
                        }
                        (Ok(_), None) => {
                            return Err(TestCaseError::fail("read of removed file succeeded"));
                        }
                        (Err(e), None) => {
                            return Err(TestCaseError::fail(format!("wrong error {e}")));
                        }
                    }
                }
                Op::UpdateChunk { file, serial, size } => {
                    let new_data = payload(tag ^ 0xAB, size);
                    let res = session.update_chunk(&format!("f{file}"), serial as u32, &new_data);
                    match res {
                        Ok(()) => {
                            let chunks = model.get_mut(&file).expect("update of known file");
                            prop_assert!((serial as usize) < chunks.len());
                            chunks[serial as usize] = new_data;
                        }
                        Err(CoreError::UnknownFile { .. }) => {
                            prop_assert!(!model.contains_key(&file));
                        }
                        Err(CoreError::UnknownChunk { .. }) => {
                            if let Some(chunks) = model.get(&file) {
                                prop_assert!(serial as usize >= chunks.len());
                            }
                        }
                        Err(CoreError::Store(_)) | Err(CoreError::Raid(_)) => {
                            // A needed provider is down; update_chunk plans
                            // parity before mutating, so NOTHING changed —
                            // the model stays as-is and later reads must
                            // still see the old contents.
                            let down = offline.iter().filter(|&&o| o).count();
                            prop_assert!(down >= 1, "update failed with everything online");
                        }
                        Err(e) => return Err(TestCaseError::fail(format!("update: {e}"))),
                    }
                }
                Op::RemoveFile { file } => {
                    let res = session.remove_file(&format!("f{file}"));
                    match res {
                        Ok(()) => {
                            prop_assert!(model.remove(&file).is_some());
                        }
                        Err(CoreError::UnknownFile { .. }) => {
                            prop_assert!(!model.contains_key(&file));
                        }
                        // A holder being down fails nothing: its deletes
                        // wait in the reclaimer's queue.
                        Err(e) => return Err(TestCaseError::fail(format!("remove: {e}"))),
                    }
                }
                Op::OutageToggle { provider } => {
                    let i = provider as usize % providers.len();
                    offline[i] = !offline[i];
                    providers[i].set_online(!offline[i]);
                }
                Op::Rebalance => {
                    // Rebalancing must never change client-visible bytes.
                    let _ = d.rebalance_by_access("c", "pw", 0);
                }
            }
        }

        // Final audit with all providers online: every surviving file reads
        // back exactly as the model says, via both read paths.
        for (i, p) in providers.iter().enumerate() {
            p.set_online(true);
            offline[i] = false;
        }
        for (file, chunks) in &model {
            let expected = flat(chunks);
            let got = session.get_file(&format!("f{file}")).expect("final read");
            prop_assert_eq!(&got.data, &expected, "final state mismatch for f{}", file);
            let got = session
                .get_file_parallel(&format!("f{file}"))
                .expect("final parallel read");
            prop_assert_eq!(&got.data, &expected);
        }
        // Live, with no recovery: once one more op has closed — its drain
        // retries every delete an outage refused — the fleet holds exactly
        // the objects the rows name.
        let audit = payload(tag + 1, 100);
        session.put_file("audit", &audit, PrivacyLevel::Low, PutOptions::new()).expect("audit put");
        let keys: HashSet<_> = providers.iter().flat_map(|p| p.keys()).collect();
        prop_assert_eq!(keys, d.referenced_vids(), "live key set");

        // Crash: all that survives is the exported journal and the fleet.
        // No op was in flight, so the recovered distributor serves exactly
        // the model, and its sweep leaves no provider key unreferenced —
        // a post-commit delete an outage made fail included.
        let text = journal.export();
        drop(session);
        drop(d);
        let parsed = Arc::new(Journal::parse(&text).expect("exported journal parses"));
        let (recovered, report) = recover(parsed, providers.clone(), config).expect("recovers");
        prop_assert_eq!(report.unrecoverable, 0);
        let referenced = recovered.referenced_vids();
        let orphans = providers.iter().flat_map(|p| p.keys()).filter(|v| !referenced.contains(v));
        prop_assert_eq!(orphans.count(), 0);
        let session = recovered.session("c", "pw").expect("valid pair");
        for (file, chunks) in &model {
            let got = session.get_file(&format!("f{file}")).expect("recovered read");
            prop_assert_eq!(&got.data, &flat(chunks), "recovered state mismatch for f{}", file);
        }
        for file in (0u8..4).filter(|f| !model.contains_key(f)) {
            prop_assert!(session.get_file(&format!("f{file}")).is_err());
        }
        // No row outlives its file: a removed file's rows are free slots.
        let orphan_rows = rows_outliving_their_file(&persist::export_state(&recovered));
        prop_assert!(orphan_rows.is_empty(), "rows of no file: {:?}", orphan_rows);
        // Write-once objects: no provider ever stored different bytes under
        // a key it already held.
        for p in &providers {
            prop_assert_eq!(p.stats().overwrites.load(Ordering::Relaxed), 0, "{}", p.name());
        }
    }
}
