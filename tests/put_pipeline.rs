//! The one put pipeline and the one get path, pinned from the outside.
//!
//! `put_file` and `put_stream` are two entry points over a single windowed
//! pipeline; what lands on the providers must not depend on which one was
//! called, on how many transfer workers encode, or on how the window
//! happened to refill. The golden digests below were computed at the last
//! commit that still had four put paths, so they also prove the collapse
//! changed no stored byte.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig, DurabilityConfig};
use fragcloud::core::persist::export_state;
use fragcloud::core::{
    CloudDataDistributor, CoreError, GetReceipt, Journal, PrivacyLevel, PutOptions, PutReceipt,
    VirtualId, PUT_WINDOW_BYTES,
};
use fragcloud::raid::RaidLevel;
use fragcloud::sim::failure::OutageScript;
use fragcloud::sim::{
    CloudProvider, CostLevel, FaultMode, FaultPlan, ObjectStore, ProviderProfile,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::io::Read;
use std::sync::atomic::Ordering;
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const CHUNK: usize = 1 << 10;

fn fleet(n: usize) -> Vec<Arc<CloudProvider>> {
    (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}

fn config(mislead_rate: f64) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(CHUNK),
        stripe_width: 4,
        raid_level: RaidLevel::Raid5,
        mislead_rate,
        ..Default::default()
    }
}

fn distributor(n_providers: usize, config: DistributorConfig) -> CloudDataDistributor {
    let d = CloudDataDistributor::try_new(fleet(n_providers), config).expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High)
        .expect("client");
    d
}

fn body(seed: usize, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (i * 31 + i / 253 + seed * 131) as u8)
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Entry {
    File,
    Stream,
}

fn put(
    d: &CloudDataDistributor,
    entry: Entry,
    name: &str,
    data: &[u8],
    opts: PutOptions,
) -> PutReceipt {
    let session = d.session("c", "pw").expect("valid pair");
    match entry {
        Entry::File => session.put_file(name, data, PrivacyLevel::High, opts),
        Entry::Stream => {
            session.put_stream(name, &mut &data[..], data.len(), PrivacyLevel::High, opts)
        }
    }
    .expect("upload")
}

/// Per provider, its sorted ⟨vid, bytes⟩ objects.
type ProviderState = Vec<Vec<(u64, Vec<u8>)>>;

/// Every ⟨vid, bytes⟩ each provider ever observed, sorted per provider —
/// the attacker-visible ground truth two puts must agree on.
fn provider_state(d: &CloudDataDistributor) -> ProviderState {
    d.providers()
        .iter()
        .map(|p| {
            let mut objs: Vec<(u64, Vec<u8>)> = p
                .observer()
                .snapshot()
                .into_iter()
                .map(|o| (o.key.0, o.data.to_vec()))
                .collect();
            objs.sort();
            objs
        })
        .collect()
}

/// FNV-1a over the provider state, self-contained so the golden values
/// cannot drift with any library checksum.
fn digest(state: &ProviderState) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for (i, objs) in state.iter().enumerate() {
        eat(&(i as u64).to_le_bytes());
        eat(&(objs.len() as u64).to_le_bytes());
        for (vid, bytes) in objs {
            eat(&vid.to_le_bytes());
            eat(&(bytes.len() as u64).to_le_bytes());
            eat(bytes);
        }
    }
    h
}

/// The files of one golden scenario: many stripes ending mid-chunk (longer
/// than one pipeline window, so the window refills), exactly one chunk,
/// and the empty file.
fn golden_files() -> Vec<(&'static str, Vec<u8>)> {
    vec![
        ("windowed", body(1, (1 << 20) + 300 * CHUNK + 5)),
        ("mid-chunk", body(2, 37 * CHUNK + 211)),
        ("one-chunk", body(3, CHUNK)),
        ("empty", Vec::new()),
    ]
}

fn golden_state(opts: PutOptions, mislead_rate: f64, entry: Entry) -> ProviderState {
    let d = distributor(14, config(mislead_rate));
    for (name, data) in golden_files() {
        put(&d, entry, name, &data, opts);
        let got = d.session("c", "pw").expect("valid pair").get_file(name);
        assert_eq!(got.expect("read").data, data, "{name} reads back");
    }
    provider_state(&d)
}

#[test]
fn provider_state_matches_golden_digests_from_the_four_path_tree() {
    // Computed at commit 45f3d2e, where serial/pipelined × buffered/streaming
    // all agreed. Geometry-major, then mislead {0, 0.08}, then replicas {0, 1}.
    const GOLDEN: [u64; 12] = [
        0x029a_84b1_0dfb_b108,
        0x140d_04bb_d9ca_740d,
        0xc30f_bcdf_084d_1a20,
        0x49de_4d7a_f7f2_dc9f,
        0x6946_5881_54f3_3ed2,
        0x09d0_0eb5_6606_318b,
        0x1747_2454_7c94_7f49,
        0x1139_85a5_bdb4_cec9,
        0xbb31_d876_0de7_df69,
        0x9fd0_f150_8928_fa91,
        0xe3e1_f5a9_9b13_c6be,
        0xbdcd_b4a8_e47b_ce9b,
    ];
    let geometries = [
        ("raid5", PutOptions::new().geometry(4, 1)),
        ("raid6", PutOptions::new().geometry(4, 2)),
        ("rs(8,3)", PutOptions::new().geometry(8, 3)),
    ];
    let mut want = GOLDEN.iter();
    let mut mismatches = Vec::new();
    for (geometry, opts) in geometries {
        for rate in [0.0, 0.08] {
            for replicas in [0, 1] {
                let want = *want.next().expect("one digest per scenario");
                for entry in [Entry::File, Entry::Stream] {
                    let got = digest(&golden_state(opts.replicas(replicas), rate, entry));
                    if got != want {
                        mismatches.push(format!(
                            "{geometry} mislead={rate} replicas={replicas} {entry:?}: \
                             got {got:#018x}, want {want:#018x}"
                        ));
                    }
                }
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

/// What one put leaves behind, as seen from outside: provider objects, the
/// receipt (minus `peak_buffer_bytes`, which reports the entry point's
/// memory shape on purpose) and the journal's durable records. The file
/// must read back first; 20 providers hold a whole RS(16,4) stripe.
fn put_outcome(
    config: DistributorConfig,
    entry: Entry,
    data: &[u8],
    opts: PutOptions,
) -> (ProviderState, PutReceipt, String) {
    let d = distributor(20, config);
    let journal = Arc::new(Journal::new());
    d.attach_journal(Arc::clone(&journal));
    let mut receipt = put(&d, entry, "f", data, opts);
    receipt.peak_buffer_bytes = 0;
    let got = d.session("c", "pw").expect("valid pair").get_file("f");
    assert_eq!(got.expect("read").data, data, "{opts:?} {entry:?}");
    (provider_state(&d), receipt, journal.export())
}

/// The outcome of a put must not depend on the pool width or on which
/// entry point fed the pipeline.
fn assert_outcome_independent_of_workers_and_entry(
    config: DistributorConfig,
    data: &[u8],
    opts: PutOptions,
) {
    let with_workers = |w| DistributorConfig {
        durability: config.durability.with_transfer_workers(w),
        ..config
    };
    let reference = put_outcome(with_workers(1), Entry::File, data, opts);
    for workers in [1, 2, 4, 8] {
        for entry in [Entry::File, Entry::Stream] {
            let got = put_outcome(with_workers(workers), entry, data, opts);
            assert!(
                got == reference,
                "outcome differs at transfer_workers={workers}, {entry:?}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn outcome_is_independent_of_workers_and_entry_point(
        len in 0usize..6000,
        seed in 0usize..1000,
        geometry in prop_oneof![
            Just((4usize, 1usize)),
            Just((3, 2)),
            Just((8, 3)),
            Just((12, 4)),
            Just((16, 4)),
        ],
        rate in prop_oneof![Just(0.0), Just(0.08)],
        replicas in 0usize..2,
    ) {
        let config = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(64),
            ..config(rate)
        };
        let opts = PutOptions::new().geometry(geometry.0, geometry.1).replicas(replicas);
        assert_outcome_independent_of_workers_and_entry(config, &body(seed, len), opts);
    }
}

/// With stripes of `PUT_WINDOW_BYTES` the window is `transfer_workers`
/// stripes wide, so every width refills differently — the outcome still
/// must not move.
#[test]
fn outcome_is_independent_of_the_window_refill_pattern() {
    let config = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(PUT_WINDOW_BYTES / 4),
        ..config(0.0)
    };
    let data = body(9, 6 * PUT_WINDOW_BYTES + PUT_WINDOW_BYTES / 3);
    assert_outcome_independent_of_workers_and_entry(config, &data, PutOptions::new());
}

#[test]
fn put_stream_holds_at_most_two_windows() {
    // ⟨chunk size, file length⟩: stripes of a quarter window (the window is
    // `transfer_workers` = 4 stripes) and tiny 4 KiB stripes (the window
    // is the byte floor).
    for (chunk, len) in [(PUT_WINDOW_BYTES / 16, 8 << 20), (CHUNK, 3 << 20)] {
        let config = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(chunk),
            ..config(0.0)
        };
        let window = PUT_WINDOW_BYTES.max(config.durability.transfer_workers * 4 * chunk);
        let d = distributor(6, config);
        let tel = d.enable_telemetry();
        let reg = tel.registry().expect("enabled");
        let data = body(4, len);
        let receipt = put(&d, Entry::Stream, "big", &data, PutOptions::new());
        assert!(
            receipt.peak_buffer_bytes <= 2 * window,
            "peak {} exceeds two windows of {window}",
            receipt.peak_buffer_bytes
        );
        assert!(receipt.peak_buffer_bytes < len);
        // The registry carries the receipt's peak for the streaming put.
        let peak = reg.histogram("put_stream_peak_buffer_bytes", "");
        assert_eq!(
            (peak.count(), peak.sum()),
            (1, receipt.peak_buffer_bytes as u64)
        );
        // The buffered entry point reads the caller's buffer through the
        // same window, and counts as no streaming put.
        let receipt = put(&d, Entry::File, "copy", &data, PutOptions::new());
        assert!(
            receipt.peak_buffer_bytes <= 2 * window,
            "put_file peak {} exceeds two windows of {window}",
            receipt.peak_buffer_bytes
        );
        assert_eq!(reg.counter_total("puts_streaming"), 1);
        assert_eq!(peak.count(), 1);
    }
}

#[test]
fn put_stream_rejects_a_wrong_length_and_leaves_nothing_behind() {
    let d = distributor(6, config(0.08));
    d.attach_journal(Arc::new(Journal::new()));
    let session = d.session("c", "pw").expect("valid pair");
    let data = body(5, 12 * CHUNK);
    // Short source, long source, and a long source whose extra chunks
    // overfill the last declared stripe (10 declared chunks, k = 4).
    for declared in [13 * CHUNK, 11 * CHUNK + 7, 10 * CHUNK] {
        let err = session
            .put_stream(
                "f",
                &mut &data[..],
                declared,
                PrivacyLevel::High,
                PutOptions::new(),
            )
            .expect_err("length mismatch");
        assert!(
            matches!(err, CoreError::StreamLengthMismatch { declared: n, .. } if n == declared as u64),
            "{err:?}"
        );
        assert!(session.get_file("f").is_err(), "no file after {declared}");
        let held: HashSet<_> = d
            .providers()
            .iter()
            .flat_map(|p| p.virtual_id_list())
            .collect();
        assert_eq!(held, d.referenced_vids(), "no orphan after {declared}");
    }
    // The name is still free for an exact-length retry.
    put(&d, Entry::Stream, "f", &data, PutOptions::new());
    assert_eq!(session.get_file("f").expect("read").data, data);
}

#[test]
fn multi_stripe_puts_encode_on_the_pool_single_stripe_puts_inline() {
    let d = distributor(6, config(0.0));
    let tel = d.enable_telemetry();
    let tasks = || {
        tel.registry()
            .expect("enabled")
            .counter_total("pool_tasks_total")
    };
    put(&d, Entry::File, "one", &body(6, 3 * CHUNK), PutOptions::new());
    assert_eq!(tasks(), 0, "a single stripe never touches the pool");
    // 17 chunks / stripe width 4 → 5 encode tasks.
    put(&d, Entry::File, "five", &body(6, 17 * CHUNK), PutOptions::new());
    assert_eq!(tasks(), 5);
    let reg = tel.registry().expect("enabled");
    assert_eq!(reg.counter_total("stripe_encodes"), 6);
    assert_eq!(reg.histogram("stripe_store_ns", "").count(), 6);
    assert_eq!(
        d.transfer_pool().worker_count(),
        d.config().durability.transfer_workers
    );
    assert_eq!(d.transfer_pool().panicked_tasks(), 0);
}

/// `get_file_parallel` is `get_file`: same receipt — data, `sim_time`,
/// reconstruction and retry counts — healthy and degraded, and the same
/// access check.
#[test]
fn get_file_parallel_is_get_file() {
    let data = body(8, 23 * CHUNK + 99);
    for victim in [None, Some(0usize)] {
        let build = || {
            let d = distributor(6, config(0.08));
            d.add_password("c", "public", PrivacyLevel::Public)
                .expect("client");
            put(&d, Entry::File, "f", &data, PutOptions::new().replicas(1));
            if let Some(v) = victim {
                d.providers()[v].set_online(false);
            }
            d
        };
        let (a, b) = (build(), build());
        let plain = a.session("c", "pw").expect("valid pair").get_file("f");
        let alias = b
            .session("c", "pw")
            .expect("valid pair")
            .get_file_parallel("f");
        let (plain, alias) = (plain.expect("read"), alias.expect("read"));
        assert_eq!(plain.data, data);
        assert_eq!(plain, alias, "victim={victim:?}");
        assert_eq!(victim.is_some(), plain.degraded_chunks > 0);
        let denied = a
            .session("c", "public")
            .expect("valid pair")
            .get_file_parallel("f");
        assert_eq!(denied.expect_err("PL too low"), CoreError::AccessDenied);
    }
}

/// Successful provider gets across the fleet.
fn fleet_gets(d: &CloudDataDistributor) -> u64 {
    d.providers()
        .iter()
        .map(|p| p.stats().gets.load(Ordering::Relaxed))
        .sum()
}

/// A tombstoned chunk fails the get at plan time, under the guard: the
/// error names the file and the serial, and no provider is read.
#[test]
fn reading_a_tombstoned_chunk_names_it_and_reads_nothing() {
    let d = distributor(6, config(0.0));
    let data = body(3, 16 * CHUNK);
    put(&d, Entry::File, "f", &data, PutOptions::new());
    let session = d.session("c", "pw").expect("valid pair");
    session.remove_chunk("f", 9).expect("remove chunk 9");
    let removed = CoreError::UnknownChunk {
        filename: "f".into(),
        serial: 9,
    };
    let before = fleet_gets(&d);
    assert_eq!(session.get_file("f").expect_err("chunk 9 is gone"), removed);
    assert_eq!(session.get_chunk("f", 9).expect_err("chunk 9 is gone"), removed);
    assert_eq!(fleet_gets(&d), before, "a plan-time failure reads nothing");
    assert_eq!(
        session.get_chunk("f", 8).expect("a live neighbour"),
        &data[8 * CHUNK..9 * CHUNK]
    );
}

/// `bulk_private`'s geometry: the paper's PL3 chunks (4 KiB), RAID-5
/// stripes of 4, mislead rate 0.08.
fn private_config(transfer_workers: usize) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::paper_default(),
        mislead_rate: 0.08,
        durability: DurabilityConfig::default().with_transfer_workers(transfer_workers),
        ..config(0.0)
    }
}

/// A get never waits on a pool task that has not started: with the one
/// worker parked on a job of its own, an 8 MiB PL3 get (which fans out
/// wherever the host has two cores) runs its other segment on the caller
/// and returns the right bytes before the job is released.
#[test]
fn a_parked_pool_cannot_stall_a_get() {
    let d = distributor(8, private_config(1));
    let data = body(5, 8 << 20);
    put(&d, Entry::File, "f", &data, PutOptions::new());
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    d.transfer_pool().submit(move || {
        started_tx.send(()).expect("test alive");
        let _ = release_rx.recv();
    });
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker took the parking job");

    let (got_tx, got_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let read = d.session("c", "pw").expect("valid pair").get_file("f");
            got_tx.send(read).expect("test alive");
        });
        let got = got_rx.recv_timeout(Duration::from_secs(120));
        release_tx.send(()).expect("worker parked");
        let got = got.expect("the get returned while the pool was parked");
        assert_eq!(got.expect("read").data, data);
    });
}

/// A put never waits on a pool task that has not started: with the one
/// worker parked on a job of its own, a five-stripe PL3 put encodes every
/// stripe no worker has claimed on the caller and lands before the job is
/// released.
#[test]
fn a_parked_pool_cannot_stall_a_put() {
    let d = distributor(8, private_config(1));
    let data = body(9, (64 << 10) + 100);
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    d.transfer_pool().submit(move || {
        started_tx.send(()).expect("test alive");
        let _ = release_rx.recv();
    });
    started_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the worker took the parking job");

    let (put_tx, put_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| {
            let session = d.session("c", "pw").expect("valid pair");
            let receipt = session.put_file("f", &data, PrivacyLevel::High, PutOptions::new());
            put_tx.send(receipt).expect("test alive");
        });
        let put = put_rx.recv_timeout(Duration::from_secs(30));
        release_tx.send(()).expect("worker parked");
        let put = put.expect("the put returned while the pool was parked");
        assert_eq!(put.expect("upload").stripe_count, 5);
    });
    let got = d.session("c", "pw").expect("valid pair").get_file("f");
    assert_eq!(got.expect("read").data, data);
}

/// Fan-out changes no count: a healthy 8 MiB PL3 get costs exactly one
/// provider read per data chunk, and a degraded RS(8,3) get — two
/// providers offline, one rotting bits at rest — returns the same bytes
/// and the same receipt counts in two identically seeded worlds.
#[test]
fn fan_out_changes_no_count() {
    let d = distributor(8, private_config(4));
    let tel = d.enable_telemetry();
    let data = body(6, 8 << 20);
    let chunks = put(&d, Entry::File, "f", &data, PutOptions::new()).chunk_count;
    assert_eq!(chunks, 2048);
    let before = fleet_gets(&d);
    let got = d.session("c", "pw").expect("valid pair").get_file("f");
    assert_eq!(got.expect("read").data, data);
    assert_eq!(fleet_gets(&d) - before, chunks as u64);
    let fanned = tel.registry().expect("enabled").counter_total("gets_fanned_out");
    assert_eq!(fanned, u64::from(d.transfer_pool().host_parallelism() > 1));

    let data = body(7, 4 << 20);
    let world = || {
        let config = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(64 << 10),
            ..private_config(4)
        };
        let d = distributor(12, config);
        put(&d, Entry::File, "f", &data, PutOptions::new().geometry(8, 3));
        let fleet = d.providers();
        fleet[0].set_online(false);
        fleet[1].set_online(false);
        FaultPlan::new(0xB17)
            .corrupt(2, FaultMode::BitFlip, 0.5)
            .try_arm(&fleet)
            .expect("valid plan");
        let got = d.session("c", "pw").expect("valid pair").get_file("f");
        got.expect("within RS(8,3)'s tolerance")
    };
    let (a, b) = (world(), world());
    assert_eq!(a.data, data);
    let counts = |r: &GetReceipt| (r.reconstructed_chunks, r.degraded_chunks, r.retries);
    assert!(a.reconstructed_chunks > 0 && a.retries > 0, "{:?}", counts(&a));
    assert!(b.data == a.data, "same bytes");
    assert_eq!(counts(&b), counts(&a));
}

/// Every object id the fleet holds.
fn held_vids(d: &CloudDataDistributor) -> HashSet<VirtualId> {
    d.providers()
        .iter()
        .flat_map(|p| p.virtual_id_list())
        .collect()
}

/// The exported tables without the `vids|` watermark: the allocator only
/// moves forward, so a failed put still advances it.
fn tables_text(d: &CloudDataDistributor) -> String {
    export_state(d)
        .lines()
        .filter(|l| !l.starts_with("vids|"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn a_failed_put_leaves_no_row_and_no_object() {
    for journaled in [false, true] {
        // RS(2,1): three shards per stripe, one loss tolerated. cp0 and
        // cp1 stay up and are the cheapest; cp2..cp4 die at the first
        // request they serve. Stripe 0 lands on cp0 and cp1 (its third
        // shard is tolerated as lost) and meets every other provider on
        // the way, so stripe 1 finds two eligible providers for three
        // shards and the put fails mid-file.
        let fleet: Vec<Arc<CloudProvider>> = (0..5)
            .map(|i| {
                Arc::new(CloudProvider::new(ProviderProfile::new(
                    format!("cp{i}"),
                    PrivacyLevel::High,
                    CostLevel::new(if i < 2 { 0 } else { 3 }),
                )))
            })
            .collect();
        let d = CloudDataDistributor::try_new(fleet.clone(), config(0.08)).expect("valid config");
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High)
            .expect("client");
        if journaled {
            d.attach_journal(Arc::new(Journal::new()));
        }
        let session = d.session("c", "pw").expect("valid pair");
        let opts = PutOptions::new().geometry(2, 1);
        let kept = body(10, 9 * CHUNK);
        session
            .put_file("kept", &kept, PrivacyLevel::High, opts)
            .expect("healthy fleet");

        let tables = tables_text(&d);
        let keys: Vec<HashSet<VirtualId>> = fleet
            .iter()
            .map(|p| p.keys().into_iter().collect())
            .collect();
        let mut script = OutageScript::new();
        for i in 2..5 {
            script = script.kill_after(i, 0);
        }
        script.try_arm(&fleet).expect("indices in range");

        let err = session
            .put_file("lost", &body(11, 12 * CHUNK), PrivacyLevel::High, opts)
            .expect_err("stripe 1 cannot be placed");
        assert!(
            matches!(err, CoreError::InsufficientProviders { .. }),
            "journaled={journaled}: {err:?}"
        );
        assert!(
            fleet[..2].iter().all(|p| p.stats().deletes.load(Ordering::Relaxed) > 0),
            "journaled={journaled}: stripe 0 landed and was deleted"
        );
        assert_eq!(tables_text(&d), tables, "journaled={journaled}");
        for (i, p) in fleet.iter().enumerate() {
            let now: HashSet<VirtualId> = p.keys().into_iter().collect();
            assert_eq!(now, keys[i], "journaled={journaled}: cp{i}");
        }
        assert!(session.get_file("lost").is_err());
        assert_eq!(session.get_file("kept").expect("read").data, kept);
    }
}

/// A source that yields its first `park_at` bytes, then signals `parked`
/// and blocks until `resume` fires (or is dropped) before yielding the
/// rest.
struct ParkingSource {
    data: Vec<u8>,
    pos: usize,
    park_at: usize,
    parked: Option<mpsc::Sender<()>>,
    resume: mpsc::Receiver<()>,
}

impl Read for ParkingSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.park_at {
            if let Some(parked) = self.parked.take() {
                let _ = parked.send(());
                let _ = self.resume.recv();
            }
        }
        let end = if self.pos < self.park_at {
            self.park_at
        } else {
            self.data.len()
        };
        let n = buf.len().min(end - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// What another client of the parked put's shard observed.
#[derive(Debug)]
struct Probe {
    preloaded: Result<Vec<u8>, CoreError>,
    get_parked: Result<(), CoreError>,
    remove_parked: Result<(), CoreError>,
    put_parked: Result<(), CoreError>,
    provider_puts_moved: u64,
}

#[test]
fn a_put_in_flight_does_not_block_its_shard() {
    let base = config(0.0);
    let d = distributor(
        6,
        DistributorConfig {
            durability: base.durability.with_table_shards(1),
            ..base
        },
    );
    let session = d.session("c", "pw").expect("valid pair");
    let pre = body(12, 10 * CHUNK);
    session
        .put_file("pre", &pre, PrivacyLevel::High, PutOptions::new())
        .expect("preload");
    let big = body(13, 40 * CHUNK);
    let stripe = 4 * CHUNK;
    let (d, big) = (&d, &big);
    let provider_puts = move || -> u64 {
        d.providers()
            .iter()
            .map(|p| p.stats().puts.load(Ordering::Relaxed))
            .sum()
    };

    let (parked_tx, parked_rx) = mpsc::channel();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let (probe_tx, probe_rx) = mpsc::channel();
    let (probe, put) = std::thread::scope(|s| {
        let putter = s.spawn(move || {
            let mut source = ParkingSource {
                data: big.to_vec(),
                pos: 0,
                park_at: stripe,
                parked: Some(parked_tx),
                resume: resume_rx,
            };
            let session = d.session("c", "pw").expect("valid pair");
            session.put_stream("big", &mut source, big.len(), PrivacyLevel::High, PutOptions::new())
        });
        parked_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the source parks after its first stripe");
        // Every probe runs on its own thread: if the shard were locked it
        // would block, and only the bounded wait below can tell.
        s.spawn(move || {
            let session = d.session("c", "pw").expect("valid pair");
            let preloaded = session.get_file("pre").map(|r| r.data);
            let get_parked = session.get_file("big").map(drop);
            let remove_parked = session.remove_file("big");
            let before = provider_puts();
            let put_parked = session
                .put_file("big", big, PrivacyLevel::High, PutOptions::new())
                .map(drop);
            let provider_puts_moved = provider_puts() - before;
            let _ = probe_tx.send(Probe {
                preloaded,
                get_parked,
                remove_parked,
                put_parked,
                provider_puts_moved,
            });
        });
        let waited = Instant::now();
        let probe = probe_rx.recv_timeout(Duration::from_secs(10));
        let waited = waited.elapsed();
        // Unpark whatever happened, so a blocked probe cannot hang the
        // scope.
        drop(resume_tx);
        let put = putter.join().expect("putter panicked");
        (probe.map_err(|_| waited), put)
    });

    let probe = probe.unwrap_or_else(|waited| {
        panic!("a get on the parked put's shard was still blocked after {waited:?}")
    });
    assert_eq!(probe.preloaded.expect("preloaded file reads"), pre);
    let unknown = |r: &Result<(), CoreError>| matches!(r, Err(CoreError::UnknownFile { .. }));
    assert!(unknown(&probe.get_parked), "{:?}", probe.get_parked);
    assert!(unknown(&probe.remove_parked), "{:?}", probe.remove_parked);
    assert!(
        matches!(&probe.put_parked, Err(CoreError::FileExists(name)) if name == "big"),
        "{:?}",
        probe.put_parked
    );
    assert_eq!(probe.provider_puts_moved, 0, "the racing put uploaded nothing");
    put.expect("the parked put commits once resumed");
    assert_eq!(&session.get_file("big").expect("read").data, big);
}

#[test]
fn racing_puts_of_one_name_admit_exactly_one() {
    for journaled in [false, true] {
        let d = distributor(6, config(0.08));
        if journaled {
            d.attach_journal(Arc::new(Journal::new()));
        }
        let data = body(14, 30 * CHUNK);
        let start = Barrier::new(8);
        let results: Vec<Result<PutReceipt, CoreError>> = std::thread::scope(|s| {
            let racers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let session = d.session("c", "pw").expect("valid pair");
                        start.wait();
                        session.put_file("same", &data, PrivacyLevel::High, PutOptions::new())
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|r| r.join().expect("racer panicked"))
                .collect()
        });
        let won = results.iter().filter(|r| r.is_ok()).count();
        let refused = results
            .iter()
            .filter(|r| matches!(r, Err(CoreError::FileExists(name)) if name == "same"))
            .count();
        assert_eq!((won, refused), (1, 7), "journaled={journaled}: {results:?}");
        assert_eq!(held_vids(&d), d.referenced_vids(), "journaled={journaled}");
        let session = d.session("c", "pw").expect("valid pair");
        assert_eq!(session.get_file("same").expect("read").data, data);
    }
}
