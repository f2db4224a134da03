//! The layer replay: redo one representative put and get outside the
//! distributor, layer by layer, on the workload's own bytes and geometry,
//! timing each layer's public functions.
//!
//! This is the outside-in ledger the per-layer table is built from. The
//! distributor has no spans inside `put`/`get` yet, so instead of asking it
//! where the time went we ask each layer what the same work costs alone
//! and report the rest of the verb's wall time as *unattributed*. Every
//! timing is the median of [`REPS`] whole-file sweeps.

use crate::harness::{fleet, median_ns};
use crate::workloads::ReplayInput;
use fragcloud_core::config::{ChunkSizeSchedule, PlacementStrategy};
use fragcloud_core::{chunker, integrity, mislead, policy, Journal, OpKind, TransferPool};
use fragcloud_crypto::{checksum64, ChaCha20};
use fragcloud_raid::{raid5, raid6, RaidLevel, RsCodec, StripeCodec};
use fragcloud_sim::{Bytes, ObjectStore, VirtualId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::mpsc;

const REPS: usize = 5;
/// The geometries the workloads use; each gets its own `raid.*` rows.
pub const GEOMETRIES: [(usize, usize); 3] = [(4, 1), (4, 2), (8, 3)];
/// At most this many stripes per `raid.*` row, so the three-geometry
/// sweep stays a fraction of a second on the 4 KiB-chunk workloads.
const MAX_RAID_STRIPES: usize = 64;

/// Per-layer values by metric name, plus the sums the unattributed shares
/// are computed from.
pub struct Replay {
    pub values: BTreeMap<String, f64>,
    /// Layer time a put of the replayed file accounts for, ns per user byte.
    pub put_ns_per_byte: f64,
    /// Layer time a get of the replayed file accounts for, ns per user byte.
    pub get_ns_per_byte: f64,
}

fn geometry_suffix((k, m): (usize, usize)) -> String {
    format!("{k}_{m}")
}

/// Parity for one stripe the way `put` computes it: the padded-into
/// kernels with recycled output buffers.
fn encode(level: RaidLevel, refs: &[&[u8]], width: usize, out: &mut Vec<Vec<u8>>) {
    let m = level.parity_shards();
    out.resize_with(m, Vec::new);
    match level {
        RaidLevel::None => {}
        RaidLevel::Raid5 => raid5::parity_padded_into(refs, width, &mut out[0]).expect("geometry"),
        RaidLevel::Raid6 => {
            let (p, q) = out.split_at_mut(1);
            raid6::parity_padded_into(refs, width, &mut p[0], &mut q[0]).expect("geometry");
        }
        RaidLevel::Rs { .. } => RsCodec::new(refs.len(), m)
            .and_then(|c| c.parity_padded_into(refs, width, out))
            .expect("geometry"),
    }
}

/// Times encode, degraded decode and single-shard reconstruction at one
/// geometry over `stored` chunks; returns ns per data byte for each.
fn raid_rows(stored: &[Vec<u8>], (k, m): (usize, usize)) -> (f64, f64, f64) {
    let level = RaidLevel::for_parity_shards(m);
    let codec = StripeCodec::new(k, level).expect("benchmark geometries are valid");
    let groups: Vec<&[Vec<u8>]> = stored
        .chunks(k)
        .filter(|g| g.len() == k)
        .take(MAX_RAID_STRIPES)
        .collect();
    if groups.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let data_bytes: usize = groups.iter().flat_map(|g| g.iter().map(Vec::len)).sum();

    let mut parity: Vec<Vec<u8>> = Vec::new();
    let encode_ns = median_ns(REPS, || {
        for g in &groups {
            let refs: Vec<&[u8]> = g.iter().map(Vec::as_slice).collect();
            let width = refs.iter().map(|s| s.len()).max().unwrap_or(0);
            encode(level, &refs, width, &mut parity);
            black_box(&parity);
        }
    });

    // Full stripes, padded to one width, for the read-side codec calls.
    let stripes: Vec<Vec<Vec<u8>>> = groups
        .iter()
        .map(|g| {
            let width = g.iter().map(Vec::len).max().unwrap_or(0);
            let mut shards: Vec<Vec<u8>> = g
                .iter()
                .map(|s| {
                    let mut p = s.clone();
                    p.resize(width, 0);
                    p
                })
                .collect();
            let refs: Vec<&[u8]> = shards.iter().map(Vec::as_slice).collect();
            let mut par = Vec::new();
            encode(level, &refs, width, &mut par);
            shards.extend(par);
            shards
        })
        .collect();
    // Data shard 0 lost: the erasure a degraded get decodes around.
    let survivors: Vec<Vec<(usize, &[u8])>> = stripes
        .iter()
        .map(|s| {
            s.iter()
                .enumerate()
                .skip(1)
                .map(|(i, b)| (i, b.as_slice()))
                .collect()
        })
        .collect();
    let decode_ns = median_ns(REPS, || {
        for (s, avail) in stripes.iter().zip(&survivors) {
            black_box(codec.decode(avail, k * s[0].len()).expect("one erasure"));
        }
    });
    let reconstruct_ns = median_ns(REPS, || {
        for avail in &survivors {
            black_box(codec.reconstruct_shard(avail, 0).expect("one erasure"));
        }
    });
    let per_byte = |ns: f64| ns / data_bytes as f64;
    (
        per_byte(encode_ns),
        per_byte(decode_ns),
        per_byte(reconstruct_ns),
    )
}

/// `begin + log_alloc + commit` against a journal pre-filled to
/// `records` records, ns per op. The delta is a stand-in of one table row
/// per shard, about the size the distributor's own rows have.
fn journal_commit_ns(records: usize, vids_per_op: usize) -> f64 {
    let journal = Journal::new();
    let vids: Vec<VirtualId> = (0..vids_per_op as u64).map(VirtualId).collect();
    let delta = "chunk|0|0|1|3|0||||0|4424|4096|0:0|d0|0|\n".repeat(vids_per_op);
    let op = || {
        let id = journal.begin(OpKind::Put, "bench", "file");
        journal.log_alloc(id, &vids);
        black_box(journal.commit(id, delta.clone()));
    };
    while journal.record_len() < records {
        op();
    }
    const OPS: usize = 200;
    median_ns(REPS, || {
        for _ in 0..OPS {
            op();
        }
    }) / OPS as f64
}

fn pool_roundtrip_ns() -> f64 {
    let pool = TransferPool::new(4);
    let (tx, rx) = mpsc::channel::<()>();
    const TASKS: usize = 1_000;
    median_ns(REPS, || {
        for _ in 0..TASKS {
            let tx = tx.clone();
            pool.submit(move || {
                let _ = tx.send(());
            });
            rx.recv().expect("pool worker sends");
        }
    }) / TASKS as f64
}

/// Same-run normalisers: a plain copy and the in-tree ChaCha20, GiB/s.
fn host_rates() -> (f64, f64) {
    const GIB: f64 = (1u64 << 30) as f64;
    let src = vec![0x5Au8; 64 << 20];
    let mut dst = vec![0u8; src.len()];
    let copy_ns = median_ns(REPS, || {
        dst.copy_from_slice(black_box(&src));
        black_box(&dst);
    });
    let cipher = ChaCha20::new(&[7u8; 32], &[9u8; 12]);
    let mut buf = vec![0u8; 16 << 20];
    let cipher_ns = median_ns(REPS, || {
        cipher.apply_keystream(black_box(&mut buf), 0);
    });
    (
        src.len() as f64 / GIB / (copy_ns / 1e9),
        buf.len() as f64 / GIB / (cipher_ns / 1e9),
    )
}

pub fn run(input: &ReplayInput, seed: u64) -> Replay {
    let mut values = BTreeMap::new();
    let file = &input.file;
    let len = file.len() as f64;
    let schedule = ChunkSizeSchedule::paper_default();
    debug_assert_eq!(schedule.size_for(input.pl), input.chunk_size);
    let level = RaidLevel::for_parity_shards(input.m);
    let n_chunks = file.len().div_ceil(input.chunk_size);
    let n_stripes = n_chunks.div_ceil(input.k);

    // --- chunker -------------------------------------------------------
    // As `put_file` calls it: one shared copy sliced by reference when the
    // file spans several stripes, borrowed slices otherwise.
    let split_ns = median_ns(REPS, || {
        if n_stripes >= 2 {
            let shared = Bytes::copy_from_slice(file);
            black_box(chunker::split_shared(&shared, input.pl, &schedule));
        } else {
            black_box(chunker::split_borrowed(file, input.pl, &schedule));
        }
    });
    let stream_ns = median_ns(REPS, || {
        let mut feeder = chunker::StripeFeeder::new(file.as_slice(), input.chunk_size, input.k);
        while let Some(stripe) = feeder.next_stripe().expect("slice reads cannot fail") {
            black_box(stripe);
        }
    });
    let logical = chunker::split(file, input.pl, &schedule);
    let join_ns = median_ns(REPS, || {
        black_box(chunker::join(&logical));
    });
    values.insert("chunker.split_ns_per_byte".into(), split_ns / len);
    values.insert("chunker.stream_ns_per_byte".into(), stream_ns / len);
    values.insert("chunker.join_ns_per_byte".into(), join_ns / len);

    // --- mislead -------------------------------------------------------
    let inject_all = || -> Vec<(Vec<u8>, Vec<usize>)> {
        logical
            .iter()
            .enumerate()
            .map(|(i, c)| mislead::inject(c, input.mislead_rate, seed ^ i as u64))
            .collect()
    };
    let inject_ns = median_ns(REPS, || {
        black_box(inject_all());
    });
    let injected = inject_all();
    let strip_ns = median_ns(REPS, || {
        for (stored, positions) in &injected {
            black_box(mislead::strip(stored, positions));
        }
    });
    let stored: Vec<Vec<u8>> = injected.into_iter().map(|(s, _)| s).collect();
    let stored_bytes: usize = stored.iter().map(Vec::len).sum();
    values.insert("mislead.inject_ns_per_byte".into(), inject_ns / len);
    values.insert("mislead.strip_ns_per_byte".into(), strip_ns / len);
    values.insert("mislead.expansion".into(), stored_bytes as f64 / len);

    // --- raid ----------------------------------------------------------
    let mut own = (0.0, 0.0, 0.0);
    for geo in GEOMETRIES {
        let rows = raid_rows(&stored, geo);
        if geo == (input.k, input.m) {
            own = rows;
        }
        let suffix = geometry_suffix(geo);
        values.insert(format!("raid.encode_ns_per_byte.{suffix}"), rows.0);
        values.insert(format!("raid.decode_ns_per_byte.{suffix}"), rows.1);
        values.insert(
            format!("raid.reconstruct_shard_ns_per_byte.{suffix}"),
            rows.2,
        );
    }
    let (encode_per_byte, decode_per_byte, _) = own;

    // --- integrity + crypto ----------------------------------------------
    // Every shard a put stores: the data chunks plus each stripe's parity.
    let mut shards: Vec<Vec<u8>> = stored.clone();
    let mut parity = Vec::new();
    for g in stored.chunks(input.k) {
        let refs: Vec<&[u8]> = g.iter().map(Vec::as_slice).collect();
        let width = refs.iter().map(|s| s.len()).max().unwrap_or(0);
        encode(level, &refs, width, &mut parity);
        shards.extend(parity.iter().cloned());
    }
    let shard_bytes: usize = shards.iter().map(Vec::len).sum();
    let frame_all = || -> Vec<Bytes> {
        shards
            .iter()
            .enumerate()
            .map(|(i, s)| integrity::frame(VirtualId(i as u64), s))
            .collect()
    };
    let frame_ns = median_ns(REPS, || {
        black_box(frame_all());
    });
    let framed = frame_all();
    let unframe_ns = median_ns(REPS, || {
        for (i, (f, s)) in framed.iter().zip(&shards).enumerate() {
            black_box(
                integrity::unframe_expecting(VirtualId(i as u64), f.clone(), s.len())
                    .expect("frames were just stamped"),
            );
        }
    });
    let checksum_ns = median_ns(REPS, || {
        black_box(checksum64(black_box(file), seed));
    });
    let frame_per_byte = frame_ns / shard_bytes as f64;
    let unframe_per_byte = unframe_ns / shard_bytes as f64;
    values.insert("integrity.frame_ns_per_byte".into(), frame_per_byte);
    values.insert("integrity.unframe_ns_per_byte".into(), unframe_per_byte);
    values.insert("crypto.checksum64_ns_per_byte".into(), checksum_ns / len);

    // --- sim.provider ----------------------------------------------------
    // A scratch fleet per sweep: providers keep every object they are
    // handed (the curious observer), so a reused one would grow.
    let provider_put_ns = median_ns(REPS, || {
        let scratch = fleet(input.providers);
        for (i, f) in framed.iter().enumerate() {
            scratch[i % scratch.len()]
                .put(VirtualId(i as u64), f.clone())
                .expect("scratch providers are online");
        }
    }) / framed.len() as f64;
    let scratch = fleet(input.providers);
    for (i, f) in framed.iter().enumerate() {
        scratch[i % scratch.len()]
            .put(VirtualId(i as u64), f.clone())
            .expect("scratch providers are online");
    }
    let provider_get_ns = median_ns(REPS, || {
        for i in 0..framed.len() {
            black_box(
                scratch[i % scratch.len()]
                    .get(VirtualId(i as u64))
                    .expect("object was just put"),
            );
        }
    }) / framed.len() as f64;
    values.insert("sim.provider.put_ns_per_op".into(), provider_put_ns);
    values.insert("sim.provider.get_ns_per_op".into(), provider_get_ns);

    // --- policy ----------------------------------------------------------
    let mut rng = StdRng::seed_from_u64(seed);
    const PLACEMENTS: usize = 1_000;
    let place_ns = median_ns(REPS, || {
        for _ in 0..PLACEMENTS {
            black_box(
                policy::place_stripe(
                    &scratch,
                    input.pl,
                    input.k + input.m,
                    PlacementStrategy::CheapestEligible,
                    &mut rng,
                )
                .expect("fleet is wide enough"),
            );
        }
    }) / PLACEMENTS as f64;
    values.insert("policy.place_stripe_ns_per_op".into(), place_ns);

    // --- journal, pool, host ----------------------------------------------
    let commit_ns = if input.journal_records > 0 {
        journal_commit_ns(input.journal_records, shards.len())
    } else {
        0.0
    };
    values.insert("journal.commit_ns_per_op".into(), commit_ns);
    values.insert("pool.submit_roundtrip_ns".into(), pool_roundtrip_ns());
    let (memcpy_gib_s, chacha_gib_s) = host_rates();
    values.insert("host.memcpy_gib_s".into(), memcpy_gib_s);
    values.insert("host.chacha20_gib_s".into(), chacha_gib_s);

    // --- what the layers account for ---------------------------------------
    // put: split, inject, encode, frame every shard, store every shard,
    // place every stripe, commit once if journaled.
    let put_ns = split_ns
        + inject_ns
        + encode_per_byte * stored_bytes as f64
        + frame_ns
        + provider_put_ns * shards.len() as f64
        + place_ns * n_stripes as f64
        + commit_ns;
    // get: fetch and unframe every data chunk, strip, join; a chunk that
    // must be rebuilt instead fetches and unframes its k stripe peers and
    // decodes the stripe.
    let data_share = stored_bytes as f64 / shard_bytes as f64;
    let healthy_ns =
        provider_get_ns * n_chunks as f64 + unframe_ns * data_share + strip_ns + join_ns;
    let stripe_bytes = (input.k * input.chunk_size) as f64;
    let rebuild_ns = input.degraded_share
        * n_chunks as f64
        * (input.k as f64 * provider_get_ns
            + unframe_per_byte * stripe_bytes
            + decode_per_byte * stripe_bytes);
    Replay {
        values,
        put_ns_per_byte: put_ns / len,
        get_ns_per_byte: (healthy_ns + rebuild_ns) / len,
    }
}

/// Cost of one span enter/exit on an enabled handle, ns.
pub fn span_ns() -> f64 {
    let tel = fragcloud_telemetry::TelemetryHandle::enabled();
    const SPANS: usize = 10_000;
    median_ns(REPS, || {
        for _ in 0..SPANS {
            let _g = tel.span("bench");
        }
    }) / SPANS as f64
}
