//! `small_journaled`: two clients doing small-file puts, gets, chunk
//! updates and removes through one journaled distributor, then a crash
//! and a recovery checked against an in-benchmark oracle.
//!
//! One epoch is one journal lifetime on purpose: a journaled
//! `update_chunk` rewrites the checkpoint, so its cost depends on how much
//! state the distributor has accumulated, and that growth is what this
//! workload exists to show. Every epoch replays the same op lists, so the
//! state at the n-th op is the same in each.

use super::{base_config, epoch_loop, timed_setups, Epoch, Opts, Pass, ReplayInput};
use crate::harness::{Fleet, FleetTotals, Recorder, Verb, World};
use fragcloud_core::{
    recover_with, CloudDataDistributor, CoreError, DistributorConfig, Journal, JournalSink,
    PutOptions, RecoveryReport,
};
use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::TelemetryHandle;
use fragcloud_workloads::files::random_file;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

const PROVIDERS: usize = 8;
const PL: PrivacyLevel = PrivacyLevel::High;
const MISLEAD: f64 = 0.08;
const THREADS: usize = 2;
const MIN_LEN: usize = 4 << 10;
const MAX_LEN: usize = 64 << 10;
/// The stated flush policy: every group-commit flush costs 100 us.
const FLUSH_COST: Duration = Duration::from_micros(100);
const RECOVERIES: usize = 5;

/// What must hold after recovery for one client: its name, the expected
/// bytes of every live file, and the names it removed.
type Oracle = (String, BTreeMap<String, Vec<u8>>, Vec<String>);

/// The benchmark-owned journal sink: sleeps the flush cost and counts.
#[derive(Default)]
struct CountingSink {
    flushes: AtomicU64,
    bytes: AtomicU64,
}

impl JournalSink for CountingSink {
    fn persist(&self, batch: &str) {
        // Relaxed: statistics only.
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(batch.len() as u64, Ordering::Relaxed);
        std::thread::sleep(FLUSH_COST);
    }
}

#[derive(Clone, Copy)]
enum Op {
    Put(usize),
    Get(usize),
    /// File, chunk serial, index into `Script::patches`.
    Update(usize, u32, usize),
    Remove(usize),
}

/// One client's fixed op list and the bytes it needs.
struct Script {
    client: String,
    files: Vec<Vec<u8>>,
    patches: Vec<Vec<u8>>,
    ops: Vec<Op>,
}

/// The op list's *shape* — which verb, which file, which size step — comes
/// from this constant, not from `--seed`: metrics are compared across
/// seeds, so two seeds must do the same work on different bytes.
const SHAPE_SEED: u64 = 0x5A17_F00D;

/// Builds a client's op list by simulating the live set, so every op is
/// valid when it runs: 30% put, 50% get, 10% update, 10% remove, falling
/// back to put while nothing is live. File sizes step through 4..64 KiB in
/// chunk-sized steps; `--seed` supplies the bytes and trims each file by a
/// few bytes so the tail chunk is ragged. A chunk is updated at most once:
/// `update_chunk` keeps one snapshot per chunk, and a second update leaves
/// the first snapshot object on its provider with no table row, which the
/// orphan check below would (rightly) count as a failure.
fn script(seed: u64, thread: usize, n_ops: usize, chunk: usize) -> Script {
    let mut shape = StdRng::seed_from_u64(SHAPE_SEED + thread as u64);
    let mut bytes =
        StdRng::seed_from_u64(seed ^ (thread as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    let mut s = Script {
        client: format!("c{thread}"),
        files: Vec::new(),
        patches: Vec::new(),
        ops: Vec::with_capacity(n_ops),
    };
    // Live files with the serials not yet updated.
    let mut live: Vec<(usize, Vec<u32>)> = Vec::new();
    for _ in 0..n_ops {
        let roll = shape.gen_range(0..100u32);
        if live.is_empty() || roll < 30 {
            let steps = shape.gen_range(MIN_LEN / chunk..=MAX_LEN / chunk);
            let len = steps * chunk - bytes.gen_range(1..=64usize);
            let idx = s.files.len();
            s.files.push(random_file(len, bytes.gen()));
            live.push((idx, (0..steps as u32).collect()));
            s.ops.push(Op::Put(idx));
        } else if roll < 80 {
            let (idx, _) = live[shape.gen_range(0..live.len())];
            s.ops.push(Op::Get(idx));
        } else if roll < 90 {
            let slot = shape.gen_range(0..live.len());
            let (idx, fresh) = &mut live[slot];
            if fresh.is_empty() {
                s.ops.push(Op::Get(*idx));
                continue;
            }
            let serial = fresh.swap_remove(shape.gen_range(0..fresh.len()));
            let start = serial as usize * chunk;
            let len = (s.files[*idx].len() - start).min(chunk);
            s.ops.push(Op::Update(*idx, serial, s.patches.len()));
            s.patches.push(random_file(len, bytes.gen()));
        } else {
            let (idx, _) = live.swap_remove(shape.gen_range(0..live.len()));
            s.ops.push(Op::Remove(idx));
        }
    }
    s
}

/// Runs one client's list; returns what it saw and its oracle: expected
/// bytes of every live file, and the names it removed.
fn client_loop(
    world: &World,
    tel: &TelemetryHandle,
    s: &Script,
    chunk: usize,
) -> (Recorder, BTreeMap<String, Vec<u8>>, Vec<String>) {
    let session = world.session(&s.client);
    let mut rec = Recorder::new(tel);
    let mut live: BTreeMap<String, Vec<u8>> = BTreeMap::new();
    let mut removed = Vec::new();
    for op in &s.ops {
        match *op {
            Op::Put(idx) => {
                let name = format!("f{idx}");
                let data = &s.files[idx];
                let put = rec.put(Verb::Put, &name, data.len(), || {
                    session.put_file(&name, data, PL, PutOptions::new())
                });
                if put.is_some() {
                    live.insert(name, data.clone());
                }
            }
            Op::Get(idx) => {
                let name = format!("f{idx}");
                if let Some(expect) = live.get(&name) {
                    rec.get(Verb::Get, &name, expect, || session.get_file(&name));
                }
            }
            Op::Update(idx, serial, patch) => {
                let name = format!("f{idx}");
                let patch = &s.patches[patch];
                let done = rec.unit(Verb::Update, &name, patch.len(), || {
                    session.update_chunk(&name, serial, patch)
                });
                if let (true, Some(expect)) = (done, live.get_mut(&name)) {
                    let start = serial as usize * chunk;
                    expect[start..start + patch.len()].copy_from_slice(patch);
                }
            }
            Op::Remove(idx) => {
                let name = format!("f{idx}");
                let len = live.get(&name).map_or(0, Vec::len);
                if rec.unit(Verb::Remove, &name, len, || session.remove_file(&name)) {
                    live.remove(&name);
                    removed.push(name);
                }
            }
        }
    }
    (rec, live, removed)
}

pub fn config(seed: u64) -> DistributorConfig {
    let mut c = DistributorConfig {
        mislead_rate: MISLEAD,
        ..base_config(seed)
    };
    c.durability = c.durability.with_table_shards(8);
    c
}

pub fn run(opts: &Opts, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let config = config(opts.seed);
    let chunk = config.chunk_sizes.size_for(PL);
    let n_ops = if opts.quick { 120 } else { 250 };

    let mut scripts = timed_setups(&mut pass, 3, || {
        let scripts: Vec<Script> = (0..THREADS)
            .map(|th| script(opts.seed, th, n_ops, chunk))
            .collect();
        drop(journaled_world(config, &scripts));
        scripts
    });
    let mut journal_records = 0usize;

    epoch_loop(opts, traced, 1, |epoch| {
        let (world, journal, sink) = journaled_world(config, &scripts);
        let tel = world.trace(traced);

        // Both clients start together; each waits for its own replies.
        let barrier = Barrier::new(THREADS);
        let t = Instant::now();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = scripts
                .iter()
                .map(|s| {
                    let (world, tel, barrier) = (&world, &tel, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        client_loop(world, tel, s, chunk)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let section_ns = t.elapsed().as_nanos() as u64;

        let mut rec = Recorder::default();
        let mut oracle = Vec::new();
        for (s, (r, live, removed)) in scripts.iter().zip(results) {
            rec.merge(r);
            oracle.push((s.client.clone(), live, removed));
        }
        settle(&mut rec, &world, &scripts[0].client, config);
        let live_bytes: usize = oracle
            .iter()
            .flat_map(|(_, live, _)| live.values().map(Vec::len))
            .sum();
        let totals = FleetTotals::read(&world.fleet);
        let space_amp = totals.bytes_stored as f64 / live_bytes.max(1) as f64;
        let ops = rec.total_ops();

        // Crash: all that survives is the exported journal and the fleet.
        let t = Instant::now();
        let text = journal.export();
        let export_ms = t.elapsed().as_secs_f64() * 1e3;
        journal_records = journal.record_len();
        let flushes = sink.flushes.load(Ordering::Relaxed);
        let fleet = world.fleet.clone();
        drop(world);

        let Recovery {
            recovered,
            report,
            parse_ms,
            recover_ms,
            recover_s,
        } = recover_repeatedly(&mut rec, &text, &fleet, config, &tel);

        if let Some(d) = &recovered {
            check_oracle(&mut rec, d, &fleet, &oracle);
        }

        let ok = rec.failed == 0;
        if epoch == 0 {
            if traced {
                // The recovered distributor stands in for the crashed one.
                if let Some(d) = recovered {
                    let world = World { fleet, d };
                    super::time_maintenance(&mut pass, &world, config);
                }
            }
            pass.warm_up(rec);
            return ok;
        }
        if pass.epochs == 0 {
            pass.extra("journal.flushes_per_op", flushes as f64 / ops.max(1) as f64);
            pass.extra(
                "journal.bytes_per_op",
                text.len() as f64 / ops.max(1) as f64,
            );
            pass.extra("journal.records_total", journal_records as f64);
            pass.extra(
                "recovery.orphans_collected",
                report.orphans_collected as f64,
            );
        }
        pass.extra("journal.export_ms", export_ms);
        pass.extra("journal.parse_ms", parse_ms);
        pass.extra("recovery.recover_ms", crate::harness::median(&recover_ms));
        pass.recover_s.extend(recover_s);
        let epoch = Epoch {
            rec,
            section_ns: Some(section_ns),
            space_amp: Some(space_amp),
            provider: totals,
        };
        pass.end_epoch(1, &tel, epoch);
        ok
    });

    // The median-sized file of client 0 stands for the workload.
    let mut files = scripts.swap_remove(0).files;
    files.sort_by_key(Vec::len);
    let file = files.swap_remove(files.len() / 2);
    pass.replay = Some(ReplayInput {
        file,
        pl: PL,
        chunk_size: chunk,
        k: config.stripe_width,
        m: config.raid_level.parity_shards(),
        mislead_rate: MISLEAD,
        providers: PROVIDERS,
        journal_records,
        degraded_share: 0.0,
    });
    pass
}

/// What the repeated recoveries of one crash produced.
struct Recovery {
    /// The last recovered distributor (`None` if every attempt failed).
    recovered: Option<CloudDataDistributor>,
    /// The first attempt's report: only it finds the fleet as the crash
    /// left it.
    report: RecoveryReport,
    parse_ms: f64,
    recover_ms: Vec<f64>,
    /// `parse + recover_with`, one value per attempt.
    recover_s: Vec<f64>,
}

/// Restarts from the exported journal [`RECOVERIES`] times over, timing
/// `Journal::parse` and `recover_with` apart.
fn recover_repeatedly(
    rec: &mut Recorder,
    text: &str,
    fleet: &Fleet,
    config: DistributorConfig,
    tel: &TelemetryHandle,
) -> Recovery {
    let mut out = Recovery {
        recovered: None,
        report: RecoveryReport::default(),
        parse_ms: 0.0,
        recover_ms: Vec::new(),
        recover_s: Vec::new(),
    };
    for attempt in 0..RECOVERIES {
        let t = Instant::now();
        let parsed = Journal::parse(text);
        let parsed_at = t.elapsed();
        let outcome = parsed.and_then(|j| recover_with(Arc::new(j), fleet.clone(), config, tel));
        let total = t.elapsed();
        rec.attempted += 1;
        match outcome {
            Ok((d, report)) => {
                out.parse_ms = parsed_at.as_secs_f64() * 1e3;
                out.recover_ms.push((total - parsed_at).as_secs_f64() * 1e3);
                out.recover_s.push(total.as_secs_f64());
                if attempt == 0 {
                    out.report = report;
                }
                out.recovered = Some(d);
            }
            Err(e) => rec.fail(format!("recover: {e}")),
        }
    }
    out
}

/// Forces one checkpoint compaction before the crash, with puts and
/// removes of a throw-away file (untimed, state-neutral).
///
/// `update_chunk` is not journaled op by op: it only refreshes the journal
/// checkpoint. While the updated file's own put delta is still in the
/// journal, recovery replays that older row over the checkpoint's newer
/// one and the update is lost (wrong bytes, plus its snapshot object left
/// without a table row). The next compaction folds the delta in and closes
/// the window, so the workload crashes just after one: its job is to
/// price recovery, and a workload must not fail.
fn settle(rec: &mut Recorder, world: &World, client: &str, config: DistributorConfig) {
    let session = world.session(client);
    for i in 0..config.durability.checkpoint_interval.div_ceil(2) {
        let name = format!("settle{i}");
        let put = session.put_file(&name, b"settle", PL, PutOptions::new());
        let removed = session.remove_file(&name);
        rec.check(put.is_ok() && removed.is_ok(), || {
            format!("settle: put/remove of {name} failed")
        });
    }
}

fn journaled_world(
    config: DistributorConfig,
    scripts: &[Script],
) -> (World, Arc<Journal>, Arc<CountingSink>) {
    let clients: Vec<&str> = scripts.iter().map(|s| s.client.as_str()).collect();
    let world = World::new(PROVIDERS, config, &clients);
    let journal = Arc::new(Journal::new());
    let sink = Arc::new(CountingSink::default());
    journal.set_sink(sink.clone());
    world.d.attach_journal(journal.clone());
    (world, journal, sink)
}

/// The recovered distributor must serve every live file byte-identical
/// with its updates applied, must not know any removed file, and must
/// leave no provider holding an object the tables do not reference.
fn check_oracle(rec: &mut Recorder, d: &CloudDataDistributor, fleet: &Fleet, oracle: &[Oracle]) {
    for (client, live, removed) in oracle {
        let session = match d.session(client, crate::harness::PASSWORD) {
            Ok(s) => s,
            Err(e) => {
                rec.check(false, || format!("recovered: no session for {client}: {e}"));
                continue;
            }
        };
        for (name, expect) in live {
            let got = session.get_file(name);
            rec.check(matches!(&got, Ok(r) if &r.data == expect), || {
                format!("recovered: {client}/{name} differs from its source")
            });
        }
        for name in removed {
            rec.check(
                matches!(session.get_file(name), Err(CoreError::UnknownFile { .. })),
                || format!("recovered: removed file {client}/{name} is still there"),
            );
        }
    }
    // No orphans: every object a provider holds is referenced by a table
    // row. (The converse does not hold today: `remove_file` deletes an
    // updated chunk's snapshot object but leaves its `snapshot_vid` in the
    // tombstoned row, so `referenced_vids()` also lists ids nobody holds.)
    let referenced = d.referenced_vids();
    let orphans = fleet
        .iter()
        .flat_map(|p| p.virtual_id_list())
        .filter(|v| !referenced.contains(v))
        .count();
    rec.check(orphans == 0, || {
        format!("recovered: {orphans} provider objects have no table row")
    });
}
