//! The five workloads. Each one turns `--seed` into inputs, runs a closed
//! loop against the public `Session` API for `--seconds`, verifies every
//! byte it reads, and hands back a [`Pass`].

mod bulk;
mod degraded_read;
mod mixed_rw;
mod small_journaled;

use crate::harness::{FleetTotals, Recorder, Verb, World, VERBS};
use crate::spec;
use fragcloud_core::config::ChunkSizeSchedule;
use fragcloud_core::{persist, DistributorConfig};
use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::{Registry, TelemetryHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Command-line knobs every workload honours.
#[derive(Clone, Copy, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Measurement budget: epochs repeat until this much time has passed
    /// (and the workload's minimum epoch count is reached).
    pub seconds: f64,
    /// Shrunk sizes so the whole set runs in seconds (schema/determinism
    /// tests); numbers from a quick run are not comparable with full ones.
    pub quick: bool,
}

/// Tallies over the *count prefix* — the first `min_epochs` measured
/// epochs, which always run whatever `--seconds` says, so every number
/// derived from them repeats exactly for a given seed on the
/// single-thread workloads.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub user_puts: u64,
    pub user_gets: u64,
    pub user_put_bytes: u64,
    pub user_get_bytes: u64,
    pub ops: u64,
    pub provider: FleetTotals,
    pub reconstructed: u64,
    pub degraded: u64,
    pub retries: u64,
}

impl Counts {
    pub fn add_recorder(&mut self, r: &Recorder) {
        self.user_puts += r.ops(Verb::Put) + r.ops(Verb::PutStream);
        self.user_gets += r.ops(Verb::Get) + r.ops(Verb::GetParallel);
        self.user_put_bytes += r.bytes[Verb::Put as usize] + r.bytes[Verb::PutStream as usize];
        self.user_get_bytes += r.bytes[Verb::Get as usize] + r.bytes[Verb::GetParallel as usize];
        self.ops += r.total_ops();
        self.reconstructed += r.reconstructed;
        self.degraded += r.degraded;
        self.retries += r.retries;
    }

    pub fn add_provider(&mut self, t: FleetTotals) {
        self.provider.puts += t.puts;
        self.provider.gets += t.gets;
        self.provider.bytes_in += t.bytes_in;
        self.provider.bytes_out += t.bytes_out;
        self.provider.rejected += t.rejected;
    }
}

/// Everything one pass (untraced or traced) over a workload measured.
#[derive(Default)]
pub struct Pass {
    /// One value per set-up repetition.
    pub setup_s: Vec<f64>,
    /// All measured samples, merged over epochs and threads.
    pub all: Recorder,
    /// Per-epoch payload MiB/s inside each verb.
    pub mib_s: [Vec<f64>; VERBS],
    /// Per-epoch verbs completed per second.
    pub ops_s: Vec<f64>,
    /// Per-epoch provider bytes at rest / live user bytes.
    pub space_amp: Vec<f64>,
    /// Per-epoch wall time inside verbs (the telemetry-overhead base).
    pub verb_ns: Vec<f64>,
    pub epochs: usize,
    pub counts: Counts,
    /// Workload-specific per-layer values, keyed by metric name.
    pub extras: BTreeMap<&'static str, f64>,
    /// `parse + recover_with` repetitions (small_journaled).
    pub recover_s: Vec<f64>,
    /// Registries of the traced epochs (one per fresh distributor).
    pub registries: Vec<Arc<Registry>>,
    /// A file and the shape it was stored with, for the layer replay.
    pub replay: Option<ReplayInput>,
}

/// What the layer replay needs to redo a put and a get of one
/// representative file outside the distributor.
pub struct ReplayInput {
    pub file: Vec<u8>,
    pub pl: PrivacyLevel,
    pub chunk_size: usize,
    pub k: usize,
    pub m: usize,
    pub mislead_rate: f64,
    pub providers: usize,
    /// Journal records at the end of the workload (0 = no journal).
    pub journal_records: usize,
    /// Share of chunks a get must rebuild from parity (degraded_read).
    pub degraded_share: f64,
}

/// What a workload hands over at the end of a measured epoch.
pub struct Epoch {
    pub rec: Recorder,
    /// Time the epoch's verbs are counted against for `ops_s`: the wall
    /// time of the threaded section, or `None` for the time inside verbs.
    pub section_ns: Option<u64>,
    /// Provider bytes at rest / live user bytes, where the epoch stored any.
    pub space_amp: Option<f64>,
    /// Provider ops this epoch issued.
    pub provider: FleetTotals,
}

impl Pass {
    /// Folds a recorder's samples in without counting an epoch: one
    /// throughput value per verb it ran, and its latencies and tallies into
    /// the pooled set.
    pub fn add_samples(&mut self, rec: Recorder) {
        for v in 0..VERBS {
            if !rec.wall_ns[v].is_empty() {
                let ns: u64 = rec.wall_ns[v].iter().sum();
                self.mib_s[v].push(rec.bytes[v] as f64 / crate::harness::MIB / (ns as f64 / 1e9));
            }
        }
        self.all.merge(rec);
    }

    /// Folds one measured epoch in: its tallies into the count prefix while
    /// that is still open (`count_epochs` epochs), its registry if traced,
    /// its per-epoch values and its samples.
    pub fn end_epoch(&mut self, count_epochs: usize, tel: &TelemetryHandle, e: Epoch) {
        if self.epochs < count_epochs {
            self.counts.add_recorder(&e.rec);
            self.counts.add_provider(e.provider);
        }
        if let Some(reg) = tel.registry() {
            // One registry can span several epochs (degraded_read).
            if !self.registries.last().is_some_and(|r| Arc::ptr_eq(r, reg)) {
                self.registries.push(reg.clone());
            }
        }
        let verb_ns = e.rec.total_verb_ns();
        let section_ns = e.section_ns.unwrap_or(verb_ns);
        if section_ns > 0 {
            self.ops_s
                .push(e.rec.total_ops() as f64 / (section_ns as f64 / 1e9));
        }
        self.space_amp.extend(e.space_amp);
        self.verb_ns.push(verb_ns as f64);
        self.epochs += 1;
        self.add_samples(e.rec);
    }

    /// Folds the warm-up epoch in: its samples are discarded, its failures
    /// are not, so a broken build cannot hide behind a discarded epoch.
    pub fn warm_up(&mut self, rec: Recorder) {
        self.all.count_outcomes_of(&rec);
    }

    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.insert(name, value);
    }
}

/// Epoch loop shared by the workloads: epoch 0 is warm-up and discarded
/// (allocator arenas, page tables and the transfer pool's threads come up
/// there), then measured epochs run until the time budget is spent and at
/// least `min_epochs` are in. `epoch(index)` returns `false` to stop early
/// (a failed epoch). Allocation counting is on inside the measured epochs
/// of a traced pass and nowhere else.
pub fn epoch_loop(
    opts: &Opts,
    traced: bool,
    min_epochs: usize,
    mut epoch: impl FnMut(usize) -> bool,
) {
    if !epoch(0) {
        return;
    }
    let start = Instant::now();
    let mut n = 0usize;
    while n < min_epochs || start.elapsed().as_secs_f64() < opts.seconds {
        n += 1;
        crate::alloc_count::set_enabled(traced);
        let ok = epoch(n);
        crate::alloc_count::set_enabled(false);
        if !ok {
            return;
        }
    }
}

/// Runs `setup` repeatedly — at least `min_reps` times, until 0.3 s have
/// gone into it, at most 25 times — recording each duration in
/// `pass.setup_s`, and returns the last result. `setup_s` is the median,
/// and a set-up of a few milliseconds needs the extra repetitions for
/// that median to hold still. The previous result is dropped before the
/// next set-up starts, so only one world is alive at a time.
pub fn timed_setups<T>(pass: &mut Pass, min_reps: usize, mut setup: impl FnMut() -> T) -> T {
    let mut spent = 0.0;
    let mut last = None;
    while pass.setup_s.len() < min_reps || (spent < 0.3 && pass.setup_s.len() < 25) {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        let took = t.elapsed().as_secs_f64();
        pass.setup_s.push(took);
        spent += took;
    }
    last.expect("min_reps is at least 1")
}

/// `count` files from `random_file`, keyed by the seed. Each is a few
/// bytes (1..=4096, also from the seed) short of `nominal`, so files end
/// mid-chunk like real ones do and the padded-tail parity path runs. The
/// trim is small on purpose: metrics are compared across seeds, so two
/// seeds must do the same work on different bytes.
pub fn make_files(seed: u64, tag: u64, count: usize, nominal: usize) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (0..count)
        .map(|_| {
            let len = nominal - rng.gen_range(1..=4096usize);
            fragcloud_workloads::files::random_file(len, rng.gen())
        })
        .collect()
}

pub fn base_config(seed: u64) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::paper_default(),
        seed,
        ..DistributorConfig::default()
    }
}

/// The operator-side timings of a traced pass, taken on a live world
/// outside the measured epochs: `persist.export_state_ms`,
/// `persist.import_state_ms`, `resilience.scrub_verify_ms`,
/// `resilience.repair_verify_ms`, `health.breakers_open`.
pub fn time_maintenance(pass: &mut Pass, world: &World, config: DistributorConfig) {
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let snapshot = persist::export_state(&world.d);
    pass.extra("persist.export_state_ms", ms(t));
    let t = Instant::now();
    let imported = persist::import_state(&snapshot, world.fleet.clone(), config);
    pass.extra("persist.import_state_ms", ms(t));
    pass.all.check(imported.is_ok(), || {
        "persist: snapshot did not import".into()
    });

    let t = Instant::now();
    let scrub = world.d.scrub_verify();
    pass.extra("resilience.scrub_verify_ms", ms(t));
    pass.all.check(scrub.unreadable.is_empty(), || {
        format!("scrub: {} unreadable stripes", scrub.unreadable.len())
    });
    let t = Instant::now();
    let repair = world.d.try_repair_verify();
    pass.extra("resilience.repair_verify_ms", ms(t));
    pass.all
        .check(repair.is_ok(), || "repair_verify returned an error".into());
    let open = world.d.health().open_providers().len();
    pass.extra("health.breakers_open", open as f64);
}

/// Runs `workload` once, untraced or traced.
pub fn run(workload: &str, opts: &Opts, traced: bool) -> Pass {
    match workload {
        spec::BULK_PUBLIC => bulk::run(&bulk::Shape::public(opts), opts, traced),
        spec::BULK_PRIVATE => bulk::run(&bulk::Shape::private(opts), opts, traced),
        spec::SMALL_JOURNALED => small_journaled::run(opts, traced),
        spec::DEGRADED_READ => degraded_read::run(opts, traced),
        spec::MIXED_RW => mixed_rw::run(opts, traced),
        other => unreachable!("workload {other} was validated by the CLI"),
    }
}
