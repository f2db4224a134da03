//! `degraded_read`: reads through outages and bit-rot.
//!
//! Set-up stores the files at RS(8,3) on 12 providers — the general
//! `RsCodec` path — then takes providers 0 and 5 offline and makes
//! provider 1 flip a bit in 2% of what it serves. The measured loop is
//! passes of `get_file` over every file: erasure decode, frame
//! verification, read-repair and health ordering do the work, and the put
//! path shows up only in `setup_s` and the set-up's own `put_mib_s`.

use super::{base_config, epoch_loop, make_files, timed_setups, Epoch, Opts, Pass, ReplayInput};
use crate::harness::{FleetTotals, Recorder, Verb, World, CLIENT};
use fragcloud_core::{DistributorConfig, Geometry, GeometrySchedule, PutOptions};
use fragcloud_sim::fault::{FaultMode, FaultPlan};
use fragcloud_sim::PrivacyLevel;

const PROVIDERS: usize = 12;
const PL: PrivacyLevel = PrivacyLevel::Low;
const K: usize = 8;
const M: usize = 3;
const OFFLINE: [usize; 2] = [0, 5];
const ROTTING: usize = 1;
const ROT_RATE: f64 = 0.02;
/// This workload's only puts are its set-ups', so it repeats them more
/// often than the others to have `put_mib_s` samples worth a median.
const SETUPS: usize = 6;

pub fn config(seed: u64) -> DistributorConfig {
    DistributorConfig {
        geometry: Some(GeometrySchedule::uniform(Geometry::new(K, M))),
        ..base_config(seed)
    }
}

pub fn run(opts: &Opts, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let config = config(opts.seed);
    let chunk = config.chunk_sizes.size_for(PL);
    let (n_files, file_len) = if opts.quick {
        (4, 1 << 20)
    } else {
        (32, 4 << 20)
    };
    // Passes that always run; their tallies repeat exactly for a seed.
    let count_passes = if opts.quick { 2 } else { 4 };

    // Set-up: inputs, world, the puts, then the faults. The last one is
    // the world the reads run against; each one's puts are a `put_mib_s`
    // sample (this workload puts nowhere else).
    let mut put_passes = Vec::new();
    let (mut files, world, stored) = timed_setups(&mut pass, SETUPS, || {
        let files = make_files(opts.seed, 4, n_files, file_len);
        let world = World::new(PROVIDERS, config, &[CLIENT]);
        let mut rec = Recorder::default();
        {
            let session = world.session(CLIENT);
            for (i, data) in files.iter().enumerate() {
                let name = format!("f{i}");
                rec.put(Verb::Put, &name, data.len(), || {
                    session.put_file(&name, data, PL, PutOptions::new())
                });
            }
        }
        let stored = FleetTotals::read(&world.fleet);
        for i in OFFLINE {
            world.fleet[i].set_online(false);
        }
        FaultPlan::new(opts.seed)
            .corrupt(ROTTING, FaultMode::BitFlip, ROT_RATE)
            .arm(&world.fleet);
        put_passes.push(rec);
        (files, world, stored)
    });
    let names: Vec<String> = (0..files.len()).map(|i| format!("f{i}")).collect();
    let user_bytes: u64 = files.iter().map(|f| f.len() as u64).sum();
    // The set-ups' puts are samples, not epochs of the read loop.
    for rec in put_passes {
        pass.add_samples(rec);
    }
    pass.space_amp
        .push(stored.bytes_stored as f64 / user_bytes as f64);
    pass.counts.user_puts = names.len() as u64;
    pass.counts.user_put_bytes = user_bytes;
    pass.counts.provider.puts = stored.puts;
    pass.counts.provider.bytes_in = stored.bytes_in;

    let tel = world.trace(traced);
    let session = world.session(CLIENT);
    // One world for every pass: reads do not grow the fleet beyond the few
    // shards a pass's read-repairs re-upload, so there is nothing to bound.
    // Pass 0 is the warm-up.
    epoch_loop(opts, traced, count_passes, |epoch| {
        let before = FleetTotals::read(&world.fleet);
        let mut rec = Recorder::default();
        for (name, data) in names.iter().zip(&files) {
            rec.get(Verb::Get, name, data, || session.get_file(name));
        }
        let ok = rec.failed == 0;
        if epoch == 0 {
            pass.warm_up(rec);
            return ok;
        }
        let epoch = Epoch {
            rec,
            section_ns: None,
            space_amp: None,
            provider: FleetTotals::read(&world.fleet).since(before),
        };
        pass.end_epoch(count_passes, &tel, epoch);
        ok
    });
    if traced {
        super::time_maintenance(&mut pass, &world, config);
    }

    let degraded_share = pass.counts.reconstructed as f64
        / (pass.counts.user_get_bytes as f64 / chunk as f64).max(1.0);
    pass.replay = Some(ReplayInput {
        file: files.swap_remove(0),
        pl: PL,
        chunk_size: chunk,
        k: K,
        m: M,
        mislead_rate: 0.0,
        providers: PROVIDERS,
        journal_records: 0,
        degraded_share,
    });
    pass
}
