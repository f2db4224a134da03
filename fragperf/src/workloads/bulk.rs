//! `bulk_public` and `bulk_private`: one client moving 8 MiB files.
//!
//! Same layers, used differently: at PL1 a file is 128 chunks of 64 KiB
//! and the codec, framing and the shard copy chain do the work; at PL3 it
//! is 2 048 chunks of 4 KiB with misleading bytes, and per-chunk fixed
//! costs do. Each epoch runs against a fresh fleet and distributor:
//! `sim::Observer` keeps every object ever put, so a long-lived fleet
//! grows without bound and the run turns into page-fault time.

use super::{base_config, epoch_loop, make_files, timed_setups, Epoch, Opts, Pass, ReplayInput};
use crate::harness::{FleetTotals, Recorder, Verb, World, CLIENT};
use fragcloud_core::{DistributorConfig, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_sim::PrivacyLevel;

pub struct Shape {
    pub providers: usize,
    pub pl: PrivacyLevel,
    pub k: usize,
    pub level: RaidLevel,
    pub mislead_rate: f64,
    pub files: usize,
    pub file_len: usize,
    /// Odd-indexed files go through `put_stream` instead of `put_file`.
    pub stream_odd: bool,
    pub min_epochs: usize,
    /// Seed tag so the two bulk workloads draw different bytes.
    pub tag: u64,
}

impl Shape {
    pub fn public(opts: &Opts) -> Shape {
        Shape {
            providers: 8,
            pl: PrivacyLevel::Low,
            k: 4,
            level: RaidLevel::Raid6,
            mislead_rate: 0.0,
            files: if opts.quick { 4 } else { 16 },
            file_len: if opts.quick { 1 << 20 } else { 8 << 20 },
            stream_odd: true,
            min_epochs: if opts.quick { 2 } else { 4 },
            tag: 1,
        }
    }

    pub fn private(opts: &Opts) -> Shape {
        Shape {
            providers: 8,
            pl: PrivacyLevel::High,
            k: 4,
            level: RaidLevel::Raid5,
            mislead_rate: 0.08,
            files: if opts.quick { 2 } else { 8 },
            file_len: if opts.quick { 1 << 20 } else { 8 << 20 },
            stream_odd: false,
            min_epochs: if opts.quick { 2 } else { 3 },
            tag: 2,
        }
    }

    pub fn config(&self, seed: u64) -> DistributorConfig {
        DistributorConfig {
            stripe_width: self.k,
            raid_level: self.level,
            mislead_rate: self.mislead_rate,
            ..base_config(seed)
        }
    }
}

pub fn run(shape: &Shape, opts: &Opts, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let config = shape.config(opts.seed);
    let chunk = config.chunk_sizes.size_for(shape.pl);

    // Set-up: generate the inputs and bring a world up.
    let mut files = timed_setups(&mut pass, 3, || {
        let files = make_files(opts.seed, shape.tag, shape.files, shape.file_len);
        drop(World::new(shape.providers, config, &[CLIENT]));
        files
    });
    let names: Vec<String> = (0..files.len()).map(|i| format!("f{i}")).collect();
    let user_bytes: usize = files.iter().map(Vec::len).sum();

    epoch_loop(opts, traced, shape.min_epochs, |epoch| {
        let world = World::new(shape.providers, config, &[CLIENT]);
        let tel = world.trace(traced);
        let session = world.session(CLIENT);
        let mut rec = Recorder::new(&tel);

        for (i, (name, data)) in names.iter().zip(&files).enumerate() {
            if shape.stream_odd && i % 2 == 1 {
                rec.put(Verb::PutStream, name, data.len(), || {
                    session.put_stream(
                        name,
                        &mut data.as_slice(),
                        data.len(),
                        shape.pl,
                        PutOptions::new(),
                    )
                });
            } else {
                rec.put(Verb::Put, name, data.len(), || {
                    session.put_file(name, data, shape.pl, PutOptions::new())
                });
            }
        }
        let at_rest = FleetTotals::read(&world.fleet);
        let space_amp = at_rest.bytes_stored as f64 / user_bytes as f64;

        for (name, data) in names.iter().zip(&files) {
            rec.get(Verb::Get, name, data, || session.get_file(name));
            rec.get(Verb::GetParallel, name, data, || {
                session.get_file_parallel(name)
            });
        }

        let ok = rec.failed == 0;
        if epoch == 0 {
            if traced {
                super::time_maintenance(&mut pass, &world, config);
            }
            pass.warm_up(rec);
            return ok;
        }
        let epoch = Epoch {
            rec,
            section_ns: None,
            space_amp: Some(space_amp),
            provider: FleetTotals::read(&world.fleet),
        };
        pass.end_epoch(shape.min_epochs, &tel, epoch);
        ok
    });

    pass.replay = Some(ReplayInput {
        file: files.swap_remove(0),
        pl: shape.pl,
        chunk_size: chunk,
        k: shape.k,
        m: shape.level.parity_shards(),
        mislead_rate: shape.mislead_rate,
        providers: shape.providers,
        journal_records: 0,
        degraded_share: 0.0,
    });
    pass
}
