//! `mixed_rw`: one reader and one bulk writer on the same client.
//!
//! The only workload where one verb waits on another. Each epoch preloads
//! small files, lets the reader run alone (the solo baseline), then starts
//! a writer putting 8 MiB files while the reader keeps looping `get_file`
//! until the writer is done. `put_file` holds its table shard's write lock
//! across encode and store, so a reader routed to that shard stalls for
//! the whole put; `session.get_blocked_share` is the share of the
//! reader's time that the solo baseline does not explain.

use super::{bulk, epoch_loop, make_files, timed_setups, Epoch, Opts, Pass, ReplayInput};
use crate::harness::{median_u64, FleetTotals, Recorder, Verb, World, CLIENT};
use fragcloud_core::PutOptions;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

pub fn run(opts: &Opts, traced: bool) -> Pass {
    let mut pass = Pass::default();
    let shape = bulk::Shape::public(opts);
    let config = shape.config(opts.seed);
    let chunk = config.chunk_sizes.size_for(shape.pl);
    let (n_small, small_len, n_big, big_len, solo_gets) = if opts.quick {
        (4, 256 << 10, 2, 1 << 20, 8)
    } else {
        (16, 1 << 20, 16, 8 << 20, 64)
    };
    let min_epochs = if opts.quick { 2 } else { 4 };

    let (small, mut big) = timed_setups(&mut pass, 3, || {
        let small = make_files(opts.seed, 5, n_small, small_len);
        let big = make_files(opts.seed, 6, n_big, big_len);
        drop(World::new(shape.providers, config, &[CLIENT]));
        (small, big)
    });
    let small_names: Vec<String> = (0..small.len()).map(|i| format!("s{i}")).collect();
    let big_names: Vec<String> = (0..big.len()).map(|i| format!("b{i}")).collect();
    let user_bytes: usize = small.iter().chain(&big).map(Vec::len).sum();
    let mut blocked = Vec::new();

    epoch_loop(opts, traced, min_epochs, |epoch| {
        let world = World::new(shape.providers, config, &[CLIENT]);
        let tel = world.trace(traced);
        let session = world.session(CLIENT);

        // Preload (not sampled: the writer's puts are the measured ones).
        let mut preload = Recorder::default();
        for (name, data) in small_names.iter().zip(&small) {
            preload.put(Verb::Put, name, data.len(), || {
                session.put_file(name, data, shape.pl, PutOptions::new())
            });
        }

        // Reader alone.
        let mut solo = Recorder::default();
        for i in 0..solo_gets {
            let j = i % small.len();
            solo.get(Verb::Get, &small_names[j], &small[j], || {
                session.get_file(&small_names[j])
            });
        }
        let solo_p50_ns = median_u64(&solo.wall_ns[Verb::Get as usize]);

        // Reader under the writer.
        let writer_done = AtomicBool::new(false);
        let barrier = Barrier::new(2);
        let t = Instant::now();
        let (mut rec, written) = std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                let session = world.session(CLIENT);
                let mut rec = Recorder::new(&tel);
                barrier.wait();
                for (name, data) in big_names.iter().zip(&big) {
                    rec.put(Verb::Put, name, data.len(), || {
                        session.put_file(name, data, shape.pl, PutOptions::new())
                    });
                }
                // Release: pairs with the reader's Acquire load below.
                writer_done.store(true, Ordering::Release);
                rec
            });
            let mut rec = Recorder::default();
            barrier.wait();
            let mut i = 0usize;
            while !writer_done.load(Ordering::Acquire) {
                let j = i % small.len();
                rec.get(Verb::Get, &small_names[j], &small[j], || {
                    session.get_file(&small_names[j])
                });
                i += 1;
            }
            (rec, writer.join().expect("writer thread panicked"))
        });
        let section_ns = t.elapsed().as_nanos() as u64;
        let reader_ns = rec.verb_ns(Verb::Get) as f64;
        let reader_gets = rec.ops(Verb::Get) as f64;
        rec.merge(written);

        // What the writer stored must read back too.
        for (name, data) in big_names.iter().zip(&big) {
            let got = session.get_file(name);
            rec.check(matches!(&got, Ok(r) if &r.data == data), || {
                format!("get {name}: written file differs from its source")
            });
        }
        // Preload and solo ops count as attempts (and towards the provider
        // ratios) but their samples stay out of the measured set.
        let mut aside = preload;
        aside.merge(solo);
        rec.count_outcomes_of(&aside);

        let totals = FleetTotals::read(&world.fleet);
        let space_amp = totals.bytes_stored as f64 / user_bytes as f64;
        let ok = rec.failed == 0;
        if epoch == 0 {
            if traced {
                super::time_maintenance(&mut pass, &world, config);
            }
            pass.warm_up(rec);
            return ok;
        }
        if reader_ns > 0.0 {
            blocked.push(1.0 - reader_gets * solo_p50_ns / reader_ns);
        }
        if pass.epochs < min_epochs {
            pass.counts.add_recorder(&aside);
        }
        let epoch = Epoch {
            rec,
            section_ns: Some(section_ns),
            space_amp: Some(space_amp),
            provider: totals,
        };
        pass.end_epoch(min_epochs, &tel, epoch);
        ok
    });

    pass.extra(
        "session.get_blocked_share",
        crate::harness::median(&blocked),
    );
    pass.replay = Some(ReplayInput {
        file: big.swap_remove(0),
        pl: shape.pl,
        chunk_size: chunk,
        k: shape.k,
        m: shape.level.parity_shards(),
        mislead_rate: 0.0,
        providers: shape.providers,
        journal_records: 0,
        degraded_share: 0.0,
    });
    pass
}
