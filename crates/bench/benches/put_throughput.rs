//! Criterion bench for the put path: 1 vs 4 transfer workers over a
//! multi-stripe file (the wall-clock companion to experiment E19).
//!
//! The put pipeline runs stripe encoding on the distributor's transfer
//! pool while the caller uploads earlier stripes; on a single-core host
//! the two widths converge, so read the ratio together with the machine's
//! core count.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragcloud_bench::experiments::uniform_fleet;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;

const FILE_LEN: usize = 1 << 20; // 1 MiB → 128 chunks → 32 RAID-6 stripes

fn make_distributor(workers: usize) -> CloudDataDistributor {
    let d = CloudDataDistributor::try_new(
        uniform_fleet(8),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(8 << 10),
            stripe_width: 4,
            raid_level: RaidLevel::Raid6,
            mislead_rate: 0.08,
            durability: fragcloud_core::DurabilityConfig::default()
                .with_transfer_workers(workers),
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client");
    d
}

fn bench_put_throughput(c: &mut Criterion) {
    let body: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 131 + 7) % 251) as u8).collect();
    let mut group = c.benchmark_group("put_throughput");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.throughput(Throughput::Bytes(FILE_LEN as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("workers{workers}"), format!("{}KiB", FILE_LEN >> 10)),
            &body,
            |b, body| {
                let mut i = 0u64;
                b.iter(|| {
                    let d = make_distributor(workers);
                    i += 1;
                    d.session("c", "p")
                        .expect("valid pair")
                        .put_file(&format!("f{i}"), body, PrivacyLevel::Low, PutOptions::new())
                        .expect("upload")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_put_throughput);
criterion_main!(benches);
