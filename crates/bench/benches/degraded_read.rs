//! Criterion bench for the degraded-mode engine: healthy reads vs reads
//! that must reconstruct from parity (RAID-5 one provider down, RAID-6
//! two down), plus the cost of a full `try_repair()` pass.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use fragcloud_bench::experiments::uniform_fleet;
use fragcloud_core::config::DistributorConfig;
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_workloads::files;

const SIZE: usize = 1 << 20;

fn make_distributor(level: RaidLevel) -> CloudDataDistributor {
    let d = CloudDataDistributor::try_new(
        uniform_fleet(16),
        DistributorConfig {
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client");
    d
}

/// The `n` providers holding the most of the client's chunks.
fn top_holders(d: &CloudDataDistributor, n: usize) -> Vec<usize> {
    let counts = d.client_chunks_per_provider("c").expect("client");
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    idx.truncate(n);
    idx
}

fn bench_degraded_read(c: &mut Criterion) {
    let mut group = c.benchmark_group("degraded_read");
    group.sample_size(20);
    let body = files::random_file(SIZE, 0xD16);

    // One shared registry across all three geometries; drained into
    // BENCH_criterion_degraded_read.json after the group finishes.
    let tel = fragcloud_telemetry::TelemetryHandle::enabled();

    for (label, level, down) in [
        ("raid5_healthy", RaidLevel::Raid5, 0usize),
        ("raid5_one_down", RaidLevel::Raid5, 1),
        ("raid6_two_down", RaidLevel::Raid6, 2),
    ] {
        let d = make_distributor(level);
        d.set_telemetry(tel.clone());
        let session = d.session("c", "p").expect("valid pair");
        session
            .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
            .expect("upload");
        for &victim in &top_holders(&d, down) {
            d.providers()[victim].set_online(false);
        }
        group.throughput(Throughput::Bytes(SIZE as u64));
        group.bench_function(format!("{label}/1MiB"), |b| {
            b.iter(|| {
                let r = session.get_file("f").expect("read");
                assert_eq!(r.data.len(), SIZE);
                r
            })
        });
    }
    group.finish();

    let reg = tel.registry().expect("enabled");
    assert!(reg.counter_total("parity_reconstructions") > 0);
    if let Ok(path) = fragcloud_bench::write_summary(
        "criterion_degraded_read",
        "degraded_read group registry drain",
        Some(&reg.snapshot()),
        &[],
    ) {
        eprintln!("wrote {}", path.display());
    }
}

fn bench_repair(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair");
    group.sample_size(10);
    group.throughput(Throughput::Bytes(SIZE as u64));
    let body = files::random_file(SIZE, 0x4E9);
    group.bench_function("raid5_one_provider_lost/1MiB", |b| {
        b.iter(|| {
            let d = make_distributor(RaidLevel::Raid5);
            let session = d.session("c", "p").expect("valid pair");
            session
                .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
                .expect("upload");
            d.providers()[top_holders(&d, 1)[0]].set_online(false);
            let report = d.try_repair().expect("no crash plan armed");
            assert!(report.is_complete());
            report
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_degraded_read, bench_repair
}
criterion_main!(benches);
