//! E4 criterion bench: distribution (put) and retrieval (get) time as a
//! function of file size, provider count and RAID level — the paper's
//! "Distribution time" measurement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragcloud_bench::experiments::uniform_fleet;
use fragcloud_core::config::DistributorConfig;
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_raid::RaidLevel;
use fragcloud_workloads::files;

fn make_distributor(n: usize, level: RaidLevel) -> CloudDataDistributor {
    let d = CloudDataDistributor::new(
        uniform_fleet(n),
        DistributorConfig {
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    );
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client");
    d
}

fn bench_put(c: &mut Criterion) {
    let mut group = c.benchmark_group("put_file");
    group.sample_size(20);
    for &size in &[64 << 10, 1 << 20, 4 << 20] {
        let body = files::random_file(size, size as u64);
        for level in [RaidLevel::None, RaidLevel::Raid5, RaidLevel::Raid6] {
            group.throughput(Throughput::Bytes(size as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("{level}"), format!("{}KiB", size >> 10)),
                &body,
                |b, body| {
                    let mut i = 0u64;
                    b.iter(|| {
                        let d = make_distributor(8, level);
                        i += 1;
                        d.session("c", "p")
                            .expect("valid pair")
                            .put_file(&format!("f{i}"), body, PrivacyLevel::Low, PutOptions::new())
                            .expect("upload")
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_get(c: &mut Criterion) {
    let mut group = c.benchmark_group("get_file");
    group.sample_size(20);
    for &size in &[64 << 10, 1 << 20, 4 << 20] {
        let body = files::random_file(size, size as u64);
        let d = make_distributor(8, RaidLevel::Raid5);
        let session = d.session("c", "p").expect("valid pair");
        session
            .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
            .expect("upload");
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_function(
            BenchmarkId::new("raid5", format!("{}KiB", size >> 10)),
            |b| b.iter(|| session.get_file("f").expect("retrieve")),
        );
    }
    group.finish();
}

fn bench_get_degraded(c: &mut Criterion) {
    // Reconstruction path: one provider down (the availability story's cost).
    let mut group = c.benchmark_group("get_file_degraded");
    group.sample_size(20);
    let size = 1 << 20;
    let body = files::random_file(size, 99);
    let d = make_distributor(8, RaidLevel::Raid5);
    let session = d.session("c", "p").expect("valid pair");
    session
        .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
        .expect("upload");
    let victim = d
        .client_chunks_per_provider("c")
        .expect("client")
        .iter()
        .position(|&n| n > 0)
        .expect("some provider holds chunks");
    d.providers()[victim].set_online(false);
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function("raid5_one_provider_down/1MiB", |b| {
        b.iter(|| {
            let r = session.get_file("f").expect("reconstruct");
            assert!(r.reconstructed_chunks > 0);
            r
        })
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    // The acceptance bar for the telemetry layer: a disabled handle (the
    // default) must cost nothing measurable on the hot read path, and the
    // enabled cost should stay small. Same file, same distributor shape.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(20);
    let size = 1 << 20;
    let body = files::random_file(size, 0x7E1);

    let plain = make_distributor(8, RaidLevel::Raid5);
    let session = plain.session("c", "p").expect("valid pair");
    session
        .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
        .expect("upload");
    group.throughput(Throughput::Bytes(size as u64));
    group.bench_function("disabled/1MiB", |b| {
        b.iter(|| session.get_file("f").expect("retrieve"))
    });

    let instrumented = make_distributor(8, RaidLevel::Raid5);
    let tel = instrumented.enable_telemetry();
    let session = instrumented.session("c", "p").expect("valid pair");
    session
        .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
        .expect("upload");
    group.bench_function("enabled/1MiB", |b| {
        b.iter(|| session.get_file("f").expect("retrieve"))
    });
    group.finish();

    let reg = tel.registry().expect("enabled");
    assert!(reg.counter_total("gets_total") > 0);
    if let Ok(path) = fragcloud_bench::write_summary(
        "criterion_distribution",
        "telemetry_overhead group registry drain",
        Some(&reg.snapshot()),
        &[],
    ) {
        eprintln!("wrote {}", path.display());
    }
}

criterion_group! {
    name = benches;
    // Short windows keep the full-workspace bench run tractable;
    // raise for publication-grade numbers.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_put,
    bench_get,
    bench_get_degraded,
    bench_telemetry_overhead
}
criterion_main!(benches);
