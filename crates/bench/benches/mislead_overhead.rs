//! E7 criterion bench: misleading-byte injection/strip throughput — the
//! "overhead associated with retrieving data" of §VII-D.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragcloud_core::mislead;

fn bench_inject(c: &mut Criterion) {
    let mut group = c.benchmark_group("mislead_inject");
    let data = vec![0x5Au8; 1 << 20];
    group.throughput(Throughput::Bytes(data.len() as u64));
    for &rate in &[0.01, 0.05, 0.2] {
        group.bench_with_input(BenchmarkId::from_parameter(rate), &data, |b, d| {
            b.iter(|| mislead::inject(d, rate, 7))
        });
    }
    group.finish();
}

fn bench_strip(c: &mut Criterion) {
    let mut group = c.benchmark_group("mislead_strip");
    let data = vec![0x5Au8; 1 << 20];
    group.throughput(Throughput::Bytes(data.len() as u64));
    for &rate in &[0.01, 0.05, 0.2] {
        let (stored, positions) = mislead::inject(&data, rate, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(rate),
            &(stored, positions),
            |b, (stored, positions)| b.iter(|| mislead::strip(stored, positions)),
        );
    }
    group.finish();
}

/// The two shapes the distributor actually runs, one chunk per call: PL3's
/// 4 KiB chunks at the max-privacy rate, and PL1's 64 KiB chunks at a light
/// rate. The 1 MiB sweep above amortises per-call costs (seeding, the
/// position bitmap, two allocations) that these pay every time.
const DISTRIBUTOR_SHAPES: [(&str, usize, f64); 2] = [
    ("4KiB_x_0.08", 4 << 10, 0.08),
    ("64KiB_x_0.02", 64 << 10, 0.02),
];

/// Distinct (chunk, seed) pairs each shape cycles through. A distributor
/// never strips the same position set twice in a row; one repeated chunk
/// lets the branch predictor learn its runs and flatters a branchy kernel
/// about twofold.
const DISTINCT: usize = 256;

fn bench_distributor_shapes(c: &mut Criterion) {
    let mut group = c.benchmark_group("mislead_chunk");
    for (name, len, rate) in DISTRIBUTOR_SHAPES {
        let inputs: Vec<(Vec<u8>, u64)> = (0..DISTINCT)
            .map(|k| {
                let data = (0..len).map(|i| (i * 131 + k * 29 + 17) as u8).collect();
                (data, 7 ^ k as u64)
            })
            .collect();
        let injected: Vec<(Vec<u8>, Vec<usize>)> = inputs
            .iter()
            .map(|(data, seed)| mislead::inject(data, rate, *seed))
            .collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("inject", name), &inputs, |b, inputs| {
            let mut next = inputs.iter().cycle();
            b.iter(|| {
                let (data, seed) = next.next().expect("cycle never ends");
                mislead::inject(data, rate, *seed)
            })
        });
        group.bench_with_input(BenchmarkId::new("strip", name), &injected, |b, injected| {
            let mut next = injected.iter().cycle();
            b.iter(|| {
                let (stored, positions) = next.next().expect("cycle never ends");
                mislead::strip(stored, positions)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Short windows keep the full-workspace bench run tractable;
    // raise for publication-grade numbers.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(10);
    targets = bench_inject, bench_strip, bench_distributor_shapes
}
criterion_main!(benches);
