//! RS(k,m) matrix-kernel bench: cached-table SIMD encode against the
//! retained scalar reference (the acceptance bar: matrix ≥ 8× scalar on
//! 64 KiB shards).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragcloud_raid::RsCodec;

fn shards(k: usize, width: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..width)
                .map(|b| ((i * 37 + b * 11) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Matrix-kernel encode across the (4,2) … (16,4) geometry sweep.
fn bench_rs_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_encode");
    for &(k, m) in &[(4usize, 2usize), (8, 3), (12, 4), (16, 4)] {
        for &width in &[4 << 10, 64 << 10] {
            let data = shards(k, width);
            let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            let codec = RsCodec::new(k, m).expect("valid geometry");
            group.throughput(Throughput::Bytes((k * width) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("rs{k}_{m}"), width),
                &refs,
                |b, refs| b.iter(|| codec.parity(refs).expect("valid stripe")),
            );
        }
    }
    group.finish();
}

/// The acceptance comparison, pinned on 64 KiB shards: matrix kernels vs
/// the scalar reference (≥ 8× apart on (8,3)).
fn bench_rs_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_vs_baselines");
    let (k, width) = (4usize, 64 << 10);
    let data = shards(k, width);
    let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
    let codec = RsCodec::new(k, 2).expect("valid geometry");
    group.throughput(Throughput::Bytes((k * width) as u64));
    group.bench_function("rs4_2_matrix_64KiB", |b| {
        b.iter(|| codec.parity(&refs).expect("valid stripe"))
    });
    group.bench_function("rs4_2_scalar_64KiB", |b| {
        b.iter(|| codec.parity_scalar(&refs).expect("valid stripe"))
    });
    // The ≥ 8× matrix-vs-scalar bar is pinned on (8,3), where the scalar
    // reference pays the full per-(row,byte) multiply cost; on (4,2) the
    // scalar path is flattered by the tiny coefficient matrix.
    let (k, width) = (8usize, 64 << 10);
    let data = shards(k, width);
    let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
    let codec = RsCodec::new(k, 3).expect("valid geometry");
    group.throughput(Throughput::Bytes((k * width) as u64));
    group.bench_function("rs8_3_matrix_64KiB", |b| {
        b.iter(|| codec.parity(&refs).expect("valid stripe"))
    });
    group.bench_function("rs8_3_scalar_64KiB", |b| {
        b.iter(|| codec.parity_scalar(&refs).expect("valid stripe"))
    });
    group.finish();
}

/// Decode cost: LU-inverted submatrix applied through the same kernels,
/// for the worst allowed loss pattern (m data shards gone).
fn bench_rs_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_reconstruct");
    let width = 64 << 10;
    for &(k, m) in &[(4usize, 2usize), (8, 3)] {
        let data = shards(k, width);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        let codec = RsCodec::new(k, m).expect("valid geometry");
        let parity = codec.parity(&refs).expect("encode");
        // Lose the first m data shards; survivors are the rest + parity.
        let available: Vec<(usize, &[u8])> = refs
            .iter()
            .enumerate()
            .skip(m)
            .map(|(i, s)| (i, *s))
            .chain(parity.iter().enumerate().map(|(r, p)| (k + r, p.as_slice())))
            .collect();
        group.throughput(Throughput::Bytes((k * width) as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("rs{k}_{m}_lose{m}"), width),
            &available,
            |b, avail| b.iter(|| codec.reconstruct(avail).expect("within tolerance")),
        );
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
    targets = bench_rs_encode, bench_rs_vs_scalar, bench_rs_reconstruct
}
criterion_main!(benches);
