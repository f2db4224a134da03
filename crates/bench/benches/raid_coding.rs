//! RAID coding-layer bench: parity generation and reconstruction
//! throughput for RAID-5 and RAID-6 stripes — geometries (k,1) and (k,2)
//! of the one RS engine (the assurance cost behind E4/E9).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fragcloud_raid::{RaidLevel, RsCodec, StripeCodec};

fn shards(k: usize, width: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..width)
                .map(|b| ((i * 37 + b * 11) % 256) as u8)
                .collect()
        })
        .collect()
}

fn bench_parity(c: &mut Criterion) {
    let mut group = c.benchmark_group("parity_encode");
    let k = 4;
    let raid5 = RsCodec::new(k, 1).expect("valid geometry");
    let raid6 = RsCodec::new(k, 2).expect("valid geometry");
    for &width in &[4 << 10, 64 << 10, 1 << 20] {
        let data = shards(k, width);
        let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
        group.throughput(Throughput::Bytes((k * width) as u64));
        group.bench_with_input(BenchmarkId::new("raid5", width), &refs, |b, refs| {
            b.iter(|| raid5.parity(refs).expect("valid stripe"))
        });
        group.bench_with_input(BenchmarkId::new("raid6", width), &refs, |b, refs| {
            b.iter(|| raid6.parity(refs).expect("valid stripe"))
        });
    }
    group.finish();
}

fn bench_reconstruct(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconstruct");
    let k = 4;
    let width = 64 << 10;
    let data = shards(k, width);

    // RAID-5: one data shard lost.
    let codec5 = StripeCodec::new(k, RaidLevel::Raid5).expect("valid geometry");
    let blob: Vec<u8> = data.concat();
    let enc5 = codec5.encode(&blob).expect("encode");
    let avail5: Vec<(usize, &[u8])> = enc5
        .shards
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 1)
        .map(|(i, s)| (i, s.as_slice()))
        .collect();
    group.throughput(Throughput::Bytes(blob.len() as u64));
    group.bench_function("raid5_one_lost", |b| {
        b.iter(|| codec5.decode(&avail5, blob.len()).expect("decode"))
    });

    // RAID-6: two data shards lost.
    let codec6 = StripeCodec::new(k, RaidLevel::Raid6).expect("valid geometry");
    let enc6 = codec6.encode(&blob).expect("encode");
    let avail6: Vec<(usize, &[u8])> = enc6
        .shards
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != 0 && *i != 2)
        .map(|(i, s)| (i, s.as_slice()))
        .collect();
    group.bench_function("raid6_two_lost", |b| {
        b.iter(|| codec6.decode(&avail6, blob.len()).expect("decode"))
    });
    group.finish();
}

fn bench_gf256(c: &mut Criterion) {
    use fragcloud_raid::gf256;
    let mut group = c.benchmark_group("gf256_mul_acc");
    let data = vec![0xABu8; 1 << 20];
    let mut acc = vec![0u8; 1 << 20];
    group.throughput(Throughput::Bytes(data.len() as u64));
    group.bench_function("1MiB", |b| b.iter(|| gf256::mul_acc(&mut acc, &data, 0x57)));
    group.finish();
}

/// Wide kernels against the retained `*_scalar` references on 64 KiB
/// shards — the speedup claim behind the PR that introduced the kernel
/// dispatch layer.
fn bench_wide_vs_scalar(c: &mut Criterion) {
    use fragcloud_raid::gf256;
    let mut group = c.benchmark_group("wide_vs_scalar");
    let width = 64 << 10;
    let k = 4;
    let data = shards(k, width);
    let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();

    let raid5 = RsCodec::new(k, 1).expect("valid geometry");
    group.throughput(Throughput::Bytes((k * width) as u64));
    group.bench_function("raid5_parity_wide_64KiB", |b| {
        b.iter(|| raid5.parity(&refs).expect("valid stripe"))
    });
    group.bench_function("raid5_parity_scalar_64KiB", |b| {
        b.iter(|| raid5.parity_scalar(&refs).expect("valid stripe"))
    });

    let src: Vec<u8> = (0..width).map(|i| (i * 131 + 17) as u8).collect();
    let mut acc = vec![0u8; width];
    group.throughput(Throughput::Bytes(width as u64));
    group.bench_function("mul_acc_wide_64KiB", |b| {
        b.iter(|| gf256::mul_acc(&mut acc, &src, 0x57))
    });
    group.bench_function("mul_acc_scalar_64KiB", |b| {
        b.iter(|| gf256::mul_acc_scalar(&mut acc, &src, 0x57))
    });
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
    targets = bench_parity, bench_reconstruct, bench_gf256, bench_wide_vs_scalar
}
criterion_main!(benches);
