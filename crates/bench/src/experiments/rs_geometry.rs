//! E21 — RS(k,m) geometry sweep + streaming bounded-memory ingest.
//!
//! Three axes:
//!
//! 1. **Raw encode throughput** of the cached-table matrix kernels across
//!    the geometry sweep (k,m) ∈ {(4,2),(8,3),(12,4),(16,4)} × shard
//!    sizes, with the retained scalar reference as baseline on 64 KiB
//!    shards.
//! 2. **End-to-end put latency** per geometry: repeated `put_file` trials
//!    against a uniform fleet, p50/p99 reported and the per-trial wall
//!    times observed into the `rs_put_wall_us` histogram so the JSON
//!    summary carries an interpolated percentiles block.
//! 3. **Streaming ingest**: a ≥ 64 MiB file generated on the fly (the
//!    source is a pattern `Read`er — the file never exists in memory)
//!    through `Session::put_stream`; the receipt's explicit buffer
//!    accounting is asserted against the 2-pipeline-window bound.

use super::uniform_fleet;
use crate::{fnum, render_table};
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, Geometry, GeometrySchedule, PutOptions};
use fragcloud_raid::RsCodec;
use fragcloud_sim::PrivacyLevel;
use fragcloud_telemetry::TelemetryHandle;
use std::time::Instant;

/// The tentpole geometry sweep.
pub const GEOMETRIES: &[(usize, usize)] = &[(4, 2), (8, 3), (12, 4), (16, 4)];
/// Shard widths for the raw-encode axis.
pub const SHARD_SIZES: &[usize] = &[16 << 10, 64 << 10];

const FLEET: usize = 24;
const PUT_FILE_LEN: usize = 256 << 10;
const PUT_TRIALS: usize = 7;
const STREAM_LEN: usize = 64 << 20;
const STREAM_CHUNK: usize = 64 << 10;
const STREAM_GEOMETRY: (usize, usize) = (8, 3);
const STREAM_WORKERS: usize = 4;

/// One row of the raw-encode axis.
#[derive(Debug, Clone)]
pub struct EncodePoint {
    /// Data shards.
    pub k: usize,
    /// Parity shards.
    pub m: usize,
    /// Bytes per shard.
    pub shard_bytes: usize,
    /// Matrix-kernel encode throughput over the data payload.
    pub matrix_mib_s: f64,
    /// Scalar-reference throughput (64 KiB rows only).
    pub scalar_mib_s: Option<f64>,
}

/// One row of the put-latency axis.
#[derive(Debug, Clone)]
pub struct PutPoint {
    /// Data shards.
    pub k: usize,
    /// Parity shards.
    pub m: usize,
    /// Median wall-clock per put, milliseconds.
    pub p50_ms: f64,
    /// Tail wall-clock per put, milliseconds.
    pub p99_ms: f64,
}

/// The streaming-ingest axis.
#[derive(Debug, Clone)]
pub struct StreamPoint {
    /// Bytes streamed.
    pub len: usize,
    /// Wall-clock milliseconds for the whole streaming put.
    pub wall_ms: f64,
    /// Payload throughput.
    pub mib_per_s: f64,
    /// Receipt's explicit buffer accounting.
    pub peak_buffer_bytes: usize,
    /// The 2-pipeline-window bound the peak must stay under.
    pub bound_bytes: usize,
}

/// Generates the stream body without ever materializing it: byte `i` of
/// the file is `(i·131 + 17) mod 256`, same recipe as the buffered
/// experiment bodies.
struct PatternReader {
    pos: usize,
    len: usize,
}

impl std::io::Read for PatternReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.len - self.pos);
        for (j, b) in buf[..n].iter_mut().enumerate() {
            *b = ((self.pos + j).wrapping_mul(131).wrapping_add(17) % 256) as u8;
        }
        self.pos += n;
        Ok(n)
    }
}

fn shards(k: usize, width: usize) -> Vec<Vec<u8>> {
    (0..k)
        .map(|i| {
            (0..width)
                .map(|b| ((i * 37 + b * 11) % 256) as u8)
                .collect()
        })
        .collect()
}

/// Wall-clock MiB/s of `f` applied `iters` times over `payload` bytes.
fn throughput(payload: usize, iters: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let secs = start.elapsed().as_secs_f64().max(1e-9);
    (payload as f64 * iters as f64) / (1 << 20) as f64 / secs
}

fn encode_axis() -> Vec<EncodePoint> {
    let mut points = Vec::new();
    for &(k, m) in GEOMETRIES {
        for &width in SHARD_SIZES {
            let data = shards(k, width);
            let refs: Vec<&[u8]> = data.iter().map(|s| s.as_slice()).collect();
            let codec = RsCodec::new(k, m).expect("valid sweep geometry");
            let payload = k * width;
            // ~32 MiB of work per matrix measurement keeps noise low
            // while the whole sweep stays CI-friendly.
            let iters = ((32 << 20) / payload).max(4);
            let matrix = throughput(payload, iters, || {
                codec.parity(&refs).expect("valid stripe");
            });
            let scalar = (width == 64 << 10).then(|| {
                let iters = ((2 << 20) / payload).max(2);
                throughput(payload, iters, || {
                    codec.parity_scalar(&refs).expect("valid stripe");
                })
            });
            points.push(EncodePoint {
                k,
                m,
                shard_bytes: width,
                matrix_mib_s: matrix,
                scalar_mib_s: scalar,
            });
        }
    }
    points
}

fn put_config(k: usize, m: usize) -> DistributorConfig {
    DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(8 << 10),
        geometry: Some(GeometrySchedule::uniform(Geometry::new(k, m))),
        mislead_rate: 0.05,
        durability: fragcloud_core::DurabilityConfig::default()
            .with_transfer_workers(STREAM_WORKERS),
        ..Default::default()
    }
}

fn put_axis(tel: &TelemetryHandle) -> Vec<PutPoint> {
    let body: Vec<u8> = (0..PUT_FILE_LEN)
        .map(|i| (i.wrapping_mul(131).wrapping_add(17) % 256) as u8)
        .collect();
    GEOMETRIES
        .iter()
        .map(|&(k, m)| {
            let mut walls_ms: Vec<f64> = (0..PUT_TRIALS)
                .map(|t| {
                    let d = CloudDataDistributor::new(uniform_fleet(FLEET), put_config(k, m));
                    d.set_telemetry(tel.clone());
                    d.register_client("c").expect("fresh");
                    d.add_password("c", "pw", PrivacyLevel::High).expect("client");
                    let session = d.session("c", "pw").expect("valid pair");
                    let start = Instant::now();
                    session
                        .put_file("f", &body, PrivacyLevel::Low, PutOptions::new())
                        .expect("upload against a healthy fleet");
                    let ms = start.elapsed().as_secs_f64() * 1e3;
                    tel.observe_labeled(
                        "rs_put_wall_us",
                        &format!("k{k}m{m}"),
                        (ms * 1e3) as u64,
                    );
                    if t == 0 {
                        let got = session.get_file("f").expect("read back");
                        assert_eq!(got.data, body, "round-trip k={k} m={m}");
                    }
                    ms
                })
                .collect();
            walls_ms.sort_by(|a, b| a.total_cmp(b));
            let pick = |q: f64| walls_ms[((walls_ms.len() - 1) as f64 * q).round() as usize];
            PutPoint {
                k,
                m,
                p50_ms: pick(0.50),
                p99_ms: pick(0.99),
            }
        })
        .collect()
}

fn stream_axis(tel: &TelemetryHandle) -> StreamPoint {
    let (k, m) = STREAM_GEOMETRY;
    let config = DistributorConfig {
        chunk_sizes: ChunkSizeSchedule::uniform(STREAM_CHUNK),
        geometry: Some(GeometrySchedule::uniform(Geometry::new(k, m))),
        mislead_rate: 0.02,
        durability: fragcloud_core::DurabilityConfig::default()
            .with_transfer_workers(STREAM_WORKERS),
        ..Default::default()
    };
    let d = CloudDataDistributor::new(uniform_fleet(FLEET), config);
    d.set_telemetry(tel.clone());
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High).expect("client");
    let session = d.session("c", "pw").expect("valid pair");
    let mut reader = PatternReader {
        pos: 0,
        len: STREAM_LEN,
    };
    let start = Instant::now();
    let receipt = session
        .put_stream(
            "big",
            &mut reader,
            STREAM_LEN,
            PrivacyLevel::Low,
            PutOptions::new(),
        )
        .expect("streaming upload against a healthy fleet");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    // The acceptance bound: ≤ 2 pipeline windows, where one window is
    // `transfer_workers` stripes of `k` chunks (at this geometry that is
    // already more than the pipeline's `PUT_WINDOW_BYTES` floor).
    let bound_bytes = 2 * STREAM_WORKERS * k * STREAM_CHUNK;
    assert!(
        receipt.peak_buffer_bytes <= bound_bytes,
        "streaming peak {} exceeded the 2-window bound {}",
        receipt.peak_buffer_bytes,
        bound_bytes
    );
    // Spot-check the tail reads back through reconstruction-capable path.
    let got = session.get_chunk("big", 0).expect("first chunk");
    assert_eq!(got.len(), STREAM_CHUNK);
    StreamPoint {
        len: STREAM_LEN,
        wall_ms,
        mib_per_s: (STREAM_LEN as f64 / (1 << 20) as f64) / (wall_ms / 1e3),
        peak_buffer_bytes: receipt.peak_buffer_bytes,
        bound_bytes,
    }
}

/// Runs the full sweep and renders the report.
pub fn run() -> (Vec<EncodePoint>, String) {
    let (points, _, report, _) = run_all(&TelemetryHandle::disabled());
    (points, report)
}

/// [`run`] with telemetry on; the `experiments` binary embeds the registry
/// snapshot (with the `rs_put_wall_us` percentiles block) in
/// `BENCH_rs_geometry.json`.
pub fn run_instrumented() -> (Vec<EncodePoint>, String, TelemetryHandle) {
    let tel = TelemetryHandle::enabled();
    let (points, _, report, _) = run_all(&tel);
    (points, report, tel)
}

fn run_all(
    tel: &TelemetryHandle,
) -> (Vec<EncodePoint>, Vec<PutPoint>, String, StreamPoint) {
    let encode = encode_axis();
    let puts = put_axis(tel);
    let stream = stream_axis(tel);

    let enc_rows: Vec<Vec<String>> = encode
        .iter()
        .map(|p| {
            vec![
                format!("rs({},{})", p.k, p.m),
                format!("{}", p.shard_bytes >> 10),
                fnum(p.matrix_mib_s),
                p.scalar_mib_s.map_or("-".to_string(), fnum),
                p.scalar_mib_s
                    .map_or("-".to_string(), |s| format!("{:.1}x", p.matrix_mib_s / s)),
            ]
        })
        .collect();
    let put_rows: Vec<Vec<String>> = puts
        .iter()
        .map(|p| {
            vec![
                format!("rs({},{})", p.k, p.m),
                fnum(p.p50_ms),
                fnum(p.p99_ms),
            ]
        })
        .collect();

    let mut report = format!(
        "E21 — RS(k,m) geometry sweep + streaming ingest\n\
         (geometries {GEOMETRIES:?}, shard sizes {:?} KiB,\n\
         {FLEET} providers, {} KiB put bodies x {PUT_TRIALS} trials, stream {} MiB)\n\n\
         encode throughput (matrix kernels vs retained scalar reference):\n",
        SHARD_SIZES.iter().map(|s| s >> 10).collect::<Vec<_>>(),
        PUT_FILE_LEN >> 10,
        STREAM_LEN >> 20,
    );
    report.push_str(&render_table(
        &["geometry", "shard KiB", "matrix MiB/s", "scalar MiB/s", "speedup"],
        &enc_rows,
    ));
    report.push_str(
        "\nrs(4,2) is RAID-6: no dedicated implementation is left to compare with.\n\n\
         put latency by geometry (wall-clock):\n",
    );
    report.push_str(&render_table(&["geometry", "p50 ms", "p99 ms"], &put_rows));
    report.push_str(&format!(
        "\nstreaming ingest: {} MiB through put_stream in {} ms ({} MiB/s);\n\
         peak chunk-buffer {} bytes <= 2-window bound {} bytes (window =\n\
         {} workers x {} x {} KiB chunks) — the whole-file buffer is gone.\n",
        stream.len >> 20,
        fnum(stream.wall_ms),
        fnum(stream.mib_per_s),
        stream.peak_buffer_bytes,
        stream.bound_bytes,
        STREAM_WORKERS,
        STREAM_GEOMETRY.0,
        STREAM_CHUNK >> 10,
    ));
    (encode, puts, report, stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trimmed-down sweep for CI: full `run_all` streams 64 MiB, which
    /// is the binary's job, not the unit suite's. This pins the axes that
    /// make up the report instead.
    #[test]
    fn encode_axis_covers_sweep_and_scalar_baselines() {
        let points = encode_axis();
        assert_eq!(points.len(), GEOMETRIES.len() * SHARD_SIZES.len());
        for p in &points {
            assert!(p.matrix_mib_s > 0.0, "{p:?}");
            assert_eq!(p.scalar_mib_s.is_some(), p.shard_bytes == 64 << 10);
        }
    }

    #[test]
    fn put_axis_reports_percentiles_per_geometry() {
        let tel = TelemetryHandle::enabled();
        let puts = put_axis(&tel);
        assert_eq!(puts.len(), GEOMETRIES.len());
        for p in &puts {
            assert!(p.p50_ms > 0.0 && p.p99_ms >= p.p50_ms, "{p:?}");
        }
        let reg = tel.registry().expect("enabled");
        for &(k, m) in GEOMETRIES {
            assert_eq!(
                reg.histogram("rs_put_wall_us", &format!("k{k}m{m}")).count(),
                PUT_TRIALS as u64
            );
        }
    }

    #[test]
    fn pattern_reader_is_deterministic_and_sized() {
        let mut r = PatternReader { pos: 0, len: 100 };
        let mut buf = Vec::new();
        std::io::Read::read_to_end(&mut r, &mut buf).unwrap();
        let expect: Vec<u8> = (0..100usize)
            .map(|i| (i.wrapping_mul(131).wrapping_add(17) % 256) as u8)
            .collect();
        assert_eq!(buf, expect);
    }
}
