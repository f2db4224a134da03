//! The §IV-C client-side distributor: no trusted third party — the client
//! runs a distributor of its own, which maps ⟨filename, serial⟩ to
//! providers with a Chord-like hash ring ([`PlacementStrategy::Chord`])
//! and keeps only its own chunk table.
//!
//! ```text
//! cargo run --example client_side_dht
//! ```

use fragcloud::core::tables::{ChunkEntry, FileEntry};
use fragcloud::core::{Geometry, GeometrySchedule};
use fragcloud::dht::ChordRing;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud::{
    CloudDataDistributor, DistributorConfig, PlacementStrategy, PrivacyLevel, PutOptions,
};
use std::mem::size_of;
use std::sync::Arc;

fn main() {
    // The "downloadable list of Cloud Providers".
    let provider_list: Vec<Arc<CloudProvider>> = [
        ("AWS", PrivacyLevel::High),
        ("Google", PrivacyLevel::High),
        ("Azure", PrivacyLevel::High),
        ("Sky", PrivacyLevel::Moderate),
        ("Sea", PrivacyLevel::Low),
        ("Earth", PrivacyLevel::Low),
    ]
    .iter()
    .map(|(n, pl)| {
        Arc::new(CloudProvider::new(ProviderProfile::new(
            *n,
            *pl,
            CostLevel::new(1),
        )))
    })
    .collect();

    // The client's own distributor: one chunk per stripe, placed on the
    // Chord ring of the providers eligible for its privacy level.
    let client = CloudDataDistributor::try_new(
        provider_list.clone(),
        DistributorConfig {
            geometry: Some(GeometrySchedule::uniform(Geometry::new(1, 0))),
            placement: PlacementStrategy::Chord,
            seed: 0xC1_1E47,
            ..Default::default()
        },
    )
    .expect("valid config");
    client.register_client("me").expect("fresh distributor");
    client
        .add_password("me", "diary-key", PrivacyLevel::High)
        .expect("client registered");
    let session = client
        .session("me", "diary-key")
        .expect("password registered");

    // Upload directly from the client — no distributor server involved.
    let diary = b"dear diary, today I bid 21135 on the tender...".repeat(800);
    let chunks = session
        .put_file("diary.txt", &diary, PrivacyLevel::High, PutOptions::new())
        .expect("upload")
        .chunk_count;
    println!("uploaded diary.txt as {chunks} chunks (PL3 -> 4 KiB chunks)");
    println!(
        "client-side table cost: {chunks} entries (~{} bytes of RAM) — the §IV-C trade-off",
        chunks * size_of::<ChunkEntry>() + size_of::<FileEntry>() + "diary.txt".len()
    );

    // PL3 chunks only ever land on PL3 providers.
    for p in &provider_list {
        println!(
            "  {:<7} ({}) holds {} chunks",
            p.name(),
            p.profile().privacy_level,
            p.chunk_count()
        );
    }

    let got = session.get_file("diary.txt").expect("read back").data;
    assert_eq!(got, diary);
    println!("read back {} bytes intact", got.len());

    // The ring itself: routed lookups cost O(log n) hops.
    let mut ring = ChordRing::new(4);
    for i in 0..32 {
        ring.join(&format!("provider-{i}"));
    }
    let trace = ring
        .lookup("provider-0", "diary.txt", 3)
        .expect("ring member");
    println!(
        "\non a 32-node ring, lookup(diary.txt, 3) routed to {} in {} hops",
        trace.owner, trace.hops
    );
}
