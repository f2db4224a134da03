//! Integration test: the paper's Fig. 3 application-architecture
//! walkthrough, driven through the public facade crate.

use fragcloud::core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud::core::{CloudDataDistributor, CoreError, PrivacyLevel, PutOptions};
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use std::sync::Arc;

fn fig3_world() -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    let fleet: Vec<Arc<CloudProvider>> = [
        ("Adobe", PrivacyLevel::High, 3),
        ("AWS", PrivacyLevel::High, 3),
        ("Google", PrivacyLevel::High, 3),
        ("Microsoft", PrivacyLevel::High, 3),
        ("Sky", PrivacyLevel::Moderate, 1),
        ("Sea", PrivacyLevel::Low, 1),
        ("Earth", PrivacyLevel::Low, 1),
    ]
    .iter()
    .map(|(n, pl, cl)| {
        Arc::new(CloudProvider::new(ProviderProfile::new(
            *n,
            *pl,
            CostLevel::new(*cl),
        )))
    })
    .collect();
    let d = CloudDataDistributor::try_new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule {
                sizes: [64, 32, 16, 8],
            },
            stripe_width: 3,
            ..Default::default()
        },
    )
    .expect("valid config");
    // Bob's Table II row: four passwords at PL 0..3.
    d.register_client("Bob").unwrap();
    d.add_password("Bob", "aB1c", PrivacyLevel::Public).unwrap();
    d.add_password("Bob", "x9pr", PrivacyLevel::Low).unwrap();
    d.add_password("Bob", "6S4r", PrivacyLevel::Moderate)
        .unwrap();
    d.add_password("Bob", "Ty7e", PrivacyLevel::High).unwrap();
    // Roy's row.
    d.register_client("Roy").unwrap();
    d.add_password("Roy", "eV2t", PrivacyLevel::High).unwrap();
    (d, fleet)
}

#[test]
fn fig3_grant_and_deny() {
    let (d, _) = fig3_world();
    let file1: Vec<u8> = (0..96u8).collect();
    d.session("Bob", "Ty7e")
        .unwrap()
        .put_file("file1", &file1, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // (Bob, x9pr, file1, 0): password PL 1 == chunk PL 1 → granted.
    let chunk = d
        .session("Bob", "x9pr")
        .unwrap()
        .get_chunk("file1", 0)
        .unwrap();
    assert_eq!(chunk, &file1[..32]);

    // (Bob, aB1c, file1, 0): password PL 0 < chunk PL 1 → denied. The
    // session opens (the pair is valid); §V denies per chunk.
    assert_eq!(
        d.session("Bob", "aB1c")
            .unwrap()
            .get_chunk("file1", 0)
            .unwrap_err(),
        CoreError::AccessDenied
    );
}

#[test]
fn clients_cannot_touch_each_others_files() {
    let (d, _) = fig3_world();
    d.session("Roy", "eV2t")
        .unwrap()
        .put_file("file3", &[9u8; 24], PrivacyLevel::High, PutOptions::new())
        .unwrap();
    // Bob's top password is not listed under Roy: the session never opens.
    assert_eq!(
        d.session("Roy", "Ty7e").unwrap_err(),
        CoreError::AccessDenied
    );
    // And Bob has no file3 of his own.
    assert!(matches!(
        d.session("Bob", "Ty7e").unwrap().get_file("file3"),
        Err(CoreError::UnknownFile { .. })
    ));
}

#[test]
fn providers_see_only_virtual_ids() {
    let (d, fleet) = fig3_world();
    let secret = b"Bob's PL3 secret".repeat(10);
    d.session("Bob", "Ty7e")
        .unwrap()
        .put_file("vault", &secret, PrivacyLevel::High, PutOptions::new())
        .unwrap();
    // No provider-side artifact mentions the client or filename; the only
    // handle is the opaque virtual id list.
    for p in &fleet {
        for vid in p.virtual_id_list() {
            // ids are SplitMix-mixed, never small sequential integers.
            assert!(vid.0 > u32::MAX as u64 || vid.0 == 0 || vid.0 > 1000);
        }
    }
    // PL3 data only on PL3 providers (Table I's trust semantics).
    for p in &fleet {
        if p.profile().privacy_level < PrivacyLevel::High {
            assert_eq!(p.chunk_count(), 0, "{} must hold nothing", p.name());
        }
    }
}

#[test]
fn chunk_count_is_notified_and_serials_addressable() {
    let (d, _) = fig3_world();
    let body = vec![1u8; 100];
    let receipt = d
        .session("Bob", "Ty7e")
        .unwrap()
        .put_file("file2", &body, PrivacyLevel::Moderate, PutOptions::new())
        .unwrap();
    assert_eq!(receipt.chunk_count, 7); // ceil(100 / 16)
    let reader = d.session("Bob", "6S4r").unwrap();
    for sl in 0..receipt.chunk_count as u32 {
        let c = reader.get_chunk("file2", sl).unwrap();
        assert!(!c.is_empty());
    }
    assert!(reader.get_chunk("file2", 7).is_err());
}
