//! Experiment modules (E1–E22; see DESIGN.md §4 for the index): the
//! paper's artifacts, privacy and availability results. Whole-verb
//! throughput is the `fragperf` benchmark's, not measured here.

pub mod ablation;
pub mod attacker;
pub mod availability;
pub mod chaos;
pub mod chunksize;
pub mod classify;
pub mod cost;
pub mod degraded;
pub mod dht;
pub mod disttime;
pub mod encvsfrag;
pub mod fig3;
pub mod fig456;
pub mod mislead;
pub mod policy;
pub mod recovery;
pub mod rules;
pub mod segmentation;
pub mod table4;

/// Standard test fleet mirroring Fig. 3's Cloud Provider Table: four
/// trusted premium providers and three cheap lower-trust ones.
pub fn fig3_fleet() -> Vec<std::sync::Arc<fragcloud_sim::CloudProvider>> {
    use fragcloud_sim::{CloudProvider, CostLevel, PrivacyLevel, ProviderProfile};
    use std::sync::Arc;
    [
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
    .collect()
}

/// A uniform fleet of `n` PL-High providers for throughput experiments.
pub fn uniform_fleet(n: usize) -> Vec<std::sync::Arc<fragcloud_sim::CloudProvider>> {
    use fragcloud_sim::{CloudProvider, CostLevel, PrivacyLevel, ProviderProfile};
    use std::sync::Arc;
    (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i:02}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}
