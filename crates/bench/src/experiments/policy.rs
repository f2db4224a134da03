//! E8 — §VII-B: maintaining privacy levels.
//!
//! Audits the placement invariants over a mixed workload: no chunk ever
//! lands on a provider whose PL is below the chunk's; higher-PL files are
//! split into more, smaller chunks; cheaper providers are preferred among
//! the eligible.

use super::fig3_fleet;
use crate::render_table;
use fragcloud_core::config::DistributorConfig;
use fragcloud_core::{CloudDataDistributor, PrivacyLevel, PutOptions};
use fragcloud_sim::ObjectStore;
use fragcloud_workloads::files;

/// Audit outcome.
#[derive(Debug)]
pub struct PolicyAudit {
    /// Chunk counts per (file PL, provider PL) pair — the placement matrix.
    pub placement_matrix: [[usize; 4]; 4],
    /// Per-PL chunk counts for one 64 KiB file (smaller chunks at high PL).
    pub chunks_per_pl: [usize; 4],
    /// True iff no violation was observed.
    pub clean: bool,
}

/// Runs the audit.
pub fn run() -> (PolicyAudit, String) {
    let fleet = fig3_fleet();
    // Stripe 3+1: fits the four PL-High providers of the Fig. 3 fleet.
    let config = DistributorConfig {
        stripe_width: 3,
        ..Default::default()
    };
    let d = CloudDataDistributor::try_new(fleet.clone(), config).expect("valid config");
    d.register_client("c").expect("fresh");
    d.add_password("c", "p", PrivacyLevel::High)
        .expect("client exists");

    let mut chunks_per_pl = [0usize; 4];
    for (i, pl) in PrivacyLevel::ALL.into_iter().enumerate() {
        let body = files::random_file(64 << 10, i as u64);
        let receipt = d
            .session("c", "p")
            .expect("valid pair")
            .put_file(&format!("f{i}"), &body, pl, PutOptions::new())
            .expect("upload");
        chunks_per_pl[i] = receipt.chunk_count;
    }

    // Exact audit: one PL per fresh fleet, then inspect provider holdings —
    // a provider with PL p must hold zero chunks of any file with PL > p.
    let mut placement_matrix = [[0usize; 4]; 4];
    let mut clean = true;
    for (fi, pl) in PrivacyLevel::ALL.into_iter().enumerate() {
        let fleet = fig3_fleet();
        let d = CloudDataDistributor::try_new(fleet.clone(), config).expect("valid config");
        d.register_client("c").expect("fresh");
        d.add_password("c", "p", PrivacyLevel::High)
            .expect("client exists");
        let body = files::random_file(64 << 10, fi as u64);
        d.session("c", "p")
            .expect("valid pair")
            .put_file("f", &body, pl, PutOptions::new())
            .expect("upload");
        for provider in &fleet {
            let held = provider.len();
            if held > 0 {
                let ppl = provider.profile().privacy_level;
                placement_matrix[pl.as_u8() as usize][ppl.as_u8() as usize] += held;
                if ppl < pl {
                    clean = false;
                }
            }
        }
    }

    let mut rows = Vec::new();
    for (i, matrix_row) in placement_matrix.iter().enumerate() {
        rows.push(vec![
            format!("file PL{i}"),
            matrix_row[0].to_string(),
            matrix_row[1].to_string(),
            matrix_row[2].to_string(),
            matrix_row[3].to_string(),
            chunks_per_pl[i].to_string(),
        ]);
    }
    let mut report = String::from("E8 / §VII-B — privacy-level policy audit\n\n");
    report.push_str(&render_table(
        &[
            "file",
            "on PL0 prov",
            "on PL1 prov",
            "on PL2 prov",
            "on PL3 prov",
            "chunks per 64 KiB",
        ],
        &rows,
    ));
    report.push_str(&format!(
        "\nviolations (chunk on lower-PL provider): {}\n",
        if clean { "none" } else { "FOUND" }
    ));
    report.push_str(
        "higher-PL files split into more, smaller chunks (paper §VII-B/C), and\n\
         sensitive chunks are confined to trusted (high-PL) providers.\n",
    );

    (
        PolicyAudit {
            placement_matrix,
            chunks_per_pl,
            clean,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_violations_and_monotone_chunking() {
        let (audit, report) = run();
        assert!(audit.clean, "policy violated: {:?}", audit.placement_matrix);
        // PL3 files produce more chunks than PL0 files of the same size.
        assert!(audit.chunks_per_pl[3] > audit.chunks_per_pl[0]);
        // Everything of PL3 sits on PL3 providers only.
        assert_eq!(audit.placement_matrix[3][0], 0);
        assert_eq!(audit.placement_matrix[3][1], 0);
        assert_eq!(audit.placement_matrix[3][2], 0);
        assert!(audit.placement_matrix[3][3] > 0);
        // Public data lands on the cheap low-PL providers (cost preference).
        let low_held: usize = audit.placement_matrix[0][..3].iter().sum();
        assert!(low_held > 0, "{:?}", audit.placement_matrix);
        assert!(report.contains("violations"));
    }
}
