//! E1 — Tables I–III + Fig. 3: the application-architecture walkthrough.
//!
//! Reproduces the paper's worked scenario: Bob holds four passwords of
//! increasing privilege; the request `(Bob, x9pr, file1, 0)` succeeds
//! because password PL (1) equals the chunk PL (1); the request
//! `(Bob, aB1c, file1, 0)` is denied because password PL 0 < chunk PL 1.

use super::fig3_fleet;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::{CloudDataDistributor, CoreError, PrivacyLevel, PutOptions};

/// Outcome of the walkthrough.
#[derive(Debug)]
pub struct Fig3Result {
    /// The authorized request's chunk bytes.
    pub authorized_chunk: Vec<u8>,
    /// The denial returned to the under-privileged request.
    pub denied: CoreError,
}

/// Builds the Fig. 3 world and replays both requests.
pub fn run() -> (Fig3Result, String) {
    let distributor = CloudDataDistributor::try_new(
        fig3_fleet(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule {
                sizes: [64, 32, 16, 8],
            },
            stripe_width: 3,
            ..Default::default()
        },
    )
    .expect("valid config");

    // Client Table rows (Table II / Fig. 3).
    distributor.register_client("Bob").expect("fresh world");
    distributor
        .add_password("Bob", "aB1c", PrivacyLevel::Public)
        .expect("Bob exists");
    distributor
        .add_password("Bob", "x9pr", PrivacyLevel::Low)
        .expect("Bob exists");
    distributor
        .add_password("Bob", "6S4r", PrivacyLevel::Moderate)
        .expect("Bob exists");
    distributor
        .add_password("Bob", "Ty7e", PrivacyLevel::High)
        .expect("Bob exists");
    distributor.register_client("Roy").expect("fresh world");
    distributor
        .add_password("Roy", "eV2t", PrivacyLevel::High)
        .expect("Roy exists");

    // Files: Bob's file1 at PL 1 and file2 at PL 2; Roy's file3 at PL 3.
    let file1: Vec<u8> = (0..96u32).map(|i| (i * 3) as u8).collect();
    distributor
        .session("Bob", "Ty7e")
        .expect("valid pair")
        .put_file("file1", &file1, PrivacyLevel::Low, PutOptions::new())
        .expect("upload file1");
    distributor
        .session("Bob", "Ty7e")
        .expect("valid pair")
        .put_file(
            "file2",
            &[7u8; 40],
            PrivacyLevel::Moderate,
            PutOptions::new(),
        )
        .expect("upload file2");
    distributor
        .session("Roy", "eV2t")
        .expect("valid pair")
        .put_file("file3", &[9u8; 24], PrivacyLevel::High, PutOptions::new())
        .expect("upload file3");

    // Scenario 1: (Bob, x9pr, file1, 0) — authorized.
    let authorized_chunk = distributor
        .session("Bob", "x9pr")
        .expect("valid pair")
        .get_chunk("file1", 0)
        .expect("x9pr (PL1) may read a PL1 chunk");

    // Scenario 2: (Bob, aB1c, file1, 0) — denied.
    let denied = distributor
        .session("Bob", "aB1c")
        .expect("valid pair")
        .get_chunk("file1", 0)
        .expect_err("aB1c (PL0) must be refused a PL1 chunk");

    let mut report = String::from("E1 / Fig. 3 — application-architecture walkthrough\n\n");
    report.push_str(&distributor.render_tables());
    report.push_str("\nrequest (Bob, x9pr, file1, 0): GRANTED, ");
    report.push_str(&format!("{} bytes returned\n", authorized_chunk.len()));
    report.push_str(&format!(
        "request (Bob, aB1c, file1, 0): DENIED ({denied})\n"
    ));

    (
        Fig3Result {
            authorized_chunk,
            denied,
        },
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walkthrough_matches_paper() {
        let (res, report) = run();
        assert_eq!(res.authorized_chunk.len(), 32); // PL1 chunk size
        assert_eq!(res.denied, CoreError::AccessDenied);
        assert!(report.contains("GRANTED"));
        assert!(report.contains("DENIED"));
        // All three tables render with the Fig. 3 names.
        for name in ["Adobe", "AWS", "Google", "Microsoft", "Sky", "Sea", "Earth"] {
            assert!(report.contains(name), "missing provider {name}");
        }
        assert!(report.contains("Bob"));
        assert!(report.contains("Roy"));
        assert!(report.contains("file1"));
    }
}
