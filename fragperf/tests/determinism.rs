//! What is modelled or counted must repeat exactly: two runs with one
//! seed agree to the last digit on every `sim`/`count` number of the
//! single-thread workloads, and a different seed changes the bytes but not
//! how many operations they take.

mod common;

/// Modelled times and tallies read off receipts and `ProviderStats`.
const EXACT_PER_LAYER: [&str; 12] = [
    "put_sim_ms",
    "get_sim_ms",
    "mislead.expansion",
    "sim.provider.puts_per_user_put",
    "sim.provider.gets_per_user_get",
    "sim.provider.bytes_in_per_user_byte",
    "sim.provider.bytes_out_per_user_byte",
    "sim.provider.rejected_total",
    "resilience.reconstructed_chunks_per_get",
    "resilience.degraded_chunks_per_get",
    "resilience.retries_per_get",
    "failed_ops_share",
];

#[test]
fn one_seed_gives_identical_sim_and_count_metrics() {
    for workload in common::SINGLE_THREAD {
        let (a, b) = (
            common::quick(workload, 11, 1),
            common::quick(workload, 11, 1),
        );
        for name in EXACT_PER_LAYER {
            assert_eq!(a.value(name), b.value(name), "{workload}: {name}");
        }
        let (a, b) = (
            common::quick(workload, 11, 0),
            common::quick(workload, 11, 0),
        );
        assert_eq!(a.value("space_amp"), b.value("space_amp"), "{workload}");
    }
}

#[test]
fn degraded_read_reconstructs_chunks() {
    // The determinism above must not be the determinism of zeros.
    let run = common::quick("degraded_read", 11, 1);
    assert!(run.value("resilience.reconstructed_chunks_per_get") > 0.0);
    assert!(run.value("sim.provider.rejected_total") > 0.0);
}

#[test]
fn another_seed_changes_inputs_but_not_op_counts() {
    // small_journaled too: its op list's shape comes from a constant, and
    // how two threads interleave does not change how many provider ops the
    // same verbs issue.
    for workload in ["bulk_public", "bulk_private", "small_journaled"] {
        let (a, b) = (
            common::quick(workload, 11, 1),
            common::quick(workload, 12, 1),
        );
        for name in [
            "sim.provider.puts_per_user_put",
            "sim.provider.gets_per_user_get",
        ] {
            assert!(a.value(name) > 0.0, "{workload}: {name} is 0");
            assert_eq!(a.value(name), b.value(name), "{workload}: {name}");
        }
        let name = "sim.provider.bytes_in_per_user_byte";
        assert_ne!(a.value(name), b.value(name), "{workload}: {name}");
    }
}
