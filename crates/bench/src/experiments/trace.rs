//! `experiments trace` — a small representative workload whose span
//! timeline is exported as Chrome `trace_event` JSON.
//!
//! This is not a sweep: it runs one telemetry-enabled distributor through
//! the interesting op mix (uploads, healthy and degraded reads, a repair
//! pass, a scrub) so the resulting trace shows every span family nested
//! under its parent, then returns the trace document alongside the
//! per-operation latency rollup (self-time vs child-time).

use super::uniform_fleet;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig};
use fragcloud_core::CloudDataDistributor;
use fragcloud_raid::RaidLevel;
use fragcloud_sim::PrivacyLevel;

const FLEET: usize = 8;
const FILES: usize = 4;
const FILE_LEN: usize = 24_000;

/// Runs the workload and returns `(trace_json, report)`: the Chrome
/// `trace_event` document from [`fragcloud_core::Session::export_trace`]
/// and a text report containing the span rollup table.
pub fn run() -> (String, String) {
    let fleet = uniform_fleet(FLEET);
    let d = CloudDataDistributor::try_new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: 4,
            raid_level: RaidLevel::Raid5,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.enable_telemetry();
    d.register_client("tracer").expect("fresh distributor");
    d.add_password("tracer", "pw", PrivacyLevel::High)
        .expect("registered client");
    let session = d.session("tracer", "pw").expect("valid pair");

    for i in 0..FILES {
        let data: Vec<u8> = (0..FILE_LEN).map(|j| ((j * 31 + i) % 251) as u8).collect();
        session
            .put_file(
                &format!("f{i}"),
                &data,
                PrivacyLevel::Low,
                Default::default(),
            )
            .expect("upload against a healthy fleet");
    }
    // Healthy reads.
    session.get_file("f0").expect("healthy read");
    session.get_file("f1").expect("healthy read");

    // Kill a provider, read through the degraded path, then heal.
    fleet[0].set_online(false);
    for i in 0..FILES {
        session
            .get_file(&format!("f{i}"))
            .expect("degraded read must reconstruct through parity");
    }
    d.try_repair().expect("no crash plan armed");
    let health = d.scrub();

    let trace = session
        .export_trace()
        .expect("telemetry was enabled for this run");
    let records = d
        .telemetry()
        .registry()
        .expect("telemetry was enabled for this run")
        .span_records();
    let report = format!(
        "trace — span timeline of a representative workload\n\
         ({FLEET} providers, {FILES} uploads, healthy + degraded reads,\n\
         repair and scrub; {} spans retained, scrub healthy: {})\n\n{}",
        records.len(),
        health.is_healthy(),
        fragcloud_telemetry::render_rollup(&fragcloud_telemetry::rollup(&records)),
    );
    (trace, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fragcloud_telemetry::export::json;

    #[test]
    fn trace_workload_emits_a_loadable_trace_and_rollup() {
        let (trace, report) = run();
        let doc = json::parse(&trace).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(json::Value::as_array)
            .expect("traceEvents array");
        assert!(!events.is_empty(), "workload must retain spans");
        // Every op family the workload exercises appears in the trace.
        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(json::Value::as_str))
            .collect();
        for family in ["put", "get", "repair", "scrub"] {
            assert!(
                names.contains(&family),
                "no {family} span in trace: {names:?}"
            );
        }
        for e in events {
            assert_eq!(
                e.get("ph").and_then(json::Value::as_str),
                Some("X"),
                "complete events only"
            );
            assert!(e.get("ts").is_some() && e.get("dur").is_some());
        }
        // The rollup reports per-name latency with parent-edge attribution.
        assert!(report.contains("self"), "rollup self-time column:\n{report}");
        assert!(
            report.contains("child"),
            "rollup child-time column:\n{report}"
        );
        assert!(report.contains("scrub healthy: true"), "{report}");
    }
}
