//! Integration tests for the runtime telemetry layer: the quickstart
//! summary flow, counters under a scripted mid-read outage, the JSON-lines
//! op-ledger, and counter exactness + span balance under parallel
//! sessions.

use fragcloud::sim::failure::OutageScript;
use fragcloud::sim::{CloudProvider, CostLevel, ProviderProfile};
use fragcloud::telemetry::export::json;
use fragcloud::{
    ChunkSizeSchedule, CloudDataDistributor, DistributorConfig, PrivacyLevel, PutOptions, RaidLevel,
};
use std::sync::Arc;

const FLEET: usize = 16;

fn world(level: RaidLevel) -> (CloudDataDistributor, Vec<Arc<CloudProvider>>) {
    let fleet: Vec<Arc<CloudProvider>> = (0..FLEET)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect();
    let d = CloudDataDistributor::try_new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: 4,
            raid_level: level,
            ..Default::default()
        },
    )
    .expect("valid config");
    d.register_client("c").unwrap();
    d.add_password("c", "pw", PrivacyLevel::High).unwrap();
    (d, fleet)
}

fn body(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 41 + 7) % 251) as u8).collect()
}

/// Indices of the providers holding the most of the client's chunks.
fn top_holders(d: &CloudDataDistributor, n: usize) -> Vec<usize> {
    let counts = d.client_chunks_per_provider("c").unwrap();
    let mut idx: Vec<usize> = (0..counts.len()).collect();
    idx.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    idx.truncate(n);
    idx
}

#[test]
fn quickstart_summary_reports_put_and_get_spans() {
    let (d, _fleet) = world(RaidLevel::Raid5);
    let tel = d.enable_telemetry();
    let session = d.session("c", "pw").unwrap();
    assert!(session.telemetry().is_enabled());

    let data = body(50_000);
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    let r = session.get_file("f").unwrap();
    assert_eq!(r.data, data);

    let reg = tel.registry().unwrap();
    assert_eq!(reg.span_count("put"), 1);
    assert_eq!(reg.span_count("get"), 1);
    assert!(reg.spans_balanced());
    assert_eq!(reg.counter_total("puts_total"), 1);
    assert_eq!(reg.counter_total("gets_total"), 1);
    assert_eq!(reg.counter_total("put_bytes"), data.len() as u64);
    assert_eq!(reg.counter_total("get_bytes"), data.len() as u64);
    // Healthy read: no degraded machinery fired.
    assert_eq!(reg.counter_total("parity_reconstructions"), 0);

    let summary = reg.render_summary();
    for needle in ["put", "get", "puts_total", "gets_total", "stripe_encode_ns"] {
        assert!(
            summary.contains(needle),
            "summary missing {needle:?}:\n{summary}"
        );
    }
    // Provider-level metrics flowed into the same registry.
    assert!(reg.counter_total("provider_puts") > 0);
}

#[test]
fn telemetry_defaults_off_and_handle_is_shared() {
    let (d, fleet) = world(RaidLevel::Raid5);
    assert!(!d.telemetry().is_enabled());
    assert!(!d.session("c", "pw").unwrap().telemetry().is_enabled());
    // Uninstrumented ops work exactly as before.
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &body(10_000), PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    assert!(session.get_file("f").is_ok());

    // Enabling after the fact reaches the providers too.
    let tel = d.enable_telemetry();
    assert!(fleet[0].telemetry().is_enabled());
    session.get_file("f").unwrap();
    assert_eq!(tel.registry().unwrap().counter_total("gets_total"), 1);
}

#[test]
fn mid_read_provider_death_shows_up_in_counters() {
    let (d, fleet) = world(RaidLevel::Raid5);
    let tel = d.enable_telemetry();
    let data = body(100_000);
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();

    // The busiest provider dies two ops into the read (§I's EC2 story).
    let victims = top_holders(&d, 1);
    OutageScript::new()
        .kill_after(victims[0], 2)
        .try_arm(&fleet)
        .expect("victim index is in range");

    let r = session.get_file("f").unwrap();
    assert_eq!(r.data, data);
    assert!(r.reconstructed_chunks > 0);

    let reg = tel.registry().unwrap();
    assert!(
        reg.counter_total("parity_reconstructions") > 0,
        "reconstructions not recorded:\n{}",
        reg.render_summary()
    );
    assert!(
        reg.counter_total("retries_total") > 0,
        "retries not recorded:\n{}",
        reg.render_summary()
    );
    // The dead provider's rejections were attributed to it by name.
    let victim_name = fleet[victims[0]].name().to_string();
    let snap = reg.snapshot();
    assert!(snap.counter("provider_rejected_total", &victim_name) > 0);

    // Repair around the dead provider, then scrub: the session's Chrome
    // trace holds one complete event per span, every verb by name.
    assert!(d.try_repair().unwrap().is_complete());
    assert!(d.scrub().is_healthy());
    let doc = json::parse(&session.export_trace().unwrap()).expect("trace is JSON");
    let events = doc
        .get("traceEvents")
        .and_then(json::Value::as_array)
        .unwrap();
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(json::Value::as_str))
        .collect();
    for verb in ["put", "get", "repair", "scrub"] {
        assert!(names.contains(&verb), "no {verb} span in {names:?}");
    }
    for e in events {
        assert_eq!(e.get("ph").and_then(json::Value::as_str), Some("X"));
        assert!(e.get("ts").is_some() && e.get("dur").is_some());
    }
    assert!(reg.spans_balanced());
}

#[test]
fn op_ledger_exports_parseable_json_lines() {
    let (d, _fleet) = world(RaidLevel::Raid5);
    let tel = d.enable_telemetry();
    let session = d.session("c", "pw").unwrap();
    session
        .put_file("f", &body(20_000), PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    session.get_file("f").unwrap();
    session.get_chunk("f", 0).unwrap();

    let ledger = tel.registry().unwrap().export_jsonl();
    let mut span_names = Vec::new();
    for line in ledger.lines() {
        let v = json::parse(line).unwrap_or_else(|e| panic!("bad ledger line {line:?}: {e}"));
        if v.get("type").unwrap().as_str() == Some("span") {
            span_names.push(v.get("name").unwrap().as_str().unwrap().to_string());
        }
    }
    assert!(span_names.iter().any(|n| n == "put"));
    assert!(span_names.iter().any(|n| n == "get"));
    assert!(span_names.iter().any(|n| n == "get_chunk"));
}

#[test]
fn parallel_sessions_keep_counters_exact_and_spans_balanced() {
    const THREADS: usize = 8;
    const OPS: usize = 6;
    let (d, _fleet) = world(RaidLevel::Raid5);
    let tel = d.enable_telemetry();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let d = &d;
            s.spawn(move || {
                let session = d.session("c", "pw").unwrap();
                for i in 0..OPS {
                    let name = format!("f{t}_{i}");
                    let data = body(8_000 + t * 100 + i);
                    session
                        .put_file(&name, &data, PrivacyLevel::Low, PutOptions::new())
                        .unwrap();
                    let r = session.get_file(&name).unwrap();
                    assert_eq!(r.data, data);
                }
            });
        }
    });

    let reg = tel.registry().unwrap();
    let n = (THREADS * OPS) as u64;
    assert_eq!(reg.counter_total("puts_total"), n);
    assert_eq!(reg.counter_total("gets_total"), n);
    assert_eq!(reg.span_count("put"), n);
    assert_eq!(reg.span_count("get"), n);
    assert!(
        reg.spans_balanced(),
        "span enter/exit imbalance under concurrency"
    );

    let snap = reg.snapshot();
    assert_eq!(snap.span_enters, snap.span_exits);
    // Every put records its simulated latency exactly once.
    assert_eq!(snap.histogram("put_sim_us", "").unwrap().count(), n);
}

/// Every mutating verb shows up by name: a span per verb, `journal_ops_total`
/// labeled by op kind, and recovery's roll counters labeled the same way.
#[test]
fn mutating_verbs_are_spanned_and_journal_ops_are_labeled_by_kind() {
    use fragcloud::core::recover_with;
    use fragcloud::{CoreError, CrashPlan, Journal};

    let (d, fleet) = world(RaidLevel::Raid5);
    let tel = d.enable_telemetry();
    let journal = Arc::new(Journal::new());
    d.attach_journal(Arc::clone(&journal));
    let session = d.session("c", "pw").unwrap();
    let data = body(8 << 10);
    session
        .put_file("f", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    session
        .put_file("g", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    session.update_chunk("f", 1, &body(700)).unwrap();
    session.restore_snapshot("f", 1).unwrap();
    session.remove_chunk("f", 2).unwrap();
    session.remove_file("g").unwrap();

    let reg = tel.registry().unwrap();
    for (span, kind, count) in [
        ("put", "put", 2),
        ("update", "update", 1),
        ("restore", "restore", 1),
        ("remove_chunk", "rmchunk", 1),
        ("remove", "remove", 1),
    ] {
        assert_eq!(reg.span_count(span), count, "span {span}");
        assert_eq!(
            reg.counter_value("journal_ops_total", kind),
            count,
            "journal_ops_total{{{kind}}}"
        );
    }
    assert_eq!(reg.counter_total("journal_ops_total"), 6);
    assert_eq!(reg.counter_total("journal_commits_total"), 6);
    assert!(reg.spans_balanced());

    // Crash an update and a remove_chunk before their first store, and a
    // removal before its rows change: none of them reached its commit, so
    // recovery rolls all three back and h still reads back.
    session
        .put_file("h", &data, PrivacyLevel::Low, PutOptions::new())
        .unwrap();
    for verb in ["update", "rmchunk", "remove"] {
        d.set_crash_plan(Some(Arc::new(CrashPlan::at_point(1))));
        let res = match verb {
            "update" => session.update_chunk("f", 0, &body(300)),
            "rmchunk" => session.remove_chunk("f", 3),
            _ => session.remove_file("h"),
        };
        assert!(
            matches!(res, Err(CoreError::SimulatedCrash { .. })),
            "{verb}"
        );
    }
    let config = *d.config();
    drop(session);
    drop(d);
    let (recovered, report) = recover_with(journal, fleet, config, &tel).unwrap();
    assert_eq!(report.unrecoverable, 0);
    let session = recovered.session("c", "pw").unwrap();
    assert_eq!(session.get_file("h").unwrap().data, data);
    assert_eq!(reg.counter_total("recovery_runs_total"), 1);
    assert_eq!(
        reg.counter_total("recovery_orphans_collected"),
        report.orphans_collected as u64
    );
    assert_eq!(reg.counter_total("recovery_unrecoverable"), 0);
    assert_eq!(reg.span_count("recover"), 1);
}
