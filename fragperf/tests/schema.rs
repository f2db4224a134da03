//! `/BENCHMARK.json` and the binary must tell the same story: every
//! declared workload and metric is emitted with its unit and a clock tag,
//! nothing undeclared is emitted, and the file obeys the driver's limits.

mod common;

use fragcloud_telemetry::export::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 << 10, "BENCHMARK.json exceeds 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Value) -> Vec<String> {
    let items = list.as_array().expect("a list");
    items
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn name_ok(s: &str) -> bool {
    let first_ok = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
    first_ok
        && s.len() <= 64
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn committed_file_is_what_the_binary_declares() {
    let out = Command::new(env!("CARGO_BIN_EXE_fragperf"))
        .arg("--benchmark-json")
        .output()
        .expect("fragperf runs");
    let declared = json::parse(&String::from_utf8(out.stdout).expect("utf-8")).expect("JSON");
    assert_eq!(
        benchmark_json(),
        declared,
        "regenerate with `fragperf --benchmark-json > BENCHMARK.json`"
    );
}

#[test]
fn file_obeys_the_drivers_limits() {
    let b = benchmark_json();
    let keys: BTreeSet<&str> = b
        .as_object()
        .expect("object")
        .keys()
        .map(String::as_str)
        .collect();
    let expected = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    assert_eq!(keys, expected.into_iter().collect());

    let workloads = names(b.get("workloads").expect("workloads"));
    assert!((2..=8).contains(&workloads.len()));
    for w in b.get("workloads").and_then(Value::as_array).expect("list") {
        let why = w.get("why").and_then(Value::as_str).expect("why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "why too long: {why}"
        );
    }
    let e2e = b.get("end_to_end").expect("end_to_end");
    let layers = b.get("per_layer").expect("per_layer");
    assert!((1..=16).contains(&names(e2e).len()));
    assert!((1..=128).contains(&names(layers).len()));

    let mut seen = BTreeSet::new();
    for name in workloads.iter().chain(&names(e2e)).chain(&names(layers)) {
        assert!(name_ok(name), "bad name {name:?}");
        assert!(seen.insert(name.clone()), "name {name:?} used twice");
    }
    for m in e2e.as_array().expect("list") {
        let bound = match m.get("bound") {
            Some(Value::Num(b)) => *b,
            other => panic!("bound is {other:?}"),
        };
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for m in e2e
        .as_array()
        .into_iter()
        .chain(layers.as_array())
        .flatten()
    {
        assert!(unit_ok(
            m.get("unit").and_then(Value::as_str).expect("unit")
        ));
        let better = m.get("better").and_then(Value::as_str).expect("better");
        assert!(better == "higher" || better == "lower");
    }
    let setup = e2e
        .as_array()
        .expect("list")
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"));
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
}

/// Every workload, both trace modes, at `--quick` sizes: the result line
/// has exactly the four keys, exactly the declared metrics with the
/// declared units, and the table tags every row with a clock.
#[test]
fn every_declared_metric_is_emitted_and_nothing_else() {
    let b = benchmark_json();
    for workload in names(b.get("workloads").expect("workloads")) {
        for (trace, section) in [(0u8, "end_to_end"), (1, "per_layer")] {
            let run = common::quick(&workload, 3, trace);
            let keys: Vec<&str> = run
                .result
                .as_object()
                .expect("object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(run.result.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(run.result.get("failed").and_then(Value::as_u64), Some(0));
            assert!(run.result.get("attempted").and_then(Value::as_u64) >= Some(1));

            let emitted = run.metrics();
            let declared = b.get(section).and_then(Value::as_array).expect("list");
            let declared_names: BTreeSet<String> =
                names(b.get(section).expect("list")).into_iter().collect();
            let emitted_names: BTreeSet<String> = emitted.keys().cloned().collect();
            assert_eq!(emitted_names, declared_names, "{workload} trace={trace}");
            for m in declared {
                let name = m.get("name").and_then(Value::as_str).expect("name");
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                let (value, emitted_unit) = &emitted[name];
                assert_eq!(emitted_unit, unit, "{workload}: unit of {name}");
                assert!(value.is_finite(), "{workload}: {name} is {value}");
                if trace == 0 {
                    assert!(*value > 0.0, "{workload}: end-to-end {name} is {value}");
                }
                let row = run
                    .stdout
                    .lines()
                    .find(|l| l.split_whitespace().next() == Some(name));
                let row = row.unwrap_or_else(|| panic!("{workload}: no table row for {name}"));
                let tagged = ["wall", "sim", "count"]
                    .iter()
                    .any(|t| row.split_whitespace().any(|w| w == *t));
                assert!(tagged, "{workload}: row for {name} has no clock tag: {row}");
            }
        }
    }
}
