//! Shared by the integration tests: run the built `fragperf` binary with
//! `--quick` sizes and read back its result line.

// Each test crate uses its own subset of these helpers.
#![allow(dead_code)]

use fragcloud_telemetry::export::json::{self, Value};
use std::collections::BTreeMap;
use std::process::Command;

pub const SINGLE_THREAD: [&str; 3] = ["bulk_public", "bulk_private", "degraded_read"];

pub struct Run {
    pub stdout: String,
    pub result: Value,
}

impl Run {
    /// `name -> (value, unit)` of the result line's metrics.
    pub fn metrics(&self) -> BTreeMap<String, (f64, String)> {
        let metrics = self.result.get("metrics").and_then(Value::as_object);
        metrics
            .expect("result line has a metrics object")
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Value::Num(v)) => *v,
                    other => panic!("{name}: value is {other:?}"),
                };
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), (value, unit.to_string()))
            })
            .collect()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics()
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} missing"))
            .0
    }
}

/// Runs one quick pass of `workload` and parses the last stdout line.
pub fn quick(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_fragperf"))
        .args(["--workload", workload, "--quick", "--seconds", "0.2"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("fragperf runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("some output");
    let result =
        json::parse(last).unwrap_or_else(|e| panic!("last line is not JSON ({e}): {last}"));
    Run { stdout, result }
}
