//! `--selfcheck` and `--baseline-out`: run the single-workload command as
//! child processes, one at a time, and compare or record what they print.
//!
//! Children rather than loops in this process because that is how the
//! driver runs the benchmark: `peak_rss_mib` is a high-water mark of the
//! process, and a fresh process per run is the only way each workload gets
//! its own.

use crate::spec::{self, MetricSpec, END_TO_END, PER_LAYER};
use crate::Cli;
use fragcloud_telemetry::export::json::{self, Value};
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

type Metrics = BTreeMap<String, f64>;

/// Runs `fragperf --workload w ... --trace t` and returns the metrics of
/// its last output line.
fn child(cli: &Cli, workload: &str, traced: bool) -> Result<Metrics, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cli.opts.seed.to_string()])
        .args(["--seconds", &cli.opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if cli.opts.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end before returning.
    let out = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(last).map_err(|e| {
        format!(
            "{workload} trace={}: no result line ({e}); stderr: {}",
            u8::from(traced),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if parsed.get("correct") != Some(&Value::Bool(true)) || !out.status.success() {
        return Err(format!(
            "{workload} trace={}: run was not correct: {last}",
            u8::from(traced)
        ));
    }
    let metrics = parsed
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result line has no metrics object")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| match m.get("value") {
            Some(Value::Num(v)) => Some((name.clone(), *v)),
            _ => None,
        })
        .collect())
}

fn selected(cli: &Cli) -> Vec<&'static str> {
    match cli.workload {
        Some(w) => vec![w],
        None => spec::workload_names().collect(),
    }
}

/// One full set: every selected workload, end-to-end then traced.
fn run_set(cli: &Cli) -> Result<BTreeMap<&'static str, Metrics>, String> {
    let mut set = BTreeMap::new();
    for w in selected(cli) {
        eprintln!("fragperf: {w} ...");
        let mut m = child(cli, w, false)?;
        m.extend(child(cli, w, true)?);
        set.insert(w, m);
    }
    Ok(set)
}

/// Runs the set twice and prints, for every gated metric, how far the two
/// runs of the same code are apart beside the bound. A benchmark whose own
/// repeats differ by more than its bound cannot judge a change.
pub fn selfcheck(cli: &Cli) -> ExitCode {
    let (first, second) = match run_set(cli).and_then(|a| Ok((a, run_set(cli)?))) {
        Ok(sets) => sets,
        Err(e) => {
            eprintln!("fragperf: selfcheck: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{:<16} {:<22} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    let mut worst_ok = true;
    for w in selected(cli) {
        let gated = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .filter(|s: &&MetricSpec| s.gates(w));
        for s in gated {
            let (a, b) = (first[w][s.name], second[w][s.name]);
            let diff = if a == 0.0 {
                f64::from(u8::from(b != 0.0))
            } else {
                ((b - a) / a).abs()
            };
            let bound = s.bound.unwrap_or_default();
            let ok = diff <= bound;
            worst_ok &= ok;
            println!(
                "{:<16} {:<22} {:>14.4} {:>14.4} {:>8.4} {:>6.2}  {}",
                w,
                s.name,
                a,
                b,
                diff,
                bound,
                if ok { "ok" } else { "EXCEEDS BOUND" }
            );
        }
    }
    if worst_ok {
        println!("selfcheck: two sets of runs agree within every bound");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: FAILED");
        ExitCode::FAILURE
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn object(metrics: &Metrics, specs: &[MetricSpec], indent: &str) -> String {
    let rows: Vec<String> = specs
        .iter()
        .filter_map(|s| {
            metrics.get(s.name).map(|v| {
                format!(
                    "{indent}  {}: {{\"value\": {}, \"unit\": {}, \"clock\": {}}}",
                    json::quote(s.name),
                    crate::report::json_number(*v),
                    json::quote(s.unit),
                    json::quote(s.clock.tag())
                )
            })
        })
        .collect();
    format!("{{\n{}\n{indent}}}", rows.join(",\n"))
}

/// Writes one trajectory row: host fingerprint plus every metric of every
/// workload, for a later `compare` to read.
pub fn baseline(cli: &Cli, path: &str) -> ExitCode {
    let set = match run_set(cli) {
        Ok(set) => set,
        Err(e) => {
            eprintln!("fragperf: baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_rate = |name: &str| {
        let xs: Vec<f64> = set.values().filter_map(|m| m.get(name).copied()).collect();
        crate::harness::median(&xs)
    };
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let workloads: Vec<String> = set
        .iter()
        .map(|(w, m)| {
            format!(
                "    {}: {{\n      \"end_to_end\": {},\n      \"per_layer\": {}\n    }}",
                json::quote(w),
                object(m, END_TO_END, "      "),
                object(m, PER_LAYER, "      ")
            )
        })
        .collect();
    let doc = format!(
        "{{\n  \"label\": {},\n  \"host\": {{\"nproc\": {nproc}, \"cpu_model\": {}, \"host.memcpy_gib_s\": {}, \"host.chacha20_gib_s\": {}}},\n  \"seed\": {},\n  \"seconds\": {},\n  \"quick\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        json::quote(&cli.label),
        json::quote(&cpu_model()),
        crate::report::json_number(host_rate("host.memcpy_gib_s")),
        crate::report::json_number(host_rate("host.chacha20_gib_s")),
        cli.opts.seed,
        cli.opts.seconds,
        cli.opts.quick,
        workloads.join(",\n")
    );
    match std::fs::write(path, doc) {
        Ok(()) => {
            println!("baseline written to {path}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fragperf: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
