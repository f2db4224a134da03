//! `fragperf` — the repository's benchmark.
//!
//! ```text
//! fragperf --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! fragperf --selfcheck [--workload <name>] [--quick]
//! fragperf --baseline-out <path> [--quick]
//! fragperf --list | --benchmark-json
//! ```
//!
//! One invocation runs one workload in one process and ends its standard
//! output with one JSON object: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. `--selfcheck` and
//! `--baseline-out` run that same command as child processes, one
//! workload at a time, the way the driver does. See `README.md`.

mod alloc_count;
mod harness;
mod orchestrate;
mod replay;
mod report;
mod spec;
mod workloads;

use report::{Report, Traced};
use std::process::ExitCode;
use workloads::Opts;

#[global_allocator]
static ALLOC: alloc_count::Counting = alloc_count::Counting;

/// Parsed command line.
pub struct Cli {
    pub workload: Option<&'static str>,
    pub opts: Opts,
    pub traced: bool,
    pub selfcheck: bool,
    pub list: bool,
    pub benchmark_json: bool,
    pub trace_out: Option<String>,
    pub baseline_out: Option<String>,
    /// Names the commit a baseline row was measured on.
    pub label: String,
}

const USAGE: &str = "usage: fragperf --workload <name> [--seed <u64>] [--seconds <n>] \
[--trace <0|1> | --traced] [--quick] [--trace-out <path>]\n       \
fragperf --selfcheck [--workload <name>] [--seed <u64>] [--seconds <n>] [--quick]\n       \
fragperf --baseline-out <path> [--label <text>] [--seed <u64>] [--seconds <n>] [--quick]\n       \
fragperf --list | --benchmark-json";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 1,
            seconds: 10.0,
            quick: false,
        },
        traced: false,
        selfcheck: false,
        list: false,
        benchmark_json: false,
        trace_out: None,
        baseline_out: None,
        label: "unlabelled".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let known = spec::workload_names().find(|n| *n == name);
                cli.workload = Some(known.ok_or_else(|| {
                    let names: Vec<_> = spec::workload_names().collect();
                    format!("unknown workload {name:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => {
                cli.opts.seed = value("a u64")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.opts.seconds = s;
            }
            "--trace" => {
                cli.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--traced" => cli.traced = true,
            "--quick" => cli.opts.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--list" => cli.list = true,
            "--benchmark-json" => cli.benchmark_json = true,
            "--trace-out" => cli.trace_out = Some(value("a path")?),
            "--baseline-out" => cli.baseline_out = Some(value("a path")?),
            "--label" => cli.label = value("a label for the baseline row")?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// Runs one workload in this process.
fn run_workload(workload: &'static str, cli: &Cli) -> Report {
    let opts = cli.opts;
    if !cli.traced {
        let pass = workloads::run(workload, &opts, false);
        return Report {
            workload,
            seed: opts.seed,
            attempted: pass.all.attempted,
            failed: pass.all.failed,
            errors: pass.all.errors.clone(),
            rows: report::end_to_end(&pass),
            memcpy_gib_s: None,
        };
    }

    // The traced run: the workload once untraced (the base the traced
    // numbers are compared with), once with telemetry and allocation
    // counting on, then the layer replay. Half the budget each.
    let half = Opts {
        seconds: opts.seconds / 2.0,
        ..opts
    };
    let untraced = workloads::run(workload, &half, false);
    let traced = workloads::run(workload, &half, true);
    let input = untraced
        .replay
        .as_ref()
        .expect("every workload names a file to replay");
    let replay = replay::run(input, opts.seed);
    let rows = report::per_layer(
        &untraced,
        &Traced {
            pass: &traced,
            replay: &replay,
            span_ns: replay::span_ns(),
            allocs: alloc_count::totals(),
            proc: harness::ProcStat::read(),
        },
    );

    if let Some(reg) = traced.registries.first() {
        println!("# span rollup of the first traced epoch");
        print!(
            "{}",
            fragcloud_telemetry::render_rollup(&fragcloud_telemetry::rollup(&reg.span_records()))
        );
        if let Some(path) = &cli.trace_out {
            match reg.write_trace(std::path::Path::new(path)) {
                Ok(()) => println!("# Chrome trace written to {path}"),
                Err(e) => eprintln!("fragperf: cannot write {path}: {e}"),
            }
        }
    }
    let mut errors = untraced.all.errors.clone();
    errors.extend(traced.all.errors.iter().cloned());
    Report {
        workload,
        seed: opts.seed,
        attempted: untraced.all.attempted + traced.all.attempted,
        failed: untraced.all.failed + traced.all.failed,
        errors,
        rows,
        memcpy_gib_s: replay.values.get("host.memcpy_gib_s").copied(),
    }
}

fn main() -> ExitCode {
    alloc_count::pin_malloc_thresholds();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("fragperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.list {
        for (name, why) in spec::WORKLOADS {
            println!("{name}\t{why}");
        }
        return ExitCode::SUCCESS;
    }
    if cli.benchmark_json {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if cli.selfcheck {
        return orchestrate::selfcheck(&cli);
    }
    if let Some(path) = &cli.baseline_out {
        return orchestrate::baseline(&cli, path);
    }
    let Some(workload) = cli.workload else {
        eprintln!("fragperf: --workload is required\n{USAGE}");
        return ExitCode::from(2);
    };

    let report = run_workload(workload, &cli);
    report.print_table();
    let cpu = harness::ProcStat::read();
    if cpu.sys_s > cpu.user_s {
        println!(
            "# NOISY: sys {:.2}s exceeds user {:.2}s; this run mostly measured the kernel",
            cpu.sys_s, cpu.user_s
        );
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
