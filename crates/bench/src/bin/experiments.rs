//! CLI that regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! experiments <name>      run one experiment
//! experiments all         run everything (the EXPERIMENTS.md input)
//! experiments list        list experiment names
//! ```
//!
//! Besides printing the human-readable report, every run writes a
//! machine-readable `BENCH_<name>.json` summary (to `$BENCH_OUT_DIR`, or
//! the current directory) containing the report text and — for
//! instrumented experiments such as `degraded` — the telemetry registry
//! snapshot, so CI can assert on counters instead of scraping tables.
//!
//! Experiments that declare SLO gates ([`exp::degraded::slos`],
//! [`exp::recovery::slos`]) have them evaluated against the run's
//! registry snapshot: the outcomes are appended to the report, embedded
//! in the JSON summary, and a failing gate makes the process exit 3 —
//! CI gates on the exit code rather than re-deriving thresholds in jq.

use fragcloud_bench::{experiments as exp, write_summary};
use fragcloud_telemetry::slo::{self, SloSpec};
use fragcloud_telemetry::RegistrySnapshot;

const NAMES: &[(&str, &str)] = &[
    ("fig3", "E1: Tables I-III + Fig. 3 walkthrough"),
    (
        "table4",
        "E2: Table IV regression attack, full vs fragments",
    ),
    ("fig456", "E3: Figs. 4-6 GPS clustering dendrograms"),
    ("disttime", "E4: distribution/retrieval time sweep"),
    ("chunksize", "E6: chunk size vs mining success"),
    ("mislead", "E7: misleading-data rate sweep"),
    ("policy", "E8: privacy-level placement audit"),
    ("availability", "E9: availability under outages"),
    ("dht", "E10: Chord client-side distributor"),
    ("encvsfrag", "E11: encryption vs fragmentation"),
    ("attacker", "E12: k-of-n provider compromise"),
    ("classify", "E13: prediction attacks vs fragment fraction"),
    ("cost", "E14: storage-cost comparison"),
    ("ablation", "E15: redundancy ablation"),
    (
        "rules",
        "E16: Apriori rule recall vs k compromised providers",
    ),
    (
        "segmentation",
        "E17: customer-segmentation attack vs fragment fraction",
    ),
    (
        "degraded",
        "E18: degraded-mode availability vs provider failure rate",
    ),
    (
        "recovery",
        "E20: journaling overhead + crash/recover replay",
    ),
    (
        "chaos",
        "E22: Byzantine chaos matrix - integrity, read-repair, breakers",
    ),
];

/// One experiment's output: report text, optional registry snapshot, and
/// the SLO specs (if any) to evaluate against that snapshot.
struct RunOutput {
    report: String,
    telemetry: Option<RegistrySnapshot>,
    slos: Vec<SloSpec>,
}

impl RunOutput {
    fn plain(report: String) -> Self {
        RunOutput {
            report,
            telemetry: None,
            slos: Vec::new(),
        }
    }
}

fn run_one(name: &str) -> Option<RunOutput> {
    Some(match name {
        "fig3" => RunOutput::plain(exp::fig3::run().1),
        "table4" => RunOutput::plain(exp::table4::run().1),
        "fig456" => RunOutput::plain(exp::fig456::run().1),
        "disttime" => RunOutput::plain(exp::disttime::run().1),
        "chunksize" => RunOutput::plain(exp::chunksize::run().1),
        "mislead" => RunOutput::plain(exp::mislead::run().1),
        "policy" => RunOutput::plain(exp::policy::run().1),
        "availability" => RunOutput::plain(exp::availability::run().1),
        "dht" => RunOutput::plain(exp::dht::run().1),
        "encvsfrag" => RunOutput::plain(exp::encvsfrag::run().1),
        "attacker" => RunOutput::plain(exp::attacker::run().1),
        "classify" => RunOutput::plain(exp::classify::run().1),
        "cost" => RunOutput::plain(exp::cost::run().1),
        "ablation" => RunOutput::plain(exp::ablation::run().1),
        "rules" => RunOutput::plain(exp::rules::run().1),
        "segmentation" => RunOutput::plain(exp::segmentation::run().1),
        "degraded" => {
            let (_, report, tel) = exp::degraded::run_instrumented();
            RunOutput {
                report,
                telemetry: tel.registry().map(|r| r.snapshot()),
                slos: exp::degraded::slos(),
            }
        }
        "recovery" => {
            let (_, report, tel) = exp::recovery::run_instrumented();
            RunOutput {
                report,
                telemetry: tel.registry().map(|r| r.snapshot()),
                slos: exp::recovery::slos(),
            }
        }
        "chaos" => {
            let (_, report, tel) = exp::chaos::run_instrumented();
            RunOutput {
                report,
                telemetry: tel.registry().map(|r| r.snapshot()),
                slos: exp::chaos::slos(),
            }
        }
        _ => return None,
    })
}

/// Runs one experiment, writes its JSON summary, and returns the report
/// plus whether every declared SLO gate passed.
fn run_and_export(name: &str) -> Option<(String, bool)> {
    let out = run_one(name)?;
    let mut report = out.report;
    let outcomes = match (&out.telemetry, out.slos.is_empty()) {
        (Some(snap), false) => slo::evaluate(&out.slos, snap),
        _ => Vec::new(),
    };
    if !outcomes.is_empty() {
        report.push('\n');
        report.push_str(&slo::render(&outcomes));
    }
    match write_summary(name, &report, out.telemetry.as_ref(), &outcomes) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write BENCH_{name}.json: {e}"),
    }
    Some((report, slo::all_pass(&outcomes)))
}

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "list".to_string());
    let mut gates_ok = true;
    match arg.as_str() {
        "list" => {
            println!("available experiments:");
            for (name, desc) in NAMES {
                println!("  {name:<14} {desc}");
            }
            println!("  all            run every experiment");
        }
        "all" => {
            for (name, _) in NAMES {
                let (report, ok) = run_and_export(name).expect("known name");
                gates_ok &= ok;
                println!("{}", "=".repeat(78));
                println!("{report}");
            }
        }
        name => match run_and_export(name) {
            Some((report, ok)) => {
                gates_ok = ok;
                println!("{report}");
            }
            None => {
                eprintln!("unknown experiment {name:?}; try `experiments list`");
                std::process::exit(2);
            }
        },
    }
    if !gates_ok {
        eprintln!("one or more SLO gates failed");
        std::process::exit(3);
    }
}
