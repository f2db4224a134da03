//! E7 — §VII-D: misleading data.
//!
//! "Addition of misleading data affects mining results … Such data often
//! lead to mining failure. Misleading data enhances security, but it has
//! some overhead associated with retrieving data."
//!
//! Sweep the injection rate: the attacker mines the *stored* chunk bytes
//! (misleading bytes included — only the distributor knows the positions);
//! the client measures retrieval overhead.

use crate::{fnum, render_table};
use fragcloud_core::mislead as ml;
use fragcloud_mining::regression::RegressionModel;
use fragcloud_mining::Dataset;
use fragcloud_workloads::bidding::{self, BiddingConfig, COLUMNS, PREDICTORS, RESPONSE};
use fragcloud_workloads::records;
use std::time::Instant;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct MisleadPoint {
    /// Injection rate.
    pub rate: f64,
    /// Rows the attacker manages to scavenge from the polluted bytes.
    pub scavenged_rows: usize,
    /// Whether the attacker's fit succeeded at all.
    pub fit_succeeded: bool,
    /// Mean relative slope error of the attacker's fit (NaN if no fit).
    pub slope_err: f64,
    /// Client-side strip time per MiB, microseconds (the retrieval
    /// overhead §VII-D warns about).
    pub strip_us_per_mib: f64,
}

/// Timed strips per sweep point; the reported cost is their median.
const STRIP_REPS: usize = 101;

/// Runs the misleading-byte sweep.
pub fn run() -> (Vec<MisleadPoint>, String) {
    let cfg = BiddingConfig {
        rows: 300,
        noise_std: 60.0,
        ..Default::default()
    };
    let data = bidding::generate(cfg);
    let bytes = records::encode(&data);
    let rates = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2];
    let mut points = Vec::new();

    for &rate in &rates {
        let (stored, positions) = ml::inject(&bytes, rate, 0xE7);
        // Attacker: parse rows straight out of the stored bytes.
        let rows = records::scavenge_rows(&stored, COLUMNS.len());
        let scavenged_rows = rows.len();
        let (fit_succeeded, slope_err) = if rows.len() >= 5 {
            let ds = Dataset::from_rows(COLUMNS.iter().map(|s| s.to_string()).collect(), rows)
                .expect("width checked by scavenger");
            match RegressionModel::fit(&ds, &PREDICTORS, RESPONSE) {
                Ok(m) => {
                    let err = m
                        .slopes()
                        .iter()
                        .zip(cfg.slopes)
                        .map(|(got, want)| (got - want).abs() / want.abs())
                        .sum::<f64>()
                        / 3.0;
                    (true, err)
                }
                Err(_) => (false, f64::NAN),
            }
        } else {
            (false, f64::NAN)
        };

        // Client: strip cost, the median of repeated strips. One strip of
        // the ~23 KB history takes a few microseconds, so a single timing
        // rounded to whole microseconds moves in 44 us/MiB steps.
        assert_eq!(
            ml::strip(&stored, &positions),
            bytes,
            "strip must invert inject"
        );
        let mut samples: Vec<f64> = (0..STRIP_REPS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(ml::strip(&stored, &positions));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        let strip_us = samples[STRIP_REPS / 2];
        let mib = stored.len() as f64 / (1 << 20) as f64;
        points.push(MisleadPoint {
            rate,
            scavenged_rows,
            fit_succeeded,
            slope_err,
            strip_us_per_mib: strip_us / mib.max(1e-9),
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                format!("{:.3}", p.rate),
                p.scavenged_rows.to_string(),
                p.fit_succeeded.to_string(),
                if p.slope_err.is_nan() {
                    "n/a".to_string()
                } else {
                    fnum(p.slope_err)
                },
                fnum(p.strip_us_per_mib),
            ]
        })
        .collect();
    let mut report = String::from(
        "E7 / §VII-D — misleading-byte injection vs attacker success and client cost\n\
         (300-row bidding history; attacker mines stored bytes, client strips)\n\n",
    );
    report.push_str(&render_table(
        &[
            "rate",
            "rows scavenged",
            "fit ok",
            "slope rel err",
            "strip us/MiB",
        ],
        &rows,
    ));
    report.push_str(
        "\nconclusion: even ~1% misleading bytes corrupt most scavengeable rows\n\
         (a single injected byte invalidates its line), collapsing the attack,\n\
         while the client's strip overhead stays modest.\n",
    );
    (points, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn injection_degrades_attack() {
        let (points, _) = run();
        let clean = &points[0];
        assert_eq!(clean.rate, 0.0);
        assert!(clean.fit_succeeded);
        assert!(clean.slope_err < 0.3, "{clean:?}");
        // At 5%+ injection the scavenger loses most rows.
        let heavy = points.iter().find(|p| p.rate >= 0.05).expect("5% point");
        assert!(
            (heavy.scavenged_rows as f64) < 0.5 * clean.scavenged_rows as f64,
            "heavy={heavy:?} clean={clean:?}"
        );
        // Row yield decreases monotonically with rate.
        for w in points.windows(2) {
            assert!(
                w[1].scavenged_rows <= w[0].scavenged_rows + 3,
                "{:?} -> {:?}",
                w[0],
                w[1]
            );
        }
    }
}
