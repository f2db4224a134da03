//! E22 — Byzantine chaos matrix: fault mode × intensity × geometry,
//! driven end-to-end through integrity verification, hedged parity
//! reconstruction, read-repair, and the verifying scrub/repair loop.
//!
//! Each cell arms a [`FaultPlan`] against one data-holding provider (half
//! the trials also limp a second provider's link, so Byzantine and gray
//! failures overlap) and asserts the robustness contract the integrity
//! layer promises: **zero acked-data loss** — every read is byte-identical
//! or a typed error, never silently wrong bytes — and every trial's fleet
//! scrubs back to full health after `try_repair_verify`.
//!
//! Stale-object replay gets its own section rather than a matrix row: a
//! vid-seeded checksum cannot distinguish an object's old version from its
//! current one, so replay protection comes from *write-once objects* —
//! every verb, `update_chunk` included, stores under fresh vids and never
//! rewrites one. Its two cells, every provider replaying, show replay is
//! harmless by construction: against freshly put objects, and after an
//! update.

use super::uniform_fleet;
use crate::render_table;
use fragcloud_core::config::{ChunkSizeSchedule, DistributorConfig, Geometry, GeometrySchedule};
use fragcloud_core::CloudDataDistributor;
use fragcloud_sim::{FaultMode, FaultPlan, PrivacyLevel};
use fragcloud_telemetry::slo::{SloBound, SloSpec};
use fragcloud_telemetry::TelemetryHandle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const TRIALS: usize = 8;
const FILE_LEN: usize = 30_000;
const GEOMETRIES: [(usize, usize); 3] = [(4, 1), (4, 2), (6, 3)];
const RATES: [f64; 2] = [0.25, 1.0];
const MODES: [(FaultMode, &str); 3] = [
    (FaultMode::BitFlip, "bit-flip"),
    (FaultMode::Truncate, "truncate"),
    (FaultMode::WrongObject, "wrong-object"),
];

/// One matrix cell: a fault mode at an intensity against a geometry.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// Fault mode label.
    pub mode: &'static str,
    /// Corruption rate the fault gate applies per read.
    pub rate: f64,
    /// Data shards per stripe.
    pub k: usize,
    /// Parity shards per stripe.
    pub m: usize,
    /// Fraction of trials whose read came back byte-identical (the
    /// zero-acked-data-loss contract demands 1.0).
    pub reads_ok: f64,
    /// Corrupted serves the fault gate actually injected across trials
    /// (sim-side counter, available even without telemetry).
    pub injected: u64,
    /// Fraction of trials whose fleet scrubbed fully healthy after
    /// `try_repair_verify` (must be 1.0).
    pub healed: f64,
    /// p50 of successful whole-file read latencies, simulated µs.
    pub p50_us: u64,
    /// p99 of successful whole-file read latencies, simulated µs.
    pub p99_us: u64,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// One chaos trial: build a fleet, upload, arm the fault, read under
/// fire, then heal. Returns (byte-identical, fully-healed, injected,
/// sim-read-µs-if-ok).
fn trial(
    mode: FaultMode,
    rate: f64,
    k: usize,
    m: usize,
    seed: u64,
    tel: &TelemetryHandle,
) -> (bool, bool, u64, Option<u64>) {
    let fleet = uniform_fleet(k + m + 2);
    let d = CloudDataDistributor::try_new(
        fleet.clone(),
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
            stripe_width: k,
            geometry: Some(GeometrySchedule::uniform(Geometry::new(k, m))),
            ..Default::default()
        },
    )
    .expect("valid config");
    d.set_telemetry(tel.clone());
    d.register_client("c").expect("fresh");
    d.add_password("c", "pw", PrivacyLevel::High).expect("client");
    let session = d.session("c", "pw").expect("valid pair");
    let data: Vec<u8> = (0..FILE_LEN)
        .map(|i| ((i * 37 + seed as usize * 13) % 251) as u8)
        .collect();
    session
        .put_file("f", &data, PrivacyLevel::Low, Default::default())
        .expect("upload against a healthy fleet");

    // Aim the fault at a provider that holds client data, so the read
    // path is guaranteed to meet the adversary; deterministically limp a
    // second provider's link in half the trials so the hedging logic sees
    // gray failure alongside the Byzantine one.
    let mut rng = StdRng::seed_from_u64(seed);
    let bytes_per = d.client_bytes_per_provider("c").expect("client exists");
    let holders: Vec<usize> = bytes_per
        .iter()
        .enumerate()
        .filter(|(_, b)| **b > 0)
        .map(|(i, _)| i)
        .collect();
    let victim = holders[rng.gen_range(0..holders.len())];
    let mut plan = FaultPlan::new(seed ^ 0xC4A05).corrupt(victim, mode, rate);
    if rng.gen_bool(0.5) {
        plan = plan.limp((victim + 1) % fleet.len(), 4.0);
    }
    plan.try_arm(&fleet).expect("victim index is in range");

    // Read under fire: the contract is byte-identical or typed error —
    // wrong bytes are acked data loss and gate the whole experiment.
    let read = session.get_file("f");
    let (ok, sim_us) = match &read {
        Ok(r) if r.data == data => (true, Some(r.sim_time.as_micros().min(u64::MAX as u128) as u64)),
        _ => (false, None),
    };
    tel.observe("chaos_data_loss_count", u64::from(!ok));

    // Heal: drop the injector (at-rest damage stays in the stores), then
    // verify-scrub + repair must restore full health.
    let injected = fleet[victim].faults_injected();
    fleet[victim].clear_fault();
    let _ = d.try_repair_verify();
    let healed = d.scrub_verify().is_healthy();
    tel.observe("chaos_unhealed_count", u64::from(!healed));
    if let Some(us) = sim_us {
        tel.observe("chaos_get_sim_us", us);
    }
    (ok, healed, injected, sim_us)
}

/// Stale-replay cells: every provider armed to replay the pre-overwrite
/// version of any object it holds, against freshly put objects and — with
/// `update` — after a same-length `update_chunk`, the case a length
/// cross-check cannot catch. Every read, healthy and with each provider
/// offline in turn, must return the current bytes: objects are write-once,
/// so nothing stale exists to replay. Returns the fraction of
/// byte-identical reads (must be 1.0).
fn stale_replay(tel: &TelemetryHandle, update: bool) -> f64 {
    let (mut ok, mut reads) = (0usize, 0usize);
    for t in 0..TRIALS {
        let fleet = uniform_fleet(6);
        let d = CloudDataDistributor::try_new(
            fleet.clone(),
            DistributorConfig {
                chunk_sizes: ChunkSizeSchedule::uniform(1 << 10),
                stripe_width: 4,
                geometry: Some(GeometrySchedule::uniform(Geometry::new(4, 1))),
                mislead_rate: if t % 2 == 0 { 0.0 } else { 0.08 },
                ..Default::default()
            },
        )
        .expect("valid config");
        d.set_telemetry(tel.clone());
        d.register_client("c").expect("fresh");
        d.add_password("c", "pw", PrivacyLevel::High).expect("client");
        let session = d.session("c", "pw").expect("valid pair");
        let mut data: Vec<u8> = (0..FILE_LEN).map(|i| ((i * 41 + t * 7) % 251) as u8).collect();
        session
            .put_file("f", &data, PrivacyLevel::Low, Default::default())
            .expect("upload");
        let replay = (0..fleet.len()).fold(FaultPlan::new(0x57A1E + t as u64), |plan, i| {
            plan.corrupt(i, FaultMode::StaleReplay, 1.0)
        });
        replay.try_arm(&fleet).expect("indices in range");
        if update {
            let serial = t % (FILE_LEN >> 10);
            let patch: Vec<u8> = (0..1 << 10).map(|i| ((i * 7 + t) % 253) as u8).collect();
            session
                .update_chunk("f", serial as u32, &patch)
                .expect("update against an online fleet");
            data[serial << 10..(serial + 1) << 10].copy_from_slice(&patch);
        }
        for down in std::iter::once(None).chain((0..fleet.len()).map(Some)) {
            if let Some(i) = down {
                fleet[i].set_online(false);
            }
            let identical = session.get_file("f").map(|r| r.data == data).unwrap_or(false);
            if let Some(i) = down {
                fleet[i].set_online(true);
            }
            ok += identical as usize;
            reads += 1;
            tel.observe("chaos_data_loss_count", u64::from(!identical));
        }
    }
    ok as f64 / reads as f64
}

/// Runs the chaos matrix (deterministic under the fixed seeds).
pub fn run() -> (Vec<ChaosCell>, String) {
    run_with(&TelemetryHandle::disabled())
}

/// [`run`] with telemetry on: every trial distributor reports into one
/// shared registry whose snapshot the `experiments` binary embeds in
/// `BENCH_chaos.json` — CI asserts `corruption_detected_total` and
/// `read_repair_total` there instead of scraping tables.
pub fn run_instrumented() -> (Vec<ChaosCell>, String, TelemetryHandle) {
    let tel = TelemetryHandle::enabled();
    let (cells, report) = run_with(&tel);
    (cells, report, tel)
}

fn run_with(tel: &TelemetryHandle) -> (Vec<ChaosCell>, String) {
    let mut cells = Vec::new();
    for (ci, &(mode, label)) in MODES.iter().enumerate() {
        for (ri, &rate) in RATES.iter().enumerate() {
            for (gi, &(k, m)) in GEOMETRIES.iter().enumerate() {
                let mut ok = 0usize;
                let mut healed = 0usize;
                let mut injected = 0u64;
                let mut lats: Vec<u64> = Vec::with_capacity(TRIALS);
                for t in 0..TRIALS {
                    let seed = 0xE22_0000
                        + (((ci * RATES.len() + ri) * GEOMETRIES.len() + gi) * TRIALS + t) as u64;
                    let (o, h, i, us) = trial(mode, rate, k, m, seed, tel);
                    ok += o as usize;
                    healed += h as usize;
                    injected += i;
                    if let Some(us) = us {
                        lats.push(us);
                    }
                }
                lats.sort_unstable();
                cells.push(ChaosCell {
                    mode: label,
                    rate,
                    k,
                    m,
                    reads_ok: ok as f64 / TRIALS as f64,
                    injected,
                    healed: healed as f64 / TRIALS as f64,
                    p50_us: percentile(&lats, 0.50),
                    p99_us: percentile(&lats, 0.99),
                });
            }
        }
    }
    let (stale_ok, stale_update_ok) = (stale_replay(tel, false), stale_replay(tel, true));

    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.mode.to_string(),
                format!("{:.2}", c.rate),
                format!("rs({},{})", c.k, c.m),
                format!("{:.2}", c.reads_ok),
                c.injected.to_string(),
                format!("{:.2}", c.healed),
                c.p50_us.to_string(),
                c.p99_us.to_string(),
            ]
        })
        .collect();
    let mut report = String::from(
        "E22 — Byzantine chaos matrix: fault mode x intensity x geometry\n\
         (one data-holding provider corrupted per trial, half the trials\n\
         also limp a second link 4x; reads go through checksum-verified\n\
         framing, hedged parity reconstruction, and read-repair; heal =\n\
         try_repair_verify() then a verifying scrub reports full health)\n\n",
    );
    report.push_str(&render_table(
        &[
            "fault", "rate", "geometry", "reads ok", "injected", "healed", "p50 us", "p99 us",
        ],
        &rows,
    ));
    report.push_str(&format!(
        "\nstale-replay, every provider replaying, reads healthy and with each\n\
         provider offline: {stale_ok:.2} byte-identical against freshly put\n\
         objects, {stale_update_ok:.2} after update_chunk (objects are write-once:\n\
         every verb stores under fresh vids, so no provider ever holds an older\n\
         version of an object to replay)\n"
    ));
    report.push_str(
        "\nconclusion: across every fault mode, intensity, and geometry the\n\
         read path returned byte-identical data — corrupted serves became\n\
         typed erasures that parity absorbed, read-repair re-uploaded the\n\
         healed shards, and the verifying scrub + repair loop restored\n\
         every fleet to full health; acked data loss was zero everywhere.\n",
    );
    (cells, report)
}

/// E22's SLO gates. The two `_count` gates encode the robustness contract
/// itself (max over trials must be 0: no wrong bytes acked, no fleet left
/// unhealed); the latency gate bounds the simulated read tail under
/// active corruption + limping links, and moves only when the read or
/// reconstruction path changes.
pub fn slos() -> Vec<SloSpec> {
    let max_zero = |name: &str, metric: &str| SloSpec {
        name: name.to_string(),
        metric: metric.to_string(),
        label: String::new(),
        quantile: 1.0,
        bound: SloBound::Max(0),
    };
    vec![
        max_zero("chaos_zero_acked_data_loss", "chaos_data_loss_count"),
        max_zero("chaos_all_fleets_healed", "chaos_unhealed_count"),
        SloSpec::p99_max("chaos_get_sim_p99_us", "chaos_get_sim_us", "", 100_000),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_matrix_acks_no_data_loss_and_heals() {
        let (cells, report) = run();
        assert_eq!(cells.len(), MODES.len() * RATES.len() * GEOMETRIES.len());
        for c in &cells {
            assert_eq!(c.reads_ok, 1.0, "acked data loss in {c:?}");
            assert_eq!(c.healed, 1.0, "unhealed fleet in {c:?}");
            if c.rate >= 1.0 {
                assert!(c.injected > 0, "full-rate cell never injected: {c:?}");
            }
        }
        assert!(report.contains("E22"));
        assert!(report.contains("stale-replay"));
        let disabled = TelemetryHandle::disabled();
        assert_eq!(stale_replay(&disabled, false), 1.0, "freshly put");
        assert_eq!(stale_replay(&disabled, true), 1.0, "after an update");

        // Deterministic, and telemetry is an observer not a participant.
        let (again, _, tel) = run_instrumented();
        for (a, b) in cells.iter().zip(&again) {
            assert_eq!(a.reads_ok, b.reads_ok);
            assert_eq!(a.injected, b.injected);
            assert_eq!(a.healed, b.healed);
        }
        let reg = tel.registry().expect("instrumented run is enabled");
        assert!(reg.counter_total("corruption_detected_total") > 0);
        assert!(reg.counter_total("read_repair_total") > 0);
        assert!(reg.counter_total("parity_reconstructions") > 0);
        assert!(reg.spans_balanced());
        let outcomes = fragcloud_telemetry::slo::evaluate(&slos(), &reg.snapshot());
        assert!(
            fragcloud_telemetry::slo::all_pass(&outcomes),
            "{}",
            fragcloud_telemetry::slo::render(&outcomes)
        );
    }
}
