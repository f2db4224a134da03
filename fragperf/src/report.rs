//! Turns passes into named metric rows, prints them, and renders the
//! one-line JSON result the driver reads.

use crate::harness::{median, median_u64, peak_rss_mib, percentile, ProcStat, Recorder, Verb};
use crate::replay::Replay;
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::workloads::Pass;
use fragcloud_telemetry::rollup;
use std::collections::BTreeMap;

/// One reported number. `samples` is how many measurements stand behind
/// it (epochs for a median throughput, ops for a percentile).
#[derive(Clone, Debug)]
pub struct Row {
    pub spec: &'static MetricSpec,
    pub value: f64,
    pub samples: u64,
}

/// A finished run of one workload.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub rows: Vec<Row>,
    /// `host.memcpy_gib_s` when the replay ran: the base of the
    /// ratio-to-memcpy column.
    pub memcpy_gib_s: Option<f64>,
}

fn ns_per_byte(rec: &Recorder, verb: Verb) -> f64 {
    let bytes = rec.bytes[verb as usize];
    if bytes == 0 {
        return 0.0;
    }
    rec.verb_ns(verb) as f64 / bytes as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn rows_from(specs: &'static [MetricSpec], values: &BTreeMap<String, (f64, u64)>) -> Vec<Row> {
    specs
        .iter()
        .map(|spec| {
            let (value, samples) = values.get(spec.name).copied().unwrap_or((0.0, 0));
            Row {
                spec,
                value,
                samples,
            }
        })
        .collect()
}

/// The end-to-end rows of an untraced pass.
pub fn end_to_end(pass: &Pass) -> Vec<Row> {
    let all = &pass.all;
    let put = Verb::Put as usize;
    let get = Verb::Get as usize;
    let mut v: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut set = |name: &str, value: f64, samples: usize| {
        v.insert(name.to_string(), (value, samples as u64));
    };
    set("setup_s", median(&pass.setup_s), pass.setup_s.len());
    set("put_mib_s", median(&pass.mib_s[put]), pass.mib_s[put].len());
    set("get_mib_s", median(&pass.mib_s[get]), pass.mib_s[get].len());
    set("ops_s", median(&pass.ops_s), pass.ops_s.len());
    set(
        "put_p50_us",
        percentile(&all.wall_ns[put], 0.5) / 1e3,
        all.wall_ns[put].len(),
    );
    set(
        "get_p50_us",
        percentile(&all.wall_ns[get], 0.5) / 1e3,
        all.wall_ns[get].len(),
    );
    set("space_amp", median(&pass.space_amp), pass.space_amp.len());
    set("peak_rss_mib", peak_rss_mib(), 1);
    rows_from(END_TO_END, &v)
}

/// What the traced half of a `--trace 1` run adds to the untraced half.
pub struct Traced<'a> {
    pub pass: &'a Pass,
    pub replay: &'a Replay,
    pub span_ns: f64,
    /// Allocation calls and bytes counted inside the traced epochs.
    pub allocs: (u64, u64),
    /// CPU time and faults of the whole process so far.
    pub proc: ProcStat,
}

/// The per-layer rows: verb-level numbers from the untraced pass, counts
/// off public surfaces, the layer replay, and what only tracing can see.
pub fn per_layer(untraced: &Pass, t: &Traced<'_>) -> Vec<Row> {
    let all = &untraced.all;
    let c = &untraced.counts;
    let mut v: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    let mut set = |name: &str, value: f64, samples: usize| {
        v.insert(name.to_string(), (value, samples as u64));
    };

    // Verb-level numbers only some workloads produce.
    let stream = &untraced.mib_s[Verb::PutStream as usize];
    let parallel = &untraced.mib_s[Verb::GetParallel as usize];
    let update = &all.wall_ns[Verb::Update as usize];
    let remove = &all.wall_ns[Verb::Remove as usize];
    set("put_stream_mib_s", median(stream), stream.len());
    set("get_parallel_mib_s", median(parallel), parallel.len());
    set("update_p50_us", percentile(update, 0.5) / 1e3, update.len());
    set("remove_p50_us", percentile(remove, 0.5) / 1e3, remove.len());
    set(
        "recover_s",
        median(&untraced.recover_s),
        untraced.recover_s.len(),
    );
    let put_sim = &all.sim_ns[Verb::Put as usize];
    let get_sim = &all.sim_ns[Verb::Get as usize];
    set("put_sim_ms", median_u64(put_sim) / 1e6, put_sim.len());
    set("get_sim_ms", median_u64(get_sim) / 1e6, get_sim.len());
    set(
        "failed_ops_share",
        ratio(all.failed as f64, all.attempted as f64),
        all.attempted as usize,
    );

    // The layer replay.
    for (name, value) in &t.replay.values {
        set(name, *value, 5);
    }

    // Counts off the providers' public stats, over the count prefix.
    let puts = c.user_puts as f64;
    let gets = c.user_gets as f64;
    set(
        "sim.provider.puts_per_user_put",
        ratio(c.provider.puts as f64, puts),
        c.user_puts as usize,
    );
    set(
        "sim.provider.gets_per_user_get",
        ratio(c.provider.gets as f64, gets),
        c.user_gets as usize,
    );
    set(
        "sim.provider.bytes_in_per_user_byte",
        ratio(c.provider.bytes_in as f64, c.user_put_bytes as f64),
        c.user_puts as usize,
    );
    set(
        "sim.provider.bytes_out_per_user_byte",
        ratio(c.provider.bytes_out as f64, c.user_get_bytes as f64),
        c.user_gets as usize,
    );
    set("sim.provider.rejected_total", c.provider.rejected as f64, 1);
    set(
        "resilience.reconstructed_chunks_per_get",
        ratio(c.reconstructed as f64, gets),
        c.user_gets as usize,
    );
    set(
        "resilience.degraded_chunks_per_get",
        ratio(c.degraded as f64, gets),
        c.user_gets as usize,
    );
    set(
        "resilience.retries_per_get",
        ratio(c.retries as f64, gets),
        c.user_gets as usize,
    );

    // Workload-specific values: the untraced pass's win where both have one.
    for (name, value) in t.pass.extras.iter().chain(&untraced.extras) {
        set(name, *value, 1);
    }

    // Verb level, from outside.
    let put = Verb::Put as usize;
    let get = Verb::Get as usize;
    set(
        "session.put_p99_us",
        percentile(&all.wall_ns[put], 0.99) / 1e3,
        all.wall_ns[put].len(),
    );
    set(
        "session.get_p99_us",
        percentile(&all.wall_ns[get], 0.99) / 1e3,
        all.wall_ns[get].len(),
    );
    set(
        "session.update_p99_us",
        percentile(update, 0.99) / 1e3,
        update.len(),
    );
    let sim_sum = |verb: usize| all.sim_ns[verb].iter().sum::<u64>() as f64;
    set(
        "session.put_wall_over_sim",
        ratio(all.verb_ns(Verb::Put) as f64, sim_sum(put)),
        all.wall_ns[put].len(),
    );
    set(
        "session.get_wall_over_sim",
        ratio(all.verb_ns(Verb::Get) as f64, sim_sum(get)),
        all.wall_ns[get].len(),
    );
    let unattributed = |layers: f64, verb: Verb| {
        let wall = ns_per_byte(all, verb);
        if wall == 0.0 {
            0.0
        } else {
            1.0 - layers / wall
        }
    };
    set(
        "session.put_unattributed_share",
        unattributed(t.replay.put_ns_per_byte, Verb::Put),
        all.wall_ns[put].len(),
    );
    set(
        "session.get_unattributed_share",
        unattributed(t.replay.get_ns_per_byte, Verb::Get),
        all.wall_ns[get].len(),
    );

    // What only the traced pass can see.
    let traced = &t.pass.all;
    let per_op = |r: &Recorder| ratio(r.total_verb_ns() as f64, r.total_ops() as f64);
    set(
        "telemetry.overhead_share",
        ratio(per_op(traced), per_op(all)) - 1.0,
        traced.total_ops() as usize,
    );
    let (mut put_self, mut put_total, mut spans) = (0u64, 0u64, 0u64);
    for reg in &t.pass.registries {
        if let Some(r) = rollup(&reg.span_records()).get("put") {
            put_self += r.self_ns;
            put_total += r.total_ns;
        }
        spans += reg.snapshot().span_exits;
    }
    set(
        "telemetry.put_self_share",
        ratio(put_self as f64, put_total as f64),
        t.pass.registries.len(),
    );
    set(
        "telemetry.spans_per_op",
        ratio(spans as f64, traced.total_ops() as f64),
        traced.total_ops() as usize,
    );
    set("telemetry.span_ns", t.span_ns, 5);
    set(
        "pool.tasks_per_put",
        ratio(
            traced.pool_tasks as f64,
            (traced.ops(Verb::Put) + traced.ops(Verb::PutStream)) as f64,
        ),
        traced.ops(Verb::Put) as usize,
    );
    let traced_bytes: u64 = traced.bytes.iter().sum();
    set(
        "proc.allocs_per_op",
        ratio(t.allocs.0 as f64, traced.total_ops() as f64),
        traced.total_ops() as usize,
    );
    set(
        "proc.alloc_bytes_per_user_byte",
        ratio(t.allocs.1 as f64, traced_bytes as f64),
        traced.total_ops() as usize,
    );
    set("proc.user_cpu_s", t.proc.user_s, 1);
    set("proc.sys_cpu_s", t.proc.sys_s, 1);
    set("proc.minor_faults", t.proc.minor_faults as f64, 1);

    rows_from(PER_LAYER, &v)
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: every metric by name with its value,
    /// unit, clock tag and sample count; gated ones with their bound, and
    /// per-byte costs with their ratio to this run's memcpy.
    pub fn print_table(&self) {
        println!(
            "# fragperf workload={} seed={} attempted={} failed={}",
            self.workload, self.seed, self.attempted, self.failed
        );
        for e in &self.errors {
            println!("# FAILED: {e}");
        }
        println!(
            "{:<44} {:>16} {:<6} {:<5} {:>8}  notes",
            "metric", "value", "unit", "clock", "samples"
        );
        for r in &self.rows {
            let mut notes = Vec::new();
            if r.spec.gates(self.workload) {
                let bound = r.spec.bound.unwrap_or_default();
                notes.push(format!("{} is better, bound {bound}", r.spec.better.tag()));
            }
            if let (Some(memcpy), "ns/B") = (self.memcpy_gib_s, r.spec.unit) {
                // memcpy GiB/s -> ns/B, then how many copies this layer costs.
                let memcpy_ns_per_byte = 1e9 / (memcpy * (1u64 << 30) as f64);
                notes.push(format!("{:.2}x memcpy", r.value / memcpy_ns_per_byte));
            }
            println!(
                "{:<44} {:>16.4} {:<6} {:<5} {:>8}  {}",
                r.spec.name,
                r.value,
                r.spec.unit,
                r.spec.clock.tag(),
                r.samples,
                notes.join("; ")
            );
        }
    }

    /// The driver's line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    r.spec.name,
                    json_number(r.value),
                    r.spec.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit `f64` carries; non-finite values (a
/// division that had nothing to divide) become 0.
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}
