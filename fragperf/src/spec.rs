//! The benchmark's vocabulary: workload names with the reason each exists,
//! and every metric with its unit, clock, direction and bound.
//!
//! `/BENCHMARK.json` repeats the names, units, directions and bounds for
//! the driver; `tests/schema.rs` fails when the two drift apart.

/// Which clock a number was read off. Wall and modelled time never share
/// a column: `sim` is the `LatencyModel`'s deterministic network time from
/// the receipts, `count` is a tally or a ratio of tallies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    Wall,
    Sim,
    Count,
}

impl Clock {
    pub fn tag(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn tag(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the reference value by which the metric may worsen before
    /// `--selfcheck` (and the driver) call it a regression. `None` for
    /// diagnostics that are reported but never gated.
    pub bound: Option<f64>,
    /// Workloads on which `--selfcheck` gates the metric; empty = all.
    pub gated_on: &'static [&'static str],
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    clock: Clock,
    better: Better,
    bound: f64,
    gated_on: &'static [&'static str],
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        clock,
        better,
        bound: Some(bound),
        gated_on,
    }
}

const fn diag(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        clock,
        better,
        bound: None,
        gated_on: &[],
    }
}

pub const BULK_PUBLIC: &str = "bulk_public";
pub const BULK_PRIVATE: &str = "bulk_private";
pub const SMALL_JOURNALED: &str = "small_journaled";
pub const DEGRADED_READ: &str = "degraded_read";
pub const MIXED_RW: &str = "mixed_rw";

/// `(name, why)` — the `why` strings are the ones in `/BENCHMARK.json`.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        BULK_PUBLIC,
        "8 MiB files, PL1 64 KiB chunks, RS(4,2): parity encode, framing, the shard copy chain and provider store do the work; journal and mislead do none",
    ),
    (
        BULK_PRIVATE,
        "8 MiB files, PL3 4 KiB chunks, RAID-5 k=4, mislead 0.08: per-chunk costs (inject/strip, vids, table rows, 2560 small objects per file) dominate, parity maths is minor",
    ),
    (
        SMALL_JOURNALED,
        "2 clients, 4-64 KiB files, put/get/update/remove mix under a journal with a 100 us flush, then crash and recover: journal, table commit and locks dominate, codec idle",
    ),
    (
        DEGRADED_READ,
        "RS(8,3) on 12 providers with two offline and one flipping bits: erasure decode, frame verification, read-repair and health ordering dominate; puts only in set-up",
    ),
    (
        MIXED_RW,
        "one reader and one bulk writer share a distributor: the only workload where one verb waits on another (shard write lock held across encode and store)",
    ),
];

use Better::{Higher, Lower};
use Clock::{Count, Sim, Wall};

/// End-to-end metrics: what a client of the distributor sees. Every
/// workload reports every one of them (each workload puts and gets), so
/// the driver can gate each `metric x workload` pair.
///
/// The wall-clock bounds are wide because the host is: on the two shared
/// cores this was calibrated on, the same binary and seed drift by 5-10%
/// between runs in a quiet minute and by 20-30% in a busy one (the
/// pipelined put, which hands work to pool threads, worst of all). A
/// bound the benchmark's own repeats cannot meet would reject every
/// change; `README.md` has the measurements.
pub const END_TO_END: &[MetricSpec] = &[
    gated("setup_s", "s", Wall, Lower, 0.25, &[]),
    gated("put_mib_s", "MiB/s", Wall, Higher, 0.25, &[]),
    gated("get_mib_s", "MiB/s", Wall, Higher, 0.25, &[]),
    gated("ops_s", "1/s", Wall, Higher, 0.25, &[]),
    gated("put_p50_us", "us", Wall, Lower, 0.25, &[]),
    gated("get_p50_us", "us", Wall, Lower, 0.25, &[]),
    gated("space_amp", "ratio", Count, Lower, 0.01, &[]),
    gated("peak_rss_mib", "MiB", Count, Lower, 0.25, &[]),
];

/// Per-layer metrics, module-named. The first block are verb-level
/// numbers that only some workloads exercise (0 where the workload never
/// issues the verb); `--selfcheck` still gates them on their home
/// workloads with the bound given here.
pub const PER_LAYER: &[MetricSpec] = &[
    gated(
        "put_stream_mib_s",
        "MiB/s",
        Wall,
        Higher,
        0.25,
        &[BULK_PUBLIC],
    ),
    gated(
        "get_parallel_mib_s",
        "MiB/s",
        Wall,
        Higher,
        0.25,
        &[BULK_PUBLIC, BULK_PRIVATE],
    ),
    gated("update_p50_us", "us", Wall, Lower, 0.25, &[SMALL_JOURNALED]),
    gated("remove_p50_us", "us", Wall, Lower, 0.25, &[SMALL_JOURNALED]),
    gated("recover_s", "s", Wall, Lower, 0.25, &[SMALL_JOURNALED]),
    // Modelled network time off the receipts. Deterministic for a seed,
    // so not a candidate for the driver's list (it refuses a time that
    // reads the same on every run) — but gated here, tightly: it catches a
    // change that buys wall time with extra provider round trips.
    gated("put_sim_ms", "sim_ms", Sim, Lower, 0.01, &[]),
    gated("get_sim_ms", "sim_ms", Sim, Lower, 0.01, &[]),
    diag("failed_ops_share", "share", Count, Lower),
    // chunker
    diag("chunker.split_ns_per_byte", "ns/B", Wall, Lower),
    diag("chunker.stream_ns_per_byte", "ns/B", Wall, Lower),
    diag("chunker.join_ns_per_byte", "ns/B", Wall, Lower),
    // mislead
    diag("mislead.inject_ns_per_byte", "ns/B", Wall, Lower),
    diag("mislead.strip_ns_per_byte", "ns/B", Wall, Lower),
    diag("mislead.expansion", "ratio", Count, Lower),
    // raid, at the three geometries the workloads use
    diag("raid.encode_ns_per_byte.4_1", "ns/B", Wall, Lower),
    diag("raid.encode_ns_per_byte.4_2", "ns/B", Wall, Lower),
    diag("raid.encode_ns_per_byte.8_3", "ns/B", Wall, Lower),
    diag("raid.decode_ns_per_byte.4_1", "ns/B", Wall, Lower),
    diag("raid.decode_ns_per_byte.4_2", "ns/B", Wall, Lower),
    diag("raid.decode_ns_per_byte.8_3", "ns/B", Wall, Lower),
    diag(
        "raid.reconstruct_shard_ns_per_byte.4_1",
        "ns/B",
        Wall,
        Lower,
    ),
    diag(
        "raid.reconstruct_shard_ns_per_byte.4_2",
        "ns/B",
        Wall,
        Lower,
    ),
    diag(
        "raid.reconstruct_shard_ns_per_byte.8_3",
        "ns/B",
        Wall,
        Lower,
    ),
    // integrity + crypto
    diag("integrity.frame_ns_per_byte", "ns/B", Wall, Lower),
    diag("integrity.unframe_ns_per_byte", "ns/B", Wall, Lower),
    diag("crypto.checksum64_ns_per_byte", "ns/B", Wall, Lower),
    // sim.provider
    diag("sim.provider.put_ns_per_op", "ns", Wall, Lower),
    diag("sim.provider.get_ns_per_op", "ns", Wall, Lower),
    diag("sim.provider.puts_per_user_put", "ratio", Count, Lower),
    diag("sim.provider.gets_per_user_get", "ratio", Count, Lower),
    diag("sim.provider.bytes_in_per_user_byte", "ratio", Count, Lower),
    diag(
        "sim.provider.bytes_out_per_user_byte",
        "ratio",
        Count,
        Lower,
    ),
    diag("sim.provider.rejected_total", "count", Count, Lower),
    // policy
    diag("policy.place_stripe_ns_per_op", "ns", Wall, Lower),
    // journal
    diag("journal.commit_ns_per_op", "ns", Wall, Lower),
    diag("journal.flushes_per_op", "ratio", Count, Lower),
    diag("journal.bytes_per_op", "B", Count, Lower),
    diag("journal.records_total", "count", Count, Lower),
    diag("journal.export_ms", "ms", Wall, Lower),
    diag("journal.parse_ms", "ms", Wall, Lower),
    // persist + recovery
    diag("persist.export_state_ms", "ms", Wall, Lower),
    diag("persist.import_state_ms", "ms", Wall, Lower),
    diag("recovery.recover_ms", "ms", Wall, Lower),
    diag("recovery.orphans_collected", "count", Count, Lower),
    // pool
    diag("pool.submit_roundtrip_ns", "ns", Wall, Lower),
    diag("pool.tasks_per_put", "ratio", Count, Lower),
    // resilience + health
    diag(
        "resilience.reconstructed_chunks_per_get",
        "ratio",
        Count,
        Lower,
    ),
    diag("resilience.degraded_chunks_per_get", "ratio", Count, Lower),
    diag("resilience.retries_per_get", "ratio", Count, Lower),
    diag("resilience.repair_verify_ms", "ms", Wall, Lower),
    diag("resilience.scrub_verify_ms", "ms", Wall, Lower),
    diag("health.breakers_open", "count", Count, Lower),
    // session (verb level, from outside)
    diag("session.put_p99_us", "us", Wall, Lower),
    diag("session.get_p99_us", "us", Wall, Lower),
    diag("session.update_p99_us", "us", Wall, Lower),
    diag("session.put_wall_over_sim", "ratio", Count, Lower),
    diag("session.get_wall_over_sim", "ratio", Count, Lower),
    diag("session.put_unattributed_share", "share", Count, Lower),
    diag("session.get_unattributed_share", "share", Count, Lower),
    diag("session.get_blocked_share", "share", Count, Lower),
    // telemetry
    diag("telemetry.overhead_share", "share", Count, Lower),
    diag("telemetry.put_self_share", "share", Count, Lower),
    diag("telemetry.spans_per_op", "ratio", Count, Lower),
    diag("telemetry.span_ns", "ns", Wall, Lower),
    // process
    diag("proc.allocs_per_op", "ratio", Count, Lower),
    diag("proc.alloc_bytes_per_user_byte", "ratio", Count, Lower),
    diag("proc.user_cpu_s", "s", Wall, Lower),
    diag("proc.sys_cpu_s", "s", Wall, Lower),
    diag("proc.minor_faults", "count", Count, Lower),
    // same-run normalisers
    diag("host.memcpy_gib_s", "GiB/s", Wall, Higher),
    diag("host.chacha20_gib_s", "GiB/s", Wall, Higher),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(n, _)| *n)
}

impl MetricSpec {
    /// Whether `--selfcheck` gates this metric on `workload`.
    pub fn gates(&self, workload: &str) -> bool {
        self.bound.is_some() && (self.gated_on.is_empty() || self.gated_on.contains(&workload))
    }
}

/// How the driver invokes the benchmark, from the root of a checkout.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "fragperf/Cargo.toml",
    "--bin",
    "fragperf",
    "--",
];
/// The measurement budget the driver passes as `--seconds`.
pub const RUN_SECONDS: u32 = 15;

/// `/BENCHMARK.json`, rendered from the tables above (`--benchmark-json`
/// prints it; `tests/schema.rs` checks the committed file against it).
pub fn benchmark_json() -> String {
    use fragcloud_telemetry::export::json::quote;
    let list = |items: Vec<String>| format!("[\n    {}\n  ]", items.join(",\n    "));
    let command: Vec<String> = COMMAND.iter().map(|c| quote(c)).collect();
    let workloads = WORKLOADS
        .iter()
        .map(|(name, why)| format!("{{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let metric = |m: &MetricSpec, bounded: bool| {
        let bound = match (bounded, m.bound) {
            (true, Some(b)) => format!(", \"bound\": {b}"),
            _ => String::new(),
        };
        format!(
            "{{\"name\": {}, \"unit\": {}, \"better\": {}{bound}}}",
            quote(m.name),
            quote(m.unit),
            quote(m.better.tag())
        )
    };
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"fragperf\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.join(", "),
        list(workloads),
        list(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        list(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
    )
}
