//! Shared plumbing: fleets, distributors, the per-verb recorder, order
//! statistics and `/proc` readers.

use fragcloud_core::{
    CloudDataDistributor, CoreError, DistributorConfig, GetReceipt, PutReceipt, Session,
};
use fragcloud_sim::{CloudProvider, CostLevel, ObjectStore, PrivacyLevel, ProviderProfile};
use fragcloud_telemetry::{Registry, TelemetryHandle};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const CLIENT: &str = "bench";
pub const PASSWORD: &str = "pw";
pub const MIB: f64 = 1024.0 * 1024.0;

pub type Fleet = Vec<Arc<CloudProvider>>;

/// `n` providers with the default `LatencyModel::lan()` link, all PL High,
/// cost level `i % 4` — the fleet every workload runs against.
pub fn fleet(n: usize) -> Fleet {
    (0..n)
        .map(|i| {
            Arc::new(CloudProvider::new(ProviderProfile::new(
                format!("cp{i}"),
                PrivacyLevel::High,
                CostLevel::new((i % 4) as u8),
            )))
        })
        .collect()
}

/// A fresh fleet plus a distributor over it, with `clients` registered.
pub struct World {
    pub fleet: Fleet,
    pub d: CloudDataDistributor,
}

impl World {
    pub fn new(providers: usize, config: DistributorConfig, clients: &[&str]) -> World {
        let fleet = fleet(providers);
        let d = CloudDataDistributor::try_new(fleet.clone(), config)
            .expect("benchmark configs are valid");
        for c in clients {
            d.register_client(c).expect("fresh distributor");
            d.add_password(c, PASSWORD, PrivacyLevel::High)
                .expect("client was just registered");
        }
        World { fleet, d }
    }

    pub fn session<'a>(&'a self, client: &str) -> Session<'a> {
        self.d
            .session(client, PASSWORD)
            .expect("client registered in World::new")
    }

    /// Installs an enabled telemetry registry when `traced`.
    pub fn trace(&self, traced: bool) -> TelemetryHandle {
        if traced {
            self.d.enable_telemetry()
        } else {
            TelemetryHandle::disabled()
        }
    }
}

/// Sums of the fleet's `ProviderStats` plus bytes at rest.
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetTotals {
    pub puts: u64,
    pub gets: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub rejected: u64,
    pub bytes_stored: u64,
}

impl FleetTotals {
    pub fn read(fleet: &Fleet) -> FleetTotals {
        let mut t = FleetTotals::default();
        for p in fleet {
            let s = p.stats();
            t.puts += s.puts.load(Ordering::Relaxed);
            t.gets += s.gets.load(Ordering::Relaxed);
            t.bytes_in += s.bytes_in.load(Ordering::Relaxed);
            t.bytes_out += s.bytes_out.load(Ordering::Relaxed);
            t.rejected += s.rejected.load(Ordering::Relaxed);
            t.bytes_stored += p.bytes_stored();
        }
        t
    }

    pub fn since(self, earlier: FleetTotals) -> FleetTotals {
        FleetTotals {
            puts: self.puts - earlier.puts,
            gets: self.gets - earlier.gets,
            bytes_in: self.bytes_in - earlier.bytes_in,
            bytes_out: self.bytes_out - earlier.bytes_out,
            rejected: self.rejected - earlier.rejected,
            bytes_stored: self.bytes_stored,
        }
    }
}

/// The six session verbs the benchmark times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verb {
    Put = 0,
    PutStream = 1,
    Get = 2,
    GetParallel = 3,
    Update = 4,
    Remove = 5,
}

pub const VERBS: usize = 6;
/// Failure messages a recorder keeps for the report; the rest are counted.
const MAX_ERRORS: usize = 8;

/// What one thread saw during one epoch: per-verb wall and sim samples,
/// payload bytes, and the read-path tallies off the get receipts.
#[derive(Clone, Default)]
pub struct Recorder {
    pub wall_ns: [Vec<u64>; VERBS],
    pub sim_ns: [Vec<u64>; VERBS],
    pub bytes: [u64; VERBS],
    pub attempted: u64,
    pub failed: u64,
    pub reconstructed: u64,
    pub degraded: u64,
    pub retries: u64,
    /// Transfer-pool tasks submitted while a put was running (traced
    /// passes only: read off the registry's `pool_tasks_total`).
    pub pool_tasks: u64,
    /// First few failures, for the report.
    pub errors: Vec<String>,
    registry: Option<Arc<Registry>>,
}

impl Recorder {
    /// A recorder that also reads `tel`'s counters around puts.
    pub fn new(tel: &TelemetryHandle) -> Recorder {
        Recorder {
            registry: tel.registry().cloned(),
            ..Recorder::default()
        }
    }

    fn pool_tasks_now(&self) -> u64 {
        self.registry
            .as_ref()
            .map_or(0, |r| r.counter_total("pool_tasks_total"))
    }

    fn sample(&mut self, verb: Verb, bytes: usize, wall: Duration, sim: Option<Duration>) {
        let v = verb as usize;
        self.wall_ns[v].push(wall.as_nanos() as u64);
        if let Some(sim) = sim {
            self.sim_ns[v].push(sim.as_nanos() as u64);
        }
        self.bytes[v] += bytes as u64;
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    fn result<T>(&mut self, what: &str, name: &str, res: Result<T, CoreError>) -> Option<T> {
        self.attempted += 1;
        match res {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what} {name}: {e}"));
                None
            }
        }
    }

    /// Times one put (buffered or streamed); only the verb is inside the
    /// timed region.
    pub fn put(
        &mut self,
        verb: Verb,
        name: &str,
        len: usize,
        f: impl FnOnce() -> Result<PutReceipt, CoreError>,
    ) -> Option<PutReceipt> {
        let tasks = self.pool_tasks_now();
        let t = Instant::now();
        let res = f();
        let wall = t.elapsed();
        self.pool_tasks += self.pool_tasks_now() - tasks;
        let receipt = self.result("put", name, res)?;
        self.sample(verb, len, wall, Some(receipt.sim_time));
        Some(receipt)
    }

    /// Times one get and compares every returned byte with `expect`
    /// (outside the timed region). A wrong byte is a failed op.
    pub fn get(
        &mut self,
        verb: Verb,
        name: &str,
        expect: &[u8],
        f: impl FnOnce() -> Result<GetReceipt, CoreError>,
    ) {
        let t = Instant::now();
        let res = f();
        let wall = t.elapsed();
        let Some(receipt) = self.result("get", name, res) else {
            return;
        };
        if receipt.data != expect {
            self.fail(format!("get {name}: wrong bytes"));
            return;
        }
        self.sample(verb, expect.len(), wall, Some(receipt.sim_time));
        self.reconstructed += receipt.reconstructed_chunks as u64;
        self.degraded += receipt.degraded_chunks as u64;
        self.retries += receipt.retries;
    }

    /// Times an update or a remove.
    pub fn unit(
        &mut self,
        verb: Verb,
        name: &str,
        len: usize,
        f: impl FnOnce() -> Result<(), CoreError>,
    ) -> bool {
        let t = Instant::now();
        let res = f();
        let wall = t.elapsed();
        if self.result("op", name, res).is_none() {
            return false;
        }
        self.sample(verb, len, wall, None);
        true
    }

    /// A correctness check that is not a verb (oracle comparisons).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Takes over `other`'s attempts and failures but none of its samples
    /// (warm-up epochs, preloads: ops that must succeed but are not
    /// measured).
    pub fn count_outcomes_of(&mut self, other: &Recorder) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_ERRORS.saturating_sub(self.errors.len());
        self.errors.extend(other.errors.iter().take(room).cloned());
    }

    pub fn merge(&mut self, other: Recorder) {
        for v in 0..VERBS {
            self.wall_ns[v].extend_from_slice(&other.wall_ns[v]);
            self.sim_ns[v].extend_from_slice(&other.sim_ns[v]);
            self.bytes[v] += other.bytes[v];
        }
        self.count_outcomes_of(&other);
        self.reconstructed += other.reconstructed;
        self.degraded += other.degraded;
        self.retries += other.retries;
        self.pool_tasks += other.pool_tasks;
    }

    pub fn ops(&self, verb: Verb) -> u64 {
        self.wall_ns[verb as usize].len() as u64
    }

    pub fn total_ops(&self) -> u64 {
        self.wall_ns.iter().map(|v| v.len() as u64).sum()
    }

    pub fn verb_ns(&self, verb: Verb) -> u64 {
        self.wall_ns[verb as usize].iter().sum()
    }

    pub fn total_verb_ns(&self) -> u64 {
        self.wall_ns.iter().flatten().sum()
    }
}

/// Median of `xs` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of integer samples; 0 when empty.
pub fn percentile(xs: &[u64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

pub fn median_u64(xs: &[u64]) -> f64 {
    median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>())
}

/// `utime`, `stime` (seconds) and minor faults from `/proc/self/stat`.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProcStat {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcStat {
    pub fn read() -> ProcStat {
        let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
            return ProcStat::default();
        };
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, so index 0 here.
        let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
            return ProcStat::default();
        };
        let f: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| f.get(i).and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
        // Linux reports utime/stime in clock ticks; USER_HZ is 100 on
        // every supported configuration.
        const TICKS_PER_S: f64 = 100.0;
        ProcStat {
            minor_faults: num(7),
            user_s: num(11) as f64 / TICKS_PER_S,
            sys_s: num(12) as f64 / TICKS_PER_S,
        }
    }
}

/// Peak resident set (`VmHWM`) in MiB; 0 when `/proc` is unavailable.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `f` `reps` times and returns the median duration in nanoseconds.
pub fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_nanos() as f64);
    }
    median(&samples)
}
