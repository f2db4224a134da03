//! Distributor configuration.

use crate::resilience::ResilienceConfig;
use fragcloud_raid::RaidLevel;
use fragcloud_sim::PrivacyLevel;
use std::time::Duration;

/// Chunk-placement strategy among eligible providers.
///
/// The paper distributes chunks "in a random way" among eligible providers
/// (§VI) but also prefers lower cost levels (§IV-A); the ablation in E12
/// compares these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementStrategy {
    /// Prefer the cheapest eligible provider, randomizing ties — the
    /// paper's composite rule and our default.
    CheapestEligible,
    /// Uniform random among all eligible providers.
    RandomEligible,
    /// Everything to the single cheapest eligible provider — the paper's
    /// *baseline under attack* (single-provider cloud).
    SingleProvider,
    /// §IV-C's client-side mapping: a Chord ring of the eligible
    /// providers maps ⟨filename, chunk serial⟩ to a provider, so a client
    /// can recompute where its chunks live with no central table. Draws
    /// nothing from the placement rng.
    Chord,
}

/// PL→chunk-size schedule: "the chunk size is fixed for a particular
/// privilege level. The higher the privilege level, the lower the chunk
/// size" (§VI).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSizeSchedule {
    /// Chunk size in bytes for each PL 0..=3.
    pub sizes: [usize; 4],
}

impl ChunkSizeSchedule {
    /// The defaults called out in DESIGN.md §5:
    /// PL0 = 256 KiB, PL1 = 64 KiB, PL2 = 16 KiB, PL3 = 4 KiB.
    pub fn paper_default() -> Self {
        ChunkSizeSchedule {
            sizes: [256 << 10, 64 << 10, 16 << 10, 4 << 10],
        }
    }

    /// Uniform chunk size across levels (for sweeps).
    pub fn uniform(size: usize) -> Self {
        assert!(size > 0, "chunk size must be positive");
        ChunkSizeSchedule { sizes: [size; 4] }
    }

    /// Chunk size for a privacy level.
    pub fn size_for(&self, pl: PrivacyLevel) -> usize {
        self.sizes[pl.as_u8() as usize]
    }

    /// Validates monotonicity (higher PL ⇒ chunk size not larger).
    pub fn is_monotone(&self) -> bool {
        self.sizes.windows(2).all(|w| w[1] <= w[0])
    }
}

/// A stripe geometry: `data` data shards plus `parity` parity shards.
///
/// Generalizes the old ⟨`stripe_width`, `raid_level`⟩ pair to arbitrary
/// RS(k, m): `parity = 0` is plain striping, `1` ≡ RAID-5, `2` ≡ RAID-6,
/// and `m ≥ 3` engages the general Reed–Solomon matrix codec. Validation
/// delegates to the coding layer's shared
/// [`check_geometry`](fragcloud_raid::check_geometry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    /// Data shards per stripe (`k`), ≥ 1.
    pub data: usize,
    /// Parity shards per stripe (`m`); the stripe tolerates `m` losses.
    pub parity: usize,
}

impl Geometry {
    /// Builds a geometry; validation happens in
    /// [`validate`](Self::validate) / [`DistributorConfig::validate`].
    pub fn new(data: usize, parity: usize) -> Self {
        Geometry { data, parity }
    }

    /// Total shards per stripe (data + parity).
    pub fn total(self) -> usize {
        self.data + self.parity
    }

    /// The [`RaidLevel`] realizing this geometry's parity count,
    /// canonicalized onto the dedicated codes for m ≤ 2 so default
    /// configurations keep today's RAID-5/6 table and journal encodings.
    pub fn level(self) -> RaidLevel {
        RaidLevel::for_parity_shards(self.parity)
    }

    /// Check the geometry against the coding layer's shared rules.
    pub fn validate(self) -> Result<(), crate::CoreError> {
        fragcloud_raid::check_geometry(self.data, self.parity).map_err(|e| {
            crate::CoreError::InvalidConfig {
                detail: format!("geometry: {e}"),
            }
        })
    }
}

/// Per-privacy-level stripe geometries — geometry as *policy*: higher
/// privacy levels can buy wider fan-out or deeper parity without touching
/// the code path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GeometrySchedule {
    /// Geometry for each PL 0..=3.
    pub per_pl: [Geometry; 4],
}

impl GeometrySchedule {
    /// One geometry for every privacy level.
    pub fn uniform(g: Geometry) -> Self {
        GeometrySchedule { per_pl: [g; 4] }
    }

    /// Geometry for a privacy level.
    pub fn for_pl(&self, pl: PrivacyLevel) -> Geometry {
        self.per_pl[pl.as_u8() as usize]
    }

    /// Validates every per-PL geometry.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        for g in &self.per_pl {
            g.validate()?;
        }
        Ok(())
    }
}

/// Durability and concurrency knobs, grouped: how the write-ahead journal
/// batches its flushes, how often the checkpoint is compacted, how wide the
/// table sharding and the transfer pool are.
///
/// `#[non_exhaustive]`: build it from [`DurabilityConfig::default`] and the
/// `with_*` builders so later releases can add knobs without breaking
/// callers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct DurabilityConfig {
    /// How long a group-commit leader lingers before flushing, letting
    /// concurrent operations pile into the same fsync window.
    /// `Duration::ZERO` (the default) flushes immediately and still
    /// piggybacks any commit that arrived while the previous flush ran.
    pub group_commit_window: Duration,
    /// Commits between checkpoint compactions: every N-th journal commit
    /// folds the accumulated delta records into a fresh checkpoint
    /// snapshot. Must be >= 1.
    pub checkpoint_interval: u32,
    /// Independently locked table stripes the chunk/client tables are
    /// sharded into, routed by a hash of ⟨client, filename⟩. Must be in
    /// `1..=64`. Applies to freshly constructed distributors; a
    /// distributor imported from a persisted snapshot keeps the
    /// snapshot's shard layout.
    pub table_shards: usize,
    /// Worker threads in the distributor's persistent transfer pool
    /// (shared by every [`Session`](crate::Session) on it); the put
    /// pipeline's stripe encodes run on these, and it keeps at least this
    /// many stripes in flight. `1` is the serial put. Provider state is
    /// byte-identical at every width; this only changes wall-clock time.
    /// Must be in `1..=64`.
    pub transfer_workers: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            group_commit_window: Duration::ZERO,
            checkpoint_interval: 16,
            table_shards: 4,
            transfer_workers: 4,
        }
    }
}

impl DurabilityConfig {
    /// Sets the group-commit linger window.
    pub fn with_group_commit_window(mut self, window: Duration) -> Self {
        self.group_commit_window = window;
        self
    }

    /// Sets the checkpoint compaction interval (commits per checkpoint).
    pub fn with_checkpoint_interval(mut self, interval: u32) -> Self {
        self.checkpoint_interval = interval;
        self
    }

    /// Sets the table shard count.
    pub fn with_table_shards(mut self, shards: usize) -> Self {
        self.table_shards = shards;
        self
    }

    /// Sets the transfer-pool worker count.
    pub fn with_transfer_workers(mut self, workers: usize) -> Self {
        self.transfer_workers = workers;
        self
    }

    /// Check the configuration's invariants.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        let fail = |detail: &str| {
            Err(crate::CoreError::InvalidConfig {
                detail: detail.to_string(),
            })
        };
        if self.checkpoint_interval < 1 {
            return fail("durability.checkpoint_interval must be >= 1");
        }
        if !(1..=64).contains(&self.table_shards) {
            return fail("durability.table_shards must be in 1..=64");
        }
        if !(1..=64).contains(&self.transfer_workers) {
            return fail("durability.transfer_workers must be in 1..=64");
        }
        Ok(())
    }
}

/// Full distributor configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistributorConfig {
    /// PL→chunk-size schedule.
    pub chunk_sizes: ChunkSizeSchedule,
    /// Data shards per RAID stripe (parity shards come from the level).
    pub stripe_width: usize,
    /// Default assurance level; `Raid5` per §IV-A, `Raid6` for "higher
    /// assurance", `None` to disable parity.
    pub raid_level: RaidLevel,
    /// Per-PL stripe geometries. `None` (the default) derives every PL's
    /// geometry from ⟨[`stripe_width`](Self::stripe_width),
    /// [`raid_level`](Self::raid_level)⟩, preserving the old behavior;
    /// `Some` makes geometry policy and takes precedence (a per-put
    /// [`PutOptions::geometry`](crate::PutOptions::geometry) still
    /// overrides both).
    pub geometry: Option<GeometrySchedule>,
    /// Fraction of misleading bytes injected per chunk (0.0 disables; the
    /// paper's §VII-D option).
    pub mislead_rate: f64,
    /// Placement strategy.
    pub placement: PlacementStrategy,
    /// Seed for placement randomization and misleading-byte positions.
    pub seed: u64,
    /// Degraded-mode I/O engine knobs (retry, hedging); see
    /// [`crate::resilience`].
    pub resilience: ResilienceConfig,
    /// Durability and concurrency knobs: journal group commit, checkpoint
    /// interval, table sharding, transfer pool; see [`DurabilityConfig`].
    pub durability: DurabilityConfig,
}

impl Default for DistributorConfig {
    fn default() -> Self {
        DistributorConfig {
            chunk_sizes: ChunkSizeSchedule::paper_default(),
            stripe_width: 4,
            raid_level: RaidLevel::Raid5,
            geometry: None,
            mislead_rate: 0.0,
            placement: PlacementStrategy::CheapestEligible,
            seed: 0x0D15_7B17,
            resilience: ResilienceConfig::default(),
            durability: DurabilityConfig::default(),
        }
    }
}

impl DistributorConfig {
    /// The stripe geometry uploads at privacy level `pl` get by default:
    /// the [`geometry`](Self::geometry) schedule when set, else the
    /// ⟨[`stripe_width`](Self::stripe_width),
    /// [`raid_level`](Self::raid_level)⟩ pair.
    pub fn geometry_for(&self, pl: PrivacyLevel) -> Geometry {
        match &self.geometry {
            Some(s) => s.for_pl(pl),
            None => Geometry::new(self.stripe_width, self.raid_level.parity_shards()),
        }
    }

    /// Check the configuration's invariants; the distributor constructor
    /// calls this and panics on `Err` (an invalid config is a programming
    /// error at that point), but callers building configs dynamically can
    /// inspect the [`CoreError::InvalidConfig`](crate::CoreError) instead.
    pub fn validate(&self) -> Result<(), crate::CoreError> {
        let fail = |detail: &str| {
            Err(crate::CoreError::InvalidConfig {
                detail: detail.to_string(),
            })
        };
        if self.stripe_width < 1 {
            return fail("stripe_width must be >= 1");
        }
        crate::mislead::validate_rate(self.mislead_rate)?;
        if !self.chunk_sizes.sizes.iter().all(|&s| s > 0) {
            return fail("chunk sizes must be positive");
        }
        if let Some(schedule) = &self.geometry {
            schedule.validate()?;
        }
        self.durability.validate()?;
        self.resilience.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_schedule() {
        let s = ChunkSizeSchedule::paper_default();
        assert_eq!(s.size_for(PrivacyLevel::Public), 256 << 10);
        assert_eq!(s.size_for(PrivacyLevel::High), 4 << 10);
        assert!(s.is_monotone());
    }

    #[test]
    fn uniform_schedule() {
        let s = ChunkSizeSchedule::uniform(1000);
        for pl in PrivacyLevel::ALL {
            assert_eq!(s.size_for(pl), 1000);
        }
        assert!(s.is_monotone());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_uniform_panics() {
        ChunkSizeSchedule::uniform(0);
    }

    #[test]
    fn default_config_is_valid_and_paper_shaped() {
        let c = DistributorConfig::default();
        c.validate().expect("defaults are valid");
        assert_eq!(c.raid_level, RaidLevel::Raid5);
        assert_eq!(c.placement, PlacementStrategy::CheapestEligible);
        assert_eq!(c.mislead_rate, 0.0);
        assert_eq!(c.durability.transfer_workers, 4);
        assert_eq!(c.durability.checkpoint_interval, 16);
        assert_eq!(c.durability.table_shards, 4);
        assert_eq!(c.durability.group_commit_window, Duration::ZERO);
    }

    #[test]
    fn invalid_configs_return_named_errors() {
        let err = DistributorConfig {
            stripe_width: 0,
            ..Default::default()
        }
        .validate()
        .expect_err("zero stripe");
        assert!(err.to_string().contains("stripe_width"));

        let err = DistributorConfig {
            mislead_rate: 0.9,
            ..Default::default()
        }
        .validate()
        .expect_err("mislead too high");
        assert!(err.to_string().contains("mislead_rate"));

        let err = DistributorConfig {
            chunk_sizes: ChunkSizeSchedule {
                sizes: [1024, 512, 0, 64],
            },
            ..Default::default()
        }
        .validate()
        .expect_err("zero chunk size");
        assert!(err.to_string().contains("chunk sizes"));

        for workers in [0usize, 65, 1000] {
            let err = DistributorConfig {
                durability: DurabilityConfig::default().with_transfer_workers(workers),
                ..Default::default()
            }
            .validate()
            .expect_err("bad worker count");
            assert!(err.to_string().contains("transfer_workers"), "{workers}");
        }
        for shards in [0usize, 65] {
            let err = DistributorConfig {
                durability: DurabilityConfig::default().with_table_shards(shards),
                ..Default::default()
            }
            .validate()
            .expect_err("bad shard count");
            assert!(err.to_string().contains("table_shards"), "{shards}");
        }
        let err = DistributorConfig {
            durability: DurabilityConfig::default().with_checkpoint_interval(0),
            ..Default::default()
        }
        .validate()
        .expect_err("zero interval");
        assert!(err.to_string().contains("checkpoint_interval"));

        DistributorConfig {
            durability: DurabilityConfig::default()
                .with_transfer_workers(1)
                .with_table_shards(1),
            ..Default::default()
        }
        .validate()
        .expect("1 worker (the serial put), 1 shard is valid");
    }

    #[test]
    fn geometry_levels_and_defaults() {
        assert_eq!(Geometry::new(4, 0).level(), RaidLevel::None);
        assert_eq!(Geometry::new(4, 1).level(), RaidLevel::Raid5);
        assert_eq!(Geometry::new(4, 2).level(), RaidLevel::Raid6);
        assert_eq!(
            Geometry::new(8, 3).level(),
            RaidLevel::Rs { parity: 3 }
        );
        assert_eq!(Geometry::new(8, 3).total(), 11);

        // Default config: geometry derives from stripe_width + raid_level.
        let c = DistributorConfig::default();
        for pl in PrivacyLevel::ALL {
            assert_eq!(c.geometry_for(pl), Geometry::new(4, 1));
        }
        // Schedule takes precedence and can vary per PL.
        let mut sched = GeometrySchedule::uniform(Geometry::new(8, 3));
        sched.per_pl[3] = Geometry::new(12, 4);
        let c = DistributorConfig {
            geometry: Some(sched),
            ..Default::default()
        };
        c.validate().expect("valid schedule");
        assert_eq!(c.geometry_for(PrivacyLevel::Public), Geometry::new(8, 3));
        assert_eq!(c.geometry_for(PrivacyLevel::High), Geometry::new(12, 4));
    }

    #[test]
    fn invalid_geometry_rejected_via_shared_check() {
        assert!(Geometry::new(0, 2).validate().is_err());
        assert!(Geometry::new(1, 0).validate().is_ok());
        assert!(Geometry::new(254, 3).validate().is_err()); // 257 points
        let c = DistributorConfig {
            geometry: Some(GeometrySchedule::uniform(Geometry::new(0, 1))),
            ..Default::default()
        };
        let err = c.validate().expect_err("zero data shards");
        assert!(err.to_string().contains("geometry"));
    }
}
