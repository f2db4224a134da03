#![warn(missing_docs)]

//! The Cloud Data Distributor — the paper's primary contribution.
//!
//! "Our approach consists of categorization, fragmentation and distribution
//! of data" (§I). The distributor receives files from clients, categorizes
//! them by privacy level, splits them into PL-sized chunks, assigns opaque
//! virtual ids, and places the chunks on eligible cloud providers with
//! RAID-style parity, optional misleading bytes, and snapshot support.
//!
//! Module map (↔ paper sections):
//!
//! - [`config`] — tunables: PL→chunk-size schedule, stripe width, default
//!   RAID level, misleading-byte rate, placement strategy;
//! - [`chunker`] — fragmentation (§VI `split`), PL-dependent chunk sizes
//!   (§VII-B/C);
//! - [`vid`] — virtual-id allocation (§IV-A identity concealment);
//! - [`mislead`] — misleading-data injection and stripping (§VII-D);
//! - [`tables`] — the Cloud Provider / Client / Chunk tables
//!   (Tables I–III);
//! - [`access`] — ⟨password, PL⟩ access control (§V, Fig. 3);
//! - [`policy`] — provider-eligibility and placement (§IV-A: "a chunk is
//!   given to a provider having equal or higher privacy level", cheapest
//!   cost level preferred);
//! - [`distributor`] — the [`distributor::CloudDataDistributor`] facade:
//!   `put_file`, `get_file`, `get_chunk`, `remove_file`, `remove_chunk`,
//!   `update_chunk` with snapshots (§VI);
//! - [`get`] — the get path: an owned read plan of the file's rows, read
//!   in stripe-aligned segments on the caller and the transfer pool;
//! - [`pool`] — the persistent bounded transfer pool shared by sessions:
//!   the put pipeline's stripe encodes and a get's segments are offered
//!   to it and run by a worker or their caller, whichever claims first;
//! - [`multi`] — multiple distributors, primary/secondary (§IV-C, Fig. 2);
//! - [`persist`] — versioned text snapshots of the table state, so a
//!   restarted (or newly promoted) distributor can rehydrate against the
//!   same provider fleet;
//! - [`journal`] — the append-only write-ahead journal: one commit
//!   **delta record** per state-mutating operation against the last
//!   checkpoint, a virtual-id lease made durable before any vid past it
//!   is stored, cross-operation group commit, and periodic checkpoint
//!   compaction;
//! - [`mutation`] — the one bracket every mutating verb runs in: fresh
//!   vids → stores → touched rows → one row-delta commit → superseded
//!   objects deleted after it;
//! - [`maintain`] — scrub and repair (§III-B availability): one walk per
//!   table shard that reads each stripe once and rebuilds lost shards
//!   through the get path's decode, under fresh virtual ids (§IV-A);
//! - [`recovery`] — rebuilds a distributor from a journal on restart:
//!   folds the checkpoint, commits and lease, lists every provider's keys
//!   and deletes each object no recovered row names;
//! - [`integrity`] — checksum framing around every stored shard: stamped
//!   at `put`, verified on every read, turning silent provider corruption
//!   into typed [`CoreError::ShardCorrupt`] erasures the parity machinery
//!   heals (and read-repair re-uploads);
//! - [`objectio`] — the provider-object boundary: the one framed, retried,
//!   health-scored read/write pair every object the distributor moves
//!   crosses;
//! - [`health`] — the one scorer of observed provider behaviour: an EWMA
//!   failure score and closed→open→half-open circuit breaker consulted
//!   by placement, read-candidate, degraded-write and repair-target
//!   ordering, plus the paper's earned-level audit in closed form;
//! - [`rebalance`] — §VII-E locality migration of hot chunks;
//! - [`envelope`] — client-side full/partial encryption composed with
//!   fragmentation (§VII-E: "encryption is not an alternative to
//!   fragmentation, rather it is a complement").

pub mod access;
pub mod chunker;
pub mod config;
pub mod distributor;
pub mod envelope;
pub mod get;
pub mod health;
pub mod integrity;
pub mod journal;
pub mod maintain;
pub mod mislead;
pub mod multi;
pub mod mutation;
pub mod objectio;
pub mod persist;
pub mod policy;
pub mod pool;
pub mod rebalance;
pub mod recovery;
pub mod resilience;
pub mod session;
pub mod tables;
pub mod vid;

pub use config::{
    ChunkSizeSchedule, DistributorConfig, DurabilityConfig, Geometry, GeometrySchedule,
    PlacementStrategy,
};
pub use distributor::{
    CloudDataDistributor, GetReceipt, PutOptions, PutReceipt, PUT_WINDOW_BYTES,
};
pub use fragcloud_sim::{CostLevel, PrivacyLevel, VirtualId};
pub use get::GET_SEGMENT_BYTES;
pub use health::{BreakerState, FailureKind, HealthTracker};
pub use integrity::{frame, unframe, FRAME_OVERHEAD, FRAME_VERSION};
pub use fragcloud_telemetry::TelemetryHandle;
pub use journal::{
    FaultySink, Journal, JournalSink, NoopSink, OpId, OpKind, SimulatedFsyncSink, SinkFault,
    VID_LEASE_BLOCK,
};
pub use pool::TransferPool;
pub use recovery::{recover, recover_with, RecoveryReport};
pub use resilience::{
    AttemptOutcome, RepairReport, ResilienceConfig, RetryExecution, RetryPolicy, ScrubReport,
};
pub use session::{Credentials, Session};

/// Errors surfaced by the distributor.
///
/// Marked `#[non_exhaustive]`: new failure modes (like the degraded-mode
/// engine's [`Timeout`](CoreError::Timeout) and
/// [`RetriesExhausted`](CoreError::RetriesExhausted)) may be added without
/// a breaking release, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// Unknown client name.
    UnknownClient(String),
    /// Unknown file for a client.
    UnknownFile {
        /// Client name.
        client: String,
        /// Requested filename.
        filename: String,
    },
    /// Chunk serial out of range.
    UnknownChunk {
        /// Requested filename.
        filename: String,
        /// Requested serial number.
        serial: u32,
    },
    /// Password not recognized, or its PL is below the chunk's PL —
    /// "the password is not privileged enough to access the chunk. Hence
    /// its request is denied" (§V).
    AccessDenied,
    /// A file with this name already exists for the client.
    FileExists(String),
    /// No provider is eligible to hold a chunk of this privacy level.
    NoEligibleProvider {
        /// The chunk privacy level that could not be placed.
        pl: PrivacyLevel,
    },
    /// Not enough *distinct* eligible providers for the requested stripe.
    InsufficientProviders {
        /// Providers needed (data + parity).
        needed: usize,
        /// Distinct eligible providers available.
        available: usize,
    },
    /// A provider operation failed.
    Store(fragcloud_sim::StoreError),
    /// Stripe reconstruction failed (too many providers down).
    Raid(fragcloud_raid::RaidError),
    /// Client registration conflict.
    ClientExists(String),
    /// `add_password` with a password the named client already lists
    /// (carries the client, not the password).
    PasswordExists(String),
    /// Upload sent to a distributor that is not the client's primary
    /// (§IV-C: "a specific distributor will act as the primary distributor
    /// that will upload data").
    NotPrimary {
        /// The client whose primary is elsewhere.
        client: String,
        /// Name of the actual primary distributor.
        primary: String,
    },
    /// The addressed distributor node is down.
    DistributorDown(String),
    /// An operation's cumulative simulated retry wait exceeded the
    /// [`RetryPolicy::op_deadline`](resilience::RetryPolicy::op_deadline).
    Timeout {
        /// Provider the operation was addressed to.
        provider: String,
    },
    /// Every attempt in the per-operation retry budget failed (and no
    /// replica or parity path could absorb the loss).
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A configuration value failed validation (see
    /// [`DistributorConfig::validate`](config::DistributorConfig::validate)).
    InvalidConfig {
        /// The violated constraint, naming the offending field.
        detail: String,
    },
    /// A persisted artifact (a [`persist`] snapshot or a [`journal`]
    /// export) failed to parse.
    CorruptState {
        /// 1-based line number inside the artifact (0 when unknown).
        line: usize,
        /// What was wrong with the record.
        why: String,
    },
    /// A [`fragcloud_sim::CrashPlan`] fired: the distributor "died" at the
    /// given crash point. Sim-only — never produced outside a
    /// crash-injection harness.
    SimulatedCrash {
        /// Ordinal of the crash point that fired (1-based encounter count).
        point: u64,
    },
    /// A streaming put's source yielded a different number of bytes than
    /// the declared length. The put is rolled back by the journal like any
    /// other failed operation.
    StreamLengthMismatch {
        /// Length the caller declared.
        declared: u64,
        /// Bytes the source actually produced (may be a lower bound when
        /// the mismatch was detected before draining the source).
        read: u64,
    },
    /// Reading from a streaming put's source failed.
    StreamIo {
        /// The underlying I/O error, stringified (keeps `CoreError`
        /// `Clone + PartialEq`).
        why: String,
    },
    /// A stripe encode of the put pipeline panicked, on a transfer-pool
    /// worker or on the caller's thread. The put fails (and is rolled back
    /// by the journal like any other failed operation) instead of
    /// re-raising the panic.
    EncodeTaskPanicked,
    /// A segment of a get panicked, on a transfer-pool worker or on the
    /// caller's thread. The get fails typed once every segment has
    /// returned, instead of re-raising the panic or waiting forever.
    ReadTaskPanicked,
    /// A stored shard failed integrity verification (see
    /// [`integrity`]): the provider returned bytes whose framing
    /// checksum does not match what was stamped at `put` time. Treated
    /// as an erasure — the read path routes it into parity
    /// reconstruction instead of handing bad bytes to decode.
    ShardCorrupt {
        /// Virtual id of the corrupt object.
        vid: VirtualId,
        /// What failed: "checksum mismatch", "unsupported frame
        /// version N", …
        why: String,
    },
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::UnknownClient(c) => write!(f, "unknown client {c:?}"),
            CoreError::UnknownFile { client, filename } => {
                write!(f, "client {client:?} has no file {filename:?}")
            }
            CoreError::UnknownChunk { filename, serial } => {
                write!(f, "file {filename:?} has no chunk #{serial}")
            }
            CoreError::AccessDenied => write!(f, "access denied"),
            CoreError::FileExists(n) => write!(f, "file {n:?} already exists"),
            CoreError::NoEligibleProvider { pl } => {
                write!(f, "no provider eligible for {pl} data")
            }
            CoreError::InsufficientProviders { needed, available } => write!(
                f,
                "stripe needs {needed} distinct providers, only {available} eligible"
            ),
            CoreError::Store(e) => write!(f, "provider error: {e}"),
            CoreError::Raid(e) => write!(f, "reconstruction error: {e}"),
            CoreError::ClientExists(c) => write!(f, "client {c:?} already registered"),
            CoreError::PasswordExists(c) => write!(f, "client {c:?} already lists that password"),
            CoreError::NotPrimary { client, primary } => {
                write!(
                    f,
                    "not the primary distributor for {client:?} (primary: {primary})"
                )
            }
            CoreError::DistributorDown(n) => write!(f, "distributor {n} is down"),
            CoreError::Timeout { provider } => {
                write!(f, "operation against {provider} exceeded its deadline")
            }
            CoreError::RetriesExhausted { attempts } => {
                write!(f, "operation failed after {attempts} attempts")
            }
            CoreError::InvalidConfig { detail } => {
                write!(f, "invalid configuration: {detail}")
            }
            CoreError::CorruptState { line, why } => {
                write!(f, "corrupt state at line {line}: {why}")
            }
            CoreError::SimulatedCrash { point } => {
                write!(f, "simulated crash at point {point}")
            }
            CoreError::StreamLengthMismatch { declared, read } => {
                write!(f, "stream declared {declared} bytes but produced {read}")
            }
            CoreError::StreamIo { why } => {
                write!(f, "stream read failed: {why}")
            }
            CoreError::EncodeTaskPanicked => write!(f, "stripe encode task panicked"),
            CoreError::ReadTaskPanicked => write!(f, "get segment panicked"),
            CoreError::ShardCorrupt { vid, why } => {
                write!(f, "stored shard {vid} failed integrity verification: {why}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<fragcloud_sim::StoreError> for CoreError {
    fn from(e: fragcloud_sim::StoreError) -> Self {
        CoreError::Store(e)
    }
}

impl From<fragcloud_raid::RaidError> for CoreError {
    fn from(e: fragcloud_raid::RaidError) -> Self {
        CoreError::Raid(e)
    }
}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, CoreError>;
