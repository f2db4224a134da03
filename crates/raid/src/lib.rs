#![warn(missing_docs)]

//! RAID-style erasure coding across cloud providers.
//!
//! The paper (§IV-A) stripes chunks across providers "applying Redundant
//! Array of Independent Disks (RAID) strategy … The default choice is RAID
//! level 5. In case of higher assurance, RAID level 6 is used", following
//! RACS (Abu-Libdeh et al., SoCC'10) in treating **each cloud provider as a
//! separate disk**.
//!
//! This crate implements the coding layer from scratch, around **one**
//! erasure code:
//!
//! - [`gf256`] — arithmetic in GF(2⁸) with the Reed–Solomon polynomial
//!   `0x11D`,
//! - [`rs`] — systematic RS(k, m): the only parity engine. `m = 1` is
//!   XOR parity (the paper's RAID-5, one lost provider), `m = 2` is P+Q
//!   (RAID-6, any two), `m ≥ 3` a Cauchy block (any `m`); coefficient
//!   blocks are expanded once into cached split-nibble kernel tables,
//! - [`geometry`] — the shared [`geometry::check_geometry`] validation,
//! - [`stripe`] — the [`stripe::StripeCodec`] facade the distributor
//!   talks to; a [`stripe::RaidLevel`] names a parity-shard count and
//!   nothing else,
//! - [`raid5`], [`raid6`] — no code, only the two `parity_padded_into`
//!   delegations the benchmark's replay row still calls.
//!
//! The hot loops dispatch through an internal `kernel` module: u64
//! word-wide SWAR XOR for coefficient 1 and split-nibble lookup tables for
//! GF(2⁸) slice multiplication. Byte-at-a-time references survive as
//! `*_scalar` functions ([`RsCodec::parity_scalar`],
//! [`gf256::mul_acc_scalar`]) so tests and benches can pin the wide
//! kernels against them.

pub mod geometry;
pub mod gf256;
mod kernel;
pub mod raid5;
pub mod raid6;
pub mod rs;
pub mod stripe;

pub use geometry::check_geometry;
pub use rs::RsCodec;
pub use stripe::{RaidLevel, StripeCodec};

/// Errors produced by the erasure-coding layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RaidError {
    /// Stripe geometry is invalid (too few data shards, zero width, …).
    BadGeometry {
        /// Human-readable explanation.
        detail: String,
    },
    /// More shards were lost than the code can tolerate.
    TooManyErasures {
        /// Number of missing shards.
        missing: usize,
        /// Maximum number of erasures the configured level repairs.
        tolerable: usize,
    },
    /// Shards passed to decode have inconsistent lengths.
    ShardLengthMismatch,
}

impl std::fmt::Display for RaidError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaidError::BadGeometry { detail } => write!(f, "bad stripe geometry: {detail}"),
            RaidError::TooManyErasures { missing, tolerable } => write!(
                f,
                "unrecoverable stripe: {missing} shards missing, can repair {tolerable}"
            ),
            RaidError::ShardLengthMismatch => write!(f, "shards have inconsistent lengths"),
        }
    }
}

impl std::error::Error for RaidError {}

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, RaidError>;
