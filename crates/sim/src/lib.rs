#![warn(missing_docs)]

//! Simulated cloud storage providers.
//!
//! The paper's prototype used lab PCs as "Cloud Providers" exposing an
//! S3-like `put/get/delete` keyed by virtual id (§IV-B, §VI). This crate is
//! that substrate, built for experimentation:
//!
//! - [`types`] — shared vocabulary: [`types::PrivacyLevel`] (PL 0–3),
//!   [`types::CostLevel`] (CL 0–3), [`types::VirtualId`];
//! - [`store`] — the S3-like object-store trait and its thread-safe
//!   in-memory implementation;
//! - [`provider`] — a [`provider::CloudProvider`]: profile (name, PL, CL,
//!   $/GB-month), object store, online/offline switch, op statistics and a
//!   simulated-latency meter;
//! - [`net`] — the deterministic latency/bandwidth model used to report
//!   distribution/retrieval times without wall-clock noise;
//! - [`failure`] — outage schedules and Monte-Carlo availability sampling
//!   (the EC2-outage motivation from §I);
//! - [`fault`] — Byzantine/gray-failure injection: seeded per-provider
//!   corruption (bit-flip, truncation, stale replay, wrong-object swap)
//!   and degraded-latency "limping" links;
//! - [`observer`] — the honest-but-curious observer: records everything a
//!   provider sees so the attack experiments (§III) can replay a malicious
//!   employee or a compromise of `k` providers.

pub mod crash;
pub mod failure;
pub mod fault;
pub mod net;
pub mod observer;
pub mod provider;
pub mod store;
pub mod types;

pub use bytes::Bytes;
pub use crash::CrashPlan;
pub use fault::{FaultMode, FaultPlan};
pub use provider::{CloudProvider, ProviderProfile};
pub use store::{MemoryStore, ObjectStore, StoreError};
pub use types::{CostLevel, PrivacyLevel, VirtualId};
