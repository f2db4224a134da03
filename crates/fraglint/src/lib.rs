//! fraglint — the workspace's own static-analysis pass.
//!
//! PRs 1–3 introduced invariants that `rustc` and `clippy` cannot see:
//! all thread fan-out belongs to `core::pool`, all wall-clock reads
//! belong to `telemetry::clock`, `unsafe` always carries a written
//! soundness argument, library crates never panic or print, the
//! deprecated string-triple API stays quarantined, and — the paper's
//! core guarantee — provider I/O flows only through the distributor so
//! the PL ≥ chunk-PL placement check can never be bypassed. fraglint
//! turns those from tribal knowledge into a CI gate.
//!
//! Since this PR, fraglint is a semantic analysis engine, not just a
//! token matcher. On top of the tokenizer sit an item-level parser
//! ([`parse`]), a workspace symbol table ([`symbols`]), a call graph
//! with token-order call sites ([`callgraph`]), and an interprocedural
//! flow engine ([`taint`]) that powers three analyses: the
//! `plaintext-escape` taint proof (client bytes must cross
//! `mislead::inject` or a declared sanitizer before any provider sink), the
//! `lock-order` shard-lock discipline, and the `journal-ordering`
//! alloc-before-upload, no-delete-before-commit crash-consistency check.
//!
//! The crate is deliberately dependency-free (the build environment has
//! no registry access): [`tokenizer`] is a small comment/string-aware
//! Rust lexer, [`rules`] holds the token-pattern matchers, [`engine`]
//! walks the workspace, runs both layers, and applies waivers and
//! exemptions (tracking which suppressions still earn their keep),
//! [`config`] reads `fraglint.toml` including the declared
//! source/sanitizer/sink lattice, and [`report`] renders the table and
//! JSON outputs plus the committed-baseline format.
//!
//! ```text
//! cargo run -p fraglint -- check            # human-readable table
//! cargo run -p fraglint -- check --format json
//! cargo run -p fraglint -- check --baseline fraglint-baseline.json --strict-waivers
//! cargo run -p fraglint -- selftest         # fixture corpus, both polarities
//! cargo run -p fraglint -- rules            # what is enforced, and why
//! ```
//!
//! Waive a single line with a trailing or directly-preceding comment:
//!
//! ```text
//! // fraglint: allow(no-unwrap-in-lib) — tx is Some until Drop by construction
//! ```
//!
//! Waive a whole path (with a mandatory reason) in `fraglint.toml`.
//! Unused waivers and exemptions are reported as warnings — and fail
//! the run under `--strict-waivers` — so suppressions cannot outlive
//! the findings that justified them.

pub mod callgraph;
pub mod config;
pub mod engine;
pub mod parse;
pub mod report;
pub mod rules;
pub mod symbols;
pub mod taint;
pub mod tokenizer;

pub use config::Config;
pub use engine::{scan, scan_files, scan_source, ScanReport, Violation, Warning};
