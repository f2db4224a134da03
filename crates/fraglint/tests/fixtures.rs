//! Fixture-tree integration tests: one known-bad and one known-good
//! file per rule, scanned exactly as `fraglint check` would scan the
//! real workspace (the fixture tree mirrors `crates/core/src/`, the
//! strictest scope). The tree under `tests/fixtures/tree/` is skipped
//! by the workspace walker, so these seeded violations never leak into
//! a real `check` run.

use fraglint::{scan, scan_source, Config};
use std::path::Path;

/// (rule id, bad fixture, good fixture) — file names relative to the
/// fixture tree's `crates/core/src/`.
const CASES: &[(&str, &str, &str)] = &[
    ("no-raw-spawn", "spawn_bad.rs", "spawn_good.rs"),
    ("no-wall-clock", "wallclock_bad.rs", "wallclock_good.rs"),
    ("no-unwrap-in-lib", "unwrap_bad.rs", "unwrap_good.rs"),
    ("safety-comment", "safety_bad.rs", "safety_good.rs"),
    (
        "no-deprecated-string-api",
        "deprecated_bad.rs",
        "deprecated_good.rs",
    ),
    ("no-print-in-lib", "print_bad.rs", "print_good.rs"),
    ("histogram-units", "histogram_bad.rs", "histogram_good.rs"),
    ("provider-boundary", "boundary_bad.rs", "boundary_good.rs"),
    // The rs/streaming put path: the same two boundaries hold for the
    // general-geometry store loop and the streaming buffer metrics.
    (
        "histogram-units",
        "histogram_stream_bad.rs",
        "histogram_stream_good.rs",
    ),
    (
        "provider-boundary",
        "boundary_stream_bad.rs",
        "boundary_stream_good.rs",
    ),
    // Semantic analyses (call-graph taint + lock discipline).
    ("plaintext-escape", "taint_escape_bad.rs", "taint_escape_good.rs"),
    (
        "journal-ordering",
        "journal_order_bad.rs",
        "journal_order_good.rs",
    ),
    ("lock-order", "lock_order_bad.rs", "lock_order_good.rs"),
    // The provider-object boundary is provider I/O by name.
    (
        "lock-order",
        "lock_order_objectio_bad.rs",
        "lock_order_objectio_good.rs",
    ),
    // So is the reclaimer's drain: it runs after the commit, never under a
    // guard.
    (
        "lock-order",
        "lock_order_delete_bad.rs",
        "lock_order_delete_good.rs",
    ),
    (
        "verify-before-decode",
        "verify_decode_bad.rs",
        "verify_decode_good.rs",
    ),
];

fn tree_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/tree")
}

fn read_fixture(name: &str) -> String {
    let path = tree_root().join("crates/core/src").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn every_bad_fixture_trips_exactly_its_rule() {
    let config = Config::default();
    for (rule, bad, _) in CASES {
        let rel = format!("crates/core/src/{bad}");
        let hits = scan_source(&rel, &read_fixture(bad), &config);
        assert!(
            !hits.is_empty(),
            "{bad}: expected a {rule} violation, got none"
        );
        for v in &hits {
            assert_eq!(v.rule, *rule, "{bad}: unexpected extra rule {}", v.rule);
            assert!(v.line > 0, "{bad}: violation must carry a line");
        }
    }
}

#[test]
fn every_good_fixture_is_clean() {
    let config = Config::default();
    for (rule, _, good) in CASES {
        let rel = format!("crates/core/src/{good}");
        let hits = scan_source(&rel, &read_fixture(good), &config);
        assert!(
            hits.is_empty(),
            "{good}: expected clean for {rule}, got {hits:?}"
        );
    }
}

#[test]
fn tree_scan_flags_every_bad_fixture_and_nothing_else() {
    // The same entry point the CLI uses: `check --root tests/fixtures/tree`
    // must exit nonzero, i.e. the directory scan sees the seeded bugs.
    let report = scan(&tree_root(), &Config::default()).unwrap();
    assert_eq!(report.files_scanned, 2 * CASES.len());
    for (rule, bad, _) in CASES {
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.rule == *rule && v.path.ends_with(bad)),
            "missing {rule} hit in {bad}"
        );
    }
    // Every violation is accounted for: it sits in a bad fixture and
    // carries that fixture's declared rule (a bad file may legitimately
    // hold several sites of its one rule, e.g. lock_order_bad.rs).
    for v in &report.violations {
        assert!(
            CASES
                .iter()
                .any(|(rule, bad, _)| v.rule == *rule && v.path.ends_with(bad)),
            "stray violation outside the declared corpus: {v:?}"
        );
    }
}

#[test]
fn every_rule_has_a_fixture_pair_on_disk() {
    // Coverage guard: a rule without a known-bad *and* known-good
    // fixture is a rule whose regressions nothing would catch.
    let src = tree_root().join("crates/core/src");
    for r in fraglint::rules::RULES {
        let case = CASES.iter().find(|(rule, _, _)| *rule == r.id);
        let Some((_, bad, good)) = case else {
            panic!("rule {} has no entry in CASES — add a fixture pair", r.id);
        };
        assert!(
            src.join(bad).is_file(),
            "rule {}: bad fixture {bad} missing on disk",
            r.id
        );
        assert!(
            src.join(good).is_file(),
            "rule {}: good fixture {good} missing on disk",
            r.id
        );
    }
}

#[test]
fn inline_waiver_silences_a_seeded_violation() {
    let config = Config::default();
    let bad = read_fixture("unwrap_bad.rs");
    let waived = bad.replace(
        "    owners.first().unwrap()",
        "    // fraglint: allow(no-unwrap-in-lib) — fixture waiver\n    owners.first().unwrap()",
    );
    assert_ne!(bad, waived, "replacement must apply");
    assert!(scan_source("crates/core/src/unwrap_bad.rs", &waived, &config).is_empty());
}

#[test]
fn config_exemption_silences_a_seeded_violation() {
    let config = fraglint::config::parse(
        "[[exempt]]\n\
         rule = \"no-unwrap-in-lib\"\n\
         path = \"crates/core/src/unwrap_bad.rs\"\n\
         reason = \"fixture exemption\"\n",
    )
    .unwrap();
    let hits = scan_source(
        "crates/core/src/unwrap_bad.rs",
        &read_fixture("unwrap_bad.rs"),
        &config,
    );
    assert!(hits.is_empty(), "exempted path must be clean: {hits:?}");
}

#[test]
fn test_code_is_exempt_where_the_rule_says_so() {
    // The unwrap rule skips #[cfg(test)] items; safety-comment does not.
    let config = Config::default();
    let src = "#[cfg(test)]\nmod tests {\n    fn f(v: Option<u8>) -> u8 { v.unwrap() }\n}\n";
    assert!(scan_source("crates/core/src/x.rs", src, &config).is_empty());

    let src = "#[cfg(test)]\nmod tests {\n    fn f(p: *const u8) -> u8 { unsafe { *p } }\n}\n";
    let hits = scan_source("crates/core/src/x.rs", src, &config);
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].rule, "safety-comment");
}
