//! Mutation tests for the flow analyses against the *real* distributor
//! sources (not fixtures): the unmodified tree must scan clean, and a
//! surgical mutation — bypassing the mislead sanitizer, or storing an
//! update's objects before their `journal_alloc` — must make the taint
//! engine fire. This is the acceptance proof that the analyses track the
//! actual tree, not just hand-built examples.

use fraglint::{scan_files, Config};
use std::path::Path;

fn real_source(rel: &str) -> String {
    // CARGO_MANIFEST_DIR = crates/fraglint; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root");
    let path = root.join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn workspace_config() -> Config {
    fraglint::config::parse(&real_source("fraglint.toml")).expect("fraglint.toml parses")
}

const DISTRIBUTOR: &str = "crates/core/src/distributor.rs";
const MISLEAD: &str = "crates/core/src/mislead.rs";
const OBJECTIO: &str = "crates/core/src/objectio.rs";

#[test]
fn real_put_path_is_sanitized() {
    let report = scan_files(
        &[
            (DISTRIBUTOR.into(), real_source(DISTRIBUTOR)),
            (MISLEAD.into(), real_source(MISLEAD)),
            (OBJECTIO.into(), real_source(OBJECTIO)),
        ],
        &workspace_config(),
    );
    let escapes: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "plaintext-escape")
        .collect();
    assert!(
        escapes.is_empty(),
        "unmodified put path must sanitize through mislead::inject_into: {escapes:?}"
    );
}

#[test]
fn bypassing_the_mislead_sanitizer_is_caught() {
    // Mutate the data-shard fill the encode runs: swap the sanitizer call
    // for an identity shim, exactly the "refactor quietly dropped the
    // decoy layer" bug this analysis exists to catch. Everything else —
    // signatures, control flow, the provider sinks — stays untouched.
    let original = real_source(OBJECTIO);
    let mutated = original.replace(
        "let positions = mislead::inject_into(logical, rate, seed, &mut self.object);",
        "let positions = identity_pass(logical, rate, seed, &mut self.object);",
    );
    assert_ne!(original, mutated, "mutation site moved; update this test");

    let report = scan_files(
        &[
            (DISTRIBUTOR.into(), real_source(DISTRIBUTOR)),
            (MISLEAD.into(), real_source(MISLEAD)),
            (OBJECTIO.into(), mutated),
        ],
        &workspace_config(),
    );
    let escapes: Vec<_> = report
        .violations
        .iter()
        .filter(|v| v.rule == "plaintext-escape")
        .collect();
    assert!(
        !escapes.is_empty(),
        "bypassed sanitizer must surface as plaintext-escape; got only {:?}",
        report.violations
    );
    for v in &escapes {
        assert_eq!(v.path, DISTRIBUTOR);
        assert!(
            v.message.contains("plaintext may reach provider storage"),
            "message should explain the flow: {}",
            v.message
        );
    }
}

#[test]
fn storing_the_snapshot_before_its_alloc_is_caught() {
    // `update_chunk_impl` journals every fresh vid — its snapshot's among
    // them — before its first store; move that `journal_alloc` below the
    // stores — a crash between the two would leave objects no journal
    // record names.
    let original = real_source(DISTRIBUTOR);
    let ordering = |source: String| -> Vec<String> {
        scan_files(&[(DISTRIBUTOR.into(), source)], &workspace_config())
            .violations
            .iter()
            .filter(|v| v.rule == "journal-ordering")
            .map(|v| v.message.clone())
            .collect()
    };
    assert_eq!(ordering(original.clone()), Vec::<String>::new());

    // Both sites are the update's own: the restore and the removal journal
    // and store with the same two lines.
    let plan =
        "            let mut stores = self.chunk_stores(&st, chunk_idx, true, Some(snapshot));\n";
    let alloc = "            self.journal_alloc(ctx, &stores.vids());\n";
    let fill = "            (stores.stored, stores.pre_state) = (stored.into(), pre_state);\n";
    let store =
        "            let doomed = self.apply_chunk_stores(&mut st, chunk_idx, stores, ctx)?;\n";
    let (planned, filled) = (format!("{plan}{alloc}"), format!("{fill}{store}"));
    for site in [&planned, &filled] {
        let once = original.matches(site.as_str()).count() == 1;
        assert!(once, "mutation site moved; update this test");
    }
    let mutated = original
        .replace(&planned, plan)
        .replace(&filled, &format!("{filled}{alloc}"));

    let hits = ordering(mutated);
    assert!(
        hits.iter().any(
            |m| m.contains("provider upload precedes the journal alloc intent")
                && m.contains("`update_chunk_impl`")
        ),
        "alloc-after-upload must surface on the update verb; got {hits:?}"
    );
}
