//! Mutation tests for the flow analyses against the *real* distributor
//! sources (not fixtures): the unmodified tree must scan clean, and a
//! surgical mutation — bypassing the mislead sanitizer, or storing an
//! update's snapshot before its `journal_alloc` — must make the taint
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
    // The chunk-level verbs (update, restore, remove_chunk) share one
    // provider half; move the undo record's `journal_alloc` below the
    // snapshot `put` — a crash between the two would leave an object no
    // journal record names.
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

    let alloc_first = "        if let Some((_, snapshot_vid, _)) = rewrite.undo {
            self.journal_alloc(jctx, &[snapshot_vid]);
        }
";
    let put = "            self.put_with_retry(&st.providers, snapshot_idx, snapshot_vid, pre_state, &tel)
                .0?;
";
    let mutated = original.replace(alloc_first, "").replace(
        put,
        &format!("{put}            self.journal_alloc(jctx, &[snapshot_vid]);\n"),
    );
    assert_eq!(
        mutated.len(),
        original.len() - alloc_first.len()
            + "            self.journal_alloc(jctx, &[snapshot_vid]);\n".len(),
        "mutation site moved; update this test"
    );

    let hits = ordering(mutated);
    assert!(
        hits.iter().any(
            |m| m.contains("provider upload precedes the journal alloc intent")
                && m.contains("`update_chunk_impl`")
        ),
        "alloc-after-upload must surface on the update verb; got {hits:?}"
    );
}
