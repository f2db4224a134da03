//! The project-invariant rules and their token-level matchers.
//!
//! Each rule guards one invariant introduced by an earlier growth PR:
//! the transfer pool owns all fan-out, telemetry's clock owns all time,
//! `unsafe` is always justified, panics stay out of library paths, the
//! removed string-triple API stays removed, library crates don't
//! write to stdio, and — the paper's core guarantee (Dev et al. 2012
//! §III/IV-A) — provider I/O flows only through the distributor so the
//! PL ≥ chunk-PL placement check cannot be bypassed.

use crate::tokenizer::{TokKind, Token};

/// Static description of one rule.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable id, usable in waivers and `fraglint.toml`.
    pub id: &'static str,
    /// One-line description of what the rule flags.
    pub summary: &'static str,
    /// The project invariant the rule protects.
    pub invariant: &'static str,
    /// Whether the rule also applies to test code (`#[cfg(test)]`
    /// modules and `tests/`/`benches/` targets).
    pub applies_to_tests: bool,
}

/// All rules, in reporting order.
pub const RULES: &[Rule] = &[
    Rule {
        id: "no-raw-spawn",
        summary: "std::thread::spawn / thread::Builder / thread::scope outside core::pool",
        invariant: "all I/O fan-out goes through the shared TransferPool so \
                    thread counts stay bounded and pool telemetry stays complete",
        applies_to_tests: false,
    },
    Rule {
        id: "no-wall-clock",
        summary: "Instant::now / SystemTime::now outside telemetry::clock",
        invariant: "telemetry::clock is the single time source, keeping span \
                    timings and the logical event order mutually consistent",
        applies_to_tests: false,
    },
    Rule {
        id: "no-unwrap-in-lib",
        summary: "unwrap()/expect(\"…\")/panic! in core/raid/telemetry/sim library code",
        invariant: "library failures surface as typed errors (CoreError/RaidError), \
                    never as process aborts a caller cannot handle",
        applies_to_tests: false,
    },
    Rule {
        id: "safety-comment",
        summary: "`unsafe` without an adjacent SAFETY justification",
        invariant: "every unsafe block or fn records why it is sound, so kernel \
                    reviews never re-derive soundness arguments from scratch",
        applies_to_tests: true,
    },
    Rule {
        id: "no-deprecated-string-api",
        summary: "#[allow(deprecated)] in workspace code",
        invariant: "the string-triple distributor API is gone; an \
                    #[allow(deprecated)] would let a resurrected copy hide, so \
                    every caller goes through the typed Session/Credentials API",
        applies_to_tests: true,
    },
    Rule {
        id: "no-print-in-lib",
        summary: "println!/eprintln! in library crate code",
        invariant: "library crates return data or go through telemetry exporters; \
                    only bins, benches and examples own stdio",
        applies_to_tests: false,
    },
    Rule {
        id: "histogram-units",
        summary: "histogram metric name without a unit suffix",
        invariant: "histogram names end in _us/_ns/_bytes/_count so every \
                    exported distribution (and its interpolated percentiles) \
                    is readable without chasing the recording site for units",
        applies_to_tests: false,
    },
    Rule {
        id: "provider-boundary",
        summary: "provider put/get/delete outside the distributor and its object boundary",
        invariant: "provider I/O flows only through the distributor, so the paper's \
                    PL >= chunk-PL placement check (Dev et al. SIII) cannot be bypassed",
        applies_to_tests: false,
    },
    Rule {
        id: "lock-order",
        summary: "shard locks out of ascending order, or held across provider/journal I/O",
        invariant: "the sharded tables' deadlock freedom rests on ascending-index \
                    acquisition, and a shard lock held across provider I/O or a \
                    journal fsync stalls every op routed to that shard",
        applies_to_tests: false,
    },
    Rule {
        id: "plaintext-escape",
        summary: "source-tainted bytes reach a provider sink with no sanitizer on the path",
        invariant: "the paper's core guarantee (Dev et al. SIV): client plaintext is \
                    fragmented and mislead-injected before any single provider \
                    stores it, so no provider-side miner sees reconstructable data",
        applies_to_tests: false,
    },
    Rule {
        id: "journal-ordering",
        summary: "provider upload/delete not dominated by its journal alloc/doom intent",
        invariant: "crash consistency: the intent record reaches the journal before \
                    the provider op, so recovery can enumerate orphans and roll \
                    half-done ops forward or back",
        applies_to_tests: false,
    },
    Rule {
        id: "verify-before-decode",
        summary: "provider-read shard bytes reach the erasure decode with no integrity check",
        invariant: "Byzantine containment: every fetched shard crosses the vid-seeded \
                    checksum verify (integrity::unframe_expecting) before RsCodec \
                    decode, so bit-rot, truncation and wrong-object reads surface \
                    as typed ShardCorrupt erasures — never as silently wrong bytes",
        applies_to_tests: false,
    },
];

/// Looks a rule up by id.
pub fn rule(id: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.id == id)
}

/// A raw rule hit inside one file, before waiver/exemption filtering.
#[derive(Debug, Clone)]
pub struct Hit {
    /// 1-based line of the offending token.
    pub line: u32,
    /// Human-readable explanation with local context.
    pub message: String,
}

/// Paths (workspace-relative, `/`-separated) where a rule is allowed by
/// definition — the rule's own home. Prefixes ending in `/` cover
/// directories.
pub fn built_in_allowed_paths(rule_id: &str) -> &'static [&'static str] {
    match rule_id {
        "no-raw-spawn" => &["crates/core/src/pool.rs"],
        "no-wall-clock" => &["crates/telemetry/src/clock.rs"],
        "provider-boundary" => &[
            // The framed, retried, health-scored read/write pair — the
            // only `get`/`put` callers in `crates/core` — and the mutation
            // bracket's post-commit delete step.
            "crates/core/src/objectio.rs",
            "crates/core/src/mutation.rs",
            // The providers' own crate: stores, failure injection and the
            // provider implementation itself necessarily touch the ops.
            "crates/sim/src/",
        ],
        _ => &[],
    }
}

/// Whether `rule_id` scans the file at `rel_path` at all (independent of
/// test-code classification and configured exemptions).
pub fn in_scope(rule_id: &str, rel_path: &str) -> bool {
    if built_in_allowed_paths(rule_id)
        .iter()
        .any(|p| rel_path == *p || (p.ends_with('/') && rel_path.starts_with(p)))
    {
        return false;
    }
    match rule_id {
        "no-unwrap-in-lib" => ["core", "raid", "telemetry", "sim"]
            .iter()
            .any(|c| rel_path.starts_with(&format!("crates/{c}/src/"))),
        "no-print-in-lib" => {
            rel_path.starts_with("crates/")
                && rel_path.contains("/src/")
                && !rel_path.contains("/bin/")
                && !rel_path.ends_with("/main.rs")
        }
        _ => true,
    }
}

/// Runs one rule's matcher over a file's tokens. `code` holds the
/// indices of non-comment tokens in `tokens`.
pub fn run_rule(rule_id: &str, tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    match rule_id {
        "no-raw-spawn" => raw_spawn(tokens, code),
        "no-wall-clock" => wall_clock(tokens, code),
        "no-unwrap-in-lib" => unwrap_in_lib(tokens, code),
        "safety-comment" => safety_comment(tokens, code),
        "no-deprecated-string-api" => deprecated_api(tokens, code),
        "no-print-in-lib" => print_in_lib(tokens, code),
        "histogram-units" => histogram_units(tokens, code),
        "provider-boundary" => provider_boundary(tokens, code),
        "lock-order" => lock_order(tokens, code),
        // plaintext-escape, journal-ordering and verify-before-decode
        // are interprocedural; the engine runs them through
        // `taint::analyze` over the whole workspace, not through the
        // per-file matcher dispatch.
        _ => Vec::new(),
    }
}

/// True when the code tokens starting at `code[at]` match `pat`, where
/// each pattern element compares against the token text.
fn seq(tokens: &[Token], code: &[usize], at: usize, pat: &[&str]) -> bool {
    pat.iter().enumerate().all(|(k, want)| {
        code.get(at + k)
            .map(|&ti| tokens[ti].text == *want)
            .unwrap_or(false)
    })
}

fn raw_spawn(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        // `thread::scope` covers std's and the vendored crossbeam's: a
        // scoped fan-out is thread creation all the same.
        if ["spawn", "Builder", "scope"]
            .iter()
            .any(|api| seq(tokens, code, i, &["thread", ":", ":", api]))
        {
            let t = &tokens[code[i + 3]];
            hits.push(Hit {
                line: t.line,
                message: format!(
                    "raw thread creation via `thread::{}`; submit work to core::pool::TransferPool",
                    t.text
                ),
            });
        }
    }
    hits
}

fn wall_clock(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        for src in ["Instant", "SystemTime"] {
            if seq(tokens, code, i, &[src, ":", ":", "now"]) {
                hits.push(Hit {
                    line: tokens[code[i]].line,
                    message: format!(
                        "`{src}::now()` outside telemetry::clock; use clock::monotonic_now() \
                         (or the logical clock::tick()) so all time flows from one source"
                    ),
                });
            }
        }
    }
    hits
}

fn unwrap_in_lib(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        let t = &tokens[code[i]];
        if t.is_punct('.') && seq(tokens, code, i + 1, &["unwrap", "(", ")"]) {
            hits.push(Hit {
                line: tokens[code[i + 1]].line,
                message: "`.unwrap()` in library code; propagate a typed error instead".into(),
            });
        }
        // `.expect(` only counts with a string-literal message: parser
        // combinators and similar APIs legitimately name methods
        // `expect(byte)`.
        if t.is_punct('.')
            && seq(tokens, code, i + 1, &["expect", "("])
            && code
                .get(i + 3)
                .map(|&ti| tokens[ti].kind == TokKind::Str)
                .unwrap_or(false)
        {
            hits.push(Hit {
                line: tokens[code[i + 1]].line,
                message: "`.expect(\"…\")` in library code; propagate a typed error instead".into(),
            });
        }
        if t.is_ident("panic")
            && code
                .get(i + 1)
                .map(|&ti| tokens[ti].is_punct('!'))
                .unwrap_or(false)
        {
            hits.push(Hit {
                line: t.line,
                message: "`panic!` in library code; return a typed error the caller can handle"
                    .into(),
            });
        }
    }
    hits
}

fn safety_comment(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    // Brace depths of the bodies of justified `unsafe impl` blocks we are
    // inside: an `unsafe fn` directly in one implements a method whose
    // contract the trait states, and the impl's SAFETY comment says how
    // every method meets it — there is nothing more for the fn to record.
    let mut depth = 0usize;
    let mut justified_impls: Vec<usize> = Vec::new();
    let mut impl_body_pending = false;
    for (i, &ti) in code.iter().enumerate() {
        let t = &tokens[ti];
        if t.is_punct('{') {
            depth += 1;
            if std::mem::take(&mut impl_body_pending) {
                justified_impls.push(depth);
            }
        } else if t.is_punct('}') {
            if justified_impls.last() == Some(&depth) {
                justified_impls.pop();
            }
            depth = depth.saturating_sub(1);
        }
        if !t.is_ident("unsafe") {
            continue;
        }
        let followed_by = |word: &str| code.get(i + 1).is_some_and(|&n| tokens[n].is_ident(word));
        let justified = has_safety_justification(tokens, code, ti);
        impl_body_pending |= justified && followed_by("impl");
        let trait_method = justified_impls.last() == Some(&depth) && followed_by("fn");
        if !justified && !trait_method {
            hits.push(Hit {
                line: t.line,
                message: "`unsafe` without an adjacent `// SAFETY:` (or `# Safety` doc) \
                          justification"
                    .into(),
            });
        }
    }
    hits
}

/// A SAFETY justification counts when a comment containing `SAFETY` or
/// `Safety` sits on the same line as the `unsafe` token, or in the
/// contiguous run of comment/attribute-only lines directly above it.
fn has_safety_justification(tokens: &[Token], code: &[usize], unsafe_ti: usize) -> bool {
    let unsafe_line = tokens[unsafe_ti].line;
    let mentions_safety =
        |t: &Token| t.is_comment() && (t.text.contains("SAFETY") || t.text.contains("Safety"));

    // Lines with any non-comment token that is not part of an attribute.
    // Attribute lines are approximated as "first code token on the line
    // is `#`", which covers `#[…]` and `#![…]` (multi-line attribute
    // bodies are rare enough not to matter for adjacency).
    let mut first_code_on_line: std::collections::HashMap<u32, &Token> =
        std::collections::HashMap::new();
    for &ci in code {
        first_code_on_line
            .entry(tokens[ci].line)
            .or_insert(&tokens[ci]);
    }
    let blocks_run = |line: u32| match first_code_on_line.get(&line) {
        // A code line that is not an attribute ends the comment run —
        // unless it is the run's own `unsafe` line.
        Some(tok) => !tok.is_punct('#') && line != unsafe_line,
        None => false,
    };

    for t in tokens {
        if !mentions_safety(t) {
            continue;
        }
        if t.line == unsafe_line {
            return true;
        }
        if t.line < unsafe_line {
            // Accept when every line strictly between the comment and the
            // `unsafe` is comment/attribute/blank.
            if (t.line + 1..unsafe_line).all(|l| !blocks_run(l)) {
                return true;
            }
        }
    }
    false
}

fn deprecated_api(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        if seq(tokens, code, i, &["allow", "(", "deprecated", ")"]) {
            hits.push(Hit {
                line: tokens[code[i]].line,
                message: "`#[allow(deprecated)]`: the string-triple distributor API \
                          was removed; use the typed Session API (or waive with a \
                          reason)"
                    .into(),
            });
        }
    }
    hits
}

fn print_in_lib(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        let t = &tokens[code[i]];
        if (t.is_ident("println") || t.is_ident("eprintln"))
            && code
                .get(i + 1)
                .map(|&ti| tokens[ti].is_punct('!'))
                .unwrap_or(false)
        {
            hits.push(Hit {
                line: t.line,
                message: format!(
                    "`{}!` in library code; return the text or emit it through a \
                     telemetry exporter",
                    t.text
                ),
            });
        }
    }
    hits
}

/// Accepted histogram-name endings; one per exported unit.
const UNIT_SUFFIXES: &[&str] = &["_us", "_ns", "_bytes", "_count"];

/// Methods whose string-literal first argument names a histogram.
const HISTOGRAM_METHODS: &[&str] = &["observe", "observe_labeled", "observe_micros", "histogram"];

fn histogram_units(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        if !tokens[code[i]].is_punct('.') {
            continue;
        }
        let Some(&mi) = code.get(i + 1) else { continue };
        let method = &tokens[mi];
        if !HISTOGRAM_METHODS.iter().any(|m| method.is_ident(m)) {
            continue;
        }
        if !code
            .get(i + 2)
            .map(|&ti| tokens[ti].is_punct('('))
            .unwrap_or(false)
        {
            continue;
        }
        // Only string-literal names are checkable; computed names pass.
        let Some(&ai) = code.get(i + 3) else { continue };
        let arg = &tokens[ai];
        if arg.kind != TokKind::Str {
            continue;
        }
        let name = arg.text.trim_matches('"');
        if UNIT_SUFFIXES.iter().any(|s| name.ends_with(s)) {
            continue;
        }
        hits.push(Hit {
            line: arg.line,
            message: format!(
                "histogram name {name:?} has no unit suffix; end it in one of \
                 _us/_ns/_bytes/_count so exported percentiles carry their unit"
            ),
        });
    }
    hits
}

fn provider_boundary(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    for i in 0..code.len() {
        let t = &tokens[code[i]];
        if !t.is_punct('.') {
            continue;
        }
        let Some(&mi) = code.get(i + 1) else { continue };
        let method = &tokens[mi];
        if !(method.is_ident("put") || method.is_ident("get") || method.is_ident("delete")) {
            continue;
        }
        if !code
            .get(i + 2)
            .map(|&ti| tokens[ti].is_punct('('))
            .unwrap_or(false)
        {
            continue;
        }
        if receiver_names_a_provider(tokens, code, i) {
            hits.push(Hit {
                line: method.line,
                message: format!(
                    "provider `.{}()` outside the distributor boundary; route through \
                     core::distributor so the PL >= chunk-PL placement check applies",
                    method.text
                ),
            });
        }
    }
    hits
}

/// Names that acquire a table lock. `shard_read`/`shard_write` take a
/// shard index; the rest take none: `lock_all_read` locks ascending
/// internally but returns a full set of held guards, and the client
/// directory's guard is one lock of its own.
const SHARD_LOCK_FNS: &[&str] = &["shard_read", "shard_write"];
const UNINDEXED_LOCK_FNS: &[&str] = &["lock_all_read", "directory_read", "directory_write"];

/// Provider methods that count as I/O for the held-across check.
const PROVIDER_IO_METHODS: &[&str] = &["put", "get", "delete", "store"];

/// Provider I/O by name, whatever the receiver (or none): the
/// provider-object boundary (`core::objectio`) and the delete step of the
/// mutation bracket (`core::mutation`), which runs after the commit and
/// never under a guard.
const BOUNDARY_FNS: &[&str] = &[
    "get_with_retry",
    "put_with_retry",
    "put_framed",
    "delete_doomed",
];

/// A shard-lock guard believed live at the current token.
struct LockGuard {
    /// Binding name, when the acquisition was `let name = …` — enables
    /// explicit `drop(name)` tracking.
    name: Option<String>,
    /// Shard index when written as an integer literal.
    index: Option<u64>,
    line: u32,
    /// Brace depth at acquisition (for `let` bindings: guard lives to
    /// the end of the enclosing block). `None` for temporaries, which
    /// die at the end of the statement.
    block_depth: Option<i32>,
}

/// Within each function body (approximated by brace scoping), flags
/// (a) a second shard acquisition with a smaller-or-equal literal index
/// than one already held — the ascending-order deadlock convention —
/// and (b) any provider I/O — a provider method, a call to the
/// provider-object boundary or the bracket's delete step — or
/// `JournalSink::persist` call made while a shard guard is live. Lexical: a guard passed to a callee as a
/// parameter is not followed.
fn lock_order(tokens: &[Token], code: &[usize]) -> Vec<Hit> {
    let mut hits = Vec::new();
    let mut guards: Vec<LockGuard> = Vec::new();
    let mut depth = 0i32;
    let mut paren = 0i32;
    let mut bracket = 0i32;
    // Code index where the current statement began, for `let` detection.
    let mut stmt_start = 0usize;

    for i in 0..code.len() {
        let t = &tokens[code[i]];
        match t.text.as_str() {
            "{" => {
                depth += 1;
                stmt_start = i + 1;
                continue;
            }
            "}" => {
                depth -= 1;
                guards.retain(|g| g.block_depth.map(|d| d <= depth).unwrap_or(true));
                stmt_start = i + 1;
                continue;
            }
            "(" => paren += 1,
            ")" => paren -= 1,
            "[" => bracket += 1,
            "]" => bracket -= 1,
            ";" if paren == 0 && bracket == 0 => {
                // Temporaries (non-`let` acquisitions) die with their
                // statement.
                guards.retain(|g| g.block_depth.is_some());
                stmt_start = i + 1;
                continue;
            }
            _ => {}
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let next_is_paren = code
            .get(i + 1)
            .map(|&ti| tokens[ti].is_punct('('))
            .unwrap_or(false);
        if !next_is_paren {
            continue;
        }
        let prev_is_fn_kw = i
            .checked_sub(1)
            .map(|p| tokens[code[p]].is_ident("fn"))
            .unwrap_or(false);
        let name = t.text.as_str();

        // Explicit release: `drop(guard)` / `mem::drop(guard)`.
        if name == "drop" {
            if let (Some(&ai), Some(&ci)) = (code.get(i + 2), code.get(i + 3)) {
                if tokens[ai].kind == TokKind::Ident && tokens[ci].is_punct(')') {
                    let dropped = &tokens[ai].text;
                    guards.retain(|g| g.name.as_deref() != Some(dropped));
                }
            }
            continue;
        }

        // Acquisitions.
        if !prev_is_fn_kw
            && (SHARD_LOCK_FNS.contains(&name) || UNINDEXED_LOCK_FNS.contains(&name))
        {
            let index = if SHARD_LOCK_FNS.contains(&name) {
                literal_arg(tokens, code, i)
            } else {
                None
            };
            if let Some(new_idx) = index {
                for g in &guards {
                    if let Some(held) = g.index {
                        if new_idx <= held {
                            hits.push(Hit {
                                line: t.line,
                                message: format!(
                                    "shard {new_idx} locked while shard {held} (line {}) is \
                                     still held; shard locks must be acquired in strictly \
                                     ascending index order to stay deadlock-free",
                                    g.line
                                ),
                            });
                            break;
                        }
                    }
                }
            }
            // The guard is a block-scoped binding only when the statement
            // is `let … = name(…);` with the call as the whole initializer
            // — a trailing `.field`/`.method()` chain means the guard is a
            // temporary that dies at the statement's `;`.
            let binding = match let_binding(tokens, code, stmt_start) {
                Some(name) if call_ends_statement(tokens, code, i) => Some(name),
                _ => None,
            };
            guards.push(LockGuard {
                block_depth: binding.is_some().then_some(depth),
                name: binding.flatten(),
                index,
                line: t.line,
            });
            continue;
        }

        // Held-across: provider I/O or a journal persist while locked.
        if guards.is_empty() {
            continue;
        }
        let prev_is_dot = i
            .checked_sub(1)
            .map(|p| tokens[code[p]].is_punct('.'))
            .unwrap_or(false);
        if !prev_is_dot && !BOUNDARY_FNS.contains(&name) {
            continue;
        }
        let held = &guards[0];
        if name == "persist" {
            hits.push(Hit {
                line: t.line,
                message: format!(
                    "journal `persist` (group-commit fsync) called while a shard lock \
                     (line {}) is held; release the guard first or the fsync stalls \
                     every op on that shard",
                    held.line
                ),
            });
        } else if BOUNDARY_FNS.contains(&name)
            || (PROVIDER_IO_METHODS.contains(&name)
                && receiver_names_a_provider(tokens, code, i - 1))
        {
            hits.push(Hit {
                line: t.line,
                message: format!(
                    "provider `.{name}()` called while a shard lock (line {}) is held; \
                     provider I/O under a table lock serializes the shard for the \
                     whole round-trip",
                    held.line
                ),
            });
        }
    }
    hits
}

/// Integer literal shard index when the call at `code[i]` is written
/// `name(<int-literal>)`, e.g. `self.shard_write(0)`.
fn literal_arg(tokens: &[Token], code: &[usize], i: usize) -> Option<u64> {
    let arg = &tokens[*code.get(i + 2)?];
    let close = &tokens[*code.get(i + 3)?];
    if arg.kind != TokKind::Num || !close.is_punct(')') {
        return None;
    }
    let digits: String = arg.text.chars().filter(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

/// Whether the call whose name sits at `code[i]` is the end of its
/// statement: the token after the call's matching `)` is `;`.
fn call_ends_statement(tokens: &[Token], code: &[usize], i: usize) -> bool {
    let mut depth = 0i32;
    let mut j = i + 1;
    loop {
        let Some(&ti) = code.get(j) else { return false };
        if tokens[ti].is_punct('(') {
            depth += 1;
        } else if tokens[ti].is_punct(')') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        }
        j += 1;
    }
    code.get(j + 1)
        .map(|&ti| tokens[ti].is_punct(';'))
        .unwrap_or(false)
}

/// When the statement starting at `code[stmt_start]` is a `let`, returns
/// `Some(binding_name)` (or `Some(None)` for destructuring patterns);
/// `None` when it is not a binding at all.
#[allow(clippy::option_option)]
fn let_binding(tokens: &[Token], code: &[usize], stmt_start: usize) -> Option<Option<String>> {
    if !tokens[*code.get(stmt_start)?].is_ident("let") {
        return None;
    }
    let mut j = stmt_start + 1;
    if code
        .get(j)
        .map(|&ti| tokens[ti].is_ident("mut"))
        .unwrap_or(false)
    {
        j += 1;
    }
    let name = code.get(j).and_then(|&ti| {
        (tokens[ti].kind == TokKind::Ident).then(|| tokens[ti].text.clone())
    });
    Some(name)
}

/// Walks the receiver chain left of the `.` at `code[dot]` — idents,
/// field accesses and index expressions — and reports whether any
/// identifier in the chain names a provider. Bracketed index contents
/// are skipped (so `st.providers[e.provider_idx]` matches on the outer
/// `providers`, not the index expression), and anything else (a `)`, an
/// operator, a `,`) ends the chain: method-call results and unrelated
/// map lookups like `self.clients.get(name)` stay unflagged unless the
/// chain itself says "provider".
pub(crate) fn receiver_names_a_provider(tokens: &[Token], code: &[usize], dot: usize) -> bool {
    let mut i = dot;
    while i > 0 {
        i -= 1;
        let t = &tokens[code[i]];
        match t.kind {
            TokKind::Ident => {
                if t.text.to_ascii_lowercase().contains("provider") {
                    return true;
                }
            }
            TokKind::Punct if t.is_punct(']') => {
                // Skip the index expression to its opening bracket.
                let mut depth = 1usize;
                while i > 0 && depth > 0 {
                    i -= 1;
                    let inner = &tokens[code[i]];
                    if inner.is_punct(']') {
                        depth += 1;
                    } else if inner.is_punct('[') {
                        depth -= 1;
                    }
                }
            }
            TokKind::Punct if t.is_punct('.') || t.is_punct(':') => {}
            _ => break,
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenizer::tokenize;

    fn run(rule_id: &str, src: &str) -> Vec<Hit> {
        let tokens = tokenize(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !tokens[i].is_comment())
            .collect();
        run_rule(rule_id, &tokens, &code)
    }

    #[test]
    fn spawn_and_builder_flagged_but_strings_ignored() {
        assert_eq!(run("no-raw-spawn", "std::thread::spawn(|| {});").len(), 1);
        assert_eq!(run("no-raw-spawn", "thread::Builder::new()").len(), 1);
        assert!(run("no-raw-spawn", r#"let s = "thread::spawn";"#).is_empty());
        assert!(run("no-raw-spawn", "pool.submit(work)").is_empty());
    }

    #[test]
    fn scoped_fan_out_flagged_std_and_crossbeam() {
        assert_eq!(run("no-raw-spawn", "std::thread::scope(|s| {});").len(), 1);
        assert_eq!(run("no-raw-spawn", "crossbeam::thread::scope(|s| {})").len(), 1);
        assert!(run("no-raw-spawn", "pool.scope(work)").is_empty());
    }

    #[test]
    fn wall_clock_flagged() {
        assert_eq!(run("no-wall-clock", "let t = Instant::now();").len(), 1);
        assert_eq!(
            run("no-wall-clock", "std::time::SystemTime::now()").len(),
            1
        );
        assert!(run("no-wall-clock", "clock::monotonic_now()").is_empty());
    }

    #[test]
    fn unwrap_expect_panic_flagged_with_method_name_immunity() {
        assert_eq!(run("no-unwrap-in-lib", "x.unwrap();").len(), 1);
        assert_eq!(run("no-unwrap-in-lib", r#"x.expect("boom");"#).len(), 1);
        assert_eq!(run("no-unwrap-in-lib", r#"panic!("boom");"#).len(), 1);
        // A parser method named `expect` taking a byte is not a hit.
        assert!(run("no-unwrap-in-lib", "self.expect(b'\"')?;").is_empty());
        assert!(run("no-unwrap-in-lib", "x.unwrap_or(0);").is_empty());
        // unwrap inside a doc comment is not code.
        assert!(run("no-unwrap-in-lib", "//! x.unwrap()\nlet a = 1;").is_empty());
    }

    #[test]
    fn safety_comment_adjacency() {
        assert!(run("safety-comment", "// SAFETY: checked above\nunsafe { f() }").is_empty());
        assert!(run(
            "safety-comment",
            "/// # Safety\n/// Requires SSSE3.\n#[target_feature(enable = \"ssse3\")]\nunsafe fn g() {}"
        )
        .is_empty());
        assert!(run("safety-comment", "unsafe { f() } // SAFETY: same line").is_empty());
        assert_eq!(run("safety-comment", "unsafe { f() }").len(), 1);
        // A code line between the comment and the block breaks adjacency.
        assert_eq!(
            run(
                "safety-comment",
                "// SAFETY: stale\nlet x = 1;\nunsafe { f() }"
            )
            .len(),
            1
        );
        // Methods of a justified `unsafe impl` take their contract from
        // the trait; their own unsafe blocks still need a justification,
        // and an unjustified impl covers nothing.
        let methods = "unsafe impl T for X {\n unsafe fn a(&self) {\n // SAFETY: ok\n unsafe { f() }\n }\n unsafe fn b(&self) {\n unsafe { g() }\n }\n}\nunsafe fn h() {}";
        assert_eq!(run("safety-comment", methods).len(), 5);
        let justified = format!("// SAFETY: forwards unchanged\n{methods}");
        let lines: Vec<u32> = run("safety-comment", &justified)
            .iter()
            .map(|h| h.line)
            .collect();
        assert_eq!(lines, [8, 11]);
    }

    #[test]
    fn deprecated_allow_flagged() {
        assert_eq!(
            run("no-deprecated-string-api", "#[allow(deprecated)]").len(),
            1
        );
        assert!(run("no-deprecated-string-api", "#[allow(dead_code)]").is_empty());
    }

    #[test]
    fn prints_flagged() {
        assert_eq!(run("no-print-in-lib", r#"println!("x");"#).len(), 1);
        assert_eq!(run("no-print-in-lib", r#"eprintln!("x");"#).len(), 1);
        assert!(run("no-print-in-lib", r#"writeln!(f, "x");"#).is_empty());
    }

    #[test]
    fn histogram_units_suffix_required() {
        assert_eq!(
            run("histogram-units", r#"tel.observe("queue_depth", 3);"#).len(),
            1
        );
        assert_eq!(
            run("histogram-units", r#"tel.observe_micros("fsync_wait", d);"#).len(),
            1
        );
        assert_eq!(
            run(
                "histogram-units",
                r#"tel.observe_labeled("put_wall", "plain", v);"#
            )
            .len(),
            1
        );
        for ok in [
            r#"tel.observe("journal_batch_ops_count", n);"#,
            r#"tel.observe_micros("journal_fsync_wait_us", d);"#,
            r#"tel.observe_labeled("put_wall_us", "plain", v);"#,
            r#"snap.histogram("shard_bytes", "")"#,
            // Computed names cannot be checked statically.
            "tel.observe(name, v);",
            // Counters are a different namespace; incr/add are not covered.
            r#"tel.incr("puts_total");"#,
        ] {
            assert!(run("histogram-units", ok).is_empty(), "{ok}");
        }
    }

    #[test]
    fn lock_order_non_ascending_flagged() {
        let src = "fn f(&self) {
            let hi = self.shard_write(2);
            let lo = self.shard_write(1);
        }";
        let hits = run("lock-order", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("ascending"));
        // Ascending order is the convention — clean.
        let ok = "fn f(&self) {
            let lo = self.shard_read(1);
            let hi = self.shard_read(2);
        }";
        assert!(run("lock-order", ok).is_empty());
        // Re-acquiring the same literal index is also a deadlock.
        let dup = "fn f(&self) {
            let a = self.shard_read(0);
            let b = self.shard_write(0);
        }";
        assert_eq!(run("lock-order", dup).len(), 1);
    }

    #[test]
    fn lock_order_guard_lifetimes() {
        // Block scope ends the guard: sibling fns don't interact.
        let src = "fn a(&self) { let g = self.shard_write(3); }
                   fn b(&self) { let g = self.shard_write(1); }";
        assert!(run("lock-order", src).is_empty());
        // A temporary (no `let`) dies at its statement's `;`.
        let tmp = "fn f(&self) {
            let n = self.shard_read(2).chunks.len();
            let g = self.shard_read(1);
        }";
        assert!(run("lock-order", tmp).is_empty());
        // An explicit drop releases the named guard.
        let dropped = "fn f(&self) {
            let hi = self.shard_write(2);
            std::mem::drop(hi);
            let lo = self.shard_write(1);
        }";
        assert!(run("lock-order", dropped).is_empty());
    }

    #[test]
    fn lock_order_held_across_io() {
        let src = "fn f(&self) {
            let st = self.shard_write(0);
            st.providers[i].put(vid, b);
        }";
        let hits = run("lock-order", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("provider `.put()`"));
        // Same for the journal's group-commit fsync.
        let fsync = "fn f(&self) {
            let st = self.shard_read(0);
            self.sink.persist(batch);
        }";
        assert_eq!(run("lock-order", fsync).len(), 1);
        // The boundary pair is provider I/O by name, whatever the receiver.
        let boundary = "fn f(&self) {
            let st = self.shard_write(0);
            self.get_with_retry(&st, p, vid, Some(n), &tel);
        }";
        assert_eq!(run("lock-order", boundary).len(), 1);

        let delete_step = "fn f(&self) {
            let st = self.shard_write(shard);
            delete_doomed(&doomed);
        }";
        assert_eq!(run("lock-order", delete_step).len(), 1);
        // Non-provider receivers under a lock are fine.
        let ok = "fn f(&self) {
            let st = self.shard_read(0);
            let c = st.chunks.get(serial);
        }";
        assert!(run("lock-order", ok).is_empty());
        // I/O after the guard's block is fine.
        let after = "fn f(&self) {
            { let st = self.shard_write(0); st.touch(); }
            provider.put(vid, b);
        }";
        assert!(run("lock-order", after).is_empty());
        // lock_all guards count as held even without an index.
        let all = "fn f(&self) {
            let guards = self.lock_all_read();
            provider.get(vid);
        }";
        assert_eq!(run("lock-order", all).len(), 1);
        // So does the client directory's guard.
        let directory = "fn f(&self) {
            let clients = self.directory_write();
            self.journal.persist(batch);
        }";
        assert_eq!(run("lock-order", directory).len(), 1);
    }

    #[test]
    fn lock_order_ignores_definitions_and_variable_indices() {
        // The lock helpers' own definitions are not acquisitions.
        let defs = "impl T { fn shard_read(&self, i: usize) -> G { self.locks[i].read() } }";
        assert!(run("lock-order", defs).is_empty());
        // Variable indices can't be order-checked, but still guard I/O.
        let var = "fn f(&self, shard: usize) {
            let a = self.shard_read(shard);
            let b = self.shard_read(shard2);
        }";
        assert!(run("lock-order", var).is_empty());
    }

    #[test]
    fn provider_boundary_receiver_chains() {
        assert_eq!(run("provider-boundary", "provider.get(vid)?;").len(), 1);
        assert_eq!(
            run("provider-boundary", "st.providers[idx].put(vid, b)?;").len(),
            1
        );
        assert_eq!(
            run(
                "provider-boundary",
                "self.providers[&c.provider].delete(c.vid)?;"
            )
            .len(),
            1
        );
        // Plain map lookups do not trip the rule.
        assert!(run("provider-boundary", "self.clients.get(name)").is_empty());
        assert!(run("provider-boundary", "file.chunks.get(serial as usize)").is_empty());
        // A method-call result receiver ends the chain scan.
        assert!(run("provider-boundary", "self.primary_of.read().get(client)").is_empty());
    }
}
