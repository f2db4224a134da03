//! Interprocedural ordering/taint analyses over the call graph.
//!
//! One engine, four analyses. Each is a [`FlowSpec`]: a set of
//! **sources** (functions where the protected bytes enter), **sanitizers**
//! (calls that render the bytes safe — `mislead::inject`,
//! declared crypto entry points) and **sinks** (calls that hand bytes to
//! a provider). The engine walks each source function's body in token
//! order with a two-state machine (`RAW` until a sanitizer is crossed,
//! `CLEAN` after) and reports every sink reached while still `RAW`.
//!
//! Interprocedural effects come from two per-function summaries, computed
//! to fixpoint over the workspace call graph:
//!
//! * `sanitizes_through(f)` — calling `f` crosses a sanitizer before
//!   anything else matters (monotone reachability, computed first);
//! * `raw_sink(f)` — calling `f` while `RAW` reaches a sink before any
//!   sanitizer inside `f` runs (computed with `sanitizes_through` fixed,
//!   carrying a witness chain for the report).
//!
//! Name resolution is unanimity-based (see [`crate::callgraph`]): an
//! ambiguous call only contributes an effect when *every* candidate
//! definition agrees, so workspace-common names never inject one file's
//! summary into another's analysis. This trades a sliver of recall for
//! zero-noise reports — the right trade for a CI gate.

use crate::callgraph::{self, CallKind, CallSite};
use crate::config::{Config, TaintRole};
use crate::rules;
use crate::symbols::Workspace;
use std::collections::HashMap;

/// One flow analysis: sources, sanitizers, sinks, and report phrasing.
pub struct FlowSpec {
    /// Rule id the findings are reported under.
    pub rule: &'static str,
    /// Fn-definition patterns whose bodies start `RAW`.
    pub sources: Vec<Vec<String>>,
    /// A fn is also a source when its body calls one of these (used by
    /// journal-ordering: every verb that runs in the mutation bracket,
    /// `journaled(kind, client, target, |jctx| …)`). The closure it hands
    /// the bracket is part of its body and is walked with it; the bracket
    /// call itself carries no effect — what it deletes after the commit is
    /// what the closure doomed.
    pub source_markers: Vec<Vec<String>>,
    /// Call/definition patterns that flip the state to `CLEAN`.
    pub sanitizers: Vec<Vec<String>>,
    /// Call/definition patterns that count as sinks by name.
    pub sink_fns: Vec<Vec<String>>,
    /// Method names that count as sinks when the receiver chain names a
    /// provider (`st.providers[i].put(…)`).
    pub sink_methods: &'static [&'static str],
    /// What went wrong, for the report.
    pub what: &'static str,
    /// How to fix it, for the report.
    pub fix: &'static str,
}

/// A raw semantic finding, before waiver/exemption filtering.
#[derive(Debug)]
pub struct SemanticHit {
    pub rule: &'static str,
    /// Index into the workspace's file list.
    pub file: usize,
    pub line: u32,
    pub message: String,
}

fn pats(paths: &[&str]) -> Vec<Vec<String>> {
    paths.iter().map(|p| callgraph::pattern(p)).collect()
}

/// Builds the shipped analyses, extending each rule's lattice with the
/// `[[source]]`/`[[sanitizer]]`/`[[sink]]` entries from `fraglint.toml`
/// that name it (entries without a `rule` key extend
/// `plaintext-escape`).
pub fn specs(config: &Config) -> Vec<FlowSpec> {
    let extend = |mut base: Vec<Vec<String>>, role: TaintRole, rule: &str| {
        base.extend(config.taint_paths(role, rule).map(callgraph::pattern));
        base
    };
    vec![
        FlowSpec {
            rule: "plaintext-escape",
            sources: extend(
                pats(&[
                    "put_file",
                    "put_stream",
                    "put_file_impl",
                    "put_stream_impl",
                    "update_chunk_impl",
                    "chunker::split",
                    "chunker::split_borrowed",
                    "chunker::split_shared",
                ]),
                TaintRole::Source,
                "plaintext-escape",
            ),
            source_markers: Vec::new(),
            // `mislead::inject` is the one built-in cleanser. Parity is
            // deliberately NOT a sanitizer: parity shards are computed
            // from already-injected bytes, so treating the encode as
            // cleansing would mask a put path that skipped the decoy
            // layer (the exact bug the mutation test plants).
            sanitizers: extend(
                pats(&["mislead::inject"]),
                TaintRole::Sanitizer,
                "plaintext-escape",
            ),
            sink_fns: extend(
                pats(&["put_with_retry", "put_framed", "store_slot"]),
                TaintRole::Sink,
                "plaintext-escape",
            ),
            sink_methods: &["put", "store"],
            what: "plaintext may reach provider storage",
            fix: "route the payload through mislead::inject (or a \
                  declared [[sanitizer]]) before any provider put, or waive with a \
                  recorded reason",
        },
        FlowSpec {
            rule: "journal-ordering",
            sources: Vec::new(),
            source_markers: pats(&["journaled"]),
            sanitizers: pats(&["journal_alloc"]),
            sink_fns: pats(&["put_with_retry", "put_framed", "store_slot"]),
            sink_methods: &["put"],
            what: "provider upload precedes the journal alloc intent",
            fix: "record journal_alloc for every vid before its bytes reach a \
                  provider, so crash recovery can enumerate and collect orphans",
        },
        FlowSpec {
            rule: "journal-ordering",
            sources: Vec::new(),
            source_markers: pats(&["journaled"]),
            sanitizers: Vec::new(),
            sink_fns: Vec::new(),
            sink_methods: &["delete"],
            what: "provider delete inside a bracketed verb body, before its commit",
            fix: "hand it to the reclaimer: return it in the body's doomed list, which \
                  the bracket queues once the commit is durable",
        },
        FlowSpec {
            rule: "verify-before-decode",
            // The one erasure decode, `decode_lost`, and the two fns that
            // hand it a stripe's read set. A provider-read byte string is
            // untrusted until it crosses the integrity check: a corrupted
            // shard must surface as a typed `ShardCorrupt` erasure, never
            // decode into plausible garbage.
            sources: pats(&["decode_lost", "reconstruct_stored", "repair_stripe"]),
            source_markers: Vec::new(),
            // `get_with_retry` sanitizes transitively: its body calls
            // `integrity::unframe_expecting` on every fetched object, and
            // the `sanitizes_through` fixpoint carries that through.
            sanitizers: extend(
                pats(&["integrity::unframe", "integrity::unframe_expecting"]),
                TaintRole::Sanitizer,
                "verify-before-decode",
            ),
            sink_fns: pats(&["reconstruct_shard_observed", "stripe::decode"]),
            sink_methods: &[],
            what: "provider-read bytes may reach the stripe decode unverified",
            fix: "route every fetched shard through integrity::unframe_expecting \
                  (or a declared [[sanitizer]] scoped to this rule) before any \
                  RsCodec decode, so corruption becomes a typed erasure",
        },
    ]
}

/// Per-function call sites with each site's resolved candidates.
type Calls = HashMap<(usize, usize), Vec<(CallSite, Vec<(usize, usize)>)>>;

/// Runs every spec over the workspace and returns the raw findings.
pub fn analyze(ws: &Workspace<'_>, specs: &[FlowSpec]) -> Vec<SemanticHit> {
    // Shared across specs: every non-test fn with a body, its call list
    // in token order, and each call's resolved candidates.
    let mut ids: Vec<(usize, usize)> = Vec::new();
    for (fi, m) in ws.files.iter().enumerate() {
        for (fj, f) in m.fns.iter().enumerate() {
            if f.body.is_some() && !m.fn_is_test(fj) {
                ids.push((fi, fj));
            }
        }
    }
    let mut calls: Calls = HashMap::new();
    for &id in &ids {
        let m = &ws.files[id.0];
        let body = ws.item(id).body.expect("ids hold bodied fns only");
        let sites = callgraph::extract_calls(m, body)
            .into_iter()
            .map(|s| {
                let resolved = callgraph::resolve(ws, id.0, &s);
                (s, resolved)
            })
            .collect();
        calls.insert(id, sites);
    }

    let mut out = Vec::new();
    for spec in specs {
        out.extend(analyze_spec(ws, spec, &ids, &calls));
    }
    out
}

fn analyze_spec(
    ws: &Workspace<'_>,
    spec: &FlowSpec,
    ids: &[(usize, usize)],
    calls: &Calls,
) -> Vec<SemanticHit> {
    // Pass 1 — `sanitizes_through`: monotone reachability to a sanitizer.
    let mut san: HashMap<(usize, usize), bool> = HashMap::new();
    for &id in ids {
        let matches_def = spec
            .sanitizers
            .iter()
            .any(|p| callgraph::def_matches(&ws.item(id).qual, p));
        san.insert(id, matches_def);
    }
    loop {
        let mut changed = false;
        for &id in ids {
            if san[&id] {
                continue;
            }
            let reaches = calls[&id]
                .iter()
                .any(|(site, resolved)| sanitizing_call(site, resolved, spec, &san));
            if reaches {
                san.insert(id, true);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 2 — `raw_sink`: with sanitization fixed, does calling this fn
    // while RAW reach a sink first? Witness chains make reports readable.
    let mut raw: HashMap<(usize, usize), Option<String>> = HashMap::new();
    for &id in ids {
        let declared = spec
            .sink_fns
            .iter()
            .any(|p| callgraph::def_matches(&ws.item(id).qual, p));
        let witness = declared.then(|| {
            format!(
                "`{}` ({}:{}) is a declared sink",
                ws.item(id).name,
                ws.files[id.0].rel_path,
                ws.item(id).line
            )
        });
        raw.insert(id, witness);
    }
    loop {
        let mut changed = false;
        for &id in ids {
            if raw[&id].is_some() {
                continue;
            }
            if let Some(w) = first_raw_sink(ws, id, spec, &san, &raw, calls) {
                raw.insert(id, Some(w));
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Pass 3 — walk each source fn and report sinks reached while RAW.
    let mut out = Vec::new();
    for &id in ids {
        let item = ws.item(id);
        let is_source = spec
            .sources
            .iter()
            .any(|p| callgraph::def_matches(&item.qual, p))
            || calls[&id].iter().any(|(site, _)| {
                spec.source_markers
                    .iter()
                    .any(|p| callgraph::call_matches(site, p))
            });
        if !is_source {
            continue;
        }
        let mut clean = false;
        let mut seen_lines = Vec::new();
        for (site, resolved) in &calls[&id] {
            if !clean {
                if let Some(w) = sink_witness(ws, id.0, site, resolved, spec, &raw) {
                    if !seen_lines.contains(&site.line) {
                        seen_lines.push(site.line);
                        out.push(SemanticHit {
                            rule: spec.rule,
                            file: id.0,
                            line: site.line,
                            message: format!(
                                "{}: `{}` → {}; {}",
                                spec.what,
                                item.name,
                                truncate(&w, 360),
                                spec.fix
                            ),
                        });
                    }
                    continue;
                }
            }
            if sanitizing_call(site, resolved, spec, &san) {
                clean = true;
            }
        }
    }
    out
}

/// Whether a call crosses a sanitizer: textual pattern match, or every
/// resolved candidate is itself sanitizing.
fn sanitizing_call(
    site: &CallSite,
    resolved: &[(usize, usize)],
    spec: &FlowSpec,
    san: &HashMap<(usize, usize), bool>,
) -> bool {
    if spec
        .sanitizers
        .iter()
        .any(|p| callgraph::call_matches(site, p))
    {
        return true;
    }
    !resolved.is_empty() && resolved.iter().all(|id| san.get(id).copied().unwrap_or(false))
}

/// If a call made while `RAW` reaches a sink, returns the witness text.
fn sink_witness(
    ws: &Workspace<'_>,
    file_idx: usize,
    site: &CallSite,
    resolved: &[(usize, usize)],
    spec: &FlowSpec,
    raw: &HashMap<(usize, usize), Option<String>>,
) -> Option<String> {
    if spec
        .source_markers
        .iter()
        .any(|p| callgraph::call_matches(site, p))
    {
        return None;
    }
    let here = &ws.files[file_idx].rel_path;
    // Structural: a provider-receiver method call.
    if site.kind == CallKind::Method && spec.sink_methods.contains(&site.name()) {
        if let Some(dot) = site.dot {
            let m = &ws.files[file_idx];
            if rules::receiver_names_a_provider(&m.tokens, &m.code, dot) {
                return Some(format!(
                    "provider `.{}()` at {}:{}",
                    site.name(),
                    here,
                    site.line
                ));
            }
        }
    }
    // Declared sink fn, matched by written path.
    if spec.sink_fns.iter().any(|p| callgraph::call_matches(site, p)) {
        return Some(format!(
            "`{}` at {}:{}",
            site.segs.join("::"),
            here,
            site.line
        ));
    }
    // A callee that itself reaches a sink while RAW — believed only when
    // every candidate agrees.
    if !resolved.is_empty()
        && resolved
            .iter()
            .all(|id| raw.get(id).map(|w| w.is_some()).unwrap_or(false))
    {
        let chained = raw[&resolved[0]].as_deref().unwrap_or("sink");
        return Some(format!(
            "`{}` at {}:{} → {}",
            site.name(),
            here,
            site.line,
            chained
        ));
    }
    None
}

/// First sink reached in a fn's body while `RAW` (for the summary pass).
fn first_raw_sink(
    ws: &Workspace<'_>,
    id: (usize, usize),
    spec: &FlowSpec,
    san: &HashMap<(usize, usize), bool>,
    raw: &HashMap<(usize, usize), Option<String>>,
    calls: &Calls,
) -> Option<String> {
    for (site, resolved) in &calls[&id] {
        if let Some(w) = sink_witness(ws, id.0, site, resolved, spec, raw) {
            return Some(w);
        }
        if sanitizing_call(site, resolved, spec, san) {
            return None;
        }
    }
    None
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        return s.to_string();
    }
    let mut end = max;
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &s[..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileModel;

    fn run(files: &[(&str, &str)]) -> Vec<(String, u32, String)> {
        let models: Vec<FileModel> = files
            .iter()
            .map(|(p, s)| FileModel::build(p, s))
            .collect();
        let ws = Workspace::new(&models);
        let config = Config::default();
        analyze(&ws, &specs(&config))
            .into_iter()
            .map(|h| (h.rule.to_string(), h.line, h.message))
            .collect()
    }

    #[test]
    fn direct_unsanitized_sink_is_flagged() {
        let hits = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn put_file_impl(&self, data: &[u8]) {
                    self.put_with_retry(st, 0, vid, data);
                }
            }",
        )]);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, "plaintext-escape");
        assert_eq!(hits[0].1, 3);
    }

    #[test]
    fn sanitizer_before_sink_is_clean() {
        let hits = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn put_file_impl(&self, data: &[u8]) {
                    let (stored, pos) = mislead::inject(data, r, s);
                    self.put_with_retry(st, 0, vid, stored);
                }
            }",
        )]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn sanitizer_after_sink_still_fires() {
        let hits = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn put_file_impl(&self, data: &[u8]) {
                    self.put_with_retry(st, 0, vid, data);
                    let (stored, pos) = mislead::inject(data, r, s);
                }
            }",
        )]);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn interprocedural_sanitize_and_sink_summaries() {
        // Sanitization inside a callee covers the caller; a sink inside a
        // callee taints the caller, across files.
        let hits = run(&[
            (
                "crates/core/src/a.rs",
                "impl D {
                    fn put_file_impl(&self, data: &[u8]) {
                        self.encode(data);
                        self.store(data);
                    }
                    fn put_stream_impl(&self, data: &[u8]) {
                        self.store(data);
                    }
                }",
            ),
            (
                "crates/core/src/b.rs",
                "impl D {
                    fn encode(&self, d: &[u8]) { mislead::inject(d, r, s); }
                    fn store(&self, d: &[u8]) { self.put_with_retry(st, 0, vid, d); }
                }",
            ),
        ]);
        // put_file_impl encodes first: clean. put_stream_impl stores raw.
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].2.contains("put_stream_impl"));
        assert!(hits[0].2.contains("put_with_retry"), "{}", hits[0].2);
    }

    #[test]
    fn ambiguous_resolution_needs_unanimity() {
        // Two `store` candidates, only one raw-sinks: no finding.
        let hits = run(&[
            (
                "crates/core/src/a.rs",
                "fn put_file_impl(data: &[u8]) { store(data); }",
            ),
            (
                "crates/core/src/b.rs",
                "fn store(d: &[u8]) { put_with_retry(st, 0, vid, d); }",
            ),
            ("crates/core/src/c.rs", "fn store(d: &[u8]) { log(d); }"),
        ]);
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn provider_method_is_a_structural_sink() {
        let hits = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn put_file(&self, data: &[u8]) {
                    provider.put(vid, data);
                }
            }",
        )]);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].2.contains("provider `.put()`"));
    }

    #[test]
    fn journal_ordering_both_polarities() {
        let bad = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn append_impl(&self, data: Bytes) {
                    self.journaled(op, c, f, |jctx| {
                        self.put_with_retry(st, 0, vid, data);
                        self.journal_alloc(jctx, &[vid]);
                    })
                }
            }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].0, "journal-ordering");

        let good = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn append_impl(&self, data: Bytes) {
                    self.journaled(op, c, f, |jctx| {
                        self.journal_alloc(jctx, &[vid]);
                        self.put_with_retry(st, 0, vid, data);
                    })
                }
            }",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn a_verb_body_never_deletes() {
        let bad = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn remove_impl(&self) {
                    self.journaled(op, c, f, |jctx| {
                        st.drop_file(c, f);
                        st.providers[i].delete(vid);
                    })
                }
            }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert!(bad[0].2.contains("delete"));

        // The bracket deletes what the closure doomed, after the commit:
        // its own delete is not charged to the verbs that call it.
        let bracket = run(&[
            (
                "crates/core/src/d.rs",
                "impl D {
                    fn remove_impl(&self) {
                        self.journaled(op, c, f, |jctx| {
                            st.drop_file(c, f);
                            Ok(((), doomed))
                        })
                    }
                }",
            ),
            (
                "crates/core/src/m.rs",
                "impl D {
                    fn journaled(&self, body: impl FnOnce()) {
                        let (v, doomed) = body(&jctx)?;
                        self.commit(jctx);
                        for (provider, vid) in &doomed { provider.delete(*vid); }
                    }
                }",
            ),
        ]);
        assert!(bracket.is_empty(), "{bracket:?}");
    }

    #[test]
    fn unverified_decode_is_flagged_and_verified_decode_is_clean() {
        let bad = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn reconstruct_stored(&self, st: &Tables, idx: usize) -> Result<Vec<u8>> {
                    let raw = st.store.get(vid);
                    codec.reconstruct_shard_observed(&refs, slot, &tel)
                }
            }",
        )]);
        assert_eq!(bad.len(), 1, "{bad:?}");
        assert_eq!(bad[0].0, "verify-before-decode");

        let good = run(&[(
            "crates/core/src/d.rs",
            "impl D {
                fn reconstruct_stored(&self, st: &Tables, idx: usize) -> Result<Vec<u8>> {
                    let raw = st.store.get(vid);
                    let (payload, framed) = integrity::unframe_expecting(vid, raw, want);
                    codec.reconstruct_shard_observed(&refs, slot, &tel)
                }
            }",
        )]);
        assert!(good.is_empty(), "{good:?}");
    }

    #[test]
    fn the_shared_decode_is_a_source_of_its_own() {
        // Get and repair rebuild through one fn: a raw provider read it
        // decodes is flagged there, whoever calls it.
        let hits = run(&[(
            "crates/core/src/objectio.rs",
            "impl D {
                fn decode_lost(&self, st: &Tables, set: &mut StripeReadSet) -> Result<Vec<Vec<u8>>> {
                    let raw = st.store.get(vid);
                    codec.reconstruct_shard_observed(&refs, slot, &tel)
                }
            }",
        )]);
        let vbd: Vec<_> = hits
            .iter()
            .filter(|h| h.0 == "verify-before-decode")
            .collect();
        assert_eq!(vbd.len(), 1, "{hits:?}");
    }

    #[test]
    fn verify_before_decode_sanitizes_through_the_fetch_helper() {
        // The real read path verifies inside `get_with_retry`; the
        // `sanitizes_through` fixpoint must carry that into the decode
        // callers across files.
        let hits = run(&[
            (
                "crates/core/src/a.rs",
                "impl D {
                    fn repair_stripe(&self, st: &Tables) -> Result<()> {
                        let bytes = self.get_with_retry(st, pidx, vid, len);
                        codec.reconstruct_shard_observed(&refs, slot, &tel)
                    }
                }",
            ),
            (
                "crates/core/src/b.rs",
                "impl D {
                    fn get_with_retry(&self, st: &Tables, p: usize, vid: VirtualId, len: usize) -> Result<Bytes> {
                        let raw = st.providers[p].get(vid);
                        integrity::unframe_expecting(vid, raw, len)
                    }
                }",
            ),
        ]);
        let vbd: Vec<_> = hits.iter().filter(|h| h.0 == "verify-before-decode").collect();
        assert!(vbd.is_empty(), "{vbd:?}");
    }

    #[test]
    fn config_declared_sanitizer_extends_the_lattice() {
        let models = vec![FileModel::build(
            "crates/core/src/d.rs",
            "impl D {
                fn put_file_impl(&self, data: &[u8]) {
                    let sealed = self.cipher.encrypt(n, data);
                    self.put_with_retry(st, 0, vid, sealed);
                }
            }",
        )];
        let ws = Workspace::new(&models);
        let plain = analyze(&ws, &specs(&Config::default()));
        assert_eq!(plain.len(), 1, "without the decl the path is raw");
        let cfg = crate::config::parse(
            "[[sanitizer]]\nfn = \"ChaCha20::encrypt\"\nnote = \"keystream\"\n",
        )
        .unwrap();
        let sealed = analyze(&ws, &specs(&cfg));
        assert!(sealed.is_empty(), "{sealed:?}");
    }
}
