//! Call-site extraction and name resolution over the workspace.
//!
//! Call sites are extracted in *token order* within each function body —
//! the taint engine's ordering analyses (sanitize-before-sink,
//! alloc-before-upload) depend on seeing calls in the order the source
//! executes them, which straight-line token order approximates well for
//! the workspace's imperative style. Resolution is name-based: a call's
//! trailing path segments are matched against every non-test definition
//! with the same bare name, preferring same-file candidates. Ambiguity
//! is surfaced to the caller, which applies unanimity semantics (an
//! effect is believed only when *all* candidates agree) so common names
//! like `get` never smuggle in a single file's summary.

use crate::symbols::{FileModel, Workspace};
use crate::tokenizer::TokKind;

/// How a call site is written at the use site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `recv.name(...)` — receiver chain available via `dot`.
    Method,
    /// `a::b::name(...)` or bare `name(...)`.
    Path,
}

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Path segments as written, `self`/`Self`/`crate`/`super` stripped.
    /// A method call carries just the method name.
    pub segs: Vec<String>,
    /// 1-based line of the callee name token.
    pub line: u32,
    pub kind: CallKind,
    /// For method calls: code index of the `.` token, for receiver
    /// inspection (e.g. "does the receiver chain name a provider?").
    pub dot: Option<usize>,
}

impl CallSite {
    /// Bare callee name (last path segment).
    pub fn name(&self) -> &str {
        self.segs.last().map(String::as_str).unwrap_or("")
    }
}

/// Identifiers that look like calls syntactically but are control flow
/// or binding forms.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "move", "let", "else", "fn",
    "impl", "where", "unsafe", "Some", "Ok", "Err", "None", "box",
];

/// Extracts all call sites in the code-index range `[start, end)` of a
/// file, in token order.
pub fn extract_calls(file: &FileModel, range: (usize, usize)) -> Vec<CallSite> {
    let (start, end) = range;
    let tokens = &file.tokens;
    let code = &file.code;
    let mut out = Vec::new();
    for j in start..end.min(code.len()) {
        let t = &tokens[code[j]];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Must be immediately followed by `(` — macros (`name!(`) and
        // generic turbofish are skipped on purpose.
        let follows_paren = code
            .get(j + 1)
            .map(|&ti| tokens[ti].is_punct('('))
            .unwrap_or(false);
        if !follows_paren {
            continue;
        }
        if NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            continue;
        }
        // Tuple-struct-like constructors (`Bytes(…)`) still count as
        // calls; they simply never resolve to a fn and carry no effect.
        let prev = j.checked_sub(1).map(|p| &tokens[code[p]]);
        let kind = match prev {
            Some(p) if p.is_punct('.') => CallKind::Method,
            Some(p) if p.is_ident("fn") => continue, // definition, not call
            _ => CallKind::Path,
        };
        let mut segs = vec![t.text.clone()];
        let mut dot = None;
        match kind {
            CallKind::Method => dot = Some(j - 1),
            CallKind::Path => {
                // Walk `a :: b :: name` backwards, collecting segments.
                let mut k = j;
                while k >= 3
                    && tokens[code[k - 1]].is_punct(':')
                    && tokens[code[k - 2]].is_punct(':')
                    && tokens[code[k - 3]].kind == TokKind::Ident
                {
                    segs.insert(0, tokens[code[k - 3]].text.clone());
                    k -= 3;
                }
                segs.retain(|s| !matches!(s.as_str(), "self" | "Self" | "crate" | "super"));
                if segs.is_empty() {
                    continue;
                }
            }
        }
        out.push(CallSite {
            segs,
            line: t.line,
            kind,
            dot,
        });
    }
    out
}

/// Resolves a call site to candidate definitions: every non-test fn
/// whose qualified path ends with the site's written segments. When any
/// candidate lives in the calling file, resolution narrows to those —
/// Rust name lookup prefers the local item, and so should the lint.
pub fn resolve(ws: &Workspace<'_>, file_idx: usize, site: &CallSite) -> Vec<(usize, usize)> {
    let cands = ws.defs_named(site.name());
    let mut matched: Vec<(usize, usize)> = cands
        .iter()
        .copied()
        .filter(|&id| suffix_compatible(&ws.item(id).qual, &site.segs))
        .collect();
    if matched.iter().any(|&(fi, _)| fi == file_idx) {
        matched.retain(|&(fi, _)| fi == file_idx);
    }
    matched
}

/// Whether the written segments are a suffix of the definition's
/// qualified path (`["mislead", "inject"]` matches
/// `["core", "mislead", "inject"]`; a bare `["inject"]` matches too).
fn suffix_compatible(qual: &[String], segs: &[String]) -> bool {
    if segs.len() > qual.len() {
        return false;
    }
    qual[qual.len() - segs.len()..]
        .iter()
        .zip(segs)
        .all(|(a, b)| a == b)
}

/// Pattern matching shared by the taint specs: `pat` is a `::`-separated
/// path like `mislead::inject`. It matches a *call site* when the
/// shorter of (pattern, written segments) is a suffix of the longer —
/// so `self.journal_alloc(…)` (written as just `journal_alloc`) matches
/// the pattern `journal_alloc`, and `mislead::inject(…)` matches
/// `inject` only if the pattern says so exactly.
pub fn call_matches(site: &CallSite, pat: &[String]) -> bool {
    if pat.is_empty() {
        return false;
    }
    if pat.len() <= site.segs.len() {
        site.segs[site.segs.len() - pat.len()..]
            .iter()
            .zip(pat)
            .all(|(a, b)| a == b)
    } else {
        // Pattern is longer than what's written (e.g. pattern
        // `mislead::inject` vs a bare method call `.inject(…)`): accept
        // when the written segments suffix-match the pattern.
        pat[pat.len() - site.segs.len()..]
            .iter()
            .zip(&site.segs)
            .all(|(a, b)| a == b)
    }
}

/// Whether a fn *definition*'s qualified path matches `pat` (pattern is
/// a suffix of the qual path, exact segment equality).
pub fn def_matches(qual: &[String], pat: &[String]) -> bool {
    !pat.is_empty() && suffix_compatible(qual, pat)
}

/// Splits a `a::b::c` pattern string into segments.
pub fn pattern(path: &str) -> Vec<String> {
    path.split("::")
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::FileModel;

    fn model(path: &str, src: &str) -> FileModel {
        FileModel::build(path, src)
    }

    fn calls_of(m: &FileModel, fn_idx: usize) -> Vec<CallSite> {
        extract_calls(m, m.fns[fn_idx].body.unwrap())
    }

    #[test]
    fn extracts_method_and_path_calls_in_order() {
        let m = model(
            "crates/core/src/x.rs",
            "fn f(&self) {
                let a = mislead::inject(data, r, s);
                self.put_with_retry(st, 0, vid, b);
                Self::encode_stripe_group(g);
                helper();
            }",
        );
        let calls = calls_of(&m, 0);
        let names: Vec<&str> = calls.iter().map(|c| c.name()).collect();
        assert_eq!(
            names,
            vec!["inject", "put_with_retry", "encode_stripe_group", "helper"]
        );
        assert_eq!(calls[0].segs, vec!["mislead", "inject"]);
        assert_eq!(calls[0].kind, CallKind::Path);
        assert_eq!(calls[1].kind, CallKind::Method);
        assert_eq!(calls[2].segs, vec!["encode_stripe_group"]);
    }

    #[test]
    fn control_flow_and_macros_are_not_calls() {
        let m = model(
            "crates/core/src/x.rs",
            r#"fn f() {
                if (a) { return; }
                match (a, b) { _ => {} }
                span!(tel, "put");
                while (x) {}
            }"#,
        );
        assert!(calls_of(&m, 0).is_empty());
    }

    #[test]
    fn resolution_prefers_same_file_and_requires_suffix_match() {
        let files = vec![
            model("crates/core/src/a.rs", "fn dup() {} fn caller() { dup(); }"),
            model("crates/core/src/b.rs", "fn dup() {}"),
        ];
        let ws = Workspace::new(&files);
        let site = CallSite {
            segs: vec!["dup".into()],
            line: 1,
            kind: CallKind::Path,
            dot: None,
        };
        // From file 0: narrows to the local definition.
        assert_eq!(resolve(&ws, 0, &site), vec![(0, 0)]);
        // From an unrelated file: both remain candidates.
        assert_eq!(resolve(&ws, 5, &site).len(), 2);
        // Qualified segments prune non-matching paths.
        let qualified = CallSite {
            segs: vec!["b".into(), "dup".into()],
            line: 1,
            kind: CallKind::Path,
            dot: None,
        };
        assert_eq!(resolve(&ws, 5, &qualified), vec![(1, 0)]);
    }

    #[test]
    fn call_pattern_matching_is_suffix_both_ways() {
        let site = CallSite {
            segs: vec!["journal_alloc".into()],
            line: 1,
            kind: CallKind::Method,
            dot: None,
        };
        assert!(call_matches(&site, &pattern("journal_alloc")));
        // Pattern longer than written form: still matches on suffix.
        assert!(call_matches(&site, &pattern("Distributor::journal_alloc")));
        assert!(!call_matches(&site, &pattern("journal_begin")));
        let qualified = CallSite {
            segs: vec!["mislead".into(), "inject".into()],
            line: 1,
            kind: CallKind::Path,
            dot: None,
        };
        assert!(call_matches(&qualified, &pattern("mislead::inject")));
        assert!(call_matches(&qualified, &pattern("inject")));
        assert!(!call_matches(&qualified, &pattern("other::inject")));
    }
}
