//! The rule set: repo-specific determinism and safety checks that clippy
//! cannot express.
//!
//! Each rule exists because this repository was bitten by (or is structurally
//! exposed to) the bug class it bans — see `DESIGN.md` §11/§16 for the
//! history. The per-line rules (A001, F001) run on the comment/string-stripped
//! token stream from [`crate::lexer`]; the symbol-aware rules
//! (U001/U002/D004/E001/C001) run on the item trees from [`crate::parser`]
//! against the workspace [`crate::index::SymbolIndex`]. All are scoped by
//! file class and silenced by an inline `// simlint: allow(RULE, reason)`
//! waiver.
//!
//! Linting is a two-phase pipeline so the workspace can be processed in
//! parallel: [`analyze`] is per-file and embarrassingly parallel; the
//! symbol index is built from every analysis; [`finish`] then runs the
//! rules per file against that index.

use crate::index::SymbolIndex;
use crate::lexer::{split_lines, tokenize, Line, Tok};
use crate::parser::{parse, token_stream, FileItems, PTok};
use crate::rules_flow;

/// A single diagnostic: `file:line:rule: message`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`D004`, …, `W002`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// The trimmed offending source line, for reports and `--json` output.
    pub snippet: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}:{}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Every enforced rule id, in report order.
pub const ALL_RULES: &[(&str, &str)] = &[
    ("D004", "no wall-clock-derived values flowing into SimTime/SimDuration sinks"),
    ("A001", "no bare `as` integer casts in time/sequence arithmetic; use checked helpers"),
    ("F001", "no ==/!= against float literals; use is_exactly_zero or epsilon compares"),
    ("U001", "no cross-unit assignment or argument flow (bits/bytes/bps/ns/…) without conversion"),
    ("U002", "no cross-unit additive/comparison arithmetic without an explicit conversion"),
    ("E001", "no wildcard match arms swallowing workspace enum variants (or naming unknown ones)"),
    ("C001", "no conflicting Mutex lock-acquisition orders within a file"),
    ("W001", "malformed waiver: unknown rule or missing reason"),
    ("W002", "unused waiver: no matching finding on the waived line"),
];

fn rule_exists(id: &str) -> bool {
    ALL_RULES.iter().any(|(r, _)| *r == id)
}

/// How a file participates in the rule set, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// `crates/<name>/…` → `<name>`; `None` for root `src/`, `tests/`, ….
    pub crate_dir: Option<String>,
    /// Under a `tests/`, `benches/`, or `examples/` directory.
    pub is_test_file: bool,
    /// Under a `src/` directory (library or binary source).
    pub in_src: bool,
}

impl FileClass {
    /// Classifies a `/`-separated workspace-relative path.
    pub fn of(rel: &str) -> FileClass {
        let parts: Vec<&str> = rel.split('/').collect();
        let crate_dir =
            (parts.first() == Some(&"crates") && parts.len() > 2).then(|| parts[1].to_owned());
        let is_test_file = parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples"));
        let in_src = parts.contains(&"src");
        FileClass { crate_dir, is_test_file, in_src }
    }

    fn crate_in(&self, list: &[&str]) -> bool {
        self.crate_dir.as_deref().is_some_and(|c| list.contains(&c))
    }
}

/// Crates whose state feeds simulation results; time/sequence casts there
/// are the PR 2 overflow class (A001).
const SIM_CORE_CRATES: &[&str] = &["netsim", "transport", "congestion", "core"];

/// Substrings marking a line as time/sequence arithmetic for A001.
const TIME_SEQ_MARKERS: &[&str] = &["SimTime", "SimDuration", "nanos", "_ns", "seq"];

/// Integer destination types for A001 (`as f64` is the sanctioned widening
/// conversion for statistics and is left to clippy's cast lints).
const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// An inline waiver parsed from a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Waiver {
    /// The rule being waived, e.g. `F001`.
    pub rule: String,
    /// The human-readable justification (required non-empty).
    pub reason: String,
}

/// Parses every `simlint: allow(RULE, reason)` occurrence in a comment.
/// Returns `(waivers, malformed)` where `malformed` holds a message per
/// ill-formed waiver (unknown rule id or empty reason).
pub fn parse_waivers(comment: &str) -> (Vec<Waiver>, Vec<String>) {
    let mut waivers = Vec::new();
    let mut malformed = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("simlint:") {
        rest = &rest[at + "simlint:".len()..];
        let body = rest.trim_start();
        let Some(args) = body.strip_prefix("allow(") else {
            malformed.push("expected `allow(RULE, reason)` after `simlint:`".to_owned());
            continue;
        };
        let Some(close) = args.find(')') else {
            malformed.push("unterminated `allow(` waiver".to_owned());
            break;
        };
        let inner = &args[..close];
        rest = &args[close + 1..];
        let (rule, reason) = match inner.split_once(',') {
            Some((r, why)) => (r.trim(), why.trim()),
            None => (inner.trim(), ""),
        };
        if !rule_exists(rule) {
            malformed.push(format!("unknown rule {rule:?} in waiver"));
        } else if reason.is_empty() {
            malformed.push(format!("waiver for {rule} is missing a reason"));
        } else {
            waivers.push(Waiver { rule: rule.to_owned(), reason: reason.to_owned() });
        }
    }
    (waivers, malformed)
}

/// Marks lines inside `#[cfg(test)]` items (and `#[test]` functions): after
/// such an attribute, the next brace-delimited item body is test code. A001
/// and the flow rules do not apply there.
fn test_region_lines(lines: &[Line]) -> Vec<bool> {
    let mut out = vec![false; lines.len()];
    let mut depth: i32 = 0;
    let mut pending = false;
    let mut region_floor: Option<i32> = None;
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        if region_floor.is_some() {
            out[idx] = true;
        }
        let compact: String = code.chars().filter(|c| !c.is_whitespace()).collect();
        if compact.contains("#[cfg(test)]")
            || compact.contains("#[cfg(all(test")
            || compact.contains("#[test]")
        {
            pending = true;
            out[idx] = true;
        }
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending && region_floor.is_none() {
                        region_floor = Some(depth);
                        pending = false;
                        out[idx] = true;
                    }
                }
                '}' => {
                    depth -= 1;
                    if region_floor.is_some_and(|floor| depth < floor) {
                        region_floor = None;
                    }
                }
                // An item that ends before opening a brace (e.g.
                // `#[cfg(test)] use …;`) consumes the pending attribute.
                ';' if pending && region_floor.is_none() => pending = false,
                _ => {}
            }
        }
    }
    out
}

fn has_marker(code: &str, markers: &[&str]) -> bool {
    markers.iter().any(|m| code.contains(m))
}

/// Maximum characters kept of a finding's source-line snippet.
const SNIPPET_MAX: usize = 160;

fn snippet_of(raw: &str) -> String {
    let t = raw.trim();
    if t.chars().count() > SNIPPET_MAX {
        let mut s: String = t.chars().take(SNIPPET_MAX - 1).collect();
        s.push('…');
        s
    } else {
        t.to_owned()
    }
}

/// Phase-1 output: everything extracted from one file, before any
/// cross-file rule runs. Producing this is pure per-file work, so the
/// driver runs it in parallel; the symbol index is then built from every
/// analysis and [`finish`] produces the findings.
pub struct FileAnalysis {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// Path-derived rule scope.
    pub class: FileClass,
    /// Lexed lines (code/comment channels).
    lines: Vec<Line>,
    /// Trimmed raw source per line, for finding snippets.
    snippets: Vec<String>,
    /// `true` for lines inside `#[cfg(test)]` regions.
    test_mask: Vec<bool>,
    /// The file's flat positioned token stream.
    toks: Vec<PTok>,
    /// Parsed items (fns, enums, impls, sites).
    pub items: FileItems,
    /// Waivers active per line (same-line or carried from comment lines).
    active: Vec<Vec<Waiver>>,
    /// Malformed-waiver findings: `(line, message)`.
    w001: Vec<(usize, String)>,
}

impl FileAnalysis {
    /// The items this file contributes to the workspace symbol index:
    /// `src/` files only, minus anything defined in a test region. Test
    /// files and fixtures must not shadow real definitions.
    pub fn indexable_items(&self) -> Option<FileItems> {
        if !self.class.in_src || self.class.is_test_file {
            return None;
        }
        let masked = |line: usize| self.test_mask.get(line - 1).copied().unwrap_or(false);
        let mut items = self.items.clone();
        items.fns.retain(|f| !masked(f.line));
        items.enums.retain(|e| !masked(e.line));
        items.impls.retain(|im| !masked(im.line));
        Some(items)
    }
}

/// Lexes, parses, and waiver-scans one file (phase 1; no rules yet).
pub fn analyze(rel_path: &str, src: &str) -> FileAnalysis {
    let class = FileClass::of(rel_path);
    let lines = split_lines(src);
    let test_mask = test_region_lines(&lines);
    let snippets = src.split('\n').map(snippet_of).collect();
    let toks = token_stream(&lines);
    let items = parse(&toks);

    // Waivers: a waiver on a code-bearing line covers that line; a waiver on
    // a comment-only line covers the next code-bearing line (stacking).
    let mut active: Vec<Vec<Waiver>> = vec![Vec::new(); lines.len()];
    let mut w001 = Vec::new();
    let mut carried: Vec<Waiver> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let (waivers, malformed) = parse_waivers(&line.comment);
        for msg in malformed {
            w001.push((idx + 1, msg));
        }
        let code_empty = line.code.trim().is_empty();
        if code_empty {
            carried.extend(waivers);
        } else {
            active[idx] = std::mem::take(&mut carried);
            active[idx].extend(waivers);
        }
    }

    FileAnalysis {
        rel: rel_path.to_owned(),
        class,
        lines,
        snippets,
        test_mask,
        toks,
        items,
        active,
        w001,
    }
}

/// Phase-3 output for one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Findings that stand (not waived).
    pub findings: Vec<Finding>,
    /// Findings silenced by an inline waiver (reported in `--json`).
    pub waived: Vec<Finding>,
}

/// Per-line token rules; appends `(rule, message)` pairs for one line.
fn line_rules(
    class: &FileClass,
    in_test_region: bool,
    code: &str,
    raw: &mut Vec<(&'static str, String)>,
) {
    let toks = tokenize(code);

    // A001 — sim-core src, outside tests: no bare integer `as` casts on
    // time/sequence lines.
    if class.crate_in(SIM_CORE_CRATES)
        && class.in_src
        && !class.is_test_file
        && !in_test_region
        && has_marker(code, TIME_SEQ_MARKERS)
    {
        for w in toks.windows(2) {
            if w[0].ident() != Some("as") {
                continue;
            }
            if let Some(ty) = w[1].ident().filter(|ty| INT_TYPES.contains(ty)) {
                raw.push((
                    "A001",
                    format!("bare `as {ty}` cast in time/sequence arithmetic can truncate or wrap; use a checked/saturating SimTime/SimDuration helper or `{ty}::try_from`"),
                ));
            }
        }
    }

    // F001 — everywhere: no exact compares against float literals.
    for (k, t) in toks.iter().enumerate() {
        if matches!(t, Tok::Punct(p) if p == "==" || p == "!=") {
            let prev_float = k > 0 && toks[k - 1].is_float_literal();
            let next_float = toks.get(k + 1).is_some_and(Tok::is_float_literal);
            if prev_float || next_float {
                raw.push((
                    "F001",
                    "exact float comparison; route sentinel checks through is_exactly_zero or compare with a tolerance".to_owned(),
                ));
            }
        }
    }
}

/// Runs every rule over one analyzed file against the workspace index
/// (phase 3; pure per-file work again, so the driver parallelizes it).
pub fn finish(a: &FileAnalysis, index: &SymbolIndex) -> FileReport {
    // Raw findings per line: the per-line token rules …
    let mut raw_by_line: Vec<Vec<(&'static str, String)>> = vec![Vec::new(); a.lines.len()];
    for (idx, line) in a.lines.iter().enumerate() {
        if line.code.trim().is_empty() {
            continue;
        }
        let region = a.test_mask.get(idx).copied().unwrap_or(false);
        line_rules(&a.class, region, &line.code, &mut raw_by_line[idx]);
    }

    // … plus the symbol-aware flow rules, scoped to non-test `src/`.
    if a.class.in_src && !a.class.is_test_file {
        for d in rules_flow::run(&a.toks, &a.items, &a.test_mask, index) {
            if let Some(slot) = raw_by_line.get_mut(d.line.saturating_sub(1)) {
                slot.push((d.rule, d.message));
            }
        }
    }

    let snippet = |idx: usize| a.snippets.get(idx).cloned().unwrap_or_default();
    let mut report = FileReport::default();
    for (line, message) in &a.w001 {
        report.findings.push(Finding {
            file: a.rel.clone(),
            line: *line,
            rule: "W001",
            message: message.clone(),
            snippet: snippet(line - 1),
        });
    }

    // Apply waivers; count which were used so W002 can flag dead ones.
    for (idx, raw) in raw_by_line.into_iter().enumerate() {
        let lineno = idx + 1;
        let active = &a.active[idx];
        let mut used = vec![false; active.len()];
        for (rule, message) in raw {
            let finding =
                Finding { file: a.rel.clone(), line: lineno, rule, message, snippet: snippet(idx) };
            match active.iter().enumerate().find(|(_, wv)| wv.rule == rule) {
                Some((wi, _)) => {
                    used[wi] = true;
                    report.waived.push(finding);
                }
                None => report.findings.push(finding),
            }
        }
        for (wi, wv) in active.iter().enumerate() {
            if !used[wi] {
                report.findings.push(Finding {
                    file: a.rel.clone(),
                    line: lineno,
                    rule: "W002",
                    message: format!(
                        "waiver for {} does not match any finding on this line; remove it",
                        wv.rule
                    ),
                    snippet: snippet(idx),
                });
            }
        }
    }
    report.findings.sort();
    report.waived.sort();
    report
}

/// Runs every applicable rule over one file's source text, with a symbol
/// index built from that file alone. The workspace driver in [`crate`]
/// uses the phased [`analyze`]/[`finish`] pipeline instead so cross-file
/// symbols resolve; this entry point keeps single-file linting (and the
/// fixture corpus) self-contained.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Finding> {
    let a = analyze(rel_path, src);
    let index = match a.indexable_items() {
        Some(items) => SymbolIndex::build([(rel_path, &items)]),
        None => SymbolIndex::default(),
    };
    finish(&a, &index).findings
}
