//! The symbol-aware rules: what the per-line token layer cannot express.
//!
//! * **E001** — a `match` on a workspace enum whose wildcard arm swallows
//!   variants, or whose arms name variants the enum does not have. PR 9
//!   added `FaultKind`/`ChaosMode` variants and only runtime chaos drills
//!   caught the sites that silently `_`-defaulted them; E001 makes adding
//!   a variant a compile-review event, not a runtime surprise.
//! * **C001** — inconsistent `Mutex` lock-acquisition order within one
//!   file. The PR 9 dist fabric holds supervisor-side locks around spool
//!   I/O; acquiring two named locks in both orders is the textbook
//!   deadlock seed, and a linter can see it where a unit test cannot.
//! * **U001/U002/D004** — driven here per function body; the lattice
//!   machinery lives in [`crate::dataflow`].
//!
//! All flow rules share one scope: `src/` files outside `tests/`/
//! `benches/`/`examples/` and outside `#[cfg(test)]` regions.

use std::collections::BTreeMap;

use crate::dataflow::analyze_fn;
use crate::index::SymbolIndex;
use crate::parser::{matching_close, FileItems, PTok};

/// A flow-rule diagnostic, merged into the file's findings by the caller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiag {
    /// 1-based line.
    pub line: usize,
    /// Rule identifier.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

fn ident_at(toks: &[PTok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

fn punct_at(toks: &[PTok], i: usize, p: &str) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is_punct(p))
}

/// Runs every flow rule over one analyzed file. `toks` is the file's full
/// positioned token stream, `items` its parse, `test_mask[line-1]` marks
/// `#[cfg(test)]` regions, and `index` the workspace symbols.
pub fn run(
    toks: &[PTok],
    items: &FileItems,
    test_mask: &[bool],
    index: &SymbolIndex,
) -> Vec<FlowDiag> {
    let in_test = |line: usize| test_mask.get(line - 1).copied().unwrap_or(false);
    let mut out = Vec::new();

    for f in &items.fns {
        if in_test(f.line) || f.body.is_empty() {
            continue;
        }
        for d in analyze_fn(toks, f, index) {
            out.push(FlowDiag { line: d.line, rule: d.rule, message: d.message });
        }
    }
    e001_match_exhaustiveness(toks, items, &in_test, index, &mut out);
    c001_lock_order(toks, items, &in_test, &mut out);
    out
}

/// The `Enum::Variant` (or `Self::Variant`) path a match-arm pattern starts
/// with, after stripping leading `&`/`(` — `None` for bindings, literals,
/// wrapped patterns (`Some(Enum::X)`), and paths deeper than two segments.
fn arm_head_path(toks: &[PTok], mut i: usize, end: usize) -> Option<(&str, &str)> {
    while i < end && (punct_at(toks, i, "&") || punct_at(toks, i, "(")) {
        i += 1;
    }
    let first = ident_at(toks, i)?;
    if !punct_at(toks, i + 1, "::") {
        return None;
    }
    let second = ident_at(toks, i + 2)?;
    // Deeper paths (`mod::Enum::Variant`) are skipped: without module
    // resolution the head segment is not reliably the enum.
    if punct_at(toks, i + 3, "::") {
        return None;
    }
    Some((first, second))
}

/// E001: non-exhaustive `match` over an indexed workspace enum.
fn e001_match_exhaustiveness(
    toks: &[PTok],
    items: &FileItems,
    in_test: &dyn Fn(usize) -> bool,
    index: &SymbolIndex,
    out: &mut Vec<FlowDiag>,
) {
    let mut i = 0;
    while i < toks.len() {
        if ident_at(toks, i) != Some("match") {
            i += 1;
            continue;
        }
        let line = toks[i].line;
        // The match body is the next `{` at scrutinee depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].tok.punct() {
                Some("(" | "[") => depth += 1,
                Some(")" | "]") => depth -= 1,
                Some("{") if depth <= 0 => break,
                _ => {}
            }
            j += 1;
        }
        if j >= toks.len() {
            break;
        }
        let body_end = matching_close(toks, j);
        if in_test(line) {
            i = j + 1;
            continue;
        }

        // Split the body into arms: `pattern => expr` separated by `,` at
        // depth 0 (brace-bodied arms end at their `}` — close enough: the
        // statement after a `}` that starts a new pattern is found by
        // re-scanning for `=>`).
        let mut arm_pat_starts = Vec::new();
        let mut k = j + 1;
        let mut pat_start = k;
        while k < body_end {
            match toks[k].tok.punct() {
                Some("(" | "[" | "{") => {
                    k = matching_close(toks, k) + 1;
                    continue;
                }
                Some("=>") => {
                    arm_pat_starts.push((pat_start, k));
                    // Skip the arm expression: to the `,` at depth 0 or a
                    // brace block.
                    let mut m = k + 1;
                    while m < body_end {
                        match toks[m].tok.punct() {
                            Some("(" | "[") => m = matching_close(toks, m) + 1,
                            Some("{") => {
                                m = matching_close(toks, m) + 1;
                                // `=> if c { a } else { b }` continues past
                                // the first block; stop only at a block not
                                // followed by `else`.
                                if ident_at(toks, m) == Some("else") {
                                    m += 1;
                                    continue;
                                }
                                break;
                            }
                            Some(",") => {
                                m += 1;
                                break;
                            }
                            _ => m += 1,
                        }
                    }
                    // A trailing `,` after a brace block.
                    if m < body_end && punct_at(toks, m, ",") {
                        m += 1;
                    }
                    k = m;
                    pat_start = m;
                    continue;
                }
                _ => {}
            }
            k += 1;
        }

        // Resolve each arm's head path; collect the enum consensus.
        let mut enum_name: Option<String> = None;
        let mut listed: Vec<String> = Vec::new();
        let mut unknown: Vec<String> = Vec::new();
        let mut wildcard = false;
        for &(ps, pe) in &arm_pat_starts {
            // `|`-alternates: evaluate each alternative's head.
            let mut alt_start = ps;
            let mut alts = Vec::new();
            let mut d = 0i32;
            for (q, pt) in toks.iter().enumerate().take(pe).skip(ps) {
                match pt.tok.punct() {
                    Some("(" | "[") => d += 1,
                    Some(")" | "]") => d -= 1,
                    Some("|") if d <= 0 => {
                        alts.push((alt_start, q));
                        alt_start = q + 1;
                    }
                    _ => {}
                }
            }
            alts.push((alt_start, pe));
            for (as_, ae) in alts {
                // An `if` guard ends the pattern proper.
                let guard = (as_..ae).find(|&q| ident_at(toks, q) == Some("if")).unwrap_or(ae);
                match arm_head_path(toks, as_, guard) {
                    Some((head, variant)) => {
                        let resolved = if head == "Self" {
                            items.impl_at(as_).map(|im| im.type_name.clone())
                        } else {
                            Some(head.to_owned())
                        };
                        let Some(en) = resolved else { continue };
                        if index.unique_enum(&en).is_none() {
                            continue;
                        }
                        match &enum_name {
                            None => enum_name = Some(en.clone()),
                            Some(prev) if *prev != en => {
                                // Arms over two different enums (tuple
                                // scrutinee): bail out of this match.
                                enum_name = None;
                                break;
                            }
                            Some(_) => {}
                        }
                        // SCREAMING_CASE heads are consts, not variants.
                        if variant.chars().next().is_some_and(char::is_uppercase)
                            && variant.chars().any(char::is_lowercase)
                        {
                            if index
                                .unique_enum(&en)
                                .is_some_and(|e| e.variants.iter().any(|v| v == variant))
                            {
                                listed.push(variant.to_owned());
                            } else {
                                unknown.push(format!("{en}::{variant}"));
                            }
                        }
                    }
                    None => {
                        // `_` or a bare lowercase binding is a wildcard;
                        // anything else (literals, Some(..)) just means
                        // this arm tells us nothing.
                        let mut q = as_;
                        while q < guard && (punct_at(toks, q, "&") || punct_at(toks, q, "(")) {
                            q += 1;
                        }
                        // A wildcard is `_`, or a bare lowercase binding
                        // that IS the whole pattern (next comes `=>` or an
                        // `if` guard) — not keywords or call-shaped heads.
                        let head = ident_at(toks, q);
                        let is_wild = head == Some("_") // lexes as an ident
                            || head.is_some_and(|h| {
                                h.chars().next().is_some_and(char::is_lowercase)
                                    && (punct_at(toks, q + 1, "=>")
                                        || ident_at(toks, q + 1) == Some("if"))
                            });
                        if is_wild {
                            wildcard = true;
                        }
                    }
                }
            }
            if enum_name.is_none() && !listed.is_empty() {
                break;
            }
        }

        if let Some(en) = enum_name {
            if let Some(info) = index.unique_enum(&en) {
                for u in &unknown {
                    out.push(FlowDiag {
                        line,
                        rule: "E001",
                        message: format!(
                            "match arm names `{u}`, which is not a variant of `{en}` ({}:{}); stale arm or typo",
                            info.file, info.line
                        ),
                    });
                }
                if wildcard {
                    let missing: Vec<&str> = info
                        .variants
                        .iter()
                        .map(String::as_str)
                        .filter(|v| !listed.iter().any(|l| l == v))
                        .collect();
                    if !missing.is_empty() {
                        out.push(FlowDiag {
                            line,
                            rule: "E001",
                            message: format!(
                                "wildcard arm swallows {} variant(s) of `{en}` ({}): list them explicitly so new variants cannot be silently defaulted",
                                missing.len(),
                                missing.join(", ")
                            ),
                        });
                    }
                }
            }
        }
        i = j + 1;
    }
}

/// The receiver base name of a `.lock()` call at token index `i` (the
/// `lock` ident): the last plain ident of the dotted chain before it.
fn lock_receiver(toks: &[PTok], i: usize) -> Option<&str> {
    let mut j = i.checked_sub(1)?; // the `.`
    if !toks[j].tok.is_punct(".") {
        return None;
    }
    loop {
        j = j.checked_sub(1)?;
        match toks[j].tok.punct() {
            Some(")" | "]") => {
                // Walk back over the bracketed chunk to its opener.
                let close_p = toks[j].tok.punct();
                let mut depth = 0i32;
                loop {
                    match toks[j].tok.punct() {
                        Some(p) if Some(p) == close_p => depth += 1,
                        Some("(") if close_p == Some(")") => depth -= 1,
                        Some("[") if close_p == Some("]") => depth -= 1,
                        _ => {}
                    }
                    if depth == 0 {
                        break;
                    }
                    j = j.checked_sub(1)?;
                }
            }
            _ => {
                if let Some(id) = toks[j].tok.ident() {
                    if !matches!(id, "self" | "Self") {
                        return Some(id);
                    }
                }
                // A further `.` continues the chain; anything else ends it.
                if !toks[j].tok.is_punct(".") && toks[j].tok.ident().is_none() {
                    return None;
                }
            }
        }
    }
}

/// C001: two named locks acquired in both orders within one file.
fn c001_lock_order(
    toks: &[PTok],
    items: &FileItems,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<FlowDiag>,
) {
    // Acquisition order per function: consecutive lock receivers within a
    // body form ordered pairs; a pair seen in both orders across the file
    // is the deadlock seed.
    let mut pair_first: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in &items.fns {
        if in_test(f.line) || f.body.is_empty() {
            continue;
        }
        let mut held: Vec<&str> = Vec::new();
        for i in f.body.clone() {
            if ident_at(toks, i) != Some("lock")
                || !punct_at(toks, i + 1, "(")
                || !punct_at(toks, i + 2, ")")
            {
                continue;
            }
            let Some(recv) = lock_receiver(toks, i) else { continue };
            let line = toks[i].line;
            for &prev in &held {
                if prev == recv {
                    continue;
                }
                let key = (prev.to_owned(), recv.to_owned());
                let rev = (recv.to_owned(), prev.to_owned());
                if let Some(&rev_line) = pair_first.get(&rev) {
                    out.push(FlowDiag {
                        line,
                        rule: "C001",
                        message: format!(
                            "locks `{prev}` then `{recv}` here, but the reverse order is taken at line {rev_line}; pick one acquisition order per file"
                        ),
                    });
                } else {
                    pair_first.entry(key).or_insert(line);
                }
            }
            held.push(recv);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;
    use crate::parser::{parse, token_stream};

    fn diags(src: &str) -> Vec<FlowDiag> {
        let lines = split_lines(src);
        let toks = token_stream(&lines);
        let items = parse(&toks);
        let idx = SymbolIndex::build([("t.rs", &items)]);
        let mask = vec![false; lines.len()];
        run(&toks, &items, &mask, &idx)
    }

    fn rules(src: &str) -> Vec<&'static str> {
        diags(src).into_iter().map(|d| d.rule).collect()
    }

    const ENUM: &str = "pub enum DropCause { Full, Corrupt, Fault }\n";

    #[test]
    fn e001_fires_on_wildcard_swallowing_variants() {
        let src = format!(
            "{ENUM}fn f(c: DropCause) -> u32 {{ match c {{ DropCause::Full => 1, _ => 0 }} }}\n"
        );
        assert_eq!(rules(&src), ["E001"]);
    }

    #[test]
    fn e001_clean_when_all_variants_listed() {
        let src = format!(
            "{ENUM}fn f(c: DropCause) -> u32 {{ match c {{ DropCause::Full => 1, DropCause::Corrupt => 2, DropCause::Fault => 3 }} }}\n"
        );
        assert!(rules(&src).is_empty());
        // All listed + wildcard (e.g. for a cfg-gated variant) is also fine.
        let src = format!(
            "{ENUM}fn f(c: DropCause) -> u32 {{ match c {{ DropCause::Full => 1, DropCause::Corrupt | DropCause::Fault => 2, _ => 0 }} }}\n"
        );
        assert!(rules(&src).is_empty());
    }

    #[test]
    fn e001_fires_on_unknown_variant() {
        let src = format!(
            "{ENUM}fn f(c: DropCause) -> u32 {{ match c {{ DropCause::Full => 1, DropCause::Gone => 2, DropCause::Corrupt => 3, DropCause::Fault => 4 }} }}\n"
        );
        assert_eq!(rules(&src), ["E001"]);
    }

    #[test]
    fn e001_resolves_self_through_impl() {
        let src = format!(
            "{ENUM}impl DropCause {{ fn code(&self) -> u32 {{ match self {{ Self::Full => 1, _ => 0 }} }} }}\n"
        );
        assert_eq!(rules(&src), ["E001"]);
    }

    #[test]
    fn e001_skips_wrapped_and_foreign_matches() {
        // Option-wrapped arms and non-indexed enums say nothing.
        let src = "fn f(x: Option<u32>) -> u32 { match x { Some(v) => v, None => 0 } }\n";
        assert!(rules(src).is_empty());
        let src = "fn f(o: std::cmp::Ordering) -> u32 { match o { std::cmp::Ordering::Less => 1, _ => 0 } }\n";
        assert!(rules(src).is_empty());
    }

    #[test]
    fn c001_fires_on_conflicting_lock_order() {
        let src = "fn a(&self) { let g1 = self.spool.lock(); let g2 = self.journal.lock(); }\nfn b(&self) { let g2 = self.journal.lock(); let g1 = self.spool.lock(); }\n";
        assert_eq!(rules(src), ["C001"]);
    }

    #[test]
    fn c001_clean_on_consistent_order() {
        let src = "fn a(&self) { let g1 = self.spool.lock(); let g2 = self.journal.lock(); }\nfn b(&self) { let g1 = self.spool.lock(); let g2 = self.journal.lock(); }\n";
        assert!(rules(src).is_empty());
    }
}
