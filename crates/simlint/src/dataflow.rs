//! Conservative intra-procedural dataflow: unit tags and wall-clock taint.
//!
//! Two lattices flow through each function body in one forward pass over
//! its statements (no fixpoint — loops are analyzed once, which is sound
//! for the warnings we emit because facts only ever *add* findings, never
//! suppress them):
//!
//! * **Unit tags** (`U001`/`U002`). This workspace encodes units in names —
//!   `len_bytes`, `rate_bps`, `budget_nanos` — because the PR 2 overflow
//!   and the PR 5 sub-bit/s truncation were both silent unit mix-ups
//!   between raw integers. The pass tags values via those naming
//!   conventions, propagates tags through `let` bindings, and flags flows
//!   that cross units without an explicit conversion: assignments and
//!   cross-file argument passing (U001), additive/comparison arithmetic
//!   (U002). Anything involving `*`//`/`/`%` or a conversion-shaped call
//!   (`to_*`, `from_*`, `as_*`, `*_per_*`) drops to ⊤ (unknown): scaling
//!   *is* how units legitimately convert, so only unconverted flows fire.
//!
//! * **Wall-clock taint** (`D004`). clippy's `disallowed-methods` (the root
//!   `clippy.toml`) bans wall-clock *call sites*, and each sanctioned read
//!   carries an `#[expect]`; D004 follows the value to flows anywhere in
//!   `src`: a value derived from `Instant`/`SystemTime`/date-shaped sources must
//!   never reach a sim-state sink (`SimTime`/`SimDuration` construction,
//!   or a parameter of that type on an indexed function), even through
//!   intermediate bindings the call-site rule cannot see.
//!
//! Both lattices are deliberately blunt: one distinct fact or ⊤. Every
//! widening loses findings, never invents them — false negatives over
//! false positives, the same bet the per-line rules make.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::index::SymbolIndex;
use crate::parser::{matching_close, FnDef, PTok};

/// A unit tag inferred from naming conventions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Unit {
    /// Bits per second (`_bps`).
    Bps,
    /// Bytes (`_bytes`).
    Bytes,
    /// Bits (`_bits`).
    Bits,
    /// Nanoseconds (`_nanos`, `_ns`).
    Nanos,
    /// Microseconds (`_micros`, `_us`).
    Micros,
    /// Milliseconds (`_millis`, `_ms`).
    Millis,
    /// Seconds (`_secs`, `_s`).
    Secs,
}

impl Unit {
    /// Human-readable label for diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            Unit::Bps => "bits/s",
            Unit::Bytes => "bytes",
            Unit::Bits => "bits",
            Unit::Nanos => "nanoseconds",
            Unit::Micros => "microseconds",
            Unit::Millis => "milliseconds",
            Unit::Secs => "seconds",
        }
    }
}

/// Suffix → unit table, longest-first so `_bytes` wins over `_s`.
const SUFFIXES: &[(&str, Unit)] = &[
    ("_bps", Unit::Bps),
    ("_bytes", Unit::Bytes),
    ("_byte", Unit::Bytes),
    ("_bits", Unit::Bits),
    ("_bit", Unit::Bits),
    ("_nanos", Unit::Nanos),
    ("_ns", Unit::Nanos),
    ("_micros", Unit::Micros),
    ("_us", Unit::Micros),
    ("_millis", Unit::Millis),
    ("_ms", Unit::Millis),
    ("_seconds", Unit::Secs),
    ("_secs", Unit::Secs),
    ("_sec", Unit::Secs),
    ("_s", Unit::Secs),
];

/// Exact-name → unit table (bare `bytes`, `rate` accessors named `bps`, …).
const EXACT: &[(&str, Unit)] = &[
    ("bps", Unit::Bps),
    ("bytes", Unit::Bytes),
    ("bits", Unit::Bits),
    ("nanos", Unit::Nanos),
    ("ns", Unit::Nanos),
    ("micros", Unit::Micros),
    ("millis", Unit::Millis),
    ("ms", Unit::Millis),
    ("secs", Unit::Secs),
];

/// The unit an identifier's name claims, if any.
pub fn unit_of_name(name: &str) -> Option<Unit> {
    if let Some((_, u)) = EXACT.iter().find(|(n, _)| *n == name) {
        return Some(*u);
    }
    SUFFIXES.iter().find(|(suf, _)| name.ends_with(suf)).map(|(_, u)| *u)
}

/// Whether an identifier names an explicit conversion (which launders any
/// unit mix it participates in): `to_*`, `from_*`, `as_*`, `with_*`,
/// `into_*`, or a `*_per_*` rate.
pub fn is_conversion(name: &str) -> bool {
    ["to_", "from_", "as_", "with_", "into_"].iter().any(|p| name.starts_with(p))
        || ["_to_", "_from_", "_as_", "_per_"].iter().any(|m| name.contains(m))
}

/// Sources of wall-clock taint: types, free constructors, and the method
/// names that read a host clock.
const TAINT_SOURCES: &[&str] = &[
    "Instant",
    "SystemTime",
    "UNIX_EPOCH",
    "OffsetDateTime",
    "Utc",
    "Local",
    "chrono",
    "duration_since",
];

/// Sim-state types whose construction is a D004 sink.
const SIM_STATE_TYPES: &[&str] = &["SimTime", "SimDuration"];

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "move", "as", "fn", "let", "else",
    "break", "continue", "unsafe", "await", "ref", "mut", "pub", "where", "impl", "dyn", "Self",
    "self", "super", "crate",
];

/// One dataflow diagnostic, later merged into the file's findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowFinding {
    /// 1-based line.
    pub line: usize,
    /// `U001`, `U002`, or `D004`.
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

/// Splits a body token range into statements at `;` (bracket depth 0) and
/// at every brace (block structure is flattened — nested statements are
/// just more statements).
fn statements(toks: &[PTok], range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = range.start;
    let mut depth = 0i32;
    for i in range.clone() {
        match toks[i].tok.punct() {
            Some("(" | "[") => depth += 1,
            Some(")" | "]") => depth -= 1,
            Some(";") if depth <= 0 => {
                if start < i {
                    out.push(start..i);
                }
                start = i + 1;
                depth = 0;
            }
            Some("{" | "}") => {
                if start < i {
                    out.push(start..i);
                }
                start = i + 1;
                depth = 0;
            }
            _ => {}
        }
    }
    if start < range.end {
        out.push(start..range.end);
    }
    out
}

/// The environment threaded through one function body.
struct Env {
    units: BTreeMap<String, Unit>,
    taint: BTreeSet<String>,
}

impl Env {
    fn unit_of(&self, ident: &str) -> Option<Unit> {
        self.units.get(ident).copied().or_else(|| unit_of_name(ident))
    }
}

/// The single unit a token chunk carries: `None` when untagged, mixed, or
/// laundered by a conversion / multiplicative operator.
fn chunk_unit(toks: &[PTok], env: &Env) -> Option<Unit> {
    let mut found: Option<Unit> = None;
    for t in toks {
        if let Some(id) = t.tok.ident() {
            if is_conversion(id) {
                return None;
            }
            if let Some(u) = env.unit_of(id) {
                match found {
                    None => found = Some(u),
                    Some(prev) if prev != u => return None, // mixed within → ⊤
                    Some(_) => {}
                }
            }
        } else if matches!(t.tok.punct(), Some("*" | "/" | "%")) {
            return None;
        }
    }
    found
}

/// Whether a chunk carries wall-clock taint: a direct source or a tainted
/// binding.
fn chunk_tainted(toks: &[PTok], env: &Env) -> bool {
    toks.iter().filter_map(|t| t.tok.ident()).any(|id| {
        TAINT_SOURCES.contains(&id)
            || env.taint.contains(id)
            // `.elapsed()` only counts as a clock read on a tainted or
            // source receiver is impossible to know name-free; treat the
            // bare method as a source — sim clocks here expose `now_ns`,
            // not `elapsed`.
            || id == "elapsed"
    })
}

/// Boundary puncts that end a unit chunk at depth 0 (additive/comparison
/// operators are handled separately as the ops under test).
fn is_chunk_boundary(p: &str) -> bool {
    matches!(p, "=" | "," | "&" | "|" | "^" | "?" | "=>" | "->" | ";" | ":")
}

const ADDITIVE_CMP: &[&str] = &["+", "-", "<", ">", "<=", ">=", "==", "!="];

/// Positions (relative depth 0 within `stmt`) of boundaries and ops.
fn depth0_marks(toks: &[PTok], stmt: &Range<usize>) -> Vec<(usize, &'static str)> {
    // kind: "op" (additive/cmp), "bound", "eq" (plain assignment `=`)
    let mut marks = Vec::new();
    let mut depth = 0i32;
    for i in stmt.clone() {
        let Some(p) = toks[i].tok.punct() else { continue };
        match p {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            _ if depth > 0 => {}
            "=" => {
                // Lone `=` is assignment unless the previous punct makes it
                // a compound/range operator (`+=`, `..=`, …).
                let compound = i > stmt.start
                    && matches!(
                        toks[i - 1].tok.punct(),
                        Some("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^" | "<" | ">" | ".")
                    );
                marks.push((i, if compound { "bound" } else { "eq" }));
            }
            "<" | ">" => {
                // `<<` / `>>` shifts lex as two identical puncts; skip both.
                let shift =
                    (i > stmt.start && toks[i - 1].tok.is_punct(p)) || punct_at(toks, i + 1, p);
                // A following `=` makes this `<<=`-style; the `=` arm
                // already treats it as a bound.
                marks.push((i, if shift { "bound" } else { "op" }));
            }
            "+" | "-" => {
                // Unary minus/plus: preceded by nothing or by an operator.
                let unary = i == stmt.start
                    || toks[i - 1].tok.punct().is_some_and(|q| !matches!(q, ")" | "]"));
                let compound_assign = punct_at(toks, i + 1, "=");
                if unary && !compound_assign {
                    continue;
                }
                marks.push((i, "op"));
            }
            _ if ADDITIVE_CMP.contains(&p) => marks.push((i, "op")),
            _ if is_chunk_boundary(p) => marks.push((i, "bound")),
            _ => {}
        }
    }
    marks
}

/// Runs both lattices over one function and returns its findings.
pub fn analyze_fn(toks: &[PTok], f: &FnDef, index: &SymbolIndex) -> Vec<FlowFinding> {
    let mut env = Env { units: BTreeMap::new(), taint: BTreeSet::new() };
    for p in &f.params {
        let unit = unit_of_name(&p.name)
            .or_else(|| SIM_STATE_TYPES.iter().any(|t| p.ty.contains(t)).then_some(Unit::Nanos));
        if let Some(u) = unit {
            env.units.insert(p.name.clone(), u);
        }
    }
    let mut findings = Vec::new();

    for stmt in statements(toks, f.body.clone()) {
        analyze_statement(toks, &stmt, index, &mut env, &mut findings);
    }
    findings
}

fn analyze_statement(
    toks: &[PTok],
    stmt: &Range<usize>,
    index: &SymbolIndex,
    env: &mut Env,
    findings: &mut Vec<FlowFinding>,
) {
    let marks = depth0_marks(toks, stmt);

    // U002: additive/comparison ops between chunks with distinct units.
    for (mi, &(at, kind)) in marks.iter().enumerate() {
        if kind != "op" {
            continue;
        }
        let lstart = marks[..mi].iter().rev().map(|&(j, _)| j + 1).next().unwrap_or(stmt.start);
        let lend = at;
        // Compound assign `x += rhs`: the op chunk on the right starts
        // after the `=`.
        let rstart = if punct_at(toks, at + 1, "=") { at + 2 } else { at + 1 };
        let rend =
            marks[mi + 1..].iter().map(|&(j, _)| j).find(|&j| j >= rstart).unwrap_or(stmt.end);
        let left = chunk_unit(&toks[lstart..lend], env);
        let right = chunk_unit(&toks[rstart..rend], env);
        if let (Some(a), Some(b)) = (left, right) {
            if a != b {
                findings.push(FlowFinding {
                    line: toks[at].line,
                    rule: "U002",
                    message: format!(
                        "arithmetic/comparison mixes {} and {} without an explicit conversion",
                        a.label(),
                        b.label()
                    ),
                });
            }
        }
    }

    // U001 (assignment form) + unit/taint propagation through bindings.
    let eq = marks.iter().find(|&&(_, k)| k == "eq").map(|&(j, _)| j);
    if let Some(eq) = eq {
        let mut lhs = stmt.start..eq;
        let mut declared_ty = String::new();
        let is_let = ident_at(toks, lhs.start) == Some("let");
        if is_let {
            lhs.start += 1;
            if ident_at(toks, lhs.start) == Some("mut") {
                lhs.start += 1;
            }
            // Strip a `: Type` annotation (the `:` is a depth-0 bound).
            if let Some(colon) = (lhs.start..lhs.end)
                .find(|&j| toks[j].tok.is_punct(":") && !punct_at(toks, j + 1, ":"))
            {
                declared_ty = toks[colon + 1..lhs.end]
                    .iter()
                    .filter_map(|t| t.tok.ident())
                    .collect::<Vec<_>>()
                    .join(" ");
                lhs.end = colon;
            }
        }
        // The governing name: a single binding for `let`, the trailing
        // field/ident of the place expression otherwise.
        let name = toks[lhs.clone()].iter().rev().filter_map(|t| t.tok.ident()).next();
        if let Some(name) = name.map(str::to_owned) {
            let rhs = eq + 1..stmt.end;
            // A control-flow right-hand side (`let x = match scrut` — the
            // braces split the statement before the arms) exposes only the
            // scrutinee/condition here, which is NOT the assigned value:
            // treat it as fully opaque.
            let rhs_opaque = matches!(
                ident_at(toks, rhs.start),
                Some("match" | "if" | "loop" | "while" | "unsafe")
            );
            let lhs_unit = if is_let {
                unit_of_name(&name).or_else(|| {
                    SIM_STATE_TYPES.iter().any(|t| declared_ty.contains(t)).then_some(Unit::Nanos)
                })
            } else {
                env.unit_of(&name)
            };
            let rhs_unit = if rhs_opaque { None } else { chunk_unit(&toks[rhs.clone()], env) };
            if let (Some(a), Some(b)) = (lhs_unit, rhs_unit) {
                if a != b {
                    findings.push(FlowFinding {
                        line: toks[eq].line,
                        rule: "U001",
                        message: format!(
                            "assignment mixes units: `{name}` is {} but the right-hand side is {}; insert an explicit conversion",
                            a.label(),
                            b.label()
                        ),
                    });
                }
            }
            // Propagate.
            if let Some(u) = lhs_unit.or(rhs_unit) {
                env.units.insert(name.clone(), u);
            }
            let tainted = !rhs_opaque && chunk_tainted(&toks[rhs.clone()], env);
            if tainted {
                env.taint.insert(name.clone());
                let sinky = SIM_STATE_TYPES.iter().any(|t| declared_ty.contains(t));
                if sinky {
                    findings.push(FlowFinding {
                        line: toks[eq].line,
                        rule: "D004",
                        message: format!(
                            "wall-clock-derived value flows into sim state: `{name}` is declared {declared_ty}; sim time must come from the simulated clock"
                        ),
                    });
                }
            } else if is_let {
                env.taint.remove(&name); // strong update on rebinding
            }
        }
    }

    // Call scans: sim-state constructor sinks and indexed-fn argument flow.
    let mut i = stmt.start;
    while i < stmt.end {
        let Some(id) = ident_at(toks, i) else {
            i += 1;
            continue;
        };
        // `SimTime::x(args)` / `SimDuration::x(args)` with a tainted arg.
        if SIM_STATE_TYPES.contains(&id)
            && punct_at(toks, i + 1, "::")
            && punct_at(toks, i + 3, "(")
        {
            let close = matching_close(toks, i + 3);
            if chunk_tainted(&toks[i + 4..close.min(toks.len())], env) {
                findings.push(FlowFinding {
                    line: toks[i].line,
                    rule: "D004",
                    message: format!(
                        "wall-clock-derived value flows into sim state via `{id}::{}`; sim time must come from the simulated clock",
                        ident_at(toks, i + 2).unwrap_or("?")
                    ),
                });
            }
            i += 4;
            continue;
        }
        // Plain call `name(args)` — not a method, macro, or keyword.
        let is_call = punct_at(toks, i + 1, "(")
            && !NON_CALL_KEYWORDS.contains(&id)
            && !(i > stmt.start && toks[i - 1].tok.is_punct("."));
        if is_call {
            if let Some(info) = index.unique_fn(id) {
                let close = matching_close(toks, i + 1);
                let args = split_args(toks, i + 2..close.min(toks.len()));
                if args.len() == info.param_names.len() {
                    for (k, arg) in args.iter().enumerate() {
                        let want = unit_of_name(&info.param_names[k]);
                        let got = chunk_unit(&toks[arg.clone()], env);
                        if let (Some(a), Some(b)) = (want, got) {
                            if a != b {
                                findings.push(FlowFinding {
                                    line: toks[arg.start].line,
                                    rule: "U001",
                                    message: format!(
                                        "argument `{}` of `{id}` ({}:{}) expects {} but the call passes {}",
                                        info.param_names[k],
                                        info.file,
                                        info.line,
                                        a.label(),
                                        b.label()
                                    ),
                                });
                            }
                        }
                        let sinky = SIM_STATE_TYPES.iter().any(|t| info.param_tys[k].contains(t));
                        if sinky && chunk_tainted(&toks[arg.clone()], env) {
                            findings.push(FlowFinding {
                                line: toks[arg.start].line,
                                rule: "D004",
                                message: format!(
                                    "wall-clock-derived value passed as `{}: {}` to `{id}` ({}:{}); sim time must come from the simulated clock",
                                    info.param_names[k],
                                    info.param_tys[k],
                                    info.file,
                                    info.line
                                ),
                            });
                        }
                    }
                }
            }
        }
        i += 1;
    }
}

/// Splits a call's argument token range at top-level commas.
fn split_args(toks: &[PTok], range: Range<usize>) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = range.start;
    let mut depth = 0i32;
    let mut i = range.start;
    while i < range.end {
        match toks[i].tok.punct() {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => depth -= 1,
            Some(",") if depth == 0 => {
                out.push(start..i);
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if start < range.end {
        out.push(start..range.end);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;
    use crate::parser::{parse, token_stream};

    fn flow(src: &str) -> Vec<FlowFinding> {
        let toks = token_stream(&split_lines(src));
        let items = parse(&toks);
        let idx = SymbolIndex::build([("t.rs", &items)]);
        let mut out = Vec::new();
        for f in &items.fns {
            out.extend(analyze_fn(&toks, f, &idx));
        }
        out
    }

    fn rules(src: &str) -> Vec<&'static str> {
        flow(src).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn unit_suffix_table() {
        assert_eq!(unit_of_name("len_bytes"), Some(Unit::Bytes));
        assert_eq!(unit_of_name("rate_bps"), Some(Unit::Bps));
        assert_eq!(unit_of_name("budget_ns"), Some(Unit::Nanos));
        assert_eq!(unit_of_name("timeout_s"), Some(Unit::Secs));
        assert_eq!(unit_of_name("workers"), None);
        assert_eq!(unit_of_name("stats"), None);
        assert_eq!(unit_of_name("status"), None);
    }

    #[test]
    fn u001_fires_on_cross_unit_let() {
        assert_eq!(rules("fn f(len_bytes: u64) { let wire_bits = len_bytes; }"), ["U001"]);
    }

    #[test]
    fn u001_clean_with_scaling_or_conversion() {
        assert!(rules("fn f(len_bytes: u64) { let wire_bits = len_bytes * 8; }").is_empty());
        assert!(
            rules("fn f(len_bytes: u64) { let wire_bits = bytes_to_bits(len_bytes); }").is_empty()
        );
    }

    #[test]
    fn u002_fires_on_cross_unit_compare_and_add() {
        assert_eq!(rules("fn f(a_bps: u64, b_bytes: u64) { if a_bps < b_bytes { } }"), ["U002"]);
        assert_eq!(rules("fn f(x_ns: u64, y_ms: u64) { let t_ns = x_ns + y_ms; }"), ["U002"]);
    }

    #[test]
    fn u002_clean_on_same_unit_and_boolean_chains() {
        assert!(rules("fn f(a_bps: u64, b_bps: u64) { if a_bps < b_bps { } }").is_empty());
        // `&&` bounds the chunks: the second comparison must not leak into
        // the first one's right-hand side.
        assert!(
            rules("fn f(a_bps: u64, b_bytes: u64) { if a_bps > 0 && b_bytes > 0 { } }").is_empty()
        );
    }

    #[test]
    fn units_propagate_through_lets() {
        assert_eq!(
            rules("fn f(len_bytes: u64) { let stored = len_bytes; let out_bits = stored; }"),
            ["U001"]
        );
    }

    #[test]
    fn d004_taints_through_bindings_to_sim_sinks() {
        assert_eq!(
            rules("fn f() { let t0 = Instant::now(); let d = t0.elapsed(); let x = SimDuration::from_nanos(d); }"),
            // the elapsed read re-taints, then the constructor sink fires
            ["D004"]
        );
        assert!(rules("fn f(n: u64) { let x = SimDuration::from_nanos(n); }").is_empty());
    }

    #[test]
    fn d004_fires_on_typed_let_sink() {
        assert_eq!(
            rules("fn f() { let wall = SystemTime::now(); let t: SimTime = wall; }"),
            ["D004"]
        );
    }

    #[test]
    fn compound_assign_mixing_units_fires() {
        assert_eq!(rules("fn f(mut acc_ns: u64, d_ms: u64) { acc_ns += d_ms; }"), ["U002"]);
        assert!(rules("fn f(mut acc_ns: u64, d_ns: u64) { acc_ns += d_ns; }").is_empty());
    }

    #[test]
    fn sim_duration_params_carry_nanos() {
        assert_eq!(rules("fn f(d: SimDuration) { let gap_us = d; }"), ["U001"]);
    }

    #[test]
    fn shifts_and_generics_do_not_fire() {
        assert!(rules("fn f(x_bits: u64, n_bytes: u64) { let y_bits = x_bits << 2; }").is_empty());
        assert!(rules("fn f(v: Vec<u64>, n_bytes: u64) { let k = v.len(); }").is_empty());
    }
}
