//! A lightweight item parser on top of [`crate::lexer`].
//!
//! The token rules in [`crate::rules`] are per-line; the cross-file rules
//! (`U001`/`U002`, `D004`, `E001`, `C001`) need *structure*: which
//! tokens form a function body, what an enum's variants are, which `impl`
//! block a `Self::` path resolves through. This module builds exactly that
//! much — a flat item list per file with token ranges — and nothing more.
//! It is not a Rust parser: it never fails, it skips what it does not
//! understand, and every loop advances, so arbitrary byte soup (see the
//! property tests) terminates with a possibly-empty item list.
//!
//! What it recognizes: `fn` items with named parameters and return type,
//! `enum` items with their variant names, `impl` blocks (for `Self`
//! resolution), `mod` blocks (descended into), `use` declarations, and the
//! file's `unsafe` / `spawn(` / `.lock()` sites. Everything is recorded
//! with 1-based line numbers and half-open token ranges into the file's
//! flat [`PTok`] stream.

use std::ops::Range;

use crate::lexer::{tokenize, Line, Tok};

/// A token with the 1-based line it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PTok {
    /// 1-based physical line number.
    pub line: usize,
    /// The token.
    pub tok: Tok,
}

/// Flattens lexed lines into a single positioned token stream.
pub fn token_stream(lines: &[Line]) -> Vec<PTok> {
    let mut out = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        for tok in tokenize(&line.code) {
            out.push(PTok { line: idx + 1, tok });
        }
    }
    out
}

/// One `name: Type` function parameter (receivers like `&mut self` are not
/// recorded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// The binding name (first identifier of the pattern).
    pub name: String,
    /// The declared type, as space-joined token text.
    pub ty: String,
}

/// A `fn` item (free function or method).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnDef {
    /// The function name.
    pub name: String,
    /// Named parameters, in declaration order (receiver excluded).
    pub params: Vec<Param>,
    /// Return type text (empty for `()` / none).
    pub ret: String,
    /// Token range of the body, exclusive of the braces; empty for
    /// body-less declarations (trait methods, externs).
    pub body: Range<usize>,
    /// Line of the `fn` keyword.
    pub line: usize,
}

/// An `enum` item with its variant names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnumDef {
    /// The enum name.
    pub name: String,
    /// Variant names, in declaration order.
    pub variants: Vec<String>,
    /// Line of the `enum` keyword.
    pub line: usize,
}

/// An `impl` block, recorded so `Self::Variant` paths inside its body can
/// be resolved to the implemented type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImplDef {
    /// Last path segment of the implemented type (`fabric::Lease` → `Lease`).
    pub type_name: String,
    /// Token range of the block body, exclusive of the braces.
    pub body: Range<usize>,
    /// Line of the `impl` keyword.
    pub line: usize,
}

/// Everything the parser extracted from one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FileItems {
    /// `fn` items, including methods inside `impl`/`mod` blocks.
    pub fns: Vec<FnDef>,
    /// `enum` items.
    pub enums: Vec<EnumDef>,
    /// `impl` blocks.
    pub impls: Vec<ImplDef>,
}

impl FileItems {
    /// The `impl` block (innermost, i.e. latest-starting) whose body covers
    /// token index `at`, for `Self::` resolution.
    pub fn impl_at(&self, at: usize) -> Option<&ImplDef> {
        self.impls.iter().filter(|im| im.body.contains(&at)).max_by_key(|im| im.body.start)
    }
}

/// Index of the token that closes the bracket opened at `open` (which must
/// hold `(`, `[`, or `{`). Returns `toks.len()` when unbalanced.
pub fn matching_close(toks: &[PTok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match toks[i].tok.punct() {
            Some("(" | "[" | "{") => depth += 1,
            Some(")" | "]" | "}") => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

fn ident_at(toks: &[PTok], i: usize) -> Option<&str> {
    toks.get(i).and_then(|t| t.tok.ident())
}

fn punct_at(toks: &[PTok], i: usize, p: &str) -> bool {
    toks.get(i).is_some_and(|t| t.tok.is_punct(p))
}

/// Skips a `<…>` generics list starting at `i` (which must hold `<`);
/// returns the index after the closing `>`. `(`/`)` nesting inside is
/// honoured for const-generic expressions.
fn skip_generics(toks: &[PTok], i: usize) -> usize {
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].tok.punct() {
            Some("<") => depth += 1,
            Some(">") => {
                depth -= 1;
                if depth <= 0 {
                    return j + 1;
                }
            }
            // A `(` inside generics (const-generic block) is skipped whole.
            Some("(" | "[" | "{") => j = matching_close(toks, j),
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Skips an attribute `#[…]` / `#![…]` starting at the `#`; returns the
/// index after the closing `]`, or `i + 1` if it was not an attribute.
fn skip_attr(toks: &[PTok], i: usize) -> usize {
    let mut j = i + 1;
    if punct_at(toks, j, "!") {
        j += 1;
    }
    if punct_at(toks, j, "[") {
        matching_close(toks, j) + 1
    } else {
        i + 1
    }
}

/// Whether the token before `i` permits `fn` at `i` to start an item
/// (excludes `fn`-pointer types like `f: fn(u32)` and `dyn Fn`-ish uses).
fn fn_is_item(toks: &[PTok], i: usize) -> bool {
    if ident_at(toks, i + 1).is_none() {
        return false; // `fn(…)` pointer type or stray keyword
    }
    match i.checked_sub(1).and_then(|p| toks.get(p)) {
        None => true,
        Some(prev) => match &prev.tok {
            Tok::Punct(p) => !matches!(p.as_str(), ":" | "," | "(" | "<" | "&" | "=" | "->"),
            Tok::Ident(id) => !matches!(id.as_str(), "dyn" | "impl"),
            Tok::Num(_) => true,
        },
    }
}

/// Parses the variant names out of an enum body token range.
fn parse_variants(toks: &[PTok], body: Range<usize>) -> Vec<String> {
    let mut variants = Vec::new();
    let mut i = body.start;
    while i < body.end {
        // Skip attributes and doc-derived leftovers before the name.
        while i < body.end && punct_at(toks, i, "#") {
            i = skip_attr(toks, i);
        }
        let Some(name) = ident_at(toks, i) else {
            i += 1;
            continue;
        };
        variants.push(name.to_owned());
        i += 1;
        // Skip the payload / discriminant up to the `,` separating variants.
        while i < body.end {
            if punct_at(toks, i, ",") {
                i += 1;
                break;
            }
            if punct_at(toks, i, "(") || punct_at(toks, i, "[") || punct_at(toks, i, "{") {
                i = matching_close(toks, i) + 1;
            } else {
                i += 1;
            }
        }
    }
    variants
}

/// Joins token texts with single spaces (for type / path display).
fn join_toks(toks: &[PTok]) -> String {
    let mut out = String::new();
    for t in toks {
        let s = match &t.tok {
            Tok::Ident(s) | Tok::Num(s) | Tok::Punct(s) => s.as_str(),
        };
        if !out.is_empty() && !matches!(s, "::" | "<" | ">" | "," | "(" | ")") {
            out.push(' ');
        }
        out.push_str(s);
    }
    out
}

/// Parses one parameter chunk (`mut x: Vec<u8>`); `None` for receivers.
fn parse_param(toks: &[PTok]) -> Option<Param> {
    let mut colon = None;
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate() {
        match t.tok.punct() {
            Some("(" | "[" | "{" | "<") => depth += 1,
            Some(")" | "]" | "}" | ">") => depth -= 1,
            Some(":") if depth == 0 => {
                colon = Some(k);
                break;
            }
            _ => {}
        }
    }
    let colon = colon?; // receiver (`self`, `&mut self`) has no `:`
    let name = toks[..colon]
        .iter()
        .filter_map(|t| t.tok.ident())
        .find(|id| !matches!(*id, "mut" | "ref"))?
        .to_owned();
    Some(Param { name, ty: join_toks(&toks[colon + 1..]) })
}

/// Parses a `fn` item starting at the `fn` keyword; returns the def and the
/// index to resume scanning from (inside the body, so nested items and
/// sites are still discovered by the caller's linear scan).
fn parse_fn(toks: &[PTok], at: usize) -> Option<(FnDef, usize)> {
    let name = ident_at(toks, at + 1)?.to_owned();
    let line = toks[at].line;
    let mut i = at + 2;
    if punct_at(toks, i, "<") {
        i = skip_generics(toks, i);
    }
    if !punct_at(toks, i, "(") {
        return None;
    }
    let close = matching_close(toks, i);
    // Split the parameter list on top-level commas.
    let mut params = Vec::new();
    let mut start = i + 1;
    let mut k = i + 1;
    while k <= close {
        // Nested brackets are jumped over whole below, so any `,` seen here
        // is a top-level parameter separator.
        let split = k == close || punct_at(toks, k, ",");
        if k < close && (punct_at(toks, k, "(") || punct_at(toks, k, "[") || punct_at(toks, k, "{"))
        {
            k = matching_close(toks, k) + 1;
            continue;
        }
        if k < close && punct_at(toks, k, "<") {
            k = skip_generics(toks, k);
            continue;
        }
        if split {
            if start < k {
                params.extend(parse_param(&toks[start..k]));
            }
            start = k + 1;
        }
        k += 1;
    }
    // Return type: `-> T` up to `{`, `;`, or `where`.
    let mut i = close + 1;
    let mut ret = String::new();
    if punct_at(toks, i, "->") {
        let rstart = i + 1;
        let mut j = rstart;
        while j < toks.len() {
            if punct_at(toks, j, "{") || punct_at(toks, j, ";") {
                break;
            }
            if ident_at(toks, j) == Some("where") {
                break;
            }
            if punct_at(toks, j, "<") {
                j = skip_generics(toks, j);
                continue;
            }
            j += 1;
        }
        ret = join_toks(&toks[rstart..j]);
        i = j;
    }
    // Where clause / trailing bounds: scan forward to the body or `;`.
    while i < toks.len() && !punct_at(toks, i, "{") && !punct_at(toks, i, ";") {
        if punct_at(toks, i, "<") {
            i = skip_generics(toks, i);
        } else {
            i += 1;
        }
    }
    let body = if punct_at(toks, i, "{") {
        let end = matching_close(toks, i);
        (i + 1)..end
    } else {
        0..0
    };
    let resume = if body.is_empty() { i + 1 } else { body.start };
    Some((FnDef { name, params, ret, body, line }, resume))
}

/// Parses the whole token stream into items. Single linear pass; item
/// bodies are re-entered (so methods inside `impl`/`mod` and nested `fn`s
/// are all found), and unknown constructs are skipped token-by-token.
pub fn parse(toks: &[PTok]) -> FileItems {
    let mut items = FileItems::default();
    let mut i = 0;
    while i < toks.len() {
        match ident_at(toks, i) {
            Some("enum") => {
                if let Some(name) = ident_at(toks, i + 1) {
                    let name = name.to_owned();
                    let line = toks[i].line;
                    let mut j = i + 2;
                    if punct_at(toks, j, "<") {
                        j = skip_generics(toks, j);
                    }
                    while j < toks.len() && !punct_at(toks, j, "{") && !punct_at(toks, j, ";") {
                        j += 1;
                    }
                    if punct_at(toks, j, "{") {
                        let end = matching_close(toks, j);
                        let variants = parse_variants(toks, (j + 1)..end);
                        items.enums.push(EnumDef { name, variants, line });
                        i = end + 1;
                        continue;
                    }
                }
                i += 1;
            }
            Some("fn") if fn_is_item(toks, i) => {
                if let Some((def, resume)) = parse_fn(toks, i) {
                    items.fns.push(def);
                    i = resume;
                } else {
                    i += 1;
                }
            }
            Some("impl") => {
                let mut j = i + 1;
                if punct_at(toks, j, "<") {
                    j = skip_generics(toks, j);
                }
                // `impl Trait for Type {` → the type is after `for`.
                let mut type_name = String::new();
                while j < toks.len() && !punct_at(toks, j, "{") && !punct_at(toks, j, ";") {
                    if ident_at(toks, j) == Some("for") {
                        type_name.clear();
                    } else if let Some(id) = ident_at(toks, j) {
                        type_name = id.to_owned();
                    }
                    if punct_at(toks, j, "<") {
                        j = skip_generics(toks, j);
                    } else {
                        j += 1;
                    }
                }
                if punct_at(toks, j, "{") && !type_name.is_empty() {
                    let end = matching_close(toks, j);
                    items.impls.push(ImplDef { type_name, body: (j + 1)..end, line: toks[i].line });
                    i = j + 1; // descend into the block
                } else {
                    i = j;
                }
            }
            Some("use") => {
                let mut j = i + 1;
                while j < toks.len() && !punct_at(toks, j, ";") {
                    if punct_at(toks, j, "{") {
                        j = matching_close(toks, j);
                    }
                    j += 1;
                }
                i = j + 1;
            }
            _ => {
                if punct_at(toks, i, "#") {
                    i = skip_attr(toks, i);
                } else {
                    i += 1;
                }
            }
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::split_lines;

    fn items_of(src: &str) -> FileItems {
        parse(&token_stream(&split_lines(src)))
    }

    #[test]
    fn parses_enum_variants() {
        let items = items_of(
            "#[derive(Debug)]\npub enum DropCause {\n  Full,\n  #[cfg(x)] Corrupt(u8),\n  Fault { link: u32 },\n  Seeded = 3,\n}\n",
        );
        assert_eq!(items.enums.len(), 1);
        let e = &items.enums[0];
        assert_eq!(e.name, "DropCause");
        assert_eq!(e.variants, ["Full", "Corrupt", "Fault", "Seeded"]);
        assert_eq!(e.line, 2);
    }

    #[test]
    fn parses_fn_signature_and_body_range() {
        let src = "pub fn ser_ns(len_bytes: u32, rate_bps: u64) -> SimDuration {\n  let x = 1;\n  x\n}\nfn plain() {}\n";
        let items = items_of(src);
        assert_eq!(items.fns.len(), 2);
        let f = &items.fns[0];
        assert_eq!(f.name, "ser_ns");
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "len_bytes");
        assert_eq!(f.params[0].ty, "u32");
        assert_eq!(f.params[1].name, "rate_bps");
        assert_eq!(f.ret, "SimDuration");
        assert!(!f.body.is_empty());
        assert_eq!(items.fns[1].name, "plain");
    }

    #[test]
    fn methods_inside_impl_and_self_resolution() {
        let src = "impl Tok {\n  pub fn ident(&self) -> Option<&str> { self.x }\n}\nimpl Display for Finding {\n  fn fmt(&self, f: &mut Formatter<'_>) -> Result { ok }\n}\n";
        let items = items_of(src);
        assert_eq!(items.impls.len(), 2);
        assert_eq!(items.impls[0].type_name, "Tok");
        assert_eq!(items.impls[1].type_name, "Finding");
        assert_eq!(items.fns.len(), 2);
        assert_eq!(items.fns[0].name, "ident");
        // `Self` resolution: the fn body sits inside the first impl.
        let at = items.fns[0].body.start;
        assert_eq!(items.impl_at(at).map(|im| im.type_name.as_str()), Some("Tok"));
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = items_of("struct S { cb: fn(u32) -> u8 }\nfn real(x: fn(u32)) {}\n");
        assert_eq!(items.fns.len(), 1);
        assert_eq!(items.fns[0].name, "real");
    }

    #[test]
    fn a_use_declaration_is_skipped_to_its_semicolon() {
        let src = "use std::sync::{Mutex, mpsc::{channel}};\nfn f() {\n  let g = self.writer.lock();\n  unsafe { x() }\n}\n";
        let items = items_of(src);
        assert_eq!(items.fns.len(), 1);
        assert_eq!((items.fns[0].name.as_str(), items.fns[0].line), ("f", 2));
    }

    #[test]
    fn generics_and_where_clauses_do_not_derail() {
        let src = "fn g<T: Ord, const N: usize>(xs: [T; N], m: BTreeMap<String, Vec<u8>>) -> Vec<T>\nwhere T: Clone {\n  xs\n}\n";
        let items = items_of(src);
        assert_eq!(items.fns.len(), 1);
        let f = &items.fns[0];
        assert_eq!(f.params.len(), 2);
        assert_eq!(f.params[0].name, "xs");
        assert_eq!(f.params[1].name, "m");
        assert!(!f.body.is_empty());
    }

    #[test]
    fn parser_tolerates_garbage() {
        for src in ["enum", "fn", "impl {", "fn (", "enum E {", ")]}>::", "fn x(y:)", "use ;"] {
            let _ = items_of(src); // must not panic and must terminate
        }
    }
}
