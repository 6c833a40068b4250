//! The record dialect: the one place that knows how a line of this repo's
//! JSONL is spelled. Trace events, the supervisor audit log, sweep journals,
//! the distributed fabric's spool files and repro artifacts are all flat
//! one-line records in the same restricted JSON; [`line()`] writes one and
//! [`read`] reads one back. Record types elsewhere keep their own field
//! lists and never format or scan JSON themselves. DESIGN.md §17 has the
//! escaping table and the history.
//!
//! ```text
//! line    = '{' [ pair { ',' pair } ] '}'      no whitespace, no nesting,
//! pair    = '"' key '"' ':' value              no true/false/null
//! key     = [A-Za-z0-9_]+                      unique within a line
//! value   = integer | decimal | string | '[' [ word { ',' word } ] ']'
//! word    = integer | string
//! integer = 0 | [1-9][0-9]*                    up to u64::MAX
//! decimal = any other token over [0-9+-.eE] that parses as an f64 (an
//!           integer past u64::MAX included: a float ≥ 2^64 prints so), or
//!           NaN | inf | -inf (what the writer prints for a non-finite)
//! string  = JSON string: no raw control characters; the escapes
//!           \" \\ \/ \b \f \n \r \t and \uXXXX (never a surrogate)
//! ```
//!
//! Floats that must survive a round trip travel as IEEE-754 bit patterns in
//! an integer ([`LineWriter::f64_bits`]); decimals are for trace lines that
//! people read and nothing parses back into a result.
//!
//! **Whole or rejected.** [`read`] consumes `{`, the pairs, `}` and then
//! requires the end of the line, so no proper prefix of a written line
//! reads `Ok`: a line torn by a kill mid-append is always an error, never a
//! shorter record. The journal's torn-tail rule and the spool's
//! partial-harvest rule both rest on that.

use std::borrow::Cow;
use std::fmt::{Display, Write as _};

/// One element of an array field: an unsigned word (integers, float bit
/// patterns, flags, lengths) or a string — nothing else, so decoding a
/// payload is total and bit-exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Word {
    /// An unsigned word (also carries `f64::to_bits` patterns).
    U64(u64),
    /// A UTF-8 string.
    Str(String),
}

/// Appends `"…"`: `\"`, `\\`, `\n`, `\t`, `\u00XX` for the other control
/// characters, everything else (non-BMP included) as raw UTF-8. Unescaped
/// runs are copied whole: the trace hot path writes only such strings.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    let mut from = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // `b` is ASCII, so `i` is a char boundary.
        out.push_str(&s[from..i]);
        from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[from..]);
    out.push('"');
}

/// Appends `v` in decimal without going through `fmt` (one call per field
/// of every trace event).
fn push_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend(digits[i..].iter().map(|&d| char::from(d)));
}

/// Writes one record into a caller-owned buffer; see [`line()`]. Field
/// methods chain by value and [`LineWriter::end`] closes the object, so a
/// record the caller forgot to close is an unused-value warning.
#[must_use = "call .end() to close the record"]
#[derive(Debug)]
pub struct LineWriter<'a> {
    out: &'a mut String,
    first: bool,
}

/// Starts a record at the end of `out`. No newline is ever written (the
/// caller owns line framing) and nothing is allocated beyond what `out`
/// itself needs to grow.
pub fn line(out: &mut String) -> LineWriter<'_> {
    out.push('{');
    LineWriter { out, first: true }
}

impl LineWriter<'_> {
    fn key(&mut self, key: &str) {
        debug_assert!(
            !key.is_empty() && key.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_'),
            "record key {key:?} is outside [A-Za-z0-9_]+"
        );
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    fn display(mut self, key: &str, v: impl Display) -> Self {
        self.key(key);
        let _ = write!(self.out, "{v}");
        self
    }

    /// An unsigned integer field.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        self.key(key);
        push_u64(self.out, v);
        self
    }

    /// A float as its IEEE-754 bit pattern: the only float form that reads
    /// back bit-identical.
    pub fn f64_bits(self, key: &str, v: f64) -> Self {
        self.u64(key, v.to_bits())
    }

    /// A float in shortest round-trip decimal (`NaN`/`inf`/`-inf` for a
    /// non-finite one). Trace lines only.
    pub fn f64_dec(self, key: &str, v: f64) -> Self {
        self.display(key, v)
    }

    /// A float with exactly `places` fraction digits; trace lines only.
    pub fn f64_fixed(self, key: &str, v: f64, places: usize) -> Self {
        self.display(key, format_args!("{v:.places$}"))
    }

    /// A 64-bit word as a 16-hex-digit string (digests and cell ids).
    pub fn hex(self, key: &str, v: u64) -> Self {
        self.display(key, format_args!("\"{v:016x}\""))
    }

    /// An escaped string field.
    pub fn str(mut self, key: &str, v: &str) -> Self {
        self.key(key);
        push_string(self.out, v);
        self
    }

    /// An array of words.
    pub fn words(mut self, key: &str, words: &[Word]) -> Self {
        self.key(key);
        self.out.push('[');
        for (i, w) in words.iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            match w {
                Word::U64(n) => push_u64(self.out, *n),
                Word::Str(s) => push_string(self.out, s),
            }
        }
        self.out.push(']');
        self
    }

    /// Closes the record.
    pub fn end(self) {
        self.out.push('}');
    }
}

/// One field value of a parsed record. Callers use [`Record`]'s typed
/// accessors; the enum is public only so the codec's own test suite can
/// re-write a parsed line field by field.
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value<'a> {
    /// An unsigned integer token.
    U64(u64),
    /// Any other number token, kept as written.
    Dec(&'a str),
    /// A string, unescaped.
    Str(Cow<'a, str>),
    /// An array of words.
    Words(Vec<Word>),
}

/// A parsed record: the fields of one line, in line order. The typed
/// accessors fail with `missing <key>` when the key is absent and with
/// `<key> is not …` when it holds another kind of value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Record<'a> {
    fields: Vec<(&'a str, Value<'a>)>,
}

impl<'a> Record<'a> {
    /// The fields in line order (test support, like [`Value`]).
    #[doc(hidden)]
    pub fn fields(&self) -> impl Iterator<Item = (&'a str, &Value<'a>)> {
        self.fields.iter().map(|(k, v)| (*k, v))
    }

    fn get(&self, key: &str) -> Result<&Value<'a>, String> {
        let field = self.fields.iter().find(|(k, _)| *k == key);
        field.map(|(_, v)| v).ok_or_else(|| format!("missing {key}"))
    }

    /// The unsigned integer at `key`, range-checked into `T`.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let Value::U64(v) = self.get(key)? else {
            return Err(format!("{key} is not an unsigned integer"));
        };
        T::try_from(*v).map_err(|_| format!("{key} {v} is out of range"))
    }

    /// [`Record::uint`], with an absent key as `None`.
    pub fn opt_uint<T: TryFrom<u64>>(&self, key: &str) -> Result<Option<T>, String> {
        if self.get(key).is_err() {
            return Ok(None);
        }
        self.uint(key).map(Some)
    }

    /// The string at `key`.
    pub fn str(&self, key: &str) -> Result<&str, String> {
        let Value::Str(s) = self.get(key)? else {
            return Err(format!("{key} is not a string"));
        };
        Ok(s)
    }

    /// The word written by [`LineWriter::hex`]: exactly 16 lowercase hex
    /// digits.
    pub fn hex(&self, key: &str) -> Result<u64, String> {
        let s = self.str(key)?;
        if s.len() != 16 || !s.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')) {
            return Err(format!("{key} {s:?} is not 16 lowercase hex digits"));
        }
        u64::from_str_radix(s, 16).map_err(|e| format!("{key} {s:?}: {e}"))
    }

    /// Moves the word array at `key` out of the record (payloads are the
    /// bulk of a journal line; this avoids copying them).
    pub fn take_words(&mut self, key: &str) -> Result<Vec<Word>, String> {
        match self.fields.iter_mut().find(|(k, _)| *k == key) {
            None => Err(format!("missing {key}")),
            Some((_, Value::Words(w))) => Ok(std::mem::take(w)),
            Some(_) => Err(format!("{key} is not an array")),
        }
    }
}

/// Reads one line: either the whole of it is a record, or it is an error.
/// Total — never panics, on any `&str`.
pub fn read(line: &str) -> Result<Record<'_>, String> {
    let mut c = Cursor { s: line, pos: 0 };
    c.need(b'{')?;
    let mut fields: Vec<(&str, Value<'_>)> = Vec::with_capacity(8);
    while !(fields.is_empty() && c.eat(b'}')) {
        c.need(b'"')?;
        let key = c.take_while(|b| b.is_ascii_alphanumeric() || b == b'_');
        if key.is_empty() || fields.iter().any(|(k, _)| *k == key) {
            return Err(c.error("empty or duplicate key before"));
        }
        c.need(b'"')?;
        c.need(b':')?;
        let value = match c.peek() {
            Some(b'"') => Value::Str(c.string()?),
            Some(b'[') => Value::Words(c.words()?),
            _ => c.number()?,
        };
        fields.push((key, value));
        if c.eat(b'}') {
            break;
        }
        c.need(b',')?;
    }
    if c.pos != line.len() {
        return Err(c.error("bytes after the closing '}' at"));
    }
    Ok(Record { fields })
}

/// True when `line` opens with `{"key":`, whether or not the rest of it
/// reads: lets a reader of mixed files tell a torn record of its own family
/// (an error) from a foreign or torn line of another (skippable).
pub fn opens_with(line: &str, key: &str) -> bool {
    let rest = line.strip_prefix("{\"").and_then(|r| r.strip_prefix(key));
    rest.is_some_and(|r| r.starts_with("\":"))
}

/// Byte cursor over one line. `pos` only ever stops next to an ASCII byte
/// it has inspected, so every slice taken lies on char boundaries.
struct Cursor<'a> {
    s: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn error(&self, what: &str) -> String {
        format!("not a record: {what} byte {} of {}", self.pos, self.s.len())
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn need(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            return Ok(());
        }
        Err(self.error(&format!("expected '{}' at", char::from(b))))
    }

    /// The longest run of bytes satisfying `keep` (ASCII predicates only).
    fn take_while(&mut self, keep: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(&keep) {
            self.pos += 1;
        }
        &self.s[start..self.pos]
    }

    fn number(&mut self) -> Result<Value<'a>, String> {
        // What `f64_dec`/`f64_fixed` write for a non-finite value: a trace
        // line that records a degenerate cwnd must still read.
        for lit in ["NaN", "inf", "-inf"] {
            if self.s.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                return Ok(Value::Dec(lit));
            }
        }
        let raw = self.take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(&b));
        if raw.is_empty() || !raw.bytes().all(|b| b.is_ascii_digit()) {
            return match raw.parse::<f64>() {
                Ok(_) => Ok(Value::Dec(raw)),
                Err(_) => Err(self.error("expected a number, a string or an array before")),
            };
        }
        if raw.len() > 1 && raw.starts_with('0') {
            return Err(self.error("integer with a leading zero before"));
        }
        // Past `u64::MAX` it can only be a float (`f64_dec` prints 1e20 as
        // 21 digits): no accessor will hand it out as an integer.
        Ok(raw.parse().map_or(Value::Dec(raw), Value::U64))
    }

    fn string(&mut self) -> Result<Cow<'a, str>, String> {
        self.need(b'"')?;
        let start = self.pos;
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string at")),
                Some(b) if b < 0x20 => return Err(self.error("raw control character at")),
                Some(b'"') => break,
                // Skip the escaped byte too: an escaped quote does not close.
                Some(b'\\') => self.pos += 2,
                Some(_) => self.pos += 1,
            }
        }
        // Both ends sit next to an ASCII quote, so this is a char boundary.
        let raw = &self.s[start..self.pos];
        self.pos += 1;
        if !raw.contains('\\') {
            return Ok(Cow::Borrowed(raw));
        }
        unescape(raw).map(Cow::Owned).ok_or_else(|| self.error("bad escape before"))
    }

    fn words(&mut self) -> Result<Vec<Word>, String> {
        self.need(b'[')?;
        let mut out = Vec::new();
        while !(out.is_empty() && self.eat(b']')) {
            out.push(if self.peek() == Some(b'"') {
                Word::Str(self.string()?.into_owned())
            } else {
                let Value::U64(v) = self.number()? else {
                    return Err(self.error("array word is not an integer or string before"));
                };
                Word::U64(v)
            });
            if self.eat(b']') {
                break;
            }
            self.need(b',')?;
        }
        Ok(out)
    }
}

/// Undoes the escapes in a string body; `None` on an unknown escape, a
/// malformed `\u`, or a `\u` that names a surrogate.
fn unescape(raw: &str) -> Option<String> {
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        out.push(match chars.next()? {
            c @ ('"' | '\\' | '/') => c,
            'b' => '\u{8}',
            'f' => '\u{c}',
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'u' => {
                let hex =
                    chars.as_str().get(..4).filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))?;
                chars = chars.as_str()[4..].chars();
                char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
            }
            _ => return None,
        });
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn written(f: impl FnOnce(LineWriter<'_>) -> LineWriter<'_>) -> String {
        let mut s = String::new();
        f(line(&mut s)).end();
        s
    }

    #[test]
    fn writer_spells_every_field_kind() {
        let s = written(|w| {
            w.str("k", "a\"b\\c\nd\te\u{1}f𝕏")
                .u64("n", u64::MAX)
                .hex("g", 0xff)
                .f64_bits("b", -0.0)
                .f64_dec("d", 2.5)
                .f64_fixed("x", 1.0, 3)
                .words("p", &[Word::U64(7), Word::Str("a,b]".into())])
        });
        assert_eq!(
            s,
            "{\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001f𝕏\",\"n\":18446744073709551615,\
             \"g\":\"00000000000000ff\",\"b\":9223372036854775808,\"d\":2.5,\"x\":1.000,\
             \"p\":[7,\"a,b]\"]}"
        );
        assert_eq!(written(|w| w), "{}");
        assert_eq!(written(|w| w.words("p", &[])), "{\"p\":[]}");
    }

    #[test]
    fn reader_returns_what_the_writer_wrote() {
        let words = vec![Word::U64(0), Word::Str("q\"\\".into()), Word::U64(u64::MAX)];
        let s = written(|w| {
            w.str("s", "tab\there \u{1f} 𝕏")
                .u64("n", 42)
                .hex("g", 0xdead_beef)
                .f64_bits("b", f64::NAN)
                .f64_dec("d", -0.125)
                .words("p", &words)
        });
        let mut r = read(&s).expect("read");
        assert_eq!(r.str("s"), Ok("tab\there \u{1f} 𝕏"));
        assert_eq!(r.uint("n"), Ok(42u64));
        assert_eq!(r.hex("g"), Ok(0xdead_beef));
        assert_eq!(r.uint("b"), Ok(f64::NAN.to_bits()));
        assert_eq!(r.fields().nth(4), Some(("d", &Value::Dec("-0.125"))));
        assert_eq!(r.take_words("p"), Ok(words));
        // Typed access: absent vs wrong type are different errors.
        assert_eq!(r.opt_uint::<u64>("absent"), Ok(None));
        assert_eq!(r.uint::<u8>("n"), Ok(42));
        assert!(r.uint::<u32>("b").is_err(), "NaN's bit pattern does not fit a u32");
        assert_eq!(r.uint::<u64>("absent"), Err("missing absent".to_owned()));
        assert!(r.uint::<u64>("d").is_err(), "a decimal is not a u64");
        assert!(r.uint::<u64>("s").is_err() && r.str("n").is_err() && r.take_words("n").is_err());
        assert!(r.hex("s").is_err(), "not 16 hex digits");
    }

    #[test]
    fn non_finite_decimals_read_back_as_written() {
        let s = written(|w| {
            w.f64_dec("a", f64::NAN).f64_dec("b", f64::INFINITY).f64_fixed("c", -f64::INFINITY, 3)
        });
        assert_eq!(s, "{\"a\":NaN,\"b\":inf,\"c\":-inf}");
        let r = read(&s).expect("read");
        let decs: Vec<_> = r.fields().map(|(_, v)| v.clone()).collect();
        assert_eq!(decs, [Value::Dec("NaN"), Value::Dec("inf"), Value::Dec("-inf")]);
        assert!(r.uint::<u64>("a").is_err(), "NaN is not an integer");
        for bad in
            ["{\"a\":nan}", "{\"a\":Na}", "{\"a\":infinity}", "{\"a\":+inf}", "{\"a\":[NaN]}"]
        {
            assert!(read(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn opens_with_sees_the_first_key_of_torn_lines_too() {
        assert!(opens_with("{\"repro\":\"spec\",\"se", "repro"));
        assert!(opens_with("{\"repro\":", "repro"));
        for other in
            ["{\"repro\"", "{\"repros\":1}", "{\"ev\":\"x\",\"repro\":1}", " {\"repro\":1}", ""]
        {
            assert!(!opens_with(other, "repro"), "{other:?}");
        }
    }

    #[test]
    fn reader_accepts_every_json_escape_but_no_surrogates() {
        let r = read("{\"s\":\"\\\"\\\\\\/\\b\\f\\n\\r\\t\\u00e9\\uFFFF𝕏\"}").expect("read");
        assert_eq!(r.str("s"), Ok("\"\\/\u{8}\u{c}\n\r\té\u{ffff}𝕏"));
    }

    #[test]
    fn reader_rejects_everything_outside_the_grammar() {
        for bad in [
            "",
            "{",
            "}",
            "{\"a\":1",
            "{\"a\":1}x",
            "{\"a\":1} ",
            " {\"a\":1}",
            "{\"a\": 1}",
            "{\"a\":1,}",
            "{,\"a\":1}",
            "{\"a\":1,\"a\":2}",
            "{\"a\"}",
            "{\"\":1}",
            "{\"a b\":1}",
            "{a:1}",
            "{\"a\":}",
            "{\"a\":true}",
            "{\"a\":null}",
            "{\"a\":{}}",
            "{\"a\":[[1]]}",
            "{\"a\":[1,]}",
            "{\"a\":[1.5]}",
            "{\"a\":[-1]}",
            "{\"a\":[1}",
            "{\"a\":01}",
            "{\"a\":1.5.2}",
            "{\"a\":e}",
            "{\"a\":1e}",
            "{\"a\":-}",
            "{\"a\":[18446744073709551616]}",
            "{\"a\":\"x}",
            "{\"a\":\"\\x\"}",
            "{\"a\":\"\\u12\"}",
            "{\"a\":\"\\u12g4\"}",
            "{\"a\":\"\\ud800\"}",
            "{\"a\":\"\\ud800\\u0041\"}",
            "{\"a\":\"\\ud835\\udd4f\"}",
            "{\"a\":\"\\u00e\"}",
            "{\"a\":\"\\u00é9\"}",
            "{\"a\":\"\\é\"}",
            "{\"a\":\"\\",
            "{\"a\":\"\\udc00\"}",
            "{\"a\":\"raw\u{1}control\"}",
            "{\"a\":\"tab\there\"}",
            "not json at all",
        ] {
            assert!(read(bad).is_err(), "accepted {bad:?}");
        }
        // …while the neighbours inside the grammar read.
        for good in
            ["{}", "{\"a\":0}", "{\"a\":-0}", "{\"a\":1.5e-3}", "{\"a\":[]}", "{\"a\":\"\"}"]
        {
            assert!(read(good).is_ok(), "rejected {good:?}");
        }
        // One past u64::MAX is a float's spelling, never an integer.
        let wide = read("{\"a\":18446744073709551616}").expect("a decimal");
        assert_eq!(wide.uint::<u64>("a"), Err("a is not an unsigned integer".to_owned()));
    }
}
