//! Minimal JSON writing, a strict reader into a small DOM, and a borrowed
//! decode for the flat string objects request bodies carry.
//!
//! The workspace has no serialization framework, so every
//! machine-readable output — the JSONL trace sink, the CLI's `--json`
//! mode, the bench report, the wire responses — is rendered by hand
//! through [`JsonObject`]. Output is always a single line (no
//! pretty-printing) so it can double as a JSON-lines record.

use std::borrow::Cow;

pub use crate::num::{write_i64, write_u64};
use crate::trace::Value;

/// Append `s` to `out` as a quoted JSON string literal: `"`, `\` and
/// control characters are escaped, everything else is copied as is.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut clean = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0x00..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `clean..i` is on char boundaries.
        out.push_str(&s[clean..i]);
        if escaped.is_empty() {
            const HEX: &[u8; 16] = b"0123456789abcdef";
            out.push_str("\\u00");
            out.push(char::from(HEX[usize::from(b >> 4)]));
            out.push(char::from(HEX[usize::from(b & 0xf)]));
        } else {
            out.push_str(escaped);
        }
        clean = i + 1;
    }
    out.push_str(&s[clean..]);
    out.push('"');
}

/// Append a finite `f64` to `out` as its shortest round-trip decimal, with
/// no exponent and a `.0` on whole numbers so the value stays typed as a
/// float on the reader side; non-finite values become `null` (JSON has no
/// NaN/Infinity).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        crate::num::write_f64(out, v);
    } else {
        out.push_str("null");
    }
}

/// Single-line JSON object builder. Members are appended to one `String`
/// in insertion order; keys are NOT escaped (call sites use literal
/// identifiers).
pub struct JsonObject {
    buf: String,
    /// Whether a member has been written since the opening brace.
    has_members: bool,
}

impl Default for JsonObject {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonObject {
    /// An empty object.
    pub fn new() -> Self {
        Self::continue_in(String::new())
    }

    /// Open an object at the end of `buf`, continuing a caller's buffer:
    /// [`JsonObject::finish`] hands `buf` back with the object appended, so
    /// a pre-sized buffer renders a whole response without reallocating.
    pub fn continue_in(mut buf: String) -> Self {
        buf.push('{');
        Self {
            buf,
            has_members: false,
        }
    }

    fn key(&mut self, key: &str) -> &mut String {
        if self.has_members {
            self.buf.push(',');
        }
        self.has_members = true;
        self.buf.push('"');
        self.buf.push_str(key);
        self.buf.push_str("\":");
        &mut self.buf
    }

    /// Add an unsigned integer member.
    pub fn u64(mut self, key: &str, v: u64) -> Self {
        write_u64(self.key(key), v);
        self
    }

    /// Add a signed integer member.
    pub fn i64(mut self, key: &str, v: i64) -> Self {
        write_i64(self.key(key), v);
        self
    }

    /// Add a float member (`null` when non-finite).
    pub fn f64(mut self, key: &str, v: f64) -> Self {
        write_f64(self.key(key), v);
        self
    }

    /// Add a boolean member.
    pub fn bool(mut self, key: &str, v: bool) -> Self {
        self.key(key).push_str(if v { "true" } else { "false" });
        self
    }

    /// Add a string member (escaped).
    pub fn str(mut self, key: &str, v: &str) -> Self {
        write_str(self.key(key), v);
        self
    }

    /// Add a pre-rendered JSON fragment (nested object/array) verbatim.
    pub fn raw(mut self, key: &str, v: &str) -> Self {
        self.key(key).push_str(v);
        self
    }

    /// Add an array member with one element per item, each written
    /// straight into the buffer by `write` (the commas are the builder's).
    pub fn array<T>(
        mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut write: impl FnMut(&mut String, T),
    ) -> Self {
        let buf = self.key(key);
        buf.push('[');
        for (i, item) in items.into_iter().enumerate() {
            if i > 0 {
                buf.push(',');
            }
            write(buf, item);
        }
        buf.push(']');
        self
    }

    /// Add an array-of-objects member: `fill` adds each element's members
    /// to an object that continues this one's buffer.
    pub fn objects<T>(
        self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut fill: impl FnMut(JsonObject, T) -> JsonObject,
    ) -> Self {
        self.array(key, items, |buf, item| {
            *buf = fill(JsonObject::continue_in(std::mem::take(buf)), item).finish();
        })
    }

    /// Add a trace [`Value`] member with its native JSON type.
    pub fn value(self, key: &str, v: &Value) -> Self {
        match v {
            Value::U64(x) => self.u64(key, *x),
            Value::I64(x) => self.i64(key, *x),
            Value::F64(x) => self.f64(key, *x),
            Value::Bool(x) => self.bool(key, *x),
            Value::Str(x) => self.str(key, x),
        }
    }

    /// Close the object and return the buffer holding it.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

// --- strict reader -------------------------------------------------------
//
// The scanners below read JSON's strings, numbers and literals strictly and
// report the byte offset of the first violation. `Json::parse` walks the
// grammar over them into a DOM; tests (here, in the CLI, and in bench)
// check emitted lines with it.

/// Panic (with context) unless `s` is valid JSON. Test helper.
pub fn assert_parses(s: &str) {
    if let Err(at) = Json::parse(s) {
        panic!("invalid JSON at byte {at}: {s}");
    }
}

/// Offset of the first byte at or after `pos` that is not JSON whitespace.
pub fn skip_ws(text: &str, pos: usize) -> usize {
    ws(text.as_bytes(), pos)
}

fn ws(b: &[u8], mut pos: usize) -> usize {
    while pos < b.len() && matches!(b[pos], b' ' | b'\t' | b'\n' | b'\r') {
        pos += 1;
    }
    pos
}

fn literal(b: &[u8], pos: usize, lit: &[u8]) -> Result<usize, usize> {
    if b[pos..].starts_with(lit) {
        Ok(pos + lit.len())
    } else {
        Err(pos)
    }
}

const ONES: u64 = 0x0101_0101_0101_0101;
const HIGHS: u64 = 0x8080_8080_8080_8080;

/// Flags (high bit of the byte) the bytes of the little-endian word `w`
/// that end a string scan's fast path: `"`, `\` and control bytes below
/// 0x20. The SWAR tests can only flag a byte *above* a true hit wrongly
/// (their borrows run upwards), so the lowest flag is always exact.
fn special_bytes(w: u64) -> u64 {
    let zero = |v: u64| v.wrapping_sub(ONES) & !v & HIGHS;
    let quote = zero(w ^ (ONES * u64::from(b'"')));
    let backslash = zero(w ^ (ONES * u64::from(b'\\')));
    let control = w.wrapping_sub(ONES * 0x20) & !w & HIGHS;
    quote | backslash | control
}

/// Scan the string literal whose opening quote is at `pos`. Returns the
/// offset just past its closing quote and whether it holds an escape, or
/// the offset of the first violation. Words of 8 bytes that hold no `"`,
/// `\` or control byte are skipped whole.
fn scan_string(b: &[u8], mut pos: usize) -> Result<(usize, bool), usize> {
    pos += 1; // opening quote
    let mut escaped = false;
    loop {
        while let Some(word) = b.get(pos..).and_then(<[u8]>::first_chunk::<8>) {
            let special = special_bytes(u64::from_le_bytes(*word));
            if special != 0 {
                pos += (special.trailing_zeros() / 8) as usize;
                break;
            }
            pos += 8;
        }
        match b.get(pos) {
            Some(b'"') => return Ok((pos + 1, escaped)),
            Some(b'\\') => {
                escaped = true;
                pos += 1;
                match b.get(pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 1,
                    Some(b'u') => {
                        for i in 1..=4 {
                            if !b.get(pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(pos + i);
                            }
                        }
                        pos += 5;
                    }
                    _ => return Err(pos),
                }
            }
            Some(0x00..=0x1f) | None => return Err(pos),
            Some(_) => pos += 1,
        }
    }
}

fn number(b: &[u8], mut pos: usize) -> Result<usize, usize> {
    let start = pos;
    if b.get(pos) == Some(&b'-') {
        pos += 1;
    }
    let digits = |b: &[u8], mut pos: usize| -> Result<usize, usize> {
        let start = pos;
        while pos < b.len() && b[pos].is_ascii_digit() {
            pos += 1;
        }
        if pos == start {
            Err(pos)
        } else {
            Ok(pos)
        }
    };
    // JSON forbids leading zeros: "0" alone, or a nonzero first digit.
    match b.get(pos) {
        Some(b'0') => pos += 1,
        Some(b'1'..=b'9') => pos = digits(b, pos)?,
        _ => return Err(pos),
    }
    if b.get(pos) == Some(&b'.') {
        pos = digits(b, pos + 1)?;
    }
    if matches!(b.get(pos), Some(b'e' | b'E')) {
        pos += 1;
        if matches!(b.get(pos), Some(b'+' | b'-')) {
            pos += 1;
        }
        pos = digits(b, pos)?;
    }
    if pos == start {
        Err(pos)
    } else {
        Ok(pos)
    }
}

// --- DOM parser ----------------------------------------------------------
//
// The HTTP server needs to *read* request bodies, not just validate them.
// This is the smallest DOM that supports that: parse once, walk with
// `get`/`as_*`. It accepts exactly the JSON grammar plus a recursion-depth
// cap, because server input is adversarial.

/// Maximum nesting depth [`Json::parse`] accepts. Deeper input is rejected
/// (it would otherwise let a hostile client drive stack growth).
pub const MAX_PARSE_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int/float).
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept; `get` returns
    /// the first).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON value. Returns the byte offset of the first
    /// syntax error (or of the depth-limit violation).
    pub fn parse(s: &str) -> Result<Json, usize> {
        let b = s.as_bytes();
        let mut pos = ws(b, 0);
        let (v, end) = parse_value(b, pos, 0)?;
        pos = ws(b, end);
        if pos == b.len() {
            Ok(v)
        } else {
            Err(pos)
        }
    }

    /// Object member lookup (None for non-objects and absent keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn parse_value(b: &[u8], pos: usize, depth: usize) -> Result<(Json, usize), usize> {
    if depth > MAX_PARSE_DEPTH {
        return Err(pos);
    }
    match b.get(pos) {
        Some(b'{') => parse_object(b, pos, depth),
        Some(b'[') => parse_array(b, pos, depth),
        Some(b'"') => parse_string(b, pos).map(|(s, end)| (Json::Str(s), end)),
        Some(b't') => literal(b, pos, b"true").map(|end| (Json::Bool(true), end)),
        Some(b'f') => literal(b, pos, b"false").map(|end| (Json::Bool(false), end)),
        Some(b'n') => literal(b, pos, b"null").map(|end| (Json::Null, end)),
        Some(b'-' | b'0'..=b'9') => {
            let end = number(b, pos)?;
            let text = std::str::from_utf8(&b[pos..end]).map_err(|_| pos)?;
            let n: f64 = text.parse().map_err(|_| pos)?;
            Ok((Json::Num(n), end))
        }
        _ => Err(pos),
    }
}

/// The decoded string literal at `pos` and the offset past it; a literal
/// that scans but does not decode (a lone surrogate) fails at `pos`.
fn parse_string(b: &[u8], pos: usize) -> Result<(String, usize), usize> {
    let (end, escaped) = scan_string(b, pos)?;
    let raw = std::str::from_utf8(&b[pos + 1..end - 1]).map_err(|_| pos)?;
    let s = if escaped {
        decode_escapes(raw).ok_or(pos)?
    } else {
        raw.to_owned()
    };
    Ok((s, end))
}

fn parse_object(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), usize> {
    let mut members = Vec::new();
    pos = ws(b, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Ok((Json::Obj(members), pos + 1));
    }
    loop {
        if b.get(pos) != Some(&b'"') {
            return Err(pos);
        }
        let (key, key_end) = parse_string(b, pos)?;
        pos = ws(b, key_end);
        if b.get(pos) != Some(&b':') {
            return Err(pos);
        }
        let (v, end) = parse_value(b, ws(b, pos + 1), depth + 1)?;
        members.push((key, v));
        pos = ws(b, end);
        match b.get(pos) {
            Some(b',') => pos = ws(b, pos + 1),
            Some(b'}') => return Ok((Json::Obj(members), pos + 1)),
            _ => return Err(pos),
        }
    }
}

fn parse_array(b: &[u8], mut pos: usize, depth: usize) -> Result<(Json, usize), usize> {
    let mut items = Vec::new();
    pos = ws(b, pos + 1);
    if b.get(pos) == Some(&b']') {
        return Ok((Json::Arr(items), pos + 1));
    }
    loop {
        let (v, end) = parse_value(b, pos, depth + 1)?;
        items.push(v);
        pos = ws(b, end);
        match b.get(pos) {
            Some(b',') => pos = ws(b, pos + 1),
            Some(b']') => return Ok((Json::Arr(items), pos + 1)),
            _ => return Err(pos),
        }
    }
}

/// Decode the escapes inside a scanned JSON string literal (incl.
/// `\uXXXX` surrogate pairs). Returns None on a lone or reversed surrogate.
fn decode_escapes(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{8}'),
            'f' => out.push('\u{c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hi = hex4(&mut chars)?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // High surrogate: a `\uXXXX` low surrogate must follow.
                    if chars.next()? != '\\' || chars.next()? != 'u' {
                        return None;
                    }
                    let lo = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&lo) {
                        return None;
                    }
                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                } else {
                    hi
                };
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some(out)
}

fn hex4(chars: &mut std::str::Chars<'_>) -> Option<u32> {
    let mut v = 0u32;
    for _ in 0..4 {
        v = v * 16 + chars.next()?.to_digit(16)?;
    }
    Some(v)
}

// --- borrowed decode -----------------------------------------------------
//
// Request bodies are almost always the plain shape clients render, e.g.
// `{"r":"…","s":"…"}`: a flat object of string members with plain keys.
// Decoding those through the DOM builds a tree only to copy its strings out
// again. The scan below yields the members in place instead, borrowing
// every value that has no escapes. It never reports an error: anything
// outside the plain shape — including every invalid body — returns `None`,
// and the caller re-reads the body through [`Json::parse`], which alone
// decides syntax offsets and shape errors.

/// Decode the flat object whose `{` is at `pos` when every member value is
/// a string and no key has an escape: calls `member(key, value)` in source
/// order (duplicates included) and returns the offset just past the `}`.
/// `None` when the bytes at `pos` are anything else.
pub fn plain_object<'s>(
    text: &'s str,
    pos: usize,
    mut member: impl FnMut(&'s str, Cow<'s, str>),
) -> Option<usize> {
    let b = text.as_bytes();
    if b.get(pos) != Some(&b'{') {
        return None;
    }
    let mut pos = ws(b, pos + 1);
    if b.get(pos) == Some(&b'}') {
        return Some(pos + 1);
    }
    loop {
        let (Cow::Borrowed(key), end) = str_literal(text, pos)? else {
            return None;
        };
        pos = ws(b, end);
        if b.get(pos) != Some(&b':') {
            return None;
        }
        let (value, end) = str_literal(text, ws(b, pos + 1))?;
        member(key, value);
        pos = ws(b, end);
        match b.get(pos) {
            Some(b',') => pos = ws(b, pos + 1),
            Some(b'}') => return Some(pos + 1),
            _ => return None,
        }
    }
}

/// The decoded string literal at `pos`, borrowed from `text` unless it has
/// escapes, and the offset past it. `None` unless a valid literal is there.
fn str_literal(text: &str, pos: usize) -> Option<(Cow<'_, str>, usize)> {
    let b = text.as_bytes();
    if b.get(pos) != Some(&b'"') {
        return None;
    }
    let (end, escaped) = scan_string(b, pos).ok()?;
    let raw = text.get(pos + 1..end - 1)?;
    let s = if escaped {
        Cow::Owned(decode_escapes(raw)?)
    } else {
        Cow::Borrowed(raw)
    };
    Some((s, end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn builder_renders_all_types() {
        let json = JsonObject::new()
            .u64("u", 7)
            .i64("i", -3)
            .f64("f", 1.5)
            .f64("whole", 2.0)
            .f64("nan", f64::NAN)
            .bool("b", true)
            .str("s", "a\"b\\c\nd")
            .raw("nested", &JsonObject::new().u64("x", 1).finish())
            .array("arr", ["1", "\"two\""], |out, e| out.push_str(e))
            .finish();
        assert_parses(&json);
        assert!(json.contains("\"u\":7"));
        assert!(json.contains("\"i\":-3"));
        assert!(json.contains("\"whole\":2.0"));
        assert!(json.contains("\"nan\":null"));
        assert!(json.contains("\"s\":\"a\\\"b\\\\c\\nd\""));
        assert!(json.contains("\"nested\":{\"x\":1}"));
        assert!(json.contains("\"arr\":[1,\"two\"]"));
    }

    #[test]
    fn empty_object_is_valid() {
        assert_parses(&JsonObject::new().finish());
    }

    #[test]
    fn objects_continue_the_callers_buffer() {
        let mut buf = String::with_capacity(64);
        buf.push_str("prefix:");
        let json = JsonObject::continue_in(buf)
            .objects("items", [1u64, 2], |o, x| o.u64("x", x).str("s", "q"))
            .array("empty", [0u8; 0], |_, _| {})
            .u64("count", 2)
            .finish();
        assert_eq!(
            json,
            r#"prefix:{"items":[{"x":1,"s":"q"},{"x":2,"s":"q"}],"empty":[],"count":2}"#
        );
        assert_parses(&json["prefix:".len()..]);
    }

    #[test]
    fn validator_accepts_json_and_rejects_junk() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"\\u00e9\"",
            "{\"a\":[1,{\"b\":null}],\"c\":false}",
            " { \"k\" : 1 } ",
        ] {
            assert!(Json::parse(good).is_ok(), "{good}");
        }
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "[1,]",
            "01",
            "1.",
            "\"unterminated",
            "{\"a\":1}x",
            "nul",
            "\"bad\\q\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn escape_handles_control_chars() {
        let esc = |s: &str| {
            let mut out = String::new();
            write_str(&mut out, s);
            out
        };
        assert_eq!(esc("\u{1}"), "\"\\u0001\"");
        assert_eq!(esc("plain"), "\"plain\"");
        assert_eq!(
            esc("a\"b\\c\n\r\t\u{1f}é\u{7f}"),
            "\"a\\\"b\\\\c\\n\\r\\t\\u001fé\u{7f}\""
        );
        assert_eq!(esc(""), "\"\"");
    }

    #[test]
    fn write_f64_keeps_floats_typed() {
        let f = |v: f64| {
            let mut out = String::from("x");
            write_f64(&mut out, v);
            out
        };
        assert_eq!(f(2.0), "x2.0");
        assert_eq!(f(-0.0), "x-0.0");
        assert_eq!(f(-1.25), "x-1.25");
        assert_eq!(f(1e21), "x1000000000000000000000.0");
        assert_eq!(f(f64::INFINITY), "xnull");
    }

    #[test]
    fn dom_parses_what_builder_writes() {
        let rendered = JsonObject::new()
            .str("r", "line1|line2")
            .f64("score", -1.25)
            .bool("ok", true)
            .array("arr", ["1", "\"two\""], |out, e| out.push_str(e))
            .raw("nested", &JsonObject::new().u64("x", 3).finish())
            .finish();
        let v = Json::parse(&rendered).expect("round trip");
        assert_eq!(v.get("r").and_then(Json::as_str), Some("line1|line2"));
        assert_eq!(v.get("score").and_then(Json::as_f64), Some(-1.25));
        assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        let arr = v.get("arr").and_then(Json::as_array).unwrap();
        assert_eq!(arr, &[Json::Num(1.0), Json::Str("two".into())]);
        assert_eq!(
            v.get("nested")
                .and_then(|n| n.get("x"))
                .and_then(Json::as_f64),
            Some(3.0)
        );
        assert_eq!(v.get("absent"), None);
    }

    #[test]
    fn dom_decodes_escapes_and_surrogates() {
        let v = Json::parse(r#""a\"b\\c\n\té😀""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\n\té😀"));
        // Lone high surrogate is rejected.
        assert!(Json::parse(r#""\ud83d""#).is_err());
    }

    #[test]
    fn dom_rejects_what_validator_rejects() {
        for bad in ["", "{", "{\"a\":1,}", "[1,]", "01", "nul", "{\"a\":1}x"] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn dom_depth_limit_bounds_recursion() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(10) + "1" + &"]".repeat(10);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn plain_object_borrows_plain_values_and_refuses_the_rest() {
        let members = |s: &str| {
            let mut got = Vec::new();
            let end = plain_object(s, 0, |k, v| {
                got.push((k.to_owned(), v.into_owned()));
            });
            end.map(|e| (e, got))
        };
        let (end, got) = members(r#"{ "r" : "a|b" , "s":"c\"d" }tail"#).unwrap();
        assert_eq!(end, r#"{ "r" : "a|b" , "s":"c\"d" }"#.len());
        assert_eq!(
            got,
            [("r".into(), "a|b".into()), ("s".into(), "c\"d".into())]
        );
        assert_eq!(members("{}").unwrap().0, 2);
        let mut borrowed = 0;
        plain_object(r#"{"r":"plain","s":"esc\n"}"#, 0, |_, v| {
            borrowed += usize::from(matches!(v, Cow::Borrowed(_)));
        });
        assert_eq!(borrowed, 1);
        for other in [
            r#"{"r":1}"#,
            r#"{"r":["a"]}"#,
            r#"{"\u0072":"a"}"#,
            r#"{"r":"a",}"#,
            r#"{"r":"\ud83d"}"#,
            r#"{"r":"a""#,
            r#"["r"]"#,
            "",
        ] {
            assert!(members(other).is_none(), "{other}");
        }
    }

    /// The string scanner as it was before the word skip, byte at a time
    /// (end offset or error offset only).
    fn byte_scanner(b: &[u8], mut pos: usize) -> Result<usize, usize> {
        pos += 1; // opening quote
        while let Some(&c) = b.get(pos) {
            match c {
                b'"' => return Ok(pos + 1),
                b'\\' => {
                    pos += 1;
                    match b.get(pos) {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => pos += 1,
                        Some(b'u') => {
                            for i in 1..=4 {
                                if !b.get(pos + i).is_some_and(u8::is_ascii_hexdigit) {
                                    return Err(pos + i);
                                }
                            }
                            pos += 5;
                        }
                        _ => return Err(pos),
                    }
                }
                0x00..=0x1f => return Err(pos),
                _ => pos += 1,
            }
        }
        Err(pos)
    }

    /// Byte sequences that end, escape or merely decorate a string scan.
    const TOKENS: &[&[u8]] = &[
        b"\"",
        b"\\",
        b"\\\"",
        b"\\\\",
        b"\\/",
        b"\\n",
        b"\\q",
        b"\\u00e9",
        b"\\uD83D\\uDE00",
        b"\\u12",
        b"\\u12g4",
        b"\x00",
        b"\x01",
        b"\x1f",
        b" ",
        b"\x7f",
        b"\x80",
        b"\xff",
        "é".as_bytes(),
        "中".as_bytes(),
        "😀".as_bytes(),
        "\u{2028}".as_bytes(),
        b"!",
        b"a",
    ];

    /// Both scanners agree on `body` (the literal starting at `start`), and
    /// the word scanner's escape flag says whether a `\` precedes the end.
    fn assert_scanners_agree(body: &[u8], start: usize) {
        let got = scan_string(body, start);
        let want = byte_scanner(body, start);
        assert_eq!(
            got.map(|(end, _)| end),
            want,
            "{:?}",
            String::from_utf8_lossy(body)
        );
        if let Ok((end, escaped)) = got {
            assert_eq!(escaped, body[start..end].contains(&b'\\'));
        }
    }

    #[test]
    fn word_scanner_matches_byte_scanner_at_every_offset() {
        for lead in 0..8 {
            for len in 0..=26 {
                for at in 0..=len {
                    for tok in TOKENS {
                        let mut body = vec![b'#'; lead];
                        body.push(b'"');
                        body.extend(std::iter::repeat(b'x').take(at));
                        body.extend_from_slice(tok);
                        body.extend(std::iter::repeat(b'y').take(len - at));
                        assert_scanners_agree(&body, lead);
                        body.push(b'"');
                        assert_scanners_agree(&body, lead);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn word_scanner_matches_byte_scanner(
            picks in prop::collection::vec(0usize..64, 0..48),
            lead in 0usize..8,
        ) {
            let mut body = vec![b' '; lead];
            body.push(b'"');
            for p in &picks {
                // Mostly plain filler so long clean runs reach the word skip.
                match TOKENS.get(*p) {
                    Some(tok) => body.extend_from_slice(tok),
                    None => body.extend_from_slice(b"plain tex"),
                }
            }
            body.push(b'"');
            for cut in lead + 1..=body.len() {
                assert_scanners_agree(&body[..cut], lead);
            }
        }
    }
}
