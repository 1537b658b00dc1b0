//! A minimal, dependency-free JSON value: enough for the line-delimited
//! serve protocol, nothing more.
//!
//! The build environment is offline (no serde), so the protocol layer
//! hand-rolls its wire format on this module: a [`Json`] tree with a
//! strict recursive-descent parser ([`Json::parse`]: depth-limited,
//! full string escapes incl. surrogate pairs, one value per input) and
//! one *deterministic* compact renderer (the `Display` impl, which
//! appends the whole tree into one `String` with no per-node
//! temporaries) — object keys are stored in a `BTreeMap`, so the same
//! value always renders to the same bytes. That determinism is
//! load-bearing: the end-to-end smoke test asserts a cache/store hit
//! renders the byte-identical `result` object a cold run rendered.
//!
//! The hot analyze reply is not built as a tree at all:
//! [`crate::protocol::Reply::to_line_with`] streams it field by field
//! in key order through this module's string escaper and number writer.
//! A property test pins that stream byte-identical to rendering the
//! tree form.
//!
//! Numbers are `f64`; values that must survive above 2^53 (content
//! fingerprints) travel as hex *strings* at the protocol layer.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (IEEE double — see the module docs for the 2^53 caveat).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key-ordered, so rendering is deterministic).
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: byte offset plus a static description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Nesting bound: protocol messages are flat, anything deeper is
/// hostile or broken input, and unbounded recursion is a stack risk on
/// untrusted lines.
const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, what: &'static str) -> Result<T, JsonError> {
        Err(JsonError { at: self.pos, what })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, expected: u8, what: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(expected) {
            self.pos += 1;
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            self.err("invalid literal")
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return self.err("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("unexpected character"),
            None => self.err("unexpected end of input"),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err("invalid number"),
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                _ => return self.err("invalid \\u escape"),
            };
            self.pos += 1;
            v = (v << 4) | d as u16;
        }
        Ok(v)
    }

    /// Advances over a run of plain string characters — a scan to the
    /// next quote, backslash or control byte — and returns it. Those
    /// delimiters are ASCII, so the run ends on a UTF-8 boundary.
    ///
    /// The scan tests eight bytes at a time with the SWAR zero-byte
    /// trick (`(x - 0x01…01) & !x & 0x80…80` flags the lanes of `x`
    /// that are zero; with `0x20…20` subtracted, the lanes below
    /// `0x20`). A borrow can flag a lane above a true hit, never below
    /// one, so the lowest flagged lane is the first delimiter.
    fn plain_run(&mut self) -> &'a str {
        const ONES: u64 = 0x0101_0101_0101_0101;
        const HIGHS: u64 = 0x8080_8080_8080_8080;
        let zero_lanes = |x: u64| x.wrapping_sub(ONES) & !x & HIGHS;
        let start = self.pos;
        let rest = &self.bytes[start..];
        let mut run = 0;
        while let Some(word) = rest.get(run..run + 8) {
            let x = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            let hits = zero_lanes(x ^ (ONES * b'"' as u64))
                | zero_lanes(x ^ (ONES * b'\\' as u64))
                | (x.wrapping_sub(ONES * 0x20) & !x & HIGHS);
            if hits != 0 {
                run += (hits.trailing_zeros() / 8) as usize;
                self.pos = start + run;
                return &self.text[start..self.pos];
            }
            run += 8;
        }
        run += rest[run..]
            .iter()
            .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
            .unwrap_or(rest.len() - run);
        self.pos = start + run;
        &self.text[start..self.pos]
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "expected string")?;
        // An escape-free string — every multi-MiB inline payload — is
        // one scan and one copy.
        let run = self.plain_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(run.to_owned());
        }
        let mut out = String::from(run);
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xd800..0xdc00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return self.err("unpaired surrogate");
                                }
                                self.pos += 1;
                                self.eat(b'u', "unpaired surrogate")?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return self.err("unpaired surrogate");
                                }
                                let code =
                                    0x10000 + (((hi as u32 - 0xd800) << 10) | (lo as u32 - 0xdc00));
                                char::from_u32(code).expect("valid pair")
                            } else {
                                match char::from_u32(hi as u32) {
                                    Some(c) => c,
                                    None => return self.err("unpaired surrogate"),
                                }
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return self.err("invalid escape"),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return self.err("control character in string"),
                Some(_) => out.push_str(self.plain_run()),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "expected object")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected ':'")?;
            let value = self.value(depth + 1)?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

impl Json {
    /// Parses exactly one JSON value (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return p.err("trailing garbage after value");
        }
        Ok(v)
    }

    /// Convenience constructor: a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience constructor: an integer rendered exactly (callers
    /// must stay under 2^53 — larger identifiers travel as hex strings).
    pub fn int(v: u64) -> Json {
        debug_assert!(v < (1 << 53), "integer too large for JSON number");
        Json::Num(v as f64)
    }

    /// Member lookup on an object (`None` on other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
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

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        (v >= 0.0 && v.fract() == 0.0 && v < (1u64 << 53) as f64).then_some(v as u64)
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` as a quoted JSON string: `"`, `\\`, `\n`, `\r`, `\t`
/// get their short escapes, other control characters `\u00XX`, and
/// every run of plain characters is copied in one `push_str`.
pub(crate) fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    // The delimiters are ASCII, so every split lands on a UTF-8 boundary.
    while let Some(at) = rest
        .bytes()
        .position(|c| c == b'"' || c == b'\\' || c < 0x20)
    {
        out.push_str(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            c => {
                let _ = write!(out, "\\u{c:04x}");
            }
        }
        rest = &rest[at + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Appends a number the way [`Json::Num`] renders: integral values under
/// 2^53 without a fractional part, everything else through `f64`'s
/// shortest round-trip `Display`.
pub(crate) fn write_num(out: &mut String, v: f64) {
    let _ = if v.fract() == 0.0 && v.abs() < (1u64 << 53) as f64 {
        write!(out, "{}", v as i64)
    } else {
        write!(out, "{v}")
    };
}

impl Json {
    /// Appends the compact, deterministic rendering (object keys in
    /// `BTreeMap` order) to `out`.
    fn write_to(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl fmt::Display for Json {
    /// Compact, deterministic rendering (object keys in `BTreeMap`
    /// order; integral numbers without a fractional part).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write_to(&mut out);
        f.write_str(&out)
    }
}

/// Builds an object from `(key, value)` pairs.
pub fn obj<const N: usize>(pairs: [(&str, Json); N]) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_is_deterministic() {
        let v = obj([
            ("zeta", Json::int(3)),
            (
                "alpha",
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::str("hi\n\"x\"")]),
            ),
            ("mid", Json::Num(1.5)),
        ]);
        let text = v.to_string();
        assert_eq!(
            text, r#"{"alpha":[null,true,"hi\n\"x\""],"mid":1.5,"zeta":3}"#,
            "keys render sorted, escapes applied"
        );
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn parses_escapes_and_surrogates() {
        let v = Json::parse(r#""aA😀\t""#).unwrap();
        assert_eq!(v.as_str(), Some("aA😀\t"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "unpaired surrogate");
        assert!(Json::parse("\"ab").is_err(), "unterminated");
    }

    #[test]
    fn escapes_after_a_long_plain_run() {
        let plain = "ab😀".repeat(20_000);
        let v = Json::parse(&format!(r#""{plain}\n\"\u00e9/""#)).unwrap();
        assert_eq!(v.as_str(), Some(format!("{plain}\n\"é/").as_str()));
        let v = Json::parse(&format!(r#"["{plain}","{plain}\t"]"#)).unwrap();
        assert_eq!(
            v,
            Json::Arr(vec![Json::str(&plain), Json::str(format!("{plain}\t"))])
        );
        assert!(
            Json::parse(&format!("\"{plain}\\q\"")).is_err(),
            "bad escape"
        );
        assert!(
            Json::parse(&format!("\"{plain}\n\"")).is_err(),
            "raw control byte"
        );
        assert!(Json::parse(&format!("\"{plain}")).is_err(), "unterminated");
    }

    #[test]
    fn escape_into_pins_every_escape_form() {
        let mut out = String::from("x");
        escape_into(&mut out, "a\"b\\c\nd\re\tf\u{1}g\u{1f}hé\u{7f}");
        assert_eq!(out, "x\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\\u001fhé\u{7f}\"");
        out.clear();
        escape_into(&mut out, "");
        assert_eq!(out, r#""""#);
    }

    #[test]
    fn rejects_garbage_and_deep_nesting() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("01e").is_err());
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(Json::parse(&deep).is_err(), "depth limit");
        let ok = format!("{}1{}", "[".repeat(20), "]".repeat(20));
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn numeric_accessors_guard_precision() {
        assert_eq!(Json::parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(Json::parse("1.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-3").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }
}
