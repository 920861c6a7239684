//! A minimal JSON tree, writer and parser.
//!
//! The exporters ([`crate::perfetto`], [`crate::metrics`]) need to produce
//! and round-trip plain JSON without pulling a serialization framework into
//! the simulator's dependency closure. This module implements exactly the
//! subset the dumps use: objects (insertion-ordered), arrays, strings with
//! escape handling, finite numbers, booleans and null.
//!
//! # Examples
//!
//! ```
//! use dm_sim::json::JsonValue;
//!
//! let v = JsonValue::object([
//!     ("name".into(), JsonValue::from("fig7")),
//!     ("cycles".into(), JsonValue::from(128u64)),
//! ]);
//! let text = v.to_json();
//! assert_eq!(text, r#"{"name":"fig7","cycles":128}"#);
//! let back = JsonValue::parse(&text).unwrap();
//! assert_eq!(back, v);
//! ```

use std::fmt::Write as _;

/// A parsed or constructed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any finite number (integers are printed without a fraction).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; key order is preserved (insertion order).
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> Self {
        JsonValue::Bool(v)
    }
}

impl From<f64> for JsonValue {
    fn from(v: f64) -> Self {
        JsonValue::Number(v)
    }
}

impl From<u64> for JsonValue {
    fn from(v: u64) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<usize> for JsonValue {
    fn from(v: usize) -> Self {
        JsonValue::Number(v as f64)
    }
}

impl From<&str> for JsonValue {
    fn from(v: &str) -> Self {
        JsonValue::String(v.to_owned())
    }
}

impl From<String> for JsonValue {
    fn from(v: String) -> Self {
        JsonValue::String(v)
    }
}

impl JsonValue {
    /// Builds an object from key/value pairs.
    #[must_use]
    pub fn object(pairs: impl IntoIterator<Item = (String, JsonValue)>) -> Self {
        JsonValue::Object(pairs.into_iter().collect())
    }

    /// Looks up a key in an object; `None` for other variants or missing
    /// keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a path of object keys; `None` if any key is missing.
    #[must_use]
    pub fn at(&self, path: &[&str]) -> Option<&JsonValue> {
        path.iter().try_fold(self, |value, key| value.get(key))
    }

    /// The unsigned integer at `path`, or 0 when it is absent or not one.
    #[must_use]
    pub fn u64_at(&self, path: &[&str]) -> u64 {
        self.at(path).and_then(JsonValue::as_u64).unwrap_or(0)
    }

    /// The number at `path`, or 0.0 when it is absent or not a number.
    #[must_use]
    pub fn f64_at(&self, path: &[&str]) -> f64 {
        self.at(path).and_then(JsonValue::as_f64).unwrap_or(0.0)
    }

    /// The string at `path`, or `""` when it is absent or not a string.
    #[must_use]
    pub fn str_at(&self, path: &[&str]) -> &str {
        self.at(path).and_then(JsonValue::as_str).unwrap_or("")
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric value as an unsigned integer, if it is one exactly.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Serializes to compact JSON text.
    ///
    /// # Panics
    ///
    /// Panics on non-finite numbers; the simulator never records NaN or
    /// infinite metrics (see [`crate::stats::Distribution::record`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) => {
                assert!(n.is_finite(), "non-finite number in JSON output");
                // Integers (the common case: cycle counts) print without a
                // fraction; everything else uses shortest-roundtrip form.
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n:?}");
                }
            }
            JsonValue::String(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] with a byte offset on malformed input or
    /// trailing garbage.
    pub fn parse(text: &str) -> Result<JsonValue, JsonError> {
        let mut parser = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        parser.skip_ws();
        let value = parser.value()?;
        parser.skip_ws();
        if parser.pos != parser.bytes.len() {
            return Err(parser.err("trailing characters"));
        }
        Ok(value)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: &'static str,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            message,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn literal(&mut self, text: &str) -> bool {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonError> {
        match self.peek() {
            Some(b'n') if self.literal("null") => Ok(JsonValue::Null),
            Some(b't') if self.literal("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.literal("false") => Ok(JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<JsonValue, JsonError> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\') {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("invalid UTF-8 in string"))?,
            );
            match self.peek() {
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
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogate pairs are not needed by the dumps;
                            // reject rather than mis-decode.
                            let c =
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_nested_values() {
        let v = JsonValue::object([
            ("s".into(), JsonValue::from("a \"quoted\"\nline")),
            ("n".into(), JsonValue::from(0.125f64)),
            ("i".into(), JsonValue::from(1u64 << 40)),
            ("neg".into(), JsonValue::Number(-3.0)),
            (
                "arr".into(),
                JsonValue::Array(vec![JsonValue::Null, JsonValue::Bool(true)]),
            ),
            ("obj".into(), JsonValue::object([])),
        ]);
        let text = v.to_json();
        assert_eq!(JsonValue::parse(&text).unwrap(), v);
    }

    #[test]
    fn path_reader_walks_objects_and_defaults_when_absent() {
        let v = JsonValue::parse(r#"{"a":{"b":7,"f":0.5,"s":"x"},"n":null}"#).unwrap();
        assert_eq!(v.at(&[]), Some(&v));
        assert_eq!(v.u64_at(&["a", "b"]), 7);
        assert_eq!(v.f64_at(&["a", "f"]), 0.5);
        assert_eq!(v.str_at(&["a", "s"]), "x");
        assert!(v.at(&["a", "missing"]).is_none());
        assert_eq!(v.u64_at(&["a", "f"]), 0, "non-integers read as 0");
        assert_eq!(v.str_at(&["n", "deeper"]), "");
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(JsonValue::from(42u64).to_json(), "42");
        assert_eq!(JsonValue::Number(-7.0).to_json(), "-7");
        assert_eq!(JsonValue::from(0.5f64).to_json(), "0.5");
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = JsonValue::parse(" { \"a\" : [ 1 , 2.5 ] , \"b\\u0041\" : \"x\\ty\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("bA").unwrap().as_str(), Some("x\ty"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonValue::parse("{").is_err());
        assert!(JsonValue::parse("[1,]").is_err());
        assert!(JsonValue::parse("1 2").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
    }

    #[test]
    fn accessors_select_variants() {
        let v = JsonValue::parse(r#"{"n": 3, "s": "x"}"#).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(3.0));
        assert!(v.get("s").unwrap().as_u64().is_none());
        assert!(v.get("missing").is_none());
        assert!(v.as_object().is_some());
    }
}
