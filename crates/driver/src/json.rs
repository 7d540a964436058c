//! A tiny JSON emitter and parser for the `--json` CLI output and the run
//! ledger.
//!
//! The build environment has no serialization crates, so this module provides
//! just enough: string escaping, a builder for objects/arrays that keeps the
//! punctuation straight, and a recursive-descent [`Value`] parser for reading
//! ledger records back (`ids-verify compare` / `history`). Output is compact
//! (no pretty-printing) and emitted in insertion order.

use std::fmt::Write as _;

/// Escapes a string for inclusion in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends [`escape`]`(s)` to `out`.
fn escape_into(out: &mut String, s: &str) {
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
}

/// An append-only JSON document builder.
///
/// # Example
/// ```
/// use ids_driver::json::Json;
/// let mut j = Json::new();
/// j.begin_object();
/// j.str_field("name", "sorted list");
/// j.num_field("vcs", 12.0);
/// j.bool_field("verified", true);
/// j.end_object();
/// assert_eq!(j.finish(), r#"{"name":"sorted list","vcs":12,"verified":true}"#);
/// ```
#[derive(Debug, Default)]
pub struct Json {
    buf: String,
    need_comma: Vec<bool>,
}

impl Json {
    /// Creates an empty document.
    pub fn new() -> Json {
        Json::default()
    }

    fn pre_value(&mut self) {
        if let Some(need) = self.need_comma.last_mut() {
            if *need {
                self.buf.push(',');
            }
            *need = true;
        }
    }

    /// Opens an object value (`{`).
    pub fn begin_object(&mut self) {
        self.pre_value();
        self.buf.push('{');
        self.need_comma.push(false);
    }

    /// Closes the innermost object (`}`).
    pub fn end_object(&mut self) {
        self.need_comma.pop();
        self.buf.push('}');
    }

    /// Opens an array value (`[`).
    pub fn begin_array(&mut self) {
        self.pre_value();
        self.buf.push('[');
        self.need_comma.push(false);
    }

    /// Closes the innermost array (`]`).
    pub fn end_array(&mut self) {
        self.need_comma.pop();
        self.buf.push(']');
    }

    /// Emits the key of a field; must be followed by exactly one value.
    pub fn key(&mut self, name: &str) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, name);
        self.buf.push_str("\":");
        // The field's value follows directly, without a comma.
        if let Some(need) = self.need_comma.last_mut() {
            *need = false;
        }
    }

    /// Emits a string value.
    pub fn str_value(&mut self, v: &str) {
        self.pre_value();
        self.buf.push('"');
        escape_into(&mut self.buf, v);
        self.buf.push('"');
    }

    /// Emits a numeric value (integers are printed without a fraction).
    pub fn num_value(&mut self, v: f64) {
        self.pre_value();
        if v.fract() == 0.0 && v.abs() < 1e15 {
            let _ = write!(self.buf, "{}", v as i64);
        } else {
            let _ = write!(self.buf, "{}", v);
        }
    }

    /// Emits a boolean value.
    pub fn bool_value(&mut self, v: bool) {
        self.pre_value();
        self.buf.push_str(if v { "true" } else { "false" });
    }

    /// Shorthand for a string field.
    pub fn str_field(&mut self, name: &str, v: &str) {
        self.key(name);
        self.str_value(v);
    }

    /// Shorthand for a numeric field.
    pub fn num_field(&mut self, name: &str, v: f64) {
        self.key(name);
        self.num_value(v);
    }

    /// A field holding a `u128` as a string of 32 lower-case hex digits (a
    /// VC key).
    pub fn hex_field(&mut self, name: &str, v: u128) {
        self.key(name);
        self.pre_value();
        let _ = write!(self.buf, "\"{:032x}\"", v);
    }

    /// Shorthand for a boolean field.
    pub fn bool_field(&mut self, name: &str, v: bool) {
        self.key(name);
        self.bool_value(v);
    }

    /// Returns the document.
    pub fn finish(self) -> String {
        self.buf
    }
}

// -------------------------------------------------------------------- parser

/// A parsed JSON value. Objects keep insertion order (the emitter half of
/// this module writes them that way, and ledger diffs read nicer when field
/// order is stable).
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (stored as `f64`; the ledger keeps 128-bit keys as hex
    /// strings precisely because JSON numbers are doubles).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, in source order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Parses one complete JSON document (trailing whitespace allowed).
    pub fn parse(s: &str) -> Result<Value, String> {
        let mut p = Parser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer (truncating), if a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n.max(0.0) as u64)
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            match b {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                _ => break,
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the high half must be
                                // immediately followed by a \uXXXX low half in
                                // 0xDC00..0xE000. Anything else (lone high,
                                // mismatched pair) is a parse error, never a
                                // garbage code point.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if (0xDC00..0xE000).contains(&lo) {
                                        let combined =
                                            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                        char::from_u32(combined)
                                    } else {
                                        None
                                    }
                                } else {
                                    None
                                }
                            } else {
                                // from_u32 rejects lone low surrogates
                                // (0xDC00..0xE000) on its own.
                                char::from_u32(hi)
                            };
                            out.push(c.ok_or_else(|| "invalid \\u escape".to_string())?);
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos - 1)),
                    }
                }
                Some(_) => {
                    // Consume the run of plain characters up to the next
                    // quote or escape. Both are ASCII, so the run ends on a
                    // character boundary of the (valid UTF-8) input.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".to_string());
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..end]).map_err(|e| e.to_string())?;
        let v = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            match b {
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9' => self.pos += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping() {
        assert_eq!(escape(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape("line\nbreak\ttab"), "line\\nbreak\\ttab");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn nested_structures() {
        let mut j = Json::new();
        j.begin_object();
        j.key("rows");
        j.begin_array();
        for i in 0..2 {
            j.begin_object();
            j.num_field("i", f64::from(i));
            j.end_object();
        }
        j.end_array();
        j.str_field("status", "ok");
        j.end_object();
        assert_eq!(j.finish(), r#"{"rows":[{"i":0},{"i":1}],"status":"ok"}"#);
    }

    #[test]
    fn float_formatting() {
        let mut j = Json::new();
        j.begin_array();
        j.num_value(1.5);
        j.num_value(3.0);
        j.end_array();
        assert_eq!(j.finish(), "[1.5,3]");
    }

    #[test]
    fn parser_round_trips_emitter_output() {
        let mut j = Json::new();
        j.begin_object();
        j.str_field("name", "a\"b\\c\nd");
        j.num_field("n", 1.5);
        j.num_field("i", 42.0);
        j.bool_field("ok", true);
        j.key("items");
        j.begin_array();
        j.num_value(1.0);
        j.str_value("two");
        j.end_array();
        j.end_object();
        let text = j.finish();
        let v = Value::parse(&text).unwrap();
        assert_eq!(v.get("name").and_then(Value::as_str), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").and_then(Value::as_f64), Some(1.5));
        assert_eq!(v.get("i").and_then(Value::as_u64), Some(42));
        assert_eq!(v.get("ok").and_then(Value::as_bool), Some(true));
        let items = v.get("items").and_then(Value::as_array).unwrap();
        assert_eq!(items.len(), 2);
        assert_eq!(items[1].as_str(), Some("two"));
    }

    #[test]
    fn parser_handles_edges_and_rejects_garbage() {
        assert_eq!(Value::parse(" null ").unwrap(), Value::Null);
        assert_eq!(Value::parse("[]").unwrap(), Value::Array(vec![]));
        assert_eq!(Value::parse("{}").unwrap(), Value::Object(vec![]));
        assert_eq!(Value::parse("-1.5e3").unwrap(), Value::Num(-1500.0));
        assert_eq!(
            Value::parse(r#""Aé""#).unwrap(),
            Value::Str("Aé".to_string())
        );
        // Escaped surrogate pair (U+1F600) and a BMP escape.
        assert_eq!(
            Value::parse("\"\\uD83D\\uDE00 \\u00e9\"").unwrap(),
            Value::Str("😀 é".to_string())
        );
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{\"a\":1} extra").is_err());
        assert!(Value::parse("nul").is_err());
    }

    #[test]
    fn malformed_unicode_escapes_are_rejected() {
        // Lone high surrogate: end of string, plain text, or a non-\u escape
        // where the low half should be.
        assert!(Value::parse("\"\\uD83D\"").is_err());
        assert!(Value::parse("\"\\uD83Dx\"").is_err());
        assert!(Value::parse("\"\\uD83D\\n\"").is_err());
        // Lone low surrogate.
        assert!(Value::parse("\"\\uDE00\"").is_err());
        // Mismatched pair: second escape is not a low surrogate. The old
        // decoder masked this into an unrelated code point.
        assert!(Value::parse("\"\\uD83D\\u0041\"").is_err());
        // High surrogate followed by another high surrogate.
        assert!(Value::parse("\"\\uD83D\\uD83D\"").is_err());
        // Truncated escapes: fewer than four hex digits before the quote or
        // end of input.
        assert!(Value::parse("\"\\u00\"").is_err());
        assert!(Value::parse("\"\\u").is_err());
        assert!(Value::parse("\"\\uD83D\\uDE\"").is_err());
        // Non-hex digits in the escape body.
        assert!(Value::parse("\"\\uZZZZ\"").is_err());
        // Well-formed neighbours still parse.
        assert_eq!(
            Value::parse("\"\\uD83D\\uDE00\"").unwrap(),
            Value::Str("😀".to_string())
        );
        assert_eq!(
            Value::parse("\"\\uFFFD\"").unwrap(),
            Value::Str("\u{FFFD}".to_string())
        );
    }
}
