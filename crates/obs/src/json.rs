//! Minimal, serde-free JSON helpers.
//!
//! The observability exporters emit JSON (JSONL metric dumps, Chrome
//! `trace_event` files) without pulling a serialization framework into
//! the dependency graph. This module provides the two halves they need:
//! string escaping for the writers, and a small validating parser so
//! tests can check round-trip well-formedness of everything exported.

use std::fmt::Write as _;

/// Appends `s` to `out` as a JSON string literal (quotes included).
pub fn write_escaped(out: &mut String, s: &str) {
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

/// A JSON string literal for `s` (convenience over [`write_escaped`]).
#[must_use]
pub fn escaped(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
}

/// A malformed-JSON report from [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the offending character.
    pub at: usize,
    /// What the parser expected or found.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON document node, produced by [`parse`].
///
/// Kept deliberately small: numbers are `f64` (every value the BENCH
/// exporters emit — wall-clock milliseconds, counters, ratios — is
/// exactly representable below 2^53), and objects preserve insertion
/// order so delta reports list fields in the order the profile wrote
/// them.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Number(f64),
    /// A string literal, unescaped.
    String(String),
    /// An array of values.
    Array(Vec<JsonValue>),
    /// An object as an ordered key/value list.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up `key` in an object; `None` for other variants or
    /// missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this node is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this node is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The object fields, if this node is an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(fields) => Some(fields),
            _ => None,
        }
    }

    /// The array elements, if this node is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses `input` into a [`JsonValue`] tree.
///
/// The building counterpart of [`validate`]: same grammar, same error
/// reporting, used where a consumer actually needs the document (e.g.
/// the `bench_compare` regression gate reading BENCH profiles).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first violation.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    let v = parse_value(input, bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after value"));
    }
    Ok(v)
}

fn parse_value(input: &str, bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            skip_ws(bytes, pos);
            let mut fields = Vec::new();
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Object(fields));
            }
            loop {
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b'"') {
                    return Err(err(*pos, "expected object key"));
                }
                let key = parse_string(input, bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(err(*pos, "expected ':' after key"));
                }
                *pos += 1;
                skip_ws(bytes, pos);
                let v = parse_value(input, bytes, pos)?;
                fields.push((key, v));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Object(fields));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            skip_ws(bytes, pos);
            let mut items = Vec::new();
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Array(items));
            }
            loop {
                skip_ws(bytes, pos);
                items.push(parse_value(input, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Array(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'"') => parse_string(input, bytes, pos).map(JsonValue::String),
        Some(b't') => literal(bytes, pos, b"true").map(|()| JsonValue::Bool(true)),
        Some(b'f') => literal(bytes, pos, b"false").map(|()| JsonValue::Bool(false)),
        Some(b'n') => literal(bytes, pos, b"null").map(|()| JsonValue::Null),
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            number(bytes, pos)?;
            input[start..*pos]
                .parse::<f64>()
                .map(JsonValue::Number)
                .map_err(|_| err(start, "number out of range"))
        }
        Some(_) => Err(err(*pos, "expected a JSON value")),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn parse_string(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    let start = *pos;
    string(bytes, pos)?;
    let raw = &input[start + 1..*pos - 1];
    if !raw.contains('\\') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut chars = raw.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\\') => out.push('\\'),
            Some('/') => out.push('/'),
            Some('b') => out.push('\u{8}'),
            Some('f') => out.push('\u{c}'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('u') => {
                let hex: String = chars.by_ref().take(4).collect();
                let code = u32::from_str_radix(&hex, 16)
                    .map_err(|_| err(start, "malformed \\u escape"))?;
                // Surrogates are not paired here; exporters never emit
                // them, so map unpaired halves to the replacement char.
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(err(start, "invalid escape")),
        }
    }
    Ok(out)
}

/// Checks that `input` is one well-formed JSON value.
///
/// A recursive-descent validator covering the full grammar the
/// exporters use (objects, arrays, strings with escapes, numbers,
/// booleans, null). It does **not** build a document — it only accepts
/// or rejects — which keeps it dependency-free and O(n).
///
/// # Errors
///
/// Returns a [`JsonError`] locating the first violation.
pub fn validate(input: &str) -> Result<(), JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(err(pos, "trailing content after value"));
    }
    Ok(())
}

/// Checks that every non-empty line of `input` is well-formed JSON
/// (the JSONL framing used by the metrics exporter).
///
/// # Errors
///
/// Returns the first offending line's [`JsonError`] (offsets are
/// line-relative).
pub fn validate_jsonl(input: &str) -> Result<(), JsonError> {
    for line in input.lines() {
        if !line.trim().is_empty() {
            validate(line)?;
        }
    }
    Ok(())
}

fn err(at: usize, message: &str) -> JsonError {
    JsonError {
        at,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while let Some(b) = bytes.get(*pos) {
        if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        } else {
            break;
        }
    }
}

fn value(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    match bytes.get(*pos) {
        Some(b'{') => object(bytes, pos),
        Some(b'[') => array(bytes, pos),
        Some(b'"') => string(bytes, pos),
        Some(b't') => literal(bytes, pos, b"true"),
        Some(b'f') => literal(bytes, pos, b"false"),
        Some(b'n') => literal(bytes, pos, b"null"),
        Some(b'-' | b'0'..=b'9') => number(bytes, pos),
        Some(_) => Err(err(*pos, "expected a JSON value")),
        None => Err(err(*pos, "unexpected end of input")),
    }
}

fn literal(bytes: &[u8], pos: &mut usize, expected: &[u8]) -> Result<(), JsonError> {
    if bytes[*pos..].starts_with(expected) {
        *pos += expected.len();
        Ok(())
    } else {
        Err(err(*pos, "malformed literal"))
    }
}

fn object(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    *pos += 1; // consume '{'
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(*pos, "expected object key"));
        }
        string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(*pos, "expected ':' after key"));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or '}' in object")),
        }
    }
}

fn array(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    *pos += 1; // consume '['
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        value(bytes, pos)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(err(*pos, "expected ',' or ']' in array")),
        }
    }
}

fn string(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    *pos += 1; // consume '"'
    while let Some(&b) = bytes.get(*pos) {
        match b {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes.get(*pos).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(err(*pos, "malformed \\u escape"));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
            }
            0x00..=0x1f => return Err(err(*pos, "unescaped control character")),
            _ => *pos += 1,
        }
    }
    Err(err(*pos, "unterminated string"))
}

fn number(bytes: &[u8], pos: &mut usize) -> Result<(), JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(err(start, "expected digits"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(err(*pos, "expected fraction digits"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(err(*pos, "expected exponent digits"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_specials() {
        assert_eq!(escaped("a\"b"), r#""a\"b""#);
        assert_eq!(escaped("a\\b"), r#""a\\b""#);
        assert_eq!(escaped("a\nb"), r#""a\nb""#);
        assert_eq!(escaped("\u{1}"), "\"\\u0001\"");
        assert_eq!(escaped("plain"), r#""plain""#);
    }

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "null",
            "true",
            "-12.5e3",
            r#"{"a": [1, 2, {"b": "c\n"}], "d": null}"#,
            r#"  [ "x" , -0.5 , false ]  "#,
            r#""é""#,
        ] {
            assert!(validate(doc).is_ok(), "{doc}");
        }
    }

    #[test]
    fn rejects_invalid_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} extra",
            "01x",
            r#""bad \q escape""#,
        ] {
            assert!(validate(doc).is_err(), "{doc:?} should be rejected");
        }
    }

    #[test]
    fn jsonl_checks_each_line() {
        assert!(validate_jsonl("{\"a\":1}\n{\"b\":2}\n").is_ok());
        assert!(validate_jsonl("{\"a\":1}\nnot json\n").is_err());
        assert!(validate_jsonl("\n\n").is_ok());
    }

    #[test]
    fn parses_documents() {
        let doc = r#"{"a": [1, -2.5, true], "b": {"c": "x\ny"}, "d": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                JsonValue::Number(1.0),
                JsonValue::Number(-2.5),
                JsonValue::Bool(true)
            ]
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("d"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert!(parse("[1,]").is_err());
        assert!(parse("{} extra").is_err());
    }

    #[test]
    fn parse_object_preserves_order() {
        let v = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn parse_unescapes_strings() {
        let v = parse(r#""q\" s\\ uA""#).unwrap();
        assert_eq!(v.as_str(), Some("q\" s\\ uA"));
    }

    #[test]
    fn roundtrip_escaped_strings_validate() {
        let s = "quote\" slash\\ newline\n tab\t ctrl\u{2} unicode é";
        assert!(validate(&escaped(s)).is_ok());
    }
}
