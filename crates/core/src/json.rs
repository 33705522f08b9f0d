//! Minimal JSON reading/writing used across the workspace (CLI instance
//! files, bench harness output). A small hand-rolled module keeps the
//! workspace free of external dependencies; the wire format for [`Instance`]
//! and [`Schedule`] matches what a field-for-field derive would emit
//! (`{"times":[...],"machines":m}`), so files written by earlier versions
//! keep loading.
//!
//! [`Instance`]: crate::Instance
//! [`Schedule`]: crate::Schedule

use crate::{Error, Result};
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Non-negative integer (the common case for times/counts).
    UInt(u64),
    /// Negative integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// String.
    Str(String),
    /// Array.
    Array(Vec<Value>),
    /// Object, in insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::UInt(v) => Some(v),
            Value::Int(v) if v >= 0 => Some(v as u64),
            Value::Float(v) if v >= 0.0 && v.fract() == 0.0 && v <= u64::MAX as f64 => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::UInt(v) => Some(v as f64),
            Value::Int(v) => Some(v as f64),
            Value::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Compact rendering.
    pub fn to_string_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Float(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => write_escaped(out, s),
            Value::Array(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i| {
                    items[i].write(out, indent, depth + 1);
                })
            }
            Value::Object(members) => {
                write_seq(out, indent, depth, '{', '}', members.len(), |out, i| {
                    let (k, v) = &members[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                })
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(width) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', width * (depth + 1)));
        }
        item(out, i);
    }
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
    out.push(close);
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

/// Types that can render themselves to JSON.
pub trait ToJson {
    /// Builds the JSON tree for `self`.
    fn to_json(&self) -> Value;
}

/// Types that can be reconstructed from JSON.
pub trait FromJson: Sized {
    /// Parses `self` out of a JSON tree.
    fn from_json(v: &Value) -> Result<Self>;
}

/// Serializes to a compact string.
pub fn to_string<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_compact()
}

/// Serializes to a pretty, human-diffable string.
pub fn to_string_pretty<T: ToJson>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Parses a `T` from JSON text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T> {
    T::from_json(&parse(text)?)
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a cap one frame of `[`s overflows the stack
/// of whatever thread parses it; no document this crate writes comes
/// close.
pub const MAX_DEPTH: usize = 128;

/// Parses JSON text into a [`Value`] tree. Nesting deeper than
/// [`MAX_DEPTH`] is malformed input like any other.
pub fn parse(text: &str) -> Result<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(bad(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn bad(msg: impl Into<String>) -> Error {
    Error::BadModel(format!("json: {}", msg.into()))
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<()> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(bad(format!("expected '{}' at byte {}", c as char, *pos)))
    }
}

/// Parses one value; `depth` is how many more arrays/objects may open.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(bad("unexpected end of input")),
        Some(b'{' | b'[') if depth == 0 => Err(bad(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        ))),
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Object(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth - 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Object(members));
                    }
                    _ => return Err(bad(format!("expected ',' or '}}' at byte {}", *pos))),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth - 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Array(items));
                    }
                    _ => return Err(bad(format!("expected ',' or ']' at byte {}", *pos))),
                }
            }
        }
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Value::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(bad(format!("invalid literal at byte {}", *pos)))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(bad("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| bad("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| bad("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| bad("bad \\u escape"))?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(bad("bad escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let start = *pos;
                *pos += 1;
                while *pos < bytes.len() && bytes[*pos] & 0xC0 == 0x80 {
                    *pos += 1;
                }
                out.push_str(
                    std::str::from_utf8(&bytes[start..*pos]).map_err(|_| bad("invalid utf-8"))?,
                );
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| bad("invalid number"))?;
    if text.is_empty() {
        return Err(bad(format!("expected a value at byte {start}")));
    }
    if !text.contains(['.', 'e', 'E']) {
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::UInt(v));
        }
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Value::Int(v));
        }
    }
    text.parse::<f64>()
        .map(Value::Float)
        .map_err(|_| bad(format!("invalid number `{text}`")))
}

impl ToJson for Value {
    fn to_json(&self) -> Value {
        self.clone()
    }
}

/// Builds an object value from `(key, value)` pairs.
pub fn object(members: Vec<(&str, Value)>) -> Value {
    Value::Object(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Builds an array of `u64`s.
pub fn u64_array(items: impl IntoIterator<Item = u64>) -> Value {
    Value::Array(items.into_iter().map(Value::UInt).collect())
}

/// Extracts a required `u64` field from an object.
pub fn field_u64(v: &Value, key: &str) -> Result<u64> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field `{key}`")))
}

/// Extracts a required array-of-`u64` field from an object.
pub fn field_u64_array(v: &Value, key: &str) -> Result<Vec<u64>> {
    v.get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| bad(format!("missing or non-array field `{key}`")))?
        .iter()
        .map(|item| {
            item.as_u64()
                .ok_or_else(|| bad(format!("non-integer element in `{key}`")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_structures() {
        assert_eq!(parse("42").unwrap(), Value::UInt(42));
        assert_eq!(parse("-7").unwrap(), Value::Int(-7));
        assert_eq!(parse("2.5").unwrap(), Value::Float(2.5));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("\"hi\\n\"").unwrap(), Value::Str("hi\n".into()));
        let v = parse(r#"{"a": [1, 2], "b": {"c": "x"}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x"));
    }

    #[test]
    fn round_trips_compact_and_pretty() {
        let v = object(vec![
            ("times", u64_array([3, 1, 4])),
            ("machines", Value::UInt(2)),
            ("label", Value::Str("a \"quoted\" name".into())),
        ]);
        for text in [v.to_string_compact(), v.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), v);
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("12 34").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        // One 100 KB frame of `[` used to recurse until the stack overflowed
        // and took the whole process down.
        let err = parse(&"[".repeat(100_000)).expect_err("too deep");
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
        let deep = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        let objects = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(parse(&objects).is_err());
    }

    #[test]
    fn field_helpers_extract_and_error() {
        let v = parse(r#"{"times": [5, 6], "machines": 2}"#).unwrap();
        assert_eq!(field_u64(&v, "machines").unwrap(), 2);
        assert_eq!(field_u64_array(&v, "times").unwrap(), vec![5, 6]);
        assert!(field_u64(&v, "missing").is_err());
        assert!(field_u64_array(&v, "machines").is_err());
    }

    #[test]
    fn big_u64_survives() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
        assert_eq!(parse(&v.to_string_compact()).unwrap(), v);
    }
}
