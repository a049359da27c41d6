//! Offline stand-in for `serde_json`: renders the workspace serde shim's
//! [`Value`] tree to compact JSON text and parses JSON text into a
//! [`Value`].
//!
//! Numbers keep integers exact (`u64`/`i64`) and render floats with Rust's
//! shortest round-trip formatting, so an `f64` read back from the text has
//! the bits that were written.

#![warn(missing_docs)]

use serde::{Number, Serialize, Value};
use std::fmt;

/// Error produced by JSON parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.message)
    }
}

impl std::error::Error for Error {}

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Infallible for values producible by the shim; the `Result` mirrors the
/// real `serde_json` signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    render(&value.to_value(), &mut out);
    Ok(out)
}

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
///
/// Returns an error on malformed JSON.
pub fn from_str(text: &str) -> Result<Value, Error> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(value)
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

fn render(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Number(Number::PosInt(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::NegInt(v)) => out.push_str(&v.to_string()),
        Value::Number(Number::Float(v)) => {
            if v.is_finite() {
                // `Display` for f64 is shortest-round-trip since Rust 1.32.
                out.push_str(&v.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::String(s) => render_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                render_string(key, out);
                out.push(':');
                render(item, out);
            }
            out.push('}');
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_whitespace(&mut self) {
        while matches!(
            self.bytes.get(self.pos),
            Some(b' ') | Some(b'\t') | Some(b'\n') | Some(b'\r')
        ) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, Error> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unexpected end of input"))
    }

    fn expect(&mut self, byte: u8) -> Result<(), Error> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                byte as char, self.pos
            )))
        }
    }

    fn literal(&mut self, text: &str, value: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(Error::new(format!("invalid literal at byte {}", self.pos)))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek()? {
            b'n' => self.literal("null", Value::Null),
            b't' => self.literal("true", Value::Bool(true)),
            b'f' => self.literal("false", Value::Bool(false)),
            b'"' => self.string().map(Value::String),
            b'[' => self.array(),
            b'{' => self.object(),
            b'-' | b'0'..=b'9' => self.number(),
            c => Err(Error::new(format!(
                "unexpected character `{}` at byte {}",
                c as char, self.pos
            ))),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected `,` or `]`, found `{}` at byte {}",
                        c as char, self.pos
                    )))
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Value::Object(pairs));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            pairs.push((key, value));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Value::Object(pairs));
                }
                c => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}`, found `{}` at byte {}",
                        c as char, self.pos
                    )))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.bytes.get(self.pos), Some(b'"') | Some(b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
            );
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                None => return Err(Error::new("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    fn escape(&mut self) -> Result<char, Error> {
        let code = self
            .bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| Error::new("unterminated escape"))?;
        self.pos += 1;
        Ok(match code {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                let scalar = if (0xd800..0xdc00).contains(&high) {
                    // Surrogate pair.
                    if self.bytes.get(self.pos) != Some(&b'\\')
                        || self.bytes.get(self.pos + 1) != Some(&b'u')
                    {
                        return Err(Error::new("unpaired surrogate"));
                    }
                    self.pos += 2;
                    let low = self.hex4()?;
                    0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
                } else {
                    high
                };
                char::from_u32(scalar).ok_or_else(|| Error::new("invalid unicode escape"))?
            }
            c => {
                return Err(Error::new(format!(
                    "invalid escape `\\{}` at byte {}",
                    c as char,
                    self.pos - 1
                )))
            }
        })
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| Error::new("invalid \\u escape"))?;
        let value = u32::from_str_radix(text, 16).map_err(|_| Error::new("invalid \\u escape"))?;
        self.pos += 4;
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error::new("invalid number"))?;
        if !is_float {
            if let Some(stripped) = text.strip_prefix('-') {
                if let Ok(v) = stripped.parse::<u64>() {
                    if v <= i64::MAX as u64 {
                        return Ok(Value::Number(Number::NegInt(-(v as i64))));
                    }
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::Number(Number::PosInt(v)));
            }
        }
        text.parse::<f64>()
            .map(|v| Value::Number(Number::Float(v)))
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str("42").unwrap().as_u64(), Some(42));
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(from_str("-7").unwrap().as_i64(), Some(-7));
        assert_eq!(from_str("true").unwrap(), Value::Bool(true));
        assert_eq!(from_str("null").unwrap(), Value::Null);
        assert_eq!(to_string(&f64::INFINITY).unwrap(), "null");
    }

    #[test]
    fn floats_roundtrip_exactly() {
        for v in [0.1f32, -3.75, 1.0e-12, 16_777_216.0, f32::MIN_POSITIVE] {
            let text = to_string(&v).unwrap();
            let back = from_str(&text).unwrap().as_f64().unwrap() as f32;
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {text} -> {back}");
        }
        for v in [0.1f64, 2.2250738585072014e-308, 9_007_199_254_740_993.0] {
            let text = to_string(&v).unwrap();
            let back = from_str(&text).unwrap().as_f64().unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} -> {text} -> {back}");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let original = "line\nbreak \"quoted\" back\\slash \u{1F600} tab\t";
        let text = to_string(&original.to_string()).unwrap();
        assert_eq!(from_str(&text).unwrap().as_str(), Some(original));
        // Standard escapes parse too.
        let parsed = from_str(r#""\u0041\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(parsed.as_str(), Some("Aé😀"));
    }

    #[test]
    fn containers_roundtrip() {
        let v = vec![vec![1u32, 2], vec![3]];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[[1,2],[3]]");
        assert_eq!(from_str(&text).unwrap(), v.to_value());
        let object = from_str(r#" { "a" : [ ] , "b" : {} } "#).unwrap();
        let pairs = object.as_object().unwrap();
        assert_eq!(pairs[0], ("a".to_string(), Value::Array(Vec::new())));
        assert_eq!(pairs[1], ("b".to_string(), Value::Object(Vec::new())));
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(from_str("").is_err());
        assert!(from_str("42 43").is_err());
        assert!(from_str("[1,]").is_err());
        assert!(from_str("\"unterminated").is_err());
        assert!(from_str("tru").is_err());
    }
}
