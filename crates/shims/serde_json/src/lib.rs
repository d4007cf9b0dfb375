//! Offline, in-tree stand-in for the subset of [`serde_json`] this workspace
//! uses: [`to_string`], which renders the `serde` shim's [`Value`] tree, and
//! [`from_str`], which parses JSON text back to a [`Value`].
//!
//! Numbers print via Rust's shortest-round-trip formatting and parse back with
//! `str::parse`, so every finite `f64`/`u64`/`i64` survives a
//! serialize→parse round trip exactly. The parser recurses once per array or
//! object, so it refuses input nested deeper than [`MAX_DEPTH`] levels, as
//! crates.io `serde_json` does: a hostile body cannot overflow the stack of
//! the thread that parses it.
//!
//! [`serde_json`]: https://docs.rs/serde_json

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Serialize, Value};
use std::fmt::Write as _;

pub use serde::Error;

/// The deepest nesting of arrays and objects [`from_str`] accepts.
pub const MAX_DEPTH: usize = 128;

/// Serializes `value` to a compact JSON string.
///
/// # Errors
///
/// Returns [`Error`] if the value contains a non-finite float (JSON has no
/// representation for `NaN` or infinities).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out)?;
    Ok(out)
}

/// Parses a JSON string to a [`Value`] tree (`T` is [`Value`] itself, or a
/// type built from one).
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON, or on arrays and objects nested
/// deeper than [`MAX_DEPTH`].
pub fn from_str<T: From<Value>>(s: &str) -> Result<T, Error> {
    let mut parser = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    let value = parser.parse_value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(Error::new(format!(
            "trailing characters at byte {}",
            parser.pos
        )));
    }
    Ok(T::from(value))
}

fn write_value(v: &Value, out: &mut String) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::UInt(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Int(n) => {
            let _ = write!(out, "{n}");
        }
        Value::Float(f) => {
            if !f.is_finite() {
                return Err(Error::new("JSON cannot represent non-finite floats"));
            }
            // Rust's shortest-round-trip Display never uses scientific
            // notation, so integral floats (tiny or enormous) print with no
            // `.`; force one so the value parses back as a float.
            let start = out.len();
            let _ = write!(out, "{f}");
            if !out[start..].contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out)?;
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out)?;
            }
            out.push('}');
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::Str),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(Error::new(format!(
                "unexpected character at byte {}",
                self.pos
            ))),
        }
    }

    /// Runs `parse` one nesting level deeper, refusing to pass [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(Error::new(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `]` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                _ => {
                    return Err(Error::new(format!(
                        "expected `,` or `}}` at byte {}",
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while !matches!(self.peek(), Some(b'"' | b'\\') | None) {
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?,
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
                            let mut code = self.parse_hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A high surrogate must be followed by an escaped
                            // low surrogate; combine them (RFC 8259 §7).
                            if (0xD800..=0xDBFF).contains(&code) {
                                if self.bytes.get(self.pos + 1..self.pos + 3)
                                    != Some(b"\\u".as_slice())
                                {
                                    return Err(Error::new("unpaired UTF-16 high surrogate"));
                                }
                                let low = self.parse_hex4(self.pos + 3)?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err(Error::new("invalid UTF-16 low surrogate"));
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                self.pos += 6;
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| Error::new("invalid \\u code point"))?,
                            );
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                None => return Err(Error::new("unterminated string")),
                _ => unreachable!(),
            }
        }
    }

    /// Reads the four hex digits of a `\u` escape starting at `at`.
    fn parse_hex4(&self, at: usize) -> Result<u32, Error> {
        let hex = self
            .bytes
            .get(at..at + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| Error::new("truncated \\u escape"))?;
        u32::from_str_radix(hex, 16).map_err(|_| Error::new("invalid \\u escape"))
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
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
        if is_float {
            text.parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::new(format!("invalid number `{text}`")))
        } else if text.starts_with('-') {
            // Integers beyond 64 bits degrade to floats rather than erroring.
            text.parse::<i64>().map(Value::Int).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid integer `{text}`")))
            })
        } else {
            text.parse::<u64>().map(Value::UInt).or_else(|_| {
                text.parse::<f64>()
                    .map(Value::Float)
                    .map_err(|_| Error::new(format!("invalid integer `{text}`")))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Value, Error> {
        from_str(s)
    }

    #[test]
    fn scalars_round_trip() {
        for (value, json) in [
            (Value::UInt(42), "42"),
            (Value::Int(-3), "-3"),
            (Value::Bool(true), "true"),
            (Value::Null, "null"),
            (Value::Float(0.5), "0.5"),
            (Value::Str("a\"b".into()), "\"a\\\"b\""),
        ] {
            assert_eq!(to_string(&value).unwrap(), json);
            assert_eq!(parse(json).unwrap(), value);
        }
    }

    #[test]
    fn f32_values_survive_the_round_trip_exactly() {
        for x in [0.577_215_7f32, 1.282_549_8, -4.25, 1.0, 1e-7, 3.4e38] {
            let json = to_string(&f64::from(x)).unwrap();
            assert_eq!(parse(&json).unwrap(), Value::Float(f64::from(x)), "{json}");
        }
    }

    #[test]
    fn integral_floats_stay_floats() {
        let json = to_string(&2.0f64).unwrap();
        assert_eq!(json, "2.0");
        assert_eq!(parse(&json).unwrap(), Value::Float(2.0));
    }

    #[test]
    fn collections_round_trip() {
        let v = vec![1u64, 2, 3];
        let json = to_string(&v).unwrap();
        assert_eq!(json, "[1,2,3]");
        assert_eq!(parse(&json).unwrap(), v.to_value());
        assert_eq!(parse("[ ]").unwrap(), Value::Seq(vec![]));
        let map = Value::Map(vec![
            ("a".into(), Value::Seq(vec![Value::Null])),
            ("b".into(), Value::Map(vec![])),
        ]);
        let json = to_string(&map).unwrap();
        assert_eq!(json, r#"{"a":[null],"b":{}}"#);
        assert_eq!(parse(&json).unwrap(), map);
    }

    #[test]
    fn utf16_surrogate_pairs_parse() {
        // Escaped surrogate pair (RFC 8259 §7) and escaped BMP code point.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
        assert_eq!(parse(r#""\u00e9""#).unwrap(), Value::Str("é".into()));
        // Raw (unescaped) UTF-8 still passes straight through.
        assert_eq!(parse("\"😀\"").unwrap(), Value::Str("😀".into()));
        // Unpaired or malformed surrogates are rejected.
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ud83d\u0041""#).is_err());
        assert!(parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn malformed_input_errors() {
        assert!(parse("").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("[1,").is_err());
        assert!(parse("\"abc").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        let nested = |open: &str, close: &str, depth: usize| {
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        };
        assert!(parse(&nested("[", "]", MAX_DEPTH)).is_ok());
        assert!(parse(&nested(r#"{"a":"#, "}", MAX_DEPTH)).is_ok());
        let too_deep = "nesting deeper than 128 levels at byte 128";
        let err = parse(&nested("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.to_string(), too_deep);
        // A megabyte of openers errors at the bound instead of recursing
        // once per byte.
        let err = parse(&"[".repeat(1 << 20)).unwrap_err();
        assert_eq!(err.to_string(), too_deep);
        // The bound is on depth, not on the count of nested values.
        let wide = format!("[{}]", vec![nested("[", "]", MAX_DEPTH - 1); 3].join(","));
        assert!(parse(&wide).is_ok());
    }
}
