//! Hand-rolled JSON: an emitter for the trace/journal artifacts and the
//! daemon protocol, and a minimal recursive-descent parser for
//! validating them.
//!
//! The hermetic workspace has no serde; this module is the single JSON
//! implementation every layer shares. The emitter covers objects of
//! string/number/bool/raw fields plus arrays; the parser covers the full
//! JSON grammar minus exotic number forms, enough to round-trip
//! everything the emitter produces and to schema-check journal lines and
//! Chrome traces in CI.

use std::collections::BTreeMap;
use std::fmt;

/// Escapes a string for use inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// An object under construction.
#[derive(Default)]
pub struct Obj {
    fields: Vec<String>,
}

impl Obj {
    pub fn new() -> Self {
        Obj::default()
    }

    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.fields
            .push(format!("\"{}\":\"{}\"", escape(k), escape(v)));
        self
    }

    pub fn num(mut self, k: &str, v: f64) -> Self {
        // JSON has no NaN/Inf; encode them as null.
        let v = if v.is_finite() {
            format!("{v}")
        } else {
            "null".into()
        };
        self.fields.push(format!("\"{}\":{v}", escape(k)));
        self
    }

    pub fn int(self, k: &str, v: usize) -> Self {
        self.raw(k, &v.to_string())
    }

    pub fn u64(self, k: &str, v: u64) -> Self {
        self.raw(k, &v.to_string())
    }

    pub fn bool(self, k: &str, v: bool) -> Self {
        self.raw(k, if v { "true" } else { "false" })
    }

    /// A pre-rendered JSON value (nested object or array).
    pub fn raw(mut self, k: &str, v: &str) -> Self {
        self.fields.push(format!("\"{}\":{v}", escape(k)));
        self
    }

    pub fn build(self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

/// Renders pre-rendered values as a JSON array.
pub fn array<I: IntoIterator<Item = String>>(items: I) -> String {
    format!("[{}]", items.into_iter().collect::<Vec<_>>().join(","))
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Member of an object, if this is an object holding the key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
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
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// A parse failure, with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub at: usize,
    pub what: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for ParseError {}

/// Parses one JSON document; trailing content (other than whitespace) is
/// an error.
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        src: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    /// The input, valid UTF-8 by type; `bytes` is the same slice.
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// The four hex digits of a `\\u` escape starting at byte `at`.
    fn hex4(&self, at: usize) -> Result<u32, ParseError> {
        let hex = (self.bytes.get(at..at + 4)).ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
        u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))
    }

    fn err(&self, what: &str) -> ParseError {
        ParseError {
            at: self.pos,
            what: what.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn lit(&mut self, s: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{s}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.lit("true", Value::Bool(true)),
            Some(b'f') => self.lit("false", Value::Bool(false)),
            Some(b'n') => self.lit("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(out));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            // A character above the BMP arrives as a
                            // UTF-16 surrogate pair of escapes; an
                            // unpaired surrogate decodes to the
                            // replacement character.
                            let paired = (0xd800..0xdc00).contains(&code)
                                && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u");
                            let c = match paired.then(|| self.hex4(self.pos + 3)) {
                                Some(Ok(low @ 0xdc00..=0xdfff)) => {
                                    self.pos += 6;
                                    char::from_u32(
                                        0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00),
                                    )
                                }
                                _ => char::from_u32(code),
                            };
                            out.push(c.unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in
                    // one step. Both are ASCII, so the run ends on a char
                    // boundary of the `&str` input.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|b| matches!(b, b'"' | b'\\'))
                        .map_or(self.bytes.len(), |n| self.pos + n);
                    out.push_str(&self.src[self.pos..run]);
                    self.pos = run;
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        s.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_and_parse_round_trip() {
        let doc = Obj::new()
            .str("name", "a \"quoted\" value\n")
            .num("pi", 3.5)
            .int("n", 42)
            .bool("flag", true)
            .raw("arr", &array(["1".into(), "\"x\"".into()]))
            .build();
        let v = parse(&doc).unwrap();
        assert_eq!(
            v.get("name").unwrap().as_str(),
            Some("a \"quoted\" value\n")
        );
        assert_eq!(v.get("pi").unwrap().as_num(), Some(3.5));
        assert_eq!(v.get("n").unwrap().as_num(), Some(42.0));
        assert_eq!(v.get("flag"), Some(&Value::Bool(true)));
        assert_eq!(v.get("arr").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn parses_nested_structures_and_negatives() {
        let v = parse(r#"{"a":[{"b":-1.5e2},null,false],"c":{}}"#).unwrap();
        let arr = v.get("a").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].get("b").unwrap().as_num(), Some(-150.0));
        assert_eq!(arr[1], Value::Null);
        assert!(v.get("c").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    /// A string value is copied run by run, so a daemon request the size
    /// of a large configuration parses in linear time (a 1 MiB value took
    /// seconds when every character re-validated the rest of the input).
    #[test]
    fn parses_a_one_mebibyte_string_in_linear_time() {
        let big = "x".repeat(1 << 20);
        let doc = Obj::new().str("config", &big).build();
        let started = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        let took = started.elapsed();
        assert_eq!(v.get("config").unwrap().as_str(), Some(big.as_str()));
        assert!(took.as_secs_f64() < 2.0, "1 MiB string took {took:?}");
    }

    /// A `\\u` surrogate pair decodes to the one character above the BMP
    /// it encodes; an unpaired or mispaired surrogate to U+FFFD.
    #[test]
    fn surrogate_pair_escapes_decode_to_one_character() {
        let s = |doc: &str| parse(doc).unwrap().as_str().unwrap().to_string();
        assert_eq!(s(r#""\ud83d\ude00""#), "😀");
        assert_eq!(s(r#""a\ud83e\udd80b""#), "a🦀b");
        assert_eq!(s(r#""\ud83d""#), "\u{fffd}");
        assert_eq!(s(r#""\ud83dx""#), "\u{fffd}x");
        assert_eq!(s(r#""\ude00\ud83d""#), "\u{fffd}\u{fffd}");
        assert_eq!(s(r#""\ud83d\u0041""#), "\u{fffd}A");
        assert!(parse(r#""\ud83d\uzzzz""#).is_err());
    }

    /// Multi-byte characters and escapes on either side of a run
    /// boundary survive the round trip.
    #[test]
    fn runs_keep_multibyte_characters_and_escapes_intact() {
        for s in ["é\"ü", "\\✓\\", "日本\n語", "\"", "a\\", "🦀\t🦀\u{1}", ""] {
            let doc = Obj::new().str("s", s).build();
            assert_eq!(parse(&doc).unwrap().get("s").unwrap().as_str(), Some(s));
        }
        let v = parse(r#"["éx\/é", "\\\"ß"]"#).unwrap();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr[0].as_str(), Some("éx/é"));
        assert_eq!(arr[1].as_str(), Some("\\\"ß"));
        assert_eq!(parse("\"ab").unwrap_err().what, "unterminated string");
    }

    #[test]
    fn nan_encodes_as_null() {
        let doc = Obj::new().num("x", f64::NAN).build();
        assert_eq!(parse(&doc).unwrap().get("x"), Some(&Value::Null));
    }
}
