//! A minimal JSON value type, parser and serialiser.
//!
//! The build environment vendors no third-party crates (no serde), and
//! the serving protocol only needs plain JSON trees: objects keep their
//! key order (`Vec` of pairs, not a map) so responses render
//! deterministically, numbers are `f64` (the protocol's numbers are
//! small counts and millisecond latencies), and strings support the
//! standard escapes including `\uXXXX` (surrogate pairs included).

use std::fmt;

#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Object field lookup (first match; the parser rejects duplicates).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: a string field of an object.
    pub fn str_field(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }
}

/// Builds an object value; used with the `obj!`-free plain-vec style:
/// `Value::obj([("ok", Value::Bool(true))])`.
impl Value {
    pub fn obj<I: IntoIterator<Item = (&'static str, Value)>>(pairs: I) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    pub fn num(n: impl Into<f64>) -> Value {
        Value::Num(n.into())
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the error in the input.
    pub at: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parses one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Value, JsonError> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

/// Deepest array/object nesting `parse` follows. The parser recurses per
/// level, so an unbounded `[[[[…` line would overflow the stack and abort
/// the daemon; the protocol nests 4 deep.
const MAX_DEPTH: usize = 128;

/// The bytes a JSON string cannot hold raw: the serialiser escapes them
/// and the parser's runs of ordinary bytes stop at them.
fn needs_escape(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError { at: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Value, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Value, JsonError>,
    ) -> Result<Value, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, JsonError> {
        self.expect(b'{')?;
        let mut pairs: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| self.err("non-ascii \\u escape"))?;
        let v = u16::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos = end;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of ordinary bytes in one piece. What ends it
            // is ASCII, so the run is whole scalars of the `&str` input.
            let rest = &self.bytes[self.pos..];
            let run = rest.iter().position(|&b| needs_escape(b)).unwrap_or(rest.len());
            out.push_str(std::str::from_utf8(&rest[..run]).expect("input was a &str"));
            self.pos += run;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("bad surrogate pair"));
                                    }
                                    let code = 0x10000
                                        + ((hi as u32 - 0xD800) << 10)
                                        + (lo as u32 - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("bad surrogate pair"))?
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                char::from_u32(hi as u32)
                                    .ok_or_else(|| self.err("lone surrogate"))?
                            };
                            out.push(c);
                            continue; // pos already advanced past the escape
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        s.parse::<f64>().map(Value::Num).map_err(|_| self.err(format!("bad number {s:?}")))
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write_escaped(f, s),
            Value::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Value::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    // Runs between escapes go out in one piece; every escaped byte is
    // ASCII, so the run boundaries are scalar boundaries.
    let mut run_start = 0;
    for (i, b) in s.bytes().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        f.write_str(&s[run_start..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run_start = i + 1;
    }
    f.write_str(&s[run_start..])?;
    f.write_str("\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"op":"delta","kind":"set-model","args":["a",1,true,null]}"#).unwrap();
        assert_eq!(v.str_field("op"), Some("delta"));
        assert_eq!(v.str_field("kind"), Some("set-model"));
        let args = v.get("args").unwrap().as_arr().unwrap();
        assert_eq!(args.len(), 4);
        assert_eq!(args[1].as_f64(), Some(1.0));
        assert_eq!(args[2].as_bool(), Some(true));
        assert_eq!(args[3], Value::Null);
    }

    #[test]
    fn roundtrips_escapes_and_numbers() {
        for text in [
            r#""line\nbreak \"quoted\" tab\t""#,
            r#"{"k":[-1.5,0,3e2,"\u0041\ud83d\ude00"]}"#,
            "[]",
            "{}",
        ] {
            let v = parse(text).unwrap();
            let rendered = v.to_string();
            assert_eq!(parse(&rendered).unwrap(), v, "roundtrip of {text}");
        }
        assert_eq!(parse(r#""\u0041""#).unwrap(), Value::Str("A".into()));
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Value::Str("😀".into()));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\":1}{",
            "\"unterminated",
            "{\"a\":1,\"a\":2}",
            "nul",
            "01x",
            "\"\\q\"",
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    /// Every kind of scalar and every escape, a mebibyte of them: with a
    /// string scan that is quadratic in the input this runs for minutes.
    #[test]
    fn long_mixed_string_roundtrips() {
        let unit = "plain ascii, é (2 bytes), € (3 bytes), 😀 (4 bytes), \
                    \" \\ / \u{8} \u{c} \n \r \t \u{1} \u{1f} \u{7f}; ";
        let original = unit.repeat((1 << 20) / unit.len() + 1);
        assert!(original.len() >= 1 << 20);
        let rendered = Value::str(original.clone()).to_string();
        assert_eq!(parse(&rendered).unwrap(), Value::Str(original.clone()));
        // The escapes the serialiser never writes parse to the same text.
        let spelled = rendered
            .replace('/', "\\/")
            .replace("\\u0008", "\\b")
            .replace("\\u000c", "\\f")
            .replace('é', "\\u00e9")
            .replace('😀', "\\ud83d\\ude00");
        assert_ne!(spelled, rendered);
        assert_eq!(parse(&spelled).unwrap(), Value::Str(original));
    }

    #[test]
    fn raw_control_character_is_reported_at_its_offset() {
        let half = "é€😀 run ".repeat(2400);
        assert!(2 * half.len() >= 64 << 10);
        let text = format!("\"{half}\u{1}{half}\"");
        let e = parse(&text).unwrap_err();
        assert_eq!(e.at, 1 + half.len(), "{e}");
        assert!(e.message.contains("control character"), "{e}");
    }

    #[test]
    fn nesting_is_bounded() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        let e = parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.at, MAX_DEPTH, "{e}");
        // Unclosed and alternating with objects, far past any stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"k\":[".repeat(200_000)).is_err());
        // The bound is on depth, not on how many containers a document has.
        let wide = format!("[{}[]]", "[[]],".repeat(1000));
        assert!(parse(&wide).is_ok());
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(1.25).to_string(), "1.25");
    }
}
