//! A small self-contained JSON engine (value type, parser, printers).
//!
//! The workspace builds offline, so instead of `serde`/`serde_json`
//! the wire formats are mapped by hand through this order-preserving
//! [`Json`] value. The grammar is RFC 8259 JSON; numbers are kept as
//! `f64`, which is exact for every integer this workspace serializes
//! (all well below 2^53).

use std::collections::BTreeMap;
use std::fmt;

/// A JSON document node. Object member order is preserved.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// A parse or mapping failure, with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

/// Shorthand constructor for error results.
pub fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a member to an object (builder style). Panics on non-objects.
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(members) => members.push((key.to_string(), value.into())),
            _ => panic!("Json::set on a non-object"),
        }
        self
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Unsigned integer payload, if this is a whole non-negative number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object members, if this is an object.
    pub fn members(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Required string member of an object.
    pub fn req_str(&self, key: &str) -> Result<String, JsonError> {
        self.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| JsonError(format!("missing or non-string field '{key}'")))
    }

    /// Required unsigned-integer member of an object.
    pub fn req_u64(&self, key: &str) -> Result<u64, JsonError> {
        self.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| JsonError(format!("missing or non-integer field '{key}'")))
    }

    /// Compact one-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let (nl, pad, pad_in, colon) = match indent {
            Some(w) => (
                "\n",
                " ".repeat(w * depth),
                " ".repeat(w * (depth + 1)),
                ": ",
            ),
            None => ("", String::new(), String::new(), ":"),
        };
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() <= 2f64.powi(53) {
                    out.push_str(&format!("{}", *n as i64));
                } else {
                    out.push_str(&format!("{n}"));
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    item.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push(']');
            }
            Json::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(nl);
                    out.push_str(&pad_in);
                    write_escaped(out, k);
                    out.push_str(colon);
                    v.write(out, indent, depth + 1);
                }
                out.push_str(nl);
                out.push_str(&pad);
                out.push('}');
            }
        }
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<u16> for Json {
    fn from(n: u16) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<u8> for Json {
    fn from(n: u8) -> Json {
        Json::Num(f64::from(n))
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

impl From<&BTreeMap<String, String>> for Json {
    fn from(map: &BTreeMap<String, String>) -> Json {
        Json::Obj(
            map.iter()
                .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                .collect(),
        )
    }
}

/// Render a bare string as a JSON string literal (quoted + escaped).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_escaped(&mut out, s);
    out
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
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep arrays and objects may nest. A document nested deeper is
/// refused, so a hostile body cannot overflow the parser's stack.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Trailing non-whitespace is an error, and so is
/// nesting arrays and objects more than 128 deep.
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(b) => err(format!(
                "unexpected byte '{}' at {}",
                char::from(b),
                self.pos
            )),
            None => err("unexpected end of input"),
        }
    }

    /// Parse an array or object one level deeper, if the bound allows.
    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return err(format!(
                "nested deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| JsonError(format!("bad number '{text}'")))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
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
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| JsonError("bad \\u escape".into()))?;
                            // Surrogate pairs are not needed by this
                            // workspace's formats; map them to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // A run of plain characters, up to the next quote or
                    // escape. Both are ASCII and every token before the
                    // run is too, so the run starts and ends on char
                    // boundaries of the input.
                    let start = self.pos;
                    while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_compact_and_pretty() {
        let doc = Json::obj()
            .set("id", "g1")
            .set("n", 7u32)
            .set("flag", true)
            .set("list", vec![Json::Num(1.0), Json::Null])
            .set("nested", Json::obj().set("k", "v\n\"q\""));
        for text in [doc.render(), doc.render_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parses_escapes_and_numbers() {
        let v = parse(r#"{"s": "a\tbA", "x": -2.5e1, "y": 12}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\tbA"));
        assert_eq!(v.get("x"), Some(&Json::Num(-25.0)));
        assert_eq!(v.get("y").unwrap().as_u64(), Some(12));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("not json").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"open").is_err());
    }

    #[test]
    fn escape_helper_quotes() {
        assert_eq!(escape("a\"b"), "\"a\\\"b\"");
    }

    /// A million openers are a typed error, not a stack overflow; a
    /// document exactly at the bound parses.
    #[test]
    fn nesting_is_bounded() {
        for opener in ["[", "{\"a\":"] {
            let hostile = opener.repeat(1_000_000);
            let e = parse(&hostile).unwrap_err();
            assert!(e.0.contains("nested deeper than 128"), "{e}");
        }
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_bound).is_ok());
        let over = format!("[{at_bound}]");
        assert!(parse(&over).is_err());
        let objects = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse(&objects).is_ok());
    }

    /// String decoding is linear: a 4 MiB ASCII string and a 1 MiB string
    /// of multi-byte characters round-trip.
    #[test]
    fn long_strings_round_trip() {
        let ascii = "x".repeat(4 << 20);
        let multi_byte: String = ['é', '€', '𝄞'].iter().cycle().take(1 << 20).collect();
        for s in [ascii, multi_byte] {
            let doc = Json::obj().set("s", s.as_str());
            let back = parse(&doc.render()).unwrap();
            assert_eq!(back.get("s").and_then(Json::as_str), Some(s.as_str()));
        }
    }
}
