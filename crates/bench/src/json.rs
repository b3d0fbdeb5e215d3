//! A minimal JSON value type with a writer and a parser.
//!
//! The harness builds offline with no external crates, so the structured
//! run reports ([`crate::bench_report`]) and the Chrome-trace exporter
//! ([`crate::chrometrace`]) serialise through this instead of serde. The
//! dialect is plain RFC 8259 JSON; the only liberty taken is that
//! non-finite numbers serialise as `null` (JSON has no NaN/inf).

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so rendered reports are
/// deterministic and diffable across runs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included; exact for |x| ≤ 2^53).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as ordered key–value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object builder seed: `Json::obj().field("k", v)…`.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends a field to an object (panics on non-objects — builder use
    /// only).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on non-object {other:?}"),
        }
        self
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    // Rust's float Display is shortest-round-trip and never
                    // emits exponents, both of which are valid JSON.
                    let _ = write!(out, "{n}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => Self::write_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Self::write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
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
                // Control characters must be escaped; everything past
                // ASCII is escaped too so the output is 7-bit clean (and
                // the surrogate-pair path below is actually exercised).
                c if (c as u32) < 0x20 || (c as u32) > 0x7E => Self::write_u_escape(c, out),
                c => out.push(c),
            }
        }
        out.push('"');
    }

    /// Writes one `\uXXXX` escape — as a UTF-16 surrogate pair for
    /// supplementary-plane characters. A single `\u{:04x}` would silently
    /// truncate any code point above U+FFFF into invalid JSON (RFC 8259
    /// §7 requires the pair encoding), which the crate's own parser —
    /// which decodes pairs — would then reject or mis-read.
    fn write_u_escape(c: char, out: &mut String) {
        let code = c as u32;
        if code <= 0xFFFF {
            let _ = write!(out, "\\u{code:04x}");
        } else {
            let v = code - 0x10000;
            let hi = 0xD800 + (v >> 10);
            let lo = 0xDC00 + (v & 0x3FF);
            let _ = write!(out, "\\u{hi:04x}\\u{lo:04x}");
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// Returns a byte offset and message on malformed input, including
    /// trailing garbage after the top-level value and nesting deeper than
    /// [`MAX_PARSE_DEPTH`] (the parser is recursive-descent, so the depth
    /// cap is what turns a `[[[[…` bomb into an error instead of a stack
    /// overflow).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Maximum container nesting depth [`Json::parse`] accepts. Real reports
/// nest a handful of levels; the cap exists so untrusted input (a
/// corrupt cache entry, say) cannot overflow the recursive-descent
/// parser's stack.
pub const MAX_PARSE_DEPTH: usize = 128;

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<u32> for Json {
    fn from(n: u32) -> Json {
        Json::Num(f64::from(n))
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

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// A parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.to_string(),
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

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_PARSE_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_PARSE_DEPTH} levels")));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            // The input is valid UTF-8 (it's a &str) and we only stopped on
            // ASCII bytes, so the span is valid UTF-8 too.
            out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).expect("str input"));
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("truncated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hi = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&hi) {
                    // Surrogate pair: a second \uXXXX must follow.
                    if self.bytes[self.pos..].starts_with(b"\\u") {
                        self.pos += 2;
                        let lo = self.hex4()?;
                        0x10000 + ((hi - 0xD800) << 10) + (lo.wrapping_sub(0xDC00) & 0x3FF)
                    } else {
                        return Err(self.err("lone high surrogate"));
                    }
                } else {
                    hi
                };
                char::from_u32(code).ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("unknown escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let end = self.pos + 4;
        let hex = self
            .bytes
            .get(self.pos..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code =
            u32::from_str_radix(hex, 16).map_err(|_| self.err("non-hex digits in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("str input");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_compact_json() {
        let doc = Json::obj()
            .field("name", "fig11")
            .field("jobs", 3u64)
            .field("ipc", 2.5)
            .field("clean", true)
            .field("audit", Json::Null)
            .field("tags", Json::Arr(vec!["a".into(), "b".into()]));
        assert_eq!(
            doc.to_json(),
            r#"{"name":"fig11","jobs":3,"ipc":2.5,"clean":true,"audit":null,"tags":["a","b"]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        let s = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(s.to_json(), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_json(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json(), "null");
    }

    #[test]
    fn round_trips_through_the_parser() {
        let doc = Json::obj()
            .field("schema_version", 1u64)
            .field(
                "nested",
                Json::obj().field("xs", Json::Arr(vec![1u64.into(), 2.75.into()])),
            )
            .field("text", "line1\nline2 \"quoted\"")
            .field("none", Json::Null)
            .field("neg", Json::Num(-42.0));
        let text = doc.to_json();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let parsed =
            Json::parse(" { \"k\" : [ 1 , -2.5e1 , \"\\u0041\\t\" , true , null ] } ").unwrap();
        let arr = parsed.get("k").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("A\t"));
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4], Json::Null);
    }

    #[test]
    fn parses_surrogate_pairs() {
        let parsed = Json::parse(r#""😀""#).unwrap();
        assert_eq!(parsed.as_str(), Some("😀"));
    }

    #[test]
    fn writes_surrogate_pairs_for_non_bmp_chars() {
        // Regression: U+1F600 used to serialise as the single (invalid)
        // escape `ὠ0`-style truncation; it must be the RFC 8259
        // surrogate pair.
        assert_eq!(Json::Str("😀".into()).to_json(), "\"\\ud83d\\ude00\"");
        // BMP non-ASCII gets a single escape; output stays 7-bit clean.
        assert_eq!(Json::Str("é".into()).to_json(), "\"\\u00e9\"");
        assert!(Json::Str("naïve 🚀 κόσμε".into()).to_json().is_ascii());
    }

    #[test]
    fn strings_round_trip_through_own_parser() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "control \u{1}\u{1f}\u{7f}",
            "bmp: é κ ‚ \u{fffd}",
            "astral: 😀 🚀 \u{10FFFF} \u{10000}",
            "mixed\n\t😀é\r",
            "",
        ] {
            let rendered = Json::Str(s.to_string()).to_json();
            assert_eq!(
                Json::parse(&rendered).unwrap().as_str(),
                Some(s),
                "rendered: {rendered}"
            );
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{} trailing").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("01x").is_err());
    }

    #[test]
    fn accessor_types_are_strict() {
        let n = Json::Num(1.5);
        assert_eq!(n.as_f64(), Some(1.5));
        assert_eq!(n.as_u64(), None, "fractional numbers are not integers");
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Str("x".into()).as_f64(), None);
    }

    #[test]
    fn nesting_bombs_error_instead_of_overflowing_the_stack() {
        // A megabyte of `[` used to recurse once per byte; now it must
        // come back as a depth error at offset MAX_PARSE_DEPTH-ish.
        let bomb = "[".repeat(1 << 20);
        let err = Json::parse(&bomb).unwrap_err();
        assert!(err.message.contains("nesting"), "{err}");
        let obj_bomb = "{\"k\":".repeat(1 << 18);
        assert!(Json::parse(&obj_bomb)
            .unwrap_err()
            .message
            .contains("nesting"));

        // …while the cap stays far above anything the reports produce.
        let mut doc = "1".to_string();
        for _ in 0..MAX_PARSE_DEPTH {
            doc = format!("[{doc}]");
        }
        assert!(Json::parse(&doc).is_ok());
        assert!(Json::parse(&format!("[{doc}]")).is_err());
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Arbitrary byte strings — decoded lossily — never panic
            /// the parser: every input is
            /// either parsed or rejected with an offset.
            #[test]
            fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
                let text = String::from_utf8_lossy(&bytes);
                let _ = Json::parse(&text);
            }

            /// JSON-flavoured garbage (high density of structural bytes,
            /// escapes, and digits) never panics either — this alphabet
            /// reaches far deeper into the grammar than uniform bytes.
            #[test]
            fn jsonish_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
                const ALPHABET: &[u8] = br#"[]{}",:0123456789eEuU+.\ tfn-"#;
                let text: String = bytes
                    .iter()
                    .map(|b| ALPHABET[*b as usize % ALPHABET.len()] as char)
                    .collect();
                let _ = Json::parse(&text);
            }
        }
    }
}
