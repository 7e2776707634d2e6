//! Minimal JSON support: a writer for the fixed event grammar and a
//! recursive-descent parser that feeds the event decoder.
//!
//! Hand-rolled on purpose — the workspace is dependency-hermetic (no
//! serde) and the grammar the events need is tiny. The parser is the
//! front end of [`crate::TelemetryEvent::from_json`]; both directions
//! live here where they can be round-trip-tested against each other.

use std::fmt::Write as _;

// ---- Writing --------------------------------------------------------------

/// Escape `s` into `out` as the *contents* of a JSON string (no quotes).
pub fn escape_str(s: &str, out: &mut String) {
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

/// Append `v`'s `Display` form to `out`.
fn display(v: impl std::fmt::Display, out: &mut String) {
    let _ = write!(out, "{v}");
}

/// Format a float as a JSON value. Rust's shortest-roundtrip `{}` output is
/// valid JSON for finite values; non-finite values (which JSON cannot
/// express) become `null`.
pub fn fmt_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        display(v, out);
    } else {
        out.push_str("null");
    }
}

/// Incremental writer for a single JSON object. Keys are written verbatim
/// (the event grammar uses plain ASCII identifiers only).
#[derive(Debug)]
pub struct ObjWriter {
    buf: String,
    first: bool,
}

impl Default for ObjWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl ObjWriter {
    /// Start an object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
    }

    /// String field.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k);
        self.buf.push('"');
        escape_str(v, &mut self.buf);
        self.buf.push('"');
        self
    }

    /// Unsigned integer field.
    pub fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        self.key(k);
        display(v, &mut self.buf);
        self
    }

    /// `usize` field.
    pub fn usize(&mut self, k: &str, v: usize) -> &mut Self {
        self.u64(k, v as u64)
    }

    /// Float field (`null` when non-finite).
    pub fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        self.key(k);
        fmt_f64(v, &mut self.buf);
        self
    }

    /// Explicit `null` field.
    pub fn null(&mut self, k: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// `usize` field, or `null` when absent.
    pub fn opt_usize(&mut self, k: &str, v: Option<usize>) -> &mut Self {
        match v {
            Some(v) => self.usize(k, v),
            None => self.null(k),
        }
    }

    /// Pre-serialized JSON value field (for nested objects).
    pub fn raw(&mut self, k: &str, json: &str) -> &mut Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Array field, each element written by `item`.
    fn arr<T: Copy>(&mut self, k: &str, v: &[T], item: fn(T, &mut String)) -> &mut Self {
        self.key(k);
        self.buf.push('[');
        for (i, &x) in v.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            item(x, &mut self.buf);
        }
        self.buf.push(']');
        self
    }

    /// Array of `usize`.
    pub fn arr_usize(&mut self, k: &str, v: &[usize]) -> &mut Self {
        self.arr(k, v, display)
    }

    /// Array of `u64`.
    pub fn arr_u64(&mut self, k: &str, v: &[u64]) -> &mut Self {
        self.arr(k, v, display)
    }

    /// Array of `[a, b]` pairs of `usize`.
    pub fn arr_pairs(&mut self, k: &str, v: &[(usize, usize)]) -> &mut Self {
        self.arr(k, v, |(a, b), out| display(format_args!("[{a},{b}]"), out))
    }

    /// Array of `f64` (non-finite entries become `null`).
    pub fn arr_f64(&mut self, k: &str, v: &[f64]) -> &mut Self {
        self.arr(k, v, fmt_f64)
    }

    /// Array of `f32`, each in the shortest form that reads back to the
    /// same `f32` (non-finite entries become `null`).
    pub fn arr_f32(&mut self, k: &str, v: &[f32]) -> &mut Self {
        self.arr(k, v, |x, out| {
            if x.is_finite() {
                display(x, out);
            } else {
                out.push_str("null");
            }
        })
    }

    /// Close the object and return the serialized text.
    pub fn finish(self) -> String {
        let mut buf = self.buf;
        buf.push('}');
        buf
    }
}

// ---- Parsing --------------------------------------------------------------

/// A parsed JSON value. Numbers keep their raw text so integers survive
/// without a lossy f64 round trip.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Numeric value as `u64` (exact: parses the raw digits, so counters
    /// above 2^53 are not truncated).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `true` when `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }
}

/// Parse failure with a byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub offset: usize,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "at byte {}: {}", self.offset, self.msg)
    }
}

impl std::error::Error for JsonError {}

/// Parse a complete JSON document (trailing content is an error).
pub fn parse(input: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
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
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            offset: self.pos,
            msg: msg.to_string(),
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
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {text}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
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
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        // Delegate grammar checking to the float parser (accepts a
        // superset of JSON numbers, e.g. "1.", which is fine here: the
        // writer never emits those and the validator cares about values).
        raw.parse::<f64>()
            .map_err(|_| self.err(&format!("bad number {raw:?}")))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let s = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.expect(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("bad low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                            continue; // hex4 advanced pos already
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character")),
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
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
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn writer_produces_parseable_objects() {
        let mut w = ObjWriter::new();
        w.str("ev", "round_end")
            .usize("round", 3)
            .f64("sim_s", 0.125)
            .arr_usize("edges", &[2, 0, 2])
            .arr_f64("losses", &[0.5, f64::NAN])
            .null("c1")
            .raw("nested", "{\"a\":[1,2]}");
        let text = w.finish();
        let v = parse(&text).unwrap();
        assert_eq!(v.get("ev").unwrap().as_str(), Some("round_end"));
        assert_eq!(v.get("round").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("sim_s").unwrap().as_f64(), Some(0.125));
        assert_eq!(v.get("edges").unwrap().as_arr().unwrap().len(), 3);
        // Non-finite floats serialize as null.
        assert!(v.get("losses").unwrap().as_arr().unwrap()[1].is_null());
        assert!(v.get("c1").unwrap().is_null());
        assert_eq!(
            v.get("nested").unwrap().get("a").unwrap().as_arr().unwrap()[1].as_u64(),
            Some(2)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f — π \u{1F600}";
        let mut w = ObjWriter::new();
        w.str("s", nasty);
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(nasty));
    }

    #[test]
    fn unicode_escapes_parse() {
        let v = parse(r#"{"s":"A😀"}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn large_u64_survives_exactly() {
        let big = u64::MAX - 1;
        let mut w = ObjWriter::new();
        w.u64("n", big);
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v.get("n").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn malformed_inputs_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1} trailing",
            "\"unterminated",
            "{\"a\" 1}",
            "nul",
            "+1",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn numbers_parse_exactly() {
        let v = parse("[0, -3, 2.5, 1e3, -1.25e-2]").unwrap();
        let a = v.as_arr().unwrap();
        assert_eq!(a[0].as_u64(), Some(0));
        assert_eq!(a[1].as_f64(), Some(-3.0));
        assert_eq!(a[2].as_f64(), Some(2.5));
        assert_eq!(a[3].as_f64(), Some(1000.0));
        assert_eq!(a[4].as_f64(), Some(-0.0125));
        // as_u64 on a negative/fractional number is None, not a wrap.
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_u64(), None);
    }

    proptest! {
        /// Any f64 bit pattern written by the writer parses back to the
        /// same value (or null for non-finite patterns).
        #[test]
        fn prop_floats_round_trip(bits in any::<u64>()) {
            let x = f64::from_bits(bits);
            let mut w = ObjWriter::new();
            w.f64("x", x);
            let v = parse(&w.finish()).unwrap();
            let back = v.get("x").unwrap();
            if x.is_finite() {
                prop_assert_eq!(back.as_f64().unwrap().to_bits(), x.to_bits());
            } else {
                prop_assert!(back.is_null());
            }
        }

        /// Any string round-trips through escape + parse.
        #[test]
        fn prop_strings_round_trip(codes in prop::collection::vec(0u32..0x11_0000, 0..24)) {
            let s: String = codes.into_iter().filter_map(char::from_u32).collect();
            let mut w = ObjWriter::new();
            w.str("s", &s);
            let v = parse(&w.finish()).unwrap();
            prop_assert_eq!(v.get("s").unwrap().as_str(), Some(s.as_str()));
        }
    }
}
