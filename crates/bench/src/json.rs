//! Minimal JSON values for BENCH records.
//!
//! The workspace is std-only, so the bench crate carries its own small JSON
//! tree: enough to encode and parse the records in `bench_record`, nothing
//! more. Numbers keep their raw token text so `u64` seeds and event counts
//! round-trip without passing through `f64`.

use std::fmt::Write as _;

use sim_engine::trace::escape_json;

/// A parsed JSON value. Objects preserve insertion order (the encoder's
/// field order is the record's field order).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token so integers above 2^53 survive.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned integer value.
    #[must_use]
    pub fn u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A float value (shortest-roundtrip; non-finite becomes `null`).
    #[must_use]
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v}"))
        } else {
            Json::Null
        }
    }

    /// Object field lookup (first match).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64`, if this is an integer number.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Renders the value as compact single-line JSON.
    #[must_use]
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(raw) => out.push_str(raw),
            Json::Str(s) => {
                let _ = write!(out, "\"{}\"", escape_json(s));
            }
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
                    let _ = write!(out, "\"{}\":", escape_json(k));
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document; rejects trailing garbage.
    ///
    /// # Errors
    /// A human-readable message on malformed input.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#x} at {}", self.pos)),
            None => Err("unexpected end of input".to_string()),
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        // Validate via f64 parse; the raw token is what we keep.
        raw.parse::<f64>()
            .map_err(|_| format!("bad number `{raw}` at byte {start}"))?;
        Ok(Json::Num(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        debug_assert_eq!(self.bytes.get(self.pos), Some(&b'"'));
        self.pos += 1;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs: the encoder never emits
                            // them, but accept them for robustness.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                if self.bytes.get(self.pos + 1) == Some(&b'\\')
                                    && self.bytes.get(self.pos + 2) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let lo = self.hex4()?;
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    None
                                }
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(
                                c.ok_or_else(|| format!("bad \\u escape near byte {}", self.pos))?,
                            );
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (1-4 bytes) verbatim.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| "non-utf8 string".to_string())?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        let hex = self
            .bytes
            .get(start..end)
            .and_then(|b| std::str::from_utf8(b).ok())
            .ok_or_else(|| format!("truncated \\u escape at byte {}", self.pos))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| format!("bad \\u escape `{hex}`"))?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected , or ] at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1; // '{'
        let mut fields = Vec::new();
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {}", self.pos));
            }
            let key = self.string()?;
            self.skip_ws();
            if self.bytes.get(self.pos) != Some(&b':') {
                return Err(format!("expected : at byte {}", self.pos));
            }
            self.pos += 1;
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected , or }} at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        for text in ["null", "true", "false", "0", "-1", "3.5", "\"hi\""] {
            let v = Json::parse(text).expect("parses");
            assert_eq!(v.encode(), text);
        }
    }

    #[test]
    fn big_u64_survives() {
        let n = u64::MAX;
        let v = Json::parse(&n.to_string()).unwrap();
        assert_eq!(v.as_u64(), Some(n));
        assert_eq!(v.encode(), n.to_string());
    }

    #[test]
    fn escapes_roundtrip() {
        // Newlines and control chars must survive a single-line encoding.
        let original = "line1\nline2\ttab \"quoted\" back\\slash km\u{1}idyll";
        let encoded = Json::str(original).encode();
        assert!(!encoded.contains('\n'), "records must stay on one line");
        let back = Json::parse(&encoded).unwrap();
        assert_eq!(back.as_str(), Some(original));
    }

    #[test]
    fn surrogate_pair_parses() {
        let v = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600}"));
    }

    #[test]
    fn nested_structure_roundtrips() {
        let v = Json::Obj(vec![
            ("cmd".into(), Json::str("submit")),
            (
                "jobs".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("seed".into(), Json::u64(42)),
                    ("wall".into(), Json::f64(0.25)),
                    ("ok".into(), Json::Bool(true)),
                    ("none".into(), Json::Null),
                ])]),
            ),
        ]);
        let text = v.encode();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(v.get("cmd").and_then(Json::as_str), Some("submit"));
        let job = &v.get("jobs").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(job.get("seed").and_then(Json::as_u64), Some(42));
        assert_eq!(job.get("wall").and_then(Json::as_f64), Some(0.25));
    }

    #[test]
    fn rejects_malformed_input() {
        for text in ["", "{", "[1,", "\"open", "{\"a\" 1}", "tru", "1 2", "{a:1}"] {
            assert!(Json::parse(text).is_err(), "`{text}` should fail");
        }
    }
}
