//! Minimal recursive JSON — deterministic rendering plus a strict
//! parser.
//!
//! This module is the workspace's single recursive JSON value model and
//! its only JSON reader: scenarios, metrics reports, serve request
//! bodies, and the runner's journal and evaluation-cache lines all
//! parse through [`Json::parse`]. Parsing is linear in the input and
//! refuses nesting deeper than a fixed cap, so no document can hang or
//! overflow the reading thread. Rendering is
//! deterministic by construction: objects preserve the insertion order
//! the builder chose (callers insert in sorted or otherwise fixed
//! order), floats with an exact integer value render without a
//! fraction, all other finite floats use Rust's shortest round-trip
//! format, and non-finite floats render as `null` (JSON has no spelling
//! for them).

use std::fmt::Write as _;

/// A JSON reader/writer error: the byte offset context and a short
/// reason. Stringly-typed on purpose — callers either surface the text
/// verbatim or wrap it in their own error enum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError(pub String);

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

type Result<T> = std::result::Result<T, JsonError>;

fn err(msg: impl Into<String>) -> JsonError {
    JsonError(msg.into())
}

/// A JSON value. Objects are ordered pair lists, not maps: the builder
/// fixes the key order, which is what makes rendering byte-stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; rendered integrally when exact.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered `(key, value)` list.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render to a compact, deterministic string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => render_f64(*x, out),
            Json::Str(s) => render_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_str(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Render to a human-oriented, still deterministic string: objects
    /// go multiline with two-space indentation, arrays stay on one line
    /// (scenario axes are long flat lists), scalars render as in
    /// [`Json::render`]. `parse(render_pretty(v)) == v` always holds.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.render_pretty_into(&mut out, 0);
        out
    }

    fn render_pretty_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Obj(pairs) if !pairs.is_empty() => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    for _ in 0..(depth + 1) * 2 {
                        out.push(' ');
                    }
                    render_str(key, out);
                    out.push_str(": ");
                    value.render_pretty_into(out, depth + 1);
                    if i + 1 < pairs.len() {
                        out.push(',');
                    }
                    out.push('\n');
                }
                for _ in 0..depth * 2 {
                    out.push(' ');
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            other => other.render_into(out),
        }
    }

    /// Parse a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        skip_ws(bytes, &mut pos);
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(format!(
                "trailing bytes at offset {pos} after JSON value"
            )));
        }
        Ok(value)
    }

    /// Look up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The exact unsigned integer value, if this is an integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= MAX_EXACT_INT => Some(*x as u64),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The pair list, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }
}

/// Largest float magnitude rendered as an exact integer (2^53).
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

fn render_f64(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= MAX_EXACT_INT {
        // `-0.0` folds to `0`: sign of zero is noise in a report.
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's Debug float format is the shortest round-trip form.
        let _ = write!(out, "{x:?}");
    }
}

fn render_str(s: &str, out: &mut String) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Deepest array/object nesting [`Json::parse`] accepts. Scenarios nest
/// at most 4 deep; the cap keeps a hostile document (say 10,000 `[`)
/// from overflowing the parsing thread's stack.
const MAX_DEPTH: usize = 128;

/// Parse one value nested inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(err("unexpected end of input")),
        Some(b'[' | b'{') if depth == MAX_DEPTH => Err(err(format!(
            "nesting deeper than {MAX_DEPTH} levels at offset {pos}"
        ))),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(err(format!("expected `{word}` at offset {pos}")))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| err(format!("non-UTF-8 number at offset {start}")))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(format!("malformed number `{text}` at offset {start}")))
}

/// The four hex digits of a `\u` escape starting at `at`.
fn parse_hex4(bytes: &[u8], at: usize) -> Result<u32> {
    let hex = bytes
        .get(at..at + 4)
        .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
        .ok_or_else(|| err(format!("bad \\u escape at offset {at}")))?;
    Ok(hex.iter().fold(0, |code, &d| {
        code * 16 + (d as char).to_digit(16).unwrap_or(0)
    }))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the whole run up to the next `"` or `\` at once: both are
        // ASCII, so the run ends on a char boundary, and the input is
        // scanned once however long the string is.
        let run_len = bytes[*pos..]
            .iter()
            .position(|&b| b == b'"' || b == b'\\')
            .ok_or_else(|| err("unterminated string"))?;
        let end = *pos + run_len;
        let run =
            std::str::from_utf8(&bytes[*pos..end]).map_err(|_| err("non-UTF-8 string body"))?;
        out.push_str(run);
        *pos = end + 1;
        if bytes[end] == b'"' {
            return Ok(out);
        }
        let c = match bytes.get(*pos) {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let mut code = parse_hex4(bytes, *pos + 1)?;
                *pos += 4;
                // A high surrogate escaped next to a low one is one
                // scalar (RFC 8259 §7); a lone surrogate decodes as
                // U+FFFD.
                if (0xD800..0xDC00).contains(&code)
                    && bytes.get(*pos + 1..*pos + 3) == Some(b"\\u".as_slice())
                {
                    if let Ok(low @ 0xDC00..=0xDFFF) = parse_hex4(bytes, *pos + 3) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                        *pos += 6;
                    }
                }
                char::from_u32(code).unwrap_or('\u{FFFD}')
            }
            other => return Err(err(format!("bad escape {other:?}"))),
        };
        out.push(c);
        *pos += 1;
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(err(format!("expected , or ] at offset {pos}"))),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    *pos += 1; // consume '{'
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(err(format!("expected string key at offset {pos}")));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(err(format!("expected : at offset {pos}")));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => return Err(err(format!("expected , or }} at offset {pos}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_integral_floats_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(0.5).render(), "0.5");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn round_trips_nested_documents() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b \"q\"".into(), Json::Str("x\ny".into())),
            ("c".into(), Json::Bool(false)),
        ]);
        let text = doc.render();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        // Render is a fixed point: parse → render reproduces the bytes.
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert!(Json::parse("\"abc").is_err());
        assert!(Json::parse("{\"k\" 1}").is_err());
    }

    #[test]
    fn parses_escapes_and_unicode() {
        let v = Json::parse(r#""aA\n\t\\""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "aA\n\t\\");
        let v = Json::parse("\"héllo\"").unwrap();
        assert_eq!(v.as_str().unwrap(), "héllo");
        let v = Json::parse(r#""\b\f\/""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{8}\u{c}/");
        // A surrogate pair is one scalar; a lone surrogate is U+FFFD.
        let v = Json::parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{1F600}");
        let v = Json::parse(r#""\ud83dx\ude00\ud83d""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "\u{FFFD}x\u{FFFD}\u{FFFD}");
        assert!(Json::parse(r#""\u12""#).is_err());
        assert!(Json::parse(r#""\u+123""#).is_err());
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        // On a default-sized thread stack, like a serve connection's.
        let hostile = std::thread::spawn(|| Json::parse(&"[".repeat(100_000)).is_err());
        assert!(hostile.join().unwrap());
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 1 MiB of two-byte scalars, with an escape in the middle.
        let body = "é".repeat(1 << 18);
        let text = format!("\"{body}\\n{body}\"");
        let started = std::time::Instant::now();
        let v = Json::parse(&text).unwrap();
        assert!(started.elapsed() < std::time::Duration::from_secs(2));
        assert_eq!(v.as_str().unwrap().len(), 2 * body.len() + 1);
    }

    #[test]
    fn pretty_render_parses_back_to_the_same_value() {
        let doc = Json::Obj(vec![
            ("version".into(), Json::Num(1.0)),
            (
                "inner".into(),
                Json::Obj(vec![
                    ("xs".into(), Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)])),
                    ("name".into(), Json::Str("q".into())),
                ]),
            ),
            ("empty".into(), Json::Obj(Vec::new())),
        ]);
        let text = doc.render_pretty();
        assert_eq!(Json::parse(&text).unwrap(), doc);
        assert!(text.contains("  \"inner\": {\n"));
        assert!(text.contains("\"xs\": [1, 2.5]"));
        assert!(text.contains("\"empty\": {}"));
    }
}
