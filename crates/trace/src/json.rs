//! Minimal JSON, both halves (the workspace is dependency-free by
//! design).
//!
//! Reports are built as a [`Value`] tree and written with
//! [`Value::render`], the workspace's one JSON writer: every
//! `BENCH_*.json` artifact goes through it, so no caller tracks commas,
//! braces or escapes by hand. [`parse`] is the matching reader: tests and
//! gates look fields up by path instead of grepping substrings, so schema
//! drift fails as a field mismatch, not a fuzzy string miss, and
//! `parse(&v.render()) == Ok(v)` holds for every tree whose numbers are
//! finite (a seeded test pins it). The one other JSON text in the workspace is the Chrome
//! trace export, pinned byte for byte by its golden file.
//!
//! Numbers are kept as `f64` (every artifact value fits losslessly:
//! counters stay far below 2^53) and object keys keep their order.

use std::fmt::Write as _;

/// Deepest container nesting [`parse`] accepts. Deeper input is an
/// error, not a recursion that could exhaust the stack (`--profile-gate`
/// parses a file named on the command line).
const MAX_DEPTH: usize = 128;

/// A JSON value, parsed or built for rendering.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, keys in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// An object from `(key, value)` pairs, keys in the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Renders the value as JSON text in one fixed layout: a container
    /// whose members are all scalars prints on one line, any other
    /// non-empty container prints one member per line, indented two
    /// spaces per level. Integral numbers print as integers, others in
    /// Rust's shortest round-trip form; NaN and ±inf (which JSON cannot
    /// spell) print as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Value::Obj(members) => write_members(
                out,
                depth,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    /// Member lookup on an object (None on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number payload as u64 (rounded), if this is a number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().map(|n| n.round() as u64)
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn items(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The key/value pairs, if this is an object.
    pub fn entries(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
}

fn write_members<'a>(
    out: &mut String,
    depth: usize,
    (open, close): (char, char),
    members: impl Iterator<Item = (Option<&'a str>, &'a Value)> + Clone,
) {
    let flat = members
        .clone()
        .all(|(_, v)| !matches!(v, Value::Arr(_) | Value::Obj(_)));
    let pad = |out: &mut String, depth: usize| {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    };
    out.push(open);
    for (i, (key, v)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !flat {
            pad(out, depth + 1);
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(k) = key {
            write_str(out, k);
            out.push_str(": ");
        }
        v.write(out, depth + 1);
    }
    if !flat {
        pad(out, depth);
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if c < ' ' => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

macro_rules! from_num {
    ($($t:ty),*) => {$(
        impl From<$t> for Value {
            fn from(n: $t) -> Value {
                Value::Num(n as f64)
            }
        }
    )*};
}
from_num!(u64, usize, f64);

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

/// Collects into an array.
impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Value {
        Value::Arr(items.into_iter().map(Into::into).collect())
    }
}

/// Parses one JSON document. Trailing whitespace is allowed; trailing
/// garbage is an error.
pub fn parse(text: &str) -> Result<Value, String> {
    let b = text.as_bytes();
    let mut pos = 0;
    let v = value(b, &mut pos, 0)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing garbage at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => {
            Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", *pos))
        }
        Some(b'{') => object(b, pos, depth + 1),
        Some(b'[') => array(b, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(string(b, pos)?)),
        Some(b't') => lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => lit(b, pos, "null", Value::Null),
        Some(_) => number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn lit(b: &[u8], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        // Surrogate pairs don't appear in our artifacts;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            c => {
                // Multi-byte UTF-8 passes through untouched.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len])
                    .map_err(|_| format!("bad utf8 at byte {}", *pos))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
    Err("unterminated string".into())
}

fn array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(out));
    }
    loop {
        out.push(value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(out));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        let k = string(b, pos)?;
        expect(b, pos, b':')?;
        let v = value(b, pos, depth)?;
        out.push((k, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(out));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::test_runner::TestRng;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": 1, "b": [true, null, -2.5e1], "c": "x\ny"}"#).unwrap();
        assert_eq!(v.get("a").and_then(Value::as_u64), Some(1));
        let b = v.get("b").and_then(Value::items).unwrap();
        assert_eq!(b[0].as_bool(), Some(true));
        assert_eq!(b[1], Value::Null);
        assert_eq!(b[2].as_f64(), Some(-25.0));
        assert_eq!(v.get("c").and_then(Value::as_str), Some("x\ny"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn keys_keep_source_order() {
        let v = parse(r#"{"z": 0, "a": 1}"#).unwrap();
        let keys: Vec<_> = v
            .entries()
            .unwrap()
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn refuses_nesting_past_the_depth_limit() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).is_err());
        assert!(parse(&format!("{{\"a\": {}}}", nest(MAX_DEPTH))).is_err());
        // Unbalanced and far deeper than any stack could recurse: refused
        // with an error, not a stack overflow.
        assert!(parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn renders_one_fixed_layout() {
        let v = Value::obj([
            ("name", "a\"b".into()),
            ("n", 3u64.into()),
            ("x", 0.25.into()),
            ("none", Option::<u64>::None.into()),
            ("flat", Value::obj([("ok", true.into())])),
            ("empty", Value::Arr(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\n  \"name\": \"a\\\"b\",\n  \"n\": 3,\n  \"x\": 0.25,\n  \"none\": null,\n  \"flat\": {\"ok\": true},\n  \"empty\": []\n}"
        );
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Value::Num(x).render(), "null");
            assert_eq!(Value::Arr(vec![x.into()]).render(), "[null]");
        }
        assert_eq!(Value::from(1.0).render(), "1");
        assert_eq!(Value::from(-2.5e-7).render(), "-0.00000025");
    }

    /// A random tree: every container shape (empty, flat, nested), keys
    /// and strings with quotes, backslashes, control characters and
    /// non-ASCII text, and numbers from raw bit patterns plus negative,
    /// fractional, tiny and huge draws.
    fn arbitrary(rng: &mut TestRng, depth: u32) -> Value {
        fn text(rng: &mut TestRng) -> String {
            const CHARS: [char; 14] = [
                'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\r', '\u{1}', '\u{1f}', 'é', '€', '𝄞',
            ];
            (0..rng.below(6))
                .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                .collect()
        }
        fn number(rng: &mut TestRng) -> f64 {
            let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
            sign * match rng.below(5) {
                0 => rng.below(1 << 53) as f64,
                1 => rng.unit_f64() * 1e3,
                2 => rng.unit_f64() * 1e-300,
                3 => (1.0 + rng.unit_f64()) * 1e300,
                _ => Some(f64::from_bits(rng.next_u64()))
                    .filter(|x| x.is_finite())
                    .unwrap_or(0.0),
            }
        }
        let kinds = if depth == 0 { 4 } else { 6 };
        match rng.below(kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.below(2) == 1),
            2 => Value::Num(number(rng)),
            3 => Value::Str(text(rng)),
            4 => Value::Arr(
                (0..rng.below(4))
                    .map(|_| arbitrary(rng, depth - 1))
                    .collect(),
            ),
            _ => Value::obj(
                (0..rng.below(4))
                    .map(|_| (text(rng), arbitrary(rng, depth - 1)))
                    .collect::<Vec<_>>(),
            ),
        }
    }

    #[test]
    fn render_round_trips_through_parse() {
        let mut rng = TestRng::from_seed(0x6a73_6f6e);
        for _ in 0..2000 {
            let v = arbitrary(&mut rng, 4);
            let text = v.render();
            assert_eq!(parse(&text).as_ref(), Ok(&v), "{text}");
        }
    }
}
