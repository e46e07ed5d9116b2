//! The one JSON emitter/parser behind every bench artifact
//! (`BENCH_compile_time.json`, stats, dynstats, `snslp-report/v1`): a tiny
//! value type so the workspace stays free of external crates.
//!
//! All strict readers go through [`check_schema`] so a wrong or missing
//! schema tag fails with the same message everywhere.

use std::fmt::Write as _;

/// A JSON value. Numbers are `f64` (the reports only carry timings and
/// rates); object keys keep insertion order so emitted files are stable.
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

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Pretty-prints with two-space indentation and a trailing newline
    /// (so the checked-in file diffs cleanly).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    /// Renders on one line with no inter-token whitespace and no trailing
    /// newline — the framing the compile service's newline-delimited JSON
    /// protocol requires (one value per line; embedded newlines are
    /// escaped by the string emitter).
    pub fn render_compact(&self) -> String {
        let mut out = String::new();
        self.render_compact_into(&mut out);
        out
    }

    fn render_compact_into(&self, out: &mut String) {
        match self {
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_compact_into(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_compact_into(out);
                    out.push(':');
                    v.render_compact_into(out);
                }
                out.push('}');
            }
            leaf => leaf.render_into(out, 0),
        }
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                // Integral values print without a fraction; everything
                // else gets enough digits to round-trip timings.
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
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
                    out.push('\n');
                    pad(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
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
                    out.push('\n');
                    pad(out, indent + 1);
                    Json::Str(k.clone()).render_into(out, indent + 1);
                    out.push_str(": ");
                    v.render_into(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document. Errors carry the byte offset they were
    /// detected at.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Validates a parsed document's `schema` tag against the expected
/// version. Every strict reader calls this, so a stale or foreign file
/// fails with the same phrasing regardless of which artifact it was.
pub fn check_schema(doc: &Json, expected: &str) -> Result<(), String> {
    match doc.get("schema").and_then(Json::as_str) {
        None => Err(format!("missing schema tag (expected `{expected}`)")),
        Some(found) if found != expected => Err(format!(
            "schema mismatch: found `{found}`, expected `{expected}`"
        )),
        Some(_) => Ok(()),
    }
}

/// Rounds to three decimals — the emission precision for every timing and
/// rate in the bench artifacts.
pub fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == b {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, *pos))
    }
}

fn parse_value(text: &str, pos: &mut usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err("unexpected end of input".to_string());
    };
    match b {
        b'{' => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        b'"' => Ok(Json::Str(parse_string(text, pos)?)),
        b't' => parse_lit(bytes, pos, "true", Json::Bool(true)),
        b'f' => parse_lit(bytes, pos, "false", Json::Bool(false)),
        b'n' => parse_lit(bytes, pos, "null", Json::Null),
        _ => parse_number(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        // Copy everything up to the next delimiter as one slice. Both
        // delimiters are ASCII, so the run ends on a char boundary.
        let Some(run) = bytes[*pos..].iter().position(|&b| b == b'"' || b == b'\\') else {
            return Err("unterminated string".to_string());
        };
        out.push_str(&text[*pos..*pos + run]);
        *pos += run + 1;
        if bytes[*pos - 1] == b'"' {
            return Ok(out);
        }
        let Some(&esc) = bytes.get(*pos) else {
            return Err("unterminated escape".to_string());
        };
        *pos += 1;
        match esc {
            b'"' => out.push('"'),
            b'\\' => out.push('\\'),
            b'/' => out.push('/'),
            b'n' => out.push('\n'),
            b't' => out.push('\t'),
            b'r' => out.push('\r'),
            b'b' => out.push('\u{8}'),
            b'f' => out.push('\u{c}'),
            b'u' => {
                let hex = bytes
                    .get(*pos..*pos + 4)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                let code = u32::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                *pos += 4;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
            }
            _ => return Err(format!("bad escape at byte {}", *pos - 1)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_values_round_trip() {
        let text =
            r#"{"a": [1, 2.5, -3e2], "b": "x\"\né", "c": null, "d": [true, false], "e": {}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\"\né"));
        let again = Json::parse(&v.render()).unwrap();
        assert_eq!(v, again);
    }

    #[test]
    fn compact_rendering_is_one_line_and_round_trips() {
        let v = Json::parse(r#"{"a": [1, 2.5], "b": "x\ny", "c": null}"#).unwrap();
        let line = v.render_compact();
        assert!(!line.contains('\n'));
        assert_eq!(line, r#"{"a":[1,2.5],"b":"x\ny","c":null}"#);
        assert_eq!(Json::parse(&line).unwrap(), v);
    }

    /// The char-by-char decoder the run-based [`parse_string`] replaced,
    /// kept as the reference for the equivalence test.
    fn parse_string_by_chars(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(bytes, pos, b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = bytes.get(*pos) else {
                return Err("unterminated string".to_string());
            };
            *pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = bytes.get(*pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    *pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = bytes
                                .get(*pos..*pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                            *pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                    }
                }
                _ => {
                    // Re-sync to char boundary for multi-byte UTF-8.
                    let s = &bytes[*pos - 1..];
                    let ch_len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&s[..ch_len.min(s.len())])
                        .map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                    *pos += ch_len - 1;
                }
            }
        }
    }

    #[test]
    fn run_decoder_matches_char_decoder() {
        // Pieces chosen to hit every branch: plain and multibyte runs,
        // every escape, valid / invalid / surrogate / signed `\u` hex,
        // `\u` running into a multibyte char, raw control bytes, bad
        // escapes, and strings cut off inside a run or an escape.
        const PIECES: &[&str] = &[
            "a",
            "plain text ",
            "é",
            "€",
            "😀",
            "\u{10ffff}",
            "\u{7f}",
            "\"",
            "\\\"",
            "\\\\",
            "\\/",
            "\\n",
            "\\t",
            "\\r",
            "\\b",
            "\\f",
            "\\u0041",
            "\\u00e9",
            "\\uD83D",
            "\\uffff",
            "\\u+abc",
            "\\u12g4",
            "\\u12",
            "\\u1é",
            "\\x",
            "\\é",
            "\\",
            "\u{0}",
            "\u{1f}",
            "\n",
            "\t",
            "}",
            ":",
            ",",
        ];
        let mut rng = snslp_fuzz::Rng::new(0x15_0A);
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.below(12) {
                text.push_str(rng.pick::<&str>(PIECES));
            }
            if rng.chance(3, 4) {
                text.push('"');
            }
            if rng.chance(1, 4) {
                text.push_str(rng.pick::<&str>(PIECES));
            }
            let (mut new_pos, mut old_pos) = (0, 0);
            let new = parse_string(&text, &mut new_pos);
            let old = parse_string_by_chars(text.as_bytes(), &mut old_pos);
            assert_eq!(new, old, "decoders disagree on {text:?}");
            if new.is_ok() {
                accepted += 1;
                assert_eq!(new_pos, old_pos, "end offsets disagree on {text:?}");
            }
        }
        // Both outcomes must be well represented for the check to mean
        // anything.
        assert!((2_000..18_000).contains(&accepted), "accepted {accepted}");
    }

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(Json::parse("{} extra").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn schema_errors_are_uniform() {
        let doc = Json::parse(r#"{"schema": "nope/v9"}"#).unwrap();
        let err = check_schema(&doc, "snslp-stats/v1").unwrap_err();
        assert_eq!(
            err,
            "schema mismatch: found `nope/v9`, expected `snslp-stats/v1`"
        );
        let doc = Json::parse("{}").unwrap();
        let err = check_schema(&doc, "snslp-report/v1").unwrap_err();
        assert_eq!(err, "missing schema tag (expected `snslp-report/v1`)");
        let doc = Json::parse(r#"{"schema": "snslp-report/v1"}"#).unwrap();
        assert!(check_schema(&doc, "snslp-report/v1").is_ok());
    }
}
