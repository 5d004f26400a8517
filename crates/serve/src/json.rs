//! The workspace's shared hand-rolled JSON layer: a minimal reader and
//! the string-escaping writer helper.
//!
//! This workspace builds with zero registry access, so no serde. The
//! reader schema-checks the Table V exports, parses the serving
//! daemon's line protocol and loads the artifact store's documents.
//! It refuses nesting deeper than 128 levels, so no input can exhaust
//! the stack of the process reading it.
//!
//! Writers stay hand-rolled and **byte-deterministic** (fixed field
//! order, fixed float formatting, no timestamps); this module provides
//! the one piece every writer shares, [`json_string`], and
//! [`crate::codec`] the report columns.

/// The deepest array/object nesting [`parse_json`] accepts. Every
/// document this workspace writes nests at most three levels.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value (minimal reader; objects keep insertion order).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member lookup on objects (`None` elsewhere).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a JSON document (UTF-8 input; `\uXXXX` escapes including
/// UTF-16 surrogate pairs are decoded, malformed ones rejected).
pub fn parse_json(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

/// Quotes and escapes a string for JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            c as char,
            *pos,
            b.get(*pos).map(|&x| x as char)
        ))
    }
}

/// Parses one value whose opening bracket, if any, sits `depth` levels
/// deep.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, String> {
    skip_ws(b, pos);
    if matches!(b.get(*pos), Some(b'{' | b'[')) && depth >= MAX_DEPTH {
        return Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        ));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(pairs));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                pairs.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(pairs));
                    }
                    other => return Err(format!("expected ',' or '}}', found {other:?}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', found {other:?}")),
                }
            }
        }
        Some(b'"') => Ok(JsonValue::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", JsonValue::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {pos:?}"))
    }
}

/// Reads a number in the RFC 8259 grammar,
/// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`: no leading
/// `+`, no leading zeros, digits on both sides of a `.` and after an
/// exponent mark.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    let digits = |pos: &mut usize| {
        let from = *pos;
        while b.get(*pos).is_some_and(u8::is_ascii_digit) {
            *pos += 1;
        }
        *pos > from
    };
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let int_start = *pos;
    let mut ok = digits(pos) && (b[int_start] != b'0' || *pos == int_start + 1);
    if ok && b.get(*pos) == Some(&b'.') {
        *pos += 1;
        ok = digits(pos);
    }
    if ok && matches!(b.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(b.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        ok = digits(pos);
    }
    if !ok {
        // Name the scanned prefix plus the byte that broke the grammar.
        let seen = String::from_utf8_lossy(&b[start..(*pos + 1).min(b.len())]);
        return Err(format!("bad number {seen:?} at byte {start}"));
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    match text.parse::<f64>() {
        // `f64::from_str` rounds a literal past `f64::MAX` to ±∞, which
        // no JSON writer means and every bound check would wave through.
        Ok(v) if !v.is_finite() => Err(format!("number out of range {text:?} at byte {start}")),
        Ok(v) => Ok(JsonValue::Num(v)),
        Err(e) => Err(format!("bad number {text:?} at byte {start}: {e}")),
    }
}

/// Reads the four hex digits of a `\uXXXX` escape starting at `at`:
/// exactly four, so no sign or short form slips through.
fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    let hex = b
        .get(at..at + 4)
        .ok_or("truncated \\u escape".to_string())?;
    if !hex.iter().all(u8::is_ascii_hexdigit) {
        return Err(format!(
            "\\u escape {:?} is not four hex digits",
            String::from_utf8_lossy(hex)
        ));
    }
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|e| e.to_string())?, 16)
        .map_err(|e| e.to_string())
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = Vec::new();
    while *pos < b.len() {
        match b[*pos] {
            b'"' => {
                *pos += 1;
                return String::from_utf8(out).map_err(|e| e.to_string());
            }
            b'\\' => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push(b'"'),
                    Some(b'\\') => out.push(b'\\'),
                    Some(b'/') => out.push(b'/'),
                    Some(b'n') => out.push(b'\n'),
                    Some(b'r') => out.push(b'\r'),
                    Some(b't') => out.push(b'\t'),
                    Some(b'u') => {
                        let mut code = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xD800..=0xDBFF).contains(&code) {
                            // High surrogate: must pair with a \uXXXX
                            // low surrogate to form one scalar value.
                            if b.get(*pos + 1..*pos + 3) != Some(br"\u".as_slice()) {
                                return Err("high surrogate without \\u pair".into());
                            }
                            let low = parse_hex4(b, *pos + 3)?;
                            if !(0xDC00..=0xDFFF).contains(&low) {
                                return Err(format!("invalid low surrogate {low:#06x}"));
                            }
                            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            *pos += 6;
                        }
                        let c = char::from_u32(code).ok_or("bad \\u escape".to_string())?;
                        let mut buf = [0u8; 4];
                        out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            c => {
                out.push(c);
                *pos += 1;
            }
        }
    }
    Err("unterminated string".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrips_scalars_and_nesting() {
        let v = parse_json(r#"{"a": [1, -2.5, "x\n\"y\"", true, false, null], "b": {}}"#).unwrap();
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_str(), Some("x\n\"y\""));
        assert_eq!(arr[3].as_bool(), Some(true));
        assert_eq!(arr[4].as_bool(), Some(false));
        assert_eq!(arr[5], JsonValue::Null);
        assert_eq!(v.get("b"), Some(&JsonValue::Obj(vec![])));
    }

    #[test]
    fn json_rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{} x",
            "\"unterminated",
            r#""\ud83d alone""#, // high surrogate without its pair
            r#""\ud83dA""#,      // high surrogate + non-surrogate
            r#""\udE00""#,       // bare low surrogate
            "1e999",             // past f64::MAX: no JSON writer means ±∞
            "[0, -1e400]",
            // RFC 8259 number grammar.
            "+1",
            "01",
            "-01",
            "1.",
            ".5",
            "-.5",
            "1.e3",
            "1e",
            "1e+",
            "-",
            "--1",
            "0x10",
            "[1.5.2]",
            // Exactly four hex digits per escape.
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u041""#,
            r#""\ud83d\u+e00""#,
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn json_accepts_the_rfc_8259_number_forms() {
        for (text, v) in [
            ("0", 0.0_f64),
            ("-0", -0.0),
            ("7", 7.0),
            ("-12", -12.0),
            ("0.25", 0.25),
            ("10.5", 10.5),
            ("1e3", 1e3),
            ("1E+3", 1e3),
            ("25e-1", 2.5),
            ("-0.5E-2", -0.005),
        ] {
            let parsed = parse_json(text).unwrap().as_f64().unwrap();
            assert_eq!(parsed.to_bits(), v.to_bits(), "{text}");
        }
        assert_eq!(
            parse_json(r#""\u0041\u00E9""#).unwrap().as_str(),
            Some("Aé")
        );
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let arrays = "[".repeat(200_000);
        assert!(parse_json(&arrays).unwrap_err().contains("nesting deeper"));
        let objects = "{\"a\":".repeat(200_000);
        assert!(parse_json(&objects).unwrap_err().contains("nesting deeper"));
        // Exactly at the cap still parses; one more level does not.
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse_json(&at_cap).is_ok());
        let objs_at_cap = format!("{}1{}", "{\"a\":".repeat(MAX_DEPTH), "}".repeat(MAX_DEPTH));
        assert!(parse_json(&objs_at_cap).is_ok());
        let over = format!("[{at_cap}]");
        assert!(parse_json(&over).unwrap_err().contains("nesting deeper"));
    }

    #[test]
    fn json_decodes_unicode_escapes_including_surrogate_pairs() {
        // é = é (BMP), 😀 = U+1F600 (surrogate pair).
        let v = parse_json("\"caf\\u00e9 \\ud83d\\ude00\"").unwrap();
        assert_eq!(v.as_str(), Some("café \u{1F600}"));
        // Raw UTF-8 passes through untouched too.
        let raw = parse_json("\"café \u{1F600}\"").unwrap();
        assert_eq!(raw.as_str(), Some("café \u{1F600}"));
    }

    #[test]
    fn json_string_escaping_roundtrips() {
        let nasty = "line\nbreak \"quoted\" back\\slash \t tab \u{1} ctrl";
        let doc = format!("{{\"s\": {}}}", json_string(nasty));
        let parsed = parse_json(&doc).unwrap();
        assert_eq!(parsed.get("s").and_then(JsonValue::as_str), Some(nasty));
    }

    #[test]
    fn floats_written_with_display_roundtrip_exactly() {
        // The artifact store and the line protocol serialize f64 with
        // Rust's shortest round-trip `Display`; the reader must get the
        // identical bits back. Probe a spread of awkward values.
        for v in [
            0.0,
            9.7,
            1.0 / 3.0,
            8.654_321_012_345,
            f64::MIN_POSITIVE,
            f64::MAX,
            123_456_789.987_654_32,
            -0.000_001_234_567_890_1,
        ] {
            let doc = format!("{{\"v\": {v}}}");
            let parsed = parse_json(&doc).unwrap();
            let back = parsed.get("v").and_then(JsonValue::as_f64).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v} did not roundtrip");
        }
    }
}
