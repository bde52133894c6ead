//! JSON text ↔ [`serde::Value`] — the workspace's one text codec.
//!
//! The vendored `serde` is a value-tree stand-in with no text format of
//! its own, so this module carries one: a writer and a recursive-descent
//! parser covering exactly the JSON subset the workspace needs. It
//! started life inside `mps-serve` as the wire codec for the
//! newline-delimited protocol; persistent artifacts (see
//! [`crate::artifact`]) travel through the same parser, which is why it
//! now lives here in core where both layers can reach it. The mapping is
//! the obvious one — [`Value::Unit`] ↔ `null`, [`Value::Map`] ↔ object
//! (field order preserved), numbers classed on parse as unsigned /
//! signed / float by shape. Round-tripping is pinned by the tests below;
//! emitted text never contains a raw newline, which is what makes
//! one-line-per-message framing safe.
//!
//! ## Number overflow policy
//!
//! Artifact files are parsed on trust boundaries (a cache directory
//! surviving across builds), so out-of-range numbers are **rejected with
//! a [`ParseError`], never silently wrapped or saturated**:
//!
//! * `18446744073709551616` (one past `u64::MAX`) and any other
//!   unsigned-shaped literal too large for `u64` → error;
//! * `-9223372036854775809` (one past `i64::MIN`) → error;
//! * float-shaped literals whose magnitude overflows `f64` (`1e400`) →
//!   error — Rust's `str::parse::<f64>` would happily return `inf`,
//!   which this writer cannot even re-emit (non-finite renders as
//!   `null`), so it is refused on the way in;
//! * `-0` is signed-shaped and parses to [`Value::I64`]`(0)` — the sign
//!   is not preserved (integers have no negative zero);
//! * tiny magnitudes are *not* errors: `1e-400` underflows gracefully to
//!   `0.0`, exactly as `str::parse::<f64>` defines it.
//!
//! ## Linear time
//!
//! Both directions run in time linear in the text, so a request line at
//! the daemon's 1 MiB cap decodes in milliseconds. Strings move in runs:
//! the parser copies each maximal run of bytes other than `"`, `\` and
//! the control bytes below 0x20 with one `push_str` from the input, and
//! the writer does the same from the source string. Every delimiter is
//! ASCII, and no byte of a multi-byte UTF-8 sequence is below 0x80, so
//! every run boundary is a char boundary of input that is already valid
//! UTF-8 — no byte is decoded or re-validated one char at a time.

use serde::Value;
use std::fmt::Write as _;

/// Render a value as compact single-line JSON.
///
/// Strings escape `"`, `\` and all control characters (`\n`, `\t`, … and
/// `\u00XX` for the rest), so the output is always newline-free. `NaN`
/// and infinities have no JSON spelling; they render as `null`, like
/// `serde_json` does.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(&mut out, value);
    out
}

fn write_into(out: &mut String, value: &Value) {
    match value {
        Value::Unit => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::U64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::I64(n) => {
            let _ = write!(out, "{n}");
        }
        Value::F64(x) => {
            if x.is_finite() {
                // `{x:?}` is shortest-round-trip and always keeps a `.0`
                // or exponent on integral values, so the reader classes
                // it back as a float.
                let _ = write!(out, "{x:?}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_str(out, s),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(out, item);
            }
            out.push(']');
        }
        Value::Map(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_str(out, key);
                out.push(':');
                write_into(out, item);
            }
            out.push('}');
        }
    }
}

/// Whether `b` stands for itself inside a JSON string: anything but the
/// two delimiters and the control bytes. Bytes of multi-byte UTF-8
/// sequences (all ≥ 0x80) are plain, so a run of plain bytes always
/// starts and ends on a char boundary.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

fn write_str(out: &mut String, s: &str) {
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        out.push_str(&s[run..i]);
        run = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Parse one JSON document into a [`Value`].
///
/// Numbers are classed by shape: a mantissa dot or exponent makes an
/// [`Value::F64`], a leading minus an [`Value::I64`], anything else a
/// [`Value::U64`]. Out-of-range literals are a [`ParseError`], never a
/// silent wrap — see the module docs for the exact policy. Errors carry
/// a byte offset and a short description.
pub fn parse(text: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        text,
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(value)
}

/// A JSON syntax error: what went wrong and the byte offset it went
/// wrong at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Short description of the failure.
    pub message: String,
    /// Byte offset into the input.
    pub offset: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Value::Unit),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.seq(),
            Some(b'{') => self.map(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn seq(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Seq(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Seq(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn map(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(fields));
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
                    return Ok(Value::Map(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.pos;
            while self.peek().is_some_and(is_plain) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .text
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            self.pos += 4;
                            // Surrogates don't occur in our own output;
                            // map them to the replacement character
                            // rather than rejecting foreign input.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut float = false;
        if self.peek() == Some(b'.') {
            float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = &self.text[start..self.pos];
        if float {
            // `str::parse::<f64>` accepts overflowing literals and hands
            // back ±inf; that would wrap silently through this codec
            // (the writer spells non-finite as null), so refuse it here.
            // Graceful underflow to 0.0 stays accepted.
            match text.parse::<f64>() {
                Ok(x) if x.is_finite() => Ok(Value::F64(x)),
                Ok(_) => Err(self.err("number overflows f64")),
                Err(_) => Err(self.err("invalid number")),
            }
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| self.err("number out of range for i64"))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.err("number out of range for u64"))
        }
    }
}

/// Field lookup on a parsed object, for hand-rolled decoders.
pub fn field<'v>(value: &'v Value, name: &str) -> Option<&'v Value> {
    match value {
        Value::Map(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// Move a field's value out of a parsed object, leaving `null` in its
/// place: [`field`] for decoders that keep what they find, so a large
/// string or subtree changes owner instead of being deep-copied.
pub fn take_field(value: &mut Value, name: &str) -> Option<Value> {
    match value {
        Value::Map(fields) => fields
            .iter_mut()
            .find(|(k, _)| k == name)
            .map(|(_, v)| std::mem::replace(v, Value::Unit)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        for (v, text) in [
            (Value::Unit, "null"),
            (Value::Bool(true), "true"),
            (Value::Bool(false), "false"),
            (Value::U64(42), "42"),
            (Value::I64(-7), "-7"),
            (Value::Str("a\"b\\c\nd".into()), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(write(&v), text);
            assert_eq!(parse(text).unwrap(), v);
        }
        // Floats keep their float-ness through the round trip.
        assert_eq!(write(&Value::F64(1.0)), "1.0");
        assert_eq!(parse("1.0").unwrap(), Value::F64(1.0));
        assert_eq!(parse("2.5e-3").unwrap(), Value::F64(0.0025));
        assert_eq!(write(&Value::F64(f64::NAN)), "null");
    }

    #[test]
    fn nested_structures_round_trip() {
        let v = Value::Map(vec![
            ("op".into(), Value::Str("compile".into())),
            ("span".into(), Value::Unit),
            (
                "sizes".into(),
                Value::Seq(vec![Value::U64(1), Value::U64(2)]),
            ),
            (
                "nested".into(),
                Value::Map(vec![("x".into(), Value::F64(0.25))]),
            ),
        ]);
        let text = write(&v);
        assert_eq!(
            text,
            r#"{"op":"compile","span":null,"sizes":[1,2],"nested":{"x":0.25}}"#
        );
        assert_eq!(parse(&text).unwrap(), v);
        // Whitespace-tolerant on the way in.
        let spaced = "{ \"op\" : \"compile\" ,\t\"span\": null , \"sizes\": [ 1 , 2 ] , \"nested\": { \"x\" : 0.25 } }";
        assert_eq!(parse(spaced).unwrap(), v);
    }

    #[test]
    fn output_is_single_line_even_for_wild_strings() {
        let v = Value::Str("line1\nline2\r\tcontrol:\u{1}".into());
        let text = write(&v);
        assert!(!text.contains('\n') && !text.contains('\r'), "{text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn errors_carry_offsets() {
        let e = parse("{\"a\": }").unwrap_err();
        assert_eq!(e.offset, 6);
        assert!(parse("").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("12 34").unwrap_err().message.contains("trailing"));
        assert!(parse("\"\u{1}\"").is_err(), "raw control char rejected");
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_wrapped() {
        // Exactly representable extremes still parse…
        assert_eq!(parse("18446744073709551615").unwrap(), Value::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Value::I64(i64::MIN));
        // …one past them is a ParseError, not a silent wrap.
        let e = parse("18446744073709551616").unwrap_err();
        assert!(e.message.contains("u64"), "{e}");
        let e = parse("-9223372036854775809").unwrap_err();
        assert!(e.message.contains("i64"), "{e}");
        // Inside a document, the offset points at the bad literal's end.
        assert!(parse(r#"{"n":18446744073709551616}"#).is_err());
    }

    #[test]
    fn overflowing_floats_are_rejected_tiny_ones_underflow() {
        // 1e400 parses to inf via str::parse::<f64>; the codec refuses it.
        let e = parse("1e400").unwrap_err();
        assert!(e.message.contains("overflows"), "{e}");
        assert!(parse("-1e400").is_err());
        assert!(parse(r#"[1.0,1e999]"#).is_err());
        // Large *negative* exponents underflow gracefully to zero.
        assert_eq!(parse("1e-400").unwrap(), Value::F64(0.0));
        // -0 is signed-shaped: the sign is dropped on an integer zero.
        assert_eq!(parse("-0").unwrap(), Value::I64(0));
        // -0.0 keeps the float sign bit (floats do have negative zero).
        match parse("-0.0").unwrap() {
            Value::F64(x) => assert!(x == 0.0 && x.is_sign_negative()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn derived_structs_serialize_through_to_value() {
        #[derive(serde::Serialize)]
        struct Probe {
            name: String,
            count: u64,
            span: Option<u32>,
        }
        let text = write(&serde::to_value(&Probe {
            name: "fig2".into(),
            count: 3,
            span: None,
        }));
        assert_eq!(text, r#"{"name":"fig2","count":3,"span":null}"#);
    }

    /// The char-at-a-time string scanner the run-copying one replaced,
    /// kept verbatim as the oracle for [`Parser::string`]. It re-validates
    /// the rest of the input for every char, so it is quadratic.
    impl Parser<'_> {
        fn string_reference(&mut self) -> Result<String, ParseError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                        self.pos += 1;
                        match esc {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                let hex = self
                                    .bytes
                                    .get(self.pos..self.pos + 4)
                                    .and_then(|h| std::str::from_utf8(h).ok())
                                    .ok_or_else(|| self.err("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|_| self.err("invalid \\u escape"))?;
                                self.pos += 4;
                                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            }
                            _ => return Err(self.err("unknown escape")),
                        }
                    }
                    Some(_) => {
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.err("invalid UTF-8"))?;
                        let c = rest
                            .chars()
                            .next()
                            .ok_or_else(|| self.err("unterminated string"))?;
                        if (c as u32) < 0x20 {
                            return Err(self.err("raw control character in string"));
                        }
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                    None => return Err(self.err("unterminated string")),
                }
            }
        }
    }

    /// [`parse`] of a document holding one string literal, through the
    /// reference scanner.
    fn parse_string_reference(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = Value::Str(p.string_reference()?);
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after JSON value"));
        }
        Ok(value)
    }

    /// The per-char string writer the run-pushing one replaced.
    fn write_str_reference(s: &str) -> String {
        let mut out = String::from('"');
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
        out
    }

    /// One piece of string-literal text: plain chars of every UTF-8
    /// width, every escape, raw control bytes (kind 6) and malformed
    /// escapes (kind 7).
    fn fragment(kind: u8, n: u32) -> String {
        let pick = |lo: u32, hi: u32| char::from_u32(lo + n % (hi - lo)).expect("scalar");
        match kind {
            0 => pick(0x20, 0x7f).to_string(),
            1 => pick(0x80, 0x800).to_string(),
            2 => pick(0x800, 0xd800).to_string(),
            3 => pick(0x10000, 0x110000).to_string(),
            4 => ["\\\"", "\\\\", "\\/", "\\n", "\\r", "\\t", "\\b", "\\f"][n as usize % 8].into(),
            5 if n & 1 == 0 => format!("\\u{:04x}", n >> 16),
            5 => format!("\\u{:04X}", n >> 16),
            6 => pick(0, 0x20).to_string(),
            7 => [
                "\\x", "\\u12", "\\uZZZZ", "\\u+12f", "\\u1é", "\\", "\u{7f}", "\"",
            ][n as usize % 8]
                .into(),
            // Mostly valid pieces, so long literals reach their end.
            k => fragment(k % 6, n),
        }
    }

    /// A random string mixing every character class the writer treats
    /// differently: 1- to 4-byte chars, control chars, `"` and `\`.
    fn wild_string(chars: &[(u8, u32)]) -> String {
        chars
            .iter()
            .map(|&(kind, n)| match kind {
                4 => fragment(6, n),
                5 => ["\"", "\\"][n as usize % 2].into(),
                k => fragment(k, n),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The run-copying scanner decodes every string literal — valid
        /// or not — exactly as the char-at-a-time one: the same value,
        /// or the same error message at the same offset.
        #[test]
        fn string_scanner_matches_char_at_a_time_reference(
            pieces in proptest::collection::vec((0u8..32, proptest::any::<u32>()), 0..40),
            end in 0u8..4,
        ) {
            let mut doc = String::from('"');
            for &(kind, n) in &pieces {
                doc.push_str(&fragment(kind, n));
            }
            doc.push_str(["\"", "", "\" ", "\"x"][end as usize]);
            proptest::prop_assert_eq!(parse(&doc), parse_string_reference(&doc), "{:?}", doc);
        }

        /// The run-pushing writer is byte-identical to the per-char one,
        /// and its output parses back to the same string.
        #[test]
        fn string_writer_matches_per_char_reference(
            chars in proptest::collection::vec((0u8..6, proptest::any::<u32>()), 0..40),
        ) {
            let s = wild_string(&chars);
            let text = write(&Value::Str(s.clone()));
            proptest::prop_assert_eq!(&text, &write_str_reference(&s));
            proptest::prop_assert_eq!(parse(&text), Ok(Value::Str(s)));
        }
    }

    /// A string literal of about 1 MiB — ASCII, 2- to 4-byte UTF-8 and
    /// escapes — decodes in linear time. The char-at-a-time scanner this
    /// replaced re-validated the rest of the input for every char: a
    /// 0.95 MB request line took 15 s in a debug build on a 2-vCPU x86-64
    /// VM.
    #[test]
    fn megabyte_string_parses_in_linear_time() {
        let s = "node n1 add é € 🦀\n".repeat(43_000);
        let text = write(&Value::Str(s.clone()));
        assert!(text.len() > 1 << 20, "{} bytes", text.len());
        let start = std::time::Instant::now();
        let value = parse(&text).expect("valid JSON");
        let took = start.elapsed();
        assert_eq!(value, Value::Str(s));
        assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
    }

    #[test]
    fn field_lookup() {
        let v = parse(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(field(&v, "a"), Some(&Value::U64(1)));
        assert_eq!(field(&v, "b"), Some(&Value::Str("x".into())));
        assert_eq!(field(&v, "c"), None);
        assert_eq!(field(&Value::U64(1), "a"), None);
    }

    #[test]
    fn take_field_moves_the_value_out() {
        let mut v = parse(r#"{"a":1,"b":"x"}"#).unwrap();
        assert_eq!(take_field(&mut v, "b"), Some(Value::Str("x".into())));
        assert_eq!(field(&v, "b"), Some(&Value::Unit));
        assert_eq!(field(&v, "a"), Some(&Value::U64(1)));
        assert_eq!(take_field(&mut v, "c"), None);
        assert_eq!(take_field(&mut Value::U64(1), "a"), None);
    }
}
