//! A minimal JSON engine for the interchange formats.
//!
//! The workspace vendors its few dependencies (see `vendor/README.md`),
//! so there is no serde; this module provides the small JSON subset the
//! interchange formats need, in two layers:
//!
//! * `JsonLexer` — a pull tokenizer over any [`BufRead`] with line
//!   tracking and one-token lookahead. The dbcop reader walks it
//!   directly so a multi-megabyte document streams one transaction at a
//!   time.
//! * [`JsonValue`] — a tree built by `parse_value` (or
//!   [`JsonValue::parse_str`] for whole strings), used for bounded
//!   pieces: one JSONL line, one dbcop transaction object, the corpus
//!   manifest.
//!
//! Numbers are restricted to unsigned 64-bit integers — every numeric
//! field of every format this crate speaks (ids, timestamps, values,
//! versions) is one — and anything else is a typed syntax error rather
//! than a lossy conversion.

use crate::{Format, IoFormatError};
use std::io::BufRead;

/// One JSON token.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) enum JsonToken {
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `:`
    Colon,
    /// `,`
    Comma,
    /// A string literal (unescaped).
    Str(String),
    /// An unsigned integer literal.
    Int(u64),
    /// `true` / `false`
    Bool(bool),
    /// `null`
    Null,
}

impl JsonToken {
    fn describe(&self) -> String {
        match self {
            JsonToken::LBrace => "'{'".into(),
            JsonToken::RBrace => "'}'".into(),
            JsonToken::LBracket => "'['".into(),
            JsonToken::RBracket => "']'".into(),
            JsonToken::Colon => "':'".into(),
            JsonToken::Comma => "','".into(),
            JsonToken::Str(s) => format!("string \"{s}\""),
            JsonToken::Int(n) => format!("number {n}"),
            JsonToken::Bool(b) => format!("{b}"),
            JsonToken::Null => "null".into(),
        }
    }
}

/// Streaming JSON tokenizer with line tracking and one-token lookahead.
pub(crate) struct JsonLexer<R: BufRead> {
    r: R,
    /// Which format's errors this lexer reports (dbcop or jsonl).
    format: Format,
    line: usize,
    peeked_byte: Option<u8>,
    peeked_token: Option<JsonToken>,
}

impl<R: BufRead> JsonLexer<R> {
    /// A lexer over `r`, attributing errors to `format`.
    pub(crate) fn new(r: R, format: Format) -> JsonLexer<R> {
        JsonLexer { r, format, line: 1, peeked_byte: None, peeked_token: None }
    }

    /// Current 1-based line number (for error reporting).
    pub(crate) fn line(&self) -> usize {
        self.line
    }

    /// Build a syntax error at the current line.
    pub(crate) fn err(&self, msg: impl Into<String>) -> IoFormatError {
        IoFormatError::Syntax { format: self.format, line: self.line, msg: msg.into() }
    }

    fn next_byte(&mut self) -> Result<Option<u8>, IoFormatError> {
        if let Some(b) = self.peeked_byte.take() {
            return Ok(Some(b));
        }
        let mut buf = [0u8; 1];
        match self.r.read(&mut buf) {
            Ok(0) => Ok(None),
            Ok(_) => {
                if buf[0] == b'\n' {
                    self.line += 1;
                }
                Ok(Some(buf[0]))
            }
            Err(e) => Err(IoFormatError::Io(e)),
        }
    }

    fn unread(&mut self, b: u8) {
        debug_assert!(self.peeked_byte.is_none());
        self.peeked_byte = Some(b);
    }

    /// Peek the next token without consuming it.
    pub(crate) fn peek_token(&mut self) -> Result<Option<&JsonToken>, IoFormatError> {
        if self.peeked_token.is_none() {
            self.peeked_token = self.lex_token()?;
        }
        Ok(self.peeked_token.as_ref())
    }

    /// Consume and return the next token (`None` at end of input).
    pub(crate) fn next_token(&mut self) -> Result<Option<JsonToken>, IoFormatError> {
        if let Some(t) = self.peeked_token.take() {
            return Ok(Some(t));
        }
        self.lex_token()
    }

    /// Consume the next token, failing on end of input.
    pub(crate) fn expect_some(&mut self) -> Result<JsonToken, IoFormatError> {
        self.next_token()?.ok_or_else(|| self.err("unexpected end of input"))
    }

    /// Consume the next token and require it to equal `want`.
    pub(crate) fn expect(&mut self, want: &JsonToken) -> Result<(), IoFormatError> {
        let got = self.expect_some()?;
        if &got == want {
            Ok(())
        } else {
            Err(self.err(format!("expected {}, found {}", want.describe(), got.describe())))
        }
    }

    fn lex_token(&mut self) -> Result<Option<JsonToken>, IoFormatError> {
        // Skip whitespace.
        let b = loop {
            match self.next_byte()? {
                None => return Ok(None),
                Some(b) if b.is_ascii_whitespace() => continue,
                Some(b) => break b,
            }
        };
        let tok = match b {
            b'{' => JsonToken::LBrace,
            b'}' => JsonToken::RBrace,
            b'[' => JsonToken::LBracket,
            b']' => JsonToken::RBracket,
            b':' => JsonToken::Colon,
            b',' => JsonToken::Comma,
            b'"' => JsonToken::Str(self.lex_string()?),
            b'0'..=b'9' => JsonToken::Int(self.lex_int(b)?),
            b'-' => return Err(self.err("negative numbers are outside the interchange subset")),
            b't' | b'f' | b'n' => self.lex_word(b)?,
            other => return Err(self.err(format!("unexpected byte 0x{other:02x}"))),
        };
        Ok(Some(tok))
    }

    fn lex_string(&mut self) -> Result<String, IoFormatError> {
        // Accumulate raw bytes and validate UTF-8 once at the end, so
        // multi-byte characters in free-text fields (dbcop `info`
        // strings) survive intact and invalid sequences are typed
        // errors, not mojibake.
        let mut out: Vec<u8> = Vec::new();
        let push_char = |out: &mut Vec<u8>, c: char| {
            let mut buf = [0u8; 4];
            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
        };
        loop {
            let b = self.next_byte()?.ok_or_else(|| self.err("unterminated string"))?;
            match b {
                b'"' => {
                    return String::from_utf8(out).map_err(|_| self.err("invalid utf-8 in string"));
                }
                b'\\' => {
                    let e = self.next_byte()?.ok_or_else(|| self.err("unterminated escape"))?;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let unit = self.lex_code_unit()?;
                            let c = match unit {
                                // High surrogate: a low surrogate must
                                // follow (JSON encodes non-BMP chars as
                                // pairs).
                                0xD800..=0xDBFF => {
                                    let lead = |me: &Self, what: &str| {
                                        me.err(format!(
                                            "high surrogate \\u{unit:04x} followed by {what}, \
                                             expected a low surrogate"
                                        ))
                                    };
                                    match (self.next_byte()?, self.next_byte()?) {
                                        (Some(b'\\'), Some(b'u')) => {}
                                        _ => return Err(lead(self, "something else")),
                                    }
                                    let low = self.lex_code_unit()?;
                                    if !(0xDC00..=0xDFFF).contains(&low) {
                                        return Err(lead(self, &format!("\\u{low:04x}")));
                                    }
                                    let code = 0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(code)
                                        .ok_or_else(|| self.err("surrogate pair out of range"))?
                                }
                                0xDC00..=0xDFFF => {
                                    return Err(
                                        self.err(format!("lone low surrogate \\u{unit:04x}"))
                                    )
                                }
                                code => char::from_u32(code)
                                    .ok_or_else(|| self.err("\\u escape is not a character"))?,
                            };
                            push_char(&mut out, c);
                        }
                        other => {
                            return Err(self.err(format!("unknown escape '\\{}'", other as char)))
                        }
                    }
                }
                other => out.push(other),
            }
        }
    }

    /// Read the four hex digits of a `\u` escape (after the `\u`).
    fn lex_code_unit(&mut self) -> Result<u32, IoFormatError> {
        let mut code = 0u32;
        for _ in 0..4 {
            let h = self.next_byte()?.ok_or_else(|| self.err("unterminated \\u escape"))?;
            let d = (h as char).to_digit(16).ok_or_else(|| self.err("bad \\u escape digit"))?;
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn lex_int(&mut self, first: u8) -> Result<u64, IoFormatError> {
        let mut v: u64 = u64::from(first - b'0');
        loop {
            match self.next_byte()? {
                Some(b @ b'0'..=b'9') => {
                    v = v
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(u64::from(b - b'0')))
                        .ok_or_else(|| self.err("integer overflows u64"))?;
                }
                Some(b @ (b'.' | b'e' | b'E')) => {
                    return Err(self.err(format!(
                        "non-integer number (found '{}'): outside the interchange subset",
                        b as char
                    )));
                }
                Some(b) => {
                    self.unread(b);
                    return Ok(v);
                }
                None => return Ok(v),
            }
        }
    }

    fn lex_word(&mut self, first: u8) -> Result<JsonToken, IoFormatError> {
        let mut word = String::new();
        word.push(first as char);
        loop {
            match self.next_byte()? {
                Some(b @ b'a'..=b'z') => word.push(b as char),
                Some(b) => {
                    self.unread(b);
                    break;
                }
                None => break,
            }
        }
        match word.as_str() {
            "true" => Ok(JsonToken::Bool(true)),
            "false" => Ok(JsonToken::Bool(false)),
            "null" => Ok(JsonToken::Null),
            other => Err(self.err(format!("unknown word '{other}'"))),
        }
    }
}

/// A parsed JSON value tree (integer-only numbers; object key order
/// preserved).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An unsigned integer.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in source key order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete string as one JSON value (trailing content is an
    /// error). `format` attributes syntax errors.
    pub fn parse_str(s: &str, format: Format) -> Result<JsonValue, IoFormatError> {
        let mut lx = JsonLexer::new(s.as_bytes(), format);
        let v = parse_value(&mut lx)?;
        match lx.next_token()? {
            None => Ok(v),
            Some(t) => Err(lx.err(format!("trailing {} after value", t.describe()))),
        }
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Integer accessor.
    pub fn as_int(&self) -> Option<u64> {
        match self {
            JsonValue::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array accessor.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Bool accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Parse one complete value from the lexer (used mid-stream by the dbcop
/// reader: one transaction object at a time, never the whole document).
pub(crate) fn parse_value<R: BufRead>(lx: &mut JsonLexer<R>) -> Result<JsonValue, IoFormatError> {
    let tok = lx.expect_some()?;
    parse_value_from(lx, tok)
}

/// Parse the value whose first token has already been consumed.
pub(crate) fn parse_value_from<R: BufRead>(
    lx: &mut JsonLexer<R>,
    first: JsonToken,
) -> Result<JsonValue, IoFormatError> {
    match first {
        JsonToken::Null => Ok(JsonValue::Null),
        JsonToken::Bool(b) => Ok(JsonValue::Bool(b)),
        JsonToken::Int(n) => Ok(JsonValue::Int(n)),
        JsonToken::Str(s) => Ok(JsonValue::Str(s)),
        JsonToken::LBracket => {
            let mut items = Vec::new();
            if lx.peek_token()? == Some(&JsonToken::RBracket) {
                lx.next_token()?;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(lx)?);
                match lx.expect_some()? {
                    JsonToken::Comma => continue,
                    JsonToken::RBracket => return Ok(JsonValue::Arr(items)),
                    t => return Err(lx.err(format!("expected ',' or ']', found {}", t.describe()))),
                }
            }
        }
        JsonToken::LBrace => {
            let mut fields = Vec::new();
            if lx.peek_token()? == Some(&JsonToken::RBrace) {
                lx.next_token()?;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                let key = match lx.expect_some()? {
                    JsonToken::Str(s) => s,
                    t => return Err(lx.err(format!("expected object key, found {}", t.describe()))),
                };
                lx.expect(&JsonToken::Colon)?;
                fields.push((key, parse_value(lx)?));
                match lx.expect_some()? {
                    JsonToken::Comma => continue,
                    JsonToken::RBrace => return Ok(JsonValue::Obj(fields)),
                    t => {
                        return Err(lx.err(format!("expected ',' or '}}', found {}", t.describe())))
                    }
                }
            }
        }
        t => Err(lx.err(format!("expected a value, found {}", t.describe()))),
    }
}

/// Escape a string for JSON emission.
pub fn escape_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<JsonValue, IoFormatError> {
        JsonValue::parse_str(s, Format::Jsonl)
    }

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(parse("42").unwrap(), JsonValue::Int(42));
        assert_eq!(parse("null").unwrap(), JsonValue::Null);
        assert_eq!(parse("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse("\"a\\nb\"").unwrap(), JsonValue::Str("a\nb".into()));
        let v = parse(r#"{"a": [1, 2], "b": {"c": null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(parse("[]").unwrap(), JsonValue::Arr(vec![]));
        assert_eq!(parse("{}").unwrap(), JsonValue::Obj(vec![]));
    }

    #[test]
    fn rejects_non_integer_numbers() {
        assert!(matches!(parse("1.5"), Err(IoFormatError::Syntax { .. })));
        assert!(matches!(parse("-3"), Err(IoFormatError::Syntax { .. })));
        assert!(matches!(parse("1e9"), Err(IoFormatError::Syntax { .. })));
        assert!(matches!(parse("99999999999999999999999"), Err(IoFormatError::Syntax { .. })));
    }

    #[test]
    fn reports_line_numbers() {
        let bad = "{\n  \"a\": 1,\n  \"b\": @\n}";
        match parse(bad) {
            Err(IoFormatError::Syntax { line: 3, .. }) => {}
            other => panic!("expected line-3 error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        assert!(matches!(parse("{\"a\": "), Err(IoFormatError::Syntax { .. })));
        assert!(matches!(parse("[1, 2"), Err(IoFormatError::Syntax { .. })));
        assert!(matches!(parse("1 2"), Err(IoFormatError::Syntax { .. })));
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\"").unwrap(), JsonValue::Str("A".into()));
        assert!(parse("\"\\ud800\"").is_err(), "lone high surrogate is a typed error");
        assert!(parse("\"\\udc00\"").is_err(), "lone low surrogate is a typed error");
        assert!(parse("\"\\ud83dx\"").is_err(), "high surrogate needs a \\u follower");
        // Surrogate pairs (JSON's encoding of non-BMP chars) decode.
        assert_eq!(parse("\"\\ud83d\\ude00\"").unwrap(), JsonValue::Str("😀".into()));
    }

    #[test]
    fn raw_utf8_survives_and_invalid_utf8_is_typed() {
        assert_eq!(parse("\"héllo → 😀\"").unwrap(), JsonValue::Str("héllo → 😀".into()));
        let mut bytes = b"\"ab".to_vec();
        bytes.push(0xFF); // not valid UTF-8
        bytes.extend_from_slice(b"cd\"");
        let mut lx = JsonLexer::new(&bytes[..], Format::Jsonl);
        assert!(matches!(parse_value(&mut lx), Err(IoFormatError::Syntax { .. })));
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let s = "a\"b\\c\nd\te";
        let quoted = format!("\"{}\"", escape_str(s));
        assert_eq!(parse(&quoted).unwrap(), JsonValue::Str(s.into()));
    }
}
