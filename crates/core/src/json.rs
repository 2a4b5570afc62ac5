//! The workspace's one JSON reader, and the string escaper every JSON
//! writer shares.
//!
//! Writers keep their own `format!` code: each format's byte layout is
//! pinned where it is produced (golden `SimStats`, wire frames,
//! telemetry artifacts, the benchmark trajectory). Reading is decided
//! here, once, and strictly:
//!
//! * the input is exactly one value; anything after it but whitespace
//!   is an error;
//! * an object may not repeat a key;
//! * strings take only the JSON escapes (`\" \\ \/ \b \f \n \r \t
//!   \uXXXX`, surrogate pairs joined) and no raw control characters;
//! * numbers follow the JSON grammar and keep their source text, so a
//!   `u64` above 2^53 reads back exactly and fractional values still
//!   parse as `f64`;
//! * nesting deeper than 64 levels is refused, so hostile input cannot
//!   exhaust the stack.
//!
//! Every error carries the byte offset where reading stopped.

use std::fmt;
use std::fmt::Write as _;

/// Deepest array/object nesting [`parse`] accepts.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number, as its (grammar-checked) source text.
    Num(String),
    Str(String),
    Array(Vec<Value>),
    /// Members in source order; keys are unique.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The member `key` of an object; `None` for a missing key or a
    /// non-object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number written as a plain non-negative integer that fits a
    /// `u64` (no sign, fraction or exponent).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(t) if t.bytes().all(|b| b.is_ascii_digit()) => t.parse().ok(),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(t) => t.parse().ok(),
            _ => None,
        }
    }
}

/// Why [`parse`] refused its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset into the input.
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for Error {}

/// Parse `text` as a single JSON document.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut r = Reader { text, pos: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.pos != text.len() {
        return r.err("trailing content");
    }
    Ok(v)
}

/// Escape `s` for embedding in a JSON string literal. Control
/// characters become escapes, so the output never contains a raw
/// newline and line-framed formats can carry multi-line text.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

struct Reader<'a> {
    text: &'a str,
    pos: usize,
}

impl Reader<'_> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, Error> {
        Err(Error {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.pos += usize::from(hit);
        hit
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                self.err(format!("nesting deeper than {MAX_DEPTH}"))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Value::Str),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => self.err("expected a value"),
            None => self.err("unexpected end of input"),
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, Error> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(v)
        } else {
            self.err("bad literal")
        }
    }

    /// Consume a run of ASCII digits; `true` if there was at least one.
    fn digits(&mut self) -> bool {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        self.pos > start
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        self.eat(b'-');
        // No leading zeros: a `0` integer part stands alone.
        if !self.eat(b'0') && !self.digits() {
            return self.err("expected a digit");
        }
        if self.eat(b'.') && !self.digits() {
            return self.err("expected a digit after '.'");
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.digits() {
                return self.err("expected an exponent digit");
            }
        }
        Ok(Value::Num(self.text[start..self.pos].to_string()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // the opening quote
        let mut out = String::new();
        loop {
            // Copy the plain run in one go. It ends on an ASCII byte,
            // so the slice boundaries are char boundaries.
            let run = self.pos;
            while self
                .peek()
                .is_some_and(|b| b != b'"' && b != b'\\' && b >= 0x20)
            {
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
                    out.push(self.escaped()?);
                }
                Some(_) => return self.err("raw control character in string"),
                None => return self.err("unterminated string"),
            }
        }
    }

    /// The character after a backslash.
    fn escaped(&mut self) -> Result<char, Error> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            Some(_) => return self.err("unknown escape"),
            None => return self.err("unterminated string"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// `XXXX` after `\u`, joining a UTF-16 surrogate pair.
    fn unicode(&mut self) -> Result<char, Error> {
        let hi = self.hex4()?;
        let cp = if (0xD800..0xDC00).contains(&hi) {
            if !self.text[self.pos..].starts_with("\\u") {
                return self.err("unpaired surrogate escape");
            }
            self.pos += 2;
            let lo = self.hex4()?;
            if !(0xDC00..0xE000).contains(&lo) {
                return self.err("unpaired surrogate escape");
            }
            0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
        } else {
            hi
        };
        char::from_u32(cp).map_or_else(|| self.err("unpaired surrogate escape"), Ok)
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        let v = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .and_then(|h| {
                h.iter()
                    .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
            });
        match v {
            Some(v) => {
                self.pos += 4;
                Ok(v)
            }
            None => self.err("expected four hex digits after \\u"),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // '['
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Value::Array(items));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or ']'");
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        self.pos += 1; // '{'
        let mut members: Vec<(String, Value)> = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Value::Object(members));
        }
        loop {
            self.skip_ws();
            let at = self.pos;
            if self.peek() != Some(b'"') {
                return self.err("expected a string key");
            }
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(Error {
                    offset: at,
                    message: format!("duplicate key {key:?}"),
                });
            }
            self.skip_ws();
            if !self.eat(b':') {
                return self.err("expected ':'");
            }
            let v = self.value(depth)?;
            members.push((key, v));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Value::Object(members));
            }
            if !self.eat(b',') {
                return self.err("expected ',' or '}'");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FuBusy, SimStats};

    #[test]
    fn json_parser_handles_the_grammar() {
        let v = parse(" {\"a\": [1, -2.5e1, \"x\\\"y\\u0041\", true, null], \"b\": {}} ").unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a.len(), 5);
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[2], Value::Str("x\"yA".into()));
        assert!(v.get("b").unwrap().as_object().unwrap().is_empty());
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("{} junk").is_err());
    }

    #[test]
    fn numbers_keep_their_exact_text() {
        let max = parse(&u64::MAX.to_string()).unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        // 2^53 + 1 is not representable as an f64; the u64 read is exact.
        assert_eq!(
            parse("9007199254740993").unwrap().as_u64(),
            Some((1 << 53) + 1)
        );
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("2190.0").unwrap().as_f64(), Some(2190.0));
        for not_u64 in ["-1", "1.0", "1e3"] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        for bad in ["01", "-", "1.", ".5", "1e", "+1", "0x10"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(parse("0").unwrap(), Value::Num("0".into()));
    }

    #[test]
    fn every_escape_decodes() {
        let v = parse(r#""\/\b\f\n\r\t\"\\\u00e9\u0001\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("/\u{8}\u{c}\n\r\t\"\\é\u{1}😀"));
        for bad in [
            r#""\x""#,
            r#""\u12""#,
            r#""\u12zz""#,
            r#""\ud83d""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            "\"raw\ttab\"",
            "\"open",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn escape_round_trips_through_parse() {
        let s = "quote\" back\\slash\nnew\r\ttab \u{1}\u{1f} é 😀";
        let lit = format!("\"{}\"", escape(s));
        assert!(!lit.bytes().any(|b| b < 0x20), "{lit:?}");
        assert_eq!(parse(&lit).unwrap().as_str(), Some(s));
    }

    #[test]
    fn errors_are_strict_and_carry_the_offset() {
        let e = parse("{\"a\": 1, \"a\": 2}").unwrap_err();
        assert!(e.message.contains("duplicate"), "{e}");
        assert_eq!(e.offset, 9);
        let e = parse("[1] x").unwrap_err();
        assert_eq!((e.offset, e.message.as_str()), (4, "trailing content"));
        assert_eq!(e.to_string(), "trailing content at byte 4");
        for bad in [
            "",
            "[1 2]",
            "{\"a\" 1}",
            "{1: 2}",
            "tru",
            "nul",
            "[",
            "{\"a\": }",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Nesting is capped: MAX_DEPTH levels parse, one more does not.
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let e = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH, "{e}");
        // Hostile depth fails cleanly instead of overflowing the stack.
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn sim_stats_round_trip_u64_max() {
        let m = u64::MAX;
        let fu = FuBusy {
            busy_cycles: m,
            capacity_cycles: m,
        };
        let s = SimStats {
            cycles: m,
            fetched_instructions: m,
            dispatched_instructions: m,
            committed_instructions: m,
            killed_instructions: m,
            committed_branches: m,
            mispredicted_branches: m,
            mispredicted_returns: m,
            recoveries: m,
            divergences: m,
            low_conf_incorrect: m,
            low_conf_correct: m,
            high_conf_incorrect: m,
            high_conf_correct: m,
            path_cycles: vec![m, 0, m],
            max_live_paths: usize::MAX,
            window_occupancy_sum: m,
            fu_int0: fu,
            fu_int1: fu,
            fu_fp_add: fu,
            fu_fp_mul: fu,
            fu_mem: fu,
            fetch_stall_no_path: m,
            fetch_stall_no_ctx: m,
            dispatch_stall_window_full: m,
            dcache_hits: m,
            dcache_misses: m,
            hit_cycle_limit: true,
        };
        let parsed = SimStats::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed, s);
        assert_eq!(parsed.to_json(), s.to_json());
    }
}
