//! JSONL trace export and the matching parser.
//!
//! The workspace has no serialization dependency, so serialization here is
//! hand-rolled. The format is deliberately tiny: each line is one flat JSON
//! object with four reserved keys —
//!
//! ```json
//! {"t":10000,"seq":42,"cat":"solver","ev":"solve","clients":8,"r":0.42}
//! ```
//!
//! `t` (sim-time ms), `seq` (record order), `cat` (category short name), and
//! `ev` (event name) come first; the event's payload fields follow in
//! insertion order. Because field order, number formatting, and escaping are
//! all deterministic functions of the recorded events, the same seed yields a
//! byte-identical file ([`parse_jsonl`] ∘ [`to_jsonl`] is the identity on
//! event lists).

use std::fmt;

use crate::event::{Category, TraceEvent, Value};

/// Formats an `f64` so that it always round-trips back to `F64`.
///
/// Integral values below 2^53 get a forced `.1` decimal (`"3.0"`); anything
/// else uses Rust's shortest round-trip form, falling back to exponent
/// notation when that form would look like an integer (e.g. `1e16`). The
/// parser classifies a number as `F64` iff it contains `.`, `e`, or `E`.
pub(crate) fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{v:.1}")
    } else {
        let s = format!("{v}");
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{v:e}")
        }
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(n) => out.push_str(&fmt_f64(*n)),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => push_json_str(out, s),
    }
}

/// Serializes one event as a single JSON line (no trailing newline).
pub fn to_json_line(ev: &TraceEvent) -> String {
    let mut out = String::with_capacity(64 + ev.fields.len() * 16);
    out.push_str("{\"t\":");
    out.push_str(&ev.time_ms.to_string());
    out.push_str(",\"seq\":");
    out.push_str(&ev.seq.to_string());
    out.push_str(",\"cat\":");
    push_json_str(&mut out, ev.category.as_str());
    out.push_str(",\"ev\":");
    push_json_str(&mut out, &ev.name);
    for (k, v) in &ev.fields {
        out.push(',');
        push_json_str(&mut out, k);
        out.push(':');
        push_value(&mut out, v);
    }
    out.push('}');
    out
}

/// Serializes events as JSONL, one event per line, newline-terminated.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&to_json_line(ev));
        out.push('\n');
    }
    out
}

/// Error from [`parse_jsonl`], with the 1-based line number it occurred on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSONL trace produced by [`to_jsonl`] back into events.
///
/// Accepts any flat JSON object per line (string/number/bool values, no
/// nesting); blank lines are skipped. Numbers with `.`/`e`/`E` parse as
/// `F64`, ones with a leading `-` as `I64`, the rest as `U64` (falling back
/// to `F64` on overflow).
pub fn parse_jsonl(input: &str) -> Result<Vec<TraceEvent>, ParseError> {
    let mut events = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        let line_no = idx + 1;
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_line(line, line_no)?);
    }
    Ok(events)
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            line: self.line,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!(
                "expected {:?}, found {:?}",
                b as char,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
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
                    let esc = self.peek().ok_or_else(|| self.err("dangling escape"))?;
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
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        other => {
                            return Err(self.err(format!("unknown escape \\{}", other as char)))
                        }
                    }
                }
                Some(_) => {
                    // Consume one full UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let ch = rest.chars().next().unwrap();
                    out.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') => {
                self.take_literal("true")?;
                Ok(Value::Bool(true))
            }
            Some(b'f') => {
                self.take_literal("false")?;
                Ok(Value::Bool(false))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(self.err(format!(
                "expected value, found {:?}",
                other.map(|c| c as char)
            ))),
        }
    }

    fn take_literal(&mut self, lit: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected literal {lit:?}")))
        }
    }

    fn parse_number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let is_float = text.contains(['.', 'e', 'E']);
        if !is_float {
            if let Some(rest) = text.strip_prefix('-') {
                if rest.parse::<i64>().is_ok() {
                    return Ok(Value::I64(text.parse().unwrap()));
                }
            } else if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::U64(v));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| self.err(format!("invalid number {text:?}")))
    }
}

fn parse_line(line: &str, line_no: usize) -> Result<TraceEvent, ParseError> {
    let mut cur = Cursor {
        bytes: line.as_bytes(),
        pos: 0,
        line: line_no,
    };
    cur.skip_ws();
    cur.expect(b'{')?;
    let mut time_ms = None;
    let mut seq = None;
    let mut category = None;
    let mut name = None;
    let mut fields = Vec::new();
    loop {
        cur.skip_ws();
        if cur.peek() == Some(b'}') {
            cur.pos += 1;
            break;
        }
        let key = cur.parse_string()?;
        cur.skip_ws();
        cur.expect(b':')?;
        cur.skip_ws();
        let value = cur.parse_value()?;
        match key.as_str() {
            "t" => match value {
                Value::U64(v) => time_ms = Some(v),
                _ => return Err(cur.err("\"t\" must be an unsigned integer")),
            },
            "seq" => match value {
                Value::U64(v) => seq = Some(v),
                _ => return Err(cur.err("\"seq\" must be an unsigned integer")),
            },
            "cat" => match value {
                Value::Str(s) => {
                    category = Some(
                        Category::parse(&s)
                            .ok_or_else(|| cur.err(format!("unknown category {s:?}")))?,
                    )
                }
                _ => return Err(cur.err("\"cat\" must be a string")),
            },
            "ev" => match value {
                Value::Str(s) => name = Some(s),
                _ => return Err(cur.err("\"ev\" must be a string")),
            },
            _ => fields.push((key, value)),
        }
        cur.skip_ws();
        match cur.peek() {
            Some(b',') => {
                cur.pos += 1;
            }
            Some(b'}') => {
                cur.pos += 1;
                break;
            }
            other => {
                return Err(cur.err(format!(
                    "expected ',' or '}}', found {:?}",
                    other.map(|c| c as char)
                )))
            }
        }
    }
    cur.skip_ws();
    if cur.pos != cur.bytes.len() {
        return Err(cur.err("trailing garbage after object"));
    }
    Ok(TraceEvent {
        time_ms: time_ms.ok_or_else(|| cur.err("missing \"t\""))?,
        seq: seq.ok_or_else(|| cur.err("missing \"seq\""))?,
        category: category.ok_or_else(|| cur.err("missing \"cat\""))?,
        name: name.ok_or_else(|| cur.err("missing \"ev\""))?,
        fields,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventBuilder;

    fn sample_events() -> Vec<TraceEvent> {
        let mut b = EventBuilder::default();
        b.u64("clients", 8)
            .i64("delta", -3)
            .f64("r", 0.4251)
            .f64("whole", 2.0)
            .f64("big", 1.0e16)
            .bool("deferred", true)
            .str("mode", "exact")
            .str("odd", "a\"b\\c\nd\tires\u{1}");
        vec![
            TraceEvent {
                time_ms: 10_000,
                seq: 0,
                category: Category::Solver,
                name: "solve".into(),
                fields: b.fields,
            },
            TraceEvent {
                time_ms: 10_000,
                seq: 1,
                category: Category::Mac,
                name: "tti".into(),
                fields: vec![("rbs".into(), Value::U64(50))],
            },
        ]
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
        // And re-serialization is byte-identical.
        assert_eq!(to_jsonl(&parsed), text);
    }

    #[test]
    fn float_formatting_preserves_type() {
        for v in [0.0, -0.5, 2.0, 123.456, 1e-9, 9.0e15, 1.0e16, 1.0e20, -3.0] {
            let s = fmt_f64(v);
            assert!(
                s.contains(['.', 'e', 'E']) || s.parse::<u64>().is_err(),
                "{v} formatted as {s} would reparse as an integer"
            );
            assert_eq!(s.parse::<f64>().unwrap(), v, "{v} -> {s}");
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"t\":1}").is_err()); // missing seq/cat/ev
        assert!(parse_jsonl("{\"t\":1,\"seq\":0,\"cat\":\"nope\",\"ev\":\"x\"}").is_err());
        let err =
            parse_jsonl("{\"t\":1,\"seq\":0,\"cat\":\"mac\",\"ev\":\"x\"}\n{oops}").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn parse_skips_blank_lines() {
        let text = "\n{\"t\":1,\"seq\":0,\"cat\":\"mac\",\"ev\":\"tti\"}\n\n";
        assert_eq!(parse_jsonl(text).unwrap().len(), 1);
    }
}
