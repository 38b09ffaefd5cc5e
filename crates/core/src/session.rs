//! The long-running cleaning session: a JSONL edit/delta protocol over the
//! [`DeltaEngine`].
//!
//! The paper's ANMAT demo (§4.5) is a steward-in-the-loop tool: edits go in,
//! violation changes come out, immediately. A [`Session`] is that loop for
//! one relation — it answers one JSON command per input line with JSON
//! event lines, and when durable it recovers, logs every acknowledged
//! command to its WAL and checkpoints. `pfd session` runs one over stdin,
//! and every tenant of the multi-tenant [`Server`](crate::server::Server)
//! holds one, so both front ends share one command loop.
//!
//! ```text
//! → {"op":"set","row":3,"attr":"gender","value":"F"}
//! ← {"event":"delta","version":5,"violations":0,"introduced":[],"resolved":[{...}]}
//! ```
//!
//! Commands: `set` (`row`, `attr` by name or index, `value`), `insert`
//! (`cells` array), `delete` (`row`), `batch` (`edits` array of the
//! former three, reconciled as one [`DeltaEngine::apply_batch`] call), and
//! `repair` (optional `max_passes`) which runs a [`RepairEngine`] chase on
//! the live state and streams one `conflict` event per contested cell, one
//! `fix` event per applied fix (score breakdown included), one
//! `unrepaired` event per suggestion-less flag and a closing `repaired`
//! summary. Other events: one `ready` on startup (initial violation
//! state), then per command either `delta` or `error` (malformed input
//! never kills the session). A `delta` lists the violations the edit
//! `introduced` and `resolved` and, when there are any, those it
//! `regrouped`: same suspect cell, new partner or group statistics (see
//! the `incremental` module's delta semantics). The same serializers back
//! the `--json` flags of `pfd check` and `pfd repair`, so batch reports
//! and the interactive stream speak one format.
//!
//! The module hand-rolls a minimal JSON reader/writer ([`json`]) because
//! the build environment vendors no serde; it covers the full value grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null).

// Every input line is untrusted; a panic here would end every session the
// process serves, so unwrapping is denied outright (tests opt back in).
#![deny(clippy::unwrap_used, clippy::expect_used)]

use crate::detect::DetectionReport;
use crate::incremental::{regroup_record, DeltaEngine, DeltaEntry, Edit, ViolationDelta};
use crate::pfd::{Pfd, Violation, ViolationKind};
use crate::repair::{CellFix, FixCandidate, RepairEngine, RepairOptions, RepairOutcome};
use crate::snapshot::{
    RecoverFailure, RecoveryPolicy, RecoveryReport, SnapshotError, SnapshotMeta, SnapshotStore,
};
use pfd_relation::io::Io;
use pfd_relation::wal::{SyncPolicy, WalWriter};
use pfd_relation::{AttrId, Relation, RelationError, RowId, Schema};
use std::fmt::Write as _;
use std::io::{self, BufRead, Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Minimal JSON parsing and serialization helpers.
pub mod json {
    use std::fmt::Write as _;

    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Any JSON number (parsed as `f64`).
        Num(f64),
        /// A string literal.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, in source order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        /// Member lookup on objects.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// The string payload, if this is a string.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// The numeric payload as a non-negative integer, if exact.
        pub fn as_index(&self) -> Option<usize> {
            match self {
                Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u32::MAX as f64 => {
                    Some(*n as usize)
                }
                _ => None,
            }
        }

        /// The array payload, if this is an array.
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    /// The deepest nesting of arrays and objects [`parse`] accepts. The
    /// deepest real command nests 4 levels (`batch` → `edits` → edit →
    /// `cells`); the cap keeps the recursive parser, and the recursion over
    /// its result, far inside any thread's stack whatever a line holds.
    pub const MAX_DEPTH: usize = 64;

    /// The longest command line, in bytes, a session or server reads. A
    /// 10,000-edit `batch` line is ~0.6 MB; a longer line is answered with
    /// one `error` event and its bytes are skipped, never buffered.
    pub const MAX_LINE_BYTES: usize = 4 << 20;

    /// Parse one JSON document (trailing non-whitespace is an error).
    /// Nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.
    /// Any Unicode whitespace may separate tokens, and error offsets count
    /// chars.
    pub fn parse(src: &str) -> Result<Value, String> {
        let mut p = Parser { src, pos: 0 };
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != src.len() {
            return Err(format!("trailing input at offset {}", p.offset(p.pos)));
        }
        Ok(value)
    }

    /// A cursor over the bytes of one document. `pos` always sits on a
    /// char boundary: it moves over ASCII bytes one at a time and over
    /// anything else a whole char or a whole run of string content at once.
    struct Parser<'a> {
        src: &'a str,
        pos: usize,
    }

    impl Parser<'_> {
        fn peek(&self) -> Option<u8> {
            self.src.as_bytes().get(self.pos).copied()
        }

        /// The char offset of byte `at`, for error messages.
        fn offset(&self, at: usize) -> usize {
            let head = &self.src.as_bytes()[..at];
            head.iter().filter(|&&b| (b as i8) >= -0x40).count()
        }

        /// The char at the cursor.
        fn char(&self) -> Option<char> {
            self.src
                .get(self.pos..)
                .and_then(|rest| rest.chars().next())
        }

        fn skip_ws(&mut self) {
            while let Some(c) = self.char().filter(|c| c.is_whitespace()) {
                self.pos += c.len_utf8();
            }
        }

        fn expect(&mut self, c: u8) -> Result<(), String> {
            if self.peek() == Some(c) {
                self.pos += 1;
                Ok(())
            } else {
                let at = self.offset(self.pos);
                Err(format!("expected {:?} at offset {at}", char::from(c)))
            }
        }

        /// Parse the value at the cursor, which sits inside `depth` open
        /// arrays and objects.
        fn value(&mut self, depth: usize) -> Result<Value, String> {
            self.skip_ws();
            if matches!(self.peek(), Some(b'{' | b'[')) && depth == MAX_DEPTH {
                return Err(format!(
                    "JSON nested deeper than {MAX_DEPTH} levels at offset {}",
                    self.offset(self.pos)
                ));
            }
            match self.peek() {
                None => Err("unexpected end of input".into()),
                Some(b'{') => {
                    self.pos += 1;
                    let mut members = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    loop {
                        self.skip_ws();
                        let key = match self.value(depth + 1)? {
                            Value::Str(k) => k,
                            other => {
                                return Err(format!("object key must be a string, got {other:?}"))
                            }
                        };
                        self.skip_ws();
                        self.expect(b':')?;
                        let value = self.value(depth + 1)?;
                        members.push((key, value));
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Value::Obj(members));
                            }
                            _ => {
                                let at = self.offset(self.pos);
                                return Err(format!("expected ',' or '}}' at offset {at}"));
                            }
                        }
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    self.skip_ws();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => {
                                let at = self.offset(self.pos);
                                return Err(format!("expected ',' or ']' at offset {at}"));
                            }
                        }
                    }
                }
                Some(b'"') => self.string().map(Value::Str),
                Some(b't') => self.keyword("true", Value::Bool(true)),
                Some(b'f') => self.keyword("false", Value::Bool(false)),
                Some(b'n') => self.keyword("null", Value::Null),
                Some(_) => self.number(),
            }
        }

        fn keyword(&mut self, word: &str, v: Value) -> Result<Value, String> {
            for c in word.bytes() {
                self.expect(c)?;
            }
            Ok(v)
        }

        fn number(&mut self) -> Result<Value, String> {
            let start = self.pos;
            while matches!(
                self.peek(),
                Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            ) {
                self.pos += 1;
            }
            let text = &self.src[start..self.pos];
            text.parse::<f64>().map(Value::Num).map_err(|_| {
                let at = self.offset(start);
                format!("invalid number {text:?} at offset {at}")
            })
        }

        fn string(&mut self) -> Result<String, String> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                // Copy the run up to the next quote or backslash at once.
                let rest = &self.src.as_bytes()[self.pos..];
                let Some(run) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                    return Err("unterminated string".into());
                };
                out.push_str(&self.src[self.pos..self.pos + run]);
                self.pos += run;
                if self.peek() == Some(b'"') {
                    self.pos += 1;
                    return Ok(out);
                }
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
                        let hi = self.hex4()?;
                        let ch = if (0xD800..0xDC00).contains(&hi) {
                            // Surrogate pair: require \uXXXX low half.
                            self.pos += 1;
                            let bytes = self.src.as_bytes();
                            if bytes.get(self.pos) != Some(&b'\\')
                                || bytes.get(self.pos + 1) != Some(&b'u')
                            {
                                return Err("lone high surrogate".into());
                            }
                            self.pos += 1;
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err("invalid low surrogate".into());
                            }
                            let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or("invalid surrogate pair")?
                        } else {
                            char::from_u32(hi).ok_or("invalid \\u escape")?
                        };
                        out.push(ch);
                    }
                    _ => return Err(format!("bad escape {:?}", self.char())),
                }
                self.pos += 1;
            }
        }

        /// The four hex digits after the `u` at the cursor, leaving the
        /// cursor on the last.
        fn hex4(&mut self) -> Result<u32, String> {
            let mut v = 0u32;
            for _ in 0..4 {
                self.pos += 1;
                let d = (self.peek())
                    .and_then(|b| char::from(b).to_digit(16))
                    .ok_or("bad \\u escape")?;
                v = v * 16 + d;
            }
            Ok(v)
        }
    }

    /// Append `s` as a JSON string literal (with quotes) to `out`.
    pub fn write_escaped(out: &mut String, s: &str) {
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

    /// `s` as a JSON string literal.
    pub fn escaped(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        write_escaped(&mut out, s);
        out
    }

    /// The char-by-char parser [`parse`] replaced, kept as the oracle its
    /// tests compare against.
    #[cfg(test)]
    pub(crate) mod chars {
        use super::{Value, MAX_DEPTH};

        /// Parse one JSON document the way the old parser did.
        pub(crate) fn parse(src: &str) -> Result<Value, String> {
            let bytes: Vec<char> = src.chars().collect();
            let mut pos = 0usize;
            let value = parse_value(&bytes, &mut pos, 0)?;
            skip_ws(&bytes, &mut pos);
            if pos != bytes.len() {
                return Err(format!("trailing input at offset {pos}"));
            }
            Ok(value)
        }

        fn skip_ws(s: &[char], pos: &mut usize) {
            while *pos < s.len() && s[*pos].is_whitespace() {
                *pos += 1;
            }
        }

        fn expect(s: &[char], pos: &mut usize, c: char) -> Result<(), String> {
            if s.get(*pos) == Some(&c) {
                *pos += 1;
                Ok(())
            } else {
                Err(format!("expected {c:?} at offset {pos}", pos = *pos))
            }
        }

        /// Parse the value at `pos`, which sits inside `depth` open arrays and
        /// objects.
        fn parse_value(s: &[char], pos: &mut usize, depth: usize) -> Result<Value, String> {
            skip_ws(s, pos);
            if matches!(s.get(*pos), Some('{' | '[')) && depth == MAX_DEPTH {
                return Err(format!(
                    "JSON nested deeper than {MAX_DEPTH} levels at offset {}",
                    *pos
                ));
            }
            match s.get(*pos) {
                None => Err("unexpected end of input".into()),
                Some('{') => {
                    *pos += 1;
                    let mut members = Vec::new();
                    skip_ws(s, pos);
                    if s.get(*pos) == Some(&'}') {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    loop {
                        skip_ws(s, pos);
                        let key = match parse_value(s, pos, depth + 1)? {
                            Value::Str(k) => k,
                            other => {
                                return Err(format!("object key must be a string, got {other:?}"))
                            }
                        };
                        skip_ws(s, pos);
                        expect(s, pos, ':')?;
                        let value = parse_value(s, pos, depth + 1)?;
                        members.push((key, value));
                        skip_ws(s, pos);
                        match s.get(*pos) {
                            Some(',') => *pos += 1,
                            Some('}') => {
                                *pos += 1;
                                return Ok(Value::Obj(members));
                            }
                            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
                        }
                    }
                }
                Some('[') => {
                    *pos += 1;
                    let mut items = Vec::new();
                    skip_ws(s, pos);
                    if s.get(*pos) == Some(&']') {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(parse_value(s, pos, depth + 1)?);
                        skip_ws(s, pos);
                        match s.get(*pos) {
                            Some(',') => *pos += 1,
                            Some(']') => {
                                *pos += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
                        }
                    }
                }
                Some('"') => parse_string(s, pos).map(Value::Str),
                Some('t') => parse_keyword(s, pos, "true", Value::Bool(true)),
                Some('f') => parse_keyword(s, pos, "false", Value::Bool(false)),
                Some('n') => parse_keyword(s, pos, "null", Value::Null),
                Some(_) => parse_number(s, pos),
            }
        }

        fn parse_keyword(
            s: &[char],
            pos: &mut usize,
            word: &str,
            v: Value,
        ) -> Result<Value, String> {
            for c in word.chars() {
                expect(s, pos, c)?;
            }
            Ok(v)
        }

        fn parse_number(s: &[char], pos: &mut usize) -> Result<Value, String> {
            let start = *pos;
            while *pos < s.len() && matches!(s[*pos], '0'..='9' | '-' | '+' | '.' | 'e' | 'E') {
                *pos += 1;
            }
            let text: String = s[start..*pos].iter().collect();
            text.parse::<f64>()
                .map(Value::Num)
                .map_err(|_| format!("invalid number {text:?} at offset {start}"))
        }

        fn parse_string(s: &[char], pos: &mut usize) -> Result<String, String> {
            expect(s, pos, '"')?;
            let mut out = String::new();
            loop {
                match s.get(*pos) {
                    None => return Err("unterminated string".into()),
                    Some('"') => {
                        *pos += 1;
                        return Ok(out);
                    }
                    Some('\\') => {
                        *pos += 1;
                        match s.get(*pos) {
                            Some('"') => out.push('"'),
                            Some('\\') => out.push('\\'),
                            Some('/') => out.push('/'),
                            Some('b') => out.push('\u{8}'),
                            Some('f') => out.push('\u{c}'),
                            Some('n') => out.push('\n'),
                            Some('r') => out.push('\r'),
                            Some('t') => out.push('\t'),
                            Some('u') => {
                                let hi = parse_hex4(s, pos)?;
                                let ch = if (0xD800..0xDC00).contains(&hi) {
                                    // Surrogate pair: require \uXXXX low half.
                                    *pos += 1;
                                    if s.get(*pos) != Some(&'\\') || s.get(*pos + 1) != Some(&'u') {
                                        return Err("lone high surrogate".into());
                                    }
                                    *pos += 1;
                                    let lo = parse_hex4(s, pos)?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid low surrogate".into());
                                    }
                                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(c).ok_or("invalid surrogate pair")?
                                } else {
                                    char::from_u32(hi).ok_or("invalid \\u escape")?
                                };
                                out.push(ch);
                            }
                            other => return Err(format!("bad escape {other:?}")),
                        }
                        *pos += 1;
                    }
                    Some(c) => {
                        out.push(*c);
                        *pos += 1;
                    }
                }
            }
        }

        fn parse_hex4(s: &[char], pos: &mut usize) -> Result<u32, String> {
            let mut v = 0u32;
            for _ in 0..4 {
                *pos += 1;
                let d = s
                    .get(*pos)
                    .and_then(|c| c.to_digit(16))
                    .ok_or("bad \\u escape")?;
                v = v * 16 + d;
            }
            Ok(v)
        }
    }
}

use json::Value;

/// Serialize a violation with attribute names resolved against the schema.
pub fn violation_json(pfd_index: usize, v: &Violation, schema: &Schema) -> String {
    let mut out = String::new();
    write_violation(&mut out, pfd_index, v, schema);
    out
}

/// Append [`violation_json`]'s object to `out`.
fn write_violation(out: &mut String, pfd_index: usize, v: &Violation, schema: &Schema) {
    let _ = write!(
        out,
        "{{\"pfd\":{pfd_index},\"tableau_row\":{},\"kind\":\"{}\",\"attr\":",
        v.tableau_row,
        kind_name(v.kind)
    );
    json::write_escaped(out, schema.name_of(v.attr).unwrap_or("?"));
    let _ = write!(
        out,
        ",\"group_size\":{},\"majority_size\":{},\"rows\":[",
        v.group_size(),
        v.majority_size()
    );
    for (i, r) in v.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{r}");
    }
    out.push_str("],\"cells\":[");
    for (i, (r, a)) in v.cells().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"row\":{r},\"attr\":");
        json::write_escaped(out, schema.name_of(*a).unwrap_or("?"));
        out.push('}');
    }
    out.push_str("]}");
}

/// A violation kind as the protocol spells it.
fn kind_name(kind: ViolationKind) -> &'static str {
    match kind {
        ViolationKind::SingleTuple => "single_tuple",
        ViolationKind::TuplePair => "tuple_pair",
    }
}

/// Append a JSON array of delta entries to `out`.
fn write_entries(out: &mut String, entries: &[DeltaEntry], schema: &Schema) {
    out.push('[');
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_violation(out, e.pfd_index, &e.violation, schema);
    }
    out.push(']');
}

/// Append a delta's `regrouped` member: one record per run of pairs whose
/// after entries share PFD, tableau row, kind, attribute, partner and
/// group statistics, naming the run's offending rows in ascending order. A
/// client holding the before entries by suspect cell rebuilds each after
/// entry from its record: the partner replaces the old partner in `rows`
/// and `cells`, and the statistics replace the old ones.
fn write_regrouped(out: &mut String, regrouped: &[(DeltaEntry, DeltaEntry)], schema: &Schema) {
    out.push_str(",\"regrouped\":[");
    let records = regrouped.chunk_by(|(_, a), (_, b)| regroup_record(a) == regroup_record(b));
    for (i, run) in records.enumerate() {
        let (_, first) = &run[0];
        let v = &first.violation;
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"pfd\":{},\"tableau_row\":{},\"kind\":\"{}\",\"attr\":",
            first.pfd_index,
            v.tableau_row,
            kind_name(v.kind)
        );
        json::write_escaped(out, schema.name_of(v.attr).unwrap_or("?"));
        if let Some(partner) = v.partner() {
            let _ = write!(out, ",\"partner\":{partner}");
        }
        let _ = write!(
            out,
            ",\"group_size\":{},\"majority_size\":{},\"rows\":[",
            v.group_size(),
            v.majority_size()
        );
        for (j, (_, e)) in run.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", e.violation.offending_row());
        }
        out.push_str("]}");
    }
    out.push(']');
}

/// Serialize one delta event line (without trailing newline).
pub fn delta_json(delta: &ViolationDelta, violations_now: usize, schema: &Schema) -> String {
    let mut out = String::new();
    write_delta(&mut out, "", delta, violations_now, schema);
    out
}

/// Append [`delta_json`]'s line to `out`, with `tag` (zero or more
/// `"key":value,` members) injected after the opening brace.
fn write_delta(
    out: &mut String,
    tag: &str,
    delta: &ViolationDelta,
    violations_now: usize,
    schema: &Schema,
) {
    let _ = write!(
        out,
        "{{{tag}\"event\":\"delta\",\"version\":{},\"violations\":{violations_now},\"introduced\":",
        delta.version
    );
    write_entries(out, &delta.introduced, schema);
    out.push_str(",\"resolved\":");
    write_entries(out, &delta.resolved, schema);
    if !delta.regrouped.is_empty() {
        write_regrouped(out, &delta.regrouped, schema);
    }
    out.push('}');
}

/// Serialize a `pfd check` detection report (the batch analogue of the
/// session's `ready` event).
pub fn check_report_json(report: &DetectionReport, rel: &Relation) -> String {
    let schema = rel.schema();
    let mut out = format!(
        "{{\"table\":{},\"rows\":{},\"clean\":{},\"suspect_cells\":{},\"flags\":[",
        json::escaped(schema.relation()),
        rel.num_rows(),
        report.is_clean(),
        report.unique_cells().len()
    );
    for (i, flag) in report.flags.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"row\":{},\"attr\":{},\"pfd\":{},\"kind\":\"{}\",\"current\":{},\"suggestion\":{}}}",
            flag.row,
            json::escaped(schema.name_of(flag.attr).unwrap_or("?")),
            flag.pfd_index,
            kind_name(flag.kind),
            json::escaped(&flag.current),
            match &flag.suggestion {
                Some(s) => json::escaped(s),
                None => "null".into(),
            }
        ));
    }
    out.push_str("]}");
    out
}

/// Serialize one losing candidate of a cell's conflict set.
fn candidate_json(c: &FixCandidate) -> String {
    format!(
        "{{\"pfd\":{},\"tableau_row\":{},\"suggestion\":{},\"score\":{:.4},\
         \"support\":{:.4},\"confidence\":{:.2}}}",
        c.pfd_index,
        c.tableau_row,
        json::escaped(&c.suggestion),
        c.score.total,
        c.score.support,
        c.score.confidence
    )
}

/// Serialize one applied fix with its score breakdown and conflict set.
pub fn fix_json(fix: &CellFix, schema: &Schema) -> String {
    let mut out = format!(
        "{{\"row\":{},\"attr\":{},\"pfd\":{},\"tableau_row\":{},\"old\":{},\"new\":{},\
         \"score\":{:.4},\"support\":{:.4},\"confidence\":{:.2},\"depth\":{},\"competitors\":[",
        fix.row,
        json::escaped(schema.name_of(fix.attr).unwrap_or("?")),
        fix.pfd_index,
        fix.tableau_row,
        json::escaped(&fix.old),
        json::escaped(&fix.new),
        fix.score.total,
        fix.score.support,
        fix.score.confidence,
        fix.score.depth
    );
    for (i, c) in fix.competitors.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&candidate_json(c));
    }
    out.push_str("]}");
    out
}

/// Serialize a `pfd repair` outcome (with the pass count of the chase).
pub fn repair_outcome_json(outcome: &RepairOutcome, passes: usize) -> String {
    let schema = outcome.relation.schema();
    let mut out = format!(
        "{{\"table\":{},\"rows\":{},\"passes\":{passes},\"fixes\":[",
        json::escaped(schema.relation()),
        outcome.relation.num_rows()
    );
    for (i, fix) in outcome.fixes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&fix_json(fix, schema));
    }
    out.push_str("],\"unrepaired\":[");
    for (i, flag) in outcome.unrepaired.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"row\":{},\"attr\":{},\"pfd\":{}}}",
            flag.row,
            json::escaped(schema.name_of(flag.attr).unwrap_or("?")),
            flag.pfd_index
        ));
    }
    out.push_str("]}");
    out
}

/// A parsed session command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCommand {
    /// Apply one edit.
    Single(Edit),
    /// Apply a batch of edits as one reconciliation.
    Batch(Vec<Edit>),
    /// Run a repair chase on the current state, streaming
    /// fix/conflict/unrepaired events.
    Repair {
        /// Pass-cap override for this chase (engine default when absent).
        max_passes: Option<usize>,
    },
    /// Report the current violation state without mutating anything (a
    /// `state` event, shaped like `ready`). Never logged to a delta log.
    Check,
}

/// Parse one JSONL command line against the session's schema. Attributes
/// may be referenced by name (`"attr":"gender"`) or index (`"attr":1`).
pub fn parse_command(line: &str, schema: &Schema) -> Result<SessionCommand, String> {
    let value = json::parse(line)?;
    parse_command_value(&value, schema)
}

fn parse_command_value(value: &Value, schema: &Schema) -> Result<SessionCommand, String> {
    let op = value
        .get("op")
        .and_then(Value::as_str)
        .ok_or("missing \"op\"")?;
    match op {
        "batch" => {
            let edits = value
                .get("edits")
                .and_then(Value::as_arr)
                .ok_or("batch needs an \"edits\" array")?;
            let edits = edits
                .iter()
                .map(|e| match parse_command_value(e, schema)? {
                    SessionCommand::Single(edit) => Ok(edit),
                    SessionCommand::Batch(_) => Err("nested batch".to_string()),
                    SessionCommand::Repair { .. } => {
                        Err("repair cannot appear inside a batch".to_string())
                    }
                    SessionCommand::Check => Err("check cannot appear inside a batch".to_string()),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SessionCommand::Batch(edits))
        }
        "set" => {
            let row = parse_row(value)?;
            let attr = parse_attr(value, schema)?;
            let value = value
                .get("value")
                .and_then(Value::as_str)
                .ok_or("set needs a string \"value\"")?
                .to_string();
            Ok(SessionCommand::Single(Edit::Set { row, attr, value }))
        }
        "insert" => {
            let cells = value
                .get("cells")
                .and_then(Value::as_arr)
                .ok_or("insert needs a \"cells\" array")?
                .iter()
                .map(|c| {
                    c.as_str()
                        .map(str::to_string)
                        .ok_or("cells must be strings".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(SessionCommand::Single(Edit::Insert { cells }))
        }
        "delete" => Ok(SessionCommand::Single(Edit::Delete {
            row: parse_row(value)?,
        })),
        "repair" => {
            let max_passes = match value.get("max_passes") {
                None => None,
                Some(v) => Some(
                    v.as_index()
                        .ok_or_else(|| "invalid \"max_passes\"".to_string())?,
                ),
            };
            Ok(SessionCommand::Repair { max_passes })
        }
        "check" => Ok(SessionCommand::Check),
        other => Err(format!("unknown op {other:?}")),
    }
}

fn parse_row(value: &Value) -> Result<RowId, String> {
    value
        .get("row")
        .and_then(Value::as_index)
        .ok_or_else(|| "missing or invalid \"row\"".to_string())
}

fn parse_attr(value: &Value, schema: &Schema) -> Result<AttrId, String> {
    match value.get("attr") {
        Some(Value::Str(name)) => schema.attr(name).map_err(|e| e.to_string()),
        Some(v) => v
            .as_index()
            .map(AttrId)
            .ok_or_else(|| "invalid \"attr\"".to_string()),
        None => Err("missing \"attr\"".to_string()),
    }
}

/// Summary of a finished session (for logging and tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SessionSummary {
    /// Commands that applied cleanly.
    pub applied: usize,
    /// Commands rejected with an `error` event.
    pub rejected: usize,
    /// Violations remaining at session end.
    pub violations: usize,
}

/// Drive a cleaning session: read JSONL commands from `input`, stream JSONL
/// events to `out`, return the edited relation and a summary.
///
/// The first emitted line is a `ready` event carrying the initial violation
/// state; each subsequent line answers one input line (`delta` on success,
/// `error` otherwise — the session keeps going after errors). EOF ends the
/// session.
pub fn run_session(
    rel: Relation,
    pfds: Vec<Pfd>,
    input: impl BufRead,
    out: &mut dyn Write,
) -> io::Result<(Relation, SessionSummary)> {
    let repairer = RepairEngine::new(rel, pfds, RepairOptions::default());
    let (repairer, summary) = run_session_with(repairer, input, out)?;
    Ok((repairer.into_relation(), summary))
}

/// [`run_session`] over a prebuilt engine (e.g. loaded from a snapshot): an
/// in-memory [`Session`] serving `input` to EOF.
pub fn run_session_with(
    repairer: RepairEngine,
    input: impl BufRead,
    out: &mut dyn Write,
) -> io::Result<(RepairEngine, SessionSummary)> {
    let mut session = Session::new(repairer);
    session.serve(input, out)?;
    let summary = session.summary();
    Ok((session.into_repairer(), summary))
}

/// Serialize the session-opening `ready` event for the engine's current
/// state. The multi-tenant server reuses this as the per-tenant `open`
/// acknowledgement so both surfaces stay byte-identical.
pub fn ready_json(repairer: &RepairEngine) -> String {
    let mut out = String::new();
    write_state_event(&mut out, "ready", repairer);
    out
}

/// Append a `ready`-shaped event named `event` for the engine's current
/// state to `out`.
fn write_state_event(out: &mut String, event: &str, repairer: &RepairEngine) {
    let violations = repairer.engine().sorted_violations();
    let _ = write!(
        out,
        "{{\"event\":\"{event}\",\"version\":{},\"rows\":{},\"pfds\":{},\"violations\":{},\"state\":",
        repairer.relation().version(),
        repairer.relation().num_rows(),
        repairer.engine().pfds().len(),
        violations.len(),
    );
    write_entries(out, &violations, repairer.relation().schema());
    out.push('}');
}

/// Serialize a [`RecoveryReport`] as a session `recovered` event line.
pub fn recovery_report_json(report: &RecoveryReport) -> String {
    let mut out = format!(
        "{{\"event\":\"recovered\",\"source\":{},\"generation\":{},\"log_records_applied\":{},\"log_records_skipped\":{},\"log_bytes_dropped\":{},\"log_tail\":{},\"degraded\":{},\"notes\":[",
        json::escaped(report.source.label()),
        report.generation,
        report.log_records_applied,
        report.log_records_skipped,
        report.log_bytes_dropped,
        json::escaped(report.log_tail.label()),
        report.degraded(),
    );
    for (i, note) in report.notes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json::escaped(note));
    }
    out.push_str("]}");
    out
}

/// Reads command lines as bytes, at most [`json::MAX_LINE_BYTES`] of any
/// one line. A line that is not UTF-8 or runs past the cap comes back as an
/// error message instead of ending the stream; its remaining bytes are
/// skipped without being buffered, and the next line reads normally.
pub struct LineReader<R> {
    input: R,
    buf: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    /// Read lines from `input`.
    pub fn new(input: R) -> Self {
        LineReader {
            input,
            buf: Vec::new(),
        }
    }

    /// The next line without its `\n` or `\r\n`: `Ok(text)`, or `Err` with
    /// the message its `error` event carries. `None` at end of input; an
    /// `io::Error` only when reading itself fails.
    pub fn next_line(&mut self) -> io::Result<Option<Result<&str, String>>> {
        self.buf.clear();
        let cap = json::MAX_LINE_BYTES + 1; // the longest line and its `\n`
        let mut line = self.input.by_ref().take(cap as u64);
        if line.read_until(b'\n', &mut self.buf)? == 0 {
            return Ok(None);
        }
        if self.buf.last() == Some(&b'\n') {
            self.buf.pop();
            if self.buf.last() == Some(&b'\r') {
                self.buf.pop();
            }
        } else if self.buf.len() == cap {
            self.input.skip_until(b'\n')?;
            let message = format!("line longer than {} bytes", json::MAX_LINE_BYTES);
            return Ok(Some(Err(message)));
        }
        let text = std::str::from_utf8(&self.buf);
        Ok(Some(
            text.map_err(|_| "line is not valid UTF-8".to_string()),
        ))
    }
}

/// Where a durable [`Session`] keeps its snapshot family, and the policy
/// it recovers that family under.
pub struct SessionStore {
    /// Every file touch goes through this handle, so a failpoint harness
    /// can crash any step at any byte.
    pub io: Arc<dyn Io + Send + Sync>,
    /// The current-snapshot path; `.prev`, `.tmp` and `.log` derive from it.
    pub path: PathBuf,
    /// How [`Session::open`] treats damaged files.
    pub policy: RecoveryPolicy,
}

/// A durable session's place on disk and its position in the WAL.
struct Durable {
    store: SessionStore,
    /// Generation of the newest snapshot, and the highest WAL sequence
    /// number the engine held when that snapshot was written or recovered.
    meta: SnapshotMeta,
    /// Sequence number of the next WAL record; `None` scans the log (and
    /// truncates any invalid tail) on the next append.
    next_seq: Option<u64>,
    /// True once a record was appended that no sync has covered yet.
    unsynced: bool,
}

impl Durable {
    /// Append one record without syncing it. The writer lives for this
    /// call only: it resumes at the cached sequence number, or scans the
    /// log once after an open or a checkpoint.
    fn append(&mut self, record: &[u8]) -> io::Result<()> {
        let io: &dyn Io = &*self.store.io;
        let log = SnapshotStore::new(io, &self.store.path).log_path();
        let mut wal = match self.next_seq.take() {
            Some(next) => WalWriter::continue_at(io, &log, next, SyncPolicy::Never),
            None => {
                WalWriter::open(io, &log, self.meta.last_seq, SyncPolicy::Never)
                    .map_err(|e| io::Error::new(e.kind(), format!("wal open failed: {e}")))?
                    .0
            }
        };
        wal.append(record)?;
        self.next_seq = Some(wal.last_seq() + 1);
        self.unsynced = true;
        Ok(())
    }

    /// Sync the log once if a record was appended since the last sync.
    fn sync(&mut self) -> io::Result<()> {
        if self.unsynced {
            let io: &dyn Io = &*self.store.io;
            io.sync(&SnapshotStore::new(io, &self.store.path).log_path())?;
            self.unsynced = false;
        }
        Ok(())
    }
}

/// One relation's live cleaning state — the engine and its command counts —
/// plus, when durable, its snapshot family and WAL position.
///
/// `pfd session` runs one directly, and every tenant of the multi-tenant
/// [`Server`](crate::server::Server) holds one, so recovery, append-then-ack
/// and checkpointing exist once:
///
/// 1. [`Session::open`] recovers the snapshot family (or cold-builds),
///    checkpoints when recovery says so, and returns a `recovered` event
///    when recovery was degraded or replayed records;
/// 2. `Session::stage_line` parses and applies a command, appends it to
///    the WAL without a sync, and holds its answer; `Session::commit`
///    then fsyncs the log once for every command staged since the last
///    commit, and only after that returns their answers, one line each —
///    an acknowledged command survives any crash. [`Session::handle_line`]
///    is one stage and one commit, writing the answers out; a server drain
///    job stages each command it claimed, commits the run and emits each
///    line to its sink;
/// 3. [`Session::checkpoint`] writes the next snapshot generation, covering
///    every appended record, and retires the log.
pub struct Session {
    repairer: RepairEngine,
    summary: SessionSummary,
    durable: Option<Durable>,
    /// The answers of the commands staged since the last commit, each line
    /// ending in `\n`.
    held: String,
    /// Staged commands that applied (or, for `check`, read) cleanly. They
    /// count as applied only once their run commits.
    staged_applied: usize,
}

impl Session {
    /// An in-memory session over a prebuilt engine.
    pub(crate) fn new(repairer: RepairEngine) -> Self {
        Session {
            repairer,
            summary: SessionSummary::default(),
            durable: None,
            held: String::new(),
            staged_applied: 0,
        }
    }

    /// Open a session. Without a `store` this is `cold` in memory. With
    /// one, [`SnapshotStore::recover`] walks the degradation ladder under
    /// the store's policy (calling `cold` only when no snapshot is usable),
    /// and salvaged or rebuilt state is checkpointed before the first
    /// command. Returns the session and, when recovery was degraded or
    /// replayed log records, its `recovered` event line, which the caller
    /// writes before any other event of the session. A clean resume has
    /// none, so it stays byte-identical to a fresh session.
    pub fn open<E>(
        store: Option<SessionStore>,
        options: RepairOptions,
        cold: impl FnOnce() -> Result<DeltaEngine, E>,
    ) -> Result<(Self, Option<String>), RecoverFailure<E>> {
        let Some(store) = store else {
            let engine = cold().map_err(RecoverFailure::ColdBuild)?;
            return Ok((
                Session::new(RepairEngine::from_engine(engine, options)),
                None,
            ));
        };
        let recovered = SnapshotStore::new(&*store.io, &store.path).recover(store.policy, cold)?;
        let report = &recovered.report;
        let event = (report.degraded() || report.log_records_applied > 0)
            .then(|| recovery_report_json(report));
        let mut session = Session::new(RepairEngine::from_engine(recovered.engine, options));
        session.durable = Some(Durable {
            store,
            meta: SnapshotMeta {
                generation: recovered.meta.generation,
                last_seq: recovered.seq_floor,
            },
            next_seq: None,
            unsynced: false,
        });
        if recovered.needs_checkpoint {
            session.checkpoint().map_err(RecoverFailure::Snapshot)?;
        }
        Ok((session, event))
    }

    /// Serve `input` to EOF: the `ready` event, then one answer per
    /// non-blank line. Lines come through a [`LineReader`], so an
    /// unreadable line is rejected like malformed JSON.
    pub fn serve(&mut self, input: impl BufRead, out: &mut dyn Write) -> io::Result<()> {
        writeln!(out, "{}", ready_json(&self.repairer))?;
        let mut lines = LineReader::new(input);
        while let Some(line) = lines.next_line()? {
            match line {
                Ok(line) if line.trim().is_empty() => {}
                Ok(line) => self.handle_line(line, out)?,
                Err(unreadable) => {
                    self.reject(&unreadable);
                    out.write_all(self.commit()?.as_bytes())?;
                }
            }
        }
        Ok(())
    }

    /// Answer one command line: `Session::stage_line`, then
    /// `Session::commit` — one WAL append, one sync — then write its events
    /// to `out`. An `Err` means the WAL or `out` failed: the engine may
    /// then hold an edit that was never acknowledged, so the caller must
    /// drop the session (a durable one reopens from its snapshot family).
    pub fn handle_line(&mut self, line: &str, out: &mut dyn Write) -> io::Result<()> {
        self.stage_line(line)?;
        out.write_all(self.commit()?.as_bytes())
    }

    /// Stage one command line: parse it, apply it, append its record to
    /// the WAL without a sync (durable sessions), and hold its answer for
    /// [`Session::commit`]. A command that does not parse or apply holds
    /// one `error` answer and the session goes on. An `Err` means the WAL
    /// append failed: this command holds no answer and the engine may hold
    /// its edit, so the caller commits the run staged before it, answers
    /// this command with an `error`, and drops the session.
    pub(crate) fn stage_line(&mut self, line: &str) -> io::Result<()> {
        match parse_command(line, self.repairer.relation().schema()) {
            Ok(SessionCommand::Repair { max_passes }) => {
                // The override applies to this chase only (clamped to ≥ 1
                // so a cap of 0 cannot silently no-op); later plain
                // `repair` commands get the engine default back.
                let saved = self.repairer.options().max_passes;
                if let Some(cap) = max_passes {
                    self.repairer.options_mut().max_passes = cap.max(1);
                }
                let (outcome, passes) = self.repairer.run();
                self.repairer.options_mut().max_passes = saved;
                if !outcome.fixes.is_empty() {
                    // Logged as one `batch` of the `set` edits it applied.
                    self.log(|schema| {
                        let edits: Vec<Edit> = (outcome.fixes.iter())
                            .map(|fix| Edit::Set {
                                row: fix.row,
                                attr: fix.attr,
                                value: fix.new.clone(),
                            })
                            .collect();
                        edits_as_batch_json(&edits, schema)
                    })?;
                }
                self.staged_applied += 1;
                let (engine, schema) = (self.repairer.engine(), self.repairer.relation().schema());
                write_repair_events(&mut self.held, &outcome, passes, engine, schema);
            }
            Ok(SessionCommand::Check) => {
                // Read-only: answer with the current state, log nothing.
                self.staged_applied += 1;
                write_state_event(&mut self.held, "state", &self.repairer);
                self.held.push('\n');
            }
            Ok(SessionCommand::Single(edit)) => {
                let applied = self.repairer.engine_mut().apply(edit);
                self.stage_edits(applied, None, |_| line.trim().to_string())?;
            }
            Ok(SessionCommand::Batch(edits)) => {
                let applied = self.repairer.engine_mut().apply_batch(&edits);
                self.stage_edits(applied, None, |_| line.trim().to_string())?;
            }
            Err(message) => self.reject(&message),
        }
        Ok(())
    }

    /// Stage the edits of `commands` queued commands as one `apply_batch`,
    /// logged as one `batch` record and answered by one `delta` event
    /// tagged `"coalesced":k` — or rejected as a whole by one `error` event.
    /// The multi-tenant server's coalescing path; errors as
    /// [`Session::stage_line`].
    pub(crate) fn stage_coalesced(&mut self, edits: &[Edit], commands: usize) -> io::Result<()> {
        let applied = self.repairer.engine_mut().apply_batch(edits);
        let record = |schema: &Schema| edits_as_batch_json(edits, schema);
        self.stage_edits(applied, Some(commands), record)
    }

    /// Append applied edits' record to the WAL and hold their `delta`
    /// answer, or hold their rejection. `coalesced` counts the commands
    /// merged into one answer.
    fn stage_edits(
        &mut self,
        applied: Result<ViolationDelta, RelationError>,
        coalesced: Option<usize>,
        record: impl FnOnce(&Schema) -> String,
    ) -> io::Result<()> {
        let commands = coalesced.unwrap_or(1);
        let tag = coalesced.map_or(String::new(), |k| format!("\"coalesced\":{k},"));
        match applied {
            Ok(delta) => {
                self.log(record)?;
                self.staged_applied += commands;
                let violations = self.repairer.engine().violation_count();
                let schema = self.repairer.relation().schema();
                write_delta(&mut self.held, &tag, &delta, violations, schema);
                self.held.push('\n');
            }
            Err(e) => {
                self.summary.rejected += commands;
                self.hold_error(&tag, &e.to_string());
            }
        }
        Ok(())
    }

    /// Hold one `error` answer for an unusable line.
    fn reject(&mut self, message: &str) {
        self.summary.rejected += 1;
        self.hold_error("", message);
    }

    /// Hold one `error` event, with `tag` injected as in [`write_delta`].
    fn hold_error(&mut self, tag: &str, message: &str) {
        let _ = write!(self.held, "{{\"event\":\"error\",{tag}\"message\":");
        json::write_escaped(&mut self.held, message);
        self.held.push_str("}\n");
    }

    /// Append a command's replayable record to the WAL (durable sessions
    /// only; the record is not even rendered in memory).
    fn log(&mut self, record: impl FnOnce(&Schema) -> String) -> io::Result<()> {
        match self.durable.as_mut() {
            Some(durable) => durable.append(record(self.repairer.relation().schema()).as_bytes()),
            None => Ok(()),
        }
    }

    /// Commit the run staged since the last commit: sync the WAL once if
    /// anything was appended, count the run's commands applied, and return
    /// every held answer in order, each line ending in `\n`. When the sync
    /// fails, the answers are dropped and no staged command was
    /// acknowledged or counts as applied: the caller answers each with an
    /// `error` and drops the session. A commit with nothing staged returns
    /// no lines.
    pub(crate) fn commit(&mut self) -> io::Result<String> {
        let held = std::mem::take(&mut self.held);
        let applied = std::mem::take(&mut self.staged_applied);
        if let Some(durable) = self.durable.as_mut() {
            durable.sync()?;
        }
        self.summary.applied += applied;
        Ok(held)
    }

    /// Bytes of answers held for the commands staged since the last commit.
    pub(crate) fn held_bytes(&self) -> usize {
        self.held.len()
    }

    /// Persist the live state as the next snapshot generation, covering
    /// every appended record, and retire the log. A no-op in memory. On
    /// failure the session stays usable: its state is still covered by the
    /// previous snapshot plus the log.
    pub fn checkpoint(&mut self) -> Result<(), SnapshotError> {
        let Some(durable) = self.durable.as_mut() else {
            return Ok(());
        };
        let meta = SnapshotMeta {
            generation: durable.meta.generation + 1,
            last_seq: durable
                .next_seq
                .map_or(durable.meta.last_seq, |next| next - 1),
        };
        SnapshotStore::new(&*durable.store.io, &durable.store.path)
            .checkpoint(self.repairer.engine(), meta)?;
        durable.meta = meta;
        // The log is gone, and the synced snapshot covers every record it
        // held; the next append starts a fresh log after `meta`.
        durable.next_seq = None;
        durable.unsynced = false;
        Ok(())
    }

    /// The live engine.
    pub(crate) fn repairer(&self) -> &RepairEngine {
        &self.repairer
    }

    /// Give up the session, keeping its engine.
    pub(crate) fn into_repairer(self) -> RepairEngine {
        self.repairer
    }

    /// Commands applied and rejected so far, and the violations now.
    pub fn summary(&self) -> SessionSummary {
        SessionSummary {
            violations: self.repairer.engine().violation_count(),
            ..self.summary.clone()
        }
    }

    /// Continue the counts of an earlier session over the same state — a
    /// server tenant rebuilt after eviction keeps counting where it was.
    pub(crate) fn resume_counts(&mut self, earlier: &SessionSummary) {
        self.summary.applied = earlier.applied;
        self.summary.rejected = earlier.rejected;
    }
}

/// Render a slice of edits as one replayable `batch` command line — the
/// form the WAL stores a repair chase and a coalesced edit run in, so
/// replay reproduces the single `apply_batch` (and its one version bump)
/// exactly.
pub(crate) fn edits_as_batch_json(edits: &[Edit], schema: &Schema) -> String {
    let mut line = String::from("{\"op\":\"batch\",\"edits\":[");
    for (i, edit) in edits.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        match edit {
            Edit::Set { row, attr, value } => {
                line.push_str(&format!(
                    "{{\"op\":\"set\",\"row\":{row},\"attr\":{},\"value\":{}}}",
                    json::escaped(schema.name_of(*attr).unwrap_or("?")),
                    json::escaped(value)
                ));
            }
            Edit::Insert { cells } => {
                line.push_str("{\"op\":\"insert\",\"cells\":[");
                for (j, cell) in cells.iter().enumerate() {
                    if j > 0 {
                        line.push(',');
                    }
                    line.push_str(&json::escaped(cell));
                }
                line.push_str("]}");
            }
            Edit::Delete { row } => {
                line.push_str(&format!("{{\"op\":\"delete\",\"row\":{row}}}"));
            }
        }
    }
    line.push_str("]}");
    line
}

/// Render one repair chase's events into `out`: a `conflict` line per
/// contested cell, a `fix` line per applied fix, an `unrepaired` line per
/// suggestion-less flag, then one `repaired` summary line.
fn write_repair_events(
    out: &mut String,
    outcome: &RepairOutcome,
    passes: usize,
    engine: &DeltaEngine,
    schema: &Schema,
) {
    for fix in &outcome.fixes {
        if !fix.competitors.is_empty() {
            let _ = write!(
                out,
                "{{\"event\":\"conflict\",\"row\":{},\"attr\":{},\"chosen_pfd\":{},\"candidates\":[",
                fix.row,
                json::escaped(schema.name_of(fix.attr).unwrap_or("?")),
                fix.pfd_index
            );
            for (i, c) in fix.competitors.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&candidate_json(c));
            }
            out.push_str("]}\n");
        }
        let _ = writeln!(out, "{{\"event\":\"fix\",{}", &fix_json(fix, schema)[1..]);
    }
    for flag in &outcome.unrepaired {
        let _ = writeln!(
            out,
            "{{\"event\":\"unrepaired\",\"row\":{},\"attr\":{},\"pfd\":{},\"current\":{}}}",
            flag.row,
            json::escaped(schema.name_of(flag.attr).unwrap_or("?")),
            flag.pfd_index,
            json::escaped(&flag.current)
        );
    }
    let _ = writeln!(
        out,
        "{{\"event\":\"repaired\",\"passes\":{passes},\"fixes\":{},\"unrepaired\":{},\"violations\":{}}}",
        outcome.fixes.len(),
        outcome.unrepaired.len(),
        engine.violation_count()
    );
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;
    use crate::tableau::TableauRow;
    use std::io::Cursor;

    fn name_relation() -> Relation {
        Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["John Charles", "M"],
                vec!["John Bosco", "M"],
                vec!["Susan Orlean", "F"],
                vec!["Susan Boyle", "M"], // dirty
            ],
        )
        .unwrap()
    }

    fn gender_pfd(rel: &Relation) -> Pfd {
        let mut pfd =
            Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")
                .unwrap();
        pfd.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
            .unwrap();
        pfd
    }

    #[test]
    fn json_roundtrip() {
        let v = json::parse(
            r#"{"op":"set","row":3,"attr":"gender","value":"F \"quoted\" é\n","ok":true,"x":null,"arr":[1,2.5,-3]}"#,
        )
        .unwrap();
        assert_eq!(v.get("op").and_then(Value::as_str), Some("set"));
        assert_eq!(v.get("row").and_then(Value::as_index), Some(3));
        assert_eq!(
            v.get("value").and_then(Value::as_str),
            Some("F \"quoted\" é\n")
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(v.get("x"), Some(&Value::Null));
        assert_eq!(
            v.get("arr").and_then(Value::as_arr).map(<[Value]>::len),
            Some(3)
        );
        // Escaping survives a round trip.
        let s = "tab\there \"and\" a \\ slash\nnewline";
        let esc = json::escaped(s);
        assert_eq!(json::parse(&esc).unwrap(), Value::Str(s.to_string()));
    }

    #[test]
    fn json_parse_errors() {
        assert!(json::parse("{").is_err());
        assert!(json::parse("{\"a\" 1}").is_err());
        assert!(json::parse("[1,]").is_err());
        assert!(json::parse("\"unterminated").is_err());
        assert!(json::parse("{} trailing").is_err());
        assert!(json::parse("12..5").is_err());

        // Nesting is capped: the cap itself parses, one level more errors.
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        let too_deep = json::parse(&nested(json::MAX_DEPTH + 1)).unwrap_err();
        assert!(too_deep.contains("nested deeper than 64"), "{too_deep}");

        // Lines deep enough to overflow a recursive parser get one error
        // event each, and the session keeps answering the commands after.
        let open_brackets = "[".repeat(200_000);
        let deep_set = format!(r#"{{"op":"set","row":0,"attr":"gender","value":{open_brackets}"#);
        let deep_check = format!(r#"{{"op":"check","x":{}}}"#, nested(10_000));
        // Lines the reader cannot deliver — bytes that are not UTF-8, and a
        // line past the byte cap — get one error event each as well.
        let over_cap = "x".repeat(json::MAX_LINE_BYTES + 1);
        let script: [&[u8]; 6] = [
            open_brackets.as_bytes(),
            deep_set.as_bytes(),
            deep_check.as_bytes(),
            b"\xff\xfe",
            over_cap.as_bytes(),
            br#"{"op":"check"}"#,
        ];
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        let mut out = Vec::new();
        let (_, summary) =
            run_session(rel, pfds, Cursor::new(script.join(&b'\n')), &mut out).unwrap();
        let events: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(events.len(), 1 + script.len(), "{events:?}");
        for event in &events[1..4] {
            assert!(
                event.starts_with(r#"{"event":"error","message":"JSON nested deeper than 64"#),
                "{event}"
            );
        }
        assert_eq!(
            events[4],
            r#"{"event":"error","message":"line is not valid UTF-8"}"#
        );
        assert_eq!(
            events[5],
            r#"{"event":"error","message":"line longer than 4194304 bytes"}"#
        );
        assert!(
            events[6].starts_with(r#"{"event":"state""#),
            "{}",
            events[6]
        );
        assert_eq!((summary.applied, summary.rejected), (1, 5));
    }

    /// Fragments of command lines: structure, escapes (good and bad, halves
    /// of surrogate pairs), number and keyword pieces, multi-byte chars,
    /// control chars, and whitespace that `char::is_whitespace` accepts —
    /// or, for U+FEFF, does not.
    const PIECES: &[&str] = &[
        "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "D83D", "DE00", "DC00", "00e9", "\\n",
        "\\\"", "\\/", "\\x", "u", "0", "7", "-", "+", ".", "e", "E", "true", "false", "null",
        "nul", "\"op\"", "\"set\"", "a", "é", "😀", "\u{301}", "\u{0}", "\u{1f}", " ", "\t",
        "\r\n", "\u{b}", "\u{a0}", "\u{85}", "\u{2028}", "\u{3000}", "\u{feff}",
    ];

    /// Valid documents as token lists, to be spaced and truncated.
    const DOCS: &[&[&str]] = &[
        &[
            "{",
            "\"op\"",
            ":",
            "\"set\"",
            ",",
            "\"row\"",
            ":",
            "3",
            ",",
            "\"attr\"",
            ":",
            "\"gender\"",
            ",",
            "\"value\"",
            ":",
            r#""F \"q\" \u00e9\uD83D\uDE00\n é""#,
            "}",
        ],
        &[
            "[", "1", ",", "-2.5e3", ",", "true", ",", "null", ",", "{", "}", ",", "[", "]", "]",
        ],
        &[
            "{",
            "\"op\"",
            ":",
            "\"batch\"",
            ",",
            "\"edits\"",
            ":",
            "[",
            "{",
            "\"op\"",
            ":",
            "\"insert\"",
            ",",
            "\"cells\"",
            ":",
            "[",
            "\"😀\"",
            ",",
            r#""\t\/\b""#,
            "]",
            "}",
            "]",
            "}",
        ],
    ];

    /// Whitespace between tokens (index 0: none).
    const GAPS: &[&str] = &[
        "", " ", "\t", "\u{a0}", "\u{3000}", "\u{85}", "\u{b}", "\u{feff}",
    ];

    fn oracle_agrees(line: &str) -> Result<(), proptest::test_runner::TestCaseError> {
        proptest::prop_assert_eq!(json::parse(line), json::chars::parse(line), "{:?}", line);
        Ok(())
    }

    proptest::proptest! {
        /// The byte parser accepts what the char parser did, with equal
        /// values and byte-identical errors: random fragment soup, spaced
        /// and truncated valid documents, and deep nesting around the cap.
        #[test]
        fn byte_parser_matches_char_oracle(
            soup in proptest::collection::vec(0..PIECES.len(), 0..40),
            doc in 0..DOCS.len(),
            gaps in proptest::collection::vec(0..GAPS.len(), 24),
            cut in 0usize..200,
            depth in (0usize..70, 0usize..70, 0usize..3),
        ) {
            let soup: String = soup.iter().map(|&i| PIECES[i]).collect();
            oracle_agrees(&soup)?;

            let mut spaced = String::new();
            for (token, &gap) in DOCS[doc].iter().zip(gaps.iter().cycle()) {
                spaced.push_str(token);
                spaced.push_str(GAPS[gap]);
            }
            oracle_agrees(&spaced)?;
            let truncated: String = spaced.chars().take(cut).collect();
            oracle_agrees(&truncated)?;

            let (open, close, filler) = depth;
            let nested = format!(
                "{}{}{}",
                "[".repeat(open),
                ["", "1", "{\"k\":[]}"][filler],
                "]".repeat(close)
            );
            oracle_agrees(&nested)?;
        }
    }

    #[test]
    fn line_reader_bounds_each_line() {
        let cap = json::MAX_LINE_BYTES;
        let at_cap = "y".repeat(cap);
        let input = format!("a\r\n\n{at_cap}\n{at_cap}z\nb");
        let mut lines = LineReader::new(input.as_bytes());
        let mut read = Vec::new();
        while let Some(line) = lines.next_line().unwrap() {
            read.push(line.map(str::len));
        }
        let too_long = Err(format!("line longer than {cap} bytes"));
        assert_eq!(read, [Ok(1), Ok(0), Ok(cap), too_long, Ok(1)]);
    }

    #[test]
    fn json_surrogate_escapes() {
        // A valid escaped pair decodes to U+1F600.
        assert_eq!(
            json::parse(r#""\uD83D\uDE00""#).unwrap(),
            Value::Str("😀".into())
        );
        // Every malformed shape errors instead of panicking (a
        // non-low-surrogate second escape used to underflow in debug
        // builds).
        assert!(json::parse(r#""\uD800\u0041""#).is_err(), "bad low half");
        assert!(json::parse(r#""\uD800""#).is_err(), "lone high surrogate");
        assert!(json::parse(r#""\uDC00""#).is_err(), "lone low surrogate");
        assert!(json::parse(r#""\uD800x""#).is_err(), "no second escape");
    }

    #[test]
    fn command_parsing_resolves_attrs() {
        let rel = name_relation();
        let schema = rel.schema();
        let cmd = parse_command(
            r#"{"op":"set","row":3,"attr":"gender","value":"F"}"#,
            schema,
        )
        .unwrap();
        assert_eq!(
            cmd,
            SessionCommand::Single(Edit::Set {
                row: 3,
                attr: AttrId(1),
                value: "F".into()
            })
        );
        // Index form.
        let cmd = parse_command(r#"{"op":"set","row":3,"attr":1,"value":"F"}"#, schema).unwrap();
        assert!(matches!(
            cmd,
            SessionCommand::Single(Edit::Set {
                attr: AttrId(1),
                ..
            })
        ));
        assert!(
            parse_command(r#"{"op":"set","row":3,"attr":"nope","value":"F"}"#, schema).is_err()
        );
        assert!(parse_command(r#"{"op":"fly"}"#, schema).is_err());
        let cmd = parse_command(
            r#"{"op":"batch","edits":[{"op":"delete","row":0},{"op":"insert","cells":["A","B"]}]}"#,
            schema,
        )
        .unwrap();
        assert_eq!(
            cmd,
            SessionCommand::Batch(vec![
                Edit::Delete { row: 0 },
                Edit::Insert {
                    cells: vec!["A".into(), "B".into()]
                }
            ])
        );
    }

    #[test]
    fn session_streams_deltas_and_survives_errors() {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        let script = concat!(
            "{\"op\":\"set\",\"row\":3,\"attr\":\"gender\",\"value\":\"F\"}\n",
            "\n",
            "this is not json\n",
            "{\"op\":\"set\",\"row\":99,\"attr\":\"gender\",\"value\":\"F\"}\n",
            "{\"op\":\"insert\",\"cells\":[\"John Doe\",\"F\"]}\n",
        );
        let mut out = Vec::new();
        let (final_rel, summary) = run_session(rel, pfds, Cursor::new(script), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5, "ready + 4 answered lines: {text}");
        assert!(lines[0].contains("\"event\":\"ready\""));
        assert!(lines[0].contains("\"violations\":1"));
        assert!(lines[1].contains("\"resolved\":[{"), "{}", lines[1]);
        assert!(lines[2].contains("\"event\":\"error\""));
        assert!(lines[3].contains("\"event\":\"error\""));
        assert!(lines[4].contains("\"introduced\":[{"), "{}", lines[4]);
        assert_eq!(summary.applied, 2);
        assert_eq!(summary.rejected, 2);
        assert_eq!(summary.violations, 1, "the inserted John Doe/F violates");
        assert_eq!(final_rel.num_rows(), 5);
        // Every emitted line is valid JSON.
        for line in lines {
            json::parse(line).unwrap();
        }
    }

    #[test]
    fn session_repair_command_streams_fix_events() {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        // Break one more cell, then ask the session to repair everything.
        let script = concat!(
            "{\"op\":\"set\",\"row\":0,\"attr\":\"gender\",\"value\":\"F\"}\n",
            "{\"op\":\"repair\"}\n",
        );
        let mut out = Vec::new();
        let (final_rel, summary) =
            run_session(rel.clone(), pfds, Cursor::new(script), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines {
            json::parse(line).unwrap();
        }
        let fixes: Vec<&&str> = lines
            .iter()
            .filter(|l| l.contains("\"event\":\"fix\""))
            .collect();
        assert_eq!(fixes.len(), 2, "both dirty genders repaired: {text}");
        assert!(fixes[0].contains("\"score\":"), "{}", fixes[0]);
        assert!(fixes[0].contains("\"support\":"), "{}", fixes[0]);
        let done = lines.last().unwrap();
        assert!(done.contains("\"event\":\"repaired\""), "{done}");
        assert!(done.contains("\"violations\":0"), "{done}");
        assert_eq!(summary.applied, 2, "the set and the repair");
        assert_eq!(summary.violations, 0);
        let gender = final_rel.schema().attr("gender").unwrap();
        assert_eq!(final_rel.cell(0, gender), "M", "John restored");
        assert_eq!(final_rel.cell(3, gender), "F", "Susan Boyle restored");
    }

    #[test]
    fn session_repair_pass_cap_applies_to_one_chase_only() {
        // A cascade needing two passes: capped at 1, the first repair
        // leaves the exposed state violation behind; the next *plain*
        // repair gets the engine default back (the override is not
        // sticky) and finishes the chase.
        let rel = Relation::from_rows(
            "Geo",
            &["zip", "city", "state"],
            vec![
                vec!["90001", "Los Angeles", "CA"],
                vec!["90002", "Los Angeles", "CA"],
                vec!["90003", "Los Angeles", "CA"],
                vec!["90004", "New York", "NY"],
            ],
        )
        .unwrap();
        let zip_city =
            Pfd::constant_normal_form("Geo", rel.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let city_state =
            Pfd::constant_normal_form("Geo", rel.schema(), "city", r"Los\ Angeles", "state", "CA")
                .unwrap();
        let script = concat!(
            "{\"op\":\"repair\",\"max_passes\":1}\n",
            "{\"op\":\"repair\"}\n"
        );
        let mut out = Vec::new();
        let (_, summary) = run_session(
            rel,
            vec![zip_city, city_state],
            Cursor::new(script),
            &mut out,
        )
        .unwrap();
        let text = String::from_utf8(out).unwrap();
        let repaired: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("\"event\":\"repaired\""))
            .collect();
        assert_eq!(repaired.len(), 2, "{text}");
        assert!(
            repaired[0].contains("\"passes\":1") && !repaired[0].contains("\"violations\":0"),
            "capped chase stops mid-cascade: {}",
            repaired[0]
        );
        assert!(
            repaired[1].contains("\"violations\":0"),
            "the plain repair finishes under the default cap: {}",
            repaired[1]
        );
        assert_eq!(summary.violations, 0);
    }

    #[test]
    fn session_repair_accepts_pass_cap_and_rejects_bad_values() {
        let rel = name_relation();
        let schema = rel.schema();
        assert_eq!(
            parse_command(r#"{"op":"repair"}"#, schema).unwrap(),
            SessionCommand::Repair { max_passes: None }
        );
        assert_eq!(
            parse_command(r#"{"op":"repair","max_passes":3}"#, schema).unwrap(),
            SessionCommand::Repair {
                max_passes: Some(3)
            }
        );
        assert!(parse_command(r#"{"op":"repair","max_passes":"x"}"#, schema).is_err());
        assert!(parse_command(r#"{"op":"batch","edits":[{"op":"repair"}]}"#, schema).is_err());
    }

    #[test]
    fn check_command_reports_state_without_mutating() {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        let script = concat!(
            "{\"op\":\"check\"}\n",
            "{\"op\":\"set\",\"row\":3,\"attr\":\"gender\",\"value\":\"F\"}\n",
            "{\"op\":\"check\"}\n",
        );
        let mut out = Vec::new();
        let (final_rel, summary) = run_session(rel, pfds, Cursor::new(script), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "{text}");
        assert!(lines[1].contains("\"event\":\"state\""));
        assert!(lines[1].contains("\"violations\":1"));
        assert!(lines[3].contains("\"event\":\"state\""));
        assert!(lines[3].contains("\"violations\":0"));
        // The ready and first check describe the same untouched state.
        assert_eq!(lines[0].replace("ready", "state"), lines[1]);
        assert_eq!(summary.applied, 3);
        assert_eq!(final_rel.num_rows(), 4, "check never mutates");
        // check inside a batch is rejected.
        let schema = name_relation();
        assert!(parse_command(
            r#"{"op":"batch","edits":[{"op":"check"}]}"#,
            schema.schema()
        )
        .is_err());
    }

    #[test]
    fn edits_as_batch_json_roundtrips_through_parse() {
        let rel = name_relation();
        let schema = rel.schema();
        let edits = vec![
            Edit::Set {
                row: 3,
                attr: AttrId(1),
                value: "F \"q\"".into(),
            },
            Edit::Insert {
                cells: vec!["A".into(), "B".into()],
            },
            Edit::Delete { row: 0 },
        ];
        let line = edits_as_batch_json(&edits, schema);
        match parse_command(&line, schema).unwrap() {
            SessionCommand::Batch(parsed) => assert_eq!(parsed, edits),
            other => panic!("expected batch, got {other:?}"),
        }
    }

    #[test]
    fn regrouped_violations_render_one_record_per_partner() {
        // Rows 1–3 hold the majority "B", paired with row 0's "A" through
        // row 1. Moving row 1 to "C" makes row 2 the partner and shrinks
        // the majority: row 0's violation keeps its suspect cell and is
        // regrouped; row 1's is new.
        let rel = Relation::from_rows(
            "Zip",
            &["zip", "city"],
            vec![
                vec!["1", "A"],
                vec!["1", "B"],
                vec!["1", "B"],
                vec!["1", "B"],
            ],
        )
        .unwrap();
        let pfds = vec![Pfd::fd("Zip", rel.schema(), &["zip"], &["city"]).unwrap()];
        let script = "{\"op\":\"set\",\"row\":1,\"attr\":\"city\",\"value\":\"C\"}\n";
        let mut out = Vec::new();
        run_session(rel, pfds, Cursor::new(script), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[1],
            concat!(
                r#"{"event":"delta","version":5,"violations":2,"introduced":[{"pfd":0,"#,
                r#""tableau_row":0,"kind":"tuple_pair","attr":"city","group_size":4,"#,
                r#""majority_size":2,"rows":[2,1],"cells":[{"row":2,"attr":"zip"},"#,
                r#"{"row":2,"attr":"city"},{"row":1,"attr":"zip"},{"row":1,"attr":"city"}]}],"#,
                r#""resolved":[],"regrouped":[{"pfd":0,"tableau_row":0,"kind":"tuple_pair","#,
                r#""attr":"city","partner":2,"group_size":4,"majority_size":2,"rows":[0]}]}"#
            )
        );
        json::parse(lines[1]).unwrap();
    }

    #[test]
    fn violation_json_shape() {
        let rel = name_relation();
        let pfd = gender_pfd(&rel);
        let v = &pfd.violations(&rel)[0];
        let j = violation_json(0, v, rel.schema());
        let parsed = json::parse(&j).unwrap();
        assert_eq!(parsed.get("pfd").and_then(Value::as_index), Some(0));
        assert_eq!(
            parsed.get("kind").and_then(Value::as_str),
            Some("single_tuple")
        );
        assert_eq!(parsed.get("attr").and_then(Value::as_str), Some("gender"));
        assert_eq!(
            parsed.get("rows").and_then(Value::as_arr).unwrap()[0].as_index(),
            Some(3)
        );
    }
}
