//! The long-running cleaning session: a JSONL edit/delta protocol over the
//! [`DeltaEngine`].
//!
//! The paper's ANMAT demo (§4.5) is a steward-in-the-loop tool: edits go in,
//! violation changes come out, immediately. [`run_session`] is the
//! embeddable seam for that loop — it reads one JSON command per input line
//! and streams one JSON event per line to the output, so the same function
//! backs the `pfd session` CLI subcommand today and a network server
//! tomorrow.
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
//! never kills the session). The same serializers back the `--json` flags
//! of `pfd check` and `pfd repair`, so batch reports and the interactive
//! stream speak one format.
//!
//! The module hand-rolls a minimal JSON reader/writer ([`json`]) because
//! the build environment vendors no serde; it covers the full value grammar
//! (objects, arrays, strings with escapes, numbers, booleans, null).

use crate::detect::DetectionReport;
use crate::incremental::{DeltaEngine, DeltaEntry, Edit, ViolationDelta};
use crate::pfd::{Pfd, Violation, ViolationKind};
use crate::repair::{CellFix, FixCandidate, RepairEngine, RepairOptions, RepairOutcome};
use crate::snapshot::{
    RecoverFailure, RecoveryPolicy, RecoveryReport, SnapshotError, SnapshotMeta, SnapshotStore,
};
use pfd_relation::io::Io;
use pfd_relation::wal::{SyncPolicy, WalLineSink, WalWriter};
use pfd_relation::{AttrId, Relation, RowId, Schema};
use std::io::{BufRead, Write};
use std::path::Path;

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

    /// Parse one JSON document (trailing non-whitespace is an error).
    /// Nesting deeper than [`MAX_DEPTH`] is an error, not a stack overflow.
    pub fn parse(src: &str) -> Result<Value, String> {
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
                        other => return Err(format!("object key must be a string, got {other:?}")),
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

    fn parse_keyword(s: &[char], pos: &mut usize, word: &str, v: Value) -> Result<Value, String> {
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
}

use json::Value;

/// Serialize a violation with attribute names resolved against the schema.
pub fn violation_json(pfd_index: usize, v: &Violation, schema: &Schema) -> String {
    let mut out = String::new();
    let kind = match v.kind {
        ViolationKind::SingleTuple => "single_tuple",
        ViolationKind::TuplePair => "tuple_pair",
    };
    let attr = schema.name_of(v.attr).unwrap_or("?");
    out.push_str(&format!(
        "{{\"pfd\":{pfd_index},\"tableau_row\":{},\"kind\":\"{kind}\",\"attr\":{},\
         \"group_size\":{},\"majority_size\":{},\"rows\":[",
        v.tableau_row,
        json::escaped(attr),
        v.group_size(),
        v.majority_size()
    ));
    for (i, r) in v.rows().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_string());
    }
    out.push_str("],\"cells\":[");
    for (i, (r, a)) in v.cells().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"row\":{r},\"attr\":{}}}",
            json::escaped(schema.name_of(*a).unwrap_or("?"))
        ));
    }
    out.push_str("]}");
    out
}

fn entries_json(entries: &[DeltaEntry], schema: &Schema) -> String {
    let mut out = String::from("[");
    for (i, e) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&violation_json(e.pfd_index, &e.violation, schema));
    }
    out.push(']');
    out
}

/// Serialize one delta event line (without trailing newline).
pub fn delta_json(delta: &ViolationDelta, violations_now: usize, schema: &Schema) -> String {
    format!(
        "{{\"event\":\"delta\",\"version\":{},\"violations\":{},\"introduced\":{},\"resolved\":{}}}",
        delta.version,
        violations_now,
        entries_json(&delta.introduced, schema),
        entries_json(&delta.resolved, schema),
    )
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
        let kind = match flag.kind {
            ViolationKind::SingleTuple => "single_tuple",
            ViolationKind::TuplePair => "tuple_pair",
        };
        out.push_str(&format!(
            "{{\"row\":{},\"attr\":{},\"pfd\":{},\"kind\":\"{kind}\",\"current\":{},\"suggestion\":{}}}",
            flag.row,
            json::escaped(schema.name_of(flag.attr).unwrap_or("?")),
            flag.pfd_index,
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
) -> std::io::Result<(Relation, SessionSummary)> {
    let repairer = RepairEngine::new(rel, pfds, RepairOptions::default());
    let (repairer, summary) = run_session_with(repairer, input, out, None)?;
    Ok((repairer.into_relation(), summary))
}

/// [`run_session`] over a prebuilt engine (e.g. loaded from a snapshot),
/// optionally appending every applied command to `log` as replayable JSONL:
/// successful edits are logged verbatim, a repair chase is logged as one
/// `batch` of the `set` edits it applied. The log plus the engine's starting
/// state reproduce the engine's final state exactly, which is the snapshot
/// layer's resume contract.
pub fn run_session_with(
    mut repairer: RepairEngine,
    input: impl BufRead,
    out: &mut dyn Write,
    mut log: Option<&mut dyn Write>,
) -> std::io::Result<(RepairEngine, SessionSummary)> {
    let schema = repairer.relation().schema().clone();
    writeln!(out, "{}", ready_json(&repairer))?;
    let mut summary = SessionSummary {
        applied: 0,
        rejected: 0,
        violations: repairer.engine().violation_count(),
    };
    for line in input.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        // Reborrow per iteration (`as_deref_mut` would pin the trait
        // object's lifetime across the loop).
        let log_line: Option<&mut dyn Write> = match log.as_mut() {
            Some(l) => Some(&mut **l),
            None => None,
        };
        process_line(&mut repairer, &schema, &line, out, log_line, &mut summary)?;
    }
    summary.violations = repairer.engine().violation_count();
    Ok((repairer, summary))
}

/// Serialize the session-opening `ready` event for the engine's current
/// state. The multi-tenant server reuses this as the per-tenant `open`
/// acknowledgement so both surfaces stay byte-identical.
pub fn ready_json(repairer: &RepairEngine) -> String {
    state_event_json("ready", repairer)
}

fn state_event_json(event: &str, repairer: &RepairEngine) -> String {
    let schema = repairer.relation().schema();
    let violations = repairer.engine().sorted_violations();
    format!(
        "{{\"event\":\"{event}\",\"version\":{},\"rows\":{},\"pfds\":{},\"violations\":{},\"state\":{}}}",
        repairer.relation().version(),
        repairer.relation().num_rows(),
        repairer.engine().pfds().len(),
        violations.len(),
        entries_json(&violations, schema)
    )
}

/// Process one non-empty session input line: parse it against `schema`,
/// mutate `repairer`, stream the answering event(s) to `out`, and append
/// replayable commands to `log`. This is the shared per-line core of
/// [`run_session_with`] and the multi-tenant server's tenant drain jobs;
/// errors are answered with an `error` event and never abort the stream.
pub fn process_line(
    repairer: &mut RepairEngine,
    schema: &Schema,
    line: &str,
    out: &mut dyn Write,
    mut log: Option<&mut dyn Write>,
    summary: &mut SessionSummary,
) -> std::io::Result<()> {
    match parse_command(line, schema) {
        Ok(SessionCommand::Repair { max_passes }) => {
            // The override applies to this chase only (clamped to ≥ 1
            // so a cap of 0 cannot silently no-op); later plain
            // `repair` commands get the engine default back.
            let saved = repairer.options().max_passes;
            if let Some(cap) = max_passes {
                repairer.options_mut().max_passes = cap.max(1);
            }
            let (outcome, passes) = repairer.run();
            repairer.options_mut().max_passes = saved;
            if let Some(log) = log.as_deref_mut() {
                if !outcome.fixes.is_empty() {
                    writeln!(log, "{}", repair_as_batch_json(&outcome, schema))?;
                }
            }
            // Counted after the log append: a command whose append failed
            // was never acknowledged and must not show up as applied.
            summary.applied += 1;
            write_repair_events(out, &outcome, passes, repairer.engine(), schema)?;
        }
        Ok(SessionCommand::Check) => {
            // Read-only: answer with the current state, log nothing.
            summary.applied += 1;
            writeln!(out, "{}", state_event_json("state", repairer))?;
        }
        Ok(cmd) => {
            let engine = repairer.engine_mut();
            let applied = match cmd {
                SessionCommand::Single(edit) => engine.apply(edit),
                SessionCommand::Batch(edits) => engine.apply_batch(&edits),
                SessionCommand::Repair { .. } | SessionCommand::Check => {
                    unreachable!("handled above")
                }
            };
            match applied {
                Ok(delta) => {
                    if let Some(log) = log.as_mut() {
                        writeln!(log, "{}", line.trim())?;
                    }
                    summary.applied += 1;
                    writeln!(
                        out,
                        "{}",
                        delta_json(&delta, engine.violation_count(), schema)
                    )?;
                }
                Err(e) => {
                    summary.rejected += 1;
                    writeln!(
                        out,
                        "{{\"event\":\"error\",\"message\":{}}}",
                        json::escaped(&e.to_string())
                    )?;
                }
            }
        }
        Err(message) => {
            summary.rejected += 1;
            writeln!(
                out,
                "{{\"event\":\"error\",\"message\":{}}}",
                json::escaped(&message)
            )?;
        }
    }
    Ok(())
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

/// Why [`run_durable_session`] could not run (or finish).
#[derive(Debug)]
pub enum DurableSessionError<E> {
    /// Recovery failed: a persisted artifact was unusable under the chosen
    /// policy, or nothing existed and the cold build failed.
    Recover(RecoverFailure<E>),
    /// A checkpoint or delta-log operation failed mid-session.
    Snapshot(SnapshotError),
    /// Streaming session I/O (the command input or event output) failed.
    SessionIo(std::io::Error),
}

impl<E: std::fmt::Display> std::fmt::Display for DurableSessionError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableSessionError::Recover(e) => write!(f, "{e}"),
            DurableSessionError::Snapshot(e) => write!(f, "{e}"),
            DurableSessionError::SessionIo(e) => write!(f, "session I/O error: {e}"),
        }
    }
}

/// A crash-safe [`run_session_with`]: recover, serve, checkpoint.
///
/// The full durable lifecycle in one call, shared by the `pfd session`
/// subcommand and the fault-injection harness:
///
/// 1. [`SnapshotStore::recover`] under `policy` (cold-building from
///    `cold` when no snapshot is usable);
/// 2. emit a `recovered` event when recovery was degraded or replayed log
///    records — a clean resume stays byte-identical to a fresh session;
/// 3. checkpoint immediately if recovery said so, making the salvaged
///    state durable before the first command is read;
/// 4. run the session with every applied command appended to the
///    record-framed delta log, fsynced per record — an acknowledged
///    command survives any crash;
/// 5. checkpoint the final state and retire the log.
///
/// Every file touch goes through `io`, so a failpoint harness can crash
/// any step at any byte and re-recover.
pub fn run_durable_session<E>(
    io: &dyn Io,
    snapshot: &Path,
    policy: RecoveryPolicy,
    options: RepairOptions,
    cold: impl FnOnce() -> Result<DeltaEngine, E>,
    input: impl BufRead,
    out: &mut dyn Write,
) -> Result<(RepairEngine, SessionSummary, RecoveryReport), DurableSessionError<E>> {
    let store = SnapshotStore::new(io, snapshot);
    let recovered = store
        .recover(policy, cold)
        .map_err(DurableSessionError::Recover)?;
    if recovered.report.degraded() || recovered.report.log_records_applied > 0 {
        writeln!(out, "{}", recovery_report_json(&recovered.report))
            .map_err(DurableSessionError::SessionIo)?;
    }
    let mut generation = recovered.meta.generation;
    if recovered.needs_checkpoint {
        generation += 1;
        store
            .checkpoint(
                &recovered.engine,
                SnapshotMeta {
                    generation,
                    last_seq: recovered.seq_floor,
                },
            )
            .map_err(DurableSessionError::Snapshot)?;
    }
    let log_path = store.log_path();
    let (mut wal, _) = WalWriter::open(io, &log_path, recovered.seq_floor, SyncPolicy::Always)
        .map_err(|e| {
            DurableSessionError::Snapshot(SnapshotError::Io {
                op: "open",
                path: log_path.clone(),
                source: e,
            })
        })?;
    let repairer = RepairEngine::from_engine(recovered.engine, options);
    let (repairer, summary) = {
        let mut sink = WalLineSink::new(&mut wal);
        run_session_with(repairer, input, out, Some(&mut sink))
            .map_err(DurableSessionError::SessionIo)?
    };
    store
        .checkpoint(
            repairer.engine(),
            SnapshotMeta {
                generation: generation + 1,
                last_seq: wal.last_seq(),
            },
        )
        .map_err(DurableSessionError::Snapshot)?;
    Ok((repairer, summary, recovered.report))
}

/// Render a finished repair chase as one replayable `batch` command of
/// `set` edits — the form a session log stores repairs in.
fn repair_as_batch_json(outcome: &RepairOutcome, schema: &Schema) -> String {
    let mut line = String::from("{\"op\":\"batch\",\"edits\":[");
    for (i, fix) in outcome.fixes.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "{{\"op\":\"set\",\"row\":{},\"attr\":{},\"value\":{}}}",
            fix.row,
            json::escaped(schema.name_of(fix.attr).unwrap_or("?")),
            json::escaped(&fix.new)
        ));
    }
    line.push_str("]}");
    line
}

/// Render a slice of edits as one replayable `batch` command line — the
/// form a coalescing server logs a merged edit run in, so WAL replay
/// reproduces the single `apply_batch` (and its one version bump) exactly.
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

/// Stream one repair chase's events: a `conflict` line per contested cell,
/// a `fix` line per applied fix, an `unrepaired` line per suggestion-less
/// flag, then one `repaired` summary line.
fn write_repair_events(
    out: &mut dyn Write,
    outcome: &RepairOutcome,
    passes: usize,
    engine: &DeltaEngine,
    schema: &Schema,
) -> std::io::Result<()> {
    for fix in &outcome.fixes {
        if !fix.competitors.is_empty() {
            let mut line = format!(
                "{{\"event\":\"conflict\",\"row\":{},\"attr\":{},\"chosen_pfd\":{},\"candidates\":[",
                fix.row,
                json::escaped(schema.name_of(fix.attr).unwrap_or("?")),
                fix.pfd_index
            );
            for (i, c) in fix.competitors.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                line.push_str(&candidate_json(c));
            }
            line.push_str("]}");
            writeln!(out, "{line}")?;
        }
        writeln!(out, "{{\"event\":\"fix\",{}", &fix_json(fix, schema)[1..])?;
    }
    for flag in &outcome.unrepaired {
        writeln!(
            out,
            "{{\"event\":\"unrepaired\",\"row\":{},\"attr\":{},\"pfd\":{},\"current\":{}}}",
            flag.row,
            json::escaped(schema.name_of(flag.attr).unwrap_or("?")),
            flag.pfd_index,
            json::escaped(&flag.current)
        )?;
    }
    writeln!(
        out,
        "{{\"event\":\"repaired\",\"passes\":{passes},\"fixes\":{},\"unrepaired\":{},\"violations\":{}}}",
        outcome.fixes.len(),
        outcome.unrepaired.len(),
        engine.violation_count()
    )
}

#[cfg(test)]
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
        let script = [
            open_brackets.as_str(),
            &deep_set,
            &deep_check,
            r#"{"op":"check"}"#,
        ];
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        let mut out = Vec::new();
        let (_, summary) =
            run_session(rel, pfds, Cursor::new(script.join("\n")), &mut out).unwrap();
        let events: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(events.len(), 1 + script.len(), "{events:?}");
        for event in &events[1..4] {
            assert!(
                event.starts_with(r#"{"event":"error","message":"JSON nested deeper than 64"#),
                "{event}"
            );
        }
        assert!(
            events[4].starts_with(r#"{"event":"state""#),
            "{}",
            events[4]
        );
        assert_eq!((summary.applied, summary.rejected), (1, 3));
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
