//! Persistent binary snapshots of a [`DeltaEngine`] and the crash-recovery
//! supervisor that loads them.
//!
//! A snapshot freezes the *whole* serving state — relation, rules, and the
//! per-PFD group indexes with their cached violations — so a process can
//! resume in one read instead of re-parsing CSV and re-grouping every row.
//! The bytes use the sectioned `PFDS` container from [`pfd_relation::binary`]:
//!
//! | id | section  | contents                                              |
//! |----|----------|-------------------------------------------------------|
//! | 1  | `SCHEMA` | relation name, mutation version, attribute names      |
//! | 2  | `ROWS`   | per-column front-coded value vocabulary + row indexes |
//! | 3  | `RULES`  | the PFD set in the textual rules format               |
//! | 4  | `GROUPS` | per-PFD, per-tableau-row LHS groups: key, posting     |
//! |    |          | list, cached violations                               |
//! | 5  | `META`   | snapshot generation + last delta-log sequence covered |
//!
//! Sections carry independent checksums and decode independently:
//! [`load_from_bytes_with`] decodes `ROWS` (the bulk of the bytes) on a
//! second thread while the main thread decodes `GROUPS`. Group exports are
//! sorted by LHS key, so `save ∘ load ∘ save` is byte-stable and equality
//! with a cold build-from-CSV engine is a meaningful test assertion.
//!
//! # Durability model
//!
//! A resumed *session* is snapshot + record-framed delta log (see
//! [`pfd_relation::wal`]): the log holds the session-command form of every
//! applied edit (repairs as one `batch` of `set`s — see
//! [`Session::handle_line`](crate::session::Session::handle_line)), each framed
//! with a checksum and a monotonic sequence number. The `META` section
//! records the highest sequence number a snapshot already incorporates, so
//! replay can skip records the snapshot covers — which is what makes the
//! checkpoint sequence crash-safe end to end.
//!
//! [`SnapshotStore::checkpoint`] writes atomically: serialize to
//! `<snap>.tmp`, fsync, demote the old snapshot to `<snap>.prev`, rename
//! the temp file into place, and only then delete the log. A crash at any
//! point leaves a state [`SnapshotStore::recover`] reconstructs losslessly
//! by walking the degradation ladder — current snapshot → previous
//! snapshot → cold build — then replaying the valid log prefix, emitting a
//! [`RecoveryReport`] of what was used and why.

// Everything here runs against arbitrary crashed-file bytes; a panic in a
// load path is a recovery bug, so unwrapping is denied (tests opt back in).
#![deny(clippy::unwrap_used)]

use std::fmt;
use std::path::{Path, PathBuf};

use pfd_relation::binary::{
    decode_postings, decode_string_table, encode_postings, encode_string_table, put_string,
    put_varint, BinaryError, Cursor, SectionReader, SectionWriter,
};
use pfd_relation::io::Io;
use pfd_relation::wal::{read_wal_bytes, WalTail};
use pfd_relation::{AttrId, Relation, RowId, Schema};

use crate::incremental::{DeltaEngine, GroupSnapshot};
use crate::pfd::{Violation, ViolationKind};
use crate::rules::{parse_rules, to_rules_string};
use crate::session::{parse_command, SessionCommand};

/// Section ids of the snapshot container.
const SECTION_SCHEMA: u32 = 1;
const SECTION_ROWS: u32 = 2;
const SECTION_RULES: u32 = 3;
const SECTION_GROUPS: u32 = 4;
const SECTION_META: u32 = 5;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Errors surfaced while saving, loading, or replaying snapshots. Every
/// variant names where the failure happened — file, operation, section and
/// offset, or log record — so operators can tell *which* artifact is bad.
#[derive(Debug)]
pub enum SnapshotError {
    /// An underlying file operation failed.
    Io {
        /// The operation that failed (`read`, `write`, `rename`, ...).
        op: &'static str,
        /// The file it targeted.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The container failed structural validation (magic, version, section
    /// table, section checksum).
    Binary {
        /// The snapshot file, when known (byte-level APIs have no file).
        file: Option<PathBuf>,
        /// The container-level failure.
        source: BinaryError,
    },
    /// A section's bytes decoded incorrectly or inconsistently.
    Section {
        /// The snapshot file, when known.
        file: Option<PathBuf>,
        /// The section being decoded (`schema`, `rows`, `rules`, `groups`,
        /// `meta`).
        section: &'static str,
        /// Byte offset inside the section payload where decoding failed.
        offset: usize,
        /// What went wrong.
        detail: String,
    },
    /// A delta-log record was unusable (does not parse, does not apply,
    /// breaks the sequence, or the log tail is invalid under strict
    /// recovery).
    Log {
        /// The log file, when known.
        file: Option<PathBuf>,
        /// The sequence number (or 1-based line for text logs) involved.
        record: u64,
        /// What went wrong.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let in_file = |file: &Option<PathBuf>| match file {
            Some(p) => format!(" in {}", p.display()),
            None => String::new(),
        };
        match self {
            SnapshotError::Io { op, path, source } => {
                write!(f, "snapshot {op} failed for {}: {source}", path.display())
            }
            SnapshotError::Binary { file, source } => {
                write!(f, "{source}{}", in_file(file))
            }
            SnapshotError::Section {
                file,
                section,
                offset,
                detail,
            } => write!(
                f,
                "corrupt snapshot section `{section}` at offset {offset}{}: {detail}",
                in_file(file)
            ),
            SnapshotError::Log {
                file,
                record,
                detail,
            } => write!(f, "delta log record {record}{}: {detail}", in_file(file)),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<BinaryError> for SnapshotError {
    fn from(source: BinaryError) -> Self {
        SnapshotError::Binary { file: None, source }
    }
}

impl SnapshotError {
    /// Attaches `path` to a file-less error, so byte-level decode failures
    /// gain the file they came from once the caller knows it.
    pub fn with_file(self, path: &Path) -> Self {
        match self {
            SnapshotError::Binary { file: None, source } => SnapshotError::Binary {
                file: Some(path.to_path_buf()),
                source,
            },
            SnapshotError::Section {
                file: None,
                section,
                offset,
                detail,
            } => SnapshotError::Section {
                file: Some(path.to_path_buf()),
                section,
                offset,
                detail,
            },
            SnapshotError::Log {
                file: None,
                record,
                detail,
            } => SnapshotError::Log {
                file: Some(path.to_path_buf()),
                record,
                detail,
            },
            other => other,
        }
    }
}

fn io_err(op: &'static str, path: &Path, source: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

/// A [`Cursor`] that knows which section it is decoding, so every failure
/// carries the section name and byte offset.
struct SectionCursor<'a> {
    cur: Cursor<'a>,
    section: &'static str,
}

impl<'a> SectionCursor<'a> {
    fn new(payload: &'a [u8], section: &'static str) -> Self {
        SectionCursor {
            cur: Cursor::new(payload),
            section,
        }
    }

    fn fail(&self, detail: impl fmt::Display) -> SnapshotError {
        SnapshotError::Section {
            file: None,
            section: self.section,
            offset: self.cur.position(),
            detail: detail.to_string(),
        }
    }

    fn get_varint(&mut self) -> Result<u64, SnapshotError> {
        self.cur.get_varint().map_err(|e| self.fail(e))
    }

    fn get_len(&mut self) -> Result<usize, SnapshotError> {
        self.cur.get_len().map_err(|e| self.fail(e))
    }

    fn get_index(&mut self) -> Result<usize, SnapshotError> {
        self.cur.get_index().map_err(|e| self.fail(e))
    }

    fn get_string(&mut self) -> Result<String, SnapshotError> {
        self.cur.get_string().map_err(|e| self.fail(e))
    }
}

// ---------------------------------------------------------------------------
// Snapshot metadata
// ---------------------------------------------------------------------------

/// Durability metadata persisted in the `META` section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SnapshotMeta {
    /// Checkpoint generation: 0 for a never-checkpointed engine, then +1
    /// per [`SnapshotStore::checkpoint`].
    pub generation: u64,
    /// Highest delta-log sequence number whose effects this snapshot
    /// already contains; replay skips records at or below it.
    pub last_seq: u64,
}

// ---------------------------------------------------------------------------
// Save
// ---------------------------------------------------------------------------

/// Serialize the engine to snapshot bytes with default (zero) metadata.
pub fn save_to_bytes(engine: &DeltaEngine) -> Vec<u8> {
    save_to_bytes_with(engine, SnapshotMeta::default())
}

/// Serialize the engine to snapshot bytes carrying `meta`.
pub fn save_to_bytes_with(engine: &DeltaEngine, meta: SnapshotMeta) -> Vec<u8> {
    let rel = engine.relation();
    let schema = rel.schema();

    let mut schema_buf = Vec::new();
    put_string(&mut schema_buf, schema.relation());
    put_varint(&mut schema_buf, rel.version());
    put_varint(&mut schema_buf, schema.arity() as u64);
    for name in schema.attribute_names() {
        put_string(&mut schema_buf, name);
    }

    let mut rows_buf = Vec::new();
    put_varint(&mut rows_buf, rel.num_rows() as u64);
    for attr in schema.attr_ids() {
        // Column-wise: a sorted distinct-value vocabulary (front coding
        // thrives on the shared prefixes of codes and category values)
        // followed by one vocabulary index per row. The relation already
        // stores columns interned, so this is a sort of the live
        // vocabulary plus an index remap — no per-cell strings. Sorting
        // makes the encoding canonical regardless of interning order.
        let (vocab, cells) = rel.column_parts(attr);
        let mut live: Vec<u32> = cells.to_vec();
        live.sort_unstable();
        live.dedup();
        live.sort_by(|&a, &b| vocab[a as usize].cmp(&vocab[b as usize]));
        let sorted: Vec<&str> = live.iter().map(|&i| vocab[i as usize].as_str()).collect();
        encode_string_table(&mut rows_buf, &sorted);
        let mut rank = vec![0u32; vocab.len()];
        for (r, &i) in live.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        for &c in cells {
            put_varint(&mut rows_buf, u64::from(rank[c as usize]));
        }
    }

    let rules_buf = to_rules_string(engine.pfds(), schema).into_bytes();

    let mut groups_buf = Vec::new();
    let exported = engine.export_groups();
    put_varint(&mut groups_buf, exported.len() as u64);
    for tableaux in &exported {
        put_varint(&mut groups_buf, tableaux.len() as u64);
        for groups in tableaux {
            put_varint(&mut groups_buf, groups.len() as u64);
            for group in groups {
                put_varint(&mut groups_buf, group.key.len() as u64);
                for part in &group.key {
                    put_string(&mut groups_buf, part);
                }
                encode_postings(&mut groups_buf, &group.rows);
                put_varint(&mut groups_buf, group.violations.len() as u64);
                for v in &group.violations {
                    encode_violation(&mut groups_buf, v);
                }
            }
        }
    }

    let mut meta_buf = Vec::new();
    put_varint(&mut meta_buf, meta.generation);
    put_varint(&mut meta_buf, meta.last_seq);

    let mut writer = SectionWriter::new();
    writer.add(SECTION_SCHEMA, schema_buf);
    writer.add(SECTION_ROWS, rows_buf);
    writer.add(SECTION_RULES, rules_buf);
    writer.add(SECTION_GROUPS, groups_buf);
    writer.add(SECTION_META, meta_buf);
    writer.finish()
}

fn encode_violation(out: &mut Vec<u8>, v: &Violation) {
    put_varint(out, v.tableau_row as u64);
    put_varint(
        out,
        match v.kind {
            ViolationKind::SingleTuple => 0,
            ViolationKind::TuplePair => 1,
        },
    );
    put_varint(out, v.attr.index() as u64);
    put_varint(out, v.rows().len() as u64);
    for &r in v.rows() {
        put_varint(out, r as u64);
    }
    put_varint(out, v.cells().len() as u64);
    for &(r, a) in v.cells() {
        put_varint(out, r as u64);
        put_varint(out, a.index() as u64);
    }
    put_varint(out, v.group_size() as u64);
    put_varint(out, v.majority_size() as u64);
}

// ---------------------------------------------------------------------------
// Load
// ---------------------------------------------------------------------------

/// Rebuild an engine from snapshot bytes, discarding metadata.
pub fn load_from_bytes(data: &[u8]) -> Result<DeltaEngine, SnapshotError> {
    load_from_bytes_with(data).map(|(engine, _)| engine)
}

/// Rebuild an engine and its durability metadata from snapshot bytes.
///
/// The loaded engine compares equal — relation (including mutation
/// version), PFD set, violations, and group indexes — to the engine the
/// snapshot was saved from.
pub fn load_from_bytes_with(data: &[u8]) -> Result<(DeltaEngine, SnapshotMeta), SnapshotError> {
    let reader = SectionReader::open(data)?;
    let schema_payload = reader.require(SECTION_SCHEMA)?;
    let rows_payload = reader.require(SECTION_ROWS)?;
    let rules_payload = reader.require(SECTION_RULES)?;
    let groups_payload = reader.require(SECTION_GROUPS)?;
    let meta = decode_meta(reader.require(SECTION_META)?)?;

    let (schema, version) = decode_schema(schema_payload)?;

    // ROWS dominates the byte budget; decode it off-thread while the main
    // thread decodes the group indexes. The sections are independent by
    // construction (separate payloads, separate checksums).
    let (rel_result, groups_result) = std::thread::scope(|scope| {
        let schema_ref = &schema;
        let rows_thread =
            scope.spawn(move || decode_rows(rows_payload, schema_ref.clone(), version));
        let groups = decode_groups(groups_payload);
        (rows_thread.join().expect("rows decoder panicked"), groups)
    });
    let rel = rel_result?;
    let groups = groups_result?;

    let rules_text = std::str::from_utf8(rules_payload).map_err(|_| SnapshotError::Section {
        file: None,
        section: "rules",
        offset: 0,
        detail: "rules section is not UTF-8".to_string(),
    })?;
    let pfds = parse_rules(rules_text, rel.schema()).map_err(|e| SnapshotError::Section {
        file: None,
        section: "rules",
        offset: 0,
        detail: format!("rules section does not parse: {e}"),
    })?;

    validate_groups(&rel, &pfds, &groups)?;
    Ok((DeltaEngine::from_parts(rel, pfds, groups), meta))
}

fn decode_meta(payload: &[u8]) -> Result<SnapshotMeta, SnapshotError> {
    let mut cur = SectionCursor::new(payload, "meta");
    let generation = cur.get_varint()?;
    let last_seq = cur.get_varint()?;
    Ok(SnapshotMeta {
        generation,
        last_seq,
    })
}

fn decode_schema(payload: &[u8]) -> Result<(Schema, u64), SnapshotError> {
    let mut cur = SectionCursor::new(payload, "schema");
    let relation = cur.get_string()?;
    let version = cur.get_varint()?;
    let arity = cur.get_len()?;
    let mut names = Vec::with_capacity(arity);
    for _ in 0..arity {
        names.push(cur.get_string()?);
    }
    let schema =
        Schema::new(relation, names).map_err(|e| cur.fail(format!("invalid schema: {e}")))?;
    Ok((schema, version))
}

fn decode_rows(payload: &[u8], schema: Schema, version: u64) -> Result<Relation, SnapshotError> {
    let mut cur = SectionCursor::new(payload, "rows");
    let num_rows = cur.get_len()?;
    let arity = schema.arity();
    // The section's shape — per-column vocabulary + cell indexes — is the
    // relation's own storage layout, so decoding allocates the distinct
    // values only, never one string per cell.
    let mut columns = Vec::with_capacity(arity);
    for _ in 0..arity {
        let vocab = decode_string_table(&mut cur.cur).map_err(|e| cur.fail(e))?;
        let mut cells = Vec::with_capacity(num_rows);
        for _ in 0..num_rows {
            let idx = cur.get_index()?;
            if idx >= vocab.len() {
                return Err(cur.fail("row index outside column vocabulary"));
            }
            cells.push(idx as u32);
        }
        columns.push((vocab, cells));
    }
    Relation::from_columns(schema, columns, version)
        .map_err(|e| cur.fail(format!("invalid rows: {e}")))
}

fn decode_groups(payload: &[u8]) -> Result<Vec<Vec<Vec<GroupSnapshot>>>, SnapshotError> {
    let mut cur = SectionCursor::new(payload, "groups");
    let npfds = cur.get_len()?;
    let mut pfds = Vec::with_capacity(npfds);
    for _ in 0..npfds {
        let ntableaux = cur.get_len()?;
        let mut tableaux = Vec::with_capacity(ntableaux);
        for _ in 0..ntableaux {
            let ngroups = cur.get_len()?;
            let mut groups = Vec::with_capacity(ngroups);
            for _ in 0..ngroups {
                let nkey = cur.get_len()?;
                let mut key = Vec::with_capacity(nkey);
                for _ in 0..nkey {
                    key.push(cur.get_string()?);
                }
                let rows = decode_postings(&mut cur.cur).map_err(|e| cur.fail(e))?;
                let nviolations = cur.get_len()?;
                let mut violations = Vec::with_capacity(nviolations);
                for _ in 0..nviolations {
                    violations.push(decode_violation(&mut cur)?);
                }
                groups.push(GroupSnapshot {
                    key,
                    rows,
                    violations,
                });
            }
            tableaux.push(groups);
        }
        pfds.push(tableaux);
    }
    Ok(pfds)
}

fn decode_violation(cur: &mut SectionCursor<'_>) -> Result<Violation, SnapshotError> {
    let tableau_row = cur.get_index()?;
    let kind = match cur.get_varint()? {
        0 => ViolationKind::SingleTuple,
        1 => ViolationKind::TuplePair,
        other => return Err(cur.fail(format!("unknown violation kind {other}"))),
    };
    let attr = AttrId(cur.get_index()?);
    let nrows = cur.get_len()?;
    let want = match kind {
        ViolationKind::SingleTuple => 1,
        ViolationKind::TuplePair => 2,
    };
    if nrows != want {
        return Err(cur.fail(format!("{kind:?} violation names {nrows} rows")));
    }
    let mut rows: Vec<RowId> = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        rows.push(cur.get_index()?);
    }
    let ncells = cur.get_len()?;
    let mut cells = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let r: RowId = cur.get_index()?;
        let a = AttrId(cur.get_index()?);
        cells.push((r, a));
    }
    let group_size =
        u32::try_from(cur.get_varint()?).map_err(|_| cur.fail("group size overflows u32"))?;
    let majority_size =
        u32::try_from(cur.get_varint()?).map_err(|_| cur.fail("majority size overflows u32"))?;
    Ok(Violation::from_parts(
        tableau_row,
        kind,
        attr,
        rows,
        cells,
        group_size,
        majority_size,
    ))
}

/// Cross-section consistency checks before the parts become an engine:
/// the group index must reference exactly the decoded PFD set and stay
/// inside the decoded relation.
fn validate_groups(
    rel: &Relation,
    pfds: &[crate::pfd::Pfd],
    groups: &[Vec<Vec<GroupSnapshot>>],
) -> Result<(), SnapshotError> {
    let invalid = |detail: String| SnapshotError::Section {
        file: None,
        section: "groups",
        offset: 0,
        detail,
    };
    if groups.len() != pfds.len() {
        return Err(invalid(format!(
            "group index covers {} PFDs but the rules section defines {}",
            groups.len(),
            pfds.len()
        )));
    }
    let arity = rel.schema().arity();
    for (pfd, tableaux) in pfds.iter().zip(groups) {
        if tableaux.len() != pfd.tableau().len() {
            return Err(invalid("group index tableau count mismatch".to_string()));
        }
        for tableau in tableaux {
            for group in tableau {
                if group.rows.universe() != rel.num_rows() {
                    return Err(invalid(
                        "group universe does not match row count".to_string(),
                    ));
                }
                for v in &group.violations {
                    let rows_ok = v.rows().iter().all(|&r| r < rel.num_rows());
                    let cells_ok = v
                        .cells()
                        .iter()
                        .all(|&(r, a)| r < rel.num_rows() && a.index() < arity);
                    if !rows_ok || !cells_ok || v.attr.index() >= arity {
                        return Err(invalid(
                            "violation references out-of-range cells".to_string(),
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Log replay
// ---------------------------------------------------------------------------

/// Parses and applies one logged session command. `record` labels errors
/// (sequence number for WAL records, 1-based line number for text logs).
fn apply_log_line(engine: &mut DeltaEngine, line: &str, record: u64) -> Result<(), SnapshotError> {
    let log_err = |detail: String| SnapshotError::Log {
        file: None,
        record,
        detail,
    };
    let schema = engine.relation().schema().clone();
    let cmd = parse_command(line, &schema).map_err(|e| log_err(e.to_string()))?;
    let result = match cmd {
        SessionCommand::Single(edit) => engine.apply(edit),
        SessionCommand::Batch(edits) => engine.apply_batch(&edits),
        SessionCommand::Repair { .. } => {
            return Err(log_err(
                "repair ops are not replayable (the session logs repairs as batch edits)"
                    .to_string(),
            ))
        }
        SessionCommand::Check => {
            return Err(log_err(
                "check ops are read-only and never logged".to_string(),
            ))
        }
    };
    result.map_err(|e| log_err(format!("does not apply: {e}")))?;
    Ok(())
}

/// Re-apply an append-only session-command log (JSONL, one applied command
/// per line) on top of a loaded engine. Returns the number of commands
/// applied. Blank lines are skipped; `repair` ops are rejected — the
/// session layer logs repairs as `batch` edits precisely so replay never
/// has to re-run the (non-deterministic across versions) chase.
///
/// This is the text-level core; durable sessions store these lines as
/// checksummed WAL records and replay them through
/// [`SnapshotStore::recover`], which also handles sequence skipping.
pub fn replay_log(engine: &mut DeltaEngine, log_text: &str) -> Result<usize, SnapshotError> {
    let mut applied = 0;
    for (lineno, line) in log_text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        apply_log_line(engine, line, lineno as u64 + 1)?;
        applied += 1;
    }
    Ok(applied)
}

// ---------------------------------------------------------------------------
// Recovery supervisor
// ---------------------------------------------------------------------------

/// How much salvaging [`SnapshotStore::recover`] is allowed to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Fail instead of discarding anything: a corrupt snapshot, an invalid
    /// log tail, or an unreplayable record is an error. Lossless paths —
    /// the `.prev` + intact-log window of an interrupted checkpoint, a
    /// clean torn-free log — still recover.
    Strict,
    /// Recover the best state reachable: fall back down the ladder past
    /// corrupt artifacts and replay the longest valid log prefix,
    /// reporting everything dropped in the [`RecoveryReport`].
    Salvage,
}

/// Which rung of the degradation ladder produced the base engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoverySource {
    /// The current snapshot file loaded cleanly.
    Current,
    /// The current snapshot was missing or unreadable; the kept `.prev`
    /// generation loaded instead.
    Previous,
    /// No snapshot was usable; the engine was rebuilt from original inputs
    /// (CSV + rules) by the caller's cold-build closure.
    ColdBuild,
}

impl RecoverySource {
    /// Short lowercase label for reports and JSON events.
    pub fn label(&self) -> &'static str {
        match self {
            RecoverySource::Current => "current",
            RecoverySource::Previous => "previous",
            RecoverySource::ColdBuild => "cold_build",
        }
    }
}

/// Structured account of what [`SnapshotStore::recover`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Where the base engine came from.
    pub source: RecoverySource,
    /// Generation of the loaded snapshot (0 for a cold build).
    pub generation: u64,
    /// Log records replayed onto the base engine.
    pub log_records_applied: usize,
    /// Log records skipped because the snapshot already covered their
    /// sequence numbers.
    pub log_records_skipped: usize,
    /// Bytes discarded past the log's valid prefix.
    pub log_bytes_dropped: u64,
    /// Why log decoding stopped ([`WalTail::Clean`] when it didn't).
    pub log_tail: WalTail,
    /// Human-readable notes about every degradation taken.
    pub notes: Vec<String>,
}

impl RecoveryReport {
    fn clean(source: RecoverySource, generation: u64) -> Self {
        RecoveryReport {
            source,
            generation,
            log_records_applied: 0,
            log_records_skipped: 0,
            log_bytes_dropped: 0,
            log_tail: WalTail::Clean,
            notes: Vec::new(),
        }
    }

    /// True when recovery deviated from the happy path: a fallback rung,
    /// discarded log bytes, an invalid log tail, or any degradation note.
    /// Replaying records from a clean log is *not* degraded — that is the
    /// log doing its job.
    pub fn degraded(&self) -> bool {
        matches!(self.source, RecoverySource::Previous)
            || self.log_bytes_dropped > 0
            || !self.log_tail.is_clean()
            || !self.notes.is_empty()
    }
}

/// Successful outcome of [`SnapshotStore::recover`].
pub struct Recovered {
    /// The reconstructed engine.
    pub engine: DeltaEngine,
    /// Metadata of the snapshot the base engine loaded from (zero for a
    /// cold build).
    pub meta: SnapshotMeta,
    /// Highest log sequence number incorporated into `engine` — the
    /// `start_after` for the next [`pfd_relation::wal::WalWriter`] and the
    /// `last_seq` for the next checkpoint.
    pub seq_floor: u64,
    /// True when the caller should checkpoint before serving: state was
    /// rebuilt, replayed, or salvaged, so only a fresh snapshot makes the
    /// next startup clean.
    pub needs_checkpoint: bool,
    /// What recovery did.
    pub report: RecoveryReport,
}

impl Recovered {
    /// Metadata for the checkpoint that would persist this recovered
    /// state: next generation, covering everything replayed.
    pub fn next_meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            generation: self.meta.generation + 1,
            last_seq: self.seq_floor,
        }
    }
}

/// Why [`SnapshotStore::recover`] gave up.
#[derive(Debug)]
pub enum RecoverFailure<E> {
    /// A persisted artifact was unusable and the policy (or the ladder)
    /// did not permit going further.
    Snapshot(SnapshotError),
    /// No persisted artifact existed and the cold build itself failed.
    ColdBuild(E),
}

impl<E: fmt::Display> fmt::Display for RecoverFailure<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoverFailure::Snapshot(e) => write!(f, "{e}"),
            RecoverFailure::ColdBuild(e) => write!(f, "{e}"),
        }
    }
}

/// The on-disk layout of one durable engine — current snapshot, `.prev`
/// fallback, `.tmp` staging file, and `.log` delta log — plus the two
/// operations over it: atomic [`checkpoint`](SnapshotStore::checkpoint)
/// and ladder-walking [`recover`](SnapshotStore::recover).
///
/// All I/O goes through a [`pfd_relation::io::Io`] handle, so the
/// fault-injection harness can crash either operation at any byte.
pub struct SnapshotStore<'io> {
    io: &'io dyn Io,
    path: PathBuf,
}

impl<'io> SnapshotStore<'io> {
    /// A store rooted at the current-snapshot path `path`; sibling files
    /// derive from it by appending suffixes.
    pub fn new(io: &'io dyn Io, path: impl Into<PathBuf>) -> Self {
        SnapshotStore {
            io,
            path: path.into(),
        }
    }

    /// The current snapshot file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn sibling(&self, suffix: &str) -> PathBuf {
        let mut s = self.path.as_os_str().to_os_string();
        s.push(suffix);
        PathBuf::from(s)
    }

    /// The kept previous-generation snapshot.
    pub fn prev_path(&self) -> PathBuf {
        self.sibling(".prev")
    }

    /// The checkpoint staging file.
    pub fn tmp_path(&self) -> PathBuf {
        self.sibling(".tmp")
    }

    /// The record-framed delta log.
    pub fn log_path(&self) -> PathBuf {
        self.sibling(".log")
    }

    /// The persisted discovery index (`.pfdi`) keyed to this snapshot.
    ///
    /// The core crate only manages the *path* — the file's format and
    /// save/load live in `pfd_discovery::warm`, which keys the index to
    /// the snapshot's generation and relation contents. A checkpoint
    /// best-effort removes it (the new generation invalidates it anyway;
    /// the staleness key protects correctness if removal is lost to a
    /// crash).
    pub fn index_path(&self) -> PathBuf {
        self.sibling(".pfdi")
    }

    /// Atomically persists `engine` as the current snapshot and retires
    /// the delta log it supersedes.
    ///
    /// Order matters for crash safety: stage to `.tmp` and fsync, demote
    /// the old current to `.prev`, rename `.tmp` into place, and only then
    /// delete the log. A crash anywhere in between leaves either the old
    /// snapshot + intact log or the new snapshot (+ a log whose records
    /// `meta.last_seq` marks as already applied, so replay skips them —
    /// deleting the log is an optimization, not a correctness step).
    pub fn checkpoint(
        &self,
        engine: &DeltaEngine,
        meta: SnapshotMeta,
    ) -> Result<(), SnapshotError> {
        self.install(&save_to_bytes_with(engine, meta))?;
        let log = self.log_path();
        if self.io.exists(&log) {
            self.io
                .remove(&log)
                .map_err(|e| io_err("remove", &log, e))?;
        }
        // The discovery index was keyed to the superseded generation;
        // removal is best-effort because its staleness key already rejects
        // it (a failed remove costs the next discover a cold build, not
        // correctness — so a crash here must not fail the checkpoint).
        let index = self.index_path();
        if self.io.exists(&index) {
            let _ = self.io.remove(&index);
        }
        Ok(())
    }

    /// Writes `engine` as the first snapshot of a store that has none,
    /// with default (zero) metadata: stage to `.tmp`, fsync, rename into
    /// place. Unlike [`checkpoint`](SnapshotStore::checkpoint) it leaves
    /// the `.pfdi` alone, so an index just keyed to generation 0 stays
    /// warm.
    pub fn save_fresh(&self, engine: &DeltaEngine) -> Result<(), SnapshotError> {
        self.install(&save_to_bytes(engine))
    }

    /// Stages `bytes` to `.tmp` and fsyncs them, demotes the current
    /// snapshot (if any) to `.prev`, then renames `.tmp` into place.
    fn install(&self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let tmp = self.tmp_path();
        self.io
            .write(&tmp, bytes)
            .map_err(|e| io_err("write", &tmp, e))?;
        self.io.sync(&tmp).map_err(|e| io_err("sync", &tmp, e))?;
        if self.io.exists(&self.path) {
            let prev = self.prev_path();
            self.io
                .rename(&self.path, &prev)
                .map_err(|e| io_err("rename", &prev, e))?;
        }
        self.io
            .rename(&tmp, &self.path)
            .map_err(|e| io_err("rename", &self.path, e))
    }

    fn load_file(&self, path: &Path) -> Result<(DeltaEngine, SnapshotMeta), SnapshotError> {
        let data = self.io.read(path).map_err(|e| io_err("read", path, e))?;
        load_from_bytes_with(&data).map_err(|e| e.with_file(path))
    }

    /// Reconstructs the engine by walking the degradation ladder: current
    /// snapshot → previous snapshot → cold build, then replaying the
    /// valid prefix of the delta log (skipping records the snapshot
    /// already covers).
    ///
    /// `cold` rebuilds from original inputs (CSV + rules) and is only
    /// invoked when no snapshot is usable. Recovery itself never panics on
    /// any file contents; what it salvages and drops is returned in the
    /// [`RecoveryReport`].
    pub fn recover<E>(
        &self,
        policy: RecoveryPolicy,
        cold: impl FnOnce() -> Result<DeltaEngine, E>,
    ) -> Result<Recovered, RecoverFailure<E>> {
        let mut notes: Vec<String> = Vec::new();

        // A leftover staging file is an interrupted checkpoint; whatever
        // it holds is covered by snapshot + log, so it is safe to drop.
        let tmp = self.tmp_path();
        if self.io.exists(&tmp) && self.io.remove(&tmp).is_ok() {
            notes.push("removed interrupted checkpoint staging file".to_string());
        }

        // Rungs 1 and 2: current snapshot, then the kept previous one.
        let mut snapshot_failure: Option<SnapshotError> = None;
        let mut base: Option<(DeltaEngine, SnapshotMeta, RecoverySource)> = None;
        let current_exists = self.io.exists(&self.path);
        if current_exists {
            match self.load_file(&self.path) {
                Ok((engine, meta)) => base = Some((engine, meta, RecoverySource::Current)),
                Err(e) => {
                    if policy == RecoveryPolicy::Strict {
                        return Err(RecoverFailure::Snapshot(e));
                    }
                    notes.push(format!("current snapshot unusable: {e}"));
                    snapshot_failure = Some(e);
                }
            }
        }
        if base.is_none() {
            let prev = self.prev_path();
            if self.io.exists(&prev) {
                match self.load_file(&prev) {
                    Ok((engine, meta)) => {
                        // Current absent + prev present is the interrupted-
                        // checkpoint window: the log was not yet truncated,
                        // so prev + replay is lossless and allowed even
                        // under strict recovery.
                        notes.push(format!(
                            "using previous snapshot generation {}",
                            meta.generation
                        ));
                        base = Some((engine, meta, RecoverySource::Previous));
                    }
                    Err(e) => {
                        if policy == RecoveryPolicy::Strict {
                            return Err(RecoverFailure::Snapshot(e));
                        }
                        notes.push(format!("previous snapshot unusable: {e}"));
                        snapshot_failure.get_or_insert(e);
                    }
                }
            }
        }

        // Rung 3: rebuild from original inputs. Under strict recovery this
        // is only reachable when no snapshot file existed at all (corrupt
        // ones returned above).
        let (mut engine, meta, source) = match base {
            Some(b) => b,
            None => match cold() {
                Ok(engine) => (engine, SnapshotMeta::default(), RecoverySource::ColdBuild),
                Err(e) => {
                    // Prefer reporting the corrupt artifact that forced the
                    // ladder down here over the secondary cold-build error.
                    return Err(match snapshot_failure {
                        Some(se) => RecoverFailure::Snapshot(se),
                        None => RecoverFailure::ColdBuild(e),
                    });
                }
            },
        };

        let mut report = RecoveryReport::clean(source, meta.generation);
        report.notes = notes;

        // Replay the delta log's valid prefix on top of the base engine.
        let log = self.log_path();
        let mut seq_floor = meta.last_seq;
        if self.io.exists(&log) {
            match self.io.read(&log) {
                Err(e) => {
                    let err = io_err("read", &log, e);
                    if policy == RecoveryPolicy::Strict {
                        return Err(RecoverFailure::Snapshot(err));
                    }
                    report.notes.push(format!("delta log unusable: {err}"));
                }
                Ok(data) => {
                    let outcome = read_wal_bytes(&data);
                    report.log_tail = outcome.tail.clone();
                    report.log_bytes_dropped = outcome.lost_bytes(data.len() as u64);
                    if policy == RecoveryPolicy::Strict && !outcome.tail.is_clean() {
                        return Err(RecoverFailure::Snapshot(SnapshotError::Log {
                            file: Some(log.clone()),
                            record: outcome.last_seq().map_or(0, |s| s + 1),
                            detail: format!("invalid log tail: {}", outcome.tail),
                        }));
                    }
                    for (i, rec) in outcome.records.iter().enumerate() {
                        if rec.seq <= meta.last_seq {
                            report.log_records_skipped += 1;
                            continue;
                        }
                        let result = if rec.seq != seq_floor + 1 {
                            // The log starts past the snapshot's floor:
                            // records in between are gone (e.g. the log of
                            // a corrupt current snapshot postdates the
                            // recovered previous generation).
                            Err(SnapshotError::Log {
                                file: Some(log.clone()),
                                record: rec.seq,
                                detail: format!(
                                    "log resumes at record {} but recovered state covers only {}",
                                    rec.seq, seq_floor
                                ),
                            })
                        } else {
                            match std::str::from_utf8(&rec.payload) {
                                Err(_) => Err(SnapshotError::Log {
                                    file: Some(log.clone()),
                                    record: rec.seq,
                                    detail: "record payload is not UTF-8".to_string(),
                                }),
                                Ok(line) => apply_log_line(&mut engine, line, rec.seq)
                                    .map_err(|e| e.with_file(&log)),
                            }
                        };
                        match result {
                            Ok(()) => {
                                seq_floor = rec.seq;
                                report.log_records_applied += 1;
                            }
                            Err(e) => {
                                if policy == RecoveryPolicy::Strict {
                                    return Err(RecoverFailure::Snapshot(e));
                                }
                                let remaining = outcome.records.len() - i;
                                report
                                    .notes
                                    .push(format!("dropped {remaining} log records: {e}"));
                                break;
                            }
                        }
                    }
                }
            }
        }

        let needs_checkpoint = report.degraded()
            || report.log_records_applied > 0
            || !matches!(report.source, RecoverySource::Current);
        Ok(Recovered {
            engine,
            meta,
            seq_floor,
            needs_checkpoint,
            report,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::pfd::Pfd;
    use pfd_relation::io::{MemIo, StdIo};
    use pfd_relation::wal::{SyncPolicy, WalWriter};

    fn sample_engine() -> DeltaEngine {
        let rel = Relation::from_rows(
            "Zip",
            &["zip", "city", "state"],
            vec![
                vec!["90001", "Los Angeles", "CA"],
                vec!["90001", "Los Angeles", "CA"],
                vec!["90002", "Los Angeles", "CA"],
                vec!["10001", "New York", "NY"],
                vec!["10001", "Brooklyn", "NY"],
                vec!["60601", "Chicago", "IL"],
            ],
        )
        .unwrap();
        let schema = rel.schema().clone();
        let pfds = vec![
            Pfd::fd("Zip", &schema, &["zip"], &["city"]).unwrap(),
            Pfd::fd("Zip", &schema, &["city"], &["state"]).unwrap(),
        ];
        DeltaEngine::new(rel, pfds)
    }

    fn assert_engines_equal(a: &DeltaEngine, b: &DeltaEngine) {
        assert_eq!(a.relation(), b.relation());
        assert_eq!(a.relation().version(), b.relation().version());
        assert_eq!(a.pfds(), b.pfds());
        assert_eq!(a.sorted_violations(), b.sorted_violations());
        assert_eq!(a.suspect_cells(), b.suspect_cells());
    }

    #[test]
    fn snapshot_round_trips_the_full_engine_state() {
        let engine = sample_engine();
        let bytes = save_to_bytes(&engine);
        let loaded = load_from_bytes(&bytes).unwrap();
        assert_engines_equal(&engine, &loaded);
    }

    #[test]
    fn a_violation_names_as_many_rows_as_its_kind() {
        let engine = sample_engine();
        let pair = &engine.sorted_violations()[0].violation;
        let mut bytes = Vec::new();
        encode_violation(&mut bytes, pair);
        let decoded = decode_violation(&mut SectionCursor::new(&bytes, "groups"));
        assert_eq!(decoded.ok().as_ref(), Some(pair));
        // A single tuple with two rows, a pair with one, either with none.
        for (kind, rows) in [(0, 2), (1, 1), (0, 0), (1, 0)] {
            let mut bytes = Vec::new();
            for v in [0, kind, 0, rows] {
                put_varint(&mut bytes, v);
            }
            for r in 0..rows {
                put_varint(&mut bytes, r);
            }
            for v in [0, 1, 1] {
                put_varint(&mut bytes, v); // no cells, group statistics
            }
            let decoded = decode_violation(&mut SectionCursor::new(&bytes, "groups"));
            assert!(decoded.is_err(), "kind {kind} with {rows} rows");
        }
    }

    #[test]
    fn snapshot_bytes_are_deterministic() {
        let engine = sample_engine();
        let once = save_to_bytes(&engine);
        let twice = save_to_bytes(&load_from_bytes(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn metadata_round_trips_and_defaults_when_absent() {
        let engine = sample_engine();
        let meta = SnapshotMeta {
            generation: 7,
            last_seq: 41,
        };
        let bytes = save_to_bytes_with(&engine, meta);
        let (_, back) = load_from_bytes_with(&bytes).unwrap();
        assert_eq!(back, meta);
        // Default save carries zero metadata.
        let (_, zero) = load_from_bytes_with(&save_to_bytes(&engine)).unwrap();
        assert_eq!(zero, SnapshotMeta::default());
    }

    #[test]
    fn missing_meta_section_is_rejected() {
        // META is mandatory: a container missing it must not load (a
        // flipped section id would otherwise make it vanish silently).
        let engine = sample_engine();
        let mut mutated = save_to_bytes(&engine);
        // Flip one byte of the META section id in the table (5th row).
        mutated[12 + 4 * 28] ^= 0xff;
        assert!(load_from_bytes(&mutated).is_err());
    }

    #[test]
    fn loaded_engine_stays_live_under_edits() {
        let engine = sample_engine();
        let mut cold = sample_engine();
        let mut loaded = load_from_bytes(&save_to_bytes(&engine)).unwrap();
        let schema = engine.relation().schema().clone();
        let city = schema.attr("city").unwrap();
        for e in [&mut cold, &mut loaded] {
            e.set_cell(4, city, "New York".into()).unwrap();
            e.insert_row(vec!["60601".into(), "Chicago".into(), "IL".into()])
                .unwrap();
            e.delete_row(0).unwrap();
        }
        assert_engines_equal(&cold, &loaded);
    }

    #[test]
    fn replay_log_reproduces_a_session() {
        let engine = sample_engine();
        let mut cold = sample_engine();
        let schema = engine.relation().schema().clone();
        let city = schema.attr("city").unwrap();
        cold.set_cell(4, city, "New York".into()).unwrap();
        cold.apply_batch(&[
            crate::incremental::Edit::Insert {
                cells: vec!["94103".into(), "San Francisco".into(), "CA".into()],
            },
            crate::incremental::Edit::Delete { row: 5 },
        ])
        .unwrap();

        let mut loaded = load_from_bytes(&save_to_bytes(&engine)).unwrap();
        let log = concat!(
            "{\"op\":\"set\",\"row\":4,\"attr\":\"city\",\"value\":\"New York\"}\n",
            "\n",
            "{\"op\":\"batch\",\"edits\":[",
            "{\"op\":\"insert\",\"cells\":[\"94103\",\"San Francisco\",\"CA\"]},",
            "{\"op\":\"delete\",\"row\":5}]}\n",
        );
        assert_eq!(replay_log(&mut loaded, log).unwrap(), 2);
        assert_engines_equal(&cold, &loaded);
    }

    #[test]
    fn replay_log_rejects_repair_ops_and_bad_lines() {
        let mut engine = sample_engine();
        assert!(matches!(
            replay_log(&mut engine, "{\"op\":\"repair\"}"),
            Err(SnapshotError::Log { record: 1, .. })
        ));
        assert!(matches!(
            replay_log(&mut engine, "not json"),
            Err(SnapshotError::Log { .. })
        ));
        assert!(matches!(
            replay_log(&mut engine, "{\"op\":\"delete\",\"row\":999}"),
            Err(SnapshotError::Log { .. })
        ));
    }

    #[test]
    fn empty_relation_and_no_rules_round_trip() {
        let rel = Relation::empty(Schema::new("T", ["a", "b"]).unwrap());
        let engine = DeltaEngine::new(rel, vec![]);
        let loaded = load_from_bytes(&save_to_bytes(&engine)).unwrap();
        assert_engines_equal(&engine, &loaded);
    }

    #[test]
    fn truncated_and_corrupted_snapshots_error_gracefully() {
        let bytes = save_to_bytes(&sample_engine());
        // Truncations at every prefix length must error, never panic.
        for cut in [0, 3, 8, 11, bytes.len() / 2, bytes.len() - 1] {
            assert!(load_from_bytes(&bytes[..cut]).is_err());
        }
        // A flipped payload byte trips that section's checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert!(matches!(
            load_from_bytes(&flipped),
            Err(SnapshotError::Binary {
                source: BinaryError::Checksum { .. },
                ..
            })
        ));
        // A wrong version is reported as such.
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 42;
        assert!(matches!(
            load_from_bytes(&wrong_version),
            Err(SnapshotError::Binary {
                source: BinaryError::UnsupportedVersion(42),
                ..
            })
        ));
    }

    #[test]
    fn save_and_load_files_round_trip() {
        let engine = sample_engine();
        let dir = std::env::temp_dir().join(format!("pfd_snapshot_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("zip.pfds");
        let store = SnapshotStore::new(&StdIo, &path);
        std::fs::write(store.index_path(), b"index").unwrap();
        store.save_fresh(&engine).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, save_to_bytes(&engine), "zero metadata, same bytes");
        let (loaded, meta) = load_from_bytes_with(&bytes).unwrap();
        assert_engines_equal(&engine, &loaded);
        assert_eq!(meta, SnapshotMeta::default());
        assert!(!store.tmp_path().exists(), "the staging file is renamed");
        assert!(store.index_path().exists(), "a fresh save keeps the index");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_recover_is_clean_and_needs_nothing() {
        let mem = MemIo::new();
        let store = SnapshotStore::new(&mem, "/zip.pfds");
        let engine = sample_engine();
        store
            .checkpoint(
                &engine,
                SnapshotMeta {
                    generation: 1,
                    last_seq: 0,
                },
            )
            .unwrap();
        let rec = store
            .recover(RecoveryPolicy::Strict, || {
                Err::<DeltaEngine, String>("cold build must not run".into())
            })
            .unwrap();
        assert_engines_equal(&engine, &rec.engine);
        assert_eq!(rec.report.source, RecoverySource::Current);
        assert_eq!(rec.report.generation, 1);
        assert!(!rec.report.degraded());
        assert!(!rec.needs_checkpoint);
        assert_eq!(rec.seq_floor, 0);
    }

    #[test]
    fn recover_replays_log_records_past_the_snapshot_floor() {
        let mem = MemIo::new();
        let store = SnapshotStore::new(&mem, "/zip.pfds");
        let engine = sample_engine();
        store
            .checkpoint(
                &engine,
                SnapshotMeta {
                    generation: 1,
                    last_seq: 0,
                },
            )
            .unwrap();
        let (mut w, _) = WalWriter::open(&mem, &store.log_path(), 0, SyncPolicy::Always).unwrap();
        w.append(b"{\"op\":\"set\",\"row\":4,\"attr\":\"city\",\"value\":\"New York\"}")
            .unwrap();
        drop(w);

        let rec = store
            .recover(RecoveryPolicy::Strict, || {
                Err::<DeltaEngine, String>("cold build must not run".into())
            })
            .unwrap();
        let mut expected = sample_engine();
        let city = expected.relation().schema().attr("city").unwrap();
        expected.set_cell(4, city, "New York".into()).unwrap();
        assert_engines_equal(&expected, &rec.engine);
        assert_eq!(rec.report.log_records_applied, 1);
        assert_eq!(rec.seq_floor, 1);
        assert_eq!(rec.next_meta().last_seq, 1);
        assert!(rec.needs_checkpoint);
        // Replaying a clean log is not degradation.
        assert!(!rec.report.degraded());
    }

    #[test]
    fn recover_cold_builds_when_nothing_is_on_disk() {
        let mem = MemIo::new();
        let store = SnapshotStore::new(&mem, "/zip.pfds");
        let rec = store
            .recover(RecoveryPolicy::Strict, || Ok::<_, String>(sample_engine()))
            .unwrap();
        assert_eq!(rec.report.source, RecoverySource::ColdBuild);
        assert!(rec.needs_checkpoint);
        assert!(!rec.report.degraded());
    }
}
