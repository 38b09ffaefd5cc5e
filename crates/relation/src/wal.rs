//! Record-framed write-ahead log with per-record checksums.
//!
//! PR 6's session delta log was raw JSONL appended to a text file: a crash
//! mid-append left a torn last line that the replayer could only reject
//! wholesale, and nothing detected a flipped byte or a duplicated flush.
//! This module replaces that with a binary framing every record passes
//! through:
//!
//! ```text
//! file   := header record*
//! header := "PFDL" version:u32le
//! record := len:u32le seq:u64le checksum:u64le payload[len]
//! ```
//!
//! * `len` is the payload byte length;
//! * `seq` is a monotonically increasing sequence number (+1 per record,
//!   continuing across file generations) — replay can skip records a
//!   snapshot already covers, which is what makes the checkpoint sequence
//!   *(write snapshot, then truncate log)* crash-safe: a crash between the
//!   two can no longer double-apply deltas;
//! * `checksum` is FNV-1a64 over the seq bytes and the payload.
//!
//! [`read_wal_bytes`] never fails: it decodes the longest valid prefix and
//! reports *why* it stopped as a [`WalTail`] — a clean end, a torn record
//! (crash mid-append), a checksum mismatch (bit rot), or a broken sequence
//! (duplicated or reordered records). The recovery supervisor in
//! `pfd_core::snapshot` decides what each tail kind means under the chosen
//! recovery policy; [`WalWriter::open`] truncates invalid tails before
//! appending so a salvaged log never grows garbage in the middle.

// Log recovery runs against arbitrary crashed-file bytes; a panic here is a
// recovery bug, so unwrapping is denied outright (tests opt back in).
#![deny(clippy::unwrap_used)]

use std::io;
use std::path::{Path, PathBuf};

use crate::binary::fnv1a;
use crate::io::Io;

/// Magic bytes opening every WAL file.
pub const WAL_MAGIC: [u8; 4] = *b"PFDL";

/// Current WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Byte length of the file header (magic + version).
pub const WAL_HEADER_LEN: u64 = 8;

/// Byte length of a record frame before its payload (len + seq + checksum).
pub const RECORD_HEADER_LEN: u64 = 4 + 8 + 8;

/// One decoded log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Monotonic sequence number.
    pub seq: u64,
    /// The record payload (for session logs: one JSONL command line).
    pub payload: Vec<u8>,
}

/// Why [`read_wal_bytes`] stopped decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalTail {
    /// Every byte decoded; the log ends on a record boundary.
    Clean,
    /// The file is shorter than the 8-byte header or its magic/version is
    /// wrong — a crash during creation, or not a WAL at all.
    BadHeader {
        /// Bytes present in the file.
        len: u64,
    },
    /// The file ends inside a record (frame or payload) — the signature of
    /// a crash mid-append.
    Torn {
        /// Offset of the incomplete record.
        offset: u64,
        /// Bytes present after `offset`.
        have: u64,
        /// Bytes a complete record would need.
        need: u64,
    },
    /// A structurally complete record whose checksum does not match its
    /// payload — bit rot or a torn write that landed inside old data.
    BadChecksum {
        /// Offset of the corrupt record.
        offset: u64,
        /// Its (untrusted) sequence number.
        seq: u64,
    },
    /// A record whose sequence number is not the predecessor's + 1 — a
    /// duplicated or reordered flush.
    BadSequence {
        /// Offset of the offending record.
        offset: u64,
        /// The sequence number continuity requires.
        expected: u64,
        /// The sequence number found.
        found: u64,
    },
}

impl WalTail {
    /// True when the log decoded completely.
    pub fn is_clean(&self) -> bool {
        matches!(self, WalTail::Clean)
    }

    /// Short lowercase label for reports and JSON events.
    pub fn label(&self) -> &'static str {
        match self {
            WalTail::Clean => "clean",
            WalTail::BadHeader { .. } => "bad_header",
            WalTail::Torn { .. } => "torn",
            WalTail::BadChecksum { .. } => "bad_checksum",
            WalTail::BadSequence { .. } => "bad_sequence",
        }
    }
}

impl std::fmt::Display for WalTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalTail::Clean => write!(f, "clean"),
            WalTail::BadHeader { len } => {
                write!(f, "invalid log header ({len} bytes present)")
            }
            WalTail::Torn { offset, have, need } => {
                write!(
                    f,
                    "torn record at offset {offset} ({have} of {need} bytes present)"
                )
            }
            WalTail::BadChecksum { offset, seq } => {
                write!(f, "checksum mismatch at offset {offset} (record seq {seq})")
            }
            WalTail::BadSequence {
                offset,
                expected,
                found,
            } => {
                write!(
                    f,
                    "sequence break at offset {offset} (expected {expected}, found {found})"
                )
            }
        }
    }
}

/// Result of decoding a log image: the valid record prefix, the byte
/// length of that prefix, and why decoding stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReadOutcome {
    /// Records of the valid prefix, in order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (0 when even the header is bad —
    /// a writer reinitializes such a file from scratch).
    pub valid_len: u64,
    /// Why decoding stopped.
    pub tail: WalTail,
}

impl WalReadOutcome {
    /// Sequence number of the last valid record.
    pub fn last_seq(&self) -> Option<u64> {
        self.records.last().map(|r| r.seq)
    }

    /// Bytes past the valid prefix, given the file's total length.
    pub fn lost_bytes(&self, file_len: u64) -> u64 {
        file_len.saturating_sub(self.valid_len)
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// Checksum of one record: FNV-1a64 over seq (little-endian) ++ payload.
fn record_checksum(seq: u64, payload: &[u8]) -> u64 {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&seq.to_le_bytes());
    buf.extend_from_slice(payload);
    fnv1a(&buf)
}

/// Appends one framed record to `out`.
pub fn encode_record(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&record_checksum(seq, payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends the file header to `out`.
pub fn encode_header(out: &mut Vec<u8>) {
    out.extend_from_slice(&WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
}

/// Decodes a log image into its longest valid record prefix.
///
/// Never fails: corruption is reported through [`WalReadOutcome::tail`]
/// and everything before it is returned. An empty image is a clean,
/// record-less log (the state before a writer ever opened it).
pub fn read_wal_bytes(data: &[u8]) -> WalReadOutcome {
    if data.is_empty() {
        return WalReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            tail: WalTail::Clean,
        };
    }
    if (data.len() as u64) < WAL_HEADER_LEN
        || data[..4] != WAL_MAGIC
        || le_u32(&data[4..8]) != WAL_VERSION
    {
        return WalReadOutcome {
            records: Vec::new(),
            valid_len: 0,
            tail: WalTail::BadHeader {
                len: data.len() as u64,
            },
        };
    }
    let mut records = Vec::new();
    let mut pos = WAL_HEADER_LEN as usize;
    let mut expected_seq: Option<u64> = None;
    let tail = loop {
        if pos == data.len() {
            break WalTail::Clean;
        }
        let remaining = (data.len() - pos) as u64;
        if remaining < RECORD_HEADER_LEN {
            break WalTail::Torn {
                offset: pos as u64,
                have: remaining,
                need: RECORD_HEADER_LEN,
            };
        }
        let len = u64::from(le_u32(&data[pos..pos + 4]));
        let need = RECORD_HEADER_LEN + len;
        if remaining < need {
            break WalTail::Torn {
                offset: pos as u64,
                have: remaining,
                need,
            };
        }
        let seq = le_u64(&data[pos + 4..pos + 12]);
        let checksum = le_u64(&data[pos + 12..pos + 20]);
        let payload = &data[pos + 20..pos + 20 + len as usize];
        if record_checksum(seq, payload) != checksum {
            break WalTail::BadChecksum {
                offset: pos as u64,
                seq,
            };
        }
        if let Some(expected) = expected_seq {
            if seq != expected {
                break WalTail::BadSequence {
                    offset: pos as u64,
                    expected,
                    found: seq,
                };
            }
        }
        expected_seq = Some(seq + 1);
        records.push(WalRecord {
            seq,
            payload: payload.to_vec(),
        });
        pos += need as usize;
    };
    WalReadOutcome {
        records,
        valid_len: pos as u64,
        tail,
    }
}

/// When appended records are forced to durable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `sync` after every record — an acknowledged append survives a crash.
    Always,
    /// Never sync — for benchmarks measuring the fsync overhead itself.
    Never,
}

/// Appends framed records to a log file through an [`Io`] handle.
pub struct WalWriter<'io> {
    io: &'io dyn Io,
    path: PathBuf,
    next_seq: u64,
    sync: SyncPolicy,
}

impl<'io> WalWriter<'io> {
    /// Opens (creating if needed) the log at `path` for appending.
    ///
    /// An existing file is scanned first: an invalid tail is truncated away
    /// so new records only ever extend a valid prefix, and the next
    /// sequence number continues after the larger of the last on-disk
    /// record and `start_after` (the sequence the current snapshot already
    /// covers). Returns the writer and the scan outcome.
    pub fn open(
        io: &'io dyn Io,
        path: &Path,
        start_after: u64,
        sync: SyncPolicy,
    ) -> io::Result<(Self, WalReadOutcome)> {
        let data = if io.exists(path) {
            io.read(path)?
        } else {
            Vec::new()
        };
        let outcome = read_wal_bytes(&data);
        if outcome.valid_len == 0 {
            // Fresh file, or one whose header never made it to disk:
            // (re)initialize it. The header needs no sync of its own: the
            // sync that makes the first record durable covers it, and a
            // header lost before then leaves an empty log that the next
            // open re-initializes here.
            let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
            encode_header(&mut header);
            io.write(path, &header)?;
        } else if outcome.valid_len < data.len() as u64 {
            io.truncate(path, outcome.valid_len)?;
            io.sync(path)?;
        }
        let next_seq = outcome.last_seq().unwrap_or(0).max(start_after) + 1;
        Ok((
            WalWriter {
                io,
                path: path.to_path_buf(),
                next_seq,
                sync,
            },
            outcome,
        ))
    }

    /// Resumes appending to a log this process already validated, without
    /// re-reading it: the next record gets sequence `next_seq`.
    ///
    /// [`WalWriter::open`] scans the whole file to find the valid prefix —
    /// right after a crash, wrong on every append to a live log (a session
    /// opening one writer per command would re-read the log
    /// quadratically). The caller owns the contract that the file exists
    /// with a valid tail and that its last record is `next_seq - 1`; a
    /// `pfd_core` session caches that from its previous open or append.
    pub fn continue_at(io: &'io dyn Io, path: &Path, next_seq: u64, sync: SyncPolicy) -> Self {
        WalWriter {
            io,
            path: path.to_path_buf(),
            next_seq,
            sync,
        }
    }

    /// Appends one record, returning its sequence number. With
    /// [`SyncPolicy::Always`] the record is durable when this returns.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<u64> {
        let seq = self.next_seq;
        let mut frame = Vec::with_capacity(RECORD_HEADER_LEN as usize + payload.len());
        encode_record(&mut frame, seq, payload);
        self.io.append(&self.path, &frame)?;
        if self.sync == SyncPolicy::Always {
            self.io.sync(&self.path)?;
        }
        self.next_seq = seq + 1;
        Ok(seq)
    }

    /// Sequence number of the most recently appended record (or the
    /// `start_after`/on-disk floor when nothing was appended yet).
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::io::MemIo;

    fn log_with(payloads: &[&[u8]]) -> Vec<u8> {
        let mut data = Vec::new();
        encode_header(&mut data);
        for (i, p) in payloads.iter().enumerate() {
            encode_record(&mut data, i as u64 + 1, p);
        }
        data
    }

    #[test]
    fn clean_log_round_trips() {
        let data = log_with(&[b"one", b"", b"three"]);
        let outcome = read_wal_bytes(&data);
        assert_eq!(outcome.tail, WalTail::Clean);
        assert_eq!(outcome.valid_len, data.len() as u64);
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(outcome.records[0].seq, 1);
        assert_eq!(outcome.records[2].payload, b"three");
        assert_eq!(outcome.last_seq(), Some(3));
    }

    #[test]
    fn continue_at_extends_without_rescanning() {
        let io = MemIo::new();
        let path = Path::new("t.log");
        let first_next = {
            let (mut wal, _) = WalWriter::open(&io, path, 0, SyncPolicy::Always).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
            wal.last_seq() + 1
        };
        // Resume with the cached sequence: appends continue the chain and a
        // fresh full open sees one contiguous valid log.
        let mut wal = WalWriter::continue_at(&io, path, first_next, SyncPolicy::Always);
        assert_eq!(wal.append(b"three").unwrap(), 3);
        let (_, outcome) = WalWriter::open(&io, path, 0, SyncPolicy::Always).unwrap();
        assert_eq!(outcome.tail, WalTail::Clean);
        assert_eq!(outcome.last_seq(), Some(3));
        assert_eq!(outcome.records[2].payload, b"three");
    }

    #[test]
    fn empty_and_headerless_images_are_handled() {
        let outcome = read_wal_bytes(b"");
        assert_eq!(outcome.tail, WalTail::Clean);
        assert!(outcome.records.is_empty());
        // A crash during header creation leaves < 8 bytes.
        let outcome = read_wal_bytes(b"PFD");
        assert_eq!(outcome.tail, WalTail::BadHeader { len: 3 });
        assert_eq!(outcome.valid_len, 0);
        // A non-WAL file of sufficient length is also a bad header.
        let outcome = read_wal_bytes(b"not a wal file");
        assert!(matches!(outcome.tail, WalTail::BadHeader { .. }));
    }

    #[test]
    fn every_truncation_yields_the_complete_prefix() {
        let payloads: &[&[u8]] = &[b"alpha", b"bravo-longer", b"c"];
        let data = log_with(payloads);
        // Record boundaries for deciding how many records survive a cut.
        let mut boundaries = vec![WAL_HEADER_LEN];
        for p in payloads {
            boundaries.push(boundaries.last().unwrap() + RECORD_HEADER_LEN + p.len() as u64);
        }
        for cut in 0..data.len() {
            let outcome = read_wal_bytes(&data[..cut]);
            let expect_records = boundaries
                .iter()
                .filter(|&&b| b > 0 && b <= cut as u64)
                .count()
                - usize::from(cut as u64 >= WAL_HEADER_LEN);
            assert_eq!(
                outcome.records.len(),
                expect_records,
                "cut at {cut}: complete prefix only"
            );
            if cut == 0 {
                assert_eq!(outcome.tail, WalTail::Clean, "empty image is clean");
            } else if (cut as u64) < WAL_HEADER_LEN {
                assert!(matches!(outcome.tail, WalTail::BadHeader { .. }));
            } else if boundaries.contains(&(cut as u64)) {
                assert_eq!(outcome.tail, WalTail::Clean, "cut at {cut}");
            } else {
                assert!(
                    matches!(outcome.tail, WalTail::Torn { .. }),
                    "cut at {cut}: {:?}",
                    outcome.tail
                );
            }
            for (i, r) in outcome.records.iter().enumerate() {
                assert_eq!(r.payload, payloads[i]);
            }
        }
    }

    #[test]
    fn bit_flips_stop_at_the_flipped_record() {
        let data = log_with(&[b"alpha", b"bravo"]);
        // Flip a byte inside the second record's payload.
        let second_start = WAL_HEADER_LEN + RECORD_HEADER_LEN + 5;
        let mut flipped = data.clone();
        let pos = (second_start + RECORD_HEADER_LEN + 2) as usize;
        flipped[pos] ^= 0x40;
        let outcome = read_wal_bytes(&flipped);
        assert_eq!(outcome.records.len(), 1, "first record survives");
        assert_eq!(
            outcome.tail,
            WalTail::BadChecksum {
                offset: second_start,
                seq: 2
            }
        );
        assert_eq!(outcome.valid_len, second_start);
    }

    #[test]
    fn duplicated_and_reordered_records_break_the_sequence() {
        let mut dup = Vec::new();
        encode_header(&mut dup);
        encode_record(&mut dup, 1, b"a");
        let boundary = dup.len() as u64;
        encode_record(&mut dup, 1, b"a"); // duplicated flush
        let outcome = read_wal_bytes(&dup);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(
            outcome.tail,
            WalTail::BadSequence {
                offset: boundary,
                expected: 2,
                found: 1
            }
        );

        let mut skip = Vec::new();
        encode_header(&mut skip);
        encode_record(&mut skip, 1, b"a");
        encode_record(&mut skip, 3, b"b"); // lost record 2
        let outcome = read_wal_bytes(&skip);
        assert_eq!(outcome.records.len(), 1);
        assert!(matches!(
            outcome.tail,
            WalTail::BadSequence {
                expected: 2,
                found: 3,
                ..
            }
        ));
    }

    #[test]
    fn writer_appends_continue_the_sequence() {
        let mem = MemIo::new();
        let path = Path::new("/session.log");
        let (mut w, outcome) = WalWriter::open(&mem, path, 0, SyncPolicy::Always).unwrap();
        assert_eq!(outcome.records.len(), 0);
        assert_eq!(w.append(b"one").unwrap(), 1);
        assert_eq!(w.append(b"two").unwrap(), 2);
        assert_eq!(w.last_seq(), 2);
        drop(w);
        // Reopen: sequence continues.
        let (mut w, outcome) = WalWriter::open(&mem, path, 0, SyncPolicy::Always).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(w.append(b"three").unwrap(), 3);
        // After a checkpoint covering seq 5 the log restarts empty but the
        // sequence does not go backwards.
        mem.remove(path).unwrap();
        let (mut w, _) = WalWriter::open(&mem, path, 5, SyncPolicy::Always).unwrap();
        assert_eq!(w.append(b"six").unwrap(), 6);
    }

    #[test]
    fn writer_truncates_a_torn_tail_before_appending() {
        let mem = MemIo::new();
        let path = Path::new("/session.log");
        let mut data = log_with(&[b"good"]);
        let valid = data.len() as u64;
        data.extend_from_slice(&[9, 0, 0, 0, 7]); // torn frame
        mem.write(path, &data).unwrap();
        let (mut w, outcome) = WalWriter::open(&mem, path, 0, SyncPolicy::Always).unwrap();
        assert!(matches!(outcome.tail, WalTail::Torn { .. }));
        assert_eq!(mem.read(path).unwrap().len() as u64, valid);
        w.append(b"next").unwrap();
        let reread = read_wal_bytes(&mem.read(path).unwrap());
        assert_eq!(reread.tail, WalTail::Clean);
        assert_eq!(reread.records.len(), 2);
        assert_eq!(reread.records[1].seq, 2);
    }
}
