//! Low-level binary codec primitives for the on-disk snapshot format.
//!
//! Everything the snapshot layer persists is built from four primitives:
//!
//! * **varints** — LEB128-style `u64` encoding, 1–10 bytes;
//! * **length-prefixed strings** — varint byte length + UTF-8 payload;
//! * **front-coded string tables** — sorted string lists where each entry
//!   stores only the byte length it shares with its predecessor plus the
//!   fresh suffix, which compresses fragment vocabularies and per-column
//!   value dictionaries well;
//! * **delta-gap posting blocks** — a [`PostingList`] as universe + length +
//!   varint gaps between consecutive sorted row ids.
//!
//! On top of those sits the *section container*: a file starts with the
//! magic `PFDS`, a format version, and a section table of
//! `(id, offset, length, checksum)` entries followed by the raw section
//! payloads. Each section carries its own FNV-1a checksum, so readers can
//! validate and decode sections independently — and in parallel — without
//! touching the rest of the file.
//!
//! This module deliberately knows nothing about relations, PFDs, or
//! engines; the semantic layout lives in `pfd_core::snapshot`.

// Decode paths here run against arbitrary on-disk bytes; a panic in them is
// a recovery bug, so unwrapping is denied outright (tests opt back in).
#![deny(clippy::unwrap_used)]

use std::fmt;

use crate::postings::PostingList;

/// Magic bytes opening every snapshot file.
pub const MAGIC: [u8; 4] = *b"PFDS";

/// Current container format version. Bump on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 1;

/// Errors surfaced while encoding or decoding binary snapshot data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// The file does not start with the `PFDS` magic.
    BadMagic,
    /// The container was written by an unsupported format version.
    UnsupportedVersion(u32),
    /// The input ended before a complete value could be decoded.
    Truncated,
    /// A section's stored checksum does not match its payload.
    Checksum {
        /// Section id whose payload failed validation.
        section: u32,
    },
    /// The data was structurally invalid (bad varint, non-UTF-8 string,
    /// out-of-order table, overlapping or out-of-bounds section, ...).
    Corrupt(String),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "not a PFD snapshot (bad magic)"),
            BinaryError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot format version {v} (this build reads {FORMAT_VERSION})"
                )
            }
            BinaryError::Truncated => write!(f, "snapshot data is truncated"),
            BinaryError::Checksum { section } => {
                write!(f, "checksum mismatch in snapshot section {section}")
            }
            BinaryError::Corrupt(msg) => write!(f, "corrupt snapshot data: {msg}"),
        }
    }
}

impl std::error::Error for BinaryError {}

fn corrupt(msg: impl Into<String>) -> BinaryError {
    BinaryError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Checksums
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a hash of `data`, used as the per-section checksum.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

/// Appends `value` to `out` as a LEB128 varint (7 bits per byte, high bit
/// marks continuation).
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A cursor over a byte slice with primitive decoders.
///
/// All `get_*` methods advance past the value they decode and fail with
/// [`BinaryError::Truncated`] rather than panicking on short input.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps `data` with the read position at the start.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Byte offset of the read position from the start of the input —
    /// error reports use this to name where decoding failed.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Reads exactly `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], BinaryError> {
        if self.remaining() < n {
            return Err(BinaryError::Truncated);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Decodes a LEB128 varint.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64, BinaryError> {
        // Fast path for the overwhelmingly common single-byte values (cell
        // vocabulary indexes, posting gaps, small counts).
        if let Some(&byte) = self.data.get(self.pos) {
            if byte & 0x80 == 0 {
                self.pos += 1;
                return Ok(u64::from(byte));
            }
        }
        self.get_varint_slow()
    }

    fn get_varint_slow(&mut self) -> Result<u64, BinaryError> {
        let mut value: u64 = 0;
        let mut shift = 0u32;
        loop {
            let &byte = self.data.get(self.pos).ok_or(BinaryError::Truncated)?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(corrupt("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(corrupt("varint longer than 10 bytes"));
            }
        }
    }

    /// Decodes a varint *count* (of items still to be read from this
    /// cursor) and narrows it to `usize`, bounds-checked against the
    /// remaining input so hostile lengths cannot trigger huge allocations.
    /// For varints that are values rather than counts (row ids, vocabulary
    /// indexes), use [`Cursor::get_index`].
    pub fn get_len(&mut self) -> Result<usize, BinaryError> {
        let n = self.get_index()?;
        if n > self.remaining().saturating_mul(8) + 64 {
            return Err(corrupt(format!(
                "declared length {n} exceeds remaining input"
            )));
        }
        Ok(n)
    }

    /// Decodes a varint value as `usize` with no remaining-input bound —
    /// for indexes and ids whose magnitude is unrelated to the input size.
    pub fn get_index(&mut self) -> Result<usize, BinaryError> {
        let v = self.get_varint()?;
        usize::try_from(v).map_err(|_| corrupt("value does not fit usize"))
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, BinaryError> {
        let n = self.get_len()?;
        let bytes = self.get_bytes(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// Raw input bytes between two previously observed positions — lets a
    /// decoder validate a varint run and then adopt its bytes wholesale.
    pub(crate) fn bytes_between(&self, start: usize, end: usize) -> &'a [u8] {
        &self.data[start..end]
    }
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_string(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// Front-coded string tables
// ---------------------------------------------------------------------------

/// Byte length of the longest common prefix of `a` and `b` that falls on a
/// UTF-8 character boundary of both.
fn shared_prefix(a: &str, b: &str) -> usize {
    let max = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    let mut n = max;
    while n > 0 && (!a.is_char_boundary(n) || !b.is_char_boundary(n)) {
        n -= 1;
    }
    n
}

/// Encodes a **sorted** list of strings with front coding: each entry is
/// `(shared-prefix-len, suffix)` relative to its predecessor.
///
/// The caller must pass the strings in ascending order; [`decode_string_table`]
/// enforces that invariant on the way back in, which makes the encoding
/// canonical (one byte stream per string set).
pub fn encode_string_table<S: AsRef<str>>(out: &mut Vec<u8>, strings: &[S]) {
    put_varint(out, strings.len() as u64);
    let mut prev = "";
    for s in strings {
        let s = s.as_ref();
        let shared = shared_prefix(prev, s);
        put_varint(out, shared as u64);
        put_string(out, &s[shared..]);
        prev = s;
    }
}

/// Decodes a front-coded string table, verifying sortedness.
pub fn decode_string_table(cur: &mut Cursor<'_>) -> Result<Vec<String>, BinaryError> {
    let count = cur.get_len()?;
    let mut strings = Vec::with_capacity(count.min(1 << 20));
    let mut prev = String::new();
    for _ in 0..count {
        let shared = cur.get_index()?;
        if shared > prev.len() || !prev.is_char_boundary(shared) {
            return Err(corrupt("front-coded prefix exceeds previous entry"));
        }
        let suffix = cur.get_string()?;
        let mut s = String::with_capacity(shared + suffix.len());
        s.push_str(&prev[..shared]);
        s.push_str(&suffix);
        if !strings.is_empty() && s <= prev {
            return Err(corrupt("string table entries not strictly ascending"));
        }
        prev = s.clone();
        strings.push(s);
    }
    Ok(strings)
}

// ---------------------------------------------------------------------------
// Posting lists
// ---------------------------------------------------------------------------

/// Encodes a posting list as `universe, len, first, gap, gap, ...` varints.
///
/// Row ids are sorted and distinct, so every gap after the first id is at
/// least 1 and the stream is self-validating on decode. The stream is
/// independent of the in-memory representation: block-compressed lists
/// contribute their block payloads wholesale (one inter-block gap varint
/// per block, then a byte copy), so the bytes are identical to encoding the
/// plain sorted run id by id.
pub fn encode_postings(out: &mut Vec<u8>, list: &PostingList) {
    put_varint(out, list.universe() as u64);
    put_varint(out, list.len() as u64);
    list.write_wire_gaps(out);
}

/// Decodes a posting list written by [`encode_postings`].
///
/// Lists that would land in the block-compressed representation are built
/// directly from the wire bytes: each 128-entry run of gaps is validated
/// varint by varint and then adopted as a block payload without
/// re-encoding.
pub fn decode_postings(cur: &mut Cursor<'_>) -> Result<PostingList, BinaryError> {
    // The universe is a bound, not an item count, so it must not go through
    // the `get_len` remaining-input guard.
    let universe = cur.get_index()?;
    let len = cur.get_len()?;
    if PostingList::wire_prefers_blocked(len as u64, universe as u64) {
        return decode_postings_blocked(cur, universe, len);
    }
    let mut ids = Vec::with_capacity(len.min(1 << 22));
    let mut prev: Option<u32> = None;
    for _ in 0..len {
        let raw = cur.get_varint()?;
        let id = match prev {
            None => u32::try_from(raw).map_err(|_| corrupt("row id overflows u32"))?,
            Some(p) => {
                if raw == 0 {
                    return Err(corrupt("zero gap in posting list"));
                }
                let id = u64::from(p) + raw;
                u32::try_from(id).map_err(|_| corrupt("row id overflows u32"))?
            }
        };
        if id as usize >= universe {
            return Err(corrupt("posting id outside its universe"));
        }
        ids.push(id);
        prev = Some(id);
    }
    Ok(PostingList::from_sorted(ids, universe))
}

/// Blocked decode path: validates each 128-entry gap run with the same
/// checks (and error messages) as the id-by-id loop, then copies the run's
/// bytes into the list's own block buffer. Payloads land back to back, so
/// each block's payload ends where the next one's begins.
fn decode_postings_blocked(
    cur: &mut Cursor<'_>,
    universe: usize,
    len: usize,
) -> Result<PostingList, BinaryError> {
    use crate::postings::{BlockMeta, BLOCK_LEN};
    let mut bytes: Vec<u8> = Vec::with_capacity(len.min(1 << 22));
    let mut metas: Vec<BlockMeta> = Vec::with_capacity(len.div_ceil(BLOCK_LEN).min(1 << 16));
    let mut prev: Option<u32> = None;
    let mut remaining = len;
    while remaining > 0 {
        let n = remaining.min(BLOCK_LEN);
        // Leading varint: absolute first id for the first block, the gap
        // from the previous block's last id otherwise.
        let raw = cur.get_varint()?;
        let first = match prev {
            None => u32::try_from(raw).map_err(|_| corrupt("row id overflows u32"))?,
            Some(p) => {
                if raw == 0 {
                    return Err(corrupt("zero gap in posting list"));
                }
                u32::try_from(u64::from(p) + raw).map_err(|_| corrupt("row id overflows u32"))?
            }
        };
        if first as usize >= universe {
            return Err(corrupt("posting id outside its universe"));
        }
        let start = cur.position();
        let mut last = first;
        for _ in 1..n {
            let gap = cur.get_varint()?;
            if gap == 0 {
                return Err(corrupt("zero gap in posting list"));
            }
            last = u32::try_from(u64::from(last) + gap)
                .map_err(|_| corrupt("row id overflows u32"))?;
            if last as usize >= universe {
                return Err(corrupt("posting id outside its universe"));
            }
        }
        let offset = bytes.len() as u32;
        bytes.extend_from_slice(cur.bytes_between(start, cur.position()));
        metas.push(BlockMeta {
            first,
            last,
            offset,
            count: n as u32,
        });
        prev = Some(last);
        remaining -= n;
    }
    Ok(PostingList::from_blocked_raw(
        universe as u32,
        len as u32,
        bytes,
        metas,
    ))
}

// ---------------------------------------------------------------------------
// Section container
// ---------------------------------------------------------------------------

/// Reads a little-endian `u32` at `at` from a slice already known to be
/// long enough (callers bounds-check whole table rows up front).
fn read_u32_le(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

/// Reads a little-endian `u64` at `at`; same contract as [`read_u32_le`].
fn read_u64_le(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        data[at],
        data[at + 1],
        data[at + 2],
        data[at + 3],
        data[at + 4],
        data[at + 5],
        data[at + 6],
        data[at + 7],
    ])
}

/// One entry in the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SectionEntry {
    id: u32,
    offset: u64,
    len: u64,
    checksum: u64,
}

/// Builds a sectioned snapshot file: magic, version, section table, payloads.
///
/// Sections are laid out in the order they are added; ids must be unique.
pub struct SectionWriter {
    sections: Vec<(u32, Vec<u8>)>,
}

impl SectionWriter {
    /// Starts an empty container.
    pub fn new() -> Self {
        SectionWriter {
            sections: Vec::new(),
        }
    }

    /// Adds a section payload under `id`.
    ///
    /// # Panics
    /// Panics if `id` was already added — section ids are compile-time
    /// constants in the snapshot layer, so a duplicate is a programming
    /// error, not an input error.
    pub fn add(&mut self, id: u32, payload: Vec<u8>) {
        assert!(
            self.sections.iter().all(|(existing, _)| *existing != id),
            "duplicate snapshot section id {id}"
        );
        self.sections.push((id, payload));
    }

    /// Serializes the container to its final byte layout.
    pub fn finish(self) -> Vec<u8> {
        // Header: magic(4) + version(4) + count(4), then one fixed-width
        // table row per section (id:4, offset:8, len:8, checksum:8). Fixed
        // widths keep the payload offsets computable before writing them.
        let table_row = 4 + 8 + 8 + 8;
        let header_len = 4 + 4 + 4 + self.sections.len() * table_row;
        let total: usize = header_len + self.sections.iter().map(|(_, p)| p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        let mut offset = header_len as u64;
        for (id, payload) in &self.sections {
            out.extend_from_slice(&id.to_le_bytes());
            out.extend_from_slice(&offset.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(&fnv1a(payload).to_le_bytes());
            offset += payload.len() as u64;
        }
        for (_, payload) in &self.sections {
            out.extend_from_slice(payload);
        }
        out
    }
}

impl Default for SectionWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses a sectioned snapshot file and serves checksum-validated payloads.
pub struct SectionReader<'a> {
    data: &'a [u8],
    entries: Vec<SectionEntry>,
}

impl<'a> SectionReader<'a> {
    /// Validates the magic, version, and section table of `data`.
    ///
    /// Payload checksums are validated lazily in [`SectionReader::section`],
    /// so opening a large file is cheap and sections can be verified in
    /// parallel by independent callers.
    pub fn open(data: &'a [u8]) -> Result<Self, BinaryError> {
        if data.len() < 12 {
            return Err(BinaryError::Truncated);
        }
        if data[..4] != MAGIC {
            return Err(BinaryError::BadMagic);
        }
        let version = read_u32_le(data, 4);
        if version != FORMAT_VERSION {
            return Err(BinaryError::UnsupportedVersion(version));
        }
        let count = read_u32_le(data, 8) as usize;
        let table_row = 4 + 8 + 8 + 8;
        let header_len = 12 + count * table_row;
        if data.len() < header_len {
            return Err(BinaryError::Truncated);
        }
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let row = &data[12 + i * table_row..12 + (i + 1) * table_row];
            let entry = SectionEntry {
                id: read_u32_le(row, 0),
                offset: read_u64_le(row, 4),
                len: read_u64_le(row, 12),
                checksum: read_u64_le(row, 20),
            };
            if entries.iter().any(|e: &SectionEntry| e.id == entry.id) {
                return Err(corrupt(format!("duplicate section id {}", entry.id)));
            }
            let end = entry
                .offset
                .checked_add(entry.len)
                .ok_or_else(|| corrupt("section extent overflows"))?;
            if entry.offset < header_len as u64 || end > data.len() as u64 {
                return Err(BinaryError::Truncated);
            }
            entries.push(entry);
        }
        Ok(SectionReader { data, entries })
    }

    /// Ids of every section present, in file order.
    pub fn section_ids(&self) -> Vec<u32> {
        self.entries.iter().map(|e| e.id).collect()
    }

    /// Returns the checksum-validated payload of section `id`, or `None`
    /// if the container has no such section.
    pub fn section(&self, id: u32) -> Result<Option<&'a [u8]>, BinaryError> {
        let Some(entry) = self.entries.iter().find(|e| e.id == id) else {
            return Ok(None);
        };
        let payload = &self.data[entry.offset as usize..(entry.offset + entry.len) as usize];
        if fnv1a(payload) != entry.checksum {
            return Err(BinaryError::Checksum { section: id });
        }
        Ok(Some(payload))
    }

    /// Like [`SectionReader::section`] but treats a missing section as
    /// corruption — for sections the format makes mandatory.
    pub fn require(&self, id: u32) -> Result<&'a [u8], BinaryError> {
        self.section(id)?
            .ok_or_else(|| corrupt(format!("missing required section {id}")))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trips_boundaries() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut cur = Cursor::new(&buf);
        for &v in &values {
            assert_eq!(cur.get_varint().unwrap(), v);
        }
        assert!(cur.is_empty());
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut cur = Cursor::new(&[0x80, 0x80]);
        assert_eq!(cur.get_varint(), Err(BinaryError::Truncated));
        // 11 continuation bytes can never be a valid u64.
        let bad = [0xffu8; 11];
        let mut cur = Cursor::new(&bad);
        assert!(matches!(cur.get_varint(), Err(BinaryError::Corrupt(_))));
    }

    #[test]
    fn string_round_trips_unicode() {
        let mut buf = Vec::new();
        put_string(&mut buf, "héllo, wörld");
        put_string(&mut buf, "");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.get_string().unwrap(), "héllo, wörld");
        assert_eq!(cur.get_string().unwrap(), "");
    }

    #[test]
    fn string_table_front_codes_and_round_trips() {
        let strings: Vec<String> = ["", "a", "ab", "abc", "abd", "b", "ba"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut buf = Vec::new();
        encode_string_table(&mut buf, &strings);
        let mut cur = Cursor::new(&buf);
        assert_eq!(decode_string_table(&mut cur).unwrap(), strings);
        assert!(cur.is_empty());
    }

    #[test]
    fn string_table_prefix_respects_utf8_boundaries() {
        // "é" (2 bytes) vs "è" (2 bytes) share their first byte only, which
        // is not a char boundary; the encoder must back off to 0.
        let strings: Vec<String> = ["è", "é"].iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        encode_string_table(&mut buf, &strings);
        let mut cur = Cursor::new(&buf);
        assert_eq!(decode_string_table(&mut cur).unwrap(), strings);
    }

    #[test]
    fn string_table_rejects_unsorted_input_on_decode() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 2);
        put_varint(&mut buf, 0);
        put_string(&mut buf, "b");
        put_varint(&mut buf, 0);
        put_string(&mut buf, "a");
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            decode_string_table(&mut cur),
            Err(BinaryError::Corrupt(_))
        ));
    }

    #[test]
    fn postings_round_trip_dense_and_sparse() {
        for ids in [
            vec![],
            vec![0],
            vec![0, 1, 2, 3],
            vec![5, 100, 10_000, 10_001],
        ] {
            let list = PostingList::from_sorted(ids.clone(), 20_000);
            let mut buf = Vec::new();
            encode_postings(&mut buf, &list);
            let mut cur = Cursor::new(&buf);
            let back = decode_postings(&mut cur).unwrap();
            assert_eq!(back.to_vec(), ids);
            assert_eq!(back.universe(), 20_000);
        }
    }

    #[test]
    fn postings_blocked_round_trip_is_wholesale_and_canonical() {
        let ids: Vec<u32> = (0..1000u32).map(|i| i * 37).collect();
        let list = PostingList::from_sorted(ids.clone(), 1_000_000);
        assert!(list.is_blocked_repr());
        let mut buf = Vec::new();
        encode_postings(&mut buf, &list);
        // The wire bytes must match encoding the plain run id by id — the
        // stream is independent of block partitioning.
        let mut plain = Vec::new();
        put_varint(&mut plain, 1_000_000);
        put_varint(&mut plain, ids.len() as u64);
        let mut prev: Option<u32> = None;
        for &id in &ids {
            match prev {
                None => put_varint(&mut plain, u64::from(id)),
                Some(p) => put_varint(&mut plain, u64::from(id - p)),
            }
            prev = Some(id);
        }
        assert_eq!(buf, plain);
        // Decode builds the blocked form directly and re-encodes stably.
        let mut cur = Cursor::new(&buf);
        let back = decode_postings(&mut cur).unwrap();
        assert!(cur.is_empty());
        assert!(back.is_blocked_repr());
        assert_eq!(back.to_vec(), ids);
        assert_eq!(back, list);
        let mut buf2 = Vec::new();
        encode_postings(&mut buf2, &back);
        assert_eq!(buf, buf2, "save ∘ load ∘ save is byte-stable");
    }

    #[test]
    fn blocked_decode_rejects_corrupt_gap_runs() {
        // A sparse 300-id list routes through the blocked decoder; corrupt
        // it three ways and check each is caught, not panicked on.
        let ids: Vec<u32> = (0..300u32).map(|i| i * 5 + 1).collect();
        let list = PostingList::from_sorted(ids, 100_000);
        assert!(list.is_blocked_repr());
        let mut buf = Vec::new();
        encode_postings(&mut buf, &list);

        // Zero gap in the middle of the second block (every gap is the
        // single byte 5; flip one well past the first block's 128 entries
        // plus the two header varints).
        let mut zero_gap = buf.clone();
        let target = zero_gap.len() - 10;
        assert_eq!(zero_gap[target], 5);
        zero_gap[target] = 0;
        let mut cur = Cursor::new(&zero_gap);
        assert_eq!(
            decode_postings(&mut cur),
            Err(BinaryError::Corrupt("zero gap in posting list".into()))
        );

        // Truncation mid-run: the cursor's bounded reads surface it.
        let mut cur = Cursor::new(&buf[..buf.len() - 5]);
        assert_eq!(decode_postings(&mut cur), Err(BinaryError::Truncated));

        // An id past the universe: shrink the declared universe below the
        // list's max id (299 * 5 + 1 = 1496) and keep the gap stream.
        let mut small_universe = Vec::new();
        put_varint(&mut small_universe, 1000); // universe below max id
        small_universe.extend_from_slice(&buf[3..]); // 100_000 is a 3-byte varint
        let mut cur = Cursor::new(&small_universe);
        assert_eq!(
            decode_postings(&mut cur),
            Err(BinaryError::Corrupt(
                "posting id outside its universe".into()
            ))
        );
    }

    #[test]
    fn postings_reject_out_of_universe_ids() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 4); // universe
        put_varint(&mut buf, 1); // len
        put_varint(&mut buf, 9); // id 9 >= universe 4
        let mut cur = Cursor::new(&buf);
        assert!(matches!(
            decode_postings(&mut cur),
            Err(BinaryError::Corrupt(_))
        ));
    }

    #[test]
    fn section_container_round_trips() {
        let mut w = SectionWriter::new();
        w.add(1, b"alpha".to_vec());
        w.add(7, b"".to_vec());
        w.add(3, vec![0, 1, 2, 3, 255]);
        let bytes = w.finish();
        let r = SectionReader::open(&bytes).unwrap();
        assert_eq!(r.section_ids(), vec![1, 7, 3]);
        assert_eq!(r.section(1).unwrap(), Some(&b"alpha"[..]));
        assert_eq!(r.section(7).unwrap(), Some(&b""[..]));
        assert_eq!(r.section(3).unwrap(), Some(&[0, 1, 2, 3, 255][..]));
        assert_eq!(r.section(99).unwrap(), None);
        assert!(r.require(99).is_err());
    }

    #[test]
    fn reader_rejects_bad_magic_and_version() {
        let bytes = SectionWriter::new().finish();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            SectionReader::open(&bad_magic).err(),
            Some(BinaryError::BadMagic)
        );
        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert_eq!(
            SectionReader::open(&bad_version).err(),
            Some(BinaryError::UnsupportedVersion(99))
        );
        assert_eq!(
            SectionReader::open(&bytes[..8]).err(),
            Some(BinaryError::Truncated)
        );
    }

    #[test]
    fn reader_detects_flipped_payload_byte() {
        let mut w = SectionWriter::new();
        w.add(2, b"payload".to_vec());
        let mut bytes = w.finish();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let r = SectionReader::open(&bytes).unwrap();
        assert_eq!(r.section(2), Err(BinaryError::Checksum { section: 2 }));
    }

    #[test]
    fn reader_rejects_truncated_payload() {
        let mut w = SectionWriter::new();
        w.add(2, vec![1; 64]);
        let bytes = w.finish();
        assert_eq!(
            SectionReader::open(&bytes[..bytes.len() - 10]).err(),
            Some(BinaryError::Truncated)
        );
    }
}
