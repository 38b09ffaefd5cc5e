//! Warm-start discovery: the persisted `.pfdi` index snapshot.
//!
//! Discovery's most expensive phase is building the per-attribute inverted
//! indexes; over stable data the build is pure recomputation. This module
//! persists the indexes of one run in a sibling `.pfdi` file (its own
//! `PFDS` section container, reusing the [`crate::serial`] codecs) keyed to
//! the relation snapshot it was built from, and loads them back the way
//! `PFDS` engine snapshots load: one [`Io::read`] of the file, a
//! [`SectionReader`] over it, then the owned decoders, which read each row
//! set's gap stream id by id into a list of its own.
//!
//! ## Staleness and fallback
//!
//! A `.pfdi` is advisory, never authoritative. [`load_index`] validates,
//! in order: container integrity (magic, section table, checksums), the
//! `.pfdi` format version, the relation *content* fingerprint, the
//! snapshot generation and WAL position it was keyed to, and the
//! index-shaping configuration fingerprint. Any mismatch returns a
//! structured [`IndexFallback`] and the caller cold-builds — a stale,
//! truncated, or foreign index can cost time, never correctness. As a
//! final guard, [`crate::algorithm::discover_warm`] re-checks the loaded
//! indexes against the candidates it profiles and silently discards them
//! on mismatch.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use pfd_relation::binary::{put_varint, Cursor, SectionReader, SectionWriter};
use pfd_relation::{AttrId, Extraction, Io, Relation};

use crate::algorithm::{discover_cold, discover_warm, DiscoveryResult, DiscoveryRun};
use crate::config::DiscoveryConfig;
use crate::extract::ExtractStats;
use crate::index::AttrIndex;
use crate::serial::{decode_dict, decode_entries, encode_dict, encode_entries};

/// `.pfdi` format version; bump on any incompatible layout change.
pub const INDEX_FORMAT_VERSION: u64 = 1;

/// Section id of the staleness-key metadata.
const SECTION_META: u32 = 1;
/// Section id of the per-attribute index payloads.
const SECTION_INDEXES: u32 = 2;

/// Streaming FNV-1a, the same function as the section checksums.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn update_u64(&mut self, v: u64) {
        self.update(&v.to_le_bytes());
    }
}

/// Content fingerprint of a relation: schema names plus every column's
/// vocabulary and cell codes, hashed in the canonical (sorted live vocab,
/// rank-remapped) view. Two relations with equal fingerprints hold the
/// same values in the same rows, so they profile and index identically.
///
/// The canonical view matters: snapshot saves canonicalize interning
/// order and keep only the values some cell holds, so a CSV-parsed or
/// edited relation and its snapshot reload differ in vocab while holding
/// identical cell values. The index itself only references row ids and
/// fragment strings — both interning-independent — so the fingerprint
/// must be too, or the first run after a snapshot save (or after a
/// recovery replayed edits) would always miss.
pub fn relation_fingerprint(rel: &Relation) -> u64 {
    let mut h = Fnv::new();
    h.update(rel.schema().relation().as_bytes());
    h.update_u64(rel.num_rows() as u64);
    h.update_u64(rel.schema().arity() as u64);
    for attr in rel.schema().attr_ids() {
        let name = rel.schema().name_of(attr).unwrap_or("?");
        h.update_u64(name.len() as u64);
        h.update(name.as_bytes());
        let (vocab, cells) = rel.column_parts(attr);
        let mut live = vec![false; vocab.len()];
        for &c in cells {
            live[c as usize] = true;
        }
        let mut order: Vec<u32> = (0..vocab.len() as u32)
            .filter(|&i| live[i as usize])
            .collect();
        order.sort_unstable_by_key(|&i| vocab[i as usize].as_str());
        let mut rank = vec![0u32; vocab.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i as usize] = r as u32;
        }
        h.update_u64(order.len() as u64);
        for &i in &order {
            let v = &vocab[i as usize];
            h.update_u64(v.len() as u64);
            h.update(v.as_bytes());
        }
        for &c in cells {
            h.update_u64(u64::from(rank[c as usize]));
        }
    }
    h.0
}

/// The staleness key a `.pfdi` is saved under and validated against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexKey {
    /// [`relation_fingerprint`] of the relation the index was built from.
    pub relation_fingerprint: u64,
    /// Snapshot generation the relation state belongs to.
    pub generation: u64,
    /// Last applied WAL sequence number at save time.
    pub last_seq: u64,
    /// Row count (redundant with the fingerprint; kept for cheap checks
    /// and for validating decoded posting universes).
    pub rows: u64,
    /// [`DiscoveryConfig::index_fingerprint`] of the saving run.
    pub config_fingerprint: u64,
}

impl IndexKey {
    /// The key for `rel` under `config`, at snapshot position
    /// `(generation, last_seq)`. Standalone runs (no snapshot) pass zeros.
    pub fn compute(
        rel: &Relation,
        config: &DiscoveryConfig,
        generation: u64,
        last_seq: u64,
    ) -> IndexKey {
        IndexKey {
            relation_fingerprint: relation_fingerprint(rel),
            generation,
            last_seq,
            rows: rel.num_rows() as u64,
            config_fingerprint: config.index_fingerprint(),
        }
    }
}

/// Why a `.pfdi` load fell back to a cold build. Every variant is safe —
/// the index is simply rebuilt — but callers surface the reason so
/// operators can tell an expected rebuild (data changed) from a damaged
/// file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IndexFallback {
    /// No index file exists at the path (first run, or invalidated).
    Missing,
    /// The file exists but reading it failed.
    Io(String),
    /// Container, checksum, or codec-level corruption.
    Corrupt(String),
    /// Written by an unsupported `.pfdi` format version.
    VersionMismatch {
        /// The version found in the file.
        found: u64,
    },
    /// Built from different relation contents (or row count).
    RelationMismatch,
    /// Keyed to a different snapshot generation or WAL position.
    GenerationMismatch,
    /// Built under a different index-shaping configuration.
    ConfigMismatch,
}

impl std::fmt::Display for IndexFallback {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexFallback::Missing => write!(f, "no index file"),
            IndexFallback::Io(e) => write!(f, "index unreadable: {e}"),
            IndexFallback::Corrupt(e) => write!(f, "index corrupt: {e}"),
            IndexFallback::VersionMismatch { found } => {
                write!(f, "index format version {found} unsupported")
            }
            IndexFallback::RelationMismatch => write!(f, "index built from different data"),
            IndexFallback::GenerationMismatch => {
                write!(f, "index keyed to a different snapshot generation")
            }
            IndexFallback::ConfigMismatch => {
                write!(f, "index built under different configuration")
            }
        }
    }
}

/// A successfully loaded and key-validated index.
#[derive(Debug)]
pub struct LoadedIndex {
    /// The decoded per-attribute indexes.
    pub indexes: BTreeMap<AttrId, AttrIndex>,
    /// Wall-clock time of the read + decode.
    pub load_time: std::time::Duration,
}

fn extraction_tag(e: Extraction) -> u64 {
    match e {
        Extraction::Tokenize => 0,
        Extraction::NGrams => 1,
    }
}

/// Serialize the indexes of one discovery run under `key`.
pub fn index_to_bytes(key: &IndexKey, indexes: &BTreeMap<AttrId, AttrIndex>) -> Vec<u8> {
    let mut meta = Vec::with_capacity(64);
    put_varint(&mut meta, INDEX_FORMAT_VERSION);
    put_varint(&mut meta, key.relation_fingerprint);
    put_varint(&mut meta, key.generation);
    put_varint(&mut meta, key.last_seq);
    put_varint(&mut meta, key.rows);
    put_varint(&mut meta, key.config_fingerprint);

    let mut body = Vec::new();
    put_varint(&mut body, indexes.len() as u64);
    for (attr, idx) in indexes {
        put_varint(&mut body, attr.index() as u64);
        put_varint(&mut body, extraction_tag(idx.extraction));
        put_varint(&mut body, idx.extract_stats.cells_full_enum as u64);
        put_varint(&mut body, idx.extract_stats.cells_automaton as u64);
        put_varint(&mut body, idx.extract_stats.repeat_fragments as u64);
        encode_dict(&mut body, &idx.dict);
        encode_entries(&mut body, &idx.entries);
    }

    let mut w = SectionWriter::new();
    w.add(SECTION_META, meta);
    w.add(SECTION_INDEXES, body);
    w.finish()
}

/// Atomically persist the indexes of one run: stage to `<path>.tmp`,
/// fsync, rename into place. A crash mid-save leaves either the old index
/// (still key-validated on load) or a `.tmp` nobody reads.
pub fn save_index(
    io: &dyn Io,
    path: &Path,
    key: &IndexKey,
    indexes: &BTreeMap<AttrId, AttrIndex>,
) -> io::Result<()> {
    let bytes = index_to_bytes(key, indexes);
    let mut tmp_os = path.as_os_str().to_os_string();
    tmp_os.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp_os);
    io.write(&tmp, &bytes)?;
    io.sync(&tmp)?;
    io.rename(&tmp, path)
}

fn corrupt(e: impl std::fmt::Display) -> IndexFallback {
    IndexFallback::Corrupt(e.to_string())
}

/// Load and key-validate a `.pfdi`. Every [`Io`] backend takes the same
/// path: read the whole file, then decode owned lists from it.
pub fn load_index(io: &dyn Io, path: &Path, key: &IndexKey) -> Result<LoadedIndex, IndexFallback> {
    let start = Instant::now();
    let buf = match io.read(path) {
        Ok(buf) => buf,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Err(IndexFallback::Missing),
        Err(e) => return Err(IndexFallback::Io(e.to_string())),
    };
    let reader = SectionReader::open(&buf).map_err(corrupt)?;

    let meta = reader.require(SECTION_META).map_err(corrupt)?;
    let mut cur = Cursor::new(meta);
    let mut next = |what: &str| -> Result<u64, IndexFallback> {
        cur.get_varint()
            .map_err(|e| corrupt(format!("{what}: {e}")))
    };
    let version = next("format version")?;
    if version != INDEX_FORMAT_VERSION {
        return Err(IndexFallback::VersionMismatch { found: version });
    }
    let relation_fp = next("relation fingerprint")?;
    let generation = next("generation")?;
    let last_seq = next("last_seq")?;
    let rows = next("rows")?;
    let config_fp = next("config fingerprint")?;
    if relation_fp != key.relation_fingerprint || rows != key.rows {
        return Err(IndexFallback::RelationMismatch);
    }
    if generation != key.generation || last_seq != key.last_seq {
        return Err(IndexFallback::GenerationMismatch);
    }
    if config_fp != key.config_fingerprint {
        return Err(IndexFallback::ConfigMismatch);
    }

    let body = reader.require(SECTION_INDEXES).map_err(corrupt)?;
    let mut cur = Cursor::new(body);
    let count = cur.get_len().map_err(corrupt)?;
    let mut indexes = BTreeMap::new();
    for _ in 0..count {
        let attr = AttrId(cur.get_index().map_err(corrupt)?);
        let extraction = match cur.get_varint().map_err(corrupt)? {
            0 => Extraction::Tokenize,
            1 => Extraction::NGrams,
            t => return Err(corrupt(format!("unknown extraction tag {t}"))),
        };
        let stats = ExtractStats {
            cells_full_enum: cur.get_len().map_err(corrupt)?,
            cells_automaton: cur.get_len().map_err(corrupt)?,
            repeat_fragments: cur.get_len().map_err(corrupt)?,
        };
        let dict = decode_dict(&mut cur).map_err(corrupt)?;
        let entries = decode_entries(&mut cur, &dict).map_err(corrupt)?;
        for e in &entries {
            if e.rows.universe() as u64 != rows {
                return Err(corrupt("entry universe disagrees with row count"));
            }
        }
        let index = AttrIndex::from_parts(attr, extraction, dict, entries, rows as usize, stats);
        if indexes.insert(attr, index).is_some() {
            return Err(corrupt(format!("duplicate attribute {}", attr.index())));
        }
    }
    if !cur.is_empty() {
        return Err(corrupt("trailing bytes after index payload"));
    }
    Ok(LoadedIndex {
        indexes,
        load_time: start.elapsed(),
    })
}

/// Outcome of a [`discover_persistent`] run.
#[derive(Debug)]
pub struct WarmDiscovery {
    /// The discovery output — byte-identical whichever path ran.
    pub result: DiscoveryResult,
    /// Why the warm load was not used (`None` on a warm hit).
    pub fallback: Option<IndexFallback>,
    /// Whether this run persisted a fresh index.
    pub saved: bool,
    /// A save failure, if persisting was attempted and failed (discovery
    /// output is unaffected; the next run cold-builds again).
    pub save_error: Option<String>,
}

/// Discover with a persisted index at `path`: try the warm load, fall back
/// to a cold build on any mismatch, and (re-)save the index when the warm
/// path did not run.
///
/// `generation`/`last_seq` key the index to a relation snapshot position;
/// standalone runs pass zeros.
pub fn discover_persistent(
    io: &dyn Io,
    path: &Path,
    rel: &Relation,
    config: &DiscoveryConfig,
    generation: u64,
    last_seq: u64,
) -> WarmDiscovery {
    let key = IndexKey::compute(rel, config, generation, last_seq);
    let (run, fallback) = match load_index(io, path, &key) {
        Ok(loaded) => {
            let run = discover_warm(rel, config, loaded.indexes, loaded.load_time);
            // `discover_warm` discards mismatched indexes; report that as
            // a fallback even though the file itself validated.
            let fallback = (!run.result.stats.index_loaded)
                .then(|| IndexFallback::Corrupt("candidate set mismatch".to_string()));
            (run, fallback)
        }
        Err(fb) => (discover_cold(rel, config), Some(fb)),
    };
    let DiscoveryRun { result, indexes } = run;
    let (saved, save_error) = if result.stats.index_loaded {
        (false, None)
    } else {
        match save_index(io, path, &key, &indexes) {
            Ok(()) => (true, None),
            Err(e) => (false, Some(e.to_string())),
        }
    };
    WarmDiscovery {
        result,
        fallback,
        saved,
        save_error,
    }
}
