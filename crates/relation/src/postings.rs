//! Compact row-set representation shared by the discovery index and the
//! incremental cleaning engine.
//!
//! Index entries and candidate row sets were plain `Vec<RowId>`; at scale
//! the discovery hot path is dominated by merging those lists and the
//! resident index is dominated by their storage. A [`PostingList`] now has
//! three tiers:
//!
//! - **Sorted** — plain strictly-increasing `u32` runs below
//!   `BLOCK_THRESHOLD` entries, where block bookkeeping would cost more
//!   than it saves.
//! - **Blocked** — delta-gap LEB128 varint blocks of `BLOCK_LEN` entries
//!   at build time (mutation may split them, bounded by `BLOCK_MAX`).
//!   Each block carries a skip pointer (`first`/`last` id) so galloping
//!   intersection and `is_subset` jump whole blocks without decoding them;
//!   only overlapping blocks are expanded, into a stack scratch buffer.
//!   Typical sparse sets compress from 4 bytes/row to ~1–2 bytes/row.
//! - **Dense** — a fixed-stride bitset once density crosses 1/16 of the
//!   row universe, so the frequent entries (column formats, shared
//!   prefixes) intersect word-at-a-time.
//!
//! Sorted × sorted intersections gallop when the lengths are lopsided —
//! the common shape when probing a rare pattern against a frequent one —
//! and use the [`crate::kernels`] merge (SSE2 on `x86_64`, scalar twin
//! elsewhere) when they are balanced.
//!
//! Equality and hashing are canonical over the *element sequence*, not the
//! representation, so row sets group identically regardless of which tier
//! they landed on.
//!
//! The list also supports point mutation ([`insert`](PostingList::insert),
//! [`remove`](PostingList::remove),
//! [`renumber_after_delete`](PostingList::renumber_after_delete)) so the
//! incremental engine's per-group row sets can track relation edits without
//! rebuilding. Mutating a blocked list re-encodes exactly one block. This
//! module lives in `pfd_relation` (rather than discovery, where it
//! originated) because both layers depend on it — and because the snapshot
//! codec (`relation::binary`) adopts blocked payloads wholesale: the wire
//! gap stream is independent of block partitioning, so encode is a
//! per-block memcpy and decode builds blocks directly.

use crate::binary::put_varint;
use crate::relation::RowId;
use std::hash::{Hash, Hasher};

/// Density numerator: a set is stored as a bitset when
/// `count * 16 >= DENSE_NUMERATOR * universe` (i.e. ≥ 1/16 of rows).
const DENSE_NUMERATOR: u64 = 1;

/// Sorted × sorted intersections gallop when one side is at least this many
/// times longer than the other.
const GALLOP_RATIO: usize = 8;

/// Entries per block when a blocked list is built from a sorted run.
pub(crate) const BLOCK_LEN: usize = 128;

/// Upper bound on a block's entry count: inserts grow a block until it
/// would exceed this, then it splits in half. Twice `BLOCK_LEN` so a
/// freshly built list absorbs inserts without immediate splits.
const BLOCK_MAX: usize = 256;

/// Sorted runs at or above this length switch to blocked storage (unless
/// density promotes them to the bitset first).
const BLOCK_THRESHOLD: usize = 256;

/// Skip pointer + directory entry for one compressed block.
///
/// The block's payload is `count - 1` LEB128 gap varints starting at
/// `offset` in the list's byte buffer. Payloads are contiguous, so a block
/// ends where the next one begins (the last at the end of the buffer). The
/// first id lives here, not in the payload, so a block can be skipped or
/// range-checked without decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockMeta {
    /// First (smallest) id in the block.
    pub(crate) first: u32,
    /// Last (largest) id in the block.
    pub(crate) last: u32,
    /// Byte offset of the block's gap payload.
    pub(crate) offset: u32,
    /// Number of ids in the block (≥ 1; empty blocks are removed).
    pub(crate) count: u32,
}

/// End offset (exclusive) of block `k`'s payload: the next block's offset,
/// or the end of the buffer for the last block.
fn block_end(bytes: &[u8], metas: &[BlockMeta], k: usize) -> usize {
    metas.get(k + 1).map_or(bytes.len(), |m| m.offset as usize)
}

#[derive(Debug, Clone)]
enum Repr {
    /// Strictly increasing row ids.
    Sorted(Vec<u32>),
    /// Delta-gap varint blocks with per-block skip pointers.
    Blocked {
        /// Concatenated gap payloads of all blocks.
        bytes: Vec<u8>,
        /// Block directory, ordered by `first` (blocks are disjoint).
        metas: Vec<BlockMeta>,
        /// Total id count across blocks.
        count: u32,
    },
    /// Fixed-stride bitset over the row universe; `count` caches the popcount.
    Dense { words: Vec<u64>, count: u32 },
}

/// A set of row ids over a fixed universe (the relation's row count).
///
/// ```
/// use pfd_relation::PostingList;
///
/// let a = PostingList::from_sorted(vec![0, 2, 4, 6], 10);
/// let b = PostingList::from_sorted(vec![2, 3, 4], 10);
/// assert_eq!(a.intersect(&b).to_vec(), vec![2, 4]);
/// assert!(PostingList::from_sorted(vec![2, 4], 10).is_subset(&a));
/// assert!(a.contains(4) && !a.contains(5));
/// ```
#[derive(Debug, Clone)]
pub struct PostingList {
    universe: u32,
    repr: Repr,
}

impl PostingList {
    /// Build from a strictly increasing, deduplicated id vector.
    pub fn from_sorted(ids: Vec<u32>, universe: usize) -> PostingList {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+deduped"
        );
        debug_assert!(ids.last().is_none_or(|&m| (m as usize) < universe.max(1)));
        let universe = universe as u32;
        if is_dense(ids.len(), universe) {
            let mut words = vec![0u64; universe.div_ceil(64) as usize];
            for &id in &ids {
                words[(id / 64) as usize] |= 1u64 << (id % 64);
            }
            PostingList {
                universe,
                repr: Repr::Dense {
                    words,
                    count: ids.len() as u32,
                },
            }
        } else if ids.len() >= BLOCK_THRESHOLD {
            build_blocked(&ids, universe)
        } else {
            PostingList {
                universe,
                repr: Repr::Sorted(ids),
            }
        }
    }

    /// Build from ids in any order, possibly with duplicates.
    pub fn from_unsorted(mut ids: Vec<u32>, universe: usize) -> PostingList {
        ids.sort_unstable();
        ids.dedup();
        PostingList::from_sorted(ids, universe)
    }

    /// The empty set over `universe` rows.
    pub fn empty(universe: usize) -> PostingList {
        PostingList::from_sorted(Vec::new(), universe)
    }

    /// Number of rows in the set.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Sorted(v) => v.len(),
            Repr::Blocked { count, .. } => *count as usize,
            Repr::Dense { count, .. } => *count as usize,
        }
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row universe this set was built over.
    pub fn universe(&self) -> usize {
        self.universe as usize
    }

    /// Is the set stored as a bitset? (Exposed for tests and stats.)
    pub fn is_dense_repr(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Is the set stored as compressed blocks? (Exposed for tests and stats.)
    pub fn is_blocked_repr(&self) -> bool {
        matches!(self.repr, Repr::Blocked { .. })
    }

    /// Heap bytes currently allocated by the id storage (capacity-based, so
    /// over-allocation counts). The memory-budget guard test and the
    /// `postings_runtime` bench report this.
    pub fn heap_bytes(&self) -> usize {
        match &self.repr {
            Repr::Sorted(v) => v.capacity() * std::mem::size_of::<u32>(),
            Repr::Blocked { bytes, metas, .. } => {
                bytes.capacity() + metas.capacity() * std::mem::size_of::<BlockMeta>()
            }
            Repr::Dense { words, .. } => words.capacity() * std::mem::size_of::<u64>(),
        }
    }

    /// Membership test.
    pub fn contains(&self, id: RowId) -> bool {
        let id = id as u32;
        match &self.repr {
            Repr::Sorted(v) => v.binary_search(&id).is_ok(),
            Repr::Blocked { bytes, metas, .. } => {
                let p = metas.partition_point(|m| m.first <= id);
                if p == 0 {
                    return false;
                }
                let m = &metas[p - 1];
                if id > m.last {
                    return false;
                }
                if id == m.first || id == m.last {
                    return true;
                }
                let mut pos = m.offset as usize;
                let mut cur = m.first;
                for _ in 1..m.count {
                    cur += read_gap(bytes, &mut pos);
                    if cur >= id {
                        return cur == id;
                    }
                }
                false
            }
            Repr::Dense { words, .. } => {
                (id < self.universe) && words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
            }
        }
    }

    /// Iterate the row ids in increasing order.
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter(match &self.repr {
            Repr::Sorted(v) => IterRepr::Sorted(v.iter()),
            Repr::Blocked { bytes, metas, .. } => IterRepr::Blocked {
                bytes,
                metas,
                block: 0,
                pos: 0,
                left: 0,
                prev: 0,
            },
            Repr::Dense { words, .. } => IterRepr::Dense {
                words,
                word_idx: 0,
                current: words.first().copied().unwrap_or(0),
            },
        })
    }

    /// The ids as a sorted vector.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.iter());
        out
    }

    /// Set intersection. Gallops on lopsided sorted inputs, skips whole
    /// blocks on compressed ones, ANDs words on dense ones.
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        let universe = self.universe.max(other.universe) as usize;
        if let (Repr::Dense { words: wa, .. }, Repr::Dense { words: wb, .. }) =
            (&self.repr, &other.repr)
        {
            // Zip truncates to the shorter word array (ids past the
            // smaller universe cannot be in both sets), then pad back to
            // the declared universe so the list stays self-consistent.
            let mut words: Vec<u64> = wa.iter().zip(wb).map(|(a, b)| a & b).collect();
            words.resize((universe as u32).div_ceil(64) as usize, 0);
            let count: u32 = words.iter().map(|w| w.count_ones()).sum();
            if is_dense(count as usize, universe as u32) {
                return PostingList {
                    universe: universe as u32,
                    repr: Repr::Dense { words, count },
                };
            }
            let ids = PostingList {
                universe: universe as u32,
                repr: Repr::Dense { words, count },
            }
            .to_vec();
            return PostingList::from_sorted(ids, universe);
        }
        let mut out = Vec::new();
        self.intersect_into(other, &mut out);
        PostingList::from_sorted(out, universe)
    }

    /// Set intersection into a caller-owned buffer: `out` is cleared and
    /// filled with the ascending intersection ids. Lets hot loops (the
    /// discovery lattice walk) probe many intersections through one pooled
    /// buffer and only materialize a [`PostingList`] for the survivors —
    /// rejected probes allocate nothing.
    pub fn intersect_into(&self, other: &PostingList, out: &mut Vec<u32>) {
        out.clear();
        match (&self.repr, &other.repr) {
            (Repr::Sorted(a), Repr::Sorted(b)) => intersect_sorted_into(a, b, out),
            (Repr::Sorted(a), Repr::Blocked { bytes, metas, .. }) => {
                intersect_sorted_blocked(a, bytes, metas, out);
            }
            (Repr::Blocked { bytes, metas, .. }, Repr::Sorted(b)) => {
                intersect_sorted_blocked(b, bytes, metas, out);
            }
            (
                Repr::Blocked {
                    bytes: ab,
                    metas: am,
                    ..
                },
                Repr::Blocked {
                    bytes: bb,
                    metas: bm,
                    ..
                },
            ) => intersect_blocked_blocked(ab, am, bb, bm, out),
            (Repr::Sorted(a), Repr::Dense { .. }) => {
                out.extend(a.iter().copied().filter(|&id| other.contains(id as RowId)));
            }
            (Repr::Dense { .. }, Repr::Sorted(b)) => {
                out.extend(b.iter().copied().filter(|&id| self.contains(id as RowId)));
            }
            (Repr::Blocked { .. }, Repr::Dense { .. }) => {
                out.extend(self.iter().filter(|&id| other.contains(id as RowId)));
            }
            (Repr::Dense { .. }, Repr::Blocked { .. }) => {
                out.extend(other.iter().filter(|&id| self.contains(id as RowId)));
            }
            (Repr::Dense { words: wa, .. }, Repr::Dense { words: wb, .. }) => {
                for (i, (a, b)) in wa.iter().zip(wb).enumerate() {
                    let mut w = a & b;
                    while w != 0 {
                        out.push(i as u32 * 64 + w.trailing_zeros());
                        w &= w - 1;
                    }
                }
            }
        }
    }

    /// Smallest row id, `None` when empty.
    pub fn min(&self) -> Option<u32> {
        match &self.repr {
            Repr::Sorted(v) => v.first().copied(),
            Repr::Blocked { metas, .. } => metas.first().map(|m| m.first),
            Repr::Dense { words, .. } => words
                .iter()
                .enumerate()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| i as u32 * 64 + w.trailing_zeros()),
        }
    }

    /// Largest row id, `None` when empty. O(1) on every representation
    /// (the canonical hash depends on this staying cheap).
    pub fn max(&self) -> Option<u32> {
        match &self.repr {
            Repr::Sorted(v) => v.last().copied(),
            Repr::Blocked { metas, .. } => metas.last().map(|m| m.last),
            Repr::Dense { words, .. } => words
                .iter()
                .enumerate()
                .rev()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| i as u32 * 64 + 63 - w.leading_zeros()),
        }
    }

    /// Insert one row id, growing the universe when `id` lies beyond it.
    /// Returns `true` when the id was newly added. Sorted runs promote to
    /// blocked storage past `BLOCK_THRESHOLD` and either form promotes to
    /// a bitset when the insert crosses the density threshold; removals
    /// never demote (hysteresis keeps edit sequences cheap). A blocked
    /// insert re-encodes one block, splitting it at `BLOCK_MAX` entries.
    pub fn insert(&mut self, id: RowId) -> bool {
        let id = id as u32;
        if id >= self.universe {
            self.universe = id + 1;
            if let Repr::Dense { words, .. } = &mut self.repr {
                words.resize(self.universe.div_ceil(64) as usize, 0);
            }
        }
        let added = match &mut self.repr {
            Repr::Sorted(v) => match v.binary_search(&id) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, id);
                    true
                }
            },
            Repr::Blocked {
                bytes,
                metas,
                count,
            } => {
                if insert_blocked(bytes, metas, id) {
                    *count += 1;
                    true
                } else {
                    false
                }
            }
            Repr::Dense { words, count } => {
                let w = &mut words[(id / 64) as usize];
                let bit = 1u64 << (id % 64);
                return if *w & bit == 0 {
                    *w |= bit;
                    *count += 1;
                    true
                } else {
                    false
                };
            }
        };
        if added {
            let promote = match &self.repr {
                Repr::Sorted(v) => is_dense(v.len(), self.universe) || v.len() >= BLOCK_THRESHOLD,
                Repr::Blocked { count, .. } => is_dense(*count as usize, self.universe),
                Repr::Dense { .. } => false,
            };
            if promote {
                *self = PostingList::from_sorted(self.to_vec(), self.universe as usize);
            }
        }
        added
    }

    /// Remove one row id; returns `true` when it was present.
    pub fn remove(&mut self, id: RowId) -> bool {
        let id = id as u32;
        match &mut self.repr {
            Repr::Sorted(v) => match v.binary_search(&id) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Repr::Blocked {
                bytes,
                metas,
                count,
            } => {
                if remove_blocked(bytes, metas, id) {
                    *count -= 1;
                    true
                } else {
                    false
                }
            }
            Repr::Dense { words, count } => {
                if id >= self.universe {
                    return false;
                }
                let w = &mut words[(id / 64) as usize];
                let bit = 1u64 << (id % 64);
                if *w & bit != 0 {
                    *w &= !bit;
                    *count -= 1;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Renumber after row `removed` left the universe: the id itself is
    /// dropped (callers normally [`remove`](PostingList::remove) it first)
    /// and every id above it shifts down by one, mirroring
    /// `Relation::delete_row`'s renumbering.
    pub fn renumber_after_delete(&mut self, removed: RowId) {
        let removed = removed as u32;
        let ids: Vec<u32> = self
            .iter()
            .filter(|&id| id != removed)
            .map(|id| if id > removed { id - 1 } else { id })
            .collect();
        *self = PostingList::from_sorted(ids, self.universe.saturating_sub(1).max(1) as usize);
    }

    /// Is `self ⊆ other`?
    pub fn is_subset(&self, other: &PostingList) -> bool {
        if self.len() > other.len() {
            return false;
        }
        // Against a blocked superset there are two regimes: a small probe
        // set wants the per-id skip-pointer search, a large one (anything
        // past the gallop ratio) wants one linear merge walk — the probes
        // cost O(|self| log) while the merge streams both sides once.
        let prefer_merge = other.len() < self.len().saturating_mul(GALLOP_RATIO);
        match (&self.repr, &other.repr) {
            (Repr::Sorted(a), Repr::Sorted(b)) => is_subset_sorted(a, b),
            (Repr::Sorted(a), Repr::Blocked { bytes, metas, .. }) => {
                if prefer_merge {
                    is_subset_iter_merge(a.iter().copied(), other.iter())
                } else {
                    is_subset_sorted_blocked(a, bytes, metas)
                }
            }
            (Repr::Blocked { .. }, Repr::Sorted(b)) => is_subset_iter_sorted(self.iter(), b),
            (
                Repr::Blocked {
                    bytes: ab,
                    metas: am,
                    ..
                },
                Repr::Blocked {
                    bytes: bb,
                    metas: bm,
                    ..
                },
            ) => {
                if prefer_merge {
                    return is_subset_iter_merge(self.iter(), other.iter());
                }
                let mut buf = BlockBuf::new();
                for k in 0..am.len() {
                    decode_block(ab, am, k, &mut buf);
                    if !is_subset_sorted_blocked(buf.ids(), bb, bm) {
                        return false;
                    }
                }
                true
            }
            _ => self.iter().all(|id| other.contains(id as RowId)),
        }
    }

    /// Append this list's canonical wire gap stream (`first, gap, gap, …`)
    /// to `out`. The stream is independent of block partitioning, so the
    /// blocked form emits one inter-block gap varint per block and then
    /// copies the block's payload bytes wholesale — no re-encoding.
    pub(crate) fn write_wire_gaps(&self, out: &mut Vec<u8>) {
        if let Repr::Blocked { bytes, metas, .. } = &self.repr {
            let mut prev_last: Option<u32> = None;
            for (k, m) in metas.iter().enumerate() {
                match prev_last {
                    None => put_varint(out, m.first as u64),
                    Some(p) => put_varint(out, (m.first - p) as u64),
                }
                out.extend_from_slice(&bytes[m.offset as usize..block_end(bytes, metas, k)]);
                prev_last = Some(m.last);
            }
        } else {
            let mut prev: Option<u32> = None;
            for id in self.iter() {
                match prev {
                    None => put_varint(out, id as u64),
                    Some(p) => put_varint(out, (id - p) as u64),
                }
                prev = Some(id);
            }
        }
    }

    /// Would a decoded wire list of `len` ids over `universe` land in the
    /// blocked representation? Mirrors [`from_sorted`](Self::from_sorted)'s
    /// tier choice so the codec can build blocks directly off the wire.
    pub(crate) fn wire_prefers_blocked(len: u64, universe: u64) -> bool {
        len >= BLOCK_THRESHOLD as u64 && !(universe >= 64 && len * 16 >= DENSE_NUMERATOR * universe)
    }

    /// Assemble a blocked list from codec-validated parts (the snapshot
    /// decoder copies wire gap payloads wholesale into `bytes`).
    pub(crate) fn from_blocked_raw(
        universe: u32,
        count: u32,
        mut bytes: Vec<u8>,
        mut metas: Vec<BlockMeta>,
    ) -> PostingList {
        debug_assert_eq!(
            count as usize,
            metas.iter().map(|m| m.count as usize).sum::<usize>()
        );
        bytes.shrink_to_fit();
        metas.shrink_to_fit();
        PostingList {
            universe,
            repr: Repr::Blocked {
                bytes,
                metas,
                count,
            },
        }
    }
}

/// Representation decision rule for the bitset tier.
fn is_dense(count: usize, universe: u32) -> bool {
    universe >= 64 && (count as u64) * 16 >= DENSE_NUMERATOR * universe as u64
}

/// Read one LEB128 varint gap from in-memory (trusted) block bytes.
#[inline]
fn read_gap(bytes: &[u8], pos: &mut usize) -> u32 {
    let b = bytes[*pos];
    *pos += 1;
    if b & 0x80 == 0 {
        return b as u32;
    }
    let mut acc = (b & 0x7f) as u32;
    let mut shift = 7u32;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        acc |= ((b & 0x7f) as u32) << shift;
        if b & 0x80 == 0 {
            return acc;
        }
        shift += 7;
    }
}

/// Chunk a sorted run into `BLOCK_LEN`-entry gap blocks.
fn build_blocked(ids: &[u32], universe: u32) -> PostingList {
    let mut bytes = Vec::with_capacity(ids.len());
    let mut metas = Vec::with_capacity(ids.len().div_ceil(BLOCK_LEN));
    for chunk in ids.chunks(BLOCK_LEN) {
        let offset = bytes.len();
        for w in chunk.windows(2) {
            put_varint(&mut bytes, (w[1] - w[0]) as u64);
        }
        metas.push(BlockMeta {
            first: chunk[0],
            last: *chunk.last().expect("chunks are non-empty"),
            offset: offset as u32,
            count: chunk.len() as u32,
        });
    }
    bytes.shrink_to_fit();
    metas.shrink_to_fit();
    PostingList {
        universe,
        repr: Repr::Blocked {
            bytes,
            metas,
            count: ids.len() as u32,
        },
    }
}

/// Stack scratch for decoding one block — read paths expand blocks here so
/// intersections and subset checks never touch the heap per block.
struct BlockBuf {
    ids: [u32; BLOCK_MAX],
    len: usize,
}

impl BlockBuf {
    fn new() -> BlockBuf {
        BlockBuf {
            ids: [0; BLOCK_MAX],
            len: 0,
        }
    }

    fn ids(&self) -> &[u32] {
        &self.ids[..self.len]
    }
}

/// Decode block `k` into the scratch buffer.
fn decode_block(bytes: &[u8], metas: &[BlockMeta], k: usize, buf: &mut BlockBuf) {
    let m = &metas[k];
    debug_assert!(m.count as usize <= BLOCK_MAX);
    let mut pos = m.offset as usize;
    let mut cur = m.first;
    buf.ids[0] = cur;
    for slot in buf.ids[1..m.count as usize].iter_mut() {
        cur += read_gap(bytes, &mut pos);
        *slot = cur;
    }
    buf.len = m.count as usize;
}

/// Decode block `k` into a fresh vector (mutation path).
fn decode_block_vec(bytes: &[u8], metas: &[BlockMeta], k: usize) -> Vec<u32> {
    let m = &metas[k];
    let mut ids = Vec::with_capacity(m.count as usize + 1);
    let mut pos = m.offset as usize;
    let mut cur = m.first;
    ids.push(cur);
    for _ in 1..m.count {
        cur += read_gap(bytes, &mut pos);
        ids.push(cur);
    }
    ids
}

/// Re-encode block `k` from `ids`: removed when empty, split in half past
/// `BLOCK_MAX`, otherwise rewritten in place. Subsequent blocks' offsets
/// shift by the payload size delta; their payload bytes are untouched.
fn replace_block(bytes: &mut Vec<u8>, metas: &mut Vec<BlockMeta>, k: usize, ids: &[u32]) {
    let start = metas[k].offset as usize;
    let end = block_end(bytes, metas, k);
    let chunks: [&[u32]; 2] = if ids.len() > BLOCK_MAX {
        ids.split_at(ids.len() / 2).into()
    } else {
        [ids, &[]]
    };
    let mut payload: Vec<u8> = Vec::with_capacity(ids.len() * 2);
    let mut new_metas: Vec<BlockMeta> = Vec::with_capacity(2);
    for chunk in chunks {
        if chunk.is_empty() {
            continue;
        }
        let chunk_offset = payload.len();
        for w in chunk.windows(2) {
            put_varint(&mut payload, (w[1] - w[0]) as u64);
        }
        new_metas.push(BlockMeta {
            first: chunk[0],
            last: *chunk.last().expect("non-empty chunk"),
            offset: (start + chunk_offset) as u32,
            count: chunk.len() as u32,
        });
    }
    let n_new = new_metas.len();
    let delta = payload.len() as isize - (end - start) as isize;
    bytes.splice(start..end, payload);
    metas.splice(k..k + 1, new_metas);
    for m in metas.iter_mut().skip(k + n_new) {
        m.offset = (m.offset as isize + delta) as u32;
    }
}

/// Insert `id` into a blocked list; `false` when already present.
fn insert_blocked(bytes: &mut Vec<u8>, metas: &mut Vec<BlockMeta>, id: u32) -> bool {
    if metas.is_empty() {
        debug_assert!(
            bytes.is_empty(),
            "removing the last block drops its payload"
        );
        metas.push(BlockMeta {
            first: id,
            last: id,
            offset: 0,
            count: 1,
        });
        return true;
    }
    // Last block starting at or before `id`; ids below every block land in
    // block 0 (binary_search then prepends).
    let k = metas.partition_point(|m| m.first <= id).saturating_sub(1);
    let mut ids = decode_block_vec(bytes, metas, k);
    match ids.binary_search(&id) {
        Ok(_) => false,
        Err(pos) => {
            ids.insert(pos, id);
            replace_block(bytes, metas, k, &ids);
            true
        }
    }
}

/// Remove `id` from a blocked list; `false` when absent.
fn remove_blocked(bytes: &mut Vec<u8>, metas: &mut Vec<BlockMeta>, id: u32) -> bool {
    let p = metas.partition_point(|m| m.first <= id);
    if p == 0 || id > metas[p - 1].last {
        return false;
    }
    let k = p - 1;
    let mut ids = decode_block_vec(bytes, metas, k);
    match ids.binary_search(&id) {
        Ok(pos) => {
            ids.remove(pos);
            replace_block(bytes, metas, k, &ids);
            true
        }
        Err(_) => false,
    }
}

/// Sorted ∩ blocked: skip pointers jump past non-overlapping blocks, then
/// each overlapping block decodes once into stack scratch and intersects
/// against its window of the sorted run.
fn intersect_sorted_blocked(sorted: &[u32], bytes: &[u8], metas: &[BlockMeta], out: &mut Vec<u32>) {
    let mut buf = BlockBuf::new();
    let mut s = sorted;
    let mut k = 0usize;
    while !s.is_empty() && k < metas.len() {
        // First block that can contain s[0].
        k += metas[k..].partition_point(|m| m.last < s[0]);
        if k >= metas.len() {
            return;
        }
        let m = &metas[k];
        let lo = s.partition_point(|&x| x < m.first);
        let hi = s.partition_point(|&x| x <= m.last);
        if lo < hi {
            decode_block(bytes, metas, k, &mut buf);
            intersect_sorted_into(&s[lo..hi], buf.ids(), out);
        }
        s = &s[hi..];
        k += 1;
    }
}

/// Blocked ∩ blocked: a two-cursor walk over the block directories.
/// Non-overlapping blocks advance by skip pointer alone; overlapping pairs
/// decode (cached per cursor) and intersect their overlapping windows.
/// Each common id lives in exactly one block per side, so exactly one pair
/// emits it, and pairs advance in ascending range order.
fn intersect_blocked_blocked(
    abytes: &[u8],
    ametas: &[BlockMeta],
    bbytes: &[u8],
    bmetas: &[BlockMeta],
    out: &mut Vec<u32>,
) {
    let mut abuf = BlockBuf::new();
    let mut bbuf = BlockBuf::new();
    let (mut adec, mut bdec) = (usize::MAX, usize::MAX);
    let (mut i, mut j) = (0usize, 0usize);
    while i < ametas.len() && j < bmetas.len() {
        let (ma, mb) = (&ametas[i], &bmetas[j]);
        if ma.last < mb.first {
            i += 1;
            continue;
        }
        if mb.last < ma.first {
            j += 1;
            continue;
        }
        if adec != i {
            decode_block(abytes, ametas, i, &mut abuf);
            adec = i;
        }
        if bdec != j {
            decode_block(bbytes, bmetas, j, &mut bbuf);
            bdec = j;
        }
        let a = abuf.ids();
        let b = bbuf.ids();
        let a_lo = a.partition_point(|&x| x < mb.first);
        let a_hi = a.partition_point(|&x| x <= mb.last);
        let b_lo = b.partition_point(|&x| x < ma.first);
        let b_hi = b.partition_point(|&x| x <= ma.last);
        intersect_sorted_into(&a[a_lo..a_hi], &b[b_lo..b_hi], out);
        if ma.last <= mb.last {
            i += 1;
        }
        if mb.last <= ma.last {
            j += 1;
        }
    }
}

/// Sorted intersection: linear merge for comparable lengths, galloping when
/// one side dominates.
#[cfg(test)]
fn intersect_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    intersect_sorted_into(a, b, &mut out);
    out
}

/// Sorted intersection into a caller-owned buffer (not cleared): gallop on
/// lopsided lengths, otherwise the [`crate::kernels`] merge (SIMD where it
/// wins, scalar twin elsewhere).
fn intersect_sorted_into(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() >= small.len().saturating_mul(GALLOP_RATIO) {
        // Gallop: advance through `large` with exponential probes from the
        // last hit, then binary-search the bracketed window.
        let mut base = 0usize;
        for &x in small {
            match gallop_search(&large[base..], x) {
                Ok(off) => {
                    out.push(x);
                    base += off + 1;
                }
                Err(off) => base += off,
            }
            if base >= large.len() {
                break;
            }
        }
    } else {
        crate::kernels::intersect_merge(small, large, out);
    }
}

/// Find `x` in sorted `hay` by exponential probing then binary search.
/// `Ok(i)`: found at `i`; `Err(i)`: not present, `i` is the insertion point.
fn gallop_search(hay: &[u32], x: u32) -> Result<usize, usize> {
    // Probe 1, 2, 4, … until hay[hi] ≥ x (or the end); x then lies within
    // hay[hi/2 ..= hi], inclusive of the probe that stopped the gallop.
    let mut hi = 1usize;
    while hi < hay.len() && hay[hi] < x {
        hi *= 2;
    }
    let lo = hi / 2;
    let hi = (hi + 1).min(hay.len());
    match hay[lo..hi].binary_search(&x) {
        Ok(i) => Ok(lo + i),
        Err(i) => Err(lo + i),
    }
}

/// Sorted subset check with a galloping scan through the superset.
fn is_subset_sorted(a: &[u32], b: &[u32]) -> bool {
    is_subset_iter_sorted(a.iter().copied(), b)
}

/// Merge-style subset check over two ascending id streams: one linear walk
/// of both sides, the right call when the candidate subset is a sizable
/// fraction of the superset and per-id probes would cost more than the
/// stream.
fn is_subset_iter_merge(a: impl Iterator<Item = u32>, mut b: impl Iterator<Item = u32>) -> bool {
    let mut cur = b.next();
    'outer: for x in a {
        while let Some(y) = cur {
            cur = if y < x {
                b.next()
            } else if y == x {
                continue 'outer;
            } else {
                return false;
            };
        }
        return false;
    }
    true
}

/// Streaming subset check: every id the iterator yields (ascending) must
/// appear in sorted `b`; the gallop cursor persists across ids.
fn is_subset_iter_sorted(ids: impl Iterator<Item = u32>, b: &[u32]) -> bool {
    let mut base = 0usize;
    for x in ids {
        if base >= b.len() {
            return false;
        }
        match gallop_search(&b[base..], x) {
            Ok(off) => base += off + 1,
            Err(_) => return false,
        }
    }
    true
}

/// Sorted ⊆ blocked: locate each id's candidate block via the skip
/// pointers; consecutive ids in one block reuse its decode.
fn is_subset_sorted_blocked(a: &[u32], bytes: &[u8], metas: &[BlockMeta]) -> bool {
    let mut buf = BlockBuf::new();
    let mut decoded = usize::MAX;
    for &x in a {
        let p = metas.partition_point(|m| m.first <= x);
        if p == 0 || x > metas[p - 1].last {
            return false;
        }
        let k = p - 1;
        if x == metas[k].first || x == metas[k].last {
            continue;
        }
        if decoded != k {
            decode_block(bytes, metas, k, &mut buf);
            decoded = k;
        }
        if buf.ids().binary_search(&x).is_err() {
            return false;
        }
    }
    true
}

impl PartialEq for PostingList {
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Sorted(a), Repr::Sorted(b)) => a == b,
            (
                Repr::Dense {
                    words: a,
                    count: ca,
                },
                Repr::Dense {
                    words: b,
                    count: cb,
                },
            ) => ca == cb && a == b,
            (
                Repr::Blocked {
                    bytes: ab,
                    metas: am,
                    count: ca,
                },
                Repr::Blocked {
                    bytes: bb,
                    metas: bm,
                    count: cb,
                },
            ) => {
                // Identical block layout ⇒ identical sets, but mutation
                // history can partition one set two ways — unequal bytes
                // must still fall through to the element compare.
                ca == cb && ((am == bm && ab == bb) || self.iter().eq(other.iter()))
            }
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for PostingList {}

impl Hash for PostingList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Canonical over the element *sequence prefix* plus (count, max) so
        // all three representations of one set hash alike without iterating
        // row sets that can span the whole relation. The bounded prefix
        // matters for discovery's RHS decision cache, which probes many
        // distinct joint row sets of equal size sharing min and max — a
        // summary-only hash would bucket those together and degrade every
        // probe to full `Eq` scans.
        state.write_usize(self.len());
        if !self.is_empty() {
            state.write_u32(self.max().expect("non-empty"));
            for id in self.iter().take(8) {
                state.write_u32(id);
            }
        }
    }
}

/// Iterator over a [`PostingList`]'s row ids, ascending. Opaque so the
/// compressed block layout stays an implementation detail.
pub struct PostingIter<'a>(IterRepr<'a>);

enum IterRepr<'a> {
    /// Sorted-vector cursor.
    Sorted(std::slice::Iter<'a, u32>),
    /// Compressed-block cursor: decodes gaps on the fly, no scratch buffer.
    Blocked {
        /// Concatenated block payloads.
        bytes: &'a [u8],
        /// Block directory.
        metas: &'a [BlockMeta],
        /// Index of the next block to enter.
        block: usize,
        /// Byte position within the current block's payload.
        pos: usize,
        /// Ids left to emit from the current block.
        left: u32,
        /// Last id emitted (gap base).
        prev: u32,
    },
    /// Bitset word scanner.
    Dense {
        /// The words being scanned.
        words: &'a [u64],
        /// Index of the word in `current`.
        word_idx: usize,
        /// Remaining bits of the current word.
        current: u64,
    },
}

impl Iterator for PostingIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match &mut self.0 {
            IterRepr::Sorted(it) => it.next().copied(),
            IterRepr::Blocked {
                bytes,
                metas,
                block,
                pos,
                left,
                prev,
            } => {
                if *left == 0 {
                    let m = metas.get(*block)?;
                    *block += 1;
                    *pos = m.offset as usize;
                    *left = m.count - 1;
                    *prev = m.first;
                    Some(m.first)
                } else {
                    *prev += read_gap(bytes, pos);
                    *left -= 1;
                    Some(*prev)
                }
            }
            IterRepr::Dense {
                words,
                word_idx,
                current,
            } => loop {
                if *current != 0 {
                    let bit = current.trailing_zeros();
                    *current &= *current - 1;
                    return Some(*word_idx as u32 * 64 + bit);
                }
                *word_idx += 1;
                if *word_idx >= words.len() {
                    return None;
                }
                *current = words[*word_idx];
            },
        }
    }
}

/// A growable row-set accumulator for unions (coverage computations):
/// a bitset over the universe with a running count.
///
/// Unions go straight into the bitset word-at-a-time —
/// [`insert_all`](Self::insert_all) batches ascending ids sharing a word
/// into one read-modify-write (blocked lists decode per block into stack
/// scratch, dense lists OR whole words) — and
/// [`into_posting_list`](Self::into_posting_list) hands the accumulated
/// set to the tiered representation without materializing a sorted vector
/// when the result is dense.
#[derive(Debug, Clone)]
pub struct RowSetAccumulator {
    words: Vec<u64>,
    count: usize,
    universe: usize,
}

impl RowSetAccumulator {
    /// An empty accumulator over `universe` rows.
    pub fn new(universe: usize) -> RowSetAccumulator {
        RowSetAccumulator {
            words: vec![0u64; universe.div_ceil(64)],
            count: 0,
            universe,
        }
    }

    /// Insert one row id.
    pub fn insert(&mut self, id: RowId) {
        let w = &mut self.words[id / 64];
        let bit = 1u64 << (id % 64);
        if *w & bit == 0 {
            *w |= bit;
            self.count += 1;
        }
    }

    /// Union a whole posting list into the accumulator.
    pub fn insert_all(&mut self, list: &PostingList) {
        match &list.repr {
            Repr::Sorted(v) => self.insert_ascending(v),
            Repr::Blocked { bytes, metas, .. } => {
                // Decode each block into stack scratch and union it with
                // the word-batched path — no per-id branch, no heap.
                let mut buf = BlockBuf::new();
                for k in 0..metas.len() {
                    decode_block(bytes, metas, k, &mut buf);
                    self.insert_ascending(buf.ids());
                }
            }
            Repr::Dense { words, .. } => {
                for (dst, src) in self.words.iter_mut().zip(words) {
                    let merged = *dst | src;
                    self.count += (merged ^ *dst).count_ones() as usize;
                    *dst = merged;
                }
            }
        }
    }

    /// Union an ascending id run: consecutive ids landing in the same
    /// 64-bit word accumulate into one mask, so each touched word costs a
    /// single read-modify-write plus a popcount for the new bits.
    fn insert_ascending(&mut self, ids: &[u32]) {
        let mut it = ids.iter();
        let Some(&first) = it.next() else {
            return;
        };
        let mut word_idx = (first / 64) as usize;
        let mut mask = 1u64 << (first % 64);
        for &id in it {
            let w = (id / 64) as usize;
            if w == word_idx {
                mask |= 1u64 << (id % 64);
            } else {
                let dst = &mut self.words[word_idx];
                self.count += (mask & !*dst).count_ones() as usize;
                *dst |= mask;
                word_idx = w;
                mask = 1u64 << (id % 64);
            }
        }
        let dst = &mut self.words[word_idx];
        self.count += (mask & !*dst).count_ones() as usize;
        *dst |= mask;
    }

    /// Number of distinct rows inserted so far.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Is the accumulator empty?
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Consume the accumulator into a tiered [`PostingList`]. A dense
    /// result adopts the bitset words as-is (no id materialization at
    /// all); a sparse one scans set bits into the sorted/blocked tiers.
    pub fn into_posting_list(self) -> PostingList {
        let universe = self.universe as u32;
        if is_dense(self.count, universe) {
            return PostingList {
                universe,
                repr: Repr::Dense {
                    words: self.words,
                    count: self.count as u32,
                },
            };
        }
        let mut ids = Vec::with_capacity(self.count);
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                ids.push(i as u32 * 64 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        PostingList::from_sorted(ids, self.universe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(ids: &[u32], universe: usize) -> PostingList {
        PostingList::from_sorted(ids.to_vec(), universe)
    }

    /// Sparse ids guaranteed to land in the blocked tier.
    fn blocked(n: u32, stride: u32, universe: usize) -> PostingList {
        let list = PostingList::from_sorted((0..n).map(|i| i * stride).collect(), universe);
        assert!(list.is_blocked_repr(), "n={n} stride={stride} u={universe}");
        list
    }

    #[test]
    fn empty_intersections() {
        let a = pl(&[], 100);
        let b = pl(&[1, 2, 3], 100);
        assert!(a.intersect(&b).is_empty());
        assert!(b.intersect(&a).is_empty());
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn disjoint_sets() {
        let a = pl(&[0, 2, 4, 6], 100);
        let b = pl(&[1, 3, 5, 7], 100);
        assert!(a.intersect(&b).is_empty());
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn nested_sets() {
        let a = pl(&[10, 20, 30], 100);
        let b = pl(&[5, 10, 15, 20, 25, 30, 35], 100);
        assert_eq!(a.intersect(&b).to_vec(), vec![10, 20, 30]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
    }

    #[test]
    fn duplicates_are_deduped_by_from_unsorted() {
        let a = PostingList::from_unsorted(vec![3, 1, 3, 2, 1], 10);
        assert_eq!(a.to_vec(), vec![1, 2, 3]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn galloping_matches_linear_on_lopsided_inputs() {
        // Universe 1M keeps both sides sparse; 4 needles vs 600 haystack
        // ids triggers the galloping intersection (hay stays below the
        // block threshold).
        const U: usize = 1_000_000;
        let needles = pl(&[0, 7, 300, 1111], U);
        let hay: Vec<u32> = (0..250).map(|i| i * 2).collect();
        let hay_pl = PostingList::from_sorted(hay.clone(), U);
        assert!(!needles.is_dense_repr() && !hay_pl.is_dense_repr());
        let expected: Vec<u32> = [0u32, 7, 300, 1111]
            .iter()
            .copied()
            .filter(|x| hay.contains(x))
            .collect();
        assert_eq!(expected, vec![0, 300]);
        assert_eq!(needles.intersect(&hay_pl).to_vec(), expected);
        assert_eq!(hay_pl.intersect(&needles).to_vec(), expected);
    }

    #[test]
    fn galloping_subset_checks_stay_sorted() {
        // Large universe, superset below the block threshold: the subset
        // checks run the galloping scan, not the bitset or block paths.
        const U: usize = 1_000_000;
        let small = pl(&[2, 40, 4000, 20_000], U);
        let big_ids: Vec<u32> = (0..250).map(|i| i * 100).collect(); // 0,100,…
        let big = PostingList::from_sorted(big_ids, U);
        assert!(!small.is_dense_repr() && !big.is_dense_repr() && !big.is_blocked_repr());
        assert!(pl(&[0, 400, 4000, 20_000], U).is_subset(&big));
        assert!(!small.is_subset(&big), "2 and 40 are not multiples of 100");
        // First and last elements of the superset are found.
        assert!(pl(&[0], U).is_subset(&big));
        assert!(pl(&[24_900], U).is_subset(&big));
        assert!(!pl(&[24_901], U).is_subset(&big));
    }

    #[test]
    fn dense_representation_kicks_in_and_agrees() {
        // 50 of 100 rows: well past the 1/16 density bar.
        let ids: Vec<u32> = (0..100).filter(|i| i % 2 == 0).collect();
        let dense = PostingList::from_sorted(ids.clone(), 100);
        assert!(dense.is_dense_repr());
        assert_eq!(dense.len(), 50);
        assert_eq!(dense.to_vec(), ids);
        let sparse = pl(&[2, 4, 96], 100);
        assert!(!sparse.is_dense_repr());
        assert_eq!(sparse.intersect(&dense).to_vec(), vec![2, 4, 96]);
        assert_eq!(dense.intersect(&sparse).to_vec(), vec![2, 4, 96]);
        assert!(sparse.is_subset(&dense));

        let other: Vec<u32> = (0..100).filter(|i| i % 3 == 0).collect();
        let dense2 = PostingList::from_sorted(other, 100);
        let both = dense.intersect(&dense2);
        let expected: Vec<u32> = (0..100).filter(|i| i % 6 == 0).collect();
        assert_eq!(both.to_vec(), expected);
    }

    #[test]
    fn blocked_representation_kicks_in_and_roundtrips() {
        let ids: Vec<u32> = (0..1000).map(|i| i * 37).collect();
        let list = PostingList::from_sorted(ids.clone(), 40_000);
        assert!(list.is_blocked_repr());
        assert_eq!(list.len(), 1000);
        assert_eq!(list.to_vec(), ids);
        assert_eq!(list.min(), Some(0));
        assert_eq!(list.max(), Some(999 * 37));
        for probe in [0u32, 37, 36, 38, 128 * 37, 128 * 37 + 1, 999 * 37, 39_999] {
            assert_eq!(
                list.contains(probe as usize),
                ids.binary_search(&probe).is_ok(),
                "probe {probe}"
            );
        }
        // Compression actually saves memory vs 4 bytes/id.
        assert!(
            list.heap_bytes() < ids.len() * 4,
            "blocked {} B ≥ sorted {} B",
            list.heap_bytes(),
            ids.len() * 4
        );
    }

    #[test]
    fn equality_and_hash_are_representation_independent() {
        use std::collections::hash_map::DefaultHasher;
        let h = |p: &PostingList| {
            let mut h = DefaultHasher::new();
            p.hash(&mut h);
            h.finish()
        };
        // Same elements, forced into different representations via universe.
        let ids: Vec<u32> = (0..32).collect();
        let dense = PostingList::from_sorted(ids.clone(), 64); // 32/64 → dense
        let sparse = PostingList {
            universe: 64,
            repr: Repr::Sorted(ids),
        };
        assert!(dense.is_dense_repr());
        assert!(!sparse.is_dense_repr());
        assert_eq!(dense, sparse);
        assert_eq!(h(&dense), h(&sparse));
        // Blocked vs forced-sorted of the same ids.
        let many: Vec<u32> = (0..400).map(|i| i * 50).collect();
        let blocked = PostingList::from_sorted(many.clone(), 20_000);
        let forced = PostingList {
            universe: 20_000,
            repr: Repr::Sorted(many),
        };
        assert!(blocked.is_blocked_repr());
        assert_eq!(blocked, forced);
        assert_eq!(forced, blocked);
        assert_eq!(h(&blocked), h(&forced));
    }

    #[test]
    fn contains_and_iter() {
        let a = pl(&[1, 5, 9], 100);
        assert!(a.contains(5));
        assert!(!a.contains(6));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 9]);
    }

    #[test]
    fn accumulator_counts_unions() {
        let mut acc = RowSetAccumulator::new(200);
        acc.insert_all(&pl(&[1, 2, 3], 200));
        acc.insert_all(&pl(&[3, 4], 200));
        acc.insert(4);
        acc.insert(5);
        assert_eq!(acc.len(), 5);
        let dense = PostingList::from_sorted((0..100).collect(), 200);
        acc.insert_all(&dense);
        assert_eq!(acc.len(), 100, "{{1..=5}} ⊂ 0..100");
        acc.insert_all(&pl(&[150], 200));
        assert_eq!(acc.len(), 101);
    }

    #[test]
    fn accumulator_accepts_blocked_lists() {
        let mut acc = RowSetAccumulator::new(40_000);
        let b = blocked(500, 37, 40_000);
        acc.insert_all(&b);
        assert_eq!(acc.len(), 500);
        acc.insert_all(&b);
        assert_eq!(acc.len(), 500, "idempotent");
    }

    #[test]
    fn accumulator_into_posting_list_matches_model() {
        // Sparse result: collects ids; dense result: adopts the bitset.
        let mut sparse = RowSetAccumulator::new(100_000);
        sparse.insert_all(&pl(&[5, 70, 100, 65_000], 100_000));
        sparse.insert(70);
        sparse.insert(71);
        let list = sparse.into_posting_list();
        assert_eq!(list.to_vec(), vec![5, 70, 71, 100, 65_000]);
        assert_eq!(list.universe(), 100_000);

        let mut dense = RowSetAccumulator::new(256);
        dense.insert_all(&PostingList::from_sorted((0..128).collect(), 256));
        let list = dense.into_posting_list();
        assert!(list.is_dense_repr(), "128/256 crosses the density bar");
        assert_eq!(list.to_vec(), (0..128).collect::<Vec<u32>>());

        // Blocked input unions through the word-batched path.
        let mut acc = RowSetAccumulator::new(1_000_000);
        let b = blocked(2000, 9, 1_000_000);
        acc.insert_all(&b);
        acc.insert_all(&b);
        assert_eq!(acc.len(), 2000);
        assert_eq!(acc.into_posting_list().to_vec(), b.to_vec());
    }

    #[test]
    fn mixed_universe_dense_intersection_stays_consistent() {
        // Both dense, different universes: the result must carry word
        // storage matching its declared universe so `contains` never
        // indexes past the array.
        let a = PostingList::from_sorted((0..16).collect(), 64);
        let b = PostingList::from_sorted((0..16).collect(), 128);
        assert!(a.is_dense_repr() && b.is_dense_repr());
        let c = a.intersect(&b);
        assert_eq!(c.to_vec(), (0..16).collect::<Vec<u32>>());
        assert_eq!(c.universe(), 128);
        assert!(!c.contains(100));
        assert!(c.contains(15));
    }

    #[test]
    fn insert_remove_roundtrip_sparse() {
        let mut a = pl(&[2, 8], 1000);
        assert!(a.insert(5));
        assert!(!a.insert(5), "already present");
        assert_eq!(a.to_vec(), vec![2, 5, 8]);
        assert!(a.remove(2));
        assert!(!a.remove(2), "already gone");
        assert_eq!(a.to_vec(), vec![5, 8]);
    }

    #[test]
    fn insert_grows_universe_and_promotes_to_dense() {
        let mut a = pl(&[0], 64);
        assert!(!a.is_dense_repr());
        for id in 1..8 {
            assert!(a.insert(id));
        }
        // 8 of 64 = 1/8 ≥ 1/16: the insert crossing the bar promoted it.
        assert!(a.is_dense_repr());
        assert!(a.insert(100), "id beyond the universe grows it");
        assert_eq!(a.universe(), 101);
        assert!(a.contains(100));
        assert!(a.remove(100));
        assert_eq!(a.len(), 8);
        assert_eq!(a.to_vec(), (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn sorted_promotes_to_blocked_past_threshold() {
        const U: usize = 1_000_000;
        let mut a = PostingList::from_sorted((0..255).map(|i| i * 10).collect(), U);
        assert!(!a.is_blocked_repr(), "255 ids stay sorted");
        assert!(a.insert(255 * 10));
        assert!(a.is_blocked_repr(), "256th id crosses the block threshold");
        assert_eq!(a.to_vec(), (0..256).map(|i| i * 10).collect::<Vec<u32>>());
    }

    #[test]
    fn blocked_insert_remove_match_model_across_boundaries() {
        const U: usize = 1_000_000;
        let base: Vec<u32> = (0..640).map(|i| i * 7).collect();
        let mut list = PostingList::from_sorted(base.clone(), U);
        assert!(list.is_blocked_repr());
        let mut model: std::collections::BTreeSet<u32> = base.into_iter().collect();
        // Edits straddling the 128-entry block edges: ids around positions
        // 0, 127/128, 255/256, and past the end.
        let edits: Vec<u32> = vec![
            3,           // interior of block 0
            0,           // existing first id
            127 * 7,     // last id of block 0
            127 * 7 + 1, // gap straddling blocks 0/1
            128 * 7,     // first id of block 1
            255 * 7 + 3,
            256 * 7,
            639 * 7,     // global last
            639 * 7 + 5, // beyond the last block
        ];
        for &id in &edits {
            assert_eq!(list.insert(id as usize), model.insert(id), "insert {id}");
        }
        assert_eq!(list.to_vec(), model.iter().copied().collect::<Vec<_>>());
        for &id in &edits {
            assert_eq!(list.remove(id as usize), model.remove(&id), "remove {id}");
        }
        assert_eq!(list.to_vec(), model.iter().copied().collect::<Vec<_>>());
        assert!(list.is_blocked_repr(), "removals never demote");
    }

    #[test]
    fn blocked_front_insert_lands_before_first_block() {
        const U: usize = 1_000_000;
        let mut list = blocked(300, 10, U);
        // All existing ids are multiples of 10 starting at 0; 5 sorts
        // between blocks' firsts... actually before none: smallest is 0.
        // Remove 0 so an insert below the new first block head exercises
        // the p == 0 prepend path.
        assert!(list.remove(0));
        assert!(list.insert(5));
        assert_eq!(list.min(), Some(5));
        assert!(list.contains(5));
    }

    #[test]
    fn blocked_split_keeps_blocks_bounded() {
        const U: usize = 10_000_000;
        // Widely spaced base so inserted ids fall inside block 0's range.
        let mut list = blocked(400, 20_000, U);
        for id in 1..300u32 {
            assert!(list.insert(id as usize), "insert {id}");
        }
        let expected: std::collections::BTreeSet<u32> =
            (0..400u32).map(|i| i * 20_000).chain(1..300).collect();
        assert_eq!(list.to_vec(), expected.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn blocked_can_empty_out_and_refill() {
        const U: usize = 1_000_000;
        let ids: Vec<u32> = (0..300).map(|i| i * 11).collect();
        let mut list = PostingList::from_sorted(ids.clone(), U);
        assert!(list.is_blocked_repr());
        for &id in &ids {
            assert!(list.remove(id as usize));
        }
        assert!(list.is_empty());
        assert_eq!(list.min(), None);
        assert_eq!(list.max(), None);
        assert_eq!(list.iter().count(), 0);
        assert!(list.insert(42));
        assert_eq!(list.to_vec(), vec![42]);
    }

    #[test]
    fn blocked_intersections_agree_with_naive() {
        const U: usize = 1_000_000;
        let naive = |a: &PostingList, b: &PostingList| -> Vec<u32> {
            let bv = b.to_vec();
            a.to_vec()
                .into_iter()
                .filter(|x| bv.binary_search(x).is_ok())
                .collect()
        };
        let shapes: Vec<(PostingList, PostingList)> = vec![
            // blocked × blocked, interleaved strides
            (blocked(2000, 6, U), blocked(1500, 10, U)),
            // blocked × blocked, disjoint ranges
            (
                PostingList::from_sorted((0..400).collect(), U),
                PostingList::from_sorted((500_000..500_400).collect(), U),
            ),
            // blocked × sorted (both directions exercised below)
            (blocked(3000, 8, U), pl(&[0, 8, 9, 16, 23_000, 999_999], U)),
            // blocked × dense
            (
                blocked(1000, 13, U),
                PostingList::from_sorted((0..2000).collect(), 20_000),
            ),
        ];
        let mut buf = Vec::new();
        for (a, b) in &shapes {
            let expected = naive(a, b);
            assert_eq!(a.intersect(b).to_vec(), expected);
            assert_eq!(b.intersect(a).to_vec(), expected, "commuted");
            a.intersect_into(b, &mut buf);
            assert_eq!(buf, expected, "intersect_into");
            b.intersect_into(a, &mut buf);
            assert_eq!(buf, expected, "intersect_into commuted");
        }
    }

    #[test]
    fn blocked_subset_checks_agree_with_naive() {
        const U: usize = 1_000_000;
        let every_3rd: Vec<u32> = (0..3000).map(|i| i * 3).collect();
        let every_6th: Vec<u32> = (0..1500).map(|i| i * 6).collect();
        let big = PostingList::from_sorted(every_3rd, U);
        let half = PostingList::from_sorted(every_6th, U);
        assert!(big.is_blocked_repr() && half.is_blocked_repr());
        assert!(half.is_subset(&big));
        assert!(!big.is_subset(&half));
        // sorted ⊆ blocked and blocked ⊆ sorted
        assert!(pl(&[0, 3, 8997], U).is_subset(&big));
        assert!(!pl(&[0, 4], U).is_subset(&big));
        let small_blocked = blocked(300, 30, 1_000_000);
        let superset_sorted = PostingList {
            universe: 1_000_000,
            repr: Repr::Sorted((0..1200u32).map(|i| i * 15).collect()),
        };
        assert!(small_blocked.is_subset(&superset_sorted));
        let gap = PostingList {
            universe: 1_000_000,
            repr: Repr::Sorted((0..1200u32).map(|i| i * 15).filter(|&x| x != 60).collect()),
        };
        assert!(!small_blocked.is_subset(&gap));
    }

    #[test]
    fn renumber_after_delete_shifts_higher_ids() {
        let mut a = pl(&[1, 4, 9], 10);
        a.remove(4);
        a.renumber_after_delete(4);
        assert_eq!(a.to_vec(), vec![1, 8]);
        assert_eq!(a.universe(), 9);
        // Dense form too.
        let mut d = PostingList::from_sorted((0..50).collect(), 100);
        assert!(d.is_dense_repr());
        d.remove(10);
        d.renumber_after_delete(10);
        let expected: Vec<u32> = (0..49).collect();
        assert_eq!(d.to_vec(), expected);
        // Blocked form: ids above the removed row shift down by one.
        let mut b = blocked(400, 9, 1_000_000);
        b.remove(9);
        b.renumber_after_delete(9);
        let expected: Vec<u32> = (0..400u32)
            .map(|i| i * 9)
            .filter(|&x| x != 9)
            .map(|x| if x > 9 { x - 1 } else { x })
            .collect();
        assert_eq!(b.to_vec(), expected);
    }

    #[test]
    fn intersect_into_agrees_with_intersect_across_reprs() {
        // Sparse × sparse (merge + gallop), sparse × dense, dense × dense,
        // blocked × each.
        let cases: Vec<(PostingList, PostingList)> = vec![
            (pl(&[1, 5, 9, 20], 1000), pl(&[5, 6, 9, 21], 1000)),
            (
                pl(&[0, 7, 300, 1111], 1_000_000),
                PostingList::from_sorted((0..250).map(|i| i * 2).collect(), 1_000_000),
            ),
            (
                pl(&[2, 4, 96], 100),
                PostingList::from_sorted((0..100).filter(|i| i % 2 == 0).collect(), 100),
            ),
            (
                PostingList::from_sorted((0..100).filter(|i| i % 2 == 0).collect(), 100),
                PostingList::from_sorted((0..100).filter(|i| i % 3 == 0).collect(), 100),
            ),
            (pl(&[], 100), pl(&[1, 2], 100)),
            (blocked(1000, 4, 1_000_000), blocked(800, 6, 1_000_000)),
            (
                blocked(1000, 4, 1_000_000),
                PostingList::from_sorted((0..1000).collect(), 1001),
            ),
        ];
        let mut buf = vec![99u32]; // stale content must be cleared
        for (a, b) in &cases {
            a.intersect_into(b, &mut buf);
            assert_eq!(buf, a.intersect(b).to_vec(), "{:?} ∩ {:?}", a, b);
            b.intersect_into(a, &mut buf);
            assert_eq!(buf, a.intersect(b).to_vec(), "commuted");
        }
    }

    #[test]
    fn merge_and_gallop_agree() {
        // The kernel-backed merge and the gallop path must produce the same
        // sequence; force each by shaping lengths around GALLOP_RATIO.
        let a: Vec<u32> = (0..64).map(|i| i * 5).collect();
        let balanced: Vec<u32> = (0..64).map(|i| i * 3).collect();
        let lopsided: Vec<u32> = (0..1024).map(|i| i * 3).collect();
        let expect = |b: &[u32]| -> Vec<u32> {
            a.iter()
                .copied()
                .filter(|x| b.binary_search(x).is_ok())
                .collect()
        };
        assert_eq!(intersect_sorted(&a, &balanced), expect(&balanced));
        assert_eq!(intersect_sorted(&a, &lopsided), expect(&lopsided));
    }

    #[test]
    fn gallop_search_brackets() {
        let hay: Vec<u32> = vec![2, 4, 6, 8, 10, 12, 14, 16];
        assert_eq!(gallop_search(&hay, 2), Ok(0));
        assert_eq!(gallop_search(&hay, 16), Ok(7));
        assert_eq!(gallop_search(&hay, 7), Err(3));
        assert_eq!(gallop_search(&hay, 100), Err(8));
    }
}
