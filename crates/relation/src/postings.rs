//! Compact row-set representation shared by the discovery index and the
//! incremental cleaning engine.
//!
//! Index entries and candidate row sets were plain `Vec<RowId>`; at scale
//! the discovery hot path is dominated by merging those lists. A
//! [`PostingList`] has two tiers:
//!
//! - **Sorted** — strictly increasing `u32` runs while the set holds less
//!   than 1/16 of the row universe (always, below 64 rows).
//! - **Dense** — a fixed-stride bitset at or above that density, so the
//!   frequent entries (column formats, shared prefixes) intersect
//!   word-at-a-time.
//!
//! Sorted × sorted intersections gallop when the lengths are lopsided —
//! the common shape when probing a rare pattern against a frequent one —
//! and run one scalar merge when they are balanced.
//!
//! Equality and hashing are canonical over the *element sequence*, not the
//! representation, so row sets group identically regardless of which tier
//! they landed on.
//!
//! The list also supports point mutation ([`insert`](PostingList::insert),
//! [`remove`](PostingList::remove),
//! [`renumber_after_delete`](PostingList::renumber_after_delete)) so the
//! incremental engine's per-group row sets can track relation edits without
//! rebuilding. This module lives in `pfd_relation` (rather than discovery,
//! where it originated) because both layers depend on it, and because the
//! snapshot codec ([`crate::binary`]) writes every list as the same gap
//! stream whichever tier holds it.
//!
//! A third, block-compressed tier (delta-gap varint blocks, ~1.1 bytes per
//! sparse id) was measured and retired: below a million rows it saved under
//! 10% of any command's peak RSS, and at a million rows it more than
//! doubled discovery's check phase. `docs/ARCHITECTURE.md` has the numbers.

use crate::relation::RowId;
use std::hash::{Hash, Hasher};

/// Density numerator: a set is stored as a bitset when
/// `count * 16 >= DENSE_NUMERATOR * universe` (i.e. ≥ 1/16 of rows).
const DENSE_NUMERATOR: u64 = 1;

/// Sorted × sorted intersections gallop when one side is at least this many
/// times longer than the other.
const GALLOP_RATIO: usize = 8;

#[derive(Debug, Clone)]
enum Repr {
    /// Strictly increasing row ids.
    Sorted(Vec<u32>),
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
    /// Build from a strictly increasing, deduplicated id vector. The
    /// universe must fit `u32` (row ids are `u32`).
    pub fn from_sorted(ids: Vec<u32>, universe: usize) -> PostingList {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must be sorted+deduped"
        );
        debug_assert!(ids.last().is_none_or(|&m| (m as usize) < universe.max(1)));
        debug_assert!(u32::try_from(universe).is_ok(), "universe overflows u32");
        let universe = universe as u32;
        if !is_dense(ids.len(), universe) {
            return PostingList {
                universe,
                repr: Repr::Sorted(ids),
            };
        }
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

    /// Membership test.
    pub fn contains(&self, id: RowId) -> bool {
        let id = id as u32;
        match &self.repr {
            Repr::Sorted(v) => v.binary_search(&id).is_ok(),
            Repr::Dense { words, .. } => {
                (id < self.universe) && words[(id / 64) as usize] & (1u64 << (id % 64)) != 0
            }
        }
    }

    /// Iterate the row ids in increasing order.
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter(match &self.repr {
            Repr::Sorted(v) => IterRepr::Sorted(v.iter()),
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

    /// Set intersection. Gallops on lopsided sorted inputs, ANDs words on
    /// dense ones.
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
            let dense = PostingList {
                universe: universe as u32,
                repr: Repr::Dense { words, count },
            };
            if is_dense(count as usize, universe as u32) {
                return dense;
            }
            return PostingList::from_sorted(dense.to_vec(), universe);
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
            (Repr::Sorted(a), Repr::Dense { .. }) => {
                out.extend(a.iter().copied().filter(|&id| other.contains(id as RowId)));
            }
            (Repr::Dense { .. }, Repr::Sorted(b)) => {
                out.extend(b.iter().copied().filter(|&id| self.contains(id as RowId)));
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
            Repr::Dense { words, .. } => words
                .iter()
                .enumerate()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| i as u32 * 64 + w.trailing_zeros()),
        }
    }

    /// Largest row id, `None` when empty. O(1) on sorted runs and one
    /// backward word scan on bitsets (the canonical hash calls it).
    pub fn max(&self) -> Option<u32> {
        match &self.repr {
            Repr::Sorted(v) => v.last().copied(),
            Repr::Dense { words, .. } => words
                .iter()
                .enumerate()
                .rev()
                .find(|(_, w)| **w != 0)
                .map(|(i, w)| i as u32 * 64 + 63 - w.leading_zeros()),
        }
    }

    /// Insert one row id, growing the universe when `id` lies beyond it.
    /// Returns `true` when the id was newly added. A sorted run promotes to
    /// a bitset when the insert crosses the density threshold; removals
    /// never demote (hysteresis keeps edit sequences cheap).
    pub fn insert(&mut self, id: RowId) -> bool {
        let id = id as u32;
        if id >= self.universe {
            self.universe = id + 1;
            if let Repr::Dense { words, .. } = &mut self.repr {
                words.resize(self.universe.div_ceil(64) as usize, 0);
            }
        }
        match &mut self.repr {
            Repr::Sorted(v) => {
                let Err(pos) = v.binary_search(&id) else {
                    return false;
                };
                v.insert(pos, id);
                if is_dense(v.len(), self.universe) {
                    let ids = std::mem::take(v);
                    *self = PostingList::from_sorted(ids, self.universe as usize);
                }
                true
            }
            Repr::Dense { words, count } => {
                let w = &mut words[(id / 64) as usize];
                let bit = 1u64 << (id % 64);
                if *w & bit != 0 {
                    return false;
                }
                *w |= bit;
                *count += 1;
                true
            }
        }
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

    /// Is `self ⊆ other`? Sorted runs gallop through the superset; any
    /// bitset side answers per id.
    pub fn is_subset(&self, other: &PostingList) -> bool {
        if self.len() > other.len() {
            return false;
        }
        match (&self.repr, &other.repr) {
            (Repr::Sorted(a), Repr::Sorted(b)) => is_subset_sorted(a, b),
            _ => self.iter().all(|id| other.contains(id as RowId)),
        }
    }
}

/// Representation decision rule for the bitset tier.
fn is_dense(count: usize, universe: u32) -> bool {
    universe >= 64 && (count as u64) * 16 >= DENSE_NUMERATOR * universe as u64
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
/// lopsided lengths, otherwise a linear merge.
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
        // Branch-free merge: write every candidate, keep it only on a
        // match, and advance each cursor by a comparison result, so the
        // loop has no data-dependent branch to mispredict.
        let start = out.len();
        out.resize(start + small.len(), 0);
        let buf = &mut out[start..];
        let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
        while i < small.len() && j < large.len() {
            let (x, y) = (small[i], large[j]);
            buf[k] = x;
            k += usize::from(x == y);
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        out.truncate(start + k);
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

/// Sorted subset check: every id of `a` must appear in `b`; the gallop
/// cursor into `b` persists across ids.
fn is_subset_sorted(a: &[u32], b: &[u32]) -> bool {
    let mut base = 0usize;
    for &x in a {
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
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for PostingList {}

impl Hash for PostingList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Canonical over the element *sequence prefix* plus (count, max) so
        // both representations of one set hash alike without iterating
        // row sets that can span the whole relation. The bounded prefix
        // matters for discovery's RHS decision cache, which probes many
        // distinct joint row sets of equal size sharing min and max — a
        // summary-only hash would bucket those together and degrade every
        // probe to full `Eq` scans.
        state.write_usize(self.len());
        if let Some(max) = self.max() {
            state.write_u32(max);
            for id in self.iter().take(8) {
                state.write_u32(id);
            }
        }
    }
}

/// Iterator over a [`PostingList`]'s row ids, ascending. Opaque so the
/// storage tier stays an implementation detail.
pub struct PostingIter<'a>(IterRepr<'a>);

enum IterRepr<'a> {
    /// Sorted-vector cursor.
    Sorted(std::slice::Iter<'a, u32>),
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
/// into one read-modify-write and ORs dense lists whole words at a time —
/// and [`into_posting_list`](Self::into_posting_list) hands the accumulated
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
    /// all); a sparse one scans set bits into a sorted run.
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

    /// `n` ids spaced `stride` apart: with a wide universe, a large sparse
    /// list that stays in the sorted tier.
    fn sparse(n: u32, stride: u32, universe: usize) -> PostingList {
        let list = PostingList::from_sorted((0..n).map(|i| i * stride).collect(), universe);
        assert!(!list.is_dense_repr(), "n={n} stride={stride} u={universe}");
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
        // Universe 1M keeps both sides sparse; 4 needles vs 250 haystack
        // ids triggers the galloping intersection.
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
        // Large universe: the subset checks run the galloping scan, not the
        // bitset path.
        const U: usize = 1_000_000;
        let small = pl(&[2, 40, 4000, 20_000], U);
        let big_ids: Vec<u32> = (0..250).map(|i| i * 100).collect(); // 0,100,…
        let big = PostingList::from_sorted(big_ids, U);
        assert!(!small.is_dense_repr() && !big.is_dense_repr());
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
        assert_eq!(sparse, dense);
        assert_eq!(h(&dense), h(&sparse));
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

    /// A large sparse list (the size class a block-compressed tier once
    /// held) unions idempotently.
    #[test]
    fn accumulator_accepts_blocked_lists() {
        let mut acc = RowSetAccumulator::new(40_000);
        let b = sparse(500, 37, 40_000);
        acc.insert_all(&b);
        assert_eq!(acc.len(), 500);
        acc.insert_all(&b);
        assert_eq!(acc.len(), 500, "idempotent");
    }

    #[test]
    fn accumulator_into_posting_list_matches_model() {
        // Sparse result: collects ids; dense result: adopts the bitset.
        let mut sparse_acc = RowSetAccumulator::new(100_000);
        sparse_acc.insert_all(&pl(&[5, 70, 100, 65_000], 100_000));
        sparse_acc.insert(70);
        sparse_acc.insert(71);
        let list = sparse_acc.into_posting_list();
        assert_eq!(list.to_vec(), vec![5, 70, 71, 100, 65_000]);
        assert_eq!(list.universe(), 100_000);

        let mut dense = RowSetAccumulator::new(256);
        dense.insert_all(&PostingList::from_sorted((0..128).collect(), 256));
        let list = dense.into_posting_list();
        assert!(list.is_dense_repr(), "128/256 crosses the density bar");
        assert_eq!(list.to_vec(), (0..128).collect::<Vec<u32>>());

        // A large sparse input unions through the word-batched path.
        let mut acc = RowSetAccumulator::new(1_000_000);
        let b = sparse(2000, 9, 1_000_000);
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

    /// A large sparse list (the size class a block-compressed tier once
    /// held) can lose every id and take new ones.
    #[test]
    fn blocked_can_empty_out_and_refill() {
        const U: usize = 1_000_000;
        let ids: Vec<u32> = (0..300).map(|i| i * 11).collect();
        let mut list = PostingList::from_sorted(ids.clone(), U);
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

    /// Intersections of large sparse lists (the size class a
    /// block-compressed tier once held), with each other, with short runs
    /// and with bitsets, agree with a naive filter.
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
            // interleaved strides
            (sparse(2000, 6, U), sparse(1500, 10, U)),
            // disjoint ranges
            (
                PostingList::from_sorted((0..400).collect(), U),
                PostingList::from_sorted((500_000..500_400).collect(), U),
            ),
            // large × short (both directions exercised below)
            (sparse(3000, 8, U), pl(&[0, 8, 9, 16, 23_000, 999_999], U)),
            // large sparse × dense
            (
                sparse(1000, 13, U),
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

    /// Subset checks between large sparse lists (the size class a
    /// block-compressed tier once held) and short runs agree with the sets.
    #[test]
    fn blocked_subset_checks_agree_with_naive() {
        const U: usize = 1_000_000;
        let every_3rd: Vec<u32> = (0..3000).map(|i| i * 3).collect();
        let every_6th: Vec<u32> = (0..1500).map(|i| i * 6).collect();
        let big = PostingList::from_sorted(every_3rd, U);
        let half = PostingList::from_sorted(every_6th, U);
        assert!(half.is_subset(&big));
        assert!(!big.is_subset(&half));
        assert!(pl(&[0, 3, 8997], U).is_subset(&big));
        assert!(!pl(&[0, 4], U).is_subset(&big));
        let small = sparse(300, 30, U);
        let superset = sparse(1200, 15, U);
        assert!(small.is_subset(&superset));
        let gap = PostingList::from_sorted(
            (0..1200u32).map(|i| i * 15).filter(|&x| x != 60).collect(),
            U,
        );
        assert!(!small.is_subset(&gap));
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
        // A large sparse run: ids above the removed row shift down by one.
        let mut b = sparse(400, 9, 1_000_000);
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
        // large sparse × each.
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
            (sparse(1000, 4, 1_000_000), sparse(800, 6, 1_000_000)),
            (
                sparse(1000, 4, 1_000_000),
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
        // The merge and the gallop path must produce the same sequence;
        // force each by shaping lengths around GALLOP_RATIO.
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

    /// `intersect_sorted(a, b)` and `intersect_sorted(b, a)` both equal a
    /// naive filter of `a` by membership in `b`.
    fn assert_merge_matches_naive(a: &[u32], b: &[u32]) {
        let expected: Vec<u32> = a.iter().copied().filter(|x| b.contains(x)).collect();
        assert_eq!(intersect_sorted(a, b), expected, "a={a:?} b={b:?}");
        assert_eq!(intersect_sorted(b, a), expected, "commuted a={a:?} b={b:?}");
    }

    /// Balanced and lopsided shapes, each side first, against a naive filter.
    #[test]
    fn merge_matches_naive_on_fixed_shapes() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2, 3]),
            ((0..16).collect(), (0..16).collect()),
            (
                (0..64).map(|i| i * 2).collect(),
                (0..64).map(|i| i * 3).collect(),
            ),
            ((0..5).collect(), (3..40).collect()),
            (vec![7], vec![7]),
            (vec![0, 4, 8, 12, 16], vec![1, 4, 9, 12, 17, 20, 33, 34]),
        ];
        for (a, b) in &cases {
            assert_merge_matches_naive(a, b);
        }
    }

    /// Every pair of lengths in 0..10, so the merge's last steps run with
    /// either side exhausted first.
    #[test]
    fn merge_handles_short_tails() {
        for la in 0..10u32 {
            for lb in 0..10u32 {
                let a: Vec<u32> = (0..la).map(|i| i * 3).collect();
                let b: Vec<u32> = (0..lb).map(|i| i * 2 + 1).collect();
                assert_merge_matches_naive(&a, &b);
            }
        }
    }

    #[test]
    fn merge_appends_without_clearing() {
        let mut out = vec![999];
        intersect_sorted_into(&[1, 2, 3], &[2, 3, 4], &mut out);
        assert_eq!(out, vec![999, 2, 3]);
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
