//! The positional inverted index (Fig. 4 lines 5–12, §5.4).
//!
//! Per attribute, an inverted list maps `(pattern, position)` to the row
//! ids containing that pattern at that position; a second index maps each
//! row back to its entries ("allows for fast retrieval of the patterns and
//! hence a shorter running time", §5.4). **Substring pruning** (§4.4) drops
//! entries that are substrings of another entry with the same row set,
//! keeping the most specific — e.g. `('Egy', 0)` collapses into
//! `('Egypt', 0)` in the paper's Example 8.
//!
//! ## Representation
//!
//! Fragments are **interned** into a per-attribute [`FragmentDict`]: one
//! arena-backed copy per distinct fragment, a [`Symbol`] (`u32`) everywhere
//! else. Construction therefore performs zero heap allocations per fragment
//! *occurrence* — the map key is a packed `(symbol, position)` `u64`, and
//! strings are only resolved again at tableau-assembly time. Row sets are
//! [`PostingList`]s (sorted runs or bitsets, see [`pfd_relation::postings`]), and
//! the row → entries reverse index is a flat CSR layout instead of one
//! `Vec` per row.

use crate::extract::{tokens_for_each, ExtractOptions, ExtractStats, FragmentExtractor};
use pfd_relation::{fx_hash_str, AttrId, Extraction, FxHashMap, PostingList, Relation, RowId};

/// An interned fragment: index into the owning [`FragmentDict`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// The raw dictionary index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuild a symbol from its raw index (snapshot decoding). The caller
    /// is responsible for the index being in range for its dictionary.
    pub fn from_index(index: usize) -> Symbol {
        Symbol(index as u32)
    }
}

/// Arena-backed string interner for the fragments of one attribute.
///
/// All distinct fragments live concatenated in one `String`; a symbol is an
/// index into the span table. Lookup hashes the candidate and probes a
/// hash → symbols bucket map, so interning an already-seen fragment (the
/// overwhelmingly common case: every row of a column repeats the column's
/// shared patterns) allocates nothing.
///
/// ```
/// use pfd_discovery::FragmentDict;
///
/// let mut dict = FragmentDict::default();
/// let egypt = dict.intern("Egypt");
/// assert_eq!(dict.intern("Egypt"), egypt); // second sight: no allocation
/// assert_eq!(dict.resolve(egypt), "Egypt");
/// assert_eq!(dict.len(), 1);
/// ```
#[derive(Debug, Default, Clone)]
pub struct FragmentDict {
    arena: String,
    spans: Vec<(u32, u32)>,
    /// Digest → (first symbol, overflow symbols). The overflow vector stays
    /// unallocated for the (near-universal) collision-free buckets.
    buckets: FxHashMap<u64, (u32, Vec<u32>)>,
}

impl FragmentDict {
    /// Intern `s`, returning its symbol. Allocates only on first sight.
    pub fn intern(&mut self, s: &str) -> Symbol {
        let h = fx_hash_str(s);
        if let Some((first, overflow)) = self.buckets.get(&h) {
            let first = *first;
            if self.span_str(first) == s {
                return Symbol(first);
            }
            for &id in overflow {
                if self.span_str(id) == s {
                    return Symbol(id);
                }
            }
        }
        let start = self.arena.len() as u32;
        self.arena.push_str(s);
        let id = self.spans.len() as u32;
        self.spans.push((start, s.len() as u32));
        match self.buckets.entry(h) {
            std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().1.push(id),
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert((id, Vec::new()));
            }
        }
        Symbol(id)
    }

    /// The string behind a symbol.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.span_str(sym.0)
    }

    /// Byte length of a symbol's string, without touching the arena bytes.
    pub fn byte_len(&self, sym: Symbol) -> usize {
        self.spans[sym.0 as usize].1 as usize
    }

    /// Number of distinct interned fragments.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Is the dictionary empty?
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    fn span_str(&self, id: u32) -> &str {
        let (start, len) = self.spans[id as usize];
        &self.arena[start as usize..(start + len) as usize]
    }
}

/// One index entry: a pattern occurrence shared by a set of rows.
#[derive(Debug, Clone)]
pub struct IndexEntry {
    /// The shared fragment (token or n-gram), interned in the attribute's
    /// [`FragmentDict`].
    pub pattern: Symbol,
    /// Character count of the fragment (cached: the decision function ranks
    /// by specificity on every probe).
    pub chars: u32,
    /// Run index (tokenize) or character offset (n-grams).
    pub pos: u32,
    /// The rows containing the fragment at this position.
    pub rows: PostingList,
}

impl IndexEntry {
    /// Number of rows containing the fragment at this position.
    pub fn support(&self) -> usize {
        self.rows.len()
    }
}

/// The per-attribute index.
#[derive(Debug, Clone)]
pub struct AttrIndex {
    /// The indexed attribute.
    pub attr: AttrId,
    /// How fragments were extracted.
    pub extraction: Extraction,
    /// The fragment dictionary entries resolve against.
    pub dict: FragmentDict,
    /// The pruned entry list, ordered by support.
    pub entries: Vec<IndexEntry>,
    /// CSR offsets: entries of row `r` live at `row_data[row_offsets[r]..row_offsets[r+1]]`.
    row_offsets: Vec<u32>,
    /// CSR payload: entry indices, ascending within each row.
    row_data: Vec<u32>,
    /// Largest entry support (anchor ordering uses it on every candidate).
    pub max_support: usize,
    /// Extraction-phase counters (full-enum vs automaton cells, mined
    /// repeats); all-zero for tokenized attributes.
    pub extract_stats: ExtractStats,
}

impl AttrIndex {
    /// Reassemble an index from snapshot-decoded parts, rebuilding the
    /// derived structures the on-disk format omits: the CSR reverse index
    /// (row → entries, §5.4's second index) and the cached max support.
    /// `entries` must be in the builder's canonical order and every row
    /// set's universe must equal `num_rows` — the warm loader validates
    /// both before calling.
    pub fn from_parts(
        attr: AttrId,
        extraction: Extraction,
        dict: FragmentDict,
        entries: Vec<IndexEntry>,
        num_rows: usize,
        extract_stats: ExtractStats,
    ) -> AttrIndex {
        let (row_offsets, row_data) = build_reverse_index(&entries, num_rows);
        let max_support = entries.iter().map(|e| e.support()).max().unwrap_or(0);
        AttrIndex {
            attr,
            extraction,
            dict,
            entries,
            row_offsets,
            row_data,
            max_support,
            extract_stats,
        }
    }

    /// The fragment string of an entry.
    pub fn pattern_str(&self, entry: &IndexEntry) -> &str {
        self.dict.resolve(entry.pattern)
    }

    /// Entry indices (into [`AttrIndex::entries`]) whose row set contains
    /// `rid`, ascending — the §5.4 second index.
    pub fn entries_of_row(&self, rid: RowId) -> &[u32] {
        let lo = self.row_offsets[rid] as usize;
        let hi = self.row_offsets[rid + 1] as usize;
        &self.row_data[lo..hi]
    }

    /// Number of rows the reverse index covers.
    pub fn num_rows(&self) -> usize {
        self.row_offsets.len().saturating_sub(1)
    }
}

/// Index construction options (ablation switches of DESIGN.md §7).
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// §4.4 substring pruning.
    pub substring_pruning: bool,
    /// N-gram / suffix-automaton extraction knobs.
    pub extract: ExtractOptions,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            substring_pruning: true,
            extract: ExtractOptions::default(),
        }
    }
}

/// Build the inverted index for one attribute.
pub fn build_index(
    rel: &Relation,
    attr: AttrId,
    extraction: Extraction,
    options: &IndexOptions,
) -> AttrIndex {
    let num_rows = rel.num_rows();
    let mut dict = FragmentDict::default();
    // One extractor per index build: the suffix automaton and its buffers
    // are reused across every cell of the attribute.
    let mut extractor = FragmentExtractor::new(options.extract);
    // Occurrence table addressed by symbol: one hash (the intern) per
    // fragment occurrence, then a short linear scan over that fragment's
    // known positions. No per-occurrence string allocation and no second
    // hash lookup — the layouts the old `(String, pos)`-keyed map paid for
    // on every fragment of every row.
    let mut per_sym: Vec<Vec<(u32, Vec<u32>)>> = Vec::new();
    for (rid, _) in rel.iter_rows() {
        let value = rel.cell(rid, attr);
        let rid = rid as u32;
        let mut add = |frag: &str, pos: u32| {
            let sym = dict.intern(frag);
            if sym.index() == per_sym.len() {
                per_sym.push(Vec::new());
            }
            let slots = &mut per_sym[sym.index()];
            match slots.iter_mut().find(|(p, _)| *p == pos) {
                Some((_, rows)) => {
                    if rows.last() != Some(&rid) {
                        rows.push(rid);
                    }
                }
                None => slots.push((pos, vec![rid])),
            }
        };
        match extraction {
            Extraction::Tokenize => tokens_for_each(value, &mut add),
            Extraction::NGrams => extractor.for_each(value, &mut add),
        }
    }
    let extract_stats = extractor.take_stats();

    let mut entries: Vec<IndexEntry> = per_sym
        .into_iter()
        .enumerate()
        .flat_map(|(sym, slots)| {
            let pattern = Symbol(sym as u32);
            let chars = dict.resolve(pattern).chars().count() as u32;
            slots.into_iter().map(move |(pos, rows)| IndexEntry {
                pattern,
                chars,
                pos,
                rows: PostingList::from_sorted(rows, num_rows),
            })
        })
        .collect();
    // Deterministic order: by support desc, then pattern, then pos. The
    // string tiebreak goes through a precomputed lexicographic rank per
    // symbol — O(S log S) string compares once instead of O(E log E) in
    // the entry sort itself.
    let mut by_string: Vec<u32> = (0..dict.len() as u32).collect();
    by_string.sort_unstable_by(|a, b| dict.span_str(*a).cmp(dict.span_str(*b)));
    let mut rank = vec![0u32; dict.len()];
    for (r, &sym) in by_string.iter().enumerate() {
        rank[sym as usize] = r as u32;
    }
    entries.sort_unstable_by(|a, b| {
        b.rows
            .len()
            .cmp(&a.rows.len())
            .then_with(|| rank[a.pattern.index()].cmp(&rank[b.pattern.index()]))
            .then_with(|| a.pos.cmp(&b.pos))
    });

    if options.substring_pruning {
        entries = prune_substrings(entries, &dict);
    }

    let (row_offsets, row_data) = build_reverse_index(&entries, num_rows);
    let max_support = entries.iter().map(|e| e.support()).max().unwrap_or(0);
    AttrIndex {
        attr,
        extraction,
        dict,
        entries,
        row_offsets,
        row_data,
        max_support,
        extract_stats,
    }
}

/// Reverse index in CSR form: count, prefix-sum, fill.
fn build_reverse_index(entries: &[IndexEntry], num_rows: usize) -> (Vec<u32>, Vec<u32>) {
    let mut row_offsets = vec![0u32; num_rows + 1];
    for e in entries {
        for rid in e.rows.iter() {
            row_offsets[rid as usize + 1] += 1;
        }
    }
    for r in 0..num_rows {
        row_offsets[r + 1] += row_offsets[r];
    }
    let mut cursor = row_offsets.clone();
    let mut row_data = vec![0u32; row_offsets[num_rows] as usize];
    for (ei, e) in entries.iter().enumerate() {
        for rid in e.rows.iter() {
            let slot = &mut cursor[rid as usize];
            row_data[*slot as usize] = ei as u32;
            *slot += 1;
        }
    }
    (row_offsets, row_data)
}

/// §4.4 substring pruning: within groups of entries sharing the same row
/// set, keep only entries that are not substrings of another kept entry
/// ("we pick the most specific one").
fn prune_substrings(entries: Vec<IndexEntry>, dict: &FragmentDict) -> Vec<IndexEntry> {
    // Group by row set (canonical hash/equality over elements).
    let mut groups: FxHashMap<&PostingList, Vec<usize>> = FxHashMap::default();
    for (i, e) in entries.iter().enumerate() {
        groups.entry(&e.rows).or_default().push(i);
    }
    let mut keep = vec![true; entries.len()];
    for group in groups.values() {
        // Longest first; drop members that are substrings of a kept longer
        // member of the same group.
        let mut by_len: Vec<usize> = group.clone();
        by_len.sort_by_key(|&i| std::cmp::Reverse(dict.byte_len(entries[i].pattern)));
        for (a_rank, &a) in by_len.iter().enumerate() {
            if !keep[a] {
                continue;
            }
            let a_str = dict.resolve(entries[a].pattern);
            for &b in &by_len[a_rank + 1..] {
                if keep[b] {
                    let b_str = dict.resolve(entries[b].pattern);
                    if b_str.len() < a_str.len() && a_str.contains(b_str) {
                        keep[b] = false;
                    }
                }
            }
        }
    }
    entries
        .into_iter()
        .zip(keep)
        .filter(|(_, k)| *k)
        .map(|(e, _)| e)
        .collect()
}

/// Reusable buffers for [`frequent_within`]-style counting.
///
/// The counting pass scatters into a dense array indexed by entry id; the
/// array must span the index's entry count and be zeroed between calls.
/// Allocating (and zeroing) it per probe dominated the candidate-check
/// phase, so the lattice walk now keeps **one** scratch per candidate
/// dependency and shares it across every anchor entry's RHS decision —
/// clearing only the touched slots (`O(touched)`, not `O(entries)`).
#[derive(Debug, Default)]
pub struct FrequentScratch {
    counts: Vec<u32>,
    touched: Vec<u32>,
}

impl FrequentScratch {
    /// An empty scratch; buffers grow to the largest index probed.
    pub fn new() -> FrequentScratch {
        FrequentScratch::default()
    }

    /// The most frequent entries of `index` among a row subset, written to
    /// `out`: `(entry index, count within subset)` for entries with
    /// `count ≥ min`, sorted by count descending then pattern length
    /// descending (prefer the most specific of equally frequent patterns —
    /// the C3 countermeasure), then entry id ascending.
    pub fn frequent_within_into(
        &mut self,
        index: &AttrIndex,
        rows: &PostingList,
        min: usize,
        out: &mut Vec<(u32, usize)>,
    ) {
        out.clear();
        if self.counts.len() < index.entries.len() {
            self.counts.resize(index.entries.len(), 0);
        }
        for rid in rows.iter() {
            for &ei in index.entries_of_row(rid as usize) {
                if self.counts[ei as usize] == 0 {
                    self.touched.push(ei);
                }
                self.counts[ei as usize] += 1;
            }
        }
        for &ei in &self.touched {
            let c = self.counts[ei as usize] as usize;
            if c >= min {
                out.push((ei, c));
            }
            self.counts[ei as usize] = 0;
        }
        self.touched.clear();
        out.sort_by(|a, b| {
            b.1.cmp(&a.1)
                .then_with(|| {
                    let ca = index.entries[a.0 as usize].chars;
                    let cb = index.entries[b.0 as usize].chars;
                    cb.cmp(&ca)
                })
                .then_with(|| a.0.cmp(&b.0))
        });
    }
}

/// The most frequent entries of `index` among a row subset (allocating
/// convenience wrapper over [`FrequentScratch::frequent_within_into`]).
pub fn frequent_within(index: &AttrIndex, rows: &PostingList, min: usize) -> Vec<(u32, usize)> {
    let mut scratch = FrequentScratch::new();
    let mut out = Vec::new();
    scratch.frequent_within_into(index, rows, min, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(col: &str, values: &[&str]) -> (Relation, AttrId) {
        let rows: Vec<Vec<&str>> = values.iter().map(|v| vec![*v]).collect();
        let r = Relation::from_rows("T", &[col], rows).unwrap();
        let a = r.schema().attr(col).unwrap();
        (r, a)
    }

    fn all_rows(rel: &Relation) -> PostingList {
        PostingList::from_sorted((0..rel.num_rows() as u32).collect(), rel.num_rows())
    }

    #[test]
    fn dict_interns_each_fragment_once() {
        let mut dict = FragmentDict::default();
        let a = dict.intern("Egypt");
        let b = dict.intern("Yemen");
        let c = dict.intern("Egypt");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.resolve(a), "Egypt");
        assert_eq!(dict.resolve(b), "Yemen");
        assert_eq!(dict.byte_len(a), 5);
    }

    #[test]
    fn example8_country_collapses_to_full_values() {
        // §4.3 Example 8: n-grams of country reduce to two entries after
        // substring pruning because every substring has the same row set.
        let (r, a) = rel(
            "country",
            &[
                "Egypt", "Yemen", "Egypt", "Yemen", "Egypt", "Yemen", "Egypt", "Yemen", "Yemen",
                "Egypt",
            ],
        );
        let idx = build_index(&r, a, Extraction::NGrams, &IndexOptions::default());
        assert_eq!(idx.entries.len(), 2, "{:?}", idx.entries);
        let mut pats: Vec<&str> = idx.entries.iter().map(|e| idx.pattern_str(e)).collect();
        pats.sort_unstable();
        assert_eq!(pats, vec!["Egypt", "Yemen"]);
    }

    #[test]
    fn without_pruning_substrings_remain() {
        let (r, a) = rel("country", &["Egypt", "Egypt"]);
        let idx = build_index(
            &r,
            a,
            Extraction::NGrams,
            &IndexOptions {
                substring_pruning: false,
                ..IndexOptions::default()
            },
        );
        // 5 chars → 15 grams.
        assert_eq!(idx.entries.len(), 15);
    }

    #[test]
    fn zip_prefixes_survive_pruning() {
        // "900" spans rows {0,1,2} while "9000" spans only {0,1}: distinct
        // row sets, so both survive. Full values survive as singletons.
        let (r, a) = rel("zip", &["90001", "90002", "90091"]);
        let idx = build_index(&r, a, Extraction::NGrams, &IndexOptions::default());
        let e900 = idx
            .entries
            .iter()
            .find(|e| idx.pattern_str(e) == "900" && e.pos == 0)
            .expect("900 prefix kept");
        assert_eq!(e900.rows.to_vec(), vec![0, 1, 2]);
        assert!(idx.entries.iter().any(|e| idx.pattern_str(e) == "90001"));
        // "90" has the same row set as "900" and is its substring: pruned.
        assert!(!idx
            .entries
            .iter()
            .any(|e| idx.pattern_str(e) == "90" && e.pos == 0));
    }

    #[test]
    fn token_index_keeps_positions() {
        let (r, a) = rel(
            "name",
            &[
                "Tayseer Fahmi",
                "Tayseer Qasem",
                "Noor Wagdi",
                "Tayseer Salem",
            ],
        );
        let idx = build_index(&r, a, Extraction::Tokenize, &IndexOptions::default());
        let tayseer = idx
            .entries
            .iter()
            .find(|e| idx.pattern_str(e) == "Tayseer")
            .unwrap();
        assert_eq!(tayseer.pos, 0);
        assert_eq!(tayseer.rows.to_vec(), vec![0, 1, 3]);
    }

    #[test]
    fn row_entries_reverse_index() {
        let (r, a) = rel("name", &["John Smith", "John Jones"]);
        let idx = build_index(&r, a, Extraction::Tokenize, &IndexOptions::default());
        for rid in 0..idx.num_rows() {
            for &ei in idx.entries_of_row(rid) {
                assert!(
                    idx.entries[ei as usize].rows.contains(rid),
                    "reverse index must agree with forward index"
                );
            }
        }
        // John appears in both rows, so both rows list it.
        let john = idx
            .entries
            .iter()
            .position(|e| idx.pattern_str(e) == "John")
            .unwrap() as u32;
        assert!(idx.entries_of_row(0).contains(&john));
        assert!(idx.entries_of_row(1).contains(&john));
    }

    #[test]
    fn frequent_within_counts_and_ranks() {
        let (r, a) = rel(
            "city",
            &["Los Angeles", "Los Angeles", "Los Angeles", "New York"],
        );
        let idx = build_index(&r, a, Extraction::Tokenize, &IndexOptions::default());
        let top = frequent_within(&idx, &all_rows(&r), 2);
        assert!(!top.is_empty());
        // The dominant pattern among all four rows is a Los Angeles token
        // with count 3.
        let (ei, count) = top[0];
        assert_eq!(count, 3);
        let p = idx.pattern_str(&idx.entries[ei as usize]);
        assert!(p == "Los" || p == "Angeles", "{p}");
        // Restricting to the New York row flips the result.
        let ny = PostingList::from_sorted(vec![3], r.num_rows());
        let top_ny = frequent_within(&idx, &ny, 1);
        let p_ny = idx.pattern_str(&idx.entries[top_ny[0].0 as usize]);
        assert!(p_ny == "New" || p_ny == "York");
    }

    #[test]
    fn duplicate_fragments_in_one_row_count_once() {
        // "aa" contains gram "a" twice at different positions — but the
        // same (fragment, pos) key never double-counts a row.
        let (r, a) = rel("x", &["aa"]);
        let idx = build_index(&r, a, Extraction::NGrams, &IndexOptions::default());
        for e in &idx.entries {
            let mut sorted = e.rows.to_vec();
            sorted.dedup();
            assert_eq!(sorted, e.rows.to_vec());
        }
    }

    #[test]
    fn empty_values_produce_no_entries() {
        let (r, a) = rel("x", &["", ""]);
        let idx = build_index(&r, a, Extraction::NGrams, &IndexOptions::default());
        assert!(idx.entries.is_empty());
        assert!(idx.dict.is_empty());
    }

    #[test]
    fn max_support_matches_entries() {
        let (r, a) = rel("city", &["LA", "LA", "NY"]);
        let idx = build_index(&r, a, Extraction::NGrams, &IndexOptions::default());
        assert_eq!(
            idx.max_support,
            idx.entries.iter().map(|e| e.support()).max().unwrap()
        );
    }
}
