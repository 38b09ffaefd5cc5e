//! Keyed grouping on interned symbols: the one kernel behind
//! [`Pfd::violations`]/[`Pfd::satisfies`] (hence `detect_errors`),
//! [`Pfd::audit`] and the `DeltaEngine`'s group indexes.
//!
//! A [`Relation`] stores each column as a vocabulary of distinct strings
//! plus one `u32` symbol per row. A tableau cell's verdict on a value — its
//! equivalence key, or no match — depends on the value alone, so a
//! [`CellMemo`] evaluates the cell once per distinct symbol of its column
//! and interns the key slices to `u32` key ids. Rows are then grouped by
//! their LHS key-id tuple and partitioned by their RHS key-id tuple — the
//! partition view the OFD validators of Baskaran et al. and Zheng et al.
//! use — instead of keying every row by a fresh `Vec<String>`. Key text is
//! read back only to order groups and partitions exactly as the
//! string-keyed [`reference`](crate::reference) does (lexicographically by
//! key tuple), so every output stays byte-identical to it.
//!
//! The kernel answers "does the value match the cell?" and "what is its
//! key?" from one memo: a value matches a constrained pattern exactly when
//! it has an equivalence key (`pfd_pattern`'s property suite pins
//! `matches(s) == extract(s).is_some()`).
//!
//! A [`TableauRouter`] decides which rows a tableau row's scan visits.
//! Discovered tableaux hold hundreds of constant rows such as
//! `[900]\D{2}`, and a row can match one only if the constant sits where
//! the cell anchors it, so the router looks each distinct column value up
//! once and hands every tableau row its candidate rows instead of the
//! whole relation.

use crate::pfd::{Pfd, Violation};
use crate::tableau::TableauCell;
use pfd_pattern::Pattern;
use pfd_relation::{AttrId, FxHashMap, Relation, RowId, RowSetAccumulator};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Where an anchored constant sits, in chars, in every value its cell
/// matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Anchor {
    /// `k` chars after the start: `pre` matches exactly `k` chars.
    Start(usize),
    /// `k` chars before the end: `post` matches exactly `k` chars.
    End(usize),
}

/// The anchor rule. A cell `pre[c]post` whose constrained part is a
/// non-empty constant `c` and whose `pre` has a fixed char length `k` holds
/// `c` at chars `[k, k + |c|)` of every value it matches; failing that, a
/// fixed-length `post` pins `c` that far from the end. Wildcards, variable
/// constrained parts and interior constants (variable `pre` and `post`)
/// have no anchor.
fn anchor(cell: &TableauCell) -> Option<(Anchor, String)> {
    let TableauCell::Pattern(p) = cell else {
        return None;
    };
    let c = p.constant_value().filter(|c| !c.is_empty())?;
    let fixed = |seg: &Pattern| (seg.max_len() == Some(seg.min_len())).then(|| seg.min_len());
    let at = match (fixed(p.prefix()), fixed(p.suffix())) {
        (Some(k), _) => Anchor::Start(k),
        (None, Some(k)) => Anchor::End(k),
        (None, None) => return None,
    };
    Some((at, c))
}

/// The `chars`-char window of `value` at `anchor`, or `None` when the value
/// is too short to hold one. Offsets count chars, not bytes.
fn window(value: &str, anchor: Anchor, chars: usize) -> Option<&str> {
    let (start, end) = match anchor {
        Anchor::Start(k) => {
            let starts = value.char_indices().map(|(i, _)| i);
            let mut bounds = starts.chain(std::iter::once(value.len()));
            let start = bounds.nth(k)?;
            (start, bounds.nth(chars - 1)?)
        }
        Anchor::End(k) => {
            let starts = value.char_indices().rev().map(|(i, _)| i);
            let mut bounds = std::iter::once(value.len()).chain(starts);
            let end = bounds.nth(k)?;
            (bounds.nth(chars - 1)?, end)
        }
    };
    Some(&value[start..end])
}

/// The tableau rows whose anchored constants share one LHS attribute,
/// anchor and char length, by constant.
#[derive(Debug, Clone)]
struct Window {
    attr: AttrId,
    anchor: Anchor,
    chars: usize,
    /// Constant → the tableau rows anchored on it, ascending. Constants
    /// come from outside the program, so this map keeps SipHash.
    targets: HashMap<String, Vec<usize>>,
}

impl Window {
    /// The tableau rows a value of this window's attribute routes to.
    fn targets(&self, value: &str) -> &[usize] {
        window(value, self.anchor, self.chars)
            .and_then(|fragment| self.targets.get(fragment))
            .map_or(&[], Vec::as_slice)
    }
}

/// Routes relation rows to the tableau rows of one PFD they can match.
///
/// A tableau row routes on its first LHS cell with an [`anchor`]: a row can
/// match it only if that window of the row's value is the cell's constant.
/// A tableau row without one is *unrouted*, and every row is its candidate.
/// Candidates are a superset of the matching rows and the memos still run
/// every cell's own `key`, so routing changes no output.
#[derive(Debug, Clone)]
pub(crate) struct TableauRouter {
    windows: Vec<Window>,
    /// Per tableau row: does it route?
    routed: Vec<bool>,
    /// The unrouted tableau rows, ascending.
    unrouted: Vec<usize>,
}

impl TableauRouter {
    /// The router of `pfd`'s tableau.
    pub(crate) fn new(pfd: &Pfd) -> TableauRouter {
        let mut router = TableauRouter {
            windows: Vec::new(),
            routed: vec![false; pfd.tableau().len()],
            unrouted: Vec::new(),
        };
        for (ti, row) in pfd.tableau().iter().enumerate() {
            let mut cells = pfd.lhs().iter().zip(&row.lhs);
            let Some((attr, (at, c))) = cells.find_map(|(a, cell)| Some((*a, anchor(cell)?)))
            else {
                router.unrouted.push(ti);
                continue;
            };
            let chars = c.chars().count();
            let same = |w: &Window| (w.attr, w.anchor, w.chars) == (attr, at, chars);
            let w = match router.windows.iter().position(same) {
                Some(w) => w,
                None => {
                    router.windows.push(Window {
                        attr,
                        anchor: at,
                        chars,
                        targets: HashMap::new(),
                    });
                    router.windows.len() - 1
                }
            };
            router.windows[w].targets.entry(c).or_default().push(ti);
            router.routed[ti] = true;
        }
        router
    }

    /// Append to `out` every tableau row a row whose LHS values are
    /// `value(attr)` can match: those its values route to (ascending per
    /// window), then the unrouted ones.
    pub(crate) fn tableau_rows<'v>(&self, value: impl Fn(AttrId) -> &'v str, out: &mut Vec<usize>) {
        for w in &self.windows {
            out.extend_from_slice(w.targets(value(w.attr)));
        }
        out.extend_from_slice(&self.unrouted);
    }

    /// Every routed tableau row's candidate rows over `rel`.
    ///
    /// Each distinct value of a routed column is windowed and looked up
    /// once, into a flat symbol → tableau rows table; a counting sort then
    /// files the rows under their tableau rows in row order, so every
    /// candidate list comes out ascending.
    pub(crate) fn route(&self, rel: &Relation) -> Routes {
        let tableau_len = self.routed.len();
        let mut starts = vec![0usize; tableau_len + 1];
        let mut attrs: Vec<AttrId> = self.windows.iter().map(|w| w.attr).collect();
        attrs.sort_unstable();
        attrs.dedup();
        let columns: Vec<SymbolTargets<'_>> = attrs
            .into_iter()
            .map(|attr| SymbolTargets::new(rel, attr, &self.windows))
            .collect();
        for column in &columns {
            for &sym in column.symbols {
                for &t in column.targets(sym) {
                    starts[t as usize + 1] += 1;
                }
            }
        }
        for t in 0..tableau_len {
            starts[t + 1] += starts[t];
        }
        let mut rows = vec![0u32; starts[tableau_len]];
        let mut next = starts.clone();
        for rid in 0..rel.num_rows() {
            for column in &columns {
                for &t in column.targets(column.symbols[rid]) {
                    rows[next[t as usize]] = rid as u32;
                    next[t as usize] += 1;
                }
            }
        }
        Routes {
            routed: self.routed.clone(),
            starts,
            rows,
        }
    }
}

/// One routed column's symbols and, flat over its vocabulary, the tableau
/// rows each symbol routes to: `targets[offsets[s]..offsets[s + 1]]`.
struct SymbolTargets<'r> {
    symbols: &'r [u32],
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl<'r> SymbolTargets<'r> {
    fn new(rel: &'r Relation, attr: AttrId, windows: &[Window]) -> SymbolTargets<'r> {
        let (vocab, symbols) = rel.column_parts(attr);
        let mut offsets = Vec::with_capacity(vocab.len() + 1);
        let mut targets = Vec::new();
        offsets.push(0);
        for value in vocab {
            for w in windows.iter().filter(|w| w.attr == attr) {
                targets.extend(w.targets(value).iter().map(|&t| t as u32));
            }
            offsets.push(targets.len() as u32);
        }
        SymbolTargets {
            symbols,
            offsets,
            targets,
        }
    }

    fn targets(&self, sym: u32) -> &[u32] {
        let s = sym as usize;
        &self.targets[self.offsets[s] as usize..self.offsets[s + 1] as usize]
    }
}

/// Every routed tableau row's candidate rows over one relation, in one flat
/// array.
pub(crate) struct Routes {
    /// Per tableau row: does it route?
    routed: Vec<bool>,
    /// Routed tableau row `ti`'s candidates are `rows[starts[ti]..starts[ti + 1]]`.
    starts: Vec<usize>,
    rows: Vec<u32>,
}

impl Routes {
    /// Tableau row `ti`'s candidate rows, ascending, or `None` when it is
    /// unrouted and every row is a candidate.
    pub(crate) fn candidates(&self, ti: usize) -> Option<&[u32]> {
        self.routed[ti].then(|| &self.rows[self.starts[ti]..self.starts[ti + 1]])
    }
}

/// Slot value of a symbol not evaluated yet.
const UNSEEN: u32 = u32::MAX;
/// Slot value of a symbol whose value does not match the cell.
const NO_MATCH: u32 = u32::MAX - 1;

/// Symbol → key-id slots. Whole-relation scans (unrouted tableau rows) use
/// a dense table over the vocabulary; routed scans and the engine's
/// reconcile visit few rows, so they memoize in a map instead and stay
/// O(rows visited) rather than O(vocabulary).
enum Slots {
    Dense(Vec<u32>),
    Sparse(FxHashMap<u32, u32>),
}

/// One tableau cell evaluated over one column, once per distinct symbol.
struct CellMemo<'r> {
    cell: &'r TableauCell,
    vocab: &'r [String],
    symbols: &'r [u32],
    slots: Slots,
    /// Key text by key id (pattern cells; a wildcard's key is the whole
    /// value, so its key id is the symbol itself and the vocabulary is its
    /// key table — column vocabularies are duplicate-free).
    keys: Vec<&'r str>,
    /// Key text → key id. Cell text comes from outside the program, so this
    /// map keeps the default SipHash.
    ids: HashMap<&'r str, u32>,
}

impl<'r> CellMemo<'r> {
    fn new(rel: &'r Relation, attr: AttrId, cell: &'r TableauCell, dense: bool) -> CellMemo<'r> {
        let (vocab, symbols) = rel.column_parts(attr);
        let slots = if dense && !cell.is_wildcard() {
            Slots::Dense(vec![UNSEEN; vocab.len()])
        } else {
            Slots::Sparse(FxHashMap::default())
        };
        CellMemo {
            cell,
            vocab,
            symbols,
            slots,
            keys: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// Key id of row `rid`'s value, or `None` when it does not match.
    #[inline]
    fn key(&mut self, rid: RowId) -> Option<u32> {
        let sym = self.symbols[rid];
        if self.cell.is_wildcard() {
            return Some(sym);
        }
        let slot = match &mut self.slots {
            Slots::Dense(slots) => &mut slots[sym as usize],
            Slots::Sparse(slots) => slots.entry(sym).or_insert(UNSEEN),
        };
        if *slot == UNSEEN {
            let (cell, vocab) = (self.cell, self.vocab);
            *slot = match cell.key(&vocab[sym as usize]) {
                None => NO_MATCH,
                Some(text) => {
                    let next = self.keys.len() as u32;
                    *self.ids.entry(text).or_insert_with(|| {
                        self.keys.push(text);
                        next
                    })
                }
            };
        }
        (*slot != NO_MATCH).then_some(*slot)
    }

    /// The key text of key id `id`.
    fn text(&self, id: u32) -> &'r str {
        if self.cell.is_wildcard() {
            &self.vocab[id as usize]
        } else {
            self.keys[id as usize]
        }
    }
}

/// Order two key-id tuples by their key text, element by element — the
/// order of the reference's `BTreeMap<Vec<String>, _>`.
fn cmp_keys(memos: &[CellMemo<'_>], a: &[u32], b: &[u32]) -> Ordering {
    memos
        .iter()
        .zip(a.iter().zip(b))
        .find(|(_, (x, y))| x != y)
        .map_or(Ordering::Equal, |(memo, (x, y))| {
            memo.text(*x).cmp(memo.text(*y))
        })
}

/// One LHS-key group: the key-id tuple its rows share (one id per LHS
/// attribute) and the rows, ascending.
pub(crate) struct KeyGroup {
    pub(crate) key: Vec<u32>,
    pub(crate) rows: Vec<RowId>,
}

/// One tableau row of a PFD evaluated over a relation: a memo per LHS and
/// RHS cell, shared by the grouping pass and every group's kernel run.
pub(crate) struct TableauScan<'r> {
    pfd: &'r Pfd,
    ti: usize,
    num_rows: usize,
    /// The rows [`group_rows`](TableauScan::group_rows) visits, ascending;
    /// `None` visits every row.
    candidates: Option<&'r [u32]>,
    lhs: Vec<CellMemo<'r>>,
    rhs: Vec<CellMemo<'r>>,
}

impl<'r> TableauScan<'r> {
    /// A scan of tableau row `ti` that groups its routed candidates. An
    /// unrouted tableau row scans the whole relation and memoizes densely
    /// over the vocabulary; a routed one memoizes sparsely, so its cost
    /// tracks its candidates.
    pub(crate) fn routed(
        rel: &'r Relation,
        pfd: &'r Pfd,
        ti: usize,
        routes: &'r Routes,
    ) -> TableauScan<'r> {
        let candidates = routes.candidates(ti);
        TableauScan::new(rel, pfd, ti, candidates, candidates.is_none())
    }

    /// A scan that will visit a few groups (sparse memos).
    pub(crate) fn sparse(rel: &'r Relation, pfd: &'r Pfd, ti: usize) -> TableauScan<'r> {
        TableauScan::new(rel, pfd, ti, None, false)
    }

    fn new(
        rel: &'r Relation,
        pfd: &'r Pfd,
        ti: usize,
        candidates: Option<&'r [u32]>,
        dense: bool,
    ) -> TableauScan<'r> {
        let row = &pfd.tableau()[ti];
        let memos = |attrs: &[AttrId], cells: &'r [TableauCell]| -> Vec<CellMemo<'r>> {
            attrs
                .iter()
                .zip(cells)
                .map(|(a, cell)| CellMemo::new(rel, *a, cell, dense))
                .collect()
        };
        TableauScan {
            pfd,
            ti,
            num_rows: rel.num_rows(),
            candidates,
            lhs: memos(pfd.lhs(), &row.lhs),
            rhs: memos(pfd.rhs(), &row.rhs),
        }
    }

    /// Bucket every candidate row matching the LHS cells by its LHS key-id
    /// tuple. Groups come back in key-text order, rows ascending within
    /// each.
    pub(crate) fn group_rows(&mut self) -> Vec<KeyGroup> {
        let mut groups = self.groups();
        groups.sort_unstable_by(|a, b| cmp_keys(&self.lhs, &a.key, &b.key));
        groups
    }

    /// [`group_rows`](TableauScan::group_rows) in first-seen order, for
    /// callers whose answer does not depend on the order of groups.
    pub(crate) fn groups(&mut self) -> Vec<KeyGroup> {
        let mut groups: Vec<KeyGroup> = Vec::new();
        let mut group_of: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut key: Vec<u32> = Vec::with_capacity(self.lhs.len());
        let lhs = &mut self.lhs;
        let mut visit = |rid: RowId| {
            key.clear();
            for memo in lhs.iter_mut() {
                match memo.key(rid) {
                    Some(id) => key.push(id),
                    None => return,
                }
            }
            let g = match group_of.get(key.as_slice()) {
                Some(&g) => g,
                None => {
                    group_of.insert(key.clone(), groups.len());
                    groups.push(KeyGroup {
                        key: key.clone(),
                        rows: Vec::new(),
                    });
                    groups.len() - 1
                }
            };
            groups[g].rows.push(rid);
        };
        match self.candidates {
            Some(rows) => rows.iter().for_each(|&rid| visit(rid as RowId)),
            None => (0..self.num_rows).for_each(visit),
        }
        groups
    }

    /// The LHS key text of a group's key-id tuple (what [`Pfd::lhs_key`]
    /// returns for each of its rows).
    pub(crate) fn key_text(&self, key: &[u32]) -> Vec<String> {
        self.lhs
            .iter()
            .zip(key)
            .map(|(memo, id)| memo.text(*id).to_string())
            .collect()
    }

    /// Evaluate the RHS cells on one group's rows: a row failing one goes
    /// to `fail` with that cell's attribute, and the rest are pushed to
    /// `ok_rows` with their RHS key-id tuples appended to `ok_keys`. Stops
    /// as soon as `fail` breaks.
    fn rhs_keys(
        &mut self,
        rows: &[RowId],
        ok_rows: &mut Vec<RowId>,
        ok_keys: &mut Vec<u32>,
        mut fail: impl FnMut(RowId, AttrId) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        'rows: for &rid in rows {
            let start = ok_keys.len();
            for (memo, b) in self.rhs.iter_mut().zip(self.pfd.rhs()) {
                match memo.key(rid) {
                    Some(id) => ok_keys.push(id),
                    None => {
                        ok_keys.truncate(start);
                        fail(rid, *b)?;
                        continue 'rows;
                    }
                }
            }
            ok_rows.push(rid);
        }
        ControlFlow::Continue(())
    }

    /// The conforming rows of one group partitioned by RHS key, in key-text
    /// order, with the index of the majority partition: the largest, ties
    /// going to the smallest key. `None` when the pair semantics cannot
    /// fire — fewer than two rows, or one partition. Most groups are clean
    /// and need no map at all.
    fn partitions<'k>(
        &self,
        ok_rows: &[RowId],
        ok_keys: &'k [u32],
    ) -> Option<(Vec<Partition<'k>>, usize)> {
        let width = self.rhs.len();
        if ok_rows.len() < 2 {
            return None;
        }
        let first = &ok_keys[..width];
        if ok_keys.chunks_exact(width).all(|k| k == first) {
            return None;
        }
        let mut index: FxHashMap<&[u32], usize> = FxHashMap::default();
        let mut parts: Vec<Partition<'k>> = Vec::new();
        for (&rid, key) in ok_rows.iter().zip(ok_keys.chunks_exact(width)) {
            let p = *index.entry(key).or_insert_with(|| {
                parts.push((key, Vec::new()));
                parts.len() - 1
            });
            parts[p].1.push(rid);
        }
        parts.sort_unstable_by(|a, b| cmp_keys(&self.rhs, a.0, b.0));
        let mut majority = 0;
        for (p, (_, prows)) in parts.iter().enumerate() {
            if prows.len() > parts[majority].1.len() {
                majority = p;
            }
        }
        Some((parts, majority))
    }

    /// The violations of one LHS-key group (`rows` ascending), appended to
    /// `out` in the reference's order.
    ///
    /// A row failing an RHS pattern yields a single-tuple violation; the
    /// rest are partitioned by RHS key, and every row outside the majority
    /// partition (the largest; ties go to the smallest key) pairs with its
    /// first row. Every violation carries the group statistics repair
    /// scoring reads. With a `limit` ([`Pfd::satisfies`]) the scan stops
    /// once `out` holds that many, and single-tuple violations are emitted
    /// during the scan with a zeroed majority count.
    pub(crate) fn violations(
        &mut self,
        rows: &[RowId],
        out: &mut Vec<Violation>,
        limit: Option<usize>,
    ) {
        let at_limit = |out: &Vec<Violation>| limit.is_some_and(|l| out.len() >= l);
        let (pfd, ti) = (self.pfd, self.ti);
        let group_size = rows.len() as u32;
        let mut ok_rows: Vec<RowId> = Vec::with_capacity(rows.len());
        let mut ok_keys: Vec<u32> = Vec::with_capacity(rows.len() * self.rhs.len());
        let mut failures: Vec<(RowId, AttrId)> = Vec::new();
        let scanned = self.rhs_keys(rows, &mut ok_rows, &mut ok_keys, |rid, b| {
            if limit.is_some() {
                out.push(Violation::single_tuple(pfd, ti, rid, b, group_size, 0));
                if at_limit(out) {
                    return ControlFlow::Break(());
                }
            } else {
                failures.push((rid, b));
            }
            ControlFlow::Continue(())
        });
        if scanned.is_break() {
            return;
        }
        let ok_count = ok_rows.len() as u32;
        for (rid, b) in failures {
            out.push(Violation::single_tuple(
                pfd, ti, rid, b, group_size, ok_count,
            ));
        }

        // Pair semantics.
        let Some((parts, majority)) = self.partitions(&ok_rows, &ok_keys) else {
            return;
        };
        let (majority_key, majority_rows) = &parts[majority];
        let rep = majority_rows[0];
        let majority_size = majority_rows.len() as u32;
        for (p, (key, prows)) in parts.iter().enumerate() {
            if p == majority {
                continue;
            }
            // First RHS attribute whose key differs from the majority's.
            let j = majority_key
                .iter()
                .zip(key.iter())
                .position(|(a, b)| a != b)
                .unwrap_or(0);
            let attr = pfd.rhs()[j];
            for &rid in prows {
                out.push(Violation::tuple_pair(
                    pfd,
                    ti,
                    rep,
                    rid,
                    attr,
                    group_size,
                    majority_size,
                ));
                if at_limit(out) {
                    return;
                }
            }
        }
    }

    /// Mark in `suspects` the offending row of every violation
    /// [`violations`](TableauScan::violations) reports for one group —
    /// rows failing an RHS pattern and every row outside the majority
    /// partition — without building the violations. Breaks as soon as
    /// `suspects` holds more than `allowed` rows.
    pub(crate) fn mark_suspects(
        &mut self,
        rows: &[RowId],
        suspects: &mut RowSetAccumulator,
        allowed: usize,
    ) -> ControlFlow<()> {
        let mut mark = |rid: RowId| {
            suspects.insert(rid);
            if suspects.len() > allowed {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        };
        let mut ok_rows: Vec<RowId> = Vec::with_capacity(rows.len());
        let mut ok_keys: Vec<u32> = Vec::with_capacity(rows.len() * self.rhs.len());
        self.rhs_keys(rows, &mut ok_rows, &mut ok_keys, |rid, _| mark(rid))?;
        let Some((parts, majority)) = self.partitions(&ok_rows, &ok_keys) else {
            return ControlFlow::Continue(());
        };
        for (p, (_, prows)) in parts.iter().enumerate() {
            if p != majority {
                prows.iter().try_for_each(|&rid| mark(rid))?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// One RHS partition of a group: the key-id tuple its rows share and the
/// rows, ascending.
type Partition<'k> = (&'k [u32], Vec<RowId>);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::TableauRow;

    fn cell(src: &str) -> TableauCell {
        TableauCell::parse(src).unwrap()
    }

    fn anchored(at: Anchor, c: &str) -> Option<(Anchor, String)> {
        Some((at, c.to_string()))
    }

    /// `a → b` with one tableau row per LHS cell text (RHS wildcard), over
    /// a relation whose `a` column holds `values`.
    fn routed_pfd(values: &[&str], cells: &[&str]) -> (Relation, Pfd) {
        let rows = values.iter().map(|v| vec![*v, "-"]).collect();
        let rel = Relation::from_rows("R", &["a", "b"], rows).unwrap();
        let tableau = (cells.iter())
            .map(|c| TableauRow::parse(&[c], &["_"]).unwrap())
            .collect();
        let pfd = Pfd::new("R", vec![AttrId(0)], vec![AttrId(1)], tableau).unwrap();
        (rel, pfd)
    }

    fn targets(router: &TableauRouter, value: &str) -> Vec<usize> {
        let mut out = Vec::new();
        router.tableau_rows(|_| value, &mut out);
        out
    }

    #[test]
    fn a_constant_after_a_fixed_length_prefix_routes_from_the_start() {
        assert_eq!(
            anchor(&cell(r"[19]\D{3}")),
            anchored(Anchor::Start(0), "19")
        );
        assert_eq!(
            anchor(&cell(r"\LU\LL{5}\ [081]")),
            anchored(Anchor::Start(7), "081")
        );
        assert_eq!(
            anchor(&cell(r"Los\ [Angeles]")),
            anchored(Anchor::Start(4), "Angeles")
        );
    }

    #[test]
    fn a_constant_before_a_fixed_length_suffix_routes_from_the_end() {
        assert_eq!(
            anchor(&cell(r"\LU\LL+\ [01]")),
            anchored(Anchor::End(0), "01")
        );
        assert_eq!(anchor(&cell(r"\A*[1]\D{2}")), anchored(Anchor::End(2), "1"));
    }

    #[test]
    fn wildcards_variable_parts_and_interior_constants_are_unroutable() {
        for src in ["_", r"[\D{3}]\D{2}", r"\A*[\D+]\A*", r"\A*[1]\A*"] {
            assert_eq!(anchor(&cell(src)), None, "{src}");
        }
        let (rel, pfd) = routed_pfd(&["1", "2"], &["_"]);
        let router = TableauRouter::new(&pfd);
        assert_eq!(router.route(&rel).candidates(0), None);
        assert_eq!(targets(&router, "anything"), [0]);
    }

    #[test]
    fn a_value_shorter_than_its_window_routes_nowhere() {
        let (rel, pfd) = routed_pfd(&["1", "19", "190", "x90"], &[r"\D[90]\A*"]);
        let router = TableauRouter::new(&pfd);
        assert_eq!(targets(&router, "19"), [0usize; 0]);
        assert_eq!(targets(&router, "190"), [0]);
        assert_eq!(router.route(&rel).candidates(0), Some(&[2u32, 3][..]));
    }

    #[test]
    fn multi_byte_values_route_by_chars_not_bytes() {
        let values = ["aé9", "éé", "é", "語9", "x語9", "語"];
        let (rel, pfd) = routed_pfd(&values, &[r"\A[é]\A*", r"\A*[語]\D"]);
        let router = TableauRouter::new(&pfd);
        let routes = router.route(&rel);
        assert_eq!(routes.candidates(0), Some(&[0u32, 1][..]));
        assert_eq!(routes.candidates(1), Some(&[3u32, 4][..]));
        assert_eq!(targets(&router, "x語9"), [1]);
    }

    #[test]
    fn tableau_rows_sharing_an_anchor_share_candidates_in_row_order() {
        let values = ["ab", "b", "a", "ba", "a"];
        let cells = [r"[a]\A*", "_", r"[a]\A*", r"[b]\A*"];
        let (rel, pfd) = routed_pfd(&values, &cells);
        let router = TableauRouter::new(&pfd);
        let routes = router.route(&rel);
        assert_eq!(routes.candidates(0), Some(&[0u32, 2, 4][..]));
        assert_eq!(routes.candidates(1), None);
        assert_eq!(routes.candidates(2), Some(&[0u32, 2, 4][..]));
        assert_eq!(routes.candidates(3), Some(&[1u32, 3][..]));
        assert_eq!(targets(&router, "ab"), [0, 2, 1]);
    }
}
