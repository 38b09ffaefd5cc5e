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

use crate::pfd::{Pfd, Violation};
use crate::tableau::TableauCell;
use pfd_relation::{AttrId, FxHashMap, Relation, RowId};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Slot value of a symbol not evaluated yet.
const UNSEEN: u32 = u32::MAX;
/// Slot value of a symbol whose value does not match the cell.
const NO_MATCH: u32 = u32::MAX - 1;

/// Symbol → key-id slots. Whole-relation scans use a dense table over the
/// vocabulary; the engine's reconcile touches one group, so it memoizes in
/// a map instead and stays O(group) rather than O(vocabulary).
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
    lhs: Vec<CellMemo<'r>>,
    rhs: Vec<CellMemo<'r>>,
}

impl<'r> TableauScan<'r> {
    /// A scan that will visit the whole relation (dense memos).
    pub(crate) fn dense(rel: &'r Relation, pfd: &'r Pfd, ti: usize) -> TableauScan<'r> {
        TableauScan::new(rel, pfd, ti, true)
    }

    /// A scan that will visit a few groups (sparse memos).
    pub(crate) fn sparse(rel: &'r Relation, pfd: &'r Pfd, ti: usize) -> TableauScan<'r> {
        TableauScan::new(rel, pfd, ti, false)
    }

    fn new(rel: &'r Relation, pfd: &'r Pfd, ti: usize, dense: bool) -> TableauScan<'r> {
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
            lhs: memos(pfd.lhs(), &row.lhs),
            rhs: memos(pfd.rhs(), &row.rhs),
        }
    }

    /// Bucket every row matching the LHS cells by its LHS key-id tuple.
    /// Groups come back in key-text order, rows ascending within each.
    pub(crate) fn group_rows(&mut self) -> Vec<KeyGroup> {
        let mut groups: Vec<KeyGroup> = Vec::new();
        let mut group_of: FxHashMap<Vec<u32>, usize> = FxHashMap::default();
        let mut key: Vec<u32> = Vec::with_capacity(self.lhs.len());
        'rows: for rid in 0..self.num_rows {
            key.clear();
            for memo in &mut self.lhs {
                match memo.key(rid) {
                    Some(id) => key.push(id),
                    None => continue 'rows,
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
        }
        groups.sort_unstable_by(|a, b| cmp_keys(&self.lhs, &a.key, &b.key));
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
        let width = self.rhs.len();
        let mut ok_rows: Vec<RowId> = Vec::with_capacity(rows.len());
        let mut ok_keys: Vec<u32> = Vec::with_capacity(rows.len() * width);
        let mut failures: Vec<(RowId, AttrId)> = Vec::new();
        'rows: for &rid in rows {
            let start = ok_keys.len();
            for (memo, b) in self.rhs.iter_mut().zip(pfd.rhs()) {
                match memo.key(rid) {
                    Some(id) => ok_keys.push(id),
                    None => {
                        ok_keys.truncate(start);
                        if limit.is_some() {
                            out.push(Violation::single_tuple(pfd, ti, rid, *b, group_size, 0));
                            if at_limit(out) {
                                return;
                            }
                        } else {
                            failures.push((rid, *b));
                        }
                        continue 'rows;
                    }
                }
            }
            ok_rows.push(rid);
        }
        let ok_count = ok_rows.len() as u32;
        for (rid, b) in failures {
            out.push(Violation::single_tuple(
                pfd, ti, rid, b, group_size, ok_count,
            ));
        }

        // Pair semantics: partition the conforming rows by RHS key. Most
        // groups are clean — one partition — and need no map at all.
        if ok_rows.len() < 2 {
            return;
        }
        let first = &ok_keys[..width];
        if ok_keys.chunks_exact(width).all(|k| k == first) {
            return;
        }
        let mut index: FxHashMap<&[u32], usize> = FxHashMap::default();
        let mut parts: Vec<(&[u32], Vec<RowId>)> = Vec::new();
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
}
