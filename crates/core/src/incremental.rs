//! Incremental violation maintenance for interactive cleaning.
//!
//! The paper's companion demo (ANMAT \[33\]) is interactive: a steward edits
//! a cell and immediately sees which violations appeared or disappeared.
//! This module offers two engines with identical observable semantics:
//!
//! - [`IncrementalChecker`] — the naive reference: every edit re-runs the
//!   string-keyed `reference::violations` for each PFD mentioning the
//!   touched attribute and diffs against a cached violation vector.
//!   O(relation) per edit, but trivially correct, and independent of the
//!   interned grouping kernel the delta engine runs on; the property suite
//!   pins the delta engine to it.
//! - [`DeltaEngine`] — the production engine: per-PFD *group indexes* keyed
//!   by LHS tableau-match signature (one [`PostingList`] row set per group),
//!   so an edit re-evaluates only the rows in the touched group(s) and
//!   violation deltas fall out of group membership changes. O(group) per
//!   edit instead of O(relation).
//!
//! Both engines speak the same mutation language ([`Edit`]) and produce the
//! same [`ViolationDelta`]s; [`DeltaEngine::apply_batch`] additionally
//! coalesces a whole edit script's invalidations and reconciles each dirty
//! group once.
//!
//! ## Delta semantics
//!
//! In a delta a violation's identity is its *suspect cell*: PFD, tableau
//! row, kind, attribute and offending row (the single tuple, or the
//! tuple-pair row outside the majority partition). Its partner (a tuple
//! pair's first row) and its group statistics (`group_size`,
//! `majority_size`, the context repair scoring reads) are annotations.
//!
//! A delta's `introduced` list uses post-mutation row ids, `resolved` uses
//! pre-mutation ids *remapped through any deletions where possible*:
//! a resolved violation that mentions a deleted row keeps its pre-delete
//! ids (there is no post-state name for a row that no longer exists); every
//! other resolved violation is renumbered into the post-state. Violations
//! that merely had their row ids shifted by a deletion are **not** reported
//! as deltas. A violation whose suspect cell survives the edit while its
//! partner or group statistics changed (its LHS group grew, or its
//! majority shifted) is reported once, as a `regrouped` (before, after)
//! pair in post-mutation ids — not as a resolved/introduced pair. A
//! resolved violation that mentions a deleted row never pairs. `introduced`
//! and `resolved` are sorted canonically (PFD index, tableau row, kind,
//! attribute, rows), `regrouped` by its after entries' PFD index, tableau
//! row, kind, attribute, partner, group statistics and offending row, so
//! deltas compare with `==`.

use crate::grouping::{TableauRouter, TableauScan};
use crate::pfd::{Pfd, Violation, ViolationKind};
use crate::reference;
use pfd_relation::{AttrId, PostingList, Relation, RelationError, RowId, SchemaError};
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// One relation mutation, the unit of the incremental engines' input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Edit {
    /// Overwrite the cell at `(row, attr)`.
    Set {
        /// Target row.
        row: RowId,
        /// Target attribute.
        attr: AttrId,
        /// The value to write.
        value: String,
    },
    /// Append a row (its id is the relation's row count at apply time).
    Insert {
        /// The new row's cells, one per schema attribute.
        cells: Vec<String>,
    },
    /// Delete a row; higher row ids shift down by one.
    Delete {
        /// The row to remove.
        row: RowId,
    },
}

/// One violation attributed to the PFD (by index) that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaEntry {
    /// Index into the engine's PFD set.
    pub pfd_index: usize,
    /// The violation itself.
    pub violation: Violation,
}

/// The change in violations caused by one edit (or one batch of edits).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViolationDelta {
    /// The relation version after the mutation(s).
    pub version: u64,
    /// Violations present after the edit but not before.
    pub introduced: Vec<DeltaEntry>,
    /// Violations present before the edit but not after (see the module
    /// docs for row-id semantics across deletions).
    pub resolved: Vec<DeltaEntry>,
    /// Violations present before and after the edit under the same suspect
    /// cell whose partner or group statistics changed, as (before, after).
    pub regrouped: Vec<(DeltaEntry, DeltaEntry)>,
}

impl ViolationDelta {
    /// Did the edit change anything?
    pub fn is_empty(&self) -> bool {
        self.introduced.is_empty() && self.resolved.is_empty() && self.regrouped.is_empty()
    }
}

/// Canonical delta ordering: PFD index, tableau row, kind, attr, rows, cells.
pub(crate) type EntryKey = (usize, usize, u8, AttrId, Vec<RowId>, Vec<(RowId, AttrId)>);

fn kind_rank(kind: ViolationKind) -> u8 {
    match kind {
        ViolationKind::SingleTuple => 0,
        ViolationKind::TuplePair => 1,
    }
}

/// Canonical sort key as an owned value, for maps keyed in the canonical
/// order (the repair engine's live violation map) and the reference
/// engine's sort.
pub(crate) fn entry_key(e: &DeltaEntry) -> EntryKey {
    let v = &e.violation;
    (
        e.pfd_index,
        v.tableau_row,
        kind_rank(v.kind),
        v.attr,
        v.rows().to_vec(),
        v.cells().to_vec(),
    )
}

/// The canonical order of [`entry_key`], compared in place.
fn cmp_entries(a: &DeltaEntry, b: &DeltaEntry) -> Ordering {
    (a.pfd_index.cmp(&b.pfd_index)).then_with(|| cmp_violations(&a.violation, &b.violation))
}

/// [`cmp_entries`] within one PFD.
fn cmp_violations(v: &Violation, w: &Violation) -> Ordering {
    (v.tableau_row, kind_rank(v.kind), v.attr)
        .cmp(&(w.tableau_row, kind_rank(w.kind), w.attr))
        .then_with(|| v.rows().cmp(w.rows()))
        .then_with(|| v.cells().cmp(w.cells()))
}

/// A violation's identity in deltas, its suspect cell: PFD index, tableau
/// row, kind, attribute and offending row.
fn suspect_cell(e: &DeltaEntry) -> (usize, usize, u8, AttrId, RowId) {
    let v = &e.violation;
    (
        e.pfd_index,
        v.tableau_row,
        kind_rank(v.kind),
        v.attr,
        v.offending_row(),
    )
}

/// What the regrouped violations one `delta` event record names share, read
/// off their after entries: PFD index, tableau row, kind, attribute,
/// partner and group statistics. `regrouped` is sorted by it, then by
/// offending row, so each record's violations sit side by side.
#[allow(clippy::type_complexity)]
pub(crate) fn regroup_record(
    after: &DeltaEntry,
) -> (usize, usize, u8, AttrId, Option<RowId>, usize, usize) {
    let v = &after.violation;
    (
        after.pfd_index,
        v.tableau_row,
        kind_rank(v.kind),
        v.attr,
        v.partner(),
        v.group_size(),
        v.majority_size(),
    )
}

/// Walk two lists sorted by `cmp` in step: `f` gets each item of `a` or
/// `b` together with the item of the other list that compares equal to
/// it, if there is one.
fn merge_join<T>(
    a: Vec<T>,
    b: Vec<T>,
    cmp: impl Fn(&T, &T) -> Ordering,
    mut f: impl FnMut(Option<T>, Option<T>),
) {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    loop {
        let order = match (a.peek(), b.peek()) {
            (Some(x), Some(y)) => cmp(x, y),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let x = if order.is_le() { a.next() } else { None };
        let y = if order.is_ge() { b.next() } else { None };
        f(x, y);
    }
}

/// Assemble a delta. One sort-merge pairs the introduced and resolved
/// entries by suspect cell: an equal pair is a violation that "moved" with
/// its rows (e.g. a whole group re-keyed by a batch) and cancels, so the
/// per-group diff agrees with a whole-relation diff that never saw it; any
/// other pair is regrouped. The drained (deleted-row) resolutions join
/// `resolved` unpaired, and every list is sorted.
fn finalize_delta(
    version: u64,
    mut introduced: Vec<DeltaEntry>,
    mut resolved: Vec<DeltaEntry>,
    drained: Vec<DeltaEntry>,
) -> ViolationDelta {
    introduced.sort_by_key(suspect_cell);
    resolved.sort_by_key(suspect_cell);
    let mut delta = ViolationDelta {
        version,
        ..ViolationDelta::default()
    };
    let by_suspect = |a: &DeltaEntry, b: &DeltaEntry| suspect_cell(a).cmp(&suspect_cell(b));
    merge_join(introduced, resolved, by_suspect, |after, before| {
        match (after, before) {
            (Some(a), Some(b)) if a == b => {}
            (Some(a), Some(b)) => delta.regrouped.push((b, a)),
            (a, b) => {
                delta.introduced.extend(a);
                delta.resolved.extend(b);
            }
        }
    });
    delta.resolved.extend(drained);
    delta.introduced.sort_by(cmp_entries);
    delta.resolved.sort_by(cmp_entries);
    (delta.regrouped)
        .sort_by_key(|(_, after)| (regroup_record(after), after.violation.offending_row()));
    delta
}

/// Validate a whole edit script against the relation's evolving shape
/// before mutating anything, so a failed batch leaves no partial state.
fn validate_batch(rel: &Relation, edits: &[Edit]) -> Result<(), RelationError> {
    let arity = rel.schema().arity();
    let mut rows = rel.num_rows();
    for edit in edits {
        match edit {
            Edit::Set { row, attr, .. } => {
                if *row >= rows {
                    return Err(RelationError::RowOutOfRange(*row));
                }
                if attr.index() >= arity {
                    return Err(RelationError::Schema(SchemaError::AttrIdOutOfRange(*attr)));
                }
            }
            Edit::Insert { cells } => {
                if cells.len() != arity {
                    return Err(RelationError::ArityMismatch {
                        row: rows,
                        expected: arity,
                        got: cells.len(),
                    });
                }
                rows += 1;
            }
            Edit::Delete { row } => {
                if *row >= rows {
                    return Err(RelationError::RowOutOfRange(*row));
                }
                rows -= 1;
            }
        }
    }
    Ok(())
}

/// Remap a row id across the deletion of `removed`.
fn shift_after_delete(id: RowId, removed: RowId) -> RowId {
    if id > removed {
        id - 1
    } else {
        id
    }
}

// ---------------------------------------------------------------------------
// Naive reference engine
// ---------------------------------------------------------------------------

/// A relation paired with a PFD set and cached per-PFD violation vectors.
///
/// Every edit re-runs the string-keyed `reference::violations` for the
/// affected PFDs — a full relation scan. This is the *reference* engine:
/// simple enough to trust, and the semantics [`DeltaEngine`] is
/// property-tested against. Use the delta engine for anything interactive.
#[derive(Debug, Clone)]
pub struct IncrementalChecker {
    rel: Relation,
    pfds: Vec<Pfd>,
    /// Cached violations per PFD (same indexing as `pfds`).
    cache: Vec<Vec<Violation>>,
}

impl IncrementalChecker {
    /// Build the checker and compute the initial violation sets.
    pub fn new(rel: Relation, pfds: Vec<Pfd>) -> IncrementalChecker {
        let cache = pfds
            .iter()
            .map(|p| reference::violations(p, &rel))
            .collect();
        IncrementalChecker { rel, pfds, cache }
    }

    /// The current relation state.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The monitored PFDs.
    pub fn pfds(&self) -> &[Pfd] {
        &self.pfds
    }

    /// All current violations, flattened across PFDs with their PFD index.
    pub fn violations(&self) -> impl Iterator<Item = (usize, &Violation)> {
        self.cache
            .iter()
            .enumerate()
            .flat_map(|(i, vs)| vs.iter().map(move |v| (i, v)))
    }

    /// Current violations in the canonical delta order (for comparisons).
    pub fn sorted_violations(&self) -> Vec<DeltaEntry> {
        let mut out: Vec<DeltaEntry> = self
            .violations()
            .map(|(i, v)| DeltaEntry {
                pfd_index: i,
                violation: v.clone(),
            })
            .collect();
        out.sort_by_key(entry_key);
        out
    }

    /// Total violation count.
    pub fn violation_count(&self) -> usize {
        self.cache.iter().map(Vec::len).sum()
    }

    /// Distinct suspect cells across all PFDs (for dashboards).
    pub fn suspect_cells(&self) -> BTreeSet<(RowId, AttrId)> {
        self.violations()
            .map(|(_, v)| (v.offending_row(), v.attr))
            .collect()
    }

    /// Apply a cell edit and return the violation delta. Only PFDs that
    /// mention `attr` are re-evaluated.
    pub fn set_cell(
        &mut self,
        row: RowId,
        attr: AttrId,
        value: String,
    ) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Set { row, attr, value })
    }

    /// Append a row and return the violation delta.
    pub fn insert_row(&mut self, cells: Vec<String>) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Insert { cells })
    }

    /// Delete a row (renumbering higher ids) and return the violation delta.
    pub fn delete_row(&mut self, row: RowId) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Delete { row })
    }

    /// Apply one edit.
    pub fn apply(&mut self, edit: Edit) -> Result<ViolationDelta, RelationError> {
        self.apply_batch(std::slice::from_ref(&edit))
    }

    /// Apply an edit script, recomputing affected PFDs once at the end.
    pub fn apply_batch(&mut self, edits: &[Edit]) -> Result<ViolationDelta, RelationError> {
        validate_batch(&self.rel, edits)?;
        let mut drained: Vec<DeltaEntry> = Vec::new();
        let mut touched = vec![false; self.pfds.len()];
        for edit in edits {
            match edit {
                Edit::Set { row, attr, value } => {
                    self.rel
                        .set_cell(*row, *attr, value.clone())
                        .expect("validated");
                    for (pi, pfd) in self.pfds.iter().enumerate() {
                        if pfd.lhs().contains(attr) || pfd.rhs().contains(attr) {
                            touched[pi] = true;
                        }
                    }
                }
                Edit::Insert { cells } => {
                    self.rel.push_row(cells.clone()).expect("validated");
                    touched.iter_mut().for_each(|t| *t = true);
                }
                Edit::Delete { row } => {
                    for (pi, cache) in self.cache.iter_mut().enumerate() {
                        cache.retain(|v| {
                            if v.rows().contains(row) {
                                drained.push(DeltaEntry {
                                    pfd_index: pi,
                                    violation: v.clone(),
                                });
                                false
                            } else {
                                true
                            }
                        });
                        for v in cache.iter_mut() {
                            v.remap_rows(|id| shift_after_delete(id, *row));
                        }
                    }
                    self.rel.delete_row(*row).expect("validated");
                    touched.iter_mut().for_each(|t| *t = true);
                }
            }
        }

        let mut introduced = Vec::new();
        let mut resolved = Vec::new();
        for (pi, pfd) in self.pfds.iter().enumerate() {
            if !touched[pi] {
                continue;
            }
            let fresh = reference::violations(pfd, &self.rel);
            for v in &fresh {
                if !self.cache[pi].contains(v) {
                    introduced.push(DeltaEntry {
                        pfd_index: pi,
                        violation: v.clone(),
                    });
                }
            }
            for v in &self.cache[pi] {
                if !fresh.contains(v) {
                    resolved.push(DeltaEntry {
                        pfd_index: pi,
                        violation: v.clone(),
                    });
                }
            }
            self.cache[pi] = fresh;
        }
        Ok(finalize_delta(
            self.rel.version(),
            introduced,
            resolved,
            drained,
        ))
    }

    /// Consume the checker, returning the (possibly edited) relation.
    pub fn into_relation(self) -> Relation {
        self.rel
    }
}

// ---------------------------------------------------------------------------
// Delta engine
// ---------------------------------------------------------------------------

/// One LHS-key group: its member rows and their cached violations.
#[derive(Debug, Clone)]
struct Group {
    rows: PostingList,
    violations: Vec<Violation>,
}

/// The group index of one tableau row: LHS key → group. Every row matching
/// the tableau row's LHS sits in exactly one group, the one under its key.
type Groups = HashMap<Vec<String>, Group>;

/// The LHS key `row` has under tableau row `ti` of `pfd`, as `groups`
/// records it: `None` when the row is in no group.
///
/// A tableau row holding at most one group (every tableau row whose LHS key
/// is a constant) answers from that group's membership; any other asks the
/// relation with [`Pfd::lhs_key`], which agrees with the map because
/// membership is re-keyed on every LHS write.
fn group_key(
    groups: &Groups,
    rel: &Relation,
    pfd: &Pfd,
    ti: usize,
    row: RowId,
) -> Option<Vec<String>> {
    if groups.len() <= 1 {
        groups
            .iter()
            .find(|(_, g)| g.rows.contains(row))
            .map(|(key, _)| key.clone())
    } else {
        pfd.lhs_key(rel, row, &pfd.tableau()[ti])
    }
}

/// Diff a group's cached violations against its fresh ones by one
/// sort-merge in canonical order: fresh ones not cached are introduced,
/// cached ones not fresh are resolved. A group holds one violation per
/// offending row, so two that share a canonical key but not their group
/// statistics are both changes. Neither list is reordered: the cache keeps
/// the order the scan produced, which snapshots store.
fn diff_group(
    pfd_index: usize,
    cached: &[Violation],
    fresh: &[Violation],
    introduced: &mut Vec<DeltaEntry>,
    resolved: &mut Vec<DeltaEntry>,
) {
    fn sorted(vs: &[Violation]) -> Vec<&Violation> {
        let mut refs: Vec<&Violation> = vs.iter().collect();
        refs.sort_by(|v, w| cmp_violations(v, w));
        refs
    }
    let entry = |v: &Violation| DeltaEntry {
        pfd_index,
        violation: v.clone(),
    };
    let by_canon = |v: &&Violation, w: &&Violation| cmp_violations(v, w);
    merge_join(sorted(cached), sorted(fresh), by_canon, |old, new| {
        if old != new {
            resolved.extend(old.map(entry));
            introduced.extend(new.map(entry));
        }
    });
}

/// Add `row` to the group under `key`, creating it over `universe` rows.
fn join_group(groups: &mut Groups, key: Vec<String>, row: RowId, universe: usize) {
    groups
        .entry(key)
        .or_insert_with(|| Group {
            rows: PostingList::empty(universe),
            violations: Vec::new(),
        })
        .rows
        .insert(row);
}

/// One exported LHS-key group, the persistence image of [`Group`].
///
/// Used by `snapshot` to serialize the engine's index without exposing the
/// private group structures.
#[derive(Debug, Clone)]
pub(crate) struct GroupSnapshot {
    /// The LHS key shared by every member row.
    pub(crate) key: Vec<String>,
    /// Sorted member rows.
    pub(crate) rows: PostingList,
    /// Cached violations of this group.
    pub(crate) violations: Vec<Violation>,
}

/// Incremental violation maintenance with per-PFD group indexes.
///
/// Construction groups every relation row by its LHS tableau-match
/// signature and caches per-group violations. Each PFD's
/// `TableauRouter` is built once from its tableau; an edit visits only
/// the tableau rows the edited row's old or new LHS values route to, plus
/// the unrouted ones, since it can sit in no other tableau row's groups.
/// An edit then:
///
/// 1. updates group *membership* for PFDs whose LHS mentions the edited
///    attribute: the row's old key is read before the write — from the
///    group's row set when the tableau row holds one group, else from the
///    relation — and its new key after it;
/// 2. marks the touched group(s) dirty — the old and new group of a moved
///    row, or the row's current group for an RHS change;
/// 3. re-evaluates only the dirty groups, diffing each group's fresh
///    violations against its cache.
///
/// [`apply_batch`](DeltaEngine::apply_batch) coalesces steps 1–2 across a
/// whole edit script and runs step 3 once per distinct dirty group, sharing
/// one scratch buffer across reconciliations.
#[derive(Debug, Clone)]
pub struct DeltaEngine {
    rel: Relation,
    pfds: Vec<Pfd>,
    /// `index[pfd][tableau_row]` is that tableau row's group index.
    index: Vec<Vec<Groups>>,
    /// One router per PFD, derived from its tableau (never persisted).
    routers: Vec<TableauRouter>,
    /// Cached violations across every group, kept current wherever a
    /// group's cache changes.
    violations: usize,
    /// Reused across group reconciliations (the "shared scratch buffer" of
    /// the batched RHS decision).
    scratch: Vec<Violation>,
}

impl DeltaEngine {
    /// Build the engine: group every row, compute per-group violations.
    pub fn new(rel: Relation, pfds: Vec<Pfd>) -> DeltaEngine {
        let routers: Vec<TableauRouter> = pfds.iter().map(TableauRouter::new).collect();
        let index = (pfds.iter().zip(&routers))
            .map(|(pfd, router)| Self::build_index(&rel, pfd, router))
            .collect();
        DeltaEngine::assemble(rel, pfds, index, routers)
    }

    /// The engine over a built index, with its violation count summed.
    fn assemble(
        rel: Relation,
        pfds: Vec<Pfd>,
        index: Vec<Vec<Groups>>,
        routers: Vec<TableauRouter>,
    ) -> DeltaEngine {
        let violations = (index.iter().flatten().flat_map(HashMap::values))
            .map(|g| g.violations.len())
            .sum();
        DeltaEngine {
            rel,
            pfds,
            index,
            routers,
            violations,
            scratch: Vec::new(),
        }
    }

    fn build_index(rel: &Relation, pfd: &Pfd, router: &TableauRouter) -> Vec<Groups> {
        let num_rows = rel.num_rows();
        let routes = router.route(rel);
        (0..pfd.tableau().len())
            .map(|ti| {
                let mut scan = TableauScan::routed(rel, pfd, ti, &routes);
                let key_groups = scan.group_rows();
                let mut groups = HashMap::with_capacity(key_groups.len());
                for group in key_groups {
                    let mut violations = Vec::new();
                    scan.violations(&group.rows, &mut violations, None);
                    let ids = group.rows.iter().map(|&rid| rid as u32).collect();
                    groups.insert(
                        scan.key_text(&group.key),
                        Group {
                            rows: PostingList::from_sorted(ids, num_rows),
                            violations,
                        },
                    );
                }
                groups
            })
            .collect()
    }

    /// Export the group indexes for snapshot serialization:
    /// `out[pfd][tableau_row]` is that tableau row's groups, sorted by LHS
    /// key so the export (and hence the snapshot bytes) is deterministic.
    ///
    /// Live groups keep the row universe they were created over, which goes
    /// stale as inserts grow the relation; the export normalizes every
    /// group to the current row count so the snapshot's universes always
    /// match its rows section (load validates exactly that).
    pub(crate) fn export_groups(&self) -> Vec<Vec<Vec<GroupSnapshot>>> {
        let universe = self.rel.num_rows();
        self.index
            .iter()
            .map(|tableaux| {
                tableaux
                    .iter()
                    .map(|tindex| {
                        let mut groups: Vec<GroupSnapshot> = tindex
                            .iter()
                            .map(|(key, group)| GroupSnapshot {
                                key: key.clone(),
                                rows: PostingList::from_sorted(
                                    group.rows.iter().collect(),
                                    universe,
                                ),
                                violations: group.violations.clone(),
                            })
                            .collect();
                        groups.sort_by(|a, b| a.key.cmp(&b.key));
                        groups
                    })
                    .collect()
            })
            .collect()
    }

    /// Rebuild an engine from snapshot parts without re-grouping the
    /// relation: `groups[pfd][tableau_row]` as produced by
    /// [`export_groups`](DeltaEngine::export_groups), moved into the group
    /// maps as they are.
    pub(crate) fn from_parts(
        rel: Relation,
        pfds: Vec<Pfd>,
        groups: Vec<Vec<Vec<GroupSnapshot>>>,
    ) -> DeltaEngine {
        let index = groups
            .into_iter()
            .map(|tableaux| {
                tableaux
                    .into_iter()
                    .map(|snapshots| {
                        snapshots
                            .into_iter()
                            .map(|snap| {
                                let group = Group {
                                    rows: snap.rows,
                                    violations: snap.violations,
                                };
                                (snap.key, group)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let routers = pfds.iter().map(TableauRouter::new).collect();
        DeltaEngine::assemble(rel, pfds, index, routers)
    }

    /// The current relation state.
    pub fn relation(&self) -> &Relation {
        &self.rel
    }

    /// The monitored PFDs.
    pub fn pfds(&self) -> &[Pfd] {
        &self.pfds
    }

    /// All current violations in the canonical delta order.
    pub fn sorted_violations(&self) -> Vec<DeltaEntry> {
        let mut out: Vec<DeltaEntry> = Vec::new();
        for (pi, tableaux) in self.index.iter().enumerate() {
            for tindex in tableaux {
                for group in tindex.values() {
                    out.extend(group.violations.iter().map(|v| DeltaEntry {
                        pfd_index: pi,
                        violation: v.clone(),
                    }));
                }
            }
        }
        out.sort_by(cmp_entries);
        out
    }

    /// Total violation count.
    pub fn violation_count(&self) -> usize {
        self.violations
    }

    /// Distinct suspect cells across all PFDs (for dashboards).
    pub fn suspect_cells(&self) -> BTreeSet<(RowId, AttrId)> {
        self.sorted_violations()
            .iter()
            .map(|e| (e.violation.offending_row(), e.violation.attr))
            .collect()
    }

    /// Apply a cell edit, reconciling only the touched group(s).
    pub fn set_cell(
        &mut self,
        row: RowId,
        attr: AttrId,
        value: String,
    ) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Set { row, attr, value })
    }

    /// Append a row and reconcile the group(s) it joins.
    pub fn insert_row(&mut self, cells: Vec<String>) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Insert { cells })
    }

    /// Delete a row, reconcile its group(s), renumber the index.
    pub fn delete_row(&mut self, row: RowId) -> Result<ViolationDelta, RelationError> {
        self.apply(Edit::Delete { row })
    }

    /// Apply one edit.
    pub fn apply(&mut self, edit: Edit) -> Result<ViolationDelta, RelationError> {
        self.apply_batch(std::slice::from_ref(&edit))
    }

    /// Apply an edit script: membership updates happen per edit (one key
    /// read per tableau row that the edited row routes to under each
    /// touched PFD), but dirty-group reconciliation is deferred and
    /// coalesced — a group touched by ten edits is re-evaluated once.
    pub fn apply_batch(&mut self, edits: &[Edit]) -> Result<ViolationDelta, RelationError> {
        validate_batch(&self.rel, edits)?;
        // Dirty groups, identified by (pfd, tableau row, LHS key). Keys are
        // value-based, so they survive row renumbering inside the batch.
        let mut dirty: BTreeSet<(usize, usize, Vec<String>)> = BTreeSet::new();
        let mut drained: Vec<DeltaEntry> = Vec::new();
        // The tableau rows an edited row routes to under one PFD.
        let mut routed: Vec<usize> = Vec::new();

        for edit in edits {
            match edit {
                Edit::Set { row, attr, value } => {
                    let row = *row;
                    // The row's key, read before the write, under every
                    // tableau row of a PFD mentioning `attr` that the row's
                    // old or new values route to.
                    let mut old_keys = Vec::new();
                    for (pi, pfd) in self.pfds.iter().enumerate() {
                        let in_lhs = pfd.lhs().contains(attr);
                        if !in_lhs && !pfd.rhs().contains(attr) {
                            continue;
                        }
                        let router = &self.routers[pi];
                        routed.clear();
                        router.tableau_rows(|a| self.rel.cell(row, a), &mut routed);
                        if in_lhs {
                            let new = |a: AttrId| {
                                if a == *attr {
                                    value.as_str()
                                } else {
                                    self.rel.cell(row, a)
                                }
                            };
                            router.tableau_rows(new, &mut routed);
                            routed.sort_unstable();
                            routed.dedup();
                        }
                        for &ti in &routed {
                            let key = group_key(&self.index[pi][ti], &self.rel, pfd, ti, row);
                            old_keys.push((pi, ti, key));
                        }
                    }
                    self.rel
                        .set_cell(row, *attr, value.clone())
                        .expect("validated");
                    let universe = self.rel.num_rows();
                    for (pi, ti, old) in old_keys {
                        let pfd = &self.pfds[pi];
                        if pfd.lhs().contains(attr) {
                            let new = pfd.lhs_key(&self.rel, row, &pfd.tableau()[ti]);
                            if new != old {
                                let groups = &mut self.index[pi][ti];
                                if let Some(old) = old {
                                    if let Some(g) = groups.get_mut(&old) {
                                        g.rows.remove(row);
                                    }
                                    dirty.insert((pi, ti, old));
                                }
                                if let Some(new) = new {
                                    join_group(groups, new.clone(), row, universe);
                                    dirty.insert((pi, ti, new));
                                }
                                // Both affected groups are dirty; an RHS
                                // overlap is covered by the new group.
                                continue;
                            }
                        }
                        if pfd.rhs().contains(attr) {
                            if let Some(key) = old {
                                dirty.insert((pi, ti, key));
                            }
                        }
                    }
                }
                Edit::Insert { cells } => {
                    let rid = self.rel.push_row(cells.clone()).expect("validated");
                    let universe = self.rel.num_rows();
                    for (pi, pfd) in self.pfds.iter().enumerate() {
                        routed.clear();
                        self.routers[pi].tableau_rows(|a| self.rel.cell(rid, a), &mut routed);
                        for &ti in &routed {
                            if let Some(key) = pfd.lhs_key(&self.rel, rid, &pfd.tableau()[ti]) {
                                join_group(&mut self.index[pi][ti], key.clone(), rid, universe);
                                dirty.insert((pi, ti, key));
                            }
                        }
                    }
                }
                Edit::Delete { row } => {
                    let row = *row;
                    // Detach the row from its current group(s).
                    for (pi, pfd) in self.pfds.iter().enumerate() {
                        routed.clear();
                        self.routers[pi].tableau_rows(|a| self.rel.cell(row, a), &mut routed);
                        for &ti in &routed {
                            let groups = &mut self.index[pi][ti];
                            if let Some(key) = group_key(groups, &self.rel, pfd, ti, row) {
                                if let Some(g) = groups.get_mut(&key) {
                                    g.rows.remove(row);
                                }
                                dirty.insert((pi, ti, key));
                            }
                        }
                    }
                    // Cached violations mentioning the row live either in
                    // its current group(s) or in groups already dirty this
                    // batch (the row was a member when their cache was
                    // last synced); drain them as resolved.
                    for (pi, ti, key) in &dirty {
                        if let Some(g) = self.index[*pi][*ti].get_mut(key) {
                            let cached = g.violations.len();
                            g.violations.retain(|v| {
                                if v.rows().contains(&row) {
                                    drained.push(DeltaEntry {
                                        pfd_index: *pi,
                                        violation: v.clone(),
                                    });
                                    false
                                } else {
                                    true
                                }
                            });
                            self.violations -= cached - g.violations.len();
                        }
                    }
                    self.rel.delete_row(row).expect("validated");
                    // Renumber every surviving group past the hole.
                    for g in self
                        .index
                        .iter_mut()
                        .flatten()
                        .flat_map(HashMap::values_mut)
                    {
                        if g.rows.max().is_some_and(|m| m as RowId > row) {
                            g.rows.renumber_after_delete(row);
                        }
                        for v in &mut g.violations {
                            v.remap_rows(|id| shift_after_delete(id, row));
                        }
                    }
                }
            }
        }

        // Reconcile: re-evaluate each dirty group once, diff against its
        // cache. One scratch buffer serves every group.
        let mut introduced = Vec::new();
        let mut resolved = Vec::new();
        let mut scratch = std::mem::take(&mut self.scratch);
        for (pi, ti, key) in &dirty {
            let groups = &mut self.index[*pi][*ti];
            let Some(group) = groups.get_mut(key) else {
                continue;
            };
            scratch.clear();
            if !group.rows.is_empty() {
                // Sparse memos: the reconcile stays O(group).
                let ids: Vec<RowId> = group.rows.iter().map(|i| i as RowId).collect();
                TableauScan::sparse(&self.rel, &self.pfds[*pi], *ti).violations(
                    &ids,
                    &mut scratch,
                    None,
                );
            }
            diff_group(
                *pi,
                &group.violations,
                &scratch,
                &mut introduced,
                &mut resolved,
            );
            self.violations = self.violations - group.violations.len() + scratch.len();
            if group.rows.is_empty() {
                groups.remove(key);
            } else {
                group.violations.clear();
                group.violations.append(&mut scratch);
            }
        }
        self.scratch = scratch;
        Ok(finalize_delta(
            self.rel.version(),
            introduced,
            resolved,
            drained,
        ))
    }

    /// Consume the engine, returning the (possibly edited) relation.
    pub fn into_relation(self) -> Relation {
        self.rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfd::Pfd;
    use crate::tableau::TableauRow;

    fn name_relation() -> Relation {
        Relation::from_rows(
            "Name",
            &["name", "gender", "note"],
            vec![
                vec!["John Charles", "M", "-"],
                vec!["John Bosco", "M", "-"],
                vec!["Susan Orlean", "F", "-"],
                vec!["Susan Boyle", "M", "-"], // dirty
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

    fn engines() -> (IncrementalChecker, DeltaEngine) {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        (
            IncrementalChecker::new(rel.clone(), pfds.clone()),
            DeltaEngine::new(rel, pfds),
        )
    }

    /// Apply the same edit to both engines; they must agree on the result,
    /// the delta, and the full violation state.
    fn apply_both(
        naive: &mut IncrementalChecker,
        delta: &mut DeltaEngine,
        edit: Edit,
    ) -> ViolationDelta {
        let a = naive.apply(edit.clone());
        let b = delta.apply(edit);
        assert_eq!(a, b, "naive and delta engine disagree");
        assert_eq!(naive.sorted_violations(), delta.sorted_violations());
        assert_eq!(naive.relation(), delta.relation());
        a.unwrap()
    }

    #[test]
    fn initial_state_matches_batch_check() {
        let (naive, delta) = engines();
        assert_eq!(naive.violation_count(), 1);
        assert_eq!(delta.violation_count(), 1);
        assert_eq!(naive.sorted_violations(), delta.sorted_violations());
        assert_eq!(naive.suspect_cells(), delta.suspect_cells());
    }

    #[test]
    fn fixing_the_cell_resolves_the_violation() {
        let (mut naive, mut delta) = engines();
        let gender = naive.relation().schema().attr("gender").unwrap();
        let d = apply_both(
            &mut naive,
            &mut delta,
            Edit::Set {
                row: 3,
                attr: gender,
                value: "F".into(),
            },
        );
        assert_eq!(d.resolved.len(), 1);
        assert!(d.introduced.is_empty());
        assert_eq!(delta.violation_count(), 0);
    }

    #[test]
    fn breaking_a_cell_introduces_a_violation() {
        let (mut naive, mut delta) = engines();
        let gender = naive.relation().schema().attr("gender").unwrap();
        apply_both(
            &mut naive,
            &mut delta,
            Edit::Set {
                row: 3,
                attr: gender,
                value: "F".into(),
            },
        );
        let d = apply_both(
            &mut naive,
            &mut delta,
            Edit::Set {
                row: 0,
                attr: gender,
                value: "F".into(),
            },
        );
        assert_eq!(d.introduced.len(), 1, "John with gender F violates");
        assert_eq!(delta.violation_count(), 1);
    }

    #[test]
    fn unrelated_edits_are_free_and_silent() {
        let (mut naive, mut delta) = engines();
        let note = naive.relation().schema().attr("note").unwrap();
        let d = apply_both(
            &mut naive,
            &mut delta,
            Edit::Set {
                row: 2,
                attr: note,
                value: "edited".into(),
            },
        );
        assert!(d.is_empty());
        assert_eq!(delta.violation_count(), 1, "old violation unchanged");
    }

    #[test]
    fn lhs_edit_moves_row_between_groups() {
        let (mut naive, mut delta) = engines();
        let name = naive.relation().schema().attr("name").unwrap();
        // r1 becomes a Susan with gender M: the John group loses a clean
        // member, the Susan group gains a violating one. The pre-existing
        // r3 violation keeps its suspect cell, but its group statistics
        // changed (the Susan group grew from 2 to 3 rows — violations carry
        // their repair-scoring context), so it is regrouped, not restated.
        let d = apply_both(
            &mut naive,
            &mut delta,
            Edit::Set {
                row: 1,
                attr: name,
                value: "Susan Bosco".into(),
            },
        );
        assert_eq!(d.introduced.len(), 1, "r1's new violation");
        assert!(d.resolved.is_empty());
        assert_eq!(d.regrouped.len(), 1, "r3's group statistics changed");
        let (before, after) = &d.regrouped[0];
        assert_eq!(before.violation.rows(), &[3]);
        assert_eq!(after.violation.rows(), &[3]);
        assert_eq!(
            (before.violation.group_size(), after.violation.group_size()),
            (2, 3)
        );
        assert_eq!(delta.violation_count(), 2);
    }

    #[test]
    fn insert_row_joins_groups_and_fires() {
        let (mut naive, mut delta) = engines();
        let d = apply_both(
            &mut naive,
            &mut delta,
            Edit::Insert {
                cells: vec!["John Doe".into(), "F".into(), "-".into()],
            },
        );
        assert_eq!(d.introduced.len(), 1, "John with F violates row 0");
        assert_eq!(d.introduced[0].violation.rows(), &[4]);
    }

    #[test]
    fn delete_row_resolves_and_renumbers() {
        let (mut naive, mut delta) = engines();
        // Deleting a clean row above the dirty one: the cached violation's
        // ids shift but it is not reported as a delta.
        let d = apply_both(&mut naive, &mut delta, Edit::Delete { row: 0 });
        assert!(d.is_empty(), "renumbering is not a semantic change: {d:?}");
        assert_eq!(delta.violation_count(), 1);
        let suspects = delta.suspect_cells();
        assert_eq!(suspects.iter().next().unwrap().0, 2, "r3 shifted to r2");

        // Deleting the dirty row resolves its violation (pre-delete ids).
        let d = apply_both(&mut naive, &mut delta, Edit::Delete { row: 2 });
        assert_eq!(d.resolved.len(), 1);
        assert_eq!(d.resolved[0].violation.rows(), &[2]);
        assert_eq!(delta.violation_count(), 0);
    }

    #[test]
    fn batch_coalesces_and_matches_sequential_net_state() {
        let rel = name_relation();
        let pfds = vec![gender_pfd(&rel)];
        let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());
        let mut batch_engine = DeltaEngine::new(rel.clone(), pfds.clone());
        let mut seq_engine = DeltaEngine::new(rel, pfds);
        let gender = naive.relation().schema().attr("gender").unwrap();
        let name = naive.relation().schema().attr("name").unwrap();
        let edits = vec![
            Edit::Set {
                row: 3,
                attr: gender,
                value: "F".into(),
            },
            Edit::Insert {
                cells: vec!["John Doe".into(), "M".into(), "-".into()],
            },
            Edit::Set {
                row: 1,
                attr: name,
                value: "Susan Bosco".into(),
            },
            Edit::Delete { row: 0 },
            Edit::Set {
                row: 0,
                attr: gender,
                value: "F".into(),
            },
        ];
        let a = naive.apply_batch(&edits).unwrap();
        let b = batch_engine.apply_batch(&edits).unwrap();
        assert_eq!(a, b, "batch deltas agree");
        for e in &edits {
            seq_engine.apply(e.clone()).unwrap();
        }
        assert_eq!(
            batch_engine.sorted_violations(),
            seq_engine.sorted_violations(),
            "batch and sequential application converge to the same state"
        );
        assert_eq!(naive.sorted_violations(), batch_engine.sorted_violations());
        assert_eq!(naive.relation(), batch_engine.relation());
    }

    #[test]
    fn failed_batch_leaves_no_partial_state() {
        let (mut naive, mut delta) = engines();
        let gender = naive.relation().schema().attr("gender").unwrap();
        let before = delta.sorted_violations();
        let edits = vec![
            Edit::Set {
                row: 3,
                attr: gender,
                value: "F".into(),
            },
            Edit::Delete { row: 99 },
        ];
        assert_eq!(
            naive.apply_batch(&edits),
            Err(RelationError::RowOutOfRange(99))
        );
        assert_eq!(
            delta.apply_batch(&edits),
            Err(RelationError::RowOutOfRange(99))
        );
        assert_eq!(delta.sorted_violations(), before);
        assert_eq!(delta.relation(), naive.relation());
        assert_eq!(delta.relation().cell(3, gender), "M", "nothing applied");
    }

    #[test]
    fn edit_out_of_range_is_an_error() {
        let (mut naive, mut delta) = engines();
        let gender = naive.relation().schema().attr("gender").unwrap();
        assert!(naive.set_cell(99, gender, "F".into()).is_err());
        assert!(delta.set_cell(99, gender, "F".into()).is_err());
        assert!(delta.insert_row(vec!["too short".into()]).is_err());
    }

    #[test]
    fn into_relation_returns_edited_state() {
        let (_, mut delta) = engines();
        let gender = delta.relation().schema().attr("gender").unwrap();
        delta.set_cell(3, gender, "F".into()).unwrap();
        let rel = delta.into_relation();
        assert_eq!(rel.cell(3, gender), "F");
    }

    #[test]
    fn incremental_agrees_with_batch_after_edit_sequence() {
        let (mut naive, mut delta) = engines();
        let schema = naive.relation().schema().clone();
        let gender = schema.attr("gender").unwrap();
        let name = schema.attr("name").unwrap();
        for edit in [
            Edit::Set {
                row: 3,
                attr: gender,
                value: "F".into(),
            },
            Edit::Set {
                row: 1,
                attr: name,
                value: "Susan Bosco".into(),
            },
            Edit::Set {
                row: 1,
                attr: gender,
                value: "F".into(),
            },
        ] {
            apply_both(&mut naive, &mut delta, edit);
        }
        // Batch ground truth.
        let batch: usize = delta
            .pfds()
            .iter()
            .map(|p| p.violations(delta.relation()).len())
            .sum();
        assert_eq!(delta.violation_count(), batch);
    }
}
