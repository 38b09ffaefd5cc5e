//! Pattern functional dependencies: the `Pfd` type and its satisfaction
//! semantics (§2.1–2.2).

use crate::grouping::{TableauRouter, TableauScan};
use crate::tableau::{TableauCell, TableauRow};
use pfd_relation::{AttrId, Relation, RowId, RowSetAccumulator, Schema, SchemaError};
use std::collections::BTreeSet;
use std::fmt;

/// Result of a one-pass [`Pfd::audit`] over a relation.
#[derive(Debug, Clone)]
pub struct TableauAudit {
    /// Rows matching some tableau row's LHS (restriction ii coverage).
    pub coverage: usize,
    /// Rows sharing their LHS equivalence key with another row under some
    /// tableau row — the rows the pair semantics can actually relate.
    pub paired_rows: usize,
    /// The offending row of every violation [`Pfd::violations`] would
    /// report: single-tuple RHS mismatches and non-majority partition
    /// members.
    pub suspect_rows: BTreeSet<RowId>,
}

/// Result of a [`Pfd::audit_bounded`] pass: [`TableauAudit`]'s counts, with
/// the suspects counted only up to the allowance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedAudit {
    /// Rows matching some tableau row's LHS, as in [`TableauAudit`].
    pub coverage: usize,
    /// Rows sharing their LHS key with another row, as in [`TableauAudit`].
    pub paired_rows: usize,
    /// Distinct suspect rows, counted until they pass the allowance:
    /// `min(|suspect_rows|, allowance + 1)`. `None` when the allowance
    /// skipped the walk.
    pub suspects: Option<usize>,
}

/// Errors from PFD construction.
#[derive(Debug)]
pub enum PfdError {
    /// Tableau row with the wrong number of LHS or RHS cells.
    CellCountMismatch {
        /// Index of the offending tableau row.
        row: usize,
    },
    /// X must be non-empty.
    EmptyLhs,
    /// Y must be non-empty.
    EmptyRhs,
    /// For `A ∈ X ∩ Y`, each row must have `tp[A_L] ⊆ tp[A_R]` (§2.1).
    OverlapNotRestricted {
        /// Index of the offending tableau row.
        row: usize,
        /// The overlapping attribute.
        attr: AttrId,
    },
    /// A cell's pattern text failed to parse.
    Parse(pfd_pattern::ParseError),
    /// An attribute name failed to resolve.
    Schema(SchemaError),
}

impl fmt::Display for PfdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfdError::CellCountMismatch { row } => {
                write!(f, "tableau row {row} has the wrong number of cells")
            }
            PfdError::EmptyLhs => write!(f, "LHS attribute set X must be non-empty"),
            PfdError::EmptyRhs => write!(f, "RHS attribute set Y must be non-empty"),
            PfdError::OverlapNotRestricted { row, attr } => write!(
                f,
                "row {row}: overlapping attribute {attr} needs tp[A_L] ⊆ tp[A_R]"
            ),
            PfdError::Parse(e) => write!(f, "{e}"),
            PfdError::Schema(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for PfdError {}

impl From<pfd_pattern::ParseError> for PfdError {
    fn from(e: pfd_pattern::ParseError) -> Self {
        PfdError::Parse(e)
    }
}

impl From<SchemaError> for PfdError {
    fn from(e: SchemaError) -> Self {
        PfdError::Schema(e)
    }
}

/// How a violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// One tuple matches the row's LHS patterns but fails an RHS pattern —
    /// the degenerate `t1 = t2` case of the pair semantics, which is how
    /// constant PFDs such as λ1–λ3 fire on single tuples (§2.2).
    SingleTuple,
    /// Two tuples agree on the LHS equivalence keys but disagree on an RHS
    /// key — the λ4/λ5 style violation involving four cells.
    TuplePair,
}

/// A detected violation of one tableau row on a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Index of the violated tableau row.
    pub tableau_row: usize,
    /// Single-tuple or tuple-pair.
    pub kind: ViolationKind,
    /// The offending RHS attribute.
    pub attr: AttrId,
    rows: Vec<RowId>,
    cells: Vec<(RowId, AttrId)>,
    group_size: u32,
    majority_size: u32,
}

impl Violation {
    /// The violating tuple(s): one for `SingleTuple`, two for `TuplePair`.
    pub fn rows(&self) -> &[RowId] {
        &self.rows
    }

    /// The row whose RHS cell the violation flags: the single tuple, or
    /// the tuple-pair row outside its group's majority partition.
    pub fn offending_row(&self) -> RowId {
        self.rows[self.rows.len() - 1]
    }

    /// The row a tuple-pair violation pairs the offending row with — the
    /// first row of its group's majority partition; `None` for a
    /// single-tuple violation.
    pub fn partner(&self) -> Option<RowId> {
        match self.kind {
            ViolationKind::SingleTuple => None,
            ViolationKind::TuplePair => Some(self.rows[0]),
        }
    }

    /// Size of the LHS-key group the violation fired in.
    pub fn group_size(&self) -> usize {
        self.group_size as usize
    }

    /// Rows of the group agreeing with the implied repair: the majority RHS
    /// partition for [`ViolationKind::TuplePair`], the rows matching the RHS
    /// pattern for [`ViolationKind::SingleTuple`]. Repair scoring uses
    /// `majority_size / group_size` as the fix's *support*.
    pub fn majority_size(&self) -> usize {
        self.majority_size as usize
    }

    /// The violation cell set, e.g. `(r3[name], r3[gender], r4[name],
    /// r4[gender])` for the paper's ψ2 example.
    pub fn cells(&self) -> &[(RowId, AttrId)] {
        &self.cells
    }

    /// Reassemble a violation from persisted fields (snapshot decoding).
    pub(crate) fn from_parts(
        tableau_row: usize,
        kind: ViolationKind,
        attr: AttrId,
        rows: Vec<RowId>,
        cells: Vec<(RowId, AttrId)>,
        group_size: u32,
        majority_size: u32,
    ) -> Violation {
        Violation {
            tableau_row,
            kind,
            attr,
            rows,
            cells,
            group_size,
            majority_size,
        }
    }

    /// A single-tuple violation of tableau row `ti`: row `rid` of an
    /// LHS-key group of `group_size` rows fails the RHS pattern of `attr`,
    /// while `majority_size` rows of the group conform.
    pub(crate) fn single_tuple(
        pfd: &Pfd,
        ti: usize,
        rid: RowId,
        attr: AttrId,
        group_size: u32,
        majority_size: u32,
    ) -> Violation {
        let mut cells: Vec<(RowId, AttrId)> = pfd.lhs.iter().map(|a| (rid, *a)).collect();
        cells.push((rid, attr));
        Violation {
            tableau_row: ti,
            kind: ViolationKind::SingleTuple,
            attr,
            rows: vec![rid],
            cells,
            group_size,
            majority_size,
        }
    }

    /// A tuple-pair violation of tableau row `ti`: row `rid` disagrees on
    /// `attr` with `rep`, the first row of its group's majority RHS
    /// partition of `majority_size` rows.
    pub(crate) fn tuple_pair(
        pfd: &Pfd,
        ti: usize,
        rep: RowId,
        rid: RowId,
        attr: AttrId,
        group_size: u32,
        majority_size: u32,
    ) -> Violation {
        let mut cells: Vec<(RowId, AttrId)> = Vec::with_capacity(2 * (pfd.lhs.len() + 1));
        for r in [rep, rid] {
            cells.extend(pfd.lhs.iter().map(|a| (r, *a)));
            cells.push((r, attr));
        }
        Violation {
            tableau_row: ti,
            kind: ViolationKind::TuplePair,
            attr,
            rows: vec![rep, rid],
            cells,
            group_size,
            majority_size,
        }
    }

    /// Renumber every row id through `f` (used by the incremental engines
    /// after a row deletion shifts ids).
    pub(crate) fn remap_rows(&mut self, f: impl Fn(RowId) -> RowId) {
        for r in &mut self.rows {
            *r = f(*r);
        }
        for (r, _) in &mut self.cells {
            *r = f(*r);
        }
    }
}

/// A pattern functional dependency `R(X → Y, Tp)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Pfd {
    relation: String,
    lhs: Vec<AttrId>,
    rhs: Vec<AttrId>,
    tableau: Vec<TableauRow>,
}

impl Pfd {
    /// Build a PFD, validating tableau arity and the `X ∩ Y` restriction.
    pub fn new(
        relation: impl Into<String>,
        lhs: Vec<AttrId>,
        rhs: Vec<AttrId>,
        tableau: Vec<TableauRow>,
    ) -> Result<Pfd, PfdError> {
        if lhs.is_empty() {
            return Err(PfdError::EmptyLhs);
        }
        if rhs.is_empty() {
            return Err(PfdError::EmptyRhs);
        }
        for (i, row) in tableau.iter().enumerate() {
            if row.lhs.len() != lhs.len() || row.rhs.len() != rhs.len() {
                return Err(PfdError::CellCountMismatch { row: i });
            }
            for (li, a) in lhs.iter().enumerate() {
                if let Some(ri) = rhs.iter().position(|b| b == a) {
                    if !row.lhs[li].is_restriction_of(&row.rhs[ri]) {
                        return Err(PfdError::OverlapNotRestricted { row: i, attr: *a });
                    }
                }
            }
        }
        Ok(Pfd {
            relation: relation.into(),
            lhs,
            rhs,
            tableau,
        })
    }

    /// Normal-form constructor from attribute names and cell texts:
    /// `X → A` with a single RHS attribute (§2.2's normal form).
    pub fn normal_form(
        relation: &str,
        schema: &Schema,
        lhs: &[(&str, &str)],
        rhs: (&str, &str),
    ) -> Result<Pfd, PfdError> {
        let lhs_ids = lhs
            .iter()
            .map(|(name, _)| schema.attr(name))
            .collect::<Result<Vec<_>, _>>()?;
        let rhs_id = schema.attr(rhs.0)?;
        let row = TableauRow::parse(
            &lhs.iter().map(|(_, cell)| *cell).collect::<Vec<_>>(),
            &[rhs.1],
        )?;
        Pfd::new(relation, lhs_ids, vec![rhs_id], vec![row])
    }

    /// Single-attribute constant/variable PFD: `([A = pat] → [B = pat])`.
    pub fn constant_normal_form(
        relation: &str,
        schema: &Schema,
        lhs_attr: &str,
        lhs_pattern: &str,
        rhs_attr: &str,
        rhs_pattern: &str,
    ) -> Result<Pfd, PfdError> {
        Pfd::normal_form(
            relation,
            schema,
            &[(lhs_attr, lhs_pattern)],
            (rhs_attr, rhs_pattern),
        )
    }

    /// A traditional FD `X → Y` as a PFD: one all-wildcard tableau row
    /// (equivalence under `⊥` is whole-value equality).
    pub fn fd(
        relation: &str,
        schema: &Schema,
        lhs: &[&str],
        rhs: &[&str],
    ) -> Result<Pfd, PfdError> {
        let lhs_ids = schema.attrs(lhs)?;
        let rhs_ids = schema.attrs(rhs)?;
        let row = TableauRow::new(
            vec![TableauCell::Wildcard; lhs_ids.len()],
            vec![TableauCell::Wildcard; rhs_ids.len()],
        );
        Pfd::new(relation, lhs_ids, rhs_ids, vec![row])
    }

    /// A constant CFD tableau row as a PFD row: `Some(v)` is the whole-value
    /// constant `v`, `None` is the wildcard `_`.
    pub fn cfd(
        relation: &str,
        schema: &Schema,
        lhs: &[(&str, Option<&str>)],
        rhs: (&str, Option<&str>),
    ) -> Result<Pfd, PfdError> {
        let lhs_ids = lhs
            .iter()
            .map(|(name, _)| schema.attr(name))
            .collect::<Result<Vec<_>, _>>()?;
        let rhs_id = schema.attr(rhs.0)?;
        let to_cell = |v: &Option<&str>| match v {
            Some(c) => TableauCell::constant(c),
            None => TableauCell::Wildcard,
        };
        let row = TableauRow::new(
            lhs.iter().map(|(_, v)| to_cell(v)).collect(),
            vec![to_cell(&rhs.1)],
        );
        Pfd::new(relation, lhs_ids, vec![rhs_id], vec![row])
    }

    /// The relation name this PFD is declared on.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// The LHS attribute list `X`.
    pub fn lhs(&self) -> &[AttrId] {
        &self.lhs
    }

    /// The RHS attribute list `Y`.
    pub fn rhs(&self) -> &[AttrId] {
        &self.rhs
    }

    /// The pattern tableau `Tp`.
    pub fn tableau(&self) -> &[TableauRow] {
        &self.tableau
    }

    /// Append a tableau row (validated against arities).
    pub fn add_row(&mut self, row: TableauRow) -> Result<(), PfdError> {
        if row.lhs.len() != self.lhs.len() || row.rhs.len() != self.rhs.len() {
            return Err(PfdError::CellCountMismatch {
                row: self.tableau.len(),
            });
        }
        self.tableau.push(row);
        Ok(())
    }

    /// Trivial PFDs have every RHS attribute already in the LHS (§4.2,
    /// restriction iv); discovery ignores them.
    pub fn is_trivial(&self) -> bool {
        self.rhs.iter().all(|b| self.lhs.contains(b))
    }

    /// Is every tableau row constant? (A "constant PFD" like ψ1/ψ3.)
    pub fn is_constant(&self) -> bool {
        self.tableau.iter().all(TableauRow::is_constant)
    }

    /// Does any tableau row contain a variable pattern? (λ4/λ5 style.)
    pub fn is_variable(&self) -> bool {
        self.tableau.iter().any(TableauRow::is_variable)
    }

    /// The embedded FD `X → Y` without the tableau, as attribute ids.
    pub fn embedded_fd(&self) -> (&[AttrId], &[AttrId]) {
        (&self.lhs, &self.rhs)
    }

    /// Merge another PFD's tableau into this one. Both must share the same
    /// embedded FD (relation, X and Y); duplicate rows are dropped. This is
    /// how rule files from different discovery runs combine — the tableau
    /// union is the conjunction of the two rule sets' row constraints.
    pub fn merge(&mut self, other: &Pfd) -> Result<(), PfdError> {
        if other.lhs != self.lhs || other.rhs != self.rhs {
            return Err(PfdError::CellCountMismatch {
                row: self.tableau.len(),
            });
        }
        for row in &other.tableau {
            if !self.tableau.contains(row) {
                self.tableau.push(row.clone());
            }
        }
        Ok(())
    }

    /// Merge a list of PFDs, combining tableaux of identical embedded FDs.
    /// Order is preserved by first appearance.
    pub fn merge_all(pfds: Vec<Pfd>) -> Vec<Pfd> {
        let mut out: Vec<Pfd> = Vec::new();
        for pfd in pfds {
            match out
                .iter_mut()
                .find(|p| p.lhs == pfd.lhs && p.rhs == pfd.rhs && p.relation == pfd.relation)
            {
                Some(existing) => {
                    existing.merge(&pfd).expect("embedded FDs match");
                }
                None => out.push(pfd),
            }
        }
        out
    }

    /// Decompose `X → Y` into normal-form PFDs `X → B` for each `B ∈ Y`
    /// (§4.2 restriction iv).
    pub fn decompose(&self) -> Vec<Pfd> {
        self.rhs
            .iter()
            .enumerate()
            .map(|(j, b)| Pfd {
                relation: self.relation.clone(),
                lhs: self.lhs.clone(),
                rhs: vec![*b],
                tableau: self
                    .tableau
                    .iter()
                    .map(|row| TableauRow::new(row.lhs.clone(), vec![row.rhs[j].clone()]))
                    .collect(),
            })
            .collect()
    }

    /// Number of relation rows matching the LHS patterns of tableau row `i`
    /// (the *support* of that pattern row, §4.2 restriction iii).
    pub fn support(&self, rel: &Relation, row_idx: usize) -> usize {
        let row = &self.tableau[row_idx];
        rel.iter_rows()
            .filter(|(rid, _)| self.lhs_matches(rel, *rid, row))
            .count()
    }

    /// Number of relation rows matching *any* tableau row's LHS (the
    /// *coverage* of the PFD, §4.2 restriction ii).
    pub fn coverage(&self, rel: &Relation) -> usize {
        rel.iter_rows()
            .filter(|(rid, _)| {
                self.tableau
                    .iter()
                    .any(|row| self.lhs_matches(rel, *rid, row))
            })
            .count()
    }

    fn lhs_matches(&self, rel: &Relation, rid: RowId, row: &TableauRow) -> bool {
        self.lhs
            .iter()
            .zip(&row.lhs)
            .all(|(a, cell)| cell.matches(rel.cell(rid, *a)))
    }

    /// The LHS equivalence key of a relation row under a tableau row, or
    /// `None` if some LHS cell does not match. Crate-visible so the
    /// incremental group indexes can re-key a single edited row, and for the
    /// string-keyed [`reference`](crate::reference).
    pub(crate) fn lhs_key(
        &self,
        rel: &Relation,
        rid: RowId,
        row: &TableauRow,
    ) -> Option<Vec<String>> {
        self.lhs
            .iter()
            .zip(&row.lhs)
            .map(|(a, cell)| cell.key(rel.cell(rid, *a)).map(str::to_string))
            .collect()
    }

    /// One-pass audit of this PFD over a relation: coverage, LHS-key
    /// pairing, and the suspect rows that `violations` would report —
    /// without scanning the relation once per question.
    ///
    /// Computing all three from a single LHS-key grouping pass is
    /// equivalent to (and replaces) separate [`Pfd::coverage`], key-count,
    /// and [`Pfd::violations`] scans:
    ///
    /// - `coverage` — rows matching some tableau row's LHS (a value matches
    ///   `pre·Q·post` iff a decomposition exists, so "matches" and "has an
    ///   equivalence key" coincide);
    /// - `paired_rows` — rows sharing their LHS key with at least one other
    ///   row under some tableau row (the pair semantics can fire);
    /// - `suspect_rows` — the offending row of each violation: single-tuple
    ///   RHS mismatches plus every member of a non-majority RHS partition.
    ///
    /// [`Pfd::audit_bounded`] answers the same questions but stops counting
    /// suspects past an allowance.
    pub fn audit(&self, rel: &Relation) -> TableauAudit {
        let mut suspects = RowSetAccumulator::new(rel.num_rows());
        let (coverage, paired_rows, _) =
            self.audit_into(rel, |_, _| Some(usize::MAX), &mut suspects);
        TableauAudit {
            coverage,
            paired_rows,
            suspect_rows: suspects
                .into_posting_list()
                .iter()
                .map(|rid| rid as RowId)
                .collect(),
        }
    }

    /// [`Pfd::audit`] for a caller that only compares the suspect count
    /// with an allowance — discovery's constant → variable generalization
    /// (§4.3), which accepts a variable PFD with few enough suspects.
    ///
    /// The rows are grouped first, which yields `coverage` and
    /// `paired_rows`; `allowance(coverage, paired_rows)` then says how many
    /// suspects the caller tolerates. The suspect walk stops as soon as the
    /// count passes it, so [`BoundedAudit::suspects`] is `min(true count,
    /// allowance + 1)`; an allowance of `None` skips the walk.
    pub fn audit_bounded(
        &self,
        rel: &Relation,
        allowance: impl FnOnce(usize, usize) -> Option<usize>,
    ) -> BoundedAudit {
        let mut suspects = RowSetAccumulator::new(rel.num_rows());
        let (coverage, paired_rows, walked) = self.audit_into(rel, allowance, &mut suspects);
        BoundedAudit {
            coverage,
            paired_rows,
            suspects: walked.then(|| suspects.len()),
        }
    }

    /// The audits' shared pass: group every tableau row, count coverage and
    /// paired rows, then mark suspects until they pass the allowance.
    /// Returns the two counts and whether the suspect walk ran.
    fn audit_into(
        &self,
        rel: &Relation,
        allowance: impl FnOnce(usize, usize) -> Option<usize>,
        suspects: &mut RowSetAccumulator,
    ) -> (usize, usize, bool) {
        let mut covered = RowSetAccumulator::new(rel.num_rows());
        let mut paired = RowSetAccumulator::new(rel.num_rows());
        let routes = TableauRouter::new(self).route(rel);
        let mut scans = Vec::with_capacity(self.tableau.len());
        for ti in 0..self.tableau.len() {
            let mut scan = TableauScan::routed(rel, self, ti, &routes);
            let groups = scan.groups();
            for group in &groups {
                for &rid in &group.rows {
                    covered.insert(rid);
                    if group.rows.len() >= 2 {
                        paired.insert(rid);
                    }
                }
            }
            scans.push((scan, groups));
        }
        let (coverage, paired_rows) = (covered.len(), paired.len());
        let Some(allowed) = allowance(coverage, paired_rows) else {
            return (coverage, paired_rows, false);
        };
        'walk: for (scan, groups) in &mut scans {
            for group in groups.iter() {
                if scan
                    .mark_suspects(&group.rows, suspects, allowed)
                    .is_break()
                {
                    break 'walk;
                }
            }
        }
        (coverage, paired_rows, true)
    }

    /// All violations of this PFD on `rel` (§2.2 semantics).
    ///
    /// For each tableau row, relation rows matching all LHS cells are
    /// grouped by their LHS equivalence keys. Within a group:
    ///
    /// - a row failing an RHS pattern *match* yields a [`ViolationKind::SingleTuple`]
    ///   violation (the `t1 = t2` degenerate pair);
    /// - rows partitioned by RHS equivalence keys yield
    ///   [`ViolationKind::TuplePair`] violations, reported as (majority
    ///   representative, offending row) pairs so that the count of
    ///   violations tracks the count of suspect tuples rather than the
    ///   quadratic pair count.
    pub fn violations(&self, rel: &Relation) -> Vec<Violation> {
        let mut out = Vec::new();
        let routes = TableauRouter::new(self).route(rel);
        for ti in 0..self.tableau.len() {
            let mut scan = TableauScan::routed(rel, self, ti, &routes);
            for group in scan.group_rows() {
                scan.violations(&group.rows, &mut out, None);
            }
        }
        out
    }

    /// Early-exit satisfaction check: `T ⊨ ψ`.
    pub fn satisfies(&self, rel: &Relation) -> bool {
        let mut out = Vec::new();
        let routes = TableauRouter::new(self).route(rel);
        for ti in 0..self.tableau.len() {
            let mut scan = TableauScan::routed(rel, self, ti, &routes);
            for group in scan.group_rows() {
                scan.violations(&group.rows, &mut out, Some(1));
                if !out.is_empty() {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for Pfd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lhs: Vec<String> = self.lhs.iter().map(|a| a.to_string()).collect();
        let rhs: Vec<String> = self.rhs.iter().map(|a| a.to_string()).collect();
        write!(
            f,
            "{}([{}] → [{}], {{",
            self.relation,
            lhs.join(", "),
            rhs.join(", ")
        )?;
        for (i, row) in self.tableau.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{row}")?;
        }
        write!(f, "}})")
    }
}

/// Render a PFD with attribute names resolved against a schema, close to
/// the paper's notation, e.g.
/// `Name([name = [Susan\ ]\A*] → [gender = F])`.
pub fn display_with_schema(pfd: &Pfd, schema: &Schema) -> String {
    let mut rows = Vec::new();
    for row in pfd.tableau() {
        let lhs: Vec<String> = pfd
            .lhs()
            .iter()
            .zip(&row.lhs)
            .map(|(a, c)| format!("{} = {}", schema.name_of(*a).unwrap_or("?"), c))
            .collect();
        let rhs: Vec<String> = pfd
            .rhs()
            .iter()
            .zip(&row.rhs)
            .map(|(b, c)| format!("{} = {}", schema.name_of(*b).unwrap_or("?"), c))
            .collect();
        rows.push(format!("[{}] → [{}]", lhs.join(", "), rhs.join(", ")));
    }
    format!("{}({})", pfd.relation(), rows.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfd_relation::Relation;
    use std::collections::BTreeMap;

    /// Table 1 of the paper (with the erroneous r4).
    fn name_table() -> Relation {
        Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["John Charles", "M"],
                vec!["John Bosco", "M"],
                vec!["Susan Orlean", "F"],
                vec!["Susan Boyle", "M"],
            ],
        )
        .unwrap()
    }

    /// Table 2 of the paper (with the erroneous s4).
    fn zip_table() -> Relation {
        Relation::from_rows(
            "Zip",
            &["zip", "city"],
            vec![
                vec!["90001", "Los Angeles"],
                vec!["90002", "Los Angeles"],
                vec!["90003", "Los Angeles"],
                vec!["90004", "New York"],
            ],
        )
        .unwrap()
    }

    fn psi1(rel: &Relation) -> Pfd {
        // ψ1 = λ1, λ2: constant first names determine gender.
        let schema = rel.schema();
        let mut pfd =
            Pfd::constant_normal_form("Name", schema, "name", r"[John\ ]\A*", "gender", "M")
                .unwrap();
        pfd.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
            .unwrap();
        pfd
    }

    fn psi2(rel: &Relation) -> Pfd {
        // ψ2 = λ4: variable first name determines gender.
        Pfd::constant_normal_form(
            "Name",
            rel.schema(),
            "name",
            r"[\LU\LL*\ ]\A*",
            "gender",
            "_",
        )
        .unwrap()
    }

    #[test]
    fn example6_single_tuple_violation() {
        let rel = name_table();
        let pfd = psi1(&rel);
        let violations = pfd.violations(&rel);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.kind, ViolationKind::SingleTuple);
        assert_eq!(v.rows(), &[3]);
        assert_eq!(v.tableau_row, 1, "the Susan row is violated");
        assert!(!pfd.satisfies(&rel));
    }

    #[test]
    fn example6_pair_violation() {
        let rel = name_table();
        let pfd = psi2(&rel);
        let violations = pfd.violations(&rel);
        assert_eq!(violations.len(), 1);
        let v = &violations[0];
        assert_eq!(v.kind, ViolationKind::TuplePair);
        let mut rows = v.rows().to_vec();
        rows.sort_unstable();
        assert_eq!(rows, vec![2, 3], "(r3, r4) in 0-based ids");
        // Four cells: both rows' name and gender.
        assert_eq!(v.cells().len(), 4);
    }

    #[test]
    fn psi2_without_redundancy_detects_nothing() {
        // First notable case of §2.2: remove r3 (Susan Orlean) and ψ2 can no
        // longer detect r4, but ψ1 still can.
        let rel = name_table().filter_rows(|r| r != 2);
        assert!(psi2(&rel).satisfies(&rel));
        assert!(!psi1(&rel).satisfies(&rel));
    }

    #[test]
    fn zip_pair_violations() {
        // ψ4 = λ5 on Table 2: (s1,s4), (s2,s4), (s3,s4) violate; majority
        // reporting collapses these to one violation naming s4.
        let rel = zip_table();
        let pfd =
            Pfd::constant_normal_form("Zip", rel.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let violations = pfd.violations(&rel);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].rows().contains(&3));
        assert_eq!(violations[0].kind, ViolationKind::TuplePair);
    }

    #[test]
    fn zip_constant_pfd_detects_s4() {
        // ψ3 = λ3: [900\D{2}] → Los Angeles.
        let rel = zip_table();
        let pfd = Pfd::constant_normal_form(
            "Zip",
            rel.schema(),
            "zip",
            r"[900]\D{2}",
            "city",
            "Los\\ Angeles",
        )
        .unwrap();
        let violations = pfd.violations(&rel);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rows(), &[3]);
        assert_eq!(violations[0].kind, ViolationKind::SingleTuple);
    }

    #[test]
    fn fd_as_pfd() {
        // ϕ2: zip → city as plain FD. Table 2 satisfies it (all zips are
        // distinct), which is exactly why FDs cannot catch s4 (§1.1).
        let rel = zip_table();
        let fd = Pfd::fd("Zip", rel.schema(), &["zip"], &["city"]).unwrap();
        assert!(fd.satisfies(&rel));
    }

    #[test]
    fn fd_detects_whole_value_conflicts() {
        let rel = Relation::from_rows(
            "R",
            &["a", "b"],
            vec![vec!["x", "1"], vec!["x", "2"], vec!["y", "3"]],
        )
        .unwrap();
        let fd = Pfd::fd("R", rel.schema(), &["a"], &["b"]).unwrap();
        let violations = fd.violations(&rel);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].kind, ViolationKind::TuplePair);
    }

    #[test]
    fn cfd_as_pfd() {
        // φ4: [name = Susan Boyle] → [gender = F].
        let rel = name_table();
        let cfd = Pfd::cfd(
            "Name",
            rel.schema(),
            &[("name", Some("Susan Boyle"))],
            ("gender", Some("F")),
        )
        .unwrap();
        let violations = cfd.violations(&rel);
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].rows(), &[3]);
    }

    #[test]
    fn audit_agrees_with_coverage_and_violations() {
        // `audit` promises exactly the aggregates that separate
        // `coverage`/key-count/`violations` scans produce; discovery's
        // generalization gate depends on that equivalence, so force the two
        // code paths to agree on a spread of PFD shapes and dirty tables.
        let name_rel = name_table();
        let zip_rel = zip_table();
        let multi = {
            // Larger dirty table: two dirty cells, several key groups.
            let mut rows: Vec<Vec<String>> = (0..8)
                .map(|i| vec![format!("900{i:02}"), "Los Angeles".into()])
                .collect();
            rows.extend((0..8).map(|i| vec![format!("606{i:02}"), "Chicago".to_string()]));
            rows[3][1] = "New York".into();
            rows[12][1] = "Boston".into();
            let mut rel =
                Relation::empty(pfd_relation::Schema::new("Zip", ["zip", "city"]).unwrap());
            for r in rows {
                rel.push_row(r).unwrap();
            }
            rel
        };
        let zip_var =
            Pfd::constant_normal_form("Zip", zip_rel.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let zip_const = Pfd::constant_normal_form(
            "Zip",
            zip_rel.schema(),
            "zip",
            r"[900]\D{2}",
            "city",
            "Los\\ Angeles",
        )
        .unwrap();
        let cases: Vec<(&Relation, Pfd)> = vec![
            (&name_rel, psi1(&name_rel)),
            (&name_rel, psi2(&name_rel)),
            (&zip_rel, zip_var.clone()),
            (&zip_rel, zip_const),
            (&multi, zip_var),
        ];
        for (rel, pfd) in &cases {
            let audit = pfd.audit(rel);
            assert_eq!(audit.coverage, pfd.coverage(rel), "{pfd}");
            let suspects: BTreeSet<RowId> = pfd
                .violations(rel)
                .iter()
                .map(|v| *v.rows().last().expect("violations carry rows"))
                .collect();
            assert_eq!(audit.suspect_rows, suspects, "{pfd}");
            // paired_rows: rows sharing an LHS key with another row under
            // some tableau row (deduplicated across tableau rows).
            let mut paired: BTreeSet<RowId> = BTreeSet::new();
            for row in pfd.tableau() {
                let mut groups: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
                for (rid, _) in rel.iter_rows() {
                    if let Some(key) = pfd.lhs_key(rel, rid, row) {
                        groups.entry(key).or_default().push(rid);
                    }
                }
                for rows in groups.values().filter(|r| r.len() >= 2) {
                    paired.extend(rows.iter().copied());
                }
            }
            assert_eq!(audit.paired_rows, paired.len(), "{pfd}");
        }
    }

    #[test]
    fn coverage_and_support() {
        let rel = name_table();
        let pfd = psi1(&rel);
        assert_eq!(pfd.support(&rel, 0), 2, "two Johns");
        assert_eq!(pfd.support(&rel, 1), 2, "two Susans");
        assert_eq!(pfd.coverage(&rel), 4);
        let psi2 = psi2(&rel);
        assert_eq!(psi2.coverage(&rel), 4);
    }

    #[test]
    fn trivial_pfd() {
        let rel = name_table();
        let schema = rel.schema();
        let p = Pfd::fd("Name", schema, &["name"], &["name"]).unwrap();
        assert!(p.is_trivial());
        let q = Pfd::fd("Name", schema, &["name"], &["gender"]).unwrap();
        assert!(!q.is_trivial());
    }

    #[test]
    fn constant_vs_variable() {
        let rel = name_table();
        assert!(psi1(&rel).is_constant());
        assert!(!psi1(&rel).is_variable());
        assert!(psi2(&rel).is_variable());
    }

    #[test]
    fn decompose_multi_rhs() {
        let rel = Relation::from_rows("R", &["a", "b", "c"], vec![vec!["1", "2", "3"]]).unwrap();
        let p = Pfd::fd("R", rel.schema(), &["a"], &["b", "c"]).unwrap();
        let parts = p.decompose();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].rhs().len(), 1);
        assert_eq!(parts[1].rhs().len(), 1);
    }

    #[test]
    fn cell_count_mismatch_rejected() {
        let row = TableauRow::parse(&["_", "_"], &["_"]).unwrap();
        let err = Pfd::new("R", vec![AttrId(0)], vec![AttrId(1)], vec![row]).unwrap_err();
        assert!(matches!(err, PfdError::CellCountMismatch { row: 0 }));
    }

    #[test]
    fn empty_sides_rejected() {
        assert!(matches!(
            Pfd::new("R", vec![], vec![AttrId(0)], vec![]),
            Err(PfdError::EmptyLhs)
        ));
        assert!(matches!(
            Pfd::new("R", vec![AttrId(0)], vec![], vec![]),
            Err(PfdError::EmptyRhs)
        ));
    }

    #[test]
    fn overlap_restriction_enforced() {
        // name → name with AL ⊆ AR holds (reflexivity example of §3.1).
        let row = TableauRow::parse(&[r"[John]\A*"], &[r"[\LU\LL*]\A*"]).unwrap();
        assert!(Pfd::new("R", vec![AttrId(0)], vec![AttrId(0)], vec![row]).is_ok());
        // The converse violates tp[A_L] ⊆ tp[A_R].
        let bad = TableauRow::parse(&[r"[\LU\LL*]\A*"], &[r"[John]\A*"]).unwrap();
        assert!(matches!(
            Pfd::new("R", vec![AttrId(0)], vec![AttrId(0)], vec![bad]),
            Err(PfdError::OverlapNotRestricted { .. })
        ));
    }

    #[test]
    fn display_with_schema_is_readable() {
        let rel = name_table();
        let pfd = psi1(&rel);
        let s = display_with_schema(&pfd, rel.schema());
        assert!(s.contains("name ="), "{s}");
        assert!(s.contains("gender ="), "{s}");
    }

    #[test]
    fn merge_combines_tableaux() {
        let rel = name_table();
        let a =
            Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")
                .unwrap();
        let b =
            Pfd::constant_normal_form("Name", rel.schema(), "name", r"[Susan\ ]\A*", "gender", "F")
                .unwrap();
        let merged = Pfd::merge_all(vec![a.clone(), b, a.clone()]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].tableau().len(), 2, "duplicate row dropped");
        // The merged PFD behaves like ψ1.
        assert_eq!(merged[0].violations(&rel).len(), 1);
    }

    #[test]
    fn merge_rejects_different_embedded_fds() {
        let rel = name_table();
        let mut a = Pfd::fd("Name", rel.schema(), &["name"], &["gender"]).unwrap();
        let b = Pfd::fd("Name", rel.schema(), &["gender"], &["name"]).unwrap();
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn satisfies_on_empty_relation() {
        let rel =
            Relation::from_rows("Name", &["name", "gender"], Vec::<Vec<&str>>::new()).unwrap();
        assert!(psi1(&rel).satisfies(&rel));
        assert!(psi2(&rel).satisfies(&rel));
    }
}
