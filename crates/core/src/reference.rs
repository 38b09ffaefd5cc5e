//! String-keyed reference implementations of [`Pfd::violations`],
//! [`Pfd::satisfies`] and [`Pfd::audit`], kept as test oracles.
//!
//! These are the original bodies: every matching row is keyed by a fresh
//! `Vec<String>` of LHS equivalence keys in a `BTreeMap`, and each group
//! is partitioned by `Vec<String>` RHS keys. The interned kernel of
//! `grouping` must agree with them exactly — same violations in the same
//! order, same audit — which `tests/grouping_proptests.rs` pins. The naive
//! [`IncrementalChecker`](crate::IncrementalChecker) recomputes through
//! [`violations`] too, so the delta-engine property suite keeps an oracle
//! independent of the kernel. Not for production use: every call is a full
//! string-keyed rescan.

use crate::pfd::{Pfd, TableauAudit, Violation};
use crate::tableau::TableauRow;
use pfd_relation::{AttrId, Relation, RowId};
use std::collections::{BTreeMap, BTreeSet};

/// All violations of `pfd` on `rel`, string-keyed ([`Pfd::violations`]).
pub fn violations(pfd: &Pfd, rel: &Relation) -> Vec<Violation> {
    let mut out = Vec::new();
    for (ti, row) in pfd.tableau().iter().enumerate() {
        violations_of_row(pfd, rel, ti, row, &mut out, None);
    }
    out
}

/// `T ⊨ ψ` with the early exit, string-keyed ([`Pfd::satisfies`]).
pub fn satisfies(pfd: &Pfd, rel: &Relation) -> bool {
    let mut out = Vec::new();
    for (ti, row) in pfd.tableau().iter().enumerate() {
        violations_of_row(pfd, rel, ti, row, &mut out, Some(1));
        if !out.is_empty() {
            return false;
        }
    }
    true
}

/// One-pass audit of `pfd` over `rel`, string-keyed ([`Pfd::audit`]).
pub fn audit(pfd: &Pfd, rel: &Relation) -> TableauAudit {
    let mut covered = vec![false; rel.num_rows()];
    let mut paired = vec![false; rel.num_rows()];
    let mut suspects: BTreeSet<RowId> = BTreeSet::new();
    for row in pfd.tableau() {
        for rows in lhs_groups(pfd, rel, row).values() {
            for &rid in rows {
                covered[rid] = true;
            }
            if rows.len() >= 2 {
                for &rid in rows {
                    paired[rid] = true;
                }
            }
            // Single-tuple RHS pattern checks.
            let mut rhs_ok: Vec<RowId> = Vec::with_capacity(rows.len());
            for &rid in rows {
                let fails = pfd
                    .rhs()
                    .iter()
                    .zip(&row.rhs)
                    .any(|(b, cell)| !cell.matches(rel.cell(rid, *b)));
                if fails {
                    suspects.insert(rid);
                } else {
                    rhs_ok.push(rid);
                }
            }
            // Pair semantics: partition by RHS key; every row outside the
            // majority partition is a suspect.
            if rhs_ok.len() < 2 {
                continue;
            }
            let partitions = rhs_partitions(pfd, rel, row, &rhs_ok);
            if partitions.len() <= 1 {
                continue;
            }
            let (majority_key, _) = partitions
                .iter()
                .max_by_key(|(key, rows)| (rows.len(), std::cmp::Reverse((*key).clone())))
                .expect("non-empty");
            let majority_key = majority_key.clone();
            for (key, rows) in &partitions {
                if *key != majority_key {
                    suspects.extend(rows.iter().copied());
                }
            }
        }
    }
    TableauAudit {
        coverage: covered.iter().filter(|c| **c).count(),
        paired_rows: paired.iter().filter(|c| **c).count(),
        suspect_rows: suspects,
    }
}

/// Rows matching tableau row `row`'s LHS, grouped by LHS key.
fn lhs_groups(pfd: &Pfd, rel: &Relation, row: &TableauRow) -> BTreeMap<Vec<String>, Vec<RowId>> {
    let mut groups: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
    for (rid, _) in rel.iter_rows() {
        if let Some(key) = pfd.lhs_key(rel, rid, row) {
            groups.entry(key).or_default().push(rid);
        }
    }
    groups
}

/// RHS-conforming rows of one group, partitioned by RHS key.
fn rhs_partitions(
    pfd: &Pfd,
    rel: &Relation,
    row: &TableauRow,
    rhs_ok: &[RowId],
) -> BTreeMap<Vec<String>, Vec<RowId>> {
    let mut partitions: BTreeMap<Vec<String>, Vec<RowId>> = BTreeMap::new();
    for &rid in rhs_ok {
        let key: Vec<String> = pfd
            .rhs()
            .iter()
            .zip(&row.rhs)
            .map(|(b, cell)| {
                cell.key(rel.cell(rid, *b))
                    .expect("matched above")
                    .to_string()
            })
            .collect();
        partitions.entry(key).or_default().push(rid);
    }
    partitions
}

fn violations_of_row(
    pfd: &Pfd,
    rel: &Relation,
    ti: usize,
    row: &TableauRow,
    out: &mut Vec<Violation>,
    limit: Option<usize>,
) {
    for rows in lhs_groups(pfd, rel, row).values() {
        violations_of_group_limited(pfd, rel, ti, row, rows, out, limit);
        if limit.is_some_and(|l| out.len() >= l) {
            return;
        }
    }
}

/// The violations of one LHS-key group (`rows` ascending); with a `limit`,
/// stop once `out` holds that many.
fn violations_of_group_limited(
    pfd: &Pfd,
    rel: &Relation,
    ti: usize,
    row: &TableauRow,
    rows: &[RowId],
    out: &mut Vec<Violation>,
    limit: Option<usize>,
) {
    let at_limit = |out: &Vec<Violation>| limit.is_some_and(|l| out.len() >= l);
    let group_size = rows.len() as u32;

    // Single-tuple RHS pattern checks: classify the whole group first so
    // every emitted violation can carry the group statistics. Under a
    // `limit`, emit during the scan instead, with a zeroed majority count.
    let mut rhs_ok: Vec<RowId> = Vec::with_capacity(rows.len());
    let mut failures: Vec<(RowId, AttrId)> = Vec::new();
    for &rid in rows {
        let mut failed = None;
        for (j, b) in pfd.rhs().iter().enumerate() {
            if !row.rhs[j].matches(rel.cell(rid, *b)) {
                failed = Some(*b);
                break;
            }
        }
        match failed {
            Some(b) if limit.is_some() => {
                out.push(Violation::single_tuple(pfd, ti, rid, b, group_size, 0));
                if at_limit(out) {
                    return;
                }
            }
            Some(b) => failures.push((rid, b)),
            None => rhs_ok.push(rid),
        }
    }
    let ok_count = rhs_ok.len() as u32;
    for (rid, b) in failures {
        out.push(Violation::single_tuple(
            pfd, ti, rid, b, group_size, ok_count,
        ));
    }

    // Pair semantics: partition by RHS key.
    if rhs_ok.len() < 2 {
        return;
    }
    let partitions = rhs_partitions(pfd, rel, row, &rhs_ok);
    if partitions.len() <= 1 {
        return;
    }
    // Majority partition is the reference; every other row pairs with its
    // representative.
    let (_, majority) = partitions
        .iter()
        .max_by_key(|(key, rows)| (rows.len(), std::cmp::Reverse((*key).clone())))
        .expect("non-empty");
    let rep = majority[0];
    let majority_rows: Vec<RowId> = majority.clone();
    let majority_size = majority_rows.len() as u32;
    for rows in partitions.values() {
        if rows == &majority_rows {
            continue;
        }
        for &rid in rows {
            // First differing RHS attribute against the majority key.
            let attr = pfd
                .rhs()
                .iter()
                .zip(&row.rhs)
                .find(|(b, cell)| cell.key(rel.cell(rep, **b)) != cell.key(rel.cell(rid, **b)))
                .map(|(b, _)| *b)
                .unwrap_or(pfd.rhs()[0]);
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
