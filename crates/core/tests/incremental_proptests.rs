//! Property tests pinning [`DeltaEngine`] to the naive full-recompute
//! [`IncrementalChecker`] semantics: over random relations and random
//! edit/insert/delete sequences, both engines must yield identical violation
//! sets, identical [`ViolationDelta`]s, and identical error results at every
//! step — and both must agree with a from-scratch batch check. Both must
//! fold the same pairs into `regrouped`, each pair keeping its suspect cell.
//! A live engine's group index must also equal a fresh build's, byte for
//! byte, and its running violation count must equal its violation list's
//! length.

use pfd_core::{
    save_to_bytes, DeltaEngine, DeltaEntry, Edit, IncrementalChecker, Pfd, TableauRow,
    ViolationDelta,
};
use pfd_relation::{AttrId, Relation, RelationError, Schema};
use proptest::prelude::*;

/// Small random relations over a 3-attribute schema with tiny domains so
/// LHS groups collide and violations appear/disappear with useful
/// probability.
fn small_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(cell_value(), 3), 0..10).prop_map(|rows| {
        let mut rel = Relation::empty(Schema::new("R", ["p", "q", "r"]).unwrap());
        for row in rows {
            rel.push_row(row).unwrap();
        }
        rel
    })
}

fn cell_value() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("ax".to_string()),
        Just("bx".to_string()),
    ]
}

/// A raw edit: rows are drawn from a wide range and mostly folded into the
/// live row count at apply time, so scripts stay valid while still probing
/// the occasional out-of-range error.
#[derive(Debug, Clone)]
enum RawEdit {
    Set {
        row: usize,
        attr: usize,
        value: String,
    },
    Insert {
        cells: Vec<String>,
    },
    Delete {
        row: usize,
    },
}

fn raw_edit() -> impl Strategy<Value = RawEdit> {
    prop_oneof![
        4 => (0usize..24, 0usize..3, cell_value())
            .prop_map(|(row, attr, value)| RawEdit::Set { row, attr, value }),
        1 => proptest::collection::vec(cell_value(), 3)
            .prop_map(|cells| RawEdit::Insert { cells }),
        1 => (0usize..24).prop_map(|row| RawEdit::Delete { row }),
    ]
}

/// Materialize a raw edit against the current row count. Most draws are
/// folded in-range; a slice stays out of range to exercise the error path.
fn materialize(raw: &RawEdit, num_rows: usize) -> Edit {
    let fold = |row: usize| {
        if row >= 20 || num_rows == 0 {
            row // deliberately out of range
        } else {
            row % num_rows
        }
    };
    match raw {
        RawEdit::Set { row, attr, value } => Edit::Set {
            row: fold(*row),
            attr: AttrId(*attr),
            value: value.clone(),
        },
        RawEdit::Insert { cells } => Edit::Insert {
            cells: cells.clone(),
        },
        RawEdit::Delete { row } => Edit::Delete { row: fold(*row) },
    }
}

/// Materialize a whole script against the evolving row count, dropping
/// the out-of-range draws, so it is valid end to end (batch validation is
/// all-or-nothing).
fn valid_edits(script: &[RawEdit], num_rows: usize) -> Vec<Edit> {
    let mut edits = Vec::new();
    let mut n = num_rows;
    for raw in script {
        let edit = materialize(raw, n);
        match &edit {
            Edit::Set { row, .. } if *row >= n => continue,
            Edit::Delete { row } if *row >= n => continue,
            Edit::Insert { .. } => n += 1,
            Edit::Delete { .. } => n -= 1,
            Edit::Set { .. } => {}
        }
        edits.push(edit);
    }
    edits
}

/// The monitored PFD set: a plain FD (wildcard tableau, pair semantics), a
/// constant PFD (single-tuple semantics), and a prefix-pattern PFD whose
/// LHS groups by the leading letter — three distinct grouping behaviours.
fn pfd_set(schema: &Schema) -> Vec<Pfd> {
    let fd = Pfd::fd("R", schema, &["p"], &["q"]).unwrap();
    let constant = Pfd::constant_normal_form("R", schema, "q", "a", "r", "b").unwrap();
    let mut prefix = Pfd::constant_normal_form("R", schema, "p", r"[a]\A*", "r", "_").unwrap();
    prefix
        .add_row(TableauRow::parse(&[r"[b]\A*"], &["_"]).unwrap())
        .unwrap();
    vec![fd, constant, prefix]
}

/// Full-recompute ground truth, independent of either engine's caching.
fn batch_truth(rel: &Relation, pfds: &[Pfd]) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = pfds
        .iter()
        .enumerate()
        .flat_map(|(pi, p)| {
            p.violations(rel)
                .into_iter()
                .map(move |v| (pi, format!("{v:?}")))
        })
        .collect();
    out.sort();
    out
}

/// The regrouped pairs of both engines' deltas agree, and each pair keeps
/// its suspect cell (PFD, tableau row, kind, attribute, offending row)
/// while its partner or group statistics change.
fn check_regrouped(
    naive: &Result<ViolationDelta, RelationError>,
    delta: &Result<ViolationDelta, RelationError>,
) -> Result<(), TestCaseError> {
    let (Ok(naive), Ok(delta)) = (naive, delta) else {
        return Ok(());
    };
    prop_assert_eq!(&naive.regrouped, &delta.regrouped);
    let suspect = |e: &DeltaEntry| {
        let v = &e.violation;
        (
            e.pfd_index,
            v.tableau_row,
            v.kind,
            v.attr,
            v.offending_row(),
        )
    };
    for (before, after) in &delta.regrouped {
        prop_assert_eq!(suspect(before), suspect(after));
        prop_assert_ne!(before, after);
    }
    Ok(())
}

proptest! {
    #[test]
    fn delta_engine_matches_naive_checker_stepwise(
        rel in small_relation(),
        script in proptest::collection::vec(raw_edit(), 0..16),
    ) {
        let pfds = pfd_set(rel.schema());
        let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());
        let mut delta = DeltaEngine::new(rel, pfds);
        prop_assert_eq!(naive.sorted_violations(), delta.sorted_violations());

        for raw in &script {
            let edit = materialize(raw, naive.relation().num_rows());
            let a = naive.apply(edit.clone());
            let b = delta.apply(edit.clone());
            check_regrouped(&a, &b)?;
            prop_assert_eq!(&a, &b, "delta mismatch on {:?}", edit);
            prop_assert_eq!(
                naive.sorted_violations(),
                delta.sorted_violations(),
                "state mismatch after {:?}", edit
            );
            prop_assert_eq!(naive.relation(), delta.relation());
            prop_assert_eq!(
                delta.violation_count(),
                delta.sorted_violations().len(),
                "running count after {:?}", edit
            );
            // Both engines track the from-scratch batch check exactly.
            let truth = batch_truth(delta.relation(), delta.pfds());
            let live: Vec<(usize, String)> = delta
                .sorted_violations()
                .into_iter()
                .map(|e| (e.pfd_index, format!("{:?}", e.violation)))
                .collect();
            let mut live = live;
            live.sort();
            prop_assert_eq!(live, truth, "cache diverged from ground truth");
            if let Ok(d) = &a {
                prop_assert_eq!(d.version, naive.relation().version());
            }
        }
    }

    #[test]
    fn batched_apply_matches_naive_batch_and_sequential_state(
        rel in small_relation(),
        script in proptest::collection::vec(raw_edit(), 1..12),
    ) {
        let pfds = pfd_set(rel.schema());
        let edits = valid_edits(&script, rel.num_rows());

        let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());
        let mut batched = DeltaEngine::new(rel.clone(), pfds.clone());
        let mut sequential = DeltaEngine::new(rel, pfds);

        let a = naive.apply_batch(&edits);
        let b = batched.apply_batch(&edits);
        check_regrouped(&a, &b)?;
        prop_assert_eq!(&a, &b, "batch delta mismatch");
        prop_assert_eq!(naive.sorted_violations(), batched.sorted_violations());
        prop_assert_eq!(batched.violation_count(), batched.sorted_violations().len());

        for edit in &edits {
            sequential.apply(edit.clone()).unwrap();
            prop_assert_eq!(
                sequential.violation_count(),
                sequential.sorted_violations().len(),
                "running count after {:?}", edit
            );
        }
        prop_assert_eq!(
            batched.sorted_violations(),
            sequential.sorted_violations(),
            "batched and sequential application disagree on the end state"
        );
        prop_assert_eq!(batched.relation(), sequential.relation());
        prop_assert_eq!(
            batch_truth(batched.relation(), batched.pfds()),
            batch_truth(sequential.relation(), sequential.pfds())
        );
    }

    /// The group index an edit script leaves behind, applied one edit at a
    /// time or as one batch, is exactly the one a fresh build over the
    /// edited relation groups: same keys, same row sets, same cached
    /// violations. Snapshot bytes hold all three, so they must be equal.
    #[test]
    fn live_group_index_equals_a_fresh_build(
        rel in small_relation(),
        script in proptest::collection::vec(raw_edit(), 0..16),
    ) {
        let pfds = pfd_set(rel.schema());
        let edits = valid_edits(&script, rel.num_rows());
        let mut stepwise = DeltaEngine::new(rel.clone(), pfds.clone());
        for edit in &edits {
            stepwise.apply(edit.clone()).unwrap();
        }
        let mut batched = DeltaEngine::new(rel, pfds.clone());
        batched.apply_batch(&edits).unwrap();
        for live in [&stepwise, &batched] {
            let fresh = DeltaEngine::new(live.relation().clone(), pfds.clone());
            prop_assert!(
                save_to_bytes(live) == save_to_bytes(&fresh),
                "live group index differs from a fresh build after {:?}", edits
            );
        }
    }
}
