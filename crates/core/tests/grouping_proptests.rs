//! Property tests pinning the interned grouping kernel — behind
//! [`Pfd::violations`], [`Pfd::satisfies`], [`Pfd::audit`] and the
//! [`DeltaEngine`] build and reconcile — to the string-keyed
//! [`reference`] implementations, and [`Pfd::audit_bounded`] to the full
//! audit.
//!
//! Each case is generated from one `u64` seed, logged before the case runs
//! and repeated in every assertion message; the vendored proptest does not
//! shrink, so a failure is replayed by passing its seed to [`case`].
//! Relations draw their cells from small per-column alphabets (so keys
//! collide and groups form), including multi-byte UTF-8 and empty cells,
//! and then overwrite cells with `set_cell`, which leaves dead entries in
//! the column vocabularies. PFDs have 1–3 LHS and 1–2 RHS attributes and
//! 1–5 tableau rows mixing wildcard, constant, variable and ambiguous
//! `\A*[\D+]\A*` cells with cells whose constants the tableau router
//! anchors from the start or the end, so several tableau rows share an
//! anchor. The engine case edits with sets, inserts and deletes, so routed
//! edits are pinned too.

use pfd_core::{reference, DeltaEngine, Edit, IncrementalChecker, Pfd, TableauRow};
use pfd_relation::{AttrId, Relation, Schema};
use proptest::prelude::*;

const ATTRS: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Cell values: ASCII, multi-byte UTF-8, digits in various positions, and
/// the empty string.
const VALUES: &[&str] = &[
    "", "a", "b", "a1", "a12", "b1", "12", "1a2", "é", "é7", "語", "語9x", "ß-3", "a 1", "Zé",
];

/// Tableau cells: the wildcard, whole-value constants (including the empty
/// one), constant-prefix cells, variable cells, a non-empty `pre` segment,
/// the ambiguous `\A*[\D+]\A*`, and constants the router anchors after a
/// fixed-length `pre` or before a fixed-length `post`, over ASCII and
/// multi-byte values.
const CELLS: &[&str] = &[
    "_",
    "_",
    "a",
    "é",
    r"語9x",
    r"[a]\A*",
    r"[é]\A*",
    r"[\A]\A*",
    r"[\LL+]\A*",
    r"[\D+]\A*",
    r"[\A*]",
    r"\A[\A*]",
    r"\A*[\D+]\A*",
    r"\A*[\D+]\A*",
    r"\A[a]\A*",
    r"\A*[1]",
    r"\A*[é]\D",
    r"\A\A[2]",
    r"[語]\A*",
];

/// SplitMix64: everything a case draws derives from its seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.range(0, items.len() - 1)]
    }
}

/// A relation over [`ATTRS`] with 0–14 rows, each column drawing from 1–5
/// values of [`VALUES`], followed by 0–5 `set_cell` overwrites.
fn relation(rng: &mut Rng) -> Relation {
    let alphabets: Vec<Vec<&str>> = ATTRS
        .iter()
        .map(|_| (0..rng.range(1, 5)).map(|_| rng.pick(VALUES)).collect())
        .collect();
    let mut rel = Relation::empty(Schema::new("R", ATTRS).unwrap());
    for _ in 0..rng.range(0, 14) {
        let row = alphabets.iter().map(|a| rng.pick(a).to_string()).collect();
        rel.push_row(row).unwrap();
    }
    if rel.num_rows() > 0 {
        for _ in 0..rng.range(0, 5) {
            let row = rng.range(0, rel.num_rows() - 1);
            let attr = AttrId(rng.range(0, ATTRS.len() - 1));
            rel.set_cell(row, attr, rng.pick(VALUES).to_string())
                .unwrap();
        }
    }
    rel
}

/// A PFD with disjoint LHS (1–3) and RHS (1–2) attributes and 1–5 tableau
/// rows of random [`CELLS`].
fn pfd(rng: &mut Rng) -> Pfd {
    let mut attrs: Vec<AttrId> = (0..ATTRS.len()).map(AttrId).collect();
    for i in (1..attrs.len()).rev() {
        attrs.swap(i, rng.range(0, i));
    }
    let (nl, nr) = (rng.range(1, 3), rng.range(1, 2));
    let lhs = attrs[..nl].to_vec();
    let rhs = attrs[nl..nl + nr].to_vec();
    let tableau = (0..rng.range(1, 5))
        .map(|_| {
            let lhs: Vec<&str> = (0..nl).map(|_| rng.pick(CELLS)).collect();
            let rhs: Vec<&str> = (0..nr).map(|_| rng.pick(CELLS)).collect();
            TableauRow::parse(&lhs, &rhs).unwrap()
        })
        .collect();
    Pfd::new("R", lhs, rhs, tableau).unwrap()
}

/// One edit of a relation with `rows` rows: a set, an insert or a delete
/// (an insert when there is no row to edit).
fn edit(rng: &mut Rng, rows: usize) -> Edit {
    let kind = rng.range(0, 3);
    if rows == 0 || kind == 0 {
        Edit::Insert {
            cells: ATTRS.iter().map(|_| rng.pick(VALUES).to_string()).collect(),
        }
    } else if kind == 1 {
        Edit::Delete {
            row: rng.range(0, rows - 1),
        }
    } else {
        Edit::Set {
            row: rng.range(0, rows - 1),
            attr: AttrId(rng.range(0, ATTRS.len() - 1)),
            value: rng.pick(VALUES).to_string(),
        }
    }
}

/// The case a seed stands for: a relation, 1–3 PFDs, and 0–4 edits for the
/// engine's routed membership updates and reconcile.
fn case(seed: u64) -> (Relation, Vec<Pfd>, Vec<Edit>) {
    let mut rng = Rng(seed);
    let rel = relation(&mut rng);
    let pfds = (0..rng.range(1, 3)).map(|_| pfd(&mut rng)).collect();
    let mut rows = rel.num_rows();
    let edits = (0..rng.range(0, 4))
        .map(|_| {
            let edit = edit(&mut rng, rows);
            match edit {
                Edit::Insert { .. } => rows += 1,
                Edit::Delete { .. } => rows -= 1,
                Edit::Set { .. } => {}
            }
            edit
        })
        .collect();
    (rel, pfds, edits)
}

proptest! {
    #[test]
    fn kernel_matches_string_keyed_reference(seed in any::<u64>()) {
        eprintln!("grouping case seed {seed}");
        let (rel, pfds, _) = case(seed);
        for (pi, pfd) in pfds.iter().enumerate() {
            prop_assert_eq!(
                pfd.violations(&rel),
                reference::violations(pfd, &rel),
                "violations, seed {} pfd {}", seed, pi
            );
            prop_assert_eq!(
                pfd.satisfies(&rel),
                reference::satisfies(pfd, &rel),
                "satisfies, seed {} pfd {}", seed, pi
            );
            let (got, want) = (pfd.audit(&rel), reference::audit(pfd, &rel));
            prop_assert_eq!(
                (got.coverage, got.paired_rows, got.suspect_rows),
                (want.coverage, want.paired_rows, want.suspect_rows),
                "audit, seed {} pfd {}", seed, pi
            );
        }
    }

    #[test]
    fn bounded_audit_stops_one_past_the_allowance(seed in any::<u64>()) {
        eprintln!("grouping case seed {seed}");
        let (rel, pfds, _) = case(seed);
        for (pi, pfd) in pfds.iter().enumerate() {
            let full = pfd.audit(&rel);
            let count = full.suspect_rows.len();
            let bounds = [0, count.saturating_sub(1), count, count + 1, usize::MAX];
            for bound in bounds {
                let mut seen = None;
                let got = pfd.audit_bounded(&rel, |coverage, paired_rows| {
                    seen = Some((coverage, paired_rows));
                    Some(bound)
                });
                let counts = Some((full.coverage, full.paired_rows));
                prop_assert_eq!(seen, counts, "allowance inputs, seed {} pfd {}", seed, pi);
                prop_assert_eq!(
                    (got.coverage, got.paired_rows, got.suspects),
                    (full.coverage, full.paired_rows, Some(count.min(bound.saturating_add(1)))),
                    "bound {}, seed {} pfd {}", bound, seed, pi
                );
            }
            let skipped = pfd.audit_bounded(&rel, |_, _| None);
            prop_assert_eq!(
                (skipped.coverage, skipped.paired_rows, skipped.suspects),
                (full.coverage, full.paired_rows, None),
                "skipped walk, seed {} pfd {}", seed, pi
            );
        }
    }

    #[test]
    fn engine_build_and_reconcile_match_reference(seed in any::<u64>()) {
        eprintln!("grouping case seed {seed}");
        let (rel, pfds, edits) = case(seed);
        // `IncrementalChecker` recomputes through the string-keyed reference.
        let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());
        let mut engine = DeltaEngine::new(rel, pfds);
        prop_assert_eq!(
            engine.sorted_violations(),
            naive.sorted_violations(),
            "build, seed {}", seed
        );
        prop_assert_eq!(
            engine.violation_count(),
            naive.violation_count(),
            "count after build, seed {}", seed
        );
        for edit in edits {
            let want = naive.apply(edit.clone());
            let got = engine.apply(edit.clone());
            prop_assert_eq!(&got, &want, "delta of {:?}, seed {}", edit, seed);
            prop_assert_eq!(
                engine.sorted_violations(),
                naive.sorted_violations(),
                "state after {:?}, seed {}", edit, seed
            );
            prop_assert_eq!(
                engine.violation_count(),
                engine.sorted_violations().len(),
                "running count after {:?}, seed {}", edit, seed
            );
        }
    }
}
