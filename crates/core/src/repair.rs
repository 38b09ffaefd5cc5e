//! Cost-based, delta-driven pattern repair.
//!
//! §4.5 motivates *automatic and explainable* repairs: every fix this module
//! applies is justified by a specific PFD tableau row, so a data steward can
//! audit why each cell changed. §5.3 evaluates repairs by applying the PFD's
//! suggested change and comparing with ground truth; [`evaluate_repairs`]
//! implements that comparison.
//!
//! ## Conflict graph and scoring
//!
//! When several PFDs implicate the same cell with different suggestions, the
//! candidates form a per-cell conflict set resolved by an explicit score
//! (not by rule order):
//!
//! ```text
//! total = 0.6 · support + 0.4 · confidence − 0.15 · depth   (clamped ≥ 0)
//! ```
//!
//! - **support** — `agree / group_size`: the fraction of the violation's
//!   LHS-key group that already agrees with the suggestion (the majority
//!   weight behind a pair repair, the RHS-conforming rows behind a constant
//!   repair);
//! - **confidence** — 1.0 for exact suggestions (a fully-constant RHS cell
//!   or a splice into a matching value), 0.5 for the lossy whole-cell
//!   fallback of [`DetectOptions::whole_cell_fallback`];
//! - **depth** — how many times this cell was already rewritten earlier in
//!   the chase: cascading re-fixes of one cell are progressively
//!   distrusted, and a candidate whose total *starves to zero* is dropped
//!   entirely (its flag reported as unrepaired) — an inconsistent rule
//!   that keeps re-asserting a value nobody supports stops oscillating
//!   after a few rewrites instead of ping-ponging until the pass cap.
//!
//! Ties break deterministically: lower PFD index, then lower tableau row,
//! then lexicographically smaller suggestion. The winning fix records its
//! score breakdown and the losing candidates on [`CellFix`], so `pfd repair
//! --explain` can show *why* each value was chosen.
//!
//! A winning fix is additionally *deferred* to the next pass when a cell
//! its suggestion derives from is also being fixed (cascade deferral) —
//! a same-row cell the justifying rule's LHS reads, or the pair majority
//! representative's cell the suggestion was spliced from: a suggestion
//! derived from a value about to change is premature. On chained rule
//! sets this drives the chase to the same fixpoint with one clean rewrite
//! per cell instead of churning downstream cells once per upstream link.
//!
//! ## Engines
//!
//! Two fixpoint engines share the scoring and conflict resolution above and
//! are property-pinned to identical outcomes
//! (`crates/core/tests/repair_proptests.rs`):
//!
//! - [`repair_to_fixpoint`] — the naive reference: every pass clones the
//!   relation and re-detects violations over every row. O(relation ×
//!   passes), trivially correct.
//! - [`RepairEngine`] — the production engine, layered on the incremental
//!   [`DeltaEngine`]: violations are read from the per-PFD group indexes,
//!   each pass's fixes flow through [`DeltaEngine::apply_batch`], and only
//!   the dirty groups are re-evaluated. No per-pass relation clone, no full
//!   rescan; `BENCH_repair.json` tracks the win.

use crate::detect::{detect_errors_with, flag_for_violation, CellFlag, DetectOptions};
use crate::incremental::{entry_key, DeltaEngine, DeltaEntry, Edit, EntryKey};
use crate::pfd::{Pfd, ViolationKind};
use pfd_relation::{AttrId, Relation, RowId};
use std::collections::{BTreeMap, BTreeSet};

/// Weight of the support component in a fix score.
pub const SUPPORT_WEIGHT: f64 = 0.6;
/// Weight of the confidence component in a fix score.
pub const CONFIDENCE_WEIGHT: f64 = 0.4;
/// Score penalty per prior rewrite of the same cell within one chase.
pub const DEPTH_PENALTY: f64 = 0.15;

/// The score breakdown of one candidate fix (see the module docs for the
/// formula).
#[derive(Debug, Clone, PartialEq)]
pub struct FixScore {
    /// `agree / group_size` of the underlying violation.
    pub support: f64,
    /// 1.0 for exact suggestions, 0.5 for the whole-cell fallback.
    pub confidence: f64,
    /// Prior rewrites of this cell within the current chase.
    pub depth: usize,
    /// The combined score the conflict resolution ranks by.
    pub total: f64,
}

impl FixScore {
    /// Score a candidate from its violation statistics.
    pub fn compute(
        agree: usize,
        group_size: usize,
        low_confidence: bool,
        depth: usize,
    ) -> FixScore {
        let support = if group_size == 0 {
            0.0
        } else {
            agree as f64 / group_size as f64
        };
        let confidence = if low_confidence { 0.5 } else { 1.0 };
        let total = (SUPPORT_WEIGHT * support + CONFIDENCE_WEIGHT * confidence
            - DEPTH_PENALTY * depth as f64)
            .max(0.0);
        FixScore {
            support,
            confidence,
            depth,
            total,
        }
    }
}

/// One scored candidate in a cell's conflict set.
#[derive(Debug, Clone, PartialEq)]
pub struct FixCandidate {
    /// The PFD (by index into the repair set) proposing the fix.
    pub pfd_index: usize,
    /// The tableau row within that PFD.
    pub tableau_row: usize,
    /// How the underlying violation fired.
    pub kind: ViolationKind,
    /// The value this candidate would write.
    pub suggestion: String,
    /// The candidate's score breakdown.
    pub score: FixScore,
}

/// One applied fix, with provenance and the conflict set it won.
#[derive(Debug, Clone, PartialEq)]
pub struct CellFix {
    /// The repaired row.
    pub row: RowId,
    /// The repaired attribute.
    pub attr: AttrId,
    /// The dirty value that was replaced.
    pub old: String,
    /// The value written.
    pub new: String,
    /// The PFD (by index into the repair set) that justified the fix.
    pub pfd_index: usize,
    /// The tableau row within that PFD.
    pub tableau_row: usize,
    /// The winning candidate's score breakdown.
    pub score: FixScore,
    /// The losing candidates for this cell, best first (empty when the cell
    /// was uncontested).
    pub competitors: Vec<FixCandidate>,
}

/// Outcome of a repair pass (or a whole fixpoint chase).
///
/// **Conflict resolution**: when several PFDs implicate the same cell with
/// different suggestions, at most one fix is applied per cell — the
/// candidate with the highest [`FixScore`] (support, confidence, cascade
/// depth; ties break on PFD index, tableau row, then suggestion). The
/// winner's [`pfd_index`](CellFix::pfd_index) records the provenance and
/// [`competitors`](CellFix::competitors) the candidates it beat.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// The repaired relation.
    pub relation: Relation,
    /// Fixes applied, in application order (at most one per cell per pass).
    pub fixes: Vec<CellFix>,
    /// Flags that carried no suggestion (detected but not repairable) or
    /// whose candidate's score starved to zero under the cascade-depth
    /// penalty, canonically sorted by (row, attr, pfd, tableau row).
    pub unrepaired: Vec<CellFlag>,
}

/// Rank a cell's conflict set best-first: score, then the deterministic
/// tie-break (PFD index, tableau row, suggestion).
fn rank_candidates(candidates: &mut [(FixCandidate, Option<RowId>)]) {
    candidates.sort_by(|(a, _), (b, _)| {
        b.score
            .total
            .total_cmp(&a.score.total)
            .then_with(|| a.pfd_index.cmp(&b.pfd_index))
            .then_with(|| a.tableau_row.cmp(&b.tableau_row))
            .then_with(|| a.suggestion.cmp(&b.suggestion))
    });
}

/// Build the per-cell conflict graph from one pass's flags, score every
/// candidate and pick the winners. `fix_counts` carries how many times each
/// cell was already rewritten in the current chase (the cascade depth).
/// Returns the fixes in (row, attr) order and the suggestion-less flags,
/// canonically sorted.
///
/// **Cascade deferral**: a winning fix is *deferred* (dropped this pass,
/// revisited next pass) when a cell its suggestion was derived from also
/// has a fix planned — either a same-row cell the justifying PFD's LHS
/// reads, or, for pair violations, the majority representative's cell the
/// suggestion was spliced from. A suggestion derived from a value about to
/// change is premature, and applying it is exactly the churn that makes
/// naive chases rewrite downstream cells once per upstream link. If
/// deferral would starve the pass entirely (mutually-dependent rules), all
/// winners apply instead so the chase always progresses.
fn plan_fixes(
    flags: Vec<CellFlag>,
    pfds: &[Pfd],
    fix_counts: &BTreeMap<(RowId, AttrId), usize>,
) -> (Vec<CellFix>, Vec<CellFlag>) {
    let mut unrepaired: Vec<CellFlag> = Vec::new();
    // Per contested cell: the current value and the candidates, each
    // paired with the majority-representative row its suggestion was
    // spliced from (pair violations only) for the deferral check.
    type Contenders = (String, Vec<(FixCandidate, Option<RowId>)>);
    let mut cells: BTreeMap<(RowId, AttrId), Contenders> = BTreeMap::new();
    for flag in flags {
        let Some(suggestion) = flag.suggestion.clone() else {
            unrepaired.push(flag);
            continue;
        };
        let depth = fix_counts.get(&(flag.row, flag.attr)).copied().unwrap_or(0);
        let score = FixScore::compute(flag.agree, flag.group_size, flag.low_confidence, depth);
        if score.total <= 0.0 {
            // Starved: the cascade-depth penalty ate the whole score. The
            // candidate stops competing (and stops oscillating) — surface
            // the flag as unrepaired instead.
            unrepaired.push(flag);
            continue;
        }
        cells
            .entry((flag.row, flag.attr))
            .or_insert_with(|| (flag.current.clone(), Vec::new()))
            .1
            .push((
                FixCandidate {
                    pfd_index: flag.pfd_index,
                    tableau_row: flag.tableau_row,
                    kind: flag.kind,
                    suggestion,
                    score,
                },
                flag.majority_row,
            ));
    }
    unrepaired.sort_by(|a, b| {
        (a.row, a.attr, a.pfd_index, a.tableau_row).cmp(&(
            b.row,
            b.attr,
            b.pfd_index,
            b.tableau_row,
        ))
    });

    let mut winners: Vec<(CellFix, Option<RowId>)> = Vec::with_capacity(cells.len());
    for ((row, attr), (old, mut candidates)) in cells {
        rank_candidates(&mut candidates);
        let (winner, majority_row) = candidates.remove(0);
        if winner.suggestion == old {
            continue;
        }
        winners.push((
            CellFix {
                row,
                attr,
                old,
                new: winner.suggestion,
                pfd_index: winner.pfd_index,
                tableau_row: winner.tableau_row,
                score: winner.score,
                competitors: candidates.into_iter().map(|(c, _)| c).collect(),
            },
            majority_row,
        ));
    }

    // Cascade deferral (see above): hold back fixes derived from a cell
    // that is also being fixed — a same-row LHS cell of the justifying
    // rule, or the pair majority representative's cell.
    let planned: BTreeSet<(RowId, AttrId)> = winners.iter().map(|(f, _)| (f.row, f.attr)).collect();
    let derived_from_planned = |f: &CellFix, rep: &Option<RowId>| {
        pfds[f.pfd_index]
            .lhs()
            .iter()
            .any(|a| *a != f.attr && planned.contains(&(f.row, *a)))
            || rep.is_some_and(|r| planned.contains(&(r, f.attr)))
    };
    let (kept, deferred): (Vec<_>, Vec<_>) = winners
        .into_iter()
        .partition(|(f, rep)| !derived_from_planned(f, rep));
    let chosen = if kept.is_empty() { deferred } else { kept };
    let fixes = chosen.into_iter().map(|(f, _)| f).collect();
    (fixes, unrepaired)
}

/// One naive repair pass: full detection, conflict resolution, apply.
fn repair_pass(
    rel: &Relation,
    pfds: &[Pfd],
    options: &DetectOptions,
    fix_counts: &BTreeMap<(RowId, AttrId), usize>,
) -> RepairOutcome {
    let report = detect_errors_with(rel, pfds, options);
    let (fixes, unrepaired) = plan_fixes(report.flags, pfds, fix_counts);
    let mut fixed = rel.clone();
    for fix in &fixes {
        fixed
            .set_cell(fix.row, fix.attr, fix.new.clone())
            .expect("flag coordinates are in range");
    }
    RepairOutcome {
        relation: fixed,
        fixes,
        unrepaired,
    }
}

/// Detect violations of `pfds` and apply one pass of scored fixes (see the
/// module docs for the conflict resolution).
pub fn repair(rel: &Relation, pfds: &[Pfd]) -> RepairOutcome {
    repair_with(rel, pfds, &DetectOptions::default())
}

/// [`repair`] with explicit suggestion-derivation options.
pub fn repair_with(rel: &Relation, pfds: &[Pfd], options: &DetectOptions) -> RepairOutcome {
    repair_pass(rel, pfds, options, &BTreeMap::new())
}

/// Repeat [`repair`] until no further fixes apply (the chase): a fix can
/// surface new violations — repairing `city` by zip prefix may expose a
/// `city → state` conflict — so one pass is not always enough. Returns the
/// final relation, all fixes in application order, and the number of passes
/// (capped at `max_passes`; the cap guards against oscillating rule sets,
/// which inconsistent PFDs can produce).
///
/// This is the *pinned naive reference*: every pass clones the relation and
/// re-detects over every row. [`RepairEngine`] produces identical outcomes
/// incrementally; the property suite holds the two together.
pub fn repair_to_fixpoint(
    rel: &Relation,
    pfds: &[Pfd],
    max_passes: usize,
) -> (RepairOutcome, usize) {
    repair_to_fixpoint_with(rel, pfds, max_passes, &DetectOptions::default())
}

/// [`repair_to_fixpoint`] with explicit suggestion-derivation options.
pub fn repair_to_fixpoint_with(
    rel: &Relation,
    pfds: &[Pfd],
    max_passes: usize,
    options: &DetectOptions,
) -> (RepairOutcome, usize) {
    let mut current = rel.clone();
    let mut all_fixes: Vec<CellFix> = Vec::new();
    let mut last_unrepaired = Vec::new();
    let mut fix_counts: BTreeMap<(RowId, AttrId), usize> = BTreeMap::new();
    let mut passes = 0;
    while passes < max_passes {
        let outcome = repair_pass(&current, pfds, options, &fix_counts);
        passes += 1;
        last_unrepaired = outcome.unrepaired;
        current = outcome.relation;
        if outcome.fixes.is_empty() {
            break;
        }
        for fix in &outcome.fixes {
            *fix_counts.entry((fix.row, fix.attr)).or_insert(0) += 1;
        }
        all_fixes.extend(outcome.fixes);
    }
    (
        RepairOutcome {
            relation: current,
            fixes: all_fixes,
            unrepaired: last_unrepaired,
        },
        passes,
    )
}

/// Options for a [`RepairEngine`] chase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairOptions {
    /// Pass cap for the fixpoint chase (guards oscillating rule sets).
    pub max_passes: usize,
    /// Suggestion-derivation options shared with detection.
    pub detect: DetectOptions,
}

impl Default for RepairOptions {
    fn default() -> RepairOptions {
        RepairOptions {
            max_passes: 10,
            detect: DetectOptions::default(),
        }
    }
}

/// The delta-driven repair engine: the fixpoint chase of
/// [`repair_to_fixpoint`] implemented over the incremental [`DeltaEngine`].
///
/// Construction builds the per-PFD group indexes once; [`run`](Self::run)
/// then reads the current violations from the index caches, plans one
/// pass's fixes through the same conflict graph as the naive path, and
/// applies them as one [`DeltaEngine::apply_batch`] — so only the groups a
/// fix touched are re-evaluated, and the next pass starts from the returned
/// violation delta instead of a rescan. No per-pass relation clone, no full
/// detection pass after the first.
///
/// The engine stays usable after a chase: `pfd session` keeps one around,
/// applies steward edits through [`engine_mut`](Self::engine_mut) and runs
/// `repair` commands on the shared state.
#[derive(Debug, Clone)]
pub struct RepairEngine {
    engine: DeltaEngine,
    options: RepairOptions,
}

impl RepairEngine {
    /// Build the engine (group indexes included) for a relation + rule set.
    pub fn new(rel: Relation, pfds: Vec<Pfd>, options: RepairOptions) -> RepairEngine {
        RepairEngine::from_engine(DeltaEngine::new(rel, pfds), options)
    }

    /// Wrap an existing delta engine (shares its relation and indexes).
    pub fn from_engine(engine: DeltaEngine, options: RepairOptions) -> RepairEngine {
        RepairEngine { engine, options }
    }

    /// The chase options.
    pub fn options(&self) -> &RepairOptions {
        &self.options
    }

    /// Mutable access to the chase options (e.g. a per-command pass cap in
    /// the session protocol).
    pub fn options_mut(&mut self) -> &mut RepairOptions {
        &mut self.options
    }

    /// The underlying delta engine.
    pub fn engine(&self) -> &DeltaEngine {
        &self.engine
    }

    /// Mutable access to the underlying delta engine, for callers (like the
    /// session loop) that interleave their own edits with repair chases.
    pub fn engine_mut(&mut self) -> &mut DeltaEngine {
        &mut self.engine
    }

    /// The current relation state.
    pub fn relation(&self) -> &Relation {
        self.engine.relation()
    }

    /// Consume the engine, returning the delta engine.
    pub fn into_engine(self) -> DeltaEngine {
        self.engine
    }

    /// Consume the engine, returning the (repaired) relation.
    pub fn into_relation(self) -> Relation {
        self.engine.into_relation()
    }

    /// Chase to a fixpoint from the current state. Returns the outcome
    /// (whose `relation` is a clone of the engine's state, which this call
    /// also advances) and the number of passes.
    pub fn run(&mut self) -> (RepairOutcome, usize) {
        // The live violation set in canonical order, maintained from the
        // batch deltas — pass N+1 never rescans the relation.
        let mut live: BTreeMap<EntryKey, DeltaEntry> = self
            .engine
            .sorted_violations()
            .into_iter()
            .map(|e| (entry_key(&e), e))
            .collect();
        // Flag cache + dirty queue: deriving a flag (pattern matching, key
        // extraction, splicing) is the per-pass cost, so each pass pops only
        // the keys the previous batch touched and recomputes those, reusing
        // cached flags for the rest. A key is dirty when the delta
        // introduced it, or when a surviving violation names an edited cell
        // — its flag splices from that cell's value, and the delta does not
        // re-report a violation whose group statistics were left unchanged
        // by the rewrite. Pass one seeds the queue with every live key.
        let mut flags: BTreeMap<EntryKey, CellFlag> = BTreeMap::new();
        let mut dirty: BTreeSet<EntryKey> = live.keys().cloned().collect();
        let mut fix_counts: BTreeMap<(RowId, AttrId), usize> = BTreeMap::new();
        let mut all_fixes: Vec<CellFix> = Vec::new();
        let mut last_unrepaired = Vec::new();
        let mut passes = 0;
        while passes < self.options.max_passes {
            {
                let pfds = self.engine.pfds();
                let rel = self.engine.relation();
                for key in &dirty {
                    let e = &live[key];
                    flags.insert(
                        key.clone(),
                        flag_for_violation(
                            &pfds[e.pfd_index],
                            e.pfd_index,
                            &e.violation,
                            rel,
                            &self.options.detect,
                        ),
                    );
                }
            }
            dirty.clear();
            // `flags` and `live` share a keyset, so values() walks the same
            // canonical EntryKey order the full recomputation used to.
            let pass_flags: Vec<CellFlag> = flags.values().cloned().collect();
            let (fixes, unrepaired) = plan_fixes(pass_flags, self.engine.pfds(), &fix_counts);
            passes += 1;
            last_unrepaired = unrepaired;
            if fixes.is_empty() {
                break;
            }
            let edits: Vec<Edit> = fixes
                .iter()
                .map(|f| Edit::Set {
                    row: f.row,
                    attr: f.attr,
                    value: f.new.clone(),
                })
                .collect();
            let delta = self
                .engine
                .apply_batch(&edits)
                .expect("fix coordinates are in range");
            // Cell edits never renumber rows, so resolved entries key
            // directly into the live map. A regrouped pair is its before
            // entry resolved and its after entry introduced.
            let (regrouped_before, regrouped_after): (Vec<_>, Vec<_>) =
                delta.regrouped.into_iter().unzip();
            for e in delta.resolved.into_iter().chain(regrouped_before) {
                let k = entry_key(&e);
                live.remove(&k);
                flags.remove(&k);
            }
            for e in delta.introduced.into_iter().chain(regrouped_after) {
                let k = entry_key(&e);
                dirty.insert(k.clone());
                live.insert(k, e);
            }
            // Surviving violations can still go stale: a rewrite that leaves
            // a group's statistics intact is netted out of the delta, but any
            // flag reading the rewritten cell must re-splice from the new
            // value.
            let edited: BTreeSet<(RowId, AttrId)> = fixes.iter().map(|f| (f.row, f.attr)).collect();
            dirty.extend(
                live.iter()
                    .filter(|(_, e)| e.violation.cells().iter().any(|c| edited.contains(c)))
                    .map(|(k, _)| k.clone()),
            );
            for fix in &fixes {
                *fix_counts.entry((fix.row, fix.attr)).or_insert(0) += 1;
            }
            all_fixes.extend(fixes);
        }
        (
            RepairOutcome {
                relation: self.engine.relation().clone(),
                fixes: all_fixes,
                unrepaired: last_unrepaired,
            },
            passes,
        )
    }
}

/// Quality of a repair pass against the clean ground-truth relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepairEval {
    /// Fixes whose new value equals the ground truth.
    pub correct: usize,
    /// Fixes that set a wrong value.
    pub incorrect: usize,
    /// Fixes applied to cells that were not dirty at all.
    pub spurious: usize,
}

impl RepairEval {
    /// Total fixes evaluated.
    pub fn total(&self) -> usize {
        self.correct + self.incorrect + self.spurious
    }

    /// Fraction of applied fixes that restore the ground truth.
    pub fn precision(&self) -> f64 {
        if self.total() == 0 {
            1.0
        } else {
            self.correct as f64 / self.total() as f64
        }
    }

    /// Fraction of `total_errors` ground-truth dirty cells restored; 1.0
    /// when there were no errors.
    pub fn recall(&self, total_errors: usize) -> f64 {
        if total_errors == 0 {
            1.0
        } else {
            self.correct as f64 / total_errors as f64
        }
    }
}

/// Compare applied fixes with the clean relation: a fix is *correct* when it
/// restores the clean value, *spurious* when the dirty value already was
/// clean, *incorrect* otherwise.
pub fn evaluate_repairs(fixes: &[CellFix], clean: &Relation) -> RepairEval {
    let mut eval = RepairEval {
        correct: 0,
        incorrect: 0,
        spurious: 0,
    };
    for fix in fixes {
        let truth = clean.cell(fix.row, fix.attr);
        if fix.old == truth {
            eval.spurious += 1;
        } else if fix.new == truth {
            eval.correct += 1;
        } else {
            eval.incorrect += 1;
        }
    }
    eval
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tableau::TableauRow;

    fn dirty_name_table() -> Relation {
        Relation::from_rows(
            "Name",
            &["name", "gender"],
            vec![
                vec!["John Charles", "M"],
                vec!["John Bosco", "M"],
                vec!["Susan Orlean", "F"],
                vec!["Susan Boyle", "M"], // dirty
            ],
        )
        .unwrap()
    }

    fn clean_name_table() -> Relation {
        let mut r = dirty_name_table();
        let g = r.schema().attr("gender").unwrap();
        r.set_cell(3, g, "F".into()).unwrap();
        r
    }

    fn gender_pfd(rel: &Relation) -> Pfd {
        let mut p =
            Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")
                .unwrap();
        p.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
            .unwrap();
        p
    }

    #[test]
    fn repair_fixes_the_paper_example() {
        let dirty = dirty_name_table();
        let outcome = repair(&dirty, &[gender_pfd(&dirty)]);
        assert_eq!(outcome.fixes.len(), 1);
        let fix = &outcome.fixes[0];
        assert_eq!(fix.row, 3);
        assert_eq!(fix.old, "M");
        assert_eq!(fix.new, "F");
        assert!(fix.competitors.is_empty(), "uncontested cell");
        assert_eq!(fix.score.confidence, 1.0, "exact constant suggestion");
        assert_eq!(fix.score.depth, 0);
        assert_eq!(outcome.relation, clean_name_table());
    }

    #[test]
    fn repaired_relation_satisfies_the_pfd() {
        let dirty = dirty_name_table();
        let pfd = gender_pfd(&dirty);
        let outcome = repair(&dirty, std::slice::from_ref(&pfd));
        assert!(pfd.satisfies(&outcome.relation));
    }

    #[test]
    fn evaluation_against_ground_truth() {
        let dirty = dirty_name_table();
        let outcome = repair(&dirty, &[gender_pfd(&dirty)]);
        let eval = evaluate_repairs(&outcome.fixes, &clean_name_table());
        assert_eq!(eval.correct, 1);
        assert_eq!(eval.incorrect, 0);
        assert_eq!(eval.spurious, 0);
        assert_eq!(eval.precision(), 1.0);
        assert_eq!(eval.recall(1), 1.0);
    }

    #[test]
    fn provenance_names_each_fixing_pfd() {
        let dirty = dirty_name_table();
        // A bogus PFD claiming Susan → M, listed after the good one. The two
        // rules flag different cells, so both fixes apply with their own
        // provenance.
        let bogus = Pfd::constant_normal_form(
            "Name",
            dirty.schema(),
            "name",
            r"[Susan\ ]\A*",
            "gender",
            "M",
        )
        .unwrap();
        let outcome = repair(&dirty, &[gender_pfd(&dirty), bogus]);
        let by_cell: std::collections::BTreeMap<_, _> = outcome
            .fixes
            .iter()
            .map(|f| (f.row, (f.pfd_index, f.new.clone())))
            .collect();
        assert_eq!(by_cell[&3], (0, "F".to_string()), "good PFD fixes r4");
        assert_eq!(by_cell[&2], (1, "M".to_string()), "bogus PFD hits r3");
    }

    #[test]
    fn same_cell_conflict_resolved_by_support_in_both_orders() {
        // Two PFDs fighting over exactly one cell, r4[gender]: the good one
        // says Susan → F (backed by Susan Orlean), the bogus one says
        // Boyle → M (backed by nobody)... after r4's gender is first
        // knocked to "X" so both fire with conflicting suggestions.
        let mut dirty = dirty_name_table();
        let g = dirty.schema().attr("gender").unwrap();
        dirty.set_cell(3, g, "X".into()).unwrap();
        let susan_f = Pfd::constant_normal_form(
            "Name",
            dirty.schema(),
            "name",
            r"[Susan\ ]\A*",
            "gender",
            "F",
        )
        .unwrap();
        let boyle_m = Pfd::cfd(
            "Name",
            dirty.schema(),
            &[("name", Some("Susan Boyle"))],
            ("gender", Some("M")),
        )
        .unwrap();

        // susan_f's group {r3, r4} has one conforming row → support 0.5;
        // boyle_m's group {r4} has none → support 0. The supported fix wins
        // regardless of rule order, and the loser is recorded.
        for pfds in [
            vec![susan_f.clone(), boyle_m.clone()],
            vec![boyle_m, susan_f],
        ] {
            let outcome = repair(&dirty, &pfds);
            assert_eq!(outcome.fixes.len(), 1, "one fix per cell, never two");
            let fix = &outcome.fixes[0];
            assert_eq!(fix.new, "F", "the supported candidate wins both orders");
            assert_eq!(fix.score.support, 0.5);
            assert_eq!(fix.competitors.len(), 1);
            assert_eq!(fix.competitors[0].suggestion, "M");
            assert_eq!(fix.competitors[0].score.support, 0.0);
            assert_eq!(outcome.relation.cell(3, g), "F");
        }
    }

    #[test]
    fn equal_scores_tie_break_on_pfd_index() {
        // Two single-row CFDs with identical statistics (group {r4}, zero
        // support) disagree on the fix: the deterministic tie-break hands
        // the cell to the lower PFD index in either order.
        let mut dirty = dirty_name_table();
        let g = dirty.schema().attr("gender").unwrap();
        dirty.set_cell(3, g, "X".into()).unwrap();
        let to_f = Pfd::cfd(
            "Name",
            dirty.schema(),
            &[("name", Some("Susan Boyle"))],
            ("gender", Some("F")),
        )
        .unwrap();
        let to_m = Pfd::cfd(
            "Name",
            dirty.schema(),
            &[("name", Some("Susan Boyle"))],
            ("gender", Some("M")),
        )
        .unwrap();
        let outcome = repair(&dirty, &[to_f.clone(), to_m.clone()]);
        assert_eq!(outcome.fixes[0].new, "F");
        assert_eq!(outcome.fixes[0].pfd_index, 0);
        let outcome = repair(&dirty, &[to_m, to_f]);
        assert_eq!(outcome.fixes[0].new, "M");
        assert_eq!(outcome.fixes[0].pfd_index, 0);
    }

    #[test]
    fn wrong_pfd_produces_incorrect_fix() {
        let dirty = dirty_name_table();
        let bogus = Pfd::constant_normal_form(
            "Name",
            dirty.schema(),
            "name",
            r"[John\ ]\A*",
            "gender",
            "F", // wrong on purpose
        )
        .unwrap();
        let outcome = repair(&dirty, &[bogus]);
        assert_eq!(outcome.fixes.len(), 2, "both Johns get 'fixed'");
        let eval = evaluate_repairs(&outcome.fixes, &clean_name_table());
        assert_eq!(eval.correct, 0);
        assert_eq!(eval.spurious, 2, "the Johns were already clean");
        assert_eq!(eval.precision(), 0.0);
    }

    #[test]
    fn pair_violation_repairs_toward_majority() {
        let dirty = Relation::from_rows(
            "Zip",
            &["zip", "city"],
            vec![
                vec!["90001", "Los Angeles"],
                vec!["90002", "Los Angeles"],
                vec!["90003", "Los Angeles"],
                vec!["90004", "New York"],
            ],
        )
        .unwrap();
        let pfd =
            Pfd::constant_normal_form("Zip", dirty.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let outcome = repair(&dirty, &[pfd]);
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!(outcome.fixes[0].new, "Los Angeles");
        assert_eq!(outcome.fixes[0].score.support, 0.75, "3 of 4 agree");
    }

    #[test]
    fn whole_cell_fallback_is_gated_and_low_confidence() {
        // [900]\D{2} → the dirty value "6061X" matches neither the constant
        // nor the context, so the only possible repair discards the suffix.
        let dirty = Relation::from_rows(
            "Zip",
            &["id", "zip"],
            vec![vec!["a", "90001"], vec!["b", "6061X"]],
        )
        .unwrap();
        let pfd =
            Pfd::constant_normal_form("Zip", dirty.schema(), "id", r"\A*", "zip", r"[900]\D{2}")
                .unwrap();
        // Default: no suggestion — the flag lands in `unrepaired`.
        let outcome = repair(&dirty, std::slice::from_ref(&pfd));
        assert!(outcome.fixes.is_empty());
        assert_eq!(outcome.unrepaired.len(), 1);
        assert!(outcome.unrepaired[0].suggestion.is_none());
        // Opt in: the whole-cell replacement applies at halved confidence.
        let opts = DetectOptions {
            whole_cell_fallback: true,
        };
        let outcome = repair_with(&dirty, &[pfd], &opts);
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!(outcome.fixes[0].new, "900");
        assert_eq!(outcome.fixes[0].score.confidence, 0.5);
        assert!(outcome.unrepaired.is_empty());
    }

    fn geo_table_and_pfds() -> (Relation, Vec<Pfd>) {
        let dirty = Relation::from_rows(
            "Geo",
            &["zip", "city", "state"],
            vec![
                vec!["90001", "Los Angeles", "CA"],
                vec!["90002", "Los Angeles", "CA"],
                vec!["90003", "Los Angeles", "CA"],
                vec!["90004", "New York", "NY"], // both cells dirty
            ],
        )
        .unwrap();
        let zip_city =
            Pfd::constant_normal_form("Geo", dirty.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let city_state = Pfd::constant_normal_form(
            "Geo",
            dirty.schema(),
            "city",
            r"Los\ Angeles",
            "state",
            "CA",
        )
        .unwrap();
        (dirty, vec![zip_city, city_state])
    }

    #[test]
    fn fixpoint_chases_cascading_fixes() {
        // zip fixes city; city fixes state — two passes needed.
        let (dirty, pfds) = geo_table_and_pfds();
        let (outcome, passes) = repair_to_fixpoint(&dirty, &pfds, 10);
        assert!(passes >= 2, "cascade requires more than one pass: {passes}");
        let city = dirty.schema().attr("city").unwrap();
        let state = dirty.schema().attr("state").unwrap();
        assert_eq!(outcome.relation.cell(3, city), "Los Angeles");
        assert_eq!(outcome.relation.cell(3, state), "CA");
        for pfd in &pfds {
            assert!(pfd.satisfies(&outcome.relation));
        }
    }

    #[test]
    fn repair_engine_matches_naive_fixpoint_on_cascade() {
        let (dirty, pfds) = geo_table_and_pfds();
        let (naive, naive_passes) = repair_to_fixpoint(&dirty, &pfds, 10);
        let mut engine = RepairEngine::new(dirty.clone(), pfds.clone(), RepairOptions::default());
        let (delta, delta_passes) = engine.run();
        assert_eq!(naive_passes, delta_passes);
        assert_eq!(naive.relation, delta.relation);
        assert_eq!(naive.fixes, delta.fixes, "identical fixes incl. scores");
        assert_eq!(naive.unrepaired, delta.unrepaired);
        assert_eq!(engine.relation(), &delta.relation);
        assert_eq!(engine.engine().violation_count(), 0);
    }

    #[test]
    fn repair_engine_second_fix_carries_cascade_depth() {
        // Two rules fight over one cell across passes: after the first
        // rewrite, the re-fix candidate is scored at depth 1.
        let (dirty, pfds) = geo_table_and_pfds();
        let mut engine = RepairEngine::new(dirty, pfds, RepairOptions::default());
        let (outcome, passes) = engine.run();
        assert!(passes >= 2);
        let state_fix = outcome
            .fixes
            .iter()
            .find(|f| f.new == "CA")
            .expect("state cascade fix");
        assert_eq!(state_fix.score.depth, 0, "first rewrite of that cell");
        // The city cell was rewritten once; if it were flagged again its
        // depth would be 1 — assert the bookkeeping via a forced re-run.
        let (outcome2, _) = engine.run();
        assert!(outcome2.fixes.is_empty(), "already clean");
    }

    #[test]
    fn repair_engine_is_reusable_after_external_edits() {
        let (dirty, pfds) = geo_table_and_pfds();
        let mut engine = RepairEngine::new(dirty, pfds, RepairOptions::default());
        engine.run();
        assert_eq!(engine.engine().violation_count(), 0);
        // A steward breaks a cell through the shared delta engine...
        let city = engine.relation().schema().attr("city").unwrap();
        engine
            .engine_mut()
            .set_cell(0, city, "New York".into())
            .unwrap();
        assert!(engine.engine().violation_count() > 0);
        // ... and the next chase repairs it.
        let (outcome, _) = engine.run();
        assert_eq!(outcome.fixes.len(), 1);
        assert_eq!(engine.relation().cell(0, city), "Los Angeles");
        assert_eq!(engine.engine().violation_count(), 0);
    }

    #[test]
    fn oscillating_rule_starves_instead_of_chasing_forever() {
        // An inconsistent, unsupported CFD keeps re-asserting a value the
        // zip-majority rule keeps reverting. The cascade-depth penalty
        // starves the unsupported rule after a few rewrites: the chase
        // converges well under the pass cap, the majority value stands and
        // the starved flag is surfaced as unrepaired.
        let dirty = Relation::from_rows(
            "Zip",
            &["zip", "city"],
            vec![
                vec!["90001", "Los Angeles"],
                vec!["90002", "Los Angeles"],
                vec!["90003", "Los Angeles"],
                vec!["90004", "New York"],
            ],
        )
        .unwrap();
        let majority =
            Pfd::constant_normal_form("Zip", dirty.schema(), "zip", r"[\D{3}]\D{2}", "city", "_")
                .unwrap();
        let stubborn = Pfd::cfd(
            "Zip",
            dirty.schema(),
            &[("zip", Some("90004"))],
            ("city", Some("San Diego")),
        )
        .unwrap();
        let (outcome, passes) = repair_to_fixpoint(&dirty, &[majority.clone(), stubborn], 20);
        assert!(passes < 20, "chase must converge, took {passes} passes");
        let city = dirty.schema().attr("city").unwrap();
        assert_eq!(
            outcome.relation.cell(3, city),
            "Los Angeles",
            "the supported value stands"
        );
        assert!(
            outcome.unrepaired.iter().any(|f| f.pfd_index == 1),
            "the starved rule is reported unrepaired: {:?}",
            outcome.unrepaired
        );
        assert!(majority.satisfies(&outcome.relation));
        // The delta engine agrees, as everywhere.
        let (delta, delta_passes) = RepairEngine::new(
            dirty.clone(),
            vec![
                majority,
                Pfd::cfd(
                    "Zip",
                    dirty.schema(),
                    &[("zip", Some("90004"))],
                    ("city", Some("San Diego")),
                )
                .unwrap(),
            ],
            RepairOptions {
                max_passes: 20,
                ..RepairOptions::default()
            },
        )
        .run();
        assert_eq!(passes, delta_passes);
        assert_eq!(outcome.fixes, delta.fixes);
        assert_eq!(outcome.relation, delta.relation);
    }

    #[test]
    fn fixpoint_respects_pass_cap() {
        let dirty = dirty_name_table();
        let (outcome, passes) = repair_to_fixpoint(&dirty, &[gender_pfd(&dirty)], 1);
        assert_eq!(passes, 1);
        assert_eq!(outcome.fixes.len(), 1);
        let mut engine = RepairEngine::new(
            dirty,
            vec![gender_pfd(&clean_name_table())],
            RepairOptions {
                max_passes: 1,
                ..RepairOptions::default()
            },
        );
        let (outcome, passes) = engine.run();
        assert_eq!(passes, 1);
        assert_eq!(outcome.fixes.len(), 1);
    }

    #[test]
    fn noop_when_clean() {
        let clean = clean_name_table();
        let outcome = repair(&clean, &[gender_pfd(&clean)]);
        assert!(outcome.fixes.is_empty());
        assert!(outcome.unrepaired.is_empty());
        assert_eq!(outcome.relation, clean);
        let mut engine = RepairEngine::new(
            clean.clone(),
            vec![gender_pfd(&clean)],
            RepairOptions::default(),
        );
        let (outcome, passes) = engine.run();
        assert!(outcome.fixes.is_empty());
        assert_eq!(passes, 1, "one pass to observe the fixpoint");
        assert_eq!(outcome.relation, clean);
    }
}
