//! The PFD discovery algorithm (Fig. 4 of the paper).
//!
//! Pipeline: profile & prune attributes → decide tokenize/n-grams → build
//! positional inverted indexes → for every candidate dependency, test the
//! frequent LHS patterns against the most frequent co-occurring RHS pattern
//! under the support/noise thresholds → assemble pattern tableaux → attempt
//! constant → variable generalization → report dependencies above the
//! coverage threshold. Multi-attribute LHS candidates walk the attribute-set
//! lattice with pruning (§4.2 restriction iv).
//!
//! Candidate checks and index builds fan out over
//! [`pfd_runtime::parallel_map`] when [`DiscoveryConfig::parallel`] is set
//! (sequentially otherwise, as the CLI runs them); row
//! sets are the compact [`PostingList`]s of [`pfd_relation::postings`].
//! Per-phase timings land in [`DiscoveryStats`].

use crate::cells::{cell_for_entry, generalized_cell, ResolvedEntry};
use crate::config::DiscoveryConfig;
use crate::index::{build_index, AttrIndex, FrequentScratch, IndexEntry, IndexOptions};
use pfd_core::{Pfd, TableauCell, TableauRow};
use pfd_relation::{
    profile_relation, AttrId, Extraction, FxHashMap, PostingList, Relation, RowSetAccumulator,
};
use pfd_runtime::pool;
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Whether a discovered dependency's tableau is constant or was generalized
/// to a variable PFD (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DependencyKind {
    /// Every tableau row is constant (ψ1/ψ3 style).
    Constant,
    /// Generalized to a variable PFD (λ4/λ5 style).
    Variable,
}

/// One discovered embedded dependency with its PFD tableau.
#[derive(Debug, Clone)]
pub struct DiscoveredDependency {
    /// LHS attributes `X` of the embedded dependency.
    pub lhs: Vec<AttrId>,
    /// RHS attribute `B`.
    pub rhs: AttrId,
    /// The discovered PFD with its tableau.
    pub pfd: Pfd,
    /// Constant tableau or generalized variable PFD.
    pub kind: DependencyKind,
    /// Rows matched by some tableau row's LHS (§4.2 restriction ii).
    pub coverage: usize,
    /// Number of constant tableau rows found before generalization.
    pub constant_rows: usize,
}

impl DiscoveredDependency {
    /// The embedded dependency as attribute names.
    pub fn embedded_names(&self, rel: &Relation) -> (Vec<String>, String) {
        let lhs = self
            .lhs
            .iter()
            .map(|a| rel.schema().name_of(*a).unwrap_or("?").to_string())
            .collect();
        let rhs = rel.schema().name_of(self.rhs).unwrap_or("?").to_string();
        (lhs, rhs)
    }
}

/// Run statistics.
#[derive(Debug, Clone, Default)]
pub struct DiscoveryStats {
    /// Rows in the input relation.
    pub rows: usize,
    /// Attributes that survived profiling.
    pub candidate_attrs: usize,
    /// Attributes pruned as quantitative.
    pub pruned_attrs: usize,
    /// Total inverted-index entries after substring pruning.
    pub index_entries: usize,
    /// Candidate dependencies (X, B) examined.
    pub candidates_checked: usize,
    /// LHS pattern entries tested against the decision function.
    pub entries_tested: usize,
    /// RHS decisions evaluated at lattice leaves (one per anchored LHS row
    /// set, batched through a shared [`FrequentScratch`]).
    pub rhs_decisions: usize,
    /// RHS decisions answered from the per-candidate row-set cache instead
    /// of re-counting (multi-LHS combinations often reach one joint row
    /// set through different fragment choices).
    pub rhs_cache_hits: usize,
    /// N-gram cells short enough for full substring enumeration.
    pub cells_full_enum: usize,
    /// N-gram cells that took the affix + suffix-automaton path.
    pub cells_automaton: usize,
    /// Repeated interior fragments mined by the suffix-automaton path.
    pub repeat_fragments: usize,
    /// Wall-clock discovery time.
    pub elapsed: Duration,
    /// Phase breakdown: attribute profiling and extraction choice.
    pub profile_time: Duration,
    /// Phase breakdown: inverted-index construction (cold build), or the
    /// residual index-phase work (coverage precomputation) on a warm start.
    pub index_time: Duration,
    /// Phase breakdown: candidate checking, generalization and assembly.
    pub check_time: Duration,
    /// Check-phase split: anchor dedup, LHS expansion and the RHS
    /// decisions (Fig. 4 line 20). The five splits are summed over
    /// candidates, so with [`DiscoveryConfig::parallel`] they add up thread
    /// time and may exceed [`DiscoveryStats::check_time`].
    pub expand_time: Duration,
    /// Check-phase split: dropping accepted row sets subsumed by a larger
    /// one.
    pub subsume_time: Duration,
    /// Check-phase split: coverage and constant tableau assembly (one cell
    /// per kept row, its contexts inferred).
    pub tableau_time: Duration,
    /// Check-phase split: generalized-cell inference (§4.3).
    pub infer_time: Duration,
    /// Check-phase split: the generalization audits on the whole relation.
    pub audit_time: Duration,
    /// Generalization audits run.
    pub audits: usize,
    /// Generalization audits that rejected the variable PFD.
    pub audits_rejected: usize,
    /// Did this run adopt preloaded indexes ([`discover_warm`]) instead of
    /// building them? `false` also when preloaded indexes were offered but
    /// rejected as mismatched.
    pub index_loaded: bool,
    /// Time spent reading and decoding the persisted index, as reported by
    /// the loader that produced the preloaded indexes; zero on cold runs.
    pub index_load_time: Duration,
}

/// Discovery output.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// The discovered dependencies, sorted by (RHS, LHS).
    pub dependencies: Vec<DiscoveredDependency>,
    /// Run statistics.
    pub stats: DiscoveryStats,
}

impl DiscoveryResult {
    /// Dependencies generalized to variable PFDs (Table 7 row 10).
    pub fn variable_count(&self) -> usize {
        self.dependencies
            .iter()
            .filter(|d| d.kind == DependencyKind::Variable)
            .count()
    }
}

/// One accepted tableau-row candidate during dependency checking.
struct AcceptedRow {
    /// (attr, entry index) per LHS attribute, in `lhs` order.
    lhs_entries: Vec<u32>,
    /// Rows matching every LHS fragment.
    rows: PostingList,
    rhs_entry: u32,
    /// Position of the anchor LHS entry (single-semantics grouping).
    pos: u32,
}

/// Per-candidate counters folded into [`DiscoveryStats`].
#[derive(Debug, Default, Clone, Copy)]
struct CheckCounters {
    entries_tested: usize,
    rhs_decisions: usize,
    rhs_cache_hits: usize,
    expand_time: Duration,
    subsume_time: Duration,
    tableau_time: Duration,
    infer_time: Duration,
    audit_time: Duration,
    audits: usize,
    audits_rejected: usize,
}

impl DiscoveryStats {
    /// Fold one candidate's counters in.
    fn add(&mut self, c: &CheckCounters) {
        self.entries_tested += c.entries_tested;
        self.rhs_decisions += c.rhs_decisions;
        self.rhs_cache_hits += c.rhs_cache_hits;
        self.expand_time += c.expand_time;
        self.subsume_time += c.subsume_time;
        self.tableau_time += c.tableau_time;
        self.infer_time += c.infer_time;
        self.audit_time += c.audit_time;
        self.audits += c.audits;
        self.audits_rejected += c.audits_rejected;
    }
}

/// Mutable per-candidate state for the batched RHS decision: one counting
/// scratch shared by every anchor entry of the candidate, a reusable
/// frequency buffer for the leaf decisions, and a joint-row-set → decision
/// cache for multi-LHS walks (different fragment combinations frequently
/// reach the same intersected row set).
struct CheckScratch {
    freq: FrequentScratch,
    rhs_out: Vec<(u32, usize)>,
    decisions: FxHashMap<PostingList, Option<u32>>,
    /// Per-recursion-depth frequency buffers for the LHS expansion levels
    /// (the recursion at depth d iterates its buffer while deeper levels
    /// use theirs, so one buffer per depth is reused across all siblings).
    levels: Vec<Vec<(u32, usize)>>,
    /// Pooled intersection buffer: every joint-row-set expansion of the
    /// walk intersects into this one buffer first and then materializes
    /// an exactly-sized `PostingList` — replacing `intersect`'s
    /// worst-case-capacity vector (and, for dense operands, its
    /// intermediate word array) with one pooled scratch per candidate.
    isect: Vec<u32>,
    /// Row → kept row sets holding it, for subsumption.
    owners: OwnerIndex,
}

/// Relation row → the kept row sets holding it, as flat linked lists:
/// `head[row]` is the row's latest link, and each link names a kept set
/// and the row's previous link.
#[derive(Default)]
struct OwnerIndex {
    head: Vec<u32>,
    links: Vec<(u32, u32)>,
}

/// End of a row's owner list.
const NO_LINK: u32 = u32::MAX;

impl OwnerIndex {
    /// Empty the index for a relation of `rows` rows.
    fn reset(&mut self, rows: usize) {
        self.head.clear();
        self.head.resize(rows, NO_LINK);
        self.links.clear();
    }

    /// Record kept set `owner` under each of its rows.
    fn add(&mut self, owner: usize, rows: &PostingList) {
        for rid in rows.iter() {
            let head = &mut self.head[rid as usize];
            self.links.push((owner as u32, *head));
            *head = (self.links.len() - 1) as u32;
        }
    }

    /// The kept sets holding `row`, latest first.
    fn owners(&self, row: u32) -> impl Iterator<Item = usize> + '_ {
        let mut at = self.head[row as usize];
        std::iter::from_fn(move || {
            let (owner, next) = *self.links.get(at as usize)?;
            at = next;
            Some(owner as usize)
        })
    }
}

impl CheckScratch {
    fn new() -> CheckScratch {
        CheckScratch {
            freq: FrequentScratch::new(),
            rhs_out: Vec::new(),
            decisions: FxHashMap::default(),
            levels: Vec::new(),
            isect: Vec::new(),
            owners: OwnerIndex::default(),
        }
    }
}

/// Shared read-only state for candidate checking.
struct Ctx<'a> {
    rel: &'a Relation,
    indexes: &'a BTreeMap<AttrId, AttrIndex>,
    /// Per attribute: rows covered by entries with support ≥ `min_support`
    /// (the §4.2 reachable-coverage skip, precomputed once per run).
    frequent_cov: &'a BTreeMap<AttrId, usize>,
    config: &'a DiscoveryConfig,
}

/// Discovery output plus the per-attribute indexes the run used — the
/// handle callers need to *persist* the index (see [`crate::warm`]).
#[derive(Debug)]
pub struct DiscoveryRun {
    /// The dependencies and statistics, exactly as [`discover`] returns.
    pub result: DiscoveryResult,
    /// The inverted indexes, cold-built or adopted from a warm load.
    pub indexes: BTreeMap<AttrId, AttrIndex>,
}

/// Discover PFDs in a relation.
pub fn discover(rel: &Relation, config: &DiscoveryConfig) -> DiscoveryResult {
    discover_impl(rel, config, None, Duration::ZERO).result
}

/// [`discover`], but also returning the built indexes so the caller can
/// persist them for warm starts.
pub fn discover_cold(rel: &Relation, config: &DiscoveryConfig) -> DiscoveryRun {
    discover_impl(rel, config, None, Duration::ZERO)
}

/// Warm-start discovery with preloaded indexes (typically decoded from a
/// `.pfdi` snapshot by [`crate::warm`]); `load_time` is the wall-clock the
/// loader spent and lands in [`DiscoveryStats::index_load_time`].
///
/// The preloaded indexes are adopted only if they exactly match the
/// candidate set this run profiles (same attributes, extractions, and row
/// count) — any mismatch discards them and cold-builds instead, so a stale
/// or foreign index can slow a run down but never change its output.
/// [`DiscoveryStats::index_loaded`] records which path ran.
pub fn discover_warm(
    rel: &Relation,
    config: &DiscoveryConfig,
    indexes: BTreeMap<AttrId, AttrIndex>,
    load_time: Duration,
) -> DiscoveryRun {
    discover_impl(rel, config, Some(indexes), load_time)
}

fn discover_impl(
    rel: &Relation,
    config: &DiscoveryConfig,
    preloaded: Option<BTreeMap<AttrId, AttrIndex>>,
    load_time: Duration,
) -> DiscoveryRun {
    let start = Instant::now();
    let mut stats = DiscoveryStats {
        rows: rel.num_rows(),
        ..DiscoveryStats::default()
    };

    // Fig. 4 lines 1–3: profile, prune, decide extraction.
    let profiles = profile_relation(rel);
    let candidates: Vec<(AttrId, Extraction)> = profiles
        .iter()
        .filter(|p| {
            if config.prune_numeric {
                p.is_candidate()
            } else {
                p.non_empty > 0
            }
        })
        .map(|p| (p.attr, p.extraction))
        .collect();
    stats.candidate_attrs = candidates.len();
    stats.pruned_attrs = profiles.len() - candidates.len();
    stats.profile_time = start.elapsed();

    // Fig. 4 lines 5–12: the inverted indexes. A warm start adopts the
    // preloaded indexes only when they cover exactly the candidates this
    // run profiled, with matching extraction modes and row count — the
    // last line of defense keeping a stale index from changing output.
    let index_start = Instant::now();
    let adopted = preloaded.filter(|loaded| {
        loaded.len() == candidates.len()
            && candidates.iter().all(|(attr, extraction)| {
                loaded.get(attr).is_some_and(|idx| {
                    idx.extraction == *extraction && idx.num_rows() == rel.num_rows()
                })
            })
    });
    let indexes: BTreeMap<AttrId, AttrIndex> = match adopted {
        Some(loaded) => {
            stats.index_loaded = true;
            stats.index_load_time = load_time;
            loaded
        }
        None => {
            let index_options = IndexOptions {
                substring_pruning: config.substring_pruning,
                extract: config.extract,
            };
            let build = |(attr, extraction): &(AttrId, Extraction)| -> AttrIndex {
                build_index(rel, *attr, *extraction, &index_options)
            };
            let built: Vec<AttrIndex> = if config.parallel {
                pool::parallel_map(&candidates, build)
            } else {
                candidates.iter().map(build).collect()
            };
            built.into_iter().map(|idx| (idx.attr, idx)).collect()
        }
    };
    stats.index_entries = indexes.values().map(|i| i.entries.len()).sum();
    for idx in indexes.values() {
        stats.cells_full_enum += idx.extract_stats.cells_full_enum;
        stats.cells_automaton += idx.extract_stats.cells_automaton;
        stats.repeat_fragments += idx.extract_stats.repeat_fragments;
    }
    // Reachable coverage per attribute (anchor-skip precomputation).
    let frequent_cov: BTreeMap<AttrId, usize> = indexes
        .iter()
        .map(|(attr, idx)| {
            let mut acc = RowSetAccumulator::new(rel.num_rows());
            for e in &idx.entries {
                if e.support() >= config.min_support {
                    acc.insert_all(&e.rows);
                }
            }
            (*attr, acc.len())
        })
        .collect();
    stats.index_time = index_start.elapsed();

    let check_start = Instant::now();
    let ctx = Ctx {
        rel,
        indexes: &indexes,
        frequent_cov: &frequent_cov,
        config,
    };

    // Level 1: single-LHS candidates.
    let pairs: Vec<(AttrId, AttrId)> = candidates
        .iter()
        .flat_map(|(a, _)| {
            candidates
                .iter()
                .filter(move |(b, _)| b != a)
                .map(move |(b, _)| (*a, *b))
        })
        .collect();
    stats.candidates_checked += pairs.len();

    let run_pair = |(a, b): &(AttrId, AttrId)| -> (Option<DiscoveredDependency>, CheckCounters) {
        check_dependency(&ctx, &[*a], *b)
    };

    let level1: Vec<(Option<DiscoveredDependency>, CheckCounters)> = if config.parallel {
        pool::parallel_map(&pairs, run_pair)
    } else {
        pairs.iter().map(run_pair).collect()
    };

    let mut dependencies: Vec<DiscoveredDependency> = Vec::new();
    // For lattice pruning: LHS sets of *generalized* dependencies per RHS
    // (Fig. 4 lines 23–25 prune children only after generalization).
    let mut generalized_lhs: BTreeMap<AttrId, Vec<BTreeSet<AttrId>>> = BTreeMap::new();
    for (found, counters) in level1 {
        stats.add(&counters);
        if let Some(dep) = found {
            if dep.kind == DependencyKind::Variable {
                generalized_lhs
                    .entry(dep.rhs)
                    .or_default()
                    .push(dep.lhs.iter().copied().collect());
            }
            dependencies.push(dep);
        }
    }

    // Levels 2..=max_lhs: the attribute-set lattice.
    for level in 2..=config.max_lhs {
        let mut level_candidates: Vec<(Vec<AttrId>, AttrId)> = Vec::new();
        let attr_ids: Vec<AttrId> = candidates.iter().map(|(a, _)| *a).collect();
        for (b, _) in &candidates {
            let pool_attrs: Vec<AttrId> = attr_ids.iter().copied().filter(|a| a != b).collect();
            for combo in combinations(&pool_attrs, level) {
                let set: BTreeSet<AttrId> = combo.iter().copied().collect();
                let pruned = generalized_lhs
                    .get(b)
                    .is_some_and(|found| found.iter().any(|f| f.is_subset(&set)));
                if !pruned {
                    level_candidates.push((combo, *b));
                }
            }
        }
        stats.candidates_checked += level_candidates.len();

        let run_multi =
            |(x, b): &(Vec<AttrId>, AttrId)| -> (Option<DiscoveredDependency>, CheckCounters) {
                check_dependency(&ctx, x, *b)
            };
        let results: Vec<(Option<DiscoveredDependency>, CheckCounters)> = if config.parallel {
            pool::parallel_map(&level_candidates, run_multi)
        } else {
            level_candidates.iter().map(run_multi).collect()
        };
        for (found, counters) in results {
            stats.add(&counters);
            if let Some(dep) = found {
                if dep.kind == DependencyKind::Variable {
                    generalized_lhs
                        .entry(dep.rhs)
                        .or_default()
                        .push(dep.lhs.iter().copied().collect());
                }
                dependencies.push(dep);
            }
        }
    }

    dependencies.sort_by(|a, b| (a.rhs, &a.lhs).cmp(&(b.rhs, &b.lhs)));
    stats.check_time = check_start.elapsed();
    stats.elapsed = start.elapsed();
    DiscoveryRun {
        result: DiscoveryResult {
            dependencies,
            stats,
        },
        indexes,
    }
}

/// All size-`k` combinations of `pool`, in lexicographic order.
fn combinations(pool: &[AttrId], k: usize) -> Vec<Vec<AttrId>> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(k);
    fn rec(
        pool: &[AttrId],
        k: usize,
        start: usize,
        current: &mut Vec<AttrId>,
        out: &mut Vec<Vec<AttrId>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..pool.len() {
            current.push(pool[i]);
            rec(pool, k, i + 1, current, out);
            current.pop();
        }
    }
    rec(pool, k, 0, &mut current, &mut out);
    out
}

/// Resolve an index entry for cell assembly.
fn resolved<'a>(idx: &'a AttrIndex, entry: &'a IndexEntry) -> ResolvedEntry<'a> {
    ResolvedEntry {
        pattern: idx.pattern_str(entry),
        pos: entry.pos,
        rows: &entry.rows,
    }
}

/// Check one candidate dependency `X → b`. Returns the discovery (if any)
/// and the per-candidate counters.
fn check_dependency(
    ctx: &Ctx<'_>,
    x: &[AttrId],
    b: AttrId,
) -> (Option<DiscoveredDependency>, CheckCounters) {
    let Ctx {
        rel,
        indexes,
        config,
        ..
    } = *ctx;
    let mut counters = CheckCounters::default();
    let idx_b = &indexes[&b];
    let n_total = rel.num_rows();
    if n_total == 0 {
        return (None, counters);
    }
    // RHS informativeness cap: a pattern this frequent globally describes
    // the column format, not a dependency.
    let rhs_cap = ((n_total as f64) * config.rhs_uninformative_fraction).ceil() as usize;

    // §4.3: "sort attributes of X according to the number of patterns" —
    // anchor on the attribute whose frequent patterns are strongest.
    let mut x_sorted: Vec<AttrId> = x.to_vec();
    x_sorted.sort_by_key(|a| std::cmp::Reverse(indexes[a].max_support));
    let anchor = x_sorted[0];
    let rest = &x_sorted[1..];
    let idx_anchor = &indexes[&anchor];

    // §4.2 (end): skip when the frequent patterns cannot reach the coverage.
    if ctx.frequent_cov[&anchor] < config.required_coverage(n_total) {
        return (None, counters);
    }

    // One scratch for the whole candidate: every anchor entry's RHS
    // decision (and every multi-LHS expansion) counts through the same
    // buffers instead of allocating per probe.
    let expand_start = Instant::now();
    let mut scratch = CheckScratch::new();
    let mut accepted: Vec<AcceptedRow> = Vec::new();

    // Deduplicate anchor entries sharing a row set (keep longest pattern).
    let mut seen_rowsets: FxHashMap<&PostingList, u32> = FxHashMap::default();
    let mut anchor_entries: Vec<u32> = Vec::new();
    for (ei, e) in idx_anchor.entries.iter().enumerate() {
        if e.support() < config.min_support {
            continue;
        }
        match seen_rowsets.get(&e.rows) {
            Some(&prev)
                if idx_anchor
                    .dict
                    .byte_len(idx_anchor.entries[prev as usize].pattern)
                    >= idx_anchor.dict.byte_len(e.pattern) => {}
            _ => {
                seen_rowsets.insert(&e.rows, ei as u32);
            }
        }
    }
    anchor_entries.extend(seen_rowsets.values().copied());
    anchor_entries.sort_unstable();

    for &ei in &anchor_entries {
        let entry = &idx_anchor.entries[ei as usize];
        counters.entries_tested += 1;
        expand(
            ctx,
            rhs_cap,
            idx_b,
            rest,
            vec![(anchor, ei)],
            entry.rows.clone(),
            entry.pos,
            &mut accepted,
            &mut counters,
            &mut scratch,
        );
    }

    if accepted.is_empty() {
        counters.expand_time += expand_start.elapsed();
        return (None, counters);
    }

    // §4.4 single semantics: group accepted rows by the anchor position and
    // keep the dominant group.
    if config.single_semantics {
        let mut by_pos: BTreeMap<u32, usize> = BTreeMap::new();
        for row in &accepted {
            *by_pos.entry(row.pos).or_insert(0) += row.rows.len();
        }
        if let Some((&best_pos, _)) = by_pos
            .iter()
            .max_by_key(|(pos, sz)| (**sz, std::cmp::Reverse(**pos)))
        {
            accepted.retain(|r| r.pos == best_pos);
        }
    }

    counters.expand_time += expand_start.elapsed();

    let subsume_start = Instant::now();
    let accepted = subsume(accepted, n_total, &mut scratch.owners);
    counters.subsume_time += subsume_start.elapsed();

    // Coverage (restriction ii).
    let tableau_start = Instant::now();
    let mut covered = RowSetAccumulator::new(n_total);
    for r in &accepted {
        covered.insert_all(&r.rows);
    }
    if covered.len() < config.required_coverage(n_total) {
        counters.tableau_time += tableau_start.elapsed();
        return (None, counters);
    }

    // Assemble the constant tableau.
    let mut tableau: Vec<TableauRow> = Vec::new();
    for row in &accepted {
        let mut lhs_cells: Vec<TableauCell> = Vec::with_capacity(x.len());
        let mut ok = true;
        // Cells in the original X order.
        for a in x {
            let (attr, ei) = row
                .lhs_entries
                .iter()
                .zip(&x_sorted)
                .find(|(_, attr)| *attr == a)
                .map(|(ei, attr)| (*attr, *ei))
                .expect("every LHS attr has an entry");
            let idx = &indexes[&attr];
            let entry = &idx.entries[ei as usize];
            match cell_for_entry(rel, attr, idx.extraction, resolved(idx, entry), &row.rows) {
                Some(cell) => lhs_cells.push(cell),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        let rhs_entry = &idx_b.entries[row.rhs_entry as usize];
        let rhs_rows = row.rows.intersect(&rhs_entry.rows);
        let Some(rhs_cell) = cell_for_entry(
            rel,
            b,
            idx_b.extraction,
            resolved(idx_b, rhs_entry),
            &rhs_rows,
        ) else {
            continue;
        };
        tableau.push(TableauRow::new(lhs_cells, vec![rhs_cell]));
    }
    counters.tableau_time += tableau_start.elapsed();
    if tableau.is_empty() {
        return (None, counters);
    }
    let constant_rows = tableau.len();
    let constant_pfd = match Pfd::new(rel.schema().relation(), x.to_vec(), vec![b], tableau) {
        Ok(p) => p,
        Err(_) => return (None, counters),
    };

    // §4.3 Generalize: replace the constants with a variable PFD when the
    // general form holds with few violations.
    if config.generalize {
        if let Some((variable, coverage)) =
            try_generalize(ctx, x, b, &accepted, &x_sorted, &mut counters)
        {
            return (
                Some(DiscoveredDependency {
                    lhs: x.to_vec(),
                    rhs: b,
                    coverage,
                    pfd: variable,
                    kind: DependencyKind::Variable,
                    constant_rows,
                }),
                counters,
            );
        }
    }

    (
        Some(DiscoveredDependency {
            lhs: x.to_vec(),
            rhs: b,
            coverage: covered.len(),
            pfd: constant_pfd,
            kind: DependencyKind::Constant,
            constant_rows,
        }),
        counters,
    )
}

/// Drop accepted rows whose row set is subsumed by an earlier accepted row
/// (nested n-gram chains like 900 ⊃ 9000 ⊃ 90001), largest sets first.
///
/// A superset of a set holds the set's first row, so a new set is tested
/// only against the kept sets `owners` lists under that row — the same
/// verdict as testing it against every kept set.
fn subsume(
    mut accepted: Vec<AcceptedRow>,
    rows: usize,
    owners: &mut OwnerIndex,
) -> Vec<AcceptedRow> {
    accepted.sort_by_key(|r| std::cmp::Reverse(r.rows.len()));
    owners.reset(rows);
    let mut kept: Vec<AcceptedRow> = Vec::new();
    for row in accepted {
        let subsumed = match row.rows.min() {
            Some(first) => owners
                .owners(first)
                .any(|k| row.rows.is_subset(&kept[k].rows)),
            None => !kept.is_empty(),
        };
        if !subsumed {
            owners.add(kept.len(), &row.rows);
            kept.push(row);
        }
    }
    kept
}

/// Recursive combination expansion over the non-anchor LHS attributes
/// (the Example 8 sub-table walk), ending with the batched RHS decision.
#[allow(clippy::too_many_arguments)]
fn expand(
    ctx: &Ctx<'_>,
    rhs_cap: usize,
    idx_b: &AttrIndex,
    rest: &[AttrId],
    chosen: Vec<(AttrId, u32)>,
    rows: PostingList,
    anchor_pos: u32,
    accepted: &mut Vec<AcceptedRow>,
    counters: &mut CheckCounters,
    scratch: &mut CheckScratch,
) {
    let config = ctx.config;
    if rows.len() < config.min_support {
        return;
    }
    match rest.split_first() {
        None => {
            // Multi-LHS walks reach the same joint row set through
            // different fragment combinations; the decision depends only on
            // the row set, so consult the per-candidate cache first.
            // (Level-1 anchor entries are already row-set-deduplicated, so
            // the cache is skipped when there is nothing to share.)
            let use_cache = chosen.len() > 1;
            counters.rhs_decisions += 1;
            let decided: Option<u32> = if use_cache {
                if let Some(&hit) = scratch.decisions.get(&rows) {
                    counters.rhs_cache_hits += 1;
                    hit
                } else {
                    let d = decide_rhs(config, rhs_cap, idx_b, &rows, scratch);
                    scratch.decisions.insert(rows.clone(), d);
                    d
                }
            } else {
                decide_rhs(config, rhs_cap, idx_b, &rows, scratch)
            };
            if let Some(rhs_entry) = decided {
                accepted.push(AcceptedRow {
                    lhs_entries: chosen.iter().map(|(_, ei)| *ei).collect(),
                    rows,
                    rhs_entry,
                    pos: anchor_pos,
                });
            }
        }
        Some((next, tail)) => {
            let idx_next = &ctx.indexes[next];
            let depth = chosen.len();
            if scratch.levels.len() <= depth {
                scratch.levels.resize_with(depth + 1, Vec::new);
            }
            let mut freq = std::mem::take(&mut scratch.levels[depth]);
            scratch
                .freq
                .frequent_within_into(idx_next, &rows, config.min_support, &mut freq);
            for &(ei, count) in &freq {
                counters.entries_tested += 1;
                // Intersect through the pooled buffer, then materialize the
                // joint set exactly sized: one allocation of `count` ids
                // per expansion instead of the worst-case-capacity vector
                // (or intermediate dense words) `intersect` builds.
                // `frequent_within_into` already counted |entry ∩ rows|, so
                // every entry here meets the support bar by construction.
                let entry_rows = &idx_next.entries[ei as usize].rows;
                rows.intersect_into(entry_rows, &mut scratch.isect);
                debug_assert_eq!(scratch.isect.len(), count, "freq counts are exact");
                let universe = rows.universe().max(entry_rows.universe());
                let joint = PostingList::from_sorted(scratch.isect.clone(), universe);
                let mut chosen = chosen.clone();
                chosen.push((*next, ei));
                expand(
                    ctx, rhs_cap, idx_b, tail, chosen, joint, anchor_pos, accepted, counters,
                    scratch,
                );
            }
            scratch.levels[depth] = freq;
        }
    }
}

/// The decision function f(S_X, S_B) (Fig. 4 line 20). Every entry in the
/// counted frequency list already meets the (1-δ) threshold; among them
/// prefer the most *specific* pattern (longest), then the most frequent —
/// δ exists so that the semantically right constant ("Los Angeles",
/// count n-1) beats a typo-tolerant fragment ("Lo", count n). Counting
/// goes through the candidate's shared scratch buffers.
fn decide_rhs(
    config: &DiscoveryConfig,
    rhs_cap: usize,
    idx_b: &AttrIndex,
    rows: &PostingList,
    scratch: &mut CheckScratch,
) -> Option<u32> {
    let required = config.required_agreement(rows.len());
    let CheckScratch { freq, rhs_out, .. } = scratch;
    freq.frequent_within_into(idx_b, rows, required, rhs_out);
    rhs_out
        .iter()
        .filter(|(ei, _)| {
            !config.rhs_informative || idx_b.entries[*ei as usize].support() < rhs_cap
        })
        .max_by_key(|(ei, count)| {
            let e = &idx_b.entries[*ei as usize];
            (e.chars, *count, std::cmp::Reverse(*ei))
        })
        .map(|&(rhs_entry, _)| rhs_entry)
}

/// Try to promote the accepted constant rows to a variable PFD. Returns the
/// PFD and its coverage.
fn try_generalize(
    ctx: &Ctx<'_>,
    x: &[AttrId],
    b: AttrId,
    accepted: &[AcceptedRow],
    x_sorted: &[AttrId],
    counters: &mut CheckCounters,
) -> Option<(Pfd, usize)> {
    let infer_start = Instant::now();
    let pfd = generalized_pfd(ctx, x, b, accepted, x_sorted);
    counters.infer_time += infer_start.elapsed();
    let pfd = pfd?;

    // Verify on the whole relation ("applied on all the values of the
    // attribute even those in which the pattern frequency is less than the
    // minimum support"). One grouping pass yields the coverage and the
    // pairing count; the suspect walk runs only when both pass, and stops
    // once the suspects exceed the allowance.
    let Ctx { rel, config, .. } = *ctx;
    let required = config.required_coverage(rel.num_rows());
    // Count only the *suspect* rows (the offending side of each violation),
    // not the majority representatives they are paired with.
    let allowed = |coverage: usize| ((coverage as f64) * config.noise_ratio).floor() as usize;
    let audit_start = Instant::now();
    let audit = pfd.audit_bounded(rel, |coverage, paired_rows| {
        // Non-vacuity: the variable PFD must actually *relate* tuples — if
        // the generalized LHS keys are (nearly) unique, the pair semantics
        // never fires and the constants are strictly more useful. Require
        // at least `min_support` rows to share their key with another row.
        (coverage >= required && paired_rows >= config.min_support).then(|| allowed(coverage))
    });
    counters.audit_time += audit_start.elapsed();
    counters.audits += 1;
    if audit.suspects.is_some_and(|n| n <= allowed(audit.coverage)) {
        Some((pfd, audit.coverage))
    } else {
        counters.audits_rejected += 1;
        None
    }
}

/// The variable PFD the accepted constant rows generalize to: one tableau
/// row of generalized LHS cells and an RHS wildcard.
fn generalized_pfd(
    ctx: &Ctx<'_>,
    x: &[AttrId],
    b: AttrId,
    accepted: &[AcceptedRow],
    x_sorted: &[AttrId],
) -> Option<Pfd> {
    let Ctx { rel, indexes, .. } = *ctx;
    // Per LHS attribute, the accepted entries.
    let mut lhs_cells: Vec<TableauCell> = Vec::with_capacity(x.len());
    for a in x {
        let pos_in_sorted = x_sorted.iter().position(|s| s == a)?;
        let idx = &indexes[a];
        let mut entries: Vec<&IndexEntry> = accepted
            .iter()
            .map(|r| &idx.entries[r.lhs_entries[pos_in_sorted] as usize])
            .collect();
        // For n-gram attributes, accepted fragments can sit at different
        // prefix depths (e.g. both `850` and a lucky `8505`). Inferring over
        // mixed lengths widens `\D{3}` into `\D+`, whose greedy extraction
        // keys on all-but-one character — a vacuous constraint on
        // near-unique values. Keep the dominant fragment length only.
        if idx.extraction == Extraction::NGrams {
            let mut by_len: BTreeMap<usize, usize> = BTreeMap::new();
            for e in &entries {
                *by_len.entry(e.chars as usize).or_insert(0) += e.rows.len();
            }
            let (&dominant, _) = by_len
                .iter()
                .max_by_key(|(len, support)| (**support, std::cmp::Reverse(**len)))?;
            entries.retain(|e| e.chars as usize == dominant);
        }
        let resolved_entries: Vec<ResolvedEntry<'_>> =
            entries.iter().map(|e| resolved(idx, e)).collect();
        lhs_cells.push(generalized_cell(
            rel,
            *a,
            idx.extraction,
            &resolved_entries,
        )?);
    }
    let row = TableauRow::new(lhs_cells, vec![TableauCell::Wildcard]);
    Pfd::new(rel.schema().relation(), x.to_vec(), vec![b], vec![row]).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> DiscoveryConfig {
        DiscoveryConfig {
            min_support: 2,
            noise_ratio: 0.05,
            min_coverage: 0.10,
            ..DiscoveryConfig::default()
        }
    }

    /// The running example of §4.3 (Table 6).
    fn example8_table() -> Relation {
        Relation::from_rows(
            "T",
            &["name", "country", "gender"],
            vec![
                vec!["Tayseer Fahmi", "Egypt", "F"],
                vec!["Tayseer Qasem", "Yemen", "M"],
                vec!["Tayseer Salem", "Egypt", "F"],
                vec!["Tayseer Saeed", "Yemen", "M"],
                vec!["Noor Wagdi", "Egypt", "M"],
                vec!["Noor Shadi", "Yemen", "F"],
                vec!["Noor Hisham", "Egypt", "M"],
                vec!["Noor Hashim", "Yemen", "F"],
                vec!["Esmat Qadhi", "Yemen", "M"],
                vec!["Esmat Farahat", "Egypt", "F"],
            ],
        )
        .unwrap()
    }

    #[test]
    fn zip_city_discovery() {
        let rel = Relation::from_rows(
            "Zip",
            &["zip", "city"],
            vec![
                vec!["90001", "Los Angeles"],
                vec!["90002", "Los Angeles"],
                vec!["90003", "Los Angeles"],
                vec!["90004", "Los Angeles"],
                vec!["60601", "Chicago"],
                vec!["60602", "Chicago"],
                vec!["60603", "Chicago"],
                vec!["60604", "Chicago"],
            ],
        )
        .unwrap();
        let result = discover(&rel, &config());
        let zip = rel.schema().attr("zip").unwrap();
        let city = rel.schema().attr("city").unwrap();
        let dep = result
            .dependencies
            .iter()
            .find(|d| d.lhs == vec![zip] && d.rhs == city)
            .expect("zip → city discovered");
        // Generalizes to [\D{3}]\D{2} → ⊥ (λ5).
        assert_eq!(dep.kind, DependencyKind::Variable);
        assert!(dep.pfd.satisfies(&rel));
    }

    #[test]
    fn example8_single_lhs_finds_no_name_gender() {
        // §4.3: "Assuming K = 2 and δ = 5%, the algorithm will not be able
        // to detect any single LHS PFDs" for name → gender.
        let rel = example8_table();
        let result = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 1,
                generalize: false,
                ..config()
            },
        );
        let name = rel.schema().attr("name").unwrap();
        let gender = rel.schema().attr("gender").unwrap();
        assert!(
            !result
                .dependencies
                .iter()
                .any(|d| d.lhs == vec![name] && d.rhs == gender),
            "{:?}",
            result
                .dependencies
                .iter()
                .map(|d| d.embedded_names(&rel))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn example8_multi_lhs_finds_name_country_gender() {
        let rel = example8_table();
        let result = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 2,
                ..config()
            },
        );
        let name = rel.schema().attr("name").unwrap();
        let country = rel.schema().attr("country").unwrap();
        let gender = rel.schema().attr("gender").unwrap();
        let dep = result
            .dependencies
            .iter()
            .find(|d| {
                let mut lhs = d.lhs.clone();
                lhs.sort_unstable();
                lhs == vec![name, country] && d.rhs == gender
            })
            .expect("(name, country) → gender discovered");
        // The paper's λ generalizes: name first-token pattern, country ⊥.
        assert_eq!(dep.kind, DependencyKind::Variable);
        assert!(dep.pfd.satisfies(&rel));
    }

    #[test]
    fn phone_state_discovery_with_constants() {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![format!("850555{i:04}"), "FL".to_string()]);
            rows.push(vec![format!("607555{i:04}"), "NY".to_string()]);
        }
        let mut rel =
            Relation::empty(pfd_relation::Schema::new("Phone", ["phone", "state"]).unwrap());
        for r in rows {
            rel.push_row(r).unwrap();
        }
        let result = discover(
            &rel,
            &DiscoveryConfig {
                generalize: false,
                ..config()
            },
        );
        let phone = rel.schema().attr("phone").unwrap();
        let state = rel.schema().attr("state").unwrap();
        let dep = result
            .dependencies
            .iter()
            .find(|d| d.lhs == vec![phone] && d.rhs == state)
            .expect("phone → state discovered");
        assert_eq!(dep.kind, DependencyKind::Constant);
        assert!(dep.constant_rows >= 2, "area codes 850 and 607");
        // Tableau rows should carry prefix patterns like [850]\D{7}.
        let shown = pfd_core::display_with_schema(&dep.pfd, rel.schema());
        assert!(shown.contains("850"), "{shown}");
        assert!(shown.contains("607"), "{shown}");
    }

    #[test]
    fn no_dependency_between_unrelated_columns() {
        let mut rel = Relation::empty(pfd_relation::Schema::new("R", ["id", "noise"]).unwrap());
        // Unique ids; noise is a hashed digit with no positional
        // relationship to the id text (a linear map like (7i)%10 would
        // bijectively determine the id's last digit — genuinely dependent!).
        for i in 0..40usize {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .rotate_left(17)
                .wrapping_mul(0xC2B2AE3D27D4EB4F);
            rel.push_row(vec![format!("ID{i:04}"), format!("{}", h % 10)])
                .unwrap();
        }
        let result = discover(&rel, &config());
        assert!(
            result.dependencies.is_empty(),
            "{:?}",
            result
                .dependencies
                .iter()
                .map(|d| d.embedded_names(&rel))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn noise_tolerance_keeps_dependency() {
        // One dirty row out of ten 900-prefix rows must not kill zip → city
        // when δ tolerates it.
        let mut rows: Vec<Vec<String>> = (0..10)
            .map(|i| vec![format!("900{:02}", i), "Los Angeles".to_string()])
            .collect();
        rows.extend((0..10).map(|i| vec![format!("606{:02}", i), "Chicago".to_string()]));
        rows[7][1] = "New York".to_string(); // the dirty cell
        let mut rel = Relation::empty(pfd_relation::Schema::new("Zip", ["zip", "city"]).unwrap());
        for r in rows {
            rel.push_row(r).unwrap();
        }
        let tolerant = DiscoveryConfig {
            noise_ratio: 0.10,
            ..config()
        };
        let result = discover(&rel, &tolerant);
        let zip = rel.schema().attr("zip").unwrap();
        let city = rel.schema().attr("city").unwrap();
        assert!(
            result
                .dependencies
                .iter()
                .any(|d| d.lhs == vec![zip] && d.rhs == city),
            "{:?}",
            result
                .dependencies
                .iter()
                .map(|d| d.embedded_names(&rel))
                .collect::<Vec<_>>()
        );
        // With a strict δ = 1%, the dirty row kills the 900 tableau row and
        // with it part of the tableau; the dependency may survive through
        // the 606 row only if coverage allows — verify the knob matters.
        let strict = DiscoveryConfig {
            noise_ratio: 0.01,
            min_coverage: 0.75,
            ..config()
        };
        let strict_result = discover(&rel, &strict);
        assert!(
            !strict_result
                .dependencies
                .iter()
                .any(|d| d.lhs == vec![zip] && d.rhs == city),
            "strict δ must reject the noisy tableau row"
        );
    }

    #[test]
    fn coverage_threshold_suppresses_marginal_dependencies() {
        // Only 2 of 40 rows share a dependable pattern (zz → same): below
        // the 10% coverage bar. The other 38 rows carry hashed values so
        // that no interval/positional correlation sneaks in.
        let mut rel = Relation::empty(pfd_relation::Schema::new("R", ["a", "b"]).unwrap());
        let hash = |i: usize, salt: u64| -> u64 {
            (i as u64 ^ salt)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .rotate_left(23)
                .wrapping_mul(0xC2B2AE3D27D4EB4F)
        };
        let base36 = |mut v: u64| -> String {
            (0..4)
                .map(|_| {
                    let d = (v % 36) as u32;
                    v /= 36;
                    char::from_digit(d, 36).unwrap()
                })
                .collect()
        };
        for i in 0..57 {
            rel.push_row(vec![
                format!("x{}", base36(hash(i, 1))),
                format!("y{}", base36(hash(i, 2))),
            ])
            .unwrap();
        }
        for i in 0..3 {
            rel.push_row(vec![format!("zz00{i}"), "same".into()])
                .unwrap();
        }
        // K = 3 rules out coincidental pattern pairs among the hashed rows;
        // the zz → same group (support 3) stays under the 10% coverage bar
        // (6 of 60 rows required).
        let result = discover(
            &rel,
            &DiscoveryConfig {
                min_support: 3,
                ..config()
            },
        );
        assert!(
            result.dependencies.is_empty(),
            "{:?}",
            result
                .dependencies
                .iter()
                .map(|d| d.embedded_names(&rel))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn parallel_matches_sequential() {
        let rel = example8_table();
        let seq = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 2,
                parallel: false,
                ..config()
            },
        );
        let par = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 2,
                parallel: true,
                ..config()
            },
        );
        let deps = |r: &DiscoveryResult| -> Vec<(Vec<AttrId>, AttrId)> {
            r.dependencies
                .iter()
                .map(|d| (d.lhs.clone(), d.rhs))
                .collect()
        };
        assert_eq!(deps(&seq), deps(&par));
    }

    #[test]
    fn stats_are_populated() {
        let rel = example8_table();
        // Two-attribute LHS sets generalize (λ of §4.3), so audits run.
        let result = discover(
            &rel,
            &DiscoveryConfig {
                max_lhs: 2,
                ..config()
            },
        );
        assert_eq!(result.stats.rows, 10);
        assert!(result.stats.candidate_attrs >= 3);
        assert!(result.stats.index_entries > 0);
        assert!(result.stats.candidates_checked > 0);
        // The phase breakdown nests inside the total, and the check split
        // inside the check phase.
        let stats = &result.stats;
        let phases = stats.profile_time + stats.index_time + stats.check_time;
        assert!(phases <= stats.elapsed);
        assert!(stats.check_time > Duration::ZERO);
        let split = stats.expand_time
            + stats.subsume_time
            + stats.tableau_time
            + stats.infer_time
            + stats.audit_time;
        assert!(split <= stats.check_time, "{stats:?}");
        assert!(stats.expand_time > Duration::ZERO);
        assert!(
            stats.audits > 0 && stats.audit_time > Duration::ZERO,
            "{stats:?}"
        );
        assert!(stats.audits_rejected <= stats.audits);
    }

    /// Ten 3-digit zip prefixes of twenty rows each, every prefix with its
    /// own city; row 7 of every prefix, and row 8 of the first when
    /// `extra_dirty`, carries a wrong city.
    fn zip_city_with_dirty_rows(extra_dirty: bool) -> Relation {
        let prefixes = [
            "105", "216", "327", "438", "549", "650", "761", "872", "983", "094",
        ];
        let cities = [
            "Aspen", "Boston", "Camden", "Dover", "Eugene", "Fresno", "Gary", "Helena", "Irvine",
            "Joliet",
        ];
        let mut rel = Relation::empty(pfd_relation::Schema::new("Zip", ["zip", "city"]).unwrap());
        for (g, (prefix, city)) in prefixes.iter().zip(cities).enumerate() {
            for i in 0..20 {
                let dirty = i == 7 || (extra_dirty && g == 0 && i == 8);
                let city = if dirty { "Xanadu" } else { city };
                rel.push_row(vec![format!("{prefix}{i:02}"), city.to_string()])
                    .unwrap();
            }
        }
        rel
    }

    #[test]
    fn generalization_accepts_exactly_the_allowed_suspects() {
        // δ = 5% of 200 covered rows allows 10 suspect rows.
        let config = DiscoveryConfig {
            min_support: 2,
            noise_ratio: 0.05,
            ..DiscoveryConfig::default()
        };
        let kind = |extra_dirty: bool| {
            let rel = zip_city_with_dirty_rows(extra_dirty);
            let (zip, city) = (
                rel.schema().attr("zip").unwrap(),
                rel.schema().attr("city").unwrap(),
            );
            let result = discover(&rel, &config);
            let dep = result
                .dependencies
                .iter()
                .find(|d| d.lhs == vec![zip] && d.rhs == city)
                .expect("zip → city discovered");
            (dep.kind, dep.coverage)
        };
        // Ten suspects: the variable PFD [\D{3}]\D{2} → ⊥ holds.
        assert_eq!(kind(false), (DependencyKind::Variable, 200));
        // Eleven: its audit rejects it and the constant rows stay.
        assert_eq!(kind(true).0, DependencyKind::Constant);
    }

    #[test]
    fn combinations_enumerate_correctly() {
        let pool = vec![AttrId(0), AttrId(1), AttrId(2)];
        let combos = combinations(&pool, 2);
        assert_eq!(combos.len(), 3);
        assert!(combos.contains(&vec![AttrId(0), AttrId(2)]));
    }
}
