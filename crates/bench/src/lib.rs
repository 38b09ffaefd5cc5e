//! # `pfd-bench` — the experiment harness
//!
//! One bench target per table/figure of the paper's evaluation (§5); see
//! DESIGN.md §4 for the experiment index. Shared machinery lives here:
//! running the three discovery algorithms over a dataset, evaluating
//! against ground truth, and formatting paper-style tables.

#![forbid(unsafe_code)]

use pfd_baselines::{cfd_discover, fdep_single_lhs, CfdConfig, FdepConfig};
use pfd_core::{detect_errors, evaluate_detection, Pfd};
use pfd_datagen::{evaluate_dependencies, Dataset, DependencyEval, GroundTruthDep};
use pfd_discovery::{discover, DiscoveryConfig, DiscoveryResult};
use pfd_relation::Relation;
use std::time::{Duration, Instant};

/// Outcome of one algorithm on one dataset.
#[derive(Debug, Clone)]
pub struct AlgoOutcome {
    pub eval: DependencyEval,
    pub runtime: Duration,
    /// Dependencies represented by variable PFDs (PFD miner only).
    pub variable_deps: usize,
}

/// Turn name-based pairs into ground-truth-comparable dependencies.
pub fn to_deps(pairs: &[(Vec<String>, String)]) -> Vec<GroundTruthDep> {
    pairs
        .iter()
        .map(|(lhs, rhs)| {
            let refs: Vec<&str> = lhs.iter().map(String::as_str).collect();
            GroundTruthDep::new(&refs, rhs)
        })
        .collect()
}

/// Run FDep (single-LHS report, as in Table 7) on the dirty relation.
pub fn run_fdep(ds: &Dataset) -> AlgoOutcome {
    let t0 = Instant::now();
    let fds = fdep_single_lhs(&ds.dirty, &FdepConfig::default());
    let runtime = t0.elapsed();
    let names = ds.dirty.schema().attribute_names();
    let pairs: Vec<(Vec<String>, String)> = fds
        .iter()
        .map(|fd| {
            (
                fd.lhs.iter().map(|a| names[a.index()].clone()).collect(),
                names[fd.rhs.index()].clone(),
            )
        })
        .collect();
    AlgoOutcome {
        eval: evaluate_dependencies(ds, &to_deps(&pairs)),
        runtime,
        variable_deps: 0,
    }
}

/// Run the CFDFinder-style miner (confidence 0.995, §5.1).
pub fn run_cfd(ds: &Dataset) -> AlgoOutcome {
    let t0 = Instant::now();
    let deps = cfd_discover(&ds.dirty, &CfdConfig::default());
    let runtime = t0.elapsed();
    let names = ds.dirty.schema().attribute_names();
    let pairs: Vec<(Vec<String>, String)> = deps
        .iter()
        .map(|d| {
            (
                vec![names[d.lhs.index()].clone()],
                names[d.rhs.index()].clone(),
            )
        })
        .collect();
    AlgoOutcome {
        eval: evaluate_dependencies(ds, &to_deps(&pairs)),
        runtime,
        variable_deps: 0,
    }
}

/// Run the PFD miner; returns the outcome plus the raw result for reuse.
pub fn run_pfd(ds: &Dataset, config: &DiscoveryConfig) -> (AlgoOutcome, DiscoveryResult) {
    let t0 = Instant::now();
    let result = discover(&ds.dirty, config);
    let runtime = t0.elapsed();
    let pairs: Vec<(Vec<String>, String)> = result
        .dependencies
        .iter()
        .map(|d| d.embedded_names(&ds.dirty))
        .collect();
    let outcome = AlgoOutcome {
        eval: evaluate_dependencies(ds, &to_deps(&pairs)),
        runtime,
        variable_deps: result.variable_count(),
    };
    (outcome, result)
}

/// Error-detection summary for Table 7 rows 15–16.
pub struct DetectionOutcome {
    pub flagged: usize,
    pub true_positives: usize,
    pub precision: f64,
    pub recall: f64,
}

/// Error detection with the *validated* discovered PFDs (§5.3: the paper
/// manually validated the dependencies before running detection; our
/// surrogate keeps the discovered dependencies confirmed by ground truth).
pub fn run_detection(ds: &Dataset, result: &DiscoveryResult) -> DetectionOutcome {
    let validated: Vec<Pfd> = result
        .dependencies
        .iter()
        .filter(|d| {
            let (lhs, rhs) = d.embedded_names(&ds.dirty);
            let refs: Vec<&str> = lhs.iter().map(String::as_str).collect();
            ds.is_genuine(&refs, &rhs)
        })
        .map(|d| d.pfd.clone())
        .collect();
    let report = detect_errors(&ds.dirty, &validated);
    let eval = evaluate_detection(&report, &ds.error_set());
    DetectionOutcome {
        flagged: report.unique_cells().len(),
        true_positives: eval.true_positives,
        precision: eval.precision(),
        recall: eval.recall(),
    }
}

/// Percentage formatting with the paper's "−" for undefined values.
pub fn pct(x: f64) -> String {
    if x.is_nan() {
        "−".to_string()
    } else {
        format!("{:.1}", x * 100.0)
    }
}

/// Seconds with adaptive precision.
pub fn secs(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.01 {
        format!("{:.4}", s)
    } else if s < 1.0 {
        format!("{:.3}", s)
    } else {
        format!("{:.2}", s)
    }
}

/// Fixed-width row printer for the Table 7 layout (metric name + 15 cells).
pub fn print_row(label: &str, cells: &[String]) {
    print!("{label:<26}");
    for c in cells {
        print!(" {c:>8}");
    }
    println!();
}

/// Detection evaluation against an explicit error set (Figures 5–6).
pub fn detect_against(
    rel: &Relation,
    pfds: &[Pfd],
    errors: &std::collections::BTreeSet<(usize, pfd_relation::AttrId)>,
) -> (f64, f64) {
    let report = detect_errors(rel, pfds);
    let eval = evaluate_detection(&report, errors);
    (eval.precision(), eval.recall())
}

/// Shared runner for the Figure 5 / Figure 6 controlled evaluation (§5.3).
///
/// Grid: error rate 1%–10% × minimum support K ∈ {2, 4, 6} (the paper's
/// three subfigures) × allowed noise δ ∈ {1%, 4%, 7%} (the three curves).
/// For each cell: inject errors into `state` of the Zip → State table,
/// discover PFDs on the dirty data, detect the injected errors with the
/// discovered Zip → State PFDs, and report precision/recall.
pub fn run_controlled_figure(mode: pfd_datagen::NoiseMode, figure: &str) {
    use pfd_datagen::{inject_errors, pools::ALL_STATES, zip_state_table};
    use std::collections::BTreeSet;

    println!("\nFigure {figure} — Effectiveness by Varying Error Rates (Zip → State)");
    println!("noise mode: {mode:?}\n");
    // The paper's controlled table: 924 records (912 after manual cleaning;
    // ours is clean by construction), 27 states.
    let base = zip_state_table(924, 5);
    let state = base.schema().attr("state").expect("state column");

    for k in [2usize, 4, 6] {
        println!("K = {k}");
        println!(
            "{:>6}  {:>8} {:>8}  {:>8} {:>8}  {:>8} {:>8}",
            "rate", "δ=1% P", "R", "δ=4% P", "R", "δ=7% P", "R"
        );
        for rate_pct in 1..=10u32 {
            let rate = rate_pct as f64 / 100.0;
            let mut dirty = base.clone();
            let injected = inject_errors(
                &mut dirty,
                state,
                rate,
                mode,
                ALL_STATES,
                1000 + rate_pct as u64,
            );
            let errors: BTreeSet<_> = injected.iter().map(|e| (e.row, e.attr)).collect();

            let mut cells = Vec::new();
            for delta in [0.01, 0.04, 0.07] {
                let config = DiscoveryConfig {
                    min_support: k,
                    noise_ratio: delta,
                    ..DiscoveryConfig::default()
                };
                let result = discover(&dirty, &config);
                let pfds: Vec<Pfd> = result
                    .dependencies
                    .iter()
                    .filter(|d| {
                        let (l, r) = d.embedded_names(&dirty);
                        l == vec!["zip".to_string()] && r == "state"
                    })
                    .map(|d| d.pfd.clone())
                    .collect();
                let (p, r) = if pfds.is_empty() {
                    (f64::NAN, 0.0)
                } else {
                    detect_against(&dirty, &pfds, &errors)
                };
                cells.push(format!(
                    "{:>8} {:>8}",
                    if p.is_nan() {
                        "—".to_string()
                    } else {
                        format!("{p:.3}")
                    },
                    format!("{r:.3}")
                ));
            }
            println!("{:>5}%  {}", rate_pct, cells.join("  "));
        }
        println!();
    }
    println!("Expected shape (paper): precision rises with K while recall falls;");
    println!("larger δ buys recall at some precision; recall degrades sharply as the");
    println!("error rate approaches 10% (discovered errors can drop below 30%).");
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfd_datagen::{standard_suite, Scale};

    #[test]
    fn harness_runs_one_dataset_end_to_end() {
        let suite = standard_suite(Scale::Small, 0.01, 42);
        let ds = &suite[2]; // T3, the smallest
        let fdep = run_fdep(ds);
        let cfd = run_cfd(ds);
        let (pfd, result) = run_pfd(ds, &DiscoveryConfig::default());
        // The paper's headline shape: PFD finds at least as many valid
        // dependencies as either baseline.
        assert!(pfd.eval.true_positives >= fdep.eval.true_positives);
        assert!(pfd.eval.true_positives >= cfd.eval.true_positives);
        let detection = run_detection(ds, &result);
        assert!(detection.flagged >= detection.true_positives);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(f64::NAN), "−");
        assert_eq!(pct(1.0), "100.0");
        assert_eq!(pct(0.5), "50.0");
    }
}
