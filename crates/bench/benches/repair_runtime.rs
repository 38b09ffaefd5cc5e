//! Criterion bench for the repair fixpoint chase: the delta-driven
//! [`RepairEngine`] vs the pinned naive [`repair_to_fixpoint`] reference on
//! injected dirty/clean pairs of the geo cascade table.
//!
//! The workload is the repair analogue of `incremental_maintenance`: a
//! four-link dependency chain (`zip → city → county → state → region`)
//! with correlated errors on all four dependent columns of the same rows,
//! so the chase needs one pass per link. The naive reference re-detects
//! over every row (and clones the relation) each pass; the engine builds
//! the group indexes once and reconciles only the groups each pass's
//! fixes touched — `speedup` compares the chase itself (what a live
//! session pays: its indexes already exist), `speedup_cold` includes the
//! one-time index build.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_repair.json` (wall-clock per engine, speedup, passes, fixes/sec,
//! precision/recall vs the injected ground truth at 1k/10k/50k rows), and
//! the same dirty tables under the rules `pfd discover` finds for them —
//! hundreds to over a thousand tableau rows — at 5k/20k/50k rows: the
//! medians of `detect_errors`, `DeltaEngine::new` and the chase.
//! `PFD_BENCH_SMOKE=1` skips the criterion sampling and emits the JSON
//! from a tiny-scale pass — the CI smoke-bench mode. `PFD_BENCH_JSON`
//! overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_core::{
    detect_errors, evaluate_repairs, repair_to_fixpoint, DeltaEngine, Pfd, RepairEngine,
    RepairOptions, RepairOutcome,
};
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile, InjectedError};
use pfd_discovery::{discover, DiscoveryConfig};
use pfd_relation::Relation;
use std::fmt::Write as _;
use std::time::Instant;

/// Rate of correlated errors injected into city/county/state/region.
const ERROR_RATE: f64 = 0.005;
/// Pass cap for both engines.
const MAX_PASSES: usize = 10;

/// The monitored rule set: exactly the chain links, so every injected row
/// takes one chase pass per link to converge.
fn repair_pfds(rel: &Relation) -> Vec<Pfd> {
    let schema = rel.schema();
    vec![
        Pfd::constant_normal_form("Geo", schema, "zip", r"[\D{3}]\D{2}", "city", "_").unwrap(),
        Pfd::fd("Geo", schema, &["city"], &["county"]).unwrap(),
        Pfd::fd("Geo", schema, &["county"], &["state"]).unwrap(),
        Pfd::fd("Geo", schema, &["state"], &["region"]).unwrap(),
    ]
}

/// One dirty/clean evaluation pair with its ground truth.
fn workload(rows: usize) -> (Relation, Relation, Vec<InjectedError>, Vec<Pfd>) {
    let clean = geo_cascade_table(rows, 7);
    let city = clean.schema().attr("city").unwrap();
    let county = clean.schema().attr("county").unwrap();
    let state = clean.schema().attr("state").unwrap();
    let region = clean.schema().attr("region").unwrap();
    let profile = ErrorProfile::correlated(&[city, county, state, region], ERROR_RATE);
    let (dirty, injected) = dirty_clean_pair(&clean, &profile, 13);
    let pfds = repair_pfds(&clean);
    (clean, dirty, injected, pfds)
}

fn bench_fixpoint(c: &mut Criterion) {
    let mut group = c.benchmark_group("repair_fixpoint");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let (_, dirty, _, pfds) = workload(rows);
        group.bench_with_input(BenchmarkId::new("naive", rows), &dirty, |b, dirty| {
            b.iter(|| black_box(repair_to_fixpoint(dirty, &pfds, MAX_PASSES)))
        });
        group.bench_with_input(
            BenchmarkId::new("delta_engine", rows),
            &dirty,
            |b, dirty| {
                b.iter(|| {
                    let mut engine = RepairEngine::new(
                        dirty.clone(),
                        pfds.clone(),
                        RepairOptions {
                            max_passes: MAX_PASSES,
                            ..RepairOptions::default()
                        },
                    );
                    black_box(engine.run())
                })
            },
        );
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Discovered rules: the same dirty tables under what `pfd discover` finds
// ---------------------------------------------------------------------------

/// Timed runs per phase in a discovered-rules case; the median is kept.
const DISCOVERED_RUNS: usize = 5;

struct DiscoveredCase {
    rows: usize,
    dependencies: usize,
    tableau_rows: usize,
    detect_ms: f64,
    build_ms: f64,
    chase_ms: f64,
    passes: usize,
    fixes: usize,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

fn measure_discovered(rows: usize) -> DiscoveredCase {
    let (_, dirty, _, _) = workload(rows);
    let pfds: Vec<Pfd> = discover(&dirty, &DiscoveryConfig::default())
        .dependencies
        .into_iter()
        .map(|d| d.pfd)
        .collect();
    let options = RepairOptions {
        max_passes: MAX_PASSES,
        ..RepairOptions::default()
    };
    let (mut detect, mut build, mut chase) = (Vec::new(), Vec::new(), Vec::new());
    let mut outcome = None;
    for _ in 0..DISCOVERED_RUNS {
        let t0 = Instant::now();
        black_box(detect_errors(&dirty, &pfds));
        detect.push(ms_since(t0));
        let t0 = Instant::now();
        let engine = DeltaEngine::new(dirty.clone(), pfds.clone());
        build.push(ms_since(t0));
        let mut engine = RepairEngine::from_engine(engine, options);
        let t0 = Instant::now();
        let (run, passes) = engine.run();
        chase.push(ms_since(t0));
        outcome = Some((run.fixes.len(), passes));
    }
    let (fixes, passes) = outcome.expect("at least one run");
    DiscoveredCase {
        rows,
        dependencies: pfds.len(),
        tableau_rows: pfds.iter().map(|p| p.tableau().len()).sum(),
        detect_ms: median(detect),
        build_ms: median(build),
        chase_ms: median(chase),
        passes,
        fixes,
    }
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_repair.json
// ---------------------------------------------------------------------------

struct JsonCase {
    rows: usize,
    injected: usize,
    naive_ms: f64,
    build_ms: f64,
    chase_ms: f64,
    speedup: f64,
    speedup_cold: f64,
    naive_passes: usize,
    engine_passes: usize,
    fixes: usize,
    fixes_per_sec: f64,
    precision: f64,
    recall: f64,
    residual_errors: usize,
}

/// Cells of the repaired relation still differing from the clean twin —
/// the steward-facing outcome metric (fix-stream precision counts interim
/// churn that later passes correct; this does not).
fn residual_errors(repaired: &Relation, clean: &Relation) -> usize {
    let arity = clean.schema().arity();
    let mut wrong = 0;
    for (rid, _) in clean.iter_rows() {
        for a in 0..arity {
            let attr = pfd_relation::AttrId(a);
            if repaired.cell(rid, attr) != clean.cell(rid, attr) {
                wrong += 1;
            }
        }
    }
    wrong
}

fn measure(rows: usize) -> JsonCase {
    let (clean, dirty, injected, pfds) = workload(rows);

    let t0 = Instant::now();
    let (naive_outcome, naive_passes) = repair_to_fixpoint(&dirty, &pfds, MAX_PASSES);
    let naive_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Build and chase are timed separately: a live session holds the group
    // indexes already (every steward edit maintains them), so the chase is
    // what a `repair` command pays — the build is a one-time cost the cold
    // speedup accounts for.
    let t0 = Instant::now();
    let mut engine = RepairEngine::new(
        dirty.clone(),
        pfds.clone(),
        RepairOptions {
            max_passes: MAX_PASSES,
            ..RepairOptions::default()
        },
    );
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    let (engine_outcome, engine_passes) = engine.run();
    let chase_ms = t0.elapsed().as_secs_f64() * 1e3;

    assert_outcomes_agree(&naive_outcome, &engine_outcome, naive_passes, engine_passes);

    let eval = evaluate_repairs(&engine_outcome.fixes, &clean);
    JsonCase {
        rows,
        injected: injected.len(),
        naive_ms,
        build_ms,
        chase_ms,
        speedup: naive_ms / chase_ms,
        speedup_cold: naive_ms / (build_ms + chase_ms),
        naive_passes,
        engine_passes,
        fixes: engine_outcome.fixes.len(),
        fixes_per_sec: engine_outcome.fixes.len() as f64 / (chase_ms / 1e3),
        precision: eval.precision(),
        recall: eval.recall(injected.len()),
        residual_errors: residual_errors(&engine_outcome.relation, &clean),
    }
}

/// The acceptance canary: both engines must produce identical repairs.
fn assert_outcomes_agree(
    naive: &RepairOutcome,
    engine: &RepairOutcome,
    naive_passes: usize,
    engine_passes: usize,
) {
    assert_eq!(naive_passes, engine_passes, "pass counts diverge");
    assert_eq!(naive.fixes, engine.fixes, "fix streams diverge");
    assert_eq!(
        naive.relation, engine.relation,
        "repaired relations diverge"
    );
    assert_eq!(naive.unrepaired, engine.unrepaired, "unrepaired diverge");
}

fn write_bench_json(smoke: bool) {
    let cases: Vec<JsonCase> = if smoke {
        vec![measure(300)]
    } else {
        vec![measure(1_000), measure(10_000), measure(50_000)]
    };
    let discovered: Vec<DiscoveredCase> = if smoke {
        vec![measure_discovered(1_000)]
    } else {
        [5_000, 20_000, 50_000]
            .into_iter()
            .map(measure_discovered)
            .collect()
    };

    let mut json = String::from("{\n  \"schema_version\": 2,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    // Fixed reference point: the seed-era naive fixpoint (clone + full
    // re-detect per pass) is the trajectory baseline.
    json.push_str(
        "  \"reference\": {\"label\": \"naive repair_to_fixpoint (clone + full rescan per pass)\", \
         \"metric\": \"ms_per_chase\"},\n",
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"table\": \"geo_cascade\", \"error_rate\": {ERROR_RATE}, \
         \"correlated_attrs\": [\"city\", \"county\", \"state\", \"region\"], \"rules\": 4, \
         \"max_passes\": {MAX_PASSES}}},"
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"injected_cells\": {}, \"naive_ms\": {:.2}, \
             \"engine_build_ms\": {:.2}, \"engine_chase_ms\": {:.2}, \"speedup\": {:.1}, \
             \"speedup_cold\": {:.1}, \"naive_passes\": {}, \
             \"engine_passes\": {}, \"fixes\": {}, \"fixes_per_sec\": {:.0}, \
             \"precision\": {:.4}, \"recall\": {:.4}, \"residual_errors\": {}}}",
            c.rows,
            c.injected,
            c.naive_ms,
            c.build_ms,
            c.chase_ms,
            c.speedup,
            c.speedup_cold,
            c.naive_passes,
            c.engine_passes,
            c.fixes,
            c.fixes_per_sec,
            c.precision,
            c.recall,
            c.residual_errors
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"discovered_workload\": {{\"table\": \"geo_cascade\", \"error_rate\": {ERROR_RATE}, \
         \"rules\": \"discover, default config\", \"max_passes\": {MAX_PASSES}, \
         \"phase\": \"median_ms of {DISCOVERED_RUNS} runs\"}},"
    );
    json.push_str("  \"discovered_cases\": [\n");
    for (i, c) in discovered.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"dependencies\": {}, \"tableau_rows\": {}, \
             \"detect_ms\": {:.2}, \"engine_build_ms\": {:.2}, \"engine_chase_ms\": {:.2}, \
             \"passes\": {}, \"fixes\": {}}}",
            c.rows,
            c.dependencies,
            c.tableau_rows,
            c.detect_ms,
            c.build_ms,
            c.chase_ms,
            c.passes,
            c.fixes
        );
        json.push_str(if i + 1 < discovered.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_repair.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    for c in &cases {
        println!(
            "rows {:>6}: naive {:>9.2} ms ({} passes), engine build {:>7.2} ms + chase {:>7.2} ms \
             ({} passes) = {:.1}× warm / {:.1}× cold, {} fixes ({:.0}/s), \
             precision {:.3}, recall {:.3}, {} residual dirty cells",
            c.rows,
            c.naive_ms,
            c.naive_passes,
            c.build_ms,
            c.chase_ms,
            c.engine_passes,
            c.speedup,
            c.speedup_cold,
            c.fixes,
            c.fixes_per_sec,
            c.precision,
            c.recall,
            c.residual_errors
        );
    }
    for c in &discovered {
        println!(
            "discovered rules, rows {:>6} ({} tableau rows): detect {:.1} ms, engine build \
             {:.1} ms + chase {:.1} ms ({} passes, {} fixes)",
            c.rows, c.tableau_rows, c.detect_ms, c.build_ms, c.chase_ms, c.passes, c.fixes
        );
    }
}

criterion_group!(benches, bench_fixpoint);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
