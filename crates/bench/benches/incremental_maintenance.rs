//! Criterion bench for incremental violation maintenance: single-cell-edit
//! reconciliation on the group-indexed [`DeltaEngine`] vs the naive
//! full-recompute [`IncrementalChecker`], across relation sizes, plus the
//! batched-edit path, plus the engine under the rules `pfd discover` finds
//! for the geo cascade table — hundreds to over a thousand tableau rows,
//! where per-tableau-row costs show.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_incremental.json` (µs/edit for both engines, speedup, batch
//! coalescing factor, and per discovered-rules case the tableau rows, the
//! engine build and the median µs of a set on each cascade column, an
//! insert and a delete) so the delta engine's perf trajectory is tracked
//! across PRs next to `BENCH_discovery.json`. `PFD_BENCH_SMOKE=1` skips the
//! criterion sampling and emits the JSON from a tiny-scale pass — the CI
//! smoke-bench mode. `PFD_BENCH_JSON` overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_core::{DeltaEngine, Edit, IncrementalChecker, Pfd};
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, zip_state_table, ErrorProfile};
use pfd_discovery::{discover, DiscoveryConfig};
use pfd_relation::{Relation, RowId};
use std::fmt::Write as _;
use std::time::Instant;

/// The monitored rules: the zip-prefix → state variable PFD (λ5 style, pair
/// semantics) and a plain FD zip → state (wildcard tableau).
fn session_pfds(rel: &Relation) -> Vec<Pfd> {
    vec![
        Pfd::constant_normal_form(
            "ZipState",
            rel.schema(),
            "zip",
            r"[\D{3}]\D{2}",
            "state",
            "_",
        )
        .unwrap(),
        Pfd::fd("ZipState", rel.schema(), &["zip"], &["state"]).unwrap(),
    ]
}

/// The steward's edit loop: break a state cell on even steps and restore
/// the same cell (from the pristine `rel`) on the following odd step, so
/// the relation cycles through steady-state single-violation churn rather
/// than accumulating dirt across the run.
fn toggle_edit(rel: &Relation, step: usize) -> Edit {
    let row = ((step / 2) * 37) % rel.num_rows();
    let attr = rel.schema().attr("state").unwrap();
    let value = if step.is_multiple_of(2) {
        "XX".to_string()
    } else {
        rel.cell(row, attr).to_string()
    };
    Edit::Set { row, attr, value }
}

fn bench_single_edit(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_single_edit");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let rel = zip_state_table(rows, 5);
        let pfds = session_pfds(&rel);
        let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());
        let mut delta = DeltaEngine::new(rel.clone(), pfds);
        let mut step = 0usize;
        group.bench_with_input(BenchmarkId::new("full_recompute", rows), &rel, |b, rel| {
            b.iter(|| {
                let edit = toggle_edit(rel, step);
                step += 1;
                black_box(naive.apply(edit).unwrap())
            })
        });
        let mut step = 0usize;
        group.bench_with_input(BenchmarkId::new("delta_engine", rows), &rel, |b, rel| {
            b.iter(|| {
                let edit = toggle_edit(rel, step);
                step += 1;
                black_box(delta.apply(edit).unwrap())
            })
        });
    }
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_batch_100_edits");
    group.sample_size(10);
    let rel = zip_state_table(10_000, 5);
    let pfds = session_pfds(&rel);
    let edits: Vec<Edit> = (0..100).map(|i| toggle_edit(&rel, i)).collect();
    let mut engine = DeltaEngine::new(rel.clone(), pfds.clone());
    group.bench_function("coalesced", |b| {
        b.iter(|| black_box(engine.apply_batch(&edits).unwrap()))
    });
    let mut engine = DeltaEngine::new(rel, pfds);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            for e in &edits {
                black_box(engine.apply(e.clone()).unwrap());
            }
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Discovered rules: the geo cascade table under what `pfd discover` finds
// ---------------------------------------------------------------------------

/// The cascade columns a discovered-rules case times sets on.
const CASCADE: [&str; 5] = ["zip", "city", "county", "state", "region"];
/// Timed samples per edit kind in a discovered-rules case.
const DISCOVERED_SAMPLES: usize = 20;

/// `geo_cascade_table(rows, 7)` with 0.5% correlated errors (seed 13) in
/// the four columns below `zip`, and the PFDs discovery finds for it at the
/// default configuration.
fn discovered_workload(rows: usize) -> (Relation, Vec<Pfd>) {
    let clean = geo_cascade_table(rows, 7);
    let targets = ["city", "county", "state", "region"].map(|a| clean.schema().attr(a).unwrap());
    let profile = ErrorProfile::correlated(&targets, 0.005);
    let (dirty, _) = dirty_clean_pair(&clean, &profile, 13);
    let pfds = discover(&dirty, &DiscoveryConfig::default())
        .dependencies
        .into_iter()
        .map(|d| d.pfd)
        .collect();
    (dirty, pfds)
}

/// The `i`-th sampled row, spread over the table by a prime stride.
fn sample_row(i: usize, rows: usize) -> RowId {
    (i * 7919 + 13) % rows
}

/// The row's cells, for re-inserting it after a timed delete.
fn row_cells(rel: &Relation, row: RowId) -> Vec<String> {
    rel.schema()
        .attr_ids()
        .map(|a| rel.cell(row, a).to_string())
        .collect()
}

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_discovered(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_discovered_rules");
    group.sample_size(10);
    for rows in [20_000usize, 50_000] {
        let (rel, pfds) = discovered_workload(rows);
        let city = rel.schema().attr("city").unwrap();
        let mut engine = DeltaEngine::new(rel.clone(), pfds);
        let mut step = 0usize;
        // A city set to another row's city, then the old one back.
        group.bench_function(BenchmarkId::new("set_city", rows), |b| {
            b.iter(|| {
                let row = sample_row(step / 2, rows);
                let value = if step.is_multiple_of(2) {
                    rel.cell(sample_row(step / 2 + 1, rows), city)
                } else {
                    rel.cell(row, city)
                };
                step += 1;
                black_box(engine.set_cell(row, city, value.to_string()).unwrap())
            })
        });
        let mut step = 0usize;
        // A delete, then the deleted row appended again: the table keeps
        // its size.
        group.bench_function(BenchmarkId::new("delete_insert", rows), |b| {
            b.iter(|| {
                let row = sample_row(step, rows);
                step += 1;
                let cells = row_cells(engine.relation(), row);
                black_box(engine.delete_row(row).unwrap());
                black_box(engine.insert_row(cells).unwrap())
            })
        });
    }
    group.finish();
}

struct DiscoveredCase {
    rows: usize,
    dependencies: usize,
    tableau_rows: usize,
    build_ms: f64,
    /// Median µs of a set on each [`CASCADE`] column, in that order.
    set_us: Vec<f64>,
    insert_us: f64,
    delete_us: f64,
}

fn measure_discovered(rows: usize) -> DiscoveredCase {
    let (rel, pfds) = discovered_workload(rows);
    let dependencies = pfds.len();
    let tableau_rows = pfds.iter().map(|p| p.tableau().len()).sum();
    let t0 = Instant::now();
    let mut engine = DeltaEngine::new(rel.clone(), pfds);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Each sample sets a cell to another row's value in the same column,
    // then sets the old value back; both sets are timed.
    let set_us = CASCADE
        .iter()
        .map(|name| {
            let attr = rel.schema().attr(name).unwrap();
            let mut samples = Vec::with_capacity(2 * DISCOVERED_SAMPLES);
            for i in 0..DISCOVERED_SAMPLES {
                let row = sample_row(i, rows);
                let other = rel.cell(sample_row(i + DISCOVERED_SAMPLES, rows), attr);
                for value in [other, rel.cell(row, attr)] {
                    let t0 = Instant::now();
                    black_box(engine.set_cell(row, attr, value.to_string()).unwrap());
                    samples.push(elapsed_us(t0));
                }
            }
            median(samples)
        })
        .collect();

    // Each sample deletes a row and appends its cells again, so the table
    // keeps its size and the deletes land all over it.
    let mut deletes = Vec::with_capacity(DISCOVERED_SAMPLES);
    let mut inserts = Vec::with_capacity(DISCOVERED_SAMPLES);
    for i in 0..DISCOVERED_SAMPLES {
        let row = sample_row(i, rows);
        let cells = row_cells(engine.relation(), row);
        let t0 = Instant::now();
        black_box(engine.delete_row(row).unwrap());
        deletes.push(elapsed_us(t0));
        let t0 = Instant::now();
        black_box(engine.insert_row(cells).unwrap());
        inserts.push(elapsed_us(t0));
    }

    DiscoveredCase {
        rows,
        dependencies,
        tableau_rows,
        build_ms,
        set_us,
        insert_us: median(inserts),
        delete_us: median(deletes),
    }
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_incremental.json
// ---------------------------------------------------------------------------

struct JsonCase {
    rows: usize,
    edits: usize,
    full_us_per_edit: f64,
    delta_us_per_edit: f64,
    speedup: f64,
    batch_us_per_edit: f64,
    build_ms: f64,
}

fn measure(rows: usize, edits: usize) -> JsonCase {
    let rel = zip_state_table(rows, 5);
    let pfds = session_pfds(&rel);

    let t0 = Instant::now();
    let mut delta = DeltaEngine::new(rel.clone(), pfds.clone());
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut naive = IncrementalChecker::new(rel.clone(), pfds.clone());

    let t0 = Instant::now();
    for i in 0..edits {
        black_box(naive.apply(toggle_edit(&rel, i)).unwrap());
    }
    let full_us = t0.elapsed().as_secs_f64() * 1e6 / edits as f64;

    let t0 = Instant::now();
    for i in 0..edits {
        black_box(delta.apply(toggle_edit(&rel, i)).unwrap());
    }
    let delta_us = t0.elapsed().as_secs_f64() * 1e6 / edits as f64;

    // Batched: the same edit volume, one reconciliation pass.
    let script: Vec<Edit> = (0..edits).map(|i| toggle_edit(&rel, i)).collect();
    let mut batch_engine = DeltaEngine::new(rel.clone(), pfds);
    let t0 = Instant::now();
    black_box(batch_engine.apply_batch(&script).unwrap());
    let batch_us = t0.elapsed().as_secs_f64() * 1e6 / edits as f64;

    JsonCase {
        rows,
        edits,
        full_us_per_edit: full_us,
        delta_us_per_edit: delta_us,
        speedup: full_us / delta_us,
        batch_us_per_edit: batch_us,
        build_ms,
    }
}

fn write_bench_json(smoke: bool) {
    let cases: Vec<JsonCase> = if smoke {
        vec![measure(300, 40)]
    } else {
        vec![
            measure(1_000, 200),
            measure(10_000, 200),
            measure(50_000, 100),
        ]
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
    // Fixed reference point: the pre-delta-engine IncrementalChecker was the
    // only incremental path, so its per-edit cost is the trajectory baseline.
    json.push_str(
        "  \"reference\": {\"label\": \"naive full-recompute checker (PR 2 tree)\", \
         \"metric\": \"us_per_single_cell_edit\"},\n",
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"edits\": {}, \"full_recompute_us_per_edit\": {:.2}, \
             \"delta_engine_us_per_edit\": {:.2}, \"speedup\": {:.1}, \
             \"batch_us_per_edit\": {:.2}, \"index_build_ms\": {:.2}}}",
            c.rows,
            c.edits,
            c.full_us_per_edit,
            c.delta_us_per_edit,
            c.speedup,
            c.batch_us_per_edit,
            c.build_ms
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    json.push_str(
        "  \"discovered_workload\": {\"table\": \"geo_cascade\", \"error_rate\": 0.005, \
         \"rules\": \"discover, default config\", \"edit\": \"median_us\"},\n",
    );
    json.push_str("  \"discovered_cases\": [\n");
    for (i, c) in discovered.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"dependencies\": {}, \"tableau_rows\": {}, \
             \"index_build_ms\": {:.2}",
            c.rows, c.dependencies, c.tableau_rows, c.build_ms
        );
        for (name, us) in CASCADE.iter().zip(&c.set_us) {
            let _ = write!(json, ", \"set_{name}_us\": {us:.2}");
        }
        let _ = write!(
            json,
            ", \"insert_us\": {:.2}, \"delete_us\": {:.2}}}",
            c.insert_us, c.delete_us
        );
        json.push_str(if i + 1 < discovered.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON").unwrap_or_else(|_| {
        format!(
            "{}/../../BENCH_incremental.json",
            env!("CARGO_MANIFEST_DIR")
        )
    });
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    for c in &cases {
        println!(
            "rows {:>6}: full {:>9.2} µs/edit, delta {:>7.2} µs/edit ({:.1}×), batch {:>7.2} µs/edit",
            c.rows, c.full_us_per_edit, c.delta_us_per_edit, c.speedup, c.batch_us_per_edit
        );
    }
    for c in &discovered {
        let sets: Vec<String> = CASCADE
            .iter()
            .zip(&c.set_us)
            .map(|(name, us)| format!("{name} {us:.1}"))
            .collect();
        println!(
            "discovered rules, rows {:>6} ({} tableau rows): build {:.1} ms; \
             set µs {}; insert {:.1} µs; delete {:.1} µs",
            c.rows,
            c.tableau_rows,
            c.build_ms,
            sets.join(", "),
            c.insert_us,
            c.delete_us
        );
    }
}

criterion_group!(benches, bench_single_edit, bench_batch, bench_discovered);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
