//! Criterion bench for discovery runtime scaling (the Table 7 runtime rows
//! and the §5.4 efficiency discussion): the PFD miner on growing Zip → State
//! tables, with and without multi-LHS, plus the FDep baseline whose
//! quadratic pair scan dominates as rows grow.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_discovery.json` (rows/sec, per-phase ms with the check phase's
//! split, dependency counts) so the perf trajectory is tracked across PRs.
//! Full mode adds the geo cascade table with correlated errors at 10k, 50k
//! and 200k rows, where discovery finds its rules at the scale the
//! end-to-end benchmark runs them. `PFD_BENCH_SMOKE=1` skips the criterion
//! sampling and emits the JSON from a tiny-scale pass — the CI smoke-bench
//! mode. `PFD_BENCH_JSON` overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_baselines::{fdep_single_lhs, FdepConfig};
use pfd_datagen::{
    dirty_clean_pair, geo_cascade_table, standard_suite, zip_state_table, ErrorProfile, Scale,
};
use pfd_discovery::{discover, DiscoveryConfig, DiscoveryResult, DiscoveryStats};
use pfd_relation::Relation;
use std::fmt::Write as _;
use std::time::Instant;

fn bench_zip_state_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("discover_zip_state");
    group.sample_size(10);
    for rows in [250usize, 500, 1000, 2000] {
        let rel = zip_state_table(rows, 5);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rel, |b, rel| {
            b.iter(|| black_box(discover(black_box(rel), &DiscoveryConfig::default())))
        });
    }
    group.finish();
}

fn bench_t1_discovery(c: &mut Criterion) {
    let suite = standard_suite(Scale::Small, 0.01, 42);
    let t1 = &suite[0];
    let mut group = c.benchmark_group("discover_t1");
    group.sample_size(10);
    group.bench_function("single_lhs", |b| {
        b.iter(|| black_box(discover(&t1.dirty, &DiscoveryConfig::default())))
    });
    group.bench_function("multi_lhs_parallel", |b| {
        b.iter(|| {
            black_box(discover(
                &t1.dirty,
                &DiscoveryConfig {
                    max_lhs: 2,
                    parallel: true,
                    ..DiscoveryConfig::default()
                },
            ))
        })
    });
    group.finish();
}

fn bench_fdep_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("fdep_zip_state");
    group.sample_size(10);
    for rows in [250usize, 500, 1000] {
        let rel = zip_state_table(rows, 5);
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rel, |b, rel| {
            b.iter(|| black_box(fdep_single_lhs(black_box(rel), &FdepConfig::default())))
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_discovery.json
// ---------------------------------------------------------------------------

/// Rate of correlated errors in city/county/state/region of the geo cases
/// (as `snapshot_runtime`'s discovery table and `cleanbench` inject them).
const GEO_ERROR_RATE: f64 = 0.005;

/// The dirty geo cascade table.
fn geo_relation(rows: usize) -> Relation {
    let clean = geo_cascade_table(rows, 7);
    let attr = |name: &str| clean.schema().attr(name).unwrap();
    let dirty_attrs = [attr("city"), attr("county"), attr("state"), attr("region")];
    let profile = ErrorProfile::correlated(&dirty_attrs, GEO_ERROR_RATE);
    dirty_clean_pair(&clean, &profile, 13).0
}

struct JsonCase {
    name: String,
    rows: usize,
    iters: usize,
    best_ms: f64,
    rows_per_sec: f64,
    /// The fastest pass's statistics.
    stats: DiscoveryStats,
    dependencies: usize,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `discover` `iters` times on `rel`, keeping the fastest pass.
fn measure(name: &str, rel: &pfd_relation::Relation, iters: usize) -> JsonCase {
    let mut best: Option<(f64, DiscoveryResult)> = None;
    for _ in 0..iters {
        let t0 = Instant::now();
        let result = discover(black_box(rel), &DiscoveryConfig::default());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if best.as_ref().is_none_or(|(b, _)| ms < *b) {
            best = Some((ms, result));
        }
    }
    let (best_ms, result) = best.expect("iters >= 1");
    JsonCase {
        name: name.to_string(),
        rows: rel.num_rows(),
        iters,
        best_ms,
        rows_per_sec: rel.num_rows() as f64 / (best_ms / 1e3),
        dependencies: result.dependencies.len(),
        stats: result.stats,
    }
}

fn write_bench_json(smoke: bool) {
    let iters = if smoke { 2 } else { 5 };
    let mut cases: Vec<JsonCase> = Vec::new();
    let sizes: &[usize] = if smoke {
        &[200]
    } else {
        &[250, 500, 1000, 2000]
    };
    for &rows in sizes {
        let rel = zip_state_table(rows, 5);
        cases.push(measure("zip_state", &rel, iters));
    }
    if !smoke {
        let suite = standard_suite(Scale::Small, 0.01, 42);
        cases.push(measure("t1_gov_contacts", &suite[0].dirty, iters));
        for (rows, iters) in [(10_000, 5), (50_000, 3), (200_000, 2)] {
            cases.push(measure("geo_cascade", &geo_relation(rows), iters));
        }
    }

    let mut json = String::from("{\n  \"schema_version\": 2,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    // Fixed reference point so the committed file records the perf
    // trajectory, not just the latest run: criterion means measured on the
    // pre-optimization tree (PR 1), same machine class as the `cases`.
    json.push_str(
        "  \"reference\": {\"label\": \"pre-PR2 baseline, criterion mean ms\", \
         \"t1_single_lhs_ms\": 96.29, \"t1_multi_lhs_ms\": 985.19, \
         \"zip_state_2000_ms\": 16.75},\n",
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let st = &c.stats;
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"rows\": {}, \"iters\": {}, \"best_ms\": {:.3}, \
             \"rows_per_sec\": {:.0}, \"phases_ms\": {{\"profile\": {:.3}, \"index\": {:.3}, \
             \"check\": {:.3}}}, \"check_split_ms\": {{\"expand\": {:.3}, \"subsume\": {:.3}, \
             \"tableau\": {:.3}, \"infer\": {:.3}, \"audit\": {:.3}}}, \"audits\": {}, \
             \"audits_rejected\": {}, \"dependencies\": {}}}",
            c.name,
            c.rows,
            c.iters,
            c.best_ms,
            c.rows_per_sec,
            ms(st.profile_time),
            ms(st.index_time),
            ms(st.check_time),
            ms(st.expand_time),
            ms(st.subsume_time),
            ms(st.tableau_time),
            ms(st.infer_time),
            ms(st.audit_time),
            st.audits,
            st.audits_rejected,
            c.dependencies
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    // Default to the workspace root (cargo bench runs with the package dir
    // as CWD); `PFD_BENCH_JSON` overrides.
    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_discovery.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

criterion_group!(
    benches,
    bench_zip_state_scaling,
    bench_t1_discovery,
    bench_fdep_baseline
);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
