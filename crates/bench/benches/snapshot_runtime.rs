//! Criterion bench for the binary snapshot loader: cold build-from-CSV
//! (parse CSV, parse rules, group every row) vs `load_from_bytes` of a
//! saved snapshot, plus snapshot + delta-log replay — the session-resume
//! path.
//!
//! The workload is the geo cascade table with the four-link rule chain
//! (`zip → city → county → state → region`) and injected correlated
//! errors, so the snapshot carries a realistic violation census alongside
//! the group indexes. The cold path is exactly what `pfd check` pays on
//! every run today; the loaded path is what `--snapshot` pays.
//!
//! Besides the criterion output, the run writes `BENCH_snapshot.json`
//! (cold-build vs load wall-clock, speedup, snapshot size, bytes/row, and
//! load+replay of an edit log at 1k/10k/50k rows), plus `discovery_cases`
//! timing warm-start `pfd discover`: a whole cold discover against a whole
//! warm one, and the cold run's index build against the `.pfdi` load that
//! replaces it — with the discovered dependency sets asserted identical
//! before any timing is reported. `PFD_BENCH_SMOKE=1` skips criterion
//! sampling and emits the JSON from a tiny-scale pass — the CI smoke-bench
//! mode. `PFD_BENCH_JSON` overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_core::{
    load_from_bytes, parse_rules, replay_log, save_to_bytes, to_rules_string, DeltaEngine, Pfd,
};
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile};
use pfd_discovery::{discover, discover_persistent, DiscoveryConfig};
use pfd_relation::{read_csv_str, write_csv_string, Relation, StdIo};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Rate of correlated errors injected into city/county/state/region.
const ERROR_RATE: f64 = 0.005;
/// Edits replayed on top of the snapshot in the resume measurement.
const LOG_EDITS: usize = 100;

/// The monitored rule set — the cascade chain links.
fn snapshot_pfds(rel: &Relation) -> Vec<Pfd> {
    let schema = rel.schema();
    vec![
        Pfd::constant_normal_form("Geo", schema, "zip", r"[\D{3}]\D{2}", "city", "_").unwrap(),
        Pfd::fd("Geo", schema, &["city"], &["county"]).unwrap(),
        Pfd::fd("Geo", schema, &["county"], &["state"]).unwrap(),
        Pfd::fd("Geo", schema, &["state"], &["region"]).unwrap(),
    ]
}

/// The serving artifacts for one scale: the CSV text and rules text a cold
/// start parses, and the snapshot bytes + delta log a resume loads.
struct Workload {
    csv: String,
    rules_text: String,
    snapshot: Vec<u8>,
    log: String,
}

fn workload(rows: usize) -> Workload {
    let clean = geo_cascade_table(rows, 7);
    let city = clean.schema().attr("city").unwrap();
    let county = clean.schema().attr("county").unwrap();
    let state = clean.schema().attr("state").unwrap();
    let region = clean.schema().attr("region").unwrap();
    let profile = ErrorProfile::correlated(&[city, county, state, region], ERROR_RATE);
    let (dirty, _) = dirty_clean_pair(&clean, &profile, 13);
    let pfds = snapshot_pfds(&dirty);
    let csv = write_csv_string(&dirty);
    let rules_text = to_rules_string(&pfds, dirty.schema());
    let engine = DeltaEngine::new(dirty, pfds);
    let snapshot = save_to_bytes(&engine);
    // A replayable steward log: re-point LOG_EDITS city cells (valid JSON
    // session commands, the exact format `pfd session --snapshot` appends).
    let mut log = String::new();
    let num_rows = engine.relation().num_rows();
    for i in 0..LOG_EDITS.min(num_rows) {
        let row = (i * 97) % num_rows;
        let _ = writeln!(
            log,
            "{{\"op\":\"set\",\"row\":{row},\"attr\":\"city\",\"value\":\"Springfield {i}\"}}"
        );
    }
    Workload {
        csv,
        rules_text,
        snapshot,
        log,
    }
}

/// The cold path: CSV parse + rules parse + full group/violation build.
fn cold_build(w: &Workload) -> DeltaEngine {
    let rel = read_csv_str("Geo", &w.csv).unwrap();
    let pfds = parse_rules(&w.rules_text, rel.schema()).unwrap();
    DeltaEngine::new(rel, pfds)
}

// ---------------------------------------------------------------------------
// Warm-start discovery: cold index build vs `.pfdi` load
// ---------------------------------------------------------------------------

/// The dirty cascade relation discovery runs over.
fn discovery_relation(rows: usize) -> Relation {
    let clean = geo_cascade_table(rows, 7);
    let city = clean.schema().attr("city").unwrap();
    let county = clean.schema().attr("county").unwrap();
    let state = clean.schema().attr("state").unwrap();
    let region = clean.schema().attr("region").unwrap();
    let profile = ErrorProfile::correlated(&[city, county, state, region], ERROR_RATE);
    let (dirty, _) = dirty_clean_pair(&clean, &profile, 13);
    dirty
}

fn bench_index_dir() -> PathBuf {
    let dir = std::env::temp_dir().join("pfd_bench_pfdi");
    std::fs::create_dir_all(&dir).expect("create bench index dir");
    dir
}

/// One scale of warm-start discovery. Each ratio divides two numbers of
/// the same scope: whole discover by whole discover, index phase by the
/// load that replaces it.
struct DiscoveryCase {
    rows: usize,
    /// Whole cold discover.
    cold_ms: f64,
    /// Whole warm discover (`.pfdi` load included).
    warm_ms: f64,
    /// The cold run's index phase (`DiscoveryStats::index_time`).
    index_build_ms: f64,
    /// The warm run's `.pfdi` load (`DiscoveryStats::index_load_time`).
    index_load_ms: f64,
    index_bytes: usize,
    dependencies: usize,
}

impl DiscoveryCase {
    fn warm_speedup(&self) -> f64 {
        self.cold_ms / self.warm_ms.max(1e-6)
    }

    fn index_speedup(&self) -> f64 {
        self.index_build_ms / self.index_load_ms.max(1e-6)
    }
}

fn measure_discovery(rows: usize) -> DiscoveryCase {
    let rel = discovery_relation(rows);
    let config = DiscoveryConfig::default();
    let path = bench_index_dir().join(format!("geo_{rows}.pfdi"));
    let _ = std::fs::remove_file(&path);

    let t0 = Instant::now();
    let cold = discover(&rel, &config);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Save pass (a cold build again, plus the atomic `.pfdi` write).
    let saved = discover_persistent(&StdIo, &path, &rel, &config, 0, 0);
    assert!(saved.saved, "save pass must persist the index");
    let index_bytes = std::fs::metadata(&path)
        .map(|m| m.len() as usize)
        .unwrap_or(0);

    let t0 = Instant::now();
    let warm = discover_persistent(&StdIo, &path, &rel, &config, 0, 0);
    let warm_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(warm.result.stats.index_loaded, "the load must warm-start");

    // The acceptance canary: every path discovers the identical set.
    let reference = format!("{:?}", cold.dependencies);
    for (label, result) in [("save pass", &saved.result), ("warm", &warm.result)] {
        assert_eq!(
            format!("{:?}", result.dependencies),
            reference,
            "{label} dependency set diverges from the cold build"
        );
    }

    DiscoveryCase {
        rows,
        cold_ms,
        warm_ms,
        index_build_ms: cold.stats.index_time.as_secs_f64() * 1e3,
        index_load_ms: warm.result.stats.index_load_time.as_secs_f64() * 1e3,
        index_bytes,
        dependencies: cold.dependencies.len(),
    }
}

fn bench_load(c: &mut Criterion) {
    let mut group = c.benchmark_group("snapshot_load");
    group.sample_size(10);
    for rows in [1_000usize, 10_000] {
        let w = workload(rows);
        group.bench_with_input(BenchmarkId::new("cold_build", rows), &w, |b, w| {
            b.iter(|| black_box(cold_build(w)))
        });
        group.bench_with_input(BenchmarkId::new("snapshot_load", rows), &w, |b, w| {
            b.iter(|| black_box(load_from_bytes(&w.snapshot).unwrap()))
        });
        group.bench_with_input(BenchmarkId::new("load_plus_replay", rows), &w, |b, w| {
            b.iter(|| {
                let mut engine = load_from_bytes(&w.snapshot).unwrap();
                let applied = replay_log(&mut engine, &w.log).unwrap();
                black_box((engine, applied))
            })
        });
    }
    group.finish();
}

fn bench_discover_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("discover_warm");
    group.sample_size(10);
    let rows = 1_000usize;
    let rel = discovery_relation(rows);
    let config = DiscoveryConfig::default();
    let path = bench_index_dir().join("criterion_geo.pfdi");
    let _ = std::fs::remove_file(&path);
    assert!(discover_persistent(&StdIo, &path, &rel, &config, 0, 0).saved);
    group.bench_with_input(BenchmarkId::new("cold_build", rows), &rel, |b, rel| {
        b.iter(|| black_box(discover(rel, &config)))
    });
    group.bench_with_input(BenchmarkId::new("warm", rows), &rel, |b, rel| {
        b.iter(|| {
            let warm = discover_persistent(&StdIo, &path, rel, &config, 0, 0);
            assert!(warm.result.stats.index_loaded);
            black_box(warm)
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_snapshot.json
// ---------------------------------------------------------------------------

struct JsonCase {
    rows: usize,
    cold_ms: f64,
    load_ms: f64,
    replay_ms: f64,
    speedup: f64,
    snapshot_bytes: usize,
    bytes_per_row: f64,
    log_edits: usize,
    violations: usize,
}

fn measure(rows: usize) -> JsonCase {
    let w = workload(rows);

    let t0 = Instant::now();
    let cold = cold_build(&w);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    let t0 = Instant::now();
    let loaded = load_from_bytes(&w.snapshot).unwrap();
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;

    // The acceptance canary: the loaded engine is indistinguishable from
    // the cold build — relation, rules, and violation census all equal.
    assert_eq!(cold.relation(), loaded.relation(), "relations diverge");
    assert_eq!(cold.pfds(), loaded.pfds(), "rule sets diverge");
    assert_eq!(
        cold.sorted_violations(),
        loaded.sorted_violations(),
        "violation sets diverge"
    );

    let t0 = Instant::now();
    let mut resumed = load_from_bytes(&w.snapshot).unwrap();
    let applied = replay_log(&mut resumed, &w.log).unwrap();
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;

    JsonCase {
        rows,
        cold_ms,
        load_ms,
        replay_ms,
        speedup: cold_ms / load_ms,
        snapshot_bytes: w.snapshot.len(),
        bytes_per_row: w.snapshot.len() as f64 / rows as f64,
        log_edits: applied,
        violations: loaded.violation_count(),
    }
}

fn write_bench_json(smoke: bool) {
    let cases: Vec<JsonCase> = if smoke {
        vec![measure(300)]
    } else {
        vec![measure(1_000), measure(10_000), measure(50_000)]
    };
    let discovery_cases: Vec<DiscoveryCase> = if smoke {
        vec![measure_discovery(300)]
    } else {
        vec![
            measure_discovery(1_000),
            measure_discovery(10_000),
            measure_discovery(50_000),
        ]
    };

    let mut json = String::from("{\n  \"schema_version\": 3,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    // Fixed reference point: the seed-era cold start (CSV parse + rules
    // parse + full group build on every process launch).
    json.push_str(
        "  \"reference\": {\"label\": \"cold build-from-CSV (parse + full re-group)\", \
         \"metric\": \"ms_per_start\"},\n",
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"table\": \"geo_cascade\", \"error_rate\": {ERROR_RATE}, \
         \"rules\": 4, \"log_edits\": {LOG_EDITS}}},"
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"cold_build_ms\": {:.2}, \"snapshot_load_ms\": {:.2}, \
             \"load_plus_replay_ms\": {:.2}, \"speedup\": {:.1}, \"snapshot_bytes\": {}, \
             \"bytes_per_row\": {:.1}, \"log_edits\": {}, \"violations\": {}}}",
            c.rows,
            c.cold_ms,
            c.load_ms,
            c.replay_ms,
            c.speedup,
            c.snapshot_bytes,
            c.bytes_per_row,
            c.log_edits,
            c.violations
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    // Warm-start discovery: the `.pfdi` index snapshot against the cold
    // per-run index build.
    json.push_str(
        "  \"discovery_reference\": {\"label\": \"cold per-run index build (extract + \
         posting construction)\", \"metric\": \"ms_per_discover\"},\n",
    );
    json.push_str("  \"discovery_cases\": [\n");
    for (i, c) in discovery_cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"cold_ms\": {:.2}, \"warm_ms\": {:.2}, \
             \"index_build_ms\": {:.2}, \"index_load_ms\": {:.2}, \"warm_speedup\": {:.2}, \
             \"index_speedup\": {:.1}, \"index_bytes\": {}, \"dependencies\": {}}}",
            c.rows,
            c.cold_ms,
            c.warm_ms,
            c.index_build_ms,
            c.index_load_ms,
            c.warm_speedup(),
            c.index_speedup(),
            c.index_bytes,
            c.dependencies
        );
        json.push_str(if i + 1 < discovery_cases.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_snapshot.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    for c in &cases {
        println!(
            "rows {:>6}: cold build {:>8.2} ms, snapshot load {:>7.2} ms ({:.1}×), \
             load+replay({} edits) {:>7.2} ms, {} bytes ({:.1}/row), {} violations",
            c.rows,
            c.cold_ms,
            c.load_ms,
            c.speedup,
            c.log_edits,
            c.replay_ms,
            c.snapshot_bytes,
            c.bytes_per_row,
            c.violations
        );
    }
    for c in &discovery_cases {
        println!(
            "rows {:>6}: discover cold {:>8.2} ms / warm {:>8.2} ms ({:.2}×), \
             index build {:>7.2} ms / load {:>6.2} ms ({:.1}×), {} index bytes, {} deps",
            c.rows,
            c.cold_ms,
            c.warm_ms,
            c.warm_speedup(),
            c.index_build_ms,
            c.index_load_ms,
            c.index_speedup(),
            c.index_bytes,
            c.dependencies
        );
    }
}

criterion_group!(benches, bench_load, bench_discover_warm);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
