//! Criterion bench for the multi-tenant session server: sustained edit
//! throughput as a function of tenant count, with and without batch
//! coalescing.
//!
//! Each case opens N in-memory tenants over the same geo-cascade
//! workload, submits a fixed number of `set` commands per tenant from a
//! single feeder thread (round-robin, as a socket front-end would), and
//! times submit-to-drain wall clock. Tenants are independent, so the
//! shared FIFO executor should scale throughput with the tenant count
//! until the machine runs out of cores; the coalesced variant
//! additionally folds each tenant's queue backlog into single
//! `apply_batch` calls.
//!
//! Besides the criterion output, the run writes `BENCH_serve.json`.
//! `PFD_BENCH_SMOKE=1` skips criterion sampling and emits the JSON from a
//! tiny-scale pass — the CI smoke-bench mode. `PFD_BENCH_JSON` overrides
//! the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_core::server::NoProtocolOpens;
use pfd_core::{DeltaEngine, EventSink, Pfd, Server, ServerOptions};
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile};
use pfd_relation::Relation;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Tenant counts every measurement sweeps.
const TENANT_COUNTS: [usize; 3] = [1, 4, 8];
/// Rate of correlated errors injected into city/county/state/region.
const ERROR_RATE: f64 = 0.005;

fn workload_engine(rows: usize) -> DeltaEngine {
    let clean = geo_cascade_table(rows, 7);
    let city = clean.schema().attr("city").unwrap();
    let county = clean.schema().attr("county").unwrap();
    let profile = ErrorProfile::correlated(&[city, county], ERROR_RATE);
    let (dirty, _) = dirty_clean_pair(&clean, &profile, 13);
    let pfds = pfds_for(&dirty);
    DeltaEngine::new(dirty, pfds)
}

fn pfds_for(rel: &Relation) -> Vec<Pfd> {
    let schema = rel.schema();
    vec![
        Pfd::fd("Geo", schema, &["zip"], &["city"]).unwrap(),
        Pfd::fd("Geo", schema, &["city"], &["county"]).unwrap(),
    ]
}

/// Throughput runs discard the event stream; emission cost still counts.
struct NullSink;

impl EventSink for NullSink {
    fn emit(&self, _line: &str) {}
}

/// Pre-rendered tagged edit lines: per tenant, `edits` set commands
/// cycling through the relation's rows.
fn tenant_lines(tenants: usize, edits: usize, num_rows: usize) -> Vec<Vec<String>> {
    (0..tenants)
        .map(|t| {
            (0..edits)
                .map(|i| {
                    let row = (i * 97 + t * 31) % num_rows;
                    format!(
                        "{{\"tenant\":\"t{t}\",\"op\":\"set\",\"row\":{row},\
                         \"attr\":\"city\",\"value\":\"Springfield {i}\"}}"
                    )
                })
                .collect()
        })
        .collect()
}

struct RunResult {
    edits_per_sec: f64,
}

/// One measured run: open `tenants` clones of `base`, feed every tenant
/// `edits` commands round-robin, time submit-to-drain.
fn run_case(base: &DeltaEngine, tenants: usize, edits: usize, coalesce: bool) -> RunResult {
    let server = Server::new(
        ServerOptions {
            workers: 0, // the machine's parallelism, as `pfd serve` defaults
            coalesce,
            ..ServerOptions::default()
        },
        Arc::new(NoProtocolOpens),
        Arc::new(NullSink),
    );
    for t in 0..tenants {
        let engine = base.clone();
        server
            .open_with(&format!("t{t}"), move || Ok(engine))
            .unwrap();
    }
    server.drain();
    let lines = tenant_lines(tenants, edits, base.relation().num_rows());
    let t0 = Instant::now();
    for step in 0..edits {
        for tenant_lines in &lines {
            server.submit(&tenant_lines[step]);
        }
    }
    server.drain();
    let secs = t0.elapsed().as_secs_f64();
    black_box(server.shutdown());
    RunResult {
        edits_per_sec: (tenants * edits) as f64 / secs.max(1e-9),
    }
}

fn bench_serve(c: &mut Criterion) {
    let base = workload_engine(2_000);
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    for tenants in TENANT_COUNTS {
        group.bench_with_input(
            BenchmarkId::new("edits_round_robin", tenants),
            &tenants,
            |b, &tenants| b.iter(|| black_box(run_case(&base, tenants, 200, false))),
        );
    }
    group.bench_function("edits_coalesced_8_tenants", |b| {
        b.iter(|| black_box(run_case(&base, 8, 200, true)))
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_serve.json
// ---------------------------------------------------------------------------

fn write_bench_json(smoke: bool) {
    let (rows, edits) = if smoke { (300, 300) } else { (2_000, 3_000) };
    let base = workload_engine(rows);

    struct Case {
        tenants: usize,
        plain: RunResult,
        coalesced: RunResult,
    }
    let cases: Vec<Case> = TENANT_COUNTS
        .iter()
        .map(|&tenants| Case {
            tenants,
            plain: run_case(&base, tenants, edits, false),
            coalesced: run_case(&base, tenants, edits, true),
        })
        .collect();
    let solo = cases[0].plain.edits_per_sec;

    let mut json = String::from("{\n  \"schema_version\": 2,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    // Fixed reference point: the single-tenant session loop this server
    // replaces — scaling_x is measured against the 1-tenant plain run.
    json.push_str(
        "  \"reference\": {\"label\": \"single-tenant session loop (1 tenant, no coalescing)\", \
         \"metric\": \"edits_per_sec\"},\n",
    );
    let _ = writeln!(
        json,
        "  \"workload\": {{\"table\": \"geo_cascade\", \"rows\": {rows}, \
         \"error_rate\": {ERROR_RATE}, \"rules\": 2, \"edits_per_tenant\": {edits}}},"
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"tenants\": {}, \"edits_per_sec\": {:.0}, \
             \"coalesced_edits_per_sec\": {:.0}, \"scaling_x\": {:.2}}}",
            c.tenants,
            c.plain.edits_per_sec,
            c.coalesced.edits_per_sec,
            c.plain.edits_per_sec / solo.max(1e-9),
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_serve.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    for c in &cases {
        println!(
            "tenants {}: {:>9.0} edits/s plain, {:>9.0} edits/s coalesced ({:.2}x vs solo)",
            c.tenants,
            c.plain.edits_per_sec,
            c.coalesced.edits_per_sec,
            c.plain.edits_per_sec / solo.max(1e-9),
        );
    }
}

criterion_group!(benches, bench_serve);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
