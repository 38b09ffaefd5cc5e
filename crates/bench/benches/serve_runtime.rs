//! Criterion bench for the multi-tenant session server: sustained edit
//! throughput as a function of tenant count, with and without batch
//! coalescing, in memory and durable.
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
//! The durable pass runs the same feed through `Server::durable` over the
//! real filesystem (`StdIo` in a temp directory) at 1 and 4 tenants, and
//! counts WAL syncs per edit: group commit syncs once per drained run of a
//! tenant's commands, coalescing once per merged `apply_batch`.
//!
//! Besides the criterion output, the run writes `BENCH_serve.json`.
//! `PFD_BENCH_SMOKE=1` skips criterion sampling and emits the JSON from a
//! tiny-scale pass — the CI smoke-bench mode. `PFD_BENCH_JSON` overrides
//! the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_core::server::NoProtocolOpens;
use pfd_core::{DeltaEngine, EventSink, Pfd, Server, ServerOptions};
use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile};
use pfd_relation::io::{Io, StdIo};
use pfd_relation::Relation;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tenant counts every measurement sweeps.
const TENANT_COUNTS: [usize; 3] = [1, 4, 8];
/// Tenant counts of the durable pass.
const DURABLE_TENANT_COUNTS: [usize; 2] = [1, 4];
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
    fn emit(&self, _line: String) {}
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
    /// WAL syncs per edit over the timed feed (0 in memory).
    syncs_per_edit: f64,
}

/// The real filesystem, counting syncs.
#[derive(Default)]
struct CountingIo {
    syncs: AtomicU64,
}

impl Io for CountingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        StdIo.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        StdIo.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        StdIo.append(path, data)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        StdIo.truncate(path, len)
    }
    fn sync(&self, path: &Path) -> std::io::Result<()> {
        self.syncs.fetch_add(1, Ordering::Relaxed);
        StdIo.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        StdIo.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        StdIo.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        StdIo.exists(path)
    }
    fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
        StdIo.create_dir_all(path)
    }
}

/// One measured run: open `tenants` clones of `base` (durable under a
/// fresh temp directory when `durable`), feed every tenant `edits`
/// commands round-robin, time submit-to-drain.
fn run_case(
    base: &DeltaEngine,
    tenants: usize,
    edits: usize,
    coalesce: bool,
    durable: bool,
) -> RunResult {
    let options = ServerOptions {
        workers: 0, // the machine's parallelism, as `pfd serve` defaults
        coalesce,
        ..ServerOptions::default()
    };
    let io = Arc::new(CountingIo::default());
    let root = std::env::temp_dir().join(format!(
        "pfd-serve-bench-{}-{tenants}-{coalesce}",
        std::process::id()
    ));
    let server = if durable {
        let _ = std::fs::remove_dir_all(&root);
        let io: Arc<dyn Io + Send + Sync> = io.clone();
        Server::durable(
            io,
            &root,
            options,
            Arc::new(NoProtocolOpens),
            Arc::new(NullSink),
        )
    } else {
        Server::new(options, Arc::new(NoProtocolOpens), Arc::new(NullSink))
    };
    for t in 0..tenants {
        let engine = base.clone();
        server
            .open_with(&format!("t{t}"), move || Ok(engine))
            .unwrap();
    }
    server.drain();
    let lines = tenant_lines(tenants, edits, base.relation().num_rows());
    let syncs_before = io.syncs.load(Ordering::Relaxed);
    let t0 = Instant::now();
    for step in 0..edits {
        for tenant_lines in &lines {
            server.submit(&tenant_lines[step]);
        }
    }
    server.drain();
    let secs = t0.elapsed().as_secs_f64();
    let syncs = io.syncs.load(Ordering::Relaxed) - syncs_before;
    black_box(server.shutdown());
    if durable {
        let _ = std::fs::remove_dir_all(&root);
    }
    RunResult {
        edits_per_sec: (tenants * edits) as f64 / secs.max(1e-9),
        syncs_per_edit: syncs as f64 / (tenants * edits) as f64,
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
            |b, &tenants| b.iter(|| black_box(run_case(&base, tenants, 200, false, false))),
        );
    }
    group.bench_function("edits_coalesced_8_tenants", |b| {
        b.iter(|| black_box(run_case(&base, 8, 200, true, false)))
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
    let sweep = |counts: &[usize], durable: bool| -> Vec<Case> {
        (counts.iter())
            .map(|&tenants| Case {
                tenants,
                plain: run_case(&base, tenants, edits, false, durable),
                coalesced: run_case(&base, tenants, edits, true, durable),
            })
            .collect()
    };
    let cases = sweep(&TENANT_COUNTS, false);
    let durable_cases = sweep(&DURABLE_TENANT_COUNTS, true);
    let solo = cases[0].plain.edits_per_sec;

    let mut json = String::from("{\n  \"schema_version\": 3,\n");
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
    json.push_str("  ],\n  \"durable_cases\": [\n");
    for (i, c) in durable_cases.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"tenants\": {}, \"edits_per_sec\": {:.0}, \"syncs_per_edit\": {:.3}, \
             \"coalesced_edits_per_sec\": {:.0}, \"coalesced_syncs_per_edit\": {:.3}}}",
            c.tenants,
            c.plain.edits_per_sec,
            c.plain.syncs_per_edit,
            c.coalesced.edits_per_sec,
            c.coalesced.syncs_per_edit,
        );
        json.push_str(if i + 1 < durable_cases.len() {
            ",\n"
        } else {
            "\n"
        });
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
    for c in &durable_cases {
        println!(
            "durable tenants {}: {:>9.0} edits/s plain ({:.3} syncs/edit), \
             {:>9.0} edits/s coalesced ({:.3} syncs/edit)",
            c.tenants,
            c.plain.edits_per_sec,
            c.plain.syncs_per_edit,
            c.coalesced.edits_per_sec,
            c.coalesced.syncs_per_edit,
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
