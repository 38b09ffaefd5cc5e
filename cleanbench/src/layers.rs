//! The traced run: time the public calls of `pfd_relation`,
//! `pfd_discovery`, `pfd_core` and `pfd_runtime` that each command is made
//! of, on the same inputs, and account for the rest of each command's wall
//! clock as its residual (process start, rule parsing, output writing and
//! anything a later change moves out of the measured calls).

use crate::inputs::stem;
use crate::legs::Record;
use crate::openloop::Latency;
use crate::plan::{Cmd, Plan};
use crate::stats::{median, min, quantile};
use crate::Metric;
use pfd_core::session::{delta_json, parse_command};
use pfd_core::{
    detect_errors, load_from_bytes_with, parse_rules, save_to_bytes, DeltaEngine, Edit, Pfd,
    RepairEngine, RepairOptions,
};
use pfd_discovery::{
    build_index, discover_warm, load_index, save_index, AttrIndex, DiscoveryConfig, IndexKey,
    IndexOptions,
};
use pfd_relation::wal::{SyncPolicy, WalWriter};
use pfd_relation::{profile_relation, read_csv, AttrId, Io, MemIo, Relation, StdIo};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions of each batch-layer call, unless the calls so far took
/// longer than `REPS_BUDGET_S`; the fastest is reported, as the commands'
/// fastest runs are, so that a residual subtracts like from like.
const REPS: usize = 3;
const REPS_BUDGET_S: f64 = 1.5;

/// Fastest wall seconds of up to `REPS` calls, and the last call's result.
fn timed<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut samples = Vec::with_capacity(REPS);
    let mut last = None;
    while samples.len() < REPS && samples.iter().sum::<f64>() < REPS_BUDGET_S {
        let t = Instant::now();
        let out = black_box(f());
        samples.push(t.elapsed().as_secs_f64());
        last = Some(out);
    }
    (min(&samples), last.expect("REPS > 0"))
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn read_table(plan: &Plan) -> Relation {
    let file = std::fs::File::open(plan.dir.join(&plan.batch.csv)).expect("open input CSV");
    read_csv(stem(&plan.batch.csv), std::io::BufReader::new(file)).expect("input CSV parses")
}

/// Per-layer metrics, with the residual of every command.
pub fn run(plan: &Plan, rec: &Record, latencies: &[Latency], script: &[Cmd]) -> Vec<Metric> {
    let config = DiscoveryConfig::default();

    // relation: CSV ingestion and profiling.
    let (read_s, rel) = timed(|| read_table(plan));
    let (profile_s, profiles) = timed(|| profile_relation(&rel));

    // discovery: the inverted index of every candidate column, then the
    // check phase over those in-memory indexes.
    let options = IndexOptions {
        substring_pruning: config.substring_pruning,
        extract: config.extract,
    };
    let candidates: Vec<_> = profiles
        .iter()
        .filter(|p| p.is_candidate())
        .map(|p| (p.attr, p.extraction))
        .collect();
    let (index_s, indexes) = timed(|| {
        candidates
            .iter()
            .map(|&(attr, extraction)| (attr, build_index(&rel, attr, extraction, &options)))
            .collect::<BTreeMap<AttrId, AttrIndex>>()
    });
    let entries: usize = indexes.values().map(|i| i.entries.len()).sum();
    // `discover_warm` consumes its indexes: copy them before the clock
    // starts, one per call, so only the check phase is timed.
    let mut copies: Vec<_> = (0..REPS).map(|_| indexes.clone()).collect();
    let (warm_wall_s, run) = timed(|| {
        let indexes = copies.pop().expect("one copy per call");
        discover_warm(&rel, &config, indexes, Duration::ZERO)
    });
    let check_s = warm_wall_s - run.result.stats.profile_time.as_secs_f64();

    // discovery.warm: persist and reload the `.pfdi`, mapped and from heap.
    let key = IndexKey::compute(&rel, &config, 0, 0);
    let index_path = plan.dir.join("layer.pfdi");
    let (save_s, _) =
        timed(|| save_index(&StdIo, &index_path, &key, &indexes).expect("save index"));
    let index_bytes = std::fs::read(&index_path).expect("read saved index");
    let (load_s, _) = timed(|| load_index(&StdIo, &index_path, &key).expect("load index"));
    let heap = MemIo::new();
    heap.write(&index_path, &index_bytes).expect("heap index");
    let (load_heap_s, _) = timed(|| load_index(&heap, &index_path, &key).expect("load heap index"));

    // core: the rule set `check`/`repair` use, and the discovered rules the
    // discover check phase audits.
    let rules = std::fs::read_to_string(plan.dir.join(&plan.rules_file)).expect("rule file");
    let pfds = parse_rules(&rules, rel.schema()).expect("rules parse");
    let discovered: Vec<Pfd> =
        parse_rules(&plan.expect_rules_text, rel.schema()).expect("discovered rules parse");
    let (audit_s, _) = timed(|| discovered.iter().map(|p| p.audit(&rel)).collect::<Vec<_>>());
    let (build_s, engine) = timed(|| DeltaEngine::new(rel.clone(), pfds.clone()));
    let (detect_s, _) = timed(|| detect_errors(&rel, &pfds));
    let mut repair_samples = Vec::new();
    let mut repair_out = (0, 0);
    while repair_samples.len() < REPS && repair_samples.iter().sum::<f64>() < REPS_BUDGET_S {
        let mut repairer = RepairEngine::from_engine(engine.clone(), RepairOptions::default());
        let t = Instant::now();
        let (outcome, passes) = repairer.run();
        repair_samples.push(t.elapsed().as_secs_f64());
        repair_out = (passes, outcome.fixes.len());
    }
    let repair_run_s = min(&repair_samples);

    // core.snapshot: the `.pfds` the warm sweep and the serve tenants load.
    let snapshot = std::fs::read(plan.dir.join("s.pfds")).expect("set-up snapshot");
    let (snap_load_s, (snap_engine, _)) =
        timed(|| load_from_bytes_with(&snapshot).expect("snapshot loads"));
    let (snap_save_s, _) = timed(|| save_to_bytes(&snap_engine));

    // serve: parse, apply, emit and WAL-append each command of the script.
    let serve = serve_layers(plan, script);

    // residuals: each command's wall clock minus the calls it is made of.
    let open_s = min(&rec.serve_open_s);
    let script_s = min(&rec.serve_runs.iter().map(|r| r.wall_s).collect::<Vec<_>>());
    let steals = latencies.last().map_or(0, |l| l.steals);
    let syncs = median(
        &latencies
            .iter()
            .map(|l| l.syncs_per_edit)
            .collect::<Vec<_>>(),
    );
    vec![
        Metric("relation.csv.read_s", read_s, "s"),
        Metric("relation.profile_s", profile_s, "s"),
        Metric("relation.wal.append_us.p50", median(&serve.wal_us), "us"),
        Metric(
            "relation.wal.append_us.p99",
            quantile(&serve.wal_us, 0.99),
            "us",
        ),
        Metric(
            "relation.wal.append_nosync_us.p50",
            median(&serve.wal_nosync_us),
            "us",
        ),
        Metric("relation.wal.fsyncs_per_edit", syncs, "count"),
        Metric("discovery.index.build_s", index_s, "s"),
        Metric("discovery.index.entries", entries as f64, "count"),
        Metric("discovery.check_s", check_s, "s"),
        Metric(
            "discovery.entries_tested",
            run.result.stats.entries_tested as f64,
            "count",
        ),
        Metric(
            "discovery.candidates",
            run.result.stats.candidates_checked as f64,
            "count",
        ),
        Metric("discovery.warm.save_s", save_s, "s"),
        Metric("discovery.warm.load_s", load_s, "s"),
        Metric("discovery.warm.load_heap_s", load_heap_s, "s"),
        Metric("discovery.warm.bytes", index_bytes.len() as f64, "B"),
        Metric("core.pfd.audit_s", audit_s, "s"),
        Metric("core.delta.build_s", build_s, "s"),
        Metric("core.detect_s", detect_s, "s"),
        Metric("core.repair.run_s", repair_run_s, "s"),
        Metric("core.repair.passes", repair_out.0 as f64, "count"),
        Metric("core.repair.fixes", repair_out.1 as f64, "count"),
        Metric("core.snapshot.save_s", snap_save_s, "s"),
        Metric("core.snapshot.load_s", snap_load_s, "s"),
        Metric("core.snapshot.bytes", snapshot.len() as f64, "B"),
        Metric("core.session.parse_us.p50", median(&serve.parse_us), "us"),
        Metric("core.delta.apply_us.p50", median(&serve.apply_us), "us"),
        Metric(
            "core.delta.apply_us.p99",
            quantile(&serve.apply_us, 0.99),
            "us",
        ),
        Metric("core.delta.events_per_edit", serve.events_per_edit, "count"),
        Metric("core.session.emit_us.p50", median(&serve.emit_us), "us"),
        Metric(
            "core.session.emit_us.p99",
            quantile(&serve.emit_us, 0.99),
            "us",
        ),
        Metric(
            "core.session.emit_bytes_per_edit",
            serve.emit_bytes_per_edit,
            "B",
        ),
        Metric("runtime.executor.steals", steals as f64, "count"),
        Metric(
            "residual.discover_s",
            min(&rec.discover_s) - (read_s + profile_s + index_s + check_s),
            "s",
        ),
        Metric(
            "residual.discover_warm_s",
            min(&rec.discover_warm_s) - (snap_load_s + load_s + profile_s + check_s),
            "s",
        ),
        Metric(
            "residual.check_s",
            min(&rec.check_s) - (read_s + build_s + detect_s),
            "s",
        ),
        Metric(
            "residual.repair_s",
            min(&rec.repair_s) - (read_s + build_s + repair_run_s),
            "s",
        ),
        Metric("residual.serve_s", script_s - open_s - serve.total_s, "s"),
    ]
}

/// Serve-layer samples over one script.
struct ServeLayers {
    parse_us: Vec<f64>,
    apply_us: Vec<f64>,
    emit_us: Vec<f64>,
    wal_us: Vec<f64>,
    wal_nosync_us: Vec<f64>,
    events_per_edit: f64,
    emit_bytes_per_edit: f64,
    /// Sum of parse + apply + emit + synced WAL append over the script.
    total_s: f64,
}

fn serve_layers(plan: &Plan, script: &[Cmd]) -> ServeLayers {
    let mut engines: Vec<DeltaEngine> = plan.tenants.iter().map(|t| t.initial.clone()).collect();
    let schemas: Vec<_> = engines
        .iter()
        .map(|e| e.relation().schema().clone())
        .collect();
    let mut s = ServeLayers {
        parse_us: Vec::with_capacity(script.len()),
        apply_us: Vec::new(),
        emit_us: Vec::new(),
        wal_us: Vec::new(),
        wal_nosync_us: Vec::new(),
        events_per_edit: 0.0,
        emit_bytes_per_edit: 0.0,
        total_s: 0.0,
    };
    let (mut events, mut bytes) = (0usize, 0usize);
    let mut parsed: Vec<Option<Edit>> = Vec::with_capacity(script.len());
    for cmd in script {
        let t = Instant::now();
        let command = parse_command(&cmd.line, &schemas[cmd.tenant]).expect("script line parses");
        s.parse_us.push(us(t.elapsed()));
        parsed.push(match command {
            pfd_core::SessionCommand::Single(edit) => Some(edit),
            _ => None,
        });
    }
    for (cmd, edit) in script.iter().zip(parsed) {
        let Some(edit) = edit else { continue };
        let engine = &mut engines[cmd.tenant];
        let t = Instant::now();
        let delta = engine.apply(edit).expect("edit applies");
        s.apply_us.push(us(t.elapsed()));
        events += delta.introduced.len() + delta.resolved.len();
        let t = Instant::now();
        let line = delta_json(&delta, engine.violation_count(), &schemas[cmd.tenant]);
        s.emit_us.push(us(t.elapsed()));
        bytes += line.len();
    }
    let edits = s.apply_us.len().max(1);
    s.events_per_edit = events as f64 / edits as f64;
    s.emit_bytes_per_edit = bytes as f64 / edits as f64;

    for (policy, out) in [
        (SyncPolicy::Always, &mut s.wal_us),
        (SyncPolicy::Never, &mut s.wal_nosync_us),
    ] {
        let path = plan.dir.join("layer-wal.log");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = WalWriter::open(&StdIo, &path, 0, policy).expect("open WAL");
        for cmd in script.iter().filter(|c| c.edit.is_some()) {
            let t = Instant::now();
            wal.append(cmd.line.as_bytes()).expect("WAL append");
            out.push(us(t.elapsed()));
        }
    }
    let sum = |v: &[f64]| v.iter().sum::<f64>() / 1e6;
    s.total_s = sum(&s.parse_us) + sum(&s.apply_us) + sum(&s.emit_us) + sum(&s.wal_us);
    s
}
