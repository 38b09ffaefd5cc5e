//! The workloads as one plan shape: a dirty table the batch commands run
//! on, the rules `check`/`repair`/`serve` use, the serve tenants with their
//! edits, and the in-process oracles every output is checked against.

use crate::inputs::{self, BatchInput, SetEdit};
use pfd_core::{
    detect_errors, display_with_schema, parse_rules, to_rules_string, DeltaEngine, Pfd,
    RepairEngine, RepairOptions,
};
use pfd_datagen::{geo_cascade_table, GroundTruthDep};
use pfd_discovery::{discover, DiscoveryConfig};
use pfd_relation::Relation;
use std::path::{Path, PathBuf};

pub const WORKLOADS: [&str; 2] = ["geo_pipeline", "serve_mixed"];

/// The (K, δ) settings of the warm sweep; the first is the default, so its
/// warm output must also equal the cold run's.
pub const SWEEP: [(usize, f64); 3] = [(5, 0.05), (10, 0.05), (5, 0.10)];

/// One serve tenant.
pub struct Tenant {
    pub name: String,
    /// The `open` command line.
    pub open: String,
    /// The engine the tenant starts from.
    pub initial: DeltaEngine,
    /// Its `set` edits, sent in order and cycled when more are needed.
    pub edits: Vec<SetEdit>,
    /// Share of the command stream relative to the other tenants.
    pub weight: usize,
}

/// One command of a serve run.
pub struct Cmd {
    pub tenant: usize,
    /// `None` for a `check` op.
    pub edit: Option<usize>,
    pub line: String,
}

/// How many times one round of the timed phase runs each command. Rounds
/// repeat for the whole run, so every metric's samples spread over it;
/// short commands run more often, so that more of their runs fall in the
/// fast spells of a shared machine.
pub struct Reps {
    pub discover: usize,
    pub check: usize,
    pub repair: usize,
}

/// Everything a run of one workload needs, prepared before timing starts.
pub struct Plan {
    pub workload: &'static str,
    pub dir: PathBuf,
    pub batch: BatchInput,
    /// Rule file `check` and `repair` read.
    pub rules_file: String,
    /// Hand-written rule file the serve tenants open with.
    pub serve_rules_file: String,
    /// `serve_mixed` reports the tenant opens as its set-up; the batch
    /// workloads report the `discover --snapshot` run.
    pub setup_is_serve: bool,
    pub tenants: Vec<Tenant>,
    pub reps: Reps,
    /// Edit commands in one scripted serve run.
    pub script_sets: usize,
    /// A `check` op follows every this many sets of a tenant.
    pub check_every: usize,
    /// Open-loop offered rate (commands per second) and the edits of one
    /// round's open loop.
    pub rate: f64,
    pub latency_sets: usize,
    // Oracles.
    /// The rule file `discover --rules` must write.
    pub expect_rules_text: String,
    /// The dependency lines every `discover` at default settings prints.
    pub expect_dep_lines: Vec<String>,
    /// The dependency lines of the warm sweep's runs, one list per `SWEEP`
    /// setting, from in-process `discover` at that setting.
    pub expect_sweep_lines: Vec<Vec<String>>,
    pub discover_recall: f64,
    /// `check` suspect cells, from in-process `detect_errors`.
    pub expect_suspects: usize,
    /// The relation `repair` must write, from in-process `RepairEngine`.
    pub expect_cleaned: Relation,
}

/// The dependency lines `pfd discover` prints for `pfds` (two-space
/// indented, one per dependency).
fn dep_lines(pfds: &[Pfd], rel: &Relation) -> Vec<String> {
    pfds.iter()
        .map(|p| format!("  {}", display_with_schema(p, rel.schema())))
        .collect()
}

/// Interleave the tenants' sets by weight, with a `check` after every
/// `check_every`-th set of a tenant, until `sets` edit commands exist.
pub fn commands(tenants: &[Tenant], sets: usize, check_every: usize) -> Vec<Cmd> {
    let mut out = Vec::with_capacity(sets + sets / check_every + 1);
    let mut sent = vec![0usize; tenants.len()];
    let mut total = 0;
    while total < sets {
        for (t, tenant) in tenants.iter().enumerate() {
            for _ in 0..tenant.weight {
                if total == sets {
                    break;
                }
                let k = sent[t] % tenant.edits.len();
                out.push(Cmd {
                    tenant: t,
                    edit: Some(k),
                    line: tenant.edits[k].command(&tenant.name),
                });
                sent[t] += 1;
                total += 1;
                if sent[t].is_multiple_of(check_every) {
                    out.push(Cmd {
                        tenant: t,
                        edit: None,
                        line: format!("{{\"op\":\"check\",\"tenant\":\"{}\"}}", tenant.name),
                    });
                }
            }
        }
    }
    out
}

/// Replay `cmds` on each tenant's initial engine: final engines in tenant
/// order.
pub fn replay(tenants: &[Tenant], cmds: &[Cmd]) -> Vec<DeltaEngine> {
    let mut engines: Vec<DeltaEngine> = tenants.iter().map(|t| t.initial.clone()).collect();
    for cmd in cmds {
        if let Some(k) = cmd.edit {
            let engine = &mut engines[cmd.tenant];
            let edit = &tenants[cmd.tenant].edits[k];
            let attr = engine
                .relation()
                .schema()
                .attr(&edit.attr)
                .expect("edit attribute exists");
            engine
                .set_cell(edit.row, attr, edit.value.clone())
                .expect("edit in range");
        }
    }
    engines
}

fn recall(batch: &BatchInput, found: &[GroundTruthDep]) -> f64 {
    let hits = batch.truth.iter().filter(|d| found.contains(d)).count();
    hits as f64 / batch.truth.len() as f64
}

/// Generate the inputs of `workload` for `seed` into `dir` and compute the
/// oracles.
pub fn prepare(workload: &str, seed: u64, dir: &Path) -> Plan {
    std::fs::create_dir_all(dir).expect("create work dir");
    let (name, batch) = match workload {
        "geo_pipeline" => (
            "geo_pipeline",
            inputs::geo_batch(dir, "geo.csv", 5_000, seed),
        ),
        "serve_mixed" => (
            "serve_mixed",
            inputs::geo_batch(dir, "hot.csv", 2_000, seed.wrapping_add(1)),
        ),
        other => panic!("unknown workload {other:?}"),
    };
    let rel = &batch.dirty;

    let discovered = discover(rel, &DiscoveryConfig::default());
    let disc_pfds: Vec<Pfd> = discovered
        .dependencies
        .iter()
        .map(|d| d.pfd.clone())
        .collect();
    let expect_rules_text = to_rules_string(&disc_pfds, rel.schema());
    let found: Vec<GroundTruthDep> = discovered
        .dependencies
        .iter()
        .map(|d| {
            let (lhs, rhs) = d.embedded_names(rel);
            let lhs: Vec<&str> = lhs.iter().map(String::as_str).collect();
            GroundTruthDep::new(&lhs, &rhs)
        })
        .collect();

    let expect_sweep_lines = SWEEP
        .iter()
        .map(|&(min_support, noise_ratio)| {
            let config = DiscoveryConfig {
                min_support,
                noise_ratio,
                ..DiscoveryConfig::default()
            };
            let pfds: Vec<Pfd> = discover(rel, &config)
                .dependencies
                .into_iter()
                .map(|d| d.pfd)
                .collect();
            dep_lines(&pfds, rel)
        })
        .collect();

    let serve_mixed = name == "serve_mixed";
    // The serve tenants use hand-written rules on every workload, so what
    // a serve run costs does not hinge on which rules a seed discovers.
    let serve_pfds = inputs::chain_rules(rel);
    let serve_rules_file = "serve.pfd".to_string();
    let serve_rules_text = to_rules_string(&serve_pfds, rel.schema());
    std::fs::write(dir.join(&serve_rules_file), &serve_rules_text).expect("write serve rules");
    let (rules_file, rules_text) = if serve_mixed {
        (serve_rules_file.clone(), serve_rules_text.clone())
    } else {
        ("disc.pfd".to_string(), expect_rules_text.clone())
    };
    let pfds = parse_rules(&rules_text, rel.schema()).expect("rules parse back");

    let expect_suspects = detect_errors(rel, &pfds).unique_cells().len();
    let (outcome, _) = RepairEngine::new(rel.clone(), pfds, RepairOptions::default()).run();
    let expect_cleaned = outcome.relation;

    let tenant = |name: &str, rel: &Relation, edits: Vec<SetEdit>, weight: usize| {
        let csv = format!("{}.csv", inputs::stem(rel.schema().relation()));
        let pfds =
            parse_rules(&serve_rules_text, rel.schema()).expect("serve rules fit the tenant");
        Tenant {
            name: name.to_string(),
            open: format!("{{\"op\":\"open\",\"tenant\":\"{name}\",\"csv\":\"{csv}\"}}"),
            initial: DeltaEngine::new(rel.clone(), pfds),
            edits,
            weight,
        }
    };
    let tenants = if serve_mixed {
        let wide = inputs::write_table(dir, "wide.csv", &geo_cascade_table(20_000, seed));
        vec![
            tenant("wide", &wide, inputs::spread_edits(&wide, 40_000, seed), 4),
            tenant("hot", rel, inputs::hot_edits(rel, 10_000, seed), 1),
        ]
    } else {
        let name = inputs::stem(&batch.csv).to_string();
        vec![tenant(
            &name,
            rel,
            inputs::spread_edits(rel, 6_000, seed),
            1,
        )]
    };
    // Offered rates count commands (sets and checks) per second. They offer
    // an eighth to a fifth of each workload's scripted edit throughput on a
    // 2-vCPU host (README.md, "Open-loop rate"), low enough that a slow
    // spell of a shared host does not build a backlog. Every round runs the
    // open loop for one second.
    let (script_sets, rate, check_every, reps) = match name {
        "serve_mixed" => (
            10_000,
            1_500,
            10,
            Reps {
                discover: 6,
                check: 3,
                repair: 3,
            },
        ),
        _ => (
            4_000,
            1_000,
            5,
            Reps {
                discover: 3,
                check: 2,
                repair: 2,
            },
        ),
    };
    Plan {
        workload: name,
        dir: dir.to_path_buf(),
        expect_dep_lines: dep_lines(&disc_pfds, rel),
        expect_sweep_lines,
        discover_recall: recall(&batch, &found),
        batch,
        rules_file,
        serve_rules_file,
        setup_is_serve: serve_mixed,
        tenants,
        reps,
        script_sets,
        check_every,
        rate: rate as f64,
        latency_sets: rate,
        expect_rules_text,
        expect_suspects,
        expect_cleaned,
    }
}
