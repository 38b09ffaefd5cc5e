//! The timed legs: each drives the release `pfd` binary as its own
//! process and checks what it printed or wrote against the plan's oracles.

use crate::inputs::stem;
use crate::plan::{Cmd, Plan};
use crate::proc::{self, Exit};
use pfd_core::{DeltaEngine, RecoveryPolicy, SnapshotStore};
use pfd_relation::{read_csv_str, AttrId, Relation, StdIo};
use std::path::{Path, PathBuf};

/// One scripted serve run.
pub struct ServeRun {
    pub wall_s: f64,
    /// Edit commands in the script.
    pub sets: usize,
    /// Bytes of the edits' `delta` events, per tenant.
    pub delta_bytes: Vec<usize>,
}

/// Samples and failure accounting of one run.
#[derive(Default)]
pub struct Record {
    pub attempted: usize,
    pub failures: Vec<String>,
    pub peak_rss_mb: f64,
    pub snapshot_setup_s: Vec<f64>,
    pub serve_open_s: Vec<f64>,
    pub discover_s: Vec<f64>,
    pub discover_warm_s: Vec<f64>,
    pub check_s: Vec<f64>,
    pub repair_s: Vec<f64>,
    pub serve_runs: Vec<ServeRun>,
    pub repair_precision: f64,
    pub repair_recall: f64,
}

impl Record {
    /// Count one correctness gate; a mismatch is a failed operation.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("gate failed: {msg}");
            self.failures.push(msg);
        }
    }

    /// Run one `pfd` command in the plan's directory and check its exit
    /// code.
    fn exec(&mut self, pfd: &Path, plan: &Plan, args: &[&str], expect_code: i32) -> Exit {
        let exit = proc::run(pfd, args, &plan.dir);
        self.attempted += 1;
        self.peak_rss_mb = self.peak_rss_mb.max(exit.peak_rss_mb);
        self.gate(exit.code == expect_code, || {
            format!(
                "pfd {} exited {} (expected {expect_code}): {}",
                args.join(" "),
                exit.code,
                exit.stderr.trim()
            )
        });
        exit
    }
}

fn stdout_lines(exit: &Exit) -> Vec<&str> {
    std::str::from_utf8(&exit.stdout)
        .expect("pfd prints UTF-8")
        .lines()
        .collect()
}

/// The dependency lines of a `pfd discover` report.
fn printed_deps<'a>(lines: &[&'a str]) -> Vec<&'a str> {
    lines
        .iter()
        .copied()
        .filter(|l| l.starts_with("  "))
        .collect()
}

fn deps_match(exit: &Exit, expect: &[String]) -> bool {
    printed_deps(&stdout_lines(exit)) == expect
}

/// Cold `pfd discover T --rules disc.pfd`: output and rule file must equal
/// in-process `discover`.
pub fn discover_cold(pfd: &Path, plan: &Plan, rec: &mut Record) {
    let exit = rec.exec(
        pfd,
        plan,
        &["discover", &plan.batch.csv, "--rules", "disc.pfd"],
        0,
    );
    rec.discover_s.push(exit.wall_s);
    rec.gate(deps_match(&exit, &plan.expect_dep_lines), || {
        "cold discover output differs from in-process discover".into()
    });
    let written = std::fs::read_to_string(plan.dir.join("disc.pfd")).unwrap_or_default();
    rec.gate(written == plan.expect_rules_text, || {
        "discover --rules file differs from in-process discover".into()
    });
}

/// `pfd discover T --snapshot s.pfds` from nothing: writes the `.pfds`
/// snapshot (engine over the discovered rules) and the `.pfdi` index.
pub fn snapshot_setup(pfd: &Path, plan: &Plan, rec: &mut Record) {
    for suffix in ["", ".pfdi", ".tmp", ".pfdi.tmp"] {
        let _ = std::fs::remove_file(plan.dir.join(format!("s.pfds{suffix}")));
    }
    let exit = rec.exec(
        pfd,
        plan,
        &["discover", &plan.batch.csv, "--snapshot", "s.pfds"],
        0,
    );
    rec.snapshot_setup_s.push(exit.wall_s);
    let text = String::from_utf8_lossy(&exit.stdout);
    rec.gate(
        text.contains("index saved to") && text.contains("snapshot written to"),
        || "snapshot set-up did not save its index and snapshot".into(),
    );
    rec.gate(deps_match(&exit, &plan.expect_dep_lines), || {
        "snapshot discover output differs from in-process discover".into()
    });
}

/// One run of the warm sweep: `discover --snapshot` at one (K, δ) setting,
/// which must load the index written at set-up and print `expect`, what
/// in-process `discover` finds at that setting.
pub fn discover_warm(
    pfd: &Path,
    plan: &Plan,
    rec: &mut Record,
    (k, noise): (usize, f64),
    expect: &[String],
) {
    let (k, noise) = (k.to_string(), noise.to_string());
    let args = [
        "discover",
        &plan.batch.csv,
        "--snapshot",
        "s.pfds",
        "--min-support",
        &k,
        "--noise",
        &noise,
    ];
    let exit = rec.exec(pfd, plan, &args, 0);
    rec.discover_warm_s.push(exit.wall_s);
    rec.gate(
        String::from_utf8_lossy(&exit.stdout).contains("index: warm start"),
        || format!("warm sweep run K={k} δ={noise} did not warm-start"),
    );
    rec.gate(deps_match(&exit, expect), || {
        format!("warm discover K={k} δ={noise} differs from in-process discover")
    });
}

/// `pfd check T --rules R`: the suspect-cell count must equal in-process
/// `detect_errors`.
pub fn check(pfd: &Path, plan: &Plan, rec: &mut Record) {
    let expect_code = i32::from(plan.expect_suspects > 0);
    let args = ["check", &plan.batch.csv, "--rules", &plan.rules_file];
    let exit = rec.exec(pfd, plan, &args, expect_code);
    rec.check_s.push(exit.wall_s);
    let reported = stdout_lines(&exit)
        .last()
        .and_then(|l| l.split(' ').next())
        .and_then(|n| n.parse::<usize>().ok());
    rec.gate(reported == Some(plan.expect_suspects), || {
        format!(
            "check reported {reported:?} suspect cells, detect_errors found {}",
            plan.expect_suspects
        )
    });
}

/// `pfd repair T --rules R --out cleaned.csv`: the cleaned table must equal
/// in-process `RepairEngine` output; scores it against the clean twin.
pub fn repair(pfd: &Path, plan: &Plan, rec: &mut Record) {
    let args = [
        "repair",
        &plan.batch.csv,
        "--rules",
        &plan.rules_file,
        "--out",
        "cleaned.csv",
    ];
    let exit = rec.exec(pfd, plan, &args, 0);
    rec.repair_s.push(exit.wall_s);
    let text = std::fs::read_to_string(plan.dir.join("cleaned.csv")).unwrap_or_default();
    let cleaned = read_csv_str(stem(&plan.batch.csv), &text).ok();
    rec.gate(cleaned.as_ref() == Some(&plan.expect_cleaned), || {
        "cleaned.csv differs from in-process RepairEngine output".into()
    });
    if let Some(cleaned) = cleaned {
        let (precision, recall) = repair_quality(&plan.batch.dirty, &cleaned, &plan.batch.clean);
        rec.repair_precision = precision;
        rec.repair_recall = recall;
    }
}

/// Cell-level repair quality: of the cells `repair` changed, the share now
/// equal to the clean twin (precision); of the dirty cells, the share
/// restored (recall).
fn repair_quality(dirty: &Relation, cleaned: &Relation, clean: &Relation) -> (f64, f64) {
    let (mut changed, mut right, mut dirty_cells, mut restored) = (0usize, 0usize, 0usize, 0usize);
    for row in 0..dirty.num_rows() {
        for a in 0..dirty.schema().arity() {
            let attr = AttrId(a);
            let (d, c, truth) = (
                dirty.cell(row, attr),
                cleaned.cell(row, attr),
                clean.cell(row, attr),
            );
            if d != c {
                changed += 1;
                right += usize::from(c == truth);
            }
            if d != truth {
                dirty_cells += 1;
                restored += usize::from(c == truth);
            }
        }
    }
    (
        right as f64 / changed.max(1) as f64,
        restored as f64 / dirty_cells.max(1) as f64,
    )
}

/// A fresh, empty durable root.
pub fn fresh_root(plan: &Plan, name: &str) -> PathBuf {
    let root = plan.dir.join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).expect("create serve root");
    root
}

fn serve_args<'a>(plan: &'a Plan, root: &'a str, script: &'a str) -> [&'a str; 7] {
    let rules = plan.serve_rules_file.as_str();
    [
        "serve", "--root", root, "--rules", rules, "--script", script,
    ]
}

/// Write a serve script: every tenant's `open`, then `cmds`.
pub fn write_script(plan: &Plan, name: &str, cmds: &[Cmd]) {
    let mut text = String::new();
    for t in &plan.tenants {
        text.push_str(&t.open);
        text.push('\n');
    }
    for c in cmds {
        text.push_str(&c.line);
        text.push('\n');
    }
    std::fs::write(plan.dir.join(name), text).expect("write serve script");
}

/// Event lines of a serve run, counted by kind.
#[derive(Default)]
struct Events {
    ready: usize,
    delta: usize,
    state: usize,
    error: usize,
    /// Bytes of `delta` lines (with their newline), per tenant.
    delta_bytes: Vec<usize>,
}

fn events(stdout: &[u8], plan: &Plan) -> Events {
    let mut ev = Events {
        delta_bytes: vec![0; plan.tenants.len()],
        ..Events::default()
    };
    for line in stdout.split(|&b| b == b'\n') {
        let head = &line[..line.len().min(96)];
        let has = |pat: &[u8]| head.windows(pat.len()).any(|w| w == pat);
        if has(b"\"event\":\"delta\"") {
            ev.delta += 1;
            let text = std::str::from_utf8(head).unwrap_or("");
            if let Some(t) = crate::openloop::tag(text)
                .and_then(|(name, _)| plan.tenants.iter().position(|t| t.name == name))
            {
                ev.delta_bytes[t] += line.len() + 1;
            }
        } else if has(b"\"event\":\"state\"") {
            ev.state += 1;
        } else if has(b"\"event\":\"ready\"") {
            ev.ready += 1;
        } else if has(b"\"event\":\"error\"") {
            ev.error += 1;
        }
    }
    ev
}

/// The serve set-up: open every tenant and shut down (script of opens only).
pub fn serve_open(pfd: &Path, plan: &Plan, rec: &mut Record) {
    let root = fresh_root(plan, "root-open");
    let root = root.to_string_lossy().into_owned();
    let dirty = plan.tenants.iter().any(|t| t.initial.violation_count() > 0);
    let exit = rec.exec(
        pfd,
        plan,
        &serve_args(plan, &root, "opens.jsonl"),
        i32::from(dirty),
    );
    rec.serve_open_s.push(exit.wall_s);
    let ev = events(&exit.stdout, plan);
    rec.gate(ev.ready == plan.tenants.len() && ev.error == 0, || {
        format!(
            "serve opens: {} ready events, {} errors",
            ev.ready, ev.error
        )
    });
}

/// The scripted serve run against a fresh durable root; afterwards every
/// tenant must recover cleanly to the in-process replay of its edits.
pub fn serve_script(
    pfd: &Path,
    plan: &Plan,
    rec: &mut Record,
    cmds: &[Cmd],
    replayed: &[DeltaEngine],
) {
    let root = fresh_root(plan, "root-script");
    let root_arg = root.to_string_lossy().into_owned();
    let dirty = replayed.iter().any(|e| e.violation_count() > 0);
    let exit = rec.exec(
        pfd,
        plan,
        &serve_args(plan, &root_arg, "serve.jsonl"),
        i32::from(dirty),
    );
    let sets = cmds.iter().filter(|c| c.edit.is_some()).count();
    let checks = cmds.len() - sets;
    rec.attempted += cmds.len();
    let ev = events(&exit.stdout, plan);
    rec.gate(
        ev.ready == plan.tenants.len() && ev.delta == sets && ev.state == checks && ev.error == 0,
        || {
            format!(
                "serve script: {} ready, {}/{sets} deltas, {}/{checks} states, {} errors",
                ev.ready, ev.delta, ev.state, ev.error
            )
        },
    );
    rec.serve_runs.push(ServeRun {
        wall_s: exit.wall_s,
        sets,
        delta_bytes: ev.delta_bytes,
    });
    recovered_matches(plan, rec, &root, replayed, "serve script");
}

/// Recover each tenant's snapshot family under `root` (strict policy): the
/// report must not be degraded and the state must equal the replay.
pub fn recovered_matches(
    plan: &Plan,
    rec: &mut Record,
    root: &Path,
    replayed: &[DeltaEngine],
    what: &str,
) {
    for (t, expect) in plan.tenants.iter().zip(replayed) {
        let store = SnapshotStore::new(&StdIo, root.join(&t.name).join("state.pfds"));
        match store.recover(RecoveryPolicy::Strict, || {
            Err::<DeltaEngine, String>("no snapshot family".into())
        }) {
            Ok(recovered) => {
                rec.gate(!recovered.report.degraded(), || {
                    format!("{what}: tenant {} recovered degraded", t.name)
                });
                rec.gate(
                    recovered.engine.relation() == expect.relation()
                        && recovered.engine.violation_count() == expect.violation_count(),
                    || format!("{what}: tenant {} state differs from replay", t.name),
                );
            }
            Err(e) => rec.gate(false, || {
                format!("{what}: tenant {} does not recover: {e}", t.name)
            }),
        }
    }
}
