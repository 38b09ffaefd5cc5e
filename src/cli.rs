//! The `pfd` command-line tool: profile, discover, check and repair CSV
//! tables with pattern functional dependencies.
//!
//! ```text
//! pfd profile  data.csv
//! pfd discover data.csv [--min-support K] [--noise D] [--coverage G]
//!                       [--max-lhs N] [--rules out.pfd] [--review]
//! pfd check    data.csv --rules rules.pfd [--json]
//! pfd repair   data.csv --rules rules.pfd [--max-passes N] [--explain]
//!                       [--out cleaned.csv] [--json]
//! pfd session  data.csv --rules rules.pfd [--script edits.jsonl]
//! pfd serve    [data.csv] [--rules rules.pfd] [--root state/] [--workers N]
//!              [--max-resident N] [--coalesce] [--script cmds.jsonl]
//! ```
//!
//! Rule files use the [`pfd_core::rules`] line format. All command logic is
//! in library functions writing to a generic sink, so the whole surface is
//! unit-testable without spawning processes. Each command accepts only its
//! own flags; any other flag is a usage error naming it. `repair` chases
//! the fixpoint with the delta-driven [`RepairEngine`]; `--explain` prints
//! each fix's score breakdown and the candidates it beat. `session` runs
//! one [`pfd_core::Session`] — the JSONL steward loop every `serve` tenant
//! also runs — over stdin (or `--script`); `--json` switches
//! `check`/`repair` to the same machine-readable serialization the session
//! protocol streams.

use pfd_core::session::json;
use pfd_core::{
    check_report_json, detect_errors, display_with_schema, parse_rules, repair_outcome_json,
    to_rules_string, ChannelSink, DeltaEngine, LineReader, Pfd, RecoverFailure, RecoveryPolicy,
    RepairEngine, RepairOptions, Server, ServerOptions, Session, SessionStore, SnapshotError,
    SnapshotStore, TenantLoader, DEFAULT_TENANT,
};
use pfd_discovery::{discover, discover_persistent, review_queue, DiscoveryConfig};
use pfd_relation::io::StdIo;
use pfd_relation::{profile_relation, read_csv, write_csv_string, Relation};
use std::fmt;
use std::io::{BufRead, Write};
use std::sync::{mpsc, Arc};

/// CLI errors, each mapping to a non-zero exit code and a message.
#[derive(Debug)]
pub enum CliError {
    Usage(String),
    Io(std::io::Error),
    Csv(pfd_relation::CsvError),
    Rules(pfd_core::RuleError),
    Snapshot(SnapshotError),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}\n\n{USAGE}"),
            CliError::Io(e) => write!(f, "I/O error: {e}"),
            CliError::Csv(e) => write!(f, "CSV error: {e}"),
            CliError::Rules(e) => write!(f, "rule error: {e}"),
            CliError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl CliError {
    /// The process exit code for this error. Success paths use 0 (clean)
    /// and 1 (dirty data found); errors get distinct codes so scripts and
    /// supervisors can react without parsing messages — see
    /// `docs/OPERATIONS.md`.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Csv(_) => 4,
            CliError::Rules(_) => 5,
            // Log corruption (7) is distinct from snapshot corruption (6):
            // the former loses recent commands, the latter whole state.
            CliError::Snapshot(SnapshotError::Log { .. }) => 7,
            CliError::Snapshot(_) => 6,
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

impl From<pfd_relation::CsvError> for CliError {
    fn from(e: pfd_relation::CsvError) -> Self {
        CliError::Csv(e)
    }
}

impl From<pfd_core::RuleError> for CliError {
    fn from(e: pfd_core::RuleError) -> Self {
        CliError::Rules(e)
    }
}

impl From<SnapshotError> for CliError {
    fn from(e: SnapshotError) -> Self {
        CliError::Snapshot(e)
    }
}

impl From<RecoverFailure<CliError>> for CliError {
    fn from(f: RecoverFailure<CliError>) -> Self {
        match f {
            RecoverFailure::Snapshot(e) => CliError::Snapshot(e),
            RecoverFailure::ColdBuild(e) => e,
        }
    }
}

pub const USAGE: &str = "\
pfd — pattern functional dependencies for data cleaning (VLDB 2020)

USAGE:
    pfd profile  <data.csv>
    pfd discover <data.csv> [--min-support K] [--noise D] [--coverage G]
                            [--max-lhs N] [--rules <out.pfd>] [--review]
                            [--snapshot <file.pfds>] [--recover strict|salvage]
    pfd check    <data.csv> [--rules <rules.pfd>] [--json]
                 [--snapshot <file.pfds>] [--recover strict|salvage]
    pfd repair   <data.csv> --rules <rules.pfd> [--max-passes N] [--explain]
                 [--out <cleaned.csv>] [--json]
    pfd session  <data.csv> [--rules <rules.pfd>] [--script <edits.jsonl>]
                 [--snapshot <file.pfds>] [--recover strict|salvage]
    pfd serve    [<data.csv>] [--rules <rules.pfd>] [--root <dir>]
                 [--workers N] [--max-resident N] [--coalesce]
                 [--script <cmds.jsonl>] [--recover strict|salvage]

OPTIONS:
    --min-support K   minimum records per pattern (default 5)
    --noise D         allowed violation ratio δ in [0,1] (default 0.05)
    --coverage G      minimum coverage fraction γ in [0,1] (default 0.10)
    --max-lhs N       maximum LHS attributes (default 1)
    --rules FILE      rule file to write (discover) or read (check/repair/session)
    --review          print the human-review queue instead of raw rules
    --max-passes N    fixpoint pass cap for repair (default 10)
    --explain         print each fix's score breakdown and beaten candidates
    --out FILE        where repair writes the cleaned CSV (default stdout;
                      with --json the CSV is only written when --out is given)
    --json            emit machine-readable JSON reports (check/repair)
    --script FILE     JSONL edit script for session (default: read stdin)
    --snapshot FILE   binary engine snapshot: recovered when FILE or
                      FILE.prev exists (CSV is not re-read; --rules becomes
                      optional), written otherwise. Recovery replays the
                      checksummed delta log FILE.log, which session also
                      appends to, so an interrupted session resumes
                      losslessly
    --recover P       recovery policy for --snapshot state (default salvage):
                      salvage walks the fallback ladder (current snapshot →
                      FILE.prev → rebuild) and replays the valid log prefix;
                      strict errors instead of discarding anything
    --root DIR        serve: durable root; each tenant persists a snapshot
                      family under DIR/<tenant>/ and survives restarts.
                      Without it the server is in-memory only
    --workers N       serve: executor worker threads, at most 1024
                      (default: the machine's parallelism)
    --max-resident N  serve: with --root, keep at most N tenant engines in
                      memory; cold tenants are checkpointed and evicted,
                      then rebuilt from their snapshots on the next command
    --coalesce        serve: merge consecutive queued edits per tenant into
                      one batch reconciliation (one delta event answers the
                      whole run, carrying \"coalesced\":k)

serve speaks the session JSONL protocol with an optional \"tenant\" routing
field plus {\"op\":\"open\"}/{\"op\":\"close\"}/{\"op\":\"list\"}; commands
without a tenant field route to the tenant named \"default\", which is
auto-opened when <data.csv> is given. Every event line is tagged with
\"tenant\" and a per-tenant \"seq\". open takes \"csv\" and \"rules\" fields
(--rules is the default rule file)";

/// The most executor threads `pfd serve --workers` starts. A larger value
/// is a usage error, so a typo cannot spawn tens of thousands of threads.
const MAX_WORKERS: usize = 1024;

/// The flags each command accepts, each marked with whether it takes a
/// value. Any other flag is a usage error naming it.
const COMMAND_FLAGS: &[(&str, &[(&str, bool)])] = &[
    ("profile", &[]),
    (
        "discover",
        &[
            ("min-support", true),
            ("noise", true),
            ("coverage", true),
            ("max-lhs", true),
            ("rules", true),
            ("review", false),
            ("snapshot", true),
            ("recover", true),
        ],
    ),
    (
        "check",
        &[
            ("rules", true),
            ("json", false),
            ("snapshot", true),
            ("recover", true),
        ],
    ),
    (
        "repair",
        &[
            ("rules", true),
            ("max-passes", true),
            ("explain", false),
            ("out", true),
            ("json", false),
        ],
    ),
    (
        "session",
        &[
            ("rules", true),
            ("script", true),
            ("snapshot", true),
            ("recover", true),
        ],
    ),
    (
        "serve",
        &[
            ("rules", true),
            ("root", true),
            ("workers", true),
            ("max-resident", true),
            ("coalesce", false),
            ("script", true),
            ("recover", true),
        ],
    ),
];

/// Parsed command line.
#[derive(Debug, Clone)]
enum Command {
    Profile {
        data: String,
    },
    Discover {
        data: String,
        config: DiscoveryConfig,
        rules_out: Option<String>,
        review: bool,
        snapshot: Option<String>,
        recover: RecoveryPolicy,
    },
    Check {
        data: String,
        rules: Option<String>,
        json: bool,
        snapshot: Option<String>,
        recover: RecoveryPolicy,
    },
    Repair {
        data: String,
        rules: String,
        out: Option<String>,
        json: bool,
        max_passes: usize,
        explain: bool,
    },
    Session {
        data: String,
        rules: Option<String>,
        script: Option<String>,
        snapshot: Option<String>,
        recover: RecoveryPolicy,
    },
    Serve {
        data: Option<String>,
        rules: Option<String>,
        root: Option<String>,
        script: Option<String>,
        workers: usize,
        max_resident: usize,
        coalesce: bool,
        recover: RecoveryPolicy,
    },
}

fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let cmd = it
        .next()
        .ok_or_else(|| CliError::Usage("missing command".into()))?;
    let accepted = COMMAND_FLAGS
        .iter()
        .find(|(name, _)| name == cmd)
        .map(|(_, flags)| *flags)
        .ok_or_else(|| CliError::Usage(format!("unknown command {cmd:?}")))?;
    let mut positional: Vec<String> = Vec::new();
    let mut flags: Vec<(String, Option<String>)> = Vec::new();
    let rest: Vec<&String> = it.collect();
    let mut i = 0;
    while i < rest.len() {
        let a = rest[i];
        if let Some(name) = a.strip_prefix("--") {
            let takes_value = accepted
                .iter()
                .find(|(flag, _)| *flag == name)
                .map(|&(_, takes_value)| takes_value)
                .ok_or_else(|| CliError::Usage(format!("{cmd} does not accept --{name}")))?;
            if takes_value {
                let v = rest
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage(format!("--{name} needs a value")))?;
                flags.push((name.to_string(), Some(v.to_string())));
                i += 2;
            } else {
                flags.push((name.to_string(), None));
                i += 1;
            }
        } else {
            positional.push(a.to_string());
            i += 1;
        }
    }
    let flag = |name: &str| -> Option<&str> {
        flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    };
    let has_flag = |name: &str| flags.iter().any(|(n, _)| n == name);
    // Every command but `serve` requires the positional CSV; a server can
    // start empty and open tenants over the protocol.
    let data = positional.first().cloned();
    let require_data = || -> Result<String, CliError> {
        data.clone()
            .ok_or_else(|| CliError::Usage("missing <data.csv>".into()))
    };

    let parse_f64 = |name: &str, v: &str| -> Result<f64, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(format!("--{name}: not a number: {v}")))
    };
    let parse_usize = |name: &str, v: &str| -> Result<usize, CliError> {
        v.parse()
            .map_err(|_| CliError::Usage(format!("--{name}: not an integer: {v}")))
    };
    let recover_policy = || -> Result<RecoveryPolicy, CliError> {
        match flag("recover") {
            None | Some("salvage") => Ok(RecoveryPolicy::Salvage),
            Some("strict") => Ok(RecoveryPolicy::Strict),
            Some(other) => Err(CliError::Usage(format!(
                "--recover must be strict or salvage, got {other:?}"
            ))),
        }
    };

    match cmd.as_str() {
        "profile" => Ok(Command::Profile {
            data: require_data()?,
        }),
        "discover" => {
            let mut config = DiscoveryConfig::default();
            if let Some(v) = flag("min-support") {
                config.min_support = parse_usize("min-support", v)?;
            }
            if let Some(v) = flag("noise") {
                config.noise_ratio = parse_f64("noise", v)?;
                if !(0.0..=1.0).contains(&config.noise_ratio) {
                    return Err(CliError::Usage("--noise must be in [0,1]".into()));
                }
            }
            if let Some(v) = flag("coverage") {
                config.min_coverage = parse_f64("coverage", v)?;
                if !(0.0..=1.0).contains(&config.min_coverage) {
                    return Err(CliError::Usage("--coverage must be in [0,1]".into()));
                }
            }
            if let Some(v) = flag("max-lhs") {
                config.max_lhs = parse_usize("max-lhs", v)?.max(1);
            }
            Ok(Command::Discover {
                data: require_data()?,
                config,
                rules_out: flag("rules").map(str::to_string),
                review: has_flag("review"),
                snapshot: flag("snapshot").map(str::to_string),
                recover: recover_policy()?,
            })
        }
        "check" => Ok(Command::Check {
            data: require_data()?,
            rules: flag("rules").map(str::to_string),
            json: has_flag("json"),
            snapshot: flag("snapshot").map(str::to_string),
            recover: recover_policy()?,
        }),
        "repair" => Ok(Command::Repair {
            data: require_data()?,
            rules: flag("rules")
                .map(str::to_string)
                .ok_or_else(|| CliError::Usage("repair needs --rules".into()))?,
            out: flag("out").map(str::to_string),
            json: has_flag("json"),
            max_passes: match flag("max-passes") {
                None => 10,
                Some(v) => parse_usize("max-passes", v)?.max(1),
            },
            explain: has_flag("explain"),
        }),
        "session" => Ok(Command::Session {
            data: require_data()?,
            rules: flag("rules").map(str::to_string),
            script: flag("script").map(str::to_string),
            snapshot: flag("snapshot").map(str::to_string),
            recover: recover_policy()?,
        }),
        "serve" => Ok(Command::Serve {
            data,
            rules: flag("rules").map(str::to_string),
            root: flag("root").map(str::to_string),
            script: flag("script").map(str::to_string),
            workers: match flag("workers") {
                None => 0,
                Some(v) => match parse_usize("workers", v)? {
                    n if n > MAX_WORKERS => {
                        return Err(CliError::Usage(format!(
                            "--workers must be at most {MAX_WORKERS}, got {n}"
                        )))
                    }
                    n => n,
                },
            },
            max_resident: match flag("max-resident") {
                None => 0,
                Some(v) => parse_usize("max-resident", v)?,
            },
            coalesce: has_flag("coalesce"),
            recover: recover_policy()?,
        }),
        other => unreachable!("{other:?} is listed in COMMAND_FLAGS"),
    }
}

fn load_relation(path: &str) -> Result<Relation, CliError> {
    let file = std::fs::File::open(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("table");
    Ok(read_csv(name, std::io::BufReader::new(file))?)
}

fn load_rules(path: &str, rel: &Relation) -> Result<Vec<Pfd>, CliError> {
    let text = std::fs::read_to_string(path)?;
    Ok(parse_rules(&text, rel.schema())?)
}

/// Load the CSV and the `--rules` file; without `--rules` this is a usage
/// error naming the command.
fn load_inputs(
    data: &str,
    rules: Option<&str>,
    command: &str,
) -> Result<(Relation, Vec<Pfd>), CliError> {
    let rules = rules.ok_or_else(|| {
        let state = if command == "serve" {
            "--root"
        } else {
            "--snapshot"
        };
        CliError::Usage(format!("{command} needs --rules (or an existing {state})"))
    })?;
    let rel = load_relation(data)?;
    let pfds = load_rules(rules, &rel)?;
    Ok((rel, pfds))
}

/// Rebuild the engine from its original inputs — the last rung of the
/// recovery ladder, and the whole ladder when no `--snapshot` is in play.
fn cold_build(data: &str, rules: Option<&str>, command: &str) -> Result<DeltaEngine, CliError> {
    let (rel, pfds) = load_inputs(data, rules, command)?;
    Ok(DeltaEngine::new(rel, pfds))
}

/// The serving engine behind `--snapshot`: recovered through the
/// degradation ladder (current snapshot → `.prev` fallback → cold build
/// from CSV + rules) under the chosen `--recover` policy, with any
/// leftover delta log replayed. Recovered-or-rebuilt state is checkpointed
/// back so the next run starts clean.
fn obtain_engine(
    data: &str,
    rules: Option<&str>,
    path: &str,
    recover: RecoveryPolicy,
    command: &str,
) -> Result<DeltaEngine, CliError> {
    let io = StdIo;
    let store = SnapshotStore::new(&io, path);
    let recovered = store.recover(recover, || cold_build(data, rules, command))?;
    if recovered.needs_checkpoint {
        store.checkpoint(&recovered.engine, recovered.next_meta())?;
    }
    Ok(recovered.engine)
}

/// The command stream of `session`/`serve`: the `--script` file, or stdin.
/// `Send`, so `serve` can read it on a thread of its own.
fn open_script(script: Option<&str>) -> Result<Box<dyn BufRead + Send>, CliError> {
    Ok(match script {
        Some(path) => Box::new(std::io::BufReader::new(std::fs::File::open(path)?)),
        None => Box::new(std::io::BufReader::new(std::io::stdin())),
    })
}

/// Write event lines as they arrive until every sender is gone: each burst
/// of events already queued goes out through one buffer, flushed as soon
/// as the channel is empty, so no answer waits for a later one. On a
/// failed write the receiver is dropped, so later events are discarded.
fn write_events(events: mpsc::Receiver<String>, out: &mut dyn Write) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::with_capacity(64 << 10, out);
    while let Ok(event) = events.recv() {
        writeln!(out, "{event}")?;
        while let Ok(event) = events.try_recv() {
            writeln!(out, "{event}")?;
        }
        out.flush()?;
    }
    Ok(())
}

/// Cold-builds serve tenants from the `open` command's `"csv"` and
/// `"rules"` fields (`--rules` is the fallback rule file). Only consulted
/// when no snapshot family exists for the tenant under `--root`.
struct FileTenantLoader {
    default_rules: Option<String>,
}

impl TenantLoader for FileTenantLoader {
    fn load(&self, name: &str, spec: &json::Value) -> Result<DeltaEngine, String> {
        let csv = spec
            .get("csv")
            .and_then(json::Value::as_str)
            .ok_or_else(|| {
                format!("tenant {name:?} has no durable state; open needs a \"csv\" field")
            })?;
        let rules = spec
            .get("rules")
            .and_then(json::Value::as_str)
            .or(self.default_rules.as_deref())
            .ok_or_else(|| format!("tenant {name:?} needs a \"rules\" field (or serve --rules)"))?;
        let rel = load_relation(csv).map_err(|e| e.to_string())?;
        let pfds = load_rules(rules, &rel).map_err(|e| e.to_string())?;
        Ok(DeltaEngine::new(rel, pfds))
    }
}

/// Run the CLI; returns the process exit code. All output goes to `out`.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<i32, CliError> {
    match parse_args(args)? {
        Command::Profile { data } => {
            let rel = load_relation(&data)?;
            writeln!(
                out,
                "{} — {} rows × {} columns",
                rel.schema(),
                rel.num_rows(),
                rel.schema().arity()
            )?;
            writeln!(
                out,
                "{:<16} {:>12} {:>9} {:>8} {:>10} {:>10}",
                "column", "kind", "distinct", "avg len", "separators", "extraction"
            )?;
            for p in profile_relation(&rel) {
                writeln!(
                    out,
                    "{:<16} {:>12} {:>9} {:>8.1} {:>9.0}% {:>10}",
                    p.name,
                    format!("{:?}", p.kind),
                    p.distinct,
                    p.avg_len,
                    p.separator_fraction * 100.0,
                    format!("{:?}", p.extraction),
                )?;
            }
            Ok(0)
        }
        Command::Discover {
            data,
            config,
            rules_out,
            review,
            snapshot,
            recover,
        } => {
            // An existing snapshot family (the path or its `.prev`)
            // replaces the CSV parse. It is recovered through the ladder,
            // replaying a crashed session's log, and checkpointed when that
            // changed it, as `check --snapshot` does. A fresh snapshot path
            // is written below with the discovered rules, so a follow-up
            // `check --snapshot` needs no --rules at all.
            let io = StdIo;
            let store = snapshot.as_deref().map(|p| SnapshotStore::new(&io, p));
            let family = store
                .as_ref()
                .filter(|s| s.path().exists() || s.prev_path().exists());
            let loaded_snapshot = family.is_some();
            // A fresh snapshot is written below with default (zero)
            // metadata, so zeros are also the right index key for it.
            let mut snap_meta = pfd_core::SnapshotMeta::default();
            let rel = match family {
                // Discovery reads no rules, so there is no cold build: a
                // family without a usable snapshot fails recovery.
                Some(store) => match store.recover(recover, || {
                    Err(CliError::Io(std::io::ErrorKind::NotFound.into()))
                }) {
                    Ok(recovered) => {
                        snap_meta = recovered.meta;
                        if recovered.needs_checkpoint {
                            snap_meta = recovered.next_meta();
                            store.checkpoint(&recovered.engine, snap_meta)?;
                        }
                        recovered.engine.into_relation()
                    }
                    // Discovery state is rebuildable from the CSV, so a
                    // salvage policy treats a bad snapshot as a cache miss.
                    Err(failure) if recover == RecoveryPolicy::Salvage => {
                        let e = CliError::from(failure);
                        writeln!(out, "warning: snapshot unusable ({e}); re-reading CSV")?;
                        load_relation(&data)?
                    }
                    Err(failure) => return Err(failure.into()),
                },
                None => load_relation(&data)?,
            };
            // With a snapshot in play, discovery runs against the sibling
            // `.pfdi` index: warm-load it when fresh, cold-build and
            // (re-)save it otherwise. The dependency output is identical
            // either way — only the phase timings move.
            let mut index_note: Option<String> = None;
            let result = match &store {
                Some(store) => {
                    let index_path = store.index_path();
                    let warm = discover_persistent(
                        &io,
                        &index_path,
                        &rel,
                        &config,
                        snap_meta.generation,
                        snap_meta.last_seq,
                    );
                    index_note = Some(if warm.result.stats.index_loaded {
                        format!(
                            "index: warm start from {} in {:?}",
                            index_path.display(),
                            warm.result.stats.index_load_time
                        )
                    } else {
                        let why = warm
                            .fallback
                            .map(|f| f.to_string())
                            .unwrap_or_else(|| "no index".to_string());
                        let tail = if warm.saved {
                            format!("; index saved to {}", index_path.display())
                        } else if let Some(e) = warm.save_error {
                            format!("; index save failed: {e}")
                        } else {
                            String::new()
                        };
                        format!("index: cold build ({why}){tail}")
                    });
                    warm.result
                }
                None => discover(&rel, &config),
            };
            writeln!(
                out,
                "{} dependencies discovered in {:?} ({} candidate pairs, {} patterns tested)",
                result.dependencies.len(),
                result.stats.elapsed,
                result.stats.candidates_checked,
                result.stats.entries_tested
            )?;
            writeln!(
                out,
                "phases: profile {:?}, index {:?} ({} entries), check {:?}",
                result.stats.profile_time,
                result.stats.index_time,
                result.stats.index_entries,
                result.stats.check_time
            )?;
            writeln!(
                out,
                "extraction: {} full-enum cells, {} automaton cells ({} mined repeats); \
                 rhs decisions: {} ({} cached)",
                result.stats.cells_full_enum,
                result.stats.cells_automaton,
                result.stats.repeat_fragments,
                result.stats.rhs_decisions,
                result.stats.rhs_cache_hits
            )?;
            if let Some(note) = index_note {
                writeln!(out, "{note}")?;
            }
            if review {
                for item in review_queue(&rel, &result.dependencies) {
                    writeln!(out, "  {}", item.summary(&rel))?;
                }
            } else {
                for dep in &result.dependencies {
                    writeln!(out, "  {}", display_with_schema(&dep.pfd, rel.schema()))?;
                }
            }
            if let Some(path) = rules_out {
                let pfds: Vec<Pfd> = result.dependencies.iter().map(|d| d.pfd.clone()).collect();
                std::fs::write(&path, to_rules_string(&pfds, rel.schema()))?;
                writeln!(out, "rules written to {path}")?;
            }
            if let (Some(store), false) = (&store, loaded_snapshot) {
                let pfds: Vec<Pfd> = result.dependencies.iter().map(|d| d.pfd.clone()).collect();
                store.save_fresh(&DeltaEngine::new(rel, pfds))?;
                writeln!(out, "snapshot written to {}", store.path().display())?;
            }
            Ok(0)
        }
        Command::Check {
            data,
            rules,
            json,
            snapshot,
            recover,
        } => {
            // Only `--snapshot` needs the serving engine (its recovery
            // ladder checkpoints one); a plain check detects straight from
            // the loaded CSV and rules.
            let (engine, inputs);
            let (rel, pfds): (&Relation, &[Pfd]) = match snapshot.as_deref() {
                Some(path) => {
                    engine = obtain_engine(&data, rules.as_deref(), path, recover, "check")?;
                    (engine.relation(), engine.pfds())
                }
                None => {
                    inputs = load_inputs(&data, rules.as_deref(), "check")?;
                    (&inputs.0, &inputs.1)
                }
            };
            let report = detect_errors(rel, pfds);
            if json {
                writeln!(out, "{}", check_report_json(&report, rel))?;
                return Ok(if report.is_clean() { 0 } else { 1 });
            }
            for flag in &report.flags {
                let attr_name = rel.schema().name_of(flag.attr).unwrap_or("?");
                writeln!(
                    out,
                    "row {} {}: {:?}{}",
                    flag.row + 1,
                    attr_name,
                    flag.current,
                    match &flag.suggestion {
                        Some(s) => format!(" (suggest {s:?})"),
                        None => String::new(),
                    }
                )?;
            }
            writeln!(
                out,
                "{} suspect cells across {} rules",
                report.unique_cells().len(),
                pfds.len()
            )?;
            // Dirty data → exit code 1, like grep.
            Ok(if report.is_clean() { 0 } else { 1 })
        }
        Command::Repair {
            data,
            rules,
            out: out_path,
            json,
            max_passes,
            explain,
        } => {
            let rel = load_relation(&data)?;
            let pfds = load_rules(&rules, &rel)?;
            let options = RepairOptions {
                max_passes,
                ..RepairOptions::default()
            };
            // The engine owns its state — move the loaded relation and
            // rules in rather than cloning them.
            let (outcome, passes) = RepairEngine::new(rel, pfds, options).run();
            if json {
                writeln!(out, "{}", repair_outcome_json(&outcome, passes))?;
                if let Some(path) = out_path {
                    std::fs::write(&path, write_csv_string(&outcome.relation))?;
                }
                return Ok(0);
            }
            writeln!(
                out,
                "{} fixes applied in {} passes, {} suspects left unrepaired",
                outcome.fixes.len(),
                passes,
                outcome.unrepaired.len()
            )?;
            for fix in &outcome.fixes {
                let attr_name = outcome.relation.schema().name_of(fix.attr).unwrap_or("?");
                writeln!(
                    out,
                    "row {} {}: {:?} → {:?}",
                    fix.row + 1,
                    attr_name,
                    fix.old,
                    fix.new
                )?;
                if explain {
                    writeln!(
                        out,
                        "    pfd {} tableau row {} — score {:.3} \
                         (support {:.2}, confidence {:.2}, cascade depth {})",
                        fix.pfd_index,
                        fix.tableau_row,
                        fix.score.total,
                        fix.score.support,
                        fix.score.confidence,
                        fix.score.depth
                    )?;
                    for c in &fix.competitors {
                        writeln!(
                            out,
                            "    beat pfd {} tableau row {} suggesting {:?} — score {:.3} \
                             (support {:.2}, confidence {:.2})",
                            c.pfd_index,
                            c.tableau_row,
                            c.suggestion,
                            c.score.total,
                            c.score.support,
                            c.score.confidence
                        )?;
                    }
                }
            }
            let csv = write_csv_string(&outcome.relation);
            match out_path {
                Some(path) => {
                    std::fs::write(&path, csv)?;
                    writeln!(out, "cleaned table written to {path}")?;
                }
                None => out.write_all(csv.as_bytes())?,
            }
            Ok(0)
        }
        Command::Session {
            data,
            rules,
            script,
            snapshot,
            recover,
        } => {
            let input = open_script(script.as_deref())?;
            // With --snapshot: recover (replaying any crashed session's
            // log), serve with every applied command fsynced to the delta
            // log, checkpoint at EOF. Without it all of that is a no-op.
            let store = snapshot.map(|path| SessionStore {
                io: Arc::new(StdIo),
                path: path.into(),
                policy: recover,
            });
            let (mut session, recovered) = Session::open(store, RepairOptions::default(), || {
                cold_build(&data, rules.as_deref(), "session")
            })?;
            if let Some(line) = recovered {
                writeln!(out, "{line}")?;
            }
            session.serve(input, out)?;
            session.checkpoint()?;
            // Dirty end state → exit code 1, matching `check`.
            Ok(i32::from(session.summary().violations > 0))
        }
        Command::Serve {
            data,
            rules,
            root,
            script,
            workers,
            max_resident,
            coalesce,
            recover,
        } => {
            let mut input = LineReader::new(open_script(script.as_deref())?);
            let (tx, rx) = mpsc::channel();
            let sink = Arc::new(ChannelSink::new(tx));
            let loader = Arc::new(FileTenantLoader {
                default_rules: rules.clone(),
            });
            let options = ServerOptions {
                workers,
                max_resident,
                coalesce,
                repair: RepairOptions::default(),
                recovery: recover,
            };
            let server = match &root {
                Some(dir) => Server::durable(Arc::new(StdIo), dir, options, loader, sink),
                None => Server::new(options, loader, sink),
            };
            // Backward compatibility: with a positional CSV the tenant
            // named "default" is opened up front, so a v1 single-tenant
            // script (no tenant fields anywhere) just works. The CSV and
            // rules are read only when `--root` holds no state for it; a
            // failed cold build is this command's error, returned before
            // any event is printed.
            if let Some(data) = data {
                let (failed, failure) = mpsc::channel();
                server
                    .open_with(DEFAULT_TENANT, move || {
                        cold_build(&data, rules.as_deref(), "serve").map_err(|e| {
                            let message = e.to_string();
                            let _ = failed.send(e);
                            message
                        })
                    })
                    .map_err(CliError::Usage)?;
                server.drain_report();
                if let Ok(e) = failure.try_recv() {
                    return Err(e);
                }
            }
            // A scoped thread reads and submits lines, and shuts the server
            // down at end of input, which drops the last event sender. This
            // thread writes each event as drain jobs produce it, so a
            // terminal or a pipe gets every answer without first sending
            // the next line. Ordering within a tenant is fixed by its seq
            // numbers, not arrival time.
            let (exits, written) = std::thread::scope(|scope| {
                let reader = scope.spawn(move || {
                    while let Some(line) = input.next_line()? {
                        match line {
                            Ok(line) => server.submit(line),
                            Err(unreadable) => server.reject(&unreadable),
                        }
                    }
                    Ok::<_, CliError>(server.shutdown())
                });
                let written = write_events(rx, out);
                (reader.join(), written)
            });
            let exits = exits.unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
            written?;
            // Any tenant left dirty or failed by a worker panic → exit
            // code 1, matching `check`.
            Ok(
                if exits.iter().all(|e| e.summary.violations == 0 && !e.failed) {
                    0
                } else {
                    1
                },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// One test's directory, `$TMPDIR/pfd-cli-tests/<pid>-<test>`, removed
    /// when the test passes and kept for inspection when it fails.
    struct TestDir(std::path::PathBuf);

    impl TestDir {
        fn new(test: &str) -> Self {
            let dir = std::env::temp_dir()
                .join("pfd-cli-tests")
                .join(format!("{}-{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TestDir(dir)
        }

        /// Write `content` to the file `name` in the directory; its path.
        fn file(&self, name: &str, content: impl AsRef<[u8]>) -> String {
            let path = self.path(name);
            std::fs::write(&path, content).unwrap();
            path
        }

        /// The path of `name` in the directory, with no file there (for
        /// snapshot creation).
        fn path(&self, name: &str) -> String {
            let path = self.0.join(name);
            let _ = std::fs::remove_file(&path);
            path.to_string_lossy().into_owned()
        }
    }

    impl Drop for TestDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    fn run_capture(args: &[&str]) -> (i32, String) {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&args, &mut buf).unwrap();
        (code, String::from_utf8(buf).unwrap())
    }

    const ZIP_CSV: &str = "zip,city\n90001,Los Angeles\n90002,Los Angeles\n90003,Los Angeles\n90004,Los Angeles\n90005,Los Angeles\n60601,Chicago\n60602,Chicago\n60603,Chicago\n60604,Chicago\n60605,New York\n";

    #[test]
    fn profile_command() {
        let dir = TestDir::new("profile_command");
        let data = dir.file("profile.csv", ZIP_CSV);
        let (code, output) = run_capture(&["profile", &data]);
        assert_eq!(code, 0);
        assert!(output.contains("zip"), "{output}");
        assert!(output.contains("Code"), "zip column is code-like: {output}");
    }

    #[test]
    fn discover_writes_rules_and_check_finds_the_error() {
        let dir = TestDir::new("discover_writes_rules_and_check_finds_the_error");
        let data = dir.file("discover.csv", ZIP_CSV);
        let rules = dir.file("rules.pfd", "");
        let (code, output) = run_capture(&[
            "discover",
            &data,
            "--min-support",
            "3",
            "--noise",
            "0.2",
            "--rules",
            &rules,
        ]);
        assert_eq!(code, 0);
        assert!(output.contains("dependencies discovered"), "{output}");

        let (code, output) = run_capture(&["check", &data, "--rules", &rules]);
        assert_eq!(code, 1, "dirty data exits 1: {output}");
        assert!(output.contains("New York"), "{output}");
    }

    #[test]
    fn repair_fixes_the_typo() {
        let dir = TestDir::new("repair_fixes_the_typo");
        let data = dir.file("repair.csv", ZIP_CSV);
        let rules_path = dir.file(
            "repair-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        // The rule file uses relation name "Zip" but the loaded relation is
        // named after the file; relation names are informational, schemas
        // bind by attribute name.
        let cleaned = dir.file("cleaned.csv", "");
        let (code, output) =
            run_capture(&["repair", &data, "--rules", &rules_path, "--out", &cleaned]);
        assert_eq!(code, 0);
        assert!(output.contains("1 fixes applied"), "{output}");
        let result = std::fs::read_to_string(&cleaned).unwrap();
        assert!(!result.contains("New York"), "{result}");
    }

    #[test]
    fn repair_engines_agree_and_explain_shows_scores() {
        let dir = TestDir::new("repair_engines_agree_and_explain_shows_scores");
        let data = dir.file("repair-engines.csv", ZIP_CSV);
        let rules_path = dir.file(
            "repair-engines-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        // `repair_proptests` pins the engine to the `repair_to_fixpoint`
        // oracle; here only the `--explain` rendering is checked.
        let (code, out) = run_capture(&[
            "repair",
            &data,
            "--rules",
            &rules_path,
            "--explain",
            "--out",
            &dir.file("repair-engines-e.csv", ""),
        ]);
        assert_eq!(code, 0);
        assert!(out.contains("passes"), "{out}");
        assert!(out.contains("score"), "{out}");
        assert!(out.contains("support"), "{out}");
    }

    #[test]
    fn review_flag_prints_queue() {
        let dir = TestDir::new("review_flag_prints_queue");
        let data = dir.file("review.csv", ZIP_CSV);
        let (code, output) = run_capture(&[
            "discover",
            &data,
            "--min-support",
            "3",
            "--noise",
            "0.2",
            "--review",
        ]);
        assert_eq!(code, 0);
        assert!(output.contains("score"), "{output}");
    }

    #[test]
    fn check_json_report_is_machine_readable() {
        let dir = TestDir::new("check_json_report_is_machine_readable");
        use pfd_core::session::json::{parse, Value};
        let data = dir.file("check-json.csv", ZIP_CSV);
        let rules_path = dir.file(
            "check-json-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let (code, output) = run_capture(&["check", &data, "--rules", &rules_path, "--json"]);
        assert_eq!(code, 1, "dirty data still exits 1: {output}");
        let report = parse(output.trim()).unwrap();
        assert_eq!(report.get("clean"), Some(&Value::Bool(false)));
        assert_eq!(
            report.get("suspect_cells").and_then(Value::as_index),
            Some(1)
        );
        let flags = report.get("flags").and_then(Value::as_arr).unwrap();
        assert_eq!(flags.len(), 1);
        assert_eq!(flags[0].get("row").and_then(Value::as_index), Some(9));
        assert_eq!(flags[0].get("attr").and_then(Value::as_str), Some("city"));
        assert_eq!(
            flags[0].get("suggestion").and_then(Value::as_str),
            Some("Chicago")
        );
    }

    #[test]
    fn repair_json_report_lists_fixes() {
        let dir = TestDir::new("repair_json_report_lists_fixes");
        use pfd_core::session::json::{parse, Value};
        let data = dir.file("repair-json.csv", ZIP_CSV);
        let rules_path = dir.file(
            "repair-json-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let cleaned = dir.file("repair-json-cleaned.csv", "");
        let (code, output) = run_capture(&[
            "repair",
            &data,
            "--rules",
            &rules_path,
            "--json",
            "--out",
            &cleaned,
        ]);
        assert_eq!(code, 0);
        let report = parse(output.trim()).unwrap();
        let fixes = report.get("fixes").and_then(Value::as_arr).unwrap();
        assert_eq!(fixes.len(), 1);
        assert_eq!(
            fixes[0].get("old").and_then(Value::as_str),
            Some("New York")
        );
        assert_eq!(fixes[0].get("new").and_then(Value::as_str), Some("Chicago"));
        let csv = std::fs::read_to_string(&cleaned).unwrap();
        assert!(!csv.contains("New York"), "{csv}");
    }

    #[test]
    fn session_deltas_match_batch_ground_truth() {
        let dir = TestDir::new("session_deltas_match_batch_ground_truth");
        use pfd_core::session::json::{parse, Value};
        use pfd_core::{detect_errors, parse_rules};
        use pfd_relation::read_csv_str;

        let data = dir.file("session.csv", ZIP_CSV);
        let rules_text = "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n";
        let rules_path = dir.file("session-rules.pfd", rules_text);
        // Fix the typo, then break a fresh cell, then append a conforming
        // row and delete one — a steward's round trip.
        let script = concat!(
            "{\"op\":\"set\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}\n",
            "{\"op\":\"set\",\"row\":0,\"attr\":\"city\",\"value\":\"San Diego\"}\n",
            "{\"op\":\"batch\",\"edits\":[",
            "{\"op\":\"insert\",\"cells\":[\"60606\",\"Chicago\"]},",
            "{\"op\":\"delete\",\"row\":0}]}\n",
        );
        let script_path = dir.file("session-script.jsonl", script);
        let (code, output) = run_capture(&[
            "session",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script_path,
        ]);
        assert_eq!(code, 0, "end state is clean: {output}");
        let lines: Vec<&str> = output.lines().collect();
        assert_eq!(lines.len(), 4, "ready + 3 deltas: {output}");

        // Replay the streamed deltas onto the ready-state violation set; the
        // result must exactly match a batch check of the final relation.
        let mut live: Vec<String> = Vec::new();
        let ready = parse(lines[0]).unwrap();
        for v in ready.get("state").and_then(Value::as_arr).unwrap() {
            live.push(violation_fingerprint(v));
        }
        for line in &lines[1..] {
            let event = parse(line).unwrap();
            assert_eq!(event.get("event").and_then(Value::as_str), Some("delta"));
            for v in event.get("resolved").and_then(Value::as_arr).unwrap() {
                let fp = violation_fingerprint(v);
                let pos = live.iter().position(|x| *x == fp);
                assert!(pos.is_some(), "resolved unknown violation {fp}: {line}");
                live.remove(pos.unwrap());
            }
            for v in event.get("introduced").and_then(Value::as_arr).unwrap() {
                live.push(violation_fingerprint(v));
            }
        }

        // Ground truth: apply the same edits to the relation and batch-check.
        let mut rel = read_csv_str("session", ZIP_CSV).unwrap();
        let city = rel.schema().attr("city").unwrap();
        rel.set_cell(9, city, "Chicago".into()).unwrap();
        rel.set_cell(0, city, "San Diego".into()).unwrap();
        rel.push_row(vec!["60606".into(), "Chicago".into()])
            .unwrap();
        rel.delete_row(0).unwrap();
        let pfds = parse_rules(rules_text, rel.schema()).unwrap();
        let truth: Vec<String> = pfds
            .iter()
            .enumerate()
            .flat_map(|(pi, p)| {
                let schema = rel.schema();
                p.violations(&rel)
                    .iter()
                    .map(|v| {
                        violation_fingerprint(
                            &parse(&pfd_core::session::violation_json(pi, v, schema)).unwrap(),
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        live.sort();
        let mut truth = truth;
        truth.sort();
        assert_eq!(live, truth, "replayed deltas diverge from batch check");
        assert!(truth.is_empty(), "the script ends clean");
        assert_eq!(detect_errors(&rel, &pfds).unique_cells().len(), 0);
    }

    /// Canonical text form of a violation JSON object for set comparison.
    fn violation_fingerprint(v: &pfd_core::session::json::Value) -> String {
        use pfd_core::session::json::Value;
        let rows: Vec<String> = v
            .get("rows")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|r| r.as_index().unwrap().to_string())
            .collect();
        format!(
            "pfd{} t{} {} {} rows[{}]",
            v.get("pfd").and_then(Value::as_index).unwrap(),
            v.get("tableau_row").and_then(Value::as_index).unwrap(),
            v.get("kind").and_then(Value::as_str).unwrap(),
            v.get("attr").and_then(Value::as_str).unwrap(),
            rows.join(",")
        )
    }

    #[test]
    fn session_dirty_end_state_exits_one() {
        let dir = TestDir::new("session_dirty_end_state_exits_one");
        let data = dir.file("session-dirty.csv", ZIP_CSV);
        let rules_path = dir.file(
            "session-dirty-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let script_path = dir.file(
            "session-dirty-script.jsonl",
            "{\"op\":\"set\",\"row\":0,\"attr\":\"city\",\"value\":\"Anaheim\"}\n",
        );
        let (code, output) = run_capture(&[
            "session",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script_path,
        ]);
        assert_eq!(code, 1, "{output}");
        assert!(output.contains("\"introduced\":[{"), "{output}");
    }

    /// A cold `check` detects straight from the CSV and rules, while `check
    /// --snapshot` goes through the serving engine; both must print the same
    /// report (text and JSON) and exit with the same code. Returns that code.
    fn assert_snapshot_check_matches_cold(data: &str, rules: &str, snap: &str) -> i32 {
        let (code_cold, out_cold) = run_capture(&["check", data, "--rules", rules]);
        // First --snapshot run builds from CSV and writes the snapshot...
        let (code_write, out_write) =
            run_capture(&["check", data, "--rules", rules, "--snapshot", snap]);
        assert!(std::path::Path::new(snap).exists());
        // ...the second loads it, without needing --rules or the CSV.
        let (code_load, out_load) = run_capture(&["check", "/nonexistent.csv", "--snapshot", snap]);
        assert_eq!(code_cold, code_write);
        assert_eq!(code_cold, code_load);
        assert_eq!(out_cold, out_write, "snapshot write changes no output");
        assert_eq!(out_cold, out_load, "snapshot load must diff clean vs cold");
        let (_, json_cold) = run_capture(&["check", data, "--rules", rules, "--json"]);
        let (_, json_load) = run_capture(&["check", data, "--snapshot", snap, "--json"]);
        assert_eq!(json_cold, json_load, "JSON reports must diff clean");
        code_cold
    }

    #[test]
    fn check_from_snapshot_is_byte_identical_to_cold_build() {
        let dir = TestDir::new("check_from_snapshot_is_byte_identical_to_cold_build");
        let data = dir.file("snap-check.csv", ZIP_CSV);
        let rules_path = dir.file(
            "snap-check-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let snap = dir.path("snap-check.pfds");
        assert_snapshot_check_matches_cold(&data, &rules_path, &snap);
    }

    #[test]
    fn check_from_snapshot_matches_cold_on_discovered_tableaux() {
        let dir = TestDir::new("check_from_snapshot_matches_cold_on_discovered_tableaux");
        use pfd_datagen::{dirty_clean_pair, geo_cascade_table, ErrorProfile};
        let clean = geo_cascade_table(600, 3);
        let targets =
            ["city", "county", "state", "region"].map(|a| clean.schema().attr(a).unwrap());
        let profile = ErrorProfile::correlated(&targets, 0.02);
        let (dirty, _) = dirty_clean_pair(&clean, &profile, 3);
        let data = dir.file("snap-geo.csv", pfd_relation::write_csv_string(&dirty));
        let rules = dir.path("snap-geo-rules.pfd");
        let (code, output) = run_capture(&["discover", &data, "--rules", &rules]);
        assert_eq!(code, 0, "{output}");
        let text = std::fs::read_to_string(&rules).unwrap();
        assert!(
            text.lines().any(|line| line.contains("; [")),
            "discovery yields multi-row tableaux: {text}"
        );
        let snap = dir.path("snap-geo.pfds");
        let code = assert_snapshot_check_matches_cold(&data, &rules, &snap);
        assert_eq!(code, 1, "the injected errors are flagged");
    }

    #[test]
    fn check_without_rules_or_snapshot_is_a_usage_error() {
        let dir = TestDir::new("check_without_rules_or_snapshot_is_a_usage_error");
        // The usage error comes before any input is read.
        for data in [
            dir.file("check-usage.csv", ZIP_CSV),
            "/nonexistent.csv".into(),
        ] {
            let mut buf = Vec::new();
            let err = run(&["check".into(), data], &mut buf).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m == "check needs --rules (or an existing --snapshot)"),
                "{err}"
            );
            assert_eq!(err.exit_code(), 2);
            assert!(buf.is_empty());
        }
    }

    #[test]
    fn discover_writes_a_snapshot_check_consumes_it() {
        let dir = TestDir::new("discover_writes_a_snapshot_check_consumes_it");
        let data = dir.file("snap-discover.csv", ZIP_CSV);
        let snap = dir.path("snap-discover.pfds");
        let (code, output) = run_capture(&[
            "discover",
            &data,
            "--min-support",
            "3",
            "--noise",
            "0.2",
            "--snapshot",
            &snap,
        ]);
        assert_eq!(code, 0);
        assert!(output.contains("snapshot written"), "{output}");
        // The snapshot carries the discovered rules: check needs nothing else.
        let (code, output) = run_capture(&["check", &data, "--snapshot", &snap]);
        assert_eq!(code, 1, "the seeded typo is still found: {output}");
        assert!(output.contains("New York"), "{output}");
    }

    #[test]
    fn byte_order_marked_csv_and_rules_check_like_plain_ones() {
        let dir = TestDir::new("byte_order_marked_csv_and_rules_check_like_plain_ones");
        let rules = "# PFD rules\nZip([zip = [\\D{3}]\\D{2}] -> [city = _])\n";
        let plain = run_capture(&[
            "check",
            &dir.file("bom-plain.csv", ZIP_CSV),
            "--rules",
            &dir.file("bom-plain.pfd", rules),
        ]);
        let marked = run_capture(&[
            "check",
            &dir.file("bom-marked.csv", format!("\u{FEFF}{ZIP_CSV}")),
            "--rules",
            &dir.file("bom-marked.pfd", format!("\u{FEFF}{rules}")),
        ]);
        assert_eq!(plain.0, 1, "{}", plain.1);
        assert_eq!(marked, plain);
    }

    #[test]
    fn fresh_discover_snapshot_stages_beside_the_snapshot() {
        let dir = TestDir::new("fresh_discover_snapshot_stages_beside_the_snapshot");
        // `s.tmp` is not the store's staging file (`s.pfds.tmp`), so a
        // directory there must not stop the snapshot being written.
        let data = dir.file("snap-stage.csv", ZIP_CSV);
        let snap = dir.path("snap-stage.pfds");
        let other_tmp = Path::new(&snap).with_extension("tmp");
        std::fs::create_dir_all(&other_tmp).unwrap();
        let args = ["discover", &data, "--min-support", "3", "--snapshot", &snap];
        let (code, output) = run_capture(&args);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("snapshot written to"), "{output}");
        assert!(
            !Path::new(&format!("{snap}.tmp")).exists(),
            "staging file renamed"
        );
        let (code, output) = run_capture(&args);
        assert_eq!(code, 0, "{output}");
        assert!(output.contains("index: warm start"), "{output}");
        std::fs::remove_dir(&other_tmp).unwrap();
    }

    #[test]
    fn session_snapshot_resumes_where_the_last_session_ended() {
        let dir = TestDir::new("session_snapshot_resumes_where_the_last_session_ended");
        let data = dir.file("snap-session.csv", ZIP_CSV);
        let rules_path = dir.file(
            "snap-session-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let snap = dir.path("snap-session.pfds");
        let script1 = dir.file(
            "snap-session-s1.jsonl",
            "{\"op\":\"set\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}\n",
        );
        // Session 1 builds from CSV, fixes the typo, snapshots at exit. Its
        // event stream must be byte-identical to a snapshot-less run.
        let (_, out_plain) = run_capture(&[
            "session",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script1,
        ]);
        let (code1, out_snap) = run_capture(&[
            "session",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script1,
            "--snapshot",
            &snap,
        ]);
        assert_eq!(code1, 0);
        assert_eq!(out_plain, out_snap, "snapshot wiring changes no events");
        assert!(
            !Path::new(&format!("{snap}.log")).exists(),
            "clean exit checkpoints and removes the delta log"
        );
        // Session 2 resumes from the snapshot: the fix persisted (0
        // violations in ready) and the mutation version kept counting.
        let script2 = dir.file("snap-session-s2.jsonl", "");
        let (code2, output) =
            run_capture(&["session", &data, "--script", &script2, "--snapshot", &snap]);
        assert_eq!(code2, 0);
        assert!(
            output.starts_with(
                "{\"event\":\"ready\",\"version\":11,\"rows\":10,\"pfds\":1,\"violations\":0"
            ),
            "resumed state carries the edit and its version: {output}"
        );
    }

    #[test]
    fn session_replays_the_delta_log_after_a_crash() {
        let dir = TestDir::new("session_replays_the_delta_log_after_a_crash");
        let data = dir.file("snap-crash.csv", ZIP_CSV);
        let rules_path = dir.file(
            "snap-crash-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let snap = dir.path("snap-crash.pfds");
        // Seed the snapshot (pre-edit state, 1 violation).
        let (_, _) = run_capture(&["check", &data, "--rules", &rules_path, "--snapshot", &snap]);
        // Simulate a crashed session: the fix reached the framed delta log
        // but no re-snapshot happened.
        let log_path = write_crashed_log(
            &snap,
            &[r#"{"op":"set","row":9,"attr":"city","value":"Chicago"}"#],
        );
        let script = dir.file("snap-crash-script.jsonl", "");
        let (code, output) =
            run_capture(&["session", &data, "--script", &script, "--snapshot", &snap]);
        assert_eq!(code, 0, "replayed state is clean: {output}");
        assert!(
            output.contains("\"event\":\"recovered\"")
                && output.contains("\"log_records_applied\":1"),
            "recovery is reported: {output}"
        );
        assert!(output.contains("\"violations\":0"), "{output}");
        assert!(
            !Path::new(&log_path).exists(),
            "recovery re-checkpoints and removes the replayed log"
        );
    }

    /// Append `records` to the snapshot's delta log, numbered from 1, as a
    /// session that crashed before its next checkpoint leaves them.
    fn write_crashed_log(snap: &str, records: &[&str]) -> String {
        let log_path = format!("{snap}.log");
        let (mut wal, _) = pfd_relation::WalWriter::open(
            &StdIo,
            Path::new(&log_path),
            0,
            pfd_relation::SyncPolicy::Always,
        )
        .unwrap();
        for record in records {
            wal.append(record.as_bytes()).unwrap();
        }
        log_path
    }

    /// `discover --snapshot` over ZIP_CSV with its five Los Angeles rows
    /// deleted finds only the zip → city rule; over all ten rows it also
    /// finds the Los Angeles one.
    fn assert_discovers_the_recovered_rows(output: &str) {
        assert!(
            output.starts_with("1 dependencies discovered"),
            "discovery ran over the recovered rows: {output}"
        );
        assert!(!output.contains("Angeles"), "{output}");
    }

    #[test]
    fn discover_from_snapshot_replays_a_crashed_session_log() {
        let dir = TestDir::new("discover_from_snapshot_replays_a_crashed_session_log");
        let data = dir.file("snap-discover-crash.csv", ZIP_CSV);
        let snap = dir.path("snap-discover-crash.pfds");
        let discover = [
            "discover",
            &data,
            "--min-support",
            "3",
            "--noise",
            "0.2",
            "--snapshot",
            &snap,
        ];
        let (code, output) = run_capture(&discover);
        assert_eq!(code, 0, "{output}");
        assert!(output.starts_with("2 dependencies discovered"), "{output}");
        // A session acknowledged five deletes, then died before its
        // checkpoint: the log holds them, the snapshot does not.
        let log_path = write_crashed_log(&snap, &[r#"{"op":"delete","row":0}"#; 5]);

        let (code, output) = run_capture(&discover);
        assert_eq!(code, 0, "{output}");
        assert_discovers_the_recovered_rows(&output);
        assert!(
            !Path::new(&log_path).exists(),
            "the replayed log is checkpointed away"
        );
        let (engine, meta) =
            pfd_core::load_from_bytes_with(&std::fs::read(&snap).unwrap()).unwrap();
        assert_eq!(engine.relation().num_rows(), 5);
        assert_eq!((meta.generation, meta.last_seq), (1, 5));
        assert!(
            output.contains("index saved to"),
            "the index is keyed to the checkpoint: {output}"
        );

        // The next run finds the checkpoint clean and the index fresh.
        let (code, output) = run_capture(&discover);
        assert_eq!(code, 0, "{output}");
        assert_discovers_the_recovered_rows(&output);
        assert!(output.contains("index: warm start"), "{output}");
    }

    #[test]
    fn discover_from_snapshot_finishes_an_interrupted_checkpoint() {
        let dir = TestDir::new("discover_from_snapshot_finishes_an_interrupted_checkpoint");
        let data = dir.file("snap-discover-prev.csv", ZIP_CSV);
        let rules = "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n";
        let rules_path = dir.file("snap-discover-prev-rules.pfd", rules);
        let snap = dir.path("snap-discover-prev.pfds");
        let (_, _) = run_capture(&["check", &data, "--rules", &rules_path, "--snapshot", &snap]);
        let (engine, meta) =
            pfd_core::load_from_bytes_with(&std::fs::read(&snap).unwrap()).unwrap();
        let user_rules = to_rules_string(engine.pfds(), engine.relation().schema());
        // A checkpoint demoted the snapshot to `.prev` and crashed before
        // renaming its successor into place, so the log is still there.
        let prev = format!("{snap}.prev");
        let _ = std::fs::remove_file(&prev);
        std::fs::rename(&snap, &prev).unwrap();
        let log_path = write_crashed_log(&snap, &[r#"{"op":"delete","row":0}"#; 5]);

        let (code, output) = run_capture(&[
            "discover",
            &data,
            "--min-support",
            "3",
            "--noise",
            "0.2",
            "--snapshot",
            &snap,
        ]);
        assert_eq!(code, 0, "{output}");
        assert_discovers_the_recovered_rows(&output);
        assert!(
            !output.contains("snapshot written"),
            "the user's state is not overwritten by discovered rules: {output}"
        );
        assert!(!Path::new(&log_path).exists());
        let (recovered, recovered_meta) =
            pfd_core::load_from_bytes_with(&std::fs::read(&snap).unwrap()).unwrap();
        assert_eq!(
            to_rules_string(recovered.pfds(), recovered.relation().schema()),
            user_rules,
            "the snapshot keeps the user's rules"
        );
        assert_eq!(recovered.relation().num_rows(), 5);
        assert_eq!(
            (recovered_meta.generation, recovered_meta.last_seq),
            (meta.generation + 1, 5)
        );
    }

    #[test]
    fn corrupt_snapshot_is_a_graceful_error() {
        let dir = TestDir::new("corrupt_snapshot_is_a_graceful_error");
        let data = dir.file("snap-corrupt.csv", ZIP_CSV);
        let snap = dir.file("snap-corrupt.pfds", "this is not a snapshot");
        let mut buf = Vec::new();
        assert!(matches!(
            run(&["check".into(), data, "--snapshot".into(), snap], &mut buf),
            Err(CliError::Snapshot(_))
        ));
    }

    #[test]
    fn usage_errors() {
        let mut buf = Vec::new();
        assert!(matches!(run(&[], &mut buf), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["frobnicate".into()], &mut buf),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["check".into(), "x.csv".into()], &mut buf),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["session".into(), "x.csv".into()], &mut buf),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(
                &[
                    "discover".into(),
                    "x.csv".into(),
                    "--noise".into(),
                    "2".into()
                ],
                &mut buf
            ),
            Err(CliError::Usage(_))
        ));
        // A flag the command does not accept is named, never ignored or
        // allowed to swallow the next argument. The error comes before any
        // input is read.
        for (args, flag) in [
            (
                &["repair", "x.csv", "--rules", "r.pfd", "--engine", "naive"][..],
                "--engine",
            ),
            (&["discover", "x.csv", "--nosie", "0.2"][..], "--nosie"),
            (&["profile", "x.csv", "--bogus", "x"][..], "--bogus"),
            (
                &["check", "x.csv", "--rules", "r.pfd", "--coalesce"][..],
                "--coalesce",
            ),
            (&["serve", "--json"][..], "--json"),
        ] {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let err = run(&args, &mut buf).unwrap_err();
            assert!(
                matches!(&err, CliError::Usage(m) if m.ends_with(&format!("does not accept {flag}"))),
                "{args:?}: {err}"
            );
            assert_eq!(err.exit_code(), 2);
        }
        assert!(buf.is_empty());
    }

    /// `--workers` is bounded: 1,024 parses, 1,025 is a usage error. Only
    /// the parser runs; no server starts.
    #[test]
    fn serve_workers_are_bounded() {
        let args = |n: usize| -> Vec<String> {
            ["serve", "--workers", &n.to_string()]
                .map(String::from)
                .to_vec()
        };
        assert!(matches!(
            parse_args(&args(MAX_WORKERS)),
            Ok(Command::Serve { workers: 1024, .. })
        ));
        let err = parse_args(&args(MAX_WORKERS + 1)).unwrap_err();
        assert!(
            matches!(&err, CliError::Usage(m) if m == "--workers must be at most 1024, got 1025"),
            "{err}"
        );
        assert_eq!(err.exit_code(), 2);
    }

    /// Strip the `{"tenant":...,"seq":N,` prefix a serve event carries,
    /// asserting the tags are present and the seqs dense per tenant.
    fn untag_serve(output: &str, tenant: &str) -> Vec<String> {
        let prefix = format!("{{\"tenant\":\"{tenant}\",\"seq\":");
        output
            .lines()
            .filter(|l| l.starts_with(&prefix))
            .enumerate()
            .map(|(i, l)| {
                let rest = &l[prefix.len()..];
                let (seq, payload) = rest.split_once(',').unwrap();
                assert_eq!(seq.parse::<usize>().unwrap(), i, "dense seqs: {l}");
                format!("{{{payload}")
            })
            .collect()
    }

    #[test]
    fn serve_default_tenant_matches_session_byte_for_byte() {
        let dir = TestDir::new("serve_default_tenant_matches_session_byte_for_byte");
        let data = dir.file("serve-compat.csv", ZIP_CSV);
        let rules_path = dir.file(
            "serve-compat-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let script = dir.file(
            "serve-compat-script.jsonl",
            "{\"op\":\"set\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}\n{\"op\":\"check\"}\n",
        );
        let (code_session, out_session) = run_capture(&[
            "session",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script,
        ]);
        let (code_serve, out_serve) = run_capture(&[
            "serve",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script,
            "--workers",
            "2",
        ]);
        assert_eq!(code_session, 0);
        assert_eq!(code_serve, 0);
        // The serve stream is the session stream tagged with the default
        // tenant (check is serve-visible where session logs nothing extra;
        // both emit ready + delta + state here).
        let solo: Vec<String> = out_session.lines().map(str::to_string).collect();
        assert_eq!(untag_serve(&out_serve, "default"), solo);

        // Durable, both front ends run one session loop: the same events,
        // and the same snapshot family — from a clean start, then resuming
        // it after a crash left one acknowledged record in each WAL.
        let script = dir.file(
            "serve-compat-durable.jsonl",
            concat!(
                "{\"op\":\"set\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}\n",
                "{\"op\":\"fly\"}\n",
                "{\"op\":\"insert\",\"cells\":[\"60606\",\"Chicgo\"]}\n",
                "{\"op\":\"repair\"}\n",
                "{\"op\":\"check\"}\n",
            ),
        );
        let snap = dir.path("serve-compat.pfds");
        for suffix in [".prev", ".log"] {
            let _ = std::fs::remove_file(format!("{snap}{suffix}"));
        }
        let root = dir.path("serve-compat-root");
        let _ = std::fs::remove_dir_all(&root);
        let family = format!("{root}/default/state.pfds");
        for leftover in [false, true] {
            if leftover {
                for path in [&snap, &family] {
                    let bytes = std::fs::read(path).unwrap();
                    let (_, meta) = pfd_core::load_from_bytes_with(&bytes).unwrap();
                    let log = format!("{path}.log");
                    let (mut wal, _) = pfd_relation::WalWriter::open(
                        &StdIo,
                        Path::new(&log),
                        meta.last_seq,
                        pfd_relation::SyncPolicy::Always,
                    )
                    .unwrap();
                    wal.append(br#"{"op":"set","row":0,"attr":"city","value":"LA"}"#)
                        .unwrap();
                }
            }
            let (code_session, out_session) = run_capture(&[
                "session",
                &data,
                "--rules",
                &rules_path,
                "--script",
                &script,
                "--snapshot",
                &snap,
            ]);
            let (code_serve, out_serve) = run_capture(&[
                "serve",
                &data,
                "--rules",
                &rules_path,
                "--script",
                &script,
                "--root",
                &root,
                "--workers",
                "2",
            ]);
            assert_eq!((code_session, code_serve), (0, 0), "{out_serve}");
            let solo: Vec<String> = out_session.lines().map(str::to_string).collect();
            assert_eq!(untag_serve(&out_serve, "default"), solo);
            assert_eq!(
                solo[0].starts_with("{\"event\":\"recovered\""),
                leftover,
                "{out_session}"
            );
            for suffix in ["", ".prev"] {
                assert_eq!(
                    std::fs::read(format!("{snap}{suffix}")).unwrap(),
                    std::fs::read(format!("{family}{suffix}")).unwrap(),
                    "state.pfds{suffix} differs from the session's"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_multi_tenant_round_trip() {
        let dir = TestDir::new("serve_multi_tenant_round_trip");
        let clean = dir.file("serve-a.csv", ZIP_CSV);
        let dirty = dir.file("serve-b.csv", ZIP_CSV);
        let rules_path = dir.file(
            "serve-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let script = dir.file(
            "serve-multi-script.jsonl",
            format!(
                concat!(
                    "{{\"op\":\"open\",\"tenant\":\"a\",\"csv\":{a:?}}}\n",
                    "{{\"op\":\"open\",\"tenant\":\"b\",\"csv\":{b:?}}}\n",
                    "{{\"op\":\"set\",\"tenant\":\"a\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}}\n",
                    "{{\"op\":\"list\"}}\n",
                    "{{\"op\":\"close\",\"tenant\":\"a\"}}\n",
                ),
                a = clean,
                b = dirty
            ),
        );
        let (code, output) = run_capture(&[
            "serve",
            "--rules",
            &rules_path,
            "--script",
            &script,
            "--workers",
            "2",
        ]);
        // Tenant b still holds the seeded typo at shutdown.
        assert_eq!(code, 1, "{output}");
        let a_events = untag_serve(&output, "a");
        assert!(
            a_events.iter().any(|l| l.contains("\"event\":\"closed\"")
                && l.contains("\"applied\":1")
                && l.contains("\"violations\":0")),
            "{output}"
        );
        let b_events = untag_serve(&output, "b");
        assert!(
            b_events[0].starts_with("{\"event\":\"ready\"")
                && b_events[0].contains("\"violations\":1"),
            "{output}"
        );
        assert!(
            output
                .lines()
                .any(|l| l == "{\"event\":\"tenants\",\"open\":[\"a\",\"b\"]}"),
            "{output}"
        );
    }

    #[test]
    fn serve_protocol_negative_paths() {
        let dir = TestDir::new("serve_protocol_negative_paths");
        let data = dir.file("serve-neg.csv", ZIP_CSV);
        let rules_path = dir.file(
            "serve-neg-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let mut script = format!(
            concat!(
                // Command before any open of that tenant.
                "{{\"op\":\"check\",\"tenant\":\"ghost\"}}\n",
                // Malformed tenant names never create directories.
                "{{\"op\":\"open\",\"tenant\":\"../escape\"}}\n",
                "{{\"op\":\"open\",\"tenant\":\"\"}}\n",
                // Duplicate open of the auto-opened default tenant.
                "{{\"op\":\"open\",\"csv\":{data:?}}}\n",
                // Open that cold-builds from a missing file.
                "{{\"op\":\"open\",\"tenant\":\"nofile\",\"csv\":\"/not/here.csv\"}}\n",
                // Non-string tenant field.
                "{{\"op\":\"check\",\"tenant\":7}}\n",
                // Nested past the JSON depth cap: bare, inside a set
                // value, and inside a line that is otherwise valid.
                "{deep}\n",
                "{{\"op\":\"set\",\"row\":0,\"attr\":\"city\",\"value\":{deep}\n",
                "{{\"op\":\"check\",\"x\":{nested}}}\n",
                // A line past the byte cap.
                "{over_cap}\n",
            ),
            data = data,
            deep = "[".repeat(200_000),
            nested = format!("{}{}", "[".repeat(10_000), "]".repeat(10_000)),
            over_cap = "x".repeat(json::MAX_LINE_BYTES + 1),
        )
        .into_bytes();
        // Bytes that are not UTF-8; the check after them is still answered.
        script.extend_from_slice(b"\xff\xfe\n{\"op\":\"check\"}\n");
        let script = dir.file("serve-neg-script.jsonl", script);
        let (code, output) = run_capture(&[
            "serve",
            &data,
            "--rules",
            &rules_path,
            "--script",
            &script,
            "--workers",
            "1",
        ]);
        // The seeded typo is never fixed, so the default tenant is dirty.
        assert_eq!(code, 1, "{output}");
        let expect = [
            "{\"event\":\"error\",\"tenant\":\"ghost\",\"message\":\"unknown tenant \\\"ghost\\\" (open it first)\"}",
            "{\"event\":\"error\",\"message\":\"invalid tenant name \\\"../escape\\\": tenant names may only contain [A-Za-z0-9_-]\"}",
            "{\"event\":\"error\",\"message\":\"invalid tenant name \\\"\\\": tenant names must be 1-64 characters\"}",
            "{\"event\":\"error\",\"message\":\"\\\"tenant\\\" must be a string\"}",
            "{\"event\":\"error\",\"message\":\"line longer than 4194304 bytes\"}",
            "{\"event\":\"error\",\"message\":\"line is not valid UTF-8\"}",
        ];
        for line in expect {
            assert!(
                output.lines().any(|l| l == line),
                "missing {line}\nin {output}"
            );
        }
        // In-stream (tagged) errors: duplicate open and failed cold build.
        assert!(
            untag_serve(&output, "default")
                .iter()
                .any(|l| l.contains("is already open")),
            "{output}"
        );
        assert!(
            untag_serve(&output, "nofile")
                .iter()
                .any(|l| l.contains("open failed")),
            "{output}"
        );
        // The failed tenant is forgotten, not half-open.
        assert!(
            !output.contains("\"tenant\":\"nofile\",\"seq\":1"),
            "{output}"
        );
        // One error per over-deep line, then the check is answered.
        let deep_errors = output
            .lines()
            .filter(|l| {
                l.starts_with("{\"event\":\"error\",\"message\":\"JSON nested deeper than 64")
            })
            .count();
        assert_eq!(deep_errors, 3, "{output}");
        assert!(
            untag_serve(&output, "default")
                .last()
                .is_some_and(|l| l.starts_with("{\"event\":\"state\"")),
            "{output}"
        );
    }

    #[test]
    fn serve_durable_root_survives_restart() {
        let dir = TestDir::new("serve_durable_root_survives_restart");
        let root = std::env::temp_dir().join(format!("pfd-serve-root-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let root = root.to_string_lossy().into_owned();
        let data = dir.file("serve-durable.csv", ZIP_CSV);
        let rules_path = dir.file(
            "serve-durable-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let script1 = dir.file(
            "serve-durable-s1.jsonl",
            "{\"op\":\"set\",\"row\":9,\"attr\":\"city\",\"value\":\"Chicago\"}\n",
        );
        let (code1, out1) = run_capture(&[
            "serve",
            &data,
            "--rules",
            &rules_path,
            "--root",
            &root,
            "--script",
            &script1,
        ]);
        assert_eq!(code1, 0, "{out1}");
        assert!(
            std::path::Path::new(&root)
                .join("default")
                .join("state.pfds")
                .exists(),
            "per-tenant snapshot family under the root"
        );
        // Restart without any CSV: the open recovers from the snapshot.
        let script2 = dir.file(
            "serve-durable-s2.jsonl",
            "{\"op\":\"open\",\"tenant\":\"default\"}\n",
        );
        let (code2, out2) = run_capture(&["serve", "--root", &root, "--script", &script2]);
        assert_eq!(code2, 0, "{out2}");
        let events = untag_serve(&out2, "default");
        assert!(
            events
                .iter()
                .any(|l| l.starts_with("{\"event\":\"ready\"") && l.contains("\"violations\":0")),
            "the fix persisted across the restart: {out2}"
        );
        // Restart with the positional CSV but no --rules, then with a CSV
        // path that does not exist: the auto-opened default tenant
        // recovers from the root, so neither input is ever read.
        let script3 = dir.file("serve-durable-s3.jsonl", "{\"op\":\"check\"}\n");
        for csv in [data.as_str(), "/definitely/not/here.csv"] {
            let (code, out) = run_capture(&["serve", csv, "--root", &root, "--script", &script3]);
            assert_eq!(code, 0, "{csv}: {out}");
            let events = untag_serve(&out, "default");
            assert!(
                events[0].starts_with("{\"event\":\"ready\"")
                    && events[0].contains("\"violations\":0"),
                "{csv}: the fix persisted across the restart: {out}"
            );
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn serve_cold_build_failures_keep_their_exit_codes() {
        let dir = TestDir::new("serve_cold_build_failures_keep_their_exit_codes");
        // A fresh root has no state for the default tenant, so its cold
        // build runs and its error is the command's, before any event.
        let data = dir.file("serve-cold.csv", ZIP_CSV);
        let rules = dir.file(
            "serve-cold-rules.pfd",
            "Zip([zip = [\\D{3}]\\D{2}] -> [city = _])\n",
        );
        let bad_csv = dir.file("serve-cold-bad.csv", "zip,city\n90001\n");
        let bad_rules = dir.file("serve-cold-bad-rules.pfd", "this is not a rule(\n");
        let script = dir.file("serve-cold.jsonl", "{\"op\":\"check\"}\n");
        let cases: [(&str, &[&str], u8); 4] = [
            (&data, &[], 2),
            ("/nonexistent.csv", &["--rules", &rules], 3),
            (&bad_csv, &["--rules", &rules], 4),
            (&data, &["--rules", &bad_rules], 5),
        ];
        for (i, (csv, flags, code)) in cases.into_iter().enumerate() {
            let root = dir.path(&format!("serve-cold-root-{i}"));
            let _ = std::fs::remove_dir_all(&root);
            let mut args = vec!["serve", csv, "--root", &root, "--script", &script];
            args.extend_from_slice(flags);
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            let mut buf = Vec::new();
            let err = run(&args, &mut buf).unwrap_err();
            assert_eq!(err.exit_code(), code, "{args:?}: {err}");
            assert!(
                buf.is_empty(),
                "{args:?}: {}",
                String::from_utf8_lossy(&buf)
            );
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn empty_csv_header_is_a_csv_error() {
        let dir = TestDir::new("empty_csv_header_is_a_csv_error");
        for (name, content) in [("nl.csv", "\n"), ("bom.csv", "\u{FEFF}")] {
            let args = ["profile".to_string(), dir.file(name, content)];
            let mut buf = Vec::new();
            let err = run(&args, &mut buf).unwrap_err();
            assert_eq!(err.exit_code(), 4, "{name}: {err}");
            assert!(buf.is_empty(), "{name}: nothing is profiled");
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let mut buf = Vec::new();
        assert!(matches!(
            run(
                &["profile".into(), "/definitely/not/here.csv".into()],
                &mut buf
            ),
            Err(CliError::Io(_))
        ));
    }
}
