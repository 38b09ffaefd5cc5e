//! Open-loop latency of a durable server, measured in-process.
//!
//! Over a pipe `pfd serve` answers command k only after line k+1 arrives,
//! so a client that waits for each answer stalls. This leg drives
//! `Server::durable` with a `ChannelSink` drained by a writer thread (the
//! CLI's own path) and sends each command at its scheduled time whatever
//! the server is doing. A command's latency runs from when it was due to
//! when its event reached the writer thread.

use crate::legs::{fresh_root, recovered_matches, Record};
use crate::plan::{Cmd, Plan};
use pfd_core::session::json;
use pfd_core::{
    parse_rules, ChannelSink, DeltaEngine, RecoveryPolicy, RepairOptions, Server, ServerOptions,
    TenantLoader,
};
use pfd_relation::{read_csv_str, Io, SharedBytes, StdIo};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The real filesystem, counting `sync` calls (fsyncs).
#[derive(Default)]
pub struct CountingIo {
    pub syncs: AtomicUsize,
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
    fn read_shared(&self, path: &Path) -> std::io::Result<SharedBytes> {
        StdIo.read_shared(path)
    }
}

/// Cold-builds tenants from the `open` command's `csv` field and the plan's
/// rule file, as the CLI's loader does.
struct FileLoader {
    dir: PathBuf,
    rules: PathBuf,
}

impl TenantLoader for FileLoader {
    fn load(&self, _name: &str, spec: &json::Value) -> Result<DeltaEngine, String> {
        let csv = spec
            .get("csv")
            .and_then(json::Value::as_str)
            .ok_or("open needs a csv field")?;
        let text = std::fs::read_to_string(self.dir.join(csv)).map_err(|e| e.to_string())?;
        let rel = read_csv_str(crate::inputs::stem(csv), &text).map_err(|e| e.to_string())?;
        let rules = std::fs::read_to_string(&self.rules).map_err(|e| e.to_string())?;
        let pfds = parse_rules(&rules, rel.schema()).map_err(|e| e.to_string())?;
        Ok(DeltaEngine::new(rel, pfds))
    }
}

/// What one open-loop run measured.
pub struct Latency {
    pub set_ms: Vec<f64>,
    pub check_ms: Vec<f64>,
    /// How late the generator sent each command, in ms.
    pub lag_ms: Vec<f64>,
    pub syncs_per_edit: f64,
    pub steals: usize,
}

/// `{"tenant":"name","seq":N,...` → (name, N).
pub fn tag(line: &str) -> Option<(&str, usize)> {
    let rest = line.strip_prefix("{\"tenant\":\"")?;
    let (name, rest) = rest.split_once("\",\"seq\":")?;
    let end = rest.find(',')?;
    Some((name, rest[..end].parse().ok()?))
}

/// Sleep until `due`; the generator reports how late it woke.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Run `cmds` open-loop at `plan.rate` against a fresh durable root, then
/// check every tenant's final state against `replayed`.
pub fn run(plan: &Plan, rec: &mut Record, cmds: &[Cmd], replayed: &[DeltaEngine]) -> Latency {
    let root = fresh_root(plan, "root-latency");
    let io = Arc::new(CountingIo::default());
    let (tx, rx) = mpsc::channel::<String>();
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let names: Vec<String> = plan.tenants.iter().map(|t| t.name.clone()).collect();
    let writer = std::thread::spawn(move || {
        // The CLI writes every event to stdout, usually a pipe. Here the
        // bytes go to memory, so no disk writes of the benchmark's own sit
        // beside the server's WAL fsyncs.
        let mut out = Vec::new();
        let mut seen: Vec<Vec<Option<Instant>>> = vec![Vec::new(); names.len()];
        let mut errors = 0usize;
        for line in rx {
            let at = Instant::now();
            if line.contains("\"event\":\"error\"") {
                errors += 1;
            }
            if let Some((name, seq)) = tag(&line) {
                if let Some(t) = names.iter().position(|n| n == name) {
                    if seen[t].len() <= seq {
                        seen[t].resize(seq + 1, None);
                    }
                    seen[t][seq] = Some(at);
                    if seq == 0 {
                        let _ = ready_tx.send(());
                    }
                }
            }
            out.extend_from_slice(line.as_bytes());
            out.push(b'\n');
        }
        std::hint::black_box(&out);
        (seen, errors)
    });

    let options = ServerOptions {
        workers: 0,
        max_resident: 0,
        coalesce: false,
        repair: RepairOptions::default(),
        recovery: RecoveryPolicy::Salvage,
    };
    let loader = Arc::new(FileLoader {
        dir: plan.dir.clone(),
        rules: plan.dir.join(&plan.serve_rules_file),
    });
    let server = Server::durable(
        io.clone(),
        &root,
        options,
        loader,
        Arc::new(ChannelSink::new(tx)),
    );
    for t in &plan.tenants {
        server.submit(&t.open);
    }
    for _ in &plan.tenants {
        ready_rx.recv().expect("every tenant opens");
    }

    let syncs_before = io.syncs.load(Ordering::Relaxed);
    let mut due_at = Vec::with_capacity(cmds.len());
    let mut lag_ms = Vec::with_capacity(cmds.len());
    let start = Instant::now();
    for (i, cmd) in cmds.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / plan.rate);
        wait_until(due);
        lag_ms.push(due.elapsed().as_secs_f64() * 1e3);
        server.submit(&cmd.line);
        due_at.push(due);
    }
    server.drain();
    let steals = server.executor_steals();
    let edits = cmds.iter().filter(|c| c.edit.is_some()).count();
    let syncs = io.syncs.load(Ordering::Relaxed) - syncs_before;
    let exits = server.shutdown();
    let (seen, errors) = writer.join().expect("event writer");
    rec.attempted += cmds.len();

    let mut set_ms = Vec::with_capacity(edits);
    let mut check_ms = Vec::new();
    let mut next = vec![1usize; plan.tenants.len()];
    let mut missing = 0usize;
    for (cmd, due) in cmds.iter().zip(due_at) {
        let seq = next[cmd.tenant];
        next[cmd.tenant] += 1;
        match seen[cmd.tenant].get(seq).copied().flatten() {
            Some(at) => {
                let ms = at.saturating_duration_since(due).as_secs_f64() * 1e3;
                if cmd.edit.is_some() {
                    set_ms.push(ms);
                } else {
                    check_ms.push(ms);
                }
            }
            None => missing += 1,
        }
    }
    rec.gate(errors == 0 && missing == 0, || {
        format!("latency run: {errors} error events, {missing} commands unanswered")
    });
    for (t, expect) in plan.tenants.iter().zip(replayed) {
        let exit = exits.iter().find(|e| e.name == t.name);
        rec.gate(
            exit.and_then(|e| e.relation.as_ref()) == Some(expect.relation()),
            || {
                format!(
                    "latency run: tenant {} final relation differs from replay",
                    t.name
                )
            },
        );
    }
    recovered_matches(plan, rec, &root, replayed, "latency run");
    Latency {
        set_ms,
        check_ms,
        lag_ms,
        syncs_per_edit: syncs as f64 / edits.max(1) as f64,
        steals,
    }
}
