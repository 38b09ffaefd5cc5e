//! Group commit, seen from outside: the order in which a durable server
//! appends WAL records, syncs the log and emits answers.
//!
//! [`MemIo`] has no page cache, so the crash sweeps cannot tell an answer
//! sent before its fsync from one sent after it. Here one shared log
//! records every `append` and `sync` the server's [`Io`] performs and every
//! line its [`EventSink`] emits, in the order they happen, and the tests
//! read the order off it:
//!
//! * k commands a drain job claims together are appended k times, synced
//!   once, and answered only after that sync — also the first run after an
//!   open, whose first append creates the log: its header rides on the
//!   run's sync;
//! * a lone command costs what it always did: append, sync, emit.

use std::io::BufRead as _;
use std::path::Path;
use std::sync::{mpsc, Arc, Mutex};

use pfd_core::server::NoProtocolOpens;
use pfd_core::session::json;
use pfd_core::{
    run_session_with, DeltaEngine, EventSink, Pfd, RepairEngine, RepairOptions, Server,
    ServerOptions,
};
use pfd_relation::io::Io;
use pfd_relation::{read_csv_str, MemIo};

const GEO_CSV: &str = "\
zip,city,state
90001,Los Angeles,CA
90001,Los Angeles,CA
90002,Los Angeles,CA
10001,New York,NY
10001,Brooklyn,NY
60601,Chicago,IL
60601,Chicago,WA
";

const TENANT: &str = "geo";
const LOG: &str = "/srv/geo/state.pfds.log";

fn engine() -> DeltaEngine {
    let rel = read_csv_str("geo", GEO_CSV).unwrap();
    let schema = rel.schema().clone();
    let pfds = vec![
        Pfd::fd("geo", &schema, &["zip"], &["city"]).unwrap(),
        Pfd::fd("geo", &schema, &["city"], &["state"]).unwrap(),
    ];
    DeltaEngine::new(rel, pfds)
}

/// What the server did, in order: `append <path>`, `sync <path>` and
/// `emit <line>` entries.
type Trace = Arc<Mutex<Vec<String>>>;

/// A [`MemIo`] that records each append and sync in the trace.
struct TracingIo {
    inner: MemIo,
    trace: Trace,
}

impl Io for TracingIo {
    fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.inner.write(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
        self.trace
            .lock()
            .unwrap()
            .push(format!("append {}", path.display()));
        self.inner.append(path, data)
    }
    fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn sync(&self, path: &Path) -> std::io::Result<()> {
        self.trace
            .lock()
            .unwrap()
            .push(format!("sync {}", path.display()));
        self.inner.sync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// An [`EventSink`] that records each emitted line in the trace.
struct TracingSink {
    trace: Trace,
}

impl EventSink for TracingSink {
    fn emit(&self, line: String) {
        self.trace.lock().unwrap().push(format!("emit {line}"));
    }
}

/// The trace entries about the tenant: its log's appends and syncs, and
/// its emitted events.
fn tenant_entries(trace: &Trace) -> Vec<String> {
    let emitted = format!("emit {{\"tenant\":{},", json::escaped(TENANT));
    (trace.lock().unwrap().iter())
        .filter(|e| e.ends_with(&format!(" {LOG}")) || e.starts_with(&emitted))
        .cloned()
        .collect()
}

/// The tenant's emitted events, untagged back to solo-session lines.
fn untagged(entries: &[String]) -> Vec<String> {
    let prefix = format!("emit {{\"tenant\":{},\"seq\":", json::escaped(TENANT));
    (entries.iter())
        .filter_map(|e| e.strip_prefix(&prefix))
        .map(|rest| format!("{{{}", rest.split_once(',').unwrap().1))
        .collect()
}

fn set_line(row: usize, city: &str) -> String {
    format!(r#"{{"tenant":"{TENANT}","op":"set","row":{row},"attr":"city","value":"{city}"}}"#)
}

#[test]
fn a_claimed_run_syncs_once_and_answers_after_the_sync() {
    let trace = Trace::default();
    let io = TracingIo {
        inner: MemIo::new(),
        trace: trace.clone(),
    };
    let server = Server::durable(
        Arc::new(io),
        "/srv",
        ServerOptions {
            workers: 1,
            ..ServerOptions::default()
        },
        Arc::new(NoProtocolOpens),
        Arc::new(TracingSink {
            trace: trace.clone(),
        }),
    );
    server.open_with(TENANT, || Ok(engine())).unwrap();
    server.drain();
    let opened = tenant_entries(&trace).len();

    // Park the lone worker behind a tenant whose cold build blocks, so the
    // k sets and the check queue up and one drain job claims them all. The
    // tenant is fresh: its first append creates the log.
    let (release, parked) = mpsc::channel::<()>();
    server
        .open_with("parker", move || {
            let _ = parked.recv();
            Ok(engine())
        })
        .unwrap();
    let k = 5;
    let mut script: Vec<String> = (0..k).map(|i| set_line(i, &format!("City {i}"))).collect();
    script.push(format!(r#"{{"tenant":"{TENANT}","op":"check"}}"#));
    for line in &script {
        server.submit(line);
    }
    release.send(()).unwrap();
    server.drain();

    let entries = tenant_entries(&trace);
    assert!(
        entries[..opened].iter().all(|e| e.starts_with("emit ")),
        "the open leaves no log behind: {entries:#?}"
    );
    let run = &entries[opened..];
    let appends = run.iter().filter(|e| e.starts_with("append ")).count();
    let syncs: Vec<usize> = (0..run.len())
        .filter(|&i| run[i].starts_with("sync "))
        .collect();
    let emits: Vec<usize> = (0..run.len())
        .filter(|&i| run[i].starts_with("emit "))
        .collect();
    assert_eq!(
        appends, k,
        "one append per set, none for the check: {run:#?}"
    );
    assert_eq!(
        syncs.len(),
        1,
        "one sync for the whole run, the fresh log's header included: {run:#?}"
    );
    assert_eq!(emits.len(), k + 1, "one answer per command: {run:#?}");
    assert!(
        emits.iter().all(|&i| i > syncs[0]),
        "every answer follows the sync: {run:#?}"
    );

    // A lone command while the worker is free: append, sync, emit.
    let lone = set_line(1, "Los Angeles");
    server.submit(&lone);
    server.drain();
    script.push(lone);
    let entries = tenant_entries(&trace);
    let tail: Vec<&str> = entries[opened + run.len()..]
        .iter()
        .map(|e| e.split_once(' ').unwrap().0)
        .collect();
    assert_eq!(tail, ["append", "sync", "emit"], "{entries:#?}");

    // The answers themselves are the solo session's, byte for byte.
    let mut solo = Vec::new();
    let input = std::io::Cursor::new(script.join("\n"));
    run_session_with(
        RepairEngine::from_engine(engine(), RepairOptions::default()),
        input,
        &mut solo,
    )
    .unwrap();
    let solo: Vec<String> = solo.lines().map(Result::unwrap).collect();
    assert_eq!(untagged(&entries), solo);
    server.shutdown();
}
