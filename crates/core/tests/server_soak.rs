//! Concurrency soak tests for the multi-tenant server.
//!
//! Two workloads, both sized to stay well inside the CI time budget:
//!
//! * **Racing submitters** — eight tenants driven by four threads with
//!   coalescing on. The suite must terminate (no deadlock), the executor
//!   must surface no panics, per-tenant `seq` numbers must be dense and
//!   monotonic, and every tenant's final `check` answer must agree with a
//!   naive from-scratch violation recount over its final relation.
//! * **Eviction under load** — the same race against a durable root with
//!   `max_resident` far below the tenant count, coalescing off. Eviction
//!   and rebuild-on-touch must be *stream-transparent*: every tenant's
//!   untagged event stream stays byte-identical to a solo session.
//!
//! Per-tenant determinism under racing comes from ownership: each tenant
//! is driven by exactly one thread, so its command order is fixed while
//! tenants contend freely on the shared executor, the sink, and the LRU.

use std::io::BufRead as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pfd_core::server::NoProtocolOpens;
use pfd_core::session::json;
use pfd_core::{
    run_session_with, CollectSink, DeltaEngine, Pfd, RepairEngine, RepairOptions, Server,
    ServerOptions,
};
use pfd_relation::{MemIo, Relation};

const TENANTS: usize = 8;
const THREADS: usize = 4;

fn name_relation() -> Relation {
    Relation::from_rows(
        "Name",
        &["name", "gender"],
        vec![
            vec!["John Charles", "M"],
            vec!["John Bosco", "M"],
            vec!["Susan Orlean", "F"],
            vec!["Susan Boyle", "M"], // dirty
        ],
    )
    .unwrap()
}

fn gender_pfd(rel: &Relation) -> Pfd {
    let mut pfd =
        Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")
            .unwrap();
    pfd.add_row(pfd_core::TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"]).unwrap())
        .unwrap();
    pfd
}

fn engine() -> DeltaEngine {
    let rel = name_relation();
    let pfds = vec![gender_pfd(&rel)];
    DeltaEngine::new(rel, pfds)
}

/// The per-tenant slice of a sink dump, untagged back to solo-session
/// lines. Asserts the per-tenant `seq` numbers are dense from 0.
fn untag(lines: &[String], tenant: &str) -> Vec<String> {
    let prefix = format!("{{\"tenant\":{},\"seq\":", json::escaped(tenant));
    let mut out = Vec::new();
    for (expect_seq, line) in lines.iter().filter(|l| l.starts_with(&prefix)).enumerate() {
        let rest = &line[prefix.len()..];
        let (seq, rest) = rest.split_once(',').expect("seq then payload");
        assert_eq!(
            seq.parse::<u64>().unwrap(),
            expect_seq as u64,
            "{tenant}: seq numbers must be dense and monotonic from 0"
        );
        out.push(format!("{{{rest}"));
    }
    out
}

/// Deterministic per-thread randomness (no external crates in tests).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn pick<'a>(&mut self, pool: &[&'a str]) -> &'a str {
        pool[self.next() as usize % pool.len()]
    }
}

const NAMES: [&str; 4] = ["John Reed", "John Bosco", "Susan Day", "Ann Lee"];
const GENDERS: [&str; 3] = ["M", "F", "X"];

/// One pseudo-random session command. Mostly edits, with periodic
/// repairs and checks; occasional out-of-range rows exercise the
/// deterministic error path.
fn random_cmd(rng: &mut Lcg) -> String {
    match rng.next() % 10 {
        0 => "{\"op\":\"repair\"}".to_string(),
        1 => "{\"op\":\"check\"}".to_string(),
        2 => format!(
            "{{\"op\":\"insert\",\"cells\":[\"{}\",\"{}\"]}}",
            rng.pick(&NAMES),
            rng.pick(&GENDERS)
        ),
        3 => format!(
            "{{\"op\":\"batch\",\"edits\":[\
             {{\"op\":\"set\",\"row\":{},\"attr\":\"gender\",\"value\":\"{}\"}},\
             {{\"op\":\"set\",\"row\":{},\"attr\":\"name\",\"value\":\"{}\"}}]}}",
            rng.next() % 4,
            rng.pick(&GENDERS),
            rng.next() % 4,
            rng.pick(&NAMES)
        ),
        _ => format!(
            "{{\"op\":\"set\",\"row\":{},\"attr\":\"gender\",\"value\":\"{}\"}}",
            rng.next() % 6,
            rng.pick(&GENDERS)
        ),
    }
}

/// Pre-generate each tenant's script so a racing run stays replayable:
/// tenant `i` always sees the same commands in the same order.
fn tenant_scripts(per_tenant: usize) -> Vec<Vec<String>> {
    (0..TENANTS)
        .map(|i| {
            let mut rng = Lcg(0x9e3779b97f4a7c15 ^ (i as u64).wrapping_mul(0xff51afd7ed558ccd));
            (0..per_tenant).map(|_| random_cmd(&mut rng)).collect()
        })
        .collect()
}

fn with_tenant(tenant: usize, cmd: &str) -> String {
    format!("{{\"tenant\":\"t{tenant}\",{}", &cmd[1..])
}

/// Drive `server` with `scripts`, each thread owning a disjoint slice of
/// tenants and interleaving its tenants' commands step by step.
fn race(server: &Server, scripts: &[Vec<String>]) {
    assert_eq!(scripts.len(), TENANTS);
    std::thread::scope(|scope| {
        let per_thread = TENANTS / THREADS;
        for thread in 0..THREADS {
            scope.spawn(move || {
                let owned = thread * per_thread..(thread + 1) * per_thread;
                let steps = scripts[owned.start].len();
                // `step` strides across several tenants' scripts at once;
                // iterating one script directly would lose the interleave.
                #[allow(clippy::needless_range_loop)]
                for step in 0..steps {
                    for tenant in owned.clone() {
                        server.submit(&with_tenant(tenant, &scripts[tenant][step]));
                    }
                }
            });
        }
    });
    server.drain();
}

/// First integer value of `"key":N` in `line`.
fn field_u64(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat).expect("field present") + pat.len();
    line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn racing_tenants_reach_a_consistent_fixpoint() {
    let start = Instant::now();
    let scripts = tenant_scripts(120);
    let sink = Arc::new(CollectSink::new());
    let server = Server::new(
        ServerOptions {
            workers: 4,
            coalesce: true,
            ..ServerOptions::default()
        },
        Arc::new(NoProtocolOpens),
        sink.clone(),
    );
    for i in 0..TENANTS {
        server.open_with(&format!("t{i}"), || Ok(engine())).unwrap();
    }
    race(&server, &scripts);

    // One final, post-race check per tenant pins the fixpoint.
    for i in 0..TENANTS {
        server.submit(&format!("{{\"tenant\":\"t{i}\",\"op\":\"check\"}}"));
    }
    server.drain();

    let lines = sink.take();
    for i in 0..TENANTS {
        let name = format!("t{i}");
        let stream = untag(&lines, &name); // dense monotonic seqs checked inside
        let last = stream.last().expect("final check answered");
        assert!(
            last.contains("\"event\":\"state\""),
            "{name}: last event is the final check, got {last}"
        );
        // The server's answer must equal a naive recount from scratch.
        let rel = server
            .relation_of(&name)
            .expect("ephemeral tenants stay resident");
        let naive = DeltaEngine::new(rel.clone(), vec![gender_pfd(&rel)]);
        assert_eq!(
            field_u64(last, "violations"),
            naive.sorted_violations().len() as u64,
            "{name}: reported violations diverge from a naive recount"
        );
    }
    assert!(
        start.elapsed() < Duration::from_secs(60),
        "soak exceeded its CI time budget: {:?}",
        start.elapsed()
    );
}

#[test]
fn eviction_under_load_is_stream_transparent() {
    let scripts = tenant_scripts(50);

    // Solo references: each tenant's script through a plain session.
    let solos: Vec<Vec<String>> = scripts
        .iter()
        .map(|script| {
            let mut out = Vec::new();
            run_session_with(
                RepairEngine::from_engine(engine(), RepairOptions::default()),
                std::io::Cursor::new(script.join("\n")),
                &mut out,
            )
            .unwrap();
            out.lines().map(Result::unwrap).collect()
        })
        .collect();

    let sink = Arc::new(CollectSink::new());
    let server = Server::durable(
        Arc::new(MemIo::new()),
        "/soak",
        ServerOptions {
            workers: 4,
            max_resident: 3, // far below TENANTS: constant evict/rebuild churn
            ..ServerOptions::default()
        },
        Arc::new(NoProtocolOpens),
        sink.clone(),
    );
    for i in 0..TENANTS {
        server.open_with(&format!("t{i}"), || Ok(engine())).unwrap();
    }
    race(&server, &scripts);

    assert!(
        server.resident_count() <= 3,
        "idle server must hold the resident cap, got {}",
        server.resident_count()
    );
    let lines = sink.take();
    for (i, solo) in solos.iter().enumerate() {
        let name = format!("t{i}");
        assert_eq!(
            untag(&lines, &name),
            *solo,
            "{name}: eviction/rebuild leaked into the event stream"
        );
    }
    server.shutdown();
}
