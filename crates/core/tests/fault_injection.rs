//! Deterministic fault-injection property suite for the durability layer.
//!
//! The write sequence `pfd session --snapshot` runs — a [`Session`] opening
//! (and checkpointing) a fresh store, a run of logged edits, a final
//! checkpoint — is executed against [`FailpointIo`], whose *fuel* budget
//! makes it crash after any chosen number of written bytes or metadata
//! operations (the torn prefix of the failing write still lands, exactly
//! as a power loss would leave it). Sweeping the fuel from 0 to the total
//! consumption of an uninterrupted run simulates a crash at **every**
//! point of the sequence, and after each simulated crash recovery must:
//!
//! * never panic, whatever the surviving files look like;
//! * restore a state equal to the base engine plus a *prefix* of the
//!   edit script;
//! * restore a prefix at least as long as what the session acknowledged
//!   (an edit's `delta` event is only written after its WAL append
//!   returned `Ok`).
//!
//! The sweep samples ~100 crash points by default; set
//! `PFD_FAULT_EXHAUSTIVE=1` to test every single fuel value (CI does this
//! nightly). A property test layers random edit scripts and random crash
//! fractions on top of the fixed script.

use std::convert::Infallible;
use std::sync::Arc;

use pfd_core::server::NoProtocolOpens;
use pfd_core::{
    replay_log, CollectSink, DeltaEngine, Pfd, RecoveryPolicy, RepairOptions, Server,
    ServerOptions, Session, SessionStore, SnapshotStore,
};
use pfd_relation::{read_csv_str, FailpointIo, MemIo};
use proptest::prelude::*;

const GEO_CSV: &str = "\
zip,city,state
90001,Los Angeles,CA
90001,Los Angeles,CA
90002,Los Angeles,CA
10001,New York,NY
10001,Brooklyn,NY
60601,Chicago,IL
60601,Chicago,WA
94103,San Francisco,CA
";

const SNAP: &str = "/store/geo.pfds";

fn base_engine() -> DeltaEngine {
    let rel = read_csv_str("geo", GEO_CSV).unwrap();
    let schema = rel.schema().clone();
    let pfds = vec![
        Pfd::fd("geo", &schema, &["zip"], &["city"]).unwrap(),
        Pfd::fd("geo", &schema, &["city"], &["state"]).unwrap(),
    ];
    DeltaEngine::new(rel, pfds)
}

fn assert_engines_equal(want: &DeltaEngine, got: &DeltaEngine, ctx: &str) {
    assert_eq!(want.relation(), got.relation(), "{ctx}: relation differs");
    assert_eq!(
        want.relation().version(),
        got.relation().version(),
        "{ctx}: version differs"
    );
    assert_eq!(want.pfds(), got.pfds(), "{ctx}: rules differ");
    assert_eq!(
        want.sorted_violations(),
        got.sorted_violations(),
        "{ctx}: violations differ"
    );
    assert_eq!(
        want.suspect_cells(),
        got.suspect_cells(),
        "{ctx}: suspect cells differ"
    );
}

/// The fixed edit script: session-command JSON lines exactly as the
/// durable session logs them.
fn edit_lines() -> Vec<String> {
    [
        r#"{"op":"set","row":4,"attr":"city","value":"New York"}"#,
        r#"{"op":"set","row":6,"attr":"state","value":"IL"}"#,
        r#"{"op":"insert","cells":["10001","New York","NY"]}"#,
        r#"{"op":"set","row":8,"attr":"zip","value":"10001"}"#,
        r#"{"op":"insert","cells":["60601","Chicago","IL"]}"#,
        r#"{"op":"set","row":0,"attr":"city","value":"LA"}"#,
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Base state plus every prefix of `lines`: `expected[k]` is the engine
/// after the first `k` edits.
fn prefix_states(base: &DeltaEngine, lines: &[String]) -> Vec<DeltaEngine> {
    let mut expected = vec![base.clone()];
    for line in lines {
        let mut next = expected.last().unwrap().clone();
        replay_log(&mut next, line).unwrap();
        expected.push(next);
    }
    expected
}

/// The durable session under test, stopping at the first injected crash:
/// [`Session::open`] on an empty store (cold build from `base`, checkpoint
/// generation 1), [`Session::handle_line`] per edit (WAL append, fsync,
/// then the `delta` event), [`Session::checkpoint`] (generation 2). Returns
/// how many edits were *acknowledged* — answered by a `delta` event.
fn scripted_run(io: Arc<FailpointIo<MemIo>>, base: &DeltaEngine, lines: &[String]) -> usize {
    let store = SessionStore {
        io,
        path: SNAP.into(),
        policy: RecoveryPolicy::Strict,
    };
    let mut out = Vec::new();
    let cold = || Ok::<_, std::io::Error>(base.clone());
    if let Ok(mut session) = Session::open(Some(store), RepairOptions::default(), cold, &mut out) {
        let survived = lines
            .iter()
            .all(|line| session.handle_line(line, &mut out).is_ok());
        if survived {
            let _ = session.checkpoint();
        }
    }
    out.split(|&b| b == b'\n')
        .filter(|line| line.starts_with(br#"{"event":"delta""#))
        .count()
}

/// Fuel of an uninterrupted run — the sweep's upper bound.
fn total_fuel(base: &DeltaEngine, lines: &[String]) -> u64 {
    let probe = Arc::new(FailpointIo::unlimited(MemIo::new()));
    let acked = scripted_run(probe.clone(), base, lines);
    assert_eq!(acked, lines.len(), "unlimited run acknowledges everything");
    probe.consumed()
}

/// Crash points to test: every fuel value under `PFD_FAULT_EXHAUSTIVE=1`,
/// otherwise ~100 evenly spaced points plus the boundaries.
fn fuel_points(total: u64) -> Vec<u64> {
    if std::env::var("PFD_FAULT_EXHAUSTIVE").as_deref() == Ok("1") {
        return (0..=total).collect();
    }
    let step = (total / 96).max(1) as usize;
    let mut points: Vec<u64> = (0..=total).step_by(step).collect();
    points.extend([1, total.saturating_sub(1), total]);
    points.sort_unstable();
    points.dedup();
    points
}

/// Crash the scripted run at `fuel`, then recover under `policy` from the
/// surviving files and check the prefix contract. Returns `None` when
/// strict recovery refused (which it may); panics on any broken invariant.
fn crash_and_recover(
    base: &DeltaEngine,
    lines: &[String],
    expected: &[DeltaEngine],
    fuel: u64,
    policy: RecoveryPolicy,
) -> Option<usize> {
    let disk = MemIo::new();
    let faulty = Arc::new(FailpointIo::with_fuel(disk.clone(), fuel));
    let acked = scripted_run(faulty, base, lines);

    let store = SnapshotStore::new(&disk, SNAP);
    let recovered = match store.recover(policy, || Ok::<_, Infallible>(base.clone())) {
        Ok(r) => r,
        Err(e) => {
            assert!(
                policy == RecoveryPolicy::Strict,
                "fuel {fuel}: salvage recovery failed: {e}"
            );
            return None;
        }
    };
    let m = recovered.seq_floor as usize;
    assert!(
        m >= acked,
        "fuel {fuel}: {acked} edits acknowledged but only {m} recovered"
    );
    assert!(m <= lines.len(), "fuel {fuel}: recovered beyond the script");
    assert_engines_equal(&expected[m], &recovered.engine, &format!("fuel {fuel}"));
    Some(m)
}

#[test]
fn salvage_recovers_an_acknowledged_prefix_at_every_crash_point() {
    let base = base_engine();
    let lines = edit_lines();
    let expected = prefix_states(&base, &lines);
    let total = total_fuel(&base, &lines);
    for fuel in fuel_points(total) {
        crash_and_recover(&base, &lines, &expected, fuel, RecoveryPolicy::Salvage);
    }
    // An uninterrupted run recovers everything, trivially clean.
    let m = crash_and_recover(&base, &lines, &expected, total, RecoveryPolicy::Salvage);
    assert_eq!(m, Some(lines.len()));
}

#[test]
fn strict_recovery_never_panics_and_is_exact_when_it_accepts() {
    let base = base_engine();
    let lines = edit_lines();
    let expected = prefix_states(&base, &lines);
    let total = total_fuel(&base, &lines);
    let mut refused = 0usize;
    for fuel in fuel_points(total) {
        if crash_and_recover(&base, &lines, &expected, fuel, RecoveryPolicy::Strict).is_none() {
            refused += 1;
        }
    }
    // Strict must accept the uninterrupted run...
    let m = crash_and_recover(&base, &lines, &expected, total, RecoveryPolicy::Strict);
    assert_eq!(m, Some(lines.len()));
    // ...and the crash-free-but-unfinished window right before it (the
    // final log remove is the last operation; losing it is lossless).
    let m = crash_and_recover(
        &base,
        &lines,
        &expected,
        total.saturating_sub(1),
        RecoveryPolicy::Strict,
    );
    assert_eq!(m, Some(lines.len()));
    // Some torn-write windows must exist where strict refuses; if none
    // did, the sweep is not exercising the interesting region.
    assert!(refused > 0, "no crash point made strict recovery refuse");
}

// ---------------------------------------------------------------------------
// Randomized scripts and crash fractions
// ---------------------------------------------------------------------------

const ZIPS: [&str; 3] = ["90001", "10001", "60601"];
const CITIES: [&str; 3] = ["Los Angeles", "New York", "Chicago"];
const STATES: [&str; 3] = ["CA", "NY", "IL"];

#[derive(Debug, Clone)]
enum RawOp {
    Set {
        row: usize,
        attr: usize,
        value: usize,
    },
    Insert {
        zip: usize,
        city: usize,
        state: usize,
    },
}

fn raw_op() -> impl Strategy<Value = RawOp> {
    prop_oneof![
        3 => (0usize..32, 0usize..3, 0usize..3)
            .prop_map(|(row, attr, value)| RawOp::Set { row, attr, value }),
        1 => (0usize..3, 0usize..3, 0usize..3)
            .prop_map(|(zip, city, state)| RawOp::Insert { zip, city, state }),
    ]
}

/// Materializes raw ops into session-command lines, folding `Set` rows
/// into the live row count as inserts grow the relation.
fn script_lines(ops: &[RawOp], mut rows: usize) -> Vec<String> {
    ops.iter()
        .map(|op| match op {
            RawOp::Set { row, attr, value } => {
                let (name, pool): (&str, &[&str; 3]) = match attr {
                    0 => ("zip", &ZIPS),
                    1 => ("city", &CITIES),
                    _ => ("state", &STATES),
                };
                format!(
                    "{{\"op\":\"set\",\"row\":{},\"attr\":\"{name}\",\"value\":\"{}\"}}",
                    row % rows,
                    pool[*value]
                )
            }
            RawOp::Insert { zip, city, state } => {
                rows += 1;
                format!(
                    "{{\"op\":\"insert\",\"cells\":[\"{}\",\"{}\",\"{}\"]}}",
                    ZIPS[*zip], CITIES[*city], STATES[*state]
                )
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Multi-tenant server: crash mid-eviction on the per-tenant store layout
// ---------------------------------------------------------------------------

/// The per-tenant family lives under `<root>/<tenant>/state.pfds`.
const SRV_ROOT: &str = "/srv";
const SRV_TENANT: &str = "geo";

fn srv_snap() -> String {
    format!("{SRV_ROOT}/{SRV_TENANT}/state.pfds")
}

/// Route a solo session command to the server's tenant.
fn with_tenant(line: &str) -> String {
    format!("{{\"tenant\":\"{SRV_TENANT}\",{}", &line[1..])
}

/// The server-side write sequence under test: open a durable tenant (initial
/// checkpoint), apply half the edits, **evict it mid-run** (checkpoint +
/// drop), touch it back with the remaining edits (rebuild from the family),
/// shut down (final checkpoint). Returns how many edits were *acknowledged*
/// — a delta event is only emitted after the WAL append returned `Ok`, so
/// counting delta events counts acknowledgements.
fn server_scripted_run(faulty: Arc<FailpointIo<MemIo>>, lines: &[String]) -> usize {
    let sink = Arc::new(CollectSink::new());
    let server = Server::durable(
        faulty,
        SRV_ROOT,
        ServerOptions {
            workers: 1,
            recovery: RecoveryPolicy::Salvage,
            ..ServerOptions::default()
        },
        Arc::new(NoProtocolOpens),
        sink.clone(),
    );
    server
        .open_with(SRV_TENANT, || Ok(base_engine()))
        .expect("fresh tenant name is valid");
    let (head, tail) = lines.split_at(lines.len() / 2);
    for line in head {
        server.submit(&with_tenant(line));
    }
    server.drain();
    let _ = server.evict(SRV_TENANT); // the crash window this test is about
    for line in tail {
        server.submit(&with_tenant(line)); // touch: rebuild from the family
    }
    let _ = server.shutdown(); // drains, then final checkpoint (may also crash)
    sink.take()
        .iter()
        .filter(|l| l.contains("\"event\":\"delta\""))
        .count()
}

#[test]
fn tenant_eviction_survives_a_crash_at_every_fuel_point() {
    let base = base_engine();
    let lines = edit_lines();
    let expected = prefix_states(&base, &lines);

    let total = {
        let probe = Arc::new(FailpointIo::unlimited(MemIo::new()));
        let acked = server_scripted_run(probe.clone(), &lines);
        assert_eq!(acked, lines.len(), "unlimited run acknowledges everything");
        probe.consumed()
    };

    for fuel in fuel_points(total) {
        let disk = MemIo::new();
        let faulty = Arc::new(FailpointIo::with_fuel(disk.clone(), fuel));
        let acked = server_scripted_run(faulty, &lines);

        // Recover from whatever survived in the tenant's directory. WAL
        // sequence numbers run across eviction checkpoints, so the
        // recovered floor is exactly the number of edits incorporated.
        let store = SnapshotStore::new(&disk, srv_snap());
        let recovered = store
            .recover(RecoveryPolicy::Salvage, || {
                Ok::<_, Infallible>(base.clone())
            })
            .unwrap_or_else(|e| panic!("fuel {fuel}: salvage recovery failed: {e}"));
        let m = recovered.seq_floor as usize;
        assert!(
            m >= acked,
            "fuel {fuel}: {acked} edits acknowledged but only {m} recovered"
        );
        assert!(m <= lines.len(), "fuel {fuel}: recovered beyond the script");
        assert_engines_equal(
            &expected[m],
            &recovered.engine,
            &format!("server fuel {fuel}"),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_scripts_survive_random_crash_points(
        ops in proptest::collection::vec(raw_op(), 0..10),
        percent in 0u64..=100,
    ) {
        let base = base_engine();
        let lines = script_lines(&ops, base.relation().num_rows());
        let expected = prefix_states(&base, &lines);
        let total = total_fuel(&base, &lines);
        let fuel = total * percent / 100;
        crash_and_recover(&base, &lines, &expected, fuel, RecoveryPolicy::Salvage);
        crash_and_recover(&base, &lines, &expected, fuel, RecoveryPolicy::Strict);
    }
}
