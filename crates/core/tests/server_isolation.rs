//! Tenant-isolation property suite for the multi-tenant server.
//!
//! The pinned contract: a [`Server`] hosting N tenants is observationally
//! identical to N independent single-tenant sessions. For random per-tenant
//! command scripts — interleaved round-robin across tenants on submission,
//! racing on the shared executor — every tenant's untagged event stream
//! must be **byte-identical** to the stream a solo [`run_session_with`]
//! produces for the same script, and the final relations must match
//! cell-for-cell. Invalid commands are kept in the mix on purpose: their
//! error events are part of the observable stream and must round-trip too.

use std::io::BufRead as _;
use std::sync::Arc;

use pfd_core::server::NoProtocolOpens;
use pfd_core::session::json;
use pfd_core::{
    run_session_with, CollectSink, DeltaEngine, Pfd, RepairEngine, RepairOptions, Server,
    ServerOptions,
};
use pfd_relation::Relation;
use proptest::prelude::*;

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
            "per-tenant seq numbers are dense from 0"
        );
        out.push(format!("{{{rest}"));
    }
    out
}

const NAMES: [&str; 4] = ["John Reed", "John Bosco", "Susan Day", "Ann Lee"];
const GENDERS: [&str; 3] = ["M", "F", "X"];

/// One random session command. Rows range past the initial relation so
/// out-of-range errors (and rows created by inserts) are exercised; the
/// resulting event stream is deterministic either way.
fn cmd() -> impl Strategy<Value = String> {
    let set = (0usize..6, any::<bool>(), 0usize..4, 0usize..3).prop_map(|(row, name, ni, gi)| {
        let (attr, value) = if name {
            ("name", NAMES[ni])
        } else {
            ("gender", GENDERS[gi])
        };
        format!("{{\"op\":\"set\",\"row\":{row},\"attr\":\"{attr}\",\"value\":\"{value}\"}}")
    });
    let insert = (0usize..4, 0usize..3).prop_map(|(ni, gi)| {
        format!(
            "{{\"op\":\"insert\",\"cells\":[\"{}\",\"{}\"]}}",
            NAMES[ni], GENDERS[gi]
        )
    });
    let delete = (0usize..6).prop_map(|row| format!("{{\"op\":\"delete\",\"row\":{row}}}"));
    let batch = (0usize..6, 0usize..3, 0usize..4).prop_map(|(row, gi, ni)| {
        format!(
            "{{\"op\":\"batch\",\"edits\":[\
             {{\"op\":\"set\",\"row\":{row},\"attr\":\"gender\",\"value\":\"{}\"}},\
             {{\"op\":\"insert\",\"cells\":[\"{}\",\"M\"]}}]}}",
            GENDERS[gi], NAMES[ni]
        )
    });
    prop_oneof![
        5 => set,
        1 => insert,
        1 => delete,
        1 => batch,
        1 => Just("{\"op\":\"repair\"}".to_string()),
        2 => Just("{\"op\":\"check\"}".to_string()),
    ]
}

/// Two to four tenants, each with its own script of up to a dozen commands.
fn scripts() -> impl Strategy<Value = Vec<Vec<String>>> {
    proptest::collection::vec(proptest::collection::vec(cmd(), 0..12), 2..5)
}

/// Solo reference run: the single-tenant session over `script`, returning
/// its event lines and final relation.
fn solo_run(script: &[String]) -> (Vec<String>, Relation) {
    let mut out = Vec::new();
    let (repairer, _summary) = run_session_with(
        RepairEngine::from_engine(engine(), RepairOptions::default()),
        std::io::Cursor::new(script.join("\n")),
        &mut out,
    )
    .unwrap();
    let lines = out.lines().map(Result::unwrap).collect();
    (lines, repairer.relation().clone())
}

fn assert_relations_equal(want: &Relation, got: &Relation, tenant: &str) {
    assert_eq!(
        want.num_rows(),
        got.num_rows(),
        "{tenant}: row count differs"
    );
    assert_eq!(want.version(), got.version(), "{tenant}: version differs");
    for ((row, w), (_, g)) in want.iter_rows().zip(got.iter_rows()) {
        assert_eq!(w.to_vec(), g.to_vec(), "{tenant}: row {row} differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn multi_tenant_server_matches_solo_sessions(scripts in scripts()) {
        let solos: Vec<(Vec<String>, Relation)> =
            scripts.iter().map(|s| solo_run(s)).collect();

        let sink = Arc::new(CollectSink::new());
        let server = Server::new(
            ServerOptions { workers: 3, ..ServerOptions::default() },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        for i in 0..scripts.len() {
            server.open_with_engine(&format!("t{i}"), engine()).unwrap();
        }
        // Round-robin interleave: step k submits command k of every
        // tenant, so the tenants genuinely race on the executor while
        // each tenant's own command order is preserved.
        let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, script) in scripts.iter().enumerate() {
                if let Some(cmd) = script.get(step) {
                    server.submit(&format!("{{\"tenant\":\"t{i}\",{}", &cmd[1..]));
                }
            }
        }
        server.drain();

        let lines = sink.take();
        let exits = server.shutdown();
        prop_assert_eq!(exits.len(), scripts.len());
        for (i, (solo_lines, solo_rel)) in solos.iter().enumerate() {
            let name = format!("t{i}");
            let stream = untag(&lines, &name);
            prop_assert_eq!(&stream, solo_lines, "tenant {} stream diverged", name);
            let exit = exits.iter().find(|e| e.name == name).unwrap();
            assert_relations_equal(
                solo_rel,
                exit.relation.as_ref().expect("ephemeral tenants keep their relation"),
                &name,
            );
        }
        // Nothing in the dump may belong to an unknown tenant.
        prop_assert!(
            lines.iter().all(|l| l.starts_with("{\"tenant\":")),
            "untagged line in server dump"
        );
    }
}
