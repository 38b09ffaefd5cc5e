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
//!
//! A second property fuzzes the wire: hostile lines (over-deep nesting,
//! out-of-range rows, bad escapes, unknown ops and tenants, non-object
//! JSON, truncated lines, random bytes) are mixed into the interleaved
//! stream. The server must not panic, must answer each line it cannot
//! route with one untagged `error` event, and must keep every tenant's
//! stream equal to its solo session's.

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
            server.open_with(&format!("t{i}"), || Ok(engine())).unwrap();
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

/// SplitMix64: one `u64` seed per case reproduces every hostile line the
/// case draws.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// One hostile line. Some name one of the open tenants `t0`, `t1`, …,
/// some name none; [`route`] decides where each lands.
fn hostile_line(rng: &mut Mix, tenants: usize) -> String {
    let tag = format!("{{\"tenant\":\"t{}\",", rng.below(tenants));
    match rng.below(10) {
        0 => {
            // Nesting past the parser's depth cap, sometimes far past it.
            let spread = if rng.below(8) == 0 { 5000 } else { 8 };
            let depth = json::MAX_DEPTH + 1 + rng.below(spread);
            let (open, close) = if rng.below(2) == 0 {
                ("[", "]")
            } else {
                ("{\"a\":", "}")
            };
            format!(
                "{tag}\"op\":\"set\",\"row\":0,\"attr\":\"name\",\"value\":{}0{}}}",
                open.repeat(depth),
                close.repeat(depth)
            )
        }
        1 => {
            let row = rng.pick(&["1e999", "-1", "4294967296", "18446744073709551616", "0.5"]);
            if rng.below(2) == 0 {
                format!("{tag}\"op\":\"delete\",\"row\":{row}}}")
            } else {
                format!("{tag}\"op\":\"set\",\"row\":{row},\"attr\":\"gender\",\"value\":\"M\"}}")
            }
        }
        2 => {
            let escape = rng.pick(&[r"\q", r"\x41", r"\u12", r"\u12G4", r"\'", r"\U0041"]);
            format!("{tag}\"op\":\"set\",\"row\":0,\"attr\":\"name\",\"value\":\"a{escape}b\"}}")
        }
        3 => {
            let escape = rng.pick(&[r"\ud800", r"\udbff", r"\udc00", r"\ud800\u0041", r"\ud800x"]);
            format!("{tag}\"op\":\"set\",\"row\":0,\"attr\":\"name\",\"value\":\"{escape}\"}}")
        }
        4 => {
            let op = rng.pick(&[
                "\"frobnicate\"",
                "\"\"",
                "\"SET\"",
                "7",
                "null",
                "[\"set\"]",
            ]);
            if rng.below(4) == 0 {
                tag.replace(',', "}")
            } else {
                format!("{tag}\"op\":{op}}}")
            }
        }
        5 => {
            let name = format!("t{}", tenants + rng.below(3));
            let name = rng.pick(&[&name, "nobody", "default", "T0"]).to_string();
            let op = rng.pick(&["check", "close", "repair", "frobnicate"]);
            format!("{{\"tenant\":\"{name}\",\"op\":\"{op}\"}}")
        }
        6 => {
            let long = "x".repeat(65);
            let name = rng.pick(&[
                "\"../etc\"",
                "\"a b\"",
                "\"\"",
                "\"t0/x\"",
                "\"\\u00e9\"",
                "5",
                "null",
                "[\"t0\"]",
            ]);
            let name = if rng.below(6) == 0 {
                format!("\"{long}\"")
            } else {
                name.to_string()
            };
            let op = rng.pick(&["open", "check", "set"]);
            format!("{{\"tenant\":{name},\"op\":\"{op}\"}}")
        }
        7 => rng
            .pick(&[
                "[]",
                "[1,2]",
                "\"t0\"",
                "42",
                "null",
                "true",
                "-0.5e3",
                "[{\"op\":\"check\"}]",
            ])
            .to_string(),
        8 => {
            let whole =
                format!("{tag}\"op\":\"set\",\"row\":1,\"attr\":\"gender\",\"value\":\"F\"}}");
            whole[..1 + rng.below(whole.len() - 1)].to_string()
        }
        _ => {
            // Random printable bytes, never blank.
            let len = 1 + rng.below(48);
            (0..len)
                .map(|i| {
                    let lo = if i == 0 { b'!' } else { b' ' };
                    char::from(lo + rng.below(usize::from(b'~' - lo) + 1) as u8)
                })
                .collect()
        }
    }
}

fn rows(rel: &Relation) -> Vec<Vec<&str>> {
    rel.iter_rows().map(|(_, row)| row.to_vec()).collect()
}

/// Where `Server::submit` must send `line`: `Some(i)` for the open tenant
/// `t{i}`; `None` when the server answers it with one untagged error
/// (unparsable JSON, a non-string or absent tenant, an unknown or invalid
/// tenant name).
fn route(line: &str, tenants: usize) -> Option<usize> {
    let value = json::parse(line.trim()).ok()?;
    let name = value.get("tenant")?.as_str()?;
    (0..tenants).find(|i| name == format!("t{i}"))
}

proptest! {
    #[test]
    fn hostile_lines_leave_tenants_isolated(scripts in scripts(), seed in any::<u64>()) {
        let tenants = scripts.len();
        // The tenants' own commands, round-robin as above, with hostile
        // lines drawn from `seed` spliced in at random points.
        let mut stream: Vec<String> = Vec::new();
        let longest = scripts.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (i, script) in scripts.iter().enumerate() {
                if let Some(cmd) = script.get(step) {
                    stream.push(format!("{{\"tenant\":\"t{i}\",{}", &cmd[1..]));
                }
            }
        }
        let mut rng = Mix(seed);
        for _ in 0..1 + rng.below(2 * stream.len() + 4) {
            let line = hostile_line(&mut rng, tenants);
            let at = rng.below(stream.len() + 1);
            stream.insert(at, line);
        }
        // A routed hostile line joins its tenant's oracle script verbatim:
        // the tenant's session sees the same line a solo session does.
        let routes: Vec<Option<usize>> = stream.iter().map(|l| route(l, tenants)).collect();
        let solos: Vec<(Vec<String>, Relation)> = (0..tenants)
            .map(|i| {
                let script: Vec<String> = stream
                    .iter()
                    .zip(&routes)
                    .filter(|(_, r)| **r == Some(i))
                    .map(|(l, _)| l.clone())
                    .collect();
                solo_run(&script)
            })
            .collect();

        let sink = Arc::new(CollectSink::new());
        let server = Server::new(
            ServerOptions { workers: 3, ..ServerOptions::default() },
            Arc::new(NoProtocolOpens),
            sink.clone(),
        );
        for i in 0..tenants {
            server.open_with(&format!("t{i}"), || Ok(engine())).unwrap();
        }
        for line in &stream {
            server.submit(line);
        }
        let panics = server.drain_report();
        prop_assert!(panics.is_empty(), "seed {seed:#x}: worker panics {panics:?}");

        let lines = sink.take();
        let exits = server.shutdown();
        prop_assert_eq!(exits.len(), tenants);
        let unrouted: Vec<&String> = lines.iter().filter(|l| !l.starts_with("{\"tenant\":")).collect();
        let expected = routes.iter().filter(|r| r.is_none()).count();
        prop_assert_eq!(unrouted.len(), expected, "seed {:#x}: untagged events {:?}", seed, unrouted);
        for event in &unrouted {
            let value = json::parse(event).unwrap();
            prop_assert_eq!(value.get("event").and_then(json::Value::as_str), Some("error"), "{}", event);
            prop_assert!(value.get("seq").is_none(), "seed {seed:#x}: {event}");
        }
        let mut tagged = 0;
        for (i, (solo_lines, solo_rel)) in solos.iter().enumerate() {
            let name = format!("t{i}");
            let stream = untag(&lines, &name);
            tagged += stream.len();
            prop_assert_eq!(&stream, solo_lines, "seed {:#x}: tenant {} stream diverged", seed, name);
            let exit = exits.iter().find(|e| e.name == name).unwrap();
            let rel = exit.relation.as_ref().expect("ephemeral tenants keep their relation");
            prop_assert_eq!(rel.version(), solo_rel.version(), "seed {:#x}: {}", seed, name);
            prop_assert_eq!(rows(rel), rows(solo_rel), "seed {:#x}: {} relation", seed, name);
        }
        prop_assert_eq!(tagged + unrouted.len(), lines.len(), "seed {:#x}: stray events", seed);
    }
}
