//! Client-replay property for the `delta` event contract.
//!
//! A client keeps the violations of the session's `ready` event keyed by
//! suspect cell (PFD, tableau row, kind, attribute, offending row) and
//! applies each answer's `resolved`, `regrouped` and `introduced` lists the
//! way `docs/OPERATIONS.md` describes. After every command its view must
//! equal the violations the session's `state` event lists. Scripts mix
//! sets, inserts, deletes and batches over one to three PFDs, plus
//! majority walks in the style of the serve benchmark's `hot` tenant: half
//! a group's rows move to a new RHS value and back, so the majority — and
//! with it every tuple pair's partner — shifts on each edit.

use std::collections::BTreeMap;
use std::io::Cursor;

use pfd_core::session::json::{self, Value};
use pfd_core::{run_session, Edit, Pfd, TableauRow};
use pfd_relation::{AttrId, Relation, RowId, Schema};
use proptest::prelude::*;

const ATTRS: [&str; 3] = ["p", "q", "r"];

fn cell_value() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("ax".to_string()),
        Just("bx".to_string()),
    ]
}

fn small_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(proptest::collection::vec(cell_value(), 3), 0..14).prop_map(|rows| {
        let mut rel = Relation::empty(Schema::new("R", ATTRS).unwrap());
        for row in rows {
            rel.push_row(row).unwrap();
        }
        rel
    })
}

/// Candidate PFDs: a plain FD and a two-attribute-RHS FD (pair
/// semantics), a constant PFD (single-tuple semantics) and a prefix PFD
/// with two tableau rows.
fn candidate_pfds(schema: &Schema) -> Vec<Pfd> {
    let fd = Pfd::fd("R", schema, &["p"], &["q"]).unwrap();
    let wide = Pfd::fd("R", schema, &["p"], &["q", "r"]).unwrap();
    let constant = Pfd::constant_normal_form("R", schema, "q", "a", "r", "b").unwrap();
    let mut prefix = Pfd::constant_normal_form("R", schema, "p", r"[a]\A*", "r", "_").unwrap();
    prefix
        .add_row(TableauRow::parse(&[r"[b]\A*"], &["_"]).unwrap())
        .unwrap();
    vec![fd, wide, constant, prefix]
}

/// One drawn command; rows are folded into the live row count when the
/// script is materialized.
#[derive(Debug, Clone)]
enum RawCmd {
    Set(usize, usize, String),
    Insert(Vec<String>),
    Delete(usize),
    Batch(Vec<RawCmd>),
    /// Walk the majority of the `p` group holding this row.
    Walk(usize, usize),
}

fn raw_edit() -> impl Strategy<Value = RawCmd> {
    prop_oneof![
        4 => (0usize..32, 0usize..3, cell_value()).prop_map(|(r, a, v)| RawCmd::Set(r, a, v)),
        1 => proptest::collection::vec(cell_value(), 3).prop_map(RawCmd::Insert),
        1 => (0usize..32).prop_map(RawCmd::Delete),
    ]
}

fn raw_cmd() -> impl Strategy<Value = RawCmd> {
    prop_oneof![
        6 => raw_edit(),
        1 => proptest::collection::vec(raw_edit(), 1..6).prop_map(RawCmd::Batch),
        2 => (0usize..32, 1usize..3).prop_map(|(r, a)| RawCmd::Walk(r, a)),
    ]
}

/// Turn a drawn edit into a valid one against `rel`, applying it there.
fn materialize(raw: &RawCmd, rel: &mut Relation) -> Option<Edit> {
    let n = rel.num_rows();
    let edit = match raw {
        RawCmd::Set(r, a, v) if n > 0 => Edit::Set {
            row: r % n,
            attr: AttrId(*a),
            value: v.clone(),
        },
        RawCmd::Insert(cells) => Edit::Insert {
            cells: cells.clone(),
        },
        RawCmd::Delete(r) if n > 0 => Edit::Delete { row: r % n },
        _ => return None,
    };
    apply(rel, &edit);
    Some(edit)
}

fn apply(rel: &mut Relation, edit: &Edit) {
    match edit {
        Edit::Set { row, attr, value } => {
            rel.set_cell(*row, *attr, value.clone()).unwrap();
        }
        Edit::Insert { cells } => {
            rel.push_row(cells.clone()).unwrap();
        }
        Edit::Delete { row } => {
            rel.delete_row(*row).unwrap();
        }
    }
}

/// A majority walk: the first half (plus one) of the rows sharing `p` with
/// `row` take a new value of `attr` one by one, then get their old values
/// back in reverse order.
fn walk(row: usize, attr: usize, rel: &mut Relation) -> Vec<Edit> {
    if rel.num_rows() == 0 {
        return Vec::new();
    }
    let (p, attr) = (AttrId(0), AttrId(attr));
    let key = rel.cell(row % rel.num_rows(), p).to_string();
    let group: Vec<RowId> = (0..rel.num_rows())
        .filter(|&r| rel.cell(r, p) == key)
        .collect();
    let moved = &group[..group.len() / 2 + 1];
    let old: Vec<String> = moved
        .iter()
        .map(|&r| rel.cell(r, attr).to_string())
        .collect();
    let sets = moved.iter().map(|&r| (r, "moved".to_string()));
    let back = moved.iter().zip(old).rev().map(|(&r, v)| (r, v));
    let mut edits = Vec::new();
    for (row, value) in sets.chain(back) {
        let edit = Edit::Set { row, attr, value };
        apply(rel, &edit);
        edits.push(edit);
    }
    edits
}

/// The script as command lines, each with the edits it applies; a walk
/// sends one command per set.
fn script(rel: &Relation, raw: &[RawCmd]) -> Vec<(String, Vec<Edit>)> {
    let mut sim = rel.clone();
    let single = |e: Edit| (edit_json(&e), vec![e]);
    let mut cmds = Vec::new();
    for cmd in raw {
        match cmd {
            RawCmd::Batch(edits) => {
                let edits: Vec<Edit> = (edits.iter())
                    .filter_map(|e| materialize(e, &mut sim))
                    .collect();
                let inner: Vec<String> = edits.iter().map(edit_json).collect();
                let line = format!("{{\"op\":\"batch\",\"edits\":[{}]}}", inner.join(","));
                cmds.push((line, edits));
            }
            RawCmd::Walk(row, attr) => {
                cmds.extend(walk(*row, *attr, &mut sim).into_iter().map(single))
            }
            edit => cmds.extend(materialize(edit, &mut sim).map(single)),
        }
    }
    cmds
}

fn edit_json(edit: &Edit) -> String {
    match edit {
        Edit::Set { row, attr, value } => format!(
            "{{\"op\":\"set\",\"row\":{row},\"attr\":\"{}\",\"value\":{}}}",
            ATTRS[attr.index()],
            json::escaped(value)
        ),
        Edit::Insert { cells } => {
            let cells: Vec<String> = cells.iter().map(|c| json::escaped(c)).collect();
            format!("{{\"op\":\"insert\",\"cells\":[{}]}}", cells.join(","))
        }
        Edit::Delete { row } => format!("{{\"op\":\"delete\",\"row\":{row}}}"),
    }
}

/// A violation as the client holds it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct Held {
    pfd: usize,
    tableau_row: usize,
    kind: String,
    attr: String,
    group_size: usize,
    majority_size: usize,
    rows: Vec<usize>,
    cells: Vec<(usize, String)>,
}

/// A suspect cell: PFD, tableau row, kind, attribute, offending row.
type Suspect = (usize, usize, String, String, usize);

fn index(v: &Value, key: &str) -> usize {
    v.get(key).and_then(Value::as_index).unwrap()
}

fn text(v: &Value, key: &str) -> String {
    v.get(key).and_then(Value::as_str).unwrap().to_string()
}

fn list<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key).and_then(Value::as_arr).unwrap_or(&[])
}

impl Held {
    fn parse(v: &Value) -> Held {
        Held {
            pfd: index(v, "pfd"),
            tableau_row: index(v, "tableau_row"),
            kind: text(v, "kind"),
            attr: text(v, "attr"),
            group_size: index(v, "group_size"),
            majority_size: index(v, "majority_size"),
            rows: list(v, "rows")
                .iter()
                .map(|r| r.as_index().unwrap())
                .collect(),
            cells: list(v, "cells")
                .iter()
                .map(|c| (index(c, "row"), text(c, "attr")))
                .collect(),
        }
    }

    fn suspect(&self) -> Suspect {
        let row = *self.rows.last().unwrap();
        (
            self.pfd,
            self.tableau_row,
            self.kind.clone(),
            self.attr.clone(),
            row,
        )
    }

    fn mentions(&self, row: usize) -> bool {
        self.rows.contains(&row)
    }

    fn renumber(&mut self, deleted: usize) {
        let shift = |r: &mut usize| *r -= usize::from(*r > deleted);
        self.rows.iter_mut().for_each(shift);
        self.cells.iter_mut().for_each(|(r, _)| shift(r));
    }
}

/// The client: every violation of the last state, by suspect cell.
struct Client {
    held: BTreeMap<Suspect, Held>,
}

impl Client {
    fn new(state: &Value) -> Client {
        let mut client = Client {
            held: BTreeMap::new(),
        };
        for v in list(state, "state") {
            client.introduce(Held::parse(v));
        }
        client
    }

    fn introduce(&mut self, h: Held) {
        let prior = self.held.insert(h.suspect(), h);
        assert!(prior.is_none(), "two violations share a suspect cell");
    }

    /// Apply the `delta` answer of a command that applied `edits`.
    fn apply(&mut self, delta: &Value, edits: &[Edit]) {
        // A delete drops the violations naming the row — the delta lists
        // them as resolved, with the ids they had — and shifts the rest.
        let mut dropped: Vec<Held> = Vec::new();
        for edit in edits {
            if let Edit::Delete { row } = *edit {
                let held = std::mem::take(&mut self.held);
                for (_, mut h) in held {
                    if h.mentions(row) {
                        dropped.push(h);
                    } else {
                        h.renumber(row);
                        self.held.insert(h.suspect(), h);
                    }
                }
            }
        }
        for v in list(delta, "resolved") {
            let h = Held::parse(v);
            match dropped.iter().position(|d| *d == h) {
                Some(i) => {
                    dropped.swap_remove(i);
                }
                None => assert_eq!(self.held.remove(&h.suspect()), Some(h), "resolved unknown"),
            }
        }
        assert!(
            dropped.is_empty(),
            "a deleted row's violation went unreported"
        );
        for record in list(delta, "regrouped") {
            let partner = record.get("partner").and_then(Value::as_index);
            let rows: Vec<usize> = list(record, "rows")
                .iter()
                .map(|r| r.as_index().unwrap())
                .collect();
            assert!(
                !rows.is_empty() && rows.windows(2).all(|w| w[0] < w[1]),
                "{rows:?}"
            );
            for row in rows {
                let key = (
                    index(record, "pfd"),
                    index(record, "tableau_row"),
                    text(record, "kind"),
                    text(record, "attr"),
                    row,
                );
                let mut h = self.held.remove(&key).expect("regrouped violation is held");
                let before = h.clone();
                if let Some(new) = partner {
                    let old = h.rows[0];
                    h.rows[0] = new;
                    h.cells
                        .iter_mut()
                        .filter(|c| c.0 == old)
                        .for_each(|c| c.0 = new);
                }
                h.group_size = index(record, "group_size");
                h.majority_size = index(record, "majority_size");
                assert_ne!(before, h, "a regrouped violation changed");
                self.introduce(h);
            }
        }
        for v in list(delta, "introduced") {
            self.introduce(Held::parse(v));
        }
    }

    fn view(&self) -> Vec<Held> {
        let mut view: Vec<Held> = self.held.values().cloned().collect();
        view.sort();
        view
    }
}

/// Run `raw` through a session, answering a `check` after every command,
/// and replay the answers on a client.
fn replay(rel: Relation, pfds: Vec<Pfd>, raw: &[RawCmd]) -> Result<usize, TestCaseError> {
    let cmds = script(&rel, raw);
    let mut input = String::new();
    for (line, _) in &cmds {
        input.push_str(line);
        input.push_str("\n{\"op\":\"check\"}\n");
    }
    let mut out = Vec::new();
    run_session(rel, pfds, Cursor::new(input), &mut out).unwrap();
    let events: Vec<Value> = std::str::from_utf8(&out)
        .unwrap()
        .lines()
        .map(|l| json::parse(l).unwrap())
        .collect();
    prop_assert_eq!(events.len(), 1 + 2 * cmds.len());
    prop_assert_eq!(text(&events[0], "event"), "ready");
    let mut client = Client::new(&events[0]);
    let mut regrouped = 0;
    for ((line, edits), answer) in cmds.iter().zip(events[1..].chunks(2)) {
        let (delta, state) = (&answer[0], &answer[1]);
        prop_assert_eq!(text(delta, "event"), "delta", "{}", line);
        prop_assert_eq!(text(state, "event"), "state");
        client.apply(delta, edits);
        regrouped += list(delta, "regrouped").len();
        let mut expect: Vec<Held> = list(state, "state").iter().map(Held::parse).collect();
        expect.sort();
        prop_assert_eq!(client.view(), expect, "client diverged after {}", line);
        prop_assert_eq!(index(delta, "violations"), client.held.len());
    }
    Ok(regrouped)
}

proptest! {
    #[test]
    fn client_replaying_deltas_tracks_the_state(
        rel in small_relation(),
        mask in 1usize..16,
        raw in proptest::collection::vec(raw_cmd(), 0..10),
    ) {
        let candidates = candidate_pfds(rel.schema());
        let mut pfds: Vec<Pfd> = (0..4)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| candidates[i].clone())
            .collect();
        pfds.truncate(3);
        replay(rel, pfds, &raw)?;
    }
}

/// A fixed majority walk regroups tuple pairs: every edit moves the first
/// row of the group's majority partition, the partner of each pair.
#[test]
fn majority_walk_regroups_partners() {
    let rows: Vec<Vec<&str>> = (0..9)
        .map(|i| vec!["a", if i < 6 { "x" } else { "y" }, "b"])
        .collect();
    let rel = Relation::from_rows("R", &ATTRS, rows).unwrap();
    let pfds = vec![Pfd::fd("R", rel.schema(), &["p"], &["q"]).unwrap()];
    let regrouped = replay(rel, pfds, &[RawCmd::Walk(0, 1)]).unwrap();
    assert!(regrouped > 0, "the walk moved the majority's first row");
}
