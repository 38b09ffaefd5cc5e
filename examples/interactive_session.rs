//! A scripted steward session: the interactive cleaning loop of the
//! paper's ANMAT demo (§4.5), driven end to end through the JSONL session
//! protocol — edit, observe the violation delta, repair, verify clean.
//!
//! Run: `cargo run --example interactive_session`

use pfd::core::{repair, run_session, DeltaEngine, Edit, Pfd, TableauRow};
use pfd::relation::Relation;
use std::io::Cursor;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Table 1 of the paper, with the erroneous r4 (Susan Boyle, M).
    let rel = Relation::from_rows(
        "Name",
        &["name", "gender"],
        vec![
            vec!["John Charles", "M"],
            vec!["John Bosco", "M"],
            vec!["Susan Orlean", "F"],
            vec!["Susan Boyle", "M"],
        ],
    )?;

    // ψ1: constant first names determine gender.
    let mut psi1 =
        Pfd::constant_normal_form("Name", rel.schema(), "name", r"[John\ ]\A*", "gender", "M")?;
    psi1.add_row(TableauRow::parse(&[r"[Susan\ ]\A*"], &["F"])?)?;

    // -------------------------------------------------------------------
    // 1. The JSONL protocol, exactly as `pfd session` speaks it on stdin.
    // -------------------------------------------------------------------
    let script = concat!(
        // Another Susan arrives. r4's violation stays, but its group grew:
        // the delta lists it under `regrouped` with the new statistics.
        "{\"op\":\"insert\",\"cells\":[\"Susan Miller\",\"F\"]}\n",
        // The steward fixes r4 — its violation resolves.
        "{\"op\":\"set\",\"row\":3,\"attr\":\"gender\",\"value\":\"F\"}\n",
        // A new record arrives with a typo — a violation appears live.
        "{\"op\":\"insert\",\"cells\":[\"John Doe\",\"F\"]}\n",
        // One batch: fix the typo and retire an old record. The engine
        // coalesces the invalidations and reconciles each group once.
        "{\"op\":\"batch\",\"edits\":[",
        "{\"op\":\"set\",\"row\":5,\"attr\":\"gender\",\"value\":\"M\"},",
        "{\"op\":\"delete\",\"row\":1}]}\n",
    );
    println!("== steward session (JSONL in → JSONL out) ==");
    for line in script.lines() {
        println!("→ {line}");
    }
    println!();
    let mut transcript = Vec::new();
    let (cleaned, summary) = run_session(
        rel.clone(),
        vec![psi1.clone()],
        Cursor::new(script),
        &mut transcript,
    )?;
    for line in String::from_utf8(transcript)?.lines() {
        println!("← {line}");
    }
    assert_eq!(summary.applied, 4);
    assert_eq!(summary.violations, 0, "the session ends clean");
    assert!(psi1.satisfies(&cleaned));

    // -------------------------------------------------------------------
    // 2. The same loop through the DeltaEngine API, plus pattern-directed
    //    repair for the fixes the steward does not want to type by hand.
    // -------------------------------------------------------------------
    println!("\n== DeltaEngine API: observe a delta, then auto-repair ==");
    let mut engine = DeltaEngine::new(rel, vec![psi1.clone()]);
    println!(
        "initial violations: {} (r4 disagrees with the Susan row)",
        engine.violation_count()
    );
    let delta = engine.apply(Edit::Set {
        row: 0,
        attr: engine.relation().schema().attr("gender")?,
        value: "F".into(),
    })?;
    println!(
        "after breaking r1[gender]: +{} / -{} / {} regrouped (version {})",
        delta.introduced.len(),
        delta.resolved.len(),
        delta.regrouped.len(),
        delta.version
    );
    assert_eq!(engine.violation_count(), 2);

    let outcome = repair(&engine.relation().clone(), engine.pfds());
    println!(
        "pattern-directed repair applies {} fixes:",
        outcome.fixes.len()
    );
    for fix in &outcome.fixes {
        println!("  r{}[gender]: {:?} → {:?}", fix.row + 1, fix.old, fix.new);
    }
    assert!(psi1.satisfies(&outcome.relation));
    println!("relation satisfies ψ1 again — session closed.");
    Ok(())
}
