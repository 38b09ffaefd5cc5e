//! End-to-end cleaning benchmark for the `pfd` binary.
//!
//! ```text
//! cleanbench --pfd <path/to/pfd> --work <dir> --workload <name> --seed <n>
//!            --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, drives the release `pfd`
//! binary through discover, the warm sweep, check, repair and a durable
//! serve run, measures open-loop serve latency in-process, checks every
//! output against in-process oracles and prints one JSON object as its
//! last line. With `--trace 1` it also times the library layers under each
//! command on the same inputs and prints those metrics instead. See
//! `README.md` next to this crate for the workloads and metrics.

mod inputs;
mod layers;
mod legs;
mod openloop;
mod plan;
mod proc;
mod stats;

use legs::Record;
use plan::{Plan, SWEEP};
use stats::{max, median, min, quantile};
use std::path::PathBuf;
use std::time::Instant;

/// Rounds of the timed phase run at least this often, however long
/// `--seconds` is.
const MIN_ROUNDS: usize = 3;

struct Args {
    pfd: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut pfd, mut work, mut workload, mut seed, mut seconds, mut trace) =
        (None, None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--pfd" => pfd = Some(PathBuf::from(value)),
            "--work" => work = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed: not an integer")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "--seconds: not a number")?),
            "--trace" => trace = Some(value == "1"),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !plan::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {:?}",
            plan::WORKLOADS
        ));
    }
    Ok(Args {
        pfd: pfd.ok_or("--pfd is required")?,
        work: work.ok_or("--work is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// A metric as printed: name, value, unit.
pub struct Metric(pub &'static str, pub f64, pub &'static str);

fn print_result(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|Metric(name, value, unit)| {
            // JSON has no NaN/inf; a missing measurement prints as null.
            let v = if value.is_finite() {
                format!("{value}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// The machine and configuration every result is recorded with.
fn receipt(plan: &Plan, args: &Args) {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "receipt: workload={} seed={} nproc={nproc} merge_kernel={} rustc=\"{rustc}\" commit={commit} \
         fsync=per-command (wal SyncPolicy::Always) serve_workers={nproc} (default) \
         offered_rate={}/s discover_parallel=false",
        plan.workload,
        args.seed,
        pfd_relation::kernels::merge_kernel_name(),
        plan.rate
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(proc::SPAWN_FLAG) {
        proc::launch(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cleanbench: {e}");
            std::process::exit(2);
        }
    };
    // Children run inside the work directory, so every path they get is
    // absolute or relative to it.
    let pfd = std::fs::canonicalize(&args.pfd).unwrap_or_else(|e| {
        eprintln!("cleanbench: pfd binary {}: {e}", args.pfd.display());
        std::process::exit(2);
    });
    std::fs::create_dir_all(&args.work).expect("create work root");
    let work = std::fs::canonicalize(&args.work).expect("work root resolves");
    let dir = work.join(format!("{}-{}", args.workload, args.seed));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = plan::prepare(&args.workload, args.seed, &dir);
    receipt(&plan, &args);
    println!(
        "inputs: {} ({} rows, {} dirty cells), serve tenants {}",
        plan.batch.csv,
        plan.batch.dirty.num_rows(),
        plan.batch.error_cells,
        plan.tenants
            .iter()
            .map(|t| format!("{} ({} rows)", t.name, t.initial.relation().num_rows()))
            .collect::<Vec<_>>()
            .join(", ")
    );

    let script_cmds = plan::commands(&plan.tenants, plan.script_sets, plan.check_every);
    let script_replay = plan::replay(&plan.tenants, &script_cmds);
    let latency_cmds = plan::commands(&plan.tenants, plan.latency_sets, plan.check_every);
    let latency_replay = plan::replay(&plan.tenants, &latency_cmds);
    legs::write_script(&plan, "opens.jsonl", &[]);
    legs::write_script(&plan, "serve.jsonl", &script_cmds);

    let pfd = pfd.as_path();
    let mut rec = Record::default();
    let mut latencies = Vec::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() < args.seconds {
        // Set-up first, once per round so its samples spread over the run
        // like every other leg's: the snapshot run leaves `s.pfds` + `.pfdi`
        // behind for the warm sweep.
        legs::snapshot_setup(pfd, &plan, &mut rec);
        legs::serve_open(pfd, &plan, &mut rec);
        // The batch commands take turns, so the samples of each one spread
        // over the round rather than sitting in one burst: the shared host
        // runs in fast and slow spells of a few seconds.
        let reps = &plan.reps;
        let turns = reps
            .discover
            .max(reps.check)
            .max(reps.repair)
            .max(SWEEP.len());
        for turn in 0..turns {
            if turn < reps.discover {
                legs::discover_cold(pfd, &plan, &mut rec);
            }
            if let Some(&setting) = SWEEP.get(turn) {
                legs::discover_warm(
                    pfd,
                    &plan,
                    &mut rec,
                    setting,
                    &plan.expect_sweep_lines[turn],
                );
            }
            if turn < reps.check {
                legs::check(pfd, &plan, &mut rec);
            }
            if turn < reps.repair {
                legs::repair(pfd, &plan, &mut rec);
            }
        }
        // A second opens-only sample per round: serve set-up is short, and
        // its median is reported as is.
        legs::serve_open(pfd, &plan, &mut rec);
        legs::serve_script(pfd, &plan, &mut rec, &script_cmds, &script_replay);
        latencies.push(openloop::run(
            &plan,
            &mut rec,
            &latency_cmds,
            &latency_replay,
        ));
        rounds += 1;
    }

    // The shared host runs in fast and slow spells whose shares change from
    // run to run, and a slow spell only ever adds time. So every timed
    // metric but set-up reports its best sample of the run (a dozen or more
    // spread over the whole run); set-up reports its median.
    let setup_s = if plan.setup_is_serve {
        median(&rec.serve_open_s)
    } else {
        median(&rec.snapshot_setup_s)
    };
    let open_s = min(&rec.serve_open_s);
    let edits_per_s: Vec<f64> = rec
        .serve_runs
        .iter()
        .map(|r| r.sets as f64 / (r.wall_s - open_s))
        .collect();
    let bytes_per_edit: Vec<f64> = rec
        .serve_runs
        .iter()
        .map(|r| r.delta_bytes.iter().sum::<usize>() as f64 / r.sets as f64)
        .collect();
    let set_ms: Vec<f64> = latencies.iter().flat_map(|l| l.set_ms.clone()).collect();
    let check_ms: Vec<f64> = latencies.iter().flat_map(|l| l.check_ms.clone()).collect();
    let lag_ms: Vec<f64> = latencies.iter().flat_map(|l| l.lag_ms.clone()).collect();
    // A stall of the shared disk delays every command queued behind it for
    // as long as it lasts, and the disk stalls in spells, so open-loop
    // latency reports the median of the round that no stall reached.
    let round_p50 = |of: fn(&openloop::Latency) -> &Vec<f64>| {
        min(&latencies.iter().map(|l| median(of(l))).collect::<Vec<_>>())
    };
    let set_p50_ms = round_p50(|l| &l.set_ms);
    println!(
        "serve: set p50 per round {:?} ms",
        latencies
            .iter()
            .map(|l| median(&l.set_ms))
            .collect::<Vec<_>>()
    );
    let check_p50_ms = round_p50(|l| &l.check_ms);
    println!(
        "serve walls: opens fastest {open_s:.4} s, scripted {:?} s",
        rec.serve_runs.iter().map(|r| r.wall_s).collect::<Vec<_>>()
    );
    if let Some(run) = rec.serve_runs.first() {
        let per_tenant: Vec<String> = plan
            .tenants
            .iter()
            .enumerate()
            .map(|(t, tenant)| {
                let sets = script_cmds
                    .iter()
                    .filter(|c| c.tenant == t && c.edit.is_some())
                    .count();
                format!(
                    "{} {:.0}",
                    tenant.name,
                    run.delta_bytes[t] as f64 / sets as f64
                )
            })
            .collect();
        println!("delta bytes per edit: {}", per_tenant.join(", "));
    }
    println!(
        "rounds={rounds} serve: {} set and {} check latency samples at {}/s offered; \
         generator lateness p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        set_ms.len(),
        check_ms.len(),
        plan.rate,
        median(&lag_ms),
        quantile(&lag_ms, 0.99),
        max(&lag_ms)
    );

    for (name, samples) in [
        ("setup_snapshot_s", &rec.snapshot_setup_s),
        ("setup_serve_open_s", &rec.serve_open_s),
        ("discover_s", &rec.discover_s),
        ("discover_warm_s", &rec.discover_warm_s),
        ("check_s", &rec.check_s),
        ("repair_s", &rec.repair_s),
        ("serve_edits_per_s", &edits_per_s),
    ] {
        println!(
            "samples: {name} n={} min={:.6} p25={:.6} median={:.6} max={:.6}",
            samples.len(),
            min(samples),
            quantile(samples, 0.25),
            median(samples),
            max(samples)
        );
    }

    let failed = rec.failures.len();
    let correct = failed == 0;
    let metrics = if args.trace {
        let mut m = layers::run(&plan, &rec, &latencies, &script_cmds);
        // Open-loop tails swing too much between runs on a shared host to
        // bound, so they are reported here rather than end to end. So is
        // the check median: a check waits in its tenant's queue behind the
        // previous set's fsync, and swings with the disk.
        m.extend([
            Metric("serve.openloop.check_p50_ms", check_p50_ms, "ms"),
            Metric("serve.openloop.set_p90_ms", quantile(&set_ms, 0.90), "ms"),
            Metric("serve.openloop.set_p99_ms", quantile(&set_ms, 0.99), "ms"),
            Metric(
                "serve.openloop.check_p90_ms",
                quantile(&check_ms, 0.90),
                "ms",
            ),
            Metric(
                "serve.openloop.check_p99_ms",
                quantile(&check_ms, 0.99),
                "ms",
            ),
            Metric(
                "serve.openloop.lateness_p99_ms",
                quantile(&lag_ms, 0.99),
                "ms",
            ),
        ]);
        m
    } else {
        vec![
            Metric("setup_s", setup_s, "s"),
            Metric("discover_s", min(&rec.discover_s), "s"),
            Metric("discover_warm_s", min(&rec.discover_warm_s), "s"),
            Metric("check_s", min(&rec.check_s), "s"),
            Metric("repair_s", min(&rec.repair_s), "s"),
            Metric("peak_rss_mb", rec.peak_rss_mb, "MB"),
            Metric("serve_edits_per_s", max(&edits_per_s), "1/s"),
            Metric("serve_bytes_per_edit", median(&bytes_per_edit), "B"),
            Metric("serve_set_p50_ms", set_p50_ms, "ms"),
            Metric("discover_recall", plan.discover_recall, "fraction"),
            Metric("repair_precision", rec.repair_precision, "fraction"),
            Metric("repair_recall", rec.repair_recall, "fraction"),
        ]
    };
    let _ = std::fs::remove_dir_all(&dir);
    print_result(correct, rec.attempted, failed, &metrics);
    if !correct {
        std::process::exit(1);
    }
}
