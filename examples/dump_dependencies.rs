//! Dump the discovered dependency sets of the standard suite in a stable
//! text form — the regression oracle for perf work on the discovery hot
//! path: before/after outputs must be byte-identical.
//!
//! ```sh
//! cargo run --release --example dump_dependencies > deps.txt
//! ```
//!
//! With `--snapshot DIR`, each dataset's index is persisted to
//! `DIR/<id>.pfdi` and the run goes through the warm path (cold build +
//! save on first run, index load on the next), so the oracle also covers
//! warm-start discovery:
//!
//! ```sh
//! cargo run --release --example dump_dependencies > cold.txt
//! cargo run --release --example dump_dependencies -- --snapshot idx/ > save.txt
//! cargo run --release --example dump_dependencies -- --snapshot idx/ > warm.txt
//! diff cold.txt save.txt && diff cold.txt warm.txt
//! ```

use pfd::core::display_with_schema;
use pfd::datagen::{standard_suite, Scale};
use pfd::discovery::{discover, discover_persistent, DiscoveryConfig, DiscoveryResult};
use pfd::relation::StdIo;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let snapshot_dir = args.iter().position(|a| a == "--snapshot").map(|i| {
        args.get(i + 1).cloned().unwrap_or_else(|| {
            eprintln!("--snapshot needs a directory argument");
            std::process::exit(2);
        })
    });
    if let Some(dir) = &snapshot_dir {
        std::fs::create_dir_all(dir).expect("create snapshot dir");
    }

    let suite = standard_suite(Scale::Small, 0.01, 42);
    let config = DiscoveryConfig::default();
    for ds in &suite {
        let result: DiscoveryResult = match &snapshot_dir {
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!("{}.pfdi", ds.id));
                let warm = discover_persistent(&StdIo, &path, &ds.dirty, &config, 0, 0);
                // Route path notes to stderr so stdout stays byte-stable.
                match (&warm.fallback, warm.result.stats.index_loaded) {
                    (_, true) => {
                        eprintln!("{}: warm ({:?})", ds.id, warm.result.stats.index_load_time)
                    }
                    (Some(fb), false) => eprintln!("{}: cold ({fb})", ds.id),
                    (None, false) => eprintln!("{}: cold", ds.id),
                }
                warm.result
            }
            None => discover(&ds.dirty, &config),
        };
        println!("== {} ({} rows)", ds.id, ds.dirty.num_rows());
        for dep in &result.dependencies {
            let (lhs, rhs) = dep.embedded_names(&ds.dirty);
            println!(
                "{:?} -> {} [{:?}] coverage={} constant_rows={}",
                lhs, rhs, dep.kind, dep.coverage, dep.constant_rows
            );
            println!("  {}", display_with_schema(&dep.pfd, ds.dirty.schema()));
        }
    }
}
