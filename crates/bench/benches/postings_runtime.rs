//! Criterion bench for the posting-list hot loops: intersection and subset
//! throughput of sorted runs up to 1M rows, and `PostingList::is_subset`
//! against a linear scan.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_postings.json` (intersect/subset ns) so the posting-list
//! trajectory is tracked across changes next to the other BENCH
//! artifacts. `PFD_BENCH_SMOKE=1` skips criterion sampling and emits the
//! JSON from a reduced-scale pass — the CI smoke-bench mode.
//! `PFD_BENCH_JSON` overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_relation::PostingList;
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic gap stream (splitmix-style LCG) for irregular postings.
fn gaps(seed: u64, max_gap: u32) -> impl FnMut() -> u32 {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % max_gap as u64 + 1) as u32
    }
}

/// `n` ascending ids with irregular gaps in `1..=max_gap`.
fn irregular_ids(n: usize, max_gap: u32, seed: u64) -> Vec<u32> {
    let mut next = gaps(seed, max_gap);
    let mut ids = Vec::with_capacity(n);
    let mut id = 0u32;
    for _ in 0..n {
        id += next();
        ids.push(id);
    }
    ids
}

fn universe_for(ids: &[u32]) -> usize {
    ids.last().map_or(1, |m| *m as usize + 1)
}

// ---------------------------------------------------------------------------
// Criterion groups (full mode only)
// ---------------------------------------------------------------------------

/// Two balanced sorted-tier lists of `n` irregular ids: the shape that
/// runs the merge rather than the gallop.
fn balanced_pair(n: usize, max_gap: u32) -> (PostingList, PostingList) {
    let a = irregular_ids(n, max_gap, 7);
    let b = irregular_ids(n, max_gap, 99);
    let universe = universe_for(&a).max(universe_for(&b));
    let la = PostingList::from_sorted(a, universe);
    let lb = PostingList::from_sorted(b, universe);
    assert!(
        !la.is_dense_repr() && !lb.is_dense_repr(),
        "n={n} gap={max_gap}"
    );
    (la, lb)
}

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("postings_intersect");
    group.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let (a, b) = balanced_pair(n, 36);
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("sorted", n), &n, |bch, _| {
            bch.iter(|| {
                a.intersect_into(&b, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_postings.json
// ---------------------------------------------------------------------------

struct IntersectCase {
    rows: usize,
    density: &'static str,
    sorted_ns: f64,
    subset_ns: f64,
    subset_scalar_ns: f64,
}

/// ns per intersection (amortised over `reps`) for one size/density shape.
fn intersect_case(n: usize, density: &'static str, max_gap: u32, reps: usize) -> IntersectCase {
    let (la, lb) = balanced_pair(n, max_gap);
    let a = la.to_vec();
    let universe = la.universe();
    let mut out: Vec<u32> = Vec::new();

    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / reps as f64
    };

    let sorted_ns = time(&mut || {
        la.intersect_into(&lb, &mut out);
        black_box(out.len());
    });

    // Subset probes: a genuine every-other-id subset against its superset.
    let sub: Vec<u32> = a.iter().copied().step_by(2).collect();
    let ls = PostingList::from_sorted(sub.clone(), universe);
    let subset_ns = time(&mut || {
        black_box(ls.is_subset(&la));
    });
    let subset_scalar_ns = time(&mut || {
        let mut it = a.iter();
        black_box(sub.iter().all(|x| it.any(|y| y == x)));
    });

    IntersectCase {
        rows: n,
        density,
        sorted_ns,
        subset_ns,
        subset_scalar_ns,
    }
}

fn write_bench_json(smoke: bool) {
    let isect = if smoke {
        vec![intersect_case(10_000, "sparse", 120, 20)]
    } else {
        vec![
            intersect_case(10_000, "sparse", 120, 200),
            intersect_case(100_000, "sparse", 120, 50),
            intersect_case(100_000, "tight", 36, 50),
            intersect_case(1_000_000, "sparse", 120, 10),
            intersect_case(1_000_000, "tight", 36, 10),
        ]
    };

    let mut json = String::from("{\n  \"schema_version\": 4,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str(
        "  \"reference\": {\"label\": \"linear subset scan over plain sorted u32 runs\", \
         \"metric\": \"ns_per_op\"},\n",
    );
    json.push_str("  \"intersect\": [\n");
    for (i, c) in isect.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"density\": \"{}\", \"sorted_ns\": {:.0}, \
             \"subset_ns\": {:.0}, \"subset_scalar_ns\": {:.0}}}",
            c.rows, c.density, c.sorted_ns, c.subset_ns, c.subset_scalar_ns
        );
        json.push_str(if i + 1 < isect.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_postings.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
    for c in &isect {
        println!(
            "intersect {:>9} rows {:>7}: sorted {:>10.0} ns; \
             is_subset {:>10.0} ns, scalar {:>10.0} ns",
            c.density, c.rows, c.sorted_ns, c.subset_ns, c.subset_scalar_ns
        );
    }
}

criterion_group!(benches, bench_intersect);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
