//! Criterion bench for the posting-list hot loops: intersection and subset
//! throughput across densities and sizes up to 1M rows, the SSE2 merge
//! kernel against its scalar twin, `PostingList::is_subset` against a
//! scalar merge, and the SWAR text kernels against theirs.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_postings.json` (intersect/subset ns, kernel vs scalar ratios) so
//! the kernel trajectory is tracked across changes next to the other BENCH
//! artifacts. `PFD_BENCH_SMOKE=1` skips criterion sampling and emits the
//! JSON from a reduced-scale pass — the CI smoke-bench mode.
//! `PFD_BENCH_JSON` overrides the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_pattern::simd;
use pfd_relation::{kernels, PostingList};
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

fn bench_intersect(c: &mut Criterion) {
    let mut group = c.benchmark_group("postings_intersect");
    group.sample_size(10);
    for n in [10_000usize, 100_000, 1_000_000] {
        let a = irregular_ids(n, 36, 7);
        let b = irregular_ids(n, 36, 99);
        let mut out = Vec::new();
        group.bench_with_input(BenchmarkId::new("sorted_kernel", n), &n, |bch, _| {
            bch.iter(|| {
                out.clear();
                kernels::intersect_merge(&a, &b, &mut out);
                black_box(out.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("sorted_scalar", n), &n, |bch, _| {
            bch.iter(|| {
                out.clear();
                kernels::intersect_merge_scalar(&a, &b, &mut out);
                black_box(out.len())
            })
        });
    }
    group.finish();
}

fn bench_text_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("text_kernels");
    group.sample_size(10);
    let corpus: Vec<String> = (0..1000)
        .map(|i| format!("Record Value {i:06} with a Mixed-Case tail XYZXYZ"))
        .collect();
    group.bench_function("eq_swar", |b| {
        b.iter(|| {
            corpus
                .iter()
                .filter(|s| simd::eq_bytes(s.as_bytes(), corpus[500].as_bytes()))
                .count()
        })
    });
    group.bench_function("eq_scalar", |b| {
        b.iter(|| {
            corpus
                .iter()
                .filter(|s| simd::eq_bytes_scalar(s.as_bytes(), corpus[500].as_bytes()))
                .count()
        })
    });
    group.bench_function("contains_swar", |b| {
        b.iter(|| {
            corpus
                .iter()
                .filter(|s| simd::contains_bytes(s.as_bytes(), b"XYZXYZ"))
                .count()
        })
    });
    group.bench_function("contains_scalar", |b| {
        b.iter(|| {
            corpus
                .iter()
                .filter(|s| simd::contains_bytes_scalar(s.as_bytes(), b"XYZXYZ"))
                .count()
        })
    });
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_postings.json
// ---------------------------------------------------------------------------

struct IntersectCase {
    rows: usize,
    density: &'static str,
    sorted_kernel_ns: f64,
    sorted_scalar_ns: f64,
    subset_ns: f64,
    subset_scalar_ns: f64,
}

/// ns per intersection (amortised over `reps`) for one size/density shape.
fn intersect_case(n: usize, density: &'static str, max_gap: u32, reps: usize) -> IntersectCase {
    let a = irregular_ids(n, max_gap, 7);
    let b = irregular_ids(n, max_gap, 99);
    let universe = universe_for(&a);
    let la = PostingList::from_sorted(a.clone(), universe);
    let mut out: Vec<u32> = Vec::new();

    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / reps as f64
    };

    let sorted_kernel_ns = time(&mut || {
        out.clear();
        kernels::intersect_merge(&a, &b, &mut out);
        black_box(out.len());
    });
    let sorted_scalar_ns = time(&mut || {
        out.clear();
        kernels::intersect_merge_scalar(&a, &b, &mut out);
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
        sorted_kernel_ns,
        sorted_scalar_ns,
        subset_ns,
        subset_scalar_ns,
    }
}

struct TextCase {
    kernel: &'static str,
    swar_ns: f64,
    scalar_ns: f64,
}

fn text_cases(reps: usize) -> Vec<TextCase> {
    let corpus: Vec<String> = (0..1000)
        .map(|i| format!("Record Value {i:06} with a Mixed-Case tail XYZXYZ"))
        .collect();
    let needle = corpus[500].clone();
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e9 / (reps * corpus.len()) as f64
    };

    let mut out = Vec::new();
    let swar = time(&mut || {
        black_box(
            corpus
                .iter()
                .filter(|s| simd::eq_bytes(s.as_bytes(), needle.as_bytes()))
                .count(),
        );
    });
    let scalar = time(&mut || {
        black_box(
            corpus
                .iter()
                .filter(|s| simd::eq_bytes_scalar(s.as_bytes(), needle.as_bytes()))
                .count(),
        );
    });
    out.push(TextCase {
        kernel: "eq_bytes",
        swar_ns: swar,
        scalar_ns: scalar,
    });

    let swar = time(&mut || {
        black_box(
            corpus
                .iter()
                .filter(|s| simd::contains_bytes(s.as_bytes(), b"XYZXYZ"))
                .count(),
        );
    });
    let scalar = time(&mut || {
        black_box(
            corpus
                .iter()
                .filter(|s| simd::contains_bytes_scalar(s.as_bytes(), b"XYZXYZ"))
                .count(),
        );
    });
    out.push(TextCase {
        kernel: "contains_bytes",
        swar_ns: swar,
        scalar_ns: scalar,
    });
    out
}

fn write_bench_json(smoke: bool) {
    let (isect, text) = if smoke {
        (
            vec![intersect_case(10_000, "sparse", 120, 20)],
            text_cases(5),
        )
    } else {
        (
            vec![
                intersect_case(10_000, "sparse", 120, 200),
                intersect_case(100_000, "sparse", 120, 50),
                intersect_case(100_000, "tight", 36, 50),
                intersect_case(1_000_000, "sparse", 120, 10),
                intersect_case(1_000_000, "tight", 36, 10),
            ],
            text_cases(50),
        )
    };

    let mut json = String::from("{\n  \"schema_version\": 3,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str(
        "  \"reference\": {\"label\": \"scalar merge over plain sorted u32 runs\", \
         \"metric\": \"ns_per_op\"},\n",
    );
    // Receipt for which merge-kernel dispatch ran on this machine — the
    // `sorted_kernel_ns` numbers are meaningless without it.
    let _ = writeln!(
        json,
        "  \"merge_kernel\": \"{}\",",
        kernels::merge_kernel_name()
    );
    json.push_str("  \"intersect\": [\n");
    for (i, c) in isect.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"rows\": {}, \"density\": \"{}\", \
             \"sorted_kernel_ns\": {:.0}, \"sorted_scalar_ns\": {:.0}, \
             \"subset_ns\": {:.0}, \"subset_scalar_ns\": {:.0}}}",
            c.rows,
            c.density,
            c.sorted_kernel_ns,
            c.sorted_scalar_ns,
            c.subset_ns,
            c.subset_scalar_ns
        );
        json.push_str(if i + 1 < isect.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"text_kernels\": [\n");
    for (i, t) in text.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"kernel\": \"{}\", \"swar_ns_per_string\": {:.2}, \
             \"scalar_ns_per_string\": {:.2}, \"speedup\": {:.2}}}",
            t.kernel,
            t.swar_ns,
            t.scalar_ns,
            t.scalar_ns / t.swar_ns
        );
        json.push_str(if i + 1 < text.len() { ",\n" } else { "\n" });
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
            "intersect {:>9} rows {:>7}: kernel {:>10.0} ns, scalar {:>10.0} ns; \
             is_subset {:>10.0} ns, scalar {:>10.0} ns",
            c.density,
            c.rows,
            c.sorted_kernel_ns,
            c.sorted_scalar_ns,
            c.subset_ns,
            c.subset_scalar_ns
        );
    }
    for t in &text {
        println!(
            "text {:>16}: swar {:>7.2} ns/str, scalar {:>7.2} ns/str ({:.2}x)",
            t.kernel,
            t.swar_ns,
            t.scalar_ns,
            t.scalar_ns / t.swar_ns
        );
    }
}

criterion_group!(benches, bench_intersect, bench_text_kernels);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
