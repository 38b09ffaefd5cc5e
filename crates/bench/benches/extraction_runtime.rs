//! Criterion bench for the fragment-extraction hot path: naive
//! all-substrings enumeration (quadratic) vs the affix-only long-value path
//! vs the suffix-automaton extractor, on synthetic free-text values of
//! growing length. Each path is measured twice — raw enumeration, and
//! enumeration **plus interning into a [`FragmentDict`]**, which is what
//! `build_index` actually pays per fragment (one hash of the fragment
//! bytes): the quadratic path's cost explodes in the interning pass, not
//! in the slicing.
//!
//! Besides the human-readable criterion output, the run writes
//! `BENCH_extraction.json` (per length and path, the quartiles and median
//! ms of [`SAMPLES`] timed runs over a fixed batch of values, taken
//! round-robin across the paths; fragments emitted per path) so the
//! extraction trajectory is tracked across PRs alongside
//! `BENCH_discovery.json`.
//! `PFD_BENCH_SMOKE=1` skips the criterion sampling and emits the JSON
//! from a tiny pass — the CI smoke-bench mode. `PFD_BENCH_JSON` overrides
//! the output path.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use pfd_discovery::{ExtractOptions, FragmentDict, FragmentExtractor};
use std::fmt::Write as _;
use std::time::Instant;

/// Deterministic pseudo-random separator-free values with planted repeated
/// motifs — the long free-text shape the suffix-automaton path targets
/// (real columns: addresses squeezed of spaces, DOIs, log payloads).
fn long_values(len: usize, count: usize, seed: u64) -> Vec<String> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let motifs = ["SEC7A", "BLK09", "ZN441", "RT8X2"];
    (0..count)
        .map(|i| {
            let mut v = String::with_capacity(len);
            let motif = motifs[i % motifs.len()];
            while v.chars().count() < len {
                // Alternate a shared motif with filler so every value has
                // genuine interior repeats, as free text does.
                if next() % 3 == 0 {
                    v.push_str(motif);
                } else {
                    for _ in 0..4 {
                        let c = b'a' + (next() % 26) as u8;
                        v.push(c as char);
                    }
                }
            }
            v.truncate(len);
            v
        })
        .collect()
}

/// The naive quadratic reference: every substring of every value.
fn naive_all_substrings(values: &[String], mut f: impl FnMut(&str)) {
    for v in values {
        let n = v.len(); // values are ASCII by construction
        for i in 0..n {
            for j in (i + 1)..=n {
                f(&v[i..j]);
            }
        }
    }
}

fn run_extractor(ex: &mut FragmentExtractor, values: &[String], mut f: impl FnMut(&str)) {
    for v in values {
        ex.for_each(v, |frag, _pos| f(frag));
    }
}

const LENGTHS: &[usize] = &[16, 32, 64, 128, 256];
const VALUES_PER_BATCH: usize = 200;

fn bench_extraction_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("extract_long");
    group.sample_size(10);
    for &len in LENGTHS {
        let values = long_values(len, VALUES_PER_BATCH, 42);
        group.bench_with_input(BenchmarkId::new("naive_full", len), &values, |b, vs| {
            b.iter(|| {
                let mut sink = 0usize;
                naive_all_substrings(black_box(vs), |frag| sink += frag.len());
                black_box(sink)
            })
        });
        group.bench_with_input(
            BenchmarkId::new("suffix_automaton", len),
            &values,
            |b, vs| {
                let mut ex = FragmentExtractor::new(ExtractOptions::default());
                b.iter(|| {
                    let mut sink = 0usize;
                    run_extractor(&mut ex, black_box(vs), |frag| sink += frag.len());
                    black_box(sink)
                })
            },
        );
        // The hot-path shape: every emitted fragment is interned (hashed).
        group.bench_with_input(
            BenchmarkId::new("naive_full_interned", len),
            &values,
            |b, vs| {
                b.iter(|| {
                    let mut dict = FragmentDict::default();
                    naive_all_substrings(black_box(vs), |frag| {
                        black_box(dict.intern(frag));
                    });
                    black_box(dict.len())
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("suffix_automaton_interned", len),
            &values,
            |b, vs| {
                let mut ex = FragmentExtractor::new(ExtractOptions::default());
                b.iter(|| {
                    let mut dict = FragmentDict::default();
                    run_extractor(&mut ex, black_box(vs), |frag| {
                        black_box(dict.intern(frag));
                    });
                    black_box(dict.len())
                })
            },
        );
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_extraction.json
// ---------------------------------------------------------------------------

/// Timed runs of each path per length: a slow spell of a shared host moves
/// a few samples, not the median.
const SAMPLES: usize = 9;

/// `[p25, median, p75]` of a path's samples, in ms.
type Quartiles = [f64; 3];

struct JsonCase {
    len: usize,
    naive_ms: Quartiles,
    affix_ms: Quartiles,
    sam_ms: Quartiles,
    naive_interned_ms: Quartiles,
    sam_interned_ms: Quartiles,
    naive_fragments: usize,
    affix_fragments: usize,
    sam_fragments: usize,
}

fn quartiles(mut samples: Vec<f64>) -> Quartiles {
    samples.sort_by(f64::total_cmp);
    let at = |q: usize| samples[(samples.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
}

/// Time `SAMPLES` runs of every path, one run of each path per round, and
/// return each path's quartiles in order.
fn sample_round_robin(paths: &mut [&mut dyn FnMut() -> usize]) -> Vec<Quartiles> {
    let mut samples = vec![Vec::with_capacity(SAMPLES); paths.len()];
    for _ in 0..SAMPLES {
        for (path, out) in paths.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            black_box(path());
            out.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    samples.into_iter().map(quartiles).collect()
}

fn write_bench_json(smoke: bool) {
    let lengths: &[usize] = if smoke { &[64] } else { LENGTHS };
    let per_batch = if smoke { 50 } else { VALUES_PER_BATCH };
    let mut cases = Vec::new();
    for &len in lengths {
        let values = long_values(len, per_batch, 42);
        let mut naive_fragments = 0usize;
        for v in &values {
            naive_fragments += v.len() * (v.len() + 1) / 2;
        }
        let mut affix = FragmentExtractor::new(ExtractOptions {
            mine_repeats: false,
            ..ExtractOptions::default()
        });
        let mut count_affix = 0usize;
        for v in &values {
            affix.for_each(v, |_, _| count_affix += 1);
        }
        let mut sam = FragmentExtractor::new(ExtractOptions::default());
        let mut count_sam = 0usize;
        for v in &values {
            sam.for_each(v, |_, _| count_sam += 1);
        }
        let mut sam_interned = FragmentExtractor::new(ExtractOptions::default());
        let timed = sample_round_robin(&mut [
            &mut || {
                let mut sink = 0usize;
                naive_all_substrings(&values, |frag| sink += frag.len());
                sink
            },
            &mut || {
                let mut sink = 0usize;
                run_extractor(&mut affix, &values, |frag| sink += frag.len());
                sink
            },
            &mut || {
                let mut sink = 0usize;
                run_extractor(&mut sam, &values, |frag| sink += frag.len());
                sink
            },
            &mut || {
                let mut dict = FragmentDict::default();
                naive_all_substrings(&values, |frag| {
                    dict.intern(frag);
                });
                dict.len()
            },
            &mut || {
                let mut dict = FragmentDict::default();
                run_extractor(&mut sam_interned, &values, |frag| {
                    dict.intern(frag);
                });
                dict.len()
            },
        ]);
        cases.push(JsonCase {
            len,
            naive_ms: timed[0],
            affix_ms: timed[1],
            sam_ms: timed[2],
            naive_interned_ms: timed[3],
            sam_interned_ms: timed[4],
            naive_fragments,
            affix_fragments: count_affix,
            sam_fragments: count_sam,
        });
    }

    let mut json = String::from("{\n  \"schema_version\": 2,\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    let _ = writeln!(
        json,
        "  \"batch\": {{\"values\": {per_batch}, \"samples\": {SAMPLES}, \
         \"ms\": \"[p25, median, p75] of the samples, one run of each path per round\"}},"
    );
    json.push_str(
        "  \"paths\": {\"naive_full\": \"all substrings, O(len^2)\", \
         \"affix_only\": \"prefixes+suffixes, pre-PR4 long-value behavior\", \
         \"suffix_automaton\": \"affixes + mined repeats, O(len*sigma)\", \
         \"*_interned\": \"same enumeration, every fragment interned into a FragmentDict\"},\n",
    );
    json.push_str("  \"cases\": [\n");
    for (i, c) in cases.iter().enumerate() {
        let ms = |q: &Quartiles| format!("[{:.3}, {:.3}, {:.3}]", q[0], q[1], q[2]);
        let _ = write!(
            json,
            "    {{\"len\": {}, \"naive_ms\": {}, \"affix_ms\": {}, \"sam_ms\": {}, \
             \"naive_interned_ms\": {}, \"sam_interned_ms\": {}, \
             \"fragments\": {{\"naive\": {}, \"affix\": {}, \"sam\": {}}}}}",
            c.len,
            ms(&c.naive_ms),
            ms(&c.affix_ms),
            ms(&c.sam_ms),
            ms(&c.naive_interned_ms),
            ms(&c.sam_interned_ms),
            c.naive_fragments,
            c.affix_fragments,
            c.sam_fragments
        );
        json.push_str(if i + 1 < cases.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let path = std::env::var("PFD_BENCH_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_extraction.json", env!("CARGO_MANIFEST_DIR")));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("bench results written to {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}

criterion_group!(benches, bench_extraction_scaling);

fn main() {
    let smoke = std::env::var("PFD_BENCH_SMOKE").is_ok_and(|v| !v.is_empty() && v != "0");
    if !smoke {
        benches();
    }
    write_bench_json(smoke);
}
