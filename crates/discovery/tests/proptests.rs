//! Property-based tests for discovery: index invariants, determinism, the
//! δ-noise guarantee on discovered tableaux, and semantic equivalence of
//! the interned/compact hot-path representations against naive reference
//! implementations (owned strings + plain row vectors).

use pfd_discovery::{
    build_index, discover, frequent_within, ngrams, tokens, DiscoveryConfig, IndexOptions,
};
use pfd_relation::{AttrId, Extraction, PostingList, Relation, RowId, Schema};
use proptest::prelude::*;
use std::collections::HashMap;

fn zip_like() -> impl Strategy<Value = String> {
    (0u32..4, 0u32..100).prop_map(|(p, s)| {
        let prefix = ["900", "606", "100", "303"][p as usize];
        format!("{prefix}{s:02}")
    })
}

fn city_for(zip: &str) -> &'static str {
    match &zip[..3] {
        "900" => "Los Angeles",
        "606" => "Chicago",
        "100" => "New York",
        _ => "Atlanta",
    }
}

fn zip_city_relation() -> impl Strategy<Value = Relation> {
    proptest::collection::vec(zip_like(), 20..60).prop_map(|zips| {
        let mut rel = Relation::empty(Schema::new("Z", ["zip", "city"]).unwrap());
        for z in zips {
            let c = city_for(&z).to_string();
            rel.push_row(vec![z, c]).unwrap();
        }
        rel
    })
}

/// The pre-interning index construction: owned `String` keys, `Vec<RowId>`
/// row sets, no pruning. The ground truth the compact index must match.
fn naive_index(
    rel: &Relation,
    attr: AttrId,
    extraction: Extraction,
) -> HashMap<(String, u32), Vec<RowId>> {
    let mut map: HashMap<(String, u32), Vec<RowId>> = HashMap::new();
    for (rid, _) in rel.iter_rows() {
        let value = rel.cell(rid, attr);
        let fragments: Vec<(&str, u32)> = match extraction {
            Extraction::Tokenize => tokens(value),
            Extraction::NGrams => ngrams(value),
        };
        for (frag, pos) in fragments {
            let rows = map.entry((frag.to_string(), pos)).or_default();
            if rows.last() != Some(&rid) {
                rows.push(rid);
            }
        }
    }
    map
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn index_forward_reverse_agree(rel in zip_city_relation()) {
        for attr in [AttrId(0), AttrId(1)] {
            for extraction in [Extraction::NGrams, Extraction::Tokenize] {
                let idx = build_index(&rel, attr, extraction, &IndexOptions::default());
                // Reverse index agrees with forward index both ways.
                for (ei, e) in idx.entries.iter().enumerate() {
                    for rid in e.rows.iter() {
                        prop_assert!(idx.entries_of_row(rid as usize).contains(&(ei as u32)));
                    }
                }
                for rid in 0..idx.num_rows() {
                    for &ei in idx.entries_of_row(rid) {
                        prop_assert!(idx.entries[ei as usize].rows.contains(rid));
                    }
                }
                // Row lists iterate strictly ascending (sorted + deduped).
                for e in &idx.entries {
                    let ids = e.rows.to_vec();
                    prop_assert!(ids.windows(2).all(|w| w[0] < w[1]));
                    prop_assert_eq!(ids.len(), e.rows.len());
                }
            }
        }
    }

    #[test]
    fn interned_index_matches_naive_string_index(rel in zip_city_relation()) {
        // The arena/symbol/posting-list representation must be semantically
        // identical to the owned-String construction it replaced: same
        // (pattern, pos) → row-set mapping before pruning.
        for attr in [AttrId(0), AttrId(1)] {
            for extraction in [Extraction::NGrams, Extraction::Tokenize] {
                let reference = naive_index(&rel, attr, extraction);
                let idx = build_index(
                    &rel,
                    attr,
                    extraction,
                    &IndexOptions { substring_pruning: false, ..IndexOptions::default() },
                );
                prop_assert_eq!(idx.entries.len(), reference.len());
                for e in &idx.entries {
                    let key = (idx.pattern_str(e).to_string(), e.pos);
                    let expect = reference.get(&key);
                    prop_assert!(expect.is_some(), "missing {:?}", key);
                    let got: Vec<RowId> = e.rows.iter().map(|r| r as RowId).collect();
                    prop_assert_eq!(expect.unwrap(), &got, "{:?}", key);
                    // Cached char count agrees with the resolved string.
                    prop_assert_eq!(e.chars as usize, idx.pattern_str(e).chars().count());
                }
            }
        }
    }

    #[test]
    fn frequent_within_matches_naive_counting(
        rel in zip_city_relation(),
        subset_mask in proptest::collection::vec(any::<bool>(), 60),
    ) {
        // Dense-scatter counting over the CSR reverse index must reproduce
        // per-entry counts computed the slow way from the forward index.
        let attr = AttrId(0);
        let idx = build_index(&rel, attr, Extraction::NGrams, &IndexOptions::default());
        let rows: Vec<u32> = (0..rel.num_rows())
            .filter(|&r| subset_mask.get(r).copied().unwrap_or(false))
            .map(|r| r as u32)
            .collect();
        let subset = PostingList::from_sorted(rows.clone(), rel.num_rows());
        let result = frequent_within(&idx, &subset, 2);
        for &(ei, count) in &result {
            let expect = rows
                .iter()
                .filter(|&&r| idx.entries[ei as usize].rows.contains(r as RowId))
                .count();
            prop_assert_eq!(count, expect);
            prop_assert!(count >= 2);
        }
        // Ordering: count desc, then char length desc, then entry id asc.
        for pair in result.windows(2) {
            let (e1, c1) = pair[0];
            let (e2, c2) = pair[1];
            let k1 = (c1, idx.entries[e1 as usize].chars, std::cmp::Reverse(e1));
            let k2 = (c2, idx.entries[e2 as usize].chars, std::cmp::Reverse(e2));
            prop_assert!(k1 >= k2);
        }
    }

    #[test]
    fn posting_list_ops_match_vec_semantics(
        a in proptest::collection::vec(0u32..500, 0..80),
        b in proptest::collection::vec(0u32..500, 0..400),
    ) {
        // Galloping/bitset intersection and subset checks must agree with
        // the sorted-Vec merge they replaced, duplicates and all.
        use std::collections::BTreeSet;
        let universe = 500;
        let pa = PostingList::from_unsorted(a.clone(), universe);
        let pb = PostingList::from_unsorted(b.clone(), universe);
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let expect: Vec<u32> = sa.intersection(&sb).copied().collect();
        prop_assert_eq!(pa.intersect(&pb).to_vec(), expect.clone());
        prop_assert_eq!(pb.intersect(&pa).to_vec(), expect);
        prop_assert_eq!(pa.is_subset(&pb), sa.is_subset(&sb));
        prop_assert_eq!(pb.is_subset(&pa), sb.is_subset(&sa));
        prop_assert_eq!(pa.len(), sa.len());
        for probe in [0u32, 1, 250, 499] {
            prop_assert_eq!(pa.contains(probe as RowId), sa.contains(&probe));
        }
    }

    #[test]
    fn substring_pruning_only_shrinks(rel in zip_city_relation()) {
        let attr = AttrId(0);
        let with = build_index(&rel, attr, Extraction::NGrams, &IndexOptions { substring_pruning: true, ..IndexOptions::default() });
        let without = build_index(&rel, attr, Extraction::NGrams, &IndexOptions { substring_pruning: false, ..IndexOptions::default() });
        prop_assert!(with.entries.len() <= without.entries.len());
        // Every kept entry exists identically in the unpruned index.
        for e in &with.entries {
            prop_assert!(without
                .entries
                .iter()
                .any(|u| without.pattern_str(u) == with.pattern_str(e)
                    && u.pos == e.pos
                    && u.rows == e.rows));
        }
    }

    #[test]
    fn discovery_is_deterministic(rel in zip_city_relation()) {
        let config = DiscoveryConfig { min_support: 3, ..DiscoveryConfig::default() };
        let a = discover(&rel, &config);
        let b = discover(&rel, &config);
        let sig = |r: &pfd_discovery::DiscoveryResult| -> Vec<String> {
            r.dependencies.iter().map(|d| format!("{:?}→{:?} {}", d.lhs, d.rhs, d.pfd)).collect()
        };
        prop_assert_eq!(sig(&a), sig(&b));
    }

    #[test]
    fn parallel_pool_matches_sequential_discovery(rel in zip_city_relation()) {
        // The parallel candidate fan-out must not change a single
        // discovered PFD.
        let config = DiscoveryConfig { min_support: 3, parallel: false, ..DiscoveryConfig::default() };
        let parallel = DiscoveryConfig { parallel: true, ..config.clone() };
        let a = discover(&rel, &config);
        let b = discover(&rel, &parallel);
        let sig = |r: &pfd_discovery::DiscoveryResult| -> Vec<String> {
            r.dependencies.iter().map(|d| format!("{:?}→{:?} {}", d.lhs, d.rhs, d.pfd)).collect()
        };
        prop_assert_eq!(sig(&a), sig(&b));
    }

    #[test]
    fn discovered_constant_rows_respect_noise(rel in zip_city_relation()) {
        // With δ = 0, every discovered tableau row must hold exactly.
        let config = DiscoveryConfig {
            min_support: 3,
            noise_ratio: 0.0,
            generalize: false,
            ..DiscoveryConfig::default()
        };
        let result = discover(&rel, &config);
        for dep in &result.dependencies {
            // Clean generated data: zero violations allowed.
            prop_assert!(
                dep.pfd.satisfies(&rel),
                "δ=0 discovery produced a violated PFD: {}",
                dep.pfd
            );
        }
    }

    #[test]
    fn zip_city_is_always_found_on_enough_data(rel in zip_city_relation()) {
        // The generated relation is clean, so zip → city must surface when
        // every prefix group is large enough.
        let zip = AttrId(0);
        let city = AttrId(1);
        let min_group = (0..4)
            .map(|p| {
                let prefix = ["900", "606", "100", "303"][p];
                rel.column(zip).filter(|z| z.starts_with(prefix)).count()
            })
            .min()
            .unwrap();
        prop_assume!(min_group >= 3);
        let config = DiscoveryConfig { min_support: 3, ..DiscoveryConfig::default() };
        let result = discover(&rel, &config);
        prop_assert!(
            result
                .dependencies
                .iter()
                .any(|d| d.lhs == vec![zip] && d.rhs == city),
            "zip → city missing among {:?}",
            result
                .dependencies
                .iter()
                .map(|d| d.embedded_names(&rel))
                .collect::<Vec<_>>()
        );
    }
}

// ---------------------------------------------------------------------------
// Fragment-extractor properties: the suffix-automaton path must agree with
// the naive n-gram enumerator wherever they overlap, and every extra
// fragment it emits must be a real occurrence.
// ---------------------------------------------------------------------------

/// Values mixing short codes, long repetitive free text and multi-byte
/// UTF-8 — the shapes that distinguish the extraction paths.
fn cell_value() -> impl Strategy<Value = String> {
    let small = prop_oneof![
        proptest::char::range('a', 'f'),
        proptest::char::range('0', '4'),
        Just('é'),
        Just('語'),
    ];
    prop_oneof![
        // Short and boundary-length values (full-enumeration path).
        proptest::collection::vec(small.clone(), 0..14).prop_map(|cs| cs.into_iter().collect()),
        // Long values with planted repeats (automaton path).
        (
            proptest::collection::vec(small.clone(), 4..10),
            proptest::collection::vec(small, 13..30),
        )
            .prop_map(|(motif, mut tail)| {
                let motif: String = motif.into_iter().collect();
                let filler: String = tail.split_off(tail.len() / 2).into_iter().collect();
                let rest: String = tail.into_iter().collect();
                format!("{rest}{motif}{filler}{motif}")
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn extractor_equals_all_substrings_below_cutoff(v in cell_value()) {
        use pfd_discovery::{ExtractOptions, FragmentExtractor};
        // With the cutoff above the value length the extractor must be the
        // naive all-substrings enumerator, fragment for fragment, position
        // for position (`ngrams()` itself switches to affixes past
        // FULL_NGRAM_LEN, so the reference is built directly).
        let mut ex = FragmentExtractor::new(ExtractOptions {
            full_enum_max_chars: usize::MAX,
            ..ExtractOptions::default()
        });
        let mut got: Vec<(String, u32)> = Vec::new();
        ex.for_each(&v, |f, p| got.push((f.to_string(), p)));
        let chars: Vec<char> = v.chars().collect();
        let mut naive: Vec<(String, u32)> = Vec::new();
        for i in 0..chars.len() {
            for j in (i + 1)..=chars.len() {
                naive.push((chars[i..j].iter().collect(), i as u32));
            }
        }
        prop_assert_eq!(got, naive);
    }

    #[test]
    fn extractor_without_mining_equals_ngrams(v in cell_value()) {
        use pfd_discovery::{ExtractOptions, FragmentExtractor};
        // mine_repeats=false reproduces the affix-only long-value behavior
        // of `ngrams()` exactly, at every length.
        let mut ex = FragmentExtractor::new(ExtractOptions {
            mine_repeats: false,
            ..ExtractOptions::default()
        });
        let mut got: Vec<(String, u32)> = Vec::new();
        ex.for_each(&v, |f, p| got.push((f.to_string(), p)));
        let naive: Vec<(String, u32)> =
            ngrams(&v).into_iter().map(|(f, p)| (f.to_string(), p)).collect();
        prop_assert_eq!(got, naive);
    }

    #[test]
    fn extractor_emissions_are_real_deduped_occurrences(v in cell_value()) {
        use pfd_discovery::{ExtractOptions, FragmentExtractor};
        use std::collections::HashSet;
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        let mut got: Vec<(String, u32)> = Vec::new();
        ex.for_each(&v, |f, p| got.push((f.to_string(), p)));
        let chars: Vec<char> = v.chars().collect();
        // Every affix-path fragment of `ngrams()` is present…
        let naive: HashSet<(String, u32)> =
            ngrams(&v).into_iter().map(|(f, p)| (f.to_string(), p)).collect();
        let got_set: HashSet<(String, u32)> = got.iter().cloned().collect();
        for frag in &naive {
            prop_assert!(got_set.contains(frag), "missing {frag:?}");
        }
        // …every emission is a real occurrence at its claimed char position,
        // and no (fragment, position) pair is emitted twice.
        prop_assert_eq!(got.len(), got_set.len(), "duplicate emissions");
        for (frag, pos) in &got {
            let frag_chars: Vec<char> = frag.chars().collect();
            let at = &chars[*pos as usize..*pos as usize + frag_chars.len()];
            prop_assert_eq!(at, &frag_chars[..], "bad occurrence of {:?}@{}", frag, pos);
        }
    }
}
