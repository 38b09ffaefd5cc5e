//! Property-based tests for the pattern algebra.

use pfd_pattern::{
    difference_witness, infer_pattern, parse_pattern, shape_of, subset_of, Atom, CharClass,
    ConstrainedPattern, Element, Nfa, Pattern, Quant, ShapeFold,
};
use proptest::prelude::*;

/// Strategy for characters drawn from realistic data-cleaning alphabets.
fn data_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::char::range('a', 'z'),
        prop::char::range('A', 'Z'),
        prop::char::range('0', '9'),
        Just(' '),
        Just('-'),
        Just('.'),
    ]
}

fn data_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(data_char(), 0..12).prop_map(|cs| cs.into_iter().collect())
}

fn quant() -> impl Strategy<Value = Quant> {
    prop_oneof![
        Just(Quant::One),
        // {1} parses back to One, so structural round-tripping starts at 2.
        (2u32..5).prop_map(Quant::Exactly),
        Just(Quant::Plus),
        Just(Quant::Star),
    ]
}

fn atom() -> impl Strategy<Value = Atom> {
    prop_oneof![
        data_char().prop_map(Atom::Literal),
        prop_oneof![
            Just(CharClass::Upper),
            Just(CharClass::Lower),
            Just(CharClass::Digit),
            Just(CharClass::Symbol),
            Just(CharClass::Any),
        ]
        .prop_map(Atom::Class),
    ]
}

fn pattern() -> impl Strategy<Value = Pattern> {
    proptest::collection::vec((atom(), quant()), 0..6).prop_map(|items| {
        Pattern::new(items.into_iter().map(|(a, q)| Element::new(a, q)).collect())
            .expect("flat patterns are always valid")
    })
}

/// Generate a member of a pattern's language by expanding each element with
/// a bounded repetition count.
fn member_of(p: &Pattern, reps: u32) -> Option<String> {
    let mut out = String::new();
    for e in p.elements() {
        let n = match e.quant {
            Quant::One => 1,
            Quant::Exactly(n) => n,
            Quant::Plus => 1 + reps,
            Quant::Star => reps,
        };
        for _ in 0..n {
            match &e.atom {
                Atom::Literal(c) => out.push(*c),
                Atom::Class(class) => out.push(class.representative(&[])?),
                _ => return None,
            }
        }
    }
    Some(out)
}

proptest! {
    #[test]
    fn display_parse_roundtrip(p in pattern()) {
        let shown = p.to_string();
        let reparsed = parse_pattern(&shown).expect("display must be parseable");
        prop_assert_eq!(p, reparsed);
    }

    #[test]
    fn generated_members_match(p in pattern(), reps in 0u32..3) {
        if let Some(s) = member_of(&p, reps) {
            prop_assert!(Nfa::compile(&p).matches(&s), "member {:?} of {}", s, p);
        }
    }

    #[test]
    fn everything_is_subset_of_any_string(p in pattern()) {
        prop_assert!(subset_of(&p, &Pattern::any_string()));
    }

    #[test]
    fn subset_is_reflexive(p in pattern()) {
        prop_assert!(subset_of(&p, &p));
    }

    #[test]
    fn difference_witness_is_sound(a in pattern(), b in pattern()) {
        match difference_witness(&a, &b) {
            Some(w) => {
                prop_assert!(Nfa::compile(&a).matches(&w));
                prop_assert!(!Nfa::compile(&b).matches(&w));
            }
            None => {
                // subset: spot-check with generated members of a.
                for reps in 0..3 {
                    if let Some(s) = member_of(&a, reps) {
                        prop_assert!(Nfa::compile(&b).matches(&s),
                            "L(a) ⊆ L(b) but member {:?} of a={} not in b={}", s, a, b);
                    }
                }
            }
        }
    }

    #[test]
    fn constant_pattern_matches_exactly_itself(s in data_string()) {
        let p = Pattern::constant(&s);
        let nfa = Nfa::compile(&p);
        prop_assert!(nfa.matches(&s));
        let constant = p.as_constant();
        prop_assert_eq!(constant.as_deref(), Some(s.as_str()));
        // A perturbed string must not match.
        let perturbed = format!("{s}#");
        prop_assert!(!nfa.matches(&perturbed));
    }

    #[test]
    fn inferred_pattern_covers_inputs(values in proptest::collection::vec(data_string(), 1..8)) {
        let p = infer_pattern(&values).expect("non-empty input");
        let nfa = Nfa::compile(&p);
        for v in &values {
            prop_assert!(nfa.matches(v), "inferred {} must match {:?}", p, v);
        }
    }

    #[test]
    fn extraction_is_substring_and_equivalence_reflexive(s in data_string()) {
        // Fully-constrained \A*: extraction is the whole string.
        let cp = ConstrainedPattern::fully_constrained(Pattern::any_string());
        prop_assert_eq!(cp.extract(&s), Some(s.as_str()));
        prop_assert!(cp.equivalent(&s, &s));
    }

    #[test]
    fn constant_constrained_extraction(s in data_string(), rest in data_string()) {
        // [s]\A* extracts exactly s from s·rest.
        let cp = ConstrainedPattern::new(
            Pattern::empty(),
            Pattern::constant(&s),
            Pattern::any_string(),
        );
        let full = format!("{s}{rest}");
        let got = cp.extract(&full).map(str::to_owned);
        prop_assert_eq!(got, Some(s));
    }

    #[test]
    fn matches_iff_extraction_exists(
        pre in pattern(),
        q in pattern(),
        post in pattern(),
        s in prop_oneof![data_string(), sam_string()],
        reps in 0u32..3,
    ) {
        // `pre·Q·post` matches exactly when some decomposition exists, i.e.
        // when the value has an equivalence key; `pfd_core`'s grouping
        // answers both questions from one memo and relies on it.
        let cp = ConstrainedPattern::new(pre, q, post);
        prop_assert_eq!(cp.matches(&s), cp.extract(&s).is_some(), "{} on {:?}", cp, s);
        if let Some(member) = member_of(&cp.full_pattern(), reps) {
            prop_assert!(cp.matches(&member), "member {:?} of {}", member, cp);
            prop_assert!(cp.extract(&member).is_some(), "member {:?} of {}", member, cp);
        }
    }

    #[test]
    fn restriction_implies_equivalence_transfer(
        prefix in data_string(),
        s1 in data_string(),
        s2 in data_string(),
    ) {
        // a = [prefix]\A* is a restriction of b = [\A*] ... — instead test
        // concrete pair: a = constant-prefix, b = inferred shape of prefix.
        let a = ConstrainedPattern::new(
            Pattern::empty(), Pattern::constant(&prefix), Pattern::any_string());
        let shape = infer_pattern(std::slice::from_ref(&prefix)).unwrap();
        let b = ConstrainedPattern::new(Pattern::empty(), shape, Pattern::any_string());
        if a.is_restriction_of(&b) {
            let v1 = format!("{prefix}{s1}");
            let v2 = format!("{prefix}{s2}");
            if a.equivalent(&v1, &v2) {
                prop_assert!(b.equivalent(&v1, &v2));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inference fold properties: `infer_pattern` skips a value whose shape equals
// the previous value's, and must still equal the plain fold that merges
// every value in order.
// ---------------------------------------------------------------------------

/// The plain fold: merge every value's shape, in order, repeats included.
fn plain_fold(values: &[String]) -> Option<Pattern> {
    let mut fold = ShapeFold::default();
    for v in values {
        fold.merge(&shape_of(v));
    }
    fold.pattern()
}

/// `value` with every letter and digit replaced by another of its class
/// (drawn from `seed`), symbols kept: a value of the same shape.
fn same_shape(value: &str, seed: u64) -> String {
    let mut h = seed;
    value
        .chars()
        .map(|c| {
            h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let pick = |base: u8, n: u64| char::from(base + ((h >> 33) % n) as u8);
            match c {
                '0'..='9' => pick(b'0', 10),
                'a'..='z' => pick(b'a', 26),
                'A'..='Z' => pick(b'A', 26),
                other => other,
            }
        })
        .collect()
}

/// Value lists built from a few base strings: runs of values sharing a
/// base's shape, repeats of values further back, and empty strings.
fn fold_values() -> impl Strategy<Value = Vec<String>> {
    let base = proptest::collection::vec(prop_oneof![data_char(), Just('_')], 0..6)
        .prop_map(|cs| cs.into_iter().collect::<String>());
    let steps = proptest::collection::vec((0u64..4, any::<u64>(), 1usize..4), 1..10);
    (proptest::collection::vec(base, 1..4), steps).prop_map(|(bases, steps)| {
        let mut values: Vec<String> = Vec::new();
        for (kind, seed, run) in steps {
            for i in 0..run {
                let seed = seed.wrapping_add(i as u64);
                let value = match kind {
                    0 if !values.is_empty() => values[seed as usize % values.len()].clone(),
                    1 => String::new(),
                    _ => same_shape(&bases[seed as usize % bases.len()], seed),
                };
                values.push(value);
            }
        }
        values
    })
}

proptest! {
    #[test]
    fn inference_equals_the_plain_fold(values in fold_values()) {
        prop_assert_eq!(infer_pattern(&values), plain_fold(&values), "{:?}", values);
    }

    #[test]
    fn merging_a_shape_twice_in_a_row_is_a_no_op(
        before in fold_values(),
        value in prop_oneof![data_string(), Just(String::new())],
    ) {
        let mut fold = ShapeFold::default();
        for v in &before {
            fold.merge(&shape_of(v));
        }
        let shape = shape_of(&value);
        fold.merge(&shape);
        let once = fold.clone();
        fold.merge(&shape);
        prop_assert_eq!(fold, once, "{:?} then {:?} twice", before, value);
    }
}

// ---------------------------------------------------------------------------
// Suffix-automaton properties: the automaton must agree with the naive
// all-substrings enumeration on arbitrary values, including multi-byte
// UTF-8, long repeated runs, and empty/one-char strings.
// ---------------------------------------------------------------------------

/// Strategy covering ASCII data chars plus multi-byte letters and a CJK
/// char, so char-vs-byte position bugs cannot hide.
fn sam_char() -> impl Strategy<Value = char> {
    prop_oneof![
        prop::char::range('a', 'e'),
        prop::char::range('0', '3'),
        Just('é'),
        Just('ß'),
        Just('語'),
    ]
}

fn sam_string() -> impl Strategy<Value = String> {
    prop_oneof![
        // Random small-alphabet strings (dense repeats).
        proptest::collection::vec(sam_char(), 0..40).prop_map(|cs| cs.into_iter().collect()),
        // Repeated runs: the automaton's linear-state worst case.
        (sam_char(), 1usize..60).prop_map(|(c, n)| c.to_string().repeat(n)),
    ]
}

proptest! {
    #[test]
    fn sam_matches_naive_substring_enumeration(s in sam_string()) {
        use pfd_pattern::SuffixAutomaton;
        use std::collections::HashMap;

        let chars: Vec<char> = s.chars().collect();
        // Naive: every (substring, first start, overlapping count).
        let mut naive: HashMap<String, (u32, u32)> = HashMap::new();
        for i in 0..chars.len() {
            for j in (i + 1)..=chars.len() {
                let sub: String = chars[i..j].iter().collect();
                let e = naive.entry(sub).or_insert((i as u32, 0));
                e.1 += 1;
            }
        }

        let sam = SuffixAutomaton::of(&s);
        prop_assert!(sam.num_states() <= 2 * chars.len().max(1));
        let counts = sam.occurrence_counts();
        let mut distinct = 0usize;
        let mut failure: Option<String> = None;
        sam.for_each_distinct(&counts, |start, len, count| {
            let sub: String = chars[start as usize..(start + len) as usize].iter().collect();
            match naive.get(&sub) {
                Some(&(nstart, ncount)) if nstart == start && ncount == count => {}
                other => failure = Some(format!("{sub:?}: sam ({start},{count}) vs {other:?}")),
            }
            distinct += 1;
        });
        prop_assert!(failure.is_none(), "{} in {s:?}", failure.unwrap());
        prop_assert_eq!(distinct, naive.len());

        // Repeats are exactly the class representatives with count ≥ 2.
        for r in sam.repeats(&counts, 1) {
            let sub: String = chars[r.first_start as usize..(r.first_start + r.len) as usize]
                .iter()
                .collect();
            let (nstart, ncount) = naive[&sub];
            prop_assert_eq!(nstart, r.first_start);
            prop_assert_eq!(ncount, r.count);
            prop_assert!(r.count >= 2);
        }
    }

    #[test]
    fn sam_reset_equals_fresh_build(a in sam_string(), b in sam_string()) {
        use pfd_pattern::SuffixAutomaton;
        let mut reused = SuffixAutomaton::of(&a);
        reused.reset();
        for c in b.chars() {
            reused.extend(c);
        }
        let fresh = SuffixAutomaton::of(&b);
        prop_assert_eq!(reused.num_states(), fresh.num_states());
        prop_assert_eq!(reused.occurrence_counts(), fresh.occurrence_counts());
        // Substring membership agrees on every window of b.
        let chars: Vec<char> = b.chars().collect();
        for w in [1usize, 2, 3] {
            for win in chars.windows(w) {
                prop_assert!(reused.contains(win.iter().copied()));
            }
        }
    }
}
