//! Pattern inference: least-general generalization of a set of values over
//! the generalization tree.
//!
//! This powers the `Generalize` step of the discovery algorithm (§4.3): given
//! the constant constrained patterns of a set of PFDs — e.g. the first-name
//! tokens `{Tayseer, Noor, Esmat}` — find "a general form that can represent
//! all of them", here `\LU\LL*`. It also underpins the Table 4/5 intuition:
//! the latent knowledge that `n~ame` tokens share a shape.

use crate::ast::{Atom, Element, Pattern, Quant};
use crate::class::CharClass;

/// The shape of a string: maximal runs of same-class characters, e.g.
/// `John` ⇒ `[(Upper, 1), (Lower, 3)]` and `90001` ⇒ `[(Digit, 5)]`.
///
/// Symbols are kept as literal runs (`(lit, n)`) because separator symbols
/// almost always carry exact semantics (the `-` in `F-9-107`, the space in a
/// full name); letter/digit runs generalize to their class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeRun {
    /// A run of `n ≥ 1` characters of a base class.
    Class(CharClass, u32),
    /// A run of one exact symbol character, length `n`.
    Literal(char, u32),
}

impl ShapeRun {
    /// The base class of the run (a literal symbol run reports `Symbol`).
    pub fn class(&self) -> CharClass {
        match self {
            ShapeRun::Class(c, _) => *c,
            ShapeRun::Literal(c, _) => CharClass::of_char(*c),
        }
    }

    /// The run length in characters (always ≥ 1).
    pub fn len(&self) -> u32 {
        match self {
            ShapeRun::Class(_, n) | ShapeRun::Literal(_, n) => *n,
        }
    }

    /// Runs are never empty; provided to satisfy the `len`/`is_empty` pair.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Compute the shape of a string. Empty strings have an empty shape.
pub fn shape_of(s: &str) -> Vec<ShapeRun> {
    let mut runs = Vec::new();
    shape_into(s, &mut runs);
    runs
}

/// [`shape_of`] into a reused buffer (cleared first).
fn shape_into(s: &str, runs: &mut Vec<ShapeRun>) {
    runs.clear();
    for c in s.chars() {
        let class = CharClass::of_char(c);
        let next = if class == CharClass::Symbol {
            ShapeRun::Literal(c, 1)
        } else {
            ShapeRun::Class(class, 1)
        };
        match (runs.last_mut(), next) {
            (Some(ShapeRun::Class(rc, n)), ShapeRun::Class(c2, _)) if *rc == c2 => *n += 1,
            (Some(ShapeRun::Literal(rc, n)), ShapeRun::Literal(c2, _)) if *rc == c2 => *n += 1,
            (_, next) => runs.push(next),
        }
    }
}

/// A generalized run: a class plus a length range (max `None` = unbounded —
/// only produced when lengths differ and we widen to `+`/`*`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct GenRun {
    atom: GenAtom,
    min: u32,
    max: Option<u32>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum GenAtom {
    Class(CharClass),
    Literal(char),
}

impl GenRun {
    fn from_shape(run: &ShapeRun) -> GenRun {
        match run {
            ShapeRun::Class(c, n) => GenRun {
                atom: GenAtom::Class(*c),
                min: *n,
                max: Some(*n),
            },
            ShapeRun::Literal(c, n) => GenRun {
                atom: GenAtom::Literal(*c),
                min: *n,
                max: Some(*n),
            },
        }
    }

    fn merge_lengths(&mut self, other_min: u32, other_max: Option<u32>) {
        self.min = self.min.min(other_min);
        self.max = match (self.max, other_max) {
            (Some(a), Some(b)) if a == b => Some(a),
            _ => None,
        };
    }

    fn merge_atom(&mut self, other: &GenAtom) {
        let merged = match (&self.atom, other) {
            (GenAtom::Literal(a), GenAtom::Literal(b)) if a == b => GenAtom::Literal(*a),
            (a, b) => {
                let ca = match a {
                    GenAtom::Class(c) => *c,
                    GenAtom::Literal(c) => CharClass::of_char(*c),
                };
                let cb = match b {
                    GenAtom::Class(c) => *c,
                    GenAtom::Literal(c) => CharClass::of_char(*c),
                };
                GenAtom::Class(ca.lub(cb))
            }
        };
        self.atom = merged;
    }

    fn to_element(&self) -> Element {
        let atom = match &self.atom {
            GenAtom::Class(c) => Atom::Class(*c),
            GenAtom::Literal(c) => Atom::Literal(*c),
        };
        let quant = match (self.min, self.max) {
            (1, Some(1)) => Quant::One,
            (n, Some(m)) if n == m => Quant::Exactly(n),
            (0, None) => Quant::Star,
            (_, None) => Quant::Plus,
            // A bounded-but-unequal range has no exact quantifier in the
            // paper's language; widen to `+` (or `*` when min can be 0).
            (0, Some(_)) => Quant::Star,
            (_, Some(_)) => Quant::Plus,
        };
        Element::new(atom, quant)
    }
}

/// Merge two generalized run sequences. When the sequences have the same
/// length, runs merge positionally. Otherwise we fall back to the coarsest
/// shape `\A*` for the mismatched region (a deliberate, conservative choice:
/// the discovery algorithm only promotes a generalization when it then
/// re-verifies it on the data, §4.3).
fn merge_runs(a: &[GenRun], b: &[GenRun]) -> Vec<GenRun> {
    if a.len() == b.len() {
        let mut out = Vec::with_capacity(a.len());
        for (ra, rb) in a.iter().zip(b) {
            let mut m = ra.clone();
            m.merge_atom(&rb.atom);
            m.merge_lengths(rb.min, rb.max);
            out.push(m);
        }
        return out;
    }
    // Align common prefix and suffix of equal atoms; wildcard the middle.
    let mut prefix = 0;
    while prefix < a.len() && prefix < b.len() && a[prefix].atom == b[prefix].atom {
        prefix += 1;
    }
    let mut suffix = 0;
    while suffix < a.len() - prefix
        && suffix < b.len() - prefix
        && a[a.len() - 1 - suffix].atom == b[b.len() - 1 - suffix].atom
    {
        suffix += 1;
    }
    let mut out = Vec::new();
    for i in 0..prefix {
        let mut m = a[i].clone();
        m.merge_lengths(b[i].min, b[i].max);
        out.push(m);
    }
    let a_mid = &a[prefix..a.len() - suffix];
    let b_mid = &b[prefix..b.len() - suffix];
    if !a_mid.is_empty() || !b_mid.is_empty() {
        let min: u32 = a_mid
            .iter()
            .map(|r| r.min)
            .sum::<u32>()
            .min(b_mid.iter().map(|r| r.min).sum());
        out.push(GenRun {
            atom: GenAtom::Class(CharClass::Any),
            min: min.min(1),
            max: None,
        });
    }
    for i in 0..suffix {
        let ia = a.len() - suffix + i;
        let ib = b.len() - suffix + i;
        let mut m = a[ia].clone();
        m.merge_lengths(b[ib].min, b[ib].max);
        out.push(m);
    }
    out
}

/// The accumulator of [`infer_pattern`]'s fold: shapes merged one at a
/// time, in order, each generalizing the runs merged before it. The first
/// shape seeds the accumulator.
///
/// The fold depends on the order of its shapes and on repeats that are not
/// adjacent (`[" ax.a", " Z9.9", "_yaa"]` infers `\S\A+`, and a second
/// `" Z9.9"` at the end widens it to `\A+`), but merging the same shape
/// twice in a row changes nothing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeFold {
    /// `None` until the first shape is merged.
    runs: Option<Vec<GenRun>>,
}

impl ShapeFold {
    /// Merge one shape into the accumulator.
    pub fn merge(&mut self, shape: &[ShapeRun]) {
        let runs: Vec<GenRun> = shape.iter().map(GenRun::from_shape).collect();
        self.runs = Some(match &self.runs {
            None => runs,
            Some(acc) => merge_runs(acc, &runs),
        });
    }

    /// The pattern of the shapes merged so far; `None` before the first.
    pub fn pattern(&self) -> Option<Pattern> {
        let runs = self.runs.as_ref()?;
        let elements = runs.iter().map(GenRun::to_element).collect();
        Some(Pattern::from_elements_unchecked(elements))
    }
}

/// Infer the least-general pattern (within this module's shape language)
/// matching every value in `values`: a [`ShapeFold`] over their shapes, in
/// order.
///
/// A value whose shape equals the previous value's is skipped, because
/// merging a shape twice in a row is a no-op: `shape_of` never yields an
/// `\A` run and the class order is flat, so the second merge leaves every
/// atom, bound and wildcarded middle as the first left them. Only adjacent
/// repeats may be skipped — the fold depends on order and on repeats
/// further apart (see [`ShapeFold`]).
///
/// Returns `None` for an empty input. Examples:
/// - `{John, Susan}` ⇒ `\LU\LL+`
/// - `{90001, 90002}` ⇒ `\D{5}`
/// - `{F-9-107, F-9-2}` ⇒ `\LU-\D-\D+`
pub fn infer_pattern<S: AsRef<str>>(values: &[S]) -> Option<Pattern> {
    let mut fold = ShapeFold::default();
    let (mut shape, mut prev) = (Vec::new(), Vec::new());
    for (i, v) in values.iter().enumerate() {
        shape_into(v.as_ref(), &mut shape);
        if i > 0 && shape == prev {
            continue;
        }
        fold.merge(&shape);
        std::mem::swap(&mut shape, &mut prev);
    }
    fold.pattern()
}

/// Infer a pattern and verify it against every input value (the inference is
/// designed to be sound, this is a debug-friendly belt-and-braces variant
/// used by discovery).
pub fn infer_verified<S: AsRef<str>>(values: &[S]) -> Option<Pattern> {
    let p = infer_pattern(values)?;
    let nfa = crate::nfa::Nfa::compile(&p);
    if values.iter().all(|v| nfa.matches(v.as_ref())) {
        Some(p)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nfa::Nfa;

    fn assert_matches_all(p: &Pattern, values: &[&str]) {
        let nfa = Nfa::compile(p);
        for v in values {
            assert!(nfa.matches(v), "pattern {p} must match {v:?}");
        }
    }

    #[test]
    fn shape_of_name() {
        assert_eq!(
            shape_of("John"),
            vec![
                ShapeRun::Class(CharClass::Upper, 1),
                ShapeRun::Class(CharClass::Lower, 3)
            ]
        );
    }

    #[test]
    fn shape_of_id() {
        assert_eq!(
            shape_of("F-9-107"),
            vec![
                ShapeRun::Class(CharClass::Upper, 1),
                ShapeRun::Literal('-', 1),
                ShapeRun::Class(CharClass::Digit, 1),
                ShapeRun::Literal('-', 1),
                ShapeRun::Class(CharClass::Digit, 3),
            ]
        );
    }

    #[test]
    fn shape_of_empty() {
        assert_eq!(shape_of(""), vec![]);
    }

    #[test]
    fn infer_first_names() {
        // The running example of §4.3: {Tayseer, Noor, Esmat} ⇒ \LU\LL+
        // ("a single uppercase letter followed by any number of lowercase").
        let p = infer_pattern(&["Tayseer", "Noor", "Esmat"]).unwrap();
        assert_eq!(p.to_string(), r"\LU\LL+");
        assert_matches_all(&p, &["Tayseer", "Noor", "Esmat", "John"]);
    }

    #[test]
    fn infer_equal_lengths_keeps_exact_count() {
        let p = infer_pattern(&["90001", "90002", "95603"]).unwrap();
        assert_eq!(p.to_string(), r"\D{5}");
    }

    #[test]
    fn infer_single_value_keeps_shape() {
        let p = infer_pattern(&["90001"]).unwrap();
        assert_eq!(p.to_string(), r"\D{5}");
    }

    #[test]
    fn infer_ids_with_separators() {
        let p = infer_pattern(&["F-9-107", "F-9-2", "F-9-33"]).unwrap();
        assert_matches_all(&p, &["F-9-107", "F-9-2", "F-9-33"]);
        // Separator dashes survive as literals.
        assert!(p.to_string().contains('-'), "{p}");
    }

    #[test]
    fn infer_mixed_case_generalizes_class() {
        let p = infer_pattern(&["ABC", "abc"]).unwrap();
        assert_matches_all(&p, &["ABC", "abc", "AbC"]);
    }

    #[test]
    fn infer_mismatched_structure_falls_back_to_any() {
        let p = infer_pattern(&["John Smith", "90210"]).unwrap();
        assert_matches_all(&p, &["John Smith", "90210", "anything"]);
    }

    #[test]
    fn infer_common_prefix_suffix_preserved() {
        let p = infer_pattern(&["ID-123-X", "ID-4-X"]).unwrap();
        assert_matches_all(&p, &["ID-123-X", "ID-4-X"]);
        let s = p.to_string();
        assert!(s.starts_with("ID-") || s.starts_with(r"\LU{2}-"), "{s}");
    }

    #[test]
    fn infer_empty_input() {
        assert!(infer_pattern::<&str>(&[]).is_none());
    }

    #[test]
    fn infer_includes_empty_string() {
        let p = infer_pattern(&["abc", ""]).unwrap();
        assert_matches_all(&p, &["abc", ""]);
    }

    #[test]
    fn infer_depends_on_order_and_on_repeats_that_are_not_adjacent() {
        let infer = |values: &[&str]| infer_pattern(values).unwrap().to_string();
        assert_eq!(infer(&[" ax.a", " Z9.9", "_yaa"]), r"\S\A+");
        // A repeat further back, or another order, widens the pattern.
        assert_eq!(infer(&[" ax.a", " Z9.9", "_yaa", " Z9.9"]), r"\A+");
        assert_eq!(infer(&["_yaa", " ax.a", " Z9.9"]), r"\A+");
        // An adjacent repeat changes nothing.
        assert_eq!(infer(&[" ax.a", " Z9.9", " Z9.9", "_yaa"]), r"\S\A+");
    }

    #[test]
    fn infer_verified_agrees() {
        let values = ["Tayseer", "Noor", "Esmat", "Qadhi"];
        let p = infer_verified(&values).unwrap();
        assert_matches_all(&p, &values);
    }

    #[test]
    fn inferred_pattern_is_contained_in_any_string() {
        let p = infer_pattern(&["a1", "b22", "c333"]).unwrap();
        assert!(crate::contains::subset_of(&p, &Pattern::any_string()));
    }
}
