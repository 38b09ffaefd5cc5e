//! Building constrained-pattern tableau cells from index entries.
//!
//! A discovered pattern occurrence `(fragment, position)` shared by a row
//! set becomes a tableau cell `pre [fragment] post`, with `pre`/`post`
//! inferred from the actual contexts of the fragment in those rows — e.g.
//! zip entry `('900', 0)` over rows `{90001, 90002}` yields `[900]\D{2}`,
//! and token entry `('Donald', run 2)` over `Holloway, Donald E.` yields
//! `\LU\LL*,\ [Donald]\ \LU.` — the Table 3 shape.
//!
//! Callers resolve interned [`crate::index::IndexEntry`] patterns to
//! strings first ([`ResolvedEntry`]): cell assembly is the only place the
//! discovery pipeline needs fragment text back.

use crate::extract::for_each_run;
use pfd_core::TableauCell;
use pfd_pattern::{infer_pattern, ConstrainedPattern, Pattern};
use pfd_relation::{AttrId, Extraction, PostingList, Relation, RowId};

/// An index entry with its pattern resolved out of the fragment dictionary.
#[derive(Debug, Clone, Copy)]
pub struct ResolvedEntry<'a> {
    /// The fragment text.
    pub pattern: &'a str,
    /// Run index (tokenize) or character offset (n-grams).
    pub pos: u32,
    /// The rows containing the fragment at this position.
    pub rows: &'a PostingList,
}

/// Locate `pattern` at char offset `pos` in `value` (n-gram semantics) and
/// return the surrounding `(prefix, suffix)`. One pass, no allocation.
fn ngram_context<'v>(value: &'v str, pattern: &str, pos: u32) -> Option<(&'v str, &'v str)> {
    if value.is_ascii() && pattern.is_ascii() {
        let start = pos as usize;
        let end = start + pattern.len();
        if end > value.len() || &value[start..end] != pattern {
            return None;
        }
        return Some((&value[..start], &value[end..]));
    }
    let frag_chars = pattern.chars().count();
    let start_char = pos as usize;
    let mut start_byte = None;
    let mut end_byte = None;
    for (char_idx, (byte_idx, _)) in value.char_indices().enumerate() {
        if char_idx == start_char {
            start_byte = Some(byte_idx);
        }
        if char_idx == start_char + frag_chars {
            end_byte = Some(byte_idx);
            break;
        }
    }
    if end_byte.is_none() && value.chars().count() == start_char + frag_chars {
        end_byte = Some(value.len());
    }
    let (start, end) = (start_byte?, end_byte?);
    (&value[start..end] == pattern).then_some((&value[..start], &value[end..]))
}

/// Locate `pattern` as the token run `pos` of `value` and return the
/// surrounding `(prefix, suffix)`. One pass over the runs, no allocation.
fn token_context<'v>(value: &'v str, pattern: &str, pos: u32) -> Option<(&'v str, &'v str)> {
    let mut found = None;
    for_each_run(value, |r| {
        if r.run_idx == pos && !r.is_separator && r.text == pattern {
            // Byte offset of the run within the value, via pointer distance.
            let off = r.text.as_ptr() as usize - value.as_ptr() as usize;
            found = Some((off, off + r.text.len()));
        }
    });
    let (start, end) = found?;
    Some((&value[..start], &value[end..]))
}

/// The `(prefix, suffix)` around one occurrence, or `None` when the
/// fragment cannot be located in the value (should not happen for rows
/// taken from the index; defensive for mutated relations).
fn occurrence_context<'v>(
    value: &'v str,
    pattern: &str,
    pos: u32,
    extraction: Extraction,
) -> Option<(&'v str, &'v str)> {
    match extraction {
        Extraction::NGrams => ngram_context(value, pattern, pos),
        Extraction::Tokenize => token_context(value, pattern, pos),
    }
}

/// Infer a context pattern from strings: `ε` when all empty, the inferred
/// shape otherwise, `\A*` as the conservative fallback.
fn context_pattern(contexts: &[&str]) -> Pattern {
    if contexts.iter().all(|c| c.is_empty()) {
        Pattern::empty()
    } else {
        infer_pattern(contexts).unwrap_or_else(Pattern::any_string)
    }
}

/// Build the constant constrained-pattern cell for an index entry over the
/// given rows (usually the entry's own rows, or a subset for multi-LHS
/// joins).
pub fn cell_for_entry(
    rel: &Relation,
    attr: AttrId,
    extraction: Extraction,
    entry: ResolvedEntry<'_>,
    rows: &PostingList,
) -> Option<TableauCell> {
    let mut prefixes: Vec<&str> = Vec::with_capacity(rows.len());
    let mut suffixes: Vec<&str> = Vec::with_capacity(rows.len());
    for rid in rows.iter() {
        let value = rel.cell(rid as RowId, attr);
        let (pre, post) = occurrence_context(value, entry.pattern, entry.pos, extraction)?;
        prefixes.push(pre);
        suffixes.push(post);
    }
    let pre = context_pattern(&prefixes);
    let post = context_pattern(&suffixes);
    Some(TableauCell::Pattern(ConstrainedPattern::new(
        pre,
        Pattern::constant(entry.pattern),
        post,
    )))
}

/// Build the *generalized* cell for a set of accepted entries: the
/// constrained part becomes the least-general pattern over the fragments,
/// contexts are inferred over all occurrences. When every entry spans its
/// whole value (empty contexts and the fragments *are* the values), the
/// wildcard `⊥` is returned instead — whole-value equality, as in the
/// paper's Example 8 where `country` generalizes to a plain attribute.
pub fn generalized_cell(
    rel: &Relation,
    attr: AttrId,
    extraction: Extraction,
    entries: &[ResolvedEntry<'_>],
) -> Option<TableauCell> {
    let mut fragments: Vec<&str> = Vec::new();
    let mut prefixes: Vec<&str> = Vec::new();
    let mut suffixes: Vec<&str> = Vec::new();
    for entry in entries {
        fragments.push(entry.pattern);
        for rid in entry.rows.iter() {
            let value = rel.cell(rid as RowId, attr);
            let (pre, post) = occurrence_context(value, entry.pattern, entry.pos, extraction)?;
            prefixes.push(pre);
            suffixes.push(post);
        }
    }
    let all_full_value =
        prefixes.iter().all(|p| p.is_empty()) && suffixes.iter().all(|s| s.is_empty());
    if all_full_value {
        return Some(TableauCell::Wildcard);
    }
    let q = infer_pattern(&fragments)?;
    Some(TableauCell::Pattern(ConstrainedPattern::new(
        context_pattern(&prefixes),
        q,
        context_pattern(&suffixes),
    )))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(col: &str, values: &[&str]) -> (Relation, AttrId) {
        let rows: Vec<Vec<&str>> = values.iter().map(|v| vec![*v]).collect();
        let r = Relation::from_rows("T", &[col], rows).unwrap();
        let a = r.schema().attr(col).unwrap();
        (r, a)
    }

    struct OwnedEntry {
        pattern: String,
        pos: u32,
        rows: PostingList,
    }

    impl OwnedEntry {
        fn resolved(&self) -> ResolvedEntry<'_> {
            ResolvedEntry {
                pattern: &self.pattern,
                pos: self.pos,
                rows: &self.rows,
            }
        }
    }

    fn entry(pattern: &str, pos: u32, rows: &[u32]) -> OwnedEntry {
        let universe = rows.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        OwnedEntry {
            pattern: pattern.to_string(),
            pos,
            rows: PostingList::from_sorted(rows.to_vec(), universe),
        }
    }

    #[test]
    fn zip_prefix_cell_matches_paper_lambda3() {
        let (r, a) = rel("zip", &["90001", "90002", "90099"]);
        let e = entry("900", 0, &[0, 1, 2]);
        let cell = cell_for_entry(&r, a, Extraction::NGrams, e.resolved(), &e.rows).unwrap();
        assert_eq!(cell.to_string(), r"[900]\D{2}");
        assert!(cell.matches("90055"));
        assert!(!cell.matches("91001"));
        assert_eq!(cell.key("90055"), Some("900"));
    }

    #[test]
    fn first_name_token_cell() {
        let (r, a) = rel("name", &["Susan Boyle", "Susan Orlean"]);
        let e = entry("Susan", 0, &[0, 1]);
        let cell = cell_for_entry(&r, a, Extraction::Tokenize, e.resolved(), &e.rows).unwrap();
        // pre ε, q = Susan, post = inferred over {" Boyle", " Orlean"}.
        assert!(cell.matches("Susan Boyle"));
        assert!(cell.matches("Susan Smith"));
        assert!(!cell.matches("John Boyle"));
        assert_eq!(cell.key("Susan Smith"), Some("Susan"));
        assert!(cell.is_constant());
    }

    #[test]
    fn table3_name_format_cell() {
        let (r, a) = rel(
            "name",
            &[
                "Holloway, Donald E.",
                "Jones, Donald R.",
                "Smith, Donald K.",
            ],
        );
        let e = entry("Donald", 2, &[0, 1, 2]);
        let cell = cell_for_entry(&r, a, Extraction::Tokenize, e.resolved(), &e.rows).unwrap();
        assert!(cell.matches("Kimbell, Donald X."));
        assert!(!cell.matches("Kimbell, David X."));
        assert_eq!(cell.key("Kimbell, Donald X."), Some("Donald"));
    }

    #[test]
    fn full_value_cell_has_empty_contexts() {
        let (r, a) = rel("gender", &["M", "M"]);
        let e = entry("M", 0, &[0, 1]);
        let cell = cell_for_entry(&r, a, Extraction::NGrams, e.resolved(), &e.rows).unwrap();
        assert_eq!(cell.to_string(), "M");
        assert_eq!(cell.constant_value().as_deref(), Some("M"));
    }

    #[test]
    fn generalized_cell_over_zip_prefixes() {
        let (r, a) = rel("zip", &["90001", "90002", "60601", "60602"]);
        let e1 = entry("900", 0, &[0, 1]);
        let e2 = entry("606", 0, &[2, 3]);
        let cell =
            generalized_cell(&r, a, Extraction::NGrams, &[e1.resolved(), e2.resolved()]).unwrap();
        // λ5: [\D{3}]\D{2}.
        assert_eq!(cell.to_string(), r"[\D{3}]\D{2}");
        assert!(cell.equivalent("90001", "90099"));
        assert!(!cell.equivalent("90001", "60601"));
    }

    #[test]
    fn generalized_cell_over_first_names() {
        let (r, a) = rel(
            "name",
            &[
                "Tayseer Fahmi",
                "Tayseer Qasem",
                "Noor Wagdi",
                "Esmat Qadhi",
            ],
        );
        let e1 = entry("Tayseer", 0, &[0, 1]);
        let e2 = entry("Noor", 0, &[2]);
        let e3 = entry("Esmat", 0, &[3]);
        let cell = generalized_cell(
            &r,
            a,
            Extraction::Tokenize,
            &[e1.resolved(), e2.resolved(), e3.resolved()],
        )
        .unwrap();
        // The paper's λ: first token \LU\LL* … constrained.
        assert!(cell.matches("Tayseer Salem"));
        assert!(cell.equivalent("Tayseer Fahmi", "Tayseer Qasem"));
        assert!(!cell.equivalent("Tayseer Fahmi", "Noor Wagdi"));
        assert!(!cell.is_constant());
    }

    #[test]
    fn generalized_full_value_entries_become_wildcard() {
        // Example 8: country values generalize to ⊥ (whole-value equality).
        let (r, a) = rel("country", &["Egypt", "Yemen"]);
        let e1 = entry("Egypt", 0, &[0]);
        let e2 = entry("Yemen", 0, &[1]);
        let cell =
            generalized_cell(&r, a, Extraction::NGrams, &[e1.resolved(), e2.resolved()]).unwrap();
        assert!(cell.is_wildcard());
    }

    #[test]
    fn missing_occurrence_returns_none() {
        let (r, a) = rel("zip", &["90001"]);
        let e = entry("999", 0, &[0]);
        assert!(cell_for_entry(&r, a, Extraction::NGrams, e.resolved(), &e.rows).is_none());
    }

    #[test]
    fn ngram_occurrence_at_value_end() {
        let (r, a) = rel("zip", &["90001", "91001"]);
        let e = entry("001", 2, &[0, 1]);
        let cell = cell_for_entry(&r, a, Extraction::NGrams, e.resolved(), &e.rows).unwrap();
        assert!(cell.matches("92001"));
        assert_eq!(cell.key("92001"), Some("001"));
    }

    #[test]
    fn unicode_contexts() {
        let (r, a) = rel("name", &["Éric Blanc", "Éric Noir"]);
        let e = entry("Éric", 0, &[0, 1]);
        let cell = cell_for_entry(&r, a, Extraction::Tokenize, e.resolved(), &e.rows).unwrap();
        assert!(cell.matches("Éric Vert"));
        assert_eq!(cell.key("Éric Vert"), Some("Éric"));
        // Non-ASCII n-gram location agrees with the char-offset semantics.
        assert_eq!(ngram_context("Éric", "ric", 1), Some(("É", "")));
        assert_eq!(ngram_context("Éric", "Éri", 0), Some(("", "c")));
        assert_eq!(ngram_context("Éric", "xyz", 0), None);
    }
}
