//! Partial-pattern extraction: tokenization, n-grams and the
//! suffix-automaton long-value path (§4.2 restriction i, §4.3 lines 2–3).
//!
//! Special characters "often provide strong signals to extract meaningful
//! substrings" — `Tokenize` splits on them, keeping **run positions** (the
//! paper's Example 8 records `('Tayseer', 0)` and `('Fahmi', 2)`: separators
//! occupy their own run slots). Attributes without separators use n-gram
//! enumeration, keyed by character position.
//!
//! N-gram enumeration is quadratic in the value length, so it is gated by a
//! length cutoff. Below the cutoff every substring is enumerated
//! ([`ngrams_for_each`], the naive reference path); above it,
//! [`FragmentExtractor`] emits the affixes (prefixes/suffixes — the shapes
//! behind real PFDs like zip prefixes and area codes) and then mines the
//! **distinct repeated interior substrings** through a per-cell
//! [`SuffixAutomaton`] in `O(len · σ)`: each automaton state stands for a
//! class of substrings with one shared occurrence set, so long free-text
//! values contribute their genuinely recurring fragments without ever
//! paying the `L(L+1)/2` enumeration.

use pfd_pattern::{CountScratch, SuffixAutomaton};

/// A maximal run of token or separator characters in a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Run<'v> {
    /// The run's text.
    pub text: &'v str,
    /// Separator run (true) or token run (false).
    pub is_separator: bool,
    /// Index of the run within the value (tokens and separators both count).
    pub run_idx: u32,
    /// Character (not byte) offset of the run start.
    pub char_start: u32,
}

fn is_separator_char(c: char) -> bool {
    !c.is_alphanumeric() && !matches!(c, '\'' | '’')
}

/// Stream the runs of a value to `f` without materializing a vector — the
/// index-construction hot path visits every cell this way.
pub fn for_each_run<'v>(value: &'v str, mut f: impl FnMut(Run<'v>)) {
    let mut run_start_byte = 0usize;
    let mut run_start_char = 0u32;
    let mut run_idx = 0u32;
    let mut current_is_sep: Option<bool> = None;

    for (char_idx, (byte_idx, c)) in value.char_indices().enumerate() {
        let sep = is_separator_char(c);
        match current_is_sep {
            None => current_is_sep = Some(sep),
            Some(prev) if prev == sep => {}
            Some(prev) => {
                f(Run {
                    text: &value[run_start_byte..byte_idx],
                    is_separator: prev,
                    run_idx,
                    char_start: run_start_char,
                });
                run_idx += 1;
                run_start_byte = byte_idx;
                run_start_char = char_idx as u32;
                current_is_sep = Some(sep);
            }
        }
    }
    if let Some(prev) = current_is_sep {
        f(Run {
            text: &value[run_start_byte..],
            is_separator: prev,
            run_idx,
            char_start: run_start_char,
        });
    }
}

/// Split a value into runs.
pub fn runs(value: &str) -> Vec<Run<'_>> {
    let mut out = Vec::new();
    for_each_run(value, |r| out.push(r));
    out
}

/// Stream the token runs of a value as `(token, run index)` pairs.
pub fn tokens_for_each<'v>(value: &'v str, mut f: impl FnMut(&'v str, u32)) {
    for_each_run(value, |r| {
        if !r.is_separator {
            f(r.text, r.run_idx);
        }
    });
}

/// The token runs of a value: `(token, run index)` pairs.
pub fn tokens(value: &str) -> Vec<(&str, u32)> {
    let mut out = Vec::new();
    tokens_for_each(value, |t, i| out.push((t, i)));
    out
}

/// Values longer than this enumerate only prefix/suffix grams plus the full
/// value (an engineering bound: all-substring enumeration is quadratic, and
/// the partial patterns that drive real PFDs — zip prefixes, area codes,
/// DOI registrants — are overwhelmingly affix-anchored; genuinely
/// mid-anchored patterns live in separator-bearing columns, which tokenize).
pub const FULL_NGRAM_LEN: usize = 12;

/// Which enumeration path a value took in [`enumerate_with_cutoff`].
enum Enumerated {
    /// Empty value, nothing emitted.
    Empty,
    /// Full `L(L+1)/2` substring enumeration (value within the cutoff).
    Full,
    /// Prefixes + suffixes only (value above the cutoff); carries what the
    /// repeat-mining pass needs.
    Affix { char_count: usize, ascii: bool },
}

/// The one n-gram enumeration core: values of up to `cutoff` chars yield
/// every substring, longer values yield prefixes, suffixes and the full
/// value. ASCII values (the common case for code-like columns) skip the
/// char-boundary table entirely; for non-ASCII values the caller-owned
/// `bounds` buffer is (re)filled with char → byte offsets.
fn enumerate_with_cutoff<'v>(
    value: &'v str,
    cutoff: usize,
    bounds: &mut Vec<usize>,
    f: &mut impl FnMut(&'v str, u32),
) -> Enumerated {
    if value.is_empty() {
        return Enumerated::Empty;
    }
    if value.is_ascii() {
        let n = value.len();
        if n <= cutoff {
            for i in 0..n {
                for j in (i + 1)..=n {
                    f(&value[i..j], i as u32);
                }
            }
            return Enumerated::Full;
        }
        for j in 1..=n {
            f(&value[..j], 0);
        }
        for i in 1..n {
            f(&value[i..], i as u32);
        }
        return Enumerated::Affix {
            char_count: n,
            ascii: true,
        };
    }
    bounds.clear();
    bounds.extend(value.char_indices().map(|(b, _)| b));
    bounds.push(value.len());
    let char_count = bounds.len() - 1;
    if char_count <= cutoff {
        for i in 0..char_count {
            for j in (i + 1)..=char_count {
                f(&value[bounds[i]..bounds[j]], i as u32);
            }
        }
        return Enumerated::Full;
    }
    // Prefixes.
    for j in 1..=char_count {
        f(&value[..bounds[j]], 0);
    }
    // Suffixes (the full value is already in the prefixes).
    for i in 1..char_count {
        f(&value[bounds[i]..], i as u32);
    }
    Enumerated::Affix {
        char_count,
        ascii: false,
    }
}

/// Stream all n-grams of a value with their character start positions.
///
/// Values of up to [`FULL_NGRAM_LEN`] characters yield every substring
/// (`L(L+1)/2` of them); longer values yield prefixes, suffixes and the full
/// value only.
pub fn ngrams_for_each<'v>(value: &'v str, mut f: impl FnMut(&'v str, u32)) {
    enumerate_with_cutoff(value, FULL_NGRAM_LEN, &mut Vec::new(), &mut f);
}

/// All n-grams of a value with their character start positions.
pub fn ngrams(value: &str) -> Vec<(&str, u32)> {
    let mut out = Vec::new();
    ngrams_for_each(value, |g, i| out.push((g, i)));
    out
}

/// Knobs for the n-gram / suffix-automaton extraction path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExtractOptions {
    /// Values of up to this many chars enumerate every substring (the
    /// quadratic path is fine for short codes); longer values take the
    /// affix + suffix-automaton path.
    pub full_enum_max_chars: usize,
    /// Mine repeated interior substrings of long values through a suffix
    /// automaton (off reproduces the affix-only long-value behavior).
    pub mine_repeats: bool,
    /// Minimum char length for a mined repeated substring — shorter repeats
    /// are noise (single letters repeat in any text).
    pub repeat_min_len: usize,
    /// Maximum char length for a mined repeated substring. Long repeated
    /// blocks are near-unique across rows (useless as shared index
    /// fragments) and their short recurring sub-patterns live in separate
    /// automaton states that are still mined.
    pub repeat_max_len: usize,
    /// Branching cutoff: at most this many repeated substrings per cell,
    /// ranked by (occurrences, length). Bounds pathological values (a cell
    /// of `aaaa…` has Θ(len) repeated classes).
    pub max_repeats_per_cell: usize,
}

impl Default for ExtractOptions {
    fn default() -> Self {
        ExtractOptions {
            full_enum_max_chars: FULL_NGRAM_LEN,
            mine_repeats: true,
            repeat_min_len: 3,
            repeat_max_len: 24,
            max_repeats_per_cell: 16,
        }
    }
}

/// Per-fragment occurrence cap when a mined repeat is re-located in the
/// value: bounds the `O(occurrences · len)` scan for degenerate runs.
const MAX_OCCURRENCES_PER_REPEAT: usize = 8;

/// One mined repeat's state during the batched relocation scan.
#[derive(Debug, Clone, Copy)]
struct NeedleState {
    /// Fragment byte range within the cell value.
    start_b: u32,
    /// Exclusive end of the fragment's byte range.
    end_b: u32,
    /// Char length of the fragment.
    len: u32,
    /// Occurrences not yet seen (from the automaton's count); the scan
    /// stops tracking a needle once every occurrence is accounted for.
    left: u32,
    /// Interior emissions still allowed ([`MAX_OCCURRENCES_PER_REPEAT`]).
    budget: u8,
    /// Next needle sharing the same first byte (`-1` ends the chain).
    next: i32,
}

/// Counters from one index build's extraction phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExtractStats {
    /// Cells short enough for full n-gram enumeration.
    pub cells_full_enum: usize,
    /// Cells that took the affix + suffix-automaton path.
    pub cells_automaton: usize,
    /// Repeated interior fragments emitted by the automaton path.
    pub repeat_fragments: usize,
}

/// Streaming n-gram extractor with the suffix-automaton long-value path.
///
/// One extractor is built per attribute index and reused across every cell,
/// so the automaton, its count buffer and the char-boundary table are
/// allocated once ([`SuffixAutomaton::reset`] keeps capacity).
///
/// ```
/// use pfd_discovery::extract::{ExtractOptions, FragmentExtractor};
///
/// let mut ex = FragmentExtractor::new(ExtractOptions::default());
/// let mut frags = Vec::new();
/// // Short values: every substring, identical to `ngrams()`.
/// ex.for_each("90001", |f, pos| frags.push((f.to_string(), pos)));
/// assert_eq!(frags.len(), 15);
///
/// // Long values: affixes plus repeated interior substrings — the doubled
/// // "XK72" block surfaces without quadratic enumeration.
/// frags.clear();
/// ex.for_each("aqzXK72mmpbvXK72qrw", |f, pos| frags.push((f.to_string(), pos)));
/// assert!(frags.iter().any(|(f, p)| f == "XK72" && *p == 3));
/// assert!(frags.iter().any(|(f, p)| f == "XK72" && *p == 12));
/// ```
#[derive(Debug, Default)]
pub struct FragmentExtractor {
    opts: ExtractOptions,
    sam: SuffixAutomaton,
    counts: Vec<u32>,
    count_scratch: CountScratch,
    /// Mined repeats of the current cell: `(count, len, first_start_char)`.
    repeats: Vec<(u32, u32, u32)>,
    /// Char-index → byte-offset table for non-ASCII values.
    bounds: Vec<usize>,
    /// Relocation scratch: per-needle scan state, reused across cells.
    needles: Vec<NeedleState>,
    /// Relocation scratch: interior hits as `(needle, byte_pos, char_pos)`.
    reloc_hits: Vec<(u32, u32, u32)>,
    /// Extraction counters, reset by [`FragmentExtractor::take_stats`].
    pub stats: ExtractStats,
}

impl FragmentExtractor {
    /// A fresh extractor with the given knobs.
    pub fn new(opts: ExtractOptions) -> FragmentExtractor {
        FragmentExtractor {
            opts,
            ..FragmentExtractor::default()
        }
    }

    /// Take and reset the accumulated counters.
    pub fn take_stats(&mut self) -> ExtractStats {
        std::mem::take(&mut self.stats)
    }

    /// Stream the fragments of one cell value with their char start
    /// positions. Equivalent to [`ngrams_for_each`] for values of up to
    /// [`ExtractOptions::full_enum_max_chars`] chars.
    pub fn for_each<'v>(&mut self, value: &'v str, mut f: impl FnMut(&'v str, u32)) {
        match enumerate_with_cutoff(
            value,
            self.opts.full_enum_max_chars,
            &mut self.bounds,
            &mut f,
        ) {
            Enumerated::Empty => {}
            Enumerated::Full => self.stats.cells_full_enum += 1,
            Enumerated::Affix { char_count, ascii } => {
                self.stats.cells_automaton += 1;
                if self.opts.mine_repeats {
                    self.mine_repeats(value, char_count, ascii, &mut f);
                }
            }
        }
    }

    /// The suffix-automaton pass: emit the distinct repeated interior
    /// substrings of a long value at every occurrence position (affix
    /// occurrences are already covered by the prefix/suffix loops).
    fn mine_repeats<'v>(
        &mut self,
        value: &'v str,
        char_count: usize,
        ascii: bool,
        f: &mut impl FnMut(&'v str, u32),
    ) {
        self.sam.reset();
        for c in value.chars() {
            self.sam.extend(c);
        }
        self.sam
            .occurrence_counts_into(&mut self.counts, &mut self.count_scratch);
        let (sam, counts, repeats) = (&self.sam, &self.counts, &mut self.repeats);
        repeats.clear();
        let max_len = self.opts.repeat_max_len as u32;
        for r in sam.repeats(counts, self.opts.repeat_min_len as u32) {
            // Whole-affix representatives are fully covered by the affix
            // loops only when *every* occurrence is an affix; interior
            // occurrences are filtered per position below.
            if r.len <= max_len {
                repeats.push((r.count, r.len, r.first_start));
            }
        }
        // Branching cutoff: keep the most frequent, then longest repeats.
        repeats.sort_unstable_by(|a, b| b.cmp(a));
        repeats.truncate(self.opts.max_repeats_per_cell);
        repeats.sort_unstable_by_key(|&(_, len, start)| (start, len));
        self.relocate_repeats(value, char_count, ascii, f);
    }

    /// Re-locate every mined repeat's (overlapping) occurrences in one
    /// batched pass. The old path ran `value[from..].find(frag)` per repeat
    /// — quadratic on long cells with many repeats. Instead, a single
    /// left-to-right byte scan dispatches each position through a
    /// first-byte bucket to the needles that could start there (UTF-8
    /// self-synchronization guarantees a needle's first byte only occurs at
    /// char boundaries, so the byte scan is position-exact). Interior hits
    /// are collected per needle and emitted needle-major, making the output
    /// — order included — identical to the per-repeat rescan. Positions
    /// where a fragment is a prefix or suffix of the whole value were
    /// already emitted by the affix loops and stay filtered out.
    fn relocate_repeats<'v>(
        &mut self,
        value: &'v str,
        char_count: usize,
        ascii: bool,
        f: &mut impl FnMut(&'v str, u32),
    ) {
        let FragmentExtractor {
            repeats,
            bounds,
            needles,
            reloc_hits: hits,
            stats,
            ..
        } = self;
        let bytes = value.as_bytes();
        needles.clear();
        hits.clear();
        let mut bucket_head = [-1i32; 256];
        let mut active = 0usize;
        for &(count, len, first_start) in repeats.iter() {
            let (start_b, end_b) = if ascii {
                (first_start as usize, (first_start + len) as usize)
            } else {
                (
                    bounds[first_start as usize],
                    bounds[(first_start + len) as usize],
                )
            };
            let first = bytes[start_b] as usize;
            needles.push(NeedleState {
                start_b: start_b as u32,
                end_b: end_b as u32,
                len,
                left: count,
                budget: MAX_OCCURRENCES_PER_REPEAT as u8,
                next: bucket_head[first],
            });
            bucket_head[first] = needles.len() as i32 - 1;
            active += 1;
        }
        for i in 0..bytes.len() {
            if active == 0 {
                break;
            }
            let mut n = bucket_head[bytes[i] as usize];
            while n >= 0 {
                let idx = n as usize;
                let st = needles[idx];
                n = st.next;
                if st.left == 0 || st.budget == 0 {
                    continue;
                }
                let frag = &bytes[st.start_b as usize..st.end_b as usize];
                if !bytes[i..].starts_with(frag) {
                    continue;
                }
                let st = &mut needles[idx];
                st.left -= 1;
                let char_pos = if ascii {
                    i
                } else {
                    bounds
                        .binary_search(&i)
                        .expect("matches start on char boundaries")
                };
                if char_pos != 0 && char_pos + st.len as usize != char_count {
                    hits.push((idx as u32, i as u32, char_pos as u32));
                    st.budget -= 1;
                }
                if st.left == 0 || st.budget == 0 {
                    active -= 1;
                }
            }
        }
        // Needle-major emission, positions ascending within a needle
        // (stable sort keeps the scan order).
        hits.sort_by_key(|&(idx, _, _)| idx);
        for &(idx, byte_pos, char_pos) in hits.iter() {
            let st = &needles[idx as usize];
            let flen = (st.end_b - st.start_b) as usize;
            f(
                &value[byte_pos as usize..byte_pos as usize + flen],
                char_pos,
            );
            stats.repeat_fragments += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_of_full_name() {
        let rs = runs("Tayseer Fahmi");
        assert_eq!(rs.len(), 3);
        assert_eq!(rs[0].text, "Tayseer");
        assert!(!rs[0].is_separator);
        assert_eq!(rs[1].text, " ");
        assert!(rs[1].is_separator);
        assert_eq!(rs[2].text, "Fahmi");
        assert_eq!(rs[2].run_idx, 2);
        assert_eq!(rs[2].char_start, 8);
    }

    #[test]
    fn tokens_match_paper_example8() {
        // ((‘Tayseer’, 0), …) and ((‘Fahmi’, 2), …).
        assert_eq!(tokens("Tayseer Fahmi"), vec![("Tayseer", 0), ("Fahmi", 2)]);
    }

    #[test]
    fn tokens_of_table3_name_format() {
        // "Holloway, Donald E." → Holloway(0), Donald(2), E(4).
        let ts = tokens("Holloway, Donald E.");
        assert_eq!(ts, vec![("Holloway", 0), ("Donald", 2), ("E", 4)]);
    }

    #[test]
    fn tokens_of_employee_id() {
        assert_eq!(tokens("F-9-107"), vec![("F", 0), ("9", 2), ("107", 4)]);
    }

    #[test]
    fn consecutive_separators_form_one_run() {
        let rs = runs("a, b");
        assert_eq!(rs[1].text, ", ");
        assert_eq!(tokens("a, b"), vec![("a", 0), ("b", 2)]);
    }

    #[test]
    fn apostrophes_stay_inside_tokens() {
        assert_eq!(tokens("O'Brien Lee"), vec![("O'Brien", 0), ("Lee", 2)]);
    }

    #[test]
    fn empty_and_all_separator_values() {
        assert!(runs("").is_empty());
        assert!(tokens("---").is_empty());
        assert_eq!(runs("--").len(), 1);
    }

    #[test]
    fn ngrams_of_short_value() {
        let gs = ngrams("abc");
        // All 6 substrings.
        assert_eq!(
            gs,
            vec![
                ("a", 0),
                ("ab", 0),
                ("abc", 0),
                ("b", 1),
                ("bc", 1),
                ("c", 2)
            ]
        );
    }

    #[test]
    fn ngrams_of_zip() {
        let gs = ngrams("90001");
        assert_eq!(gs.len(), 15);
        assert!(gs.contains(&("900", 0)));
        assert!(gs.contains(&("90001", 0)));
        assert!(gs.contains(&("001", 2)));
    }

    #[test]
    fn long_values_use_affixes_only() {
        let v = "abcdefghijklmnop"; // 16 chars > FULL_NGRAM_LEN
        let gs = ngrams(v);
        // 16 prefixes + 15 suffixes.
        assert_eq!(gs.len(), 31);
        assert!(gs.contains(&("abc", 0)));
        assert!(gs.contains(&("nop", 13)));
        assert!(gs.contains(&(v, 0)));
        assert!(!gs.contains(&("cde", 2)), "no mid-grams for long values");
    }

    fn extracted(ex: &mut FragmentExtractor, v: &str) -> Vec<(String, u32)> {
        let mut out = Vec::new();
        ex.for_each(v, |f, p| out.push((f.to_string(), p)));
        out
    }

    #[test]
    fn extractor_matches_ngrams_below_cutoff() {
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        for v in ["", "a", "90001", "abcdefghijkl", "éé語ab"] {
            let naive: Vec<(String, u32)> = ngrams(v)
                .into_iter()
                .map(|(f, p)| (f.to_string(), p))
                .collect();
            assert_eq!(extracted(&mut ex, v), naive, "{v:?}");
        }
        assert_eq!(ex.stats.cells_automaton, 0);
    }

    #[test]
    fn cutoff_boundary_is_exact() {
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        let at = "abcdefghijkl"; // 12 chars = FULL_NGRAM_LEN
        assert_eq!(extracted(&mut ex, at).len(), 12 * 13 / 2);
        assert_eq!(ex.stats.cells_full_enum, 1);
        let over = "abcdefghijklm"; // 13 chars
        let gs = extracted(&mut ex, over);
        assert_eq!(ex.stats.cells_automaton, 1);
        // 13 prefixes + 12 suffixes, no repeats in an all-distinct value.
        assert_eq!(gs.len(), 25);
    }

    #[test]
    fn extractor_without_mining_equals_affix_ngrams() {
        let mut ex = FragmentExtractor::new(ExtractOptions {
            mine_repeats: false,
            ..ExtractOptions::default()
        });
        for v in ["abcXK72mmpbvXK72qrw", "ééééééééééééé", "aaaaaaaaaaaaaaaa"] {
            let naive: Vec<(String, u32)> = ngrams(v)
                .into_iter()
                .map(|(f, p)| (f.to_string(), p))
                .collect();
            assert_eq!(extracted(&mut ex, v), naive, "{v:?}");
        }
    }

    #[test]
    fn repeated_interior_fragments_surface_in_long_values() {
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        let v = "aqzXK72mmpbvXK72qrw"; // 19 chars, "XK72" at 3 and 12
        let gs = extracted(&mut ex, v);
        assert!(gs.contains(&("XK72".to_string(), 3)), "{gs:?}");
        assert!(gs.contains(&("XK72".to_string(), 12)), "{gs:?}");
        // Every emitted (fragment, pos) is a real occurrence, exactly once.
        let mut seen = std::collections::HashSet::new();
        for (frag, pos) in &gs {
            let chars: Vec<char> = v.chars().collect();
            let at: String = chars[*pos as usize..]
                .iter()
                .take(frag.chars().count())
                .collect();
            assert_eq!(&at, frag);
            assert!(seen.insert((frag.clone(), *pos)), "dup {frag:?}@{pos}");
        }
        assert!(ex.stats.repeat_fragments >= 2);
    }

    #[test]
    fn multibyte_long_values_emit_char_positions() {
        let mut ex = FragmentExtractor::new(ExtractOptions {
            repeat_min_len: 2,
            ..ExtractOptions::default()
        });
        // 15 chars, "語ß" repeats at char positions 2 and 9 (interior).
        let v = "éé語ßabcde語ßxyzé";
        let gs = extracted(&mut ex, v);
        assert!(gs.contains(&("語ß".to_string(), 2)), "{gs:?}");
        assert!(gs.contains(&("語ß".to_string(), 9)), "{gs:?}");
    }

    #[test]
    fn branching_cutoff_bounds_degenerate_runs() {
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        let v = "a".repeat(64);
        let gs = extracted(&mut ex, &v);
        // Affixes: 64 + 63; repeats bounded by the per-cell and
        // per-fragment caps rather than the Θ(len) repeated classes.
        let cap = 127 + ExtractOptions::default().max_repeats_per_cell * MAX_OCCURRENCES_PER_REPEAT;
        assert!(gs.len() <= cap, "{} > {cap}", gs.len());
    }

    #[test]
    fn extractor_reuse_is_deterministic() {
        let mut ex = FragmentExtractor::new(ExtractOptions::default());
        let v = "aqzXK72mmpbvXK72qrw";
        let first = extracted(&mut ex, v);
        for _ in 0..3 {
            extracted(&mut ex, "interleaved-other-value-123");
            assert_eq!(extracted(&mut ex, v), first);
        }
    }
}
