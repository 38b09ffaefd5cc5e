//! Word-at-a-time (SWAR) byte kernels for the text hot loops: equality,
//! prefix tests, byte search, and substring containment.
//!
//! Fragment extraction and constrained-pattern matching spend their time in
//! tight byte scans over cell values. These kernels process eight bytes per
//! step using plain `u64` arithmetic — no platform intrinsics, so every
//! target gets the same speedup and there is nothing to feature-gate. Each
//! kernel has a `_scalar` twin with the obvious byte-by-byte loop; the
//! property suite pins the pair byte-identical on arbitrary inputs, and the
//! `postings_runtime` bench reports both so either path regressing is
//! visible.
//!
//! Honesty note: SWAR wins on runs of ≥ 16 bytes or so; below that the
//! setup overhead ties with the scalar loop (it never loses — the word loop
//! simply doesn't execute). Deciding per call site would cost more than it
//! saves, so the kernels handle short inputs through their scalar tails.

/// Every byte set to `0x01` — the SWAR broadcast multiplier.
const LO: u64 = 0x0101_0101_0101_0101;
/// Every byte's high bit — the SWAR carry/flag mask.
const HI: u64 = 0x8080_8080_8080_8080;

/// Are `a` and `b` byte-identical? Word-chunked equality.
#[inline]
pub fn eq_bytes(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0usize;
    while i + 8 <= a.len() {
        let wa = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte chunk"));
        let wb = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"));
        if wa != wb {
            return false;
        }
        i += 8;
    }
    a[i..] == b[i..]
}

/// Scalar twin of [`eq_bytes`].
#[inline]
pub fn eq_bytes_scalar(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    for (x, y) in a.iter().zip(b) {
        if x != y {
            return false;
        }
    }
    true
}

/// Does `hay` start with `needle`? Word-chunked prefix compare.
#[inline]
pub fn is_prefix(hay: &[u8], needle: &[u8]) -> bool {
    hay.len() >= needle.len() && eq_bytes(&hay[..needle.len()], needle)
}

/// Scalar twin of [`is_prefix`].
#[inline]
pub fn is_prefix_scalar(hay: &[u8], needle: &[u8]) -> bool {
    hay.len() >= needle.len() && eq_bytes_scalar(&hay[..needle.len()], needle)
}

/// Position of the first occurrence of `byte` in `hay` — eight bytes per
/// step via the classic SWAR zero-byte test `(x - LO) & !x & HI`.
#[inline]
pub fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    let pat = LO.wrapping_mul(u64::from(byte));
    let mut i = 0usize;
    while i + 8 <= hay.len() {
        let w = u64::from_le_bytes(hay[i..i + 8].try_into().expect("8-byte chunk")) ^ pat;
        let hit = w.wrapping_sub(LO) & !w & HI;
        if hit != 0 {
            return Some(i + (hit.trailing_zeros() / 8) as usize);
        }
        i += 8;
    }
    hay[i..].iter().position(|&b| b == byte).map(|p| i + p)
}

/// Scalar twin of [`find_byte`].
#[inline]
pub fn find_byte_scalar(hay: &[u8], byte: u8) -> Option<usize> {
    hay.iter().position(|&b| b == byte)
}

/// Does `hay` contain `needle`? First-byte SWAR scan, then a word-chunked
/// confirm at each candidate. Empty needles match (at position 0), as with
/// `str::contains`.
#[inline]
pub fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else {
        return true;
    };
    if needle.len() > hay.len() {
        return false;
    }
    let mut from = 0usize;
    let last_start = hay.len() - needle.len();
    while from <= last_start {
        match find_byte(&hay[from..=last_start], first) {
            Some(p) => {
                let at = from + p;
                if eq_bytes(&hay[at + 1..at + needle.len()], rest) {
                    return true;
                }
                from = at + 1;
            }
            None => return false,
        }
    }
    false
}

/// Scalar twin of [`contains_bytes`].
#[inline]
pub fn contains_bytes_scalar(hay: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() {
        return true;
    }
    if needle.len() > hay.len() {
        return false;
    }
    (0..=hay.len() - needle.len()).any(|i| &hay[i..i + needle.len()] == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_and_prefix_match_scalar_on_boundary_lengths() {
        let base: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37)).collect();
        for len in 0..base.len() {
            let a = &base[..len];
            let mut b = a.to_vec();
            assert!(eq_bytes(a, &b));
            assert_eq!(eq_bytes(a, &b), eq_bytes_scalar(a, &b));
            if len > 0 {
                // Flip each byte in turn; both kernels must catch it.
                for flip in [0, len / 2, len - 1] {
                    b[flip] ^= 0x40;
                    assert!(!eq_bytes(a, &b), "len={len} flip={flip}");
                    assert_eq!(eq_bytes(a, &b), eq_bytes_scalar(a, &b));
                    b[flip] ^= 0x40;
                }
            }
            assert_eq!(is_prefix(&base, a), is_prefix_scalar(&base, a));
            assert!(is_prefix(&base, a));
        }
        assert!(!eq_bytes(b"abc", b"abcd"), "length mismatch");
        assert!(!is_prefix(b"ab", b"abc"), "needle longer than hay");
    }

    #[test]
    fn find_byte_matches_scalar_at_every_offset() {
        let mut hay = vec![b'x'; 25];
        for at in 0..hay.len() {
            hay[at] = b'q';
            assert_eq!(find_byte(&hay, b'q'), Some(at));
            assert_eq!(find_byte(&hay, b'q'), find_byte_scalar(&hay, b'q'));
            hay[at] = b'x';
        }
        assert_eq!(find_byte(&hay, b'q'), None);
        assert_eq!(find_byte(&[], b'q'), None);
        // High-bit bytes must not alias low ones.
        assert_eq!(find_byte(&[0x80, 0x00], 0x00), Some(1));
        assert_eq!(find_byte(&[0xff; 9], 0x7f), None);
    }

    #[test]
    fn contains_matches_scalar_on_overlapping_needles() {
        let hay = b"abababcabababcxyzabababc";
        let cases: &[&[u8]] = &[
            b"",
            b"a",
            b"z",
            b"ababc",
            b"abababc",
            b"xyz",
            b"abababcx",
            b"cxyza",
            b"abababcxyzabababc",
            b"abababcxyzabababcz",
        ];
        for needle in cases {
            assert_eq!(
                contains_bytes(hay, needle),
                contains_bytes_scalar(hay, needle),
                "needle={:?}",
                std::str::from_utf8(needle)
            );
        }
        assert!(!contains_bytes(b"ab", b"abc"), "needle longer than hay");
        assert!(contains_bytes(b"", b""), "empty in empty");
    }
}
