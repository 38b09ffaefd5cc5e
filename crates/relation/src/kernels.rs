//! Block-wise set-intersection kernels: a scalar merge, an SSE2 all-pairs
//! compare, and an AVX2 all-pairs compare at twice the width — all
//! property-pinned to produce identical output.
//!
//! SSE2 is part of the `x86_64` baseline ISA, so that path needs no
//! detection; AVX2 is not, so [`intersect_merge`] consults a
//! once-detected, cached CPU-feature flag (`is_x86_feature_detected!`)
//! and dispatches the widest kernel the hardware has. Every other
//! platform routes to the scalar twin; [`merge_kernel_name`] reports
//! which path a process resolved to (the bench artifacts record it).
//! All kernels expect strictly increasing inputs (the posting-list
//! invariant) and append the ascending intersection to `out` without
//! clearing it.
//!
//! Honesty note: the SIMD kernel wins on *balanced* inputs where the merge
//! advances both cursors in lockstep. Lopsided intersections are better
//! served by galloping, which `postings` dispatches before either kernel
//! is reached — the kernels only see the balanced regime. The
//! `postings_runtime` bench reports both paths so a regression on either
//! is visible.

/// Appends `a ∩ b` to `out` with a linear scalar merge — the reference
/// twin the SIMD kernel is pinned against (see `tests/proptests.rs`).
#[inline]
pub fn intersect_merge_scalar(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Appends `a ∩ b` to `out` using the widest kernel the CPU supports:
/// AVX2 when runtime detection finds it, the baseline SSE2 kernel
/// otherwise on `x86_64`, and the scalar merge everywhere else. Output is
/// byte-identical to [`intersect_merge_scalar`] on every platform.
#[inline]
pub fn intersect_merge(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            // SAFETY: the cached runtime detection above confirmed AVX2.
            unsafe { intersect_merge_avx2(a, b, out) };
        } else {
            intersect_merge_sse2(a, b, out);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        intersect_merge_scalar(a, b, out);
    }
}

/// The merge-kernel path [`intersect_merge`] resolves to on this machine:
/// `"avx2"`, `"sse2"` or `"scalar"`. Bench artifacts record it so a result
/// measured on one path is never compared against another unknowingly.
pub fn merge_kernel_name() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2_available() {
            "avx2"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}

/// Cached `is_x86_feature_detected!("avx2")`: the cpuid probe runs once
/// per process, every later call is one relaxed atomic load.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    use std::sync::atomic::{AtomicU8, Ordering};
    // 0 = not yet probed, 1 = absent, 2 = present. A racing first call
    // probes twice; both writers store the same answer.
    static AVX2: AtomicU8 = AtomicU8::new(0);
    match AVX2.load(Ordering::Relaxed) {
        0 => {
            let present = is_x86_feature_detected!("avx2");
            AVX2.store(if present { 2 } else { 1 }, Ordering::Relaxed);
            present
        }
        state => state == 2,
    }
}

/// SSE2 quad-at-a-time intersection (Schlegel/Lemire style): compare one
/// 4-lane quad of `a` against all four rotations of a quad of `b`, push
/// the lanes that matched, then advance whichever quad has the smaller
/// maximum. Strictly increasing inputs guarantee each common value is
/// compared in exactly one quad pairing, so no hit is missed or doubled.
#[cfg(target_arch = "x86_64")]
fn intersect_merge_sse2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    use std::arch::x86_64::{
        _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128, _mm_movemask_ps, _mm_or_si128,
        _mm_shuffle_epi32,
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i + 4 <= a.len() && j + 4 <= b.len() {
        // SAFETY: `i + 4 <= a.len()` and `j + 4 <= b.len()` bound the
        // 16-byte unaligned loads; SSE2 is unconditionally available on
        // x86_64.
        let mask = unsafe {
            let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
            let vb = _mm_loadu_si128(b.as_ptr().add(j).cast());
            let e0 = _mm_cmpeq_epi32(va, vb);
            let e1 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b00_11_10_01));
            let e2 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b01_00_11_10));
            let e3 = _mm_cmpeq_epi32(va, _mm_shuffle_epi32(vb, 0b10_01_00_11));
            let hits = _mm_or_si128(_mm_or_si128(e0, e1), _mm_or_si128(e2, e3));
            _mm_movemask_ps(_mm_castsi128_ps(hits)) as u32
        };
        let mut m = mask;
        while m != 0 {
            out.push(a[i + m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        let (amax, bmax) = (a[i + 3], b[j + 3]);
        if amax <= bmax {
            i += 4;
        }
        if bmax <= amax {
            j += 4;
        }
    }
    intersect_merge_scalar(&a[i..], &b[j..], out);
}

/// AVX2 octet-at-a-time intersection — the SSE2 kernel at twice the lane
/// width: compare one 8-lane octet of `a` against all eight rotations of
/// an octet of `b` (rotation `r` pairs `a` lane `k` with `b` lane
/// `(k + r) % 8`, so the eight rotations cover all 64 lane pairs), push
/// the lanes that matched, then advance whichever octet has the smaller
/// maximum. The remainder hands off to the SSE2 kernel, whose own tail is
/// the scalar merge.
///
/// # Safety
/// The caller must have verified AVX2 support (see `avx2_available`).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn intersect_merge_avx2(a: &[u32], b: &[u32], out: &mut Vec<u32>) {
    use std::arch::x86_64::{
        _mm256_castsi256_ps, _mm256_cmpeq_epi32, _mm256_loadu_si256, _mm256_movemask_ps,
        _mm256_or_si256, _mm256_permutevar8x32_epi32, _mm256_setr_epi32,
    };
    let (mut i, mut j) = (0usize, 0usize);
    while i + 8 <= a.len() && j + 8 <= b.len() {
        // SAFETY: `i + 8 <= a.len()` and `j + 8 <= b.len()` bound the
        // 32-byte unaligned loads; AVX2 is guaranteed by the caller.
        let mask = unsafe {
            let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
            let vb = _mm256_loadu_si256(b.as_ptr().add(j).cast());
            let rotate1 = _mm256_setr_epi32(1, 2, 3, 4, 5, 6, 7, 0);
            let mut hits = _mm256_cmpeq_epi32(va, vb);
            let mut vr = vb;
            for _ in 0..7 {
                vr = _mm256_permutevar8x32_epi32(vr, rotate1);
                hits = _mm256_or_si256(hits, _mm256_cmpeq_epi32(va, vr));
            }
            _mm256_movemask_ps(_mm256_castsi256_ps(hits)) as u32
        };
        let mut m = mask;
        while m != 0 {
            out.push(a[i + m.trailing_zeros() as usize]);
            m &= m - 1;
        }
        let (amax, bmax) = (a[i + 7], b[j + 7]);
        if amax <= bmax {
            i += 8;
        }
        if bmax <= amax {
            j += 8;
        }
    }
    intersect_merge_sse2(&a[i..], &b[j..], out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn both(a: &[u32], b: &[u32]) -> (Vec<u32>, Vec<u32>) {
        let mut s = Vec::new();
        let mut k = Vec::new();
        intersect_merge_scalar(a, b, &mut s);
        intersect_merge(a, b, &mut k);
        (s, k)
    }

    #[test]
    fn kernel_matches_scalar_on_fixed_shapes() {
        let cases: Vec<(Vec<u32>, Vec<u32>)> = vec![
            (vec![], vec![1, 2, 3]),
            (vec![1, 2, 3], vec![]),
            ((0..16).collect(), (0..16).collect()),
            (
                (0..64).map(|i| i * 2).collect(),
                (0..64).map(|i| i * 3).collect(),
            ),
            ((0..5).collect(), (3..40).collect()),
            (vec![7], vec![7]),
            (vec![0, 4, 8, 12, 16], vec![1, 4, 9, 12, 17, 20, 33, 34]),
        ];
        for (a, b) in cases {
            let (s, k) = both(&a, &b);
            assert_eq!(s, k, "a={a:?} b={b:?}");
            let (s2, k2) = both(&b, &a);
            assert_eq!(s2, k2, "commuted a={a:?} b={b:?}");
            assert_eq!(s, s2, "intersection is symmetric");
        }
    }

    #[test]
    fn kernel_handles_unaligned_tails() {
        // Lengths that are not multiples of 4 exercise the scalar tail.
        for la in 0..10usize {
            for lb in 0..10usize {
                let a: Vec<u32> = (0..la as u32).map(|i| i * 3).collect();
                let b: Vec<u32> = (0..lb as u32).map(|i| i * 2 + 1).collect();
                let (s, k) = both(&a, &b);
                assert_eq!(s, k, "la={la} lb={lb}");
            }
        }
    }

    #[test]
    fn kernel_appends_without_clearing() {
        let mut out = vec![999];
        intersect_merge(&[1, 2, 3], &[2, 3, 4], &mut out);
        assert_eq!(out, vec![999, 2, 3]);
    }

    #[test]
    fn kernel_name_matches_dispatch() {
        let name = merge_kernel_name();
        #[cfg(target_arch = "x86_64")]
        assert!(name == "avx2" || name == "sse2", "unexpected path {name}");
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(name, "scalar");
        assert_eq!(name, merge_kernel_name(), "cached answer is stable");
    }

    /// All explicit kernel twins (not just whatever `intersect_merge`
    /// dispatches to) agree byte-for-byte on shapes crossing the 4- and
    /// 8-lane boundaries. The AVX2 twin is checked only where the CPU has
    /// it — on baseline containers this intentionally degrades to pinning
    /// SSE2, and the bench artifact records which path actually ran.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn explicit_simd_twins_match_scalar() {
        let shapes: Vec<(Vec<u32>, Vec<u32>)> = vec![
            ((0..7).collect(), (0..7).collect()),
            ((0..8).collect(), (4..12).collect()),
            ((0..9).collect(), (0..17).map(|i| i * 2).collect()),
            (
                (0..40).map(|i| i * 3).collect(),
                (0..40).map(|i| i * 5).collect(),
            ),
            ((0..100).collect(), (90..200).collect()),
            ((0..33).map(|i| i * 7).collect(), vec![0, 7, 230, 231]),
        ];
        for (a, b) in &shapes {
            let mut scalar = Vec::new();
            intersect_merge_scalar(a, b, &mut scalar);
            let mut sse2 = Vec::new();
            intersect_merge_sse2(a, b, &mut sse2);
            assert_eq!(scalar, sse2, "sse2 a={a:?} b={b:?}");
            if avx2_available() {
                let mut avx2 = Vec::new();
                // SAFETY: guarded by runtime detection.
                unsafe { intersect_merge_avx2(a, b, &mut avx2) };
                assert_eq!(scalar, avx2, "avx2 a={a:?} b={b:?}");
            }
        }
    }
}
