//! The merge-kernel name the benchmark harness prints in its receipt.
//! Posting-list intersections run one scalar merge in [`crate::postings`].

/// Always `"scalar"`: there is no SIMD kernel and no CPU dispatch. Kept
/// only for the benchmark harness's receipt line; the next benchmark
/// change removes this function together with that field.
pub fn merge_kernel_name() -> &'static str {
    "scalar"
}
