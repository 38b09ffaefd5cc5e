//! Minimal multiplicative hasher for the workspace's hot paths.
//!
//! Discovery's index construction hashes every fragment occurrence and
//! every row-set group, and `pfd_core`'s keyed grouping hashes tuples of
//! interned key ids; the default `RandomState` (SipHash-1-3) costs more than
//! the rest of the probe for the short keys involved. This is the
//! well-known rotate–xor–multiply construction (as used by rustc): 3–5×
//! faster on sub-16-byte keys, but not DoS-resistant: crafted keys can
//! collide. New maps should use it only for keys the program assigns
//! (symbols, key ids), as `pfd_core` does; its interner keyed by cell text
//! keeps the default SipHash. Discovery's fragment interner predates that
//! rule and buckets fragment text by [`fx_hash_str`]. Vendored locally
//! because the workspace builds offline with no registry route.

use std::hash::{BuildHasherDefault, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Rotate–xor–multiply hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf));
        }
        self.add(bytes.len() as u64);
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

/// `BuildHasher` plugging [`FxHasher`] into `HashMap`.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Hash a string directly (interning uses the raw digest as bucket key).
#[inline]
pub fn fx_hash_str(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_discriminating() {
        assert_eq!(fx_hash_str("Egypt"), fx_hash_str("Egypt"));
        assert_ne!(fx_hash_str("Egypt"), fx_hash_str("Yemen"));
        assert_ne!(fx_hash_str(""), fx_hash_str("\0"));
        // Length participates: a prefix must not collide with its extension
        // by construction of the tail padding.
        assert_ne!(fx_hash_str("90"), fx_hash_str("900"));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i.wrapping_mul(0x9E37_79B9_7F4A_7C15), i as usize);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&0], 0);
    }
}
