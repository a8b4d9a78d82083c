//! A fast, non-cryptographic hasher for the storage-internal maps.
//!
//! The relation keys (column, membership and composite join keys alike)
//! and the symbol table hash on every insert and every probe — the hottest
//! loops of the whole engine. They key on data the engine generated itself (tuples, values,
//! interned symbols), so the HashDoS resistance of the std `SipHash`
//! default buys nothing here; this is the word-folding FxHash algorithm
//! used by the Rust compiler for the same reason. Do **not** use it for
//! maps keyed by untrusted external input.

use std::hash::{BuildHasherDefault, Hasher};

/// Word-at-a-time folding hasher (the rustc FxHash algorithm).
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
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
            // Fold the length in so "a" and "a\0" disagree.
            self.add(u64::from_le_bytes(buf) ^ ((rem.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]; drop-in for engine-internal maps.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn distinguishes_close_inputs() {
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_ne!(hash_of("a"), hash_of("a\0"));
        assert_ne!(hash_of(1u64), hash_of(2u64));
        assert_ne!(hash_of((1u64, 2u64)), hash_of((2u64, 1u64)));
    }

    #[test]
    fn is_deterministic() {
        assert_eq!(hash_of("warehouse"), hash_of("warehouse"));
        let m: FxHashMap<&str, i32> = [("a", 1), ("b", 2)].into_iter().collect();
        assert_eq!(m["a"], 1);
        assert_eq!(m["b"], 2);
    }
}
