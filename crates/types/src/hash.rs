//! A fast, non-cryptographic hasher for the simulator's hot paths.
//!
//! The standard library's `HashMap` defaults to SipHash-1-3, which is
//! DoS-resistant but costs tens of cycles per lookup — measurable on the
//! translate paths (`PgTbl`, the OS page tables) that run once per
//! simulated memory access. The simulator hashes only small
//! integer keys it generates itself (page numbers, descriptor slots), so
//! collision-flooding resistance buys nothing here.
//!
//! `FxHasher` implements the multiply-rotate scheme used by the Rust
//! compiler (`rustc-hash`, itself derived from Firefox): each word is
//! folded in with a rotate, an xor, and a multiply by a constant derived
//! from the golden ratio. It is deterministic across processes and
//! platforms of the same word size, which also keeps simulator output
//! stable run to run.
//!
//! # Examples
//!
//! ```
//! use impulse_types::hash::FxHashMap;
//!
//! let mut pages: FxHashMap<u64, u64> = FxHashMap::default();
//! pages.insert(0x42, 0x8000);
//! assert_eq!(pages.get(&0x42), Some(&0x8000));
//! ```

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `2^64 / φ`, the multiplicative constant used by rustc's FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
/// Rotation applied before folding each word in.
const ROTATE: u32 = 5;

/// The FxHash state: one word, updated per 8 bytes of input.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ i).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_to_hash(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `BuildHasher` producing [`FxHasher`]s (no per-map random state).
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`]. Construct with
/// `FxHashMap::default()` (the `new()` constructor is only available for
/// the default `RandomState`).
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_one<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic_across_hashers() {
        assert_eq!(hash_one(0xdead_beefu64), hash_one(0xdead_beefu64));
        assert_eq!(hash_one("page"), hash_one("page"));
    }

    #[test]
    fn distinct_keys_hash_apart() {
        // Not a statistical test — just a guard against a degenerate
        // implementation (e.g. returning the key or a constant).
        let hashes: HashSet<u64> = (0..1024u64).map(hash_one).collect();
        assert_eq!(hashes.len(), 1024);
        assert_ne!(hash_one(7u64), 7);
    }

    #[test]
    fn byte_stream_matches_word_writes() {
        // `write` folds full 8-byte words exactly like `write_u64`.
        let mut a = FxHasher::default();
        a.write(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        let mut b = FxHasher::default();
        b.write_u64(0x0123_4567_89ab_cdef);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn map_and_set_work() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        let s: FxHashSet<u64> = (0..10).collect();
        assert!(s.contains(&9));
        assert_eq!(s.len(), 10);
    }
}
