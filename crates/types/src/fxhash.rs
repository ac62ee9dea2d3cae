//! A fast, non-cryptographic hasher for integer-keyed maps.
//!
//! The default `std::collections` hasher (SipHash 1-3) is DoS-resistant but
//! slow for the small integer keys ([`crate::Key`], [`crate::TxnId`], ...)
//! that dominate the checkers' hot loops. This module implements the
//! multiply-rotate "Fx" construction used by the Rust compiler (public
//! domain algorithm) so the workspace does not need an external hashing
//! crate. HashDoS is not a concern: inputs are locally generated histories.

use std::hash::{BuildHasherDefault, Hasher};

/// 64-bit Fibonacci-style multiplication constant (same as rustc's FxHasher).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
const ROTATE: u32 = 5;

/// The hasher state: a single 64-bit accumulator.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
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
            let word = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
            self.add_to_hash(word);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 8];
            word[..rem.len()].copy_from_slice(rem);
            // Mix in the length so "ab" and "ab\0" hash differently.
            self.add_to_hash(u64::from_le_bytes(word) ^ (rem.len() as u64) << 56);
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
}

/// Builder for [`FxHasher`]-backed collections.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// Drop-in `HashMap` with the fast hasher.
#[expect(clippy::disallowed_types, reason = "the deterministic hasher replaces std's random seed")]
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// Drop-in `HashSet` with the fast hasher.
#[expect(clippy::disallowed_types, reason = "the deterministic hasher replaces std's random seed")]
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(t: &T) -> u64 {
        FxBuildHasher::default().hash_one(t)
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinct_inputs_differ() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&"ab"), hash_of(&"ba"));
        // Length mixing: a short string vs. its zero-padded sibling.
        assert_ne!(hash_of(&b"ab".as_slice()), hash_of(&b"ab\0".as_slice()));
    }

    #[test]
    fn usable_as_map() {
        let mut m: FxHashMap<u64, &str> = FxHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.len(), 2);

        let mut s: FxHashSet<u64> = FxHashSet::default();
        s.insert(9);
        assert!(s.contains(&9));
    }

    #[test]
    fn spreads_sequential_keys() {
        // Sequential integer keys should not collide in the low bits too much;
        // sanity-check that 1000 sequential keys produce 1000 distinct hashes.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000u64 {
            seen.insert(hash_of(&i));
        }
        assert_eq!(seen.len(), 1000);
    }
}
