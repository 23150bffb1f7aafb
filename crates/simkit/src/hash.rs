//! A small deterministic hasher for the maps a packet touches.
//!
//! std's default SipHash-1-3 under a per-process random key resists
//! flooding by chosen keys, which no key here comes from, and is slow
//! on the short keys looked up per packet (an IP address, a VC, a
//! 4-tuple). [`FxHasher`] is the word step of rustc's `FxHash`: one
//! rotate, xor and multiply per word. A map's layout under it is the
//! same in every process.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` under [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A word-at-a-time multiply-rotate hasher (see the module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher(u64);

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk() {
            self.write_u64(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk() {
            self.write_u64(u32::from_le_bytes(*word).into());
            bytes = rest;
        }
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    /// The multiply mixes best into the top bits; the table picks
    /// buckets with the low ones.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: &impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(key)
    }

    #[test]
    fn equal_keys_hash_equal_across_hasher_instances() {
        let key = ([10u8, 0, 0, 2], 1023u16, [10u8, 0, 1, 7], 5001u16);
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        key.hash(&mut a);
        let same = key;
        same.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(hash_of(&key), a.finish());
    }

    #[test]
    fn the_hash_is_a_fixed_function_of_the_key() {
        // Pinned values: the same in every process, run and build.
        assert_eq!(hash_of(&0u64), 0);
        let mut h = FxHasher::default();
        h.write_u64(1);
        assert_eq!(h.finish(), 0x517c_c1b7_2722_0a95_u64.rotate_left(26));
        // Keys that differ in one field hash apart.
        assert_ne!(
            hash_of(&(0usize, 0u8, 42u16)),
            hash_of(&(0usize, 0u8, 43u16))
        );
        assert_ne!(hash_of(&[10u8, 0, 0, 2]), hash_of(&[10u8, 0, 0, 3]));
    }

    #[test]
    fn the_map_alias_is_a_working_map() {
        let mut m: FxHashMap<[u8; 4], usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert([10, 0, (i >> 8) as u8, i as u8], i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000usize).all(|i| m[&[10, 0, (i >> 8) as u8, i as u8]] == i));
    }
}
