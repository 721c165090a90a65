//! A small deterministic hasher for the simulator's per-packet maps.
//!
//! The standard library's `HashMap` seeds SipHash randomly per
//! process. Lookups keyed by a PCB 4-tuple or an IP address sit on the
//! per-segment path, where SipHash's cost shows; the keys come from
//! the simulation itself, never from an adversary, so a multiplicative
//! word hasher (the rustc "Fx" scheme) is enough. It is also fixed
//! across runs, which keeps any iteration order reproducible.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` using [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// The Fx word hasher: each word is folded into the state by a
/// rotate, an XOR and a multiply by an odd constant.
///
/// # Examples
///
/// ```
/// use simkit::hash::FastMap;
///
/// let mut m: FastMap<[u8; 4], usize> = FastMap::default();
/// m.insert([10, 0, 0, 1], 1);
/// assert_eq!(m.get(&[10, 0, 0, 1]), Some(&1));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    /// The multiply leaves its best-mixed bits at the top; the rotate
    /// brings them down to where the table takes its bucket index.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&[10u8, 1, 0, 7]), hash_of(&[10u8, 1, 0, 7]));
        let hashes: std::collections::HashSet<u64> = (0..4096u32)
            .map(|i| hash_of(&(i.to_be_bytes(), 4242u16)))
            .collect();
        assert_eq!(hashes.len(), 4096);
    }

    #[test]
    fn low_bits_spread_over_sequential_keys() {
        // A table of 1024 buckets indexes by the low ten bits: the
        // 1024 keys of one incast server must not pile into a few.
        let mut used = std::collections::HashSet::new();
        for port in 0..1024u16 {
            used.insert(hash_of(&([10u8, 1, 0, (port / 64) as u8], 1024 + port % 64)) & 1023);
        }
        assert!(used.len() > 512, "{} buckets used", used.len());
    }
}
