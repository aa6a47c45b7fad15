//! The one hasher for maps on the event path.
//!
//! Every key hashed on the event path is an id the simulation mints itself
//! (request counters, timer slots, actor ids, method names), so no outside
//! input reaches the hasher and SipHash's flood resistance buys nothing.
//! [`FastHasher`] folds each word in with one rotate, xor and multiply (the
//! Fx construction). It is fixed-keyed, so a run's table growth, and with it
//! every allocation count, repeats exactly from run to run. No map keyed by
//! it is iterated in an order that matters.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by [`FastHasher`]: the map type of the event path.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A set keyed by [`FastHasher`].
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// An odd multiplier with well-spread bits.
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A multiply-rotate word hasher; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
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
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
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
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(t: &T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(t)
    }

    #[test]
    fn fixed_keyed_and_order_sensitive() {
        assert_eq!(hash(&(3u32, 9u64)), hash(&(3u32, 9u64)));
        assert_ne!(hash(&(3u32, 9u64)), hash(&(9u32, 3u64)));
        assert_ne!(hash(&"get"), hash(&"put"));
        // A byte tail shorter than a word still reaches the state.
        assert_ne!(hash(&[1u8, 2, 3][..]), hash(&[1u8, 2, 4][..]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert!((0..1000).all(|i| m[&i] == i * 2));
        let s: FastSet<(u32, u32)> = (0..100).map(|i| (i, i + 1)).collect();
        assert!(s.contains(&(7, 8)) && !s.contains(&(8, 7)));
    }
}
