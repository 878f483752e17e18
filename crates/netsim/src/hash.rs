//! One deterministic fast hasher for the simulator's own maps.
//!
//! `std`'s default SipHash defends against adversarial keys, at several
//! times the cost of a multiply per word. Keys the simulation generates
//! itself (node and AS ids, connection tuples, DNS query ids, decoy
//! domains) cannot be chosen by an attacker, so their maps use
//! [`FastHash`]: an FxHash-style add-multiply fold, unseeded, so the same
//! keys hash the same in every run. Maps keyed by untrusted bytes (daemon
//! HTTP, checkpoint and journal parsing) keep SipHash.
//!
//! Output must never depend on a `FastMap`'s iteration order: it repeats
//! from run to run, but it is an accident of the hash function and the
//! map's growth history, not an order anyone chose.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `BuildHasher` of [`FastHasher`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHash;

/// A `HashMap` over [`FastHash`].
pub type FastMap<K, V> = HashMap<K, V, FastHash>;
/// A `HashSet` over [`FastHash`].
pub type FastSet<T> = HashSet<T, FastHash>;

impl BuildHasher for FastHash {
    type Hasher = FastHasher;

    fn build_hasher(&self) -> FastHasher {
        FastHasher(0)
    }
}

/// Folds each word in as `h = (h + word) * K`.
#[derive(Debug, Clone, Copy)]
pub struct FastHasher(u64);

/// Odd multiplier with well-spread bits (the rustc-hash 2 constant).
const K: u64 = 0xf135_7aea_2e62_a9c5;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // Zero-padded, with the tail length in the free top byte so
            // that trailing NULs still count.
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            last[7] = rest.len() as u8;
            self.add(u64::from_le_bytes(last));
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

    /// The product's high bits depend on every input bit, its low bits
    /// only on the low input bits; hashbrown picks buckets by the low bits,
    /// so rotate the well-mixed high bits down.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn hash<T: std::hash::Hash>(value: &T) -> u64 {
        FastHash.hash_one(value)
    }

    #[test]
    fn hashes_are_unseeded() {
        assert_eq!(hash(&1u32), K.rotate_left(26));
        assert_eq!(
            hash(&(1u32, 2u32)),
            ((K + 2).wrapping_mul(K)).rotate_left(26)
        );
    }

    #[test]
    fn byte_tails_and_word_boundaries_matter() {
        let names = ["", "a", "a\0", "abcdefgh", "abcdefghi", "abcdefgh\0"];
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(hash(a), hash(b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn sequential_keys_spread_over_low_bits() {
        // Addresses differing only in their last octet (the high byte of
        // the folded word) must still land in distinct buckets.
        let buckets: FastSet<u64> = (0..=255u8)
            .map(|d| hash(&Ipv4Addr::new(10, 0, 0, d)) & 0x3ff)
            .collect();
        assert!(buckets.len() > 200, "{} of 256 buckets", buckets.len());
        let ids: FastSet<u64> = (0..1024u32).map(|n| hash(&n) & 0x3ff).collect();
        assert!(ids.len() > 600, "{} of 1024 buckets", ids.len());
    }

    #[test]
    fn map_order_repeats_across_builds() {
        let build = || -> Vec<u32> {
            let map: FastMap<u32, ()> = (0..500u32).map(|n| (n * 7919, ())).collect();
            map.into_keys().collect()
        };
        assert_eq!(build(), build());
    }
}
