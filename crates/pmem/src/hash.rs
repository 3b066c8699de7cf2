//! Deterministic hashing and pseudo-randomness shared by the workspace.
//!
//! Every fingerprint, cache-group key and seeded generator in the
//! workspace is built from [`fnv1a`] and [`SplitMix64`], so a digest or a
//! generated corpus depends on one definition of each. In-memory tables
//! keyed by integers (cache lines, addresses, source locations) hash
//! with [`IntHasher`], one multiply per word.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The 64-bit FNV-1a offset basis: the starting state for [`fnv1a`].
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into `hash` with 64-bit FNV-1a. Start a fresh hash at
/// [`FNV_OFFSET`]; chaining calls hashes the concatenation.
#[inline]
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// SplitMix64: a small, fast, seedable 64-bit generator. Workload keys,
/// generated programs and schedule samples must be reproducible across
/// re-executions, so nothing here draws on ambient randomness.
#[derive(Clone, Copy, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Seeds the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next pseudo-random value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// A multiplicative hasher for integer keys: each word written is folded
/// in with one rotate, xor and multiply (the Fx scheme). It is not
/// collision-resistant against chosen keys, and needs not be: its tables
/// are keyed by cache lines and addresses the checker produces itself.
/// Hash values are never persisted or compared across processes.
#[derive(Clone, Copy, Debug, Default)]
pub struct IntHasher(u64);

impl IntHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(
                c.try_into().expect("chunks_exact yields 8-byte chunks"),
            ));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
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
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` hashed with [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed with [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(
            fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"),
            0x8594_4171_f739_67e8
        );
    }

    #[test]
    fn int_hasher_separates_nearby_keys_and_byte_tails() {
        let hash = |f: &dyn Fn(&mut IntHasher)| {
            let mut h = IntHasher::default();
            f(&mut h);
            h.finish()
        };
        let lines: IntSet<u64> = (0..1024).map(|i| hash(&|h| h.write_u64(i))).collect();
        assert_eq!(lines.len(), 1024);
        // A short tail is length-tagged, so zero bytes still count.
        assert_ne!(hash(&|h| h.write(b"a")), hash(&|h| h.write(b"a\0")));
        let mut m: IntMap<u64, u32> = IntMap::default();
        m.insert(7, 1);
        assert_eq!(m.get(&7), Some(&1));
    }

    #[test]
    fn splitmix64_matches_the_reference_sequence() {
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6_457_827_717_110_365_317);
        assert_eq!(rng.next_u64(), 3_203_168_211_198_807_973);
    }
}
