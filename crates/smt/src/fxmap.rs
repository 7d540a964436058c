//! A minimal Fx-style hasher for the solver's hot inner-loop maps.
//!
//! The standard library's default `HashMap` hasher (SipHash) is
//! DoS-resistant but costs real time in the congruence-closure and theory
//! loops, which perform millions of lookups keyed by small integers
//! (`TermId`s, node indices, variable indices) per heavyweight VC — the
//! PR-5 profile showed ~25% of total solve time inside SipHash alone.
//! Solver-internal maps are never keyed by attacker-controlled data, so the
//! classic Firefox multiply-rotate hash is the right trade.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hasher};

/// `HashMap` with the Fx hasher — a drop-in for solver-internal maps.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

/// `HashSet` with the Fx hasher.
pub(crate) type FxHashSet<K> = HashSet<K, FxBuildHasher>;

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Builder for [`FxHasher`] (zero-sized, `Default`-constructible so the map
/// type works with `HashMap::default`). Public only so that public fields
/// (`crate::cnf::AtomMap::var_of_term`) may hold Fx maps; the module stays
/// private, so the type cannot be named outside the crate.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;
    fn build_hasher(&self) -> FxHasher {
        FxHasher(0)
    }
}

/// The word-at-a-time multiply-rotate hasher.
#[derive(Clone, Copy, Debug)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    /// Mixes eight bytes per round, then the tail as one 4-, 2- and 1-byte
    /// word each (the `rustc-hash` scheme), so a 20-byte EUF signature key
    /// costs three rounds instead of twenty.
    #[inline]
    fn write(&mut self, mut bytes: &[u8]) {
        while let Some((word, rest)) = bytes.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<4>() {
            self.add(u64::from(u32::from_le_bytes(*word)));
            bytes = rest;
        }
        if let Some((word, rest)) = bytes.split_first_chunk::<2>() {
            self.add(u64::from(u16::from_le_bytes(*word)));
            bytes = rest;
        }
        if let Some(&b) = bytes.first() {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
        assert_eq!(m.len(), 1000);
    }
}
