//! The runtime's one hasher for address-keyed maps: a fold-multiply
//! over the key's words.
//!
//! Every such map here is keyed by addresses the application declared
//! (dependency keys, chain bottoms, the replay builder's address
//! index) or by task pointers. These keys come from the program's own
//! data structures, not from an adversary, so the default SipHash's
//! resistance to crafted collisions buys nothing and costs a
//! measurable share of every probe on the spawn path.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Fold-multiply hasher: each word is XORed into the state, which is
/// then multiplied by an odd constant.
#[derive(Default, Clone, Copy)]
pub struct FxHasher(u64);

const SEED: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(SEED);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // Spread the high (multiply-mixed) bits into the table-index
        // low bits.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    /// Aligned addresses, the common key, spread over the low bits a
    /// table indexes by: 1 024 consecutive 64-byte blocks land in
    /// distinct slots of a 1 024-slot table far more often than not.
    #[test]
    fn aligned_addresses_spread_over_low_bits() {
        let slots: std::collections::HashSet<u64> = (0..1024usize)
            .map(|i| hash(0x7f00_0000_0000 + i * 64) & 1023)
            .collect();
        assert!(slots.len() > 600, "{} distinct slots", slots.len());
        assert_ne!(hash((1usize, 2usize)), hash((2usize, 1usize)));
    }
}
