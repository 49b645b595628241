//! The hasher of the executor's hot key tables: join builds and probes,
//! grouped/partial/final aggregation groups and the merge index.
//!
//! Every row of a loop body passes through these tables on every
//! iteration, so hashing is on the hot path. They trade SipHash's
//! resistance to deliberately colliding keys (the keys are row values,
//! which users supply) for speed; other hash tables keep the standard
//! hasher.
//!
//! [`KeyHasher`] folds each written word in with an Fx-style
//! rotate-xor-multiply step and ends with the fmix64 finalizer of
//! MurmurHash3. The finalizer is not optional: `Value::hash` feeds the
//! `f64` bits of every number, and for integers the low mantissa bits are
//! all zero. A multiply only moves entropy upwards, so without the
//! finalizer those keys would share their low hash bits — the bits
//! `HashMap` picks buckets with.
//!
//! Partition routing does *not* use this hasher: it goes through
//! [`partition_for_key`](crate::physical::partition_for_key), which must
//! agree with the storage layer's layouts.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier of the Fx hash (rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Fast non-cryptographic hasher for in-memory key tables; see the
/// [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct KeyHasher {
    state: u64,
}

impl KeyHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
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

    #[inline]
    fn finish(&self) -> u64 {
        // fmix64 (MurmurHash3): every input bit reaches every output bit.
        let mut h = self.state;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

/// `BuildHasher` for [`KeyHasher`].
pub type BuildKeyHasher = BuildHasherDefault<KeyHasher>;

/// A `HashMap` hashed with [`KeyHasher`].
pub type KeyMap<K, V> = HashMap<K, V, BuildKeyHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use spinner_common::Value;
    use std::collections::HashSet;
    use std::hash::BuildHasher;

    #[test]
    fn integer_keys_spread_over_the_low_bits() {
        // Bucket selection uses the low bits; integer keys hash as f64
        // bits whose low mantissa bits are zero, so only a finalizer can
        // spread them. A uniform hash reaches ≈63% distinct values here.
        let build = BuildKeyHasher::default();
        let low: HashSet<u64> = (0..65_536i64)
            .map(|i| build.hash_one(Value::Int(i)) & 0xffff)
            .collect();
        assert!(
            low.len() * 10 >= 65_536 * 6,
            "only {} distinct low-16-bit values",
            low.len()
        );
    }

    #[test]
    fn vec_keys_look_up_by_slice() {
        let mut map: KeyMap<Vec<Value>, u32> = KeyMap::default();
        map.insert(vec![Value::Int(1), Value::Text("a".into())], 7);
        let probe = [Value::Float(1.0), Value::Text("a".into())];
        assert_eq!(map.get(&probe[..]), Some(&7));
    }
}
