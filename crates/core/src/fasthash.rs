//! A fast keyless hasher for captured contexts.
//!
//! Captures are hashed on the per-event hot path: by the distinct-context
//! set of `ContextStats`, by the sharded collector's router and memo, and
//! by the encoding-stack intern table. All of them use [`FastHasher`], as
//! do the decoder's piece cache, search memo and reach cache.

use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A fast keyless multiply-rotate hasher (the Fowler/rustc "Fx" recipe).
///
/// Unlike `std`'s SipHash it is not DoS-resistant, which is fine here: the
/// inputs are the program's own captures, not attacker-chosen keys, and
/// collisions only cost a full-equality compare. Being keyless also makes
/// it deterministic — every thread, collector and process agrees on every
/// hash, which the sharded collector's routing relies on.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    hash: u64,
}

/// [`BuildHasher`](std::hash::BuildHasher) for `HashMap`s and `HashSet`s
/// keyed by captures.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

impl FastHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    /// A hasher whose state starts at `hash`: continues a hash computed
    /// earlier, as the structural hash of an encoding stack extends its
    /// parent's by one frame.
    pub(crate) fn resume(hash: u64) -> Self {
        Self { hash }
    }

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// The [`FastHasher`] hash of `value`.
pub fn fast_hash<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FastHasher::default();
    value.hash(&mut h);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyless_and_deterministic() {
        assert_eq!(fast_hash(&(1u64, 2u32)), fast_hash(&(1u64, 2u32)));
        assert_ne!(fast_hash(&(1u64, 2u32)), fast_hash(&(2u64, 1u32)));
    }

    #[test]
    fn resume_continues_a_hash() {
        let mut whole = FastHasher::default();
        whole.write_u64(3);
        whole.write_u64(4);
        let mut first = FastHasher::default();
        first.write_u64(3);
        let mut rest = FastHasher::resume(first.finish());
        rest.write_u64(4);
        assert_eq!(rest.finish(), whole.finish());
    }
}
