//! Fast incremental state digests for divergence voting.
//!
//! Voting compares replicas after *every* request, so the digest must
//! cost O(changed state), not O(full freeze). Two pieces make that work:
//!
//! * **Small state** — everything except physical frames — is captured
//!   with [`IndraSystem::freeze_sans_phys`] (no frame cloning) and
//!   walked per section by [`indra_persist::encode_state_sections`],
//!   reusing the persist codec's field walk so the digest covers
//!   exactly what a checkpoint covers. Each section hashes
//!   independently, which is what lets the property tests corrupt one
//!   section and pin that the digest moves.
//! * **Physical frames** are validated by write epoch: the cache keeps
//!   `(epoch, digest)` per resident PPN, and each call walks the
//!   resident frames and re-hashes only those whose
//!   [epoch](indra_mem::PhysicalMemory::frame_epoch) moved — each
//!   changed frame once per vote, however many writes touched it. The
//!   per-frame digests fold in PPN order from a sorted map. A
//!   [restore](indra_mem::PhysicalMemory::restore_state) restarts the
//!   epochs and bumps the phys generation, which invalidates the cache
//!   wholesale.
//!
//! The hash folds one little-endian 8-byte word per step,
//! `h = (h ^ w) * K; h ^= h >> 29` with `K` odd (tail bytes fold singly).
//! For a fixed word both halves are bijections of the 64-bit state, so
//! equal-length inputs differing in one word *always* hash apart —
//! single-byte-flip detection is a theorem, not a probabilistic claim,
//! which keeps the forall property tests deterministic. The xorshift is
//! not optional: a multiply only carries a difference upwards, so
//! without it two flips of bit 63 in different words would cancel.

use std::collections::BTreeMap;

use indra_core::IndraSystem;
use indra_persist::encode_state_sections;

/// The seed every digest chain starts from.
pub const HASH_SEED: u64 = 0x243f_6a88_85a3_08d3;
const HASH_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
const HASH_SHIFT: u32 = 29;

/// Folds `bytes` into the running state `h`, a word at a time.
#[must_use]
pub fn hash_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = hash_u64(h, u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
    }
    for &b in words.remainder() {
        h = hash_u64(h, u64::from(b));
    }
    h
}

/// Folds one word into the running state `h` — the hash step itself.
#[must_use]
#[inline]
pub fn hash_u64(h: u64, w: u64) -> u64 {
    let h = (h ^ w).wrapping_mul(HASH_MUL);
    h ^ (h >> HASH_SHIFT)
}

/// One replica's state digest: per-section digests for diagnosis, the
/// folded physical-frame digest, and the single `value` ballots carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateDigest {
    /// Per-section digests over the persist codec's small-state walk,
    /// in codec order (machine, os, monitor, scheme, hybrids, macros,
    /// in_flight, blocked, report).
    pub sections: Vec<(&'static str, u64)>,
    /// Digest over every resident physical frame, folded in PPN order.
    pub phys: u64,
    /// The chained whole-state digest (sections then phys).
    pub value: u64,
}

/// Incremental digest state for one replica cell.
///
/// Holds `(frame epoch, frame digest)` per resident PPN plus the phys
/// generation it was built against. `digest` re-hashes only frames
/// whose epoch moved since the previous call; a generation change
/// (state restore) or first use rebuilds the map. Frames are never
/// unmapped outside a restore, so the map never holds a stale resident
/// set. A cache belongs to one system: epochs are only comparable
/// within one physical memory.
#[derive(Debug, Default)]
pub struct DigestCache {
    frames: BTreeMap<u32, (u64, u64)>,
    generation: Option<u64>,
    rehashed: u64,
}

impl DigestCache {
    /// An empty cache; the first `digest` call hashes every frame.
    #[must_use]
    pub fn new() -> DigestCache {
        DigestCache::default()
    }

    /// Frames hashed so far, over every `digest` call (a warm digest
    /// adds only the frames written since the one before).
    #[must_use]
    pub fn rehashed_frames(&self) -> u64 {
        self.rehashed
    }

    /// Digests `sys` — O(small state + written frames) when the cache
    /// is warm.
    pub fn digest(&mut self, sys: &IndraSystem) -> StateDigest {
        let phys = sys.machine().phys();
        if self.generation != Some(phys.generation()) {
            self.frames.clear();
            self.generation = Some(phys.generation());
        }
        for (ppn, epoch, frame) in phys.frames_with_epochs() {
            if self.frames.get(&ppn).is_none_or(|&(seen, _)| seen != epoch) {
                self.frames.insert(ppn, (epoch, hash_bytes(HASH_SEED, frame)));
                self.rehashed += 1;
            }
        }
        let mut phys_digest = HASH_SEED;
        for (&ppn, &(_, d)) in &self.frames {
            phys_digest = hash_u64(phys_digest, u64::from(ppn));
            phys_digest = hash_u64(phys_digest, d);
        }

        let state = sys.freeze_sans_phys();
        let sections: Vec<(&'static str, u64)> = encode_state_sections(&state)
            .iter()
            .map(|(name, bytes)| (*name, hash_bytes(HASH_SEED, bytes)))
            .collect();
        let mut value = HASH_SEED;
        for &(name, d) in &sections {
            value = hash_bytes(value, name.as_bytes());
            value = hash_u64(value, d);
        }
        value = hash_u64(value, phys_digest);
        StateDigest { sections, phys: phys_digest, value }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_byte_flip_always_changes_the_hash() {
        // Each step is a bijection of the state for a fixed word, so
        // equal-length inputs differing in exactly one word must hash
        // apart. Exercise every position of a small buffer, plus a
        // buffer whose length leaves tail bytes.
        for len in [64, 61] {
            let base = vec![0x5au8; len];
            let h0 = hash_bytes(HASH_SEED, &base);
            for pos in 0..len {
                for bit in 0..8 {
                    let mut b = base.clone();
                    b[pos] ^= 1 << bit;
                    assert_ne!(hash_bytes(HASH_SEED, &b), h0, "flip at {pos}.{bit} collided");
                }
            }
        }
    }

    #[test]
    fn every_two_bit_flip_changes_the_hash() {
        // Flips inside one word are covered by the bijection argument;
        // flips in two different words are what the xorshift is for
        // (without it, bit 63 of one word cancels bit 63 of another).
        // Every pair of bits of a 64-byte buffer, exhaustively.
        let base = [0x5au8; 64];
        let h0 = hash_bytes(HASH_SEED, &base);
        let bits = base.len() * 8;
        for a in 0..bits {
            for b in a + 1..bits {
                let mut x = base;
                x[a / 8] ^= 1 << (a % 8);
                x[b / 8] ^= 1 << (b % 8);
                assert_ne!(hash_bytes(HASH_SEED, &x), h0, "flips at bits {a} and {b} collided");
            }
        }
    }

    #[test]
    fn u64_fold_is_order_sensitive() {
        let a = hash_u64(hash_u64(HASH_SEED, 1), 2);
        let b = hash_u64(hash_u64(HASH_SEED, 2), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn u64_fold_matches_its_little_endian_bytes() {
        let v = 0x0123_4567_89ab_cdef;
        assert_eq!(hash_u64(HASH_SEED, v), hash_bytes(HASH_SEED, &v.to_le_bytes()));
    }
}
