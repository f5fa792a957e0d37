//! Seed-splittable random number streams.
//!
//! Every stochastic component of the simulation (arrival process, request
//! length sampling, planner perturbation, background traffic) draws from its
//! own named stream derived from a single experiment seed. Adding a new
//! consumer of randomness therefore never perturbs the draws seen by
//! existing components — experiment rows stay reproducible across code
//! changes that introduce new streams.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Derives independent [`SmallRng`] streams from one master seed.
#[derive(Clone, Copy, Debug)]
pub struct SeedSplitter {
    master: u64,
}

impl SeedSplitter {
    /// Create a splitter from the experiment's master seed.
    pub fn new(master: u64) -> Self {
        SeedSplitter { master }
    }

    /// An RNG for the stream named `label` (e.g. `"arrivals"`).
    pub fn stream(&self, label: &str) -> SmallRng {
        SmallRng::seed_from_u64(mix(self.master, hash_label(label)))
    }

    /// An RNG for the `index`-th member of a stream family (e.g. one stream
    /// per GPU or per request).
    pub fn indexed_stream(&self, label: &str, index: u64) -> SmallRng {
        SmallRng::seed_from_u64(mix(mix(self.master, hash_label(label)), index))
    }

    /// A derived splitter, for handing a whole sub-tree of streams to a
    /// component.
    pub fn child(&self, label: &str) -> SeedSplitter {
        SeedSplitter {
            master: mix(self.master, hash_label(label)),
        }
    }
}

/// FNV-1a over the label bytes — stable across platforms and Rust versions
/// (unlike `DefaultHasher`).
fn hash_label(label: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer — decorrelates nearby seeds.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SeedSplitter::new(42).stream("arrivals");
        let mut b = SeedSplitter::new(42).stream("arrivals");
        for _ in 0..32 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_labels_differ() {
        let mut a = SeedSplitter::new(42).stream("arrivals");
        let mut b = SeedSplitter::new(42).stream("lengths");
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SeedSplitter::new(1).stream("arrivals");
        let mut b = SeedSplitter::new(2).stream("arrivals");
        assert_ne!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn indexed_streams_are_independent() {
        let s = SeedSplitter::new(7);
        let mut r0 = s.indexed_stream("gpu", 0);
        let mut r1 = s.indexed_stream("gpu", 1);
        let v0: Vec<u64> = (0..8).map(|_| r0.gen()).collect();
        let v1: Vec<u64> = (0..8).map(|_| r1.gen()).collect();
        assert_ne!(v0, v1);
    }

    #[test]
    fn child_splitters_are_consistent() {
        let s = SeedSplitter::new(7);
        let mut via_child = s.child("cluster").stream("arrivals");
        let mut again = s.child("cluster").stream("arrivals");
        for _ in 0..8 {
            assert_eq!(via_child.gen::<u64>(), again.gen::<u64>());
        }
    }

    #[test]
    fn label_hash_is_stable() {
        // Pin the FNV output so accidental algorithm changes are caught:
        // a changed hash silently reshuffles every experiment's randomness.
        assert_eq!(super::hash_label(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(super::hash_label("a"), 0xaf63_dc4c_8601_ec8c);
    }
}
