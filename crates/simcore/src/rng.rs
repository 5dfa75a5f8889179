//! Named deterministic random-number streams.
//!
//! A simulation with a single shared RNG is fragile: adding one extra draw
//! anywhere shifts every subsequent draw and silently changes every result.
//! [`RngHub`] instead derives an independent ChaCha stream per *name* (and
//! optionally per index), so components own their randomness:
//!
//! ```
//! use dvdc_simcore::rng::RngHub;
//! use rand::Rng;
//!
//! let hub = RngHub::new(42);
//! let mut failures = hub.stream("node-failures");
//! let mut workload = hub.stream("page-writes");
//! let f: f64 = failures.random();
//! let w: f64 = workload.random();
//! // Streams are independent and reproducible:
//! assert_eq!(hub.stream("node-failures").random::<f64>(), f);
//! assert_eq!(hub.stream("page-writes").random::<f64>(), w);
//! ```

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// The concrete RNG handed out by [`RngHub`].
pub type StreamRng = ChaCha12Rng;

/// Derives independent, reproducible RNG streams from one master seed.
///
/// Stream derivation hashes the stream name (and index) together with the
/// master seed using a SplitMix64-style finalizer, then seeds a
/// `ChaCha12Rng` from the result. Distinct names yield statistically
/// independent streams; the same `(seed, name, index)` always yields the
/// same stream.
#[derive(Debug, Clone, Copy)]
pub struct RngHub {
    master_seed: u64,
}

impl RngHub {
    /// Creates a hub from a master seed.
    pub fn new(master_seed: u64) -> Self {
        RngHub { master_seed }
    }

    /// The master seed this hub was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// A fresh RNG for the stream `name`.
    pub fn stream(&self, name: &str) -> StreamRng {
        self.stream_indexed(name, 0)
    }

    /// A fresh RNG for the `index`-th member of a family of streams (e.g.
    /// one stream per VM).
    pub fn stream_indexed(&self, name: &str, index: u64) -> StreamRng {
        let mut seed = [0u8; 32];
        let mut x = self
            .master_seed
            .wrapping_add(fnv1a64(name.as_bytes()))
            .wrapping_add(index.wrapping_mul(SPLITMIX_GAMMA));
        for chunk in seed.chunks_exact_mut(8) {
            x = splitmix64(x);
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        StreamRng::from_seed(seed)
    }

    /// A hub for a nested scope (e.g. per Monte-Carlo trial), derived so
    /// that trials are mutually independent.
    pub fn subhub(&self, name: &str, index: u64) -> RngHub {
        let derived = splitmix64(
            self.master_seed
                .wrapping_add(fnv1a64(name.as_bytes()))
                .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        );
        RngHub::new(derived)
    }
}

/// The SplitMix64 increment (2⁶⁴/φ): the step a stateful SplitMix64
/// generator adds to its state between outputs.
pub const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64 as a pure function: the generator's output for state `x`
/// (increment, then finalize) — a cheap, well-mixed 64-bit permutation.
/// The one copy in the workspace; a stateful stream calls it and then
/// advances its state by [`SPLITMIX_GAMMA`].
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(SPLITMIX_GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a/64 over bytes — the one copy in the workspace. It folds stream
/// names into seeds here and is re-exported as the block checksum
/// (`dvdc_checkpoint::integrity::checksum`), the frame trailer and
/// content digest (`node_core::fnv64`) and the migration page hash.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_name_same_stream() {
        let hub = RngHub::new(7);
        let a: Vec<u64> = hub.stream("x").random_iter().take(16).collect();
        let b: Vec<u64> = hub.stream("x").random_iter().take(16).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_names_differ() {
        let hub = RngHub::new(7);
        let a: u64 = hub.stream("x").random();
        let b: u64 = hub.stream("y").random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let hub = RngHub::new(7);
        let a: u64 = hub.stream_indexed("vm", 0).random();
        let b: u64 = hub.stream_indexed("vm", 1).random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = RngHub::new(1).stream("x").random();
        let b: u64 = RngHub::new(2).stream("x").random();
        assert_ne!(a, b);
    }

    #[test]
    fn subhubs_are_independent_and_reproducible() {
        let hub = RngHub::new(99);
        let t0: u64 = hub.subhub("trial", 0).stream("fail").random();
        let t1: u64 = hub.subhub("trial", 1).stream("fail").random();
        assert_ne!(t0, t1);
        assert_eq!(hub.subhub("trial", 0).stream("fail").random::<u64>(), t0);
    }

    #[test]
    fn splitmix64_matches_the_reference_stream() {
        // First two outputs of the reference SplitMix64 seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(SPLITMIX_GAMMA), 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn uniform_mean_is_sane() {
        // Smoke-test stream quality: mean of 10k uniforms ~ 0.5.
        let hub = RngHub::new(1234);
        let mut rng = hub.stream("uniformity");
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.random::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }
}
