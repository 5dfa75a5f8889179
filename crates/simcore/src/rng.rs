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

/// FNV-1a/64 over bytes — the one copy in the workspace, and the hash
/// for names: it folds stream names into seeds here and buggify point
/// names into theirs, so its values must never change. One multiply per
/// byte: nothing digests block bytes with it — the frame trailer, the
/// block checksum (`dvdc_checkpoint::integrity::checksum`) and the
/// content digest (`node_core::block_digest`) are all [`xxh64`].
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const XXH_P1: u64 = 0x9E37_79B1_85EB_CA87;
const XXH_P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const XXH_P3: u64 = 0x1656_67B1_9E37_79F9;
const XXH_P4: u64 = 0x85EB_CA77_C2B2_AE63;
const XXH_P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Little-endian word `i` of a 32-byte stripe.
#[inline(always)]
fn word(stripe: &[u8], i: usize) -> u64 {
    let bytes = stripe[i * 8..i * 8 + 8].try_into().expect("8 bytes");
    u64::from_le_bytes(bytes)
}

#[inline]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(XXH_P2))
        .rotate_left(31)
        .wrapping_mul(XXH_P1)
}

/// Streaming XXH64 with seed 0 — the frame-trailer digest. Four
/// independent 64-bit lanes consume 32-byte stripes, so the multiplies
/// pipeline and a whole image digests at several bytes per cycle where
/// [`fnv1a64`] manages one byte per multiply latency. Feeding the same
/// bytes through any sequence of [`update`](Xxh64::update) calls gives
/// the digest [`xxh64`] gives in one shot.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    lanes: [u64; 4],
    /// The stripe not yet complete: `tail[..total % 32]`.
    tail: [u8; 32],
    total: u64,
}

impl Default for Xxh64 {
    /// A digest of no bytes yet.
    fn default() -> Self {
        Xxh64 {
            lanes: [
                XXH_P1.wrapping_add(XXH_P2),
                XXH_P2,
                0,
                XXH_P1.wrapping_neg(),
            ],
            tail: [0; 32],
            total: 0,
        }
    }
}

impl Xxh64 {
    /// Appends `bytes` to the digested stream.
    pub fn update(&mut self, mut bytes: &[u8]) {
        let held = (self.total % 32) as usize;
        self.total += bytes.len() as u64;
        if held > 0 {
            let fill = bytes.len().min(32 - held);
            self.tail[held..held + fill].copy_from_slice(&bytes[..fill]);
            bytes = &bytes[fill..];
            if held + fill < 32 {
                return;
            }
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                *lane = xxh_round(*lane, word(&self.tail, i));
            }
        }
        // Each lane in a local of its own: this loop is the whole cost of a
        // large image, and four independent rounds on registers pipeline
        // where an indexed array round-trips through memory.
        let [mut a, mut b, mut c, mut d] = self.lanes;
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            a = xxh_round(a, word(stripe, 0));
            b = xxh_round(b, word(stripe, 1));
            c = xxh_round(c, word(stripe, 2));
            d = xxh_round(d, word(stripe, 3));
        }
        self.lanes = [a, b, c, d];
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
    }

    /// The digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = c.wrapping_add(XXH_P5);
        if self.total >= 32 {
            h = (a.rotate_left(1).wrapping_add(b.rotate_left(7)))
                .wrapping_add(c.rotate_left(12).wrapping_add(d.rotate_left(18)));
            for lane in self.lanes {
                h = (h ^ xxh_round(0, lane))
                    .wrapping_mul(XXH_P1)
                    .wrapping_add(XXH_P4);
            }
        }
        h = h.wrapping_add(self.total);
        let mut tail = &self.tail[..(self.total % 32) as usize];
        while let Some((word, rest)) = tail.split_first_chunk() {
            h = (h ^ xxh_round(0, u64::from_le_bytes(*word))).rotate_left(27);
            h = h.wrapping_mul(XXH_P1).wrapping_add(XXH_P4);
            tail = rest;
        }
        if let Some((word, rest)) = tail.split_first_chunk() {
            h = (h ^ u64::from(u32::from_le_bytes(*word)).wrapping_mul(XXH_P1)).rotate_left(23);
            h = h.wrapping_mul(XXH_P2).wrapping_add(XXH_P3);
            tail = rest;
        }
        for &byte in tail {
            h = (h ^ u64::from(byte).wrapping_mul(XXH_P5))
                .rotate_left(11)
                .wrapping_mul(XXH_P1);
        }
        h = (h ^ (h >> 33)).wrapping_mul(XXH_P2);
        h = (h ^ (h >> 29)).wrapping_mul(XXH_P3);
        h ^ (h >> 32)
    }
}

/// One-shot XXH64 (seed 0) of `bytes`.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::default();
    h.update(bytes);
    h.finish()
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
    fn xxh64_matches_the_reference_vectors() {
        // Seed-0 digests from the reference implementation (xxHash
        // sanity vectors and the python-xxhash documentation).
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(xxh64(b"xxhash"), 0x32DD_3895_2C4B_C720);
        // 39 bytes: one whole stripe, then a 7-byte tail (one 4-byte
        // word and three single bytes).
        assert_eq!(
            xxh64(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    proptest::proptest! {
        #[test]
        fn xxh64_streamed_over_any_split_equals_one_shot(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300usize),
            cuts in proptest::collection::vec(0usize..300, 0..8usize),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Xxh64::default();
            let mut at = 0;
            for cut in cuts {
                h.update(&bytes[at..cut]);
                at = cut;
            }
            h.update(&bytes[at..]);
            proptest::prop_assert_eq!(h.finish(), xxh64(&bytes));
        }
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
