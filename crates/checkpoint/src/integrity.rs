//! End-to-end checkpoint integrity: per-block checksums.
//!
//! Diskless checkpointing trusts RAM on surviving nodes for the whole
//! lifetime of an epoch. A silently flipped bit in a stored checkpoint or
//! parity block is worse than a crash: recovery would *use* it, decoding
//! garbage into a restored VM with no error anywhere. Following stdchk
//! (Al Kiswany et al.), every stored block therefore carries a checksum
//! computed when the block is written through the store API, and every
//! consumer (recovery decode, scrub, commit promotion) verifies before
//! trusting the bytes.
//!
//! The hash is FNV-1a/64 — not cryptographic, but cheap, dependency-free
//! and more than strong enough to catch the random corruptions the fault
//! injector models (a single flipped byte changes the digest with
//! probability ~1 − 2⁻⁶⁴).

/// FNV-1a/64 digest of `bytes` — the block checksum stored alongside
/// every checkpoint image and parity block.
pub use dvdc_simcore::rng::fnv1a64 as checksum;

/// True when `bytes` still matches the `expected` digest recorded at
/// write time.
pub fn verify(bytes: &[u8], expected: u64) -> bool {
    checksum(bytes) == expected
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_deterministic_and_positional() {
        assert_eq!(checksum(b"abc"), checksum(b"abc"));
        assert_ne!(checksum(b"abc"), checksum(b"acb"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }

    #[test]
    fn known_fnv_vectors() {
        // Published FNV-1a/64 test vectors.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn single_byte_flip_is_detected() {
        let block = vec![0x5Au8; 4096];
        let sum = checksum(&block);
        for offset in [0usize, 1, 2047, 4095] {
            let mut tampered = block.clone();
            tampered[offset] ^= 0x01;
            assert!(!verify(&tampered, sum), "flip at {offset} went unnoticed");
        }
        assert!(verify(&block, sum));
    }
}
