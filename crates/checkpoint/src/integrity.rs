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
//! The hash is XXH64 — the one digest the workspace computes over block
//! bytes (the frame trailer and `NodeCore`'s `block_digest` are the same
//! function). Not cryptographic, but it runs at memory speed, so a store
//! can afford it on every write and before every trust, and it is more
//! than strong enough to catch the random corruptions the fault plans
//! models (a single flipped byte changes the digest with probability
//! ~1 − 2⁻⁶⁴).

/// XXH64 digest of `bytes` — the block checksum stored alongside every
/// checkpoint image and parity block.
pub use dvdc_simcore::rng::xxh64 as checksum;

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
    fn known_xxh64_vectors() {
        // Published seed-0 XXH64 test vectors.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
    }

    #[test]
    fn single_byte_flip_is_detected() {
        // Every length up to two stripes and a byte, every offset: both
        // sides of the 32-byte stripe seam and each tail width.
        for len in 0..=65usize {
            let block: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
            let sum = checksum(&block);
            assert!(verify(&block, sum));
            for offset in 0..len {
                let mut tampered = block.clone();
                tampered[offset] ^= 0x01;
                assert!(
                    !verify(&tampered, sum),
                    "len {len}: flip at {offset} went unnoticed"
                );
            }
        }
    }
}
