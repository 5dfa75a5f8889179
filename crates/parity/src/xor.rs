//! XOR kernels.
//!
//! The paper's diskless argument hinges on "an in-memory XOR operation
//! \[being\] orders-of-magnitude faster than a disk write operation of the
//! same size" (Section V-B), so this is the hot loop of the whole system.
//! The scalar kernel processes 8 bytes per iteration by round-tripping
//! through `u64`; the autovectoriser turns that into SIMD on every target
//! we care about. XOR is memory-bound: one thread already reads at memory
//! speed, so a fold runs on its caller's thread at every size.

/// XORs `src` into `dst` element-wise: `dst[i] ^= src[i]`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xor_into(dst: &mut [u8], src: &[u8]) {
    assert_eq!(
        dst.len(),
        src.len(),
        "xor operands must have equal length ({} vs {})",
        dst.len(),
        src.len()
    );
    // Word-at-a-time main loop; chunks_exact lets the compiler drop bounds
    // checks and vectorise.
    let mut dst_words = dst.chunks_exact_mut(8);
    let mut src_words = src.chunks_exact(8);
    for (d, s) in (&mut dst_words).zip(&mut src_words) {
        let x = u64::from_ne_bytes(d.try_into().expect("8-byte chunk"))
            ^ u64::from_ne_bytes(s.try_into().expect("8-byte chunk"));
        d.copy_from_slice(&x.to_ne_bytes());
    }
    for (d, s) in dst_words
        .into_remainder()
        .iter_mut()
        .zip(src_words.remainder())
    {
        *d ^= s;
    }
}

/// XORs all `sources` together into a fresh buffer.
///
/// # Panics
/// Panics if `sources` is empty or the slices differ in length.
pub fn xor_all(sources: &[&[u8]]) -> Vec<u8> {
    assert!(!sources.is_empty(), "need at least one source");
    let mut acc = sources[0].to_vec();
    for s in &sources[1..] {
        xor_into(&mut acc, s);
    }
    acc
}

/// Returns true if `buf` is all zeroes — the post-recovery sanity check
/// (XOR of a full parity group with its parity must vanish).
pub fn is_zero(buf: &[u8]) -> bool {
    let mut words = buf.chunks_exact(8);
    for w in &mut words {
        if u64::from_ne_bytes(w.try_into().expect("8-byte chunk")) != 0 {
            return false;
        }
    }
    words.remainder().iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xor_into_basic() {
        let mut a = vec![0b1010_1010u8; 20];
        let b = vec![0b0101_0101u8; 20];
        xor_into(&mut a, &b);
        assert!(a.iter().all(|&x| x == 0xFF));
    }

    #[test]
    fn xor_is_involution() {
        let orig: Vec<u8> = (0..255).collect();
        let key: Vec<u8> = (0..255u8).map(|i| i.wrapping_mul(7)).collect();
        let mut buf = orig.clone();
        xor_into(&mut buf, &key);
        assert_ne!(buf, orig);
        xor_into(&mut buf, &key);
        assert_eq!(buf, orig);
    }

    #[test]
    fn xor_handles_non_word_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65] {
            let a: Vec<u8> = (0..len as u32).map(|i| (i * 3) as u8).collect();
            let b: Vec<u8> = (0..len as u32).map(|i| (i * 5 + 1) as u8).collect();
            let mut got = a.clone();
            xor_into(&mut got, &b);
            let want: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            assert_eq!(got, want, "len={len}");
        }
    }

    #[test]
    fn xor_all_three_sources() {
        let a = [1u8, 2, 3];
        let b = [4u8, 5, 6];
        let c = [7u8, 8, 9];
        let got = xor_all(&[&a, &b, &c]);
        assert_eq!(got, vec![1 ^ 4 ^ 7, 2 ^ 5 ^ 8, 3 ^ 6 ^ 9]);
    }

    #[test]
    fn xor_all_single_source_copies() {
        let a = [9u8, 9, 9];
        assert_eq!(xor_all(&[&a]), a.to_vec());
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn mismatched_lengths_panic() {
        let mut a = vec![0u8; 3];
        xor_into(&mut a, &[0u8; 4]);
    }

    #[test]
    fn is_zero_detects() {
        assert!(is_zero(&[0u8; 17]));
        assert!(is_zero(&[]));
        let mut buf = vec![0u8; 17];
        buf[16] = 1;
        assert!(!is_zero(&buf));
        buf[16] = 0;
        buf[3] = 1;
        assert!(!is_zero(&buf));
    }

    #[test]
    fn parity_group_xors_to_zero() {
        let a: Vec<u8> = (0..64).collect();
        let b: Vec<u8> = (0..64).map(|i| i * 2).collect();
        let parity = xor_all(&[&a, &b]);
        let all = xor_all(&[&a, &b, &parity]);
        assert!(is_zero(&all));
    }
}
