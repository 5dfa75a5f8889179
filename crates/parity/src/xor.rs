//! XOR kernels.
//!
//! The paper's diskless argument hinges on "an in-memory XOR operation
//! \[being\] orders-of-magnitude faster than a disk write operation of the
//! same size" (Section V-B), so this is the hot loop of the whole system.
//! The scalar kernel processes 8 bytes per iteration by round-tripping
//! through `u64`; the autovectoriser turns that into SIMD on every target
//! we care about. For multi-gigabyte VM images, [`xor_into_parallel`]
//! splits the buffers across scoped threads.

/// Buffers at least this large are worth splitting across threads; below
/// it, spawn overhead dominates and the scalar kernel wins.
pub const MIN_PARALLEL: usize = 1 << 16;

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

/// The worker count [`xor_into_parallel`] actually spawns for a buffer of
/// `len` bytes when asked for `threads` workers: capped so every worker's
/// chunk stays at least [`MIN_PARALLEL`] bytes.
///
/// Without the cap, a 64 KiB buffer split 8 ways hands each worker 8 KiB
/// — small enough that thread-spawn overhead dominates the XOR itself.
pub fn effective_parallel_workers(len: usize, threads: usize) -> usize {
    threads.min(len / MIN_PARALLEL).max(1)
}

/// Parallel variant of [`xor_into`]: splits the buffers into contiguous
/// ranges XORed on scoped worker threads. At most `threads` workers run,
/// further capped so each worker's chunk stays at least [`MIN_PARALLEL`]
/// bytes (see [`effective_parallel_workers`]).
///
/// This models (and measures, in the kernel bench) the paper's claim that
/// "the parallelization of the parity calculation should relieve the CPU
/// burden by a factor linear in the amount of machines" — here applied
/// within one node across cores.
///
/// # Panics
/// Panics if the slices differ in length or `threads == 0`.
fn xor_into_parallel(dst: &mut [u8], src: &[u8], threads: usize) {
    assert_eq!(dst.len(), src.len(), "xor operands must have equal length");
    assert!(threads > 0, "need at least one thread");
    let workers = effective_parallel_workers(dst.len(), threads);
    if workers == 1 || dst.len() < MIN_PARALLEL {
        xor_into(dst, src);
        return;
    }
    let chunk = dst.len().div_ceil(workers);
    std::thread::scope(|scope| {
        for (d, s) in dst.chunks_mut(chunk).zip(src.chunks(chunk)) {
            scope.spawn(move || xor_into(d, s));
        }
    });
}

/// [`xor_into`] that engages the parallel kernel automatically for buffers
/// of at least [`MIN_PARALLEL`] bytes, using the machine's available cores
/// (capped at 8 — XOR saturates memory bandwidth long before that).
///
/// # Panics
/// Panics if the slices differ in length.
pub fn xor_into_auto(dst: &mut [u8], src: &[u8]) {
    if dst.len() < MIN_PARALLEL {
        xor_into(dst, src);
        return;
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8);
    xor_into_parallel(dst, src, threads);
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
    fn parallel_matches_scalar() {
        let n = 1 << 18;
        let a: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
        let b: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        let mut scalar = a.clone();
        xor_into(&mut scalar, &b);
        for threads in [1, 2, 3, 4, 7] {
            let mut par = a.clone();
            xor_into_parallel(&mut par, &b, threads);
            assert_eq!(par, scalar, "threads={threads}");
        }
    }

    #[test]
    fn parallel_small_input_falls_back() {
        let mut a = vec![1u8; 100];
        let b = vec![2u8; 100];
        xor_into_parallel(&mut a, &b, 8);
        assert!(a.iter().all(|&x| x == 3));
    }

    #[test]
    fn parallel_non_word_lengths_match_scalar() {
        // Lengths straddling the parallel threshold that are not multiples
        // of 8: per-thread chunks then have ragged tails, which must land
        // in the scalar remainder loop, not get dropped.
        for len in [
            MIN_PARALLEL - 1,
            MIN_PARALLEL,
            MIN_PARALLEL + 1,
            MIN_PARALLEL + 7,
            MIN_PARALLEL + 13,
            3 * MIN_PARALLEL + 5,
        ] {
            let a: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i % 239 + 1) as u8).collect();
            let mut scalar = a.clone();
            xor_into(&mut scalar, &b);
            for threads in [2, 3, 5] {
                let mut par = a.clone();
                xor_into_parallel(&mut par, &b, threads);
                assert_eq!(par, scalar, "len={len} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_more_threads_than_bytes() {
        // threads > len: chunks_mut(div_ceil) yields fewer chunks than
        // threads; the spare workers simply never spawn.
        let mut a: Vec<u8> = (0..7u8).collect();
        let b = vec![0xFFu8; 7];
        xor_into_parallel(&mut a, &b, 64);
        let want: Vec<u8> = (0..7u8).map(|i| i ^ 0xFF).collect();
        assert_eq!(a, want);
        // And at exactly the parallel threshold with an absurd count.
        let mut big = vec![0x55u8; MIN_PARALLEL];
        let key = vec![0xAAu8; MIN_PARALLEL];
        xor_into_parallel(&mut big, &key, MIN_PARALLEL * 2);
        assert!(big.iter().all(|&x| x == 0xFF));
    }

    #[test]
    fn worker_cap_keeps_chunks_at_least_min_parallel() {
        // The regression the cap exists for: a 64 KiB buffer asked to
        // split 8 ways must run on ONE worker (8 KiB chunks would be all
        // spawn overhead), and the count scales up only as whole
        // MIN_PARALLEL chunks become available.
        assert_eq!(effective_parallel_workers(MIN_PARALLEL, 8), 1);
        assert_eq!(effective_parallel_workers(MIN_PARALLEL * 2 - 1, 8), 1);
        assert_eq!(effective_parallel_workers(MIN_PARALLEL * 2, 8), 2);
        assert_eq!(effective_parallel_workers(MIN_PARALLEL * 8, 8), 8);
        assert_eq!(effective_parallel_workers(MIN_PARALLEL * 100, 8), 8);
        // Tiny buffers and zero length never divide by zero or return 0.
        assert_eq!(effective_parallel_workers(0, 8), 1);
        assert_eq!(effective_parallel_workers(100, 8), 1);
        // And each granted worker's chunk is ≥ MIN_PARALLEL.
        for len in [
            MIN_PARALLEL,
            MIN_PARALLEL * 3 - 1,
            MIN_PARALLEL * 5 + 13,
            MIN_PARALLEL * 64,
        ] {
            let w = effective_parallel_workers(len, 8);
            if w > 1 {
                assert!(len.div_ceil(w) >= MIN_PARALLEL, "len={len} w={w}");
            }
        }
    }

    #[test]
    fn parallel_empty_input_is_noop() {
        let mut a: Vec<u8> = Vec::new();
        xor_into_parallel(&mut a, &[], 4);
        assert!(a.is_empty());
    }

    #[test]
    fn auto_kernel_matches_scalar_across_threshold() {
        for len in [
            0usize,
            1,
            100,
            MIN_PARALLEL - 1,
            MIN_PARALLEL,
            MIN_PARALLEL + 9,
        ] {
            let a: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let b: Vec<u8> = (0..len).map(|i| (i % 247 + 2) as u8).collect();
            let mut scalar = a.clone();
            xor_into(&mut scalar, &b);
            let mut auto = a.clone();
            xor_into_auto(&mut auto, &b);
            assert_eq!(auto, scalar, "len={len}");
        }
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
