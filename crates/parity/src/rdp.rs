//! Row-Diagonal Parity (RDP) — the double-erasure code.
//!
//! The paper cites Wang et al.'s use of RDP codes for in-memory
//! checkpointing that "tolerate\[s\] up to two simultaneous failures"
//! (Section II-B2). RDP (Corbett et al., FAST'04) is defined by a prime
//! `p`: an array of `p-1` rows across `p+1` shards —
//!
//! * shards `0..p-1`: `p-1` data shards (the last of these positions,
//!   index `p-2`, is still data; index `p-1` is the **row-parity** shard),
//! * shard `p`: the **diagonal-parity** shard.
//!
//! Row parity is plain XOR across each row. Diagonal `d` of block `(r, c)`
//! is `(r + c) mod p`, taken over the RAID-4 portion (columns `0..p-1`);
//! diagonals `0..p-1` except the "missing diagonal" `p-1` each get a parity
//! block. Because every column misses exactly one diagonal, any two lost
//! shards can be rebuilt by alternately applying diagonal and row
//! equations — implemented here as a peeling decoder, which is the same
//! chain the original paper walks, just expressed as "repair any equation
//! with exactly one unknown until done".

use crate::code::{validate_delta, validate_shards, CodeError, ErasureCode};
use crate::xor::xor_into;

/// RDP double-erasure code with prime parameter `p`.
///
/// Shards: `p-1` data + row parity + diagonal parity = `p+1` total.
/// Shard lengths must be a multiple of `p-1` (the row count).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RdpCode {
    p: usize,
}

impl RdpCode {
    /// Creates an RDP code for prime `p ≥ 3`.
    ///
    /// # Panics
    /// Panics if `p < 3` or `p` is not prime.
    pub fn new(p: usize) -> Self {
        assert!(p >= 3, "RDP needs p >= 3");
        assert!(is_prime(p), "RDP parameter must be prime, got {p}");
        RdpCode { p }
    }

    /// The smallest prime `p` such that the code hosts at least `k` data
    /// shards (unused data columns are treated as implicit zeroes by the
    /// caller; this helper just picks the geometry).
    fn for_data_shards(k: usize) -> Self {
        let mut p = (k + 1).max(3);
        while !is_prime(p) {
            p += 1;
        }
        RdpCode::new(p)
    }

    /// The prime parameter.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of rows per shard (`p - 1`).
    pub fn rows(&self) -> usize {
        self.p - 1
    }

    fn row_size(&self, shard_len: usize) -> Result<usize, CodeError> {
        if !shard_len.is_multiple_of(self.rows()) {
            return Err(CodeError::BadShardLength {
                len: shard_len,
                constraint: "RDP shard length must be a multiple of p-1",
            });
        }
        Ok(shard_len / self.rows())
    }

    /// Splits a shard into its `p-1` row blocks.
    fn split_rows<'a>(&self, shard: &'a [u8], row: usize) -> Vec<&'a [u8]> {
        shard.chunks_exact(row).collect()
    }
}

/// Deterministic Miller–Rabin style trial division — parameters here are
/// tiny (p ≤ a few hundred), so trial division is plenty.
fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

impl ErasureCode for RdpCode {
    fn data_shards(&self) -> usize {
        self.p - 1
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(
            data.len(),
            self.data_shards(),
            "expected {} data shards",
            self.data_shards()
        );
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        assert!(
            data.iter().all(|d| d.len() == len),
            "data shards must have equal length"
        );
        if len == 0 {
            return vec![Vec::new(), Vec::new()];
        }
        let row = self
            .row_size(len)
            .expect("shard length must be a multiple of p-1");
        let rows = self.rows();
        let p = self.p;

        // Row parity: XOR across data columns, row by row (contiguous, so a
        // single whole-shard XOR suffices).
        let mut row_parity = vec![0u8; len];
        for d in data {
            xor_into(&mut row_parity, d);
        }

        // Diagonal parity: diagonal d collects blocks (r, c) with
        // (r + c) mod p == d over the RAID-4 columns 0..p-1.
        let mut diag_parity = vec![0u8; len];
        let raid4: Vec<&[u8]> = data
            .iter()
            .copied()
            .chain([row_parity.as_slice()])
            .collect();
        for (c, shard) in raid4.iter().enumerate() {
            for (r, block) in self.split_rows(shard, row).into_iter().enumerate() {
                let d = (r + c) % p;
                if d == p - 1 {
                    continue; // the missing diagonal carries no parity
                }
                let _ = rows; // rows == blocks per shard
                xor_into(&mut diag_parity[d * row..(d + 1) * row], block);
            }
        }

        vec![row_parity, diag_parity]
    }

    #[allow(clippy::needless_range_loop)] // (r, c) index math mirrors the RDP geometry
    #[allow(clippy::needless_range_loop)] // (r, c) index math mirrors the RDP geometry
    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        let len = validate_shards(shards, self.total_shards(), 2)?;
        if shards.iter().all(|s| s.is_some()) {
            return Ok(());
        }
        if len == 0 {
            for s in shards.iter_mut() {
                s.get_or_insert_with(Vec::new);
            }
            return Ok(());
        }
        let row = self.row_size(len)?;
        let rows = self.rows();
        let p = self.p;

        // Block grid: grid[c][r] = Some(block bytes) if known.
        let mut grid: Vec<Vec<Option<Vec<u8>>>> = shards
            .iter()
            .map(|s| match s {
                Some(bytes) => bytes.chunks_exact(row).map(|b| Some(b.to_vec())).collect(),
                None => vec![None; rows],
            })
            .collect();

        // Peeling: repair any parity equation with exactly one unknown.
        // Row equation r: XOR of grid[0..p][r] (RAID-4 columns) = 0.
        // Diagonal equation d (d != p-1): XOR of diagonal-d blocks and
        // DP[d] (= grid[p][d]) = 0.
        let mut progress = true;
        while progress {
            progress = false;

            for r in 0..rows {
                let unknowns: Vec<usize> = (0..p).filter(|&c| grid[c][r].is_none()).collect();
                if unknowns.len() == 1 {
                    let c_fix = unknowns[0];
                    let mut acc = vec![0u8; row];
                    for c in 0..p {
                        if c != c_fix {
                            xor_into(&mut acc, grid[c][r].as_ref().expect("known block"));
                        }
                    }
                    grid[c_fix][r] = Some(acc);
                    progress = true;
                }
            }

            for d in 0..p - 1 {
                // Members of diagonal d: (r, c) with r = (d + p - c) % p,
                // keeping r < rows; plus the DP block grid[p][d].
                let mut members: Vec<(usize, usize)> = Vec::with_capacity(p);
                for c in 0..p {
                    let r = (d + p - c % p) % p;
                    if r < rows {
                        members.push((c, r));
                    }
                }
                members.push((p, d));
                let unknowns: Vec<(usize, usize)> = members
                    .iter()
                    .copied()
                    .filter(|&(c, r)| grid[c][r].is_none())
                    .collect();
                if unknowns.len() == 1 {
                    let (c_fix, r_fix) = unknowns[0];
                    let mut acc = vec![0u8; row];
                    for &(c, r) in &members {
                        if (c, r) != (c_fix, r_fix) {
                            xor_into(&mut acc, grid[c][r].as_ref().expect("known block"));
                        }
                    }
                    grid[c_fix][r_fix] = Some(acc);
                    progress = true;
                }
            }
        }

        // Reassemble repaired shards. RDP guarantees convergence for ≤ 2
        // erasures; a leftover unknown indicates an internal bug.
        for (c, shard) in shards.iter_mut().enumerate() {
            if shard.is_none() {
                let mut bytes = Vec::with_capacity(len);
                for r in 0..rows {
                    bytes.extend_from_slice(
                        grid[c][r]
                            .as_ref()
                            .expect("RDP peeling must converge for <=2 erasures"),
                    );
                }
                *shard = Some(bytes);
            }
        }
        Ok(())
    }

    fn apply_delta(
        &self,
        parity_index: usize,
        parity: &mut [u8],
        data_index: usize,
        offset: usize,
        delta: &[u8],
    ) {
        validate_delta(
            parity_index,
            2,
            parity.len(),
            data_index,
            self.data_shards(),
            offset,
            delta.len(),
        );
        if delta.is_empty() {
            return;
        }
        let row = self
            .row_size(parity.len())
            .expect("shard length must be a multiple of p-1");
        if parity_index == 0 {
            // Row parity is a plain XOR across data columns.
            xor_into(&mut parity[offset..offset + delta.len()], delta);
            return;
        }
        // Diagonal parity. Two things changed in the RAID-4 array: data
        // column `data_index` (by `delta`) and the row-parity column `p-1`
        // (also by `delta`, per the row-parity update above). Each block
        // (r, c) feeds diagonal (r + c) mod p, except the missing diagonal
        // p-1; fold both contributions in, splitting `delta` at row
        // boundaries since a diagonal is row-granular.
        let p = self.p;
        let end = offset + delta.len();
        let mut pos = offset;
        while pos < end {
            let r = pos / row;
            let col = pos % row;
            let seg_end = end.min((r + 1) * row);
            let seg = &delta[pos - offset..seg_end - offset];
            for c in [data_index, p - 1] {
                let d = (r + c) % p;
                if d != p - 1 {
                    let dst = d * row + col;
                    xor_into(&mut parity[dst..dst + seg.len()], seg);
                }
            }
            pos = seg_end;
        }
    }
}

/// RDP adapted to an arbitrary data-shard count `k` by padding the array
/// with virtual all-zero shards: the smallest prime `p` with `p−1 ≥ k`
/// fixes the geometry, and the `p−1−k` unused data columns are treated as
/// zeroes on encode and supplied as zeroes on reconstruct. Zero columns
/// contribute nothing to either parity, so the code's double-erasure
/// guarantee carries over unchanged.
///
/// Shard lengths must still be a multiple of `p−1` (the RDP row count) —
/// with 4 KiB pages and the small primes used for typical group widths
/// this holds automatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroPaddedRdp {
    inner: RdpCode,
    k: usize,
}

impl ZeroPaddedRdp {
    /// Creates a double-erasure code over exactly `k` data shards.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data shard");
        ZeroPaddedRdp {
            inner: RdpCode::for_data_shards(k),
            k,
        }
    }

    /// The underlying RDP prime.
    pub fn p(&self) -> usize {
        self.inner.p()
    }

    /// Number of virtual zero shards added to fill the geometry.
    fn virtual_shards(&self) -> usize {
        self.inner.data_shards() - self.k
    }
}

impl ErasureCode for ZeroPaddedRdp {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        2
    }

    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        let zeros = vec![0u8; len];
        let mut full: Vec<&[u8]> = data.to_vec();
        for _ in 0..self.virtual_shards() {
            full.push(&zeros);
        }
        self.inner.encode(&full)
    }

    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        let len = validate_shards(shards, self.k + 2, 2)?;
        if shards.iter().all(|s| s.is_some()) {
            return Ok(());
        }
        // Splice the virtual zero shards between real data and parity.
        let mut full: Vec<Option<Vec<u8>>> = Vec::with_capacity(self.inner.total_shards());
        full.extend(shards[..self.k].iter().cloned());
        for _ in 0..self.virtual_shards() {
            full.push(Some(vec![0u8; len]));
        }
        full.extend(shards[self.k..].iter().cloned());
        self.inner.reconstruct(&mut full)?;
        for (i, slot) in shards.iter_mut().take(self.k).enumerate() {
            if slot.is_none() {
                *slot = full[i].take();
            }
        }
        let parity_base = self.inner.data_shards();
        for j in 0..2 {
            if shards[self.k + j].is_none() {
                shards[self.k + j] = full[parity_base + j].take();
            }
        }
        Ok(())
    }

    fn apply_delta(
        &self,
        parity_index: usize,
        parity: &mut [u8],
        data_index: usize,
        offset: usize,
        delta: &[u8],
    ) {
        assert!(
            data_index < self.k,
            "data index {data_index} out of range (code has {} data shards)",
            self.k
        );
        // Real data occupies RAID-4 columns 0..k; the virtual zero columns
        // sit between them and the parity and never change, so the column
        // index passes straight through to the inner geometry.
        self.inner
            .apply_delta(parity_index, parity, data_index, offset, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(p: usize, row: usize) -> Vec<Vec<u8>> {
        let rows = p - 1;
        (0..p - 1)
            .map(|c| {
                (0..rows * row)
                    .map(|i| ((i * 31 + c * 97 + 5) % 251) as u8)
                    .collect()
            })
            .collect()
    }

    fn roundtrip(p: usize, row: usize, lost: &[usize]) {
        let code = RdpCode::new(p);
        let data = sample_data(p, row);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = code.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.iter().cloned().map(Some))
            .collect();
        let originals = shards.clone();
        for &l in lost {
            shards[l] = None;
        }
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards, originals, "p={p} lost={lost:?}");
    }

    #[test]
    fn single_erasure_every_position() {
        for p in [3usize, 5, 7] {
            for lost in 0..p + 1 {
                roundtrip(p, 16, &[lost]);
            }
        }
    }

    #[test]
    fn double_erasure_every_pair() {
        for p in [3usize, 5, 7, 11] {
            for a in 0..p + 1 {
                for b in (a + 1)..p + 1 {
                    roundtrip(p, 8, &[a, b]);
                }
            }
        }
    }

    #[test]
    fn triple_erasure_rejected() {
        let code = RdpCode::new(5);
        let data = sample_data(5, 4);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = code.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .into_iter()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[0] = None;
        shards[1] = None;
        shards[2] = None;
        assert_eq!(
            code.reconstruct(&mut shards),
            Err(CodeError::TooManyErasures {
                missing: 3,
                tolerance: 2
            })
        );
    }

    #[test]
    fn bad_shard_length_rejected() {
        let code = RdpCode::new(5); // rows = 4, so length must be 4k
        let mut shards: Vec<Option<Vec<u8>>> = (0..6).map(|_| Some(vec![0u8; 7])).collect();
        shards[0] = None;
        assert!(matches!(
            code.reconstruct(&mut shards),
            Err(CodeError::BadShardLength { .. })
        ));
    }

    #[test]
    fn geometry_reporting() {
        let code = RdpCode::new(7);
        assert_eq!(code.data_shards(), 6);
        assert_eq!(code.parity_shards(), 2);
        assert_eq!(code.total_shards(), 8);
        assert_eq!(code.rows(), 6);
        assert_eq!(code.p(), 7);
    }

    #[test]
    fn for_data_shards_picks_smallest_prime() {
        assert_eq!(RdpCode::for_data_shards(2).p(), 3);
        assert_eq!(RdpCode::for_data_shards(3).p(), 5);
        assert_eq!(RdpCode::for_data_shards(4).p(), 5);
        assert_eq!(RdpCode::for_data_shards(6).p(), 7);
        assert_eq!(RdpCode::for_data_shards(10).p(), 11);
    }

    #[test]
    #[should_panic(expected = "prime")]
    fn composite_p_rejected() {
        let _ = RdpCode::new(9);
    }

    #[test]
    fn primality_helper() {
        assert!(is_prime(2));
        assert!(is_prime(3));
        assert!(!is_prime(4));
        assert!(is_prime(13));
        assert!(!is_prime(91)); // 7 * 13
        assert!(!is_prime(1));
    }

    #[test]
    fn zero_padded_matches_direct_rdp_when_full() {
        // k == p-1: the wrapper adds no virtual shards and must match.
        let direct = RdpCode::new(5);
        let padded = ZeroPaddedRdp::new(4);
        assert_eq!(padded.virtual_shards(), 0);
        let data = sample_data(5, 8);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        assert_eq!(direct.encode(&refs), padded.encode(&refs));
    }

    #[test]
    fn zero_padded_roundtrips_all_double_erasures() {
        // k = 3 inside p = 5 (one virtual zero shard).
        let code = ZeroPaddedRdp::new(3);
        assert_eq!(code.p(), 5);
        assert_eq!(code.virtual_shards(), 1);
        assert_eq!(code.total_shards(), 5);
        let data: Vec<Vec<u8>> = (0..3)
            .map(|c| {
                (0..32)
                    .map(|i| ((i * 13 + c * 71 + 3) % 251) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let parity = code.encode(&refs);
        assert_eq!(parity.len(), 2);
        for a in 0..5 {
            for b in (a + 1)..5 {
                let mut shards: Vec<Option<Vec<u8>>> = data
                    .iter()
                    .cloned()
                    .map(Some)
                    .chain(parity.iter().cloned().map(Some))
                    .collect();
                let originals = shards.clone();
                shards[a] = None;
                shards[b] = None;
                code.reconstruct(&mut shards).unwrap();
                assert_eq!(shards, originals, "lost ({a},{b})");
            }
        }
    }

    #[test]
    fn zero_padded_rejects_triple_loss() {
        let code = ZeroPaddedRdp::new(3);
        let mut shards: Vec<Option<Vec<u8>>> = (0..5).map(|_| Some(vec![0u8; 8])).collect();
        shards[0] = None;
        shards[1] = None;
        shards[3] = None;
        assert!(matches!(
            code.reconstruct(&mut shards),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn delta_update_matches_reencode() {
        use crate::code::test_util::assert_delta_matches_reencode;
        // p = 5 → 4 rows; lengths must be multiples of 4. The helper's
        // unaligned mid-shard patches cross row boundaries, exercising the
        // diagonal split.
        assert_delta_matches_reencode(&RdpCode::new(5), 32);
        assert_delta_matches_reencode(&RdpCode::new(7), 36);
        assert_delta_matches_reencode(&RdpCode::new(3), 16);
    }

    #[test]
    fn zero_padded_delta_update_matches_reencode() {
        use crate::code::test_util::assert_delta_matches_reencode;
        assert_delta_matches_reencode(&ZeroPaddedRdp::new(3), 32);
        assert_delta_matches_reencode(&ZeroPaddedRdp::new(6), 24);
    }

    #[test]
    fn delta_update_every_column_and_row() {
        // Exhaustively: one-byte delta at every (shard, byte) position must
        // match a re-encode — pins the diagonal index arithmetic including
        // the missing-diagonal skips for both contributions.
        let code = RdpCode::new(5);
        let data = sample_data(5, 4); // 4 rows × 4 bytes
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let base_parity = code.encode(&refs);
        for shard in 0..code.data_shards() {
            for pos in 0..16 {
                let mut data2 = data.clone();
                data2[shard][pos] ^= 0xA7;
                let mut parity = base_parity.clone();
                for (j, block) in parity.iter_mut().enumerate() {
                    code.apply_delta(j, block, shard, pos, &[0xA7]);
                }
                let refs2: Vec<&[u8]> = data2.iter().map(|v| v.as_slice()).collect();
                assert_eq!(parity, code.encode(&refs2), "shard={shard} pos={pos}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "data index")]
    fn zero_padded_delta_rejects_virtual_column() {
        // k = 3 inside p = 5: column 3 exists in the inner geometry but is
        // a virtual zero shard — callers must never update it.
        let code = ZeroPaddedRdp::new(3);
        let mut parity = vec![0u8; 32];
        code.apply_delta(0, &mut parity, 3, 0, &[1u8; 4]);
    }

    #[test]
    fn encode_empty_rows_ok() {
        // Zero-length shards are legal (0 is a multiple of p-1).
        let code = RdpCode::new(3);
        let parity = code.encode(&[&[], &[]]);
        assert_eq!(parity.len(), 2);
        assert!(parity.iter().all(|p| p.is_empty()));
    }
}
