//! Systematic Vandermonde Reed–Solomon code over GF(2⁸), the one code
//! every group runs.
//!
//! Construction follows Plank's tutorial: start from an `(k+m) × k`
//! Vandermonde matrix with distinct evaluation points, column-reduce so
//! the top `k × k` block is the identity (column operations multiply every
//! `k`-row minor by the same nonzero factor, so the "any k rows are
//! invertible" MDS property is preserved), and use the bottom `m` rows as
//! the parity generator. Each parity column is then scaled so the first
//! parity row is all ones, as Linux md's RAID-6 P + Q does (Anvin, "The
//! mathematics of RAID-6"): parity 0 is the XOR of the data, so `m = 1` is
//! the paper's RAID parity ("A XOR B XOR C", Fig. 3) byte for byte, and
//! any single loss among the data and parity 0 repairs by XOR at every `m`.

use crate::code::{validate_delta, validate_shards, CodeError, ErasureCode};
use crate::gf256::{MulTable, Tables};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Bytes per cache block in the encode fold: the source block plus the
/// `m` parity blocks it feeds stay resident in L1/L2 while every
/// generator row is applied to it, so each source byte is loaded from
/// DRAM once per encode rather than once per parity row.
const ENCODE_BLOCK: usize = 32 << 10;

/// The least bytes of every parity row an `encode` worker is given: below
/// it a thread spawn costs more than the GF multiplies it takes over.
const MIN_ENCODE_CHUNK: usize = 64 << 10;

/// Workers `encode` may split across: the machine's cores, at most 8,
/// asked of the OS once per process.
fn encode_workers() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8)
    })
}

/// The most shards, data and parity together, one code can hold: every
/// shard needs its own evaluation point in GF(2⁸).
pub const MAX_SHARDS: usize = 256;

/// Reed–Solomon erasure code with `k` data shards and `m` parity shards.
/// Tolerates any `m` erasures. Requires `k + m ≤` [`MAX_SHARDS`].
#[derive(Debug)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    tables: &'static Tables,
    generator: Arc<Generator>,
}

/// The parity generator of one `(k, m)`, built once per process and
/// shared by every code of that geometry.
#[derive(Debug)]
struct Generator {
    /// `m × k` parity generator rows (systematic part omitted).
    parity_rows: Vec<Vec<u8>>,
    /// Materialised product rows, one per generator coefficient — the
    /// table-driven kernels `encode`/`apply_delta` run on.
    row_tables: Vec<Vec<MulTable>>,
}

impl Generator {
    /// The generator of `(k, m)`, built by the first caller that asks.
    fn shared(k: usize, m: usize) -> Arc<Generator> {
        type Built = Mutex<BTreeMap<(usize, usize), Arc<Generator>>>;
        static BUILT: OnceLock<Built> = OnceLock::new();
        let built = BUILT.get_or_init(Built::default);
        let mut built = built.lock().unwrap_or_else(PoisonError::into_inner);
        let generator = built.entry((k, m)).or_insert_with(|| Generator::new(k, m));
        Arc::clone(generator)
    }

    fn new(k: usize, m: usize) -> Arc<Generator> {
        let tables = Tables::shared();

        // Vandermonde: V[i][j] = i^j for i in 0..k+m (distinct points).
        let n = k + m;
        let mut v: Vec<Vec<u8>> = (0..n)
            .map(|i| (0..k).map(|j| tables.pow(i as u8, j as u32)).collect())
            .collect();

        // Column-reduce so the top k×k block becomes the identity.
        for col in 0..k {
            // The pivot v[col][col] is nonzero: rows 0..k of a Vandermonde
            // with distinct points are linearly independent, and previous
            // steps preserved that.
            if v[col][col] == 0 {
                // Swap in a later column with a nonzero entry in this row.
                let swap = (col + 1..k)
                    .find(|&c| v[col][c] != 0)
                    .expect("Vandermonde top block must be invertible");
                for row in v.iter_mut() {
                    row.swap(col, swap);
                }
            }
            let inv = tables.inv(v[col][col]);
            if inv != 1 {
                for row in v.iter_mut() {
                    row[col] = tables.mul(row[col], inv);
                }
            }
            for other in 0..k {
                if other != col && v[col][other] != 0 {
                    let factor = v[col][other];
                    for row in v.iter_mut() {
                        let sub = tables.mul(factor, row[col]);
                        row[other] ^= sub;
                    }
                }
            }
        }

        // Scale parity column c by the inverse of its row-0 entry. Every
        // square submatrix of P·D is nonsingular exactly when P's is (D is
        // diagonal and nonzero), so the code stays MDS, and row 0 becomes
        // all ones.
        let mut parity_rows = v.split_off(k);
        for c in 0..k {
            let scale = tables.inv(parity_rows[0][c]);
            for row in parity_rows.iter_mut() {
                row[c] = tables.mul(row[c], scale);
            }
        }
        let row_tables = parity_rows
            .iter()
            .map(|row| row.iter().map(|&c| MulTable::new(tables, c)).collect())
            .collect();
        Arc::new(Generator {
            parity_rows,
            row_tables,
        })
    }
}

impl ReedSolomon {
    /// Creates a code with `k` data and `m` parity shards. Parity row 0 is
    /// all ones: parity 0 is the XOR of the data.
    ///
    /// The GF(2⁸) log/exp tables are shared process-wide
    /// ([`Tables::shared`]), and so are the `m × k` generator product
    /// rows of each `(k, m)`: only the first code of a geometry builds
    /// them.
    ///
    /// # Panics
    /// Panics if `k == 0`, `m == 0`, or `k + m > MAX_SHARDS`.
    pub fn new(k: usize, m: usize) -> Self {
        assert!(k > 0, "need at least one data shard");
        assert!(m > 0, "need at least one parity shard");
        assert!(
            k + m <= MAX_SHARDS,
            "GF(256) supports at most {MAX_SHARDS} total shards"
        );
        ReedSolomon {
            k,
            m,
            tables: Tables::shared(),
            generator: Generator::shared(k, m),
        }
    }

    /// The parity generator coefficient for parity row `r`, data column `c`.
    pub fn coefficient(&self, r: usize, c: usize) -> u8 {
        self.generator.parity_rows[r][c]
    }

    /// The process-wide GF(2⁸) tables this instance borrows — every
    /// instance returns the same `&'static` (see the sharing regression
    /// test).
    pub fn tables(&self) -> &'static Tables {
        self.tables
    }

    /// The matrix that maps shards `survivors` (any `k` of them) back to
    /// the data: the inverse of their `k × k` generator rows, by
    /// Gauss–Jordan elimination over GF(2⁸) on the coefficients alone.
    fn invert(&self, survivors: &[usize]) -> Vec<Vec<u8>> {
        let (k, t) = (self.k, self.tables);
        let unit = |i: usize| (0..k).map(|c| u8::from(c == i)).collect::<Vec<u8>>();
        let mut a: Vec<Vec<u8>> = (survivors.iter())
            .map(|&i| match i < k {
                true => unit(i),
                false => self.generator.parity_rows[i - k].clone(),
            })
            .collect();
        let mut inverse: Vec<Vec<u8>> = (0..k).map(unit).collect();
        for col in 0..k {
            let pivot = (col..k)
                .find(|&r| a[r][col] != 0)
                .expect("any k shards of an MDS code are independent");
            a.swap(col, pivot);
            inverse.swap(col, pivot);
            let scale = t.inv(a[col][col]);
            for x in a[col].iter_mut().chain(inverse[col].iter_mut()) {
                *x = t.mul(*x, scale);
            }
            for r in (0..k).filter(|&r| r != col) {
                let factor = a[r][col];
                if factor == 0 {
                    continue;
                }
                for c in 0..k {
                    a[r][c] ^= t.mul(factor, a[col][c]);
                    inverse[r][c] ^= t.mul(factor, inverse[col][c]);
                }
            }
        }
        inverse
    }

    /// Plans the decode of shards `wanted` from shards `present`, each a
    /// list of indices in `0..k+m`, `present` ascending. The plan reads
    /// the first `k` present shards and gives each wanted one its product
    /// row over them: a present data shard is itself, a lost one a row of
    /// the inverse of their generator rows, and a parity shard its
    /// generator row over the data so made.
    pub fn plan(&self, present: &[usize], wanted: &[usize]) -> Result<Plan, CodeError> {
        let (k, t) = (self.k, self.tables);
        let Some(survivors) = present.get(..k) else {
            let (missing, tolerance) = (k + self.m - present.len(), self.m);
            return Err(CodeError::TooManyErasures { missing, tolerance });
        };
        let inverse = OnceCell::new();
        let data_row = |d: usize| match survivors.iter().position(|&s| s == d) {
            Some(at) => (0..k).map(|c| u8::from(c == at)).collect(),
            None => inverse.get_or_init(|| self.invert(survivors))[d].clone(),
        };
        let row = |w: usize| match w.checked_sub(k) {
            None => data_row(w),
            Some(p) => {
                let mut row = vec![0; k];
                for (c, &g) in self.generator.parity_rows[p].iter().enumerate() {
                    for (x, y) in row.iter_mut().zip(data_row(c)) {
                        *x ^= t.mul(g, y);
                    }
                }
                row
            }
        };
        let rows = (wanted.iter())
            .map(|&w| row(w).into_iter().map(|c| MulTable::new(t, c)).collect())
            .collect();
        Ok(Plan { reads: k, rows })
    }
}

/// A decode worked out once for one set of present shards, to apply to
/// every stripe that shares it, one source at a time: a block stored as
/// pages is planned once, and each page of each shard read is folded into
/// the wanted shards' pages as it comes, in any order.
#[derive(Debug)]
pub struct Plan {
    /// How many of the present shards, from the first, are read.
    reads: usize,
    /// Each wanted shard's product row over the shards read.
    rows: Vec<Vec<MulTable>>,
}

impl Plan {
    /// Folds `src`, bytes of the `r`-th shard read, into the same bytes of
    /// the `w`-th wanted shard: `out ^= c · src`, where `c` is that read
    /// shard's coefficient in the wanted one's row. A wanted shard is the
    /// fold of every shard read into zeros.
    pub fn fold(&self, w: usize, r: usize, out: &mut [u8], src: &[u8]) {
        self.rows[w][r].mul_acc(out, src);
    }
}

/// Folds `data[*][start..]` into `outs` through the product rows `rows`
/// (`outs[r] ^= Σ_c rows[r][c] · data[c]`), cache-blocked so each source
/// block is applied to every output while resident.
fn fold<R: AsRef<[MulTable]>>(rows: &[R], data: &[&[u8]], outs: &mut [&mut [u8]], start: usize) {
    let len = outs.first().map(|o| o.len()).unwrap_or(0);
    let mut off = 0;
    while off < len {
        let end = (off + ENCODE_BLOCK).min(len);
        for (c, shard) in data.iter().enumerate() {
            let src = &shard[start + off..start + end];
            for (row, out) in rows.iter().zip(outs.iter_mut()) {
                row.as_ref()[c].mul_acc(&mut out[off..end], src);
            }
        }
        off = end;
    }
}

/// `rows.len()` blocks of `len` bytes, each the fold of `data` through
/// one of `rows`. Each block starts as its first source's term, a copy
/// where the coefficient is 1, and the fold adds the other sources: a
/// row of ones costs what `xor_all` does.
fn folded<R: AsRef<[MulTable]>>(rows: &[R], data: &[&[u8]], len: usize) -> Vec<Vec<u8>> {
    let mut outs: Vec<Vec<u8>> = (rows.iter())
        .map(|row| {
            let (first, src) = (&row.as_ref()[0], data[0]);
            if first.coeff() == 1 {
                return src.to_vec();
            }
            let mut out = vec![0u8; len];
            first.mul_acc(&mut out, src);
            out
        })
        .collect();
    let rest: Vec<&[MulTable]> = rows.iter().map(|row| &row.as_ref()[1..]).collect();
    let mut out_refs: Vec<&mut [u8]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
    fold(&rest, &data[1..], &mut out_refs, 0);
    outs
}

impl ErasureCode for ReedSolomon {
    fn data_shards(&self) -> usize {
        self.k
    }

    fn parity_shards(&self) -> usize {
        self.m
    }

    fn encode(&self, data: &[&[u8]]) -> Vec<Vec<u8>> {
        assert_eq!(data.len(), self.k, "expected {} data shards", self.k);
        let len = data.first().map(|d| d.len()).unwrap_or(0);
        assert!(
            data.iter().all(|d| d.len() == len),
            "data shards must have equal length"
        );
        // A fold of ones is XOR, which is memory-bound: it runs on the
        // caller's thread at every size, as `xor` says.
        let ones = self
            .generator
            .row_tables
            .iter()
            .flatten()
            .all(|t| t.coeff() == 1);
        let workers = encode_workers().min(len / MIN_ENCODE_CHUNK);
        if ones || workers <= 1 {
            return folded(&self.generator.row_tables, data, len);
        }
        let mut outs: Vec<Vec<u8>> = (0..self.m).map(|_| vec![0u8; len]).collect();
        // Parallel per-group fold: split the byte range into one
        // contiguous chunk per worker; each worker runs the same
        // cache-blocked fold over its disjoint slice of every parity row.
        let chunk = len.div_ceil(workers);
        std::thread::scope(|scope| {
            let mut row_chunks: Vec<_> = outs.iter_mut().map(|o| o.chunks_mut(chunk)).collect();
            let mut start = 0;
            loop {
                let group: Vec<&mut [u8]> =
                    row_chunks.iter_mut().filter_map(|it| it.next()).collect();
                if group.is_empty() {
                    break;
                }
                scope.spawn(move || {
                    let mut group = group;
                    fold(&self.generator.row_tables, data, &mut group, start);
                });
                start += chunk;
            }
        });
        outs
    }

    fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), CodeError> {
        validate_shards(shards, self.k + self.m, self.m)?;
        let (present, lost): (Vec<usize>, Vec<usize>) =
            (0..shards.len()).partition(|&i| shards[i].is_some());
        let plan = self.plan(&present, &lost)?;
        let read = |r: usize| shards[present[r]].as_deref().expect("present");
        let rebuilt: Vec<Vec<u8>> = (0..lost.len())
            .map(|w| {
                let mut out = vec![0u8; read(0).len()];
                for r in 0..plan.reads {
                    plan.fold(w, r, &mut out, read(r));
                }
                out
            })
            .collect();
        for (w, shard) in lost.into_iter().zip(rebuilt) {
            shards[w] = Some(shard);
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
            self.m,
            parity.len(),
            data_index,
            self.k,
            offset,
            delta.len(),
        );
        // Each parity row is a GF(256)-linear combination of the data
        // shards, so a data delta scales by that row's coefficient and
        // accumulates positionally: P_r' = P_r ⊕ coeff·(old ⊕ new). Row
        // 0's coefficients are 1, which `mul_acc` folds as plain XOR.
        let dst = &mut parity[offset..offset + delta.len()];
        self.generator.row_tables[parity_index][data_index].mul_acc(dst, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|c| {
                (0..len)
                    .map(|i| ((i * 31 + c * 101 + 7) % 256) as u8)
                    .collect()
            })
            .collect()
    }

    fn roundtrip(k: usize, m: usize, len: usize, lost: &[usize]) {
        let code = ReedSolomon::new(k, m);
        let data = sample(k, len);
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
        assert_eq!(shards, originals, "k={k} m={m} lost={lost:?}");
    }

    #[test]
    fn a_plan_applied_page_by_page_equals_the_whole_block_reconstructed() {
        const PAGE: usize = 100;
        for m in [1, 2] {
            let code = ReedSolomon::new(4, m);
            let data = sample(4, 3 * PAGE + 17);
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let whole: Vec<Vec<u8>> = data.iter().cloned().chain(code.encode(&refs)).collect();
            let singles = (0..4 + m).map(|a| vec![a]);
            let pairs = (0..4 + m).flat_map(|a| (a + 1..4 + m).map(move |b| vec![a, b]));
            for lost in singles.chain(pairs) {
                let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
                for &l in &lost {
                    shards[l] = None;
                }
                let present: Vec<usize> = (0..4 + m).filter(|i| !lost.contains(i)).collect();
                let planned = code.plan(&present, &lost);
                if lost.len() > m {
                    let both = planned.is_err() && code.reconstruct(&mut shards).is_err();
                    assert!(both, "4+{m}, lost {lost:?}");
                    continue;
                }
                let plan = planned.expect("within tolerance");
                code.reconstruct(&mut shards).unwrap();
                // Page by page, each source's pages folded in reverse.
                let mut paged = vec![Vec::new(); lost.len()];
                for at in (0..whole[0].len()).step_by(PAGE) {
                    let end = (at + PAGE).min(whole[0].len());
                    for (w, out) in paged.iter_mut().enumerate() {
                        let mut page = vec![0u8; end - at];
                        for (r, &i) in present[..plan.reads].iter().enumerate().rev() {
                            plan.fold(w, r, &mut page, &whole[i][at..end]);
                        }
                        out.extend(page);
                    }
                }
                for (l, page) in lost.iter().zip(paged) {
                    assert_eq!(shards[*l].as_ref(), Some(&page), "4+{m}, lost {lost:?}");
                    assert_eq!(page, whole[*l], "4+{m}, lost {lost:?}");
                }
            }
        }
    }

    #[test]
    fn too_many_losses_rejected() {
        let code = ReedSolomon::new(3, 2);
        let data = sample(3, 8);
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
        assert!(matches!(
            code.reconstruct(&mut shards),
            Err(CodeError::TooManyErasures { .. })
        ));
    }

    #[test]
    fn systematic_property() {
        // Parity rows must reproduce data untouched: encoding must not
        // depend on parity of the identity part.
        let code = ReedSolomon::new(4, 2);
        // Encoding all-zero data gives all-zero parity.
        let zeros = vec![vec![0u8; 10]; 4];
        let refs: Vec<&[u8]> = zeros.iter().map(|v| v.as_slice()).collect();
        assert!(code.encode(&refs).iter().all(|p| p.iter().all(|&b| b == 0)));
    }

    #[test]
    fn linearity_of_encoding() {
        // encode(a ^ b) == encode(a) ^ encode(b) — GF(2) linearity.
        let code = ReedSolomon::new(3, 2);
        let a = sample(3, 12);
        let b: Vec<Vec<u8>> = sample(3, 12)
            .into_iter()
            .map(|v| v.into_iter().map(|x| x.wrapping_mul(3)).collect())
            .collect();
        let xor: Vec<Vec<u8>> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| x.iter().zip(y).map(|(p, q)| p ^ q).collect())
            .collect();
        let enc = |d: &[Vec<u8>]| {
            let refs: Vec<&[u8]> = d.iter().map(|v| v.as_slice()).collect();
            code.encode(&refs)
        };
        let pa = enc(&a);
        let pb = enc(&b);
        let pxor = enc(&xor);
        for i in 0..2 {
            let manual: Vec<u8> = pa[i].iter().zip(&pb[i]).map(|(x, y)| x ^ y).collect();
            assert_eq!(pxor[i], manual);
        }
    }

    #[test]
    fn max_geometry_accepted() {
        let code = ReedSolomon::new(200, 56);
        assert_eq!(code.total_shards(), 256);
        assert!((0..200).all(|c| code.coefficient(0, c) == 1));
    }

    #[test]
    fn instances_share_one_gf_table() {
        // Regression: `new` used to run the full exp/log construction per
        // instance — O(groups) redundant work at thousands of orthogonal
        // groups. Two instances must observe the same table pointer.
        let a = ReedSolomon::new(3, 2);
        let b = ReedSolomon::new(10, 4);
        assert!(
            std::ptr::eq(a.tables(), b.tables()),
            "each ReedSolomon rebuilt its own GF(256) tables"
        );
    }

    #[test]
    fn codes_of_one_geometry_share_one_generator() {
        let a = ReedSolomon::new(3, 1);
        let b = ReedSolomon::new(3, 1);
        let c = ReedSolomon::new(3, 2);
        assert!(Arc::ptr_eq(&a.generator, &b.generator));
        assert!(!Arc::ptr_eq(&a.generator, &c.generator));
    }

    #[test]
    fn parallel_encode_matches_serial() {
        // Shards large enough that `encode` engages the multi-threaded
        // fold; the result must be byte-identical to a serial fold (here
        // reproduced coefficient-by-coefficient with the scalar kernel).
        let code = ReedSolomon::new(4, 2);
        let len = 4 * MIN_ENCODE_CHUNK + 37; // parallel + ragged tail
        let data: Vec<Vec<u8>> = (0..4)
            .map(|c| {
                (0..len)
                    .map(|i| ((i * 131 + c * 17 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let fast = code.encode(&refs);
        let tables = code.tables();
        for (r, block) in fast.iter().enumerate() {
            let mut want = vec![0u8; len];
            for (c, shard) in refs.iter().enumerate() {
                tables.mul_acc_scalar(&mut want, shard, code.coefficient(r, c));
            }
            assert_eq!(block, &want, "parity row {r}");
        }
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn oversized_geometry_rejected() {
        let _ = ReedSolomon::new(250, 10);
    }

    #[test]
    fn wide_code_roundtrip() {
        roundtrip(20, 4, 8, &[0, 7, 21, 23]);
    }

    #[test]
    fn delta_update_matches_reencode() {
        use crate::code::test_util::assert_delta_matches_reencode;
        assert_delta_matches_reencode(&ReedSolomon::new(3, 2), 32);
        assert_delta_matches_reencode(&ReedSolomon::new(5, 3), 40);
        assert_delta_matches_reencode(&ReedSolomon::new(1, 1), 16);
    }

    #[test]
    fn delta_update_then_reconstruct_roundtrips() {
        // End to end: incremental parity must still decode the data.
        let code = ReedSolomon::new(4, 2);
        let mut data = sample(4, 24);
        let refs: Vec<&[u8]> = data.iter().map(|v| v.as_slice()).collect();
        let mut parity = code.encode(&refs);
        for b in &mut data[2][5..17] {
            *b ^= 0x5A;
        }
        let delta = vec![0x5Au8; 12]; // old ⊕ new for the patched range
        for (j, block) in parity.iter_mut().enumerate() {
            code.apply_delta(j, block, 2, 5, &delta);
        }
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        shards[2] = None;
        shards[0] = None;
        code.reconstruct(&mut shards).unwrap();
        assert_eq!(shards[2].as_deref(), Some(data[2].as_slice()));
        assert_eq!(shards[0].as_deref(), Some(data[0].as_slice()));
    }
}
