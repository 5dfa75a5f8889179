//! GF(2⁸) arithmetic for the Reed–Solomon extension.
//!
//! The field is GF(2)\[x\]/(x⁸+x⁴+x³+x²+1) (0x11D), the conventional choice
//! for storage codes. Scalar multiplication and division go through
//! log/exp tables built once per process (see [`Tables::shared`]);
//! addition is XOR.
//!
//! The *bulk* byte path — the inner loop of RS encode/decode/delta-fold —
//! does not touch log/exp at all: [`MulTable`] materialises a per-
//! coefficient 256-entry product row (the ISA-L table-lookup scheme) so
//! the hot loop is a single branch-free load per byte, unrolled
//! word-wide, with the whole table resident in four cache lines.

use std::sync::OnceLock;

/// The irreducible polynomial generating the field.
const POLY: u16 = 0x11D;

/// Block lengths at or above this use the table-driven kernel; below it
/// the 256-entry table build (one pass over the field) costs more than
/// the branchy scalar loop it replaces.
const MUL_TABLE_MIN: usize = 64;

/// Precomputed log/exp tables.
#[derive(Debug)]
pub struct Tables {
    /// exp[i] = g^i, duplicated to 512 entries so `exp[log a + log b]`
    /// needs no modular reduction.
    exp: [u8; 512],
    /// log[a] for a != 0; log[0] is a sentinel never read.
    log: [u16; 256],
}

impl Tables {
    /// Builds the tables by repeated multiplication by the generator.
    #[allow(clippy::needless_range_loop)] // i is the exponent, not just an index
    pub fn new() -> Self {
        let mut exp = [0u8; 512];
        let mut log = [0u16; 256];
        let mut x: u16 = 1;
        for i in 0..255 {
            exp[i] = x as u8;
            log[x as usize] = i as u16;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in 255..512 {
            exp[i] = exp[i - 255];
        }
        Tables { exp, log }
    }

    /// The process-wide shared tables.
    ///
    /// The exp/log construction is ~1.5 KiB of work; rebuilding it per
    /// code instance is O(instances) redundant effort once a cluster
    /// model holds thousands of orthogonal groups. Every code in this
    /// crate borrows this single copy instead.
    pub fn shared() -> &'static Tables {
        static SHARED: OnceLock<Tables> = OnceLock::new();
        SHARED.get_or_init(Tables::new)
    }

    /// Field addition (= subtraction): XOR.
    #[inline]
    pub fn add(&self, a: u8, b: u8) -> u8 {
        a ^ b
    }

    /// Field multiplication.
    #[inline]
    pub fn mul(&self, a: u8, b: u8) -> u8 {
        if a == 0 || b == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + self.log[b as usize]) as usize]
        }
    }

    /// Field division.
    ///
    /// # Panics
    /// Panics on division by zero.
    #[inline]
    pub fn div(&self, a: u8, b: u8) -> u8 {
        assert!(b != 0, "GF(256) division by zero");
        if a == 0 {
            0
        } else {
            self.exp[(self.log[a as usize] + 255 - self.log[b as usize]) as usize]
        }
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics for zero.
    #[inline]
    pub fn inv(&self, a: u8) -> u8 {
        self.div(1, a)
    }

    /// `a` raised to the power `e`.
    pub fn pow(&self, a: u8, e: u32) -> u8 {
        if e == 0 {
            return 1;
        }
        if a == 0 {
            return 0;
        }
        let l = (self.log[a as usize] as u64 * e as u64) % 255;
        self.exp[l as usize]
    }

    /// Multiply-accumulate over a block: `dst[i] ^= coeff * src[i]`.
    ///
    /// This is the inner loop of RS encoding. Blocks of at least
    /// `MUL_TABLE_MIN` bytes go through a freshly built [`MulTable`]
    /// (branch-free single-lookup kernel); shorter blocks use the scalar
    /// log/exp loop. Callers that reuse a coefficient across many blocks
    /// (the RS generator rows) should hold a [`MulTable`] directly.
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8], coeff: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc operands must match");
        if coeff == 0 {
            return;
        }
        if coeff == 1 {
            crate::xor::xor_into(dst, src);
            return;
        }
        if dst.len() >= MUL_TABLE_MIN {
            MulTable::new(self, coeff).mul_acc(dst, src);
        } else {
            self.mul_acc_scalar(dst, src, coeff);
        }
    }

    /// The pre-table scalar kernel: per-byte branch on zero plus two
    /// log/exp lookups. Kept as the byte-exact reference the table-driven
    /// kernels are property-tested (and benchmarked) against.
    pub fn mul_acc_scalar(&self, dst: &mut [u8], src: &[u8], coeff: u8) {
        assert_eq!(dst.len(), src.len(), "mul_acc operands must match");
        if coeff == 0 {
            return;
        }
        if coeff == 1 {
            crate::xor::xor_into(dst, src);
            return;
        }
        let log_c = self.log[coeff as usize];
        for (d, &s) in dst.iter_mut().zip(src) {
            if s != 0 {
                *d ^= self.exp[(log_c + self.log[s as usize]) as usize];
            }
        }
    }
}

/// A materialised multiplication row for one fixed coefficient:
/// `table[b] = coeff · b` over GF(2⁸).
///
/// This is the ISA-L-style table-lookup scheme reduced to scalar Rust:
/// the 256-byte row fits in four cache lines, the hot loop is one
/// branch-free load per byte, and the word-unrolled body gives the
/// autovectoriser a straight-line gather it can software-pipeline.
/// Codes precompute one `MulTable` per generator coefficient so encode,
/// decode, and delta-fold never touch log/exp in their inner loops.
#[derive(Clone)]
pub struct MulTable {
    coeff: u8,
    table: [u8; 256],
}

impl std::fmt::Debug for MulTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MulTable")
            .field("coeff", &self.coeff)
            .finish()
    }
}

impl MulTable {
    /// Builds the product row for `coeff`.
    pub fn new(tables: &Tables, coeff: u8) -> Self {
        let mut table = [0u8; 256];
        if coeff != 0 {
            let log_c = tables.log[coeff as usize];
            for (b, slot) in table.iter_mut().enumerate().skip(1) {
                *slot = tables.exp[(log_c + tables.log[b]) as usize];
            }
        }
        MulTable { coeff, table }
    }

    /// The fixed coefficient this row multiplies by.
    pub fn coeff(&self) -> u8 {
        self.coeff
    }

    /// `coeff · b`.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.table[b as usize]
    }

    /// Multiply-accumulate over a block: `dst[i] ^= coeff · src[i]`.
    ///
    /// Identity coefficients degrade to the word-wide XOR kernel (the
    /// m = 1 fast path); zero is a no-op. Otherwise the loop runs eight
    /// lookups per iteration against the resident 256-byte row.
    ///
    /// # Panics
    /// Panics if the slices differ in length.
    pub fn mul_acc(&self, dst: &mut [u8], src: &[u8]) {
        assert_eq!(dst.len(), src.len(), "mul_acc operands must match");
        match self.coeff {
            0 => return,
            1 => {
                crate::xor::xor_into(dst, src);
                return;
            }
            _ => {}
        }
        let t = &self.table;
        let mut dst_words = dst.chunks_exact_mut(8);
        let mut src_words = src.chunks_exact(8);
        for (d, s) in (&mut dst_words).zip(&mut src_words) {
            d[0] ^= t[s[0] as usize];
            d[1] ^= t[s[1] as usize];
            d[2] ^= t[s[2] as usize];
            d[3] ^= t[s[3] as usize];
            d[4] ^= t[s[4] as usize];
            d[5] ^= t[s[5] as usize];
            d[6] ^= t[s[6] as usize];
            d[7] ^= t[s[7] as usize];
        }
        for (d, &s) in dst_words
            .into_remainder()
            .iter_mut()
            .zip(src_words.remainder())
        {
            *d ^= t[s as usize];
        }
    }
}

impl Default for Tables {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> Tables {
        Tables::new()
    }

    /// Slow reference multiplication (Russian peasant) to validate tables.
    fn slow_mul(mut a: u8, mut b: u8) -> u8 {
        let mut acc = 0u8;
        while b != 0 {
            if b & 1 != 0 {
                acc ^= a;
            }
            let carry = a & 0x80 != 0;
            a <<= 1;
            if carry {
                a ^= (POLY & 0xFF) as u8;
            }
            b >>= 1;
        }
        acc
    }

    #[test]
    fn table_mul_matches_reference() {
        let t = t();
        for a in 0..=255u8 {
            for b in [0u8, 1, 2, 3, 7, 91, 128, 200, 255] {
                assert_eq!(t.mul(a, b), slow_mul(a, b), "a={a} b={b}");
            }
        }
    }

    #[test]
    fn mul_identity_and_zero() {
        let t = t();
        for a in 0..=255u8 {
            assert_eq!(t.mul(a, 1), a);
            assert_eq!(t.mul(a, 0), 0);
            assert_eq!(t.mul(0, a), 0);
        }
    }

    #[test]
    fn mul_is_commutative_and_associative() {
        let t = t();
        let samples = [1u8, 2, 5, 17, 99, 180, 254, 255];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(t.mul(a, b), t.mul(b, a));
                for &c in &samples {
                    assert_eq!(t.mul(t.mul(a, b), c), t.mul(a, t.mul(b, c)));
                }
            }
        }
    }

    #[test]
    fn distributive_law() {
        let t = t();
        for a in [3u8, 50, 200] {
            for b in [7u8, 99, 255] {
                for c in [1u8, 2, 128] {
                    assert_eq!(t.mul(a, t.add(b, c)), t.add(t.mul(a, b), t.mul(a, c)));
                }
            }
        }
    }

    #[test]
    fn every_nonzero_has_inverse() {
        let t = t();
        for a in 1..=255u8 {
            let inv = t.inv(a);
            assert_eq!(t.mul(a, inv), 1, "a={a} inv={inv}");
        }
    }

    #[test]
    fn div_is_mul_by_inverse() {
        let t = t();
        for a in [0u8, 1, 42, 255] {
            for b in [1u8, 3, 77, 254] {
                assert_eq!(t.div(a, b), t.mul(a, t.inv(b)));
            }
        }
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        t().div(5, 0);
    }

    #[test]
    fn pow_matches_repeated_mul() {
        let t = t();
        for a in [2u8, 3, 19, 200] {
            let mut acc = 1u8;
            for e in 0..20u32 {
                assert_eq!(t.pow(a, e), acc, "a={a} e={e}");
                acc = t.mul(acc, a);
            }
        }
        assert_eq!(t.pow(0, 0), 1);
        assert_eq!(t.pow(0, 5), 0);
    }

    #[test]
    fn generator_has_full_order() {
        // g = 2: g^i for i in 0..255 must enumerate all nonzero elements.
        let t = t();
        let mut seen = [false; 256];
        for i in 0..255 {
            let v = t.pow(0x02, i);
            assert!(!seen[v as usize], "repeat at i={i}");
            seen[v as usize] = true;
        }
        assert!(!seen[0]);
    }

    #[test]
    fn mul_acc_matches_scalar() {
        let t = t();
        let src: Vec<u8> = (0..100).map(|i| (i * 7 + 3) as u8).collect();
        for coeff in [0u8, 1, 2, 77, 255] {
            let mut dst: Vec<u8> = (0..100).map(|i| (i * 13) as u8).collect();
            let expect: Vec<u8> = dst
                .iter()
                .zip(&src)
                .map(|(&d, &s)| d ^ t.mul(coeff, s))
                .collect();
            t.mul_acc(&mut dst, &src, coeff);
            assert_eq!(dst, expect, "coeff={coeff}");
        }
    }

    #[test]
    fn shared_tables_are_one_instance() {
        // Every caller of `Tables::shared` must observe the same table
        // memory — the OnceLock regression guard.
        let a: &'static Tables = Tables::shared();
        let b: &'static Tables = Tables::shared();
        assert!(std::ptr::eq(a, b), "shared tables rebuilt per call");
    }

    #[test]
    fn mul_table_row_matches_scalar_mul() {
        let t = t();
        for coeff in 0..=255u8 {
            let row = MulTable::new(&t, coeff);
            assert_eq!(row.coeff(), coeff);
            for b in 0..=255u8 {
                assert_eq!(row.mul(b), t.mul(coeff, b), "coeff={coeff} b={b}");
            }
        }
    }

    #[test]
    fn mul_table_acc_matches_scalar_kernel_with_ragged_tails() {
        let t = t();
        for len in [0usize, 1, 7, 8, 9, 15, 63, 64, 65, 257, 1000] {
            let src: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            for coeff in [0u8, 1, 2, 29, 142, 255] {
                let base: Vec<u8> = (0..len).map(|i| (i * 11 + 3) as u8).collect();
                let mut scalar = base.clone();
                t.mul_acc_scalar(&mut scalar, &src, coeff);
                let mut table = base.clone();
                MulTable::new(&t, coeff).mul_acc(&mut table, &src);
                assert_eq!(table, scalar, "len={len} coeff={coeff}");
                let mut auto = base.clone();
                t.mul_acc(&mut auto, &src, coeff);
                assert_eq!(auto, scalar, "auto path len={len} coeff={coeff}");
            }
        }
    }
}
