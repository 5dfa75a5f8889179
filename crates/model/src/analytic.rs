//! Closed-form expected time-to-completion (paper Section V-A).
//!
//! All formulas assume a Poisson failure process with rate `lambda`
//! (failures/second) and work in seconds.
//!
//! Derivation recap: a segment of fault-free length `L` succeeds with
//! probability `p = e^{-λL}`; the number of failed attempts before the
//! first success is geometric with mean `E[F] = (1-p)/p = e^{λL} - 1`;
//! each failed attempt wastes `E[T_fail | T_fail < L]` (the mean of an
//! exponential truncated to `[0, L)`) plus any repair time. The paper's
//! Eq. (1) writes `E[F]` with the truncation denominator folded in —
//! algebraically identical, and we property-test that equivalence.
//!
//! Paper typos corrected here (see DESIGN.md):
//! * Eq. (3) uses `T` where the segment length `N` belongs.
//! * The overhead case prints `E[F] = e^{-λ(N+T_ov)} - 1` (negative); the
//!   sign is wrong.
//! * The final multiplier `T_ov/N` should be `T/N`.

/// Mean number of failed attempts before a segment of fault-free length
/// `len` completes: `e^{λ·len} - 1`.
pub fn expected_failures(lambda: f64, len: f64) -> f64 {
    assert!(lambda > 0.0 && len >= 0.0, "need λ>0, len≥0");
    (lambda * len).exp_m1()
}

/// Mean time lost per failed attempt: `E[T_fail | T_fail < len]` for
/// `T_fail ~ Exp(λ)`.
///
/// Equals `1/λ − len·e^{−λ·len}/(1 − e^{−λ·len})`, which tends to `len/2`
/// as `λ·len → 0` (uniform in the small-interval limit) and to `1/λ` as
/// `λ·len → ∞`.
pub fn expected_failure_time_truncated(lambda: f64, len: f64) -> f64 {
    assert!(lambda > 0.0 && len >= 0.0, "need λ>0, len≥0");
    if len == 0.0 {
        return 0.0;
    }
    let x = lambda * len;
    if x < 1e-8 {
        // Series: E = len/2 · (1 - x/6 + O(x²)); enough precision here.
        return len / 2.0 * (1.0 - x / 6.0);
    }
    let one_minus_e = -(-x).exp_m1(); // 1 - e^{-x}, accurately
    1.0 / lambda - len * (-x).exp() / one_minus_e
}

/// Eq. (1): expected completion time with **no checkpointing** — on any
/// failure the job restarts from scratch.
pub fn expected_time_no_checkpoint(lambda: f64, total: f64) -> f64 {
    expected_failures(lambda, total) * expected_failure_time_truncated(lambda, total) + total
}

/// The paper's literal Eq. (1) grouping, kept for the equivalence test:
/// `(e^{λT}-1)/(1-e^{-λT}) × (1-(λT+1)e^{-λT})/λ + T`.
pub fn expected_time_no_checkpoint_paper_form(lambda: f64, total: f64) -> f64 {
    let x = lambda * total;
    let ef = x.exp_m1() / (-(-x).exp_m1());
    let et = (1.0 - (x + 1.0) * (-x).exp()) / lambda;
    ef * et + total
}

/// Eqs. (2)/(3) (with the `N` typo corrected): expected completion time
/// with zero-cost checkpoints every `interval` seconds of progress.
pub fn expected_time_checkpoint(lambda: f64, total: f64, interval: f64) -> f64 {
    assert!(interval > 0.0, "interval must be positive");
    let segments = total / interval;
    let per_segment = expected_failures(lambda, interval)
        * expected_failure_time_truncated(lambda, interval)
        + interval;
    per_segment * segments
}

/// The overhead-aware expectation (Section V-A, final formula, with the
/// sign and `T/N` typos corrected): each segment is `interval + overhead`
/// of wall-clock exposure, failures additionally cost `repair`, and the
/// job needs `total/interval` segments.
pub fn expected_time_checkpoint_overhead(
    lambda: f64,
    total: f64,
    interval: f64,
    overhead: f64,
    repair: f64,
) -> f64 {
    assert!(interval > 0.0, "interval must be positive");
    assert!(
        overhead >= 0.0 && repair >= 0.0,
        "costs must be non-negative"
    );
    let seg = interval + overhead;
    let per_segment = expected_failures(lambda, seg)
        * (expected_failure_time_truncated(lambda, seg) + repair)
        + seg;
    per_segment * (total / interval)
}

/// The expected-time **ratio** `E[T]/T` the Figure 5 y-axis plots.
pub fn completion_ratio(lambda: f64, total: f64, interval: f64, overhead: f64, repair: f64) -> f64 {
    expected_time_checkpoint_overhead(lambda, total, interval, overhead, repair) / total
}

#[cfg(test)]
mod tests {
    use super::*;

    const LAMBDA: f64 = 9.26e-5; // the paper's 3 h MTBF
    const T2D: f64 = 2.0 * 86_400.0; // the paper's 2-day job

    #[test]
    fn truncated_mean_limits() {
        // Small interval: uniform limit len/2.
        let e = expected_failure_time_truncated(1e-9, 100.0);
        assert!((e - 50.0).abs() < 1e-3, "{e}");
        // Large interval: full exponential mean 1/λ.
        let e = expected_failure_time_truncated(0.1, 1e6);
        assert!((e - 10.0).abs() < 1e-6, "{e}");
        // Zero-length: zero.
        assert_eq!(expected_failure_time_truncated(0.1, 0.0), 0.0);
    }

    #[test]
    fn truncated_mean_is_below_both_bounds() {
        for &(l, len) in &[(1e-4, 100.0), (1e-3, 5000.0), (0.5, 3.0)] {
            let e = expected_failure_time_truncated(l, len);
            assert!(e > 0.0 && e < len, "λ={l} len={len} e={e}");
            assert!(e < 1.0 / l);
        }
    }

    #[test]
    fn expected_failures_matches_geometric() {
        // p = e^{-λL}; mean failures = (1-p)/p.
        let (l, len) = (2e-4_f64, 3600.0_f64);
        let p = (-l * len).exp();
        assert!((expected_failures(l, len) - (1.0 - p) / p).abs() < 1e-9);
    }

    #[test]
    fn paper_eq1_equals_canonical_form() {
        for t in [600.0, 3600.0, 86_400.0, T2D] {
            let ours = expected_time_no_checkpoint(LAMBDA, t);
            let paper = expected_time_no_checkpoint_paper_form(LAMBDA, t);
            assert!(
                (ours - paper).abs() / ours < 1e-10,
                "t={t}: ours={ours} paper={paper}"
            );
        }
    }

    #[test]
    fn two_day_job_without_checkpoints_is_hopeless() {
        // λT ≈ 16 → e^16 ≈ 8.9e6 expected restarts.
        let e = expected_time_no_checkpoint(LAMBDA, T2D);
        assert!(e / T2D > 1e5, "ratio={}", e / T2D);
    }

    #[test]
    fn checkpointing_tames_the_two_day_job() {
        let e = expected_time_checkpoint(LAMBDA, T2D, 1800.0);
        assert!(e / T2D < 1.1, "ratio={}", e / T2D);
        // And is monotonically worse than fault-free.
        assert!(e > T2D);
    }

    #[test]
    fn overhead_form_reduces_to_eq2_when_costs_vanish() {
        for n in [60.0, 600.0, 3600.0] {
            let with = expected_time_checkpoint_overhead(LAMBDA, T2D, n, 0.0, 0.0);
            let without = expected_time_checkpoint(LAMBDA, T2D, n);
            assert!((with - without).abs() / without < 1e-12, "n={n}");
        }
    }

    #[test]
    fn overhead_and_repair_strictly_increase_cost() {
        let base = expected_time_checkpoint_overhead(LAMBDA, T2D, 600.0, 0.0, 0.0);
        let ov = expected_time_checkpoint_overhead(LAMBDA, T2D, 600.0, 10.0, 0.0);
        let rep = expected_time_checkpoint_overhead(LAMBDA, T2D, 600.0, 0.0, 60.0);
        assert!(ov > base);
        assert!(rep > base);
    }

    #[test]
    fn interval_has_an_interior_optimum() {
        // Too-frequent checkpointing pays overhead; too-rare loses work.
        let ov = 10.0;
        let f = |n: f64| expected_time_checkpoint_overhead(LAMBDA, T2D, n, ov, 0.0);
        let tiny = f(20.0);
        let mid = f(1500.0);
        let huge = f(50_000.0);
        assert!(mid < tiny, "mid={mid} tiny={tiny}");
        assert!(mid < huge, "mid={mid} huge={huge}");
    }

    #[test]
    fn optimum_tracks_young_approximation() {
        // Young's first-order optimum: N* ≈ sqrt(2·T_ov/λ).
        let ov = 40.0;
        let young = (2.0 * ov / LAMBDA).sqrt();
        let f = |n: f64| expected_time_checkpoint_overhead(LAMBDA, T2D, n, ov, 0.0);
        // The true optimum should beat both 0.5× and 2× Young.
        assert!(f(young) < f(young * 0.4));
        assert!(f(young) < f(young * 2.5));
    }

    #[test]
    fn ratio_is_expected_time_over_t() {
        let r = completion_ratio(LAMBDA, T2D, 600.0, 5.0, 30.0);
        let e = expected_time_checkpoint_overhead(LAMBDA, T2D, 600.0, 5.0, 30.0);
        assert!((r - e / T2D).abs() < 1e-15);
        assert!(r > 1.0);
    }

    #[test]
    fn no_checkpoint_equals_single_segment() {
        // With interval == total and no overhead, Eq. (2) degenerates to
        // Eq. (1).
        let a = expected_time_checkpoint(LAMBDA, T2D, T2D);
        let b = expected_time_no_checkpoint(LAMBDA, T2D);
        assert!((a - b).abs() / b < 1e-12);
    }
}
