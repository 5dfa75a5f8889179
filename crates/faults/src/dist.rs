//! The inter-failure-time distribution.
//!
//! Sampling is an inverse-CDF transform of one uniform draw, which keeps
//! the number of RNG draws per sample fixed — a prerequisite for the
//! reproducibility guarantees of `dvdc-simcore`.

use dvdc_simcore::time::Duration;
use rand::Rng;

/// Exponential time-to-failure: the Poisson-process assumption of
/// Section V. Memoryless, parameterised by rate λ (failures/second).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates the distribution from a mean time between failures
    /// (λ = 1/MTBF).
    ///
    /// # Panics
    /// Panics unless λ is finite and positive.
    pub fn from_mtbf(mtbf: Duration) -> Self {
        let lambda = 1.0 / mtbf.as_secs();
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Draws one time-to-failure.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        // Inverse CDF: -ln(1-U)/λ. `random::<f64>()` is in [0,1), so 1-U is
        // in (0,1] and the log is finite.
        let u: f64 = rng.random();
        Duration::from_secs(-(1.0 - u).ln() / self.lambda)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;
    use dvdc_simcore::stats::Welford;

    fn sample_mean(d: &Exponential, n: usize) -> (f64, f64) {
        let hub = RngHub::new(2024);
        let mut rng = hub.stream("dist-test");
        let mut w = Welford::new();
        for _ in 0..n {
            w.push(d.sample(&mut rng).as_secs());
        }
        (w.mean(), w.ci95_half_width())
    }

    #[test]
    fn exponential_sample_mean_matches_mtbf() {
        let d = Exponential::from_mtbf(Duration::from_hours(3.0));
        let (mean, ci) = sample_mean(&d, 50_000);
        let expect = 10_800.0;
        assert!(
            (mean - expect).abs() < 3.0 * ci.max(expect * 0.01),
            "mean={mean} expect={expect}"
        );
    }

    #[test]
    fn exponential_lambda_roundtrip() {
        let d = Exponential::from_mtbf(Duration::from_secs(100.0));
        assert!((d.lambda - 0.01).abs() < 1e-15);
        assert_eq!(1.0 / d.lambda, 100.0);
    }

    #[test]
    fn exponential_is_memoryless() {
        // P(T > s+t | T > s) == P(T > t): compare survival beyond 2h given
        // survival beyond 1h to unconditional survival beyond 1h.
        let d = Exponential::from_mtbf(Duration::from_hours(1.0));
        let hub = RngHub::new(7);
        let mut rng = hub.stream("memoryless");
        let n = 200_000;
        let (mut beyond_1h, mut beyond_2h) = (0u32, 0u32);
        for _ in 0..n {
            let t = d.sample(&mut rng).as_hours();
            if t > 1.0 {
                beyond_1h += 1;
                if t > 2.0 {
                    beyond_2h += 1;
                }
            }
        }
        let p_uncond = beyond_1h as f64 / n as f64;
        let p_cond = beyond_2h as f64 / beyond_1h as f64;
        assert!(
            (p_uncond - p_cond).abs() < 0.01,
            "uncond={p_uncond} cond={p_cond}"
        );
    }
}
