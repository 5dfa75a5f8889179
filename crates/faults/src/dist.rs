//! Inter-failure-time distributions.
//!
//! Sampling is an inverse-CDF transform of one uniform draw, which keeps
//! the number of RNG draws per sample fixed — a prerequisite for the
//! reproducibility guarantees of `dvdc-simcore`.

use dvdc_simcore::time::Duration;
use rand::Rng;

/// A distribution of times-to-failure.
pub trait FailureDistribution {
    /// Draws one time-to-failure.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration;

    /// The distribution's mean (MTBF for inter-failure distributions).
    fn mean(&self) -> Duration;
}

/// Exponential time-to-failure: the Poisson-process assumption of
/// Section V. Memoryless, parameterised by rate λ (failures/second).
#[derive(Debug, Clone, Copy)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with rate `lambda` (failures per
    /// second).
    ///
    /// # Panics
    /// Panics unless `lambda` is finite and positive.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda.is_finite() && lambda > 0.0,
            "lambda must be positive and finite, got {lambda}"
        );
        Exponential { lambda }
    }

    /// Creates the distribution from a mean time between failures.
    pub fn from_mtbf(mtbf: Duration) -> Self {
        Exponential::new(1.0 / mtbf.as_secs())
    }

    /// The failure rate λ in failures/second.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl FailureDistribution for Exponential {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Duration {
        // Inverse CDF: -ln(1-U)/λ. `random::<f64>()` is in [0,1), so 1-U is
        // in (0,1] and the log is finite.
        let u: f64 = rng.random();
        Duration::from_secs(-(1.0 - u).ln() / self.lambda)
    }

    fn mean(&self) -> Duration {
        Duration::from_secs(1.0 / self.lambda)
    }
}

/// Degenerate distribution that always fails after exactly the given time.
/// Useful for scripted scenario tests ("node 2 dies at t=100s").
#[derive(Debug, Clone, Copy)]
pub struct Deterministic {
    value: Duration,
}

impl Deterministic {
    /// Creates the point distribution at `value`.
    pub fn new(value: Duration) -> Self {
        Deterministic { value }
    }
}

impl FailureDistribution for Deterministic {
    fn sample<R: Rng + ?Sized>(&self, _rng: &mut R) -> Duration {
        self.value
    }

    fn mean(&self) -> Duration {
        self.value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;
    use dvdc_simcore::stats::Welford;

    fn sample_mean<D: FailureDistribution>(d: &D, n: usize) -> (f64, f64) {
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
        assert!((d.lambda() - 0.01).abs() < 1e-15);
        assert_eq!(d.mean().as_secs(), 100.0);
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

    #[test]
    fn deterministic_always_same() {
        let d = Deterministic::new(Duration::from_secs(42.0));
        let hub = RngHub::new(1);
        let mut rng = hub.stream("det");
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng).as_secs(), 42.0);
        }
        assert_eq!(d.mean().as_secs(), 42.0);
    }
}
