//! Online statistics collectors.
//!
//! Simulations in this workspace can run millions of trials, so all
//! collectors here are single-pass and O(1) memory.

use crate::time::SimTime;

/// Single-pass mean/variance accumulator (Welford's algorithm).
#[derive(Debug, Clone)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Welford {
    fn default() -> Self {
        Self::new()
    }
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observation must be finite");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Standard error of the mean.
    fn std_err(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.std_dev() / (self.n as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95 % confidence interval on the mean
    /// (normal approximation, 1.96σ/√n).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_err()
    }

    /// Smallest observation (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted mean of a piecewise-constant signal (e.g. "VMs running"
/// over simulated time).
#[derive(Debug, Clone)]
pub struct TimeWeightedMean {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    started: bool,
    start_time: SimTime,
}

impl Default for TimeWeightedMean {
    fn default() -> Self {
        Self::new()
    }
}

impl TimeWeightedMean {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TimeWeightedMean {
            last_time: SimTime::ZERO,
            last_value: 0.0,
            weighted_sum: 0.0,
            started: false,
            start_time: SimTime::ZERO,
        }
    }

    /// Records that the signal changed to `value` at time `at`. The previous
    /// value is credited for the elapsed interval.
    ///
    /// # Panics
    /// Panics if `at` precedes the previous observation.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if !self.started {
            self.started = true;
            self.start_time = at;
        } else {
            let dt = at.since(self.last_time).as_secs();
            self.weighted_sum += self.last_value * dt;
        }
        self.last_time = at;
        self.last_value = value;
    }

    /// The time-weighted mean over `[first record, until]`.
    pub fn mean_until(&self, until: SimTime) -> f64 {
        if !self.started {
            return 0.0;
        }
        let tail = until.since(self.last_time).as_secs();
        let total = until.since(self.start_time).as_secs();
        if total == 0.0 {
            return self.last_value;
        }
        (self.weighted_sum + self.last_value * tail) / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4, sample variance 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-10);
        assert!((left.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_is_safe() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.variance(), 0.0);
        assert_eq!(w.std_err(), 0.0);
    }

    #[test]
    fn time_weighted_mean_piecewise() {
        let mut twm = TimeWeightedMean::new();
        twm.record(SimTime::from_secs(0.0), 1.0);
        twm.record(SimTime::from_secs(10.0), 3.0);
        // 10s at 1.0, then 10s at 3.0 → mean 2.0 at t=20.
        assert!((twm.mean_until(SimTime::from_secs(20.0)) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_mean_single_point() {
        let mut twm = TimeWeightedMean::new();
        twm.record(SimTime::from_secs(5.0), 4.0);
        assert_eq!(twm.mean_until(SimTime::from_secs(5.0)), 4.0);
        assert_eq!(twm.mean_until(SimTime::from_secs(10.0)), 4.0);
    }
}
