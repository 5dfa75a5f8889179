//! Renewal failure processes.
//!
//! A renewal process turns an inter-failure distribution into a timeline of
//! failure instants. With [`Exponential`](crate::dist::Exponential)
//! inter-arrivals this is exactly the Poisson process assumed throughout
//! Section V of the paper.

use dvdc_simcore::time::{Duration, SimTime};
use rand::Rng;

use crate::dist::FailureDistribution;

/// A renewal process: failures recur, separated by i.i.d. draws from an
/// inter-failure distribution, optionally separated further by a fixed
/// repair (downtime) duration.
#[derive(Debug, Clone)]
pub struct RenewalProcess<D> {
    dist: D,
    repair: Duration,
}

impl<D: FailureDistribution> RenewalProcess<D> {
    /// Creates a process with zero repair time.
    pub fn new(dist: D) -> Self {
        RenewalProcess {
            dist,
            repair: Duration::ZERO,
        }
    }

    /// Creates a process where each failure is followed by `repair` of
    /// downtime before the clock to the next failure starts.
    pub fn with_repair(dist: D, repair: Duration) -> Self {
        RenewalProcess { dist, repair }
    }

    /// The underlying inter-failure distribution.
    pub fn dist(&self) -> &D {
        &self.dist
    }

    /// Generates all failure instants in `[0, horizon)`.
    pub fn failures_within<R: Rng + ?Sized>(&self, horizon: Duration, rng: &mut R) -> Vec<SimTime> {
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            let gap = self.dist.sample(rng);
            t += gap;
            if t.as_secs() >= horizon.as_secs() {
                break;
            }
            out.push(t);
            t += self.repair;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Deterministic, Exponential};
    use dvdc_simcore::rng::RngHub;
    use dvdc_simcore::stats::Welford;

    #[test]
    fn deterministic_process_is_periodic() {
        let p = RenewalProcess::new(Deterministic::new(Duration::from_secs(10.0)));
        let hub = RngHub::new(0);
        let mut rng = hub.stream("p");
        let fs = p.failures_within(Duration::from_secs(35.0), &mut rng);
        let secs: Vec<f64> = fs.iter().map(|t| t.as_secs()).collect();
        assert_eq!(secs, vec![10.0, 20.0, 30.0]);
    }

    #[test]
    fn repair_time_shifts_subsequent_failures() {
        let p = RenewalProcess::with_repair(
            Deterministic::new(Duration::from_secs(10.0)),
            Duration::from_secs(5.0),
        );
        let hub = RngHub::new(0);
        let mut rng = hub.stream("p");
        let fs = p.failures_within(Duration::from_secs(40.0), &mut rng);
        let secs: Vec<f64> = fs.iter().map(|t| t.as_secs()).collect();
        // fail@10, repair→15, fail@25, repair→30, fail@40 excluded.
        assert_eq!(secs, vec![10.0, 25.0]);
    }

    #[test]
    fn poisson_count_matches_rate() {
        // Over horizon H with rate λ, E[#failures] = λH.
        let mtbf = Duration::from_secs(100.0);
        let p = RenewalProcess::new(Exponential::from_mtbf(mtbf));
        let hub = RngHub::new(9);
        let mut counts = Welford::new();
        for i in 0..2_000u64 {
            let mut rng = hub.stream_indexed("trial", i);
            let fs = p.failures_within(Duration::from_secs(1_000.0), &mut rng);
            counts.push(fs.len() as f64);
        }
        // λH = 10.
        assert!(
            (counts.mean() - 10.0).abs() < 0.25,
            "mean count={}",
            counts.mean()
        );
        // Poisson: variance ≈ mean.
        assert!(
            (counts.variance() - 10.0).abs() < 1.0,
            "variance={}",
            counts.variance()
        );
    }

    #[test]
    fn failures_are_strictly_inside_horizon() {
        let p = RenewalProcess::new(Exponential::new(0.1));
        let hub = RngHub::new(4);
        let mut rng = hub.stream("h");
        for _ in 0..50 {
            for t in p.failures_within(Duration::from_secs(50.0), &mut rng) {
                assert!(t.as_secs() < 50.0);
                assert!(t.as_secs() > 0.0);
            }
        }
    }
}
