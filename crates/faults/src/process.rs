//! The renewal loop behind every stochastic schedule.
//!
//! Failures recur separated by i.i.d. [`Exponential`] gaps — exactly the
//! Poisson process assumed throughout Section V of the paper — with a
//! fixed repair (downtime) span after each failure before the clock to
//! the next one starts.

use dvdc_simcore::time::{Duration, SimTime};
use rand::Rng;

use crate::dist::Exponential;

/// Every failure instant in `[0, horizon)`: draw a gap from `dist`, fail,
/// sit out `repair`, repeat.
pub(crate) fn failures_within<R: Rng + ?Sized>(
    dist: Exponential,
    repair: Duration,
    horizon: Duration,
    rng: &mut R,
) -> Vec<SimTime> {
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    loop {
        t += dist.sample(rng);
        if t.as_secs() >= horizon.as_secs() {
            break;
        }
        out.push(t);
        t += repair;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_simcore::rng::RngHub;
    use dvdc_simcore::stats::Welford;

    fn mtbf(secs: f64) -> Exponential {
        Exponential::from_mtbf(Duration::from_secs(secs))
    }

    #[test]
    fn repair_time_shifts_subsequent_failures() {
        // Same draws, with and without repair: the i-th failure lands i
        // repair spans later.
        let hub = RngHub::new(0);
        let horizon = Duration::from_secs(1_000.0);
        let bare = failures_within(mtbf(10.0), Duration::ZERO, horizon, &mut hub.stream("p"));
        let repaired = failures_within(
            mtbf(10.0),
            Duration::from_secs(5.0),
            horizon,
            &mut hub.stream("p"),
        );
        assert!(repaired.len() > 10 && repaired.len() < bare.len());
        for (i, (r, b)) in repaired.iter().zip(&bare).enumerate() {
            let shift = r.as_secs() - b.as_secs();
            assert!((shift - 5.0 * i as f64).abs() < 1e-9, "failure {i}");
        }
    }

    #[test]
    fn poisson_count_matches_rate() {
        // Over horizon H with rate λ, E[#failures] = λH.
        let hub = RngHub::new(9);
        let mut counts = Welford::new();
        for i in 0..2_000u64 {
            let mut rng = hub.stream_indexed("trial", i);
            let fs = failures_within(
                mtbf(100.0),
                Duration::ZERO,
                Duration::from_secs(1_000.0),
                &mut rng,
            );
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
        let hub = RngHub::new(4);
        let mut rng = hub.stream("h");
        for _ in 0..50 {
            let horizon = Duration::from_secs(50.0);
            for t in failures_within(mtbf(10.0), Duration::ZERO, horizon, &mut rng) {
                assert!(t.as_secs() < 50.0);
                assert!(t.as_secs() > 0.0);
            }
        }
    }
}
