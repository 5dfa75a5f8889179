//! Monte-Carlo validation of the Section V closed forms.
//!
//! The paper's evaluation is purely analytical. We go one step further and
//! simulate the exact stochastic process the equations describe — a job of
//! `total` fault-free seconds, checkpoints every `interval` seconds of
//! progress costing `overhead` each, exponential failures at rate
//! `lambda`, `repair` per failure, rollback to the last completed
//! checkpoint — and check the sample mean against the formulas.

use dvdc_simcore::montecarlo::{self, McSummary};
use dvdc_simcore::rng::RngHub;
use rand::Rng;

/// Parameters of one simulated job run.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Failure rate, failures/second.
    pub lambda: f64,
    /// Fault-free job length, seconds.
    pub total: f64,
    /// Progress between checkpoints, seconds.
    pub interval: f64,
    /// Suspension per checkpoint, seconds.
    pub overhead: f64,
    /// Repair time per failure, seconds.
    pub repair: f64,
}

/// Simulates one completion and returns the wall-clock time taken.
///
/// The process mirrors the analytical model exactly: work proceeds in
/// segments of `interval` progress plus `overhead` exposure; a failure
/// during a segment wastes the time already spent in it plus `repair`,
/// and the segment restarts. (The model, like the paper's, assumes
/// failures during repair do not compound.)
fn simulate_once<R: Rng + ?Sized>(spec: &JobSpec, rng: &mut R) -> f64 {
    let segments = (spec.total / spec.interval).ceil() as u64;
    // The final segment may be shorter if interval doesn't divide total.
    let last_len = spec.total - (segments - 1) as f64 * spec.interval;
    let mut clock = 0.0;
    for s in 0..segments {
        let work = if s + 1 == segments {
            last_len
        } else {
            spec.interval
        };
        let exposure = work + spec.overhead;
        loop {
            // Draw time-to-failure from the current instant (memoryless).
            let u: f64 = rng.random();
            let ttf = -(1.0 - u).ln() / spec.lambda;
            if ttf >= exposure {
                clock += exposure;
                break;
            }
            clock += ttf + spec.repair;
        }
    }
    clock
}

/// Runs `trials` independent jobs and summarises completion times.
pub fn simulate(spec: &JobSpec, trials: u64, hub: &RngHub) -> McSummary {
    montecarlo::run(hub, trials, |h| {
        let mut rng = h.stream("job");
        simulate_once(spec, &mut rng)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic;

    fn hub() -> RngHub {
        RngHub::new(0xF1605)
    }

    #[test]
    fn matches_eq2_zero_overhead() {
        let spec = JobSpec {
            lambda: 1.0 / 3600.0,
            total: 8.0 * 3600.0,
            interval: 1800.0,
            overhead: 0.0,
            repair: 0.0,
        };
        let s = simulate(&spec, 4_000, &hub());
        let analytic = analytic::expected_time_checkpoint(spec.lambda, spec.total, spec.interval);
        assert!(
            s.relative_error(analytic) < 0.02,
            "mc={} analytic={analytic}",
            s.mean
        );
    }

    #[test]
    fn matches_overhead_form() {
        let spec = JobSpec {
            lambda: 9.26e-5,
            total: 86_400.0,
            interval: 1200.0,
            overhead: 30.0,
            repair: 120.0,
        };
        let s = simulate(&spec, 4_000, &hub());
        let analytic = analytic::expected_time_checkpoint_overhead(
            spec.lambda,
            spec.total,
            spec.interval,
            spec.overhead,
            spec.repair,
        );
        assert!(
            s.relative_error(analytic) < 0.02,
            "mc={} analytic={analytic}",
            s.mean
        );
    }

    #[test]
    fn matches_no_checkpoint_case() {
        // Single segment == no checkpointing (keep λT modest so the
        // geometric tail doesn't need millions of trials).
        let spec = JobSpec {
            lambda: 1.0 / 7200.0,
            total: 3600.0,
            interval: 3600.0,
            overhead: 0.0,
            repair: 0.0,
        };
        let s = simulate(&spec, 20_000, &hub());
        let analytic = analytic::expected_time_no_checkpoint(spec.lambda, spec.total);
        assert!(
            s.relative_error(analytic) < 0.03,
            "mc={} analytic={analytic}",
            s.mean
        );
    }

    #[test]
    fn fault_free_limit() {
        // λ → tiny: completion time collapses to total + checkpoints' overhead.
        let spec = JobSpec {
            lambda: 1e-12,
            total: 10_000.0,
            interval: 1000.0,
            overhead: 5.0,
            repair: 0.0,
        };
        let s = simulate(&spec, 100, &hub());
        assert!((s.mean - 10_050.0).abs() < 1e-6, "mean={}", s.mean);
        assert!(s.std_dev < 1e-6);
    }

    #[test]
    fn simulation_is_reproducible() {
        let spec = JobSpec {
            lambda: 1e-4,
            total: 50_000.0,
            interval: 2_000.0,
            overhead: 10.0,
            repair: 50.0,
        };
        let a = simulate(&spec, 500, &hub());
        let b = simulate(&spec, 500, &hub());
        assert_eq!(a.mean, b.mean);
    }

    #[test]
    fn more_failures_mean_longer_runs() {
        let base = JobSpec {
            lambda: 1e-5,
            total: 50_000.0,
            interval: 2_000.0,
            overhead: 10.0,
            repair: 0.0,
        };
        let worse = JobSpec {
            lambda: 5e-4,
            ..base
        };
        let a = simulate(&base, 1_000, &hub());
        let b = simulate(&worse, 1_000, &hub());
        assert!(b.mean > a.mean);
    }
}
