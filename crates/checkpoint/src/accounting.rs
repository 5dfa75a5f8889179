//! Overhead-vs-latency accounting.
//!
//! The paper is insistent on the distinction (Section II-B2): *"Overhead
//! is the amount of time execution is suspended by the checkpointing
//! process. Latency is the amount of time it takes before the checkpoint
//! is usable. … Thus, latency is always at least as much as overhead."*
//! Every protocol in `dvdc` reports its round cost as a
//! [`CheckpointCost`], and the invariant is enforced at construction.

use dvdc_simcore::time::Duration;

/// The cost of one checkpoint round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCost {
    /// Time execution was suspended (added to job runtime).
    pub overhead: Duration,
    /// Time until the checkpoint became usable for recovery.
    pub latency: Duration,
}

impl CheckpointCost {
    /// Zero cost.
    pub const ZERO: CheckpointCost = CheckpointCost {
        overhead: Duration::ZERO,
        latency: Duration::ZERO,
    };

    /// Creates a cost record.
    ///
    /// # Panics
    /// Panics if `latency < overhead` — the paper's invariant.
    pub fn new(overhead: Duration, latency: Duration) -> Self {
        assert!(
            latency >= overhead,
            "latency ({latency}) must be at least overhead ({overhead})"
        );
        CheckpointCost { overhead, latency }
    }

    /// A fully synchronous cost: the system is suspended until the
    /// checkpoint is usable, so overhead == latency.
    pub fn synchronous(d: Duration) -> Self {
        CheckpointCost {
            overhead: d,
            latency: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_cost_has_no_slack() {
        let c = CheckpointCost::synchronous(Duration::from_secs(2.0));
        assert_eq!(c.overhead, c.latency);
    }

    #[test]
    #[should_panic(expected = "latency")]
    fn latency_below_overhead_panics() {
        let _ = CheckpointCost::new(Duration::from_secs(2.0), Duration::from_secs(1.0));
    }

    #[test]
    fn zero_is_zero() {
        assert_eq!(CheckpointCost::ZERO.overhead, Duration::ZERO);
        assert_eq!(CheckpointCost::ZERO.latency, Duration::ZERO);
    }
}
