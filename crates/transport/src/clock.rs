//! The deployment clock: wall time mapped onto the protocol's
//! [`SimTime`] axis.
//!
//! [`NodeCore`](dvdc::protocol::node_core::NodeCore) measures all its
//! deadlines in [`SimTime`] seconds. In simulation the driver advances a
//! virtual clock; in deployment [`WallClock`] anchors `SimTime::ZERO` at
//! process start and reads elapsed wall seconds — sim seconds *are* wall
//! seconds, so `DetectorConfig` values tuned in the sim carry over
//! unchanged.

use std::time::Instant;

use dvdc_simcore::time::SimTime;

/// Monotonic wall clock on the protocol's time axis.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// Anchor `SimTime::ZERO` at "now".
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }

    /// Wall seconds elapsed since the anchor.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs(self.origin.elapsed().as_secs_f64())
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone_and_starts_near_zero() {
        let clock = WallClock::new();
        let a = clock.now();
        assert!(a.as_secs() >= 0.0 && a.as_secs() < 1.0);
        std::thread::sleep(std::time::Duration::from_millis(5));
        let b = clock.now();
        assert!(b > a);
        assert!(b.since(a).as_secs() >= 0.004);
    }
}
