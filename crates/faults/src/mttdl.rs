//! Mean time to data loss (MTTDL) — the RAID-style reliability analysis
//! behind the paper's tolerance claims.
//!
//! A single-parity DVDC cluster (m = 1) loses data exactly when a second
//! node fails while the first is still being repaired — the classic
//! RAID-5 window argument (\[20\], \[6\] in the paper). With node failure
//! rate λ and repair time R:
//!
//! * a "first" failure occurs at rate `N·λ`;
//! * it becomes fatal if any of the other `N−1` nodes fails within `R`,
//!   which for Poisson failures has probability `1 − e^{−(N−1)·λ·R}`;
//! * hence `MTTDL ≈ 1 / (N·λ · (1 − e^{−(N−1)λR}))`, which for small
//!   `λR` reduces to the familiar `MTBF² / (N·(N−1)·R)`.
//!
//! For `m = 2` (the Reed–Solomon extension) the chain needs a third
//! failure inside the repair windows of both predecessors:
//! `MTTDL₂ ≈ MTBF³ / (N·(N−1)·(N−2)·R²)`.
//!
//! These closed forms are validated against the overlapping downtime of
//! [`NodeCrashes`](crate::NodeCrashes) plans in this module's tests and swept into
//! a table by the `availability_analysis` bench binary.

use dvdc_simcore::time::Duration;

/// Parameters of the reliability analysis.
#[derive(Debug, Clone, Copy)]
pub struct MttdlParams {
    /// Physical node count.
    pub nodes: usize,
    /// Per-node MTBF.
    pub node_mtbf: Duration,
    /// Repair (rebuild) time after a node failure.
    pub repair: Duration,
}

impl MttdlParams {
    /// Per-node failure rate λ.
    pub fn lambda(&self) -> f64 {
        1.0 / self.node_mtbf.as_secs()
    }

    /// Probability that a given node failure is followed by a second
    /// failure (on any other node) within the repair window — the fatal
    /// event for single parity.
    pub fn overlap_probability(&self) -> f64 {
        let others = (self.nodes.saturating_sub(1)) as f64;
        1.0 - (-others * self.lambda() * self.repair.as_secs()).exp()
    }

    /// MTTDL with `m = 1` (XOR single parity): survives any one failure,
    /// dies on overlapping repairs.
    pub fn mttdl_single_parity(&self) -> Duration {
        assert!(self.nodes >= 2, "single parity needs at least 2 nodes");
        let first_rate = self.nodes as f64 * self.lambda();
        let fatal = self.overlap_probability();
        Duration::from_secs(1.0 / (first_rate * fatal.max(f64::MIN_POSITIVE)))
    }

    /// MTTDL with `m = 2` (Reed–Solomon double parity), small-λR
    /// approximation of the three-failure chain.
    pub fn mttdl_double_parity(&self) -> Duration {
        assert!(self.nodes >= 3, "double parity needs at least 3 nodes");
        let n = self.nodes as f64;
        let lambda = self.lambda();
        let r = self.repair.as_secs();
        let p2 = 1.0 - (-(n - 1.0) * lambda * r).exp();
        let p3 = 1.0 - (-(n - 2.0) * lambda * r).exp();
        let rate = n * lambda * p2 * p3;
        Duration::from_secs(1.0 / rate.max(f64::MIN_POSITIVE))
    }

    /// Probability of surviving a mission of length `t` without data loss
    /// (exponential MTTDL approximation).
    pub fn survival_probability(&self, t: Duration, parity: usize) -> f64 {
        let mttdl = match parity {
            1 => self.mttdl_single_parity(),
            2 => self.mttdl_double_parity(),
            other => panic!("unsupported parity count {other}"),
        };
        (-(t.as_secs() / mttdl.as_secs())).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{DomainShape, FaultSchedule, NodeCrashes};
    use dvdc_simcore::rng::RngHub;

    fn params(nodes: usize, mtbf_h: f64, repair_s: f64) -> MttdlParams {
        MttdlParams {
            nodes,
            node_mtbf: Duration::from_hours(mtbf_h),
            repair: Duration::from_secs(repair_s),
        }
    }

    #[test]
    fn small_window_matches_raid5_formula() {
        // λR ≪ 1: MTTDL ≈ MTBF² / (N(N−1)R).
        let p = params(8, 1000.0, 60.0);
        let classic = p.node_mtbf.as_secs().powi(2) / (8.0 * 7.0 * 60.0);
        let got = p.mttdl_single_parity().as_secs();
        assert!(
            (got - classic).abs() / classic < 0.01,
            "got {got} want {classic}"
        );
    }

    #[test]
    fn double_parity_is_orders_of_magnitude_safer() {
        let p = params(8, 100.0, 300.0);
        let single = p.mttdl_single_parity().as_secs();
        let double = p.mttdl_double_parity().as_secs();
        assert!(double / single > 100.0, "ratio {}", double / single);
    }

    #[test]
    fn faster_repair_extends_mttdl() {
        let slow = params(8, 100.0, 600.0).mttdl_single_parity();
        let fast = params(8, 100.0, 60.0).mttdl_single_parity();
        assert!(fast.as_secs() / slow.as_secs() > 9.0);
    }

    #[test]
    fn bigger_clusters_fail_more() {
        let small = params(4, 100.0, 300.0).mttdl_single_parity();
        let large = params(32, 100.0, 300.0).mttdl_single_parity();
        assert!(small > large);
    }

    #[test]
    fn survival_probability_behaves() {
        let p = params(8, 100.0, 300.0);
        let day = Duration::from_days(1.0);
        let year = Duration::from_days(365.0);
        let s_day = p.survival_probability(day, 1);
        let s_year = p.survival_probability(year, 1);
        assert!(s_day > s_year);
        assert!((0.0..=1.0).contains(&s_day));
        assert!(p.survival_probability(year, 2) > s_year);
    }

    #[test]
    fn overlap_probability_validated_by_injection() {
        // Empirical check: fraction of failures followed by another
        // node's failure within the repair window matches the closed
        // form.
        let p = params(4, 2.0, 900.0); // aggressive to get statistics
        let crashes = NodeCrashes::exponential(p.node_mtbf, p.repair);
        let hub = RngHub::new(0xD07A);
        let horizon = Duration::from_days(200.0);
        let plan = crashes.plan(DomainShape::flat(4), horizon, &hub);
        let faults = plan.faults();
        let mut overlapping = 0usize;
        for (i, f) in faults.iter().enumerate() {
            let window_end = f.at + p.repair;
            if faults[i + 1..]
                .iter()
                .take_while(|g| g.at < window_end)
                .any(|g| g.node != f.node)
            {
                overlapping += 1;
            }
        }
        let empirical = overlapping as f64 / faults.len() as f64;
        let analytic = p.overlap_probability();
        assert!(
            (empirical - analytic).abs() / analytic < 0.15,
            "empirical {empirical:.4} vs analytic {analytic:.4} over {} faults",
            faults.len()
        );
    }

    #[test]
    #[should_panic(expected = "unsupported parity")]
    fn unsupported_parity_panics() {
        params(8, 100.0, 60.0).survival_probability(Duration::from_days(1.0), 3);
    }
}
