//! # dvdc-faults
//!
//! Failure modelling for the DVDC reproduction.
//!
//! The paper's analytical model (Section V) assumes failures follow a
//! Poisson process — exponentially distributed inter-failure times with
//! rate λ = 1/MTBF. The paper also acknowledges that real hardware follows
//! a "bathtub curve". This crate provides:
//!
//! * [`dist`] — inter-failure-time distributions: [`Exponential`],
//!   [`Weibull`] (bathtub segments), [`LogNormal`], [`Deterministic`], and
//!   trace-driven [`Empirical`].
//! * [`process`] — renewal failure processes that turn a distribution into
//!   a timeline of failure instants over a horizon.
//! * [`injector`] — cluster-level fault injection: per-physical-node
//!   failure schedules with repair times, and the *correlated* VM failures
//!   that motivate the paper's orthogonal RAID-group placement (every VM on
//!   a failing physical node fails with it). Faults carry a
//!   [`FaultKind`] — crash, transient hang, network partition, or silent
//!   block corruption (node up, stored bytes rotten — only checksums
//!   notice).
//! * [`schedule`] — composable fault schedules: named plan generators
//!   (quiet, per-node crashes, correlated rack kills, a DC kill,
//!   impairment storms, mixtures) over a [`DomainShape`] of node / rack /
//!   DC counts — the fault-side axis of the workload × fault matrix.
//! * [`detector`] — the in-band failure detector: heartbeat deadlines,
//!   timeout-based suspicion, and `Suspected`/`Confirmed`/`Refuted`
//!   verdicts. Since hangs and partitions are indistinguishable from
//!   crashes at the detector, verdicts can be *wrong* — the consumer
//!   must fence wrongly-failed-over nodes.
//! * [`mttdl`] — RAID-style mean-time-to-data-loss analysis for single
//!   and double parity: the overlapping-repair window that kills an
//!   m = 1 cluster, validated against the injector.
//! * [`trace`] — trace-driven plans: parse measured failure logs
//!   (`time,node[,repair]` CSV) into the same [`ClusterFaultPlan`] the
//!   synthetic injectors produce.
//! * [`buggify`] — FoundationDB-style seed-deterministic fault points
//!   planted *inside* the protocol's IO callsites (transfer arrivals,
//!   heartbeat sends, scrub reads), plus the greedy repro shrinker the
//!   swarm harness uses. Where [`injector`] faults whole nodes from the
//!   outside, buggify stresses the code between those faults.
//!
//! [`Exponential`]: dist::Exponential
//! [`Weibull`]: dist::Weibull
//! [`LogNormal`]: dist::LogNormal
//! [`Deterministic`]: dist::Deterministic
//! [`Empirical`]: dist::Empirical

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buggify;
pub mod detector;
pub mod dist;
pub mod injector;
pub mod mttdl;
pub mod process;
pub mod schedule;
pub mod trace;

pub use buggify::{FaultRegistry, Intensity};
pub use detector::{DetectorConfig, DetectorStats, FailureDetector, Verdict};
pub use dist::{
    AnyDistribution, Deterministic, Empirical, Exponential, FailureDistribution, LogNormal,
    Mixture, Weibull,
};
pub use injector::{ClusterFaultPlan, FaultInjector, FaultKind, NodeFault, PeerSet, PlanCursor};
pub use mttdl::MttdlParams;
pub use process::RenewalProcess;
pub use schedule::{
    DcKill, DomainShape, FaultSchedule, ImpairmentStorm, MixedSchedule, NodeCrashes, Quiet,
    RackKills,
};
pub use trace::{parse_trace, render_trace};

/// Published MTBF figures quoted in the paper's introduction, handy as
/// ready-made scenario parameters.
pub mod presets {
    use dvdc_simcore::time::Duration;

    /// "published MTBFs of high-end clusters can be as low as 3 hours MTBF,
    /// giving a failure rate (λ) of 9.26e-5 failures/sec" (Section V-B).
    /// This is the Figure 5 operating point.
    pub fn fig5_mtbf() -> Duration {
        Duration::from_hours(3.0)
    }

    /// The λ corresponding to [`fig5_mtbf`], as quoted in the paper.
    pub const FIG5_LAMBDA: f64 = 9.26e-5;

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fig5_lambda_matches_three_hour_mtbf() {
            let lambda = 1.0 / fig5_mtbf().as_secs();
            // The paper rounds to 9.26e-5; 1/10800 = 9.259e-5.
            assert!((lambda - FIG5_LAMBDA).abs() / FIG5_LAMBDA < 1e-3);
        }
    }
}
