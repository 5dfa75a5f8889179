//! # dvdc-faults
//!
//! Failure modelling for the DVDC reproduction.
//!
//! The paper's analytical model (Section V) assumes failures follow a
//! Poisson process — exponentially distributed inter-failure times with
//! rate λ = 1/MTBF. The paper also acknowledges that real hardware follows
//! a "bathtub curve". This crate provides:
//!
//! * [`dist`] — the inter-failure-time distribution, [`Exponential`] (the
//!   model's assumption), drawn through one renewal loop: fail, sit out
//!   the repair span, draw the next gap.
//! * [`injector`] — cluster-level fault plans: per-physical-node faults
//!   with repair times, and the *correlated* VM failures that motivate
//!   the paper's orthogonal RAID-group placement (every VM on a failing
//!   physical node fails with it). Faults carry a [`FaultKind`] — crash,
//!   transient hang, network partition, or silent block corruption (node
//!   up, stored bytes rotten — only checksums notice).
//! * [`schedule`] — composable fault schedules: named plan generators
//!   (quiet, per-node crashes, correlated rack kills, a DC kill,
//!   impairment storms, mixtures) over a [`DomainShape`] of node / rack /
//!   DC counts — the fault-side axis of the workload × fault matrix.
//!   [`NodeCrashes`] is the one crash-plan generator: every seeded run
//!   that crashes nodes independently draws its plan there.
//! * [`detector`] — the in-band failure detector: heartbeat deadlines,
//!   timeout-based suspicion, and `Suspected`/`Confirmed`/`Refuted`
//!   verdicts. Since hangs and partitions are indistinguishable from
//!   crashes at the detector, verdicts can be *wrong* — the consumer
//!   must fence wrongly-failed-over nodes.
//! * [`mttdl`] — RAID-style mean-time-to-data-loss analysis for single
//!   and double parity: the overlapping-repair window that kills an
//!   m = 1 cluster, validated against [`NodeCrashes`] plans.
//! * [`trace`] — trace-driven plans: parse measured failure logs
//!   (`time,node[,repair]` CSV) into the same [`ClusterFaultPlan`] the
//!   synthetic schedules produce.
//! * [`buggify`] — FoundationDB-style seed-deterministic fault points
//!   planted *inside* the protocol's IO callsites (transfer arrivals,
//!   heartbeat sends, scrub reads), plus the greedy repro shrinker the
//!   swarm harness uses. Where a plan faults whole nodes from the
//!   outside, buggify stresses the code between those faults.
//!
//! [`Exponential`]: dist::Exponential

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buggify;
pub mod detector;
pub mod dist;
pub mod injector;
pub mod mttdl;
mod process;
pub mod schedule;
pub mod trace;

pub use buggify::{FaultRegistry, Intensity};
pub use detector::{DetectorConfig, DetectorStats, FailureDetector, Verdict};
pub use dist::Exponential;
pub use injector::{ClusterFaultPlan, FaultKind, NodeFault, PeerSet, PlanCursor};
pub use mttdl::MttdlParams;
pub use schedule::{
    DcKill, DomainShape, FaultSchedule, ImpairmentStorm, MixedSchedule, NodeCrashes, Quiet,
    RackKills,
};
pub use trace::parse_trace;
