//! End-to-end job simulation: a fault-free job of length `T` runs under a
//! checkpoint protocol while physical-node failures strike per a
//! `dvdc-faults` plan.
//!
//! This is the cluster-level counterpart of the paper's Section V model:
//! progress accrues in wall-clock time, every `interval` of progress
//! triggers a coordinated round (whose *overhead* stalls progress), and a
//! failure destroys all progress since the last committed round, costs the
//! protocol's recovery time, and rolls the cluster back. The realised
//! completion times validate — and are validated by — the closed forms in
//! `dvdc-model`.

use dvdc_observe::{Event, RecorderHandle};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::fabric::base_overhead;

use dvdc_faults::injector::ClusterFaultPlan;

use crate::protocol::{apply_fault, DvdcProtocol, ProtocolError, RecoverError};

/// Simulation configuration. A failed node is repaired in place: its
/// state is rebuilt onto it once its hardware comes back.
#[derive(Debug, Clone, Copy)]
pub struct JobRunner {
    /// Fault-free job length.
    pub job_length: Duration,
    /// Progress between coordinated checkpoints — the interval of
    /// Section V.
    pub interval: Duration,
    /// If true, VM guest workloads actually execute between rounds
    /// (byte-level realism, slower); if false only the timing skeleton
    /// runs (for large parameter sweeps).
    pub drive_guests: bool,
    /// If true, the guests wait out each round's transfer and parity (the
    /// first-shot design of Fig. 1/3); if false they resume once their
    /// images are captured and the parity follows in the background
    /// (Section IV-C).
    pub sync_parity: bool,
}

/// Outcome of one simulated job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Realised wall-clock completion time.
    pub wall_time: Duration,
    /// Checkpoint rounds executed.
    pub rounds: u64,
    /// Failures that struck during the run.
    pub failures: u64,
    /// Successful recoveries performed.
    pub recoveries: u64,
    /// Total time spent suspended in checkpoint overhead.
    pub overhead_total: Duration,
    /// Total time spent in repair/recovery.
    pub repair_total: Duration,
    /// Total progress destroyed by rollbacks.
    pub lost_work: Duration,
    /// True if the job hit an unrecoverable failure pattern and had to
    /// restart from scratch (counted inside `wall_time`).
    pub restarted_from_scratch: bool,
    /// Recoveries that failed with honest [`RecoverError::DataLoss`] —
    /// the failure pattern exceeded the configured redundancy, as opposed
    /// to restarts for other unrecoverable conditions.
    pub data_loss_events: u64,
}

impl JobOutcome {
    /// The paper's figure-of-merit: realised time over fault-free time.
    pub fn completion_ratio(&self, job_length: Duration) -> f64 {
        self.wall_time.as_secs() / job_length.as_secs()
    }
}

impl JobRunner {
    /// Creates a fixed-interval, repair-in-place runner with guests
    /// driven (byte-level checks on).
    pub fn new(job_length: Duration, interval: Duration) -> Self {
        JobRunner {
            job_length,
            interval,
            drive_guests: true,
            sync_parity: false,
        }
    }

    /// Makes the guests wait for each round's parity.
    pub fn with_sync_parity(mut self) -> Self {
        self.sync_parity = true;
        self
    }

    /// Runs the job to completion. `plan` supplies failure times in wall
    /// clock; `hub` seeds guest workloads.
    ///
    /// Returns an error only for protocol-level failures that even a
    /// restart cannot clear (e.g. store corruption); unrecoverable erasure
    /// patterns are handled by restarting the job from scratch, mirroring
    /// what an operator would do.
    pub fn run(
        &self,
        protocol: &mut DvdcProtocol,
        cluster: &mut Cluster,
        plan: &ClusterFaultPlan,
        hub: &RngHub,
    ) -> Result<JobOutcome, ProtocolError> {
        self.run_with_recorder(protocol, cluster, plan, hub, &RecorderHandle::noop())
    }

    /// [`JobRunner::run`] with a structured-event recorder: job-level
    /// happenings (fault strikes, forced restarts) are recorded on the
    /// job's wall clock, and the protocol's own clock is kept in sync so
    /// its round/rebuild events land on the same timeline. Hand the
    /// protocol the same sink (`DvdcProtocol::with_recorder`) before the
    /// run.
    pub fn run_with_recorder(
        &self,
        protocol: &mut DvdcProtocol,
        cluster: &mut Cluster,
        plan: &ClusterFaultPlan,
        hub: &RngHub,
        recorder: &RecorderHandle,
    ) -> Result<JobOutcome, ProtocolError> {
        let recording = recorder.enabled();
        let mut wall = SimTime::ZERO;
        let mut progress = Duration::ZERO;
        let mut committed_progress = Duration::ZERO;
        let mut next_fault_idx = 0usize;
        let mut out = JobOutcome {
            wall_time: Duration::ZERO,
            rounds: 0,
            failures: 0,
            recoveries: 0,
            overhead_total: Duration::ZERO,
            repair_total: Duration::ZERO,
            lost_work: Duration::ZERO,
            restarted_from_scratch: false,
            data_loss_events: 0,
        };

        while progress < self.job_length {
            // Next milestone: the next checkpoint decision point (or job
            // end).
            let mut until_decision =
                self.interval - (progress - committed_progress).min(self.interval);
            if until_decision.is_zero() {
                until_decision = self.interval;
            }
            let remaining = self.job_length - progress;
            let run_span = until_decision.min(remaining);
            let milestone = wall + run_span;

            // Does a failure strike first?
            let fault = plan.faults().get(next_fault_idx).copied();
            match fault {
                Some(f) if f.at < milestone => {
                    // Progress up to the failure instant, then lose
                    // everything since the last commit. A fault whose
                    // scheduled time fell inside a repair/overhead window
                    // strikes as soon as the cluster is running again.
                    let strike = f.at.max(wall);
                    let ran = strike - wall;
                    self.drive(cluster, hub, ran, out.rounds, out.failures);
                    progress += ran;
                    wall = strike;
                    next_fault_idx += 1;
                    out.failures += 1;

                    let lost = progress - committed_progress;
                    out.lost_work += lost;
                    progress = committed_progress;

                    // This runner's oracle has no detector to wait out an
                    // impairment, so a node that merely went silent is
                    // failed on the spot; and it has no stores to rot, so
                    // a corruption fault fails nothing.
                    let effect = apply_fault(cluster, &f);
                    let mut victims = effect.down;
                    if let Some(node) = effect.silent {
                        cluster.fail_node(node);
                        victims.push(node);
                    }
                    if victims.is_empty() {
                        // A corruption fault, or a fault on a node that is
                        // already down: nothing new fails.
                        out.failures -= 1;
                        progress += lost; // nothing was actually lost
                        out.lost_work -= lost;
                        continue;
                    }
                    if recording {
                        for &v in &victims {
                            recorder.record(
                                strike,
                                &Event::FaultInjected {
                                    node: v.index(),
                                    kind: f.kind.name(),
                                },
                            );
                            // This runner's failure oracle stands in for
                            // the in-band heartbeat detector, so both
                            // verdicts land at the strike instant (the
                            // phased paths run the real detector and show
                            // the gap).
                            recorder.record(strike, &Event::Suspected { node: v.index() });
                            recorder.record(strike, &Event::Confirmed { node: v.index() });
                        }
                    }
                    protocol.set_clock(strike);
                    let mut repair_time = Duration::ZERO;
                    let mut recovered = 0u64;
                    let mut recovery: Result<(), RecoverError> = Ok(());
                    for &v in &victims {
                        match protocol.recover_typed(cluster, v) {
                            Ok(rep) => {
                                recovered += 1;
                                repair_time += rep.repair_time;
                            }
                            Err(e) => {
                                recovery = Err(e);
                                break;
                            }
                        }
                    }
                    match recovery {
                        Ok(()) => {
                            out.recoveries += recovered;
                            out.repair_total += repair_time;
                            wall += repair_time + f.repair;
                        }
                        Err(e @ RecoverError::DataLoss { .. })
                        | Err(e @ RecoverError::Protocol(ProtocolError::NoCommittedCheckpoint))
                        | Err(e @ RecoverError::Protocol(ProtocolError::Unrecoverable { .. })) => {
                            // Honest loss, recorded as a value — never a
                            // panic. Operator restart: repair hardware,
                            // wipe progress, start over.
                            if matches!(e, RecoverError::DataLoss { .. }) {
                                out.data_loss_events += 1;
                            }
                            if recording {
                                recorder.record(wall, &Event::JobRestarted { node: f.node });
                            }
                            out.restarted_from_scratch = true;
                            for n in cluster.node_ids() {
                                cluster.repair_node(n);
                            }
                            out.lost_work += committed_progress;
                            progress = Duration::ZERO;
                            committed_progress = Duration::ZERO;
                            wall += f.repair;
                        }
                        Err(RecoverError::Protocol(other)) => return Err(other),
                    }
                }
                _ => {
                    // Run to the milestone.
                    self.drive(cluster, hub, run_span, out.rounds, out.failures);
                    progress += run_span;
                    wall = milestone;
                    if progress < self.job_length {
                        // Coordinated checkpoint round.
                        protocol.set_clock(wall);
                        let report = protocol.run_round(cluster)?;
                        let (pause, latency) = report.load.price(cluster.fabric(), base_overhead());
                        let overhead = if self.sync_parity { latency } else { pause };
                        out.rounds += 1;
                        out.overhead_total += overhead;
                        wall += overhead;
                        committed_progress = progress;
                    }
                }
            }
        }

        out.wall_time = wall.since(SimTime::ZERO);
        Ok(out)
    }

    fn drive(
        &self,
        cluster: &mut Cluster,
        hub: &RngHub,
        span: Duration,
        round: u64,
        failures: u64,
    ) {
        if !self.drive_guests || span.is_zero() {
            return;
        }
        // One deterministic stream per (vm, round, failures) context so
        // reruns are bit-identical regardless of failure interleaving.
        cluster.run_all(span, |vm| {
            hub.subhub("drive", round * 1_000_003 + failures)
                .stream_indexed("vm", vm.index() as u64)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::GroupPlacement;
    use dvdc_faults::injector::NodeFault;
    use dvdc_vcluster::cluster::ClusterBuilder;
    use dvdc_vcluster::ids::NodeId;

    fn cluster() -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(20.0)
            .build(0)
    }

    fn dvdc(c: &Cluster) -> DvdcProtocol {
        DvdcProtocol::new(GroupPlacement::orthogonal(c, 3, 1).unwrap())
    }

    #[test]
    fn fault_free_run_pays_only_overhead() {
        let mut c = cluster();
        let mut p = dvdc(&c);
        let runner = JobRunner::new(Duration::from_secs(100.0), Duration::from_secs(10.0));
        let out = runner
            .run(
                &mut p,
                &mut c,
                &ClusterFaultPlan::default(),
                &RngHub::new(1),
            )
            .unwrap();
        assert_eq!(out.failures, 0);
        assert_eq!(out.rounds, 9); // checkpoints at 10..90, none at 100
        assert_eq!(out.lost_work, Duration::ZERO);
        assert!(out.wall_time >= Duration::from_secs(100.0));
        assert!(
            (out.wall_time.as_secs() - 100.0 - out.overhead_total.as_secs()).abs() < 1e-9,
            "wall={} overhead={}",
            out.wall_time,
            out.overhead_total
        );
    }

    #[test]
    fn single_failure_costs_lost_work_and_repair() {
        let mut c = cluster();
        let mut p = dvdc(&c);
        let runner = JobRunner::new(Duration::from_secs(100.0), Duration::from_secs(10.0));
        // Node 2 dies at t=25 (wall). By then 2 rounds committed
        // (~progress 20), so ~5s of work is lost.
        let plan = ClusterFaultPlan::new(vec![NodeFault::crash(
            2,
            SimTime::from_secs(25.0),
            Duration::from_secs(3.0),
        )]);
        let out = runner.run(&mut p, &mut c, &plan, &RngHub::new(2)).unwrap();
        assert_eq!(out.failures, 1);
        assert_eq!(out.recoveries, 1);
        assert!(!out.restarted_from_scratch);
        assert!(out.lost_work.as_secs() > 0.0 && out.lost_work.as_secs() <= 10.0);
        assert!(out.wall_time.as_secs() > 103.0); // 100 + repair 3 + extras
        assert!(out.repair_total.as_secs() > 0.0);
    }

    #[test]
    fn corruption_fault_fails_nothing_in_the_oracle_runner() {
        // The runner has no stores to rot: a corruption fault leaves its
        // node up, is not counted as a failure and costs no work.
        let mut c = cluster();
        let mut p = dvdc(&c);
        let runner = JobRunner::new(Duration::from_secs(100.0), Duration::from_secs(10.0));
        let plan = ClusterFaultPlan::new(vec![NodeFault::corruption(
            2,
            SimTime::from_secs(25.0),
            3,
            0xC0FFEE,
        )]);
        let out = runner.run(&mut p, &mut c, &plan, &RngHub::new(2)).unwrap();
        assert_eq!(out.failures, 0);
        assert_eq!(out.recoveries, 0);
        assert_eq!(out.lost_work, Duration::ZERO);
        assert_eq!(out.rounds, 9);
        assert!(c.is_up(NodeId(2)));
    }

    #[test]
    fn failure_before_first_checkpoint_restarts_from_scratch() {
        let mut c = cluster();
        let mut p = dvdc(&c);
        let runner = JobRunner::new(Duration::from_secs(50.0), Duration::from_secs(20.0));
        let plan = ClusterFaultPlan::new(vec![NodeFault::crash(
            0,
            SimTime::from_secs(5.0),
            Duration::from_secs(1.0),
        )]);
        let out = runner.run(&mut p, &mut c, &plan, &RngHub::new(3)).unwrap();
        assert!(out.restarted_from_scratch);
        assert_eq!(out.failures, 1);
        assert!(out.wall_time.as_secs() > 50.0);
    }

    #[test]
    fn outcome_ratio_helper() {
        let out = JobOutcome {
            wall_time: Duration::from_secs(120.0),
            rounds: 0,
            failures: 0,
            recoveries: 0,
            overhead_total: Duration::ZERO,
            repair_total: Duration::ZERO,
            lost_work: Duration::ZERO,
            restarted_from_scratch: false,
            data_loss_events: 0,
        };
        assert!((out.completion_ratio(Duration::from_secs(100.0)) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn runs_are_reproducible() {
        let run_once = || {
            let mut c = cluster();
            let mut p = dvdc(&c);
            let runner = JobRunner::new(Duration::from_secs(40.0), Duration::from_secs(5.0));
            let plan = ClusterFaultPlan::new(vec![NodeFault::crash(
                1,
                SimTime::from_secs(13.0),
                Duration::from_secs(1.0),
            )]);
            let out = runner.run(&mut p, &mut c, &plan, &RngHub::new(11)).unwrap();
            (out, c.vm(dvdc_vcluster::ids::VmId(5)).memory().snapshot())
        };
        let (a, mem_a) = run_once();
        let (b, mem_b) = run_once();
        assert_eq!(a, b);
        assert_eq!(mem_a, mem_b);
    }

    #[test]
    fn background_and_synchronous_outcomes_are_pinned() {
        // Guests run, so rounds after the first ship dirty pages only;
        // traced failures strike node 1 and node 3 (first-shot's parity
        // node). `dvdc` pauses the guests for base + capture, `first-shot`
        // for the whole round.
        use dvdc_faults::trace::parse_trace;
        let plan = parse_trace("23.5,1\n61.25,3,2.5\n", Duration::from_secs(4.0)).unwrap();
        let runner = JobRunner::new(Duration::from_secs(100.0), Duration::from_secs(10.0));
        let run = |spare: usize| {
            let mut c = ClusterBuilder::new()
                .physical_nodes(4)
                .spare_nodes(spare)
                .vms_per_node(3)
                .vm_memory(64, 4096)
                .writes_per_sec(200.0)
                .build(5);
            let (mut p, runner) = if spare == 0 {
                (dvdc(&c), runner)
            } else {
                let placement = GroupPlacement::dedicated(&c, NodeId(3)).unwrap();
                (DvdcProtocol::new(placement), runner.with_sync_parity())
            };
            let out = runner.run(&mut p, &mut c, &plan, &RngHub::new(9)).unwrap();
            (
                out.wall_time.as_secs(),
                out.overhead_total.as_secs(),
                out.rounds,
            )
        };
        assert_eq!(run(0), (113.93751413759999, 0.36087296, 9));
        assert_eq!(run(1), (114.00683817600002, 0.5322615872, 9));
    }
}
