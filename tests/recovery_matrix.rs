//! Exhaustive recovery drills across cluster shapes and failure
//! points — the fault-tolerance contract of the paper, tested
//! byte-for-byte.

use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::harness::Harness;
use dvdc::protocol::{
    run_round_with_faults, ClusterSpec, DvdcProtocol, Msg, Note, PhasedOutcome, ProtocolError,
    RebuildMode, RebuildPhase, RebuildStep, RecoverError, RoundPhase, RoundStep, CTL, PART_LEN,
};
use dvdc_faults::detector::Verdict;
use dvdc_faults::{ClusterFaultPlan, DetectorConfig, NodeFault, PlanCursor};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::{Event, Fanout, RecorderHandle, TraceRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::topology::RackId;

/// Attaches the invariant auditor to a protocol; the returned guard
/// asserts a violation-free event stream when the drill's scope ends
/// (skipped if the drill is already panicking, to keep the original
/// assertion message on top).
fn audited(p: DvdcProtocol) -> (DvdcProtocol, AuditGuard) {
    let audit = Rc::new(InvariantAuditor::new());
    let p = p.with_recorder(RecorderHandle::new(audit.clone()));
    (p, AuditGuard(audit))
}

struct AuditGuard(Rc<InvariantAuditor>);

impl Drop for AuditGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.0.assert_clean();
            assert!(self.0.events_seen() > 0, "auditor saw no events");
        }
    }
}

fn build(nodes: usize, vms: usize) -> Cluster {
    ClusterBuilder::new()
        .physical_nodes(nodes)
        .vms_per_node(vms)
        .vm_memory(8, 32)
        .writes_per_sec(200.0)
        .build(nodes as u64 * 31 + vms as u64)
}

fn snapshots(c: &Cluster) -> Vec<Vec<u8>> {
    c.vm_ids()
        .iter()
        .map(|&v| c.vm(v).memory().snapshot())
        .collect()
}

fn assert_state(c: &Cluster, want: &[Vec<u8>], ctx: &str) {
    for (i, vm) in c.vm_ids().into_iter().enumerate() {
        assert_eq!(c.vm(vm).memory().snapshot(), want[i], "{ctx}: vm{i}");
    }
}

#[test]
fn dvdc_matrix_shapes_victims() {
    for (nodes, vms, k) in [(4usize, 3usize, 3usize), (5, 4, 4), (6, 2, 3), (8, 2, 4)] {
        for victim in 0..nodes {
            let mut c = build(nodes, vms);
            let placement = GroupPlacement::orthogonal(&c, k, 1)
                .unwrap_or_else(|e| panic!("{nodes}x{vms} k={k}: {e}"));
            let (mut p, _audit) = audited(DvdcProtocol::new(placement));
            // Two rounds with guest activity in between, so the second
            // ships an increment.
            let hub = RngHub::new(victim as u64);
            p.run_round(&mut c).unwrap();
            c.run_all(Duration::from_secs(0.5), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);

            // More progress past the commit, then the crash.
            c.run_all(Duration::from_secs(0.5), |vm| {
                hub.stream_indexed("w2", vm.index() as u64)
            });
            c.fail_node(NodeId(victim));
            p.recover(&mut c, NodeId(victim))
                .unwrap_or_else(|e| panic!("{nodes}x{vms} k={k} victim={victim}: {e}"));
            assert_state(&c, &want, &format!("{nodes}x{vms} k={k} victim={victim}"));
        }
    }
}

#[test]
fn dvdc_failure_mid_progress_rolls_back_cleanly() {
    // Failure strikes when the current round's captures never happened —
    // the committed epoch is the recovery point, and dirty progress on
    // survivors is discarded too (global consistency).
    let mut c = build(4, 3);
    let (mut p, _audit) = audited(DvdcProtocol::new(
        GroupPlacement::orthogonal(&c, 3, 1).unwrap(),
    ));
    p.run_round(&mut c).unwrap();
    let want = snapshots(&c);
    let hub = RngHub::new(3);
    c.run_all(Duration::from_secs(2.0), |vm| {
        hub.stream_indexed("w", vm.index() as u64)
    });
    c.fail_node(NodeId(1));
    p.recover(&mut c, NodeId(1)).unwrap();
    assert_state(&c, &want, "mid-progress rollback");
}

#[test]
fn dvdc_incremental_rounds_then_failure_then_more_rounds() {
    // The incremental transport in steady state: several delta-parity
    // rounds, a crash, byte-exact recovery, and then the protocol must
    // keep working (first post-recovery round falls back to a full
    // re-encode, later rounds go incremental again).
    for m in [1usize, 2] {
        let mut c = build(6, 2);
        let placement = GroupPlacement::orthogonal(&c, 3, m).unwrap();
        let (mut p, _audit) = audited(DvdcProtocol::new(placement));
        let hub = RngHub::new(7 + m as u64);
        p.run_round(&mut c).unwrap();
        for round in 0..4u64 {
            c.run_all(Duration::from_secs(0.3), |vm| {
                hub.subhub("r", round)
                    .stream_indexed("vm", vm.index() as u64)
            });
            let r = p.run_round(&mut c).unwrap();
            // Steady state charges parity work by dirty bytes: every
            // payload byte lands in the m parity blocks of its group.
            assert_eq!(
                r.parity_update_bytes,
                r.payload_bytes * m,
                "m={m} round={round}"
            );
        }
        let want = snapshots(&c);

        // Crash mid-interval: progress since the commit is discarded.
        c.run_all(Duration::from_secs(0.4), |vm| {
            hub.stream_indexed("lost", vm.index() as u64)
        });
        c.fail_node(NodeId(2));
        p.recover(&mut c, NodeId(2)).unwrap();
        assert_state(&c, &want, &format!("m={m} post-recovery"));

        // Recovery invalidated the delta base: full re-encode once…
        let r = p.run_round(&mut c).unwrap();
        assert_eq!(
            r.parity_update_bytes, r.redundancy_bytes,
            "m={m} re-encode round"
        );
        // …then the incremental transport resumes, and a second failure
        // still recovers byte-exactly.
        c.run_all(Duration::from_secs(0.3), |vm| {
            hub.stream_indexed("again", vm.index() as u64)
        });
        let r2 = p.run_round(&mut c).unwrap();
        assert_eq!(
            r2.parity_update_bytes,
            r2.payload_bytes * m,
            "m={m} resumed"
        );
        let want2 = snapshots(&c);
        c.fail_node(NodeId(4));
        p.recover(&mut c, NodeId(4)).unwrap();
        assert_state(&c, &want2, &format!("m={m} second recovery"));
    }
}

#[test]
fn default_double_parity_survives_all_node_pairs() {
    // m = 2 is Reed–Solomon by default; every node pair must be
    // recoverable.
    let nodes = 6;
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            let mut c = build(nodes, 2);
            let placement = GroupPlacement::orthogonal(&c, 3, 2).unwrap();
            let (mut p, _audit) = audited(DvdcProtocol::new(placement));
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);
            c.fail_node(NodeId(a));
            c.fail_node(NodeId(b));
            p.recover(&mut c, NodeId(a))
                .unwrap_or_else(|e| panic!("pair ({a},{b}) first: {e}"));
            p.recover(&mut c, NodeId(b))
                .unwrap_or_else(|e| panic!("pair ({a},{b}) second: {e}"));
            assert_state(&c, &want, &format!("pair ({a},{b})"));
        }
    }
}

/// The code families the mid-round matrix sweeps: label, k, m, and a
/// cluster shape (nodes, VMs per node) whose placement supports them.
/// The code is the protocol's Reed–Solomon at each m (XOR at m = 1), with
/// m = 2 at two group widths.
const MID_ROUND_FAMILIES: [(&str, usize, usize, usize, usize); 3] =
    [("xor", 3, 1, 6, 2), ("rs", 4, 2, 8, 2), ("rs", 3, 2, 6, 2)];

/// Mid-round failure matrix: (phase × code family × victim role). A node
/// dies after the round reached each phase — captures staged, transfers
/// in flight, parity partially folded, commit acks collecting — and
/// recovery must restore the last *committed* epoch byte-exactly, never
/// a torn mix. The victim is either a data-holder of group 0 or its
/// first parity holder.
#[test]
fn dvdc_mid_round_matrix_phase_family_victim() {
    let phases = [
        RoundPhase::Capture,
        RoundPhase::Transfer,
        RoundPhase::Fold,
        RoundPhase::Commit,
    ];
    for (family, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for phase in phases {
            for parity_victim in [false, true] {
                let mut c = build(nodes, vms);
                let placement = GroupPlacement::orthogonal(&c, k, m)
                    .unwrap_or_else(|e| panic!("{family}: {e}"));
                let group0 = placement.groups()[0].clone();
                let victim = if parity_victim {
                    group0.parity_nodes[0]
                } else {
                    c.node_of(group0.data[0])
                };
                let (mut p, _audit) = audited(DvdcProtocol::new(placement));
                let ctx = format!(
                    "family={family} phase={phase:?} victim={victim} parity_victim={parity_victim}"
                );
                let hub = RngHub::new(97 * k as u64 + m as u64);

                // Two committed rounds so the interrupted one runs the
                // steady-state incremental transport, not the first-round
                // full encode.
                p.run_round(&mut c).unwrap();
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w1", vm.index() as u64)
                });
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);

                // Uncommitted guest progress the rollback must discard.
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w2", vm.index() as u64)
                });

                let mut round = p.begin_round(&c).unwrap();
                while round.phase() < phase {
                    match p
                        .step_round(&mut c, &mut round)
                        .unwrap_or_else(|e| panic!("{ctx}: step failed: {e}"))
                    {
                        RoundStep::Progress { .. } => {}
                        RoundStep::Committed(_) => {
                            panic!("{ctx}: round committed before reaching {phase:?}")
                        }
                    }
                }
                assert_eq!(round.phase(), phase, "{ctx}");

                c.fail_node(victim);
                assert!(
                    p.round_involves(&c, &round, victim),
                    "{ctx}: chosen victim must hold round state"
                );
                p.abort_round(round);
                let report = p
                    .recover(&mut c, victim)
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                assert_eq!(report.rolled_back_to, Some(1), "{ctx}");
                assert_state(&c, &want, &ctx);

                // The epoch number of the aborted round is reused and the
                // cluster keeps protecting state: commit one more round
                // and survive one more failure.
                c.run_all(Duration::from_secs(0.3), |vm| {
                    hub.stream_indexed("w3", vm.index() as u64)
                });
                let r = p.run_round(&mut c).unwrap();
                assert_eq!(r.epoch, 2, "{ctx}: aborted epoch must be reused");
                let want2 = snapshots(&c);
                c.fail_node(victim);
                p.recover(&mut c, victim)
                    .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
                assert_state(&c, &want2, &format!("{ctx} second recovery"));
            }
        }
    }
}

/// Failure in the instant *after* the promote: the new epoch is
/// committed, so recovery restores it — not the previous one.
#[test]
fn dvdc_failure_right_after_commit_recovers_new_epoch() {
    for (family, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for parity_victim in [false, true] {
            let mut c = build(nodes, vms);
            let placement = GroupPlacement::orthogonal(&c, k, m).unwrap();
            let group0 = placement.groups()[0].clone();
            let victim = if parity_victim {
                group0.parity_nodes[0]
            } else {
                c.node_of(group0.data[0])
            };
            let (mut p, _audit) = audited(DvdcProtocol::new(placement));
            let ctx = format!("family={family} victim={victim} parity_victim={parity_victim}");
            let hub = RngHub::new(5 + m as u64);

            p.run_round(&mut c).unwrap();
            c.run_all(Duration::from_secs(0.4), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });
            let mut round = p.begin_round(&c).unwrap();
            loop {
                match p.step_round(&mut c, &mut round).unwrap() {
                    RoundStep::Progress { .. } => {}
                    RoundStep::Committed(report) => {
                        assert_eq!(report.epoch, 1, "{ctx}");
                        break;
                    }
                }
            }
            let want = snapshots(&c);

            c.fail_node(victim);
            let report = p
                .recover(&mut c, victim)
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(
                report.rolled_back_to,
                Some(1),
                "{ctx}: promote preceded the failure"
            );
            assert_state(&c, &want, &ctx);
        }
    }
}

/// Second-failure-during-rebuild matrix: (rebuild phase × code family ×
/// second-victim role). The first victim's phased rebuild is interrupted
/// at each pipeline phase by a second crash striking a data-holder or a
/// parity-holder of the same group. The pipeline mutates nothing before
/// its readmit step, so the canonical response — cancel the rebuild and
/// restart it against the enlarged down set — must recover byte-exactly
/// whenever redundancy remains (m = 2), and must surface honest
/// [`RecoverError::DataLoss`] as a value (never a panic) when it does
/// not (m = 1).
#[test]
fn dvdc_second_failure_during_rebuild_matrix() {
    let phases = [
        RebuildPhase::FetchSurvivors,
        RebuildPhase::Decode,
        RebuildPhase::Place,
        RebuildPhase::Readmit,
    ];
    for (family, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for phase in phases {
            for second_parity in [false, true] {
                let mut c = build(nodes, vms);
                let placement = GroupPlacement::orthogonal(&c, k, m)
                    .unwrap_or_else(|e| panic!("{family}: {e}"));
                let group0 = placement.groups()[0].clone();
                let first = c.node_of(group0.data[0]);
                let second = if second_parity {
                    group0.parity_nodes[0]
                } else {
                    c.node_of(group0.data[1])
                };
                assert_ne!(first, second, "{family}: victims must differ");
                let (mut p, _audit) = audited(DvdcProtocol::new(placement));
                let ctx = format!(
                    "family={family} phase={phase:?} second={second} parity={second_parity}"
                );
                let hub = RngHub::new(131 * k as u64 + m as u64);

                p.run_round(&mut c).unwrap();
                c.run_all(Duration::from_secs(0.4), |vm| {
                    hub.stream_indexed("w1", vm.index() as u64)
                });
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);

                c.fail_node(first);
                let mut rebuild = p.begin_rebuild(&c, first, RebuildMode::InPlace).unwrap();
                while rebuild.phase() < phase {
                    match p.step_rebuild(&mut c, &mut rebuild) {
                        Ok(RebuildStep::Progress { .. }) => {}
                        Ok(RebuildStep::Completed(_)) => {
                            panic!("{ctx}: rebuild completed before reaching {phase:?}")
                        }
                        Err(e) => panic!("{ctx}: step failed early: {e}"),
                    }
                }
                assert_eq!(rebuild.phase(), phase, "{ctx}");

                // The cascading failure: a second node of the same group
                // dies with the rebuild mid-flight. Nothing has been
                // mutated, so cancelling is a pure drop.
                c.fail_node(second);
                p.abort_rebuild(rebuild);

                // Restart against the enlarged down set.
                let restarted = p.begin_rebuild(&c, first, RebuildMode::InPlace);
                if m >= 2 {
                    let mut rebuild = restarted.unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
                    let report = loop {
                        match p.step_rebuild(&mut c, &mut rebuild) {
                            Ok(RebuildStep::Progress { .. }) => {}
                            Ok(RebuildStep::Completed(r)) => break r,
                            Err(e) => panic!("{ctx}: m=2 restart must recover: {e}"),
                        }
                    };
                    assert!(
                        report.repair_time > Duration::ZERO,
                        "{ctx}: rebuild time must elapse on the simulated clock"
                    );
                    p.recover(&mut c, second)
                        .unwrap_or_else(|e| panic!("{ctx}: second victim: {e}"));
                    assert_state(&c, &want, &ctx);
                } else {
                    // m = 1: two failures in one group exceed tolerance.
                    // Honest data loss as a value — never a panic.
                    let outcome = (|| -> Result<(), RecoverError> {
                        let mut rebuild = restarted?;
                        loop {
                            match p.step_rebuild(&mut c, &mut rebuild) {
                                Ok(RebuildStep::Progress { .. }) => {}
                                Ok(RebuildStep::Completed(_)) => return Ok(()),
                                Err(e) => {
                                    // Dispose of the carcass so the event
                                    // stream terminates the rebuild span.
                                    p.abort_rebuild(rebuild);
                                    return Err(e);
                                }
                            }
                        }
                    })();
                    match outcome {
                        Err(RecoverError::DataLoss { node, .. }) => {
                            assert_eq!(node, first, "{ctx}: loss names the rebuild victim");
                        }
                        other => panic!("{ctx}: expected DataLoss, got {other:?}"),
                    }
                }
            }
        }
    }
}

/// Silent-corruption scrub matrix across the code families: rot committed
/// blocks on a data-holder and on a parity-holder, and the scrub pass
/// must find every one (checksums), repair them all from group
/// redundancy, and leave the cluster byte-exactly restorable.
#[test]
fn dvdc_scrub_detects_and_repairs_all_injected_corruption() {
    for (family, k, m, nodes, vms) in MID_ROUND_FAMILIES {
        for parity_victim in [false, true] {
            let mut c = build(nodes, vms);
            let placement =
                GroupPlacement::orthogonal(&c, k, m).unwrap_or_else(|e| panic!("{family}: {e}"));
            let group0 = placement.groups()[0].clone();
            let target = if parity_victim {
                group0.parity_nodes[0]
            } else {
                c.node_of(group0.data[0])
            };
            let (mut p, _audit) = audited(DvdcProtocol::new(placement));
            let ctx = format!("family={family} target={target} parity_victim={parity_victim}");
            let hub = RngHub::new(17 * k as u64 + m as u64);

            p.run_round(&mut c).unwrap();
            c.run_all(Duration::from_secs(0.4), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });
            p.run_round(&mut c).unwrap();
            let want = snapshots(&c);

            // Silently rot stored blocks on the target node; the cluster
            // notices nothing until checksums are checked.
            let hit = p.apply_corruption(&c, target, 3, 0xDEAD_BEEF ^ k as u64);
            assert!(hit > 0, "{ctx}: corruption must land");

            let scrub = p.scrub(&mut c).unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert!(
                scrub.corrupt_found > 0,
                "{ctx}: scrub must detect the injected rot"
            );
            assert_eq!(
                scrub.corrupt_found, scrub.repaired,
                "{ctx}: every rotten block must be repaired from parity"
            );

            // A second scrub finds a clean store…
            let again = p.scrub(&mut c).unwrap();
            assert_eq!(again.corrupt_found, 0, "{ctx}: scrub must converge");
            // …and recovery after the repair is still byte-exact.
            c.fail_node(target);
            p.recover(&mut c, target)
                .unwrap_or_else(|e| panic!("{ctx}: post-scrub recovery: {e}"));
            assert_state(&c, &want, &ctx);
        }
    }
}

#[test]
fn first_shot_matrix() {
    // Fig. 1 (one slot) and Fig. 3 (several) shapes: the last node is
    // the VM-less checkpoint node and holds every group's parity.
    for (nodes, vms) in [(3usize, 1usize), (5, 1), (4, 3), (5, 2)] {
        let parity = NodeId(nodes - 1);
        for victim in 0..nodes {
            for failover_first in [false, true] {
                let ctx = format!("{nodes}x{vms} victim={victim} failover_first={failover_first}");
                let mut c = ClusterBuilder::new()
                    .physical_nodes(nodes)
                    .spare_nodes(1)
                    .vms_per_node(vms)
                    .vm_memory(8, 32)
                    .writes_per_sec(200.0)
                    .build(nodes as u64 * 31 + vms as u64);
                let (mut p, _audit) = audited(DvdcProtocol::new(
                    GroupPlacement::dedicated(&c, parity).unwrap(),
                ));
                p.run_round(&mut c).unwrap();
                let want = snapshots(&c);
                let hosted = c.vms_on(NodeId(victim)).to_vec();
                c.fail_node(NodeId(victim));
                if failover_first {
                    // Every survivor already holds a member (or the
                    // parity) of every slot group: no legal re-home, so
                    // failover refuses and moves nothing…
                    assert!(
                        matches!(
                            p.recover_failover(&mut c, NodeId(victim)),
                            Err(ProtocolError::Unrecoverable { .. })
                        ),
                        "{ctx}"
                    );
                    assert_eq!(c.vms_on(NodeId(victim)), hosted, "{ctx}");
                    assert_eq!(p.placement().parity_load(nodes)[nodes - 1], vms, "{ctx}");
                }
                // …and repair in place restores everything.
                let rep = p
                    .recover(&mut c, NodeId(victim))
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                assert_eq!(rep.recovered_vms, hosted, "{ctx}");
                let rebuilt = if NodeId(victim) == parity { vms } else { 0 };
                assert_eq!(rep.parity_rebuilt.len(), rebuilt, "{ctx}");
                assert_state(&c, &want, &ctx);
            }
        }
    }
}

#[test]
fn recovery_after_migration_keeps_working_when_orthogonal() {
    // Migrate a VM to a node that keeps its group orthogonal, re-run a
    // round, then fail its *new* host: the checkpoint now lives there.
    let mut c = build(6, 2);
    let placement = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
    let vm = placement.groups()[0].data[0];
    let group = placement.group_of(vm).clone();
    let forbidden: Vec<NodeId> = group
        .data
        .iter()
        .map(|&m| c.node_of(m))
        .chain(group.parity_nodes.iter().copied())
        .collect();
    let dest = c
        .node_ids()
        .into_iter()
        .find(|n| !forbidden.contains(n))
        .expect("destination");
    c.migrate_vm(vm, dest);
    placement.validate(&c).expect("still orthogonal");

    let (mut p, _audit) = audited(DvdcProtocol::new(placement));
    p.run_round(&mut c).unwrap();
    let want = snapshots(&c);
    c.fail_node(dest);
    p.recover(&mut c, dest).unwrap();
    assert_state(&c, &want, "post-migration recovery");
}

#[test]
fn non_orthogonal_migration_is_detected_before_it_bites() {
    // Migrating a VM onto a group peer's node breaks the guarantee; the
    // placement validator is the guard rail that must catch it.
    let mut c = build(4, 3);
    let placement = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
    let group = placement.groups()[0].clone();
    let (a, b) = (group.data[0], group.data[1]);
    c.migrate_vm(a, c.node_of(b));
    assert!(placement.validate(&c).is_err());
}

/// Rack-victim axis: a whole-rack kill mid-round on a rack-aware
/// placement. Every node of the rack must draw its **own** `Confirmed`
/// verdict within the detector's worst-case window of the injection (the
/// first confirmation aborts the round, but the detector still owes the
/// other victims their verdicts), recovery must restore the committed
/// epoch byte-exactly for every rack choice, and fence epochs must never
/// move backwards across the batch.
#[test]
fn rack_kill_matrix_confirms_every_rack_node_and_recovers() {
    let racks = 4usize;
    let nodes_per_rack = 2usize;
    for rack in 0..racks {
        let ctx = format!("rack={rack}");
        let mut c = ClusterBuilder::new()
            .physical_nodes(racks * nodes_per_rack)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .racks(nodes_per_rack)
            .build(31 + rack as u64);
        let placement = GroupPlacement::orthogonal(&c, 3, 1).unwrap();
        assert!(placement.is_rack_orthogonal(&c), "{ctx}");
        let audit = Rc::new(InvariantAuditor::new());
        let trace = Rc::new(TraceRecorder::unbounded());
        let mut p = DvdcProtocol::new(placement).with_recorder(RecorderHandle::new(Rc::new(
            Fanout::new(vec![
                RecorderHandle::new(trace.clone()),
                RecorderHandle::new(audit.clone()),
            ]),
        )));
        p.run_round(&mut c).unwrap();
        let want = snapshots(&c);
        let epochs_before: Vec<u64> = c
            .node_ids()
            .iter()
            .map(|&n| p.fences().epoch_of(n))
            .collect();

        let inject_at = SimTime::from_secs(1e-7);
        let plan = ClusterFaultPlan::new(vec![NodeFault::rack_failure(
            rack,
            inject_at,
            Duration::ZERO,
        )]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        let victims = c.topology().nodes_in_rack(RackId(rack));
        assert_eq!(victims.len(), nodes_per_rack, "{ctx}");
        match outcome {
            PhasedOutcome::RolledBack {
                victim,
                recoveries,
                data_loss,
                detection,
                ..
            } => {
                assert!(victims.contains(&victim), "{ctx}: victim {victim}");
                assert_eq!(
                    detection.confirmations,
                    victims.len() as u64,
                    "{ctx}: every rack node draws its own verdict"
                );
                assert!(data_loss.is_empty(), "{ctx}: rack-aware m=1 survives");
                assert_eq!(recoveries.len(), victims.len(), "{ctx}");
            }
            other => panic!("{ctx}: expected rollback, got {other:?}"),
        }

        // Each victim's Confirmed event lands inside the worst-case
        // detection window of the (shared) injection instant, with a
        // small slack for heartbeat phase.
        let window = DetectorConfig::default().worst_case_detection() + Duration::from_millis(5.0);
        for v in &victims {
            let confirmed_at = trace
                .events()
                .iter()
                .find_map(|e| match e.event {
                    Event::Confirmed { node } if node == v.index() => Some(e.at),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{ctx}: node {v} never confirmed"));
            assert!(
                confirmed_at <= inject_at + window,
                "{ctx}: node {v} confirmed at {confirmed_at}, window closes at {}",
                inject_at + window
            );
        }

        assert_state(&c, &want, &format!("{ctx} post-rack-kill"));
        assert!(c.node_ids().iter().all(|&n| c.is_up(n)), "{ctx}");
        // Fence epochs are monotone across the whole batch: recovery may
        // rotate them forward, never backwards.
        for (i, n) in c.node_ids().into_iter().enumerate() {
            assert!(
                p.fences().epoch_of(n) >= epochs_before[i],
                "{ctx}: node {n} fence epoch went backwards"
            );
        }
        audit.assert_clean();
    }
}

/// How a member is struck in the `NodeCore` matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Strike {
    /// The process dies and its host says so: link evidence.
    Crash,
    /// The host goes dark: survivors have only their timers.
    Kill,
    /// Frozen for longer than detection takes: failed over, fenced on
    /// waking, resynced.
    LongHang,
    /// Frozen for less than the timeout: no verdict survives.
    ShortHang,
}

/// When, relative to checkpoint round 3, the strike lands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Instant {
    Idle,
    InCaptureWindow,
    CapturesShipped,
    JustCommitted,
}

fn noted(h: &Harness, pred: impl Fn(usize, &Note) -> bool) -> Vec<SimTime> {
    let hit = |(at, n, note): &(SimTime, NodeId, Note)| pred(n.index(), note).then_some(*at);
    h.notes().iter().filter_map(hit).collect()
}

/// The lowest live member: who coordinates once the dust has settled.
fn coordinator(h: &Harness) -> usize {
    h.live().next().expect("somebody is live").id().index()
}

/// What every member commits at epochs 2 and 3 when nothing strikes, as
/// `[epoch - 2][node]` digests: images and parity are a function of the
/// spec alone, so a rebuilt block has an oracle that shares no code with
/// the rebuild.
fn healthy_digests(spec: &ClusterSpec) -> [Vec<u64>; 2] {
    let (k, m) = (spec.data_nodes, spec.parity_nodes);
    let mut h = Harness::new(spec.clone());
    h.run_until(500.0, "full mesh", |h| h.fully_meshed());
    assert_eq!(h.checkpoint(0, 1000.0), Ok(1));
    [2, 3].map(|epoch| {
        assert_eq!(h.checkpoint(0, 1000.0), Ok(epoch));
        let digest = |i| h.node(i).committed().expect("committed").1.digest();
        (0..k + m).map(digest).collect()
    })
}

/// One cell of the matrix: the whole arc from the strike to a
/// full-strength round on all `k + m`, on the harness, audited.
fn node_core_case(
    spec: &ClusterSpec,
    healthy: &[Vec<u64>; 2],
    victim: usize,
    strike: Strike,
    instant: Instant,
) {
    let (k, m) = (spec.data_nodes, spec.parity_nodes);
    let ctx = format!("{k}+{m} victim={victim} {strike:?} {instant:?}");
    let detector = spec.detector;
    let mut h = Harness::new(spec.clone());
    h.run_until(500.0, "full mesh", |h| h.fully_meshed());
    for want in 1..=2 {
        assert_eq!(h.checkpoint(0, 1000.0), Ok(want), "{ctx}");
    }

    if instant != Instant::Idle {
        h.deliver(CTL, 0, Msg::CheckpointReq);
    }
    match instant {
        Instant::Idle => {}
        Instant::InCaptureWindow => h.run_for(Duration::from_millis(5.0)),
        Instant::CapturesShipped => h.run_until(100.0, "every capture of round 3", |h| {
            noted(h, |_, n| matches!(n, Note::CaptureShipped { epoch: 3, .. })).len() == k
        }),
        Instant::JustCommitted => assert_eq!(h.checkpoint_outcome(100.0), Ok(3), "{ctx}"),
    }
    let round_open = !matches!(instant, Instant::Idle | Instant::JustCommitted);
    let pre_epoch = h.node(victim).status().committed_epoch;
    assert_eq!(
        pre_epoch,
        if instant == Instant::JustCommitted {
            3
        } else {
            2
        },
        "{ctx}"
    );

    let struck_at = h.now();
    match strike {
        Strike::Crash => h.crash(victim),
        Strike::Kill => h.kill(victim),
        Strike::LongHang => h.hang(victim, detector.worst_case_detection() * 2.0),
        Strike::ShortHang => h.hang(victim, detector.timeout * 0.8),
    }
    let confirmed = |h: &Harness| {
        noted(h, |_, n| {
            matches!(n, Note::PeerVerdict { node, verdict: Verdict::Confirmed, .. }
                if *node == NodeId(victim))
        })
    };
    let dead = matches!(strike, Strike::Crash | Strike::Kill);

    if strike == Strike::ShortHang {
        // It wakes before anyone has given up on it: a round it was holding
        // up commits late, nobody is confirmed, nothing is fenced.
        if round_open {
            assert_eq!(h.checkpoint_outcome(1000.0), Ok(3), "{ctx}");
        }
        h.run_for(detector.worst_case_detection() * 2.0);
        assert_eq!(confirmed(&h), [], "{ctx}");
        assert!(
            noted(&h, |_, n| matches!(n, Note::Fenced { .. })).is_empty(),
            "{ctx}"
        );
    } else {
        // The open round ends typed. Asked of the victim itself, the answer
        // comes when it wakes, or never: a dead coordinator takes the
        // requester's connection down with it.
        if round_open && victim != 0 {
            let outcome = h.checkpoint_outcome(1000.0);
            let typed = matches!(&outcome, Err(why) if why.contains("confirmed failed"));
            assert!(typed, "{ctx}: {outcome:?}");
        }
        // Detection, with no tick quantisation on top of the detector's own
        // bound; custody, byte-exact against what the victim had committed.
        let c = (0..k + m).find(|i| *i != victim).expect("a survivor");
        h.run_until(500.0, "the victim's block in custody", |h| {
            h.node(c).custody_block(NodeId(victim)).is_some()
        });
        let confirmed_at = confirmed(&h)[0];
        match strike {
            Strike::Crash => assert_eq!(confirmed_at, struck_at + detector.heartbeat_interval),
            _ => assert!(confirmed_at <= struck_at + detector.worst_case_detection()),
        }
        // A data member frozen with its capture already on the wire does
        // not stop the coordinator committing round 3 for the others; a
        // dead one's capture died with it, a holder's fold or the
        // coordinator's commit never happens, and the rebuild is of what
        // the victim had committed.
        let (epoch, block) = h.node(c).custody_block(NodeId(victim)).expect("in custody");
        let outran = !dead && (1..k).contains(&victim) && instant == Instant::CapturesShipped;
        assert_eq!(epoch, if outran { 3 } else { pre_epoch }, "{ctx}");
        assert_eq!(block.digest(), healthy[epoch as usize - 2][victim], "{ctx}");

        // A degraded round commits with custody standing in, as long as a
        // parity holder is left to fold it.
        let degraded = h.checkpoint(c, 1000.0);
        match m == 1 && victim == k {
            true => assert!(degraded.is_err(), "{ctx}: {degraded:?}"),
            false => assert!(degraded.is_ok(), "{ctx}: {degraded:?}"),
        }

        // Back it comes: restarted empty, or waking to find itself fenced.
        if dead {
            h.revive(victim);
        }
        h.run_until(1000.0, "the victim resynced, readmitted and meshed", |h| {
            h.node(victim).status().fence_epoch == 1 && h.fully_meshed()
        });
        if round_open && victim == 0 && !dead {
            let outcome = h.checkpoint_outcome(0.0);
            assert_eq!(outcome, Err("node0 was fenced".to_string()), "{ctx}");
        }
        let fenced = |n, note: &Note| {
            n == c && matches!(note, Note::Fenced { node, .. } if *node == NodeId(victim))
        };
        assert_eq!(noted(&h, fenced).len(), 1, "{ctx}: fenced once");
    }

    // Full strength again: a round commits on all k + m.
    let c = coordinator(&h);
    let epoch = h
        .checkpoint(c, 1000.0)
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    for i in 0..k + m {
        assert_eq!(h.node(i).status().committed_epoch, epoch, "{ctx} node{i}");
    }
    assert!(
        noted(&h, |_, n| matches!(n, Note::DataLoss { .. })).is_empty(),
        "{ctx}"
    );
    assert!(h.live().all(|n| !n.saw_data_loss()), "{ctx}");
}

/// Every member × strike × instant of one layout.
fn node_core_matrix(spec: &ClusterSpec) {
    let strikes = [
        Strike::Crash,
        Strike::Kill,
        Strike::LongHang,
        Strike::ShortHang,
    ];
    let instants = [
        Instant::Idle,
        Instant::InCaptureWindow,
        Instant::CapturesShipped,
        Instant::JustCommitted,
    ];
    let healthy = healthy_digests(spec);
    for victim in 0..spec.total() {
        for strike in strikes {
            for instant in instants {
                node_core_case(spec, &healthy, victim, strike, instant);
            }
        }
    }
}

#[test]
fn node_core_matrix_layouts_victims_strikes_instants() {
    for (k, m) in [(2, 1), (4, 1), (3, 2), (4, 2)] {
        node_core_matrix(&ClusterSpec::drill(k, m));
    }
}

/// A layout of the matrix with images of three whole parts and a ragged
/// fourth: every block is shipped, folded, fetched and decoded part by
/// part.
fn in_parts(k: usize, m: usize) -> ClusterSpec {
    ClusterSpec {
        image_len: 3 * PART_LEN + 4_099,
        ..ClusterSpec::drill(k, m)
    }
}

#[test]
fn node_core_matrix_in_parts_4_1() {
    node_core_matrix(&in_parts(4, 1));
}

#[test]
fn node_core_matrix_in_parts_4_2() {
    node_core_matrix(&in_parts(4, 2));
}

/// One failure more than the code tolerates is typed loss, never a panic
/// and never a rebuild that pretends.
#[test]
fn node_core_failures_beyond_m_are_typed_data_loss() {
    for (k, m) in [(2, 1), (4, 1), (3, 2), (4, 2)] {
        let mut h = Harness::new(ClusterSpec::drill(k, m));
        h.run_until(500.0, "full mesh", |h| h.fully_meshed());
        assert_eq!(h.checkpoint(0, 1000.0), Ok(1));
        for victim in 1..=m + 1 {
            h.kill(victim);
        }
        h.run_until(2000.0, "typed loss of every victim", |h| {
            noted(h, |_, n| matches!(n, Note::DataLoss { .. })).len() == m + 1
        });
        assert!(h.node(0).saw_data_loss(), "{k}+{m}");
        let refused = h
            .checkpoint(0, 1000.0)
            .expect_err("no round without the lost");
        assert!(refused.contains("not yet rebuilt"), "{k}+{m}: {refused}");
    }
}

/// A parity holder that missed a round has no parity of it: rebuilt into
/// custody at round 2, it is handed nothing when it returns after round 3
/// committed degraded, and a data member lost before the next round is
/// rebuilt from the shard that was folded, not from the one that was kept.
#[test]
fn node_core_returning_parity_holder_does_not_vouch_for_a_stale_shard() {
    for (k, m) in [(3, 2), (4, 2)] {
        for holder in k..k + m {
            let ctx = format!("{k}+{m} holder={holder}");
            let mut h = Harness::new(ClusterSpec::drill(k, m));
            h.run_until(500.0, "full mesh", |h| h.fully_meshed());
            for want in 1..=2 {
                assert_eq!(h.checkpoint(0, 1000.0), Ok(want), "{ctx}");
            }
            h.crash(holder);
            h.run_until(500.0, "the holder's shard in custody", |h| {
                h.node(0).custody_block(NodeId(holder)).is_some()
            });
            assert_eq!(h.checkpoint(0, 1000.0), Ok(3), "{ctx}");
            h.revive(holder);
            h.run_until(1000.0, "the holder readmitted and meshed", |h| {
                h.node(holder).status().fence_epoch == 1 && h.fully_meshed()
            });
            assert_eq!(h.node(holder).committed(), None, "{ctx}");

            let lost = 1;
            let want = h.node(lost).committed().expect("committed").1.digest();
            h.crash(lost);
            h.run_until(500.0, "the data member's image in custody", |h| {
                h.node(0).custody_block(NodeId(lost)).is_some()
            });
            let (epoch, block) = h.node(0).custody_block(NodeId(lost)).expect("in custody");
            assert_eq!((epoch, block.digest()), (3, want), "{ctx}");
            assert!(h.live().all(|n| !n.saw_data_loss()), "{ctx}");
        }
    }
}
