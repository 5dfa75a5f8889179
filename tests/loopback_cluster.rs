//! `NodeCore` replicas on the deterministic [`Harness`]: the distributed
//! DVDC protocol end to end, without an oracle and without a global state
//! machine.
//!
//! This is the sim twin of `crates/node/tests/process_cluster.rs` — the
//! *same* per-node state machines the `dvdc-node` daemon runs over TCP,
//! driven here in one thread so the whole
//! kill → detect → fence → rebuild → resync → readmit arc is tier-1
//! testable in milliseconds of wall time, stepped the way the daemon's
//! event loop steps and audited on every run.

use dvdc::protocol::harness::Harness;
use dvdc::protocol::node_core::{block_digest, ClusterSpec, Msg, Note, PART_LEN};
use dvdc_faults::detector::{DetectorConfig, Verdict};
use dvdc_observe::metrics::fold_events;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;

/// A meshed 3+2 cluster with `rounds` committed.
fn meshed(spec: ClusterSpec, rounds: u64) -> Harness {
    let mut h = Harness::new(spec);
    h.run_until(500.0, "full mesh", |h| h.fully_meshed());
    for want in 1..=rounds {
        assert_eq!(h.checkpoint(0, 1000.0), Ok(want));
    }
    h
}

/// When a note of any node first satisfied `pred`.
fn first_at(h: &Harness, pred: &dyn Fn(usize, &Note) -> bool) -> SimTime {
    let hit = |(at, n, note): &(SimTime, NodeId, Note)| pred(n.index(), note).then_some(*at);
    h.notes().iter().find_map(hit).expect("noted")
}

/// How many notes of any node satisfy `pred`.
fn count(h: &Harness, pred: impl Fn(usize, &Note) -> bool) -> usize {
    let hit = |(_, n, note): &&(SimTime, NodeId, Note)| pred(n.index(), note);
    h.notes().iter().filter(hit).count()
}

#[test]
fn cluster_survives_sigkill_mid_round_and_victim_rejoins() {
    let mut h = meshed(ClusterSpec::drill(3, 2), 3);
    for i in 0..5 {
        assert_eq!(h.node(i).status().committed_epoch, 3, "node{i}");
    }

    // Record the victim's pre-kill committed state (epoch 3).
    let victim = 2;
    let (pre_epoch, pre_image) = {
        let (e, img) = h.node(victim).committed().expect("victim committed");
        (e, img.to_vec())
    };
    assert_eq!(pre_epoch, 3);
    let pre_digest = block_digest(&pre_image);

    // Open round 4 and kill the victim 5 ms into its 20 ms capture
    // window: its epoch-4 payload never ships, so the round must die.
    h.deliver(dvdc::protocol::CTL, 0, Msg::CheckpointReq);
    h.run_for(Duration::from_millis(5.0));
    h.kill(victim);

    // The open round fails typed — no panic, no hang.
    let err = h.checkpoint_outcome(2000.0);
    let err = err.expect_err("mid-round kill aborts the round");
    assert!(
        err.contains("confirmed failed") || err.contains("timed out"),
        "unexpected abort reason: {err}"
    );

    // Survivors detect via missed heartbeats: Suspected then Confirmed.
    h.run_until(2000.0, "coordinator confirms the victim", |h| {
        h.node(0).status().confirmed.contains(&NodeId(victim))
    });
    let suspected = |n: usize, note: &Note| {
        n == 0
            && matches!(note, Note::PeerVerdict { node, verdict, .. }
                if *node == NodeId(victim) && *verdict == Verdict::Suspected)
    };
    assert!(count(&h, suspected) > 0, "Suspected precedes confirmation");

    // The coordinator fences the victim and rebuilds its block from
    // survivor data + parity — byte-exact against the pre-kill image.
    h.run_until(2000.0, "victim block in custody", |h| {
        h.node(0).custody_block(NodeId(victim)).is_some()
    });
    let (cust_epoch, cust_bytes) = h.node(0).custody_block(NodeId(victim)).unwrap();
    assert_eq!(cust_epoch, 3, "rebuild must target the committed epoch");
    assert_eq!(cust_bytes, &pre_image[..], "rebuild must be byte-exact");
    let rebuilt = |_, n: &Note| {
        matches!(n, Note::RebuildCompleted { victim: v, epoch: 3, digest }
            if *v == NodeId(victim) && *digest == pre_digest)
    };
    assert_eq!(count(&h, rebuilt), 1);

    // Peers converged on the fence via broadcast.
    for i in [1, 3, 4] {
        let learned = |n, note: &Note| {
            n == i && matches!(note, Note::Fenced { node, .. } if *node == NodeId(victim))
        };
        assert_eq!(count(&h, learned), 1, "node{i} must learn the fence");
    }

    // Degraded rounds commit with custody standing in for the victim.
    let degraded_epoch = h.checkpoint(0, 2000.0).expect("degraded round commits");
    assert!(degraded_epoch >= 4);

    // The victim restarts EMPTY (diskless) at the same address, is
    // rejected at the handshake for its pre-fence epoch, resyncs from
    // custody, and is readmitted at a post-fence epoch.
    h.revive(victim);
    h.run_until(3000.0, "victim resynced and readmitted", |h| {
        let v = h.node(victim).status();
        v.committed_epoch == degraded_epoch && v.fence_epoch >= 1
    });
    let rejected = |n, note: &Note| n == victim && matches!(note, Note::HelloRejected { .. });
    assert!(count(&h, rejected) > 0, "rejected before resync");
    // Its resynced image is the custody bytes (frozen since epoch 3).
    assert_eq!(
        h.node(victim).committed().unwrap().1,
        &pre_image[..],
        "resynced state must match the rebuilt block"
    );
    // Custody is dropped on readmission.
    h.run_until(1000.0, "custody dropped after readmit", |h| {
        h.node(0).custody_block(NodeId(victim)).is_none()
    });

    // Full mesh again, then a full-strength round commits with the
    // victim participating as a live member.
    h.run_until(2000.0, "mesh restored", |h| h.fully_meshed());
    let final_epoch = h.checkpoint(0, 2000.0).expect("post-rejoin round commits");
    assert!(final_epoch > degraded_epoch);
    for i in 0..5 {
        assert_eq!(h.node(i).status().committed_epoch, final_epoch, "node{i}");
    }
    // The whole arc ran without a single data-loss event.
    assert!(h.live().all(|n| !n.saw_data_loss()));

    // One metrics vocabulary: the coordinator's registry, folded as its
    // daemon folds it, reports every instrument the fold of a traced
    // simulation registers (`tests/trace_determinism.rs` holds the mirror
    // image), and the span counts agree with the notes themselves.
    let live = h.metrics(0);
    let sim_names = fold_events(&[]);
    for (name, _) in &sim_names.counters {
        assert!(live.counter(name).is_some(), "{name}");
    }
    for (name, _) in &sim_names.histograms {
        assert!(live.histogram(name).is_some(), "{name}");
    }
    let noted = |pred: fn(&Note) -> bool| Some(count(&h, |n, note| n == 0 && pred(note)) as u64);
    let committed = noted(|n| matches!(n, Note::RoundCommitted { .. }));
    let rebuilt = noted(|n| matches!(n, Note::RebuildCompleted { .. }));
    assert_eq!(live.counter("node.rounds_committed"), committed);
    assert_eq!(live.counter("node.rounds_aborted"), Some(1));
    assert_eq!(
        live.counter("node.rebuilds"),
        noted(|n| matches!(n, Note::RebuildStarted { .. }))
    );
    let spans = |name: &str| live.histogram(name).map(|h| h.count);
    assert_eq!(spans("node.round_latency_ns"), committed);
    assert_eq!(spans("node.rebuild_total_ns"), rebuilt);
    assert_eq!(spans("node.rebuild_fetch_ns"), rebuilt);
    assert_eq!(spans("node.rebuild_phase_ns.Fetch"), rebuilt);
    assert_eq!(rebuilt, Some(1));
}

/// The verdicts `at` reached about `victim`, in order: when, which, and
/// whether link evidence reached it.
fn verdicts(h: &Harness, at: usize, victim: usize) -> Vec<(SimTime, Verdict, bool)> {
    let about_victim = |(when, n, note): &(SimTime, NodeId, Note)| match note {
        Note::PeerVerdict {
            node,
            verdict,
            evidence,
        } if *n == NodeId(at) && *node == NodeId(victim) => Some((*when, *verdict, *evidence)),
        _ => None,
    };
    h.notes().iter().filter_map(about_victim).collect()
}

/// The fence epochs of `victim` that `at` raised or learned, in order.
fn fences_seen_by(h: &Harness, at: usize, victim: usize) -> Vec<u64> {
    let of_victim = |(_, n, note): &(SimTime, NodeId, Note)| match note {
        Note::Fenced { node, epoch } if *n == NodeId(at) && *node == NodeId(victim) => Some(*epoch),
        _ => None,
    };
    h.notes().iter().filter_map(of_victim).collect()
}

#[test]
fn crash_is_suspected_at_once_confirmed_a_heartbeat_interval_later_and_fenced_once() {
    let spec = ClusterSpec::drill(3, 2);
    let mut h = meshed(spec.clone(), 2);
    let victim = 2;
    let pre_crash = h.node(victim).committed().expect("committed").1.to_vec();

    // No step is taken between the crash and these checks: the suspicion
    // carries the instant of the evidence, on every node, and nothing else
    // has happened yet.
    let crashed_at = h.now();
    h.crash(victim);
    for i in [0, 1, 3, 4] {
        let suspected = [(crashed_at, Verdict::Suspected, true)];
        assert_eq!(verdicts(&h, i, victim), suspected, "node{i}");
        assert!(h.node(i).has_session(NodeId(victim)), "node{i}");
    }
    assert_eq!(fences_seen_by(&h, 0, victim), []);

    // One heartbeat interval later, to the instant, every node confirms.
    h.run_until(100.0, "every survivor confirms the victim", |h| {
        [0, 1, 3, 4]
            .iter()
            .all(|i| !h.node(*i).has_session(NodeId(victim)))
    });
    let confirmed_at = crashed_at + spec.detector.heartbeat_interval;
    let by_evidence = [
        (crashed_at, Verdict::Suspected, true),
        (confirmed_at, Verdict::Confirmed, true),
    ];
    for i in [0, 1, 3, 4] {
        assert_eq!(verdicts(&h, i, victim), by_evidence, "node{i}");
    }
    assert_eq!(h.node(0).status().confirmed, [NodeId(victim)]);
    // Only the coordinator fences; the others wait for its broadcast.
    assert_eq!(fences_seen_by(&h, 0, victim), [1]);
    assert_eq!(fences_seen_by(&h, 1, victim), []);

    // Fetched and decoded while the suspicion stood, the block enters
    // custody in the step that confirms the victim: no timeout, no grace,
    // no fetch after the verdict.
    assert_eq!(h.now(), confirmed_at);
    assert_eq!(
        h.node(0).custody_block(NodeId(victim)).unwrap().1,
        &pre_crash[..]
    );
    assert_eq!(h.checkpoint(0, 1000.0), Ok(3));

    // Long after every timer about the victim has run out, the one fence
    // stands and nobody has judged the victim a second time.
    h.run_for(spec.detector.worst_case_detection() * 2.0);
    for i in [0, 1, 3, 4] {
        assert_eq!(verdicts(&h, i, victim), by_evidence, "node{i}");
        assert_eq!(fences_seen_by(&h, i, victim), [1], "node{i}");
    }
    assert!(h.live().all(|n| !n.saw_data_loss()));
}

#[test]
fn crashed_coordinator_is_fenced_by_the_next_member() {
    let mut h = meshed(ClusterSpec::drill(3, 2), 1);
    let pre_crash = h.node(0).committed().expect("committed").1.to_vec();

    h.crash(0);
    h.run_until(100.0, "the next member takes over", |h| {
        (1..5).all(|i| h.node(i).coordinator() == NodeId(1))
    });
    assert_eq!(fences_seen_by(&h, 1, 0), [1]);
    h.run_until(100.0, "old coordinator rebuilt into custody", |h| {
        h.node(1).custody_block(NodeId(0)).is_some()
    });
    assert_eq!(
        h.node(1).custody_block(NodeId(0)).unwrap().1,
        &pre_crash[..]
    );
    assert_eq!(h.checkpoint(1, 1000.0), Ok(2));
}

#[test]
fn silent_kill_reaches_no_verdict_before_its_timers() {
    // The same arc as the crash, minus the evidence: a partition or a dead
    // host closes nothing and refuses nothing.
    let spec = ClusterSpec::drill(3, 2);
    let mut h = meshed(spec.clone(), 1);
    let victim = 2;
    let killed_at = h.now();
    h.kill(victim);
    h.run_until(500.0, "coordinator confirms the victim", |h| {
        h.node(0).status().confirmed.contains(&NodeId(victim))
    });
    let [(suspected, Verdict::Suspected, false), (confirmed, Verdict::Confirmed, false)] =
        verdicts(&h, 0, victim)[..]
    else {
        panic!("{:?}", verdicts(&h, 0, victim));
    };
    // The timeout runs from the last heartbeat heard, at most an interval
    // (and a hop) before the kill; the grace from the suspicion, exactly.
    let DetectorConfig {
        heartbeat_interval,
        timeout,
        confirm_grace,
    } = spec.detector;
    let silent = suspected.since(killed_at);
    let hop = Duration::from_millis(1.0);
    assert!(
        silent <= timeout && silent + heartbeat_interval + hop >= timeout,
        "suspected after {silent} of silence, timeout {timeout}"
    );
    let grace = confirmed.since(suspected);
    assert!((grace.as_secs() - confirm_grace.as_secs()).abs() < 1e-9);
}

#[test]
fn two_failures_with_m2_both_rebuilt() {
    let mut h = meshed(ClusterSpec::drill(3, 2), 1);
    let pre1 = h.node(1).committed().expect("node1 committed").1.to_vec();
    let pre2 = h.node(2).committed().expect("node2 committed").1.to_vec();

    h.kill(1);
    h.kill(2);
    h.run_until(3000.0, "both victims in custody", |h| {
        let n0 = h.node(0);
        n0.custody_block(NodeId(1)).is_some() && n0.custody_block(NodeId(2)).is_some()
    });
    assert_eq!(h.node(0).custody_block(NodeId(1)).unwrap().1, &pre1[..]);
    assert_eq!(h.node(0).custody_block(NodeId(2)).unwrap().1, &pre2[..]);
    assert!(!h.node(0).saw_data_loss());

    // Degraded round still commits: custody stands in for both victims.
    let epoch = h.checkpoint(0, 2000.0).expect("degraded round");
    assert!(epoch >= 2);
}

#[test]
fn three_failures_exceed_m2_and_surface_typed_data_loss() {
    let mut h = meshed(ClusterSpec::drill(3, 2), 1);
    h.kill(1);
    h.kill(2);
    h.kill(3);
    // Every victim's rebuild must end in a typed DataLoss (never a panic,
    // never an eternal retry loop).
    h.run_until(5000.0, "typed data loss for all three victims", |h| {
        count(h, |_, n| matches!(n, Note::DataLoss { .. })) >= 3
    });
    assert!(h.node(0).saw_data_loss());

    // A round cannot start with an unrebuildable member — typed, no hang.
    let err = h.checkpoint(0, 1000.0).expect_err("round must fail");
    assert!(err.contains("not yet rebuilt"), "got: {err}");
}

#[test]
fn payload_overtaking_its_round_begin_is_parked_and_the_round_commits() {
    // No capture delay, and the coordinator's links to both holders two
    // hops slow: the other members' blocks, sent on hearing a RoundBegin
    // the holders have yet to hear, reach them first — what separate TCP
    // connections do to a block and the RoundBegin it belongs to. Blocks
    // of one part, and of three whole parts and a ragged fourth.
    for image_len in [512, 3 * PART_LEN + 4_099] {
        let mut h = Harness::new(ClusterSpec {
            capture_delay: Duration::ZERO,
            image_len,
            ..ClusterSpec::drill(3, 2)
        });
        for holder in [3, 4] {
            h.slow_link(0, holder, Duration::from_millis(2.0));
        }
        h.run_until(500.0, "full mesh", |h| h.fully_meshed());
        for want in 1..=3u64 {
            assert_eq!(h.checkpoint(0, 1000.0), Ok(want));
        }
        for i in 0..5 {
            assert_eq!(h.node(i).status().committed_epoch, 3, "node{i}");
        }
        // Parked, not dropped: nothing was discarded on the way.
        let drops = |h: &Harness| count(h, |_, n| matches!(n, Note::PayloadDropped { .. }));
        assert_eq!(drops(&h), 0, "{:?}", h.notes());

        // A block for a round already over is still refused, and says so.
        let holder = 3;
        let stale = Msg::Payload {
            epoch: 2,
            source: NodeId(1),
            fence_epoch: 0,
            data: vec![0; (image_len - 1) % PART_LEN + 1],
        };
        h.deliver(NodeId(1), holder, stale);
        assert!(matches!(
            h.notes().last(),
            Some((_, n, Note::PayloadDropped { from, reason }))
                if *n == NodeId(holder) && *from == NodeId(1) && reason.contains("round 2 is not open")
        ));
        assert_eq!(drops(&h), 1);
        assert_eq!(h.checkpoint(0, 1000.0), Ok(4));
    }
}

#[test]
fn restart_inside_a_heartbeat_interval_is_fenced_resynced_and_protection_holds() {
    // The process dies and a supervisor restarts it at once: the new
    // instance greets everyone before a single heartbeat is missed, at a
    // fence epoch nobody has raised yet, with nothing in memory. Images of
    // one part, and of three whole parts and a ragged fourth.
    let in_parts = 3 * PART_LEN + 4_099;
    for (k, m, image_len) in [(4, 1, 512), (3, 2, 512), (4, 1, in_parts), (3, 2, in_parts)] {
        let ctx = format!("{k}+{m}, {image_len} bytes");
        let spec = ClusterSpec {
            image_len,
            ..ClusterSpec::drill(k, m)
        };
        let mut h = meshed(spec, 2);
        let (victim, other) = (2, 1);
        let pre_crash = h.node(victim).committed().expect("committed").1.to_vec();
        let crashed_at = h.now();
        h.crash(victim);
        h.revive(victim);
        h.run_until(
            1000.0,
            "the restarted victim to be fenced and readmitted",
            |h| h.node(victim).status().fence_epoch == 1 && h.fully_meshed(),
        );

        // Its greeting, one hop after the crash, confirmed the old instance
        // on every survivor; the coordinator fenced it, once.
        let hop = Duration::from_millis(1.0);
        let restarted = [
            (crashed_at, Verdict::Suspected, true),
            (crashed_at + hop, Verdict::Confirmed, true),
        ];
        for i in (0..k + m).filter(|i| *i != victim) {
            assert_eq!(verdicts(&h, i, victim), restarted, "{ctx} node{i}");
            assert_eq!(fences_seen_by(&h, i, victim), [1], "{ctx} node{i}");
        }
        // Rebuilt byte-exact into custody, and resynced to exactly that.
        let digest = block_digest(&pre_crash);
        let rebuilt = |_, n: &Note| {
            matches!(n, Note::RebuildCompleted { victim: v, epoch: 2, digest: d }
                if *v == NodeId(victim) && *d == digest)
        };
        assert_eq!(count(&h, rebuilt), 1, "{ctx}");
        let resynced = h.node(victim).committed();
        assert!(
            matches!(resynced, Some((2, b)) if *b == pre_crash[..]),
            "{ctx}"
        );

        // The cluster is as protected as it believes: a full-strength round
        // commits on all k+m, and one more failure is one it survives.
        assert_eq!(h.checkpoint(0, 1000.0), Ok(3), "{ctx}");
        let pre_crash = h.node(other).committed().expect("committed").1.to_vec();
        h.crash(other);
        h.run_until(500.0, "the second victim in custody", |h| {
            h.node(0).custody_block(NodeId(other)).is_some()
        });
        let custody = h.node(0).custody_block(NodeId(other));
        assert!(
            matches!(custody, Some((3, b)) if *b == pre_crash[..]),
            "{ctx}"
        );
        assert_eq!(count(&h, |_, n| matches!(n, Note::DataLoss { .. })), 0);
        assert!(h.live().all(|n| !n.saw_data_loss()), "{ctx}");
    }
}

#[test]
fn readmitted_member_is_greeted_at_once_and_meshed_three_hops_later() {
    // The victim restarts at 25 phases of the survivors' 50 ms hello
    // timer: how long the mesh takes must not depend on it.
    let hop = Duration::from_millis(1.0);
    for phase in 0..25 {
        let ctx = format!("phase {phase}");
        let mut h = meshed(ClusterSpec::drill(4, 1), 1);
        let victim = 2;
        h.crash(victim);
        h.run_until(200.0, "victim in custody", |h| {
            h.node(0).custody_block(NodeId(victim)).is_some()
        });
        h.run_for(Duration::from_millis(2.0 * phase as f64));
        h.revive(victim);

        let readmitted = |n: usize, note: &Note| {
            n == 0 && matches!(note, Note::Readmitted { node, .. } if *node == NodeId(victim))
        };
        h.run_until(1000.0, "the coordinator readmits the victim", |h| {
            count(h, readmitted) == 1
        });
        let readmitted_at = h.now();
        h.run_until(100.0, "full mesh", |h| h.fully_meshed());
        assert_eq!(h.now(), readmitted_at + hop * 3.0, "{ctx}");

        // One rejection per peer sent it to resync; once it had its state
        // back nobody turned it away again.
        h.run_for(Duration::from_millis(200.0));
        let rejected_at: Vec<SimTime> = h
            .notes()
            .iter()
            .filter(|(_, n, note)| {
                *n == NodeId(victim) && matches!(note, Note::HelloRejected { .. })
            })
            .map(|(at, ..)| *at)
            .collect();
        assert_eq!(rejected_at.len(), 4, "{ctx}");
        // It answered the state it was sent one hop before the readmission.
        assert!(
            rejected_at.iter().all(|at| *at + hop < readmitted_at),
            "{ctx}"
        );
    }
}

#[test]
fn returning_coordinator_learns_who_else_is_out_and_serves_them() {
    // Node 0 freezes and is failed over; node 2 freezes and is fenced by
    // node 1 while 0 is still out. Coordination falls back to 0 the moment
    // it is readmitted, and with it the debt to node 2.
    let spec = ClusterSpec::drill(4, 1);
    let frozen = spec.detector.worst_case_detection() * 2.0;
    let mut h = meshed(spec, 2);
    h.hang(0, frozen);
    h.run_until(200.0, "node 0 in node 1's custody", |h| {
        h.node(1).custody_block(NodeId(0)).is_some()
    });
    h.hang(2, frozen);
    h.run_until(200.0, "node 2 in node 1's custody", |h| {
        h.node(1).custody_block(NodeId(2)).is_some()
    });
    let rebuilt = h.node(1).custody_block(NodeId(2)).unwrap().1.digest();

    h.run_until(200.0, "node 0 back and holding node 2 itself", |h| {
        h.node(0).custody_block(NodeId(2)).is_some()
    });
    assert_eq!(fences_seen_by(&h, 0, 2), [1], "told on readmission");
    assert_eq!(
        h.node(0).custody_block(NodeId(2)).unwrap().1.digest(),
        rebuilt
    );
    h.run_until(500.0, "node 2 back, resynced by node 0", |h| {
        h.fully_meshed()
    });
    let served = |n, note: &Note| n == 0 && *note == Note::ResyncServed { peer: NodeId(2) };
    assert_eq!(count(&h, served), 1);
    assert_eq!(h.checkpoint(0, 1000.0), Ok(3));
    for i in 0..5 {
        assert_eq!(h.node(i).status().committed_epoch, 3, "node{i}");
        assert!(h.node(i).status().custody.is_empty(), "node{i}");
    }
    assert_eq!(count(&h, |_, n| matches!(n, Note::DataLoss { .. })), 0);
}

#[test]
fn coordinator_frozen_and_fenced_decides_nothing_on_waking() {
    // Node 1 is in node 0's custody, restarted, and asking node 0 for its
    // state when node 0 freezes with the request unread. By the time it
    // wakes it has been fenced itself, and what it holds is stale.
    let spec = ClusterSpec::drill(3, 2);
    let frozen = spec.detector.worst_case_detection() * 2.0;
    let mut h = meshed(spec, 2);
    h.crash(1);
    h.run_until(200.0, "node 1 in node 0's custody", |h| {
        h.node(0).custody_block(NodeId(1)).is_some()
    });
    h.hang(0, frozen);
    h.revive(1);
    h.run_until(1000.0, "everybody back", |h| {
        h.fully_meshed() && h.live().all(|n| n.status().custody.is_empty())
    });
    // Node 0 answered nobody until it was back in itself; node 2, which
    // coordinated meanwhile, took it back, and node 1 after it.
    let back = first_at(&h, &|n, note| {
        n == 2 && matches!(note, Note::Readmitted { node, .. } if *node == NodeId(0))
    });
    let served = first_at(&h, &|n, note| {
        n == 0 && matches!(note, Note::ResyncServed { .. })
    });
    assert!(
        back < served,
        "node 0 served at {served}, readmitted at {back}"
    );
    assert_eq!(h.checkpoint(0, 1000.0), Ok(3));
    assert_eq!(count(&h, |_, n| matches!(n, Note::DataLoss { .. })), 0);
}

#[test]
fn parity_coordinator_ships_both_orphans_to_itself_and_its_peer_and_both_return() {
    // A 2+2 group loses data node 0 and then data node 1: coordination
    // falls to parity node 2, which holds both in custody and is one of
    // the two holders it ships them to. No other layout leaves a holder
    // coordinating a round.
    let spec = ClusterSpec::drill(2, 2);
    let healthy: Vec<u64> = {
        let twin = meshed(spec.clone(), 2);
        (0..4)
            .map(|i| twin.node(i).committed().expect("committed").1.digest())
            .collect()
    };
    let mut h = meshed(spec, 2);
    h.crash(0);
    h.run_until(200.0, "node 0 in node 1's custody", |h| {
        h.node(1).custody_block(NodeId(0)).is_some()
    });
    h.crash(1);
    h.run_until(500.0, "both data nodes in node 2's custody", |h| {
        (0..2).all(|i| h.node(2).custody_block(NodeId(i)).is_some())
    });
    for (i, want) in healthy[..2].iter().enumerate() {
        let (epoch, block) = h.node(2).custody_block(NodeId(i)).expect("in custody");
        assert_eq!((epoch, block.digest()), (2, *want), "node{i}");
    }

    // A round with no live data member: node 2 ships both orphans to
    // itself and to node 3, both fold them, and it commits.
    assert_eq!(h.checkpoint(2, 1000.0), Ok(3));
    for i in [2, 3] {
        let (epoch, shard) = h.node(i).committed().expect("committed");
        assert_eq!((epoch, shard.digest()), (3, healthy[i]), "node{i}");
    }
    for (i, want) in healthy[..2].iter().enumerate() {
        let (epoch, block) = h.node(2).custody_block(NodeId(i)).expect("in custody");
        assert_eq!((epoch, block.digest()), (3, *want), "node{i}");
    }

    // Both come back empty, resync, are readmitted, and the group runs a
    // full-strength round.
    h.revive(0);
    h.revive(1);
    h.run_until(2000.0, "both data nodes readmitted and meshed", |h| {
        (0..2).all(|i| h.node(i).status().fence_epoch == 1) && h.fully_meshed()
    });
    for (i, want) in healthy[..2].iter().enumerate() {
        let (epoch, image) = h.node(i).committed().expect("resynced");
        assert_eq!((epoch, image.digest()), (3, *want), "node{i}");
    }
    assert_eq!(h.checkpoint(0, 1000.0), Ok(4));
    for i in 0..4 {
        let status = h.node(i).status();
        assert_eq!(status.committed_epoch, 4, "node{i}");
        assert!(status.custody.is_empty(), "node{i}");
    }
    assert_eq!(count(&h, |_, n| matches!(n, Note::DataLoss { .. })), 0);
}

#[test]
fn resync_request_meeting_a_rebuild_is_answered_when_the_rebuild_settles() {
    // Node 1 is in custody and restarts so that its request reaches the
    // coordinator while the rebuild of node 2 stands. That rebuild begins
    // at node 2's crash, on link evidence, and installs when the crash is
    // confirmed a heartbeat interval (10 ms) later. Node 1's greeting goes
    // out 4 ms after the crash and is rejected a hop later, and its
    // request lands two hops after that.
    let spec = ClusterSpec::drill(3, 2);
    let hop = Duration::from_millis(1.0);
    let retry = spec.detector.heartbeat_interval * 10.0;
    let mut h = meshed(spec, 2);
    h.crash(1);
    h.run_until(200.0, "node 1 in custody", |h| {
        h.node(0).custody_block(NodeId(1)).is_some()
    });
    h.crash(2);
    h.run_for(Duration::from_millis(4.0));
    h.revive(1);
    h.run_until(500.0, "everybody back but node 2", |h| {
        h.node(0).has_session(NodeId(1)) && h.node(0).status().custody.len() == 1
    });

    let began = first_at(&h, &|n, note| {
        n == 0 && *note == Note::RebuildStarted { victim: NodeId(2) }
    });
    let asked = first_at(&h, &|n, note| {
        n == 1 && matches!(note, Note::HelloRejected { .. })
    }) + hop;
    let rebuilt = first_at(&h, &|n, note| {
        n == 0 && matches!(note, Note::RebuildCompleted { victim, .. } if *victim == NodeId(2))
    });
    let served = first_at(&h, &|n, note| {
        n == 0 && *note == Note::ResyncServed { peer: NodeId(1) }
    });
    assert!(
        began < asked && asked < rebuilt,
        "the request must meet the rebuild in flight: {began} < {asked} < {rebuilt}"
    );
    assert!(
        served <= rebuilt + hop,
        "asked at {asked}, rebuild settled at {rebuilt}, served at {served} (retry every {retry})"
    );
    assert_eq!(count(&h, |_, n| matches!(n, Note::DataLoss { .. })), 0);
}
