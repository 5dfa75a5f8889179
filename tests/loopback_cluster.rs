//! Five `NodeCore` replicas over the deterministic `SimNet` loopback:
//! the distributed DVDC protocol end to end, without an oracle and
//! without a global state machine.
//!
//! This is the sim twin of `crates/node/tests/process_cluster.rs` — the
//! *same* per-node state machines the `dvdc-node` daemon runs over TCP,
//! driven here over an in-process transport so the whole
//! kill → detect → fence → rebuild → resync → readmit arc is tier-1
//! testable in milliseconds of wall time.

use dvdc::protocol::node_core::{fnv64, Action, ClusterSpec, Msg, NodeCore, Note, CTL};
use dvdc::protocol::transport::{SimNet, Transport};
use dvdc_faults::detector::{DetectorConfig, Verdict};
use dvdc_node::NodeMetrics;
use dvdc_observe::metrics::fold_events;
use dvdc_observe::MetricsHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;

/// Deterministic driver: a cluster of `NodeCore`s over one `SimNet`.
struct Sim {
    spec: ClusterSpec,
    net: SimNet,
    nodes: Vec<Option<NodeCore>>,
    notes: Vec<(NodeId, Note)>,
    /// When each of `notes` was emitted.
    noted_at: Vec<SimTime>,
    now: SimTime,
    /// The fixed step, or `None` to step from event to event: to the next
    /// delivery or `NodeCore::next_deadline`, whichever is first.
    tick: Option<Duration>,
    /// Deliver each step's `Payload`s ahead of everything else due with
    /// them — what separate TCP connections do to a block and the
    /// `RoundBegin` it belongs to.
    payloads_overtake: bool,
}

impl Sim {
    fn new(spec: ClusterSpec) -> Self {
        let nodes = (0..spec.total())
            .map(|i| Some(NodeCore::new(NodeId(i), spec.clone())))
            .collect();
        Sim {
            net: SimNet::new(Duration::from_millis(1.0)),
            nodes,
            notes: Vec::new(),
            noted_at: Vec::new(),
            now: SimTime::ZERO,
            tick: Some(Duration::from_millis(1.0)),
            payloads_overtake: false,
            spec,
        }
    }

    fn node(&self, id: usize) -> &NodeCore {
        self.nodes[id].as_ref().expect("node is live")
    }

    fn apply(&mut self, id: NodeId, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Send { to, msg } => {
                    // Sends to dead peers fail typed — expected during the
                    // detection window, never a panic.
                    let _ = self.net.send(id, to, msg);
                }
                Action::Note(note) => {
                    self.notes.push((id, note));
                    self.noted_at.push(self.now);
                }
            }
        }
    }

    /// When the next thing happens anywhere: a delivery, or a timer of
    /// some live node.
    fn next_event(&self) -> SimTime {
        let events = self.nodes.iter().flatten().flat_map(|node| {
            [self.net.next_delivery(node.id()), node.next_deadline()]
                .into_iter()
                .flatten()
        });
        events.min().expect("heartbeats never end").max(self.now)
    }

    /// One time step: deliver due messages, then tick every live node
    /// (fixed tick) or the nodes whose deadline has come (event-driven).
    fn step(&mut self) {
        self.now = match self.tick {
            Some(tick) => self.now + tick,
            None => self.next_event(),
        };
        self.net.advance(self.now);
        for i in 0..self.nodes.len() {
            let id = NodeId(i);
            if self.nodes[i].is_none() {
                continue;
            }
            let mut due = self.net.take_due(id, self.now);
            if self.payloads_overtake {
                due.sort_by_key(|(_, msg)| !matches!(msg, Msg::Payload { .. }));
            }
            for (from, msg) in due {
                let Some(node) = self.nodes[i].as_mut() else {
                    break;
                };
                let actions = node.on_message(from, msg, self.now);
                self.apply(id, actions);
            }
            let (now, every_node) = (self.now, self.tick.is_some());
            let ticks = |n: &NodeCore| every_node || n.next_deadline().is_some_and(|d| d <= now);
            if let Some(node) = self.nodes[i].as_mut().filter(|n| ticks(n)) {
                let actions = node.on_tick(now);
                // Or a driver sleeping until the deadline would spin.
                let next = node.next_deadline().expect("heartbeats never end");
                assert!(
                    next > now,
                    "{id}: tick at {now} left the deadline at {next}"
                );
                self.apply(id, actions);
            }
        }
    }

    /// Runs until `pred` holds, failing the test after `max_ms`.
    fn run_until(&mut self, max_ms: f64, what: &str, mut pred: impl FnMut(&Sim) -> bool) {
        let deadline = self.now + Duration::from_millis(max_ms);
        while self.now < deadline {
            self.step();
            if pred(self) {
                return;
            }
        }
        let tail = &self.notes[self.notes.len().saturating_sub(20)..];
        panic!("timed out after {max_ms} ms waiting for: {what}\nlast notes: {tail:#?}");
    }

    /// Injects a ctl-plane request at `target`; the reply lands in the
    /// CTL inbox (drain with `ctl_replies`).
    fn ctl(&mut self, target: usize, msg: Msg) {
        let Some(node) = self.nodes[target].as_mut() else {
            panic!("ctl target node{target} is dead");
        };
        let actions = node.on_message(CTL, msg, self.now);
        self.apply(NodeId(target), actions);
    }

    /// Drains replies addressed to the ctl pseudo-node.
    fn ctl_replies(&mut self) -> Vec<Msg> {
        self.net
            .take_due(CTL, self.now)
            .into_iter()
            .map(|(_, m)| m)
            .collect()
    }

    /// The node goes silent, its queued and in-flight traffic with it, and
    /// nobody is told: a host that lost power, or a partition. Survivors
    /// have only their timers.
    fn kill(&mut self, id: usize) {
        self.net.kill(NodeId(id));
        self.nodes[id] = None;
    }

    /// The process dies on a host that stays up (SIGKILL, panic, OOM-kill):
    /// its kernel closes its connections and refuses the survivors'
    /// redials, which is the evidence the TCP runtime hands each of them.
    fn crash(&mut self, id: usize) {
        self.kill(id);
        let now = self.now;
        for i in 0..self.nodes.len() {
            let Some(node) = self.nodes[i].as_mut() else {
                continue;
            };
            let actions = node.on_peer_refused(NodeId(id), now);
            let next = node.next_deadline().expect("heartbeats never end");
            assert!(
                next > now,
                "node{i}: evidence at {now} left the deadline at {next}"
            );
            self.apply(NodeId(i), actions);
        }
    }

    /// Restart at the same address with **empty** state — diskless.
    fn revive(&mut self, id: usize) {
        self.net.revive(NodeId(id));
        self.nodes[id] = Some(NodeCore::new(NodeId(id), self.spec.clone()));
    }

    fn fully_meshed(&self) -> bool {
        self.nodes.iter().flatten().all(|n| {
            (0..self.spec.total())
                .map(NodeId)
                .filter(|p| *p != n.id())
                .all(|p| self.nodes[p.index()].is_none() || n.has_session(p))
        })
    }
}

fn spec_k3_m2() -> ClusterSpec {
    ClusterSpec {
        cluster_id: 42,
        data_nodes: 3,
        parity_nodes: 2,
        image_len: 512,
        detector: DetectorConfig {
            heartbeat_interval: Duration::from_millis(10.0),
            timeout: Duration::from_millis(35.0),
            confirm_grace: Duration::from_millis(25.0),
        },
        round_timeout: Duration::from_millis(200.0),
        rebuild_timeout: Duration::from_millis(200.0),
        capture_delay: Duration::from_millis(20.0),
    }
}

/// Runs one ctl-requested checkpoint to its typed outcome.
fn run_checkpoint(sim: &mut Sim, coordinator: usize, max_ms: f64) -> Result<u64, String> {
    sim.ctl(coordinator, Msg::CheckpointReq);
    wait_ctl_outcome(sim, max_ms)
}

/// Waits for the next CheckpointDone/CheckpointFailed ctl reply.
fn wait_ctl_outcome(sim: &mut Sim, max_ms: f64) -> Result<u64, String> {
    let deadline = sim.now + Duration::from_millis(max_ms);
    while sim.now < deadline {
        sim.step();
        for m in sim.ctl_replies() {
            match m {
                Msg::CheckpointDone { epoch } => return Ok(epoch),
                Msg::CheckpointFailed { reason } => return Err(reason),
                _ => {}
            }
        }
    }
    panic!("checkpoint neither committed nor failed in {max_ms} ms");
}

#[test]
fn cluster_survives_sigkill_mid_round_and_victim_rejoins() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());

    // Three committed rounds; every replica agrees on the epoch.
    for want in 1..=3u64 {
        let epoch = run_checkpoint(&mut sim, 0, 1000.0).expect("healthy round commits");
        assert_eq!(epoch, want);
    }
    for i in 0..5 {
        assert_eq!(sim.node(i).status().committed_epoch, 3, "node{i}");
    }

    // Record the victim's pre-kill committed state (epoch 3).
    let victim = 2;
    let (pre_epoch, pre_image) = {
        let (e, img) = sim.node(victim).committed().expect("victim committed");
        (e, img.to_vec())
    };
    assert_eq!(pre_epoch, 3);
    let pre_digest = fnv64(&pre_image);

    // Open round 4 and SIGKILL the victim inside its capture-delay
    // window: its epoch-4 payload never ships, so the round must die.
    sim.ctl(0, Msg::CheckpointReq);
    for _ in 0..5 {
        sim.step();
    }
    sim.kill(victim);

    // The open round fails typed — no panic, no hang.
    let err = wait_ctl_outcome(&mut sim, 2000.0).expect_err("mid-round kill aborts the round");
    assert!(
        err.contains("confirmed failed") || err.contains("timed out"),
        "unexpected abort reason: {err}"
    );

    // Survivors detect via missed heartbeats: Suspected then Confirmed.
    sim.run_until(2000.0, "coordinator confirms the victim", |s| {
        s.node(0).status().confirmed.contains(&NodeId(victim))
    });
    assert!(
        sim.notes.iter().any(|(n, note)| *n == NodeId(0)
            && matches!(note, Note::PeerVerdict { node, verdict, .. }
                if *node == NodeId(victim) && *verdict == Verdict::Suspected)),
        "a Suspected verdict must precede confirmation"
    );

    // The coordinator fences the victim and rebuilds its block from
    // survivor data + parity — byte-exact against the pre-kill image.
    sim.run_until(2000.0, "victim block in custody", |s| {
        s.node(0).custody_block(NodeId(victim)).is_some()
    });
    let (cust_epoch, cust_bytes) = sim.node(0).custody_block(NodeId(victim)).unwrap();
    assert_eq!(cust_epoch, 3, "rebuild must target the committed epoch");
    assert_eq!(cust_bytes, &pre_image[..], "rebuild must be byte-exact");
    assert!(sim.notes.iter().any(|(_, n)| matches!(
        n,
        Note::RebuildCompleted { victim: v, epoch: 3, digest }
            if *v == NodeId(victim) && *digest == pre_digest
    )));

    // Peers converged on the fence via broadcast.
    for i in [1, 3, 4] {
        assert!(
            sim.notes.iter().any(|(n, note)| *n == NodeId(i)
                && matches!(note, Note::Fenced { node, .. } if *node == NodeId(victim))),
            "node{i} must learn the fence"
        );
    }

    // Degraded rounds commit with custody standing in for the victim.
    let degraded_epoch =
        run_checkpoint(&mut sim, 0, 2000.0).expect("degraded round with custody commits");
    assert!(degraded_epoch >= 4);

    // The victim restarts EMPTY (diskless) at the same address, is
    // rejected at the handshake for its pre-fence epoch, resyncs from
    // custody, and is readmitted at a post-fence epoch.
    sim.revive(victim);
    sim.run_until(3000.0, "victim resynced and readmitted", |s| {
        let v = s.node(victim).status();
        v.committed_epoch == degraded_epoch && v.fence_epoch >= 1
    });
    assert!(
        sim.notes
            .iter()
            .any(|(n, note)| *n == NodeId(victim) && matches!(note, Note::HelloRejected { .. })),
        "the restarted victim must be rejected before resync"
    );
    // Its resynced image is the custody bytes (frozen since epoch 3).
    assert_eq!(
        sim.node(victim).committed().unwrap().1,
        &pre_image[..],
        "resynced state must match the rebuilt block"
    );
    // Custody is dropped on readmission.
    sim.run_until(1000.0, "custody dropped after readmit", |s| {
        s.node(0).custody_block(NodeId(victim)).is_none()
    });

    // Full mesh again, then a full-strength round commits with the
    // victim participating as a live member.
    sim.run_until(2000.0, "mesh restored", |s| s.fully_meshed());
    let final_epoch = run_checkpoint(&mut sim, 0, 2000.0).expect("post-rejoin round commits");
    assert!(final_epoch > degraded_epoch);
    for i in 0..5 {
        assert_eq!(
            sim.node(i).status().committed_epoch,
            final_epoch,
            "node{i} must commit the post-rejoin round"
        );
    }
    // The whole arc ran without a single data-loss event.
    assert!(sim.nodes.iter().flatten().all(|n| !n.saw_data_loss()));

    // One metrics vocabulary: the coordinator's notes, folded as its
    // daemon folds them, report every instrument the fold of a traced
    // simulation registers (`tests/trace_determinism.rs` holds the mirror
    // image), and the span counts agree with the notes themselves.
    let hub = MetricsHub::new();
    let mut metrics = NodeMetrics::new(&hub);
    let coordinator = sim.notes.iter().zip(&sim.noted_at);
    let coordinator: Vec<_> = coordinator.filter(|((n, _), _)| *n == NodeId(0)).collect();
    for ((_, note), at) in &coordinator {
        metrics.observe(**at, note);
    }
    let live = hub.snapshot();
    let sim_names = fold_events(&[]);
    for (name, _) in &sim_names.counters {
        assert!(live.counter(name).is_some(), "{name}");
    }
    for (name, _) in &sim_names.histograms {
        assert!(live.histogram(name).is_some(), "{name}");
    }
    let noted = |pred: fn(&Note) -> bool| {
        let n = coordinator
            .iter()
            .filter(|((_, note), _)| pred(note))
            .count();
        Some(n as u64)
    };
    let committed = noted(|n| matches!(n, Note::RoundCommitted { .. }));
    let rebuilt = noted(|n| matches!(n, Note::RebuildCompleted { .. }));
    assert_eq!(live.counter("node.rounds_committed"), committed);
    assert_eq!(live.counter("node.rounds_aborted"), Some(1));
    assert_eq!(
        live.counter("node.rebuilds"),
        noted(|n| matches!(n, Note::RebuildStarted { .. }))
    );
    let count = |name: &str| live.histogram(name).map(|h| h.count);
    assert_eq!(count("node.round_latency_ns"), committed);
    assert_eq!(count("node.rebuild_total_ns"), rebuilt);
    assert_eq!(count("node.rebuild_fetch_ns"), rebuilt);
    assert_eq!(count("node.rebuild_phase_ns.Fetch"), rebuilt);
    assert_eq!(rebuilt, Some(1));
}

/// The verdicts `at` reached about `victim`, in order: when, which, and
/// whether link evidence reached it.
fn verdicts(sim: &Sim, at: usize, victim: usize) -> Vec<(SimTime, Verdict, bool)> {
    let about_victim = |((n, note), when): (&(NodeId, Note), &SimTime)| match note {
        Note::PeerVerdict {
            node,
            verdict,
            evidence,
        } if *n == NodeId(at) && *node == NodeId(victim) => Some((*when, *verdict, *evidence)),
        _ => None,
    };
    let timed = sim.notes.iter().zip(&sim.noted_at);
    timed.filter_map(about_victim).collect()
}

/// The fence epochs of `victim` that `at` raised or learned, in order.
fn fences_seen_by(sim: &Sim, at: usize, victim: usize) -> Vec<u64> {
    let of_victim = |(n, note): &(NodeId, Note)| match note {
        Note::Fenced { node, epoch } if *n == NodeId(at) && *node == NodeId(victim) => Some(*epoch),
        _ => None,
    };
    sim.notes.iter().filter_map(of_victim).collect()
}

#[test]
fn crash_is_suspected_at_once_confirmed_a_heartbeat_interval_later_and_fenced_once() {
    let spec = spec_k3_m2();
    let mut sim = Sim::new(spec.clone());
    sim.tick = None;
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    for want in 1..=2u64 {
        assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(want));
    }
    let victim = 2;
    let pre_crash = sim.node(victim).committed().expect("committed").1.to_vec();

    // No step is taken between the crash and these checks: the suspicion
    // carries the instant of the evidence, on every node, and nothing else
    // has happened yet.
    let crashed_at = sim.now;
    sim.crash(victim);
    for i in [0, 1, 3, 4] {
        let suspected = [(crashed_at, Verdict::Suspected, true)];
        assert_eq!(verdicts(&sim, i, victim), suspected, "node{i}");
        assert!(sim.node(i).has_session(NodeId(victim)), "node{i}");
    }
    assert_eq!(fences_seen_by(&sim, 0, victim), []);

    // One heartbeat interval later, to the instant, every node confirms.
    sim.run_until(100.0, "every survivor confirms the victim", |s| {
        [0, 1, 3, 4]
            .iter()
            .all(|i| !s.node(*i).has_session(NodeId(victim)))
    });
    let confirmed_at = crashed_at + spec.detector.heartbeat_interval;
    let by_evidence = [
        (crashed_at, Verdict::Suspected, true),
        (confirmed_at, Verdict::Confirmed, true),
    ];
    for i in [0, 1, 3, 4] {
        assert_eq!(verdicts(&sim, i, victim), by_evidence, "node{i}");
    }
    assert_eq!(sim.node(0).status().confirmed, [NodeId(victim)]);
    // Only the coordinator fences; the others wait for its broadcast.
    assert_eq!(fences_seen_by(&sim, 0, victim), [1]);
    assert_eq!(fences_seen_by(&sim, 1, victim), []);

    sim.run_until(100.0, "victim rebuilt into custody", |s| {
        s.node(0).custody_block(NodeId(victim)).is_some()
    });
    // The interval and two hops for the fetch: no timeout, no grace.
    assert!(sim.now.since(crashed_at) < spec.detector.heartbeat_interval * 2.0);
    assert!(sim.now.since(crashed_at) < spec.detector.timeout);
    assert_eq!(
        sim.node(0).custody_block(NodeId(victim)).unwrap().1,
        &pre_crash[..]
    );
    assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(3));

    // Long after every timer about the victim has run out, the one fence
    // stands and nobody has judged the victim a second time.
    let rest = spec.detector.worst_case_detection().as_secs() * 2e3;
    sim.run_until(rest + 1.0, "the detectors' timers to run out", |s| {
        s.now.since(crashed_at).as_secs() * 1e3 >= rest
    });
    for i in [0, 1, 3, 4] {
        assert_eq!(verdicts(&sim, i, victim), by_evidence, "node{i}");
        assert_eq!(fences_seen_by(&sim, i, victim), [1], "node{i}");
    }
    assert!(sim.nodes.iter().flatten().all(|n| !n.saw_data_loss()));
}

#[test]
fn crashed_coordinator_is_fenced_by_the_next_member() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(1));
    let pre_crash = sim.node(0).committed().expect("committed").1.to_vec();

    sim.crash(0);
    sim.run_until(100.0, "the next member takes over", |s| {
        (1..5).all(|i| s.node(i).coordinator() == NodeId(1))
    });
    assert_eq!(fences_seen_by(&sim, 1, 0), [1]);
    sim.run_until(100.0, "old coordinator rebuilt into custody", |s| {
        s.node(1).custody_block(NodeId(0)).is_some()
    });
    assert_eq!(
        sim.node(1).custody_block(NodeId(0)).unwrap().1,
        &pre_crash[..]
    );
    assert_eq!(run_checkpoint(&mut sim, 1, 1000.0), Ok(2));
}

#[test]
fn silent_kill_reaches_no_verdict_before_its_timers() {
    // The same arc as the crash, minus the evidence: a partition or a dead
    // host closes nothing and refuses nothing.
    let spec = spec_k3_m2();
    let mut sim = Sim::new(spec.clone());
    sim.tick = None;
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(1));
    let victim = 2;
    let killed_at = sim.now;
    sim.kill(victim);
    sim.run_until(500.0, "coordinator confirms the victim", |s| {
        s.node(0).status().confirmed.contains(&NodeId(victim))
    });
    let [(suspected, Verdict::Suspected, false), (confirmed, Verdict::Confirmed, false)] =
        verdicts(&sim, 0, victim)[..]
    else {
        panic!("{:?}", verdicts(&sim, 0, victim));
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
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    let epoch = run_checkpoint(&mut sim, 0, 1000.0).expect("round 1");
    assert_eq!(epoch, 1);

    let pre1 = sim.node(1).committed().expect("node1 committed").1.to_vec();
    let pre2 = sim.node(2).committed().expect("node2 committed").1.to_vec();

    sim.kill(1);
    sim.kill(2);
    sim.run_until(3000.0, "both victims in custody", |s| {
        let n0 = s.node(0);
        n0.custody_block(NodeId(1)).is_some() && n0.custody_block(NodeId(2)).is_some()
    });
    assert_eq!(sim.node(0).custody_block(NodeId(1)).unwrap().1, &pre1[..]);
    assert_eq!(sim.node(0).custody_block(NodeId(2)).unwrap().1, &pre2[..]);
    assert!(!sim.node(0).saw_data_loss());

    // Degraded round still commits: custody stands in for both victims.
    let epoch = run_checkpoint(&mut sim, 0, 2000.0).expect("degraded round");
    assert!(epoch >= 2);
}

#[test]
fn three_failures_exceed_m2_and_surface_typed_data_loss() {
    let mut sim = Sim::new(spec_k3_m2());
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    run_checkpoint(&mut sim, 0, 1000.0).expect("round 1");

    sim.kill(1);
    sim.kill(2);
    sim.kill(3);
    // Every victim's rebuild must end in a typed DataLoss (never a panic,
    // never an eternal retry loop).
    sim.run_until(5000.0, "typed data loss for all three victims", |s| {
        s.notes
            .iter()
            .filter(|(_, n)| matches!(n, Note::DataLoss { .. }))
            .count()
            >= 3
    });
    assert!(sim.node(0).saw_data_loss());

    // A round cannot start with an unrebuildable member — typed, no hang.
    let err = run_checkpoint(&mut sim, 0, 1000.0).expect_err("round must fail");
    assert!(err.contains("not yet rebuilt"), "got: {err}");
}

#[test]
fn payload_overtaking_its_round_begin_is_parked_and_the_round_commits() {
    // No capture delay, and every block delivered ahead of the RoundBegin
    // that arrives with it: the coordinator's own block reaches both
    // holders before they have heard of the round.
    let mut sim = Sim::new(ClusterSpec {
        capture_delay: Duration::ZERO,
        ..spec_k3_m2()
    });
    sim.payloads_overtake = true;
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    for want in 1..=3u64 {
        assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(want));
    }
    for i in 0..5 {
        assert_eq!(sim.node(i).status().committed_epoch, 3, "node{i}");
    }
    // Parked, not dropped: nothing was discarded on the way.
    let drops = |sim: &Sim| {
        sim.notes
            .iter()
            .filter(|(_, n)| matches!(n, Note::PayloadDropped { .. }))
            .count()
    };
    assert_eq!(drops(&sim), 0, "{:?}", sim.notes);

    // A block for a round already over is still refused, and says so.
    let holder = 3;
    let stale = Msg::Payload {
        epoch: 2,
        source: NodeId(1),
        fence_epoch: 0,
        data: vec![0; sim.spec.image_len],
    };
    let now = sim.now;
    let actions = sim.nodes[holder]
        .as_mut()
        .expect("holder is live")
        .on_message(NodeId(1), stale, now);
    sim.apply(NodeId(holder), actions);
    assert!(matches!(
        sim.notes.last(),
        Some((n, Note::PayloadDropped { from, reason }))
            if *n == NodeId(holder) && *from == NodeId(1) && reason.contains("round 2 is not open")
    ));
    assert_eq!(drops(&sim), 1);
    assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(4));
}

#[test]
fn cluster_stepped_only_at_deadlines_commits_detects_on_time_and_rebuilds() {
    // No fixed tick: time jumps from one delivery or deadline to the next,
    // and a node is ticked only when its own deadline has come — what the
    // TCP runtime's event loop does with `recv_timeout`.
    let spec = spec_k3_m2();
    let mut sim = Sim::new(spec.clone());
    sim.tick = None;
    sim.run_until(500.0, "full mesh", |s| s.fully_meshed());
    for want in 1..=3u64 {
        assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(want));
    }
    for i in 0..5 {
        assert_eq!(sim.node(i).status().committed_epoch, 3, "node{i}");
    }

    // A silent node is confirmed dead within the detector's own bound:
    // no tick quantisation is added on top of it.
    let victim = 2;
    let pre_kill = sim.node(victim).committed().expect("committed").1.to_vec();
    let killed_at = sim.now;
    sim.kill(victim);
    sim.run_until(500.0, "coordinator confirms the victim", |s| {
        s.node(0).status().confirmed.contains(&NodeId(victim))
    });
    let took = sim.now.since(killed_at);
    let bound = spec.detector.worst_case_detection();
    assert!(took <= bound, "confirmed after {took}, bound {bound}");

    sim.run_until(1000.0, "victim rebuilt into custody", |s| {
        s.node(0).custody_block(NodeId(victim)).is_some()
    });
    assert_eq!(
        sim.node(0).custody_block(NodeId(victim)).unwrap().1,
        &pre_kill[..]
    );
    // Degraded round: custody stands in for the victim.
    assert_eq!(run_checkpoint(&mut sim, 0, 1000.0), Ok(4));
}
