//! In-process smoke test for the TCP runtime: three `NodeRuntime`s in
//! threads of one test process, talking over real loopback sockets, form
//! a k=2+m=1 group, and a `dvdc-ctl`-style client drives a checkpoint
//! round end to end. The full multi-*process* SIGKILL test lives in the
//! `dvdc-node` crate; this one keeps the runtime honest under plain
//! `cargo test` without spawning binaries.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Msg, Note, StatusView, CTL};
use dvdc_faults::detector::{DetectorConfig, Verdict};
use dvdc_observe::registry::MetricsHub;
use dvdc_simcore::time::Duration;
use dvdc_transport::frame::{read_frame, write_frame};
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_transport::wire::{decode_envelope, encode_envelope, read_envelope, write_envelope};
use dvdc_vcluster::ids::NodeId;

fn spec(capture_delay: Duration) -> ClusterSpec {
    ClusterSpec {
        cluster_id: 7,
        data_nodes: 2,
        parity_nodes: 1,
        image_len: 256,
        // Generous wall-clock windows: the test asserts liveness, not
        // latency, and CI machines stall.
        detector: DetectorConfig::from_millis(50.0, 250.0, 200.0),
        round_timeout: Duration::from_secs(3.0),
        rebuild_timeout: Duration::from_secs(3.0),
        // With no capture window, blocks race the RoundBegin on separate
        // connections, and holders must cope with losing that race.
        capture_delay,
    }
}

/// The benchmark's in-process detector: so slow (3 s to a confirmation)
/// that whatever a test sees confirmed sooner was confirmed on evidence.
fn patient_spec() -> ClusterSpec {
    ClusterSpec {
        detector: DetectorConfig::from_millis(200.0, 2000.0, 1000.0),
        ..spec(Duration::ZERO)
    }
}

/// One running member: how to stop it, and its thread.
struct Member {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

/// One runtime per member on ephemeral loopback ports, each in a thread.
struct Cluster {
    spec: ClusterSpec,
    addrs: Vec<SocketAddr>,
    /// `None` once stopped, and for a member the test plays itself.
    members: Vec<Option<Member>>,
    hubs: Vec<MetricsHub>,
    /// Every note of every member, as it is emitted.
    notes: Receiver<(usize, Instant, Note)>,
    note_tx: Sender<(usize, Instant, Note)>,
}

impl Cluster {
    fn launch(spec: &ClusterSpec) -> Cluster {
        let (cluster, _) = Cluster::launch_without(spec, None);
        cluster
    }

    /// Boots every member but `absent`, whose bound listener is handed
    /// back for the test to answer on.
    fn launch_without(spec: &ClusterSpec, absent: Option<usize>) -> (Cluster, Option<TcpListener>) {
        let n = spec.total();
        // Claim ephemeral ports first so every config can name every peer.
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect();
        let (note_tx, notes) = mpsc::channel();
        let mut cluster = Cluster {
            spec: spec.clone(),
            addrs,
            members: (0..n).map(|_| None).collect(),
            hubs: (0..n).map(|_| MetricsHub::new()).collect(),
            notes,
            note_tx,
        };
        let mut kept = None;
        for (i, listener) in listeners.into_iter().enumerate() {
            if absent == Some(i) {
                kept = Some(listener);
            } else {
                cluster.start(i, listener);
            }
        }
        (cluster, kept)
    }

    /// Starts member `i` on `listener`, with no state: a first boot, or a
    /// restart on the port of a stopped instance.
    fn start(&mut self, i: usize, listener: TcpListener) {
        let peers: Vec<(NodeId, SocketAddr)> = (0..self.addrs.len())
            .filter(|j| *j != i)
            .map(|j| (NodeId(j), self.addrs[j]))
            .collect();
        let mut config =
            RuntimeConfig::new(NodeId(i), self.spec.clone(), peers, 0xDECAF + i as u64);
        config.observe = ObserveConfig {
            metrics: self.hubs[i].clone(),
            ring: None,
        };
        let runtime = NodeRuntime::new(config, listener);
        let stop = Arc::new(AtomicBool::new(false));
        let (run_stop, note_tx) = (Arc::clone(&stop), self.note_tx.clone());
        let handle = std::thread::spawn(move || {
            let on_note = |_, note: &Note| {
                let _ = note_tx.send((i, Instant::now(), note.clone()));
            };
            runtime.run(run_stop, on_note).expect("runtime run");
        });
        self.members[i] = Some(Member { stop, handle });
    }

    /// Stops member `i` alone and waits for its `run` to return: from then
    /// on nothing listens on its port.
    fn stop(&mut self, i: usize) {
        let member = self.members[i].take().expect("member is running");
        member.stop.store(true, Ordering::Relaxed);
        member.handle.join().expect("runtime thread join");
    }

    fn counter(&self, i: usize, name: &str) -> u64 {
        self.hubs[i].snapshot().counter(name).unwrap_or(0)
    }

    /// Sets every `stop`, then waits for every `run` to return: what the
    /// benchmark's `LiveCluster::shutdown` does.
    fn shutdown(mut self) -> Vec<(usize, Instant, Note)> {
        let members: Vec<Member> = self.members.iter_mut().filter_map(Option::take).collect();
        for member in &members {
            member.stop.store(true, Ordering::Relaxed);
        }
        for member in members {
            member.handle.join().expect("runtime thread join");
        }
        self.notes.try_iter().collect()
    }
}

/// Polls `probe` every 2 ms until it yields, failing the test after 10 s.
fn wait_for<T>(what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + StdDuration::from_secs(10);
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(StdDuration::from_millis(2));
    }
}

fn wait_full_mesh(addrs: &[SocketAddr]) {
    for &addr in addrs {
        wait_for("the mesh", || {
            (status(addr).peers_established.len() == addrs.len() - 1).then_some(())
        });
    }
}

fn checkpoint(addr: SocketAddr) -> u64 {
    match ctl_request(addr, &Msg::CheckpointReq) {
        Msg::CheckpointDone { epoch } => epoch,
        other => panic!("expected CheckpointDone, got {other:?}"),
    }
}

fn ctl_request(addr: SocketAddr, msg: &Msg) -> Msg {
    let mut s = TcpStream::connect(addr).expect("ctl connect");
    s.set_read_timeout(Some(StdDuration::from_secs(10)))
        .expect("set timeout");
    write_frame(&mut s, &encode_envelope(CTL, msg)).expect("ctl send");
    let payload = read_frame(&mut s).expect("ctl reply frame");
    let (from, reply) = decode_envelope(&payload).expect("ctl reply envelope");
    assert_ne!(from, CTL, "reply must come from a member");
    reply
}

fn status(addr: SocketAddr) -> StatusView {
    match ctl_request(addr, &Msg::StatusReq) {
        Msg::StatusResp(view) => view,
        other => panic!("expected StatusResp, got {other:?}"),
    }
}

#[test]
fn three_process_style_runtimes_commit_a_round_over_loopback() {
    commit_a_round(Duration::ZERO);
}

#[test]
fn runtimes_commit_a_round_behind_a_10_ms_capture_window() {
    commit_a_round(Duration::from_millis(10.0));
}

fn commit_a_round(capture_delay: Duration) {
    let spec = spec(capture_delay);
    let cluster = Cluster::launch(&spec);
    let addrs = &cluster.addrs;

    wait_full_mesh(addrs);
    assert_eq!(status(addrs[0]).coordinator, NodeId(0));

    // Drive one checkpoint round through the coordinator.
    assert_eq!(checkpoint(addrs[0]), 1);

    // Every member (not just the coordinator) must have committed it.
    wait_for("the commit to reach every member", || {
        let committed = |a: &SocketAddr| status(*a).committed_epoch == 1;
        addrs.iter().all(committed).then_some(())
    });

    // A non-coordinator refuses ctl checkpoint requests with a typed
    // reason, not a hang.
    match ctl_request(addrs[1], &Msg::CheckpointReq) {
        Msg::CheckpointFailed { reason } => {
            assert!(reason.contains("not the coordinator"), "reason: {reason}");
        }
        other => panic!("expected CheckpointFailed, got {other:?}"),
    }

    cluster.shutdown();
}

#[test]
fn a_second_checkpoint_request_is_refused_and_the_first_hears_its_commit() {
    // A capture window long enough for a second request to land while the
    // first round is open.
    let cluster = Cluster::launch(&spec(Duration::from_millis(300.0)));
    let addrs = &cluster.addrs;
    wait_full_mesh(addrs);

    let mut first = TcpStream::connect(addrs[0]).expect("ctl connect");
    first
        .set_read_timeout(Some(StdDuration::from_secs(10)))
        .expect("set timeout");
    write_frame(&mut first, &encode_envelope(CTL, &Msg::CheckpointReq)).expect("ctl send");
    wait_for("round 1 to open", || {
        let started = |(i, _, note): (usize, Instant, Note)| {
            i == 0 && matches!(note, Note::RoundStarted { epoch: 1 })
        };
        cluster.notes.try_iter().any(started).then_some(())
    });
    match ctl_request(addrs[0], &Msg::CheckpointReq) {
        Msg::CheckpointFailed { reason } => {
            assert!(reason.contains("already open"), "reason: {reason}");
        }
        other => panic!("expected CheckpointFailed, got {other:?}"),
    }
    let payload = read_frame(&mut first).expect("the first request's outcome");
    let (_, outcome) = decode_envelope(&payload).expect("ctl reply envelope");
    assert_eq!(outcome, Msg::CheckpointDone { epoch: 1 });

    cluster.shutdown();
}

#[test]
fn stopped_runtime_returns_and_frees_its_port() {
    let cluster = Cluster::launch(&spec(Duration::ZERO));
    let addrs = cluster.addrs.clone();
    for addr in &addrs {
        status(*addr); // every accept thread is up and serving
    }
    let stopped = Instant::now();
    cluster.shutdown();
    // `run` only returns once its accept thread has closed the listener,
    // so the port can be bound again at once.
    for addr in &addrs {
        TcpListener::bind(addr).expect("port is free once run returns");
    }
    let took = stopped.elapsed();
    assert!(took < StdDuration::from_millis(200), "stop took {took:?}");
}

#[test]
fn idle_runtime_answers_ctl_on_a_fresh_connection_without_a_poll() {
    let cluster = Cluster::launch(&spec(Duration::ZERO));
    let addr = cluster.addrs[0];
    status(addr); // warm-up: the node is up
                  // Back-to-back requests, each on a new connection. An accept loop that
                  // polls on a sleep adds most of its period to every one of them, so
                  // even the fastest is slow; the minimum is immune to a loaded host.
    let fastest = (0..50)
        .map(|_| {
            let sent = Instant::now();
            status(addr);
            sent.elapsed()
        })
        .min()
        .expect("50 samples");
    assert!(fastest < StdDuration::from_millis(1), "fastest {fastest:?}");
    cluster.shutdown();
}

#[test]
fn stopped_runtime_is_confirmed_by_its_peers_on_link_evidence() {
    let mut cluster = Cluster::launch(&patient_spec());
    let addrs = cluster.addrs.clone();
    wait_full_mesh(&addrs);
    assert_eq!(checkpoint(addrs[0]), 1);

    cluster.stop(1);
    let stopped = Instant::now();
    wait_for("custody of the stopped member's block", || {
        status(addrs[0]).custody.contains(&NodeId(1)).then_some(())
    });
    let took = stopped.elapsed();
    // Closed connection, a refused dial, the heartbeat interval (200 ms)
    // the suspicion stands, two fetched blocks: not the 3 s this detector
    // takes to confirm a silent peer.
    assert!(took >= StdDuration::from_millis(200), "took {took:?}");
    assert!(took < StdDuration::from_millis(600), "took {took:?}");
    let view = status(addrs[0]);
    assert_eq!(view.confirmed, [NodeId(1)]);
    assert!(!view.data_loss);
    assert!(cluster.counter(0, "transport.peer_closed") >= 1);
    assert!(cluster.counter(0, "transport.peer_refused") >= 1);
    // The coordinator judged it on evidence and fenced it, once. The other
    // survivor has the same evidence or, if that came second, the fence.
    let notes = cluster.shutdown();
    let of = |node: usize| notes.iter().filter(move |(at, ..)| *at == node);
    let verdicts: Vec<(Verdict, bool)> = of(0)
        .filter_map(|(_, _, note)| match note {
            Note::PeerVerdict {
                verdict, evidence, ..
            } => Some((*verdict, *evidence)),
            _ => None,
        })
        .collect();
    assert_eq!(
        verdicts,
        [(Verdict::Suspected, true), (Verdict::Confirmed, true)]
    );
    for survivor in [0, 2] {
        let fenced = of(survivor).filter(|(_, _, note)| matches!(note, Note::Fenced { .. }));
        assert_eq!(fenced.count(), 1, "node {survivor}");
    }
}

#[test]
fn runtimes_stopped_together_judge_nobody_and_rebuild_nothing() {
    for _ in 0..5 {
        let cluster = Cluster::launch(&patient_spec());
        wait_full_mesh(&cluster.addrs);
        assert_eq!(checkpoint(cluster.addrs[0]), 1);
        // Each sees the others' connections close, and their ports refuse.
        let notes = cluster.shutdown();
        let alarming: Vec<_> = notes
            .iter()
            .filter(|(_, _, note)| {
                matches!(
                    note,
                    Note::PeerVerdict { .. } | Note::Fenced { .. } | Note::RebuildStarted { .. }
                )
            })
            .collect();
        assert!(alarming.is_empty(), "{alarming:?}");
    }
}

#[test]
fn ctl_clients_coming_and_going_are_not_link_events() {
    let cluster = Cluster::launch(&patient_spec());
    wait_full_mesh(&cluster.addrs);
    for _ in 0..20 {
        status(cluster.addrs[0]);
    }
    assert_eq!(cluster.counter(0, "transport.peer_closed"), 0);
    assert_eq!(cluster.counter(0, "transport.peer_refused"), 0);
    cluster.shutdown();
}

#[test]
fn peer_that_drops_its_connection_but_still_listens_is_not_confirmed() {
    // The test is member 2. It accepts whatever dials it and never closes,
    // like a peer whose process is up; what arrives lands in `inbox`.
    let spec = patient_spec();
    let (cluster, listener) = Cluster::launch_without(&spec, Some(2));
    let listener = listener.expect("member 2's listener");
    let (inbox_tx, inbox) = mpsc::channel();
    std::thread::spawn(move || {
        for mut conn in listener.incoming().flatten() {
            let inbox_tx = inbox_tx.clone();
            std::thread::spawn(move || {
                while let Ok(Ok(envelope)) = read_envelope(&mut conn) {
                    if inbox_tx.send(envelope).is_err() {
                        return;
                    }
                }
            });
        }
    });
    let hello = Msg::Hello {
        node: NodeId(2),
        cluster_id: spec.cluster_id,
        fence_epoch: 0,
        incarnation: 1,
    };
    // Says hello to node 0 on a new connection; node 0 answers on the one
    // it dials to us.
    let dial_in = || {
        let mut conn = TcpStream::connect(cluster.addrs[0]).expect("dial node 0");
        write_envelope(&mut conn, NodeId(2), &hello).expect("send hello");
        let welcome =
            |(from, msg): &(NodeId, Msg)| *from == NodeId(0) && matches!(msg, Msg::Welcome { .. });
        wait_for("node 0's welcome", || inbox.try_iter().find(welcome));
        conn
    };

    let outbound = dial_in();
    // Node 0 has then dialed everyone it will: us, and node 1.
    wait_for("node 0's sessions", || {
        (status(cluster.addrs[0]).peers_established == [NodeId(1), NodeId(2)]).then_some(())
    });
    let dials_before = cluster.counter(0, "transport.connects");

    // Drop only our connection to node 0. It sees that close, dials us, is
    // accepted, and so has no evidence of anything.
    drop(outbound);
    wait_for("node 0's dial after the close", || {
        let dialed = cluster.counter(0, "transport.connects") > dials_before;
        (dialed && cluster.counter(0, "transport.peer_closed") == 1).then_some(())
    });
    std::thread::sleep(StdDuration::from_millis(50)); // nothing to wait *for*
    let view = status(cluster.addrs[0]);
    assert!(view.confirmed.is_empty() && view.suspected.is_empty());
    assert!(view.peers_established.contains(&NodeId(2)));
    assert_eq!(cluster.counter(0, "transport.peer_refused"), 0);

    // The link re-establishes: a new dial is answered as the first was.
    let _outbound = dial_in();
    cluster.shutdown();
}

#[test]
fn restart_inside_the_holdoff_is_rejected_at_once() {
    let mut cluster = Cluster::launch(&patient_spec());
    let addrs = cluster.addrs.clone();
    wait_full_mesh(&addrs);
    assert_eq!(checkpoint(addrs[0]), 1);
    cluster.stop(1);
    wait_for("custody of the stopped member's block", || {
        status(addrs[0]).custody.contains(&NodeId(1)).then_some(())
    });

    // Both survivors' writers to member 1 are now inside the 200 ms holdoff
    // their refused dials earned. The new instance's first hello must get
    // its `Rejected` through it, not a retry later.
    let restarted = Instant::now();
    let listener = TcpListener::bind(addrs[1]).expect("the stopped member freed its port");
    cluster.start(1, listener);
    let rejected = wait_for("the restarted member to be rejected", || {
        let is_rejection = |(at, _, note): &(usize, Instant, Note)| {
            *at == 1 && matches!(note, Note::HelloRejected { .. })
        };
        cluster
            .notes
            .try_iter()
            .find(is_rejection)
            .map(|(_, when, _)| when)
    });
    let took = rejected.duration_since(restarted);
    assert!(took < StdDuration::from_millis(50), "took {took:?}");
    // And it resyncs its way back in.
    wait_for("the restarted member to rejoin", || {
        let view = status(addrs[1]);
        (view.fence_epoch == 1 && view.committed_epoch == 1).then_some(())
    });
    cluster.shutdown();
}
