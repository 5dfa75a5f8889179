//! The tentpole end-to-end test: a real 5-process DVDC cluster on
//! loopback TCP survives SIGKILL.
//!
//! Five `dvdc-node` daemons (k=4 data + m=1 XOR parity) are spawned as
//! genuine OS processes. The test drives checkpoint rounds through the
//! ctl plane, SIGKILLs a data node in the middle of a round's capture
//! window, and asserts the paper's whole recovery arc over real sockets:
//! the round aborts with a typed reason, survivors confirm the death on
//! link evidence (the victim's connections close and its port refuses a
//! redial) well inside the heartbeat timeout, the coordinator rebuilds the victim's committed
//! block byte-exactly from parity (digest-verified), a degraded round
//! commits, and the restarted (empty — diskless) process rejoins through
//! fence/resync with a post-fence epoch. Then a second data node is
//! SIGKILLed between rounds, and the coordinator's trace shows its
//! rebuild opened while the suspicion stood; its metrics are written to
//! the log directory as `coordinator-metrics.json`. Zero panics, all failures
//! typed. Each daemon's peak resident set (`VmHWM`), read before each
//! SIGKILL and at the end, is written there as `daemon-peaks.json`: a
//! report of which daemon sets the cluster's peak, not an assertion.

use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use dvdc::protocol::node_core::{DigestSource, Msg, StatusView, PART_LEN};
use dvdc_node::{ctl_metrics, ctl_request, ctl_status, ctl_trace_tail, format_status};
use dvdc_observe::{Event, MetricsSnapshot};
use dvdc_vcluster::ids::NodeId;

const N: usize = 5; // k=4 + m=1
const VICTIM: usize = 2;
/// Killed between rounds once the first victim is back.
const SECOND_VICTIM: usize = 3;
/// The daemons' `--hb-ms`: how long an evidence suspicion stands.
const HEARTBEAT: Duration = Duration::from_millis(50);
const CLUSTER_ID: u64 = 99;
const RPC: Duration = Duration::from_secs(30);
/// Three whole parts and a ragged fourth: every block crosses the sockets
/// as `PayloadPart`s and `FetchPart`s before the message that closes it.
const IMAGE_LEN: usize = 3 * PART_LEN + 4_099;

/// Kills every still-running daemon when the test unwinds, so a failed
/// assertion never leaks orphan processes.
struct ClusterGuard {
    children: Vec<Option<Child>>,
    log_dir: PathBuf,
    /// Each daemon's `VmHWM` in kB, one reading per incarnation ended.
    peaks: Vec<Vec<u64>>,
}

/// The peak resident set of process `pid` in kB, from `/proc`.
fn vm_hwm(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

impl ClusterGuard {
    fn kill(&mut self, id: usize) {
        if let Some(child) = self.children[id].as_mut() {
            self.peaks[id].extend(vm_hwm(child.id()));
            child.kill().expect("SIGKILL");
            child.wait().expect("reap");
        }
        self.children[id] = None;
    }

    /// Reads every running daemon's `VmHWM` and writes all readings to
    /// `daemon-peaks.json`: per daemon, one per incarnation, in kB.
    fn write_peaks(&mut self) {
        for (child, peaks) in self.children.iter().zip(&mut self.peaks) {
            peaks.extend(child.as_ref().and_then(|c| vm_hwm(c.id())));
        }
        let daemons: Vec<String> = (self.peaks.iter().enumerate())
            .map(|(id, kb)| format!("{{\"id\": {id}, \"vm_hwm_kb\": {kb:?}}}"))
            .collect();
        let json = format!("{{\"daemons\": [{}]}}\n", daemons.join(", "));
        let path = self.log_dir.join("daemon-peaks.json");
        std::fs::write(&path, json).expect("write the daemons' peaks");
    }
}

impl Drop for ClusterGuard {
    fn drop(&mut self) {
        for id in 0..self.children.len() {
            self.kill(id);
        }
        if std::thread::panicking() {
            eprintln!("node logs kept in {}", self.log_dir.display());
        }
    }
}

fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    // Claim ephemeral ports, then release them for the daemons. std's
    // TcpListener sets SO_REUSEADDR on unix, and the daemon retries
    // AddrInUse, so the hand-off (and the later same-port restart) is
    // safe.
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect()
}

fn log_dir() -> PathBuf {
    let dir = match std::env::var("DVDC_PROC_LOG_DIR") {
        Ok(d) => PathBuf::from(d),
        Err(_) => std::env::temp_dir().join(format!("dvdc-proc-{}", std::process::id())),
    };
    std::fs::create_dir_all(&dir).expect("create log dir");
    dir
}

fn spawn_node(id: usize, addrs: &[SocketAddr], log_dir: &Path, restarted: bool) -> Child {
    let addr_list = addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let suffix = if restarted { "-restarted" } else { "" };
    let log = File::create(log_dir.join(format!("node-{id}{suffix}.log"))).expect("log file");
    Command::new(env!("CARGO_BIN_EXE_dvdc-node"))
        .args([
            "--id",
            &id.to_string(),
            "--cluster-id",
            &CLUSTER_ID.to_string(),
            "--data",
            "4",
            "--parity",
            "1",
            "--image-len",
            &IMAGE_LEN.to_string(),
            "--addrs",
            &addr_list,
            "--hb-ms",
            &HEARTBEAT.as_millis().to_string(),
            "--timeout-ms",
            "250",
            "--grace-ms",
            "200",
            "--round-ms",
            "10000",
            "--rebuild-ms",
            "5000",
            // The capture window: wide enough to land a SIGKILL inside
            // mid-round deterministically.
            "--capture-ms",
            "600",
            "--seed",
            &(7 + id as u64).to_string(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::from(log))
        .spawn()
        .expect("spawn dvdc-node")
}

fn poll_status<F>(addr: SocketAddr, what: &str, deadline: Duration, pred: F) -> StatusView
where
    F: Fn(&StatusView) -> bool,
{
    let end = Instant::now() + deadline;
    let mut last;
    loop {
        match ctl_status(addr, Duration::from_secs(2)) {
            Ok(view) => {
                if pred(&view) {
                    return view;
                }
                last = format_status(&view);
            }
            Err(e) => last = e,
        }
        assert!(
            Instant::now() < end,
            "timed out waiting for {what}; last: {last}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

fn checkpoint(addr: SocketAddr) -> Result<u64, String> {
    match ctl_request(addr, &Msg::CheckpointReq, RPC)? {
        Msg::CheckpointDone { epoch } => Ok(epoch),
        Msg::CheckpointFailed { reason } => Err(reason),
        other => Err(format!("unexpected reply: {other:?}")),
    }
}

fn digest(addr: SocketAddr, node: usize) -> (u64, u64, DigestSource) {
    match ctl_request(addr, &Msg::DigestReq { node: NodeId(node) }, RPC) {
        Ok(Msg::DigestResp {
            epoch,
            digest,
            source,
            ..
        }) => (epoch, digest, source),
        other => panic!("digest of node {node}: {other:?}"),
    }
}

fn ctl_bin(addr: SocketAddr, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dvdc-ctl"))
        .arg(addr.to_string())
        .args(args)
        .output()
        .expect("run dvdc-ctl");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn five_process_cluster_survives_sigkill_and_victim_rejoins() {
    let addrs = reserve_ports(N);
    let log_dir = log_dir();
    let mut cluster = ClusterGuard {
        children: (0..N)
            .map(|id| Some(spawn_node(id, &addrs, &log_dir, false)))
            .collect(),
        log_dir: log_dir.clone(),
        peaks: vec![Vec::new(); N],
    };

    // Mesh formation, checked through the real dvdc-ctl binary.
    let (ok, out) = ctl_bin(addrs[0], &["wait-live", "4", "60"]);
    assert!(ok, "wait-live failed: {out}");
    assert!(out.contains("coordinator=0"), "status line: {out}");

    // Two clean rounds; every member converges on epoch 2.
    assert_eq!(checkpoint(addrs[0]).expect("round 1"), 1);
    assert_eq!(checkpoint(addrs[0]).expect("round 2"), 2);
    for addr in &addrs {
        poll_status(*addr, "epoch 2 everywhere", Duration::from_secs(20), |v| {
            v.committed_epoch == 2
        });
    }

    // The victim's committed block, digested before the murder.
    let (pre_epoch, pre_digest, pre_source) = digest(addrs[VICTIM], VICTIM);
    assert_eq!(pre_epoch, 2);
    assert_eq!(pre_source, DigestSource::Committed);

    // Open round 3 and SIGKILL the victim inside its capture window.
    let coordinator = addrs[0];
    let round3 = std::thread::spawn(move || checkpoint(coordinator));
    std::thread::sleep(Duration::from_millis(250));
    cluster.kill(VICTIM);
    let err = round3
        .join()
        .expect("round-3 thread")
        .expect_err("round must abort, not commit over a corpse");
    assert!(
        err.contains("confirmed failed") || err.contains("timed out"),
        "abort reason must be typed: {err}"
    );

    // The coordinator has confirmed the death, and not by waiting out
    // 450 ms of missed heartbeats: the victim's kernel closed its
    // connections and refused the redial, and that is what the detector
    // acted on. Counted, not timed, so a slow host cannot fail it.
    match ctl_request(addrs[0], &Msg::KillQueryReq, RPC).expect("kill-query") {
        Msg::KillQueryResp { confirmed, .. } => {
            assert!(
                confirmed.contains(&NodeId(VICTIM)),
                "confirmed: {confirmed:?}"
            )
        }
        other => panic!("unexpected kill-query reply: {other:?}"),
    }
    let metrics = ctl_metrics(addrs[0], RPC).expect("coordinator metrics");
    let count = |name: &str| metrics.counter(name).unwrap_or(0);
    assert_eq!(count("faults.detector.confirmed_by_evidence"), 1);
    assert_eq!(count("faults.detector.confirmed_by_timeout"), 0);
    assert!(count("transport.peer_closed") >= 1 && count("transport.peer_refused") >= 1);

    // The coordinator rebuilds the victim's block from parity,
    // byte-exact (same block digest, same epoch), into custody.
    poll_status(
        addrs[0],
        "custody of the victim",
        Duration::from_secs(30),
        |v| v.custody.contains(&NodeId(VICTIM)),
    );
    let (cust_epoch, cust_digest, cust_source) = digest(addrs[0], VICTIM);
    assert_eq!(cust_source, DigestSource::Custody);
    assert_eq!(cust_epoch, pre_epoch);
    assert_eq!(cust_digest, pre_digest, "rebuilt block must be byte-exact");

    // A degraded round commits with the coordinator shipping the
    // custody block in the victim's slot.
    let degraded = checkpoint(addrs[0]).expect("degraded round");
    assert!(degraded >= 3, "degraded round epoch: {degraded}");

    // Restart the victim: same flags, same port, zero state (diskless).
    // It must be rejected as pre-fence, resync through the coordinator,
    // and come back with a post-fence epoch.
    cluster.children[VICTIM] = Some(spawn_node(VICTIM, &addrs, &log_dir, true));
    let rejoined = poll_status(
        addrs[VICTIM],
        "victim rejoin",
        Duration::from_secs(60),
        |v| {
            v.fence_epoch >= 1
                && v.committed_epoch >= degraded
                && v.peers_established.len() == N - 1
        },
    );
    assert!(
        rejoined.fence_epoch >= 1,
        "rejoin must carry a post-fence epoch"
    );
    // Cluster-wide: custody released, full membership restored.
    poll_status(addrs[0], "custody released", Duration::from_secs(30), |v| {
        v.custody.is_empty() && v.peers_established.len() == N - 1
    });

    // One more full-strength round; the whole cluster agrees, and no
    // node ever saw data loss.
    let last = checkpoint(addrs[0]).expect("post-rejoin round");
    assert!(last > degraded);
    for addr in &addrs {
        let view = poll_status(*addr, "final convergence", Duration::from_secs(20), |v| {
            v.committed_epoch == last
        });
        assert!(!view.data_loss, "no data loss on {}", view.node.0);
    }

    // The restarted victim's state is real reconstructed data, not a
    // lucky default: its committed digest now matches the cluster's
    // post-rollback epoch, served from its own process.
    let (final_epoch, _, final_source) = digest(addrs[VICTIM], VICTIM);
    assert_eq!(final_epoch, last);
    assert_eq!(final_source, DigestSource::Committed);

    // A second SIGKILL, between rounds: the coordinator fetches and
    // decodes while the evidence suspicion stands, and the verdict a
    // heartbeat interval later installs the block. So the rebuild span
    // opens at the suspicion and lasts at least the interval.
    let (pre_epoch, pre_digest, _) = digest(addrs[SECOND_VICTIM], SECOND_VICTIM);
    assert_eq!(pre_epoch, last);
    let before = ctl_metrics(addrs[0], RPC).expect("coordinator metrics");
    cluster.kill(SECOND_VICTIM);
    poll_status(
        addrs[0],
        "custody of the second victim",
        Duration::from_secs(30),
        |v| v.custody.contains(&NodeId(SECOND_VICTIM)),
    );
    assert_eq!(
        digest(addrs[0], SECOND_VICTIM),
        (pre_epoch, pre_digest, DigestSource::Custody)
    );
    let after = ctl_metrics(addrs[0], RPC).expect("coordinator metrics");
    let path = log_dir.join("coordinator-metrics.json");
    std::fs::write(&path, after.to_json()).expect("write the coordinator's metrics");
    let counted = |name: &str| {
        let count = |m: &MetricsSnapshot| m.counter(name).unwrap_or(0);
        count(&after) - count(&before)
    };
    assert_eq!(counted("faults.detector.confirmed_by_evidence"), 1);
    assert_eq!(counted("node.rebuilds_completed"), 1);
    let spent = |name: &str| {
        let sum = |m: &MetricsSnapshot| m.histogram(name).map_or(0, |h| h.sum);
        Duration::from_nanos(sum(&after) - sum(&before))
    };
    let total = spent("node.rebuild_total_ns");
    assert!(total >= HEARTBEAT, "rebuild span {total:?}");
    // The rebuild opened at the suspicion: the coordinator's trace has its
    // `RebuildBegin` after the second victim's `Suspected` and before its
    // `Confirmed`, whatever the fetch took.
    let tail = ctl_trace_tail(addrs[0], 0, RPC).expect("coordinator trace tail");
    let victim = SECOND_VICTIM;
    let seq = |want: &dyn Fn(&Event) -> bool| {
        let hit = tail.events.iter().rev().find(|e| want(&e.event));
        hit.unwrap_or_else(|| panic!("missing in {:?}", tail.events))
            .seq
    };
    let suspected = seq(&|e| matches!(e, Event::Suspected { node } if *node == victim));
    let begun = seq(&|e| matches!(e, Event::RebuildBegin { victim: v, .. } if *v == victim));
    let confirmed = seq(&|e| matches!(e, Event::Confirmed { node } if *node == victim));
    assert!(
        suspected < begun && begun < confirmed,
        "Suspected #{suspected}, RebuildBegin #{begun}, Confirmed #{confirmed}"
    );
    cluster.write_peaks();
}
