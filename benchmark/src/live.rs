//! Adapter for the in-process cluster: one `NodeRuntime` per node on its own
//! loopback TCP port, exactly the daemon's transport, driven through the ctl
//! plane. Every call into `dvdc-transport` and `NodeCore` for the `live_*`
//! workloads is in this file.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{ClusterSpec, Msg, Note, StatusView};
use dvdc_faults::detector::DetectorConfig;
use dvdc_node::{ctl_request, ctl_status, NodeMetrics};
use dvdc_observe::registry::{MetricsHub, MetricsSnapshot};
use dvdc_simcore::time::Duration;
use dvdc_transport::runtime::{NodeRuntime, ObserveConfig, RuntimeConfig};
use dvdc_vcluster::ids::NodeId;

use crate::trace::now_s;

/// Bounds every ctl round trip; a round that stalls fails typed at the
/// round timeout well before this.
pub const RPC: StdDuration = StdDuration::from_secs(60);

/// The capture window of every live workload, daemons included. A holder
/// silently discards a `Payload` that reaches it before the coordinator's
/// `RoundBegin` does (they travel on different connections), and the round
/// then stalls until its timeout; the capture window is the only thing that
/// orders the two. With four busy loops beside the benchmark on this
/// two-core host the race costs about one round in 3 000 at 5 ms and one in
/// 30 000 at 10 ms; 30 ms is no better than 10, so longer stalls than these
/// have another cause and no window rules them out.
pub const CAPTURE_DELAY_MS: u32 = 10;

/// After this long the coordinator aborts a round and answers
/// `CheckpointFailed`. A round takes a tenth of a second at most; with the
/// product's 30 s one lost round would outlast the run that meets it.
pub const ROUND_TIMEOUT_MS: u32 = 2000;

/// The reason the coordinator gives for that abort.
pub const ROUND_TIMED_OUT: &str = "round timed out";

/// The pinned configuration of every in-process workload. A generous
/// detector, because one process schedules five runtimes' threads on two
/// cores and must not confirm anyone dead mid-run; and [`CAPTURE_DELAY_MS`].
pub fn cluster_spec(cluster_id: u64, k: usize, m: usize, image_len: usize) -> ClusterSpec {
    ClusterSpec {
        cluster_id,
        data_nodes: k,
        parity_nodes: m,
        image_len,
        detector: DetectorConfig::from_millis(200.0, 2000.0, 1000.0),
        round_timeout: Duration::from_millis(ROUND_TIMEOUT_MS as f64),
        rebuild_timeout: Duration::from_millis(30_000.0),
        capture_delay: Duration::from_millis(CAPTURE_DELAY_MS as f64),
    }
}

/// The protocol notes the traced run turns into spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mark {
    RoundStarted,
    CaptureShipped,
    RoundCommitted,
}

/// One note, stamped with the benchmark's own clock as it was emitted.
#[derive(Debug, Clone, Copy)]
pub struct Stamp {
    pub at_s: f64,
    pub mark: Mark,
    pub epoch: u64,
}

pub struct LiveCluster {
    pub addrs: Vec<SocketAddr>,
    stops: Vec<Arc<AtomicBool>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    hubs: Vec<MetricsHub>,
    stamps: Arc<Mutex<Vec<Stamp>>>,
}

impl LiveCluster {
    /// Boots `spec.total()` runtimes. `traced` gives every node a live
    /// `MetricsHub` fed by `NodeMetrics` and stamps round notes; untraced
    /// nodes run the deployment default, a no-op hub.
    pub fn launch(spec: &ClusterSpec, seed: u64, traced: bool) -> LiveCluster {
        let n = spec.total();
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
            .collect();
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr().expect("listener address"))
            .collect();
        let stamps = Arc::new(Mutex::new(Vec::new()));
        let mut cluster = LiveCluster {
            addrs: addrs.clone(),
            stops: Vec::new(),
            handles: Vec::new(),
            hubs: Vec::new(),
            stamps: Arc::clone(&stamps),
        };
        for (id, listener) in listeners.into_iter().enumerate() {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != id)
                .map(|(i, a)| (NodeId(i), *a))
                .collect();
            let mut config = RuntimeConfig::new(
                NodeId(id),
                spec.clone(),
                peers,
                seed.wrapping_add(id as u64),
            );
            let hub = if traced {
                MetricsHub::new()
            } else {
                MetricsHub::noop()
            };
            config.observe = ObserveConfig {
                metrics: hub.clone(),
                ring: None,
            };
            let stop = Arc::new(AtomicBool::new(false));
            let runtime = NodeRuntime::new(config, listener);
            let mut metrics = NodeMetrics::new(&hub);
            let stamps = Arc::clone(&stamps);
            let run_stop = Arc::clone(&stop);
            cluster.handles.push(std::thread::spawn(move || {
                runtime
                    .run(run_stop, move |at, note| {
                        if !traced {
                            return;
                        }
                        metrics.observe(at, note);
                        let (mark, epoch) = match note {
                            Note::RoundStarted { epoch } => (Mark::RoundStarted, *epoch),
                            Note::CaptureShipped { epoch, .. } => (Mark::CaptureShipped, *epoch),
                            Note::RoundCommitted { epoch } => (Mark::RoundCommitted, *epoch),
                            _ => return,
                        };
                        stamps.lock().expect("stamp log poisoned").push(Stamp {
                            at_s: now_s(),
                            mark,
                            epoch,
                        });
                    })
                    .expect("node runtime");
            }));
            cluster.stops.push(stop);
            cluster.hubs.push(hub);
        }
        cluster
    }

    pub fn status(&self, node: usize) -> Result<StatusView, String> {
        ctl_status(self.addrs[node], RPC)
    }

    /// Every node's registry merged into one snapshot.
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for hub in &self.hubs {
            merged.merge(&hub.snapshot());
        }
        merged
    }

    pub fn take_stamps(&self) -> Vec<Stamp> {
        std::mem::take(&mut *self.stamps.lock().expect("stamp log poisoned"))
    }

    pub fn shutdown(self) {
        for stop in &self.stops {
            stop.store(true, Ordering::Relaxed);
        }
        for handle in self.handles {
            handle.join().expect("node thread panicked");
        }
    }
}

/// One checkpoint round through the coordinator's ctl port, on a fresh
/// connection, which is how `dvdc-ctl` behaves.
pub fn checkpoint(coordinator: SocketAddr) -> Result<u64, String> {
    match ctl_request(coordinator, &Msg::CheckpointReq, RPC)? {
        Msg::CheckpointDone { epoch } => Ok(epoch),
        Msg::CheckpointFailed { reason } => Err(reason),
        other => Err(format!("unexpected checkpoint reply: {other:?}")),
    }
}

/// Waits until every node reports a session with every other node.
pub fn wait_full_mesh(addrs: &[SocketAddr], deadline: StdDuration) -> Result<(), String> {
    let end = Instant::now() + deadline;
    for &addr in addrs {
        loop {
            let last = match ctl_status(addr, StdDuration::from_secs(2)) {
                Ok(view) if view.peers_established.len() == addrs.len() - 1 => break,
                Ok(view) => format!(
                    "{} of {} peers",
                    view.peers_established.len(),
                    addrs.len() - 1
                ),
                Err(e) => e,
            };
            if Instant::now() >= end {
                return Err(format!("mesh never formed at {addr}: {last}"));
            }
            std::thread::sleep(StdDuration::from_millis(5));
        }
    }
    Ok(())
}
