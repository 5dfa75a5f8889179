//! Adapter for the real-process cluster: `dvdc-node` daemons spawned, killed
//! and queried the way `crates/node/tests/process_cluster.rs` does it. Every
//! call that touches the daemon binary or its ctl plane for `recovery_4m` is
//! in this file.

use std::fs::File;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::{DigestSource, Msg, StatusView};
use dvdc_node::{ctl_metrics, ctl_request, ctl_status};
use dvdc_observe::registry::MetricsSnapshot;
use dvdc_vcluster::ids::NodeId;

use crate::live::{CAPTURE_DELAY_MS, ROUND_TIMEOUT_MS, RPC};
use crate::procfs;

/// What [`build_daemon`] runs at the repository root, and what its errors
/// tell the reader to run by hand.
pub const BUILD_COMMAND: &str = "cargo build --release --offline -p dvdc-node --bin dvdc-node";

/// The directory Cargo put this executable's target tree in.
pub fn target_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    exe.parent()
        .and_then(Path::parent)
        .map(Path::to_path_buf)
        .ok_or_else(|| format!("{} is not inside a target directory", exe.display()))
}

/// Builds `dvdc-node` from the repository this benchmark was compiled in,
/// into this executable's own target directory, and returns its path. A
/// no-op when it is up to date, so a run never measures a stale daemon.
pub fn build_daemon() -> Result<PathBuf, String> {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository");
    let target = target_dir()?;
    let explain = |what: String| {
        format!(
            "{what}; build the daemon with `{BUILD_COMMAND}` from {}",
            repo.display()
        )
    };
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(BUILD_COMMAND.split(' ').skip(1))
        .arg("--quiet")
        .arg("--target-dir")
        .arg(&target)
        .current_dir(repo)
        .stdout(Stdio::null())
        .status()
        .map_err(|e| explain(format!("cannot run cargo: {e}")))?;
    if !status.success() {
        return Err(explain(format!("cargo failed with {status}")));
    }
    let bin = target.join("release").join("dvdc-node");
    if !bin.is_file() {
        return Err(explain(format!("{} is missing", bin.display())));
    }
    Ok(bin)
}

/// Claims ephemeral ports, then releases them for the daemons. std sets
/// `SO_REUSEADDR`, and the daemon retries `AddrInUse`, so the hand-off and
/// the later same-port restart are safe.
fn reserve_ports(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("listener address"))
        .collect()
}

pub struct DaemonCluster {
    bin: PathBuf,
    pub addrs: Vec<SocketAddr>,
    children: Vec<Option<Child>>,
    cluster_id: u64,
    k: usize,
    m: usize,
    image_len: usize,
    log_dir: PathBuf,
    spawned: usize,
    /// Set once the run has passed; the logs are kept otherwise.
    pub passed: bool,
    /// CPU time and peak memory of daemons that are already dead.
    reaped_cpu_ms: f64,
    reaped_peak_rss_mib: f64,
}

impl DaemonCluster {
    /// Spawns `k + m` daemons with the flags of `process_cluster.rs`, but the
    /// short capture window of the in-process workloads, because nothing is
    /// killed inside it here.
    pub fn boot(
        bin: &Path,
        cluster_id: u64,
        k: usize,
        m: usize,
        image_len: usize,
    ) -> Result<DaemonCluster, String> {
        let log_dir = target_dir()?.join("bench_tmp").join(format!(
            "daemons-{}-{:.6}",
            std::process::id(),
            crate::trace::now_s()
        ));
        std::fs::create_dir_all(&log_dir)
            .map_err(|e| format!("cannot create {}: {e}", log_dir.display()))?;
        let mut cluster = DaemonCluster {
            bin: bin.to_path_buf(),
            addrs: reserve_ports(k + m),
            children: Vec::new(),
            cluster_id,
            k,
            m,
            image_len,
            log_dir,
            spawned: 0,
            passed: false,
            reaped_cpu_ms: 0.0,
            reaped_peak_rss_mib: 0.0,
        };
        for id in 0..k + m {
            cluster.children.push(None);
            cluster.spawn(id)?;
        }
        Ok(cluster)
    }

    /// Starts (or restarts, on the same port and with no state) daemon `id`.
    pub fn spawn(&mut self, id: usize) -> Result<(), String> {
        assert!(
            self.children[id].is_none(),
            "daemon {id} is already running"
        );
        let addr_list = self
            .addrs
            .iter()
            .map(SocketAddr::to_string)
            .collect::<Vec<_>>()
            .join(",");
        self.spawned += 1;
        let log_path = self.log_dir.join(format!("node-{id}-{}.log", self.spawned));
        let log = File::create(&log_path)
            .map_err(|e| format!("cannot create {}: {e}", log_path.display()))?;
        let child = Command::new(&self.bin)
            .args(["--id", &id.to_string()])
            .args(["--cluster-id", &self.cluster_id.to_string()])
            .args(["--data", &self.k.to_string()])
            .args(["--parity", &self.m.to_string()])
            .args(["--image-len", &self.image_len.to_string()])
            .args(["--addrs", &addr_list])
            .args(["--hb-ms", "50", "--timeout-ms", "250", "--grace-ms", "200"])
            .args(["--round-ms", &ROUND_TIMEOUT_MS.to_string()])
            .args(["--rebuild-ms", "30000"])
            .args(["--capture-ms", &CAPTURE_DELAY_MS.to_string()])
            .args([
                "--seed",
                &self.cluster_id.wrapping_add(id as u64).to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", self.bin.display()))?;
        self.children[id] = Some(child);
        Ok(())
    }

    /// SIGKILLs daemon `id` and reaps it.
    pub fn kill(&mut self, id: usize) {
        let Some(mut child) = self.children[id].take() else {
            return;
        };
        self.reaped_cpu_ms += procfs::cpu_ms(child.id()).unwrap_or(0.0);
        self.reaped_peak_rss_mib = self
            .reaped_peak_rss_mib
            .max(procfs::peak_rss_mib(child.id()).unwrap_or(0.0));
        // Already dead is fine; a zombie must still be reaped.
        let _ = child.kill();
        let _ = child.wait();
    }

    fn running(&self) -> impl Iterator<Item = u32> + '_ {
        self.children.iter().flatten().map(Child::id)
    }

    /// CPU milliseconds used by every daemon this cluster ever ran.
    pub fn cpu_ms(&self) -> f64 {
        self.reaped_cpu_ms + self.running().filter_map(procfs::cpu_ms).sum::<f64>()
    }

    /// The largest `VmHWM` any daemon of this cluster reached.
    pub fn peak_rss_mib(&self) -> f64 {
        self.running()
            .filter_map(procfs::peak_rss_mib)
            .fold(self.reaped_peak_rss_mib, f64::max)
    }

    pub fn status(&self, node: usize) -> Result<StatusView, String> {
        ctl_status(self.addrs[node], RPC)
    }

    pub fn metrics(&self, node: usize) -> Result<MetricsSnapshot, String> {
        ctl_metrics(self.addrs[node], RPC)
    }

    /// Asks daemon `at` for the digest of `of`'s committed block.
    pub fn digest(&self, at: usize, of: usize) -> Result<(u64, u64, DigestSource), String> {
        match ctl_request(self.addrs[at], &Msg::DigestReq { node: NodeId(of) }, RPC)? {
            Msg::DigestResp {
                epoch,
                digest,
                source,
                ..
            } => Ok((epoch, digest, source)),
            other => Err(format!("unexpected digest reply: {other:?}")),
        }
    }

    /// Whether daemon `at`'s detector has confirmed `of` dead.
    pub fn confirmed_dead(&self, at: usize, of: usize) -> Result<bool, String> {
        match ctl_request(self.addrs[at], &Msg::KillQueryReq, RPC)? {
            Msg::KillQueryResp { confirmed, .. } => Ok(confirmed.contains(&NodeId(of))),
            other => Err(format!("unexpected kill-query reply: {other:?}")),
        }
    }
}

impl Drop for DaemonCluster {
    /// Runs on panic too, so no daemon outlives the benchmark.
    fn drop(&mut self) {
        for id in 0..self.children.len() {
            self.kill(id);
        }
        if self.passed {
            let _ = std::fs::remove_dir_all(&self.log_dir);
        } else {
            eprintln!("daemon logs kept in {}", self.log_dir.display());
        }
    }
}

/// Polls `probe` every few milliseconds until it yields a value; the error
/// names `what` and the last thing seen.
pub fn poll_until<T>(
    what: &str,
    deadline: StdDuration,
    mut probe: impl FnMut() -> Result<Option<T>, String>,
) -> Result<T, String> {
    let end = Instant::now() + deadline;
    loop {
        let last = match probe() {
            Ok(Some(value)) => return Ok(value),
            Ok(None) => "not yet".to_owned(),
            Err(e) => e,
        };
        if Instant::now() >= end {
            return Err(format!("timed out waiting for {what}: {last}"));
        }
        std::thread::sleep(StdDuration::from_millis(2));
    }
}
