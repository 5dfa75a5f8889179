//! One run of one workload: set up, measure for the given time with one
//! closed-loop client, check every output, and turn the samples into the
//! metrics `BENCHMARK.json` names plus the workload's own breakdown.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration as StdDuration, Instant};

use dvdc::protocol::node_core::DigestSource;
use dvdc_observe::registry::MetricsSnapshot;

use crate::daemon::{self, poll_until, DaemonCluster};
use crate::json::Json;
use crate::layers;
use crate::live::{self, LiveCluster, Mark};
use crate::procfs;
use crate::report::{Row, RunReport};
use crate::sim;
use crate::spec::{Better, MetricDef, Shape, Workload, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, mean, median, percentile};
use crate::trace::{now_s, SpanLog};

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Where the traced run writes its Chrome/Perfetto trace.
    pub trace_out: Option<PathBuf>,
}

/// Untimed rounds after the mesh forms and before the first timed op.
const WARMUP_ROUNDS: u64 = 5;

/// An untraced run sets up this many times and reports the median, so that
/// one slow boot does not decide `setup_s`.
const SETUPS: usize = 3;

/// Recoveries and rejoins that take longer than this count as failed.
const RECOVERY_DEADLINE: StdDuration = StdDuration::from_secs(30);

const MESH_DEADLINE: StdDuration = StdDuration::from_secs(60);

/// Degraded rounds driven while the victim is down, per arc.
const DEGRADED_ROUNDS: usize = 2;

/// How many rounds in a row the client may lose to the coordinator's round
/// timeout before the op that asked for the last of them counts as failed.
const ROUND_TRIES: u64 = 3;

const MIB: f64 = (1 << 20) as f64;

/// The samples of one timed section.
#[derive(Default)]
struct Phase {
    setup_s: Vec<f64>,
    /// Latency of every op that succeeded.
    op_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    gate_failures: Vec<String>,
    /// CPU time the system under test used over the timed section.
    cpu_ms: f64,
    peak_rss_mib: f64,
    /// Image bytes one op protects (or restores) per node.
    image_bytes_per_op: f64,
    counters: Counters,
    extras: Vec<Row>,
    spans: SpanLog,
}

/// Counts taken at layer boundaries during a traced section. A layer the
/// workload does not run counts nothing.
#[derive(Default, Clone, Copy)]
struct Counters {
    frames_per_op: f64,
    wire_bytes_per_image_byte: f64,
    errors: f64,
    retries: f64,
    rounds_aborted: f64,
    payloads_dropped: f64,
    events_per_op: f64,
    sim_time_s: f64,
    recovered_vms: f64,
}

impl Phase {
    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.gate_failures.push(what());
        }
    }

    fn op_failed(&mut self, what: String) {
        self.failed += 1;
        self.gate_failures.push(what);
    }
}

fn extra(name: &str, unit: &str, better: Better, samples: &[f64], value: f64) -> Row {
    Row {
        name: name.to_owned(),
        value,
        unit: unit.to_owned(),
        better,
        bound: None,
        n: samples.len(),
    }
}

/// `name` as the median of `samples`, when there are any.
fn p50_extra(name: &str, samples: &[f64]) -> Option<Row> {
    (!samples.is_empty()).then(|| {
        extra(
            name,
            "ms",
            Better::Lower,
            samples,
            percentile(samples, 50.0),
        )
    })
}

/// The upper percentile the sample count supports, named as what it is.
fn tail_extra(prefix: &str, samples: &[f64]) -> Option<Row> {
    let p = highest_supported_percentile(samples.len())?;
    Some(extra(
        &format!("{prefix}.p{p}"),
        "ms",
        Better::Lower,
        samples,
        percentile(samples, p),
    ))
}

fn cluster_id(seed: u64, workload: &Workload) -> u64 {
    // Distinct image bytes per seed and workload; never zero.
    let name_hash = dvdc::protocol::node_core::fnv64(workload.name.as_bytes());
    (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ name_hash) | 1
}

/// Sets up `setups` times, retiring all but the last; returns how long each
/// took and the last one, ready for the timed section.
fn set_up<C>(
    setups: usize,
    mut boot: impl FnMut() -> Result<C, String>,
    retire: impl Fn(C),
) -> Result<(Vec<f64>, C), String> {
    let mut setup_s = Vec::new();
    let mut booted = None;
    for _ in 0..setups.max(1) {
        if let Some(previous) = booted.take() {
            retire(previous);
        }
        let start = Instant::now();
        booted = Some(boot()?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    Ok((setup_s, booted.expect("at least one set-up")))
}

/// The one closed-loop client of a cluster's checkpoint plane. It asks for a
/// checkpoint the way an operator's script would: a round the coordinator
/// aborts at its round timeout is asked for again, and the wait is part of
/// the op. A holder discards a `Payload` that overtakes the coordinator's
/// `RoundBegin` (they travel on different connections, and only the capture
/// window orders them), so a thread descheduled at the wrong moment costs a
/// round; the typed abort is the protocol's correct answer to that, and it
/// is counted here, not hidden.
struct RoundClient {
    coordinator: SocketAddr,
    /// The last epoch a round committed.
    epoch: u64,
    /// Epoch numbers used up by aborted rounds since then.
    burned: u64,
    committed: u64,
    aborted: u64,
}

/// A round that committed: when the client first asked, when it sent the
/// request that went through, and when the reply came.
struct Committed {
    epoch: u64,
    asked: f64,
    sent: f64,
    received: f64,
}

impl Committed {
    fn ms(&self) -> f64 {
        (self.received - self.asked) * 1e3
    }
}

impl RoundClient {
    fn new(coordinator: SocketAddr) -> RoundClient {
        RoundClient {
            coordinator,
            epoch: 0,
            burned: 0,
            committed: 0,
            aborted: 0,
        }
    }

    /// One checkpoint through the coordinator, asked for again while
    /// [`settle`](Self::settle) says so.
    fn round(&mut self) -> Result<Committed, String> {
        let asked = now_s();
        loop {
            let sent = now_s();
            let reply = live::checkpoint(self.coordinator);
            let received = now_s();
            if let Some(outcome) = self.settle(reply) {
                return outcome.map(|epoch| Committed {
                    epoch,
                    asked,
                    sent,
                    received,
                });
            }
        }
    }

    /// What one reply means for the op; `None` is "ask again". A commit is
    /// checked against the epoch before it: every round that began since
    /// then, committed or aborted, used up one epoch number.
    fn settle(&mut self, reply: Result<u64, String>) -> Option<Result<u64, String>> {
        match reply {
            Ok(epoch) => {
                let want = self.epoch + self.burned + 1;
                self.epoch = epoch;
                self.burned = 0;
                if epoch != want {
                    return Some(Err(format!("round committed epoch {epoch}, not {want}")));
                }
                self.committed += 1;
                Some(Ok(epoch))
            }
            Err(reason) if reason == live::ROUND_TIMED_OUT => {
                self.aborted += 1;
                self.burned += 1;
                (self.burned >= ROUND_TRIES).then(|| {
                    Err(format!(
                        "{} rounds in a row timed out after epoch {}",
                        self.burned, self.epoch
                    ))
                })
            }
            Err(reason) => Some(Err(format!("round after epoch {}: {reason}", self.epoch))),
        }
    }

    /// Reports the aborted rounds and fails the run when they are no longer
    /// rare: one is allowed, and one more per hundred committed rounds.
    fn account(&self, phase: &mut Phase) {
        phase.extras.push(extra(
            "rounds_retried",
            "count",
            Better::Lower,
            &[],
            self.aborted as f64,
        ));
        phase.gate(self.aborted <= 1 + self.committed / 100, || {
            format!(
                "{} rounds timed out beside {} committed",
                self.aborted, self.committed
            )
        });
    }
}

/// The rest of set-up once the nodes are started: the full mesh, then the
/// untimed warm-up rounds.
fn warm_up(addrs: &[SocketAddr]) -> Result<RoundClient, String> {
    live::wait_full_mesh(addrs, MESH_DEADLINE)?;
    let mut client = RoundClient::new(addrs[0]);
    for _ in 0..WARMUP_ROUNDS {
        client.round().map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(client)
}

// ------------------------------------------------------------------ live

/// Counter totals that the traced live section reports as deltas.
fn transport_totals(snap: &MetricsSnapshot) -> [f64; 6] {
    let c = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    [
        c("transport.frames_out"),
        c("transport.bytes_out"),
        c("transport.frame_errors") + c("transport.codec_errors"),
        c("transport.connect_retries") + c("transport.redials"),
        c("node.rounds_aborted"),
        c("node.payloads_dropped"),
    ]
}

fn live_phase(
    w: &Workload,
    k: usize,
    m: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Phase, String> {
    let image_len = w.image_len();
    let spec = live::cluster_spec(cluster_id(seed, w), k, m, image_len);
    let mut phase = Phase {
        image_bytes_per_op: image_len as f64,
        ..Phase::default()
    };

    let (setup_s, (cluster, mut client)) = set_up(
        setups,
        || {
            let cluster = LiveCluster::launch(&spec, seed, traced);
            let client = warm_up(&cluster.addrs)?;
            Ok((cluster, client))
        },
        |(cluster, _)| cluster.shutdown(),
    )?;
    phase.setup_s = setup_s;

    cluster.take_stamps(); // warm-up rounds are not traced
    let totals_before = transport_totals(&cluster.merged_metrics());
    let cpu_before = procfs::own_cpu_ms();
    let mut requests = Vec::new();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        phase.attempted += 1;
        match client.round() {
            Ok(round) => {
                phase.op_ms.push(round.ms());
                requests.push((round.epoch, round.sent, round.received));
            }
            Err(reason) => phase.op_failed(reason),
        }
    }
    phase.cpu_ms = procfs::own_cpu_ms() - cpu_before;

    client.account(&mut phase);
    let epoch = client.epoch;
    for node in 0..k + m {
        let view = cluster.status(node)?;
        phase.gate(view.committed_epoch == epoch, || {
            format!(
                "node {node} ended at epoch {}, not {epoch}",
                view.committed_epoch
            )
        });
        phase.gate(!view.data_loss, || format!("node {node} reports data loss"));
    }

    if traced {
        let ops = phase.op_ms.len().max(1) as f64;
        let after = transport_totals(&cluster.merged_metrics());
        let [frames, bytes, errors, retries, aborted, dropped] =
            std::array::from_fn(|i| after[i] - totals_before[i]);
        phase.counters = Counters {
            frames_per_op: frames / ops,
            wire_bytes_per_image_byte: bytes / (ops * (k * image_len) as f64),
            errors,
            retries,
            rounds_aborted: aborted,
            payloads_dropped: dropped,
            ..Counters::default()
        };
        phase.gate(errors == 0.0, || format!("{errors} frame or codec errors"));
        // Every node that was in an aborted round notes it; none may note
        // one the client was not told of.
        phase.gate(aborted == 0.0 || client.aborted > 0, || {
            format!("{aborted} aborts noted, none reported to the client")
        });

        let status_rtt_ms: Vec<f64> = (0..100)
            .filter_map(|_| {
                let start = Instant::now();
                cluster
                    .status(0)
                    .ok()
                    .map(|_| start.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        phase
            .extras
            .extend(p50_extra("node.status_rtt_ms.p50", &status_rtt_ms));
        round_spans(&mut phase, &cluster.take_stamps(), &requests);
    }
    phase.peak_rss_mib = procfs::own_peak_rss_mib();
    cluster.shutdown();
    Ok(phase)
}

/// One request span per round, parenting what the coordinator's and the
/// members' notes split it into.
fn round_spans(phase: &mut Phase, stamps: &[live::Stamp], requests: &[(u64, f64, f64)]) {
    for &(epoch, sent, received) in requests {
        let at = |mark: Mark| {
            stamps
                .iter()
                .filter(|s| s.epoch == epoch && s.mark == mark)
                .map(|s| s.at_s)
                .reduce(f64::max)
        };
        let (Some(started), Some(shipped), Some(committed)) = (
            at(Mark::RoundStarted),
            at(Mark::CaptureShipped),
            at(Mark::RoundCommitted),
        ) else {
            phase
                .gate_failures
                .push(format!("round {epoch} committed without its notes"));
            continue;
        };
        let request = phase.spans.push("round", epoch, None, sent, received);
        for (name, from, to) in [
            ("node.ctl_ingress", sent, started),
            ("core.node_core.capture_window", started, shipped),
            ("core.node_core.ship_fold_commit", shipped, committed),
            ("node.ctl_egress", committed, received),
        ] {
            phase.spans.push(name, epoch, Some(request), from, to);
        }
    }
    for name in [
        "node.ctl_ingress",
        "core.node_core.capture_window",
        "core.node_core.ship_fold_commit",
        "node.ctl_egress",
    ] {
        let row = p50_extra(&format!("{name}_ms.p50"), &phase.spans.durations_ms(name));
        phase.extras.extend(row);
    }
}

/// CPU milliseconds per round that the isolated layer costs explain: every
/// image goes to `m` holders, and each of those `k·m` transfers is cloned,
/// enveloped, framed, written, read, unframed and decoded once; each holder
/// then encodes over the `k` blocks.
fn live_budget(
    layer_gb_s: &[(&'static str, f64)],
    k: usize,
    m: usize,
    image_len: usize,
    measured_cpu_ms_per_op: f64,
) -> Vec<Row> {
    let ms_per_image = |name: &str| {
        let gb_s = layer_gb_s
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::INFINITY, |(_, v)| *v);
        image_len as f64 / gb_s / 1e6
    };
    let per_transfer = ms_per_image("os.memcpy_gb_s")
        + ms_per_image("transport.wire.encode_gb_s")
        + ms_per_image("transport.frame.encode_gb_s")
        // Both ends of the socket copy the bytes once.
        + 2.0 * ms_per_image("os.loopback_copy_gb_s")
        + ms_per_image("transport.frame.decode_gb_s")
        + ms_per_image("transport.wire.decode_gb_s");
    let encode = if m == 1 {
        "parity.xor.encode_gb_s"
    } else {
        "parity.rs.encode_gb_s"
    };
    let attributed = (k * m) as f64 * per_transfer + (m * k) as f64 * ms_per_image(encode);
    vec![
        extra(
            "budget.attributed_cpu_ms_per_round",
            "ms",
            Better::Lower,
            &[],
            attributed,
        ),
        extra(
            "budget.unattributed_cpu_frac",
            "ratio",
            Better::Lower,
            &[],
            1.0 - attributed / measured_cpu_ms_per_op,
        ),
    ]
}

// -------------------------------------------------------------- recovery

/// Sum and count of a daemon histogram plus the coordinator's inbound
/// counters: what one rebuild's deltas are taken from.
fn rebuild_totals(snap: &MetricsSnapshot) -> [f64; 6] {
    let hist = |name: &str| {
        snap.histogram(name)
            .map_or((0.0, 0.0), |h| (h.sum as f64, h.count as f64))
    };
    let (total_ns, total_n) = hist("node.rebuild_total_ns");
    let (fetch_ns, fetch_n) = hist("node.rebuild_fetch_ns");
    [
        total_ns,
        total_n,
        fetch_ns,
        fetch_n,
        snap.counter("transport.bytes_in").unwrap_or(0) as f64,
        snap.counter("transport.frames_in").unwrap_or(0) as f64,
    ]
}

#[derive(Default)]
struct ArcSamples {
    round_ms: Vec<f64>,
    degraded_round_ms: Vec<f64>,
    rejoin_ms: Vec<f64>,
    detect_ms: Vec<f64>,
    remesh_ms: Vec<f64>,
    rebuild_deltas: Vec<[f64; 6]>,
}

/// One arc: healthy round, digest the victim, SIGKILL it between rounds,
/// wait for its block byte-exact in the coordinator's custody, drive
/// degraded rounds, respawn it on the same port, wait until it serves its
/// own committed block and custody is released, then let the mesh heal.
/// Returns the recovery time; anything else it measured goes to `samples`.
fn recovery_arc(
    cluster: &mut DaemonCluster,
    victim: usize,
    arc: u64,
    client: &mut RoundClient,
    traced: bool,
    samples: &mut ArcSamples,
    spans: &mut SpanLog,
) -> Result<f64, String> {
    samples.round_ms.push(client.round()?.ms());
    let (pre_epoch, pre_digest, pre_source) = cluster.digest(victim, victim)?;
    if (pre_epoch, pre_source) != (client.epoch, DigestSource::Committed) {
        return Err(format!(
            "victim {victim} holds epoch {pre_epoch} {pre_source:?} before the kill"
        ));
    }
    let before = if traced {
        Some(rebuild_totals(&cluster.metrics(0)?))
    } else {
        None
    };

    let killed = now_s();
    cluster.kill(victim);
    let mut confirmed_at = None;
    let custody = poll_until("custody of the victim's block", RECOVERY_DEADLINE, || {
        if traced && confirmed_at.is_none() && cluster.confirmed_dead(0, victim)? {
            confirmed_at = Some(now_s());
        }
        let (e, d, source) = cluster.digest(0, victim)?;
        Ok((source == DigestSource::Custody).then_some((e, d)))
    })?;
    let in_custody = now_s();
    if custody != (pre_epoch, pre_digest) {
        return Err(format!(
            "victim {victim} rebuilt as epoch {} digest {:#x}, was epoch {pre_epoch} digest {pre_digest:#x}",
            custody.0, custody.1
        ));
    }
    let arc_span = spans.push("recovery", arc, None, killed, in_custody);
    if let (Some(before), Some(confirmed)) = (before, confirmed_at) {
        let after = rebuild_totals(&cluster.metrics(0)?);
        samples.detect_ms.push((confirmed - killed) * 1e3);
        samples
            .rebuild_deltas
            .push(std::array::from_fn(|i| after[i] - before[i]));
        spans.push(
            "faults.detector.detect",
            arc,
            Some(arc_span),
            killed,
            confirmed,
        );
        let rebuild_s = (after[0] - before[0]) / 1e9;
        spans.push(
            "core.node_core.rebuild",
            arc,
            Some(arc_span),
            // The daemon times the rebuild itself; it ends at custody.
            in_custody - rebuild_s,
            in_custody,
        );
    }

    for _ in 0..DEGRADED_ROUNDS {
        samples.degraded_round_ms.push(client.round()?.ms());
    }

    let respawned = now_s();
    cluster.spawn(victim)?;
    let cluster_ref = &*cluster;
    let rejoined_digest = poll_until("the victim to rejoin", RECOVERY_DEADLINE, || {
        let (_, digest, source) = match cluster_ref.digest(victim, victim) {
            Ok(reply) => reply,
            Err(_) => return Ok(None), // not listening yet
        };
        let released = cluster_ref.status(0)?.custody.is_empty();
        Ok((source == DigestSource::Committed && released).then_some(digest))
    })?;
    let rejoined = now_s();
    if rejoined_digest != pre_digest {
        return Err(format!(
            "victim {victim} came back with digest {rejoined_digest:#x}, was {pre_digest:#x}"
        ));
    }
    samples.rejoin_ms.push((rejoined - respawned) * 1e3);
    spans.push("rejoin", arc, None, respawned, rejoined);

    live::wait_full_mesh(&cluster.addrs, MESH_DEADLINE)?;
    samples.remesh_ms.push((now_s() - rejoined) * 1e3);
    Ok((in_custody - killed) * 1e3)
}

fn recovery_phase(
    w: &Workload,
    k: usize,
    m: usize,
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
) -> Result<Phase, String> {
    let image_len = w.image_len();
    let bin = daemon::build_daemon()?;
    let mut phase = Phase {
        image_bytes_per_op: image_len as f64,
        ..Phase::default()
    };
    let (setup_s, (mut cluster, mut client)) = set_up(
        setups,
        || {
            let cluster = DaemonCluster::boot(&bin, cluster_id(seed, w), k, m, image_len)?;
            let client = warm_up(&cluster.addrs)?;
            Ok((cluster, client))
        },
        // A cluster that came up and warmed up has no logs worth keeping.
        |(mut cluster, _)| cluster.passed = true,
    )?;
    phase.setup_s = setup_s;

    let mut samples = ArcSamples::default();
    let mut spans = SpanLog::default();
    let cpu_before = cluster.cpu_ms();
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        // Data nodes 1..k only: node 0 coordinates.
        let victim = 1 + ((seed + phase.attempted) % (k as u64 - 1)) as usize;
        phase.attempted += 1;
        match recovery_arc(
            &mut cluster,
            victim,
            phase.attempted,
            &mut client,
            traced,
            &mut samples,
            &mut spans,
        ) {
            Ok(recovery_ms) => phase.op_ms.push(recovery_ms),
            Err(reason) => {
                // The cluster's state is unknown after a failed arc.
                phase.op_failed(format!(
                    "arc {} (victim {victim}): {reason}",
                    phase.attempted
                ));
                break;
            }
        }
    }
    phase.cpu_ms = cluster.cpu_ms() - cpu_before;

    if phase.failed == 0 {
        match client.round() {
            Ok(round) => samples.round_ms.push(round.ms()),
            Err(reason) => phase.gate_failures.push(format!("final round: {reason}")),
        }
        let epoch = client.epoch;
        for node in 0..k + m {
            let view = cluster.status(node)?;
            phase.gate(view.committed_epoch == epoch, || {
                format!(
                    "daemon {node} ended at epoch {}, not {epoch}",
                    view.committed_epoch
                )
            });
            phase.gate(!view.data_loss, || {
                format!("daemon {node} reports data loss")
            });
        }
    }

    client.account(&mut phase);
    phase
        .extras
        .extend(p50_extra("recovery_ms.p50", &phase.op_ms));
    phase
        .extras
        .extend(p50_extra("rejoin_ms.p50", &samples.rejoin_ms));
    phase.extras.extend(p50_extra(
        "degraded_round_ms.p50",
        &samples.degraded_round_ms,
    ));
    phase
        .extras
        .extend(p50_extra("round_ms.p50", &samples.round_ms));
    phase
        .extras
        .extend(p50_extra("node.remesh_ms.p50", &samples.remesh_ms));
    if traced && !samples.rebuild_deltas.is_empty() {
        let arcs = samples.rebuild_deltas.len() as f64;
        let [total_ns, total_n, fetch_ns, fetch_n, bytes_in, frames_in] =
            std::array::from_fn(|i| samples.rebuild_deltas.iter().map(|d| d[i]).sum::<f64>());
        phase.extras.extend(p50_extra(
            "faults.detector.detect_ms.p50",
            &samples.detect_ms,
        ));
        for (name, ns, count) in [
            ("core.node_core.rebuild_ms.mean", total_ns, total_n),
            ("core.node_core.rebuild_fetch_ms.mean", fetch_ns, fetch_n),
        ] {
            phase.extras.push(extra(
                name,
                "ms",
                Better::Lower,
                &samples.detect_ms,
                ns / count / 1e6,
            ));
        }
        phase.extras.push(extra(
            "recovery.unattributed_ms.p50",
            "ms",
            Better::Lower,
            &samples.detect_ms,
            percentile(&spans.self_times_ms("recovery"), 50.0),
        ));
        // Counted at the coordinator, from the kill to custody: what a
        // rebuild reads off the wire per byte it restores.
        let mut totals = MetricsSnapshot::default();
        for node in 0..k + m {
            totals.merge(&cluster.metrics(node)?);
        }
        let [_, _, errors, retries, aborted, dropped] = transport_totals(&totals);
        phase.counters = Counters {
            frames_per_op: frames_in / arcs,
            wire_bytes_per_image_byte: bytes_in / arcs / image_len as f64,
            errors,
            retries,
            rounds_aborted: aborted,
            payloads_dropped: dropped,
            ..Counters::default()
        };
        phase.gate(aborted == 0.0 || client.aborted > 0, || {
            format!("{aborted} aborts noted, none reported to the client")
        });
    }
    phase.spans = spans;
    phase.peak_rss_mib = cluster.peak_rss_mib();
    cluster.passed = phase.gate_failures.is_empty();
    Ok(phase)
}

// ------------------------------------------------------------------- sim

fn sim_phase(w: &Workload, seed: u64, seconds: f64) -> Result<Phase, String> {
    let Shape::Sim {
        nodes,
        rounds,
        pages,
        page_size,
    } = w.shape
    else {
        unreachable!("sim_phase runs sim workloads");
    };
    let mut phase = Phase::default();
    let mut first: Option<sim::SimOp> = None;
    let mut run_s_total = 0.0;
    while run_s_total < seconds {
        phase.attempted += 1;
        let started = now_s();
        let op = sim::run_once(nodes, rounds, pages, page_size, seed);
        run_s_total += op.run_s;
        // Building and verifying are set-up and checking, not the op.
        phase.cpu_ms += op.run_cpu_ms;
        phase.setup_s.push(op.build_s);
        let span = phase
            .spans
            .push("sim_op", phase.attempted, None, started, now_s());
        phase.spans.push(
            "core.shard.build",
            phase.attempted,
            Some(span),
            started,
            started + op.build_s,
        );
        phase.spans.push(
            "core.shard.run",
            phase.attempted,
            Some(span),
            started + op.build_s,
            started + op.build_s + op.run_s,
        );
        if op.rounds_committed != op.rounds_asked {
            phase.op_failed(format!(
                "{} of {} rounds committed",
                op.rounds_committed, op.rounds_asked
            ));
            continue;
        }
        phase.gate(op.recovered_vms > 0, || {
            "the sampled shard rebuilt no VM".to_owned()
        });
        let reference = first.get_or_insert_with(|| op.clone());
        phase.gate(op.exact_counts() == reference.exact_counts(), || {
            format!(
                "seed {seed} gave {:?} and then {:?}",
                reference.exact_counts(),
                op.exact_counts()
            )
        });
        phase.op_ms.push(op.run_s * 1e3);
    }
    phase.peak_rss_mib = procfs::own_peak_rss_mib();
    let Some(op) = first else {
        return Err("no sim run committed its rounds".to_owned());
    };
    // Every VM of a node is checkpointed once per round.
    phase.image_bytes_per_op = (op.vms * w.image_len() * rounds) as f64 / op.nodes as f64;
    phase.counters = Counters {
        events_per_op: op.events as f64,
        sim_time_s: op.sim_time_s,
        recovered_vms: op.recovered_vms as f64,
        ..Counters::default()
    };
    let events_per_s: Vec<f64> = phase
        .op_ms
        .iter()
        .map(|ms| op.events as f64 / (ms / 1e3))
        .collect();
    phase.extras.push(extra(
        "sim_events_per_s",
        "1/s",
        Better::Higher,
        &events_per_s,
        median(&events_per_s),
    ));
    phase.extras.push(extra(
        "simcore.events_per_round",
        "count",
        Better::Lower,
        &[],
        op.events as f64 / op.rounds_committed as f64,
    ));
    phase.extras.push(extra(
        "core.shard.wall_us_per_round",
        "us",
        Better::Lower,
        &phase.op_ms,
        median(&phase.op_ms) * 1e3 / op.rounds_committed as f64,
    ));
    Ok(phase)
}

// ---------------------------------------------------------------- common

fn phase_for(args: &RunArgs, seconds: f64, traced: bool, setups: usize) -> Result<Phase, String> {
    let w = args.workload;
    match w.shape {
        Shape::Live { k, m, .. } => live_phase(w, k, m, args.seed, seconds, traced, setups),
        Shape::Daemons { k, m, .. } => recovery_phase(w, k, m, args.seed, seconds, traced, setups),
        Shape::Sim { .. } => sim_phase(w, args.seed, seconds),
    }
}

fn row(def: &MetricDef, value: f64, n: usize) -> Row {
    Row {
        name: def.name.to_owned(),
        value,
        unit: def.unit.to_owned(),
        better: def.better,
        bound: def.bound,
        n,
    }
}

fn config_json(args: &RunArgs) -> Json {
    let w = args.workload;
    let mut pairs = vec![
        ("image_len".to_owned(), Json::Num(w.image_len() as f64)),
        ("clients".to_owned(), Json::Num(1.0)),
        ("loop".to_owned(), Json::str("closed")),
    ];
    let mut num = |key: &str, value: usize| pairs.push((key.to_owned(), Json::Num(value as f64)));
    match w.shape {
        Shape::Live { k, m, .. } | Shape::Daemons { k, m, .. } => {
            num("k", k);
            num("m", m);
            num("warmup_rounds", WARMUP_ROUNDS as usize);
            num("round_timeout_ms", live::ROUND_TIMEOUT_MS as usize);
            num("round_tries", ROUND_TRIES as usize);
            num("capture_delay_ms", live::CAPTURE_DELAY_MS as usize);
            if matches!(w.shape, Shape::Daemons { .. }) {
                num("degraded_rounds_per_arc", DEGRADED_ROUNDS);
                pairs.push((
                    "detector_ms".to_owned(),
                    Json::str("hb 50 / timeout 250 / grace 200"),
                ));
            } else {
                pairs.push((
                    "detector_ms".to_owned(),
                    Json::str("hb 200 / timeout 2000 / grace 1000"),
                ));
            }
        }
        Shape::Sim {
            nodes,
            rounds,
            pages,
            page_size,
        } => {
            num("nodes", nodes);
            num("rounds_per_shard_per_op", rounds);
            num("pages", pages);
            num("page_size", page_size);
        }
    }
    Json::Obj(pairs)
}

/// Runs the workload and assembles its report. `Err` is for a run that
/// could not be carried out at all; a run that finished with failed ops or
/// failed gates is a report with `correct == false`.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let w = args.workload;
    let mut report = RunReport {
        workload: w.name.to_owned(),
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        correct: false,
        attempted: 0,
        failed: 0,
        gate_failures: Vec::new(),
        config: config_json(args),
        metrics: Vec::new(),
        extras: Vec::new(),
    };
    let mut phases = Vec::new();
    if args.traced {
        traced_rows(args, &mut report, &mut phases)?;
    } else {
        let phase = phase_for(args, args.seconds, false, SETUPS)?;
        end_to_end_rows(&phase, &mut report)?;
        phases.push(phase);
    }
    // The last phase is the traced one when there are two; its breakdown
    // is the fuller.
    let last = phases.len() - 1;
    for (i, phase) in phases.into_iter().enumerate() {
        report.attempted += phase.attempted;
        report.failed += phase.failed;
        report.gate_failures.extend(phase.gate_failures);
        if i == last {
            report.extras.extend(phase.extras);
        }
    }
    report.correct = report.failed == 0 && report.gate_failures.is_empty();
    Ok(report)
}

fn end_to_end_rows(phase: &Phase, report: &mut RunReport) -> Result<(), String> {
    if phase.op_ms.is_empty() {
        return Err(format!("no op succeeded: {:?}", phase.gate_failures));
    }
    let n = phase.op_ms.len();
    let protected_mib = phase.image_bytes_per_op * n as f64 / MIB;
    let busy_s = phase.op_ms.iter().sum::<f64>() / 1e3;
    for def in END_TO_END {
        let (value, samples) = match def.name {
            "setup_s" => (median(&phase.setup_s), phase.setup_s.len()),
            "op_ms.p50" => (percentile(&phase.op_ms, 50.0), n),
            "op_ms.p90" => (percentile(&phase.op_ms, 90.0), n),
            "protect_mib_s_per_node" => (protected_mib / busy_s, n),
            "peak_rss_mib" => (phase.peak_rss_mib, 1),
            other => unreachable!("end-to-end metric {other} has no measurement"),
        };
        report.metrics.push(row(def, value, samples));
    }
    report.extras.extend(tail_extra("op_ms", &phase.op_ms));
    report.extras.push(extra(
        "op_ms.mean",
        "ms",
        Better::Lower,
        &phase.op_ms,
        mean(&phase.op_ms),
    ));
    Ok(())
}

/// The traced run: the isolated layer pass, then half the time untraced and
/// half traced, so that tracing overhead is the ratio of two medians taken
/// minutes apart at most, on one build.
fn traced_rows(
    args: &RunArgs,
    report: &mut RunReport,
    phases: &mut Vec<Phase>,
) -> Result<(), String> {
    let w = args.workload;
    let page_size = match w.shape {
        Shape::Sim { page_size, .. } => page_size,
        _ => 4096,
    };
    let layer_gb_s = layers::layer_pass(w.image_len(), page_size, args.seed);
    let untraced = phase_for(args, args.seconds / 2.0, false, 1)?;
    let traced = phase_for(args, args.seconds / 2.0, true, 1)?;
    if untraced.op_ms.is_empty() || traced.op_ms.is_empty() {
        return Err(format!(
            "no op succeeded: {:?} {:?}",
            untraced.gate_failures, traced.gate_failures
        ));
    }
    let n = untraced.op_ms.len();
    let cpu_ms_per_op = untraced.cpu_ms / n as f64;
    let overhead = percentile(&traced.op_ms, 50.0) / percentile(&untraced.op_ms, 50.0) - 1.0;
    let c = traced.counters;
    for def in PER_LAYER {
        let (value, samples) = match def.name {
            "op_ms.p95" => (percentile(&untraced.op_ms, 95.0), n),
            "proc.cpu_ms_per_op" => (cpu_ms_per_op, n),
            "observe.registry.trace_overhead_frac" => (overhead, traced.op_ms.len()),
            "transport.runtime.frames_per_op" => (c.frames_per_op, traced.op_ms.len()),
            "transport.runtime.wire_bytes_per_image_byte" => {
                (c.wire_bytes_per_image_byte, traced.op_ms.len())
            }
            "transport.runtime.errors" => (c.errors, 1),
            "transport.runtime.retries" => (c.retries, 1),
            "core.node_core.rounds_aborted" => (c.rounds_aborted, 1),
            "core.node_core.payloads_dropped" => (c.payloads_dropped, 1),
            "simcore.events_per_op" => (c.events_per_op, 1),
            "core.shard.sim_time" => (c.sim_time_s, 1),
            "core.shard.recovered_vms" => (c.recovered_vms, 1),
            name => match layer_gb_s.iter().find(|(layer, _)| *layer == name) {
                Some((_, gb_s)) => (*gb_s, 5),
                None => unreachable!("per-layer metric {name} has no measurement"),
            },
        };
        report.metrics.push(row(def, value, samples));
    }
    if let Shape::Live { k, m, .. } = w.shape {
        report
            .extras
            .extend(live_budget(&layer_gb_s, k, m, w.image_len(), cpu_ms_per_op));
    }
    if let Some(path) = &args.trace_out {
        traced.spans.write_chrome(path)?;
    }
    phases.push(untraced);
    phases.push(traced);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> RoundClient {
        RoundClient::new("127.0.0.1:1".parse().expect("an address"))
    }

    fn timed_out() -> Result<u64, String> {
        Err(live::ROUND_TIMED_OUT.to_owned())
    }

    #[test]
    fn an_aborted_round_is_asked_for_again_and_uses_up_its_epoch() {
        let mut c = client();
        assert_eq!(c.settle(Ok(1)), Some(Ok(1)));
        assert_eq!(c.settle(timed_out()), None);
        // Epoch 2 went to the aborted round.
        assert!(matches!(c.settle(Ok(2)), Some(Err(_))));
        let mut c = client();
        assert_eq!(c.settle(Ok(1)), Some(Ok(1)));
        assert_eq!(c.settle(timed_out()), None);
        assert_eq!(c.settle(Ok(3)), Some(Ok(3)));
        assert_eq!(c.settle(Ok(4)), Some(Ok(4)));
        assert_eq!((c.committed, c.aborted, c.epoch), (3, 1, 4));
    }

    #[test]
    fn three_lost_rounds_in_a_row_or_any_other_failure_fail_the_op() {
        let mut c = client();
        assert_eq!(c.settle(timed_out()), None);
        assert_eq!(c.settle(timed_out()), None);
        assert!(matches!(c.settle(timed_out()), Some(Err(_))));
        // The next commit still accounts for all three.
        assert_eq!(c.settle(Ok(4)), Some(Ok(4)));
        assert!(matches!(
            c.settle(Err("n2 is down and not yet rebuilt into custody".to_owned())),
            Some(Err(_))
        ));
        // A refused request began no round.
        assert_eq!(c.settle(Ok(5)), Some(Ok(5)));
    }
}
