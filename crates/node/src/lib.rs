//! Shared plumbing for the DVDC deployment binaries (`dvdc-node`,
//! `dvdc-ctl`) and their integration tests: daemon option parsing, the
//! ctl request/reply client and human-readable status formatting. The
//! `Note` → `Event` mapping and the metrics fold that feed the daemon's
//! trace ring and registry live beside `Note` in `dvdc` and are
//! re-exported here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::net::{SocketAddr, TcpStream};
use std::time::Duration as StdDuration;

pub use dvdc::protocol::node_core::{note_event, NodeMetrics};
use dvdc::protocol::node_core::{ClusterSpec, Msg, StatusView, CTL};
use dvdc_faults::detector::DetectorConfig;
use dvdc_observe::chrome::NodeTail;
use dvdc_observe::registry::MetricsSnapshot;
use dvdc_simcore::time::Duration;
use dvdc_transport::frame::MAX_FRAME;
use dvdc_transport::wire::{envelope_len, read_envelope, write_envelope};
use dvdc_vcluster::ids::NodeId;

/// Parsed `dvdc-node` command line.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// This node's protocol id (index into `addrs`).
    pub id: usize,
    /// Cluster identity, embedded in handshakes and image seeds.
    pub cluster_id: u64,
    /// Number of data nodes `k`.
    pub data: usize,
    /// Number of parity nodes `m`.
    pub parity: usize,
    /// Bytes per checkpoint image.
    pub image_len: usize,
    /// Listen address of every member, in id order.
    pub addrs: Vec<SocketAddr>,
    /// Heartbeat interval (wall milliseconds).
    pub hb_ms: f64,
    /// Suspicion deadline (wall milliseconds).
    pub timeout_ms: f64,
    /// Confirmation grace (wall milliseconds).
    pub grace_ms: f64,
    /// Round timeout (wall milliseconds).
    pub round_ms: f64,
    /// Rebuild timeout (wall milliseconds).
    pub rebuild_ms: f64,
    /// Capture delay — the mid-round window (wall milliseconds).
    pub capture_ms: f64,
    /// Backoff-jitter seed (also printed by the panic dump for repro).
    pub seed: u64,
    /// Period of the daemon's metrics-snapshot log line (wall
    /// milliseconds); 0 disables the publisher. The registry itself is
    /// always live, so `dvdc-ctl metrics` works either way.
    pub metrics_ms: f64,
    /// Capacity of the trace ring the panic dump and `dvdc-ctl
    /// trace-tail` read.
    pub ring_events: usize,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            id: 0,
            cluster_id: 1,
            data: 4,
            parity: 1,
            image_len: 4096,
            addrs: Vec::new(),
            hb_ms: 50.0,
            timeout_ms: 250.0,
            grace_ms: 200.0,
            round_ms: 5000.0,
            rebuild_ms: 5000.0,
            capture_ms: 0.0,
            seed: 1,
            metrics_ms: 5000.0,
            ring_events: 256,
        }
    }
}

impl NodeOptions {
    /// Parses `--flag value` pairs (see the daemon's `--help`). Returns
    /// a usage error string instead of panicking on bad input.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<NodeOptions, String> {
        let mut opts = NodeOptions::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = |name: &str| -> Result<String, String> {
                it.next().ok_or_else(|| format!("{name} needs a value"))
            };
            match flag.as_str() {
                "--id" => opts.id = parse_num(&value("--id")?, "--id")?,
                "--cluster-id" => {
                    opts.cluster_id = parse_num(&value("--cluster-id")?, "--cluster-id")?
                }
                "--data" => opts.data = parse_num(&value("--data")?, "--data")?,
                "--parity" => opts.parity = parse_num(&value("--parity")?, "--parity")?,
                "--image-len" => opts.image_len = parse_num(&value("--image-len")?, "--image-len")?,
                "--addrs" => {
                    opts.addrs = value("--addrs")?
                        .split(',')
                        .map(|a| {
                            a.parse::<SocketAddr>()
                                .map_err(|e| format!("bad address {a:?} in --addrs: {e}"))
                        })
                        .collect::<Result<_, _>>()?;
                }
                "--hb-ms" => opts.hb_ms = parse_ms(&value("--hb-ms")?, "--hb-ms")?,
                "--timeout-ms" => {
                    opts.timeout_ms = parse_ms(&value("--timeout-ms")?, "--timeout-ms")?
                }
                "--grace-ms" => opts.grace_ms = parse_ms(&value("--grace-ms")?, "--grace-ms")?,
                "--round-ms" => opts.round_ms = parse_ms(&value("--round-ms")?, "--round-ms")?,
                "--rebuild-ms" => {
                    opts.rebuild_ms = parse_ms(&value("--rebuild-ms")?, "--rebuild-ms")?
                }
                "--capture-ms" => {
                    opts.capture_ms = parse_ms(&value("--capture-ms")?, "--capture-ms")?
                }
                "--seed" => opts.seed = parse_num(&value("--seed")?, "--seed")?,
                "--metrics-ms" => {
                    opts.metrics_ms = parse_ms(&value("--metrics-ms")?, "--metrics-ms")?
                }
                "--ring-events" => {
                    opts.ring_events = parse_num(&value("--ring-events")?, "--ring-events")?
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        if opts.addrs.len() != opts.data + opts.parity {
            return Err(format!(
                "--addrs lists {} addresses but the group is k={} + m={}",
                opts.addrs.len(),
                opts.data,
                opts.parity
            ));
        }
        // A round ships an image in parts, but a resync ships it whole.
        let empty = Msg::ResyncState {
            node: CTL,
            fence_epoch: 0,
            committed_epoch: 0,
            image: Some(Vec::new()),
        };
        let max_image = MAX_FRAME as usize - envelope_len(CTL, &empty);
        if opts.image_len > max_image {
            return Err(format!(
                "--image-len {} is over the limit of {max_image} bytes: a resync ships the \
                 image whole in one `ResyncState`, which must fit one {MAX_FRAME}-byte frame",
                opts.image_len
            ));
        }
        if opts.id >= opts.addrs.len() {
            return Err(format!(
                "--id {} out of range for {} members",
                opts.id,
                opts.addrs.len()
            ));
        }
        opts.spec().validate()?;
        Ok(opts)
    }

    /// The [`ClusterSpec`] these options describe (wall ms mapped onto
    /// the protocol's sim-seconds axis one-to-one).
    pub fn spec(&self) -> ClusterSpec {
        ClusterSpec {
            cluster_id: self.cluster_id,
            data_nodes: self.data,
            parity_nodes: self.parity,
            image_len: self.image_len,
            detector: DetectorConfig::from_millis(self.hb_ms, self.timeout_ms, self.grace_ms),
            round_timeout: Duration::from_millis(self.round_ms),
            rebuild_timeout: Duration::from_millis(self.rebuild_ms),
            capture_delay: Duration::from_millis(self.capture_ms),
        }
    }

    /// This node's own listen address.
    pub fn listen(&self) -> SocketAddr {
        self.addrs[self.id]
    }

    /// Every other member as `(id, addr)`.
    pub fn peers(&self) -> Vec<(NodeId, SocketAddr)> {
        self.addrs
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != self.id)
            .map(|(i, a)| (NodeId(i), *a))
            .collect()
    }
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    raw.parse()
        .map_err(|e| format!("bad value {raw:?} for {flag}: {e}"))
}

/// A `*-ms` flag: a finite, non-negative number of milliseconds (a
/// negative, NaN or infinite one would panic where it becomes a duration).
fn parse_ms(raw: &str, flag: &str) -> Result<f64, String> {
    let ms: f64 = parse_num(raw, flag)?;
    if ms.is_finite() && ms >= 0.0 {
        Ok(ms)
    } else {
        Err(format!(
            "bad value {raw:?} for {flag}: a duration in milliseconds must be finite and not negative"
        ))
    }
}

/// One blocking ctl round trip: connect, send `msg` as [`CTL`], read one
/// reply. `timeout` bounds both the connect and the read, so a dead or
/// wedged daemon yields a typed error string, never a hang.
pub fn ctl_request(addr: SocketAddr, msg: &Msg, timeout: StdDuration) -> Result<Msg, String> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set read timeout: {e}"))?;
    let _ = stream.set_nodelay(true);
    write_envelope(&mut stream, CTL, msg).map_err(|e| format!("send to {addr}: {e}"))?;
    let reply = read_envelope(&mut stream).map_err(|e| format!("reply from {addr}: {e}"))?;
    let (_, reply) = reply.map_err(|e| format!("decode reply: {e}"))?;
    Ok(reply)
}

/// Fetches a [`StatusView`] from `addr`.
pub fn ctl_status(addr: SocketAddr, timeout: StdDuration) -> Result<StatusView, String> {
    match ctl_request(addr, &Msg::StatusReq, timeout)? {
        Msg::StatusResp(view) => Ok(view),
        other => Err(format!("expected StatusResp, got {other:?}")),
    }
}

/// Scrapes the live [`MetricsSnapshot`] from a running daemon at `addr`.
pub fn ctl_metrics(addr: SocketAddr, timeout: StdDuration) -> Result<MetricsSnapshot, String> {
    match ctl_request(addr, &Msg::MetricsReq, timeout)? {
        Msg::MetricsResp(snapshot) => Ok(snapshot),
        other => Err(format!("expected MetricsResp, got {other:?}")),
    }
}

/// Scrapes the trace-ring tail from a running daemon at `addr` as a
/// [`NodeTail`] ready for [`merge_node_traces`][dvdc_observe::chrome::merge_node_traces].
/// `max` caps the number of newest events (0 = whole ring).
pub fn ctl_trace_tail(
    addr: SocketAddr,
    max: u32,
    timeout: StdDuration,
) -> Result<NodeTail, String> {
    match ctl_request(addr, &Msg::TraceTailReq { max }, timeout)? {
        Msg::TraceTailResp {
            node,
            now,
            dropped,
            events,
        } => Ok(NodeTail {
            node: node.0,
            now,
            dropped,
            events,
        }),
        other => Err(format!("expected TraceTailResp, got {other:?}")),
    }
}

fn ids(nodes: &[NodeId]) -> String {
    nodes
        .iter()
        .map(|n| n.0.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// One-line `key=value` rendering of a status snapshot (what `dvdc-ctl
/// status` prints and the CI smoke job greps).
pub fn format_status(view: &StatusView) -> String {
    format!(
        "node={} coordinator={} committed_epoch={} fence_epoch={} peers={} suspected={} \
         confirmed={} custody={} rounds={} data_loss={}",
        view.node.0,
        view.coordinator.0,
        view.committed_epoch,
        view.fence_epoch,
        ids(&view.peers_established),
        ids(&view.suspected),
        ids(&view.confirmed),
        ids(&view.custody),
        view.rounds_committed,
        view.data_loss,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc::protocol::node_core::Note;
    use dvdc_faults::detector::Verdict;
    use dvdc_observe::{Event, MetricsHub};
    use dvdc_simcore::time::SimTime;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn options_parse_round_trip() {
        let opts = NodeOptions::parse(args(
            "--id 2 --cluster-id 99 --data 2 --parity 1 --image-len 512 \
             --addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
             --hb-ms 30 --timeout-ms 150 --grace-ms 100 --round-ms 2000 \
             --rebuild-ms 2000 --capture-ms 400 --seed 7",
        ))
        .unwrap();
        assert_eq!(opts.id, 2);
        assert_eq!(opts.listen(), "127.0.0.1:7003".parse().unwrap());
        assert_eq!(opts.peers().len(), 2);
        let spec = opts.spec();
        assert_eq!(spec.total(), 3);
        assert_eq!(spec.image_len, 512);
        assert!((spec.capture_delay.as_secs() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn options_errors_are_typed_strings() {
        let err = NodeOptions::parse(args("--bogus 1")).unwrap_err();
        assert!(err.contains("unknown flag"));
        let err = NodeOptions::parse(args("--id")).unwrap_err();
        assert!(err.contains("needs a value"));
        let err =
            NodeOptions::parse(args("--data 2 --parity 1 --addrs 127.0.0.1:7001")).unwrap_err();
        assert!(err.contains("lists 1 addresses"));
        let err = NodeOptions::parse(args(
            "--id 9 --data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2",
        ))
        .unwrap_err();
        assert!(err.contains("out of range"));
        let err = NodeOptions::parse(args(
            "--data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2 --hb-ms 50 --timeout-ms 60",
        ))
        .unwrap_err();
        assert!(err.contains("two heartbeat intervals"), "{err}");
        for timers in ["--hb-ms 0", "--hb-ms 0 --timeout-ms 0"] {
            let err = NodeOptions::parse(args(&format!(
                "--data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2 {timers}"
            )))
            .unwrap_err();
            assert!(err.contains("heartbeat interval must not be zero"), "{err}");
        }
        let err = NodeOptions::parse(args(
            "--data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2 --rebuild-ms 0",
        ))
        .unwrap_err();
        assert!(err.contains("rebuild timeout must not be zero"), "{err}");
        let addrs: Vec<String> = (1..=257).map(|p| format!("127.0.0.1:{p}")).collect();
        let err = NodeOptions::parse(args(&format!(
            "--data 255 --parity 2 --addrs {}",
            addrs.join(",")
        )))
        .unwrap_err();
        assert!(err.contains("at most 256 members"), "{err}");
    }

    /// A negative, NaN or infinite value of `flag` is a usage error that
    /// names the flag, not a panic where it becomes a duration.
    fn rejects_bad_millis(flag: &str) {
        for bad in ["-5", "nan", "inf", "-inf"] {
            let err = NodeOptions::parse(args(&format!(
                "--data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2 {flag} {bad}"
            )))
            .unwrap_err();
            assert!(err.contains(flag) && err.contains("finite"), "{err}");
        }
    }

    #[test]
    fn bad_hb_ms_is_a_usage_error() {
        rejects_bad_millis("--hb-ms");
    }

    #[test]
    fn bad_timeout_ms_is_a_usage_error() {
        rejects_bad_millis("--timeout-ms");
    }

    #[test]
    fn bad_grace_ms_is_a_usage_error() {
        rejects_bad_millis("--grace-ms");
    }

    #[test]
    fn bad_round_ms_is_a_usage_error() {
        rejects_bad_millis("--round-ms");
    }

    #[test]
    fn bad_rebuild_ms_is_a_usage_error() {
        rejects_bad_millis("--rebuild-ms");
    }

    #[test]
    fn bad_capture_ms_is_a_usage_error() {
        rejects_bad_millis("--capture-ms");
    }

    #[test]
    fn bad_metrics_ms_is_a_usage_error() {
        rejects_bad_millis("--metrics-ms");
    }

    #[test]
    fn image_too_large_for_one_frame_is_a_usage_error() {
        // A ResyncState envelope is 38 bytes of header around the image.
        let parse = |len: usize| {
            NodeOptions::parse(args(&format!(
                "--data 1 --parity 1 --addrs 127.0.0.1:1,127.0.0.1:2 --image-len {len}"
            )))
        };
        let max = MAX_FRAME as usize - 38;
        assert_eq!(parse(max).unwrap().image_len, max);
        let err = parse(max + 1).unwrap_err();
        assert!(err.contains("--image-len") && err.contains(&format!("limit of {max} bytes")));
        assert!(err.contains("ResyncState"), "{err}");
    }

    #[test]
    fn status_line_is_greppable() {
        let view = StatusView {
            node: NodeId(0),
            coordinator: NodeId(0),
            committed_epoch: 3,
            fence_epoch: 0,
            peers_established: vec![NodeId(1), NodeId(2)],
            suspected: vec![],
            confirmed: vec![NodeId(4)],
            custody: vec![NodeId(4)],
            rounds_committed: 3,
            data_loss: false,
        };
        let line = format_status(&view);
        assert!(line.contains("committed_epoch=3"));
        assert!(line.contains("peers=1,2"));
        assert!(line.contains("custody=4"));
        assert!(line.contains("data_loss=false"));
    }

    #[test]
    fn note_mapping_covers_the_failure_plane() {
        let fenced = Note::Fenced {
            node: NodeId(2),
            epoch: 1,
        };
        assert_eq!(
            note_event(&fenced),
            Event::FenceRaised { node: 2, epoch: 1 }
        );
        let verdict = Note::PeerVerdict {
            node: NodeId(3),
            verdict: Verdict::Confirmed,
            evidence: true,
        };
        assert_eq!(note_event(&verdict), Event::Confirmed { node: 3 });
        let chatter = Note::SessionEstablished { peer: NodeId(1) };
        assert_eq!(note_event(&chatter), Event::SessionEstablished { peer: 1 });
        let stale = Note::StaleRejected {
            from: NodeId(4),
            held_epoch: 1,
            current_epoch: 3,
        };
        assert_eq!(
            note_event(&stale),
            Event::StaleDropped {
                from: 4,
                held_epoch: 1,
                current_epoch: 3
            }
        );
        let capture = Note::CaptureShipped {
            epoch: 5,
            window_secs: 0.25,
        };
        assert_eq!(
            note_event(&capture),
            Event::RoundPhase {
                epoch: 5,
                phase: "Transfer"
            }
        );
    }

    #[test]
    fn node_metrics_fold_rounds_and_failure_plane() {
        let hub = MetricsHub::new();
        let mut m = NodeMetrics::new(&hub);
        m.observe(SimTime::from_secs(1.0), &Note::RoundStarted { epoch: 1 });
        m.observe(
            SimTime::from_secs(1.0),
            &Note::CaptureShipped {
                epoch: 1,
                window_secs: 0.125,
            },
        );
        m.observe(SimTime::from_secs(1.5), &Note::RoundCommitted { epoch: 1 });
        m.observe(
            SimTime::from_secs(2.0),
            &Note::RebuildStarted { victim: NodeId(3) },
        );
        m.observe(
            SimTime::from_secs(2.25),
            &Note::RebuildPhase {
                victim: NodeId(3),
                phase: "Decode",
            },
        );
        m.observe(
            SimTime::from_secs(2.5),
            &Note::RebuildCompleted {
                victim: NodeId(3),
                epoch: 1,
                digest: 0,
            },
        );
        m.observe(
            SimTime::from_secs(3.0),
            &Note::SessionEstablished { peer: NodeId(1) },
        );
        // One death confirmed on link evidence, one by the timers: each
        // is suspected first, and `node.confirmed` counts both.
        for (node, evidence) in [(3, true), (2, false)] {
            for verdict in [Verdict::Suspected, Verdict::Confirmed] {
                let note = Note::PeerVerdict {
                    node: NodeId(node),
                    verdict,
                    evidence,
                };
                m.observe(SimTime::from_secs(2.0), &note);
            }
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter("node.confirmed"), Some(2));
        assert_eq!(
            snap.counter("faults.detector.confirmed_by_evidence"),
            Some(1)
        );
        assert_eq!(
            snap.counter("faults.detector.confirmed_by_timeout"),
            Some(1)
        );
        assert_eq!(snap.counter("node.rounds_committed"), Some(1));
        assert_eq!(snap.counter("node.rebuilds"), Some(1));
        assert_eq!(snap.counter("node.sessions_established"), Some(1));
        let round = snap.histogram("node.round_latency_ns").unwrap();
        assert_eq!(round.count, 1);
        // 0.5 s begin→commit lands in the bucket containing 5e8 ns.
        assert!(
            round.p50() >= 250_000_000 && round.p50() < 1_000_000_000,
            "{}",
            round.p50()
        );
        let window = snap.histogram("node.capture_window_ns").unwrap();
        assert_eq!(window.count, 1);
        let fetch = snap.histogram("node.rebuild_fetch_ns").unwrap();
        let total = snap.histogram("node.rebuild_total_ns").unwrap();
        assert_eq!((fetch.count, total.count), (1, 1));
        assert!(fetch.p50() <= total.p50());
    }

    #[test]
    fn open_round_map_is_bounded() {
        let hub = MetricsHub::new();
        let mut m = NodeMetrics::new(&hub);
        for epoch in 0..1000 {
            m.observe(
                SimTime::from_secs(epoch as f64),
                &Note::RoundStarted { epoch },
            );
        }
        // The live fold keeps OPEN_SPAN_CAP rounds: the oldest begin is
        // gone, so its commit measures nothing; the newest still pairs.
        let at = SimTime::from_secs(1000.0);
        m.observe(at, &Note::RoundCommitted { epoch: 0 });
        m.observe(at, &Note::RoundCommitted { epoch: 999 });
        let snap = hub.snapshot();
        assert_eq!(snap.counter("node.rounds_committed"), Some(2));
        assert_eq!(snap.histogram("node.round_latency_ns").unwrap().count, 1);
    }

    #[test]
    fn a_note_folds_exactly_as_its_event() {
        let notes = [
            (1.0, Note::RoundStarted { epoch: 1 }),
            (
                1.1,
                Note::PayloadDropped {
                    from: NodeId(2),
                    reason: "no open round".into(),
                },
            ),
            (1.5, Note::RoundCommitted { epoch: 1 }),
            (2.0, Note::RoundStarted { epoch: 2 }),
            (
                2.5,
                Note::RoundAborted {
                    epoch: 2,
                    reason: "round timed out".into(),
                },
            ),
            (
                3.0,
                Note::Fenced {
                    node: NodeId(3),
                    epoch: 1,
                },
            ),
            (3.0, Note::RebuildStarted { victim: NodeId(3) }),
            (
                3.0,
                Note::RebuildPhase {
                    victim: NodeId(3),
                    phase: "Fetch",
                },
            ),
            (
                3.25,
                Note::RebuildPhase {
                    victim: NodeId(3),
                    phase: "Decode",
                },
            ),
            (
                3.5,
                Note::RebuildCompleted {
                    victim: NodeId(3),
                    epoch: 1,
                    digest: 9,
                },
            ),
            (4.0, Note::ResyncServed { peer: NodeId(3) }),
            (
                4.0,
                Note::Readmitted {
                    node: NodeId(3),
                    epoch: 1,
                },
            ),
        ];
        let through_notes = MetricsHub::new();
        let mut m = NodeMetrics::new(&through_notes);
        let mut events = Vec::new();
        for (seq, (secs, note)) in notes.iter().enumerate() {
            let at = SimTime::from_secs(*secs);
            let event = m.fold(at, note);
            assert_eq!(event, note_event(note));
            events.push(dvdc_observe::TimedEvent {
                at,
                seq: seq as u64,
                event,
            });
        }
        // None of these notes carries a capture window or a verdict, so
        // the note plane adds only its own three zero-valued names.
        let mut through_events = dvdc_observe::metrics::fold_events(&events);
        let own = MetricsHub::new();
        own.histogram("node.capture_window_ns");
        own.counter("faults.detector.confirmed_by_evidence");
        own.counter("faults.detector.confirmed_by_timeout");
        through_events.merge(&own.snapshot());
        assert_eq!(through_notes.snapshot(), through_events);
        assert_eq!(through_events.counter("node.rebuilds"), Some(1));
        let fetch = through_events.histogram("node.rebuild_fetch_ns").unwrap();
        assert_eq!((fetch.count, fetch.sum), (1, 250_000_000));
    }
}
