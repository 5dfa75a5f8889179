//! The threaded TCP driver hosting one [`NodeCore`] per OS process.
//!
//! Topology: every member listens on one TCP port. Inbound connections
//! (peer dials and `dvdc-ctl` clients alike) get a reader thread that
//! decodes envelopes straight off its socket and hands each to the event
//! loop before it reads the next, so a reader holds at most one part of a
//! block the core has not taken. Outbound, each peer gets a writer thread
//! owning its own dialed socket — messages are queued to it as they are and
//! encoded onto the socket there, off the event loop — reconnecting with
//! the cluster's [`RetryPolicy`] jittered backoff and a holdoff after
//! exhaustion so a dead peer cannot turn the writer into a dial
//! spin-loop. The event loop is single-threaded: it owns the `NodeCore`,
//! feeds it messages stamped by [`WallClock`], ticks it when its
//! [`next_deadline`](NodeCore::next_deadline) arrives, and carries out
//! the returned actions through the shared [`dispatch`] helper — the same
//! code path the deterministic harness uses. Nothing polls: the accept
//! thread blocks in `accept()`, readers in `read()`, writers on their
//! queue, the event loop on its channel until the next deadline.
//!
//! Link state reaches the protocol by one path, reader → event loop →
//! writer → event loop: a reader whose connection ends after carrying a
//! peer's envelopes says so, that peer's writer dials at once, and a dial
//! refused on every attempt (the host is up, the port is shut: the process
//! is gone) comes back as [`NodeCore::on_peer_refused`].
//!
//! Loss model: sends to an unreachable peer are dropped after typed
//! retry exhaustion. The protocol is built for exactly that (hellos and
//! heartbeats repeat, rounds time out typed, fencing handles the rest) —
//! it is the moral equivalent of TCP to a SIGKILLed process.
//!
//! Trust model: the envelope's sender id is taken at face value, like
//! the paper's single-administrative-domain cluster fabric. The control
//! plane ([`CTL`] sender) is whoever can reach the loopback port.

use std::collections::BTreeMap;
use std::io::{BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration as StdDuration, Instant, SystemTime, UNIX_EPOCH};

use dvdc::protocol::node_core::{ClusterSpec, Msg, NodeCore, Note, CTL};
use dvdc::protocol::transport::{dispatch, Transport};
use dvdc_observe::registry::{nanos_between, Counter, Gauge, MetricsHub};
use dvdc_observe::TraceRecorder;
use dvdc_simcore::time::SimTime;
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::RetryPolicy;

use crate::clock::WallClock;
use crate::conn::{connect_with_retry, ConnectError};
use crate::frame::{FrameError, HEADER_LEN, TRAILER_LEN};
use crate::wire::{envelope_len, read_envelope, write_envelope};

/// Configuration for one [`NodeRuntime`].
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// This node's protocol id.
    pub id: NodeId,
    /// The cluster layout and timing the hosted [`NodeCore`] runs.
    pub spec: ClusterSpec,
    /// Every *other* member: protocol id and listen address.
    pub peers: Vec<(NodeId, SocketAddr)>,
    /// Jitter seed; combined with the peer id so parallel redials to
    /// one restarted node desynchronise.
    pub seed: u64,
    /// Observability plumbing: the metrics registry every transport
    /// instrument feeds, and the trace ring the ctl plane scrapes.
    pub observe: ObserveConfig,
}

/// The observability attachments of one runtime. Defaults to fully off
/// (a no-op [`MetricsHub`], no ring) — the attached-but-disabled path
/// costs one branch per instrument, the same zero-cost-gate discipline
/// the recorder layer keeps.
#[derive(Debug, Clone, Default)]
pub struct ObserveConfig {
    /// The live metrics registry (counters/gauges/histograms), scraped
    /// by `Msg::MetricsReq`.
    pub metrics: MetricsHub,
    /// The node's trace ring, scraped by `Msg::TraceTailReq` — normally
    /// the same ring the daemon's panic hook dumps.
    pub ring: Option<Arc<TraceRecorder>>,
}

impl RuntimeConfig {
    /// A runtime with observability off.
    pub fn new(id: NodeId, spec: ClusterSpec, peers: Vec<(NodeId, SocketAddr)>, seed: u64) -> Self {
        RuntimeConfig {
            id,
            spec,
            peers,
            seed,
            observe: ObserveConfig::default(),
        }
    }
}

/// Typed runtime startup/shutdown failures.
#[derive(Debug)]
pub enum RuntimeError {
    /// The pre-bound listener handed in could not name its own address.
    Listener(std::io::Error),
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Listener(e) => write!(f, "listener setup failed: {e}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// The longest the event loop sleeps before it looks at `stop` again.
const STOP_CHECK: StdDuration = StdDuration::from_millis(50);

/// Per-attempt TCP connect timeout for outbound peer links; their
/// reconnect pacing is the cluster's default [`RetryPolicy`].
const CONNECT_TIMEOUT: StdDuration = StdDuration::from_millis(250);

/// After a fully exhausted dial, how long the writer drops frames before
/// dialing again.
const REDIAL_HOLDOFF: StdDuration = StdDuration::from_millis(200);

/// One decoded envelope arriving from any inbound connection, paired
/// with a writable clone of that connection so control-plane replies can
/// go back where the request came from.
struct Incoming {
    writer: Option<Arc<Mutex<TcpStream>>>,
    from: NodeId,
    msg: Msg,
}

/// What the event loop waits on: envelopes, and what the reader and writer
/// threads learn about a peer's link. `CTL` connections report no link.
enum Event {
    Envelope(Incoming),
    /// A connection delivered its first envelope, and this peer sent it.
    Opened(NodeId),
    /// A connection that carried this peer's envelopes ended.
    Closed(NodeId),
    /// A dial to this peer was answered `ConnectionRefused` every attempt.
    Refused(NodeId),
}

/// What the event loop queues to a peer's writer thread.
enum ToWriter {
    /// Encode this message, from this sender, onto the socket.
    Send(NodeId, Msg),
    /// The peer opened a connection to us: it is up, shed nothing for it.
    EndHoldoff,
    /// The peer closed a connection to us: dial now, holdoff or not.
    Check,
}

/// The real-socket [`Transport`]: peer sends are queued to per-peer
/// writer threads (never blocking the event loop), control-plane sends
/// are written inline to the requesting ctl connection.
///
/// Two ctl routes exist because checkpoint outcomes are *deferred*:
/// `CheckpointDone`/`CheckpointFailed` can surface turns later, while a
/// status poller has long since become the "most recent" ctl
/// connection. Each connection that sends `CheckpointReq` is therefore
/// pinned until an outcome is delivered to it, newest first: a request
/// the core refuses is answered in the same dispatch, before anything
/// else is pinned, so the refusal reaches the request it refuses and the
/// round's outcome the request that opened it.
struct TcpTransport {
    peers: BTreeMap<NodeId, Sender<ToWriter>>,
    /// The most recent ctl connection: immediate replies (status,
    /// digest, kill-query) go here.
    ctl: Option<Arc<Mutex<TcpStream>>>,
    /// The connections awaiting a checkpoint outcome, newest last.
    checkpoint_waiters: Vec<Arc<Mutex<TcpStream>>>,
    /// Frames handed to any outbound path (peer queue or ctl write).
    frames_out: Counter,
    /// Bytes of those frames on the wire (header, envelope, trailer),
    /// counted when the message is handed over, not when it is written.
    bytes_out: Counter,
    /// Per-peer write-queue depth: +1 on enqueue here, -1 when the
    /// writer thread dequeues. A stuck peer shows as a climbing gauge.
    peer_queues: BTreeMap<NodeId, Gauge>,
}

impl TcpTransport {
    /// Note an inbound [`CTL`] message: point immediate replies at its
    /// connection, and pin it as a checkpoint waiter if it is one.
    fn note_ctl_request(&mut self, conn: Option<Arc<Mutex<TcpStream>>>, msg: &Msg) {
        let Some(conn) = conn else {
            return;
        };
        if matches!(msg, Msg::CheckpointReq) {
            self.checkpoint_waiters.push(Arc::clone(&conn));
        }
        self.ctl = Some(conn);
    }

    fn tell_writer(&self, peer: NodeId, command: ToWriter) {
        if let Some(tx) = self.peers.get(&peer) {
            let _ = tx.send(command);
        }
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        self.frames_out.inc();
        self.bytes_out
            .add((HEADER_LEN + envelope_len(from, &msg) + TRAILER_LEN) as u64);
        if to == CTL {
            let conn = if matches!(
                msg,
                Msg::CheckpointDone { .. } | Msg::CheckpointFailed { .. }
            ) {
                // Outcome delivery consumes the newest pinned waiter.
                self.checkpoint_waiters.pop().or_else(|| self.ctl.clone())
            } else {
                self.ctl.clone()
            };
            // No controller, a stream a panicked writer left poisoned, or
            // one that hung up: the reply is dropped.
            if let Some(conn) = conn {
                if let Ok(mut stream) = conn.lock() {
                    let _ = write_envelope(&mut *stream, from, &msg);
                }
            }
        } else if let Some(tx) = self.peers.get(&to) {
            // A closed writer channel means the peer's writer is gone.
            if tx.send(ToWriter::Send(from, msg)).is_ok() {
                if let Some(q) = self.peer_queues.get(&to) {
                    q.add(1);
                }
            }
        }
    }
}

/// A single node's TCP runtime: listener, per-connection readers,
/// per-peer reconnecting writers, and the event loop that owns the
/// [`NodeCore`].
pub struct NodeRuntime {
    config: RuntimeConfig,
    listener: TcpListener,
}

impl NodeRuntime {
    /// Wrap a pre-bound listener. Binding is the caller's job so tests
    /// and the daemon can claim ephemeral ports (`127.0.0.1:0`) before
    /// peer address lists are assembled.
    pub fn new(config: RuntimeConfig, listener: TcpListener) -> Self {
        NodeRuntime { config, listener }
    }

    /// Run the node until `stop` goes true (or the event channel dies).
    /// `on_note` receives every structured protocol observation with the
    /// wall-clock [`SimTime`] it was emitted at.
    pub fn run<F>(self, stop: Arc<AtomicBool>, mut on_note: F) -> Result<(), RuntimeError>
    where
        F: FnMut(SimTime, &Note),
    {
        let NodeRuntime { config, listener } = self;
        let clock = WallClock::new();
        // Names this boot in handshakes; no two boots of one node share it.
        let since_epoch = SystemTime::now().duration_since(UNIX_EPOCH);
        let incarnation =
            since_epoch.map_or(0, |d| d.as_nanos() as u64) ^ u64::from(std::process::id());
        let mut core = NodeCore::new(config.id, config.spec.clone(), incarnation);
        let hub = config.observe.metrics.clone();

        // A rendezvous: whoever hands the loop an event waits until it is
        // taken. The loop itself waits on no reader or writer, so nobody
        // waits on it for long; and a reader that may not run ahead of it
        // allocates one part at a time, not a block's worth of them.
        let (event_tx, event_rx): (SyncSender<Event>, Receiver<Event>) = mpsc::sync_channel(0);

        // --- inbound: accept loop + per-connection readers ---
        let listen_addr = listener.local_addr().map_err(RuntimeError::Listener)?;
        let acceptor = {
            let event_tx = event_tx.clone();
            let stop = Arc::clone(&stop);
            let reader_metrics = ReaderMetrics {
                frames_in: hub.counter("transport.frames_in"),
                bytes_in: hub.counter("transport.bytes_in"),
                frame_errors: hub.counter("transport.frame_errors"),
                codec_errors: hub.counter("transport.codec_errors"),
            };
            let id = config.id.0;
            let accept = move || accept_loop(id, listener, event_tx, stop, reader_metrics);
            spawn_named(format!("accept{id}"), accept)
        };

        // --- outbound: one reconnecting writer thread per peer ---
        let mut transport = TcpTransport {
            peers: BTreeMap::new(),
            ctl: None,
            checkpoint_waiters: Vec::new(),
            frames_out: hub.counter("transport.frames_out"),
            bytes_out: hub.counter("transport.bytes_out"),
            peer_queues: BTreeMap::new(),
        };
        let connects = hub.counter("transport.connects");
        let connect_retries = hub.counter("transport.connect_retries");
        let redials = hub.counter("transport.redials");
        let oversized = hub.counter("transport.oversized_dropped");
        let peer_closed = hub.counter("transport.peer_closed");
        let peer_refused = hub.counter("transport.peer_refused");
        for (peer, addr) in &config.peers {
            let (tx, rx) = mpsc::channel();
            transport.peers.insert(*peer, tx);
            let queue = hub.gauge(&format!("transport.write_queue.peer{}", peer.0));
            transport.peer_queues.insert(*peer, queue.clone());
            let writer = WriterConfig {
                addr: *addr,
                // Distinct per (our id, peer id): redials desynchronise.
                seed: config.seed
                    ^ (config.id.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (peer.0 as u64),
                connect_timeout: CONNECT_TIMEOUT,
                redial_holdoff: REDIAL_HOLDOFF,
                connects: connects.clone(),
                connect_retries: connect_retries.clone(),
                redials: redials.clone(),
                oversized: oversized.clone(),
                queue,
            };
            let peer = *peer;
            let events = event_tx.clone();
            let name = format!("write{}-{}", config.id.0, peer.0);
            spawn_named(name, move || writer_loop(peer, writer, rx, events));
        }

        // --- event loop: owns the NodeCore ---
        let hb_gap = hub.histogram("node.heartbeat_gap_ns");
        let mut last_hb: BTreeMap<NodeId, SimTime> = BTreeMap::new();
        while !stop.load(Ordering::Relaxed) {
            let due = core.next_deadline().map_or(f64::MAX, SimTime::as_secs);
            let wait = (due - clock.now().as_secs()).clamp(0.0, STOP_CHECK.as_secs_f64());
            match event_rx.recv_timeout(StdDuration::from_secs_f64(wait)) {
                Ok(Event::Opened(peer)) => transport.tell_writer(peer, ToWriter::EndHoldoff),
                Ok(Event::Closed(peer)) => {
                    peer_closed.inc();
                    transport.tell_writer(peer, ToWriter::Check);
                }
                Ok(Event::Refused(peer)) => {
                    peer_refused.inc();
                    let now = clock.now();
                    let actions = core.on_peer_refused(peer, now);
                    for note in dispatch(&mut transport, config.id, actions) {
                        on_note(now, &note);
                    }
                }
                Ok(Event::Envelope(incoming)) => {
                    if incoming.from == CTL {
                        transport.note_ctl_request(incoming.writer.clone(), &incoming.msg);
                        // Observability scrapes are answered by the
                        // runtime, not the core: the registry and the
                        // trace ring live out here beside it.
                        match incoming.msg {
                            Msg::MetricsReq => {
                                transport.send(config.id, CTL, Msg::MetricsResp(hub.snapshot()));
                                continue;
                            }
                            Msg::TraceTailReq { max } => {
                                let (mut events, mut dropped) = match &config.observe.ring {
                                    Some(ring) => (ring.events(), ring.dropped()),
                                    None => (Vec::new(), 0),
                                };
                                if max > 0 && events.len() > max as usize {
                                    let cut = events.len() - max as usize;
                                    dropped += cut as u64;
                                    events.drain(..cut);
                                }
                                let resp = Msg::TraceTailResp {
                                    node: config.id,
                                    now: clock.now(),
                                    dropped,
                                    events,
                                };
                                transport.send(config.id, CTL, resp);
                                continue;
                            }
                            _ => {}
                        }
                    }
                    let now = clock.now();
                    if hub.enabled() {
                        if let Msg::Heartbeat { node } = &incoming.msg {
                            if let Some(prev) = last_hb.insert(*node, now) {
                                hb_gap.record(nanos_between(prev, now));
                            }
                        }
                    }
                    let actions = core.on_message(incoming.from, incoming.msg, now);
                    for note in dispatch(&mut transport, config.id, actions) {
                        on_note(now, &note);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }
            let now = clock.now();
            if core.next_deadline().is_some_and(|due| now >= due) {
                let actions = core.on_tick(now);
                for note in dispatch(&mut transport, config.id, actions) {
                    on_note(now, &note);
                }
            }
        }
        // `accept()` returns only for a connection: make the one that lets
        // the accept thread see `stop` (set here too, for the exit on a dead
        // channel), then wait for it to close the port.
        stop.store(true, Ordering::Relaxed);
        if TcpStream::connect_timeout(&listen_addr, CONNECT_TIMEOUT).is_ok() {
            let _ = acceptor.join();
        }
        Ok(())
    }
}

/// The inbound-side counters every reader thread feeds. Cloning is a
/// handful of `Arc` bumps (or nothing when metrics are off).
#[derive(Clone)]
struct ReaderMetrics {
    frames_in: Counter,
    bytes_in: Counter,
    frame_errors: Counter,
    codec_errors: Counter,
}

/// Accept inbound connections, blocking, until `stop` (seen on the next
/// connection, which `run` makes); each gets a reader thread, named for
/// node `id`.
fn accept_loop(
    id: usize,
    listener: TcpListener,
    event_tx: SyncSender<Event>,
    stop: Arc<AtomicBool>,
    metrics: ReaderMetrics,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Relaxed) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let _ = stream.set_nodelay(true);
                let writer = stream.try_clone().ok().map(|w| Arc::new(Mutex::new(w)));
                let event_tx = event_tx.clone();
                let metrics = metrics.clone();
                let read = move || reader_loop(stream, writer, event_tx, metrics);
                spawn_named(format!("read{id}"), read);
            }
            // E.g. out of descriptors: back off, do not spin on the error.
            Err(_) => std::thread::sleep(StdDuration::from_millis(5)),
        }
    }
}

/// Spawns `f` on a thread called `name`, as `top -H` and
/// `/proc/<pid>/task/*/comm` show it (Linux keeps its first 15 bytes).
fn spawn_named<T: Send + 'static>(
    name: String,
    f: impl FnOnce() -> T + Send + 'static,
) -> std::thread::JoinHandle<T> {
    (std::thread::Builder::new().name(name))
        .spawn(f)
        .expect("failed to spawn thread")
}

/// Decode envelopes off one inbound connection until it closes or
/// violates framing; every envelope becomes an event, and so do a peer's
/// first envelope and the end of a connection that carried one. Framing
/// violations kill only this connection — the peer's reconnect machinery
/// dials anew.
fn reader_loop(
    stream: TcpStream,
    writer: Option<Arc<Mutex<TcpStream>>>,
    event_tx: SyncSender<Event>,
    metrics: ReaderMetrics,
) {
    // Headers, trailers and small messages come out of this buffer; an
    // image is read past it, into the message.
    let mut stream = BufReader::new(stream);
    let mut peer = None;
    loop {
        let (from, msg) = match read_envelope(&mut stream) {
            Ok(Ok(envelope)) => envelope,
            Err(FrameError::Io(_)) => break, // closed / reset / torn
            Err(_) => {
                // Framing violation: drop conn.
                metrics.frame_errors.inc();
                break;
            }
            Ok(Err(_)) => {
                // Hostile or version-skewed peer: drop conn.
                metrics.frames_in.inc();
                metrics.codec_errors.inc();
                break;
            }
        };
        metrics.frames_in.inc();
        // The encoding is canonical, so this is the payload length read.
        metrics.bytes_in.add(envelope_len(from, &msg) as u64);
        let incoming = Incoming {
            writer: writer.clone(),
            from,
            msg,
        };
        if from != CTL && peer.replace(from).is_none() {
            let _ = event_tx.send(Event::Opened(from));
        }
        if event_tx.send(Event::Envelope(incoming)).is_err() {
            return; // runtime stopped
        }
    }
    if let Some(peer) = peer {
        let _ = event_tx.send(Event::Closed(peer));
    }
}

struct WriterConfig {
    addr: SocketAddr,
    seed: u64,
    connect_timeout: StdDuration,
    redial_holdoff: StdDuration,
    connects: Counter,
    connect_retries: Counter,
    redials: Counter,
    oversized: Counter,
    queue: Gauge,
}

/// Whether the peer closes or resets `stream` within `wait`: it never
/// writes on a connection it accepted, so the only other outcome is a timeout.
fn closes_within(mut stream: &TcpStream, wait: StdDuration) -> bool {
    use std::io::ErrorKind::{TimedOut, WouldBlock};
    stream.set_read_timeout(Some(wait)).is_ok()
        && !matches!(stream.read(&mut [0]), Err(e) if matches!(e.kind(), TimedOut | WouldBlock))
}

/// Own the outbound socket to one peer: dial lazily, encode queued
/// messages onto it, reconnect with jittered backoff on failure, hold off
/// after exhaustion. Messages that cannot be delivered are dropped — the
/// protocol retries at its own layer.
fn writer_loop(peer: NodeId, cfg: WriterConfig, rx: Receiver<ToWriter>, events: SyncSender<Event>) {
    let retry = RetryPolicy::default();
    let mut stream: Option<TcpStream> = None;
    let mut holdoff_until: Option<Instant> = None;
    let mut was_established = false;
    // The one dial. Refused on every attempt (`Err(true)`), nothing listens
    // where the peer did, and the event loop hears of it.
    let mut dial = |policy: &RetryPolicy| {
        if was_established {
            cfg.redials.inc();
        }
        match connect_with_retry(cfg.addr, policy, cfg.seed, cfg.connect_timeout) {
            Ok((stream, attempts)) => {
                cfg.connects.inc();
                cfg.connect_retries
                    .add(u64::from(attempts.saturating_sub(1)));
                was_established = true;
                Ok(stream)
            }
            Err(e) => {
                cfg.connect_retries.add(u64::from(policy.max_attempts));
                let refused = matches!(
                    e,
                    ConnectError::Exhausted {
                        all_refused: true,
                        ..
                    }
                );
                if refused {
                    let _ = events.send(Event::Refused(peer));
                }
                Err(refused)
            }
        }
    };
    while let Ok(command) = rx.recv() {
        let (from, msg) = match command {
            ToWriter::Send(from, msg) => (from, msg),
            ToWriter::EndHoldoff => {
                holdoff_until = None;
                continue;
            }
            ToWriter::Check => {
                // One attempt a dial, no holdoff after. A dial into an
                // exiting peer's backlog is reset with it, or is itself
                // reset: ask again. Keep what stays open a holdoff long, the
                // old socket if there is one (DESIGN.md "Threading").
                let once = RetryPolicy {
                    max_attempts: 1,
                    ..retry
                };
                let mut old = stream.take();
                for _ in 0..retry.max_attempts {
                    match dial(&once) {
                        Ok(fresh) => {
                            let kept = old.take().unwrap_or(fresh);
                            if !closes_within(&kept, cfg.redial_holdoff) {
                                stream = Some(kept);
                                break;
                            }
                        }
                        Err(true) => break,
                        Err(false) => {}
                    }
                }
                holdoff_until = None;
                continue;
            }
        };
        cfg.queue.add(-1);
        // During holdoff the peer is known-dead: shed load instead of
        // dialing per frame.
        if holdoff_until.is_some_and(|until| Instant::now() < until) {
            continue;
        }
        // One reconnect attempt per frame: a write failure invalidates
        // the socket, the retry dials fresh, a second failure drops the
        // frame.
        for attempt in 0..2 {
            if stream.is_none() {
                stream = dial(&retry).ok();
                holdoff_until = stream
                    .is_none()
                    .then(|| Instant::now() + cfg.redial_holdoff);
            }
            match stream.as_mut().map(|s| write_envelope(s, from, &msg)) {
                None => break, // the dial failed: drop this frame
                Some(Ok(())) => break,
                // Refused before a byte was written: the socket is fine,
                // the message is lost like any other undeliverable one.
                Some(Err(FrameError::Oversized { .. })) => {
                    cfg.oversized.inc();
                    break;
                }
                Some(Err(_)) => {}
            }
            stream = None;
            if attempt == 1 {
                break; // second failure: drop the frame
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::MAX_FRAME;
    use std::io::Write;

    fn image(len: usize) -> Msg {
        Msg::Payload {
            epoch: 1,
            source: NodeId(0),
            fence_epoch: 0,
            data: vec![0xA5; len],
        }
    }

    fn reader_metrics(hub: &MetricsHub) -> ReaderMetrics {
        ReaderMetrics {
            frames_in: hub.counter("frames_in"),
            bytes_in: hub.counter("bytes_in"),
            frame_errors: hub.counter("frame_errors"),
            codec_errors: hub.counter("codec_errors"),
        }
    }

    /// Runs a reader over `bytes` written to a loopback connection that is
    /// then closed, and returns everything it queued, by name.
    fn read_to_close(hub: &MetricsHub, bytes: &[&[u8]]) -> Vec<String> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (rx, _) = listener.accept().unwrap();
        // Room for everything one connection can say: the test reads the
        // events only once the reader has returned.
        let (event_tx, event_rx) = mpsc::sync_channel(16);
        let metrics = reader_metrics(hub);
        let reader = std::thread::spawn(move || reader_loop(rx, None, event_tx, metrics));
        for chunk in bytes {
            // Behind a corruption the connection is dead, and the write
            // itself may already fail.
            let _ = tx.write_all(chunk);
        }
        drop(tx);
        // The reader's sender goes with it, so the channel ends.
        reader.join().unwrap();
        let name = |event| match event {
            Event::Envelope(incoming) => format!("{:?} from {}", incoming.msg, incoming.from.0),
            Event::Opened(peer) => format!("opened {}", peer.0),
            Event::Closed(peer) => format!("closed {}", peer.0),
            Event::Refused(peer) => format!("refused {}", peer.0),
        };
        event_rx.iter().map(name).collect()
    }

    fn encoded(from: NodeId, msg: &Msg) -> Vec<u8> {
        let mut bytes = Vec::new();
        write_envelope(&mut bytes, from, msg).unwrap();
        bytes
    }

    #[test]
    fn corrupt_image_never_reaches_the_event_channel() {
        let hub = MetricsHub::new();
        let good = encoded(NodeId(0), &Msg::Commit { epoch: 1 });
        let mut bad = encoded(NodeId(0), &image(1 << 20));
        bad[1 << 19] ^= 0x01;
        // The reader drops the connection at the bad trailer: the valid
        // message behind the corruption is never read.
        let got = read_to_close(&hub, &[&good, &bad, &good]);
        assert_eq!(
            got,
            ["opened 0", "Commit { epoch: 1 } from 0", "closed 0"],
            "a peer's connection opens at its first envelope and closes once"
        );
        let snap = hub.snapshot();
        assert_eq!(snap.counter("frame_errors"), Some(1));
        assert_eq!(snap.counter("frames_in"), Some(1));
    }

    #[test]
    fn ctl_and_silent_connections_report_no_link() {
        let hub = MetricsHub::new();
        // A dvdc-ctl client comes and goes with every request.
        let request = encoded(CTL, &Msg::StatusReq);
        let got = read_to_close(&hub, &[&request]);
        assert_eq!(got, [format!("StatusReq from {}", CTL.0)]);
        // So does a writer's probe dial, which carries nothing at all.
        assert!(read_to_close(&hub, &[]).is_empty());
    }

    /// A writer for peer 1 at `addr`, its command queue, and the events it
    /// reports. The holdoff outlasts any test: only a command ends it.
    fn writer_at(
        hub: &MetricsHub,
        addr: SocketAddr,
    ) -> (
        Sender<ToWriter>,
        Receiver<Event>,
        std::thread::JoinHandle<()>,
    ) {
        writer_with(hub, addr, StdDuration::from_secs(3600))
    }

    fn writer_with(
        hub: &MetricsHub,
        addr: SocketAddr,
        redial_holdoff: StdDuration,
    ) -> (
        Sender<ToWriter>,
        Receiver<Event>,
        std::thread::JoinHandle<()>,
    ) {
        let cfg = WriterConfig {
            addr,
            seed: 1,
            connect_timeout: StdDuration::from_secs(5),
            redial_holdoff,
            connects: hub.counter("connects"),
            connect_retries: hub.counter("connect_retries"),
            redials: hub.counter("redials"),
            oversized: hub.counter("oversized"),
            queue: hub.gauge("queue"),
        };
        let (tx, rx) = mpsc::channel();
        let (event_tx, event_rx) = mpsc::sync_channel(16);
        let writer = std::thread::spawn(move || writer_loop(NodeId(1), cfg, rx, event_tx));
        (tx, event_rx, writer)
    }

    fn commit(epoch: u64) -> ToWriter {
        ToWriter::Send(NodeId(0), Msg::Commit { epoch })
    }

    #[test]
    fn oversized_message_is_dropped_and_the_link_carries_on() {
        let hub = MetricsHub::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tx, _events, writer) = writer_at(&hub, listener.local_addr().unwrap());

        tx.send(commit(1)).unwrap();
        tx.send(ToWriter::Send(NodeId(0), image(MAX_FRAME as usize)))
            .unwrap();
        tx.send(commit(2)).unwrap();
        drop(tx);
        writer.join().unwrap();

        // Both small messages arrive on the one connection ever dialed.
        let mut conn = listener.accept().unwrap().0;
        for epoch in [1, 2] {
            assert_eq!(
                read_envelope(&mut conn),
                Ok(Ok((NodeId(0), Msg::Commit { epoch })))
            );
        }
        let snap = hub.snapshot();
        assert_eq!(snap.counter("oversized"), Some(1));
        assert_eq!(snap.counter("connects"), Some(1));
    }

    #[test]
    fn refused_dial_is_reported_and_the_peer_coming_back_ends_its_holdoff() {
        let hub = MetricsHub::new();
        // Bound and dropped: the host is up, nothing listens on the port.
        let addr = {
            let gone = TcpListener::bind("127.0.0.1:0").unwrap();
            gone.local_addr().unwrap()
        };
        let (tx, events, writer) = writer_at(&hub, addr);
        tx.send(commit(1)).unwrap();
        assert!(matches!(events.recv(), Ok(Event::Refused(NodeId(1)))));

        // The peer restarts on its port. What is sent inside the holdoff is
        // shed; once the peer has been heard from, what is sent arrives.
        let listener = TcpListener::bind(addr).expect("std sets SO_REUSEADDR");
        tx.send(commit(2)).unwrap();
        tx.send(ToWriter::EndHoldoff).unwrap();
        tx.send(commit(3)).unwrap();
        drop(tx);
        writer.join().unwrap();
        let mut conn = listener.accept().unwrap().0;
        assert_eq!(
            read_envelope(&mut conn),
            Ok(Ok((NodeId(0), Msg::Commit { epoch: 3 })))
        );
        assert!(events.try_recv().is_err(), "one refusal, reported once");
    }

    #[test]
    fn check_beside_a_live_socket_keeps_it_and_reports_nothing() {
        let hub = MetricsHub::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // The check watches the socket it keeps for one holdoff.
        let holdoff = StdDuration::from_millis(50);
        let (tx, events, writer) = writer_with(&hub, listener.local_addr().unwrap(), holdoff);
        tx.send(commit(1)).unwrap();
        tx.send(ToWriter::Check).unwrap();
        tx.send(commit(2)).unwrap();
        drop(tx);
        writer.join().unwrap();

        // The first connection carries both messages; the probe beside it
        // was closed before it carried any.
        let mut first = listener.accept().unwrap().0;
        for epoch in [1, 2] {
            assert_eq!(
                read_envelope(&mut first),
                Ok(Ok((NodeId(0), Msg::Commit { epoch })))
            );
        }
        let mut probe = listener.accept().unwrap().0;
        assert!(matches!(read_envelope(&mut probe), Err(FrameError::Io(_))));
        assert!(events.try_recv().is_err());
        assert_eq!(hub.snapshot().counter("connects"), Some(2));
    }

    #[test]
    fn check_sees_through_the_backlog_of_a_listener_that_dies_with_its_process() {
        let hub = MetricsHub::new();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // A holdoff so long that this thread, however late it is
        // scheduled, closes the backlog before the writer trusts it.
        let (tx, events, writer) = writer_at(&hub, listener.local_addr().unwrap());
        tx.send(commit(1)).unwrap();
        let first = listener.accept().unwrap().0;

        // An exiting process: its sockets close one by one, the listener
        // last. Until then the kernel completes handshakes nobody accepts.
        drop(first);
        tx.send(ToWriter::Check).unwrap();
        // The probe beside the (dead) first socket, then the redial that
        // replaces it: both sit in the backlog when the listener goes.
        let backlog = [listener.accept().unwrap().0, listener.accept().unwrap().0];
        drop(listener);
        drop(backlog);
        assert!(matches!(events.recv(), Ok(Event::Refused(NodeId(1)))));
        drop(tx);
        writer.join().unwrap();
    }
}
