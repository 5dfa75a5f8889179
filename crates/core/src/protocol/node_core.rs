//! Per-node DVDC protocol state machine — the deployable core.
//!
//! [`DvdcProtocol`](super::DvdcProtocol) is a *global* model: one struct
//! owns every node's store and runs the round as a single closed-world
//! computation, which is exactly right for the simulation studies but can
//! never be cut across OS processes. This module is the distributed
//! refactor of the same protocol: [`NodeCore`] holds **one node's** view
//! (its live VM image, its committed checkpoint block, its replica of the
//! fence registry, its own failure detector) and advances purely by
//! consuming messages and clock ticks. The state machine performs no IO
//! and reads no clock — every entry point takes `now` and returns the
//! [`Action`]s (sends, notes) the caller must carry out — so the *same*
//! code drives the deterministic in-process cluster (see
//! [`Harness`](super::harness::Harness)) and real processes over TCP (the
//! `dvdc-transport` / `dvdc-node` crates).
//!
//! The pieces are genuinely reused, not reimplemented: heartbeat silence
//! is judged by [`FailureDetector`], fencing by a replicated
//! [`FenceRegistry`] (converged via broadcast with
//! [`FenceRegistry::advance_to`]), and parity by the [`ErasureCode`]
//! implementations the sim protocols use.
//!
//! # Two rules that keep the coordinator a member like any other
//!
//! * **A send to oneself is delivered by the entry point before it
//!   returns.** The coordinator sends itself the `RoundBegin`, blocks,
//!   acks and `Commit` it sends everyone else, and [`NodeCore::on_message`],
//!   [`NodeCore::on_tick`] and [`NodeCore::on_peer_refused`] hand each
//!   back to it at their own `now`, in the order sent and behind the
//!   filters a peer's message meets, until none is left. A driver never
//!   sees one.
//! * **A custody block is a committed block held for a fenced slot:** an
//!   `(epoch, bytes)` pair like the node's own, whose kind follows from
//!   its slot and whose digest is computed when asked.
//!
//! # Protocol sketch
//!
//! * Nodes `0..k` are data nodes, each hosting one VM image; nodes
//!   `k..k+m` hold parity. The lowest live unfenced node acts as round
//!   coordinator.
//! * A round is the paper's two-phase commit: `RoundBegin` → each data
//!   node captures its image (after a configurable delay — the real
//!   mid-round fault window), ships it to every parity holder and
//!   `CaptureAck`s, and at the same instant the coordinator ships the
//!   custody blocks of members that are out; holders fold each block
//!   into their shard as it arrives and `FoldAck` on the `k`-th; the
//!   coordinator broadcasts `Commit`; everyone promotes staged state and
//!   `CommitAck`s, and the last `CommitAck` closes the round.
//! * Heartbeats flow between established sessions; each node feeds its
//!   own detector, which confirms a node after enough silence, or a heartbeat
//!   interval after the driver says its port refuses connections. When
//!   the acting coordinator's detector **Confirms** a node it fences it
//!   (epoch bump, broadcast), aborts any open round, and rebuilds the
//!   victim's committed block from survivor blocks + parity, holding the
//!   result in *custody* so later rounds stay fully encoded.
//! * A restarted victim comes back empty (diskless!), is `Rejected` at
//!   the handshake for holding a pre-fence epoch, resyncs from the
//!   coordinator's custody, and is readmitted cluster-wide at its
//!   post-fence epoch with a cluster rollback to the committed round.
//!   Every member greets it as it learns of the readmission.
//! * Handshakes name the *boot* that speaks. A greeting from another boot
//!   of a peer is evidence the one a node knew is gone, however fast the
//!   restart: it is confirmed and fenced like any other death, and the
//!   new boot takes the same way back in.
//! * A fenced node is no member. What it says as one is dropped, and its
//!   heartbeat is answered `Rejected`, which is how a node that was only
//!   frozen learns to stand down: it discards what it holds, asks for its
//!   state back, and hears nothing else until its own readmission. A node
//!   that finds it has not run for longer than the detector's timeout
//!   decides nothing as coordinator until a peer has welcomed it.
//! * Coordination falls back to a lower member as it returns. It is told
//!   on readmission who else is fenced, and owes each of them the rebuild
//!   and the resync a coordinator before it may not have got to.
//!
//! Losses beyond the code's tolerance surface as [`Note::DataLoss`] —
//! typed, never a panic.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use dvdc_faults::detector::{DetectorConfig, FailureDetector, Verdict};
use dvdc_observe::metrics::EventMetrics;
use dvdc_observe::registry::{Counter, HistogramHandle, MetricsHub, Stamp};
use dvdc_observe::spans::OPEN_SPAN_CAP;
use dvdc_observe::{Event, MetricsSnapshot, TimedEvent};
use dvdc_parity::code::{self, ErasureCode};
use dvdc_parity::rs::MAX_SHARDS;
use dvdc_simcore::rng::{splitmix64, SPLITMIX_GAMMA};
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::FenceRegistry;

/// Pseudo node id used by `dvdc-ctl` (and test drivers) as the sender of
/// control-plane requests; replies are routed back to it by the runtime.
pub const CTL: NodeId = NodeId(usize::MAX);

/// Which slot of the erasure group a block fills.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// A data node's checkpoint image (slot `node`).
    Data,
    /// A parity holder's shard (slot `node` = `k + j`).
    Parity,
}

/// Where a [`Msg::DigestResp`] digest was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestSource {
    /// The node's own committed checkpoint block.
    Committed,
    /// The coordinator's custody copy of a fenced node's block.
    Custody,
    /// No committed state exists for the queried node.
    Missing,
}

/// One part of a block in a rebuild answer ([`Msg::FetchPart`],
/// [`Msg::FetchBlocks`]): bytes of the committed state of slot `holder`
/// at `epoch`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockInfo {
    /// The node whose erasure-group slot this block fills (not
    /// necessarily the sender — custody blocks travel on behalf of their
    /// fenced owner).
    pub holder: NodeId,
    /// Data image or parity shard.
    pub kind: BlockKind,
    /// The committed epoch the block belongs to.
    pub epoch: u64,
    /// The part's bytes: the whole block when it is one part.
    pub data: Vec<u8>,
}

/// Control-plane snapshot of one node, served over [`Msg::StatusReq`].
#[derive(Debug, Clone, PartialEq)]
pub struct StatusView {
    /// The reporting node.
    pub node: NodeId,
    /// Who this node currently believes coordinates rounds.
    pub coordinator: NodeId,
    /// Last committed checkpoint epoch (0 = none yet).
    pub committed_epoch: u64,
    /// This node's own fence epoch in its registry replica.
    pub fence_epoch: u64,
    /// Peers with an established session.
    pub peers_established: Vec<NodeId>,
    /// Peers currently suspected by the local detector.
    pub suspected: Vec<NodeId>,
    /// Peers confirmed failed by the local detector.
    pub confirmed: Vec<NodeId>,
    /// Fenced nodes whose rebuilt blocks this node holds in custody.
    pub custody: Vec<NodeId>,
    /// Rounds this node has seen commit.
    pub rounds_committed: u64,
    /// True if a rebuild ever ended in typed data loss on this node.
    pub data_loss: bool,
}

/// Every message of the distributed DVDC protocol (data plane, failure
/// plane, and the `dvdc-ctl` control plane).
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Session handshake: "I am instance `incarnation` of `node` of
    /// cluster `cluster_id`, at fence epoch `fence_epoch`." Rejected when
    /// the epoch is pre-fence.
    Hello {
        /// The dialing node.
        node: NodeId,
        /// Cluster identity — cross-cluster dials are ignored.
        cluster_id: u64,
        /// The dialer's own fence epoch.
        fence_epoch: u64,
        /// Which boot of `node` is speaking (see [`NodeCore::new`]).
        incarnation: u64,
    },
    /// Handshake accept: a session now exists in this direction.
    Welcome {
        /// The accepting node.
        node: NodeId,
        /// The accepter's own fence epoch.
        fence_epoch: u64,
        /// Which boot of `node` is speaking.
        incarnation: u64,
    },
    /// Handshake refusal: the dialer is fenced and must resync first.
    Rejected {
        /// The refused (fenced) node.
        node: NodeId,
        /// The fence epoch it must present after resync.
        required_epoch: u64,
        /// Whom to ask for resync.
        coordinator: NodeId,
    },
    /// Liveness beacon, sent every `DetectorConfig::heartbeat_interval`.
    Heartbeat {
        /// The beaconing node.
        node: NodeId,
    },
    /// Coordinator opens checkpoint round `epoch`.
    RoundBegin {
        /// The round's (tentative) epoch.
        epoch: u64,
        /// Data slots that will be encoded: live data members first, then
        /// custody orphans the coordinator ships on behalf of.
        sources: Vec<NodeId>,
        /// Parity nodes expected to fold and ack.
        holders: Vec<NodeId>,
    },
    /// The last part of a captured checkpoint block in flight to a parity
    /// holder — the whole block when it is one part. Its offset is implied
    /// by its length: `image_len − data.len()`.
    Payload {
        /// Round epoch the capture belongs to.
        epoch: u64,
        /// The data slot this block fills.
        source: NodeId,
        /// Sender's fence epoch — stale (pre-fence) payloads are dropped.
        fence_epoch: u64,
        /// The part's bytes.
        data: Vec<u8>,
    },
    /// Any other part of a captured checkpoint block in flight to a
    /// parity holder.
    PayloadPart {
        /// Round epoch the capture belongs to.
        epoch: u64,
        /// The data slot this block fills.
        source: NodeId,
        /// Sender's fence epoch — stale (pre-fence) parts are dropped.
        fence_epoch: u64,
        /// Where in the block the part begins, a multiple of [`PART_LEN`].
        offset: u64,
        /// The part's [`PART_LEN`] bytes.
        data: Vec<u8>,
    },
    /// Data member reports its capture is staged and shipped.
    CaptureAck {
        /// Round epoch.
        epoch: u64,
        /// The acking member.
        node: NodeId,
    },
    /// Parity holder reports its shard is folded and staged.
    FoldAck {
        /// Round epoch.
        epoch: u64,
        /// The acking holder.
        node: NodeId,
    },
    /// Coordinator: all acks in — promote staged state to committed.
    Commit {
        /// The epoch being committed.
        epoch: u64,
    },
    /// Participant finished promoting `epoch`.
    CommitAck {
        /// The committed epoch.
        epoch: u64,
        /// The acking participant.
        node: NodeId,
    },
    /// Coordinator abandons the open round (timeout or member failure);
    /// participants drop staged state, committed state is untouched.
    AbortRound {
        /// The abandoned epoch.
        epoch: u64,
        /// Why the round died.
        reason: String,
    },
    /// Coordinator's fencing decision, replicated to every peer
    /// ([`FenceRegistry::advance_to`]).
    Fence {
        /// The fenced node.
        node: NodeId,
        /// Its post-bump fence epoch.
        epoch: u64,
    },
    /// Coordinator asks a survivor for its committed blocks to rebuild
    /// `victim`.
    FetchReq {
        /// The node being rebuilt.
        victim: NodeId,
    },
    /// One part of a block in a survivor's rebuild contribution, other
    /// than the block's last, which travels in the closing
    /// [`Msg::FetchBlocks`].
    FetchPart {
        /// The responding node.
        node: NodeId,
        /// Sender's fence epoch — stale responders are dropped.
        fence_epoch: u64,
        /// Where in the block the part begins, a multiple of [`PART_LEN`].
        offset: u64,
        /// The part, tagged with its block's slot and epoch.
        part: BlockInfo,
    },
    /// Closes a survivor's rebuild contribution — its own committed block
    /// plus any custody blocks it holds — with the last part of each, its
    /// offset implied by its length as a [`Msg::Payload`]'s is.
    FetchBlocks {
        /// The responding node.
        node: NodeId,
        /// Sender's fence epoch — stale responders are dropped.
        fence_epoch: u64,
        /// The last parts, each tagged with its block's slot and epoch.
        blocks: Vec<BlockInfo>,
    },
    /// A fenced node (restarted, empty) asks the coordinator for its
    /// state back.
    ResyncReq {
        /// The resyncing node.
        node: NodeId,
    },
    /// Coordinator ships the rebuilt state: adopt, then `ResyncDone`.
    ResyncState {
        /// The resyncing node.
        node: NodeId,
        /// The post-fence epoch the node must adopt.
        fence_epoch: u64,
        /// The committed epoch of the shipped block (and of the cluster).
        committed_epoch: u64,
        /// The custody block (`None` when nothing is held — e.g. a parity
        /// node whose shard went stale; it re-folds next round).
        image: Option<Vec<u8>>,
    },
    /// Resyncing node confirms it installed the shipped state.
    ResyncDone {
        /// The resynced node.
        node: NodeId,
        /// The fence epoch it now runs at.
        fence_epoch: u64,
    },
    /// Coordinator readmits a resynced node cluster-wide; peers unfence
    /// it at `fence_epoch`, re-admit it to their detectors, and roll live
    /// images back to the committed round (the paper's cluster rollback).
    Readmit {
        /// The readmitted node.
        node: NodeId,
        /// Its post-fence epoch.
        fence_epoch: u64,
        /// The committed epoch everyone resumes from.
        rollback_epoch: u64,
    },
    /// ctl: request a [`StatusView`].
    StatusReq,
    /// ctl: the snapshot.
    StatusResp(StatusView),
    /// ctl: run one checkpoint round (only the coordinator accepts).
    CheckpointReq,
    /// ctl: the requested round committed.
    CheckpointDone {
        /// The committed epoch.
        epoch: u64,
    },
    /// ctl: the requested round failed — typed reason, no panic.
    CheckpointFailed {
        /// Why the round could not start or commit.
        reason: String,
    },
    /// ctl: ask for the digest of `node`'s committed block.
    DigestReq {
        /// The node whose state is digested.
        node: NodeId,
    },
    /// ctl: digest answer.
    DigestResp {
        /// The digested node.
        node: NodeId,
        /// Epoch of the digested block (0 when `source` is `Missing`).
        epoch: u64,
        /// [`block_digest`] of the block bytes (0 when missing).
        digest: u64,
        /// Where the bytes came from.
        source: DigestSource,
    },
    /// ctl: which peers does this node consider suspected/confirmed?
    KillQueryReq,
    /// ctl: the detector's current verdict sets.
    KillQueryResp {
        /// Peers confirmed failed.
        confirmed: Vec<NodeId>,
        /// Peers currently suspected.
        suspected: Vec<NodeId>,
    },
    /// ctl: scrape the node's live metrics registry. Answered by the
    /// hosting runtime (the registry lives beside the core, not in it).
    MetricsReq,
    /// ctl: the registry snapshot.
    MetricsResp(MetricsSnapshot),
    /// ctl: scrape the tail of the node's trace ring. Answered by the
    /// hosting runtime.
    TraceTailReq {
        /// Keep only the newest `max` events (0 = the whole ring).
        max: u32,
    },
    /// ctl: the trace-ring tail, plus the clock anchor `dvdc-ctl
    /// trace-merge` rebases with.
    TraceTailResp {
        /// The responding node.
        node: NodeId,
        /// The node's own clock at scrape time (since its process
        /// start).
        now: SimTime,
        /// Older events evicted from the ring.
        dropped: u64,
        /// The buffered tail, oldest first.
        events: Vec<TimedEvent>,
    },
}

/// Things a [`NodeCore`] asks its driver to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Transmit `msg` to `to` (possibly [`CTL`]).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// A structured observation for logging / tracing / assertions.
    Note(Note),
}

/// Structured protocol observations, the deployable analogue of the sim's
/// observe events. The runtime maps these onto `dvdc-observe` events and
/// log lines; tests assert on them directly.
#[derive(Debug, Clone, PartialEq)]
pub enum Note {
    /// A session with `peer` is up (we heard Hello or Welcome).
    SessionEstablished {
        /// The peer.
        peer: NodeId,
    },
    /// Our Hello was rejected — we are fenced and must resync.
    HelloRejected {
        /// Who rejected us.
        peer: NodeId,
        /// The epoch we must come back with.
        required_epoch: u64,
    },
    /// Local detector verdict on a peer.
    PeerVerdict {
        /// The judged peer.
        node: NodeId,
        /// The verdict.
        verdict: Verdict,
        /// True when link evidence reached it ([`NodeCore::on_peer_refused`]),
        /// false when heartbeats and the detector's timers did.
        evidence: bool,
    },
    /// A node was fenced (locally decided or learned by broadcast).
    Fenced {
        /// The fenced node.
        node: NodeId,
        /// Its new fence epoch.
        epoch: u64,
    },
    /// A checkpoint round opened.
    RoundStarted {
        /// Round epoch.
        epoch: u64,
    },
    /// A checkpoint round fully committed (coordinator view).
    RoundCommitted {
        /// Committed epoch.
        epoch: u64,
    },
    /// A round died without committing.
    RoundAborted {
        /// The abandoned epoch.
        epoch: u64,
        /// Why.
        reason: String,
    },
    /// Rebuild of a fenced node's block began.
    RebuildStarted {
        /// The node being rebuilt.
        victim: NodeId,
    },
    /// Rebuild finished; the block is in custody.
    RebuildCompleted {
        /// The rebuilt node.
        victim: NodeId,
        /// Epoch of the rebuilt block.
        epoch: u64,
        /// [`block_digest`] of the rebuilt bytes.
        digest: u64,
    },
    /// The failure pattern exceeded the code's tolerance — the paper's
    /// honest failure mode, typed instead of panicking.
    DataLoss {
        /// The unrebuildable node.
        victim: NodeId,
        /// What went wrong.
        reason: String,
    },
    /// A data-plane message from a stale (pre-fence) sender was dropped.
    StaleRejected {
        /// The stale sender.
        from: NodeId,
        /// The epoch it presented.
        held_epoch: u64,
        /// The epoch the registry requires.
        current_epoch: u64,
    },
    /// A malformed or unusable payload was dropped.
    PayloadDropped {
        /// The sender.
        from: NodeId,
        /// Why it was dropped.
        reason: String,
    },
    /// We served a resync to a rejoining node.
    ResyncServed {
        /// The rejoining node.
        peer: NodeId,
    },
    /// This data member's capture window closed and its block shipped —
    /// the paper's per-round freeze cost, measured live.
    CaptureShipped {
        /// Round epoch the capture belongs to.
        epoch: u64,
        /// Seconds from round open to the capture leaving this node.
        window_secs: f64,
    },
    /// A rebuild pipeline crossed into a named phase (Fetch, Decode).
    RebuildPhase {
        /// The node being rebuilt.
        victim: NodeId,
        /// Phase name.
        phase: &'static str,
    },
    /// A node was readmitted at its post-fence epoch.
    Readmitted {
        /// The readmitted node.
        node: NodeId,
        /// Its fence epoch.
        epoch: u64,
    },
}

/// Maps a protocol [`Note`] onto the observe [`Event`] vocabulary, so
/// session chatter and drop decisions reach the trace ring (panic dumps,
/// `dvdc-ctl trace-tail`) and the metrics fold instead of existing only
/// in the stderr log. Every note has exactly one event.
pub fn note_event(note: &Note) -> Event {
    match note {
        Note::PeerVerdict { node, verdict, .. } => match verdict {
            Verdict::Suspected => Event::Suspected { node: node.0 },
            Verdict::Confirmed => Event::Confirmed { node: node.0 },
            Verdict::Refuted => Event::Refuted { node: node.0 },
        },
        Note::Fenced { node, epoch } => Event::FenceRaised {
            node: node.0,
            epoch: *epoch,
        },
        Note::RoundStarted { epoch } => Event::RoundBegin { epoch: *epoch },
        Note::RoundCommitted { epoch } => Event::RoundCommitted { epoch: *epoch },
        Note::RoundAborted { epoch, .. } => Event::RoundAborted {
            epoch: *epoch,
            phase: "Distributed",
        },
        Note::RebuildStarted { victim } => Event::RebuildBegin {
            victim: victim.0,
            mode: "Custody",
            epoch: 0,
        },
        Note::RebuildCompleted { victim, .. } => Event::RebuildCompleted { victim: victim.0 },
        Note::DataLoss { victim, .. } => Event::DataLoss {
            node: victim.0,
            group: 0,
        },
        Note::Readmitted { node, epoch } => Event::FenceReadmitted {
            node: node.0,
            epoch: *epoch,
        },
        Note::SessionEstablished { peer } => Event::SessionEstablished { peer: peer.0 },
        Note::HelloRejected {
            peer,
            required_epoch,
        } => Event::SessionRejected {
            peer: peer.0,
            required_epoch: *required_epoch,
        },
        Note::StaleRejected {
            from,
            held_epoch,
            current_epoch,
        } => Event::StaleDropped {
            from: from.0,
            held_epoch: *held_epoch,
            current_epoch: *current_epoch,
        },
        Note::PayloadDropped { from, .. } => Event::PayloadDropped { from: from.0 },
        Note::ResyncServed { peer } => Event::ResyncServed { peer: peer.0 },
        // The capture has shipped, so what begins is the transfer; the
        // window before it travels as `window_secs`.
        Note::CaptureShipped { epoch, .. } => Event::RoundPhase {
            epoch: *epoch,
            phase: "Transfer",
        },
        Note::RebuildPhase { victim, phase } => Event::RebuildPhase {
            victim: victim.0,
            phase,
        },
    }
}

/// The node-level metrics plane, derived from the protocol's [`Note`]
/// stream: each note folds through [`EventMetrics`] as its
/// [`note_event`], which gives a live node the instruments a traced
/// simulation reports under the same names, plus the two facts no
/// [`Event`] carries — the capture window, and whether a death was
/// confirmed on link evidence or by the timers. Feed it from the
/// daemon's `on_note` callback; all handles come from one
/// [`MetricsHub`], so a no-op hub makes every call a few branches.
#[derive(Debug)]
pub struct NodeMetrics {
    events: EventMetrics,
    capture_window: HistogramHandle,
    confirmed_by_evidence: Counter,
    confirmed_by_timeout: Counter,
}

impl NodeMetrics {
    /// Registers every node-plane instrument on `hub`.
    pub fn new(hub: &MetricsHub) -> Self {
        NodeMetrics {
            events: EventMetrics::new(hub, OPEN_SPAN_CAP),
            capture_window: hub.histogram("node.capture_window_ns"),
            confirmed_by_evidence: hub.counter("faults.detector.confirmed_by_evidence"),
            confirmed_by_timeout: hub.counter("faults.detector.confirmed_by_timeout"),
        }
    }

    /// Folds one timed note into the instruments.
    pub fn observe(&mut self, at: SimTime, note: &Note) {
        self.fold(at, note);
    }

    /// [`NodeMetrics::observe`], handing back the event the note folded
    /// as, so the caller's trace ring records that same event.
    pub fn fold(&mut self, at: SimTime, note: &Note) -> Event {
        match note {
            Note::CaptureShipped { window_secs, .. } => {
                self.capture_window
                    .record(Stamp::Sim(SimTime::from_secs(*window_secs)).nanos());
            }
            Note::PeerVerdict {
                verdict: Verdict::Confirmed,
                evidence,
                ..
            } => {
                if *evidence {
                    self.confirmed_by_evidence.inc();
                } else {
                    self.confirmed_by_timeout.inc();
                }
            }
            _ => {}
        }
        let event = note_event(note);
        self.events.observe(at, &event);
        event
    }
}

/// Static description of the checkpoint group a [`NodeCore`] belongs to.
/// Every member must be constructed with an identical spec.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Cluster identity, embedded in handshakes and image seeds.
    pub cluster_id: u64,
    /// Number of data nodes `k` (ids `0..k`).
    pub data_nodes: usize,
    /// Number of parity nodes `m` (ids `k..k+m`); `m == 1` selects XOR,
    /// larger `m` Reed–Solomon.
    pub parity_nodes: usize,
    /// Bytes per VM image / checkpoint block.
    pub image_len: usize,
    /// Failure-detector tuning (heartbeat cadence lives here too).
    pub detector: DetectorConfig,
    /// How long the coordinator waits for a round's acks before aborting.
    pub round_timeout: Duration,
    /// How long the coordinator waits for rebuild contributions before
    /// deciding with what it has.
    pub rebuild_timeout: Duration,
    /// Pause between `RoundBegin` and the local capture — the genuine
    /// mid-round window fault-injection (and SIGKILL tests) aim at.
    pub capture_delay: Duration,
}

impl ClusterSpec {
    /// Total member count `k + m`.
    pub fn total(&self) -> usize {
        self.data_nodes + self.parity_nodes
    }

    /// True if `node` is one of the `k` data slots.
    fn is_data(&self, node: NodeId) -> bool {
        node.index() < self.data_nodes
    }

    /// True if `node` is one of the `m` parity slots.
    fn is_parity(&self, node: NodeId) -> bool {
        node.index() >= self.data_nodes && node.index() < self.total()
    }

    /// What member `node`'s block is: an image, or a parity shard.
    fn kind_of(&self, node: NodeId) -> BlockKind {
        match self.is_data(node) {
            true => BlockKind::Data,
            false => BlockKind::Parity,
        }
    }

    /// How many parts a block travels as.
    fn parts(&self) -> usize {
        self.image_len.div_ceil(PART_LEN)
    }

    /// Which part of a block `len` bytes at `offset` are — with no
    /// offset, the last `len` bytes — or why they are none: a part starts
    /// at a multiple of [`PART_LEN`] inside the block and runs to the
    /// next one or to the block's end.
    fn part(&self, offset: Option<u64>, len: usize) -> Result<usize, String> {
        let at = offset.map_or(self.image_len.checked_sub(len), |at| {
            usize::try_from(at).ok()
        });
        let image_len = self.image_len;
        let fits = |at: &usize| at.is_multiple_of(PART_LEN) && *at < image_len;
        match at.filter(fits) {
            Some(at) if len == PART_LEN.min(image_len - at) => Ok(at / PART_LEN),
            _ => Err(format!(
                "{len} bytes (offset {offset:?}) are no part of a {image_len}-byte block"
            )),
        }
    }

    /// Rejects a spec no group can run on: an empty group or image, a
    /// Reed–Solomon group wider than GF(256) has points for, a detector
    /// that suspects a member for one late heartbeat, a round whose
    /// timeout runs out before its capture is due, a rebuild with no time
    /// to fetch.
    pub fn validate(&self) -> Result<(), String> {
        let DetectorConfig {
            heartbeat_interval,
            timeout,
            ..
        } = self.detector;
        if self.data_nodes == 0 || self.parity_nodes == 0 {
            return Err(format!(
                "a group needs at least one data and one parity node, got k={} m={}",
                self.data_nodes, self.parity_nodes
            ));
        }
        if self.parity_nodes >= 2 && self.total() > MAX_SHARDS {
            return Err(format!(
                "a group with m ≥ 2 is Reed–Solomon over GF(256), which holds at most \
                 {MAX_SHARDS} members, got k={} m={}",
                self.data_nodes, self.parity_nodes
            ));
        }
        if self.image_len == 0 {
            return Err("the image length must not be zero".to_string());
        }
        if heartbeat_interval.is_zero() {
            return Err(
                "the heartbeat interval must not be zero: a heartbeat would fall due on \
                        every pass of the event loop"
                    .to_string(),
            );
        }
        if timeout < heartbeat_interval * 2.0 {
            return Err(format!(
                "the detector timeout ({timeout}) must be at least two heartbeat intervals \
                 ({heartbeat_interval} each): one late heartbeat is not a failure"
            ));
        }
        if self.round_timeout <= self.capture_delay {
            return Err(format!(
                "the round timeout ({}) must exceed the capture delay ({}): no round could commit",
                self.round_timeout, self.capture_delay
            ));
        }
        if self.rebuild_timeout.is_zero() {
            return Err(
                "the rebuild timeout must not be zero: a rebuild would decode before any \
                 survivor could answer"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Instantiates the group's erasure code ([`code::for_group`]): XOR
    /// for `m == 1`, Reed–Solomon otherwise.
    pub fn code(&self) -> Box<dyn ErasureCode> {
        code::for_group(self.data_nodes, self.parity_nodes)
    }
}

impl ClusterSpec {
    /// The profile the harness studies share: `data_nodes + parity_nodes`
    /// members with 512-byte images, the default 10/35/25 ms detector,
    /// 200 ms round and rebuild timeouts, and a 20 ms capture window to
    /// strike in.
    pub fn drill(data_nodes: usize, parity_nodes: usize) -> Self {
        ClusterSpec {
            cluster_id: 42,
            data_nodes,
            parity_nodes,
            image_len: 512,
            round_timeout: Duration::from_millis(200.0),
            rebuild_timeout: Duration::from_millis(200.0),
            capture_delay: Duration::from_millis(20.0),
            ..ClusterSpec::default()
        }
    }
}

impl Default for ClusterSpec {
    /// A small LAN-profile group: 4+1 XOR, 4 KiB images, generous
    /// timeouts relative to the default detector windows.
    fn default() -> Self {
        ClusterSpec {
            cluster_id: 1,
            data_nodes: 4,
            parity_nodes: 1,
            image_len: 4096,
            detector: DetectorConfig::default(),
            round_timeout: Duration::from_millis(500.0),
            rebuild_timeout: Duration::from_millis(500.0),
            capture_delay: Duration::from_millis(0.0),
        }
    }
}

/// FNV-1a/64 — for names and seeds, never a block: no block path calls it.
pub use dvdc_simcore::rng::fnv1a64 as fnv64;
/// XXH64 of a block's bytes — the content fingerprint `DigestReq`
/// answers with and a rebuild records, which `dvdc-ctl` compares across
/// rebuilds. The function behind `dvdc_checkpoint::integrity::checksum`
/// and the frame trailer; comparable only between nodes of one build.
pub use dvdc_simcore::rng::xxh64 as block_digest;

/// A block travels as parts of this many bytes, each its own message, and
/// is applied part by part where it lands, so no receiver holds a block it
/// has not applied: part *i* covers `[i·PART_LEN, min((i+1)·PART_LEN,
/// image_len))`.
pub const PART_LEN: usize = 256 << 10;

/// `block` as the parts it travels in: every part but the last with its
/// offset, and the last, whose offset its length implies.
fn cut(block: &[u8]) -> (impl Iterator<Item = (u64, &[u8])>, &[u8]) {
    let (head, last) = block.split_at(block.len().saturating_sub(1) / PART_LEN * PART_LEN);
    let offsets = (0..).step_by(PART_LEN).map(|at: usize| at as u64);
    (offsets.zip(head.chunks(PART_LEN)), last)
}

/// Writes `src ^ stream` into `dst` (as long as `src`), where `stream` is
/// the reference SplitMix64 stream from state `seed`: word `n` is
/// `splitmix64(seed + n·γ)`, little-endian, cut short at the tail. With no
/// `src` the stream is XORed into `dst` in place; over zeros that stores
/// it. No word waits on the one before, so the multiplies pipeline.
fn xor_pseudo(seed: u64, src: Option<&[u8]>, dst: &mut [u8]) {
    debug_assert_eq!(src.map_or(dst.len(), <[u8]>::len), dst.len());
    let stream = |n: usize| splitmix64(seed.wrapping_add((n as u64).wrapping_mul(SPLITMIX_GAMMA)));
    let words = dst.len() / 8;
    for n in 0..words {
        let at = 8 * n;
        let word: [u8; 8] = src.unwrap_or(dst)[at..at + 8].try_into().expect("8 bytes");
        let word = (u64::from_le_bytes(word) ^ stream(n)).to_le_bytes();
        dst[at..at + 8].copy_from_slice(&word);
    }
    let tail = stream(words).to_le_bytes();
    for (at, x) in (8 * words..dst.len()).zip(tail) {
        dst[at] = src.unwrap_or(dst)[at] ^ x;
    }
}

/// The deterministic initial VM image of `node` — every member derives
/// the same bytes from the spec, so a byte-exact rebuild is checkable
/// without shipping golden files around.
pub fn initial_image(cluster_id: u64, node: NodeId, len: usize) -> Vec<u8> {
    let mut img = vec![0u8; len];
    xor_pseudo(
        splitmix64(cluster_id).wrapping_add(node.index() as u64),
        None,
        &mut img,
    );
    img
}

/// Writes `node`'s next live image after committing `epoch` — `src` (or
/// `image` itself) XOR the epoch's stream, the stand-in for guest
/// dirty-page traffic between rounds.
fn churn_image(cluster_id: u64, node: NodeId, epoch: u64, src: Option<&[u8]>, image: &mut [u8]) {
    let seed = splitmix64(cluster_id ^ epoch.wrapping_mul(SPLITMIX_GAMMA))
        .wrapping_add(node.index() as u64);
    xor_pseudo(seed, src, image);
}

/// Coordinator-side bookkeeping of one open round.
#[derive(Debug, Clone)]
struct CoordRound {
    epoch: u64,
    /// When the round is aborted for want of acks.
    deadline: SimTime,
    /// Who takes part, itself included: every source not in custody, which
    /// acks its capture, and every holder, which acks its fold; then all
    /// of them ack the commit.
    members: BTreeSet<NodeId>,
    /// Members yet to ack the phase the round is in.
    pending: BTreeSet<NodeId>,
    /// The phase: `Commit` is sent.
    committing: bool,
}

/// Participant-side bookkeeping of one open round.
#[derive(Debug, Clone)]
struct PartRound {
    epoch: u64,
    started_at: SimTime,
    sources: Vec<NodeId>,
    holders: Vec<NodeId>,
    /// Data member: when the deferred capture fires (`None` once done or
    /// for non-members).
    capture_due: Option<SimTime>,
    /// When the round is given up here if its coordinator died silent.
    expires_at: SimTime,
    /// Data member: `live` holds the bytes this round shipped, and the
    /// commit promotes it as it stands. Whatever writes `live` before
    /// then clears this.
    captured: bool,
    /// Parity holder: the parts of each source folded into
    /// `staged_parity`. A source is in once all its parts are, and the
    /// shard is this holder's once all `k` sources are.
    folded: BTreeMap<NodeId, BTreeSet<usize>>,
    staged_parity: Option<Vec<u8>>,
}

impl PartRound {
    /// Sources whose blocks, of `parts` parts each, are folded whole.
    fn folded_whole(&self, parts: usize) -> usize {
        self.folded.values().filter(|p| p.len() == parts).count()
    }
}

/// One source's parts parked ahead of their round: the round (one per
/// source), and each part once, by index, with its sender and the fence
/// epoch it came with.
type Parked = (u64, BTreeMap<usize, (NodeId, u64, Vec<u8>)>);

/// Coordinator-side bookkeeping of one rebuild in flight.
#[derive(Debug, Clone)]
struct Rebuild {
    victim: NodeId,
    /// When the decode goes ahead with the blocks that have arrived.
    deadline: SimTime,
    awaiting: BTreeSet<NodeId>,
    /// Survivors' blocks by epoch and slot, each copied into a buffer of
    /// its own part by part, with the parts landed so far.
    fetched: BTreeMap<(u64, NodeId), (Vec<u8>, BTreeSet<usize>)>,
}

/// Victim-side bookkeeping of a resync in flight.
#[derive(Debug, Clone)]
struct ResyncClient {
    coordinator: NodeId,
    next_retry: SimTime,
}

/// One node's replica of the distributed DVDC protocol. See the module
/// docs for the protocol itself; see `on_message` / `on_tick` for the
/// driving contract.
pub struct NodeCore {
    id: NodeId,
    spec: ClusterSpec,
    incarnation: u64,
    code: Box<dyn ErasureCode>,
    /// Peers with an established session (either handshake direction).
    sessions: BTreeSet<NodeId>,
    /// The boot of each peer a session was last opened with. It outlives
    /// the session: a greeting from another boot means the one this node
    /// knew is gone, however long ago its session was dropped.
    boots: BTreeMap<NodeId, u64>,
    detector: FailureDetector,
    fences: FenceRegistry,
    /// Live VM image (data nodes only).
    live: Option<Vec<u8>>,
    /// Committed checkpoint block: data image or parity shard.
    committed: Option<(u64, Vec<u8>)>,
    /// The buffer of the block the last commit replaced, kept for the
    /// next image-sized write: a data node's next live image, a holder's
    /// next accumulator.
    spare: Option<Vec<u8>>,
    /// Committed blocks held on behalf of fenced nodes, rebuilt.
    custody: BTreeMap<NodeId, (u64, Vec<u8>)>,
    coord_round: Option<CoordRound>,
    part_round: Option<PartRound>,
    rebuild: Option<Rebuild>,
    /// Victims whose rebuild ended in typed data loss — not retried.
    lost: BTreeSet<NodeId>,
    /// Fenced members whose `ResyncReq` met an open round or rebuild, or
    /// came before their own rebuild: each is answered by the entry point
    /// that settles what it waits for, not at its next retry.
    resync_asked: BTreeSet<NodeId>,
    resync: Option<ResyncClient>,
    /// Highest round epoch this node has begun or been told of (committed
    /// or not) — keeps retry epochs strictly increasing across aborts,
    /// and tells an early block from a stale one.
    last_begun: u64,
    /// Parts parked ahead of their round, by source slot.
    early: BTreeMap<NodeId, Parked>,
    next_heartbeat: SimTime,
    next_hello: SimTime,
    /// When this node last ran, and whether a gap since then has left it
    /// unsure of its own membership (see [`NodeCore::ran`]).
    last_ran: SimTime,
    unsure: bool,
    ctl_waiting: bool,
    rounds_committed: u64,
    data_loss: bool,
}

impl NodeCore {
    /// Creates the node's replica. `id` must be one of the spec's `k + m`
    /// member slots. `incarnation` names this boot of `id`: the driver
    /// supplies a value no earlier boot of the same node used, and the
    /// handshake carries it, so a peer still holding a session with an
    /// earlier boot learns that boot is gone — and its state with it.
    ///
    /// # Panics
    /// Panics if `id` is outside the member range or the spec's detector
    /// config is inconsistent (see [`DetectorConfig::validate`]).
    pub fn new(id: NodeId, spec: ClusterSpec, incarnation: u64) -> Self {
        assert!(
            id.index() < spec.total(),
            "{id} outside the {}+{} member range",
            spec.data_nodes,
            spec.parity_nodes
        );
        spec.detector.validate();
        let live = if spec.is_data(id) {
            Some(initial_image(spec.cluster_id, id, spec.image_len))
        } else {
            None
        };
        let code = spec.code();
        NodeCore {
            id,
            incarnation,
            detector: FailureDetector::new(spec.detector, [], SimTime::ZERO),
            fences: FenceRegistry::new(),
            live,
            committed: None,
            spare: None,
            custody: BTreeMap::new(),
            sessions: BTreeSet::new(),
            boots: BTreeMap::new(),
            coord_round: None,
            part_round: None,
            rebuild: None,
            lost: BTreeSet::new(),
            resync_asked: BTreeSet::new(),
            resync: None,
            last_begun: 0,
            early: BTreeMap::new(),
            next_heartbeat: SimTime::ZERO,
            next_hello: SimTime::ZERO,
            last_ran: SimTime::ZERO,
            unsure: false,
            ctl_waiting: false,
            rounds_committed: 0,
            data_loss: false,
            code,
            spec,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The cluster spec this node was built with.
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// Last committed epoch and block (image or parity shard), if any.
    pub fn committed(&self) -> Option<(u64, &[u8])> {
        self.committed.as_ref().map(|(e, b)| (*e, b.as_slice()))
    }

    /// The custody block held for `node`, if any.
    pub fn custody_block(&self, node: NodeId) -> Option<(u64, &[u8])> {
        self.custody.get(&node).map(|(e, b)| (*e, b.as_slice()))
    }

    /// True if a session with `peer` is established.
    pub fn has_session(&self, peer: NodeId) -> bool {
        self.sessions.contains(&peer)
    }

    /// True if a rebuild ever ended in typed data loss here.
    pub fn saw_data_loss(&self) -> bool {
        self.data_loss
    }

    /// The node this replica currently believes coordinates: the lowest
    /// member that is neither fenced nor confirmed dead, among itself and
    /// its established sessions.
    pub fn coordinator(&self) -> NodeId {
        let mut best = self.id;
        for &p in &self.sessions {
            if p.index() < best.index()
                && !self.fences.is_fenced(p)
                && !self.detector.is_confirmed(p.index())
            {
                best = p;
            }
        }
        best
    }

    fn is_acting_coordinator(&self) -> bool {
        !self.unsure && self.coordinator() == self.id
    }

    /// Every entry point passes through here. A gap in this node's own
    /// running longer than the detector's timeout means it was frozen for
    /// long enough to have been given up on and fenced: until a peer it
    /// greets welcomes it, it decides nothing as coordinator — it fences,
    /// serves and readmits nobody. One that was fenced is rejected instead.
    fn ran(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let frozen = now > self.last_ran + self.spec.detector.timeout;
        self.last_ran = self.last_ran.max(now);
        if frozen && !self.sessions.is_empty() {
            self.unsure = true;
            for &p in &self.sessions {
                out.push(Action::Send {
                    to: p,
                    msg: self.hello(),
                });
            }
        }
    }

    /// Peers (excluding self) that are established, unfenced, and not
    /// confirmed dead.
    fn live_peers(&self) -> Vec<NodeId> {
        self.sessions
            .iter()
            .copied()
            .filter(|p| !self.fences.is_fenced(*p) && !self.detector.is_confirmed(p.index()))
            .collect()
    }

    /// Whom a fence or a readmission is announced to: every other member
    /// not fenced itself, session or not — one that is rejoining must not
    /// miss it.
    fn members_in(&self) -> Vec<NodeId> {
        let members = (0..self.spec.total()).map(NodeId);
        let is_in = |p: &NodeId| *p != self.id && !self.fences.is_fenced(*p);
        members.filter(is_in).collect()
    }

    /// The handshake this node opens sessions with; the driver sends it
    /// on every fresh connection (and [`NodeCore::on_tick`] re-sends it
    /// periodically to sessionless peers).
    pub fn hello(&self) -> Msg {
        Msg::Hello {
            node: self.id,
            cluster_id: self.spec.cluster_id,
            fence_epoch: self.fences.epoch_of(self.id),
            incarnation: self.incarnation,
        }
    }

    /// The control-plane snapshot.
    pub fn status(&self) -> StatusView {
        let suspected = self
            .detector
            .monitored()
            .filter(|&n| self.detector.is_suspected(n))
            .map(NodeId)
            .collect();
        let confirmed = self
            .detector
            .monitored()
            .filter(|&n| self.detector.is_confirmed(n))
            .map(NodeId)
            .collect();
        StatusView {
            node: self.id,
            coordinator: self.coordinator(),
            committed_epoch: self.committed.as_ref().map(|(e, _)| *e).unwrap_or(0),
            fence_epoch: self.fences.epoch_of(self.id),
            peers_established: self.sessions.iter().copied().collect(),
            suspected,
            confirmed,
            custody: self.custody.keys().copied().collect(),
            rounds_committed: self.rounds_committed,
            data_loss: self.data_loss,
        }
    }

    /// The earliest instant [`on_tick`](Self::on_tick) has work to do: the
    /// minimum of the timers it checks, each fired there at `now >=` the
    /// instant returned here, so a tick at the deadline always moves it
    /// later. A rebuild backlog is due at once. Drivers sleep until then
    /// or the next message.
    pub fn next_deadline(&self) -> Option<SimTime> {
        if self.rebuild_backlog().is_some() {
            return Some(SimTime::ZERO);
        }
        let (coord, part) = (self.coord_round.as_ref(), self.part_round.as_ref());
        let rebuild = self.rebuild.as_ref().filter(|rb| !rb.awaiting.is_empty());
        let timers = [
            Some(self.next_heartbeat),
            Some(self.next_hello),
            part.and_then(|r| r.capture_due),
            coord.map(|r| r.deadline),
            part.filter(|_| coord.is_none()).map(|r| r.expires_at),
            rebuild.map(|rb| rb.deadline),
            self.resync.as_ref().map(|rs| rs.next_retry),
        ];
        let detector = &self.detector;
        let polls = detector
            .monitored()
            .filter_map(|n| detector.next_deadline(n));
        timers.into_iter().flatten().chain(polls).min()
    }

    /// A confirmed-dead member not yet rebuilt, when this node coordinates
    /// and has no rebuild in flight: one confirmed while another rebuild
    /// ran, or while somebody else coordinated who never got to it, or
    /// whose first attempt raced a second failure.
    fn rebuild_backlog(&self) -> Option<NodeId> {
        // A coordinator still meeting the members — one just readmitted —
        // would decode from too few of them and call it loss.
        let mut members = (0..self.spec.total()).map(NodeId);
        let met = |p: NodeId| {
            p == self.id
                || self.sessions.contains(&p)
                || self.fences.is_fenced(p)
                || self.detector.is_confirmed(p.index())
        };
        if self.rebuild.is_some() || !self.is_acting_coordinator() || !members.clone().all(met) {
            return None;
        }
        members.find(|n| {
            *n != self.id
                && self.detector.is_confirmed(n.index())
                && !self.custody.contains_key(n)
                && !self.lost.contains(n)
        })
    }

    /// Drives time-based behaviour: heartbeat sends, detector deadlines,
    /// deferred captures, round/rebuild timeouts, handshake retries.
    /// Call with a monotone `now`, no later than
    /// [`next_deadline`](Self::next_deadline).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.ran(now, &mut out);

        // Heartbeats to every established peer.
        if now >= self.next_heartbeat {
            for &p in &self.sessions {
                out.push(Action::Send {
                    to: p,
                    msg: Msg::Heartbeat { node: self.id },
                });
            }
            self.next_heartbeat = now + self.spec.detector.heartbeat_interval;
        }

        // Handshake (re)tries to sessionless members — covers initial
        // join, reconnects, and the post-readmit re-join. Fenced members
        // are skipped: a restarted (diskless, fence-ignorant) instance
        // would happily answer our Hello with a Welcome and short-circuit
        // its own Hello → Rejected → resync path. The fenced node must
        // dial us, get rejected, and resync before any session forms. A
        // node waiting for its own resync greets nobody: it is no member.
        if now >= self.next_hello {
            let members = (0..self.spec.total()).map(NodeId);
            for p in members.filter(|_| self.resync.is_none()) {
                if p != self.id && !self.sessions.contains(&p) && !self.fences.is_fenced(p) {
                    out.push(Action::Send {
                        to: p,
                        msg: self.hello(),
                    });
                }
            }
            self.next_hello = now + self.spec.detector.heartbeat_interval * 5.0;
        }

        // Detector deadlines.
        let monitored: Vec<usize> = self.detector.monitored().collect();
        for n in monitored {
            let evidence = self.detector.has_evidence(n);
            if let Some(verdict) = self.detector.poll(n, now) {
                self.note_verdict(NodeId(n), verdict, evidence, now, &mut out);
            }
        }

        // Deferred capture.
        if let Some(due) = self.part_round.as_ref().and_then(|r| r.capture_due) {
            if now >= due {
                self.do_capture(now, &mut out);
            }
        }

        // Round timeout (coordinator).
        if let Some(r) = &self.coord_round {
            if now >= r.deadline {
                let epoch = r.epoch;
                self.abort_round(epoch, "round timed out".to_string(), &mut out);
            }
        }

        // Stale participant round (coordinator died without aborting).
        if let Some(r) = &self.part_round {
            if self.coord_round.is_none() && now >= r.expires_at {
                let epoch = r.epoch;
                self.part_round = None;
                out.push(Action::Note(Note::RoundAborted {
                    epoch,
                    reason: "participant round expired without commit".to_string(),
                }));
            }
        }

        // Rebuild timeout: decide with the blocks that arrived.
        if let Some(rb) = &self.rebuild {
            if !rb.awaiting.is_empty() && now >= rb.deadline {
                self.finish_rebuild(&mut out);
            }
        }

        // Each pass leaves a rebuild in flight or the victim settled (in
        // custody or lost), so the backlog is empty when the tick ends.
        while let Some(victim) = self.rebuild_backlog() {
            self.fence_and_rebuild(victim, now, &mut out);
        }

        // Resync retry.
        if let Some(rs) = &self.resync {
            if now >= rs.next_retry {
                let coord = rs.coordinator;
                out.push(Action::Send {
                    to: coord,
                    msg: Msg::ResyncReq { node: self.id },
                });
                if let Some(rs) = &mut self.resync {
                    rs.next_retry = now + self.spec.detector.heartbeat_interval * 10.0;
                }
            }
        }

        self.settle(out, now)
    }

    /// Consumes one message. `from` identifies the sender ([`CTL`] for
    /// control-plane requests); replies are emitted as [`Action::Send`]s.
    pub fn on_message(&mut self, from: NodeId, msg: Msg, now: SimTime) -> Vec<Action> {
        let out = self.handle(from, msg, now);
        self.settle(out, now)
    }

    /// How every entry point ends: what this node sent itself is delivered
    /// to it, then the remembered resync requests it can now answer are,
    /// and the driver gets the rest.
    fn settle(&mut self, mut out: Vec<Action>, now: SimTime) -> Vec<Action> {
        self.deliver_own(&mut out, now);
        self.serve_deferred_resyncs(now, &mut out);
        self.deliver_own(&mut out, now);
        out
    }

    /// Takes each send `out` addresses to this node out of it and handles
    /// it at `now`, in the order sent — what that sends comes after
    /// everything already in `out` — until none is left.
    fn deliver_own(&mut self, out: &mut Vec<Action>, now: SimTime) {
        let mut at = 0;
        while let Some(action) = out.get(at) {
            if !matches!(action, Action::Send { to, .. } if *to == self.id) {
                at += 1;
            } else if let Action::Send { msg, .. } = out.remove(at) {
                let sent = self.handle(self.id, msg, now);
                out.extend(sent);
            }
        }
    }

    fn handle(&mut self, from: NodeId, msg: Msg, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.ran(now, &mut out);
        // A fenced member is no member until it has resynced. What it says
        // as one — a commit from a coordinator that was only frozen, a fence
        // of its own — is void, and its heartbeat is answered with the
        // rejection that tells it to stand down. Greetings, resyncs and the
        // blocks that carry their own fence epoch are judged below.
        let judged_below = matches!(
            msg,
            Msg::Hello { .. }
                | Msg::ResyncReq { .. }
                | Msg::ResyncDone { .. }
                | Msg::Payload { .. }
                | Msg::PayloadPart { .. }
                | Msg::FetchPart { .. }
                | Msg::FetchBlocks { .. }
        );
        if from != CTL && self.fences.is_fenced(from) && !judged_below {
            if matches!(msg, Msg::Heartbeat { .. }) {
                out.push(self.rejection(from));
            }
            return out;
        }
        // And one that knows it is out hears nothing but its way back in:
        // what it must know of the others it is told on readmission.
        let way_back = match &msg {
            Msg::Rejected { .. } | Msg::ResyncState { .. } => true,
            Msg::Readmit { node, .. } => *node == self.id,
            _ => from == CTL,
        };
        if self.resync.is_some() && !way_back {
            return out;
        }
        match msg {
            Msg::Hello {
                node,
                cluster_id,
                fence_epoch,
                incarnation,
            } => {
                if cluster_id != self.spec.cluster_id || node.index() >= self.spec.total() {
                    return out;
                }
                // Only a resync hands a fenced node the epoch it was fenced
                // at: its readmission has passed us by.
                if self.fences.is_fenced(node) && fence_epoch >= self.fences.epoch_of(node) {
                    self.readmitted(node, fence_epoch, now, &mut out);
                }
                self.retire_earlier_boot(node, incarnation, now, &mut out);
                if self.fences.is_fenced(node) || fence_epoch < self.fences.epoch_of(node) {
                    out.push(self.rejection(node));
                    return out;
                }
                self.open_session(node, (incarnation, fence_epoch), now, &mut out);
                out.push(Action::Send {
                    to: node,
                    msg: Msg::Welcome {
                        node: self.id,
                        fence_epoch: self.fences.epoch_of(self.id),
                        incarnation: self.incarnation,
                    },
                });
            }
            Msg::Welcome {
                node,
                fence_epoch,
                incarnation,
            } => {
                if node.index() >= self.spec.total() {
                    return out;
                }
                self.unsure = false;
                self.retire_earlier_boot(node, incarnation, now, &mut out);
                // A Welcome from a node we currently hold fenced cannot
                // open a session: the sender is a restarted instance that
                // has not resynced yet (or the message raced the fence).
                // Ignoring it forces the peer through Hello → Rejected.
                if !self.fences.is_fenced(node) {
                    self.open_session(node, (incarnation, fence_epoch), now, &mut out);
                }
            }
            Msg::Rejected {
                node,
                required_epoch,
                coordinator,
            } => {
                if node != self.id {
                    return out;
                }
                out.push(Action::Note(Note::HelloRejected {
                    peer: from,
                    required_epoch,
                }));
                // Several peers may reject us at once, and a rejection may
                // arrive after the resync it asked for: only one naming an
                // epoch we have yet to reach is news — or, to one already
                // asking, a coordinator other than the one it asks.
                match &mut self.resync {
                    None if required_epoch > self.fences.epoch_of(self.id) => {
                        self.stand_down(coordinator, now, &mut out)
                    }
                    Some(asking) if asking.coordinator != coordinator => {
                        asking.coordinator = coordinator;
                        out.push(Action::Send {
                            to: coordinator,
                            msg: Msg::ResyncReq { node: self.id },
                        });
                    }
                    _ => {}
                }
            }
            Msg::Heartbeat { node } => {
                if let Some(verdict) = self.detector.heartbeat(node.index(), now) {
                    self.note_verdict(node, verdict, false, now, &mut out);
                }
            }
            Msg::RoundBegin {
                epoch,
                sources,
                holders,
            } => self.on_round_begin(epoch, sources, holders, now, &mut out),
            Msg::Payload {
                epoch,
                source,
                fence_epoch,
                data,
            } => self.on_part(from, (epoch, source, fence_epoch, None), data, &mut out),
            Msg::PayloadPart {
                epoch,
                source,
                fence_epoch,
                offset,
                data,
            } => self.on_part(
                from,
                (epoch, source, fence_epoch, Some(offset)),
                data,
                &mut out,
            ),
            Msg::CaptureAck { epoch, node } | Msg::FoldAck { epoch, node } => {
                if let Some(r) = self.acked(epoch, node, false) {
                    r.committing = true;
                    r.pending.clone_from(&r.members);
                    for &p in &r.members {
                        let msg = Msg::Commit { epoch };
                        out.push(Action::Send { to: p, msg });
                    }
                }
            }
            Msg::Commit { epoch } => self.on_commit(epoch, &mut out),
            Msg::CommitAck { epoch, node } => {
                if self.acked(epoch, node, true).is_some() {
                    self.coord_round = None;
                    out.push(Action::Note(Note::RoundCommitted { epoch }));
                    self.answer_ctl(Msg::CheckpointDone { epoch }, &mut out);
                }
            }
            Msg::AbortRound { epoch, reason } => {
                if self.part_round.as_ref().is_some_and(|r| r.epoch == epoch) {
                    self.part_round = None;
                    out.push(Action::Note(Note::RoundAborted { epoch, reason }));
                }
            }
            Msg::Fence { node, epoch } => {
                // The fence is the coordinator's verdict and stands here as
                // one: whoever coordinates next owes the node a rebuild.
                let news = !self.fences.is_fenced(node) || epoch > self.fences.epoch_of(node);
                self.fences.advance_to(node, epoch);
                self.detector.condemn(node.index(), now);
                self.sessions.remove(&node);
                if news {
                    out.push(Action::Note(Note::Fenced { node, epoch }));
                }
            }
            Msg::FetchReq { victim } => self.answer_fetch(from, victim, &mut out),
            Msg::FetchPart {
                node,
                fence_epoch,
                offset,
                part,
            } => self.on_fetched((node, fence_epoch), [(Some(offset), part)], false, &mut out),
            Msg::FetchBlocks {
                node,
                fence_epoch,
                blocks,
            } => {
                let last = blocks.into_iter().map(|b| (None, b));
                self.on_fetched((node, fence_epoch), last, true, &mut out)
            }
            Msg::ResyncReq { node } => self.on_resync_req(node, now, &mut out),
            Msg::ResyncState {
                node,
                fence_epoch,
                committed_epoch,
                image,
            } => {
                // Whoever serves this may itself have been fenced since we
                // were told to ask it: we stay out, asking, until the
                // readmission that answers our `ResyncDone` reaches us.
                let Some(asking) = &mut self.resync else {
                    return out;
                };
                if node != self.id {
                    return out;
                }
                asking.next_retry = now + self.spec.detector.heartbeat_interval * 10.0;
                // Adopt the post-fence epoch and the rebuilt state.
                self.fences.readmit_at(self.id, fence_epoch);
                if let Some(img) = image {
                    if self.spec.is_data(self.id) {
                        self.overwrite_live(&img);
                    }
                    self.committed = Some((committed_epoch, img));
                } else if self.spec.is_data(self.id) {
                    // A data resync always ships bytes; an empty one means
                    // nothing was ever committed — restart from the seed.
                    let image = initial_image(self.spec.cluster_id, self.id, self.spec.image_len);
                    self.overwrite_live(&image);
                }
                // Sessions re-open when the members greet us, which each
                // does as it learns of the readmission, after we have.
                out.push(Action::Send {
                    to: from,
                    msg: Msg::ResyncDone {
                        node: self.id,
                        fence_epoch,
                    },
                });
            }
            Msg::ResyncDone { node, fence_epoch } => {
                if !self.is_acting_coordinator() || !self.fences.is_fenced(node) {
                    return out;
                }
                if fence_epoch != self.fences.epoch_of(node) {
                    return out;
                }
                // A round open now was composed with custody standing in
                // for `node`, and who coordinates may be about to change.
                if let Some(epoch) = self.coord_round.as_ref().map(|r| r.epoch) {
                    self.abort_round(epoch, format!("{node} readmitted mid-round"), &mut out);
                }
                let rollback_epoch = self.committed.as_ref().map(|(e, _)| *e).unwrap_or(0);
                self.readmitted(node, fence_epoch, now, &mut out);
                for p in self.members_in() {
                    out.push(Action::Send {
                        to: p,
                        msg: Msg::Readmit {
                            node,
                            fence_epoch,
                            rollback_epoch,
                        },
                    });
                }
                out.push(Action::Send {
                    to: node,
                    msg: self.hello(),
                });
                // It was out while these were fenced, and coordination may
                // fall to it: it must know whom the cluster is missing.
                let members = (0..self.spec.total()).map(NodeId);
                for out_too in members.filter(|n| self.fences.is_fenced(*n)) {
                    let epoch = self.fences.epoch_of(out_too);
                    out.push(Action::Send {
                        to: node,
                        msg: Msg::Fence {
                            node: out_too,
                            epoch,
                        },
                    });
                }
            }
            Msg::Readmit {
                node, fence_epoch, ..
            } => {
                self.readmitted(node, fence_epoch, now, &mut out);
                if node != self.id && !self.sessions.contains(&node) {
                    out.push(Action::Send {
                        to: node,
                        msg: self.hello(),
                    });
                }
            }
            Msg::StatusReq => {
                out.push(Action::Send {
                    to: from,
                    msg: Msg::StatusResp(self.status()),
                });
            }
            Msg::MetricsReq | Msg::TraceTailReq { .. } => {
                // Answered by the hosting runtime: the metrics registry
                // and trace ring live beside the core, not inside the
                // IO-free state machine. The harness has its own accessors
                // for both and ignores the scrape.
            }
            Msg::StatusResp(_)
            | Msg::CheckpointDone { .. }
            | Msg::CheckpointFailed { .. }
            | Msg::DigestResp { .. }
            | Msg::KillQueryResp { .. }
            | Msg::MetricsResp(_)
            | Msg::TraceTailResp { .. } => {
                // Control-plane replies terminate at the ctl client; a
                // daemon receiving one ignores it.
            }
            Msg::CheckpointReq => {
                self.ctl_waiting = true;
                if let Err(reason) = self.try_start_round(now, &mut out) {
                    self.answer_ctl(Msg::CheckpointFailed { reason }, &mut out);
                }
            }
            Msg::DigestReq { node } => {
                let source = match node == self.id {
                    true => DigestSource::Committed,
                    false => DigestSource::Custody,
                };
                let (epoch, digest, source) = match self.block(node) {
                    Some((e, b)) => (*e, block_digest(b), source),
                    None => (0, 0, DigestSource::Missing),
                };
                out.push(Action::Send {
                    to: from,
                    msg: Msg::DigestResp {
                        node,
                        epoch,
                        digest,
                        source,
                    },
                });
            }
            Msg::KillQueryReq => {
                let status = self.status();
                out.push(Action::Send {
                    to: from,
                    msg: Msg::KillQueryResp {
                        confirmed: status.confirmed,
                        suspected: status.suspected,
                    },
                });
            }
        }
        out
    }

    /// `node` is back in at `fence_epoch`: whatever this node held or was
    /// decoding for it is moot, and the group resumes from the committed
    /// round (the paper's cluster rollback).
    fn readmitted(&mut self, node: NodeId, fence_epoch: u64, now: SimTime, out: &mut Vec<Action>) {
        self.fences.readmit_at(node, fence_epoch);
        self.lost.remove(&node);
        self.custody.remove(&node);
        self.boots.remove(&node);
        self.rebuild.take_if(|rb| rb.victim == node);
        if node == self.id {
            self.resync = None;
        } else {
            self.detector.admit(node.index(), now);
        }
        self.apply_rollback();
        out.push(Action::Note(Note::Readmitted {
            node,
            epoch: fence_epoch,
        }));
    }

    /// The refusal a fenced `node` is answered with.
    fn rejection(&self, node: NodeId) -> Action {
        Action::Send {
            to: node,
            msg: Msg::Rejected {
                node,
                required_epoch: self.fences.epoch_of(node),
                coordinator: self.coordinator(),
            },
        }
    }

    /// A greeting from boot `incarnation` of `peer` when this node knew
    /// another is evidence that one is gone, and everything it held with
    /// it. If its session still stands it is suspected and confirmed on
    /// the spot, by the path any other death takes (the coordinator fences
    /// and rebuilds). And it is fenced here if it is fenced nowhere: the
    /// coordinator may never have met the boot that died, so this is not
    /// its alone to find out. Every member that sees it raises the same
    /// epoch, and whoever coordinates owes the rebuild.
    fn retire_earlier_boot(
        &mut self,
        peer: NodeId,
        incarnation: u64,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if self
            .boots
            .get(&peer)
            .is_none_or(|known| *known == incarnation)
        {
            return;
        }
        if self.sessions.contains(&peer) {
            let suspected = self.detector.suspect_now(peer.index(), now);
            let confirmed = self.detector.confirm_now(peer.index(), now);
            for verdict in [suspected, confirmed].into_iter().flatten() {
                self.note_verdict(peer, verdict, true, now, out);
            }
        }
        if !self.fences.is_fenced(peer) {
            self.detector.condemn(peer.index(), now);
            self.raise_fence(peer, out);
        }
    }

    /// Opens (or keeps) the session with `peer`, learning which boot of it
    /// speaks and the fence epoch it holds: a node that restarted has
    /// forgotten every epoch, and must not raise one a second time.
    fn open_session(
        &mut self,
        peer: NodeId,
        (incarnation, fence_epoch): (u64, u64),
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        self.detector.admit(peer.index(), now);
        self.fences.readmit_at(peer, fence_epoch);
        self.boots.insert(peer, incarnation);
        if self.sessions.insert(peer) {
            out.push(Action::Note(Note::SessionEstablished { peer }));
        }
    }

    /// This node has been fenced: what it holds is stale and what it was
    /// doing is void, exactly as if its process had restarted — except
    /// that it knows whom to ask for its state back.
    fn stand_down(&mut self, coordinator: NodeId, now: SimTime, out: &mut Vec<Action>) {
        if let Some(epoch) = self.coord_round.as_ref().map(|r| r.epoch) {
            self.abort_round(epoch, format!("{} was fenced", self.id), out);
        }
        *self = NodeCore::new(self.id, self.spec.clone(), self.incarnation);
        self.resync = Some(ResyncClient {
            coordinator,
            next_retry: now + self.spec.detector.heartbeat_interval * 10.0,
        });
        out.push(Action::Send {
            to: coordinator,
            msg: Msg::ResyncReq { node: self.id },
        });
    }

    /// Link evidence that `peer`'s process is gone: its connection to this
    /// node closed and a redial was refused. A peer this node holds a
    /// session with and monitors is suspected now, not a timeout later, and
    /// confirmed by the tick one heartbeat interval after that, not a grace
    /// later, unless a heartbeat refutes it; a wrong confirmation is handled
    /// like any other (fence, resync). Evidence about anyone else is ignored.
    pub fn on_peer_refused(&mut self, peer: NodeId, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.ran(now, &mut out);
        if self.sessions.contains(&peer) {
            if let Some(verdict) = self.detector.suspect_now(peer.index(), now) {
                self.note_verdict(peer, verdict, true, now, &mut out);
            }
        }
        self.settle(out, now)
    }

    /// Emits a verdict note and, on confirmation by the acting
    /// coordinator, fences the victim and starts the rebuild.
    fn note_verdict(
        &mut self,
        node: NodeId,
        verdict: Verdict,
        evidence: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        out.push(Action::Note(Note::PeerVerdict {
            node,
            verdict,
            evidence,
        }));
        if verdict != Verdict::Confirmed {
            return;
        }
        self.sessions.remove(&node);
        // Frozen, and now nobody is left to vouch for this node or object.
        self.unsure &= !self.sessions.is_empty();
        // A rebuild in flight stops waiting for the dead node's blocks.
        let waited_for = |rb: &mut Rebuild| rb.awaiting.remove(&node) && rb.awaiting.is_empty();
        if self.rebuild.as_mut().is_some_and(waited_for) {
            self.finish_rebuild(out);
        }
        // Only the acting coordinator (recomputed *after* excluding the
        // victim) fences and rebuilds; everyone else waits for the
        // broadcast so exactly one epoch bump wins.
        if self.is_acting_coordinator() {
            self.fence_and_rebuild(node, now, out);
        }
    }

    /// The acting coordinator's answer to a death it holds confirmed:
    /// fence every such node nobody has fenced — this one, and any whose
    /// death is why coordination fell to us — telling every member in, and
    /// rebuild what `node` held.
    fn fence_and_rebuild(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Action>) {
        let members = (0..self.spec.total()).map(NodeId);
        let unfenced =
            |n: &NodeId| self.detector.is_confirmed(n.index()) && !self.fences.is_fenced(*n);
        for dead in members.filter(unfenced).collect::<Vec<_>>() {
            self.raise_fence(dead, out);
        }
        self.start_rebuild(node, now, out);
    }

    /// Fences `node` and tells every member in.
    fn raise_fence(&mut self, node: NodeId, out: &mut Vec<Action>) {
        self.fences.fence(node);
        let epoch = self.fences.epoch_of(node);
        out.push(Action::Note(Note::Fenced { node, epoch }));
        for p in self.members_in() {
            out.push(Action::Send {
                to: p,
                msg: Msg::Fence { node, epoch },
            });
        }
    }

    /// The committed block this node holds for `slot`: its own, or the one
    /// it keeps in custody for a fenced member.
    fn block(&self, slot: NodeId) -> Option<&(u64, Vec<u8>)> {
        match slot == self.id {
            true => self.committed.as_ref(),
            false => self.custody.get(&slot),
        }
    }

    /// What this node can give a rebuild of `victim`: the block of every
    /// slot [`NodeCore::block`] holds but the victim's.
    fn held(&self, victim: NodeId) -> impl Iterator<Item = (NodeId, u64, &[u8])> {
        let slots = std::iter::once(self.id).chain(self.custody.keys().copied());
        let slots = slots.filter(move |n| *n != victim);
        slots.filter_map(move |n| self.block(n).map(|(e, b)| (n, *e, &b[..])))
    }

    /// The buffer of the block [`NodeCore::block`] gives for `slot`.
    fn held_mut(&mut self, slot: NodeId) -> &mut Vec<u8> {
        let block = match slot == self.id {
            true => self.committed.as_mut(),
            false => self.custody.get_mut(&slot),
        };
        &mut block.expect("a block this node holds").1
    }

    /// A survivor's answer to a `FetchReq`: every part but the last of
    /// each block it holds, then a `FetchBlocks` with the last ones.
    fn answer_fetch(&self, to: NodeId, victim: NodeId, out: &mut Vec<Action>) {
        let (node, fence_epoch) = (self.id, self.fences.epoch_of(self.id));
        let mut blocks = Vec::new();
        for (holder, epoch, block) in self.held(victim) {
            let tag = |data: &[u8]| BlockInfo {
                holder,
                kind: self.spec.kind_of(holder),
                epoch,
                data: data.to_vec(),
            };
            let (parts, last) = cut(block);
            for (offset, part) in parts {
                let part = tag(part);
                let msg = Msg::FetchPart {
                    node,
                    fence_epoch,
                    offset,
                    part,
                };
                out.push(Action::Send { to, msg });
            }
            blocks.push(tag(last));
        }
        let msg = Msg::FetchBlocks {
            node,
            fence_epoch,
            blocks,
        };
        out.push(Action::Send { to, msg });
    }

    fn start_rebuild(&mut self, victim: NodeId, now: SimTime, out: &mut Vec<Action>) {
        if self.rebuild.is_some() || self.custody.contains_key(&victim) {
            return;
        }
        // A rebuild decodes from the committed generation, which a commit
        // under it would tear; and a round the victim was part of can
        // never finish. Whichever way it was reached, the round goes first.
        if let Some(epoch) = self.coord_round.as_ref().map(|r| r.epoch) {
            self.abort_round(epoch, format!("{victim} confirmed failed mid-round"), out);
        }
        out.push(Action::Note(Note::RebuildStarted { victim }));
        out.push(Action::Note(Note::RebuildPhase {
            victim,
            phase: "Fetch",
        }));
        // Nothing is copied before the requests leave: this node's own
        // blocks join the decode when it runs, lent.
        let peers = self.live_peers();
        for &p in &peers {
            out.push(Action::Send {
                to: p,
                msg: Msg::FetchReq { victim },
            });
        }
        self.rebuild = Some(Rebuild {
            victim,
            deadline: now + self.spec.rebuild_timeout,
            awaiting: peers.iter().copied().collect(),
            fetched: BTreeMap::new(),
        });
        if peers.is_empty() {
            self.finish_rebuild(out);
        }
    }

    /// Epoch-fenced data plane: what a member sends as a fenced (pre-fence)
    /// node is dropped with this note, and never lands.
    fn stale(&self, from: NodeId, fence_epoch: u64) -> Option<Action> {
        let required = self.fences.epoch_of(from);
        let stale = self.fences.is_fenced(from) || fence_epoch < required;
        (stale && from.index() < self.spec.total()).then_some(Action::Note(Note::StaleRejected {
            from,
            held_epoch: fence_epoch,
            current_epoch: required,
        }))
    }

    /// Parts of a survivor's answer: each lands once, in the rebuild's
    /// buffer for its slot and epoch; a `FetchBlocks` (`closes`) ends the
    /// answer, and the last answer awaited starts the decode.
    fn on_fetched(
        &mut self,
        (node, fence_epoch): (NodeId, u64),
        parts: impl IntoIterator<Item = (Option<u64>, BlockInfo)>,
        closes: bool,
        out: &mut Vec<Action>,
    ) {
        if let Some(stale) = self.stale(node, fence_epoch) {
            return out.push(stale);
        }
        let awaited = |rb: &Rebuild| rb.awaiting.contains(&node);
        if !self.rebuild.as_ref().is_some_and(awaited) {
            return;
        }
        let image_len = self.spec.image_len;
        for (offset, part) in parts {
            let index = self.spec.part(offset, part.data.len());
            let rb = self.rebuild.as_mut().expect("awaiting this answer");
            let reason = match index {
                Err(reason) => reason,
                Ok(index) => {
                    let (block, landed) = rb
                        .fetched
                        .entry((part.epoch, part.holder))
                        .or_insert_with(|| (vec![0; image_len], BTreeSet::new()));
                    if landed.insert(index) {
                        let at = index * PART_LEN;
                        block[at..at + part.data.len()].copy_from_slice(&part.data);
                        continue;
                    }
                    let (holder, epoch) = (part.holder, part.epoch);
                    format!("part {index} of {holder}'s block of epoch {epoch} has landed")
                }
            };
            out.push(Action::Note(Note::PayloadDropped { from: node, reason }));
        }
        let rb = self.rebuild.as_mut().expect("awaiting this answer");
        if closes && rb.awaiting.remove(&node) && rb.awaiting.is_empty() {
            self.finish_rebuild(out);
        }
    }

    /// Decodes the victim's block at the newest epoch of which `k` slots
    /// are whole — fetched with every part landed, or this node's own.
    /// Failure is typed ([`Note::DataLoss`]), never a panic.
    fn finish_rebuild(&mut self, out: &mut Vec<Action>) {
        let Some(rb) = self.rebuild.take() else {
            return;
        };
        let victim = rb.victim;
        // All fetch responses are in — the pipeline enters its decode
        // phase (observable in traces and the rebuild-phase histogram).
        out.push(Action::Note(Note::RebuildPhase {
            victim,
            phase: "Decode",
        }));
        let (k, parts) = (self.spec.data_nodes, self.spec.parts());
        let slot = |n: &NodeId| n.index() < self.spec.total() && *n != victim;
        let fetched: BTreeMap<(u64, NodeId), Vec<u8>> = (rb.fetched.into_iter())
            .filter(|((_, n), (_, landed))| slot(n) && landed.len() == parts)
            .map(|(at, (block, _))| (at, block))
            .collect();
        let own: Vec<(u64, NodeId)> = (self.held(victim))
            .filter(|(.., block)| block.len() == self.spec.image_len)
            .map(|(slot, epoch, _)| (epoch, slot))
            .collect();
        let mut by_epoch: BTreeMap<u64, BTreeSet<NodeId>> = BTreeMap::new();
        for &(epoch, slot) in fetched.keys().chain(&own) {
            by_epoch.entry(epoch).or_default().insert(slot);
        }
        let best = by_epoch.values().map(BTreeSet::len).max().unwrap_or(0);
        let chosen = by_epoch
            .into_iter()
            .rev()
            .find(|(_, slots)| slots.len() >= k);
        let Some((epoch, _)) = chosen else {
            let reason =
                format!("no committed epoch has the {k} blocks needed (best coverage: {best})");
            return self.lose(victim, reason, out);
        };

        // This node's own blocks are lent to the decode, not copied, and
        // each goes back to where it was, whatever the decode concludes.
        let mut shards: Vec<Option<Vec<u8>>> = vec![None; self.spec.total()];
        let lent: Vec<NodeId> = own
            .iter()
            .filter(|(e, _)| *e == epoch)
            .map(|(_, n)| *n)
            .collect();
        for &slot in &lent {
            shards[slot.index()] = Some(std::mem::take(self.held_mut(slot)));
        }
        for ((_, slot), block) in fetched.into_iter().filter(|((e, _), _)| *e == epoch) {
            shards[slot.index()].get_or_insert(block);
        }
        let decoded = self.code.reconstruct(&mut shards);
        let rebuilt = shards[victim.index()].take();
        for slot in lent {
            let block = shards[slot.index()].take();
            *self.held_mut(slot) = block.expect("a decode keeps the blocks it is given");
        }
        let block = match (decoded, rebuilt) {
            (Err(e), _) => {
                return self.lose(victim, format!("decode at epoch {epoch} failed: {e}"), out)
            }
            (Ok(()), None) => {
                let reason = format!("decode at epoch {epoch} left the victim slot empty");
                return self.lose(victim, reason, out);
            }
            (Ok(()), Some(block)) => block,
        };
        let digest = block_digest(&block);
        self.custody.insert(victim, (epoch, block));
        out.push(Action::Note(Note::RebuildCompleted {
            victim,
            epoch,
            digest,
        }));
    }

    /// The rebuild of `victim` ends in typed loss, and is not retried.
    fn lose(&mut self, victim: NodeId, reason: String, out: &mut Vec<Action>) {
        self.data_loss = true;
        self.lost.insert(victim);
        out.push(Action::Note(Note::DataLoss { victim, reason }));
    }

    fn on_resync_req(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Action>) {
        // Coordination has moved since the node was told whom to ask.
        if !self.is_acting_coordinator() {
            out.push(self.rejection(node));
            return;
        }
        // Fenced by a coordinator whose word was lost with it: the node is
        // out on its own word, and owed the rebuild that settles it.
        if !self.fences.is_fenced(node) {
            self.detector.condemn(node.index(), now);
            self.raise_fence(node, out);
            self.resync_asked.insert(node);
            return;
        }
        // Defer while a round or rebuild is open, or the node's own rebuild
        // is still owed: the asker is remembered, and its own retry covers
        // a coordinator that has moved by then.
        let settled = self.custody.contains_key(&node) || self.lost.contains(&node);
        if self.coord_round.is_some() || self.rebuild.is_some() || !settled {
            self.resync_asked.insert(node);
            return;
        }
        self.resync_asked.remove(&node);
        let fence_epoch = self.fences.epoch_of(node);
        let committed_epoch = self.committed.as_ref().map(|(e, _)| *e).unwrap_or(0);
        let image = (self.block(node))
            .filter(|(e, _)| !self.spec.is_parity(node) || *e == committed_epoch)
            .map(|(_, b)| b.clone());
        out.push(Action::Send {
            to: node,
            msg: Msg::ResyncState {
                node,
                fence_epoch,
                committed_epoch,
                image,
            },
        });
        out.push(Action::Note(Note::ResyncServed { peer: node }));
    }

    /// Answers every remembered asker that what this entry point did has
    /// left answerable; the rest stay remembered. One no longer fenced was
    /// answered through its retry, and if coordination has moved the
    /// retry is what finds the new coordinator.
    fn serve_deferred_resyncs(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let asked = std::mem::take(&mut self.resync_asked);
        if asked.is_empty() || !self.is_acting_coordinator() {
            return;
        }
        for node in asked {
            if self.fences.is_fenced(node) {
                self.on_resync_req(node, now, out);
            }
        }
    }

    /// Starts a round if this node coordinates and the group is whole.
    /// Returns the typed reason when it cannot.
    fn try_start_round(&mut self, now: SimTime, out: &mut Vec<Action>) -> Result<(), String> {
        if self.unsure {
            return Err(format!("{} was frozen and may be fenced", self.id));
        }
        if !self.is_acting_coordinator() {
            return Err(format!(
                "{} is not the coordinator (try {})",
                self.id,
                self.coordinator()
            ));
        }
        if self.coord_round.is_some() {
            return Err("a round is already open".to_string());
        }
        if self.rebuild.is_some() {
            return Err("a rebuild is in flight".to_string());
        }
        let live = self.live_peers();
        // Every data slot must be covered by a live member or custody.
        let mut sources = Vec::new();
        for i in 0..self.spec.data_nodes {
            let n = NodeId(i);
            if n == self.id || live.contains(&n) || self.custody.contains_key(&n) {
                sources.push(n);
            } else {
                return Err(format!("{n} is down and not yet rebuilt into custody"));
            }
        }
        let holders: Vec<NodeId> = (self.spec.data_nodes..self.spec.total())
            .map(NodeId)
            .filter(|h| *h == self.id || live.contains(h))
            .collect();
        if holders.is_empty() {
            return Err("no live parity holder".to_string());
        }
        let epoch = self
            .last_begun
            .max(self.committed.as_ref().map(|(e, _)| *e).unwrap_or(0))
            + 1;
        self.last_begun = epoch;
        let members = sources.iter().chain(&holders).copied();
        let members: BTreeSet<NodeId> = members.filter(|n| !self.custody.contains_key(n)).collect();
        self.coord_round = Some(CoordRound {
            epoch,
            deadline: now + self.spec.round_timeout,
            pending: members.clone(),
            members,
            committing: false,
        });
        out.push(Action::Note(Note::RoundStarted { epoch }));
        // The coordinator takes part as every member does.
        for p in live.into_iter().chain([self.id]) {
            out.push(Action::Send {
                to: p,
                msg: Msg::RoundBegin {
                    epoch,
                    sources: sources.clone(),
                    holders: holders.clone(),
                },
            });
        }
        Ok(())
    }

    fn on_round_begin(
        &mut self,
        epoch: u64,
        sources: Vec<NodeId>,
        holders: Vec<NodeId>,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if let Some(r) = &self.part_round {
            if r.epoch >= epoch {
                return; // stale replay
            }
            out.push(Action::Note(Note::RoundAborted {
                epoch: r.epoch,
                reason: format!("superseded by round {epoch}"),
            }));
        }
        // A source's block leaves when its capture is due, from the member
        // itself or from custody.
        let ships = (sources.iter()).any(|s| *s == self.id || self.custody.contains_key(s));
        self.part_round = Some(PartRound {
            epoch,
            started_at: now,
            sources,
            holders,
            capture_due: ships.then(|| now + self.spec.capture_delay),
            expires_at: now + self.spec.round_timeout * 2.0,
            captured: false,
            folded: BTreeMap::new(),
            staged_parity: None,
        });
        self.last_begun = self.last_begun.max(epoch);
        // Parts that arrived ahead of this RoundBegin go through every
        // check a part arriving now would; ones for rounds this one has
        // passed are dropped there, ones for later rounds stay parked.
        let (due, later): (BTreeMap<_, _>, _) = std::mem::take(&mut self.early)
            .into_iter()
            .partition(|(_, (parked, _))| *parked <= epoch);
        self.early = later;
        for (source, (parked, parts)) in due {
            for (index, (from, fence_epoch, data)) in parts {
                let offset = Some((index * PART_LEN) as u64);
                self.on_part(from, (parked, source, fence_epoch, offset), data, out);
            }
        }
        // A zero capture delay fires immediately.
        if let Some(due) = self.part_round.as_ref().and_then(|r| r.capture_due) {
            if now >= due {
                self.do_capture(now, out);
            }
        }
    }

    /// Performs the deferred capture: a data member ships its live image to
    /// every holder and acks the coordinator, and the coordinator ships the
    /// custody block of every source that is out, so the encode always
    /// spans all `k` data slots.
    fn do_capture(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let Some(r) = &mut self.part_round else {
            return;
        };
        if r.capture_due.take().is_none() {
            return;
        }
        let epoch = r.epoch;
        let holders = r.holders.clone();
        let sources = r.sources.clone();
        let window_secs = now.since(r.started_at).as_secs();
        // The block this node commits is `live` itself: nothing writes it
        // before the commit promotes it, and whatever does voids the
        // capture. What travels is copied from it straight into parts.
        if self.live.is_some() && sources.contains(&self.id) {
            r.captured = true;
            self.ship(epoch, self.id, &holders, out);
            out.push(Action::Send {
                to: self.coordinator(),
                msg: Msg::CaptureAck {
                    epoch,
                    node: self.id,
                },
            });
            out.push(Action::Note(Note::CaptureShipped { epoch, window_secs }));
        }
        if self.is_acting_coordinator() {
            for &s in sources.iter().filter(|s| self.custody.contains_key(s)) {
                self.ship(epoch, s, &holders, out);
            }
        }
    }

    /// Sends slot `source`'s capture — this node's `live`, or the custody
    /// block standing in for `source` — to every holder as parts, each a
    /// copy of its bytes.
    fn ship(&self, epoch: u64, source: NodeId, holders: &[NodeId], out: &mut Vec<Action>) {
        let fence_epoch = self.fences.epoch_of(self.id);
        let block = match source == self.id {
            true => self.live.as_deref(),
            false => self.custody.get(&source).map(|(_, b)| &b[..]),
        };
        let Some(block) = block else {
            return;
        };
        for &h in holders {
            let (parts, last) = cut(block);
            let parts = parts.map(|(offset, part)| Msg::PayloadPart {
                epoch,
                source,
                fence_epoch,
                offset,
                data: part.to_vec(),
            });
            let last = Msg::Payload {
                epoch,
                source,
                fence_epoch,
                data: last.to_vec(),
            };
            out.extend(parts.chain([last]).map(|msg| Action::Send { to: h, msg }));
        }
    }

    /// A part of slot `source`'s capture of round `epoch` at `offset` (or,
    /// with none, the block's last part): parked if its round has not
    /// begun here, else folded into the staged shard at most once. A
    /// source counts as folded once every part of its block is, and the
    /// shard is acked once all `k` are.
    fn on_part(
        &mut self,
        from: NodeId,
        (epoch, source, fence_epoch, offset): (u64, NodeId, u64, Option<u64>),
        data: Vec<u8>,
        out: &mut Vec<Action>,
    ) {
        let dropped = |reason: String| Action::Note(Note::PayloadDropped { from, reason });
        if !self.spec.is_parity(self.id) {
            out.push(dropped("this node holds no parity".to_string()));
            return;
        }
        if let Some(stale) = self.stale(from, fence_epoch) {
            return out.push(stale);
        }
        let index = match self.spec.part(offset, data.len()) {
            Ok(index) => index,
            Err(reason) => return out.push(dropped(reason)),
        };
        if !self.spec.is_data(source) {
            out.push(dropped(format!("{source} is not a data slot")));
            return;
        }
        // A part can overtake its RoundBegin (they travel on different
        // connections): park it until the round it names opens. One epoch
        // per source, the newest, and each part once, so at most k blocks'
        // bytes are ever held.
        if epoch > self.last_begun {
            let parked = (self.early)
                .entry(source)
                .or_insert_with(|| (epoch, BTreeMap::new()));
            if parked.0 != epoch {
                let (older, newer) = (epoch.min(parked.0), epoch.max(parked.0));
                out.push(dropped(format!(
                    "round {older} not begun and round {newer} parked"
                )));
                if epoch == older {
                    return;
                }
                *parked = (epoch, BTreeMap::new());
            }
            if let Entry::Vacant(slot) = parked.1.entry(index) {
                slot.insert((from, fence_epoch, data));
            } else {
                let reason = format!("part {index} of {source} is parked for round {epoch}");
                out.push(dropped(reason));
            }
            return;
        }
        let parts = self.spec.parts();
        let Some(r) = self.part_round.as_mut().filter(|r| r.epoch == epoch) else {
            out.push(dropped(format!("round {epoch} is not open here")));
            return;
        };
        if !r.sources.contains(&source) {
            out.push(dropped(format!(
                "{source} is not a source of round {epoch}"
            )));
            return;
        }
        // Folding the same bytes twice would undo them, silently.
        let folded = r.folded.entry(source).or_default();
        if !folded.insert(index) {
            out.push(dropped(format!(
                "part {index} of {source} is already folded in round {epoch}"
            )));
            return;
        }
        let whole = folded.len() == parts;
        // Fold the part into our shard at its offset and drop it. The
        // codes are GF(2)-linear, so every part of k blocks folded in any
        // order into zeros equals `encode`'s shard; the zeros are the
        // spare buffer, cleared.
        let j = self.id.index() - self.spec.data_nodes;
        let len = self.spec.image_len;
        let shard = r.staged_parity.get_or_insert_with(|| {
            let mut zeros = self.spare.take().unwrap_or_default();
            zeros.clear();
            zeros.resize(len, 0);
            zeros
        });
        (self.code).apply_delta(j, shard, source.index(), index * PART_LEN, &data);
        if !whole || r.folded_whole(parts) < self.spec.data_nodes {
            return;
        }
        out.push(Action::Send {
            to: self.coordinator(),
            msg: Msg::FoldAck {
                epoch,
                node: self.id,
            },
        });
    }

    /// Coordinator: records `node`'s ack of round `epoch`'s capture or
    /// fold, or (`commit`) of its commit, and hands back the round once no
    /// member owes one.
    fn acked(&mut self, epoch: u64, node: NodeId, commit: bool) -> Option<&mut CoordRound> {
        let r =
            (self.coord_round.as_mut()).filter(|r| r.epoch == epoch && r.committing == commit)?;
        (r.pending.remove(&node) && r.pending.is_empty()).then_some(r)
    }

    /// Participant: promote staged state to committed, churn the live
    /// image, ack the coordinator.
    fn on_commit(&mut self, epoch: u64, out: &mut Vec<Action>) {
        let Some(r) = self.part_round.take_if(|r| r.epoch == epoch) else {
            return;
        };
        // A shard short of a block, or of a part, is not parity of
        // anything: drop it.
        let whole = r.folded_whole(self.spec.parts()) == self.spec.data_nodes;
        if let Some(shard) = r.staged_parity.filter(|_| whole) {
            self.promote(epoch, shard);
        }
        // The captured image is committed by move, and the next one is
        // written from it in one pass into the buffer the commit freed.
        if let Some(image) = self.live.take_if(|_| r.captured) {
            self.promote(epoch, image);
            let (_, image) = self.committed.as_ref().expect("promoted above");
            let mut next = self.spare.take().unwrap_or_default();
            next.resize(image.len(), 0);
            churn_image(self.spec.cluster_id, self.id, epoch, Some(image), &mut next);
            self.live = Some(next);
        } else if let Some(live) = &mut self.live {
            churn_image(self.spec.cluster_id, self.id, epoch, None, live);
        }
        // Custody orphans' images are re-committed at this epoch (same
        // bytes). An orphan's parity shard is parity of the round it was
        // rebuilt at and of no later one: it keeps that epoch, so a resync
        // or a rebuild never takes it for current.
        for (n, (e, _)) in &mut self.custody {
            if self.spec.is_data(*n) {
                *e = epoch;
            }
        }
        self.rounds_committed += 1;
        out.push(Action::Send {
            to: self.coordinator(),
            msg: Msg::CommitAck {
                epoch,
                node: self.id,
            },
        });
    }

    /// Coordinator: abandons round `epoch`, if it is the one open. Its own
    /// part of the round ends here, not by an `AbortRound` to itself,
    /// which would note the abort a second time.
    fn abort_round(&mut self, epoch: u64, reason: String, out: &mut Vec<Action>) {
        if self.coord_round.take_if(|r| r.epoch == epoch).is_none() {
            return;
        }
        for p in self.live_peers() {
            out.push(Action::Send {
                to: p,
                msg: Msg::AbortRound {
                    epoch,
                    reason: reason.clone(),
                },
            });
        }
        self.part_round.take_if(|r| r.epoch == epoch);
        out.push(Action::Note(Note::RoundAborted {
            epoch,
            reason: reason.clone(),
        }));
        self.answer_ctl(Msg::CheckpointFailed { reason }, out);
    }

    /// Tells the `dvdc-ctl` request waiting on a round how it ended, if
    /// one is.
    fn answer_ctl(&mut self, msg: Msg, out: &mut Vec<Action>) {
        if std::mem::take(&mut self.ctl_waiting) {
            out.push(Action::Send { to: CTL, msg });
        }
    }

    /// The paper's cluster-wide rollback on readmission: every data node
    /// resumes from its committed image so the whole group restarts from
    /// one consistent round.
    fn apply_rollback(&mut self) {
        if !self.spec.is_data(self.id) {
            return;
        }
        let committed = self.committed.take();
        if let Some((_, img)) = &committed {
            self.overwrite_live(img);
        }
        self.committed = committed;
    }

    /// Makes `block` the committed block of `epoch`, keeping the buffer of
    /// the one it replaces as the spare.
    fn promote(&mut self, epoch: u64, block: Vec<u8>) {
        self.spare = self.committed.replace((epoch, block)).map(|(_, b)| b);
    }

    /// Writes `img` over the live image outside a commit, into the buffer
    /// `live` already owns. What the open round captured is no longer
    /// there, so its commit promotes nothing.
    fn overwrite_live(&mut self, img: &[u8]) {
        match &mut self.live {
            Some(live) if live.len() == img.len() => live.copy_from_slice(img),
            live => *live = Some(img.to_vec()),
        }
        if let Some(r) = &mut self.part_round {
            r.captured = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ClusterSpec {
        ClusterSpec {
            cluster_id: 7,
            data_nodes: 3,
            parity_nodes: 1,
            image_len: 64,
            ..ClusterSpec::default()
        }
    }

    #[test]
    fn validate_rejects_each_config_hazard_with_its_sentence() {
        type Plant = fn(&mut ClusterSpec);
        let hazards: [(&str, Plant); 9] = [
            ("one data and one parity", |s| s.data_nodes = 0),
            ("one data and one parity", |s| s.parity_nodes = 0),
            ("at most 256 members", |s| {
                (s.data_nodes, s.parity_nodes) = (255, 2)
            }),
            ("image length", |s| s.image_len = 0),
            ("heartbeat interval must not be zero", |s| {
                s.detector = DetectorConfig::from_millis(0.0, 250.0, 200.0)
            }),
            ("heartbeat interval must not be zero", |s| {
                s.detector = DetectorConfig::from_millis(0.0, 0.0, 200.0)
            }),
            ("two heartbeat intervals", |s| {
                s.detector = DetectorConfig::from_millis(50.0, 60.0, 200.0)
            }),
            ("must exceed the capture delay", |s| {
                s.round_timeout = s.capture_delay
            }),
            ("rebuild timeout must not be zero", |s| {
                s.rebuild_timeout = Duration::ZERO
            }),
        ];
        for (sentence, plant) in hazards {
            let mut bad = spec();
            plant(&mut bad);
            let err = bad.validate().expect_err(sentence);
            assert!(err.contains(sentence), "{err}");
        }
        // XOR has no field, so only a Reed–Solomon group is bounded.
        for (k, m) in [(254, 2), (400, 1)] {
            let wide = ClusterSpec {
                data_nodes: k,
                parity_nodes: m,
                ..spec()
            };
            assert_eq!(wide.validate(), Ok(()), "k={k} m={m}");
        }
    }

    #[test]
    fn validate_accepts_every_profile_in_use() {
        let mut in_use = vec![ClusterSpec::default(), spec()];
        for (k, m) in [(2, 1), (4, 1), (3, 2), (4, 2)] {
            in_use.push(ClusterSpec::drill(k, m));
        }
        // The benchmark's: in-process (10 ms capture, 2 s rounds), daemons.
        for (hb, timeout, grace) in [(200.0, 2000.0, 1000.0), (50.0, 250.0, 200.0)] {
            in_use.push(ClusterSpec {
                detector: DetectorConfig::from_millis(hb, timeout, grace),
                round_timeout: Duration::from_millis(2000.0),
                rebuild_timeout: Duration::from_millis(30_000.0),
                capture_delay: Duration::from_millis(10.0),
                ..ClusterSpec::default()
            });
        }
        for spec in in_use {
            assert_eq!(spec.validate(), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn initial_images_are_deterministic_and_distinct() {
        let a = initial_image(7, NodeId(0), 64);
        let b = initial_image(7, NodeId(0), 64);
        let c = initial_image(7, NodeId(1), 64);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(initial_image(8, NodeId(0), 64), a);
    }

    #[test]
    fn churn_changes_bytes_deterministically() {
        let mut a = initial_image(7, NodeId(0), 64);
        let orig = a.clone();
        churn_image(7, NodeId(0), 1, None, &mut a);
        assert_ne!(a, orig);
        let mut b = orig.clone();
        churn_image(7, NodeId(0), 1, None, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn image_stream_is_the_reference_splitmix64_fused_or_in_place() {
        // The vectors `simcore::rng` pins for the stream from state 0.
        let mut zeros = vec![0; 16];
        xor_pseudo(0, None, &mut zeros);
        let words = [0xE220_A839_7B1D_CDAF_u64, 0x6E78_9E6A_A1B9_65F4];
        assert_eq!(zeros, words.map(u64::to_le_bytes).concat());
        for len in (0..=17).chain([4096 + 3]) {
            let seed = 0xDEAD_BEEF ^ len as u64;
            let src = initial_image(7, NodeId(1), len);
            let mut in_place = src.clone();
            xor_pseudo(seed, None, &mut in_place);
            let mut fused = vec![0xFF; len];
            xor_pseudo(seed, Some(&src), &mut fused);
            assert_eq!(fused, in_place, "len {len}");
        }
    }

    fn block(epoch: u64, source: usize, data: Vec<u8>) -> Msg {
        Msg::Payload {
            epoch,
            source: NodeId(source),
            fence_epoch: 0,
            data,
        }
    }

    /// The parity holder of `spec()`, with round 1 open.
    fn holder_in_round_1() -> NodeCore {
        let mut p = NodeCore::new(NodeId(3), spec(), 1);
        let begin = Msg::RoundBegin {
            epoch: 1,
            sources: (0..3).map(NodeId).collect(),
            holders: vec![NodeId(3)],
        };
        p.on_message(NodeId(0), begin, SimTime::ZERO);
        p
    }

    #[test]
    fn duplicate_payload_is_dropped_and_the_committed_parity_is_unchanged() {
        let mut p = holder_in_round_1();
        let images: Vec<Vec<u8>> = (0..3).map(|i| initial_image(7, NodeId(i), 64)).collect();
        let is_drop = |out: &[Action], source: usize| {
            matches!(
                out,
                [Action::Note(Note::PayloadDropped { from, reason })]
                    if *from == NodeId(source) && reason.contains("already folded")
            )
        };
        for source in [0, 1] {
            let out = p.on_message(
                NodeId(source),
                block(1, source, images[source].clone()),
                SimTime::ZERO,
            );
            assert!(out.is_empty(), "{out:?}");
        }
        // Once with other bytes, once with the same: neither is XORed in.
        let out = p.on_message(NodeId(1), block(1, 1, vec![0xFF; 64]), SimTime::ZERO);
        assert!(is_drop(&out, 1), "{out:?}");
        let out = p.on_message(NodeId(0), block(1, 0, images[0].clone()), SimTime::ZERO);
        assert!(is_drop(&out, 0), "{out:?}");
        p.on_message(NodeId(2), block(1, 2, images[2].clone()), SimTime::ZERO);
        p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);

        let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let want = spec().code().encode(&refs).remove(0);
        assert_eq!(p.committed(), Some((1, want.as_slice())));
    }

    #[test]
    fn shard_short_of_a_block_is_never_promoted() {
        let mut p = holder_in_round_1();
        for source in [0, 1] {
            p.on_message(NodeId(source), block(1, source, vec![1; 64]), SimTime::ZERO);
        }
        p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        assert_eq!(p.committed(), None);
    }

    /// `spec` with blocks of three whole parts and a ragged fourth.
    fn in_parts(spec: ClusterSpec) -> ClusterSpec {
        ClusterSpec {
            image_len: 3 * PART_LEN + 4_099,
            ..spec
        }
    }

    /// A 4+`m` group of `spec()`'s kind, in parts.
    fn ragged(m: usize) -> ClusterSpec {
        in_parts(ClusterSpec {
            data_nodes: 4,
            parity_nodes: m,
            ..spec()
        })
    }

    /// Every member's committed block after round 1 of `spec`: the initial
    /// images, then what `encode` makes of them.
    fn group_blocks(spec: &ClusterSpec) -> Vec<Vec<u8>> {
        let k = spec.data_nodes;
        let mut blocks: Vec<Vec<u8>> = (0..k)
            .map(|i| initial_image(7, NodeId(i), spec.image_len))
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let parity = spec.code().encode(&refs);
        blocks.extend(parity);
        blocks
    }

    /// The messages `block` travels to a holder in as slot `source`'s
    /// capture of `epoch`, cut here rather than by the code under test.
    fn parts(epoch: u64, source: usize, block: &[u8]) -> Vec<Msg> {
        let last = block.len().div_ceil(PART_LEN) - 1;
        let part = |(i, data): (usize, &[u8])| {
            let (source, data) = (NodeId(source), data.to_vec());
            match i == last {
                true => Msg::Payload {
                    epoch,
                    source,
                    fence_epoch: 0,
                    data,
                },
                false => Msg::PayloadPart {
                    epoch,
                    source,
                    fence_epoch: 0,
                    offset: (i * PART_LEN) as u64,
                    data,
                },
            }
        };
        block.chunks(PART_LEN).enumerate().map(part).collect()
    }

    /// Survivor `node`'s answer to a `FetchReq`: slot `holder`'s `block` of
    /// `epoch` as `FetchPart`s, then the `FetchBlocks` that closes it.
    fn answer(node: usize, holder: usize, epoch: u64, block: &[u8]) -> Vec<Msg> {
        let tag = |data: &[u8]| BlockInfo {
            holder: NodeId(holder),
            kind: ragged(1).kind_of(NodeId(holder)),
            epoch,
            data: data.to_vec(),
        };
        let node = NodeId(node);
        let mut chunks: Vec<&[u8]> = block.chunks(PART_LEN).collect();
        let last = chunks.pop().expect("a block has a last part");
        let mut msgs: Vec<Msg> = (chunks.into_iter().enumerate())
            .map(|(i, data)| Msg::FetchPart {
                node,
                fence_epoch: 0,
                offset: (i * PART_LEN) as u64,
                part: tag(data),
            })
            .collect();
        msgs.push(Msg::FetchBlocks {
            node,
            fence_epoch: 0,
            blocks: vec![tag(last)],
        });
        msgs
    }

    /// Holder `h` of `spec`, which has met node 0 (so acks go there), with
    /// round 1 of every data member open.
    fn holder_in_round(spec: &ClusterSpec, h: usize) -> NodeCore {
        let mut p = NodeCore::new(NodeId(h), spec.clone(), 1);
        let hello = NodeCore::new(NodeId(0), spec.clone(), 1).hello();
        p.on_message(NodeId(0), hello, SimTime::ZERO);
        let begin = Msg::RoundBegin {
            epoch: 1,
            sources: (0..spec.data_nodes).map(NodeId).collect(),
            holders: (spec.data_nodes..spec.total()).map(NodeId).collect(),
        };
        p.on_message(NodeId(0), begin, SimTime::ZERO);
        p
    }

    fn fold_acks(out: &[Action]) -> usize {
        sent_to(out, |m| matches!(m, Msg::FoldAck { .. })).len()
    }

    /// `out` is one `PayloadDropped` from `from`, for a reason naming `why`.
    fn dropped(out: &[Action], from: usize, why: &str) -> bool {
        matches!(out, [Action::Note(Note::PayloadDropped { from: f, reason })]
            if *f == NodeId(from) && reason.contains(why))
    }

    #[test]
    fn parts_in_order_reversed_or_interleaved_fold_to_the_encoded_shard() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            let by_source: Vec<Vec<Msg>> = (0..4).map(|i| parts(1, i, &blocks[i])).collect();
            let in_order: Vec<(usize, Msg)> = (0..4)
                .flat_map(|i| by_source[i].iter().map(move |msg| (i, msg.clone())))
                .collect();
            let reversed = in_order.iter().rev().cloned().collect();
            let interleaved = (0..4)
                .flat_map(|part| (0..4).map(move |i| (i, part)))
                .map(|(i, part)| (i, by_source[i][part].clone()))
                .collect();
            for (how, order) in [
                ("in order", in_order),
                ("reversed", reversed),
                ("interleaved", interleaved),
            ] {
                for j in 0..m {
                    let mut p = holder_in_round(&s, 4 + j);
                    let acks: Vec<usize> = (order.iter().cloned())
                        .map(|(i, msg)| {
                            let out = p.on_message(NodeId(i), msg, SimTime::ZERO);
                            assert!(notes(&out).is_empty(), "{how}: {out:?}");
                            fold_acks(&out)
                        })
                        .collect();
                    // Acked once, when the last part of the last block lands.
                    assert_eq!(acks.iter().sum::<usize>(), 1, "{how}");
                    assert_eq!(acks.last(), Some(&1), "{how}");
                    p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
                    let want = Some((1, blocks[4 + j].as_slice()));
                    assert_eq!(p.committed(), want, "{how}, holder {j} of 4+{m}");
                }
            }
        }
    }

    #[test]
    fn a_part_delivered_twice_is_folded_once() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            for j in 0..m {
                let mut p = holder_in_round(&s, 4 + j);
                for (i, block) in blocks[..4].iter().enumerate() {
                    for (n, msg) in parts(1, i, block).into_iter().enumerate() {
                        let again = msg.clone();
                        p.on_message(NodeId(i), msg, SimTime::ZERO);
                        // Part n of source n twice: middle parts, and the
                        // last of source 3.
                        if n == i {
                            let out = p.on_message(NodeId(i), again, SimTime::ZERO);
                            assert!(dropped(&out, i, "already folded"), "{out:?}");
                        }
                    }
                }
                p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
                let want = Some((1, blocks[4 + j].as_slice()));
                assert_eq!(p.committed(), want, "holder {j} of 4+{m}");
            }
        }
    }

    #[test]
    fn a_source_short_of_a_part_gets_no_fold_ack_and_the_round_times_out() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            // Holder 4 never gets the second part of source 2.
            let mut p = holder_in_round(&s, 4);
            let mut out = Vec::new();
            for (i, block) in blocks[..4].iter().enumerate() {
                for (n, msg) in parts(1, i, block).into_iter().enumerate() {
                    if (i, n) != (2, 1) {
                        out.extend(p.on_message(NodeId(i), msg, SimTime::ZERO));
                    }
                }
            }
            assert_eq!(fold_acks(&out), 0, "{out:?}");
            p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
            assert_eq!(p.committed(), None);

            // So its coordinator hears every capture, and every fold but
            // that holder's, and the round ends typed at its deadline.
            let mut c = coordinator_in_round_1(s.clone());
            for i in 1..4 {
                let ack = Msg::CaptureAck {
                    epoch: 1,
                    node: NodeId(i),
                };
                c.on_message(NodeId(i), ack, SimTime::ZERO);
            }
            for h in 5..4 + m {
                let ack = Msg::FoldAck {
                    epoch: 1,
                    node: NodeId(h),
                };
                c.on_message(NodeId(h), ack, SimTime::ZERO);
            }
            let deadline = SimTime::ZERO + s.round_timeout;
            let notes = run_on_deadlines(&mut c, deadline, |c, now| {
                for peer in 1..s.total() {
                    c.on_message(NodeId(peer), Msg::Heartbeat { node: NodeId(peer) }, now);
                }
            });
            let timed_out = |(at, n): &(SimTime, Note)| {
                *at == deadline
                    && matches!(n, Note::RoundAborted { reason, .. } if reason == "round timed out")
            };
            assert!(notes.iter().any(timed_out), "4+{m}: {notes:?}");
        }
    }

    #[test]
    fn parts_ahead_of_their_round_are_parked_then_folded_once_it_opens() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            let mut p = NodeCore::new(NodeId(4), s.clone(), 1);
            let hello = NodeCore::new(NodeId(0), s.clone(), 1).hello();
            p.on_message(NodeId(0), hello, SimTime::ZERO);
            // Every part of round 1 before its RoundBegin, each block's
            // backwards; one of them twice.
            for (i, block) in blocks[..4].iter().enumerate() {
                for msg in parts(1, i, block).into_iter().rev() {
                    let out = p.on_message(NodeId(i), msg, SimTime::ZERO);
                    assert!(out.is_empty(), "{out:?}");
                }
            }
            let twice = parts(1, 0, &blocks[0]).remove(1);
            let out = p.on_message(NodeId(0), twice, SimTime::ZERO);
            assert!(dropped(&out, 0, "parked"), "{out:?}");
            // The newest round parked wins, whichever comes first.
            let newer = parts(2, 3, &blocks[3]).remove(0);
            let out = p.on_message(NodeId(3), newer, SimTime::ZERO);
            assert!(dropped(&out, 3, "round 1 not begun and round 2 parked"));
            let older = parts(1, 3, &blocks[3]).remove(0);
            let out = p.on_message(NodeId(3), older, SimTime::ZERO);
            assert!(dropped(&out, 3, "round 1 not begun and round 2 parked"));
            for msg in parts(1, 3, &blocks[3]) {
                let out = p.on_message(NodeId(3), msg, SimTime::ZERO);
                assert!(dropped(&out, 3, "parked"), "{out:?}");
            }
            // Round 2's part of source 3 stays parked; source 3 of round 1
            // is re-sent once the round is open.
            let begin = Msg::RoundBegin {
                epoch: 1,
                sources: (0..4).map(NodeId).collect(),
                holders: (4..4 + m).map(NodeId).collect(),
            };
            let out = p.on_message(NodeId(0), begin, SimTime::ZERO);
            assert!(notes(&out).is_empty() && fold_acks(&out) == 0, "{out:?}");
            let acks: usize = (parts(1, 3, &blocks[3]).into_iter())
                .map(|msg| fold_acks(&p.on_message(NodeId(3), msg, SimTime::ZERO)))
                .sum();
            assert_eq!(acks, 1);
            p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
            assert_eq!(p.committed(), Some((1, blocks[4].as_slice())), "4+{m}");
            assert_eq!(p.early.keys().collect::<Vec<_>>(), [&NodeId(3)]);
        }
    }

    /// Node 0 of `spec`, meshed, with `own` committed at round 1 and the
    /// rebuild of `victim` begun on link evidence.
    fn rebuilding(spec: &ClusterSpec, own: &[u8], victim: usize) -> NodeCore {
        let mut c = meshed_in(spec, 0);
        c.committed = Some((1, own.to_vec()));
        refused_and_confirmed(&mut c, victim, SimTime::ZERO);
        c
    }

    #[test]
    fn a_slot_short_of_a_part_is_never_decoded_from() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            let mut c = rebuilding(&s, &blocks[0], 2);
            for node in [1, 3, 4, 5].into_iter().filter(|n| *n < s.total()) {
                for (n, msg) in answer(node, node, 1, &blocks[node]).into_iter().enumerate() {
                    // Slot 1's answer is short of its second part.
                    if (node, n) != (1, 1) {
                        c.on_message(NodeId(node), msg, SimTime::ZERO);
                    }
                }
            }
            match m {
                // Slots 0, 3 and 4 are whole: fewer than k, typed loss.
                1 => assert!(c.saw_data_loss() && c.custody_block(NodeId(2)).is_none()),
                // Slots 0, 3, 4 and 5 decode byte-exact without the torn
                // slot 1, which the decode would take first.
                _ => assert_eq!(c.custody_block(NodeId(2)), Some((1, blocks[2].as_slice()))),
            }
        }
    }

    #[test]
    fn a_part_outside_the_image_is_dropped_with_a_note() {
        let s = ragged(1);
        let len = s.image_len;
        // No part of a block: past its end, unaligned, short or long where
        // it starts, and as a last part longer than a part or the block.
        let hostile: [(Option<u64>, usize); 11] = [
            (Some(len as u64), 4_099),
            (Some(4 * PART_LEN as u64), 4_099),
            (Some(u64::MAX), PART_LEN),
            (Some(1), PART_LEN),
            (Some(PART_LEN as u64 + 1), PART_LEN),
            (Some(3 * PART_LEN as u64), 4_098),
            (Some(0), PART_LEN - 1),
            (Some(0), PART_LEN + 1),
            (None, len + 1),
            (None, 0),
            (None, PART_LEN + 4_099),
        ];
        let blocks = group_blocks(&s);

        // A holder drops each, and folds none of it.
        let mut p = holder_in_round(&s, 4);
        for (offset, n) in hostile {
            let data = vec![0xAB; n];
            let (epoch, source, fence_epoch) = (1, NodeId(1), 0);
            let msg = match offset {
                Some(offset) => Msg::PayloadPart {
                    epoch,
                    source,
                    fence_epoch,
                    offset,
                    data,
                },
                None => Msg::Payload {
                    epoch,
                    source,
                    fence_epoch,
                    data,
                },
            };
            let out = p.on_message(NodeId(1), msg, SimTime::ZERO);
            assert!(dropped(&out, 1, "no part"), "{offset:?} {n}: {out:?}");
        }
        for (i, block) in blocks[..4].iter().enumerate() {
            for msg in parts(1, i, block) {
                p.on_message(NodeId(i), msg, SimTime::ZERO);
            }
        }
        p.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        assert_eq!(p.committed(), Some((1, blocks[4].as_slice())));

        // A coordinator drops each inside an answer, and the rest of the
        // answer still lands.
        let mut c = rebuilding(&s, &blocks[0], 2);
        let mut last = Vec::new();
        for (offset, n) in hostile {
            let part = BlockInfo {
                holder: NodeId(1),
                kind: BlockKind::Data,
                epoch: 1,
                data: vec![0xAB; n],
            };
            let Some(offset) = offset else {
                last.push(part);
                continue;
            };
            let msg = Msg::FetchPart {
                node: NodeId(1),
                fence_epoch: 0,
                offset,
                part,
            };
            let out = c.on_message(NodeId(1), msg, SimTime::ZERO);
            assert!(dropped(&out, 1, "no part"), "{offset} {n}: {out:?}");
        }
        for node in [1, 3, 4] {
            for mut msg in answer(node, node, 1, &blocks[node]) {
                let mut want = 0;
                if let Msg::FetchBlocks { blocks, .. } = &mut msg {
                    want = last.len();
                    blocks.splice(0..0, std::mem::take(&mut last));
                }
                let out = c.on_message(NodeId(node), msg, SimTime::ZERO);
                let drops = notes(&out).into_iter().filter(|n| {
                    matches!(n, Note::PayloadDropped { reason, .. } if reason.contains("no part"))
                });
                assert_eq!(drops.count(), want, "{out:?}");
            }
        }
        assert_eq!(c.custody_block(NodeId(2)), Some((1, blocks[2].as_slice())));
    }

    #[test]
    fn at_4_kib_a_block_travels_in_the_one_message_it_always_did() {
        // What a data member ships, and what it answers a rebuild with, are
        // the messages version 3 sent: one `Payload` of the whole image,
        // one `FetchBlocks` of the whole committed block.
        let s = ClusterSpec {
            data_nodes: 4,
            parity_nodes: 1,
            image_len: 4096,
            ..spec()
        };
        let mut n = meshed_in(&s, 1);
        let image = n.live.clone().expect("a data member's image");
        let begin = Msg::RoundBegin {
            epoch: 1,
            sources: (0..4).map(NodeId).collect(),
            holders: vec![NodeId(4)],
        };
        let to = |out: Vec<Action>, peer: usize| -> Vec<Msg> {
            let sent = |a| match a {
                Action::Send { to, msg } if to == NodeId(peer) => Some(msg),
                _ => None,
            };
            out.into_iter().filter_map(sent).collect()
        };
        let shipped = to(n.on_message(NodeId(0), begin, SimTime::ZERO), 4);
        let payload = Msg::Payload {
            epoch: 1,
            source: NodeId(1),
            fence_epoch: 0,
            data: image.clone(),
        };
        assert_eq!(shipped, [payload]);
        n.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        let fetch = Msg::FetchReq { victim: NodeId(2) };
        let answered = to(n.on_message(NodeId(0), fetch, SimTime::ZERO), 0);
        let blocks = vec![BlockInfo {
            holder: NodeId(1),
            kind: BlockKind::Data,
            epoch: 1,
            data: image,
        }];
        let whole = Msg::FetchBlocks {
            node: NodeId(1),
            fence_epoch: 0,
            blocks,
        };
        assert_eq!(answered, [whole]);
    }

    #[test]
    fn a_rebuild_lends_the_coordinators_blocks_and_gives_them_back() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            for answered_epoch in [1, 2] {
                let ctx = format!("4+{m}, answers of round {answered_epoch}");
                let mut c = meshed_in(&s, 0);
                c.committed = Some((1, blocks[0].clone()));
                // With two parity blocks the coordinator holds slot 1 too.
                let survivors = match m {
                    1 => vec![1, 3, 4],
                    _ => {
                        let fence = Msg::Fence {
                            node: NodeId(1),
                            epoch: 1,
                        };
                        c.on_message(NodeId(3), fence, SimTime::ZERO);
                        c.custody.insert(NodeId(1), (1, blocks[1].clone()));
                        vec![3, 4, 5]
                    }
                };
                let before = (c.committed.clone(), c.custody.clone());
                refused_and_confirmed(&mut c, 2, SimTime::ZERO);
                for node in survivors {
                    for msg in answer(node, node, answered_epoch, &blocks[node]) {
                        c.on_message(NodeId(node), msg, SimTime::ZERO);
                    }
                }
                // Answers of round 2 leave round 1 with only what the
                // coordinator holds: typed loss. Either way its own blocks
                // are as they were.
                let rebuilt = c.custody.remove(&NodeId(2));
                match answered_epoch {
                    1 => assert_eq!(rebuilt.map(|b| b.1), Some(blocks[2].clone()), "{ctx}"),
                    _ => assert!(rebuilt.is_none() && c.saw_data_loss(), "{ctx}"),
                }
                assert!((c.committed.clone(), c.custody.clone()) == before, "{ctx}");
            }
        }
    }

    /// The data member's capture on `RoundBegin` of `epoch` (the delay of
    /// `spec()` is zero): the bytes it shipped to the holder, read back
    /// from its parts.
    fn captured(n: &mut NodeCore, epoch: u64) -> Vec<u8> {
        let begin = Msg::RoundBegin {
            epoch,
            sources: (0..3).map(NodeId).collect(),
            holders: vec![NodeId(3)],
        };
        let out = n.on_message(NodeId(0), begin, SimTime::ZERO);
        let mut shipped = vec![0xEE; n.spec().image_len];
        let mut ends = Vec::new();
        for action in out {
            let (at, data) = match action {
                Action::Send {
                    to: NodeId(3),
                    msg: Msg::PayloadPart { offset, data, .. },
                } => (offset as usize, data),
                Action::Send {
                    to: NodeId(3),
                    msg: Msg::Payload { data, .. },
                } => (shipped.len() - data.len(), data),
                _ => continue,
            };
            shipped[at..at + data.len()].copy_from_slice(&data);
            ends.push(at + data.len());
        }
        let whole: Vec<usize> = (1..=ends.len())
            .map(|i| (i * PART_LEN).min(shipped.len()))
            .collect();
        assert_eq!(ends, whole, "a capture on RoundBegin, every part in order");
        shipped
    }

    /// Node 1's image after the guest's writes of round `epoch`.
    fn churned(epoch: u64, mut image: Vec<u8>) -> Vec<u8> {
        churn_image(7, NodeId(1), epoch, None, &mut image);
        image
    }

    #[test]
    fn each_commit_promotes_the_bytes_shipped_and_the_next_round_ships_them_churned() {
        let s = in_parts(spec());
        let mut n = NodeCore::new(NodeId(1), s.clone(), 1);
        let mut want = initial_image(7, NodeId(1), s.image_len);
        for epoch in 1..=3 {
            let shipped = captured(&mut n, epoch);
            assert_eq!(shipped, want, "round {epoch}");
            n.on_message(NodeId(0), Msg::Commit { epoch }, SimTime::ZERO);
            assert_eq!(n.committed(), Some((epoch, shipped.as_slice())));
            want = churned(epoch, shipped);
        }
    }

    #[test]
    fn a_round_lost_after_capture_leaves_live_and_the_next_round_ships_the_same_bytes() {
        let mut n = NodeCore::new(NodeId(1), spec(), 1);
        let first = captured(&mut n, 1);
        // The coordinator gives the round up (a holder died, it timed out).
        let abort = Msg::AbortRound {
            epoch: 1,
            reason: "round timed out".to_string(),
        };
        n.on_message(NodeId(0), abort, SimTime::ZERO);
        assert_eq!(captured(&mut n, 2), first);
        // The coordinator goes silent and the round expires here.
        let out = n.on_tick(SimTime::ZERO + spec().round_timeout * 2.0);
        let expired = |n: &Note| matches!(n, Note::RoundAborted { epoch: 2, .. });
        assert!(notes(&out).iter().any(expired), "{out:?}");
        assert_eq!(captured(&mut n, 3), first);
        assert_eq!(n.committed(), None);
    }

    /// Node 1 of `spec()` with round 1 committed and round 2 captured.
    fn captured_after_a_commit() -> (NodeCore, Vec<u8>) {
        let mut n = NodeCore::new(NodeId(1), spec(), 1);
        let first = captured(&mut n, 1);
        n.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        captured(&mut n, 2);
        (n, first)
    }

    #[test]
    fn writing_live_between_capture_and_commit_voids_the_capture() {
        // The cluster rollback a readmission brings.
        let (mut rolled_back, first) = captured_after_a_commit();
        let readmit = Msg::Readmit {
            node: NodeId(2),
            fence_epoch: 1,
            rollback_epoch: 1,
        };
        rolled_back.on_message(NodeId(0), readmit, SimTime::ZERO);
        // A resync's rebuilt state, landing while the round is open.
        let (mut resynced, _) = captured_after_a_commit();
        resynced.resync = Some(ResyncClient {
            coordinator: NodeId(0),
            next_retry: SimTime::ZERO,
        });
        let rebuilt = vec![0xAB; 64];
        let state = Msg::ResyncState {
            node: NodeId(1),
            fence_epoch: 1,
            committed_epoch: 1,
            image: Some(rebuilt.clone()),
        };
        resynced.on_message(NodeId(0), state, SimTime::ZERO);
        resynced.resync = None;

        for (mut n, written) in [(rolled_back, first), (resynced, rebuilt)] {
            assert_eq!(n.live.as_ref(), Some(&written));
            n.on_message(NodeId(0), Msg::Commit { epoch: 2 }, SimTime::ZERO);
            assert_eq!(n.committed(), Some((1, written.as_slice())));
            assert_eq!(n.live, Some(churned(2, written)));
        }
    }

    #[test]
    fn a_holder_folds_each_round_into_the_shard_the_last_commit_replaced() {
        for m in [1, 2] {
            let s = ragged(m);
            let sources: Vec<NodeId> = (0..4).map(NodeId).collect();
            let holders: Vec<NodeId> = (4..4 + m).map(NodeId).collect();
            for (j, &h) in holders.iter().enumerate() {
                let mut p = NodeCore::new(h, s.clone(), 1);
                let mut images: Vec<Vec<u8>> = (sources.iter())
                    .map(|&i| initial_image(7, i, s.image_len))
                    .collect();
                // The third round is the first to fold into a recycled
                // buffer: the shard round 2's commit replaced.
                for epoch in 1..=3 {
                    let begin = Msg::RoundBegin {
                        epoch,
                        sources: sources.clone(),
                        holders: holders.clone(),
                    };
                    p.on_message(NodeId(0), begin, SimTime::ZERO);
                    for (i, image) in images.iter().enumerate() {
                        for part in parts(epoch, i, image) {
                            p.on_message(NodeId(i), part, SimTime::ZERO);
                        }
                    }
                    p.on_message(NodeId(0), Msg::Commit { epoch }, SimTime::ZERO);
                    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
                    let want = s.code().encode(&refs).remove(j);
                    let got = p.committed();
                    assert_eq!(got, Some((epoch, want.as_slice())), "{h} of 4+{m}, {epoch}");
                    for (i, image) in images.iter_mut().enumerate() {
                        churn_image(7, NodeId(i), epoch, None, image);
                    }
                }
            }
        }
    }

    /// Node 0 of `spec()` with sessions to every peer and a ctl-requested
    /// round open at t = 0.
    fn coordinator_in_round_1(spec: ClusterSpec) -> NodeCore {
        let mut c = NodeCore::new(NodeId(0), spec.clone(), 1);
        for peer in 1..spec.total() {
            let hello = NodeCore::new(NodeId(peer), spec.clone(), 1).hello();
            c.on_message(NodeId(peer), hello, SimTime::ZERO);
        }
        let out = c.on_message(CTL, Msg::CheckpointReq, SimTime::ZERO);
        assert!(out.contains(&Action::Note(Note::RoundStarted { epoch: 1 })));
        c
    }

    /// Ticks `n` at its own deadlines only, up to `until`, after letting
    /// `before_tick` feed it messages stamped with the same instant.
    /// Every tick must move the deadline strictly later, or a driver that
    /// sleeps until `next_deadline` would spin.
    fn run_on_deadlines(
        n: &mut NodeCore,
        until: SimTime,
        mut before_tick: impl FnMut(&mut NodeCore, SimTime),
    ) -> Vec<(SimTime, Note)> {
        let mut notes = Vec::new();
        loop {
            let due = n.next_deadline().expect("heartbeats never end");
            if due > until {
                return notes;
            }
            before_tick(n, due);
            for action in n.on_tick(due) {
                if let Action::Note(note) = action {
                    notes.push((due, note));
                }
            }
            let next = n.next_deadline().expect("heartbeats never end");
            assert!(next > due, "tick at {due} left the deadline at {next}");
        }
    }

    #[test]
    fn round_times_out_on_the_tick_at_its_deadline() {
        let s = ClusterSpec {
            capture_delay: Duration::from_millis(5.0),
            ..spec()
        };
        let mut c = coordinator_in_round_1(s.clone());
        // Peers stay alive but never ack.
        let notes = run_on_deadlines(&mut c, SimTime::from_secs(1.0), |c, now| {
            for peer in 1..4 {
                c.on_message(NodeId(peer), Msg::Heartbeat { node: NodeId(peer) }, now);
            }
        });
        let at = |want: &dyn Fn(&Note) -> bool| {
            let hit = notes.iter().find(|(_, n)| want(n));
            hit.unwrap_or_else(|| panic!("note missing in {notes:?}")).0
        };
        let captured = at(&|n| matches!(n, Note::CaptureShipped { .. }));
        assert_eq!(captured, SimTime::ZERO + s.capture_delay);
        let aborted =
            at(&|n| matches!(n, Note::RoundAborted { reason, .. } if reason == "round timed out"));
        assert_eq!(aborted, SimTime::ZERO + s.round_timeout);
        assert!(!notes
            .iter()
            .any(|(_, n)| matches!(n, Note::PeerVerdict { .. })));
    }

    #[test]
    fn silent_peers_walk_every_failure_timer_without_a_stuck_deadline() {
        let s = spec();
        let mut c = coordinator_in_round_1(s.clone());
        let notes = run_on_deadlines(&mut c, SimTime::from_secs(2.0), |_, _| {});
        // Suspected at the timeout, confirmed a grace later, to the instant.
        let verdict_at = |want: Verdict| {
            let hit = notes
                .iter()
                .find(|(_, n)| matches!(n, Note::PeerVerdict { verdict, .. } if *verdict == want));
            hit.expect("verdict reached").0
        };
        let suspected = SimTime::ZERO + s.detector.timeout;
        assert_eq!(verdict_at(Verdict::Suspected), suspected);
        assert_eq!(
            verdict_at(Verdict::Confirmed),
            suspected + s.detector.confirm_grace
        );
        // The first victim's rebuild waits out its timeout; the other two
        // come off the backlog. Nothing was ever committed: typed loss.
        let lost = notes
            .iter()
            .filter(|(_, n)| matches!(n, Note::DataLoss { .. }));
        assert_eq!(lost.count(), 3, "{notes:?}");
        assert!(c.saw_data_loss());
    }

    /// Node `id` of `spec()` with a session to every other member.
    fn meshed(id: usize) -> NodeCore {
        meshed_in(&spec(), id)
    }

    /// Node `id` of `spec` with a session to every other member.
    fn meshed_in(spec: &ClusterSpec, id: usize) -> NodeCore {
        let mut n = NodeCore::new(NodeId(id), spec.clone(), 1);
        for peer in (0..spec.total()).filter(|p| *p != id) {
            let hello = NodeCore::new(NodeId(peer), spec.clone(), 1).hello();
            n.on_message(NodeId(peer), hello, SimTime::ZERO);
        }
        n
    }

    fn notes(out: &[Action]) -> Vec<Note> {
        let note = |a: &Action| match a {
            Action::Note(n) => Some(n.clone()),
            Action::Send { .. } => None,
        };
        out.iter().filter_map(note).collect()
    }

    fn sent_to(out: &[Action], want: impl Fn(&Msg) -> bool) -> Vec<NodeId> {
        let to = |a: &Action| match a {
            Action::Send { to, msg } if want(msg) => Some(*to),
            _ => None,
        };
        out.iter().filter_map(to).collect()
    }

    fn verdict(node: usize, verdict: Verdict) -> Note {
        Note::PeerVerdict {
            node: NodeId(node),
            verdict,
            evidence: true,
        }
    }

    /// Evidence against `peer` at `at`, then the tick one heartbeat interval
    /// later that confirms it; returns what that tick did.
    fn refused_and_confirmed(n: &mut NodeCore, peer: usize, at: SimTime) -> Vec<Action> {
        n.on_tick(at);
        let out = n.on_peer_refused(NodeId(peer), at);
        assert_eq!(notes(&out), [verdict(peer, Verdict::Suspected)]);
        assert!(sent_to(&out, |_| true).is_empty(), "{out:?}");
        let due = at + spec().detector.heartbeat_interval;
        assert_eq!(n.next_deadline(), Some(due));
        n.on_tick(due)
    }

    #[test]
    fn evidence_suspects_at_once_and_the_coordinator_fences_once_a_heartbeat_interval_later() {
        let mut c = meshed(0);
        let at = SimTime::from_secs(0.003);
        let out = refused_and_confirmed(&mut c, 2, at);
        // The timers' own path, a heartbeat interval after the evidence.
        assert_eq!(
            notes(&out),
            [
                verdict(2, Verdict::Confirmed),
                Note::Fenced {
                    node: NodeId(2),
                    epoch: 1
                },
                Note::RebuildStarted { victim: NodeId(2) },
                Note::RebuildPhase {
                    victim: NodeId(2),
                    phase: "Fetch"
                },
            ]
        );
        let survivors = [NodeId(1), NodeId(3)];
        assert_eq!(sent_to(&out, |m| matches!(m, Msg::Fence { .. })), survivors);
        assert_eq!(
            sent_to(&out, |m| matches!(m, Msg::FetchReq { .. })),
            survivors
        );
        assert_eq!(c.status().confirmed, [NodeId(2)]);
        // The other survivors' writers report the same death; so may this
        // node's own, twice. None of it is news.
        assert!(c.on_peer_refused(NodeId(2), at).is_empty());
    }

    #[test]
    fn a_heartbeat_inside_the_interval_refutes_the_evidence() {
        let mut c = meshed(0);
        let at = SimTime::from_secs(0.003);
        c.on_peer_refused(NodeId(2), at);
        let alive = Msg::Heartbeat { node: NodeId(2) };
        let out = c.on_message(NodeId(2), alive, at + Duration::from_millis(1.0));
        let refuted = Note::PeerVerdict {
            node: NodeId(2),
            verdict: Verdict::Refuted,
            evidence: false,
        };
        assert_eq!(notes(&out), [refuted]);
        let out = c.on_tick(at + spec().detector.heartbeat_interval);
        assert!(notes(&out).is_empty(), "{out:?}");
        assert!(c.has_session(NodeId(2)) && c.status().confirmed.is_empty());
    }

    #[test]
    fn evidence_about_a_stranger_or_about_self_is_ignored() {
        // At boot a dial is refused because the peer does not listen yet.
        let mut n = NodeCore::new(NodeId(0), spec(), 1);
        assert!(n.on_peer_refused(NodeId(2), SimTime::ZERO).is_empty());
        let mut n = meshed(0);
        assert!(n.on_peer_refused(NodeId(0), SimTime::ZERO).is_empty());
        assert!(n.on_peer_refused(NodeId(9), SimTime::ZERO).is_empty());
        assert!(n.status().suspected.is_empty());
        // A fenced peer has no session: the fence already says it all.
        let fence = Msg::Fence {
            node: NodeId(2),
            epoch: 1,
        };
        n.on_message(NodeId(1), fence, SimTime::ZERO);
        assert!(n.on_peer_refused(NodeId(2), SimTime::ZERO).is_empty());
    }

    #[test]
    fn evidence_on_a_non_coordinator_drops_the_session_and_fences_nothing() {
        let mut n = meshed(1);
        let out = refused_and_confirmed(&mut n, 2, SimTime::ZERO);
        assert_eq!(notes(&out), [verdict(2, Verdict::Confirmed)]);
        assert!(
            sent_to(&out, |m| !matches!(m, Msg::Heartbeat { .. })).is_empty(),
            "{out:?}"
        );
        assert!(!n.has_session(NodeId(2)));
        assert_eq!(n.coordinator(), NodeId(0));
    }

    #[test]
    fn evidence_against_the_coordinator_promotes_the_next_member_which_fences_it() {
        let mut n = meshed(1);
        assert_eq!(n.coordinator(), NodeId(0));
        let out = refused_and_confirmed(&mut n, 0, SimTime::ZERO);
        assert_eq!(n.coordinator(), NodeId(1));
        let fenced = Note::Fenced {
            node: NodeId(0),
            epoch: 1,
        };
        assert!(notes(&out).contains(&fenced), "{out:?}");
        assert_eq!(
            sent_to(&out, |m| matches!(m, Msg::Fence { .. })),
            [NodeId(2), NodeId(3)]
        );
    }

    #[test]
    fn custody_digest_is_the_one_the_rebuild_computed() {
        let images: Vec<Vec<u8>> = (0..3).map(|i| initial_image(7, NodeId(i), 64)).collect();
        let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let parity = spec().code().encode(&refs).remove(0);
        let mut c = meshed(0);
        c.committed = Some((1, images[0].clone()));
        refused_and_confirmed(&mut c, 2, SimTime::ZERO);
        let mut rebuilt = Vec::new();
        for (holder, kind, data) in [
            (1, BlockKind::Data, images[1].clone()),
            (3, BlockKind::Parity, parity),
        ] {
            let blocks = vec![BlockInfo {
                holder: NodeId(holder),
                kind,
                epoch: 1,
                data,
            }];
            let fetched = Msg::FetchBlocks {
                node: NodeId(holder),
                fence_epoch: 0,
                blocks,
            };
            rebuilt.extend(notes(&c.on_message(NodeId(holder), fetched, SimTime::ZERO)));
        }
        assert_eq!(c.custody_block(NodeId(2)), Some((1, images[2].as_slice())));
        let completed = Note::RebuildCompleted {
            victim: NodeId(2),
            epoch: 1,
            digest: block_digest(&images[2]),
        };
        assert!(rebuilt.contains(&completed), "{rebuilt:?}");

        let served = |c: &mut NodeCore| {
            let out = c.on_message(CTL, Msg::DigestReq { node: NodeId(2) }, SimTime::ZERO);
            match &out[..] {
                [Action::Send {
                    msg:
                        Msg::DigestResp {
                            digest,
                            source: DigestSource::Custody,
                            ..
                        },
                    ..
                }] => *digest,
                other => panic!("expected a custody digest, got {other:?}"),
            }
        };
        assert_eq!(served(&mut c), block_digest(&images[2]));
        // Hashed per request, as a node's own block is: the answer is of
        // the bytes held now.
        c.custody.get_mut(&NodeId(2)).expect("in custody").1.fill(0);
        assert_eq!(served(&mut c), block_digest(&[0; 64]));
    }

    #[test]
    fn hello_handshake_establishes_sessions_both_ways() {
        let s = spec();
        let mut a = NodeCore::new(NodeId(0), s.clone(), 1);
        let mut b = NodeCore::new(NodeId(1), s, 1);
        let now = SimTime::ZERO;
        let out = b.on_message(NodeId(0), a.hello(), now);
        let welcome = out
            .iter()
            .find_map(|act| match act {
                Action::Send { to, msg } if *to == NodeId(0) => Some(msg.clone()),
                _ => None,
            })
            .expect("b must welcome a");
        assert!(b.has_session(NodeId(0)));
        a.on_message(NodeId(1), welcome, now);
        assert!(a.has_session(NodeId(1)));
    }

    #[test]
    fn fenced_hello_is_rejected_with_required_epoch() {
        let s = spec();
        let mut b = NodeCore::new(NodeId(1), s.clone(), 1);
        // b learns node0 was fenced at epoch 2.
        b.on_message(
            NodeId(2),
            Msg::Fence {
                node: NodeId(0),
                epoch: 2,
            },
            SimTime::ZERO,
        );
        let a = NodeCore::new(NodeId(0), s, 1);
        let out = b.on_message(NodeId(0), a.hello(), SimTime::ZERO);
        match &out[0] {
            Action::Send {
                msg: Msg::Rejected { required_epoch, .. },
                ..
            } => assert_eq!(*required_epoch, 2),
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(!b.has_session(NodeId(0)));
    }

    #[test]
    fn stale_payload_is_dropped_with_note() {
        let s = spec();
        let mut p = NodeCore::new(NodeId(3), s, 1); // parity node
        p.on_message(
            NodeId(1),
            Msg::Fence {
                node: NodeId(0),
                epoch: 1,
            },
            SimTime::ZERO,
        );
        let out = p.on_message(
            NodeId(0),
            Msg::Payload {
                epoch: 1,
                source: NodeId(0),
                fence_epoch: 0,
                data: vec![0; 64],
            },
            SimTime::ZERO,
        );
        assert!(out.iter().any(|a| matches!(
            a,
            Action::Note(Note::StaleRejected { from, .. }) if *from == NodeId(0)
        )));
    }

    #[test]
    fn status_and_digest_roundtrip() {
        let s = spec();
        let mut n = NodeCore::new(NodeId(0), s, 1);
        let out = n.on_message(CTL, Msg::StatusReq, SimTime::ZERO);
        assert!(matches!(
            &out[0],
            Action::Send { to, msg: Msg::StatusResp(v) }
                if *to == CTL && v.node == NodeId(0) && v.committed_epoch == 0
        ));
        let out = n.on_message(CTL, Msg::DigestReq { node: NodeId(0) }, SimTime::ZERO);
        assert!(matches!(
            &out[0],
            Action::Send {
                msg: Msg::DigestResp {
                    source: DigestSource::Missing,
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn checkpoint_req_without_peers_fails_typed() {
        let s = spec();
        let mut n = NodeCore::new(NodeId(0), s, 1);
        let out = n.on_message(CTL, Msg::CheckpointReq, SimTime::ZERO);
        let reason = out
            .iter()
            .find_map(|a| match a {
                Action::Send {
                    msg: Msg::CheckpointFailed { reason },
                    ..
                } => Some(reason.clone()),
                _ => None,
            })
            .expect("must fail typed");
        assert!(reason.contains("down"), "got: {reason}");
    }

    #[test]
    fn fnv64_is_stable() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"a"), fnv64(b"b"));
    }

    #[test]
    fn block_digest_is_the_one_digest_for_bytes() {
        assert_eq!(block_digest(b""), 0xEF46_DB37_51D8_E999);
        for block in [&b"a"[..], &initial_image(7, NodeId(1), 4099)] {
            assert_eq!(block_digest(block), dvdc_simcore::rng::xxh64(block));
            assert_eq!(
                block_digest(block),
                dvdc_checkpoint::integrity::checksum(block)
            );
            assert_ne!(block_digest(block), fnv64(block));
        }
    }
}
