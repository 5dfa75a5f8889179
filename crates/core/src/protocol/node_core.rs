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
//! [`FenceRegistry::advance_to`]), and parity by the [`ReedSolomon`] code
//! the sim protocols use.
//!
//! # Two layers
//!
//! [`NodeCore`] is the process: its sessions, the boots it has met, its
//! detector and its fence registry replica (the `Members` view), its
//! timers and its resync client. Beneath it a `GroupCore` is its slot of
//! the erasure group, whose role — data, or parity row `j` — is fixed when
//! it is built: the code, one map of the committed blocks it holds (its
//! own and its custody blocks), the live image, both round records, the
//! rebuild and the parked parts. The group reads membership through the
//! borrowed view and changes none of it; the node hands it verdicts,
//! fences and readmissions.
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
//!   mid-round fault window), ships it to the holder of parity row 0 and
//!   its term of row `j` (`c_{j,i}·image`, made in the window) to the
//!   holder of row `j ≥ 1`, and `CaptureAck`s; at the same instant the
//!   coordinator ships the custody blocks of members that are out the
//!   same way; holders XOR each part into their shard as it arrives and
//!   `FoldAck` on the `k`-th block; the
//!   coordinator broadcasts `Commit`; everyone promotes staged state and
//!   `CommitAck`s, and the last `CommitAck` closes the round. A data
//!   node's guest writes its next image once the next round opens, in the
//!   capture window, not before its `CommitAck`.
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

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dvdc_faults::detector::{DetectorConfig, FailureDetector, Verdict};
use dvdc_observe::metrics::EventMetrics;
use dvdc_observe::registry::{nanos_between, Counter, HistogramHandle, MetricsHub};
use dvdc_observe::spans::OPEN_SPAN_CAP;
use dvdc_observe::{Event, MetricsSnapshot, TimedEvent};
use dvdc_parity::rs::{ReedSolomon, MAX_SHARDS};
use dvdc_simcore::rng::{splitmix64, SPLITMIX_GAMMA};
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::FenceRegistry;

use super::block::{Block, Page};
use super::group_core::GroupCore;

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

/// The last part of a block in a rebuild answer ([`Msg::FetchBlocks`]):
/// bytes of the committed state of slot `holder` at `epoch`. Every other
/// part travels in a [`Msg::FetchPart`] with these fields and a page.
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
        /// The part's [`PART_LEN`] bytes: a page of the sender's block,
        /// shared with it, not copied.
        data: Page,
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
    /// [`Msg::FetchBlocks`]. Its fields after `offset` are a
    /// [`BlockInfo`]'s, in its order, on the wire too.
    FetchPart {
        /// The responding node.
        node: NodeId,
        /// Sender's fence epoch — stale responders are dropped.
        fence_epoch: u64,
        /// Where in the block the part begins, a multiple of [`PART_LEN`].
        offset: u64,
        /// The slot whose block the part is of (see [`BlockInfo::holder`]).
        holder: NodeId,
        /// Data image or parity shard.
        kind: BlockKind,
        /// The committed epoch the block belongs to.
        epoch: u64,
        /// The part's [`PART_LEN`] bytes: a page of the sender's committed
        /// block, shared with it, not copied.
        data: Page,
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
        /// node whose shard went stale; it re-folds next round), shared
        /// with the custody it is served from, and whole on the wire.
        image: Option<Block>,
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
    /// A rebuild ended with nothing in custody and no loss. One begun on
    /// a suspicion ends so when the suspicion is refuted (`Refuted`), when
    /// this node stops coordinating before the verdict (`CoordinatorLost`),
    /// when its decode comes up short (`Decode`) and when its block is of
    /// an epoch no longer committed at the verdict (`Stale`); any rebuild
    /// ends so when this node is fenced (`Fenced`).
    RebuildAborted {
        /// The node whose rebuild ended.
        victim: NodeId,
        /// Why it ended.
        phase: &'static str,
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
    /// A rebuild pipeline crossed into a named phase: `Fetch`, `Decode`,
    /// and for one begun on a suspicion, `Verdict` while its block waits
    /// for the verdict.
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
        Note::RebuildAborted { victim, phase } => Event::RebuildAborted {
            victim: victim.0,
            phase,
        },
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
                let window = SimTime::from_secs(*window_secs);
                self.capture_window
                    .record(nanos_between(SimTime::ZERO, window));
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
    /// Number of parity nodes `m` (ids `k..k+m`). Every `m` runs one
    /// Reed–Solomon code, which at `m == 1` is the paper's XOR parity.
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
    /// mid-round window fault-injection (and SIGKILL tests) aim at. A
    /// data node's stand-in guest writes its next image at the start of
    /// the window, so the capture ships what it wrote.
    pub capture_delay: Duration,
}

impl ClusterSpec {
    /// Total member count `k + m`.
    pub fn total(&self) -> usize {
        self.data_nodes + self.parity_nodes
    }

    /// True if `node` is one of the `k` data slots.
    pub(super) fn is_data(&self, node: NodeId) -> bool {
        node.index() < self.data_nodes
    }

    /// True if `node` is one of the `m` parity slots.
    pub(super) fn is_parity(&self, node: NodeId) -> bool {
        node.index() >= self.data_nodes && node.index() < self.total()
    }

    /// What member `node`'s block is: an image, or a parity shard.
    pub(super) fn kind_of(&self, node: NodeId) -> BlockKind {
        match self.is_data(node) {
            true => BlockKind::Data,
            false => BlockKind::Parity,
        }
    }

    /// How many parts a block travels as.
    pub(super) fn parts(&self) -> usize {
        self.image_len.div_ceil(PART_LEN)
    }

    /// Which part of a block `len` bytes at `offset` are — with no
    /// offset, the last `len` bytes — or why they are none: a part starts
    /// at a multiple of [`PART_LEN`] inside the block and runs to the
    /// next one or to the block's end.
    pub(super) fn part(&self, offset: Option<u64>, len: usize) -> Result<usize, String> {
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

    /// Instantiates the group's erasure code: Reed–Solomon over `k` data
    /// and `m` parity nodes, whose first parity block is the XOR of the
    /// data (at `m == 1`, the paper's RAID parity).
    pub fn code(&self) -> ReedSolomon {
        ReedSolomon::new(self.data_nodes, self.parity_nodes)
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
    /// A small LAN-profile group: 4+1 (XOR parity), 4 KiB images, generous
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

/// A block is held in pages of this many bytes ([`Block`]) and travels as
/// parts of the same, one page each, each its own message, applied part
/// by part where it lands, so no receiver holds a block it has not
/// applied: part *i* covers `[i·PART_LEN, min((i+1)·PART_LEN,
/// image_len))`.
pub const PART_LEN: usize = 256 << 10;

/// Writes `src ^ stream` into `dst` (as long as `src`), where `stream` is
/// the reference SplitMix64 stream from state `seed`: word `n` is
/// `splitmix64(seed + n·γ)`, little-endian, cut short at the tail. With no
/// `src` the stream is XORed into `dst` in place; over zeros that stores
/// it. No word waits on the one before, so the multiplies pipeline.
pub(super) fn xor_pseudo(seed: u64, src: Option<&[u8]>, dst: &mut [u8]) {
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
    xor_pseudo(initial_seed(cluster_id, node), None, &mut img);
    img
}

/// [`initial_image`] written straight into pages, with no image-sized
/// buffer in between.
pub(super) fn initial_block(cluster_id: u64, node: NodeId, len: usize) -> Block {
    let seed = initial_seed(cluster_id, node);
    Block::recycle(None, len, |i, page| {
        page.fill(0);
        xor_pseudo(page_seed(seed, i), None, page);
    })
}

/// The state of the stream [`initial_image`] stores.
fn initial_seed(cluster_id: u64, node: NodeId) -> u64 {
    splitmix64(cluster_id).wrapping_add(node.index() as u64)
}

/// The state of the stream `node`'s guest writes its next image with
/// after committing `epoch`: the image XOR the stream is the next one, the
/// stand-in for guest dirty-page traffic between rounds.
pub(super) fn churn_seed(cluster_id: u64, node: NodeId, epoch: u64) -> u64 {
    splitmix64(cluster_id ^ epoch.wrapping_mul(SPLITMIX_GAMMA)).wrapping_add(node.index() as u64)
}

/// The state the stream from `seed` is at where page `page` of a block
/// begins: [`xor_pseudo`] from it over each page in turn is `xor_pseudo`
/// from `seed` over the whole block, since a page is a whole number of
/// words.
pub(super) fn page_seed(seed: u64, page: usize) -> u64 {
    const WORDS: u64 = (PART_LEN / 8) as u64;
    seed.wrapping_add((page as u64 * WORDS).wrapping_mul(SPLITMIX_GAMMA))
}

/// Who is in the group as one node sees it — its sessions, its detector's
/// verdicts, its fence registry replica — and whether a gap in its own
/// running has left it unsure of its own standing (see [`NodeCore::ran`]).
/// The node layer keeps and changes it; a [`GroupCore`] reads it, borrowed,
/// to address the coordinator and its live peers and to judge a sender.
pub(super) struct Members {
    pub id: NodeId,
    pub spec: ClusterSpec,
    /// Peers with an established session (either handshake direction).
    pub sessions: BTreeSet<NodeId>,
    pub detector: FailureDetector,
    pub fences: FenceRegistry,
    pub unsure: bool,
}

impl Members {
    /// The lowest member that is neither fenced nor confirmed dead, among
    /// this node and its established sessions.
    pub fn coordinator(&self) -> NodeId {
        let lowest = self.sessions.iter().copied().find(|p| self.is_live(p));
        lowest
            .filter(|p| p.index() < self.id.index())
            .unwrap_or(self.id)
    }

    pub fn is_acting_coordinator(&self) -> bool {
        !self.unsure && self.coordinator() == self.id
    }

    /// Peers (excluding self) that are established, unfenced, and not
    /// confirmed dead.
    pub fn live_peers(&self) -> Vec<NodeId> {
        self.sessions
            .iter()
            .copied()
            .filter(|p| self.is_live(p))
            .collect()
    }

    fn is_live(&self, p: &NodeId) -> bool {
        !self.fences.is_fenced(*p) && !self.detector.is_confirmed(p.index())
    }

    /// Whom a fence or a readmission is announced to: every other member
    /// not fenced itself, session or not — one that is rejoining must not
    /// miss it.
    pub fn members_in(&self) -> Vec<NodeId> {
        let members = (0..self.spec.total()).map(NodeId);
        let is_in = |p: &NodeId| *p != self.id && !self.fences.is_fenced(*p);
        members.filter(is_in).collect()
    }

    /// Epoch-fenced data plane: what a member sends as a fenced (pre-fence)
    /// node is dropped with this note, and never lands.
    pub fn stale(&self, from: NodeId, fence_epoch: u64) -> Option<Action> {
        let required = self.fences.epoch_of(from);
        let stale = self.fences.is_fenced(from) || fence_epoch < required;
        (stale && from.index() < self.spec.total()).then_some(Action::Note(Note::StaleRejected {
            from,
            held_epoch: fence_epoch,
            current_epoch: required,
        }))
    }

    /// The refusal a fenced `node` is answered with.
    pub fn rejection(&self, node: NodeId) -> Action {
        Action::Send {
            to: node,
            msg: Msg::Rejected {
                node,
                required_epoch: self.fences.epoch_of(node),
                coordinator: self.coordinator(),
            },
        }
    }
}

/// Victim-side bookkeeping of a resync in flight.
#[derive(Debug, Clone)]
struct ResyncClient {
    coordinator: NodeId,
    next_retry: SimTime,
}

/// One node's replica of the distributed DVDC protocol: the process layer
/// over its group's `GroupCore`. See the module docs for the protocol
/// itself; see `on_message` / `on_tick` for the driving contract.
pub struct NodeCore {
    incarnation: u64,
    members: Members,
    group: GroupCore,
    /// The boot of each peer a session was last opened with. It outlives
    /// the session: a greeting from another boot means the one this node
    /// knew is gone, however long ago its session was dropped.
    boots: BTreeMap<NodeId, u64>,
    resync: Option<ResyncClient>,
    next_heartbeat: SimTime,
    next_hello: SimTime,
    /// When this node last ran (see [`NodeCore::ran`]).
    last_ran: SimTime,
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
        NodeCore {
            incarnation,
            group: GroupCore::new(id, &spec),
            members: Members {
                id,
                detector: FailureDetector::new(spec.detector, [], SimTime::ZERO),
                fences: FenceRegistry::new(),
                sessions: BTreeSet::new(),
                unsure: false,
                spec,
            },
            boots: BTreeMap::new(),
            resync: None,
            next_heartbeat: SimTime::ZERO,
            next_hello: SimTime::ZERO,
            last_ran: SimTime::ZERO,
        }
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.members.id
    }

    /// The cluster spec this node was built with.
    pub fn spec(&self) -> &ClusterSpec {
        &self.members.spec
    }

    /// Last committed epoch and block (image or parity shard), if any.
    pub fn committed(&self) -> Option<(u64, &Block)> {
        self.group.block(self.members.id)
    }

    /// The custody block held for `node`, if any.
    pub fn custody_block(&self, node: NodeId) -> Option<(u64, &Block)> {
        self.group.block(node).filter(|_| node != self.members.id)
    }

    /// True if a session with `peer` is established.
    pub fn has_session(&self, peer: NodeId) -> bool {
        self.members.sessions.contains(&peer)
    }

    /// True if a rebuild ever ended in typed data loss here.
    pub fn saw_data_loss(&self) -> bool {
        self.group.data_loss
    }

    /// The node this replica currently believes coordinates: the lowest
    /// member that is neither fenced nor confirmed dead, among itself and
    /// its established sessions.
    pub fn coordinator(&self) -> NodeId {
        self.members.coordinator()
    }

    /// Every entry point passes through here. A gap in this node's own
    /// running longer than the detector's timeout means it was frozen for
    /// long enough to have been given up on and fenced: until a peer it
    /// greets welcomes it, it decides nothing as coordinator — it fences,
    /// serves and readmits nobody. One that was fenced is rejected instead.
    fn ran(&mut self, now: SimTime, out: &mut Vec<Action>) {
        let frozen = now > self.last_ran + self.members.spec.detector.timeout;
        self.last_ran = self.last_ran.max(now);
        if frozen && !self.members.sessions.is_empty() {
            self.members.unsure = true;
            for &p in &self.members.sessions {
                out.push(Action::Send {
                    to: p,
                    msg: self.hello(),
                });
            }
        }
    }

    /// The handshake this node opens sessions with; the driver sends it
    /// on every fresh connection (and [`NodeCore::on_tick`] re-sends it
    /// periodically to sessionless peers).
    pub fn hello(&self) -> Msg {
        let m = &self.members;
        Msg::Hello {
            node: m.id,
            cluster_id: m.spec.cluster_id,
            fence_epoch: m.fences.epoch_of(m.id),
            incarnation: self.incarnation,
        }
    }

    /// The control-plane snapshot.
    pub fn status(&self) -> StatusView {
        let (m, detector) = (&self.members, &self.members.detector);
        let judged = |verdict: fn(&FailureDetector, usize) -> bool| {
            let judged = detector.monitored().filter(|&n| verdict(detector, n));
            judged.map(NodeId).collect()
        };
        StatusView {
            node: m.id,
            coordinator: m.coordinator(),
            committed_epoch: self.group.committed_epoch(),
            fence_epoch: m.fences.epoch_of(m.id),
            peers_established: m.sessions.iter().copied().collect(),
            suspected: judged(FailureDetector::is_suspected),
            confirmed: judged(FailureDetector::is_confirmed),
            custody: self
                .group
                .held
                .keys()
                .copied()
                .filter(|n| *n != m.id)
                .collect(),
            rounds_committed: self.group.rounds_committed,
            data_loss: self.group.data_loss,
        }
    }

    /// The earliest instant [`on_tick`](Self::on_tick) has work to do: the
    /// minimum of the timers it checks, each fired there at `now >=` the
    /// instant returned here, so a tick at the deadline always moves it
    /// later. A rebuild backlog is due at once, and so is a guest write
    /// owed while a round is open. Drivers sleep until then or the next
    /// message.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let timers = [
            Some(self.next_heartbeat),
            Some(self.next_hello),
            self.group.next_deadline(&self.members),
            self.resync.as_ref().map(|rs| rs.next_retry),
        ];
        let detector = &self.members.detector;
        let polls = detector
            .monitored()
            .filter_map(|n| detector.next_deadline(n));
        timers.into_iter().flatten().chain(polls).min()
    }

    /// Drives time-based behaviour: heartbeat sends, detector deadlines,
    /// the guest's owed write, deferred captures, round/rebuild timeouts,
    /// handshake retries.
    /// Call with a monotone `now`, no later than
    /// [`next_deadline`](Self::next_deadline).
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.ran(now, &mut out);
        let interval = self.members.spec.detector.heartbeat_interval;
        let id = self.members.id;

        // Heartbeats to every established peer.
        if now >= self.next_heartbeat {
            for &p in &self.members.sessions {
                out.push(Action::Send {
                    to: p,
                    msg: Msg::Heartbeat { node: id },
                });
            }
            self.next_heartbeat = now + interval;
        }

        // Handshake (re)tries to sessionless members — covers initial
        // join, reconnects, and the post-readmit re-join. Fenced members
        // are skipped: a restarted (diskless, fence-ignorant) instance
        // would happily answer our Hello with a Welcome and short-circuit
        // its own Hello → Rejected → resync path. The fenced node must
        // dial us, get rejected, and resync before any session forms. A
        // node waiting for its own resync greets nobody: it is no member.
        if now >= self.next_hello {
            let members = self.members.members_in().into_iter();
            for p in members.filter(|p| self.resync.is_none() && !self.has_session(*p)) {
                out.push(Action::Send {
                    to: p,
                    msg: self.hello(),
                });
            }
            self.next_hello = now + interval * 5.0;
        }

        // Detector deadlines.
        let monitored: Vec<usize> = self.members.detector.monitored().collect();
        for n in monitored {
            let evidence = self.members.detector.has_evidence(n);
            if let Some(verdict) = self.members.detector.poll(n, now) {
                self.note_verdict((NodeId(n), verdict, evidence), now, &mut out);
            }
        }

        self.group.on_tick(&self.members, now, &mut out);

        // Each pass leaves a rebuild in flight or the victim settled (in
        // custody or lost), so the backlog is empty when the tick ends.
        while let Some(victim) = self.group.rebuild_backlog(&self.members) {
            self.fence_and_rebuild(victim, now, &mut out);
        }

        // Resync retry.
        if let Some(rs) = self.resync.as_mut().filter(|rs| now >= rs.next_retry) {
            out.push(Action::Send {
                to: rs.coordinator,
                msg: Msg::ResyncReq { node: id },
            });
            rs.next_retry = now + interval * 10.0;
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
        self.group.withdraw_speculation(&self.members, &mut out);
        self.deliver_own(&mut out, now);
        self.group.serve_deferred_resyncs(&self.members, &mut out);
        self.deliver_own(&mut out, now);
        out
    }

    /// Takes each send `out` addresses to this node out of it and handles
    /// it at `now`, in the order sent — what that sends comes after
    /// everything already in `out` — until none is left.
    fn deliver_own(&mut self, out: &mut Vec<Action>, now: SimTime) {
        let mut at = 0;
        while let Some(action) = out.get(at) {
            if !matches!(action, Action::Send { to, .. } if *to == self.members.id) {
                at += 1;
            } else if let Action::Send { msg, .. } = out.remove(at) {
                let sent = self.handle(self.members.id, msg, now);
                out.extend(sent);
            }
        }
    }

    fn handle(&mut self, from: NodeId, msg: Msg, now: SimTime) -> Vec<Action> {
        let mut out = Vec::new();
        self.ran(now, &mut out);
        let id = self.members.id;
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
        if from != CTL && self.members.fences.is_fenced(from) && !judged_below {
            if matches!(msg, Msg::Heartbeat { .. }) {
                out.push(self.members.rejection(from));
            }
            return out;
        }
        // And one that knows it is out hears nothing but its way back in:
        // what it must know of the others it is told on readmission.
        let way_back = match &msg {
            Msg::Rejected { .. } | Msg::ResyncState { .. } => true,
            Msg::Readmit { node, .. } => *node == id,
            _ => from == CTL,
        };
        if self.resync.is_some() && !way_back {
            return out;
        }
        let (m, group) = (&self.members, &mut self.group);
        match msg {
            Msg::Hello {
                node,
                cluster_id,
                fence_epoch,
                incarnation,
            } => {
                if cluster_id != m.spec.cluster_id || node.index() >= m.spec.total() {
                    return out;
                }
                // Only a resync hands a fenced node the epoch it was fenced
                // at: its readmission has passed us by.
                if m.fences.is_fenced(node) && fence_epoch >= m.fences.epoch_of(node) {
                    self.readmitted(node, fence_epoch, now, &mut out);
                }
                self.retire_earlier_boot(node, incarnation, now, &mut out);
                let fences = &self.members.fences;
                if fences.is_fenced(node) || fence_epoch < fences.epoch_of(node) {
                    out.push(self.members.rejection(node));
                    return out;
                }
                self.open_session(node, (incarnation, fence_epoch), now, &mut out);
                out.push(Action::Send {
                    to: node,
                    msg: Msg::Welcome {
                        node: id,
                        fence_epoch: self.members.fences.epoch_of(id),
                        incarnation: self.incarnation,
                    },
                });
            }
            Msg::Welcome {
                node,
                fence_epoch,
                incarnation,
            } => {
                if node.index() >= m.spec.total() {
                    return out;
                }
                self.members.unsure = false;
                self.retire_earlier_boot(node, incarnation, now, &mut out);
                // A Welcome from a node we currently hold fenced cannot
                // open a session: the sender is a restarted instance that
                // has not resynced yet (or the message raced the fence).
                // Ignoring it forces the peer through Hello → Rejected.
                if !self.members.fences.is_fenced(node) {
                    self.open_session(node, (incarnation, fence_epoch), now, &mut out);
                }
            }
            Msg::Rejected {
                node,
                required_epoch,
                coordinator,
            } => {
                if node != id {
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
                    None if required_epoch > m.fences.epoch_of(id) => {
                        self.stand_down(coordinator, now, &mut out)
                    }
                    Some(asking) if asking.coordinator != coordinator => {
                        asking.coordinator = coordinator;
                        out.push(Action::Send {
                            to: coordinator,
                            msg: Msg::ResyncReq { node: id },
                        });
                    }
                    _ => {}
                }
            }
            Msg::Heartbeat { node } => {
                if let Some(verdict) = self.members.detector.heartbeat(node.index(), now) {
                    self.note_verdict((node, verdict, false), now, &mut out);
                }
            }
            Msg::RoundBegin {
                epoch,
                sources,
                holders,
            } => group.on_round_begin(m, (epoch, sources, holders), now, &mut out),
            Msg::Payload {
                epoch,
                source,
                fence_epoch,
                data,
            } => {
                let part = (epoch, source, fence_epoch, None);
                group.on_part(m, from, part, Arc::new(data), &mut out)
            }
            Msg::PayloadPart {
                epoch,
                source,
                fence_epoch,
                offset,
                data,
            } => {
                let part = (epoch, source, fence_epoch, Some(offset));
                group.on_part(m, from, part, data, &mut out)
            }
            Msg::CaptureAck { epoch, node } | Msg::FoldAck { epoch, node } => {
                group.on_ack(epoch, node, false, &mut out)
            }
            Msg::Commit { epoch } => group.on_commit(m, epoch, &mut out),
            Msg::CommitAck { epoch, node } => group.on_ack(epoch, node, true, &mut out),
            Msg::AbortRound { epoch, reason } => group.on_abort(epoch, reason, &mut out),
            Msg::Fence { node, epoch } => {
                // The fence is the coordinator's verdict and stands here as
                // one: whoever coordinates next owes the node a rebuild.
                let m = &mut self.members;
                let news = !m.fences.is_fenced(node) || epoch > m.fences.epoch_of(node);
                m.fences.advance_to(node, epoch);
                m.detector.condemn(node.index(), now);
                m.sessions.remove(&node);
                if news {
                    out.push(Action::Note(Note::Fenced { node, epoch }));
                }
            }
            Msg::FetchReq { victim } => group.answer_fetch(m, from, victim, &mut out),
            Msg::FetchPart {
                node,
                fence_epoch,
                offset,
                holder,
                epoch,
                data,
                ..
            } => {
                let parts = [(Some(offset), (holder, epoch), &data[..])];
                group.on_fetched(m, (node, fence_epoch), parts, (false, now), &mut out)
            }
            Msg::FetchBlocks {
                node,
                fence_epoch,
                blocks,
            } => {
                let last = (blocks.iter()).map(|b| (None, (b.holder, b.epoch), &b.data[..]));
                group.on_fetched(m, (node, fence_epoch), last, (true, now), &mut out)
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
                let Some(asking) = self.resync.as_mut().filter(|_| node == id) else {
                    return out;
                };
                asking.next_retry = now + m.spec.detector.heartbeat_interval * 10.0;
                // Adopt the post-fence epoch and the rebuilt state.
                self.members.fences.readmit_at(id, fence_epoch);
                self.group.adopt(&self.members, committed_epoch, image);
                // Sessions re-open when the members greet us, which each
                // does as it learns of the readmission, after we have.
                out.push(Action::Send {
                    to: from,
                    msg: Msg::ResyncDone {
                        node: id,
                        fence_epoch,
                    },
                });
            }
            Msg::ResyncDone { node, fence_epoch } => {
                let current = m.fences.is_fenced(node) && fence_epoch == m.fences.epoch_of(node);
                if !m.is_acting_coordinator() || !current {
                    return out;
                }
                // A round open now was composed with custody standing in
                // for `node`, and who coordinates may be about to change.
                group.abort_round(m, format!("{node} readmitted mid-round"), &mut out);
                let rollback_epoch = group.committed_epoch();
                self.readmitted(node, fence_epoch, now, &mut out);
                for p in self.members.members_in() {
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
                let fences = &self.members.fences;
                let members = (0..self.members.spec.total()).map(NodeId);
                for out_too in members.filter(|n| fences.is_fenced(*n)) {
                    let epoch = fences.epoch_of(out_too);
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
                if node != id && !self.members.sessions.contains(&node) {
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
            // A refusal answers the request it refuses, and leaves whoever
            // waits on an open round waiting for it: the round answers the
            // request that opened it when it ends.
            Msg::CheckpointReq => {
                if let Err(reason) = group.try_start_round(m, now, &mut out) {
                    let msg = Msg::CheckpointFailed { reason };
                    out.push(Action::Send { to: CTL, msg });
                }
            }
            Msg::DigestReq { node } => {
                let (epoch, digest, source) = match group.block(node) {
                    Some((e, b)) if node == id => (e, b.digest(), DigestSource::Committed),
                    Some((e, b)) => (e, b.digest(), DigestSource::Custody),
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

    /// `node` is back in at fence epoch `epoch`: whatever this node held or was
    /// decoding for it is moot, and the group resumes from the committed
    /// round (the paper's cluster rollback).
    fn readmitted(&mut self, node: NodeId, epoch: u64, now: SimTime, out: &mut Vec<Action>) {
        self.members.fences.readmit_at(node, epoch);
        self.boots.remove(&node);
        if node == self.members.id {
            self.resync = None;
        } else {
            self.members.detector.admit(node.index(), now);
        }
        self.group.readmitted(node);
        out.push(Action::Note(Note::Readmitted { node, epoch }));
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
        let known = self.boots.get(&peer);
        if known.is_none_or(|known| *known == incarnation) {
            return;
        }
        if self.members.sessions.contains(&peer) {
            let detector = &mut self.members.detector;
            let suspected = detector.suspect_now(peer.index(), now);
            let confirmed = detector.confirm_now(peer.index(), now);
            for verdict in [suspected, confirmed].into_iter().flatten() {
                self.note_verdict((peer, verdict, true), now, out);
            }
        }
        if !self.members.fences.is_fenced(peer) {
            self.members.detector.condemn(peer.index(), now);
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
        self.members.detector.admit(peer.index(), now);
        self.members.fences.readmit_at(peer, fence_epoch);
        self.boots.insert(peer, incarnation);
        if self.members.sessions.insert(peer) {
            out.push(Action::Note(Note::SessionEstablished { peer }));
        }
    }

    /// This node has been fenced: what it holds is stale and what it was
    /// doing is void, exactly as if its process had restarted — except
    /// that it knows whom to ask for its state back.
    fn stand_down(&mut self, coordinator: NodeId, now: SimTime, out: &mut Vec<Action>) {
        self.group.stand_down(&self.members, out);
        let (id, spec) = (self.members.id, self.members.spec.clone());
        *self = NodeCore::new(id, spec, self.incarnation);
        self.resync = Some(ResyncClient {
            coordinator,
            next_retry: now + self.members.spec.detector.heartbeat_interval * 10.0,
        });
        out.push(Action::Send {
            to: coordinator,
            msg: Msg::ResyncReq { node: id },
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
        // Like a tick, it leaves nothing due at once.
        self.group.guest_writes(&self.members);
        if self.members.sessions.contains(&peer) {
            if let Some(verdict) = self.members.detector.suspect_now(peer.index(), now) {
                self.note_verdict((peer, verdict, true), now, &mut out);
            }
        }
        self.settle(out, now)
    }

    /// Emits a verdict note and hands the verdict to the group. On
    /// confirmation the node drops the victim's session, and the acting
    /// coordinator fences it and has its block rebuilt.
    fn note_verdict(
        &mut self,
        judged: (NodeId, Verdict, bool),
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let (node, verdict, evidence) = judged;
        out.push(Action::Note(Note::PeerVerdict {
            node,
            verdict,
            evidence,
        }));
        let confirmed = verdict == Verdict::Confirmed;
        if confirmed {
            let m = &mut self.members;
            m.sessions.remove(&node);
            // Frozen, and now nobody is left to vouch for this node or object.
            m.unsure &= !m.sessions.is_empty();
        }
        self.group.on_verdict(&self.members, judged, now, out);
        // Only the acting coordinator (recomputed *after* excluding the
        // victim) fences and rebuilds; everyone else waits for the
        // broadcast so exactly one epoch bump wins.
        if confirmed && self.members.is_acting_coordinator() {
            self.fence_and_rebuild(node, now, out);
        }
    }

    /// The acting coordinator's answer to a death it holds confirmed:
    /// fence every such node nobody has fenced — this one, and any whose
    /// death is why coordination fell to us — telling every member in, and
    /// rebuild what `node` held.
    fn fence_and_rebuild(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Action>) {
        let m = &self.members;
        let members = (0..m.spec.total()).map(NodeId);
        let unfenced = |n: &NodeId| m.detector.is_confirmed(n.index()) && !m.fences.is_fenced(*n);
        for dead in members.filter(unfenced).collect::<Vec<_>>() {
            self.raise_fence(dead, out);
        }
        self.group.on_fenced(&self.members, node, now, out);
    }

    /// Fences `node` and tells every member in.
    fn raise_fence(&mut self, node: NodeId, out: &mut Vec<Action>) {
        self.members.fences.fence(node);
        let epoch = self.members.fences.epoch_of(node);
        out.push(Action::Note(Note::Fenced { node, epoch }));
        for p in self.members.members_in() {
            out.push(Action::Send {
                to: p,
                msg: Msg::Fence { node, epoch },
            });
        }
    }

    fn on_resync_req(&mut self, node: NodeId, now: SimTime, out: &mut Vec<Action>) {
        // Coordination has moved since the node was told whom to ask.
        if !self.members.is_acting_coordinator() {
            out.push(self.members.rejection(node));
            return;
        }
        // Fenced by a coordinator whose word was lost with it: the node is
        // out on its own word, and owed the rebuild that settles it.
        if !self.members.fences.is_fenced(node) {
            self.members.detector.condemn(node.index(), now);
            self.raise_fence(node, out);
            self.group.fenced_on_request(node);
            return;
        }
        self.group.serve_resync(&self.members, node, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_parity::code::ErasureCode;

    /// A held block as its epoch and bytes.
    fn bytes(held: Option<(u64, &Block)>) -> Option<(u64, Vec<u8>)> {
        held.map(|(epoch, block)| (epoch, block.to_vec()))
    }

    /// Writes `node`'s guest stream after committing `epoch` over `image`.
    fn churn_image(cluster_id: u64, node: NodeId, epoch: u64, image: &mut [u8]) {
        xor_pseudo(churn_seed(cluster_id, node, epoch), None, image);
    }

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
        churn_image(7, NodeId(0), 1, &mut a);
        assert_ne!(a, orig);
        let mut b = orig.clone();
        churn_image(7, NodeId(0), 1, &mut b);
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
        // And page by page, each from the state its first word is at.
        let src = initial_image(7, NodeId(1), 2 * PART_LEN + 3);
        let mut whole = src.clone();
        xor_pseudo(0xDEAD_BEEF, None, &mut whole);
        let paged = Block::recycle(None, src.len(), |i, page| {
            let at = i * PART_LEN;
            let from = &src[at..at + page.len()];
            xor_pseudo(page_seed(0xDEAD_BEEF, i), Some(from), page)
        });
        assert_eq!(paged.to_vec(), whole);
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
        assert_eq!(bytes(p.committed()), Some((1, want)));
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

    /// Slot `source`'s term of parity row `j` over `image`,
    /// `c_{j,source}·image`: what a capture ships row `j`'s holder, made
    /// here rather than by the code under test.
    fn term(spec: &ClusterSpec, j: usize, source: usize, image: &[u8]) -> Vec<u8> {
        let mut term = vec![0; image.len()];
        spec.code().apply_delta(j, &mut term, source, 0, image);
        term
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
                    data: data.into(),
                },
            }
        };
        block.chunks(PART_LEN).enumerate().map(part).collect()
    }

    /// Survivor `node`'s answer to a `FetchReq`: slot `holder`'s `block` of
    /// `epoch` as `FetchPart`s, then the `FetchBlocks` that closes it.
    fn answer(node: usize, holder: usize, epoch: u64, block: &[u8]) -> Vec<Msg> {
        let (node, holder) = (NodeId(node), NodeId(holder));
        let kind = ragged(1).kind_of(holder);
        let mut chunks: Vec<&[u8]> = block.chunks(PART_LEN).collect();
        let last = chunks.pop().expect("a block has a last part");
        let mut msgs: Vec<Msg> = (chunks.into_iter().enumerate())
            .map(|(i, data)| Msg::FetchPart {
                node,
                fence_epoch: 0,
                offset: (i * PART_LEN) as u64,
                holder,
                kind,
                epoch,
                data: data.to_vec().into(),
            })
            .collect();
        let data = last.to_vec();
        msgs.push(Msg::FetchBlocks {
            node,
            fence_epoch: 0,
            blocks: vec![BlockInfo {
                holder,
                kind,
                epoch,
                data,
            }],
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
            for j in 0..m {
                // Each source's term of row j, as its capture ships it.
                let by_source: Vec<Vec<Msg>> = (0..4)
                    .map(|i| parts(1, i, &term(&s, j, i, &blocks[i])))
                    .collect();
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
                    let want = Some((1, blocks[4 + j].clone()));
                    assert_eq!(bytes(p.committed()), want, "{how}, holder {j} of 4+{m}");
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
                    let term = term(&s, j, i, block);
                    for (n, msg) in parts(1, i, &term).into_iter().enumerate() {
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
                let want = Some((1, blocks[4 + j].clone()));
                assert_eq!(bytes(p.committed()), want, "holder {j} of 4+{m}");
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
            assert_eq!(bytes(p.committed()), Some((1, blocks[4].clone())), "4+{m}");
            assert_eq!(p.group.early.keys().collect::<Vec<_>>(), [&NodeId(3)]);
        }
    }

    /// Node 0 of `spec`, meshed, with `own` committed at round 1 and the
    /// rebuild of `victim` begun on link evidence.
    fn rebuilding(spec: &ClusterSpec, own: &[u8], victim: usize) -> NodeCore {
        let mut c = meshed_in(spec, 0);
        c.group
            .held
            .insert(NodeId(0), (1, Block::from(own.to_vec())));
        refused_and_confirmed(&mut c, victim, SimTime::ZERO);
        c
    }

    #[test]
    fn a_slot_short_of_a_part_is_never_decoded_from() {
        for m in [1, 2] {
            let s = ragged(m);
            let blocks = group_blocks(&s);
            let mut c = rebuilding(&s, &blocks[0], 2);
            let mut asked = Vec::new();
            for node in [1, 3, 4, 5].into_iter().filter(|n| *n < s.total()) {
                for (n, msg) in answer(node, node, 1, &blocks[node]).into_iter().enumerate() {
                    // Slot 1's answer is short of its second part.
                    if (node, n) != (1, 1) {
                        asked = c.on_message(NodeId(node), msg, SimTime::ZERO);
                    }
                }
            }
            // The fold read slot 1: the slots read instead are fetched anew.
            for node in sent_to(&asked, is_fetch) {
                for msg in answer(node.index(), node.index(), 1, &blocks[node.index()]) {
                    c.on_message(node, msg, SimTime::ZERO);
                }
            }
            match m {
                // Slots 0, 3 and 4 are whole: fewer than k, typed loss.
                1 => assert!(c.saw_data_loss() && c.custody_block(NodeId(2)).is_none()),
                // Slots 0, 3, 4 and 5 decode byte-exact without the torn
                // slot 1, which the decode would take first.
                _ => assert_eq!(
                    bytes(c.custody_block(NodeId(2))),
                    Some((1, blocks[2].clone()))
                ),
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
                    data: data.into(),
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
        assert_eq!(bytes(p.committed()), Some((1, blocks[4].clone())));

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
                holder: part.holder,
                kind: part.kind,
                epoch: part.epoch,
                data: part.data.into(),
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
        assert_eq!(
            bytes(c.custody_block(NodeId(2))),
            Some((1, blocks[2].clone()))
        );
    }

    #[test]
    fn at_4_kib_a_block_travels_in_the_one_message_it_always_did() {
        // A data member ships its image, and answers a rebuild, in one
        // message as version 3 did: one `PayloadPart` at offset 0 sharing
        // the whole image, one `FetchBlocks` of the whole committed block.
        let s = ClusterSpec {
            data_nodes: 4,
            parity_nodes: 1,
            image_len: 4096,
            ..spec()
        };
        let mut n = meshed_in(&s, 1);
        let image = n
            .group
            .live
            .as_ref()
            .expect("a data member's image")
            .to_vec();
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
        let payload = Msg::PayloadPart {
            epoch: 1,
            source: NodeId(1),
            fence_epoch: 0,
            offset: 0,
            data: image.clone().into(),
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
                c.group
                    .held
                    .insert(NodeId(0), (1, Block::from(blocks[0].clone())));
                // With two parity blocks the coordinator holds slot 1 too.
                let survivors = match m {
                    1 => vec![1, 3, 4],
                    _ => {
                        let fence = Msg::Fence {
                            node: NodeId(1),
                            epoch: 1,
                        };
                        c.on_message(NodeId(3), fence, SimTime::ZERO);
                        c.group
                            .held
                            .insert(NodeId(1), (1, Block::from(blocks[1].clone())));
                        vec![3, 4, 5]
                    }
                };
                let before = c.group.held.clone();
                refused_and_confirmed(&mut c, 2, SimTime::ZERO);
                for node in survivors {
                    for msg in answer(node, node, answered_epoch, &blocks[node]) {
                        c.on_message(NodeId(node), msg, SimTime::ZERO);
                    }
                }
                // Answers of round 2 leave round 1 with only what the
                // coordinator holds: typed loss. Either way its own blocks
                // are as they were.
                let rebuilt = c.group.held.remove(&NodeId(2));
                match answered_epoch {
                    1 => assert_eq!(
                        rebuilt.map(|b| b.1.to_vec()),
                        Some(blocks[2].clone()),
                        "{ctx}"
                    ),
                    _ => assert!(rebuilt.is_none() && c.saw_data_loss(), "{ctx}"),
                }
                assert!(c.group.held == before, "{ctx}");
            }
        }
    }

    /// Round `epoch` of `spec()`'s layout, as the coordinator begins it.
    fn begin(epoch: u64) -> Msg {
        Msg::RoundBegin {
            epoch,
            sources: (0..3).map(NodeId).collect(),
            holders: vec![NodeId(3)],
        }
    }

    /// The data member's capture on `RoundBegin` of `epoch` (the delay of
    /// `spec()` is zero): the bytes it shipped to the holder.
    fn captured(n: &mut NodeCore, epoch: u64) -> Vec<u8> {
        let out = n.on_message(NodeId(0), begin(epoch), SimTime::ZERO);
        shipped(out, n.spec().image_len)
    }

    /// The `len`-byte image a capture's actions ship to the holder, read
    /// back from its parts.
    fn shipped(out: Vec<Action>, len: usize) -> Vec<u8> {
        let mut shipped = vec![0xEE; len];
        let mut ends = Vec::new();
        for action in out {
            let (at, data) = match action {
                Action::Send {
                    to: NodeId(3),
                    msg: Msg::PayloadPart { offset, data, .. },
                } => (offset as usize, data.to_vec()),
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
        churn_image(7, NodeId(1), epoch, &mut image);
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
            assert_eq!(bytes(n.committed()), Some((epoch, shipped.clone())));
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

    /// Node 1 of `spec()` in parts with round 1 committed and round 2
    /// captured: the node, what round 1 shipped, and what round 2's
    /// capture sent, its parts still held.
    fn captured_after_a_commit() -> (NodeCore, Vec<u8>, Vec<Action>) {
        let mut n = NodeCore::new(NodeId(1), in_parts(spec()), 1);
        let first = captured(&mut n, 1);
        n.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        let second = n.on_message(NodeId(0), begin(2), SimTime::ZERO);
        (n, first, second)
    }

    #[test]
    fn writing_live_between_capture_and_commit_voids_the_capture() {
        let len = in_parts(spec()).image_len;
        // The cluster rollback a readmission brings.
        let (mut rolled_back, first, rolled_back_parts) = captured_after_a_commit();
        let readmit = Msg::Readmit {
            node: NodeId(2),
            fence_epoch: 1,
            rollback_epoch: 1,
        };
        rolled_back.on_message(NodeId(0), readmit, SimTime::ZERO);
        // A resync's rebuilt state, landing while the round is open.
        let (mut resynced, _, resynced_parts) = captured_after_a_commit();
        resynced.resync = Some(ResyncClient {
            coordinator: NodeId(0),
            next_retry: SimTime::ZERO,
        });
        let rebuilt = vec![0xAB; len];
        let state = Msg::ResyncState {
            node: NodeId(1),
            fence_epoch: 1,
            committed_epoch: 1,
            image: Some(Block::from(rebuilt.clone())),
        };
        resynced.on_message(NodeId(0), state, SimTime::ZERO);
        resynced.resync = None;

        // The commit promotes nothing, and the guest's write of round 2
        // lands on what was written: the next capture ships that. The
        // parts round 2 handed out are what it captured, after all of it.
        let second = churned(1, first.clone());
        for (mut n, written, parts) in [
            (rolled_back, first, rolled_back_parts),
            (resynced, rebuilt, resynced_parts),
        ] {
            assert_eq!(
                n.group.live.as_ref().map(Block::to_vec),
                Some(written.clone())
            );
            n.on_message(NodeId(0), Msg::Commit { epoch: 2 }, SimTime::ZERO);
            assert_eq!(bytes(n.committed()), Some((1, written.clone())));
            assert_eq!(captured(&mut n, 3), churned(2, written));
            assert_eq!(shipped(parts, len), second);
        }
    }

    #[test]
    fn a_capture_ships_every_page_by_reference() {
        for m in [1, 2, 3] {
            let s = ragged(m);
            let mut n = NodeCore::new(NodeId(1), s.clone(), 1);
            let begin = Msg::RoundBegin {
                epoch: 1,
                sources: (0..4).map(NodeId).collect(),
                holders: (4..4 + m).map(NodeId).collect(),
            };
            let out = n.on_message(NodeId(0), begin, SimTime::ZERO);
            let live = n.group.live.as_ref().expect("the captured image");
            // Row 0's holder gets the image; row j's the term of row j.
            let terms = &n.group.terms;
            assert_eq!(
                terms.keys().copied().collect::<Vec<_>>(),
                (1..m).collect::<Vec<_>>()
            );
            for (j, h) in (4..4 + m).enumerate() {
                let part = if j == 0 { live } else { &terms[&j] };
                assert!(
                    *part == term(&s, j, 1, &live.to_vec())[..],
                    "4+{m}, row {j}"
                );
                let sent: Vec<&Msg> = (out.iter())
                    .filter_map(|a| match a {
                        Action::Send { to, msg } if *to == NodeId(h) => Some(msg),
                        _ => None,
                    })
                    .collect();
                let pages = part.pages();
                assert_eq!((pages.len(), sent.len()), (4, 4), "4+{m}, holder {h}");
                for (i, msg) in sent.into_iter().enumerate() {
                    let Msg::PayloadPart { offset, data, .. } = msg else {
                        panic!("4+{m}, holder {h}: {msg:?}");
                    };
                    assert_eq!(*offset, (i * PART_LEN) as u64);
                    assert!(Arc::ptr_eq(data, &pages[i]), "4+{m}, holder {h}, part {i}");
                }
            }
        }
    }

    #[test]
    fn a_commit_acks_before_the_guest_writes() {
        let s = ClusterSpec {
            capture_delay: Duration::from_millis(5.0),
            ..spec()
        };
        let mut n = meshed_in(&s, 1);
        n.on_tick(SimTime::ZERO);
        n.on_message(NodeId(0), begin(1), SimTime::ZERO);
        let at = SimTime::ZERO + s.capture_delay;
        let first = shipped(n.on_tick(at), s.image_len);
        // The ack leaves with the shipped image committed and the guest's
        // write still owed: `live` went to the commit, and nothing is due.
        let out = n.on_message(NodeId(0), Msg::Commit { epoch: 1 }, at);
        let ack = Msg::CommitAck {
            epoch: 1,
            node: NodeId(1),
        };
        assert!(out.contains(&Action::Send {
            to: NodeId(0),
            msg: ack
        }));
        assert_eq!(bytes(n.committed()), Some((1, first.clone())));
        assert_eq!((n.group.live.as_ref(), n.group.owed_write), (None, Some(1)));
        assert!(n.next_deadline().is_some_and(|due| due > at));
        // A round opens: the write is due at once, and the tick makes it.
        n.on_message(NodeId(0), begin(2), at);
        assert_eq!(n.next_deadline(), Some(SimTime::ZERO));
        n.on_tick(at);
        assert_eq!(n.group.owed_write, None);
        assert!(n.next_deadline().is_some_and(|due| due > at));
        let second = shipped(n.on_tick(at + s.capture_delay), s.image_len);
        assert_eq!(second, churned(1, first));
    }

    #[test]
    fn an_owed_write_is_paid_before_capture_and_forgotten_by_an_overwrite() {
        // Zero delay: the capture on `RoundBegin` makes the write first.
        let mut n = NodeCore::new(NodeId(1), spec(), 1);
        let first = captured(&mut n, 1);
        n.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        assert_eq!(n.group.owed_write, Some(1));
        assert_eq!(captured(&mut n, 2), churned(1, first.clone()));
        assert_eq!(n.group.owed_write, None);

        // A rollback right after a commit: the image is the committed one,
        // not the committed one written over.
        let mut rolled_back = NodeCore::new(NodeId(1), spec(), 1);
        captured(&mut rolled_back, 1);
        rolled_back.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        let readmit = Msg::Readmit {
            node: NodeId(2),
            fence_epoch: 1,
            rollback_epoch: 1,
        };
        rolled_back.on_message(NodeId(0), readmit, SimTime::ZERO);
        // A resync's rebuilt state right after a commit.
        let mut resynced = NodeCore::new(NodeId(1), spec(), 1);
        captured(&mut resynced, 1);
        resynced.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
        resynced.resync = Some(ResyncClient {
            coordinator: NodeId(0),
            next_retry: SimTime::ZERO,
        });
        let rebuilt = vec![0xAB; 64];
        let state = Msg::ResyncState {
            node: NodeId(1),
            fence_epoch: 1,
            committed_epoch: 1,
            image: Some(Block::from(rebuilt.clone())),
        };
        resynced.on_message(NodeId(0), state, SimTime::ZERO);
        resynced.resync = None;

        for (mut n, written) in [(rolled_back, first), (resynced, rebuilt)] {
            assert_eq!(n.group.owed_write, None);
            assert_eq!(captured(&mut n, 2), written);
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
                        for part in parts(epoch, i, &term(&s, j, i, image)) {
                            p.on_message(NodeId(i), part, SimTime::ZERO);
                        }
                    }
                    p.on_message(NodeId(0), Msg::Commit { epoch }, SimTime::ZERO);
                    let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
                    let want = s.code().encode(&refs).remove(j);
                    let got = bytes(p.committed());
                    assert_eq!(got, Some((epoch, want)), "{h} of 4+{m}, {epoch}");
                    for (i, image) in images.iter_mut().enumerate() {
                        churn_image(7, NodeId(i), epoch, image);
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
    fn a_second_checkpoint_request_is_refused_and_the_first_hears_its_round() {
        let s = ClusterSpec {
            capture_delay: Duration::from_millis(5.0),
            ..spec()
        };
        let mut c = coordinator_in_round_1(s.clone());
        let to_ctl = |out: Vec<Action>| -> Vec<Msg> {
            let ctl = |a| match a {
                Action::Send { to: CTL, msg } => Some(msg),
                _ => None,
            };
            out.into_iter().filter_map(ctl).collect()
        };
        let refused = Msg::CheckpointFailed {
            reason: "a round is already open".to_string(),
        };
        let out = c.on_message(CTL, Msg::CheckpointReq, SimTime::ZERO);
        assert_eq!(to_ctl(out), [refused]);
        // Nobody acks: the first request hears its round time out.
        let mut heard = Vec::new();
        let timeout = SimTime::ZERO + s.round_timeout;
        while let Some(due) = c.next_deadline().filter(|due| *due <= timeout) {
            for peer in 1..4 {
                c.on_message(NodeId(peer), Msg::Heartbeat { node: NodeId(peer) }, due);
            }
            heard.extend(to_ctl(c.on_tick(due)));
        }
        let timed_out = Msg::CheckpointFailed {
            reason: "round timed out".to_string(),
        };
        assert_eq!(heard, [timed_out]);
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

    fn is_fetch(m: &Msg) -> bool {
        matches!(m, Msg::FetchReq { .. })
    }

    fn is_fence(m: &Msg) -> bool {
        matches!(m, Msg::Fence { .. })
    }

    fn rebuild_started(victim: usize) -> Note {
        Note::RebuildStarted {
            victim: NodeId(victim),
        }
    }

    fn rebuild_aborted(victim: usize, phase: &'static str) -> Note {
        Note::RebuildAborted {
            victim: NodeId(victim),
            phase,
        }
    }

    /// Evidence against `peer` at `at`; returns what it did.
    fn refused(n: &mut NodeCore, peer: usize, at: SimTime) -> Vec<Action> {
        n.on_tick(at);
        let out = n.on_peer_refused(NodeId(peer), at);
        assert_eq!(notes(&out)[0], verdict(peer, Verdict::Suspected));
        out
    }

    /// The tick one heartbeat interval after evidence at `at`, which
    /// confirms it; returns what it did.
    fn confirmed(n: &mut NodeCore, at: SimTime) -> Vec<Action> {
        let due = at + spec().detector.heartbeat_interval;
        assert_eq!(n.next_deadline(), Some(due));
        n.on_tick(due)
    }

    /// Evidence against `peer` at `at`, then the tick one heartbeat interval
    /// later that confirms it; returns what that tick did.
    fn refused_and_confirmed(n: &mut NodeCore, peer: usize, at: SimTime) -> Vec<Action> {
        refused(n, peer, at);
        confirmed(n, at)
    }

    #[test]
    fn evidence_suspects_at_once_and_the_coordinator_fences_once_a_heartbeat_interval_later() {
        let mut c = meshed(0);
        let at = SimTime::from_secs(0.003);
        // The repair starts with the suspicion: every survivor but the
        // suspect is asked for its blocks, and nobody is fenced.
        let out = refused(&mut c, 2, at);
        assert_eq!(
            notes(&out),
            [
                verdict(2, Verdict::Suspected),
                Note::RebuildStarted { victim: NodeId(2) },
                Note::RebuildPhase {
                    victim: NodeId(2),
                    phase: "Fetch"
                },
            ]
        );
        let survivors = [NodeId(1), NodeId(3)];
        assert_eq!(sent_to(&out, is_fetch), survivors);
        assert!(sent_to(&out, is_fence).is_empty(), "{out:?}");
        // The timers' own verdict, a heartbeat interval after the evidence,
        // fences and asks nobody again.
        let out = confirmed(&mut c, at);
        let fenced = Note::Fenced {
            node: NodeId(2),
            epoch: 1,
        };
        assert_eq!(notes(&out), [verdict(2, Verdict::Confirmed), fenced]);
        assert_eq!(sent_to(&out, is_fence), survivors);
        assert!(sent_to(&out, is_fetch).is_empty(), "{out:?}");
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
        // The rebuild the suspicion began ends with it.
        assert_eq!(notes(&out), [refuted, rebuild_aborted(2, "Refuted")]);
        let out = c.on_tick(at + spec().detector.heartbeat_interval);
        assert!(notes(&out).is_empty(), "{out:?}");
        assert!(c.has_session(NodeId(2)) && c.status().confirmed.is_empty());
    }

    /// Node 0 of a 4+1 group in parts, `own` committed at round 1, the
    /// rebuild of node 2 begun on link evidence at time zero and every
    /// survivor's answer landed before the verdict; and the group's blocks.
    fn decoded_before_the_verdict() -> (NodeCore, Vec<Vec<u8>>) {
        let s = ragged(1);
        let blocks = group_blocks(&s);
        let mut c = meshed_in(&s, 0);
        c.group
            .held
            .insert(NodeId(0), (1, Block::from(blocks[0].clone())));
        let out = refused(&mut c, 2, SimTime::ZERO);
        assert_eq!(sent_to(&out, is_fetch), [NodeId(1), NodeId(3), NodeId(4)]);
        let mut landed = Vec::new();
        for node in [1, 3, 4] {
            for msg in answer(node, node, 1, &blocks[node]) {
                landed.extend(notes(&c.on_message(NodeId(node), msg, SimTime::ZERO)));
            }
        }
        let phase = |phase| Note::RebuildPhase {
            victim: NodeId(2),
            phase,
        };
        assert_eq!(landed, [phase("Decode"), phase("Verdict")]);
        (c, blocks)
    }

    /// What `n` answers `dvdc-ctl digest 2` with: the digest and its source.
    fn digest_of_2(n: &mut NodeCore) -> (u64, DigestSource) {
        let out = n.on_message(CTL, Msg::DigestReq { node: NodeId(2) }, SimTime::ZERO);
        match &out[..] {
            [Action::Send {
                msg: Msg::DigestResp { digest, source, .. },
                ..
            }] => (*digest, *source),
            other => panic!("expected a digest, got {other:?}"),
        }
    }

    #[test]
    fn answers_that_land_before_the_verdict_decode_and_custody_waits_for_it() {
        let (mut c, _) = decoded_before_the_verdict();
        assert!(c.custody_block(NodeId(2)).is_none());
        assert_eq!(digest_of_2(&mut c), (0, DigestSource::Missing));
        // The rebuild stands until the verdict, and no round opens under it.
        let out = c.on_message(CTL, Msg::CheckpointReq, SimTime::ZERO);
        let refused = Msg::CheckpointFailed {
            reason: "a rebuild is in flight".to_string(),
        };
        assert_eq!(sent_to(&out, |m| *m == refused), [CTL]);
    }

    #[test]
    fn the_verdict_fences_and_installs_the_decoded_block_in_one_step() {
        let (mut c, blocks) = decoded_before_the_verdict();
        let out = confirmed(&mut c, SimTime::ZERO);
        let installed = [
            verdict(2, Verdict::Confirmed),
            Note::Fenced {
                node: NodeId(2),
                epoch: 1,
            },
            Note::RebuildCompleted {
                victim: NodeId(2),
                epoch: 1,
                digest: block_digest(&blocks[2]),
            },
        ];
        assert_eq!(notes(&out), installed);
        assert!(sent_to(&out, is_fetch).is_empty(), "{out:?}");
        assert_eq!(sent_to(&out, is_fence), [NodeId(1), NodeId(3), NodeId(4)]);
        assert_eq!(
            bytes(c.custody_block(NodeId(2))),
            Some((1, blocks[2].clone()))
        );
    }

    #[test]
    fn a_fence_from_another_member_confirms_the_suspect_and_the_next_tick_installs() {
        let (mut c, blocks) = decoded_before_the_verdict();
        // A member that met the suspect's next boot fenced it first.
        let fence = Msg::Fence {
            node: NodeId(2),
            epoch: 1,
        };
        c.on_message(NodeId(1), fence, SimTime::ZERO);
        assert_eq!(c.next_deadline(), Some(SimTime::ZERO));
        let out = c.on_tick(SimTime::ZERO);
        let completed = Note::RebuildCompleted {
            victim: NodeId(2),
            epoch: 1,
            digest: block_digest(&blocks[2]),
        };
        assert!(notes(&out).contains(&completed), "{out:?}");
        assert!(sent_to(&out, is_fetch).is_empty(), "{out:?}");
        assert_eq!(
            bytes(c.custody_block(NodeId(2))),
            Some((1, blocks[2].clone()))
        );
    }

    #[test]
    fn a_block_decoded_at_an_epoch_no_longer_committed_is_fetched_anew_at_the_verdict() {
        let (mut c, blocks) = decoded_before_the_verdict();
        c.group
            .held
            .insert(NodeId(0), (2, Block::from(blocks[0].clone())));
        let out = confirmed(&mut c, SimTime::ZERO);
        let notes = notes(&out);
        assert_eq!(
            notes[2..4],
            [rebuild_aborted(2, "Stale"), rebuild_started(2)]
        );
        assert_eq!(sent_to(&out, is_fetch), [NodeId(1), NodeId(3), NodeId(4)]);
        assert!(c.status().custody.is_empty() && !c.saw_data_loss());
    }

    #[test]
    fn a_refuted_rebuild_keeps_nothing_and_the_next_checkpoint_opens_a_round() {
        let s = ragged(1);
        let blocks = group_blocks(&s);
        let mut c = meshed_in(&s, 0);
        c.group
            .held
            .insert(NodeId(0), (1, Block::from(blocks[0].clone())));
        refused(&mut c, 2, SimTime::ZERO);
        let alive = Msg::Heartbeat { node: NodeId(2) };
        let out = c.on_message(NodeId(2), alive, SimTime::ZERO);
        assert!(notes(&out).contains(&rebuild_aborted(2, "Refuted")));
        // The answers to the withdrawn requests land on nothing.
        for node in [1, 3, 4] {
            for msg in answer(node, node, 1, &blocks[node]) {
                let out = c.on_message(NodeId(node), msg, SimTime::ZERO);
                assert!(out.is_empty(), "{out:?}");
            }
        }
        let out = c.on_tick(SimTime::ZERO + s.detector.heartbeat_interval);
        assert!(notes(&out).is_empty(), "{out:?}");
        assert!(c.status().custody.is_empty() && c.group.rebuild.is_none() && !c.saw_data_loss());
        assert!(!c.members.fences.is_fenced(NodeId(2)) && c.has_session(NodeId(2)));
        let out = c.on_message(CTL, Msg::CheckpointReq, SimTime::ZERO);
        assert!(
            notes(&out).contains(&Note::RoundStarted { epoch: 2 }),
            "{out:?}"
        );
    }

    #[test]
    fn a_suspected_coordinator_or_an_open_round_waits_for_the_verdict() {
        // Node 1 does not coordinate while node 0 is only suspected.
        let mut n = meshed(1);
        let out = refused(&mut n, 0, SimTime::ZERO);
        assert_eq!(notes(&out), [verdict(0, Verdict::Suspected)]);
        assert!(sent_to(&out, |_| true).is_empty(), "{out:?}");

        // A round open at the evidence: the verdict aborts it, then fences
        // and fetches, as with the timers.
        let mut c = coordinator_in_round_1(spec());
        let out = refused(&mut c, 2, SimTime::ZERO);
        assert_eq!(notes(&out), [verdict(2, Verdict::Suspected)]);
        assert!(sent_to(&out, is_fetch).is_empty(), "{out:?}");
        let out = confirmed(&mut c, SimTime::ZERO);
        let notes = notes(&out);
        assert!(
            matches!(
                notes[..],
                [
                    Note::PeerVerdict {
                        verdict: Verdict::Confirmed,
                        ..
                    },
                    Note::Fenced { .. },
                    Note::RoundAborted { epoch: 1, .. },
                    Note::RebuildStarted { .. },
                    Note::RebuildPhase { phase: "Fetch", .. },
                ]
            ),
            "{notes:?}"
        );
        assert_eq!(sent_to(&out, is_fetch), [NodeId(1), NodeId(3)]);
    }

    #[test]
    fn a_short_decode_before_the_verdict_notes_no_loss_and_the_verdict_fetches_anew() {
        let s = ragged(1);
        let blocks = group_blocks(&s);
        let mut c = meshed_in(&s, 0);
        c.group
            .held
            .insert(NodeId(0), (1, Block::from(blocks[0].clone())));
        refused(&mut c, 2, SimTime::ZERO);
        let mut landed = Vec::new();
        for node in [1, 3, 4] {
            for (n, msg) in answer(node, node, 1, &blocks[node]).into_iter().enumerate() {
                // Slot 1's answer is short of its second part: three whole
                // slots of the four needed.
                if (node, n) != (1, 1) {
                    landed.extend(notes(&c.on_message(NodeId(node), msg, SimTime::ZERO)));
                }
            }
        }
        let decode = Note::RebuildPhase {
            victim: NodeId(2),
            phase: "Decode",
        };
        assert_eq!(landed, [decode, rebuild_aborted(2, "Decode")]);
        assert!(!c.saw_data_loss() && c.group.rebuild.is_none());
        let out = confirmed(&mut c, SimTime::ZERO);
        assert!(notes(&out).contains(&rebuild_started(2)), "{out:?}");
        assert_eq!(sent_to(&out, is_fetch), [NodeId(1), NodeId(3), NodeId(4)]);
    }

    #[test]
    fn losing_the_coordinator_role_or_being_fenced_ends_a_rebuild_begun_on_suspicion() {
        // Node 1 coordinates while node 0 is out of session.
        let spec = spec();
        let mut n = NodeCore::new(NodeId(1), spec.clone(), 1);
        for peer in [2, 3] {
            let hello = NodeCore::new(NodeId(peer), spec.clone(), 1).hello();
            n.on_message(NodeId(peer), hello, SimTime::ZERO);
        }
        let out = refused(&mut n, 2, SimTime::ZERO);
        assert_eq!(sent_to(&out, is_fetch), [NodeId(3)]);
        let hello = NodeCore::new(NodeId(0), spec.clone(), 1).hello();
        let out = n.on_message(NodeId(0), hello, SimTime::ZERO);
        assert!(
            notes(&out).ends_with(&[rebuild_aborted(2, "CoordinatorLost")]),
            "{out:?}"
        );
        assert!(n.group.rebuild.is_none());

        // Fenced mid-rebuild: the node stands down, and says what it drops.
        let mut c = meshed(0);
        refused(&mut c, 2, SimTime::ZERO);
        let rejected = Msg::Rejected {
            node: NodeId(0),
            required_epoch: 1,
            coordinator: NodeId(1),
        };
        let out = c.on_message(NodeId(1), rejected, SimTime::ZERO);
        assert!(
            notes(&out).contains(&rebuild_aborted(2, "Fenced")),
            "{out:?}"
        );
    }

    #[test]
    fn a_node_that_stands_down_holds_what_a_fresh_boot_holds_but_its_resync_client() {
        // A coordinator with a committed block and a custody block.
        let (mut c, _) = decoded_before_the_verdict();
        confirmed(&mut c, SimTime::ZERO);
        assert!(c.committed().is_some() && c.custody_block(NodeId(2)).is_some());
        let rejected = Msg::Rejected {
            node: NodeId(0),
            required_epoch: 1,
            coordinator: NodeId(1),
        };
        let out = c.on_message(NodeId(1), rejected, SimTime::ZERO);
        let asks = sent_to(&out, |m| *m == Msg::ResyncReq { node: NodeId(0) });
        assert_eq!(asks, [NodeId(1)]);
        let mut fresh = NodeCore::new(NodeId(0), ragged(1), 1);
        assert_eq!(c.status(), fresh.status());
        assert_eq!(bytes(c.committed()), bytes(fresh.committed()));
        for n in (0..5).map(NodeId) {
            assert_eq!(bytes(c.custody_block(n)), bytes(fresh.custody_block(n)));
        }
        // Its resync client aside, it captures as the fresh boot does.
        assert!(c.resync.take().is_some() && fresh.resync.is_none());
        let begin = Msg::RoundBegin {
            epoch: 1,
            sources: (0..4).map(NodeId).collect(),
            holders: vec![NodeId(4)],
        };
        let first = c.on_message(NodeId(1), begin.clone(), SimTime::ZERO);
        assert!(sent_to(&first, |m| matches!(m, Msg::PayloadPart { .. })).len() == 4);
        assert_eq!(first, fresh.on_message(NodeId(1), begin, SimTime::ZERO));

        // A data member of 4+2 fenced in a capture window, its term made:
        // the term goes with the rest, and it ships what a fresh boot does.
        let s = ClusterSpec {
            capture_delay: Duration::from_millis(5.0),
            ..ragged(2)
        };
        let begin = Msg::RoundBegin {
            epoch: 1,
            sources: (0..4).map(NodeId).collect(),
            holders: vec![NodeId(4), NodeId(5)],
        };
        let mut n = meshed_in(&s, 1);
        n.on_message(NodeId(0), begin.clone(), SimTime::ZERO);
        n.on_tick(SimTime::ZERO);
        assert_eq!(n.group.terms.keys().collect::<Vec<_>>(), [&1]);
        let rejected = Msg::Rejected {
            node: NodeId(1),
            required_epoch: 1,
            coordinator: NodeId(0),
        };
        n.on_message(NodeId(0), rejected, SimTime::ZERO);
        assert!(n.group.terms.is_empty() && n.resync.take().is_some());
        let mut fresh = NodeCore::new(NodeId(1), s.clone(), 1);
        let at = SimTime::ZERO + s.capture_delay;
        for n in [&mut n, &mut fresh] {
            n.on_message(NodeId(0), begin.clone(), SimTime::ZERO);
        }
        assert_eq!(n.on_tick(at), fresh.on_tick(at));
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
        c.group
            .held
            .insert(NodeId(0), (1, Block::from(images[0].clone())));
        refused(&mut c, 2, SimTime::ZERO);
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
            c.on_message(NodeId(holder), fetched, SimTime::ZERO);
        }
        // Decoded while the suspicion stood, installed by the verdict.
        let rebuilt = notes(&confirmed(&mut c, SimTime::ZERO));
        assert_eq!(
            bytes(c.custody_block(NodeId(2))),
            Some((1, images[2].clone()))
        );
        let completed = Note::RebuildCompleted {
            victim: NodeId(2),
            epoch: 1,
            digest: block_digest(&images[2]),
        };
        assert!(rebuilt.contains(&completed), "{rebuilt:?}");

        let custody = |digest| (digest, DigestSource::Custody);
        assert_eq!(digest_of_2(&mut c), custody(block_digest(&images[2])));
        // Hashed per request, as a node's own block is: the answer is of
        // the bytes held now.
        c.group.held.get_mut(&NodeId(2)).expect("in custody").1 = Block::from(vec![0; 64]);
        assert_eq!(digest_of_2(&mut c), custody(block_digest(&[0; 64])));
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
