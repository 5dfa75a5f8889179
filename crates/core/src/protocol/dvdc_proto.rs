//! Distributed Virtual Diskless Checkpointing — the paper's contribution.
//!
//! Every node keeps its own VMs' checkpoints in local memory
//! (double-buffered: previous + current epoch, per Section II-B2) and
//! additionally holds the parity blocks of the RAID groups assigned to it
//! by the orthogonal placement. A coordinated round captures every VM,
//! ships (only) the checkpoint payload to the groups' parity holders, and
//! updates group parity — an in-memory XOR, never a disk write. In steady
//! state the update is *incremental*: each parity holder folds the
//! `old ⊕ new` XOR runs of the dirtied pages straight into its standing
//! block ([`dvdc_parity::code::ErasureCode::apply_delta`]), so both the
//! wire and the XOR engine are charged by dirty bytes, not image bytes.
//! A group falls back to a full re-encode whenever the standing parity is
//! not a valid delta base: the first round, a full (or stale-base)
//! capture from any member, or a post-recovery rollback. With the
//! Section IV-C copy-on-write transport, only the capture suspends the
//! guests; transfer and parity happen in the background (latency, not
//! overhead).
//!
//! Failure of any single physical node loses (a) the checkpoints of the
//! VMs it hosted and (b) the parity blocks it held. Both are rebuilt from
//! the survivors: lost checkpoints by decoding each affected group, lost
//! parity by re-encoding — then the whole cluster rolls back to the
//! committed epoch and resumes. With `m ≥ 2` parity blocks per group
//! (Reed–Solomon), any `m` concurrent node failures are survivable.
//!
//! Recovery itself is a *phased rebuild pipeline* ([`PhasedRebuild`]):
//! survivor blocks are fetched over tracked transfers, each affected
//! group is decoded, rebuilt blocks ship to their homes, and only the
//! final readmit step mutates protocol state — so rebuild time elapses
//! on the simulated clock and a cascading second failure mid-rebuild
//! simply cancels the (mutation-free) pipeline and restarts it against
//! the new down set, or surfaces honest
//! [`super::RecoverError::DataLoss`] when tolerance is exceeded. Every
//! stored block carries a checksum: decode treats rotten survivors as
//! erasures, the commit path never promotes a rotten block, and a
//! periodic [`DvdcProtocol::scrub`] repairs silent corruption from group
//! redundancy through the same pipeline.

use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use dvdc_checkpoint::delta::{xor_runs, XorRun};
use dvdc_checkpoint::payload::CheckpointPayload;
use dvdc_checkpoint::store::{DoubleBufferedStore, MaterializedStore, ParityStore};
use dvdc_checkpoint::strategy::Checkpointer;
use dvdc_faults::buggify::{self, points, FaultRegistry};
use dvdc_observe::{Event, RecorderHandle, NO_TOKEN};
use dvdc_parity::code::{self, CodeError, ErasureCode};
use dvdc_simcore::rng::{splitmix64, SPLITMIX_GAMMA};
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::fabric::RoundLoad;
use dvdc_vcluster::ids::{NodeId, VmId};
use dvdc_vcluster::messaging::{
    FenceEvent, FenceRegistry, FenceToken, LedgerError, LedgerEvent, RetryDecision, RetryPolicy,
    TransferLedger,
};

use crate::placement::{GroupId, GroupPlacement, Member, PlacementError};

use super::{rollback_vms, ProtocolError, RecoverError, RecoveryReport, RoundReport, ScrubReport};

/// Applies an incremental parity update in place:
/// `parity[offset..] ^= old_page ^ new_page`.
///
/// This is the single-parity (XOR, m = 1) special case of the transport
/// [`DvdcProtocol::run_round`] actually rides on: parity holders never
/// need full images — only the XOR of each dirtied page's before and
/// after contents. The general, per-code form (Reed–Solomon's GF(256)
/// coefficients) lives in
/// [`dvdc_parity::code::ErasureCode::apply_delta`]; this free function
/// remains as the minimal didactic kernel and is property-tested against a
/// full re-encode.
///
/// # Panics
/// Panics if the pages differ in length or overrun the parity block.
pub fn delta_parity_update(parity: &mut [u8], offset: usize, old_page: &[u8], new_page: &[u8]) {
    assert_eq!(old_page.len(), new_page.len(), "page versions must match");
    assert!(
        offset + old_page.len() <= parity.len(),
        "delta overruns parity block"
    );
    for (i, (o, n)) in old_page.iter().zip(new_page).enumerate() {
        parity[offset + i] ^= o ^ n;
    }
}

/// The four phases of a DVDC round, in execution order.
///
/// A round is a sequence of discrete steps grouped into phases; a node
/// failure can strike between any two steps (or mid-transfer), and the
/// protocol must either abort back to the committed epoch or complete
/// degraded. The `Ord` impl follows execution order, so tests can express
/// "interrupt once the round has reached phase X".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RoundPhase {
    /// Guests pause and each VM's checkpoint lands in its host node's
    /// current buffer (deltas extracted for the incremental transport).
    Capture,
    /// Checkpoint payloads travel from host nodes to parity holders; each
    /// shipment is individually tracked so a failure can strike with
    /// bytes on the wire.
    Transfer,
    /// Parity holders fold the received deltas into (or re-encode) their
    /// working-generation blocks.
    Fold,
    /// Two-phase commit: every parity holder acks its staged generation,
    /// then local stores and parity promote atomically.
    Commit,
}

impl RoundPhase {
    /// Stable phase label used in traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            RoundPhase::Capture => "Capture",
            RoundPhase::Transfer => "Transfer",
            RoundPhase::Fold => "Fold",
            RoundPhase::Commit => "Commit",
        }
    }
}

/// Result of one [`DvdcProtocol::step_round`] call.
#[derive(Debug)]
pub enum RoundStep {
    /// One unit of work completed; the round continues.
    Progress {
        /// Phase the step executed in.
        phase: RoundPhase,
        /// Simulated wall-clock the step took (drives event scheduling).
        took: Duration,
    },
    /// The final promote ran; the round is committed.
    Committed(RoundReport),
}

/// An in-flight DVDC round, advanced one discrete step at a time.
///
/// Created by [`DvdcProtocol::begin_round`]; driven by
/// [`DvdcProtocol::step_round`] until it returns
/// [`RoundStep::Committed`], or discarded via
/// [`DvdcProtocol::abort_round`] when a failure interrupts it.
#[derive(Debug)]
pub struct PhasedRound {
    epoch: u64,
    phase: RoundPhase,
    // Capture.
    capture_queue: VecDeque<VmId>,
    vm_deltas: BTreeMap<VmId, (u64, Vec<XorRun>)>,
    // Transfer: (source host, parity holder, payload bytes).
    transfer_queue: VecDeque<(NodeId, NodeId, usize)>,
    ledger: TransferLedger,
    in_flight: Option<u64>,
    // Fold.
    fold_queue: VecDeque<GroupId>,
    delta_base: Option<u64>,
    delta_base_resolved: bool,
    // Commit.
    ack_queue: VecDeque<NodeId>,
    // Accounting (identical to the monolithic round's).
    payload_bytes: usize,
    outbound: Vec<usize>,
    parity_inbound: Vec<usize>,
    parity_xor: Vec<usize>,
    redundancy_bytes: usize,
    parity_update_bytes: usize,
}

impl PhasedRound {
    /// The epoch this round is building.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The phase the next step will execute in.
    pub fn phase(&self) -> RoundPhase {
        self.phase
    }

    /// In-flight transfer accounting for this round.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Steps remaining before the phase queues drain (the promote step
    /// itself adds one more). Useful for "interrupt at a random point".
    pub fn steps_remaining_hint(&self) -> usize {
        self.capture_queue.len()
            + 2 * self.transfer_queue.len()
            + usize::from(self.in_flight.is_some())
            + self.fold_queue.len()
            + self.ack_queue.len()
            + 1
    }
}

/// Which flavour of rebuild a [`PhasedRebuild`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RebuildMode {
    /// Rebuild the failed node's lost state, then repair the node in
    /// place and reseed it ([`DvdcProtocol::recover`]).
    InPlace,
    /// Re-home the failed node's state onto survivors; the victim stays
    /// fenced and out of service
    /// ([`DvdcProtocol::recover_failover`]).
    Failover,
    /// Repair checksum-rotten blocks on live nodes from group
    /// redundancy; no node crashed ([`DvdcProtocol::scrub`]).
    Scrub,
    /// Readmit an evacuated node ([`DvdcProtocol::resync_node`]); there
    /// is no state to rebuild, only the fence to rotate.
    Resync,
}

impl RebuildMode {
    /// Stable mode label used in traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            RebuildMode::InPlace => "InPlace",
            RebuildMode::Failover => "Failover",
            RebuildMode::Scrub => "Scrub",
            RebuildMode::Resync => "Resync",
        }
    }
}

/// The four phases of a rebuild, in execution order.
///
/// Like [`RoundPhase`], the `Ord` impl follows execution order so tests
/// can express "interrupt once the rebuild has reached phase X". The
/// pipeline is mutation-free until `Readmit`: cancelling a rebuild in any
/// earlier phase (a second failure changing the victim set, say) leaves
/// the protocol exactly as it was, so the driver can simply begin a fresh
/// rebuild against the new down set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RebuildPhase {
    /// Surviving group members ship their committed blocks to the decode
    /// sites; each shipment is a tracked launch/arrival pair so a fault
    /// can land with rebuild bytes on the wire.
    FetchSurvivors,
    /// Each affected group runs the erasure decode over the fetched
    /// (checksum-verified) survivor blocks.
    Decode,
    /// Rebuilt blocks ship to their new (or repaired, or scrubbed)
    /// homes.
    Place,
    /// The staged state is applied atomically: fences rotate, stores and
    /// parity reseed, and (for crash modes) the cluster rolls back to
    /// the committed epoch.
    Readmit,
}

impl RebuildPhase {
    /// Stable phase label used in traces and metrics.
    pub fn name(self) -> &'static str {
        match self {
            RebuildPhase::FetchSurvivors => "FetchSurvivors",
            RebuildPhase::Decode => "Decode",
            RebuildPhase::Place => "Place",
            RebuildPhase::Readmit => "Readmit",
        }
    }
}

/// Result of one [`DvdcProtocol::step_rebuild`] call.
#[derive(Debug)]
pub enum RebuildStep {
    /// One unit of rebuild work completed; the rebuild continues.
    Progress {
        /// Phase the step executed in.
        phase: RebuildPhase,
        /// Simulated wall-clock the step took (drives event scheduling).
        took: Duration,
    },
    /// The readmit ran; the rebuild is complete.
    Completed(RecoveryReport),
}

/// One rebuilt block awaiting placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RebuiltItem {
    Vm(VmId),
    Parity(GroupId, usize),
}

/// An in-flight rebuild, advanced one discrete step at a time.
///
/// Created by [`DvdcProtocol::begin_rebuild`]; driven by
/// [`DvdcProtocol::step_rebuild`] until it returns
/// [`RebuildStep::Completed`], or discarded via
/// [`DvdcProtocol::abort_rebuild`] when a cascading failure invalidates
/// it. Nothing is mutated before the final `Readmit` step, so an aborted
/// rebuild needs no cleanup.
#[derive(Debug)]
pub struct PhasedRebuild {
    mode: RebuildMode,
    victim: NodeId,
    epoch: u64,
    phase: RebuildPhase,
    /// Down set snapshotted at begin; these nodes' blocks are erasures.
    down: Vec<NodeId>,
    /// VM images lost with the victim (crash modes).
    victim_vms: Vec<VmId>,
    /// Parity blocks lost with the victim (crash modes).
    victim_parity: Vec<(GroupId, usize)>,
    /// Checksum-rotten VM images on live nodes, repaired in situ.
    corrupt_vms: Vec<VmId>,
    /// Checksum-rotten parity blocks on live nodes, repaired in situ.
    corrupt_parity: Vec<(GroupId, usize)>,
    /// Survivor blocks rejected by checksum during decode (treated as
    /// erasures, never as decode sources).
    corrupt_sources: usize,
    // FetchSurvivors: (source, decode site, bytes) per survivor block.
    fetch_queue: VecDeque<(NodeId, NodeId, usize)>,
    ledger: TransferLedger,
    in_flight: Option<u64>,
    // Decode: one step per affected group.
    decode_queue: VecDeque<GroupId>,
    // Place: one step per rebuilt block.
    place_queue: VecDeque<RebuiltItem>,
    rebuilt_vms: BTreeMap<VmId, Vec<u8>>,
    rebuilt_parity: BTreeMap<(GroupId, usize), Vec<u8>>,
    /// Simulated time accumulated across all steps so far — the rebuild
    /// window during which a second failure can strike.
    elapsed: Duration,
}

impl PhasedRebuild {
    /// The rebuild flavour.
    pub fn mode(&self) -> RebuildMode {
        self.mode
    }

    /// The node whose state is being rebuilt (for
    /// [`RebuildMode::Scrub`], the node holding the first rotten block).
    pub fn victim(&self) -> NodeId {
        self.victim
    }

    /// The committed epoch the rebuild restores.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The phase the next step will execute in.
    pub fn phase(&self) -> RebuildPhase {
        self.phase
    }

    /// Simulated time elapsed across the steps taken so far.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Survivor blocks rejected by checksum verification during decode.
    pub fn corrupt_sources(&self) -> usize {
        self.corrupt_sources
    }

    /// In-flight survivor-fetch accounting for this rebuild.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Steps remaining before the queues drain (the readmit step itself
    /// adds one more). Place steps only materialize after decode, so
    /// this is a lower bound early on — good enough for "interrupt at a
    /// random point".
    pub fn steps_remaining_hint(&self) -> usize {
        2 * self.fetch_queue.len()
            + usize::from(self.in_flight.is_some())
            + self.decode_queue.len()
            + self.place_queue.len()
            + 1
    }
}

/// Result of one integrity sweep over committed images and parity.
#[derive(Debug, Default)]
struct IntegritySweep {
    /// Blocks whose checksum was checked.
    verified: usize,
    corrupt_vms: Vec<VmId>,
    corrupt_parity: Vec<(GroupId, usize)>,
}

/// Next output of a stateful SplitMix64 stream — a tiny deterministic
/// generator for corruption targeting (no external RNG dependency;
/// reproducibility from the fault seed).
fn splitmix(state: &mut u64) -> u64 {
    let out = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    out
}

/// The DVDC protocol state.
#[derive(Debug)]
pub struct DvdcProtocol {
    placement: GroupPlacement,
    code: Box<dyn ErasureCode>,
    checkpointer: Checkpointer,
    /// Per-node local checkpoint memory (dies with the node).
    node_stores: Vec<DoubleBufferedStore>,
    /// Double-buffered parity generations keyed by `(group, parity
    /// index)`. Physically the entry lives on
    /// `placement.groups()[g].parity_nodes[j]`. The committed generation
    /// is what recovery reads; the working generation is promoted only at
    /// the two-phase commit, so an interrupted round can always discard
    /// it wholesale.
    parity: ParityStore<(GroupId, usize)>,
    /// Whether rounds may use the incremental delta-parity transport.
    /// `false` re-encodes every group from full images each round — the
    /// A/B baseline and escape hatch.
    incremental_parity: bool,
    committed_epoch: Option<u64>,
    next_epoch: u64,
    parity_blocks: usize,
    /// Epoch fencing: every transfer a node launches is stamped with its
    /// current fence token; a detector-confirmed failover fences the
    /// victim so anything it sent pre-fence — or tries to send after
    /// waking from a false suspicion — is rejected until it resyncs.
    fences: FenceRegistry,
    /// Structured-event sink (no-op unless a recorder is attached).
    recorder: RecorderHandle,
    /// Cached `recorder.enabled()` so hot paths pay one branch, not a
    /// virtual call, when tracing is off.
    recording: bool,
    /// Buggify fault-point registry (`None` unless attached). Shared by
    /// `Rc` with the detector-driven drivers so both layers consume one
    /// deterministic activation stream.
    buggify: Option<Rc<FaultRegistry>>,
    /// Cached `registry.is_active()` so every IO callsite pays one
    /// predictable branch — not an `Rc` deref — when buggify is off,
    /// mirroring the `recording` flag.
    buggify_on: bool,
    /// The simulated instant events are stamped with. Advanced by each
    /// step's `took`; drivers with their own scheduler re-sync it via
    /// [`DvdcProtocol::set_clock`].
    clock: SimTime,
}

impl DvdcProtocol {
    /// Creates the protocol with incremental captures (the Fig. 3, Fig. 4
    /// and Fig. 5 configuration). Each round reports the bytes it moved
    /// ([`RoundReport::load`]); what that costs, and whether the guests
    /// wait for the parity, is the reader's choice. The code follows the
    /// placement's parity count ([`code::for_group`]): m = 1 → XOR,
    /// m ≥ 2 → Reed–Solomon.
    ///
    /// # Panics
    ///
    /// Panics if `placement` has no groups, or if its groups do not all
    /// share one `(width, parity_count)` geometry. Every
    /// [`GroupPlacement`] constructor in this crate upholds both, so
    /// this only fires on a hand-built placement.
    pub fn new(placement: GroupPlacement) -> Self {
        let group_width = placement
            .groups()
            .first()
            .map(|g| g.width())
            .expect("placement must contain at least one group");
        let parity_blocks = placement
            .groups()
            .first()
            .map(|g| g.parity_count())
            .unwrap_or(1);
        assert!(
            placement
                .groups()
                .iter()
                .all(|g| g.width() == group_width && g.parity_count() == parity_blocks),
            "all groups must share one geometry"
        );
        DvdcProtocol {
            code: code::for_group(group_width, parity_blocks),
            placement,
            checkpointer: Checkpointer::new(),
            node_stores: Vec::new(),
            parity: ParityStore::new(),
            incremental_parity: true,
            committed_epoch: None,
            next_epoch: 0,
            parity_blocks,
            fences: FenceRegistry::new(),
            recorder: RecorderHandle::default(),
            recording: false,
            buggify: None,
            buggify_on: false,
            clock: SimTime::ZERO,
        }
    }

    /// Attaches a structured-event recorder. Every subsequent round,
    /// rebuild, scrub, and fence operation emits [`Event`]s stamped with
    /// the protocol's sim clock. Also switches the fence registry's
    /// journal on so epoch bumps reach the recorder.
    pub fn set_recorder(&mut self, recorder: RecorderHandle) {
        self.recording = recorder.enabled();
        if self.recording {
            self.fences.enable_journal();
        }
        self.recorder = recorder;
    }

    /// Builder-style [`DvdcProtocol::set_recorder`].
    pub fn with_recorder(mut self, recorder: RecorderHandle) -> Self {
        self.set_recorder(recorder);
        self
    }

    /// The attached recorder handle (the no-op handle by default).
    pub fn recorder(&self) -> &RecorderHandle {
        &self.recorder
    }

    /// Attaches a buggify fault-point registry: every subsequent round,
    /// rebuild, and scrub evaluates its named fault points against the
    /// registry's seed, injecting delays, wire losses, duplicate
    /// deliveries, and spurious read errors at the protocol's own IO
    /// callsites. An [`Intensity::Off`](dvdc_faults::buggify::Intensity)
    /// registry leaves the hot paths on the same single-branch disabled
    /// path as no registry at all.
    pub fn set_buggify(&mut self, registry: Rc<FaultRegistry>) {
        self.buggify_on = registry.is_active();
        self.buggify = Some(registry);
    }

    /// Builder-style [`DvdcProtocol::set_buggify`].
    pub fn with_buggify(mut self, registry: Rc<FaultRegistry>) -> Self {
        self.set_buggify(registry);
        self
    }

    /// The attached buggify registry, if any and active — drivers use
    /// this to evaluate their own fault points (heartbeat drops/delays)
    /// against the same activation stream.
    pub fn buggify(&self) -> Option<&Rc<FaultRegistry>> {
        if self.buggify_on {
            self.buggify.as_ref()
        } else {
            None
        }
    }

    /// Evaluates one fault point; `false` on the disabled path.
    #[inline]
    fn bug(&self, point: &'static str) -> bool {
        self.buggify_on && self.buggify.as_ref().is_some_and(|b| b.fires(point))
    }

    /// Evaluates a delay-type point: the bounded extra latency to charge
    /// (zero on the disabled path or when the point does not fire).
    #[inline]
    fn bug_delay(&self, point: &'static str, max: Duration) -> Duration {
        if !self.buggify_on {
            return Duration::ZERO;
        }
        match self.buggify.as_ref().and_then(|b| b.roll(point)) {
            Some(magnitude) => buggify::scaled_delay(magnitude, max),
            None => Duration::ZERO,
        }
    }

    /// The seed injected retries derive their deterministic jitter from.
    #[inline]
    fn bug_seed(&self) -> u64 {
        self.buggify.as_ref().map_or(0, |b| b.seed())
    }

    /// Evaluates a pair of wire-loss points (dropped frame / torn
    /// payload) against an open transfer. A firing records a failed
    /// attempt in the ledger and returns the seed-jittered backoff to
    /// charge before the arrival re-runs. Injected losses are strictly
    /// transient: the points only fire while retry budget remains, so
    /// buggify alone can never exhaust a transfer — exhaustion stays the
    /// signature of a real partition, which owns the abort path.
    fn bug_wire_loss(
        &self,
        ledger: &mut TransferLedger,
        id: u64,
        loss_points: &[&'static str],
    ) -> Option<Duration> {
        if !self.buggify_on {
            return None;
        }
        let fired = loss_points.iter().any(|&p| self.bug(p));
        if !fired {
            return None;
        }
        let policy = RetryPolicy::default();
        if ledger.attempts(id).is_none_or(|a| a >= policy.max_attempts) {
            return None;
        }
        match ledger.record_failure(id, policy) {
            Ok(RetryDecision::Retry { attempt, .. }) => {
                Some(policy.backoff_with_jitter(attempt, self.bug_seed()))
            }
            _ => None,
        }
    }

    /// The simulated instant the next emitted event will be stamped with.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    #[inline]
    fn emit(&self, event: Event) {
        if self.recording {
            self.recorder.record(self.clock, &event);
        }
    }

    /// Forwards journalled ledger activity (launches, arrivals, fence
    /// rejections, retries, drops) to the recorder.
    fn forward_ledger(&self, ledger: &mut TransferLedger) {
        if !self.recording {
            return;
        }
        for entry in ledger.take_events() {
            let event = match entry {
                LedgerEvent::Launched {
                    id,
                    transfer,
                    token_epoch,
                } => Event::TransferLaunched {
                    id,
                    from: transfer.from.index(),
                    to: transfer.to.index(),
                    bytes: transfer.bytes,
                    token_epoch: token_epoch.unwrap_or(NO_TOKEN),
                },
                LedgerEvent::Completed { id, transfer } => Event::TransferArrived {
                    id,
                    from: transfer.from.index(),
                    to: transfer.to.index(),
                    bytes: transfer.bytes,
                },
                LedgerEvent::FencedRejection {
                    id,
                    node,
                    held_epoch,
                    current_epoch,
                } => Event::TransferFenced {
                    id,
                    node: node.index(),
                    held_epoch,
                    current_epoch,
                },
                LedgerEvent::Retried { id, attempt } => Event::TransferRetried { id, attempt },
                LedgerEvent::Dropped { id, transfer } => Event::TransferDropped {
                    id,
                    from: transfer.from.index(),
                    to: transfer.to.index(),
                    bytes: transfer.bytes,
                },
            };
            self.recorder.record(self.clock, &event);
        }
    }

    /// Forwards journalled fence-registry activity to the recorder.
    fn forward_fences(&mut self) {
        if !self.recording {
            return;
        }
        for entry in self.fences.take_events() {
            let event = match entry {
                FenceEvent::Raised { node, epoch } => Event::FenceRaised {
                    node: node.index(),
                    epoch,
                },
                FenceEvent::Readmitted { node, epoch } => Event::FenceReadmitted {
                    node: node.index(),
                    epoch,
                },
            };
            self.recorder.record(self.clock, &event);
        }
    }

    /// The fence registry guarding transfers and rejoin attempts.
    pub fn fences(&self) -> &FenceRegistry {
        &self.fences
    }

    /// The placement this protocol protects.
    pub fn placement(&self) -> &GroupPlacement {
        &self.placement
    }

    /// Number of parity blocks per group (= node-failure tolerance).
    pub fn failure_tolerance(&self) -> usize {
        self.parity_blocks
    }

    /// Live-migrates `vm` to `to`, moving its checkpoint custody along:
    /// its committed and in-progress images transfer from the old host's
    /// local store to the new one's, so a failure of either node before
    /// the next round still finds (exactly one copy of) the state it
    /// needs.
    ///
    /// Refuses — touching nothing — a destination that already hosts
    /// another member of the VM's group
    /// ([`GroupPlacement::check_move`]); ask
    /// [`GroupPlacement::host_for`] for one that does not.
    ///
    /// # Panics
    /// Panics if `to` is down.
    pub fn migrate(
        &mut self,
        cluster: &mut Cluster,
        vm: VmId,
        to: NodeId,
    ) -> Result<(), PlacementError> {
        self.placement.check_move(cluster, Member::Vm(vm), to)?;
        let from = cluster.node_of(vm);
        if from == to {
            return Ok(());
        }
        cluster.migrate_vm(vm, to);
        self.ensure_node_stores(cluster.node_count());
        let take = |buffer: &mut MaterializedStore| {
            let held = buffer.epoch(vm).zip(buffer.image(vm).map(<[u8]>::to_vec));
            buffer.remove(vm);
            held
        };
        let old = &mut self.node_stores[from.index()];
        let (committed, current) = (take(old.committed_mut()), take(old.current_mut()));
        let new = &mut self.node_stores[to.index()];
        if let Some((epoch, image)) = committed {
            new.committed_mut().insert_image(vm, epoch, image);
        }
        if let Some((epoch, image)) = current {
            new.current_mut().insert_image(vm, epoch, image);
        }
        Ok(())
    }

    /// Enables or disables the incremental delta-parity transport (on by
    /// default). With it off, every round re-encodes parity from the
    /// members' full materialized images — useful as the before/after
    /// baseline in benchmarks and as an operational escape hatch.
    pub fn with_incremental_parity(mut self, enabled: bool) -> Self {
        self.incremental_parity = enabled;
        self
    }

    fn ensure_node_stores(&mut self, nodes: usize) {
        while self.node_stores.len() < nodes {
            self.node_stores.push(DoubleBufferedStore::new());
        }
    }

    /// The committed checkpoint image of `vm`, read from its host node's
    /// local store.
    fn committed_image(&self, cluster: &Cluster, vm: VmId) -> Option<&[u8]> {
        let node = cluster.node_of(vm);
        self.node_stores.get(node.index())?.committed_image(vm)
    }

    /// Verifies the checksum of every committed VM image and parity block
    /// held by an *up* node, returning the rotten ones. Down nodes are
    /// skipped — their memory is gone wholesale, corruption of it is
    /// moot.
    fn sweep_integrity(&self, cluster: &Cluster) -> IntegritySweep {
        let mut sweep = IntegritySweep::default();
        for node in cluster.node_ids() {
            if !cluster.is_up(node) {
                continue;
            }
            let Some(store) = self.node_stores.get(node.index()) else {
                continue;
            };
            let vms: Vec<VmId> = store.committed().vm_ids().collect();
            for vm in vms {
                match store.verify_committed(vm) {
                    Some(true) => sweep.verified += 1,
                    Some(false) => {
                        sweep.verified += 1;
                        sweep.corrupt_vms.push(vm);
                    }
                    None => {}
                }
            }
        }
        for group in self.placement.groups() {
            for j in 0..self.parity_blocks {
                if !cluster.is_up(group.parity_nodes[j]) {
                    continue;
                }
                match self.parity.verify_committed((group.id, j)) {
                    Some(true) => sweep.verified += 1,
                    Some(false) => {
                        sweep.verified += 1;
                        sweep.corrupt_parity.push((group.id, j));
                    }
                    None => {}
                }
            }
        }
        sweep
    }

    /// Opens a phase-interruptible rebuild of `failed`'s lost state (or,
    /// for [`RebuildMode::Scrub`], of whatever blocks fail checksum
    /// verification). The returned [`PhasedRebuild`] is advanced one
    /// discrete step at a time via [`DvdcProtocol::step_rebuild`];
    /// [`DvdcProtocol::recover`] is exactly this followed by
    /// stepping to completion.
    ///
    /// Crash modes also fold any checksum-rotten survivor blocks into
    /// the rebuild (they are erasures too — recovery must neither trust
    /// them as decode sources nor roll VMs back onto them).
    ///
    /// Nothing is mutated until the final readmit step, so a rebuild
    /// interrupted by a cascading failure is simply dropped
    /// ([`DvdcProtocol::abort_rebuild`]) and begun again against the new
    /// down set.
    pub fn begin_rebuild(
        &mut self,
        cluster: &Cluster,
        failed: NodeId,
        mode: RebuildMode,
    ) -> Result<PhasedRebuild, RecoverError> {
        let epoch = self
            .committed_epoch
            .ok_or(RecoverError::Protocol(ProtocolError::NoCommittedCheckpoint))?;
        self.ensure_node_stores(cluster.node_count());

        let mut ledger = TransferLedger::new();
        if self.recording {
            ledger.enable_journal();
            self.emit(Event::RebuildBegin {
                victim: failed.index(),
                mode: mode.name(),
                epoch,
            });
            self.emit(Event::RebuildPhase {
                victim: failed.index(),
                phase: RebuildPhase::FetchSurvivors.name(),
            });
        }
        let mut rebuild = PhasedRebuild {
            mode,
            victim: failed,
            epoch,
            phase: RebuildPhase::FetchSurvivors,
            down: cluster
                .node_ids()
                .into_iter()
                .filter(|&n| !cluster.is_up(n))
                .collect(),
            victim_vms: Vec::new(),
            victim_parity: Vec::new(),
            corrupt_vms: Vec::new(),
            corrupt_parity: Vec::new(),
            corrupt_sources: 0,
            fetch_queue: VecDeque::new(),
            ledger,
            in_flight: None,
            decode_queue: VecDeque::new(),
            place_queue: VecDeque::new(),
            rebuilt_vms: BTreeMap::new(),
            rebuilt_parity: BTreeMap::new(),
            elapsed: Duration::ZERO,
        };

        if mode == RebuildMode::Resync {
            if self.placement.holds_state(cluster, failed) {
                // The begin was already announced; terminate its span so
                // the event stream never shows a rebuild left open.
                self.emit(Event::RebuildAborted {
                    victim: failed.index(),
                    phase: RebuildPhase::FetchSurvivors.name(),
                });
                return Err(RecoverError::Protocol(ProtocolError::Unrecoverable {
                    node: failed,
                    reason: "resync requires an evacuated node; use recover for one holding state"
                        .into(),
                }));
            }
            return Ok(rebuild);
        }

        if mode != RebuildMode::Scrub {
            rebuild.victim_vms = cluster.vms_on(failed).to_vec();
            rebuild.victim_parity = self.placement.parity_slots_on(failed).collect();
        }

        let sweep = self.sweep_integrity(cluster);
        rebuild.corrupt_vms = sweep
            .corrupt_vms
            .into_iter()
            .filter(|vm| !rebuild.victim_vms.contains(vm))
            .collect();
        rebuild.corrupt_parity = sweep
            .corrupt_parity
            .into_iter()
            .filter(|key| !rebuild.victim_parity.contains(key))
            .collect();

        // Groups touched: a lost or rotten data member, or a lost or
        // rotten parity block. Decode each once.
        let mut affected: Vec<GroupId> = rebuild
            .victim_vms
            .iter()
            .chain(rebuild.corrupt_vms.iter())
            .map(|&vm| self.placement.group_of(vm).id)
            .chain(
                rebuild
                    .victim_parity
                    .iter()
                    .chain(rebuild.corrupt_parity.iter())
                    .map(|&(gid, _)| gid),
            )
            .collect();
        affected.sort();
        affected.dedup();

        // One tracked fetch per intact survivor block that must cross
        // the wire to its group's decode site.
        for &gid in &affected {
            let group = self.placement.groups()[gid.index()].clone();
            let decode_site = self.decode_site(cluster, &rebuild, gid);
            for &member in &group.data {
                let host = cluster.node_of(member);
                if rebuild.down.contains(&host)
                    || rebuild.victim_vms.contains(&member)
                    || rebuild.corrupt_vms.contains(&member)
                    || host == decode_site
                {
                    continue;
                }
                if let Some(img) = self.committed_image(cluster, member) {
                    rebuild
                        .fetch_queue
                        .push_back((host, decode_site, img.len()));
                }
            }
            for j in 0..self.parity_blocks {
                let holder = group.parity_nodes[j];
                let key = (gid, j);
                if rebuild.down.contains(&holder)
                    || rebuild.victim_parity.contains(&key)
                    || rebuild.corrupt_parity.contains(&key)
                    || holder == decode_site
                {
                    continue;
                }
                if let Some(block) = self.parity.committed(key) {
                    rebuild
                        .fetch_queue
                        .push_back((holder, decode_site, block.len()));
                }
            }
        }
        rebuild.decode_queue = affected.into();

        Ok(rebuild)
    }

    /// The node a group's erasure decode runs on: the first surviving
    /// parity holder, else the first surviving data host, else the
    /// victim itself (nothing to fetch in that case).
    fn decode_site(&self, cluster: &Cluster, rebuild: &PhasedRebuild, gid: GroupId) -> NodeId {
        let group = &self.placement.groups()[gid.index()];
        group
            .parity_nodes
            .iter()
            .copied()
            .find(|p| !rebuild.down.contains(p))
            .or_else(|| {
                group
                    .data
                    .iter()
                    .map(|&m| cluster.node_of(m))
                    .find(|n| !rebuild.down.contains(n))
            })
            .unwrap_or(rebuild.victim)
    }

    /// Executes one discrete unit of rebuild work: one survivor-fetch
    /// launch or arrival, one group's erasure decode, one rebuilt-block
    /// shipment, or the final readmit. Phase transitions happen when the
    /// current phase's queue drains.
    ///
    /// Exceeded tolerance (more erasures — crashed holders plus rotten
    /// survivors — than parity blocks) surfaces as
    /// [`RecoverError::DataLoss`] from the decode step; the protocol
    /// state is untouched and the caller records the loss.
    pub fn step_rebuild(
        &mut self,
        cluster: &mut Cluster,
        rebuild: &mut PhasedRebuild,
    ) -> Result<RebuildStep, RecoverError> {
        let mut step = match self.step_rebuild_inner(cluster, rebuild) {
            Ok(step) => step,
            Err(e) => {
                if let RecoverError::DataLoss { node, group, .. } = &e {
                    self.emit(Event::DataLoss {
                        node: node.index(),
                        group: group.index(),
                    });
                }
                return Err(e);
            }
        };
        if self.buggify_on {
            if let RebuildStep::Progress { phase, took } = &mut step {
                let point = match phase {
                    RebuildPhase::FetchSurvivors => points::REBUILD_FETCH_DELAY,
                    RebuildPhase::Decode => points::REBUILD_DECODE_DELAY,
                    RebuildPhase::Place => points::REBUILD_PLACE_DELAY,
                    RebuildPhase::Readmit => points::REBUILD_READMIT_DELAY,
                };
                let extra = self.bug_delay(point, Duration::from_millis(5.0))
                    + self.bug_delay(points::CLOCK_JITTER, Duration::from_micros(500.0));
                *took += extra;
                rebuild.elapsed += extra;
            }
        }
        if self.recording {
            // Advance the clock before draining the journals so an
            // arrival is stamped when its bytes land, not when they left.
            if let RebuildStep::Progress { took, .. } = &step {
                self.clock += *took;
            }
            self.forward_ledger(&mut rebuild.ledger);
            self.forward_fences();
            if matches!(step, RebuildStep::Completed(_)) {
                self.emit(Event::RebuildCompleted {
                    victim: rebuild.victim.index(),
                });
            }
        }
        Ok(step)
    }

    fn step_rebuild_inner(
        &mut self,
        cluster: &mut Cluster,
        rebuild: &mut PhasedRebuild,
    ) -> Result<RebuildStep, RecoverError> {
        loop {
            match rebuild.phase {
                RebuildPhase::FetchSurvivors => {
                    if let Some(id) = rebuild.in_flight.take() {
                        if let Some(backoff) = self.bug_wire_loss(
                            &mut rebuild.ledger,
                            id,
                            &[points::REBUILD_FETCH_DROP],
                        ) {
                            // The survivor fetch was lost on the wire:
                            // re-fetched after the (seed-jittered) backoff.
                            rebuild.in_flight = Some(id);
                            rebuild.elapsed += backoff;
                            return Ok(RebuildStep::Progress {
                                phase: RebuildPhase::FetchSurvivors,
                                took: backoff,
                            });
                        }
                        let took = match rebuild.ledger.try_complete(id, &self.fences) {
                            Ok(t) => cluster.fabric().network.link_transfer(t.bytes),
                            Err(LedgerError::Fenced { .. })
                            | Err(LedgerError::UnknownTransfer { .. }) => Duration::ZERO,
                        };
                        rebuild.elapsed += took;
                        return Ok(RebuildStep::Progress {
                            phase: RebuildPhase::FetchSurvivors,
                            took,
                        });
                    }
                    let Some((from, to, bytes)) = rebuild.fetch_queue.pop_front() else {
                        rebuild.phase = RebuildPhase::Decode;
                        self.emit(Event::RebuildPhase {
                            victim: rebuild.victim.index(),
                            phase: RebuildPhase::Decode.name(),
                        });
                        continue;
                    };
                    let token = self.fences.token(from).unwrap_or(FenceToken {
                        node: from,
                        epoch: u64::MAX,
                    });
                    rebuild.in_flight =
                        Some(rebuild.ledger.begin_with_token(from, to, bytes, token));
                    return Ok(RebuildStep::Progress {
                        phase: RebuildPhase::FetchSurvivors,
                        took: Duration::ZERO,
                    });
                }
                RebuildPhase::Decode => {
                    let Some(gid) = rebuild.decode_queue.pop_front() else {
                        rebuild.phase = RebuildPhase::Place;
                        self.emit(Event::RebuildPhase {
                            victim: rebuild.victim.index(),
                            phase: RebuildPhase::Place.name(),
                        });
                        continue;
                    };
                    let took = self.decode_rebuild_group(cluster, rebuild, gid)?;
                    rebuild.elapsed += took;
                    return Ok(RebuildStep::Progress {
                        phase: RebuildPhase::Decode,
                        took,
                    });
                }
                RebuildPhase::Place => {
                    let Some(item) = rebuild.place_queue.pop_front() else {
                        // Readmit is the first (and only) mutating step, so it
                        // must be a *resting* phase the driver can observe —
                        // and cancel before — rather than something reached
                        // and executed within a single step.
                        rebuild.phase = RebuildPhase::Readmit;
                        self.emit(Event::RebuildPhase {
                            victim: rebuild.victim.index(),
                            phase: RebuildPhase::Readmit.name(),
                        });
                        return Ok(RebuildStep::Progress {
                            phase: RebuildPhase::Readmit,
                            took: Duration::ZERO,
                        });
                    };
                    let bytes = match item {
                        RebuiltItem::Vm(vm) => {
                            rebuild.rebuilt_vms.get(&vm).map(|i| i.len()).unwrap_or(0)
                        }
                        RebuiltItem::Parity(gid, j) => rebuild
                            .rebuilt_parity
                            .get(&(gid, j))
                            .map(|b| b.len())
                            .unwrap_or(0),
                    };
                    let took = cluster.fabric().network.link_transfer(bytes);
                    rebuild.elapsed += took;
                    return Ok(RebuildStep::Progress {
                        phase: RebuildPhase::Place,
                        took,
                    });
                }
                RebuildPhase::Readmit => {
                    let report = self.readmit_rebuild(cluster, rebuild)?;
                    return Ok(RebuildStep::Completed(report));
                }
            }
        }
    }

    /// Decodes one affected group from its intact survivors. A survivor
    /// block that fails checksum verification is treated as one more
    /// erasure — rotten bytes are never a rebuild source.
    fn decode_rebuild_group(
        &mut self,
        cluster: &Cluster,
        rebuild: &mut PhasedRebuild,
        gid: GroupId,
    ) -> Result<Duration, RecoverError> {
        let group = self.placement.groups()[gid.index()].clone();
        let mut corrupt_here = 0usize;
        let mut shards: Vec<Option<Vec<u8>>> = Vec::with_capacity(group.width());
        for &member in &group.data {
            let host = cluster.node_of(member);
            let shard = if rebuild.down.contains(&host)
                || rebuild.victim_vms.contains(&member)
                || rebuild.corrupt_vms.contains(&member)
            {
                None
            } else {
                match self
                    .node_stores
                    .get(host.index())
                    .and_then(|s| s.verify_committed(member))
                {
                    Some(true) => self.committed_image(cluster, member).map(|i| i.to_vec()),
                    Some(false) => {
                        corrupt_here += 1;
                        None
                    }
                    None => None,
                }
            };
            shards.push(shard);
        }
        for j in 0..self.parity_blocks {
            let holder = group.parity_nodes[j];
            let key = (gid, j);
            let shard = if rebuild.down.contains(&holder)
                || rebuild.victim_parity.contains(&key)
                || rebuild.corrupt_parity.contains(&key)
            {
                None
            } else {
                match self.parity.verify_committed(key) {
                    Some(true) => self.parity.committed(key).map(|b| b.to_vec()),
                    Some(false) => {
                        corrupt_here += 1;
                        None
                    }
                    None => None,
                }
            };
            shards.push(shard);
        }
        rebuild.corrupt_sources += corrupt_here;

        self.code.reconstruct(&mut shards).map_err(|e| match e {
            CodeError::TooManyErasures { .. } => RecoverError::DataLoss {
                node: rebuild.victim,
                group: gid,
                reason: e.to_string(),
            },
            other => RecoverError::Protocol(ProtocolError::Code(other)),
        })?;

        // A successful reconstruct() fills every erased slot; a None here
        // means the decoder broke its contract. Surface that as a typed
        // error rather than a panic — the rebuild aborts and the caller
        // sees exactly which slot came back empty.
        let missing_shard = |what: String| {
            RecoverError::Protocol(ProtocolError::Unrecoverable {
                node: rebuild.victim,
                reason: format!("decoder returned no data for {what} in {gid}"),
            })
        };
        for (pos, &member) in group.data.iter().enumerate() {
            if rebuild.victim_vms.contains(&member) || rebuild.corrupt_vms.contains(&member) {
                let image = shards[pos]
                    .clone()
                    .ok_or_else(|| missing_shard(format!("{member}")))?;
                rebuild.rebuilt_vms.insert(member, image);
                rebuild.place_queue.push_back(RebuiltItem::Vm(member));
            }
        }
        for j in 0..self.parity_blocks {
            let key = (gid, j);
            if rebuild.victim_parity.contains(&key) || rebuild.corrupt_parity.contains(&key) {
                let block = shards[group.data.len() + j]
                    .clone()
                    .ok_or_else(|| missing_shard(format!("parity block {j}")))?;
                rebuild.rebuilt_parity.insert(key, block);
                rebuild.place_queue.push_back(RebuiltItem::Parity(gid, j));
            }
        }

        let image_len = shards.iter().flatten().map(|s| s.len()).next().unwrap_or(0);
        Ok(cluster
            .fabric()
            .memory
            .xor(image_len * (group.width() + self.parity_blocks - 1), 1))
    }

    /// The final rebuild step: applies the staged state atomically
    /// according to the rebuild's mode and (for crash modes) rolls the
    /// cluster back to the committed epoch.
    fn readmit_rebuild(
        &mut self,
        cluster: &mut Cluster,
        rebuild: &mut PhasedRebuild,
    ) -> Result<RecoveryReport, RecoverError> {
        let epoch = rebuild.epoch;
        let rebuilt_bytes: usize = rebuild.rebuilt_vms.values().map(|i| i.len()).sum::<usize>()
            + rebuild
                .rebuilt_parity
                .values()
                .map(|b| b.len())
                .sum::<usize>();

        if rebuild.mode == RebuildMode::Resync {
            if !cluster.is_up(rebuild.victim) {
                cluster.repair_node(rebuild.victim);
            }
            if let Some(store) = self.node_stores.get_mut(rebuild.victim.index()) {
                store.current_mut().clear();
                store.committed_mut().clear();
            }
            self.fences.readmit(rebuild.victim);
            let took = cluster.fabric().network.link_transfer(64);
            rebuild.elapsed += took;
            return Ok(RecoveryReport {
                failed_node: rebuild.victim,
                recovered_vms: Vec::new(),
                parity_rebuilt: Vec::new(),
                repair_time: rebuild.elapsed,
                rolled_back_to: None,
            });
        }

        if rebuild.mode != RebuildMode::Scrub {
            // Rotate the victim's fence epoch: anything it launched
            // pre-failure is invalidated. In-place repair readmits it
            // immediately; failover leaves it fenced until resync.
            self.fences.fence(rebuild.victim);
            if rebuild.mode == RebuildMode::InPlace {
                self.fences.readmit(rebuild.victim);
            }

            // Everything held by *any* down node is gone: wipe local
            // stores and evict parity before reseeding.
            let down_now: Vec<NodeId> = cluster
                .node_ids()
                .into_iter()
                .filter(|&n| !cluster.is_up(n))
                .collect();
            for &d in &down_now {
                if let Some(store) = self.node_stores.get_mut(d.index()) {
                    *store = DoubleBufferedStore::new();
                }
                for key in self.placement.parity_slots_on(d) {
                    self.parity.evict(key);
                }
            }
        }

        match rebuild.mode {
            RebuildMode::InPlace => {
                // Bring the node back; reseed its local store and parity
                // blocks. Seeding writes both buffers directly — a
                // wholesale commit here would promote unrelated
                // in-progress captures.
                if !cluster.is_up(rebuild.victim) {
                    cluster.repair_node(rebuild.victim);
                }
                let store = &mut self.node_stores[rebuild.victim.index()];
                for vm in &rebuild.victim_vms {
                    if let Some(image) = rebuild.rebuilt_vms.get(vm) {
                        store.current_mut().insert_image(*vm, epoch, image.clone());
                        store
                            .committed_mut()
                            .insert_image(*vm, epoch, image.clone());
                    }
                }
                for key in &rebuild.victim_parity {
                    if let Some(block) = rebuild.rebuilt_parity.get(key) {
                        self.parity.seed(*key, block.clone());
                    }
                }
            }
            RebuildMode::Failover => {
                // Re-home each lost VM, then each lost parity block,
                // wherever the placement's one chooser puts it.
                let victim = rebuild.victim;
                let no_home = |what: String| {
                    RecoverError::Protocol(ProtocolError::Unrecoverable {
                        node: victim,
                        reason: format!("no orthogonality-preserving {what}"),
                    })
                };
                for vm in &rebuild.victim_vms {
                    let Some(image) = rebuild.rebuilt_vms.get(vm) else {
                        continue;
                    };
                    let dest = self
                        .placement
                        .host_for(cluster, Member::Vm(*vm), Some(victim))
                        .ok_or_else(|| no_home(format!("host for {vm}")))?;
                    cluster.migrate_vm(*vm, dest);
                    // Seed both buffers directly: committing the whole
                    // dest store would promote any in-progress captures
                    // it happens to hold.
                    let store = &mut self.node_stores[dest.index()];
                    store.current_mut().insert_image(*vm, epoch, image.clone());
                    store
                        .committed_mut()
                        .insert_image(*vm, epoch, image.clone());
                }
                for key in &rebuild.victim_parity {
                    let Some(block) = rebuild.rebuilt_parity.get(key) else {
                        continue;
                    };
                    let (gid, slot) = *key;
                    let dest = self
                        .placement
                        .host_for(cluster, Member::Parity(gid, slot), Some(victim))
                        .ok_or_else(|| no_home(format!("parity home for {gid}")))?;
                    self.placement
                        .rehome_parity(cluster, gid, victim, dest)
                        .map_err(|e| no_home(e.to_string()))?;
                    self.parity.seed(*key, block.clone());
                }
            }
            RebuildMode::Scrub => {}
            RebuildMode::Resync => unreachable!("handled above"),
        }

        // Rotten survivor blocks are repaired in situ on their live
        // hosts (all modes; for Scrub this is the entire rebuild).
        for vm in &rebuild.corrupt_vms {
            let Some(image) = rebuild.rebuilt_vms.get(vm) else {
                continue;
            };
            let host = cluster.node_of(*vm);
            if !cluster.is_up(host) {
                continue;
            }
            if let Some(store) = self.node_stores.get_mut(host.index()) {
                store
                    .committed_mut()
                    .insert_image(*vm, epoch, image.clone());
                // The current-buffer copy may carry the same rot (a
                // rollback clones committed into current); repair it too
                // so the next incremental capture has a sound base.
                if store.verify_current(*vm) == Some(false) {
                    store.current_mut().insert_image(*vm, epoch, image.clone());
                }
            }
        }
        for key in &rebuild.corrupt_parity {
            if let Some(block) = rebuild.rebuilt_parity.get(key) {
                self.parity.seed(*key, block.clone());
            }
        }

        let took = cluster.fabric().memory.copy(rebuilt_bytes);
        rebuild.elapsed += took;

        if rebuild.mode == RebuildMode::Scrub {
            let mut parity_rebuilt: Vec<GroupId> =
                rebuild.corrupt_parity.iter().map(|&(gid, _)| gid).collect();
            parity_rebuilt.sort();
            parity_rebuilt.dedup();
            return Ok(RecoveryReport {
                failed_node: rebuild.victim,
                recovered_vms: rebuild.corrupt_vms.clone(),
                parity_rebuilt,
                repair_time: rebuild.elapsed,
                rolled_back_to: None,
            });
        }

        self.rollback_to_committed(cluster);

        let mut parity_rebuilt: Vec<GroupId> =
            rebuild.victim_parity.iter().map(|&(gid, _)| gid).collect();
        parity_rebuilt.sort();
        parity_rebuilt.dedup();
        Ok(RecoveryReport {
            failed_node: rebuild.victim,
            recovered_vms: rebuild.victim_vms.clone(),
            parity_rebuilt,
            repair_time: rebuild.elapsed,
            rolled_back_to: Some(epoch),
        })
    }

    /// Cancels an in-flight rebuild. The pipeline stages nothing into
    /// the protocol before readmit, so this is a pure drop: committed
    /// state is untouched and a fresh [`DvdcProtocol::begin_rebuild`]
    /// against the (possibly changed) down set is always valid.
    pub fn abort_rebuild(&mut self, rebuild: PhasedRebuild) {
        let mut rebuild = rebuild;
        if self.recording {
            rebuild.ledger.drop_all();
            self.forward_ledger(&mut rebuild.ledger);
            self.emit(Event::RebuildAborted {
                victim: rebuild.victim.index(),
                phase: rebuild.phase.name(),
            });
        }
        drop(rebuild);
    }

    /// Drives one phased rebuild to completion without interruption:
    /// begin, step until [`RebuildStep::Completed`], and on any error
    /// abort the pipeline so its span terminates in the event stream
    /// before the error propagates. Recovery, failover, scrub repair and
    /// resync are this with different modes.
    pub fn rebuild_to_completion(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
        mode: RebuildMode,
    ) -> Result<RecoveryReport, RecoverError> {
        let mut rebuild = self.begin_rebuild(cluster, node, mode)?;
        loop {
            match self.step_rebuild(cluster, &mut rebuild) {
                Ok(RebuildStep::Progress { .. }) => {}
                Ok(RebuildStep::Completed(report)) => return Ok(report),
                Err(e) => {
                    self.abort_rebuild(rebuild);
                    return Err(e);
                }
            }
        }
    }

    /// One integrity scrub pass: verifies the checksum of every
    /// committed VM image and parity block on live nodes, then repairs
    /// any rotten block from its group's surviving redundancy via the
    /// phased rebuild pipeline (the rotten block is an erasure, never a
    /// decode source). Returns what was verified, found, and repaired.
    ///
    /// Fails with [`RecoverError::DataLoss`] if corruption (plus any
    /// concurrent node failures) exceeds a group's tolerance — honest
    /// data loss, recorded rather than panicked.
    pub fn scrub(&mut self, cluster: &mut Cluster) -> Result<ScrubReport, RecoverError> {
        self.ensure_node_stores(cluster.node_count());
        if self.buggify_on && self.committed_epoch.is_some() {
            // Buggify's scrub-read fault: one committed block rots right
            // under the scrubber (a latent media error surfacing at read
            // time). Injected through the same corruption write path the
            // chaos plans use, so this very pass must detect it via
            // checksums and repair it from group redundancy.
            if let Some(magnitude) = self
                .buggify
                .as_ref()
                .and_then(|b| b.roll(points::SCRUB_READ_ERROR))
            {
                let nodes = cluster.up_nodes();
                if !nodes.is_empty() {
                    let pick = nodes[(magnitude * nodes.len() as f64) as usize % nodes.len()];
                    let seed = self.bug_seed() ^ (magnitude.to_bits()).rotate_left(17);
                    self.apply_corruption(cluster, pick, 1, seed);
                }
            }
        }
        let sweep = self.sweep_integrity(cluster);
        let found = sweep.corrupt_vms.len() + sweep.corrupt_parity.len();
        // The rebuild is named after the node holding the first rotten
        // block. A scrub rebuild has no crash victims, so it repairs
        // exactly the blocks this sweep found.
        let victim = match (sweep.corrupt_vms.first(), sweep.corrupt_parity.first()) {
            (Some(&vm), _) => Some(cluster.node_of(vm)),
            (None, Some(&(gid, j))) => Some(self.placement.groups()[gid.index()].parity_nodes[j]),
            (None, None) => None,
        };
        let (repaired, scrub_time) = match victim {
            Some(victim) if self.committed_epoch.is_some() => {
                let report = self.rebuild_to_completion(cluster, victim, RebuildMode::Scrub)?;
                (found, report.repair_time)
            }
            _ => (0, Duration::ZERO),
        };
        self.emit(Event::ScrubCompleted {
            verified: sweep.verified,
            corrupt: found,
            repaired,
        });
        Ok(ScrubReport {
            blocks_verified: sweep.verified,
            corrupt_found: found,
            repaired,
            scrub_time,
        })
    }

    /// The write path of a silent-corruption fault
    /// (`dvdc_faults::FaultKind::Corruption`): flips one byte in each of
    /// up to `blocks` distinct committed blocks (VM images and parity)
    /// held by `node`, chosen deterministically from `seed`. Checksums
    /// are *not* refreshed — that is the point: only verification
    /// notices. Returns how many blocks were rotted.
    pub fn apply_corruption(
        &mut self,
        cluster: &Cluster,
        node: NodeId,
        blocks: u8,
        seed: u64,
    ) -> usize {
        self.ensure_node_stores(cluster.node_count());
        let mut targets: Vec<RebuiltItem> = Vec::new();
        if let Some(store) = self.node_stores.get(node.index()) {
            targets.extend(store.committed().vm_ids().map(RebuiltItem::Vm));
        }
        for (gid, j) in self.placement.parity_slots_on(node) {
            if self.parity.committed((gid, j)).is_some() {
                targets.push(RebuiltItem::Parity(gid, j));
            }
        }
        if targets.is_empty() {
            return 0;
        }
        let mut state = seed ^ 0xa076_1d64_78bd_642f;
        let take = (blocks as usize).min(targets.len());
        // Partial Fisher–Yates: the first `take` entries become a
        // deterministic sample without replacement, so every hit rots a
        // *distinct* block (two flips on one block would cancel).
        for i in 0..take {
            let j = i + (splitmix(&mut state) as usize) % (targets.len() - i);
            targets.swap(i, j);
        }
        let mut hit = 0usize;
        for item in targets.into_iter().take(take) {
            let offset = splitmix(&mut state) as usize;
            let ok = match item {
                RebuiltItem::Vm(vm) => {
                    self.node_stores[node.index()].corrupt_committed_byte(vm, offset)
                }
                RebuiltItem::Parity(gid, j) => self.parity.corrupt_committed((gid, j), offset),
            };
            if ok {
                hit += 1;
            }
        }
        if hit > 0 {
            self.emit(Event::CorruptionInjected {
                node: node.index(),
                blocks: hit,
            });
        }
        hit
    }

    /// Rolls every VM on an up node back to its committed checkpoint and
    /// resets the capture engine (the coordinated rollback of recovery).
    fn rollback_to_committed(&mut self, cluster: &mut Cluster) {
        let mut restore: Vec<(VmId, Vec<u8>)> = Vec::new();
        for vm in cluster.vm_ids() {
            let node = cluster.node_of(vm);
            if cluster.is_up(node) {
                if let Some(img) = self.node_stores[node.index()].committed_image(vm) {
                    restore.push((vm, img.to_vec()));
                }
            }
        }
        rollback_vms(cluster, &restore);
        self.checkpointer.reset_all();
        // Any in-progress parity (including deltas partially applied by a
        // round that died mid-flight) no longer matches a capture stream:
        // discard it and force the next round onto the full re-encode
        // path. Same for in-progress captures in the local stores — they
        // belong to the round that just died.
        self.parity.rollback();
        for store in &mut self.node_stores {
            store.discard_round();
        }
    }

    /// Opens a phase-interruptible round. The returned [`PhasedRound`] is
    /// advanced one discrete step at a time via
    /// [`DvdcProtocol::step_round`]; [`DvdcProtocol::run_round`] is
    /// exactly this followed by stepping to completion.
    ///
    /// Fails with [`ProtocolError::NodeDown`] if a down node still hosts
    /// VMs or parity (an evacuated corpse is fine — the round proceeds
    /// degraded without it).
    pub fn begin_round(&mut self, cluster: &Cluster) -> Result<PhasedRound, ProtocolError> {
        if let Some(&down) = cluster
            .node_ids()
            .iter()
            .find(|&&n| !cluster.is_up(n) && self.placement.holds_state(cluster, n))
        {
            return Err(ProtocolError::NodeDown { node: down });
        }
        self.ensure_node_stores(cluster.node_count());
        let mut ledger = TransferLedger::new();
        if self.recording {
            ledger.enable_journal();
            self.emit(Event::RoundBegin {
                epoch: self.next_epoch,
            });
            self.emit(Event::RoundPhase {
                epoch: self.next_epoch,
                phase: RoundPhase::Capture.name(),
            });
        }
        Ok(PhasedRound {
            epoch: self.next_epoch,
            phase: RoundPhase::Capture,
            capture_queue: cluster.vm_ids().into(),
            vm_deltas: BTreeMap::new(),
            transfer_queue: VecDeque::new(),
            ledger,
            in_flight: None,
            fold_queue: self.placement.groups().iter().map(|g| g.id).collect(),
            delta_base: None,
            delta_base_resolved: false,
            ack_queue: VecDeque::new(),
            payload_bytes: 0,
            outbound: vec![0; cluster.node_count()],
            parity_inbound: vec![0; cluster.node_count()],
            parity_xor: vec![0; cluster.node_count()],
            redundancy_bytes: 0,
            parity_update_bytes: 0,
        })
    }

    /// Executes one discrete unit of round work: one VM capture, one
    /// transfer launch or arrival, one group's parity fold, one commit
    /// ack, or the final promote. Phase transitions happen when the
    /// current phase's queue drains.
    pub fn step_round(
        &mut self,
        cluster: &mut Cluster,
        round: &mut PhasedRound,
    ) -> Result<RoundStep, ProtocolError> {
        let mut step = self.step_round_inner(cluster, round)?;
        if self.buggify_on {
            if let RoundStep::Progress { phase, took } = &mut step {
                let point = match phase {
                    RoundPhase::Capture => points::ROUND_CAPTURE_DELAY,
                    RoundPhase::Transfer => points::ROUND_TRANSFER_DELAY,
                    RoundPhase::Fold => points::ROUND_FOLD_DELAY,
                    RoundPhase::Commit => points::ROUND_COMMIT_DELAY,
                };
                *took += self.bug_delay(point, Duration::from_millis(5.0));
                *took += self.bug_delay(points::CLOCK_JITTER, Duration::from_micros(500.0));
            }
        }
        if self.recording {
            // Advance the clock before draining the ledger journal so an
            // arrival is stamped when its bytes land, not when they left.
            if let RoundStep::Progress { took, .. } = &step {
                self.clock += *took;
            }
            self.forward_ledger(&mut round.ledger);
            if matches!(step, RoundStep::Committed(_)) {
                self.emit(Event::RoundCommitted { epoch: round.epoch });
            }
        }
        Ok(step)
    }

    fn step_round_inner(
        &mut self,
        cluster: &mut Cluster,
        round: &mut PhasedRound,
    ) -> Result<RoundStep, ProtocolError> {
        loop {
            match round.phase {
                RoundPhase::Capture => {
                    let Some(vm) = round.capture_queue.pop_front() else {
                        round.phase = RoundPhase::Transfer;
                        self.emit(Event::RoundPhase {
                            epoch: round.epoch,
                            phase: RoundPhase::Transfer.name(),
                        });
                        continue;
                    };
                    let node = cluster.node_of(vm);
                    // Integrity gate: a checksum-rotten current-buffer
                    // image must never serve as an incremental base.
                    // Resetting forces a full recapture from live guest
                    // memory, which also heals the stored copy.
                    if self
                        .node_stores
                        .get(node.index())
                        .and_then(|s| s.verify_current(vm))
                        == Some(false)
                    {
                        self.checkpointer.reset_vm(vm);
                    }
                    let mut ckpt = {
                        let mem = cluster.vm_mut(vm).memory_mut();
                        self.checkpointer.capture(vm, round.epoch, mem)
                    };
                    // Extract the parity-ready `old ⊕ new` runs *before*
                    // folding the capture in — afterwards the old bytes
                    // are gone.
                    if let CheckpointPayload::Incremental { base_epoch, .. } = &ckpt.payload {
                        let store = self.node_stores[node.index()].current();
                        if store.epoch(vm) == Some(*base_epoch) {
                            if let Some(old) = store.image(vm) {
                                if let Some(delta) = xor_runs(&ckpt.payload, old) {
                                    round.vm_deltas.insert(vm, delta);
                                }
                            }
                        }
                    }
                    if self.node_stores[node.index()].apply(&ckpt).is_err() {
                        // Stale base (e.g. after an aborted recovery wiped
                        // this node's store): fall back to a full capture.
                        // Any delta extracted above no longer applies.
                        round.vm_deltas.remove(&vm);
                        self.checkpointer.reset_vm(vm);
                        ckpt = {
                            let mem = cluster.vm_mut(vm).memory_mut();
                            self.checkpointer.capture(vm, round.epoch, mem)
                        };
                        self.node_stores[node.index()].apply(&ckpt)?;
                    }
                    round.payload_bytes += ckpt.size_bytes();
                    // The payload (delta) travels to each parity holder.
                    round.outbound[node.index()] += ckpt.size_bytes() * self.parity_blocks;
                    if ckpt.size_bytes() > 0 {
                        let holders = self.placement.group_of(vm).parity_nodes.clone();
                        for holder in holders {
                            round
                                .transfer_queue
                                .push_back((node, holder, ckpt.size_bytes()));
                        }
                    }
                    let took = cluster.fabric().memory.copy(ckpt.size_bytes());
                    return Ok(RoundStep::Progress {
                        phase: RoundPhase::Capture,
                        took,
                    });
                }
                RoundPhase::Transfer => {
                    // Each shipment is two steps — launch, then arrival —
                    // so a fault event can land with the bytes on the
                    // wire (the ledger then reports the victim involved).
                    if let Some(id) = round.in_flight.take() {
                        if let Some(backoff) = self.bug_wire_loss(
                            &mut round.ledger,
                            id,
                            &[points::TRANSFER_ARRIVE_DROP, points::TRANSFER_ARRIVE_TORN],
                        ) {
                            // Lost or torn on the wire: the ledger keeps
                            // the transfer open, the arrival re-runs after
                            // the (seed-jittered) backoff.
                            round.in_flight = Some(id);
                            return Ok(RoundStep::Progress {
                                phase: RoundPhase::Transfer,
                                took: backoff,
                            });
                        }
                        let took = match round.ledger.try_complete(id, &self.fences) {
                            Ok(t) => cluster.fabric().network.link_transfer(t.bytes),
                            // Fenced sender: the bytes crossed the wire but
                            // the receiver discards them (they still cost
                            // their transfer time). Unknown handle: the
                            // transfer was already dropped when a node went
                            // dark — nothing to deliver.
                            Err(LedgerError::Fenced { .. })
                            | Err(LedgerError::UnknownTransfer { .. }) => Duration::ZERO,
                        };
                        if self.bug(points::TRANSFER_ARRIVE_DUPLICATE) {
                            // Deliver the same handle again: the ledger
                            // must reject the duplicate — a regression
                            // here double-applies a delta.
                            assert!(
                                matches!(
                                    round.ledger.try_complete(id, &self.fences),
                                    Err(LedgerError::UnknownTransfer { .. })
                                ),
                                "duplicate delivery of transfer {id} was not rejected"
                            );
                        }
                        return Ok(RoundStep::Progress {
                            phase: RoundPhase::Transfer,
                            took,
                        });
                    }
                    let Some((from, to, bytes)) = round.transfer_queue.pop_front() else {
                        round.phase = RoundPhase::Fold;
                        self.emit(Event::RoundPhase {
                            epoch: round.epoch,
                            phase: RoundPhase::Fold.name(),
                        });
                        continue;
                    };
                    // A fenced sender gets a never-valid token: the ledger
                    // still tracks the transfer for involvement/abort
                    // accounting, but its payload is rejected at arrival.
                    let token = self.fences.token(from).unwrap_or(FenceToken {
                        node: from,
                        epoch: u64::MAX,
                    });
                    round.in_flight = Some(round.ledger.begin_with_token(from, to, bytes, token));
                    return Ok(RoundStep::Progress {
                        phase: RoundPhase::Transfer,
                        took: Duration::ZERO,
                    });
                }
                RoundPhase::Fold => {
                    if !round.delta_base_resolved {
                        // The standing parity is a valid delta base only
                        // if it reflects exactly the committed epoch (on
                        // the first round neither exists).
                        round.delta_base = match (self.parity.delta_base(), self.committed_epoch) {
                            (Some(pe), Some(ce)) if pe == ce && self.incremental_parity => Some(pe),
                            _ => None,
                        };
                        round.delta_base_resolved = true;
                    }
                    let Some(gid) = round.fold_queue.pop_front() else {
                        let mut holders: Vec<NodeId> = self
                            .placement
                            .groups()
                            .iter()
                            .flat_map(|g| g.parity_nodes.iter().copied())
                            .collect();
                        holders.sort();
                        holders.dedup();
                        round.ack_queue = holders.into();
                        round.phase = RoundPhase::Commit;
                        self.emit(Event::RoundPhase {
                            epoch: round.epoch,
                            phase: RoundPhase::Commit.name(),
                        });
                        continue;
                    };
                    let took = self.fold_group(cluster, round, gid);
                    return Ok(RoundStep::Progress {
                        phase: RoundPhase::Fold,
                        took,
                    });
                }
                RoundPhase::Commit => {
                    if round.ack_queue.pop_front().is_some() {
                        // First commit phase: the holder acks that its
                        // working generation is fully staged. The old
                        // generation stays authoritative until *every*
                        // holder has acked.
                        let took = cluster.fabric().network.link_transfer(64)
                            + self.bug_delay(points::COMMIT_ACK_DELAY, Duration::from_millis(5.0));
                        return Ok(RoundStep::Progress {
                            phase: RoundPhase::Commit,
                            took,
                        });
                    }
                    if self.bug(points::COMMIT_PROMOTE_DELAY) {
                        // The promote is held back one step (a slow
                        // coordinator): the committed generation stays
                        // authoritative for the extra beat, so a fault
                        // landing in the gap aborts cleanly.
                        return Ok(RoundStep::Progress {
                            phase: RoundPhase::Commit,
                            took: Duration::from_millis(1.0),
                        });
                    }
                    return Ok(RoundStep::Committed(self.promote_round(cluster, round)));
                }
            }
        }
    }

    /// Folds one group's parity: the incremental delta path when every
    /// member shipped runs against the standing base and all blocks are
    /// present, a full re-encode otherwise. Returns the simulated step
    /// duration (the slowest holder's XOR time).
    fn fold_group(&mut self, cluster: &Cluster, round: &mut PhasedRound, gid: GroupId) -> Duration {
        let group = self.placement.groups()[gid.index()].clone();
        let member_runs: Option<Vec<(usize, &Vec<XorRun>)>> = round.delta_base.and_then(|base| {
            let mut all = Vec::with_capacity(group.data.len());
            for (pos, vm) in group.data.iter().enumerate() {
                match round.vm_deltas.get(vm) {
                    Some((b, runs)) if *b == base => all.push((pos, runs)),
                    _ => return None, // full capture or stale base
                }
            }
            let complete = (0..self.parity_blocks).all(|j| self.parity.current((gid, j)).is_some());
            complete.then_some(all)
        });

        if let Some(member_runs) = member_runs {
            let dirty: usize = member_runs
                .iter()
                .map(|(_, runs)| runs.iter().map(|r| r.len()).sum::<usize>())
                .sum();
            for j in 0..self.parity_blocks {
                let holder = group.parity_nodes[j];
                // Invariant: `member_runs` is only Some when the
                // `complete` check above saw current((gid, j)).is_some()
                // for every j, and nothing between the check and this
                // loop removes parity entries — apply_delta only mutates
                // block contents in place.
                let block = self
                    .parity
                    .current_mut((gid, j))
                    .expect("complete-check guarantees a current parity block");
                for (pos, runs) in &member_runs {
                    for run in runs.iter() {
                        self.code
                            .apply_delta(j, block, *pos, run.offset, &run.bytes);
                    }
                }
                let block_len = block.len();
                // The fold mutated the block in place: refresh its stored
                // checksum so verification tracks the new contents.
                self.parity.rehash_current((gid, j));
                round.redundancy_bytes += block_len;
                round.parity_inbound[holder.index()] += dirty;
                round.parity_xor[holder.index()] += dirty;
                round.parity_update_bytes += dirty;
            }
            cluster.fabric().memory.xor(dirty, 1)
        } else {
            let images: Vec<&[u8]> = group
                .data
                .iter()
                .map(|&vm| {
                    let node = cluster.node_of(vm);
                    self.node_stores[node.index()]
                        .current_image(vm)
                        // Invariant: the round's capture phase runs over
                        // every VM before any group folds, and a store's
                        // current image persists across rounds once set —
                        // so a full-group re-encode always has sources.
                        .expect("capture phase precedes fold: current image present")
                })
                .collect();
            let parity = self.code.encode(&images);
            let image_len = images.first().map(|i| i.len()).unwrap_or(0);
            for (j, block) in parity.into_iter().enumerate() {
                round.redundancy_bytes += block.len();
                round.parity_update_bytes += block.len();
                let holder = group.parity_nodes[j];
                round.parity_inbound[holder.index()] += image_len * group.data.len();
                round.parity_xor[holder.index()] += image_len * group.data.len();
                self.parity.stage((gid, j), block);
            }
            cluster.fabric().memory.xor(image_len * group.data.len(), 1)
        }
    }

    /// The second commit phase: every holder has acked, so the working
    /// generation atomically becomes the committed one, local stores
    /// promote, and the round's byte counts become the report.
    fn promote_round(&mut self, cluster: &Cluster, round: &mut PhasedRound) -> RoundReport {
        // Integrity gate: a checksum-rotten working block is never
        // promoted into a committed epoch. A group whose staged parity
        // fails verification is re-encoded from the members' (intact)
        // current images first.
        let rotten: Vec<GroupId> = self
            .placement
            .groups()
            .iter()
            .filter(|g| {
                (0..self.parity_blocks)
                    .any(|j| self.parity.verify_current((g.id, j)) == Some(false))
            })
            .map(|g| g.id)
            .collect();
        for gid in rotten {
            let group = self.placement.groups()[gid.index()].clone();
            let images: Vec<&[u8]> = group
                .data
                .iter()
                .map(|&vm| {
                    let node = cluster.node_of(vm);
                    self.node_stores[node.index()]
                        .current_image(vm)
                        // Invariant: promote_round only runs after every
                        // member acked its capture, so each VM in a
                        // rotten group still holds the image the staged
                        // parity was (supposed to be) computed from.
                        .expect("round fully captured before promote: current image present")
                })
                .collect();
            let parity = self.code.encode(&images);
            for (j, block) in parity.into_iter().enumerate() {
                self.parity.stage((gid, j), block);
            }
        }

        for store in &mut self.node_stores {
            store.commit_round();
        }
        self.parity.promote(round.epoch);
        self.committed_epoch = Some(round.epoch);
        self.next_epoch = round.epoch + 1;

        // Nodes work in parallel: the busiest node bounds each step.
        let load = RoundLoad {
            capture: round
                .outbound
                .iter()
                .map(|&b| b / self.parity_blocks)
                .max()
                .unwrap_or(0),
            wire: round
                .outbound
                .iter()
                .chain(&round.parity_inbound)
                .copied()
                .max()
                .unwrap_or(0),
            fold: round.parity_xor.iter().copied().max().unwrap_or(0),
        };
        RoundReport {
            epoch: round.epoch,
            load,
            payload_bytes: round.payload_bytes,
            network_bytes: round.outbound.iter().sum(),
            redundancy_bytes: round.redundancy_bytes,
            parity_update_bytes: round.parity_update_bytes,
        }
    }

    /// Abandons an interrupted round: the capture engine resets (the next
    /// round re-captures full images), and the parity working generation
    /// rolls back to committed with the delta base invalidated. VM
    /// memories are *not* touched — a failure-driven abort is followed by
    /// [`DvdcProtocol::recover`], which performs the coordinated
    /// rollback; a voluntary abort simply discards checkpoint progress.
    ///
    /// The epoch counter does not advance: the aborted epoch number is
    /// reused by the next round, which never observes the difference
    /// because nothing of the aborted round survives.
    pub fn abort_round(&mut self, round: PhasedRound) {
        let mut round = round;
        if self.recording {
            // Account (and journal) anything still on the wire, then
            // close the round's span.
            round.ledger.drop_all();
            self.forward_ledger(&mut round.ledger);
            self.emit(Event::RoundAborted {
                epoch: round.epoch,
                phase: round.phase.name(),
            });
        }
        drop(round);
        self.checkpointer.reset_all();
        self.parity.rollback();
        // Discard the aborted round's captures from every local store;
        // a later commit (e.g. failover re-homing images elsewhere into
        // the same store) must never promote them.
        for store in &mut self.node_stores {
            store.discard_round();
        }
    }

    /// Whether `node` holds pending state of this round: it hosts VMs
    /// (their captures live only in its local store), holds parity blocks
    /// (its working generation is part of the two-phase commit), or is an
    /// endpoint of an in-flight transfer. A failure of an involved node
    /// forces an abort; an uninvolved node (fully evacuated) can die
    /// without stopping the round.
    pub fn round_involves(&self, cluster: &Cluster, round: &PhasedRound, node: NodeId) -> bool {
        self.placement.holds_state(cluster, node) || round.ledger.involves(node)
    }

    /// Reports the round's in-flight shipment as failed because `node` —
    /// one of its endpoints — just lost its network path (a transient
    /// partition cut the wire mid-flight). Bounded retry with exponential
    /// backoff: the ledger keeps the transfer open so the arrival step
    /// re-runs once the path heals, and [`RetryDecision::Exhausted`] at
    /// the cap drops the payload — the caller must then take its full
    /// round-abort path. Returns `None` when no in-flight transfer
    /// touches `node`.
    pub fn fail_in_flight_transfer(
        &mut self,
        round: &mut PhasedRound,
        node: NodeId,
        policy: RetryPolicy,
    ) -> Option<RetryDecision> {
        let id = round.in_flight?;
        if !round.ledger.involves(node) {
            return None;
        }
        let decision = match round.ledger.record_failure(id, policy) {
            Ok(decision) => {
                if matches!(decision, RetryDecision::Exhausted { .. }) {
                    round.in_flight = None;
                }
                Some(decision)
            }
            Err(_) => None,
        };
        self.forward_ledger(&mut round.ledger);
        decision
    }

    /// Fences `node` immediately: its outstanding tokens go stale and it
    /// cannot launch new transfers until readmitted. Used when a detector
    /// confirms a node dead but there is no state to re-home (the node
    /// was already evacuated) — [`DvdcProtocol::recover_failover`]
    /// fences internally for the state-holding case.
    pub fn fence_node(&mut self, node: NodeId) {
        self.fences.fence(node);
        self.forward_fences();
    }

    /// Rejoin path for a node that was wrongly failed over: it was hung
    /// or partitioned when the detector confirmed it dead, the cluster
    /// fenced it and re-homed its state, and now it has woken up holding
    /// a stale view of a round that no longer exists. Its memory is
    /// discarded wholesale (the failover already rebuilt everything it
    /// held from parity), it is readmitted to the fence registry under
    /// its post-fence epoch, and it rejoins as an empty host ready to
    /// receive migrated VMs or re-homed parity. Returns the committed
    /// epoch it resynced to.
    ///
    /// Fails with [`ProtocolError::Unrecoverable`] if the node still
    /// holds VMs or parity responsibilities — that means no failover
    /// re-homed them and the caller wants [`DvdcProtocol::recover`]
    /// instead.
    pub fn resync_node(
        &mut self,
        cluster: &mut Cluster,
        node: NodeId,
    ) -> Result<u64, ProtocolError> {
        let epoch = self
            .committed_epoch
            .ok_or(ProtocolError::NoCommittedCheckpoint)?;
        self.rebuild_to_completion(cluster, node, RebuildMode::Resync)?;
        Ok(epoch)
    }
}

impl DvdcProtocol {
    /// The last fully committed epoch, if any.
    pub fn committed_epoch(&self) -> Option<u64> {
        self.committed_epoch
    }

    /// Executes one coordinated checkpoint round over all up nodes.
    ///
    /// One atomic round = a phased round stepped to completion with no
    /// interruption: capture → transfer → fold → two-phase commit.
    pub fn run_round(&mut self, cluster: &mut Cluster) -> Result<RoundReport, ProtocolError> {
        let mut round = self.begin_round(cluster)?;
        loop {
            match self.step_round(cluster, &mut round)? {
                RoundStep::Progress { .. } => {}
                RoundStep::Committed(report) => return Ok(report),
            }
        }
    }

    /// Recovers from the failure of `failed` (which must already be marked
    /// down via [`Cluster::fail_node`]). On success the node is repaired
    /// in place, lost state is rebuilt, and the cluster has rolled back to
    /// [`DvdcProtocol::committed_epoch`].
    ///
    /// Repair-in-place recovery = a phased rebuild stepped to completion
    /// with no interruption: fetch survivors → decode → place → readmit.
    /// The event-driven drivers (`phased::run_round_with_detection`)
    /// instead advance the same machine step by step so a second failure
    /// can land mid-rebuild.
    pub fn recover(
        &mut self,
        cluster: &mut Cluster,
        failed: NodeId,
    ) -> Result<RecoveryReport, ProtocolError> {
        self.recover_typed(cluster, failed)
            .map_err(ProtocolError::from)
    }

    /// [`DvdcProtocol::recover`] with a typed error: honest data loss
    /// (the failure pattern exceeded the configured redundancy) surfaces
    /// as [`RecoverError::DataLoss`] carrying the group that could not be
    /// decoded, instead of being flattened into an opaque
    /// [`ProtocolError::Unrecoverable`] string.
    pub fn recover_typed(
        &mut self,
        cluster: &mut Cluster,
        failed: NodeId,
    ) -> Result<RecoveryReport, RecoverError> {
        self.rebuild_to_completion(cluster, failed, RebuildMode::InPlace)
    }

    /// Recovery by **failover**: instead of waiting for the dead node to
    /// be repaired, its VMs are re-homed onto surviving nodes (and its
    /// parity responsibilities re-assigned), preserving orthogonality.
    /// This is the paper's "moving state: live migration away from
    /// failing nodes" benefit applied to recovery — the cluster keeps
    /// running degraded, with full protection restored, while the dead
    /// hardware is serviced offline.
    ///
    /// Fails with [`ProtocolError::Unrecoverable`] if some VM or parity
    /// block has no valid new home (every surviving node already hosts a
    /// member of its group).
    pub fn recover_failover(
        &mut self,
        cluster: &mut Cluster,
        failed: NodeId,
    ) -> Result<RecoveryReport, ProtocolError> {
        self.rebuild_to_completion(cluster, failed, RebuildMode::Failover)
            .map_err(ProtocolError::from)
    }

    /// Bytes of redundant state this protocol currently holds (parity
    /// blocks and the nodes' local checkpoint stores) — the memory cost
    /// axis of the Remus-vs-DVDC trade-off in Section VI.
    pub fn redundancy_bytes(&self) -> usize {
        let parity = self.parity.total_bytes();
        let local: usize = self.node_stores.iter().map(|s| s.total_bytes()).sum();
        parity + local
    }

    /// Synchronises the protocol's notion of "now" with an external
    /// simulation clock, so the structured events it emits (see
    /// `dvdc-observe`) are stamped on the driver's timeline.
    pub fn set_clock(&mut self, now: SimTime) {
        self.clock = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvdc_parity::raid5::XorCode;
    use dvdc_parity::rs::ReedSolomon;
    use dvdc_parity::xor::xor_all;
    use dvdc_simcore::rng::RngHub;
    use dvdc_vcluster::cluster::ClusterBuilder;

    fn fig4_cluster() -> Cluster {
        ClusterBuilder::new()
            .physical_nodes(4)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .writes_per_sec(50.0)
            .build(0)
    }

    fn fig4_protocol(c: &Cluster) -> DvdcProtocol {
        DvdcProtocol::new(GroupPlacement::orthogonal(c, 3).unwrap())
    }

    #[test]
    fn round_reports_and_commits() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        let r = p.run_round(&mut c).unwrap();
        assert_eq!(r.epoch, 0);
        assert_eq!(r.payload_bytes, 12 * 8 * 32); // first round = full images
        assert_eq!(r.redundancy_bytes, 4 * 8 * 32); // one parity block per group
        assert_eq!(p.committed_epoch(), Some(0));
        // Each node captures and ships its three images, and each holds
        // one group's parity, folding that group's three images.
        let image = 8 * 32;
        assert_eq!(
            r.load,
            RoundLoad {
                capture: 3 * image,
                wire: 3 * image,
                fold: 3 * image
            }
        );
    }

    #[test]
    fn incremental_rounds_shrink_payload() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        let full = p.run_round(&mut c).unwrap();
        // First round re-encodes every block from scratch.
        assert_eq!(full.parity_update_bytes, full.redundancy_bytes);
        // Dirty a single page on one VM.
        c.vm_mut(VmId(0)).memory_mut().write_page(2, &[9u8; 32]);
        let inc = p.run_round(&mut c).unwrap();
        assert_eq!(inc.payload_bytes, 32);
        assert!(inc.payload_bytes < full.payload_bytes / 10);
        // The steady-state round charges parity work by dirty bytes (one
        // 32-byte page × m = 1), not by image bytes.
        assert_eq!(inc.parity_update_bytes, 32);
    }

    /// Every parity block the incremental transport maintains must be
    /// byte-identical to a from-scratch re-encode of the members' current
    /// images by the code a daemon's group of the same shape runs — XOR
    /// for m = 1, Reed–Solomon for m = 2 — across several dirty rounds.
    fn assert_incremental_matches_reencode(m: usize) {
        let mut c = ClusterBuilder::new()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .writes_per_sec(300.0)
            .build(3);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, m).unwrap();
        let mut p = DvdcProtocol::new(placement);
        let reference: Box<dyn ErasureCode> = match m {
            1 => Box::new(XorCode::new(3)),
            _ => Box::new(ReedSolomon::new(3, m)),
        };
        let first = p.run_round(&mut c).unwrap();
        assert_eq!(first.parity_update_bytes, first.redundancy_bytes);

        let hub = RngHub::new(17);
        for round in 1..5u64 {
            c.run_all(Duration::from_secs(0.5), |vm| {
                hub.subhub("inc", round)
                    .stream_indexed("vm", vm.index() as u64)
            });
            let r = p.run_round(&mut c).unwrap();
            // Steady state: parity work charged by dirty bytes — each
            // payload byte is folded into all m blocks of its group.
            assert_eq!(
                r.parity_update_bytes,
                r.payload_bytes * m,
                "m={m} round {round}"
            );
            for g in p.placement.groups().to_vec() {
                let images: Vec<Vec<u8>> = g
                    .data
                    .iter()
                    .map(|&vm| {
                        let node = c.node_of(vm);
                        p.node_stores[node.index()]
                            .current_image(vm)
                            .unwrap()
                            .to_vec()
                    })
                    .collect();
                let refs: Vec<&[u8]> = images.iter().map(|i| i.as_slice()).collect();
                for (j, want) in reference.encode(&refs).into_iter().enumerate() {
                    assert_eq!(
                        p.parity.current((g.id, j)),
                        Some(want.as_slice()),
                        "m={m} round {round} {} block {j}",
                        g.id
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_parity_matches_reencode_xor() {
        assert_incremental_matches_reencode(1);
    }

    #[test]
    fn incremental_parity_matches_reencode_rs() {
        assert_incremental_matches_reencode(2);
    }

    #[test]
    fn disabled_incremental_transport_reencodes_every_round() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c).with_incremental_parity(false);
        p.run_round(&mut c).unwrap();
        c.vm_mut(VmId(0)).memory_mut().write_page(2, &[9u8; 32]);
        let r = p.run_round(&mut c).unwrap();
        // Payload still shrinks (captures are incremental) but parity is
        // recomputed from whole images.
        assert_eq!(r.payload_bytes, 32);
        assert_eq!(r.parity_update_bytes, r.redundancy_bytes);
    }

    /// After N incremental rounds, recovery must still be byte-exact for
    /// every choice of victim — the committed parity a failure decodes
    /// from was produced purely by delta application.
    #[test]
    fn recovery_after_incremental_rounds_is_byte_exact() {
        for victim in 0..4 {
            let mut c = fig4_cluster();
            let mut p = fig4_protocol(&c);
            p.run_round(&mut c).unwrap();
            let hub = RngHub::new(23);
            let mut last = None;
            for round in 1..6u64 {
                c.run_all(Duration::from_secs(0.7), |vm| {
                    hub.subhub("nrounds", round)
                        .stream_indexed("vm", vm.index() as u64)
                });
                last = Some(p.run_round(&mut c).unwrap());
            }
            let last = last.unwrap();
            // The follow-up rounds took the delta path: at m = 1 every
            // shipped dirty byte is folded into exactly one parity block.
            assert_eq!(last.parity_update_bytes, last.payload_bytes);
            let want = snapshots_of(&c);

            // Progress past the checkpoint, then lose a node.
            c.run_all(Duration::from_secs(1.0), |vm| {
                hub.subhub("after", 0)
                    .stream_indexed("vm", vm.index() as u64)
            });
            c.fail_node(NodeId(victim));
            let rep = p.recover(&mut c, NodeId(victim)).unwrap();
            assert_eq!(rep.rolled_back_to, Some(last.epoch), "victim={victim}");
            for (i, vm) in c.vm_ids().into_iter().enumerate() {
                assert_eq!(
                    c.vm(vm).memory().snapshot(),
                    want[i],
                    "victim={victim} vm={vm}"
                );
            }
        }
    }

    /// Regression: an aborted round's captures sit in the stores'
    /// current buffers; a later failover that re-homes images into those
    /// same stores must not promote the stale captures into the
    /// committed (rollback-target) buffer.
    #[test]
    fn aborted_captures_never_leak_into_failover_commit() {
        let mut c = ClusterBuilder::new()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .writes_per_sec(200.0)
            .build(5);
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3).unwrap());
        p.run_round(&mut c).unwrap();
        let want: Vec<Vec<u8>> = c
            .vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect();

        let hub = RngHub::new(9);
        c.run_all(Duration::from_secs(0.5), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        // Interrupt a round after every capture landed in a current
        // buffer; abort and repair the victim in place.
        let mut round = p.begin_round(&c).unwrap();
        while round.phase() < RoundPhase::Transfer {
            p.step_round(&mut c, &mut round).unwrap();
        }
        c.fail_node(NodeId(1));
        p.abort_round(round);
        p.recover(&mut c, NodeId(1)).unwrap();

        // Failover of a second node seeds reconstructed images into
        // survivor stores. Before the two-phase store discipline this
        // promoted the aborted captures alongside them.
        c.fail_node(NodeId(2));
        p.recover_failover(&mut c, NodeId(2)).unwrap();
        for (i, vm) in c.vm_ids().into_iter().enumerate() {
            if c.is_up(c.node_of(vm)) {
                assert_eq!(
                    c.vm(vm).memory().snapshot(),
                    want[i],
                    "{vm}: rollback target polluted by aborted round"
                );
            }
        }
    }

    /// A node dying mid-round — after captures landed in current stores
    /// and some parity deltas were folded in, but before the commit —
    /// must roll back to the committed epoch byte-exactly, and the
    /// polluted in-progress parity must never leak into later rounds.
    #[test]
    fn mid_round_failure_rolls_back_to_committed_epoch() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        let committed_want = snapshots_of(&c);

        // Guests progress, then a round starts and dies part-way: every
        // capture and transfer completed, and the first group's parity
        // holder folded its delta, but no commit happened.
        let hub = RngHub::new(31);
        c.run_all(Duration::from_secs(1.0), |vm| {
            hub.stream_indexed("mid", vm.index() as u64)
        });
        let mut round = p.begin_round(&c).unwrap();
        while round.phase() < RoundPhase::Fold {
            p.step_round(&mut c, &mut round).unwrap();
        }
        // The step that entered Fold already folded the first group: the
        // working parity generation has diverged from committed.
        assert!(!p.parity.current_matches_committed());

        // Now a node fails mid-round. It holds pending state, so the
        // round must abort; recovery then ignores everything the doomed
        // round wrote and restores the committed epoch.
        c.fail_node(NodeId(2));
        assert!(p.round_involves(&c, &round, NodeId(2)));
        p.abort_round(round);
        let rep = p.recover(&mut c, NodeId(2)).unwrap();
        assert_eq!(rep.rolled_back_to, Some(0));
        for (i, vm) in c.vm_ids().into_iter().enumerate() {
            assert_eq!(c.vm(vm).memory().snapshot(), committed_want[i], "{vm}");
        }
        // The rollback discarded the partial parity and invalidated the
        // delta base, so the next round re-encodes from scratch…
        assert!(p.parity.current_matches_committed());
        assert_eq!(p.parity.delta_base(), None);
        let r = p.run_round(&mut c).unwrap();
        assert_eq!(r.parity_update_bytes, r.redundancy_bytes);
        // …after which a further incremental round and another failure
        // still recover byte-exactly.
        c.run_all(Duration::from_secs(0.5), |vm| {
            hub.stream_indexed("post", vm.index() as u64)
        });
        let r2 = p.run_round(&mut c).unwrap();
        assert_eq!(r2.parity_update_bytes, r2.payload_bytes);
        let want2 = snapshots_of(&c);
        c.fail_node(NodeId(0));
        let rep2 = p.recover(&mut c, NodeId(0)).unwrap();
        assert_eq!(rep2.rolled_back_to, Some(r2.epoch));
        for (i, vm) in c.vm_ids().into_iter().enumerate() {
            assert_eq!(c.vm(vm).memory().snapshot(), want2[i], "{vm}");
        }
    }

    #[test]
    fn every_single_node_failure_is_recoverable_bytewise() {
        for victim in 0..4 {
            let mut c = fig4_cluster();
            let mut p = fig4_protocol(&c);
            p.run_round(&mut c).unwrap();
            let want: Vec<Vec<u8>> = c
                .vm_ids()
                .iter()
                .map(|&v| c.vm(v).memory().snapshot())
                .collect();

            // Progress past the checkpoint (so rollback is observable).
            let hub = RngHub::new(9);
            c.run_all(Duration::from_secs(1.0), |vm| {
                hub.stream_indexed("w", vm.index() as u64)
            });

            c.fail_node(NodeId(victim));
            let rep = p.recover(&mut c, NodeId(victim)).unwrap();
            assert_eq!(rep.recovered_vms.len(), 3, "victim={victim}");
            assert_eq!(rep.rolled_back_to, Some(0));
            assert_eq!(rep.parity_rebuilt.len(), 1, "each node holds 1 parity");
            // Every VM (lost and survivors) is back at epoch 0, bytewise.
            for (i, vm) in c.vm_ids().into_iter().enumerate() {
                assert_eq!(
                    c.vm(vm).memory().snapshot(),
                    want[i],
                    "victim={victim} vm={vm}"
                );
            }
        }
    }

    #[test]
    fn recovery_then_more_rounds_then_another_failure() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(1));
        p.recover(&mut c, NodeId(1)).unwrap();

        // Keep working: two more rounds, then a different node dies.
        let hub = RngHub::new(5);
        c.run_all(Duration::from_secs(1.0), |vm| {
            hub.stream_indexed("a", vm.index() as u64)
        });
        p.run_round(&mut c).unwrap();
        c.run_all(Duration::from_secs(1.0), |vm| {
            hub.stream_indexed("b", vm.index() as u64)
        });
        let r = p.run_round(&mut c).unwrap();
        let want: Vec<Vec<u8>> = c
            .vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect();

        c.fail_node(NodeId(3));
        let rep = p.recover(&mut c, NodeId(3)).unwrap();
        assert_eq!(rep.rolled_back_to, Some(r.epoch));
        for (i, vm) in c.vm_ids().into_iter().enumerate() {
            assert_eq!(c.vm(vm).memory().snapshot(), want[i], "vm={vm}");
        }
    }

    #[test]
    fn round_rejected_while_node_down() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(2));
        assert_eq!(
            p.run_round(&mut c),
            Err(ProtocolError::NodeDown { node: NodeId(2) })
        );
    }

    #[test]
    fn recover_before_any_round_fails() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        c.fail_node(NodeId(0));
        assert_eq!(
            p.recover(&mut c, NodeId(0)),
            Err(ProtocolError::NoCommittedCheckpoint)
        );
    }

    #[test]
    fn double_failure_with_single_parity_is_unrecoverable() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(0));
        c.fail_node(NodeId(1));
        let err = p.recover(&mut c, NodeId(0)).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Unrecoverable { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn double_failure_with_rs_parity_recovers() {
        for (a, b) in [(0, 1), (2, 4)] {
            let mut c = ClusterBuilder::new()
                .physical_nodes(6)
                .vms_per_node(2)
                .vm_memory(8, 32)
                .build(0);
            let placement = GroupPlacement::orthogonal_with_parity(&c, 3, 2).unwrap();
            let mut p = DvdcProtocol::new(placement);
            assert_eq!(p.failure_tolerance(), 2);
            p.run_round(&mut c).unwrap();
            let want: Vec<Vec<u8>> = c
                .vm_ids()
                .iter()
                .map(|&v| c.vm(v).memory().snapshot())
                .collect();

            c.fail_node(NodeId(a));
            c.fail_node(NodeId(b));
            // Recover both, one at a time (node b still down during the first).
            p.recover(&mut c, NodeId(a)).unwrap();
            p.recover(&mut c, NodeId(b)).unwrap();
            for (i, vm) in c.vm_ids().into_iter().enumerate() {
                assert_eq!(c.vm(vm).memory().snapshot(), want[i], "({a},{b}) vm={vm}");
            }
        }
    }

    #[test]
    fn default_code_family_tracks_parity_count() {
        // The protocol's code is `code::for_group`'s: m = 1 encodes as the
        // XOR of the data, m = 2 and m = 3 as Reed–Solomon.
        let c = ClusterBuilder::new()
            .physical_nodes(8)
            .vms_per_node(3)
            .vm_memory(8, 32)
            .build(0);
        let data: Vec<Vec<u8>> = (0..3u8).map(|i| vec![i * 41 + 7; 64]).collect();
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for m in 1..=3 {
            let placement = GroupPlacement::orthogonal_with_parity(&c, 3, m).unwrap();
            let p = DvdcProtocol::new(placement);
            let want = match m {
                1 => vec![xor_all(&refs)],
                _ => ReedSolomon::new(3, m).encode(&refs),
            };
            assert_eq!(p.code.encode(&refs), want, "m={m}");
        }
    }

    #[test]
    fn m2_protects_an_image_of_any_length() {
        // 5 pages × 2 bytes = 10 bytes per image: no length is special to
        // a double-parity group.
        let mut c = ClusterBuilder::new()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(5, 2)
            .writes_per_sec(50.0)
            .build(13);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, 2).unwrap();
        let mut p = DvdcProtocol::new(placement);
        p.run_round(&mut c).unwrap();

        let want: Vec<Vec<u8>> = c
            .vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect();
        c.fail_node(NodeId(1));
        c.fail_node(NodeId(4));
        p.recover(&mut c, NodeId(1)).unwrap();
        p.recover(&mut c, NodeId(4)).unwrap();
        for (i, vm) in c.vm_ids().into_iter().enumerate() {
            assert_eq!(c.vm(vm).memory().snapshot(), want[i], "{vm}");
        }
    }

    #[test]
    fn redundancy_is_fractional_vs_replication() {
        // Parity adds 1/k of the data footprint, not 1×: with k=3 and 12
        // VMs of 256 B, parity ≈ 4 blocks committed + 4 current.
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        let image = 8 * 32;
        let parity_bytes = 2 * 4 * image; // committed + current, 4 groups
        let local_bytes = 2 * 12 * image; // double-buffered local ckpts
        assert_eq!(p.redundancy_bytes(), parity_bytes + local_bytes);
    }

    #[test]
    fn delta_parity_update_equals_recompute() {
        // The incremental parity path is byte-identical to re-encoding.
        let a0 = vec![1u8; 64];
        let b0 = vec![2u8; 64];
        let c0 = vec![3u8; 64];
        let code = XorCode::new(3);
        let mut parity = code.encode(&[&a0, &b0, &c0]).remove(0);

        // VM B dirties "page" [16..32).
        let mut b1 = b0.clone();
        b1[16..32].copy_from_slice(&[0xEE; 16]);
        delta_parity_update(&mut parity, 16, &b0[16..32], &b1[16..32]);

        let expect = code.encode(&[&a0, &b1, &c0]).remove(0);
        assert_eq!(parity, expect);
    }

    #[test]
    fn network_bytes_count_parity_copies() {
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        let r = p.run_round(&mut c).unwrap();
        // m = 1: each payload byte crosses the wire once.
        assert_eq!(r.network_bytes, r.payload_bytes);
    }

    fn roomy_cluster() -> Cluster {
        // 6 nodes × 2 VMs with k=3 leaves failover headroom: every group
        // touches 4 of 6 nodes, so a lost VM always has a legal new home.
        ClusterBuilder::new()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .writes_per_sec(50.0)
            .build(0)
    }

    #[test]
    fn failover_rehomes_vms_and_parity_byte_exactly() {
        let mut c = roomy_cluster();
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3).unwrap());
        p.run_round(&mut c).unwrap();
        let want: Vec<Vec<u8>> = c
            .vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect();

        let victim = NodeId(0);
        let lost = c.fail_node(victim);
        let rep = p.recover_failover(&mut c, victim).unwrap();
        assert_eq!(rep.recovered_vms, lost);
        // The node stays dead; its VMs now live elsewhere.
        assert!(!c.is_up(victim));
        assert!(c.vms_on(victim).is_empty());
        for &vm in &lost {
            assert_ne!(c.node_of(vm), victim);
            assert_eq!(c.vm(vm).memory().snapshot(), want[vm.index()], "{vm}");
        }
        // No parity responsibility left on the corpse; placement is still
        // orthogonal under the new homes.
        assert!(p.placement().parity_groups_of(victim).is_empty());
        p.placement().validate(&c).unwrap();
        // On a flat topology the chooser is least-loaded, lowest id: the
        // homes every earlier revision picked.
        assert_eq!(c.node_of(VmId(0)), NodeId(4));
        assert_eq!(c.node_of(VmId(1)), NodeId(3));
        assert_eq!(p.placement().groups()[1].parity_nodes, [NodeId(2)]);
    }

    #[test]
    fn failover_keeps_rack_orthogonality() {
        // A rack-orthogonal group leaves the victim's own rack free of
        // its other members, so the victim's rack mates are always legal
        // rack-free hosts: every lost member can — and so must — land
        // without putting two members of a group behind one rack.
        for (per_rack, vms, k) in [(2, 1, 3), (2, 2, 3), (3, 1, 2)] {
            for victim in (0..12).map(NodeId) {
                let ctx = format!("racks of {per_rack}, {vms} VMs/node, k={k}, victim {victim}");
                let mut c = ClusterBuilder::new()
                    .physical_nodes(12)
                    .vms_per_node(vms)
                    .vm_memory(8, 32)
                    .writes_per_sec(50.0)
                    .racks(per_rack)
                    .build(0);
                let placement = GroupPlacement::orthogonal(&c, k).unwrap();
                assert!(placement.is_rack_orthogonal(&c), "{ctx}");
                let mut p = DvdcProtocol::new(placement);
                p.run_round(&mut c).unwrap();
                let want = snapshots_of(&c);
                c.fail_node(victim);
                p.recover_failover(&mut c, victim).expect(&ctx);
                p.placement().validate(&c).expect(&ctx);
                assert!(p.placement().is_rack_orthogonal(&c), "{ctx}");
                assert!(!p.placement().holds_state(&c, victim), "{ctx}");
                assert_eq!(snapshots_of(&c), want, "{ctx}");
            }
        }
    }

    #[test]
    fn failover_cluster_keeps_checkpointing_and_survives_next_failure() {
        let mut c = roomy_cluster();
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3).unwrap());
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(0));
        p.recover_failover(&mut c, NodeId(0)).unwrap();

        // Rounds proceed with node 0 permanently dead.
        let hub = RngHub::new(4);
        c.run_all(Duration::from_secs(1.0), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });
        let r = p.run_round(&mut c).unwrap();
        let want: Vec<(VmId, Vec<u8>)> = c
            .vm_ids()
            .into_iter()
            .map(|v| (v, c.vm(v).memory().snapshot()))
            .collect();

        // A second, different node dies; normal repair-in-place recovery
        // still works against the re-homed placement.
        c.fail_node(NodeId(3));
        let rep = p.recover(&mut c, NodeId(3)).unwrap();
        assert_eq!(rep.rolled_back_to, Some(r.epoch));
        for (vm, img) in want {
            if c.is_up(c.node_of(vm)) {
                assert_eq!(c.vm(vm).memory().snapshot(), img, "{vm}");
            }
        }
    }

    #[test]
    fn migration_moves_checkpoint_custody() {
        // Regression for the gap the chaos suite found: a VM migrates
        // after a committed round, then its NEW host dies before the next
        // round. With custody moved, the checkpoint died with the new
        // host and must be decoded from the group; with custody left
        // behind, recovery would silently skip the VM.
        let mut c = roomy_cluster();
        let mut p = DvdcProtocol::new(GroupPlacement::orthogonal(&c, 3).unwrap());
        p.run_round(&mut c).unwrap();
        let want = snapshots_of(&c);

        let vm = VmId(0);
        let from = c.node_of(vm);
        let dest = p
            .placement()
            .host_for(&c, Member::Vm(vm), Some(from))
            .expect("legal destination");
        // A destination hosting a group peer is refused, nothing moved.
        let peer_host = c.node_of(p.placement().group_of(vm).data[1]);
        assert!(matches!(
            p.migrate(&mut c, vm, peer_host),
            Err(PlacementError::NotOrthogonal { node, .. }) if node == peer_host
        ));
        assert_eq!(c.node_of(vm), from);
        p.migrate(&mut c, vm, dest).unwrap();
        p.placement().validate(&c).unwrap();

        // New host dies before any further round.
        c.fail_node(dest);
        let rep = p.recover(&mut c, dest).unwrap();
        assert!(rep.recovered_vms.contains(&vm));
        for (i, v) in c.vm_ids().into_iter().enumerate() {
            assert_eq!(c.vm(v).memory().snapshot(), want[i], "{v}");
        }

        // And the OLD host dying must not resurrect a stale copy: its
        // store no longer holds the VM.
        let mut c2 = roomy_cluster();
        let mut p2 = DvdcProtocol::new(GroupPlacement::orthogonal(&c2, 3).unwrap());
        p2.run_round(&mut c2).unwrap();
        let want2 = snapshots_of(&c2);
        p2.migrate(&mut c2, vm, dest).unwrap();
        c2.fail_node(from);
        p2.recover(&mut c2, from).unwrap();
        for (i, v) in c2.vm_ids().into_iter().enumerate() {
            assert_eq!(c2.vm(v).memory().snapshot(), want2[i], "{v}");
        }
    }

    fn snapshots_of(c: &Cluster) -> Vec<Vec<u8>> {
        c.vm_ids()
            .iter()
            .map(|&v| c.vm(v).memory().snapshot())
            .collect()
    }

    #[test]
    fn failover_impossible_when_no_legal_host_exists() {
        // Fig. 4 shape: every group spans all 4 nodes (3 data + parity),
        // so no surviving node can legally adopt a lost VM.
        let mut c = fig4_cluster();
        let mut p = fig4_protocol(&c);
        p.run_round(&mut c).unwrap();
        c.fail_node(NodeId(1));
        let err = p.recover_failover(&mut c, NodeId(1)).unwrap_err();
        assert!(
            matches!(err, ProtocolError::Unrecoverable { .. }),
            "got {err:?}"
        );
    }
}
