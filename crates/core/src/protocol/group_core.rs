//! One node's slot of one erasure group: the protocol core beneath
//! [`NodeCore`](super::node_core::NodeCore). The `node_core` module docs
//! say what lives in which layer.
//!
//! A rebuild holds one image, not `k`. The acting coordinator plans the
//! decode when the fetch starts — the epoch, the `k` slots read and each
//! one's coefficient — and folds every part of a survivor's answer into
//! one victim-sized block as it lands, then drops it; the decode at the
//! end is the digest. A survivor answers with its held blocks' own pages,
//! copying only each block's last. If the answers show that the rule the
//! decode follows (the newest epoch of which `k` slots are whole, its
//! first `k` slots) reads other slots than the plan did, those are
//! fetched anew into a fold planned for them.
//!
//! A holder folds by XOR alone. Row 0 of the code is all ones, so its
//! holder folds each source's live pages as they come; the term a row
//! `j ≥ 1` holder needs, `c_{j,i}·D_i`, is made by source `i` itself in
//! the capture window, once the guest's write is paid and before the
//! capture is due, and the capture ships that holder the term in place of
//! the image. The `k`-to-1 multiply at one holder becomes one multiply per
//! row at each source, in time the source would spend idle.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dvdc_faults::detector::Verdict;
use dvdc_parity::code::ErasureCode;
use dvdc_parity::rs::{Plan, ReedSolomon};
use dvdc_parity::xor::xor_into;
use dvdc_simcore::time::SimTime;
use dvdc_vcluster::ids::NodeId;

use super::block::{Block, Page};
use super::node_core::{
    churn_seed, initial_block, page_seed, xor_pseudo, Action, BlockInfo, ClusterSpec, Members, Msg,
    Note, CTL, PART_LEN,
};

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
    staged_parity: Option<Block>,
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
type Parked = (u64, BTreeMap<usize, (NodeId, u64, Page)>);

/// A decoded block: its epoch, the block and its `block_digest`.
type Rebuilt = (u64, Block, u64);

/// Coordinator-side bookkeeping of one rebuild in flight.
#[derive(Debug)]
pub(super) struct Rebuild {
    victim: NodeId,
    /// When the decode goes ahead with the blocks that have arrived.
    deadline: SimTime,
    awaiting: BTreeSet<NodeId>,
    /// What the answers held, by epoch and slot: who sent the block and
    /// which of its parts have landed. No bytes are kept here.
    landed: BTreeMap<(u64, NodeId), (NodeId, BTreeSet<usize>)>,
    /// The decode the fetch folds into, planned when it (re)started.
    fold: Option<Fold>,
    /// Begun on link evidence whose verdict is still to come: the victim
    /// is not fenced, and nothing this rebuild makes is custodied or lost
    /// before the verdict.
    suspected: bool,
    /// What the decode made while the suspicion stood, installed by the
    /// verdict.
    decoded: Option<Rebuilt>,
}

/// The victim's block at one epoch, decoded from `k` slots as their parts
/// land: each part is folded into its page of `block` once, and dropped.
#[derive(Debug)]
struct Fold {
    epoch: u64,
    /// The slots read, ascending: the plan's reads, in its order.
    reads: Vec<NodeId>,
    plan: Plan,
    /// The parts of each slot read folded so far.
    folded: BTreeMap<NodeId, BTreeSet<usize>>,
    /// Zeros, plus every part folded so far.
    block: Block,
}

impl Fold {
    /// Folds part `index` of slot `slot`'s block of `epoch`, unless the
    /// plan reads no such block or the part is folded already.
    fn part(&mut self, (slot, epoch): (NodeId, u64), index: usize, data: &[u8]) {
        let read = self.reads.iter().position(|s| *s == slot);
        let Some(r) = read.filter(|_| epoch == self.epoch) else {
            return;
        };
        if self.folded.entry(slot).or_default().insert(index) {
            self.plan.fold(0, r, self.block.page_mut(index), data);
        }
    }

    /// True if it decodes `(epoch, reads)` and every part of it is folded.
    fn done(&self, (epoch, reads): &(u64, Vec<NodeId>), parts: usize) -> bool {
        let whole = |s| self.folded.get(s).is_some_and(|p| p.len() == parts);
        (self.epoch, &self.reads) == (*epoch, reads) && reads.iter().all(whole)
    }
}

/// The epoch a rebuild decodes at and the slots it reads, from the whole
/// blocks `whole` by epoch and slot: the newest epoch of which `k` slots
/// are whole, and its first `k` slots.
fn choose(k: usize, whole: BTreeSet<(u64, NodeId)>) -> Result<(u64, Vec<NodeId>), String> {
    let mut by_epoch: BTreeMap<u64, Vec<NodeId>> = BTreeMap::new();
    for (epoch, slot) in whole {
        by_epoch.entry(epoch).or_default().push(slot);
    }
    let best = by_epoch.values().map(Vec::len).max().unwrap_or(0);
    let Some((epoch, mut slots)) = by_epoch.into_iter().rev().find(|(_, s)| s.len() >= k) else {
        return Err(format!(
            "no committed epoch has the {k} blocks needed (best coverage: {best})"
        ));
    };
    slots.truncate(k);
    Ok((epoch, slots))
}

/// One node's slot of one erasure group. See the module docs.
pub(super) struct GroupCore {
    /// This node's slot in the group. Node-level addressing — the fence
    /// epoch it sends under, the coordinator, whom it sends to — reads
    /// the `Members` view's id instead; with one group per node they match.
    slot: NodeId,
    /// The slot's role, fixed when it is built: the parity row `j` it
    /// holds, or none on a data slot, which hosts a VM.
    parity_row: Option<usize>,
    code: ReedSolomon,
    /// The committed block of each slot this node holds — its own, and
    /// the custody block of each fenced member it rebuilt — as an
    /// `(epoch, block)` pair whose kind follows from its slot.
    pub(super) held: BTreeMap<NodeId, (u64, Block)>,
    /// Live VM image (data slots only). A data slot has none while it
    /// owes the write of a commit that promoted it: its image is then the
    /// committed block plus that write. A capture ships its pages to the
    /// holder of parity row 0.
    pub(super) live: Option<Block>,
    /// Data slot: the term `c_{j,slot}·live` of each parity row `j ≥ 1`
    /// the open round's holders hold, by row, made once the guest's write
    /// is paid; a capture ships row `j`'s holder its term. A cache of
    /// `live`: whatever writes or replaces `live` drops them.
    pub(super) terms: BTreeMap<usize, Block>,
    /// The pages of terms dropped, by row, kept for the next terms as
    /// `spare` is kept for the next image.
    spare_terms: BTreeMap<usize, Block>,
    /// The epoch of the commit whose guest write (`churn_seed`'s stream)
    /// this data slot has yet to make. It is paid once a round is open, at
    /// the latest by the capture, and an overwrite of `live` forgets it.
    pub(super) owed_write: Option<u64>,
    /// The pages of the block the last commit replaced, kept for the next
    /// image-sized write: a data slot's next live image, a holder's next
    /// accumulator.
    spare: Option<Block>,
    coord_round: Option<CoordRound>,
    part_round: Option<PartRound>,
    pub(super) rebuild: Option<Rebuild>,
    /// Victims whose rebuild ended in typed data loss — not retried.
    lost: BTreeSet<NodeId>,
    /// Fenced members whose `ResyncReq` met an open round or rebuild, or
    /// came before their own rebuild: each is answered by the entry point
    /// that settles what it waits for, not at its next retry.
    resync_asked: BTreeSet<NodeId>,
    /// Highest round epoch this node has begun or been told of (committed
    /// or not) — keeps retry epochs strictly increasing across aborts,
    /// and tells an early block from a stale one.
    last_begun: u64,
    /// Parts parked ahead of their round, by source slot.
    pub(super) early: BTreeMap<NodeId, Parked>,
    /// Rounds this node has seen commit.
    pub(super) rounds_committed: u64,
    /// True if a rebuild ever ended in typed data loss here.
    pub(super) data_loss: bool,
}

impl GroupCore {
    /// Slot `slot` of the group `spec` describes, before any round: a data
    /// slot holds its initial image.
    pub fn new(slot: NodeId, spec: &ClusterSpec) -> Self {
        let parity_row = slot.index().checked_sub(spec.data_nodes);
        let image = || initial_block(spec.cluster_id, slot, spec.image_len);
        GroupCore {
            slot,
            parity_row,
            code: spec.code(),
            held: BTreeMap::new(),
            live: parity_row.is_none().then(image),
            terms: BTreeMap::new(),
            spare_terms: BTreeMap::new(),
            owed_write: None,
            spare: None,
            coord_round: None,
            part_round: None,
            rebuild: None,
            lost: BTreeSet::new(),
            resync_asked: BTreeSet::new(),
            last_begun: 0,
            early: BTreeMap::new(),
            rounds_committed: 0,
            data_loss: false,
        }
    }

    /// The committed block held for `slot`: this node's own, or the one it
    /// keeps in custody for a fenced member.
    pub fn block(&self, slot: NodeId) -> Option<(u64, &Block)> {
        self.held.get(&slot).map(|(e, b)| (*e, b))
    }

    /// The epoch of this node's own committed block (0 = none yet).
    pub fn committed_epoch(&self) -> u64 {
        self.block(self.slot).map_or(0, |(e, _)| e)
    }

    /// True if this node holds `slot`'s block in custody.
    pub fn in_custody(&self, slot: NodeId) -> bool {
        slot != self.slot && self.held.contains_key(&slot)
    }

    /// The earliest instant the group has work on a tick: at once for a
    /// guest write owed while a round is open, or a rebuild backlog; else
    /// its capture, round and rebuild timers.
    pub fn next_deadline(&self, m: &Members) -> Option<SimTime> {
        let owed = self.owed_write.is_some() && self.part_round.is_some();
        if owed || self.rebuild_backlog(m).is_some() {
            return Some(SimTime::ZERO);
        }
        let (coord, part) = (self.coord_round.as_ref(), self.part_round.as_ref());
        let rebuild = self.rebuild.as_ref().filter(|rb| !rb.awaiting.is_empty());
        let timers = [
            part.and_then(|r| r.capture_due),
            coord.map(|r| r.deadline),
            part.filter(|_| coord.is_none()).map(|r| r.expires_at),
            rebuild.map(|rb| rb.deadline),
        ];
        timers.into_iter().flatten().min()
    }

    /// A confirmed-dead member not yet rebuilt, when this node coordinates
    /// and has no rebuild in flight: one confirmed while another rebuild
    /// ran, or while somebody else coordinated who never got to it, or
    /// whose first attempt raced a second failure. Or the victim of the
    /// rebuild in flight, begun on a suspicion that a fence or a resync
    /// request, not this node's own verdict, has since confirmed.
    pub fn rebuild_backlog(&self, m: &Members) -> Option<NodeId> {
        // A coordinator still meeting the members — one just readmitted —
        // would decode from too few of them and call it loss.
        let mut members = (0..m.spec.total()).map(NodeId);
        let met = |p: NodeId| {
            p == self.slot
                || m.sessions.contains(&p)
                || m.fences.is_fenced(p)
                || m.detector.is_confirmed(p.index())
        };
        if !m.is_acting_coordinator() || !members.clone().all(met) {
            return None;
        }
        if let Some(rb) = &self.rebuild {
            let confirmed = rb.suspected && m.detector.is_confirmed(rb.victim.index());
            return confirmed.then_some(rb.victim);
        }
        members.find(|n| {
            *n != self.slot
                && m.detector.is_confirmed(n.index())
                && !self.held.contains_key(n)
                && !self.lost.contains(n)
        })
    }

    /// The group's share of a tick, after the detector's: the guest's owed
    /// write, a deferred capture, and the round and rebuild timeouts.
    pub fn on_tick(&mut self, m: &Members, now: SimTime, out: &mut Vec<Action>) {
        self.guest_writes(m);
        self.do_capture(m, now, out);
        // Round timeout (coordinator).
        if self.coord_round.as_ref().is_some_and(|r| now >= r.deadline) {
            self.abort_round(m, "round timed out".to_string(), out);
        }
        // Stale participant round (coordinator died without aborting).
        let coordinating = self.coord_round.is_some();
        if let Some(r) = self
            .part_round
            .take_if(|r| !coordinating && now >= r.expires_at)
        {
            let (epoch, reason) = (r.epoch, "participant round expired without commit".into());
            out.push(Action::Note(Note::RoundAborted { epoch, reason }));
        }
        // Rebuild timeout: decide with the blocks that arrived.
        let overdue = |rb: &Rebuild| !rb.awaiting.is_empty() && now >= rb.deadline;
        if self.rebuild.as_ref().is_some_and(overdue) {
            self.finish_rebuild(m, now, out);
        }
    }

    /// The guest writes at the start of the capture window, and the
    /// source makes the terms of what it wrote; the capture then ships
    /// both.
    pub fn guest_writes(&mut self, m: &Members) {
        if self.part_round.is_some() {
            self.write_guest(m);
            self.make_terms(m);
        }
    }

    /// A verdict on `node`. On a suspicion that link evidence raised, the
    /// acting coordinator with no round open starts the rebuild without
    /// fencing anyone, so that the repair runs while the suspicion stands.
    /// On confirmation, a rebuild in flight stops waiting for the dead
    /// node's blocks.
    pub fn on_verdict(
        &mut self,
        m: &Members,
        judged: (NodeId, Verdict, bool),
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        let (node, verdict, evidence) = judged;
        let speculate = verdict == Verdict::Suspected && evidence && self.coord_round.is_none();
        if speculate && m.is_acting_coordinator() {
            self.start_rebuild(m, node, true, now, out);
        }
        let waited_for = |rb: &mut Rebuild| rb.awaiting.remove(&node) && rb.awaiting.is_empty();
        if verdict == Verdict::Confirmed && self.rebuild.as_mut().is_some_and(waited_for) {
            self.finish_rebuild(m, now, out);
        }
    }

    /// The verdict on `victim`, now fenced. A block a rebuild begun at its
    /// suspicion decoded at this node's committed epoch enters custody;
    /// one of another epoch is dropped, and the rebuild starts anew, as it
    /// starts where none was begun. One still fetching installs when its
    /// last answer lands.
    pub fn on_fenced(&mut self, m: &Members, victim: NodeId, now: SimTime, out: &mut Vec<Action>) {
        let began_on_suspicion = |rb: &&mut Rebuild| rb.suspected && rb.victim == victim;
        if let Some(rb) = self.rebuild.as_mut().filter(began_on_suspicion) {
            rb.suspected = false;
            if let Some(rebuilt) = rb.decoded.take() {
                self.rebuild = None;
                if Some(rebuilt.0) == self.block(self.slot).map(|(e, _)| e) {
                    self.install(victim, rebuilt, out);
                } else {
                    let phase = "Stale";
                    out.push(Action::Note(Note::RebuildAborted { victim, phase }));
                }
            }
        }
        self.start_rebuild(m, victim, false, now, out);
    }

    /// A rebuild begun on a suspicion stands while the suspicion does and
    /// this node coordinates. A heartbeat that refutes it, a greeting that
    /// clears it, or a lower member back in session ends it, and nothing
    /// it fetched or decoded is kept.
    pub fn withdraw_speculation(&mut self, m: &Members, out: &mut Vec<Action>) {
        let speculative = self.rebuild.as_ref().filter(|rb| rb.suspected);
        let Some(victim) = speculative.map(|rb| rb.victim) else {
            return;
        };
        let n = victim.index();
        let phase = if !m.detector.is_suspected(n) && !m.detector.is_confirmed(n) {
            "Refuted"
        } else if !m.is_acting_coordinator() {
            "CoordinatorLost"
        } else {
            return;
        };
        self.rebuild = None;
        out.push(Action::Note(Note::RebuildAborted { victim, phase }));
    }

    /// `node` is back in: whatever this node held or was decoding for it
    /// is moot, and the group resumes from the committed round — every
    /// data slot from its committed image (the paper's cluster rollback).
    pub fn readmitted(&mut self, node: NodeId) {
        self.lost.remove(&node);
        if node != self.slot {
            self.held.remove(&node);
        }
        self.rebuild.take_if(|rb| rb.victim == node);
        let committed = self.held.get(&self.slot);
        if let Some((_, image)) = committed.filter(|_| self.parity_row.is_none()) {
            self.overwrite_live(image.clone());
        }
    }

    /// This node was fenced: the round it coordinates ends, and so does
    /// its rebuild, noted.
    pub fn stand_down(&mut self, m: &Members, out: &mut Vec<Action>) {
        self.abort_round(m, format!("{} was fenced", m.id), out);
        if let Some(victim) = self.rebuild.as_ref().map(|rb| rb.victim) {
            let phase = "Fenced";
            out.push(Action::Note(Note::RebuildAborted { victim, phase }));
        }
    }

    /// Installs what a resync shipped: the committed block of `epoch`,
    /// live again on a data slot. A data resync always ships bytes; an
    /// empty one means nothing was ever committed — restart from the seed.
    pub fn adopt(&mut self, m: &Members, epoch: u64, image: Option<Block>) {
        let (slot, spec) = (self.slot, &m.spec);
        if self.parity_row.is_none() {
            let seed = || initial_block(spec.cluster_id, slot, spec.image_len);
            self.overwrite_live(image.clone().unwrap_or_else(seed));
        }
        if let Some(block) = image {
            self.held.insert(slot, (epoch, block));
        }
    }

    /// A survivor's answer to a `FetchReq`: every page but the last of
    /// each block it holds but the victim's — its own first — as a part
    /// that shares the page with the held block, then a `FetchBlocks`
    /// with the last pages, copied.
    pub fn answer_fetch(&self, m: &Members, to: NodeId, victim: NodeId, out: &mut Vec<Action>) {
        let (node, fence_epoch) = (m.id, m.fences.epoch_of(m.id));
        let mut held: Vec<_> = self.held.iter().filter(|(n, _)| **n != victim).collect();
        held.sort_by_key(|(n, _)| **n != self.slot);
        let mut blocks = Vec::new();
        for (&holder, &(epoch, ref block)) in held {
            let kind = m.spec.kind_of(holder);
            let Some((last, pages)) = block.pages().split_last() else {
                continue;
            };
            for (i, page) in pages.iter().enumerate() {
                let msg = Msg::FetchPart {
                    node,
                    fence_epoch,
                    offset: (i * PART_LEN) as u64,
                    holder,
                    kind,
                    epoch,
                    data: Arc::clone(page),
                };
                out.push(Action::Send { to, msg });
            }
            let data = last.to_vec();
            blocks.push(BlockInfo {
                holder,
                kind,
                epoch,
                data,
            });
        }
        let msg = Msg::FetchBlocks {
            node,
            fence_epoch,
            blocks,
        };
        out.push(Action::Send { to, msg });
    }

    /// Asks every live member but `victim` for what it holds of the
    /// group, and plans the decode from what they should answer: each
    /// its own block at this node's committed epoch. `suspected`: begun at
    /// the suspicion, the verdict to come.
    fn start_rebuild(
        &mut self,
        m: &Members,
        victim: NodeId,
        suspected: bool,
        now: SimTime,
        out: &mut Vec<Action>,
    ) {
        if self.rebuild.is_some() || self.in_custody(victim) {
            return;
        }
        // A rebuild decodes from the committed generation, which a commit
        // under it would tear; and a round the victim was part of can
        // never finish. Whichever way it was reached, the round goes first.
        self.abort_round(m, format!("{victim} confirmed failed mid-round"), out);
        out.push(Action::Note(Note::RebuildStarted { victim }));
        out.push(Action::Note(Note::RebuildPhase {
            victim,
            phase: "Fetch",
        }));
        // A suspect still holds its session. The requests leave before
        // this node folds its own blocks.
        let mut peers = m.live_peers();
        peers.retain(|p| *p != victim);
        for &p in &peers {
            out.push(Action::Send {
                to: p,
                msg: Msg::FetchReq { victim },
            });
        }
        let epoch = self.committed_epoch();
        let expected = peers.iter().map(|p| (epoch, *p));
        let expected = self.whole_held(m, victim).chain(expected).collect();
        let spare = self.spare.take();
        let fold = (choose(m.spec.data_nodes, expected).ok())
            .and_then(|plan| self.plan_fold(m, victim, plan, spare).ok());
        self.rebuild = Some(Rebuild {
            victim,
            deadline: now + m.spec.rebuild_timeout,
            awaiting: peers.iter().copied().collect(),
            landed: BTreeMap::new(),
            fold,
            suspected,
            decoded: None,
        });
        if peers.is_empty() {
            self.finish_rebuild(m, now, out);
        }
    }

    /// The blocks this node holds that a rebuild of `victim` may read, as
    /// `(epoch, slot)`: every whole one but the victim's.
    fn whole_held(&self, m: &Members, victim: NodeId) -> impl Iterator<Item = (u64, NodeId)> + '_ {
        let len = m.spec.image_len;
        let usable = move |(n, (_, b)): &(&NodeId, &(u64, Block))| **n != victim && b.len() == len;
        (self.held.iter())
            .filter(usable)
            .map(|(n, (e, _))| (*e, *n))
    }

    /// The decode of `victim` at `epoch` from slots `reads`, into zeroed
    /// pages of `spare` where they are free: this node's own blocks among
    /// them are folded at once, where they lie.
    fn plan_fold(
        &self,
        m: &Members,
        victim: NodeId,
        (epoch, reads): (u64, Vec<NodeId>),
        spare: Option<Block>,
    ) -> Result<Fold, String> {
        let present: Vec<usize> = reads.iter().map(|n| n.index()).collect();
        let failed = |why| format!("decode at epoch {epoch} failed: {why}");
        let plan = self
            .code
            .plan(&present, &[victim.index()])
            .map_err(failed)?;
        let own = self
            .whole_held(m, victim)
            .filter(|(e, s)| *e == epoch && reads.contains(s));
        let own: Vec<NodeId> = own.map(|(_, s)| s).collect();
        let mut fold = Fold {
            epoch,
            reads,
            plan,
            folded: BTreeMap::new(),
            block: Block::recycle(spare, m.spec.image_len, |_, page| page.fill(0)),
        };
        for slot in own {
            for (index, page) in self.held[&slot].1.pages().iter().enumerate() {
                fold.part((slot, epoch), index, page);
            }
        }
        Ok(fold)
    }

    /// Parts of a survivor's answer: each lands once, by its block's slot
    /// and epoch, and is folded into the decode if the plan reads it, then
    /// dropped; a `FetchBlocks` (`closes`) ends the answer, and the last
    /// answer awaited settles the rebuild.
    pub fn on_fetched<'a>(
        &mut self,
        m: &Members,
        (node, fence_epoch): (NodeId, u64),
        parts: impl IntoIterator<Item = (Option<u64>, (NodeId, u64), &'a [u8])>,
        (closes, now): (bool, SimTime),
        out: &mut Vec<Action>,
    ) {
        if let Some(stale) = m.stale(node, fence_epoch) {
            return out.push(stale);
        }
        let Some(rb) = self
            .rebuild
            .as_mut()
            .filter(|rb| rb.awaiting.contains(&node))
        else {
            return;
        };
        for (offset, (holder, epoch), data) in parts {
            let reason = match m.spec.part(offset, data.len()) {
                Err(reason) => reason,
                Ok(index) => {
                    let (_, landed) = (rb.landed.entry((epoch, holder)))
                        .or_insert_with(|| (node, BTreeSet::new()));
                    // Folded, and never kept: a reader's buffer held on
                    // this thread pins that reader's allocator arena
                    // (EXPERIMENTS.md).
                    if landed.insert(index) {
                        if let Some(fold) = &mut rb.fold {
                            fold.part((holder, epoch), index, data);
                        }
                        continue;
                    }
                    format!("part {index} of {holder}'s block of epoch {epoch} has landed")
                }
            };
            out.push(Action::Note(Note::PayloadDropped { from: node, reason }));
        }
        if closes && rb.awaiting.remove(&node) && rb.awaiting.is_empty() {
            self.finish_rebuild(m, now, out);
        }
    }

    /// Settles the rebuild once no answer is awaited: the victim's block
    /// at the newest epoch of which `k` slots are whole — fetched with
    /// every part landed, or this node's own. If the fold read other
    /// slots, they are fetched anew into a fold planned for these.
    /// Otherwise the block is installed, or kept for the verdict by a
    /// rebuild begun on a suspicion. Failure is typed
    /// ([`Note::DataLoss`]), never a panic; before the verdict it only
    /// ends the rebuild.
    fn finish_rebuild(&mut self, m: &Members, now: SimTime, out: &mut Vec<Action>) {
        let Some(mut rb) = self.rebuild.take() else {
            return;
        };
        let (victim, parts) = (rb.victim, m.spec.parts());
        let slot = |(_, n): &(u64, NodeId)| *n != victim && n.index() < m.spec.total();
        let fetched = (rb.landed.iter()).filter(|(_, (_, p))| p.len() == parts);
        let whole = fetched.map(|(at, _)| *at).chain(self.whole_held(m, victim));
        let mut chosen = choose(m.spec.data_nodes, whole.filter(slot).collect());
        let done = |c: &&(u64, Vec<NodeId>)| rb.fold.as_ref().is_some_and(|f| f.done(c, parts));
        if let Some(plan) = chosen.as_ref().ok().filter(|c| !done(c)).cloned() {
            let at = |s: &NodeId| rb.landed.get(&(plan.0, *s)).map(|(from, _)| *from);
            let senders: BTreeSet<NodeId> = plan.1.iter().filter_map(at).collect();
            let spare = rb.fold.take().map(|f| f.block);
            match self.plan_fold(m, victim, plan, spare) {
                Err(reason) => chosen = Err(reason),
                Ok(fold) => {
                    // What the senders answered is answered again, into
                    // this fold.
                    rb.fold = Some(fold);
                    rb.landed.retain(|_, (from, _)| !senders.contains(from));
                    for &to in &senders {
                        let msg = Msg::FetchReq { victim };
                        out.push(Action::Send { to, msg });
                    }
                    (rb.deadline, rb.awaiting) = (now + m.spec.rebuild_timeout, senders);
                    if !rb.awaiting.is_empty() {
                        self.rebuild = Some(rb);
                        return;
                    }
                }
            }
        }
        // Every part is folded: the decode is the digest.
        out.push(Action::Note(Note::RebuildPhase {
            victim,
            phase: "Decode",
        }));
        let decoded = chosen.map(|(epoch, _)| {
            let block = rb.fold.take().expect("a fold of every read").block;
            let digest = block.digest();
            (epoch, block, digest)
        });
        match (decoded, rb.suspected) {
            (Ok(rebuilt), true) => {
                rb.decoded = Some(rebuilt);
                self.rebuild = Some(rb);
                out.push(Action::Note(Note::RebuildPhase {
                    victim,
                    phase: "Verdict",
                }));
            }
            (Ok(rebuilt), false) => self.install(victim, rebuilt, out),
            (Err(_), true) => {
                let phase = "Decode";
                out.push(Action::Note(Note::RebuildAborted { victim, phase }));
            }
            (Err(reason), false) => {
                self.data_loss = true;
                self.lost.insert(victim);
                out.push(Action::Note(Note::DataLoss { victim, reason }));
            }
        }
    }

    /// The rebuilt block of `victim` enters custody.
    fn install(&mut self, victim: NodeId, (epoch, block, digest): Rebuilt, out: &mut Vec<Action>) {
        self.held.insert(victim, (epoch, block));
        out.push(Action::Note(Note::RebuildCompleted {
            victim,
            epoch,
            digest,
        }));
    }

    /// Serves a fenced `node` its state back — or remembers it while a
    /// round or rebuild is open, or its own rebuild is still owed: its own
    /// retry covers a coordinator that has moved by then.
    pub fn serve_resync(&mut self, m: &Members, node: NodeId, out: &mut Vec<Action>) {
        let settled = self.in_custody(node) || self.lost.contains(&node);
        if self.coord_round.is_some() || self.rebuild.is_some() || !settled {
            self.resync_asked.insert(node);
            return;
        }
        self.resync_asked.remove(&node);
        let fence_epoch = m.fences.epoch_of(node);
        let committed_epoch = self.committed_epoch();
        let image = (self.held.get(&node))
            .filter(|(e, _)| !m.spec.is_parity(node) || *e == committed_epoch)
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

    /// `node` asked for its state before anyone fenced it, and this node
    /// has fenced it on its own word: it is answered once its rebuild
    /// settles.
    pub fn fenced_on_request(&mut self, node: NodeId) {
        self.resync_asked.insert(node);
    }

    /// Answers every remembered asker that what this entry point did has
    /// left answerable; the rest stay remembered. One no longer fenced was
    /// answered through its retry, and if coordination has moved the
    /// retry is what finds the new coordinator.
    pub fn serve_deferred_resyncs(&mut self, m: &Members, out: &mut Vec<Action>) {
        let asked = std::mem::take(&mut self.resync_asked);
        if asked.is_empty() || !m.is_acting_coordinator() {
            return;
        }
        for node in asked.into_iter().filter(|n| m.fences.is_fenced(*n)) {
            self.serve_resync(m, node, out);
        }
    }

    /// Starts a round if this node coordinates and the group is whole.
    /// Returns the typed reason when it cannot.
    pub fn try_start_round(
        &mut self,
        m: &Members,
        now: SimTime,
        out: &mut Vec<Action>,
    ) -> Result<(), String> {
        if m.unsure {
            return Err(format!("{} was frozen and may be fenced", m.id));
        }
        if !m.is_acting_coordinator() {
            let (id, coordinator) = (m.id, m.coordinator());
            return Err(format!("{id} is not the coordinator (try {coordinator})"));
        }
        if self.coord_round.is_some() {
            return Err("a round is already open".to_string());
        }
        if self.rebuild.is_some() {
            return Err("a rebuild is in flight".to_string());
        }
        let live = m.live_peers();
        // Every data slot must be covered by a live member or custody.
        let mut sources = Vec::new();
        for n in (0..m.spec.data_nodes).map(NodeId) {
            if n == self.slot || live.contains(&n) || self.held.contains_key(&n) {
                sources.push(n);
            } else {
                return Err(format!("{n} is down and not yet rebuilt into custody"));
            }
        }
        let holders: Vec<NodeId> = (m.spec.data_nodes..m.spec.total())
            .map(NodeId)
            .filter(|h| *h == self.slot || live.contains(h))
            .collect();
        if holders.is_empty() {
            return Err("no live parity holder".to_string());
        }
        let epoch = self.last_begun.max(self.committed_epoch()) + 1;
        self.last_begun = epoch;
        let members = sources.iter().chain(&holders).copied();
        let members: BTreeSet<NodeId> = members.filter(|n| !self.in_custody(*n)).collect();
        self.coord_round = Some(CoordRound {
            epoch,
            deadline: now + m.spec.round_timeout,
            pending: members.clone(),
            members,
            committing: false,
        });
        out.push(Action::Note(Note::RoundStarted { epoch }));
        // The coordinator takes part as every member does.
        for p in live.into_iter().chain([m.id]) {
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

    pub fn on_round_begin(
        &mut self,
        m: &Members,
        (epoch, sources, holders): (u64, Vec<NodeId>, Vec<NodeId>),
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
        let ships = (sources.iter()).any(|s| *s == self.slot || self.held.contains_key(s));
        self.part_round = Some(PartRound {
            epoch,
            started_at: now,
            sources,
            holders,
            capture_due: ships.then(|| now + m.spec.capture_delay),
            expires_at: now + m.spec.round_timeout * 2.0,
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
                self.on_part(m, from, (parked, source, fence_epoch, offset), data, out);
            }
        }
        // A zero capture delay fires immediately.
        self.do_capture(m, now, out);
    }

    /// Performs the deferred capture once it is due: a data member ships
    /// its live image, or its term of the holder's row, to every holder
    /// and acks the coordinator, and the coordinator ships the custody
    /// block of every source that is out the same way, so the encode
    /// always spans all `k` data slots.
    fn do_capture(&mut self, m: &Members, now: SimTime, out: &mut Vec<Action>) {
        let Some(r) = &mut self.part_round else {
            return;
        };
        if r.capture_due.take_if(|due| now >= *due).is_none() {
            return;
        }
        let (epoch, holders, sources) = (r.epoch, r.holders.clone(), r.sources.clone());
        let window_secs = now.since(r.started_at).as_secs();
        // The block this node commits is `live` itself, once the guest has
        // made the write it owes: nothing writes it before the commit
        // promotes it, and whatever does voids the capture. What travels
        // is its pages.
        let captured = sources.contains(&self.slot);
        r.captured = captured;
        self.write_guest(m);
        self.make_terms(m);
        if captured {
            self.ship(m, (epoch, self.slot), self.live.as_ref(), &holders, out);
            let (to, node) = (m.coordinator(), self.slot);
            let msg = Msg::CaptureAck { epoch, node };
            out.push(Action::Send { to, msg });
            out.push(Action::Note(Note::CaptureShipped { epoch, window_secs }));
        }
        if m.is_acting_coordinator() {
            for &s in sources.iter().filter(|s| self.in_custody(**s)) {
                self.ship(m, (epoch, s), self.block(s).map(|(_, b)| b), &holders, out);
            }
        }
    }

    /// A part of slot `source`'s capture of round `epoch` at `offset` (or,
    /// with none, the block's last part) — its image on row 0, its term
    /// of this row on any other: parked if its round has not begun here,
    /// else XORed into the staged shard at most once. A source counts as
    /// folded once every part of its block is, and the shard is acked
    /// once all `k` are.
    pub fn on_part(
        &mut self,
        m: &Members,
        from: NodeId,
        (epoch, source, fence_epoch, offset): (u64, NodeId, u64, Option<u64>),
        data: Page,
        out: &mut Vec<Action>,
    ) {
        let dropped = |reason: String| Action::Note(Note::PayloadDropped { from, reason });
        if self.parity_row.is_none() {
            return out.push(dropped("this node holds no parity".to_string()));
        }
        if let Some(stale) = m.stale(from, fence_epoch) {
            return out.push(stale);
        }
        let index = match m.spec.part(offset, data.len()) {
            Ok(index) => index,
            Err(reason) => return out.push(dropped(reason)),
        };
        if !m.spec.is_data(source) {
            return out.push(dropped(format!("{source} is not a data slot")));
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
        let parts = m.spec.parts();
        let Some(r) = self.part_round.as_mut().filter(|r| r.epoch == epoch) else {
            return out.push(dropped(format!("round {epoch} is not open here")));
        };
        if !r.sources.contains(&source) {
            let reason = format!("{source} is not a source of round {epoch}");
            return out.push(dropped(reason));
        }
        // Folding the same bytes twice would undo them, silently.
        let folded = r.folded.entry(source).or_default();
        if !folded.insert(index) {
            let reason = format!("part {index} of {source} is already folded in round {epoch}");
            return out.push(dropped(reason));
        }
        let whole = folded.len() == parts;
        // XOR the part into its page of our shard and drop it. Each part
        // is its source's term of this row, already scaled, so every part
        // of k blocks folded in any order into zeros equals `encode`'s
        // shard; the zeros are the spare pages, cleared.
        let len = m.spec.image_len;
        let shard = (r.staged_parity)
            .get_or_insert_with(|| Block::recycle(self.spare.take(), len, |_, page| page.fill(0)));
        xor_into(shard.page_mut(index), &data);
        if !whole || r.folded_whole(parts) < m.spec.data_nodes {
            return;
        }
        let (to, node) = (m.coordinator(), self.slot);
        let msg = Msg::FoldAck { epoch, node };
        out.push(Action::Send { to, msg });
    }

    /// Coordinator: records `node`'s ack of round `epoch`'s capture or
    /// fold, or (`commit`) of its commit. Once no member owes one, the
    /// round commits, or is committed and closes, and the `dvdc-ctl`
    /// request that opened it hears so.
    pub fn on_ack(&mut self, epoch: u64, node: NodeId, commit: bool, out: &mut Vec<Action>) {
        let open = |r: &&mut CoordRound| r.epoch == epoch && r.committing == commit;
        let Some(r) = self.coord_round.as_mut().filter(open) else {
            return;
        };
        if !r.pending.remove(&node) || !r.pending.is_empty() {
            return;
        }
        if commit {
            self.coord_round = None;
            out.push(Action::Note(Note::RoundCommitted { epoch }));
            let msg = Msg::CheckpointDone { epoch };
            return out.push(Action::Send { to: CTL, msg });
        }
        r.committing = true;
        r.pending.clone_from(&r.members);
        for &p in &r.members {
            let msg = Msg::Commit { epoch };
            out.push(Action::Send { to: p, msg });
        }
    }

    /// Participant: promote staged state to committed, ack the
    /// coordinator, and on a data slot owe the guest's next write, which
    /// the next round's capture window pays.
    pub fn on_commit(&mut self, m: &Members, epoch: u64, out: &mut Vec<Action>) {
        let Some(r) = self.part_round.take_if(|r| r.epoch == epoch) else {
            return;
        };
        // A shard short of a block, or of a part, is not parity of
        // anything: drop it.
        let whole = r.folded_whole(m.spec.parts()) == m.spec.data_nodes;
        if let Some(shard) = r.staged_parity.filter(|_| whole) {
            self.promote(epoch, shard);
        }
        // A write still owed is made before this commit owes the next. The
        // captured image is committed by move.
        self.write_guest(m);
        if let Some(image) = self.live.take_if(|_| r.captured) {
            self.drop_terms();
            self.promote(epoch, image);
        }
        self.owed_write = self.parity_row.is_none().then_some(epoch);
        // Custody orphans' images are re-committed at this epoch (same
        // bytes). An orphan's parity shard is parity of the round it was
        // rebuilt at and of no later one: it keeps that epoch, so a resync
        // or a rebuild never takes it for current.
        for (n, (e, _)) in &mut self.held {
            if *n != self.slot && m.spec.is_data(*n) {
                *e = epoch;
            }
        }
        self.rounds_committed += 1;
        let (to, node) = (m.coordinator(), self.slot);
        let msg = Msg::CommitAck { epoch, node };
        out.push(Action::Send { to, msg });
    }

    /// Participant: round `epoch` is abandoned, if it is the one open.
    pub fn on_abort(&mut self, epoch: u64, reason: String, out: &mut Vec<Action>) {
        if self.part_round.take_if(|r| r.epoch == epoch).is_some() {
            out.push(Action::Note(Note::RoundAborted { epoch, reason }));
        }
    }

    /// Coordinator: abandons the open round, if there is one, and tells
    /// the `dvdc-ctl` request that opened it why. Its own part of the
    /// round ends here, not by an `AbortRound` to itself, which would note
    /// the abort a second time.
    pub fn abort_round(&mut self, m: &Members, reason: String, out: &mut Vec<Action>) {
        let Some(epoch) = self.coord_round.take().map(|r| r.epoch) else {
            return;
        };
        for p in m.live_peers() {
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
        let msg = Msg::CheckpointFailed { reason };
        out.push(Action::Send { to: CTL, msg });
    }

    /// Makes `block` the committed block of `epoch`, keeping the pages of
    /// the one it replaces as the spare.
    fn promote(&mut self, epoch: u64, block: Block) {
        self.spare = self.held.insert(self.slot, (epoch, block)).map(|(_, b)| b);
    }

    /// Makes the guest write a commit left owed: the stream of that epoch,
    /// from the committed block into pages the commit freed, or over
    /// `live` in place when the commit promoted none of it — where a page
    /// is still shipped or committed, over a copy.
    fn write_guest(&mut self, m: &Members) {
        let Some(epoch) = self.owed_write.take() else {
            return;
        };
        self.drop_terms();
        let seed = churn_seed(m.spec.cluster_id, self.slot, epoch);
        match &mut self.live {
            Some(live) => {
                for i in 0..live.pages().len() {
                    xor_pseudo(page_seed(seed, i), None, live.page_mut(i));
                }
            }
            None => {
                let (_, image) = self.held.get(&self.slot).expect("the commit promoted live");
                let pages = image.pages();
                let next = Block::recycle(self.spare.take(), image.len(), |i, page| {
                    xor_pseudo(page_seed(seed, i), Some(&pages[i]), page)
                });
                self.live = Some(next);
            }
        }
    }

    /// Makes `image` the live image outside a commit, and forgets a guest
    /// write still owed. What the open round captured is no longer there,
    /// so its commit promotes nothing; the pages it shipped are untouched.
    fn overwrite_live(&mut self, image: Block) {
        self.owed_write = None;
        self.drop_terms();
        self.live = Some(image);
        if let Some(r) = &mut self.part_round {
            r.captured = false;
        }
    }

    /// Forgets the terms of `live`, keeping their pages for the next ones.
    fn drop_terms(&mut self) {
        self.spare_terms.append(&mut self.terms);
    }

    /// Makes the term of `live` of each parity row `j ≥ 1` among the open
    /// round's holders that `terms` lacks, if this slot is a source of it.
    fn make_terms(&mut self, m: &Members) {
        let (Some(r), Some(live)) = (&self.part_round, &self.live) else {
            return;
        };
        if !r.sources.contains(&self.slot) {
            return;
        }
        for j in r
            .holders
            .iter()
            .filter_map(|h| row(m, *h))
            .filter(|j| *j > 0)
        {
            if let Entry::Vacant(term) = self.terms.entry(j) {
                let spare = self.spare_terms.remove(&j);
                term.insert(scale(&self.code, (j, self.slot), live, spare));
            }
        }
    }

    /// Sends `block` as slot `source`'s capture of round `epoch` to every
    /// holder, each page a part by reference: to row 0's holder the
    /// block's own pages, to row `j`'s its term — this slot's made in the
    /// window, any other's (a custody block's) made here.
    fn ship(
        &self,
        m: &Members,
        (epoch, source): (u64, NodeId),
        block: Option<&Block>,
        holders: &[NodeId],
        out: &mut Vec<Action>,
    ) {
        let Some(block) = block else {
            return;
        };
        let fence_epoch = m.fences.epoch_of(m.id);
        let own = (source == self.slot).then_some(&self.terms);
        for &h in holders {
            let Some(j) = row(m, h) else {
                continue;
            };
            let made;
            let part = if j == 0 {
                block
            } else if let Some(term) = own.and_then(|terms| terms.get(&j)) {
                term
            } else {
                made = scale(&self.code, (j, source), block, None);
                &made
            };
            let parts = part
                .pages()
                .iter()
                .enumerate()
                .map(|(i, page)| Msg::PayloadPart {
                    epoch,
                    source,
                    fence_epoch,
                    offset: (i * PART_LEN) as u64,
                    data: Arc::clone(page),
                });
            out.extend(parts.map(|msg| Action::Send { to: h, msg }));
        }
    }
}

/// The parity row slot `h` holds, if it is a parity slot.
fn row(m: &Members, h: NodeId) -> Option<usize> {
    let j = h.index().checked_sub(m.spec.data_nodes)?;
    (j < m.spec.parity_nodes).then_some(j)
}

/// Slot `source`'s term of parity row `j`, `c_{j,source}·block`, into the
/// pages of `spare` where nothing else holds them.
fn scale(
    code: &ReedSolomon,
    (j, source): (usize, NodeId),
    block: &Block,
    spare: Option<Block>,
) -> Block {
    let pages = block.pages();
    Block::recycle(spare, block.len(), |i, page| {
        page.fill(0);
        code.apply_delta(j, page, source.index(), 0, &pages[i]);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::node_core::{block_digest, initial_image};
    use dvdc_faults::detector::FailureDetector;
    use dvdc_simcore::time::Duration;
    use dvdc_vcluster::messaging::FenceRegistry;

    /// A 2+1 group of 64-byte images whose captures are due at once.
    fn spec() -> ClusterSpec {
        ClusterSpec {
            cluster_id: 7,
            data_nodes: 2,
            parity_nodes: 1,
            image_len: 64,
            ..ClusterSpec::default()
        }
    }

    /// A stub view: slot `id` in session with every other member, none
    /// judged, none fenced.
    fn view(id: usize) -> Members {
        view_in(&spec(), id)
    }

    /// [`view`] of a group of `spec`.
    fn view_in(spec: &ClusterSpec, id: usize) -> Members {
        Members {
            id: NodeId(id),
            sessions: (0..spec.total()).filter(|p| *p != id).map(NodeId).collect(),
            detector: FailureDetector::new(spec.detector, [], SimTime::ZERO),
            fences: FenceRegistry::new(),
            unsure: false,
            spec: spec.clone(),
        }
    }

    /// Delivers every send in `out`, which slot `from` made, to the group
    /// it addresses, and what that sends in turn, until none is left;
    /// returns the rest: notes and what `CTL` is told.
    fn deliver(
        groups: &mut [GroupCore],
        views: &[Members],
        from: usize,
        out: Vec<Action>,
    ) -> Vec<Action> {
        let mut queue: std::collections::VecDeque<_> = out.into_iter().map(|a| (from, a)).collect();
        let mut rest = Vec::new();
        while let Some((from, action)) = queue.pop_front() {
            let (to, msg) = match action {
                Action::Send { to, msg } if to != CTL => (to.index(), msg),
                other => {
                    rest.push(other);
                    continue;
                }
            };
            let from = NodeId(from);
            let (g, m, now, mut out) = (&mut groups[to], &views[to], SimTime::ZERO, Vec::new());
            match msg {
                Msg::RoundBegin {
                    epoch,
                    sources,
                    holders,
                } => g.on_round_begin(m, (epoch, sources, holders), now, &mut out),
                Msg::Payload {
                    epoch,
                    source,
                    fence_epoch,
                    data,
                } => {
                    let part = (epoch, source, fence_epoch, None);
                    g.on_part(m, from, part, Arc::new(data), &mut out)
                }
                Msg::PayloadPart {
                    epoch,
                    source,
                    fence_epoch,
                    offset,
                    data,
                } => {
                    let part = (epoch, source, fence_epoch, Some(offset));
                    g.on_part(m, from, part, data, &mut out)
                }
                Msg::CaptureAck { epoch, node } | Msg::FoldAck { epoch, node } => {
                    g.on_ack(epoch, node, false, &mut out)
                }
                Msg::Commit { epoch } => g.on_commit(m, epoch, &mut out),
                Msg::CommitAck { epoch, node } => g.on_ack(epoch, node, true, &mut out),
                Msg::FetchReq { victim } => g.answer_fetch(m, NodeId(0), victim, &mut out),
                msg @ (Msg::FetchPart { .. } | Msg::FetchBlocks { .. }) => {
                    fetched(g, m, msg, &mut out)
                }
                other => panic!("no group message: {other:?}"),
            }
            queue.extend(out.into_iter().map(|a| (to, a)));
        }
        rest
    }

    /// Hands the coordinator `g` one message of a survivor's answer.
    fn fetched(g: &mut GroupCore, m: &Members, msg: Msg, out: &mut Vec<Action>) {
        let now = SimTime::ZERO;
        match msg {
            Msg::FetchPart {
                node,
                fence_epoch,
                offset,
                holder,
                epoch,
                data,
                ..
            } => {
                let part = [(Some(offset), (holder, epoch), &data[..])];
                g.on_fetched(m, (node, fence_epoch), part, (false, now), out)
            }
            Msg::FetchBlocks {
                node,
                fence_epoch,
                blocks,
            } => {
                let last = (blocks.iter()).map(|b| (None, (b.holder, b.epoch), &b.data[..]));
                g.on_fetched(m, (node, fence_epoch), last, (true, now), out)
            }
            other => panic!("no answer: {other:?}"),
        }
    }

    /// The three slots of `spec()` after round 1 committed, and their views.
    fn committed_round_1() -> (Vec<GroupCore>, Vec<Members>) {
        let views: Vec<Members> = (0..3).map(view).collect();
        let mut groups: Vec<GroupCore> =
            (0..3).map(|i| GroupCore::new(NodeId(i), &spec())).collect();
        let mut out = Vec::new();
        groups[0]
            .try_start_round(&views[0], SimTime::ZERO, &mut out)
            .expect("the coordinator of a whole group opens a round");
        let rest = deliver(&mut groups, &views, 0, out);
        let done = Action::Send {
            to: CTL,
            msg: Msg::CheckpointDone { epoch: 1 },
        };
        assert_eq!(rest[0], Action::Note(Note::RoundStarted { epoch: 1 }));
        assert!(rest.contains(&Action::Note(Note::RoundCommitted { epoch: 1 })));
        assert_eq!(rest.last(), Some(&done), "{rest:?}");
        (groups, views)
    }

    #[test]
    fn a_round_begins_captures_folds_and_commits_in_each_slot() {
        let (groups, _) = committed_round_1();
        let images: Vec<Vec<u8>> = (0..2).map(|i| initial_image(7, NodeId(i), 64)).collect();
        let refs: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
        let parity = spec().code().encode(&refs).remove(0);
        for (slot, want) in images.iter().chain([&parity]).enumerate() {
            let (epoch, block) = groups[slot].block(NodeId(slot)).expect("committed");
            assert_eq!((epoch, block.to_vec()), (1, want.clone()), "slot {slot}");
        }
        // A data slot owes its guest's next write; the holder owes none.
        let owed: Vec<Option<u64>> = groups.iter().map(|g| g.owed_write).collect();
        assert_eq!(owed, [Some(1), Some(1), None]);
        assert!(groups.iter().all(|g| g.rounds_committed == 1));
    }

    #[test]
    fn a_rebuild_fetches_decodes_and_installs_the_victims_block() {
        let (mut groups, mut views) = committed_round_1();
        let want = groups[1].block(NodeId(1)).expect("committed").1.to_vec();
        // Slot 1 is fenced, as the node layer fences it, and the group hears.
        views[0].fences.fence(NodeId(1));
        views[0].sessions.remove(&NodeId(1));
        let mut out = Vec::new();
        groups[0].on_fenced(&views[0], NodeId(1), SimTime::ZERO, &mut out);
        let rest = deliver(&mut groups, &views, 0, out);
        let phase = |phase| Note::RebuildPhase {
            victim: NodeId(1),
            phase,
        };
        let completed = Note::RebuildCompleted {
            victim: NodeId(1),
            epoch: 1,
            digest: block_digest(&want),
        };
        let notes = [
            Note::RebuildStarted { victim: NodeId(1) },
            phase("Fetch"),
            phase("Decode"),
            completed,
        ];
        assert_eq!(rest, notes.map(Action::Note));
        let custody = groups[0].block(NodeId(1)).map(|(e, b)| (e, b.to_vec()));
        assert_eq!(custody, Some((1, want)));
        assert!(groups[0].in_custody(NodeId(1)) && !groups[0].in_custody(NodeId(0)));
        // Its readmission drops the custody block, and nothing else.
        groups[0].readmitted(NodeId(1));
        assert_eq!(groups[0].held.keys().collect::<Vec<_>>(), [&NodeId(0)]);
    }

    /// A `k`+`m` group whose blocks are two whole parts and a ragged third.
    fn ragged(k: usize, m: usize) -> ClusterSpec {
        ClusterSpec {
            data_nodes: k,
            parity_nodes: m,
            image_len: 2 * PART_LEN + 4_099,
            ..spec()
        }
    }

    /// Every slot's committed block of round 1 of `spec`: the initial
    /// images, then what `encode` makes of them.
    fn blocks_of(spec: &ClusterSpec) -> Vec<Vec<u8>> {
        let k = spec.data_nodes;
        let mut blocks: Vec<Vec<u8>> = (0..k)
            .map(|i| initial_image(7, NodeId(i), spec.image_len))
            .collect();
        let refs: Vec<&[u8]> = blocks.iter().map(Vec::as_slice).collect();
        let parity = spec.code().encode(&refs);
        blocks.extend(parity);
        blocks
    }

    /// Every slot of `spec` holding its `blocks` entry, committed at round 1.
    fn holding(spec: &ClusterSpec, blocks: &[Vec<u8>]) -> Vec<GroupCore> {
        let group = |(i, b): (usize, &Vec<u8>)| {
            let mut g = GroupCore::new(NodeId(i), spec);
            g.held.insert(NodeId(i), (1, Block::from(b.clone())));
            g
        };
        blocks.iter().enumerate().map(group).collect()
    }

    /// The bytes of the pages the rebuild in flight at `g` holds.
    fn rebuild_bytes(g: &GroupCore) -> usize {
        let rb = g.rebuild.as_ref().expect("a rebuild in flight");
        rb.fold.as_ref().map_or(0, |f| f.block.len())
    }

    #[test]
    fn any_interleaving_of_answers_decodes_what_reconstruct_does() {
        for (k, m) in [(4, 1), (4, 2), (3, 2)] {
            let s = ragged(k, m);
            let (n, whole) = (s.total(), blocks_of(&s));
            let singles = (0..n).map(|a| vec![a]);
            let pairs =
                (0..n).flat_map(|a| (0..n).filter(move |b| *b != a).map(move |b| vec![a, b]));
            for (case, lost) in singles.chain(pairs).enumerate() {
                let victim = NodeId(lost[0]);
                let c = (0..n).find(|i| !lost.contains(i)).expect("a survivor");
                let mut views: Vec<Members> = (0..n).map(|i| view_in(&s, i)).collect();
                for v in &mut views {
                    v.sessions.retain(|p| !lost.contains(&p.index()));
                }
                views[c].fences.fence(victim);
                let mut groups = holding(&s, &whole);
                let mut rng = (k * 100 + m * 10 + case) as u64;
                let (mut answers, mut notes) =
                    (vec![std::collections::VecDeque::new(); n], Vec::new());
                let mut out = Vec::new();
                groups[c].on_fenced(&views[c], victim, SimTime::ZERO, &mut out);
                loop {
                    // Each survivor asked answers in order; the answers
                    // land interleaved at random.
                    for action in out.drain(..) {
                        match action {
                            Action::Send {
                                to,
                                msg: Msg::FetchReq { victim },
                            } => {
                                let (g, m, mut sent) =
                                    (&groups[to.index()], &views[to.index()], Vec::new());
                                g.answer_fetch(m, NodeId(c), victim, &mut sent);
                                let sent = sent.into_iter().map(|a| match a {
                                    Action::Send { msg, .. } => msg,
                                    other => panic!("{other:?}"),
                                });
                                answers[to.index()].extend(sent);
                            }
                            Action::Note(note) => notes.push(note),
                            other => panic!("{other:?}"),
                        }
                    }
                    let pending: Vec<usize> = (0..n).filter(|i| !answers[*i].is_empty()).collect();
                    if pending.is_empty() {
                        break;
                    }
                    rng = dvdc_simcore::rng::splitmix64(rng);
                    let from = pending[rng as usize % pending.len()];
                    let msg = answers[from].pop_front().expect("pending");
                    fetched(&mut groups[c], &views[c], msg, &mut out);
                }
                let ctx = format!("{k}+{m} lost {lost:?}");
                let custody = groups[c].block(victim);
                if lost.len() > m {
                    assert!(custody.is_none() && groups[c].data_loss, "{ctx}");
                    continue;
                }
                let mut shards: Vec<Option<Vec<u8>>> = whole.iter().cloned().map(Some).collect();
                for l in &lost {
                    shards[*l] = None;
                }
                s.code().reconstruct(&mut shards).expect("within tolerance");
                let want = shards[victim.index()].clone().expect("reconstructed");
                let (epoch, block) = custody.expect("in custody");
                assert!(epoch == 1 && *block == want[..], "{ctx}");
                let completed = Note::RebuildCompleted {
                    victim,
                    epoch: 1,
                    digest: block_digest(&want),
                };
                assert_eq!(notes.last(), Some(&completed), "{ctx}");
            }
        }
    }

    #[test]
    fn a_rebuild_holds_one_block_and_no_part_it_has_folded() {
        let s = ragged(4, 1);
        let whole = blocks_of(&s);
        let mut groups = holding(&s, &whole);
        let mut views: Vec<Members> = (0..5).map(|i| view_in(&s, i)).collect();
        views[0].fences.fence(NodeId(2));
        views[0].sessions.remove(&NodeId(2));
        let mut out = Vec::new();
        groups[0].on_fenced(&views[0], NodeId(2), SimTime::ZERO, &mut out);
        // The fold is the one block, planned before any answer lands.
        assert_eq!(rebuild_bytes(&groups[0]), s.image_len);
        for node in [1, 3, 4] {
            let mut answer = Vec::new();
            groups[node].answer_fetch(&views[node], NodeId(0), NodeId(2), &mut answer);
            for action in answer {
                let Action::Send { mut msg, .. } = action else {
                    panic!("{action:?}");
                };
                // The part lands as a page of its own, which only this
                // test still holds once it is folded.
                let mut page = None;
                if let Msg::FetchPart { data, .. } = &mut msg {
                    *data = Arc::new(data.to_vec());
                    page = Some(Arc::clone(data));
                }
                let mut out = Vec::new();
                fetched(&mut groups[0], &views[0], msg, &mut out);
                if let Some(page) = page {
                    assert_eq!(Arc::strong_count(&page), 1, "{node}");
                }
                if groups[0].rebuild.is_some() {
                    assert_eq!(rebuild_bytes(&groups[0]), s.image_len, "{node}");
                }
            }
        }
        let custody = groups[0].block(NodeId(2)).map(|(e, b)| (e, b.to_vec()));
        assert_eq!(custody, Some((1, whole[2].clone())));
    }

    #[test]
    fn an_answer_ships_the_held_pages_by_reference_and_copies_only_the_last() {
        let s = ragged(4, 2);
        let whole = blocks_of(&s);
        let mut groups = holding(&s, &whole);
        // Slot 3 holds slot 1's block in custody too: both travel.
        let custody = groups[1].held[&NodeId(1)].clone();
        groups[3].held.insert(NodeId(1), custody);
        let mut out = Vec::new();
        groups[3].answer_fetch(&view_in(&s, 3), NodeId(0), NodeId(2), &mut out);
        let sent: Vec<Msg> = (out.into_iter())
            .map(|a| match a {
                Action::Send { to: NodeId(0), msg } => msg,
                other => panic!("{other:?}"),
            })
            .collect();
        let Some((Msg::FetchBlocks { blocks, .. }, parts)) = sent.split_last() else {
            panic!("an answer closes with its last parts: {sent:?}");
        };
        // Its own block first, then the custody block.
        let held = [NodeId(3), NodeId(1)].map(|n| (n, groups[3].held[&n].1.pages()));
        assert_eq!(parts.len(), 2 * 2);
        for (part, (i, (slot, pages))) in parts.iter().zip(
            held.iter()
                .flat_map(|(n, p)| (0..2).map(move |i| (i, (*n, *p)))),
        ) {
            let Msg::FetchPart {
                offset,
                holder,
                epoch,
                data,
                ..
            } = part
            else {
                panic!("{part:?}");
            };
            assert_eq!((*offset, *holder, *epoch), ((i * PART_LEN) as u64, slot, 1));
            assert!(Arc::ptr_eq(data, &pages[i]), "{slot} part {i}");
        }
        for (info, (slot, pages)) in blocks.iter().zip(&held) {
            assert_eq!((info.holder, info.epoch), (*slot, 1));
            assert!(info.data[..] == pages[2][..], "{slot}");
        }
    }

    /// Slot `source`'s term of parity row `j` over `image`,
    /// `c_{j,source}·image`, made here rather than by the code under test.
    fn term(s: &ClusterSpec, j: usize, source: usize, image: &[u8]) -> Vec<u8> {
        let mut term = vec![0; image.len()];
        s.code().apply_delta(j, &mut term, source, 0, image);
        term
    }

    /// The `len` bytes the parts in `out` ship to `holder`, each part once.
    fn shipped_to(out: &[Action], holder: usize, len: usize) -> Vec<u8> {
        let mut bytes = vec![0xEE; len];
        let mut offsets = Vec::new();
        for action in out {
            if let Action::Send {
                to,
                msg: Msg::PayloadPart { offset, data, .. },
            } = action
            {
                if to.index() == holder {
                    let at = *offset as usize;
                    bytes[at..at + data.len()].copy_from_slice(data);
                    offsets.push(at);
                }
            }
        }
        let every: Vec<usize> = (0..len.div_ceil(PART_LEN)).map(|i| i * PART_LEN).collect();
        assert_eq!(offsets, every, "every part to {holder}, once, in order");
        bytes
    }

    /// Runs round `epoch` of `groups` from slot 0, its coordinator, to its
    /// commit. With a capture delay, every live slot ticks at the round's
    /// start, where a source makes its terms, and again at its capture.
    fn run_round(groups: &mut [GroupCore], views: &[Members], epoch: u64) {
        let mut out = Vec::new();
        let start = SimTime::ZERO;
        groups[0]
            .try_start_round(&views[0], start, &mut out)
            .expect("the coordinator opens a round");
        let mut rest = deliver(groups, views, 0, out);
        let live: Vec<usize> = (0..groups.len())
            .filter(|i| *i == 0 || views[0].sessions.contains(&NodeId(*i)))
            .collect();
        let delay = views[0].spec.capture_delay;
        if delay > Duration::ZERO {
            for at in [start, start + delay] {
                for &i in &live {
                    let mut out = Vec::new();
                    groups[i].on_tick(&views[i], at, &mut out);
                    if at == start {
                        // The terms are made before the capture is due.
                        let (s, g) = (&views[i].spec, &groups[i]);
                        let rows = if s.is_data(NodeId(i)) {
                            1..s.parity_nodes
                        } else {
                            0..0
                        };
                        assert_eq!(
                            g.terms.keys().copied().collect::<Vec<_>>(),
                            rows.collect::<Vec<_>>()
                        );
                    }
                    rest.extend(deliver(groups, views, i, out));
                }
            }
        }
        let dropped = |a: &&Action| matches!(a, Action::Note(Note::PayloadDropped { .. }));
        assert_eq!(rest.iter().find(dropped), None);
        assert!(
            rest.contains(&Action::Note(Note::RoundCommitted { epoch })),
            "{rest:?}"
        );
    }

    /// Asserts that every holder's committed shard of round `epoch` is
    /// `encode` of the data slots' committed blocks: each slot's own, or
    /// the one slot 0 holds in custody for it.
    fn assert_parity(groups: &[GroupCore], s: &ClusterSpec, epoch: u64, ctx: &str) {
        let k = s.data_nodes;
        let data: Vec<Vec<u8>> = (0..k)
            .map(|i| {
                let custodian = if groups[0].in_custody(NodeId(i)) {
                    0
                } else {
                    i
                };
                let (at, block) = groups[custodian].block(NodeId(i)).expect("committed");
                assert_eq!(at, epoch, "{ctx}, slot {i}");
                block.to_vec()
            })
            .collect();
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        for (j, want) in s.code().encode(&refs).into_iter().enumerate() {
            let (at, shard) = groups[k + j].block(NodeId(k + j)).expect("a shard");
            assert!(at == epoch && *shard == want[..], "{ctx}, row {j}");
        }
    }

    #[test]
    fn every_commit_leaves_each_holder_the_encoded_shard_of_the_committed_images() {
        for (k, m) in [(3, 2), (4, 2), (4, 3)] {
            let s = ragged(k, m);
            let mut views: Vec<Members> = (0..s.total()).map(|i| view_in(&s, i)).collect();
            let mut groups: Vec<GroupCore> = (0..s.total())
                .map(|i| GroupCore::new(NodeId(i), &s))
                .collect();
            let delays = [5.0, 0.0, 5.0, 0.0].map(Duration::from_millis);
            for (epoch, delay) in (1..).zip(delays) {
                if epoch == 3 {
                    // Slot 1 is fenced and rebuilt into slot 0's custody:
                    // from here on slot 0 ships its block too.
                    for v in &mut views {
                        v.fences.fence(NodeId(1));
                        v.sessions.remove(&NodeId(1));
                    }
                    let mut out = Vec::new();
                    groups[0].on_fenced(&views[0], NodeId(1), SimTime::ZERO, &mut out);
                    deliver(&mut groups, &views, 0, out);
                    assert!(groups[0].in_custody(NodeId(1)), "{k}+{m}");
                }
                for v in &mut views {
                    v.spec.capture_delay = delay;
                }
                run_round(&mut groups, &views, epoch);
                assert_parity(&groups, &s, epoch, &format!("{k}+{m}, round {epoch}"));
            }
        }
    }

    #[test]
    fn a_live_image_replaced_in_the_capture_window_ships_the_new_images_terms() {
        let s = ClusterSpec {
            capture_delay: Duration::from_millis(5.0),
            ..ragged(4, 2)
        };
        let m = view_in(&s, 1);
        // Slot 1's image at boot, another committed, a third resynced.
        let image = |cluster_id| initial_image(cluster_id, NodeId(1), s.image_len);
        let (initial, committed, resynced) = (image(7), image(9), image(11));
        type Replace = fn(&mut GroupCore, &Members, Vec<u8>);
        let replacements: [(&str, Vec<u8>, Replace); 2] = [
            ("a resync's adopt", resynced, |g, m, image| {
                g.adopt(m, 1, Some(Block::from(image)))
            }),
            ("a readmission's rollback", committed.clone(), |g, _, _| {
                g.readmitted(NodeId(3))
            }),
        ];
        for (how, image, replace) in replacements {
            let mut g = GroupCore::new(NodeId(1), &s);
            g.held
                .insert(NodeId(1), (1, Block::from(committed.clone())));
            let (sources, holders) = ((0..4).map(NodeId).collect(), vec![NodeId(4), NodeId(5)]);
            let mut out = Vec::new();
            g.on_round_begin(&m, (2, sources, holders), SimTime::ZERO, &mut out);
            g.on_tick(&m, SimTime::ZERO, &mut out);
            assert!(g.terms[&1] == term(&s, 1, 1, &initial)[..], "{how}");
            replace(&mut g, &m, image.clone());
            assert!(g.terms.is_empty(), "{how}");
            let mut out = Vec::new();
            g.on_tick(&m, SimTime::ZERO + s.capture_delay, &mut out);
            assert_eq!(shipped_to(&out, 4, s.image_len), image, "{how}");
            assert_eq!(
                shipped_to(&out, 5, s.image_len),
                term(&s, 1, 1, &image),
                "{how}"
            );
        }
    }
}
