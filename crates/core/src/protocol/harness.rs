//! The deterministic driver: a whole cluster of [`NodeCore`]s in one
//! thread, without sockets.
//!
//! [`Harness`] steps the way the TCP runtime's event loop does — jump to
//! the earlier of the next delivery and the next
//! [`NodeCore::next_deadline`], hand a node its due messages, tick it only
//! when its own deadline has come — and carries every action out through
//! the same [`dispatch`]. What the simulation studies own attaches here,
//! each as its existing type: a [`ClusterFaultPlan`] of crashes and hangs,
//! a [`FaultRegistry`] whose `*.delay` points slow single links, the
//! [`InvariantAuditor`] (asserted clean when the harness is dropped), and
//! the [`NodeMetrics`] fold, so a run yields the per-node events and
//! `node.*` metrics a daemon would.

use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use dvdc_faults::buggify::{points, scaled_delay, FaultRegistry};
use dvdc_faults::{ClusterFaultPlan, FaultKind, NodeFault};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::chrome::NodeTail;
use dvdc_observe::{Event, MetricsHub, MetricsSnapshot, Recorder, TimedEvent};
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;

use super::node_core::{Action, ClusterSpec, Msg, NodeCore, NodeMetrics, Note, CTL};
use super::transport::{dispatch, Transport};

/// One member's deliveries to come, by `(deliver_at, send order)`.
type Inbox = BTreeMap<(SimTime, u64), (NodeId, Msg)>;

/// The in-process network: fixed one-hop latency plus whatever extra a
/// link has been given, FIFO per link, and process-kill semantics — a
/// killed node's inbox and everything it had in flight vanish, and sends
/// to or from it fail typed.
#[derive(Default)]
struct SimNet {
    /// One hop between any two members.
    latency: Duration,
    now: SimTime,
    inboxes: BTreeMap<NodeId, Inbox>,
    sent: u64,
    /// The latest delivery queued on each `(from, to)` link: nothing sent
    /// later on the link arrives earlier, as on one TCP connection.
    tails: BTreeMap<(NodeId, NodeId), SimTime>,
    /// Extra latency of scripted slow links.
    slow: BTreeMap<(NodeId, NodeId), Duration>,
    killed: BTreeSet<NodeId>,
    registry: Option<Rc<FaultRegistry>>,
    /// The most a fired `*.delay` point adds to one message.
    max_delay: Duration,
}

/// The buggify point that may delay `msg`, by message class.
fn delay_point(msg: &Msg) -> Option<&'static str> {
    Some(match msg {
        Msg::RoundBegin { .. } => points::ROUND_CAPTURE_DELAY,
        Msg::Payload { .. } | Msg::PayloadPart { .. } => points::ROUND_TRANSFER_DELAY,
        Msg::Commit { .. } => points::ROUND_COMMIT_DELAY,
        Msg::CommitAck { .. } => points::COMMIT_ACK_DELAY,
        Msg::FetchReq { .. } | Msg::FetchPart { .. } | Msg::FetchBlocks { .. } => {
            points::REBUILD_FETCH_DELAY
        }
        Msg::Heartbeat { .. } => points::HEARTBEAT_SEND_DELAY,
        _ => return None,
    })
}

impl SimNet {
    fn new(max_delay: Duration) -> Self {
        SimNet {
            latency: Duration::from_millis(1.0),
            max_delay,
            ..SimNet::default()
        }
    }

    fn kill(&mut self, node: NodeId) {
        self.killed.insert(node);
        self.inboxes.remove(&node);
        for inbox in self.inboxes.values_mut() {
            inbox.retain(|_, (from, _)| *from != node);
        }
    }

    fn next_delivery(&self, to: NodeId) -> Option<SimTime> {
        let (at, _) = self.inboxes.get(&to)?.keys().next()?;
        Some(*at)
    }

    /// Pops every delivery for `to` due at or before `now`, in order.
    fn take_due(&mut self, to: NodeId, now: SimTime) -> Vec<(NodeId, Msg)> {
        let Some(inbox) = self.inboxes.get_mut(&to) else {
            return Vec::new();
        };
        let later = inbox.split_off(&(now, u64::MAX));
        std::mem::replace(inbox, later).into_values().collect()
    }
}

impl Transport for SimNet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
        if self.killed.contains(&from) || self.killed.contains(&to) {
            return;
        }
        let fired = self
            .registry
            .as_ref()
            .and_then(|r| r.roll(delay_point(&msg)?));
        let fired = fired.map_or(Duration::ZERO, |m| scaled_delay(m, self.max_delay));
        let slow = self
            .slow
            .get(&(from, to))
            .copied()
            .unwrap_or(Duration::ZERO);
        let tail = self.tails.entry((from, to)).or_insert(SimTime::ZERO);
        *tail = (self.now + self.latency + slow + fired).max(*tail);
        self.sent += 1;
        let inbox = self.inboxes.entry(to).or_default();
        inbox.insert((*tail, self.sent), (from, msg));
    }
}

/// What the plan does to a node at an instant.
#[derive(Debug, Clone, Copy)]
enum Strike {
    Crash,
    Revive,
    Hang(Duration),
}

/// One member slot: the running instance, if any, and what outlives it.
struct Member {
    core: Option<NodeCore>,
    /// While set, the node is neither delivered to nor ticked and its
    /// inbox keeps filling: a `SIGSTOP`ped process behind TCP buffers.
    hung_until: Option<SimTime>,
    /// Instances started in this slot so far; the next one's incarnation.
    boots: u64,
    hub: MetricsHub,
    metrics: NodeMetrics,
    events: Vec<TimedEvent>,
    /// Detector order is per observer: each node's verdicts are its own.
    verdicts: InvariantAuditor,
}

/// Round and rebuild lifecycles, their mutual exclusion and fencing are
/// cluster-wide facts, stated by whoever coordinates. The view holds one
/// auditor for them and remembers who opened what, so that a coordinator
/// that is killed or fenced takes its open spans with it, and one relieved
/// mid-rebuild by a returning lower member that rebuild — it can no longer
/// say so itself — and so that a participant's echo of an abort, or
/// anything a node says about a span no longer its own, is not counted
/// twice.
#[derive(Default)]
struct ClusterView {
    audit: InvariantAuditor,
    fenced: BTreeSet<NodeId>,
    round: Option<(u64, NodeId)>,
    rebuilds: BTreeMap<usize, NodeId>,
}

impl ClusterView {
    fn observe(&mut self, at: SimTime, from: NodeId, event: &Event) {
        let aborted = |victim, phase| Event::RebuildAborted { victim, phase };
        match *event {
            _ if self.fenced.contains(&from) => return,
            Event::FenceRaised { node, .. } => {
                self.fenced.insert(NodeId(node));
                self.lose(at, NodeId(node));
            }
            // Back before a rebuild of it was done: the rebuild is moot.
            Event::FenceReadmitted { node, .. } => {
                self.fenced.remove(&NodeId(node));
                if self.rebuilds.remove(&node).is_some() {
                    self.audit.record(at, &aborted(node, "Readmitted"));
                }
            }
            Event::RoundBegin { epoch } => self.round = Some((epoch, from)),
            Event::RoundCommitted { .. } => self.round = None,
            Event::RoundAborted { epoch, .. } if self.round == Some((epoch, from)) => {
                self.round = None;
            }
            // Begun again by another: coordination has moved.
            Event::RebuildBegin { victim, .. } => {
                if self
                    .rebuilds
                    .insert(victim, from)
                    .is_some_and(|owner| owner != from)
                {
                    self.audit.record(at, &aborted(victim, "CoordinatorLost"));
                }
            }
            Event::RebuildCompleted { victim } if self.rebuilds.get(&victim) == Some(&from) => {
                self.rebuilds.remove(&victim);
            }
            // `NodeCore` ends a rebuild it cannot decode with the loss itself.
            Event::DataLoss { node: victim, .. } if self.rebuilds.get(&victim) == Some(&from) => {
                (self.round, _) = (None, self.rebuilds.remove(&victim));
                self.audit.record(at, event);
                return self.audit.record(at, &aborted(victim, "Decode"));
            }
            _ => return,
        }
        self.audit.record(at, event);
    }

    /// `gone` is dead or fenced: the spans it owned ended with it.
    fn lose(&mut self, at: SimTime, gone: NodeId) {
        let phase = "CoordinatorLost";
        if let Some((epoch, _)) = self.round.filter(|(_, owner)| *owner == gone) {
            self.round = None;
            self.audit.record(at, &Event::RoundAborted { epoch, phase });
        }
        let owned = self.rebuilds.iter().filter(|(_, owner)| **owner == gone);
        for victim in owned.map(|(victim, _)| *victim).collect::<Vec<_>>() {
            self.rebuilds.remove(&victim);
            self.audit
                .record(at, &Event::RebuildAborted { victim, phase });
        }
    }
}

/// A cluster of [`NodeCore`]s over an in-process network, stepped from
/// event to event on one simulated clock.
pub struct Harness {
    spec: ClusterSpec,
    net: SimNet,
    members: Vec<Member>,
    now: SimTime,
    /// Planned strikes not yet applied, soonest first.
    plan: Vec<(SimTime, usize, Strike)>,
    view: ClusterView,
    /// Every note so far: when, whose, what.
    notes: Vec<(SimTime, NodeId, Note)>,
}

impl Harness {
    /// Boots one node per member slot of `spec` at time zero.
    pub fn new(spec: ClusterSpec) -> Self {
        let member = |i| {
            let hub = MetricsHub::new();
            Member {
                core: Some(NodeCore::new(NodeId(i), spec.clone(), 1)),
                hung_until: None,
                boots: 1,
                metrics: NodeMetrics::new(&hub),
                hub,
                events: Vec::new(),
                verdicts: InvariantAuditor::new(),
            }
        };
        Harness {
            members: (0..spec.total()).map(member).collect(),
            net: SimNet::new(spec.detector.heartbeat_interval),
            now: SimTime::ZERO,
            plan: Vec::new(),
            view: ClusterView::default(),
            notes: Vec::new(),
            spec,
        }
    }

    /// Schedules `plan`, its instants counted from now: a crash is
    /// [`Harness::crash`] and, `repair` later, [`Harness::revive`]; a
    /// transient hang is [`Harness::hang`]. A fault of any other kind —
    /// per-peer partitions, corruption and domain failures are not
    /// `NodeCore`'s yet — is handed back, and nothing is scheduled.
    pub fn attach_plan(&mut self, plan: &ClusterFaultPlan) -> Result<(), NodeFault> {
        let mut strikes = Vec::new();
        for fault in plan.faults() {
            let at = self.now + fault.at.since(SimTime::ZERO);
            match fault.kind {
                FaultKind::Crash if fault.node < self.members.len() => {
                    strikes.push((at, fault.node, Strike::Crash));
                    strikes.push((at + fault.repair, fault.node, Strike::Revive));
                }
                FaultKind::TransientHang(span) if fault.node < self.members.len() => {
                    strikes.push((at, fault.node, Strike::Hang(span)));
                }
                _ => return Err(*fault),
            }
        }
        self.plan.extend(strikes);
        // Stable: a crash stays ahead of the revive planned for its instant.
        self.plan.sort_by_key(|(at, ..)| *at);
        Ok(())
    }

    /// From now on a send may be held back by the `*.delay` point of its
    /// message class, by up to a heartbeat interval, on its own link only.
    pub fn attach_registry(&mut self, registry: Rc<FaultRegistry>) {
        self.net.registry = Some(registry);
    }

    /// Adds `extra` latency to everything `from` sends `to` from now on.
    pub fn slow_link(&mut self, from: usize, to: usize, extra: Duration) {
        self.net.slow.insert((NodeId(from), NodeId(to)), extra);
    }

    /// The simulated clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The running instance in slot `id`.
    ///
    /// # Panics
    /// Panics if the node is dead.
    pub fn node(&self, id: usize) -> &NodeCore {
        self.members[id].core.as_ref().expect("node is live")
    }

    /// The running instances, in id order.
    pub fn live(&self) -> impl Iterator<Item = &NodeCore> {
        self.members.iter().filter_map(|m| m.core.as_ref())
    }

    /// Every note so far, in emission order: when, whose, what.
    pub fn notes(&self) -> &[(SimTime, NodeId, Note)] {
        &self.notes
    }

    /// The registry a daemon in slot `id` would be scraped for.
    pub fn metrics(&self, id: usize) -> MetricsSnapshot {
        self.members[id].hub.snapshot()
    }

    /// Every slot's events as the trace tails `merge_node_traces` takes.
    pub fn tails(&self) -> Vec<NodeTail> {
        let tail = |(node, m): (usize, &Member)| NodeTail {
            node,
            now: self.now,
            dropped: 0,
            events: m.events.clone(),
        };
        self.members.iter().enumerate().map(tail).collect()
    }

    /// True when every live node holds a session with every other.
    pub fn fully_meshed(&self) -> bool {
        self.live().all(|n| {
            let peers = self.live().map(NodeCore::id).filter(|p| *p != n.id());
            peers.into_iter().all(|p| n.has_session(p))
        })
    }

    /// Carries out what node `id` just asked for. `settled` is set after a
    /// tick or a piece of link evidence, which must leave a driver sleeping
    /// until `next_deadline` something to wait for.
    fn apply(&mut self, id: usize, actions: Vec<Action>, settled: bool) {
        let (me, now) = (NodeId(id), self.now);
        let member = &mut self.members[id];
        let next = member.core.as_ref().and_then(NodeCore::next_deadline);
        assert!(
            !settled || next.is_some_and(|next| next > now),
            "{me}: at {now} the deadline is left at {next:?}"
        );
        for note in dispatch(&mut self.net, me, actions) {
            let event = member.metrics.fold(now, &note);
            match note {
                Note::PeerVerdict { .. } => member.verdicts.record(now, &event),
                _ => self.view.observe(now, me, &event),
            }
            let seq = member.events.len() as u64;
            member.events.push(TimedEvent {
                at: now,
                seq,
                event,
            });
            self.notes.push((now, me, note));
        }
    }

    /// When the next thing happens anywhere: a planned strike, a waking,
    /// or a delivery to or a timer of a node that is running.
    fn next_event(&self) -> SimTime {
        let running = |(i, m): (usize, &Member)| match (&m.core, m.hung_until) {
            (Some(core), None) => [self.net.next_delivery(NodeId(i)), core.next_deadline()],
            (_, wakes) => [wakes, None],
        };
        let members = self.members.iter().enumerate().flat_map(running);
        let planned = self.plan.first().map(|(at, ..)| *at);
        let next = members.flatten().chain(planned).min();
        next.expect("heartbeats never end").max(self.now)
    }

    /// One step: the clock jumps to the next event, the strikes planned
    /// for it land, and every running node takes its due messages and then,
    /// if its deadline has come, its tick.
    pub fn step(&mut self) {
        self.now = self.next_event();
        self.net.now = self.now;
        while self.plan.first().is_some_and(|(at, ..)| *at <= self.now) {
            match self.plan.remove(0) {
                (_, node, Strike::Crash) => self.crash(node),
                (_, node, Strike::Revive) => self.revive(node),
                (_, node, Strike::Hang(span)) => self.hang(node, span),
            }
        }
        for id in 0..self.members.len() {
            let now = self.now;
            if self.members[id].hung_until.is_some_and(|wakes| wakes > now) {
                continue;
            }
            self.members[id].hung_until = None;
            for (from, msg) in self.net.take_due(NodeId(id), now) {
                self.deliver(from, id, msg);
            }
            let due = |n: &&mut NodeCore| n.next_deadline().is_some_and(|d| d <= now);
            if let Some(node) = self.members[id].core.as_mut().filter(due) {
                let actions = node.on_tick(now);
                self.apply(id, actions, true);
            }
        }
    }

    /// Steps through everything due within `span` and stops the clock at
    /// the end of it.
    pub fn run_for(&mut self, span: Duration) {
        let until = self.now + span;
        while self.next_event() <= until {
            self.step();
        }
        (self.now, self.net.now) = (until, until);
    }

    /// Steps until `pred` holds, failing the test after `max_ms`.
    pub fn run_until(&mut self, max_ms: f64, what: &str, mut pred: impl FnMut(&Harness) -> bool) {
        let deadline = self.now + Duration::from_millis(max_ms);
        while self.now < deadline {
            self.step();
            if pred(self) {
                return;
            }
        }
        let tail = &self.notes[self.notes.len().saturating_sub(20)..];
        panic!("timed out after {max_ms} ms waiting for: {what}\nlast notes: {tail:#?}");
    }

    /// Hands `msg` to node `to` now, as sent by `from` ([`CTL`] for a
    /// control-plane request). A dead node hears nothing; a frozen one
    /// hears it when it wakes.
    pub fn deliver(&mut self, from: NodeId, to: usize, msg: Msg) {
        let member = &mut self.members[to];
        if member.hung_until.is_some_and(|wakes| wakes > self.now) {
            self.net.sent += 1;
            let inbox = self.net.inboxes.entry(NodeId(to)).or_default();
            inbox.insert((self.now, self.net.sent), (from, msg));
        } else if let Some(node) = member.core.as_mut() {
            let actions = node.on_message(from, msg, self.now);
            self.apply(to, actions, false);
        }
    }

    /// Drains the replies addressed to the ctl pseudo-node.
    fn ctl_replies(&mut self) -> Vec<Msg> {
        let due = self.net.take_due(CTL, self.now);
        due.into_iter().map(|(_, msg)| msg).collect()
    }

    /// Asks `coordinator` for one checkpoint round and steps to its typed
    /// outcome: the committed epoch, or why it failed. Answers to earlier
    /// requests are discarded first.
    pub fn checkpoint(&mut self, coordinator: usize, max_ms: f64) -> Result<u64, String> {
        self.ctl_replies();
        self.deliver(CTL, coordinator, Msg::CheckpointReq);
        self.checkpoint_outcome(max_ms)
    }

    /// Steps to the outcome of a checkpoint already requested; none within
    /// `max_ms` (the node asked has died) is a failure like any other.
    pub fn checkpoint_outcome(&mut self, max_ms: f64) -> Result<u64, String> {
        let deadline = self.now + Duration::from_millis(max_ms);
        loop {
            for reply in self.ctl_replies() {
                match reply {
                    Msg::CheckpointDone { epoch } => return Ok(epoch),
                    Msg::CheckpointFailed { reason } => return Err(reason),
                    _ => {}
                }
            }
            if self.now >= deadline {
                return Err(format!("no outcome within {max_ms} ms"));
            }
            self.step();
        }
    }

    /// The node goes silent, its queued and in-flight traffic with it, and
    /// nobody is told: a host that lost power. Survivors have only their
    /// timers.
    pub fn kill(&mut self, id: usize) {
        self.net.kill(NodeId(id));
        self.members[id].core = None;
        self.members[id].hung_until = None;
        self.view.lose(self.now, NodeId(id));
    }

    /// The process dies on a host that stays up (SIGKILL, panic, OOM-kill):
    /// its kernel closes its connections and refuses the survivors'
    /// redials, which is the evidence the TCP runtime hands each of them
    /// that is running.
    pub fn crash(&mut self, id: usize) {
        self.kill(id);
        for i in 0..self.members.len() {
            let now = self.now;
            let running = self.members[i].hung_until.is_none();
            if let Some(node) = self.members[i].core.as_mut().filter(|_| running) {
                let actions = node.on_peer_refused(NodeId(id), now);
                self.apply(i, actions, true);
            }
        }
    }

    /// A new process in a dead node's slot, at the same address, with
    /// **empty** state — diskless — and the slot's next incarnation.
    pub fn revive(&mut self, id: usize) {
        let member = &mut self.members[id];
        if member.core.is_none() {
            self.net.killed.remove(&NodeId(id));
            member.boots += 1;
            let node = NodeCore::new(NodeId(id), self.spec.clone(), member.boots);
            member.core = Some(node);
        }
    }

    /// Freezes a live node for `span`: it hears nothing and does nothing
    /// while its inbox fills, then resumes where it was.
    pub fn hang(&mut self, id: usize, span: Duration) {
        if self.members[id].core.is_some() {
            self.members[id].hung_until = Some(self.now + span);
        }
    }
}

impl Drop for Harness {
    /// Every run is audited: a harness dropped outside a panic asserts
    /// that no ordering rule was broken on any node or across them.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            self.view.audit.assert_clean();
            for member in &self.members {
                member.verdicts.assert_clean();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hb(n: usize) -> Msg {
        Msg::Heartbeat { node: NodeId(n) }
    }

    fn at_ms(ms: f64) -> SimTime {
        SimTime::from_secs(ms / 1e3)
    }

    #[test]
    fn delivery_respects_latency_and_fifo_order() {
        let mut net = SimNet::new(Duration::ZERO);
        net.send(NodeId(0), NodeId(1), hb(0));
        net.now = at_ms(1.0);
        net.send(NodeId(2), NodeId(1), hb(2));

        assert!(net.take_due(NodeId(1), at_ms(0.5)).is_empty());
        assert_eq!(net.next_delivery(NodeId(1)), Some(at_ms(1.0)));
        assert_eq!(net.next_delivery(NodeId(0)), None);
        assert_eq!(net.take_due(NodeId(1), at_ms(1.0)), [(NodeId(0), hb(0))]);
        assert_eq!(net.take_due(NodeId(1), at_ms(2.0)), [(NodeId(2), hb(2))]);
    }

    #[test]
    fn a_slow_link_delays_its_own_traffic_only_and_stays_fifo() {
        let mut net = SimNet::new(Duration::ZERO);
        net.slow
            .insert((NodeId(0), NodeId(1)), Duration::from_millis(3.0));
        net.send(NodeId(0), NodeId(1), hb(0));
        net.slow.clear();
        // Sent later on the same link, and faster: still behind the first.
        net.send(NodeId(0), NodeId(1), hb(7));
        net.send(NodeId(2), NodeId(1), hb(2));
        assert_eq!(net.take_due(NodeId(1), at_ms(1.0)), [(NodeId(2), hb(2))]);
        let slow = [(NodeId(0), hb(0)), (NodeId(0), hb(7))];
        assert_eq!(net.take_due(NodeId(1), at_ms(4.0)), slow);
    }

    #[test]
    fn kill_drops_queues_and_in_flight_traffic() {
        let mut net = SimNet::new(Duration::ZERO);
        net.send(NodeId(0), NodeId(1), hb(0));
        net.send(NodeId(1), NodeId(2), hb(1));
        net.kill(NodeId(1));
        assert_eq!(net.next_delivery(NodeId(1)), None);
        assert_eq!(net.next_delivery(NodeId(2)), None);

        // Nothing is queued to the dead node, or from it.
        net.send(NodeId(0), NodeId(1), hb(0));
        net.send(NodeId(1), NodeId(0), hb(1));
        assert_eq!(net.next_delivery(NodeId(1)), None);
        assert_eq!(net.next_delivery(NodeId(0)), None);
        net.killed.remove(&NodeId(1));
        net.send(NodeId(0), NodeId(1), hb(0));
        assert_eq!(net.take_due(NodeId(1), at_ms(1.0)).len(), 1);
    }

    #[test]
    fn a_plan_holding_a_partition_is_refused_whole() {
        use dvdc_faults::PeerSet;
        let mut h = Harness::new(ClusterSpec::default());
        let span = Duration::from_millis(5.0);
        let partition = NodeFault::partition(1, at_ms(2.0), PeerSet::ALL, span);
        let plan = ClusterFaultPlan::new(vec![NodeFault::crash(0, at_ms(1.0), span), partition]);
        assert_eq!(h.attach_plan(&plan), Err(partition));
        assert!(h.plan.is_empty());
    }
}
