//! The transport seam of the distributed protocol core.
//!
//! [`NodeCore`](super::NodeCore) performs no IO and never reads a clock:
//! drivers feed it messages and `now` values and carry out the
//! [`Action`](super::Action)s it returns. This module defines the trait
//! drivers implement — [`Transport`] (deliver a [`Msg`] to a member) —
//! plus the deterministic
//! in-process implementation, [`SimNet`], that runs whole clusters of
//! `NodeCore`s inside one test with simulated latency, kills, and bulk
//! transfers accounted through the same
//! [`TransferLedger`](dvdc_vcluster::messaging::TransferLedger) the sim
//! protocols use. The real-socket implementation lives in the
//! `dvdc-transport` crate (`TcpTransport` over `std::net` + threads) and
//! drives the *same* state machines.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::messaging::TransferLedger;

use super::node_core::{Action, Msg, Note};

/// Why a send could not be carried out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination is not reachable (killed process, no route).
    Unreachable {
        /// The unreachable destination.
        to: NodeId,
    },
    /// The link to the destination is (currently) closed; the driver's
    /// reconnect machinery may revive it.
    Closed {
        /// The closed destination.
        to: NodeId,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Unreachable { to } => write!(f, "{to} unreachable"),
            TransportError::Closed { to } => write!(f, "link to {to} closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// The one-way message plane the protocol runs on. Implementations are
/// lossy-by-failure, not lossy-by-design: a delivered message arrives
/// intact and in per-link order, but sends to dead peers fail or vanish
/// (exactly like TCP to a SIGKILLed process).
pub trait Transport {
    /// Delivers `msg` from `from` to `to` (or fails typed).
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) -> Result<(), TransportError>;
}

/// Outcome of [`dispatch`]: the notes the node emitted and any sends the
/// transport refused (expected while peers are down — callers decide
/// whether to count or assert).
#[derive(Debug, Default)]
pub struct DispatchOutcome {
    /// Structured observations from the node.
    pub notes: Vec<Note>,
    /// Sends the transport could not carry out.
    pub failed: Vec<(NodeId, TransportError)>,
}

/// Carries out a batch of [`Action`]s against a transport: sends go on
/// the wire, notes are collected. Shared by the sim driver and the TCP
/// runtime so action handling cannot drift between deployment modes.
pub fn dispatch<T: Transport>(
    transport: &mut T,
    from: NodeId,
    actions: Vec<Action>,
) -> DispatchOutcome {
    let mut out = DispatchOutcome::default();
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                if let Err(e) = transport.send(from, to, msg) {
                    out.failed.push((to, e));
                }
            }
            Action::Note(note) => out.notes.push(note),
        }
    }
    out
}

/// One queued delivery inside [`SimNet`].
#[derive(Debug)]
struct InFlight {
    deliver_at: SimTime,
    from: NodeId,
    msg: Msg,
    /// Ledger id for bulk (payload-class) messages.
    transfer: Option<u64>,
}

/// Deterministic in-process network for driving clusters of `NodeCore`s:
/// fixed per-hop latency, per-destination FIFO queues, process-kill
/// semantics (a killed node's queue is dropped and its in-flight bulk
/// transfers are charged to the ledger as dropped), and bulk-byte
/// accounting through a [`TransferLedger`].
#[derive(Debug)]
pub struct SimNet {
    latency: Duration,
    now: SimTime,
    inboxes: BTreeMap<NodeId, VecDeque<InFlight>>,
    killed: BTreeSet<NodeId>,
    ledger: TransferLedger,
    dropped_msgs: u64,
}

impl SimNet {
    /// Creates a network with the given one-way delivery latency.
    pub fn new(latency: Duration) -> Self {
        SimNet {
            latency,
            now: SimTime::ZERO,
            inboxes: BTreeMap::new(),
            killed: BTreeSet::new(),
            ledger: TransferLedger::new(),
            dropped_msgs: 0,
        }
    }

    /// Moves the network clock (sends are stamped against it).
    pub fn advance(&mut self, now: SimTime) {
        self.now = now;
    }

    /// Kills `node`: its pending deliveries vanish and every open bulk
    /// transfer touching it is dropped from the ledger — the sim
    /// equivalent of SIGKILL.
    pub fn kill(&mut self, node: NodeId) {
        self.killed.insert(node);
        if let Some(q) = self.inboxes.remove(&node) {
            self.dropped_msgs += q.len() as u64;
        }
        self.ledger.drop_involving(node);
    }

    /// Revives `node` (a fresh process at the same address): deliveries
    /// to it flow again. Its protocol state is whatever the new
    /// `NodeCore` holds — the network remembers nothing.
    pub fn revive(&mut self, node: NodeId) {
        self.killed.remove(&node);
    }

    /// Messages dropped because their destination (or source) was dead.
    pub fn dropped_msgs(&self) -> u64 {
        self.dropped_msgs
    }

    /// The bulk-transfer ledger (payload bytes on the wire, completed,
    /// dropped) — same accounting object the sim protocols audit.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// When the oldest queued delivery for `to` comes due — with
    /// [`NodeCore::next_deadline`](super::NodeCore::next_deadline), all a
    /// driver needs to step from event to event instead of by a fixed tick.
    pub fn next_delivery(&self, to: NodeId) -> Option<SimTime> {
        self.inboxes.get(&to)?.front().map(|m| m.deliver_at)
    }

    /// Pops every delivery for `to` due at or before `now`, in send
    /// order. Completed bulk transfers are credited to the ledger.
    pub fn take_due(&mut self, to: NodeId, now: SimTime) -> Vec<(NodeId, Msg)> {
        if self.killed.contains(&to) {
            return Vec::new();
        }
        let Some(q) = self.inboxes.get_mut(&to) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        while q.front().is_some_and(|m| m.deliver_at <= now) {
            let m = q.pop_front().expect("front checked Some");
            if self.killed.contains(&m.from) {
                // The sender died after sending; TCP would have torn the
                // stream down — the message is lost.
                self.dropped_msgs += 1;
                if let Some(id) = m.transfer {
                    // Already dropped by kill()'s drop_involving.
                    let _ = id;
                }
                continue;
            }
            if let Some(id) = m.transfer {
                self.ledger.complete(id);
            }
            out.push((m.from, m.msg));
        }
        out
    }
}

impl Transport for SimNet {
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) -> Result<(), TransportError> {
        if self.killed.contains(&from) {
            return Err(TransportError::Closed { to });
        }
        if self.killed.contains(&to) {
            self.dropped_msgs += 1;
            return Err(TransportError::Unreachable { to });
        }
        let transfer = msg
            .payload_len()
            .filter(|&n| n > 0)
            .map(|n| self.ledger.begin(from, to, n));
        self.inboxes.entry(to).or_default().push_back(InFlight {
            deliver_at: self.now + self.latency,
            from,
            msg,
            transfer,
        });
        Ok(())
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
        let mut net = SimNet::new(Duration::from_millis(5.0));
        net.send(NodeId(0), NodeId(1), hb(0)).unwrap();
        net.advance(at_ms(1.0));
        net.send(NodeId(2), NodeId(1), hb(2)).unwrap();

        assert!(net.take_due(NodeId(1), at_ms(4.0)).is_empty());
        assert_eq!(net.next_delivery(NodeId(1)), Some(at_ms(5.0)));
        assert_eq!(net.next_delivery(NodeId(0)), None);
        let due = net.take_due(NodeId(1), at_ms(5.0));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, NodeId(0));
        let due = net.take_due(NodeId(1), at_ms(6.0));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, NodeId(2));
    }

    #[test]
    fn kill_drops_queues_and_in_flight_transfers() {
        let mut net = SimNet::new(Duration::from_millis(5.0));
        let payload = Msg::Payload {
            epoch: 1,
            source: NodeId(0),
            fence_epoch: 0,
            data: vec![0; 128],
        };
        net.send(NodeId(0), NodeId(1), payload).unwrap();
        assert_eq!(net.ledger().in_flight_bytes(), 128);

        net.kill(NodeId(1));
        assert_eq!(net.dropped_msgs(), 1);
        assert_eq!(net.ledger().in_flight_bytes(), 0);
        assert_eq!(net.ledger().dropped_bytes(), 128);

        // Sends to the dead node fail typed; sends from it fail typed.
        assert_eq!(
            net.send(NodeId(0), NodeId(1), hb(0)),
            Err(TransportError::Unreachable { to: NodeId(1) })
        );
        assert_eq!(
            net.send(NodeId(1), NodeId(0), hb(1)),
            Err(TransportError::Closed { to: NodeId(0) })
        );

        // Revived: traffic flows again, ledger accounts fresh transfers.
        net.revive(NodeId(1));
        net.send(NodeId(0), NodeId(1), hb(0)).unwrap();
        let due = net.take_due(NodeId(1), SimTime::from_secs(1.0));
        assert_eq!(due.len(), 1);
    }

    #[test]
    fn completed_bulk_transfers_credit_the_ledger() {
        let mut net = SimNet::new(Duration::ZERO);
        let payload = Msg::Payload {
            epoch: 1,
            source: NodeId(0),
            fence_epoch: 0,
            data: vec![7; 64],
        };
        net.send(NodeId(0), NodeId(3), payload).unwrap();
        let due = net.take_due(NodeId(3), SimTime::ZERO);
        assert_eq!(due.len(), 1);
        assert_eq!(net.ledger().completed_bytes(), 64);
        assert_eq!(net.ledger().open_count(), 0);
    }

    #[test]
    fn dispatch_splits_sends_and_notes() {
        let mut net = SimNet::new(Duration::ZERO);
        net.kill(NodeId(9));
        let actions = vec![
            Action::Send {
                to: NodeId(1),
                msg: hb(0),
            },
            Action::Note(Note::RoundStarted { epoch: 1 }),
            Action::Send {
                to: NodeId(9),
                msg: hb(0),
            },
        ];
        let out = dispatch(&mut net, NodeId(0), actions);
        assert_eq!(out.notes, vec![Note::RoundStarted { epoch: 1 }]);
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].0, NodeId(9));
    }
}
