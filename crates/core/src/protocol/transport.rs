//! The transport seam of the distributed protocol core.
//!
//! [`NodeCore`](super::NodeCore) performs no IO and never reads a clock:
//! drivers feed it messages and `now` values and carry out the
//! [`Action`](super::Action)s it returns. This module defines the trait
//! drivers implement — [`Transport`] (deliver a [`Msg`] to a member) — and
//! [`dispatch`], the one place an action becomes a send. The two drivers
//! are the deterministic in-process [`Harness`](super::harness::Harness)
//! and the `dvdc-transport` crate's TCP runtime; both run the *same*
//! state machines.

use std::fmt;

use dvdc_vcluster::ids::NodeId;

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

/// Carries out a batch of [`Action`]s against a transport: sends go on
/// the wire, notes are handed back. Shared by the harness and the TCP
/// runtime so action handling cannot drift between deployment modes. A
/// send the transport refuses is expected while a peer is down and is
/// dropped, as TCP drops what is written to a dead peer. No send addresses
/// its own sender: a node delivers those to itself before its actions
/// leave it.
pub fn dispatch<T: Transport>(transport: &mut T, from: NodeId, actions: Vec<Action>) -> Vec<Note> {
    let mut notes = Vec::new();
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                debug_assert_ne!(to, from, "{from} handed its driver {msg:?} for itself");
                let _ = transport.send(from, to, msg);
            }
            Action::Note(note) => notes.push(note),
        }
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records what it is asked to carry; node 9 is unreachable.
    #[derive(Default)]
    struct Recording(Vec<(NodeId, NodeId, Msg)>);

    impl Transport for Recording {
        fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) -> Result<(), TransportError> {
            if to == NodeId(9) {
                return Err(TransportError::Unreachable { to });
            }
            self.0.push((from, to, msg));
            Ok(())
        }
    }

    #[test]
    fn dispatch_splits_sends_and_notes() {
        let hb = Msg::Heartbeat { node: NodeId(0) };
        let send = |to| Action::Send {
            to: NodeId(to),
            msg: hb.clone(),
        };
        let note = Note::RoundStarted { epoch: 1 };
        let actions = vec![send(1), Action::Note(note.clone()), send(9)];
        let mut net = Recording::default();
        assert_eq!(dispatch(&mut net, NodeId(0), actions), [note]);
        // The refused send is dropped, not an error: the peer is down.
        assert_eq!(net.0, [(NodeId(0), NodeId(1), hb)]);
    }
}
