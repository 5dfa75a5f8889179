//! The transport seam of the distributed protocol core.
//!
//! [`NodeCore`](super::NodeCore) performs no IO and never reads a clock:
//! drivers feed it messages and `now` values and carry out the
//! [`Action`]s it returns. This module defines the trait
//! drivers implement — [`Transport`] (deliver a [`Msg`] to a member) — and
//! [`dispatch`], the one place an action becomes a send. The two drivers
//! are the deterministic in-process [`Harness`](super::harness::Harness)
//! and the `dvdc-transport` crate's TCP runtime; both run the *same*
//! state machines.

use dvdc_vcluster::ids::NodeId;

use super::node_core::{Action, Msg, Note};

/// The one-way message plane the protocol runs on. Implementations are
/// lossy-by-failure, not lossy-by-design: a delivered message arrives
/// intact and in per-link order, but sends to dead peers vanish (exactly
/// like TCP to a SIGKILLed process).
pub trait Transport {
    /// Delivers `msg` from `from` to `to`, or drops it if either end is
    /// down.
    fn send(&mut self, from: NodeId, to: NodeId, msg: Msg);
}

/// Carries out a batch of [`Action`]s against a transport: sends go on
/// the wire, notes are handed back. Shared by the harness and the TCP
/// runtime so action handling cannot drift between deployment modes. No
/// send addresses
/// its own sender: a node delivers those to itself before its actions
/// leave it.
pub fn dispatch<T: Transport>(transport: &mut T, from: NodeId, actions: Vec<Action>) -> Vec<Note> {
    let mut notes = Vec::new();
    for action in actions {
        match action {
            Action::Send { to, msg } => {
                debug_assert_ne!(to, from, "{from} handed its driver {msg:?} for itself");
                transport.send(from, to, msg);
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
        fn send(&mut self, from: NodeId, to: NodeId, msg: Msg) {
            if to != NodeId(9) {
                self.0.push((from, to, msg));
            }
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
        // The send to the unreachable peer is dropped.
        assert_eq!(net.0, [(NodeId(0), NodeId(1), hb)]);
    }
}
