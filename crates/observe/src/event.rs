//! The event vocabulary: every protocol happening the tracing layer can
//! observe, expressed in primitive identifiers so the crate depends only
//! on `dvdc-simcore`.

/// Sentinel for a transfer launched without a fence token (legacy or
/// never-valid launches). Matches the protocol's "never validates"
/// epoch.
pub const NO_TOKEN: u64 = u64::MAX;

/// One field value in an event's generic `(name, value)` view
/// ([`Event::fields`]) — what exporters render without knowing the
/// variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arg {
    /// Any integer field (ids, epochs, indices, counts, sizes).
    U64(u64),
    /// A phase/mode/kind name.
    Str(&'static str),
}

macro_rules! arg_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Arg {
            fn from(v: $t) -> Arg {
                Arg::U64(v as u64)
            }
        }
    )*};
}
arg_from_int!(u32, u64, usize);

impl From<&'static str> for Arg {
    fn from(s: &'static str) -> Arg {
        Arg::Str(s)
    }
}

/// The single declaration of the event vocabulary: each entry names a
/// variant once — its stable exporter name, `in` its trace category,
/// `on` the field naming the node whose lane it draws on (none: the
/// cluster lane), the counter it `counts` into (none: not counted) — and
/// its fields. The enum and every accessor below are generated from it,
/// so a new event is one entry here (plus its tag line in
/// `dvdc_transport::wire`); the trace exporter and the metrics fold pick
/// it up unchanged.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident $name:literal in $cat:literal $(on $lane:ident)? $(counts $counter:literal)? {
            $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
        }
    ),* $(,)?) => {
        /// One observable protocol event.
        ///
        /// Node, VM, and group identifiers are raw indices; phase and mode names
        /// are the `Debug` names of the protocol's own enums. Span-like pairs
        /// (round begin/commit, rebuild begin/complete) share a key (`epoch`,
        /// `victim`) so exporters can reconstruct durations.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Event {
            $( $(#[$vmeta])* $variant { $( $(#[$fmeta])* $field: $ty ),* } ),*
        }

        impl Event {
            /// Short stable name for exporters and summaries.
            pub fn name(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $name ),*
                }
            }

            /// Chrome trace category (`cat`).
            pub fn category(&self) -> &'static str {
                match self {
                    $( Event::$variant { .. } => $cat ),*
                }
            }

            /// The node this event names, whose lane it draws on in a
            /// whole-cluster trace; `None` draws on the cluster lane.
            pub fn lane(&self) -> Option<usize> {
                match *self {
                    $( Event::$variant { $($lane,)? .. } => None $(.or(Some($lane)))? ),*
                }
            }

            /// The counter one occurrence of this event adds one to.
            pub fn counter(&self) -> Option<&'static str> {
                match self {
                    $( Event::$variant { .. } => None $(.or(Some($counter)))? ),*
                }
            }

            /// Every name [`Event::counter`] can return.
            pub const COUNTERS: &'static [&'static str] = &[ $( $($counter,)? )* ];

            /// The variant's fields as `(field name, value)` pairs, in
            /// declaration order.
            pub fn fields(&self) -> Vec<(&'static str, Arg)> {
                match *self {
                    $( Event::$variant { $($field),* } => {
                        vec![$( (stringify!($field), Arg::from($field)) ),*]
                    } )*
                }
            }
        }
    };
}

events! {
    /// A coordinated checkpoint round opened at `epoch`.
    RoundBegin "round_begin" in "round" {
        /// Epoch the round will commit.
        epoch: u64,
    },
    /// The open round entered a phase (Capture, Transfer, Fold, Commit).
    RoundPhase "round_phase" in "phase" {
        /// Epoch of the open round.
        epoch: u64,
        /// Phase name.
        phase: &'static str,
    },
    /// The open round committed.
    RoundCommitted "round_committed" in "round" counts "node.rounds_committed" {
        /// Epoch that committed.
        epoch: u64,
    },
    /// The open round was aborted (rolled back) while in `phase`.
    RoundAborted "round_aborted" in "round" counts "node.rounds_aborted" {
        /// Epoch that was abandoned.
        epoch: u64,
        /// Phase the round was in when aborted.
        phase: &'static str,
    },

    /// A node-to-node bulk transfer was launched.
    TransferLaunched "transfer_launched" in "transfer" on from counts "node.transfers_launched" {
        /// Ledger handle.
        id: u64,
        /// Sending node index.
        from: usize,
        /// Receiving node index.
        to: usize,
        /// Payload size.
        bytes: usize,
        /// Fence epoch stamped at launch, or [`NO_TOKEN`].
        token_epoch: u64,
    },
    /// A transfer arrived and its payload was accepted.
    TransferArrived "transfer_arrived" in "transfer" on to counts "node.transfers_arrived" {
        /// Ledger handle.
        id: u64,
        /// Sending node index.
        from: usize,
        /// Receiving node index.
        to: usize,
        /// Payload size.
        bytes: usize,
    },
    /// A transfer arrived carrying a stale fence token; the payload was
    /// rejected.
    TransferFenced "transfer_fenced" in "transfer" on node counts "node.transfers_fenced" {
        /// Ledger handle.
        id: u64,
        /// Node whose token went stale.
        node: usize,
        /// Fence epoch stamped at launch.
        held_epoch: u64,
        /// The node's fence epoch at arrival.
        current_epoch: u64,
    },
    /// A failed send is being retried after backoff.
    TransferRetried "transfer_retried" in "transfer" counts "node.transfers_retried" {
        /// Ledger handle.
        id: u64,
        /// Which attempt just failed, 1-based.
        attempt: u32,
    },
    /// A transfer was abandoned (retry budget spent, endpoint went dark,
    /// or the round was abandoned).
    TransferDropped "transfer_dropped" in "transfer" on from counts "node.transfers_dropped" {
        /// Ledger handle.
        id: u64,
        /// Sending node index.
        from: usize,
        /// Receiving node index.
        to: usize,
        /// Payload size lost on the wire.
        bytes: usize,
    },

    /// A heartbeat from `node` reached the detector.
    HeartbeatArrived "heartbeat" in "detector" on node counts "node.heartbeats" {
        /// Monitored node index.
        node: usize,
    },
    /// The detector began suspecting `node` (heartbeat deadline missed).
    Suspected "suspected" in "detector" on node counts "node.suspected" {
        /// Suspect node index.
        node: usize,
    },
    /// The detector confirmed `node` failed (grace period expired).
    Confirmed "confirmed" in "detector" on node counts "node.confirmed" {
        /// Confirmed-dead node index.
        node: usize,
    },
    /// A heartbeat arrived in time to clear the suspicion of `node`.
    Refuted "refuted" in "detector" on node counts "node.refuted" {
        /// Cleared node index.
        node: usize,
    },

    /// `node` was fenced; its fence epoch bumped to `epoch`.
    FenceRaised "fence_raised" in "fence" on node counts "node.fences" {
        /// Fenced node index.
        node: usize,
        /// The node's new fence epoch.
        epoch: u64,
    },
    /// A fenced node was readmitted after resyncing (epoch unchanged).
    FenceReadmitted "fence_readmitted" in "fence" on node counts "node.readmitted" {
        /// Readmitted node index.
        node: usize,
        /// The fence epoch the node re-enters at.
        epoch: u64,
    },

    /// A rebuild pipeline started for `victim`.
    RebuildBegin "rebuild_begin" in "rebuild" counts "node.rebuilds" {
        /// Node being rebuilt (or scrubbed).
        victim: usize,
        /// Rebuild mode name (InPlace, Failover, Resync, Scrub).
        mode: &'static str,
        /// Committed epoch the rebuild decodes from.
        epoch: u64,
    },
    /// The open rebuild entered a phase (FetchSurvivors, Decode, Place,
    /// Readmit).
    RebuildPhase "rebuild_phase" in "rebuild-phase" {
        /// Node being rebuilt.
        victim: usize,
        /// Phase name.
        phase: &'static str,
    },
    /// The open rebuild completed and the cluster was readmitted/rolled
    /// back.
    RebuildCompleted "rebuild_completed" in "rebuild" counts "node.rebuilds_completed" {
        /// Node that was rebuilt.
        victim: usize,
    },
    /// The open rebuild was abandoned (e.g. a cascading failure hit a
    /// decode source) while in `phase`.
    RebuildAborted "rebuild_aborted" in "rebuild" counts "node.rebuilds_aborted" {
        /// Node whose rebuild was abandoned.
        victim: usize,
        /// Phase the rebuild was in when abandoned.
        phase: &'static str,
    },

    /// An integrity scrub pass finished.
    ScrubCompleted "scrub_completed" in "scrub" counts "node.scrub_passes" {
        /// Blocks whose checksum was verified.
        verified: usize,
        /// Blocks found corrupt.
        corrupt: usize,
        /// Corrupt blocks repaired from parity.
        repaired: usize,
    },
    /// Silent corruption was injected into `node`'s committed blocks.
    CorruptionInjected "corruption_injected" in "fault" on node counts "node.corruptions_injected" {
        /// Corrupted node index.
        node: usize,
        /// Blocks flipped.
        blocks: usize,
    },
    /// A group exceeded its erasure tolerance — the data is gone.
    DataLoss "data_loss" in "loss" on node counts "node.data_loss" {
        /// Node whose failure/corruption pushed the group past tolerance.
        node: usize,
        /// Group that could not be decoded.
        group: usize,
    },

    /// A transport session handshake with `peer` completed.
    SessionEstablished "session_established" in "session" on peer counts "node.sessions_established" {
        /// Peer node index.
        peer: usize,
    },
    /// A session hello from `peer` was rejected as pre-fence; the peer
    /// must resync before rejoining.
    SessionRejected "session_rejected" in "session" on peer counts "node.hellos_rejected" {
        /// Rejected peer node index.
        peer: usize,
        /// Fence epoch the peer must present to be admitted.
        required_epoch: u64,
    },
    /// A message from `from` was dropped for carrying a stale fence
    /// epoch.
    StaleDropped "stale_dropped" in "session" on from counts "node.stale_dropped" {
        /// Sender node index.
        from: usize,
        /// Fence epoch the message carried.
        held_epoch: u64,
        /// The receiver's current fence epoch.
        current_epoch: u64,
    },
    /// A checkpoint payload from `from` was dropped (no open round,
    /// wrong epoch, or duplicate slot).
    PayloadDropped "payload_dropped" in "payload" on from counts "node.payloads_dropped" {
        /// Sender node index.
        from: usize,
    },
    /// A fence/resync request from `peer` was served (state shipped).
    ResyncServed "resync_served" in "session" on peer counts "node.resyncs_served" {
        /// Resynced peer node index.
        peer: usize,
    },

    /// A fault was injected into the cluster (driver-level view).
    FaultInjected "fault_injected" in "fault" on node counts "node.faults_injected" {
        /// Faulted node index.
        node: usize,
        /// Fault kind name (Crash, Hang, Partition, Corruption).
        kind: &'static str,
    },
    /// A transiently-faulted node woke up / healed.
    NodeHealed "node_healed" in "fault" on node counts "node.nodes_healed" {
        /// Healed node index.
        node: usize,
    },
    /// The job restarted from scratch after an unrecoverable failure.
    JobRestarted "job_restarted" in "loss" on node counts "node.job_restarts" {
        /// Node whose failure forced the restart.
        node: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(Event::RoundBegin { epoch: 1 }.name(), "round_begin");
        assert_eq!(Event::DataLoss { node: 1, group: 2 }.name(), "data_loss");
        assert_eq!(
            Event::SessionEstablished { peer: 3 }.name(),
            "session_established"
        );
        assert_eq!(Event::PayloadDropped { from: 0 }.name(), "payload_dropped");
    }
}
