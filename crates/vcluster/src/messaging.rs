//! Node-to-node transfer bookkeeping: who may still send, how a failed
//! send is retried, and which transfers are open.
//!
//! - [`FenceRegistry`] / [`FenceToken`]: per-node fence epochs, so
//!   anything a node stamped before it was declared dead is rejected
//!   when it arrives. Both protocol bodies use it.
//! - [`RetryPolicy`]: the bounded exponential backoff both bodies retry
//!   a failed transfer with.
//! - [`TransferLedger`]: the simulated protocol's record of transfers in
//!   flight, which a node failure or a fence cancels.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::ids::NodeId;
use dvdc_simcore::rng::{splitmix64, SPLITMIX_GAMMA};
use dvdc_simcore::time::Duration;

/// A fencing token: proof that `node` held fence epoch `epoch` when it
/// launched a transfer (or staged a commit). Tokens go stale the moment
/// the node is fenced — the epoch bumps — so anything stamped before the
/// fence is rejected at delivery no matter when it arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FenceToken {
    /// The node the token was granted to.
    pub node: NodeId,
    /// The node's fence epoch at grant time.
    pub epoch: u64,
}

/// Per-node epoch fencing, the STONITH-lite of the simulated cluster.
///
/// When the failure detector confirms a node dead, the cluster *fences*
/// it before failing over: the node's fence epoch is bumped and it loses
/// the right to new tokens. If the verdict was wrong — the node was hung
/// or partitioned, not dead — it eventually wakes holding stale round
/// state and tokens from the old epoch. Every such stale artefact is
/// rejected ([`LedgerError::Fenced`]); the node must resync from the
/// committed epoch and be [`FenceRegistry::readmit`]-ed before it can
/// participate again. Epochs only ever grow, so a token never becomes
/// valid again once fenced off.
#[derive(Debug, Clone, Default)]
pub struct FenceRegistry {
    epochs: BTreeMap<NodeId, u64>,
    fenced: BTreeSet<NodeId>,
    fences_raised: u64,
    journal_enabled: bool,
    journal: Vec<FenceEvent>,
}

impl FenceRegistry {
    /// Creates a registry where every node is unfenced at epoch 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The node's current fence epoch (0 if never fenced).
    pub fn epoch_of(&self, node: NodeId) -> u64 {
        self.epochs.get(&node).copied().unwrap_or(0)
    }

    /// True if the node is currently fenced off.
    pub fn is_fenced(&self, node: NodeId) -> bool {
        self.fenced.contains(&node)
    }

    /// Grants `node` a token for its current epoch, or `None` while it is
    /// fenced (a fenced node cannot launch anything new).
    pub fn token(&self, node: NodeId) -> Option<FenceToken> {
        if self.is_fenced(node) {
            return None;
        }
        Some(FenceToken {
            node,
            epoch: self.epoch_of(node),
        })
    }

    /// Fences `node`: bumps its epoch (invalidating every outstanding
    /// token) and bars it from new tokens until readmitted. Idempotent
    /// per incident — fencing an already-fenced node bumps again, which
    /// is harmless since the node holds no valid tokens to invalidate.
    pub fn fence(&mut self, node: NodeId) {
        let epoch = self.epochs.entry(node).or_insert(0);
        *epoch += 1;
        let epoch = *epoch;
        self.fenced.insert(node);
        self.fences_raised += 1;
        if self.journal_enabled {
            self.journal.push(FenceEvent::Raised { node, epoch });
        }
    }

    /// Readmits a fenced node after it resynced from committed state. Its
    /// epoch keeps the post-fence value, so pre-fence tokens stay dead.
    pub fn readmit(&mut self, node: NodeId) {
        if self.fenced.remove(&node) && self.journal_enabled {
            self.journal.push(FenceEvent::Readmitted {
                node,
                epoch: self.epoch_of(node),
            });
        }
    }

    /// Applies a *remote* fence decision to this replica of the registry:
    /// raises `node`'s epoch to at least `epoch` and marks it fenced.
    ///
    /// In the multi-process deployment every node keeps its own
    /// `FenceRegistry` replica; the coordinator decides the fence and
    /// broadcasts `(node, epoch)`, and peers converge by calling this.
    /// Epochs only grow — a stale or duplicated broadcast can never roll
    /// one back.
    pub fn advance_to(&mut self, node: NodeId, epoch: u64) {
        let e = self.epochs.entry(node).or_insert(0);
        if epoch > *e {
            *e = epoch;
        }
        let epoch = *e;
        if self.fenced.insert(node) {
            self.fences_raised += 1;
            if self.journal_enabled {
                self.journal.push(FenceEvent::Raised { node, epoch });
            }
        }
    }

    /// Applies a *remote* readmission: raises `node`'s epoch to at least
    /// `epoch` (the post-fence epoch the coordinator readmitted it at)
    /// and unfences it. The replica-side dual of
    /// [`FenceRegistry::advance_to`]; idempotent like it.
    pub fn readmit_at(&mut self, node: NodeId, epoch: u64) {
        let e = self.epochs.entry(node).or_insert(0);
        if epoch > *e {
            *e = epoch;
        }
        self.readmit(node);
    }

    /// Turns the event journal on. Off by default so untraced runs pay
    /// nothing; the tracing layer drains it via
    /// [`FenceRegistry::take_events`] after every step.
    pub fn enable_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Drains the journal entries accumulated since the last call (empty
    /// unless [`FenceRegistry::enable_journal`] was called).
    pub fn take_events(&mut self) -> Vec<FenceEvent> {
        std::mem::take(&mut self.journal)
    }

    /// True if `token` is still good: its holder is unfenced and the
    /// epoch has not moved since the grant.
    pub fn validates(&self, token: FenceToken) -> bool {
        !self.is_fenced(token.node) && self.epoch_of(token.node) == token.epoch
    }

    /// How many times a fence has been raised (detector-confirmed
    /// failovers, right or wrong).
    pub fn fences_raised(&self) -> u64 {
        self.fences_raised
    }
}

/// One entry in the [`FenceRegistry`]'s journal (see
/// [`FenceRegistry::take_events`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceEvent {
    /// The node was fenced; `epoch` is its new (post-bump) fence epoch.
    Raised {
        /// The fenced node.
        node: NodeId,
        /// The node's fence epoch after the bump.
        epoch: u64,
    },
    /// The node was readmitted after resyncing; `epoch` is unchanged.
    Readmitted {
        /// The readmitted node.
        node: NodeId,
        /// The fence epoch the node re-enters at.
        epoch: u64,
    },
}

/// Typed failure from [`TransferLedger::try_complete`] — the graceful
/// replacement for what used to be a panic when a duplicate or fenced
/// arrival hit the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerError {
    /// No open transfer has this handle: it already completed, was
    /// dropped when a node went dark, or never existed.
    UnknownTransfer {
        /// The handle presented.
        id: u64,
    },
    /// The transfer was launched under a token its holder has since been
    /// fenced out of; the payload must be discarded, not applied.
    Fenced {
        /// The node whose token went stale.
        node: NodeId,
        /// Epoch stamped on the transfer at launch.
        held_epoch: u64,
        /// The node's current fence epoch.
        current_epoch: u64,
    },
}

impl fmt::Display for LedgerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerError::UnknownTransfer { id } => {
                write!(f, "transfer {id} is not open (duplicate or late completion)")
            }
            LedgerError::Fenced {
                node,
                held_epoch,
                current_epoch,
            } => write!(
                f,
                "transfer from {node} carries fence epoch {held_epoch} but the node is at epoch {current_epoch}; payload rejected"
            ),
        }
    }
}

impl std::error::Error for LedgerError {}

/// Bounded-retry policy for *transient* transfer failures (a partition
/// that will heal, a dropped frame): each failed attempt backs off
/// exponentially from `base_backoff`, and once `max_attempts` sends have
/// failed the transfer is abandoned — the caller falls back to the abort
/// path it would have taken without retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total send attempts allowed (the first send counts as attempt 1).
    pub max_attempts: u32,
    /// Backoff after the first failure; doubles per subsequent failure.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2.0),
        }
    }
}

impl RetryPolicy {
    /// Backoff to wait after the `attempt`-th failed send (1-based):
    /// `base · 2^(attempt−1)`. The exponent is capped at 30 so the
    /// factor never overflows — a runaway attempt counter saturates at
    /// `base · 2^30` instead of going infinite.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let factor = 2f64.powi(attempt.saturating_sub(1).min(30) as i32);
        Duration::from_secs(self.base_backoff.as_secs() * factor)
    }

    /// [`RetryPolicy::backoff_for`] with *deterministic* jitter: the wait
    /// is scaled into `[0.5, 1.5)` of the exponential backoff by a
    /// splitmix64 hash of `(seed, attempt)`. Real systems jitter their
    /// backoff to break retry synchronisation; deriving the jitter from a
    /// seed instead of a wall clock keeps buggify-injected retries
    /// bit-for-bit reproducible under the same `DVDC_BUGGIFY_SEED`.
    pub fn backoff_with_jitter(&self, attempt: u32, seed: u64) -> Duration {
        let z = splitmix64(
            seed ^ (attempt as u64).wrapping_mul(SPLITMIX_GAMMA) ^ 0x243f_6a88_85a3_08d3,
        );
        let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
        self.backoff_for(attempt) * (0.5 + unit)
    }
}

/// Outcome of reporting a failed send on an open transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetryDecision {
    /// Budget remains: re-send after `backoff` (this was failed attempt
    /// number `attempt`).
    Retry {
        /// Which attempt just failed, 1-based.
        attempt: u32,
        /// How long to wait before the re-send.
        backoff: Duration,
    },
    /// The retry budget is spent; the transfer was closed and its bytes
    /// counted as dropped. The caller must take its abort path.
    Exhausted {
        /// The abandoned transfer.
        transfer: NodeTransfer,
    },
}

/// One node-to-node bulk transfer (a checkpoint delta or parity update
/// travelling between physical nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeTransfer {
    /// Sending physical node.
    pub from: NodeId,
    /// Receiving physical node.
    pub to: NodeId,
    /// Payload size.
    pub bytes: usize,
}

/// One entry in the [`TransferLedger`]'s journal (see
/// [`TransferLedger::take_events`]): the full life cycle of node-level
/// transfers, in the order it happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LedgerEvent {
    /// A transfer was opened.
    Launched {
        /// Ledger handle.
        id: u64,
        /// The transfer.
        transfer: NodeTransfer,
        /// Fence epoch stamped at launch (`None` for unfenced launches).
        token_epoch: Option<u64>,
    },
    /// A transfer was delivered and accepted.
    Completed {
        /// Ledger handle.
        id: u64,
        /// The transfer.
        transfer: NodeTransfer,
    },
    /// A transfer arrived with a stale fence token; the payload was
    /// rejected and the bytes counted as dropped.
    FencedRejection {
        /// Ledger handle.
        id: u64,
        /// Node whose token went stale.
        node: NodeId,
        /// Fence epoch stamped at launch.
        held_epoch: u64,
        /// The node's fence epoch at arrival.
        current_epoch: u64,
    },
    /// A failed send is being retried after backoff.
    Retried {
        /// Ledger handle.
        id: u64,
        /// Which attempt just failed, 1-based.
        attempt: u32,
    },
    /// A transfer was abandoned: retry budget spent, an endpoint went
    /// dark, or the round was abandoned.
    Dropped {
        /// Ledger handle.
        id: u64,
        /// The transfer.
        transfer: NodeTransfer,
    },
}

/// In-flight accounting for node-level bulk transfers.
///
/// A diskless-checkpoint round ships deltas from VM hosts to parity
/// holders; a node failing *mid-transfer* leaves bytes on the wire that
/// never arrived. The ledger tracks exactly which transfers are open at
/// any instant so an interruptible protocol can (a) decide whether a
/// failing node was involved in the round, and (b) account for the bytes
/// it has to discard when it aborts.
#[derive(Debug, Clone, Default)]
pub struct TransferLedger {
    open: BTreeMap<u64, OpenTransfer>,
    next_id: u64,
    completed_bytes: usize,
    dropped_bytes: usize,
    fenced_rejections: u64,
    retries: u64,
    journal_enabled: bool,
    journal: Vec<LedgerEvent>,
}

/// An open transfer plus the fence token it was launched under (legacy
/// callers without fencing carry `None`, which never fails validation)
/// and how many sends have been attempted so far.
#[derive(Debug, Clone, Copy)]
struct OpenTransfer {
    transfer: NodeTransfer,
    token: Option<FenceToken>,
    attempts: u32,
}

impl TransferLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens an unfenced transfer and returns its handle.
    pub fn begin(&mut self, from: NodeId, to: NodeId, bytes: usize) -> u64 {
        self.begin_inner(NodeTransfer { from, to, bytes }, None)
    }

    /// Opens a transfer stamped with the sender's fence token; delivery
    /// through [`TransferLedger::try_complete`] will reject it if the
    /// sender is fenced (or re-epoched) in the meantime.
    pub fn begin_with_token(
        &mut self,
        from: NodeId,
        to: NodeId,
        bytes: usize,
        token: FenceToken,
    ) -> u64 {
        self.begin_inner(NodeTransfer { from, to, bytes }, Some(token))
    }

    fn begin_inner(&mut self, transfer: NodeTransfer, token: Option<FenceToken>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(
            id,
            OpenTransfer {
                transfer,
                token,
                attempts: 1,
            },
        );
        if self.journal_enabled {
            self.journal.push(LedgerEvent::Launched {
                id,
                transfer,
                token_epoch: token.map(|t| t.epoch),
            });
        }
        id
    }

    /// Turns the event journal on. Off by default so untraced runs pay
    /// nothing; the tracing layer drains it via
    /// [`TransferLedger::take_events`] after every step.
    pub fn enable_journal(&mut self) {
        self.journal_enabled = true;
    }

    /// Drains the journal entries accumulated since the last call (empty
    /// unless [`TransferLedger::enable_journal`] was called).
    pub fn take_events(&mut self) -> Vec<LedgerEvent> {
        std::mem::take(&mut self.journal)
    }

    /// Reports a failed send attempt on an open transfer (the wire
    /// dropped it — e.g. an endpoint is partitioned off). If the policy's
    /// budget allows, the transfer stays open and the caller re-sends
    /// after the returned backoff; once the budget is spent the transfer
    /// is closed, its bytes counted as dropped, and the caller must fall
    /// back to its abort path.
    pub fn record_failure(
        &mut self,
        id: u64,
        policy: RetryPolicy,
    ) -> Result<RetryDecision, LedgerError> {
        let o = self
            .open
            .get_mut(&id)
            .ok_or(LedgerError::UnknownTransfer { id })?;
        let failed_attempt = o.attempts;
        if failed_attempt >= policy.max_attempts {
            let o = self.open.remove(&id).expect("entry exists");
            self.dropped_bytes += o.transfer.bytes;
            if self.journal_enabled {
                self.journal.push(LedgerEvent::Dropped {
                    id,
                    transfer: o.transfer,
                });
            }
            return Ok(RetryDecision::Exhausted {
                transfer: o.transfer,
            });
        }
        o.attempts += 1;
        self.retries += 1;
        if self.journal_enabled {
            self.journal.push(LedgerEvent::Retried {
                id,
                attempt: failed_attempt,
            });
        }
        Ok(RetryDecision::Retry {
            attempt: failed_attempt,
            backoff: policy.backoff_for(failed_attempt),
        })
    }

    /// How many send attempts were retried after a transient failure.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Send attempts made so far on an open transfer (`None` once it
    /// completed or dropped). Buggify's wire-loss points consult this to
    /// keep their injected failures strictly transient: they only fail an
    /// attempt when retry budget remains, so a drop injection alone can
    /// never exhaust a transfer — exhaustion stays the signature of a
    /// real (plan-injected) partition.
    pub fn attempts(&self, id: u64) -> Option<u32> {
        self.open.get(&id).map(|o| o.attempts)
    }

    /// Marks a transfer delivered. Returns it, or `None` if the handle is
    /// unknown (already completed or dropped). Skips fence validation —
    /// use [`TransferLedger::try_complete`] when a registry is in force.
    pub fn complete(&mut self, id: u64) -> Option<NodeTransfer> {
        let o = self.open.remove(&id)?;
        self.completed_bytes += o.transfer.bytes;
        if self.journal_enabled {
            self.journal.push(LedgerEvent::Completed {
                id,
                transfer: o.transfer,
            });
        }
        Some(o.transfer)
    }

    /// Marks a transfer delivered *if its fence token is still valid*.
    ///
    /// A stale token means the sender was fenced after launch: the bytes
    /// are counted as dropped, the transfer is closed, and the caller gets
    /// [`LedgerError::Fenced`] so it can discard the payload instead of
    /// applying a pre-fence delta. An unknown handle (duplicate or late
    /// completion) is [`LedgerError::UnknownTransfer`] — a recoverable
    /// condition, where this used to abort the whole simulation.
    pub fn try_complete(
        &mut self,
        id: u64,
        fences: &FenceRegistry,
    ) -> Result<NodeTransfer, LedgerError> {
        let o = match self.open.get(&id) {
            Some(o) => *o,
            None => return Err(LedgerError::UnknownTransfer { id }),
        };
        if let Some(token) = o.token {
            if !fences.validates(token) {
                self.open.remove(&id);
                self.dropped_bytes += o.transfer.bytes;
                self.fenced_rejections += 1;
                let current_epoch = fences.epoch_of(token.node);
                if self.journal_enabled {
                    self.journal.push(LedgerEvent::FencedRejection {
                        id,
                        node: token.node,
                        held_epoch: token.epoch,
                        current_epoch,
                    });
                }
                return Err(LedgerError::Fenced {
                    node: token.node,
                    held_epoch: token.epoch,
                    current_epoch,
                });
            }
        }
        self.open.remove(&id);
        self.completed_bytes += o.transfer.bytes;
        if self.journal_enabled {
            self.journal.push(LedgerEvent::Completed {
                id,
                transfer: o.transfer,
            });
        }
        Ok(o.transfer)
    }

    /// True if `node` is an endpoint of any open transfer.
    pub fn involves(&self, node: NodeId) -> bool {
        self.open
            .values()
            .any(|o| o.transfer.from == node || o.transfer.to == node)
    }

    /// Number of open transfers.
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Bytes currently on the wire.
    pub fn in_flight_bytes(&self) -> usize {
        self.open.values().map(|o| o.transfer.bytes).sum()
    }

    /// Drops every open transfer touching `node` (its link went dark),
    /// returning the casualties in handle order.
    pub fn drop_involving(&mut self, node: NodeId) -> Vec<NodeTransfer> {
        let mut out = Vec::new();
        let mut dropped_ids = Vec::new();
        self.open.retain(|&id, o| {
            if o.transfer.from == node || o.transfer.to == node {
                out.push(o.transfer);
                dropped_ids.push(id);
                false
            } else {
                true
            }
        });
        self.dropped_bytes += out.iter().map(|t| t.bytes).sum::<usize>();
        if self.journal_enabled {
            for (&id, &transfer) in dropped_ids.iter().zip(out.iter()) {
                self.journal.push(LedgerEvent::Dropped { id, transfer });
            }
        }
        out
    }

    /// Drops every open transfer (the whole round was abandoned).
    pub fn drop_all(&mut self) -> usize {
        let n = self.open.len();
        self.dropped_bytes += self.in_flight_bytes();
        if self.journal_enabled {
            for (&id, o) in &self.open {
                self.journal.push(LedgerEvent::Dropped {
                    id,
                    transfer: o.transfer,
                });
            }
        }
        self.open.clear();
        n
    }

    /// How many completions were rejected because their token was fenced.
    pub fn fenced_rejections(&self) -> u64 {
        self.fenced_rejections
    }

    /// Total bytes of transfers that completed.
    pub fn completed_bytes(&self) -> usize {
        self.completed_bytes
    }

    /// Total bytes of transfers that were dropped mid-flight.
    pub fn dropped_bytes(&self) -> usize {
        self.dropped_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_tracks_open_and_completed_transfers() {
        let mut l = TransferLedger::new();
        let a = l.begin(NodeId(0), NodeId(1), 100);
        let b = l.begin(NodeId(2), NodeId(1), 50);
        assert_eq!(l.open_count(), 2);
        assert_eq!(l.in_flight_bytes(), 150);
        assert!(l.involves(NodeId(1)));
        assert!(!l.involves(NodeId(3)));
        assert_eq!(
            l.complete(a),
            Some(NodeTransfer {
                from: NodeId(0),
                to: NodeId(1),
                bytes: 100
            })
        );
        assert_eq!(l.complete(a), None, "double-complete must be a no-op");
        assert_eq!(l.completed_bytes(), 100);
        assert_eq!(l.in_flight_bytes(), 50);
        l.complete(b);
        assert!(!l.involves(NodeId(1)));
    }

    #[test]
    fn ledger_drops_a_dead_nodes_transfers() {
        let mut l = TransferLedger::new();
        l.begin(NodeId(0), NodeId(1), 10);
        let keep = l.begin(NodeId(2), NodeId(3), 20);
        l.begin(NodeId(1), NodeId(2), 30);
        // Node 1 dies as sender of one transfer and receiver of another.
        let dropped = l.drop_involving(NodeId(1));
        assert_eq!(dropped.len(), 2);
        assert_eq!(l.dropped_bytes(), 40);
        assert_eq!(l.open_count(), 1);
        assert!(l.complete(keep).is_some());
        // Abandoning the rest drains the ledger.
        l.begin(NodeId(0), NodeId(3), 5);
        assert_eq!(l.drop_all(), 1);
        assert_eq!(l.dropped_bytes(), 45);
        assert_eq!(l.in_flight_bytes(), 0);
    }

    #[test]
    fn fence_registry_epochs_and_readmission() {
        let mut r = FenceRegistry::new();
        let tok = r.token(NodeId(3)).unwrap();
        assert_eq!(tok.epoch, 0);
        assert!(r.validates(tok));

        r.fence(NodeId(3));
        assert!(r.is_fenced(NodeId(3)));
        assert!(!r.validates(tok), "pre-fence token must go stale");
        assert!(r.token(NodeId(3)).is_none(), "fenced node gets no tokens");
        // Other nodes are untouched.
        assert!(r.validates(r.token(NodeId(0)).unwrap()));

        r.readmit(NodeId(3));
        let fresh = r.token(NodeId(3)).unwrap();
        assert_eq!(fresh.epoch, 1);
        assert!(r.validates(fresh));
        assert!(!r.validates(tok), "old epoch stays dead after readmission");
        assert_eq!(r.fences_raised(), 1);
    }

    #[test]
    fn fence_replica_advance_and_readmit_at() {
        let mut r = FenceRegistry::new();
        // A replica learns of a remote fence at epoch 3.
        r.advance_to(NodeId(2), 3);
        assert!(r.is_fenced(NodeId(2)));
        assert_eq!(r.epoch_of(NodeId(2)), 3);
        assert_eq!(r.fences_raised(), 1);

        // Duplicate or stale broadcasts never roll the epoch back and
        // never double-count the incident.
        r.advance_to(NodeId(2), 1);
        assert_eq!(r.epoch_of(NodeId(2)), 3);
        assert_eq!(r.fences_raised(), 1);

        // Remote readmission at the post-fence epoch unfences and pins
        // the epoch at least that high.
        r.readmit_at(NodeId(2), 3);
        assert!(!r.is_fenced(NodeId(2)));
        assert_eq!(r.epoch_of(NodeId(2)), 3);
        let tok = r.token(NodeId(2)).unwrap();
        assert_eq!(tok.epoch, 3);

        // A readmit broadcast can also carry a higher epoch than the
        // replica ever saw fenced (it missed the fence entirely).
        r.readmit_at(NodeId(5), 7);
        assert!(!r.is_fenced(NodeId(5)));
        assert_eq!(r.epoch_of(NodeId(5)), 7);
    }

    #[test]
    fn try_complete_rejects_fenced_and_unknown() {
        let mut r = FenceRegistry::new();
        let mut l = TransferLedger::new();
        let tok = r.token(NodeId(0)).unwrap();
        let a = l.begin_with_token(NodeId(0), NodeId(1), 100, tok);
        let b = l.begin_with_token(NodeId(0), NodeId(2), 40, tok);
        let legacy = l.begin(NodeId(2), NodeId(1), 7);

        // Valid token: delivery succeeds.
        assert_eq!(l.try_complete(a, &r).unwrap().bytes, 100);
        assert_eq!(l.completed_bytes(), 100);

        // Node 0 is fenced mid-flight: its second transfer is rejected and
        // the bytes are dropped, not applied.
        r.fence(NodeId(0));
        assert_eq!(
            l.try_complete(b, &r),
            Err(LedgerError::Fenced {
                node: NodeId(0),
                held_epoch: 0,
                current_epoch: 1,
            })
        );
        assert_eq!(l.dropped_bytes(), 40);
        assert_eq!(l.fenced_rejections(), 1);
        // The rejected transfer is closed: a retry is UnknownTransfer.
        assert_eq!(
            l.try_complete(b, &r),
            Err(LedgerError::UnknownTransfer { id: b })
        );

        // Tokenless (legacy) transfers never fail fence validation.
        assert!(l.try_complete(legacy, &r).is_ok());

        // Double-completion degrades to a typed error, not a panic.
        assert_eq!(
            l.try_complete(a, &r),
            Err(LedgerError::UnknownTransfer { id: a })
        );
        assert!(l
            .try_complete(999, &r)
            .unwrap_err()
            .to_string()
            .contains("not open"));
    }

    #[test]
    fn retry_backoff_doubles_until_exhausted() {
        let policy = RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(2.0),
        };
        let mut l = TransferLedger::new();
        let id = l.begin(NodeId(0), NodeId(1), 100);

        // Attempt 1 fails → retry after the base backoff.
        assert_eq!(
            l.record_failure(id, policy),
            Ok(RetryDecision::Retry {
                attempt: 1,
                backoff: Duration::from_millis(2.0),
            })
        );
        // Attempt 2 fails → backoff doubles.
        assert_eq!(
            l.record_failure(id, policy),
            Ok(RetryDecision::Retry {
                attempt: 2,
                backoff: Duration::from_millis(4.0),
            })
        );
        assert_eq!(l.retries(), 2);
        assert_eq!(l.open_count(), 1, "retrying transfer stays open");

        // Attempt 3 fails → budget spent: closed and dropped.
        match l.record_failure(id, policy).unwrap() {
            RetryDecision::Exhausted { transfer } => {
                assert_eq!(transfer.bytes, 100);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(l.open_count(), 0);
        assert_eq!(l.dropped_bytes(), 100);
        // A further report is a typed error, not a panic.
        assert_eq!(
            l.record_failure(id, policy),
            Err(LedgerError::UnknownTransfer { id })
        );

        // A transfer that eventually lands still completes normally.
        let id2 = l.begin(NodeId(0), NodeId(1), 60);
        l.record_failure(id2, policy).unwrap();
        assert_eq!(l.complete(id2).unwrap().bytes, 60);
        assert_eq!(l.completed_bytes(), 60);
    }

    #[test]
    fn retry_policy_backoff_schedule() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(1), p.base_backoff);
        assert_eq!(
            p.backoff_for(3).as_secs(),
            p.base_backoff.as_secs() * 4.0,
            "exponent grows with the attempt number"
        );
        assert!(p.backoff_for(2) > p.backoff_for(1));
    }

    #[test]
    fn retry_backoff_exponent_caps_instead_of_overflowing() {
        let p = RetryPolicy::default();
        let capped = p.backoff_for(u32::MAX);
        // The factor saturates at 2^30: finite, and flat from there on.
        assert_eq!(
            capped.as_secs(),
            p.base_backoff.as_secs() * (1u64 << 30) as f64
        );
        assert_eq!(p.backoff_for(31), capped);
        assert_eq!(p.backoff_for(1000), capped);
        assert!(capped.as_secs().is_finite());
    }

    #[test]
    fn jittered_backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        for attempt in 1..=6 {
            let a = p.backoff_with_jitter(attempt, 42);
            let b = p.backoff_with_jitter(attempt, 42);
            assert_eq!(a, b, "same seed must replay the same jitter");
            let base = p.backoff_for(attempt).as_secs();
            assert!(
                a.as_secs() >= base * 0.5 && a.as_secs() < base * 1.5,
                "attempt {attempt}: {} outside [0.5, 1.5)·{base}",
                a.as_secs()
            );
        }
        // Different seeds actually spread.
        let spread: Vec<f64> = (0..16)
            .map(|s| p.backoff_with_jitter(3, s).as_secs())
            .collect();
        let min = spread.iter().copied().fold(f64::INFINITY, f64::min);
        let max = spread.iter().copied().fold(0.0, f64::max);
        assert!(max > min, "sixteen seeds produced identical jitter");
    }

    #[test]
    fn ledger_reports_attempts_for_open_transfers() {
        let policy = RetryPolicy::default();
        let mut ledger = TransferLedger::new();
        let id = ledger.begin(NodeId(0), NodeId(1), 100);
        assert_eq!(ledger.attempts(id), Some(1));
        ledger.record_failure(id, policy).unwrap();
        assert_eq!(ledger.attempts(id), Some(2));
        ledger.complete(id).unwrap();
        assert_eq!(ledger.attempts(id), None);
    }

    #[test]
    fn journals_record_the_transfer_life_cycle() {
        let mut fences = FenceRegistry::new();
        fences.enable_journal();
        let mut ledger = TransferLedger::new();
        ledger.enable_journal();

        let token = fences.token(NodeId(0)).unwrap();
        let a = ledger.begin_with_token(NodeId(0), NodeId(1), 100, token);
        let b = ledger.begin(NodeId(2), NodeId(1), 50);
        fences.fence(NodeId(0));
        assert!(ledger.try_complete(a, &fences).is_err());
        assert!(ledger.try_complete(b, &fences).is_ok());
        fences.readmit(NodeId(0));

        let evs = ledger.take_events();
        assert_eq!(evs.len(), 4);
        assert!(matches!(
            evs[0],
            LedgerEvent::Launched {
                id,
                token_epoch: Some(0),
                ..
            } if id == a
        ));
        assert!(matches!(
            evs[1],
            LedgerEvent::Launched {
                token_epoch: None,
                ..
            }
        ));
        assert!(matches!(
            evs[2],
            LedgerEvent::FencedRejection {
                held_epoch: 0,
                current_epoch: 1,
                ..
            }
        ));
        assert!(matches!(evs[3], LedgerEvent::Completed { id, .. } if id == b));
        assert!(ledger.take_events().is_empty(), "journal drains");

        let fev = fences.take_events();
        assert_eq!(
            fev,
            vec![
                FenceEvent::Raised {
                    node: NodeId(0),
                    epoch: 1
                },
                FenceEvent::Readmitted {
                    node: NodeId(0),
                    epoch: 1
                },
            ]
        );
    }

    #[test]
    fn journal_is_off_by_default() {
        let mut ledger = TransferLedger::new();
        let id = ledger.begin(NodeId(0), NodeId(1), 10);
        ledger.complete(id);
        assert!(ledger.take_events().is_empty());
        let mut fences = FenceRegistry::new();
        fences.fence(NodeId(3));
        assert!(fences.take_events().is_empty());
    }
}
