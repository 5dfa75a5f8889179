//! Span pairing: the one table that says which events open and close a
//! round, a phase, a rebuild and a transfer, and a bounded fold over it.
//!
//! | span          | opened by          | closed by                                   | key      |
//! |---------------|--------------------|---------------------------------------------|----------|
//! | round         | `RoundBegin`       | `RoundCommitted`, `RoundAborted`            | `epoch`  |
//! | round phase   | `RoundPhase`       | the round's next `RoundPhase`, or its end   | `epoch`  |
//! | rebuild       | `RebuildBegin`     | `RebuildCompleted`, `RebuildAborted`        | `victim` |
//! | rebuild phase | `RebuildPhase`     | the rebuild's next `RebuildPhase`, its end  | `victim` |
//! | transfer      | `TransferLaunched` | `TransferArrived`, `…Fenced`, `…Dropped`    | `id`     |
//!
//! `TransferRetried` names an open transfer without changing it. The
//! Chrome exporter ([`crate::chrome`]) and the metrics fold
//! ([`crate::metrics`]) both consume [`SpanFold::observe`] and know
//! nothing of the table themselves. [`crate::audit::InvariantAuditor`]
//! deliberately does not: it is the independent reference that checks
//! the same lifecycle as a safety property.
//!
//! The fold never guesses. A terminator, phase marker or retry whose
//! opener it has not seen — the head of a ring that wrapped — is
//! reported [`Edge::Unpaired`], and every way a span can end without its
//! terminator is a distinct [`End`].

use std::collections::BTreeMap;

use dvdc_simcore::time::SimTime;

use crate::Event;

/// Open spans per kind a long-running fold keeps: a stream whose spans
/// never resolve cannot grow it further. A fold over a finite slice
/// passes the slice length and so never evicts.
pub const OPEN_SPAN_CAP: usize = 64;

/// An interval of the timeline, identified by the event that opened it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// When `opener` was observed.
    pub start: SimTime,
    /// `RoundBegin`, `RoundPhase`, `RebuildBegin`, `RebuildPhase` or
    /// `TransferLaunched`, with the fields it carried.
    pub opener: Event,
}

/// Why a span closed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum End {
    /// The observed event is its terminator.
    Terminated,
    /// A phase gave way to the next phase, or its parent terminated.
    Followed,
    /// Its key was opened again before any terminator arrived.
    Superseded,
    /// The cap pushed it out to admit a newer span of its kind.
    Evicted,
    /// It was still open when the fold was drained.
    Open,
}

/// What one observed event did to the open spans.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Edge {
    /// The event opened this span.
    Open(Span),
    /// The event closed this span.
    Close(Span, End),
    /// The event belongs to this open span and leaves it open (a phase
    /// marker's parent, a retried transfer).
    Within(Span),
    /// The event refers to a span that is not open.
    Unpaired,
}

#[derive(Clone, Copy)]
enum Kind {
    Round,
    Rebuild,
    Transfer,
}

enum Role {
    Opens,
    Marks,
    Touches,
    Closes,
}

/// The pairing table.
fn role(event: &Event) -> Option<(Kind, Role, u64)> {
    Some(match *event {
        Event::RoundBegin { epoch } => (Kind::Round, Role::Opens, epoch),
        Event::RoundPhase { epoch, .. } => (Kind::Round, Role::Marks, epoch),
        Event::RoundCommitted { epoch } | Event::RoundAborted { epoch, .. } => {
            (Kind::Round, Role::Closes, epoch)
        }
        Event::RebuildBegin { victim, .. } => (Kind::Rebuild, Role::Opens, victim as u64),
        Event::RebuildPhase { victim, .. } => (Kind::Rebuild, Role::Marks, victim as u64),
        Event::RebuildCompleted { victim } | Event::RebuildAborted { victim, .. } => {
            (Kind::Rebuild, Role::Closes, victim as u64)
        }
        Event::TransferLaunched { id, .. } => (Kind::Transfer, Role::Opens, id),
        Event::TransferRetried { id, .. } => (Kind::Transfer, Role::Touches, id),
        Event::TransferArrived { id, .. }
        | Event::TransferFenced { id, .. }
        | Event::TransferDropped { id, .. } => (Kind::Transfer, Role::Closes, id),
        _ => return None,
    })
}

#[derive(Debug)]
struct OpenSpan {
    span: Span,
    phase: Option<Span>,
}

impl OpenSpan {
    /// Closes the phase, then the span around it.
    fn close(self, end: End, edges: &mut Vec<Edge>) {
        if let Some(phase) = self.phase {
            let phase_end = match end {
                End::Terminated => End::Followed,
                cut => cut,
            };
            edges.push(Edge::Close(phase, phase_end));
        }
        edges.push(Edge::Close(self.span, end));
    }
}

/// The fold: feed it every event in order, act on the edges it returns.
#[derive(Debug)]
pub struct SpanFold {
    cap: usize,
    /// Open spans by key, one map per [`Kind`].
    open: [BTreeMap<u64, OpenSpan>; 3],
}

impl SpanFold {
    /// A fold that keeps at most `cap` spans of each kind open.
    ///
    /// # Panics
    /// Panics if `cap` is 0.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "open-span cap must be positive");
        SpanFold {
            cap,
            open: Default::default(),
        }
    }

    /// Observes one event; returns what it opened and closed, inner
    /// spans before outer ones. Events outside the table return nothing.
    pub fn observe(&mut self, at: SimTime, event: &Event) -> Vec<Edge> {
        let Some((kind, role, key)) = role(event) else {
            return Vec::new();
        };
        let open = &mut self.open[kind as usize];
        let span = Span {
            start: at,
            opener: *event,
        };
        let mut edges = Vec::new();
        match role {
            Role::Opens => {
                if let Some(old) = open.remove(&key) {
                    old.close(End::Superseded, &mut edges);
                } else if open.len() >= self.cap {
                    // Epochs and transfer ids only grow, so the lowest
                    // key is the oldest span.
                    let (_, old) = open.pop_first().expect("cap is positive");
                    old.close(End::Evicted, &mut edges);
                }
                open.insert(key, OpenSpan { span, phase: None });
                edges.push(Edge::Open(span));
            }
            Role::Marks => match open.get_mut(&key) {
                Some(parent) => {
                    edges.push(Edge::Within(parent.span));
                    if let Some(previous) = parent.phase.replace(span) {
                        edges.push(Edge::Close(previous, End::Followed));
                    }
                    edges.push(Edge::Open(span));
                }
                None => edges.push(Edge::Unpaired),
            },
            Role::Touches => edges.push(match open.get(&key) {
                Some(touched) => Edge::Within(touched.span),
                None => Edge::Unpaired,
            }),
            Role::Closes => match open.remove(&key) {
                Some(closed) => closed.close(End::Terminated, &mut edges),
                None => edges.push(Edge::Unpaired),
            },
        }
        edges
    }

    /// Empties the fold, returning what was still open (a scrape taken
    /// mid-span): each such span ends as [`End::Open`], inner spans
    /// before outer ones.
    pub fn drain(&mut self) -> Vec<Span> {
        let mut spans = Vec::new();
        for open in &mut self.open {
            for (_, entry) in std::mem::take(open) {
                spans.extend(entry.phase);
                spans.push(entry.span);
            }
        }
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn launch(id: u64) -> Event {
        Event::TransferLaunched {
            id,
            from: 0,
            to: 1,
            bytes: 8,
            token_epoch: 0,
        }
    }

    fn phase(epoch: u64, phase: &'static str) -> Event {
        Event::RoundPhase { epoch, phase }
    }

    #[test]
    fn a_round_closes_its_phase_then_itself() {
        let mut fold = SpanFold::new(OPEN_SPAN_CAP);
        let begin = Event::RoundBegin { epoch: 3 };
        let round = Span {
            start: t(1.0),
            opener: begin,
        };
        assert_eq!(fold.observe(t(1.0), &begin), [Edge::Open(round)]);
        let capture = Span {
            start: t(1.0),
            opener: phase(3, "Capture"),
        };
        assert_eq!(
            fold.observe(t(1.0), &capture.opener),
            [Edge::Within(round), Edge::Open(capture)]
        );
        let transfer = Span {
            start: t(1.5),
            opener: phase(3, "Transfer"),
        };
        assert_eq!(
            fold.observe(t(1.5), &transfer.opener),
            [
                Edge::Within(round),
                Edge::Close(capture, End::Followed),
                Edge::Open(transfer)
            ]
        );
        assert_eq!(
            fold.observe(t(2.0), &Event::RoundCommitted { epoch: 3 }),
            [
                Edge::Close(transfer, End::Followed),
                Edge::Close(round, End::Terminated)
            ]
        );
        assert!(fold.drain().is_empty());
    }

    #[test]
    fn spans_pair_by_key_not_by_order() {
        let mut fold = SpanFold::new(OPEN_SPAN_CAP);
        let rebuild = |victim| Event::RebuildBegin {
            victim,
            mode: "Failover",
            epoch: 1,
        };
        fold.observe(t(1.0), &rebuild(2));
        fold.observe(t(2.0), &rebuild(5));
        // The first to finish is the second that began.
        let edges = fold.observe(t(3.0), &Event::RebuildCompleted { victim: 5 });
        assert_eq!(
            edges,
            [Edge::Close(
                Span {
                    start: t(2.0),
                    opener: rebuild(5)
                },
                End::Terminated
            )]
        );
        // A commit for an epoch that never began pairs with nothing,
        // whatever else is open.
        fold.observe(t(3.0), &Event::RoundBegin { epoch: 7 });
        assert_eq!(
            fold.observe(t(4.0), &Event::RoundCommitted { epoch: 8 }),
            [Edge::Unpaired]
        );
    }

    #[test]
    fn a_lost_opener_is_unpaired_for_every_role() {
        let mut fold = SpanFold::new(OPEN_SPAN_CAP);
        for orphan in [
            Event::RoundCommitted { epoch: 1 },
            phase(1, "Fold"),
            Event::RebuildAborted {
                victim: 2,
                phase: "Decode",
            },
            Event::RebuildPhase {
                victim: 2,
                phase: "Decode",
            },
            Event::TransferRetried { id: 9, attempt: 1 },
            Event::TransferDropped {
                id: 9,
                from: 0,
                to: 1,
                bytes: 8,
            },
        ] {
            assert_eq!(
                fold.observe(t(1.0), &orphan),
                [Edge::Unpaired],
                "{orphan:?}"
            );
        }
        assert_eq!(fold.observe(t(1.0), &Event::Suspected { node: 1 }), []);
    }

    #[test]
    fn reopening_a_key_supersedes_and_a_retry_is_within() {
        let mut fold = SpanFold::new(OPEN_SPAN_CAP);
        fold.observe(t(1.0), &launch(4));
        let first = Span {
            start: t(1.0),
            opener: launch(4),
        };
        assert_eq!(
            fold.observe(t(1.5), &Event::TransferRetried { id: 4, attempt: 1 }),
            [Edge::Within(first)]
        );
        let again = Span {
            start: t(2.0),
            opener: launch(4),
        };
        assert_eq!(
            fold.observe(t(2.0), &launch(4)),
            [Edge::Close(first, End::Superseded), Edge::Open(again)]
        );
        assert_eq!(fold.drain(), [again]);
    }

    #[test]
    fn open_maps_are_bounded_for_every_kind() {
        let mut fold = SpanFold::new(OPEN_SPAN_CAP);
        let mut evicted = 0;
        for i in 0..1000u64 {
            let at = t(i as f64);
            for opener in [
                Event::RoundBegin { epoch: i },
                phase(i, "Capture"),
                Event::RebuildBegin {
                    victim: i as usize,
                    mode: "Custody",
                    epoch: 0,
                },
                launch(i),
            ] {
                evicted += fold
                    .observe(at, &opener)
                    .iter()
                    .filter(|e| matches!(e, Edge::Close(_, End::Evicted)))
                    .count();
            }
        }
        assert!(fold.open.iter().all(|m| m.len() == OPEN_SPAN_CAP));
        // Every evicted round took its open phase with it.
        assert_eq!(evicted, 4 * (1000 - OPEN_SPAN_CAP));
        // The oldest went first: epoch 0 is gone, the newest still pairs.
        assert_eq!(
            fold.observe(t(1e3), &Event::RoundCommitted { epoch: 0 }),
            [Edge::Unpaired]
        );
        assert_eq!(
            fold.observe(t(1e3), &Event::RoundCommitted { epoch: 999 })
                .len(),
            2
        );
    }
}
