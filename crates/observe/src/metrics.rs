//! The metrics fold: one [`Event`] stream in, one [`MetricsHub`] out.
//!
//! A simulation's recorded timeline and a live daemon's note stream pass
//! through the same [`EventMetrics`], so both report the same instruments
//! under the same names — what `dvdc-ctl metrics` scrapes from a node is
//! what [`metrics_snapshot`] renders for a traced `dvdc-sim run`.
//!
//! * Counters are declared beside each event in `events!`
//!   ([`Event::counter`]) and all registered up front, so a quantity that
//!   never happened reads 0 instead of being absent.
//! * Durations come from [`crate::spans`]: `node.round_latency_ns` is
//!   begin → commit of one epoch, `node.rebuild_total_ns` begin →
//!   completed of one victim (also per mode, `node.rebuild_ns.<Mode>`),
//!   `node.rebuild_fetch_ns` begin → the `Decode` phase marker,
//!   `node.transfer_latency_ns` launch → arrival of one id, and
//!   `node.round_phase_ns.<Phase>` / `node.rebuild_phase_ns.<Phase>` one
//!   histogram per phase name. Aborted, superseded and evicted spans
//!   count but record no duration.
//!
//! All histograms are nanoseconds in log₂ buckets, so memory stays
//! bounded on a soak of any length and equal streams render
//! byte-identical JSON (the trace-determinism test relies on this).

use std::collections::BTreeMap;

use dvdc_simcore::time::SimTime;

use crate::registry::{nanos_between, Counter, HistogramHandle, MetricsHub, MetricsSnapshot};
use crate::spans::{Edge, End, Span, SpanFold};
use crate::{Event, TimedEvent};

/// Folds an event stream into the instruments of one [`MetricsHub`].
#[derive(Debug)]
pub struct EventMetrics {
    hub: MetricsHub,
    spans: SpanFold,
    /// By [`Event::counter`] name.
    counters: BTreeMap<&'static str, Counter>,
    round_latency: HistogramHandle,
    rebuild_fetch: HistogramHandle,
    rebuild_total: HistogramHandle,
    transfer_latency: HistogramHandle,
    transfer_bytes_completed: Counter,
    transfer_bytes_dropped: Counter,
    scrub_verified: Counter,
    scrub_corrupt: Counter,
    scrub_repaired: Counter,
    /// Per-phase and per-mode histograms, registered as names appear.
    labelled: BTreeMap<(&'static str, &'static str), HistogramHandle>,
}

impl EventMetrics {
    /// Registers every instrument on `hub`. `open_spans` bounds the
    /// correlation state per span kind ([`crate::spans::OPEN_SPAN_CAP`]
    /// for a stream without end).
    pub fn new(hub: &MetricsHub, open_spans: usize) -> Self {
        EventMetrics {
            hub: hub.clone(),
            spans: SpanFold::new(open_spans),
            counters: Event::COUNTERS
                .iter()
                .map(|&name| (name, hub.counter(name)))
                .collect(),
            round_latency: hub.histogram("node.round_latency_ns"),
            rebuild_fetch: hub.histogram("node.rebuild_fetch_ns"),
            rebuild_total: hub.histogram("node.rebuild_total_ns"),
            transfer_latency: hub.histogram("node.transfer_latency_ns"),
            transfer_bytes_completed: hub.counter("node.transfer_bytes_completed"),
            transfer_bytes_dropped: hub.counter("node.transfer_bytes_dropped"),
            scrub_verified: hub.counter("node.scrub_verified"),
            scrub_corrupt: hub.counter("node.scrub_corrupt"),
            scrub_repaired: hub.counter("node.scrub_repaired"),
            labelled: BTreeMap::new(),
        }
    }

    /// Folds one timed event into the instruments. A no-op hub makes
    /// this a single branch.
    pub fn observe(&mut self, at: SimTime, event: &Event) {
        if !self.hub.enabled() {
            return;
        }
        if let Some(counter) = event.counter().and_then(|name| self.counters.get(name)) {
            counter.inc();
        }
        if let Event::ScrubCompleted {
            verified,
            corrupt,
            repaired,
        } = *event
        {
            self.scrub_verified.add(verified as u64);
            self.scrub_corrupt.add(corrupt as u64);
            self.scrub_repaired.add(repaired as u64);
        }
        for edge in self.spans.observe(at, event) {
            match edge {
                Edge::Close(span, end) => self.closed(span, end, at, event),
                // "Decode" marks the end of the fetch: every fragment is
                // home and reconstruction begins.
                Edge::Within(rebuild) => {
                    if let Event::RebuildPhase {
                        phase: "Decode", ..
                    } = event
                    {
                        self.rebuild_fetch.record(nanos_between(rebuild.start, at));
                    }
                }
                Edge::Open(_) | Edge::Unpaired => {}
            }
        }
    }

    fn closed(&mut self, span: Span, end: End, at: SimTime, by: &Event) {
        let took = nanos_between(span.start, at);
        match (span.opener, end) {
            (Event::RoundPhase { phase, .. }, End::Followed) => {
                self.labelled("node.round_phase_ns", phase).record(took);
            }
            (Event::RebuildPhase { phase, .. }, End::Followed) => {
                self.labelled("node.rebuild_phase_ns", phase).record(took);
            }
            (Event::RoundBegin { .. }, End::Terminated) => {
                if let Event::RoundCommitted { .. } = by {
                    self.round_latency.record(took);
                }
            }
            (Event::RebuildBegin { mode, .. }, End::Terminated) => {
                if let Event::RebuildCompleted { .. } = by {
                    self.rebuild_total.record(took);
                    self.labelled("node.rebuild_ns", mode).record(took);
                }
            }
            (Event::TransferLaunched { bytes, .. }, End::Terminated) => {
                if let Event::TransferArrived { .. } = by {
                    self.transfer_latency.record(took);
                    self.transfer_bytes_completed.add(bytes as u64);
                } else {
                    self.transfer_bytes_dropped.add(bytes as u64);
                }
            }
            _ => {}
        }
    }

    fn labelled(&mut self, family: &'static str, label: &'static str) -> &HistogramHandle {
        let hub = &self.hub;
        self.labelled
            .entry((family, label))
            .or_insert_with(|| hub.histogram(&format!("{family}.{label}")))
    }
}

/// Folds a recorded timeline into a fresh hub and snapshots it.
pub fn fold_events(events: &[TimedEvent]) -> MetricsSnapshot {
    let hub = MetricsHub::new();
    let mut fold = EventMetrics::new(&hub, events.len().max(1));
    for te in events {
        fold.observe(te.at, &te.event);
    }
    hub.snapshot()
}

/// [`fold_events`] as pretty JSON — the document `dvdc-ctl metrics
/// --json` prints for a live node.
pub fn metrics_snapshot(events: &[TimedEvent]) -> String {
    fold_events(events).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceRecorder};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn snapshot_aggregates_rounds_and_transfers() {
        let rec = TraceRecorder::unbounded();
        rec.record(t(0.0), &Event::RoundBegin { epoch: 1 });
        rec.record(
            t(0.0),
            &Event::RoundPhase {
                epoch: 1,
                phase: "Capture",
            },
        );
        rec.record(
            t(1.0),
            &Event::RoundPhase {
                epoch: 1,
                phase: "Transfer",
            },
        );
        rec.record(
            t(1.0),
            &Event::TransferLaunched {
                id: 0,
                from: 0,
                to: 1,
                bytes: 100,
                token_epoch: 0,
            },
        );
        rec.record(
            t(1.5),
            &Event::TransferArrived {
                id: 0,
                from: 0,
                to: 1,
                bytes: 100,
            },
        );
        rec.record(t(2.0), &Event::RoundCommitted { epoch: 1 });
        let snap = fold_events(&rec.events());
        assert_eq!(snap.counter("node.rounds_committed"), Some(1));
        assert_eq!(snap.counter("node.rounds_aborted"), Some(0));
        assert_eq!(snap.counter("node.transfers_launched"), Some(1));
        assert_eq!(snap.counter("node.transfer_bytes_completed"), Some(100));
        // Round took 2.0 simulated seconds, its phases one each, the
        // transfer half of one.
        let sum = |name: &str| snap.histogram(name).map(|h| (h.count, h.sum));
        assert_eq!(sum("node.round_latency_ns"), Some((1, 2_000_000_000)));
        assert_eq!(sum("node.round_phase_ns.Capture"), Some((1, 1_000_000_000)));
        assert_eq!(
            sum("node.round_phase_ns.Transfer"),
            Some((1, 1_000_000_000))
        );
        assert_eq!(sum("node.transfer_latency_ns"), Some((1, 500_000_000)));
        let json = metrics_snapshot(&rec.events());
        assert_eq!(json, snap.to_json());
        assert!(json.contains("\"mean\": 2000000000.0"));
        assert!(json.contains("\"p50\"") && json.contains("\"p95\""));
    }

    #[test]
    fn only_a_finished_span_records_a_duration() {
        let rec = TraceRecorder::unbounded();
        let begin = |victim| Event::RebuildBegin {
            victim,
            mode: "Failover",
            epoch: 1,
        };
        let decode = |victim| Event::RebuildPhase {
            victim,
            phase: "Decode",
        };
        // Two rebuilds overlap; node 5's finishes, node 2's is aborted.
        rec.record(t(1.0), &begin(2));
        rec.record(t(2.0), &begin(5));
        rec.record(t(3.0), &decode(5));
        rec.record(t(4.0), &Event::RebuildCompleted { victim: 5 });
        rec.record(
            t(5.0),
            &Event::RebuildAborted {
                victim: 2,
                phase: "FetchSurvivors",
            },
        );
        // A decode marker and a commit whose openers were never seen.
        rec.record(t(6.0), &decode(9));
        rec.record(t(6.0), &Event::RoundCommitted { epoch: 4 });
        // A transfer fenced on arrival.
        rec.record(
            t(7.0),
            &Event::TransferLaunched {
                id: 1,
                from: 0,
                to: 1,
                bytes: 64,
                token_epoch: 0,
            },
        );
        rec.record(
            t(8.0),
            &Event::TransferFenced {
                id: 1,
                node: 0,
                held_epoch: 0,
                current_epoch: 1,
            },
        );
        let snap = fold_events(&rec.events());
        assert_eq!(snap.counter("node.rebuilds"), Some(2));
        assert_eq!(snap.counter("node.rebuilds_completed"), Some(1));
        assert_eq!(snap.counter("node.rebuilds_aborted"), Some(1));
        assert_eq!(snap.counter("node.rounds_committed"), Some(1));
        assert_eq!(snap.counter("node.transfer_bytes_dropped"), Some(64));
        let sum = |name: &str| snap.histogram(name).map(|h| (h.count, h.sum));
        assert_eq!(sum("node.rebuild_total_ns"), Some((1, 2_000_000_000)));
        assert_eq!(sum("node.rebuild_ns.Failover"), Some((1, 2_000_000_000)));
        assert_eq!(sum("node.rebuild_fetch_ns"), Some((1, 1_000_000_000)));
        assert_eq!(
            sum("node.rebuild_phase_ns.Decode"),
            Some((1, 1_000_000_000))
        );
        assert_eq!(sum("node.round_latency_ns"), Some((0, 0)));
        assert_eq!(sum("node.transfer_latency_ns"), Some((0, 0)));
    }

    #[test]
    fn empty_stream_renders_cleanly() {
        let json = metrics_snapshot(&[]);
        assert!(json.contains("\"node.rounds_committed\": 0"));
        assert!(json.contains("\"node.round_latency_ns\""));
        // A disabled hub folds nothing and registers nothing.
        let mut off = EventMetrics::new(&MetricsHub::noop(), 1);
        off.observe(t(0.0), &Event::RoundBegin { epoch: 1 });
        assert!(off.spans.drain().is_empty());
    }
}
