//! # dvdc-observe
//!
//! Structured tracing and metrics for the DVDC reproduction, shared by
//! the simulator and the live `dvdc-node` cluster.
//!
//! The protocol crates report end-of-run aggregates (`RoundReport`,
//! chaos counters); this crate captures the *timeline* those aggregates
//! summarise. Every interesting protocol step — round and phase
//! transitions, transfer launches and arrivals, detector verdicts, fence
//! epoch bumps, rebuild steps, scrub repairs, data loss — is an
//! [`Event`] stamped with the instant it happened at, fed through a
//! [`Recorder`].
//!
//! Recorders:
//!
//! * [`RecorderHandle::noop`] — the zero-cost default. Instrumented code asks
//!   [`RecorderHandle::enabled`] before doing any work, so an
//!   uninstrumented run pays one virtual call per *attachment*, not per
//!   event.
//! * [`TraceRecorder`] — the one in-memory buffer, either unbounded (for
//!   export) or a fixed-size ring (for attaching the last N events to a
//!   chaos-failure report). A `Mutex` guards it, so the sim shares it as
//!   `Rc` and the multi-threaded daemon as `Arc`.
//! * [`Fanout`] — broadcasts to several recorders (e.g. ring + auditor).
//! * [`audit::InvariantAuditor`] — checks causal protocol invariants
//!   online and accumulates violations instead of events.
//!
//! Consumers of a recorded or live stream:
//!
//! * [`spans`] — the one table of which events open and close a round, a
//!   phase, a rebuild and a transfer, as a bounded fold. The two below
//!   are built on it.
//! * [`chrome`] — renders a timeline, or the merged ring tails of a live
//!   cluster, as Chrome trace-event JSON (loadable in Perfetto /
//!   `chrome://tracing`).
//! * [`metrics`] — folds events into the counters and latency histograms
//!   of a [`MetricsHub`] ([`registry`]), under one set of names for
//!   simulated and live runs.
//!
//! All events carry primitive identifiers (`usize` node/VM/group
//! indices, `u64` epochs and transfer handles, `&'static str` phase
//! names) so this crate sits directly above `dvdc-simcore` and below
//! everything else.
//!
//! ## Example
//!
//! ```
//! use dvdc_observe::{Event, RecorderHandle, TraceRecorder};
//! use dvdc_simcore::time::SimTime;
//! use std::rc::Rc;
//!
//! let trace = Rc::new(TraceRecorder::unbounded());
//! let handle = RecorderHandle::new(trace.clone());
//! handle.record(SimTime::from_secs(1.0), &Event::RoundBegin { epoch: 1 });
//! handle.record(SimTime::from_secs(2.0), &Event::RoundCommitted { epoch: 1 });
//! assert_eq!(trace.len(), 2);
//! let json = dvdc_observe::chrome::chrome_trace(&trace.events(), &[]);
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod chrome;
mod event;
pub mod metrics;
pub mod registry;
pub mod spans;

pub use event::{Arg, Event, NO_TOKEN};
pub use registry::{
    intern, Counter, Gauge, HistSnapshot, HistogramHandle, LogHistogram, MetricsHub,
    MetricsSnapshot,
};

use std::collections::VecDeque;
use std::fmt;
use std::rc::Rc;
use std::sync::{Mutex, MutexGuard};

use dvdc_simcore::time::SimTime;

/// A sink for protocol events, stamped with the simulated instant they
/// occurred at.
///
/// Recorders take `&self` (interior mutability) so one recorder can be
/// shared — via [`RecorderHandle`] — between a protocol, its driver, and
/// the test harness without threading `&mut` through every layer.
pub trait Recorder {
    /// Consumes one event.
    fn record(&self, at: SimTime, event: &Event);

    /// False for sinks that discard everything ([`RecorderHandle::noop`]).
    /// Instrumented code checks this once per step and skips event
    /// construction entirely when recording is off, keeping the default
    /// path free.
    fn enabled(&self) -> bool {
        true
    }
}

/// The zero-cost default recorder: drops every event, reports itself
/// disabled so instrumented code skips event construction altogether.
#[derive(Debug, Clone, Copy, Default)]
struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn record(&self, _at: SimTime, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// One recorded event with its simulated timestamp and a monotone
/// sequence number (ties on `at` are common — the sequence number keeps
/// replay and export order exact).
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent {
    /// Simulated instant the event occurred at.
    pub at: SimTime,
    /// Monotone per-recorder sequence number, starting at 0.
    pub seq: u64,
    /// The event itself.
    pub event: Event,
}

/// In-memory trace buffer: either unbounded (collect everything for
/// export) or a fixed-capacity ring that keeps only the most recent
/// events (attach the tail to a panic report). A `Mutex` guards the
/// buffer, so one type serves the single-threaded sim (shared as `Rc`)
/// and the multi-threaded daemon (shared as `Arc`, read by its panic
/// hook while other threads hold clones).
#[derive(Debug, Default)]
pub struct TraceRecorder {
    inner: Mutex<TraceBuf>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: VecDeque<TimedEvent>,
    cap: Option<usize>,
    next_seq: u64,
    dropped: u64,
}

impl TraceBuf {
    fn with_cap(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        TraceBuf {
            cap: Some(cap),
            ..TraceBuf::default()
        }
    }

    fn push(&mut self, at: SimTime, event: &Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push_back(TimedEvent {
            at,
            seq,
            event: *event,
        });
        if let Some(cap) = self.cap {
            while self.events.len() > cap {
                self.events.pop_front();
                self.dropped += 1;
            }
        }
    }
}

impl TraceRecorder {
    /// A buffer that keeps every event.
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A ring that keeps only the most recent `cap` events, counting the
    /// rest as dropped.
    ///
    /// # Panics
    /// Panics if `cap` is 0.
    pub fn ring(cap: usize) -> Self {
        TraceRecorder {
            inner: Mutex::new(TraceBuf::with_cap(cap)),
        }
    }

    /// The buffer, including after a poisoning panic — that is exactly
    /// when a panic hook needs the events recorded before it.
    fn buf(&self) -> MutexGuard<'_, TraceBuf> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Snapshot of the buffered events, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.buf().events.iter().cloned().collect()
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.buf().events.len()
    }

    /// True if nothing has been recorded (or everything fell out of the
    /// ring).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events evicted from the ring (always 0 for unbounded buffers).
    pub fn dropped(&self) -> u64 {
        self.buf().dropped
    }

    /// Total events ever recorded, including evicted ones.
    pub fn recorded(&self) -> u64 {
        self.buf().next_seq
    }
}

impl Recorder for TraceRecorder {
    fn record(&self, at: SimTime, event: &Event) {
        self.buf().push(at, event);
    }
}

/// Writes a trace tail to stderr in the standard panic-report layout:
/// a header with counts, one line per event, then `footer` (typically a
/// repro command or the daemon's seed/epoch line).
pub fn dump_tail(events: &[TimedEvent], dropped: u64, footer: &str) {
    eprintln!(
        "--- last {} trace events before the panic ({dropped} older events dropped) ---",
        events.len(),
    );
    for ev in events {
        eprintln!(
            "  [{:>12.6}s] #{:<6} {:?}",
            ev.at.as_secs(),
            ev.seq,
            ev.event
        );
    }
    eprintln!("--- {footer} ---");
}

/// Dumps the tail of a trace ring to stderr when the holding scope
/// unwinds from a panic, so a failing run ships its last N protocol
/// events alongside a repro line without re-running under tracing. (The
/// daemon's panic hook calls [`dump_tail`] on its ring directly.)
pub struct TraceDumpGuard {
    trace: Rc<TraceRecorder>,
    footer: String,
}

impl TraceDumpGuard {
    /// Arms the guard; `footer` closes the dump (repro command,
    /// seed/epoch, ...).
    pub fn new(trace: Rc<TraceRecorder>, footer: String) -> Self {
        TraceDumpGuard { trace, footer }
    }
}

impl Drop for TraceDumpGuard {
    fn drop(&mut self) {
        if std::thread::panicking() {
            dump_tail(&self.trace.events(), self.trace.dropped(), &self.footer);
        }
    }
}

/// Broadcasts every event to several recorders — e.g. a ring buffer for
/// panic context plus an [`audit::InvariantAuditor`] in the same run.
#[derive(Clone, Default)]
pub struct Fanout {
    sinks: Vec<RecorderHandle>,
}

impl Fanout {
    /// A fanout over the given sinks.
    pub fn new(sinks: Vec<RecorderHandle>) -> Self {
        Fanout { sinks }
    }
}

impl Recorder for Fanout {
    fn record(&self, at: SimTime, event: &Event) {
        for sink in &self.sinks {
            sink.record(at, event);
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(RecorderHandle::enabled)
    }
}

/// A cheaply clonable, shared handle to a recorder.
///
/// Protocol structs embed one of these (defaulting to the no-op sink);
/// tests and the CLI attach a real recorder and keep their own clone to
/// read back from.
#[derive(Clone)]
pub struct RecorderHandle(Rc<dyn Recorder>);

impl RecorderHandle {
    /// Wraps a shared recorder.
    pub fn new(recorder: Rc<dyn Recorder>) -> Self {
        RecorderHandle(recorder)
    }

    /// The no-op handle (same as `Default`).
    pub fn noop() -> Self {
        RecorderHandle(Rc::new(NoopRecorder))
    }

    /// Records one event.
    pub fn record(&self, at: SimTime, event: &Event) {
        self.0.record(at, event);
    }

    /// True unless this handle leads (only) to the no-op sink. Check
    /// before building events on hot paths.
    pub fn enabled(&self) -> bool {
        self.0.enabled()
    }
}

impl Default for RecorderHandle {
    fn default() -> Self {
        RecorderHandle::noop()
    }
}

impl fmt::Debug for RecorderHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.enabled() {
            f.write_str("RecorderHandle(enabled)")
        } else {
            f.write_str("RecorderHandle(noop)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn noop_is_disabled_and_silent() {
        let h = RecorderHandle::default();
        assert!(!h.enabled());
        h.record(t(1.0), &Event::RoundBegin { epoch: 1 });
    }

    #[test]
    fn unbounded_buffer_keeps_order_and_seq() {
        let rec = TraceRecorder::unbounded();
        rec.record(t(2.0), &Event::RoundBegin { epoch: 7 });
        rec.record(
            t(2.0),
            &Event::RoundPhase {
                epoch: 7,
                phase: "Capture",
            },
        );
        rec.record(t(3.0), &Event::RoundCommitted { epoch: 7 });
        let evs = rec.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].seq, 0);
        assert_eq!(evs[2].seq, 2);
        assert_eq!(evs[2].event, Event::RoundCommitted { epoch: 7 });
        assert_eq!(rec.dropped(), 0);
        assert_eq!(rec.recorded(), 3);
    }

    #[test]
    fn ring_keeps_only_the_tail() {
        let rec = TraceRecorder::ring(2);
        for epoch in 0..5 {
            rec.record(t(epoch as f64), &Event::RoundBegin { epoch });
        }
        let evs = rec.events();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event, Event::RoundBegin { epoch: 3 });
        assert_eq!(evs[1].event, Event::RoundBegin { epoch: 4 });
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.recorded(), 5);
    }

    #[test]
    fn sync_ring_is_shared_across_threads_and_keeps_the_tail() {
        let rec = std::sync::Arc::new(TraceRecorder::ring(8));
        let mut handles = Vec::new();
        for thread in 0..4u64 {
            let rec = std::sync::Arc::clone(&rec);
            handles.push(std::thread::spawn(move || {
                for i in 0..16 {
                    rec.record(t(thread as f64), &Event::RoundBegin { epoch: i });
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(rec.recorded(), 64);
        assert_eq!(rec.events().len(), 8);
        assert_eq!(rec.dropped(), 56);
        // Sequence numbers stay monotone in the surviving tail.
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert_eq!(seqs, sorted);
    }

    #[test]
    fn dump_guard_is_silent_without_a_panic() {
        let trace = Rc::new(TraceRecorder::ring(4));
        trace.record(t(1.0), &Event::RoundBegin { epoch: 1 });
        let _guard = TraceDumpGuard::new(Rc::clone(&trace), "no panic".into());
        // Dropping outside a panic must not consume or disturb the trace.
        drop(_guard);
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn fanout_reaches_every_sink_and_reports_enabled() {
        let a = Rc::new(TraceRecorder::unbounded());
        let b = Rc::new(TraceRecorder::ring(1));
        let fan = RecorderHandle::new(Rc::new(Fanout::new(vec![
            RecorderHandle::new(a.clone()),
            RecorderHandle::new(b.clone()),
            RecorderHandle::noop(),
        ])));
        assert!(fan.enabled());
        fan.record(t(1.0), &Event::Suspected { node: 3 });
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);

        let empty = Fanout::new(vec![RecorderHandle::noop()]);
        assert!(!empty.enabled());
    }
}
