//! Chrome trace-event JSON export.
//!
//! Renders event streams in the [Trace Event Format] consumed by Perfetto
//! and `chrome://tracing`. One renderer serves two entry points, which
//! differ only in where a stream draws:
//!
//! * [`chrome_trace`] — one whole-cluster stream (a simulation). **pid 0**
//!   is the cluster: rounds on tid 0 and rebuilds/scrubs on tid 1 as
//!   nested `B`/`E` slices, each wrapping one slice per phase, so the
//!   Capture→Transfer→Fold→Commit decomposition reads off the timeline.
//!   **pid n+1** is physical node *n*: its transfers as `X` complete
//!   slices (one track per destination, `→ node m`), and every other
//!   event naming it as an `i` instant on tid 0.
//! * [`merge_node_traces`] — one scraped ring tail per live node, each on
//!   its own **pid node+1** (rounds tid 0, rebuilds tid 1, instants
//!   tid 2), rebased onto one time axis.
//!
//! Which events pair into slices is [`crate::spans`]' table; every event
//! that opens or closes nothing renders as an instant whose `cat` and
//! `args` come from its declaration in `events!`. A terminator whose
//! opener is missing (a ring that wrapped) is such an instant, and a span
//! still open when the stream ends closes at its right edge, so `B`/`E`
//! always balance per track.
//!
//! A `M` metadata record names every process/track, and caller-supplied
//! run metadata (RNG seed, config) lands in `otherData`. Everything is
//! rendered through the deterministic `serde::Value` tree, so equal
//! event streams produce byte-identical JSON.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::{BTreeMap, BTreeSet};

use serde::Value;

use crate::event::{Arg, NO_TOKEN};
use crate::spans::{Edge, End, Span, SpanFold};
use crate::{Event, TimedEvent};

use dvdc_simcore::time::SimTime;

/// The cluster process of a whole-cluster trace.
const CLUSTER_PID: u64 = 0;
/// Round slices, on any process that draws them.
const ROUNDS_TID: u64 = 0;
/// Rebuild/scrub slices, on any process that draws them.
const REBUILDS_TID: u64 = 1;
/// Instants, on a process that also draws rounds and rebuilds.
const EVENTS_TID: u64 = 2;

/// Physical node `n` renders as process `n + 1`.
fn node_pid(node: usize) -> u64 {
    node as u64 + 1
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

/// One track of the trace, named in the metadata pass.
struct Track {
    pid: u64,
    tid: u64,
    name: String,
}

/// Where one event stream draws.
#[derive(Clone, Copy)]
enum Lane {
    /// A whole-cluster stream: rounds and rebuilds on the cluster
    /// process, everything else on the process of the node it names.
    Cluster,
    /// One node's tail: everything on that node's process.
    Node(u64),
}

impl Lane {
    /// The track instants draw on for an event naming `node`, and
    /// whether they mark the whole process (`p`) or that thread (`t`).
    fn instants(self, node: Option<usize>) -> (Track, &'static str) {
        let (pid, tid, name, scope) = match (self, node) {
            (Lane::Node(pid), _) => (pid, EVENTS_TID, "events", "t"),
            (Lane::Cluster, Some(node)) => (node_pid(node), 0, "events", "p"),
            // Cluster-wide instants (a scrub summary) sit beside the
            // rebuild/scrub slices.
            (Lane::Cluster, None) => (CLUSTER_PID, REBUILDS_TID, "rebuilds", "p"),
        };
        let name = name.to_owned();
        (Track { pid, tid, name }, scope)
    }

    /// The track a span draws on: transfers on one track per destination
    /// after the sender's instants, rounds and rebuilds on their own.
    fn track(self, span: &Span) -> Track {
        let pid = match self {
            Lane::Cluster => CLUSTER_PID,
            Lane::Node(pid) => pid,
        };
        let (tid, name) = match span.opener {
            Event::TransferLaunched { from, to, .. } => {
                let (events, _) = self.instants(Some(from));
                return Track {
                    tid: events.tid + 1 + to as u64,
                    name: format!("\u{2192} node{to}"),
                    ..events
                };
            }
            Event::RebuildBegin { .. } | Event::RebuildPhase { .. } => (REBUILDS_TID, "rebuilds"),
            _ => (ROUNDS_TID, "rounds"),
        };
        let name = name.to_owned();
        Track { pid, tid, name }
    }
}

/// The slice name of a span.
fn label(span: &Span) -> String {
    match span.opener {
        Event::RoundBegin { epoch } => format!("round {epoch}"),
        Event::RebuildBegin { victim, mode, .. } => format!("rebuild node{victim} ({mode})"),
        Event::TransferLaunched { from, to, .. } => format!("xfer node{from} \u{2192} node{to}"),
        Event::RoundPhase { phase, .. } | Event::RebuildPhase { phase, .. } => phase.to_owned(),
        other => other.name().to_owned(),
    }
}

/// Argument fields for rendering any event generically: a walk over the
/// event's own field list, so a new [`Event`] variant needs no line here.
fn event_args(event: &Event) -> Vec<(&'static str, Value)> {
    event
        .fields()
        .into_iter()
        // A launch without a fence token renders no `token_epoch` arg.
        .filter(|&(name, arg)| (name, arg) != ("token_epoch", Arg::U64(NO_TOKEN)))
        .map(|(name, arg)| match arg {
            Arg::U64(v) => (name, Value::U64(v)),
            Arg::Str(s) => (name, Value::Str(s.to_owned())),
        })
        .collect()
}

fn args(entries: Vec<(&'static str, Value)>) -> (&'static str, Value) {
    ("args", obj(entries))
}

/// The trace under construction: rendered records, plus every track that
/// appeared, for the metadata pass.
#[derive(Default)]
struct Trace {
    out: Vec<Value>,
    threads: BTreeMap<(u64, u64), String>,
}

impl Trace {
    fn push(
        &mut self,
        ph: &str,
        name: &str,
        cat: &str,
        ts: Value,
        track: Track,
        extra: Vec<(&str, Value)>,
    ) {
        let mut entries = vec![
            ("name", Value::Str(name.to_owned())),
            ("cat", Value::Str(cat.to_owned())),
            ("ph", Value::Str(ph.to_owned())),
            ("ts", ts),
            ("pid", Value::U64(track.pid)),
            ("tid", Value::U64(track.tid)),
        ];
        entries.extend(extra);
        self.out.push(obj(entries));
        self.threads
            .entry((track.pid, track.tid))
            .or_insert(track.name);
    }

    /// Renders one stream on `lane` through a fresh span fold. `ts` maps
    /// the stream's clock onto the trace axis; spans still open when the
    /// stream ends close at `right_edge`.
    fn stream(
        &mut self,
        lane: Lane,
        events: &[TimedEvent],
        right_edge: SimTime,
        ts: impl Fn(SimTime) -> Value,
    ) {
        let mut spans = SpanFold::new(events.len().max(1));
        for te in events {
            let event = &te.event;
            let mut named = event.lane();
            let mut drew = false;
            for edge in spans.observe(te.at, event) {
                match edge {
                    // A transfer draws once, as a whole, when it closes.
                    Edge::Open(span) => {
                        drew = true;
                        if !matches!(event, Event::TransferLaunched { .. }) {
                            let fields = vec![args(event_args(event))];
                            let track = lane.track(&span);
                            self.push(
                                "B",
                                &label(&span),
                                event.category(),
                                ts(te.at),
                                track,
                                fields,
                            );
                        }
                    }
                    Edge::Close(span, end) => {
                        drew = true;
                        let by = (end == End::Terminated).then_some(event);
                        self.close(lane, &span, end, by, te.at, &ts);
                    }
                    Edge::Within(span) => named = named.or(span.opener.lane()),
                    Edge::Unpaired => {}
                }
            }
            if !drew {
                let (track, scope) = lane.instants(named);
                let fields = vec![("s", Value::Str(scope.to_owned())), args(event_args(event))];
                self.push(
                    "i",
                    event.name(),
                    event.category(),
                    ts(te.at),
                    track,
                    fields,
                );
            }
        }
        for span in spans.drain() {
            self.close(lane, &span, End::Open, None, right_edge, &ts);
        }
    }

    /// Ends a span at `at`: the `E` of a slice begun with `B`, or the
    /// whole `X` slice of a transfer. `by` is its terminator, if it had
    /// one; a phase simply ends.
    fn close(
        &mut self,
        lane: Lane,
        span: &Span,
        end: End,
        by: Option<&Event>,
        at: SimTime,
        ts: &impl Fn(SimTime) -> Value,
    ) {
        let outcome = match (end, by) {
            (End::Followed, _) => None,
            (_, Some(by)) => Some(by.name()),
            (End::Superseded, _) => Some("superseded"),
            (End::Evicted, _) => Some("evicted"),
            _ => Some("open"),
        };
        let outcome = outcome.map(|o| ("outcome", Value::Str(o.to_owned())));
        let cat = span.opener.category();
        let track = lane.track(span);
        if matches!(span.opener, Event::TransferLaunched { .. }) {
            let dur = (at.as_secs() - span.start.as_secs()).max(0.0) * 1e6;
            let mut detail = event_args(&span.opener);
            detail.extend(outcome);
            let fields = vec![("dur", Value::F64(dur)), args(detail)];
            self.push("X", &label(span), cat, ts(span.start), track, fields);
        } else {
            let mut detail = by.map(event_args).unwrap_or_default();
            detail.extend(outcome);
            let fields = if detail.is_empty() {
                vec![]
            } else {
                vec![args(detail)]
            };
            self.push("E", "", cat, ts(at), track, fields);
        }
    }

    /// Prepends the metadata records — a name for every process in
    /// `pids` or with a track, and for every track — and wraps the
    /// envelope.
    fn finish(self, mut pids: BTreeSet<u64>, other_data: Vec<(String, Value)>) -> Value {
        let meta = |name: &str, pid: u64, tid: u64, value: String| {
            obj(vec![
                ("name", Value::Str(name.to_owned())),
                ("ph", Value::Str("M".to_owned())),
                ("pid", Value::U64(pid)),
                ("tid", Value::U64(tid)),
                ("args", obj(vec![("name", Value::Str(value))])),
            ])
        };
        pids.extend(self.threads.keys().map(|&(pid, _)| pid));
        let mut records: Vec<Value> = pids
            .into_iter()
            .map(|pid| {
                let name = match pid {
                    CLUSTER_PID => "cluster".to_owned(),
                    node => format!("node{}", node - 1),
                };
                meta("process_name", pid, 0, name)
            })
            .collect();
        for ((pid, tid), name) in self.threads {
            records.push(meta("thread_name", pid, tid, name));
        }
        records.extend(self.out);
        Value::Object(vec![
            ("traceEvents".to_owned(), Value::Array(records)),
            ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
            ("otherData".to_owned(), Value::Object(other_data)),
        ])
    }
}

/// Builds the full trace envelope of one whole-cluster stream as a
/// `Value` tree. See [`chrome_trace`] for the rendered form.
pub fn chrome_trace_value(events: &[TimedEvent], other_data: &[(String, Value)]) -> Value {
    let mut trace = Trace::default();
    // The rounds track is named even in a trace without rounds.
    trace
        .threads
        .insert((CLUSTER_PID, ROUNDS_TID), "rounds".to_owned());
    let edge = events.last().map_or(SimTime::ZERO, |te| te.at);
    trace.stream(Lane::Cluster, events, edge, |at| {
        Value::F64(at.as_secs() * 1e6)
    });
    trace.finish(BTreeSet::new(), other_data.to_vec())
}

/// Renders the trace envelope as JSON text. `other_data` entries (RNG
/// seed, config description, …) are embedded verbatim under `otherData`.
pub fn chrome_trace(events: &[TimedEvent], other_data: &[(String, Value)]) -> String {
    render(chrome_trace_value(events, other_data))
}

/// One node's scraped trace-ring tail, as fetched by
/// `Msg::TraceTailReq`/`TraceTailResp`: the node's identity, its clock
/// reading *at scrape time*, and the buffered events (oldest first).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeTail {
    /// Node index (becomes the trace pid lane).
    pub node: usize,
    /// The node's own clock when the tail was scraped. Each daemon's
    /// clock starts at its own process start, so these anchors — all
    /// sampled at (nearly) the same wall instant by the scraper — are
    /// what lets the merge rebase every node onto one axis.
    pub now: SimTime,
    /// Older events evicted from the ring before the scrape.
    pub dropped: u64,
    /// The buffered tail, oldest first.
    pub events: Vec<TimedEvent>,
}

/// Merges the scraped trace tails of several live nodes into one
/// Chrome/Perfetto trace `Value` tree: one pid lane per node (`pid =
/// node + 1`), rounds and their phases as `B`/`E` slices on tid 0,
/// rebuilds on tid 1, everything else as instants on tid 2.
///
/// Each daemon's clock is anchored at its own process start, so raw
/// timestamps from different nodes do not line up. The scraper samples
/// every node's `now` at (nearly) the same wall instant; the merge
/// rebases each event to `at - now + max(now)`, aligning the scrape
/// instants at the right edge, where slices still open at the scrape
/// close. Epoch numbers in slice `args` then correlate the same round
/// across node lanes.
///
/// Output is deterministic: tails are processed in ascending node order
/// and every map is ordered, so a fixed input yields byte-identical JSON
/// regardless of the order `tails` is supplied in.
pub fn merge_node_traces_value(tails: &[NodeTail], other_data: &[(String, Value)]) -> Value {
    let mut sorted: Vec<&NodeTail> = tails.iter().collect();
    sorted.sort_by_key(|t| t.node);
    sorted.dedup_by_key(|t| t.node);
    let max_now = sorted
        .iter()
        .map(|t| t.now.as_secs())
        .fold(0.0f64, f64::max);

    let mut trace = Trace::default();
    for tail in &sorted {
        let lane = Lane::Node(node_pid(tail.node));
        trace.stream(lane, &tail.events, tail.now, |at| {
            Value::F64((at.as_secs() - tail.now.as_secs() + max_now) * 1e6)
        });
    }

    let mut other = other_data.to_vec();
    other.push((
        "dropped_per_node".to_owned(),
        Value::Object(
            sorted
                .iter()
                .map(|t| (format!("node{}", t.node), Value::U64(t.dropped)))
                .collect(),
        ),
    ));
    let pids = sorted.iter().map(|t| node_pid(t.node)).collect();
    trace.finish(pids, other)
}

/// [`merge_node_traces_value`] rendered as JSON text.
pub fn merge_node_traces(tails: &[NodeTail], other_data: &[(String, Value)]) -> String {
    render(merge_node_traces_value(tails, other_data))
}

/// The vendored `serde_json` renders through `Serialize`, which `Value`
/// itself does not implement.
fn render(value: Value) -> String {
    struct Wrap(Value);
    impl serde::Serialize for Wrap {
        fn to_value(&self) -> Value {
            self.0.clone()
        }
    }
    serde_json::to_string_pretty(&Wrap(value)).expect("rendering is total")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, TraceRecorder};

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn round_with_phases_nests_and_closes() {
        let rec = TraceRecorder::unbounded();
        rec.record(t(1.0), &Event::RoundBegin { epoch: 3 });
        rec.record(
            t(1.0),
            &Event::RoundPhase {
                epoch: 3,
                phase: "Capture",
            },
        );
        rec.record(
            t(1.5),
            &Event::RoundPhase {
                epoch: 3,
                phase: "Transfer",
            },
        );
        rec.record(t(2.0), &Event::RoundCommitted { epoch: 3 });
        let json = chrome_trace(&rec.events(), &[]);
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("round 3"));
        assert!(json.contains("Capture"));
        assert!(json.contains("Transfer"));
        // 2 B(phase) + 1 B(round) balanced by 2 E(phase) + 1 E(round).
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 3);
    }

    #[test]
    fn transfer_becomes_complete_slice_with_duration() {
        let rec = TraceRecorder::unbounded();
        rec.record(
            t(1.0),
            &Event::TransferLaunched {
                id: 9,
                from: 2,
                to: 5,
                bytes: 4096,
                token_epoch: 0,
            },
        );
        rec.record(
            t(1.25),
            &Event::TransferArrived {
                id: 9,
                from: 2,
                to: 5,
                bytes: 4096,
            },
        );
        let json = chrome_trace(&rec.events(), &[]);
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"dur\": 250000.0"));
        assert!(json.contains("xfer node2 \u{2192} node5"));
        assert!(json.contains("\"bytes\": 4096"));
    }

    fn tail(node: usize, now: f64, events: Vec<(f64, Event)>) -> NodeTail {
        NodeTail {
            node,
            now: t(now),
            dropped: 0,
            events: events
                .into_iter()
                .enumerate()
                .map(|(seq, (at, event))| TimedEvent {
                    at: t(at),
                    seq: seq as u64,
                    event,
                })
                .collect(),
        }
    }

    #[test]
    fn merged_trace_rebases_clocks_and_is_input_order_invariant() {
        // Node 0 started 1s before node 2: its clock reads 5.0 at the
        // scrape instant where node 2's reads 4.0. The same round-7
        // commit happened at the same wall instant on both.
        let a = tail(
            0,
            5.0,
            vec![
                (3.0, Event::RoundBegin { epoch: 7 }),
                (4.0, Event::RoundCommitted { epoch: 7 }),
            ],
        );
        let b = tail(
            2,
            4.0,
            vec![
                (2.0, Event::RoundBegin { epoch: 7 }),
                (3.0, Event::RoundCommitted { epoch: 7 }),
                (3.5, Event::Suspected { node: 1 }),
            ],
        );
        let fwd = merge_node_traces(&[a.clone(), b.clone()], &[]);
        let rev = merge_node_traces(&[b, a], &[]);
        assert_eq!(fwd, rev, "merge must not depend on scrape order");
        // Both commits land at the same rebased instant (4.0s = 4e6 us).
        assert_eq!(fwd.matches("\"ts\": 4000000.0").count(), 2);
        // One pid lane per node, named.
        assert!(fwd.contains("\"name\": \"node0\""));
        assert!(fwd.contains("\"name\": \"node2\""));
        assert!(fwd.contains("\"suspected\""));
        assert!(fwd.contains("\"dropped_per_node\""));
    }

    #[test]
    fn merged_trace_is_deterministic_and_closes_truncated_spans() {
        // A commit whose begin fell out of the ring must not emit an
        // unbalanced E; an open round at scrape time is closed at the
        // right edge.
        let tails = [
            tail(1, 2.0, vec![(1.0, Event::RoundCommitted { epoch: 3 })]),
            tail(4, 2.0, vec![(1.5, Event::RoundBegin { epoch: 4 })]),
        ];
        let one = merge_node_traces(&tails, &[]);
        let two = merge_node_traces(&tails, &[]);
        assert_eq!(one, two, "fixed input must render byte-identically");
        let begins = one.matches("\"ph\": \"B\"").count();
        let ends = one.matches("\"ph\": \"E\"").count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1, "open round closes at the scrape edge");
        assert!(
            one.contains("\"round_committed\""),
            "orphan commit is an instant"
        );
    }

    #[test]
    fn event_args_follow_the_declaration_and_omit_a_missing_token() {
        let launch = |token_epoch| Event::TransferLaunched {
            id: 7,
            from: 0,
            to: 4,
            bytes: 4096,
            token_epoch,
        };
        let names = |e: &Event| -> Vec<&str> { event_args(e).iter().map(|a| a.0).collect() };
        assert_eq!(names(&launch(NO_TOKEN)), ["id", "from", "to", "bytes"]);
        assert_eq!(
            event_args(&launch(3)).last(),
            Some(&("token_epoch", Value::U64(3)))
        );
        assert_eq!(
            event_args(&Event::RebuildBegin {
                victim: 1,
                mode: "Failover",
                epoch: 3,
            }),
            [
                ("victim", Value::U64(1)),
                ("mode", Value::Str("Failover".to_owned())),
                ("epoch", Value::U64(3)),
            ]
        );
    }

    #[test]
    fn instants_and_metadata_round_trip() {
        let rec = TraceRecorder::unbounded();
        rec.record(t(0.5), &Event::Suspected { node: 4 });
        rec.record(t(0.6), &Event::Confirmed { node: 4 });
        rec.record(t(0.6), &Event::FenceRaised { node: 4, epoch: 1 });
        let json = chrome_trace(&rec.events(), &[("seed".to_owned(), Value::U64(42))]);
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("suspected"));
        assert!(json.contains("confirmed"));
        assert!(json.contains("fence_raised"));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("node4"));
        assert!(json.contains("\"seed\": 42"));
    }
}
