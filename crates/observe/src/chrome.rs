//! Chrome trace-event JSON export.
//!
//! Renders a recorded timeline in the [Trace Event Format] consumed by
//! Perfetto and `chrome://tracing`. The mapping:
//!
//! * **pid 0** is the cluster: rounds (tid 0) and rebuilds/scrubs
//!   (tid 1) as nested `B`/`E` duration slices — the round slice wraps
//!   one slice per phase, so the Capture→Transfer→Fold→Commit
//!   decomposition reads directly off the timeline.
//! * **pid n+1** is physical node *n*: transfers appear as `X` complete
//!   slices on the *sender's* process (one track per destination, named
//!   `→ node m`), with launch→arrival duration and byte counts in
//!   `args`; detector verdicts, fences, faults, corruption, and data
//!   loss are `i` instant events.
//! * A `M` metadata record names every process/track, and caller-supplied
//!   run metadata (RNG seed, config) lands in `otherData`.
//!
//! Everything is rendered through the deterministic `serde::Value` tree,
//! so equal event streams produce byte-identical JSON.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::collections::BTreeMap;

use serde::Value;

use crate::event::{Arg, NO_TOKEN};
use crate::{Event, TimedEvent};

use dvdc_simcore::time::SimTime;

/// Cluster-wide spans (rounds, rebuilds) live on this pid.
const CLUSTER_PID: u64 = 0;
/// Round slices on the cluster process.
const ROUNDS_TID: u64 = 0;
/// Rebuild/scrub slices on the cluster process.
const REBUILDS_TID: u64 = 1;

/// Physical node `n` renders as process `n + 1`.
fn node_pid(node: usize) -> u64 {
    node as u64 + 1
}

fn us(at: SimTime) -> Value {
    Value::F64(at.as_secs() * 1e6)
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn base(
    ph: &str,
    name: &str,
    cat: &str,
    ts: Value,
    pid: u64,
    tid: u64,
    mut extra: Vec<(&str, Value)>,
) -> Value {
    let mut entries = vec![
        ("name", Value::Str(name.to_owned())),
        ("cat", Value::Str(cat.to_owned())),
        ("ph", Value::Str(ph.to_owned())),
        ("ts", ts),
        ("pid", Value::U64(pid)),
        ("tid", Value::U64(tid)),
    ];
    entries.append(&mut extra);
    obj(entries)
}

fn args(entries: Vec<(&str, Value)>) -> (&'static str, Value) {
    ("args", obj(entries))
}

/// Tracks a launched transfer until its terminal event arrives.
#[derive(Clone, Copy)]
struct OpenTransfer {
    at: SimTime,
    from: usize,
    to: usize,
    bytes: usize,
    token_epoch: u64,
}

/// Builds the full trace envelope as a `Value` tree. See
/// [`chrome_trace`] for the rendered form.
pub fn chrome_trace_value(events: &[TimedEvent], other_data: &[(String, Value)]) -> Value {
    let mut out: Vec<Value> = Vec::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();
    threads.insert((CLUSTER_PID, ROUNDS_TID), "rounds".to_owned());
    let mut open_transfers: BTreeMap<u64, OpenTransfer> = BTreeMap::new();
    // (epoch, phase-slice-open) for the round track, ditto for rebuilds.
    let mut round_open: Option<(u64, bool)> = None;
    let mut rebuild_open: Option<(usize, bool)> = None;

    let instant = |out: &mut Vec<Value>,
                   threads: &mut BTreeMap<(u64, u64), String>,
                   at: SimTime,
                   name: &str,
                   cat: &str,
                   node: usize,
                   extra: Vec<(&str, Value)>| {
        let pid = node_pid(node);
        threads
            .entry((pid, 0))
            .or_insert_with(|| "events".to_owned());
        let mut fields = vec![("s", Value::Str("p".to_owned()))];
        fields.push(args(extra));
        out.push(base("i", name, cat, us(at), pid, 0, fields));
    };

    for te in events {
        let at = te.at;
        match te.event {
            Event::RoundBegin { epoch } => {
                out.push(base(
                    "B",
                    &format!("round {epoch}"),
                    "round",
                    us(at),
                    CLUSTER_PID,
                    ROUNDS_TID,
                    vec![args(vec![("epoch", Value::U64(epoch))])],
                ));
                round_open = Some((epoch, false));
            }
            Event::RoundPhase { epoch, phase } => {
                if let Some((_, phase_open)) = round_open.as_mut() {
                    if *phase_open {
                        out.push(base(
                            "E",
                            "",
                            "phase",
                            us(at),
                            CLUSTER_PID,
                            ROUNDS_TID,
                            vec![],
                        ));
                    }
                    *phase_open = true;
                }
                out.push(base(
                    "B",
                    phase,
                    "phase",
                    us(at),
                    CLUSTER_PID,
                    ROUNDS_TID,
                    vec![args(vec![("epoch", Value::U64(epoch))])],
                ));
            }
            Event::RoundCommitted { epoch } | Event::RoundAborted { epoch, .. } => {
                let outcome = match te.event {
                    Event::RoundCommitted { .. } => "committed",
                    _ => "aborted",
                };
                if let Some((_, phase_open)) = round_open.take() {
                    if phase_open {
                        out.push(base(
                            "E",
                            "",
                            "phase",
                            us(at),
                            CLUSTER_PID,
                            ROUNDS_TID,
                            vec![],
                        ));
                    }
                    out.push(base(
                        "E",
                        "",
                        "round",
                        us(at),
                        CLUSTER_PID,
                        ROUNDS_TID,
                        vec![args(vec![
                            ("epoch", Value::U64(epoch)),
                            ("outcome", Value::Str(outcome.to_owned())),
                        ])],
                    ));
                }
            }
            Event::RebuildBegin {
                victim,
                mode,
                epoch,
            } => {
                threads
                    .entry((CLUSTER_PID, REBUILDS_TID))
                    .or_insert_with(|| "rebuilds".to_owned());
                out.push(base(
                    "B",
                    &format!("rebuild node{victim} ({mode})"),
                    "rebuild",
                    us(at),
                    CLUSTER_PID,
                    REBUILDS_TID,
                    vec![args(vec![
                        ("victim", Value::U64(victim as u64)),
                        ("mode", Value::Str(mode.to_owned())),
                        ("epoch", Value::U64(epoch)),
                    ])],
                ));
                rebuild_open = Some((victim, false));
            }
            Event::RebuildPhase { victim, phase } => {
                if let Some((_, phase_open)) = rebuild_open.as_mut() {
                    if *phase_open {
                        out.push(base(
                            "E",
                            "",
                            "rebuild-phase",
                            us(at),
                            CLUSTER_PID,
                            REBUILDS_TID,
                            vec![],
                        ));
                    }
                    *phase_open = true;
                }
                out.push(base(
                    "B",
                    phase,
                    "rebuild-phase",
                    us(at),
                    CLUSTER_PID,
                    REBUILDS_TID,
                    vec![args(vec![("victim", Value::U64(victim as u64))])],
                ));
            }
            Event::RebuildCompleted { victim } | Event::RebuildAborted { victim, .. } => {
                let outcome = match te.event {
                    Event::RebuildCompleted { .. } => "completed",
                    _ => "aborted",
                };
                if let Some((_, phase_open)) = rebuild_open.take() {
                    if phase_open {
                        out.push(base(
                            "E",
                            "",
                            "rebuild-phase",
                            us(at),
                            CLUSTER_PID,
                            REBUILDS_TID,
                            vec![],
                        ));
                    }
                    out.push(base(
                        "E",
                        "",
                        "rebuild",
                        us(at),
                        CLUSTER_PID,
                        REBUILDS_TID,
                        vec![args(vec![
                            ("victim", Value::U64(victim as u64)),
                            ("outcome", Value::Str(outcome.to_owned())),
                        ])],
                    ));
                }
            }
            Event::TransferLaunched {
                id,
                from,
                to,
                bytes,
                token_epoch,
            } => {
                open_transfers.insert(
                    id,
                    OpenTransfer {
                        at,
                        from,
                        to,
                        bytes,
                        token_epoch,
                    },
                );
            }
            Event::TransferArrived { id, .. }
            | Event::TransferFenced { id, .. }
            | Event::TransferDropped { id, .. } => {
                let outcome = match te.event {
                    Event::TransferArrived { .. } => "arrived",
                    Event::TransferFenced { .. } => "fenced",
                    _ => "dropped",
                };
                if let Some(open) = open_transfers.remove(&id) {
                    let pid = node_pid(open.from);
                    let tid = open.to as u64 + 1;
                    threads
                        .entry((pid, tid))
                        .or_insert_with(|| format!("\u{2192} node{}", open.to));
                    let dur = te.at.as_secs() - open.at.as_secs();
                    let mut fields = vec![("dur", Value::F64(dur * 1e6))];
                    let mut arg_fields = vec![
                        ("id", Value::U64(id)),
                        ("bytes", Value::U64(open.bytes as u64)),
                        ("outcome", Value::Str(outcome.to_owned())),
                    ];
                    if open.token_epoch != NO_TOKEN {
                        arg_fields.push(("token_epoch", Value::U64(open.token_epoch)));
                    }
                    fields.push(args(arg_fields));
                    out.push(base(
                        "X",
                        &format!("xfer node{} \u{2192} node{}", open.from, open.to),
                        "transfer",
                        us(open.at),
                        pid,
                        tid,
                        fields,
                    ));
                }
            }
            Event::TransferRetried { id, attempt } => {
                if let Some(open) = open_transfers.get(&id).copied() {
                    instant(
                        &mut out,
                        &mut threads,
                        at,
                        "transfer_retry",
                        "transfer",
                        open.from,
                        vec![
                            ("id", Value::U64(id)),
                            ("attempt", Value::U64(attempt as u64)),
                        ],
                    );
                }
            }
            Event::HeartbeatArrived { node } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "heartbeat",
                    "detector",
                    node,
                    vec![],
                );
            }
            Event::Suspected { node } | Event::Confirmed { node } | Event::Refuted { node } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    te.event.name(),
                    "detector",
                    node,
                    vec![],
                );
            }
            Event::FenceRaised { node, epoch } | Event::FenceReadmitted { node, epoch } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    te.event.name(),
                    "fence",
                    node,
                    vec![("epoch", Value::U64(epoch))],
                );
            }
            Event::ScrubCompleted {
                verified,
                corrupt,
                repaired,
            } => {
                threads
                    .entry((CLUSTER_PID, REBUILDS_TID))
                    .or_insert_with(|| "rebuilds".to_owned());
                out.push(base(
                    "i",
                    "scrub_completed",
                    "scrub",
                    us(at),
                    CLUSTER_PID,
                    REBUILDS_TID,
                    vec![
                        ("s", Value::Str("p".to_owned())),
                        args(vec![
                            ("verified", Value::U64(verified as u64)),
                            ("corrupt", Value::U64(corrupt as u64)),
                            ("repaired", Value::U64(repaired as u64)),
                        ]),
                    ],
                ));
            }
            Event::CorruptionInjected { node, blocks } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "corruption_injected",
                    "fault",
                    node,
                    vec![("blocks", Value::U64(blocks as u64))],
                );
            }
            Event::DataLoss { node, group } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "data_loss",
                    "loss",
                    node,
                    vec![("group", Value::U64(group as u64))],
                );
            }
            Event::SessionEstablished { peer } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "session_established",
                    "session",
                    peer,
                    vec![],
                );
            }
            Event::SessionRejected {
                peer,
                required_epoch,
            } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "session_rejected",
                    "session",
                    peer,
                    vec![("required_epoch", Value::U64(required_epoch))],
                );
            }
            Event::StaleDropped {
                from,
                held_epoch,
                current_epoch,
            } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "stale_dropped",
                    "session",
                    from,
                    vec![
                        ("held_epoch", Value::U64(held_epoch)),
                        ("current_epoch", Value::U64(current_epoch)),
                    ],
                );
            }
            Event::PayloadDropped { from } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "payload_dropped",
                    "payload",
                    from,
                    vec![],
                );
            }
            Event::ResyncServed { peer } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "resync_served",
                    "session",
                    peer,
                    vec![],
                );
            }
            Event::FaultInjected { node, kind } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "fault_injected",
                    "fault",
                    node,
                    vec![("kind", Value::Str(kind.to_owned()))],
                );
            }
            Event::NodeHealed { node } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "node_healed",
                    "fault",
                    node,
                    vec![],
                );
            }
            Event::JobRestarted { node } => {
                instant(
                    &mut out,
                    &mut threads,
                    at,
                    "job_restarted",
                    "loss",
                    node,
                    vec![],
                );
            }
        }
    }

    // Metadata records: name every process and track that appeared.
    let mut meta: Vec<Value> = Vec::new();
    let mut pids: Vec<u64> = threads.keys().map(|&(pid, _)| pid).collect();
    pids.dedup();
    for pid in pids {
        let name = if pid == CLUSTER_PID {
            "cluster".to_owned()
        } else {
            format!("node{}", pid - 1)
        };
        meta.push(obj(vec![
            ("name", Value::Str("process_name".to_owned())),
            ("ph", Value::Str("M".to_owned())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            ("args", obj(vec![("name", Value::Str(name))])),
        ]));
    }
    for (&(pid, tid), name) in &threads {
        meta.push(obj(vec![
            ("name", Value::Str("thread_name".to_owned())),
            ("ph", Value::Str("M".to_owned())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", obj(vec![("name", Value::Str(name.clone()))])),
        ]));
    }
    meta.append(&mut out);

    Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(meta)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ("otherData".to_owned(), Value::Object(other_data.to_vec())),
    ])
}

/// Renders the trace envelope as JSON text. `other_data` entries (RNG
/// seed, config description, …) are embedded verbatim under `otherData`.
pub fn chrome_trace(events: &[TimedEvent], other_data: &[(String, Value)]) -> String {
    serde_json::to_string_pretty(&ValueWrap(chrome_trace_value(events, other_data)))
        .expect("rendering is total")
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

/// Argument fields for rendering any event generically (instant
/// `args`): a walk over the event's own field list, so a new [`Event`]
/// variant needs no line here.
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

/// Merges the scraped trace tails of several live nodes into one
/// Chrome/Perfetto trace `Value` tree: one pid lane per node (`pid =
/// node + 1`), rounds as `B`/`E` slices on tid 0, rebuilds on tid 1,
/// everything else as instants on tid 2.
///
/// Each daemon's clock is anchored at its own process start, so raw
/// timestamps from different nodes do not line up. The scraper samples
/// every node's `now` at (nearly) the same wall instant; the merge
/// rebases each event to `at - now + max(now)`, aligning the scrape
/// instants at the right edge. Epoch numbers in slice `args` then
/// correlate the same round across node lanes.
///
/// Output is deterministic: tails are processed in ascending node order
/// and every map is a `BTreeMap`, so a fixed input yields byte-identical
/// JSON regardless of the order `tails` is supplied in.
pub fn merge_node_traces_value(tails: &[NodeTail], other_data: &[(String, Value)]) -> Value {
    let mut sorted: Vec<&NodeTail> = tails.iter().collect();
    sorted.sort_by_key(|t| t.node);
    sorted.dedup_by_key(|t| t.node);
    let max_now = sorted
        .iter()
        .map(|t| t.now.as_secs())
        .fold(0.0f64, f64::max);

    const ROUNDS: u64 = 0;
    const REBUILDS: u64 = 1;
    const INSTANTS: u64 = 2;

    let mut out: Vec<Value> = Vec::new();
    let mut threads: BTreeMap<(u64, u64), String> = BTreeMap::new();

    for tail in &sorted {
        let pid = node_pid(tail.node);
        let rebase = |at: SimTime| Value::F64((at.as_secs() - tail.now.as_secs() + max_now) * 1e6);
        let mut round_open = false;
        let mut rebuild_open = false;
        for te in &tail.events {
            let ts = rebase(te.at);
            let arg_fields = event_args(&te.event);
            match te.event {
                Event::RoundBegin { epoch } => {
                    if round_open {
                        out.push(base("E", "", "round", ts.clone(), pid, ROUNDS, vec![]));
                    }
                    threads
                        .entry((pid, ROUNDS))
                        .or_insert_with(|| "rounds".to_owned());
                    out.push(base(
                        "B",
                        &format!("round {epoch}"),
                        "round",
                        ts,
                        pid,
                        ROUNDS,
                        vec![args(arg_fields)],
                    ));
                    round_open = true;
                }
                Event::RoundCommitted { .. } | Event::RoundAborted { .. } => {
                    if round_open {
                        out.push(base(
                            "E",
                            "",
                            "round",
                            ts,
                            pid,
                            ROUNDS,
                            vec![args(arg_fields)],
                        ));
                        round_open = false;
                    } else {
                        // Begin fell out of the ring; keep the commit as
                        // an instant rather than an unbalanced E.
                        threads
                            .entry((pid, INSTANTS))
                            .or_insert_with(|| "events".to_owned());
                        out.push(base(
                            "i",
                            te.event.name(),
                            "round",
                            ts,
                            pid,
                            INSTANTS,
                            vec![("s", Value::Str("t".to_owned())), args(arg_fields)],
                        ));
                    }
                }
                Event::RebuildBegin { victim, mode, .. } => {
                    if rebuild_open {
                        out.push(base("E", "", "rebuild", ts.clone(), pid, REBUILDS, vec![]));
                    }
                    threads
                        .entry((pid, REBUILDS))
                        .or_insert_with(|| "rebuilds".to_owned());
                    out.push(base(
                        "B",
                        &format!("rebuild node{victim} ({mode})"),
                        "rebuild",
                        ts,
                        pid,
                        REBUILDS,
                        vec![args(arg_fields)],
                    ));
                    rebuild_open = true;
                }
                Event::RebuildCompleted { .. } | Event::RebuildAborted { .. } => {
                    if rebuild_open {
                        out.push(base(
                            "E",
                            "",
                            "rebuild",
                            ts,
                            pid,
                            REBUILDS,
                            vec![args(arg_fields)],
                        ));
                        rebuild_open = false;
                    } else {
                        threads
                            .entry((pid, INSTANTS))
                            .or_insert_with(|| "events".to_owned());
                        out.push(base(
                            "i",
                            te.event.name(),
                            "rebuild",
                            ts,
                            pid,
                            INSTANTS,
                            vec![("s", Value::Str("t".to_owned())), args(arg_fields)],
                        ));
                    }
                }
                _ => {
                    threads
                        .entry((pid, INSTANTS))
                        .or_insert_with(|| "events".to_owned());
                    out.push(base(
                        "i",
                        te.event.name(),
                        te.event.name(),
                        ts,
                        pid,
                        INSTANTS,
                        vec![("s", Value::Str("t".to_owned())), args(arg_fields)],
                    ));
                }
            }
        }
        // Close any slice still open at the scrape instant at the ruler's
        // right edge, so in-flight rounds render with real extent.
        let edge = Value::F64(max_now * 1e6);
        if round_open {
            out.push(base("E", "", "round", edge.clone(), pid, ROUNDS, vec![]));
        }
        if rebuild_open {
            out.push(base("E", "", "rebuild", edge, pid, REBUILDS, vec![]));
        }
    }

    // Metadata: name each node's process lane and its tracks.
    let mut meta: Vec<Value> = Vec::new();
    for tail in &sorted {
        let pid = node_pid(tail.node);
        meta.push(obj(vec![
            ("name", Value::Str("process_name".to_owned())),
            ("ph", Value::Str("M".to_owned())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(0)),
            (
                "args",
                obj(vec![("name", Value::Str(format!("node{}", tail.node)))]),
            ),
        ]));
    }
    for (&(pid, tid), name) in &threads {
        meta.push(obj(vec![
            ("name", Value::Str("thread_name".to_owned())),
            ("ph", Value::Str("M".to_owned())),
            ("pid", Value::U64(pid)),
            ("tid", Value::U64(tid)),
            ("args", obj(vec![("name", Value::Str(name.clone()))])),
        ]));
    }
    meta.append(&mut out);

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

    Value::Object(vec![
        ("traceEvents".to_owned(), Value::Array(meta)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
        ("otherData".to_owned(), Value::Object(other)),
    ])
}

/// [`merge_node_traces_value`] rendered as JSON text.
pub fn merge_node_traces(tails: &[NodeTail], other_data: &[(String, Value)]) -> String {
    serde_json::to_string_pretty(&ValueWrap(merge_node_traces_value(tails, other_data)))
        .expect("rendering is total")
}

/// The vendored `serde_json` renders through `Serialize`; `Value` itself
/// does not implement it, so wrap.
struct ValueWrap(Value);

impl serde::Serialize for ValueWrap {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
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
