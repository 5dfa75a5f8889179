//! The benchmark's own clock and span log. Spans are recorded around the
//! calls into the program, kept in memory and written once at exit as a
//! Chrome/Perfetto trace.

use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;
use crate::stats::self_time;

/// Seconds since the benchmark first asked for the time. One origin for the
/// client thread and every node thread, so their stamps share an axis.
pub fn now_s() -> f64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_secs_f64()
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The operation (round epoch, arc or sim run) every span of one request
    /// shares.
    pub op: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

#[derive(Debug, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        start_s: f64,
        end_s: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            op,
            parent,
            start_s,
            end_s,
        });
        self.spans.len() - 1
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_s - s.start_s) * 1e3)
            .collect()
    }

    /// Own time in milliseconds of every span called `name`: its duration
    /// minus what its child spans cover.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(id, s)| {
                let children: Vec<(f64, f64)> = self
                    .spans
                    .iter()
                    .filter(|c| c.parent == Some(id))
                    .map(|c| (c.start_s, c.end_s))
                    .collect();
                self_time((s.start_s, s.end_s), &children) * 1e3
            })
            .collect()
    }

    /// Complete events on one track: the viewer nests a child under the
    /// request span that contains it in time.
    pub fn to_chrome(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("cat", Json::str("benchmark")),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_s * 1e6)),
                    ("dur", Json::Num((s.end_s - s.start_s) * 1e6)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(1.0)),
                    (
                        "args",
                        Json::obj([
                            ("span", Json::Num(id as f64)),
                            ("op", Json::Num(s.op as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::str("ms")),
            ("traceEvents", Json::Arr(events)),
        ])
    }

    pub fn write_chrome(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.to_chrome().render())
            .map_err(|e| format!("cannot write trace {}: {e}", path.display()))
    }
}
