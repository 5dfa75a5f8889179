//! The metrics registry.
//!
//! A live `dvdc-node` daemon cannot afford an unbounded event buffer and
//! must answer "what is your round latency" while running, from many
//! threads at once; a simulation folds its recorded timeline into the
//! same registry after the fact ([`crate::metrics`]). This module
//! provides:
//!
//! * [`MetricsHub`] — a cheaply clonable handle, either live or a no-op.
//!   Instrument sites resolve their [`Counter`]/[`Gauge`]/[`HistogramHandle`]
//!   once (registration takes a short-lived lock) and the hot path is
//!   then a single `Option` branch plus a relaxed atomic — the same
//!   attached-but-off ≡ baseline discipline the recorder and buggify
//!   layers keep; `benchmark` reports what attaching a live hub costs a
//!   round as `observe.registry.trace_overhead_frac`.
//! * [`LogHistogram`] — a fixed array of 65 log₂ buckets over `u64`
//!   samples (nanoseconds by convention). Bounded memory regardless of
//!   sample count, mergeable across nodes, and quantile extraction
//!   (p50/p95/p99) off the bucket counts.
//! * [`MetricsSnapshot`] / [`HistSnapshot`] — plain-data snapshots that
//!   travel over the ctl wire (`Msg::MetricsResp`) and render as JSON or
//!   a human table.
//! * [`nanos_between`] — the one conversion from two instants on the
//!   [`SimTime`] axis (the sim's seconds, or a daemon's wall clock mapped
//!   onto it) to the nanoseconds a histogram records.
//!
//! Everything here is `std` atomics behind `Arc` — no locks on the hot
//! path, no unsafe.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use serde::Value;

use dvdc_simcore::time::SimTime;

/// Number of log₂ buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i)`, up to bucket 64 holding
/// `[2^63, u64::MAX]`.
pub const HIST_BUCKETS: usize = 65;

// ---------------------------------------------------------------------
// Instants to nanoseconds
// ---------------------------------------------------------------------

/// Nanoseconds from `from` to `to`. Each instant is first truncated to
/// whole nanoseconds since the axis origin (the float-to-int cast
/// saturates at `u64::MAX`); a span whose clock ran backwards is 0.
pub fn nanos_between(from: SimTime, to: SimTime) -> u64 {
    let nanos = |t: SimTime| (t.as_secs() * 1e9) as u64;
    nanos(to).saturating_sub(nanos(from))
}

// ---------------------------------------------------------------------
// String interner (wire-decoded &'static str fields)
// ---------------------------------------------------------------------

/// Interns `s` as a `&'static str`.
///
/// The event vocabulary uses `&'static str` phase/mode names; decoding a
/// [`crate::Event`] off the ctl wire needs to rebuild them. The interner
/// leaks each *distinct* string once, capped — a hostile peer streaming
/// unique names cannot grow the table without bound; past the cap every
/// unknown string collapses to `"?"`.
pub fn intern(s: &str) -> &'static str {
    const CAP: usize = 1024;
    static TABLE: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(Vec::new()));
    let mut table = table.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(hit) = table.iter().find(|k| **k == s) {
        return hit;
    }
    if table.len() >= CAP {
        return "?";
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    table.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// LogHistogram
// ---------------------------------------------------------------------

/// Bucket index of a sample: 0 for 0, else `⌊log₂ v⌋ + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive lower bound of bucket `i`.
pub fn bucket_lo(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// Exclusive upper bound of bucket `i` (`u64::MAX` for the last bucket,
/// inclusively).
pub fn bucket_hi(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        1u64 << i
    }
}

/// Representative value reported for bucket `i`: the geometric-ish
/// midpoint `1.5 · 2^(i-1)` (0 for the zero bucket), saturating at the
/// top.
fn bucket_mid(i: usize) -> u64 {
    match i {
        0 => 0,
        1 => 1,
        i if i >= 64 => u64::MAX / 2 + u64::MAX / 4,
        i => (1u64 << (i - 1)) + (1u64 << (i - 2)),
    }
}

/// Fixed-size log₂-bucket histogram over `u64` samples (nanoseconds by
/// convention). Recording is one relaxed `fetch_add` — safe from any
/// thread, bounded memory forever.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Plain-data snapshot (sparse: only non-empty buckets).
    pub fn snapshot(&self) -> HistSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((i as u8, n))
            })
            .collect();
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Plain-data snapshot of a [`LogHistogram`]: total count and sum plus
/// the sparse non-empty buckets, sorted by bucket index. Wire-friendly,
/// mergeable, and the unit quantiles are extracted from.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Total samples.
    pub count: u64,
    /// Sum of all samples (saturating on overflow is the recorder's
    /// problem; nanosecond latencies need ~580 years to get there).
    pub sum: u64,
    /// `(bucket index, sample count)`, ascending by index, empty buckets
    /// omitted.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnapshot {
    /// Merges another snapshot into this one. Bucket-wise addition —
    /// associative and commutative, and identical to having recorded
    /// both sample streams into one histogram (the proptest contract).
    pub fn merge(&mut self, other: &HistSnapshot) {
        self.count = self.count.wrapping_add(other.count);
        // Wrapping, like the atomic `fetch_add` it mirrors — keeps merge
        // exactly equal to single-histogram recording even at overflow.
        self.sum = self.sum.wrapping_add(other.sum);
        let mut map: BTreeMap<u8, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *map.entry(i).or_insert(0) += n;
        }
        self.buckets = map.into_iter().collect();
    }

    /// The value at quantile `q` in `[0, 1]`: the representative midpoint
    /// of the bucket where the cumulative count crosses `q · count`.
    /// Zero for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_mid(i as usize);
            }
        }
        bucket_mid(self.buckets.last().map(|&(i, _)| i as usize).unwrap_or(0))
    }

    /// Median (bucket-resolution).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket-resolution).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket-resolution).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean of the recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// JSON rendering: count, sum, mean, quantiles, and the sparse
    /// buckets as `[lo, hi, count]` triples. Deterministic ordering.
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            ("count".to_owned(), Value::U64(self.count)),
            ("sum".to_owned(), Value::U64(self.sum)),
            ("mean".to_owned(), Value::F64(self.mean())),
            ("p50".to_owned(), Value::U64(self.p50())),
            ("p95".to_owned(), Value::U64(self.p95())),
            ("p99".to_owned(), Value::U64(self.p99())),
            (
                "buckets".to_owned(),
                Value::Array(
                    self.buckets
                        .iter()
                        .map(|&(i, n)| {
                            Value::Array(vec![
                                Value::U64(bucket_lo(i as usize)),
                                Value::U64(bucket_hi(i as usize)),
                                Value::U64(n),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

// ---------------------------------------------------------------------
// Handles
// ---------------------------------------------------------------------

/// A monotonic counter handle. No-op (one branch) when the hub it came
/// from is disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    pub fn add(&self, n: u64) {
        if let Some(a) = &self.0 {
            a.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }
}

/// A signed gauge handle (e.g. a queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: i64) {
        if let Some(a) = &self.0 {
            a.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        if let Some(a) = &self.0 {
            a.fetch_add(d, Ordering::Relaxed);
        }
    }

    /// Current value (0 for a no-op handle).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |a| a.load(Ordering::Relaxed))
    }
}

/// A histogram handle.
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<LogHistogram>>);

impl HistogramHandle {
    /// Records one sample (nanoseconds by convention).
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

// ---------------------------------------------------------------------
// MetricsHub
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct HubInner {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<LogHistogram>>>,
}

/// The per-node metrics registry handle.
///
/// Clonable and thread-safe; [`MetricsHub::noop`] (also `Default`) is
/// the disabled hub whose handles cost one branch per operation.
/// Registration (`counter`/`gauge`/`histogram`) takes a short lock and
/// is meant for setup paths; the returned handles are lock-free.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub(Option<Arc<HubInner>>);

impl MetricsHub {
    /// A live hub.
    pub fn new() -> Self {
        MetricsHub(Some(Arc::new(HubInner::default())))
    }

    /// The disabled hub: every handle it hands out is a no-op.
    pub fn noop() -> Self {
        MetricsHub(None)
    }

    /// False for the no-op hub — instrument sites can skip building
    /// sample values entirely, mirroring [`crate::Recorder::enabled`].
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|inner| {
            let mut map = inner.counters.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry(name.to_owned()).or_default())
        }))
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|inner| {
            let mut map = inner.gauges.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry(name.to_owned()).or_default())
        }))
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.0.as_ref().map(|inner| {
            let mut map = inner.histograms.lock().unwrap_or_else(|p| p.into_inner());
            Arc::clone(map.entry(name.to_owned()).or_default())
        }))
    }

    /// A consistent-enough snapshot of every metric (each value is read
    /// with relaxed ordering; the set of names is exact). Names sort
    /// lexicographically, so equal registries render byte-identically.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(inner) = &self.0 else {
            return MetricsSnapshot::default();
        };
        let counters = inner
            .counters
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

// ---------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------

/// Point-in-time copy of a [`MetricsHub`]: what `Msg::MetricsResp`
/// carries and `dvdc-ctl metrics` renders. All vectors are sorted by
/// name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Gauges.
    pub gauges: Vec<(String, i64)>,
    /// Histograms.
    pub histograms: Vec<(String, HistSnapshot)>,
}

impl MetricsSnapshot {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.histograms
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    /// Merges another node's snapshot into this one: counters and
    /// histogram buckets add, gauges add (fleet-wide queue depth is the
    /// sum of per-node depths).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        let mut counters: BTreeMap<String, u64> = self.counters.drain(..).collect();
        for (k, v) in &other.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
        self.counters = counters.into_iter().collect();
        let mut gauges: BTreeMap<String, i64> = self.gauges.drain(..).collect();
        for (k, v) in &other.gauges {
            *gauges.entry(k.clone()).or_insert(0) += v;
        }
        self.gauges = gauges.into_iter().collect();
        let mut hists: BTreeMap<String, HistSnapshot> = self.histograms.drain(..).collect();
        for (k, h) in &other.histograms {
            hists.entry(k.clone()).or_default().merge(h);
        }
        self.histograms = hists.into_iter().collect();
    }

    /// JSON rendering (deterministic: everything is name-sorted).
    pub fn to_value(&self) -> Value {
        Value::Object(vec![
            (
                "counters".to_owned(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::U64(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_owned(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::I64(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".to_owned(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| (k.clone(), h.to_value()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Pretty JSON.
    pub fn to_json(&self) -> String {
        struct W(Value);
        impl serde::Serialize for W {
            fn to_value(&self) -> Value {
                self.0.clone()
            }
        }
        serde_json::to_string_pretty(&W(self.to_value())).expect("rendering is total")
    }

    /// Human table: one line per metric. Histogram quantiles render in
    /// milliseconds (samples are nanoseconds by convention).
    pub fn to_table(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        let mut out = String::new();
        for (k, v) in &self.counters {
            out.push_str(&format!("{k:<44} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("{k:<44} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "{k:<44} count={} mean={:.3}ms p50={:.3}ms p95={:.3}ms p99={:.3}ms\n",
                h.count,
                ms(h.mean() as u64),
                ms(h.p50()),
                ms(h.p95()),
                ms(h.p99()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_partition_u64() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_index(bucket_lo(i)), i, "lo of bucket {i}");
            assert_eq!(bucket_index(bucket_hi(i).saturating_sub(1)), i.min(64));
        }
    }

    #[test]
    fn histogram_counts_and_quantiles() {
        let h = LogHistogram::new();
        for v in [0u64, 1, 1, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 1_001_105);
        assert!(s.p50() >= 1 && s.p50() < 4, "p50 = {}", s.p50());
        assert!(s.p99() >= 524_288, "p99 = {}", s.p99());
        assert!(s.p50() <= s.p95() && s.p95() <= s.p99());
        assert_eq!(HistSnapshot::default().p99(), 0);
    }

    #[test]
    fn merge_equals_interleaved_recording() {
        let a = LogHistogram::new();
        let b = LogHistogram::new();
        let all = LogHistogram::new();
        for (i, v) in [5u64, 0, 17, 9999, 3, 128, u64::MAX, 64].iter().enumerate() {
            if i % 2 == 0 { &a } else { &b }.record(*v);
            all.record(*v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn noop_hub_handles_cost_nothing_and_read_zero() {
        let hub = MetricsHub::noop();
        assert!(!hub.enabled());
        let c = hub.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let g = hub.gauge("y");
        g.add(5);
        assert_eq!(g.get(), 0);
        hub.histogram("z").record(123);
        assert_eq!(hub.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn hub_handles_share_state_across_clones_and_threads() {
        let hub = MetricsHub::new();
        let c = hub.counter("frames");
        let mut joins = Vec::new();
        for _ in 0..4 {
            let hub = hub.clone();
            joins.push(std::thread::spawn(move || {
                let c = hub.counter("frames");
                for _ in 0..100 {
                    c.inc();
                }
                hub.histogram("lat").record(1000);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        assert_eq!(c.get(), 400);
        let snap = hub.snapshot();
        assert_eq!(snap.counter("frames"), Some(400));
        assert_eq!(snap.histogram("lat").unwrap().count, 4);
        let table = snap.to_table();
        assert!(table.contains("frames"));
        assert!(snap.to_json().contains("\"p99\""));
    }

    #[test]
    fn snapshot_merge_sums_across_nodes() {
        let a = MetricsHub::new();
        a.counter("n").add(2);
        a.gauge("q").set(3);
        a.histogram("h").record(10);
        let b = MetricsHub::new();
        b.counter("n").add(5);
        b.gauge("q").set(1);
        b.histogram("h").record(1000);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("n"), Some(7));
        assert_eq!(merged.gauge("q"), Some(4));
        assert_eq!(merged.histogram("h").unwrap().count, 2);
    }

    #[test]
    fn nanos_between_saturates() {
        let (a, b) = (SimTime::from_secs(1.5), SimTime::from_secs(2.0));
        assert_eq!(nanos_between(SimTime::ZERO, a), 1_500_000_000);
        assert_eq!(nanos_between(a, b), 500_000_000);
        // A clock that ran backwards records 0, not a wrapped span.
        assert_eq!(nanos_between(b, a), 0);
        assert_eq!(
            nanos_between(SimTime::ZERO, SimTime::from_secs(1e12)),
            u64::MAX
        );
    }

    #[test]
    fn intern_returns_stable_pointers_for_known_names() {
        let a = intern("Capture");
        let b = intern("Capture");
        assert!(std::ptr::eq(a, b));
        assert_eq!(intern("Decode"), "Decode");
    }
}
