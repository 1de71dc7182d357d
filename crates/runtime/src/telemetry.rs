//! Dependency-free telemetry: hot-path histograms, a scrape-time metrics
//! registry, and a bounded event journal.
//!
//! The serving stack (PRs 3–5) kept only end-of-run snapshots —
//! [`crate::ServerStats`] and friends answer "what happened" after the fact,
//! never "where does latency live *right now*". This module is the live
//! layer: every pipeline stage records into log₂-bucketed histograms built
//! from plain relaxed atomics (two or three `fetch_add`s per record, no
//! locks, no allocation), and a scrape — the in-band `STATS` verb or the
//! admin listener (see [`crate::serve`]) — assembles a [`Registry`] from
//! them on demand and renders it as Prometheus-style `text/plain`
//! exposition.
//!
//! Design rules:
//!
//! * **Recording is the hot path; scraping is not.** [`Histogram::record`]
//!   is a handful of relaxed atomic adds. All aggregation — extracting
//!   quantiles, formatting text — happens at scrape time on the scraper's
//!   thread.
//! * **Buckets are powers of two.** A value lands in bucket
//!   `64 − leading_zeros(v)` (bucket 0 holds exact zeros), so bucket `i`
//!   covers `[2^(i−1), 2^i)`. Quantiles come back as the upper bound of the
//!   covering bucket — within 2× of exact, which is what capacity planning
//!   needs and all a lock-free fixed-size layout can give.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log₂ buckets: one for zero plus one per bit of a `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter (plain relaxed atomic).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (plain relaxed atomic).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (peak tracking).
    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The bucket a value lands in: 0 for an exact zero, else the position of
/// its highest set bit plus one — bucket `i ≥ 1` covers `[2^(i−1), 2^i)`.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// The inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i − 1`
/// otherwise, saturating at `u64::MAX`).
pub fn bucket_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// A lock-free log₂-bucketed histogram.
///
/// Values are unitless `u64`s — latencies record nanoseconds (see
/// [`Histogram::record_duration`]), sizes record bytes; the scrape applies
/// the unit scale when rendering.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram (all buckets zero).
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one observation: three relaxed `fetch_add`s, nothing else.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the buckets. Taken field-by-field with
    /// relaxed loads: concurrent recorders may be mid-update, so
    /// `sum`/`count` can be off by the in-flight observations — never torn
    /// within one bucket, and the snapshot clamps `count` up to the bucket
    /// total so cumulative rendering stays monotone.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: [u64; HISTOGRAM_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let bucket_total: u64 = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed).max(bucket_total),
        }
    }
}

/// An owned copy of a [`Histogram`], queryable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observation count per log₂ bucket (see [`bucket_bound`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of every recorded value (exact, not bucket-approximated).
    pub sum: u64,
    /// Total observations.
    pub count: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], sum: 0, count: 0 }
    }
}

impl HistogramSnapshot {
    /// The value at quantile `q ∈ [0, 1]`, as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` observation. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_bound(i));
            }
        }
        Some(bucket_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }
}

/// Per-runtime pipeline histograms. One instance per [`crate::Runtime`],
/// shared by every session it runs.
#[derive(Debug, Default)]
pub struct RuntimeTelemetry {
    /// Splitter time per feed call — lexing window boundaries and chopping
    /// chunks (nanoseconds).
    pub split_nanos: Histogram,
    /// Bytes per chunk submitted to the worker pool.
    pub chunk_bytes: Histogram,
    /// Worker transduce time per chunk (nanoseconds).
    pub transduce_nanos: Histogram,
    /// Joiner fold time per chunk — fold, resolve, filter, emit
    /// (nanoseconds).
    pub fold_nanos: Histogram,
    /// Joiner finalize time per session (nanoseconds).
    pub finalize_nanos: Histogram,
    /// Retention-ring occupancy sampled at each window retention (bytes).
    pub ring_occupancy_bytes: Histogram,
    /// DFA state count of every automaton compiled by the subscription
    /// layer (initial compiles and attach-time merges). Watch this against
    /// the configured state budget: merges refused with
    /// [`ppt_automaton::StateBudgetExceeded`] never record here.
    pub automaton_states: Histogram,
}

impl RuntimeTelemetry {
    /// Creates a telemetry block with every histogram empty.
    pub fn new() -> RuntimeTelemetry {
        RuntimeTelemetry::default()
    }

    /// The latency histograms keyed by their `stage=` label value.
    pub fn stages(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("split", &self.split_nanos),
            ("transduce", &self.transduce_nanos),
            ("fold", &self.fold_nanos),
            ("finalize", &self.finalize_nanos),
        ]
    }
}

/// What happened to a session, for the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Handshake accepted, stream registered.
    Registered,
    /// Session died (a pipeline stage panicked or an invariant broke).
    Poisoned,
    /// Connection reaped by the idle timeout.
    IdleReaped,
    /// Session drained to completion.
    Drained,
}

impl EventKind {
    /// The journal-text form of the kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            EventKind::Registered => "registered",
            EventKind::Poisoned => "poisoned",
            EventKind::IdleReaped => "idle-reaped",
            EventKind::Drained => "drained",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Microseconds since the journal (= the server) started — monotonic,
    /// comparable across entries.
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// The stream the event belongs to.
    pub stream_id: u64,
}

/// Default journal capacity (entries).
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1024;

/// A bounded ring buffer of session lifecycle events, dumpable through the
/// admin endpoint for postmortems. Recording takes a short mutex — session
/// lifecycle events are per-connection, not per-chunk, so this is off the
/// hot path by construction.
#[derive(Debug)]
pub struct EventJournal {
    started: Instant,
    capacity: usize,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<Event>>,
}

impl Default for EventJournal {
    fn default() -> EventJournal {
        EventJournal::new(DEFAULT_JOURNAL_CAPACITY)
    }
}

impl EventJournal {
    /// Creates an empty journal holding at most `capacity` entries.
    pub fn new(capacity: usize) -> EventJournal {
        let capacity = capacity.max(1);
        EventJournal {
            started: Instant::now(),
            capacity,
            dropped: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    /// Appends an event, evicting the oldest entry when full.
    pub fn record(&self, kind: EventKind, stream_id: u64) {
        let at_micros = u64::try_from(self.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        // Poison recovery: a VecDeque is structurally valid even if a holder
        // panicked, and the journal must keep accepting events regardless.
        let (mut ring, _) = crate::pool::lock_recover(&self.ring);
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(Event { at_micros, kind, stream_id });
    }

    /// Entries evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A copy of the current entries, oldest first.
    pub fn events(&self) -> Vec<Event> {
        // Poison recovery: see `record` — the journal stays readable even
        // after a holder panicked.
        crate::pool::lock_recover(&self.ring).0.iter().cloned().collect()
    }

    /// The journal as text, one event per line:
    /// `<at_micros> <kind> stream=<id>`.
    pub fn render_text(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 48 + 64);
        out.push_str(&format!(
            "# event journal: {} events, {} dropped (capacity {})\n",
            events.len(),
            self.dropped(),
            self.capacity
        ));
        for e in events {
            out.push_str(&format!("{} {} stream={}\n", e.at_micros, e.kind.as_str(), e.stream_id));
        }
        out
    }
}

/// The kind of a metric family, for the `# TYPE` exposition line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A monotonically increasing total.
    Counter,
    /// An instantaneous value.
    Gauge,
    /// A log₂-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A label pair: static key, formatted value.
pub type Label = (&'static str, String);

/// One labelled scalar sample.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Label pairs identifying the series.
    pub labels: Vec<Label>,
    /// The sample value.
    pub value: f64,
}

/// One labelled histogram series (snapshot plus the unit scale applied to
/// bucket bounds and the sum when rendering — `1e-9` turns recorded
/// nanoseconds into exposed seconds, `1.0` leaves bytes as bytes).
#[derive(Debug, Clone)]
pub struct HistogramSeries {
    /// Label pairs identifying the series.
    pub labels: Vec<Label>,
    /// The point-in-time distribution.
    pub snapshot: HistogramSnapshot,
    /// Multiplier applied to bucket bounds and the sum when rendering.
    pub scale: f64,
}

/// A named metric with help text and its samples.
#[derive(Debug, Clone)]
pub struct MetricFamily {
    /// The exposition name (e.g. `ppt_frames_out_total`).
    pub name: String,
    /// The `# HELP` line.
    pub help: &'static str,
    /// The `# TYPE` line.
    pub kind: MetricKind,
    /// Scalar samples (counters, gauges).
    pub samples: Vec<Sample>,
    /// Histogram series.
    pub histograms: Vec<HistogramSeries>,
}

/// A scrape-time assembly of metric families, rendered as Prometheus-style
/// text exposition. Built fresh on every scrape — the registry holds
/// *values*, never live atomics, so rendering cannot race a recorder.
#[derive(Debug, Default)]
pub struct Registry {
    families: Vec<MetricFamily>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn family(&mut self, name: &str, help: &'static str, kind: MetricKind) -> &mut MetricFamily {
        if let Some(at) = self.families.iter().position(|f| f.name == name) {
            &mut self.families[at]
        } else {
            self.families.push(MetricFamily {
                name: name.to_string(),
                help,
                kind,
                samples: Vec::new(),
                histograms: Vec::new(),
            });
            // UNWRAP-OK: `push` on the line above makes `last_mut` Some.
            self.families.last_mut().expect("just pushed")
        }
    }

    /// Adds one counter sample.
    pub fn counter(&mut self, name: &str, help: &'static str, labels: Vec<Label>, value: u64) {
        self.family(name, help, MetricKind::Counter)
            .samples
            .push(Sample { labels, value: value as f64 });
    }

    /// Adds one gauge sample.
    pub fn gauge(&mut self, name: &str, help: &'static str, labels: Vec<Label>, value: f64) {
        self.family(name, help, MetricKind::Gauge).samples.push(Sample { labels, value });
    }

    /// Adds one histogram series. `scale` converts recorded units into
    /// exposed units (e.g. `1e-9` for nanoseconds → seconds).
    pub fn histogram(
        &mut self,
        name: &str,
        help: &'static str,
        labels: Vec<Label>,
        snapshot: HistogramSnapshot,
        scale: f64,
    ) {
        self.family(name, help, MetricKind::Histogram).histograms.push(HistogramSeries {
            labels,
            snapshot,
            scale,
        });
    }

    /// The assembled families (test hook).
    pub fn families(&self) -> &[MetricFamily] {
        &self.families
    }

    /// Sums every sample of family `name` across its labelled series
    /// (reconciliation hook: label sums vs the server totals).
    pub fn sample_sum(&self, name: &str) -> Option<f64> {
        self.families
            .iter()
            .find(|f| f.name == name)
            .map(|f| f.samples.iter().map(|s| s.value).sum())
    }

    /// Renders the whole registry as Prometheus-style text exposition.
    ///
    /// Histogram families emit the cumulative `_bucket{le=…}` series (empty
    /// trailing buckets elided, `+Inf` always present), `_sum`, `_count`,
    /// and — as an extension for lock-free scrapers that cannot afford
    /// server-side quantile queries — explicit `_p50`/`_p95`/`_p99` lines.
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(4096);
        for family in &self.families {
            out.push_str(&format!("# HELP {} {}\n", family.name, family.help));
            out.push_str(&format!("# TYPE {} {}\n", family.name, family.kind.as_str()));
            for sample in &family.samples {
                out.push_str(&family.name);
                push_labels(&mut out, &sample.labels, None);
                out.push(' ');
                out.push_str(&fmt_value(sample.value));
                out.push('\n');
            }
            for series in &family.histograms {
                render_histogram(&mut out, &family.name, series);
            }
        }
        out
    }
}

fn render_histogram(out: &mut String, name: &str, series: &HistogramSeries) {
    let snap = &series.snapshot;
    let highest = snap
        .buckets
        .iter()
        .rposition(|&n| n > 0)
        .map(|i| (i + 1).min(HISTOGRAM_BUCKETS - 1))
        .unwrap_or(0);
    let mut cumulative = 0u64;
    for (i, &n) in snap.buckets.iter().enumerate().take(highest + 1) {
        cumulative += n;
        let le = bucket_bound(i) as f64 * series.scale;
        out.push_str(name);
        out.push_str("_bucket");
        push_labels(out, &series.labels, Some(&fmt_value(le)));
        out.push(' ');
        out.push_str(&fmt_value(cumulative as f64));
        out.push('\n');
    }
    out.push_str(name);
    out.push_str("_bucket");
    push_labels(out, &series.labels, Some("+Inf"));
    out.push(' ');
    out.push_str(&fmt_value(snap.count as f64));
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, &series.labels, None);
    out.push(' ');
    out.push_str(&fmt_value(snap.sum as f64 * series.scale));
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, &series.labels, None);
    out.push(' ');
    out.push_str(&fmt_value(snap.count as f64));
    out.push('\n');
    for (suffix, q) in [("_p50", 0.50), ("_p95", 0.95), ("_p99", 0.99)] {
        let value = snap.quantile(q).map(|v| v as f64 * series.scale).unwrap_or(0.0);
        out.push_str(name);
        out.push_str(suffix);
        push_labels(out, &series.labels, None);
        out.push(' ');
        out.push_str(&fmt_value(value));
        out.push('\n');
    }
}

/// Appends `{k="v",…}` (plus the `le` label, when given) unless empty.
fn push_labels(out: &mut String, labels: &[Label], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (key, value) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(key);
        out.push_str("=\"");
        for c in value.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Formats a value the way the exposition format expects: integral values
/// without a fraction, everything else with enough digits to round-trip.
fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 9.007_199_254_740_992e15 {
        format!("{}", v as i64)
    } else {
        let mut s = format!("{v:.9}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.pop();
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_bounds_cover_their_buckets() {
        for i in 1..HISTOGRAM_BUCKETS {
            let bound = bucket_bound(i);
            assert_eq!(bucket_index(bound), i, "upper bound of bucket {i} lands in it");
            if i < 64 {
                assert_eq!(bucket_index(bound + 1), i + 1, "bound+1 lands in the next bucket");
            }
        }
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.quantile(0.5), None);
        assert_eq!(snap.quantile(0.99), None);
        assert_eq!(snap.mean(), None);
    }

    #[test]
    fn single_sample_quantiles_cover_the_value() {
        let h = Histogram::new();
        h.record(100);
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert_eq!(snap.sum, 100);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            let v = snap.quantile(q).expect("non-empty");
            assert!(v >= 100, "quantile {q} must bound the sample: {v}");
            assert!(v < 200, "log2 bound is within 2x: {v}");
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_counts() {
        let h = Histogram::new();
        // 90 small values, 10 large: p50 small, p95/p99 large.
        for _ in 0..90 {
            h.record(10); // bucket 4, bound 15
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 20, bound 2^20-1
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(15));
        assert_eq!(snap.quantile(0.90), Some(15));
        assert_eq!(snap.quantile(0.95), Some((1 << 20) - 1));
        assert_eq!(snap.quantile(0.99), Some((1 << 20) - 1));
    }

    #[test]
    fn zero_values_land_in_the_zero_bucket() {
        let h = Histogram::new();
        h.record(0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.quantile(0.5), Some(0));
    }

    #[test]
    fn journal_bounds_and_reports_drops() {
        let journal = EventJournal::new(3);
        for id in 0..5u64 {
            journal.record(EventKind::Registered, id);
        }
        let events = journal.events();
        assert_eq!(events.len(), 3);
        assert_eq!(journal.dropped(), 2);
        assert_eq!(events[0].stream_id, 2, "oldest entries evicted first");
        let text = journal.render_text();
        assert!(text.contains("registered stream=4\n"), "{text}");
        assert!(text.starts_with("# event journal: 3 events, 2 dropped"), "{text}");
    }

    #[test]
    fn journal_timestamps_are_monotone() {
        let journal = EventJournal::new(8);
        journal.record(EventKind::Registered, 1);
        journal.record(EventKind::Drained, 1);
        let events = journal.events();
        assert!(events[0].at_micros <= events[1].at_micros);
    }

    /// Golden test of the exposition format: one of each family kind with
    /// deterministic values.
    #[test]
    fn exposition_format_golden() {
        let mut registry = Registry::new();
        registry.counter("ppt_requests_total", "Requests served.", vec![], 7);
        registry.gauge("ppt_active", "Active sessions.", vec![("format", "json".to_string())], 2.0);
        let h = Histogram::new();
        h.record(3); // bucket 2 (le 3)
        h.record(3);
        h.record(900); // bucket 10 (le 1023)
        registry.histogram(
            "ppt_latency_seconds",
            "Stage latency.",
            vec![("stage", "fold".to_string())],
            h.snapshot(),
            1.0,
        );
        let text = registry.render_text();
        let expected = "\
# HELP ppt_requests_total Requests served.
# TYPE ppt_requests_total counter
ppt_requests_total 7
# HELP ppt_active Active sessions.
# TYPE ppt_active gauge
ppt_active{format=\"json\"} 2
# HELP ppt_latency_seconds Stage latency.
# TYPE ppt_latency_seconds histogram
ppt_latency_seconds_bucket{stage=\"fold\",le=\"0\"} 0
ppt_latency_seconds_bucket{stage=\"fold\",le=\"1\"} 0
ppt_latency_seconds_bucket{stage=\"fold\",le=\"3\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"7\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"15\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"31\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"63\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"127\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"255\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"511\"} 2
ppt_latency_seconds_bucket{stage=\"fold\",le=\"1023\"} 3
ppt_latency_seconds_bucket{stage=\"fold\",le=\"2047\"} 3
ppt_latency_seconds_bucket{stage=\"fold\",le=\"+Inf\"} 3
ppt_latency_seconds_sum{stage=\"fold\"} 906
ppt_latency_seconds_count{stage=\"fold\"} 3
ppt_latency_seconds_p50{stage=\"fold\"} 3
ppt_latency_seconds_p95{stage=\"fold\"} 1023
ppt_latency_seconds_p99{stage=\"fold\"} 1023
";
        assert_eq!(text, expected);
    }

    #[test]
    fn label_values_are_escaped() {
        let mut registry = Registry::new();
        registry.gauge("ppt_x", "Escaping.", vec![("q", "a\"b\\c\nd".to_string())], 1.0);
        let text = registry.render_text();
        assert!(text.contains("ppt_x{q=\"a\\\"b\\\\c\\nd\"} 1"), "{text}");
    }

    #[test]
    fn sample_sum_reconciles_labelled_series() {
        let mut registry = Registry::new();
        for (mode, v) in [("in_order", 3u64), ("speculative", 4), ("other", 5)] {
            registry.counter(
                "ppt_chunks_total",
                "Chunks per mode.",
                vec![("mode", mode.to_string())],
                v,
            );
        }
        assert_eq!(registry.sample_sum("ppt_chunks_total"), Some(12.0));
        assert_eq!(registry.sample_sum("missing"), None);
    }

    #[test]
    fn concurrent_records_never_lose_counts() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads = 4;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        h.record(t as u64 * 1_000 + i % 100);
                    }
                });
            }
            // Scrape concurrently with the recorders: every snapshot must be
            // internally consistent (cumulative counts monotone, count >=
            // bucket total is normalized away by snapshot()).
            for _ in 0..50 {
                let snap = h.snapshot();
                let total: u64 = snap.buckets.iter().sum();
                assert!(total <= threads as u64 * per_thread);
                assert!(snap.count >= total, "count clamps up to the bucket total");
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, threads as u64 * per_thread);
        assert_eq!(snap.buckets.iter().sum::<u64>(), threads as u64 * per_thread);
    }
}
