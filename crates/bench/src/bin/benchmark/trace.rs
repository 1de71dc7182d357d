//! Spans recorded from the benchmark's side of each call: around the calls
//! into every layer and around the client's connect / handshake / write /
//! read / decode. Kept in memory, written to `trace.json` when the run ends.
//! (Spans inside the server are a later change, not this one's.)

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace.
    pub parent: Option<usize>,
    /// Repetition of a layer measurement, or pass number of a client span.
    pub rep: usize,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer { epoch, spans: Mutex::new(Vec::new()) }
    }

    /// Records a finished span and returns its index (a parent for others).
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        rep: usize,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        // A panicked recorder leaves the vector whole: keep recording.
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, rep });
        spans.len() - 1
    }

    /// Opens a span that starts now; [`Tracer::close`] ends it. Its index can
    /// parent other spans in the meantime.
    pub fn open(&self, name: &'static str, parent: Option<usize>, rep: usize) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, rep)
    }

    pub fn close(&self, span: usize) {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut spans = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(s) = spans.get_mut(span) {
            s.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a top-level span; returns its result and its seconds.
    pub fn time<T>(&self, name: &'static str, rep: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, None, rep);
        (out, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

/// A span's self time: its duration minus the part of that interval its
/// children cover. Children may overlap (a pass's writer and readers run
/// side by side), so the cover is the union of their intervals.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            children[p].push((s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns)));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                covered += end.saturating_sub(start.max(reach));
                reach = reach.max(end);
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

pub fn to_json(spans: &[Span], workload: &str) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, self_ns)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("workload", Json::str(workload)),
                    ("rep", Json::Num(s.rep as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let epoch = Instant::now();
        let at = |ms: u64| epoch + Duration::from_millis(ms);
        let tracer = Tracer::new(epoch);
        let pass = tracer.record("client.pass", at(0), at(100), None, 0);
        tracer.record("client.connect", at(0), at(10), Some(pass), 0);
        let write = tracer.record("client.write", at(10), at(70), Some(pass), 0);
        tracer.record("client.write.syscall", at(10), at(30), Some(write), 0);
        // The reader overlaps the writer: 10..70 and 40..90 cover 10..90 once.
        tracer.record("client.read", at(40), at(90), Some(pass), 0);
        let spans = tracer.into_spans();
        let ms: Vec<u64> = self_times_ns(&spans).iter().map(|ns| ns / 1_000_000).collect();
        assert_eq!(ms, vec![10, 10, 40, 20, 50]);
        let json = to_json(&spans, "w");
        assert_eq!(json.as_arr().unwrap()[1].get("parent"), Some(&Json::Num(0.0)));
    }
}
