//! Per-session runtime statistics.
//!
//! Counters are plain atomics shared between the three pipeline stages
//! (feeder, workers, joiner); [`RuntimeStats`] is a point-in-time snapshot of
//! them, cheap enough to take while the session is live.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Shared mutable counters; one instance per session.
#[derive(Debug)]
pub(crate) struct Counters {
    pub started: Instant,
    pub bytes_in: AtomicU64,
    pub windows: AtomicU64,
    pub chunks_submitted: AtomicU64,
    pub chunks_joined: AtomicU64,
    pub submatches: AtomicU64,
    pub matches: AtomicU64,
    /// Matches the delivery layer discarded instead of delivering: the sink
    /// refused them (hung-up receiver, dead connection) or panicked while a
    /// match was in its hands (the session is then poisoned).
    pub dropped_matches: AtomicU64,
    /// `true` only while a match is inside `MatchSink::on_match`; the joiner
    /// panic guard turns a set flag into one dropped match.
    pub delivering: AtomicBool,
    /// Matches whose payload span was already evicted from the retention
    /// ring when they were delivered (delivered without payload).
    pub payload_misses: AtomicU64,
    /// Windows the retention ring evicted under byte-budget pressure.
    pub windows_evicted: AtomicU64,
    /// Bytes those evicted windows covered.
    pub bytes_evicted: AtomicU64,
    /// Peak bytes the retention ring held at once.
    pub peak_retained_bytes: AtomicUsize,
    /// Peak depth of the joiner's out-of-order reorder buffer.
    pub peak_reorder: AtomicUsize,
    /// Peak join lag: highest completed sequence number minus the next
    /// sequence number the joiner needed, at the moment it resumed.
    pub peak_join_lag: AtomicU64,
    /// Total wall-clock time workers spent transducing this session's chunks.
    pub worker_busy_nanos: AtomicU64,
    /// Chunks run in order, from their exact entry.
    pub chunks_in_order: AtomicU64,
    /// Chunks run from all states.
    pub chunks_speculative: AtomicU64,
    /// Total time the feeder spent blocked waiting for an in-flight credit
    /// (i.e. backpressure from the joiner / sink).
    pub backpressure_nanos: AtomicU64,
}

impl Counters {
    pub fn new() -> Counters {
        Counters {
            started: Instant::now(),
            bytes_in: AtomicU64::new(0),
            windows: AtomicU64::new(0),
            chunks_submitted: AtomicU64::new(0),
            chunks_joined: AtomicU64::new(0),
            submatches: AtomicU64::new(0),
            matches: AtomicU64::new(0),
            dropped_matches: AtomicU64::new(0),
            delivering: AtomicBool::new(false),
            payload_misses: AtomicU64::new(0),
            windows_evicted: AtomicU64::new(0),
            bytes_evicted: AtomicU64::new(0),
            peak_retained_bytes: AtomicUsize::new(0),
            peak_reorder: AtomicUsize::new(0),
            peak_join_lag: AtomicU64::new(0),
            worker_busy_nanos: AtomicU64::new(0),
            chunks_in_order: AtomicU64::new(0),
            chunks_speculative: AtomicU64::new(0),
            backpressure_nanos: AtomicU64::new(0),
        }
    }

    pub fn raise_peak_reorder(&self, depth: usize) {
        self.peak_reorder.fetch_max(depth, Ordering::Relaxed);
    }

    pub fn raise_peak_join_lag(&self, lag: u64) {
        self.peak_join_lag.fetch_max(lag, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> RuntimeStats {
        // Torn-tuple discipline: counters advance upstream-first (a chunk is
        // submitted before it is joined; a submatch is drained before its
        // match is emitted), so a live snapshot must load the *downstream*
        // counter of each pair first. Reading `chunks_submitted` before
        // `chunks_joined` could observe a join that happened between the two
        // loads and report `chunks_joined > chunks` — an impossible tuple.
        let chunks_joined = self.chunks_joined.load(Ordering::Relaxed);
        let chunks = self.chunks_submitted.load(Ordering::Relaxed);
        let matches = self.matches.load(Ordering::Relaxed);
        let submatches = self.submatches.load(Ordering::Relaxed);
        RuntimeStats {
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            windows: self.windows.load(Ordering::Relaxed),
            chunks,
            chunks_joined,
            submatches,
            matches,
            dropped_matches: self.dropped_matches.load(Ordering::Relaxed),
            payload_misses: self.payload_misses.load(Ordering::Relaxed),
            windows_evicted: self.windows_evicted.load(Ordering::Relaxed),
            bytes_evicted: self.bytes_evicted.load(Ordering::Relaxed),
            peak_retained_bytes: self.peak_retained_bytes.load(Ordering::Relaxed),
            peak_reorder_depth: self.peak_reorder.load(Ordering::Relaxed),
            peak_join_lag: self.peak_join_lag.load(Ordering::Relaxed),
            chunks_in_order: self.chunks_in_order.load(Ordering::Relaxed),
            chunks_speculative: self.chunks_speculative.load(Ordering::Relaxed),
            worker_busy: Duration::from_nanos(self.worker_busy_nanos.load(Ordering::Relaxed)),
            backpressure_wait: Duration::from_nanos(
                self.backpressure_nanos.load(Ordering::Relaxed),
            ),
            elapsed: self.started.elapsed(),
        }
    }
}

/// A snapshot of one session's runtime statistics.
#[derive(Debug, Clone, Default)]
pub struct RuntimeStats {
    /// Bytes ingested from the stream so far.
    pub bytes_in: u64,
    /// Windows the splitter stage emitted.
    pub windows: u64,
    /// Chunks submitted to the worker pool.
    pub chunks: u64,
    /// Chunks the joiner has folded.
    pub chunks_joined: u64,
    /// Basic sub-query matches drained from the fold.
    pub submatches: u64,
    /// Query matches emitted through the sink.
    pub matches: u64,
    /// Matches the delivery layer discarded instead of delivering (sink
    /// refused or panicked mid-delivery). `matches + dropped_matches` is the
    /// number of matches the joiner produced.
    pub dropped_matches: u64,
    /// Matches delivered without payload because their span had been evicted
    /// from the retention ring.
    pub payload_misses: u64,
    /// Retention-ring windows evicted under byte-budget pressure.
    pub windows_evicted: u64,
    /// Bytes those evicted windows covered.
    pub bytes_evicted: u64,
    /// Peak bytes the retention ring held at once (bounded by
    /// `max(budget, largest window)`).
    pub peak_retained_bytes: usize,
    /// Peak depth of the joiner's out-of-order reorder buffer (how far ahead
    /// of the fold the workers ran).
    pub peak_reorder_depth: usize,
    /// Peak join lag in chunks (highest completed sequence number minus the
    /// sequence number the joiner was waiting for).
    pub peak_join_lag: u64,
    /// Chunks run in order: from their exact entry state and stack, on one
    /// execution path.
    pub chunks_in_order: u64,
    /// Chunks run speculatively, from all states (§3.2): ahead of the
    /// in-order chain on a worker that would otherwise idle, or after the
    /// real path was lost.
    pub chunks_speculative: u64,
    /// Total worker wall-clock time spent transducing this session's chunks.
    pub worker_busy: Duration,
    /// Total time the feeder was blocked on backpressure (all in-flight
    /// credits held downstream).
    pub backpressure_wait: Duration,
    /// Wall-clock time since the session opened.
    pub elapsed: Duration,
}

/// A point-in-time snapshot of the reactor's event-loop accounting, carried
/// in [`crate::serve::ServerStats::reactor`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// File descriptors currently registered with the event loop
    /// (connections plus the listener and the wake fd).
    pub registered_fds: usize,
    /// Peak number of registered file descriptors.
    pub peak_registered_fds: usize,
    /// `poll(2)` calls made by the ingest thread.
    pub polls: u64,
    /// Cross-thread wake-ups observed on the eventfd (credit returns,
    /// joiner completions, frame deliveries, shutdown).
    pub wakeups: u64,
    /// Readiness events dispatched to connection state machines (one per
    /// ready fd per poll round).
    pub readiness_dispatches: u64,
    /// Peak bytes any single connection's outbox held at once (framed
    /// matches waiting for the socket to accept them).
    pub peak_outbox_bytes: usize,
}

impl RuntimeStats {
    /// Sustained ingest throughput in MiB/s over the session's lifetime.
    pub fn throughput_mib_s(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes_in as f64 / (1024.0 * 1024.0) / secs
    }

    /// Chunks still in flight (submitted but not yet folded).
    pub fn chunks_in_flight(&self) -> u64 {
        self.chunks.saturating_sub(self.chunks_joined)
    }
}
