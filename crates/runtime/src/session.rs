//! Session orchestration: the feeder (splitter stage), the joiner stage, and
//! the per-session handles.
//!
//! A session's dataflow is
//!
//! ```text
//! Read source ──► Feeder (window split, chunk split) ──► shared WorkerPool
//!                                                             │ in order, or ahead
//!                                                             ▼ from all states
//!                 MatchSink ◄── Joiner (prefix fold, span resolve, filter)
//! ```
//!
//! The feeder runs on the thread that pushes bytes (the caller's, or a
//! spawned driver for the iterator API); the joiner runs on its own thread;
//! the workers are shared across sessions. Every stage is connected by a
//! bounded hand-off — the in-flight credit scheme — so a slow sink stalls the
//! feeder rather than growing queues.

use crate::filters::FilterBank;
use crate::pool::{EngineSwap, Job, SessionCore, WorkerPool};
use crate::resolver::{SpanEvent, SpanResolver};
use crate::sink::{MatchSink, OnlineMatch};
use crate::stats::RuntimeStats;
use ppt_core::chunk::ChunkOutput;
use ppt_core::join::PrefixFolder;
use ppt_xmlstream::{split_chunks, SharedWindow, WindowSplitter};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Final accounting of one completed session.
#[derive(Debug, Clone, Default)]
pub struct SessionReport {
    /// Runtime statistics at completion.
    pub stats: RuntimeStats,
    /// Result matches emitted per query (the order queries were added).
    pub match_counts: Vec<usize>,
    /// Basic sub-query matches attributed to each query before filtering.
    pub submatch_counts: Vec<usize>,
    /// Why the session aborted early (a worker panicked on its data), if it
    /// did. Matches emitted before the failure were delivered; the counts
    /// above cover only the processed prefix.
    pub error: Option<String>,
    /// The session's last measured R: speculative over in-order nanoseconds
    /// per byte. Chunks run from all states only while R is below the worker
    /// count; `None` until a chunk of each kind has run.
    pub speculation_ratio: Option<f64>,
}

/// One chunk waiting for an in-flight credit before it can be submitted.
struct PendingChunk {
    window: SharedWindow,
    range: Range<usize>,
    /// The engine in force when the chunk was produced. Captured at enqueue
    /// time so a later [`Feeder::swap_engine`] cannot retroactively move
    /// already-windowed chunks onto the new automaton (their fold state
    /// belongs to the old one).
    engine: Arc<ppt_core::Engine>,
    /// First chunk of its window: submitting it is the moment the window is
    /// pushed into the retention ring. Retaining at *submission* (not when
    /// the splitter popped the window) keeps the ring's occupancy coupled to
    /// the credit scheme — a deep pending queue must not flood the ring with
    /// windows whose chunks cannot fold yet.
    first_of_window: bool,
}

/// Tracks the stream's open-tag path across the windows the feeder has
/// enqueued — the replay seed for a mid-stream engine swap.
///
/// Mirrors the transducer's stack discipline exactly: an opening tag pushes
/// its name, a closing tag pops *if the stack is non-empty* (a stray close on
/// an empty stack leaves the sequential execution's state unchanged, so it
/// must leave the path unchanged too). Only maintained for sessions that opt
/// into engine swaps ([`crate::SessionOptions::track_open_path`]) — it costs
/// one extra tags-only lex per window.
struct TagPathTracker {
    path: Vec<Vec<u8>>,
}

impl TagPathTracker {
    fn new() -> TagPathTracker {
        TagPathTracker { path: Vec::new() }
    }

    fn consume(&mut self, bytes: &[u8]) {
        for ev in ppt_xmlstream::Lexer::tags_only(bytes) {
            match ev {
                ppt_xmlstream::XmlEvent::Open { name, .. } => self.path.push(name.to_vec()),
                ppt_xmlstream::XmlEvent::Close { .. } => {
                    self.path.pop();
                }
                _ => {}
            }
        }
    }
}

/// The splitter stage: windows the byte stream and submits chunk jobs.
///
/// Two driving disciplines share this struct:
///
/// * **Blocking** ([`Feeder::feed`]/[`Feeder::finish`]) — the classic
///   reader-driven entry points: a chunk that cannot get a credit parks the
///   calling thread on the credit condvar.
/// * **Non-blocking** ([`Feeder::feed_nonblocking`],
///   [`Feeder::request_finish`], [`Feeder::pump_nonblocking`]) — the
///   reactor's discipline: chunks that cannot get a credit stay in a pending
///   queue, the call returns `Blocked`, and the driver retries after the
///   joiner returns a credit ([`crate::pool::SessionEvents::on_credit`]).
///   A blocked feeder is the signal to stop reading the connection — that is
///   how socket backpressure propagates without wedging the reactor thread.
pub(crate) struct Feeder {
    core: Arc<SessionCore>,
    splitter: WindowSplitter,
    chunk_size: usize,
    next_seq: u64,
    pending: VecDeque<PendingChunk>,
    finish_requested: bool,
    announced: bool,
    /// The engine stamped on newly enqueued chunks (starts as the session's
    /// compile-time engine, replaced by [`Feeder::swap_engine`]).
    engine: Arc<ppt_core::Engine>,
    /// Open-tag path over the enqueued windows; `None` unless the session
    /// opted into engine swaps.
    path: Option<TagPathTracker>,
}

/// Whether a non-blocking feed landed every chunk or left some pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FeedProgress {
    /// Every produced chunk was submitted; keep feeding.
    Drained,
    /// Chunks are pending on backpressure; stop reading the source and call
    /// [`Feeder::pump_nonblocking`] after the next credit return.
    Blocked,
}

impl Feeder {
    pub fn new(core: Arc<SessionCore>) -> Feeder {
        let config = core.engine.config();
        let (window_size, chunk_size) = (config.window_size, config.chunk_size);
        let engine = Arc::clone(&core.engine);
        let path = core.track_open_path.then(TagPathTracker::new);
        Feeder {
            core,
            splitter: WindowSplitter::new(window_size),
            chunk_size,
            next_seq: 0,
            pending: VecDeque::new(),
            finish_requested: false,
            announced: false,
            engine,
            path,
        }
    }

    pub fn core(&self) -> &Arc<SessionCore> {
        &self.core
    }

    /// Replaces the session's engine at the next chunk boundary: chunks not
    /// yet windowed (including splitter tail bytes) run on `engine`, chunks
    /// already enqueued or in flight finish on the old one, and the joiner is
    /// told where the boundary falls and which tags are open there so it can
    /// reconstruct the new automaton's fold state.
    ///
    /// Requires [`crate::SessionOptions::track_open_path`]; panics otherwise
    /// (the boundary path would be unknown).
    pub fn swap_engine(&mut self, engine: Arc<ppt_core::Engine>) {
        // UNWRAP-OK: documented contract — the only callers are shared
        // streams, which force `track_open_path` at open time.
        let tracker =
            self.path.as_ref().expect("swap_engine requires SessionOptions::track_open_path");
        let swap_seq = self.next_seq + self.pending.len() as u64;
        self.core.schedule_swap(
            swap_seq,
            EngineSwap { engine: Arc::clone(&engine), open_path: tracker.path.clone() },
        );
        self.engine = engine;
    }

    /// Pushes stream bytes, submitting every window that completes. May block
    /// on backpressure. Bytes fed after the session died are dropped.
    pub fn feed(&mut self, pool: &WorkerPool, bytes: &[u8]) {
        self.push_bytes(bytes);
        self.pump(pool, true);
    }

    /// Flushes the tail window and announces the final chunk count to the
    /// joiner. Idempotent.
    pub fn finish(&mut self, pool: &WorkerPool) {
        self.request_finish();
        self.pump(pool, true);
    }

    /// Non-blocking [`Feeder::feed`]: windows and enqueues the bytes, then
    /// submits as many chunks as there are credits available right now.
    pub fn feed_nonblocking(&mut self, pool: &WorkerPool, bytes: &[u8]) -> FeedProgress {
        self.push_bytes(bytes);
        self.pump(pool, false)
    }

    /// Declares end of input without blocking: the splitter's tail window is
    /// flushed into the pending queue. The final chunk total is announced by
    /// the pump once the queue drains — keep calling
    /// [`Feeder::pump_nonblocking`] until it reports `Drained`.
    pub fn request_finish(&mut self) {
        if self.finish_requested {
            return;
        }
        self.finish_requested = true;
        if let Some(window) = self.splitter.finish_shared() {
            if !self.core.is_dead() {
                self.enqueue_window(window);
            }
        }
    }

    /// Retries pending submissions without blocking (call after a credit
    /// came back).
    pub fn pump_nonblocking(&mut self, pool: &WorkerPool) -> FeedProgress {
        self.pump(pool, false)
    }

    /// `true` while chunks are queued waiting for credits — the non-blocking
    /// driver must not read more input.
    pub fn is_blocked(&self) -> bool {
        !self.pending.is_empty() && !self.core.is_dead()
    }

    /// Splits new bytes into windows and enqueues their chunks.
    fn push_bytes(&mut self, bytes: &[u8]) {
        debug_assert!(!self.finish_requested, "feed after finish");
        if self.core.is_dead() {
            self.pending.clear();
            return;
        }
        let split_started = std::time::Instant::now();
        self.splitter.push(bytes);
        while let Some(window) = self.splitter.pop_shared() {
            self.enqueue_window(window);
        }
        self.core.telemetry.split_nanos.record_duration(split_started.elapsed());
    }

    /// Accounts a completed window and queues its chunks for submission.
    fn enqueue_window(&mut self, window: SharedWindow) {
        let counters = &self.core.counters;
        // RELAXED-OK: every reader (joiner finalize, stats snapshot) is
        // ordered after these writes by the queue/mailbox mutex chain.
        counters.windows.fetch_add(1, Ordering::Relaxed);
        // RELAXED-OK: same mutex-chain ordering as `windows` above.
        counters.bytes_in.fetch_add(window.len() as u64, Ordering::Relaxed);
        if let Some(tracker) = &mut self.path {
            tracker.consume(window.bytes());
        }
        let mut first = true;
        for chunk in split_chunks(window.bytes(), self.chunk_size) {
            self.core.telemetry.chunk_bytes.record(chunk.range.len() as u64);
            self.pending.push_back(PendingChunk {
                window: window.clone(),
                range: chunk.range,
                engine: Arc::clone(&self.engine),
                first_of_window: first,
            });
            first = false;
        }
    }

    /// Pushes `window` into the retention ring (clone-on-retain: the ring
    /// takes a refcount on the same bytes the chunk jobs slice into; the
    /// byte budget evicts inside push). Returns `false` when the ring lock
    /// was poisoned — the session is dead.
    fn retain_window(&self, window: &SharedWindow) -> bool {
        let Some(ring) = &self.core.ring else { return true };
        let counters = &self.core.counters;
        let (mut guard, poisoned) = crate::pool::lock_recover(ring);
        if poisoned {
            // A panic under the ring lock concerns this session only:
            // kill it and stop feeding instead of unwinding the caller.
            drop(guard);
            self.core.poison("retention ring lock poisoned".to_string());
            return false;
        }
        let (evicted, retained) = (guard.push(window.clone()), guard.retained_bytes());
        drop(guard);
        // RELAXED-OK: monotonic stat counters; order nothing.
        counters.windows_evicted.fetch_add(evicted.windows, Ordering::Relaxed);
        // RELAXED-OK: monotonic stat counter; orders nothing.
        counters.bytes_evicted.fetch_add(evicted.bytes, Ordering::Relaxed);
        // RELAXED-OK: racy high-watermark stat; orders nothing.
        counters.peak_retained_bytes.fetch_max(retained, Ordering::Relaxed);
        self.core.telemetry.ring_occupancy_bytes.record(retained as u64);
        true
    }

    /// Submits pending chunks in order, one credit each. `blocking` parks on
    /// the credit condvar; non-blocking stops at the first missing credit.
    /// Announces the chunk total once the stream ended and the queue drained.
    fn pump(&mut self, pool: &WorkerPool, blocking: bool) -> FeedProgress {
        while !self.pending.is_empty() {
            if self.core.is_dead() {
                self.pending.clear();
                break;
            }
            // Backpressure: wait for the joiner to return a credit before
            // admitting another chunk into the pipeline.
            let admitted =
                if blocking { self.core.acquire_credit() } else { self.core.try_acquire_credit() };
            if !admitted {
                if self.core.is_dead() {
                    self.pending.clear();
                    break;
                }
                debug_assert!(!blocking, "blocking acquire fails only on death");
                return FeedProgress::Blocked;
            }
            // UNWRAP-OK: the enclosing loop only runs while `pending` is
            // non-empty (checked at the top of each iteration).
            let chunk = self.pending.pop_front().expect("pending is non-empty");
            if chunk.first_of_window && !self.retain_window(&chunk.window) {
                self.core.release_credit();
                self.pending.clear();
                break;
            }
            // Release pairs with the reactor's Acquire reads in its
            // pipeline-stall liveness verdict (`expire_idle`): a submission
            // observed there must also carry the chunk state before it.
            self.core.counters.chunks_submitted.fetch_add(1, Ordering::Release);
            let job = Job {
                engine: chunk.engine,
                window: chunk.window,
                range: chunk.range,
                seq: self.next_seq,
            };
            pool.submit(&self.core, job);
            self.next_seq += 1;
        }
        if self.finish_requested && !self.announced {
            self.announced = true;
            self.core.announce_total(self.next_seq);
        }
        FeedProgress::Drained
    }
}

/// Runs [`joiner_loop`] with a panic guard: a panic anywhere in the joiner
/// stage — most likely a [`MatchSink`] implementation — poisons the session
/// first, so the feeder (possibly blocked on credits) and the workers wind
/// down instead of deadlocking, and the payload is handed back for the
/// session's owner thread to resume.
pub(crate) fn joiner_guarded(
    core: &SessionCore,
    sink: &mut dyn MatchSink,
) -> Result<SessionReport, Box<dyn std::any::Any + Send>> {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| joiner_loop(core, sink)));
    if let Err(panic) = &result {
        joiner_panicked(core, &**panic);
    }
    result
}

/// A joiner stage panicked (here or in the reactor's fold job): the session
/// dies. A panic that unwound out of a sink delivery leaves `delivering`
/// set: that match was handed over but never completed — count it as
/// dropped, not delivered.
pub(crate) fn joiner_panicked(core: &SessionCore, panic: &(dyn std::any::Any + Send)) {
    // AcqRel: the swap decides *which thread* accounts the in-flight
    // delivery as dropped (see the same protocol in reactor::abort); the
    // winner must also observe the state written before the flag.
    if core.counters.delivering.swap(false, Ordering::AcqRel) {
        // RELAXED-OK: stat counter; the swap above already arbitrates.
        core.counters.dropped_matches.fetch_add(1, Ordering::Relaxed);
    }
    core.poison(format!("joiner stage panicked: {}", crate::pool::panic_message(panic)));
}

/// The joiner stage as an explicit state machine: folds chunk outputs in
/// order, resolves spans, filters, and pushes matches into the sink.
///
/// Two drivers share it:
///
/// * [`joiner_loop`] parks on the mailbox condvar between chunks — the
///   classic one-thread-per-session joiner;
/// * the reactor's fold job calls [`JoinerState::fold_one`] /
///   [`JoinerState::finalize`] on the runtime's worker pool, polling the
///   mailbox with [`SessionCore::try_take`] — hundreds of sessions, no
///   thread of their own, nothing ever blocked.
pub(crate) struct JoinerState {
    /// The engine currently folding the stream. Starts as the session's
    /// compile-time engine; replaced when an [`EngineSwap`] boundary is
    /// crossed (a subscriber attached new queries to a shared stream).
    engine: Arc<ppt_core::Engine>,
    folder: PrefixFolder,
    resolver: SpanResolver,
    bank: FilterBank,
    events: Vec<SpanEvent>,
    seq: u64,
}

impl JoinerState {
    pub fn new(core: &SessionCore) -> JoinerState {
        let engine = Arc::clone(&core.engine);
        JoinerState {
            folder: PrefixFolder::new(engine.transducer()),
            resolver: SpanResolver::new(core.resolve_spans),
            bank: FilterBank::new(engine.plan(), core.resolve_spans),
            events: Vec::new(),
            seq: 0,
            engine,
        }
    }

    /// The sequence number of the next chunk this joiner needs.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Crosses an engine-swap boundary: rebuild the fold state for the new
    /// (merged) transducer by replaying the open-tag path — states and
    /// stacks of the old automaton mean nothing to the new one — and extend
    /// the filter bank with the appended queries. The span resolver carries
    /// over untouched (it tracks byte offsets, not automaton state), so
    /// spans opened before the swap still resolve for pre-swap subscribers.
    fn apply_swap(&mut self, swap: EngineSwap) {
        self.folder = PrefixFolder::resume(
            swap.engine.transducer(),
            swap.open_path.iter().map(|name| name.as_slice()),
            self.folder.chunks(),
        );
        self.bank.extend(swap.engine.plan());
        self.engine = swap.engine;
    }

    /// Folds one **in-order** chunk output: fold, resolve, filter, emit,
    /// release the retained windows below the new frontier, and return the
    /// chunk's credit.
    pub fn fold_one(&mut self, core: &SessionCore, sink: &mut dyn MatchSink, out: ChunkOutput) {
        if let Some(swap) = core.take_swap_through(self.seq) {
            self.apply_swap(swap);
        }
        let fold_started = std::time::Instant::now();
        let folded_upto = out.end_offset;
        let mut delta = self.folder.fold(out.mapping, out.depth_delta, out.ladder);
        let matches = delta.take_resolved_matches();
        // RELAXED-OK: monotonic stat counter; orders nothing.
        core.counters.submatches.fetch_add(matches.len() as u64, Ordering::Relaxed);
        self.resolver.feed(matches, &delta.ladder, &mut self.events);
        if !self.events.is_empty() {
            self.drain_events(core, sink, false);
        }
        if let Some(ring) = &core.ring {
            // Everything below the fold frontier is final — except spans
            // still open in the resolver or buffered in an unclosed anchor
            // scope, which will be materialized later. Windows entirely
            // below the earliest such offset can never be needed again.
            let frontier = folded_upto
                .min(self.resolver.min_pending_pos().unwrap_or(usize::MAX))
                .min(self.bank.min_buffered_pos().unwrap_or(usize::MAX));
            let (mut guard, poisoned) = crate::pool::lock_recover(ring);
            let released = guard.release_below(frontier);
            let retained = guard.retained_bytes();
            drop(guard);
            if released > 0 {
                // Sample the drain side of the occupancy histogram too —
                // push-only sampling would bias it toward the high-water mark.
                core.telemetry.ring_occupancy_bytes.record(retained as u64);
            }
            if poisoned {
                // Kill this session only; the next mailbox poll sees the
                // poison and finalizes.
                core.poison("retention ring lock poisoned".to_string());
            }
        }
        // Release pairs with the reactor's Acquire reads in its
        // pipeline-stall liveness verdict (`expire_idle`).
        core.counters.chunks_joined.fetch_add(1, Ordering::Release);
        core.telemetry.fold_nanos.record_duration(fold_started.elapsed());
        core.release_credit();
        self.seq += 1;
    }

    /// Ends the join: flushes the resolver and filter state (clean end only),
    /// frees the retained windows and takes the final report. Call exactly
    /// once, after the mailbox reported the stream ended or the session died.
    pub fn finalize(&mut self, core: &SessionCore, sink: &mut dyn MatchSink) -> SessionReport {
        let finalize_started = std::time::Instant::now();
        // A swap scheduled at the very end of the stream (a subscriber that
        // attached after the last byte) never sees a chunk fold; apply it
        // here so the final report's per-query counts cover every query the
        // stream ended with.
        if let Some(swap) = core.take_swap_through(u64::MAX) {
            self.apply_swap(swap);
        }
        let error = core.poison_message();
        if error.is_none() {
            // Stream ended cleanly: cap unclosed elements at the stream
            // length and flush any scope still open. On an abort this step
            // is skipped — `bytes_in` may count windows that were never
            // transduced, and closing pending matches at invented offsets
            // would fabricate results the stream never produced.
            // RELAXED-OK: the feeder's writes are ordered before this read
            // by the mailbox mutex (finish() announces the total under it).
            let total_len = core.counters.bytes_in.load(Ordering::Relaxed) as usize;
            self.resolver.finish(total_len, &mut self.events);
            self.drain_events(core, sink, true);
        }
        if let Some(ring) = &core.ring {
            // The stream is over and every match was delivered (or dropped):
            // free the retained windows before the report is taken.
            // Poisoning is ignored on this final cleanup — the ring is about
            // to be dropped.
            crate::pool::lock_recover(ring).0.release_below(usize::MAX);
        }
        core.telemetry.finalize_nanos.record_duration(finalize_started.elapsed());
        SessionReport {
            stats: core.counters.snapshot(),
            match_counts: std::mem::take(&mut self.bank.match_counts),
            submatch_counts: std::mem::take(&mut self.bank.submatch_counts),
            error,
            speculation_ratio: core.speculation_ratio(),
        }
    }

    /// Pushes drained span events (and, at the end of the stream, the final
    /// filter flush) into the sink, counting emissions. One code path for
    /// the steady-state fold and the finish step so the accounting cannot
    /// diverge.
    fn drain_events(&mut self, core: &SessionCore, sink: &mut dyn MatchSink, flush: bool) {
        let plan = self.engine.plan();
        let counters = &core.counters;
        let bank = &mut self.bank;
        let mut emit = |m: OnlineMatch| {
            // `delivering` flags the window during which the match is in the
            // sink's hands: if the sink *panics* there, the panic guard
            // converts the flag into a dropped count (see `joiner_guarded`),
            // so `matches` only ever counts completed deliveries — without
            // live stats transiently reporting a phantom drop on the healthy
            // path.
            // Release on both edges: a poisoning thread that swaps the flag
            // (AcqRel) must observe the delivery state written before it.
            counters.delivering.store(true, Ordering::Release);
            let delivered = sink.on_match(m);
            counters.delivering.store(false, Ordering::Release);
            if delivered {
                // RELAXED-OK: stat counter; orders nothing.
                counters.matches.fetch_add(1, Ordering::Relaxed);
            } else {
                // RELAXED-OK: stat counter; orders nothing.
                counters.dropped_matches.fetch_add(1, Ordering::Relaxed);
            }
        };
        for event in self.events.drain(..) {
            bank.on_event(plan, &event, &mut emit);
        }
        if flush {
            bank.finish(plan, &mut emit);
        }
    }
}

/// The joiner stage driven to completion on the calling thread, parking on
/// the mailbox condvar between chunks.
pub(crate) fn joiner_loop(core: &SessionCore, sink: &mut dyn MatchSink) -> SessionReport {
    let mut state = JoinerState::new(core);
    while let Some(out) = core.wait_for(state.next_seq()) {
        state.fold_one(core, sink, out);
    }
    state.finalize(core, sink)
}

/// A live query session with an owned sink (push API).
///
/// Obtained from [`crate::Runtime::open_session`]. Feed stream bytes with
/// [`SessionHandle::feed`] — arbitrary read sizes, no alignment required —
/// and call [`SessionHandle::finish`] to flush, drain the pipeline and get
/// the [`SessionReport`] plus the sink back.
pub struct SessionHandle {
    pub(crate) feeder: Feeder,
    pub(crate) pool: Arc<WorkerPool>,
    #[allow(clippy::type_complexity)]
    pub(crate) joiner: Option<
        std::thread::JoinHandle<(
            Result<SessionReport, Box<dyn std::any::Any + Send>>,
            Box<dyn MatchSink>,
        )>,
    >,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("finish_pending", &self.joiner.is_some())
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    /// Pushes stream bytes into the pipeline. Blocks while backpressured.
    /// Bytes fed after the session died (see [`SessionReport::error`]) are
    /// dropped.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.feeder.feed(&self.pool, bytes);
    }

    /// `true` once the session aborted (a pipeline stage panicked); callers
    /// driving a long-lived source should stop feeding.
    pub fn is_dead(&self) -> bool {
        self.feeder.core().is_dead()
    }

    /// A live snapshot of the session's statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.feeder.core().counters.snapshot()
    }

    /// Ends the stream: flushes the tail, waits for the joiner to drain every
    /// in-flight chunk, and returns the final report together with the sink.
    ///
    /// A panic raised inside the joiner stage (most likely by the sink) is
    /// resumed here, on the session owner's thread.
    pub fn finish(mut self) -> (SessionReport, Box<dyn MatchSink>) {
        self.feeder.finish(&self.pool);
        // UNWRAP-OK: `finish` consumes `self`, and `Drop` (the only other
        // taker) has not run yet — the joiner handle is always present.
        let joiner = self.joiner.take().expect("finish called once");
        let (result, sink) = match joiner.join() {
            Ok(pair) => pair,
            // `joiner_guarded` catches sink panics; a failed join means a
            // panic escaped the guard — re-raise it here, like any other.
            Err(panic) => std::panic::resume_unwind(panic),
        };
        match result {
            Ok(report) => (report, sink),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // Unblock the joiner if the handle is dropped without finish().
        if let Some(joiner) = self.joiner.take() {
            self.feeder.finish(&self.pool);
            let _ = joiner.join();
        }
    }
}
