//! Session orchestration: the feeder (splitter stage), the joiner stage, and
//! the in-process session driver and handle.
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
//! The workers are shared across sessions; a session has no thread of its
//! own. An in-process session ([`Driver`]) folds on the thread that feeds
//! it; a served session folds as a job on the workers (the reactor's
//! `JoinTask`). The stages are connected by one bounded hand-off — the
//! in-flight credit scheme — so a slow sink stalls the feeding side rather
//! than growing queues.

use crate::filters::FilterBank;
use crate::pool::{EngineSwap, Job, SessionCore, TryTake, WorkerPool};
use crate::resolver::{SpanEvent, SpanResolver};
use crate::sink::{MatchSink, OnlineMatch};
use crate::stats::RuntimeStats;
use ppt_core::chunk::ChunkOutput;
use ppt_core::join::PrefixFolder;
use ppt_xmlstream::{split_chunks, SharedWindow, WindowSplitter};
use std::any::Any;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

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
/// It never blocks: chunks that cannot get a credit stay in a pending queue,
/// the call returns `Blocked`, and the driver pumps again once a fold
/// returned a credit. The in-process [`Driver`] folds the relay's head
/// itself to get one; the reactor waits for
/// [`crate::pool::SessionEvents::on_credit`] and stops reading the
/// connection meanwhile — that is how socket backpressure propagates without
/// wedging the reactor thread.
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

    /// Windows and enqueues stream bytes, then submits as many chunks as
    /// there are credits available right now. Bytes fed after the session
    /// died are dropped.
    pub fn feed(&mut self, pool: &WorkerPool, bytes: &[u8]) -> FeedProgress {
        self.push_bytes(bytes);
        self.pump(pool)
    }

    /// Declares end of input: the splitter's tail window is flushed into the
    /// pending queue. The final chunk total is announced by the pump once the
    /// queue drains — keep calling [`Feeder::pump`] until it reports
    /// `Drained`.
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

    /// `true` while chunks are queued waiting for credits: more input must
    /// wait until a fold returned one.
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
        let split_started = Instant::now();
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

    /// Submits pending chunks in order, one credit each, stopping at the
    /// first missing credit (call again after a credit came back). Announces
    /// the chunk total once the stream ended and the queue drained.
    pub fn pump(&mut self, pool: &WorkerPool) -> FeedProgress {
        while !self.pending.is_empty() {
            if self.core.is_dead() {
                self.pending.clear();
                break;
            }
            // Backpressure: admit another chunk into the pipeline only on a
            // credit a fold returned.
            if !self.core.try_acquire_credit() {
                if self.core.is_dead() {
                    self.pending.clear();
                    break;
                }
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

/// A joiner stage panicked (in a [`Driver`] or the reactor's fold job): the
/// session dies. A panic that unwound out of a sink delivery leaves
/// `delivering` set: that match was handed over but never completed — count
/// it as dropped, not delivered.
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
/// Two drivers share it, neither with a thread of its own:
///
/// * the in-process [`Driver`] folds on the thread that feeds the session,
///   parking on the mailbox condvar only while every credit is in flight;
/// * the reactor's fold job runs on the runtime's worker pool, polling the
///   mailbox with [`SessionCore::try_take`] — nothing ever blocked.
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
        let fold_started = Instant::now();
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
        let finalize_started = Instant::now();
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
            // converts the flag into a dropped count (see `joiner_panicked`),
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

/// An in-process session, driven by the thread that feeds it: the caller
/// splits, the workers transduce, and the caller folds what they delivered.
/// A sink that blocks blocks only its own caller — that is the backpressure.
/// Each call takes the sink, so the owner decides whether it is owned
/// ([`SessionHandle`]) or borrowed (the reader-driven entry points).
pub(crate) struct Driver {
    pub(crate) feeder: Feeder,
    joiner: JoinerState,
    pool: Arc<WorkerPool>,
    /// The first panic a fold step raised (most likely in the sink), kept for
    /// the owner to resume once the pipeline is drained. Nothing folds after
    /// it: the session is poisoned.
    panic: Option<Box<dyn Any + Send>>,
}

impl Driver {
    pub fn new(core: Arc<SessionCore>, pool: Arc<WorkerPool>) -> Driver {
        Driver { joiner: JoinerState::new(&core), feeder: Feeder::new(core), pool, panic: None }
    }

    pub fn core(&self) -> &Arc<SessionCore> {
        self.feeder.core()
    }

    /// Pushes stream bytes and folds every output already delivered. While
    /// chunks wait for credits it folds the relay's head once delivered and
    /// submits again, so it returns with every chunk cut so far submitted and
    /// at most `inflight_chunks` in flight.
    pub fn feed(&mut self, sink: &mut dyn MatchSink, bytes: &[u8]) {
        self.feeder.feed(&self.pool, bytes);
        while let TryTake::Ready(out) = self.core().try_take(self.joiner.next_seq()) {
            self.guarded(|joiner, core| joiner.fold_one(core, sink, out));
        }
        while self.feeder.pump(&self.pool) == FeedProgress::Blocked {
            self.fold_next(sink);
        }
    }

    /// Ends the stream: flushes the tail, folds every chunk still in flight
    /// and finalizes. A fold step's panic comes back as `Err` once the
    /// pipeline is drained. Call once.
    pub fn finish(
        &mut self,
        sink: &mut dyn MatchSink,
    ) -> Result<SessionReport, Box<dyn Any + Send>> {
        self.feeder.request_finish();
        loop {
            self.feeder.pump(&self.pool);
            if !self.fold_next(sink) {
                break;
            }
        }
        match self.guarded(|joiner, core| joiner.finalize(core, sink)) {
            Some(report) => Ok(report),
            // UNWRAP-OK: `guarded` yields `None` only with a panic kept.
            None => Err(self.panic.take().expect("a fold step panicked")),
        }
    }

    /// Waits for the relay's head and folds it; `false` once the stream
    /// ended or the session died. A wait while chunks are pending on credits
    /// is backpressure.
    fn fold_next(&mut self, sink: &mut dyn MatchSink) -> bool {
        let (blocked, waited) = (self.feeder.is_blocked(), Instant::now());
        let Some(out) = self.core().wait_for(self.joiner.next_seq()) else { return false };
        self.guarded(|joiner, core| joiner.fold_one(core, sink, out));
        if blocked {
            let nanos = waited.elapsed().as_nanos() as u64;
            // RELAXED-OK: monotonic stat accumulator; orders nothing.
            self.core().counters.backpressure_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        true
    }

    /// Runs one joiner step unless an earlier one panicked. A panic — most
    /// likely in the sink — poisons the session, so the workers wind down,
    /// and its payload is kept for the owner.
    fn guarded<T>(&mut self, step: impl FnOnce(&mut JoinerState, &SessionCore) -> T) -> Option<T> {
        if self.panic.is_some() {
            return None;
        }
        let (joiner, core) = (&mut self.joiner, &**self.feeder.core());
        match std::panic::catch_unwind(AssertUnwindSafe(|| step(joiner, core))) {
            Ok(value) => Some(value),
            Err(panic) => {
                joiner_panicked(core, &*panic);
                self.panic = Some(panic);
                None
            }
        }
    }
}

/// A live query session with an owned sink (push API).
///
/// Obtained from [`crate::Runtime::open_session`]. Feed stream bytes with
/// [`SessionHandle::feed`] — arbitrary read sizes, no alignment required —
/// and call [`SessionHandle::finish`] to flush, drain the pipeline and get
/// the [`SessionReport`] plus the sink back. The session folds on the thread
/// that calls these; it has no thread of its own.
pub struct SessionHandle {
    pub(crate) driver: Driver,
    /// `None` once finished.
    sink: Option<Box<dyn MatchSink>>,
}

impl std::fmt::Debug for SessionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionHandle")
            .field("finish_pending", &self.sink.is_some())
            .finish_non_exhaustive()
    }
}

impl SessionHandle {
    pub(crate) fn new(driver: Driver, sink: Box<dyn MatchSink>) -> SessionHandle {
        SessionHandle { driver, sink: Some(sink) }
    }

    /// Pushes stream bytes into the pipeline and folds what the workers
    /// delivered, delivering matches to the sink. Blocks while
    /// backpressured. Bytes fed after the session died (see
    /// [`SessionReport::error`]) are dropped.
    pub fn feed(&mut self, bytes: &[u8]) {
        if let Some(sink) = &mut self.sink {
            self.driver.feed(&mut **sink, bytes);
        }
    }

    /// `true` once the session aborted (a pipeline stage panicked); callers
    /// driving a long-lived source should stop feeding.
    pub fn is_dead(&self) -> bool {
        self.driver.core().is_dead()
    }

    /// A live snapshot of the session's statistics.
    pub fn stats(&self) -> RuntimeStats {
        self.driver.core().counters.snapshot()
    }

    /// Ends the stream: flushes the tail, folds every in-flight chunk, and
    /// returns the final report together with the sink.
    ///
    /// A panic raised inside the joiner stage (most likely by the sink) is
    /// resumed here, once the pipeline is drained.
    pub fn finish(mut self) -> (SessionReport, Box<dyn MatchSink>) {
        // UNWRAP-OK: `finish` consumes `self`, and `Drop` (the only other
        // taker) has not run yet — the sink is always present.
        let mut sink = self.sink.take().expect("finish called once");
        match self.driver.finish(&mut *sink) {
            Ok(report) => (report, sink),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for SessionHandle {
    fn drop(&mut self) {
        // A handle dropped without finish() still ends its stream; a panic
        // the fold raised is swallowed.
        if let Some(mut sink) = self.sink.take() {
            let _ = self.driver.finish(&mut *sink);
        }
    }
}
