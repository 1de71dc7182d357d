//! The shared worker pool and per-session scheduling state.
//!
//! One [`WorkerPool`] serves every session of a [`crate::Runtime`]. A
//! session's submitted chunks wait in its own [`Mailbox`], not in a shared
//! queue; its scheduling decisions are the relay of [`ppt_core::sched`],
//! held under the mailbox lock. The pool's queue holds only work that may
//! start now:
//!
//! * **heads** — a session's relay chunk, claimed the moment it is both
//!   submitted and next. It runs in order from the exact entry (one path,
//!   sequential speed); the worker that
//!   ran it publishes the exit into the relay and carries straight on with
//!   the session's next chunk if it is already waiting — no wake, no queue —
//!   unless heads or folds are queued, which it then lets go first.
//! * **folds** — a served session's join ([`Fold`]), queued when a chunk is
//!   delivered, a parked fold's outbox drained, or the session ended or
//!   died. Served after heads: the fold width is the worker count.
//! * **candidates** — sessions with chunks ahead of the relay that a worker
//!   which would otherwise idle may run from all states when
//!   [`Sched::may_speculate`]; R's samples are the worker thread's CPU time
//!   ([`thread_cpu_time`]).
//!
//! Per-session fairness falls out of the credit scheme: a session may only
//! have `inflight_chunks` chunks admitted at a time, so one slow consumer
//! cannot flood the pool.

use crate::retain::RetentionRing;
use crate::stats::Counters;
use crate::telemetry::RuntimeTelemetry;
use crate::SessionOptions;
use ppt_core::chunk::{ChunkOutput, EngineKind};
use ppt_core::join::PrefixFolder;
use ppt_core::sched::{self, Ran, Run, Sched};
use ppt_core::Engine;
use ppt_xmlstream::SharedWindow;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Locks `mutex`, recovering the guard when a panicking holder poisoned it.
/// Returns the guard plus whether poison was observed.
///
/// A poisoned lock means some thread panicked while holding it — an event
/// that concerns *one session's* data, never the process. Propagating the
/// `PoisonError` as a panic (the old `.expect("… poisoned")` pattern) would
/// cascade: every other session's feeder/joiner touching the same shared
/// structure panics too, and one bad sink takes the whole [`crate::Runtime`]
/// down. Callers that own a session instead map the flag to the death of
/// that session alone (see [`SessionCore::poison`]); callers on shared
/// structures (the job queue) continue, because the guarded data is a plain
/// collection that is structurally valid even after a holder unwound.
pub(crate) fn lock_recover<'a, T>(mutex: &'a Mutex<T>) -> (MutexGuard<'a, T>, bool) {
    // LOCK-OK: this *is* the recover helper every other call site routes
    // through (lint rule L4).
    match mutex.lock() {
        Ok(guard) => (guard, false),
        Err(poison) => (poison.into_inner(), true),
    }
}

/// [`Condvar::wait`] with the same poison recovery as [`lock_recover`].
pub(crate) fn wait_recover<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
) -> (MutexGuard<'a, T>, bool) {
    // LOCK-OK: this *is* the recover helper every other call site routes
    // through (lint rule L4).
    match cv.wait(guard) {
        Ok(guard) => (guard, false),
        Err(poison) => (poison.into_inner(), true),
    }
}

/// One chunk of one session's window, as the feeder submits it.
pub(crate) struct Job {
    /// The engine whose transducer processes this chunk. Stamped by the
    /// feeder at submission time: after a mid-stream engine swap (a
    /// subscriber attached new queries to a shared stream) chunks before the
    /// swap boundary still run on the old automaton while later chunks run
    /// on the merged one.
    pub engine: Arc<Engine>,
    /// The window the chunk slices into (refcount-shared by all of its
    /// chunks, and by the retention ring when payload retention is on).
    pub window: SharedWindow,
    /// The chunk's byte range within the window.
    pub range: Range<usize>,
    /// Global chunk sequence number within the session.
    pub seq: u64,
}

impl sched::Job for Job {
    fn seq(&self) -> u64 {
        self.seq
    }

    fn is_tail(&self) -> bool {
        2 * self.range.len() < self.engine.config().chunk_size
    }
}

/// A mid-stream engine replacement, scheduled at a chunk-sequence boundary.
///
/// The subscription layer merges a newly attached subscriber's queries into
/// the session's automaton and swaps the engine *between* chunks: every chunk
/// at or past the boundary is transduced (and folded) by `engine`, while
/// in-flight chunks before it finish on the old one. `open_path` is the
/// stream's open-tag path at the boundary, from which the joiner reconstructs
/// the new transducer's fold state ([`ppt_core::join::PrefixFolder::resume`]).
pub(crate) struct EngineSwap {
    pub engine: Arc<Engine>,
    /// Open (unclosed) element names at the swap boundary, outermost first.
    pub open_path: Vec<Vec<u8>>,
}

/// A session's scheduling state and the reorder buffer between its workers
/// and its joiner, under one lock.
pub(crate) struct Mailbox {
    /// Waiting chunks, the relay, R and the outputs the joiner has not taken.
    sched: Sched<Job>,
    /// Engine swaps keyed by the first chunk sequence they apply to. A
    /// second swap scheduled at the same boundary overwrites the first —
    /// merged engines only ever grow, so the later one subsumes it.
    swaps: BTreeMap<u64, EngineSwap>,
    /// Why the session was poisoned (a worker panicked on one of its
    /// chunks), if it was.
    poisoned: Option<String>,
}

/// What a change of one session's scheduling state asks of the pool.
#[derive(Default)]
struct Wake {
    /// The relay's chunk, just claimed: run it (in order while the path is
    /// known).
    head: Option<(Job, Run)>,
    /// The session newly has chunks a worker that would otherwise idle may
    /// speculate on.
    list: bool,
}

/// Progress callbacks a *non-blocking* session driver (the reactor)
/// registers to learn about pipeline progress without parking a thread on
/// the session's condvars. The blocking entry points never set these — the
/// condvars alone carry their wakeups.
///
/// Implementations must be cheap and must not block: the hooks fire from
/// worker threads (after a chunk delivery) and from the joiner (after a
/// credit return), both on hot paths.
pub(crate) trait SessionEvents: Send + Sync {
    /// The joiner may be able to make progress: a chunk was delivered, the
    /// total was announced, or the session was poisoned.
    fn on_deliverable(&self);
    /// An in-flight credit was returned (or the session died): a feeder
    /// whose submissions were blocked on backpressure may resume.
    fn on_credit(&self);
}

/// Outcome of a non-blocking mailbox poll (see [`SessionCore::try_take`]).
// `Ready` is moved once, straight into the fold, and never stored: boxing it
// would buy an allocation per chunk for nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum TryTake {
    /// The requested chunk is ready; fold it.
    Ready(ChunkOutput),
    /// The chunk has not been delivered yet; try again after the next
    /// [`SessionEvents::on_deliverable`].
    Pending,
    /// The stream ended (every chunk before `seq` folded) or the session
    /// died — the joiner must finalize.
    Ended,
}

/// Everything the three stages of one session share.
pub(crate) struct SessionCore {
    pub engine: Arc<Engine>,
    pub kind: EngineKind,
    pub resolve_spans: bool,
    pub mailbox: Mutex<Mailbox>,
    pub mailbox_cv: Condvar,
    /// In-flight chunk credits: the feeder takes one per submitted chunk, the
    /// joiner returns it after folding. Zero credits = backpressure.
    pub credits: Mutex<usize>,
    pub credits_cv: Condvar,
    /// Set when a worker panicked on this session's data: the session is
    /// dead, the feeder must stop submitting and the joiner must bail out.
    pub dead: AtomicBool,
    /// Caller-assigned stream id, stamped on every wire frame.
    pub stream_id: u64,
    /// Whether the feeder maintains the open-tag path (the prerequisite for
    /// mid-stream engine swaps; see [`crate::SessionOptions::track_open_path`]).
    pub track_open_path: bool,
    /// The payload retention ring, when the session materializes matches.
    /// Locked briefly by the feeder (push) and the joiner (extract/release);
    /// never held across a blocking wait.
    pub ring: Option<Mutex<RetentionRing>>,
    pub counters: Counters,
    /// The owning runtime's pipeline histograms. Shared by every
    /// session of that runtime; recording is relaxed atomics only, so the
    /// stages write into it straight from their hot loops.
    pub telemetry: Arc<RuntimeTelemetry>,
    /// Progress hooks for a non-blocking driver (set once, before the first
    /// byte is fed; `None` for the blocking entry points).
    events: OnceLock<Arc<dyn SessionEvents>>,
    /// Fault injection: the worker that starts this chunk panics.
    panic_on_chunk: Option<u64>,
}

impl SessionCore {
    pub fn new(
        engine: Arc<Engine>,
        inflight_chunks: usize,
        opts: &SessionOptions,
        telemetry: Arc<RuntimeTelemetry>,
    ) -> SessionCore {
        let kind = engine.config().engine;
        let resolve_spans = engine.config().resolve_spans;
        let mailbox = Mailbox {
            sched: Sched::new(engine.transducer().initial()),
            swaps: BTreeMap::new(),
            poisoned: None,
        };
        SessionCore {
            engine,
            kind,
            resolve_spans,
            mailbox: Mutex::new(mailbox),
            mailbox_cv: Condvar::new(),
            credits: Mutex::new(inflight_chunks.max(1)),
            credits_cv: Condvar::new(),
            dead: AtomicBool::new(false),
            stream_id: opts.stream_id,
            track_open_path: opts.track_open_path,
            ring: opts.retention_budget.map(|budget| Mutex::new(RetentionRing::new(budget))),
            counters: Counters::new(),
            telemetry,
            events: OnceLock::new(),
            panic_on_chunk: opts.panic_on_chunk,
        }
    }

    /// Registers the progress hooks of a non-blocking driver. Must be called
    /// before any chunk is submitted; a second registration is ignored.
    pub fn set_events(&self, events: Arc<dyn SessionEvents>) {
        let _ = self.events.set(events);
    }

    fn fire_deliverable(&self) {
        if let Some(events) = self.events.get() {
            events.on_deliverable();
        }
    }

    fn fire_credit(&self) {
        if let Some(events) = self.events.get() {
            events.on_credit();
        }
    }

    /// `true` once a worker panicked on this session's data.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Blocks until an in-flight credit is available and takes it; returns
    /// `false` (without taking a credit) when the session died while
    /// waiting. Time spent blocked is recorded as backpressure.
    pub fn acquire_credit(&self) -> bool {
        let (mut credits, mut poisoned) = lock_recover(&self.credits);
        if !poisoned && *credits == 0 {
            let waited = Instant::now();
            while *credits == 0 && !self.is_dead() {
                let (guard, p) = wait_recover(&self.credits_cv, credits);
                credits = guard;
                if p {
                    poisoned = true;
                    break;
                }
            }
            // RELAXED-OK: monotonic stat accumulator; read only by
            // quiescent snapshots, orders nothing.
            self.counters
                .backpressure_nanos
                .fetch_add(waited.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        if poisoned {
            drop(credits);
            self.poison("credit lock poisoned by a panicking pipeline stage".to_string());
            return false;
        }
        if self.is_dead() {
            return false;
        }
        *credits -= 1;
        true
    }

    /// Non-blocking [`SessionCore::acquire_credit`]: takes a credit if one is
    /// available right now, `false` otherwise (backpressure — retry after the
    /// next [`SessionEvents::on_credit`]) or when the session died.
    pub fn try_acquire_credit(&self) -> bool {
        let (mut credits, poisoned) = lock_recover(&self.credits);
        if poisoned {
            drop(credits);
            self.poison("credit lock poisoned by a panicking pipeline stage".to_string());
            return false;
        }
        if self.is_dead() || *credits == 0 {
            return false;
        }
        *credits -= 1;
        true
    }

    /// Returns one in-flight credit.
    pub fn release_credit(&self) {
        let (mut credits, poisoned) = lock_recover(&self.credits);
        *credits += 1;
        drop(credits);
        self.credits_cv.notify_one();
        if poisoned {
            self.poison("credit lock poisoned by a panicking pipeline stage".to_string());
        }
        self.fire_credit();
    }

    /// Locks the mailbox for a scheduling change; `None` (after poisoning
    /// the session) when a panicking holder poisoned the lock.
    fn lock_mailbox(&self) -> Option<MutexGuard<'_, Mailbox>> {
        let (mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return None;
        }
        Some(mb)
    }

    /// A worker finished chunk `seq`: delivers it and claims the relay's next
    /// chunk if it is waiting, for the caller to run.
    fn complete(&self, seq: u64, out: ChunkOutput, ran: Ran, workers: usize) -> Wake {
        let Some(mut mb) = self.lock_mailbox() else { return Wake::default() };
        self.counters.raise_peak_reorder(mb.sched.complete(seq, out, ran));
        let wake = Wake { head: mb.sched.claim_head(), list: mb.sched.list(workers) };
        drop(mb);
        self.mailbox_cv.notify_all();
        self.fire_deliverable();
        wake
    }

    /// The session's last measured R (see [`Sched::may_speculate`]), once
    /// both kinds of chunk have run.
    pub fn speculation_ratio(&self) -> Option<f64> {
        lock_recover(&self.mailbox).0.sched.ratio()
    }

    /// Schedules an engine swap: every chunk with sequence `>= seq` must be
    /// folded by `swap.engine`. Called by the feeder (which stamps the same
    /// engine on the jobs it submits from that boundary on) before any such
    /// chunk can reach the joiner, so the joiner can never fold a post-swap
    /// chunk with the pre-swap automaton.
    /// The relay re-seeds its path there from the open-tag path, as the
    /// joiner rebuilds its folder.
    pub fn schedule_swap(&self, seq: u64, swap: EngineSwap) {
        let names = swap.open_path.iter().map(Vec::as_slice);
        let folder = PrefixFolder::resume(swap.engine.transducer(), names, 0);
        let entry = folder.resolved().map(|(state, stack)| (state, stack.to_vec()));
        if let Some(mut mb) = self.lock_mailbox() {
            mb.sched.reseed(seq, entry);
            mb.swaps.insert(seq, swap);
        }
    }

    /// Joiner side: removes and returns the latest engine swap scheduled at
    /// or before chunk `seq` (earlier ones are subsumed — merged engines only
    /// grow). Call before folding chunk `seq`.
    pub fn take_swap_through(&self, seq: u64) -> Option<EngineSwap> {
        let mut mb = self.lock_mailbox()?;
        let due: Vec<u64> = mb.swaps.range(..=seq).map(|(&k, _)| k).collect();
        let mut latest = None;
        for key in due {
            latest = mb.swaps.remove(&key);
        }
        latest
    }

    /// Announces that exactly `total` chunks were submitted (stream ended).
    pub fn announce_total(&self, total: u64) {
        let Some(mut mb) = self.lock_mailbox() else { return };
        mb.sched.set_total(total);
        drop(mb);
        self.mailbox_cv.notify_all();
        self.fire_deliverable();
    }

    /// Marks the session dead (a pipeline stage panicked) and wakes every
    /// stage so nothing blocks on progress that will never come.
    ///
    /// Proceeds even through a poisoned mailbox lock: the `Mailbox` fields
    /// are plain collections that stay structurally valid after a holder
    /// unwound, and this is the path that winds the session down.
    pub fn poison(&self, message: String) {
        let (mut mb, _) = lock_recover(&self.mailbox);
        if mb.poisoned.is_none() {
            mb.poisoned = Some(message);
        }
        // Nothing of a dead session runs again.
        mb.sched.halt();
        self.dead.store(true, Ordering::SeqCst);
        drop(mb);
        self.mailbox_cv.notify_all();
        self.credits_cv.notify_all();
        // A non-blocking driver must observe the death on both sides: the
        // joiner to finalize, the feeder to discard its pending chunks.
        self.fire_deliverable();
        self.fire_credit();
    }

    /// The poison message, if the session died.
    pub fn poison_message(&self) -> Option<String> {
        lock_recover(&self.mailbox).0.poisoned.clone()
    }

    /// Joiner side: waits for chunk `seq`, or `None` once the stream ended
    /// (every chunk before `seq` folded) or the session died.
    pub fn wait_for(&self, seq: u64) -> Option<ChunkOutput> {
        let mut mb = self.lock_mailbox()?;
        loop {
            match self.take_locked(&mut mb, seq) {
                TryTake::Ready(out) => return Some(out),
                TryTake::Ended => return None,
                TryTake::Pending => {}
            }
            let (guard, p) = wait_recover(&self.mailbox_cv, mb);
            mb = guard;
            if p {
                drop(mb);
                self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
                return None;
            }
        }
    }

    /// Non-blocking [`SessionCore::wait_for`]: a reactor session's [`Fold`]
    /// polls the mailbox instead of parking on the condvar, and runs again
    /// after the next [`SessionEvents::on_deliverable`] when the chunk is
    /// [`TryTake::Pending`].
    pub fn try_take(&self, seq: u64) -> TryTake {
        match self.lock_mailbox() {
            Some(mut mb) => self.take_locked(&mut mb, seq),
            None => TryTake::Ended,
        }
    }

    /// One look at the mailbox for chunk `seq`, under its lock.
    fn take_locked(&self, mb: &mut Mailbox, seq: u64) -> TryTake {
        if let Some((out, lag)) = mb.sched.take(seq) {
            self.counters.raise_peak_join_lag(lag);
            return TryTake::Ready(out);
        }
        if mb.sched.ended(seq) {
            return TryTake::Ended;
        }
        TryTake::Pending
    }
}

/// Best-effort human-readable form of a panic payload.
pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A chunk ready for a worker.
struct Task {
    session: Arc<SessionCore>,
    job: Job,
    run: Run,
}

/// One session's fold, run as a job on the pool: the reactor's join task.
/// `run` must never block — a worker serves every session — and the
/// implementor keeps one session's runs from overlapping.
pub(crate) trait Fold: Send + Sync {
    fn run(self: Arc<Self>);
}

/// What a worker runs next.
enum Work {
    Chunk(Task),
    Fold(Arc<dyn Fold>),
}

/// The pool's shared queue: only work that may start now.
#[derive(Default)]
struct PoolQueue {
    /// Claimed head chunks, FIFO across sessions.
    heads: VecDeque<Task>,
    /// Sessions' folds, FIFO; the implementor queues each at most once.
    folds: VecDeque<Arc<dyn Fold>>,
    /// Sessions with chunks a worker that would otherwise idle may
    /// speculate on (each listed at most once).
    candidates: VecDeque<Arc<SessionCore>>,
}

pub(crate) struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    /// Heads and folds in `queue`, readable without its lock: a worker
    /// carrying a session's chain yields to them.
    ahead: AtomicUsize,
    /// Chunks submitted and not yet started, over all sessions.
    queued: AtomicUsize,
    peak_queue: AtomicUsize,
    chunks_in_order: AtomicU64,
    chunks_speculative: AtomicU64,
}

impl PoolShared {
    /// Acts on a session's scheduling change. A `worker` carries the claimed
    /// head on itself — returned, no wake — unless heads or folds are
    /// queued: then it yields, queueing its head behind them, and with no
    /// other head ahead of it runs the first fold itself (credits come back).
    fn dispatch(&self, session: &Arc<SessionCore>, wake: Wake, worker: bool) -> Option<Work> {
        let mut head = wake.head.map(|(job, run)| Task { session: Arc::clone(session), job, run });
        // RELAXED-OK: a fairness hint; the queue lock orders the hand-off
        // itself, and a stale count only lets a chain run one chunk longer.
        let carry = worker && self.ahead.load(Ordering::Relaxed) == 0;
        let mut next = if carry { head.take().map(Work::Chunk) } else { None };
        if head.is_none() && !wake.list {
            return next;
        }
        let mut queue = lock_recover(&self.queue).0;
        let mut wakes = 0;
        if wake.list {
            queue.candidates.push_back(Arc::clone(session));
            wakes += 1;
        }
        if let Some(task) = head {
            if worker && queue.heads.is_empty() {
                next = queue.folds.pop_front().map(Work::Fold);
            }
            queue.heads.push_back(task);
            if next.is_none() {
                // RELAXED-OK: the hint above; written under the queue lock.
                self.ahead.fetch_add(1, Ordering::Relaxed);
            }
            // A yielding worker that took no fold takes the queue's front
            // itself.
            wakes += usize::from(!worker || next.is_some());
        }
        drop(queue);
        for _ in 0..wakes {
            self.work_ready.notify_one();
        }
        next
    }

    /// Queues a session's fold behind the heads and wakes a worker for it.
    pub(crate) fn submit_fold(&self, fold: Arc<dyn Fold>) {
        let mut queue = lock_recover(&self.queue).0;
        queue.folds.push_back(fold);
        // RELAXED-OK: the hint of `dispatch`; written under the queue lock.
        self.ahead.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        self.work_ready.notify_one();
    }

    /// Blocks until work may start: a queued head first, then a fold, else a
    /// chunk to speculate on from a listed session; `None` once shut down
    /// and idle.
    fn next_work(&self) -> Option<Work> {
        // Poison recovery, same reasoning as `WorkerPool::submit`: the
        // shared queue must outlive any one session's panic.
        let mut queue = lock_recover(&self.queue).0;
        loop {
            let next = match queue.heads.pop_front() {
                Some(task) => Some(Work::Chunk(task)),
                None => queue.folds.pop_front().map(Work::Fold),
            };
            if next.is_some() {
                // RELAXED-OK: the fairness hint of `dispatch`.
                self.ahead.fetch_sub(1, Ordering::Relaxed);
                return next;
            }
            if let Some(session) = queue.candidates.pop_front() {
                // The session lock is never taken under the queue lock.
                drop(queue);
                let (job, relist) = session
                    .lock_mailbox()
                    .map_or((None, false), |mut mb| mb.sched.take_speculative(self.workers));
                let wake = Wake { head: None, list: relist };
                self.dispatch(&session, wake, false);
                if let Some(job) = job {
                    let run = Run::Speculative { head: false };
                    return Some(Work::Chunk(Task { session, job, run }));
                }
                queue = lock_recover(&self.queue).0;
                continue;
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            queue = wait_recover(&self.work_ready, queue).0;
        }
    }

    /// Runs one chunk; returns the session's next head when this worker is
    /// to carry on with it, or the fold it yielded to.
    fn run(&self, task: Task) -> Option<Work> {
        let Task { session: core, job, run } = task;
        // RELAXED-OK: a gauge behind a high-watermark stat; orders nothing.
        self.queued.fetch_sub(1, Ordering::Relaxed);
        if core.is_dead() {
            return None;
        }
        // The chunk index feeds the fold bookkeeping as a `usize`. On a
        // 64-bit target the conversion is lossless; on a 32-bit one a stream
        // past 2^32 chunks used to wrap silently (`job.seq as usize`) and
        // corrupt the join order — kill the one session whose stream got
        // there instead.
        let Ok(index) = usize::try_from(job.seq) else {
            core.poison(format!("chunk sequence {} overflows usize on this platform", job.seq));
            return None;
        };
        let started = Instant::now();
        let cpu_started = thread_cpu_time();
        // A panic while transducing one session's chunk must not take the
        // shared worker down (it serves every session) nor leave the
        // session's joiner waiting forever for an output that will never
        // arrive: catch it and poison the session instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if core.panic_on_chunk == Some(job.seq) {
                panic!("injected fault on chunk {}", job.seq);
            }
            let slice = &job.window.bytes()[job.range.clone()];
            let offset = job.window.base() + job.range.start;
            run.process(
                job.engine.transducer(),
                slice,
                offset,
                index,
                core.kind,
                core.resolve_spans,
            )
        }));
        let busy = started.elapsed();
        let cpu =
            cpu_started.zip(thread_cpu_time()).map_or(busy, |(from, to)| to.saturating_sub(from));
        // RELAXED-OK: monotonic stat accumulator; orders nothing.
        core.counters.worker_busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        core.telemetry.transduce_nanos.record_duration(busy);
        let (out, mut ran) = match result {
            Ok(done) => done,
            Err(panic) => {
                core.poison(format!(
                    "worker panicked on chunk {}: {}",
                    job.seq,
                    panic_message(&*panic)
                ));
                return None;
            }
        };
        let (session_count, pool_count) = if ran.in_order {
            (&core.counters.chunks_in_order, &self.chunks_in_order)
        } else {
            (&core.counters.chunks_speculative, &self.chunks_speculative)
        };
        // RELAXED-OK: monotonic stat counters; order nothing.
        session_count.fetch_add(1, Ordering::Relaxed);
        // RELAXED-OK: as above.
        pool_count.fetch_add(1, Ordering::Relaxed);
        ran.sample = (!sched::Job::is_tail(&job)).then(|| (cpu, job.range.len()));
        let wake = core.complete(job.seq, out, ran, self.workers);
        self.dispatch(&core, wake, true)
    }
}

/// The calling thread's CPU time, R's sample: wall time also counts the
/// time a preempted worker waits for a core, on a busy host enough to tip a
/// stream's early R below the break-even. `None` off Linux (wall time then).
#[cfg(target_os = "linux")]
fn thread_cpu_time() -> Option<Duration> {
    #[repr(C)]
    struct Timespec(std::ffi::c_long, std::ffi::c_long);
    extern "C" {
        fn clock_gettime(clock: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
    }
    let mut ts = Timespec(0, 0);
    // SAFETY: `ts` is a live, writable `struct timespec` for the whole call;
    // 3 is `CLOCK_THREAD_CPUTIME_ID` of Linux's `<time.h>`.
    let rc = unsafe { clock_gettime(3, &mut ts) };
    let (secs, nanos) = (u64::try_from(ts.0).ok()?, u32::try_from(ts.1).ok()?);
    (rc == 0).then(|| Duration::new(secs, nanos))
}

#[cfg(not(target_os = "linux"))]
fn thread_cpu_time() -> Option<Duration> {
    None
}

/// The shared pool of transducer workers.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads.
    pub fn new(workers: usize) -> WorkerPool {
        let count = workers.max(1);
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue::default()),
            work_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers: count,
            ahead: AtomicUsize::new(0),
            queued: AtomicUsize::new(0),
            peak_queue: AtomicUsize::new(0),
            chunks_in_order: AtomicU64::new(0),
            chunks_speculative: AtomicU64::new(0),
        });
        let workers = (0..count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("ppt-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    // UNWRAP-OK: thread-spawn failure is process-level
                    // resource exhaustion; no pool-scoped recovery exists.
                    .expect("failed to spawn worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Submits one chunk of `session`. It waits in the session until it is
    /// the relay's chunk or a worker would otherwise idle.
    ///
    /// The queue lock recovers from poisoning: the shared queue serves every
    /// session, and its collections are structurally valid even if a holder
    /// panicked — one session's failure must not wedge everyone's submits.
    pub fn submit(&self, session: &Arc<SessionCore>, job: Job) {
        // RELAXED-OK: high-watermark stat; racy max is acceptable and
        // orders nothing.
        let queued = self.shared.queued.fetch_add(1, Ordering::Relaxed) + 1;
        // RELAXED-OK: as above.
        self.shared.peak_queue.fetch_max(queued, Ordering::Relaxed);
        // It waits in the session, claimed at once as the relay's chunk.
        let wake = session.lock_mailbox().map_or_else(Wake::default, |mut mb| {
            mb.sched.submit(job);
            Wake { head: mb.sched.claim_head(), list: mb.sched.list(self.shared.workers) }
        });
        self.shared.dispatch(session, wake, false);
    }

    /// Peak number of chunks submitted and not yet started, over all
    /// sessions.
    pub fn peak_queue_depth(&self) -> usize {
        // RELAXED-OK: stat read; staleness is acceptable.
        self.shared.peak_queue.load(Ordering::Relaxed)
    }

    /// Chunks run `(in order, speculatively)` by this pool so far.
    pub fn chunk_modes(&self) -> (u64, u64) {
        // RELAXED-OK: stat reads; staleness is acceptable.
        let in_order = self.shared.chunks_in_order.load(Ordering::Relaxed);
        // RELAXED-OK: as above.
        (in_order, self.shared.chunks_speculative.load(Ordering::Relaxed))
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The queue side, for [`PoolShared::submit_fold`]; keeps no thread alive.
    pub fn shared(&self) -> &Arc<PoolShared> {
        &self.shared
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Set under the queue lock: a worker between its shutdown check and
        // its wait would otherwise miss the wake and never exit.
        let queue = lock_recover(&self.shared.queue).0;
        self.shared.shutdown.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut next = None;
    while let Some(work) = next.take().or_else(|| shared.next_work()) {
        next = match work {
            Work::Chunk(task) => shared.run(task),
            Work::Fold(fold) => {
                fold.run();
                None
            }
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionOptions;

    fn test_core() -> Arc<SessionCore> {
        let engine = Arc::new(Engine::builder().add_query("//a").unwrap().build().unwrap());
        Arc::new(SessionCore::new(
            engine,
            2,
            &SessionOptions::new(),
            Arc::new(RuntimeTelemetry::new()),
        ))
    }

    /// Panics while holding `mutex` on another thread, leaving it poisoned.
    fn poison_mutex<T: Send>(mutex: &Mutex<T>) {
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = mutex.lock().unwrap();
                panic!("deliberate poison");
            });
            assert!(handle.join().is_err());
        });
        assert!(mutex.is_poisoned());
    }

    #[test]
    fn poisoned_credit_lock_kills_only_the_session() {
        let core = test_core();
        poison_mutex(&core.credits);
        // The old `.expect("credits poisoned")` panicked here, taking the
        // calling thread (a feeder — possibly the user's thread) with it.
        assert!(!core.acquire_credit());
        assert!(core.is_dead());
        assert!(core.poison_message().unwrap().contains("poisoned"));
        // Further traffic on the dead session is a no-op, not a panic.
        core.release_credit();
        assert!(!core.acquire_credit());
    }

    #[test]
    fn poisoned_mailbox_lock_unblocks_the_joiner() {
        let core = test_core();
        poison_mutex(&core.mailbox);
        assert!(core.wait_for(0).is_none(), "joiner must bail out, not panic");
        assert!(core.is_dead());
    }

    #[test]
    fn pool_queue_survives_poisoning() {
        let pool = WorkerPool::new(1);
        poison_mutex(&pool.shared.queue);
        // The shared queue serves every session: submits keep working.
        let core = test_core();
        let window = SharedWindow::new(0, b"<a></a>".to_vec());
        pool.submit(&core, Job { engine: Arc::clone(&core.engine), window, range: 0..7, seq: 0 });
        core.announce_total(1);
        let out = core.wait_for(0);
        assert!(out.is_some(), "a worker must still pick the job up");
    }

    /// R's samples leave out waiting (here asleep, a worker preempted) and
    /// count work (here the clock reads themselves).
    #[cfg(target_os = "linux")]
    #[test]
    fn r_samples_count_work_not_waiting() {
        let start = thread_cpu_time().expect("Linux has a per-thread CPU clock");
        std::thread::sleep(Duration::from_millis(50));
        let slept = thread_cpu_time().unwrap() - start;
        assert!(slept < Duration::from_millis(25), "50 ms asleep read as {slept:?} of work");
        let deadline = Instant::now() + Duration::from_secs(10);
        while thread_cpu_time().unwrap() < start + slept + Duration::from_millis(5) {
            assert!(Instant::now() < deadline, "10 s of spinning never showed on the clock");
        }
    }
}
