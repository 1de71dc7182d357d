//! The shared worker pool and per-session pipeline state.
//!
//! One [`WorkerPool`] serves every session of a [`crate::Runtime`]: jobs
//! (one chunk each) from all sessions interleave in a single FIFO queue and
//! any worker can execute any session's chunk — the transducer tables live in
//! an `Arc<Engine>` carried by the job's session handle. Per-session fairness
//! falls out of the credit scheme: a session may only have
//! `inflight_chunks` jobs admitted at a time, so one slow consumer cannot
//! flood the queue.

use crate::retain::RetentionRing;
use crate::stats::Counters;
use crate::telemetry::RuntimeTelemetry;
use crate::SessionOptions;
use ppt_core::chunk::{process_chunk, ChunkOutput, EngineKind};
use ppt_core::Engine;
use ppt_xmlstream::SharedWindow;
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

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

/// One unit of worker work: a chunk of one session's window.
pub(crate) struct Job {
    pub session: Arc<SessionCore>,
    /// The engine whose transducer processes this chunk. Stamped by the
    /// feeder at submission time: after a mid-stream engine swap (a
    /// subscriber attached new queries to a shared stream) chunks before the
    /// swap boundary still run on the old automaton while later chunks run
    /// on the merged one — the two interleave freely in the queue.
    pub engine: Arc<Engine>,
    /// The window the chunk slices into (refcount-shared by all of its
    /// chunks, and by the retention ring when payload retention is on).
    pub window: SharedWindow,
    /// The chunk's byte range within the window.
    pub range: Range<usize>,
    /// Global chunk sequence number within the session.
    pub seq: u64,
    /// True only for the session's very first chunk (it starts from the
    /// single initial state).
    pub first: bool,
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

/// Reorder buffer between the workers and a session's joiner.
#[derive(Default)]
pub(crate) struct Mailbox {
    /// Completed chunk outputs keyed by sequence number.
    pub ready: BTreeMap<u64, ChunkOutput>,
    /// Engine swaps keyed by the first chunk sequence they apply to. A
    /// second swap scheduled at the same boundary overwrites the first —
    /// merged engines only ever grow, so the later one subsumes it.
    pub swaps: BTreeMap<u64, EngineSwap>,
    /// Total number of chunks the feeder will submit, once known (set by
    /// `finish`).
    pub total: Option<u64>,
    /// Why the session was poisoned (a worker panicked on one of its
    /// chunks), if it was.
    pub poisoned: Option<String>,
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
    /// The owning runtime's (= shard's) pipeline histograms. Shared by every
    /// session of that runtime; recording is relaxed atomics only, so the
    /// stages write into it straight from their hot loops.
    pub telemetry: Arc<RuntimeTelemetry>,
    /// Progress hooks for a non-blocking driver (set once, before the first
    /// byte is fed; `None` for the blocking entry points).
    events: OnceLock<Arc<dyn SessionEvents>>,
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
        SessionCore {
            engine,
            kind,
            resolve_spans,
            mailbox: Mutex::new(Mailbox::default()),
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

    /// Delivers a completed chunk to the joiner.
    pub fn deliver(&self, seq: u64, out: ChunkOutput) {
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return;
        }
        mb.ready.insert(seq, out);
        self.counters.raise_peak_reorder(mb.ready.len());
        drop(mb);
        self.mailbox_cv.notify_all();
        self.fire_deliverable();
    }

    /// Schedules an engine swap: every chunk with sequence `>= seq` must be
    /// folded by `swap.engine`. Called by the feeder (which stamps the same
    /// engine on the jobs it submits from that boundary on) before any such
    /// chunk can reach the joiner, so the joiner can never fold a post-swap
    /// chunk with the pre-swap automaton.
    pub fn schedule_swap(&self, seq: u64, swap: EngineSwap) {
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return;
        }
        mb.swaps.insert(seq, swap);
    }

    /// Joiner side: removes and returns the latest engine swap scheduled at
    /// or before chunk `seq` (earlier ones are subsumed — merged engines only
    /// grow). Call before folding chunk `seq`.
    pub fn take_swap_through(&self, seq: u64) -> Option<EngineSwap> {
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return None;
        }
        let due: Vec<u64> = mb.swaps.range(..=seq).map(|(&k, _)| k).collect();
        let mut latest = None;
        for key in due {
            latest = mb.swaps.remove(&key);
        }
        latest
    }

    /// Announces that exactly `total` chunks were submitted (stream ended).
    pub fn announce_total(&self, total: u64) {
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return;
        }
        mb.total = Some(total);
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
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return None;
        }
        loop {
            if let Some(out) = mb.ready.remove(&seq) {
                if let Some((&highest, _)) = mb.ready.iter().next_back() {
                    self.counters.raise_peak_join_lag(highest.saturating_sub(seq));
                }
                return Some(out);
            }
            if mb.poisoned.is_some() {
                return None;
            }
            if let Some(total) = mb.total {
                if seq >= total {
                    return None;
                }
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

    /// Non-blocking [`SessionCore::wait_for`]: the reactor's join executor
    /// polls the mailbox instead of parking on the condvar, retrying after
    /// the next [`SessionEvents::on_deliverable`] when the chunk is
    /// [`TryTake::Pending`].
    pub fn try_take(&self, seq: u64) -> TryTake {
        let (mut mb, poisoned) = lock_recover(&self.mailbox);
        if poisoned {
            drop(mb);
            self.poison("mailbox lock poisoned by a panicking pipeline stage".to_string());
            return TryTake::Ended;
        }
        if let Some(out) = mb.ready.remove(&seq) {
            if let Some((&highest, _)) = mb.ready.iter().next_back() {
                self.counters.raise_peak_join_lag(highest.saturating_sub(seq));
            }
            return TryTake::Ready(out);
        }
        if mb.poisoned.is_some() {
            return TryTake::Ended;
        }
        if let Some(total) = mb.total {
            if seq >= total {
                return TryTake::Ended;
            }
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

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    job_ready: Condvar,
    shutdown: AtomicBool,
    peak_queue: AtomicUsize,
}

/// The shared pool of transducer workers.
pub(crate) struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads.
    pub fn new(workers: usize) -> WorkerPool {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            job_ready: Condvar::new(),
            shutdown: AtomicBool::new(false),
            peak_queue: AtomicUsize::new(0),
        });
        let workers = (0..workers.max(1))
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

    /// Enqueues one chunk job.
    ///
    /// The queue lock recovers from poisoning: the shared queue serves every
    /// session, and a `VecDeque` is structurally valid even if a holder
    /// panicked — one session's failure must not wedge everyone's submits.
    pub fn submit(&self, job: Job) {
        let mut queue = lock_recover(&self.shared.queue).0;
        queue.push_back(job);
        // RELAXED-OK: high-watermark stat; racy max is acceptable and
        // orders nothing.
        self.shared.peak_queue.fetch_max(queue.len(), Ordering::Relaxed);
        drop(queue);
        self.shared.job_ready.notify_one();
    }

    /// Peak length the job queue has reached.
    pub fn peak_queue_depth(&self) -> usize {
        // RELAXED-OK: stat read; staleness is acceptable.
        self.shared.peak_queue.load(Ordering::Relaxed)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.job_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            // Poison recovery, same reasoning as `WorkerPool::submit`: the
            // shared queue must outlive any one session's panic.
            let mut queue = lock_recover(&shared.queue).0;
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = wait_recover(&shared.job_ready, queue).0;
            }
        };
        let core = Arc::clone(&job.session);
        // The chunk index feeds the fold bookkeeping as a `usize`. On a
        // 64-bit target the conversion is lossless; on a 32-bit one a stream
        // past 2^32 chunks used to wrap silently (`job.seq as usize`) and
        // corrupt the join order — kill the one session whose stream got
        // there instead.
        let Ok(seq_index) = usize::try_from(job.seq) else {
            core.poison(format!("chunk sequence {} overflows usize on this platform", job.seq));
            continue;
        };
        let started = Instant::now();
        // A panic while transducing one session's chunk must not take the
        // shared worker down (it serves every session) nor leave the
        // session's joiner waiting forever for an output that will never
        // arrive: catch it and poison the session instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_chunk(
                job.engine.transducer(),
                &job.window.bytes()[job.range.clone()],
                job.window.base() + job.range.start,
                seq_index,
                job.first,
                core.kind,
                core.resolve_spans,
            )
        }));
        let busy = started.elapsed();
        // RELAXED-OK: monotonic stat accumulator; orders nothing.
        core.counters.worker_busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        core.telemetry.transduce_nanos.record_duration(busy);
        match result {
            Ok(out) => core.deliver(job.seq, out),
            Err(panic) => {
                core.poison(format!(
                    "worker panicked on chunk {}: {}",
                    job.seq,
                    panic_message(&panic)
                ));
            }
        }
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
        pool.submit(Job {
            session: Arc::clone(&core),
            engine: Arc::clone(&core.engine),
            window: SharedWindow::new(0, b"<a></a>".to_vec()),
            range: 0..7,
            seq: 0,
            first: true,
        });
        core.announce_total(1);
        let out = core.wait_for(0);
        assert!(out.is_some(), "a worker must still pick the job up");
    }
}
