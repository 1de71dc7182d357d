//! The shared worker pool and per-session scheduling state.
//!
//! One [`WorkerPool`] serves every session of a [`crate::Runtime`]. A
//! session's submitted chunks wait in its own [`Mailbox`], not in a shared
//! queue, and each session carries a *relay*: the sequence number of the
//! chunk every earlier chunk of which has run, and that chunk's exact entry
//! state and stack, starting at `(q₀, ε)`. The pool's queue holds only work
//! that may start now:
//!
//! * **heads** — a session's relay chunk, claimed the moment it is both
//!   submitted and next. It runs in order from the exact entry
//!   ([`process_chunk_from`], one path, sequential speed); the worker that
//!   ran it publishes the exit into the relay and carries straight on with
//!   the session's next chunk if it is already waiting — no wake, no queue —
//!   unless other sessions' heads are queued, which it then lets go first.
//! * **candidates** — sessions with waiting chunks ahead of the relay that a
//!   worker which would otherwise idle may run from all states
//!   ([`process_chunk`], the paper's speculation), when the session's
//!   measured cost ratio R is below the worker count (see
//!   [`Mailbox::may_speculate`]). The relay passes such a chunk by following
//!   its mapping from the exact entry.
//!
//! Per-session fairness falls out of the credit scheme: a session may only
//! have `inflight_chunks` chunks admitted at a time, so one slow consumer
//! cannot flood the pool.

use crate::retain::RetentionRing;
use crate::stats::Counters;
use crate::telemetry::RuntimeTelemetry;
use crate::SessionOptions;
use ppt_automaton::StateId;
use ppt_core::chunk::{process_chunk, process_chunk_from, ChunkOutput, EngineKind};
use ppt_core::join::PrefixFolder;
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

impl Job {
    /// Under half the engine's chunk size — a window's tail, mostly. Its
    /// fixed cost per chunk swamps the per-byte one: never worth running from
    /// all states, and no sample of R.
    fn is_tail(&self) -> bool {
        2 * self.range.len() < self.engine.config().chunk_size
    }
}

/// Where a session's real execution path stands at its relay's chunk.
enum Path {
    /// The exact entry: state and whole stack (top last).
    Known(StateId, Vec<StateId>),
    /// A worker holds the entry and is running the chunk in order.
    Running,
    /// The path is lost (an underflow or a mismatched close): nothing the
    /// join folds emits a match again, and every chunk starts from all
    /// states — until an engine swap re-seeds the path.
    Lost,
}

/// A session's relay: the chunk every earlier chunk of which has run, and
/// that chunk's exact entry. It starts at chunk 0 in `(q₀, ε)`.
struct Relay {
    next: u64,
    path: Path,
}

/// What a session has measured of its two ways to run a chunk:
/// `(busy nanoseconds, bytes)` summed over its chunks of each kind, tails
/// ([`Job::is_tail`]) left out.
#[derive(Default)]
struct Costs {
    in_order: (u128, usize),
    speculative: (u128, usize),
    /// A speculative chunk is running while R is not known yet.
    probing: bool,
}

impl Costs {
    fn record(&mut self, in_order: bool, busy: Duration, bytes: usize) {
        let sum = if in_order { &mut self.in_order } else { &mut self.speculative };
        *sum = (sum.0 + busy.as_nanos(), sum.1 + bytes);
    }

    /// R: speculative ns/byte over in-order ns/byte — the number of workers
    /// at which running chunks from all states breaks even with running
    /// them one after another (§3.3's convergence overhead, measured).
    fn ratio(&self) -> Option<f64> {
        let per_byte = |(ns, bytes): (u128, usize)| (bytes > 0).then(|| ns as f64 / bytes as f64);
        Some(per_byte(self.speculative)? / per_byte(self.in_order)?.max(f64::MIN_POSITIVE))
    }
}

/// What a worker reports of a chunk it ran, besides the output.
struct Ran {
    /// The chunk was the relay's own.
    head: bool,
    /// It ran in order, from the exact entry; `exit` is then its exact exit.
    in_order: bool,
    exit: Option<(StateId, Vec<StateId>)>,
    /// The chunk's length, when it is a sample of R (not a tail).
    sample: Option<usize>,
}

/// How a worker runs a chunk.
pub(crate) enum Run {
    /// The session's head chunk from its exact entry, on one path.
    InOrder(StateId, Vec<StateId>),
    /// From all states; `head` when the chunk is the relay's own (its path
    /// is lost) rather than one ahead of it.
    Speculative { head: bool },
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
    /// Submitted chunks no worker has started, in sequence order. The
    /// relay's own chunk is never among them: it is claimed the moment it is
    /// both submitted and next.
    waiting: VecDeque<Job>,
    relay: Relay,
    costs: Costs,
    /// The session sits in the pool's list of speculation candidates.
    listed: bool,
    /// Completed chunk outputs keyed by sequence number. Those at or past
    /// the relay are speculative outputs it has not reached yet.
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

impl Mailbox {
    fn new(initial: StateId) -> Mailbox {
        Mailbox {
            waiting: VecDeque::new(),
            relay: Relay { next: 0, path: Path::Known(initial, Vec::new()) },
            costs: Costs::default(),
            listed: false,
            ready: BTreeMap::new(),
            swaps: BTreeMap::new(),
            total: None,
            poisoned: None,
        }
    }

    /// The relay reaches chunk `seq`: an engine swap scheduled there re-seeds
    /// the path for the new transducer from the open-tag path, exactly as
    /// the joiner's folder is rebuilt when it folds that chunk.
    fn enter(&mut self, seq: u64) {
        if let Some(swap) = self.swaps.get(&seq) {
            let names = swap.open_path.iter().map(Vec::as_slice);
            let folder = PrefixFolder::resume(swap.engine.transducer(), names, 0);
            self.relay.path = match folder.resolved() {
                Some((state, stack)) => Path::Known(state, stack.to_vec()),
                None => Path::Lost,
            };
        }
    }

    /// Carries the relay across the speculative outputs already delivered
    /// for its chunk and the ones after it, following each mapping from the
    /// exact entry. Runs in the same critical section that delivers a chunk,
    /// so the joiner cannot fold one of them before the relay passed it.
    fn pass_delivered(&mut self) {
        while self.ready.contains_key(&self.relay.next) {
            let seq = self.relay.next;
            self.enter(seq);
            let path = std::mem::replace(&mut self.relay.path, Path::Lost);
            if let (Path::Known(state, mut stack), Some(out)) = (path, self.ready.get(&seq)) {
                if let Some(exit) = out.mapping.exit_from(state, &mut stack) {
                    self.relay.path = Path::Known(exit, stack);
                }
            }
            self.relay.next += 1;
        }
    }

    /// Claims the relay's chunk if it is waiting, handing over its entry.
    fn claim_head(&mut self) -> Option<(Job, Run)> {
        if self.poisoned.is_some() || self.waiting.front()?.seq != self.relay.next {
            return None;
        }
        let job = self.waiting.pop_front()?;
        self.enter(job.seq);
        let run = match std::mem::replace(&mut self.relay.path, Path::Running) {
            Path::Known(state, stack) => Run::InOrder(state, stack),
            _ => {
                self.relay.path = Path::Lost;
                Run::Speculative { head: true }
            }
        };
        Some((job, run))
    }

    /// Whether a worker that would otherwise idle may run one of this
    /// session's waiting chunks from all states. Never on one worker; always
    /// once the path is lost (no chunk can run in order then); otherwise
    /// while R is below the worker count — the break-even — and, until R is
    /// known, one probe chunk at a time.
    fn may_speculate(&self, workers: usize) -> bool {
        if workers < 2 || self.poisoned.is_some() {
            return false;
        }
        if matches!(self.relay.path, Path::Lost) {
            return true;
        }
        match self.costs.ratio() {
            Some(r) => r < workers as f64,
            None => !self.costs.probing,
        }
    }

    /// Marks the session listed when it newly has chunks to speculate on;
    /// `true` asks the caller to put it on the pool's candidate list.
    fn list(&mut self, workers: usize) -> bool {
        let list = !self.listed
            && self.waiting.iter().any(|job| !job.is_tail())
            && self.may_speculate(workers);
        self.listed |= list;
        list
    }
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
        let mailbox = Mailbox::new(engine.transducer().initial());
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

    /// Feeder side: a submitted chunk waits in the session; it is claimed at
    /// once when it is the relay's chunk. Chunks of a dead session are
    /// dropped.
    fn enqueue(&self, job: Job, workers: usize) -> Wake {
        let Some(mut mb) = self.lock_mailbox() else { return Wake::default() };
        if mb.poisoned.is_some() {
            return Wake::default();
        }
        mb.waiting.push_back(job);
        let head = mb.claim_head();
        Wake { head, list: mb.list(workers) }
    }

    /// A worker that would otherwise idle: takes the waiting chunk farthest
    /// ahead of the relay (the one the in-order chain reaches last) that is
    /// not a tail, when the session may speculate. The flag says to list the
    /// session again.
    fn take_speculative(&self, workers: usize) -> (Option<Job>, bool) {
        let Some(mut mb) = self.lock_mailbox() else { return (None, false) };
        mb.listed = false;
        if !mb.may_speculate(workers) {
            return (None, false);
        }
        let at = mb.waiting.iter().rposition(|job| !job.is_tail());
        let job = at.and_then(|at| mb.waiting.remove(at));
        mb.costs.probing |= job.is_some() && mb.costs.ratio().is_none();
        (job, mb.list(workers))
    }

    /// A worker finished chunk `seq` (`exit`: the exact exit of an in-order
    /// run): moves the relay, delivers the output to the joiner and claims
    /// the relay's next chunk if it is waiting — for the caller to run.
    fn complete(&self, seq: u64, out: ChunkOutput, run: Ran, workers: usize) -> Wake {
        let Some(mut mb) = self.lock_mailbox() else { return Wake::default() };
        if let Some(bytes) = run.sample {
            mb.costs.record(run.in_order, out.stats.busy, bytes);
        }
        mb.costs.probing &= run.in_order;
        if run.head {
            mb.relay.next = seq + 1;
            if run.in_order {
                mb.relay.path = match run.exit {
                    Some((state, stack)) => Path::Known(state, stack),
                    None => Path::Lost,
                };
            }
        }
        mb.ready.insert(seq, out);
        self.counters.raise_peak_reorder(mb.ready.len());
        mb.pass_delivered();
        let wake = Wake { head: mb.claim_head(), list: mb.list(workers) };
        drop(mb);
        self.mailbox_cv.notify_all();
        self.fire_deliverable();
        wake
    }

    /// The session's last measured R (see [`Mailbox::may_speculate`]), once
    /// both kinds of chunk have run.
    pub fn speculation_ratio(&self) -> Option<f64> {
        lock_recover(&self.mailbox).0.costs.ratio()
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
        // Nothing of a dead session runs again.
        mb.waiting.clear();
        mb.relay.path = Path::Lost;
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

/// A chunk ready for a worker.
struct Task {
    session: Arc<SessionCore>,
    job: Job,
    run: Run,
}

/// The pool's shared queue: only work that may start now.
#[derive(Default)]
struct PoolQueue {
    /// Claimed head chunks, FIFO across sessions.
    heads: VecDeque<Task>,
    /// Sessions with chunks a worker that would otherwise idle may
    /// speculate on (each listed at most once).
    candidates: VecDeque<Arc<SessionCore>>,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    /// Heads in `queue`, readable without its lock: a worker carrying a
    /// session's chain yields to them.
    heads_queued: AtomicUsize,
    /// Chunks submitted and not yet started, over all sessions.
    queued: AtomicUsize,
    peak_queue: AtomicUsize,
    chunks_in_order: AtomicU64,
    chunks_speculative: AtomicU64,
}

impl PoolShared {
    /// Acts on a session's scheduling change. A `worker` carries the claimed
    /// head on itself — returned, no wake — unless other sessions' heads are
    /// waiting: then it yields, queueing its own behind them.
    fn dispatch(&self, session: &Arc<SessionCore>, wake: Wake, worker: bool) -> Option<Task> {
        let mut head = wake.head.map(|(job, run)| Task { session: Arc::clone(session), job, run });
        // RELAXED-OK: a fairness hint; the queue lock orders the hand-off
        // itself, and a stale count only lets a chain run one chunk longer.
        let carry = worker && self.heads_queued.load(Ordering::Relaxed) == 0;
        let carried = if carry { head.take() } else { None };
        if head.is_none() && !wake.list {
            return carried;
        }
        let mut queue = lock_recover(&self.queue).0;
        let mut wakes = 0;
        if wake.list {
            queue.candidates.push_back(Arc::clone(session));
            wakes += 1;
        }
        if let Some(task) = head {
            queue.heads.push_back(task);
            // RELAXED-OK: the hint above; written under the queue lock.
            self.heads_queued.fetch_add(1, Ordering::Relaxed);
            // A yielding worker takes the queue's front itself.
            wakes += usize::from(!worker);
        }
        drop(queue);
        for _ in 0..wakes {
            self.work_ready.notify_one();
        }
        carried
    }

    /// Blocks until a chunk may start: a queued head first, else a chunk to
    /// speculate on from a listed session; `None` once shut down and idle.
    fn next_task(&self) -> Option<Task> {
        // Poison recovery, same reasoning as `WorkerPool::submit`: the
        // shared queue must outlive any one session's panic.
        let mut queue = lock_recover(&self.queue).0;
        loop {
            if let Some(task) = queue.heads.pop_front() {
                // RELAXED-OK: the fairness hint of `dispatch`.
                self.heads_queued.fetch_sub(1, Ordering::Relaxed);
                return Some(task);
            }
            if let Some(session) = queue.candidates.pop_front() {
                // The session lock is never taken under the queue lock.
                drop(queue);
                let (job, relist) = session.take_speculative(self.workers);
                let wake = Wake { head: None, list: relist };
                self.dispatch(&session, wake, false);
                if let Some(job) = job {
                    return Some(Task { session, job, run: Run::Speculative { head: false } });
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
    /// to carry on with it.
    fn run(&self, task: Task) -> Option<Task> {
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
        let head = matches!(run, Run::InOrder(..) | Run::Speculative { head: true });
        let in_order = matches!(run, Run::InOrder(..));
        let started = Instant::now();
        // A panic while transducing one session's chunk must not take the
        // shared worker down (it serves every session) nor leave the
        // session's joiner waiting forever for an output that will never
        // arrive: catch it and poison the session instead.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if core.panic_on_chunk == Some(job.seq) {
                panic!("injected fault on chunk {}", job.seq);
            }
            let t = job.engine.transducer();
            let slice = &job.window.bytes()[job.range.clone()];
            let offset = job.window.base() + job.range.start;
            match run {
                Run::InOrder(state, stack) => {
                    process_chunk_from(t, slice, offset, index, state, stack, core.resolve_spans)
                }
                Run::Speculative { .. } => {
                    let out = process_chunk(
                        t,
                        slice,
                        offset,
                        index,
                        false,
                        core.kind,
                        core.resolve_spans,
                    );
                    (out, None)
                }
            }
        }));
        let busy = started.elapsed();
        // RELAXED-OK: monotonic stat accumulator; orders nothing.
        core.counters.worker_busy_nanos.fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
        core.telemetry.transduce_nanos.record_duration(busy);
        let (out, exit) = match result {
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
        let (session_count, pool_count) = if in_order {
            (&core.counters.chunks_in_order, &self.chunks_in_order)
        } else {
            (&core.counters.chunks_speculative, &self.chunks_speculative)
        };
        // RELAXED-OK: monotonic stat counters; order nothing.
        session_count.fetch_add(1, Ordering::Relaxed);
        // RELAXED-OK: as above.
        pool_count.fetch_add(1, Ordering::Relaxed);
        let sample = (!job.is_tail()).then(|| job.range.len());
        let ran = Ran { head, in_order, exit, sample };
        let wake = core.complete(job.seq, out, ran, self.workers);
        self.dispatch(&core, wake, true)
    }
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
            heads_queued: AtomicUsize::new(0),
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
        let wake = session.enqueue(job, self.shared.workers);
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
    let mut carried = None;
    while let Some(task) = carried.take().or_else(|| shared.next_task()) {
        carried = shared.run(task);
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
}
