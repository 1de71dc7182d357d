//! Exhaustive-interleaving model tests for the runtime's lock-free core.
//!
//! A mini-loom: [`explore`] runs a small concurrent protocol model under a
//! deterministic scheduler that enumerates **every** thread interleaving
//! (optionally under a preemption bound), instead of hoping a stress test
//! happens to hit the bad schedule. Each model mirrors a real protocol in
//! `ppt-runtime`, with the mirrored source cited next to each step, and
//! checks its invariant after every step of every interleaving.
//!
//! Covered protocols:
//!
//! - `Histogram` record/snapshot (`crates/runtime/src/telemetry.rs`)
//!   — snapshots never undercount their own buckets and totals are
//!   conserved once writers drain;
//! - the `Gate` connection-admission credit protocol
//!   (`crates/runtime/src/serve.rs`) — admitting threads acquiring and
//!   releasing around a concurrent `close` conserve slots (no double-free,
//!   never above capacity);
//! - the `delivering`-flag drop-accounting race between the joiner panic
//!   path and the session guard (`crates/runtime/src/session.rs` /
//!   `crates/runtime/src/reactor.rs`) — exactly one side accounts the
//!   in-flight delivery;
//! - the relay hand-off of the worker pool (`crates/runtime/src/pool.rs`):
//!   a worker that finishes a session's in-order chunk publishes its exit
//!   and carries on with the next chunk itself, racing the feeder's submits,
//!   a poisoning and the pool's shutdown — no chunk runs twice or out of
//!   order, and no wake-up is lost (three "teeth" variants each drop one);
//! - the reactor's fold job on the worker pool
//!   (`crates/runtime/src/reactor.rs` / `pool.rs`): deposits, outbox parks,
//!   the reactor's unparks and a poisoning race two workers — no fold is
//!   lost, two runs of one session never overlap, a parked fold resumes
//!   after a drain and a poison while parked still finalizes (two "teeth"
//!   variants each drop one re-check).
//!
//! Every exhaustive run also asserts a floor on the number of interleavings
//! actually explored, so a future refactor cannot quietly shrink the state
//! space into meaninglessness.

use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// The explorer
// ---------------------------------------------------------------------------

/// A protocol model: shared state plus per-thread step machines.
///
/// `step(tid)` advances thread `tid` by one *atomic action* — the
/// granularity at which the real code's interleavings differ (one atomic
/// load/store/RMW, or one critical section entered under a mutex). The
/// explorer calls `check` after every step, so invariants hold at every
/// observable point, not just at quiescence.
trait Model {
    fn reset(&mut self);
    fn thread_count(&self) -> usize;
    /// Thread finished its program.
    fn is_done(&self, tid: usize) -> bool;
    /// Thread could take a step right now (false models blocking: a mutex
    /// held elsewhere, or a condvar wait with no pending wake).
    fn is_enabled(&self, tid: usize) -> bool;
    fn step(&mut self, tid: usize);
    /// Panics when an invariant is violated.
    fn check(&self);
    /// Extra assertions once every thread is done.
    fn at_end(&self) {}
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Explored {
    /// Complete interleavings executed.
    executions: u64,
    /// Longest schedule seen (steps).
    max_depth: usize,
}

/// Exhaustively enumerates interleavings of `model` by depth-first search
/// over scheduling choices, replaying a prefix of recorded choices for each
/// execution (the model is `reset` every time, so runs are independent).
///
/// `max_preemptions` bounds *involuntary* context switches: switching away
/// from a thread that is still enabled costs one preemption, switching
/// because the current thread blocked or finished is free. `usize::MAX`
/// means a complete search. Bounded-preemption search is sound for bug
/// *finding* (most real concurrency bugs need very few preemptions) and
/// keeps bigger models tractable.
///
/// Deadlock is an invariant failure: if no thread is enabled but some are
/// not done, the explorer panics with the schedule length.
fn explore(model: &mut dyn Model, max_preemptions: usize) -> Explored {
    // Each frame: (choice taken, number of choices available at that point).
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let mut executions = 0u64;
    let mut max_depth = 0usize;
    loop {
        model.reset();
        let mut depth = 0usize;
        let mut preemptions = 0usize;
        let mut last: Option<usize> = None;
        loop {
            let n = model.thread_count();
            let runnable: Vec<usize> =
                (0..n).filter(|&t| !model.is_done(t) && model.is_enabled(t)).collect();
            if runnable.is_empty() {
                let stuck: Vec<usize> = (0..n).filter(|&t| !model.is_done(t)).collect();
                assert!(
                    stuck.is_empty(),
                    "deadlock after {depth} steps: threads {stuck:?} blocked forever"
                );
                break;
            }
            // Under an exhausted preemption budget, keep running the current
            // thread while it can run; a block or finish still switches.
            let choices: Vec<usize> = match last {
                Some(l) if preemptions >= max_preemptions && runnable.contains(&l) => vec![l],
                _ => runnable,
            };
            let pick = if depth < stack.len() {
                stack[depth].0
            } else {
                stack.push((0, choices.len()));
                0
            };
            // Replays see the same model state, hence the same choice count.
            assert_eq!(stack[depth].1, choices.len(), "nondeterministic model");
            let tid = choices[pick];
            if let Some(l) = last {
                if l != tid && !model.is_done(l) && model.is_enabled(l) {
                    preemptions += 1;
                }
            }
            model.step(tid);
            model.check();
            last = Some(tid);
            depth += 1;
        }
        model.at_end();
        executions += 1;
        max_depth = max_depth.max(depth);
        // Backtrack to the deepest frame with an untried alternative.
        loop {
            match stack.last_mut() {
                None => return Explored { executions, max_depth },
                Some(frame) if frame.0 + 1 < frame.1 => {
                    frame.0 += 1;
                    break;
                }
                Some(_) => {
                    stack.pop();
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// A modelled mutex + condvar (used by the relay and fold models)
// ---------------------------------------------------------------------------

/// One mutex and one condvar, at model granularity.
///
/// Threads interact through [`MiniLock::try_lock`] (a step that either
/// acquires or observes contention), `unlock`, `wait` (atomically releases
/// and parks — the waker must `notify` before the waiter becomes enabled
/// again, upon which it re-acquires the lock before continuing, exactly
/// like `std::sync::Condvar::wait`), and `notify_one` / `notify_all`.
#[derive(Debug, Default)]
struct MiniLock {
    holder: Option<usize>,
    /// Parked in `wait`, not yet notified (FIFO, like a fair condvar).
    waiters: VecDeque<usize>,
    /// Notified, now racing to re-acquire the mutex.
    wakeable: Vec<usize>,
}

impl MiniLock {
    fn reset(&mut self) {
        self.holder = None;
        self.waiters.clear();
        self.wakeable.clear();
    }

    fn lock_free(&self) -> bool {
        self.holder.is_none()
    }

    fn acquire(&mut self, tid: usize) {
        assert_eq!(self.holder, None, "thread {tid} acquired a held lock");
        self.wakeable.retain(|&t| t != tid);
        self.holder = Some(tid);
    }

    fn unlock(&mut self, tid: usize) {
        assert_eq!(self.holder, Some(tid), "thread {tid} unlocked a lock it does not hold");
        self.holder = None;
    }

    fn wait(&mut self, tid: usize) {
        self.unlock(tid);
        self.waiters.push_back(tid);
    }

    fn notify_one(&mut self) {
        if let Some(t) = self.waiters.pop_front() {
            self.wakeable.push(t);
        }
    }

    fn notify_all(&mut self) {
        while let Some(t) = self.waiters.pop_front() {
            self.wakeable.push(t);
        }
    }

    /// Whether `tid` can make progress on a lock-acquiring step right now.
    fn acquirable(&self, tid: usize) -> bool {
        self.lock_free() && !self.waiters.contains(&tid)
    }

    /// Whether a parked `tid` has been notified and can re-acquire.
    fn rewakeable(&self, tid: usize) -> bool {
        self.lock_free() && self.wakeable.contains(&tid)
    }
}

// ---------------------------------------------------------------------------
// Model: Histogram record vs. snapshot (telemetry.rs)
// ---------------------------------------------------------------------------
//
// Mirrors crates/runtime/src/telemetry.rs: `record` does three independent
// relaxed adds (bucket, sum, count) and `snapshot` reads buckets one by one
// then clamps `count` up to the bucket total. The invariants: a snapshot's
// count never undercounts its own buckets (else quantile() would index past
// the distribution), and totals are exactly conserved once writers drain.

struct HistogramModel {
    /// (bucket index, value) recorded by each writer thread.
    records: Vec<(usize, u64)>,
    buckets: [u64; 2],
    sum: u64,
    count: u64,
    /// Writer pc: 0 bucket add, 1 sum add, 2 count add, 3 done.
    wpc: Vec<u8>,
    /// Reader pc: 0..=1 read bucket i, 2 read count, 3 clamp+check, 4 done.
    rpc: u8,
    r_buckets: [u64; 2],
    r_count: u64,
}

impl HistogramModel {
    fn new(records: Vec<(usize, u64)>) -> HistogramModel {
        HistogramModel {
            records,
            buckets: [0; 2],
            sum: 0,
            count: 0,
            wpc: Vec::new(),
            rpc: 0,
            r_buckets: [0; 2],
            r_count: 0,
        }
    }
}

impl Model for HistogramModel {
    fn reset(&mut self) {
        self.buckets = [0; 2];
        self.sum = 0;
        self.count = 0;
        self.wpc = vec![0; self.records.len()];
        self.rpc = 0;
        self.r_buckets = [0; 2];
        self.r_count = 0;
    }

    fn thread_count(&self) -> usize {
        self.records.len() + 1
    }

    fn is_done(&self, tid: usize) -> bool {
        if tid < self.records.len() {
            self.wpc[tid] == 3
        } else {
            self.rpc == 4
        }
    }

    fn is_enabled(&self, _tid: usize) -> bool {
        true
    }

    fn step(&mut self, tid: usize) {
        if tid < self.records.len() {
            let (bucket, value) = self.records[tid];
            match self.wpc[tid] {
                // telemetry.rs record: `buckets[i].fetch_add(1, Relaxed)`.
                0 => self.buckets[bucket] += 1,
                // telemetry.rs record: `sum.fetch_add(value, Relaxed)`.
                1 => self.sum += value,
                // telemetry.rs record: `count.fetch_add(1, Relaxed)`.
                2 => self.count += 1,
                _ => unreachable!(),
            }
            self.wpc[tid] += 1;
        } else {
            match self.rpc {
                // telemetry.rs snapshot: per-bucket relaxed loads.
                i @ (0 | 1) => self.r_buckets[i as usize] = self.buckets[i as usize],
                2 => self.r_count = self.count,
                3 => {
                    // telemetry.rs snapshot: `count.max(bucket_total)`.
                    let bucket_total: u64 = self.r_buckets.iter().sum();
                    let clamped = self.r_count.max(bucket_total);
                    assert!(clamped >= bucket_total, "snapshot undercounts its own buckets");
                    // quantile()'s rank arithmetic walks `buckets` summing
                    // until it covers `rank <= count`; count >= bucket_total
                    // guarantees termination inside the array.
                    assert!(
                        clamped <= self.records.len() as u64,
                        "snapshot invented observations: {} > {}",
                        clamped,
                        self.records.len()
                    );
                }
                _ => unreachable!(),
            }
            self.rpc += 1;
        }
    }

    fn check(&self) {}

    fn at_end(&self) {
        // Conservation at quiescence.
        let total: u64 = self.buckets.iter().sum();
        assert_eq!(total, self.records.len() as u64);
        assert_eq!(self.count, self.records.len() as u64);
        let expect_sum: u64 = self.records.iter().map(|&(_, v)| v).sum();
        assert_eq!(self.sum, expect_sum);
    }
}

/// Two concurrent `Histogram::record`s against one `snapshot`: the
/// snapshot may be stale but never inconsistent in the ways `quantile` and
/// `mean` rely on.
#[test]
fn histogram_snapshot_conserves_counts() {
    let mut m = HistogramModel::new(vec![(0, 1), (1, 5)]);
    let explored = explore(&mut m, usize::MAX);
    assert!(
        explored.executions >= 1000,
        "state space collapsed: only {} interleavings",
        explored.executions
    );
}

// ---------------------------------------------------------------------------
// Model: the Gate connection-admission credit protocol (serve.rs)
// ---------------------------------------------------------------------------
//
// Mirrors crates/runtime/src/serve.rs `Gate`, which never blocks: a
// mutex-guarded slot count and a `closed` flag. `try_acquire` loads `closed`
// (set -> false), then under the lock takes a slot or finds none free;
// `release` adds a slot back under the lock; `close` stores the flag. Each
// modelled ingest thread admits connections: it calls `try_acquire` up to
// `attempts` times, and every slot it wins is a live connection it later
// releases. (The reactor's one ingest thread does both while `close` comes
// from the shutdown caller's thread; several admitting threads are a
// superset of those schedules.) A closer races them all. The invariants: the
// slot count never exceeds capacity (a double-release would), every missing
// slot is held by exactly one live connection, an acquire that saw the gate
// closed stops admitting, and the slots are all back at quiescence.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GatePc {
    /// try_acquire: the `closed` load.
    LoadClosed,
    /// try_acquire: under the lock, take a slot or find none free.
    TakeSlot,
    /// Holds one slot (a live connection); release: under the lock, add it
    /// back.
    Release,
    Done,
}

struct GateModel {
    capacity: usize,
    threads: usize,
    attempts: usize,
    /// Inject a double-release in thread 0 (teeth test).
    double_release: bool,
    slots: usize,
    closed: bool,
    pc: Vec<GatePc>,
    tried: Vec<usize>,
    acquired: Vec<usize>,
    released: Vec<usize>,
    closer_done: bool,
    /// Accumulated across executions: some schedule must find the gate full
    /// and some must find it closed, or those paths were never exercised.
    ever_full: bool,
    ever_closed: bool,
}

impl GateModel {
    fn new(capacity: usize, threads: usize, attempts: usize, double_release: bool) -> GateModel {
        GateModel {
            capacity,
            threads,
            attempts,
            double_release,
            slots: capacity,
            closed: false,
            pc: Vec::new(),
            tried: Vec::new(),
            acquired: Vec::new(),
            released: Vec::new(),
            closer_done: false,
            ever_full: false,
            ever_closed: false,
        }
    }

    fn closer_tid(&self) -> usize {
        self.threads
    }

    /// After a refused or finished admission: the next `try_acquire`, if
    /// the thread has attempts left.
    fn next_attempt(&self, tid: usize) -> GatePc {
        if self.tried[tid] < self.attempts {
            GatePc::LoadClosed
        } else {
            GatePc::Done
        }
    }
}

impl Model for GateModel {
    fn reset(&mut self) {
        self.slots = self.capacity;
        self.closed = false;
        self.pc = vec![GatePc::LoadClosed; self.threads];
        self.tried = vec![0; self.threads];
        self.acquired = vec![0; self.threads];
        self.released = vec![0; self.threads];
        self.closer_done = false;
    }

    fn thread_count(&self) -> usize {
        self.threads + 1
    }

    fn is_done(&self, tid: usize) -> bool {
        if tid == self.closer_tid() {
            self.closer_done
        } else {
            self.pc[tid] == GatePc::Done
        }
    }

    fn is_enabled(&self, _tid: usize) -> bool {
        // Nothing in the protocol waits: every critical section is one step.
        true
    }

    fn step(&mut self, tid: usize) {
        if tid == self.closer_tid() {
            // serve.rs Gate::close: `closed.store(true, SeqCst)`.
            self.closed = true;
            self.closer_done = true;
            return;
        }
        self.pc[tid] = match self.pc[tid] {
            GatePc::LoadClosed => {
                self.tried[tid] += 1;
                if self.closed {
                    // serve.rs Gate::try_acquire: `closed` observed -> false;
                    // a shutting-down reactor stops accepting for good.
                    self.ever_closed = true;
                    GatePc::Done
                } else {
                    GatePc::TakeSlot
                }
            }
            GatePc::TakeSlot => {
                // serve.rs Gate::try_acquire: under `lock_recover(&self.slots)`,
                // `*slots == 0 -> false`, else `*slots -= 1; true`.
                if self.slots == 0 {
                    self.ever_full = true;
                    self.next_attempt(tid)
                } else {
                    self.slots -= 1;
                    self.acquired[tid] += 1;
                    GatePc::Release
                }
            }
            GatePc::Release => {
                // serve.rs Gate::release: `*lock_recover(&self.slots).0 += 1`.
                self.slots += 1;
                self.released[tid] += 1;
                if self.double_release && tid == 0 && self.released[tid] == 1 {
                    GatePc::Release
                } else {
                    self.next_attempt(tid)
                }
            }
            GatePc::Done => unreachable!("stepped a finished ingest thread"),
        };
    }

    fn check(&self) {
        assert!(
            self.slots <= self.capacity,
            "slot over-release: {} slots with capacity {}",
            self.slots,
            self.capacity
        );
        // Credit conservation: every missing slot is held by exactly one
        // live connection, between its successful acquire and its release.
        let held = self.pc.iter().filter(|&&pc| pc == GatePc::Release).count();
        assert_eq!(
            self.capacity - self.slots,
            held,
            "credit imbalance: {} outstanding vs {} holders",
            self.capacity - self.slots,
            held
        );
    }

    fn at_end(&self) {
        assert_eq!(self.slots, self.capacity, "slots not restored at quiescence");
        for t in 0..self.threads {
            assert_eq!(
                self.acquired[t], self.released[t],
                "thread {t} acquired {} slots and released {}",
                self.acquired[t], self.released[t]
            );
        }
    }
}

/// Three ingest threads racing for one slot while the server closes, full
/// search: slots are conserved in every interleaving, and both the
/// gate-full and the gate-closed refusals are exercised somewhere in the
/// state space. At three steps per admission (load `closed`, take a slot,
/// release it) and one for the close, the complete search is exactly 2 934
/// interleavings; the floor pins that.
#[test]
fn gate_credits_conserved_under_close() {
    let mut m = GateModel::new(1, 3, 1, false);
    let explored = explore(&mut m, usize::MAX);
    assert!(m.ever_full, "no schedule ever found the gate full");
    assert!(m.ever_closed, "no schedule ever observed the closed gate");
    assert!(
        explored.executions >= 2_934,
        "state space collapsed: only {} interleavings",
        explored.executions
    );
}

/// Two slots, three ingest threads admitting two connections each,
/// bounded preemption (the bigger space): the conservation invariant holds
/// on every explored schedule — exactly 37 830 of them at three
/// preemptions.
#[test]
fn gate_two_slots_bounded_preemption() {
    let mut m = GateModel::new(2, 3, 2, false);
    let explored = explore(&mut m, 3);
    assert!(
        explored.executions >= 37_830,
        "state space collapsed: only {} interleavings",
        explored.executions
    );
}

/// Teeth: a connection released twice must trip the conservation checks —
/// proving the invariant actually guards against double-freeing a slot.
#[test]
fn gate_double_release_is_caught() {
    let mut m = GateModel::new(1, 2, 1, true);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        explore(&mut m, usize::MAX);
    }));
    assert!(caught.is_err(), "double-release survived every invariant check");
}

// ---------------------------------------------------------------------------
// Model: the delivering-flag drop-accounting race (session.rs / reactor.rs)
// ---------------------------------------------------------------------------
//
// Mirrors `joiner_guarded` (session.rs) racing the joiner panic path
// (reactor.rs, `JoinTask`'s `Fold::run`): both sides
// `delivering.swap(false, AcqRel)` and only the side that saw `true` counts
// the in-flight delivery as dropped. Exactly one side must win, in every
// interleaving.

struct DeliveringModel {
    flag: bool,
    dropped: u64,
    /// Per racer: 0 = about to swap, 1 = saw `old`, may increment, 2 done.
    pc: Vec<u8>,
    saw_true: Vec<bool>,
}

impl Model for DeliveringModel {
    fn reset(&mut self) {
        self.flag = true;
        self.dropped = 0;
        self.pc = vec![0; 2];
        self.saw_true = vec![false; 2];
    }

    fn thread_count(&self) -> usize {
        2
    }

    fn is_done(&self, tid: usize) -> bool {
        self.pc[tid] == 2
    }

    fn is_enabled(&self, _tid: usize) -> bool {
        true
    }

    fn step(&mut self, tid: usize) {
        match self.pc[tid] {
            0 => {
                // session.rs / reactor.rs: `delivering.swap(false, AcqRel)` —
                // one atomic action; the AcqRel pairing is what entitles the
                // winner to read the state published before the flag.
                self.saw_true[tid] = self.flag;
                self.flag = false;
                self.pc[tid] = 1;
            }
            1 => {
                if self.saw_true[tid] {
                    // `dropped_matches.fetch_add(1, Relaxed)` — only the winner.
                    self.dropped += 1;
                }
                self.pc[tid] = 2;
            }
            _ => unreachable!(),
        }
    }

    fn check(&self) {
        assert!(self.dropped <= 1, "both racers accounted the same delivery");
    }

    fn at_end(&self) {
        assert_eq!(self.dropped, 1, "nobody accounted the in-flight delivery");
        assert!(self.saw_true.iter().filter(|&&s| s).count() == 1, "swap not atomic");
    }
}

/// The guard/panic-path race over `delivering`: exactly one side accounts
/// the dropped delivery in every interleaving.
#[test]
fn delivering_flag_accounts_exactly_once() {
    let mut m = DeliveringModel { flag: true, dropped: 0, pc: Vec::new(), saw_true: Vec::new() };
    let explored = explore(&mut m, usize::MAX);
    assert_eq!(explored.max_depth, 4);
    assert!(explored.executions >= 2, "both orders must be explored");
}

// ---------------------------------------------------------------------------
// Model: the relay hand-off of the worker pool (pool.rs)
// ---------------------------------------------------------------------------
//
// Mirrors crates/runtime/src/pool.rs for one session on two workers. The
// feeder's `SessionCore::enqueue` claims a submitted chunk when it is the
// relay's next, and `PoolShared::dispatch` queues the claimed head and wakes
// one worker; a worker's `next_task` pops a head or waits on `work_ready`;
// after running a head, `SessionCore::complete` publishes its exit, delivers
// it, and claims the relay's next chunk, which the worker runs itself — no
// queue, no wake. The joiner (`wait_for`) takes the chunks in order, then
// drops the pool (`WorkerPool::drop`). A poisoner (`SessionCore::poison`)
// races all of it. Speculation is left out: it only takes chunks the relay
// has not claimed, and the relay passes their outputs in the critical
// section that delivers them. The joiner drops the pool only once the feed is
// over: the runtime that owns the pool outlives its sessions' feeders.

const RELAY_CHUNKS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RelayBug {
    None,
    /// `dispatch` queues a head without waking a worker.
    DropWake,
    /// `complete` publishes the exit but does not claim the next chunk.
    NoCarry,
    /// `WorkerPool::drop` sets `shutdown` without the queue lock.
    UnlockedShutdown,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeederPc {
    Enqueue,
    /// Queue the claimed head and wake a worker.
    Dispatch(usize),
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WorkerPc {
    /// `next_task`: take the queue lock.
    Lock,
    /// Holding the queue lock: pop a head, see the shutdown, or go to wait.
    Check,
    /// Holding the queue lock: park on `work_ready`.
    Wait,
    Parked,
    /// Transduce the chunk, outside any lock.
    Run(usize),
    /// `complete`: publish the exit, deliver, claim the next head.
    Complete(usize),
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JoinerPc {
    Take,
    Parked,
    /// `WorkerPool::drop`: set `shutdown`.
    Shutdown,
    /// `WorkerPool::drop`: `work_ready.notify_all()`.
    Notify,
    Done,
}

const FEEDER: usize = 0;
const JOINER: usize = 3;
const POISONER: usize = 4;

struct RelayModel {
    bug: RelayBug,
    poisoner: bool,
    mailbox: MiniLock,
    queue: MiniLock,
    // Mailbox state.
    waiting: VecDeque<usize>,
    relay_next: usize,
    delivered: Vec<bool>,
    poisoned: bool,
    // Pool state.
    heads: VecDeque<usize>,
    shutdown: bool,
    // Threads.
    feeder: FeederPc,
    submitted: usize,
    workers: [WorkerPc; 2],
    joiner: JoinerPc,
    taken: usize,
    poisoner_done: bool,
    runs: Vec<u32>,
    /// Accumulated across executions: the paths the test means to cover.
    ever_carried: bool,
    ever_woken: bool,
    ever_poisoned_mid_stream: bool,
}

impl RelayModel {
    fn new(bug: RelayBug, poisoner: bool) -> RelayModel {
        RelayModel {
            bug,
            poisoner,
            mailbox: MiniLock::default(),
            queue: MiniLock::default(),
            waiting: VecDeque::new(),
            relay_next: 0,
            delivered: Vec::new(),
            poisoned: false,
            heads: VecDeque::new(),
            shutdown: false,
            feeder: FeederPc::Enqueue,
            submitted: 0,
            workers: [WorkerPc::Lock; 2],
            joiner: JoinerPc::Take,
            taken: 0,
            poisoner_done: false,
            runs: Vec::new(),
            ever_carried: false,
            ever_woken: false,
            ever_poisoned_mid_stream: false,
        }
    }

    /// pool.rs `Mailbox::claim_head`: the relay's chunk, if it is waiting.
    fn claim_head(&mut self) -> Option<usize> {
        if self.poisoned || self.waiting.front() != Some(&self.relay_next) {
            return None;
        }
        self.waiting.pop_front()
    }

    /// pool.rs `SessionCore::wait_for`, one pass under the mailbox lock.
    fn joiner_check(&mut self) {
        if self.taken < RELAY_CHUNKS && self.delivered[self.taken] {
            self.taken += 1;
            self.mailbox.unlock(JOINER);
        } else if self.poisoned || self.taken == RELAY_CHUNKS {
            self.mailbox.unlock(JOINER);
            self.joiner = JoinerPc::Shutdown;
        } else {
            self.mailbox.wait(JOINER);
            self.joiner = JoinerPc::Parked;
        }
    }

    fn step_worker(&mut self, w: usize, tid: usize) {
        self.workers[w] = match self.workers[w] {
            WorkerPc::Lock => {
                self.queue.acquire(tid);
                WorkerPc::Check
            }
            WorkerPc::Parked => {
                self.queue.acquire(tid);
                self.ever_woken = true;
                WorkerPc::Check
            }
            WorkerPc::Check => {
                // pool.rs `next_task`: heads first, then the shutdown flag.
                if let Some(seq) = self.heads.pop_front() {
                    self.queue.unlock(tid);
                    WorkerPc::Run(seq)
                } else if self.shutdown {
                    self.queue.unlock(tid);
                    WorkerPc::Done
                } else {
                    WorkerPc::Wait
                }
            }
            WorkerPc::Wait => {
                self.queue.wait(tid);
                WorkerPc::Parked
            }
            WorkerPc::Run(seq) => {
                // pool.rs `PoolShared::run`: a dead session's chunk is dropped.
                if self.poisoned {
                    WorkerPc::Lock
                } else {
                    assert_eq!(self.relay_next, seq, "chunk {seq} ran before its predecessor");
                    self.runs[seq] += 1;
                    WorkerPc::Complete(seq)
                }
            }
            WorkerPc::Complete(seq) => {
                self.mailbox.acquire(tid);
                self.relay_next = seq + 1;
                self.delivered[seq] = true;
                let next = if self.bug == RelayBug::NoCarry { None } else { self.claim_head() };
                self.mailbox.notify_all();
                self.mailbox.unlock(tid);
                // pool.rs `dispatch(worker = true)`: no other session's head
                // is queued, so the worker carries the claimed head itself.
                match next {
                    Some(next) => {
                        self.ever_carried = true;
                        WorkerPc::Run(next)
                    }
                    None => WorkerPc::Lock,
                }
            }
            WorkerPc::Done => unreachable!("stepped a finished worker"),
        };
    }

    /// Chunks the relay holds: claimed by the feeder, queued, or on a worker.
    fn in_hand(&self) -> usize {
        let feeder = usize::from(matches!(self.feeder, FeederPc::Dispatch(_)));
        let on_workers = self
            .workers
            .iter()
            .filter(|pc| matches!(pc, WorkerPc::Run(_) | WorkerPc::Complete(_)))
            .count();
        feeder + self.heads.len() + on_workers
    }
}

impl Model for RelayModel {
    fn reset(&mut self) {
        self.mailbox.reset();
        self.queue.reset();
        self.waiting.clear();
        self.relay_next = 0;
        self.delivered = vec![false; RELAY_CHUNKS];
        self.poisoned = false;
        self.heads.clear();
        self.shutdown = false;
        self.feeder = FeederPc::Enqueue;
        self.submitted = 0;
        self.workers = [WorkerPc::Lock; 2];
        self.joiner = JoinerPc::Take;
        self.taken = 0;
        self.poisoner_done = !self.poisoner;
        self.runs = vec![0; RELAY_CHUNKS];
    }

    fn thread_count(&self) -> usize {
        if self.poisoner {
            5
        } else {
            4
        }
    }

    fn is_done(&self, tid: usize) -> bool {
        match tid {
            FEEDER => self.feeder == FeederPc::Done,
            JOINER => self.joiner == JoinerPc::Done,
            POISONER => self.poisoner_done,
            w => self.workers[w - 1] == WorkerPc::Done,
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        match tid {
            FEEDER => match self.feeder {
                FeederPc::Enqueue => self.mailbox.acquirable(tid),
                FeederPc::Dispatch(_) => self.queue.acquirable(tid),
                FeederPc::Done => false,
            },
            JOINER => match self.joiner {
                JoinerPc::Take => self.mailbox.acquirable(tid),
                JoinerPc::Parked => self.mailbox.rewakeable(tid),
                // The runtime that owns the pool outlives the session's feed.
                JoinerPc::Shutdown => {
                    self.feeder == FeederPc::Done
                        && (self.bug == RelayBug::UnlockedShutdown || self.queue.acquirable(tid))
                }
                JoinerPc::Notify => true,
                JoinerPc::Done => false,
            },
            POISONER => self.mailbox.acquirable(tid),
            w => match self.workers[w - 1] {
                WorkerPc::Lock => self.queue.acquirable(tid),
                WorkerPc::Parked => self.queue.rewakeable(tid),
                WorkerPc::Check | WorkerPc::Wait => self.queue.holder == Some(tid),
                WorkerPc::Run(_) => true,
                WorkerPc::Complete(_) => self.mailbox.acquirable(tid),
                WorkerPc::Done => false,
            },
        }
    }

    fn step(&mut self, tid: usize) {
        match tid {
            FEEDER => {
                let more = |submitted| {
                    if submitted < RELAY_CHUNKS {
                        FeederPc::Enqueue
                    } else {
                        FeederPc::Done
                    }
                };
                self.feeder = match self.feeder {
                    FeederPc::Enqueue => {
                        // pool.rs `SessionCore::enqueue`.
                        self.mailbox.acquire(tid);
                        let mut claimed = None;
                        if !self.poisoned {
                            self.waiting.push_back(self.submitted);
                            claimed = self.claim_head();
                        }
                        self.mailbox.unlock(tid);
                        self.submitted += 1;
                        claimed.map_or(more(self.submitted), FeederPc::Dispatch)
                    }
                    FeederPc::Dispatch(seq) => {
                        // pool.rs `PoolShared::dispatch(worker = false)`.
                        self.queue.acquire(tid);
                        self.heads.push_back(seq);
                        self.queue.unlock(tid);
                        if self.bug != RelayBug::DropWake {
                            self.queue.notify_one();
                        }
                        more(self.submitted)
                    }
                    FeederPc::Done => unreachable!("stepped a finished feeder"),
                };
            }
            JOINER => match self.joiner {
                JoinerPc::Take | JoinerPc::Parked => {
                    self.mailbox.acquire(tid);
                    self.joiner = JoinerPc::Take;
                    self.joiner_check();
                }
                JoinerPc::Shutdown => {
                    if self.bug == RelayBug::UnlockedShutdown {
                        self.shutdown = true;
                    } else {
                        self.queue.acquire(tid);
                        self.shutdown = true;
                        self.queue.unlock(tid);
                    }
                    self.joiner = JoinerPc::Notify;
                }
                JoinerPc::Notify => {
                    self.queue.notify_all();
                    self.joiner = JoinerPc::Done;
                }
                JoinerPc::Done => unreachable!("stepped a finished joiner"),
            },
            POISONER => {
                // pool.rs `SessionCore::poison`.
                self.mailbox.acquire(tid);
                let delivered = self.delivered.iter().filter(|&&d| d).count();
                self.ever_poisoned_mid_stream |= delivered > 0 && delivered < RELAY_CHUNKS;
                self.poisoned = true;
                self.waiting.clear();
                self.mailbox.notify_all();
                self.mailbox.unlock(tid);
                self.poisoner_done = true;
            }
            w => self.step_worker(w - 1, tid),
        }
    }

    fn check(&self) {
        for (seq, &n) in self.runs.iter().enumerate() {
            assert!(n <= 1, "chunk {seq} ran {n} times");
        }
        assert!(self.in_hand() <= 1, "two of the session's chunks held at once");
    }

    fn at_end(&self) {
        assert!(self.heads.is_empty(), "a queued head outlived the pool");
        if !self.poisoned {
            assert_eq!(self.taken, RELAY_CHUNKS, "the joiner missed a chunk");
            assert!(self.runs.iter().all(|&n| n == 1), "a chunk never ran: {:?}", self.runs);
        }
    }
}

/// The relay hand-off racing the feeder's submits, a poisoning and the
/// pool's shutdown, under a one-preemption bound (~37k interleavings): every
/// chunk runs once and in order, the session never wedges (the explorer's
/// deadlock check) and the carry, the wait/wake and the mid-stream poisoning
/// paths are all exercised.
#[test]
fn relay_hand_off_runs_every_chunk_once_in_order() {
    let mut m = RelayModel::new(RelayBug::None, true);
    let explored = explore(&mut m, 1);
    assert!(m.ever_carried, "no schedule carried a chunk on the finishing worker");
    assert!(m.ever_woken, "no schedule parked a worker and woke it");
    assert!(m.ever_poisoned_mid_stream, "no schedule poisoned the session mid-stream");
    assert!(
        explored.executions >= 1000,
        "state space collapsed: only {} interleavings",
        explored.executions
    );
}

/// Teeth: each variant drops one wake the relay relies on — the feeder's
/// notify, the finishing worker's claim of the next chunk, the shutdown
/// under the queue lock — and the explorer must find the wedge.
#[test]
fn relay_without_its_wakes_is_caught() {
    for bug in [RelayBug::DropWake, RelayBug::NoCarry, RelayBug::UnlockedShutdown] {
        let mut m = RelayModel::new(bug, false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explore(&mut m, 1);
        }));
        let panic = caught.expect_err("a dropped wake survived every interleaving");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.starts_with("deadlock"), "{bug:?} caught as {message:?}, not a wedge");
    }
}

// ---------------------------------------------------------------------------
// Model: the reactor's fold job on the worker pool (reactor.rs / pool.rs)
// ---------------------------------------------------------------------------
//
// Mirrors crates/runtime/src/reactor.rs for one served session on two pool
// workers. A depositor (a worker completing chunks: `SessionCore::complete`,
// then `announce_total`) puts each output in the mailbox and calls
// `enqueue_task`: its `sched` RMW moves IDLE → QUEUED and
// `PoolShared::submit_fold` pushes the job and wakes a worker, or it moves
// RUNNING → RERUN. A worker pops the fold (`next_work`), consumes the queue
// mark (`Fold::run`: `sched = RUNNING`) and runs `join_steps`: park on a
// full outbox (set `stalled_on_outbox`, re-check), `try_take` and fold one
// chunk into the outbox — or finalize — and at the end `swap(IDLE)`, queueing
// itself again if it saw RERUN. The reactor drains the outbox and, below the
// cap, swaps `stalled_on_outbox` off and queues the fold; once the session
// finalized, its outbox drained and its feed ended, it shuts the pool down
// (the runtime that owns the pool outlives its sessions). A poisoner
// (`SessionCore::poison` from a worker's panic, then `fire_deliverable`)
// races all of it. Each folded chunk fills the one-frame outbox, so every
// later fold parks until a drain.
//
// A lost fold leaves the session unfinalized with nothing queued: the
// reactor waits on an empty outbox and the workers on an empty queue, which
// the explorer reports as a deadlock.

const FOLD_CHUNKS: usize = 2;
const OUTBOX_CAP: usize = 1;

/// `JoinTask::sched`.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RERUN: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldBug {
    None,
    /// The queue mark is cleared after the run instead of before it, so a
    /// notification during the run is swallowed by the dedupe.
    ClearQueuedAfterRun,
    /// `join_steps` parks without re-checking the outbox after setting
    /// `stalled_on_outbox`, so a drain in between never unparks it.
    NoStallRecheck,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DepositorPc {
    /// Deposit chunk `i`, or announce the total at `i == FOLD_CHUNKS`.
    Op(usize),
    /// `enqueue_task` after op `i - 1`.
    Notify(usize),
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FoldPc {
    /// `next_work` under the queue lock: pop a fold and consume its queue
    /// mark, see the shutdown, or park on `work_ready`.
    Next,
    Parked,
    /// `join_steps`: `outbox.over_cap()`.
    CheckCap,
    /// `stalled_on_outbox.store(true)`.
    SetStalled,
    /// The re-check: still over the cap parks, else `stalled_on_outbox`
    /// is cleared again.
    Recheck,
    /// `try_take` under the mailbox lock, then `fold_one` into the outbox
    /// — or `finalize` on `Ended`, or return on `Pending`.
    Take,
    /// `sched.swap(IDLE)`.
    End,
    /// `enqueue_task` after a run that saw RERUN.
    Requeue,
    Done,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReactorPc {
    /// `handle_writable`: drain the outbox (POLLOUT), or wind down once the
    /// session finalized and its outbox is empty.
    Drain,
    /// `!outbox.over_cap()`, then `stalled_on_outbox.swap(false)`.
    Unpark,
    Notify,
    /// `WorkerPool::drop`: `shutdown` under the queue lock, `notify_all`.
    Shutdown,
    Done,
}

const FOLD_DEPOSITOR: usize = 0;
const FOLD_REACTOR: usize = 3;
const FOLD_POISONER: usize = 4;

struct FoldModel {
    bug: FoldBug,
    poisoner: bool,
    queue: MiniLock,
    // Mailbox.
    ready: [bool; FOLD_CHUNKS],
    total_known: bool,
    poisoned: bool,
    // The join task.
    sched: u8,
    stalled: bool,
    outbox: usize,
    folded: Vec<usize>,
    finalized: bool,
    // The pool.
    folds: usize,
    shutdown: bool,
    // Threads.
    depositor: DepositorPc,
    workers: [FoldPc; 2],
    in_run: [bool; 2],
    reactor: ReactorPc,
    /// 0 = about to poison, 1 = about to enqueue, 2 = done.
    poisoner_pc: u8,
    /// Within one execution: the reactor unparked the fold.
    unparked: bool,
    /// Accumulated across executions: the paths the test means to cover.
    ran_on: [bool; 2],
    ever_rerun: bool,
    ever_resumed_after_drain: bool,
    ever_poisoned_while_parked: bool,
}

impl FoldModel {
    fn new(bug: FoldBug, poisoner: bool) -> FoldModel {
        FoldModel {
            bug,
            poisoner,
            queue: MiniLock::default(),
            ready: [false; FOLD_CHUNKS],
            total_known: false,
            poisoned: false,
            sched: IDLE,
            stalled: false,
            outbox: 0,
            folded: Vec::new(),
            finalized: false,
            folds: 0,
            shutdown: false,
            depositor: DepositorPc::Op(0),
            workers: [FoldPc::Next; 2],
            in_run: [false; 2],
            reactor: ReactorPc::Drain,
            poisoner_pc: 0,
            unparked: false,
            ran_on: [false; 2],
            ever_rerun: false,
            ever_resumed_after_drain: false,
            ever_poisoned_while_parked: false,
        }
    }

    /// reactor.rs `enqueue_task`, with `submit_fold`'s push and wake: one
    /// step under the queue lock.
    fn enqueue(&mut self, tid: usize) {
        match self.sched {
            IDLE => {
                self.sched = QUEUED;
                self.queue.acquire(tid);
                self.folds += 1;
                self.queue.unlock(tid);
                self.queue.notify_one();
            }
            RUNNING => self.sched = RERUN,
            _ => {}
        }
    }

    fn step_depositor(&mut self, tid: usize) {
        self.depositor = match self.depositor {
            DepositorPc::Op(i) if i < FOLD_CHUNKS => {
                // pool.rs `SessionCore::complete`; a dead session's chunks
                // never run, so nothing is delivered for them.
                if self.poisoned {
                    DepositorPc::Op(i + 1)
                } else {
                    self.ready[i] = true;
                    DepositorPc::Notify(i + 1)
                }
            }
            DepositorPc::Op(_) => {
                // pool.rs `SessionCore::announce_total`.
                self.total_known = true;
                DepositorPc::Notify(FOLD_CHUNKS + 1)
            }
            DepositorPc::Notify(then) => {
                self.enqueue(tid);
                if then > FOLD_CHUNKS {
                    DepositorPc::Done
                } else {
                    DepositorPc::Op(then)
                }
            }
            DepositorPc::Done => unreachable!("stepped a finished depositor"),
        };
    }

    fn step_worker(&mut self, w: usize, tid: usize) {
        self.workers[w] = match self.workers[w] {
            FoldPc::Next | FoldPc::Parked => {
                self.queue.acquire(tid);
                if self.folds > 0 {
                    self.folds -= 1;
                    self.queue.unlock(tid);
                    // reactor.rs `Fold::run`: the mark is consumed first.
                    if self.bug != FoldBug::ClearQueuedAfterRun {
                        self.sched = RUNNING;
                    }
                    self.in_run[w] = true;
                    self.ran_on[w] = true;
                    FoldPc::CheckCap
                } else if self.shutdown {
                    self.queue.unlock(tid);
                    FoldPc::Done
                } else {
                    self.queue.wait(tid);
                    FoldPc::Parked
                }
            }
            FoldPc::CheckCap => {
                if self.outbox >= OUTBOX_CAP {
                    FoldPc::SetStalled
                } else {
                    FoldPc::Take
                }
            }
            FoldPc::SetStalled => {
                self.stalled = true;
                if self.bug == FoldBug::NoStallRecheck {
                    FoldPc::End
                } else {
                    FoldPc::Recheck
                }
            }
            FoldPc::Recheck => {
                if self.outbox >= OUTBOX_CAP {
                    FoldPc::End
                } else {
                    self.stalled = false;
                    FoldPc::Take
                }
            }
            FoldPc::Take => {
                let next = self.folded.len();
                if self.finalized {
                    FoldPc::End
                } else if next < FOLD_CHUNKS && self.ready[next] {
                    self.ready[next] = false;
                    self.folded.push(next);
                    self.outbox += 1;
                    self.ever_resumed_after_drain |= self.unparked;
                    FoldPc::CheckCap
                } else {
                    self.finalized = self.poisoned || (self.total_known && next == FOLD_CHUNKS);
                    FoldPc::End
                }
            }
            FoldPc::End => {
                let prev = self.sched;
                self.sched = IDLE;
                self.in_run[w] = false;
                if prev == RERUN {
                    self.ever_rerun = true;
                    FoldPc::Requeue
                } else {
                    FoldPc::Next
                }
            }
            FoldPc::Requeue => {
                self.enqueue(tid);
                FoldPc::Next
            }
            FoldPc::Done => unreachable!("stepped a finished worker"),
        };
    }

    fn step_reactor(&mut self, tid: usize) {
        self.reactor = match self.reactor {
            ReactorPc::Drain if self.outbox > 0 => {
                self.outbox = 0;
                ReactorPc::Unpark
            }
            ReactorPc::Drain => ReactorPc::Shutdown,
            ReactorPc::Unpark => {
                if self.outbox < OUTBOX_CAP && std::mem::take(&mut self.stalled) {
                    self.unparked = true;
                    ReactorPc::Notify
                } else {
                    ReactorPc::Drain
                }
            }
            ReactorPc::Notify => {
                self.enqueue(tid);
                ReactorPc::Drain
            }
            ReactorPc::Shutdown => {
                self.queue.acquire(tid);
                self.shutdown = true;
                self.queue.unlock(tid);
                self.queue.notify_all();
                ReactorPc::Done
            }
            ReactorPc::Done => unreachable!("stepped a finished reactor"),
        };
    }
}

impl Model for FoldModel {
    fn reset(&mut self) {
        self.queue.reset();
        self.ready = [false; FOLD_CHUNKS];
        self.total_known = false;
        self.poisoned = false;
        self.sched = IDLE;
        self.stalled = false;
        self.outbox = 0;
        self.folded.clear();
        self.finalized = false;
        self.folds = 0;
        self.shutdown = false;
        self.depositor = DepositorPc::Op(0);
        self.workers = [FoldPc::Next; 2];
        self.in_run = [false; 2];
        self.reactor = ReactorPc::Drain;
        self.poisoner_pc = if self.poisoner { 0 } else { 2 };
        self.unparked = false;
    }

    fn thread_count(&self) -> usize {
        if self.poisoner {
            5
        } else {
            4
        }
    }

    fn is_done(&self, tid: usize) -> bool {
        match tid {
            FOLD_DEPOSITOR => self.depositor == DepositorPc::Done,
            FOLD_REACTOR => self.reactor == ReactorPc::Done,
            FOLD_POISONER => self.poisoner_pc == 2,
            w => self.workers[w - 1] == FoldPc::Done,
        }
    }

    fn is_enabled(&self, tid: usize) -> bool {
        match tid {
            FOLD_DEPOSITOR => match self.depositor {
                DepositorPc::Notify(_) => self.queue.acquirable(tid),
                DepositorPc::Op(_) => true,
                DepositorPc::Done => false,
            },
            // The reactor waits for POLLOUT on a non-empty outbox; it winds
            // down once the session finalized and its bytes are out, and
            // the runtime outlives the session's feed and its poisoning.
            FOLD_REACTOR => match self.reactor {
                ReactorPc::Drain => self.outbox > 0 || self.finalized,
                ReactorPc::Unpark => true,
                ReactorPc::Notify => self.queue.acquirable(tid),
                ReactorPc::Shutdown => {
                    self.depositor == DepositorPc::Done
                        && self.poisoner_pc == 2
                        && self.queue.acquirable(tid)
                }
                ReactorPc::Done => false,
            },
            FOLD_POISONER => self.poisoner_pc == 0 || self.queue.acquirable(tid),
            w => match self.workers[w - 1] {
                FoldPc::Next | FoldPc::Requeue => self.queue.acquirable(tid),
                FoldPc::Parked => self.queue.rewakeable(tid),
                FoldPc::Done => false,
                _ => true,
            },
        }
    }

    fn step(&mut self, tid: usize) {
        match tid {
            FOLD_DEPOSITOR => self.step_depositor(tid),
            FOLD_REACTOR => self.step_reactor(tid),
            FOLD_POISONER => {
                if self.poisoner_pc == 0 {
                    // pool.rs `SessionCore::poison`.
                    self.ever_poisoned_while_parked |= self.stalled;
                    self.poisoned = true;
                } else {
                    // Its `fire_deliverable`.
                    self.enqueue(tid);
                }
                self.poisoner_pc += 1;
            }
            w => self.step_worker(w - 1, tid),
        }
    }

    fn check(&self) {
        assert!(!(self.in_run[0] && self.in_run[1]), "two fold runs of one session overlapped");
        assert!(self.folds <= 1, "one session queued twice");
    }

    fn at_end(&self) {
        assert!(self.finalized, "the session never finalized");
        assert_eq!(self.folds, 0, "a queued fold outlived the pool");
        if !self.poisoned {
            assert_eq!(self.folded, (0..FOLD_CHUNKS).collect::<Vec<_>>(), "a chunk never folded");
        }
    }
}

/// The fold job on two workers racing the deposits, the reactor's drains
/// and unparks, a poisoning and the pool's shutdown, under a
/// one-preemption bound (~196k interleavings): no fold is lost (the explorer's deadlock check and
/// the finalize check), two runs never overlap, every chunk folds once and
/// in order, a parked fold resumes after a drain, and a poison that lands
/// while the fold is parked still finalizes.
#[test]
fn fold_job_never_lost_never_overlapping() {
    let mut m = FoldModel::new(FoldBug::None, true);
    let explored = explore(&mut m, 1);
    assert!(m.ran_on.iter().all(|&r| r), "the fold never ran on both workers");
    assert!(m.ever_rerun, "no schedule queued the fold again during a run");
    assert!(m.ever_resumed_after_drain, "no schedule resumed a parked fold after a drain");
    assert!(m.ever_poisoned_while_parked, "no schedule poisoned the session while parked");
    assert!(
        explored.executions >= 1000,
        "state space collapsed: only {} interleavings",
        explored.executions
    );
}

/// Teeth: clearing the queue mark after the run, or parking without the
/// re-check, loses a fold, and the explorer must find the wedge.
#[test]
fn fold_job_without_its_rechecks_is_caught() {
    for bug in [FoldBug::ClearQueuedAfterRun, FoldBug::NoStallRecheck] {
        let mut m = FoldModel::new(bug, false);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            explore(&mut m, 1);
        }));
        let panic = caught.expect_err("a lost fold survived every interleaving");
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.starts_with("deadlock"), "{bug:?} caught as {message:?}, not a wedge");
    }
}

// ---------------------------------------------------------------------------
// Explorer self-tests
// ---------------------------------------------------------------------------

/// Two independent 2-step threads have exactly C(4,2) = 6 interleavings —
/// pins the explorer's enumeration against off-by-one regressions.
#[test]
fn explorer_enumerates_exact_interleaving_count() {
    struct TwoByTwo {
        pc: [u8; 2],
    }
    impl Model for TwoByTwo {
        fn reset(&mut self) {
            self.pc = [0; 2];
        }
        fn thread_count(&self) -> usize {
            2
        }
        fn is_done(&self, tid: usize) -> bool {
            self.pc[tid] == 2
        }
        fn is_enabled(&self, _tid: usize) -> bool {
            true
        }
        fn step(&mut self, tid: usize) {
            self.pc[tid] += 1;
        }
        fn check(&self) {}
    }
    let mut m = TwoByTwo { pc: [0; 2] };
    let explored = explore(&mut m, usize::MAX);
    assert_eq!(explored.executions, 6);
    assert_eq!(explored.max_depth, 4);
}

/// The deadlock detector fires on a thread that blocks forever.
#[test]
fn explorer_detects_deadlock() {
    struct Stuck;
    impl Model for Stuck {
        fn reset(&mut self) {}
        fn thread_count(&self) -> usize {
            1
        }
        fn is_done(&self, _tid: usize) -> bool {
            false
        }
        fn is_enabled(&self, _tid: usize) -> bool {
            false
        }
        fn step(&mut self, _tid: usize) {}
        fn check(&self) {}
    }
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        explore(&mut Stuck, usize::MAX);
    }));
    assert!(caught.is_err(), "deadlock went undetected");
}
