//! The TCP serving front-end: real sockets bound to runtime sessions.
//!
//! [`Runtime::serve_reader`] already speaks the wire protocol over any
//! `io::Read`/`io::Write` pair; this module supplies the missing listener. A
//! [`TcpServer`] accepts connections, runs the line-based query-registration
//! handshake (see [`crate::wire`]'s handshake section for the grammar), and
//! binds each accepted connection to one materialized session: the bytes the
//! client streams after `GO` flow through the splitter → worker pool → joiner
//! pipeline, and every match comes back over the same socket as a wire frame.
//!
//! ```text
//!            ┌────────────────────── TcpServer ──────────────────────┐
//! client ──► │ handshake (QUERY…/GO → OK|ERR) ─► Engine ─► session   │
//!        ◄── │ frames (json | binary)       ◄── WireSink ◄── joiner  │
//!            └───────────────────────────────────────────────────────┘
//! ```
//!
//! Two serving disciplines share the handshake, the admission gate, the
//! session machinery and the accounting — pick one with
//! [`TcpServerBuilder::mode`]:
//!
//! * **[`ServerMode::Reactor`]** (the default on Unix): a small fixed set of
//!   ingest threads drives every connection from a `poll(2)` event loop —
//!   see [`crate::reactor`]. One thread feeds thousands of slow network
//!   streams; a slow client exerts backpressure through its bounded outbox
//!   and the retention ring instead of wedging a thread.
//! * **[`ServerMode::ThreadPerConn`]**: one thread per connection, the
//!   splitter blocking on `Read`. Simple, portable, and the right tool when
//!   connections are few and fast.
//!
//! Shared design points, in the spirit of the paper's serving discipline:
//!
//! * **Admission is credit-gated** (`Gate` mirrors
//!   `SessionCore::acquire_credit`): at most `max_connections` sessions run
//!   at once, further clients wait in the listener backlog.
//! * **A malformed or half-closed connection poisons one session, never the
//!   process.** Handshake failures are answered with a structured
//!   `ERR <reason>` line, not a dropped connection; engine-build failures
//!   travel the same path ([`ppt_xpath::XPathError::wire_message`]); read
//!   and write errors mid-stream latch into that connection's report while
//!   every other session keeps flowing.
//! * **Graceful shutdown**: [`TcpServer::shutdown`] stops accepting, then
//!   drains the connections still in flight before returning the final
//!   [`ServerStats`]. The accept loop is woken through an `eventfd(2)` (the
//!   reactor's wake fd), never by the server connecting to itself — the old
//!   self-connect wake could block indefinitely against a full backlog
//!   exactly when the server was busiest.
//! * **Accounting survives the disconnect**: every connection that passed
//!   the handshake leaves a [`ConnectionReport`] in the server-level stats
//!   snapshot; reactor servers additionally report event-loop totals
//!   ([`ReactorStats`]) and per-shard/router accounting ([`ShardStats`],
//!   [`RouterStats`]).
//! * **Streams are placed by identity.** Every post-handshake connection is
//!   routed to the shard owning its stream id on a consistent-hash ring
//!   (see [`crate::shard`] and [`TcpServerBuilder::shards`]); with the
//!   default single shard that is simply the runtime passed to `bind`, but
//!   the identity rules hold regardless: a handshake without `STREAM` gets
//!   a process-unique, never-zero id, echoed in the `OK` reply.
//! * **Liveness is optional but total**: [`TcpServerBuilder::idle_timeout`]
//!   times out post-handshake connections with no socket progress — the
//!   dead-but-open-client case the handshake deadline cannot see.

use crate::pool::{lock_recover, wait_recover};
use crate::shard::ShardRouter;
use crate::sink::{BorrowedMatch, PayloadSink};
use crate::stats::{ReactorStats, RouterStats, ShardStats};
use crate::subscribe::{
    AttachError, StreamControl, SubscriberDelivery, SubscriberReport, SubscriberSink,
};
use crate::telemetry::{Counter, EventJournal, EventKind, Histogram, Registry};
use crate::wire::{
    HandshakeDecoder, HandshakeReply, HandshakeRequest, WireFormat, WireSink,
    DEFAULT_MAX_HANDSHAKE_LINE, DEFAULT_MAX_QUERIES,
};
use crate::{Runtime, RuntimeStats, SessionOptions, SessionReport};
use ppt_core::EngineConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Server-assigned stream ids live at and above bit 52. Clients pick small
/// integers in practice; carving the ranges apart means an assigned id can
/// never collide with an explicitly requested one — without it, the
/// counter's `1` would collide with the first client that asks for
/// `STREAM 1`, and an aggregating consumer could not demux the two
/// sessions the assignment exists to distinguish. Bit 52 (not 63) keeps
/// every realistic assignment below `2^53`, exactly representable as an
/// IEEE-754 double — a JSON-lines consumer whose parser reads numbers as
/// doubles must not see distinct assigned ids collapse into one value.
const ASSIGNED_STREAM_ID_BASE: u64 = 1 << 52;

/// The process-wide stream-id assigner: ids handed to connections whose
/// handshake carried no `STREAM` line.
static NEXT_STREAM_ID: AtomicU64 = AtomicU64::new(1);

/// Takes the next process-unique assigned stream id: never 0 (the base bit
/// is always set), never equal to another assignment, and never inside the
/// explicit range below [`ASSIGNED_STREAM_ID_BASE`].
pub(crate) fn assign_stream_id() -> u64 {
    // RELAXED-OK: uniqueness needs only RMW atomicity; orders nothing.
    ASSIGNED_STREAM_ID_BASE | NEXT_STREAM_ID.fetch_add(1, Ordering::Relaxed)
}

/// The structured liveness verdict, worded once for every path that can
/// reach a report (reactor expiry, thread-mode read and write deadlines) —
/// tests and operators match on this text.
pub(crate) fn idle_timeout_error(idle: Duration) -> String {
    format!("idle timeout: no socket progress for {idle:?}")
}

/// Completed connections remembered in the stats snapshot (oldest dropped
/// first); counters keep counting beyond this.
const MAX_REMEMBERED_REPORTS: usize = 1024;

/// How a [`TcpServer`] schedules its connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerMode {
    /// One OS thread per connection; the splitter blocks on `Read`.
    ThreadPerConn,
    /// A fixed set of ingest threads drives all connections from a
    /// `poll(2)` event loop (see [`crate::reactor`]). The default on Unix;
    /// on other platforms the builder falls back to
    /// [`ServerMode::ThreadPerConn`].
    Reactor,
}

impl Default for ServerMode {
    fn default() -> ServerMode {
        if cfg!(unix) {
            ServerMode::Reactor
        } else {
            ServerMode::ThreadPerConn
        }
    }
}

/// The in-process sharding shape of a server: how many shards, and how each
/// shard's pools are sized (see [`crate::shard`]).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Number of shards (1 = the classic single-runtime server).
    pub shards: usize,
    /// Worker threads per *additional* shard runtime; `None` copies the
    /// worker count of the runtime passed to `bind` (which serves as
    /// shard 0).
    pub workers: Option<usize>,
    /// Virtual nodes per shard on the placement ring.
    pub vnodes: usize,
}

impl Default for ShardSpec {
    fn default() -> ShardSpec {
        ShardSpec { shards: 1, workers: None, vnodes: crate::shard::DEFAULT_VNODES }
    }
}

/// Builder for a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct TcpServerBuilder {
    pub(crate) mode: ServerMode,
    pub(crate) max_connections: usize,
    pub(crate) max_queries: usize,
    pub(crate) max_retain_bytes: u64,
    pub(crate) max_handshake_line: usize,
    pub(crate) handshake_timeout: Option<Duration>,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) chunk_size: Option<usize>,
    pub(crate) window_size: Option<usize>,
    pub(crate) ingest_threads: usize,
    pub(crate) join_threads: usize,
    pub(crate) max_outbox_bytes: usize,
    pub(crate) shard: ShardSpec,
    pub(crate) admin_addr: Option<String>,
    pub(crate) max_automaton_states: usize,
}

impl Default for TcpServerBuilder {
    fn default() -> TcpServerBuilder {
        TcpServerBuilder {
            mode: ServerMode::default(),
            max_connections: 64,
            max_queries: DEFAULT_MAX_QUERIES,
            max_retain_bytes: 64 << 20,
            max_handshake_line: DEFAULT_MAX_HANDSHAKE_LINE,
            handshake_timeout: Some(Duration::from_secs(10)),
            idle_timeout: None,
            chunk_size: None,
            window_size: None,
            ingest_threads: 1,
            join_threads: 2,
            max_outbox_bytes: 1 << 20,
            shard: ShardSpec::default(),
            admin_addr: None,
            max_automaton_states: 1 << 16,
        }
    }
}

impl TcpServerBuilder {
    /// Picks the serving discipline (default [`ServerMode::Reactor`] on
    /// Unix). A `Reactor` request on a platform without `poll(2)` falls
    /// back to `ThreadPerConn`.
    pub fn mode(mut self, mode: ServerMode) -> TcpServerBuilder {
        self.mode = mode;
        self
    }

    /// Concurrent-connection cap (default 64). Clients beyond it wait in the
    /// listener backlog until a running session finishes.
    pub fn max_connections(mut self, n: usize) -> TcpServerBuilder {
        self.max_connections = n.max(1);
        self
    }

    /// Per-connection query cap (default [`DEFAULT_MAX_QUERIES`]).
    pub fn max_queries(mut self, n: usize) -> TcpServerBuilder {
        self.max_queries = n.max(1);
        self
    }

    /// Ceiling on the retention budget a client may request (default
    /// 64 MiB); larger `RETAIN` requests are clamped, not rejected.
    pub fn max_retain_bytes(mut self, bytes: u64) -> TcpServerBuilder {
        self.max_retain_bytes = bytes.max(1);
        self
    }

    /// Cap on one handshake line (default
    /// [`DEFAULT_MAX_HANDSHAKE_LINE`]) — bounds memory against a client
    /// that never sends a newline.
    pub fn max_handshake_line(mut self, bytes: usize) -> TcpServerBuilder {
        self.max_handshake_line = bytes.max(1);
        self
    }

    /// Deadline for the *whole* handshake, trickling clients included
    /// (default 10 s; `None` disables it). The stream phase is only timed
    /// out by [`TcpServerBuilder::idle_timeout`] — slow streams are the
    /// normal case.
    pub fn handshake_timeout(mut self, timeout: Option<Duration>) -> TcpServerBuilder {
        self.handshake_timeout = timeout;
        self
    }

    /// Post-handshake liveness deadline (default **off**): a connection with
    /// no socket progress — no bytes read from the client and none written
    /// to it — for this long is timed out, poisoning *its own* session only
    /// and freeing its admission slot, gate credit and retention.
    ///
    /// Without it, a dead-but-open client (NAT-idled, no FIN ever arrives)
    /// in the streaming phase holds all three forever — the handshake
    /// deadline machinery only covers connections still handshaking. A slow
    /// but live client is safe at any rate: every read or write resets the
    /// clock. In **reactor mode** two refinements pin "progress" down:
    ///
    /// * A **pipeline-side stall** never counts against the client: a
    ///   connection the server still owes work on (chunks pending in a
    ///   blocked feeder or submitted but not yet folded) while its own
    ///   outbox is *not* backed up (the stall is a busy shard, not the
    ///   client) has its clock reset.
    /// * A client that **stops draining its frames** past the deadline is
    ///   treated as dead — indistinguishable from the NAT-idled case. The
    ///   session is poisoned and the connection closed.
    ///
    /// **Thread-per-connection mode** is cruder: the deadline maps onto
    /// per-operation socket timeouts. The read deadline measures the
    /// client's quiet time directly (and does not tick while the server is
    /// busy inside the pipeline), but it is *not* reset by write-side
    /// progress — a client that holds its stream open without sending for
    /// longer than the deadline is timed out even while it drains frames.
    /// The write deadline latches the sink on expiry (later frames count as
    /// dropped) and the session drains. Workloads needing the refined
    /// semantics should serve in reactor mode (the default on Unix).
    ///
    /// Set it comfortably above the longest quiet period the workload's
    /// streams legitimately have.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> TcpServerBuilder {
        self.idle_timeout = timeout;
        self
    }

    /// Serves over `n` shards (default 1): each shard is an independent
    /// [`Runtime`] — its own worker pool, join executors and retention
    /// accounting — and every connection is placed on the shard owning its
    /// stream id on a consistent-hash ring (see [`crate::shard`]). The
    /// runtime passed to [`TcpServerBuilder::bind`] becomes shard 0;
    /// additional shards are built to match it (or to
    /// [`TcpServerBuilder::shard_workers`]).
    pub fn shards(mut self, n: usize) -> TcpServerBuilder {
        self.shard.shards = n.max(1);
        self
    }

    /// Worker threads for each additional shard's runtime (default: the
    /// worker count of the runtime passed to `bind`).
    pub fn shard_workers(mut self, n: usize) -> TcpServerBuilder {
        self.shard.workers = Some(n.max(1));
        self
    }

    /// Virtual nodes per shard on the placement ring (default
    /// [`crate::shard::DEFAULT_VNODES`]). More points = tighter balance,
    /// larger ring.
    pub fn shard_vnodes(mut self, n: usize) -> TcpServerBuilder {
        self.shard.vnodes = n.max(1);
        self
    }

    /// Chunk size for the per-connection engines (default: the engine's own
    /// default).
    pub fn chunk_size(mut self, bytes: usize) -> TcpServerBuilder {
        self.chunk_size = Some(bytes);
        self
    }

    /// Window size for the per-connection engines (default: the engine's own
    /// default).
    pub fn window_size(mut self, bytes: usize) -> TcpServerBuilder {
        self.window_size = Some(bytes);
        self
    }

    /// Ingest threads in [`ServerMode::Reactor`] (default 1 — one `poll(2)`
    /// loop drives every connection; raise it only when handshake/engine
    /// builds or sheer socket volume saturate a single loop).
    pub fn ingest_threads(mut self, n: usize) -> TcpServerBuilder {
        self.ingest_threads = n.max(1);
        self
    }

    /// Join-executor threads in [`ServerMode::Reactor`] (default 2): the
    /// fixed pool that folds chunk outputs for the reactor sessions. A
    /// sharded server runs one such pool **per shard**, each `n` threads
    /// wide, so shards never contend on each other's folds.
    pub fn join_threads(mut self, n: usize) -> TcpServerBuilder {
        self.join_threads = n.max(1);
        self
    }

    /// Per-connection outbox byte cap in [`ServerMode::Reactor`] (default
    /// 1 MiB): frames queued beyond it park the session's fold until the
    /// socket drains — the backpressure path for slow clients. Soft cap:
    /// the buffer may overshoot by one chunk's worth of frames.
    pub fn max_outbox_bytes(mut self, bytes: usize) -> TcpServerBuilder {
        self.max_outbox_bytes = bytes.max(1);
        self
    }

    /// Binds an **admin listener** on `addr` (default: none): a minimal
    /// plain-text HTTP endpoint serving the live metrics page at `/metrics`
    /// (and `/`) and the session event journal at `/journal`, readable with
    /// `curl` or bare `nc` (a non-HTTP request gets the metrics page raw).
    /// It renders from the same [`crate::telemetry::Registry`] assembly as
    /// the in-band `STATS` verb, so both surfaces always agree. Serving is
    /// State-count ceiling for each stream's merged automaton (default
    /// 65 536). A late attach whose query merge would determinize past this
    /// budget is refused with a structured `ERR` — existing subscribers of
    /// the stream are never degraded by a co-tenant's pathological query
    /// set.
    pub fn max_automaton_states(mut self, states: usize) -> TcpServerBuilder {
        self.max_automaton_states = states;
        self
    }

    /// serial — one scrape at a time, each bounded by a short read timeout —
    /// because a metrics plane must never compete with the data plane for
    /// threads.
    pub fn admin_addr<A: Into<String>>(mut self, addr: A) -> TcpServerBuilder {
        self.admin_addr = Some(addr.into());
        self
    }

    /// Binds the listener and starts serving. Sessions run on the given
    /// runtime's shared worker pool — or, with [`TcpServerBuilder::shards`]
    /// above 1, on the pools of the shard their stream id hashes to (the
    /// given runtime serves as shard 0).
    pub fn bind<A: ToSocketAddrs>(
        self,
        addr: A,
        runtime: Arc<Runtime>,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut shards = vec![runtime];
        for _ in 1..self.shard.shards {
            let seed = &shards[0];
            shards.push(Arc::new(
                Runtime::builder()
                    .workers(self.shard.workers.unwrap_or_else(|| seed.workers()))
                    .inflight_chunks(seed.inflight_chunks)
                    .match_buffer(seed.match_buffer)
                    .build(),
            ));
        }
        let accounting = (0..shards.len()).map(|_| ShardAccounting::default()).collect();
        let router = ShardRouter::with_vnodes(shards, self.shard.vnodes);
        let shared = Arc::new(Shared {
            router,
            accounting,
            config: self,
            gate: Gate::new_closed(),
            shutting_down: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            handshake_rejects: AtomicU64::new(0),
            sessions_completed: AtomicU64::new(0),
            sessions_failed: AtomicU64::new(0),
            frames_out: AtomicU64::new(0),
            bytes_out: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            reports: Mutex::new(VecDeque::new()),
            hub: Mutex::new(HashMap::new()),
            telemetry: Arc::new(ServeTelemetry::default()),
            record_epoch: AtomicU64::new(0),
            #[cfg(unix)]
            reactor_counters: std::sync::OnceLock::new(),
        });
        // The gate starts with max_connections slots.
        *lock_recover(&shared.gate.slots).0 = shared.config.max_connections;
        let engine = match effective_mode(shared.config.mode) {
            #[cfg(unix)]
            ServerMode::Reactor => {
                ModeHandles::Reactor(crate::reactor::spawn(Arc::clone(&shared), listener)?)
            }
            _ => spawn_thread_per_conn(Arc::clone(&shared), listener)?,
        };
        let admin = match shared.config.admin_addr.clone() {
            Some(addr) => Some(spawn_admin(Arc::clone(&shared), &addr)?),
            None => None,
        };
        Ok(TcpServer { shared, local_addr, engine, admin })
    }
}

/// Spawns the thread-per-connection accept loop.
#[cfg(unix)]
fn spawn_thread_per_conn(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<ModeHandles> {
    let wake = Arc::new(crate::reactor::WakeFd::new()?);
    let accept_wake = Arc::clone(&wake);
    let accept = std::thread::Builder::new()
        .name("ppt-accept".to_string())
        .spawn(move || accept_loop(&shared, listener, &accept_wake))
        .map_err(|e| std::io::Error::other(format!("failed to spawn accept thread: {e}")))?;
    Ok(ModeHandles::ThreadPerConn { accept: Some(accept), wake })
}

/// Spawns the thread-per-connection accept loop (portable fallback).
#[cfg(not(unix))]
fn spawn_thread_per_conn(
    shared: Arc<Shared>,
    listener: TcpListener,
) -> std::io::Result<ModeHandles> {
    let accept = std::thread::Builder::new()
        .name("ppt-accept".to_string())
        .spawn(move || accept_loop(&shared, listener))
        .map_err(|e| std::io::Error::other(format!("failed to spawn accept thread: {e}")))?;
    Ok(ModeHandles::ThreadPerConn { accept: Some(accept) })
}

/// The mode actually served: `Reactor` needs `poll(2)`.
fn effective_mode(requested: ServerMode) -> ServerMode {
    if cfg!(unix) {
        requested
    } else {
        ServerMode::ThreadPerConn
    }
}

/// The admission gate: the pipeline's credit pattern applied to whole
/// connections. `acquire` blocks while `max_connections` sessions are live
/// and returns `false` once the server is closing; `try_acquire` is the
/// reactor's non-blocking flavor.
pub(crate) struct Gate {
    pub(crate) slots: Mutex<usize>,
    cv: Condvar,
    closed: AtomicBool,
}

impl Gate {
    fn new_closed() -> Gate {
        Gate { slots: Mutex::new(0), cv: Condvar::new(), closed: AtomicBool::new(false) }
    }

    fn acquire(&self) -> bool {
        let (mut slots, _) = lock_recover(&self.slots);
        loop {
            if self.closed.load(Ordering::SeqCst) {
                return false;
            }
            if *slots > 0 {
                *slots -= 1;
                return true;
            }
            slots = wait_recover(&self.cv, slots).0;
        }
    }

    /// Takes a slot if one is free right now; never blocks.
    pub(crate) fn try_acquire(&self) -> bool {
        if self.closed.load(Ordering::SeqCst) {
            return false;
        }
        let (mut slots, _) = lock_recover(&self.slots);
        if *slots == 0 {
            return false;
        }
        *slots -= 1;
        true
    }

    /// Free slots at this instant (the reactor polls the listener only when
    /// this is non-zero).
    pub(crate) fn available(&self) -> usize {
        *lock_recover(&self.slots).0
    }

    pub(crate) fn release(&self) {
        *lock_recover(&self.slots).0 += 1;
        self.cv.notify_one();
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Per-shard accounting the serving layer keeps alongside the router's
/// placement counters (see [`ShardStats`]).
#[derive(Default)]
pub(crate) struct ShardAccounting {
    active: AtomicUsize,
    matches: AtomicU64,
    frames: AtomicU64,
    bytes_out: AtomicU64,
    peak_retained: AtomicUsize,
}

/// Serving-layer telemetry shared by every scrape surface (the in-band
/// `STATS` verb and the admin listener): handshake/dispatch/outbox
/// histograms that have no per-shard home, the scrape counter, and the
/// session lifecycle journal. Pipeline-stage histograms live per shard on
/// [`crate::telemetry::RuntimeTelemetry`].
#[derive(Debug, Default)]
pub(crate) struct ServeTelemetry {
    /// Accept-to-acceptance handshake duration (nanoseconds), both modes.
    pub handshake_nanos: Histogram,
    /// Reactor poll-return-to-dispatch-complete latency per round with at
    /// least one ready fd (nanoseconds).
    pub dispatch_nanos: Histogram,
    /// How long queued egress bytes sat in a reactor outbox before the
    /// socket drained it empty (nanoseconds).
    pub outbox_residency_nanos: Histogram,
    /// Egress bytes that were *copied* into an outbox (frame headers, JSON
    /// fallback frames, handshake replies, thread-mode writes count zero
    /// here — they never enter a reactor outbox).
    pub bytes_copied: Counter,
    /// Egress payload bytes *borrowed* from retention windows and written
    /// via vectored I/O without an intermediate copy.
    pub bytes_borrowed: Counter,
    /// Metrics pages served (STATS verb plus admin endpoint).
    pub scrapes: Counter,
    /// Bounded ring of session lifecycle events, dumpable via the admin
    /// endpoint's `/journal`.
    pub journal: EventJournal,
}

/// Everything the accept loop / ingest threads and the connection handlers
/// share.
pub(crate) struct Shared {
    pub(crate) router: ShardRouter,
    accounting: Vec<ShardAccounting>,
    pub(crate) config: TcpServerBuilder,
    pub(crate) gate: Gate,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) handshake_rejects: AtomicU64,
    sessions_completed: AtomicU64,
    sessions_failed: AtomicU64,
    frames_out: AtomicU64,
    bytes_out: AtomicU64,
    pub(crate) active: AtomicUsize,
    reports: Mutex<VecDeque<ConnectionReport>>,
    /// Live shared streams by stream id: a later connection whose handshake
    /// names one of these ids *attaches* to the running stream (one
    /// transducer pass fans out to every subscriber) instead of opening a
    /// second session. Entries are registered by the owning connection and
    /// removed when its stream finishes.
    pub(crate) hub: Mutex<HashMap<u64, Arc<StreamControl>>>,
    pub(crate) telemetry: Arc<ServeTelemetry>,
    /// Seqlock epoch over [`Shared::record`]'s multi-counter update: odd
    /// while a record is mid-flight, bumped even when it settles. Snapshot
    /// readers retry (bounded) on a torn window instead of locking the
    /// record path.
    record_epoch: AtomicU64,
    /// The reactor's event-loop counters, set once by
    /// [`crate::reactor::spawn`] so every scrape surface (in-band `STATS`,
    /// admin listener, [`TcpServer::stats`]) reads the same source of truth.
    /// Never set in thread-per-connection mode.
    #[cfg(unix)]
    reactor_counters: std::sync::OnceLock<Arc<crate::reactor::ReactorCounters>>,
}

impl Shared {
    /// Places a post-handshake connection on its stream id's shard and
    /// counts it live there. Balanced by [`Shared::shard_closed`] (called
    /// from [`Shared::record`] for recorded connections).
    pub(crate) fn place_stream(&self, stream_id: u64) -> usize {
        let shard = self.router.place(stream_id);
        // RELAXED-OK: live gauge; departures rebalance under the seqlock
        // bracket in `record`, and readers tolerate transient skew.
        self.accounting[shard].active.fetch_add(1, Ordering::Relaxed);
        self.telemetry.journal.record(EventKind::Registered, stream_id, shard);
        self.telemetry.journal.record(EventKind::Placed, stream_id, shard);
        shard
    }

    /// Counts a placed connection's departure from its shard.
    pub(crate) fn shard_closed(&self, shard: usize) {
        // RELAXED-OK: gauge decrement; called from `record` inside the
        // record_epoch seqlock bracket, which orders it for snapshots.
        self.accounting[shard].active.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn record(&self, report: ConnectionReport) {
        let failed = report.read_error.is_some()
            || report.write_error.is_some()
            || report.report.as_ref().is_some_and(|r| r.error.is_some());
        // An idle reap is a failure with a known shape: the liveness verdict
        // string every expiry path words through `idle_timeout_error`.
        let idled =
            |e: &Option<String>| e.as_deref().is_some_and(|e| e.starts_with("idle timeout:"));
        let kind = if !failed {
            EventKind::Drained
        } else if idled(&report.read_error)
            || idled(&report.write_error)
            || report.report.as_ref().is_some_and(|r| idled(&r.error))
        {
            EventKind::IdleReaped
        } else {
            EventKind::Poisoned
        };
        self.telemetry.journal.record(kind, report.stream_id, report.shard);
        // Writer side: `record` runs concurrently in thread-per-connection
        // mode (each connection thread records its own departure), and two
        // in-flight writers would break the epoch's odd/even parity — the
        // epoch turns even while counters are still mid-update, and a reader
        // would validate a torn snapshot (found by the PR-8 interleaving
        // model; see crates/runtime/tests/model.rs::seqlock_two_writers_*).
        // The reports mutex, which `record` takes anyway, is acquired early
        // to serialize writers; snapshot readers never touch it.
        let (mut reports, _) = lock_recover(&self.reports);
        // Seqlock write side: a stats snapshot taken mid-record could see
        // e.g. the session counted completed but its frames not yet added —
        // a torn tuple. The epoch is odd while the counter group updates;
        // readers retry until they bracket an even, unchanged epoch.
        self.record_epoch.fetch_add(1, Ordering::AcqRel);
        // RELAXED-OK (whole group): these updates are bracketed by the
        // record_epoch AcqRel edges above/below; snapshot readers validate
        // the bracket, so the interior needs only per-field atomicity.
        // (Model-checked in crates/runtime/tests/model.rs::seqlock.)
        if failed {
            // RELAXED-OK: seqlock-bracketed (see group note above).
            self.sessions_failed.fetch_add(1, Ordering::Relaxed);
        } else {
            // RELAXED-OK: seqlock-bracketed (see group note above).
            self.sessions_completed.fetch_add(1, Ordering::Relaxed);
        }
        // RELAXED-OK: seqlock-bracketed (see group note above).
        self.frames_out.fetch_add(report.frames, Ordering::Relaxed);
        // RELAXED-OK: seqlock-bracketed (see group note above).
        self.bytes_out.fetch_add(report.bytes_out, Ordering::Relaxed);
        let shard = &self.accounting[report.shard];
        // RELAXED-OK: seqlock-bracketed (see group note above).
        shard.frames.fetch_add(report.frames, Ordering::Relaxed);
        // RELAXED-OK: seqlock-bracketed (see group note above).
        shard.bytes_out.fetch_add(report.bytes_out, Ordering::Relaxed);
        if let Some(session) = &report.report {
            // RELAXED-OK: seqlock-bracketed (see group note above).
            shard.matches.fetch_add(session.stats.matches, Ordering::Relaxed);
            // RELAXED-OK: seqlock-bracketed (see group note above).
            shard.peak_retained.fetch_max(session.stats.peak_retained_bytes, Ordering::Relaxed);
        }
        self.shard_closed(report.shard);
        self.record_epoch.fetch_add(1, Ordering::AcqRel);
        if reports.len() == MAX_REMEMBERED_REPORTS {
            reports.pop_front();
        }
        reports.push_back(report);
    }

    /// Hands the reactor's counters to the scrape surfaces (called once from
    /// [`crate::reactor::spawn`]; subsequent sets are ignored).
    #[cfg(unix)]
    pub(crate) fn set_reactor_counters(&self, counters: Arc<crate::reactor::ReactorCounters>) {
        let _ = self.reactor_counters.set(counters);
    }

    /// The reactor's event-loop snapshot, when this server runs one.
    fn reactor_stats(&self) -> Option<ReactorStats> {
        #[cfg(unix)]
        {
            self.reactor_counters.get().map(|c| c.snapshot())
        }
        #[cfg(not(unix))]
        {
            None
        }
    }

    /// A live snapshot of the server's accounting — the single assembly
    /// behind [`TcpServer::stats`], the `STATS` verb and the admin listener.
    pub(crate) fn server_stats(&self) -> ServerStats {
        // Seqlock read side: retry while a `record` is mid-update so the
        // snapshot never shows half of one connection's accounting. Bounded:
        // under a pathological record storm the last attempt is taken as-is
        // (each field is still individually atomic).
        for _ in 0..64 {
            let before = self.record_epoch.load(Ordering::Acquire);
            if before & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let snap = self.server_stats_unsynced();
            if self.record_epoch.load(Ordering::Acquire) == before {
                return snap;
            }
        }
        self.server_stats_unsynced()
    }

    fn server_stats_unsynced(&self) -> ServerStats {
        let router = self.router.stats();
        let shards = (0..self.router.shard_count())
            .map(|idx| {
                let runtime = self.router.shard(idx);
                let acc = &self.accounting[idx];
                let (chunks_in_order, chunks_speculative) = runtime.chunk_modes();
                ShardStats {
                    shard: idx,
                    workers: runtime.workers(),
                    active_sessions: acc.active.load(Ordering::Acquire),
                    sessions: router.per_shard_placements.get(idx).copied().unwrap_or(0),
                    matches: acc.matches.load(Ordering::Acquire),
                    frames_out: acc.frames.load(Ordering::Acquire),
                    bytes_out: acc.bytes_out.load(Ordering::Acquire),
                    peak_retained_bytes: acc.peak_retained.load(Ordering::Acquire),
                    peak_queue_depth: runtime.peak_queue_depth(),
                    chunks_in_order,
                    chunks_speculative,
                }
            })
            .collect();
        ServerStats {
            // Acquire on the seqlock read side: these loads must not drift
            // past the epoch re-validation in `server_stats` (upgraded from
            // Relaxed in the PR-8 concurrency audit).
            accepted: self.accepted.load(Ordering::Acquire),
            active: self.active.load(Ordering::Acquire),
            handshake_rejects: self.handshake_rejects.load(Ordering::Acquire),
            sessions_completed: self.sessions_completed.load(Ordering::Acquire),
            sessions_failed: self.sessions_failed.load(Ordering::Acquire),
            frames_out: self.frames_out.load(Ordering::Acquire),
            bytes_out: self.bytes_out.load(Ordering::Acquire),
            reactor: self.reactor_stats(),
            shards,
            router,
            connections: lock_recover(&self.reports).0.iter().cloned().collect(),
        }
    }

    /// Assembles the live metrics [`Registry`]: the [`ServerStats`] snapshot
    /// (one source of truth with [`TcpServer::stats`]) re-exported as
    /// `ppt_*` families, plus the per-shard pipeline histograms and the
    /// serving-layer histograms. Built fresh per scrape; recorders never
    /// block.
    pub(crate) fn build_registry(&self) -> Registry {
        let stats = self.server_stats();
        let mut reg = Registry::new();
        reg.counter(
            "ppt_accepted_total",
            "Connections accepted (handshake outcome regardless).",
            vec![],
            stats.accepted,
        );
        reg.gauge(
            "ppt_active_connections",
            "Connections currently being served.",
            vec![],
            stats.active as f64,
        );
        reg.counter(
            "ppt_handshake_rejects_total",
            "Connections that never produced a valid handshake.",
            vec![],
            stats.handshake_rejects,
        );
        reg.counter(
            "ppt_sessions_completed_total",
            "Sessions that served their stream to the end without an error.",
            vec![],
            stats.sessions_completed,
        );
        reg.counter(
            "ppt_sessions_failed_total",
            "Sessions that ended with a read, write, or pipeline error.",
            vec![],
            stats.sessions_failed,
        );
        reg.counter(
            "ppt_frames_out_total",
            "Match frames written across all connections.",
            vec![],
            stats.frames_out,
        );
        reg.counter(
            "ppt_bytes_out_total",
            "Frame bytes written across all connections.",
            vec![],
            stats.bytes_out,
        );
        reg.counter(
            "ppt_egress_copied_bytes_total",
            "Egress bytes copied into reactor outboxes (headers, fallbacks).",
            vec![],
            self.telemetry.bytes_copied.get(),
        );
        reg.counter(
            "ppt_egress_borrowed_bytes_total",
            "Egress payload bytes borrowed from retention windows (zero-copy).",
            vec![],
            self.telemetry.bytes_borrowed.get(),
        );
        reg.counter(
            "ppt_scrapes_total",
            "Metrics pages served (STATS verb plus admin endpoint).",
            vec![],
            self.telemetry.scrapes.get(),
        );
        for shard in &stats.shards {
            let label = |key| vec![(key, shard.shard.to_string())];
            reg.gauge(
                "ppt_shard_active_sessions",
                "Sessions currently being served, by shard.",
                label("shard"),
                shard.active_sessions as f64,
            );
            reg.counter(
                "ppt_shard_sessions_total",
                "Sessions ever placed, by shard.",
                label("shard"),
                shard.sessions,
            );
            reg.counter(
                "ppt_shard_matches_total",
                "Query matches emitted by completed sessions, by shard.",
                label("shard"),
                shard.matches,
            );
            reg.counter(
                "ppt_shard_frames_out_total",
                "Match frames written, by shard.",
                label("shard"),
                shard.frames_out,
            );
            reg.counter(
                "ppt_shard_bytes_out_total",
                "Frame bytes written, by shard.",
                label("shard"),
                shard.bytes_out,
            );
            reg.gauge(
                "ppt_shard_peak_retained_bytes",
                "Largest retention-ring occupancy any one session reached, by shard.",
                label("shard"),
                shard.peak_retained_bytes as f64,
            );
            for (mode, chunks) in
                [("in_order", shard.chunks_in_order), ("speculative", shard.chunks_speculative)]
            {
                reg.counter(
                    "ppt_chunks_total",
                    "Chunks run, by shard and mode: in order from the exact entry, or \
                     speculatively from all states.",
                    vec![("shard", shard.shard.to_string()), ("mode", mode.to_string())],
                    chunks,
                );
            }
            reg.gauge(
                "ppt_shard_peak_queue_depth",
                "Peak worker-pool chunks submitted and not yet started, by shard.",
                label("shard"),
                shard.peak_queue_depth as f64,
            );
            reg.gauge(
                "ppt_shard_workers",
                "Transducer worker threads, by shard.",
                label("shard"),
                shard.workers as f64,
            );
        }
        reg.counter(
            "ppt_router_placements_total",
            "Streams placed on a shard (one per accepted session).",
            vec![],
            stats.router.placements,
        );
        reg.counter(
            "ppt_router_ring_lookups_total",
            "Consistent-hash ring lookups (placements plus bare routes).",
            vec![],
            stats.router.ring_lookups,
        );
        reg.gauge(
            "ppt_router_imbalance",
            "Max per-shard placements over the per-shard mean (1.0 = balanced).",
            vec![],
            stats.router.imbalance,
        );
        if let Some(reactor) = &stats.reactor {
            reg.gauge(
                "ppt_reactor_registered_fds",
                "File descriptors currently registered with the event loop.",
                vec![],
                reactor.registered_fds as f64,
            );
            reg.gauge(
                "ppt_reactor_peak_registered_fds",
                "Peak registered file descriptors.",
                vec![],
                reactor.peak_registered_fds as f64,
            );
            reg.counter(
                "ppt_reactor_polls_total",
                "poll(2) calls across all ingest threads.",
                vec![],
                reactor.polls,
            );
            reg.counter(
                "ppt_reactor_wakeups_total",
                "Cross-thread wake-ups observed on the event fds.",
                vec![],
                reactor.wakeups,
            );
            reg.counter(
                "ppt_reactor_dispatches_total",
                "Readiness events dispatched to connection state machines.",
                vec![],
                reactor.readiness_dispatches,
            );
            reg.gauge(
                "ppt_reactor_peak_outbox_bytes",
                "Peak bytes any single connection's outbox held at once.",
                vec![],
                reactor.peak_outbox_bytes as f64,
            );
        }
        for (idx, telemetry) in self.router.telemetries().iter().enumerate() {
            for (stage, hist) in telemetry.stages() {
                reg.histogram(
                    "ppt_stage_seconds",
                    "Pipeline stage latency (split/transduce/fold/finalize), by shard.",
                    vec![("stage", stage.to_string()), ("shard", idx.to_string())],
                    hist.snapshot(),
                    1e-9,
                );
            }
            reg.histogram(
                "ppt_chunk_bytes",
                "Bytes per chunk submitted to the worker pool, by shard.",
                vec![("shard", idx.to_string())],
                telemetry.chunk_bytes.snapshot(),
                1.0,
            );
            reg.histogram(
                "ppt_ring_occupancy_bytes",
                "Retention-ring occupancy sampled at retain and release, by shard.",
                vec![("shard", idx.to_string())],
                telemetry.ring_occupancy_bytes.snapshot(),
                1.0,
            );
            reg.histogram(
                "ppt_automaton_states",
                "DFA states of every (merged) automaton the subscription layer compiled, by shard.",
                vec![("shard", idx.to_string())],
                telemetry.automaton_states.snapshot(),
                1.0,
            );
        }
        {
            let (hub, _) = lock_recover(&self.hub);
            reg.gauge(
                "ppt_shared_streams",
                "Live shared streams registered for late attach.",
                vec![],
                hub.len() as f64,
            );
            for (id, control) in hub.iter() {
                let label = |key| vec![(key, id.to_string())];
                reg.gauge(
                    "ppt_stream_subscribers",
                    "Live subscribers, by shared stream.",
                    label("stream"),
                    control.subscriber_count() as f64,
                );
                reg.gauge(
                    "ppt_stream_merged_queries",
                    "Distinct queries in the stream's merged automaton.",
                    label("stream"),
                    control.merged_query_count() as f64,
                );
            }
        }
        let serve = &self.telemetry;
        reg.histogram(
            "ppt_handshake_seconds",
            "Accept-to-acceptance handshake duration.",
            vec![],
            serve.handshake_nanos.snapshot(),
            1e-9,
        );
        reg.histogram(
            "ppt_dispatch_seconds",
            "Reactor poll-return-to-dispatch-complete latency per ready round.",
            vec![],
            serve.dispatch_nanos.snapshot(),
            1e-9,
        );
        reg.histogram(
            "ppt_outbox_residency_seconds",
            "Time queued egress bytes sat in a reactor outbox before draining.",
            vec![],
            serve.outbox_residency_nanos.snapshot(),
            1e-9,
        );
        reg.counter(
            "ppt_journal_dropped_total",
            "Event-journal entries evicted because the ring was full.",
            vec![],
            serve.journal.dropped(),
        );
        reg
    }

    /// The metrics page both scrape surfaces serve.
    pub(crate) fn render_metrics(&self) -> String {
        self.build_registry().render_text()
    }
}

/// The merged-engine config the server's knobs map to (chunk and window
/// overrides for the shared stream every connection opens or joins).
pub(crate) fn engine_config(cfg: &TcpServerBuilder) -> EngineConfig {
    let mut config = EngineConfig::default();
    if let Some(bytes) = cfg.chunk_size {
        config.chunk_size = bytes;
    }
    if let Some(bytes) = cfg.window_size {
        config.window_size = bytes;
    }
    config
}

/// The session options a handshake request maps to. `stream_id` is the
/// *resolved* id — the client's requested one, or the server-assigned unique
/// one (see [`assign_stream_id`]) when the handshake carried no `STREAM`
/// line.
pub(crate) fn session_options(
    cfg: &TcpServerBuilder,
    request: &HandshakeRequest,
    stream_id: u64,
) -> SessionOptions {
    let mut opts = SessionOptions::new().stream_id(stream_id);
    if let Some(requested) = request.retain_bytes {
        let budget = requested.min(cfg.max_retain_bytes);
        opts = opts.retain_bytes(usize::try_from(budget).unwrap_or(usize::MAX));
    }
    opts
}

/// Per-connection accounting, kept in the server's stats snapshot for every
/// connection that passed the handshake.
#[derive(Debug, Clone)]
pub struct ConnectionReport {
    /// The client's address.
    pub peer: SocketAddr,
    /// The connection's stream id — the one the client registered, or the
    /// server-assigned unique id when the handshake had no `STREAM` line.
    pub stream_id: u64,
    /// The shard the stream was placed on (always 0 on an unsharded
    /// server).
    pub shard: usize,
    /// The registered query texts, in id order.
    pub queries: Vec<String>,
    /// The negotiated frame format.
    pub format: WireFormat,
    /// Frames accepted for delivery (written to the socket, or — in reactor
    /// mode — framed into the connection's outbox).
    pub frames: u64,
    /// Bytes those frames covered.
    pub bytes_out: u64,
    /// The final session report — per-query match counts and
    /// [`crate::RuntimeStats`]. `None` only when the connection's pipeline
    /// never produced one (the thread-per-connection reader died
    /// mid-stream; the reactor drains the pipeline and keeps the report
    /// even then, with [`ConnectionReport::read_error`] set alongside).
    pub report: Option<SessionReport>,
    /// The first write error, if the client stopped reading frames.
    pub write_error: Option<String>,
    /// The read error that ended ingestion, if the client's stream died
    /// other than by a clean close.
    pub read_error: Option<String>,
}

/// A point-in-time snapshot of a [`TcpServer`]'s accounting.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Connections accepted (handshake outcome regardless).
    pub accepted: u64,
    /// Connections currently being served.
    pub active: usize,
    /// Connections that never produced a valid handshake (malformed lines,
    /// rejected queries, timeouts, hang-ups before `GO`).
    pub handshake_rejects: u64,
    /// Sessions that served their stream to the end without an error.
    pub sessions_completed: u64,
    /// Sessions that ended with a read, write, or pipeline error.
    pub sessions_failed: u64,
    /// Frames written across all connections.
    pub frames_out: u64,
    /// Bytes written across all connections.
    pub bytes_out: u64,
    /// Event-loop accounting when the server runs in
    /// [`ServerMode::Reactor`]; `None` in thread-per-connection mode.
    pub reactor: Option<ReactorStats>,
    /// Per-shard accounting, ring order (a single entry on an unsharded
    /// server).
    pub shards: Vec<ShardStats>,
    /// Placement-ring counters (placements, lookups, imbalance).
    pub router: RouterStats,
    /// Per-connection reports, oldest first (bounded; the counters above
    /// keep counting beyond the cap).
    pub connections: Vec<ConnectionReport>,
}

/// The serving machinery behind a bound server, by mode (accept thread +
/// wake fd, or the reactor's ingest threads).
enum ModeHandles {
    #[cfg(unix)]
    ThreadPerConn {
        accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
        wake: Arc<crate::reactor::WakeFd>,
    },
    #[cfg(not(unix))]
    ThreadPerConn { accept: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>> },
    #[cfg(unix)]
    Reactor(crate::reactor::ReactorHandles),
}

/// A listening TCP front-end over a [`Runtime`].
///
/// ```no_run
/// use ppt_runtime::{serve::TcpServer, Runtime};
/// use std::sync::Arc;
///
/// let runtime = Arc::new(Runtime::builder().workers(4).build());
/// let server = TcpServer::builder().bind("0.0.0.0:7001", runtime).unwrap();
/// println!("serving on {}", server.local_addr());
/// // … later:
/// let stats = server.shutdown();
/// println!("{} sessions served", stats.sessions_completed);
/// ```
pub struct TcpServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    engine: ModeHandles,
    admin: Option<AdminHandle>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("local_addr", &self.local_addr)
            .field("admin", &self.admin.is_some())
            .finish_non_exhaustive()
    }
}

/// The running admin listener (see [`TcpServerBuilder::admin_addr`]).
struct AdminHandle {
    addr: SocketAddr,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpServer {
    /// Starts building a server.
    pub fn builder() -> TcpServerBuilder {
        TcpServerBuilder::default()
    }

    /// Binds with default options.
    pub fn bind<A: ToSocketAddrs>(addr: A, runtime: Arc<Runtime>) -> std::io::Result<TcpServer> {
        TcpServer::builder().bind(addr, runtime)
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A live snapshot of the server's accounting (the same assembly the
    /// `STATS` verb and the admin listener render from).
    pub fn stats(&self) -> ServerStats {
        self.shared.server_stats()
    }

    /// The live metrics page (Prometheus-style text exposition) — what a
    /// `STATS` handshake or `GET /metrics` on the admin listener returns.
    pub fn metrics_text(&self) -> String {
        self.shared.render_metrics()
    }

    /// The admin listener's bound address, when one was configured (useful
    /// with port 0).
    pub fn admin_local_addr(&self) -> Option<SocketAddr> {
        self.admin.as_ref().map(|a| a.addr)
    }

    /// Graceful shutdown: stop accepting, drain every in-flight session
    /// (blocks until their streams end), and return the final stats.
    pub fn shutdown(mut self) -> ServerStats {
        self.shutdown_inner();
        self.stats()
    }

    fn shutdown_inner(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.gate.close();
        if let Some(admin) = &mut self.admin {
            if let Some(thread) = admin.thread.take() {
                // Unblock the admin accept loop; the connection is discarded
                // by its shutdown check.
                let _ = TcpStream::connect(admin.addr);
                let _ = thread.join();
            }
        }
        #[cfg(not(unix))]
        let local_addr = self.local_addr;
        match &mut self.engine {
            #[cfg(unix)]
            ModeHandles::ThreadPerConn { accept, wake } => {
                let Some(accept) = accept.take() else { return };
                // Wake an accept loop parked in poll(): the eventfd makes
                // the wake fd readable. (The old self-connect wake could
                // block for minutes against a full backlog — exactly when
                // the server is at max_connections with clients queued.)
                wake.wake();
                join_accept(accept);
            }
            #[cfg(not(unix))]
            ModeHandles::ThreadPerConn { accept } => {
                let Some(accept) = accept.take() else { return };
                // No poll(2) here: wake a blocked accept() with a throwaway
                // connection to ourselves, discarded by the shutdown check.
                let _ = TcpStream::connect(local_addr);
                join_accept(accept);
            }
            #[cfg(unix)]
            ModeHandles::Reactor(handles) => handles.shutdown_join(),
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Joins the accept thread and drains its in-flight connection handles.
fn join_accept(accept: std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>) {
    match accept.join() {
        Ok(connections) => {
            for conn in connections {
                let _ = conn.join();
            }
        }
        Err(_) => {
            // The accept loop panicked; connection threads are detached but
            // self-contained (each serves one socket), so the server object
            // can still wind down.
        }
    }
}

/// Accepts until shutdown; returns the handles of connections still in
/// flight so `shutdown` can drain them. The listener is nonblocking and
/// multiplexed with the wake fd so shutdown never needs a wake-up
/// connection.
#[cfg(unix)]
fn accept_loop(
    shared: &Arc<Shared>,
    listener: TcpListener,
    wake: &crate::reactor::WakeFd,
) -> Vec<std::thread::JoinHandle<()>> {
    use crate::reactor::{poll_fds, PollFd, POLLIN};
    use std::os::unix::io::AsRawFd;

    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    if listener.set_nonblocking(true).is_err() {
        return connections;
    }
    loop {
        // Admission gate *before* accept: beyond max_connections, pending
        // clients queue in the listener backlog, no thread is spawned. A
        // closed gate (shutdown) returns false and ends the loop.
        if !shared.gate.acquire() {
            break;
        }
        let accepted = loop {
            if shared.shutting_down.load(Ordering::SeqCst) {
                break None;
            }
            match listener.accept() {
                Ok(pair) => break Some(pair),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    let mut fds = [
                        PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 },
                        PollFd { fd: wake.raw_fd(), events: POLLIN, revents: 0 },
                    ];
                    if poll_fds(&mut fds, -1).is_err() {
                        // A persistently failing poll must degrade, not
                        // hard-spin the accept thread (same guard as the
                        // reactor's own loop).
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    if fds[1].revents != 0 {
                        wake.drain();
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Per-connection accept errors (ECONNABORTED) and resource
                // exhaustion (EMFILE — likely exactly when many connection
                // threads hold fds) must not kill the listener; the pause
                // keeps a persistent failure from busy-spinning a core.
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(50));
                    break None;
                }
            }
        };
        let Some((stream, peer)) = accepted else {
            shared.gate.release();
            if shared.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            continue;
        };
        spawn_connection(shared, &mut connections, stream, peer);
    }
    connections
}

/// The portable fallback accept loop: blocking `accept`, woken by the
/// shutdown path's self-connect.
#[cfg(not(unix))]
fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) -> Vec<std::thread::JoinHandle<()>> {
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if !shared.gate.acquire() {
            break;
        }
        let accepted = match listener.accept() {
            Ok((stream, peer)) => Some((stream, peer)),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => None,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(50));
                None
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            shared.gate.release();
            break;
        }
        let Some((stream, peer)) = accepted else {
            shared.gate.release();
            continue;
        };
        spawn_connection(shared, &mut connections, stream, peer);
    }
    connections
}

/// Spawns (and reaps) one connection thread in thread-per-connection mode.
fn spawn_connection(
    shared: &Arc<Shared>,
    connections: &mut Vec<std::thread::JoinHandle<()>>,
    stream: TcpStream,
    peer: SocketAddr,
) {
    // RELAXED-OK: monotonic stat counter; orders nothing.
    shared.accepted.fetch_add(1, Ordering::Relaxed);
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new().name(format!("ppt-conn-{peer}")).spawn(move || {
        // RELAXED-OK: live gauge; readers tolerate transient skew.
        conn_shared.active.fetch_add(1, Ordering::Relaxed);
        serve_connection(&conn_shared, stream, peer);
        // RELAXED-OK: live gauge; readers tolerate transient skew.
        conn_shared.active.fetch_sub(1, Ordering::Relaxed);
        conn_shared.gate.release();
    });
    match spawned {
        Ok(handle) => connections.push(handle),
        Err(_) => shared.gate.release(), // thread exhaustion: drop the conn
    }
    // Reap finished connections so a long-lived server doesn't accumulate
    // handles (dropping a finished handle detaches nothing — the thread is
    // already gone).
    connections.retain(|h| !h.is_finished());
}

/// Serves one accepted connection end to end: handshake, engine build,
/// session, accounting.
fn serve_connection(shared: &Shared, mut stream: TcpStream, peer: SocketAddr) {
    let cfg = &shared.config;
    let _ = stream.set_nodelay(true);
    // The sockets are nonblocking out of the unix accept loop; this path
    // wants the classic blocking reads.
    let _ = stream.set_nonblocking(false);

    // --- Handshake ---------------------------------------------------------
    // The timeout is a *deadline*, not a per-read allowance: the socket
    // read-timeout is re-armed with the time remaining before every read, so
    // a client trickling one byte per interval cannot hold its connection
    // slot forever.
    let handshake_started = std::time::Instant::now();
    let deadline = cfg.handshake_timeout.map(|t| std::time::Instant::now() + t);
    let mut decoder = HandshakeDecoder::with_limits(cfg.max_handshake_line, cfg.max_queries);
    let mut buf = [0u8; 4096];
    let request = loop {
        if let Some(deadline) = deadline {
            let remaining = deadline.saturating_duration_since(std::time::Instant::now());
            if remaining.is_zero() {
                reject(shared, &mut stream, "handshake timed out");
                return;
            }
            let _ = stream.set_read_timeout(Some(remaining));
        }
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                // Hung up (or was killed) mid-handshake: nothing to answer.
                // RELAXED-OK: monotonic stat counter; orders nothing.
                shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // Handshake deadline: answer structurally, then close.
                reject(shared, &mut stream, "handshake timed out");
                return;
            }
            Err(_) => {
                // RELAXED-OK: monotonic stat counter; orders nothing.
                shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        match decoder.push(&buf[..n]) {
            Ok(Some(request)) => break request,
            Ok(None) => {}
            Err(e) => {
                // A malformed handshake is answered with a structured ERR
                // line, never a silently dropped connection.
                reject(shared, &mut stream, &e.to_string());
                return;
            }
        }
    };
    shared.telemetry.handshake_nanos.record_duration(handshake_started.elapsed());
    if request.stats {
        // An in-band scrape: one snapshot page, then close. Not a session
        // (nothing is placed, no report recorded) and not a protocol
        // rejection — `ppt_scrapes_total` is its accounting.
        shared.telemetry.scrapes.inc();
        let page = shared.render_metrics();
        let _ = stream.write_all(format!("OK STATS {}\n", page.len()).as_bytes());
        let _ = stream.write_all(page.as_bytes());
        let _ = stream.flush();
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    // After the handshake the read clock switches from the handshake
    // deadline to the liveness deadline: with `idle_timeout` set, a read
    // that sits longer than that with no bytes fails the session (a live
    // client resets the clock with every read). The write half gets the
    // same deadline so a dead client cannot wedge the joiner's frame writes
    // either. `None` (the default) restores the classic blocking reads.
    let _ = stream.set_read_timeout(cfg.idle_timeout);
    let _ = stream.set_write_timeout(cfg.idle_timeout);

    // The stream id is resolved here — the client's requested one, or a
    // process-unique assignment (two default handshakes used to both get 0,
    // making their frames indistinguishable to an aggregating consumer) —
    // and it is the partition key: the connection runs on the pools of the
    // shard its id hashes to.
    let stream_id = request.stream_id.unwrap_or_else(assign_stream_id);

    // --- Attach: a handshake naming a live shared stream joins it ----------
    // Only explicitly named ids can match (assignments are process-unique),
    // and the race where the stream ends between lookup and attach falls
    // through to serving this connection as a fresh stream owner.
    if request.stream_id.is_some() {
        let target = lock_recover(&shared.hub).0.get(&stream_id).cloned();
        if let Some(control) = target {
            if serve_attached(shared, &mut stream, peer, &control, &request, stream_id) {
                return;
            }
        }
    }

    // --- Owner path: open a shared stream this connection feeds ------------
    // From here on the handshake *succeeded*: failures are session failures
    // (recorded with a report, counted in `sessions_failed`), not handshake
    // rejects — an operator watching `handshake_rejects` for protocol abuse
    // must not see phantom rejects from clients that vanished post-accept.
    // (Query parse errors still go back over the wire as `ERR`, exactly as
    // they always did.)
    let shard = shared.place_stream(stream_id);
    let runtime = Arc::clone(shared.router.shard(shard));
    let session_setup_failed = |error: String| {
        shared.record(ConnectionReport {
            peer,
            stream_id,
            shard,
            queries: request.queries.clone(),
            format: request.format,
            frames: 0,
            bytes_out: 0,
            report: None,
            write_error: Some(error),
            read_error: None,
        });
    };
    let writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(e) => {
            session_setup_failed(format!("socket clone failed: {e}"));
            return;
        }
    };

    // --- Session ------------------------------------------------------------
    // The connection's own frames are written straight onto the socket from
    // the stream's joiner — the single-subscriber case keeps the legacy
    // lossless backpressure; only *co*-subscribers ride bounded queues.
    let opts = session_options(cfg, &request, stream_id);
    let done: Arc<Mutex<OwnerDone>> = Arc::default();
    let owner = OwnerSubscriber {
        sink: Some(WireSink::new(writer, request.format)),
        done: Arc::clone(&done),
    };
    let mut handle = match runtime.open_shared_stream(
        &opts,
        engine_config(cfg),
        cfg.max_automaton_states,
        &request.queries,
        Box::new(owner),
    ) {
        Ok(handle) => handle,
        Err(e) => {
            reject(shared, &mut stream, &attach_reject_message(&e));
            shared.shard_closed(shard);
            return;
        }
    };
    let control = handle.control();
    // Publish for late attaches. A racing owner with the same explicit id
    // may have registered first; this stream then simply serves unshared
    // (its own subscriber only) — first registration wins the id.
    lock_recover(&shared.hub).0.entry(stream_id).or_insert_with(|| Arc::clone(&control));

    // CAST-OK: query count is admission-capped (max_queries) far below
    // 2^32 by the handshake decoder before we get here.
    let ids: Vec<u32> = (0..request.queries.len() as u32).collect();
    let reply = HandshakeReply::Accepted { stream: stream_id, queries: ids };
    let reply_failed = stream.write_all(reply.encode().as_bytes()).err();

    // --- Feed loop ----------------------------------------------------------
    // Bytes that arrived in the same reads as the handshake are the head of
    // the stream.
    let mut read_error: Option<std::io::Error> = None;
    if reply_failed.is_none() {
        let remainder = decoder.take_remainder();
        if !remainder.is_empty() {
            handle.feed(&remainder);
        }
        let mut buf = [0u8; 64 << 10];
        while !handle.is_dead() {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => handle.feed(&buf[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    read_error = Some(e);
                    break;
                }
            }
        }
    }

    // Unpublish before draining so a late attach cannot land on a stream
    // that is already finishing (it opens a fresh one instead); remove only
    // our own registration (a raced owner's entry is not ours to drop).
    {
        let (mut hub, _) = lock_recover(&shared.hub);
        if hub.get(&stream_id).is_some_and(|c| Arc::ptr_eq(c, &control)) {
            hub.remove(&stream_id);
        }
    }
    let report = handle.finish();

    // A socket-deadline expiry on either side *is* the liveness verdict in
    // this mode: name it as such instead of leaking the kernel's
    // would-block phrasing into the report.
    let name_verdict = |e: std::io::Error| match (cfg.idle_timeout, e.kind()) {
        (Some(idle), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut) => {
            idle_timeout_error(idle)
        }
        _ => e.to_string(),
    };
    let owner_done = std::mem::take(&mut *lock_recover(&done).0);
    let write_error = match reply_failed {
        Some(e) => Some(format!("handshake reply failed: {e}")),
        None => owner_done.write_error.map(name_verdict),
    };
    shared.record(ConnectionReport {
        peer,
        stream_id,
        shard,
        queries: request.queries,
        format: request.format,
        frames: owner_done.frames,
        bytes_out: owner_done.bytes_out,
        report: Some(report),
        write_error,
        read_error: read_error.map(name_verdict),
    });
    // Half-close (the client's frame reader sees EOF even if it keeps its
    // write half open) only after the report is recorded: a client that has
    // seen EOF can rely on `/metrics` counting its session.
    let _ = stream.shutdown(Shutdown::Write);
}

/// Frames a subscriber's bounded queue holds before the stream starts
/// shedding that subscriber's matches: the slow co-tenant's isolation
/// boundary — a subscriber that stops draining costs drops on *its own*
/// connection, never a stall of the shared pipeline.
const SUBSCRIBER_QUEUE_FRAMES: usize = 1024;

/// The `ERR` text an attach/open failure maps to (query parse errors keep
/// the exact `wire_message` shape the non-shared handshake always used).
pub(crate) fn attach_reject_message(err: &AttachError) -> String {
    match err {
        AttachError::Query(e) => e.wire_message(),
        other => other.to_string(),
    }
}

/// What the owner connection's accounting needs back from its boxed-away
/// subscriber sink once the stream ends.
#[derive(Default)]
struct OwnerDone {
    frames: u64,
    bytes_out: u64,
    write_error: Option<std::io::Error>,
    report: Option<SubscriberReport>,
}

/// The stream owner's subscriber: writes its frames straight onto the
/// connection socket from the stream's joiner (lossless, exactly the
/// pre-subscription serving discipline) and hands the accounting back
/// through `done` when the stream ends.
struct OwnerSubscriber {
    sink: Option<WireSink<TcpStream>>,
    done: Arc<Mutex<OwnerDone>>,
}

impl SubscriberSink for OwnerSubscriber {
    fn deliver(&mut self, m: BorrowedMatch) -> SubscriberDelivery {
        // `WireSink` latches the first write error and refuses further
        // frames; the latched error surfaces in `end`.
        match self.sink.as_mut() {
            Some(sink) => {
                if sink.on_match_borrowed(m) {
                    SubscriberDelivery::Delivered
                } else {
                    SubscriberDelivery::Dropped
                }
            }
            None => SubscriberDelivery::Dropped,
        }
    }

    fn end(&mut self, report: SubscriberReport) {
        let (mut done, _) = lock_recover(&self.done);
        if let Some(sink) = self.sink.take() {
            done.frames = sink.frames;
            done.bytes_out = sink.bytes_out;
            // The socket stays open: the connection thread half-closes it
            // once the report is recorded, never before.
            done.write_error = sink.into_parts().1;
        }
        done.report = Some(report);
    }
}

/// A late subscriber's sink: matches hop a bounded queue from the shared
/// stream's joiner to the subscriber's own connection thread, which does the
/// (potentially slow) socket writes. `try_send` keeps delivery non-blocking:
/// a full queue sheds *this* subscriber's match, a hung-up drainer detaches
/// it — the shared pipeline never waits.
struct ChannelSubscriber {
    tx: Option<std::sync::mpsc::SyncSender<BorrowedMatch>>,
    report: Arc<Mutex<Option<SubscriberReport>>>,
}

impl SubscriberSink for ChannelSubscriber {
    fn deliver(&mut self, m: BorrowedMatch) -> SubscriberDelivery {
        match &self.tx {
            Some(tx) => match tx.try_send(m) {
                Ok(()) => SubscriberDelivery::Delivered,
                Err(std::sync::mpsc::TrySendError::Full(_)) => SubscriberDelivery::Dropped,
                Err(std::sync::mpsc::TrySendError::Disconnected(_)) => SubscriberDelivery::Detach,
            },
            None => SubscriberDelivery::Detach,
        }
    }

    fn end(&mut self, report: SubscriberReport) {
        *lock_recover(&self.report).0 = Some(report);
        // Dropping the sender disconnects the receiver once the queued
        // frames drain: the connection thread writes out the tail and
        // closes.
        self.tx = None;
    }
}

/// Serves a connection that attached to a live shared stream: registers its
/// queries (merging them into the stream's automaton), replies `OK ATTACH`,
/// then drains the subscriber's frame queue onto the socket until the stream
/// ends or the socket dies. Returns `false` when the stream ended before the
/// attach landed — the caller then serves the connection as a fresh owner.
fn serve_attached(
    shared: &Shared,
    stream: &mut TcpStream,
    peer: SocketAddr,
    control: &Arc<StreamControl>,
    request: &HandshakeRequest,
    stream_id: u64,
) -> bool {
    let (tx, rx) = std::sync::mpsc::sync_channel::<BorrowedMatch>(SUBSCRIBER_QUEUE_FRAMES);
    let slot: Arc<Mutex<Option<SubscriberReport>>> = Arc::default();
    let sub = ChannelSubscriber { tx: Some(tx), report: Arc::clone(&slot) };
    let id = match control.attach(&request.queries, Box::new(sub)) {
        Ok(id) => id,
        Err(AttachError::Ended) => return false,
        Err(e) => {
            reject(shared, stream, &attach_reject_message(&e));
            return true;
        }
    };
    // Subscribers account on the stream's shard — same placement as the
    // owner (the ring is deterministic in the id), so co-subscribers of one
    // stream never scatter across shards.
    let shard = shared.place_stream(stream_id);
    let record = |frames: u64,
                  bytes_out: u64,
                  report: Option<SessionReport>,
                  write_error: Option<String>| {
        shared.record(ConnectionReport {
            peer,
            stream_id,
            shard,
            queries: request.queries.clone(),
            format: request.format,
            frames,
            bytes_out,
            report,
            write_error,
            read_error: None,
        });
    };
    // CAST-OK: query count is admission-capped (max_queries) far below
    // 2^32 by the handshake decoder before we get here.
    let ids: Vec<u32> = (0..request.queries.len() as u32).collect();
    let reply = HandshakeReply::Attached { stream: stream_id, queries: ids };
    if let Err(e) = stream.write_all(reply.encode().as_bytes()) {
        let _ = control.detach(id);
        record(0, 0, None, Some(format!("handshake reply failed: {e}")));
        return true;
    }
    let writer = match stream.try_clone() {
        Ok(writer) => writer,
        Err(e) => {
            let _ = control.detach(id);
            record(0, 0, None, Some(format!("socket clone failed: {e}")));
            return true;
        }
    };

    // Drain queue → socket. The payload refs still borrow the stream's
    // retention windows — the fan-out stayed zero-copy across the thread
    // hop; the bytes are first copied (if ever) by the kernel here.
    let mut sink = WireSink::new(writer, request.format);
    while let Ok(m) = rx.recv() {
        if !sink.on_match_borrowed(m) {
            break; // write died: stop draining, detach below
        }
    }
    let _ = control.detach(id); // no-op when the stream ended first
    let (frames, bytes_out) = (sink.frames, sink.bytes_out);
    let (writer, write_error) = sink.into_parts();
    // The subscriber's report becomes the connection's session report: its
    // local per-query counts, its delivered/dropped totals, its (or the
    // stream's) terminal error.
    let session_report = lock_recover(&slot).0.take().map(|r| SessionReport {
        stats: RuntimeStats {
            matches: r.delivered,
            dropped_matches: r.dropped,
            ..RuntimeStats::default()
        },
        match_counts: r.match_counts,
        submatch_counts: Vec::new(),
        error: r.error,
        speculation_ratio: None,
    });
    record(frames, bytes_out, session_report, write_error.map(|e| e.to_string()));
    // Recorded first, closed second (see `serve_connection`).
    let _ = writer.shutdown(Shutdown::Write);
    true
}

/// Writes a structured `ERR` reply (best effort — the client may already be
/// gone) and counts the rejection.
fn reject(shared: &Shared, stream: &mut TcpStream, message: &str) {
    // RELAXED-OK: monotonic stat counter; orders nothing.
    shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
    let _ = stream.write_all(HandshakeReply::Rejected(message.to_string()).encode().as_bytes());
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// Binds and spawns the admin listener thread (see
/// [`TcpServerBuilder::admin_addr`]).
fn spawn_admin(shared: Arc<Shared>, addr: &str) -> std::io::Result<AdminHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let thread = std::thread::Builder::new()
        .name("ppt-admin".to_string())
        .spawn(move || admin_loop(&shared, &listener))
        .map_err(|e| std::io::Error::other(format!("failed to spawn admin thread: {e}")))?;
    Ok(AdminHandle { addr: local, thread: Some(thread) })
}

/// Serves admin scrapes serially until shutdown. Blocking `accept`, woken
/// by the shutdown path's throwaway self-connect (the admin plane has no
/// reactor to borrow a wake fd from, and serial accept means the connect
/// is always consumed promptly).
fn admin_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => Some(stream),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => None,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(50));
                None
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            return;
        }
        if let Some(stream) = stream {
            serve_admin_conn(shared, stream);
        }
    }
}

/// Answers one admin request: `GET /metrics` (or `/`) returns the metrics
/// page, `GET /journal` the event journal, anything else HTTP 404. A
/// non-HTTP request (bare `nc`, a lone newline) gets the metrics page raw.
/// Every read is bounded by a short timeout so a stalled scraper cannot
/// wedge the admin plane.
fn serve_admin_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_nodelay(true);
    let mut request = Vec::new();
    let mut buf = [0u8; 1024];
    // Read until the header terminator (HTTP) or the first newline (bare
    // line), capped — an admin request is one line plus a few headers.
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                request.extend_from_slice(&buf[..n]);
                let is_http = request.starts_with(b"GET ");
                let headers_done = request.windows(4).any(|w| w == b"\r\n\r\n")
                    || request.windows(2).any(|w| w == b"\n\n");
                if (is_http && headers_done)
                    || (!is_http && request.contains(&b'\n'))
                    || request.len() >= 8 << 10
                {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let text = String::from_utf8_lossy(&request);
    let first = text.lines().next().unwrap_or("");
    if let Some(rest) = first.strip_prefix("GET ") {
        let path = rest.split_whitespace().next().unwrap_or("/");
        let (status, body) = match path {
            "/" | "/metrics" => {
                shared.telemetry.scrapes.inc();
                ("200 OK", shared.render_metrics())
            }
            "/journal" => ("200 OK", shared.telemetry.journal.render_text()),
            _ => ("404 Not Found", "not found: try /metrics or /journal\n".to_string()),
        };
        let header = format!(
            "HTTP/1.0 {status}\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        );
        let _ = stream.write_all(header.as_bytes());
        let _ = stream.write_all(body.as_bytes());
    } else {
        shared.telemetry.scrapes.inc();
        let _ = stream.write_all(shared.render_metrics().as_bytes());
    }
    let _ = stream.flush();
    let _ = stream.shutdown(Shutdown::Both);
}

/// A client-side registration failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(std::io::Error),
    /// The server answered `ERR <reason>`.
    Rejected(String),
    /// The server's reply line was not part of the protocol.
    BadReply(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "registration I/O failed: {e}"),
            ClientError::Rejected(reason) => write!(f, "server rejected the handshake: {reason}"),
            ClientError::BadReply(line) => write!(f, "unintelligible reply line: {line:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A successful registration: what the server's `OK` line carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Registration {
    /// The stream id every frame of this session will carry — the requested
    /// one, or the server's unique assignment when the request had none.
    pub stream_id: u64,
    /// Per-query ids, in registration order.
    pub query_ids: Vec<u32>,
    /// `true` when the server replied `OK ATTACH`: this connection joined an
    /// already-live shared stream and receives frames from its attach point
    /// onward, not from the stream's beginning.
    pub attached: bool,
}

/// Client-side helper: writes `request`'s handshake onto `stream` and reads
/// the server's one-line verdict. On acceptance the session's stream id and
/// the per-query ids come back; every byte after the reply line is left
/// unread in the socket for the caller's frame decoder.
///
/// (The reply is read byte-by-byte up to the first `\n` — a buffered reader
/// here would swallow the head of the frame stream.)
pub fn register(
    stream: &mut TcpStream,
    request: &HandshakeRequest,
) -> Result<Registration, ClientError> {
    stream.write_all(&request.encode())?;
    stream.flush()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err(ClientError::BadReply(String::from_utf8_lossy(&line).into())),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                if line.len() > DEFAULT_MAX_HANDSHAKE_LINE {
                    return Err(ClientError::BadReply("reply line never ended".to_string()));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    let text = String::from_utf8_lossy(&line);
    match HandshakeReply::decode(&text) {
        Ok(HandshakeReply::Accepted { stream, queries }) => {
            Ok(Registration { stream_id: stream, query_ids: queries, attached: false })
        }
        Ok(HandshakeReply::Attached { stream, queries }) => {
            Ok(Registration { stream_id: stream, query_ids: queries, attached: true })
        }
        Ok(HandshakeReply::Rejected(reason)) => Err(ClientError::Rejected(reason)),
        Err(_) => Err(ClientError::BadReply(text.into())),
    }
}

/// Client-side scrape helper: performs a `STATS` handshake against `addr`
/// and returns the server's live metrics page (the same Prometheus-style
/// text the admin listener serves at `/metrics`).
pub fn scrape<A: ToSocketAddrs>(addr: A) -> Result<String, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&HandshakeRequest::stats().encode())?;
    stream.flush()?;
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err(ClientError::BadReply(String::from_utf8_lossy(&line).into())),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => {
                if line.len() > DEFAULT_MAX_HANDSHAKE_LINE {
                    return Err(ClientError::BadReply("reply line never ended".to_string()));
                }
                line.push(byte[0]);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ClientError::Io(e)),
        }
    }
    let text = String::from_utf8_lossy(&line).into_owned();
    let Some(rest) = text.strip_prefix("OK STATS ") else {
        return match text.strip_prefix("ERR ") {
            Some(reason) => Err(ClientError::Rejected(reason.to_string())),
            None => Err(ClientError::BadReply(text)),
        };
    };
    let len: usize = rest.trim().parse().map_err(|_| ClientError::BadReply(text.clone()))?;
    let mut page = vec![0u8; len];
    stream.read_exact(&mut page)?;
    Ok(String::from_utf8_lossy(&page).into_owned())
}
