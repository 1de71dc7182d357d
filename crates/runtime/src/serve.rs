//! The TCP serving front-end: real sockets bound to runtime sessions.
//!
//! [`Runtime::serve_reader`] already speaks the wire protocol over any
//! `io::Read`/`io::Write` pair; this module supplies the missing listener. A
//! [`TcpServer`] accepts connections, runs the line-based query-registration
//! handshake (see [`crate::wire`]'s handshake section for the grammar), and
//! binds each accepted connection to one materialized session: the bytes the
//! client streams after `GO` flow through the splitter → worker pool → fold
//! pipeline, and every match comes back over the same socket as a wire frame.
//!
//! ```text
//!            ┌────────────────────── TcpServer ──────────────────────┐
//! client ──► │ handshake (QUERY…/GO → OK|ERR) ─► Engine ─► session   │
//!        ◄── │ frames (json | binary)    ◄── WireSink ◄── fold job   │
//!            └───────────────────────────────────────────────────────┘
//! ```
//!
//! There is one serving discipline and one execution site: a single ingest
//! thread drives every connection from a `poll(2)` event loop over
//! nonblocking sockets (see [`crate::reactor`]), and every session runs on
//! the one [`Runtime`] passed to [`TcpServerBuilder::bind`], whose workers
//! both transduce its chunks and fold them, so binding a server adds one
//! thread. One thread feeds thousands of slow network streams, and a slow
//! client exerts backpressure through its bounded outbox and the retention
//! ring instead of wedging a thread. This module is the server's shape —
//! builder, admission, accounting, scrape surfaces, client helpers; the
//! reactor is its engine room. Serving needs Unix (`poll(2)`, `writev(2)`,
//! `eventfd(2)`); the engine and the in-process runtime APIs
//! ([`Runtime::serve_reader`] included) do not.
//!
//! Design points, in the spirit of the paper's serving discipline:
//!
//! * **Admission is credit-gated** (`Gate` mirrors
//!   `SessionCore::try_acquire_credit`): at most `max_connections` sessions
//!   run at once; while no slot is free the listener leaves the poll set and
//!   further clients wait in the listener backlog.
//! * **A malformed or half-closed connection poisons one session, never the
//!   process.** Handshake failures are answered with a structured
//!   `ERR <reason>` line, not a dropped connection; engine-build failures
//!   travel the same path ([`ppt_xpath::XPathError::wire_message`]); read
//!   and write errors mid-stream latch into that connection's report while
//!   every other session keeps flowing.
//! * **Graceful shutdown**: [`TcpServer::shutdown`] stops accepting, then
//!   drains the connections still in flight before returning the final
//!   [`ServerStats`]. The ingest thread is woken through its wake fd, never
//!   by the server connecting to itself — a self-connect wake could block
//!   indefinitely against a full backlog exactly when the server was
//!   busiest.
//! * **Accounting survives the disconnect**: every connection that passed
//!   the handshake leaves a [`ConnectionReport`] in the server-level stats
//!   snapshot, beside the event-loop totals ([`ReactorStats`]).
//! * **Every stream has an identity.** A handshake without `STREAM` gets a
//!   process-unique, never-zero id, echoed in the `OK` reply, so an
//!   aggregating consumer can always demux the frames of concurrent
//!   sessions.
//! * **Liveness is optional but total**: [`TcpServerBuilder::idle_timeout`]
//!   times out post-handshake connections with no socket progress — the
//!   dead-but-open-client case the handshake deadline cannot see.

use crate::pool::lock_recover;
use crate::reactor::{ReactorCounters, ReactorHandles};
use crate::stats::ReactorStats;
use crate::subscribe::{AttachError, StreamControl};
use crate::telemetry::{Counter, EventJournal, EventKind, Histogram, Registry};
use crate::wire::{
    HandshakeReply, HandshakeRequest, WireFormat, DEFAULT_MAX_HANDSHAKE_LINE, DEFAULT_MAX_QUERIES,
};
use crate::{Runtime, SessionOptions, SessionReport};
use ppt_core::EngineConfig;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
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

/// The structured liveness verdict, worded once for every idle expiry —
/// [`Shared::record`], tests and operators match on this text.
pub(crate) fn idle_timeout_error(idle: Duration) -> String {
    format!("idle timeout: no socket progress for {idle:?}")
}

/// Completed connections remembered in the stats snapshot (oldest dropped
/// first); counters keep counting beyond this.
const MAX_REMEMBERED_REPORTS: usize = 1024;

/// Ceiling on the retention budget a client may request; larger `RETAIN`
/// requests are clamped, not rejected.
const MAX_RETAIN_BYTES: u64 = 64 << 20;

/// State-count ceiling for each stream's merged automaton. A late attach
/// whose query merge would determinize past it is refused with a structured
/// `ERR` — existing subscribers of the stream are never degraded by a
/// co-tenant's pathological query set.
pub(crate) const MAX_AUTOMATON_STATES: usize = 1 << 16;

/// Builder for a [`TcpServer`].
#[derive(Debug, Clone)]
pub struct TcpServerBuilder {
    pub(crate) max_connections: usize,
    pub(crate) max_queries: usize,
    pub(crate) handshake_timeout: Option<Duration>,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) chunk_size: Option<usize>,
    pub(crate) window_size: Option<usize>,
    pub(crate) max_outbox_bytes: usize,
    pub(crate) admin_addr: Option<String>,
}

impl Default for TcpServerBuilder {
    fn default() -> TcpServerBuilder {
        TcpServerBuilder {
            max_connections: 64,
            max_queries: DEFAULT_MAX_QUERIES,
            handshake_timeout: Some(Duration::from_secs(10)),
            idle_timeout: None,
            chunk_size: None,
            window_size: None,
            max_outbox_bytes: 1 << 20,
            admin_addr: None,
        }
    }
}

impl TcpServerBuilder {
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
    /// clock. Two refinements pin "progress" down:
    ///
    /// * A **pipeline-side stall** never counts against the client: a
    ///   connection the server still owes work on (chunks pending in a
    ///   blocked feeder or submitted but not yet folded) while its own
    ///   outbox is *not* backed up (the stall is a busy worker pool, not
    ///   the client) has its clock reset.
    /// * A client that **stops draining its frames** past the deadline is
    ///   treated as dead — indistinguishable from the NAT-idled case. The
    ///   session is poisoned and the connection closed.
    ///
    /// Set it comfortably above the longest quiet period the workload's
    /// streams legitimately have.
    pub fn idle_timeout(mut self, timeout: Option<Duration>) -> TcpServerBuilder {
        self.idle_timeout = timeout;
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

    /// Per-connection outbox byte cap (default 1 MiB): frames queued beyond
    /// it park the session's fold until the socket drains — the
    /// backpressure path for slow clients. Soft cap: the buffer may
    /// overshoot by one chunk's worth of frames.
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
    /// serial — one scrape at a time, each bounded by a short read timeout —
    /// because a metrics plane must never compete with the data plane for
    /// threads.
    pub fn admin_addr<A: Into<String>>(mut self, addr: A) -> TcpServerBuilder {
        self.admin_addr = Some(addr.into());
        self
    }

    /// Binds the listener and starts serving. Every session runs on the
    /// given runtime's shared worker pool.
    pub fn bind<A: ToSocketAddrs>(
        self,
        addr: A,
        runtime: Arc<Runtime>,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            runtime,
            gate: Gate::new(self.max_connections),
            config: self,
            shutting_down: AtomicBool::new(false),
            accepted: AtomicU64::new(0),
            handshake_rejects: AtomicU64::new(0),
            active: AtomicUsize::new(0),
            ledger: Mutex::default(),
            hub: Mutex::new(HashMap::new()),
            telemetry: Arc::new(ServeTelemetry::default()),
            reactor_counters: Arc::default(),
        });
        let reactor = crate::reactor::spawn(Arc::clone(&shared), listener)?;
        let admin = match shared.config.admin_addr.clone() {
            Some(addr) => Some(spawn_admin(Arc::clone(&shared), &addr)?),
            None => None,
        };
        Ok(TcpServer { shared, local_addr, reactor, admin })
    }
}

/// The admission gate: the pipeline's credit pattern applied to whole
/// connections. The ingest thread takes a slot before each `accept` (and
/// leaves the listener out of its poll set while none is free) and gives it
/// back when it closes the connection. Nothing ever waits on it, and once
/// closed (shutdown, from the caller's thread) it refuses every acquire.
pub(crate) struct Gate {
    slots: Mutex<usize>,
    closed: AtomicBool,
}

impl Gate {
    fn new(slots: usize) -> Gate {
        Gate { slots: Mutex::new(slots), closed: AtomicBool::new(false) }
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
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
    }
}

/// Serving-layer telemetry shared by every scrape surface (the in-band
/// `STATS` verb and the admin listener): handshake/dispatch/outbox
/// histograms, the scrape counter, and the session lifecycle journal.
/// Pipeline-stage histograms live on the runtime's
/// [`crate::telemetry::RuntimeTelemetry`].
#[derive(Debug, Default)]
pub(crate) struct ServeTelemetry {
    /// Accept-to-acceptance handshake duration (nanoseconds).
    pub handshake_nanos: Histogram,
    /// Reactor poll-return-to-dispatch-complete latency per round with at
    /// least one ready fd (nanoseconds).
    pub dispatch_nanos: Histogram,
    /// How long queued egress bytes sat in a reactor outbox before the
    /// socket drained it empty (nanoseconds).
    pub outbox_residency_nanos: Histogram,
    /// Egress bytes that were *copied* into an outbox (frame headers, JSON
    /// fallback frames, handshake replies, `STATS` pages).
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

/// What [`Shared::record`] totals over the recorded connections, and the
/// latest reports themselves, under one lock.
#[derive(Default)]
struct Ledger {
    sessions_completed: u64,
    sessions_failed: u64,
    frames_out: u64,
    bytes_out: u64,
    matches: u64,
    peak_retained: usize,
    reports: VecDeque<ConnectionReport>,
}

/// Everything the ingest thread, the fold jobs and the scrape surfaces
/// share.
pub(crate) struct Shared {
    /// The one execution site: every session runs on this runtime's pools.
    pub(crate) runtime: Arc<Runtime>,
    pub(crate) config: TcpServerBuilder,
    pub(crate) gate: Gate,
    pub(crate) shutting_down: AtomicBool,
    pub(crate) accepted: AtomicU64,
    pub(crate) handshake_rejects: AtomicU64,
    pub(crate) active: AtomicUsize,
    ledger: Mutex<Ledger>,
    /// Live shared streams by stream id: a later connection whose handshake
    /// names one of these ids *attaches* to the running stream (one
    /// transducer pass fans out to every subscriber) instead of opening a
    /// second session. Entries are registered by the owning connection and
    /// removed when its stream finishes.
    pub(crate) hub: Mutex<HashMap<u64, Arc<StreamControl>>>,
    pub(crate) telemetry: Arc<ServeTelemetry>,
    /// The reactor's event-loop counters: the ingest thread counts into
    /// them, and every scrape surface (in-band `STATS`, admin listener,
    /// [`TcpServer::stats`]) reads the same source of truth.
    pub(crate) reactor_counters: Arc<ReactorCounters>,
}

impl Shared {
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
        self.telemetry.journal.record(kind, report.stream_id);
        let (mut ledger, _) = lock_recover(&self.ledger);
        if failed {
            ledger.sessions_failed += 1;
        } else {
            ledger.sessions_completed += 1;
        }
        ledger.frames_out += report.frames;
        ledger.bytes_out += report.bytes_out;
        if let Some(session) = &report.report {
            ledger.matches += session.stats.matches;
            ledger.peak_retained = ledger.peak_retained.max(session.stats.peak_retained_bytes);
        }
        if ledger.reports.len() == MAX_REMEMBERED_REPORTS {
            ledger.reports.pop_front();
        }
        ledger.reports.push_back(report);
    }

    /// A live snapshot of the server's accounting — the single assembly
    /// behind [`TcpServer::stats`], the `STATS` verb and the admin listener.
    /// The recorded connections' totals come from one look at the ledger, so
    /// the snapshot never shows half of one connection's accounting.
    pub(crate) fn server_stats(&self) -> ServerStats {
        let (chunks_in_order, chunks_speculative) = self.runtime.chunk_modes();
        let ledger = lock_recover(&self.ledger).0;
        ServerStats {
            accepted: self.accepted.load(Ordering::Acquire),
            active: self.active.load(Ordering::Acquire),
            handshake_rejects: self.handshake_rejects.load(Ordering::Acquire),
            sessions_completed: ledger.sessions_completed,
            sessions_failed: ledger.sessions_failed,
            frames_out: ledger.frames_out,
            bytes_out: ledger.bytes_out,
            matches: ledger.matches,
            peak_retained_bytes: ledger.peak_retained,
            peak_queue_depth: self.runtime.peak_queue_depth(),
            chunks_in_order,
            chunks_speculative,
            reactor: self.reactor_counters.snapshot(),
            connections: ledger.reports.iter().cloned().collect(),
        }
    }

    /// Assembles the live metrics [`Registry`]: the [`ServerStats`] snapshot
    /// (one source of truth with [`TcpServer::stats`]) re-exported as
    /// `ppt_*` families, plus the runtime's pipeline histograms and the
    /// serving-layer histograms. Built fresh per scrape; recorders never
    /// block.
    ///
    /// `ppt_shard_peak_retained_bytes` and `ppt_shard_peak_queue_depth`
    /// keep their `shard` infix because external scrapers (the frozen
    /// benchmark among them) sum them by name; both are server-wide values.
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
            "ppt_matches_total",
            "Query matches emitted by recorded sessions.",
            vec![],
            stats.matches,
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
        reg.gauge(
            "ppt_shard_peak_retained_bytes",
            "Largest retention-ring occupancy any one recorded session reached.",
            vec![],
            stats.peak_retained_bytes as f64,
        );
        for (mode, chunks) in
            [("in_order", stats.chunks_in_order), ("speculative", stats.chunks_speculative)]
        {
            reg.counter(
                "ppt_chunks_total",
                "Chunks run, by mode: in order from the exact entry, or speculatively from \
                 all states.",
                vec![("mode", mode.to_string())],
                chunks,
            );
        }
        reg.gauge(
            "ppt_shard_peak_queue_depth",
            "Peak worker-pool chunks submitted and not yet started.",
            vec![],
            stats.peak_queue_depth as f64,
        );
        reg.gauge(
            "ppt_workers",
            "Transducer worker threads.",
            vec![],
            self.runtime.workers() as f64,
        );
        let reactor = &stats.reactor;
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
        reg.counter("ppt_reactor_polls_total", "poll(2) calls.", vec![], reactor.polls);
        reg.counter(
            "ppt_reactor_wakeups_total",
            "Cross-thread wake-ups observed on the event fd.",
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
        let telemetry = self.runtime.telemetry();
        for (stage, hist) in telemetry.stages() {
            reg.histogram(
                "ppt_stage_seconds",
                "Pipeline stage latency (split/transduce/fold/finalize).",
                vec![("stage", stage.to_string())],
                hist.snapshot(),
                1e-9,
            );
        }
        reg.histogram(
            "ppt_chunk_bytes",
            "Bytes per chunk submitted to the worker pool.",
            vec![],
            telemetry.chunk_bytes.snapshot(),
            1.0,
        );
        reg.histogram(
            "ppt_ring_occupancy_bytes",
            "Retention-ring occupancy sampled at retain and release.",
            vec![],
            telemetry.ring_occupancy_bytes.snapshot(),
            1.0,
        );
        reg.histogram(
            "ppt_automaton_states",
            "DFA states of every (merged) automaton the subscription layer compiled.",
            vec![],
            telemetry.automaton_states.snapshot(),
            1.0,
        );
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
pub(crate) fn session_options(request: &HandshakeRequest, stream_id: u64) -> SessionOptions {
    let mut opts = SessionOptions::new().stream_id(stream_id);
    if let Some(requested) = request.retain_bytes {
        let budget = requested.min(MAX_RETAIN_BYTES);
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
    /// The registered query texts, in id order.
    pub queries: Vec<String>,
    /// The negotiated frame format.
    pub format: WireFormat,
    /// Frames accepted for delivery (framed into the connection's outbox).
    pub frames: u64,
    /// Bytes those frames covered.
    pub bytes_out: u64,
    /// The final session report — per-query match counts and
    /// [`crate::RuntimeStats`]. `None` only when the connection's pipeline
    /// never produced one. A client whose stream dies mid-way still gets its
    /// report: the server drains the pipeline and keeps it, with
    /// [`ConnectionReport::read_error`] set alongside.
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
    /// Query matches emitted by the recorded sessions.
    pub matches: u64,
    /// The largest retention-ring occupancy any one recorded session
    /// reached.
    pub peak_retained_bytes: usize,
    /// Peak number of chunks submitted to the worker pool and not yet
    /// started.
    pub peak_queue_depth: usize,
    /// Chunks the workers ran in order, from their exact entry.
    pub chunks_in_order: u64,
    /// Chunks the workers ran speculatively, from all states.
    pub chunks_speculative: u64,
    /// Event-loop accounting.
    pub reactor: ReactorStats,
    /// Per-connection reports, oldest first (bounded; the counters above
    /// keep counting beyond the cap).
    pub connections: Vec<ConnectionReport>,
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
    reactor: ReactorHandles,
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
        self.reactor.shutdown_join();
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// The `ERR` text an attach/open failure maps to (query parse errors keep
/// the exact `wire_message` shape the non-shared handshake always used).
pub(crate) fn attach_reject_message(err: &AttachError) -> String {
    match err {
        AttachError::Query(e) => e.wire_message(),
        other => other.to_string(),
    }
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

/// Ceiling on the metrics page [`scrape`] accepts. The length comes from
/// the peer's `OK STATS <len>` line; a larger claim is refused instead of
/// trusted.
const MAX_STATS_PAGE_BYTES: usize = 64 << 20;

/// Reads the server's one-line reply up to the first `\n`, byte by byte —
/// a buffered reader here would swallow the head of the frame stream.
fn read_reply_line(stream: &mut TcpStream) -> Result<String, ClientError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Err(ClientError::BadReply(String::from_utf8_lossy(&line).into())),
            Ok(_) if byte[0] == b'\n' => return Ok(String::from_utf8_lossy(&line).into()),
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
}

/// Client-side helper: writes `request`'s handshake onto `stream` and reads
/// the server's one-line verdict. On acceptance the session's stream id and
/// the per-query ids come back; every byte after the reply line is left
/// unread in the socket for the caller's frame decoder.
pub fn register(
    stream: &mut TcpStream,
    request: &HandshakeRequest,
) -> Result<Registration, ClientError> {
    stream.write_all(&request.encode())?;
    stream.flush()?;
    let text = read_reply_line(stream)?;
    match HandshakeReply::decode(&text) {
        Ok(HandshakeReply::Accepted { stream, queries }) => {
            Ok(Registration { stream_id: stream, query_ids: queries, attached: false })
        }
        Ok(HandshakeReply::Attached { stream, queries }) => {
            Ok(Registration { stream_id: stream, query_ids: queries, attached: true })
        }
        Ok(HandshakeReply::Rejected(reason)) => Err(ClientError::Rejected(reason)),
        Err(_) => Err(ClientError::BadReply(text)),
    }
}

/// Client-side scrape helper: performs a `STATS` handshake against `addr`
/// and returns the server's live metrics page (the same Prometheus-style
/// text the admin listener serves at `/metrics`). A claimed page length
/// above 64 MiB is refused with [`ClientError::BadReply`], and a page cut
/// short by the peer is an [`ClientError::Io`] error.
pub fn scrape<A: ToSocketAddrs>(addr: A) -> Result<String, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&HandshakeRequest::stats().encode())?;
    stream.flush()?;
    let text = read_reply_line(&mut stream)?;
    let Some(rest) = text.strip_prefix("OK STATS ") else {
        return match text.strip_prefix("ERR ") {
            Some(reason) => Err(ClientError::Rejected(reason.to_string())),
            None => Err(ClientError::BadReply(text)),
        };
    };
    let len = match rest.trim().parse::<usize>() {
        Ok(len) if len <= MAX_STATS_PAGE_BYTES => len,
        _ => return Err(ClientError::BadReply(text)),
    };
    // Grown as bytes arrive, never sized up front from the peer's claim.
    let mut page = Vec::new();
    stream.take(len as u64).read_to_end(&mut page)?;
    if page.len() < len {
        return Err(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("metrics page truncated at {} of {len} bytes", page.len()),
        )));
    }
    Ok(String::from_utf8_lossy(&page).into_owned())
}
