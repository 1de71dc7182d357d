//! # ppt-runtime — online streaming execution of parallel pushdown transducers
//!
//! The batch engine in `ppt-core` answers "run these queries over these
//! bytes". This crate answers the production question the paper's §1 poses:
//! keep answering them, forever, over **unbounded** streams, for **many
//! concurrent clients**, with **bounded memory** and matches delivered while
//! the stream is still flowing.
//!
//! ## Architecture
//!
//! A [`Runtime`] owns one shared pool of transducer workers. Each query
//! session (a compiled [`Engine`] bound to one input stream) runs the
//! paper's split → parallel-transduce → join pipeline as three *pipelined
//! stages* connected by bounded hand-offs:
//!
//! * the **splitter** lexes window boundaries off any [`std::io::Read`]
//!   source with [`ppt_xmlstream::WindowSplitter`] (partial tags are carried
//!   across windows, never cut) and chops windows into arbitrary-byte chunks;
//! * the **worker pool** runs each session's next chunk in order from its
//!   exact entry state, and — on a worker that would otherwise idle, where
//!   the session's measured cost says it pays — chunks further ahead from
//!   all states, out of order; one set of workers serves every session;
//! * the **joiner** eagerly left-folds mappings the moment the next-in-order
//!   chunk completes ([`ppt_core::join::PrefixFolder`]), resolves element
//!   spans incrementally, filters predicates scope-by-scope, and emits every
//!   match through a [`MatchSink`] (or the [`MatchStream`] iterator).
//!
//! Backpressure is credit-based: a session may only have `inflight_chunks`
//! chunks admitted at once; the joiner returns a credit after folding (and
//! after the sink accepted the fold's matches), so a slow consumer stalls its
//! own splitter — memory stays bounded by `inflight_chunks × chunk size` per
//! session no matter how long the stream runs.
//!
//! ## Quick start
//!
//! ```
//! use ppt_core::Engine;
//! use ppt_runtime::{CollectSink, Runtime};
//! use std::sync::Arc;
//!
//! let engine = Arc::new(
//!     Engine::builder()
//!         .add_query("/a/b/c").unwrap()
//!         .chunk_size(8)
//!         .window_size(4096)
//!         .build()
//!         .unwrap(),
//! );
//! let runtime = Runtime::builder().workers(2).build();
//! let mut sink = CollectSink::new();
//! let report = runtime
//!     .process_reader(Arc::clone(&engine), &b"<a><b><c></c></b></a>"[..], &mut sink)
//!     .unwrap();
//! assert_eq!(report.match_counts, vec![1]);
//! assert_eq!(sink.matches.len(), 1);
//! ```
//!
//! Or pull matches as an iterator (driver threads run the pipeline while you
//! iterate):
//!
//! ```
//! # use ppt_core::Engine;
//! # use ppt_runtime::Runtime;
//! # use std::sync::Arc;
//! let engine = Arc::new(Engine::builder().add_query("//c").unwrap().build().unwrap());
//! let runtime = Runtime::builder().workers(2).build();
//! let stream =
//!     runtime.stream_reader(engine, std::io::Cursor::new(b"<a><c></c><c></c></a>".to_vec()));
//! assert_eq!(stream.count(), 2);
//! ```

// PR-8 hardening: the only sanctioned unsafe is the reactor's poll(2)/
// eventfd FFI, and every unsafe operation there must sit in an explicit
// `unsafe {}` block with its own `// SAFETY:` rationale (lint rule L1).
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(missing_debug_implementations)]
// PR-9 docs pass: every public item carries rustdoc; CI builds docs with
// `-D warnings` so broken intra-doc links fail the build too.
#![deny(missing_docs)]

mod filters;
mod pool;
// TCP serving (the reactor and the server around it) needs `poll(2)`,
// `writev(2)` and nonblocking sockets; the engine and the in-process runtime
// APIs do not.
#[cfg(unix)]
pub mod reactor;
mod resolver;
mod retain;
#[cfg(unix)]
pub mod serve;
mod session;
mod sink;
mod stats;
pub mod subscribe;
pub mod telemetry;
pub mod wire;

pub use resolver::{SpanEvent, SpanResolver};
#[cfg(unix)]
pub use serve::{ConnectionReport, Registration, ServerStats, TcpServer, TcpServerBuilder};
pub use session::{SessionHandle, SessionReport};
pub use sink::{
    BorrowedMatch, CollectPayloadSink, CollectSink, MatchSink, MaterializedMatch, OnlineMatch,
    PayloadRef, PayloadSink,
};
pub use stats::{ReactorStats, RuntimeStats};
pub use subscribe::{
    AttachError, CollectSubscriber, SharedStreamHandle, StreamControl, SubscriberDelivery,
    SubscriberId, SubscriberReport, SubscriberSink,
};
pub use telemetry::{
    EventJournal, EventKind, Histogram, HistogramSnapshot, MetricKind, Registry, RuntimeTelemetry,
};
pub use wire::{
    Frame, FrameDecoder, FrameRef, FrameWrite, HandshakeDecoder, HandshakeError, HandshakeReply,
    HandshakeRequest, WireError, WireFormat, WireSink, JSON_FRAME_TAIL,
};

use pool::{SessionCore, WorkerPool};
use ppt_core::Engine;
use ppt_xmlstream::pump_reader;
use session::{joiner_guarded, Feeder};
use sink::{ChannelSink, Materializer};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;

/// Per-session options: identity on the wire and payload retention.
///
/// ```
/// use ppt_runtime::SessionOptions;
/// let opts = SessionOptions::new().stream_id(7).retain_bytes(8 << 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    /// Caller-assigned stream id stamped on every wire frame (default 0).
    pub stream_id: u64,
    /// Byte budget of the window-retention ring; `None` (the default)
    /// disables retention — matches are delivered as offsets only.
    ///
    /// With retention on, a match's payload is sliced from the retained
    /// windows at delivery time. Spans that outlive the budget (one element
    /// larger than the whole ring) are delivered without payload and counted
    /// in [`RuntimeStats::payload_misses`]. Retention requires span
    /// resolution (the default) — without an `end` offset there is nothing
    /// to slice.
    ///
    /// Size the budget above the session's in-flight span —
    /// `inflight_chunks × chunk_size` plus one window — since windows are
    /// retained from the moment the splitter emits them, before their
    /// chunks fold; a budget below that evicts windows before their own
    /// matches can be materialized.
    pub retention_budget: Option<usize>,
    /// Maintain the stream's open-tag path in the feeder (one extra
    /// tags-only lex per window). Required for mid-stream engine swaps — the
    /// shared-stream subscription layer sets it so subscribers can attach
    /// new queries while the stream is live. Default off.
    pub track_open_path: bool,
    /// Fault injection for failure-isolation tests: the worker that starts
    /// this chunk of the session panics.
    #[doc(hidden)]
    pub panic_on_chunk: Option<u64>,
}

impl SessionOptions {
    /// The default options: stream id 0, no retention.
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Sets the stream id carried on wire frames.
    pub fn stream_id(mut self, id: u64) -> SessionOptions {
        self.stream_id = id;
        self
    }

    /// Enables payload retention with the given byte budget.
    pub fn retain_bytes(mut self, budget: usize) -> SessionOptions {
        self.retention_budget = Some(budget.max(1));
        self
    }

    /// Enables open-tag path tracking (the prerequisite for mid-stream
    /// engine swaps; see [`SessionOptions::track_open_path`]).
    pub fn track_open_path(mut self, enable: bool) -> SessionOptions {
        self.track_open_path = enable;
        self
    }
}

/// Builder for a [`Runtime`].
#[derive(Debug, Clone, Default)]
pub struct RuntimeBuilder {
    workers: Option<usize>,
    inflight_chunks: Option<usize>,
    match_buffer: Option<usize>,
}

impl RuntimeBuilder {
    /// Number of transducer worker threads (default: the number of logical
    /// cores).
    pub fn workers(mut self, n: usize) -> RuntimeBuilder {
        self.workers = Some(n.max(1));
        self
    }

    /// Per-session cap on chunks admitted into the pipeline at once — the
    /// backpressure window (default: `4 × workers`, minimum 4).
    pub fn inflight_chunks(mut self, n: usize) -> RuntimeBuilder {
        self.inflight_chunks = Some(n.max(1));
        self
    }

    /// Capacity of the match channel behind [`Runtime::stream_reader`]
    /// (default 1024).
    pub fn match_buffer(mut self, n: usize) -> RuntimeBuilder {
        self.match_buffer = Some(n.max(1));
        self
    }

    /// Spawns the worker pool.
    pub fn build(self) -> Runtime {
        let workers = self
            .workers
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
        let inflight = self.inflight_chunks.unwrap_or((workers * 4).max(4));
        Runtime {
            pool: Arc::new(WorkerPool::new(workers)),
            inflight_chunks: inflight,
            match_buffer: self.match_buffer.unwrap_or(1024),
            telemetry: Arc::new(telemetry::RuntimeTelemetry::new()),
        }
    }
}

/// The outcome of [`Runtime::serve_reader`]: the session report, the writer
/// handed back, and the first write error if the connection died mid-stream.
#[derive(Debug)]
pub struct WireServed<W> {
    /// The session's final report (covers the whole stream even when the
    /// writer failed part-way — later matches count as dropped).
    pub report: SessionReport,
    /// The writer, returned for reuse or graceful shutdown.
    pub writer: W,
    /// Frames successfully written.
    pub frames: u64,
    /// Bytes successfully written.
    pub bytes_out: u64,
    /// The first write error, if the writer failed (no frames were written
    /// after it).
    pub write_error: Option<std::io::Error>,
}

/// The session manager: one shared worker pool multiplexing any number of
/// concurrent query sessions.
///
/// Keep the `Runtime` alive while sessions are running; dropping it stops the
/// workers once the queued jobs drain.
pub struct Runtime {
    pool: Arc<WorkerPool>,
    inflight_chunks: usize,
    match_buffer: usize,
    telemetry: Arc<telemetry::RuntimeTelemetry>,
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("inflight_chunks", &self.inflight_chunks)
            .field("match_buffer", &self.match_buffer)
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// A runtime with `workers` threads and default queueing.
    pub fn new(workers: usize) -> Runtime {
        Runtime::builder().workers(workers).build()
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.pool.worker_count()
    }

    /// The shared worker pool (the reactor submits chunk jobs directly).
    pub(crate) fn worker_pool(&self) -> &Arc<pool::WorkerPool> {
        &self.pool
    }

    /// This runtime's pipeline histograms. Every session records into them,
    /// and a server's scrape surfaces render them.
    pub fn telemetry(&self) -> &Arc<telemetry::RuntimeTelemetry> {
        &self.telemetry
    }

    /// Builds a session core with this runtime's in-flight credit window —
    /// the reactor's entry point, which drives the feeder and joiner itself
    /// instead of going through the blocking session APIs.
    pub(crate) fn new_session_core(
        &self,
        engine: Arc<Engine>,
        opts: &SessionOptions,
    ) -> Arc<pool::SessionCore> {
        Arc::new(pool::SessionCore::new(
            engine,
            self.inflight_chunks,
            opts,
            Arc::clone(&self.telemetry),
        ))
    }

    /// Peak number of chunks submitted and not yet started, across all
    /// sessions.
    pub fn peak_queue_depth(&self) -> usize {
        self.pool.peak_queue_depth()
    }

    /// Chunks this runtime's workers have run `(in order, speculatively)`.
    pub fn chunk_modes(&self) -> (u64, u64) {
        self.pool.chunk_modes()
    }

    /// Opens a session with an owned sink: push bytes with
    /// [`SessionHandle::feed`], close with [`SessionHandle::finish`].
    ///
    /// Many sessions — with different engines — can be open at once; they
    /// share this runtime's workers.
    pub fn open_session(&self, engine: Arc<Engine>, sink: Box<dyn MatchSink>) -> SessionHandle {
        self.open_session_with(engine, &SessionOptions::new(), sink)
    }

    /// [`Runtime::open_session`] with explicit [`SessionOptions`] (stream id,
    /// retention budget).
    pub fn open_session_with(
        &self,
        engine: Arc<Engine>,
        opts: &SessionOptions,
        sink: Box<dyn MatchSink>,
    ) -> SessionHandle {
        let core = Arc::new(SessionCore::new(
            engine,
            self.inflight_chunks,
            opts,
            Arc::clone(&self.telemetry),
        ));
        self.spawn_session(core, sink)
    }

    /// Push-style counterpart of [`Runtime::process_materialized`]: opens a
    /// session whose matches reach `sink` with their element bytes attached.
    /// Feed with [`SessionHandle::feed`], close with [`SessionHandle::finish`]
    /// — note that `finish` hands back the materializing adapter, not `sink`
    /// itself; a sink whose state the caller needs afterwards should share it
    /// (e.g. via `Arc<Mutex<..>>`) or use the reader-driven entry points,
    /// which borrow the sink instead.
    pub fn open_materialized_session(
        &self,
        engine: Arc<Engine>,
        opts: &SessionOptions,
        sink: Box<dyn PayloadSink>,
    ) -> SessionHandle {
        let core = Arc::new(SessionCore::new(
            engine,
            self.inflight_chunks,
            opts,
            Arc::clone(&self.telemetry),
        ));
        let materializer = Materializer { core: Arc::clone(&core), inner: sink };
        self.spawn_session(core, Box::new(materializer))
    }

    /// Spawns the joiner thread for an owned-sink session.
    fn spawn_session(&self, core: Arc<SessionCore>, sink: Box<dyn MatchSink>) -> SessionHandle {
        let joiner_core = Arc::clone(&core);
        let joiner = std::thread::Builder::new()
            .name("ppt-joiner".to_string())
            .spawn(move || {
                let mut sink = sink;
                let result = joiner_guarded(&joiner_core, &mut *sink);
                (result, sink)
            })
            // UNWRAP-OK: thread-spawn failure is process-level resource
            // exhaustion; there is no session-scoped recovery to offer.
            .expect("failed to spawn joiner");
        SessionHandle {
            feeder: Feeder::new(core),
            pool: Arc::clone(&self.pool),
            joiner: Some(joiner),
        }
    }

    /// Processes an entire reader through one session, delivering matches to
    /// `sink` as the stream flows. The calling thread drives the splitter;
    /// the joiner runs on a scoped thread; the call returns once the stream
    /// is exhausted and every match was emitted.
    ///
    /// On a read error the pipeline is drained cleanly and the error is
    /// returned; matches emitted before the error will have reached the sink.
    pub fn process_reader<R: Read>(
        &self,
        engine: Arc<Engine>,
        reader: R,
        sink: &mut dyn MatchSink,
    ) -> std::io::Result<SessionReport> {
        let core = Arc::new(SessionCore::new(
            engine,
            self.inflight_chunks,
            &SessionOptions::new(),
            Arc::clone(&self.telemetry),
        ));
        self.run_session(core, reader, sink)
    }

    /// [`Runtime::process_reader`] with *materialized* delivery: the session
    /// retains recent stream windows (per `opts`) and every match reaches
    /// `sink` together with its element bytes, sliced from the retained
    /// windows at delivery time.
    ///
    /// Payloads are byte-identical to what the batch engine would report:
    /// `stream[m.start .. m.end]`. A span that was evicted from the ring
    /// before delivery arrives with `payload == None` and is counted in
    /// [`RuntimeStats::payload_misses`].
    pub fn process_materialized<R: Read>(
        &self,
        engine: Arc<Engine>,
        opts: &SessionOptions,
        reader: R,
        sink: &mut dyn PayloadSink,
    ) -> std::io::Result<SessionReport> {
        let core = Arc::new(SessionCore::new(
            engine,
            self.inflight_chunks,
            opts,
            Arc::clone(&self.telemetry),
        ));
        let mut materializer = Materializer { core: Arc::clone(&core), inner: sink };
        self.run_session(core, reader, &mut materializer)
    }

    /// Serves a stream over a wire connection: materializes every match and
    /// writes it to `writer` as JSON-lines or length-prefixed binary frames
    /// (see [`wire`]).
    ///
    /// Only a failing *reader* aborts with `Err` (as in
    /// [`Runtime::process_reader`]). A failing *writer* — the common serving
    /// failure, a client hanging up mid-stream — latches inside the
    /// [`WireSink`]: subsequent matches are counted as dropped, the pipeline
    /// drains cleanly, and the error comes back in
    /// [`WireServed::write_error`] *together with* the session report and
    /// the writer, so per-connection accounting survives the disconnect.
    ///
    /// A reader `Err` does drop the writer (it is owned by the sink during
    /// the call); a server that must keep the connection through ingest
    /// failures should own the [`WireSink`] itself and call
    /// [`Runtime::process_materialized`] directly.
    ///
    /// Frames are written with one `write_all` each and only flushed at end
    /// of stream: hand in an unbuffered writer (a socket directly), or own
    /// the flush cadence via `process_materialized` — behind a `BufWriter`
    /// an unbounded low-match-rate stream would go silent for arbitrarily
    /// long.
    pub fn serve_reader<R: Read, W: Write + Send>(
        &self,
        engine: Arc<Engine>,
        opts: &SessionOptions,
        reader: R,
        writer: W,
        format: WireFormat,
    ) -> std::io::Result<WireServed<W>> {
        let mut sink = WireSink::new(writer, format);
        let report = self.process_materialized(engine, opts, reader, &mut sink)?;
        let (frames, bytes_out) = (sink.frames, sink.bytes_out);
        let (writer, write_error) = sink.into_parts();
        Ok(WireServed { report, writer, frames, bytes_out, write_error })
    }

    /// The shared body of the reader-driven entry points: splitter on the
    /// calling thread, joiner on a scoped thread.
    fn run_session<R: Read>(
        &self,
        core: Arc<SessionCore>,
        mut reader: R,
        sink: &mut dyn MatchSink,
    ) -> std::io::Result<SessionReport> {
        let mut feeder = Feeder::new(Arc::clone(&core));
        let pool = &self.pool;
        std::thread::scope(|scope| {
            let core_ref = &core;
            let joiner = scope.spawn(move || joiner_guarded(core_ref, sink));
            let io_result = pump_reader(&mut reader, |bytes| {
                feeder.feed(pool, bytes);
                // Stop reading if the session died (a stage panicked): on an
                // unbounded source there is no EOF to save us.
                !core_ref.is_dead()
            });
            // Always announce the end so the joiner terminates, error or not.
            feeder.finish(pool);
            let report = match joiner.join() {
                Ok(Ok(report)) => report,
                // Re-raise a sink/joiner panic on the caller's thread, now
                // that the pipeline is drained. `joiner_guarded` catches
                // panics itself, so a failed join (a panic that escaped the
                // guard) re-raises through the same arm.
                Ok(Err(panic)) | Err(panic) => std::panic::resume_unwind(panic),
            };
            io_result.map(|()| report)
        })
    }

    /// Processes a reader through one session and returns the matches as a
    /// blocking iterator. Two driver threads (splitter and joiner) run the
    /// pipeline while you consume; a consumer that stops pulling
    /// backpressures the stream through the bounded match channel.
    ///
    /// Call [`MatchStream::finish`] after iteration for the final report.
    /// Dropping (or finishing) the stream early *cancels* the session: the
    /// driver stops reading the source at the next read boundary instead of
    /// pumping an unbounded stream to a non-existent EOF.
    pub fn stream_reader<R: Read + Send + 'static>(
        &self,
        engine: Arc<Engine>,
        reader: R,
    ) -> MatchStream {
        let (tx, rx) = sync_channel(self.match_buffer);
        let cancel = Arc::new(AtomicBool::new(false));
        let cancel_driver = Arc::clone(&cancel);
        let mut session = self.open_session(engine, Box::new(ChannelSink { tx }));
        let driver = std::thread::Builder::new()
            .name("ppt-feeder".to_string())
            .spawn(move || -> std::io::Result<SessionReport> {
                let mut reader = reader;
                let io_result = pump_reader(&mut reader, |bytes| {
                    session.feed(bytes);
                    // Acquire pairs with the Release store in finish()/Drop:
                    // observing the cancel flag must also make any state the
                    // canceller wrote before it visible to this driver.
                    !cancel_driver.load(Ordering::Acquire) && !session.is_dead()
                });
                // A sink panic cannot happen here (ChannelSink never panics),
                // but a fold/filter panic would: let finish() resume it on
                // this driver thread, where join() below surfaces it.
                let (report, _sink) = session.finish();
                io_result.map(|()| report)
            })
            // UNWRAP-OK: thread-spawn failure is process-level resource
            // exhaustion; there is no session-scoped recovery to offer.
            .expect("failed to spawn feeder");
        MatchStream { rx: Some(rx), cancel, driver: Some(driver) }
    }
}

/// Blocking iterator over a session's matches (see
/// [`Runtime::stream_reader`]).
///
/// Exhausting the iterator means the stream ended; dropping it (or calling
/// [`MatchStream::finish`]) before that cancels the session — essential for
/// `stream.take(n)`-style consumers of unbounded sources, which would
/// otherwise wait on an EOF that never comes.
pub struct MatchStream {
    rx: Option<Receiver<OnlineMatch>>,
    cancel: Arc<AtomicBool>,
    driver: Option<std::thread::JoinHandle<std::io::Result<SessionReport>>>,
}

impl std::fmt::Debug for MatchStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchStream")
            .field("cancelled", &self.cancel.load(Ordering::Acquire))
            .field("finished", &self.driver.is_none())
            .finish_non_exhaustive()
    }
}

impl Iterator for MatchStream {
    type Item = OnlineMatch;

    fn next(&mut self) -> Option<OnlineMatch> {
        self.rx.as_ref()?.recv().ok()
    }
}

impl MatchStream {
    /// Stops reading the source (if it hasn't ended already), waits for the
    /// in-flight pipeline to drain, and returns the final report. Matches
    /// not yet consumed are discarded; after a cancellation the report
    /// covers the prefix that was processed.
    pub fn finish(mut self) -> std::io::Result<SessionReport> {
        // UNWRAP-OK: `finish` consumes `self`, and `Drop` (the only other
        // taker) has not run yet — the driver is always present here.
        let driver = self.driver.take().expect("finish called once");
        // Release pairs with the driver's Acquire load of the cancel flag.
        self.cancel.store(true, Ordering::Release);
        // Dropping the receiver lets the sink's sends fail fast instead of
        // blocking on a full channel nobody reads.
        drop(self.rx.take());
        match driver.join() {
            Ok(result) => result,
            // A fold/filter panic was resumed on the driver thread; re-raise
            // the original payload here rather than a generic message.
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Drop for MatchStream {
    fn drop(&mut self) {
        // Release pairs with the driver's Acquire load of the cancel flag.
        self.cancel.store(true, Ordering::Release);
        drop(self.rx.take());
        if let Some(driver) = self.driver.take() {
            let _ = driver.join();
        }
    }
}
