//! The subscription layer: many subscribers, one stream, **one** transducer
//! pass.
//!
//! The paper's pushdown-transducer representation was built so that many
//! queries compile into a single automaton; this module makes the runtime
//! exploit that across *consumers*. All queries registered against one stream
//! — by any number of subscribers, attaching at any point of the stream's
//! life — merge into one [`Engine`] (NFA union + bounded subset
//! construction), and one split → transduce → join pipeline serves everyone.
//! N tenants watching the same firehose cost one pipeline, not N.
//!
//! ## How the pieces fit
//!
//! * **Merged automaton.** The stream keeps the deduplicated union of every
//!   subscriber's query texts. Compilation is *append-only*: query, symbol,
//!   sub-query and NFA state ids of the existing set never change when new
//!   queries arrive, so an attach compiles only the new chains
//!   ([`Nfa::from_plan_range`]), unions them into the cached NFA
//!   ([`Nfa::union`]) and re-determinises under the state budget
//!   ([`Transducer::from_nfa_bounded`]). A merge that would exceed the budget
//!   is *refused* with [`AttachError::Budget`] — existing subscribers are
//!   never degraded by someone else's pathological query set.
//! * **Attribution.** Every merged (global) query index maps to the
//!   subscribers that asked for it, each with its own *local* query id — the
//!   id the subscriber's frames carry, so its output is indistinguishable
//!   from a private engine's.
//! * **Mid-stream attach.** Covered queries attach instantly (attribution
//!   only). Novel queries trigger an engine swap at the next chunk boundary
//!   (the pool's `EngineSwap`): the joiner replays the stream's open-tag
//!   path into the merged transducer ([`ppt_core::join::PrefixFolder::resume`])
//!   and continues — no re-reading, no second pass. A mid-stream subscriber
//!   sees matches whose element opens at or after its swap boundary.
//! * **Isolation.** Delivery to each subscriber is non-blocking by contract
//!   ([`SubscriberSink::deliver`] returns [`SubscriberDelivery::Dropped`]
//!   instead of stalling) and panic-guarded: a sink that panics kills *that
//!   subscriber*, never the stream or its co-subscribers.

use crate::pool::lock_recover;
use crate::session::SessionReport;
use crate::sink::{BorrowedMatch, MaterializedMatch, OnlineMatch, PayloadRef, PayloadSink};
use crate::telemetry::RuntimeTelemetry;
use crate::{Runtime, SessionHandle, SessionOptions};
use ppt_automaton::{Nfa, StateBudgetExceeded, Transducer};
use ppt_core::{Engine, EngineConfig};
use ppt_xmlstream::SharedWindow;
use ppt_xpath::{compile_queries, XPathError};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Identifies one subscriber of a shared stream (unique per stream).
pub type SubscriberId = u64;

/// What a subscriber's sink did with one delivered match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscriberDelivery {
    /// The match was accepted.
    Delivered,
    /// The match was discarded (full queue, slow consumer). The stream keeps
    /// flowing; the drop is counted in the subscriber's report.
    Dropped,
    /// The subscriber is gone (hung-up connection): detach it now.
    Detach,
}

/// Final accounting for one subscriber of a shared stream.
#[derive(Debug, Clone, Default)]
pub struct SubscriberReport {
    /// Matches addressed to each of the subscriber's queries (local ids, in
    /// the order the subscriber registered them) that its sink accepted.
    pub match_counts: Vec<usize>,
    /// Total matches the sink accepted.
    pub delivered: u64,
    /// Matches the sink discarded ([`SubscriberDelivery::Dropped`]).
    pub dropped: u64,
    /// Why this subscriber (or the whole stream) ended abnormally: the
    /// subscriber's own sink panic, or the stream's poison message.
    pub error: Option<String>,
}

/// Why an attach was refused.
#[derive(Debug)]
pub enum AttachError {
    /// The stream already ended; open a new one.
    Ended,
    /// A query failed to parse/compile.
    Query(XPathError),
    /// Merging the queries would blow the automaton past the state budget.
    /// Existing subscribers are unaffected; the refused subscriber can run
    /// its queries on a private session (where the batch path may fall back
    /// to direct NFA execution, [`ppt_automaton::run_sequential_nfa`]).
    Budget(StateBudgetExceeded),
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::Ended => write!(f, "stream already ended"),
            AttachError::Query(e) => write!(f, "query rejected: {e}"),
            AttachError::Budget(e) => write!(f, "merge refused: {e}"),
        }
    }
}

impl std::error::Error for AttachError {}

/// Receives one subscriber's share of a stream's matches.
///
/// Called from the thread folding the stream (its feeding thread in
/// process, a worker when served) with the shared-stream state lock held:
/// implementations must be fast and **must not block** — a slow consumer
/// returns [`SubscriberDelivery::Dropped`] (typically after a bounded queue
/// filled) instead of stalling the pipeline that every other subscriber
/// shares. Panics are caught and kill only this subscriber.
pub trait SubscriberSink: Send {
    /// One match addressed to this subscriber. `m.m.query` is the
    /// subscriber's *local* query id; `m.payload` borrows retained stream
    /// windows (clone = refcount bump, zero-copy all the way to egress).
    fn deliver(&mut self, m: BorrowedMatch) -> SubscriberDelivery;

    /// The stream ended (or this subscriber was detached); final accounting.
    fn end(&mut self, report: SubscriberReport);
}

struct SubscriberEntry {
    sink: Box<dyn SubscriberSink>,
    /// Accepted matches per local query id.
    counts: Vec<usize>,
    delivered: u64,
    dropped: u64,
    /// Set when this subscriber's sink panicked: it stops receiving, its
    /// report carries the message, the stream is unaffected.
    dead: Option<String>,
}

struct StreamState {
    /// Deduplicated union of every subscriber's query texts, append-only;
    /// index = global query id.
    queries: Vec<String>,
    query_index: HashMap<String, usize>,
    /// Cached union NFA — the cheap-to-extend half of incremental
    /// recompilation.
    nfa: Nfa,
    engine: Arc<Engine>,
    /// `attribution[global]` = the `(subscriber, local id)` pairs the global
    /// query fans out to.
    attribution: Vec<Vec<(SubscriberId, usize)>>,
    subscribers: BTreeMap<SubscriberId, SubscriberEntry>,
    next_subscriber: SubscriberId,
    /// A merged engine awaiting its swap at the feeder's next chunk
    /// boundary (taken by [`SharedStreamHandle::feed`]).
    pending_engine: Option<Arc<Engine>>,
    ended: bool,
    peak_subscribers: usize,
}

/// Shared control half of a shared stream: attach and detach subscribers
/// from any thread while the stream's owner keeps feeding bytes.
pub struct StreamControl {
    stream_id: u64,
    engine_config: EngineConfig,
    max_states: usize,
    telemetry: Arc<RuntimeTelemetry>,
    state: Mutex<StreamState>,
}

impl fmt::Debug for StreamControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StreamControl")
            .field("stream_id", &self.stream_id)
            .field("subscribers", &self.subscriber_count())
            .finish_non_exhaustive()
    }
}

impl StreamControl {
    /// The stream id every frame of this stream carries.
    pub fn stream_id(&self) -> u64 {
        self.stream_id
    }

    /// Live subscriber count.
    pub fn subscriber_count(&self) -> usize {
        lock_recover(&self.state).0.subscribers.len()
    }

    /// Highest subscriber count the stream has reached.
    pub fn peak_subscriber_count(&self) -> usize {
        lock_recover(&self.state).0.peak_subscribers
    }

    /// Number of *distinct* queries in the merged automaton.
    pub fn merged_query_count(&self) -> usize {
        lock_recover(&self.state).0.queries.len()
    }

    /// DFA state count of the current merged automaton.
    pub fn automaton_states(&self) -> u32 {
        lock_recover(&self.state).0.engine.transducer().num_states()
    }

    /// `true` once the stream finished (attaches are refused from then on).
    pub fn is_ended(&self) -> bool {
        lock_recover(&self.state).0.ended
    }

    /// Registers a subscriber: merges `queries` into the stream's automaton
    /// and routes their matches — tagged with local ids `0..queries.len()`,
    /// in this order — to `sink`.
    ///
    /// Queries the merged automaton already evaluates attach instantly
    /// (attribution only). Novel queries take effect at the stream's next
    /// chunk boundary via an engine swap; until then they simply produce no
    /// matches (exactly what an engine attached at that boundary would do).
    pub fn attach(
        &self,
        queries: &[impl AsRef<str>],
        sink: Box<dyn SubscriberSink>,
    ) -> Result<SubscriberId, AttachError> {
        self.attach_with(queries, sink, |_| {})
    }

    /// [`StreamControl::attach`] with a hook that runs *under the stream's
    /// state lock*, after the subscriber is registered but before any match
    /// can be fanned out to it. The reactor uses this to queue the
    /// `OK ATTACH` reply ahead of the subscriber's first frame — without the
    /// lock, a match racing the attach could hit the connection's outbox
    /// before the handshake reply does.
    pub(crate) fn attach_with(
        &self,
        queries: &[impl AsRef<str>],
        sink: Box<dyn SubscriberSink>,
        registered: impl FnOnce(SubscriberId),
    ) -> Result<SubscriberId, AttachError> {
        let (mut guard, _) = lock_recover(&self.state);
        let state = &mut *guard;
        if state.ended {
            return Err(AttachError::Ended);
        }
        // Which of the requested queries are new to the merged set? (Dedup
        // within the batch too — a subscriber may register the same text
        // twice under two local ids.)
        let mut novel: Vec<String> = Vec::new();
        for q in queries {
            let q = q.as_ref();
            if !state.query_index.contains_key(q) && !novel.iter().any(|n| n == q) {
                novel.push(q.to_string());
            }
        }
        if !novel.is_empty() {
            let mut full = state.queries.clone();
            full.extend(novel.iter().cloned());
            // Full plan recompile is cheap (string parsing); the expensive
            // half — subset construction — is incremental below.
            let plan = compile_queries(&full).map_err(AttachError::Query)?;
            let old_subs = state.engine.plan().subqueries.len();
            let tail = Nfa::from_plan_range(&plan, old_subs..plan.subqueries.len());
            let nfa = state.nfa.union(&tail);
            let transducer =
                Transducer::from_nfa_bounded(&nfa, self.max_states).map_err(AttachError::Budget)?;
            self.telemetry.automaton_states.record(u64::from(transducer.num_states()));
            let engine =
                Arc::new(Engine::from_compiled(plan, transducer, self.engine_config.clone()));
            for (i, q) in novel.iter().enumerate() {
                state.query_index.insert(q.clone(), state.queries.len() + i);
            }
            state.queries = full;
            state.nfa = nfa;
            state.attribution.resize_with(state.queries.len(), Vec::new);
            state.engine = Arc::clone(&engine);
            state.pending_engine = Some(engine);
        }
        let id = state.next_subscriber;
        state.next_subscriber += 1;
        for (local, q) in queries.iter().enumerate() {
            let global = state.query_index[q.as_ref()];
            state.attribution[global].push((id, local));
        }
        state.subscribers.insert(
            id,
            SubscriberEntry {
                sink,
                counts: vec![0; queries.len()],
                delivered: 0,
                dropped: 0,
                dead: None,
            },
        );
        state.peak_subscribers = state.peak_subscribers.max(state.subscribers.len());
        registered(id);
        Ok(id)
    }

    /// Detaches a subscriber: its attribution entries are removed (matches
    /// stop routing to it immediately), its sink receives
    /// [`SubscriberSink::end`], and its report is returned. The merged
    /// automaton keeps the dead queries until the stream ends — shrinking it
    /// mid-stream would force a swap for everyone to save memory nobody is
    /// short of; unrouted matches are simply skipped.
    pub fn detach(&self, id: SubscriberId) -> Option<SubscriberReport> {
        let (mut guard, _) = lock_recover(&self.state);
        let (mut sink, report) = detach_locked(&mut guard, id, None)?;
        drop(guard);
        sink.end(report.clone());
        Some(report)
    }

    /// Takes the engine awaiting a swap, if an attach scheduled one.
    pub(crate) fn take_pending_engine(&self) -> Option<Arc<Engine>> {
        lock_recover(&self.state).0.pending_engine.take()
    }

    /// Marks the stream ended and flushes every remaining subscriber's
    /// report into its sink.
    pub(crate) fn finish_stream(&self, stream: &SessionReport) {
        let (mut guard, _) = lock_recover(&self.state);
        guard.ended = true;
        let ids: Vec<SubscriberId> = guard.subscribers.keys().copied().collect();
        let mut done: Vec<(Box<dyn SubscriberSink>, SubscriberReport)> = Vec::new();
        for id in ids {
            if let Some(pair) = detach_locked(&mut guard, id, stream.error.clone()) {
                done.push(pair);
            }
        }
        drop(guard);
        for (mut sink, report) in done {
            sink.end(report.clone());
        }
    }
}

/// Removes `id` from the attribution table and subscriber map, returning its
/// sink and final report. `stream_error` (the stream's poison message, on an
/// abnormal end) is attached unless the subscriber already died on its own.
fn detach_locked(
    state: &mut StreamState,
    id: SubscriberId,
    stream_error: Option<String>,
) -> Option<(Box<dyn SubscriberSink>, SubscriberReport)> {
    let entry = state.subscribers.remove(&id)?;
    for routes in &mut state.attribution {
        routes.retain(|&(sid, _)| sid != id);
    }
    let error = entry.dead.or(stream_error);
    let report = SubscriberReport {
        match_counts: entry.counts,
        delivered: entry.delivered,
        dropped: entry.dropped,
        error,
    };
    Some((entry.sink, report))
}

/// The shared stream's session sink: receives every merged match from the
/// joiner and fans it out to the subscribers attributed to its query.
pub(crate) struct FanoutSink {
    control: Arc<StreamControl>,
}

impl FanoutSink {
    pub(crate) fn new(control: Arc<StreamControl>) -> FanoutSink {
        FanoutSink { control }
    }

    fn fan_out(&mut self, b: BorrowedMatch) -> bool {
        let (mut guard, _) = lock_recover(&self.control.state);
        let state = &mut *guard;
        let routes = state.attribution.get(b.m.query).map_or(&[][..], Vec::as_slice);
        let mut payload = b.payload;
        let mut any_delivered = false;
        let mut to_detach: Vec<SubscriberId> = Vec::new();
        for (i, &(sid, local)) in routes.iter().enumerate() {
            let Some(entry) = state.subscribers.get_mut(&sid) else { continue };
            if entry.dead.is_some() {
                continue;
            }
            let msg = BorrowedMatch {
                stream: b.stream,
                m: OnlineMatch { query: local, ..b.m },
                // The last route takes the payload; the others bump the
                // retained windows' refcounts — the zero-copy path survives
                // the fan-out, and bytes are shared, never duplicated.
                payload: if i + 1 == routes.len() { payload.take() } else { payload.clone() },
            };
            // A panicking subscriber sink kills that subscriber, not the
            // stream: every co-subscriber keeps receiving.
            let outcome =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| entry.sink.deliver(msg)));
            match outcome {
                Ok(SubscriberDelivery::Delivered) => {
                    entry.counts[local] += 1;
                    entry.delivered += 1;
                    any_delivered = true;
                }
                Ok(SubscriberDelivery::Dropped) => entry.dropped += 1,
                Ok(SubscriberDelivery::Detach) => to_detach.push(sid),
                Err(panic) => {
                    entry.dead = Some(format!(
                        "subscriber sink panicked: {}",
                        crate::pool::panic_message(&*panic)
                    ));
                }
            }
        }
        let mut ended: Vec<(Box<dyn SubscriberSink>, SubscriberReport)> = Vec::new();
        for sid in to_detach {
            if let Some(pair) = detach_locked(state, sid, None) {
                ended.push(pair);
            }
        }
        drop(guard);
        for (mut sink, report) in ended {
            sink.end(report.clone());
        }
        any_delivered
    }
}

impl PayloadSink for FanoutSink {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        // Owned-payload entry (only taken if an upstream adapter
        // materialized early): wrap the bytes in a synthetic single-window
        // ref so subscribers see one payload type.
        let MaterializedMatch { stream, m, payload } = m;
        let payload = payload
            .filter(|_| m.end != usize::MAX)
            .map(|bytes| PayloadRef::new(vec![SharedWindow::new(m.start, bytes)], m.start..m.end));
        self.fan_out(BorrowedMatch { stream, m, payload })
    }

    fn on_match_borrowed(&mut self, m: BorrowedMatch) -> bool {
        self.fan_out(m)
    }
}

/// A live shared stream: the owner's handle for feeding bytes and closing,
/// plus the clonable [`StreamControl`] other threads attach through.
pub struct SharedStreamHandle {
    session: SessionHandle,
    control: Arc<StreamControl>,
}

impl fmt::Debug for SharedStreamHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedStreamHandle").field("control", &self.control).finish()
    }
}

impl SharedStreamHandle {
    /// The control half (attach/detach; share freely across threads).
    pub fn control(&self) -> Arc<StreamControl> {
        Arc::clone(&self.control)
    }

    /// Pushes stream bytes. Applies any engine swap a concurrent attach
    /// scheduled — the swap lands at the next chunk boundary, which is the
    /// attacher's effective position in the stream. Blocks on backpressure.
    pub fn feed(&mut self, bytes: &[u8]) {
        if let Some(engine) = self.control.take_pending_engine() {
            self.session.driver.feeder.swap_engine(engine);
        }
        self.session.feed(bytes);
    }

    /// `true` once the underlying session aborted.
    pub fn is_dead(&self) -> bool {
        self.session.is_dead()
    }

    /// Ends the stream: drains the pipeline, delivers every subscriber's
    /// [`SubscriberReport`] through its sink, and returns the stream-level
    /// report (global counts over the *merged* query list).
    pub fn finish(self) -> SessionReport {
        let SharedStreamHandle { mut session, control } = self;
        // An attach with no bytes after it still deserves a final bank that
        // knows its queries: land the trailing swap before the pipeline
        // drains.
        if let Some(engine) = control.take_pending_engine() {
            session.driver.feeder.swap_engine(engine);
        }
        let (report, _sink) = session.finish();
        control.finish_stream(&report);
        report
    }
}

impl Runtime {
    /// Opens a *shared* stream: one pipeline, any number of subscribers.
    ///
    /// `queries`/`sink` register the first subscriber (id 0 of the returned
    /// handle's control); further subscribers attach through
    /// [`SharedStreamHandle::control`] at any time, including mid-stream.
    /// `max_automaton_states` bounds the merged automaton's subset
    /// construction — an attach whose merge would exceed it is refused, and
    /// the initial compile fails the open the same way.
    ///
    /// Span resolution is forced on: shared streams serve frames whose spans
    /// (and payloads, when `opts` enables retention) must be byte-identical
    /// to a private engine's, and mid-stream attaches of predicated queries
    /// need element ends.
    pub fn open_shared_stream(
        &self,
        opts: &SessionOptions,
        engine_config: EngineConfig,
        max_automaton_states: usize,
        queries: &[impl AsRef<str>],
        sink: Box<dyn SubscriberSink>,
    ) -> Result<SharedStreamHandle, AttachError> {
        let (engine, control) = shared_stream_parts(
            opts.stream_id,
            engine_config,
            max_automaton_states,
            self.telemetry(),
            queries,
            sink,
        )?;
        let opts = opts.clone().track_open_path(true);
        let session = self.open_materialized_session(
            engine,
            &opts,
            Box::new(FanoutSink { control: Arc::clone(&control) }),
        );
        Ok(SharedStreamHandle { session, control })
    }
}

/// Compiles the first subscriber's queries into a merged engine and builds
/// the [`StreamControl`] around them — the session-independent half of
/// [`Runtime::open_shared_stream`], shared with the reactor (which runs the
/// pipeline on its own nonblocking feeder and fold jobs instead of a
/// [`SessionHandle`]). The caller owns wiring a
/// [`FanoutSink`] into whatever drives the joiner, with
/// `track_open_path` enabled on the session so mid-stream engine swaps can
/// resume.
pub(crate) fn shared_stream_parts(
    stream_id: u64,
    mut engine_config: EngineConfig,
    max_automaton_states: usize,
    telemetry: &Arc<RuntimeTelemetry>,
    queries: &[impl AsRef<str>],
    sink: Box<dyn SubscriberSink>,
) -> Result<(Arc<Engine>, Arc<StreamControl>), AttachError> {
    // Span resolution is forced on: shared streams serve frames whose spans
    // (and payloads, when retention is enabled) must be byte-identical to a
    // private engine's, and mid-stream attaches of predicated queries need
    // element ends.
    engine_config.resolve_spans = true;
    let mut merged: Vec<String> = Vec::new();
    for q in queries {
        let q = q.as_ref();
        if !merged.iter().any(|m| m == q) {
            merged.push(q.to_string());
        }
    }
    let plan = compile_queries(&merged).map_err(AttachError::Query)?;
    let nfa = Nfa::from_plan(&plan);
    let transducer =
        Transducer::from_nfa_bounded(&nfa, max_automaton_states).map_err(AttachError::Budget)?;
    telemetry.automaton_states.record(u64::from(transducer.num_states()));
    let engine = Arc::new(Engine::from_compiled(plan, transducer, engine_config.clone()));
    let query_index: HashMap<String, usize> =
        merged.iter().enumerate().map(|(i, q)| (q.clone(), i)).collect();
    let mut attribution: Vec<Vec<(SubscriberId, usize)>> = vec![Vec::new(); merged.len()];
    for (local, q) in queries.iter().enumerate() {
        attribution[query_index[q.as_ref()]].push((0, local));
    }
    let mut subscribers = BTreeMap::new();
    subscribers.insert(
        0,
        SubscriberEntry {
            sink,
            counts: vec![0; queries.len()],
            delivered: 0,
            dropped: 0,
            dead: None,
        },
    );
    let control = Arc::new(StreamControl {
        stream_id,
        engine_config,
        max_states: max_automaton_states,
        telemetry: Arc::clone(telemetry),
        state: Mutex::new(StreamState {
            queries: merged,
            query_index,
            nfa,
            engine: Arc::clone(&engine),
            attribution,
            subscribers,
            next_subscriber: 1,
            pending_engine: None,
            ended: false,
            peak_subscribers: 1,
        }),
    });
    Ok((engine, control))
}

/// Shared handle to a [`CollectSubscriber`]'s accepted matches.
pub type CollectedMatches = Arc<Mutex<Vec<MaterializedMatch>>>;

/// Shared handle to a [`CollectSubscriber`]'s final report.
pub type CollectedReport = Arc<Mutex<Option<SubscriberReport>>>;

/// A ready-made [`SubscriberSink`] that collects materialized matches and
/// the final report behind shared handles — convenient for tests, examples
/// and benchmarks.
#[derive(Debug, Default)]
pub struct CollectSubscriber {
    /// Every accepted match, materialized (payload copied out of the ring).
    pub matches: CollectedMatches,
    /// The final report, set by [`SubscriberSink::end`].
    pub report: CollectedReport,
}

impl CollectSubscriber {
    /// Creates an empty collector.
    pub fn new() -> CollectSubscriber {
        CollectSubscriber::default()
    }

    /// A second handle to the same buffers (the sink itself is boxed away by
    /// [`StreamControl::attach`]).
    pub fn handles(&self) -> (CollectedMatches, CollectedReport) {
        (Arc::clone(&self.matches), Arc::clone(&self.report))
    }
}

impl SubscriberSink for CollectSubscriber {
    fn deliver(&mut self, m: BorrowedMatch) -> SubscriberDelivery {
        lock_recover(&self.matches).0.push(m.materialize());
        SubscriberDelivery::Delivered
    }

    fn end(&mut self, report: SubscriberReport) {
        *lock_recover(&self.report).0 = Some(report);
    }
}
