//! The public façade: compile a query set once, run it over XML bytes or
//! readers.
//!
//! ```
//! use ppt_core::engine::Engine;
//!
//! let engine = Engine::builder()
//!     .add_query("/a/b/c")
//!     .unwrap()
//!     .add_query("//d")
//!     .unwrap()
//!     .build()
//!     .unwrap();
//! let result = engine.run(b"<a><b><d></d></b><b><c></c></b></a>");
//! assert_eq!(result.match_count(0), 1);
//! assert_eq!(result.match_count(1), 1);
//! ```

use crate::chunk::EngineKind;
use crate::filter::apply_filters;
pub use crate::filter::QueryMatch;
use crate::join::{run_all_states, Joiner, ResolvedMatch};
use crate::sched::{self, Run, Sched};
use crate::stats::RunStats;
use ppt_automaton::Transducer;
use ppt_xpath::{compile_queries, QueryPlan, XPathError};
use std::io::Read;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Runtime configuration of an [`Engine`].
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Target chunk size in bytes for the split phase (default 1 MiB; the
    /// paper's prototype defaults to 10 MB, Fig 16 shows anything ≥ 1 MB
    /// behaves the same).
    pub chunk_size: usize,
    /// Number of threads, the calling thread among them (`None` = the
    /// available parallelism, usually the number of logical cores).
    pub threads: Option<usize>,
    /// Per-chunk engine: the double tree (default) or the naive mapping.
    pub engine: EngineKind,
    /// Resolve element end offsets. Forced on when any query carries a
    /// predicate filter.
    pub resolve_spans: bool,
    /// Window size used by [`Engine::run_reader`] (default 16 MiB).
    pub window_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            chunk_size: 1 << 20,
            threads: None,
            engine: EngineKind::Tree,
            resolve_spans: true,
            window_size: 16 << 20,
        }
    }
}

/// Builder for [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    queries: Vec<String>,
    config: EngineConfig,
}

impl EngineBuilder {
    /// Creates an empty builder.
    pub fn new() -> EngineBuilder {
        EngineBuilder { queries: Vec::new(), config: EngineConfig::default() }
    }

    /// Adds one XPath query; the query is parsed eagerly so errors surface
    /// immediately.
    pub fn add_query(mut self, query: &str) -> Result<EngineBuilder, XPathError> {
        ppt_xpath::parse_query(query)?;
        self.queries.push(query.to_string());
        Ok(self)
    }

    /// Adds several queries at once.
    pub fn add_queries<S: AsRef<str>>(
        mut self,
        queries: &[S],
    ) -> Result<EngineBuilder, XPathError> {
        for q in queries {
            ppt_xpath::parse_query(q.as_ref())?;
            self.queries.push(q.as_ref().to_string());
        }
        Ok(self)
    }

    /// Sets the target chunk size in bytes.
    pub fn chunk_size(mut self, bytes: usize) -> EngineBuilder {
        self.config.chunk_size = bytes.max(1);
        self
    }

    /// Sets the number of threads, the calling thread among them.
    pub fn threads(mut self, threads: usize) -> EngineBuilder {
        self.config.threads = Some(threads.max(1));
        self
    }

    /// Enables or disables element-span resolution (forced on for predicated
    /// queries).
    pub fn resolve_spans(mut self, enable: bool) -> EngineBuilder {
        self.config.resolve_spans = enable;
        self
    }

    /// Sets the window size used for streaming readers.
    pub fn window_size(mut self, bytes: usize) -> EngineBuilder {
        self.config.window_size = bytes.max(4096);
        self
    }

    /// Compiles the query set into an [`Engine`].
    pub fn build(self) -> Result<Engine, XPathError> {
        Engine::with_config(&self.queries, self.config)
    }
}

/// A compiled PP-Transducer engine, cheap to share across runs.
#[derive(Debug, Clone)]
pub struct Engine {
    plan: QueryPlan,
    transducer: Transducer,
    config: EngineConfig,
}

impl Engine {
    /// Starts building an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// Compiles an engine from query strings with the default configuration.
    pub fn from_queries<S: AsRef<str>>(queries: &[S]) -> Result<Engine, XPathError> {
        Engine::with_config(queries, EngineConfig::default())
    }

    /// Compiles an engine from query strings with an explicit configuration.
    pub fn with_config<S: AsRef<str>>(
        queries: &[S],
        mut config: EngineConfig,
    ) -> Result<Engine, XPathError> {
        let plan = compile_queries(queries)?;
        // Predicate filtering needs element spans.
        if plan.queries.iter().any(|q| q.filter.is_some()) {
            config.resolve_spans = true;
        }
        let transducer = Transducer::from_plan(&plan);
        Ok(Engine { plan, transducer, config })
    }

    /// Wraps an already-compiled plan + transducer pair into an engine.
    ///
    /// This is the assembly point for *incrementally merged* automata (the
    /// subscription layer unions NFAs across attach events and re-determinises
    /// under a state budget, rather than recompiling from query strings). The
    /// caller is responsible for `transducer` actually being the compilation
    /// of `plan`; the usual invariant — predicated queries force span
    /// resolution — is applied here exactly as in [`Engine::with_config`].
    pub fn from_compiled(
        plan: QueryPlan,
        transducer: Transducer,
        mut config: EngineConfig,
    ) -> Engine {
        if plan.queries.iter().any(|q| q.filter.is_some()) {
            config.resolve_spans = true;
        }
        Engine { plan, transducer, config }
    }

    /// The compiled query plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The compiled pushdown transducer.
    pub fn transducer(&self) -> &Transducer {
        &self.transducer
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Runs the engine over an in-memory byte slice (split → transduce →
    /// fold → filter), scheduled by [`crate::sched`].
    pub fn run(&self, data: &[u8]) -> QueryResult {
        let mut batch = Batch::new(self);
        batch.feed(data);
        self.finish(batch.finish())
    }

    /// Runs the engine strictly in order on a single thread (one chunk, one
    /// execution path). This is the "PPT (1 thread)" configuration of Fig 11
    /// and the semantic reference for differential tests.
    pub fn run_sequential(&self, data: &[u8]) -> QueryResult {
        let (kind, spans) = (self.config.engine, self.config.resolve_spans);
        self.finish(run_all_states(&self.transducer, data, data.len().max(1), kind, spans))
    }

    /// Runs the engine over a reader, processing the stream window-by-window
    /// with bounded memory. The [`ppt_xmlstream::WindowSplitter`] cuts windows
    /// at tag boundaries and carries partial tags across windows, so chunks
    /// never straddle a window and no tag is ever lexed in two halves. The
    /// relay carries over from one window to the next.
    ///
    /// This call blocks until the reader is exhausted and returns every match
    /// at once. For *online* results — matches emitted while the stream is
    /// still flowing, many sessions on one worker pool — use `ppt-runtime`.
    pub fn run_reader<R: Read>(&self, mut reader: R) -> std::io::Result<QueryResult> {
        let mut batch = Batch::new(self);
        let mut splitter = ppt_xmlstream::WindowSplitter::new(self.config.window_size);
        ppt_xmlstream::pump_reader(&mut reader, |bytes| {
            splitter.push(bytes);
            while let Some(window) = splitter.pop_window() {
                batch.feed(&window);
            }
            true
        })?;
        if let Some(window) = splitter.finish() {
            batch.feed(&window);
        }
        Ok(self.finish(batch.finish()))
    }

    fn finish(&self, (matches, mut stats): (Vec<ResolvedMatch>, RunStats)) -> QueryResult {
        let filter_start = Instant::now();
        let outcome = apply_filters(&self.plan, &matches);
        stats.timings.filter = filter_start.elapsed();
        stats.timings.total += stats.timings.filter;
        QueryResult {
            query_matches: outcome.matches,
            submatch_counts: outcome.submatch_counts,
            subquery_match_total: matches.len(),
            stats,
        }
    }
}

/// A chunk of the window a [`Batch`] is running.
struct Piece {
    index: usize,
    range: Range<usize>,
    tail: bool,
}

impl sched::Job for Piece {
    fn seq(&self) -> u64 {
        self.index as u64
    }

    fn is_tail(&self) -> bool {
        self.tail
    }
}

/// What a batch run's threads share, under one lock.
struct State {
    sched: Sched<Piece>,
    /// Folds under the lock: one thread at a time, and short beside a chunk.
    joiner: Joiner,
    fold_next: u64,
    /// Chunks run from all states.
    speculative: usize,
}

/// A batch run: the [`crate::sched`] relay over one input, a window at a
/// time, on `threads` threads with the calling thread among them. A thread
/// runs the head, else folds, else speculates, else waits.
struct Batch<'e> {
    engine: &'e Engine,
    threads: usize,
    state: Mutex<State>,
    progress: Condvar,
    /// Chunks submitted so far, and the bytes before the window being run.
    submitted: usize,
    consumed: usize,
    started: Instant,
}

/// Locks `mutex`; a thread that panicked halted the run and re-raises.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<'e> Batch<'e> {
    fn new(engine: &'e Engine) -> Batch<'e> {
        let available = || std::thread::available_parallelism().map_or(1, |n| n.get());
        let state = State {
            sched: Sched::new(engine.transducer.initial()),
            joiner: Joiner::new(&engine.transducer),
            fold_next: 0,
            speculative: 0,
        };
        Batch {
            engine,
            threads: engine.config.threads.unwrap_or_else(available).max(1),
            state: Mutex::new(state),
            progress: Condvar::new(),
            submitted: 0,
            consumed: 0,
            started: Instant::now(),
        }
    }

    /// Splits `window` (the next bytes of the input) and runs its chunks.
    fn feed(&mut self, window: &[u8]) {
        let started = Instant::now();
        let chunk_size = self.engine.config.chunk_size;
        let chunks = ppt_xmlstream::split_chunks(window, chunk_size);
        let split = started.elapsed();
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for c in &chunks {
            let (index, tail) = (self.submitted + c.index, 2 * c.range.len() < chunk_size);
            state.sched.submit(Piece { index, range: c.range.clone(), tail });
        }
        self.submitted += chunks.len();
        state.sched.set_total(self.submitted as u64);
        let this = &*self;
        std::thread::scope(|scope| {
            for _ in 1..this.threads.min(chunks.len()) {
                scope.spawn(|| this.work(window));
            }
            this.work(window);
        });
        self.consumed += window.len();
        let state = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        state.joiner.stats.timings.split += split;
        state.joiner.stats.timings.parallel += started.elapsed() - split;
    }

    /// One thread's share of a window, until all its chunks are folded.
    fn work(&self, window: &[u8]) {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = lock(&self.state);
            loop {
                let state = &mut *guard;
                if state.sched.ended(state.fold_next) {
                    return;
                }
                guard = if let Some((piece, run)) = state.sched.claim_head() {
                    self.transduce(guard, window, piece, run)
                } else if let Some((out, _)) = state.sched.take(state.fold_next) {
                    let started = Instant::now();
                    state.joiner.fold(out);
                    state.joiner.stats.timings.join += started.elapsed();
                    state.fold_next += 1;
                    self.progress.notify_all();
                    guard
                } else if let (Some(piece), _) = state.sched.take_speculative(self.threads) {
                    self.transduce(guard, window, piece, Run::Speculative { head: false })
                } else {
                    self.progress.wait(guard).unwrap_or_else(PoisonError::into_inner)
                };
            }
        }));
        if let Err(panic) = outcome {
            lock(&self.state).sched.halt();
            self.progress.notify_all();
            resume_unwind(panic);
        }
    }

    /// Runs `piece` as `run` outside the lock and delivers its output.
    fn transduce<'s>(
        &'s self,
        state: MutexGuard<'s, State>,
        window: &[u8],
        piece: Piece,
        run: Run,
    ) -> MutexGuard<'s, State> {
        drop(state);
        let config = &self.engine.config;
        let slice = &window[piece.range.clone()];
        let offset = self.consumed + piece.range.start;
        let (t, kind, spans) = (&self.engine.transducer, config.engine, config.resolve_spans);
        let (out, mut ran) = run.process(t, slice, offset, piece.index, kind, spans);
        ran.sample = (!piece.tail).then_some((out.stats.busy, slice.len()));
        let mut state = lock(&self.state);
        state.speculative += usize::from(!ran.in_order);
        state.sched.complete(piece.index as u64, out, ran);
        self.progress.notify_all();
        state
    }

    /// The matches in document order and the run's statistics.
    fn finish(self) -> (Vec<ResolvedMatch>, RunStats) {
        let state = self.state.into_inner().unwrap_or_else(PoisonError::into_inner);
        let spans = self.engine.config.resolve_spans;
        let (matches, mut stats) = state.joiner.finish(self.consumed, spans);
        stats.threads = self.threads;
        (stats.chunks_in_order, stats.chunks_speculative) =
            (stats.chunks - state.speculative, state.speculative);
        let capacity = stats.timings.parallel.as_secs_f64() * self.threads as f64;
        let busy = (stats.worker_busy + stats.timings.join).as_secs_f64();
        stats.idle_fraction = if capacity > 0.0 { (1.0 - busy / capacity).max(0.0) } else { 0.0 };
        stats.timings.total = self.started.elapsed();
        (matches, stats)
    }
}

/// The result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Matches per user query, in the order queries were added.
    pub query_matches: Vec<Vec<QueryMatch>>,
    /// Total basic sub-query matches attributed to each query before
    /// filtering (Table 2's "# sub-matches").
    pub submatch_counts: Vec<usize>,
    /// Total basic sub-query matches across the whole run.
    pub subquery_match_total: usize,
    /// Execution statistics.
    pub stats: RunStats,
}

impl QueryResult {
    /// Number of result matches for query `q`.
    pub fn match_count(&self, q: usize) -> usize {
        self.query_matches.get(q).map(|m| m.len()).unwrap_or(0)
    }

    /// The matches of query `q`.
    pub fn matches(&self, q: usize) -> &[QueryMatch] {
        self.query_matches.get(q).map(|m| m.as_slice()).unwrap_or(&[])
    }

    /// Total number of result matches across all queries.
    pub fn total_matches(&self) -> usize {
        self.query_matches.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";

    #[test]
    fn builder_and_run() {
        let engine = Engine::builder()
            .add_query("/a/b/c")
            .unwrap()
            .add_query("//d")
            .unwrap()
            .chunk_size(8)
            .threads(2)
            .build()
            .unwrap();
        let result = engine.run(DOC);
        assert_eq!(result.match_count(0), 1);
        assert_eq!(result.match_count(1), 1);
        assert_eq!(result.total_matches(), 2);
        // The /a/b/c match's span covers exactly "<c></c>".
        let m = result.matches(0)[0];
        assert_eq!(&DOC[m.start..m.end], b"<c></c>");
    }

    #[test]
    fn invalid_queries_fail_at_build_time() {
        assert!(Engine::builder().add_query("a/b").is_err());
        assert!(Engine::from_queries(&["/a[b"]).is_err());
        assert!(Engine::from_queries(&["/a/parent::b"]).is_err());
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let engine = Engine::builder()
            .add_queries(&["/a/b/c", "//b", "/a/b[d]"])
            .unwrap()
            .chunk_size(4)
            .threads(3)
            .build()
            .unwrap();
        let par = engine.run(DOC);
        let seq = engine.run_sequential(DOC);
        assert_eq!(par.query_matches, seq.query_matches);
        assert_eq!(par.submatch_counts, seq.submatch_counts);
    }

    #[test]
    fn reader_api_matches_in_memory_run() {
        let engine = Engine::builder()
            .add_queries(&["/a/b/c", "//d"])
            .unwrap()
            .chunk_size(4)
            .window_size(4096)
            .build()
            .unwrap();
        let from_slice = engine.run(DOC);
        let from_reader = engine.run_reader(std::io::Cursor::new(DOC.to_vec())).unwrap();
        assert_eq!(from_slice.query_matches, from_reader.query_matches);
    }

    #[test]
    fn predicated_queries_force_span_resolution() {
        let engine =
            Engine::builder().add_query("/a/b[d]").unwrap().resolve_spans(false).build().unwrap();
        assert!(engine.config().resolve_spans);
        let result = engine.run(DOC);
        assert_eq!(result.match_count(0), 1);
    }

    #[test]
    fn stats_are_populated() {
        let engine =
            Engine::builder().add_query("//b").unwrap().chunk_size(6).threads(2).build().unwrap();
        let result = engine.run(DOC);
        let s = &result.stats;
        assert_eq!(s.bytes, DOC.len());
        assert!(s.chunks >= 2);
        assert_eq!(s.threads, 2);
        assert!(s.tag_events > 0);
        assert!(s.overhead_factor() >= 1.0);
        assert_eq!(result.subquery_match_total, 2);
    }

    #[test]
    fn the_relay_carries_across_windows() {
        let engine = Engine::builder()
            .add_queries(&["/a/b/c", "//d", "/a/b"])
            .unwrap()
            .chunk_size(6)
            .threads(2)
            .build()
            .unwrap();
        // Windows whose boundaries fall on '<'.
        let mut batch = Batch::new(&engine);
        batch.feed(&DOC[..17]);
        batch.feed(&DOC[17..27]);
        batch.feed(&DOC[27..]);
        let (matches, stats) = batch.finish();
        let seq = engine.run_sequential(DOC);
        let got: Vec<(usize, usize, u32)> =
            matches.iter().map(|m| (m.pos, m.end, m.depth)).collect();
        let (expected, _) =
            run_all_states(engine.transducer(), DOC, DOC.len(), EngineKind::Tree, true);
        let expected: Vec<(usize, usize, u32)> =
            expected.iter().map(|m| (m.pos, m.end, m.depth)).collect();
        assert_eq!(got, expected);
        assert_eq!(matches.len(), seq.subquery_match_total);
        assert_eq!(stats.bytes, DOC.len());
        assert_eq!(stats.chunks, stats.chunks_in_order + stats.chunks_speculative);
    }

    #[test]
    fn one_thread_runs_every_chunk_in_order() {
        let engine =
            Engine::builder().add_query("//b").unwrap().chunk_size(4).threads(1).build().unwrap();
        let result = engine.run(DOC);
        let s = &result.stats;
        assert_eq!((s.threads, s.chunks_speculative), (1, 0));
        assert_eq!(s.chunks_in_order, s.chunks);
        // One path per chunk: as many transitions as tags.
        assert_eq!(s.overhead_factor(), 1.0);
        assert_eq!(result.query_matches, engine.run_sequential(DOC).query_matches);
    }

    #[test]
    fn empty_document() {
        let engine = Engine::from_queries(&["/a"]).unwrap();
        let result = engine.run(b"");
        assert_eq!(result.total_matches(), 0);
        let result = engine.run_reader(std::io::empty()).unwrap();
        assert_eq!(result.total_matches(), 0);
    }
}
