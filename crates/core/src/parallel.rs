//! The split → parallel → join pipeline (§3.2 phases i–iii).
//!
//! [`StreamProcessor`] is the work-horse: it accepts one or more contiguous
//! windows of the XML stream, splits each window into arbitrary chunks,
//! processes the chunks out-of-order on a rayon pool, and folds the resulting
//! mappings into an accumulated mapping with the unification function of §4.1.
//! Feeding the stream window-by-window keeps memory bounded for unbounded
//! streams (the constant-memory property claimed in §1); feeding a single
//! window is what [`crate::engine::Engine::run`] does for in-memory data.

use crate::chunk::{process_chunk, ChunkOutput, EngineKind};
use crate::join::PrefixFolder;
use crate::stats::RunStats;
use ppt_automaton::Transducer;
use ppt_xmlstream::split_chunks;
use rayon::prelude::*;
use std::time::Instant;

/// A sub-query match with every position resolved: absolute byte offsets and
/// absolute element depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedMatch {
    /// Byte offset of the opening tag.
    pub pos: usize,
    /// Byte offset just past the closing tag ([`usize::MAX`] when spans were
    /// not requested, or the end of the processed input when the element never
    /// closes).
    pub end: usize,
    /// Element depth (root element = 1).
    pub depth: u32,
    /// The basic sub-query that matched.
    pub subquery: u32,
}

/// Configuration of the parallel pipeline.
#[derive(Debug, Clone)]
pub struct ParallelConfig {
    /// Target chunk size in bytes (the paper's default is 10 MB; Fig 16 shows
    /// the execution time is flat for anything above ~1 MB).
    pub chunk_size: usize,
    /// Number of worker threads; `None` uses rayon's global pool.
    pub threads: Option<usize>,
    /// Which per-chunk engine to use.
    pub engine: EngineKind,
    /// Whether to resolve element end offsets (needed by predicate filters and
    /// by callers that want to extract the matched data).
    pub resolve_spans: bool,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig {
            chunk_size: 1 << 20,
            threads: None,
            engine: EngineKind::Tree,
            resolve_spans: true,
        }
    }
}

/// Incremental parallel processor. Feed contiguous windows of the stream in
/// order, then call [`StreamProcessor::finish`].
#[derive(Debug)]
pub struct StreamProcessor<'t> {
    transducer: &'t Transducer,
    config: ParallelConfig,
    pool: Option<rayon::ThreadPool>,
    /// Eager in-order fold of the per-chunk mappings.
    folder: PrefixFolder,
    /// Matches drained from the fold so far (document order).
    collected: Vec<ResolvedMatch>,
    /// Bytes consumed so far (= absolute offset of the next window).
    consumed: usize,
    /// Cross-chunk close ladder (absolute position, absolute depth after).
    ladder: Vec<(usize, i64)>,
    stats: RunStats,
}

impl<'t> StreamProcessor<'t> {
    /// Creates a processor for `transducer` with `config`.
    pub fn new(transducer: &'t Transducer, config: ParallelConfig) -> StreamProcessor<'t> {
        let pool = config.threads.map(|n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n.max(1))
                .build()
                // UNWRAP-OK: pool construction only fails on thread-spawn
                // exhaustion; there is no degraded mode to fall back to.
                .expect("failed to build rayon pool")
        });
        let threads = config.threads.unwrap_or_else(rayon::current_num_threads);
        let mut stats = RunStats {
            threads,
            shared_table_bytes: transducer.table_bytes(),
            ..RunStats::default()
        };
        stats.peak_finish_states = 0;
        StreamProcessor {
            transducer,
            config,
            pool,
            folder: PrefixFolder::new(transducer),
            collected: Vec::new(),
            consumed: 0,
            ladder: Vec::new(),
            stats,
        }
    }

    /// Number of bytes fed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// Splits `window` into chunks, processes them in parallel and folds them
    /// into the accumulated mapping.
    pub fn feed(&mut self, window: &[u8]) {
        if window.is_empty() {
            return;
        }
        let total_start = Instant::now();

        // Phase (i): split.
        let split_start = Instant::now();
        let chunks = split_chunks(window, self.config.chunk_size);
        self.stats.timings.split += split_start.elapsed();
        self.stats.chunks += chunks.len();

        // Phase (ii): parallel out-of-order chunk processing.
        let parallel_start = Instant::now();
        let t = self.transducer;
        let kind = self.config.engine;
        let spans = self.config.resolve_spans;
        let base = self.consumed;
        let first_global = self.folder.chunks() == 0;
        let work = |chunks: &[ppt_xmlstream::Chunk]| -> Vec<ChunkOutput> {
            chunks
                .par_iter()
                .map(|c| {
                    process_chunk(
                        t,
                        &window[c.range.clone()],
                        base + c.range.start,
                        c.index,
                        first_global && c.index == 0,
                        kind,
                        spans,
                    )
                })
                .collect()
        };
        let outputs: Vec<ChunkOutput> = match &self.pool {
            Some(pool) => pool.install(|| work(&chunks)),
            None => work(&chunks),
        };
        let parallel_elapsed = parallel_start.elapsed();
        self.stats.timings.parallel += parallel_elapsed;

        // Worker busy/idle accounting (Fig 20).
        let busy: std::time::Duration = outputs.iter().map(|o| o.stats.busy).sum();
        self.stats.worker_busy += busy;
        let capacity = parallel_elapsed.as_secs_f64() * self.stats.threads as f64;
        if capacity > 0.0 {
            let idle = (capacity - busy.as_secs_f64()).max(0.0) / capacity;
            // Weighted running average over windows by parallel time.
            let prev_weight = (self.stats.timings.parallel - parallel_elapsed).as_secs_f64();
            let new_weight = parallel_elapsed.as_secs_f64();
            let total_weight = prev_weight + new_weight;
            self.stats.idle_fraction = if total_weight > 0.0 {
                (self.stats.idle_fraction * prev_weight + idle * new_weight) / total_weight
            } else {
                idle
            };
        }

        // Phase (iii): sequential join.
        let join_start = Instant::now();
        for out in outputs {
            self.stats.parallel_transitions += out.stats.transitions;
            self.stats.tag_events += out.stats.tag_events;
            self.stats.peak_finish_states =
                self.stats.peak_finish_states.max(out.stats.peak_finish_states);
            self.stats.working_set_bytes =
                self.stats.working_set_bytes.max(out.stats.working_set_bytes);
            self.stats.match_records += out.stats.match_records;

            // The folder rebases depths, follows the one entry that unifies
            // with the prefix, and drains the matches the fold made final.
            let mut delta = self.folder.fold(out.mapping, out.depth_delta, out.ladder);
            self.ladder.extend(std::mem::take(&mut delta.ladder));
            self.collected.extend(delta.take_resolved_matches());
        }
        self.stats.timings.join += join_start.elapsed();

        self.consumed += window.len();
        self.stats.bytes += window.len();
        self.stats.timings.total += total_start.elapsed();
    }

    /// Finishes processing: the matches of the execution path that starts from
    /// the transducer's initial state were drained eagerly at every fold;
    /// resolves element spans that crossed chunk boundaries and returns the
    /// matches in document order together with the collected statistics.
    pub fn finish(mut self) -> (Vec<ResolvedMatch>, RunStats) {
        let finish_start = Instant::now();
        let mut matches = std::mem::take(&mut self.collected);
        matches.sort_by_key(|m| m.pos);

        if self.config.resolve_spans {
            resolve_spans(&mut matches, &mut self.ladder, self.consumed);
        }

        self.stats.subquery_matches = matches.len();
        self.stats.timings.join += finish_start.elapsed();
        self.stats.timings.total += finish_start.elapsed();
        (matches, self.stats)
    }
}

/// Resolves the `end` of matches whose element closed in a later chunk, using
/// the cross-chunk close ladder. `total_len` caps elements that never close.
fn resolve_spans(matches: &mut [ResolvedMatch], ladder: &mut [(usize, i64)], total_len: usize) {
    ladder.sort_by_key(|&(pos, _)| pos);
    // Sweep matches and ladder events in position order, keeping a stack of
    // unresolved matches (their depths are strictly increasing because an
    // unresolved inner element implies an unresolved outer one).
    let mut pending: Vec<usize> = Vec::new();
    let mut ladder_iter = ladder.iter().copied().peekable();
    for i in 0..matches.len() {
        // Apply every ladder event that occurs before this match.
        while let Some(&(pos, depth_after)) = ladder_iter.peek() {
            if pos <= matches[i].pos {
                while let Some(&idx) = pending.last() {
                    if (matches[idx].depth as i64) > depth_after {
                        matches[idx].end = pos;
                        pending.pop();
                    } else {
                        break;
                    }
                }
                ladder_iter.next();
            } else {
                break;
            }
        }
        if matches[i].end == usize::MAX {
            pending.push(i);
        }
    }
    // Remaining ladder events.
    for (pos, depth_after) in ladder_iter {
        while let Some(&idx) = pending.last() {
            if (matches[idx].depth as i64) > depth_after {
                matches[idx].end = pos;
                pending.pop();
            } else {
                break;
            }
        }
    }
    // Elements that never close end at the end of the processed input.
    for idx in pending {
        matches[idx].end = total_len;
    }
}

/// Convenience wrapper: processes an in-memory slice in one window.
pub fn run_parallel(
    t: &Transducer,
    data: &[u8],
    config: ParallelConfig,
) -> (Vec<ResolvedMatch>, RunStats) {
    let mut proc = StreamProcessor::new(t, config);
    proc.feed(data);
    proc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppt_automaton::run_sequential;

    const DOC: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";

    fn config(chunk: usize, threads: usize) -> ParallelConfig {
        ParallelConfig {
            chunk_size: chunk,
            threads: Some(threads),
            engine: EngineKind::Tree,
            resolve_spans: true,
        }
    }

    fn positions(matches: &[ResolvedMatch]) -> Vec<(usize, u32)> {
        matches.iter().map(|m| (m.pos, m.subquery)).collect()
    }

    #[test]
    fn parallel_equals_sequential_for_every_chunk_size() {
        let t = Transducer::from_queries(&["/a/b/c", "//b", "//d"]).unwrap();
        let seq: Vec<(usize, u32)> =
            run_sequential(&t, DOC).iter().map(|m| (m.pos, m.subquery)).collect();
        for chunk_size in [1usize, 2, 3, 5, 7, 11, 17, 100] {
            let (matches, stats) = run_parallel(&t, DOC, config(chunk_size, 2));
            assert_eq!(positions(&matches), seq, "chunk size {chunk_size}");
            assert!(stats.chunks >= 1);
            assert_eq!(stats.bytes, DOC.len());
        }
    }

    #[test]
    fn spans_are_resolved_across_chunks() {
        let t = Transducer::from_queries(&["/a", "/a/b"]).unwrap();
        // Tiny chunks force both <a> and the first <b> to close in later
        // chunks.
        let (matches, _) = run_parallel(&t, DOC, config(4, 2));
        for m in &matches {
            assert_ne!(m.end, usize::MAX);
            let slice = &DOC[m.pos..m.end];
            assert!(slice.starts_with(b"<a>") || slice.starts_with(b"<b>"));
            assert!(slice.ends_with(b"</a>") || slice.ends_with(b"</b>"));
        }
        let a_match = matches.iter().find(|m| m.depth == 1).unwrap();
        assert_eq!(&DOC[a_match.pos..a_match.end], DOC);
    }

    #[test]
    fn depths_are_rebased_across_chunks() {
        let t = Transducer::from_queries(&["//d", "//c"]).unwrap();
        let (matches, _) = run_parallel(&t, DOC, config(5, 3));
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert_eq!(m.depth, 3, "both d and c sit at depth 3");
        }
    }

    #[test]
    fn streaming_windows_give_the_same_answer() {
        let t = Transducer::from_queries(&["/a/b/c", "//d"]).unwrap();
        let seq: Vec<(usize, u32)> =
            run_sequential(&t, DOC).iter().map(|m| (m.pos, m.subquery)).collect();
        // Feed the document in windows whose boundaries fall on '<'.
        let mut proc = StreamProcessor::new(&t, config(6, 2));
        proc.feed(&DOC[..17]);
        proc.feed(&DOC[17..27]);
        proc.feed(&DOC[27..]);
        let (matches, stats) = proc.finish();
        assert_eq!(positions(&matches), seq);
        assert_eq!(stats.bytes, DOC.len());
    }

    #[test]
    fn empty_input_is_fine() {
        let t = Transducer::from_queries(&["/a"]).unwrap();
        let (matches, stats) = run_parallel(&t, b"", ParallelConfig::default());
        assert!(matches.is_empty());
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    fn stats_report_overhead_and_phases() {
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let mut doc = Vec::new();
        doc.extend_from_slice(b"<a>");
        for _ in 0..500 {
            doc.extend_from_slice(b"<b><c></c></b>");
        }
        doc.extend_from_slice(b"</a>");
        let (matches, stats) = run_parallel(&t, &doc, config(256, 4));
        assert_eq!(matches.len(), 500);
        assert!(stats.overhead_factor() >= 1.0);
        assert!(stats.parallel_transitions >= stats.tag_events);
        assert!(stats.chunks > 1);
        assert!(stats.timings.total >= stats.timings.parallel);
        assert!(stats.working_set_bytes > 0);
        assert!(stats.shared_table_bytes > 0);
    }

    #[test]
    fn naive_engine_agrees_with_tree_engine_end_to_end() {
        let t = Transducer::from_queries(&["/a/b/c", "//b"]).unwrap();
        let tree_cfg = config(5, 2);
        let naive_cfg = ParallelConfig { engine: EngineKind::Naive, ..config(5, 2) };
        let (a, _) = run_parallel(&t, DOC, tree_cfg);
        let (b, _) = run_parallel(&t, DOC, naive_cfg);
        assert_eq!(positions(&a), positions(&b));
    }
}
