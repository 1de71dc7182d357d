//! Out-of-order processing of one XML chunk (§3.2 phase ii).
//!
//! A chunk is an arbitrary byte range of the input (produced by
//! [`ppt_xmlstream::split_chunks`]); it need not be well-formed. The chunk is
//! lexed into tag events and driven through either the naive mapping engine or
//! the double-tree engine, producing a [`ChunkMapping`] from every possible
//! starting state to its finishing state plus the sub-query matches emitted
//! along each path (stored once, on a tape the paths share).
//!
//! Besides the mapping, the chunk records what the join phase needs to stitch
//! results back together:
//!
//! * `depth_delta` — how much deeper (or shallower) the document is at the end
//!   of the chunk than at its start, used to rebase the relative depths of
//!   matches;
//! * `ladder` — for every closing tag that closes an element opened in an
//!   *earlier* chunk, the position after the tag and the relative depth it
//!   returns to; this is what resolves element spans that cross chunk
//!   boundaries.

use crate::mapping::{ChunkMapping, ChunkMatch, Mapping};
use crate::tree::DoubleTree;
use ppt_automaton::{run_sequential_with_stats, StateId, Transducer};
use ppt_xmlstream::{Lexer, LexerConfig, Symbol, XmlEvent};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// Which per-chunk engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The double-tree engine of §4.2 (default).
    #[default]
    Tree,
    /// The naive one-transition-per-entry engine of §4.1 (reference /
    /// ablation).
    Naive,
}

/// Counters collected while processing one chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChunkStats {
    /// Out-of-order transitions performed.
    pub transitions: u64,
    /// Tag events consumed.
    pub tag_events: u64,
    /// Peak number of distinct finishing states.
    pub peak_finish_states: usize,
    /// Wall-clock time spent processing the chunk.
    pub busy: Duration,
    /// Approximate heap footprint of the per-chunk engine state.
    pub working_set_bytes: usize,
    /// Match records the chunk stored, over all execution paths (the real
    /// path's share is what the join emits).
    pub match_records: usize,
}

/// The result of processing one chunk.
#[derive(Debug, Clone)]
pub struct ChunkOutput {
    /// Chunk sequence number.
    pub index: usize,
    /// The state mapping (matches carry absolute byte offsets and
    /// chunk-relative depths).
    pub mapping: ChunkMapping,
    /// Depth at the end of the chunk relative to its start.
    pub depth_delta: i64,
    /// `(position after the closing tag, relative depth after the close)` for
    /// every close of an element opened in an earlier chunk.
    pub ladder: Vec<(usize, i64)>,
    /// Absolute stream offset just past the chunk's last byte. Joining this
    /// chunk makes the stream final up to here — the online joiner uses it as
    /// the release frontier for retained payload windows.
    pub end_offset: usize,
    /// Counters.
    pub stats: ChunkStats,
}

/// What [`drive`] needs of a per-chunk engine. `open` returns a mark that
/// `close_span` later uses to find the matches that opening tag produced.
trait StepEngine {
    type Mark: Copy;
    fn open(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) -> Self::Mark;
    fn close(&mut self, t: &Transducer, sym: Symbol);
    fn probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64);
    fn close_span(&mut self, mark: Self::Mark, end: usize);
}

impl StepEngine for DoubleTree {
    /// The log records the opening tag produced (each exists once).
    type Mark = (usize, usize);

    fn open(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) -> (usize, usize) {
        let lo = self.match_records();
        self.step_open(t, sym, pos, depth);
        (lo, self.match_records())
    }

    fn close(&mut self, t: &Transducer, sym: Symbol) {
        self.step_close(t, sym);
    }

    fn probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) {
        self.step_probe(t, sym, pos, depth);
    }

    fn close_span(&mut self, records: (usize, usize), end: usize) {
        DoubleTree::close_span(self, records, end);
    }
}

/// The naive engine and its transition count.
struct Naive(Mapping, u64);

impl StepEngine for Naive {
    /// Position of the opening tag.
    type Mark = usize;

    fn open(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) -> usize {
        self.1 += self.0.step_open(t, sym, pos, depth);
        pos
    }

    fn close(&mut self, t: &Transducer, sym: Symbol) {
        self.1 += self.0.step_close(t, sym);
    }

    fn probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) {
        self.1 += self.0.step_probe(t, sym, pos, depth);
    }

    fn close_span(&mut self, open_pos: usize, end: usize) {
        // Outputs are in document order: what follows the opening tag's own
        // matches lies inside the element.
        for e in &mut self.0.entries {
            let inside_last = e.outputs.iter_mut().rev().skip_while(|m| m.pos > open_pos);
            inside_last.take_while(|m| m.pos == open_pos).for_each(|m| m.end = end);
        }
    }
}

/// The one execution path of an in-order chunk, whose entry state and whole
/// stack are known: one transition per event, each match recorded once.
///
/// It follows the mapping semantics, not [`ppt_automaton::run_sequential`]'s
/// leniency: a close that pops below the known stack, or pops a symbol whose
/// push could not have entered the current state, loses the path — exactly
/// when the speculative mapping would hold no entry the join can take.
struct OnePath {
    state: StateId,
    /// The whole stack, top last.
    stack: Vec<StateId>,
    /// Lowest stack height reached; the symbols popped below the entry
    /// height are `popped`, first popped first.
    floor: usize,
    popped: Vec<StateId>,
    log: Vec<ChunkMatch>,
    transitions: u64,
    lost: bool,
}

impl OnePath {
    fn record(&mut self, t: &Transducer, next: StateId, pos: usize, rel_depth: i64) {
        let outputs = t.output(next).iter();
        self.log.extend(outputs.map(|&q| ChunkMatch {
            pos,
            end: usize::MAX,
            rel_depth,
            subquery: q,
        }));
    }
}

impl StepEngine for OnePath {
    /// The log records the opening tag produced.
    type Mark = (usize, usize);

    fn open(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) -> (usize, usize) {
        let lo = self.log.len();
        if !self.lost {
            self.transitions += 1;
            let next = t.step(self.state, sym);
            self.stack.push(std::mem::replace(&mut self.state, next));
            self.record(t, next, pos, depth);
        }
        (lo, self.log.len())
    }

    fn close(&mut self, t: &Transducer, sym: Symbol) {
        if self.lost {
            return;
        }
        self.transitions += 1;
        match self.stack.pop() {
            Some(z) if t.step(z, sym) == self.state => {
                if self.stack.len() < self.floor {
                    self.floor = self.stack.len();
                    self.popped.push(z);
                }
                self.state = z;
            }
            _ => self.lost = true,
        }
    }

    fn probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, depth: i64) {
        if !self.lost {
            self.transitions += 1;
            self.record(t, t.step(self.state, sym), pos, depth);
        }
    }

    fn close_span(&mut self, (lo, hi): (usize, usize), end: usize) {
        self.log[lo..hi].iter_mut().for_each(|m| m.end = end);
    }
}

/// What one pass over a chunk's events leaves behind besides the engine.
struct Driven {
    depth_delta: i64,
    tag_events: u64,
    ladder: Vec<(usize, i64)>,
}

/// Lexes `slice` and drives `engine` through its events, resolving the spans
/// of elements that open and close inside the chunk when `need_spans`.
fn drive<E: StepEngine>(
    engine: &mut E,
    t: &Transducer,
    slice: &[u8],
    abs_offset: usize,
    need_spans: bool,
) -> Driven {
    let mut out = Driven { depth_delta: 0, tag_events: 0, ladder: Vec::new() };
    let mut open_stack: Vec<E::Mark> = Vec::new();
    let mut lexer = Lexer::with_config(slice, LexerConfig { tags_only: !t.needs_full_events() });
    while let Some(ev) = lexer.next() {
        match ev {
            XmlEvent::Open { name, pos } => {
                out.depth_delta += 1;
                out.tag_events += 1;
                let mark = engine.open(t, t.classify_name(name), abs_offset + pos, out.depth_delta);
                if need_spans {
                    open_stack.push(mark);
                }
            }
            XmlEvent::Close { name, .. } => {
                out.tag_events += 1;
                engine.close(t, t.classify_name(name));
                out.depth_delta -= 1;
                if need_spans {
                    // The lexer stands just past the tag it reported.
                    let end = abs_offset + lexer.position();
                    match open_stack.pop() {
                        Some(mark) => engine.close_span(mark, end),
                        None => out.ladder.push((end, out.depth_delta)),
                    }
                }
            }
            XmlEvent::Attr { name, pos, .. } => {
                if let Some(sym) = t.classify_attr(name) {
                    engine.probe(t, sym, abs_offset + pos, out.depth_delta + 1);
                }
            }
            XmlEvent::Text { text, pos } => {
                let trimmed = ppt_automaton::exec::trim_ws(text);
                if trimmed.is_empty() {
                    continue;
                }
                if let Some(sym) = t.classify_text(trimmed) {
                    engine.probe(t, sym, abs_offset + pos, out.depth_delta + 1);
                }
            }
        }
    }
    out
}

thread_local! {
    /// The calling worker's double tree: scratch reused for every chunk the
    /// thread processes, grown on demand (the result is compacted out of it).
    static TREE: RefCell<DoubleTree> = RefCell::default();
}

/// Processes one chunk out of order.
///
/// * `slice` — the chunk's bytes;
/// * `abs_offset` — the chunk's starting offset in the whole stream (added to
///   every recorded position);
/// * `is_first` — `true` only for the very first chunk of the stream, which
///   starts from the single initial state rather than from all states;
/// * `need_spans` — when `true`, element end positions are resolved for
///   matches whose element closes inside the chunk, and the cross-chunk close
///   ladder is recorded.
pub fn process_chunk(
    t: &Transducer,
    slice: &[u8],
    abs_offset: usize,
    index: usize,
    is_first: bool,
    kind: EngineKind,
    need_spans: bool,
) -> ChunkOutput {
    let started = Instant::now();
    let (driven, mapping, mut stats) = match kind {
        EngineKind::Tree => TREE.with(|tree| {
            let tree = &mut *tree.borrow_mut();
            tree.reset(t, is_first);
            let driven = drive(tree, t, slice, abs_offset, need_spans);
            let stats = ChunkStats {
                transitions: tree.transitions,
                peak_finish_states: tree.peak_level1,
                working_set_bytes: tree.heap_bytes(),
                ..ChunkStats::default()
            };
            (driven, tree.extract(), stats)
        }),
        EngineKind::Naive => {
            let start = if is_first { Mapping::initial(t) } else { Mapping::identity(t) };
            let mut naive = Naive(start, 0);
            let driven = drive(&mut naive, t, slice, abs_offset, need_spans);
            let Naive(m, transitions) = naive;
            let stats = ChunkStats {
                transitions,
                peak_finish_states: m.distinct_finish_states().max(m.len()),
                working_set_bytes: m.len() * std::mem::size_of::<crate::mapping::MapEntry>(),
                ..ChunkStats::default()
            };
            (driven, ChunkMapping::from_mapping(&m), stats)
        }
    };
    stats.tag_events = driven.tag_events;
    stats.match_records = mapping.match_records();
    stats.busy = started.elapsed();
    ChunkOutput {
        index,
        mapping,
        depth_delta: driven.depth_delta,
        ladder: driven.ladder,
        end_offset: abs_offset + slice.len(),
        stats,
    }
}

/// Processes one chunk **in order**: its exact entry — `state` and the whole
/// `stack` (top last) the stream stands in before `slice` — is known, so one
/// path is run instead of one per state. Returns the chunk's output, whose
/// one-entry mapping [`crate::join::PrefixFolder::fold`] folds like any
/// other, and the exact exit — the entry of the next chunk — or `None` once
/// the path is lost (see [`ChunkMapping::exit_from`]; the mapping is then
/// empty, as the speculative one would hold no entry for the path).
///
/// The other arguments are [`process_chunk`]'s.
pub fn process_chunk_from(
    t: &Transducer,
    slice: &[u8],
    abs_offset: usize,
    index: usize,
    state: StateId,
    stack: Vec<StateId>,
    need_spans: bool,
) -> (ChunkOutput, Option<(StateId, Vec<StateId>)>) {
    let started = Instant::now();
    let floor = stack.len();
    let mut path = OnePath {
        state,
        stack,
        floor,
        popped: Vec::new(),
        log: Vec::new(),
        transitions: 0,
        lost: false,
    };
    let driven = drive(&mut path, t, slice, abs_offset, need_spans);
    let OnePath { state: exit, stack, floor, popped, log, transitions, lost } = path;
    let (mapping, exit) = if lost {
        (ChunkMapping::default(), None)
    } else {
        (ChunkMapping::single(state, &popped, exit, &stack[floor..], log), Some((exit, stack)))
    };
    let stats = ChunkStats {
        transitions,
        tag_events: driven.tag_events,
        peak_finish_states: 1,
        busy: started.elapsed(),
        working_set_bytes: mapping.match_records() * std::mem::size_of::<ChunkMatch>(),
        match_records: mapping.match_records(),
    };
    let out = ChunkOutput {
        index,
        mapping,
        depth_delta: driven.depth_delta,
        ladder: driven.ladder,
        end_offset: abs_offset + slice.len(),
        stats,
    };
    (out, exit)
}

/// Convenience used by tests and the overhead experiment: the number of
/// transitions an in-order execution performs on the same bytes.
pub fn sequential_transitions(t: &Transducer, data: &[u8]) -> u64 {
    run_sequential_with_stats(t, data).1.transitions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::unify_mappings;

    const DOC: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";

    #[test]
    fn single_chunk_equals_sequential_matches() {
        let t = Transducer::from_queries(&["/a/b/c", "//d"]).unwrap();
        let out = process_chunk(&t, DOC, 0, 0, true, EngineKind::Tree, true);
        assert_eq!(out.mapping.len(), 1);
        let mapping = out.mapping.to_mapping();
        let e = &mapping.entries[0];
        let seq = ppt_automaton::run_sequential(&t, DOC);
        assert_eq!(e.outputs.len(), seq.len());
        let mut expected: Vec<(usize, u32)> = seq.iter().map(|m| (m.pos, m.subquery)).collect();
        let mut got: Vec<(usize, u32)> = e.outputs.iter().map(|m| (m.pos, m.subquery)).collect();
        expected.sort_unstable();
        got.sort_unstable();
        assert_eq!(expected, got);
        assert_eq!(out.depth_delta, 0);
        assert!(out.ladder.is_empty());
        assert_eq!(out.end_offset, DOC.len());
    }

    #[test]
    fn two_chunks_unify_to_the_sequential_result() {
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        // Split at the '<' of the second <b> (offset 17).
        let split = 17;
        let first = process_chunk(&t, &DOC[..split], 0, 0, true, EngineKind::Tree, true);
        let second = process_chunk(&t, &DOC[split..], split, 1, false, EngineKind::Tree, true);
        assert_eq!(first.depth_delta, 1, "the first chunk leaves <a> open");
        assert_eq!(second.depth_delta, -1);
        assert_eq!(first.end_offset, split);
        assert_eq!(second.end_offset, DOC.len());
        let joined = unify_mappings(&first.mapping.to_mapping(), &second.mapping.to_mapping());
        assert_eq!(joined.len(), 1);
        assert_eq!(joined.entries[0].outputs.len(), 1);
        // The match's absolute position points at the <c> tag.
        let pos = joined.entries[0].outputs[0].pos;
        assert_eq!(&DOC[pos..pos + 3], b"<c>");
    }

    #[test]
    fn spans_resolve_within_a_chunk() {
        let t = Transducer::from_queries(&["/a/b"]).unwrap();
        let out = process_chunk(&t, DOC, 0, 0, true, EngineKind::Tree, true);
        let mapping = out.mapping.to_mapping();
        let e = &mapping.entries[0];
        assert_eq!(e.outputs.len(), 2);
        for m in &e.outputs {
            assert_ne!(m.end, usize::MAX);
            assert!(DOC[m.pos..m.end].starts_with(b"<b>"));
            assert!(DOC[m.pos..m.end].ends_with(b"</b>"));
        }
    }

    #[test]
    fn cross_chunk_closes_are_recorded_on_the_ladder() {
        let t = Transducer::from_queries(&["/a"]).unwrap();
        let split = 17;
        let second = process_chunk(&t, &DOC[split..], split, 1, false, EngineKind::Tree, true);
        // The second chunk closes </a>, an element opened in the first chunk.
        assert_eq!(second.ladder.len(), 1);
        let (end, depth_after) = second.ladder[0];
        assert_eq!(end, DOC.len());
        assert_eq!(depth_after, -1);
    }

    #[test]
    fn naive_and_tree_chunks_agree() {
        let t = Transducer::from_queries(&["/a/b/c", "//k", "/x//y"]).unwrap();
        let doc = b"<x><a><b><c/><k/></b></a><y><k/></y></x>";
        for split in [0usize, 3, 6, 13, 25] {
            let (left, right) = doc.split_at(split);
            for (slice, first, off) in [(left, true, 0usize), (right, split == 0, split)] {
                let a = process_chunk(&t, slice, off, 0, first, EngineKind::Tree, true);
                let b = process_chunk(&t, slice, off, 0, first, EngineKind::Naive, true);
                let mut ma = a.mapping.to_mapping();
                let mut mb = b.mapping.to_mapping();
                ma.normalise();
                mb.normalise();
                assert_eq!(ma, mb, "split at {split}");
                assert_eq!(a.depth_delta, b.depth_delta);
                assert_eq!(a.ladder, b.ladder);
            }
        }
    }

    #[test]
    fn sequential_transition_count_matches_tag_events() {
        let t = Transducer::from_queries(&["/a/b"]).unwrap();
        let out = process_chunk(&t, DOC, 0, 0, true, EngineKind::Tree, false);
        assert_eq!(out.stats.tag_events, 10);
        assert_eq!(sequential_transitions(&t, DOC), 10);
        // A first chunk has a single execution path, so out-of-order cost
        // equals in-order cost.
        assert_eq!(out.stats.transitions, 10);
    }

    #[test]
    fn out_of_order_chunk_has_bounded_overhead() {
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let mut doc = Vec::new();
        for _ in 0..100 {
            doc.extend_from_slice(b"<b><c></c></b>");
        }
        let out = process_chunk(&t, &doc, 0, 0, false, EngineKind::Tree, false);
        let seq = sequential_transitions(&t, &doc);
        let overhead = out.stats.transitions as f64 / seq as f64;
        // §3.3: for reasonable chunk sizes the overhead stays in the low
        // single digits (the paper reports 1.1×–3×).
        assert!(overhead < 4.0, "overhead {overhead} too large");
        assert!(overhead >= 1.0);
    }
}
