//! Map entries and the naive mapping engine (§4.1, Alg 1).
//!
//! A *mapping* is a set of [`MapEntry`]s, each recording: if the transducer
//! had been in state `start_state` with (unknown) stack `start_stack` at the
//! beginning of the chunk, it would now be in `finish_state` with
//! `finish_stack`, having emitted `outputs`.
//!
//! The naive engine applies the per-entry transition function `f` to every
//! entry independently. It is quadratic in the number of states and exists as
//! the executable specification the tree engine (§4.2) is differentially
//! tested against, and to quantify the benefit of the tree representation in
//! the ablation benchmarks.
//!
//! ## Conventions
//!
//! * `finish_stack`: top of stack at the **end** of the `Vec` (natural
//!   push/pop).
//! * `start_stack`: symbols consumed from the pre-chunk stack in consumption
//!   order — index 0 is the first symbol popped, i.e. the symbol that was on
//!   top of the stack when the chunk began.
//! * `rel_depth` of a match: the element nesting depth relative to the chunk
//!   start (first open tag of the chunk produces depth 1); it is rebased to an
//!   absolute depth during the join.

use ppt_automaton::{StateId, SubQueryId, Transducer};
use ppt_xmlstream::Symbol;

/// One output-tape symbol: a sub-query match found while processing a chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMatch {
    /// Byte offset of the opening tag (absolute within the whole input).
    pub pos: usize,
    /// Byte offset one past the element's closing tag, or [`usize::MAX`] when
    /// the element does not close within the same chunk (resolved later).
    pub end: usize,
    /// Nesting depth relative to the chunk start (may exceed the chunk-local
    /// element count when the chunk starts deep inside the document; it is
    /// rebased during the join).
    pub rel_depth: i64,
    /// Which basic sub-query matched.
    pub subquery: SubQueryId,
}

/// One entry of a mapping: `(q_s, z_s) → (q_f, z_f, o)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapEntry {
    /// Starting state `q_s`.
    pub start_state: StateId,
    /// Starting stack `z_s` (symbols popped from the pre-chunk stack, first
    /// popped at index 0).
    pub start_stack: Vec<StateId>,
    /// Finishing state `q_f`.
    pub finish_state: StateId,
    /// Finishing stack `z_f` (symbols pushed but not yet popped, top at the
    /// end).
    pub finish_stack: Vec<StateId>,
    /// Output tape `o`: the sub-query matches this execution path produced.
    pub outputs: Vec<ChunkMatch>,
}

impl MapEntry {
    /// The identity entry for state `q`: `(q, ε) → (q, ε, ε)`.
    pub fn identity(q: StateId) -> MapEntry {
        MapEntry {
            start_state: q,
            start_stack: Vec::new(),
            finish_state: q,
            finish_stack: Vec::new(),
            outputs: Vec::new(),
        }
    }
}

/// A complete mapping: the set of entries for one chunk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Mapping {
    /// The entries. Each starting state/stack pair appears at most once.
    pub entries: Vec<MapEntry>,
}

impl Mapping {
    /// The mapping used for the first chunk of the stream: the single entry
    /// `{(q₀, ε) → (q₀, ε, ε)}` (§4.1).
    pub fn initial(t: &Transducer) -> Mapping {
        Mapping { entries: vec![MapEntry::identity(t.initial())] }
    }

    /// The mapping used for an out-of-order chunk: one identity entry per
    /// state, `{(q, ε) → (q, ε, ε) | q ∈ Q}` (§4.1).
    pub fn identity(t: &Transducer) -> Mapping {
        Mapping { entries: (0..t.num_states()).map(MapEntry::identity).collect() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no execution path survives (the chunk is inconsistent with
    /// every considered starting state).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of *distinct finishing states* across the entries — the
    /// convergence measure of §3.3: the smaller this gets, the less work each
    /// further input symbol costs.
    pub fn distinct_finish_states(&self) -> usize {
        let mut states: Vec<StateId> = self.entries.iter().map(|e| e.finish_state).collect();
        states.sort_unstable();
        states.dedup();
        states.len()
    }

    /// Applies an opening tag carrying `sym` (the push transition `fpush`,
    /// Alg 1) to every entry. Returns the number of per-entry transitions
    /// performed.
    pub fn step_open(&mut self, t: &Transducer, sym: Symbol, pos: usize, rel_depth: i64) -> u64 {
        let mut transitions = 0;
        for e in &mut self.entries {
            let next = t.step(e.finish_state, sym);
            e.finish_stack.push(e.finish_state);
            e.finish_state = next;
            transitions += 1;
            for &q in t.output(next) {
                e.outputs.push(ChunkMatch { pos, end: usize::MAX, rel_depth, subquery: q });
            }
        }
        transitions
    }

    /// Applies a closing tag carrying `sym` to every entry: `fpop` when the
    /// finishing stack is non-empty, `funknown` otherwise (Alg 1). Entries
    /// whose execution is inconsistent with the input are discarded
    /// (`f(m, c) = ∅`).
    pub fn step_close(&mut self, t: &Transducer, sym: Symbol) -> u64 {
        let mut transitions = 0;
        let mut next_entries = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            let mut e = e;
            match e.finish_stack.pop() {
                Some(z) => {
                    // fpop: defined only when the push `z --sym--> finish_state`
                    // exists; otherwise the path is impossible and is dropped.
                    transitions += 1;
                    if t.step(z, sym) == e.finish_state {
                        e.finish_state = z;
                        next_entries.push(e);
                    }
                }
                None => {
                    // funknown: consider every state that could legally be
                    // popped here; each becomes its own entry.
                    let sources = t.pop_sources(e.finish_state, sym);
                    transitions += sources.len().max(1) as u64;
                    for &z in sources {
                        let mut fanned = e.clone();
                        fanned.start_stack.push(z);
                        fanned.finish_state = z;
                        next_entries.push(fanned);
                    }
                }
            }
        }
        self.entries = next_entries;
        transitions
    }

    /// Applies a *probe* transition for a synthetic attribute/text symbol: the
    /// transducer output of `δ(q_f, sym)` is recorded but the state and stack
    /// are unchanged (the synthetic element is opened and closed in one step).
    pub fn step_probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, rel_depth: i64) -> u64 {
        let mut transitions = 0;
        for e in &mut self.entries {
            let next = t.step(e.finish_state, sym);
            transitions += 1;
            for &q in t.output(next) {
                e.outputs.push(ChunkMatch { pos, end: usize::MAX, rel_depth, subquery: q });
            }
        }
        transitions
    }

    /// Looks up the entry for a given starting state with an empty starting
    /// stack (convenience for tests).
    pub fn entry_for_start(&self, q: StateId) -> Option<&MapEntry> {
        self.entries.iter().find(|e| e.start_state == q && e.start_stack.is_empty())
    }

    /// Sorts entries by (start state, start stack) so mappings can be compared
    /// structurally in tests.
    pub fn normalise(&mut self) {
        self.entries.sort_by(|a, b| {
            (a.start_state, &a.start_stack, a.finish_state, &a.finish_stack).cmp(&(
                b.start_state,
                &b.start_stack,
                b.finish_state,
                &b.finish_stack,
            ))
        });
    }
}

/// "No node" in the flat `u32`-indexed structures.
pub(crate) const NIL: u32 = u32::MAX;

/// One immutable node of the shared output tape: the records of `prev`, then
/// those of `sub`, then `log[lo..hi]`. Nodes are only ever created with
/// non-empty content, so walking one entry's tape costs O(its records).
#[derive(Debug, Clone, Copy)]
struct TapeNode {
    prev: u32,
    sub: u32,
    lo: u32,
    hi: u32,
}

/// A tape, held by value: the records of node `nodes` (if any) followed by
/// `log[lo..hi]`. Copying a `Tape` shares it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tape {
    nodes: u32,
    lo: u32,
    hi: u32,
}

impl Tape {
    pub(crate) const EMPTY: Tape = Tape { nodes: NIL, lo: 0, hi: 0 };

    pub(crate) fn is_empty(&self) -> bool {
        self.nodes == NIL && self.lo == self.hi
    }
}

/// The shared output tape of one chunk: every match is written **once** to
/// `log` (document order); execution paths hold [`Tape`]s, and provenance
/// moves by copying those, never by copying matches.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutputTape {
    pub(crate) log: Vec<ChunkMatch>,
    nodes: Vec<TapeNode>,
}

impl OutputTape {
    /// Appends `records` to the log; the tape holding just them.
    pub(crate) fn record(&mut self, records: impl Iterator<Item = ChunkMatch>) -> Tape {
        let lo = self.log.len() as u32;
        self.log.extend(records);
        Tape { nodes: NIL, lo, hi: self.log.len() as u32 }
    }

    /// Drops the spare capacity growing left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.log.shrink_to_fit();
        self.nodes.shrink_to_fit();
    }

    /// The tape `a` followed by the tape `b`; O(1), both stay shared. While
    /// one path's records are adjacent in the log its tape stays one range.
    pub(crate) fn then(&mut self, a: Tape, b: Tape) -> Tape {
        if a.is_empty() || b.is_empty() {
            return if b.is_empty() { a } else { b };
        }
        let a_bare = a.lo == a.hi;
        if b.nodes == NIL && (a_bare || a.hi == b.lo) {
            return Tape { nodes: a.nodes, lo: if a_bare { b.lo } else { a.lo }, hi: b.hi };
        }
        // Freeze `a`'s range into a node, then put `b`'s nodes after it.
        let mut nodes = a.nodes;
        if !a_bare {
            nodes = self.push(TapeNode { prev: nodes, sub: NIL, lo: a.lo, hi: a.hi });
        }
        if b.nodes != NIL {
            nodes = self.push(TapeNode { prev: nodes, sub: b.nodes, lo: 0, hi: 0 });
        }
        Tape { nodes, ..b }
    }

    fn push(&mut self, node: TapeNode) -> u32 {
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    /// Appends the records of `tape` to `out`, in time order.
    pub(crate) fn collect(&self, tape: Tape, out: &mut Vec<ChunkMatch>) {
        // Visit latest-first (own range, `sub`, `prev`), then replay reversed.
        let (mut todo, mut ranges) = (vec![tape.nodes], vec![(tape.lo, tape.hi)]);
        while let Some(mut h) = todo.pop() {
            while h != NIL {
                let n = self.nodes[h as usize];
                ranges.push((n.lo, n.hi));
                h = n.prev;
                if n.sub != NIL {
                    todo.push(n.prev);
                    h = n.sub;
                }
            }
        }
        out.reserve(ranges.iter().map(|&(lo, hi)| (hi - lo) as usize).sum());
        for (lo, hi) in ranges.into_iter().rev() {
            out.extend_from_slice(&self.log[lo as usize..hi as usize]);
        }
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.log.len() * std::mem::size_of::<ChunkMatch>()
            + self.nodes.len() * std::mem::size_of::<TapeNode>()
    }
}

/// One entry of a [`ChunkMapping`]: states, an offset into the pooled stacks
/// and a shared tape instead of an owned output vector.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompactEntry {
    pub(crate) start_state: StateId,
    pub(crate) finish_state: StateId,
    /// Offset of this entry's `start_len + finish_len` stack symbols.
    pub(crate) stacks: u32,
    pub(crate) tape: Tape,
}

/// The compact result of one chunk: the same set of entries as a [`Mapping`],
/// but every match stored once on a shared tape. All entries of a chunk
/// consumed the same events, so their stack lengths are stored once; entries
/// are sorted by start state, which is the join's index.
#[derive(Debug, Clone, Default)]
pub struct ChunkMapping {
    entries: Vec<CompactEntry>,
    stacks: Vec<StateId>,
    /// Symbols every entry pops from the pre-chunk stack, and leaves pushed.
    pub(crate) start_len: usize,
    finish_len: usize,
    tape: OutputTape,
}

impl ChunkMapping {
    pub(crate) fn new(
        mut entries: Vec<CompactEntry>,
        stacks: Vec<StateId>,
        start_len: usize,
        finish_len: usize,
        tape: OutputTape,
    ) -> ChunkMapping {
        entries.sort_unstable_by_key(|e| e.start_state);
        ChunkMapping { entries, stacks, start_len, finish_len, tape }
    }

    /// The one entry of an in-order chunk: the path that started in `start`
    /// (popping `start_stack`, first popped first) finishes in `finish` with
    /// `finish_stack` pushed, having emitted `log` in document order.
    pub(crate) fn single(
        start: StateId,
        start_stack: &[StateId],
        finish: StateId,
        finish_stack: &[StateId],
        log: Vec<ChunkMatch>,
    ) -> ChunkMapping {
        let tape = Tape { nodes: NIL, lo: 0, hi: log.len() as u32 };
        let entry = CompactEntry { start_state: start, finish_state: finish, stacks: 0, tape };
        ChunkMapping {
            entries: vec![entry],
            stacks: [start_stack, finish_stack].concat(),
            start_len: start_stack.len(),
            finish_len: finish_stack.len(),
            tape: OutputTape { log, nodes: Vec::new() },
        }
    }

    /// Carries a path that stands in `state` with `stack` (top last) before
    /// this chunk across it: pops and pushes `stack` in place and returns the
    /// entry it took, or `None` — leaving `stack` untouched — when the chunk
    /// pops deeper than `stack` or no entry starts there (the path is lost).
    pub(crate) fn follow(&self, state: StateId, stack: &mut Vec<StateId>) -> Option<&CompactEntry> {
        // The entry that unifies with the path: same start state, and its
        // start stack (first popped first) is the top of `stack`.
        let kept = stack.len().checked_sub(self.start_len)?;
        let popped = stack[kept..].iter().rev();
        let e = self
            .entries_from(state)
            .iter()
            .find(|e| self.stacks_of(e).0.iter().eq(popped.clone()))?;
        stack.truncate(kept);
        stack.extend_from_slice(self.stacks_of(e).1);
        Some(e)
    }

    /// The state a path standing in `state` with `stack` is in after this
    /// chunk (`stack` updated in place), or `None` once the path is lost.
    pub fn exit_from(&self, state: StateId, stack: &mut Vec<StateId>) -> Option<StateId> {
        self.follow(state, stack).map(|e| e.finish_state)
    }

    /// Compacts a [`Mapping`] (the naive engine's result).
    pub fn from_mapping(m: &Mapping) -> ChunkMapping {
        let (mut tape, mut stacks) = (OutputTape::default(), Vec::new());
        let entries = m.entries.iter().map(|e| {
            let at = stacks.len() as u32;
            stacks.extend_from_slice(&e.start_stack);
            stacks.extend_from_slice(&e.finish_stack);
            CompactEntry {
                start_state: e.start_state,
                finish_state: e.finish_state,
                stacks: at,
                tape: tape.record(e.outputs.iter().copied()),
            }
        });
        let entries = entries.collect();
        let first = m.entries.first();
        let lens = first.map_or((0, 0), |e| (e.start_stack.len(), e.finish_stack.len()));
        ChunkMapping::new(entries, stacks, lens.0, lens.1, tape)
    }

    /// Materialises the [`Mapping`] this result stands for (tests, examples
    /// and benches; the join never does this).
    pub fn to_mapping(&self) -> Mapping {
        let entries = self.entries.iter().map(|e| {
            let (start_stack, finish_stack) = self.stacks_of(e);
            let mut outputs = Vec::new();
            self.tape.collect(e.tape, &mut outputs);
            MapEntry {
                start_state: e.start_state,
                start_stack: start_stack.to_vec(),
                finish_state: e.finish_state,
                finish_stack: finish_stack.to_vec(),
                outputs,
            }
        });
        Mapping { entries: entries.collect() }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no execution path survived the chunk.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Length of the match log: every record the chunk stored, for every
    /// execution path (compare with the matches the real path emits).
    pub fn match_records(&self) -> usize {
        self.tape.log.len()
    }

    /// The entries starting in state `q`.
    pub(crate) fn entries_from(&self, q: StateId) -> &[CompactEntry] {
        let lo = self.entries.partition_point(|e| e.start_state < q);
        let hi = self.entries.partition_point(|e| e.start_state <= q);
        &self.entries[lo..hi]
    }

    /// `(start stack, finish stack)` of `e`, in [`MapEntry`]'s conventions.
    pub(crate) fn stacks_of(&self, e: &CompactEntry) -> (&[StateId], &[StateId]) {
        self.stacks[e.stacks as usize..][..self.start_len + self.finish_len]
            .split_at(self.start_len)
    }

    /// Appends the output tape of `e` to `out`, in document order.
    pub(crate) fn collect_outputs(&self, e: &CompactEntry, out: &mut Vec<ChunkMatch>) {
        self.tape.collect(e.tape, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppt_automaton::Transducer;

    /// Builds the transducer of the paper's running example (Fig 3).
    fn paper() -> Transducer {
        Transducer::from_queries(&["/a/b/c"]).unwrap()
    }

    /// Symbol helper.
    fn sym(t: &Transducer, name: &str) -> Symbol {
        t.classify_name(name.as_bytes())
    }

    #[test]
    fn initial_and_identity_mappings() {
        let t = paper();
        let init = Mapping::initial(&t);
        assert_eq!(init.len(), 1);
        assert_eq!(init.entries[0].start_state, t.initial());
        assert_eq!(init.entries[0].finish_state, t.initial());

        let ident = Mapping::identity(&t);
        assert_eq!(ident.len(), t.num_states() as usize);
        for e in &ident.entries {
            assert_eq!(e.start_state, e.finish_state);
            assert!(e.start_stack.is_empty() && e.finish_stack.is_empty());
        }
    }

    #[test]
    fn first_chunk_produces_m1() {
        // Chunk 1 of the running example: <a><b><d></d></b>  (lines 1-4).
        // Expected mapping M1 = {(1, ε) → (2, [1], ε)}.
        let t = paper();
        let mut m = Mapping::initial(&t);
        let a = sym(&t, "a");
        let b = sym(&t, "b");
        let d = sym(&t, "d");
        m.step_open(&t, a, 0, 1);
        m.step_open(&t, b, 3, 2);
        m.step_open(&t, d, 6, 3);
        m.step_close(&t, d);
        m.step_close(&t, b);
        assert_eq!(m.len(), 1);
        let e = &m.entries[0];
        assert_eq!(e.start_state, t.initial());
        assert!(e.start_stack.is_empty());
        // Finish state = state after /a, finish stack = [initial].
        let s2 = t.step(t.initial(), a);
        assert_eq!(e.finish_state, s2);
        assert_eq!(e.finish_stack, vec![t.initial()]);
        assert!(e.outputs.is_empty());
    }

    #[test]
    fn second_chunk_produces_m5() {
        // Chunk 2 of the running example: <b><c></c></b></a>  (lines 5-8).
        // Expected M5 (in the paper's numbering):
        //   (0,[0])→(0,ε), (0,[2])→(2,ε), (0,[3])→(3,ε), (0,[4])→(4,ε),
        //   (2,[1])→(1,ε, output 1)
        let t = paper();
        let a = sym(&t, "a");
        let b = sym(&t, "b");
        let c = sym(&t, "c");
        let s1 = t.initial();
        let s2 = t.step(s1, a);
        let s3 = t.step(s2, b);
        let s4 = t.step(s3, c);
        let sink = t.step(s1, b);

        let mut m = Mapping::identity(&t);
        m.step_open(&t, b, 0, 1);
        m.step_open(&t, c, 3, 2);
        // M3 check: the entry starting in s2 must have produced the output.
        let m3_entry = m.entry_for_start(s2).unwrap();
        assert_eq!(m3_entry.finish_state, s4);
        assert_eq!(m3_entry.finish_stack, vec![s2, s3]);
        assert_eq!(m3_entry.outputs.len(), 1);

        m.step_close(&t, c);
        m.step_close(&t, b);
        // M4: identity again but the s2 entry carries the match.
        assert_eq!(m.len(), t.num_states() as usize);
        for e in &m.entries {
            assert_eq!(e.start_state, e.finish_state);
            assert!(e.finish_stack.is_empty());
        }
        assert_eq!(m.entry_for_start(s2).unwrap().outputs.len(), 1);

        m.step_close(&t, a);
        // M5: five entries.
        m.normalise();
        assert_eq!(m.len(), 5);
        // The entry that started in s2 popped the unknown symbol s1 and ends
        // in s1 carrying the output.
        let matched: Vec<&MapEntry> = m.entries.iter().filter(|e| e.start_state == s2).collect();
        assert_eq!(matched.len(), 1);
        assert_eq!(matched[0].start_stack, vec![s1]);
        assert_eq!(matched[0].finish_state, s1);
        assert!(matched[0].finish_stack.is_empty());
        assert_eq!(matched[0].outputs.len(), 1);
        // The sink-started entries fan out over states {sink, s3, s4, sink?}
        // — exactly the states with an `a` push into the sink.
        let from_sink: Vec<&MapEntry> =
            m.entries.iter().filter(|e| e.start_state == sink).collect();
        assert_eq!(from_sink.len(), 4);
        for e in &from_sink {
            assert_eq!(e.start_stack.len(), 1);
            assert_eq!(e.finish_state, e.start_stack[0]);
            assert!(e.outputs.is_empty());
        }
        // Entries that started in s1, s3 and s4 are discarded: no pop into
        // those states exists under </a>.
        assert!(m.entry_for_start(s1).is_none());
        assert!(!m.entries.iter().any(|e| e.start_state == s3));
        assert!(!m.entries.iter().any(|e| e.start_state == s4));
    }

    #[test]
    fn all_entries_share_stack_depths() {
        // Invariant used by the tree engine: because every entry processes the
        // same events, finishing-stack and starting-stack lengths are equal
        // across entries at all times.
        let t = Transducer::from_queries(&["/a/b/c", "//k"]).unwrap();
        let doc = b"<x><a><b><k/></b></a></x><a><b><c/></b></a>";
        let mut m = Mapping::identity(&t);
        let mut depth = 0i64;
        for ev in ppt_xmlstream::Lexer::tags_only(doc) {
            match ev {
                ppt_xmlstream::XmlEvent::Open { name, pos } => {
                    depth += 1;
                    m.step_open(&t, t.classify_name(name), pos, depth);
                }
                ppt_xmlstream::XmlEvent::Close { name, .. } => {
                    depth -= 1;
                    m.step_close(&t, t.classify_name(name));
                }
                _ => {}
            }
            let flens: Vec<usize> = m.entries.iter().map(|e| e.finish_stack.len()).collect();
            let slens: Vec<usize> = m.entries.iter().map(|e| e.start_stack.len()).collect();
            assert!(flens.windows(2).all(|w| w[0] == w[1]), "finish stacks diverged");
            assert!(slens.windows(2).all(|w| w[0] == w[1]), "start stacks diverged");
        }
    }

    #[test]
    fn convergence_reduces_distinct_finish_states() {
        // After a couple of nested opens, every starting state funnels into a
        // small number of finishing states.
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let mut m = Mapping::identity(&t);
        assert_eq!(m.distinct_finish_states(), t.num_states() as usize);
        m.step_open(&t, sym(&t, "x"), 0, 1);
        // Every state moves to the sink on an unknown element.
        assert_eq!(m.distinct_finish_states(), 1);
    }

    #[test]
    fn probe_records_matches_without_touching_state() {
        let t = Transducer::from_queries(&["/a/@id"]).unwrap();
        let mut m = Mapping::initial(&t);
        let a = sym(&t, "a");
        m.step_open(&t, a, 0, 1);
        let before: Vec<(StateId, usize)> =
            m.entries.iter().map(|e| (e.finish_state, e.finish_stack.len())).collect();
        let attr_sym = t.classify_attr(b"id").unwrap();
        m.step_probe(&t, attr_sym, 3, 2);
        let after: Vec<(StateId, usize)> =
            m.entries.iter().map(|e| (e.finish_state, e.finish_stack.len())).collect();
        assert_eq!(before, after);
        assert_eq!(m.entries[0].outputs.len(), 1);
    }

    #[test]
    fn malformed_chunk_discards_impossible_paths() {
        // A close tag for which no state has a pop transition in the current
        // configuration discards those entries rather than panicking.
        let t = paper();
        let mut m = Mapping::initial(&t);
        m.step_open(&t, sym(&t, "a"), 0, 1);
        // Closing `b` while the stack holds the state pushed for `a` is
        // inconsistent: t.step(initial, b) != state-after-a.
        m.step_close(&t, sym(&t, "b"));
        assert!(m.is_empty());
    }

    fn record(pos: usize) -> ChunkMatch {
        ChunkMatch { pos, end: usize::MAX, rel_depth: 1, subquery: 0 }
    }

    fn positions(tape: &OutputTape, t: Tape) -> Vec<usize> {
        let mut out = Vec::new();
        tape.collect(t, &mut out);
        out.iter().map(|m| m.pos).collect()
    }

    #[test]
    fn tapes_share_records_and_stay_one_range_while_adjacent() {
        let mut tape = OutputTape::default();
        let a = tape.record([record(1), record(2)].into_iter());
        let b = tape.record([record(3)].into_iter());
        let none = tape.record(std::iter::empty());
        // Adjacent in the log: still a bare range, no node needed.
        let ab = tape.then(a, b);
        assert_eq!(tape.then(ab, none).nodes, NIL);
        assert_eq!(tape.then(none, ab).nodes, NIL);
        assert_eq!(positions(&tape, ab), [1, 2, 3]);
        // Two paths diverge after `a`: each continues with its own record,
        // both share `a`'s, and neither sees the other's.
        let c = tape.record([record(4)].into_iter());
        let (left, right) = (tape.then(a, b), tape.then(a, c));
        assert_eq!(positions(&tape, left), [1, 2, 3]);
        assert_eq!(positions(&tape, right), [1, 2, 4]);
        // Concatenating whole tapes keeps time order and shares both.
        let both = tape.then(right, left);
        assert_eq!(positions(&tape, both), [1, 2, 4, 1, 2, 3]);
        let longer = tape.then(both, c);
        assert_eq!(positions(&tape, longer), [1, 2, 4, 1, 2, 3, 4]);
        assert_eq!(tape.log.len(), 4, "every record was written once");
    }

    #[test]
    fn compact_mapping_round_trips_and_indexes_by_start_state() {
        let t = Transducer::from_queries(&["/a/b/c", "//b"]).unwrap();
        let mut m = Mapping::identity(&t);
        m.step_open(&t, sym(&t, "b"), 0, 1);
        m.step_close(&t, sym(&t, "b"));
        m.step_close(&t, sym(&t, "a"));
        let compact = ChunkMapping::from_mapping(&m);
        assert_eq!(compact.len(), m.len());
        assert_eq!(compact.start_len, 1);
        let mut back = compact.to_mapping();
        back.normalise();
        m.normalise();
        assert_eq!(back, m);
        let outputs: usize = m.entries.iter().map(|e| e.outputs.len()).sum();
        assert_eq!(compact.match_records(), outputs);
        for q in 0..t.num_states() {
            let from_q = compact.entries_from(q);
            assert!(from_q.iter().all(|e| e.start_state == q));
            assert_eq!(from_q.len(), m.entries.iter().filter(|e| e.start_state == q).count());
        }
    }
}
