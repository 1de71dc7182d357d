//! Unification of mappings (§4.1, Alg 2).
//!
//! Two map entries unify when (i) the finishing state of the first equals the
//! starting state of the second and (ii) the stacks are consistent: the
//! symbols the second chunk popped from its pre-existing stack must be exactly
//! the symbols the first chunk left on top of its finishing stack (rule 4,
//! applied recursively). When one side runs out first, the leftover carries
//! through to the unified entry (rules 1–3). Outputs concatenate in document
//! order. Pairs that cannot be unified are discarded (rule 5).

use crate::mapping::{ChunkMapping, ChunkMatch, MapEntry, Mapping};
use ppt_automaton::{StateId, Transducer};

/// Attempts to unify two entries, `first` describing the earlier part of the
/// stream and `second` the later part. Returns `None` when the pair cannot be
/// unified (rule 5).
pub fn unify_entries(first: &MapEntry, second: &MapEntry) -> Option<MapEntry> {
    // Condition (i): the first entry must finish in the state the second
    // started from.
    if first.finish_state != second.start_state {
        return None;
    }
    // Condition (ii) / rule 4: the second chunk pops symbols from the top of
    // the first chunk's leftover stack. `second.start_stack[0]` is the first
    // symbol it popped, which must be the top (= last element) of
    // `first.finish_stack`, and so on.
    let mut remaining_finish = first.finish_stack.clone();
    let mut consumed = 0usize;
    while consumed < second.start_stack.len() {
        match remaining_finish.pop() {
            Some(top) => {
                if top != second.start_stack[consumed] {
                    return None; // mismatching stack symbol
                }
                consumed += 1;
            }
            None => break, // the first chunk's stack is exhausted (rule 3)
        }
    }

    // Whatever the second chunk popped beyond the first chunk's pushes came
    // from before the first chunk: it extends the unified starting stack.
    let mut start_stack = first.start_stack.clone();
    start_stack.extend_from_slice(&second.start_stack[consumed..]);

    // The unified finishing stack: the second chunk's pushes on top of the
    // first chunk's surviving pushes.
    let mut finish_stack = remaining_finish;
    finish_stack.extend_from_slice(&second.finish_stack);

    let mut outputs = first.outputs.clone();
    outputs.extend_from_slice(&second.outputs);

    Some(MapEntry {
        start_state: first.start_state,
        start_stack,
        finish_state: second.finish_state,
        finish_stack,
        outputs,
    })
}

/// Unifies two mappings: the cross product of entries, keeping successful
/// unifications (`J` of §4.1).
pub fn unify_mappings(first: &Mapping, second: &Mapping) -> Mapping {
    let mut entries = Vec::new();
    for a in &first.entries {
        for b in &second.entries {
            if let Some(e) = unify_entries(a, b) {
                entries.push(e);
            }
        }
    }
    Mapping { entries }
}

/// What one [`PrefixFolder::fold`] step made final: the sub-query matches and
/// close-ladder events of the folded chunk, rebased to absolute depths.
#[derive(Debug, Clone, Default)]
pub struct FoldDelta {
    /// Newly-final matches of the real (initial-state) execution path, in
    /// document order, with `rel_depth` rebased to the absolute depth.
    pub matches: Vec<ChunkMatch>,
    /// The chunk's cross-chunk close events `(position after the closing tag,
    /// absolute depth after the close)`.
    pub ladder: Vec<(usize, i64)>,
}

impl FoldDelta {
    /// Drains the matches as [`crate::parallel::ResolvedMatch`]es (the
    /// canonical absolute-position form every consumer wants), clamping the
    /// rebased depth at zero exactly as the batch pipeline does.
    pub fn take_resolved_matches(&mut self) -> Vec<crate::parallel::ResolvedMatch> {
        std::mem::take(&mut self.matches)
            .into_iter()
            .map(|m| crate::parallel::ResolvedMatch {
                pos: m.pos,
                end: m.end,
                depth: m.rel_depth.max(0) as u32,
                subquery: m.subquery,
            })
            .collect()
    }
}

/// Eager left-fold of per-chunk mappings (§4.1's `J`, applied incrementally).
///
/// The batch formulation unifies whole mappings and selects the execution
/// path that started in the initial state only at the very end. For an
/// *unbounded* stream that is not an option: the accumulated output tape
/// would grow with the stream. `PrefixFolder` exploits that the entry keyed
/// `(initial state, empty stack)` is unique in the accumulated mapping (the
/// transducer is deterministic, and which stack depth a chunk pops below is a
/// function of the tag structure alone) and that unification only ever
/// *appends* to its output tape — so it keeps exactly that one entry, the
/// resolved state and stack of the folded prefix, and each
/// [`PrefixFolder::fold`] looks up the single chunk entry that unifies with
/// it, pops and pushes the stack in place and drains only that entry's tape.
/// The state is `O(depth)` and a fold `O(entries with that start state)`;
/// [`unify_mappings`] remains the specification this is tested against.
///
/// **Underflow.** A chunk that pops deeper than the prefix stack (stray
/// closing tags) or has no entry for the prefix leaves no `(q₀, ε)` path: the
/// path is lost and no later fold emits a match, exactly as the unified
/// mapping would then hold no such entry. Depth and ladder keep flowing.
#[derive(Debug)]
pub struct PrefixFolder {
    /// Finishing state and stack (top at the end) of the `(q₀, ε)` entry
    /// after the folded prefix; `None` once the path is lost.
    resolved: Option<(StateId, Vec<StateId>)>,
    /// Absolute element depth at the end of the folded prefix.
    depth: i64,
    chunks: usize,
}

impl PrefixFolder {
    /// Creates a folder for streams processed by `transducer`.
    pub fn new(transducer: &Transducer) -> PrefixFolder {
        PrefixFolder::resume(transducer, std::iter::empty(), 0)
    }

    /// Creates a folder whose state is what [`PrefixFolder::new`] +folding the
    /// already-consumed prefix *would* have produced under `transducer`, given
    /// only the prefix's open-tag path (outermost first).
    ///
    /// This is the mid-stream engine-swap primitive of the subscription layer:
    /// because the transducer is deterministic and pops always restore the
    /// pushed state, the `(initial, ε)` entry after any prefix is a pure
    /// function of the still-open tag path — so a *new* (merged) transducer
    /// can take over an in-flight stream by replaying that path alone. Matches
    /// completed by the prefix are deliberately not reconstructed, which gives
    /// attach-time semantics (a subscriber sees matches whose element opens at
    /// or after the swap point).
    ///
    /// `chunks` seeds the folded-chunk counter (purely informational).
    pub fn resume<'a, I>(transducer: &Transducer, open_path: I, chunks: usize) -> PrefixFolder
    where
        I: IntoIterator<Item = &'a [u8]>,
    {
        let mut state = transducer.initial();
        let mut stack: Vec<StateId> = Vec::new();
        for name in open_path {
            stack.push(state);
            state = transducer.step(state, transducer.classify_name(name));
        }
        let depth = stack.len() as i64;
        PrefixFolder { resolved: Some((state, stack)), depth, chunks }
    }

    /// Absolute element depth at the end of the folded prefix.
    pub fn depth(&self) -> i64 {
        self.depth
    }

    /// Number of chunks folded so far.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Finishing state and stack (top last) of the real execution path after
    /// the folded prefix; `None` once it is lost (see the type's docs).
    pub fn resolved(&self) -> Option<(StateId, &[StateId])> {
        self.resolved.as_ref().map(|(state, stack)| (*state, stack.as_slice()))
    }

    /// Folds the next **in-order** chunk's output into the resolved entry.
    /// `mapping`, `depth_delta` and `ladder` are the fields of a
    /// [`crate::chunk::ChunkOutput`] (matches carry chunk-relative depths; the
    /// very first chunk must have been processed with `is_first = true`).
    ///
    /// Returns the matches this fold made final, already rebased to absolute
    /// depths, and the rebased ladder events.
    pub fn fold(
        &mut self,
        mapping: ChunkMapping,
        depth_delta: i64,
        mut ladder: Vec<(usize, i64)>,
    ) -> FoldDelta {
        let mut matches = Vec::new();
        if let Some((state, mut stack)) = self.resolved.take() {
            if let Some(e) = mapping.follow(state, &mut stack) {
                mapping.collect_outputs(e, &mut matches);
                self.resolved = Some((e.finish_state, stack));
            }
        }
        // Rebase chunk-relative depths to absolute stream depths.
        matches.iter_mut().for_each(|m| m.rel_depth += self.depth);
        ladder.iter_mut().for_each(|(_, rel_after)| *rel_after += self.depth);
        self.depth += depth_delta;
        self.chunks += 1;
        FoldDelta { matches, ladder }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{ChunkMatch, Mapping};
    use ppt_automaton::Transducer;
    use ppt_xmlstream::Symbol;

    fn entry(qs: u32, zs: &[u32], qf: u32, zf: &[u32], outs: usize) -> MapEntry {
        MapEntry {
            start_state: qs,
            start_stack: zs.to_vec(),
            finish_state: qf,
            finish_stack: zf.to_vec(),
            outputs: (0..outs)
                .map(|i| ChunkMatch { pos: i, end: usize::MAX, rel_depth: 1, subquery: 0 })
                .collect(),
        }
    }

    #[test]
    fn rule1_no_stacks() {
        // j((qs, zs, q, ε, o1), (q, ε, qf, zf, o2)) with empty stacks.
        let a = entry(1, &[], 2, &[], 1);
        let b = entry(2, &[], 3, &[], 2);
        let u = unify_entries(&a, &b).unwrap();
        assert_eq!(u.start_state, 1);
        assert_eq!(u.finish_state, 3);
        assert!(u.start_stack.is_empty() && u.finish_stack.is_empty());
        assert_eq!(u.outputs.len(), 3);
    }

    #[test]
    fn rule2_first_entry_keeps_its_finish_stack() {
        // First chunk left [7, 8] on the stack (8 on top); second chunk never
        // touched it.
        let a = entry(1, &[], 2, &[7, 8], 0);
        let b = entry(2, &[], 3, &[9], 0);
        let u = unify_entries(&a, &b).unwrap();
        assert_eq!(u.finish_stack, vec![7, 8, 9], "second chunk's pushes sit on top");
        assert!(u.start_stack.is_empty());
    }

    #[test]
    fn rule3_second_entry_extends_the_start_stack() {
        // The second chunk popped deeper than the first chunk pushed.
        let a = entry(1, &[5], 2, &[], 0);
        let b = entry(2, &[6, 7], 3, &[], 0);
        let u = unify_entries(&a, &b).unwrap();
        assert_eq!(u.start_stack, vec![5, 6, 7]);
        assert!(u.finish_stack.is_empty());
    }

    #[test]
    fn rule4_common_symbols_cancel() {
        // First chunk pushed [3, 4] (4 on top); second chunk popped 4 then 3
        // and then one more unknown symbol 9.
        let a = entry(1, &[], 2, &[3, 4], 0);
        let b = entry(2, &[4, 3, 9], 5, &[6], 0);
        let u = unify_entries(&a, &b).unwrap();
        assert_eq!(u.start_stack, vec![9]);
        assert_eq!(u.finish_stack, vec![6]);
        assert_eq!(u.finish_state, 5);
    }

    #[test]
    fn rule5_failures() {
        // Mismatching states.
        assert!(unify_entries(&entry(1, &[], 2, &[], 0), &entry(3, &[], 4, &[], 0)).is_none());
        // Mismatching stack symbols: first pushed 3 on top but second popped 4.
        assert!(unify_entries(&entry(1, &[], 2, &[3], 0), &entry(2, &[4], 5, &[], 0)).is_none());
    }

    #[test]
    fn outputs_concatenate_in_order() {
        let mut a = entry(1, &[], 2, &[], 0);
        a.outputs.push(ChunkMatch { pos: 10, end: usize::MAX, rel_depth: 1, subquery: 0 });
        let mut b = entry(2, &[], 3, &[], 0);
        b.outputs.push(ChunkMatch { pos: 20, end: usize::MAX, rel_depth: 1, subquery: 1 });
        let u = unify_entries(&a, &b).unwrap();
        assert_eq!(u.outputs.iter().map(|m| m.pos).collect::<Vec<_>>(), vec![10, 20]);
    }

    #[test]
    fn paper_worked_example_m1_joined_with_m5() {
        // Reproduces the end of §4.1: joining M1 with M5 yields the single
        // entry {(1, ε) → (1, ε, 1)} — the document matches /a/b/c once.
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let sym = |n: &str| -> Symbol { t.classify_name(n.as_bytes()) };
        let chunk1 = b"<a><b><d></d></b>";
        let chunk2 = b"<b><c></c></b></a>";

        let mut m1 = Mapping::initial(&t);
        let mut depth = 0i64;
        for ev in ppt_xmlstream::Lexer::tags_only(chunk1) {
            match ev {
                ppt_xmlstream::XmlEvent::Open { name, pos } => {
                    depth += 1;
                    m1.step_open(&t, sym(std::str::from_utf8(name).unwrap()), pos, depth);
                }
                ppt_xmlstream::XmlEvent::Close { name, .. } => {
                    depth -= 1;
                    m1.step_close(&t, sym(std::str::from_utf8(name).unwrap()));
                }
                _ => {}
            }
        }
        let mut m5 = Mapping::identity(&t);
        for ev in ppt_xmlstream::Lexer::tags_only(chunk2) {
            match ev {
                ppt_xmlstream::XmlEvent::Open { name, pos } => {
                    m5.step_open(&t, sym(std::str::from_utf8(name).unwrap()), pos, 0);
                }
                ppt_xmlstream::XmlEvent::Close { name, .. } => {
                    m5.step_close(&t, sym(std::str::from_utf8(name).unwrap()));
                }
                _ => {}
            }
        }

        let joined = unify_mappings(&m1, &m5);
        assert_eq!(joined.len(), 1, "exactly one execution path is consistent");
        let e = &joined.entries[0];
        assert_eq!(e.start_state, t.initial());
        assert_eq!(e.finish_state, t.initial());
        assert!(e.start_stack.is_empty() && e.finish_stack.is_empty());
        assert_eq!(e.outputs.len(), 1, "the single /a/b/c match survives the join");
    }

    #[test]
    fn prefix_folder_drains_matches_incrementally() {
        use crate::chunk::{process_chunk, EngineKind};
        let t = Transducer::from_queries(&["/a/b", "//d"]).unwrap();
        let doc: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";
        // Split at every '<' position: many tiny chunks.
        let cuts: Vec<usize> =
            doc.iter().enumerate().filter(|(_, &b)| b == b'<').map(|(i, _)| i).collect();
        let mut folder = PrefixFolder::new(&t);
        let mut drained: Vec<(usize, u32, i64)> = Vec::new();
        let mut bounds = cuts.clone();
        bounds.push(doc.len());
        for (index, w) in bounds.windows(2).enumerate() {
            let out = process_chunk(
                &t,
                &doc[w[0]..w[1]],
                w[0],
                index,
                index == 0,
                EngineKind::Tree,
                false,
            );
            let delta = folder.fold(out.mapping, out.depth_delta, out.ladder);
            drained.extend(delta.matches.iter().map(|m| (m.pos, m.subquery, m.rel_depth)));
        }
        let expected: Vec<(usize, u32, i64)> = ppt_automaton::run_sequential(&t, doc)
            .iter()
            .map(|m| (m.pos, m.subquery, m.depth as i64))
            .collect();
        assert_eq!(drained, expected, "incremental drains equal the in-order run");
        assert_eq!(folder.depth(), 0, "well-formed document returns to depth 0");
        // What is left is the resolved entry: back in the initial state.
        assert_eq!(folder.resolved(), Some((t.initial(), &[][..])));
    }

    #[test]
    fn prefix_folder_rebases_ladder_events() {
        use crate::chunk::{process_chunk, EngineKind};
        let t = Transducer::from_queries(&["/a"]).unwrap();
        let doc: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";
        let split = 17; // the '<' of the second <b>
        let mut folder = PrefixFolder::new(&t);
        let first = process_chunk(&t, &doc[..split], 0, 0, true, EngineKind::Tree, true);
        let d1 = folder.fold(first.mapping, first.depth_delta, first.ladder);
        assert!(d1.ladder.is_empty());
        assert_eq!(folder.depth(), 1, "<a> is still open");
        let second = process_chunk(&t, &doc[split..], split, 1, false, EngineKind::Tree, true);
        let d2 = folder.fold(second.mapping, second.depth_delta, second.ladder);
        // </a> closes an element opened in the first chunk: one ladder event at
        // the end of the document, returning to absolute depth 0.
        assert_eq!(d2.ladder, vec![(doc.len(), 0)]);
    }

    #[test]
    fn resumed_folder_equals_a_folder_that_saw_the_prefix() {
        use crate::chunk::{process_chunk, EngineKind};
        let t = Transducer::from_queries(&["/a/b", "//d", "//b/c"]).unwrap();
        let doc: &[u8] = b"<a><b><d></d></b><b><c></c></b><d></d></a>";
        let split = 17; // the '<' of the second <b>; open path is [a]
        let resume_path: Vec<&[u8]> = vec![b"a"];

        let mut resumed = PrefixFolder::resume(&t, resume_path.iter().copied(), 1);
        assert_eq!(resumed.depth(), 1);
        assert_eq!(resumed.chunks(), 1);

        // Fold the suffix into the resumed folder; it must drain exactly the
        // sequential matches whose opening tag sits at/after the split.
        let out = process_chunk(&t, &doc[split..], split, 1, false, EngineKind::Tree, false);
        let delta = resumed.fold(out.mapping, out.depth_delta, out.ladder);
        let drained: Vec<(usize, u32, i64)> =
            delta.matches.iter().map(|m| (m.pos, m.subquery, m.rel_depth)).collect();
        let expected: Vec<(usize, u32, i64)> = ppt_automaton::run_sequential(&t, doc)
            .iter()
            .filter(|m| m.pos >= split)
            .map(|m| (m.pos, m.subquery, m.depth as i64))
            .collect();
        assert!(!expected.is_empty());
        assert_eq!(drained, expected);
        assert_eq!(resumed.depth(), 0, "suffix closes the document");
    }

    #[test]
    fn a_chunk_popping_below_the_prefix_stack_loses_the_path_for_good() {
        use crate::chunk::{process_chunk, EngineKind};
        let t = Transducer::from_queries(&["//a"]).unwrap();
        // A stray `</a>` opens the second chunk: it pops deeper than the
        // prefix pushed.
        let doc: &[u8] = b"<a></a></a><a></a><a></a>";
        let mut folder = PrefixFolder::new(&t);
        let mut drained = Vec::new();
        for (index, range) in [0..7, 7..18, 18..25].into_iter().enumerate() {
            let (slice, first) = (&doc[range.clone()], index == 0);
            let out = process_chunk(&t, slice, range.start, index, first, EngineKind::Tree, true);
            let delta = folder.fold(out.mapping, out.depth_delta, out.ladder);
            drained.push((delta.matches.len(), delta.ladder, folder.resolved().is_some()));
        }
        // As with `unify_mappings`, whose result then has no `(q₀, ε)` entry:
        // nothing is emitted from the underflow on, though the later chunks
        // are well-formed; depth and ladder keep flowing.
        assert_eq!(drained, [(1, vec![], true), (0, vec![(11, -1)], false), (0, vec![], false)]);
        assert_eq!(folder.depth(), -1);
        assert_eq!(folder.chunks(), 3);
    }

    #[test]
    fn resume_with_empty_path_matches_a_fresh_folder_semantics() {
        use crate::chunk::{process_chunk, EngineKind};
        let t = Transducer::from_queries(&["/a/b"]).unwrap();
        let doc: &[u8] = b"<a><b></b></a>";
        let out = process_chunk(&t, doc, 0, 0, true, EngineKind::Tree, false);
        let mut fresh = PrefixFolder::new(&t);
        let from_fresh = fresh.fold(out.mapping.clone(), out.depth_delta, out.ladder.clone());
        let mut resumed = PrefixFolder::resume(&t, std::iter::empty(), 0);
        let from_resumed = resumed.fold(out.mapping, out.depth_delta, out.ladder);
        let key = |d: &FoldDelta| {
            d.matches.iter().map(|m| (m.pos, m.subquery, m.rel_depth)).collect::<Vec<_>>()
        };
        assert_eq!(key(&from_fresh), key(&from_resumed));
        assert_eq!(from_fresh.ladder, from_resumed.ladder);
    }

    #[test]
    fn unify_mappings_is_associative_on_the_example() {
        // Splitting <a><b/><b><c/></b></a> at two different points and joining
        // in either association order yields the same final mapping.
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let doc = b"<a><b></b><b><c></c></b></a>";
        let run = |bytes: &[u8], first: bool| -> Mapping {
            let mut m = if first { Mapping::initial(&t) } else { Mapping::identity(&t) };
            for ev in ppt_xmlstream::Lexer::tags_only(bytes) {
                match ev {
                    ppt_xmlstream::XmlEvent::Open { name, pos } => {
                        m.step_open(&t, t.classify_name(name), pos, 0);
                    }
                    ppt_xmlstream::XmlEvent::Close { name, .. } => {
                        m.step_close(&t, t.classify_name(name));
                    }
                    _ => {}
                }
            }
            m
        };
        // Chunk boundaries fall on '<' positions, as the split phase
        // guarantees.
        let a = run(&doc[..6], true);
        let b = run(&doc[6..13], false);
        let c = run(&doc[13..], false);
        let mut left = unify_mappings(&unify_mappings(&a, &b), &c);
        let mut right = unify_mappings(&a, &unify_mappings(&b, &c));
        left.normalise();
        right.normalise();
        assert_eq!(left, right);
        assert_eq!(left.len(), 1);
        assert_eq!(left.entries[0].outputs.len(), 1);
    }
}
