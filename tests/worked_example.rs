//! Reproduces the paper's worked example end to end (§2.2 Fig 1, §4.1 Fig 4):
//! the query `/a/b/c` over the eight-line document, split into the same two
//! chunks, producing the mappings M1–M5 and the final joined result.

use pp_xml::automaton::Transducer;
use pp_xml::core::chunk::{process_chunk, EngineKind};
use pp_xml::core::join::unify_mappings;
use pp_xml::core::{Engine, Mapping};

/// Fig 1a, with the line structure flattened.
const DOC: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";
/// Chunk 1 = lines 1–4, chunk 2 = lines 5–8.
const SPLIT: usize = 17;

#[test]
fn fig4_mappings_and_final_join() {
    let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
    // Paper state names: 1 = initial, 2 = after /a, 3 = after /a/b,
    // 4 = accepting, 0 = sink.
    let a = t.classify_name(b"a");
    let b = t.classify_name(b"b");
    let s1 = t.initial();
    let s2 = t.step(s1, a);
    let sink = t.step(s1, b);

    // M1: the first chunk, run from the single initial state.
    let first = process_chunk(&t, &DOC[..SPLIT], 0, 0, true, EngineKind::Tree, false);
    let m1 = &first.mapping.to_mapping();
    assert_eq!(m1.len(), 1);
    assert_eq!(m1.entries[0].start_state, s1);
    assert_eq!(m1.entries[0].finish_state, s2);
    assert_eq!(m1.entries[0].finish_stack, vec![s1]);
    assert!(m1.entries[0].outputs.is_empty());

    // M5: the second chunk, run from every possible starting state.
    let second = process_chunk(&t, &DOC[SPLIT..], SPLIT, 1, false, EngineKind::Tree, false);
    let m5 = &second.mapping.to_mapping();
    assert_eq!(m5.len(), 5, "M5 has five entries (Fig 4)");
    // Four entries start in the sink and fan out over the poppable states.
    assert_eq!(m5.entries.iter().filter(|e| e.start_state == sink).count(), 4);
    // Exactly one entry carries the query match: the one that started in
    // state 2 and popped the unknown symbol 1.
    let matched: Vec<_> = m5.entries.iter().filter(|e| !e.outputs.is_empty()).collect();
    assert_eq!(matched.len(), 1);
    assert_eq!(matched[0].start_state, s2);
    assert_eq!(matched[0].start_stack, vec![s1]);
    assert_eq!(matched[0].finish_state, s1);

    // Join: {(1, ε) → (1, ε, 1)} — the document matches the query once.
    let joined = unify_mappings(m1, m5);
    assert_eq!(joined.len(), 1);
    let e = &joined.entries[0];
    assert_eq!((e.start_state, e.finish_state), (s1, s1));
    assert!(e.start_stack.is_empty() && e.finish_stack.is_empty());
    assert_eq!(e.outputs.len(), 1);
    assert_eq!(&DOC[e.outputs[0].pos..e.outputs[0].pos + 3], b"<c>");
}

#[test]
fn naive_engine_reproduces_the_same_mappings() {
    let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
    for (range, first) in [(0..SPLIT, true), (SPLIT..DOC.len(), false)] {
        let tree =
            process_chunk(&t, &DOC[range.clone()], range.start, 0, first, EngineKind::Tree, false);
        let naive =
            process_chunk(&t, &DOC[range.clone()], range.start, 0, first, EngineKind::Naive, false);
        let mut a: Mapping = tree.mapping.to_mapping();
        let mut b: Mapping = naive.mapping.to_mapping();
        a.normalise();
        b.normalise();
        assert_eq!(a, b);
    }
}

#[test]
fn engine_facade_gives_the_same_answer_for_every_chunking() {
    for chunk_size in [1usize, 4, 7, 17, 100] {
        let engine = Engine::builder()
            .add_query("/a/b/c")
            .unwrap()
            .chunk_size(chunk_size)
            .threads(2)
            .build()
            .unwrap();
        let result = engine.run(DOC);
        assert_eq!(result.match_count(0), 1, "chunk size {chunk_size}");
        let m = result.matches(0)[0];
        assert_eq!(&DOC[m.start..m.end], b"<c></c>");
        assert_eq!(m.depth, 3);
    }
}
