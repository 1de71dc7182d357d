//! Property-based tests of the core invariants:
//!
//! 1. **Split invariance** — splitting the stream at *any* byte boundaries and
//!    processing the chunks out of order yields exactly the matches of a
//!    sequential in-order run (the paper's central correctness claim).
//! 2. **Engine equivalence** — the double-tree engine's compact result
//!    materialises to exactly the naive engine's mapping (entries, stacks and
//!    per-entry outputs) on arbitrary chunks, including stray closes and tag
//!    soup.
//! 3. **Unification is associative** with respect to chunk boundaries.
//! 4. **Generated documents are well-formed** and the lexer's event stream is
//!    balanced on them.
//! 5. **The single-entry join is the left fold of `unify_mappings`** — it
//!    drains what the `(q₀, ε)` entry of the unified mapping holds, fold by
//!    fold, also after `PrefixFolder::resume` and across a stack underflow.
//! 6. **Regression bounds** on the Treebank-256-query sample: every match is
//!    stored a bounded number of times, and the work measure is unchanged.

use pp_xml::automaton::{run_sequential, Transducer};
use pp_xml::core::chunk::{process_chunk, EngineKind};
use pp_xml::core::join::{unify_mappings, PrefixFolder};
use pp_xml::core::{ChunkMatch, Engine, EngineConfig, MapEntry, Mapping};
use pp_xml::xmlstream::{Lexer, XmlEvent};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// Strategy: a small random XML document over a fixed tag vocabulary, plus a
/// flag per element for self-closing form. Always well-formed.
fn arb_document() -> impl Strategy<Value = Vec<u8>> {
    // A recursive tree of (tag index, children).
    #[derive(Debug, Clone)]
    struct Node {
        tag: usize,
        text: bool,
        children: Vec<Node>,
    }
    fn node_strategy() -> impl Strategy<Value = Node> {
        let leaf =
            (0usize..6, any::<bool>()).prop_map(|(tag, text)| Node { tag, text, children: vec![] });
        leaf.prop_recursive(4, 24, 4, |inner| {
            (0usize..6, any::<bool>(), prop::collection::vec(inner, 0..4))
                .prop_map(|(tag, text, children)| Node { tag, text, children })
        })
    }
    fn render(node: &Node, out: &mut Vec<u8>) {
        const TAGS: &[&str] = &["a", "b", "c", "d", "k", "li"];
        let tag = TAGS[node.tag % TAGS.len()];
        out.extend_from_slice(format!("<{tag}>").as_bytes());
        if node.text {
            out.extend_from_slice(b"text content");
        }
        for c in &node.children {
            render(c, out);
        }
        out.extend_from_slice(format!("</{tag}>").as_bytes());
    }
    node_strategy().prop_map(|root| {
        let mut out = Vec::new();
        render(&root, &mut out);
        out
    })
}

/// Strategy: a small set of queries over the same vocabulary.
fn arb_queries() -> impl Strategy<Value = Vec<&'static str>> {
    const POOL: &[&str] = &[
        "/a/b",
        "/a/b/c",
        "//c",
        "//k",
        "/a//d",
        "//b/*",
        "//li/k",
        "/a/b[c]/d",
        "//a[k]/b",
        "//b//c",
    ];
    prop::collection::vec(prop::sample::select(POOL), 1..4).prop_map(|mut qs| {
        qs.dedup();
        qs
    })
}

/// Strategy: tag soup over the same vocabulary — opening, closing and
/// self-closing tags in any order, so chunks of it pop below their start,
/// close what was never opened and leave elements open.
fn arb_tag_soup() -> impl Strategy<Value = Vec<u8>> {
    const TAGS: &[&str] = &["a", "b", "c", "d", "k", "li"];
    prop::collection::vec((0usize..6, 0usize..5), 1..40).prop_map(|tags| {
        let mut out = Vec::new();
        for (tag, form) in tags {
            let tag = TAGS[tag];
            out.extend_from_slice(
                match form {
                    0 | 1 => format!("<{tag}>"),
                    2 | 3 => format!("</{tag}>"),
                    _ => format!("<{tag}/>text"),
                }
                .as_bytes(),
            );
        }
        out
    })
}

/// Offsets of every `<` in `doc`, plus its length: the legal chunk bounds.
fn tag_bounds(doc: &[u8]) -> Vec<usize> {
    let mut bounds: Vec<usize> =
        doc.iter().enumerate().filter(|(_, &b)| b == b'<').map(|(i, _)| i).collect();
    bounds.push(doc.len());
    bounds
}

/// Picks up to `ways - 1` interior cut points among `bounds` from `picks`.
fn cut_points(bounds: &[usize], ways: usize, picks: &[f64]) -> Vec<usize> {
    let mut cuts: Vec<usize> = picks
        .iter()
        .take(ways - 1)
        .map(|p| bounds[(p * (bounds.len() - 1) as f64) as usize])
        .collect();
    cuts.extend([bounds[0], *bounds.last().unwrap()]);
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// The join as §4.1 specifies it (and as `PrefixFolder` ran before it kept a
/// single entry): left-fold `unify_mappings`, then drain the `(q₀, ε)` entry.
struct SpecFolder {
    initial: u32,
    accumulated: Option<Mapping>,
    depth: i64,
}

impl SpecFolder {
    fn fold(
        &mut self,
        mut mapping: Mapping,
        depth_delta: i64,
        ladder: &[(usize, i64)],
    ) -> (Vec<ChunkMatch>, Vec<(usize, i64)>) {
        for m in mapping.entries.iter_mut().flat_map(|e| &mut e.outputs) {
            m.rel_depth += self.depth;
        }
        let ladder = ladder.iter().map(|&(pos, after)| (pos, after + self.depth)).collect();
        self.depth += depth_delta;
        let unified = match self.accumulated.take() {
            None => mapping,
            Some(acc) => unify_mappings(&acc, &mapping),
        };
        let acc = self.accumulated.insert(unified);
        let real = acc
            .entries
            .iter_mut()
            .find(|e| e.start_state == self.initial && e.start_stack.is_empty());
        (real.map(|e| std::mem::take(&mut e.outputs)).unwrap_or_default(), ladder)
    }
}

/// Folds the chunks `doc[cuts[i]..cuts[i + 1]]` through both joins and checks
/// that they drain the same matches and ladder at every fold.
fn check_fold_against_spec(
    t: &Transducer,
    doc: &[u8],
    cuts: &[usize],
    mut folder: PrefixFolder,
    mut spec: SpecFolder,
    first_is_stream_start: bool,
) -> Result<(), TestCaseError> {
    for (index, w) in cuts.windows(2).enumerate() {
        let first = first_is_stream_start && index == 0;
        let out = process_chunk(t, &doc[w[0]..w[1]], w[0], index, first, EngineKind::Tree, true);
        let expected = spec.fold(out.mapping.to_mapping(), out.depth_delta, &out.ladder);
        let delta = folder.fold(out.mapping, out.depth_delta, out.ladder);
        prop_assert_eq!(&delta.matches, &expected.0, "matches drained by fold {}", index);
        prop_assert_eq!(&delta.ladder, &expected.1, "ladder of fold {}", index);
        prop_assert_eq!(folder.depth(), spec.depth);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parallel_matches_sequential_for_any_chunk_size(
        doc in arb_document(),
        queries in arb_queries(),
        chunk_size in 1usize..64,
        threads in 1usize..4,
    ) {
        let engine = Engine::with_config(
            &queries,
            EngineConfig {
                chunk_size,
                threads: Some(threads),
                ..EngineConfig::default()
            },
        ).unwrap();
        let parallel = engine.run(&doc);
        let sequential = engine.run_sequential(&doc);
        prop_assert_eq!(&parallel.query_matches, &sequential.query_matches);
        prop_assert_eq!(&parallel.submatch_counts, &sequential.submatch_counts);
    }

    #[test]
    fn subquery_matches_equal_the_inorder_automaton(
        doc in arb_document(),
        queries in arb_queries(),
        chunk_size in 1usize..48,
    ) {
        // Compare at the sub-query level (positions included), bypassing the
        // filter phase.
        let engine = Engine::with_config(
            &queries,
            EngineConfig { chunk_size, threads: Some(2), ..EngineConfig::default() },
        ).unwrap();
        let t = engine.transducer();
        let expected: Vec<(usize, u32)> =
            run_sequential(t, &doc).iter().map(|m| (m.pos, m.subquery)).collect();
        let got = pp_xml::core::run_parallel(
            t,
            &doc,
            pp_xml::core::ParallelConfig {
                chunk_size,
                threads: Some(2),
                ..Default::default()
            },
        ).0;
        let got: Vec<(usize, u32)> = got.iter().map(|m| (m.pos, m.subquery)).collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn tree_and_naive_engines_agree_on_arbitrary_chunks(
        doc in arb_document(),
        soup in arb_tag_soup(),
        queries in arb_queries(),
        from in 0.0f64..1.0,
        to in 0.0f64..1.0,
        first in any::<bool>(),
    ) {
        // Any tag-aligned slice of a document (unmatched closes in front,
        // unclosed elements behind) and of tag soup; as a first chunk too.
        let t = Transducer::from_queries(&queries).unwrap();
        for input in [&doc, &soup] {
            let bounds = tag_bounds(input);
            let cuts = cut_points(&bounds, 3, &[from, to]);
            let (start, end) = (cuts[cuts.len() / 2 - 1], cuts[cuts.len() / 2]);
            let chunk = &input[start..end];
            let a = process_chunk(&t, chunk, start, 0, first, EngineKind::Tree, true);
            let b = process_chunk(&t, chunk, start, 0, first, EngineKind::Naive, true);
            let (mut ma, mut mb) = (a.mapping.to_mapping(), b.mapping.to_mapping());
            ma.normalise();
            mb.normalise();
            // Entries, both stacks and every entry's output tape (spans too).
            prop_assert_eq!(ma, mb);
            prop_assert_eq!(a.mapping.len(), b.mapping.len());
            prop_assert_eq!((a.depth_delta, &a.ladder), (b.depth_delta, &b.ladder));
        }
    }

    #[test]
    fn single_entry_fold_drains_what_the_unified_mapping_holds(
        doc in arb_document(),
        soup in arb_tag_soup(),
        queries in arb_queries(),
        ways in 1usize..17,
        picks in prop::collection::vec(0.0f64..1.0, 16..17),
    ) {
        let t = Transducer::from_queries(&queries).unwrap();
        // Well-formed input, then tag soup: stray closes make a chunk pop
        // deeper than the prefix stack, after which both joins stay silent.
        for input in [&doc, &soup] {
            let cuts = cut_points(&tag_bounds(input), ways, &picks);
            let spec = SpecFolder { initial: t.initial(), accumulated: None, depth: 0 };
            check_fold_against_spec(&t, input, &cuts, PrefixFolder::new(&t), spec, true)?;
        }
    }

    #[test]
    fn resumed_fold_drains_what_the_unified_mapping_holds(
        doc in arb_document(),
        soup in arb_tag_soup(),
        queries in arb_queries(),
        ways in 1usize..9,
        picks in prop::collection::vec(0.0f64..1.0, 8..9),
    ) {
        // Take over mid-document: the folder is resumed from the open-tag path
        // at the first cut, the specification from the entry that path implies.
        // The suffix is followed by tag soup, so resumed folds underflow too.
        let t = Transducer::from_queries(&queries).unwrap();
        let mut input = doc.clone();
        input.extend_from_slice(&soup);
        let cuts = cut_points(&tag_bounds(&input), ways, &picks);
        let cuts = &cuts[1.min(cuts.len() - 2)..];
        let mut path: Vec<&[u8]> = Vec::new();
        for ev in Lexer::tags_only(&input[..cuts[0]]) {
            match ev {
                XmlEvent::Open { name, .. } => path.push(name),
                XmlEvent::Close { .. } => { path.pop(); }
                _ => {}
            }
        }
        let (mut state, mut stack) = (t.initial(), Vec::new());
        for name in &path {
            stack.push(state);
            state = t.step(state, t.classify_name(name));
        }
        let depth = stack.len() as i64;
        let entry = MapEntry {
            start_state: t.initial(),
            start_stack: Vec::new(),
            finish_state: state,
            finish_stack: stack,
            outputs: Vec::new(),
        };
        let spec = SpecFolder {
            initial: t.initial(),
            accumulated: Some(Mapping { entries: vec![entry] }),
            depth,
        };
        let folder = PrefixFolder::resume(&t, path.iter().copied(), 0);
        check_fold_against_spec(&t, &input, cuts, folder, spec, false)?;
    }

    #[test]
    fn unification_is_associative_over_three_way_splits(
        doc in arb_document(),
        queries in arb_queries(),
        cut_a in 0.0f64..1.0,
        cut_b in 0.0f64..1.0,
    ) {
        let t = Transducer::from_queries(&queries).unwrap();
        let positions: Vec<usize> =
            doc.iter().enumerate().filter(|(_, &b)| b == b'<').map(|(i, _)| i).collect();
        let mut i = (cut_a * (positions.len() - 1) as f64) as usize;
        let mut j = (cut_b * (positions.len() - 1) as f64) as usize;
        if i > j {
            std::mem::swap(&mut i, &mut j);
        }
        let (p1, p2) = (positions[i], positions[j]);
        let c1 = process_chunk(&t, &doc[..p1], 0, 0, true, EngineKind::Tree, false);
        let c1 = c1.mapping.to_mapping();
        let c2 = process_chunk(&t, &doc[p1..p2], p1, 1, false, EngineKind::Tree, false);
        let c2 = c2.mapping.to_mapping();
        let c3 = process_chunk(&t, &doc[p2..], p2, 2, false, EngineKind::Tree, false);
        let c3 = c3.mapping.to_mapping();
        let mut left = unify_mappings(&unify_mappings(&c1, &c2), &c3);
        let mut right = unify_mappings(&c1, &unify_mappings(&c2, &c3));
        left.normalise();
        right.normalise();
        prop_assert_eq!(left, right);
    }

    #[test]
    fn lexer_events_are_balanced_on_generated_documents(doc in arb_document()) {
        let mut depth: i64 = 0;
        let mut opens = 0u64;
        for ev in Lexer::tags_only(&doc) {
            match ev {
                XmlEvent::Open { .. } => { depth += 1; opens += 1; }
                XmlEvent::Close { .. } => depth -= 1,
                _ => {}
            }
            prop_assert!(depth >= 0);
        }
        prop_assert_eq!(depth, 0);
        prop_assert!(opens >= 1);
    }

    #[test]
    fn match_spans_are_consistent(
        doc in arb_document(),
        chunk_size in 1usize..32,
    ) {
        let engine = Engine::with_config(
            &["//b", "//c", "/a"],
            EngineConfig { chunk_size, threads: Some(2), ..EngineConfig::default() },
        ).unwrap();
        let result = engine.run(&doc);
        for q in 0..3 {
            for m in result.matches(q) {
                prop_assert!(m.start < m.end && m.end <= doc.len());
                prop_assert_eq!(doc[m.start], b'<');
                prop_assert_eq!(doc[m.end - 1], b'>');
            }
        }
    }
}

/// The benchmark's `treebank_multiquery` machine (192 owner + 64 subscriber
/// queries, fixed query seed) over a smaller document of the same generator.
fn treebank_256_sample() -> (Transducer, Vec<u8>) {
    let doc =
        pp_xml::datasets::TreebankConfig { sentences: 600, max_depth: 30, seed: 1 }.generate();
    let pool = pp_xml::datasets::random_treebank_queries(224, 3, 17);
    let mut queries: Vec<String> = pool[..192].to_vec();
    queries.extend_from_slice(&pool[..32]);
    queries.extend_from_slice(&pool[192..]);
    (Transducer::from_queries(&queries).unwrap(), doc)
}

#[test]
fn treebank_256_chunks_store_each_match_a_bounded_number_of_times() {
    let (t, doc) = treebank_256_sample();
    assert_eq!(t.num_states(), 239);
    let chunks = pp_xml::xmlstream::split_chunks(&doc, 64 << 10);
    let mut folder = PrefixFolder::new(&t);
    let (mut transitions, mut peaks) = (Vec::new(), Vec::new());
    for c in &chunks {
        let first = c.index == 0;
        let out = process_chunk(
            &t,
            &doc[c.range.clone()],
            c.range.start,
            c.index,
            first,
            EngineKind::Tree,
            true,
        );
        transitions.push(out.stats.transitions);
        peaks.push(out.stats.peak_finish_states);
        let (records, working_set) = (out.stats.match_records, out.stats.working_set_bytes);
        assert_eq!(records, out.mapping.match_records());
        let real = folder.fold(out.mapping, out.depth_delta, out.ladder).matches.len();
        assert!(real > 0, "chunk {} has matches on the real path", c.index);
        // The engine before the shared tape stored 240x and held 18.8 MiB.
        let bound = if first { 1 } else { 16 };
        assert!(records <= bound * real, "chunk {}: {records} records, {real} real", c.index);
        assert!(working_set <= 2 << 20, "chunk {}: working set {working_set} B", c.index);
    }
    // The algorithm's work measure (§3.3), as counted before the rewrite.
    assert_eq!(transitions, [10_412, 88_363, 100_696, 92_479, 6_816]);
    assert_eq!(peaks, [1, 239, 239, 239, 239]);
}
