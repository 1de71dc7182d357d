//! Out-of-order chunk processing, shown one level below the `Engine` façade:
//! the stream is split into arbitrary chunks, each chunk produces a state
//! mapping, the mappings are unified, and the result equals a sequential run
//! — the core mechanism of the paper made visible.
//!
//! ```sh
//! cargo run --release --example chunked_streaming
//! ```

use pp_xml::automaton::Transducer;
use pp_xml::core::chunk::{process_chunk, EngineKind};
use pp_xml::core::join::unify_mappings;
use pp_xml::core::{Engine, ParallelConfig, StreamProcessor};
use pp_xml::datasets::TreebankConfig;
use pp_xml::xmlstream::split_chunks;

fn main() {
    let data = TreebankConfig { sentences: 500, max_depth: 20, seed: 11 }.generate();
    let queries = ["//np/nn", "//vp//vbd"];

    // --- Level 1: manual chunk processing -------------------------------
    let transducer = Transducer::from_queries(&queries).expect("queries compile");
    let chunks = split_chunks(&data, 16 * 1024);
    println!("split {} bytes into {} chunks", data.len(), chunks.len());

    let outputs: Vec<_> = chunks
        .iter()
        .map(|c| {
            process_chunk(
                &transducer,
                &data[c.range.clone()],
                c.range.start,
                c.index,
                c.index == 0,
                EngineKind::Tree,
                false,
            )
        })
        .collect();

    // Each out-of-order chunk keeps a mapping from every possible starting
    // state; show how quickly those converge.
    // (`to_mapping` materialises the paper's set-of-entries form of the compact
    // per-chunk result, where every match is stored once on a shared tape.)
    for out in outputs.iter().take(3) {
        println!(
            "chunk {}: {} map entries, {} distinct finishing states, {} transitions, \
             {} match records",
            out.index,
            out.mapping.len(),
            out.mapping.to_mapping().distinct_finish_states(),
            out.stats.transitions,
            out.stats.match_records
        );
    }

    // Join phase, as the paper specifies it: unify the mappings in document
    // order. (The pipelines run `PrefixFolder`, which follows only the one
    // entry that unifies with the already-resolved prefix.)
    let mut acc = outputs[0].mapping.to_mapping();
    for out in &outputs[1..] {
        acc = unify_mappings(&acc, &out.mapping.to_mapping());
    }
    let entry = acc
        .entries
        .iter()
        .find(|e| e.start_state == transducer.initial() && e.start_stack.is_empty())
        .expect("one execution path survives for well-formed input");
    println!("joined mapping: {} sub-query matches survive", entry.outputs.len());

    // --- Level 2: the StreamProcessor does the same thing windowed -------
    let mut proc = StreamProcessor::new(&transducer, ParallelConfig::default());
    // Windows must be cut at tag boundaries (Engine::run_reader does this
    // automatically); reuse the splitter to get '<'-aligned window ranges.
    for window in split_chunks(&data, 64 * 1024) {
        proc.feed(&data[window.range]);
    }
    let (matches, stats) = proc.finish();
    println!(
        "stream processor: {} matches, overhead {:.2}x, {} chunks",
        matches.len(),
        stats.overhead_factor(),
        stats.chunks
    );

    // --- Level 3: sanity-check against the engine façade -----------------
    let engine = Engine::from_queries(&queries).expect("engine compiles");
    let reference = engine.run(&data);
    assert_eq!(entry.outputs.len(), reference.stats.subquery_matches);
    assert_eq!(matches.len(), reference.stats.subquery_matches);
    println!("all three levels agree with the sequential reference ✓");
}
