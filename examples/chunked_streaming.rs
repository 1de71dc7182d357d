//! Out-of-order chunk processing, shown one level below the `Engine` façade:
//! the stream is split into arbitrary chunks, each chunk produces a state
//! mapping, the mappings are unified, and the result equals a sequential run
//! — the core mechanism of the paper made visible. Then the same stream
//! through `Engine::run_reader`, which runs a chunk from all states only
//! when that pays.
//!
//! ```sh
//! cargo run --release --example chunked_streaming
//! ```

use pp_xml::automaton::Transducer;
use pp_xml::core::chunk::{process_chunk, EngineKind};
use pp_xml::core::join::unify_mappings;
use pp_xml::core::Engine;
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

    // The §3.3 overhead of the all-states step: its transitions over those
    // of one in-order pass.
    let out_of_order: u64 = outputs.iter().map(|o| o.stats.transitions).sum();
    let in_order = pp_xml::core::chunk::sequential_transitions(&transducer, &data);
    println!("all-states overhead: {:.2}x", out_of_order as f64 / in_order as f64);

    // --- Level 2: the engine reads the stream window by window -----------
    // Each chunk runs in order from the exact entry the chunk before it left;
    // an idle thread speculates from all states only while that pays.
    let engine = Engine::builder()
        .add_queries(&queries)
        .expect("queries compile")
        .chunk_size(16 * 1024)
        .window_size(64 * 1024)
        .build()
        .expect("engine compiles");
    let streamed = engine.run_reader(&data[..]).expect("reading a slice cannot fail");
    let stats = &streamed.stats;
    println!(
        "run_reader: {} matches, {} chunks ({} in order, {} speculative), \
         {:.2} transitions per tag",
        streamed.subquery_match_total,
        stats.chunks,
        stats.chunks_in_order,
        stats.chunks_speculative,
        stats.overhead_factor()
    );

    // --- Level 3: sanity-check against the engine façade -----------------
    let engine = Engine::from_queries(&queries).expect("engine compiles");
    let reference = engine.run(&data);
    assert_eq!(entry.outputs.len(), reference.stats.subquery_matches);
    assert_eq!(streamed.subquery_match_total, reference.stats.subquery_matches);
    println!("all three levels agree with the sequential reference ✓");
}
