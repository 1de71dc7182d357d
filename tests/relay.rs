//! The batch engine runs the relay scheduler: on one thread every chunk runs
//! in order from its exact entry, and on any thread count the answer is the
//! sequential reference's.

use pp_xml::datasets::{
    random_treebank_queries, twitter_query, xpathmark_queries_strs, TreebankConfig, TwitterConfig,
    XmarkConfig,
};
use pp_xml::prelude::*;

fn workloads() -> Vec<(&'static str, Vec<u8>, Vec<String>)> {
    let xmark =
        XmarkConfig { items_per_region: 30, closed_auctions: 150, people: 150, seed: 9 }.generate();
    let treebank = TreebankConfig { sentences: 600, max_depth: 24, seed: 3 }.generate();
    let twitter = TwitterConfig {
        statuses: 800,
        retweet_probability: 0.3,
        coordinates_probability: 0.2,
        seed: 4,
    }
    .generate();
    vec![
        ("xmark", xmark, xpathmark_queries_strs().iter().map(|q| q.to_string()).collect()),
        ("treebank", treebank, random_treebank_queries(20, 4, 7)),
        ("twitter", twitter, vec![twitter_query().to_string(), "//status/user".to_string()]),
    ]
}

fn engine(queries: &[String], threads: usize) -> Engine {
    Engine::builder()
        .add_queries(queries)
        .unwrap()
        .chunk_size(2 * 1024)
        .window_size(16 * 1024)
        .threads(threads)
        .build()
        .unwrap()
}

#[test]
fn one_thread_never_speculates_on_the_generators() {
    for (name, data, queries) in workloads() {
        let engine = engine(&queries, 1);
        for stats in [engine.run(&data).stats, engine.run_reader(&data[..]).unwrap().stats] {
            assert!(stats.chunks > 20, "{name}: {} chunks", stats.chunks);
            assert_eq!(stats.chunks_speculative, 0, "{name}");
            assert_eq!(stats.chunks_in_order, stats.chunks, "{name}");
        }
    }
}

#[test]
fn every_thread_count_gives_the_sequential_answer() {
    for (name, data, queries) in workloads() {
        let reference = engine(&queries, 1).run_sequential(&data);
        for threads in [1, 2, 3] {
            let engine = engine(&queries, threads);
            for result in [engine.run(&data), engine.run_reader(&data[..]).unwrap()] {
                assert_eq!(result.query_matches, reference.query_matches, "{name} x{threads}");
                assert_eq!(result.submatch_counts, reference.submatch_counts, "{name}");
                let stats = &result.stats;
                assert_eq!(stats.chunks, stats.chunks_in_order + stats.chunks_speculative);
            }
        }
    }
}
