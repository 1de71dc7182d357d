//! Which chunks run in order and which speculate, pinned by exact counters.
//!
//! The pool runs a session's next chunk from its exact entry (the relay) and
//! runs a chunk further ahead from all states only on a worker that would
//! otherwise idle, and only while the session's measured cost ratio R
//! (speculative over in-order nanoseconds per byte) is below the worker
//! count. These tests check the counts that rule leaves behind — never a
//! clock.

use ppt_core::Engine;
use ppt_datasets::{SkewConfig, SkewMode, SynthConfig, TreebankConfig, TwitterConfig, XmarkConfig};
use ppt_runtime::{CollectSink, Runtime, SessionReport};
use std::sync::{Arc, Mutex, MutexGuard};

/// The pool's choices follow measured costs: the tests run one at a time, so
/// that one test's workers do not slow down another's chunks.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(|poison| poison.into_inner())
}

fn engine(queries: &[&str], chunk_size: usize) -> Arc<Engine> {
    let builder = Engine::builder().add_queries(queries).unwrap();
    Arc::new(builder.chunk_size(chunk_size).window_size(256 << 10).build().unwrap())
}

/// Feeds `data` in one piece, so the session's chunks are all cut before the
/// first is submitted and wait for the workers, not for the splitter.
fn run(runtime: &Runtime, engine: &Arc<Engine>, data: &[u8]) -> SessionReport {
    let mut session = runtime.open_session(Arc::clone(engine), Box::new(CollectSink::new()));
    session.feed(data);
    let (report, _) = session.finish();
    assert!(report.error.is_none());
    let expected: Vec<usize> =
        engine.run_sequential(data).query_matches.iter().map(Vec::len).collect();
    assert_eq!(report.match_counts, expected);
    report
}

/// `<catalog>` of `items` items, each one `<desc>` of `bytes` bytes of text
/// — the shape of the benchmark's `large_payload` workload.
fn large_payload(items: usize, bytes: usize) -> Vec<u8> {
    let mut doc = b"<catalog>".to_vec();
    for i in 0..items {
        doc.extend_from_slice(format!("<item><id>{i}</id><desc>").as_bytes());
        doc.extend((0..bytes).map(|j| b"abcdefghij klmnopqrstuvwxyz"[(i + j) % 27]));
        doc.extend_from_slice(b"</desc></item>");
    }
    doc.extend_from_slice(b"</catalog>");
    doc
}

/// On one worker no chunk ever waits for an idle worker, so every chunk runs
/// in order from its exact entry — on every generator's output.
#[test]
fn one_worker_never_speculates() {
    let _serial = serial();
    let runtime = Runtime::builder().workers(1).build();
    let treebank_queries = ppt_datasets::random_treebank_queries(16, 3, 17);
    let treebank_queries: Vec<&str> = treebank_queries.iter().map(String::as_str).collect();
    let xpathmark = ppt_datasets::xpathmark_queries_strs();
    let cases: Vec<(&str, Vec<u8>, Vec<&str>)> = vec![
        ("xmark", XmarkConfig::with_target_size(128 << 10).generate(), xpathmark[..6].to_vec()),
        ("treebank", TreebankConfig::with_target_size(128 << 10).generate(), treebank_queries),
        (
            "twitter",
            TwitterConfig::with_target_size(128 << 10).generate(),
            vec![ppt_datasets::twitter_query(), "//status[user]/text"],
        ),
        ("synth", SynthConfig::with_target_size(6, 3, 128 << 10).generate(), vec!["//np//nn"]),
        (
            "skew-tags",
            SkewConfig { items: 400, mode: SkewMode::Tags, ..SkewConfig::default() }.generate(),
            vec!["//item", "/file/item//name"],
        ),
        (
            "skew-text",
            SkewConfig { items: 400, mode: SkewMode::Text, ..SkewConfig::default() }.generate(),
            vec!["//item"],
        ),
        ("large-payload", large_payload(4, 64 << 10), vec!["//item/desc"]),
    ];
    for (label, data, queries) in &cases {
        let report = run(&runtime, &engine(queries, 8 << 10), data);
        assert!(report.stats.chunks > 4, "{label}: too few chunks to mean anything");
        assert_eq!(report.stats.chunks_speculative, 0, "{label}");
        assert_eq!(report.stats.chunks_in_order, report.stats.chunks, "{label}");
        assert_eq!(report.speculation_ratio, None, "{label}: R needs a speculative chunk");
    }
    assert_eq!(runtime.chunk_modes().1, 0);
}

/// Treebank with 256 queries costs several times more per byte from all
/// states than in order (§3.3's convergence overhead), far above the break-
/// even of two workers: each session runs at most its one probe chunk from
/// all states before R is known, and then none. Small chunks put R (≈ 6–18
/// here) well clear of the break-even, so a worker slowed by its neighbours
/// cannot tip the measurement.
#[test]
fn treebank_256q_on_two_workers_speculates_at_most_once_per_session() {
    let _serial = serial();
    let data = TreebankConfig::with_target_size(256 << 10).generate();
    let queries = ppt_datasets::random_treebank_queries(256, 3, 17);
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    let engine = engine(&queries, 1 << 10);
    let runtime = Runtime::builder().workers(2).build();
    let reports: Vec<SessionReport> = (0..3).map(|_| run(&runtime, &engine, &data)).collect();
    for report in &reports {
        assert!(report.stats.chunks >= 128, "{:?}", report.stats);
        assert!(report.stats.chunks_speculative <= 1, "{:?}", report.stats);
        if let Some(r) = report.speculation_ratio {
            assert!(r >= 2.0, "R = {r} on Treebank-256q");
        }
    }
}

/// A four-state query over 256 KiB elements costs about the same per byte
/// from all states as in order (R ≈ 1): idle workers keep speculating.
#[test]
fn four_states_over_large_elements_still_speculate() {
    let _serial = serial();
    let data = large_payload(24, 256 << 10);
    let engine = engine(&["//item/desc"], 64 << 10);
    assert_eq!(engine.transducer().num_states(), 4);
    // Credits for every chunk: all of them wait from the start, so the second
    // worker finds chunks ahead of the relay however late it wakes.
    let runtime = Runtime::builder().workers(2).inflight_chunks(64).build();
    let report = run(&runtime, &engine, &data);
    assert!(report.stats.chunks <= 64, "{:?}", report.stats);
    assert!(report.stats.chunks_speculative > 0, "{:?}", report.stats);
}
