//! Failure isolation: a panicking pipeline stage — most likely a user's
//! [`MatchSink`] — must take down *its own session only*. Before the
//! poison-recovery hardening, the panic poisoned the locks it held and every
//! other session's thread panicked on `.expect("… poisoned")` the next time
//! it touched them.

use ppt_core::Engine;
use ppt_runtime::{CollectSink, MatchSink, OnlineMatch, Runtime, SessionOptions};
use std::sync::Arc;

fn make_doc(items: usize) -> Vec<u8> {
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..items {
        doc.extend_from_slice(format!("<item><k>{i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");
    doc
}

fn make_engine() -> Arc<Engine> {
    Arc::new(
        Engine::builder()
            .add_query("//item/k")
            .unwrap()
            .chunk_size(128)
            .window_size(2048)
            .build()
            .unwrap(),
    )
}

/// Panics on the nth match it sees.
struct PanicSink {
    remaining: usize,
}

impl MatchSink for PanicSink {
    fn on_match(&mut self, _m: OnlineMatch) -> bool {
        if self.remaining == 0 {
            panic!("deliberate sink panic");
        }
        self.remaining -= 1;
        true
    }
}

#[test]
fn a_sink_panic_in_one_session_leaves_concurrent_sessions_healthy() {
    let doc = Arc::new(make_doc(500));
    let engine = make_engine();
    let expected = engine.run(&doc).match_count(0);
    assert_eq!(expected, 500);

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(4).build());

    std::thread::scope(|scope| {
        // Session A: the sink blows up after a few matches. The panic is
        // re-raised on A's owner thread — and nowhere else.
        let runtime_a = Arc::clone(&runtime);
        let doc_a = Arc::clone(&doc);
        let engine_a = Arc::clone(&engine);
        let a = scope.spawn(move || {
            let mut sink = PanicSink { remaining: 3 };
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                runtime_a.process_reader(engine_a, &doc_a[..], &mut sink)
            }))
        });

        // Session B: a full healthy run, concurrently, on the same workers.
        let runtime_b = Arc::clone(&runtime);
        let doc_b = Arc::clone(&doc);
        let engine_b = Arc::clone(&engine);
        let b = scope.spawn(move || {
            let mut sink = CollectSink::new();
            let report = runtime_b.process_reader(engine_b, &doc_b[..], &mut sink).unwrap();
            (report, sink.matches.len())
        });

        let a_outcome = a.join().expect("thread A itself must not die");
        assert!(a_outcome.is_err(), "the sink panic resurfaces on A's owner thread");

        let (report_b, matches_b) = b.join().expect("thread B must be untouched");
        assert_eq!(report_b.match_counts, vec![expected]);
        assert_eq!(matches_b, expected);
        assert!(report_b.error.is_none());
    });

    // The shared pool survived: a brand-new session on the same runtime
    // still completes.
    let mut sink = CollectSink::new();
    let report = runtime.process_reader(engine, &doc[..], &mut sink).unwrap();
    assert_eq!(report.match_counts, vec![expected]);
}

#[test]
fn a_poisoned_push_session_reports_the_failure_and_frees_the_handle() {
    let doc = make_doc(200);
    let engine = make_engine();
    let runtime = Runtime::builder().workers(2).inflight_chunks(4).build();

    let mut session =
        runtime.open_session(Arc::clone(&engine), Box::new(PanicSink { remaining: 0 }));
    session.feed(&doc);
    // The joiner hits the panicking sink asynchronously; poisoning must
    // arrive promptly rather than wedging the pipeline.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while !session.is_dead() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    assert!(session.is_dead(), "the session is poisoned, not wedged");
    let finished = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || session.finish()));
    assert!(finished.is_err(), "finish re-raises the sink panic for the owner");

    // The runtime is still serviceable.
    let mut sink = CollectSink::new();
    let report = runtime.process_reader(engine, &doc[..], &mut sink).unwrap();
    assert_eq!(report.match_counts, vec![200]);
}

/// A worker that panics while running a session's chunk in order — holding
/// the relay's exact entry — poisons exactly that session: the chunks before
/// it ran and nothing after it does, while a concurrent session on the same
/// single worker runs to completion.
#[test]
fn a_worker_panic_in_an_in_order_chunk_poisons_only_its_session() {
    let doc = make_doc(500);
    let engine = make_engine();
    let expected = engine.run(&doc).match_count(0);
    // One worker: every chunk runs in order, from the relay.
    let runtime = Runtime::builder().workers(1).inflight_chunks(4).build();

    let (failed, healthy) = std::thread::scope(|scope| {
        let failed = scope.spawn(|| {
            let opts = SessionOptions { panic_on_chunk: Some(3), ..SessionOptions::new() };
            let sink = Box::new(CollectSink::new());
            let mut session = runtime.open_session_with(Arc::clone(&engine), &opts, sink);
            session.feed(&doc);
            session.finish().0
        });
        let healthy = scope.spawn(|| {
            let mut sink = CollectSink::new();
            runtime.process_reader(Arc::clone(&engine), &doc[..], &mut sink).unwrap()
        });
        (failed.join().unwrap(), healthy.join().unwrap())
    });

    let error = failed.error.expect("the session is poisoned");
    assert!(error.contains("injected fault on chunk 3"), "{error}");
    assert_eq!(failed.stats.chunks_in_order, 3, "chunks 0..3 ran, nothing after the panic");
    assert_eq!(failed.stats.chunks_speculative, 0);
    assert!(failed.match_counts[0] < expected);

    assert!(healthy.error.is_none());
    assert_eq!(healthy.match_counts, vec![expected]);
    assert_eq!(healthy.stats.chunks_in_order, healthy.stats.chunks);

    // The worker survived its panic.
    let mut sink = CollectSink::new();
    let report = runtime.process_reader(engine, &doc[..], &mut sink).unwrap();
    assert_eq!(report.match_counts, vec![expected]);
}
