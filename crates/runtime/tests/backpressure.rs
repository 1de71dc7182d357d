//! Backpressure: a slow sink must stall the whole pipeline — bounded queues
//! everywhere, the feeder blocked, and not a single match lost.

use ppt_core::Engine;
use ppt_runtime::{OnlineMatch, Runtime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A sink that dawdles on every match.
struct SlowSink {
    delay: Duration,
    seen: Arc<AtomicU64>,
}

impl ppt_runtime::MatchSink for SlowSink {
    fn on_match(&mut self, _m: OnlineMatch) -> bool {
        std::thread::sleep(self.delay);
        self.seen.fetch_add(1, Ordering::Relaxed);
        true
    }
}

#[test]
fn slow_sink_throttles_the_feeder_without_losing_matches() {
    // ~600 matching elements; the sink sleeps 1ms per match, so the joiner is
    // the bottleneck by orders of magnitude.
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..600 {
        doc.extend_from_slice(
            format!("<item><id>{i}</id><k>payload payload payload</k></item>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</stream>");

    let inflight = 4usize;
    let engine = Arc::new(
        Engine::builder()
            .add_query("//item/k")
            .unwrap()
            .chunk_size(256)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let expected = engine.run(&doc).match_count(0);
    assert_eq!(expected, 600);

    let runtime = Runtime::builder().workers(2).inflight_chunks(inflight).build();
    let seen = Arc::new(AtomicU64::new(0));
    let mut sink = SlowSink { delay: Duration::from_millis(1), seen: Arc::clone(&seen) };
    let report = runtime.process_reader(Arc::clone(&engine), &doc[..], &mut sink).unwrap();

    // Nothing lost.
    assert_eq!(report.match_counts, vec![expected]);
    assert_eq!(seen.load(Ordering::Relaxed), expected as u64);

    // Bounded pipeline: the reorder buffer can never exceed the credit cap,
    // and with the joiner this slow the feeder must have been blocked on
    // backpressure for a measurable amount of time.
    assert!(
        report.stats.peak_reorder_depth <= inflight,
        "reorder depth {} exceeded the {} in-flight credits",
        report.stats.peak_reorder_depth,
        inflight
    );
    assert!(report.stats.peak_join_lag <= inflight as u64);
    assert!(
        report.stats.backpressure_wait > Duration::ZERO,
        "expected the feeder to block behind the slow sink"
    );
    // The shared queue also stays within the credit cap (single session).
    assert!(runtime.peak_queue_depth() <= inflight);
}

#[test]
fn dropping_the_iterator_cancels_an_endless_stream() {
    use std::io::Read;

    /// A stream that never ends: `<s>` then `<k>..</k>` records forever.
    struct EndlessStream {
        sent_header: bool,
        i: u64,
    }
    impl Read for EndlessStream {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let piece = if self.sent_header {
                self.i += 1;
                format!("<k>v{}</k>", self.i)
            } else {
                self.sent_header = true;
                "<s>".to_string()
            };
            let bytes = piece.as_bytes();
            let n = bytes.len().min(buf.len());
            buf[..n].copy_from_slice(&bytes[..n]);
            Ok(n)
        }
    }

    let engine = Arc::new(
        Engine::builder()
            .add_query("//k")
            .unwrap()
            .chunk_size(512)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let runtime = Runtime::builder().workers(2).build();
    let stream =
        runtime.stream_reader(Arc::clone(&engine), EndlessStream { sent_header: false, i: 0 });
    // Take a few matches and walk away: before cancellation existed this
    // deadlocked in Drop, joining a driver that waits for an EOF that never
    // comes. Run it on a watchdog-guarded thread so a regression fails the
    // test instead of hanging it.
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let first: Vec<_> = stream.take(5).collect();
        done_tx.send(first.len()).unwrap();
        // `stream` dropped here -> cancel -> driver unwinds.
    });
    let got = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("early-dropped MatchStream wedged on the endless stream");
    assert_eq!(got, 5);
}

#[test]
fn panicking_sink_unwinds_instead_of_deadlocking() {
    // A sink that panics runs on the joiner thread; without the joiner-stage
    // panic guard this wedged the feeder forever in acquire_credit on any
    // stream larger than the in-flight window. Now the session is poisoned,
    // the pipeline drains, and the panic resurfaces on the caller's thread.
    struct AngrySink;
    impl ppt_runtime::MatchSink for AngrySink {
        fn on_match(&mut self, _m: OnlineMatch) -> bool {
            panic!("sink exploded");
        }
    }

    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..2000 {
        doc.extend_from_slice(format!("<item><k>payload {i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");

    let engine = Arc::new(
        Engine::builder()
            .add_query("//k")
            .unwrap()
            .chunk_size(64)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let runtime = Runtime::builder().workers(2).inflight_chunks(2).build();
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sink = AngrySink;
            let _ = runtime.process_reader(Arc::clone(&engine), &doc[..], &mut sink);
        }));
        done_tx.send(outcome.is_err()).unwrap();
    });
    let panicked =
        done_rx.recv_timeout(Duration::from_secs(30)).expect("panicking sink wedged the pipeline");
    assert!(panicked, "the sink's panic must resurface on the caller's thread");
}

#[test]
fn poisoned_session_distinguishes_dropped_from_delivered_matches() {
    // Before `dropped_matches` existed, a sink that died mid-delivery left
    // `stats.matches == 1` — indistinguishable from a successful delivery.
    // The match in the sink's hands when it panics must be accounted as
    // *dropped*, and `matches` must count only completed deliveries.
    struct AngrySink;
    impl ppt_runtime::MatchSink for AngrySink {
        fn on_match(&mut self, _m: OnlineMatch) -> bool {
            panic!("sink exploded");
        }
    }

    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..500 {
        doc.extend_from_slice(format!("<item><k>payload {i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");

    let engine = Arc::new(
        Engine::builder()
            .add_query("//k")
            .unwrap()
            .chunk_size(64)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let runtime = Runtime::builder().workers(2).inflight_chunks(2).build();
    let mut session = runtime.open_session(Arc::clone(&engine), Box::new(AngrySink));
    for piece in doc.chunks(512) {
        if session.is_dead() {
            break;
        }
        session.feed(piece);
    }
    // The joiner poisons the session on the sink's first panic; wait for the
    // flag (bounded — a wedged pipeline fails rather than hangs).
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !session.is_dead() {
        assert!(std::time::Instant::now() < deadline, "session never died");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = session.stats();
    assert_eq!(stats.matches, 0, "no match completed delivery");
    assert_eq!(stats.dropped_matches, 1, "the match the sink panicked on was dropped");
    // Dropping the handle joins the poisoned joiner without re-raising.
}

#[test]
fn reports_are_error_free_on_healthy_streams() {
    // Companion to the worker-poisoning path: a healthy run must report no
    // error, and a session whose worker panics must terminate (not wedge)
    // with `error` set. Panics cannot be provoked through the public API
    // with well-formed inputs, so only the healthy half runs here; the
    // poison plumbing is exercised by threading it through every stage
    // (acquire_credit/wait_for return paths) which this run covers.
    let engine = Arc::new(Engine::builder().add_query("//k").unwrap().build().unwrap());
    let runtime = Runtime::builder().workers(2).build();
    let mut sink = ppt_runtime::CollectSink::new();
    let report =
        runtime.process_reader(Arc::clone(&engine), &b"<a><k>x</k></a>"[..], &mut sink).unwrap();
    assert!(report.error.is_none(), "healthy stream must not report an error");
}

#[test]
fn slow_iterator_consumer_is_equivalent_backpressure() {
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..300 {
        doc.extend_from_slice(format!("<item><k>x{i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");

    let engine = Arc::new(
        Engine::builder()
            .add_query("//k")
            .unwrap()
            .chunk_size(128)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let runtime = Runtime::builder().workers(2).inflight_chunks(2).build();
    let stream = runtime.stream_reader(Arc::clone(&engine), std::io::Cursor::new(doc.clone()));
    let mut count = 0usize;
    for _m in stream {
        // A consumer that pulls slowly: nothing is read past what it
        // pulled, and the credit scheme throttles everything upstream.
        std::thread::sleep(Duration::from_micros(200));
        count += 1;
    }
    assert_eq!(count, 300);
}
