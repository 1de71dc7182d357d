//! The in-process thread budget: on a prebuilt `Runtime`, no in-process
//! session adds a thread. The thread that feeds a session also folds it, so
//! its sink runs on that thread, and only the runtime's workers transduce.
//! Counted from `/proc/self/task`, so Linux only; one test in its own binary,
//! so no other test's threads come and go during the count.
#![cfg(target_os = "linux")]

use ppt_core::{Engine, EngineConfig};
use ppt_runtime::{
    BorrowedMatch, MaterializedMatch, OnlineMatch, Runtime, SessionOptions, SubscriberDelivery,
    SubscriberReport, SubscriberSink, WireFormat,
};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is mounted").count()
}

/// The most threads seen from inside a sink, over every match it received.
#[derive(Clone, Default)]
struct Peak(Arc<AtomicUsize>);

impl Peak {
    fn record(&self) {
        self.0.fetch_max(threads(), Ordering::SeqCst);
    }

    /// The peak since the last take; 0 when no match arrived.
    fn take(&self) -> usize {
        self.0.swap(0, Ordering::SeqCst)
    }
}

impl SubscriberSink for Peak {
    fn deliver(&mut self, _m: BorrowedMatch) -> SubscriberDelivery {
        self.record();
        SubscriberDelivery::Delivered
    }

    fn end(&mut self, _report: SubscriberReport) {}
}

impl Write for Peak {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.record();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// `<s>` then `<item><k>…</k></item>` records, forever.
struct Endless(u64);

impl Read for Endless {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let piece = match self.0 {
            0 => "<s>".to_string(),
            i => format!("<item><k>v{i}</k></item>"),
        };
        self.0 += 1;
        let n = piece.len().min(buf.len());
        buf[..n].copy_from_slice(&piece.as_bytes()[..n]);
        Ok(n)
    }
}

#[test]
fn inprocess_sessions_add_no_thread() {
    let mut doc = b"<stream>".to_vec();
    for i in 0..300 {
        doc.extend_from_slice(format!("<item><k>element {i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");
    let builder = Engine::builder().add_query("//item/k").unwrap();
    let engine = Arc::new(builder.chunk_size(256).window_size(4096).build().unwrap());
    let config = EngineConfig { chunk_size: 256, window_size: 4096, ..EngineConfig::default() };
    let retain = SessionOptions::new().retain_bytes(1 << 20);
    let runtime = Runtime::builder().workers(2).build();
    let before = threads();
    let peak = Peak::default();

    let sink = peak.clone();
    let mut on_match = move |_m: OnlineMatch| sink.record();
    runtime.process_reader(Arc::clone(&engine), &doc[..], &mut on_match).unwrap();
    assert_eq!(peak.take(), before, "process_reader's sink ran beside an extra thread");

    let sink = peak.clone();
    let mut on_payload = move |_m: MaterializedMatch| sink.record();
    runtime.process_materialized(Arc::clone(&engine), &retain, &doc[..], &mut on_payload).unwrap();
    assert_eq!(peak.take(), before, "process_materialized's sink ran beside an extra thread");

    let served = runtime
        .serve_reader(Arc::clone(&engine), &retain, &doc[..], peak.clone(), WireFormat::Binary)
        .unwrap();
    assert_eq!(served.report.match_counts, vec![300]);
    assert_eq!(peak.take(), before, "serve_reader's writer ran beside an extra thread");

    let sink = peak.clone();
    let mut session =
        runtime.open_session(Arc::clone(&engine), Box::new(move |_m: OnlineMatch| sink.record()));
    for piece in doc.chunks(1024) {
        session.feed(piece);
        assert_eq!(threads(), before, "an open push session holds a thread");
    }
    let (report, _) = session.finish();
    assert_eq!(report.match_counts, vec![300]);
    assert_eq!(peak.take(), before, "a push session's sink ran beside an extra thread");

    let owner = Peak::default();
    let mut shared = runtime
        .open_shared_stream(&retain, config, 1 << 12, &["//item/k"], Box::new(owner.clone()))
        .unwrap();
    shared.control().attach(&["//item/k"], Box::new(peak.clone())).unwrap();
    for piece in doc.chunks(1024) {
        shared.feed(piece);
        assert_eq!(threads(), before, "a shared stream holds a thread");
    }
    assert_eq!(shared.finish().match_counts, vec![300]);
    assert_eq!(owner.take(), before, "a shared stream's owner ran beside an extra thread");
    assert_eq!(peak.take(), before, "a subscriber ran beside an extra thread");

    let mut stream = runtime.stream_reader(Arc::clone(&engine), Endless(0));
    let first: Vec<OnlineMatch> = stream.by_ref().take(50).collect();
    assert_eq!(first.len(), 50);
    assert_eq!(threads(), before, "a stream in the middle of iteration holds a thread");
    drop(stream);
    assert_eq!(threads(), before);
}
