//! The poll(2) reactor behind the server, exercised over real localhost sockets:
//! partial handshake lines spread over many readiness events, outbox
//! backpressure bounding both the egress buffer and the retention ring,
//! mid-stream hang-ups poisoning only their own session, shutdown while the
//! admission gate is exhausted (the self-connect-wake regression), and a
//! proptest over interleaved readable/writable readiness orderings.
#![cfg(unix)]

use ppt_core::Engine;
use ppt_runtime::serve::{register, TcpServer};
use ppt_runtime::{Frame, FrameDecoder, HandshakeRequest, Runtime, WireFormat};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A document with `items` matching `//item/k` elements.
fn make_doc(items: usize) -> Vec<u8> {
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..items {
        doc.extend_from_slice(
            format!("<item><id>{i}</id><k>payload for element {i}</k></item>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</stream>");
    doc
}

/// The batch reference: multiset of (query, start, end) from `Engine::run`.
fn batch_reference(queries: &[&str], doc: &[u8]) -> HashMap<(u32, u64, u64), usize> {
    let engine = Engine::builder().add_queries(queries).unwrap().build().unwrap();
    let result = engine.run(doc);
    let mut expected = HashMap::new();
    for (qi, ms) in result.query_matches.iter().enumerate() {
        for m in ms {
            *expected.entry((qi as u32, m.start as u64, m.end as u64)).or_default() += 1;
        }
    }
    expected
}

/// Decodes the raw frame bytes a client read, per format.
fn decode_frames(format: WireFormat, raw: &[u8]) -> Vec<Frame> {
    match format {
        WireFormat::JsonLines => {
            let text = std::str::from_utf8(raw).expect("wire JSON is ASCII");
            text.lines().map(|l| Frame::decode_json(l).expect("every line parses")).collect()
        }
        WireFormat::Binary => {
            let mut decoder = FrameDecoder::new();
            decoder.push(raw);
            let mut frames = Vec::new();
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                frames.push(frame);
            }
            decoder.finish().expect("no truncated tail on a clean close");
            frames
        }
    }
}

/// Connects, registers, streams `doc` in `write_step`-byte pieces (with an
/// optional dawdle between reads), and returns every frame served.
fn run_client(
    addr: SocketAddr,
    request: HandshakeRequest,
    doc: Arc<Vec<u8>>,
    write_step: usize,
    read_delay: Option<Duration>,
) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let reg = register(&mut stream, &request).expect("handshake accepted");
    assert_eq!(reg.query_ids, (0..request.queries.len() as u32).collect::<Vec<u32>>());

    let format = request.format;
    let writer_stream = stream.try_clone().expect("clone for writer");
    let writer = std::thread::spawn(move || {
        let mut writer_stream = writer_stream;
        for piece in doc.chunks(write_step.max(1)) {
            if writer_stream.write_all(piece).is_err() {
                return;
            }
        }
        let _ = writer_stream.shutdown(Shutdown::Write);
    });

    let mut raw = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                if let Some(delay) = read_delay {
                    std::thread::sleep(delay);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("client read failed: {e}"),
        }
    }
    writer.join().expect("writer thread");
    decode_frames(format, &raw)
}

/// Asserts `frames` carry exactly the batch matches, with byte-identical
/// payloads when `doc` is given (retention on).
fn assert_frames_match(
    frames: &[Frame],
    mut expected: HashMap<(u32, u64, u64), usize>,
    doc: Option<&[u8]>,
) {
    for frame in frames {
        let key = (frame.query, frame.start, frame.end);
        let n = expected.get_mut(&key).unwrap_or_else(|| panic!("unexpected frame {key:?}"));
        *n -= 1;
        if *n == 0 {
            expected.remove(&key);
        }
        if let Some(doc) = doc {
            let payload = frame.payload.as_ref().expect("retention on: payload present");
            assert_eq!(
                payload.as_slice(),
                &doc[frame.start as usize..frame.end as usize],
                "payload must be byte-identical to the stream slice"
            );
        }
    }
    assert!(expected.is_empty(), "batch matches never served: {expected:?}");
}

#[test]
fn partial_handshake_lines_across_many_readiness_events() {
    let doc = Arc::new(make_doc(40));
    let expected = batch_reference(&["//item/k"], &doc);

    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder()
        .chunk_size(256)
        .window_size(1024)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // Dribble the handshake a few bytes at a time with pauses, so every
    // fragment arrives in its own readiness event — the decoder must carry
    // partial lines across them, and the bytes right after GO (the head of
    // the stream) must not be lost.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    let mut handshake = request.encode();
    handshake.extend_from_slice(&doc[..32]); // stream head rides along
    for piece in handshake.chunks(3) {
        stream.write_all(piece).expect("write fragment");
        stream.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(2));
    }
    stream.write_all(&doc[32..]).expect("stream the rest");
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read frames");
    // The reply line comes first on this socket; split it off.
    let newline = raw.iter().position(|&b| b == b'\n').expect("reply line");
    let reply = std::str::from_utf8(&raw[..newline]).unwrap();
    // A default handshake (no STREAM line) gets a server-assigned id, so
    // only the reply's shape is fixed.
    match ppt_runtime::HandshakeReply::decode(reply).expect("well-formed reply") {
        ppt_runtime::HandshakeReply::Accepted { stream, queries } => {
            assert_ne!(stream, 0, "assigned stream ids are never 0");
            assert_eq!(queries, vec![0]);
        }
        other => panic!("fragmented handshake rejected: {other:?}"),
    }
    let frames = decode_frames(WireFormat::JsonLines, &raw[newline + 1..]);
    assert_frames_match(&frames, expected, None);

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.handshake_rejects, 0);
}

#[test]
fn outbox_backpressure_parks_the_fold_and_bounds_memory() {
    // A dense-match query and a slow reader force the outbox to its cap:
    // the fold job must park (flipping POLLOUT duty to the reactor),
    // resume as the socket drains, and the retention ring must stay under
    // the client's budget because a parked fold holds the session's credits.
    let doc = Arc::new(make_doc(1500));
    let expected = batch_reference(&["//item/k"], &doc);
    let outbox_cap = 2 << 10;
    let retain_budget = 16 << 10;

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(2).build());
    let server = TcpServer::builder()
        .max_outbox_bytes(outbox_cap)
        .chunk_size(512)
        .window_size(2048)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    let request = HandshakeRequest::new(WireFormat::JsonLines)
        .query("//item/k")
        .retain_bytes(retain_budget as u64);
    let frames = run_client(addr, request, Arc::clone(&doc), 4096, Some(Duration::from_millis(1)));
    assert_frames_match(&frames, expected, Some(&doc));

    let stats = server.shutdown();
    let reactor = stats.reactor;
    // Soft cap: the outbox may overshoot by one fold's worth of frames (one
    // chunk's matches), never by more.
    let one_fold_slack = 8 << 10;
    assert!(
        reactor.peak_outbox_bytes <= outbox_cap + one_fold_slack,
        "outbox stayed near its cap: {} > {} + {}",
        reactor.peak_outbox_bytes,
        outbox_cap,
        one_fold_slack
    );
    assert!(reactor.peak_outbox_bytes > 0, "the outbox was actually exercised");
    let conn = &stats.connections[0];
    let report = conn.report.as_ref().expect("session completed");
    assert!(
        report.stats.peak_retained_bytes <= retain_budget,
        "retention stayed under the budget: {} > {retain_budget}",
        report.stats.peak_retained_bytes
    );
    assert_eq!(report.stats.payload_misses, 0);
    assert_eq!(conn.frames, frames.len() as u64);
}

#[test]
fn mid_stream_hangup_poisons_only_that_session() {
    let queries = ["//item/k"];
    let doc = Arc::new(make_doc(400));
    let expected = batch_reference(&queries, &doc);

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(4).build());
    let server = TcpServer::builder()
        .chunk_size(256)
        .window_size(2048)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // The victim: registers, streams a prefix, then vanishes without ever
    // reading a frame — the reset must be absorbed by its own session only.
    let victim_doc = Arc::clone(&doc);
    let victim = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
        register(&mut stream, &request).expect("handshake accepted");
        let _ = stream.write_all(&victim_doc[..victim_doc.len() / 2]);
        std::thread::sleep(Duration::from_millis(100));
        drop(stream); // no half-close: an abrupt disappearance
    });

    // The bystander: a full, well-behaved session running concurrently.
    let request = HandshakeRequest::new(WireFormat::JsonLines).query(queries[0]);
    let frames = run_client(addr, request, Arc::clone(&doc), 4096, None);
    assert_frames_match(&frames, expected.clone(), None);
    victim.join().unwrap();

    // And the server keeps serving new sessions afterwards.
    let request = HandshakeRequest::new(WireFormat::Binary).query(queries[0]);
    let frames = run_client(addr, request, Arc::clone(&doc), 4096, None);
    assert_frames_match(&frames, expected, None);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.sessions_completed, 2, "both healthy sessions finished: {stats:?}");
    assert_eq!(stats.sessions_failed, 1, "the vanished client failed alone: {stats:?}");
    assert_eq!(stats.active, 0);
}

/// A poisoned session must release every borrowed egress refcount: a client
/// requests MiB-scale payloads, stalls without reading a byte (so the outbox
/// queues frames *borrowing* retention windows), then vanishes. The abort
/// path clears the outbox — dropping the borrows — before poisoning, so
/// retention stays bounded (`peak_retained` under budget) instead of the
/// dead outbox pinning evicted windows, and the server keeps serving.
#[test]
fn poisoned_session_releases_borrowed_egress_refcounts() {
    // 8 elements of ~256 KiB each: every frame borrows multiple windows.
    let elem = "y".repeat(256 << 10);
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for _ in 0..8 {
        doc.extend_from_slice(format!("<item><k>{elem}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");
    let doc = Arc::new(doc);
    let retain_budget = 4 << 20;

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(4).build());
    let server = TcpServer::builder()
        .max_outbox_bytes(1 << 20)
        .chunk_size(64 << 10)
        .window_size(64 << 10)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let request = HandshakeRequest::new(WireFormat::Binary)
            .query("//item/k")
            .retain_bytes(retain_budget as u64);
        register(&mut stream, &request).expect("handshake accepted");
        // Stream everything but never read a frame: borrowed payloads pile
        // up in the outbox until its cap (which counts borrowed bytes)
        // parks the fold.
        let _ = stream.write_all(&doc);
        std::thread::sleep(Duration::from_millis(200));
        drop(stream); // vanish abruptly: no half-close, frames unread
    }

    // The server must remain fully serviceable afterwards.
    let expected = batch_reference(&["//item/k"], &doc);
    let request = HandshakeRequest::new(WireFormat::Binary)
        .query("//item/k")
        .retain_bytes(retain_budget as u64);
    let frames = run_client(addr, request, Arc::clone(&doc), 64 << 10, None);
    assert_frames_match(&frames, expected, Some(&doc));

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.sessions_failed, 1, "the stalled client failed alone: {stats:?}");
    assert_eq!(stats.active, 0);
    for conn in &stats.connections {
        let Some(report) = conn.report.as_ref() else { continue };
        assert!(
            report.stats.peak_retained_bytes <= retain_budget,
            "borrowed frames must not pin retention past the budget: {} > {retain_budget}",
            report.stats.peak_retained_bytes
        );
    }
}

/// The shutdown regression: the old wake-up was a self-connect, which can
/// block against a saturated backlog exactly when the server is at
/// `max_connections`. Shutdown wakes the ingest thread through its eventfd,
/// so it must complete promptly even while the admission gate is fully
/// exhausted by an in-flight session.
#[test]
fn shutdown_completes_while_gate_exhausted_reactor() {
    let doc = Arc::new(make_doc(200));
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder()
        .max_connections(1)
        .chunk_size(256)
        .window_size(1024)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // The slot holder: registered and mid-stream, so the gate is exhausted
    // for the whole shutdown call.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    register(&mut stream, &request).expect("handshake accepted");
    stream.write_all(&doc[..doc.len() / 2]).expect("first half");

    let (tx, rx) = std::sync::mpsc::channel();
    let shutdown = std::thread::spawn(move || {
        let stats = server.shutdown();
        tx.send(()).ok();
        stats
    });
    // Give shutdown time to park: it must be draining the in-flight session,
    // not hanging in its own wake-up.
    std::thread::sleep(Duration::from_millis(150));
    assert!(rx.try_recv().is_err(), "shutdown drains the in-flight session first");

    // Let the session finish; shutdown must return promptly afterwards.
    let started = Instant::now();
    stream.write_all(&doc[doc.len() / 2..]).expect("second half");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut sink = Vec::new();
    stream.read_to_end(&mut sink).expect("drain frames");
    rx.recv_timeout(Duration::from_secs(20))
        .expect("shutdown completed while the gate was exhausted");
    assert!(started.elapsed() < Duration::from_secs(20));
    let stats = shutdown.join().expect("shutdown thread");
    assert_eq!(stats.accepted, 1, "no phantom wake-up connection was ever accepted");
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.active, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Interleaved readable/writable readiness orderings: clients write the
    /// handshake and stream in arbitrary fragment sizes while reading
    /// eagerly or lazily (lazy reads force POLLOUT exhaustion and interest
    /// flips). Whatever the interleaving, every client gets exactly the
    /// batch engine's matches with byte-identical payloads.
    #[test]
    fn readiness_orderings_preserve_frame_correctness(
        write_step in 1usize..600,
        read_lazy in any::<bool>(),
        binary in any::<bool>(),
        items in 20usize..80,
    ) {
        let doc = Arc::new(make_doc(items));
        let expected = batch_reference(&["//item/k"], &doc);
        let runtime = Arc::new(Runtime::builder().workers(1).inflight_chunks(2).build());
        let server = TcpServer::builder()
            .max_outbox_bytes(1 << 10)
            .chunk_size(128)
            .window_size(512)
            .bind("127.0.0.1:0", runtime)
            .expect("bind");
        let addr = server.local_addr();

        let format = if binary { WireFormat::Binary } else { WireFormat::JsonLines };
        let request = HandshakeRequest::new(format)
            .query("//item/k")
            .retain_bytes(64 << 10);
        let delay = read_lazy.then(|| Duration::from_millis(1));
        let frames = run_client(addr, request, Arc::clone(&doc), write_step, delay);
        assert_frames_match(&frames, expected, Some(&doc));

        let stats = server.shutdown();
        prop_assert_eq!(stats.sessions_completed, 1);
        prop_assert_eq!(stats.sessions_failed, 0);
    }
}
