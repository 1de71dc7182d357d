//! The TCP serving front-end, exercised over real localhost sockets: the
//! query-registration handshake (well-formed, malformed, fragmented),
//! end-to-end frame correctness against the batch engine, structured
//! rejections, per-session failure isolation, backpressure bounding
//! retention for slow clients, and the client helpers against hostile
//! servers.

use ppt_core::Engine;
use ppt_runtime::serve::{register, scrape, ClientError, TcpServer};
use ppt_runtime::{Frame, FrameDecoder, HandshakeDecoder, HandshakeRequest, Runtime, WireFormat};
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
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

/// Connects, registers, streams `doc` from a writer thread, and collects
/// every response frame until EOF (optionally dawdling between reads).
fn run_client(
    addr: SocketAddr,
    request: HandshakeRequest,
    doc: Arc<Vec<u8>>,
    read_delay: Option<Duration>,
) -> Vec<Frame> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let reg = register(&mut stream, &request).expect("handshake accepted");
    assert_eq!(reg.query_ids.len(), request.queries.len(), "one id per registered query");
    assert_eq!(reg.query_ids, (0..request.queries.len() as u32).collect::<Vec<u32>>());
    if let Some(requested) = request.stream_id {
        assert_eq!(reg.stream_id, requested, "the OK line echoes the requested stream id");
    } else {
        assert_ne!(reg.stream_id, 0, "a default handshake gets a server-assigned nonzero id");
    }

    let format = request.format;
    let writer_stream = stream.try_clone().expect("clone for writer");
    let writer = std::thread::spawn(move || {
        let mut writer_stream = writer_stream;
        // Arbitrary write sizes: the splitter must not care.
        for piece in doc.chunks(4096) {
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

    match format {
        WireFormat::JsonLines => {
            let text = std::str::from_utf8(&raw).expect("wire JSON is ASCII");
            text.lines().map(|l| Frame::decode_json(l).expect("every line parses")).collect()
        }
        WireFormat::Binary => {
            let mut decoder = FrameDecoder::new();
            decoder.push(&raw);
            let mut frames = Vec::new();
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                frames.push(frame);
            }
            // A clean close must not leave a half-written frame behind.
            decoder.finish().expect("no truncated tail on a clean close");
            frames
        }
    }
}

/// Asserts `frames` carry exactly the batch matches, with byte-identical
/// payloads when `doc` retention was on.
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

/// The end-to-end equivalence run: a JSON-lines and a binary client served
/// concurrently, both byte-identical to the batch engine.
#[test]
fn serves_json_and_binary_clients_concurrently_reactor() {
    let queries = ["//item/k", "/stream/item/id"];
    let doc = Arc::new(make_doc(300));
    let expected = batch_reference(&queries, &doc);

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(8).build());
    let server = TcpServer::builder()
        .chunk_size(512)
        .window_size(4096)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for (stream_id, format) in [(7u64, WireFormat::JsonLines), (9, WireFormat::Binary)] {
        let doc = Arc::clone(&doc);
        let request = HandshakeRequest::new(format)
            .query(queries[0])
            .query(queries[1])
            .retain_bytes(1 << 20)
            .stream_id(stream_id);
        clients.push(std::thread::spawn(move || (stream_id, run_client(addr, request, doc, None))));
    }
    for client in clients {
        let (stream_id, frames) = client.join().expect("client thread");
        assert!(!frames.is_empty());
        assert!(frames.iter().all(|f| f.stream == stream_id), "frames carry the stream id");
        assert_frames_match(&frames, expected.clone(), Some(&doc));
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 2);
    assert_eq!(stats.sessions_completed, 2);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.connections.len(), 2);
    for conn in &stats.connections {
        let report = conn.report.as_ref().expect("clean close keeps the report");
        assert!(report.error.is_none());
        assert_eq!(report.stats.payload_misses, 0);
        assert_eq!(conn.queries, queries);
    }
    let reactor = stats.reactor;
    assert!(reactor.polls > 0, "the loop polled: {reactor:?}");
    assert!(reactor.wakeups > 0, "credit returns woke the loop: {reactor:?}");
    assert!(reactor.readiness_dispatches > 0, "sockets reported readiness: {reactor:?}");
    // The wake fd and the listener are registered for the server's whole
    // life, so at least one connection beside them is the floor.
    assert!(reactor.peak_registered_fds >= 3, "{reactor:?}");
}

#[test]
fn malformed_handshakes_get_structured_rejections_and_server_survives() {
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::bind("127.0.0.1:0", runtime).expect("bind");
    let addr = server.local_addr();

    // A wrong-protocol client is answered, not dropped.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"GET / HTTP/1.1\r\n").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("ERR "), "structured rejection, got {reply:?}");
    assert!(reply.contains("PPT/1"), "the reason names the expected grammar: {reply:?}");

    // A bad query is rejected with the parser's message over the wire.
    let mut stream = TcpStream::connect(addr).unwrap();
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("/a[unclosed");
    match register(&mut stream, &request) {
        Err(ClientError::Rejected(reason)) => {
            assert!(reason.contains("/a[unclosed"), "echoes the query: {reason}");
        }
        other => panic!("expected a rejection, got {other:?}"),
    }

    // A connection killed mid-handshake harms nobody.
    let stream = TcpStream::connect(addr).unwrap();
    drop(stream);

    // The server still serves a well-behaved client after all that.
    let doc = Arc::new(make_doc(50));
    let expected = batch_reference(&["//item/k"], &doc);
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    let frames = run_client(addr, request, Arc::clone(&doc), None);
    assert_frames_match(&frames, expected, None);

    let stats = server.shutdown();
    assert!(stats.handshake_rejects >= 2, "rejects counted: {stats:?}");
    assert_eq!(stats.sessions_completed, 1);
}

#[test]
fn handshake_deadline_rejects_trickling_clients() {
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder()
        .handshake_timeout(Some(Duration::from_millis(200)))
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // A slowloris: each byte lands well inside a per-read timeout, but the
    // handshake as a whole never finishes — the *deadline* must fire.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"PPT/1 ").unwrap();
    std::thread::sleep(Duration::from_millis(80));
    stream.write_all(b"j").unwrap();
    // Stop writing before the server closes (a write into a closed socket
    // would RST away the reply we want to observe) and outlive the deadline.
    std::thread::sleep(Duration::from_millis(250));
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(
        reply.starts_with("ERR") && reply.contains("timed out"),
        "structured timeout rejection, got {reply:?}"
    );

    let stats = server.shutdown();
    assert_eq!(stats.handshake_rejects, 1);
    assert_eq!(stats.sessions_completed + stats.sessions_failed, 0);
}

#[test]
fn a_connection_killed_mid_stream_poisons_only_its_own_session() {
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
    // reading a frame — on close the unread response data turns into a
    // connection reset the server must absorb.
    let victim_doc = Arc::clone(&doc);
    let victim = std::thread::spawn(move || {
        let mut stream = TcpStream::connect(addr).unwrap();
        let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
        register(&mut stream, &request).expect("handshake accepted");
        let _ = stream.write_all(&victim_doc[..victim_doc.len() / 2]);
        // Give the server a moment to produce frames we will never read.
        std::thread::sleep(Duration::from_millis(100));
        drop(stream); // no half-close: an abrupt disappearance
    });

    // The bystander: a full, well-behaved session running concurrently.
    let request = HandshakeRequest::new(WireFormat::JsonLines).query(queries[0]);
    let frames = run_client(addr, request, Arc::clone(&doc), None);
    assert_frames_match(&frames, expected.clone(), None);
    victim.join().unwrap();

    // And the server keeps serving new sessions afterwards.
    let request = HandshakeRequest::new(WireFormat::Binary).query(queries[0]);
    let frames = run_client(addr, request, Arc::clone(&doc), None);
    assert_frames_match(&frames, expected, None);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 3);
    assert_eq!(stats.sessions_completed, 2, "both healthy sessions finished: {stats:?}");
    assert_eq!(stats.active, 0);
}

#[test]
fn slow_client_backpressure_bounds_retention_under_its_budget() {
    let doc = Arc::new(make_doc(2000));
    let expected = batch_reference(&["//item/k"], &doc);
    let budget = 16 << 10;

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(2).build());
    let server = TcpServer::builder()
        .chunk_size(512)
        .window_size(2048)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    let request =
        HandshakeRequest::new(WireFormat::JsonLines).query("//item/k").retain_bytes(budget as u64);
    let frames = run_client(addr, request, Arc::clone(&doc), Some(Duration::from_millis(2)));
    assert_frames_match(&frames, expected, Some(&doc));

    let stats = server.shutdown();
    let conn = &stats.connections[0];
    let report = conn.report.as_ref().expect("session completed");
    assert!(
        report.stats.peak_retained_bytes <= budget,
        "retention stayed under the client's budget: {} > {budget}",
        report.stats.peak_retained_bytes
    );
    assert_eq!(report.stats.payload_misses, 0);
    assert_eq!(conn.frames, frames.len() as u64);
}

/// Regression (stream-id collisions): two connections that omit `STREAM`
/// used to both get stream 0 — indistinguishable to a consumer aggregating
/// several connections. The server must assign distinct, nonzero ids, echo
/// them in the `OK` line, and stamp them on every frame.
#[test]
fn default_handshakes_get_distinct_stream_ids_reactor() {
    let doc = Arc::new(make_doc(40));
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder().bind("127.0.0.1:0", runtime).expect("bind");
    let addr = server.local_addr();

    let mut seen = Vec::new();
    for _ in 0..2 {
        let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
        assert_eq!(request.stream_id, None, "no STREAM line in this handshake");
        let frames = run_client(addr, request, Arc::clone(&doc), None);
        assert!(!frames.is_empty());
        let id = frames[0].stream;
        assert_ne!(id, 0, "assigned ids are never 0");
        assert!(frames.iter().all(|f| f.stream == id), "one id per connection");
        seen.push(id);
    }
    assert_ne!(seen[0], seen[1], "two default handshakes must get distinct stream ids");

    let stats = server.shutdown();
    let reported: Vec<u64> = stats.connections.iter().map(|c| c.stream_id).collect();
    assert_eq!(reported.len(), 2);
    assert_ne!(reported[0], reported[1], "reports carry the assigned ids too");
}

/// Regression (post-handshake liveness): a client that registers and then
/// goes silent — no FIN, no bytes, never reads — used to hold its session,
/// its gate credit and its retention forever; the deadline machinery only
/// covered the handshake phase. With `idle_timeout` set, the session is
/// poisoned (alone) and the admission slot comes back.
#[test]
fn silent_client_is_timed_out_and_frees_its_slot_reactor() {
    let doc = Arc::new(make_doc(60));
    let expected = batch_reference(&["//item/k"], &doc);

    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder()
        .max_connections(1) // the silent client holds the only slot
        .idle_timeout(Some(Duration::from_millis(200)))
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // The silent client: registers, then does nothing at all. Keep the
    // socket alive for the whole test — the server must act on the
    // *timeout*, not on a close it never receives.
    let mut silent = TcpStream::connect(addr).expect("connect");
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    register(&mut silent, &request).expect("handshake accepted");

    // A well-behaved client behind it: it can only be admitted once the
    // idle timeout frees the silent client's gate credit.
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    let frames = run_client(addr, request, Arc::clone(&doc), None);
    assert_frames_match(&frames, expected, None);

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 1, "the live client finished: {stats:?}");
    assert_eq!(stats.sessions_failed, 1, "the silent client was failed: {stats:?}");
    assert_eq!(stats.active, 0);
    let failed = stats
        .connections
        .iter()
        .find(|c| c.read_error.is_some() || c.write_error.is_some())
        .expect("the timed-out connection left a report");
    let error = failed
        .read_error
        .clone()
        .or_else(|| failed.write_error.clone())
        .unwrap_or_default()
        .to_lowercase();
    assert!(
        error.contains("idle") || error.contains("timed out") || error.contains("timeout"),
        "the report names the liveness timeout: {error:?}"
    );
    drop(silent);
}

/// A document whose `//item/k` matches are sparse relative to its bytes
/// (a ~200-byte pad per item), so multi-MiB pipeline runs don't drown the
/// test in frame traffic.
fn make_sparse_doc(items: usize) -> Vec<u8> {
    let pad = "x".repeat(200);
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..items {
        doc.extend_from_slice(
            format!("<item><pad>{pad}</pad><k>element {i}</k></item>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</stream>");
    doc
}

/// Regression (idle timeout vs pipeline stall): a *live* client whose
/// connection stalls because the shard is busy with ANOTHER session's
/// chunks — its feeder blocked on in-flight credits, its outbox empty, so
/// neither a read nor a write can possibly happen on its socket — must NOT
/// be timed out: the stall is the server's, not the client's. (A client
/// whose own outbox is backed up is the opposite case: it is not draining
/// its frames, which is indistinguishable from death and IS timed out.)
#[test]
fn pipeline_stalled_live_client_is_not_idle_killed() {
    let idle = Duration::from_millis(200);
    let doc = Arc::new(make_sparse_doc(16_000));
    let expected = batch_reference(&["//item/k"], &doc);

    // One worker, 1 MiB chunks, three hog sessions each holding four
    // in-flight chunks: the victim's first chunk queues behind up to a
    // dozen megabyte-sized transduces, which holds the shard's only worker
    // for far longer than the idle timeout (debug-profile speeds). On a
    // much faster box the stall may stay under the timeout — the test then
    // passes trivially rather than flaking.
    let runtime = Arc::new(Runtime::builder().workers(1).inflight_chunks(4).build());
    let server = TcpServer::builder()
        .chunk_size(1 << 20)
        .window_size(2 << 20)
        .idle_timeout(Some(idle))
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // The hogs: ordinary clients that read their frames promptly (their
    // own stalls are pipeline-side too — the guard must protect them as
    // well).
    let hogs: Vec<_> = (0..3)
        .map(|_| {
            let hog_doc = Arc::clone(&doc);
            let hog_expected = expected.clone();
            std::thread::spawn(move || {
                let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
                let frames = run_client(addr, request, hog_doc, None);
                assert_frames_match(&frames, hog_expected, None);
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(50));

    // The victim: registers second, streams its whole document, then sits
    // with the write half open (a live stream with nothing more to say)
    // while its chunks queue behind the hog's. No frame can be produced
    // for it during the stall, so there is no socket activity to reset the
    // clock — only the pipeline-stall exemption keeps it alive.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    register(&mut stream, &request).expect("handshake accepted");
    let saw_frame = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer_doc = Arc::clone(&doc);
    let writer_saw = Arc::clone(&saw_frame);
    let writer_stream = stream.try_clone().expect("clone");
    let writer = std::thread::spawn(move || {
        let mut writer_stream = writer_stream;
        let _ = writer_stream.write_all(&writer_doc);
        // Hold the write half open until frames prove the stall is over,
        // so the connection stays in the streaming phase throughout it.
        // The deadline only exists so a regression (the victim killed, no
        // frame ever arriving) fails the test instead of hanging it.
        let bail = std::time::Instant::now() + Duration::from_secs(30);
        while !writer_saw.load(std::sync::atomic::Ordering::Acquire)
            && std::time::Instant::now() < bail
        {
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = writer_stream.shutdown(Shutdown::Write);
    });
    let mut raw = Vec::new();
    let mut buf = [0u8; 16 << 10];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                raw.extend_from_slice(&buf[..n]);
                saw_frame.store(true, std::sync::atomic::Ordering::Release);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => panic!("victim read failed: {e}"),
        }
    }
    writer.join().expect("writer thread");
    let text = std::str::from_utf8(&raw).expect("wire JSON is ASCII");
    let frames: Vec<Frame> =
        text.lines().map(|l| Frame::decode_json(l).expect("every line parses")).collect();
    assert_frames_match(&frames, expected, None);
    for hog in hogs {
        hog.join().expect("hog client");
    }

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 4, "all live clients finished: {stats:?}");
    assert_eq!(
        stats.sessions_failed, 0,
        "a pipeline stall must not read as client death: {stats:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary garbage pushed at arbitrary fragmentation must never panic
    /// the handshake decoder: every outcome is a parsed request, a demand
    /// for more bytes, or a structured error.
    #[test]
    fn handshake_decoder_survives_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..200),
        step in 1usize..17,
    ) {
        let mut decoder = HandshakeDecoder::with_limits(64, 4);
        let mut outcome_ok = 0usize;
        for piece in bytes.chunks(step) {
            match decoder.push(piece) {
                Ok(Some(req)) => {
                    outcome_ok += 1;
                    prop_assert!(!req.queries.is_empty());
                }
                Ok(None) => {}
                Err(e) => {
                    // Structured and single-line, ready for an ERR reply.
                    let msg = e.to_string();
                    prop_assert!(!msg.is_empty());
                    prop_assert!(!msg.contains('\n'));
                }
            }
        }
        prop_assert!(outcome_ok <= 1);
    }

    /// A valid handshake interleaved into random fragment sizes always
    /// parses to the same request, and the remainder is exactly the bytes
    /// after GO.
    #[test]
    fn handshake_decoder_is_fragmentation_invariant(
        step in 1usize..23,
        retain in 1u64..1_000_000,
        stream_id in 0u64..1 << 52, // ids above are reserved for assignment
        tail in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let request = HandshakeRequest::new(WireFormat::Binary)
            .query("/s/cs/c/a")
            .query("//k")
            .retain_bytes(retain)
            .stream_id(stream_id);
        let mut encoded = request.encode();
        encoded.extend_from_slice(&tail);

        let mut decoder = HandshakeDecoder::new();
        let mut parsed = None;
        for piece in encoded.chunks(step) {
            if let Some(req) = decoder.push(piece).expect("valid handshake") {
                prop_assert!(parsed.is_none());
                parsed = Some(req);
            }
        }
        prop_assert_eq!(parsed.as_ref(), Some(&request));
        prop_assert_eq!(decoder.take_remainder(), tail);
    }
}

// --- Shared streams over real sockets (PR 9) --------------------------------

/// Reads a connection to EOF and decodes every frame in `format`.
fn read_frames(mut stream: TcpStream, format: WireFormat) -> Vec<Frame> {
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read to EOF");
    match format {
        WireFormat::JsonLines => {
            let text = std::str::from_utf8(&raw).expect("wire JSON is ASCII");
            text.lines().map(|l| Frame::decode_json(l).expect("every line parses")).collect()
        }
        WireFormat::Binary => {
            let mut decoder = FrameDecoder::new();
            decoder.push(&raw);
            let mut frames = Vec::new();
            while let Some(frame) = decoder.next_frame().expect("well-formed frames") {
                frames.push(frame);
            }
            decoder.finish().expect("no truncated tail on a clean close");
            frames
        }
    }
}

/// One owner feeds, a second connection names the same stream id and rides
/// the owner's transducer pass: `OK ATTACH`, connection-local query ids, and
/// frames byte-identical to what a private engine over the same queries
/// would have produced — including retained payload slices.
#[test]
fn late_attacher_shares_the_stream_reactor() {
    let owner_queries = ["//item/k", "/stream/item/id"];
    // Overlaps the owner on one query, adds one of its own, and numbers them
    // in its own order: local ids, not the merged automaton's.
    let sub_queries = ["/stream/item/id", "//item"];
    let doc = Arc::new(make_doc(200));
    let owner_expected = batch_reference(&owner_queries, &doc);
    let sub_expected = batch_reference(&sub_queries, &doc);

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(8).build());
    let server = TcpServer::builder()
        .chunk_size(512)
        .window_size(4096)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // The owner registers stream 42 but holds its bytes until the subscriber
    // is attached, so both see the whole stream and the frame multisets are
    // exactly the batch reference.
    let mut owner = TcpStream::connect(addr).expect("owner connect");
    let owner_req = HandshakeRequest::new(WireFormat::JsonLines)
        .query(owner_queries[0])
        .query(owner_queries[1])
        .retain_bytes(1 << 20)
        .stream_id(42);
    let reg = register(&mut owner, &owner_req).expect("owner accepted");
    assert!(!reg.attached, "the first connection owns the stream");
    assert_eq!(reg.stream_id, 42);

    let sub = {
        let mut sub = TcpStream::connect(addr).expect("subscriber connect");
        let sub_req = HandshakeRequest::new(WireFormat::Binary)
            .query(sub_queries[0])
            .query(sub_queries[1])
            .stream_id(42);
        let sub_reg = register(&mut sub, &sub_req).expect("attach accepted");
        assert!(sub_reg.attached, "naming a live stream id attaches to it");
        assert_eq!(sub_reg.stream_id, 42);
        assert_eq!(sub_reg.query_ids, vec![0, 1], "ids are connection-local");
        sub
    };
    let sub_reader = std::thread::spawn(move || read_frames(sub, WireFormat::Binary));

    for piece in doc.chunks(4096) {
        owner.write_all(piece).expect("owner write");
    }
    owner.shutdown(Shutdown::Write).expect("owner half-close");
    let owner_frames = read_frames(owner, WireFormat::JsonLines);
    assert_frames_match(&owner_frames, owner_expected, Some(&doc));

    // The owner's EOF finishes the shared stream, which closes the
    // subscriber connection too — no explicit teardown from the subscriber.
    let sub_frames = sub_reader.join().expect("subscriber reader");
    assert!(!sub_frames.is_empty());
    assert!(sub_frames.iter().all(|f| f.stream == 42), "frames carry the shared stream id");
    assert_frames_match(&sub_frames, sub_expected, Some(&doc));

    let stats = server.shutdown();
    assert_eq!(stats.connections.len(), 2, "both connections were recorded");
    let attached = stats.connections.iter().find(|c| c.format == WireFormat::Binary).unwrap();
    assert!(attached.write_error.is_none(), "{:?}", attached.write_error);
    let report = attached.report.as_ref().expect("attached connections report too");
    assert!(report.error.is_none());
    assert_eq!(report.stats.dropped_matches, 0, "a draining subscriber sheds nothing");
}

/// An attach batch with a malformed query is refused with the same `ERR`
/// shape a fresh handshake would get, and the incumbent stream is unharmed.
#[test]
fn attach_with_a_bad_query_is_rejected_reactor() {
    let queries = ["//item/k"];
    let doc = Arc::new(make_doc(60));
    let expected = batch_reference(&queries, &doc);

    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder().bind("127.0.0.1:0", runtime).expect("bind");
    let addr = server.local_addr();

    let mut owner = TcpStream::connect(addr).expect("owner connect");
    let owner_req = HandshakeRequest::new(WireFormat::JsonLines)
        .query(queries[0])
        .retain_bytes(1 << 20)
        .stream_id(43);
    register(&mut owner, &owner_req).expect("owner accepted");

    let mut bad = TcpStream::connect(addr).expect("bad connect");
    let bad_req = HandshakeRequest::new(WireFormat::JsonLines).query("//item[").stream_id(43);
    let err = register(&mut bad, &bad_req).expect_err("malformed query refused");
    match err {
        ClientError::Rejected(reason) => assert!(!reason.is_empty()),
        other => panic!("expected a structured rejection, got {other:?}"),
    }

    // The stream the reject bounced off still serves its owner losslessly.
    for piece in doc.chunks(4096) {
        owner.write_all(piece).expect("owner write");
    }
    owner.shutdown(Shutdown::Write).expect("owner half-close");
    let owner_frames = read_frames(owner, WireFormat::JsonLines);
    assert_frames_match(&owner_frames, expected, Some(&doc));
    server.shutdown();
}

/// Once the owner finishes, the id names nothing: the next connection with
/// the same id is a fresh owner, not an attacher.
#[test]
fn a_finished_stream_id_is_reusable_reactor() {
    let queries = ["//item/k"];
    let doc = Arc::new(make_doc(40));
    let expected = batch_reference(&queries, &doc);

    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server = TcpServer::builder().bind("127.0.0.1:0", runtime).expect("bind");
    let addr = server.local_addr();

    for round in 0..2 {
        let request = HandshakeRequest::new(WireFormat::JsonLines)
            .query(queries[0])
            .retain_bytes(1 << 20)
            .stream_id(44);
        let mut conn = TcpStream::connect(addr).expect("connect");
        let reg = register(&mut conn, &request).expect("accepted");
        assert!(!reg.attached, "round {round}: a dead id makes a fresh owner");
        for piece in doc.chunks(4096) {
            conn.write_all(piece).expect("write");
        }
        conn.shutdown(Shutdown::Write).expect("half-close");
        let frames = read_frames(conn, WireFormat::JsonLines);
        assert_frames_match(&frames, expected.clone(), Some(&doc));
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The client helpers against a hostile server
// ---------------------------------------------------------------------------

/// A fake server for one `STATS` handshake: reads the request, writes
/// `reply`, and holds the connection open until `close` fires — so a client
/// that waits for bytes the reply promised would hang, not fail.
fn fake_stats_server(
    reply: &'static [u8],
) -> (SocketAddr, std::sync::mpsc::Sender<()>, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (close, closed) = std::sync::mpsc::channel::<()>();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let request = HandshakeRequest::stats().encode();
        let mut seen = vec![0u8; request.len()];
        stream.read_exact(&mut seen).expect("read the STATS request");
        stream.write_all(reply).expect("reply");
        let _ = closed.recv_timeout(Duration::from_secs(30));
    });
    (addr, close, server)
}

#[test]
fn scrape_refuses_a_page_length_it_cannot_trust() {
    let (addr, close, server) = fake_stats_server(b"OK STATS 18446744073709551615\n");
    let started = Instant::now();
    let result = scrape(addr);
    assert!(started.elapsed() < Duration::from_secs(5), "refused without reading the page");
    match result {
        Err(ClientError::BadReply(line)) => assert!(line.contains("18446744073709551615")),
        other => panic!("a huge claimed length must be refused: {other:?}"),
    }
    let _ = close.send(());
    server.join().expect("fake server");
}

#[test]
fn scrape_reports_a_truncated_page_as_an_error() {
    let (addr, close, server) = fake_stats_server(b"OK STATS 100\n# HELP ppt_x");
    // The peer closes after ten of the hundred promised bytes.
    let _ = close.send(());
    let started = Instant::now();
    let result = scrape(addr);
    assert!(started.elapsed() < Duration::from_secs(5), "EOF ends the read");
    match result {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
        other => panic!("a truncated page must be an error: {other:?}"),
    }
    server.join().expect("fake server");
}
