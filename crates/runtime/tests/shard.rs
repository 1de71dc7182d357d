//! Sharded serving: ring-placement properties (determinism, virtual-node
//! balance, ~1/N movement on membership change), end-to-end equivalence of
//! a 4-shard server against the single-runtime reactor in both wire
//! formats, per-shard stats, and the cross-process `shard::forward`
//! building block.

use ppt_core::Engine;
use ppt_runtime::serve::{register, TcpServer};
use ppt_runtime::shard::{forward, HashRing};
use ppt_runtime::{Frame, FrameDecoder, HandshakeRequest, Runtime, WireFormat};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

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

// ---------------------------------------------------------------------------
// Ring placement
// ---------------------------------------------------------------------------

#[test]
fn ring_placement_is_deterministic() {
    let a = HashRing::new(8, 64);
    let b = HashRing::new(8, 64);
    for id in (0..20_000u64).chain([u64::MAX, u64::MAX - 1, 1 << 40]) {
        assert_eq!(a.route(id), b.route(id), "stream {id} must place identically");
    }
}

#[test]
fn ring_balance_is_within_tolerance() {
    // 10k sequential stream ids (the worst realistic case: server-assigned
    // ids are consecutive) over 8 shards must spread within a modest factor
    // of the mean — that is what the virtual nodes buy.
    let shards = 8;
    let ring = HashRing::new(shards, 64);
    let mut counts = vec![0u64; shards];
    let ids = 10_000u64;
    for id in 0..ids {
        counts[ring.route(id)] += 1;
    }
    let mean = ids as f64 / shards as f64;
    let max = *counts.iter().max().unwrap() as f64;
    let min = *counts.iter().min().unwrap() as f64;
    assert!(min > 0.0, "no shard may be empty: {counts:?}");
    assert!(max / mean < 1.8, "overloaded shard: {counts:?} (max/mean {:.2})", max / mean);
    assert!(min / mean > 0.3, "starved shard: {counts:?} (min/mean {:.2})", min / mean);
}

#[test]
fn adding_a_shard_moves_about_one_nth_and_only_onto_the_new_shard() {
    let ids = 10_000u64;
    let before = HashRing::new(4, 64);
    let after = HashRing::new(5, 64);
    let mut moved = 0u64;
    for id in 0..ids {
        let (a, b) = (before.route(id), after.route(id));
        if a != b {
            moved += 1;
            // The defining consistent-hashing property: growing the ring
            // only moves streams *onto* the new shard; nothing reshuffles
            // between the surviving shards.
            assert_eq!(b, 4, "stream {id} moved {a}→{b}, not onto the new shard");
        }
    }
    let fraction = moved as f64 / ids as f64;
    // Ideal is 1/5; allow generous slack for hash variance.
    assert!(
        (0.08..0.35).contains(&fraction),
        "expected ~1/5 of streams to move, got {fraction:.3}"
    );
}

#[test]
fn removing_a_shard_moves_only_its_own_streams() {
    let ids = 10_000u64;
    let before = HashRing::new(5, 64);
    let after = HashRing::new(4, 64);
    let mut moved = 0u64;
    for id in 0..ids {
        let (a, b) = (before.route(id), after.route(id));
        if a != b {
            moved += 1;
            assert_eq!(a, 4, "stream {id} moved {a}→{b} but its shard was not removed");
        }
    }
    let fraction = moved as f64 / ids as f64;
    assert!(
        (0.08..0.35).contains(&fraction),
        "expected ~1/5 of streams to move, got {fraction:.3}"
    );
}

// ---------------------------------------------------------------------------
// End-to-end: sharded output ≡ single-runtime output
// ---------------------------------------------------------------------------

/// Streams `doc` through one registered connection and returns the decoded
/// frames plus the stream id the server confirmed.
fn run_client(addr: SocketAddr, request: HandshakeRequest, doc: &[u8]) -> (u64, Vec<Frame>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let reg = register(&mut stream, &request).expect("handshake accepted");
    let writer_stream = stream.try_clone().expect("clone");
    let doc_owned = doc.to_vec();
    let writer = std::thread::spawn(move || {
        let mut writer_stream = writer_stream;
        for piece in doc_owned.chunks(4096) {
            if writer_stream.write_all(piece).is_err() {
                return;
            }
        }
        let _ = writer_stream.shutdown(Shutdown::Write);
    });
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read frames to EOF");
    writer.join().expect("writer thread");
    (reg.stream_id, decode_frames(request.format, &raw))
}

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

/// The multiset of (query, start, end, payload) a frame list carries — the
/// byte-identity currency.
type FrameMultiset = HashMap<(u32, u64, u64, Option<Vec<u8>>), usize>;

fn frame_multiset(frames: &[Frame]) -> FrameMultiset {
    let mut set = HashMap::new();
    for f in frames {
        *set.entry((f.query, f.start, f.end, f.payload.clone())).or_insert(0usize) += 1;
    }
    set
}

#[test]
fn sharded_serving_is_byte_identical_to_single_runtime() {
    let queries = ["//item/k", "/stream/item/id"];
    let doc = make_doc(200);
    let expected = batch_reference(&queries, &doc);

    let bind = |shards: usize| {
        let runtime = Arc::new(Runtime::builder().workers(1).inflight_chunks(4).build());
        let mut builder = TcpServer::builder().chunk_size(512).window_size(4096);
        if shards > 1 {
            builder = builder.shards(shards).shard_workers(1);
        }
        builder.bind("127.0.0.1:0", runtime).expect("bind")
    };
    let single = bind(1);
    let sharded = bind(4);

    // Several streams per format, ids spread over the ring.
    let stream_ids = [3u64, 11, 42, 1000, 65537];
    for format in [WireFormat::JsonLines, WireFormat::Binary] {
        for &id in &stream_ids {
            let request = HandshakeRequest::new(format)
                .query(queries[0])
                .query(queries[1])
                .retain_bytes(1 << 20)
                .stream_id(id);
            let (_, single_frames) = run_client(single.local_addr(), request.clone(), &doc);
            let (_, sharded_frames) = run_client(sharded.local_addr(), request, &doc);
            assert!(!single_frames.is_empty());
            assert!(sharded_frames.iter().all(|f| f.stream == id));
            assert_eq!(
                frame_multiset(&single_frames),
                frame_multiset(&sharded_frames),
                "stream {id} ({format:?}): sharded output must be byte-identical"
            );
            // And both agree with the batch engine.
            let mut remaining = expected.clone();
            for f in &sharded_frames {
                let key = (f.query, f.start, f.end);
                let n = remaining.get_mut(&key).expect("frame matches a batch result");
                *n -= 1;
                if *n == 0 {
                    remaining.remove(&key);
                }
                let payload = f.payload.as_ref().expect("retention on: payload present");
                assert_eq!(
                    payload.as_slice(),
                    &doc[f.start as usize..f.end as usize],
                    "payload byte-identical to the stream slice"
                );
            }
            assert!(remaining.is_empty(), "batch matches never served: {remaining:?}");
        }
    }

    let stats = sharded.shutdown();
    let placed = (stream_ids.len() * 2) as u64;
    assert_eq!(stats.shards.len(), 4, "one ShardStats entry per shard");
    assert_eq!(stats.router.placements, placed);
    assert!(stats.router.ring_lookups >= placed);
    assert!(stats.router.imbalance >= 1.0);
    assert_eq!(
        stats.shards.iter().map(|s| s.sessions).sum::<u64>(),
        placed,
        "per-shard sessions sum to the placements"
    );
    assert_eq!(
        stats.shards.iter().map(|s| s.frames_out).sum::<u64>(),
        stats.frames_out,
        "per-shard frames sum to the server total"
    );
    assert!(
        stats.shards.iter().filter(|s| s.sessions > 0).all(|s| s.matches > 0),
        "shards that served sessions saw their matches: {:?}",
        stats.shards
    );
    assert!(
        stats.shards.iter().filter(|s| s.sessions > 0).all(|s| s.peak_retained_bytes > 0),
        "retention accounting is per shard: {:?}",
        stats.shards
    );
    assert!(stats.shards.iter().all(|s| s.active_sessions == 0));

    let single_stats = single.shutdown();
    assert_eq!(single_stats.shards.len(), 1, "an unsharded server reports one shard");
    assert_eq!(single_stats.router.placements, placed);
}

// ---------------------------------------------------------------------------
// Cross-process forwarding
// ---------------------------------------------------------------------------

#[test]
fn forward_relays_a_stream_byte_identically() {
    let queries = ["//item/k", "/stream/item/id"];
    let doc = make_doc(150);

    let runtime = Arc::new(Runtime::builder().workers(1).inflight_chunks(4).build());
    let remote = TcpServer::builder()
        .chunk_size(512)
        .window_size(4096)
        .bind("127.0.0.1:0", runtime)
        .expect("bind remote");

    // The reference: a direct connection to the same server.
    let request = HandshakeRequest::new(WireFormat::Binary)
        .query(queries[0])
        .query(queries[1])
        .retain_bytes(1 << 20)
        .stream_id(77);
    let (_, direct) = run_client(remote.local_addr(), request.clone(), &doc);

    // The forwarded topology: the stream reaches the remote through the
    // shard::forward building block instead.
    let mut relayed = Vec::new();
    let report =
        forward(remote.local_addr(), &request, &doc[..], &mut relayed).expect("forward succeeds");
    assert_eq!(report.stream_id, 77);
    assert_eq!(report.query_ids, vec![0, 1]);
    assert_eq!(report.bytes_up, doc.len() as u64);
    assert_eq!(report.bytes_down, relayed.len() as u64);

    let forwarded = decode_frames(WireFormat::Binary, &relayed);
    assert!(!forwarded.is_empty());
    assert_eq!(
        frame_multiset(&direct),
        frame_multiset(&forwarded),
        "a forwarded stream must be byte-identical to a direct one"
    );

    // A forward without a stream id learns the remote's assignment.
    let request = HandshakeRequest::new(WireFormat::Binary).query(queries[0]);
    let mut relayed = Vec::new();
    let report =
        forward(remote.local_addr(), &request, &doc[..], &mut relayed).expect("forward succeeds");
    assert_ne!(report.stream_id, 0, "the remote assigned a unique id");
    let forwarded = decode_frames(WireFormat::Binary, &relayed);
    assert!(forwarded.iter().all(|f| f.stream == report.stream_id));

    let stats = remote.shutdown();
    assert_eq!(stats.sessions_completed, 3);
}

// ---------------------------------------------------------------------------
// Shared-stream placement stability
// ---------------------------------------------------------------------------

/// Subscribers of one shared stream account on the same shard as the stream's
/// owner: placement is deterministic in the stream id, so an attach never
/// scatters a stream's connections across shards.
#[test]
fn shared_stream_subscribers_place_on_the_owners_shard() {
    let doc = make_doc(80);

    let runtime = Arc::new(Runtime::builder().workers(1).inflight_chunks(4).build());
    let server = TcpServer::builder()
        .shards(4)
        .shard_workers(1)
        .chunk_size(512)
        .window_size(4096)
        .bind("127.0.0.1:0", runtime)
        .expect("bind");
    let addr = server.local_addr();

    // Owner registers but holds its bytes until both subscribers attached.
    let mut owner = TcpStream::connect(addr).expect("owner connect");
    let owner_req = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k").stream_id(21);
    let reg = register(&mut owner, &owner_req).expect("owner accepted");
    assert!(!reg.attached);

    let mut readers = Vec::new();
    for _ in 0..2 {
        let mut sub = TcpStream::connect(addr).expect("subscriber connect");
        let sub_req =
            HandshakeRequest::new(WireFormat::JsonLines).query("/stream/item/id").stream_id(21);
        let sub_reg = register(&mut sub, &sub_req).expect("attach accepted");
        assert!(sub_reg.attached, "same live id attaches");
        readers.push(std::thread::spawn(move || {
            let mut raw = Vec::new();
            sub.read_to_end(&mut raw).expect("drain subscriber");
            decode_frames(WireFormat::JsonLines, &raw).len()
        }));
    }

    owner.write_all(&doc).expect("owner stream");
    owner.shutdown(Shutdown::Write).expect("owner half-close");
    let mut raw = Vec::new();
    owner.read_to_end(&mut raw).expect("drain owner");
    assert!(!decode_frames(WireFormat::JsonLines, &raw).is_empty());
    for reader in readers {
        assert!(reader.join().expect("subscriber reader") > 0);
    }

    let stats = server.shutdown();
    assert_eq!(stats.connections.len(), 3, "owner + two subscribers recorded");
    let shards: Vec<usize> = stats.connections.iter().map(|c| c.shard).collect();
    assert!(
        shards.iter().all(|&s| s == shards[0]),
        "all connections of stream 21 share one shard, got {shards:?}"
    );
    // Exactly one placement per connection, all on the owner's shard.
    assert_eq!(stats.router.placements, 3);
}
