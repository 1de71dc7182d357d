//! Shard scaling: serving throughput at 1 / 2 / 4 shards under 64
//! concurrent connections (binary framing, retention on).
//!
//! Every connection registers its own stream id, so the consistent-hash
//! ring spreads the 64 sessions over the shards; each measurement counts
//! the frames served so the bench gate catches match-count drift alongside
//! throughput regressions. On a single-CPU box the curve is flat (every
//! shard shares one core) — the committed baseline records that shape; on a
//! multi-core box shards scale the worker and join pools together.
//!
//! ```sh
//! cargo bench -p ppt-bench --bench shard
//! # record the committed baseline:
//! BENCH_SHARD_JSON=BENCH_shard.json cargo bench -p ppt-bench --bench shard
//! ```

use criterion::{BenchmarkId, Criterion, Throughput};
use ppt_runtime::serve::{register, TcpServer};
use ppt_runtime::{FrameDecoder, HandshakeRequest, Runtime, WireFormat};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const SHARD_SWEEP: [usize; 3] = [1, 2, 4];
const CONNS: usize = 64;
const RETAIN_BUDGET: u64 = 1 << 20;

fn dataset() -> Vec<u8> {
    ppt_bench::workloads::xmark(128 << 10)
}

fn queries() -> Vec<String> {
    ppt_datasets::xpathmark_queries().iter().take(2).map(|(_, q)| q.to_string()).collect()
}

fn bind_server(shards: usize) -> TcpServer {
    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(8).build());
    let mut builder =
        TcpServer::builder().max_connections(CONNS).chunk_size(64 << 10).window_size(256 << 10);
    if shards > 1 {
        builder = builder.shards(shards).shard_workers(2);
    }
    builder.bind("127.0.0.1:0", runtime).expect("bind loopback")
}

/// One client: registers under its own stream id, streams the whole
/// document, reads every frame to EOF, returns the frame count.
fn run_conn(addr: SocketAddr, stream_id: u64, queries: &[String], doc: &[u8]) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request =
        HandshakeRequest::new(WireFormat::Binary).retain_bytes(RETAIN_BUDGET).stream_id(stream_id);
    for q in queries {
        request = request.query(q);
    }
    register(&mut stream, &request).expect("handshake accepted");
    let writer_stream = stream.try_clone().expect("clone");
    std::thread::scope(|scope| {
        let handle = scope.spawn(move || {
            let mut writer_stream = writer_stream;
            for piece in doc.chunks(64 << 10) {
                if writer_stream.write_all(piece).is_err() {
                    return;
                }
            }
            let _ = writer_stream.shutdown(Shutdown::Write);
        });
        let mut decoder = FrameDecoder::new();
        let mut frames = 0u64;
        let mut buf = [0u8; 16 << 10];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    decoder.push(&buf[..n]);
                    while decoder.next_frame().expect("well-formed frame").is_some() {
                        frames += 1;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => panic!("client read failed: {e}"),
            }
        }
        decoder.finish().expect("clean close");
        handle.join().expect("writer thread");
        frames
    })
}

/// Streams the document over `CONNS` concurrent connections (distinct
/// stream ids, so the ring spreads them); returns the total frames served.
fn run_storm(addr: SocketAddr, queries: &[String], doc: &[u8]) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNS)
            .map(|id| scope.spawn(move || run_conn(addr, id as u64, queries, doc)))
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    })
}

fn bench_shard(c: &mut Criterion) {
    let doc = dataset();
    let queries = queries();
    let mut group = c.benchmark_group("shard");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for shards in SHARD_SWEEP {
        let server = bind_server(shards);
        let addr = server.local_addr();
        group.throughput(Throughput::Bytes((doc.len() * CONNS) as u64));
        group.bench_with_input(BenchmarkId::new("reactor", shards), &doc, |b, doc| {
            b.iter(|| run_storm(addr, &queries, doc))
        });
        drop(server);
    }
    group.finish();
}

/// Direct measurement used to record the committed `BENCH_shard.json`
/// baseline (mean of `iters` runs per configuration). The shard count is
/// emitted as `"shards"` — the gate comparator reads it as the point key.
fn write_baseline(path: &str) {
    let doc = dataset();
    let queries = queries();
    let iters = 3usize;
    let mut rows = Vec::new();
    for shards in SHARD_SWEEP {
        let server = bind_server(shards);
        let addr = server.local_addr();
        run_storm(addr, &queries, &doc); // warm-up
        let mib = (doc.len() * CONNS) as f64 / (1024.0 * 1024.0);
        let start = Instant::now();
        let mut matches = 0u64;
        for _ in 0..iters {
            matches = run_storm(addr, &queries, &doc);
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        let stats = server.shutdown();
        assert_eq!(stats.shards.len(), shards);
        rows.push(format!(
            "    {{\"mode\": \"reactor\", \"shards\": {shards}, \"mib_per_s\": {:.2}, \
             \"matches\": {matches}}}",
            mib / secs
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"shard\",\n  \"dataset\": \"xmark\",\n  \"dataset_bytes\": {},\n  \
         \"queries\": {},\n  \"conns\": {CONNS},\n  \"retention_budget\": {RETAIN_BUDGET},\n  \
         \"iters_per_point\": {iters},\n  \"results\": [\n{}\n  ]\n}}\n",
        doc.len(),
        queries.len(),
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("baseline written");
    println!("baseline written to {path}");
}

fn main() {
    let mut c = Criterion::default();
    bench_shard(&mut c);
    if let Ok(path) = std::env::var("BENCH_SHARD_JSON") {
        write_baseline(&path);
    }
}
