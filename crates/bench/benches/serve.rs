//! Serving-path scaling: server throughput as the connection count grows
//! (1 / 8 / 64 concurrent clients over loopback, binary framing, retention
//! on), plus one large-payload point.
//!
//! Each measurement streams the same XMark document over every connection
//! concurrently and counts the frames served, so the bench gate can catch
//! both throughput regressions and match-count drift. Rows keep the
//! `"reactor"` mode name the committed baseline is keyed by.
//!
//! ```sh
//! cargo bench -p ppt-bench --bench serve
//! # record the committed baseline:
//! BENCH_SERVE_JSON=BENCH_serve.json cargo bench -p ppt-bench --bench serve
//! ```

use criterion::{BenchmarkId, Criterion, Throughput};
use ppt_runtime::serve::{register, TcpServer};
use ppt_runtime::{FrameDecoder, HandshakeRequest, Runtime, WireFormat};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const CONN_SWEEP: [usize; 3] = [1, 8, 64];
const RETAIN_BUDGET: u64 = 1 << 20;
/// The large-payload point: 64 elements of 256 KiB each — every frame
/// carries a ≥ 64 KiB payload, so the zero-copy vectored egress is measured
/// end-to-end. 16 MiB per pass keeps a single measurement long enough to be
/// stable under the gate.
const LARGE_ELEMS: usize = 64;
const LARGE_ELEM_BYTES: usize = 256 << 10;

fn dataset() -> Vec<u8> {
    ppt_bench::workloads::xmark(128 << 10)
}

fn large_dataset() -> Vec<u8> {
    ppt_bench::workloads::large_elements(LARGE_ELEMS, LARGE_ELEM_BYTES)
}

fn large_queries() -> Vec<String> {
    vec!["//item/desc".to_string()]
}

fn queries() -> Vec<String> {
    ppt_datasets::xpathmark_queries().iter().take(2).map(|(_, q)| q.to_string()).collect()
}

fn bind_server(conns: usize) -> TcpServer {
    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(8).build());
    TcpServer::builder()
        .max_connections(conns)
        .chunk_size(64 << 10)
        .window_size(256 << 10)
        .bind("127.0.0.1:0", runtime)
        .expect("bind loopback")
}

/// One client: registers, streams the whole document, reads every frame to
/// EOF, returns the frame count.
fn run_conn(addr: SocketAddr, queries: &[String], doc: &[u8]) -> u64 {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut request = HandshakeRequest::new(WireFormat::Binary).retain_bytes(RETAIN_BUDGET);
    for q in queries {
        request = request.query(q);
    }
    register(&mut stream, &request).expect("handshake accepted");
    let writer_stream = stream.try_clone().expect("clone");
    let writer = std::thread::scope(|scope| {
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
    });
    writer
}

/// Streams the document over `conns` concurrent connections; returns the
/// total frames served.
fn run_storm(addr: SocketAddr, conns: usize, queries: &[String], doc: &[u8]) -> u64 {
    std::thread::scope(|scope| {
        let handles: Vec<_> =
            (0..conns).map(|_| scope.spawn(move || run_conn(addr, queries, doc))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).sum()
    })
}

fn bench_serve(c: &mut Criterion) {
    let doc = dataset();
    let queries = queries();
    let mut group = c.benchmark_group("serve");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    for conns in CONN_SWEEP {
        let server = bind_server(conns);
        let addr = server.local_addr();
        group.throughput(Throughput::Bytes((doc.len() * conns) as u64));
        group.bench_with_input(BenchmarkId::new("reactor", conns), &doc, |b, doc| {
            b.iter(|| run_storm(addr, conns, &queries, doc))
        });
        drop(server);
    }
    let large = large_dataset();
    let large_queries = large_queries();
    group.throughput(Throughput::Bytes(large.len() as u64));
    let server = bind_server(1);
    let addr = server.local_addr();
    group.bench_with_input(BenchmarkId::new("reactor-large", 1), &large, |b, doc| {
        b.iter(|| run_storm(addr, 1, &large_queries, doc))
    });
    drop(server);
    group.finish();
}

/// Direct measurement used to record the committed `BENCH_serve.json`
/// baseline (mean of `iters` runs per configuration). The connection count
/// is emitted as `"conns"` — the gate comparator reads it as the point key.
fn write_baseline(path: &str) {
    let doc = dataset();
    let queries = queries();
    let iters = 3usize;
    let mut rows = Vec::new();
    for conns in CONN_SWEEP {
        let server = bind_server(conns);
        let addr = server.local_addr();
        run_storm(addr, conns, &queries, &doc); // warm-up
        let mib = (doc.len() * conns) as f64 / (1024.0 * 1024.0);
        let start = Instant::now();
        let mut matches = 0u64;
        for _ in 0..iters {
            matches = run_storm(addr, conns, &queries, &doc);
        }
        let secs = start.elapsed().as_secs_f64() / iters as f64;
        drop(server);
        rows.push(format!(
            "    {{\"mode\": \"reactor\", \"conns\": {conns}, \"mib_per_s\": {:.2}, \
             \"matches\": {matches}}}",
            mib / secs
        ));
    }
    // The large-payload point: one connection, 256 KiB elements, riding the
    // zero-copy vectored outbox.
    let large = large_dataset();
    let large_queries = large_queries();
    let large_mib = large.len() as f64 / (1024.0 * 1024.0);
    let server = bind_server(1);
    let addr = server.local_addr();
    run_storm(addr, 1, &large_queries, &large); // warm-up
    let start = Instant::now();
    let mut matches = 0u64;
    for _ in 0..iters {
        matches = run_storm(addr, 1, &large_queries, &large);
    }
    let secs = start.elapsed().as_secs_f64() / iters as f64;
    drop(server);
    rows.push(format!(
        "    {{\"mode\": \"reactor-large\", \"conns\": 1, \"mib_per_s\": {:.2}, \
         \"matches\": {matches}}}",
        large_mib / secs
    ));
    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"dataset\": \"xmark\",\n  \"dataset_bytes\": {},\n  \
         \"large_dataset\": \"large_elements({LARGE_ELEMS}, {LARGE_ELEM_BYTES})\",\n  \
         \"queries\": {},\n  \"retention_budget\": {RETAIN_BUDGET},\n  \
         \"iters_per_point\": {iters},\n  \"telemetry\": true,\n  \
         \"results\": [\n{}\n  ]\n}}\n",
        doc.len(),
        queries.len(),
        rows.join(",\n")
    );
    std::fs::write(path, json).expect("baseline written");
    println!("baseline written to {path}");
}

fn main() {
    let mut c = Criterion::default();
    bench_serve(&mut c);
    if let Ok(path) = std::env::var("BENCH_SERVE_JSON") {
        write_baseline(&path);
    }
}
