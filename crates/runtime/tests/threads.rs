//! The server's thread budget: on a prebuilt `Runtime`, binding a
//! `TcpServer` adds exactly one thread — the `poll(2)` ingest loop — and
//! serving a session adds none, because its chunks are transduced *and*
//! folded as jobs on the runtime's own workers. Counted from
//! `/proc/self/task`, so Linux only; one test in its own binary, so no other
//! test's threads come and go during the count.
#![cfg(target_os = "linux")]

use ppt_runtime::serve::{register, TcpServer};
use ppt_runtime::{HandshakeRequest, Runtime, WireFormat};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;

/// Threads of this process right now.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs is mounted").count()
}

#[test]
fn binding_adds_one_thread_and_serving_adds_none() {
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let before = threads();

    let server = TcpServer::builder()
        .chunk_size(256)
        .bind("127.0.0.1:0", Arc::clone(&runtime))
        .expect("bind");
    let bound = threads();
    assert_eq!(bound, before + 1, "binding must add only the ingest thread");

    // One session, driven from this thread: a document small enough to sit
    // in the socket buffers, so the whole request goes out before any read.
    let mut doc = b"<stream>".to_vec();
    for i in 0..200 {
        doc.extend_from_slice(format!("<item><k>element {i}</k></item>").as_bytes());
    }
    doc.extend_from_slice(b"</stream>");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let request = HandshakeRequest::new(WireFormat::JsonLines).query("//item/k");
    register(&mut stream, &request).expect("handshake accepted");
    stream.write_all(&doc).expect("stream the document");
    let streaming = threads();
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut frames = String::new();
    stream.read_to_string(&mut frames).expect("read every frame");
    let served = threads();

    assert_eq!(frames.lines().count(), 200, "every match came back");
    assert_eq!(streaming, bound, "a live session must not add a thread");
    assert_eq!(served, bound, "a served session must not add a thread");
    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 1);
}
