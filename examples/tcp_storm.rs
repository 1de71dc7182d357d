//! Connection storm: hundreds of concurrent slow clients against the
//! reactor server, from one process and (almost) no client threads.
//!
//! The point being proven: serving N slow connections costs a **fixed**
//! number of threads — the ingest loop and the worker pool, whose workers
//! both transduce and fold — not N of anything. The storm:
//!
//! * starts a reactor server (1 ingest thread, 2 workers);
//! * connects `clients` nonblocking sockets and drives them all from the
//!   main thread in rounds, each client writing a small slice per round
//!   (deliberately slow streams) and reading whatever frames arrived;
//! * gives every client its **own** document (salted per client id), so a
//!   cross-wired frame cannot go unnoticed;
//! * samples the process thread count (`/proc/self/status` `Threads:`)
//!   every round and asserts the peak stays under a fixed ceiling that a
//!   thread-per-connection server would blow past ~16× over;
//! * verifies every client got exactly the batch engine's matches with
//!   byte-identical payloads.
//!
//! ```sh
//! cargo run --release --example tcp_storm -- [clients] [items-per-client]
//! # defaults: 256 clients, 24 items each
//! ```

use pp_xml::prelude::*;
use pp_xml::runtime::serve::TcpServer;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes each client writes per round — small on purpose: slow streams are
/// the scenario the reactor exists for.
const WRITE_SLICE: usize = 257;

/// The fixed thread ceiling: main + 1 ingest + 1 admin listener + 2 workers
/// (folds run on the workers) = 5, plus 11 of headroom for the runtime's own
/// bookkeeping. The essential property: the ceiling depends on the
/// *configuration*, not on the connection count; a thread-per-connection
/// server would sit at ~`clients` threads during the storm.
const THREAD_CEILING: usize = 16;

/// One slow client, driven round-robin by the main thread.
struct StormClient {
    stream: TcpStream,
    to_write: Vec<u8>,
    written: usize,
    half_closed: bool,
    response: Vec<u8>,
    done: bool,
}

/// A tiny per-client document: the client id salts every payload.
fn client_doc(id: usize, items: usize) -> Vec<u8> {
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..items {
        doc.extend_from_slice(
            format!("<item><id>{i}</id><k>client {id} element {i}</k></item>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</stream>");
    doc
}

/// One blocking GET against the admin listener; returns the body.
fn admin_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send admin request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read admin response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("admin response has headers");
    assert!(head.starts_with("HTTP/1.0 200"), "admin scrape not OK: {head}");
    body.to_string()
}

/// The unlabelled sample value of `name` on a metrics page.
fn metric(page: &str, name: &str) -> Option<f64> {
    page.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

/// Current thread count of this process; `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn main() {
    let clients: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(256);
    let items: usize = std::env::args().nth(2).and_then(|v| v.parse().ok()).unwrap_or(24);
    let query = "//item/k";

    // Per-client documents and their batch references.
    println!("generating {clients} client documents ({items} items each)...");
    let reference = Engine::builder().add_query(query).expect("query").build().expect("engine");
    let docs: Vec<Vec<u8>> = (0..clients).map(|id| client_doc(id, items)).collect();
    let expected: Vec<HashMap<(u64, u64), usize>> = docs
        .iter()
        .map(|doc| {
            let mut expected: HashMap<(u64, u64), usize> = HashMap::new();
            for m in &reference.run(doc).query_matches[0] {
                *expected.entry((m.start as u64, m.end as u64)).or_default() += 1;
            }
            expected
        })
        .collect();
    let total_bytes: usize = docs.iter().map(Vec::len).sum();

    let runtime = Arc::new(Runtime::builder().workers(2).inflight_chunks(8).build());
    let server = TcpServer::builder()
        .max_connections(clients.max(1))
        .chunk_size(512)
        .window_size(2048)
        .admin_addr("127.0.0.1:0")
        .bind("127.0.0.1:0", runtime)
        .expect("bind loopback");
    let addr = server.local_addr();
    let admin_addr = server.admin_local_addr().expect("admin listener bound");
    println!("storming {addr} with {clients} slow clients ({total_bytes} bytes total)...");

    let baseline_threads = process_threads();
    let started = Instant::now();

    // Connect everyone up front (the reactor accepts while we loop), then
    // drive all sockets nonblocking from this one thread.
    let mut storm: Vec<StormClient> = (0..clients)
        .map(|id| {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nonblocking(true).expect("nonblocking client");
            let mut to_write = HandshakeRequest::new(WireFormat::JsonLines)
                .query(query)
                .retain_bytes(64 << 10)
                .stream_id(id as u64)
                .encode();
            to_write.extend_from_slice(&docs[id]);
            StormClient {
                stream,
                to_write,
                written: 0,
                half_closed: false,
                response: Vec::new(),
                done: false,
            }
        })
        .collect();

    let mut peak_threads = baseline_threads.unwrap_or(0);
    let mut buf = [0u8; 4096];
    let deadline = Instant::now() + Duration::from_secs(240);
    let mut round = 0usize;
    let mut scrape: Option<String> = None;
    loop {
        round += 1;
        // Scrape the admin endpoint *mid-storm* — round 3 is after every
        // client connected but before any finished writing its document, so
        // the page must show a live, fully-loaded server.
        if round == 3 {
            let page = admin_get(admin_addr, "/metrics");
            let accepted = metric(&page, "ppt_accepted_total").expect("accepted on page");
            let active = metric(&page, "ppt_active_connections").expect("active on page");
            let failed = metric(&page, "ppt_sessions_failed_total").expect("failed on page");
            println!(
                "mid-storm scrape: accepted {accepted}, active {active}, failed {failed} \
                 ({} clients live driver-side)",
                storm.iter().filter(|c| !c.done).count()
            );
            // Liveness invariants under load: the registered-connection
            // gauge is consistent with the driver's view, nothing has been
            // poisoned, and handshake latency is being measured. The gauge
            // checks only hold while no client has half-closed (tiny custom
            // documents can finish before round 3 — then they are vacuous).
            if storm.iter().all(|c| !c.half_closed) {
                assert!(active <= accepted, "more registered conns than accepts: {page}");
                assert!(accepted as usize <= clients);
                assert!(active >= 1.0, "a loaded server must show registered connections");
            }
            assert_eq!(failed, 0.0, "no session may fail mid-storm");
            let p99 = metric(&page, "ppt_handshake_seconds_p99").expect("handshake p99 on page");
            assert!(p99.is_finite() && p99 > 0.0, "p99 handshake latency must be finite: {p99}");
            scrape = Some(page);
        }
        let mut all_done = true;
        for client in storm.iter_mut() {
            if client.done {
                continue;
            }
            all_done = false;
            // Read whatever frames arrived.
            loop {
                match client.stream.read(&mut buf) {
                    Ok(0) => {
                        client.done = true;
                        break;
                    }
                    Ok(n) => client.response.extend_from_slice(&buf[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => panic!("client read failed: {e}"),
                }
            }
            // Write one small slice — a deliberately slow stream.
            if client.written < client.to_write.len() {
                let end = (client.written + WRITE_SLICE).min(client.to_write.len());
                match client.stream.write(&client.to_write[client.written..end]) {
                    Ok(n) => client.written += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => panic!("client write failed: {e}"),
                }
            } else if !client.half_closed {
                client.stream.shutdown(Shutdown::Write).expect("half-close");
                client.half_closed = true;
            }
        }
        if let Some(threads) = process_threads() {
            peak_threads = peak_threads.max(threads);
        }
        if all_done {
            break;
        }
        assert!(Instant::now() < deadline, "storm did not drain in time");
        std::thread::sleep(Duration::from_millis(1));
    }
    let elapsed = started.elapsed();

    // A very small storm can drain before round 3 — scrape now so the
    // artifact exists either way, and persist it when CI asks for it.
    let scrape = scrape.unwrap_or_else(|| admin_get(admin_addr, "/metrics"));
    if let Ok(path) = std::env::var("STORM_SCRAPE") {
        let journal = admin_get(admin_addr, "/journal");
        std::fs::write(&path, format!("{scrape}\n{journal}")).expect("write scrape artifact");
        println!("scrape + journal written to {path}");
    }

    // Byte-correctness: every client got exactly its own document's batch
    // matches, payloads byte-identical, stream ids un-crossed.
    for (id, client) in storm.iter().enumerate() {
        let newline = client
            .response
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or_else(|| panic!("client {id}: no reply line"));
        let reply = std::str::from_utf8(&client.response[..newline]).expect("ASCII reply");
        assert_eq!(
            reply,
            format!("OK STREAM {id} 0"),
            "client {id}: handshake accepted with its requested stream id"
        );
        let body = std::str::from_utf8(&client.response[newline + 1..]).expect("ASCII frames");
        let mut remaining = expected[id].clone();
        for line in body.lines() {
            let frame = Frame::decode_json(line).expect("well-formed frame");
            assert_eq!(frame.stream, id as u64, "client {id}: stream id un-crossed");
            assert_eq!(frame.query, 0);
            let key = (frame.start, frame.end);
            let n = remaining
                .get_mut(&key)
                .unwrap_or_else(|| panic!("client {id}: unexpected frame {key:?}"));
            *n -= 1;
            if *n == 0 {
                remaining.remove(&key);
            }
            let payload = frame.payload.as_ref().expect("payload under budget");
            assert_eq!(
                payload.as_slice(),
                &docs[id][frame.start as usize..frame.end as usize],
                "client {id}: payload byte-identical to its own stream"
            );
        }
        assert!(remaining.is_empty(), "client {id}: matches never served: {remaining:?}");
    }

    let stats = server.shutdown();
    println!(
        "served {clients} clients in {:.1}s: {} frames, {:.1} KB on the wire",
        elapsed.as_secs_f64(),
        stats.frames_out,
        stats.bytes_out as f64 / 1e3,
    );
    let reactor = stats.reactor;
    println!(
        "reactor: {} polls, {} wakeups, {} dispatches, peak {} fds, peak outbox {} B",
        reactor.polls,
        reactor.wakeups,
        reactor.readiness_dispatches,
        reactor.peak_registered_fds,
        reactor.peak_outbox_bytes,
    );
    assert_eq!(stats.accepted as usize, clients);
    assert_eq!(stats.sessions_completed as usize, clients, "every client served cleanly");
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.active, 0);
    assert!(
        reactor.peak_registered_fds >= clients.min(64),
        "the poll set actually carried the storm: {reactor:?}"
    );

    // The tentpole claim: thread count is flat in the number of connections.
    match baseline_threads {
        Some(_) => {
            println!("peak process threads during the storm: {peak_threads}");
            assert!(
                peak_threads <= THREAD_CEILING,
                "thread count must not scale with connections: {peak_threads} > {THREAD_CEILING}"
            );
        }
        None => println!("(/proc/self/status unavailable: thread ceiling not checked)"),
    }
    println!(
        "OK: {clients} concurrent slow clients, byte-identical results, ≤ {THREAD_CEILING} threads"
    );
}
