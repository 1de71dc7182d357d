//! Live observability walk-through: a server under load, scraped twice, and
//! the movement between the scrapes printed as a delta table.
//!
//! What it demonstrates (and asserts):
//!
//! * the **admin endpoint** (`TcpServerBuilder::admin_addr`) serving the
//!   Prometheus-style text exposition over plain HTTP;
//! * the **in-band `STATS` verb** (`serve::scrape`) returning the same
//!   page shape through the ordinary `PPT/1` handshake port;
//! * the exposition reconciling with `TcpServer::stats()` — one registry,
//!   two surfaces;
//! * counters moving between scrapes exactly as much as the load applied
//!   between them, and the event journal narrating the session lifecycle.
//!
//! ```sh
//! cargo run --release --example metrics_scrape -- [sessions-per-wave]
//! # default: 8 sessions per wave
//! ```

use pp_xml::prelude::*;
use pp_xml::runtime::serve::{register, scrape};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

fn doc(items: usize) -> Vec<u8> {
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<stream>");
    for i in 0..items {
        doc.extend_from_slice(
            format!("<item><id>{i}</id><k>scrape demo element {i}</k></item>").as_bytes(),
        );
    }
    doc.extend_from_slice(b"</stream>");
    doc
}

/// One complete session: handshake, stream the document, drain the frames.
fn run_session(addr: SocketAddr, stream_id: u64, doc: &[u8]) -> usize {
    let request =
        HandshakeRequest::new(WireFormat::JsonLines).query("//item/k").stream_id(stream_id);
    let mut stream = TcpStream::connect(addr).expect("connect");
    register(&mut stream, &request).expect("handshake accepted");
    stream.write_all(doc).expect("stream document");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("drain frames");
    raw.split(|&b| b == b'\n').filter(|l| !l.is_empty()).count()
}

/// One blocking GET against the admin listener; returns the body.
fn admin_get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("headers present");
    assert!(head.starts_with("HTTP/1.0 200"), "admin scrape not OK: {head}");
    body.to_string()
}

/// Every sample on a metrics page: `"family{labels}"` → value. Histogram
/// series keep their `_bucket`/`_sum`/`_count`/quantile suffixes as-is.
fn samples(page: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for line in page.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let Some(space) = line.rfind(' ') else { continue };
        if let Ok(value) = line[space + 1..].parse::<f64>() {
            out.insert(line[..space].to_string(), value);
        }
    }
    out
}

fn main() {
    let wave: usize = std::env::args().nth(1).and_then(|v| v.parse().ok()).unwrap_or(8);
    let items = 64;

    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server = TcpServer::builder()
        .chunk_size(512)
        .admin_addr("127.0.0.1:0")
        .bind("127.0.0.1:0", runtime)
        .expect("bind loopback");
    let addr = server.local_addr();
    let admin = server.admin_local_addr().expect("admin listener bound");
    let document = doc(items);
    println!("serving on {addr}, admin on {admin}");

    // Wave 1, then the first scrape (admin endpoint).
    for id in 0..wave {
        run_session(addr, id as u64 * 31 + 1, &document);
    }
    let first = samples(&admin_get(admin, "/metrics"));

    // Wave 2, then the second scrape — this time through the in-band
    // STATS verb, proving both surfaces serve the same registry.
    for id in 0..wave {
        run_session(addr, (wave + id) as u64 * 31 + 1, &document);
    }
    let second_page = scrape(addr).expect("STATS scrape");
    let second = samples(&second_page);

    // Delta table: every counter that moved between the scrapes.
    println!("\n{:<44} {:>12} {:>12} {:>8}", "series", "scrape 1", "scrape 2", "delta");
    let mut moved = 0usize;
    for (series, after) in &second {
        let before = first.get(series).copied().unwrap_or(0.0);
        let delta = after - before;
        if delta.abs() > f64::EPSILON && !series.contains("_bucket") {
            println!("{series:<44} {before:>12.3} {after:>12.3} {delta:>+8.3}");
            moved += 1;
        }
    }
    println!("({moved} series moved; histogram buckets elided)\n");

    // The second wave must be exactly accounted: sessions and matches both
    // advanced by one wave's worth.
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let sessions_delta =
        get(&second, "ppt_sessions_completed_total") - get(&first, "ppt_sessions_completed_total");
    assert_eq!(sessions_delta as usize, wave, "second wave exactly accounted");
    let matches_delta = get(&second, "ppt_matches_total") - get(&first, "ppt_matches_total");
    assert_eq!(matches_delta as usize, wave * items, "one match per item per session");

    // And both reconcile with the stats snapshot — one source of truth.
    let stats = server.stats();
    assert_eq!(stats.sessions_completed as usize, 2 * wave);
    assert_eq!(stats.matches as usize, 2 * wave * items);
    assert_eq!(
        get(&second, "ppt_frames_out_total") as u64,
        stats.frames_out,
        "exposition agrees with ServerStats"
    );

    // The journal narrates the lifecycle of every session.
    let journal = admin_get(admin, "/journal");
    let drained = journal.lines().filter(|l| l.contains(" drained ")).count();
    assert_eq!(drained, 2 * wave, "every session journaled as drained:\n{journal}");

    server.shutdown();
    println!("OK: {} sessions, both scrape surfaces reconciled", 2 * wave);
}
