//! The observability surface, end to end: the in-band `STATS` verb and the
//! admin HTTP listener against live loaded servers, metric families
//! reconciling with [`ServerStats`], the series external scrapers sum by
//! name, the event journal, and a property test that scraping never tears a
//! histogram that is being recorded into concurrently.

use ppt_runtime::serve::{register, scrape, TcpServer};
use ppt_runtime::telemetry::{Histogram, HISTOGRAM_BUCKETS};
use ppt_runtime::{HandshakeRequest, Runtime, WireFormat};
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;

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

/// Streams `doc` through one registered connection, draining frames to EOF.
fn run_client(addr: SocketAddr, request: HandshakeRequest, doc: &[u8]) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    register(&mut stream, &request).expect("handshake accepted");
    let writer_stream = stream.try_clone().expect("clone");
    let doc_owned = doc.to_vec();
    let writer = std::thread::spawn(move || {
        let mut writer_stream = writer_stream;
        let _ = writer_stream.write_all(&doc_owned);
        let _ = writer_stream.shutdown(Shutdown::Write);
    });
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read frames to EOF");
    writer.join().expect("writer thread");
}

// ---------------------------------------------------------------------------
// Exposition-page parsing helpers (what a real scraper would do)
// ---------------------------------------------------------------------------

/// Every sample of family `name` on the page: `(label-block, value)` pairs.
/// Matches exact family names only — `ppt_x` does not match `ppt_x_total`'s
/// samples or `ppt_x_bucket` lines.
fn samples<'a>(page: &'a str, name: &str) -> Vec<(&'a str, f64)> {
    let mut out = Vec::new();
    for line in page.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some(rest) = line.strip_prefix(name) else { continue };
        let (labels, value) = match rest.strip_prefix('{') {
            Some(tail) => {
                let Some(close) = tail.find('}') else { continue };
                (&tail[..close], tail[close + 1..].trim())
            }
            None => match rest.strip_prefix(' ') {
                Some(value) => ("", value.trim()),
                None => continue, // a longer metric name sharing the prefix
            },
        };
        out.push((labels, value.parse::<f64>().expect("sample values parse")));
    }
    out
}

/// The single unlabelled sample of family `name`.
fn value(page: &str, name: &str) -> f64 {
    let all = samples(page, name);
    assert_eq!(all.len(), 1, "expected exactly one {name} sample, got {all:?}");
    all[0].1
}

// ---------------------------------------------------------------------------
// The in-band STATS verb
// ---------------------------------------------------------------------------

#[test]
fn stats_verb_reconciles_unlabeled_families_with_server_stats() {
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server = TcpServer::builder().chunk_size(512).bind("127.0.0.1:0", runtime).expect("bind");
    let addr = server.local_addr();
    let doc = make_doc(200);
    let sessions = 12u64;
    for id in 0..sessions {
        let request =
            HandshakeRequest::new(WireFormat::JsonLines).query("//item/k").stream_id(id * 7 + 1);
        run_client(addr, request, &doc);
    }

    let page = scrape(addr).expect("STATS scrape");
    let stats = server.stats();

    // Every family is one unlabeled series that equals the ServerStats
    // snapshot — one source of truth, two surfaces.
    assert_eq!(value(&page, "ppt_sessions_completed_total") as u64, sessions);
    assert_eq!(stats.sessions_completed, sessions);
    assert_eq!(value(&page, "ppt_matches_total") as u64, sessions * 200, "200 per session");
    assert_eq!(stats.matches, sessions * 200);
    assert_eq!(value(&page, "ppt_frames_out_total") as u64, stats.frames_out);
    assert_eq!(value(&page, "ppt_bytes_out_total") as u64, stats.bytes_out);
    assert_eq!(
        value(&page, "ppt_shard_peak_retained_bytes") as usize,
        stats.peak_retained_bytes,
        "the peak is server-wide, whatever the family name says"
    );
    assert_eq!(value(&page, "ppt_shard_peak_queue_depth") as usize, stats.peak_queue_depth);
    let chunks: f64 = samples(&page, "ppt_chunks_total").iter().map(|(_, v)| v).sum();
    assert_eq!(chunks as u64, stats.chunks_in_order + stats.chunks_speculative);
    assert!(chunks > 0.0, "twelve sessions ran chunks");
    assert_eq!(value(&page, "ppt_workers") as usize, 2);

    // The runtime's per-stage latency histograms carry only their stage.
    for stage in ["split", "transduce", "fold", "finalize"] {
        let want = format!("stage=\"{stage}\"");
        let count = samples(&page, "ppt_stage_seconds_count")
            .iter()
            .find(|(labels, _)| *labels == want)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing ppt_stage_seconds_count{{{want}}}"));
        assert!(count > 0.0, "stage {stage} recorded nothing");
    }

    // Handshake latency: count covers every session handshake plus the
    // scrape's own, and the p99 extension line is present and finite.
    assert!(value(&page, "ppt_handshake_seconds_count") as u64 >= sessions);
    let p99 = value(&page, "ppt_handshake_seconds_p99");
    assert!(p99.is_finite() && p99 > 0.0, "p99 handshake latency must be finite: {p99}");

    // The scrape itself is accounted — and not as a handshake reject.
    assert_eq!(value(&page, "ppt_scrapes_total") as u64, 1);
    assert_eq!(value(&page, "ppt_handshake_rejects_total") as u64, 0);
    assert_eq!(server.stats().handshake_rejects, 0);
    server.shutdown();
}

/// The series the frozen benchmark (`crates/bench/src/bin/benchmark/run.rs`)
/// sums by name off a `STATS` page. A traced benchmark run exits non-zero on
/// a missing one, so a renamed family must fail here first.
const BENCHMARK_SERIES: [&str; 9] = [
    "ppt_reactor_polls_total",
    "ppt_reactor_wakeups_total",
    "ppt_reactor_peak_outbox_bytes",
    "ppt_egress_borrowed_bytes_total",
    "ppt_egress_copied_bytes_total",
    "ppt_shard_peak_retained_bytes",
    "ppt_shard_peak_queue_depth",
    "ppt_sessions_completed_total",
    "ppt_sessions_failed_total",
];

#[test]
fn stats_page_carries_every_series_the_benchmark_sums() {
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server = TcpServer::bind("127.0.0.1:0", runtime).expect("bind");
    run_client(
        server.local_addr(),
        HandshakeRequest::new(WireFormat::Binary).query("//item/k").retain_bytes(1 << 20),
        &make_doc(50),
    );
    let page = scrape(server.local_addr()).expect("STATS scrape");
    for series in BENCHMARK_SERIES {
        let v = value(&page, series);
        assert!(v.is_finite(), "{series} = {v}");
    }
    assert_eq!(value(&page, "ppt_sessions_completed_total"), 1.0);
    assert!(!page.contains("shard="), "no series carries a placement label:\n{page}");
    assert!(!page.contains("ppt_router_"), "no router families:\n{page}");
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The admin HTTP listener
// ---------------------------------------------------------------------------

/// One blocking HTTP/1.0 exchange; returns (status-line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().expect("status line").to_string();
    // Content-Length must describe the body exactly — scrapers rely on it.
    let declared: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("length parses");
    assert_eq!(declared, body.len(), "Content-Length mismatch for {path}");
    (status, body.to_string())
}

#[test]
fn admin_endpoint_serves_metrics_journal_and_404() {
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server =
        TcpServer::builder().admin_addr("127.0.0.1:0").bind("127.0.0.1:0", runtime).expect("bind");
    let admin = server.admin_local_addr().expect("admin bound");
    run_client(
        server.local_addr(),
        HandshakeRequest::new(WireFormat::JsonLines).query("//item/k"),
        &make_doc(10),
    );

    let (status, page) = http_get(admin, "/metrics");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert_eq!(value(&page, "ppt_sessions_completed_total") as u64, 1);
    assert!(page.contains("# TYPE ppt_stage_seconds histogram"));

    // `/` is an alias for the metrics page.
    let (status, root_page) = http_get(admin, "/");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(root_page.contains("ppt_accepted_total"));

    // The journal names the session's lifecycle with its stream id.
    let (status, journal) = http_get(admin, "/journal");
    assert_eq!(status, "HTTP/1.0 200 OK");
    assert!(journal.starts_with("# event journal:"), "journal header: {journal:?}");
    for kind in ["registered", "drained"] {
        assert!(journal.contains(kind), "journal missing {kind:?}:\n{journal}");
    }
    assert!(!journal.contains("shard="), "journal lines carry no placement:\n{journal}");

    let (status, _) = http_get(admin, "/bogus");
    assert_eq!(status, "HTTP/1.0 404 Not Found");

    // Bare-nc fallback: a non-HTTP line gets the raw metrics page.
    let mut nc = TcpStream::connect(admin).expect("connect");
    nc.write_all(b"\n").expect("bare newline");
    let mut raw = String::new();
    nc.read_to_string(&mut raw).expect("read page");
    assert!(raw.contains("ppt_accepted_total"), "nc fallback serves metrics");

    // The metrics page equals the in-process render (modulo the counters
    // that advanced between scrapes).
    assert!(server.metrics_text().contains("ppt_scrapes_total"));
    server.shutdown();
}

/// The visibility contract of `ppt_sessions_completed_total`: a session's
/// report is recorded *before* its socket is half-closed, so a client that has
/// read its frames to EOF finds the session on the very next scrape. (The
/// half-close used to come first, and this lost the race about one run in
/// six under load.) Twenty sessions, with every core kept busy alongside so
/// the server threads are descheduled at awkward points.
#[test]
fn a_session_is_on_the_metrics_page_once_its_client_has_seen_eof() {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    let hogs: Vec<_> = (0..cores)
        .map(|_| {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        })
        .collect();
    let runtime = Arc::new(Runtime::builder().workers(2).build());
    let server =
        TcpServer::builder().admin_addr("127.0.0.1:0").bind("127.0.0.1:0", runtime).expect("bind");
    let admin = server.admin_local_addr().expect("admin bound");
    for session in 1..=20u64 {
        run_client(
            server.local_addr(),
            HandshakeRequest::new(WireFormat::JsonLines).query("//item/k"),
            &make_doc(10),
        );
        let (_, page) = http_get(admin, "/metrics");
        let completed = value(&page, "ppt_sessions_completed_total") as u64;
        assert_eq!(completed, session, "session {session} not yet recorded at EOF");
    }
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for hog in hogs {
        hog.join().expect("busy thread");
    }
}

#[test]
fn admin_endpoint_counts_scrapes_and_survives_shutdown() {
    let runtime = Arc::new(Runtime::builder().workers(1).build());
    let server =
        TcpServer::builder().admin_addr("127.0.0.1:0").bind("127.0.0.1:0", runtime).expect("bind");
    let admin = server.admin_local_addr().expect("admin bound");
    let (_, first) = http_get(admin, "/metrics");
    let (_, second) = http_get(admin, "/metrics");
    assert_eq!(value(&first, "ppt_scrapes_total") as u64, 1);
    assert_eq!(value(&second, "ppt_scrapes_total") as u64, 2);
    // Shutdown must join the admin thread without wedging.
    server.shutdown();
}

// ---------------------------------------------------------------------------
// Concurrent record-while-scrape: snapshots never tear
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Recorders hammer a histogram while a scraper snapshots it: every
    /// mid-flight snapshot must be internally consistent (cumulative bucket
    /// counts monotone and capped by `count`, quantiles inside the recorded
    /// range), and the final snapshot must account for every record.
    #[test]
    fn snapshots_under_concurrent_records_never_tear(
        values in prop::collection::vec(0u64..1 << 48, 32..256),
        threads in 2usize..5,
    ) {
        let hist = Arc::new(Histogram::new());
        let chunks: Vec<Vec<u64>> =
            values.chunks(values.len().div_ceil(threads)).map(<[u64]>::to_vec).collect();
        let recorders: Vec<_> = chunks
            .iter()
            .map(|chunk| {
                let hist = Arc::clone(&hist);
                let chunk = chunk.clone();
                std::thread::spawn(move || {
                    for v in chunk {
                        hist.record(v);
                    }
                })
            })
            .collect();
        // Scrape while the recorders run.
        for _ in 0..50 {
            let snap = hist.snapshot();
            let total: u64 = snap.buckets.iter().sum();
            prop_assert!(total <= snap.count, "bucket total {total} over count {}", snap.count);
            if snap.count > 0 {
                let p50 = snap.quantile(0.5).expect("non-empty");
                let p99 = snap.quantile(0.99).expect("non-empty");
                prop_assert!(p50 <= p99, "quantiles out of order: p50 {p50} > p99 {p99}");
            }
            std::hint::spin_loop();
        }
        for r in recorders {
            r.join().expect("recorder");
        }
        let final_snap = hist.snapshot();
        prop_assert_eq!(final_snap.count, values.len() as u64);
        prop_assert_eq!(final_snap.sum, values.iter().sum::<u64>());
        prop_assert_eq!(
            final_snap.buckets.iter().sum::<u64>(),
            values.len() as u64,
            "every record landed in exactly one of the {} buckets",
            HISTOGRAM_BUCKETS
        );
    }
}
