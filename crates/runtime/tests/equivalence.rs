//! Online ↔ batch equivalence: the streaming runtime must report exactly the
//! matches `Engine::run` reports, on every dataset family, across chunk and
//! window sizes — including configurations that put window boundaries inside
//! tags and chunk boundaries at every awkward offset.

use ppt_core::{Engine, QueryResult};
use ppt_runtime::{CollectSink, OnlineMatch, Runtime, SessionReport};
use std::io::Read;
use std::sync::Arc;

/// A reader that hands out the underlying buffer `read_size` bytes at a time,
/// so window boundaries land at arbitrary offsets (often inside tags).
struct DribbleReader {
    data: Vec<u8>,
    pos: usize,
    read_size: usize,
}

impl Read for DribbleReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.read_size.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Batch result as sortable tuples per query.
fn batch_matches(engine: &Engine, data: &[u8]) -> Vec<Vec<(usize, usize, u32)>> {
    tuples(&engine.run(data))
}

/// A result as sorted `(start, end, depth)` tuples per query.
fn tuples(result: &QueryResult) -> Vec<Vec<(usize, usize, u32)>> {
    result
        .query_matches
        .iter()
        .map(|ms| {
            let mut v: Vec<(usize, usize, u32)> =
                ms.iter().map(|m| (m.start, m.end, m.depth)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Online result (collected + sorted) as the same tuples.
fn online_matches(sink: &CollectSink, query_count: usize) -> Vec<Vec<(usize, usize, u32)>> {
    sink.per_query(query_count)
        .into_iter()
        .map(|ms| {
            let mut v: Vec<(usize, usize, u32)> =
                ms.iter().map(|m: &OnlineMatch| (m.start, m.end, m.depth)).collect();
            v.sort_unstable();
            v
        })
        .collect()
}

fn assert_equivalent(
    data: &[u8],
    queries: &[&str],
    chunk_size: usize,
    window_size: usize,
    read_size: usize,
    workers: usize,
    label: &str,
) {
    let engine = Arc::new(
        Engine::builder()
            .add_queries(queries)
            .unwrap()
            .chunk_size(chunk_size)
            .window_size(window_size)
            .build()
            .unwrap(),
    );
    let expected = batch_matches(&engine, data);
    let expected_submatches: Vec<usize> = engine.run(data).submatch_counts;

    let runtime = Runtime::builder().workers(workers).build();
    let mut sink = CollectSink::new();
    let reader = DribbleReader { data: data.to_vec(), pos: 0, read_size };
    let report = runtime.process_reader(Arc::clone(&engine), reader, &mut sink).unwrap();

    let got = online_matches(&sink, queries.len());
    assert_eq!(
        got, expected,
        "{label}: online matches differ (chunk={chunk_size} window={window_size} read={read_size})"
    );
    let counts: Vec<usize> = expected.iter().map(|v| v.len()).collect();
    assert_eq!(report.match_counts, counts, "{label}: reported match counts");
    assert_eq!(report.submatch_counts, expected_submatches, "{label}: sub-match accounting");
    assert_eq!(report.stats.bytes_in as usize, data.len(), "{label}: every byte ingested");
}

#[test]
fn tiny_document_every_configuration() {
    let doc = b"<a><b><d></d></b><b><c></c></b></a>";
    let queries = ["/a/b/c", "//d", "/a/b[d]", "//b"];
    for chunk_size in [1usize, 3, 7, 64] {
        for window_size in [16usize, 20, 1024] {
            for read_size in [1usize, 5, 64] {
                assert_equivalent(doc, &queries, chunk_size, window_size, read_size, 2, "tiny");
            }
        }
    }
}

#[test]
fn xmark_with_xpathmark_queries() {
    let data = ppt_datasets::XmarkConfig::with_target_size(96 * 1024).generate();
    // A representative slice of XPathMark: plain paths, wildcards, predicates.
    let queries: Vec<&str> = ppt_datasets::xpathmark_queries_strs().into_iter().take(6).collect();
    for (chunk, window) in [(512usize, 4096usize), (1024, 8192), (97, 1031)] {
        assert_equivalent(&data, &queries, chunk, window, 769, 3, "xmark");
    }
}

#[test]
fn treebank_with_random_queries() {
    let data = ppt_datasets::TreebankConfig::with_target_size(96 * 1024).generate();
    let owned = ppt_datasets::random_treebank_queries(6, 4, 11);
    let queries: Vec<&str> = owned.iter().map(|s| s.as_str()).collect();
    for (chunk, window) in [(256usize, 2048usize), (1000, 16 * 1024)] {
        assert_equivalent(&data, &queries, chunk, window, 513, 2, "treebank");
    }
}

#[test]
fn twitter_with_firehose_query() {
    let data = ppt_datasets::TwitterConfig::with_target_size(96 * 1024).generate();
    let queries = [ppt_datasets::twitter_query(), "//status", "//retweeted_status//text"];
    for (chunk, window) in [(700usize, 5000usize), (2048, 8192)] {
        assert_equivalent(&data, &queries, chunk, window, 997, 4, "twitter");
    }
}

#[test]
fn window_boundaries_inside_tags_are_harmless() {
    // Long tag names + 1-byte reads + a window barely above the minimum:
    // nearly every pop decision happens mid-tag.
    let mut doc = Vec::new();
    doc.extend_from_slice(b"<collection>");
    for i in 0..40 {
        doc.extend_from_slice(
            format!(
                "<averylongelementname idx=\"{i}\"><inner>text {i}</inner></averylongelementname>"
            )
            .as_bytes(),
        );
    }
    doc.extend_from_slice(b"</collection>");
    let queries = ["//averylongelementname/inner", "/collection/averylongelementname"];
    assert_equivalent(&doc, &queries, 5, 16, 1, 2, "mid-tag");
}

#[test]
fn push_api_agrees_with_reader_api() {
    use std::sync::Mutex;

    let data = ppt_datasets::XmarkConfig::with_target_size(48 * 1024).generate();
    let queries = ["//k", "/s/cs/c/a/d/t/k"];
    let engine = Arc::new(
        Engine::builder()
            .add_queries(&queries)
            .unwrap()
            .chunk_size(333)
            .window_size(2048)
            .build()
            .unwrap(),
    );
    let expected = batch_matches(&engine, &data);

    // A sink whose storage outlives the session: the session owns one clone,
    // the test keeps the other.
    let collected: Arc<Mutex<Vec<OnlineMatch>>> = Arc::default();
    let sink_side = Arc::clone(&collected);
    let sink = move |m: OnlineMatch| sink_side.lock().unwrap().push(m);

    let runtime = Runtime::builder().workers(2).build();
    let mut session = runtime.open_session(Arc::clone(&engine), Box::new(sink));
    for piece in data.chunks(101) {
        session.feed(piece);
    }
    let (report, _sink) = session.finish();

    let mut per_query: Vec<Vec<(usize, usize, u32)>> = vec![Vec::new(); queries.len()];
    for m in collected.lock().unwrap().iter() {
        per_query[m.query].push((m.start, m.end, m.depth));
    }
    for v in &mut per_query {
        v.sort_unstable();
    }
    assert_eq!(per_query, expected);
    assert_eq!(report.stats.bytes_in as usize, data.len());
    // The builder clamps window_size to its minimum; use the effective value.
    let effective_window = engine.config().window_size;
    assert!(report.stats.windows >= (data.len() / (2 * effective_window)) as u64);
}

#[test]
fn iterator_api_streams_the_same_matches() {
    let data = ppt_datasets::TwitterConfig::with_target_size(32 * 1024).generate();
    let queries = [ppt_datasets::twitter_query()];
    let engine = Arc::new(
        Engine::builder()
            .add_queries(&queries)
            .unwrap()
            .chunk_size(512)
            .window_size(4096)
            .build()
            .unwrap(),
    );
    let expected = batch_matches(&engine, &data);

    let runtime = Runtime::builder().workers(2).build();
    let stream = runtime.stream_reader(Arc::clone(&engine), std::io::Cursor::new(data));
    let mut got: Vec<(usize, usize, u32)> = stream.map(|m| (m.start, m.end, m.depth)).collect();
    got.sort_unstable();
    assert_eq!(got, expected[0]);
}

#[test]
fn concurrent_sessions_share_one_pool() {
    let xmark = ppt_datasets::XmarkConfig::with_target_size(48 * 1024).generate();
    let treebank = ppt_datasets::TreebankConfig::with_target_size(48 * 1024).generate();
    let twitter = ppt_datasets::TwitterConfig::with_target_size(48 * 1024).generate();

    let cases: Vec<(&[u8], Vec<&str>)> = vec![
        (&xmark, vec!["//k", "/s/cs/c/a"]),
        (&treebank, vec!["//NP/NN", "//S//VP"]),
        (&twitter, vec![ppt_datasets::twitter_query()]),
    ];

    let runtime = Runtime::builder().workers(3).build();
    std::thread::scope(|scope| {
        let runtime = &runtime;
        let handles: Vec<_> = cases
            .iter()
            .map(|(data, queries)| {
                scope.spawn(move || {
                    let engine = Arc::new(
                        Engine::builder()
                            .add_queries(queries)
                            .unwrap()
                            .chunk_size(777)
                            .window_size(4096)
                            .build()
                            .unwrap(),
                    );
                    let expected = batch_matches(&engine, data);
                    let mut sink = CollectSink::new();
                    let report =
                        runtime.process_reader(Arc::clone(&engine), &data[..], &mut sink).unwrap();
                    let got = online_matches(&sink, queries.len());
                    assert_eq!(got, expected);
                    report
                })
            })
            .collect();
        for handle in handles {
            let report = handle.join().unwrap();
            assert!(report.stats.bytes_in > 0);
        }
    });
}

#[test]
fn malformed_streams_match_the_batch_engine() {
    // Truncated mid-tag, unbalanced closes, tag soup: the online runtime must
    // agree with the batch engine and drain cleanly rather than hang.
    let cases: &[&[u8]] = &[
        b"<s><item><k>a</k></item><ite",
        b"</x></y><item><k>a</k></item>",
        b"<a><b></a></b><k>",
        b"<<<>>><k/>",
    ];
    for &doc in cases {
        assert_equivalent(doc, &["//k", "/s/item"], 4, 16, 3, 2, "malformed");
    }
}

#[test]
fn empty_and_degenerate_streams() {
    let engine = Arc::new(Engine::builder().add_query("/a").unwrap().build().unwrap());
    let runtime = Runtime::builder().workers(1).build();

    let mut sink = CollectSink::new();
    let report = runtime.process_reader(Arc::clone(&engine), std::io::empty(), &mut sink).unwrap();
    assert_eq!(report.match_counts, vec![0]);
    assert!(sink.matches.is_empty());

    // Text-only stream (never a tag): nothing matches, nothing hangs.
    let mut sink = CollectSink::new();
    let report = runtime
        .process_reader(Arc::clone(&engine), &b"no tags here at all"[..], &mut sink)
        .unwrap();
    assert_eq!(report.match_counts, vec![0]);
    assert_eq!(report.stats.bytes_in, 19);
}

/// Streams `data` through a `workers`-thread runtime, checks its matches
/// against `expected` whatever mix of in-order and speculative chunks the
/// pool ran, and returns the report.
fn assert_streams_as(
    engine: &Arc<Engine>,
    data: &[u8],
    expected: &[Vec<(usize, usize, u32)>],
    workers: usize,
    label: &str,
) -> SessionReport {
    let runtime = Runtime::builder().workers(workers).build();
    let mut sink = CollectSink::new();
    let report = runtime.process_reader(Arc::clone(engine), data, &mut sink).unwrap();
    let chunk = engine.config().chunk_size;
    assert_eq!(
        online_matches(&sink, expected.len()),
        expected,
        "{label}: chunk={chunk} workers={workers} differs from the reference"
    );
    let stats = &report.stats;
    assert_eq!(stats.chunks_in_order + stats.chunks_speculative, stats.chunks, "{label}: modes");
    report
}

fn engine_with(queries: &[&str], chunk_size: usize) -> Arc<Engine> {
    let builder = Engine::builder().add_queries(queries).unwrap();
    Arc::new(builder.chunk_size(chunk_size).window_size(128 << 10).build().unwrap())
}

/// The relay runs each session's next chunk in order from its exact entry,
/// and idle workers run chunks ahead from all states: the mix must report
/// exactly what `Engine::run_sequential` — the whole stream as one in-order
/// chunk — reports.
#[test]
fn relay_and_speculation_equal_the_sequential_run() {
    let treebank_queries = ppt_datasets::random_treebank_queries(256, 3, 17);
    let xpathmark: Vec<&str> = ppt_datasets::xpathmark_queries_strs().into_iter().take(6).collect();
    let cases: [(&str, Vec<u8>, Vec<&str>); 3] = [
        ("xmark", ppt_datasets::XmarkConfig::with_target_size(160 << 10).generate(), xpathmark),
        (
            "treebank-256q",
            ppt_datasets::TreebankConfig::with_target_size(160 << 10).generate(),
            treebank_queries.iter().map(String::as_str).collect(),
        ),
        (
            "twitter",
            ppt_datasets::TwitterConfig::with_target_size(160 << 10).generate(),
            vec![ppt_datasets::twitter_query(), "//status", "//retweeted_status//text"],
        ),
    ];
    for (label, data, queries) in &cases {
        for chunk_size in [4 << 10, 16 << 10, 64 << 10] {
            let engine = engine_with(queries, chunk_size);
            let expected = tuples(&engine.run_sequential(data));
            for workers in [1, 2, 4] {
                let report = assert_streams_as(&engine, data, &expected, workers, label);
                if workers == 1 {
                    assert_eq!(
                        report.stats.chunks_speculative, 0,
                        "{label}: one worker speculated"
                    );
                }
            }
        }
    }
}

/// Tag soup that underflows mid-stream: stray closes pop below the document
/// root, so the relay loses the path, the chunk holding the underflow emits
/// nothing (as its speculative mapping would hold no entry for the path), and
/// every later chunk runs from all states — still identical to the batch
/// engine at the same chunk size.
#[test]
fn a_path_lost_mid_stream_hands_over_to_speculation() {
    let item = |i: usize| format!("<item><k>{i}</k><pad>{}</pad></item>", "x".repeat(40));
    let mut doc = b"<s>".to_vec();
    (0..200).for_each(|i| doc.extend_from_slice(item(i).as_bytes()));
    doc.extend_from_slice(b"</s></x></y>");
    (200..400).for_each(|i| doc.extend_from_slice(item(i).as_bytes()));
    let engine = engine_with(&["//item/k", "/s/item"], 4 << 10);
    let expected = batch_matches(&engine, &doc);
    let before_loss = expected[0].len();
    assert!(before_loss > 100 && before_loss < 200, "{before_loss} matches before the loss");
    for workers in [1, 2, 4] {
        let report = assert_streams_as(&engine, &doc, &expected, workers, "underflow");
        assert!(report.stats.chunks_in_order > 0, "the relay ran the prefix in order");
        assert!(report.stats.chunks_speculative > 0, "chunks past the loss ran from all states");
    }
}
