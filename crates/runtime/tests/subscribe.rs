//! Subscription-layer equivalence: N subscribers sharing one stream must be
//! indistinguishable — match sets, attribution, payload bytes — from N
//! independent engines each running its own session over the same bytes, and
//! one subscriber's misbehaviour (slow, panicking, over-budget) must never
//! leak into its co-subscribers.

use ppt_core::{Engine, EngineConfig};
use ppt_datasets::{TreebankConfig, XmarkConfig};
use ppt_runtime::subscribe::{SubscriberDelivery, SubscriberSink};
use ppt_runtime::{
    AttachError, BorrowedMatch, CollectPayloadSink, CollectSubscriber, MaterializedMatch, Runtime,
    SessionOptions, SubscriberReport,
};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const CHUNK: usize = 2 << 10;
const WINDOW: usize = 8 << 10;
const RETAIN: usize = 8 << 20;
const BUDGET: usize = 4096;

/// Per-local-query sorted `(start, end, payload)` tuples.
type PerQuery = Vec<Vec<(usize, usize, Option<Vec<u8>>)>>;

fn config() -> EngineConfig {
    EngineConfig { chunk_size: CHUNK, window_size: WINDOW, ..EngineConfig::default() }
}

fn opts() -> SessionOptions {
    SessionOptions::new().stream_id(7).retain_bytes(RETAIN)
}

/// Runs `queries` as a private engine over `data` through the same runtime
/// machinery (materialized session, same chunk/window sizes) and returns
/// per-local-query sorted `(start, end, payload)` tuples.
fn independent(runtime: &Runtime, data: &[u8], queries: &[&str]) -> PerQuery {
    let engine = Arc::new(
        Engine::builder()
            .add_queries(queries)
            .unwrap()
            .chunk_size(CHUNK)
            .window_size(WINDOW)
            .resolve_spans(true)
            .build()
            .unwrap(),
    );
    let mut sink = CollectPayloadSink::new();
    runtime.process_materialized(engine, &opts(), data, &mut sink).unwrap();
    let mut per_query: PerQuery = vec![Vec::new(); queries.len()];
    for m in sink.matches {
        per_query[m.m.query].push((m.m.start, m.m.end, m.payload));
    }
    for v in &mut per_query {
        v.sort_unstable();
    }
    per_query
}

/// Collapses one subscriber's collected matches into the same shape.
fn collected(matches: &Mutex<Vec<MaterializedMatch>>, query_count: usize) -> PerQuery {
    let mut per_query: PerQuery = vec![Vec::new(); query_count];
    for m in matches.lock().unwrap().iter() {
        per_query[m.m.query].push((m.m.start, m.m.end, m.payload.clone()));
    }
    for v in &mut per_query {
        v.sort_unstable();
    }
    per_query
}

/// Feeds a whole document through a shared stream in server-ish pieces.
fn feed_all(handle: &mut ppt_runtime::SharedStreamHandle, data: &[u8]) {
    for piece in data.chunks(1777) {
        handle.feed(piece);
    }
}

#[test]
fn shared_stream_is_byte_identical_to_independent_engines() {
    let data = TreebankConfig::with_target_size(192 << 10).generate();
    // Overlapping query sets: q1 appears in all three, q2 in two, and one
    // subscriber registers a query twice under two local ids.
    let subs: Vec<Vec<&str>> = vec![
        vec!["//np//nn", "//vp/vb"],
        vec!["//vp/vb", "//s//pp", "//vp/vb"],
        vec!["//np//nn", "//pp/in"],
    ];

    let runtime = Runtime::builder().workers(3).build();
    let first = CollectSubscriber::new();
    let (m0, r0) = first.handles();
    let mut handle =
        runtime.open_shared_stream(&opts(), config(), BUDGET, &subs[0], Box::new(first)).unwrap();
    let control = handle.control();
    let mut handles = vec![(m0, r0)];
    for sub in &subs[1..] {
        let c = CollectSubscriber::new();
        handles.push(c.handles());
        control.attach(sub, Box::new(c)).unwrap();
    }
    assert_eq!(control.subscriber_count(), 3);
    // The merged automaton holds the dedup'd union: 4 distinct queries.
    assert_eq!(control.merged_query_count(), 4);

    feed_all(&mut handle, &data);
    let report = handle.finish();
    assert!(report.error.is_none());

    for (sub, (matches, report)) in subs.iter().zip(&handles) {
        let expected = independent(&runtime, &data, sub);
        let got = collected(matches, sub.len());
        assert_eq!(got, expected, "subscriber {sub:?} diverged from a private engine");
        let report = report.lock().unwrap().clone().expect("end() delivered a report");
        assert!(report.error.is_none());
        let expected_counts: Vec<usize> = expected.iter().map(Vec::len).collect();
        assert_eq!(report.match_counts, expected_counts);
        assert_eq!(report.delivered as usize, expected_counts.iter().sum::<usize>());
        assert_eq!(report.dropped, 0);
    }
    assert!(control.is_ended());
    assert!(matches!(
        control.attach(&["//a"], Box::new(CollectSubscriber::new())),
        Err(AttachError::Ended)
    ));
}

#[test]
fn predicated_and_text_queries_fan_out_identically() {
    let data = XmarkConfig::with_target_size(192 << 10).generate();
    let subs: Vec<Vec<&str>> =
        vec![vec!["/s/cs/c[a/d/t/k]/d", "//c//k"], vec!["//c//k", "//i[@f]"]];
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let h0 = first.handles();
    let mut handle =
        runtime.open_shared_stream(&opts(), config(), BUDGET, &subs[0], Box::new(first)).unwrap();
    let second = CollectSubscriber::new();
    let h1 = second.handles();
    handle.control().attach(&subs[1], Box::new(second)).unwrap();

    feed_all(&mut handle, &data);
    let report = handle.finish();
    assert!(report.error.is_none());

    for (sub, (matches, _)) in subs.iter().zip([&h0, &h1]) {
        let expected = independent(&runtime, &data, sub);
        assert_eq!(collected(matches, sub.len()), expected, "subscriber {sub:?} diverged");
    }
}

#[test]
fn mid_stream_attach_sees_exactly_the_suffix() {
    let data = TreebankConfig::with_target_size(128 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let (m0, _) = first.handles();
    let mut handle = runtime
        .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
        .unwrap();
    let control = handle.control();

    let split = data.len() / 2;
    handle.feed(&data[..split]);
    // Attach a *novel* query mid-stream: effective at the next chunk
    // boundary, somewhere at or after `split` minus whatever is still queued.
    let late = CollectSubscriber::new();
    let (m1, r1) = late.handles();
    control.attach(&["//vp/vb"], Box::new(late)).unwrap();
    handle.feed(&data[split..]);
    let report = handle.finish();
    assert!(report.error.is_none());

    // The original subscriber is untouched by the swap: full-stream results.
    assert_eq!(collected(&m0, 1), independent(&runtime, &data, &["//np//nn"]));

    // The late subscriber sees a suffix: a subset of the full-stream result
    // containing at least every match that opens after the attach point.
    let full = independent(&runtime, &data, &["//vp/vb"]).remove(0);
    let got = collected(&m1, 1).remove(0);
    let mut iter = full.iter();
    for m in &got {
        assert!(
            iter.any(|f| f == m),
            "late subscriber saw a match a private engine never produced: {:?}",
            (m.0, m.1)
        );
    }
    for m in full.iter().filter(|m| m.0 >= split) {
        assert!(got.contains(m), "late subscriber missed a post-attach match at {}", m.0);
    }
    let report = r1.lock().unwrap().clone().unwrap();
    assert_eq!(report.delivered as usize, got.len());
    assert_eq!(report.match_counts, vec![got.len()]);
}

/// `Engine::run_sequential` — the whole stream as one in-order chunk — in
/// the shape of [`independent`].
fn sequential(data: &[u8], queries: &[&str]) -> PerQuery {
    let engine = Engine::builder().add_queries(queries).unwrap().build().unwrap();
    let result = engine.run_sequential(data);
    let per_query = result.query_matches.iter().map(|ms| {
        let mut v: Vec<_> =
            ms.iter().map(|m| (m.start, m.end, Some(data[m.start..m.end].to_vec()))).collect();
        v.sort_unstable();
        v
    });
    per_query.collect()
}

/// A late attach swaps the engine mid-stream while the relay is carrying the
/// session's chunks in order. The relay crosses the swap the way the joiner
/// does — replaying the open-tag path into the merged transducer — so on one
/// worker no chunk ever runs from all states, and on any worker count the
/// first subscriber sees exactly the sequential run and the late one a
/// suffix of it.
#[test]
fn a_late_attach_swaps_the_engine_under_the_relay() {
    let data = TreebankConfig::with_target_size(128 << 10).generate();
    let split = data.len() / 2;
    let full = sequential(&data, &["//vp/vb"]).remove(0);
    for workers in [1, 2, 4] {
        let runtime = Runtime::builder().workers(workers).build();
        let first = CollectSubscriber::new();
        let (m0, _) = first.handles();
        let mut handle = runtime
            .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
            .unwrap();
        let control = handle.control();
        handle.feed(&data[..split]);
        let late = CollectSubscriber::new();
        let (m1, _) = late.handles();
        control.attach(&["//vp/vb"], Box::new(late)).unwrap();
        handle.feed(&data[split..]);
        let report = handle.finish();
        assert!(report.error.is_none());

        assert_eq!(collected(&m0, 1), sequential(&data, &["//np//nn"]), "workers={workers}");
        let got = collected(&m1, 1).remove(0);
        let mut iter = full.iter();
        assert!(got.iter().all(|m| iter.any(|f| f == m)), "workers={workers}: not a suffix");
        assert!(full.iter().filter(|m| m.0 >= split).all(|m| got.contains(m)));
        assert!(report.stats.chunks_in_order > 0, "workers={workers}: the relay never ran");
        if workers == 1 {
            assert_eq!(report.stats.chunks_speculative, 0, "the swap lost the relay's path");
        }
    }
}

#[test]
fn covered_query_attach_is_attribution_only() {
    let data = TreebankConfig::with_target_size(96 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let mut handle = runtime
        .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
        .unwrap();
    let control = handle.control();
    let states_before = control.automaton_states();

    handle.feed(&data[..data.len() / 2]);
    // Same query text: no recompile, no swap — and because the automaton
    // already evaluates it, the late subscriber still gets *full-stream*
    // coverage of everything delivered after its attach... which for a
    // covered attach means every match the joiner has not yet emitted.
    let twin = CollectSubscriber::new();
    let (m1, _) = twin.handles();
    control.attach(&["//np//nn"], Box::new(twin)).unwrap();
    assert_eq!(control.merged_query_count(), 1);
    assert_eq!(control.automaton_states(), states_before);
    handle.feed(&data[data.len() / 2..]);
    handle.finish();

    // Subset of the private engine's result (the prefix already emitted
    // before the attach is the only thing it can miss).
    let full = independent(&runtime, &data, &["//np//nn"]).remove(0);
    let got = collected(&m1, 1).remove(0);
    for m in &got {
        assert!(full.contains(m));
    }
}

#[test]
fn detach_stops_delivery_and_reports() {
    let data = TreebankConfig::with_target_size(96 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let (m0, _) = first.handles();
    let mut handle = runtime
        .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
        .unwrap();
    let control = handle.control();
    let second = CollectSubscriber::new();
    let (m1, r1) = second.handles();
    let id = control.attach(&["//np//nn", "//vp/vb"], Box::new(second)).unwrap();
    assert_eq!(control.subscriber_count(), 2);

    handle.feed(&data[..data.len() / 2]);
    let report = control.detach(id).expect("subscriber was live");
    assert_eq!(control.subscriber_count(), 1);
    assert!(report.error.is_none());
    let seen_at_detach = m1.lock().unwrap().len();
    assert_eq!(report.delivered as usize, seen_at_detach);
    // end() fired exactly once, with the same accounting.
    assert_eq!(r1.lock().unwrap().clone().unwrap().delivered, report.delivered);
    // Detaching again is a no-op.
    assert!(control.detach(id).is_none());

    handle.feed(&data[data.len() / 2..]);
    handle.finish();
    // Nothing arrived after the detach.
    assert_eq!(m1.lock().unwrap().len(), seen_at_detach);
    // The survivor still matches a private engine exactly.
    assert_eq!(collected(&m0, 1), independent(&runtime, &data, &["//np//nn"]));
}

/// A sink that panics on its first delivery.
#[derive(Debug)]
struct PanicSink {
    report: Arc<Mutex<Option<SubscriberReport>>>,
}

impl SubscriberSink for PanicSink {
    fn deliver(&mut self, _m: BorrowedMatch) -> SubscriberDelivery {
        panic!("subscriber exploded");
    }
    fn end(&mut self, report: SubscriberReport) {
        *self.report.lock().unwrap() = Some(report);
    }
}

#[test]
fn panicking_subscriber_poisons_only_itself() {
    let data = TreebankConfig::with_target_size(96 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let (m0, r0) = first.handles();
    let mut handle = runtime
        .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
        .unwrap();
    let bomb_report: Arc<Mutex<Option<SubscriberReport>>> = Arc::default();
    handle
        .control()
        .attach(&["//np//nn"], Box::new(PanicSink { report: Arc::clone(&bomb_report) }))
        .unwrap();

    feed_all(&mut handle, &data);
    let report = handle.finish();
    // The stream itself is healthy...
    assert!(report.error.is_none());
    // ...the well-behaved co-subscriber got everything...
    assert_eq!(collected(&m0, 1), independent(&runtime, &data, &["//np//nn"]));
    assert!(r0.lock().unwrap().clone().unwrap().error.is_none());
    // ...and the bomb's own report carries its panic.
    let bomb = bomb_report.lock().unwrap().clone().expect("dead subscriber still gets end()");
    let err = bomb.error.expect("panic recorded");
    assert!(err.contains("subscriber exploded"), "unexpected error: {err}");
}

/// A sink that always sheds load.
#[derive(Debug)]
struct DropSink {
    report: Arc<Mutex<Option<SubscriberReport>>>,
}

impl SubscriberSink for DropSink {
    fn deliver(&mut self, _m: BorrowedMatch) -> SubscriberDelivery {
        SubscriberDelivery::Dropped
    }
    fn end(&mut self, report: SubscriberReport) {
        *self.report.lock().unwrap() = Some(report);
    }
}

#[test]
fn slow_subscriber_sheds_without_stalling_the_stream() {
    let data = TreebankConfig::with_target_size(96 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let (m0, _) = first.handles();
    let mut handle = runtime
        .open_shared_stream(&opts(), config(), BUDGET, &["//np//nn"], Box::new(first))
        .unwrap();
    let slow_report: Arc<Mutex<Option<SubscriberReport>>> = Arc::default();
    handle
        .control()
        .attach(&["//np//nn"], Box::new(DropSink { report: Arc::clone(&slow_report) }))
        .unwrap();

    feed_all(&mut handle, &data);
    let report = handle.finish();
    assert!(report.error.is_none());

    let expected = independent(&runtime, &data, &["//np//nn"]);
    assert_eq!(collected(&m0, 1), expected);
    let slow = slow_report.lock().unwrap().clone().unwrap();
    assert_eq!(slow.delivered, 0);
    assert_eq!(slow.dropped as usize, expected[0].len());
    assert!(slow.error.is_none(), "shedding is not an error");
}

#[test]
fn over_budget_merge_is_refused_without_harming_the_stream() {
    let data = TreebankConfig::with_target_size(64 << 10).generate();
    let runtime = Runtime::builder().workers(2).build();
    let first = CollectSubscriber::new();
    let (m0, _) = first.handles();
    // A tight budget the base query fits under.
    let mut handle =
        runtime.open_shared_stream(&opts(), config(), 64, &["//np//nn"], Box::new(first)).unwrap();
    let control = handle.control();
    let states = control.automaton_states();
    let queries_before = control.merged_query_count();

    // Descendant-chained query sets explode under subset construction; the
    // merge must be refused, not degrade the stream.
    let exploding: Vec<String> = (0..12).map(|i| format!("//a{i}//b{i}//c{i}")).collect();
    let err = control
        .attach(&exploding, Box::new(CollectSubscriber::new()))
        .expect_err("merge must exceed a 64-state budget");
    assert!(matches!(err, AttachError::Budget(_)), "got {err}");
    // Nothing changed for the incumbents.
    assert_eq!(control.merged_query_count(), queries_before);
    assert_eq!(control.automaton_states(), states);
    assert_eq!(control.subscriber_count(), 1);

    feed_all(&mut handle, &data);
    assert!(handle.finish().error.is_none());
    assert_eq!(collected(&m0, 1), independent(&runtime, &data, &["//np//nn"]));

    // And a malformed query is a structured parse error, same contract.
    let runtime2 = Runtime::builder().workers(1).build();
    assert!(matches!(
        runtime2.open_shared_stream(
            &opts(),
            config(),
            BUDGET,
            &["///"],
            Box::new(CollectSubscriber::new())
        ),
        Err(AttachError::Query(_))
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random overlapping query sets, random subscriber counts, subscribers
    /// attaching up-front and detaching mid-stream: every subscriber that
    /// stays to the end is byte-identical to a private engine; every
    /// detached subscriber saw a prefix of its private engine's result.
    #[test]
    fn random_subscriber_mix_equals_private_engines(
        seed in 0u64..1 << 32,
        n_subs in 2usize..6,
        detach_idx in 0usize..6,
    ) {
        const POOL: [&str; 6] =
            ["//np//nn", "//vp/vb", "//s//pp", "//pp/in", "//np[nn]/dt", "//s/vp"];
        let data = TreebankConfig::with_target_size(64 << 10).generate();
        let runtime = Runtime::builder().workers(2).build();

        // Deterministic per-case query sets out of the pool.
        let mut pick = seed;
        let mut subs: Vec<Vec<&str>> = Vec::new();
        for _ in 0..n_subs {
            let mut set = Vec::new();
            for q in POOL {
                pick = pick.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                if pick >> 33 & 1 == 1 {
                    set.push(q);
                }
            }
            if set.is_empty() {
                set.push(POOL[(pick >> 7) as usize % POOL.len()]);
            }
            subs.push(set);
        }

        let first = CollectSubscriber::new();
        let mut handles = vec![first.handles()];
        let mut handle = runtime
            .open_shared_stream(&opts(), config(), BUDGET, &subs[0], Box::new(first))
            .unwrap();
        let control = handle.control();
        let mut ids = vec![0];
        for sub in &subs[1..] {
            let c = CollectSubscriber::new();
            handles.push(c.handles());
            ids.push(control.attach(sub, Box::new(c)).unwrap());
        }

        let split = data.len() / 2;
        handle.feed(&data[..split]);
        let detached = detach_idx < n_subs && detach_idx > 0;
        if detached {
            control.detach(ids[detach_idx]).unwrap();
        }
        handle.feed(&data[split..]);
        let report = handle.finish();
        prop_assert!(report.error.is_none());

        for (i, (sub, (matches, _))) in subs.iter().zip(&handles).enumerate() {
            let expected = independent(&runtime, &data, sub);
            let got = collected(matches, sub.len());
            if detached && i == detach_idx {
                // A detached subscriber saw a prefix: per query, a prefix of
                // the private engine's emission-ordered stream — sorted here,
                // so subset is the robust check.
                for (g, e) in got.iter().zip(&expected) {
                    for m in g {
                        prop_assert!(e.contains(m));
                    }
                }
            } else {
                prop_assert_eq!(&got, &expected, "subscriber {} ({:?}) diverged", i, sub);
            }
        }
    }
}
