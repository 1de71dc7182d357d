//! The per-layer ledger: each layer (= module) timed from outside, through
//! its public functions, on the workload's own bytes. Every call runs inside
//! a span; a metric is the median over [`REPS`] repetitions.
//!
//! The runtime steps form a ladder — `process_reader` (online pipeline) →
//! `process_materialized` (+ retention and payload slicing) → `serve_reader`
//! (+ copying frame encode) / vectored (borrowed frames instead) — so each
//! step's difference from the one before is that layer's cost.

use crate::metrics::MetricSet;
use crate::server::{nproc, CHUNK_SIZE, MAX_QUERIES, WINDOW_SIZE};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{Inputs, RETAIN_BYTES};
use crate::{Result, MIB};
use ppt_automaton::Transducer;
use ppt_core::join::PrefixFolder;
use ppt_core::{process_chunk, Engine, EngineConfig};
use ppt_runtime::{
    CollectPayloadSink, CollectSink, CollectSubscriber, Frame, FrameDecoder, FrameRef, FrameWrite,
    HandshakeDecoder, HandshakeRequest, Runtime, SessionOptions, WireFormat, WireSink,
};
use ppt_xmlstream::{split_chunks, Lexer, WindowSplitter, XmlEvent};
use std::hint::black_box;
use std::sync::Arc;

/// Repetitions per layer; the metric is their median.
const REPS: usize = 5;

/// Accepts each split frame and drops it: the header is encoded, the payload
/// handed over as borrowed windows and released, never copied.
#[derive(Debug)]
struct DiscardFrames;

impl FrameWrite for DiscardFrames {
    fn write_frame(&mut self, _frame: FrameRef<'_>) -> std::io::Result<()> {
        Ok(())
    }
}

/// Median seconds of `REPS` runs of `f`, each inside a span called `name`.
fn median_s<T>(tracer: &Tracer, name: &'static str, mut f: impl FnMut() -> T) -> f64 {
    let secs: Vec<f64> = (0..REPS).map(|rep| tracer.time(name, rep, || black_box(f())).1).collect();
    median(&secs).unwrap_or(f64::NAN)
}

/// Measures every in-process layer on a sample of the workload's first
/// document and files the results in `out`.
pub fn measure(
    inputs: &Inputs,
    sample_bytes: usize,
    tracer: &Tracer,
    out: &mut MetricSet,
) -> Result<()> {
    let doc = &inputs.docs[0];
    // Cut the sample at a tag start, as the splitters would.
    let cut = sample_bytes.min(doc.len());
    let cut = doc[cut..].iter().position(|&b| b == b'<').map_or(doc.len(), |p| cut + p);
    let sample = &doc[..cut];
    let mib = sample.len() as f64 / MIB;
    // Every query the pass registers, the owner's first.
    let queries: Vec<&str> =
        inputs.conns.iter().flat_map(|c| c.queries.iter().map(String::as_str)).collect();

    // --- xmlstream ---------------------------------------------------------
    let mut tags = 0usize;
    let s = median_s(tracer, "xmlstream.lexer.tags_only", || {
        tags = Lexer::tags_only(sample).count();
    });
    let tags_f = tags.max(1) as f64;
    out.set("xmlstream.lexer.tags_only_mib_s", mib / s)?;
    out.set("xmlstream.lexer.tags_only_ns_per_tag", s * 1e9 / tags_f)?;
    out.set("xmlstream.lexer.tags", tags as f64)?;
    let s = median_s(tracer, "xmlstream.lexer.full", || Lexer::new(sample).count());
    out.set("xmlstream.lexer.full_mib_s", mib / s)?;
    let s = median_s(tracer, "xmlstream.window.split", || {
        let mut splitter = WindowSplitter::new(WINDOW_SIZE);
        let mut windows = 0usize;
        for piece in sample.chunks(64 << 10) {
            splitter.push(piece);
            while let Some(w) = splitter.pop_shared() {
                windows += black_box(w).len();
            }
        }
        windows + splitter.finish_shared().map_or(0, |w| w.len())
    });
    out.set("xmlstream.window.split_mib_s", mib / s)?;
    let s = median_s(tracer, "xmlstream.split.split_chunks", || split_chunks(sample, CHUNK_SIZE));
    out.set("xmlstream.split.split_chunks_mib_s", mib / s)?;

    // --- xpath, automaton ----------------------------------------------------
    let s = median_s(tracer, "xpath.compile", || ppt_xpath::compile_queries(&queries));
    out.set("xpath.compile_us", s * 1e6)?;
    let plan = ppt_xpath::compile_queries(&queries)?;
    let s = median_s(tracer, "automaton.compile", || Transducer::from_plan(&plan));
    out.set("automaton.compile_ms", s * 1e3)?;
    let transducer = Transducer::from_plan(&plan);
    out.set("automaton.states", f64::from(transducer.num_states()))?;
    out.set("automaton.symbols", transducer.num_symbols() as f64)?;
    out.set("automaton.table_bytes", transducer.table_bytes() as f64)?;
    let names: Vec<&[u8]> = Lexer::tags_only(sample)
        .filter_map(|ev| match ev {
            XmlEvent::Open { name, .. } | XmlEvent::Close { name, .. } => Some(name),
            _ => None,
        })
        .collect();
    let s = median_s(tracer, "automaton.classify", || {
        names.iter().fold(0usize, |acc, name| acc ^ transducer.classify_name(name).index())
    });
    out.set("automaton.classify_ns_per_tag", s * 1e9 / tags_f)?;
    let s = median_s(tracer, "automaton.run_sequential", || {
        ppt_automaton::run_sequential(&transducer, sample).len()
    });
    out.set("automaton.run_sequential_mib_s", mib / s)?;
    out.set("automaton.run_sequential_ns_per_tag", s * 1e9 / tags_f)?;

    // --- core ----------------------------------------------------------------
    let engine_config = |threads: usize| EngineConfig {
        chunk_size: CHUNK_SIZE,
        window_size: WINDOW_SIZE,
        threads: Some(threads),
        ..EngineConfig::default()
    };
    let engine = Engine::with_config(&queries, engine_config(nproc()))?;
    let (kind, spans) = (engine.config().engine, engine.config().resolve_spans);
    let chunks = split_chunks(sample, CHUNK_SIZE);
    let run_chunks = || -> Vec<_> {
        chunks
            .iter()
            .map(|c| {
                let (slice, first) = (&sample[c.range.clone()], c.index == 0);
                process_chunk(&transducer, slice, c.range.start, c.index, first, kind, spans)
            })
            .collect()
    };
    let s = median_s(tracer, "core.process_chunk", run_chunks);
    out.set("core.process_chunk_mib_s", mib / s)?;
    out.set("core.process_chunk_ns_per_tag", s * 1e9 / tags_f)?;
    // The paper's §3.3 yardstick: transitions made out of order, from every
    // possible starting state, over those an in-order run makes. Exact counts.
    let outputs = run_chunks();
    let out_of_order: u64 = outputs.iter().map(|o| o.stats.transitions).sum();
    let in_order = ppt_core::chunk::sequential_transitions(&transducer, sample);
    out.set("core.transitions_out_of_order", out_of_order as f64)?;
    out.set("core.transitions_in_order", in_order as f64)?;
    out.set("core.convergence_overhead", out_of_order as f64 / in_order.max(1) as f64)?;
    let mut fold_secs = Vec::new();
    for rep in 0..REPS {
        // Folding consumes the mappings: clone them outside the span.
        let parts: Vec<_> =
            outputs.iter().map(|o| (o.mapping.clone(), o.depth_delta, o.ladder.clone())).collect();
        let mut folder = PrefixFolder::new(&transducer);
        let (_, s) = tracer.time("core.join.fold", rep, || {
            for (mapping, depth_delta, ladder) in parts {
                black_box(folder.fold(mapping, depth_delta, ladder));
            }
        });
        fold_secs.push(s);
    }
    let fold_s = median(&fold_secs).unwrap_or(f64::NAN);
    out.set("core.join.fold_us_per_chunk", fold_s * 1e6 / chunks.len().max(1) as f64)?;
    let engine_t1 = Engine::with_config(&queries, engine_config(1))?;
    let t1 = median_s(tracer, "core.engine.run_t1", || engine_t1.run(sample).total_matches());
    let tn = median_s(tracer, "core.engine.run_tn", || engine.run(sample).total_matches());
    out.set("core.engine.run_t1_mib_s", mib / t1)?;
    out.set("core.engine.run_tn_mib_s", mib / tn)?;
    out.set("core.engine.speedup_tn", t1 / tn)?;

    // --- runtime ---------------------------------------------------------------
    let runtime = Runtime::builder().workers(nproc()).build();
    let engine = Arc::new(engine);
    let opts = SessionOptions::new().stream_id(1).retain_bytes(RETAIN_BYTES as usize);
    let reader_s = median_s(tracer, "runtime.process_reader", || {
        let mut sink = CollectSink::new();
        runtime.process_reader(Arc::clone(&engine), sample, &mut sink).map(|_| sink.matches.len())
    });
    out.set("runtime.process_reader_mib_s", mib / reader_s)?;
    let materialized_s = median_s(tracer, "runtime.process_materialized", || {
        let mut sink = CollectPayloadSink::new();
        runtime
            .process_materialized(Arc::clone(&engine), &opts, sample, &mut sink)
            .map(|_| sink.matches.len())
    });
    out.set("runtime.process_materialized_mib_s", mib / materialized_s)?;
    let s = median_s(tracer, "runtime.serve_reader", || {
        runtime
            .serve_reader(Arc::clone(&engine), &opts, sample, std::io::sink(), WireFormat::Binary)
            .map(|served| served.frames)
    });
    out.set("runtime.serve_reader_mib_s", mib / s)?;
    let s = median_s(tracer, "runtime.wire.vectored", || {
        let mut sink =
            WireSink::new_vectored(std::io::sink(), WireFormat::Binary, Box::new(DiscardFrames));
        runtime
            .process_materialized(Arc::clone(&engine), &opts, sample, &mut sink)
            .map(|report| report.stats.matches)
    });
    out.set("runtime.wire.vectored_mib_s", mib / s)?;

    let mut sink = CollectPayloadSink::new();
    runtime.process_materialized(Arc::clone(&engine), &opts, sample, &mut sink)?;
    let matches = sink.matches.len().max(1) as f64;
    // `RetentionRing` is private to the runtime; from outside, its push +
    // collect cost is what materialized delivery adds to offsets-only.
    out.set("runtime.retain.collect_ns_per_match", (materialized_s - reader_s) * 1e9 / matches)?;
    let frames = sink
        .matches
        .into_iter()
        .map(Frame::try_from_match)
        .collect::<std::result::Result<Vec<Frame>, _>>()?;
    let mut wire = Vec::new();
    let s = median_s(tracer, "runtime.wire.encode", || {
        wire.clear();
        frames.iter().for_each(|f| f.encode_binary(&mut wire));
        wire.len()
    });
    out.set("runtime.wire.encode_ns_per_frame", s * 1e9 / matches)?;
    let decode = || -> Result<usize> {
        let mut decoder = FrameDecoder::new();
        let mut decoded = 0;
        for piece in wire.chunks(64 << 10) {
            decoder.push(piece);
            while let Some(frame) = decoder.next_frame()? {
                black_box(frame);
                decoded += 1;
            }
        }
        Ok(decoded)
    };
    if decode()? != frames.len() {
        return Err("the frame decoder lost frames".into());
    }
    let s = median_s(tracer, "runtime.wire.decode", decode);
    out.set("runtime.wire.decode_ns_per_frame", s * 1e9 / matches)?;
    let mut request = HandshakeRequest::new(WireFormat::Binary).retain_bytes(RETAIN_BYTES);
    for q in &inputs.conns[0].queries {
        request = request.query(q);
    }
    let handshake = request.encode();
    let s = median_s(tracer, "runtime.wire.handshake_decode", || {
        HandshakeDecoder::with_limits(ppt_runtime::wire::DEFAULT_MAX_HANDSHAKE_LINE, MAX_QUERIES)
            .push(&handshake)
            .map(|parsed| parsed.is_some())
    });
    out.set("runtime.wire.handshake_decode_us", s * 1e6)?;

    // --- subscribe -------------------------------------------------------------
    // The pass's connections as in-process subscribers of one shared stream
    // (a single-connection workload attaches its own query set a second time).
    let attached = inputs.conns.last().map_or(&[][..], |c| &c.queries[..]);
    let mut shed = 0;
    let mut shared_secs = Vec::new();
    for rep in 0..REPS {
        let owner = CollectSubscriber::new();
        let subscriber = CollectSubscriber::new();
        let reports = [owner.handles().1, subscriber.handles().1];
        let (result, s) = tracer.time("runtime.subscribe.shared_stream", rep, || -> Result<()> {
            let mut handle = runtime.open_shared_stream(
                &opts,
                engine_config(nproc()),
                1 << 16,
                &inputs.conns[0].queries,
                Box::new(owner),
            )?;
            handle.control().attach(attached, Box::new(subscriber))?;
            for piece in sample.chunks(64 << 10) {
                handle.feed(piece);
            }
            match handle.finish().error {
                Some(e) => Err(e.into()),
                None => Ok(()),
            }
        });
        result?;
        shared_secs.push(s);
        shed = 0;
        for report in &reports {
            let report = report.lock().unwrap_or_else(|e| e.into_inner());
            shed += report.as_ref().map_or(0, |r| r.dropped);
        }
    }
    let shared_s = median(&shared_secs).unwrap_or(f64::NAN);
    out.set("runtime.subscribe.shared_stream_mib_s", mib / shared_s)?;
    out.set("runtime.subscribe.shed_frames", shed as f64)?;
    Ok(())
}
