//! # pp-xml — Scalable XML Query Processing using Parallel Pushdown Transducers
//!
//! This crate is the top-level façade of a from-scratch reproduction of
//! *“Scalable XML Query Processing using Parallel Pushdown Transducers”*
//! (Ogden, Thomas, Pietzuch — VLDB 2013).
//!
//! The system executes a small set of streaming XPath queries against an XML
//! byte stream with **data parallelism**: the stream is split at *arbitrary*
//! byte boundaries into chunks, and the per-chunk results are unified in an
//! inexpensive sequential join. A chunk whose entry state is known runs in
//! order from it; a thread that would otherwise idle runs a chunk ahead
//! out-of-order, with a parallel pushdown transducer that maintains a
//! mapping from every possible starting state to its finishing state, while
//! the measured cost of doing so pays off. Batch runs and the online
//! runtime share that one scheduler (`core::sched`).
//!
//! ## Quick start
//!
//! ```
//! use pp_xml::prelude::*;
//!
//! let xml = b"<a><b><d></d></b><b><c></c></b></a>";
//! let engine = Engine::builder()
//!     .add_query("/a/b/c")
//!     .unwrap()
//!     .build()
//!     .unwrap();
//! let result = engine.run(xml);
//! assert_eq!(result.match_count(0), 1);
//! ```
//!
//! ## Streaming online (unbounded streams, many sessions)
//!
//! Batch runs answer one query set over one buffer. The [`runtime`] crate
//! keeps answering them over **unbounded** streams: a [`prelude::Runtime`]
//! owns a shared worker pool, each session pipelines split → transduce →
//! join as concurrent stages, and matches are emitted through a sink or
//! iterator *while the stream flows*, with credit-based backpressure keeping
//! memory bounded no matter how long the stream runs.
//!
//! ```
//! use pp_xml::prelude::*;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(
//!     Engine::builder()
//!         .add_query("/a/b/c")
//!         .unwrap()
//!         .chunk_size(8)
//!         .build()
//!         .unwrap(),
//! );
//! let runtime = Runtime::builder().workers(2).build();
//! let mut sink = CollectSink::new();
//! let report = runtime
//!     .process_reader(engine, &b"<a><b><d></d></b><b><c></c></b></a>"[..], &mut sink)
//!     .unwrap();
//! assert_eq!(report.match_counts, vec![1]);
//! println!("{:.1} MiB/s", report.stats.throughput_mib_s());
//! ```
//!
//! ## Crate layout
//!
//! * [`xmlstream`] — XML lexing, chunk/window splitting, fragments, a small
//!   DOM.
//! * [`xpath`] — the supported XPath subset, parsing and query rewriting.
//! * [`automaton`] — NFA/DFA construction and the pushdown transducer.
//! * [`core`] — the PP-Transducer itself (mappings, unification, double tree,
//!   the relay scheduler, batch execution).
//! * [`runtime`] — the online streaming runtime: pipelined stages, session
//!   multiplexing, incremental match delivery with backpressure.
//! * [`baselines`] — the comparison engines used by the paper's evaluation.
//! * [`datasets`] — synthetic XMark/Treebank/Twitter/Synth dataset generators
//!   and the XPathMark query workload.

// PR-8 hardening: no unsafe code belongs in this crate, and every public
// type must be debuggable from test failures and operator logs.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub use ppt_automaton as automaton;
pub use ppt_baselines as baselines;
pub use ppt_core as core;
pub use ppt_datasets as datasets;
pub use ppt_runtime as runtime;
pub use ppt_xmlstream as xmlstream;
pub use ppt_xpath as xpath;

/// Convenience re-exports covering the common workflow: build an [`prelude::Engine`],
/// run it over bytes (or a stream, via [`prelude::Runtime`]), inspect
/// [`prelude::QueryResult`] matches.
pub mod prelude {
    pub use ppt_core::engine::{Engine, EngineBuilder, EngineConfig, QueryResult};
    pub use ppt_core::stats::RunStats;
    pub use ppt_runtime::{
        AttachError, BorrowedMatch, CollectPayloadSink, CollectSink, CollectSubscriber, Frame,
        FrameDecoder, HandshakeDecoder, HandshakeError, HandshakeReply, HandshakeRequest,
        MatchSink, MatchStream, MaterializedMatch, OnlineMatch, PayloadSink, ReactorStats, Runtime,
        RuntimeStats, SessionHandle, SessionOptions, SessionReport, SharedStreamHandle,
        StreamControl, SubscriberDelivery, SubscriberId, SubscriberReport, SubscriberSink,
        WireFormat, WireServed, WireSink,
    };
    // TCP serving needs Unix; everything above does not.
    #[cfg(unix)]
    pub use ppt_runtime::{
        ConnectionReport, Registration, ServerStats, TcpServer, TcpServerBuilder,
    };
    pub use ppt_xpath::{Query, QueryPlan};
}
