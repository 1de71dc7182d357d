//! The **Parallel Pushdown Transducer** (PP-Transducer) — the paper's core
//! contribution (§3 and §4).
//!
//! A PP-Transducer executes a set of streaming XPath queries against an XML
//! byte stream with data parallelism. The stream is split at *arbitrary* byte
//! boundaries into chunks; each chunk is processed out-of-order by modelling
//! the pushdown transducer from **every possible starting state**, producing a
//! *mapping* from starting state/stack to finishing state/stack and output
//! tape; the per-chunk mappings are then unified in an inexpensive sequential
//! join, and a final filter phase recombines sub-query matches into the user's
//! original (possibly predicated) queries.
//!
//! Module map (paper section in parentheses):
//!
//! * [`mapping`] — map entries and the naive set-of-entries engine with the
//!   transition functions `fplain`/`fpush`/`fpop`/`funknown` (§4.1, Alg 1),
//!   and the compact per-chunk result with its shared output tape.
//! * [`join`] — the unification function `j`/`J` merging two mappings
//!   (§4.1, Alg 2), the fold the pipelines run, the all-states reference.
//! * [`tree`] — the double-tree data structure that processes all entries
//!   sharing a finishing state at once (§4.2, Algs 3–6, Figs 5/6), on a flat
//!   arena with every match stored once.
//! * [`chunk`] — out-of-order processing of a single chunk (either engine).
//! * [`sched`] — the relay scheduler both the batch engine and the online
//!   runtime drive (§3.2 phases i–iii).
//! * [`filter`] — predicate recombination for rewritten queries (§3.2 phase
//!   iv).
//! * [`stats`] — phase timings, transition counts, worker idle time and
//!   working-set proxies used by the evaluation harness.
//! * [`engine`] — the public façade: build an [`engine::Engine`] from query
//!   strings, run it over byte slices or readers.

// PR-8 hardening: no unsafe code belongs in this crate, and every public
// type must be debuggable from test failures and operator logs.
#![forbid(unsafe_code)]
#![deny(missing_debug_implementations)]

pub mod chunk;
pub mod engine;
pub mod filter;
pub mod join;
pub mod mapping;
pub mod sched;
pub mod stats;
pub mod tree;

pub use chunk::{process_chunk, process_chunk_from, ChunkOutput, EngineKind};
pub use engine::{Engine, EngineBuilder, EngineConfig, QueryMatch, QueryResult};
pub use join::ResolvedMatch;
pub use mapping::{ChunkMapping, ChunkMatch, MapEntry, Mapping};
pub use stats::RunStats;
