//! "XMLTK (split)"-style baseline: a sequential well-formed-fragment split
//! followed by parallel in-order transducer passes over the fragments.
//!
//! This is the parallelisation strategy the paper applies to existing stream
//! processors for a fair comparison (§5): because fragments must be
//! well-formed, the splitter has to track element nesting over the whole
//! input, which is the sequential bottleneck that caps this engine's
//! scalability.

use crate::result::BaselineResult;
use crate::sequential::run_inorder_with_spans;
use ppt_automaton::Transducer;
use ppt_core::filter::apply_filters;
use ppt_core::ResolvedMatch;
use ppt_xmlstream::fragment::{split_well_formed, FragmentSplit};
use ppt_xpath::{compile_queries, QueryPlan, XPathError};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Default fragment target size (same order as the paper's 10 MB skip).
pub const DEFAULT_FRAGMENT_SIZE: usize = 1 << 20;

/// Parallelised stream-processor baseline over well-formed fragments.
#[derive(Debug, Clone)]
pub struct FragmentStreamEngine {
    plan: QueryPlan,
    transducer: Transducer,
    fragment_size: usize,
}

/// Shared scaffold for fragment-parallel engines: splits sequentially, then
/// runs `work` over every fragment on a pool of `threads` workers, returning
/// per-fragment results, the split duration, the query-phase duration and the
/// idle fraction.
pub(crate) fn fragment_parallel<T, F>(
    data: &[u8],
    fragment_size: usize,
    threads: usize,
    work: F,
) -> (FragmentSplit, Vec<T>, Duration, Duration, f64)
where
    F: Fn(&FragmentSplit, std::ops::Range<usize>) -> T + Sync,
    T: Send,
{
    let split_start = Instant::now();
    let split = split_well_formed(data, fragment_size);
    let split_time = split_start.elapsed();

    let query_start = Instant::now();
    // Fragments are pulled off a shared counter by scoped threads, so a slow
    // fragment never holds up the rest of one thread's share.
    let fragments = &split.fragments;
    let next = AtomicUsize::new(0);
    let mut timed: Vec<(usize, T, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.clamp(1, fragments.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        // RELAXED-OK: the counter only hands out distinct
                        // indices (RMW atomicity); the scope's join
                        // publishes the results.
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(frag) = fragments.get(i) else { break };
                        let t0 = Instant::now();
                        let out = work(&split, frag.clone());
                        local.push((i, out, t0.elapsed()));
                    }
                    local
                })
            })
            .collect();
        let joined = handles.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
        joined.flatten().collect()
    });
    let query_time = query_start.elapsed();
    timed.sort_unstable_by_key(|&(i, ..)| i);
    let busy: Duration = timed.iter().map(|(.., d)| *d).sum();
    let capacity = query_time.as_secs_f64() * threads.max(1) as f64;
    // The sequential split keeps every worker idle, so it counts towards idle
    // time just as it does in the paper's measurements.
    let total_capacity = capacity + split_time.as_secs_f64() * threads.max(1) as f64;
    let idle = if total_capacity > 0.0 {
        ((total_capacity - busy.as_secs_f64()).max(0.0)) / total_capacity
    } else {
        0.0
    };
    let results = timed.into_iter().map(|(_, t, _)| t).collect();
    (split, results, split_time, query_time, idle)
}

impl FragmentStreamEngine {
    /// Compiles the engine for a query set.
    pub fn new<S: AsRef<str>>(queries: &[S]) -> Result<Self, XPathError> {
        let plan = compile_queries(queries)?;
        let transducer = Transducer::from_plan(&plan);
        Ok(FragmentStreamEngine { plan, transducer, fragment_size: DEFAULT_FRAGMENT_SIZE })
    }

    /// Sets the target fragment size in bytes.
    pub fn fragment_size(mut self, bytes: usize) -> Self {
        self.fragment_size = bytes.max(1);
        self
    }

    /// Processes `data` with `threads` workers.
    pub fn run(&self, data: &[u8], threads: usize) -> BaselineResult {
        let start = Instant::now();
        let t = &self.transducer;
        let root_state_of =
            |split: &FragmentSplit| t.step(t.initial(), t.classify_name(&split.root_name));
        let (split, per_fragment, split_time, query_time, idle) =
            fragment_parallel(data, self.fragment_size, threads, |split, range| {
                run_inorder_with_spans(
                    t,
                    &data[range.clone()],
                    range.start,
                    root_state_of(split),
                    1,
                )
            });

        // Matches on the root element itself (fragments exclude it).
        let mut matches: Vec<ResolvedMatch> = Vec::new();
        if !split.root_name.is_empty() {
            let root_state = root_state_of(&split);
            for &q in t.output(root_state) {
                matches.push(ResolvedMatch { pos: 0, end: data.len(), depth: 1, subquery: q });
            }
        }
        for frag_matches in per_fragment {
            matches.extend(frag_matches);
        }
        matches.sort_by_key(|m| m.pos);
        let outcome = apply_filters(&self.plan, &matches);
        BaselineResult {
            match_counts: outcome.matches.iter().map(|m| m.len()).collect(),
            split_time,
            query_time,
            total_time: start.elapsed(),
            bytes: data.len(),
            threads,
            idle_fraction: idle,
            working_set_bytes: 64 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Vec<u8> {
        let mut s = String::from("<a>");
        for i in 0..50 {
            s.push_str(&format!("<b><d>x{i}</d></b><b><c>y{i}</c></b>"));
        }
        s.push_str("</a>");
        s.into_bytes()
    }

    #[test]
    fn fragment_stream_matches_ppt() {
        let queries = ["/a/b/c", "//d", "/a/b[d]"];
        let data = doc();
        let engine = FragmentStreamEngine::new(&queries).unwrap().fragment_size(64);
        let ppt = ppt_core::Engine::from_queries(&queries).unwrap();
        let b = engine.run(&data, 3);
        let p = ppt.run(&data);
        let ppt_counts: Vec<usize> = (0..queries.len()).map(|i| p.match_count(i)).collect();
        assert_eq!(b.match_counts, ppt_counts);
        assert!(b.split_time >= Duration::ZERO);
        assert_eq!(b.threads, 3);
    }

    #[test]
    fn root_level_matches_are_reported() {
        let engine = FragmentStreamEngine::new(&["/a", "/a/b"]).unwrap().fragment_size(16);
        let data = doc();
        let r = engine.run(&data, 2);
        assert_eq!(r.match_counts[0], 1);
        assert_eq!(r.match_counts[1], 100);
    }

    #[test]
    fn single_fragment_degenerates_to_sequential() {
        let queries = ["//c"];
        let data = doc();
        let engine = FragmentStreamEngine::new(&queries).unwrap().fragment_size(usize::MAX / 2);
        let r = engine.run(&data, 1);
        assert_eq!(r.match_counts[0], 50);
    }
}
