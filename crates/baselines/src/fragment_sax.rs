//! "Expat-like" baseline: well-formed-fragment splitting, SAX-event
//! materialisation, then an in-order transducer over the events.
//!
//! The defining characteristic of this strategy (and the reason the paper's
//! Fig 7 shows Expat plateauing early) is that every event allocates through a
//! *shared* allocator: with many worker threads the allocator lock becomes the
//! bottleneck rather than the XML processing itself. We reproduce that shape
//! faithfully by routing the per-event name allocations through one global
//! mutex — exactly the contention pattern of a non-thread-caching `malloc`.
//! Construct the engine with [`FragmentSaxEngine::contended_allocator`]
//! `(false)` to measure the same engine without the shared-allocator effect.

use crate::fragment_stream::fragment_parallel;
use crate::result::BaselineResult;
use ppt_automaton::{StateId, Transducer};
use ppt_core::filter::apply_filters;
use ppt_core::ResolvedMatch;
use ppt_xmlstream::{Lexer, XmlEvent};
use ppt_xpath::{compile_queries, QueryPlan, XPathError};
use std::time::Instant;

/// A materialised SAX event with an owned tag name (the per-event allocation
/// an event-callback parser performs).
#[derive(Debug, Clone)]
enum SaxEvent {
    Open { name: Vec<u8>, pos: usize },
    Close { pos: usize },
}

/// Global allocator gate shared by every worker (models a non-thread-caching
/// `malloc`).
static ALLOC_GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn alloc_name(name: &[u8], contended: bool) -> Vec<u8> {
    if contended {
        // UNWRAP-OK: the guarded region cannot panic (a `to_vec` clone), so
        // the gate is never poisoned; this baseline deliberately models a
        // contended global allocator lock.
        let _guard = ALLOC_GATE.lock().unwrap();
        name.to_vec()
    } else {
        name.to_vec()
    }
}

/// Fragment + SAX + transducer baseline.
#[derive(Debug, Clone)]
pub struct FragmentSaxEngine {
    plan: QueryPlan,
    transducer: Transducer,
    fragment_size: usize,
    contended: bool,
}

impl FragmentSaxEngine {
    /// Compiles the engine for a query set.
    pub fn new<S: AsRef<str>>(queries: &[S]) -> Result<Self, XPathError> {
        let plan = compile_queries(queries)?;
        let transducer = Transducer::from_plan(&plan);
        Ok(FragmentSaxEngine {
            plan,
            transducer,
            fragment_size: crate::fragment_stream::DEFAULT_FRAGMENT_SIZE,
            contended: true,
        })
    }

    /// Sets the target fragment size in bytes.
    pub fn fragment_size(mut self, bytes: usize) -> Self {
        self.fragment_size = bytes.max(1);
        self
    }

    /// Enables or disables the shared-allocator contention (on by default).
    pub fn contended_allocator(mut self, contended: bool) -> Self {
        self.contended = contended;
        self
    }

    /// Processes `data` with `threads` workers.
    pub fn run(&self, data: &[u8], threads: usize) -> BaselineResult {
        let start = Instant::now();
        let t = &self.transducer;
        let contended = self.contended;

        let (split, per_fragment, split_time, query_time, idle) =
            fragment_parallel(data, self.fragment_size, threads, |split, range| {
                // Phase 1 (the "Expat" part): materialise SAX events,
                // allocating each tag name.
                let slice = &data[range.clone()];
                let mut events: Vec<SaxEvent> = Vec::new();
                for ev in Lexer::tags_only(slice) {
                    match ev {
                        XmlEvent::Open { name, pos } => events.push(SaxEvent::Open {
                            name: alloc_name(name, contended),
                            pos: range.start + pos,
                        }),
                        XmlEvent::Close { pos, .. } => {
                            events.push(SaxEvent::Close { pos: range.start + pos })
                        }
                        _ => {}
                    }
                }
                // Phase 2: drive the in-order transducer from the SAX events.
                let root_state = t.step(t.initial(), t.classify_name(&split.root_name));
                let events_bytes = events.len() * std::mem::size_of::<SaxEvent>();
                (run_events(t, &events, data, root_state, 1), events_bytes)
            });

        let mut matches: Vec<ResolvedMatch> = Vec::new();
        if !split.root_name.is_empty() {
            let root_state = t.step(t.initial(), t.classify_name(&split.root_name));
            for &q in t.output(root_state) {
                matches.push(ResolvedMatch { pos: 0, end: data.len(), depth: 1, subquery: q });
            }
        }
        let mut working_set = 0usize;
        for (frag_matches, bytes) in per_fragment {
            working_set = working_set.max(bytes);
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
            working_set_bytes: working_set,
        }
    }
}

fn run_events(
    t: &Transducer,
    events: &[SaxEvent],
    data: &[u8],
    start_state: StateId,
    start_depth: u32,
) -> Vec<ResolvedMatch> {
    let mut matches = Vec::new();
    let mut state = start_state;
    let mut state_stack: Vec<StateId> = Vec::new();
    let mut open_stack: Vec<Vec<usize>> = Vec::new();
    for ev in events {
        match ev {
            SaxEvent::Open { name, pos } => {
                let next = t.step(state, t.classify_name(name));
                state_stack.push(state);
                state = next;
                let depth = start_depth + state_stack.len() as u32;
                let mut here = Vec::new();
                for &q in t.output(next) {
                    here.push(matches.len());
                    matches.push(ResolvedMatch { pos: *pos, end: usize::MAX, depth, subquery: q });
                }
                open_stack.push(here);
            }
            SaxEvent::Close { pos } => {
                if let Some(prev) = state_stack.pop() {
                    state = prev;
                }
                if let Some(idxs) = open_stack.pop() {
                    let end = data[*pos..]
                        .iter()
                        .position(|&b| b == b'>')
                        .map(|o| pos + o + 1)
                        .unwrap_or(data.len());
                    for i in idxs {
                        matches[i].end = end;
                    }
                }
            }
        }
    }
    for m in &mut matches {
        if m.end == usize::MAX {
            m.end = data.len();
        }
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Vec<u8> {
        let mut s = String::from("<a>");
        for i in 0..40 {
            s.push_str(&format!("<b><d>x{i}</d></b><b><c/></b>"));
        }
        s.push_str("</a>");
        s.into_bytes()
    }

    #[test]
    fn sax_baseline_matches_ppt() {
        let queries = ["/a/b/c", "//d", "/a/b[d]"];
        let data = doc();
        let engine = FragmentSaxEngine::new(&queries).unwrap().fragment_size(64);
        let ppt = ppt_core::Engine::from_queries(&queries).unwrap();
        let b = engine.run(&data, 2);
        let p = ppt.run(&data);
        let ppt_counts: Vec<usize> = (0..queries.len()).map(|i| p.match_count(i)).collect();
        assert_eq!(b.match_counts, ppt_counts);
        assert!(b.working_set_bytes > 0, "SAX events must have been materialised");
    }

    #[test]
    fn uncontended_mode_gives_the_same_answers() {
        let queries = ["//c"];
        let data = doc();
        let contended = FragmentSaxEngine::new(&queries).unwrap().fragment_size(64);
        let relaxed =
            FragmentSaxEngine::new(&queries).unwrap().fragment_size(64).contended_allocator(false);
        assert_eq!(contended.run(&data, 2).match_counts, relaxed.run(&data, 2).match_counts);
    }
}
