//! Single-threaded streaming baseline (XMLTK / MxQuery-like) and the shared
//! in-order execution helper used by every fragment-based baseline.

use crate::result::BaselineResult;
use ppt_automaton::{StateId, Transducer};
use ppt_core::filter::apply_filters;
use ppt_core::ResolvedMatch;
use ppt_xmlstream::{Lexer, XmlEvent};
use ppt_xpath::{compile_queries, QueryPlan, XPathError};
use std::time::Instant;

/// Runs the in-order transducer over `slice`, starting from `start_state` at
/// element depth `start_depth`, resolving element spans locally. Elements that
/// do not close inside the slice end at the end of the slice.
///
/// This is the execution core shared by the sequential baseline and the
/// fragment-parallel baselines (each fragment is processed by one call).
pub fn run_inorder_with_spans(
    t: &Transducer,
    slice: &[u8],
    abs_offset: usize,
    start_state: StateId,
    start_depth: u32,
) -> Vec<ResolvedMatch> {
    let mut matches: Vec<ResolvedMatch> = Vec::new();
    let mut state = start_state;
    let mut state_stack: Vec<StateId> = Vec::with_capacity(32);
    // Open elements: (absolute position, number of matches recorded at it).
    let mut open_stack: Vec<(usize, Vec<usize>)> = Vec::with_capacity(32);

    let full = t.needs_full_events();
    let handle = |ev: XmlEvent<'_>,
                  state: &mut StateId,
                  state_stack: &mut Vec<StateId>,
                  open_stack: &mut Vec<(usize, Vec<usize>)>,
                  matches: &mut Vec<ResolvedMatch>| {
        match ev {
            XmlEvent::Open { name, pos } => {
                let abs = abs_offset + pos;
                let next = t.step(*state, t.classify_name(name));
                state_stack.push(*state);
                *state = next;
                let depth = start_depth + state_stack.len() as u32;
                let mut here = Vec::new();
                for &q in t.output(next) {
                    here.push(matches.len());
                    matches.push(ResolvedMatch { pos: abs, end: usize::MAX, depth, subquery: q });
                }
                open_stack.push((abs, here));
            }
            XmlEvent::Close { pos, .. } => {
                if let Some(prev) = state_stack.pop() {
                    *state = prev;
                }
                if let Some((_, match_idxs)) = open_stack.pop() {
                    let end = abs_offset
                        + slice[pos..]
                            .iter()
                            .position(|&b| b == b'>')
                            .map(|o| pos + o + 1)
                            .unwrap_or(slice.len());
                    for i in match_idxs {
                        matches[i].end = end;
                    }
                }
            }
            XmlEvent::Attr { name, pos, .. } => {
                if let Some(sym) = t.classify_attr(name) {
                    let next = t.step(*state, sym);
                    let depth = start_depth + state_stack.len() as u32 + 1;
                    for &q in t.output(next) {
                        matches.push(ResolvedMatch {
                            pos: abs_offset + pos,
                            end: abs_offset + pos,
                            depth,
                            subquery: q,
                        });
                    }
                }
            }
            XmlEvent::Text { text, pos } => {
                let trimmed = ppt_automaton::exec::trim_ws(text);
                if trimmed.is_empty() {
                    return;
                }
                if let Some(sym) = t.classify_text(trimmed) {
                    let next = t.step(*state, sym);
                    let depth = start_depth + state_stack.len() as u32 + 1;
                    for &q in t.output(next) {
                        matches.push(ResolvedMatch {
                            pos: abs_offset + pos,
                            end: abs_offset + pos + text.len(),
                            depth,
                            subquery: q,
                        });
                    }
                }
            }
        }
    };

    if full {
        for ev in Lexer::new(slice) {
            handle(ev, &mut state, &mut state_stack, &mut open_stack, &mut matches);
        }
    } else {
        for ev in Lexer::tags_only(slice) {
            handle(ev, &mut state, &mut state_stack, &mut open_stack, &mut matches);
        }
    }

    let slice_end = abs_offset + slice.len();
    for m in &mut matches {
        if m.end == usize::MAX {
            m.end = slice_end;
        }
    }
    matches
}

/// The single-threaded streaming baseline: one in-order transducer pass over
/// the whole stream (how XMLTK or MxQuery process a query set without data
/// parallelism).
#[derive(Debug, Clone)]
pub struct SequentialStreamEngine {
    plan: QueryPlan,
    transducer: Transducer,
}

impl SequentialStreamEngine {
    /// Compiles the engine for a query set.
    pub fn new<S: AsRef<str>>(queries: &[S]) -> Result<Self, XPathError> {
        let plan = compile_queries(queries)?;
        let transducer = Transducer::from_plan(&plan);
        Ok(SequentialStreamEngine { plan, transducer })
    }

    /// The compiled plan (used by harnesses for reporting).
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// Processes `data` on a single thread.
    pub fn run(&self, data: &[u8]) -> BaselineResult {
        let start = Instant::now();
        let mut matches =
            run_inorder_with_spans(&self.transducer, data, 0, self.transducer.initial(), 0);
        matches.sort_by_key(|m| m.pos);
        let query_time = start.elapsed();
        let outcome = apply_filters(&self.plan, &matches);
        BaselineResult {
            match_counts: outcome.matches.iter().map(|m| m.len()).collect(),
            split_time: Default::default(),
            query_time,
            total_time: start.elapsed(),
            bytes: data.len(),
            threads: 1,
            idle_fraction: 0.0,
            working_set_bytes: 64 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOC: &[u8] = b"<a><b><d></d></b><b><c></c></b></a>";

    #[test]
    fn sequential_baseline_matches_ppt() {
        let queries = ["/a/b/c", "//d", "/a/b[d]"];
        let baseline = SequentialStreamEngine::new(&queries).unwrap();
        let ppt = ppt_core::Engine::from_queries(&queries).unwrap();
        let b = baseline.run(DOC);
        let p = ppt.run(DOC);
        let ppt_counts: Vec<usize> = (0..queries.len()).map(|i| p.match_count(i)).collect();
        assert_eq!(b.match_counts, ppt_counts);
        assert_eq!(b.threads, 1);
        assert_eq!(b.bytes, DOC.len());
    }

    #[test]
    fn inorder_spans_cover_elements() {
        let t = Transducer::from_queries(&["/a/b"]).unwrap();
        let matches = run_inorder_with_spans(&t, DOC, 0, t.initial(), 0);
        assert_eq!(matches.len(), 2);
        for m in &matches {
            assert!(DOC[m.pos..m.end].starts_with(b"<b>"));
            assert!(DOC[m.pos..m.end].ends_with(b"</b>"));
            assert_eq!(m.depth, 2);
        }
    }

    #[test]
    fn inorder_with_offset_and_start_state() {
        // Process only the content of <a> as a fragment, starting from the
        // state after /a with depth 1 — the way fragment baselines do.
        let t = Transducer::from_queries(&["/a/b/c"]).unwrap();
        let root_sym = t.classify_name(b"a");
        let after_root = t.step(t.initial(), root_sym);
        let fragment = &DOC[3..31]; // everything between <a> and </a>
        let matches = run_inorder_with_spans(&t, fragment, 3, after_root, 1);
        assert_eq!(matches.len(), 1);
        assert_eq!(&DOC[matches[0].pos..matches[0].pos + 3], b"<c>");
        assert_eq!(matches[0].depth, 3);
    }

    #[test]
    fn unclosed_elements_end_at_slice_end() {
        let t = Transducer::from_queries(&["/a"]).unwrap();
        let matches = run_inorder_with_spans(&t, b"<a><b>", 0, t.initial(), 0);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].end, 6);
    }
}
