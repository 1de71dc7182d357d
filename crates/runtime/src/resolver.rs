//! Streaming span resolution: turning the joiner's per-chunk drains into a
//! position-ordered stream of *open* and *close* events.
//!
//! The batch pipeline resolves cross-chunk element spans at the very end of
//! the run ([`ppt_core::parallel`]'s ladder sweep). Online emission cannot
//! wait for the end of an unbounded stream, so [`SpanResolver`] runs the same
//! sweep incrementally: every fold contributes its newly-final matches (ends
//! already resolved when the element closed inside its own chunk) and its
//! rebased close-ladder events (closes of elements opened in earlier chunks),
//! and the resolver emits
//!
//! * [`SpanEvent::Open`] when a match's opening tag position is reached, and
//! * [`SpanEvent::Close`] when its end offset becomes known,
//!
//! in strictly non-decreasing position order. Matches whose element is still
//! open stay pending; their depths form a stack (an unresolved inner element
//! implies an unresolved outer one), so a ladder event at absolute depth `d`
//! closes exactly the pending matches deeper than `d` — the identical
//! invariant the batch sweep relies on.

use ppt_core::ResolvedMatch;

/// An element-lifecycle event derived from the folded prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanEvent {
    /// A sub-query match whose opening tag was reached. `end` may still be
    /// [`usize::MAX`] if the element has not closed yet.
    Open(ResolvedMatch),
    /// The same match once its end offset is known. Never emitted when span
    /// resolution is disabled.
    Close(ResolvedMatch),
}

impl SpanEvent {
    /// The match the event is about.
    pub fn matched(&self) -> &ResolvedMatch {
        match self {
            SpanEvent::Open(m) | SpanEvent::Close(m) => m,
        }
    }
}

enum Pending {
    Open(ResolvedMatch),
    CloseKnown(ResolvedMatch),
    Ladder(i64),
}

/// Incremental span resolver; one per session.
#[derive(Debug)]
pub struct SpanResolver {
    resolve_spans: bool,
    /// Matches whose element has not closed yet, in arrival (position) order;
    /// depths are non-decreasing.
    pending: Vec<ResolvedMatch>,
}

impl SpanResolver {
    /// Creates a resolver. With `resolve_spans == false` every match is
    /// emitted as an [`SpanEvent::Open`] immediately and no close events
    /// exist (mirroring the batch engine's behaviour).
    pub fn new(resolve_spans: bool) -> SpanResolver {
        SpanResolver { resolve_spans, pending: Vec::new() }
    }

    /// Number of matches whose element is still open.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Earliest opening-tag offset among matches whose element has not
    /// closed yet (`None` when nothing is pending). Pending matches arrive
    /// in position order, so this is the head of the stack — the retention
    /// ring must keep every window at or past this offset.
    pub fn min_pending_pos(&self) -> Option<usize> {
        self.pending.first().map(|m| m.pos)
    }

    /// Feeds one fold's newly-final matches (document order) and rebased
    /// ladder events, appending the resulting span events to `out`.
    pub fn feed(
        &mut self,
        matches: Vec<ResolvedMatch>,
        ladder: &[(usize, i64)],
        out: &mut Vec<SpanEvent>,
    ) {
        if !self.resolve_spans {
            out.extend(matches.into_iter().map(SpanEvent::Open));
            return;
        }
        // Build this fold's event batch: opens at the match position, known
        // closes at the in-chunk end, ladder events at the close position.
        // Sort by (position, closes-before-opens); the sort is stable so
        // duplicate matches of one element stay adjacent.
        let mut batch: Vec<(usize, u8, Pending)> =
            Vec::with_capacity(matches.len() * 2 + ladder.len());
        for m in matches {
            batch.push((m.pos, 1, Pending::Open(m)));
            if m.end != usize::MAX {
                batch.push((m.end, 0, Pending::CloseKnown(m)));
            }
        }
        for &(pos, depth_after) in ladder {
            batch.push((pos, 0, Pending::Ladder(depth_after)));
        }
        batch.sort_by_key(|&(pos, kind, _)| (pos, kind));

        for (pos, _, ev) in batch {
            match ev {
                Pending::Open(m) => {
                    out.push(SpanEvent::Open(m));
                    if m.end == usize::MAX {
                        self.pending.push(m);
                    }
                }
                Pending::CloseKnown(m) => out.push(SpanEvent::Close(m)),
                Pending::Ladder(depth_after) => {
                    while let Some(last) = self.pending.last() {
                        if (last.depth as i64) > depth_after {
                            // UNWRAP-OK: `last()` on the line above proved
                            // the stack is non-empty.
                            let mut m = self.pending.pop().expect("non-empty");
                            m.end = pos;
                            out.push(SpanEvent::Close(m));
                        } else {
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Ends the stream: elements that never closed get `end = total_len`,
    /// exactly as the batch sweep caps them. Closes are emitted innermost
    /// first.
    pub fn finish(&mut self, total_len: usize, out: &mut Vec<SpanEvent>) {
        while let Some(mut m) = self.pending.pop() {
            m.end = total_len;
            out.push(SpanEvent::Close(m));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(pos: usize, end: usize, depth: u32, subquery: u32) -> ResolvedMatch {
        ResolvedMatch { pos, end, depth, subquery }
    }

    fn closes(events: &[SpanEvent]) -> Vec<(usize, usize)> {
        events
            .iter()
            .filter_map(|e| match e {
                SpanEvent::Close(m) => Some((m.pos, m.end)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_chunk_closes_pass_through_in_order() {
        let mut r = SpanResolver::new(true);
        let mut out = Vec::new();
        r.feed(vec![m(0, 30, 1, 0), m(5, 12, 2, 0)], &[], &mut out);
        // Opens at 0 and 5; closes at 12 (inner) then 30 (outer).
        assert_eq!(closes(&out), vec![(5, 12), (0, 30)]);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn ladder_events_close_pending_matches_across_feeds() {
        let mut r = SpanResolver::new(true);
        let mut out = Vec::new();
        // Chunk 1: both elements stay open.
        r.feed(vec![m(0, usize::MAX, 1, 0), m(3, usize::MAX, 2, 0)], &[], &mut out);
        assert_eq!(r.pending_len(), 2);
        assert!(closes(&out).is_empty());
        // Chunk 2: the depth-2 element closes at 20 (back to depth 1), the
        // depth-1 element closes at 27 (back to depth 0).
        out.clear();
        r.feed(Vec::new(), &[(20, 1), (27, 0)], &mut out);
        assert_eq!(closes(&out), vec![(3, 20), (0, 27)]);
        assert_eq!(r.pending_len(), 0);
    }

    #[test]
    fn one_ladder_event_closes_all_deeper_pending() {
        let mut r = SpanResolver::new(true);
        let mut out = Vec::new();
        r.feed(
            vec![m(0, usize::MAX, 1, 0), m(3, usize::MAX, 2, 0), m(6, usize::MAX, 3, 0)],
            &[],
            &mut out,
        );
        out.clear();
        // A close ladder dropping straight to depth 1 closes depths 3 and 2
        // but not 1. (In real streams each close is its own event; the sweep
        // must still handle the aggregate case.)
        r.feed(Vec::new(), &[(40, 1)], &mut out);
        assert_eq!(closes(&out), vec![(6, 40), (3, 40)]);
        assert_eq!(r.pending_len(), 1);
    }

    #[test]
    fn finish_caps_unclosed_elements() {
        let mut r = SpanResolver::new(true);
        let mut out = Vec::new();
        r.feed(vec![m(0, usize::MAX, 1, 0), m(7, usize::MAX, 2, 1)], &[], &mut out);
        out.clear();
        r.finish(99, &mut out);
        assert_eq!(closes(&out), vec![(7, 99), (0, 99)]);
    }

    #[test]
    fn disabled_span_resolution_only_opens() {
        let mut r = SpanResolver::new(false);
        let mut out = Vec::new();
        r.feed(vec![m(0, usize::MAX, 1, 0)], &[(5, 0)], &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0], SpanEvent::Open(_)));
        r.finish(10, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn duplicate_matches_of_one_element_stay_adjacent() {
        let mut r = SpanResolver::new(true);
        let mut out = Vec::new();
        // Two sub-queries matching the same element (same pos/end/depth).
        r.feed(vec![m(4, 19, 2, 0), m(4, 19, 2, 1), m(8, 12, 3, 0)], &[], &mut out);
        let c = closes(&out);
        assert_eq!(c, vec![(8, 12), (4, 19), (4, 19)]);
    }
}
