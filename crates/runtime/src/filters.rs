//! Online query filtering: recombining the sub-query match stream into the
//! user's queries *while the stream flows* (the streaming counterpart of
//! `ppt_core::filter`, §3.2 phase iv).
//!
//! Two regimes, chosen per query:
//!
//! * **Plain queries** (no predicate) pass straight through: a result
//!   sub-query match is emitted the moment its element closes (or
//!   immediately, when span resolution is off), with adjacent duplicates —
//!   several result sub-queries matching the same element — collapsed just
//!   like the batch filter's dedup-by-start.
//! * **Predicated queries** buffer by *anchor scope*. The predicate of an
//!   anchor occurrence can only be satisfied by matches inside that
//!   occurrence's span, and every predicate/result sub-query extends the
//!   anchor's path, so all of its matches are contained in some anchor
//!   occurrence. A *scope* is a maximal stretch of the stream during which at
//!   least one anchor occurrence is open; when the last one closes, the
//!   buffered matches form a self-contained slice that
//!   [`ppt_core::filter::filter_single_query`] — the very code the batch
//!   engine runs — filters and flushes. Memory is bounded by the largest
//!   anchor scope, not by the stream.

use crate::resolver::SpanEvent;
use crate::sink::OnlineMatch;
use ppt_core::filter::filter_single_query;
use ppt_core::ResolvedMatch;
use ppt_xpath::QueryPlan;

enum QueryMode {
    /// No predicate: emit result sub-query matches directly.
    Plain {
        /// `result[s]` is true when sub-query `s` produces this query's
        /// results.
        result: Vec<bool>,
        /// Position of the last emitted match, for dedup (several result
        /// sub-queries can match the same element; their events are
        /// adjacent).
        last_pos: Option<usize>,
    },
    /// Predicated: buffer anchor scopes and batch-filter each one.
    Scoped {
        /// The anchor sub-query index.
        anchor: usize,
        /// `member[s]` is true when sub-query `s` belongs to this query.
        member: Vec<bool>,
        /// Anchor occurrences currently open.
        open_anchors: usize,
        /// All of this query's sub-query matches in the current scope.
        buffer: Vec<ResolvedMatch>,
        /// Indices into `buffer` of entries whose end is still unresolved,
        /// in open order. Closes arrive innermost-first, so the entry a
        /// close resolves sits at (or right next to) the top — this keeps
        /// end fix-up O(1) amortised instead of rescanning the scope.
        open_indices: Vec<usize>,
    },
}

struct QueryState {
    mode: QueryMode,
    /// Multiplicity of every sub-query in this query's `all_subqueries`, for
    /// the sub-match accounting.
    submatch_multiplicity: Vec<u32>,
}

/// Per-session online filter over the span-event stream.
pub struct FilterBank {
    resolve_spans: bool,
    queries: Vec<QueryState>,
    /// `interested[s]` lists the queries that care about sub-query `s`
    /// (membership in their `all_subqueries`), so each event touches only
    /// the relevant queries instead of the whole bank.
    interested: Vec<Vec<usize>>,
    /// Basic sub-query matches attributed to each query (Table 2's
    /// "# sub-matches").
    pub submatch_counts: Vec<usize>,
    /// Result matches emitted per query.
    pub match_counts: Vec<usize>,
}

impl FilterBank {
    /// Builds the bank for a compiled plan.
    pub fn new(plan: &QueryPlan, resolve_spans: bool) -> FilterBank {
        let n_sub = plan.subqueries.len();
        let queries = plan
            .queries
            .iter()
            .map(|q| {
                let mut submatch_multiplicity = vec![0u32; n_sub];
                for &s in &q.all_subqueries {
                    submatch_multiplicity[s] += 1;
                }
                let mode = match &q.filter {
                    None => {
                        let mut result = vec![false; n_sub];
                        for &s in &q.result_subqueries {
                            result[s] = true;
                        }
                        QueryMode::Plain { result, last_pos: None }
                    }
                    Some(filter) => {
                        let mut member = vec![false; n_sub];
                        for &s in &q.all_subqueries {
                            member[s] = true;
                        }
                        QueryMode::Scoped {
                            anchor: filter.anchor,
                            member,
                            open_anchors: 0,
                            buffer: Vec::new(),
                            open_indices: Vec::new(),
                        }
                    }
                };
                QueryState { mode, submatch_multiplicity }
            })
            .collect();
        let mut interested: Vec<Vec<usize>> = vec![Vec::new(); n_sub];
        for (qi, q) in plan.queries.iter().enumerate() {
            for &s in &q.all_subqueries {
                if interested[s].last() != Some(&qi) {
                    interested[s].push(qi);
                }
            }
        }
        FilterBank {
            resolve_spans,
            queries,
            interested,
            submatch_counts: vec![0; plan.queries.len()],
            match_counts: vec![0; plan.queries.len()],
        }
    }

    /// Extends the bank for an *append-only grown* plan: `plan` must contain
    /// the queries this bank was built from as a prefix, with the same
    /// sub-query ids (the subscription layer's merge guarantees this — old
    /// queries and sub-queries keep their indices when new ones are
    /// appended). Existing per-query state — open scopes, buffered matches,
    /// counts — carries over untouched; new queries start with empty state,
    /// which is exactly right: they attached mid-stream and see only what
    /// happens after their swap boundary.
    ///
    /// Old queries never reference newly appended sub-queries, so their
    /// sub-query-indexed vectors need no resizing; only the `interested`
    /// index grows (new sub-queries, plus new queries interested in old
    /// shared sub-queries).
    pub fn extend(&mut self, plan: &QueryPlan) {
        let old_queries = self.queries.len();
        debug_assert!(plan.queries.len() >= old_queries, "plans only grow");
        let n_sub = plan.subqueries.len();
        for q in &plan.queries[old_queries..] {
            let mut submatch_multiplicity = vec![0u32; n_sub];
            for &s in &q.all_subqueries {
                submatch_multiplicity[s] += 1;
            }
            let mode = match &q.filter {
                None => {
                    let mut result = vec![false; n_sub];
                    for &s in &q.result_subqueries {
                        result[s] = true;
                    }
                    QueryMode::Plain { result, last_pos: None }
                }
                Some(filter) => {
                    let mut member = vec![false; n_sub];
                    for &s in &q.all_subqueries {
                        member[s] = true;
                    }
                    QueryMode::Scoped {
                        anchor: filter.anchor,
                        member,
                        open_anchors: 0,
                        buffer: Vec::new(),
                        open_indices: Vec::new(),
                    }
                }
            };
            self.queries.push(QueryState { mode, submatch_multiplicity });
        }
        self.interested.resize_with(n_sub, Vec::new);
        for (qi, q) in plan.queries.iter().enumerate().skip(old_queries) {
            for &s in &q.all_subqueries {
                if self.interested[s].last() != Some(&qi) {
                    self.interested[s].push(qi);
                }
            }
        }
        self.submatch_counts.resize(plan.queries.len(), 0);
        self.match_counts.resize(plan.queries.len(), 0);
    }

    /// Earliest match offset still buffered in an unclosed anchor scope
    /// (`None` when every scope is flushed). Scope buffers fill in event —
    /// i.e. position — order, so each buffer's first entry is its minimum;
    /// the retention ring must keep every window at or past this offset
    /// until the scope closes and its matches are materialized.
    pub fn min_buffered_pos(&self) -> Option<usize> {
        self.queries
            .iter()
            .filter_map(|q| match &q.mode {
                QueryMode::Scoped { buffer, .. } => buffer.first().map(|m| m.pos),
                QueryMode::Plain { .. } => None,
            })
            .min()
    }

    /// Consumes one span event, emitting any matches it finalises.
    pub fn on_event(
        &mut self,
        plan: &QueryPlan,
        event: &SpanEvent,
        emit: &mut dyn FnMut(OnlineMatch),
    ) {
        match event {
            SpanEvent::Open(m) => self.on_open(m, emit),
            SpanEvent::Close(m) => self.on_close(plan, m, emit),
        }
    }

    fn on_open(&mut self, m: &ResolvedMatch, emit: &mut dyn FnMut(OnlineMatch)) {
        let sub = m.subquery as usize;
        for &qi in &self.interested[sub] {
            let state = &mut self.queries[qi];
            let mult = state.submatch_multiplicity[sub];
            if mult > 0 {
                self.submatch_counts[qi] += mult as usize;
            }
            match &mut state.mode {
                QueryMode::Plain { result, last_pos } => {
                    // Without span resolution there are no close events:
                    // emission happens here, with `end` left unresolved —
                    // exactly what the batch engine reports in that mode.
                    if !self.resolve_spans && result[sub] && *last_pos != Some(m.pos) {
                        *last_pos = Some(m.pos);
                        self.match_counts[qi] += 1;
                        emit(OnlineMatch { query: qi, start: m.pos, end: m.end, depth: m.depth });
                    }
                }
                QueryMode::Scoped { anchor, member, open_anchors, buffer, open_indices } => {
                    if member[sub] {
                        if m.end == usize::MAX {
                            open_indices.push(buffer.len());
                        }
                        buffer.push(*m);
                        if sub == *anchor {
                            *open_anchors += 1;
                        }
                    }
                }
            }
        }
    }

    fn on_close(&mut self, plan: &QueryPlan, m: &ResolvedMatch, emit: &mut dyn FnMut(OnlineMatch)) {
        let sub = m.subquery as usize;
        for &qi in &self.interested[sub] {
            let state = &mut self.queries[qi];
            match &mut state.mode {
                QueryMode::Plain { result, last_pos } => {
                    if result[sub] && *last_pos != Some(m.pos) {
                        *last_pos = Some(m.pos);
                        self.match_counts[qi] += 1;
                        emit(OnlineMatch { query: qi, start: m.pos, end: m.end, depth: m.depth });
                    }
                }
                QueryMode::Scoped { anchor, member, open_anchors, buffer, open_indices } => {
                    if !member[sub] {
                        continue;
                    }
                    // Resolve the buffered copy's end. Elements close
                    // innermost-first, so the matching open entry sits at (or
                    // just below) the top of the open stack.
                    if let Some(found) = open_indices
                        .iter()
                        .rposition(|&i| buffer[i].pos == m.pos && buffer[i].subquery == m.subquery)
                    {
                        buffer[open_indices[found]].end = m.end;
                        open_indices.remove(found);
                    }
                    if sub == *anchor {
                        *open_anchors -= 1;
                        if *open_anchors == 0 {
                            let matches = filter_single_query(plan, qi, buffer);
                            buffer.clear();
                            open_indices.clear();
                            self.match_counts[qi] += matches.len();
                            for qm in matches {
                                emit(OnlineMatch {
                                    query: qi,
                                    start: qm.start,
                                    end: qm.end,
                                    depth: qm.depth,
                                });
                            }
                        }
                    }
                }
            }
        }
    }

    /// Ends the stream: flushes any scope that never closed (the span
    /// resolver has already capped all ends at the stream length).
    pub fn finish(&mut self, plan: &QueryPlan, emit: &mut dyn FnMut(OnlineMatch)) {
        for qi in 0..self.queries.len() {
            if let QueryMode::Scoped { buffer, open_anchors, open_indices, .. } =
                &mut self.queries[qi].mode
            {
                *open_anchors = 0;
                open_indices.clear();
                if buffer.is_empty() {
                    continue;
                }
                let matches = filter_single_query(plan, qi, buffer);
                buffer.clear();
                self.match_counts[qi] += matches.len();
                for qm in matches {
                    emit(OnlineMatch { query: qi, start: qm.start, end: qm.end, depth: qm.depth });
                }
            }
        }
    }
}
