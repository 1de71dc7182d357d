//! The filter phase (§3.2 phase iv): recombining basic sub-query matches into
//! the user's original, possibly predicated, queries.
//!
//! For a rewritten query the plan records an *anchor* sub-query (matching the
//! element the predicate is attached to), a boolean
//! [`PredicateExpr`](ppt_xpath::PredicateExpr) over
//! predicate sub-queries and one or more *result* sub-queries. The filter
//! walks all matches in document order, associates every predicate and result
//! match with the anchor occurrences that contain it, evaluates the predicate
//! per anchor occurrence and keeps exactly the result matches whose anchor
//! satisfies it.
//!
//! Association uses element spans (start/end byte offsets) plus depth
//! information: when the path from the anchor to a sub-query match uses only
//! child steps its depth relative to the anchor is fixed, so matches are
//! attributed to the anchor at exactly that depth; when it uses descendant
//! steps any containing anchor qualifies. Both rules follow directly from
//! XPath semantics.

use crate::join::ResolvedMatch;
use ppt_xpath::{BasicAxis, CompiledQuery, QueryPlan};

/// A match of one of the user's queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMatch {
    /// Byte offset of the matched element's opening tag.
    pub start: usize,
    /// Byte offset just past the matched element's closing tag.
    pub end: usize,
    /// Depth of the matched element (root = 1).
    pub depth: u32,
}

/// The outcome of the filter phase.
#[derive(Debug, Clone, Default)]
pub struct FilterOutcome {
    /// Result matches per user query, in document order.
    pub matches: Vec<Vec<QueryMatch>>,
    /// Total number of basic sub-query matches attributed to each user query
    /// before filtering (Table 2's "# sub-matches" column).
    pub submatch_counts: Vec<usize>,
}

/// Relationship between a sub-query and its anchor prefix.
#[derive(Debug, Clone, Copy)]
struct SuffixInfo {
    /// Number of steps after the anchor prefix.
    len: usize,
    /// `true` when every suffix step uses the child axis, i.e. the match's
    /// depth relative to the anchor is exactly `len`.
    exact: bool,
}

fn suffix_info(plan: &QueryPlan, anchor: usize, sub: usize) -> SuffixInfo {
    let anchor_steps = &plan.subqueries[anchor].steps;
    let sub_steps = &plan.subqueries[sub].steps;
    if sub_steps.len() < anchor_steps.len() || sub_steps[..anchor_steps.len()] != anchor_steps[..] {
        // Defensive: the rewriter always builds predicate/result sub-queries
        // by extending the anchor; if not, fall back to containment-only
        // attribution.
        return SuffixInfo {
            len: sub_steps.len().saturating_sub(anchor_steps.len()),
            exact: false,
        };
    }
    let suffix = &sub_steps[anchor_steps.len()..];
    SuffixInfo { len: suffix.len(), exact: suffix.iter().all(|s| s.axis == BasicAxis::Child) }
}

/// Applies the per-query filters to the resolved sub-query matches.
///
/// `matches` must be sorted by position (the join phase guarantees this).
pub fn apply_filters(plan: &QueryPlan, matches: &[ResolvedMatch]) -> FilterOutcome {
    // Index matches by sub-query once.
    let mut by_subquery: Vec<Vec<&ResolvedMatch>> = vec![Vec::new(); plan.subqueries.len()];
    for m in matches {
        if let Some(v) = by_subquery.get_mut(m.subquery as usize) {
            v.push(m);
        }
    }

    let mut outcome = FilterOutcome::default();
    for query in &plan.queries {
        let submatches: usize = query.all_subqueries.iter().map(|&s| by_subquery[s].len()).sum();
        outcome.submatch_counts.push(submatches);
        outcome.matches.push(filter_query(plan, query, &by_subquery));
    }
    outcome
}

/// Applies one query's filter to a self-contained slice of resolved matches
/// (sorted by position).
///
/// The online runtime uses this to filter *scopes* — maximal runs of the
/// stream during which at least one anchor occurrence was open. Because
/// predicate and result sub-queries extend the anchor's path, every match
/// they produce is contained in some anchor occurrence, so filtering each
/// closed scope independently is equivalent to filtering the whole stream at
/// once.
pub fn filter_single_query(
    plan: &QueryPlan,
    query_index: usize,
    matches: &[ResolvedMatch],
) -> Vec<QueryMatch> {
    let query = &plan.queries[query_index];
    let mut by_subquery: Vec<Vec<&ResolvedMatch>> = vec![Vec::new(); plan.subqueries.len()];
    for m in matches {
        if let Some(v) = by_subquery.get_mut(m.subquery as usize) {
            v.push(m);
        }
    }
    filter_query(plan, query, &by_subquery)
}

fn filter_query(
    plan: &QueryPlan,
    query: &CompiledQuery,
    by_subquery: &[Vec<&ResolvedMatch>],
) -> Vec<QueryMatch> {
    match &query.filter {
        None => {
            // Union of the result sub-queries (already each in document
            // order); merge and deduplicate by position.
            let mut out: Vec<QueryMatch> = query
                .result_subqueries
                .iter()
                .flat_map(|&s| by_subquery[s].iter().map(|m| to_query_match(m)))
                .collect();
            out.sort_by_key(|m| m.start);
            out.dedup_by_key(|m| m.start);
            out
        }
        Some(filter) => {
            let anchors = &by_subquery[filter.anchor];
            if anchors.is_empty() {
                return Vec::new();
            }
            let pred_subqueries = filter.predicate.subqueries();

            // For every anchor occurrence, which predicate sub-queries hold.
            let mut satisfied: Vec<Vec<bool>> =
                vec![vec![false; plan.subqueries.len()]; anchors.len()];
            for &ps in &pred_subqueries {
                let info = suffix_info(plan, filter.anchor, ps);
                attribute(anchors, &by_subquery[ps], info, |anchor_idx, _| {
                    satisfied[anchor_idx][ps] = true;
                });
            }
            let anchor_ok: Vec<bool> =
                (0..anchors.len()).map(|i| filter.predicate.eval(&|s| satisfied[i][s])).collect();

            // Keep result matches attributed to at least one satisfied anchor.
            let mut out: Vec<QueryMatch> = Vec::new();
            for &rs in &query.result_subqueries {
                let info = suffix_info(plan, filter.anchor, rs);
                let results = &by_subquery[rs];
                let mut keep = vec![false; results.len()];
                attribute(anchors, results, info, |anchor_idx, result_idx| {
                    if anchor_ok[anchor_idx] {
                        keep[result_idx] = true;
                    }
                });
                for (i, m) in results.iter().enumerate() {
                    if keep[i] {
                        out.push(to_query_match(m));
                    }
                }
            }
            out.sort_by_key(|m| m.start);
            out.dedup_by_key(|m| m.start);
            out
        }
    }
}

fn to_query_match(m: &ResolvedMatch) -> QueryMatch {
    QueryMatch { start: m.pos, end: m.end, depth: m.depth }
}

/// Sweeps `items` (sorted by position) against `anchors` (sorted by position)
/// and calls `hit(anchor_index, item_index)` for every anchor occurrence the
/// item is attributed to.
fn attribute<F: FnMut(usize, usize)>(
    anchors: &[&ResolvedMatch],
    items: &[&ResolvedMatch],
    info: SuffixInfo,
    mut hit: F,
) {
    // Stack of anchors whose span contains the current position.
    let mut open: Vec<usize> = Vec::new();
    let mut next_anchor = 0usize;
    for (item_idx, item) in items.iter().enumerate() {
        // Open anchors that start at or before the item. An anchor whose span
        // starts at the same position as the item is the item itself matching
        // the anchor sub-query (possible when the result equals the anchor);
        // it must be considered containing.
        while next_anchor < anchors.len() && anchors[next_anchor].pos <= item.pos {
            open.push(next_anchor);
            next_anchor += 1;
        }
        // Drop anchors that closed before the item.
        open.retain(|&a| anchors[a].end > item.pos || anchors[a].pos == item.pos);
        for &a in open.iter().rev() {
            let anchor = anchors[a];
            let contains = item.pos >= anchor.pos && item.pos < anchor.end.max(anchor.pos + 1);
            if !contains {
                continue;
            }
            if info.exact && info.len > 0 {
                if item.depth as i64 == anchor.depth as i64 + info.len as i64 {
                    hit(a, item_idx);
                    break; // exactly one anchor can be at that depth
                }
            } else if info.len == 0 {
                // The result sub-query equals the anchor: the item *is* the
                // anchor occurrence.
                if item.pos == anchor.pos {
                    hit(a, item_idx);
                    break;
                }
            } else {
                // Descendant suffix: every containing anchor qualifies.
                hit(a, item_idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::EngineKind;
    use crate::join::run_all_states;
    use ppt_automaton::Transducer;
    use ppt_xpath::compile_queries;

    fn run(queries: &[&str], xml: &[u8]) -> (FilterOutcome, QueryPlan) {
        let plan = compile_queries(queries).unwrap();
        let t = Transducer::from_plan(&plan);
        let (matches, _) = run_all_states(&t, xml, 1 << 20, EngineKind::Tree, true);
        (apply_filters(&plan, &matches), plan)
    }

    #[test]
    fn plain_query_passes_through() {
        let (out, _) = run(&["/a/b"], b"<a><b/><b/><c/></a>");
        assert_eq!(out.matches[0].len(), 2);
        assert_eq!(out.submatch_counts[0], 2);
    }

    #[test]
    fn predicate_keeps_only_anchors_that_satisfy_it() {
        // /a/p[x]/n : only persons with an <x> child contribute their <n>.
        let xml = b"<a><p><x/><n/></p><p><n/></p><p><x/><n/><n/></p></a>";
        let (out, _) = run(&["/a/p[x]/n"], xml);
        assert_eq!(out.matches[0].len(), 3, "two from the first p... ");
        // Sub-matches: anchors (3) + x (2) + n (4) = 9.
        assert_eq!(out.submatch_counts[0], 9);
    }

    #[test]
    fn and_or_predicates() {
        let xml = b"<s><p><ph/><n/></p><p><h/><n/></p><p><z/><n/></p></s>";
        let (out, _) = run(&["/s/p[ph or h]/n"], xml);
        assert_eq!(out.matches[0].len(), 2);
        let (out, _) = run(&["/s/p[ph and h]/n"], xml);
        assert_eq!(out.matches[0].len(), 0);
        let xml2 = b"<s><p><ph/><h/><n/></p><p><ph/><n/></p></s>";
        let (out, _) = run(&["/s/p[ph and h]/n"], xml2);
        assert_eq!(out.matches[0].len(), 1);
    }

    #[test]
    fn not_predicate() {
        let xml = b"<s><p><x/><n/></p><p><n/></p></s>";
        let (out, _) = run(&["/s/p[not(x)]/n"], xml);
        assert_eq!(out.matches[0].len(), 1);
    }

    #[test]
    fn descendant_predicate_counts_any_depth() {
        // /s/c[descendant::k]/d
        let xml = b"<s><c><a><k/></a><d/></c><c><d/></c></s>";
        let (out, _) = run(&["/s/c[descendant::k]/d"], xml);
        assert_eq!(out.matches[0].len(), 1);
    }

    #[test]
    fn nested_anchor_attribution_is_exact_for_child_suffixes() {
        // //p[x]/n with nested p elements: the inner p has no x, so its n must
        // not be reported even though the outer p (which has an x) contains
        // it.
        let xml = b"<root><p><x/><n/><p><n/></p></p></root>";
        let (out, _) = run(&["//p[x]/n"], xml);
        assert_eq!(out.matches[0].len(), 1);
        // And the reported n is the outer one (depth 3).
        assert_eq!(out.matches[0][0].depth, 3);
    }

    #[test]
    fn nested_anchor_attribution_for_descendant_predicates() {
        // //li[.//k]/t : the outer li contains a k (deep inside), the inner li
        // does not.
        let xml = b"<root><li><x><k/></x><t/><li><t/></li></li></root>";
        let plan = compile_queries(&["//k/ancestor::li/t/k"]).unwrap();
        // Build an equivalent check with a simpler query that exercises the
        // descendant-predicate path.
        drop(plan);
        let (out, _) = run(&["//li[k]/t"], xml);
        // Neither li has a *child* k, so nothing matches with a child
        // predicate...
        assert_eq!(out.matches[0].len(), 0);
        // ...but with a descendant predicate the outer li qualifies.
        let (out, _) = run(&["//li[descendant::k]/t"], xml);
        assert_eq!(out.matches[0].len(), 1);
        assert_eq!(out.matches[0][0].depth, 3);
    }

    #[test]
    fn b1_style_union_of_alternative_paths() {
        let xml = b"<s><r><sa><item><name/></item></sa><na><item><name/></item></na>\
                    <eu><item><name/></item></eu></r></s>";
        let (out, _) = run(&["/s/r/*/item[parent::sa or parent::na]/name"], xml);
        assert_eq!(out.matches[0].len(), 2, "only the sa and na items count");
    }

    #[test]
    fn b2_style_ancestor_query() {
        // //k/ancestor::li/t/k — li elements that contain a k anywhere report
        // their /t/k children.
        let xml = b"<root>\
            <li><p><k/></p><t><k/></t></li>\
            <li><t><k/></t></li>\
            <li><p><k/></p><t><x/></t></li>\
            </root>";
        let (out, _) = run(&["//k/ancestor::li/t/k"], xml);
        // First li: has k descendants -> its t/k counts.
        // Second li: its only k is under t, which is still a descendant -> counts.
        // Third li: has a k descendant but no t/k child -> nothing to report.
        assert_eq!(out.matches[0].len(), 2);
    }

    #[test]
    fn multiple_queries_are_filtered_independently() {
        let xml = b"<a><p><x/><n/></p><p><n/></p></a>";
        let (out, plan) = run(&["/a/p[x]/n", "/a/p/n", "//n"], xml);
        assert_eq!(plan.queries.len(), 3);
        assert_eq!(out.matches[0].len(), 1);
        assert_eq!(out.matches[1].len(), 2);
        assert_eq!(out.matches[2].len(), 2);
    }

    #[test]
    fn predicate_on_last_step() {
        // /a/b[c]: report the b elements themselves when they have a c child.
        let xml = b"<a><b><c/></b><b><d/></b></a>";
        let (out, _) = run(&["/a/b[c]"], xml);
        assert_eq!(out.matches[0].len(), 1);
        assert_eq!(out.matches[0][0].depth, 2);
    }

    #[test]
    fn empty_input_produces_empty_outcome() {
        let (out, _) = run(&["/a/b[c]/d", "/x"], b"");
        assert_eq!(out.matches.len(), 2);
        assert!(out.matches.iter().all(|m| m.is_empty()));
        assert!(out.submatch_counts.iter().all(|&c| c == 0));
    }
}
