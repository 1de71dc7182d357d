//! Match delivery: the [`MatchSink`] callback interface, the payload-carrying
//! [`PayloadSink`] variant, and ready-made sinks.
//!
//! The joiner stage calls the sink *synchronously*: a sink that blocks (a
//! slow socket) stalls the fold, which stops returning in-flight credits,
//! which stalls the splitter, which stops reading the source — backpressure
//! propagates all the way to the input with bounded buffering at every
//! stage. An in-process session folds on the thread that feeds it, so a
//! blocking sink blocks only its own caller.

use crate::pool::SessionCore;
use ppt_xmlstream::SharedWindow;
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// One match of a user query, emitted while the stream is still flowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OnlineMatch {
    /// Index of the query (in the order queries were added to the engine).
    pub query: usize,
    /// Byte offset of the matched element's opening tag.
    pub start: usize,
    /// Byte offset just past the matched element's closing tag
    /// ([`usize::MAX`] when span resolution is disabled).
    pub end: usize,
    /// Depth of the matched element (root = 1).
    pub depth: u32,
}

/// Receives matches from a session's joiner stage.
///
/// Matches of span-resolved sessions are emitted the moment their element
/// closes (predicated queries: the moment their anchor scope closes), so
/// emission order follows element *close* order, not open order — an outer
/// element arrives after everything it contains. Collect and sort by `start`
/// when document order matters.
pub trait MatchSink: Send {
    /// Called once per query match. Returns `true` when the match was
    /// delivered; `false` when the sink discarded it (a hung-up receiver, a
    /// dead connection) — the session keeps running but the match is counted
    /// in [`crate::RuntimeStats::dropped_matches`].
    fn on_match(&mut self, m: OnlineMatch) -> bool;
}

impl<F: FnMut(OnlineMatch) + Send> MatchSink for F {
    fn on_match(&mut self, m: OnlineMatch) -> bool {
        self(m);
        true
    }
}

/// A sink that appends every match to a vector.
#[derive(Debug, Default)]
pub struct CollectSink {
    /// Every emitted match, in emission order.
    pub matches: Vec<OnlineMatch>,
}

impl CollectSink {
    /// Creates an empty collector.
    pub fn new() -> CollectSink {
        CollectSink::default()
    }

    /// Groups the collected matches per query (`query_count` vectors), each
    /// sorted into document order.
    pub fn per_query(&self, query_count: usize) -> Vec<Vec<OnlineMatch>> {
        let mut out: Vec<Vec<OnlineMatch>> = vec![Vec::new(); query_count];
        for m in &self.matches {
            if let Some(v) = out.get_mut(m.query) {
                v.push(*m);
            }
        }
        for v in &mut out {
            v.sort_by_key(|m| m.start);
        }
        out
    }
}

impl MatchSink for CollectSink {
    fn on_match(&mut self, m: OnlineMatch) -> bool {
        self.matches.push(m);
        true
    }
}

/// An [`OnlineMatch`] together with its materialized element bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaterializedMatch {
    /// Caller-assigned stream id of the session (see
    /// [`crate::SessionOptions::stream_id`]).
    pub stream: u64,
    /// The match itself.
    pub m: OnlineMatch,
    /// The bytes `start..end` of the stream — the matched element, opening
    /// tag through closing tag. `None` when retention is disabled, the span
    /// was evicted from the retention ring before delivery (a *payload
    /// miss*), or span resolution is off (no `end` to slice to).
    pub payload: Option<Vec<u8>>,
}

/// A payload *borrowed* from the retention ring: a run of [`SharedWindow`]
/// clones whose bytes cover `range` (absolute stream offsets).
///
/// Cloning windows bumps refcounts without copying bytes, so a `PayloadRef`
/// keeps its payload alive even after the ring evicts those windows — the
/// bytes are freed when the last holder (ring, in-flight chunk job, or
/// egress frame) drops. This is the zero-copy handoff the vectored egress
/// path rides: the reactor outbox holds the `PayloadRef` until the frame has
/// fully drained to the socket, then drops it, releasing the windows.
#[derive(Debug, Clone)]
pub struct PayloadRef {
    windows: Vec<SharedWindow>,
    range: Range<usize>,
}

impl PayloadRef {
    pub(crate) fn new(windows: Vec<SharedWindow>, range: Range<usize>) -> PayloadRef {
        PayloadRef { windows, range }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// `true` when the payload covers no bytes.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The absolute stream range the payload covers.
    pub fn range(&self) -> Range<usize> {
        self.range.clone()
    }

    /// The payload as contiguous byte slices, in stream order — one per
    /// overlapping window, zero-length overlaps skipped. Concatenated they
    /// are exactly the `range` bytes; each is a candidate iovec entry.
    pub fn slices(&self) -> impl Iterator<Item = &[u8]> {
        let range = self.range.clone();
        self.windows.iter().map(move |w| w.slice_abs(range.clone())).filter(|s| !s.is_empty())
    }

    /// Assembles the payload into one owned buffer (the copying path).
    pub fn to_vec(&self) -> Vec<u8> {
        crate::retain::assemble(&self.windows, self.range.clone())
    }
}

/// An [`OnlineMatch`] whose payload is still *borrowed* from retained
/// windows — the zero-copy precursor of [`MaterializedMatch`].
#[derive(Debug, Clone)]
pub struct BorrowedMatch {
    /// Stream id of the session (see [`crate::SessionOptions::stream_id`]).
    pub stream: u64,
    /// The match itself.
    pub m: OnlineMatch,
    /// The borrowed payload; `None` under the same conditions as
    /// [`MaterializedMatch::payload`].
    pub payload: Option<PayloadRef>,
}

impl BorrowedMatch {
    /// Copies the borrowed payload into an owned [`MaterializedMatch`],
    /// releasing the window refcounts.
    pub fn materialize(self) -> MaterializedMatch {
        let BorrowedMatch { stream, m, payload } = self;
        MaterializedMatch { stream, m, payload: payload.map(|p| p.to_vec()) }
    }
}

/// Receives materialized matches (offsets + payload bytes) from a session
/// whose retention ring is enabled. The return contract matches
/// [`MatchSink::on_match`].
pub trait PayloadSink: Send {
    /// Called once per query match. `false` = discarded, counted as dropped.
    fn on_match(&mut self, m: MaterializedMatch) -> bool;

    /// Zero-copy delivery: the payload arrives as a [`PayloadRef`] borrowing
    /// retained windows instead of an owned copy. The default materializes
    /// (one copy) and delegates to [`PayloadSink::on_match`], so ordinary
    /// in-process sinks are unaffected; vectored egress sinks override this
    /// to hand the borrowed windows down to the outbox.
    fn on_match_borrowed(&mut self, m: BorrowedMatch) -> bool {
        self.on_match(m.materialize())
    }
}

impl<F: FnMut(MaterializedMatch) + Send> PayloadSink for F {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        self(m);
        true
    }
}

impl PayloadSink for Box<dyn PayloadSink> {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        (**self).on_match(m)
    }

    fn on_match_borrowed(&mut self, m: BorrowedMatch) -> bool {
        (**self).on_match_borrowed(m)
    }
}

impl PayloadSink for &mut dyn PayloadSink {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        (**self).on_match(m)
    }

    fn on_match_borrowed(&mut self, m: BorrowedMatch) -> bool {
        (**self).on_match_borrowed(m)
    }
}

/// A sink that appends every materialized match to a vector.
#[derive(Debug, Default)]
pub struct CollectPayloadSink {
    /// Every emitted match, in emission order.
    pub matches: Vec<MaterializedMatch>,
}

impl CollectPayloadSink {
    /// Creates an empty collector.
    pub fn new() -> CollectPayloadSink {
        CollectPayloadSink::default()
    }
}

impl PayloadSink for CollectPayloadSink {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        self.matches.push(m);
        true
    }
}

/// The joiner-side adapter that turns offset matches into materialized
/// matches: it slices the payload out of the session's retention ring and
/// forwards to a [`PayloadSink`]. `S` is the sink handle — borrowed for the
/// reader-driven entry points, owned (boxed or concrete, as the reactor's
/// outbox sink is) for push-style sessions.
pub(crate) struct Materializer<S> {
    pub core: Arc<SessionCore>,
    pub inner: S,
}

/// Slices one match's payload out of the ring (refcounts only, no copy) and
/// delivers it. Whether the payload bytes are ever copied is now the sink's
/// call: [`PayloadSink::on_match_borrowed`] either materializes (default) or
/// forwards the borrowed windows to a vectored egress queue.
fn deliver(core: &SessionCore, inner: &mut dyn PayloadSink, m: OnlineMatch) -> bool {
    let payload = match (&core.ring, m.end) {
        // No end offset to slice to (span resolution off): nothing to
        // extract — not a miss, there never was a payload to serve.
        (Some(_), usize::MAX) | (None, _) => None,
        (Some(ring), end) => {
            // Take refcounts under the lock, touch the bytes outside it: the
            // feeder contends on this lock every window push, and a payload
            // can be megabytes.
            let (guard, poisoned) = crate::pool::lock_recover(ring);
            if poisoned {
                // A panic under the ring lock is this session's failure: the
                // match still goes out (without payload) so the client sees
                // the span, and the session is poisoned so it winds down
                // instead of panicking every thread that touches the ring.
                drop(guard);
                core.poison("retention ring lock poisoned".to_string());
                None
            } else {
                let windows = guard.collect(m.start..end);
                drop(guard);
                match windows {
                    Some(windows) => Some(PayloadRef::new(windows, m.start..end)),
                    None => {
                        // RELAXED-OK: monotonic stat counter; orders nothing.
                        core.counters.payload_misses.fetch_add(1, Ordering::Relaxed);
                        None
                    }
                }
            }
        }
    };
    inner.on_match_borrowed(BorrowedMatch { stream: core.stream_id, m, payload })
}

impl<S: PayloadSink> MatchSink for Materializer<S> {
    fn on_match(&mut self, m: OnlineMatch) -> bool {
        deliver(&self.core, &mut self.inner, m)
    }
}
