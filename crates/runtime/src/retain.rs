//! The window-retention ring: bounded payload memory for match
//! materialization.
//!
//! The pipeline normally drops a window once its chunks are transduced — the
//! joiner only ever sees state mappings and offsets. Serving *payloads*
//! (the matched element bytes) needs the window bytes to still exist when a
//! match is emitted, which can be long after the window flowed past: an
//! element opened in window 3 may close in window 40, and a predicated match
//! is only emitted when its anchor scope closes.
//!
//! [`RetentionRing`] keeps recent windows alive by holding a refcount on
//! each [`SharedWindow`] the feeder emits (clone-on-retain — no byte is ever
//! copied). Two forces bound its memory:
//!
//! * the **resolve frontier** — after every fold the joiner releases windows
//!   that lie entirely below the earliest offset any unresolved or buffered
//!   match could still need (see `JoinerState::fold_one`); on streams
//!   whose matches resolve promptly the ring holds only a handful of windows
//!   regardless of the budget; and
//! * the **byte budget** — a hard cap for adversarial streams (one element
//!   spanning gigabytes would otherwise pin every window): when retained
//!   bytes exceed the budget the oldest windows are evicted anyway, and any
//!   match whose span falls in an evicted window is delivered without its
//!   payload (a *payload miss*, counted in the session stats).
//!
//! The ring never evicts the newest window, so a single window larger than
//! the whole budget still serves in-window spans; retained bytes are bounded
//! by `max(budget, largest window)`.
//!
//! # Borrow-aware frontier and the zero-copy handoff
//!
//! Since the vectored-egress PR, delivery *borrows* instead of copying:
//! [`RetentionRing::collect`] hands refcounted [`SharedWindow`] clones to a
//! [`crate::PayloadRef`], which rides a frame into the reactor's outbox and
//! is dropped only when the socket has accepted the frame's last byte. Two
//! consequences for the memory story:
//!
//! * **The resolve frontier stays correct as-is.** The frontier reasons
//!   about which *matches* may still materialize; once a match is delivered
//!   its payload's liveness is carried by the `PayloadRef`'s own refcounts,
//!   not by ring membership. `release_below` dropping the ring's clone of a
//!   window does not free bytes some in-flight frame still borrows — the
//!   `Arc` does the right thing — and conversely a drained frame never
//!   resurrects an evicted range ([`RetentionRing::collect`] misses stay
//!   misses).
//! * **Borrowed bytes are bounded by the outbox, not the ring.** The ring
//!   budget bounds what the *ring* pins; bytes pinned by queued frames are
//!   bounded separately by `max_outbox_bytes`, whose accounting includes
//!   borrowed payload bytes precisely so a stalled reader cannot extend a
//!   session's memory past `ring budget + outbox cap`. A dead connection
//!   releases all of its borrows at once when the reactor clears its outbox.

use ppt_xmlstream::SharedWindow;
use std::collections::VecDeque;
use std::ops::Range;

/// Eviction accounting returned by [`RetentionRing::push`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Evicted {
    /// Windows evicted by the byte budget.
    pub windows: u64,
    /// Bytes those windows covered.
    pub bytes: u64,
}

/// A bounded ring of retained stream windows, ordered and contiguous.
#[derive(Debug)]
pub(crate) struct RetentionRing {
    budget: usize,
    windows: VecDeque<SharedWindow>,
    retained: usize,
}

impl RetentionRing {
    /// An empty ring with the given byte budget (clamped to ≥ 1).
    pub fn new(budget: usize) -> RetentionRing {
        RetentionRing { budget: budget.max(1), windows: VecDeque::new(), retained: 0 }
    }

    /// Bytes currently retained.
    pub fn retained_bytes(&self) -> usize {
        self.retained
    }

    /// Windows currently retained.
    #[cfg(test)]
    pub fn window_count(&self) -> usize {
        self.windows.len()
    }

    /// Retains `window` (refcount bump), evicting the oldest windows while
    /// the budget is exceeded — but never the window just pushed.
    pub fn push(&mut self, window: SharedWindow) -> Evicted {
        debug_assert!(
            self.windows.back().map(|w| w.end() == window.base()).unwrap_or(true),
            "windows must be pushed in stream order with no gaps"
        );
        self.retained += window.len();
        self.windows.push_back(window);
        let mut evicted = Evicted::default();
        while self.retained > self.budget && self.windows.len() > 1 {
            // UNWRAP-OK: the loop condition guarantees `windows.len() > 1`.
            let old = self.windows.pop_front().expect("len > 1");
            self.retained -= old.len();
            evicted.windows += 1;
            evicted.bytes += old.len() as u64;
        }
        evicted
    }

    /// Drops windows lying entirely below `frontier` — every span that could
    /// still be materialized starts at or past it. Not counted as evictions:
    /// these windows can no longer be needed. Returns the bytes released so
    /// the caller can sample occupancy only when it actually moved (the
    /// joiner records the drain side of the occupancy histogram this way).
    pub fn release_below(&mut self, frontier: usize) -> usize {
        let mut released = 0usize;
        while let Some(front) = self.windows.front() {
            if front.end() <= frontier {
                self.retained -= front.len();
                released += front.len();
                self.windows.pop_front();
            } else {
                break;
            }
        }
        released
    }

    /// Clones the windows overlapping `range` (absolute stream offsets) —
    /// refcount bumps only, no byte is copied, so this is safe to call with
    /// the ring lock held. `None` when any part of the range was evicted (or
    /// never retained) — a partial payload is worse than no payload.
    pub fn collect(&self, range: Range<usize>) -> Option<Vec<SharedWindow>> {
        if range.start >= range.end {
            return Some(Vec::new());
        }
        let front = self.windows.front()?;
        if range.start < front.base() || range.end > self.windows.back()?.end() {
            return None;
        }
        let first = self.windows.partition_point(|w| w.end() <= range.start);
        let overlap: Vec<SharedWindow> =
            self.windows.iter().skip(first).take_while(|w| w.base() < range.end).cloned().collect();
        Some(overlap)
    }

    /// Copies the bytes of `range` out of the retained windows (see
    /// [`RetentionRing::collect`] + [`assemble`] for the two-phase form the
    /// delivery path uses to keep the copy outside the ring lock).
    #[cfg(test)]
    pub fn extract(&self, range: Range<usize>) -> Option<Vec<u8>> {
        self.collect(range.clone()).map(|ws| assemble(&ws, range))
    }
}

/// Concatenates the bytes of `range` out of contiguous overlapping windows
/// (as returned by [`RetentionRing::collect`]).
pub(crate) fn assemble(windows: &[SharedWindow], range: Range<usize>) -> Vec<u8> {
    let mut out = Vec::with_capacity(range.end.saturating_sub(range.start));
    for w in windows {
        out.extend_from_slice(w.slice_abs(range.clone()));
    }
    debug_assert_eq!(out.len(), range.len(), "retained windows are contiguous");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(base: usize, len: usize) -> SharedWindow {
        let bytes: Vec<u8> = (0..len).map(|i| ((base + i) % 251) as u8).collect();
        SharedWindow::new(base, bytes)
    }

    #[test]
    fn extract_straddles_window_boundaries() {
        let mut ring = RetentionRing::new(1 << 20);
        ring.push(window(0, 10));
        ring.push(window(10, 10));
        ring.push(window(20, 5));
        let got = ring.extract(7..23).unwrap();
        let expected: Vec<u8> = (7..23).map(|i| (i % 251) as u8).collect();
        assert_eq!(got, expected);
        assert_eq!(ring.extract(0..25).unwrap().len(), 25);
        assert_eq!(ring.extract(12..12).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn budget_evicts_oldest_first_and_misses_are_reported() {
        let mut ring = RetentionRing::new(25);
        assert_eq!(ring.push(window(0, 10)), Evicted::default());
        assert_eq!(ring.push(window(10, 10)), Evicted::default());
        // 30 bytes retained > 25: the oldest window goes.
        assert_eq!(ring.push(window(20, 10)), Evicted { windows: 1, bytes: 10 });
        assert_eq!(ring.retained_bytes(), 20);
        assert!(ring.extract(5..15).is_none(), "evicted range must miss");
        assert!(ring.extract(0..30).is_none());
        assert!(ring.extract(10..30).is_some());
    }

    #[test]
    fn oversized_window_is_kept_alone() {
        let mut ring = RetentionRing::new(8);
        ring.push(window(0, 4));
        let ev = ring.push(window(4, 100));
        assert_eq!(ev, Evicted { windows: 1, bytes: 4 });
        assert_eq!(ring.window_count(), 1);
        assert!(ring.extract(4..104).is_some(), "the newest window always serves");
        // The next push evicts the oversized one.
        let ev = ring.push(window(104, 4));
        assert_eq!(ev, Evicted { windows: 1, bytes: 100 });
        assert!(ring.retained_bytes() <= 8);
    }

    #[test]
    fn release_below_drops_resolved_windows_without_eviction_accounting() {
        let mut ring = RetentionRing::new(1 << 20);
        ring.push(window(0, 10));
        ring.push(window(10, 10));
        ring.push(window(20, 10));
        ring.release_below(15); // window 0..10 is fully resolved
        assert_eq!(ring.window_count(), 2);
        assert_eq!(ring.retained_bytes(), 20);
        ring.release_below(30);
        assert_eq!(ring.window_count(), 0);
        assert!(ring.extract(20..21).is_none());
    }
}
