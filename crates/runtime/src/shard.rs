//! Sharded multi-document serving: a consistent-hash router over N
//! independent runtimes.
//!
//! The paper parallelizes *within* one document — split, transduce the
//! chunks in parallel, join. One [`crate::Runtime`] does exactly that for
//! many concurrent sessions, but it is still a single execution site: one
//! worker pool, one join pool, one retention budget's worth of accounting.
//! This module scales *across* documents and streams the way cluster XML
//! engines partition work over execution sites: a [`ShardRouter`] owns N
//! shards (each a full `Runtime` with its own pools) and places every
//! stream on one of them by **consistent hashing** on its stream id.
//!
//! ```text
//!                        ┌─ shard 0: Runtime (workers, join, retention) ─┐
//!  conn ─ stream id ─►  ring  ─ shard 1: Runtime … ─────────────────────┤
//!                        └─ shard N-1: Runtime … ───────────────────────┘
//! ```
//!
//! Design points:
//!
//! * **The ring is the routing table, in-process or across processes.** A
//!   [`HashRing`] hashes each shard into `vnodes` virtual points; a stream
//!   id lands on the first point at or clockwise of its own hash. Adding or
//!   removing a shard moves only the streams whose points fall into the new
//!   (or vacated) arcs — ~1/N of them — and every moved stream moves to (or
//!   from) exactly that shard; nothing else reshuffles.
//! * **Stream identity is the partition key.** This is why a
//!   default-handshake connection must get a *unique* server-assigned
//!   stream id (see [`crate::serve`]): if every id defaulted to 0, every
//!   default stream would land on one shard and the consumer could not
//!   demux aggregated connections.
//! * **Cross-process routing reuses the wire protocol.** [`forward`] plays
//!   the client side of the existing handshake against a remote
//!   [`crate::serve::TcpServer`] and pumps the stream up / the frames back,
//!   so the same ring that picks an in-process shard can pick a remote
//!   process instead — the frames are byte-identical either way.
//!
//! [`crate::serve::TcpServerBuilder::shards`] builds the in-process
//! topology; `examples/sharded_serving.rs` demonstrates both topologies
//! against the batch engine.

use crate::serve::{register, ClientError, Registration};
use crate::stats::RouterStats;
use crate::wire::HandshakeRequest;
use crate::Runtime;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default virtual nodes per shard — enough points that the largest arc is
/// within a few ten percent of the mean for single-digit shard counts.
pub const DEFAULT_VNODES: usize = 64;

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash. Stream ids are
/// often small consecutive integers; the finalizer spreads them uniformly
/// around the ring.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The hash point of virtual node `vnode` of shard `shard`. Depends only on
/// the pair, so a shard's points are stable as other shards come and go —
/// the consistency in "consistent hashing".
fn vnode_point(shard: usize, vnode: usize) -> u64 {
    mix64(mix64(shard as u64 ^ 0x5bd1_e995_9d30_f1aa) ^ vnode as u64)
}

/// A consistent-hash ring over shard indices `0..shards`, with `vnodes`
/// virtual points per shard.
///
/// Deterministic: the same `(shards, vnodes, stream_id)` always routes to
/// the same shard, on every host — which is what lets two processes agree
/// on placement without talking to each other.
#[derive(Debug, Clone)]
pub struct HashRing {
    shards: usize,
    vnodes: usize,
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over `shards` shards (≥ 1) with `vnodes` virtual points each
    /// (≥ 1).
    pub fn new(shards: usize, vnodes: usize) -> HashRing {
        let shards = shards.max(1);
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(shards * vnodes);
        for shard in 0..shards {
            for vnode in 0..vnodes {
                points.push((vnode_point(shard, vnode), shard));
            }
        }
        // Ties (astronomically unlikely) break by shard index, keeping the
        // ring deterministic.
        points.sort_unstable();
        HashRing { shards, vnodes, points }
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Virtual points per shard.
    pub fn vnodes_per_shard(&self) -> usize {
        self.vnodes
    }

    /// The shard owning `stream_id`: the first virtual point at or clockwise
    /// of the id's hash.
    pub fn route(&self, stream_id: u64) -> usize {
        let key = mix64(stream_id);
        let at = self.points.partition_point(|&(point, _)| point < key);
        // Past the highest point: wrap to the ring's first point.
        let (_, shard) = self.points[at % self.points.len()];
        shard
    }
}

/// The router: N shards, each an independent [`Runtime`], plus the ring and
/// the placement accounting.
pub struct ShardRouter {
    shards: Vec<Arc<Runtime>>,
    ring: HashRing,
    placements: Vec<AtomicU64>,
    lookups: AtomicU64,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter").field("shards", &self.shards.len()).finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// A router over the given runtimes with [`DEFAULT_VNODES`] virtual
    /// nodes per shard.
    ///
    /// # Panics
    ///
    /// When `shards` is empty — a router with nothing to route to is a
    /// construction bug, not a runtime condition.
    pub fn new(shards: Vec<Arc<Runtime>>) -> ShardRouter {
        assert!(!shards.is_empty(), "a shard router needs at least one runtime");
        let ring = HashRing::new(shards.len(), DEFAULT_VNODES);
        let placements = (0..shards.len()).map(|_| AtomicU64::new(0)).collect();
        ShardRouter { shards, ring, placements, lookups: AtomicU64::new(0) }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The runtime behind shard `idx`.
    pub fn shard(&self, idx: usize) -> &Arc<Runtime> {
        &self.shards[idx]
    }

    /// Per-shard pipeline telemetry, ring order — scrape surfaces label each
    /// instance with `shard=<idx>` and merge the snapshots for totals (see
    /// [`crate::telemetry::HistogramSnapshot::merge`]).
    pub fn telemetries(&self) -> Vec<Arc<crate::telemetry::RuntimeTelemetry>> {
        self.shards.iter().map(|s| Arc::clone(s.telemetry())).collect()
    }

    /// The ring itself (e.g. to mirror the placement across processes).
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// Looks the owning shard up without placing anything (counted as a ring
    /// lookup).
    pub fn route(&self, stream_id: u64) -> usize {
        // RELAXED-OK: monotonic stat counter; orders nothing.
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.ring.route(stream_id)
    }

    /// Routes `stream_id` and records the placement.
    pub fn place(&self, stream_id: u64) -> usize {
        let shard = self.route(stream_id);
        // RELAXED-OK: monotonic stat counter; orders nothing.
        self.placements[shard].fetch_add(1, Ordering::Relaxed);
        shard
    }

    /// A point-in-time snapshot of the router's counters.
    pub fn stats(&self) -> RouterStats {
        let per_shard: Vec<u64> =
            // RELAXED-OK: stat snapshot; staleness and cross-counter skew
            // are acceptable in a monitoring read.
            self.placements.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        let total: u64 = per_shard.iter().sum();
        let imbalance = if total == 0 {
            1.0
        } else {
            let mean = total as f64 / per_shard.len() as f64;
            per_shard.iter().copied().max().unwrap_or(0) as f64 / mean
        };
        RouterStats {
            placements: total,
            // RELAXED-OK: stat snapshot; staleness is acceptable.
            ring_lookups: self.lookups.load(Ordering::Relaxed),
            per_shard_placements: per_shard,
            imbalance,
        }
    }
}

/// The outcome of one forwarded stream.
#[derive(Debug, Clone)]
pub struct ForwardReport {
    /// The stream id the remote server confirmed (the requested one, or the
    /// remote's assignment when the request carried none).
    pub stream_id: u64,
    /// Per-query ids the remote registered.
    pub query_ids: Vec<u32>,
    /// Stream bytes pumped up to the remote.
    pub bytes_up: u64,
    /// Frame bytes relayed back down.
    pub bytes_down: u64,
}

/// Serializes one placed stream to a remote [`crate::serve::TcpServer`] over
/// the ordinary wire handshake and relays the frames back: the building
/// block that turns the ring into a *cross-process* routing table.
///
/// `reader`'s bytes are pumped to the remote on a scoped thread (half-closed
/// at EOF); every frame byte the remote produces is written to `writer`
/// verbatim — the caller sees exactly what a direct connection would have
/// produced, `OK` line excluded (the registration is this function's
/// business, and its outcome is in the returned [`ForwardReport`]).
pub fn forward<A: ToSocketAddrs, R: Read + Send, W: Write>(
    addr: A,
    request: &HandshakeRequest,
    reader: R,
    writer: &mut W,
) -> Result<ForwardReport, ClientError> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    let Registration { stream_id, query_ids, .. } = register(&mut stream, request)?;
    let upstream = stream.try_clone()?;
    let (bytes_down, bytes_up) =
        std::thread::scope(|scope| -> Result<(u64, std::io::Result<u64>), ClientError> {
            let pump = scope.spawn(move || -> std::io::Result<u64> {
                let mut reader = reader;
                let mut upstream = upstream;
                let mut buf = [0u8; 64 << 10];
                let mut sent = 0u64;
                loop {
                    let n = match reader.read(&mut buf) {
                        Ok(0) => break,
                        Ok(n) => n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(e) => return Err(e),
                    };
                    upstream.write_all(&buf[..n])?;
                    sent += n as u64;
                }
                // Half-close so the remote's splitter sees EOF while the
                // frame stream keeps flowing back.
                let _ = upstream.shutdown(Shutdown::Write);
                Ok(sent)
            });
            let mut buf = [0u8; 64 << 10];
            let mut relayed = 0u64;
            let relay_result = loop {
                match stream.read(&mut buf) {
                    Ok(0) => break Ok(()),
                    Ok(n) => {
                        if let Err(e) = writer.write_all(&buf[..n]) {
                            break Err(ClientError::Io(e));
                        }
                        relayed += n as u64;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => break Err(ClientError::Io(e)),
                }
            };
            // Always join the pump (a relay failure kills the socket, which
            // unblocks it) so the scope cannot dangle.
            if relay_result.is_err() {
                let _ = stream.shutdown(Shutdown::Both);
            }
            // UNWRAP-OK: the pump closure cannot panic (pure I/O loop
            // returning u64); a join error would mean a stdlib bug, and the
            // forwarder has no session to poison.
            let sent = pump.join().expect("forward pump thread");
            relay_result.map(|()| (relayed, sent))
        })?;
    // An upstream failure after a complete relay means the remote closed on
    // us mid-stream; surface it rather than reporting a clean forward.
    let bytes_up = bytes_up.map_err(ClientError::Io)?;
    Ok(ForwardReport { stream_id, query_ids, bytes_up, bytes_down })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_routing_is_deterministic_and_in_range() {
        let a = HashRing::new(5, 32);
        let b = HashRing::new(5, 32);
        for id in 0..1000u64 {
            let shard = a.route(id);
            assert!(shard < 5);
            assert_eq!(shard, b.route(id), "two rings with the same shape must agree");
        }
    }

    #[test]
    fn router_counts_placements_and_lookups() {
        let shards = vec![
            Arc::new(Runtime::builder().workers(1).build()),
            Arc::new(Runtime::builder().workers(1).build()),
        ];
        let router = ShardRouter::new(shards);
        for id in 0..100 {
            let shard = router.place(id);
            assert_eq!(shard, router.ring().route(id));
        }
        let _ = router.route(7); // a bare lookup is not a placement
        let stats = router.stats();
        assert_eq!(stats.placements, 100);
        assert_eq!(stats.ring_lookups, 101);
        assert_eq!(stats.per_shard_placements.iter().sum::<u64>(), 100);
        assert!(stats.imbalance >= 1.0);
    }
}
