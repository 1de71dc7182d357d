//! The four workloads: their bytes, their query sets, and the oracle.
//!
//! Every dataset shape (entity counts, sizes, query lists) is spelled out
//! here and handed to the generators explicitly, so a clean-up of
//! `ppt-datasets`' sizing helpers or of `ppt-bench` can not silently change
//! what this benchmark measures. Only the document *content* follows
//! `--seed`; query sets and sizes do not, because the driver compares runs
//! across seeds and a metric must not move with the seed.

use crate::Result;
use ppt_core::Engine;
use ppt_datasets::{TreebankConfig, TwitterConfig, XmarkConfig};

/// Payload-retention budget every connection requests (`RETAIN`).
pub const RETAIN_BYTES: u64 = 4 << 20;
/// Write size of the saturating phase.
pub const SATURATING_WRITE_BYTES: usize = 64 << 10;
/// Slice size of the paced phase.
pub const SLICE_BYTES: usize = 16 << 10;

/// How the paced phase spends a pass's bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// 16 KiB slices on a fixed schedule; a frame is timed from the due time
    /// of the slice that carried its last byte.
    Slices,
    /// Open-loop session arrivals: connect, handshake and the whole document
    /// at the session's due time, every frame timed from that due time.
    Sessions,
}

/// One connection of a pass.
#[derive(Debug, Clone)]
pub struct ConnSpec {
    pub queries: Vec<String>,
    /// The first connection feeds the document; later ones attach to its
    /// stream id and only listen.
    pub feeds: bool,
    /// A late subscriber may be shed frames by design (WIRE.md §1.5); its
    /// frames must then be a sub-multiset of the oracle's.
    pub may_shed: bool,
}

/// A workload's documents and the connections of one pass over any of them.
type Generated = (Vec<Vec<u8>>, Vec<ConnSpec>);

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Offered rate of the paced phase: ≈40 % of the median `ingest_mib_s`
    /// of ten runs on the 2-core reference box (37 / 320 / 3.5 / 18.7 MiB/s),
    /// frozen here, never adapted at run time.
    pub paced_mib_s: f64,
    /// Concurrent closed-loop clients (saturating) / arrival lanes (paced).
    pub lanes: usize,
    pub pacing: Pacing,
    /// Per-layer measurements run on this much of the first document, so a
    /// traced run stays within the driver's time cap.
    pub layer_sample_bytes: usize,
    generate: fn(u64) -> Generated,
}

pub static WORKLOADS: [Workload; 4] = [
    Workload {
        name: "xmark_small",
        why: "32 MiB XMark, 3 XPathMark queries, 1 connection: a tag every few dozen bytes, so \
              lexing, classify/step and process_chunk do the work, egress none; per-tag work \
              must show here. Paced at 15 MiB/s.",
        paced_mib_s: 15.0,
        lanes: 1,
        pacing: Pacing::Slices,
        layer_sample_bytes: usize::MAX,
        generate: xmark_small,
    },
    Workload {
        name: "large_payload",
        why: "256 x 256 KiB text elements, //item/desc, 1 connection: bytes not tags, so \
              retention, frame encode, outbox/writev and the socket do the work; per-tag \
              changes predict no move here. Paced at 128 MiB/s.",
        paced_mib_s: 128.0,
        lanes: 1,
        pacing: Pacing::Slices,
        layer_sample_bytes: 16 << 20,
        generate: large_payload,
    },
    Workload {
        name: "treebank_multiquery",
        why: "4 MiB deep Treebank, 192 queries on the owner + 64 on an attached subscriber: \
              merged-automaton compile, table size, per-tag step and fan-out dominate; \
              handshake_ms is compile time. Paced at 1.4 MiB/s.",
        paced_mib_s: 1.4,
        lanes: 1,
        pacing: Pacing::Slices,
        layer_sample_bytes: 1 << 20,
        generate: treebank_multiquery,
    },
    Workload {
        name: "twitter_sessions",
        why: "2 clients looping connect, 10-query handshake, one 256 KiB document, close: accept, \
              handshake, session compile, predicate filters, teardown dominate; \
              per-session cost shows here. Paced at 7.5 MiB/s.",
        paced_mib_s: 7.5,
        lanes: 2,
        pacing: Pacing::Sessions,
        layer_sample_bytes: 256 << 10,
        generate: twitter_sessions,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

// The generator's 1 : 5 : 5 entity mix, sized to 32 MiB.
fn xmark_small(seed: u64) -> Generated {
    let doc =
        XmarkConfig { items_per_region: 12_180, closed_auctions: 60_900, people: 60_900, seed }
            .generate();
    let queries = ["/s/cs/c/a/d/t/k", "//c//k", "/s/cs/c//k"]; // XPathMark A1–A3
    (vec![doc], vec![owner(&queries)])
}

const LARGE_ITEMS: usize = 256;
const LARGE_ITEM_BYTES: usize = 256 << 10;

/// `<catalog>` of 256 items, each one 256 KiB `<desc>` of seeded printable
/// text (one random block, rotated per item so no two payloads hash alike).
fn large_payload(seed: u64) -> Generated {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz 0123456789 ";
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let block: Vec<u8> = (0..LARGE_ITEM_BYTES)
        .map(|_| {
            // xorshift64
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ALPHABET[(state >> 33) as usize % ALPHABET.len()]
        })
        .collect();
    let mut doc = Vec::with_capacity(LARGE_ITEMS * (LARGE_ITEM_BYTES + 64) + 32);
    doc.extend_from_slice(b"<catalog>");
    for i in 0..LARGE_ITEMS {
        doc.extend_from_slice(format!("<item><id>{i}</id><desc>").as_bytes());
        let cut = i * 97 % LARGE_ITEM_BYTES;
        doc.extend_from_slice(&block[cut..]);
        doc.extend_from_slice(&block[..cut]);
        doc.extend_from_slice(b"</desc></item>");
    }
    doc.extend_from_slice(b"</catalog>");
    (vec![doc], vec![owner(&["//item/desc"])])
}

/// Seed of the random Treebank query set — fixed, see the module docs.
const TREEBANK_QUERY_SEED: u64 = 17;

fn treebank_multiquery(seed: u64) -> Generated {
    let doc = TreebankConfig { sentences: 9_440, max_depth: 30, seed }.generate();
    let pool = ppt_datasets::random_treebank_queries(224, 3, TREEBANK_QUERY_SEED);
    let owner = ConnSpec { queries: pool[..192].to_vec(), feeds: true, may_shed: false };
    // Half of the subscriber's queries are the owner's, half are new to the
    // merged automaton.
    let mut sub = pool[..32].to_vec();
    sub.extend_from_slice(&pool[192..]);
    (vec![doc], vec![owner, ConnSpec { queries: sub, feeds: false, may_shed: true }])
}

/// Ten queries over the Twitter schema, half of them predicated so the
/// sessions exercise `FilterBank`.
const TWITTER_QUERIES: [&str; 10] = [
    "//status/coordinates/coordinates",
    "//status/text",
    "//status/user/screen_name",
    "//retweeted_status/status/id",
    "/statuses/status/user/followers_count",
    "//status[coordinates]/id",
    "//status[coordinates]/text",
    "//status[user]/created_at",
    "//retweeted_status/status[retweet_count]/text",
    "/statuses/status[source]/retweet_count",
];

fn twitter_sessions(seed: u64) -> Generated {
    let docs = (0..8)
        .map(|i| {
            TwitterConfig {
                statuses: 555,
                retweet_probability: 0.25,
                coordinates_probability: 0.15,
                seed: seed.wrapping_mul(8).wrapping_add(i),
            }
            .generate()
        })
        .collect();
    (docs, vec![owner(&TWITTER_QUERIES)])
}

fn owner(queries: &[&str]) -> ConnSpec {
    ConnSpec {
        queries: queries.iter().map(|q| q.to_string()).collect(),
        feeds: true,
        may_shed: false,
    }
}

/// What one connection must receive for one document, order-free: frames
/// arrive fold by fold, and nothing promises the order within a fold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expected {
    pub frames: u64,
    pub per_query: Vec<u64>,
    /// Wrapping sum of [`frame_hash`] over every frame.
    pub digest: u64,
    /// Sorted frame hashes — kept only for a connection that may be shed.
    pub hashes: Vec<u64>,
}

/// A workload's generated inputs and their oracle.
#[derive(Debug)]
pub struct Inputs {
    pub docs: Vec<Vec<u8>>,
    pub conns: Vec<ConnSpec>,
    /// `expected[doc][conn]`.
    pub expected: Vec<Vec<Expected>>,
}

impl Workload {
    /// Step (1): the workload's bytes and, from `Engine::run_sequential`
    /// (in-order, one thread — the semantic reference) plus the span slices,
    /// every frame each connection must receive.
    pub fn generate(&self, seed: u64) -> Result<Inputs> {
        let (docs, conns) = (self.generate)(seed);
        let engines = conns
            .iter()
            .map(|conn| Engine::from_queries(&conn.queries))
            .collect::<std::result::Result<Vec<Engine>, _>>()?;
        let expected = docs
            .iter()
            .map(|doc| {
                engines.iter().zip(&conns).map(|(e, c)| oracle(e, doc, c.may_shed)).collect()
            })
            .collect();
        Ok(Inputs { docs, conns, expected })
    }
}

fn oracle(engine: &Engine, doc: &[u8], keep_hashes: bool) -> Expected {
    let result = engine.run_sequential(doc);
    let mut expected = Expected { frames: 0, per_query: Vec::new(), digest: 0, hashes: Vec::new() };
    for (q, matches) in result.query_matches.iter().enumerate() {
        expected.per_query.push(matches.len() as u64);
        for m in matches {
            let payload = doc.get(m.start..m.end);
            let h = frame_hash(q as u32, m.start as u64, m.end as u64, m.depth, payload);
            expected.frames += 1;
            expected.digest = expected.digest.wrapping_add(h);
            if keep_hashes {
                expected.hashes.push(h);
            }
        }
    }
    expected.hashes.sort_unstable();
    expected
}

/// Identity of one frame: query, span, depth and payload bytes.
pub fn frame_hash(query: u32, start: u64, end: u64, depth: u32, payload: Option<&[u8]>) -> u64 {
    let mut h = mix(u64::from(query) << 32 | u64::from(depth), start);
    h = mix(h, end);
    match payload {
        Some(bytes) => mix(h, hash_bytes(bytes)),
        None => mix(h, 0x6e6f_6e65), // "none"
    }
}

fn mix(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
}

/// Eight bytes a step: `large_payload` hashes 64 MiB a pass on the reader
/// thread, and a byte-at-a-time hash there would make the generator the
/// bottleneck.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut h = bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        h = mix(h, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    let rest = words.remainder();
    tail[..rest.len()].copy_from_slice(rest);
    mix(h, u64::from_le_bytes(tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_a_function_of_the_seed_and_sizes_are_not() {
        let w = find("twitter_sessions").unwrap();
        let (a, b, c) = (w.generate(3).unwrap(), w.generate(3).unwrap(), w.generate(4).unwrap());
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.docs, c.docs);
        assert_eq!(a.docs.len(), 8);
        for doc in a.docs.iter().chain(&c.docs) {
            let kib = doc.len() as f64 / 1024.0;
            assert!((230.0..290.0).contains(&kib), "a twitter document of {kib} KiB");
        }
        // Every predicated query must select something, or FilterBank idles.
        assert!(a.expected[0][0].per_query.iter().all(|&n| n > 0), "{:?}", a.expected[0][0]);
    }

    #[test]
    fn large_payload_has_256_distinct_quarter_mib_payloads() {
        let inputs = find("large_payload").unwrap().generate(1).unwrap();
        let expected = &inputs.expected[0][0];
        assert_eq!(expected.per_query, vec![256]);
        assert_eq!(inputs.docs[0].len() >> 20, 64);
    }

    #[test]
    fn the_subscriber_overlaps_the_owner_by_half() {
        let (_, conns) = treebank_multiquery(1);
        assert_eq!((conns[0].queries.len(), conns[1].queries.len()), (192, 64));
        assert_eq!(conns[1].queries[..32], conns[0].queries[..32]);
        assert!(conns[1].may_shed && !conns[1].feeds);
    }

    #[test]
    fn frame_hash_tells_frames_apart() {
        let base = frame_hash(1, 10, 20, 3, Some(b"<a>payload</a>"));
        assert_eq!(base, frame_hash(1, 10, 20, 3, Some(b"<a>payload</a>")));
        assert_ne!(base, frame_hash(2, 10, 20, 3, Some(b"<a>payload</a>")));
        assert_ne!(base, frame_hash(1, 11, 20, 3, Some(b"<a>payload</a>")));
        assert_ne!(base, frame_hash(1, 10, 20, 4, Some(b"<a>payload</a>")));
        assert_ne!(base, frame_hash(1, 10, 20, 3, Some(b"<a>payloae</a>")));
        assert_ne!(base, frame_hash(1, 10, 20, 3, None));
        assert_ne!(hash_bytes(b"12345678"), hash_bytes(b"12345678\0"));
    }
}
