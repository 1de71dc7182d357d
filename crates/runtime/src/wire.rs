//! The wire protocol: serializing materialized matches for network clients.
//!
//! Two framings over the same [`Frame`] payload, chosen per connection:
//!
//! * **JSON lines** — one JSON object per `\n`-terminated line, for humans,
//!   scripts and anything that speaks JSON:
//!
//!   ```json
//!   {"stream":7,"query":0,"start":1024,"end":1061,"depth":4,"payload":"<k>v</k>"}
//!   ```
//!
//!   The payload is XML *bytes*, not guaranteed UTF-8, while JSON strings
//!   must be. The encoder therefore maps bytes to the string bijectively:
//!   printable ASCII stays literal (`"` and `\` escaped), every other byte
//!   becomes `\u00XX` (plus the `\n`/`\r`/`\t` shorthands). Decoding maps
//!   each escape below U+0100 back to its byte, so
//!   `decode(encode(bytes)) == bytes` for **any** byte sequence. A frame
//!   without a payload (retention off, or the span was evicted) carries
//!   `"payload":null`.
//!
//! * **Length-prefixed binary** — for high-throughput consumers; all
//!   integers little-endian:
//!
//!   ```text
//!   u32 len      bytes after this field (= 33 + payload length)
//!   u64 stream   stream id (session-scoped, caller-assigned)
//!   u32 query    query index in the order queries were added
//!   u64 start    byte offset of the matched element's opening tag
//!   u64 end      byte offset just past the closing tag (u64::MAX = unknown)
//!   u32 depth    element depth (root = 1)
//!   u8  flags    bit 0: payload present
//!   [payload]    the matched element bytes, iff flags & 1
//!   ```
//!
//! [`FrameDecoder`] reassembles binary frames from arbitrary read
//! boundaries; [`WireSink`] plugs either framing into the runtime's
//! materialized delivery path ([`crate::Runtime::serve_reader`]).
//!
//! The encoder accepts any frame that fits the `u32` length prefix, but a
//! stock decoder caps frames at [`DEFAULT_MAX_FRAME`] to bound memory
//! against corrupt length prefixes — a consumer of sessions whose retention
//! budget allows payloads beyond that must raise its own ceiling with
//! [`FrameDecoder::with_max_frame`].

use crate::sink::{BorrowedMatch, MaterializedMatch, PayloadRef};
use crate::PayloadSink;
use std::io::Write;

/// Bytes of the fixed binary header after the length field.
const BIN_HEADER: usize = 8 + 4 + 8 + 8 + 4 + 1;

/// One match on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Caller-assigned stream id of the session that produced the match.
    pub stream: u64,
    /// Query index, in the order queries were added to the engine.
    pub query: u32,
    /// Byte offset of the matched element's opening tag.
    pub start: u64,
    /// Byte offset just past the matched element's closing tag
    /// (`u64::MAX` when span resolution was disabled).
    pub end: u64,
    /// Depth of the matched element (root = 1).
    pub depth: u32,
    /// The matched element bytes — `None` when retention is off or the span
    /// was evicted before delivery.
    pub payload: Option<Vec<u8>>,
}

impl Frame {
    /// Builds the frame for one materialized match, taking the payload
    /// without copying it.
    ///
    /// The wire carries the query index as a `u32`; a match whose index does
    /// not fit is refused with [`WireError::Overflow`] instead of silently
    /// truncating the bits and misattributing the frame to another query.
    /// (`start`/`end` widen losslessly: `usize` is at most 64 bits on every
    /// supported target.)
    pub fn try_from_match(m: MaterializedMatch) -> Result<Frame, WireError> {
        let query = u32::try_from(m.m.query)
            .map_err(|_| WireError::Overflow { field: "query", value: m.m.query as u64 })?;
        Ok(Frame {
            stream: m.stream,
            query,
            start: m.m.start as u64,
            end: m.m.end as u64,
            depth: m.m.depth,
            payload: m.payload,
        })
    }

    /// Appends the JSON-lines encoding (including the trailing newline).
    pub fn encode_json(&self, out: &mut Vec<u8>) {
        self.encode_json_prefix(out);
        match &self.payload {
            None => out.extend_from_slice(b"null"),
            Some(bytes) => {
                out.push(b'"');
                escape_bytes(bytes, out);
                out.push(b'"');
            }
        }
        out.extend_from_slice(b"}\n");
    }

    /// Appends the JSON-lines encoding up to (and excluding) the payload
    /// value — everything before `"payload":`'s value. The split half of the
    /// vectored JSON encoding: follow with `"`, the raw payload bytes (only
    /// when every byte is JSON-clean, see [`PayloadRef`] borrowing in
    /// [`WireSink`]), and the [`JSON_FRAME_TAIL`].
    pub fn encode_json_prefix(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(
            format!(
                "{{\"stream\":{},\"query\":{},\"start\":{},\"end\":{},\"depth\":{},\"payload\":",
                self.stream, self.query, self.start, self.end, self.depth
            )
            .as_bytes(),
        );
    }

    /// The JSON-lines encoding as a `String` (including the trailing
    /// newline).
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.encode_json(&mut out);
        // UNWRAP-OK: `encode_json` emits ASCII only (non-ASCII payload
        // bytes become \u00XX escapes), so UTF-8 validation cannot fail.
        String::from_utf8(out).expect("the JSON encoder emits ASCII only")
    }

    /// Parses one JSON line (with or without the trailing newline).
    pub fn decode_json(line: &str) -> Result<Frame, WireError> {
        const KEYS: [&[u8]; 6] = [b"stream", b"query", b"start", b"end", b"depth", b"payload"];
        let mut p = JsonParser { bytes: line.trim_end_matches(['\n', '\r']).as_bytes(), pos: 0 };
        p.expect_byte(b'{')?;
        let mut frame = Frame { stream: 0, query: 0, start: 0, end: 0, depth: 0, payload: None };
        let mut seen = [false; KEYS.len()];
        let mut first = true;
        loop {
            p.skip_ws();
            if p.eat(b'}') {
                break;
            }
            if !first {
                return Err(WireError::Json("expected ',' or '}'".into()));
            }
            first = false;
            loop {
                let key = p.parse_string()?;
                p.skip_ws();
                p.expect_byte(b':')?;
                p.skip_ws();
                match key.as_slice() {
                    b"stream" => frame.stream = p.parse_u64()?,
                    b"query" => frame.query = parse_u32_field(&mut p, "query")?,
                    b"start" => frame.start = p.parse_u64()?,
                    b"end" => frame.end = p.parse_u64()?,
                    b"depth" => frame.depth = parse_u32_field(&mut p, "depth")?,
                    b"payload" => {
                        frame.payload =
                            if p.eat_literal(b"null") { None } else { Some(p.parse_string()?) };
                    }
                    other => {
                        return Err(WireError::Json(format!(
                            "unknown key {:?}",
                            String::from_utf8_lossy(other)
                        )));
                    }
                }
                // UNWRAP-OK: `key` matched one of KEYS in the arm above, so
                // `position` always finds it.
                seen[KEYS.iter().position(|k| *k == key.as_slice()).expect("matched above")] = true;
                p.skip_ws();
                if p.eat(b',') {
                    p.skip_ws();
                    continue;
                }
                break;
            }
        }
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(WireError::Json("trailing bytes after frame".into()));
        }
        // Every field is required: a truncated line must not silently decode
        // as an all-zero frame.
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(WireError::Json(format!(
                "missing field {:?}",
                String::from_utf8_lossy(KEYS[missing])
            )));
        }
        Ok(frame)
    }

    /// Appends the length-prefixed binary encoding.
    ///
    /// # Panics
    ///
    /// When the payload does not fit the `u32` length prefix (≥ 4 GiB — far
    /// beyond any sane retention budget); a loud panic beats silently
    /// emitting a truncated length that would desync the peer's decoder.
    pub fn encode_binary(&self, out: &mut Vec<u8>) {
        self.encode_binary_header(self.payload.as_ref().map(|p| p.len()), out);
        if let Some(p) = &self.payload {
            out.extend_from_slice(p);
        }
    }

    /// Appends the binary length prefix and fixed header for a payload of
    /// `payload_len` bytes (`None` = no payload) that will be appended
    /// *separately* — the header half of the split/vectored binary encoding.
    /// `self.payload` is ignored; the length prefix and payload flag are
    /// derived from `payload_len` alone.
    ///
    /// # Panics
    ///
    /// Same contract as [`Frame::encode_binary`]: a payload that does not
    /// fit the `u32` length prefix panics loudly rather than desyncing the
    /// peer's decoder.
    pub fn encode_binary_header(&self, payload_len: Option<usize>, out: &mut Vec<u8>) {
        // UNWRAP-OK: documented panic contract (see `# Panics` above) —
        // a ≥ 4 GiB payload must fail loudly, not desync the peer.
        let len = u32::try_from(BIN_HEADER + payload_len.unwrap_or(0))
            .expect("frame payload exceeds the u32 length prefix");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.stream.to_le_bytes());
        out.extend_from_slice(&self.query.to_le_bytes());
        out.extend_from_slice(&self.start.to_le_bytes());
        out.extend_from_slice(&self.end.to_le_bytes());
        out.extend_from_slice(&self.depth.to_le_bytes());
        out.push(u8::from(payload_len.is_some()));
    }
}

/// The bytes that close a vectored JSON frame after its raw payload: the
/// closing string quote, the object brace, and the line terminator.
pub const JSON_FRAME_TAIL: &[u8] = b"\"}\n";

/// A frame split into already-encoded header bytes and a payload still
/// *borrowed* from retained windows — the scatter-gather unit of the
/// zero-copy egress path.
///
/// The header (and, for JSON, the [`JSON_FRAME_TAIL`]) is a handful of
/// bytes the destination copies; the payload travels as a [`PayloadRef`]
/// whose `SharedWindow` refcounts the destination holds until the frame has
/// fully drained to the socket. Frames whose payload cannot be borrowed
/// (absent, or JSON needing escapes) simply carry the complete encoding in
/// `head`.
#[derive(Debug)]
pub struct FrameRef<'a> {
    /// Encoded bytes preceding the payload — or the entire frame when
    /// `payload` is `None`.
    pub head: &'a [u8],
    /// The borrowed payload bytes, written between `head` and `tail`.
    pub payload: Option<PayloadRef>,
    /// Encoded bytes following the payload ([`JSON_FRAME_TAIL`] for JSON,
    /// empty for binary).
    pub tail: &'static [u8],
}

impl FrameRef<'_> {
    /// Total encoded frame length in bytes (head + payload + tail).
    pub fn len(&self) -> usize {
        self.head.len() + self.payload.as_ref().map(|p| p.len()).unwrap_or(0) + self.tail.len()
    }

    /// `true` when the frame encodes to no bytes at all (never the case for
    /// frames built by [`WireSink`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Destination of split frames for the zero-copy egress path — the
/// reactor's per-connection outbox implements it.
///
/// Contract: the destination takes ownership of the frame's borrowed
/// payload windows and must keep them alive (refcounts held) until the
/// frame's bytes have fully reached the socket, then drop them — that drop
/// is what releases the retained windows. Queueing is all-or-nothing: an
/// error means no bytes of the frame were queued.
pub trait FrameWrite: Send + std::fmt::Debug {
    /// Queues one split frame for writing.
    fn write_frame(&mut self, frame: FrameRef<'_>) -> std::io::Result<()>;
}

/// A malformed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The JSON line did not parse.
    Json(String),
    /// A binary frame header declared an impossible length.
    BadLength(u32),
    /// A binary frame carried unknown flag bits.
    BadFlags(u8),
    /// The stream ended mid-frame: `buffered` undecoded bytes remained when
    /// [`FrameDecoder::finish`] was called. Distinguishes a half-written
    /// final frame (a connection cut mid-write) from a clean EOF, which
    /// `next_frame`'s `Ok(None)` alone cannot.
    Truncated {
        /// Bytes left undecoded at end of stream.
        buffered: usize,
    },
    /// A frame field's value does not fit its wire width (e.g. a query index
    /// beyond `u32`); refusing beats silently truncating the bits and
    /// misattributing the frame.
    Overflow {
        /// The wire field that would have truncated.
        field: &'static str,
        /// The offending value.
        value: u64,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Json(msg) => write!(f, "malformed JSON frame: {msg}"),
            WireError::BadLength(n) => {
                write!(f, "binary frame length {n} outside the accepted range")
            }
            WireError::BadFlags(b) => write!(f, "binary frame with unknown flags {b:#04x}"),
            WireError::Truncated { buffered } => {
                write!(f, "stream ended mid-frame with {buffered} undecoded bytes buffered")
            }
            WireError::Overflow { field, value } => {
                write!(f, "frame field {field:?} cannot carry value {value}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Parses a u64 and checks it fits the frame's `u32` field — wrapping
/// silently would misattribute the frame (e.g. to query 0).
fn parse_u32_field(p: &mut JsonParser<'_>, key: &str) -> Result<u32, WireError> {
    let v = p.parse_u64()?;
    u32::try_from(v).map_err(|_| WireError::Json(format!("field {key:?} exceeds u32: {v}")))
}

/// Maps payload bytes into a JSON string body (bijective, ASCII output).
fn escape_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            0x20..=0x7e => out.push(b),
            other => {
                // Allocation-free `\u00XX` (payloads can be megabytes of
                // non-ASCII; a format! per byte would dominate the hot path).
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(&[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(other >> 4)],
                    HEX[usize::from(other & 0xf)],
                ]);
            }
        }
    }
}

/// Minimal parser for exactly the JSON subset the encoder emits (plus
/// standard escapes), reading from a byte slice.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_literal(&mut self, lit: &[u8]) -> bool {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn expect_byte(&mut self, b: u8) -> Result<(), WireError> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(WireError::Json(format!("expected {:?} at byte {}", b as char, self.pos)))
        }
    }

    fn parse_u64(&mut self) -> Result<u64, WireError> {
        let start = self.pos;
        let mut value: u64 = 0;
        while let Some(&b @ b'0'..=b'9') = self.bytes.get(self.pos) {
            value = value
                .checked_mul(10)
                .and_then(|v| v.checked_add((b - b'0') as u64))
                .ok_or_else(|| WireError::Json("integer overflow".into()))?;
            self.pos += 1;
        }
        if self.pos == start {
            return Err(WireError::Json(format!("expected integer at byte {start}")));
        }
        Ok(value)
    }

    /// Parses a JSON string into the byte sequence it encodes (inverse of
    /// [`escape_bytes`]; escapes ≥ U+0100 are rejected since no byte maps
    /// there).
    fn parse_string(&mut self) -> Result<Vec<u8>, WireError> {
        self.expect_byte(b'"')?;
        let mut out = Vec::new();
        loop {
            let b = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| WireError::Json("unterminated string".into()))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| WireError::Json("unterminated escape".into()))?;
                    self.pos += 1;
                    match e {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0c),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| WireError::Json("truncated \\u escape".into()))?;
                            self.pos += 4;
                            let code = u16::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| WireError::Json("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| WireError::Json("bad \\u escape".into()))?;
                            let byte = u8::try_from(code).map_err(|_| {
                                WireError::Json(format!(
                                    "\\u{code:04x} does not encode a payload byte"
                                ))
                            })?;
                            out.push(byte);
                        }
                        other => {
                            return Err(WireError::Json(format!(
                                "unknown escape \\{}",
                                other as char
                            )));
                        }
                    }
                }
                other => out.push(other),
            }
        }
    }
}

/// Default ceiling on a single binary frame (length prefix included); see
/// [`FrameDecoder::with_max_frame`].
pub const DEFAULT_MAX_FRAME: usize = 256 << 20;

/// Incremental decoder for the binary framing: push bytes from any read
/// boundary, pop complete frames.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
    max_frame: usize,
}

impl Default for FrameDecoder {
    fn default() -> FrameDecoder {
        FrameDecoder { buf: Vec::new(), consumed: 0, max_frame: DEFAULT_MAX_FRAME }
    }
}

impl FrameDecoder {
    /// An empty decoder with the [`DEFAULT_MAX_FRAME`] frame ceiling.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Sets the maximum frame length the decoder will buffer for. The length
    /// prefix is attacker-controlled on a real connection: without a ceiling
    /// a corrupt header of `0xfffffffe` would make the decoder buffer ~4 GiB
    /// waiting for a frame that never completes. A declared length above the
    /// ceiling fails fast with [`WireError::BadLength`].
    pub fn with_max_frame(mut self, max_frame: usize) -> FrameDecoder {
        self.max_frame = max_frame.max(BIN_HEADER);
        self
    }

    /// Appends raw stream bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact lazily so a long-lived connection doesn't grow the buffer.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded into a frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Declares end of stream: `Ok(())` when every pushed byte decoded into
    /// a complete frame, [`WireError::Truncated`] when a partial frame
    /// remains buffered.
    ///
    /// Call this when the connection reaches EOF. [`FrameDecoder::next_frame`]
    /// returns `Ok(None)` both for "need more bytes" and for a final frame
    /// that was cut mid-write — without this check a truncated tail is
    /// silently indistinguishable from a clean close.
    pub fn finish(&self) -> Result<(), WireError> {
        match self.buffered() {
            0 => Ok(()),
            buffered => Err(WireError::Truncated { buffered }),
        }
    }

    /// Pops the next complete frame, `Ok(None)` when more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, WireError> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let mut prefix = [0u8; 4];
        prefix.copy_from_slice(&avail[..4]);
        let wire_len = u32::from_le_bytes(prefix);
        // CAST-OK: u32 → usize is a widening conversion on every supported
        // target (the reactor only builds on 64-bit Linux).
        let len = wire_len as usize;
        if len < BIN_HEADER || len > self.max_frame {
            return Err(WireError::BadLength(wire_len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let flags = body[BIN_HEADER - 1];
        if flags & !1 != 0 {
            return Err(WireError::BadFlags(flags));
        }
        // UNWRAP-OK: `off` is a fixed header offset and `body.len() >=
        // BIN_HEADER` was established above, so the slice is exactly 8 bytes.
        let u64_at = |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().expect("8"));
        // UNWRAP-OK: same bound as `u64_at`; the slice is exactly 4 bytes.
        let u32_at = |off: usize| u32::from_le_bytes(body[off..off + 4].try_into().expect("4"));
        let frame = Frame {
            stream: u64_at(0),
            query: u32_at(8),
            start: u64_at(12),
            end: u64_at(20),
            depth: u32_at(28),
            payload: (flags & 1 != 0).then(|| body[BIN_HEADER..].to_vec()),
        };
        self.consumed += 4 + len;
        Ok(Some(frame))
    }
}

/// Which framing a [`WireSink`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireFormat {
    /// One JSON object per line.
    JsonLines,
    /// Length-prefixed binary frames.
    Binary,
}

/// A [`PayloadSink`] that frames every match and writes it to any
/// [`std::io::Write`] — a socket, a file, a buffer.
///
/// A write error latches: the error is kept for the caller (see
/// [`WireSink::into_parts`]) and every further match is refused, which the
/// runtime counts as dropped. Backpressure is inherited from the writer: a
/// slow socket blocks the joiner, which stalls the splitter through the
/// credit scheme.
///
/// # Zero-copy egress
///
/// [`WireSink::new`] copies: each frame is encoded contiguously into a
/// scratch buffer and written with a single `write_all` — the right shape
/// for in-process writers (`Runtime::serve_reader`, a file, a buffer).
/// [`WireSink::new_vectored`] instead splits each frame into header bytes
/// plus a [`PayloadRef`] borrowing the retained windows, and queues it on a
/// [`FrameWrite`] destination (the TCP server's per-connection outbox) —
/// the payload bytes are never copied;
/// the destination writes them straight out of the retention windows with
/// vectored I/O. Binary frames always borrow; JSON frames borrow when every
/// payload byte encodes as itself in a JSON string (printable ASCII minus
/// `"` and `\`), and fall back to the escaping copy otherwise.
#[derive(Debug)]
pub struct WireSink<W: Write> {
    writer: W,
    /// The zero-copy destination; `None` = the copying path through
    /// `writer`.
    frame_queue: Option<Box<dyn FrameWrite>>,
    format: WireFormat,
    scratch: Vec<u8>,
    /// Frames successfully written.
    pub frames: u64,
    /// Bytes successfully written (or queued, on the vectored path).
    pub bytes_out: u64,
    /// The first write error, if any (no frames are written after it).
    pub io_error: Option<std::io::Error>,
}

impl<W: Write> WireSink<W> {
    /// Wraps `writer` with the given framing (the copying path).
    pub fn new(writer: W, format: WireFormat) -> WireSink<W> {
        WireSink {
            writer,
            frame_queue: None,
            format,
            scratch: Vec::new(),
            frames: 0,
            bytes_out: 0,
            io_error: None,
        }
    }

    /// Wraps `writer` with the given framing, routing every frame through
    /// `queue` as a split [`FrameRef`] instead of a contiguous write —
    /// payload bytes stay borrowed from the retention windows until the
    /// queue drains them (see the type-level docs). `writer` is kept only
    /// for [`WireSink::into_parts`]; all frame traffic goes to `queue`.
    pub fn new_vectored(writer: W, format: WireFormat, queue: Box<dyn FrameWrite>) -> WireSink<W> {
        WireSink { frame_queue: Some(queue), ..WireSink::new(writer, format) }
    }

    /// Flushes the writer and returns it together with the latched write
    /// error, if any.
    pub fn into_parts(mut self) -> (W, Option<std::io::Error>) {
        if self.io_error.is_none() {
            if let Err(e) = self.writer.flush() {
                self.io_error = Some(e);
            }
        }
        (self.writer, self.io_error)
    }

    /// Writes the fully-encoded frame sitting in `self.scratch`, through the
    /// frame queue when vectored, else through the writer. Updates counters
    /// and latches errors.
    fn write_scratch(&mut self) -> bool {
        let write = match self.frame_queue.as_mut() {
            Some(queue) => {
                queue.write_frame(FrameRef { head: &self.scratch, payload: None, tail: b"" })
            }
            None => self.writer.write_all(&self.scratch),
        };
        match write {
            Ok(()) => {
                self.frames += 1;
                self.bytes_out += self.scratch.len() as u64;
                true
            }
            Err(e) => {
                self.io_error = Some(e);
                false
            }
        }
    }
}

/// `true` when every payload byte encodes as itself inside a JSON string
/// (printable ASCII minus `"` and `\`) — the condition for borrowing the
/// raw bytes into a vectored JSON frame instead of escaping a copy.
fn json_clean(payload: &PayloadRef) -> bool {
    payload.slices().all(|s| s.iter().all(|&b| matches!(b, 0x20..=0x7e) && b != b'"' && b != b'\\'))
}

impl<W: Write + Send> PayloadSink for WireSink<W> {
    fn on_match(&mut self, m: MaterializedMatch) -> bool {
        if self.io_error.is_some() {
            return false;
        }
        self.scratch.clear();
        let frame = match Frame::try_from_match(m) {
            Ok(frame) => frame,
            Err(e) => {
                // An unencodable match latches like a write failure: the
                // frame is refused (counted as dropped upstream) instead of
                // going out with truncated fields.
                self.io_error = Some(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                return false;
            }
        };
        match self.format {
            WireFormat::JsonLines => frame.encode_json(&mut self.scratch),
            WireFormat::Binary => frame.encode_binary(&mut self.scratch),
        }
        self.write_scratch()
    }

    fn on_match_borrowed(&mut self, m: BorrowedMatch) -> bool {
        if self.frame_queue.is_none() {
            // Copying path: materialize and deliver exactly as before.
            return self.on_match(m.materialize());
        }
        if self.io_error.is_some() {
            return false;
        }
        let BorrowedMatch { stream, m, payload } = m;
        let frame = match Frame::try_from_match(MaterializedMatch { stream, m, payload: None }) {
            Ok(frame) => frame,
            Err(e) => {
                self.io_error = Some(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
                return false;
            }
        };
        self.scratch.clear();
        let payload = match (self.format, payload) {
            (WireFormat::Binary, Some(p)) => {
                frame.encode_binary_header(Some(p.len()), &mut self.scratch);
                Some(p)
            }
            (WireFormat::JsonLines, Some(p)) if json_clean(&p) => {
                frame.encode_json_prefix(&mut self.scratch);
                self.scratch.push(b'"');
                Some(p)
            }
            (WireFormat::JsonLines, Some(p)) => {
                // Needs escaping: encode the whole frame (one copy), no
                // borrowed payload.
                Frame { payload: Some(p.to_vec()), ..frame }.encode_json(&mut self.scratch);
                None
            }
            (WireFormat::Binary, None) => {
                frame.encode_binary(&mut self.scratch);
                None
            }
            (WireFormat::JsonLines, None) => {
                frame.encode_json(&mut self.scratch);
                None
            }
        };
        let tail: &'static [u8] = if payload.is_some() && self.format == WireFormat::JsonLines {
            JSON_FRAME_TAIL
        } else {
            b""
        };
        let frame_ref = FrameRef { head: &self.scratch, payload, tail };
        let len = frame_ref.len() as u64;
        let write = match self.frame_queue.as_mut() {
            Some(queue) => queue.write_frame(frame_ref),
            // Unreachable (checked at entry); refuse defensively.
            None => return false,
        };
        match write {
            Ok(()) => {
                self.frames += 1;
                self.bytes_out += len;
                true
            }
            Err(e) => {
                self.io_error = Some(e);
                false
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The query-registration handshake
// ---------------------------------------------------------------------------
//
// Before any frame flows, a client registers its queries over the same
// socket with a small line-based handshake (ASCII, `\n`-terminated lines, a
// trailing `\r` is stripped — `nc` works):
//
// ```text
// client → server
//   PPT/1 json|binary        protocol version + frame format (first line)
//   QUERY <xpath>            one line per query, at least one
//   RETAIN <bytes>           optional: payload-retention budget (decimal)
//   STREAM <id>              optional: stream id stamped on frames (decimal;
//                            omitted = the server assigns a unique one)
//   GO                       ends the handshake; XML stream bytes follow
//
// server → client, exactly one line, then frames in the negotiated format
//   OK STREAM <sid> <id0> …  the session's stream id (requested or
//                            server-assigned), then per-query ids in the
//                            order the QUERYs arrived
//   ERR <message>            structured rejection; the server then closes
// ```
//
// A connection can also ask for a one-shot telemetry snapshot instead of a
// session — the `STATS` verb replaces `QUERY …`/`GO` entirely:
//
// ```text
// client → server
//   PPT/1 json|binary        (format line required, format ignored)
//   STATS                    completes the handshake immediately; must be
//                            the only verb (no QUERY/RETAIN/STREAM/GO)
//
// server → client
//   OK STATS <bytes>         then exactly <bytes> of Prometheus-style
//                            text exposition, then the server closes
//   ERR <message>            rejection (e.g. STATS mixed with other verbs)
// ```
//
// Every byte after the `GO` line's `\n` belongs to the XML stream —
// [`HandshakeDecoder::take_remainder`] hands those back so no read boundary
// can lose them.

/// Default cap on one handshake line (a query, realistically, is tens of
/// bytes; the cap bounds memory against a client that never sends `\n`).
pub const DEFAULT_MAX_HANDSHAKE_LINE: usize = 8 << 10;

/// Default cap on queries registered by one connection.
pub const DEFAULT_MAX_QUERIES: usize = 64;

/// A parsed query-registration request (see the grammar above).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HandshakeRequest {
    /// The frame format the client asked for.
    pub format: WireFormat,
    /// Query texts, in registration order — their indices are the query ids
    /// on every frame.
    pub queries: Vec<String>,
    /// Requested payload-retention budget in bytes; `None` = offsets only.
    pub retain_bytes: Option<u64>,
    /// Stream id to stamp on frames. `None` means the client sent no
    /// `STREAM` line and the server assigns a process-unique id (echoed in
    /// the `OK` reply). `Some(0)` is a *request* for stream 0 and is carried
    /// on the wire — an explicit 0 used to be indistinguishable from "no
    /// request" because the encoder skipped it.
    pub stream_id: Option<u64>,
    /// `true` for a `STATS` handshake: the connection wants a one-shot
    /// telemetry snapshot, not a session. Mutually exclusive with every
    /// other verb (the decoder enforces it).
    pub stats: bool,
}

impl HandshakeRequest {
    /// A request for `format` with no queries yet.
    pub fn new(format: WireFormat) -> HandshakeRequest {
        HandshakeRequest {
            format,
            queries: Vec::new(),
            retain_bytes: None,
            stream_id: None,
            stats: false,
        }
    }

    /// A `STATS` request: a one-shot telemetry scrape instead of a session.
    /// The format line is still sent (the grammar requires one) but the
    /// reply is always text.
    pub fn stats() -> HandshakeRequest {
        let mut request = HandshakeRequest::new(WireFormat::JsonLines);
        request.stats = true;
        request
    }

    /// Adds one query.
    pub fn query(mut self, q: impl Into<String>) -> HandshakeRequest {
        self.queries.push(q.into());
        self
    }

    /// Requests payload retention with the given byte budget.
    pub fn retain_bytes(mut self, budget: u64) -> HandshakeRequest {
        self.retain_bytes = Some(budget);
        self
    }

    /// Requests a specific stream id for the frames (0 included; ids must
    /// stay below `2^52` — everything above is reserved for server
    /// assignment, and a server rejects requests into it). Without it the
    /// server assigns a process-unique id from that reserved range.
    pub fn stream_id(mut self, id: u64) -> HandshakeRequest {
        self.stream_id = Some(id);
        self
    }

    /// Encodes the handshake lines, `GO` included (the client-side inverse
    /// of [`HandshakeDecoder`]).
    pub fn encode(&self) -> Vec<u8> {
        let format = match self.format {
            WireFormat::JsonLines => "json",
            WireFormat::Binary => "binary",
        };
        let mut out = format!("PPT/1 {format}\n").into_bytes();
        if self.stats {
            // STATS completes the handshake by itself — no GO, no queries.
            out.extend_from_slice(b"STATS\n");
            return out;
        }
        for q in &self.queries {
            out.extend_from_slice(format!("QUERY {q}\n").as_bytes());
        }
        if let Some(budget) = self.retain_bytes {
            out.extend_from_slice(format!("RETAIN {budget}\n").as_bytes());
        }
        // Emit whatever was set — `Some(0)` included. The old
        // `if stream_id != 0` guard silently turned an explicit request for
        // stream 0 into "no request".
        if let Some(id) = self.stream_id {
            out.extend_from_slice(format!("STREAM {id}\n").as_bytes());
        }
        out.extend_from_slice(b"GO\n");
        out
    }
}

/// A malformed or over-limit handshake. Every variant renders as a single
/// line (no `\n` can appear: input is line-split before parsing), so the
/// message embeds directly into an `ERR` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// A line exceeded the decoder's cap before its `\n` arrived.
    LineTooLong {
        /// The configured cap.
        limit: usize,
    },
    /// A handshake line was not valid UTF-8.
    NotUtf8,
    /// The first line did not announce a supported protocol version.
    BadVersion(String),
    /// The version line named an unknown frame format.
    BadFormat(String),
    /// A line opened with a command outside the grammar.
    UnknownCommand(String),
    /// A numeric argument did not parse as decimal.
    BadArgument {
        /// The command whose argument failed.
        command: &'static str,
        /// The offending argument text.
        value: String,
    },
    /// `STREAM` asked for an id in the server-assigned range (at or above
    /// bit 52). Ids there are handed out to `STREAM`-less handshakes, and
    /// the no-collision guarantee between assigned and requested ids only
    /// holds if requests cannot reach into that range.
    ReservedStreamId {
        /// The rejected id.
        id: u64,
    },
    /// `GO` arrived before any `QUERY`.
    NoQueries,
    /// `STATS` was mixed with session verbs (`QUERY`/`RETAIN`/`STREAM`) —
    /// a scrape connection carries no session state, so the combination is
    /// a protocol error, not a silent choice between the two.
    StatsConflict,
    /// The connection registered more queries than the server allows.
    TooManyQueries {
        /// The configured cap.
        limit: usize,
    },
    /// The handshake ran past its total line budget without reaching `GO`
    /// (a flood of blank/`RETAIN`/`STREAM` lines would otherwise pass every
    /// per-line cap while consuming the server indefinitely).
    TooManyLines {
        /// The configured cap.
        limit: usize,
    },
    /// A reply line was neither `OK …` nor `ERR …` (client side).
    BadReply(String),
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HandshakeError::LineTooLong { limit } => {
                write!(f, "handshake line exceeds {limit} bytes")
            }
            HandshakeError::NotUtf8 => write!(f, "handshake line is not valid UTF-8"),
            HandshakeError::BadVersion(line) => {
                write!(f, "expected `PPT/1 <format>` as the first line, got `{line}`")
            }
            HandshakeError::BadFormat(fmt) => {
                write!(f, "unknown frame format `{fmt}` (expected `json` or `binary`)")
            }
            HandshakeError::UnknownCommand(cmd) => write!(f, "unknown handshake command `{cmd}`"),
            HandshakeError::BadArgument { command, value } => {
                write!(f, "{command} takes a decimal integer, got `{value}`")
            }
            HandshakeError::ReservedStreamId { id } => {
                write!(f, "stream id {id} is in the server-assigned range (ids below 2^52 only)")
            }
            HandshakeError::NoQueries => write!(f, "GO before any QUERY was registered"),
            HandshakeError::StatsConflict => {
                write!(f, "STATS must be the only handshake verb (no QUERY/RETAIN/STREAM)")
            }
            HandshakeError::TooManyQueries { limit } => {
                write!(f, "more than {limit} queries registered")
            }
            HandshakeError::TooManyLines { limit } => {
                write!(f, "handshake exceeds {limit} lines without GO")
            }
            HandshakeError::BadReply(line) => {
                write!(f, "expected `OK …` or `ERR …` reply, got `{line}`")
            }
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Incremental parser for the handshake: push socket bytes from any read
/// boundary; a complete request comes back the moment the `GO` line closes,
/// and [`HandshakeDecoder::take_remainder`] returns the stream bytes that
/// arrived in the same reads.
///
/// Errors latch: once a line is rejected every further push reports the same
/// error (the server writes one `ERR` and closes, so nothing ever resumes a
/// failed handshake).
#[derive(Debug)]
pub struct HandshakeDecoder {
    buf: Vec<u8>,
    consumed: usize,
    max_line: usize,
    max_queries: usize,
    /// Total-line budget: blank and repeated option lines are each legal, so
    /// without this cap a client could stream them forever — passing every
    /// per-line check while the connection never reaches `GO`. Memory stays
    /// bounded regardless (consumed lines are compacted away); the budget
    /// bounds the *work*.
    max_lines: usize,
    lines: usize,
    format: Option<WireFormat>,
    queries: Vec<String>,
    retain_bytes: Option<u64>,
    stream_id: Option<u64>,
    stats: bool,
    complete: bool,
    failed: Option<HandshakeError>,
}

impl Default for HandshakeDecoder {
    fn default() -> HandshakeDecoder {
        HandshakeDecoder::with_limits(DEFAULT_MAX_HANDSHAKE_LINE, DEFAULT_MAX_QUERIES)
    }
}

impl HandshakeDecoder {
    /// A decoder with the default line and query caps.
    pub fn new() -> HandshakeDecoder {
        HandshakeDecoder::default()
    }

    /// A decoder with explicit caps (both clamped to at least 1). The total
    /// line budget follows from them: `max_queries` plus slack for the
    /// version, options and `GO`.
    pub fn with_limits(max_line: usize, max_queries: usize) -> HandshakeDecoder {
        let max_queries = max_queries.max(1);
        HandshakeDecoder {
            buf: Vec::new(),
            consumed: 0,
            max_line: max_line.max(1),
            max_queries,
            max_lines: max_queries.saturating_add(16),
            lines: 0,
            format: None,
            queries: Vec::new(),
            retain_bytes: None,
            stream_id: None,
            stats: false,
            complete: false,
            failed: None,
        }
    }

    /// Appends socket bytes and parses as many complete lines as arrived.
    /// Returns the finished request once the `GO` line closes; bytes pushed
    /// after that accumulate as stream remainder (see
    /// [`HandshakeDecoder::take_remainder`]).
    pub fn push(&mut self, bytes: &[u8]) -> Result<Option<HandshakeRequest>, HandshakeError> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        // Compact lazily (as `FrameDecoder` does) so a many-line handshake
        // never accumulates its consumed lines — buffered memory is bounded
        // by one line plus the pushed slice, whatever the client sends.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(bytes);
        if self.complete {
            return Ok(None);
        }
        while !self.complete {
            let Some(nl) = self.buf[self.consumed..].iter().position(|&b| b == b'\n') else {
                if self.buf.len() - self.consumed > self.max_line {
                    return Err(self.fail(HandshakeError::LineTooLong { limit: self.max_line }));
                }
                return Ok(None);
            };
            if nl > self.max_line {
                return Err(self.fail(HandshakeError::LineTooLong { limit: self.max_line }));
            }
            self.lines += 1;
            if self.lines > self.max_lines {
                return Err(self.fail(HandshakeError::TooManyLines { limit: self.max_lines }));
            }
            let line_end = self.consumed + nl;
            // The line is borrowed out of `buf`, so parse into owned fields.
            let line_range = self.consumed..line_end;
            self.consumed = line_end + 1;
            if let Err(e) = self.parse_line(line_range.start, line_range.end) {
                return Err(self.fail(e));
            }
        }
        Ok(Some(HandshakeRequest {
            // UNWRAP-OK: `complete` is only reached after `parse_line` saw
            // the FORMAT line, which is what sets `self.format`.
            format: self.format.expect("set before complete"),
            queries: self.queries.clone(),
            retain_bytes: self.retain_bytes,
            stream_id: self.stream_id,
            stats: self.stats,
        }))
    }

    /// Consumes the decoder, returning every byte received after the `GO`
    /// line — the head of the XML stream. Empty if the handshake never
    /// completed.
    pub fn take_remainder(mut self) -> Vec<u8> {
        if !self.complete {
            return Vec::new();
        }
        self.buf.split_off(self.consumed)
    }

    fn fail(&mut self, e: HandshakeError) -> HandshakeError {
        self.failed = Some(e.clone());
        e
    }

    fn parse_line(&mut self, start: usize, end: usize) -> Result<(), HandshakeError> {
        let mut line = &self.buf[start..end];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        let text = std::str::from_utf8(line).map_err(|_| HandshakeError::NotUtf8)?;
        if text.trim().is_empty() {
            return Ok(()); // blank lines are tolerated anywhere
        }
        if self.format.is_none() {
            let (version, format) = text.split_once(' ').unwrap_or((text, ""));
            if version != "PPT/1" {
                return Err(HandshakeError::BadVersion(text.to_string()));
            }
            self.format = Some(match format.trim() {
                "json" => WireFormat::JsonLines,
                "binary" => WireFormat::Binary,
                other => return Err(HandshakeError::BadFormat(other.to_string())),
            });
            return Ok(());
        }
        let (command, rest) = text.split_once(' ').unwrap_or((text, ""));
        match command {
            "QUERY" => {
                if self.queries.len() >= self.max_queries {
                    return Err(HandshakeError::TooManyQueries { limit: self.max_queries });
                }
                self.queries.push(rest.trim().to_string());
            }
            "RETAIN" => {
                self.retain_bytes = Some(rest.trim().parse().map_err(|_| {
                    HandshakeError::BadArgument { command: "RETAIN", value: rest.trim().into() }
                })?);
            }
            "STREAM" => {
                let id: u64 = rest.trim().parse().map_err(|_| HandshakeError::BadArgument {
                    command: "STREAM",
                    value: rest.trim().into(),
                })?;
                // Ids at and above bit 52 belong to server assignment;
                // accepting requests there would break the
                // assigned-vs-requested no-collision guarantee.
                if id >= 1 << 52 {
                    return Err(HandshakeError::ReservedStreamId { id });
                }
                self.stream_id = Some(id);
            }
            "GO" => {
                if self.queries.is_empty() {
                    return Err(HandshakeError::NoQueries);
                }
                self.complete = true;
            }
            "STATS" => {
                if !self.queries.is_empty()
                    || self.retain_bytes.is_some()
                    || self.stream_id.is_some()
                {
                    return Err(HandshakeError::StatsConflict);
                }
                self.stats = true;
                // A scrape has no stream: the handshake is complete here,
                // no GO line follows.
                self.complete = true;
            }
            other => return Err(HandshakeError::UnknownCommand(other.to_string())),
        }
        Ok(())
    }
}

/// The server's one-line handshake reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeReply {
    /// The queries were registered; frames follow.
    Accepted {
        /// The stream id every frame of this session will carry — the
        /// client's requested id, or the server-assigned unique one when the
        /// handshake had no `STREAM` line. Echoed so a default-handshake
        /// client learns which id to demux on.
        stream: u64,
        /// Per-query ids, in registration order.
        queries: Vec<u32>,
    },
    /// The queries were registered *onto an already-live shared stream*:
    /// the server merged them into the stream's automaton and this
    /// connection now receives that stream's frames from the attach point
    /// onward (not from the beginning). Query ids are scoped to this
    /// connection — local registration order, exactly as `Accepted` ids are
    /// — regardless of how the shared automaton numbers them internally.
    Attached {
        /// The shared stream's id (always the requested id: attaching
        /// requires naming the stream).
        stream: u64,
        /// Per-query ids local to this connection, in registration order.
        queries: Vec<u32>,
    },
    /// The handshake was rejected; the message is the structured reason and
    /// the server closes after sending it.
    Rejected(String),
}

impl HandshakeReply {
    /// Encodes the reply line (trailing newline included). A rejection
    /// message is scrubbed of *all* control characters, not just `\n`/`\r`:
    /// rejection reasons echo client-controlled text (the offending line),
    /// and reflected escape bytes would fake protocol lines or scramble an
    /// operator's `nc` transcript — same discipline as
    /// `ppt_xpath::XPathError::wire_message`.
    pub fn encode(&self) -> String {
        match self {
            HandshakeReply::Accepted { stream, queries } => {
                let mut line = format!("OK STREAM {stream}");
                for id in queries {
                    line.push(' ');
                    line.push_str(&id.to_string());
                }
                line.push('\n');
                line
            }
            HandshakeReply::Attached { stream, queries } => {
                let mut line = format!("OK ATTACH {stream}");
                for id in queries {
                    line.push(' ');
                    line.push_str(&id.to_string());
                }
                line.push('\n');
                line
            }
            HandshakeReply::Rejected(msg) => {
                let flat: String =
                    msg.chars().map(|c| if c.is_control() { ' ' } else { c }).collect();
                format!("ERR {flat}\n")
            }
        }
    }

    /// Parses one reply line (with or without the line terminator). The
    /// pre-assignment form `OK <id0> <id1> …` (no `STREAM` token) is still
    /// accepted with stream 0, so a new client can read an old server.
    pub fn decode(line: &str) -> Result<HandshakeReply, HandshakeError> {
        let line = line.trim_end_matches(['\n', '\r']);
        if let Some(rest) = line.strip_prefix("OK") {
            let mut tokens = rest.split_whitespace().peekable();
            let attached = tokens.peek() == Some(&"ATTACH");
            let stream = if attached || tokens.peek() == Some(&"STREAM") {
                tokens.next();
                tokens
                    .next()
                    .and_then(|tok| tok.parse::<u64>().ok())
                    .ok_or_else(|| HandshakeError::BadReply(line.to_string()))?
            } else {
                0
            };
            let queries = tokens
                .map(|tok| {
                    tok.parse::<u32>().map_err(|_| HandshakeError::BadReply(line.to_string()))
                })
                .collect::<Result<Vec<u32>, HandshakeError>>()?;
            return Ok(if attached {
                HandshakeReply::Attached { stream, queries }
            } else {
                HandshakeReply::Accepted { stream, queries }
            });
        }
        if let Some(rest) = line.strip_prefix("ERR ") {
            return Ok(HandshakeReply::Rejected(rest.to_string()));
        }
        Err(HandshakeError::BadReply(line.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: Option<&[u8]>) -> Frame {
        Frame {
            stream: 7,
            query: 2,
            start: 1024,
            end: 1061,
            depth: 4,
            payload: payload.map(|p| p.to_vec()),
        }
    }

    #[test]
    fn json_round_trips_arbitrary_bytes() {
        let payloads: [&[u8]; 5] = [
            b"<k>plain</k>",
            b"quote \" backslash \\ slash / done",
            b"control \n\r\t\x00\x1f",
            &[0x80, 0xff, 0xc3, 0xa9],
            b"",
        ];
        for p in payloads {
            let f = frame(Some(p));
            let line = f.to_json();
            assert!(line.ends_with('\n'));
            assert!(line.is_ascii(), "wire JSON must be ASCII: {line:?}");
            assert_eq!(Frame::decode_json(&line).unwrap(), f);
        }
        let f = frame(None);
        assert!(f.to_json().contains("\"payload\":null"));
        assert_eq!(Frame::decode_json(&f.to_json()).unwrap(), f);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Frame::decode_json("").is_err());
        assert!(Frame::decode_json("{\"stream\":1").is_err());
        assert!(Frame::decode_json("{\"bogus\":1}").is_err());
        assert!(Frame::decode_json("{\"stream\":1}x").is_err());
        assert!(Frame::decode_json("{\"payload\":\"\\u0100\"}").is_err());
        // u32 fields must not wrap.
        let line = frame(None).to_json().replace("\"query\":2", "\"query\":4294967296");
        match Frame::decode_json(&line) {
            Err(WireError::Json(msg)) => assert!(msg.contains("query"), "{msg}"),
            other => panic!("expected a u32 overflow error, got {other:?}"),
        }
    }

    #[test]
    fn json_rejects_incomplete_frames() {
        // A truncated line must not decode as an all-zero frame.
        assert!(Frame::decode_json("{}").is_err());
        assert!(Frame::decode_json("{\"stream\":1}").is_err());
        let missing_payload = "{\"stream\":1,\"query\":0,\"start\":2,\"end\":3,\"depth\":1}";
        match Frame::decode_json(missing_payload) {
            Err(WireError::Json(msg)) => assert!(msg.contains("payload"), "{msg}"),
            other => panic!("expected a missing-field error, got {other:?}"),
        }
    }

    #[test]
    fn binary_round_trips_across_split_reads() {
        let frames = vec![frame(Some(b"<a>1</a>")), frame(None), frame(Some(&[0u8, 255, 10]))];
        let mut encoded = Vec::new();
        for f in &frames {
            f.encode_binary(&mut encoded);
        }
        for step in [1usize, 2, 3, 7, encoded.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in encoded.chunks(step) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, frames, "step {step}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn binary_rejects_bad_headers() {
        let mut dec = FrameDecoder::new();
        dec.push(&5u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::BadLength(5)));

        // An attacker-controlled length above the ceiling fails fast instead
        // of buffering gigabytes for a frame that never completes.
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::BadLength(u32::MAX)));
        let mut dec = FrameDecoder::new().with_max_frame(64);
        dec.push(&65u32.to_le_bytes());
        assert_eq!(dec.next_frame(), Err(WireError::BadLength(65)));

        let mut dec = FrameDecoder::new();
        let mut buf = Vec::new();
        frame(None).encode_binary(&mut buf);
        let flags_at = 4 + BIN_HEADER - 1;
        buf[flags_at] = 0x82;
        dec.push(&buf);
        assert_eq!(dec.next_frame(), Err(WireError::BadFlags(0x82)));
    }

    #[test]
    fn finish_distinguishes_clean_eof_from_truncation() {
        let mut encoded = Vec::new();
        frame(Some(b"<a>1</a>")).encode_binary(&mut encoded);

        // Whole frame delivered: clean EOF.
        let mut dec = FrameDecoder::new();
        dec.push(&encoded);
        assert!(dec.next_frame().unwrap().is_some());
        assert_eq!(dec.finish(), Ok(()));

        // Connection cut mid-frame: next_frame politely waits forever —
        // finish() must flag the half-written tail.
        let mut dec = FrameDecoder::new();
        dec.push(&encoded[..encoded.len() - 3]);
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.finish(), Err(WireError::Truncated { buffered: encoded.len() - 3 }));

        // Even a partial length prefix counts.
        let mut dec = FrameDecoder::new();
        dec.push(&encoded[..2]);
        assert_eq!(dec.finish(), Err(WireError::Truncated { buffered: 2 }));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn oversized_query_index_is_refused_not_truncated() {
        let m = crate::sink::MaterializedMatch {
            stream: 1,
            m: crate::OnlineMatch { query: (u32::MAX as usize) + 1, start: 0, end: 4, depth: 1 },
            payload: None,
        };
        match Frame::try_from_match(m.clone()) {
            Err(WireError::Overflow { field: "query", value }) => {
                assert_eq!(value, (u32::MAX as u64) + 1);
            }
            other => panic!("expected an overflow error, got {other:?}"),
        }
        // And the sink latches it instead of writing a wrapped frame.
        let mut sink = WireSink::new(Vec::new(), WireFormat::Binary);
        assert!(!sink.on_match(m));
        let (out, err) = sink.into_parts();
        assert!(out.is_empty());
        assert_eq!(err.unwrap().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn handshake_round_trips_at_any_fragmentation() {
        let req = HandshakeRequest::new(WireFormat::Binary)
            .query("/a/b/c")
            .query("//k[d/e]")
            .retain_bytes(1 << 20)
            .stream_id(42);
        let mut encoded = req.encode();
        encoded.extend_from_slice(b"<stream>the xml follows immediately");
        for step in [1usize, 2, 3, 5, 8, encoded.len()] {
            let mut dec = HandshakeDecoder::new();
            let mut got = None;
            for piece in encoded.chunks(step) {
                if let Some(r) = dec.push(piece).unwrap() {
                    assert!(got.is_none(), "the request completes exactly once");
                    got = Some(r);
                }
            }
            assert_eq!(got.as_ref(), Some(&req), "step {step}");
            assert_eq!(dec.take_remainder(), b"<stream>the xml follows immediately", "step {step}");
        }
    }

    #[test]
    fn stats_handshake_completes_without_go_and_round_trips() {
        let req = HandshakeRequest::stats();
        let encoded = req.encode();
        assert_eq!(encoded, b"PPT/1 json\nSTATS\n");
        for step in [1usize, 3, encoded.len()] {
            let mut dec = HandshakeDecoder::new();
            let mut got = None;
            for piece in encoded.chunks(step) {
                if let Some(r) = dec.push(piece).unwrap() {
                    got = Some(r);
                }
            }
            let got = got.expect("STATS completes the handshake by itself");
            assert!(got.stats, "step {step}");
            assert!(got.queries.is_empty());
            assert_eq!(got, req);
        }
    }

    #[test]
    fn stats_mixed_with_session_verbs_is_rejected() {
        for bytes in [
            &b"PPT/1 json\nQUERY //a\nSTATS\n"[..],
            &b"PPT/1 json\nRETAIN 1024\nSTATS\n"[..],
            &b"PPT/1 json\nSTREAM 7\nSTATS\n"[..],
        ] {
            let mut dec = HandshakeDecoder::new();
            assert_eq!(dec.push(bytes).unwrap_err(), HandshakeError::StatsConflict);
        }
        // The other order too: STATS completes the handshake, so a QUERY
        // after it is stream remainder, not a verb — the conflict can only
        // arise with session verbs first.
        let mut dec = HandshakeDecoder::new();
        let req = dec.push(b"PPT/1 json\nSTATS\nQUERY //a\n").unwrap().unwrap();
        assert!(req.stats);
        assert_eq!(dec.take_remainder(), b"QUERY //a\n");
    }

    #[test]
    fn handshake_rejects_malformed_lines_with_structured_errors() {
        let cases: [(&[u8], HandshakeError); 7] = [
            (b"HTTP/1.1 GET /\n", HandshakeError::BadVersion("HTTP/1.1 GET /".into())),
            (b"PPT/1 xml\n", HandshakeError::BadFormat("xml".into())),
            (b"PPT/1 json\nFETCH //a\n", HandshakeError::UnknownCommand("FETCH".into())),
            (
                b"PPT/1 json\nRETAIN lots\n",
                HandshakeError::BadArgument { command: "RETAIN", value: "lots".into() },
            ),
            (b"PPT/1 json\nGO\n", HandshakeError::NoQueries),
            (b"PPT/1 json\nQUERY \xff\xfe\n", HandshakeError::NotUtf8),
            (
                b"PPT/1 json\nSTREAM 4503599627370496\n",
                HandshakeError::ReservedStreamId { id: 1 << 52 },
            ),
        ];
        for (bytes, expected) in cases {
            let mut dec = HandshakeDecoder::new();
            assert_eq!(dec.push(bytes).unwrap_err(), expected);
            // The error latches.
            assert_eq!(dec.push(b"QUERY //a\nGO\n").unwrap_err(), expected);
        }

        // Limits: an endless line and a query flood both fail fast.
        let mut dec = HandshakeDecoder::with_limits(16, 4);
        assert_eq!(dec.push(&[b'x'; 64]).unwrap_err(), HandshakeError::LineTooLong { limit: 16 });
        let mut dec = HandshakeDecoder::with_limits(1024, 2);
        assert_eq!(
            dec.push(b"PPT/1 json\nQUERY //a\nQUERY //b\nQUERY //c\n").unwrap_err(),
            HandshakeError::TooManyQueries { limit: 2 }
        );
    }

    #[test]
    fn handshake_line_floods_are_bounded_in_lines_and_memory() {
        // Blank lines and repeated options are each individually legal; a
        // client streaming them forever must hit the total-line budget, and
        // the decoder must not accumulate the consumed lines meanwhile.
        let mut dec = HandshakeDecoder::with_limits(64, 4);
        let flood: Vec<u8> = b"\n".repeat(1000);
        match dec.push(&flood) {
            Err(HandshakeError::TooManyLines { limit }) => assert_eq!(limit, 4 + 16),
            other => panic!("expected a line-budget rejection, got {other:?}"),
        }

        // A legitimate multi-push handshake compacts as it goes: buffered
        // memory stays bounded by roughly one line, not the handshake size.
        let mut dec = HandshakeDecoder::with_limits(64, 8);
        let mut lines: Vec<u8> = b"PPT/1 json\n".to_vec();
        for i in 0..7 {
            lines.extend_from_slice(format!("QUERY //q{i}\n").as_bytes());
        }
        let mut parsed = None;
        for piece in lines.chunks(5) {
            assert!(dec.buf.len() <= 128, "consumed lines must be compacted away");
            if let Some(req) = dec.push(piece).unwrap() {
                parsed = Some(req);
            }
        }
        assert!(parsed.is_none());
        assert_eq!(dec.push(b"GO\n").unwrap().unwrap().queries.len(), 7);
    }

    #[test]
    fn handshake_reply_round_trips() {
        let ok = HandshakeReply::Accepted { stream: 42, queries: vec![0, 1, 2] };
        assert_eq!(ok.encode(), "OK STREAM 42 0 1 2\n");
        assert_eq!(HandshakeReply::decode(&ok.encode()).unwrap(), ok);

        // The pre-assignment reply form still decodes (stream defaults 0).
        assert_eq!(
            HandshakeReply::decode("OK 0 1 2").unwrap(),
            HandshakeReply::Accepted { stream: 0, queries: vec![0, 1, 2] }
        );

        let err = HandshakeReply::Rejected("bad\nquery".into());
        assert_eq!(err.encode(), "ERR bad query\n", "rejection must stay one line");
        assert_eq!(
            HandshakeReply::decode(&err.encode()).unwrap(),
            HandshakeReply::Rejected("bad query".into())
        );

        let attach = HandshakeReply::Attached { stream: 42, queries: vec![0, 1] };
        assert_eq!(attach.encode(), "OK ATTACH 42 0 1\n");
        assert_eq!(HandshakeReply::decode(&attach.encode()).unwrap(), attach);
        // Attaching with zero queries is not a thing, but the line form is
        // symmetric with STREAM and must still round-trip.
        assert_eq!(
            HandshakeReply::decode("OK ATTACH 7").unwrap(),
            HandshakeReply::Attached { stream: 7, queries: Vec::new() }
        );

        assert!(HandshakeReply::decode("HELLO").is_err());
        assert!(HandshakeReply::decode("OK one two").is_err());
        assert!(HandshakeReply::decode("OK STREAM").is_err());
        assert!(HandshakeReply::decode("OK STREAM nope 0").is_err());
        assert!(HandshakeReply::decode("OK ATTACH").is_err());
        assert!(HandshakeReply::decode("OK ATTACH x 0").is_err());
    }

    #[test]
    fn explicit_stream_zero_survives_the_handshake_round_trip() {
        // `STREAM 0` must be carried, not silently dropped: an explicit
        // request for stream 0 and "no request" are different things now
        // that unset ids are server-assigned.
        let req = HandshakeRequest::new(WireFormat::JsonLines).query("//a").stream_id(0);
        let encoded = req.encode();
        assert!(
            String::from_utf8_lossy(&encoded).contains("STREAM 0\n"),
            "explicit stream 0 must be emitted: {:?}",
            String::from_utf8_lossy(&encoded)
        );
        let mut dec = HandshakeDecoder::new();
        let parsed = dec.push(&encoded).unwrap().expect("complete");
        assert_eq!(parsed.stream_id, Some(0));

        // And an omitted STREAM line decodes as None, not 0.
        let req = HandshakeRequest::new(WireFormat::JsonLines).query("//a");
        let mut dec = HandshakeDecoder::new();
        let parsed = dec.push(&req.encode()).unwrap().expect("complete");
        assert_eq!(parsed.stream_id, None);
    }

    #[test]
    fn wire_sink_latches_write_errors() {
        struct FailAfter(usize);
        impl Write for FailAfter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0 == 0 {
                    return Err(std::io::Error::other("wire down"));
                }
                self.0 -= 1;
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut sink = WireSink::new(FailAfter(1), WireFormat::JsonLines);
        let m = crate::sink::MaterializedMatch {
            stream: 1,
            m: crate::OnlineMatch { query: 0, start: 0, end: 4, depth: 1 },
            payload: Some(b"<a/>".to_vec()),
        };
        assert!(sink.on_match(m.clone()));
        assert!(!sink.on_match(m.clone()), "write error must refuse the frame");
        assert!(!sink.on_match(m), "the error latches");
        assert_eq!(sink.frames, 1);
        let (_, err) = sink.into_parts();
        assert!(err.is_some());
    }
}
