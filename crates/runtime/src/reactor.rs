//! The event-driven ingest layer: one `poll(2)` loop drives every
//! connection.
//!
//! This is the engine room of [`crate::serve::TcpServer`]: a **reactor**,
//! one ingest thread that multiplexes all connections over nonblocking
//! sockets, so it can feed thousands of slow network streams into the
//! runtime's worker pool and the thread count is flat in the number of
//! clients. It owns the sockets — accept, handshake, feeding,
//! egress — and nothing else: the handshake grammar, the credit scheme, the
//! retention ring and the wire framing are the same code the in-process
//! runtime uses.
//!
//! ```text
//!                    ┌────────────── ingest thread (poll loop) ─────────────┐
//!  client sockets ──►│ Conn: Handshaking ─► Streaming ─► Draining           │
//!                    │   readable ─► HandshakeDecoder / Feeder (nonblocking)│
//!                    │   writable ◄─ per-conn outbox (bounded)              │
//!                    └──────────┬───────────────────────────▲───────────────┘
//!                    chunk jobs, fold jobs               framed matches,
//!                               ▼                        one wake per chunk
//!                      shared WorkerPool: transduce ─► fold/resolve/filter
//! ```
//!
//! Design points:
//!
//! * **No blocking anywhere on the ingest thread.** The `Feeder` never
//!   blocks: a chunk that cannot get an in-flight credit stays pending and
//!   the connection's `POLLIN` interest is dropped — the kernel's socket
//!   buffer, and eventually the client, absorb the backpressure. A credit
//!   return fires `SessionEvents::on_credit`; the fold that returned it
//!   wakes the loop through an `eventfd(2)`, and the read re-arms.
//! * **No thread for the join side at all.** The joiner state machine
//!   (`JoinerState`) lives in a `JoinTask`, a fold job on the runtime's one
//!   worker pool: a delivered chunk queues it, and a worker runs
//!   `try_take → fold_one` steps until the mailbox runs dry. A session
//!   whose outbox is over its byte cap is parked (`stalled_on_outbox`)
//!   until the reactor drains the socket below the cap and queues the job
//!   again — so a slow client stalls *its own* fold frontier, which holds
//!   its credits, which pauses its reads: backpressure propagates through
//!   the retention ring exactly as in the in-process pipeline. A fold wakes
//!   the poll loop once per folded chunk — frames and credit — and per
//!   frame only while an outbox holds 64 KiB: the one wake fd and a
//!   poll set rebuilt each round arm `POLLOUT` on every outbox with bytes.
//! * **Dependency-free.** `poll(2)` and `eventfd(2)` are declared directly
//!   via `extern "C"` (the same offline-shim spirit as `shims/`): no
//!   crates.io, no async runtime. On non-Linux Unix the wake-up fd falls
//!   back to a loopback `UdpSocket` pair — same poll semantics, std only.
//!
//! The public surface is [`crate::serve::TcpServer`] and its builder; the
//! event loop's own accounting surfaces as [`ReactorStats`] in the server's
//! stats.

use crate::pool::{lock_recover, Fold, PoolShared, SessionCore, SessionEvents, TryTake};
use crate::serve::{ConnectionReport, ServeTelemetry, Shared};
use crate::session::{joiner_panicked, Feeder, JoinerState, SessionReport};
use crate::sink::{BorrowedMatch, Materializer, PayloadRef, PayloadSink};
use crate::stats::{ReactorStats, RuntimeStats};
use crate::subscribe::{
    shared_stream_parts, AttachError, FanoutSink, StreamControl, SubscriberDelivery, SubscriberId,
    SubscriberReport, SubscriberSink,
};
use crate::telemetry::EventKind;
use crate::wire::{
    FrameRef, FrameWrite, HandshakeDecoder, HandshakeReply, WireFormat, WireSink,
    DEFAULT_MAX_HANDSHAKE_LINE,
};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

// ---------------------------------------------------------------------------
// poll(2) / eventfd(2) FFI
// ---------------------------------------------------------------------------

/// `struct pollfd` — identical layout on every supported Unix.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct PollFd {
    pub fd: RawFd,
    pub events: i16,
    pub revents: i16,
}

const POLLIN: i16 = 0x001;
const POLLOUT: i16 = 0x004;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;
const POLLNVAL: i16 = 0x020;

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// `struct iovec` — identical layout on every supported Unix; the
/// scatter-gather unit of the vectored outbox drain.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
struct IoVec {
    iov_base: *const std::ffi::c_void,
    iov_len: usize,
}

/// Upper bound on iovec entries gathered per `writev(2)` call — well under
/// `IOV_MAX` (1024 on Linux) while still batching dozens of frames per
/// syscall.
const MAX_IOVEC: usize = 64;

/// Queued outbox bytes past which each frame a fold adds wakes the poll loop
/// at once, not at the end of its chunk: a chunk of dense matches then drains
/// while it folds instead of piling up, and pinning windows, behind it.
const DRAIN_BYTES: usize = 64 << 10;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
    fn writev(fd: RawFd, iov: *const IoVec, iovcnt: std::ffi::c_int) -> isize;
    #[cfg(target_os = "linux")]
    fn eventfd(initval: std::ffi::c_uint, flags: std::ffi::c_int) -> std::ffi::c_int;
}

/// Blocks in `poll(2)` until a registered fd is ready or `timeout_ms`
/// elapses (`-1` = forever). Returns the number of ready fds; retries
/// `EINTR` internally.
fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> std::io::Result<usize> {
    loop {
        // SAFETY: `fds` is a valid, exclusively borrowed slice of `pollfd`-
        // layout structs; the kernel writes only the `revents` fields.
        let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
        if rc >= 0 {
            // CAST-OK: `rc >= 0` just checked; a non-negative c_int always
            // fits usize.
            return Ok(rc as usize);
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// A cross-thread wake-up fd for the poll loop: `wake()` from any thread
/// makes the fd readable, `drain()` resets it. `eventfd(2)` on Linux, a
/// connected loopback UDP pair elsewhere.
struct WakeFd {
    #[cfg(target_os = "linux")]
    event: std::fs::File,
    #[cfg(not(target_os = "linux"))]
    rx: std::net::UdpSocket,
    #[cfg(not(target_os = "linux"))]
    tx: std::net::UdpSocket,
    deferred: AtomicBool,
}

impl WakeFd {
    #[cfg(target_os = "linux")]
    pub fn new() -> std::io::Result<WakeFd> {
        const EFD_CLOEXEC: std::ffi::c_int = 0o2000000;
        const EFD_NONBLOCK: std::ffi::c_int = 0o4000;
        // SAFETY: eventfd takes two plain integers and returns an owned fd
        // (or -1); the fd is immediately wrapped in a File that closes it.
        let fd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: `fd` is a freshly created eventfd we exclusively own.
        let event = unsafe { std::os::unix::io::FromRawFd::from_raw_fd(fd) };
        Ok(WakeFd { event, deferred: AtomicBool::new(false) })
    }

    #[cfg(not(target_os = "linux"))]
    pub fn new() -> std::io::Result<WakeFd> {
        let rx = std::net::UdpSocket::bind("127.0.0.1:0")?;
        let tx = std::net::UdpSocket::bind("127.0.0.1:0")?;
        tx.connect(rx.local_addr()?)?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        Ok(WakeFd { rx, tx, deferred: AtomicBool::new(false) })
    }

    /// Makes the fd readable. Never blocks; a saturated counter (`EAGAIN`)
    /// already means a wake-up is pending.
    pub fn wake(&self) {
        #[cfg(target_os = "linux")]
        {
            let _ = (&self.event).write(&1u64.to_ne_bytes());
        }
        #[cfg(not(target_os = "linux"))]
        {
            let _ = self.tx.send(&[1u8]);
        }
    }

    /// Notes work for the loop (queued bytes, a credit) for the next flush;
    /// Release pairs with its AcqRel swap, so the loop it wakes sees the work.
    pub fn defer(&self) {
        self.deferred.store(true, Ordering::Release);
    }

    /// Wakes the loop once if anything was deferred since the last flush.
    pub fn flush(&self) {
        if self.deferred.swap(false, Ordering::AcqRel) {
            self.wake();
        }
    }

    /// Consumes pending wake-ups so the fd stops reporting readable.
    pub fn drain(&self) {
        #[cfg(target_os = "linux")]
        {
            let mut buf = [0u8; 8];
            let _ = (&self.event).read(&mut buf);
        }
        #[cfg(not(target_os = "linux"))]
        {
            let mut buf = [0u8; 16];
            while self.rx.recv(&mut buf).is_ok() {}
        }
    }

    pub fn raw_fd(&self) -> RawFd {
        #[cfg(target_os = "linux")]
        {
            self.event.as_raw_fd()
        }
        #[cfg(not(target_os = "linux"))]
        {
            self.rx.as_raw_fd()
        }
    }
}

// ---------------------------------------------------------------------------
// Reactor-level accounting
// ---------------------------------------------------------------------------

/// Shared atomic counters behind [`ReactorStats`].
#[derive(Debug, Default)]
pub(crate) struct ReactorCounters {
    registered_fds: AtomicUsize,
    peak_registered_fds: AtomicUsize,
    polls: AtomicU64,
    wakeups: AtomicU64,
    readiness_dispatches: AtomicU64,
    peak_outbox_bytes: AtomicUsize,
}

impl ReactorCounters {
    fn fd_registered(&self) {
        // RELAXED-OK: live gauge + high-watermark stat; order nothing.
        let now = self.registered_fds.fetch_add(1, Ordering::Relaxed) + 1;
        // RELAXED-OK: racy high-watermark stat; orders nothing.
        self.peak_registered_fds.fetch_max(now, Ordering::Relaxed);
    }

    fn fd_unregistered(&self) {
        // RELAXED-OK: live gauge; orders nothing.
        self.registered_fds.fetch_sub(1, Ordering::Relaxed);
    }

    pub fn snapshot(&self) -> ReactorStats {
        // RELAXED-OK (whole group): stat snapshot of independent event-loop
        // counters; each field is self-consistent and staleness is fine.
        ReactorStats {
            // RELAXED-OK: stat snapshot (see group note above).
            registered_fds: self.registered_fds.load(Ordering::Relaxed),
            // RELAXED-OK: stat snapshot (see group note above).
            peak_registered_fds: self.peak_registered_fds.load(Ordering::Relaxed),
            // RELAXED-OK: stat snapshot (see group note above).
            polls: self.polls.load(Ordering::Relaxed),
            // RELAXED-OK: stat snapshot (see group note above).
            wakeups: self.wakeups.load(Ordering::Relaxed),
            // RELAXED-OK: stat snapshot (see group note above).
            readiness_dispatches: self.readiness_dispatches.load(Ordering::Relaxed),
            // RELAXED-OK: stat snapshot (see group note above).
            peak_outbox_bytes: self.peak_outbox_bytes.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The per-connection outbox
// ---------------------------------------------------------------------------

/// The bounded per-connection egress buffer: a fold job appends framed
/// matches (through [`OutboxWriter`] → [`WireSink`]), the reactor
/// drains it to the socket on `POLLOUT`.
///
/// The byte cap is a *soft* cap enforced at fold granularity: the fold job
/// checks it before every step, so the buffer can overshoot by one chunk's
/// worth of frames in steady state — and a stalled fold holds the session's
/// credits, which is the backpressure path. The one larger excursion is the
/// end-of-stream flush (matches buffered in unclosed predicate scopes are
/// emitted in a single `finalize`), whose size is bounded by the filter
/// bank's buffered matches — state the session already holds, so the flush
/// adds one bounded copy, not a new unbounded class.
#[derive(Debug)]
pub(crate) struct OutboxShared {
    buf: Mutex<OutboxBuf>,
    cap: usize,
    counters: Arc<ReactorCounters>,
    telemetry: Arc<ServeTelemetry>,
}

/// One egress segment: either bytes the outbox owns (frame headers, JSON
/// fallback frames, handshake replies) or a payload *borrowed* from the
/// retention ring. Dropping a `Borrowed` segment is what releases the
/// window refcounts — which the drain loop does only once the socket has
/// accepted every byte of the segment.
#[derive(Debug)]
enum Seg {
    Owned(Vec<u8>),
    Borrowed(PayloadRef),
}

impl Seg {
    fn len(&self) -> usize {
        match self {
            Seg::Owned(bytes) => bytes.len(),
            Seg::Borrowed(payload) => payload.len(),
        }
    }
}

#[derive(Debug, Default)]
struct OutboxBuf {
    /// Pending segments in wire order. The front segment may be partially
    /// written ([`OutboxBuf::front_written`] bytes already on the socket).
    segs: VecDeque<Seg>,
    /// Bytes of the front segment already accepted by the socket
    /// (invariant: strictly less than the front segment's length —
    /// fully-drained segments are popped eagerly).
    front_written: usize,
    /// Total bytes queued and not yet written — owned *and* borrowed, so
    /// the cap check sees the retention bytes a slow client is pinning.
    queued: usize,
    /// Latched when the socket write side died: further frames are refused
    /// (the `WireSink` latches the error and the runtime counts drops).
    closed: bool,
    /// When the buffer went from empty to non-empty: the start of the
    /// residency interval recorded once the socket drains it empty again.
    oldest_pending: Option<Instant>,
}

impl OutboxBuf {
    /// Appends owned bytes, merging into a trailing `Owned` segment so
    /// back-to-back small writes don't fragment the iovec list.
    fn push_owned(&mut self, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        match self.segs.back_mut() {
            Some(Seg::Owned(bytes)) => bytes.extend_from_slice(data),
            _ => self.segs.push_back(Seg::Owned(data.to_vec())),
        }
    }
}

impl OutboxShared {
    fn new(
        cap: usize,
        counters: Arc<ReactorCounters>,
        telemetry: Arc<ServeTelemetry>,
    ) -> Arc<OutboxShared> {
        Arc::new(OutboxShared { buf: Mutex::new(OutboxBuf::default()), cap, counters, telemetry })
    }

    /// Bytes queued and not yet written to the socket — borrowed payload
    /// bytes included, so `over_cap` (hence `max_outbox_bytes`) bounds the
    /// retention a stalled reader can pin, not just its header traffic.
    fn len(&self) -> usize {
        lock_recover(&self.buf).0.queued
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn over_cap(&self) -> bool {
        self.len() >= self.cap
    }

    /// Appends raw owned bytes (the handshake reply takes this path
    /// directly; frames go through [`OutboxWriter`]).
    fn push(&self, data: &[u8]) -> std::io::Result<()> {
        let mut b = lock_recover(&self.buf).0;
        if b.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client connection closed",
            ));
        }
        if b.queued == 0 {
            b.oldest_pending = Some(Instant::now());
        }
        b.push_owned(data);
        b.queued += data.len();
        let len = b.queued;
        drop(b);
        self.telemetry.bytes_copied.add(data.len() as u64);
        // RELAXED-OK: racy high-watermark stat; orders nothing.
        self.counters.peak_outbox_bytes.fetch_max(len, Ordering::Relaxed);
        Ok(())
    }

    /// Appends one frame: copied head, borrowed payload (refcount handoff —
    /// no byte copy), copied tail. The borrowed bytes count against the cap
    /// exactly like owned ones.
    fn push_frame(&self, frame: FrameRef<'_>) -> std::io::Result<()> {
        let total = frame.len();
        let mut copied = frame.head.len() + frame.tail.len();
        let mut b = lock_recover(&self.buf).0;
        if b.closed {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "client connection closed",
            ));
        }
        if b.queued == 0 && total > 0 {
            b.oldest_pending = Some(Instant::now());
        }
        b.push_owned(frame.head);
        match frame.payload {
            Some(payload) if !payload.is_empty() => b.segs.push_back(Seg::Borrowed(payload)),
            // An empty borrow carries no bytes; count it as (zero) copies.
            _ => copied = total,
        }
        b.push_owned(frame.tail);
        b.queued += total;
        let len = b.queued;
        drop(b);
        self.telemetry.bytes_copied.add(copied as u64);
        self.telemetry.bytes_borrowed.add((total - copied) as u64);
        // RELAXED-OK: racy high-watermark stat; orders nothing.
        self.counters.peak_outbox_bytes.fetch_max(len, Ordering::Relaxed);
        Ok(())
    }

    /// Writes as much buffered data as the socket accepts right now using
    /// vectored I/O — one `writev(2)` per batch of up to [`MAX_IOVEC`]
    /// segment slices, so a borrowed payload goes kernel-ward straight from
    /// the retention windows with no intermediate copy. Returns the bytes
    /// actually written. Callers treat `written > 0` as socket progress —
    /// comparing queue lengths before/after would miss progress whenever a
    /// concurrently running fold refills the outbox mid-drain.
    ///
    /// A short write may stop mid-iovec (even mid-slice); the cursor
    /// ([`OutboxBuf::front_written`]) records how far into the front segment
    /// the socket got, and the next gather skips exactly that many bytes.
    fn drain_to(&self, stream: &mut TcpStream) -> std::io::Result<usize> {
        let mut b = lock_recover(&self.buf).0;
        let mut written = 0usize;
        let fd = stream.as_raw_fd();
        loop {
            if b.queued == 0 {
                // Drained empty: drop any residual fully-written state and
                // close the residency interval opened when the buffer last
                // went non-empty.
                if let Some(since) = b.oldest_pending.take() {
                    self.telemetry.outbox_residency_nanos.record_duration(since.elapsed());
                }
                return Ok(written);
            }
            // Gather up to MAX_IOVEC slices, skipping the front-segment
            // bytes the socket already accepted.
            let mut iov = [IoVec { iov_base: std::ptr::null(), iov_len: 0 }; MAX_IOVEC];
            let mut count = 0usize;
            let mut skip = b.front_written;
            'gather: for seg in &b.segs {
                match seg {
                    Seg::Owned(bytes) => {
                        let slice = &bytes[skip.min(bytes.len())..];
                        skip = skip.saturating_sub(bytes.len());
                        if !slice.is_empty() {
                            if count == MAX_IOVEC {
                                break 'gather;
                            }
                            iov[count] =
                                IoVec { iov_base: slice.as_ptr().cast(), iov_len: slice.len() };
                            count += 1;
                        }
                    }
                    Seg::Borrowed(payload) => {
                        for slice in payload.slices() {
                            let take = &slice[skip.min(slice.len())..];
                            skip = skip.saturating_sub(slice.len());
                            if take.is_empty() {
                                continue;
                            }
                            if count == MAX_IOVEC {
                                break 'gather;
                            }
                            iov[count] =
                                IoVec { iov_base: take.as_ptr().cast(), iov_len: take.len() };
                            count += 1;
                        }
                    }
                }
            }
            if count == 0 {
                // queued > 0 but nothing to gather would spin the reactor
                // forever on POLLOUT: fail the connection loudly instead.
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "outbox byte accounting desynced from segments",
                ));
            }
            // SAFETY: every iovec points into a slice owned by a segment of
            // `b.segs`; the mutex guard held across the call keeps those
            // segments alive and unmoved, and only the first `count <=
            // MAX_IOVEC` entries (all initialized above) are passed.
            // CAST-OK: `count <= MAX_IOVEC = 64` fits c_int.
            let rc = unsafe { writev(fd, iov.as_ptr(), count as std::ffi::c_int) };
            if rc < 0 {
                // FFI-OK: negative return checked here; errno mapped below.
                let e = std::io::Error::last_os_error();
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted
                {
                    return Ok(written);
                }
                return Err(e);
            }
            if rc == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ));
            }
            // CAST-OK: rc > 0 just checked; a positive isize fits usize.
            let mut n = rc as usize;
            written += n;
            // Advance the cursor, popping fully-drained segments — popping
            // a Borrowed segment drops its PayloadRef, which is the moment
            // the window refcounts are released.
            while n > 0 {
                let Some(front) = b.segs.front() else { break };
                let remaining = front.len() - b.front_written;
                if n >= remaining {
                    b.segs.pop_front();
                    b.front_written = 0;
                    b.queued -= remaining;
                    n -= remaining;
                } else {
                    b.front_written += n;
                    b.queued -= n;
                    n = 0;
                }
            }
        }
    }

    /// Latches the write failure: pending segments are discarded — dropping
    /// every borrowed payload, so a dead or poisoned connection releases its
    /// retention refcounts immediately — and further pushes are refused, so
    /// a dead client cannot accumulate frames.
    fn close_and_clear(&self) {
        let mut b = lock_recover(&self.buf).0;
        b.closed = true;
        b.segs = VecDeque::new();
        b.front_written = 0;
        b.queued = 0;
        b.oldest_pending = None;
    }

    /// Number of pending `Borrowed` segments (refcount-lifecycle tests).
    #[cfg(test)]
    fn borrowed_segments(&self) -> usize {
        lock_recover(&self.buf).0.segs.iter().filter(|s| matches!(s, Seg::Borrowed(_))).count()
    }
}

/// The adapter that lets a [`WireSink`] frame matches straight into a
/// connection's outbox: the [`Write`] impl carries the copying path (and the
/// `W: Write` struct bound), the [`FrameWrite`] impl carries the zero-copy
/// frame path ([`WireSink::new_vectored`] wires both to the same outbox).
#[derive(Debug)]
pub(crate) struct OutboxWriter {
    outbox: Arc<OutboxShared>,
}

impl Write for OutboxWriter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.outbox.push(data)?;
        Ok(data.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl FrameWrite for OutboxWriter {
    fn write_frame(&mut self, frame: FrameRef<'_>) -> std::io::Result<()> {
        self.outbox.push_frame(frame)
    }
}

// ---------------------------------------------------------------------------
// Shared-stream subscriber sinks
// ---------------------------------------------------------------------------

/// What a connection's accounting needs back from its boxed-away subscriber
/// sink once the stream ends.
#[derive(Default)]
struct SinkDone {
    frames: u64,
    bytes_out: u64,
    write_error: Option<std::io::Error>,
    report: Option<SubscriberReport>,
}

/// A subscriber whose frames go straight into a connection's outbox — used
/// for the stream owner (lossless: the fold parks on the owner's full
/// outbox before folding, so nothing is ever shed) and for late attachers
/// (shedding: a subscriber whose client stops draining loses *its own*
/// matches, never stalls the shared pipeline).
///
/// Runs in a fold job on a worker, never the ingest thread. Below
/// [`DRAIN_BYTES`] a delivery only defers a wake-up; the fold job flushes it
/// once per folded chunk, and that one wake arms POLLOUT for every outbox
/// the chunk's frames reached.
struct OutboxSubscriber {
    sink: Option<WireSink<OutboxWriter>>,
    outbox: Arc<OutboxShared>,
    done: Arc<Mutex<SinkDone>>,
    signal: Arc<ConnSignal>,
    /// `true` for late attachers: a full outbox drops the match instead of
    /// letting the fold park on it.
    shed_when_full: bool,
}

impl SubscriberSink for OutboxSubscriber {
    fn deliver(&mut self, m: BorrowedMatch) -> SubscriberDelivery {
        let Some(sink) = self.sink.as_mut() else { return SubscriberDelivery::Dropped };
        if self.shed_when_full && self.outbox.over_cap() {
            return SubscriberDelivery::Dropped;
        }
        let accepted = sink.on_match_borrowed(m);
        if self.outbox.len() >= DRAIN_BYTES {
            self.signal.wake.wake();
        } else {
            self.signal.wake.defer();
        }
        if accepted {
            SubscriberDelivery::Delivered
        } else if self.shed_when_full {
            // The outbox latched closed (dead socket): stop fanning out to
            // this subscriber entirely.
            SubscriberDelivery::Detach
        } else {
            // Owner semantics mirror the direct path: a dead client's
            // frames count as drops while its session runs to completion
            // unobserved.
            SubscriberDelivery::Dropped
        }
    }

    fn end(&mut self, report: SubscriberReport) {
        let (mut done, _) = lock_recover(&self.done);
        if let Some(sink) = self.sink.take() {
            done.frames = sink.frames;
            done.bytes_out = sink.bytes_out;
            let (_writer, err) = sink.into_parts();
            done.write_error = err;
        }
        done.report = Some(report);
        drop(done);
        self.signal.done.store(true, Ordering::Release);
        self.signal.wake.wake();
    }
}

/// A connection attached to another connection's shared stream: no feeder,
/// no join task — just a subscriber registration whose frames land in this
/// connection's outbox.
struct SubscriberConn {
    control: Arc<StreamControl>,
    id: SubscriberId,
    done: Arc<Mutex<SinkDone>>,
}

// ---------------------------------------------------------------------------
// The fold job
// ---------------------------------------------------------------------------

// `JoinTask::sched`: not queued; in the pool's fold queue; running;
// running, and queued again by progress made since the run started.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RERUN: u8 = 3;

/// One session's joiner, packaged as a fold job for the runtime's workers.
pub(crate) struct JoinTask {
    core: Arc<SessionCore>,
    inner: Mutex<JoinTaskInner>,
    /// The run-queue dedupe: progress during a run marks it `RERUN` instead of
    /// queueing twice, so no wake-up is lost and no two workers run one fold.
    sched: AtomicU8,
    /// Set when the fold parked on a full outbox; the reactor clears it and
    /// queues the fold again after draining the socket.
    stalled_on_outbox: AtomicBool,
    outbox: Arc<OutboxShared>,
    signal: Arc<ConnSignal>,
    /// The runtime's worker pool, where the fold runs.
    pool: Arc<PoolShared>,
}

struct JoinTaskInner {
    /// `None` once finalized.
    state: Option<JoinerState>,
    /// Every served stream is a shared stream: the joiner fans matches out
    /// through the subscription layer, and the owner connection is
    /// subscriber 0 with a lossless outbox-writing sink.
    sink: Materializer<FanoutSink>,
    /// The stream's control half — finalizing must flush every subscriber's
    /// report through [`StreamControl::finish_stream`].
    control: Arc<StreamControl>,
    report: Option<SessionReport>,
}

/// What the reactor needs to know about a connection from other threads.
pub(crate) struct ConnSignal {
    /// A credit came back (or the session died): pump the feeder.
    feed_ready: AtomicBool,
    /// The joiner finalized: the session report is available.
    done: AtomicBool,
    /// The ingest thread's wake-up fd.
    wake: Arc<WakeFd>,
}

/// The progress hooks registered on the session's [`SessionCore`]: workers
/// and fold jobs poke the reactor through these instead of condvars.
/// Holds the task weakly — the connection owns the strong reference, so a
/// closed connection's task is freed even while stray jobs still hold the
/// core.
struct ConnEvents {
    task: Weak<JoinTask>,
    signal: Arc<ConnSignal>,
}

impl SessionEvents for ConnEvents {
    fn on_deliverable(&self) {
        if let Some(task) = self.task.upgrade() {
            enqueue_task(&task);
        }
    }

    fn on_credit(&self) {
        self.signal.feed_ready.store(true, Ordering::Release);
        // Flushed by the fold that returned the credit, or that a poisoning
        // queued; the ingest thread sweeps its own releases.
        self.signal.wake.defer();
    }
}

/// The reactor's side of an outbox park: after a drain (or a discard) left
/// the outbox below its cap, queue a fold parked on it again.
fn unpark(task: &Arc<JoinTask>) {
    if task.stalled_on_outbox.swap(false, Ordering::SeqCst) {
        enqueue_task(task);
    }
}

/// Queues a task's fold on the runtime's workers: once until it next runs,
/// and once more after a run that progress overtook.
fn enqueue_task(task: &Arc<JoinTask>) {
    let prev = task.sched.fetch_update(Ordering::AcqRel, Ordering::Acquire, |s| match s {
        IDLE => Some(QUEUED),
        RUNNING => Some(RERUN),
        _ => None,
    });
    if prev == Ok(IDLE) {
        task.pool.submit_fold(Arc::clone(task) as Arc<dyn Fold>);
    }
}

impl Fold for JoinTask {
    /// Runs fold steps until the mailbox runs dry, the outbox fills or the
    /// stream ends; a panic in the fold poisons the session, as `Driver::guarded` does.
    fn run(self: Arc<Self>) {
        // Consume the queue mark *before* running: progress made meanwhile
        // marks it `RERUN`. The mailbox lock publishes the chunks it folds.
        self.sched.store(RUNNING, Ordering::Release);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| join_steps(&self)));
        if let Err(panic) = result {
            let core = &self.core;
            joiner_panicked(core, &*panic);
            // Finalize defensively so the connection can wind down: the state
            // may be inconsistent, so only the report shell is produced.
            let mut inner = lock_recover(&self.inner).0;
            if inner.report.is_none() {
                let report = SessionReport {
                    stats: core.counters.snapshot(),
                    match_counts: Vec::new(),
                    submatch_counts: Vec::new(),
                    error: core.poison_message(),
                    speculation_ratio: core.speculation_ratio(),
                };
                // Subscribers (the owner included) still get their final
                // accounting, carrying the stream's poison message. Idempotent:
                // a panic *inside* a subscriber's `end` re-enters here with the
                // stream already ended and no subscribers left to flush.
                inner.control.finish_stream(&report);
                inner.report = Some(report);
            }
            inner.state = None;
            drop(inner);
            self.signal.done.store(true, Ordering::Release);
            self.signal.wake.wake();
        }
        if self.sched.swap(IDLE, Ordering::AcqRel) == RERUN {
            enqueue_task(&self);
        }
    }
}

fn join_steps(task: &Arc<JoinTask>) {
    let mut inner = lock_recover(&task.inner).0;
    let inner = &mut *inner;
    let Some(state) = inner.state.as_mut() else { return };
    loop {
        if task.outbox.over_cap() {
            // Park on the full outbox. Order matters: set the flag first,
            // then re-check, so a drain racing this park re-enqueues us.
            task.stalled_on_outbox.store(true, Ordering::SeqCst);
            if task.outbox.over_cap() {
                // The reactor must see the full outbox to drain it.
                task.signal.wake.flush();
                return;
            }
            task.stalled_on_outbox.store(false, Ordering::SeqCst);
        }
        match task.core.try_take(state.next_seq()) {
            TryTake::Ready(out) => {
                state.fold_one(&task.core, &mut inner.sink, out);
                // One wake for the chunk's frames and its credit.
                task.signal.wake.flush();
            }
            TryTake::Pending => return,
            TryTake::Ended => {
                let report = state.finalize(&task.core, &mut inner.sink);
                // Flush every subscriber's report through its sink (the
                // owner's harvests its frame accounting) before the done
                // signal can close the connection — `close_conn` serializes
                // on this task's lock, so the report is always complete by
                // the time it is read.
                inner.control.finish_stream(&report);
                inner.report = Some(report);
                inner.state = None;
                task.signal.done.store(true, Ordering::Release);
                task.signal.wake.wake();
                return;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The connection state machine
// ---------------------------------------------------------------------------

/// Read buffer for streaming connections (per reactor thread, reused).
const READ_BUF: usize = 32 << 10;

enum Phase {
    /// Collecting handshake lines through the incremental decoder.
    Handshaking { decoder: HandshakeDecoder, deadline: Option<Instant> },
    /// Session live: readable bytes feed the splitter, the outbox drains
    /// frames.
    Streaming,
    /// Read side finished (EOF, read error, or dead session): flush the
    /// outbox, wait for the joiner, then close.
    Draining,
    /// A structured `ERR` reply is queued: flush it, then close.
    Rejecting,
}

struct ConnSession {
    feeder: Feeder,
    task: Arc<JoinTask>,
    /// The stream's subscription-layer control: engine swaps scheduled by
    /// mid-stream attaches land at the feeder's next chunk boundary.
    control: Arc<StreamControl>,
    /// The owner's frame accounting, harvested by its subscriber sink's
    /// `end` when the stream finishes.
    done: Arc<Mutex<SinkDone>>,
}

struct Conn {
    stream: TcpStream,
    peer: SocketAddr,
    phase: Phase,
    outbox: Arc<OutboxShared>,
    signal: Arc<ConnSignal>,
    session: Option<ConnSession>,
    /// Set instead of `session` when this connection attached to another
    /// connection's live shared stream.
    subscription: Option<SubscriberConn>,
    /// The control this owner connection published in the server's hub for
    /// late attaches; taken back (and the hub entry removed) the moment the
    /// stream stops accepting bytes.
    hub_published: Option<Arc<StreamControl>>,
    meta: Option<ConnMeta>,
    read_error: Option<String>,
    write_error: Option<String>,
    /// Last instant the *socket* made progress (bytes read from the client,
    /// or bytes accepted by its send buffer) — the clock the optional
    /// idle-timeout liveness check reads.
    last_progress: Instant,
    /// When the connection was registered — the handshake-duration
    /// histogram's start mark.
    accepted_at: Instant,
}

struct ConnMeta {
    stream_id: u64,
    queries: Vec<String>,
    format: WireFormat,
}

impl Conn {
    /// Whether the idle-timeout clock applies right now: always while
    /// streaming (a dead client neither sends bytes nor drains frames), and
    /// while draining/rejecting only when queued bytes wait on the client to
    /// read them. Handshaking has its own deadline; a drained outbox waiting
    /// on the *pipeline* (not the client) must never be timed out.
    fn idle_eligible(&self) -> bool {
        match self.phase {
            Phase::Handshaking { .. } => false,
            // A subscriber is passive — it sends nothing, and a quiet stream
            // proves nothing about its liveness. Its clock runs only while
            // queued frames wait on it to read (the same rule as Draining).
            Phase::Streaming => self.subscription.is_none() || !self.outbox.is_empty(),
            Phase::Draining | Phase::Rejecting => !self.outbox.is_empty(),
        }
    }

    /// The poll events this connection currently cares about; `0` means the
    /// fd is left out of the poll set entirely (progress will come from a
    /// wake-up, not the socket).
    fn interest(&self) -> i16 {
        let writable = !self.outbox.is_empty();
        match &self.phase {
            Phase::Handshaking { .. } => POLLIN,
            Phase::Streaming => {
                let mut events = 0;
                let blocked = self.session.as_ref().is_some_and(|s| s.feeder.is_blocked());
                // A subscriber never reads: bytes an attacher sends after GO
                // are ignored (per the wire contract), so POLLIN stays off —
                // its socket matters only as a frame drain.
                if !blocked && self.subscription.is_none() {
                    events |= POLLIN;
                }
                if writable {
                    events |= POLLOUT;
                }
                events
            }
            Phase::Draining | Phase::Rejecting => {
                if writable {
                    POLLOUT
                } else {
                    0
                }
            }
        }
    }
}

/// Removes an owner connection's hub entry the moment its stream stops
/// accepting bytes, so a late attach cannot land on a stream that is already
/// finishing (it opens a fresh one instead). Removes only this connection's
/// own registration — a raced owner's entry is not ours to drop.
fn unpublish_stream(shared: &Shared, conn: &mut Conn) {
    let Some(control) = conn.hub_published.take() else { return };
    let (mut hub, _) = lock_recover(&shared.hub);
    if hub.get(&control.stream_id()).is_some_and(|c| Arc::ptr_eq(c, &control)) {
        hub.remove(&control.stream_id());
    }
}

// ---------------------------------------------------------------------------
// The reactor proper
// ---------------------------------------------------------------------------

/// The running ingest layer: the ingest thread and its wake fd (shutdown
/// pokes it).
pub(crate) struct ReactorHandles {
    thread: Option<std::thread::JoinHandle<()>>,
    wake: Arc<WakeFd>,
}

impl ReactorHandles {
    /// Blocks until the ingest thread drained its connections and exited.
    pub fn shutdown_join(&mut self) {
        self.wake.wake();
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the ingest thread, which owns the listener.
pub(crate) fn spawn(shared: Arc<Shared>, listener: TcpListener) -> std::io::Result<ReactorHandles> {
    listener.set_nonblocking(true)?;
    let wake = Arc::new(WakeFd::new()?);
    // The listener and the wake fd sit in the poll set for the server's
    // whole life.
    shared.reactor_counters.fd_registered();
    shared.reactor_counters.fd_registered();
    let reactor = Reactor {
        shared,
        wake: Arc::clone(&wake),
        listener: Some(listener),
        conns: Vec::new(),
        free: Vec::new(),
    };
    let thread = std::thread::Builder::new()
        .name("ppt-ingest".to_string())
        .spawn(move || reactor.run())
        .map_err(|e| std::io::Error::other(format!("failed to spawn ingest: {e}")))?;
    Ok(ReactorHandles { thread: Some(thread), wake })
}

/// What a pollfd slot refers to.
#[derive(Clone, Copy)]
enum Token {
    Wake,
    Listener,
    Conn(usize),
}

struct Reactor {
    shared: Arc<Shared>,
    wake: Arc<WakeFd>,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
}

impl Reactor {
    fn live_conns(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }

    fn run(mut self) {
        let mut pollfds: Vec<PollFd> = Vec::new();
        let mut tokens: Vec<Token> = Vec::new();
        let mut read_buf = vec![0u8; READ_BUF];
        loop {
            let shutting_down = self.shared.shutting_down.load(Ordering::SeqCst);
            if shutting_down {
                // Stop accepting the moment shutdown is requested; pending
                // backlog clients are refused when the listener drops.
                if self.listener.take().is_some() {
                    self.shared.reactor_counters.fd_unregistered();
                }
                if self.live_conns() == 0 {
                    self.shared.reactor_counters.fd_unregistered(); // the wake fd
                    return;
                }
            }

            pollfds.clear();
            tokens.clear();
            pollfds.push(PollFd { fd: self.wake.raw_fd(), events: POLLIN, revents: 0 });
            tokens.push(Token::Wake);
            if let Some(listener) = &self.listener {
                // Admission gate before accept: with no free slot the
                // listener leaves the poll set and pending clients queue in
                // the kernel backlog.
                if self.shared.gate.available() > 0 {
                    pollfds.push(PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 });
                    tokens.push(Token::Listener);
                }
            }
            let mut timeout_ms: i32 = -1;
            let now = Instant::now();
            let idle_timeout = self.shared.config.idle_timeout;
            for (slot, conn) in self.conns.iter().enumerate() {
                let Some(conn) = conn else { continue };
                // The poll must wake in time for whichever deadline governs
                // this connection: the handshake deadline, or — once
                // streaming — the optional idle-timeout liveness deadline.
                let deadline = match &conn.phase {
                    Phase::Handshaking { deadline, .. } => *deadline,
                    _ if conn.idle_eligible() => idle_timeout.map(|t| conn.last_progress + t),
                    _ => None,
                };
                if let Some(deadline) = deadline {
                    // Clamp before narrowing: a days-long deadline must wake
                    // the loop early and re-arm, not wrap `as_millis()` into
                    // a negative (= infinite) poll timeout.
                    let millis = deadline.saturating_duration_since(now).as_millis();
                    // CAST-OK: clamped to 60_000 on the line above.
                    let remaining = millis.min(60_000) as i32 + 1; // round up
                    timeout_ms = if timeout_ms < 0 { remaining } else { timeout_ms.min(remaining) };
                }
                let events = conn.interest();
                if events != 0 {
                    pollfds.push(PollFd { fd: conn.stream.as_raw_fd(), events, revents: 0 });
                    tokens.push(Token::Conn(slot));
                }
            }

            // RELAXED-OK: monotonic stat counter; orders nothing.
            self.shared.reactor_counters.polls.fetch_add(1, Ordering::Relaxed);
            if poll_fds(&mut pollfds, timeout_ms).is_err() {
                // EINVAL and friends are programming errors; yield so a
                // persistent failure cannot hard-spin a core, then retry.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }

            // Wakeup→dispatch latency: poll has returned; time how long this
            // round takes to hand every ready fd to its state machine.
            let dispatch_started = Instant::now();
            let mut dispatched = false;
            for i in 0..pollfds.len() {
                let revents = pollfds[i].revents;
                if revents == 0 {
                    continue;
                }
                dispatched = true;
                match tokens[i] {
                    Token::Wake => {
                        self.wake.drain();
                        // RELAXED-OK: monotonic stat counter; orders nothing.
                        self.shared.reactor_counters.wakeups.fetch_add(1, Ordering::Relaxed);
                    }
                    Token::Listener => self.accept_ready(),
                    Token::Conn(slot) => {
                        // RELAXED-OK: monotonic stat counter; orders nothing.
                        self.shared
                            .reactor_counters
                            .readiness_dispatches
                            .fetch_add(1, Ordering::Relaxed);
                        if revents & (POLLOUT | POLLERR | POLLHUP) != 0 {
                            self.handle_writable(slot);
                        }
                        if revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                            self.handle_readable(slot, &mut read_buf);
                        }
                        if revents & POLLNVAL != 0 {
                            // The fd is not open — unrecoverable bookkeeping
                            // failure for this connection only.
                            self.abort_conn(slot, "polled an invalid fd");
                        }
                    }
                }
            }
            if dispatched {
                self.shared.telemetry.dispatch_nanos.record_duration(dispatch_started.elapsed());
            }

            self.expire_handshakes();
            self.expire_idle();
            self.sweep();
        }
    }

    fn accept_ready(&mut self) {
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) {
                return;
            }
            if !self.shared.gate.try_acquire() {
                return; // at capacity: the listener leaves the poll set
            }
            let Some(listener) = &self.listener else {
                self.shared.gate.release();
                return;
            };
            match listener.accept() {
                Ok((stream, peer)) => {
                    // RELAXED-OK: monotonic stat counter; orders nothing.
                    self.shared.accepted.fetch_add(1, Ordering::Relaxed);
                    // RELAXED-OK: live gauge; readers tolerate skew.
                    self.shared.active.fetch_add(1, Ordering::Relaxed);
                    self.register(stream, peer);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    self.shared.gate.release();
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                    self.shared.gate.release();
                }
                Err(_) => {
                    // ECONNABORTED / EMFILE: give the credit back and let
                    // the next poll round retry instead of spinning here.
                    self.shared.gate.release();
                    return;
                }
            }
        }
    }

    /// Registers a freshly accepted connection in the handshake phase.
    fn register(&mut self, stream: TcpStream, peer: SocketAddr) {
        if stream.set_nonblocking(true).is_err() {
            // Cannot serve a socket we cannot make nonblocking.
            // RELAXED-OK: monotonic stat counter; orders nothing.
            self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
            // RELAXED-OK: live gauge; readers tolerate skew.
            self.shared.active.fetch_sub(1, Ordering::Relaxed);
            self.shared.gate.release();
            return;
        }
        let _ = stream.set_nodelay(true);
        let cfg = &self.shared.config;
        let conn = Conn {
            stream,
            peer,
            phase: Phase::Handshaking {
                decoder: HandshakeDecoder::with_limits(DEFAULT_MAX_HANDSHAKE_LINE, cfg.max_queries),
                deadline: cfg.handshake_timeout.map(|t| Instant::now() + t),
            },
            outbox: OutboxShared::new(
                cfg.max_outbox_bytes,
                Arc::clone(&self.shared.reactor_counters),
                Arc::clone(&self.shared.telemetry),
            ),
            signal: Arc::new(ConnSignal {
                feed_ready: AtomicBool::new(false),
                done: AtomicBool::new(false),
                wake: Arc::clone(&self.wake),
            }),
            session: None,
            subscription: None,
            hub_published: None,
            meta: None,
            read_error: None,
            write_error: None,
            last_progress: Instant::now(),
            accepted_at: Instant::now(),
        };
        self.shared.reactor_counters.fd_registered();
        match self.free.pop() {
            Some(slot) => self.conns[slot] = Some(conn),
            None => self.conns.push(Some(conn)),
        }
    }

    fn handle_readable(&mut self, slot: usize, buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        match &mut conn.phase {
            Phase::Handshaking { .. } => self.handshake_readable(slot, buf),
            Phase::Streaming => self.stream_readable(slot, buf),
            // Read side already finished; nothing to consume.
            Phase::Draining | Phase::Rejecting => {}
        }
    }

    fn handshake_readable(&mut self, slot: usize, buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let n = match conn.stream.read(&mut buf[..4096]) {
            Ok(0) => {
                // Hung up mid-handshake: nothing to answer.
                // RELAXED-OK: monotonic stat counter; orders nothing.
                self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                self.close_conn(slot, false);
                return;
            }
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                return;
            }
            Err(_) => {
                // RELAXED-OK: monotonic stat counter; orders nothing.
                self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
                self.close_conn(slot, false);
                return;
            }
        };
        conn.last_progress = Instant::now();
        let Phase::Handshaking { decoder, .. } = &mut conn.phase else { return };
        match decoder.push(&buf[..n]) {
            Ok(Some(request)) => self.complete_handshake(slot, request),
            Ok(None) => {}
            Err(e) => self.reject(slot, &e.to_string()),
        }
    }

    /// The handshake parsed: resolve the stream id, build the engine, reply,
    /// and bring the session up on the runtime's pools — or send a
    /// structured rejection.
    fn complete_handshake(&mut self, slot: usize, request: crate::wire::HandshakeRequest) {
        if request.stats {
            // An in-band scrape: queue the snapshot page and flush-close via
            // the `Rejecting` phase machinery. Not a session (nothing is
            // placed, no report recorded) and not a protocol rejection —
            // `handshake_rejects` stays untouched, `ppt_scrapes_total` is
            // its accounting.
            let telemetry = Arc::clone(&self.shared.telemetry);
            telemetry.scrapes.inc();
            let page = self.shared.render_metrics();
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
            telemetry.handshake_nanos.record_duration(conn.accepted_at.elapsed());
            let mut reply = format!("OK STATS {}\n", page.len()).into_bytes();
            reply.extend_from_slice(page.as_bytes());
            let _ = conn.outbox.push(&reply);
            conn.phase = Phase::Rejecting;
            return;
        }
        // The stream id is the client's requested one, or a process-unique
        // assignment (a default of 0 for everyone would make their frames
        // indistinguishable to an aggregating consumer).
        let stream_id = request.stream_id.unwrap_or_else(crate::serve::assign_stream_id);

        // --- Attach: a handshake naming a live shared stream joins it ------
        // Only explicitly named ids can match (assignments are
        // process-unique), and the race where the stream ends between lookup
        // and attach falls through to serving this connection as a fresh
        // stream owner.
        if request.stream_id.is_some() {
            let target = lock_recover(&self.shared.hub).0.get(&stream_id).cloned();
            if let Some(control) = target {
                if self.attach_subscriber(slot, &request, stream_id, &control) {
                    return;
                }
            }
        }

        // --- Owner path: open a shared stream this connection feeds --------
        self.shared.telemetry.journal.record(EventKind::Registered, stream_id);
        let runtime = Arc::clone(&self.shared.runtime);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        conn.meta =
            Some(ConnMeta { stream_id, queries: request.queries.clone(), format: request.format });
        self.shared.telemetry.handshake_nanos.record_duration(conn.accepted_at.elapsed());
        // The owner is subscriber 0 of its own stream: its frames are framed
        // straight into its outbox from the stream's joiner (lossless — the
        // fold parks on the owner's full outbox, exactly the pre-subscription
        // backpressure); only *co*-subscribers shed.
        let done: Arc<Mutex<SinkDone>> = Arc::default();
        let owner = OutboxSubscriber {
            sink: Some(WireSink::new_vectored(
                OutboxWriter { outbox: Arc::clone(&conn.outbox) },
                request.format,
                Box::new(OutboxWriter { outbox: Arc::clone(&conn.outbox) }),
            )),
            outbox: Arc::clone(&conn.outbox),
            done: Arc::clone(&done),
            signal: Arc::clone(&conn.signal),
            shed_when_full: false,
        };
        let (engine, control) = match shared_stream_parts(
            stream_id,
            crate::serve::engine_config(&self.shared.config),
            crate::serve::MAX_AUTOMATON_STATES,
            runtime.telemetry(),
            &request.queries,
            Box::new(owner),
        ) {
            Ok(parts) => parts,
            Err(e) => {
                self.reject(slot, &crate::serve::attach_reject_message(&e));
                return;
            }
        };
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        // CAST-OK: query count is admission-capped (max_queries) far below
        // 2^32 by the handshake decoder.
        let ids: Vec<u32> = (0..request.queries.len() as u32).collect();
        let reply = HandshakeReply::Accepted { stream: stream_id, queries: ids };
        if conn.outbox.push(reply.encode().as_bytes()).is_err() {
            self.abort_conn(slot, "handshake reply failed: outbox closed");
            return;
        }
        // Publish for late attaches — before this thread returns to its poll
        // loop, so the reply cannot reach the wire first. A racing owner
        // with the same explicit id may have registered already; this stream
        // then simply serves unshared — first registration wins the id.
        {
            let (mut hub, _) = lock_recover(&self.shared.hub);
            let entry = hub.entry(stream_id).or_insert_with(|| Arc::clone(&control));
            if Arc::ptr_eq(entry, &control) {
                conn.hub_published = Some(Arc::clone(&control));
            }
        }
        // `track_open_path` lets mid-stream engine swaps (scheduled by
        // attaches with novel queries) replay the open-tag path on resume.
        let opts = crate::serve::session_options(&request, stream_id).track_open_path(true);
        let core = runtime.new_session_core(Arc::clone(&engine), &opts);
        let sink =
            Materializer { core: Arc::clone(&core), inner: FanoutSink::new(Arc::clone(&control)) };
        let task = Arc::new(JoinTask {
            core: Arc::clone(&core),
            inner: Mutex::new(JoinTaskInner {
                state: Some(JoinerState::new(&core)),
                sink,
                control: Arc::clone(&control),
                report: None,
            }),
            sched: AtomicU8::new(IDLE),
            stalled_on_outbox: AtomicBool::new(false),
            outbox: Arc::clone(&conn.outbox),
            signal: Arc::clone(&conn.signal),
            pool: Arc::clone(runtime.worker_pool().shared()),
        });
        core.set_events(Arc::new(ConnEvents {
            task: Arc::downgrade(&task),
            signal: Arc::clone(&conn.signal),
        }));
        let mut feeder = Feeder::new(core);
        // Bytes that arrived in the same reads as the handshake are the head
        // of the stream.
        let old = std::mem::replace(&mut conn.phase, Phase::Streaming);
        let Phase::Handshaking { decoder, .. } = old else { unreachable!("checked by caller") };
        let remainder = decoder.take_remainder();
        if !remainder.is_empty() {
            feeder.feed(runtime.worker_pool(), &remainder);
        }
        conn.session = Some(ConnSession { feeder, task, control, done });
    }

    /// Attaches a connection to a live shared stream: registers its queries
    /// (merging them into the stream's automaton) with an outbox-writing
    /// subscriber sink, and queues the `OK ATTACH` reply *under the stream's
    /// state lock* so no frame can precede it. Returns `false` when the
    /// stream ended before the attach landed — the caller then serves the
    /// connection as a fresh owner.
    fn attach_subscriber(
        &mut self,
        slot: usize,
        request: &crate::wire::HandshakeRequest,
        stream_id: u64,
        control: &Arc<StreamControl>,
    ) -> bool {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return true };
        let outbox = Arc::clone(&conn.outbox);
        let signal = Arc::clone(&conn.signal);
        let done: Arc<Mutex<SinkDone>> = Arc::default();
        let sub = OutboxSubscriber {
            sink: Some(WireSink::new_vectored(
                OutboxWriter { outbox: Arc::clone(&outbox) },
                request.format,
                Box::new(OutboxWriter { outbox: Arc::clone(&outbox) }),
            )),
            outbox: Arc::clone(&outbox),
            done: Arc::clone(&done),
            signal,
            shed_when_full: true,
        };
        // CAST-OK: query count is admission-capped (max_queries) far below
        // 2^32 by the handshake decoder.
        let ids: Vec<u32> = (0..request.queries.len() as u32).collect();
        let reply = HandshakeReply::Attached { stream: stream_id, queries: ids }.encode();
        let mut reply_failed = false;
        let id = match control.attach_with(&request.queries, Box::new(sub), |_| {
            reply_failed = outbox.push(reply.as_bytes()).is_err();
        }) {
            Ok(id) => id,
            Err(AttachError::Ended) => return false,
            Err(e) => {
                self.reject(slot, &crate::serve::attach_reject_message(&e));
                return true;
            }
        };
        if reply_failed {
            let _ = control.detach(id);
            self.abort_conn(slot, "handshake reply failed: outbox closed");
            return true;
        }
        self.shared.telemetry.journal.record(EventKind::Registered, stream_id);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            let _ = control.detach(id);
            return true;
        };
        conn.meta =
            Some(ConnMeta { stream_id, queries: request.queries.clone(), format: request.format });
        self.shared.telemetry.handshake_nanos.record_duration(conn.accepted_at.elapsed());
        // Bytes an attacher sends after GO are ignored: the handshake
        // decoder's remainder is discarded with it, and `interest` keeps
        // POLLIN off for the connection's whole life.
        conn.phase = Phase::Streaming;
        conn.subscription = Some(SubscriberConn { control: Arc::clone(control), id, done });
        true
    }

    fn stream_readable(&mut self, slot: usize, buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let Some(session) = conn.session.as_mut() else { return };
        if session.feeder.is_blocked() {
            return; // backpressured: leave the bytes in the kernel buffer
        }
        // A concurrent attach with novel queries scheduled a merged engine:
        // land the swap before the next bytes (or the finish) so it takes
        // effect at the attacher's chunk boundary.
        if let Some(engine) = session.control.take_pending_engine() {
            session.feeder.swap_engine(engine);
        }
        let pool = self.shared.runtime.worker_pool();
        match conn.stream.read(buf) {
            Ok(0) => {
                // Clean end of stream: flush the splitter tail; the chunk
                // total is announced once the pending queue drains.
                conn.last_progress = Instant::now();
                session.feeder.request_finish();
                session.feeder.pump(pool);
                conn.phase = Phase::Draining;
                unpublish_stream(&self.shared, conn);
            }
            Ok(n) => {
                conn.last_progress = Instant::now();
                session.feeder.feed(pool, &buf[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                // The client's stream died. Drain what was ingested — the
                // matches already in flight still go out — and record the
                // failure in the connection's report.
                conn.read_error = Some(e.to_string());
                session.feeder.request_finish();
                session.feeder.pump(pool);
                conn.phase = Phase::Draining;
                unpublish_stream(&self.shared, conn);
            }
        }
    }

    fn handle_writable(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        match conn.outbox.drain_to(&mut conn.stream) {
            Ok(written) => {
                if written > 0 {
                    conn.last_progress = Instant::now();
                }
                if !conn.outbox.over_cap() {
                    if let Some(session) = &conn.session {
                        unpark(&session.task);
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                // The client stopped reading for good: latch the error,
                // refuse further frames (they count as drops), and let the
                // session run to completion unobserved.
                if conn.write_error.is_none() {
                    conn.write_error = Some(e.to_string());
                }
                conn.outbox.close_and_clear();
                if let Some(session) = &conn.session {
                    unpark(&session.task);
                }
                // A dead subscriber stops receiving its share of the fan-out
                // right away; `end` (from the detach) sets the done signal,
                // and the cleared outbox lets the sweep close the slot.
                if let Some(sub) = &conn.subscription {
                    let _ = sub.control.detach(sub.id);
                    conn.phase = Phase::Draining;
                }
            }
        }
    }

    /// Sends a structured `ERR` and schedules the close behind it.
    fn reject(&mut self, slot: usize, message: &str) {
        // RELAXED-OK: monotonic stat counter; orders nothing.
        self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        let _ = conn.outbox.push(HandshakeReply::Rejected(message.to_string()).encode().as_bytes());
        conn.phase = Phase::Rejecting;
    }

    /// Times out handshakes that outlived their deadline.
    fn expire_handshakes(&mut self) {
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_ref() else { continue };
            if let Phase::Handshaking { deadline: Some(deadline), .. } = &conn.phase {
                if *deadline <= now {
                    self.reject(slot, "handshake timed out");
                }
            }
        }
    }

    /// Times out post-handshake connections whose socket made no progress
    /// for the configured [`crate::serve::TcpServerBuilder::idle_timeout`].
    ///
    /// This is the liveness backstop the handshake deadline does not cover:
    /// a dead-but-open client (NAT-idled, no FIN ever delivered) in
    /// `Streaming` would otherwise hold its session, its admission-gate
    /// credit and its retained windows forever. Expiry poisons *that
    /// session only* — the joiner finalizes with the error in its report,
    /// the sweep closes the socket, and the gate credit comes back.
    fn expire_idle(&mut self) {
        let Some(idle) = self.shared.config.idle_timeout else { return };
        let now = Instant::now();
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            // A *pipeline-side* stall is not client death: while the
            // session has chunks the server still owes work on — pending in
            // a blocked feeder, or submitted but not yet folded — no socket
            // progress proves nothing about the client. Its bytes may sit
            // unread in the kernel buffer (POLLIN interest is off while the
            // feeder is blocked) and its frames have simply not been
            // produced yet behind a busy worker pool. Restart the clock so the
            // deadline measures from the moment the pipeline catches up.
            //
            // The discriminator is the outbox: a backed-up outbox means the
            // *client* is not draining its frames — that is exactly the
            // dead-but-open shape this timeout exists to reclaim, so there
            // the clock keeps running regardless of pipeline state.
            let pipeline_busy = conn.session.as_ref().is_some_and(|s| {
                let counters = &s.task.core.counters;
                s.feeder.is_blocked()
                    // Acquire pairs with the Release fetch_adds in the
                    // feeder/joiner: the liveness verdict (bill the stall to
                    // the server, not the client) must see a submission no
                    // later than the pipeline state behind it (upgraded from
                    // Relaxed in the PR-8 concurrency audit).
                    || counters.chunks_submitted.load(Ordering::Acquire)
                        > counters.chunks_joined.load(Ordering::Acquire)
            });
            if pipeline_busy && !conn.outbox.over_cap() {
                conn.last_progress = now;
                continue;
            }
            if !conn.idle_eligible() || now.saturating_duration_since(conn.last_progress) < idle {
                continue;
            }
            let reason = crate::serve::idle_timeout_error(idle);
            if let Some(session) = &conn.session {
                // Order matters: discard the queued frames (a dead client
                // will never read them) *before* poisoning, and unpark a
                // fold parked on the now-cleared outbox — with the outbox
                // empty, POLLOUT disarms and nothing else would ever
                // re-enqueue it to observe the poison and finalize.
                conn.outbox.close_and_clear();
                session.task.core.poison(reason.clone());
                unpark(&session.task);
                conn.read_error.get_or_insert(reason);
                conn.phase = Phase::Draining;
                unpublish_stream(&self.shared, conn);
            } else if let Some(sub) = &conn.subscription {
                // A subscriber with queued frames nobody drained: the
                // dead-but-open shape. Detaching it ends only this
                // subscriber — the shared stream keeps serving everyone
                // else.
                conn.outbox.close_and_clear();
                let _ = sub.control.detach(sub.id);
                conn.write_error.get_or_insert(reason);
                conn.phase = Phase::Draining;
            } else {
                // A rejecting connection that never read its ERR line.
                self.close_conn(slot, false);
            }
        }
    }

    /// Post-dispatch pass: resume pumped feeders, notice finished joiners,
    /// close connections that drained.
    fn sweep(&mut self) {
        for slot in 0..self.conns.len() {
            let Some(conn) = self.conns[slot].as_mut() else { continue };
            if let Some(session) = conn.session.as_mut() {
                if conn.signal.feed_ready.swap(false, Ordering::AcqRel) {
                    session.feeder.pump(self.shared.runtime.worker_pool());
                }
                if conn.signal.done.load(Ordering::Acquire)
                    && matches!(conn.phase, Phase::Streaming)
                {
                    // The session ended under the client (a worker panic
                    // poisoned it): stop reading, flush what's queued.
                    conn.phase = Phase::Draining;
                    unpublish_stream(&self.shared, conn);
                }
            } else if conn.subscription.is_some()
                && conn.signal.done.load(Ordering::Acquire)
                && matches!(conn.phase, Phase::Streaming)
            {
                // The shared stream this connection subscribed to ended (its
                // sink's `end` set the signal): flush the queued tail, then
                // close.
                conn.phase = Phase::Draining;
            }
            match conn.phase {
                Phase::Draining
                    if conn.signal.done.load(Ordering::Acquire) && conn.outbox.is_empty() =>
                {
                    self.close_conn(slot, true);
                }
                Phase::Rejecting if conn.outbox.is_empty() => {
                    let _ = conn.stream.shutdown(Shutdown::Both);
                    self.close_conn(slot, false);
                }
                _ => {}
            }
        }
    }

    /// Tears a connection down on an unrecoverable local error (not a
    /// protocol rejection): the session, if any, is poisoned and reported.
    fn abort_conn(&mut self, slot: usize, reason: &str) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else { return };
        if let Some(session) = &conn.session {
            // Same ordering discipline as `expire_idle`: clear first, then
            // poison and unpark, so a fold parked on the outbox cannot stay
            // parked forever once POLLOUT disarms.
            conn.outbox.close_and_clear();
            session.task.core.poison(reason.to_string());
            unpark(&session.task);
            conn.write_error.get_or_insert_with(|| reason.to_string());
            conn.phase = Phase::Draining;
            unpublish_stream(&self.shared, conn);
        } else if let Some(sub) = &conn.subscription {
            conn.outbox.close_and_clear();
            let _ = sub.control.detach(sub.id);
            conn.write_error.get_or_insert_with(|| reason.to_string());
            conn.phase = Phase::Draining;
        } else {
            // RELAXED-OK: monotonic stat counter; orders nothing.
            self.shared.handshake_rejects.fetch_add(1, Ordering::Relaxed);
            self.close_conn(slot, false);
        }
    }

    /// Unregisters the connection, records its report (post-handshake
    /// connections only) *before* the socket is half-closed and dropped, and
    /// returns the admission slot.
    fn close_conn(&mut self, slot: usize, record: bool) {
        let Some(mut conn) = self.conns[slot].take() else { return };
        self.free.push(slot);
        unpublish_stream(&self.shared, &mut conn);
        if let Some(meta) = conn.meta.take() {
            if record {
                let (report, frames, bytes_out, sink_error) =
                    match (conn.session.take(), conn.subscription.take()) {
                        (Some(session), _) => {
                            // The owner's frame accounting was harvested by its
                            // subscriber sink's `end` when the stream finalized
                            // (`finish_stream` runs under the task lock taken
                            // here, so the hand-off is complete).
                            let mut inner = lock_recover(&session.task.inner).0;
                            let report = inner.report.take();
                            drop(inner);
                            let mut done = lock_recover(&session.done).0;
                            let sink_error = done.write_error.take().map(|e| e.to_string());
                            (report, done.frames, done.bytes_out, sink_error)
                        }
                        (None, Some(sub)) => {
                            // No-op when the stream (or a delivery failure)
                            // already detached this subscriber; otherwise the
                            // client hung up first and this ends it.
                            let _ = sub.control.detach(sub.id);
                            let mut done = lock_recover(&sub.done).0;
                            let sink_error = done.write_error.take().map(|e| e.to_string());
                            // The subscriber's report becomes the connection's
                            // session report: its local per-query counts, its
                            // delivered/dropped totals, its (or the stream's)
                            // terminal error.
                            let report = done.report.take().map(|r| SessionReport {
                                stats: RuntimeStats {
                                    matches: r.delivered,
                                    dropped_matches: r.dropped,
                                    ..RuntimeStats::default()
                                },
                                match_counts: r.match_counts,
                                submatch_counts: Vec::new(),
                                error: r.error,
                                speculation_ratio: None,
                            });
                            (report, done.frames, done.bytes_out, sink_error)
                        }
                        (None, None) => (None, 0, 0, None),
                    };
                self.shared.record(ConnectionReport {
                    peer: conn.peer,
                    stream_id: meta.stream_id,
                    queries: meta.queries,
                    format: meta.format,
                    frames,
                    bytes_out,
                    report,
                    write_error: conn.write_error.take().or(sink_error),
                    read_error: conn.read_error.take(),
                });
                // Only now half-close (so the client's frame reader sees EOF
                // even if it keeps its write half open): a client that has
                // seen EOF can rely on the report being on `/metrics`.
                let _ = conn.stream.shutdown(Shutdown::Write);
            }
        }
        drop(conn);
        self.shared.reactor_counters.fd_unregistered();
        // RELAXED-OK: live gauge; readers tolerate skew.
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
        // The freed slot re-arms the listener on the next poll round.
        self.shared.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wakefd_wakes_and_drains() {
        let wake = WakeFd::new().expect("wake fd");
        let mut fds = [PollFd { fd: wake.raw_fd(), events: POLLIN, revents: 0 }];
        // Nothing pending: a zero-timeout poll reports no readiness.
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0);
        wake.wake();
        wake.wake(); // coalesces, never blocks
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
        assert_ne!(fds[0].revents & POLLIN, 0);
        wake.drain();
        fds[0].revents = 0;
        assert_eq!(poll_fds(&mut fds, 0).unwrap(), 0, "drained fd is quiet");
        // And it can wake again after a drain.
        wake.wake();
        assert_eq!(poll_fds(&mut fds, 1000).unwrap(), 1);
    }

    #[test]
    fn wakefd_crosses_threads() {
        let wake = Arc::new(WakeFd::new().expect("wake fd"));
        let remote = Arc::clone(&wake);
        let handle = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            remote.wake();
        });
        let mut fds = [PollFd { fd: wake.raw_fd(), events: POLLIN, revents: 0 }];
        assert_eq!(poll_fds(&mut fds, 5000).unwrap(), 1, "woken from another thread");
        handle.join().unwrap();
    }

    #[test]
    fn outbox_caps_and_latches() {
        let counters = Arc::new(ReactorCounters::default());
        let telemetry = Arc::new(ServeTelemetry::default());
        let outbox = OutboxShared::new(16, Arc::clone(&counters), telemetry);
        assert!(outbox.is_empty());
        assert!(!outbox.over_cap());
        outbox.push(b"0123456789abcdef").unwrap();
        assert!(outbox.over_cap(), "cap reached at exactly cap bytes");
        assert_eq!(outbox.len(), 16);
        assert_eq!(counters.snapshot().peak_outbox_bytes, 16);
        // A latched close discards buffered bytes and refuses more.
        outbox.close_and_clear();
        assert!(outbox.is_empty());
        let err = outbox.push(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // The peak survives for the stats snapshot.
        assert_eq!(counters.snapshot().peak_outbox_bytes, 16);
    }

    fn test_outbox(cap: usize) -> (Arc<OutboxShared>, Arc<ServeTelemetry>) {
        let telemetry = Arc::new(ServeTelemetry::default());
        let outbox =
            OutboxShared::new(cap, Arc::new(ReactorCounters::default()), Arc::clone(&telemetry));
        (outbox, telemetry)
    }

    /// `count` consecutive windows of `size` bytes each, distinct fills.
    fn test_windows(count: usize, size: usize) -> Vec<ppt_xmlstream::SharedWindow> {
        (0..count)
            .map(|i| {
                let fill = [b'a', b'b', b'c', b'd'][i % 4];
                ppt_xmlstream::SharedWindow::new(i * size, vec![fill; size])
            })
            .collect()
    }

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (server, client)
    }

    /// Satellite bugfix regression: a borrowed payload's bytes must count
    /// against `max_outbox_bytes` — with a stalled reader, MiB payloads trip
    /// the cap even though the *copied* header traffic is tiny.
    #[test]
    fn borrowed_payload_bytes_count_against_cap() {
        let (outbox, telemetry) = test_outbox(1024);
        let windows = test_windows(16, 64 << 10); // 1 MiB borrowed
        let total = 16 * (64 << 10);
        let payload = PayloadRef::new(windows, 0..total);
        outbox
            .push_frame(FrameRef { head: b"HEAD:", payload: Some(payload), tail: b":TAIL\n" })
            .unwrap();
        assert_eq!(outbox.len(), total + 11, "borrowed bytes are queued bytes");
        assert!(outbox.over_cap(), "stalled reader with a MiB payload trips a 1 KiB cap");
        assert_eq!(telemetry.bytes_copied.get(), 11, "only head+tail were copied");
        assert_eq!(telemetry.bytes_borrowed.get(), total as u64);
        assert_eq!(outbox.borrowed_segments(), 1);
    }

    /// A short write can land mid-iovec (even mid-slice); the cursor must
    /// resume exactly where the socket stopped, and the bytes on the wire
    /// must be the frame verbatim.
    #[test]
    fn vectored_drain_resumes_after_short_write() {
        let (outbox, _) = test_outbox(usize::MAX);
        let windows = test_windows(256, 64 << 10); // 16 MiB: far past any socket buffer
        let total = 256 * (64 << 10);
        let payload = PayloadRef::new(windows, 0..total);
        let mut expected = b"HEAD:".to_vec();
        expected.extend_from_slice(&payload.to_vec());
        expected.extend_from_slice(b":TAIL\n");
        outbox
            .push_frame(FrameRef { head: b"HEAD:", payload: Some(payload), tail: b":TAIL\n" })
            .unwrap();

        let (mut server, mut client) = socket_pair();
        server.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        let first = outbox.drain_to(&mut server).unwrap();
        assert!(first > 0 && first < expected.len(), "16 MiB cannot drain in one writev batch");
        assert!(!outbox.is_empty(), "cursor left mid-frame");

        let mut received = Vec::with_capacity(expected.len());
        let mut buf = vec![0u8; 256 << 10];
        let mut spins = 0u32;
        while received.len() < expected.len() {
            if !outbox.is_empty() {
                outbox.drain_to(&mut server).unwrap();
            }
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed early"),
                Ok(n) => {
                    received.extend_from_slice(&buf[..n]);
                    spins = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    spins += 1;
                    assert!(spins < 100_000, "drain/read loop wedged");
                    std::thread::yield_now();
                }
                Err(e) => panic!("client read failed: {e}"),
            }
        }
        assert!(outbox.is_empty());
        assert_eq!(received.len(), expected.len());
        assert!(received == expected, "resumed drain corrupted the byte stream");
    }

    /// A window stays alive while *any* queued frame borrows it and is
    /// released the moment the last borrowing frame fully drains.
    #[test]
    fn window_freed_after_last_borrowing_frame_drains() {
        let (outbox, _) = test_outbox(usize::MAX);
        let shared = test_windows(256, 64 << 10); // w[0] is borrowed twice
        let small = PayloadRef::new(vec![shared[0].clone()], 0..(64 << 10));
        let big_total = 256 * (64 << 10);
        let big = PayloadRef::new(shared.clone(), 0..big_total);
        let probe = shared[0].clone();
        drop(shared);
        // probe + small + big hold w[0]:
        assert_eq!(probe.strong_count(), 3);
        outbox.push_frame(FrameRef { head: b"1:", payload: Some(small), tail: b"\n" }).unwrap();
        outbox.push_frame(FrameRef { head: b"2:", payload: Some(big), tail: b"\n" }).unwrap();
        assert_eq!(outbox.borrowed_segments(), 2);

        let (mut server, mut client) = socket_pair();
        server.set_nonblocking(true).unwrap();
        client.set_nonblocking(true).unwrap();
        // The 16 MiB second frame cannot fit in kernel socket buffers, so at
        // some point between drains the queue must hold exactly one Borrowed
        // segment: the small frame's borrow already released, the big
        // frame's still pinning the window. Assert that intermediate state
        // is observed — that is "freed only after the *last* borrowing frame
        // drains" made concrete.
        let mut saw_one_borrow_left = false;
        let total = (2 + (64 << 10) + 1) + (2 + big_total + 1);
        let mut drained = 0usize;
        let mut buf = vec![0u8; 256 << 10];
        let mut spins = 0u32;
        while drained < total {
            if !outbox.is_empty() {
                outbox.drain_to(&mut server).unwrap();
            }
            if outbox.borrowed_segments() == 1 && !outbox.is_empty() {
                assert_eq!(probe.strong_count(), 2, "first borrow freed, second still held");
                saw_one_borrow_left = true;
            }
            match client.read(&mut buf) {
                Ok(0) => panic!("server closed early"),
                Ok(n) => {
                    drained += n;
                    spins = 0;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    spins += 1;
                    assert!(spins < 100_000, "drain/read loop wedged");
                    std::thread::yield_now();
                }
                Err(e) => panic!("client read failed: {e}"),
            }
        }
        assert!(saw_one_borrow_left, "never observed the one-borrow-left state");
        assert!(outbox.is_empty());
        assert_eq!(outbox.borrowed_segments(), 0);
        assert_eq!(probe.strong_count(), 1, "last borrowing frame drained: window released");
    }

    /// A latched close (dead socket, poisoned session) must drop every
    /// borrowed payload immediately — a dead connection cannot keep pinning
    /// retention windows.
    #[test]
    fn close_and_clear_releases_borrowed_windows() {
        let (outbox, _) = test_outbox(usize::MAX);
        let windows = test_windows(4, 4096);
        let probe = windows[0].clone();
        let payload = PayloadRef::new(windows, 0..4 * 4096);
        outbox.push_frame(FrameRef { head: b"H", payload: Some(payload), tail: b"\n" }).unwrap();
        assert_eq!(probe.strong_count(), 2);
        assert_eq!(outbox.borrowed_segments(), 1);
        outbox.close_and_clear();
        assert!(outbox.is_empty());
        assert_eq!(outbox.borrowed_segments(), 0);
        assert_eq!(probe.strong_count(), 1, "close released the borrowed window");
        let err = outbox.push(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    /// The interest function is the POLLOUT flip the tests care about: a
    /// non-empty outbox arms POLLOUT, a drained one disarms it, and a
    /// backpressured feeder drops POLLIN.
    #[test]
    fn interest_follows_outbox_and_feeder_state() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_side, peer) = listener.accept().unwrap();
        let counters = Arc::new(ReactorCounters::default());
        let telemetry = Arc::new(ServeTelemetry::default());
        let outbox = OutboxShared::new(64, Arc::clone(&counters), Arc::clone(&telemetry));
        let wake = Arc::new(WakeFd::new().unwrap());
        let mut conn = Conn {
            stream: server_side,
            peer,
            phase: Phase::Handshaking { decoder: HandshakeDecoder::new(), deadline: None },
            outbox: Arc::clone(&outbox),
            signal: Arc::new(ConnSignal {
                feed_ready: AtomicBool::new(false),
                done: AtomicBool::new(false),
                wake,
            }),
            session: None,
            subscription: None,
            hub_published: None,
            meta: None,
            read_error: None,
            write_error: None,
            last_progress: Instant::now(),
            accepted_at: Instant::now(),
        };
        assert_eq!(conn.interest(), POLLIN, "handshake listens only");

        conn.phase = Phase::Streaming;
        assert_eq!(conn.interest(), POLLIN, "empty outbox: no POLLOUT");
        outbox.push(b"frame").unwrap();
        assert_eq!(conn.interest(), POLLIN | POLLOUT, "queued bytes arm POLLOUT");

        conn.phase = Phase::Draining;
        assert_eq!(conn.interest(), POLLOUT, "draining only flushes");
        // Drain the outbox through the real socket: POLLOUT disarms, and
        // the written-byte count is the progress signal.
        let mut stream = conn.stream.try_clone().unwrap();
        assert_eq!(outbox.drain_to(&mut stream).unwrap(), 5);
        assert!(outbox.is_empty());
        assert_eq!(conn.interest(), 0, "drained outbox leaves the poll set");
        drop(client);
    }
}
