//! The relay scheduler: which of a stream's chunks runs next, and how.
//!
//! A stream's *relay* is the chunk every earlier chunk of which has run, with
//! its exact entry state and stack, from `(q₀, ε)`. That chunk, the *head*,
//! runs in order from the entry ([`crate::process_chunk_from`]). A worker
//! that would otherwise idle may run a chunk ahead from all states
//! ([`crate::process_chunk`]) while the measured cost ratio R is below the
//! worker count; the relay passes it by following its mapping.
//!
//! [`Sched`] takes no lock, spawns no thread and reads no clock. Its drivers,
//! the runtime's worker pool and the batch [`crate::Engine`], hold it under
//! their own lock and pass back each output with its cost, a sample of R.

use crate::chunk::{process_chunk, process_chunk_from, ChunkOutput, EngineKind};
use ppt_automaton::{StateId, Transducer};
use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

/// A submitted chunk, as the scheduler sees it.
pub trait Job {
    /// The chunk's sequence number within its stream, from 0.
    fn seq(&self) -> u64;
    /// Under half the chunk size (a window's tail): its fixed cost swamps the
    /// per-byte one, so it never runs from all states nor samples R.
    fn is_tail(&self) -> bool;
}

/// An exact execution-path position: state and whole stack (top last).
pub type Entry = (StateId, Vec<StateId>);

/// Where a stream's real execution path stands at its relay's chunk.
#[derive(Debug)]
enum Path {
    Known(Entry),
    /// A worker holds the entry and is running the chunk in order.
    Running,
    /// Lost (an underflow or a mismatched close): the join emits no match
    /// again and every chunk runs from all states, until a re-seed.
    Lost,
}

/// `(nanoseconds, bytes)` summed over a stream's non-tail chunks per kind.
#[derive(Debug, Default)]
struct Costs {
    in_order: (u128, usize),
    speculative: (u128, usize),
    /// A speculative chunk is running while R is not known yet.
    probing: bool,
}

impl Costs {
    /// R: speculative ns/byte over in-order ns/byte — the worker count at
    /// which running chunks from all states breaks even with running them
    /// one after another (§3.3's convergence overhead, measured).
    fn ratio(&self) -> Option<f64> {
        let per_byte = |(ns, bytes): (u128, usize)| (bytes > 0).then(|| ns as f64 / bytes as f64);
        Some(per_byte(self.speculative)? / per_byte(self.in_order)?.max(f64::MIN_POSITIVE))
    }
}

/// How a worker runs a chunk.
#[derive(Debug)]
pub enum Run {
    /// The head, from its exact entry, on one path.
    InOrder(Entry),
    /// From all states; `head` when the chunk is the relay's own (its path
    /// is lost) rather than one ahead of it.
    Speculative { head: bool },
}

impl Run {
    /// Runs chunk `index`, `slice` at stream offset `offset`, this way: its
    /// output, and the report for [`Sched::complete`] less R's sample.
    pub fn process(
        self,
        t: &Transducer,
        slice: &[u8],
        offset: usize,
        index: usize,
        kind: EngineKind,
        spans: bool,
    ) -> (ChunkOutput, Ran) {
        let head = matches!(self, Run::InOrder(..) | Run::Speculative { head: true });
        let (out, exit, in_order) = match self {
            Run::InOrder((q, stack)) => {
                let (out, exit) = process_chunk_from(t, slice, offset, index, q, stack, spans);
                (out, exit, true)
            }
            Run::Speculative { .. } => {
                (process_chunk(t, slice, offset, index, false, kind, spans), None, false)
            }
        };
        (out, Ran { head, in_order, exit, sample: None })
    }
}

/// What a worker reports of a chunk it ran, besides the output.
#[derive(Debug)]
pub struct Ran {
    /// The chunk was the relay's own.
    pub head: bool,
    /// It ran in order; `exit` is then its exact exit.
    pub in_order: bool,
    pub exit: Option<Entry>,
    /// The chunk's cost and length, unless it is a tail.
    pub sample: Option<(Duration, usize)>,
}

/// One stream's scheduling state and the reorder buffer before its fold.
#[derive(Debug)]
pub struct Sched<J> {
    /// Submitted chunks no worker has started, in sequence order.
    waiting: VecDeque<J>,
    /// The relay: its chunk and where the path stands there.
    next: u64,
    path: Path,
    costs: Costs,
    /// Entries the path restarts from when the relay reaches a chunk.
    reseeds: BTreeMap<u64, Option<Entry>>,
    /// The stream sits on its driver's list of speculation candidates.
    listed: bool,
    /// Delivered outputs by sequence number; those at or past the relay are
    /// speculative ones it has not reached yet.
    ready: BTreeMap<u64, ChunkOutput>,
    /// The number of chunks the stream submits, once known.
    total: Option<u64>,
    halted: bool,
}

impl<J: Job> Sched<J> {
    /// A stream whose path starts in `initial` with an empty stack.
    pub fn new(initial: StateId) -> Sched<J> {
        Sched {
            waiting: VecDeque::new(),
            next: 0,
            path: Path::Known((initial, Vec::new())),
            costs: Costs::default(),
            reseeds: BTreeMap::new(),
            listed: false,
            ready: BTreeMap::new(),
            total: None,
            halted: false,
        }
    }

    /// Chunks come in sequence order; a halted stream drops them.
    pub fn submit(&mut self, job: J) {
        if !self.halted {
            self.waiting.push_back(job);
        }
    }

    /// Restarts the path from `entry` (`None`: lost) when the relay reaches
    /// chunk `seq` (not behind it), replacing an earlier re-seed there.
    pub fn reseed(&mut self, seq: u64, entry: Option<Entry>) {
        self.reseeds.insert(seq, entry);
    }

    /// The relay reaches chunk `seq`.
    fn enter(&mut self, seq: u64) {
        if let Some(entry) = self.reseeds.remove(&seq) {
            self.path = entry.map_or(Path::Lost, Path::Known);
        }
    }

    /// Carries the relay across delivered outputs by following each mapping
    /// from the exact entry, in the step that delivers, before any fold.
    fn pass_delivered(&mut self) {
        while self.ready.contains_key(&self.next) {
            self.enter(self.next);
            let path = std::mem::replace(&mut self.path, Path::Lost);
            if let (Path::Known((state, mut stack)), Some(out)) = (path, self.ready.get(&self.next))
            {
                if let Some(exit) = out.mapping.exit_from(state, &mut stack) {
                    self.path = Path::Known((exit, stack));
                }
            }
            self.next += 1;
        }
    }

    /// Claims the relay's chunk if it is waiting, handing over its entry.
    pub fn claim_head(&mut self) -> Option<(J, Run)> {
        if self.halted || self.waiting.front()?.seq() != self.next {
            return None;
        }
        let job = self.waiting.pop_front()?;
        self.enter(job.seq());
        let run = match std::mem::replace(&mut self.path, Path::Running) {
            Path::Known(entry) => Run::InOrder(entry),
            _ => {
                self.path = Path::Lost;
                Run::Speculative { head: true }
            }
        };
        Some((job, run))
    }

    /// Whether an otherwise idle worker may run a chunk from all states:
    /// never on one worker; always once the path is lost; else while R is
    /// below the worker count (the break-even), one probe until R is known.
    pub fn may_speculate(&self, workers: usize) -> bool {
        if workers < 2 || self.halted {
            return false;
        }
        match (&self.path, self.costs.ratio()) {
            (Path::Lost, _) => true,
            (_, Some(r)) => r < workers as f64,
            (_, None) => !self.costs.probing,
        }
    }

    /// Marks the stream listed when it newly has chunks to speculate on;
    /// `true` asks the driver to put it on its candidate list.
    pub fn list(&mut self, workers: usize) -> bool {
        let list = !self.listed
            && self.waiting.iter().any(|job| !job.is_tail())
            && self.may_speculate(workers);
        self.listed |= list;
        list
    }

    /// For a worker that would otherwise idle: the non-tail waiting chunk the
    /// in-order chain reaches last, when the stream may speculate. The flag
    /// says to list the stream again.
    pub fn take_speculative(&mut self, workers: usize) -> (Option<J>, bool) {
        self.listed = false;
        if !self.may_speculate(workers) {
            return (None, false);
        }
        let at = self.waiting.iter().rposition(|job| !job.is_tail());
        let job = at.and_then(|at| self.waiting.remove(at));
        self.costs.probing |= job.is_some() && self.costs.ratio().is_none();
        (job, self.list(workers))
    }

    /// A worker finished chunk `seq`: records R's sample, moves the relay
    /// and delivers the output. Returns the outputs delivered and not taken.
    pub fn complete(&mut self, seq: u64, out: ChunkOutput, ran: Ran) -> usize {
        if let Some((cost, bytes)) = ran.sample {
            let sum =
                if ran.in_order { &mut self.costs.in_order } else { &mut self.costs.speculative };
            *sum = (sum.0 + cost.as_nanos(), sum.1 + bytes);
        }
        self.costs.probing &= ran.in_order;
        if ran.head {
            self.next = seq + 1;
            if ran.in_order {
                self.path = ran.exit.map_or(Path::Lost, Path::Known);
            }
        }
        self.ready.insert(seq, out);
        self.pass_delivered();
        self.ready.len()
    }

    /// The fold side: chunk `seq`'s output if it was delivered, and how far
    /// the last delivered output is ahead of it.
    pub fn take(&mut self, seq: u64) -> Option<(ChunkOutput, u64)> {
        let out = self.ready.remove(&seq)?;
        let last = self.ready.keys().next_back().map_or(seq, |&last| last);
        Some((out, last.saturating_sub(seq)))
    }

    /// Announces that exactly `total` chunks were submitted.
    pub fn set_total(&mut self, total: u64) {
        self.total = Some(total);
    }

    /// Whether the fold at chunk `seq` is done: the stream ended before it,
    /// or halted.
    pub fn ended(&self, seq: u64) -> bool {
        self.halted || self.total.is_some_and(|total| seq >= total)
    }

    /// Nothing of the stream runs again.
    pub fn halt(&mut self) {
        self.halted = true;
        self.waiting.clear();
        self.path = Path::Lost;
    }

    /// The measured R, once both kinds of chunk have run.
    pub fn ratio(&self) -> Option<f64> {
        self.costs.ratio()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::ChunkStats;
    use crate::mapping::ChunkMapping;

    /// A chunk: its sequence number and whether it is a tail.
    #[derive(Debug, PartialEq)]
    struct Chunk(u64, bool);

    impl Job for Chunk {
        fn seq(&self) -> u64 {
            self.0
        }

        fn is_tail(&self) -> bool {
            self.1
        }
    }

    fn output(seq: u64) -> ChunkOutput {
        ChunkOutput {
            index: seq as usize,
            mapping: ChunkMapping::default(),
            depth_delta: 0,
            ladder: Vec::new(),
            end_offset: 0,
            stats: ChunkStats::default(),
        }
    }

    /// A stream with chunks `0..n` submitted, none a tail.
    fn stream(n: u64) -> Sched<Chunk> {
        let mut sched = Sched::new(0);
        (0..n).for_each(|seq| sched.submit(Chunk(seq, false)));
        sched
    }

    /// Runs the head in order, at `ns` per byte of a 1000-byte chunk.
    fn run_head(sched: &mut Sched<Chunk>, ns: u64) -> u64 {
        let (job, run) = sched.claim_head().expect("the head is waiting");
        assert!(matches!(run, Run::InOrder(_)));
        let sample = Some((Duration::from_nanos(ns * 1000), 1000));
        sched.complete(
            job.0,
            output(job.0),
            Ran { head: true, in_order: true, exit: Some((0, vec![])), sample },
        );
        job.0
    }

    /// Runs the farthest chunk from all states, at `ns` per byte.
    fn speculate(sched: &mut Sched<Chunk>, workers: usize, ns: u64) -> Option<u64> {
        let job = sched.take_speculative(workers).0?;
        let sample = Some((Duration::from_nanos(ns * 1000), 1000));
        sched.complete(
            job.0,
            output(job.0),
            Ran { head: false, in_order: false, exit: None, sample },
        );
        Some(job.0)
    }

    #[test]
    fn heads_are_claimed_in_order() {
        let mut sched = stream(3);
        let (first, run) = sched.claim_head().unwrap();
        assert_eq!(first, Chunk(0, false));
        assert!(matches!(run, Run::InOrder(_)));
        assert!(sched.claim_head().is_none(), "chunk 1 waits for chunk 0's exit");
        let ran = Ran { head: true, in_order: true, exit: Some((0, vec![])), sample: None };
        sched.complete(0, output(0), ran);
        assert_eq!(run_head(&mut sched, 1), 1);
        assert_eq!(run_head(&mut sched, 1), 2);
        assert!(sched.claim_head().is_none());
        assert_eq!(sched.take(1).map(|(_, lag)| lag), Some(1), "chunk 2 waits behind it");
        assert_eq!((0..3).filter_map(|seq| sched.take(seq)).count(), 2);
    }

    #[test]
    fn one_worker_never_speculates() {
        let mut sched = stream(4);
        assert!(!sched.may_speculate(1));
        assert!(!sched.list(1));
        assert_eq!(sched.take_speculative(1), (None, false));
        for seq in 0..4 {
            assert_eq!(run_head(&mut sched, 1), seq);
        }
    }

    #[test]
    fn only_one_probe_runs_while_r_is_unknown() {
        let mut sched = stream(4);
        assert!(sched.list(2));
        let (probe, relist) = sched.take_speculative(2);
        assert_eq!(probe, Some(Chunk(3, false)), "the farthest chunk is the probe");
        assert!(!relist);
        assert_eq!(sched.take_speculative(2), (None, false), "a second probe while R is unknown");
        assert!(sched.ratio().is_none());
    }

    #[test]
    fn speculation_stops_once_r_reaches_the_worker_count() {
        let mut sched = stream(6);
        run_head(&mut sched, 2);
        assert_eq!(speculate(&mut sched, 2, 3), Some(5));
        assert_eq!(sched.ratio(), Some(1.5));
        assert!(sched.may_speculate(2), "R 1.5 on two workers: speculation pays");
        assert_eq!(speculate(&mut sched, 2, 7), Some(4));
        assert_eq!(sched.ratio(), Some(2.5));
        assert!(!sched.may_speculate(2), "R 2.5 on two workers");
        assert_eq!(sched.take_speculative(2), (None, false));
        assert!(sched.may_speculate(4), "R 2.5 on four workers");
    }

    #[test]
    fn a_lost_path_speculates_on_every_chunk() {
        let mut sched = stream(5);
        let (job, _) = sched.claim_head().unwrap();
        // The in-order run lost its path (an underflow, say).
        let sample = Some((Duration::from_nanos(1000), 1000));
        sched.complete(job.0, output(0), Ran { head: true, in_order: true, exit: None, sample });
        // R is far above any worker count, and yet.
        assert_eq!(speculate(&mut sched, 2, 1000), Some(4));
        assert!(sched.may_speculate(2));
        let (head, run) = sched.claim_head().unwrap();
        assert_eq!(head, Chunk(1, false));
        assert!(matches!(run, Run::Speculative { head: true }), "the head runs from all states");
        assert!(!sched.may_speculate(1), "but never on one worker");
    }

    #[test]
    fn tails_are_never_speculated() {
        let mut sched = Sched::new(0);
        sched.submit(Chunk(0, false));
        sched.submit(Chunk(1, true));
        sched.claim_head().unwrap();
        assert!(!sched.list(2), "only a tail waits behind the head");
        assert_eq!(sched.take_speculative(2), (None, false));
    }

    #[test]
    fn a_reseed_restarts_the_path_at_its_chunk() {
        let mut sched = stream(3);
        sched.reseed(0, Some((5, vec![])));
        let (job, run) = sched.claim_head().unwrap();
        assert!(matches!(run, Run::InOrder((5, _))), "a re-seed before the first chunk");
        let ran = Ran { head: true, in_order: true, exit: Some((6, vec![])), sample: None };
        sched.complete(job.0, output(0), ran);
        // Scheduled once chunk 0 ran: the relay enters chunk 1 only when it
        // claims it.
        sched.reseed(1, Some((7, vec![1, 2])));
        sched.reseed(2, None);
        let (_, run) = sched.claim_head().unwrap();
        assert!(matches!(run, Run::InOrder((7, ref stack)) if stack == &[1, 2]));
        let ran = Ran { head: true, in_order: true, exit: Some((7, vec![])), sample: None };
        sched.complete(1, output(1), ran);
        let (_, run) = sched.claim_head().unwrap();
        assert!(matches!(run, Run::Speculative { .. }), "a re-seed to no entry loses the path");
    }

    #[test]
    fn a_halted_stream_runs_nothing_and_ends() {
        let mut sched = stream(3);
        sched.set_total(3);
        assert!(!sched.ended(0) && sched.ended(3));
        sched.halt();
        assert!(sched.claim_head().is_none());
        assert!(!sched.may_speculate(4));
        sched.submit(Chunk(3, false));
        assert!(sched.ended(0));
    }
}
