//! The double-tree representation of a mapping (§4.2, Algs 3–6, Figs 5/6).
//!
//! A naive mapping engine performs one transition per entry per input symbol,
//! i.e. work proportional to the number of possible starting states. The key
//! observation of §4.2 is that the per-symbol transition function depends only
//! on the *finishing* state and the topmost symbol of the *finishing* stack,
//! so all entries that share a finishing state can be processed at once.
//!
//! The structure is two trees joined at their leaves:
//!
//! * the **finish tree**: its first level holds the distinct finishing states;
//!   deeper levels hold finishing-stack symbols (level 2 = top of stack);
//! * the **start tree**: its first level holds starting states; deeper levels
//!   hold starting-stack symbols in consumption order.
//!
//! Every root-to-root path is one map entry. Because all entries consume the
//! same event sequence, their stacks always have equal length, so all start
//! leaves sit at the same depth and every finish node either links directly to
//! start leaves (empty finish stack) or has children (non-empty stack), never
//! both.
//!
//! Per input symbol the engine touches only the first level of the finish
//! tree: `fpush` puts a fresh node above a first-level node, `fpop` promotes
//! the children of one (or fans out through `funknown` when the stack is
//! empty), and `add_node` merges nodes that end up with the same state so
//! redundant computation is never repeated.
//!
//! ## The shared output tape
//!
//! A match is written once, to the chunk's log (`OutputTape`). Every node
//! holds a `Tape` — a reference into that log — whose records belong to
//! every entry through the node; an entry's output is the concatenation start
//! root → start leaf → deepest finish node → first-level node, which is time
//! order. Three rules move references, never matches, so that a record never
//! reaches an entry that joined a node later: `fpop` appends the popped
//! node's tape to each promoted child's; a merge first pushes both nodes'
//! tapes one level down; `funknown` shares the node's tape with every
//! fanned-out node.
//!
//! ## The arena
//!
//! Nodes live in flat `Vec`s linked by `u32` indices; popped finish nodes go
//! on a free list, and same-state nodes are found through an epoch-stamped
//! slot per state. A tree is scratch: `reset` keeps the capacity, so a worker
//! reuses one tree for every chunk.

use crate::mapping::{ChunkMapping, ChunkMatch, CompactEntry, OutputTape, Tape, NIL};
use ppt_automaton::{StateId, Transducer};
use ppt_xmlstream::Symbol;

#[derive(Debug, Clone, Copy)]
struct StartNode {
    /// Starting state (first level) or consumed stack symbol (deeper levels).
    symbol: StateId,
    /// Parent start node (towards the start root); `NIL` on the first level.
    parent: u32,
    /// Matches pushed down to the entries through this node.
    tape: Tape,
    /// Next start leaf of the same finish node.
    next_leaf: u32,
}

#[derive(Debug, Clone, Copy)]
struct FinishNode {
    /// Finishing state (first level) or pushed stack symbol (deeper levels).
    state: StateId,
    /// Matches recorded for every entry below this node.
    tape: Tape,
    /// First child: a deeper stack symbol (level 2 = top of the stack).
    child: u32,
    /// First start leaf, on the deepest level only (`child == NIL`).
    leaf: u32,
    /// Next sibling, or next free node.
    next: u32,
}

/// The double tree. One instance processes one chunk at a time.
#[derive(Debug, Clone, Default)]
pub struct DoubleTree {
    start: Vec<StartNode>,
    finish: Vec<FinishNode>,
    /// Head of the free list of finish nodes.
    free: u32,
    /// Current first level of the finish tree (children of the finish root).
    level1: Vec<u32>,
    /// The first level being built by the current step.
    next_level1: Vec<u32>,
    /// `(epoch, node)` per state: the first-level node of that state the
    /// current step has made, valid while the stamp equals `epoch`.
    slots: Vec<(u32, u32)>,
    epoch: u32,
    output: OutputTape,
    /// Lengths of every entry's start and finish stack.
    start_len: usize,
    finish_len: usize,
    /// Total number of `f` applications performed (per first-level node and
    /// per `funknown` fan-out) — the work measure compared against sequential
    /// transitions for the §3.3 overhead figure.
    pub transitions: u64,
    /// Peak number of first-level finish nodes observed.
    pub peak_level1: usize,
}

impl DoubleTree {
    /// A tree holding `(q₀, ε) → (q₀, ε, ε)` for the first chunk of the stream
    /// (`is_first`), or one identity entry per state for an out-of-order one.
    pub fn new(t: &Transducer, is_first: bool) -> DoubleTree {
        let mut tree = DoubleTree::default();
        tree.reset(t, is_first);
        tree
    }

    /// Re-initialises the tree as [`DoubleTree::new`] does, keeping capacity.
    pub fn reset(&mut self, t: &Transducer, is_first: bool) {
        self.start.clear();
        self.finish.clear();
        self.free = NIL;
        self.level1.clear();
        self.slots.clear();
        self.slots.resize(t.num_states() as usize, (0, NIL));
        self.epoch = 0;
        self.output = OutputTape::default();
        (self.start_len, self.finish_len, self.transitions) = (0, 0, 0);
        let states = if is_first { t.initial()..t.initial() + 1 } else { 0..t.num_states() };
        for q in states {
            let leaf = self.start.len() as u32;
            self.start.push(StartNode {
                symbol: q,
                parent: NIL,
                tape: Tape::EMPTY,
                next_leaf: NIL,
            });
            let node =
                self.alloc(FinishNode { state: q, tape: Tape::EMPTY, child: NIL, leaf, next: NIL });
            self.level1.push(node);
        }
        self.peak_level1 = self.level1.len();
    }

    /// Number of first-level finish nodes (= distinct finishing states).
    pub fn distinct_finish_states(&self) -> usize {
        self.level1.len()
    }

    /// Length of the match log so far.
    pub fn match_records(&self) -> usize {
        self.output.log.len()
    }

    /// Sets the element end of the log records `lo..hi` (those one opening
    /// tag produced, see [`DoubleTree::match_records`]).
    pub fn close_span(&mut self, (lo, hi): (usize, usize), end: usize) {
        self.output.log[lo..hi].iter_mut().for_each(|m| m.end = end);
    }

    fn alloc(&mut self, node: FinishNode) -> u32 {
        if self.free == NIL {
            self.finish.push(node);
            return self.finish.len() as u32 - 1;
        }
        let at = self.free;
        self.free = std::mem::replace(&mut self.finish[at as usize], node).next;
        at
    }

    fn release(&mut self, node: u32) {
        self.finish[node as usize].next = self.free;
        self.free = node;
    }

    /// Starts a step: swaps the first level out and invalidates the slots.
    fn begin_step(&mut self) -> Vec<u32> {
        self.epoch += 1;
        std::mem::take(&mut self.level1)
    }

    /// Ends a step: installs the new first level (recycling `old`'s buffer).
    fn end_step(&mut self, mut old: Vec<u32>) {
        old.clear();
        self.level1 = std::mem::replace(&mut self.next_level1, old);
        self.peak_level1 = self.peak_level1.max(self.level1.len());
    }

    /// Alg 3: inserts `node` into the new first level, or merges it into the
    /// node of the same state that is already there.
    fn add_node(&mut self, node: u32) {
        let slot = &mut self.slots[self.finish[node as usize].state as usize];
        if slot.0 == self.epoch {
            let dst = slot.1;
            self.merge_into(node, dst);
        } else {
            *slot = (self.epoch, node);
            self.next_level1.push(node);
        }
    }

    /// Merges finish node `src` into `dst` (same state). Every level of the
    /// finish tree is what is left of a former first level, so its states are
    /// distinct and `fpop` only ever restores such a level: two nodes of one
    /// state arise from `funknown` alone, and both hold start leaves. Both
    /// tapes are pushed down to those first, so `dst`'s earlier matches never
    /// reach the entries arriving from `src` and vice versa.
    fn merge_into(&mut self, src: u32, dst: u32) {
        let (s, d) = (self.finish[src as usize], self.finish[dst as usize]);
        assert!(s.child == NIL && d.child == NIL, "same-state nodes above the deepest level");
        if !d.tape.is_empty() {
            self.push_down(d.leaf, d.tape);
        }
        let tail = self.push_down(s.leaf, s.tape);
        self.start[tail as usize].next_leaf = d.leaf;
        self.finish[dst as usize].leaf = s.leaf;
        self.finish[dst as usize].tape = Tape::EMPTY;
        self.release(src);
    }

    /// Appends `tape` to every start leaf of the list at `leaf`; returns the
    /// last leaf of the list.
    fn push_down(&mut self, mut leaf: u32, tape: Tape) -> u32 {
        loop {
            let node = &mut self.start[leaf as usize];
            node.tape = self.output.then(node.tape, tape);
            if node.next_leaf == NIL {
                return leaf;
            }
            leaf = node.next_leaf;
        }
    }

    /// Writes the records entering `next` at `pos` emits; the tape of them.
    fn record(&mut self, t: &Transducer, next: StateId, pos: usize, rel_depth: i64) -> Tape {
        let outputs = t.output(next).iter();
        self.output.record(outputs.map(|&q| ChunkMatch {
            pos,
            end: usize::MAX,
            rel_depth,
            subquery: q,
        }))
    }

    /// Processes an opening tag (`fpush`, Alg 5) for every first-level node.
    pub fn step_open(&mut self, t: &Transducer, sym: Symbol, pos: usize, rel_depth: i64) {
        let old = self.begin_step();
        for &node in &old {
            self.transitions += 1;
            let next = t.step(self.finish[node as usize].state, sym);
            // The old node becomes the pushed symbol, keeping its subtree and
            // tape, below one fresh first-level node per new finishing state.
            // First-level states are distinct, so joining the nodes that
            // converge on `next` is a plain attach (Alg 3 with nothing to
            // merge), and their match is recorded once.
            let slot = self.slots[next as usize];
            if slot.0 == self.epoch {
                self.finish[node as usize].next = self.finish[slot.1 as usize].child;
                self.finish[slot.1 as usize].child = node;
            } else {
                self.finish[node as usize].next = NIL;
                let tape = self.record(t, next, pos, rel_depth);
                let fresh = FinishNode { state: next, tape, child: node, leaf: NIL, next: NIL };
                let fresh = self.alloc(fresh);
                self.slots[next as usize] = (self.epoch, fresh);
                self.next_level1.push(fresh);
            }
        }
        self.finish_len += 1;
        self.end_step(old);
    }

    /// Processes a closing tag (`fpop`/`funknown`, Alg 6) for every
    /// first-level node.
    pub fn step_close(&mut self, t: &Transducer, sym: Symbol) {
        let old = self.begin_step();
        for &node in &old {
            let n = self.finish[node as usize];
            if n.child == NIL {
                // funknown: fan out over every legally poppable symbol; each
                // start leaf grows a child recording the newly-assumed symbol.
                // Entries whose state admits no pop under `sym` are discarded
                // (their start leaves simply become unreachable).
                let sources = t.pop_sources(n.state, sym);
                self.transitions += sources.len().max(1) as u64;
                for &p in sources {
                    let (mut leaf, mut head) = (n.leaf, NIL);
                    while leaf != NIL {
                        let grown = StartNode {
                            symbol: p,
                            parent: leaf,
                            tape: Tape::EMPTY,
                            next_leaf: head,
                        };
                        head = self.start.len() as u32;
                        self.start.push(grown);
                        leaf = self.start[leaf as usize].next_leaf;
                    }
                    let fanned =
                        FinishNode { state: p, tape: n.tape, child: NIL, leaf: head, next: NIL };
                    let fanned = self.alloc(fanned);
                    self.add_node(fanned);
                }
            } else {
                // fpop: promote the child holding the popped symbol `z`
                // (δpop(state, sym, z) = z, so its state needs no update);
                // children holding symbols that cannot be popped here are
                // impossible execution paths and are discarded (their nodes
                // stay unreachable until the next `reset`).
                let mut c = n.child;
                while c != NIL {
                    self.transitions += 1;
                    let child = &mut self.finish[c as usize];
                    let next = child.next;
                    if t.step(child.state, sym) == n.state {
                        child.tape = self.output.then(child.tape, n.tape);
                        self.add_node(c);
                    }
                    c = next;
                }
            }
            self.release(node);
        }
        match self.finish_len {
            0 => self.start_len += 1,
            _ => self.finish_len -= 1,
        }
        self.end_step(old);
    }

    /// Probe transition for synthetic attribute/text symbols: records outputs
    /// without modifying the tree.
    pub fn step_probe(&mut self, t: &Transducer, sym: Symbol, pos: usize, rel_depth: i64) {
        for i in 0..self.level1.len() {
            self.transitions += 1;
            let node = self.level1[i] as usize;
            let next = t.step(self.finish[node].state, sym);
            let emitted = self.record(t, next, pos, rel_depth);
            self.finish[node].tape = self.output.then(self.finish[node].tape, emitted);
        }
    }

    /// Extracts the mapping represented by the tree, taking the output tape
    /// with it (the tree must be [`DoubleTree::reset`] before further use).
    pub fn extract(&mut self) -> ChunkMapping {
        let (mut entries, mut stacks) = (Vec::new(), Vec::new());
        // Depth-first over the finish tree: `(node, depth, tape of the
        // ancestors)`; `path[..depth]` holds the ancestors' states, first
        // level first.
        let mut path: Vec<StateId> = Vec::new();
        let mut todo: Vec<(u32, usize, Tape)> =
            self.level1.iter().map(|&n| (n, 0, Tape::EMPTY)).collect();
        while let Some((node, depth, above)) = todo.pop() {
            let n = self.finish[node as usize];
            path.truncate(depth);
            path.push(n.state);
            let tape = self.output.then(n.tape, above);
            let mut c = n.child;
            while c != NIL {
                todo.push((c, depth + 1, tape));
                c = self.finish[c as usize].next;
            }
            let mut leaf = n.leaf;
            while leaf != NIL {
                // Walk the start tree upwards: the leaf is the last consumed
                // stack symbol, the first-level ancestor the starting state.
                let (at, mut s, mut outputs) =
                    (stacks.len(), self.start[leaf as usize], Tape::EMPTY);
                leaf = s.next_leaf;
                loop {
                    outputs = self.output.then(s.tape, outputs);
                    if s.parent == NIL {
                        break;
                    }
                    stacks.push(s.symbol);
                    s = self.start[s.parent as usize];
                }
                stacks[at..].reverse();
                // The finish stack wants its top (level 2) at the end.
                stacks.extend(path[1..].iter().rev());
                entries.push(CompactEntry {
                    start_state: s.symbol,
                    finish_state: path[0],
                    stacks: at as u32,
                    tape: self.output.then(outputs, tape),
                });
            }
        }
        // The mapping can wait behind other chunks until the join reaches it
        // — a speculative one behind every chunk the session has in flight —
        // so it keeps none of the spare capacity growing left (on XMark, a
        // third of what a chunk's mapping held).
        let mut tape = std::mem::take(&mut self.output);
        tape.shrink_to_fit();
        entries.shrink_to_fit();
        stacks.shrink_to_fit();
        ChunkMapping::new(entries, stacks, self.start_len, self.finish_len, tape)
    }

    /// Bytes of tree and tape the current chunk has used: arena nodes, slot
    /// table, first level, match log and tape nodes. Per §5.2 the thread-local
    /// trees are small enough to stay cache-resident; this is the quantity the
    /// Fig 9 working-set proxy reports for the PP-Transducer.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.start.len() * size_of::<StartNode>()
            + self.finish.len() * size_of::<FinishNode>()
            + self.slots.len() * size_of::<(u32, u32)>()
            + 2 * self.peak_level1 * size_of::<u32>()
            + self.output.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{MapEntry, Mapping};
    use ppt_xmlstream::{Lexer, XmlEvent};

    fn paper() -> Transducer {
        Transducer::from_queries(&["/a/b/c"]).unwrap()
    }

    /// Runs both engines over the same bytes and compares the extracted
    /// mappings structurally.
    fn run_both(t: &Transducer, bytes: &[u8], first: bool) -> (Mapping, Mapping) {
        let mut naive = if first { Mapping::initial(t) } else { Mapping::identity(t) };
        let mut tree = DoubleTree::new(t, first);
        let mut depth = 0i64;
        for ev in Lexer::tags_only(bytes) {
            match ev {
                XmlEvent::Open { name, pos } => {
                    depth += 1;
                    let sym = t.classify_name(name);
                    naive.step_open(t, sym, pos, depth);
                    tree.step_open(t, sym, pos, depth);
                }
                XmlEvent::Close { name, .. } => {
                    depth -= 1;
                    let sym = t.classify_name(name);
                    naive.step_close(t, sym);
                    tree.step_close(t, sym);
                }
                _ => {}
            }
        }
        let mut extracted = tree.extract().to_mapping();
        naive.normalise();
        extracted.normalise();
        (naive, extracted)
    }

    #[test]
    fn tree_matches_naive_on_first_chunk() {
        let t = paper();
        let (naive, tree) = run_both(&t, b"<a><b><d></d></b>", true);
        assert_eq!(naive, tree);
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn tree_matches_naive_on_out_of_order_chunk() {
        let t = paper();
        let (naive, tree) = run_both(&t, b"<b><c></c></b></a>", false);
        assert_eq!(naive, tree);
        assert_eq!(tree.len(), 5, "M5 has five entries");
    }

    #[test]
    fn tree_matches_naive_on_malformed_chunks() {
        let t = Transducer::from_queries(&["/a/b/c", "//k", "/a//d"]).unwrap();
        let chunks: &[&[u8]] =
            &[b"</x></y><a><k/>", b"<b><c></c></b></a><a>", b"</q></q></q>", b"<a><b>", b""];
        for chunk in chunks {
            let (naive, tree) = run_both(&t, chunk, false);
            assert_eq!(naive, tree, "divergence on chunk {:?}", String::from_utf8_lossy(chunk));
        }
    }

    #[test]
    fn tree_performs_fewer_transitions_than_naive_entry_work() {
        // The whole point of the tree (§4.2): per-symbol work is proportional
        // to the number of distinct finishing states, not the number of
        // entries.
        let t = Transducer::from_queries(&["/a/b/c/d/e", "//k//m", "/x/y"]).unwrap();
        let mut doc = Vec::new();
        for _ in 0..50 {
            doc.extend_from_slice(b"<a><b><c><d><e></e></d></c></b><k><m></m></k></a>");
        }
        let mut naive = Mapping::identity(&t);
        let mut tree = DoubleTree::new(&t, false);
        let mut naive_transitions = 0u64;
        for ev in Lexer::tags_only(&doc) {
            match ev {
                XmlEvent::Open { name, pos } => {
                    let sym = t.classify_name(name);
                    naive_transitions += naive.step_open(&t, sym, pos, 0);
                    tree.step_open(&t, sym, pos, 0);
                }
                XmlEvent::Close { name, .. } => {
                    let sym = t.classify_name(name);
                    naive_transitions += naive.step_close(&t, sym);
                    tree.step_close(&t, sym);
                }
                _ => {}
            }
        }
        assert!(
            tree.transitions < naive_transitions,
            "tree ({}) must do less work than naive ({})",
            tree.transitions,
            naive_transitions
        );
        // And they still agree.
        let mut a = naive.clone();
        let mut b = tree.extract().to_mapping();
        a.normalise();
        b.normalise();
        assert_eq!(a, b);
    }

    #[test]
    fn matches_are_attributed_to_the_right_start_states() {
        let t = paper();
        let (_, tree) = run_both(&t, b"<b><c></c></b></a>", false);
        // Only the entry that started in the state "after /a/b was opened"
        // carries the /a/b/c match.
        let with_output: Vec<&MapEntry> =
            tree.entries.iter().filter(|e| !e.outputs.is_empty()).collect();
        assert_eq!(with_output.len(), 1);
        let a = t.classify_name(b"a");
        let s2 = t.step(t.initial(), a);
        assert_eq!(with_output[0].start_state, s2);
    }

    #[test]
    fn peak_level1_tracks_convergence() {
        let t = paper();
        let mut tree = DoubleTree::new(&t, false);
        assert_eq!(tree.distinct_finish_states(), t.num_states() as usize);
        tree.step_open(&t, t.classify_name(b"zzz"), 0, 1);
        assert_eq!(tree.distinct_finish_states(), 1, "everything converges on the sink");
        assert_eq!(tree.peak_level1, t.num_states() as usize);
    }

    #[test]
    fn probe_does_not_change_structure() {
        let t = Transducer::from_queries(&["/a/@id"]).unwrap();
        let mut tree = DoubleTree::new(&t, true);
        tree.step_open(&t, t.classify_name(b"a"), 0, 1);
        let before = tree.clone().extract().to_mapping();
        let sym = t.classify_attr(b"id").unwrap();
        tree.step_probe(&t, sym, 3, 2);
        let after = tree.extract().to_mapping();
        assert_eq!(before.len(), after.len());
        assert_eq!(after.entries[0].outputs.len(), 1);
        assert_eq!(before.entries[0].finish_stack, after.entries[0].finish_stack);
    }

    fn drive(tree: &mut DoubleTree, t: &Transducer, doc: &[u8]) {
        for ev in Lexer::tags_only(doc) {
            match ev {
                XmlEvent::Open { name, pos } => tree.step_open(t, t.classify_name(name), pos, 0),
                XmlEvent::Close { name, .. } => tree.step_close(t, t.classify_name(name)),
                _ => {}
            }
        }
    }

    #[test]
    fn arena_recycles_nodes_and_only_the_log_grows() {
        let t = Transducer::from_queries(&["/a/b/c", "//k"]).unwrap();
        let unit = b"<a><b><c/></b><k/></a>";
        let mut tree = DoubleTree::new(&t, false);
        drive(&mut tree, &t, &unit.repeat(20));
        let (nodes, records) = (tree.finish.len() + tree.start.len(), tree.match_records());
        drive(&mut tree, &t, &unit.repeat(180));
        // Every close returns the node its open took: the structure of a
        // chunk 10x longer is no bigger, only its matches are more.
        assert_eq!(tree.finish.len() + tree.start.len(), nodes);
        assert!(tree.match_records() > 5 * records);
        assert!(tree.heap_bytes() < 1 << 20, "tree should stay well under 1 MiB");
        // A tree is scratch: `reset` keeps the arena for the next chunk.
        let capacity = tree.finish.capacity();
        tree.reset(&t, false);
        assert_eq!((tree.finish.capacity(), tree.match_records()), (capacity, 0));
        assert_eq!(tree.distinct_finish_states(), t.num_states() as usize);
    }

    #[test]
    fn a_converged_chunk_stores_each_match_once() {
        // Every hypothesis survives this well-nested chunk and `//k` matches
        // on each of them; but `<x>` takes them all to one state, so each
        // `<k>` is recorded once, on the finish node they then share.
        let t = Transducer::from_queries(&["//k", "/a/b"]).unwrap();
        let mut tree = DoubleTree::new(&t, false);
        drive(&mut tree, &t, b"<x><k></k><k></k></x>");
        assert!(tree.distinct_finish_states() > 1);
        let entries = tree.distinct_finish_states();
        let records = tree.match_records();
        let mapping = tree.extract().to_mapping();
        let copies: usize = mapping.entries.iter().map(|e| e.outputs.len()).sum();
        assert_eq!(copies, 2 * entries, "each entry outputs both matches");
        assert!(records < copies, "{records} records for {copies} per-entry outputs");
    }
}
