//! Front-end state: live path contexts and the fetch→rename queue.
//!
//! The context manager (paper §3.2.6, Fig. 7) keeps one entry per live
//! path with its fetch PC and status; here each entry additionally owns
//! the path's speculative front-end state (global history register,
//! return-address stack, oracle-trace cursor) and — once valid — the
//! path's active register map (§3.2.5).
//!
//! The fetch→rename queue uses the same layout as the instruction window
//! (see the `window` module docs): a power-of-two ring of latch records
//! addressed by monotone queue indices, plus a live bitmask that prunes
//! the resolution kill scan and carries corpse status. Latch tags are
//! lazy — the per-slot epoch test runs only at kill events, never per
//! instruction.

use pp_ctx::{CtxTag, PathId, ResolutionKill};
use pp_isa::Op;

use crate::observer::FetchId;
use crate::ras::Ras;
use crate::regfile::RegMap;
use crate::window::for_each_masked_slot;

/// Per-path context: the CTX table entry of Fig. 7.
#[derive(Debug, Clone)]
pub struct PathCtx {
    /// Current CTX tag of instructions fetched on this path (extends at
    /// every conditional branch / return the path fetches).
    pub tag: CtxTag,
    /// Next fetch PC.
    pub pc: usize,
    /// `false` once the path ran past the text section or fetched `halt`.
    pub fetching: bool,
    /// Speculative global history register.
    pub ghr: u64,
    /// Speculative return-address stack.
    pub ras: Ras,
    /// The path's active register map. `None` between a divergence
    /// creating this path at fetch and the divergent branch reaching
    /// rename (which copies the parent map, §3.2.5); FIFO rename order
    /// guarantees it is `Some` before any of this path's instructions
    /// rename.
    pub regmap: Option<RegMap>,
    /// `true` while this path coincides with the architecturally correct
    /// execution (drives the oracle predictor / oracle confidence).
    pub on_correct: bool,
    /// Index of the next correct-path conditional branch in the oracle
    /// trace (meaningful while `on_correct`).
    pub oracle_idx: usize,
    /// Creation order; fetch bandwidth arbitration prioritizes smaller
    /// values (older paths), per §4.2.
    pub birth: u64,
    /// Merge-parked: this path reached the predicted reconvergence PC of
    /// the still-unresolved fork occupying this CTX position *after* the
    /// opposite arm did, and stopped fetching there (post-merge
    /// instructions are fetched once, by the arm that arrived first).
    /// Cleared — and fetch resumed — if the path survives the fork's
    /// resolution. `None` whenever merge prediction is off.
    pub merged_at: Option<usize>,
}

/// An instruction travelling through the in-order front-end: one latch
/// record. Fetch writes it into its latch ([`FrontEnd::push`]); rename reads
/// it there ([`FrontEnd::ready_head`]) and copies it into a window slot
/// before releasing the latch ([`FrontEnd::pop_head`]).
#[derive(Debug, Clone, Copy)]
pub struct FetchedInst {
    /// Unique fetch identity (observer correlation across stages).
    pub fid: crate::observer::FetchId,
    /// Static PC.
    pub pc: usize,
    /// The instruction.
    pub op: Op,
    /// CTX tag snapshotted at fetch. Lazy, like the window's entry tags:
    /// the branch-commit broadcast does not touch the queue — a stored bit
    /// is genuine iff its position has not been freed since
    /// [`born`](Self::born) (see the window module docs).
    pub ctx: CtxTag,
    /// Position-allocator free-epoch at fetch, interpreting
    /// [`ctx`](Self::ctx).
    pub born: u64,
    /// Fetching path (rename reads this path's register map).
    pub path: pp_ctx::PathId,
    /// Cycle the instruction was fetched (dispatch happens
    /// `frontend_latency` cycles later).
    pub fetch_cycle: u64,
    /// CTX history position of a conditional branch or indirect jump: the
    /// key of its branch record, which the simulator keeps in a table
    /// with one entry per position.
    pub branch: Option<u8>,
    /// Squashed while queued (mirrors the queue's live bitmask).
    pub killed: bool,
}

impl FetchedInst {
    fn vacant() -> FetchedInst {
        FetchedInst {
            fid: FetchId(0),
            pc: 0,
            op: Op::Nop,
            ctx: CtxTag::root(),
            born: 0,
            path: PathId::from_index(0),
            fetch_cycle: 0,
            branch: None,
            killed: false,
        }
    }
}

/// The in-order front-end pipe between fetch and rename: a bounded FIFO
/// whose entries become eligible for rename `frontend_latency` cycles
/// after fetch. Its capacity models the fetch/decode stage latches.
///
/// A power-of-two ring of latch records addressed by monotone queue
/// indices (`slot = index & ring_mask`), with a live bitmask (killed
/// instructions stay in their latches as corpses until rename drops them,
/// as in hardware) that prunes the kill broadcast's scan, exactly as on
/// the window.
#[derive(Debug)]
pub struct FrontEnd {
    /// Monotone index of the oldest occupied latch; equals `tail` when
    /// empty.
    head: u64,
    /// One past the newest occupied latch's index.
    tail: u64,
    capacity: usize,
    ring_mask: usize,

    /// Latch records, `ring_mask + 1` long (one contiguous record per
    /// slot, for the same cache-locality reason as the window's: every
    /// access wants most fields at once).
    slots: Vec<FetchedInst>,

    /// Bit per slot: occupied and not killed.
    pub(crate) live_words: Vec<u64>,
    /// Snapshot scratch for the kill scan.
    kill_scratch: Vec<u64>,
}

impl FrontEnd {
    /// A front-end holding at most `capacity` in-flight instructions.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "front-end capacity must be nonzero");
        let ring_len = capacity.next_power_of_two();
        let words = ring_len.div_ceil(64).max(1);
        FrontEnd {
            head: 0,
            tail: 0,
            capacity,
            ring_mask: ring_len - 1,
            slots: vec![FetchedInst::vacant(); ring_len],
            live_words: vec![0; words],
            kill_scratch: vec![0; words],
        }
    }

    /// Number of queued instructions (killed ones still occupy latches
    /// until rename drops them, as in hardware).
    pub fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// `true` when no instructions are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// `true` when the stage latches are full (fetch must stall).
    pub fn is_full(&self) -> bool {
        self.len() >= self.capacity
    }

    #[inline]
    fn live_bit(&self, slot: usize) -> bool {
        self.live_words[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    /// Monotone index of the oldest occupied latch (sanitizer
    /// introspection; meaningless when empty).
    pub(crate) fn head(&self) -> u64 {
        self.head
    }

    /// One past the monotone index of the newest occupied latch
    /// (sanitizer introspection).
    pub(crate) fn tail(&self) -> u64 {
        self.tail
    }

    /// Latch ring length (sanitizer introspection).
    pub(crate) fn ring_len(&self) -> usize {
        self.ring_mask + 1
    }

    /// Enqueue a fetched instruction, written straight into its latch.
    ///
    /// # Panics
    /// Panics if the front-end is full.
    #[inline]
    pub fn push(&mut self, inst: FetchedInst) {
        assert!(!self.is_full(), "front-end overflow");
        debug_assert!(!inst.killed);
        let slot = self.tail as usize & self.ring_mask;
        debug_assert!(!self.live_bit(slot), "latch collision");
        self.tail += 1;
        self.slots[slot] = inst;
        self.live_words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// The oldest live instruction, borrowed in its latch, if it has spent
    /// `latency` cycles in the front-end by cycle `now`. Killed
    /// instructions ahead of it are released on the way and reported to
    /// `dropped`. The latch stays occupied until [`pop_head`](Self::pop_head)
    /// (a rename stalled on a structural resource simply leaves it there).
    #[inline]
    pub fn ready_head(
        &mut self,
        now: u64,
        latency: u64,
        mut dropped: impl FnMut(&FetchedInst),
    ) -> Option<&FetchedInst> {
        while self.head != self.tail {
            let slot = self.head as usize & self.ring_mask;
            if !self.live_bit(slot) {
                self.head += 1;
                dropped(&self.slots[slot]);
                continue;
            }
            let inst = &self.slots[slot];
            return (inst.fetch_cycle + latency <= now).then_some(inst);
        }
        None
    }

    /// Release the head latch once rename has copied it out.
    ///
    /// # Panics
    /// Panics if the front-end is empty.
    #[inline]
    pub fn pop_head(&mut self) {
        assert!(self.head != self.tail, "pop from empty front-end");
        let slot = self.head as usize & self.ring_mask;
        debug_assert!(self.live_bit(slot), "popping a corpse");
        self.live_words[slot / 64] &= !(1u64 << (slot % 64));
        self.head += 1;
    }

    /// Every queued instruction — corpses included — oldest first. For the
    /// sanitizer; not part of the pipeline.
    pub(crate) fn debug_iter(&self) -> impl Iterator<Item = &FetchedInst> {
        (self.head..self.tail).map(|idx| &self.slots[idx as usize & self.ring_mask])
    }

    /// Resolution bus over the front-end latches: mark wrong-path
    /// instructions killed, oldest first. The scan is pruned by the live
    /// bitmap; each live latch is tested with the selector's lazy-tag
    /// predicate (whose epoch filter spares stale leftover bits). The
    /// callback sees each newly killed instruction (to release CTX
    /// positions held by killed branches).
    pub fn kill_matching(&mut self, kill: &ResolutionKill, mut on_kill: impl FnMut(&FetchedInst)) {
        let mut snapshot = std::mem::take(&mut self.kill_scratch);
        snapshot.copy_from_slice(&self.live_words);
        for_each_masked_slot(
            self.head,
            self.tail,
            self.ring_mask,
            &snapshot,
            |slot, _| {
                let s = &mut self.slots[slot];
                if !kill.matches(&s.ctx, s.born) {
                    return;
                }
                s.killed = true;
                self.live_words[slot / 64] &= !(1u64 << (slot % 64));
                on_kill(s);
            },
        );
        self.kill_scratch = snapshot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ctx::PathTable;

    fn inst(pc: usize, ctx: CtxTag, cycle: u64) -> FetchedInst {
        inst_born(pc, ctx, cycle, 0)
    }

    fn inst_born(pc: usize, ctx: CtxTag, cycle: u64, born: u64) -> FetchedInst {
        let mut t: PathTable<()> = PathTable::new(1);
        FetchedInst {
            fid: crate::observer::FetchId(pc as u64),
            pc,
            op: Op::Nop,
            ctx,
            born,
            path: t.allocate(()).unwrap(),
            fetch_cycle: cycle,
            branch: None,
            killed: false,
        }
    }

    fn push(fe: &mut FrontEnd, i: FetchedInst) {
        fe.push(i);
    }

    /// Take the ready head out of the queue, as rename does.
    fn pop_ready(
        fe: &mut FrontEnd,
        now: u64,
        latency: u64,
        dropped: impl FnMut(&FetchedInst),
    ) -> Option<FetchedInst> {
        let inst = fe.ready_head(now, latency, dropped).copied();
        if inst.is_some() {
            fe.pop_head();
        }
        inst
    }

    #[test]
    fn latency_gates_pop() {
        let mut fe = FrontEnd::new(8);
        push(&mut fe, inst(0, CtxTag::root(), 10));
        assert!(pop_ready(&mut fe, 12, 5, |_| ()).is_none());
        assert!(pop_ready(&mut fe, 15, 5, |_| ()).is_some());
    }

    #[test]
    fn fifo_order() {
        let mut fe = FrontEnd::new(8);
        push(&mut fe, inst(1, CtxTag::root(), 0));
        push(&mut fe, inst(2, CtxTag::root(), 0));
        assert_eq!(pop_ready(&mut fe, 100, 1, |_| ()).unwrap().pc, 1);
        assert_eq!(pop_ready(&mut fe, 100, 1, |_| ()).unwrap().pc, 2);
        assert!(fe.is_empty());
    }

    #[test]
    fn killed_instructions_are_dropped_and_reported() {
        let mut fe = FrontEnd::new(8);
        let wrong = CtxTag::root().with_position(0, true);
        push(&mut fe, inst(1, wrong, 0));
        push(&mut fe, inst(2, CtxTag::root(), 0));
        let mut killed = 0;
        let kill = ResolutionKill {
            pos: 0,
            dir: true,
            stale_before: 0,
        };
        fe.kill_matching(&kill, |_| killed += 1);
        assert_eq!(killed, 1);
        let mut dropped = 0;
        let popped = pop_ready(&mut fe, 100, 1, |_| dropped += 1).unwrap();
        assert_eq!(popped.pc, 2);
        assert_eq!(dropped, 1);
    }

    #[test]
    fn capacity_limit() {
        let mut fe = FrontEnd::new(2);
        push(&mut fe, inst(0, CtxTag::root(), 0));
        push(&mut fe, inst(1, CtxTag::root(), 0));
        assert!(fe.is_full());
    }

    #[test]
    fn stalled_head_stays_queued() {
        let mut fe = FrontEnd::new(2);
        let t = CtxTag::root().with_position(0, true);
        push(&mut fe, inst(1, t, 0));
        push(&mut fe, inst(2, CtxTag::root(), 0));
        // A structural rename stall: the head is read but not popped.
        assert_eq!(fe.ready_head(100, 1, |_| ()).unwrap().pc, 1);
        assert!(fe.is_full());
        assert_eq!(pop_ready(&mut fe, 100, 1, |_| ()).unwrap().pc, 1);
        let reg2 = pop_ready(&mut fe, 100, 1, |_| ()).unwrap();
        assert_eq!(reg2.pc, 2);
    }

    #[test]
    fn kill_spares_stale_snapshot_bits() {
        // Lazy latch tags: a bit whose position was freed after the
        // snapshot (born < stale_before) is a leftover from a previous
        // allocation and must not match the selector.
        let mut fe = FrontEnd::new(4);
        let t = CtxTag::root().with_position(0, true);
        push(&mut fe, inst_born(1, t, 0, 3)); // snapshot predates the free
        push(&mut fe, inst_born(2, t, 0, 7)); // fresh allocation of position 0
        let kill = ResolutionKill {
            pos: 0,
            dir: true,
            stale_before: 5,
        };
        let mut killed = Vec::new();
        fe.kill_matching(&kill, |i| killed.push(i.pc));
        assert_eq!(killed, vec![2]);
    }

    #[test]
    fn ring_wraps_cleanly() {
        let mut fe = FrontEnd::new(3); // ring of 4
        for i in 0..20u64 {
            push(&mut fe, inst(i as usize, CtxTag::root(), i));
            assert_eq!(
                pop_ready(&mut fe, i + 10, 1, |_| ()).unwrap().pc,
                i as usize
            );
        }
        assert!(fe.is_empty());
    }
}
