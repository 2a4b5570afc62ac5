//! Front-end state: live path contexts and the fetch→rename queue.
//!
//! The context manager (paper §3.2.6, Fig. 7) keeps one entry per live
//! path with its fetch PC and status; here each entry additionally owns
//! the path's speculative front-end state (global history register,
//! return-address stack, oracle-trace cursor) and — once valid — the
//! path's active register map (§3.2.5).
//!
//! The fetch→rename queue uses the same structure-of-arrays layout as the
//! instruction window (see the `window` module docs): a power-of-two ring
//! of latch records addressed by monotone queue indices, plus a live
//! bitmask that prunes the resolution kill scan and carries corpse
//! status. Latch tags are lazy — the per-slot epoch test runs only at
//! kill events, never per instruction.

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

/// Branch bookkeeping attached to a fetched conditional branch or return.
#[derive(Debug, Clone)]
pub struct FetchBranchInfo {
    /// `true` for `ret`.
    pub is_return: bool,
    /// Predicted direction (`true` for returns).
    pub predicted_taken: bool,
    /// PC fetch continued at on the predicted path.
    pub predicted_target: usize,
    /// CTX history position allocated to this branch.
    pub position: usize,
    /// SEE created a divergence here.
    pub diverged: bool,
    /// The confidence estimate was low.
    pub conf_low: bool,
    /// Global history at prediction time.
    pub ghr_at_predict: u64,
    /// RAS state after this instruction's fetch effect (recovery state).
    pub ras_checkpoint: Ras,
    /// Oracle: the fetching path was on the correct execution path.
    pub was_on_correct: bool,
    /// Oracle trace index *after* this branch.
    pub oracle_idx_after: usize,
    /// Divergence only: the path slot created for the taken successor
    /// (the fetching slot itself continues as the not-taken successor).
    pub taken_path: Option<pp_ctx::PathId>,
}

/// An instruction travelling through the in-order front-end, as a
/// materialized record — the transfer format at the queue boundaries
/// (fetch builds one for [`FrontEnd::push`], rename receives one from
/// [`FrontEnd::pop_ready`]); inside the queue the fields live column-wise.
#[derive(Debug, Clone)]
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
    /// Branch bookkeeping. Boxed: it is the largest field by far and most
    /// instructions are not branches, so keeping it out of line shrinks
    /// every queue transfer.
    pub binfo: Option<Box<FetchBranchInfo>>,
    /// Squashed while queued.
    pub killed: bool,
}

/// Read-only view of one occupied queue latch (live or corpse), yielded
/// by the kill callback and the sanitizer's [`FrontEnd::debug_iter`].
pub struct FrontRef<'a> {
    /// Fetch identity.
    pub fid: FetchId,
    /// Static PC.
    pub pc: usize,
    /// The instruction.
    pub op: Op,
    /// Lazy CTX tag snapshot (see [`FetchedInst::ctx`]).
    pub ctx: CtxTag,
    /// Free-epoch stamp for the snapshot (see [`FetchedInst::born`]).
    pub born: u64,
    /// Fetching path.
    pub path: PathId,
    /// Fetch cycle.
    pub fetch_cycle: u64,
    /// Branch bookkeeping.
    pub binfo: Option<&'a FetchBranchInfo>,
    /// Squashed while queued.
    pub killed: bool,
}

/// The in-order front-end pipe between fetch and rename: a bounded FIFO
/// whose entries become eligible for rename `frontend_latency` cycles
/// after fetch. Its capacity models the fetch/decode stage latches.
///
/// SoA form: a power-of-two ring of latch records addressed by monotone
/// queue indices (`slot = index & ring_mask`), with a live bitmask (killed
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

    /// Latch payload records, `ring_mask + 1` long (one contiguous record
    /// per slot, for the same cache-locality reason as the window's
    /// `Slot`: every access wants most fields at once).
    slots: Vec<Latch>,

    /// Bit per slot: occupied and not killed.
    pub(crate) live_words: Vec<u64>,
    /// Snapshot scratch for the kill scan.
    kill_scratch: Vec<u64>,
}

/// One fetch-queue latch's field bundle.
#[derive(Debug)]
struct Latch {
    fid: FetchId,
    pc: usize,
    op: Op,
    ctx: CtxTag,
    born: u64,
    path: PathId,
    fetch_cycle: u64,
    binfo: Option<Box<FetchBranchInfo>>,
}

impl Latch {
    fn vacant() -> Latch {
        Latch {
            fid: FetchId(0),
            pc: 0,
            op: Op::Nop,
            ctx: CtxTag::root(),
            born: 0,
            path: PathId::from_index(0),
            fetch_cycle: 0,
            binfo: None,
        }
    }
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
            slots: (0..ring_len).map(|_| Latch::vacant()).collect(),
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

    fn scatter(&mut self, slot: usize, inst: FetchedInst) {
        debug_assert!(!inst.killed);
        debug_assert!(!self.live_bit(slot), "latch collision");
        self.slots[slot] = Latch {
            fid: inst.fid,
            pc: inst.pc,
            op: inst.op,
            ctx: inst.ctx,
            born: inst.born,
            path: inst.path,
            fetch_cycle: inst.fetch_cycle,
            binfo: inst.binfo,
        };
        self.live_words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Enqueue a fetched instruction.
    ///
    /// # Panics
    /// Panics if the front-end is full.
    pub fn push(&mut self, inst: FetchedInst) {
        assert!(!self.is_full(), "front-end overflow");
        let slot = self.tail as usize & self.ring_mask;
        self.tail += 1;
        self.scatter(slot, inst);
    }

    /// Put an instruction back at the head (a structural dispatch stall —
    /// the instruction stays in the last front-end latch). Exempt from the
    /// capacity check, since the instruction just came out of the queue.
    pub fn push_front(&mut self, inst: FetchedInst) {
        debug_assert!(self.head > 0, "push_front without a preceding pop");
        debug_assert!(self.len() < self.ring_mask + 1, "latch ring full");
        self.head -= 1;
        let slot = self.head as usize & self.ring_mask;
        self.scatter(slot, inst);
    }

    /// Gather the head latch into a `FetchedInst` and release it.
    fn evict_front(&mut self) -> FetchedInst {
        let slot = self.head as usize & self.ring_mask;
        let killed = !self.live_bit(slot);
        self.live_words[slot / 64] &= !(1u64 << (slot % 64));
        self.head += 1;
        let s = &mut self.slots[slot];
        FetchedInst {
            fid: s.fid,
            pc: s.pc,
            op: s.op,
            ctx: s.ctx,
            born: s.born,
            path: s.path,
            fetch_cycle: s.fetch_cycle,
            binfo: s.binfo.take(),
            killed,
        }
    }

    /// The oldest instruction, if it has spent `latency` cycles in the
    /// front-end by cycle `now` (killed instructions are dropped on the
    /// way and returned via the `dropped` callback).
    pub fn pop_ready(
        &mut self,
        now: u64,
        latency: u64,
        mut dropped: impl FnMut(&FetchedInst),
    ) -> Option<FetchedInst> {
        while self.head != self.tail {
            let slot = self.head as usize & self.ring_mask;
            if !self.live_bit(slot) {
                let dead = self.evict_front();
                dropped(&dead);
                continue;
            }
            if self.slots[slot].fetch_cycle + latency <= now {
                return Some(self.evict_front());
            }
            return None;
        }
        None
    }

    fn latch_ref(&self, slot: usize) -> FrontRef<'_> {
        let s = &self.slots[slot];
        FrontRef {
            fid: s.fid,
            pc: s.pc,
            op: s.op,
            ctx: s.ctx,
            born: s.born,
            path: s.path,
            fetch_cycle: s.fetch_cycle,
            binfo: s.binfo.as_deref(),
            killed: !self.live_bit(slot),
        }
    }

    /// Every queued instruction — corpses included — oldest first. For the
    /// sanitizer; not part of the pipeline.
    pub(crate) fn debug_iter(&self) -> impl Iterator<Item = FrontRef<'_>> {
        (self.head..self.tail).map(|idx| self.latch_ref(idx as usize & self.ring_mask))
    }

    /// Resolution bus over the front-end latches: mark wrong-path
    /// instructions killed, oldest first. The scan is pruned by the live
    /// bitmap; each live latch is tested with the selector's lazy-tag
    /// predicate (whose epoch filter spares stale leftover bits). The
    /// callback sees each newly killed instruction (to release CTX
    /// positions held by killed branches).
    pub fn kill_matching(&mut self, kill: &ResolutionKill, mut on_kill: impl FnMut(FrontRef<'_>)) {
        let mut snapshot = std::mem::take(&mut self.kill_scratch);
        snapshot.copy_from_slice(&self.live_words);
        for_each_masked_slot(
            self.head,
            self.tail,
            self.ring_mask,
            &snapshot,
            |slot, _| {
                let s = &self.slots[slot];
                if !kill.matches(&s.ctx, s.born) {
                    return;
                }
                self.live_words[slot / 64] &= !(1u64 << (slot % 64));
                on_kill(self.latch_ref(slot));
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
            binfo: None,
            killed: false,
        }
    }

    fn push(fe: &mut FrontEnd, i: FetchedInst) {
        fe.push(i);
    }

    #[test]
    fn latency_gates_pop() {
        let mut fe = FrontEnd::new(8);
        push(&mut fe, inst(0, CtxTag::root(), 10));
        assert!(fe.pop_ready(12, 5, |_| ()).is_none());
        assert!(fe.pop_ready(15, 5, |_| ()).is_some());
    }

    #[test]
    fn fifo_order() {
        let mut fe = FrontEnd::new(8);
        push(&mut fe, inst(1, CtxTag::root(), 0));
        push(&mut fe, inst(2, CtxTag::root(), 0));
        assert_eq!(fe.pop_ready(100, 1, |_| ()).unwrap().pc, 1);
        assert_eq!(fe.pop_ready(100, 1, |_| ()).unwrap().pc, 2);
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
        let popped = fe.pop_ready(100, 1, |_| dropped += 1).unwrap();
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
    fn push_front_restores_the_head() {
        let mut fe = FrontEnd::new(2);
        let t = CtxTag::root().with_position(0, true);
        push(&mut fe, inst(1, t, 0));
        push(&mut fe, inst(2, CtxTag::root(), 0));
        let popped = fe.pop_ready(100, 1, |_| ()).unwrap();
        assert_eq!(popped.pc, 1);
        fe.push_front(popped);
        assert!(fe.is_full());
        assert_eq!(fe.pop_ready(100, 1, |_| ()).unwrap().pc, 1);
        // The re-registration is live again: a kill finds the entry.
        let reg2 = fe.pop_ready(100, 1, |_| ()).unwrap();
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
            assert_eq!(fe.pop_ready(i + 10, 1, |_| ()).unwrap().pc, i as usize);
        }
        assert!(fe.is_empty());
    }
}
