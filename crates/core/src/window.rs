//! The central instruction window / reorder buffer (paper §3.1, §3.2.3).
//!
//! A unified window in allocation order: instructions enter at rename
//! (in fetch order, which is program order per path), issue out of order,
//! and leave at the head in order. The per-entry control-flow state machine
//! of Fig. 6 is realized by [`Window::kill_matching`] (branch resolution
//! bus) and the head entry's tag being cleared as it commits.
//!
//! # Layout: a record ring plus status bitmasks
//!
//! Entries live in a dense ring keyed by *slot index* — a power of two
//! long, addressed by `seq & (ring_len - 1)`, which works because
//! dispatch sequence numbers in the window are contiguous (each dispatch
//! pushes exactly one entry; entries, corpses included, leave only from
//! the front). Each slot holds one contiguous [`WinEntry`] record (every
//! access wants most fields at once, so splitting it into per-field
//! columns just multiplies cache misses); alongside the record ring, two
//! bitmask families track the broadcast-queried status, one bit per
//! slot:
//!
//! * `live_words` — occupied-and-not-killed slots,
//! * `ready_words` — issue candidates (live, `Waiting`, operands ready,
//!   not parked).
//!
//! With those, the broadcast-shaped operations are mask walks: the issue
//! select scan visits only `ready_words` set bits, commit/drain clears
//! single bits, and the resolution kill prunes its scan with `live_words`
//! (dead words are skipped 64 slots at a time) before applying the
//! per-slot tag test.
//!
//! # Parking
//!
//! A candidate the issue stage cannot issue until some older entry acts
//! (a load the store buffer blocks) is *parked* on that entry
//! ([`IssueOutcome::Park`]): its candidate bit is cleared and the pair is
//! noted in a short list. The entry is offered again exactly when its
//! blocker issues, commits, or is killed — the three events after which
//! the blocker's hold can change — instead of being re-checked every
//! cycle. This is the register wakeup bus applied to memory ordering.
//!
//! There is deliberately **no** per-`(position, direction)` registration
//! index on the hot path: maintaining one costs a loop over every genuine
//! tag bit (dozens, with a full window of unresolved branches) at each
//! push *and* pop — a per-instruction tax — whereas resolution kills are
//! per-mispredict events for which a live-masked scan of ≤ ring slots is
//! already cheap. (Measured: per-bit registration cost ~3x aggregate
//! simulator throughput; the scan is invisible.)
//!
//! # Lazy entry tags
//!
//! Entry tags are **lazy**: the branch-commit invalidation broadcast does
//! not rewrite the stored `ctx` field (that rewrite was once the hottest
//! loop in the simulator). Each entry records the position allocator's
//! free-epoch clock at dispatch ([`WinEntry::born`]); a stored tag bit is
//! genuine iff its position has not been freed since, which is what
//! [`pp_ctx::ResolutionKill::matches`] tests slot by slot during the kill
//! scan — no commit-time broadcast over the window at all.

use pp_ctx::{CtxTag, PathId, ResolutionKill};
use pp_isa::{Op, Reg, Width};

use crate::observer::FetchId;
use crate::regfile::PhysReg;

/// Monotone dispatch sequence number: program order across all paths
/// (older = smaller; survivors of kills are totally ordered in program
/// order).
pub type Seq = u64;

/// Execution status of a window entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// Waiting for operands / functional unit / memory ordering.
    Waiting,
    /// Executing; result arrives at `complete_at`.
    Issued,
    /// Result written back; eligible to commit when it reaches the head.
    Done,
}

/// Destination register rename record.
#[derive(Debug, Clone, Copy)]
pub struct DestInfo {
    /// Logical destination.
    pub logical: Reg,
    /// Newly allocated physical register.
    pub new: PhysReg,
    /// Previous mapping, recycled at commit (paper §3.1).
    pub old: PhysReg,
}

/// Memory access bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct MemInfo {
    /// Byte address (known once the base register was read at issue).
    pub addr: Option<u64>,
    /// Access width.
    pub width: Width,
    /// Loads: `true` if the value was forwarded from the store buffer.
    pub forwarded: bool,
}

/// One instruction window entry: the record each window slot holds.
///
/// Rename builds it in its slot from the front-end latch
/// ([`Window::push`]); commit reads it there after releasing the slot
/// ([`Window::pop_head`]).
#[derive(Debug, Clone, Copy)]
pub struct WinEntry {
    /// Fetch identity (observer correlation across stages).
    pub fid: FetchId,
    /// Program-order sequence number.
    pub seq: Seq,
    /// Static PC.
    pub pc: usize,
    /// Decoded instruction.
    pub op: Op,
    /// CTX tag as captured at dispatch. Lazy: never rewritten by the
    /// branch-commit broadcast — interpret together with [`born`](Self::born).
    pub ctx: CtxTag,
    /// Position-allocator free-epoch at dispatch. A bit of [`ctx`](Self::ctx)
    /// at position `p` is genuine iff `allocator.last_free_tick(p) <= born`.
    pub born: u64,
    /// Path the instruction was fetched on (statistics only).
    pub path: PathId,
    /// Renamed source physical registers.
    pub srcs: [Option<PhysReg>; 2],
    /// Renamed destination, if the instruction writes a register.
    pub dest: Option<DestInfo>,
    /// Execution status.
    pub state: EntryState,
    /// Writeback cycle (valid while `Issued`).
    pub complete_at: u64,
    /// Computed result (valid once issued, for register-writing ops).
    pub result: Option<i64>,
    /// CTX history position of a conditional branch or indirect jump: the
    /// key of its branch record (see [`FetchedInst::branch`]).
    ///
    /// [`FetchedInst::branch`]: crate::FetchedInst::branch
    pub branch: Option<u8>,
    /// Memory bookkeeping (loads and stores).
    pub mem: Option<MemInfo>,
    /// Squashed by a resolution kill; skipped by commit and reclaimed
    /// (mirrors the window's live bitmask).
    pub killed: bool,
}

impl WinEntry {
    fn vacant() -> WinEntry {
        WinEntry {
            fid: FetchId(0),
            seq: 0,
            pc: 0,
            op: Op::Nop,
            ctx: CtxTag::root(),
            born: 0,
            path: PathId::from_index(0),
            srcs: [None, None],
            dest: None,
            state: EntryState::Waiting,
            complete_at: 0,
            result: None,
            branch: None,
            mem: None,
            killed: false,
        }
    }
}

/// What the issue stage did with a candidate the select scan offered it
/// (see [`Window::for_each_issuable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueOutcome {
    /// The entry issued; drop its candidate bit, and offer the entries
    /// parked on it again.
    Issued,
    /// The entry cannot issue before the older live entry with this
    /// sequence number issues, commits or is killed: drop its candidate
    /// bit and park it on that entry until one of those happens.
    Park(Seq),
    /// The entry lost on a structural resource; keep its bit for next
    /// cycle's scan.
    Keep,
    /// As [`Keep`](Self::Keep), and abandon the scan: no later candidate
    /// can issue this cycle either.
    Stop,
}

/// Mutable view of one live window entry, lent out by the select scan,
/// the wakeup path, and [`Window::get_live_by_seq`].
///
/// Identity and rename fields are plain copies (the pipeline never
/// rewrites them after dispatch); execution state is borrowed mutably.
/// Liveness and issue candidacy are *not* exposed — those are mirrored in
/// the window's bitmasks and change only through [`Window::push`],
/// [`Window::pop_head`], [`Window::kill_matching`],
/// [`Window::for_each_issuable`], and [`Window::wake`].
pub struct EntryMut<'a> {
    /// Fetch identity.
    pub fid: FetchId,
    /// Program-order sequence number.
    pub seq: Seq,
    /// Static PC.
    pub pc: usize,
    /// Decoded instruction. Borrowed, not copied: the select scan visits
    /// every candidate each cycle, and `Op`/`CtxTag` are the two wide
    /// fields of the record.
    pub op: &'a Op,
    /// Lazy CTX tag snapshot (see [`WinEntry::ctx`]).
    pub ctx: &'a CtxTag,
    /// Free-epoch stamp for the snapshot (see [`WinEntry::born`]).
    pub born: u64,
    /// Fetch path.
    pub path: PathId,
    /// Renamed sources.
    pub srcs: [Option<PhysReg>; 2],
    /// Renamed destination.
    pub dest: Option<DestInfo>,
    /// Execution status.
    pub state: &'a mut EntryState,
    /// Writeback cycle.
    pub complete_at: &'a mut u64,
    /// Computed result.
    pub result: &'a mut Option<i64>,
    /// Branch record position (see [`WinEntry::branch`]).
    pub branch: Option<u8>,
    /// Memory bookkeeping.
    pub mem: &'a mut Option<MemInfo>,
}

/// The instruction window (see the module docs).
#[derive(Debug)]
pub struct Window {
    /// Seq of the oldest occupied slot; equals `back_seq` when empty.
    front_seq: Seq,
    /// One past the newest occupied slot's seq.
    back_seq: Seq,
    /// Live (not killed) occupied slots.
    live: usize,
    /// Live-entry capacity (the architected window size). The ring can be
    /// longer: corpses occupy slots until they reach the front.
    capacity: usize,
    /// `ring_len - 1`; `slot(seq) = seq & ring_mask`.
    ring_mask: usize,

    /// Slot records, `ring_mask + 1` long (see the module docs).
    slots: Vec<WinEntry>,

    /// Bit per slot: occupied and not killed.
    pub(crate) live_words: Vec<u64>,
    /// Bit per slot: issue candidate (live, `Waiting`, operands ready, not
    /// parked; it may still lose on a functional unit — the bit stays set
    /// and it retries next cycle).
    pub(crate) ready_words: Vec<u64>,
    /// Parked entries as `(entry seq, blocker seq)`, unordered: live,
    /// waiting, operands ready, and not candidates until their blocker
    /// issues, commits or is killed (see the module docs).
    pub(crate) parked: Vec<(Seq, Seq)>,
}

/// Bits `lo..hi` of one 64-bit word (`0 <= lo < hi <= 64`).
#[inline]
fn range_mask(lo: usize, hi: usize) -> u64 {
    let upper = if hi == 64 { !0 } else { (1u64 << hi) - 1 };
    upper & !((1u64 << lo) - 1)
}

/// The words covering the ring span `[front, back)` (monotone indices;
/// `slot = index & ring_mask`), in *span order* — oldest occupant first,
/// even when the span wraps around the ring — each paired with the mask
/// of its in-span bits. A word the wrapped span enters twice is listed
/// twice, with disjoint masks. Shared by the window and the front-end
/// queue: this is what turns their age-ordered broadcasts into mask
/// walks.
fn span_words(front: u64, back: u64, ring_mask: usize) -> impl Iterator<Item = (usize, u64)> {
    let len = ring_mask + 1;
    let front_slot = front as usize & ring_mask;
    let span = (back - front) as usize;
    debug_assert!(span <= len);
    let segments = if front_slot + span <= len {
        [(front_slot, front_slot + span), (0, 0)]
    } else {
        [(front_slot, len), (0, front_slot + span - len)]
    };
    segments
        .into_iter()
        .filter(|&(s, e)| s < e)
        .flat_map(|(s, e)| {
            (s / 64..=(e - 1) / 64).map(move |w| {
                let lo = s.max(w * 64) - w * 64;
                let hi = e.min(w * 64 + 64) - w * 64;
                (w, range_mask(lo, hi))
            })
        })
}

/// Visit the set bits of `words` restricted to the ring span
/// `[front, back)` in span order (see [`span_words`]), as `(slot, index)`
/// pairs.
pub(crate) fn for_each_masked_slot(
    front: u64,
    back: u64,
    ring_mask: usize,
    words: &[u64],
    mut visit: impl FnMut(usize, u64),
) {
    let front_slot = front as usize & ring_mask;
    for (w, in_span) in span_words(front, back, ring_mask) {
        let mut word = words[w] & in_span;
        while word != 0 {
            let slot = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            let off = slot.wrapping_sub(front_slot) & ring_mask;
            visit(slot, front + off as u64);
        }
    }
}

/// Whether `slot`'s bit is set in a one-bit-per-slot mask family.
#[inline]
fn has_bit(words: &[u64], slot: usize) -> bool {
    words[slot / 64] & (1u64 << (slot % 64)) != 0
}

impl Window {
    /// A window with `capacity` live entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be nonzero");
        let ring_len = capacity.next_power_of_two();
        let words = ring_len.div_ceil(64).max(1);
        Window {
            front_seq: 0,
            back_seq: 0,
            live: 0,
            capacity,
            ring_mask: ring_len - 1,
            slots: vec![WinEntry::vacant(); ring_len],
            live_words: vec![0; words],
            ready_words: vec![0; words],
            // The kill-scan scratch words this list replaced were 32
            // bytes, and so are two pairs: `new` allocates what it did
            // (perfbench's set-up time is sensitive to the heap layout;
            // ROADMAP item 2).
            parked: Vec::with_capacity(2),
        }
    }

    #[inline]
    fn slot_of(&self, seq: Seq) -> usize {
        seq as usize & self.ring_mask
    }

    /// Slot of the entry with sequence number `seq`, dead or alive.
    fn index_of(&self, seq: Seq) -> Option<usize> {
        (self.front_seq..self.back_seq)
            .contains(&seq)
            .then(|| self.slot_of(seq))
    }

    #[inline]
    fn live_bit(&self, slot: usize) -> bool {
        has_bit(&self.live_words, slot)
    }

    #[inline]
    fn set_ready_bit(&mut self, slot: usize) {
        self.ready_words[slot / 64] |= 1u64 << (slot % 64);
    }

    /// Occupied slots (live + corpses).
    fn span(&self) -> usize {
        (self.back_seq - self.front_seq) as usize
    }

    /// Live (not killed) entries currently occupying window slots.
    pub fn occupancy(&self) -> usize {
        self.live
    }

    /// `true` when no free entry remains.
    pub fn is_full(&self) -> bool {
        self.live >= self.capacity
    }

    /// `true` when no live entries remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Oldest occupied seq (sanitizer introspection; meaningless when the
    /// span is empty).
    pub(crate) fn front_seq(&self) -> Seq {
        self.front_seq
    }

    /// One past the newest occupied seq (sanitizer introspection).
    pub(crate) fn back_seq(&self) -> Seq {
        self.back_seq
    }

    /// Ring length (sanitizer introspection).
    pub(crate) fn ring_len(&self) -> usize {
        self.ring_mask + 1
    }

    /// Insert a renamed instruction at the tail, written straight into its
    /// slot. `ops_ready` is whether all its source operands are already
    /// ready — if so it is an immediate issue candidate; otherwise the
    /// dispatcher must have registered it for a [`wake`](Self::wake) on
    /// each outstanding operand.
    ///
    /// # Panics
    /// Panics if the window is full (callers must check `is_full`).
    #[inline]
    pub fn push(&mut self, entry: WinEntry, ops_ready: bool) {
        assert!(!self.is_full(), "window overflow");
        debug_assert!(!entry.killed);
        debug_assert!(
            self.span() == 0 || entry.seq == self.back_seq,
            "window seqs must be contiguous"
        );
        if self.span() == self.ring_mask + 1 {
            self.grow();
        }
        if self.span() == 0 {
            self.front_seq = entry.seq;
        }
        self.back_seq = entry.seq + 1;
        let slot = self.slot_of(entry.seq);
        debug_assert!(!self.live_bit(slot), "slot collision");
        let candidate = ops_ready && entry.state == EntryState::Waiting;
        self.slots[slot] = entry;
        self.live_words[slot / 64] |= 1u64 << (slot % 64);
        self.live += 1;
        if candidate {
            self.set_ready_bit(slot);
        }
    }

    /// Double the ring and re-scatter the occupied span to the new slot
    /// modulus. Rare: only reached when corpses pile up behind a stalled
    /// head beyond the initial ring length.
    fn grow(&mut self) {
        let old_len = self.ring_mask + 1;
        let old_mask = self.ring_mask;
        let new_len = old_len * 2;
        let new_mask = new_len - 1;
        let words = new_len.div_ceil(64);

        self.slots.resize(new_len, WinEntry::vacant());

        let mut new_live = vec![0u64; words];
        let mut new_ready = vec![0u64; words];
        for seq in self.front_seq..self.back_seq {
            let old_slot = seq as usize & old_mask;
            let new_slot = seq as usize & new_mask;
            if new_slot != old_slot {
                // A moved slot lands in the freshly added upper half
                // (`old_slot + old_len`), which no remaining span seq can
                // map *from*, so swaps never clobber an occupied record.
                self.slots.swap(old_slot, new_slot);
            }
            if self.live_words[old_slot / 64] & (1u64 << (old_slot % 64)) != 0 {
                new_live[new_slot / 64] |= 1u64 << (new_slot % 64);
            }
            if self.ready_words[old_slot / 64] & (1u64 << (old_slot % 64)) != 0 {
                new_ready[new_slot / 64] |= 1u64 << (new_slot % 64);
            }
        }
        self.live_words = new_live;
        self.ready_words = new_ready;
        self.ring_mask = new_mask;
    }

    #[inline]
    fn entry_mut(&mut self, slot: usize) -> EntryMut<'_> {
        let s = &mut self.slots[slot];
        EntryMut {
            fid: s.fid,
            seq: s.seq,
            pc: s.pc,
            op: &s.op,
            ctx: &s.ctx,
            born: s.born,
            path: s.path,
            srcs: s.srcs,
            dest: s.dest,
            state: &mut s.state,
            complete_at: &mut s.complete_at,
            result: &mut s.result,
            branch: s.branch,
            mem: &mut s.mem,
        }
    }

    /// The oldest live entry, if any (commit candidate). Killed entries at
    /// the head are reclaimed on the way.
    #[inline]
    pub fn head_mut(&mut self) -> Option<EntryMut<'_>> {
        self.drain_dead_head();
        if self.span() == 0 {
            return None;
        }
        let slot = self.slot_of(self.front_seq);
        Some(self.entry_mut(slot))
    }

    /// Remove the head entry (it committed) and lend out its record, which
    /// stays in its slot until a later push reuses it. Entries parked on
    /// it are offered again.
    ///
    /// # Panics
    /// Panics if there is no live head entry.
    #[inline]
    pub fn pop_head(&mut self) -> &WinEntry {
        self.drain_dead_head();
        assert!(self.span() > 0, "pop from empty window");
        let slot = self.release_front(false);
        self.live -= 1;
        self.wake_parked_on(self.slots[slot].seq);
        &self.slots[slot]
    }

    /// Release the front slot (candidacy and liveness bookkeeping) and
    /// return its index; the record itself is left in place.
    #[inline]
    fn release_front(&mut self, expect_killed: bool) -> usize {
        let slot = self.slot_of(self.front_seq);
        debug_assert_eq!(self.live_bit(slot), !expect_killed);
        debug_assert_eq!(self.slots[slot].killed, expect_killed);
        let bit = 1u64 << (slot % 64);
        self.live_words[slot / 64] &= !bit;
        self.ready_words[slot / 64] &= !bit;
        self.front_seq += 1;
        slot
    }

    #[inline]
    fn drain_dead_head(&mut self) {
        while self.span() > 0 && !self.live_bit(self.slot_of(self.front_seq)) {
            self.release_front(true);
        }
    }

    /// Iterate over live entries, oldest first.
    ///
    /// There is deliberately no mutable counterpart: issue candidacy and
    /// liveness are mirrored in the bitmasks, so mutations must go through
    /// [`push`](Self::push), [`kill_matching`](Self::kill_matching),
    /// [`for_each_issuable`](Self::for_each_issuable), [`wake`](Self::wake),
    /// or [`get_live_by_seq`](Self::get_live_by_seq) (which permits mutating
    /// anything *except* a `Waiting` state, source readiness, or liveness).
    pub fn iter_live(&self) -> impl Iterator<Item = &WinEntry> {
        (self.front_seq..self.back_seq)
            .map(|seq| self.slot_of(seq))
            .filter(|&slot| self.live_bit(slot))
            .map(|slot| &self.slots[slot])
    }

    /// Every occupied slot — corpses included — paired with its issue-
    /// candidate bit, oldest first. For the sanitizer's from-scratch
    /// re-derivation of the status masks; not part of the pipeline.
    pub(crate) fn debug_iter(&self) -> impl Iterator<Item = (&WinEntry, bool)> {
        (self.front_seq..self.back_seq).map(|seq| {
            let slot = self.slot_of(seq);
            (&self.slots[slot], has_bit(&self.ready_words, slot))
        })
    }

    /// The oldest parked entry, if any: the stall classifier counts it as
    /// refused by the scan that left it parked.
    pub(crate) fn oldest_parked(&self) -> Option<Seq> {
        self.parked.iter().map(|&(entry, _)| entry).min()
    }

    /// Offer every entry parked on `blocker` to the select scan again.
    #[inline]
    fn wake_parked_on(&mut self, blocker: Seq) {
        let mut i = 0;
        while i < self.parked.len() {
            let (entry, on) = self.parked[i];
            if on == blocker {
                self.parked.swap_remove(i);
                let slot = self.slot_of(entry);
                debug_assert!(self.live_bit(slot), "parked entries are live");
                self.set_ready_bit(slot);
            } else {
                i += 1;
            }
        }
    }

    /// The branch resolution bus (paper §3.2.3 "resolution"): kill every
    /// live entry on the wrong path of the resolving branch, invoking
    /// `on_kill` on each so the caller can release registers, CTX
    /// positions, and store-buffer state. Parked entries die with the
    /// rest; a surviving entry parked on a killed one is offered again.
    ///
    /// The scan is pruned by the live bitmap (all-dead words are skipped
    /// 64 slots at a time); each live slot is tested with the selector's
    /// lazy-tag predicate, whose epoch filter spares entries whose
    /// matching stored bit is a stale leftover from a previous allocation
    /// of the position. Kills are per-resolution events, so the scan is
    /// off the per-instruction hot path by construction.
    pub fn kill_matching(&mut self, kill: &ResolutionKill, mut on_kill: impl FnMut(&WinEntry)) {
        let mut killed = 0;
        for (w, in_span) in span_words(self.front_seq, self.back_seq, self.ring_mask) {
            // A copy of the word is enough: the scan clears only bits it
            // has already visited.
            let mut word = self.live_words[w] & in_span;
            while word != 0 {
                let bit = word & word.wrapping_neg();
                word &= word - 1;
                let s = &mut self.slots[w * 64 + bit.trailing_zeros() as usize];
                if !kill.matches(&s.ctx, s.born) {
                    continue;
                }
                s.killed = true;
                self.live_words[w] &= !bit;
                self.ready_words[w] &= !bit;
                killed += 1;
                on_kill(s);
            }
        }
        self.live -= killed;
        if killed > 0 {
            let Window {
                parked,
                live_words,
                ready_words,
                ring_mask,
                ..
            } = self;
            let slot = |seq: Seq| seq as usize & *ring_mask;
            parked.retain(|&(entry, blocker)| {
                let entry = slot(entry);
                if !has_bit(live_words, entry) {
                    return false;
                }
                if has_bit(live_words, slot(blocker)) {
                    return true;
                }
                ready_words[entry / 64] |= 1u64 << (entry % 64);
                false
            });
        }
    }

    /// The issue stage's select scan: visit the issue candidates (live,
    /// waiting, operands ready, not parked — maintained by
    /// [`push`](Self::push), [`wake`](Self::wake),
    /// [`kill_matching`](Self::kill_matching), [`pop_head`](Self::pop_head)
    /// and this scan) oldest first. `try_issue` reports what happened:
    /// [`Issued`] entries drop their candidate bit (the callback must have
    /// set the entry's state) and wake the entries parked on them,
    /// [`Park`] entries drop it until their blocker acts, [`Keep`] entries
    /// lost on a structural resource and are revisited next cycle, and
    /// [`Stop`] additionally abandons the rest of the scan — the caller
    /// has determined no later candidate can issue this cycle (every
    /// functional unit busy), so visiting them would be pure overhead.
    ///
    /// The scan walks the live candidate bitmap one word at a time, so an
    /// entry woken by an issue earlier in the scan (it is younger than
    /// its blocker, so it lies ahead) is offered later in the same scan.
    /// Cycles with nothing ready cost a few word tests regardless of
    /// window occupancy.
    ///
    /// [`Issued`]: IssueOutcome::Issued
    /// [`Park`]: IssueOutcome::Park
    /// [`Keep`]: IssueOutcome::Keep
    /// [`Stop`]: IssueOutcome::Stop
    pub fn for_each_issuable(&mut self, mut try_issue: impl FnMut(EntryMut<'_>) -> IssueOutcome) {
        for (w, in_span) in span_words(self.front_seq, self.back_seq, self.ring_mask) {
            let mut word = self.ready_words[w] & in_span;
            while word != 0 {
                let b = word.trailing_zeros() as usize;
                let slot = w * 64 + b;
                debug_assert!(self.slots[slot].state == EntryState::Waiting && self.live_bit(slot));
                match try_issue(self.entry_mut(slot)) {
                    IssueOutcome::Issued => {
                        debug_assert!(self.slots[slot].state == EntryState::Issued);
                        self.ready_words[w] &= !(1u64 << b);
                        self.wake_parked_on(self.slots[slot].seq);
                    }
                    IssueOutcome::Park(blocker) => {
                        debug_assert!(
                            blocker < self.slots[slot].seq
                                && self.index_of(blocker).is_some_and(|b| self.live_bit(b)),
                            "an entry parks on an older live entry"
                        );
                        self.ready_words[w] &= !(1u64 << b);
                        self.parked.push((self.slots[slot].seq, blocker));
                    }
                    IssueOutcome::Keep => {}
                    IssueOutcome::Stop => return,
                }
                // Re-read the word past this slot: a wake may have set a
                // younger bit in it.
                word = self.ready_words[w] & in_span & (u64::MAX << b << 1);
            }
        }
    }

    /// The writeback stage's wakeup bus: if the entry with sequence number
    /// `seq` is live, waiting, and its source operands now pass `ready`,
    /// mark it an issue candidate. No-op for absent or killed entries
    /// (waiter registrations are not cleaned up on kill) and for entries
    /// still missing another operand.
    #[inline]
    pub fn wake(&mut self, seq: Seq, ready: impl FnOnce(&[Option<PhysReg>; 2]) -> bool) {
        let Some(slot) = self.index_of(seq) else {
            return;
        };
        if self.live_bit(slot)
            && self.slots[slot].state == EntryState::Waiting
            && ready(&self.slots[slot].srcs)
        {
            self.set_ready_bit(slot);
        }
    }

    /// The live entry with dispatch sequence number `seq`, located in O(1)
    /// by the slot ring's `seq & mask` addressing.
    #[inline]
    pub fn get_live_by_seq(&mut self, seq: Seq) -> Option<EntryMut<'_>> {
        let slot = self.index_of(seq)?;
        if self.live_bit(slot) {
            Some(self.entry_mut(slot))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ctx::PathTable;

    fn entry(seq: Seq, ctx: CtxTag) -> WinEntry {
        entry_born(seq, ctx, 0)
    }

    fn entry_born(seq: Seq, ctx: CtxTag, born: u64) -> WinEntry {
        let mut paths: PathTable<()> = PathTable::new(1);
        let path = paths.allocate(()).unwrap();
        WinEntry {
            fid: FetchId(seq),
            seq,
            pc: seq as usize,
            op: Op::Nop,
            ctx,
            born,
            path,
            srcs: [None, None],
            dest: None,
            state: EntryState::Waiting,
            complete_at: 0,
            result: None,
            branch: None,
            mem: None,
            killed: false,
        }
    }

    fn push(w: &mut Window, e: WinEntry, ops_ready: bool) {
        w.push(e, ops_ready);
    }

    fn kill_at(pos: usize, dir: bool) -> ResolutionKill {
        ResolutionKill {
            pos,
            dir,
            stale_before: 0,
        }
    }

    fn kill_seqs(w: &mut Window, kill: &ResolutionKill) -> Vec<Seq> {
        let mut seqs = Vec::new();
        w.kill_matching(kill, |e| seqs.push(e.seq));
        seqs
    }

    #[test]
    fn push_pop_order() {
        let mut w = Window::new(4);
        push(&mut w, entry(0, CtxTag::root()), false);
        push(&mut w, entry(1, CtxTag::root()), false);
        assert_eq!(w.occupancy(), 2);
        assert_eq!(w.pop_head().seq, 0);
        assert_eq!(w.pop_head().seq, 1);
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut w = Window::new(1);
        push(&mut w, entry(0, CtxTag::root()), false);
        push(&mut w, entry(1, CtxTag::root()), false);
    }

    #[test]
    fn kill_matching_selective() {
        let mut w = Window::new(8);
        let parent = CtxTag::root();
        let taken = parent.with_position(0, true);
        let not_taken = parent.with_position(0, false);
        push(&mut w, entry(0, parent), false); // the branch itself: survives
        push(&mut w, entry(1, taken), false);
        push(&mut w, entry(2, not_taken), false);
        push(&mut w, entry(3, taken.with_position(1, false)), false); // descendant of taken

        assert_eq!(kill_seqs(&mut w, &kill_at(0, true)), vec![1, 3]);
        assert_eq!(w.occupancy(), 2);

        // Commit proceeds over the corpses.
        assert_eq!(w.pop_head().seq, 0);
        assert_eq!(w.pop_head().seq, 2);
    }

    #[test]
    fn kill_matching_spares_stale_snapshots() {
        // The selector's epoch filter: an entry whose stored bit predates
        // the position's last free (born < stale_before) holds a leftover
        // from a previous allocation and must be spared.
        let mut w = Window::new(4);
        let t = CtxTag::root().with_position(0, true);
        // Dispatched before position 0 was last freed (born 3 < 5).
        push(&mut w, entry_born(0, t, 3), false);
        // Dispatched under the current allocation (born 7 >= 5).
        push(&mut w, entry_born(1, t, 7), false);
        let kill = ResolutionKill {
            pos: 0,
            dir: true,
            stale_before: 5,
        };
        assert_eq!(kill_seqs(&mut w, &kill), vec![1]);
        assert_eq!(w.occupancy(), 1);
        assert_eq!(w.pop_head().seq, 0);
    }

    #[test]
    fn head_skips_killed() {
        let mut w = Window::new(4);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, t), false);
        push(&mut w, entry(1, CtxTag::root()), false);
        kill_seqs(&mut w, &kill_at(0, true));
        assert_eq!(w.head_mut().unwrap().seq, 1);
    }

    #[test]
    fn get_live_by_seq_finds_live_skips_killed_and_absent() {
        let mut w = Window::new(8);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(10, CtxTag::root()), false);
        push(&mut w, entry(11, t), false);
        push(&mut w, entry(12, CtxTag::root()), false);
        assert_eq!(w.get_live_by_seq(12).unwrap().seq, 12);
        assert!(w.get_live_by_seq(13).is_none());
        kill_seqs(&mut w, &kill_at(0, true));
        assert!(
            w.get_live_by_seq(11).is_none(),
            "killed entries don't resolve"
        );
        // Popping the head keeps the remaining queue searchable.
        assert_eq!(w.pop_head().seq, 10);
        assert_eq!(w.get_live_by_seq(12).unwrap().seq, 12);
    }

    #[test]
    fn occupancy_counts_only_live() {
        let mut w = Window::new(4);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, t), false);
        push(&mut w, entry(1, CtxTag::root()), false);
        assert!(!w.is_full());
        kill_seqs(&mut w, &kill_at(0, true));
        assert_eq!(w.occupancy(), 1);
        // The freed slot can be reused.
        push(&mut w, entry(2, CtxTag::root()), false);
        push(&mut w, entry(3, CtxTag::root()), false);
        push(&mut w, entry(4, CtxTag::root()), false);
        assert!(w.is_full());
    }

    #[test]
    fn iter_live_oldest_first() {
        let mut w = Window::new(4);
        push(&mut w, entry(5, CtxTag::root()), false);
        push(&mut w, entry(6, CtxTag::root()), false);
        let seqs: Vec<Seq> = w.iter_live().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![5, 6]);
    }

    /// Issue every candidate, returning the visit order.
    fn issue_seqs(w: &mut Window) -> Vec<Seq> {
        let mut seqs = Vec::new();
        w.for_each_issuable(|e| {
            seqs.push(e.seq);
            *e.state = EntryState::Issued;
            IssueOutcome::Issued
        });
        seqs
    }

    #[test]
    fn push_ready_entries_are_candidates_oldest_first() {
        let mut w = Window::new(4);
        push(&mut w, entry(0, CtxTag::root()), true);
        push(&mut w, entry(1, CtxTag::root()), false);
        push(&mut w, entry(2, CtxTag::root()), true);
        assert_eq!(issue_seqs(&mut w), vec![0, 2]);
        // Issued entries are not revisited.
        assert_eq!(issue_seqs(&mut w), Vec::<Seq>::new());
    }

    #[test]
    fn wake_promotes_only_when_all_operands_ready() {
        let mut w = Window::new(4);
        push(&mut w, entry(0, CtxTag::root()), false);
        push(&mut w, entry(1, CtxTag::root()), false);
        assert!(issue_seqs(&mut w).is_empty());
        // Still missing the other operand: not promoted.
        w.wake(1, |_| false);
        assert!(issue_seqs(&mut w).is_empty());
        w.wake(1, |_| true);
        assert_eq!(issue_seqs(&mut w), vec![1]);
    }

    #[test]
    fn wake_ignores_absent_and_killed_entries() {
        let mut w = Window::new(4);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, t), false);
        kill_seqs(&mut w, &kill_at(0, true));
        w.wake(0, |_| true); // killed
        w.wake(7, |_| true); // never dispatched
        assert!(issue_seqs(&mut w).is_empty());
    }

    #[test]
    fn structural_loser_stays_a_candidate() {
        let mut w = Window::new(4);
        push(&mut w, entry(0, CtxTag::root()), true);
        let mut visits = 0;
        w.for_each_issuable(|_| {
            visits += 1;
            IssueOutcome::Keep // lost on a functional unit
        });
        w.for_each_issuable(|_| {
            visits += 1;
            IssueOutcome::Keep
        });
        assert_eq!(visits, 2, "candidate must be revisited until it issues");
    }

    #[test]
    fn kill_clears_candidacy() {
        let mut w = Window::new(4);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, t), true);
        push(&mut w, entry(1, CtxTag::root()), true);
        kill_seqs(&mut w, &kill_at(0, true));
        assert_eq!(issue_seqs(&mut w), vec![1]);
    }

    #[test]
    fn candidate_bitmap_survives_word_rollover() {
        // Drive the ring across slot-index wrap-around (seq & mask cycles
        // through the whole ring) and check candidacy still lands on the
        // right entries.
        let mut w = Window::new(8);
        for i in 0..70 {
            push(&mut w, entry(i, CtxTag::root()), false);
            let popped = w.pop_head();
            assert_eq!(popped.seq, i);
        }
        push(&mut w, entry(70, CtxTag::root()), false);
        push(&mut w, entry(71, CtxTag::root()), true);
        push(&mut w, entry(72, CtxTag::root()), false);
        w.wake(72, |_| true);
        assert_eq!(issue_seqs(&mut w), vec![71, 72]);
        assert_eq!(w.get_live_by_seq(70).unwrap().seq, 70);
    }

    #[test]
    fn corpse_pileup_grows_the_ring() {
        // A stalled head with repeated kills behind it drives the occupied
        // span past the initial ring length; the ring must grow and keep
        // every column and mask coherent.
        let mut w = Window::new(4); // ring starts at 4 slots
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, CtxTag::root()), false); // stalled head
        let mut seq = 1;
        for _ in 0..5 {
            // Fill behind the head with doomed entries, then kill them.
            while w.occupancy() < 4 {
                push(&mut w, entry(seq, t), false);
                seq += 1;
            }
            kill_seqs(&mut w, &kill_at(0, true));
            assert_eq!(w.occupancy(), 1, "only the head survives");
        }
        assert!(w.ring_len() > 4, "span exceeded the initial ring");
        // Live survivors stay addressable and ordered.
        push(&mut w, entry(seq, CtxTag::root()), true);
        assert_eq!(w.get_live_by_seq(seq).unwrap().seq, seq);
        assert_eq!(
            w.iter_live().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, seq]
        );
        assert_eq!(issue_seqs(&mut w), vec![seq]);
        assert_eq!(w.pop_head().seq, 0);
        assert_eq!(w.pop_head().seq, seq);
        assert!(w.is_empty());
    }

    /// Offer every candidate once: park `parked` on `blocker`, keep the
    /// rest. Returns the visit order.
    fn park_one(w: &mut Window, parked: Seq, blocker: Seq) -> Vec<Seq> {
        let mut seqs = Vec::new();
        w.for_each_issuable(|e| {
            seqs.push(e.seq);
            if e.seq == parked {
                IssueOutcome::Park(blocker)
            } else {
                IssueOutcome::Keep
            }
        });
        seqs
    }

    #[test]
    fn parked_entry_waits_for_its_blocker_to_issue() {
        let mut w = Window::new(8);
        push(&mut w, entry(0, CtxTag::root()), false); // blocker, not ready
        push(&mut w, entry(1, CtxTag::root()), true);
        push(&mut w, entry(2, CtxTag::root()), true);
        assert_eq!(park_one(&mut w, 1, 0), vec![1, 2]);
        assert_eq!(w.oldest_parked(), Some(1));
        assert_eq!(issue_seqs(&mut w), vec![2], "parked entry is not offered");
        // The blocker becomes ready and issues: the parked entry, younger,
        // is offered later in the same scan.
        w.wake(0, |_| true);
        assert_eq!(issue_seqs(&mut w), vec![0, 1]);
        assert_eq!(w.oldest_parked(), None);
    }

    #[test]
    fn parked_entry_wakes_when_its_blocker_commits_or_dies() {
        let mut w = Window::new(8);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, CtxTag::root()), false); // commits
        push(&mut w, entry(1, t), false); // killed
        push(&mut w, entry(2, CtxTag::root()), true);
        push(&mut w, entry(3, CtxTag::root()), true);
        park_one(&mut w, 2, 0);
        park_one(&mut w, 3, 1);
        assert!(issue_seqs(&mut w).is_empty());
        assert_eq!(kill_seqs(&mut w, &kill_at(0, true)), vec![1]);
        assert_eq!(w.pop_head().seq, 0);
        assert_eq!(issue_seqs(&mut w), vec![2, 3]);
    }

    #[test]
    fn parked_entry_dies_with_the_kill() {
        let mut w = Window::new(8);
        let t = CtxTag::root().with_position(0, true);
        push(&mut w, entry(0, t), false);
        push(&mut w, entry(1, t), true);
        park_one(&mut w, 1, 0);
        assert_eq!(kill_seqs(&mut w, &kill_at(0, true)), vec![0, 1]);
        assert_eq!(
            w.oldest_parked(),
            None,
            "the kill drops dead parked entries"
        );
        assert!(issue_seqs(&mut w).is_empty());
    }

    #[test]
    fn parking_survives_ring_growth() {
        let mut w = Window::new(4); // ring of 4
        let doomed = CtxTag::root().with_position(1, false);
        push(&mut w, entry(0, CtxTag::root()), false); // stalled head, blocker
        push(&mut w, entry(1, CtxTag::root()), true);
        park_one(&mut w, 1, 0);
        for seq in 2..4 {
            push(&mut w, entry(seq, doomed), false);
        }
        kill_seqs(&mut w, &kill_at(1, false));
        push(&mut w, entry(4, CtxTag::root()), false);
        assert_eq!(w.ring_len(), 8, "the span outgrew the ring");
        assert!(issue_seqs(&mut w).is_empty(), "still parked after the grow");
        assert_eq!(w.pop_head().seq, 0);
        assert_eq!(issue_seqs(&mut w), vec![1]);
    }

    #[test]
    fn grow_preserves_candidacy_and_kill_targets() {
        let mut w = Window::new(4); // ring of 4
        let head_tag = CtxTag::root().with_position(2, true);
        let doomed = CtxTag::root().with_position(1, false);
        push(&mut w, entry(0, head_tag), false); // stalled head
        for seq in 1..4 {
            push(&mut w, entry(seq, doomed), false);
        }
        assert_eq!(kill_seqs(&mut w, &kill_at(1, false)), vec![1, 2, 3]);
        // Span is 4 == ring length with only the head live; the next push
        // must grow the ring and remap every mask.
        push(&mut w, entry(4, doomed), true);
        assert_eq!(w.ring_len(), 8);
        // The head's pre-grow payload moved with its slot…
        assert_eq!(kill_seqs(&mut w, &kill_at(2, true)), vec![0]);
        // …and the post-grow candidate bit is where issue expects it.
        assert_eq!(issue_seqs(&mut w), vec![4]);
    }
}
