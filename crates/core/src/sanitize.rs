//! Per-cycle micro-architectural sanitizer.
//!
//! [`Simulator::sanitize`] re-derives the machine's structural invariants
//! from scratch — the ground truths the incrementally-maintained fast
//! paths (the [`pp_ctx::TagIndex`], the issue-candidate bitmap, the
//! completion ring, the wakeup lists, the store buffer's CTX filter, the
//! register free list) must agree with — and reports every violation.
//! With [`crate::SimConfig::with_sanitizer`] the check runs at the end of
//! every simulated cycle and panics on the first bad cycle, turning a
//! silent corruption that a golden snapshot would surface as an opaque
//! byte diff into a cycle-stamped report naming the broken invariant.
//!
//! The invariants checked, by name:
//!
//! - `tag-index` — the path-tag reverse index equals a from-scratch
//!   rebuild over the live path table (Fig. 5 comparator ground truth).
//! - `path-tag-liveness` — live (eager) path tags hold only
//!   allocator-live history positions.
//! - `position-ownership` — every allocator-live CTX position is owned by
//!   exactly one live, uncommitted branch (window or front-end), and no
//!   dead position has owners.
//! - `orphan-tag-bit` — after scrubbing, live window/front-end entries
//!   reference only allocator-live positions (no orphan descendants
//!   survive a kill).
//! - `issue-candidate` — the window's candidate bitmap is exactly
//!   {live ∧ waiting ∧ all sources ready ∧ not parked}.
//! - `wakeup-list` — every live waiting entry with a not-ready source is
//!   registered on that register's waiter list, and every registration
//!   that maps to a live waiting entry names one of its not-ready sources.
//! - `completion-ring` — live issued entries appear exactly once in the
//!   ring, in the bucket for their (future, non-aliasing) writeback
//!   cycle; no live non-issued entry appears at all.
//! - `store-buffer` — entries are seq-ordered, correspond one-to-one
//!   with live window stores (no dead entry stays behind), and their
//!   (eager) tags hold only live positions; every parked load is a live
//!   waiting load whose naive store-buffer check still returns `Block`
//!   on the store it is parked on (a wakeup was not lost).
//! - `regfile-conservation` — every physical register is on the free list
//!   exactly-or referenced (path register maps, live checkpoints, live
//!   entries' new/old destinations): no leaks, no double-frees.
//! - `epoch-bounds` — dispatch/fetch timestamps never run ahead of the
//!   allocator's free-epoch clock or the cycle counter.
//! - `divergence-count` — the cached live-divergence counter equals the
//!   count over live unresolved diverged branches.
//! - `soa-mask-coherence` — every window issue-candidate bit has a
//!   matching live bit (candidacy is a refinement of liveness), and each
//!   occupied window slot's and front-end latch's `killed` flag is the
//!   complement of its live bit.
//! - `soa-slot-conservation` — the live counters equal the popcounts of
//!   the live bitmasks and the occupied span never exceeds the ring.
//! - `soa-stale-bits` — no status bit survives on a slot outside the
//!   occupied span (ring wrap-around leaves nothing behind).
//! - `merge-record` — merge records exist only while merging is enabled,
//!   only on allocator-live positions, and only for forks whose owning
//!   branch is diverged and unresolved.
//! - `merge-park` — every merge-parked path is non-fetching, carries the
//!   fork position opposite to the continuing arm, and points at a
//!   parked record; no record holds more than one parked path.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use pp_isa::Op;

use crate::storebuf::LoadCheck;

use super::Simulator;
use crate::regfile::PhysReg;
use crate::window::{EntryState, Seq, WinEntry};

/// One violated structural invariant, cycle-stamped.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Cycle at whose end the violation was observed.
    pub cycle: u64,
    /// Name of the broken invariant (see the module docs for the list).
    pub invariant: &'static str,
    /// What exactly disagreed.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: [{}] {}",
            self.cycle, self.invariant, self.detail
        )
    }
}

impl Simulator {
    /// Re-derive every structural invariant from scratch and return all
    /// violations (empty = the machine state is sane). Read-only and
    /// callable at any cycle boundary; [`SimConfig::with_sanitizer`]
    /// (`cfg.sanitize`) runs it automatically at the end of every cycle
    /// via [`assert_sane`](Self::assert_sane).
    ///
    /// [`SimConfig::with_sanitizer`]: crate::SimConfig::with_sanitizer
    pub fn sanitize(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        self.sanitize_ctx(&mut out);
        self.sanitize_window(&mut out);
        self.sanitize_soa(&mut out);
        self.sanitize_storebuf(&mut out);
        self.sanitize_registers(&mut out);
        self.sanitize_counters(&mut out);
        self.sanitize_merge(&mut out);
        out
    }

    /// [`sanitize`](Self::sanitize), panicking with the full list if any
    /// invariant is violated.
    ///
    /// # Panics
    /// Panics listing every violation when the state is not sane.
    #[expect(clippy::panic, reason = "the sanitizer's purpose is to stop the run")]
    pub fn assert_sane(&self) {
        let violations = self.sanitize();
        if !violations.is_empty() {
            let list: Vec<String> = violations.iter().map(ToString::to_string).collect();
            panic!(
                "sanitizer: {} invariant violation(s) at cycle {}:\n{}",
                violations.len(),
                self.now,
                list.join("\n")
            );
        }
    }

    fn report(&self, out: &mut Vec<Violation>, invariant: &'static str, detail: String) {
        out.push(Violation {
            cycle: self.now,
            invariant,
            detail,
        });
    }

    /// CTX-tag hierarchy consistency: the reverse index against a rebuild,
    /// eager path tags against the allocator, position ownership, and
    /// orphan detection on scrubbed lazy tags.
    fn sanitize_ctx(&self, out: &mut Vec<Violation>) {
        if let Some(msg) = self
            .path_tags
            .verify_against(self.paths.iter().map(|(id, p)| (id.index(), &p.tag)))
        {
            self.report(out, "tag-index", msg);
        }

        for (id, p) in self.paths.iter() {
            let mut mask = p.tag.valid_mask();
            while mask != 0 {
                let pos = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !self.positions.is_live(pos) {
                    self.report(
                        out,
                        "path-tag-liveness",
                        format!("{id} tag {} holds freed position {pos}", p.tag),
                    );
                }
            }
        }

        // Each live position is held by exactly one live, uncommitted
        // branch (it keeps the position through resolution, releasing it
        // only at commit or kill).
        let mut owners = vec![0u32; self.positions.capacity()];
        for (e, _) in self.window.debug_iter() {
            if !e.killed {
                if let Some(pos) = e.branch {
                    owners[usize::from(pos)] += 1;
                }
            }
        }
        for inst in self.frontend.debug_iter() {
            if !inst.killed {
                if let Some(pos) = inst.branch {
                    owners[usize::from(pos)] += 1;
                }
            }
        }
        for (pos, &n) in owners.iter().enumerate() {
            let live = self.positions.is_live(pos);
            if live != (n == 1) || n > 1 {
                self.report(
                    out,
                    "position-ownership",
                    format!("position {pos}: allocator live={live} but {n} live branch owner(s)"),
                );
            }
        }

        // No orphan descendants: a live in-flight instruction's tag, once
        // scrubbed of stale bits, references only live positions — a bit
        // on a freed position would mean a kill missed a descendant.
        let check_orphan = |ctx, born, what: &dyn fmt::Display, out: &mut Vec<Violation>| {
            let scrubbed = self.positions.scrub(ctx, born);
            let mut mask = scrubbed.valid_mask();
            while mask != 0 {
                let pos = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !self.positions.is_live(pos) {
                    self.report(
                        out,
                        "orphan-tag-bit",
                        format!("{what}: scrubbed tag {scrubbed} holds dead position {pos}"),
                    );
                }
            }
        };
        for (e, _) in self.window.debug_iter() {
            if !e.killed {
                check_orphan(e.ctx, e.born, &format_args!("window seq {}", e.seq), out);
            }
        }
        for inst in self.frontend.debug_iter() {
            if !inst.killed {
                check_orphan(
                    inst.ctx,
                    inst.born,
                    &format_args!("frontend fid {}", inst.fid.0),
                    out,
                );
            }
        }
    }

    /// Window bookkeeping: the issue-candidate bitmap, the wakeup lists,
    /// and the completion ring against the entries they mirror.
    fn sanitize_window(&self, out: &mut Vec<Violation>) {
        let mut live: HashMap<Seq, &WinEntry> = HashMap::new();
        let parked: BTreeSet<Seq> = self.window.parked.iter().map(|&(l, _)| l).collect();

        for (e, candidate) in self.window.debug_iter() {
            let expect = !e.killed
                && e.state == EntryState::Waiting
                && e.srcs.iter().flatten().all(|&p| self.regfile.is_ready(p))
                && !parked.contains(&e.seq);
            if candidate != expect {
                self.report(
                    out,
                    "issue-candidate",
                    format!(
                        "seq {} pc {} state {:?} killed {} parked {}: candidate bit \
                         {candidate}, derived {expect}",
                        e.seq,
                        e.pc,
                        e.state,
                        e.killed,
                        parked.contains(&e.seq)
                    ),
                );
            }
            if !e.killed {
                live.insert(e.seq, e);
            }
        }

        // Forward: a waiting entry must be reachable from the waiter list
        // of each of its outstanding sources, or no wakeup will ever
        // promote it.
        for e in live.values() {
            if e.state != EntryState::Waiting {
                continue;
            }
            for &src in e.srcs.iter().flatten() {
                if !self.regfile.is_ready(src) && !self.waiters[src.0 as usize].contains(&e.seq) {
                    self.report(
                        out,
                        "wakeup-list",
                        format!(
                            "seq {} waits on not-ready r{} but is missing from its waiter list",
                            e.seq, src.0
                        ),
                    );
                }
            }
        }
        // Backward: registrations naming a live waiting entry must match
        // one of its still-outstanding sources (stale registrations for
        // killed/issued entries are legal leftovers).
        for (r, list) in self.waiters.iter().enumerate() {
            for &seq in list {
                let Some(e) = live.get(&seq) else { continue };
                if e.state != EntryState::Waiting {
                    continue;
                }
                let r = PhysReg(r as u16);
                if !e.srcs.iter().flatten().any(|&p| p == r) {
                    self.report(
                        out,
                        "wakeup-list",
                        format!(
                            "r{} waiter list names seq {seq}, which does not read it",
                            r.0
                        ),
                    );
                } else if self.regfile.is_ready(r) {
                    self.report(
                        out,
                        "wakeup-list",
                        format!(
                            "r{} is ready but seq {seq} still waits registered on it",
                            r.0
                        ),
                    );
                }
            }
        }

        // Completion ring: every live issued entry is scheduled exactly
        // once, in its own (future, non-aliasing) bucket.
        let len = self.completions.len() as u64;
        let mut ring_count: HashMap<Seq, u32> = HashMap::new();
        for (bucket_idx, bucket) in self.completions.iter().enumerate() {
            for &seq in bucket {
                *ring_count.entry(seq).or_insert(0) += 1;
                let Some(e) = live.get(&seq) else { continue };
                match e.state {
                    EntryState::Issued => {
                        if e.complete_at % len != bucket_idx as u64 {
                            self.report(
                                out,
                                "completion-ring",
                                format!(
                                    "seq {seq} completing at {} found in bucket {bucket_idx}",
                                    e.complete_at
                                ),
                            );
                        }
                    }
                    s => self.report(
                        out,
                        "completion-ring",
                        format!("live {s:?} entry seq {seq} present in the ring"),
                    ),
                }
            }
        }
        for e in live.values() {
            if e.state != EntryState::Issued {
                continue;
            }
            if e.complete_at <= self.now || e.complete_at - self.now >= len {
                self.report(
                    out,
                    "completion-ring",
                    format!(
                        "issued seq {} completes at {} (now {}, ring length {len}) — \
                         stale or aliasing",
                        e.seq, e.complete_at, self.now
                    ),
                );
            }
            let n = ring_count.get(&e.seq).copied().unwrap_or(0);
            if n != 1 {
                self.report(
                    out,
                    "completion-ring",
                    format!("issued seq {} enqueued {n} times in the ring", e.seq),
                );
            }
        }
    }

    /// SoA layout coherence: the slot ring and the status bitmasks of the
    /// window and the front-end against each other and the occupied span.
    fn sanitize_soa(&self, out: &mut Vec<Violation>) {
        // ---- Window ----
        let ring = self.window.ring_len();
        let ring_mask = ring - 1;
        let (front, back) = (self.window.front_seq(), self.window.back_seq());
        let words = self.window.live_words.len();
        let mut occupied = vec![0u64; words];
        for seq in front..back {
            let slot = seq as usize & ring_mask;
            occupied[slot / 64] |= 1u64 << (slot % 64);
        }

        if (back - front) as usize > ring {
            self.report(
                out,
                "soa-slot-conservation",
                format!("window span [{front}, {back}) exceeds ring length {ring}"),
            );
        }
        let live_pop: usize = self
            .window
            .live_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        if live_pop != self.window.occupancy() {
            self.report(
                out,
                "soa-slot-conservation",
                format!(
                    "window live counter {} but {live_pop} live mask bit(s)",
                    self.window.occupancy()
                ),
            );
        }

        let bit = |words: &[u64], slot: usize| words[slot / 64] & (1u64 << (slot % 64)) != 0;
        for (e, _) in self.window.debug_iter() {
            if e.killed == bit(&self.window.live_words, e.seq as usize & ring_mask) {
                self.report(
                    out,
                    "soa-mask-coherence",
                    format!(
                        "window seq {} killed flag {} disagrees with its live bit",
                        e.seq, e.killed
                    ),
                );
            }
        }

        for (w, &occ) in occupied.iter().enumerate() {
            let live = self.window.live_words.get(w).copied().unwrap_or(0);
            let ready = self.window.ready_words.get(w).copied().unwrap_or(0);
            let stray_candidate = ready & !live;
            if stray_candidate != 0 {
                self.report(
                    out,
                    "soa-mask-coherence",
                    format!(
                        "window candidate bits {stray_candidate:#018x} in word {w} \
                         without matching live bits"
                    ),
                );
            }
            let stray_status = (live | ready) & !occ;
            if stray_status != 0 {
                self.report(
                    out,
                    "soa-stale-bits",
                    format!(
                        "window status bits {stray_status:#018x} in word {w} \
                         outside the occupied span [{front}, {back})"
                    ),
                );
            }
        }
        // ---- Front-end ----
        let ring = self.frontend.ring_len();
        let ring_mask = ring - 1;
        let (head, tail) = (self.frontend.head(), self.frontend.tail());
        let words = self.frontend.live_words.len();
        let mut occupied = vec![0u64; words];
        for idx in head..tail {
            let slot = idx as usize & ring_mask;
            occupied[slot / 64] |= 1u64 << (slot % 64);
        }

        if (tail - head) as usize > ring {
            self.report(
                out,
                "soa-slot-conservation",
                format!("front-end span [{head}, {tail}) exceeds ring length {ring}"),
            );
        }
        let live_pop: usize = self
            .frontend
            .live_words
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        for (idx, inst) in (head..tail).zip(self.frontend.debug_iter()) {
            if inst.killed == bit(&self.frontend.live_words, idx as usize & ring_mask) {
                self.report(
                    out,
                    "soa-mask-coherence",
                    format!(
                        "front-end fid {} killed flag {} disagrees with its live bit",
                        inst.fid.0, inst.killed
                    ),
                );
            }
        }
        let live_latches = self.frontend.debug_iter().filter(|i| !i.killed).count();
        if live_pop != live_latches {
            self.report(
                out,
                "soa-slot-conservation",
                format!("front-end has {live_latches} un-killed latch(es) but {live_pop} live mask bit(s)"),
            );
        }

        for (w, &occ) in occupied.iter().enumerate() {
            let stray = self.frontend.live_words.get(w).copied().unwrap_or(0) & !occ;
            if stray != 0 {
                self.report(
                    out,
                    "soa-stale-bits",
                    format!(
                        "front-end live bits {stray:#018x} in word {w} outside the \
                         occupied span [{head}, {tail})"
                    ),
                );
            }
        }
    }

    /// Store buffer: program ordering, one-to-one correspondence with
    /// live window stores, eager-tag liveness, and the parked loads'
    /// blockers.
    fn sanitize_storebuf(&self, out: &mut Vec<Violation>) {
        let mut prev: Option<Seq> = None;
        let mut buffered: BTreeSet<Seq> = BTreeSet::new();
        for e in self.sb.debug_iter() {
            if let Some(p) = prev {
                if e.seq <= p {
                    self.report(
                        out,
                        "store-buffer",
                        format!("entries out of order: seq {} after {p}", e.seq),
                    );
                }
            }
            prev = Some(e.seq);
            buffered.insert(e.seq);
            let mut mask = e.ctx.valid_mask();
            while mask != 0 {
                let pos = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                if !self.positions.is_live(pos) {
                    self.report(
                        out,
                        "store-buffer",
                        format!(
                            "store seq {} eager tag {} holds dead position {pos}",
                            e.seq, e.ctx
                        ),
                    );
                }
            }
        }
        let win_stores: BTreeSet<Seq> = self
            .window
            .debug_iter()
            .filter(|(e, _)| !e.killed && matches!(e.op, Op::Store { .. }))
            .map(|(e, _)| e.seq)
            .collect();
        for dead in buffered.difference(&win_stores) {
            self.report(
                out,
                "store-buffer",
                format!("dead entry: buffered seq {dead} is not a live window store"),
            );
        }
        for lost in win_stores.difference(&buffered) {
            self.report(
                out,
                "store-buffer",
                format!("live window store seq {lost} has no buffer entry"),
            );
        }

        // Parked loads: each must still be blocked by its recorded store,
        // or the event that should have woken it was lost.
        if self.window.parked.is_empty() {
            return;
        }
        let entries: HashMap<Seq, &WinEntry> = self
            .window
            .debug_iter()
            .filter(|(e, _)| !e.killed)
            .map(|(e, _)| (e.seq, e))
            .collect();
        for &(load, store) in &self.window.parked {
            let Some(e) = entries.get(&load) else {
                self.report(
                    out,
                    "store-buffer",
                    format!("parked seq {load} is not a live window entry"),
                );
                continue;
            };
            let ready = e.srcs.iter().flatten().all(|&p| self.regfile.is_ready(p));
            let Op::Load { offset, width, .. } = e.op else {
                self.report(
                    out,
                    "store-buffer",
                    format!("parked seq {load} pc {} is not a load", e.pc),
                );
                continue;
            };
            if e.state != EntryState::Waiting || !ready {
                self.report(
                    out,
                    "store-buffer",
                    format!(
                        "parked load seq {load} is {:?} with operands ready {ready}",
                        e.state
                    ),
                );
                continue;
            }
            let base = e.srcs[0].map_or(0, |p| self.regfile.read(p));
            let addr = (base as u64).wrapping_add(offset as u64);
            let scrubbed = self.positions.scrub(e.ctx, e.born);
            let check = self.sb.check_load_naive(load, &scrubbed, addr, width);
            if check != LoadCheck::Block(store) {
                self.report(
                    out,
                    "store-buffer",
                    format!(
                        "lost wakeup: load seq {load} pc {} parked on store seq {store}, \
                         but the buffer now answers {check:?}",
                        e.pc
                    ),
                );
            }
        }
    }

    /// Physical-register conservation: free ⊎ referenced covers the file
    /// with no overlap — the checkpoint/free-list discipline of §3.1/§3.2.5
    /// neither leaks nor double-frees a register.
    fn sanitize_registers(&self, out: &mut Vec<Violation>) {
        let size = self.regfile.size();
        let mut referenced = vec![false; size];
        for (_, p) in self.paths.iter() {
            if let Some(m) = &p.regmap {
                for &r in m.raw() {
                    referenced[r as usize] = true;
                }
            }
        }
        for (e, _) in self.window.debug_iter() {
            if e.killed {
                continue;
            }
            if let Some(d) = e.dest {
                referenced[d.new.0 as usize] = true;
                referenced[d.old.0 as usize] = true;
            }
            let branch = e.branch.map(|pos| &self.branches[usize::from(pos)]);
            if let Some(cp) = branch
                .filter(|b| !b.resolved)
                .and_then(|b| b.checkpoint.as_ref())
            {
                for &r in cp.raw() {
                    referenced[r as usize] = true;
                }
            }
        }
        let mut on_free = vec![false; size];
        for &r in self.regfile.debug_free_list() {
            if on_free[r as usize] {
                self.report(
                    out,
                    "regfile-conservation",
                    format!("r{r} appears twice on the free list"),
                );
            }
            on_free[r as usize] = true;
        }
        for r in 0..size {
            match (on_free[r], referenced[r]) {
                (true, true) => self.report(
                    out,
                    "regfile-conservation",
                    format!("r{r} is on the free list but still referenced"),
                ),
                (false, false) => self.report(
                    out,
                    "regfile-conservation",
                    format!("r{r} leaked: neither free nor referenced"),
                ),
                _ => {}
            }
        }
    }

    /// Cached counters and epoch clocks against their ground truths.
    fn sanitize_counters(&self, out: &mut Vec<Violation>) {
        let tick = self.positions.current_tick();
        let mut divergences = 0usize;
        for (e, _) in self.window.debug_iter() {
            if e.killed {
                continue;
            }
            if let Some(pos) = e.branch {
                let b = &self.branches[usize::from(pos)];
                if b.taken_path.is_some() && !b.resolved {
                    divergences += 1;
                }
            }
            if e.born > tick {
                self.report(
                    out,
                    "epoch-bounds",
                    format!(
                        "window seq {} born {} after allocator tick {tick}",
                        e.seq, e.born
                    ),
                );
            }
        }
        for inst in self.frontend.debug_iter() {
            if inst.killed {
                continue;
            }
            if inst
                .branch
                .is_some_and(|pos| self.branches[usize::from(pos)].taken_path.is_some())
            {
                divergences += 1;
            }
            if inst.born > tick {
                self.report(
                    out,
                    "epoch-bounds",
                    format!(
                        "frontend fid {} born {} after allocator tick {tick}",
                        inst.fid.0, inst.born
                    ),
                );
            }
            if inst.fetch_cycle > self.now {
                self.report(
                    out,
                    "epoch-bounds",
                    format!(
                        "frontend fid {} fetched at {} but now is {}",
                        inst.fid.0, inst.fetch_cycle, self.now
                    ),
                );
            }
        }
        if divergences != self.live_divergences {
            self.report(
                out,
                "divergence-count",
                format!(
                    "cached live_divergences {} but {divergences} live unresolved diverged branches",
                    self.live_divergences
                ),
            );
        }
    }

    /// The CTX merge action's state: records against the allocator and
    /// their owning forks, parked paths against their records.
    fn sanitize_merge(&self, out: &mut Vec<Violation>) {
        for (pos, b) in self.branches.iter().enumerate() {
            let Some(rec) = &b.merge else { continue };
            if self.merge_pred.is_none() {
                self.report(
                    out,
                    "merge-record",
                    format!("position {pos} holds a record but merging is off"),
                );
            }
            if !self.positions.is_live(pos) {
                self.report(
                    out,
                    "merge-record",
                    format!(
                        "record on freed position {pos} (branch pc {})",
                        rec.branch_pc
                    ),
                );
            }
            // Position-ownership already enforces the unique live owner;
            // here: that owner must be a diverged, unresolved fork.
            let owns = |branch: Option<u8>| branch.map(usize::from) == Some(pos);
            let owner_ok = (b.taken_path.is_some() && !b.resolved)
                && (self
                    .window
                    .debug_iter()
                    .any(|(e, _)| !e.killed && owns(e.branch))
                    || self
                        .frontend
                        .debug_iter()
                        .any(|i| !i.killed && owns(i.branch)));
            if !owner_ok {
                self.report(
                    out,
                    "merge-record",
                    format!(
                        "position {pos}: record (branch pc {}) without a live \
                         unresolved diverged owner",
                        rec.branch_pc
                    ),
                );
            }
        }

        let mut parked_per_pos = vec![0u32; self.branches.len()];
        for (id, p) in self.paths.iter() {
            let Some(pos) = p.merged_at else { continue };
            if p.fetching {
                self.report(
                    out,
                    "merge-park",
                    format!("{id} is merge-parked at position {pos} but still fetching"),
                );
            }
            if pos >= self.branches.len() {
                self.report(
                    out,
                    "merge-park",
                    format!("{id} parked on out-of-range position {pos}"),
                );
                continue;
            }
            parked_per_pos[pos] += 1;
            match &self.branches[pos].merge {
                None => self.report(
                    out,
                    "merge-park",
                    format!("{id} parked at position {pos} with no record"),
                ),
                Some(rec) => {
                    if !rec.parked {
                        self.report(
                            out,
                            "merge-park",
                            format!("{id} parked at position {pos} but the record disagrees"),
                        );
                    }
                    // The parked path is the second arrival: it must carry
                    // the fork position, opposite to the continuing arm.
                    let dir = p.tag.position(pos);
                    if dir.is_none() || dir == rec.first_dir {
                        self.report(
                            out,
                            "merge-park",
                            format!(
                                "{id} parked at position {pos}: tag direction {dir:?} \
                                 vs first-arrival {:?}",
                                rec.first_dir
                            ),
                        );
                    }
                }
            }
        }
        for (pos, &n) in parked_per_pos.iter().enumerate() {
            if n > 1 {
                self.report(
                    out,
                    "merge-park",
                    format!("position {pos} has {n} parked paths (at most one pair merges)"),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use pp_isa::{reg, Asm};

    fn loopy_program() -> pp_isa::Program {
        let mut a = Asm::new();
        let buf = a.alloc_zeroed(8);
        a.li(reg::T0, 5);
        a.li(reg::T1, 0);
        let top = a.here();
        a.add(reg::T1, reg::T1, reg::T0);
        a.st(reg::T1, reg::ZERO, buf as i64);
        a.ld(reg::T2, reg::ZERO, buf as i64);
        a.addi(reg::T0, reg::T0, -1);
        a.bgt(reg::T0, 0, top);
        a.halt();
        a.assemble().expect("assembles")
    }

    #[test]
    fn clean_run_stays_sane_every_cycle() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline().with_sanitizer());
        let stats = sim.run();
        assert!(sim.halted());
        assert!(stats.committed_instructions > 0);
        assert!(sim.sanitize().is_empty());
    }

    #[test]
    fn leaked_register_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        // Allocate a physical register behind the machine's back: it is now
        // neither free nor referenced by any map, checkpoint, or entry.
        let _ = sim.regfile.allocate().expect("registers available");
        let violations = sim.sanitize();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "regfile-conservation" && v.detail.contains("leaked")),
            "{violations:?}"
        );
    }

    #[test]
    fn divergence_counter_drift_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        sim.live_divergences = 3;
        let violations = sim.sanitize();
        assert!(
            violations.iter().any(|v| v.invariant == "divergence-count"),
            "{violations:?}"
        );
    }

    /// Advance until the window holds at least one live entry, so tests
    /// can corrupt an occupied slot.
    fn run_until_window_occupied(sim: &mut Simulator) -> usize {
        for _ in 0..1000 {
            if sim.window.occupancy() > 0 {
                let slot = sim.window.front_seq() as usize & (sim.window.ring_len() - 1);
                return slot;
            }
            sim.cycle();
        }
        panic!("window never became occupied");
    }

    #[test]
    fn candidate_bit_without_live_bit_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        let slot = run_until_window_occupied(&mut sim);
        // Turn the occupied head into a corpse that still carries an
        // issue-candidate bit: candidacy must be a refinement of liveness.
        sim.window.live_words[slot / 64] &= !(1u64 << (slot % 64));
        sim.window.ready_words[slot / 64] |= 1u64 << (slot % 64);
        let violations = sim.sanitize();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "soa-mask-coherence"),
            "{violations:?}"
        );
    }

    #[test]
    fn live_counter_drift_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        let slot = run_until_window_occupied(&mut sim);
        // Clear the head's live bit behind the counter's back.
        sim.window.live_words[slot / 64] &= !(1u64 << (slot % 64));
        let violations = sim.sanitize();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "soa-slot-conservation" && v.detail.contains("window")),
            "{violations:?}"
        );
    }

    #[test]
    fn stale_bit_outside_the_span_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        // The front-end is empty at reset, so any surviving live bit sits
        // outside the occupied span — exactly the wrap-around residue the
        // invariant exists to catch.
        sim.frontend.live_words[0] |= 1;
        let violations = sim.sanitize();
        assert!(
            violations.iter().any(|v| v.invariant == "soa-stale-bits"),
            "{violations:?}"
        );
    }

    #[test]
    fn merge_record_without_predictor_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        // Plant a record while merging is off: it is simultaneously
        // predictor-less, on a dead position, and ownerless.
        sim.branches[0].merge = Some(crate::sim::MergeRecord {
            branch_pc: 4,
            merge_pc: 5,
            first_dir: None,
            parked: false,
        });
        let violations = sim.sanitize();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "merge-record" && v.detail.contains("merging is off")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "merge-record" && v.detail.contains("freed position")),
            "{violations:?}"
        );
    }

    #[test]
    fn orphan_parked_path_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        let id = sim.paths.iter().next().expect("root path").0;
        let path = sim.paths.get_mut(id).expect("live");
        path.fetching = false;
        path.merged_at = Some(0);
        let violations = sim.sanitize();
        assert!(
            violations
                .iter()
                .any(|v| v.invariant == "merge-park" && v.detail.contains("no record")),
            "{violations:?}"
        );
    }

    /// Advance until a load is parked on a store: `(load seq, store seq)`.
    fn run_until_parked(sim: &mut Simulator) -> (Seq, Seq) {
        for _ in 0..1000 {
            if let Some(&pair) = sim.window.parked.first() {
                return pair;
            }
            sim.cycle();
        }
        panic!("no load was ever parked");
    }

    #[test]
    fn lost_wakeup_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        let (load, store) = run_until_parked(&mut sim);
        let store_buffer = |sim: &Simulator| {
            sim.sanitize()
                .into_iter()
                .filter(|v| v.invariant == "store-buffer")
                .collect::<Vec<_>>()
        };
        assert!(store_buffer(&sim).is_empty(), "{:?}", store_buffer(&sim));
        // The store computes a far address behind the window's back: the
        // buffer no longer blocks the load, yet it is still parked.
        sim.sb.set_addr_data(store, 0x10_0000, 7);
        let violations = store_buffer(&sim);
        assert!(
            violations.iter().any(|v| v.detail.contains("lost wakeup")
                && v.detail.contains(&format!("load seq {load}"))),
            "{violations:?}"
        );
    }

    #[test]
    fn dead_store_buffer_entry_is_reported() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        run_until_window_occupied(&mut sim);
        // A store no window entry owns: what a kill that left its victim
        // in the buffer would look like.
        let dead = sim.seq_next + 100;
        sim.sb
            .insert(dead, pp_ctx::CtxTag::root(), pp_isa::Width::Word);
        let violations = sim.sanitize();
        assert!(
            violations.iter().any(|v| v.invariant == "store-buffer"
                && v.detail
                    .contains(&format!("dead entry: buffered seq {dead}"))),
            "{violations:?}"
        );
    }

    #[test]
    #[should_panic(expected = "sanitizer:")]
    fn assert_sane_panics_with_the_report() {
        let p = loopy_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        sim.live_divergences = 3;
        sim.assert_sane();
    }
}
