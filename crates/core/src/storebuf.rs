//! The store buffer with CTX-filtered forwarding (paper §3.2.4).
//!
//! Speculative store data is held here until the producing store commits
//! and the result is passed to the D-cache. Forwarding to dependent loads
//! is restricted to loads on the same path or a descendant path of the
//! store, decided with the CTX hierarchy comparator.
//!
//! The buffer holds only live stores: the resolution kill removes the
//! entries it matches (kills are per-resolution events), so a load probe,
//! the commit pop and the commit-time invalidation broadcast never step
//! over a dead entry. A load the buffer blocks learns *which* store blocks
//! it ([`LoadCheck::Block`]), so the issue stage can park the load on
//! that store instead of probing again every cycle.

use std::collections::VecDeque;

use pp_ctx::{CtxTag, ResolutionKill};
use pp_isa::Width;

use crate::window::Seq;

/// One buffered store. Every entry in the buffer is live: a killed store
/// leaves the buffer with the resolution kill that squashed it.
#[derive(Debug, Clone)]
pub struct SbEntry {
    /// Program-order sequence of the store instruction.
    pub seq: Seq,
    /// CTX tag (receives resolution kills and commit invalidations).
    pub ctx: CtxTag,
    /// Address, once computed.
    pub addr: Option<u64>,
    /// Store data, once computed.
    pub data: Option<i64>,
    /// Access width.
    pub width: Width,
}

/// Outcome of a load's store-buffer lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadCheck {
    /// The load must wait on the store with this sequence number: the
    /// oldest older same-path store whose address (or data) is not
    /// available yet, or that partly overlaps the load. Until that store
    /// issues, commits or is killed, the answer stays `Block` on it.
    Block(Seq),
    /// Forward this value from the youngest older same-path store with an
    /// exactly matching address and width.
    Forward(i64),
    /// No older same-path store overlaps: read the D-cache.
    Memory,
}

/// The store buffer: live entries in program order.
///
/// Tags here are **eager** — they receive every commit-time invalidation
/// broadcast — so forwarding can compare a (possibly stale-bitted) lazy
/// load tag from the window against them directly: a stale load bit can
/// never coincide with a live store bit, because the free that staled it
/// either broadcast-cleared the position here too or killed every store
/// holding it.
#[derive(Debug)]
pub struct StoreBuffer {
    entries: VecDeque<SbEntry>,
}

impl Default for StoreBuffer {
    fn default() -> Self {
        Self::new()
    }
}

fn ranges_overlap(a: u64, aw: Width, b: u64, bw: Width) -> bool {
    let (a_end, b_end) = (a + aw.bytes(), b + bw.bytes());
    a < b_end && b < a_end
}

/// The verdict of one older participating store on a load reading
/// `[addr, addr+width)`: `Some(seq)` of the store if the load must wait
/// on it (address or data unknown, or a partial overlap that can only
/// drain at commit); otherwise `None`, after recording an exact match's
/// data in `forward` (younger stores probe later and overwrite it: the
/// youngest wins).
fn probe(e: &SbEntry, addr: u64, width: Width, forward: &mut Option<i64>) -> Option<Seq> {
    match (e.addr, e.data) {
        (Some(saddr), Some(d)) if saddr == addr && e.width == width => {
            *forward = Some(d);
            None
        }
        (Some(saddr), _) if !ranges_overlap(saddr, e.width, addr, width) => None,
        _ => Some(e.seq),
    }
}

impl StoreBuffer {
    /// Empty buffer, allocated up front with room for 64 stores: more
    /// than the default-scale workloads hold live at once (49 at most),
    /// so a run does not grow it. Growing it during the run instead left
    /// perfbench's `mono` set-up in the slow state of glibc's heap
    /// trimming (~9,200 against ~1,060 minor faults per run; ROADMAP
    /// item 2).
    pub fn new() -> Self {
        StoreBuffer {
            entries: VecDeque::with_capacity(64),
        }
    }

    /// Buffered (live) stores.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no store is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Allocate an entry at dispatch (address and data still unknown).
    ///
    /// # Panics
    /// Panics if `seq` is not the youngest in the buffer (stores must be
    /// inserted in program order).
    pub fn insert(&mut self, seq: Seq, ctx: CtxTag, width: Width) {
        if let Some(last) = self.entries.back() {
            assert!(last.seq < seq, "store buffer insertions must be ordered");
        }
        self.entries.push_back(SbEntry {
            seq,
            ctx,
            addr: None,
            data: None,
            width,
        });
    }

    /// Record the computed address and data when the store executes.
    ///
    /// # Panics
    /// Panics if no entry with `seq` exists.
    pub fn set_addr_data(&mut self, seq: Seq, addr: u64, data: i64) {
        let e = self
            .entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("store executed without a buffer entry");
        e.addr = Some(addr);
        e.data = Some(data);
    }

    /// Check whether a load at `load_seq` on path `load_ctx` reading
    /// `[addr, addr+width)` may execute, and where its value comes from.
    ///
    /// Only *older* stores on the *same or an ancestor* path participate
    /// (the CTX filter of §3.2.4). Perfect memory disambiguation:
    /// different-address stores never block the load; an exactly matching
    /// store forwards; a partially overlapping store blocks until it
    /// drains to the D-cache at commit. A blocked load is told the oldest
    /// participating store that blocks it.
    pub fn check_load(
        &self,
        load_seq: Seq,
        load_ctx: &CtxTag,
        addr: u64,
        width: Width,
    ) -> LoadCheck {
        let mut forward: Option<i64> = None;
        for e in &self.entries {
            if e.seq >= load_seq {
                // Entries are in program order (insert asserts it): nothing
                // further back can be older than the load.
                break;
            }
            if !load_ctx.is_descendant_or_equal(&e.ctx) {
                continue;
            }
            if let Some(store) = probe(e, addr, width, &mut forward) {
                return LoadCheck::Block(store);
            }
        }
        forward.map_or(LoadCheck::Memory, LoadCheck::Forward)
    }

    /// Every entry, oldest first. For the sanitizer and the model tests;
    /// not part of the pipeline.
    pub fn debug_iter(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }

    /// Reference model for [`check_load`](Self::check_load): no reliance on
    /// buffer ordering (entries are collected and sorted by seq) and the
    /// CTX filter applied per entry from first principles. The fast path
    /// must agree with this on every lookup, down to the blocking store it
    /// names; the per-cycle sanitizer cross-checks them. The caller passes
    /// the load's *scrubbed* tag, so the comparison also exercises the
    /// lazy-vs-eager tag equivalence the fast path's direct comparison
    /// depends on.
    pub fn check_load_naive(
        &self,
        load_seq: Seq,
        load_ctx: &CtxTag,
        addr: u64,
        width: Width,
    ) -> LoadCheck {
        let mut older: Vec<&SbEntry> = self
            .entries
            .iter()
            .filter(|e| e.seq < load_seq && load_ctx.is_descendant_or_equal(&e.ctx))
            .collect();
        older.sort_by_key(|e| e.seq);
        let mut forward: Option<i64> = None;
        for e in older {
            if let Some(store) = probe(e, addr, width, &mut forward) {
                return LoadCheck::Block(store);
            }
        }
        forward.map_or(LoadCheck::Memory, LoadCheck::Forward)
    }

    /// Remove and return the entry for the committing store `seq`.
    ///
    /// # Panics
    /// Panics if the head entry is not `seq` (stores commit in program
    /// order) or its address/data are unknown.
    pub fn commit(&mut self, seq: Seq) -> (u64, i64, Width) {
        let e = self
            .entries
            .pop_front()
            .expect("committing store not in buffer");
        assert_eq!(e.seq, seq, "stores must commit in order");
        (
            e.addr.expect("committed store without address"),
            e.data.expect("committed store without data"),
            e.width,
        )
    }

    /// Resolution bus: remove the stores on the wrong path. Tags here are
    /// eager, so the single `(position, direction)` pair test suffices.
    pub fn kill_matching(&mut self, kill: &ResolutionKill) {
        self.entries.retain(|e| !kill.matches_eager(&e.ctx));
    }

    /// Commit bus: invalidate a history position in every buffered tag.
    pub fn invalidate_position(&mut self, pos: usize) {
        for e in &mut self.entries {
            e.ctx.invalidate(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: Width = Width::Word;

    fn kill_at(pos: usize, dir: bool) -> ResolutionKill {
        ResolutionKill {
            pos,
            dir,
            stale_before: 0,
        }
    }

    #[test]
    fn load_with_no_stores_reads_memory() {
        let sb = StoreBuffer::new();
        assert_eq!(
            sb.check_load(5, &CtxTag::root(), 0x100, W),
            LoadCheck::Memory
        );
    }

    #[test]
    fn exact_match_forwards_youngest() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), W);
        sb.set_addr_data(1, 0x100, 11);
        sb.insert(2, CtxTag::root(), W);
        sb.set_addr_data(2, 0x100, 22);
        assert_eq!(
            sb.check_load(3, &CtxTag::root(), 0x100, W),
            LoadCheck::Forward(22)
        );
    }

    #[test]
    fn unknown_address_blocks() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), W);
        assert_eq!(
            sb.check_load(2, &CtxTag::root(), 0x100, W),
            LoadCheck::Block(1)
        );
    }

    #[test]
    fn different_address_does_not_block() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), W);
        sb.set_addr_data(1, 0x200, 9);
        assert_eq!(
            sb.check_load(2, &CtxTag::root(), 0x100, W),
            LoadCheck::Memory
        );
    }

    #[test]
    fn younger_stores_are_ignored() {
        let mut sb = StoreBuffer::new();
        sb.insert(10, CtxTag::root(), W);
        sb.set_addr_data(10, 0x100, 1);
        assert_eq!(
            sb.check_load(5, &CtxTag::root(), 0x100, W),
            LoadCheck::Memory
        );
    }

    #[test]
    fn ctx_filter_blocks_sibling_forwarding() {
        // Paper §3.2.4: forwarding restricted to the same path or a
        // descendant path of the store.
        let mut sb = StoreBuffer::new();
        let store_tag = CtxTag::root().with_position(0, true);
        let sibling = CtxTag::root().with_position(0, false);
        let descendant = store_tag.with_position(1, false);
        sb.insert(1, store_tag, W);
        sb.set_addr_data(1, 0x100, 7);
        assert_eq!(sb.check_load(2, &sibling, 0x100, W), LoadCheck::Memory);
        assert_eq!(
            sb.check_load(2, &descendant, 0x100, W),
            LoadCheck::Forward(7)
        );
        assert_eq!(
            sb.check_load(2, &store_tag, 0x100, W),
            LoadCheck::Forward(7)
        );
    }

    #[test]
    fn ancestor_store_forwards_to_descendant_load() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), W);
        sb.set_addr_data(1, 0x80, 3);
        let deep = CtxTag::root().with_position(0, true).with_position(1, true);
        assert_eq!(sb.check_load(9, &deep, 0x80, W), LoadCheck::Forward(3));
    }

    #[test]
    fn partial_overlap_blocks() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), Width::Byte);
        sb.set_addr_data(1, 0x103, 0xff);
        // Word load covering 0x100..0x108 overlaps the byte store.
        assert_eq!(
            sb.check_load(2, &CtxTag::root(), 0x100, W),
            LoadCheck::Block(1)
        );
        // Byte load at a different byte does not.
        assert_eq!(
            sb.check_load(2, &CtxTag::root(), 0x104, Width::Byte),
            LoadCheck::Memory
        );
    }

    #[test]
    fn kill_removes_wrong_path_stores() {
        let mut sb = StoreBuffer::new();
        let wrong = CtxTag::root().with_position(0, true);
        sb.insert(1, wrong, W);
        sb.set_addr_data(1, 0x100, 5);
        sb.kill_matching(&kill_at(0, true));
        assert_eq!(sb.check_load(2, &wrong, 0x100, W), LoadCheck::Memory);
        assert!(sb.is_empty());
    }

    #[test]
    fn kill_leaves_only_live_stores() {
        let mut sb = StoreBuffer::new();
        let wrong = CtxTag::root().with_position(0, true);
        sb.insert(1, wrong, W);
        sb.insert(2, CtxTag::root(), W);
        sb.set_addr_data(2, 0x10, 42);
        sb.kill_matching(&kill_at(0, true));
        assert_eq!(sb.debug_iter().map(|e| e.seq).collect::<Vec<_>>(), [2]);
        assert_eq!(sb.commit(2), (0x10, 42, W));
        assert!(sb.is_empty());
    }

    #[test]
    fn block_names_the_oldest_blocking_store() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root(), W);
        sb.set_addr_data(1, 0x200, 5); // disjoint: never blocks
        sb.insert(2, CtxTag::root(), Width::Byte);
        sb.set_addr_data(2, 0x101, 6); // partial overlap
        sb.insert(3, CtxTag::root(), W); // unknown address
        assert_eq!(
            sb.check_load(4, &CtxTag::root(), 0x100, W),
            LoadCheck::Block(2)
        );
        assert_eq!(
            sb.check_load(4, &CtxTag::root(), 0x300, W),
            LoadCheck::Block(3)
        );
    }

    #[test]
    fn invalidate_position_updates_tags() {
        let mut sb = StoreBuffer::new();
        sb.insert(1, CtxTag::root().with_position(2, true), W);
        sb.invalidate_position(2);
        // Tag became root: a root-path load can now forward.
        sb.set_addr_data(1, 0x10, 1);
        assert_eq!(
            sb.check_load(2, &CtxTag::root(), 0x10, W),
            LoadCheck::Forward(1)
        );
    }

    #[test]
    fn naive_model_agrees_with_fast_path() {
        let mut sb = StoreBuffer::new();
        let t = CtxTag::root().with_position(0, true);
        let n = CtxTag::root().with_position(0, false);
        sb.insert(1, CtxTag::root(), W);
        sb.set_addr_data(1, 0x100, 11);
        sb.insert(2, t, W);
        sb.set_addr_data(2, 0x100, 22);
        sb.insert(3, n, Width::Byte);
        sb.set_addr_data(3, 0x104, 0x7f);
        sb.insert(4, CtxTag::root(), W);
        sb.kill_matching(&kill_at(0, false));
        for load_ctx in [&CtxTag::root(), &t, &n] {
            for (addr, w) in [(0x100, W), (0x104, Width::Byte), (0x200, W), (0x102, W)] {
                for seq in [0, 2, 3, 5] {
                    assert_eq!(
                        sb.check_load(seq, load_ctx, addr, w),
                        sb.check_load_naive(seq, load_ctx, addr, w),
                        "seq={seq} ctx={load_ctx} addr={addr:#x} {w:?}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "ordered")]
    fn out_of_order_insert_panics() {
        let mut sb = StoreBuffer::new();
        sb.insert(5, CtxTag::root(), W);
        sb.insert(3, CtxTag::root(), W);
    }
}
