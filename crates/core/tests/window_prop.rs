//! SoA window layout vs a naive boxed shadow model.
//!
//! The window stores entries in a slot ring with per-status bitmasks;
//! this suite drives seeded random op sequences — insert, issue-select
//! (issuing, parking and keeping candidates), wakeup, completion,
//! resolution kills, position frees (exercising the lazy-tag epoch
//! filter), and commit, with enough churn to wrap (and grow) the slot
//! ring — against a deliberately naive shadow: boxed per-entry structs in
//! a `VecDeque`, every query answered by a linear scan. After every op
//! the two must agree on live counts, program order, entry state, issue
//! candidacy, and kill sets; during every scan, on the order in which
//! candidates are offered — so a parked entry is never offered before its
//! blocker issues, commits or is killed, and one woken by an issue
//! earlier in the scan is offered later in that same scan.

use std::collections::VecDeque;

use pp_core::{EntryState, FetchId, FetchedInst, FrontEnd, IssueOutcome, Seq, WinEntry, Window};
use pp_ctx::{CtxTag, PathId, ResolutionKill};
use pp_isa::Op;
use pp_testutil::{cases, Rng};

const POSITIONS: usize = 8;
const CAPACITY: usize = 16;

/// The old layout: one boxed record per entry, queries by linear scan.
struct ShadowEntry {
    seq: Seq,
    state: EntryState,
    ready: bool,
    killed: bool,
    /// Insert-time tag snapshot (lazy, like the window's: never rewritten).
    tag: CtxTag,
    /// Free-epoch stamp at insert; a tag bit is genuine iff its position
    /// has not been freed since.
    born: u64,
    /// The entry this one is parked on, until that entry issues,
    /// commits or is killed.
    parked_on: Option<Seq>,
}

#[derive(Default)]
struct Shadow {
    entries: VecDeque<Box<ShadowEntry>>,
}

impl Shadow {
    fn live(&self) -> impl Iterator<Item = &ShadowEntry> {
        self.entries.iter().map(AsRef::as_ref).filter(|e| !e.killed)
    }

    fn live_count(&self) -> usize {
        self.live().count()
    }

    fn candidates(&self) -> Vec<Seq> {
        self.live()
            .filter(|e| e.state == EntryState::Waiting && e.ready && e.parked_on.is_none())
            .map(|e| e.seq)
            .collect()
    }

    fn get_mut(&mut self, seq: Seq) -> &mut ShadowEntry {
        self.entries
            .iter_mut()
            .find(|e| e.seq == seq)
            .expect("entry exists")
    }

    /// `blocker` issued, committed or was killed: offer its parked
    /// entries again.
    fn wake_parked_on(&mut self, blocker: Seq) {
        for e in &mut self.entries {
            if e.parked_on == Some(blocker) {
                e.parked_on = None;
            }
        }
    }

    fn drop_dead_head(&mut self) {
        while self.entries.front().is_some_and(|e| e.killed) {
            self.entries.pop_front();
        }
    }
}

fn entry(seq: Seq, tag: CtxTag, born: u64) -> WinEntry {
    WinEntry {
        fid: FetchId(seq),
        seq,
        pc: seq as usize,
        op: Op::Nop,
        ctx: tag,
        born,
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

fn random_tag(rng: &mut Rng) -> CtxTag {
    let mut tag = CtxTag::root();
    for pos in 0..POSITIONS {
        if rng.chance(1, 4) {
            tag = tag.with_position(pos, rng.flip());
        }
    }
    tag
}

/// Non-mutating candidate scan: visit every issue candidate, decline all.
fn window_candidates(w: &mut Window) -> Vec<Seq> {
    let mut seqs = Vec::new();
    w.for_each_issuable(|e| {
        seqs.push(e.seq);
        IssueOutcome::Keep
    });
    seqs
}

fn agree(w: &mut Window, s: &Shadow) {
    assert_eq!(w.occupancy(), s.live_count(), "live counter");
    let win: Vec<(Seq, EntryState)> = w.iter_live().map(|e| (e.seq, e.state)).collect();
    let shadow: Vec<(Seq, EntryState)> = s.live().map(|e| (e.seq, e.state)).collect();
    assert_eq!(win, shadow, "live entries in program order");
    assert_eq!(window_candidates(w), s.candidates(), "issue candidacy");
}

#[test]
fn soa_window_matches_boxed_shadow_model() {
    cases(300, |rng| {
        let mut w = Window::new(CAPACITY);
        let mut s = Shadow::default();
        let mut next_seq: Seq = 0;
        // Free-epoch clock: bumped on every position free, exactly like
        // the allocator's tick.
        let mut tick: u64 = 1;
        let mut last_free = [0u64; POSITIONS];

        for _ in 0..200 {
            match rng.below(100) {
                // Insert at the tail.
                0..=34 => {
                    if w.is_full() {
                        continue;
                    }
                    let tag = random_tag(rng);
                    let ready = rng.flip();
                    let seq = next_seq;
                    next_seq += 1;
                    w.push(entry(seq, tag, tick), ready);
                    s.entries.push_back(Box::new(ShadowEntry {
                        seq,
                        state: EntryState::Waiting,
                        ready,
                        killed: false,
                        tag,
                        born: tick,
                        parked_on: None,
                    }));
                }
                // Issue-select: issue, park (on a random older live
                // entry), keep, or stop at each candidate as it is
                // offered. The shadow replays the scan in lock step: the
                // next offer must be its oldest candidate younger than
                // the previous offer, wakes by this scan's issues
                // included.
                35..=49 => {
                    let mut last: Option<Seq> = None;
                    let mut stopped = false;
                    w.for_each_issuable(|e| {
                        let expect = s
                            .candidates()
                            .into_iter()
                            .find(|&c| last.is_none_or(|l| c > l));
                        assert_eq!(Some(e.seq), expect, "select scan order");
                        last = Some(e.seq);
                        match rng.below(10) {
                            0..=3 => {
                                *e.state = EntryState::Issued;
                                s.get_mut(e.seq).state = EntryState::Issued;
                                s.wake_parked_on(e.seq);
                                IssueOutcome::Issued
                            }
                            4..=6 => {
                                let older: Vec<Seq> =
                                    s.live().map(|o| o.seq).filter(|&o| o < e.seq).collect();
                                if older.is_empty() {
                                    return IssueOutcome::Keep;
                                }
                                let blocker = older[rng.below(older.len() as u64) as usize];
                                s.get_mut(e.seq).parked_on = Some(blocker);
                                IssueOutcome::Park(blocker)
                            }
                            7 => {
                                stopped = true;
                                IssueOutcome::Stop
                            }
                            _ => IssueOutcome::Keep,
                        }
                    });
                    if !stopped {
                        let missed: Vec<Seq> = s
                            .candidates()
                            .into_iter()
                            .filter(|&c| last.is_none_or(|l| c > l))
                            .collect();
                        assert!(missed.is_empty(), "scan ended before offering {missed:?}");
                    }
                }
                // Operand wakeup of a random entry (only live + waiting
                // may promote). It never reaches a parked entry: a parked
                // entry's operands were all ready when it was offered.
                50..=57 => {
                    let Some(pick) = pick_seq(rng, &s) else {
                        continue;
                    };
                    if s.get_mut(pick).parked_on.is_some() {
                        continue;
                    }
                    w.wake(pick, |_| true);
                    if let Some(e) = s.entries.iter_mut().find(|e| e.seq == pick) {
                        if !e.killed && e.state == EntryState::Waiting {
                            e.ready = true;
                        }
                    }
                }
                // Complete a random issued entry.
                58..=65 => {
                    let issued: Vec<Seq> = s
                        .live()
                        .filter(|e| e.state == EntryState::Issued)
                        .map(|e| e.seq)
                        .collect();
                    if issued.is_empty() {
                        continue;
                    }
                    let pick = issued[rng.below(issued.len() as u64) as usize];
                    let e = w.get_live_by_seq(pick).expect("issued entry is live");
                    *e.state = EntryState::Done;
                    s.entries
                        .iter_mut()
                        .find(|e| e.seq == pick)
                        .expect("exists")
                        .state = EntryState::Done;
                }
                // Resolution kill broadcast. The selector carries the
                // position's last-free epoch: entries whose snapshot
                // predates it hold a stale leftover bit and are spared.
                66..=81 => {
                    let pos = rng.below(POSITIONS as u64) as usize;
                    let kill = ResolutionKill {
                        pos,
                        dir: rng.flip(),
                        stale_before: last_free[pos],
                    };
                    let mut killed = Vec::new();
                    w.kill_matching(&kill, |e| killed.push(e.seq));
                    let mut expect = Vec::new();
                    for e in &mut s.entries {
                        if !e.killed && e.tag.has(kill.pos, kill.dir) && e.born >= last_free[pos] {
                            e.killed = true;
                            expect.push(e.seq);
                        }
                    }
                    assert_eq!(killed, expect, "kill set in program order");
                    for seq in expect {
                        s.wake_parked_on(seq);
                    }
                }
                // Position freed: bump its free epoch; stored bits for it
                // become stale leftovers (no structure is touched — the
                // lazy-tag discipline).
                82..=88 => {
                    let pos = rng.below(POSITIONS as u64) as usize;
                    last_free[pos] = tick;
                    tick += 1;
                }
                // Commit the head when it is done.
                _ => {
                    s.drop_dead_head();
                    let Some(front) = s.entries.front() else {
                        continue;
                    };
                    if front.state != EntryState::Done {
                        continue;
                    }
                    let popped = w.pop_head();
                    let shadow = s.entries.pop_front().expect("checked non-empty");
                    assert_eq!(popped.seq, shadow.seq, "commit order");
                    assert!(!popped.killed, "committed entry is live");
                    assert_eq!(popped.state, EntryState::Done);
                    s.wake_parked_on(shadow.seq);
                }
            }
            agree(&mut w, &s);
        }
    });
}

fn pick_seq(rng: &mut Rng, s: &Shadow) -> Option<Seq> {
    if s.entries.is_empty() {
        return None;
    }
    let i = rng.below(s.entries.len() as u64) as usize;
    Some(s.entries[i].seq)
}

// ---------------------------------------------------------------------
// Fetch queue
// ---------------------------------------------------------------------

/// Boxed shadow latch for the front-end.
struct ShadowInst {
    fid: u64,
    killed: bool,
    fetch_cycle: u64,
    tag: CtxTag,
    born: u64,
}

fn fetched(fid: u64, tag: CtxTag, cycle: u64, born: u64) -> FetchedInst {
    FetchedInst {
        fid: FetchId(fid),
        pc: fid as usize,
        op: Op::Nop,
        ctx: tag,
        born,
        path: PathId::from_index(0),
        fetch_cycle: cycle,
        branch: None,
        killed: false,
    }
}

#[test]
fn soa_fetch_queue_matches_boxed_shadow_model() {
    const FE_CAP: usize = 12;
    const LATENCY: u64 = 3;
    cases(300, |rng| {
        let mut fe = FrontEnd::new(FE_CAP);
        let mut shadow: VecDeque<Box<ShadowInst>> = VecDeque::new();
        let mut next_fid: u64 = 0;
        let mut now: u64 = 0;
        let mut tick: u64 = 1;
        let mut last_free = [0u64; POSITIONS];

        for _ in 0..200 {
            match rng.below(100) {
                // Fetch into the tail.
                0..=44 => {
                    if fe.is_full() {
                        continue;
                    }
                    let tag = random_tag(rng);
                    let fid = next_fid;
                    next_fid += 1;
                    fe.push(fetched(fid, tag, now, tick));
                    shadow.push_back(Box::new(ShadowInst {
                        fid,
                        killed: false,
                        fetch_cycle: now,
                        tag,
                        born: tick,
                    }));
                }
                // Dispatch attempt: read the head if mature, sometimes
                // leaving it queued (structural stall).
                45..=69 => {
                    let mut dropped = Vec::new();
                    let popped = fe
                        .ready_head(now, LATENCY, |d| dropped.push(d.fid.0))
                        .copied();
                    // Shadow: drop leading corpses, then check maturity.
                    let mut expect_dropped = Vec::new();
                    while shadow.front().is_some_and(|i| i.killed) {
                        expect_dropped.push(shadow.pop_front().expect("front").fid);
                    }
                    let expect = shadow
                        .front()
                        .is_some_and(|i| i.fetch_cycle + LATENCY <= now)
                        .then(|| shadow.pop_front().expect("front"));
                    assert_eq!(dropped, expect_dropped, "corpse reclamation order");
                    match (&popped, &expect) {
                        (Some(i), Some(sh)) => {
                            assert_eq!(i.fid.0, sh.fid, "pop order");
                            assert!(!i.killed);
                        }
                        (None, None) => {}
                        (p, e) => panic!(
                            "pop disagreement: window popped {}, shadow popped {}",
                            p.is_some(),
                            e.is_some()
                        ),
                    }
                    if let (Some(_), Some(sh)) = (popped, expect) {
                        if rng.flip() {
                            // Structural stall: the head stays in its latch.
                            shadow.push_front(sh);
                        } else {
                            // Dispatched: gone from both.
                            fe.pop_head();
                        }
                    }
                }
                // Resolution kill broadcast (with the epoch filter, as on
                // the window).
                70..=84 => {
                    let pos = rng.below(POSITIONS as u64) as usize;
                    let kill = ResolutionKill {
                        pos,
                        dir: rng.flip(),
                        stale_before: last_free[pos],
                    };
                    let mut killed = Vec::new();
                    fe.kill_matching(&kill, |i| killed.push(i.fid.0));
                    let mut expect = Vec::new();
                    for i in &mut shadow {
                        if !i.killed && i.tag.has(kill.pos, kill.dir) && i.born >= last_free[pos] {
                            i.killed = true;
                            expect.push(i.fid);
                        }
                    }
                    assert_eq!(killed, expect, "kill set in fetch order");
                }
                // Position freed: bump its free epoch.
                85..=92 => {
                    let pos = rng.below(POSITIONS as u64) as usize;
                    last_free[pos] = tick;
                    tick += 1;
                }
                // Time passes.
                _ => now += 1,
            }
            assert_eq!(fe.len(), shadow.len(), "queued latches (corpses included)");
            assert_eq!(fe.is_empty(), shadow.is_empty());
        }
    });
}
