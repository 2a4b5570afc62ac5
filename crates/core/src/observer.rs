//! Pipeline event observation: cycle-stamped event hooks, the
//! per-instruction and per-cycle records built from them, and renderers.
//!
//! A [`PipelineObserver`] registered with
//! [`crate::Simulator::set_observer`] receives every micro-architectural
//! event — fetch, squash, dispatch, issue, writeback, branch resolution,
//! divergence, recovery redirect, commit — as it happens, plus one
//! [`CycleSample`] at the end of every cycle. Two observers ship with
//! the crate:
//!
//! * [`TraceLog`] — records events verbatim (tests assert ordering
//!   invariants on it),
//! * [`PipeView`] — folds the events into one [`InstSpan`] per fetched
//!   instruction and renders them as a stage timeline in the style of
//!   gem5's pipeview, which makes eager execution *visible*: killed
//!   wrong-path instructions show as rows that fetch and execute but
//!   never commit. `pp_telemetry` turns the same spans into a Chrome
//!   trace.

use pp_ctx::{CtxTag, PathId};
use pp_isa::{Op, Reg, Width};

use crate::stall::StallCause;
use crate::window::Seq;

/// Unique identity of one fetched instruction (monotone across the run;
/// wrong-path instructions get ids too).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FetchId(pub u64);

/// Where in the machine an instruction was squashed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillStage {
    /// Still in the front-end latches.
    FrontEnd,
    /// In the instruction window.
    Window,
}

/// A cycle-stamped pipeline event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipeEvent {
    /// An instruction entered the front-end.
    Fetched {
        cycle: u64,
        fid: FetchId,
        pc: usize,
        path: PathId,
        op: Op,
    },
    /// SEE created a divergence at a fetched branch.
    Diverged {
        cycle: u64,
        branch: FetchId,
        taken_path: PathId,
        not_taken_path: PathId,
    },
    /// An instruction renamed and entered the window.
    Dispatched { cycle: u64, fid: FetchId, seq: Seq },
    /// An instruction began execution.
    Issued { cycle: u64, fid: FetchId },
    /// An instruction's result wrote back.
    Completed { cycle: u64, fid: FetchId },
    /// A branch or return resolved.
    Resolved {
        cycle: u64,
        fid: FetchId,
        mispredicted: bool,
        diverged: bool,
        /// The confidence estimate made at fetch (`true` = diffident).
        /// Always `false` for returns and indirect jumps.
        conf_low: bool,
    },
    /// A misprediction recovery redirected fetch to `pc`.
    Redirected {
        cycle: u64,
        branch: FetchId,
        pc: usize,
    },
    /// An instruction was squashed (wrong path).
    Killed {
        cycle: u64,
        fid: FetchId,
        stage: KillStage,
    },
    /// An instruction retired architecturally.
    Committed { cycle: u64, fid: FetchId },
}

impl PipeEvent {
    /// The cycle the event occurred.
    pub fn cycle(&self) -> u64 {
        match self {
            PipeEvent::Fetched { cycle, .. }
            | PipeEvent::Diverged { cycle, .. }
            | PipeEvent::Dispatched { cycle, .. }
            | PipeEvent::Issued { cycle, .. }
            | PipeEvent::Completed { cycle, .. }
            | PipeEvent::Resolved { cycle, .. }
            | PipeEvent::Redirected { cycle, .. }
            | PipeEvent::Killed { cycle, .. }
            | PipeEvent::Committed { cycle, .. } => *cycle,
        }
    }

    /// The instruction the event concerns.
    pub fn fid(&self) -> FetchId {
        match self {
            PipeEvent::Fetched { fid, .. }
            | PipeEvent::Dispatched { fid, .. }
            | PipeEvent::Issued { fid, .. }
            | PipeEvent::Completed { fid, .. }
            | PipeEvent::Resolved { fid, .. }
            | PipeEvent::Killed { fid, .. }
            | PipeEvent::Committed { fid, .. } => *fid,
            PipeEvent::Diverged { branch, .. } | PipeEvent::Redirected { branch, .. } => *branch,
        }
    }
}

/// The architectural effect of one committed instruction — the commit
/// stream a differential oracle compares against the functional emulator's
/// [`pp_func::StepEvent`] stream.
///
/// Produced at retirement (after the store buffer released the value to
/// memory and the destination mapping was made architectural), only when a
/// consumer is attached, so checker-off runs build nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// Cycle the instruction retired.
    pub cycle: u64,
    /// Fetch identity (ties the commit back to trace events).
    pub fid: FetchId,
    /// Window sequence number.
    pub seq: Seq,
    /// Architectural PC (instruction index).
    pub pc: usize,
    /// The instruction.
    pub op: Op,
    /// The entry's fetch-time CTX tag, verbatim (lazy — may hold stale
    /// bits whose positions were since recycled). A committing instruction
    /// is architectural, so the *scrubbed* tag is always root; the raw tag
    /// records which speculative context the instruction was fetched under,
    /// which is what a divergence report wants to show.
    pub ctx: CtxTag,
    /// Destination register and the committed value (`None` when the
    /// instruction writes no register, or writes the zero register).
    pub dest: Option<(Reg, i64)>,
    /// Memory effect: `(byte address, stored value, width)` for stores.
    pub store: Option<(u64, i64, Width)>,
}

/// Head-of-window identity at the end of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeadInfo {
    /// Dispatch sequence number.
    pub seq: Seq,
    /// Static PC.
    pub pc: usize,
    /// The instruction.
    pub op: Op,
    /// CTX tag as captured at dispatch (lazy snapshot).
    pub ctx: CtxTag,
}

/// The once-per-cycle machine-state snapshot, taken at the end of the
/// cycle. Observers receive it after all of the cycle's [`PipeEvent`]s,
/// the stall stack charges the cycle's commit slots from it, and the
/// flight recorder keeps the last few in its ring. Cheap to produce (a
/// handful of counters), and only produced while one of those three is
/// attached — telemetry sinks downsample it to their configured interval.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleSample {
    /// The cycle the snapshot describes.
    pub cycle: u64,
    /// Instructions retired this cycle.
    pub committed: u32,
    /// Why the remaining commit slots retired nothing (`None` when every
    /// slot committed).
    pub stall: Option<StallCause>,
    /// Live paths in the CTX table.
    pub live_paths: usize,
    /// Paths currently eligible to fetch (live and not parked) — together
    /// with `live_paths` this exposes the fetch-priority pressure.
    pub fetching_paths: usize,
    /// Unresolved divergences.
    pub live_divergences: usize,
    /// Occupied instruction-window entries.
    pub window_occupancy: usize,
    /// Instructions sitting in the front-end latches.
    pub frontend_occupancy: usize,
    /// Oldest live window entry, if any.
    pub head: Option<HeadInfo>,
}

/// Receiver of pipeline events.
pub trait PipelineObserver {
    /// Called once per event, in simulation order.
    fn event(&mut self, ev: &PipeEvent);

    /// Called once at the end of every simulated cycle with a state
    /// snapshot. The default implementation ignores it.
    fn sample(&mut self, _s: &CycleSample) {}

    /// Called once per architecturally retired instruction with its
    /// committed effects, in program order, after the matching
    /// [`PipeEvent::Committed`]. The default implementation ignores it;
    /// differential oracles override it.
    fn commit(&mut self, _r: &CommitRecord) {}

    /// Downcast support, so [`crate::Simulator::take_observer`] callers can
    /// recover the concrete observer. Implement as `self`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;
}

/// Records every event (for tests and offline analysis).
#[derive(Debug, Default)]
pub struct TraceLog {
    events: Vec<PipeEvent>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// All recorded events, in order.
    pub fn events(&self) -> &[PipeEvent] {
        &self.events
    }

    /// Events concerning one instruction, in order.
    pub fn for_fid(&self, fid: FetchId) -> Vec<&PipeEvent> {
        self.events.iter().filter(|e| e.fid() == fid).collect()
    }
}

impl PipelineObserver for TraceLog {
    fn event(&mut self, ev: &PipeEvent) {
        self.events.push(ev.clone());
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// One instruction's lifecycle, cycle-stamped per stage — the one
/// per-instruction record every span-keeping observer folds the
/// [`PipeEvent`] stream into (via [`InstSpan::apply`]). `None` means
/// the instruction never reached that stage (killed early, or still in
/// flight when the run ended).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstSpan {
    /// Fetch identity (dense, monotone — [`PipeView`] indexes by it).
    pub fid: u64,
    /// Static PC.
    pub pc: usize,
    /// The instruction (`None` until its [`PipeEvent::Fetched`]).
    pub op: Option<Op>,
    /// CTX path slot the instruction was fetched on.
    pub path: u32,
    /// Cycle it entered the front-end.
    pub fetched: u64,
    /// Cycle it renamed into the window.
    pub dispatched: Option<u64>,
    /// Cycle it began execution.
    pub issued: Option<u64>,
    /// Cycle its result wrote back.
    pub completed: Option<u64>,
    /// Cycle it resolved (branches and returns only).
    pub resolved: Option<u64>,
    /// Cycle it retired architecturally.
    pub committed: Option<u64>,
    /// Cycle it was squashed as wrong-path work.
    pub killed: Option<u64>,
    /// SEE diverged at this branch.
    pub diverged: bool,
    /// Resolution found this branch mispredicted.
    pub mispredicted: bool,
    /// Fetch-time CTX tag, recorded at commit (see
    /// [`CommitRecord::ctx`]); `None` for killed or in-flight
    /// instructions, whose tags the event stream does not carry.
    pub ctx: Option<CtxTag>,
}

impl InstSpan {
    /// A span for `fid` that has seen no event yet.
    pub fn new(fid: FetchId) -> Self {
        InstSpan {
            fid: fid.0,
            pc: 0,
            op: None,
            path: 0,
            fetched: 0,
            dispatched: None,
            issued: None,
            completed: None,
            resolved: None,
            committed: None,
            killed: None,
            diverged: false,
            mispredicted: false,
            ctx: None,
        }
    }

    /// Fold one event about this instruction (`ev.fid()` is its fid)
    /// into the span.
    pub fn apply(&mut self, ev: &PipeEvent) {
        match *ev {
            PipeEvent::Fetched {
                cycle,
                pc,
                path,
                op,
                ..
            } => {
                self.fetched = cycle;
                self.pc = pc;
                self.op = Some(op);
                self.path = path.index() as u32;
            }
            PipeEvent::Diverged { .. } => self.diverged = true,
            PipeEvent::Dispatched { cycle, .. } => self.dispatched = Some(cycle),
            PipeEvent::Issued { cycle, .. } => self.issued = Some(cycle),
            PipeEvent::Completed { cycle, .. } => self.completed = Some(cycle),
            PipeEvent::Resolved {
                cycle,
                mispredicted,
                ..
            } => {
                self.resolved = Some(cycle);
                self.mispredicted = mispredicted;
            }
            PipeEvent::Redirected { .. } => {}
            PipeEvent::Killed { cycle, .. } => self.killed = Some(cycle),
            PipeEvent::Committed { cycle, .. } => self.committed = Some(cycle),
        }
    }

    /// Cycle the span ends: commit, kill, or (still in flight) `None`.
    pub fn retired(&self) -> Option<u64> {
        self.committed.or(self.killed)
    }

    /// `"commit"`, `"kill"`, or `"in-flight"`.
    pub fn outcome(&self) -> &'static str {
        if self.committed.is_some() {
            "commit"
        } else if self.killed.is_some() {
            "kill"
        } else {
            "in-flight"
        }
    }
}

/// Keeps one [`InstSpan`] per fetched instruction and renders them as a
/// per-instruction stage timeline (one row per fetched instruction):
/// `f` fetch→dispatch, `d` dispatch→issue, `x` execute, `.` waiting for
/// commit, `C` commit, `K` kill. Fetch ids are dense from zero, so the
/// spans live in a flat `Vec` indexed by fid — O(1) per event.
#[derive(Debug, Default)]
pub struct PipeView {
    spans: Vec<InstSpan>,
    last_cycle: u64,
}

impl PipeView {
    /// Empty pipeview.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recover the concrete view from
    /// [`crate::Simulator::take_observer`]'s boxed trait object.
    pub fn from_box(b: Box<dyn PipelineObserver>) -> Option<Self> {
        b.into_any().downcast::<PipeView>().ok().map(|b| *b)
    }

    /// Spans of the fetched instructions, in fetch order.
    pub fn iter(&self) -> impl Iterator<Item = &InstSpan> {
        self.spans.iter().filter(|s| s.op.is_some())
    }

    /// Number of fetch ids observed (one past the highest).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// `true` before any instruction was observed.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Last cycle any event was seen on (closes in-flight spans).
    pub fn last_cycle(&self) -> u64 {
        self.last_cycle
    }

    fn span_mut(&mut self, fid: FetchId) -> &mut InstSpan {
        let idx = fid.0 as usize;
        while self.spans.len() <= idx {
            let next = FetchId(self.spans.len() as u64);
            self.spans.push(InstSpan::new(next));
        }
        &mut self.spans[idx]
    }

    /// Render rows for instructions fetched in `[from, to)` cycles.
    pub fn render_range(&self, from: u64, to: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = (self.last_cycle + 1).min(to) as usize;
        for s in self.iter() {
            if s.fetched < from || s.fetched >= to {
                continue;
            }
            let end = s.retired().unwrap_or(self.last_cycle).min(to - 1);
            let mut row = vec![b' '; width.saturating_sub(from as usize)];
            let col = |c: u64| (c.saturating_sub(from)) as usize;
            for c in s.fetched..=end {
                let idx = col(c);
                if idx >= row.len() {
                    break;
                }
                row[idx] = match () {
                    _ if Some(c) == s.committed => b'C',
                    _ if Some(c) == s.killed => b'K',
                    _ if s.issued.is_some_and(|i| c >= i) && s.completed.is_some_and(|w| c < w) => {
                        b'x'
                    }
                    _ if s.completed.is_some_and(|w| c >= w) => b'.',
                    _ if s.dispatched.is_some_and(|d| c >= d) => b'd',
                    _ => b'f',
                };
            }
            let mark = if s.diverged {
                "=<"
            } else if s.mispredicted {
                "!!"
            } else {
                "  "
            };
            let opstr = s.op.map_or_else(|| "?".into(), |o| o.to_string());
            let _ = writeln!(
                out,
                "{:>6} {:>5} {mark} |{}| {opstr}",
                s.fid,
                s.pc,
                String::from_utf8_lossy(&row),
            );
        }
        out
    }

    /// Render the whole run.
    pub fn render(&self) -> String {
        self.render_range(0, self.last_cycle + 2)
    }
}

impl PipelineObserver for PipeView {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn event(&mut self, ev: &PipeEvent) {
        self.last_cycle = self.last_cycle.max(ev.cycle());
        self.span_mut(ev.fid()).apply(ev);
    }

    fn commit(&mut self, r: &CommitRecord) {
        self.span_mut(r.fid).ctx = Some(r.ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_ctx::PathTable;

    fn pid() -> PathId {
        let mut t: PathTable<()> = PathTable::new(1);
        t.allocate(()).unwrap()
    }

    #[test]
    fn event_accessors() {
        let ev = PipeEvent::Fetched {
            cycle: 7,
            fid: FetchId(3),
            pc: 12,
            path: pid(),
            op: Op::Nop,
        };
        assert_eq!(ev.cycle(), 7);
        assert_eq!(ev.fid(), FetchId(3));
        let ev = PipeEvent::Redirected {
            cycle: 9,
            branch: FetchId(5),
            pc: 0,
        };
        assert_eq!(ev.fid(), FetchId(5));
    }

    #[test]
    fn trace_log_records_in_order() {
        let mut log = TraceLog::new();
        for c in 0..5 {
            log.event(&PipeEvent::Issued {
                cycle: c,
                fid: FetchId(c),
            });
        }
        assert_eq!(log.events().len(), 5);
        assert_eq!(log.for_fid(FetchId(2)).len(), 1);
    }

    #[test]
    fn pipeview_renders_a_lifecycle() {
        let mut pv = PipeView::new();
        let fid = FetchId(0);
        pv.event(&PipeEvent::Fetched {
            cycle: 0,
            fid,
            pc: 4,
            path: pid(),
            op: Op::Nop,
        });
        pv.event(&PipeEvent::Dispatched {
            cycle: 3,
            fid,
            seq: 0,
        });
        pv.event(&PipeEvent::Issued { cycle: 4, fid });
        pv.event(&PipeEvent::Completed { cycle: 5, fid });
        pv.event(&PipeEvent::Committed { cycle: 6, fid });
        let out = pv.render();
        assert!(out.contains("fffdx.C"), "got: {out}");
        assert!(out.contains("nop"));
        assert_eq!(pv.len(), 1);
    }

    #[test]
    fn pipeview_marks_kills_and_divergences() {
        let mut pv = PipeView::new();
        let fid = FetchId(1);
        pv.event(&PipeEvent::Fetched {
            cycle: 0,
            fid,
            pc: 9,
            path: pid(),
            op: Op::Halt,
        });
        pv.event(&PipeEvent::Diverged {
            cycle: 0,
            branch: fid,
            taken_path: pid(),
            not_taken_path: pid(),
        });
        pv.event(&PipeEvent::Killed {
            cycle: 2,
            fid,
            stage: KillStage::FrontEnd,
        });
        let out = pv.render();
        assert!(out.contains("=<"), "divergence marker: {out}");
        assert!(out.contains('K'), "kill marker: {out}");
    }

    #[test]
    fn pipeview_range_filter() {
        let mut pv = PipeView::new();
        for i in 0..4u64 {
            pv.event(&PipeEvent::Fetched {
                cycle: i * 10,
                fid: FetchId(i),
                pc: i as usize,
                path: pid(),
                op: Op::Nop,
            });
        }
        let out = pv.render_range(10, 25);
        assert_eq!(out.lines().count(), 2, "{out}");
    }

    fn branchy_program() -> pp_isa::Program {
        use pp_isa::{reg, Asm, Operand};
        let mut a = Asm::new();
        a.li(reg::T0, 0);
        a.li(reg::T1, 0);
        let top = a.here();
        a.and(reg::T2, reg::T0, 3i64);
        let skip = a.new_label();
        a.bne(reg::T2, 0i64, skip);
        a.addi(reg::T1, reg::T1, 1);
        a.bind(skip).unwrap();
        a.addi(reg::T0, reg::T0, 1);
        a.blt(reg::T0, Operand::imm(60), top);
        a.halt();
        a.assemble().expect("assembles")
    }

    fn collect() -> (PipeView, crate::SimStats) {
        let p = branchy_program();
        let mut sim = crate::Simulator::new(&p, crate::SimConfig::baseline());
        sim.set_observer(Box::new(PipeView::new()));
        let stats = sim.run();
        let view = PipeView::from_box(sim.take_observer().expect("attached")).expect("downcasts");
        (view, stats)
    }

    #[test]
    fn spans_cover_every_fetched_instruction() {
        let (spans, stats) = collect();
        assert_eq!(spans.len() as u64, stats.fetched_instructions);
        assert_eq!(spans.iter().count(), spans.len());
        let committed = spans.iter().filter(|s| s.committed.is_some()).count() as u64;
        assert_eq!(committed, stats.committed_instructions);
        let killed = spans.iter().filter(|s| s.killed.is_some()).count() as u64;
        assert_eq!(killed, stats.killed_instructions);
    }

    #[test]
    fn stage_timestamps_are_monotone() {
        let (spans, _) = collect();
        for s in spans.iter() {
            if let Some(d) = s.dispatched {
                assert!(d >= s.fetched, "fid {}: dispatch before fetch", s.fid);
                if let Some(i) = s.issued {
                    assert!(i >= d, "fid {}: issue before dispatch", s.fid);
                    if let Some(w) = s.completed {
                        assert!(w > i, "fid {}: writeback not after issue", s.fid);
                        if let Some(c) = s.committed {
                            assert!(c >= w, "fid {}: commit before writeback", s.fid);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn committed_spans_carry_ctx_and_outcome() {
        let (spans, _) = collect();
        for s in spans.iter().filter(|s| s.committed.is_some()) {
            assert!(s.ctx.is_some(), "fid {}: committed without CTX", s.fid);
            assert_eq!(s.outcome(), "commit");
        }
        assert!(
            spans
                .iter()
                .any(|s| s.killed.is_some() && s.outcome() == "kill"),
            "SEE on a badly predicted branch produces wrong-path kills"
        );
    }

    #[test]
    fn unfetched_ids_render_no_row() {
        let mut pv = PipeView::new();
        pv.event(&PipeEvent::Fetched {
            cycle: 1,
            fid: FetchId(2),
            pc: 7,
            path: pid(),
            op: Op::Nop,
        });
        assert_eq!(pv.len(), 3);
        assert_eq!(pv.iter().map(|s| s.fid).collect::<Vec<_>>(), vec![2]);
        assert_eq!(pv.render().lines().count(), 1);
    }
}
