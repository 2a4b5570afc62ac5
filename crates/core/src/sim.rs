//! The PolyPath cycle-level simulator (paper Fig. 2).
//!
//! Execution-driven at the pipeline level: register values flow through
//! rename and the physical register file, so instructions on *both* paths
//! after a divergent branch genuinely execute — with whatever (possibly
//! stale or garbage) values their path's dataflow produces — and contend
//! for fetch bandwidth, window slots, and functional units, exactly as the
//! paper's AINT-based simulator models.
//!
//! Per-cycle stage order (reverse pipeline order, so results flow forward
//! one stage per cycle): commit → writeback/branch-resolution → issue →
//! rename/dispatch → fetch.

use pp_ctx::{CtxTag, PathId, PathTable, PositionAllocator, TagIndex};
use pp_func::{Emulator, Memory};
use pp_isa::{alu_eval, cond_eval, fp_eval, Op, Operand, Program, Width};
use pp_predictor::{
    push_history, AdaptiveJrs, Agree, Bimodal, Btb, Confidence, Gshare, H2p, Jrs, MergeHypothesis,
    MergePredictor, StaticPredictor, TwoLevelLocal,
};

use crate::cache::DCache;
use crate::check::DiffOracle;
use crate::config::{ConfidenceKind, ExecMode, FetchPolicy, PredictorKind, SimConfig};
use crate::flight::{CycleRec, FlightRecorder, HeadInfo};
use crate::frontend::{FetchBranchInfo, FetchedInst, FrontEnd, PathCtx};
use crate::fus::{self, FuClass, FuPool};
use crate::observer::{CommitRecord, CycleSample, FetchId, KillStage, PipeEvent, PipelineObserver};
use crate::oracle::Oracle;
use crate::regfile::{PhysReg, PhysRegFile, RegMap};
use crate::selfprof::{self, HostProfile};
use crate::stall::{StallCause, StallStack};
use crate::stats::SimStats;
use crate::storebuf::{LoadCheck, StoreBuffer};
use crate::window::{
    BranchInfo, Checkpoint, DestInfo, EntryState, IssueOutcome, MemInfo, Seq, WinEntry, Window,
};

/// Step budget for the functional pre-run that generates oracle traces and
/// the co-simulation reference.
const ORACLE_STEP_LIMIT: u64 = 10_000_000_000;

/// Cycles without a commit after which the simulator declares itself wedged
/// (this is a model bug or a non-halting program, never a legal stall).
const DEADLOCK_CYCLES: u64 = 500_000;

// The per-cycle micro-architectural sanitizer lives in its own file but is
// a child module of `sim` so it can read the machine's private state.
#[path = "sanitize.rs"]
pub mod sanitize;

enum Predictor {
    Gshare(Gshare),
    Bimodal(Bimodal),
    TwoLevelLocal(TwoLevelLocal),
    Agree(Agree),
    Static(StaticPredictor),
    Oracle,
}

/// The PolyPath simulator.
///
/// ```
/// use pp_core::{SimConfig, Simulator};
/// use pp_isa::{Asm, reg};
///
/// # fn main() -> Result<(), pp_isa::AsmError> {
/// let mut a = Asm::new();
/// a.li(reg::T0, 1);
/// a.halt();
/// let program = a.assemble()?;
/// let mut sim = Simulator::new(&program, SimConfig::baseline());
/// let stats = sim.run();
/// assert_eq!(stats.committed_instructions, 2);
/// # Ok(())
/// # }
/// ```
pub struct Simulator {
    cfg: SimConfig,
    program: Program,
    now: u64,
    seq_next: Seq,
    birth_next: u64,

    memory: Memory,
    regfile: PhysRegFile,
    paths: PathTable<PathCtx>,
    /// Reverse index over `paths`' tags: per-(position, direction) slot
    /// bitmasks, maintained at every path-tag mutation, so kill sweeps and
    /// the commit broadcast touch only the paths that actually match.
    path_tags: TagIndex,
    positions: PositionAllocator,
    frontend: FrontEnd,
    window: Window,
    sb: StoreBuffer,
    fu_pool: FuPool,
    dcache: Option<DCache>,

    predictor: Predictor,
    btb: Btb,
    jrs: Option<Jrs>,
    adaptive: Option<AdaptiveJrs>,
    h2p: Option<H2p>,
    oracle: Option<Oracle>,
    checker: Option<DiffOracle>,

    /// Merge-point predictor ([`SimConfig::merge`]): present iff path
    /// merging is enabled.
    merge_pred: Option<MergePredictor>,
    /// One slot per CTX position: the reconvergence hypothesis of the
    /// unresolved fork occupying that position (empty when the position
    /// holds a non-divergent branch, or merging is off).
    merge_records: Vec<Option<MergeRecord>>,
    /// Merge-action counters. Outside the golden [`SimStats`] surface —
    /// exposed through [`Simulator::merge_stats`], like the stall stack.
    merge_stats: MergeStats,

    live_divergences: usize,
    halted: bool,
    last_commit_cycle: u64,
    stats: SimStats,
    fid_next: u64,
    observer: Option<Box<dyn PipelineObserver>>,
    selfprof: Option<HostProfile>,

    // Opt-in observability state. Like `selfprof`, none of it feeds back
    // into simulation: enabling it is byte-invisible to `SimStats`
    // (pinned by `stall_and_flight_are_invisible_to_stats` and the golden
    // invisibility test in pp-experiments).
    stallstack: Option<StallStack>,
    flight: Option<FlightRecorder>,
    /// End of the refill shadow opened by the most recent misprediction
    /// recovery; empty-window cycles before this are charged to
    /// [`StallCause::SquashRecovery`] rather than fetch starvation.
    squash_refill_until: u64,
    /// Stall-classifier note from the issue stage: the oldest candidate a
    /// structural resource refused this cycle, and which resource.
    /// Consulted by the *next* cycle's commit triage (commit runs first).
    issue_block: Option<(Seq, IssueBlock)>,
    /// This cycle's commit outcome for the flight recorder: slots retired
    /// and the classified cause for the rest (written by `do_commit` only
    /// while the stall stack or recorder is enabled).
    commit_note: (u32, Option<StallCause>),

    // Per-cycle scratch buffers, hoisted out of the stage functions so the
    // steady-state cycle loop performs no heap allocation.
    scratch_resolving: Vec<Seq>,
    scratch_fetch_order: Vec<PathId>,
    /// Pending writebacks: a bucket ring indexed `complete_at %
    /// completions.len()`, one bucket per future cycle. Every issued entry
    /// is enqueued once, so the writeback stage touches only the entries
    /// completing this cycle instead of scanning the window; a bucket sort
    /// on drain reproduces the scan's oldest-first order within a cycle.
    /// Entries killed after issue are still drained and skipped. The ring
    /// is longer than any schedulable latency (max op latency + worst
    /// cache-miss penalty) and its `now` bucket is drained every cycle,
    /// so slots never alias.
    completions: Vec<Vec<Seq>>,
    /// Dataflow wakeup lists, indexed by physical register: entries that
    /// dispatched with that source operand not yet ready. Drained when the
    /// register is written; surviving waiters whose operands are then all
    /// ready become issue candidates ([`Window::wake`]). Killed waiters are
    /// not unregistered — the drain skips them — and a register's list is
    /// cleared of leftovers when it is reallocated.
    waiters: Vec<Vec<Seq>>,
}

/// The reconvergence hypothesis tracked for one unresolved fork: the
/// CTX-protocol *merge action*'s per-position state. Keyed by the fork's
/// history position (a live position belongs to exactly one unresolved
/// branch, the same property the resolution kill leans on).
#[derive(Debug, Clone, Copy)]
struct MergeRecord {
    /// PC of the diverged branch (the predictor's training key).
    branch_pc: usize,
    /// Predicted reconvergence PC.
    merge_pc: usize,
    /// Tag direction at the fork position of the first arm to reach
    /// `merge_pc`; that arm keeps fetching past the merge point.
    first_dir: Option<bool>,
    /// An opposite-direction arm reached `merge_pc` and parked there.
    parked: bool,
}

/// Counters for the path-merge machinery. Deliberately *not* part of
/// [`SimStats`] (the golden byte surface): read them through
/// [`Simulator::merge_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Forks that entered merge tracking (every divergence while merging
    /// is enabled).
    pub forks_tracked: u64,
    /// Tracked forks whose merge PC came from a confident predictor entry
    /// (the rest used the static fall-through/target hypothesis).
    pub predictor_hits: u64,
    /// Second arms that reached the merge PC and parked — i.e. confirmed
    /// reconvergences where post-merge fetch was deduplicated.
    pub parks: u64,
    /// Parked paths that survived their fork's resolution and resumed
    /// fetching at the merge point.
    pub resumes: u64,
    /// Forks that resolved before both arms reached the hypothesis
    /// (trained as a miss: wrong merge PC, or too far to matter).
    pub unmerged_resolutions: u64,
    /// Divergences the hypothesis source declined to name a merge PC for
    /// (only the static-ipdom oracle abstains; the heuristic always
    /// answers). These forks run untracked: counted in `forks_tracked`,
    /// but no merge record opens.
    pub seedless_forks: u64,
}

/// Which structural resource turned an issue candidate away (stall-stack
/// classification of a ready-but-waiting window head).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueBlock {
    /// Store-buffer ordering blocked a load.
    StoreBuffer,
    /// Functional-unit arbitration refused the candidate.
    Fu,
}

/// Emit an event through an optional observer without constructing it
/// when nobody is listening.
fn emit(obs: &mut Option<Box<dyn PipelineObserver>>, f: impl FnOnce() -> PipeEvent) {
    if let Some(o) = obs {
        let ev = f();
        o.event(&ev);
    }
}

impl Simulator {
    /// Build a simulator for `program` under `cfg`.
    ///
    /// If the configuration uses an oracle predictor or oracle confidence
    /// estimator, the functional emulator pre-runs the program to produce
    /// the correct-path branch trace.
    ///
    /// # Panics
    /// Panics on an invalid configuration ([`SimConfig::validate`]) or if
    /// an oracle pre-run is required and the program does not halt within
    /// the (very large) functional step budget.
    pub fn new(program: &Program, cfg: SimConfig) -> Self {
        cfg.validate();

        let needs_oracle = matches!(cfg.predictor, PredictorKind::Oracle)
            || matches!(cfg.confidence, ConfidenceKind::Oracle);
        let oracle = needs_oracle.then(|| {
            let mut emu = Emulator::new(program);
            let (_, trace) = emu
                .run_with_trace(ORACLE_STEP_LIMIT)
                .expect("oracle pre-run: program must halt");
            Oracle::new(trace)
        });

        let predictor = match cfg.predictor {
            PredictorKind::Gshare { history_bits } => Predictor::Gshare(Gshare::new(history_bits)),
            PredictorKind::Bimodal { index_bits } => Predictor::Bimodal(Bimodal::new(index_bits)),
            PredictorKind::TwoLevelLocal {
                bht_bits,
                history_bits,
            } => Predictor::TwoLevelLocal(TwoLevelLocal::new(bht_bits, history_bits)),
            PredictorKind::Agree {
                bias_bits,
                history_bits,
            } => Predictor::Agree(Agree::new(bias_bits, history_bits)),
            PredictorKind::Oracle => Predictor::Oracle,
            PredictorKind::StaticTaken => Predictor::Static(StaticPredictor::taken()),
            PredictorKind::StaticNotTaken => Predictor::Static(StaticPredictor::not_taken()),
        };
        let jrs = match cfg.confidence {
            ConfidenceKind::Jrs(jc) => Some(Jrs::new(jc)),
            _ => None,
        };
        let adaptive = match cfg.confidence {
            ConfidenceKind::AdaptiveJrs(ac) => Some(AdaptiveJrs::new(ac)),
            _ => None,
        };
        let h2p = match cfg.confidence {
            ConfidenceKind::H2p(hc) => Some(H2p::new(hc)),
            _ => None,
        };
        let merge_pred = cfg.merge.map(|mc| match mc.hypothesis {
            MergeHypothesis::Heuristic => MergePredictor::new(mc),
            // The exact reconvergence oracle: one static CFG +
            // post-dominator pass over the program at construction
            // (DESIGN.md §3j), table handed to the predictor.
            MergeHypothesis::StaticIpdom => MergePredictor::with_ipdom_table(
                mc,
                pp_analyze::Reconvergence::analyze(program).into_ipdom_table(),
            ),
        });

        let mut paths = PathTable::new(cfg.max_paths);
        let root = PathCtx {
            tag: CtxTag::root(),
            pc: program.entry,
            fetching: true,
            ghr: 0,
            ras: crate::ras::Ras::new(),
            regmap: Some(RegMap::identity()),
            on_correct: oracle.is_some(),
            oracle_idx: 0,
            birth: 0,
            merged_at: None,
        };
        let root_id = paths.allocate(root).expect("fresh path table has room");
        let mut path_tags = TagIndex::new(cfg.ctx_positions, cfg.max_paths);
        path_tags.insert(root_id.index(), &CtxTag::root());

        let frontend_capacity = cfg.fetch_width * (cfg.frontend_latency() as usize + 2);

        Simulator {
            memory: Memory::with_segments(&program.data),
            regfile: PhysRegFile::new(cfg.effective_phys_regs()),
            paths,
            path_tags,
            positions: PositionAllocator::new(cfg.ctx_positions),
            frontend: FrontEnd::new(frontend_capacity),
            window: Window::new(cfg.window_size),
            sb: StoreBuffer::new(),
            fu_pool: FuPool::new(&cfg.fus),
            dcache: cfg.dcache.map(DCache::new),
            predictor,
            btb: Btb::new(12),
            jrs,
            adaptive,
            h2p,
            merge_pred,
            merge_records: vec![None; cfg.ctx_positions],
            merge_stats: MergeStats::default(),
            oracle,
            checker: cfg.check_commits.then(|| DiffOracle::new(program)),
            live_divergences: 0,
            halted: false,
            last_commit_cycle: 0,
            now: 0,
            seq_next: 0,
            birth_next: 1,
            stats: SimStats::default(),
            fid_next: 0,
            observer: None,
            selfprof: None,
            stallstack: None,
            flight: None,
            squash_refill_until: 0,
            issue_block: None,
            commit_note: (0, None),
            scratch_resolving: Vec::new(),
            scratch_fetch_order: Vec::new(),
            completions: {
                let span = cfg.latency.max_latency()
                    + cfg.dcache.as_ref().map_or(0, |d| d.miss_latency)
                    + 2;
                vec![Vec::new(); span as usize]
            },
            waiters: vec![Vec::new(); cfg.effective_phys_regs()],
            program: program.clone(),
            cfg,
        }
    }

    /// Attach a pipeline observer; it receives every micro-architectural
    /// event from now on (see [`crate::PipeView`] and [`crate::TraceLog`]).
    pub fn set_observer(&mut self, observer: Box<dyn PipelineObserver>) {
        self.observer = Some(observer);
    }

    /// Detach and return the observer (to inspect what it recorded).
    pub fn take_observer(&mut self) -> Option<Box<dyn PipelineObserver>> {
        self.observer.take()
    }

    /// Start accumulating host-side phase timings ([`HostProfile`]).
    /// Adds two `Instant::now()` calls per pipeline phase per cycle, so
    /// leave it off for accuracy-only runs.
    pub fn enable_self_profiling(&mut self) {
        self.selfprof = Some(HostProfile::default());
    }

    /// The host-side profile accumulated so far, if profiling is enabled.
    pub fn host_profile(&self) -> Option<&HostProfile> {
        self.selfprof.as_ref()
    }

    /// Start classifying every commit slot into the CPI stall stack
    /// ([`StallStack`]): each cycle, slots that retire count as commits
    /// and the rest are charged to one named cause. Opt-in and
    /// byte-invisible to [`SimStats`] — the counters live outside the
    /// golden surface, like self-profiling.
    pub fn enable_stall_accounting(&mut self) {
        self.stallstack = Some(StallStack::default());
    }

    /// The stall stack accumulated so far, if accounting is enabled.
    pub fn stall_stack(&self) -> Option<&StallStack> {
        self.stallstack.as_ref()
    }

    /// Counters for the path-merge machinery ([`SimConfig::merge`]).
    /// All-zero when merging is off. Kept outside [`SimStats`] so the
    /// golden byte surface is unchanged by the merge subsystem.
    pub fn merge_stats(&self) -> &MergeStats {
        &self.merge_stats
    }

    /// Start recording a bounded ring of per-cycle machine snapshots (the
    /// last `depth` cycles), rendered by [`Self::flight_dump`] when a
    /// checking harness hits a failure. Pushes are O(1) and allocation
    /// happens only here, so checked runs leave it on; byte-invisible to
    /// [`SimStats`] like the stall stack.
    pub fn enable_flight_recorder(&mut self, depth: usize) {
        self.flight = Some(FlightRecorder::new(depth));
    }

    /// The flight recorder, if enabled.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Render the flight-recorder history plus a synthesized line for the
    /// current (possibly unfinished) cycle, so a dump taken from inside a
    /// failing cycle — a differential-oracle mismatch at commit, a
    /// sanitizer assert — still shows the failing cycle's state. Returns
    /// a placeholder note when no recorder is enabled.
    pub fn flight_dump(&self) -> String {
        use std::fmt::Write as _;
        let Some(fr) = &self.flight else {
            return "flight recorder: not enabled".to_string();
        };
        let mut out = fr.render();
        let _ = write!(
            out,
            "  in-flight cycle {:>5}: committed_total={} paths={} div={} window={:>4} frontend={:>3}",
            self.now,
            self.stats.committed_instructions,
            self.paths.live(),
            self.live_divergences,
            self.window.occupancy(),
            self.frontend.len(),
        );
        match self.window.iter_live().next() {
            None => {
                let _ = writeln!(out, " head=-");
            }
            Some(h) => {
                let _ = writeln!(
                    out,
                    " head=[seq {} pc {} op {} ctx {}]",
                    h.seq,
                    h.pc,
                    h.op,
                    h.ctx.annotate()
                );
            }
        }
        out
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Committed (architectural) memory state.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }

    /// Statistics collected so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// `true` once the program's `halt` has committed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Run to completion (the `halt` instruction committing) or to the
    /// configured cycle limit, returning the collected statistics.
    ///
    /// # Panics
    /// Panics if the machine stops making forward progress — that is a
    /// model bug or a program that runs off its text section, never a
    /// legal steady state — or if co-simulation checking is enabled and a
    /// committed instruction deviates from the functional emulator.
    pub fn run(&mut self) -> SimStats {
        // Host time is read only when self-profiling asks for it; results
        // never depend on it (pinned by `self_profiling_is_invisible_to_stats`).
        let run_start = self.selfprof.as_ref().map(|_| selfprof::stamp());
        while !self.halted {
            if self.now >= self.cfg.max_cycles {
                self.stats.hit_cycle_limit = true;
                break;
            }
            self.cycle();
            assert!(
                self.now - self.last_commit_cycle < DEADLOCK_CYCLES,
                "no commit for {DEADLOCK_CYCLES} cycles at cycle {}: \
                 window={} frontend={} paths={} positions={} — wedged",
                self.now,
                self.window.occupancy(),
                self.frontend.len(),
                self.paths.live(),
                self.positions.live(),
            );
        }
        self.stats.cycles = self.now;
        if let Some(p) = &mut self.selfprof {
            p.wall += run_start
                .expect("stamped at entry when profiling")
                .elapsed();
            p.cycles = self.now;
            p.committed = self.stats.committed_instructions;
        }
        self.stats.clone()
    }

    /// Simulate a single cycle.
    pub fn cycle(&mut self) {
        self.fu_pool.begin_cycle();
        self.account_fu_capacity();

        if self.selfprof.is_none() {
            self.do_commit();
            if !self.halted {
                self.do_writeback_and_resolve();
                self.do_issue();
                self.do_dispatch();
                self.do_fetch();
            }
        } else {
            let t0 = selfprof::stamp();
            self.do_commit();
            let t1 = selfprof::stamp();
            let (mut t2, mut t3, mut t4, mut t5) = (t1, t1, t1, t1);
            if !self.halted {
                self.do_writeback_and_resolve();
                t2 = selfprof::stamp();
                self.do_issue();
                t3 = selfprof::stamp();
                self.do_dispatch();
                t4 = selfprof::stamp();
                self.do_fetch();
                t5 = selfprof::stamp();
            }
            let p = self.selfprof.as_mut().expect("checked above");
            p.commit += t1 - t0;
            p.writeback += t2 - t1;
            p.issue += t3 - t2;
            p.dispatch += t4 - t3;
            p.fetch += t5 - t4;
        }

        self.stats.record_path_count(self.paths.live());
        self.stats.window_occupancy_sum += self.window.occupancy() as u64;
        self.account_fu_busy();
        if let Some(obs) = &mut self.observer {
            let sample = CycleSample {
                cycle: self.now,
                live_paths: self.paths.live(),
                fetching_paths: self.paths.iter().filter(|(_, p)| p.fetching).count(),
                window_occupancy: self.window.occupancy(),
                frontend_occupancy: self.frontend.len(),
            };
            obs.sample(&sample);
        }
        if let Some(fr) = &mut self.flight {
            let (committed, stall) = self.commit_note;
            let head = self.window.iter_live().next().map(|e| HeadInfo {
                seq: e.seq,
                pc: e.pc,
                ctx: e.ctx,
            });
            fr.push(CycleRec {
                cycle: self.now,
                committed,
                stall,
                live_paths: self.paths.live() as u32,
                live_divergences: self.live_divergences as u32,
                window_occupancy: self.window.occupancy() as u32,
                frontend_occupancy: self.frontend.len() as u32,
                head,
            });
        }
        if self.cfg.sanitize {
            self.assert_sane();
        }
        self.now += 1;
    }

    fn account_fu_capacity(&mut self) {
        let s = &mut self.stats;
        s.fu_int0.capacity_cycles += self.cfg.fus.int0 as u64;
        s.fu_int1.capacity_cycles += self.cfg.fus.int1 as u64;
        s.fu_fp_add.capacity_cycles += self.cfg.fus.fp_add as u64;
        s.fu_fp_mul.capacity_cycles += self.cfg.fus.fp_mul as u64;
        s.fu_mem.capacity_cycles += self.cfg.fus.mem_ports as u64;
    }

    fn account_fu_busy(&mut self) {
        let p = &self.fu_pool;
        let s = &mut self.stats;
        s.fu_int0.busy_cycles += p.issued_this_cycle(FuClass::Int0);
        s.fu_int1.busy_cycles += p.issued_this_cycle(FuClass::Int1);
        s.fu_fp_add.busy_cycles += p.issued_this_cycle(FuClass::FpAdd);
        s.fu_fp_mul.busy_cycles += p.issued_this_cycle(FuClass::FpMul);
        s.fu_mem.busy_cycles += p.issued_this_cycle(FuClass::Mem);
    }

    // ------------------------------------------------------------------
    // Commit stage
    // ------------------------------------------------------------------

    fn do_commit(&mut self) {
        let mut committed: u32 = 0;
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.window.head_mut() else {
                break;
            };
            if *head.state != EntryState::Done {
                break;
            }
            // In-order (commit-time) resolution: the kill/recovery bus
            // fires only when the branch reaches the head (§3.1's
            // Pentium-Pro variant).
            if self.cfg.resolve_at_commit {
                let seq = head.seq;
                let unresolved = head.binfo.as_ref().is_some_and(|b| !b.resolved);
                if unresolved {
                    self.resolve_branch(seq);
                }
            }
            let e = self.window.pop_head();
            // Entry tags are lazy: a committing entry may still *store*
            // bits, but every one must refer to a since-freed position
            // (i.e. the broadcast-maintained tag would be root).
            debug_assert!(
                self.positions.effectively_root(&e.ctx, e.born),
                "committing entry pc={} seq={} with live tag {:?}",
                e.pc,
                e.seq,
                e.ctx
            );
            self.commit_entry(e);
            committed += 1;
            self.last_commit_cycle = self.now;
            if self.halted {
                break;
            }
        }
        if self.stallstack.is_some() || self.flight.is_some() {
            self.note_commit_slots(committed);
        }
    }

    /// Stall-stack epilogue (runs only while the stall stack or flight
    /// recorder is enabled): charge every commit slot this cycle either
    /// to a retirement or to one classified stall cause, so the account
    /// always closes against `cycles × commit_width`.
    fn note_commit_slots(&mut self, committed: u32) {
        let width = self.cfg.commit_width as u32;
        let stalled = u64::from(width.saturating_sub(committed));
        let cause = if stalled == 0 {
            None
        } else if self.halted {
            // The machine halted mid-cycle: nothing is left to retire in
            // the remaining slots. Charge them as fetch-starved so the
            // slot account still closes.
            Some(StallCause::FetchStarved)
        } else {
            Some(self.stall_cause_now())
        };
        self.commit_note = (committed, cause);
        if let Some(st) = &mut self.stallstack {
            st.commit_slots += u64::from(committed);
            if let Some(c) = cause {
                st.charge(c, stalled);
            }
        }
    }

    /// Classify why the head failed to retire this cycle (taxonomy and
    /// priority order: `stall` module docs / DESIGN.md §3g). Commit is
    /// in order, so one cause covers every stalled slot of the cycle.
    /// The issue-stage note (`issue_block`) was written by the *previous*
    /// cycle's issue scan — exactly the attempt whose failure left the
    /// head unissued now. Must never panic: it runs inside the hot loop's
    /// commit stage.
    fn stall_cause_now(&mut self) -> StallCause {
        let in_squash_shadow = self.now < self.squash_refill_until;
        let window_full = self.window.is_full();
        let diverging = self.live_divergences > 0;
        let issue_block = self.issue_block;
        let Simulator {
            window, regfile, ..
        } = self;
        let Some(h) = window.head_mut() else {
            return if in_squash_shadow {
                StallCause::SquashRecovery
            } else {
                StallCause::FetchStarved
            };
        };
        match *h.state {
            EntryState::Waiting => {
                if !h.srcs.iter().flatten().all(|&p| regfile.is_ready(p)) {
                    StallCause::OperandWait
                } else {
                    match issue_block {
                        Some((seq, IssueBlock::StoreBuffer)) if seq == h.seq => {
                            StallCause::StoreBuffer
                        }
                        Some((seq, IssueBlock::Fu)) if seq == h.seq => StallCause::FuStructural,
                        // Ready but never refused: it became a candidate
                        // after the last issue scan (dispatch/wakeup
                        // latency on the critical path).
                        _ => StallCause::OperandWait,
                    }
                }
            }
            EntryState::Issued => {
                if diverging {
                    StallCause::WrongPath
                } else if window_full {
                    StallCause::WindowFull
                } else {
                    StallCause::OperandWait
                }
            }
            // A Done head would have retired in the commit loop; keep the
            // classifier total anyway.
            EntryState::Done => StallCause::OperandWait,
        }
    }

    fn commit_entry(&mut self, e: WinEntry) {
        // Recycle the old physical destination register (§3.1).
        if let Some(d) = e.dest {
            self.regfile.release(d.old);
        }

        let mut store_effect = None;
        match e.op {
            Op::Store { .. } => {
                let (addr, data, width) = self.sb.commit(e.seq);
                self.memory.write(addr, data, width);
                store_effect = Some((addr, data, width));
                // Write-allocate fill (timing only; commit is not delayed).
                if let Some(dc) = &mut self.dcache {
                    dc.access(addr);
                }
            }
            Op::Branch { .. } => self.commit_branch(&e),
            Op::Ret => self.commit_return(&e),
            Op::Jr { .. } => {
                // Train the BTB with the architecturally resolved target.
                let b = e.binfo.as_ref().expect("committed jr without info");
                if let Some(t) = b.actual_target {
                    self.btb.update(e.pc, t);
                }
                self.commit_return(&e);
            }
            Op::Halt => self.halted = true,
            _ => {}
        }

        self.stats.committed_instructions += 1;
        emit(&mut self.observer, || PipeEvent::Committed {
            cycle: self.now,
            fid: e.fid,
        });
        if self.checker.is_some() || self.observer.is_some() {
            let record = CommitRecord {
                cycle: self.now,
                fid: e.fid,
                seq: e.seq,
                pc: e.pc,
                op: e.op,
                ctx: e.ctx,
                dest: e
                    .dest
                    .map(|d| (d.logical, e.result.expect("committed dest without result"))),
                store: store_effect,
            };
            if let Some(c) = &mut self.checker {
                c.check(&record);
            }
            if let Some(o) = &mut self.observer {
                o.commit(&record);
            }
        }
    }

    fn commit_branch(&mut self, e: &WinEntry) {
        let b = e.binfo.as_ref().expect("committed branch without info");
        let outcome = b.outcome.expect("committed branch unresolved");
        let correct = outcome == b.predicted_taken;

        self.stats.committed_branches += 1;
        if !correct {
            self.stats.mispredicted_branches += 1;
        }
        match (b.conf_low, correct) {
            (true, true) => self.stats.low_conf_correct += 1,
            (true, false) => self.stats.low_conf_incorrect += 1,
            (false, true) => self.stats.high_conf_correct += 1,
            (false, false) => self.stats.high_conf_incorrect += 1,
        }

        // Train the tables with the architecturally resolved outcome.
        match &mut self.predictor {
            Predictor::Gshare(g) => g.update(e.pc, b.ghr_at_predict, outcome),
            Predictor::Bimodal(bi) => bi.update(e.pc, outcome),
            Predictor::TwoLevelLocal(t) => t.update(e.pc, outcome),
            Predictor::Agree(a) => a.update(e.pc, b.ghr_at_predict, outcome),
            Predictor::Static(_) | Predictor::Oracle => {}
        }
        if let Some(jrs) = &mut self.jrs {
            jrs.update(e.pc, b.ghr_at_predict, b.predicted_taken, correct);
        }
        if let Some(adaptive) = &mut self.adaptive {
            adaptive.update(e.pc, b.ghr_at_predict, b.predicted_taken, correct);
        }
        if let Some(h2p) = &mut self.h2p {
            h2p.update(e.pc, b.ghr_at_predict, correct);
        }

        self.release_branch_position(b.position);
    }

    fn commit_return(&mut self, e: &WinEntry) {
        let b = e.binfo.as_ref().expect("committed return without info");
        if b.mispredicted {
            self.stats.mispredicted_returns += 1;
        }
        self.release_branch_position(b.position);
    }

    /// The branch commit bus (§3.2.2): invalidate the history position in
    /// every eager tag store in the machine, then reclaim it. The window
    /// and front-end queue are exempt — their stored tags are lazy, and
    /// freeing the position (which bumps its free epoch) is what retires
    /// the stored bits there.
    fn release_branch_position(&mut self, pos: usize) {
        debug_assert!(
            self.merge_records[pos].is_none(),
            "a fork's merge record must be closed (at resolution or kill) \
             before its position is freed at commit"
        );
        self.sb.invalidate_position(pos);
        let mut holding = self.path_tags.holding_position(pos);
        while holding != 0 {
            let slot = holding.trailing_zeros() as usize;
            holding &= holding - 1;
            self.paths
                .get_mut(PathId::from_index(slot))
                .expect("indexed path is live")
                .tag
                .invalidate(pos);
        }
        self.path_tags.invalidate_position(pos);
        self.positions.free(pos);
    }

    /// Close out the differential oracle, if commit checking is enabled:
    /// when the pipeline stopped without committing `halt` (cycle limit),
    /// probe the reference one step to classify the truncation — a
    /// reference-side error is a workload bug, a successful step means the
    /// pipeline starved while architectural execution could continue.
    ///
    /// # Panics
    /// Panics with the classification on a mismatch.
    pub fn finish_commit_check(&mut self) {
        let halted = self.halted;
        if let Some(c) = &mut self.checker {
            c.finish(halted);
        }
    }

    // ------------------------------------------------------------------
    // Writeback + branch resolution
    // ------------------------------------------------------------------

    fn do_writeback_and_resolve(&mut self) {
        let mut resolving = std::mem::take(&mut self.scratch_resolving);
        resolving.clear();
        let now = self.now;
        // Drain this cycle's completion bucket. Issue order within a
        // cycle is not seq order (the candidate scan can issue across
        // paths), so sort the bucket to reproduce the oldest-first order
        // the old full-window scan produced.
        let Simulator {
            window,
            regfile,
            observer,
            completions,
            waiters,
            ..
        } = self;
        let slot = (now % completions.len() as u64) as usize;
        let mut bucket = std::mem::take(&mut completions[slot]);
        bucket.sort_unstable();
        for seq in bucket.drain(..) {
            // Killed after issue: the queue entry is stale, skip it.
            let Some(e) = window.get_live_by_seq(seq) else {
                continue;
            };
            debug_assert!(*e.state == EntryState::Issued && *e.complete_at == now);
            *e.state = EntryState::Done;
            let fid = e.fid;
            let wrote = match (e.dest, *e.result) {
                (Some(d), Some(v)) => Some((d.new, v)),
                _ => None,
            };
            if e.binfo.is_some() {
                resolving.push(seq);
            }
            if let Some((r, v)) = wrote {
                regfile.write(r, v);
                // The wakeup bus: waiters on this register whose operands
                // are now all ready become issue candidates.
                let mut list = std::mem::take(&mut waiters[r.0 as usize]);
                for wseq in list.drain(..) {
                    window.wake(wseq, |srcs| {
                        srcs.iter().flatten().all(|&p| regfile.is_ready(p))
                    });
                }
                waiters[r.0 as usize] = list;
            }
            emit(observer, || PipeEvent::Completed { cycle: now, fid });
        }
        completions[slot] = bucket;
        if !self.cfg.resolve_at_commit {
            for &seq in &resolving {
                self.resolve_branch(seq);
            }
        }
        self.scratch_resolving = resolving;
    }

    /// Branch resolution (§3.2.2–§3.2.3): compare outcome with prediction,
    /// kill the wrong path's subtree, and for non-divergent mispredictions
    /// restore checkpointed state into a fresh recovery path.
    fn resolve_branch(&mut self, seq: Seq) {
        // A resolution processed earlier this cycle may have killed it.
        let Some(e) = self.window.get_live_by_seq(seq) else {
            return;
        };
        let b = e.binfo.as_mut().expect("resolving non-branch");
        if b.resolved {
            return;
        }
        b.resolved = true;

        let parent_tag = *e.ctx;
        let born = e.born;
        let pos = b.position;
        let diverged = b.diverged;
        let is_return = b.is_return;
        let outcome = b.outcome;
        let actual_target = b.actual_target;
        let predicted_taken = b.predicted_taken;
        let predicted_target = b.predicted_target;
        let taken_target = b.taken_target;
        let fallthrough = b.fallthrough;
        let ghr_at_predict = b.ghr_at_predict;
        let conf_low = b.conf_low;

        let mispredicted = if is_return {
            actual_target != Some(predicted_target)
        } else {
            outcome != Some(predicted_taken)
        };
        b.mispredicted = mispredicted;
        let checkpoint = b.checkpoint.take();
        let fid = e.fid;
        emit(&mut self.observer, || PipeEvent::Resolved {
            cycle: self.now,
            fid,
            mispredicted,
            diverged,
            conf_low,
        });

        if diverged {
            // Both successors executed; kill the wrong one, keep the other.
            self.live_divergences -= 1;
            self.kill_subtree(pos, !outcome.expect("diverged branch outcome"));
            if self.merge_pred.is_some() {
                self.finish_merge(pos);
            }
        } else if mispredicted {
            self.stats.recoveries += 1;
            // Stall classifier: the squash may drain the machine; charge
            // empty-window cycles within one front-end refill of here to
            // squash recovery rather than fetch starvation.
            self.squash_refill_until = self.now + self.cfg.frontend_latency() + 2;
            let wrong_dir = if is_return { true } else { predicted_taken };
            self.kill_subtree(pos, wrong_dir);

            // Create the recovery path from the checkpoint (§3.1).
            let cp: Box<Checkpoint> =
                checkpoint.expect("non-divergent branch must carry a checkpoint");
            let (tag_dir, pc, ghr) = if is_return {
                (
                    false,
                    actual_target.expect("resolved return without target"),
                    ghr_at_predict,
                )
            } else {
                let out = outcome.expect("resolved branch without outcome");
                let pc = if out { taken_target } else { fallthrough };
                (out, pc, push_history(ghr_at_predict, out))
            };
            // The branch's stored parent tag is a lazy snapshot: scrub
            // bits whose positions were freed since dispatch so the
            // recovery path starts from the broadcast-maintained tag.
            let recovery_tag = self
                .positions
                .scrub(parent_tag, born)
                .with_position(pos, tag_dir);
            let recovery = PathCtx {
                tag: recovery_tag,
                pc,
                fetching: true,
                ghr,
                ras: cp.ras,
                regmap: Some(cp.regmap),
                on_correct: cp.oracle_on_correct && self.oracle.is_some(),
                oracle_idx: cp.oracle_idx,
                birth: self.birth_next,
                merged_at: None,
            };
            self.birth_next += 1;
            emit(&mut self.observer, || PipeEvent::Redirected {
                cycle: self.now,
                branch: fid,
                pc: recovery.pc,
            });
            let rid = self
                .paths
                .allocate(recovery)
                .expect("a path slot is free after killing the wrong subtree");
            self.path_tags.insert(rid.index(), &recovery_tag);
        }
        // Correctly predicted, non-divergent: nothing to do until commit.
    }

    /// Apply the resolution bus: squash every instruction, store-buffer
    /// entry, and path on the wrong side of the branch occupying `pos`,
    /// releasing the resources they hold.
    ///
    /// The selector is the single `(pos, wrong_dir)` pair: a live position
    /// belongs to exactly one unresolved branch, so a tag descends from
    /// `parent + (pos, wrong_dir)` iff it holds that pair (plus, for the
    /// lazy window tags, the free-epoch freshness check).
    fn kill_subtree(&mut self, pos: usize, wrong_dir: bool) {
        let kill = self.positions.resolution_kill(pos, wrong_dir);
        let Simulator {
            window,
            frontend,
            sb,
            regfile,
            positions,
            paths,
            path_tags,
            stats,
            observer,
            live_divergences,
            merge_records,
            now,
            ..
        } = self;
        let now = *now;

        // Instruction window: resources are released in the kill callback,
        // with no clone of the killed entries. Positions freed here belong
        // to killed (unresolved) branches, never to `pos` itself, so the
        // selector's captured epoch stays valid throughout.
        window.kill_matching(&kill, |k| {
            stats.killed_instructions += 1;
            emit(observer, || PipeEvent::Killed {
                cycle: now,
                fid: k.fid,
                stage: KillStage::Window,
            });
            if let Some(d) = k.dest {
                regfile.release(d.new);
            }
            if let Some(b) = k.binfo {
                if !b.resolved && b.diverged {
                    *live_divergences -= 1;
                }
                // A killed fork's reconvergence hypothesis dies with it,
                // untrained (wrong-path forks are not evidence).
                merge_records[b.position] = None;
                positions.free(b.position);
            }
        });

        // Front-end latches.
        frontend.kill_matching(&kill, |inst| {
            stats.killed_instructions += 1;
            emit(observer, || PipeEvent::Killed {
                cycle: now,
                fid: inst.fid,
                stage: KillStage::FrontEnd,
            });
            if let Some(b) = inst.binfo {
                merge_records[b.position] = None;
                positions.free(b.position);
                if b.diverged {
                    *live_divergences -= 1;
                }
            }
        });

        // Store buffer.
        sb.kill_matching(&kill);

        // Paths: the CTX-table sweep is a single mask lookup.
        let dead = path_tags.killed_by(&kill);
        #[cfg(debug_assertions)]
        {
            let expect = paths
                .iter()
                .filter(|(_, p)| p.tag.has(pos, wrong_dir))
                .fold(0u64, |m, (id, _)| m | 1 << id.index());
            debug_assert_eq!(
                dead, expect,
                "TagIndex wrong-path mask diverged from the path tags"
            );
        }
        let mut mask = dead;
        while mask != 0 {
            let slot = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let p = paths.free(PathId::from_index(slot));
            path_tags.remove(slot, &p.tag);
        }
    }

    /// Close out the merge record of the fork at `pos`, just resolved and
    /// with its wrong subtree killed: train the predictor with whether
    /// the arms in fact reconverged, and resume the parked survivor (if
    /// the parked arm was the correct one, it is now the only holder of
    /// the merge point and picks the shared suffix back up).
    fn finish_merge(&mut self, pos: usize) {
        let Some(rec) = self.merge_records[pos].take() else {
            return;
        };
        let mp = self.merge_pred.as_mut().expect("records imply a predictor");
        if !rec.parked {
            // Resolution beat reconvergence: the hypothesis was wrong, or
            // right but too distant to pay for tracking. Either way the
            // entry should decay.
            mp.observe(rec.branch_pc, rec.merge_pc, false);
            self.merge_stats.unmerged_resolutions += 1;
            return;
        }
        // Reconvergence was already confirmed (and trained) at park time.
        let survivor = self
            .paths
            .iter()
            .find(|(_, p)| p.merged_at == Some(pos))
            .map(|(id, _)| id);
        if let Some(id) = survivor {
            let p = self.paths.get_mut(id).expect("found above");
            p.fetching = true;
            p.merged_at = None;
            self.merge_stats.resumes += 1;
        }
    }

    /// The CTX merge action, checked each time path `pid` is about to
    /// fetch at `pc`: if `pc` is the predicted reconvergence point of an
    /// unresolved fork this path descends from, the first arm to arrive
    /// keeps fetching (it owns the shared post-merge suffix) and an
    /// opposite-direction arm parks, so merged instructions are fetched
    /// once instead of twice. Returns `true` if the path parked.
    fn merge_check(&mut self, pid: PathId, pc: usize) -> bool {
        let tag = self.paths.get(pid).expect("path exists").tag;
        for pos in 0..self.merge_records.len() {
            let Some(rec) = &mut self.merge_records[pos] else {
                continue;
            };
            if rec.merge_pc != pc {
                continue;
            }
            // Path tags are eager (commit-broadcast maintained), so the
            // stored direction at a live fork position is authoritative.
            let Some(dir) = tag.position(pos) else {
                continue;
            };
            match rec.first_dir {
                None => rec.first_dir = Some(dir), // first arm: continue
                Some(d) if d == dir => {}          // same arm again (loop)
                Some(_) if !rec.parked => {
                    rec.parked = true;
                    // Both arms reached the merge PC while the fork was
                    // in flight: confirmed reconvergence, train now (a
                    // wrong-side resolution later would discard the
                    // record before `finish_merge` could).
                    let (bpc, mpc) = (rec.branch_pc, rec.merge_pc);
                    self.merge_pred
                        .as_mut()
                        .expect("records imply a predictor")
                        .observe(bpc, mpc, true);
                    let p = self.paths.get_mut(pid).expect("path exists");
                    p.fetching = false;
                    p.merged_at = Some(pos);
                    self.merge_stats.parks += 1;
                    return true;
                }
                Some(_) => {} // a pair already merged at this fork
            }
        }
        false
    }

    // ------------------------------------------------------------------
    // Issue + execute
    // ------------------------------------------------------------------

    fn do_issue(&mut self) {
        let Simulator {
            window,
            regfile,
            sb,
            fu_pool,
            memory,
            cfg,
            now,
            observer,
            dcache,
            stats,
            completions,
            positions,
            issue_block,
            ..
        } = self;
        let now = *now;
        // Candidates are visited oldest first, so the first refusal
        // recorded is the oldest refused candidate — which is what the
        // stall classifier matches against the window head next cycle.
        *issue_block = None;

        // Unit classes the pool has already refused this cycle. A later
        // candidate whose whole eligibility set is saturated is refused
        // without re-probing the pool (and once every class is saturated
        // the scan stops outright) — with a full window and a handful of
        // units, most of a busy cycle's candidates die here. The short
        // cut is exact: it skips only pool probes that must fail and
        // store-buffer checks whose sole observable effect (classifying
        // the *first* refusal) has already happened. With the sanitizer
        // armed every candidate still takes the full path, so the
        // per-issue store-buffer cross-checks all run.
        let mut sat = 0u8;

        window.for_each_issuable(|e| {
            debug_assert!(
                e.srcs.iter().flatten().all(|&p| regfile.is_ready(p)),
                "issue candidate with a not-ready operand"
            );
            let read = |slot: Option<PhysReg>| slot.map_or(0, |p| regfile.read(p));
            let class = e.op.class();
            let elig = fus::eligibility_bits(class);
            if !cfg.sanitize && sat & elig == elig && issue_block.is_some() {
                return if sat == fus::ALL_UNIT_CLASSES {
                    IssueOutcome::Stop
                } else {
                    IssueOutcome::Keep
                };
            }
            // The pool refusal path shared by every arm below: classify
            // the first refusal, remember the saturated classes, stop
            // the scan once nothing can issue any more.
            macro_rules! claim_fu_or_keep {
                () => {
                    if fu_pool.try_issue(class, now, &cfg.latency).is_none() {
                        if issue_block.is_none() {
                            *issue_block = Some((e.seq, IssueBlock::Fu));
                        }
                        sat |= elig;
                        return if sat == fus::ALL_UNIT_CLASSES && !cfg.sanitize {
                            IssueOutcome::Stop
                        } else {
                            IssueOutcome::Keep
                        };
                    }
                };
            }
            let mut extra_latency = 0u64;

            match *e.op {
                Op::Load { offset, width, .. } => {
                    let addr = (read(e.srcs[0]) as u64).wrapping_add(offset as u64);
                    let check = sb.check_load(e.seq, e.ctx, addr, width);
                    if cfg.sanitize {
                        // Cross-check the CTX-filtered fast path (which
                        // leans on lazy-tag/eager-tag equivalence and the
                        // buffer's seq ordering) against the naive model
                        // over the scrubbed load tag.
                        let scrubbed = positions.scrub(*e.ctx, e.born);
                        let naive = sb.check_load_naive(e.seq, &scrubbed, addr, width);
                        assert_eq!(
                            check, naive,
                            "sanitizer: store-buffer fast path diverged from the naive \
                             model at cycle {now}: load seq {} pc {} addr {addr:#x}",
                            e.seq, e.pc
                        );
                    }
                    if check == LoadCheck::Block {
                        if issue_block.is_none() {
                            *issue_block = Some((e.seq, IssueBlock::StoreBuffer));
                        }
                        return IssueOutcome::Keep;
                    }
                    claim_fu_or_keep!();
                    let (value, forwarded) = match check {
                        // Forwarded data must look exactly like a memory
                        // round-trip: a byte store truncates on write and
                        // a byte load zero-extends, so the buffered word
                        // is narrowed here. (Found by fuzz_check seed
                        // 1293: `stb` of 141488 forwarded the full word
                        // to an `ldb` that architecturally reads 176.)
                        LoadCheck::Forward(v) => {
                            let v = match width {
                                Width::Byte => (v as u8) as i64,
                                Width::Word => v,
                            };
                            (v, true)
                        }
                        LoadCheck::Memory => (memory.read(addr, width), false),
                        LoadCheck::Block => unreachable!(),
                    };
                    *e.mem = Some(MemInfo {
                        addr: Some(addr),
                        width,
                        forwarded,
                    });
                    *e.result = Some(value);
                    // D-cache model: cache-reading loads may miss
                    // (store-buffer forwards never touch the cache).
                    if let (Some(dc), false) = (dcache.as_mut(), forwarded) {
                        if dc.access(addr) {
                            stats.dcache_hits += 1;
                        } else {
                            stats.dcache_misses += 1;
                            extra_latency = dc.miss_latency() as u64;
                        }
                    }
                }
                Op::Store { offset, width, .. } => {
                    claim_fu_or_keep!();
                    let addr = (read(e.srcs[0]) as u64).wrapping_add(offset as u64);
                    let data = read(e.srcs[1]);
                    sb.set_addr_data(e.seq, addr, data);
                    *e.mem = Some(MemInfo {
                        addr: Some(addr),
                        width,
                        forwarded: false,
                    });
                }
                Op::Alu { op, src2, .. } => {
                    claim_fu_or_keep!();
                    let a = read(e.srcs[0]);
                    let bval = match src2 {
                        Operand::Imm(v) => v,
                        Operand::Reg(_) => read(e.srcs[1]),
                    };
                    *e.result = Some(alu_eval(op, a, bval));
                }
                Op::Li { imm, .. } => {
                    claim_fu_or_keep!();
                    *e.result = Some(imm);
                }
                Op::Fp { op, .. } => {
                    claim_fu_or_keep!();
                    *e.result = Some(fp_eval(op, read(e.srcs[0]), read(e.srcs[1])));
                }
                Op::Branch { cond, src2, .. } => {
                    claim_fu_or_keep!();
                    let a = read(e.srcs[0]);
                    let bval = match src2 {
                        Operand::Imm(v) => v,
                        Operand::Reg(_) => read(e.srcs[1]),
                    };
                    let b = e.binfo.as_mut().expect("branch without info");
                    b.outcome = Some(cond_eval(cond, a, bval));
                }
                Op::Ret | Op::Jr { .. } => {
                    claim_fu_or_keep!();
                    let target = read(e.srcs[0]);
                    let b = e.binfo.as_mut().expect("indirect jump without info");
                    b.actual_target = Some(target.max(0) as usize);
                }
                Op::Call { target } => {
                    claim_fu_or_keep!();
                    let _ = target;
                    *e.result = Some((e.pc + 1) as i64);
                }
                Op::Jump { .. } | Op::Halt | Op::Nop => {
                    claim_fu_or_keep!();
                }
            }

            *e.state = EntryState::Issued;
            *e.complete_at = now + fus::latency(class, &cfg.latency) as u64 + extra_latency;
            let slot = (*e.complete_at % completions.len() as u64) as usize;
            completions[slot].push(e.seq);
            emit(observer, || PipeEvent::Issued {
                cycle: now,
                fid: e.fid,
            });
            IssueOutcome::Issued
        });
    }

    // ------------------------------------------------------------------
    // Rename + dispatch
    // ------------------------------------------------------------------

    fn do_dispatch(&mut self) {
        let latency = self.cfg.frontend_latency();
        for _ in 0..self.cfg.dispatch_width {
            // Drop corpses (already counted as killed when the resolution
            // bus marked them), then peek at the oldest live instruction.
            let Some(front) = self.frontend.pop_ready(self.now, latency, |_| {}) else {
                break;
            };
            // `pop_ready` returned an instruction we must dispatch or put
            // back; check structural resources first.
            if self.window.is_full() {
                self.stats.dispatch_stall_window_full += 1;
                self.frontend_unpop(front);
                break;
            }
            if front.op.dest().is_some() && self.regfile.free_count() == 0 {
                self.frontend_unpop(front);
                break;
            }
            self.dispatch_one(front);
        }
    }

    /// Put an instruction back at the front of the queue (structural stall).
    fn frontend_unpop(&mut self, inst: FetchedInst) {
        self.frontend.push_front(inst);
    }

    fn dispatch_one(&mut self, inst: FetchedInst) {
        let seq = self.seq_next;
        self.seq_next += 1;

        let path = self
            .paths
            .get_mut(inst.path)
            .expect("live instruction's path exists");
        let regmap = path
            .regmap
            .as_mut()
            .expect("path register map valid before its instructions rename");

        // Rename sources through the path's RegMap (§3.2.5).
        let sources = inst.op.sources();
        let srcs = [
            sources[0].map(|r| regmap.lookup(r)),
            sources[1].map(|r| regmap.lookup(r)),
        ];

        // Rename the destination: allocate a new physical register and
        // remember the old mapping for recycling at commit.
        let dest = inst.op.dest().map(|logical| {
            let new = self
                .regfile
                .allocate()
                .expect("free register checked before dispatch");
            // Leftover wakeup registrations from the register's previous
            // life are dead weight; drop them with the reallocation.
            self.waiters[new.0 as usize].clear();
            let old = regmap.rename(logical, new);
            DestInfo { logical, new, old }
        });

        // Operands not ready yet register on the producer's wakeup list;
        // if everything is already ready the entry enters the window as an
        // immediate issue candidate.
        let mut ops_ready = true;
        for &src in srcs.iter().flatten() {
            if !self.regfile.is_ready(src) {
                ops_ready = false;
                self.waiters[src.0 as usize].push(seq);
            }
        }

        // Branches: build the recovery checkpoint / divergence RegMaps.
        let binfo = inst.binfo.as_ref().map(|fb| {
            let checkpoint = if fb.diverged {
                None
            } else {
                Some(Box::new(Checkpoint {
                    regmap: self
                        .paths
                        .get(inst.path)
                        .expect("path exists")
                        .regmap
                        .clone()
                        .expect("regmap exists"),
                    ras: fb.ras_checkpoint.clone(),
                    oracle_on_correct: fb.was_on_correct,
                    oracle_idx: fb.oracle_idx_after,
                }))
            };
            Box::new(self.make_branch_info(&inst, fb, checkpoint))
        });

        // Divergent branch renaming: copy the (parent) map into the taken
        // successor path — the second RegMap copy of §3.2.5.
        if let Some(fb) = &inst.binfo {
            if fb.diverged {
                let map = self
                    .paths
                    .get(inst.path)
                    .expect("path exists")
                    .regmap
                    .clone()
                    .expect("regmap exists");
                let taken = fb.taken_path.expect("diverged branch has a taken path");
                self.paths
                    .get_mut(taken)
                    .expect("taken successor path alive while branch is alive")
                    .regmap = Some(map);
            }
        }

        if let Op::Store { width, .. } = inst.op {
            // Store-buffer tags are eager (they receive the commit
            // broadcast), so scrub the lazy fetch snapshot on the way in.
            let scrubbed = self.positions.scrub(inst.ctx, inst.born);
            self.sb.insert(seq, scrubbed, width);
        }

        emit(&mut self.observer, || PipeEvent::Dispatched {
            cycle: self.now,
            fid: inst.fid,
            seq,
        });
        self.window.push(
            WinEntry {
                fid: inst.fid,
                seq,
                pc: inst.pc,
                op: inst.op,
                ctx: inst.ctx,
                born: inst.born,
                path: inst.path,
                srcs,
                dest,
                state: EntryState::Waiting,
                complete_at: 0,
                result: None,
                binfo,
                mem: None,
                killed: false,
            },
            ops_ready,
        );
        self.stats.dispatched_instructions += 1;
    }

    fn make_branch_info(
        &self,
        inst: &FetchedInst,
        fb: &FetchBranchInfo,
        checkpoint: Option<Box<Checkpoint>>,
    ) -> BranchInfo {
        let (fallthrough, taken_target) = match inst.op {
            Op::Branch { target, .. } => (inst.pc + 1, target),
            Op::Ret | Op::Jr { .. } => (inst.pc + 1, 0),
            _ => unreachable!("branch info only for branches and indirect jumps"),
        };
        BranchInfo {
            is_return: fb.is_return,
            predicted_taken: fb.predicted_taken,
            predicted_target: fb.predicted_target,
            fallthrough,
            taken_target,
            position: fb.position,
            diverged: fb.diverged,
            conf_low: fb.conf_low,
            ghr_at_predict: fb.ghr_at_predict,
            checkpoint,
            outcome: None,
            actual_target: None,
            resolved: false,
            mispredicted: false,
        }
    }

    // ------------------------------------------------------------------
    // Fetch
    // ------------------------------------------------------------------

    fn do_fetch(&mut self) {
        // Priority order: older paths first (§4.2 — bandwidth decreases
        // exponentially with distance from the oldest branch). The path
        // table maintains allocation order incrementally, and births are
        // assigned in allocation order, so this is the same snapshot the
        // old per-cycle `(birth, id)` sort produced — without the sort.
        let mut order = std::mem::take(&mut self.scratch_fetch_order);
        order.clear();
        for &id in self.paths.ids_by_age() {
            if self.paths.get(id).expect("listed path is live").fetching {
                order.push(id);
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut check: Vec<(u64, PathId)> = self
                .paths
                .iter()
                .filter(|(_, p)| p.fetching)
                .map(|(id, p)| (p.birth, id))
                .collect();
            check.sort_unstable();
            debug_assert!(
                order.iter().eq(check.iter().map(|(_, id)| id)),
                "age-order list diverged from the birth sort"
            );
        }
        self.fetch_arbitrate(&order);
        self.scratch_fetch_order = order;
    }

    fn fetch_arbitrate(&mut self, order: &[PathId]) {
        if order.is_empty() {
            if !self.halted {
                self.stats.fetch_stall_no_path += 1;
            }
            return;
        }

        let mut budget = self.cfg.fetch_width;

        // A single live path gets the whole machine (paper goal 1).
        if order.len() == 1 {
            self.fetch_path(order[0], budget);
            return;
        }

        match self.cfg.fetch_policy {
            FetchPolicy::ExponentialByAge => {
                // The paper's stated policy: exponentially decaying share
                // by age rank (rank 0 → half the width, rank 1 → a
                // quarter, …, minimum 1), then a work-conserving second
                // pass hands leftover slots to paths in priority order.
                for (i, &pid) in order.iter().enumerate() {
                    if budget == 0 || self.frontend.is_full() {
                        break;
                    }
                    let share = (self.cfg.fetch_width >> (i + 1)).max(1).min(budget);
                    budget -= self.fetch_path(pid, share);
                }
                for &pid in order {
                    if budget == 0 || self.frontend.is_full() {
                        break;
                    }
                    budget -= self.fetch_path(pid, budget);
                }
            }
            FetchPolicy::OldestFirst => {
                // Strict priority: each path takes what the older ones left.
                for &pid in order {
                    if budget == 0 || self.frontend.is_full() {
                        break;
                    }
                    budget -= self.fetch_path(pid, budget);
                }
            }
            FetchPolicy::RoundRobin => {
                // One instruction per live path per round, oldest first.
                let mut progress = true;
                while budget > 0 && progress && !self.frontend.is_full() {
                    progress = false;
                    for &pid in order {
                        if budget == 0 || self.frontend.is_full() {
                            break;
                        }
                        let used = self.fetch_path(pid, 1);
                        if used > 0 {
                            progress = true;
                            budget -= used;
                        }
                    }
                }
            }
            FetchPolicy::VariableRate => {
                // Variable-rate arbitration (Ramachandran & Johnson
                // flavoured): a path's share halves with its *speculation
                // depth* — the count of unresolved forks on its ancestry
                // (valid tag bits) — rather than its age rank, so two
                // shallow paths split the machine evenly while deeply
                // nested speculation is throttled. Work-conserving second
                // pass, as with the paper policy.
                for &pid in order {
                    if budget == 0 || self.frontend.is_full() {
                        break;
                    }
                    let depth = self
                        .paths
                        .get(pid)
                        .expect("listed path is live")
                        .tag
                        .valid_count();
                    let share = (self.cfg.fetch_width >> depth.min(63)).max(1).min(budget);
                    budget -= self.fetch_path(pid, share);
                }
                for &pid in order {
                    if budget == 0 || self.frontend.is_full() {
                        break;
                    }
                    budget -= self.fetch_path(pid, budget);
                }
            }
        }
    }

    /// Fetch up to `share` instructions from path `pid`. Returns the count
    /// actually fetched.
    fn fetch_path(&mut self, pid: PathId, share: usize) -> usize {
        let mut used = 0;
        while used < share && !self.frontend.is_full() {
            // The path may have been consumed by a divergence this cycle.
            let Some(path) = self.paths.get(pid) else {
                break;
            };
            if !path.fetching {
                break;
            }
            let pc = path.pc;
            // CTX merge action: park at a predicted reconvergence point
            // the opposite arm already crossed.
            if self.merge_pred.is_some() && self.merge_check(pid, pc) {
                break;
            }
            let Some(op) = self.program.fetch(pc) else {
                // Running off the text section only happens on
                // mis-speculated paths; the path idles until killed.
                self.paths.get_mut(pid).expect("path exists").fetching = false;
                break;
            };

            match op {
                Op::Branch { target, .. } => {
                    let Some(stop) = self.fetch_cond_branch(pid, pc, op, target) else {
                        // No CTX position free: retry next cycle.
                        self.stats.fetch_stall_no_ctx += 1;
                        break;
                    };
                    used += 1;
                    if stop {
                        break; // divergence: successors fetch next cycle
                    }
                }
                Op::Ret | Op::Jr { .. } => {
                    if !self.fetch_indirect(pid, pc, op) {
                        self.stats.fetch_stall_no_ctx += 1;
                        break;
                    }
                    used += 1;
                }
                _ => {
                    self.push_fetched(pid, pc, op, None);
                    used += 1;
                    let path = self.paths.get_mut(pid).expect("path exists");
                    match op {
                        Op::Jump { target } => path.pc = target,
                        Op::Call { target } => {
                            path.ras = path.ras.push(pc + 1);
                            path.pc = target;
                        }
                        Op::Halt => {
                            path.fetching = false;
                            path.pc = pc; // parked
                        }
                        _ => path.pc = pc + 1,
                    }
                    if matches!(op, Op::Halt) {
                        break;
                    }
                }
            }
        }
        used
    }

    /// Fetch a conditional branch: predict, estimate confidence, possibly
    /// diverge. Returns `None` if no CTX position was available, otherwise
    /// `Some(stop_fetching_this_path_this_cycle)`.
    fn fetch_cond_branch(&mut self, pid: PathId, pc: usize, op: Op, target: usize) -> Option<bool> {
        if self.positions.is_full() {
            return None;
        }

        let path = self.paths.get(pid).expect("path exists");
        let ghr = path.ghr;
        let was_on_correct = path.on_correct;
        let oracle_idx = path.oracle_idx;
        let parent_tag = path.tag;
        let parent_ras = path.ras.clone();

        // Oracle lookup (if this run carries a trace and the path is on
        // the architecturally correct execution).
        let correct_outcome = if was_on_correct {
            self.oracle.as_ref().and_then(|o| o.outcome(oracle_idx, pc))
        } else {
            None
        };

        let predicted = match &self.predictor {
            Predictor::Gshare(g) => g.predict(pc, ghr),
            Predictor::Bimodal(b) => b.predict(pc),
            Predictor::TwoLevelLocal(t) => t.predict(pc),
            Predictor::Agree(a) => a.predict(pc, ghr),
            Predictor::Static(s) => s.predict(),
            Predictor::Oracle => correct_outcome.unwrap_or(false),
        };

        let confidence = match self.cfg.confidence {
            ConfidenceKind::AlwaysHigh => Confidence::High,
            ConfidenceKind::Jrs(_) => self
                .jrs
                .as_ref()
                .expect("jrs configured")
                .estimate(pc, ghr, predicted),
            ConfidenceKind::AdaptiveJrs(_) => self
                .adaptive
                .as_ref()
                .expect("adaptive estimator configured")
                .estimate(pc, ghr, predicted),
            ConfidenceKind::Saturating => match &self.predictor {
                Predictor::Gshare(g) if g.is_strong(pc, ghr) => Confidence::High,
                Predictor::Gshare(_) => Confidence::Low,
                _ => unreachable!("validated: saturating confidence needs gshare"),
            },
            ConfidenceKind::Oracle => match correct_outcome {
                Some(out) if out != predicted => Confidence::Low,
                _ => Confidence::High,
            },
            ConfidenceKind::H2p(_) => self
                .h2p
                .as_ref()
                .expect("h2p classifier configured")
                .estimate(pc, ghr),
        };
        let conf_low = confidence == Confidence::Low;

        let mode_allows = match self.cfg.mode {
            ExecMode::Monopath => false,
            ExecMode::See => true,
            ExecMode::DualPath => self.live_divergences == 0,
        };
        let diverge = conf_low && mode_allows && !self.paths.is_full();

        let pos = self.positions.allocate().expect("checked not full");

        let mut fb = Box::new(FetchBranchInfo {
            is_return: false,
            predicted_taken: predicted,
            predicted_target: if predicted { target } else { pc + 1 },
            position: pos,
            diverged: diverge,
            conf_low,
            ghr_at_predict: ghr,
            ras_checkpoint: parent_ras.clone(),
            was_on_correct,
            oracle_idx_after: oracle_idx + 1,
            taken_path: None,
        });

        if diverge {
            self.stats.divergences += 1;
            self.live_divergences += 1;

            // Open the fork's reconvergence hypothesis (CTX merge action).
            // The dynamic table only plays under the heuristic; the
            // static-ipdom oracle is exact and its seed is the answer.
            if let Some(mp) = &self.merge_pred {
                self.merge_stats.forks_tracked += 1;
                let dynamic = (mp.hypothesis() == MergeHypothesis::Heuristic)
                    .then(|| mp.predict(pc))
                    .flatten();
                if dynamic.is_some() {
                    self.merge_stats.predictor_hits += 1;
                }
                match dynamic.or_else(|| mp.seed(pc, target)) {
                    Some(merge_pc) => {
                        self.merge_records[pos] = Some(MergeRecord {
                            branch_pc: pc,
                            merge_pc,
                            first_dir: None,
                            parked: false,
                        });
                    }
                    // The oracle names no reconvergence point (branch in
                    // an infinite loop, irreducible region, …): leave the
                    // fork untracked rather than park at a made-up PC.
                    None => self.merge_stats.seedless_forks += 1,
                }
            }

            // New slot for the taken successor…
            let taken_tag = parent_tag.with_position(pos, true);
            let taken = PathCtx {
                tag: taken_tag,
                pc: target,
                fetching: true,
                ghr: push_history(ghr, true),
                ras: parent_ras.clone(),
                regmap: None, // set when the branch renames (§3.2.5)
                on_correct: was_on_correct && correct_outcome == Some(true),
                oracle_idx: oracle_idx + 1,
                birth: self.birth_next,
                merged_at: None,
            };
            self.birth_next += 1;
            let taken_pid = self.paths.allocate(taken).expect("checked not full");
            self.path_tags.insert(taken_pid.index(), &taken_tag);
            fb.taken_path = Some(taken_pid);

            // …while this slot continues as the not-taken successor.
            let path = self.paths.get_mut(pid).expect("path exists");
            path.tag = parent_tag.with_position(pos, false);
            path.pc = pc + 1;
            path.ghr = push_history(ghr, false);
            path.on_correct = was_on_correct && correct_outcome == Some(false);
            path.oracle_idx = oracle_idx + 1;
            self.path_tags.extend(pid.index(), pos, false);
        } else {
            let path = self.paths.get_mut(pid).expect("path exists");
            path.tag = parent_tag.with_position(pos, predicted);
            path.pc = if predicted { target } else { pc + 1 };
            path.ghr = push_history(ghr, predicted);
            path.on_correct = was_on_correct && correct_outcome == Some(predicted);
            path.oracle_idx = oracle_idx + 1;
            self.path_tags.extend(pid.index(), pos, predicted);
        }

        let taken_path = fb.taken_path;
        let branch_fid = self.push_fetched_with_tag(pid, pc, op, Some(fb), parent_tag);
        if diverge {
            emit(&mut self.observer, || PipeEvent::Diverged {
                cycle: self.now,
                branch: branch_fid,
                taken_path: taken_path.expect("divergence created a taken path"),
                not_taken_path: pid,
            });
        }
        Some(diverge)
    }

    /// Fetch an indirect control transfer: `ret` predicts through the
    /// path's RAS, `jr` through the BTB. Returns `false` if no CTX
    /// position was available.
    fn fetch_indirect(&mut self, pid: PathId, pc: usize, op: Op) -> bool {
        if self.positions.is_full() {
            return false;
        }
        let pos = self.positions.allocate().expect("checked not full");

        let path = self.paths.get(pid).expect("path exists");
        let parent_tag = path.tag;
        let ghr = path.ghr;
        let was_on_correct = path.on_correct;
        let oracle_idx = path.oracle_idx;

        // A missing prediction parks the path until resolution redirects.
        let (pred, new_ras) = match op {
            Op::Ret => {
                let (pred, popped) = path.ras.pop();
                (pred, popped)
            }
            Op::Jr { .. } => (self.btb.predict(pc), path.ras.clone()),
            _ => unreachable!("fetch_indirect on a non-indirect op"),
        };
        let predicted_target = pred.unwrap_or(usize::MAX);

        let fb = Box::new(FetchBranchInfo {
            is_return: true,
            predicted_taken: true,
            predicted_target,
            position: pos,
            diverged: false,
            conf_low: false,
            ghr_at_predict: ghr,
            ras_checkpoint: new_ras.clone(),
            was_on_correct,
            oracle_idx_after: oracle_idx,
            taken_path: None,
        });

        let path = self.paths.get_mut(pid).expect("path exists");
        path.tag = parent_tag.with_position(pos, true);
        path.ras = new_ras;
        path.pc = predicted_target;
        self.path_tags.extend(pid.index(), pos, true);

        self.push_fetched_with_tag(pid, pc, op, Some(fb), parent_tag);
        true
    }

    fn push_fetched(
        &mut self,
        pid: PathId,
        pc: usize,
        op: Op,
        binfo: Option<Box<FetchBranchInfo>>,
    ) {
        let tag = self.paths.get(pid).expect("path exists").tag;
        self.push_fetched_with_tag(pid, pc, op, binfo, tag);
    }

    fn push_fetched_with_tag(
        &mut self,
        pid: PathId,
        pc: usize,
        op: Op,
        binfo: Option<Box<FetchBranchInfo>>,
        tag: CtxTag,
    ) -> FetchId {
        let fid = FetchId(self.fid_next);
        self.fid_next += 1;
        self.frontend.push(FetchedInst {
            fid,
            pc,
            op,
            ctx: tag,
            born: self.positions.current_tick(),
            path: pid,
            fetch_cycle: self.now,
            binfo,
            killed: false,
        });
        self.stats.fetched_instructions += 1;
        emit(&mut self.observer, || PipeEvent::Fetched {
            cycle: self.now,
            fid,
            pc,
            path: pid,
            op,
        });
        fid
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_isa::{reg, Asm};

    /// An if-then hammock under a pseudo-random (LCG-driven) condition:
    /// the branch is chronically hard to predict, so SEE forks it, and
    /// the taken target *is* the true reconvergence point, so the merge
    /// predictor's static hypothesis is exact and arms genuinely park.
    fn hammock_program() -> pp_isa::Program {
        let mut a = Asm::new();
        a.li(reg::T0, 300);
        a.li(reg::T1, 0);
        a.li(reg::T2, 0x2545_F491);
        let top = a.here();
        a.mul(reg::T2, reg::T2, 0x5851_F42D);
        a.addi(reg::T2, reg::T2, 0x14057);
        a.srl(reg::T3, reg::T2, 13);
        a.and(reg::T3, reg::T3, 1);
        let skip = a.new_label();
        a.beq(reg::T3, 0, skip);
        a.add(reg::T1, reg::T1, reg::T0); // then-arm, no else
        a.mul(reg::T1, reg::T1, 3);
        a.bind(skip).expect("binds");
        a.addi(reg::T0, reg::T0, -1);
        a.bgt(reg::T0, 0, top);
        a.halt();
        a.assemble().expect("assembles")
    }

    /// A diamond (if-else) under the same LCG condition: the arms rejoin
    /// *past* the taken target, so the lexical heuristic names the wrong
    /// merge PC (the else-arm entry, which the not-taken arm jumps over)
    /// while the static immediate post-dominator names the join.
    fn diamond_program() -> pp_isa::Program {
        let mut a = Asm::new();
        a.li(reg::T0, 300);
        a.li(reg::T1, 0);
        a.li(reg::T2, 0x2545_F491);
        let top = a.here();
        a.mul(reg::T2, reg::T2, 0x5851_F42D);
        a.addi(reg::T2, reg::T2, 0x14057);
        a.srl(reg::T3, reg::T2, 13);
        a.and(reg::T3, reg::T3, 1);
        let else_arm = a.new_label();
        let join = a.new_label();
        a.beq(reg::T3, 0, else_arm);
        a.add(reg::T1, reg::T1, reg::T0); // then-arm
        a.mul(reg::T1, reg::T1, 3);
        a.jmp(join);
        a.bind(else_arm).expect("binds");
        a.addi(reg::T1, reg::T1, 7); // else-arm
        a.mul(reg::T1, reg::T1, 5);
        a.bind(join).expect("binds");
        a.addi(reg::T0, reg::T0, -1);
        a.bgt(reg::T0, 0, top);
        a.halt();
        a.assemble().expect("assembles")
    }

    fn see_merge_config() -> SimConfig {
        SimConfig::baseline().with_merge(crate::MergeConfig::paper_default())
    }

    fn see_oracle_config() -> SimConfig {
        SimConfig::baseline().with_merge(crate::MergeConfig::paper_default().with_static_ipdom())
    }

    #[test]
    fn merging_parks_and_resumes_at_reconvergence_points() {
        let p = hammock_program();
        let mut cfg = see_merge_config();
        cfg.check_commits = true; // every commit checked against the emulator
        cfg.sanitize = true;
        let mut sim = Simulator::new(&p, cfg);
        let stats = sim.run();
        assert!(!stats.hit_cycle_limit);
        sim.finish_commit_check();
        let ms = *sim.merge_stats();
        assert!(stats.divergences > 0, "workload must fork");
        assert_eq!(ms.forks_tracked, stats.divergences);
        assert!(ms.parks > 0, "arms should reach the merge point: {ms:?}");
        assert!(
            ms.resumes > 0,
            "some parked arms should be on the correct side: {ms:?}"
        );
    }

    #[test]
    fn merging_is_architecturally_invisible() {
        // Parking and resuming paths reshapes timing, never committed
        // state: the architectural counters must match a merge-off run.
        let p = hammock_program();
        let base = Simulator::new(&p, SimConfig::baseline()).run();
        let merged = Simulator::new(&p, see_merge_config()).run();
        // Only the architectural stream is invariant: per-branch
        // *predictions* are timing-sensitive (a branch fetched later sees
        // more commit-time training), so misprediction counts may differ.
        assert_eq!(merged.committed_instructions, base.committed_instructions);
        assert_eq!(merged.committed_branches, base.committed_branches);
    }

    #[test]
    fn merge_stats_are_zero_when_merging_is_off() {
        let p = hammock_program();
        let mut sim = Simulator::new(&p, SimConfig::baseline());
        sim.run();
        assert_eq!(*sim.merge_stats(), MergeStats::default());
    }

    #[test]
    fn static_ipdom_oracle_parks_where_the_heuristic_cannot() {
        // On the diamond, the heuristic's merge PC is the else-arm entry:
        // the not-taken arm jumps over it, so the pair never parks and
        // the table never confirms. The exact post-dominator names the
        // true join, where both arms arrive.
        let p = diamond_program();

        // (The heuristic is not park-free here: a *later loop iteration*
        // of the surviving arm can wander over the wrong merge PC with
        // the opposite tag direction and park there. But the wrong PC
        // loses races: many forks resolve unmerged.)
        let mut heur = Simulator::new(&p, see_merge_config());
        let hs = heur.run();
        assert!(hs.divergences > 0, "workload must fork");
        let hm = *heur.merge_stats();
        assert!(
            hm.unmerged_resolutions > 0,
            "the wrong merge PC should lose some races: {hm:?}"
        );

        let mut cfg = see_oracle_config();
        cfg.check_commits = true;
        cfg.sanitize = true;
        let mut oracle = Simulator::new(&p, cfg);
        let os = oracle.run();
        assert!(!os.hit_cycle_limit);
        oracle.finish_commit_check();
        let om = *oracle.merge_stats();
        assert!(om.parks > 0, "exact merge PC should park: {om:?}");
        assert!(om.resumes > 0, "parked correct arms should resume: {om:?}");
        assert_eq!(
            om.seedless_forks, 0,
            "every branch here has a static reconvergence point: {om:?}"
        );
        assert_eq!(
            om.predictor_hits, 0,
            "the oracle must never consult the dynamic table: {om:?}"
        );
        // The exact join parks a larger fraction of forks than the
        // lexically misplaced one (cross-multiplied rate comparison).
        assert!(
            om.parks * hm.forks_tracked > hm.parks * om.forks_tracked,
            "oracle park rate should beat the heuristic: {om:?} vs {hm:?}"
        );

        // Merging stays architecturally invisible under both hypotheses.
        let base = Simulator::new(&p, SimConfig::baseline()).run();
        assert_eq!(os.committed_instructions, base.committed_instructions);
        assert_eq!(hs.committed_instructions, base.committed_instructions);
    }

    #[test]
    fn seedless_forks_run_untracked_under_the_oracle() {
        // A loop whose unpredictable branch picks between two arms that
        // each carry their *own* loop back-edge and their own halt: no
        // block past the branch lies on every exit path, so its immediate
        // post-dominator is the synthetic exit and the static analysis
        // abstains (multi-exit class). Every fork must then run as plain
        // untracked SEE — no record, no park, no made-up merge PC.
        let mut a = Asm::new();
        a.li(reg::T0, 300);
        a.li(reg::T1, 0);
        a.li(reg::T2, 0x2545_F491);
        let top = a.here();
        a.mul(reg::T2, reg::T2, 0x5851_F42D);
        a.addi(reg::T2, reg::T2, 0x14057);
        a.srl(reg::T3, reg::T2, 13);
        a.and(reg::T3, reg::T3, 1);
        let arm_b = a.new_label();
        a.beq(reg::T3, 0, arm_b);
        a.add(reg::T1, reg::T1, reg::T0); // arm A: own back-edge + halt
        a.addi(reg::T0, reg::T0, -1);
        a.bgt(reg::T0, 0, top);
        a.halt();
        a.bind(arm_b).expect("binds");
        a.mul(reg::T1, reg::T1, 5); // arm B: own back-edge + halt
        a.addi(reg::T0, reg::T0, -1);
        a.bgt(reg::T0, 0, top);
        a.halt();
        let p = a.assemble().expect("assembles");

        let mut cfg = see_oracle_config();
        cfg.check_commits = true;
        cfg.sanitize = true;
        let mut sim = Simulator::new(&p, cfg);
        let stats = sim.run();
        assert!(!stats.hit_cycle_limit);
        sim.finish_commit_check();
        let ms = *sim.merge_stats();
        assert!(stats.divergences > 0, "workload must fork");
        assert_eq!(ms.forks_tracked, stats.divergences);
        assert_eq!(
            ms.seedless_forks, ms.forks_tracked,
            "the oracle abstains on every branch here: {ms:?}"
        );
        assert_eq!(ms.parks, 0, "{ms:?}");
        assert_eq!(ms.resumes, 0, "{ms:?}");
        assert_eq!(ms.unmerged_resolutions, 0, "no record ever opened: {ms:?}");

        // Untracked forks are still architecturally invisible.
        let base = Simulator::new(&p, SimConfig::baseline()).run();
        assert_eq!(stats.committed_instructions, base.committed_instructions);
    }
}
