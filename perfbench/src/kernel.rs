//! The `mono` and `eager` workloads: the simulator kernel, called
//! directly, one cell after another on one thread.
//!
//! A cell is one program under one machine configuration. `mono` runs
//! the eight programs under gshare/monopath; `eager` runs them under
//! gshare/JRS (SEE) and gshare/JRS/dual-path. Programs are built at each
//! workload's default scale (about half a million dynamic instructions,
//! the scale `fig8` and `bench_kernel` run) with
//! `Workload::build_seeded(scale, seed)` from the benchmark seed; seed 0
//! is the calibrated input the repository's figures use.
//!
//! Untraced, the run repeats until the time budget is spent: a few
//! set-ups (build every program, then `Simulator::new` for every cell)
//! and one pass over every cell. Each host time is the lower quartile of
//! its samples (for `kips`, summed over cells), which also leaves out the
//! first, cold pass. Traced, it alternates plain passes with self-profiled
//! ones (the trace overhead), then makes one counting pass with stall
//! accounting and a CTX event recorder.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use pp_core::{HostProfile, PipeEvent, PipelineObserver, SimStats, Simulator, StallStack};
use pp_experiments::experiments::BASELINE_HISTORY_BITS;
use pp_experiments::{named_config, Config};
use pp_func::{Emulator, Memory};
use pp_isa::Program;
use pp_sweep::{CellResult, Experiment, Rendered, SweepCell, SweepEngine};
use pp_workloads::Workload;

use crate::util::{hmean, lower_quartile, median, ratio};
use crate::{layers, sweep, util, Run};

/// Set-up repetitions of the traced run, and per pass of an untraced one.
const SETUP_REPS: usize = 20;
/// Host-probe time that `kips` and `setup_s` are scaled to: about what
/// [`util::host_probe`] takes on a 2-core x86-64 cloud host in its fast
/// state. The host's speed drifts by tens of percent over minutes as other
/// tenants load it; dividing each cell's run time (or set-up batch) by the
/// probes around it cancels about half of that drift.
const PROBE_REF_S: f64 = 0.005;
/// Passes per untraced run: at least the first, never more than the
/// second, whatever the budget.
const MIN_PASSES: usize = 4;
const MAX_PASSES: usize = 400;
/// Functional-emulator step budget for the reference runs.
const EMU_STEP_LIMIT: u64 = 20_000_000_000;

/// Which kernel workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Mono,
    Eager,
}

impl Kind {
    fn configs(self) -> &'static [Config] {
        match self {
            Kind::Mono => &[Config::Monopath],
            Kind::Eager => &[Config::SeeJrs, Config::DualJrs],
        }
    }
}

/// `Workload::ALL × configs`, workload-major, at the default scale.
pub fn kernel_cells(configs: &[Config], seed: u64) -> Vec<SweepCell> {
    Workload::ALL
        .iter()
        .flat_map(|&w| {
            configs.iter().map(move |&c| SweepCell {
                workload: w,
                seed: Some(seed),
                scale: w.default_scale(),
                config: named_config(c, BASELINE_HISTORY_BITS),
            })
        })
        .collect()
}

/// Build a cell's program the way `SweepCell::run` does.
pub fn build(cell: &SweepCell) -> Program {
    match cell.seed {
        None => cell.workload.build(cell.scale),
        Some(s) => cell.workload.build_seeded(cell.scale, s),
    }
}

/// The functional emulator's result for one program: what every cell
/// running it must reproduce.
#[derive(Debug, Clone)]
pub struct Reference {
    pub instructions: u64,
    pub memory: Memory,
}

/// Run `program` on `pp_func::Emulator` to completion.
///
/// # Errors
/// The emulator's error if the program does not halt.
pub fn reference(program: &Program) -> Result<Reference, String> {
    let mut emu = Emulator::new(program);
    let summary = emu.run(EMU_STEP_LIMIT).map_err(|e| e.to_string())?;
    Ok(Reference {
        instructions: summary.instructions,
        memory: emu.memory().clone(),
    })
}

/// The output check of one cell run: it halted, committed the
/// emulator's instruction count, left the emulator's memory image, and
/// (when an earlier run of the same cell exists) produced identical
/// `SimStats`.
///
/// # Errors
/// Which condition failed.
pub fn check_cell(
    stats: &SimStats,
    memory: &Memory,
    reference: &Reference,
    earlier: Option<&SimStats>,
) -> Result<(), String> {
    if stats.hit_cycle_limit {
        return Err(format!("hit the cycle limit after {} cycles", stats.cycles));
    }
    if stats.committed_instructions != reference.instructions {
        return Err(format!(
            "committed {} instructions, the emulator executed {}",
            stats.committed_instructions, reference.instructions
        ));
    }
    if !memory.same_contents(&reference.memory) {
        return Err("final memory differs from the emulator's".into());
    }
    if earlier.is_some_and(|e| e != stats) {
        return Err("SimStats differ from an earlier run of the same cell".into());
    }
    Ok(())
}

/// Host times of one pass over every cell.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// `Simulator::new` + `run`, all cells.
    pub wall: f64,
    /// Time inside `Simulator::run`, all cells.
    pub run_s: f64,
    pub committed: u64,
    /// Summed phase profile of a self-profiled pass.
    pub profile: Option<HostProfile>,
    /// Per cell, its time inside `Simulator::run`; `None` if it panicked.
    pub cells: Vec<Option<f64>>,
    /// [`util::host_probe`] times: one before each cell, one after the last.
    pub probes: Vec<f64>,
}

impl Pass {
    pub fn kips(&self) -> f64 {
        ratio(self.committed as f64 / 1e3, self.run_s)
    }

    /// Per cell, its run time over the mean of the host probes just
    /// before and after it; `None` if it panicked.
    pub fn relative(&self) -> impl Iterator<Item = Option<f64>> + '_ {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, t)| t.map(|run_s| run_s / (0.5 * (self.probes[i] + self.probes[i + 1]))))
    }
}

/// Records the fork/resolve mix of a run for the CTX replay.
#[derive(Debug, Default)]
pub struct CtxOps {
    pub ops: Vec<CtxOp>,
}

/// One CTX-management event class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtxOp {
    /// SEE split a path at a low-confidence branch.
    Fork,
    /// A diverged branch resolved: its wrong side is killed.
    Resolve,
    /// A mispredicted, non-diverged branch resolved: recovery squash.
    Recover,
}

impl PipelineObserver for CtxOps {
    fn event(&mut self, ev: &PipeEvent) {
        match ev {
            PipeEvent::Diverged { .. } => self.ops.push(CtxOp::Fork),
            PipeEvent::Resolved { diverged: true, .. } => self.ops.push(CtxOp::Resolve),
            PipeEvent::Resolved {
                mispredicted: true, ..
            } => self.ops.push(CtxOp::Recover),
            _ => {}
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// Cells with their programs built, emulator references, and the first
/// `SimStats` each cell produced.
pub struct Kernel {
    pub cells: Vec<SweepCell>,
    pub programs: Vec<Program>,
    pub of_cell: Vec<usize>,
    /// For each program, the first cell that runs it.
    builds: Vec<usize>,
    refs: Vec<Result<Reference, String>>,
    pub first: Vec<Option<SimStats>>,
}

/// Set-up times of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub build_s: f64,
    pub new_s: f64,
}

impl SetupTimes {
    pub fn total(self) -> f64 {
        self.build_s + self.new_s
    }
}

impl Kernel {
    /// Build the programs and simulators once (timed), then run the
    /// emulator references.
    pub fn setup(run: &mut Run, cells: &[SweepCell]) -> (Kernel, SetupTimes) {
        let mut builds: Vec<usize> = Vec::new();
        let of_cell: Vec<usize> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let same = |&k: &usize| {
                    let k = &cells[k];
                    (k.workload, k.seed, k.scale) == (c.workload, c.seed, c.scale)
                };
                builds.iter().position(same).unwrap_or_else(|| {
                    builds.push(i);
                    builds.len() - 1
                })
            })
            .collect();
        let mut kernel = Kernel {
            cells: cells.to_vec(),
            programs: Vec::new(),
            of_cell,
            builds,
            refs: Vec::new(),
            first: vec![None; cells.len()],
        };
        let times = kernel.time_setup(run);
        kernel.refs = kernel
            .programs
            .iter()
            .map(|p| run.tracer.time("func.reference", || reference(p)))
            .collect();
        (kernel, times)
    }

    /// One repetition of the set-up: build every program and create
    /// (then drop) every cell's simulator, timing both.
    pub fn time_setup(&mut self, run: &mut Run) -> SetupTimes {
        let t0 = Instant::now();
        let programs: Vec<Program> = self
            .builds
            .iter()
            .map(|&c| run.tracer.time("workloads.build", || build(&self.cells[c])))
            .collect();
        let t1 = Instant::now();
        let sims: Vec<Simulator> = self
            .cells
            .iter()
            .zip(&self.of_cell)
            .map(|(c, &p)| {
                run.tracer.time("core.new", || {
                    Simulator::new(&programs[p], c.config.clone())
                })
            })
            .collect();
        let t2 = Instant::now();
        drop(sims);
        self.programs = programs;
        SetupTimes {
            build_s: (t1 - t0).as_secs_f64(),
            new_s: (t2 - t1).as_secs_f64(),
        }
    }

    /// Check a finished cell, counting it as one operation.
    fn check(&mut self, run: &mut Run, i: usize, stats: SimStats, memory: &Memory) {
        run.attempt(1);
        let verdict = match &self.refs[self.of_cell[i]] {
            Ok(r) => check_cell(&stats, memory, r, self.first[i].as_ref()),
            Err(e) => Err(format!("emulator reference failed: {e}")),
        };
        match verdict {
            Ok(()) => {
                self.first[i].get_or_insert(stats);
            }
            Err(e) => run.fail(format!(
                "{} {}: {e}",
                self.cells[i].label(),
                label(&self.cells[i])
            )),
        }
    }

    /// One pass over every cell; `profile` turns on host self-profiling.
    pub fn pass(&mut self, run: &mut Run, profile: bool) -> Pass {
        let mut pass = Pass::default();
        for i in 0..self.cells.len() {
            let t0 = Instant::now();
            let program = &self.programs[self.of_cell[i]];
            let cfg = self.cells[i].config.clone();
            let mut sim = run.tracer.time("core.new", || Simulator::new(program, cfg));
            if profile {
                sim.enable_self_profiling();
            }
            pass.probes.push(util::host_probe());
            let t1 = Instant::now();
            let outcome = run
                .tracer
                .time("core.run", || catch_unwind(AssertUnwindSafe(|| sim.run())));
            let t2 = Instant::now();
            pass.wall += (t2 - t0).as_secs_f64();
            match outcome {
                Ok(stats) => {
                    let run_s = (t2 - t1).as_secs_f64();
                    pass.cells.push(Some(run_s));
                    pass.run_s += run_s;
                    pass.committed += stats.committed_instructions;
                    if let Some(p) = sim.host_profile() {
                        add_profile(pass.profile.get_or_insert_with(HostProfile::default), p);
                    }
                    self.check(run, i, stats, sim.memory());
                }
                Err(_) => {
                    pass.cells.push(None);
                    run.attempt(1);
                    run.fail(format!(
                        "{} {}: panicked",
                        self.cells[i].label(),
                        label(&self.cells[i])
                    ));
                }
            }
        }
        pass.probes.push(util::host_probe());
        pass
    }

    /// One untimed pass with stall accounting and the CTX recorder on.
    pub fn counting_pass(&mut self, run: &mut Run) -> (Vec<(StallStack, usize)>, CtxOps) {
        let mut stacks = Vec::new();
        let mut ops = CtxOps::default();
        for i in 0..self.cells.len() {
            let cfg = self.cells[i].config.clone();
            let width = cfg.commit_width;
            let mut sim = Simulator::new(&self.programs[self.of_cell[i]], cfg);
            sim.enable_stall_accounting();
            sim.set_observer(Box::new(CtxOps::default()));
            match catch_unwind(AssertUnwindSafe(|| sim.run())) {
                Ok(stats) => {
                    stacks.push((sim.stall_stack().copied().unwrap_or_default(), width));
                    if let Some(Ok(rec)) = sim
                        .take_observer()
                        .map(|o| o.into_any().downcast::<CtxOps>())
                    {
                        ops.ops.extend(rec.ops);
                    }
                    self.check(run, i, stats, sim.memory());
                }
                Err(_) => {
                    run.attempt(1);
                    run.fail(format!(
                        "{}: panicked in the counting pass",
                        self.cells[i].label()
                    ));
                }
            }
        }
        (stacks, ops)
    }

    /// First-run statistics of every cell that completed.
    pub fn stats(&self) -> Vec<SimStats> {
        self.first.iter().flatten().cloned().collect()
    }
}

/// The configuration's short label for messages.
fn label(cell: &SweepCell) -> String {
    format!("[{:?} {:?}]", cell.config.mode, cell.config.confidence)
}

fn add_profile(sum: &mut HostProfile, p: &HostProfile) {
    sum.fetch += p.fetch;
    sum.dispatch += p.dispatch;
    sum.issue += p.issue;
    sum.writeback += p.writeback;
    sum.commit += p.commit;
    sum.wall += p.wall;
    sum.cycles += p.cycles;
    sum.committed += p.committed;
}

/// What the kernel layer probe leaves for the other layer probes.
pub struct CoreProbe {
    pub kernel: Kernel,
    pub ctx_ops: CtxOps,
    /// Median self-profiled pass over median plain pass, minus one.
    pub overhead: f64,
}

/// Per-layer metrics of pp-workloads and pp-core over `cells`: set-up
/// split into build and `Simulator::new`, plain and self-profiled warm
/// passes alternating for `budget` (at least one of each), then one
/// counting pass for the CPI stack, the simulated counts and the CTX
/// event mix.
pub fn core_layers(run: &mut Run, cells: &[SweepCell], budget: Duration) -> CoreProbe {
    let (mut kernel, first) = Kernel::setup(run, cells);
    let mut setup = vec![first];
    for _ in 1..SETUP_REPS {
        setup.push(kernel.time_setup(run));
    }
    let build: Vec<f64> = setup.iter().map(|s| s.build_s).collect();
    let new: Vec<f64> = setup.iter().map(|s| s.new_s).collect();
    run.metric("workloads.build_s", median(&build));
    run.metric("core.new_s", median(&new));

    let traced = run.tracer.enabled();
    kernel.pass(run, false);
    let start = Instant::now();
    let (mut plain, mut profiled) = (Vec::new(), Vec::new());
    while plain.len() + profiled.len() < 2 || (start.elapsed() < budget && plain.len() < MAX_PASSES)
    {
        if plain.len() <= profiled.len() {
            run.tracer.set_enabled(false);
            plain.push(kernel.pass(run, false));
            run.tracer.set_enabled(traced);
        } else {
            profiled.push(kernel.pass(run, true));
        }
    }
    let walls = |v: &[Pass]| v.iter().map(|p| p.wall).collect::<Vec<_>>();
    let overhead = median(&walls(&profiled)) / median(&walls(&plain)) - 1.0;

    let n = profiled.len() as f64;
    let mut sum = HostProfile::default();
    for p in profiled.iter().filter_map(|p| p.profile.as_ref()) {
        add_profile(&mut sum, p);
    }
    let phases = sum.phases();
    for (name, d) in phases {
        let metric = match name {
            "fetch" => "core.fetch_s",
            "dispatch" => "core.dispatch_s",
            "issue" => "core.issue_s",
            "writeback" => "core.writeback_s",
            _ => "core.commit_s",
        };
        run.metric(metric, d.as_secs_f64() / n);
    }
    let in_phases: f64 = phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
    run.metric("core.other_s", (sum.wall.as_secs_f64() - in_phases) / n);

    let (stacks, ctx_ops) = kernel.counting_pass(run);
    let stats = kernel.stats();
    let total = |f: fn(&SimStats) -> u64| stats.iter().map(f).sum::<u64>();
    let fetched = total(|s| s.fetched_instructions);
    let committed = total(|s| s.committed_instructions);
    let cycles = total(|s| s.cycles);
    let run_s: Vec<f64> = plain.iter().map(|p| p.run_s).collect();
    run.metric(
        "core.ns_per_fetched",
        median(&run_s) * 1e9 / fetched.max(1) as f64,
    );
    run.metric(
        "core.ns_per_cycle",
        median(&run_s) * 1e9 / cycles.max(1) as f64,
    );
    run.metric("core.fetched", fetched as f64);
    run.metric("core.committed", committed as f64);
    run.metric("core.killed", total(|s| s.killed_instructions) as f64);
    run.metric("core.useful_frac", ratio(committed as f64, fetched as f64));
    run.metric("core.divergences", total(|s| s.divergences) as f64);
    run.metric("core.recoveries", total(|s| s.recoveries) as f64);
    run.metric(
        "core.window_occupancy_mean",
        ratio(total(|s| s.window_occupancy_sum) as f64, cycles as f64),
    );
    let path_weighted: f64 = stats
        .iter()
        .map(|s| s.mean_active_paths() * s.cycles as f64)
        .sum();
    run.metric("core.live_paths_mean", ratio(path_weighted, cycles as f64));
    for (metric, cause) in [
        (
            "core.cpi.squash_recovery",
            pp_core::StallCause::SquashRecovery,
        ),
        ("core.cpi.fetch_starved", pp_core::StallCause::FetchStarved),
        ("core.cpi.operand_wait", pp_core::StallCause::OperandWait),
        ("core.cpi.store_buffer", pp_core::StallCause::StoreBuffer),
        ("core.cpi.fu_structural", pp_core::StallCause::FuStructural),
        ("core.cpi.wrong_path", pp_core::StallCause::WrongPath),
        ("core.cpi.window_full", pp_core::StallCause::WindowFull),
    ] {
        let stall_cycles: f64 = stacks
            .iter()
            .map(|(st, width)| st.get(cause) as f64 / (*width).max(1) as f64)
            .sum();
        run.metric(metric, ratio(stall_cycles, committed as f64));
    }
    CoreProbe {
        kernel,
        ctx_ops,
        overhead,
    }
}

/// The `mono` or `eager` workload.
pub fn run(run: &mut Run, kind: Kind) {
    let cells = kernel_cells(kind.configs(), run.seed);
    if run.tracer.enabled() {
        let budget = run.budget;
        let probe = core_layers(run, &cells, budget);
        run.metric("trace.overhead_frac", probe.overhead);
        let stats = probe.kernel.stats();
        layers::common(run, &probe, &cells, &stats);
        sweep_probe(run, &probe.kernel);
        return;
    }

    let (mut kernel, _) = Kernel::setup(run, &cells);
    let mut setups = Vec::new();
    let (mut runs, mut relative) = (vec![Vec::new(); cells.len()], vec![Vec::new(); cells.len()]);
    let mut pass_kips = Vec::new();
    let start = Instant::now();
    while pass_kips.len() < MIN_PASSES
        || (start.elapsed() < run.budget && pass_kips.len() < MAX_PASSES)
    {
        let before = util::host_probe();
        let batch: Vec<f64> = (0..SETUP_REPS)
            .map(|_| kernel.time_setup(run).total())
            .collect();
        let probe = 0.5 * (before + util::host_probe());
        setups.extend(batch.iter().map(|s| s / probe * PROBE_REF_S));
        let pass = kernel.pass(run, false);
        pass_kips.push(pass.kips());
        for (i, (t, r)) in pass.cells.iter().zip(pass.relative()).enumerate() {
            if let (Some(run_s), Some(r)) = (*t, r) {
                runs[i].push(run_s);
                relative[i].push(r);
            }
        }
    }
    let stats = kernel.stats();
    let committed: u64 = stats.iter().map(|s| s.committed_instructions).sum();
    let sum_lq = |v: &[Vec<f64>]| v.iter().map(|s| lower_quartile(s)).sum::<f64>();
    let run_s = sum_lq(&runs);
    let kips = ratio(committed as f64 / 1e3, sum_lq(&relative) * PROBE_REF_S);
    let ipcs: Vec<f64> = stats.iter().map(SimStats::ipc).collect();
    run.metric("kips", kips);
    run.metric("ipc", hmean(&ipcs));
    run.metric("setup_s", lower_quartile(&setups));
    // Before the monopath comparison below, which is not this workload's.
    run.metric("peak_rss_mib", util::peak_rss_mib());
    println!(
        "{} cells x {} passes; as measured, kips per pass min {:.1} median {:.1} max {:.1}, \
         from per-cell lower quartiles {:.1}; at the reference host speed {kips:.1}",
        cells.len(),
        pass_kips.len(),
        pass_kips.iter().copied().fold(f64::INFINITY, f64::min),
        median(&pass_kips),
        pass_kips.iter().copied().fold(0.0, f64::max),
        ratio(committed as f64 / 1e3, run_s)
    );
    if kind == Kind::Eager {
        accuracy(run, &kernel, committed, run_s);
    }
}

/// Paper reference (Klauser et al., ISCA 1998, Fig. 8): SEE with JRS
/// confidence over gshare monopath, harmonic-mean IPC and on go.
const PAPER_SEE_MEAN_PCT: f64 = 14.0;
const PAPER_SEE_GO_PCT: f64 = 36.0;

/// Run each of `eager`'s programs once under gshare/monopath (checked,
/// timed for the combined headline) and print SEE/JRS over monopath
/// beside the paper, plus the 8 × 3 combined KIPS.
fn accuracy(run: &mut Run, eager: &Kernel, eager_committed: u64, eager_run_s: f64) {
    let mono = named_config(Config::Monopath, BASELINE_HISTORY_BITS);
    let (mut base, mut mono_committed, mut mono_run_s) = (Vec::new(), 0u64, 0.0);
    for (p, program) in eager.programs.iter().enumerate() {
        let mut sim = Simulator::new(program, mono.clone());
        let t = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| sim.run()));
        mono_run_s += t.elapsed().as_secs_f64();
        run.attempt(1);
        let verdict = match (&outcome, &eager.refs[p]) {
            (Ok(stats), Ok(r)) => check_cell(stats, sim.memory(), r, None),
            (Err(_), _) => Err("panicked".into()),
            (_, Err(e)) => Err(format!("emulator reference failed: {e}")),
        };
        if let Err(e) = verdict {
            let w = eager.cells[eager.builds[p]].workload;
            run.fail(format!("{w:?} under monopath: {e}"));
        }
        let stats = outcome.unwrap_or_default();
        mono_committed += stats.committed_instructions;
        base.push(stats.ipc());
    }
    let see: Vec<f64> = eager
        .first
        .iter()
        .zip(&eager.cells)
        .filter(|(_, c)| c.config.mode == pp_core::ExecMode::See)
        .map(|(s, _)| s.as_ref().map_or(0.0, SimStats::ipc))
        .collect();
    let pct = |new: f64, old: f64| 100.0 * (ratio(new, old) - 1.0);
    let mean = pct(hmean(&see), hmean(&base));
    let go = Workload::ALL
        .iter()
        .position(|&w| w == Workload::Go)
        .unwrap_or(0);
    let go_pct = pct(
        see.get(go).copied().unwrap_or(0.0),
        base.get(go).copied().unwrap_or(0.0),
    );
    println!(
        "accuracy (simulated, host-independent; default scale, seed {}): SEE/JRS over \
         monopath hmean IPC {:.4} vs {:.4}, {mean:+.1}% (paper {PAPER_SEE_MEAN_PCT:+.0}%, \
         error {:+.1} pts); on go {go_pct:+.1}% (paper {PAPER_SEE_GO_PCT:+.0}%, error {:+.1} pts)",
        run.seed,
        hmean(&see),
        hmean(&base),
        mean - PAPER_SEE_MEAN_PCT,
        go_pct - PAPER_SEE_GO_PCT
    );
    let combined = ratio(
        (mono_committed + eager_committed) as f64 / 1e3,
        mono_run_s + eager_run_s,
    );
    println!(
        "headline (host): 8x3 kernel set combined {combined:.1} KIPS \
         (monopath {:.1} from one pass, SEE/JRS + dual-path {:.1})",
        ratio(mono_committed as f64 / 1e3, mono_run_s),
        ratio(eager_committed as f64 / 1e3, eager_run_s)
    );
}

/// A registry-shaped experiment over the kernel cells, so the traced
/// kernel run can drive pp-sweep's engine, store and render path.
struct KernelExp {
    cells: Vec<SweepCell>,
}

impl Experiment for KernelExp {
    fn name(&self) -> &'static str {
        "perfbench_kernel"
    }
    fn description(&self) -> &'static str {
        "the benchmark's kernel cells"
    }
    fn grid(&self) -> Vec<SweepCell> {
        self.cells.clone()
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let mut csv = String::from("cell,config,ipc,committed,cycles\n");
        for r in results {
            csv.push_str(&format!(
                "{},{:?},{:.4},{},{}\n",
                r.cell.label(),
                r.cell.config.confidence,
                r.stats.ipc(),
                r.stats.committed_instructions,
                r.stats.cycles
            ));
        }
        Rendered::text(format!("{} kernel cells", results.len())).with_artifact("kernel.csv", csv)
    }
}

/// An experiment with no grid (never cached): its render runs the
/// functional emulator, as `table1` and `calibrate` do.
struct EmulatorExp {
    programs: Vec<Program>,
}

impl Experiment for EmulatorExp {
    fn name(&self) -> &'static str {
        "perfbench_emulator"
    }
    fn description(&self) -> &'static str {
        "functional-emulator reference runs"
    }
    fn grid(&self) -> Vec<SweepCell> {
        Vec::new()
    }
    fn render(&self, _: &[CellResult]) -> Rendered {
        let counts: Vec<String> = self
            .programs
            .iter()
            .map(|p| reference(p).map_or_else(|e| e, |r| r.instructions.to_string()))
            .collect();
        Rendered::text(counts.join(","))
    }
}

/// pp-sweep over the kernel cells: one worker, a fresh cache, a cold
/// then a warm pass.
fn sweep_probe(run: &mut Run, kernel: &Kernel) {
    let exps: Vec<Box<dyn Experiment>> = vec![
        Box::new(KernelExp {
            cells: kernel.cells.clone(),
        }),
        Box::new(EmulatorExp {
            programs: kernel.programs.clone(),
        }),
    ];
    let dir = run.scratch.fresh("kernel-cache");
    let engine = SweepEngine::new().with_workers(1).with_cache(&dir);
    let cold = sweep::run_experiments(run, &exps, &engine, None);
    let warm = sweep::run_experiments(run, &exps, &engine, None);
    sweep::check_warm(run, &cold, &warm);
    sweep::engine_layers(run, &[cold], &[warm], 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A short `compress` run under SEE/JRS, its final memory, and the
    /// emulator's reference for its program.
    fn one_cell() -> (SimStats, Memory, Reference) {
        let cell = kernel_cells(&[Config::SeeJrs], 7).swap_remove(0);
        let cell = SweepCell {
            scale: (cell.scale / 8).max(1),
            ..cell
        };
        let program = build(&cell);
        let reference = reference(&program).expect("the emulator halts");
        let mut sim = Simulator::new(&program, cell.config);
        let stats = sim.run();
        (stats, sim.memory().clone(), reference)
    }

    #[test]
    fn check_cell_rejects_perturbed_outputs() {
        let (stats, memory, reference) = one_cell();
        assert_eq!(
            check_cell(&stats, &memory, &reference, Some(&stats)),
            Ok(())
        );

        let (addr, byte) = memory
            .nonzero_bytes()
            .next()
            .expect("the program leaves data");
        let mut memory_flipped = memory.clone();
        memory_flipped.write_u8(addr, byte ^ 1);
        assert!(check_cell(&stats, &memory_flipped, &reference, None).is_err());

        let mut short = stats.clone();
        short.committed_instructions -= 1;
        assert!(check_cell(&short, &memory, &reference, None).is_err());

        let mut limited = stats.clone();
        limited.hit_cycle_limit = true;
        assert!(check_cell(&limited, &memory, &reference, None).is_err());

        // A repeated run must match the first one in every counter.
        let mut earlier = stats.clone();
        earlier.cycles += 1;
        assert!(check_cell(&stats, &memory, &reference, Some(&earlier)).is_err());
    }
}
