//! The `sweep` workload — `sweep run all` at reduced scale through
//! `SweepEngine` with two workers, a cold pass then a warm pass on the
//! same fresh cache directory — and the pp-sweep helpers the other
//! workloads share.

use std::path::Path;
use std::time::{Duration, Instant};

use pp_core::SimStats;
use pp_sweep::{CellResult, Experiment, Rendered, ResultStore, SweepCell, SweepEngine};

use crate::util::{hmean, lower_quartile, median, pmax, ratio, splitmix64};
use crate::{kernel, layers, Run};

/// `PP_SCALE` of the `sweep` workload.
pub const SWEEP_SCALE: &str = "0.01";
/// Engine worker threads: the host's two cores.
const WORKERS: usize = 2;
/// Cold/warm pairs per run: at least the first, never more than the
/// second, whatever the budget.
const MIN_PAIRS: usize = 4;
const MAX_PAIRS: usize = 50;

/// A registry experiment whose cells are re-seeded from the benchmark
/// seed: each cell's input seed is XORed with one salt, so cells with
/// distinct seeds keep distinct seeds.
pub struct Reseeded {
    inner: Box<dyn Experiment>,
    salt: u64,
}

impl Experiment for Reseeded {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn description(&self) -> &'static str {
        self.inner.description()
    }
    fn grid(&self) -> Vec<SweepCell> {
        self.inner
            .grid()
            .into_iter()
            .map(|c| {
                let seed = c.seed.unwrap_or(0) ^ self.salt;
                c.with_seed(seed)
            })
            .collect()
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        self.inner.render(results)
    }
}

/// The experiment registry, re-seeded from `seed`.
pub fn registry(seed: u64) -> Vec<Box<dyn Experiment>> {
    let salt = splitmix64(seed);
    pp_experiments::suite::registry()
        .into_iter()
        .map(|inner| Box::new(Reseeded { inner, salt }) as Box<dyn Experiment>)
        .collect()
}

/// One experiment driven through the engine.
pub struct ExpRun {
    pub name: &'static str,
    pub grid: Vec<SweepCell>,
    /// Completed cells in grid order (empty when any cell failed).
    pub results: Vec<CellResult>,
    pub cached: usize,
    pub engine_s: f64,
    /// Render, plus writing the artifacts when the pass writes them.
    pub render_s: f64,
    pub rendered: Option<Rendered>,
}

/// One pass over a list of experiments.
pub struct PassOut {
    /// From the first engine start to the last rendered artifact.
    pub wall: f64,
    pub exps: Vec<ExpRun>,
}

impl PassOut {
    /// Cells simulated this pass (not served from the cache).
    pub fn simulated(&self) -> impl Iterator<Item = &CellResult> {
        self.exps
            .iter()
            .flat_map(|e| &e.results)
            .filter(|r| !r.cached)
    }

    /// Each distinct cell's stats once, in first-seen order.
    pub fn unique_stats(&self) -> Vec<(SweepCell, SimStats)> {
        let mut seen = std::collections::HashSet::new();
        self.exps
            .iter()
            .flat_map(|e| &e.results)
            .filter(|r| seen.insert(r.cell.fingerprint()))
            .map(|r| (r.cell.clone(), r.stats.clone()))
            .collect()
    }
}

/// Run each experiment as `sweep run` does — grid, engine, render when
/// every cell completed, artifacts written under `out` when given —
/// timing the engine and the render apart. Each grid cell counts as one
/// operation; failed cells fail the run.
pub fn run_experiments(
    run: &mut Run,
    exps: &[Box<dyn Experiment>],
    engine: &SweepEngine,
    out: Option<&Path>,
) -> PassOut {
    let start = Instant::now();
    let mut done = Vec::new();
    for exp in exps {
        let grid = exp.grid();
        let t0 = Instant::now();
        let report = run.tracer.time("sweep.engine_run", || engine.run(&grid));
        let t1 = Instant::now();
        run.attempt(grid.len() as u64);
        for e in &report.errors {
            run.fail(format!("{}: {e}", exp.name()));
        }
        for _ in 0..report.skipped() {
            run.fail(format!("{}: cell skipped", exp.name()));
        }
        let results = report.completed_owned();
        let rendered = report
            .all_completed()
            .then(|| run.tracer.time("sweep.render", || exp.render(&results)));
        if let (Some(r), Some(dir)) = (&rendered, out) {
            if let Err(err) = r.write_artifacts(dir) {
                run.fail(format!("{}: writing artifacts: {err}", exp.name()));
            }
        }
        let t2 = Instant::now();
        done.push(ExpRun {
            name: exp.name(),
            cached: report.cached(),
            grid,
            results,
            engine_s: (t1 - t0).as_secs_f64(),
            render_s: (t2 - t1).as_secs_f64(),
            rendered,
        });
    }
    PassOut {
        wall: start.elapsed().as_secs_f64(),
        exps: done,
    }
}

/// The warm pass must render byte-identical output and serve every
/// grid cell from the cache.
pub fn check_warm(run: &mut Run, cold: &PassOut, warm: &PassOut) {
    for (c, w) in cold.exps.iter().zip(&warm.exps) {
        if c.rendered != w.rendered {
            run.fail(format!(
                "{}: warm-pass output differs from the cold pass",
                c.name
            ));
        }
        if w.cached != w.grid.len() {
            run.fail(format!(
                "{}: warm pass served {} of {} cells from the cache",
                w.name,
                w.cached,
                w.grid.len()
            ));
        }
    }
}

/// pp-sweep per-layer metrics from cold and warm passes made with
/// `workers` threads: simulated seconds, busy share, per-cell time,
/// and the warm pass's render, uncached and hit shares.
pub fn engine_layers(run: &mut Run, cold: &[PassOut], warm: &[PassOut], workers: usize) {
    let sim: Vec<f64> = cold
        .iter()
        .map(|p| p.simulated().map(|r| r.wall.as_secs_f64()).sum())
        .collect();
    let busy: Vec<f64> = cold
        .iter()
        .zip(&sim)
        .map(|(p, s)| ratio(*s, workers as f64 * p.wall))
        .collect();
    let cell_ms: Vec<f64> = cold
        .iter()
        .flat_map(PassOut::simulated)
        .map(|r| r.wall.as_secs_f64() * 1e3)
        .collect();
    let (q, top) = pmax(&cell_ms);
    println!(
        "sweep cells: {} samples, p50 {:.3} ms, p{:.1} {top:.3} ms",
        cell_ms.len(),
        median(&cell_ms),
        100.0 * q
    );
    run.metric("sweep.sim_s", median(&sim));
    run.metric("sweep.busy_frac", median(&busy));
    run.metric("sweep.cell_ms.p50", median(&cell_ms));
    run.metric("sweep.cell_ms.pmax", top);
    let sum = |p: &PassOut, uncached: bool| -> f64 {
        p.exps
            .iter()
            .filter(|e| e.grid.is_empty() == uncached)
            .map(|e| {
                if uncached {
                    e.engine_s + e.render_s
                } else {
                    e.render_s
                }
            })
            .sum()
    };
    let render: Vec<f64> = warm.iter().map(|p| sum(p, false)).collect();
    let uncached: Vec<f64> = warm.iter().map(|p| sum(p, true)).collect();
    let (hits, cells) = warm
        .iter()
        .flat_map(|p| &p.exps)
        .fold((0, 0), |(h, n), e| (h + e.cached, n + e.grid.len()));
    run.metric("sweep.render_s", median(&render));
    run.metric("sweep.uncached_s", median(&uncached));
    run.metric("sweep.hit_frac", ratio(hits as f64, cells as f64));
}

/// The grid construction plus store open that precede a sweep.
fn setup(run: &mut Run) -> (Vec<Box<dyn Experiment>>, Duration) {
    let t = Instant::now();
    let id = run.tracer.begin("sweep.setup");
    let exps = registry(run.seed);
    let cells: usize = exps.iter().map(|e| e.grid().len()).sum();
    let dir = run.scratch.fresh("setup-store");
    let store = ResultStore::new(&dir);
    run.tracer.end(id);
    let elapsed = t.elapsed();
    std::hint::black_box((cells, store));
    (exps, elapsed)
}

/// The `sweep` workload.
pub fn run(run: &mut Run) {
    // Single-threaded here: no other thread reads the environment yet.
    std::env::set_var("PP_SCALE", SWEEP_SCALE);
    let (exps, first) = setup(run);
    let mut setups = vec![first.as_secs_f64()];

    let traced = run.tracer.enabled();
    let start = Instant::now();
    let (mut cold_t, mut warm_t) = (ExpTimes::default(), ExpTimes::default());
    // Passes are kept whole only where needed (the first cold pass, and
    // every pass of a traced run), so peak memory does not grow with the
    // number of passes the budget allowed.
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    let mut reference: Option<Vec<Option<Rendered>>> = None;
    while cold_t.passes() < MIN_PAIRS
        || (start.elapsed() < run.budget && cold_t.passes() < MAX_PAIRS)
    {
        if cold_t.passes() > 0 {
            // Set-up repetitions spread over the run, like every other
            // host time.
            setups.push(setup(run).1.as_secs_f64());
        }
        // A traced run alternates unspanned and spanned pairs: their
        // ratio is the trace overhead.
        let spans_on = traced && cold_t.passes() % 2 == 1;
        run.tracer.set_enabled(spans_on);
        let dir = run.scratch.fresh("cache");
        let engine = SweepEngine::new().with_workers(WORKERS).with_cache(&dir);
        let out = run.scratch.fresh("out");
        let c = run_experiments(run, &exps, &engine, Some(&out.join("cold")));
        let w = run_experiments(run, &exps, &engine, Some(&out.join("warm")));
        run.tracer.set_enabled(traced);
        check_warm(run, &c, &w);
        let rendered: Vec<Option<Rendered>> = c.exps.iter().map(|e| e.rendered.clone()).collect();
        match &reference {
            None => reference = Some(rendered),
            Some(r) if *r != rendered => run.fail("cold pass output differs between passes"),
            Some(_) => {}
        }
        if spans_on { &mut spanned } else { &mut plain }.push(c.wall + w.wall);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&out);
        cold_t.add(&c);
        warm_t.add(&w);
        if traced || cold.is_empty() {
            cold.push(c);
        }
        if traced {
            warm.push(w);
        }
    }

    if traced {
        run.metric(
            "trace.overhead_frac",
            median(&spanned) / median(&plain) - 1.0,
        );
        engine_layers(run, &cold, &warm, WORKERS);
        let stats = cold[0].unique_stats();
        let fig8: Vec<SweepCell> = exps
            .iter()
            .find(|e| e.name() == "fig8")
            .map(|e| e.grid())
            .unwrap_or_default();
        let probe = kernel::core_layers(run, &fig8, Duration::ZERO);
        let (cells, stats): (Vec<SweepCell>, Vec<SimStats>) = stats.into_iter().unzip();
        layers::common(run, &probe, &cells, &stats);
        return;
    }
    let ipcs: Vec<f64> = cold[0]
        .unique_stats()
        .iter()
        .map(|(_, s)| s.ipc())
        .collect();
    run.metric("kips", cold_t.kips());
    run.metric("ipc", hmean(&ipcs));
    run.metric("wall_s", cold_t.wall());
    run.metric("warm_s", warm_t.wall());
    run.metric("setup_s", lower_quartile(&setups));
    let cells: usize = cold[0].exps.iter().map(|e| e.grid.len()).sum();
    println!(
        "{} experiments, {cells} grid cells ({} distinct) at PP_SCALE={SWEEP_SCALE}, {WORKERS} workers, {} cold/warm pairs",
        exps.len(),
        ipcs.len(),
        cold_t.passes()
    );
}

/// Host-time samples of each experiment over a run's passes.
#[derive(Debug, Default)]
pub struct ExpTimes {
    /// Per experiment: engine plus render time, one sample per pass.
    walls: Vec<Vec<f64>>,
    /// Per experiment: summed host time of the cells it simulated.
    sims: Vec<Vec<f64>>,
    /// Instructions the cells of one pass committed (every pass
    /// simulates the same cells).
    committed: u64,
}

impl ExpTimes {
    pub fn add(&mut self, pass: &PassOut) {
        self.walls.resize(pass.exps.len(), Vec::new());
        self.sims.resize(pass.exps.len(), Vec::new());
        for (i, e) in pass.exps.iter().enumerate() {
            self.walls[i].push(e.engine_s + e.render_s);
            let sim = e
                .results
                .iter()
                .filter(|r| !r.cached)
                .map(|r| r.wall.as_secs_f64());
            self.sims[i].push(sim.sum());
        }
        self.committed = pass
            .simulated()
            .map(|r| r.stats.committed_instructions)
            .sum();
    }

    pub fn passes(&self) -> usize {
        self.walls.first().map_or(0, Vec::len)
    }

    /// A pass's host time: the sum over experiments of the lower quartile
    /// of each one's samples.
    pub fn wall(&self) -> f64 {
        self.walls.iter().map(|t| lower_quartile(t)).sum()
    }

    /// Committed kilo-instructions per second of cell host time, the
    /// time summed over experiments as in [`ExpTimes::wall`].
    pub fn kips(&self) -> f64 {
        let secs: f64 = self.sims.iter().map(|t| lower_quartile(t)).sum();
        ratio(self.committed as f64 / 1e3, secs)
    }
}
