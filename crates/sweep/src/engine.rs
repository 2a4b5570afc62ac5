//! The sweep engine: cache lookup → work-stealing simulation → cache
//! fill, with telemetry and progress reporting along the way.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use pp_telemetry::Registry;

use crate::cell::{CellResult, SweepCell};
use crate::error::{CellError, CellErrorKind};
use crate::scheduler::run_stealing;
use crate::store::ResultStore;

/// Conventional cache location used by the `sweep` CLI (relative to the
/// working directory).
pub const DEFAULT_CACHE_DIR: &str = "results/cache";

/// Configuration for one sweep run.
///
/// By default the engine runs with one worker per available core, no
/// result cache, and no progress output — library callers opt in to
/// each. The `sweep` binary enables the cache (at
/// [`DEFAULT_CACHE_DIR`]) and progress by default.
#[derive(Debug, Clone)]
pub struct SweepEngine {
    workers: usize,
    cache: Option<PathBuf>,
    progress: bool,
    max_cells: Option<usize>,
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepEngine {
    /// An engine with default settings (auto workers, no cache, quiet).
    pub fn new() -> Self {
        SweepEngine {
            workers: 0,
            cache: None,
            progress: false,
            max_cells: None,
        }
    }

    /// Worker thread count; `0` means one per available core.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Enable the result cache rooted at `dir`. Completed cells are
    /// persisted there and looked up before simulating.
    #[must_use]
    pub fn with_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache = Some(dir.into());
        self
    }

    /// Stream per-cell progress lines (with ETA and KIPS) to stderr.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Simulate at most `n` cells this run; the rest of the grid is
    /// reported as skipped. Cache hits are free and do not count — a
    /// resumed run therefore picks up exactly where the budget cut the
    /// previous one off. This is how tests and CI model an interrupted
    /// sweep deterministically.
    #[must_use]
    pub fn with_max_cells(mut self, n: Option<usize>) -> Self {
        self.max_cells = n;
        self
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    }

    /// Run the grid. Never panics on a failing cell: each failure is a
    /// typed [`CellError`] in the report and every other cell still
    /// completes.
    pub fn run(&self, cells: &[SweepCell]) -> SweepReport {
        let store = self.cache.as_ref().map(ResultStore::new);
        let mut results: Vec<Option<CellResult>> = vec![None; cells.len()];
        let mut errors: Vec<CellError> = Vec::new();

        let mut registry = Registry::new();
        let c_total = registry.counter("sweep.cells_total");
        let c_simulated = registry.counter("sweep.cells_simulated");
        let c_cached = registry.counter("sweep.cells_cached");
        let c_failed = registry.counter("sweep.cells_failed");
        let c_skipped = registry.counter("sweep.cells_skipped");
        let h_wall = registry.histogram("sweep.cell_wall_us");
        let h_kips = registry.histogram("sweep.cell_kips");
        registry.inc(c_total, cells.len() as u64);

        // Pass 1: serve what the cache already has.
        if let Some(store) = &store {
            for (i, cell) in cells.iter().enumerate() {
                if let Some(stats) = store.load(cell) {
                    results[i] = Some(CellResult {
                        index: i,
                        cell: cell.clone(),
                        stats,
                        cached: true,
                        wall: std::time::Duration::ZERO,
                    });
                    registry.inc(c_cached, 1);
                }
            }
        }

        // Pass 2: simulate the misses, up to the cell budget.
        let mut pending: Vec<usize> = (0..cells.len()).filter(|&i| results[i].is_none()).collect();
        if let Some(max) = self.max_cells {
            for &i in pending.iter().skip(max) {
                registry.inc(c_skipped, 1);
                let _ = i;
            }
            pending.truncate(max);
        }

        let total_to_run = pending.len();
        let finished = AtomicUsize::new(0);
        let started = Instant::now();
        let registry = Mutex::new(registry);
        let job_results = run_stealing(pending.len(), self.effective_workers(), |j| {
            let i = pending[j];
            let cell = &cells[i];
            let t0 = Instant::now();
            let stats = cell.run();
            let wall = t0.elapsed();
            if !stats.hit_cycle_limit {
                if let Some(store) = &store {
                    if let Err(e) = store.save(cell, &stats) {
                        eprintln!(
                            "[sweep] warning: could not cache cell {} ({}): {e}",
                            i,
                            cell.label()
                        );
                    }
                }
            }
            let result = CellResult {
                index: i,
                cell: cell.clone(),
                stats,
                cached: false,
                wall,
            };
            {
                let mut reg = registry.lock().expect("registry lock");
                if !result.stats.hit_cycle_limit {
                    reg.inc(c_simulated, 1);
                    reg.observe(h_wall, wall.as_micros() as u64);
                    if let Some(kips) = result.kips() {
                        reg.observe(h_kips, kips as u64);
                    }
                }
            }
            let done = finished.fetch_add(1, Ordering::SeqCst) + 1;
            if self.progress {
                let elapsed = started.elapsed().as_secs_f64();
                let eta = elapsed / done as f64 * (total_to_run - done) as f64;
                let kips = result
                    .kips()
                    .map_or_else(|| "-".to_string(), |k| format!("{k:.0} KIPS"));
                eprintln!(
                    "[sweep] {done}/{total_to_run} {} [{}] {:.2}s {kips} eta {eta:.0}s",
                    cell.label(),
                    cell.config_summary(),
                    wall.as_secs_f64(),
                );
            }
            result
        });

        let mut registry = registry.into_inner().expect("registry lock");
        for (j, outcome) in job_results.into_iter().enumerate() {
            let i = pending[j];
            let cell = &cells[i];
            match outcome {
                Ok(result) if !result.stats.hit_cycle_limit => {
                    results[i] = Some(result);
                }
                Ok(result) => {
                    registry.inc(c_failed, 1);
                    errors.push(CellError {
                        index: i,
                        workload: cell.label(),
                        config: cell.config_summary(),
                        attempts: 1,
                        kind: CellErrorKind::CycleLimit {
                            max_cycles: result.stats.cycles,
                        },
                    });
                }
                Err(failure) => {
                    registry.inc(c_failed, 1);
                    errors.push(CellError {
                        index: i,
                        workload: cell.label(),
                        config: cell.config_summary(),
                        attempts: failure.attempts,
                        kind: CellErrorKind::Panic(failure.message),
                    });
                }
            }
        }

        if self.progress {
            for e in &errors {
                eprintln!("[sweep] FAILED: {e}");
            }
        }

        SweepReport {
            results,
            errors,
            registry,
        }
    }
}

/// Everything a sweep run produced.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell outcomes, indexed like the submitted grid. `None` means
    /// the cell failed (see [`Self::errors`]) or was skipped by a cell
    /// budget.
    pub results: Vec<Option<CellResult>>,
    /// Typed failures, in grid order.
    pub errors: Vec<CellError>,
    /// The run's telemetry: `sweep.cells_total` / `cells_simulated` /
    /// `cells_cached` / `cells_failed` / `cells_skipped` counters and
    /// `sweep.cell_wall_us` / `sweep.cell_kips` histograms.
    pub registry: Registry,
}

impl SweepReport {
    /// Completed results in grid order (cache hits and fresh runs).
    pub fn completed(&self) -> Vec<&CellResult> {
        self.results.iter().flatten().collect()
    }

    /// Completed results, cloned and owned — the shape
    /// [`crate::Experiment::render`] consumes.
    pub fn completed_owned(&self) -> Vec<CellResult> {
        self.results.iter().flatten().cloned().collect()
    }

    /// Number of cells served from the cache.
    pub fn cached(&self) -> usize {
        self.results.iter().flatten().filter(|r| r.cached).count()
    }

    /// Number of cells simulated this run.
    pub fn simulated(&self) -> usize {
        self.results.iter().flatten().filter(|r| !r.cached).count()
    }

    /// Number of cells that neither completed nor failed (cell budget).
    pub fn skipped(&self) -> usize {
        self.results.len() - self.completed().len() - self.errors.len()
    }

    /// `true` when every submitted cell completed.
    pub fn all_completed(&self) -> bool {
        self.results.iter().all(std::option::Option::is_some)
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        format!(
            "{} cells: {} simulated, {} cached, {} failed, {} skipped",
            self.results.len(),
            self.simulated(),
            self.cached(),
            self.errors.len(),
            self.skipped()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::SimConfig;
    use pp_workloads::Workload;

    fn tiny_grid() -> Vec<SweepCell> {
        [Workload::Compress, Workload::Gcc]
            .into_iter()
            .map(|w| SweepCell {
                workload: w,
                seed: None,
                scale: 40,
                config: SimConfig::baseline(),
            })
            .collect()
    }

    fn tmp_cache(name: &str) -> PathBuf {
        pp_testutil::scratch_dir(&format!("sweep-engine-{name}"))
    }

    #[test]
    fn uncached_run_completes_all_cells() {
        let report = SweepEngine::new().with_workers(2).run(&tiny_grid());
        assert!(report.all_completed(), "{}", report.summary());
        assert_eq!(report.simulated(), 2);
        assert_eq!(report.cached(), 0);
        assert!(report.errors.is_empty());
        for (i, r) in report.completed().iter().enumerate() {
            assert_eq!(r.index, i);
            assert!(r.stats.committed_instructions > 0);
        }
    }

    #[test]
    fn second_run_is_served_entirely_from_cache() {
        let dir = tmp_cache("rerun");
        std::fs::remove_dir_all(&dir).ok();
        let grid = tiny_grid();
        let engine = SweepEngine::new().with_workers(2).with_cache(&dir);

        let first = engine.run(&grid);
        assert_eq!(first.simulated(), 2);
        let second = engine.run(&grid);
        assert_eq!(second.simulated(), 0, "{}", second.summary());
        assert_eq!(second.cached(), 2);
        // Byte-identical stats across the cache round-trip.
        for (a, b) in first.completed().iter().zip(second.completed()) {
            assert_eq!(a.stats.to_json(), b.stats.to_json());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_cells_budget_skips_then_resumes() {
        let dir = tmp_cache("budget");
        std::fs::remove_dir_all(&dir).ok();
        let grid = tiny_grid();
        let engine = SweepEngine::new().with_workers(1).with_cache(&dir);

        let partial = engine.clone().with_max_cells(Some(1)).run(&grid);
        assert_eq!(partial.simulated(), 1);
        assert_eq!(partial.skipped(), 1);
        assert!(!partial.all_completed());

        // The resume simulates only the remainder.
        let resumed = engine.run(&grid);
        assert!(resumed.all_completed());
        assert_eq!(resumed.cached(), 1);
        assert_eq!(resumed.simulated(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cycle_limited_cell_fails_typed_and_uncached_while_rest_complete() {
        let dir = tmp_cache("cyclelimit");
        std::fs::remove_dir_all(&dir).ok();
        let mut grid = tiny_grid();
        // Strangle one cell: 10 cycles is never enough to halt.
        grid[0].config.max_cycles = 10;

        let engine = SweepEngine::new().with_workers(2).with_cache(&dir);
        let report = engine.run(&grid);
        assert_eq!(report.errors.len(), 1);
        let e = &report.errors[0];
        assert_eq!(e.index, 0);
        assert_eq!(e.workload, "compress");
        assert!(matches!(
            e.kind,
            CellErrorKind::CycleLimit { max_cycles: 10 }
        ));
        assert!(report.results[0].is_none());
        assert!(report.results[1].is_some(), "healthy cell must complete");

        // Failures are not cached: a rerun retries the failing cell.
        let rerun = engine.run(&grid);
        assert_eq!(rerun.errors.len(), 1);
        assert_eq!(rerun.cached(), 1, "only the healthy cell is cached");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_counts_match_the_report() {
        let dir = tmp_cache("telemetry");
        std::fs::remove_dir_all(&dir).ok();
        let grid = tiny_grid();
        let engine = SweepEngine::new().with_workers(2).with_cache(&dir);
        engine.run(&grid);
        let report = engine.run(&grid);

        let mut reg = report.registry;
        let total = reg.counter("sweep.cells_total");
        let cached = reg.counter("sweep.cells_cached");
        let simulated = reg.counter("sweep.cells_simulated");
        assert_eq!(reg.counter_value(total), 2);
        assert_eq!(reg.counter_value(cached), 2);
        assert_eq!(reg.counter_value(simulated), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deterministic_across_worker_counts() {
        let grid: Vec<SweepCell> = [Workload::Compress, Workload::Go, Workload::Xlisp]
            .into_iter()
            .map(|w| SweepCell {
                workload: w,
                seed: None,
                scale: 60,
                config: SimConfig::baseline(),
            })
            .collect();
        let one = SweepEngine::new().with_workers(1).run(&grid);
        let many = SweepEngine::new().with_workers(8).run(&grid);
        for (a, b) in one.completed().iter().zip(many.completed()) {
            assert_eq!(a.stats, b.stats);
        }
    }
}
