//! Sweep determinism: the engine behind `sweep run` must produce
//! bit-identical results run-to-run *and* across worker-thread counts.
//!
//! The paper's evaluation (and the golden-equivalence suite) lean on
//! this: a sweep is only comparable to a previous sweep if thread
//! scheduling can never leak into simulated results or their order.

use pp_experiments::{named_config, Config};
use pp_sweep::{CellResult, SweepCell, SweepEngine};
use pp_workloads::Workload;

/// Every workload under monopath and SEE/JRS at 10 history bits,
/// workload-major.
fn grid() -> Vec<SweepCell> {
    let configs = [
        named_config(Config::Monopath, 10),
        named_config(Config::SeeJrs, 10),
    ];
    Workload::ALL
        .iter()
        .flat_map(|&w| configs.iter().map(move |c| SweepCell::new(w, c.clone())))
        .collect()
}

/// Run `grid` through an uncached engine; every cell must complete.
fn run(engine: SweepEngine, grid: &[SweepCell]) -> Vec<CellResult> {
    let report = engine.run(grid);
    assert!(report.all_completed(), "{}", report.summary());
    assert_eq!(report.simulated(), grid.len(), "{}", report.summary());
    report.completed_owned()
}

fn assert_identical(a: &[CellResult], b: &[CellResult], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: result count differs");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(
            (x.index, &x.cell),
            (y.index, &y.cell),
            "{what}: cell order differs"
        );
        assert_eq!(
            x.stats,
            y.stats,
            "{what}: stats differ for {} [{}]",
            x.cell.label(),
            x.cell.config_summary()
        );
    }
}

#[test]
fn matrix_identical_across_runs_and_worker_counts() {
    // This test binary runs alone in its own process, so scaling the
    // workloads down here cannot race with other tests.
    std::env::set_var("PP_SCALE", "0.005");
    let grid = grid();

    let serial = run(SweepEngine::new().with_workers(1), &grid);
    assert_eq!(serial.len(), Workload::ALL.len() * 2);
    for (i, cell) in serial.iter().enumerate() {
        assert_eq!(cell.index, i);
        assert_eq!(cell.cell, grid[i]);
        assert!(cell.stats.committed_instructions > 0);
        assert!(!cell.stats.hit_cycle_limit);
    }

    // Same worker count, run twice: identical.
    let serial2 = run(SweepEngine::new().with_workers(1), &grid);
    assert_identical(&serial, &serial2, "serial repeat");

    // A second worker count: identical to serial.
    let threaded = run(SweepEngine::new().with_workers(4), &grid);
    assert_identical(&serial, &threaded, "1 vs 4 workers");

    // And the default worker count (however many cores CI has).
    let auto = run(SweepEngine::new(), &grid);
    assert_identical(&serial, &auto, "1 worker vs default");
}
