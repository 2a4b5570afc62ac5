//! Integration tests of the experiment reductions at tiny scale: the
//! suite's own grids, run through the `SweepEngine` that `sweep run`
//! uses, reduce to structurally sound results.

use std::sync::OnceLock;

use pp_experiments::experiments::{
    self, config_index, fig12_config, fig9_state_bytes, sweep_grid, sweep_points, Fig8,
    BASELINE_HISTORY_BITS, SWEEP_SERIES,
};
use pp_experiments::suite::{Fig8Exp, Table1Exp};
use pp_experiments::{harmonic_mean, named_config, Config, CONFIG_ORDER};
use pp_sweep::{CellResult, Experiment, SweepCell, SweepEngine};
use pp_workloads::Workload;

fn tiny_scale() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| std::env::set_var("PP_SCALE", "0.02"));
}

/// Run `grid` through an uncached engine; every cell must complete.
fn run(grid: &[SweepCell]) -> Vec<CellResult> {
    let report = SweepEngine::new().run(grid);
    assert!(report.all_completed(), "{}", report.summary());
    report.completed_owned()
}

/// The Fig. 8 baseline matrix (shared by fig8, sec51, sec52), run once.
fn fig8_results() -> &'static [CellResult] {
    static RESULTS: OnceLock<Vec<CellResult>> = OnceLock::new();
    RESULTS.get_or_init(|| {
        tiny_scale();
        run(&Fig8Exp.grid())
    })
}

#[test]
fn table1_rows_cover_all_workloads() {
    tiny_scale();
    let results = run(&Table1Exp.grid());
    assert!(results.iter().map(|r| r.cell.workload).eq(Workload::ALL));
    for r in &results {
        let w = r.cell.workload;
        let func = w.characterize(r.cell.scale);
        let taken_rate = func.taken_branches as f64 / func.cond_branches.max(1) as f64;
        assert!(func.instructions > 1_000, "{w}");
        assert!(func.cond_branches > 100, "{w}");
        assert!((0.0..=1.0).contains(&r.stats.mispredict_rate()), "{w}");
        assert!((0.0..=1.0).contains(&taken_rate), "{w}");
    }
    let rendered = Table1Exp.render(&results);
    assert!(rendered
        .artifacts
        .iter()
        .any(|(name, _)| name == "table1.csv"));
}

#[test]
fn fig8_matrix_is_complete_and_consistent() {
    let data = Fig8::from_results(fig8_results());
    assert_eq!(data.cells.len(), Workload::ALL.len());
    for row in &data.cells {
        assert_eq!(row.len(), CONFIG_ORDER.len());
        for stats in row {
            assert!(stats.committed_instructions > 0);
        }
    }
    // The harmonic means must match a recomputation.
    for (ci, &c) in CONFIG_ORDER.iter().enumerate() {
        let ipcs: Vec<f64> = data.cells.iter().map(|r| r[ci].ipc()).collect();
        assert!((data.hmean(c) - harmonic_mean(&ipcs)).abs() < 1e-12);
    }
    // Oracle must dominate all real configurations.
    for &c in &CONFIG_ORDER {
        assert!(
            data.hmean(Config::Oracle) >= data.hmean(c) * 0.999,
            "oracle must dominate {}",
            c.label()
        );
    }
    // Committed instruction counts are architectural (mode-independent).
    for row in &data.cells {
        let reference = row[0].committed_instructions;
        for stats in row {
            assert_eq!(stats.committed_instructions, reference);
        }
    }
}

#[test]
fn sec51_and_sec52_derive_from_fig8() {
    let data = Fig8::from_results(fig8_results());
    let rows = experiments::sec51(&data);
    assert_eq!(rows.len(), Workload::ALL.len());
    for r in &rows {
        assert!(r.mono_fetch_ratio >= 1.0, "{}", r.workload);
        assert!((0.0..=1.0).contains(&r.pvn), "{}", r.workload);
    }
    let s = experiments::sec52(&data);
    assert!(s.mean_paths_see >= 1.0);
    assert!((0.0..=1.0).contains(&s.paths_le3_see));
}

#[test]
fn sweep_points_are_well_formed() {
    tiny_scale();
    let xs = [6, 10];
    let grid = sweep_grid(&xs, &|c, d| fig12_config(c, d as usize));
    let points = sweep_points(&run(&grid), &xs);
    assert_eq!(points.len(), 2);
    for p in &points {
        assert_eq!(p.hmean_ipc.len(), SWEEP_SERIES.len());
        assert!(p.hmean_ipc.iter().all(|v| *v > 0.0));
    }
    // Deeper pipeline costs the monopath machine cycles.
    let mono = 1;
    assert!(
        points[0].hmean_ipc[mono] > points[1].hmean_ipc[mono],
        "6-stage monopath must beat 10-stage"
    );
}

#[test]
fn fig9_state_accounting() {
    tiny_scale();
    let xs = [10, 12];
    let grid = sweep_grid(&xs, &|c, bits| named_config(c, bits as u32));
    let points = sweep_points(&run(&grid), &xs);
    // 10 bits: 1k counters → 256 B PHT + 128 B JRS.
    assert_eq!(fig9_state_bytes(points[0].x as u32), 256 + 128);
    assert_eq!(fig9_state_bytes(points[1].x as u32), 1024 + 512);
    assert!(points[1].mispredict_rate <= points[0].mispredict_rate + 0.05);
}

#[test]
fn every_named_config_runs_in_the_fig8_grid() {
    let results = fig8_results();
    let vortex = Workload::ALL
        .iter()
        .position(|&w| w == Workload::Vortex)
        .expect("vortex is a workload");
    for c in CONFIG_ORDER {
        let r = &results[vortex * CONFIG_ORDER.len() + config_index(c)];
        assert_eq!(r.cell.workload, Workload::Vortex);
        assert_eq!(r.cell.config, named_config(c, BASELINE_HISTORY_BITS));
        assert!(r.stats.committed_instructions > 0, "{}", c.label());
    }
}
