//! Every table and figure of the evaluation as a named [`Experiment`].
//!
//! Each experiment declares its sweep grid (workload × configuration
//! cells) and a pure `render` step that turns completed [`CellResult`]s
//! into stdout text and artifact files. The [`pp_sweep::SweepEngine`]
//! runs the grids — with the result cache, parallel workers, and typed
//! per-cell failures — so experiments that share cells (Fig. 8, §5.1,
//! §5.2 all use the same 48-cell matrix) pay for them once.
//!
//! The `sweep` binary exposes this registry as subcommands
//! (`sweep run fig9`, `sweep run all`, `sweep serve fig9`).

use std::fmt::Write as _;
use std::path::Path;

use pp_core::{
    CacheConfig, ConfidenceKind, FetchPolicy, PipeView, Policy, PredictorKind, SimConfig, SimStats,
    Simulator, StallStack, STALL_CAUSES,
};
use pp_predictor::{AdaptiveConfig, H2pConfig, JrsConfig};
use pp_sweep::{
    run_experiment, scale_factor, scaled, CellResult, Experiment, ExperimentOutcome, Rendered,
    SweepCell, SweepEngine,
};
use pp_telemetry::Registry;
use pp_workloads::Workload;

use crate::cli::SweepOpts;
use crate::configs::{named_config, Config, CONFIG_ORDER};
use crate::experiments::{
    self, config_index, fig10_config, fig11_config, fig12_config, fig9_state_bytes, hmeans_of,
    matrix_grid, sweep_grid, sweep_points, Fig8, SweepPoint, BASELINE_HISTORY_BITS, FIG10_WINDOWS,
    FIG11_FUS, FIG12_DEPTHS, FIG9_BITS, SWEEP_SERIES,
};
use crate::harness::{
    harmonic_mean, run_workload_telemetered, speedup_frac, speedup_pct, TelemetryOpts,
};
use crate::{Chart, Table};

/// Number of workloads in every matrix (rows of each grid block).
const W: usize = Workload::ALL.len();

// ---------------------------------------------------------------------
// Grid/result helpers
// ---------------------------------------------------------------------

/// The six Fig. 8 configurations at baseline history bits.
fn baseline_configs() -> Vec<SimConfig> {
    CONFIG_ORDER
        .iter()
        .map(|&c| named_config(c, BASELINE_HISTORY_BITS))
        .collect()
}

/// The ASCII chart every scalability figure prints.
fn sweep_chart(points: &[SweepPoint]) -> Chart {
    let mut chart = Chart::new("harmonic-mean IPC (y) vs swept parameter (x)", "IPC");
    for (si, cfg) in SWEEP_SERIES.iter().enumerate() {
        chart.series(
            cfg.label(),
            points.iter().map(|p| (p.x as f64, p.hmean_ipc[si])),
        );
    }
    chart
}

/// The CSV artifact format `sweep run all` always wrote for the sweeps.
fn sweep_csv(points: &[SweepPoint], x_name: &str) -> String {
    let mut t = Table::new(
        std::iter::once(x_name.to_string())
            .chain(SWEEP_SERIES.iter().map(|c| c.label().to_string())),
    );
    for p in points {
        t.row(
            std::iter::once(p.x.to_string()).chain(p.hmean_ipc.iter().map(|v| format!("{v:.4}"))),
        );
    }
    t.to_csv()
}

/// The stdout table shared by Figs. 10–12 (Fig. 9 adds extra columns).
fn sweep_stdout_table(points: &[SweepPoint], x_name: &str) -> Table {
    let mut t = Table::new(
        std::iter::once(x_name.to_string())
            .chain(SWEEP_SERIES.iter().map(|c| c.label().to_string())),
    );
    for p in points {
        t.row(
            std::iter::once(p.x.to_string()).chain(p.hmean_ipc.iter().map(|v| format!("{v:.3}"))),
        );
    }
    t
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Table 1 — benchmark characteristics.
pub struct Table1Exp;

impl Experiment for Table1Exp {
    fn name(&self) -> &'static str {
        "table1"
    }
    fn description(&self) -> &'static str {
        "Table 1 — benchmark characteristics (sizes, taken rate, gshare-14 misprediction)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        matrix_grid(std::slice::from_ref(&named_config(
            Config::Monopath,
            BASELINE_HISTORY_BITS,
        )))
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let rows: Vec<_> = Workload::ALL
            .iter()
            .zip(results)
            .map(|(&w, r)| {
                let func = w.characterize(scaled(w));
                (w, func, r.stats.mispredict_rate())
            })
            .collect();

        let mut out = String::new();
        let mut t = Table::new([
            "benchmark",
            "instructions (K)",
            "cond branches (K)",
            "taken %",
            "mispredict %",
        ]);
        for (w, func, mispredict) in &rows {
            let taken = func.taken_branches as f64 / func.cond_branches.max(1) as f64;
            t.row([
                w.name().to_string(),
                format!("{:.1}", func.instructions as f64 / 1e3),
                format!("{:.1}", func.cond_branches as f64 / 1e3),
                format!("{:.1}", 100.0 * taken),
                format!("{:.2}", 100.0 * mispredict),
            ]);
        }
        let mean = rows.iter().map(|(_, _, m)| m).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(
            out,
            "Table 1 — workload characteristics (paper: 1.9%…24.8%, mean 7.2%)"
        );
        let _ = writeln!(out, "{t}");
        let _ = writeln!(out, "mean misprediction rate: {:.2}%", 100.0 * mean);

        // The CSV artifact keeps `sweep run all`'s historical full-precision
        // column set.
        let mut csv = Table::new([
            "benchmark",
            "instructions",
            "cond_branches",
            "taken",
            "mispredict",
        ]);
        for (w, func, mispredict) in &rows {
            let taken = func.taken_branches as f64 / func.cond_branches.max(1) as f64;
            csv.row([
                w.name().to_string(),
                func.instructions.to_string(),
                func.cond_branches.to_string(),
                format!("{taken:.4}"),
                format!("{mispredict:.4}"),
            ]);
        }
        Rendered::text(out)
            .with_artifact("table1.csv", csv.to_csv())
            .with_artifact("table1.txt", csv.render())
    }
}

// ---------------------------------------------------------------------
// Fig. 8
// ---------------------------------------------------------------------

/// Fig. 8 — baseline IPC of all six configurations.
pub struct Fig8Exp;

impl Experiment for Fig8Exp {
    fn name(&self) -> &'static str {
        "fig8"
    }
    fn description(&self) -> &'static str {
        "Fig. 8 — baseline IPC of all six configurations"
    }
    fn grid(&self) -> Vec<SweepCell> {
        matrix_grid(&baseline_configs())
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let data = Fig8::from_results(results);
        let mut out = String::new();

        let mut t = Table::new(
            std::iter::once("benchmark".to_string())
                .chain(CONFIG_ORDER.iter().map(|c| c.label().to_string())),
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            t.row(
                std::iter::once(w.name().to_string()).chain(
                    CONFIG_ORDER
                        .iter()
                        .map(|&c| format!("{:.3}", data.ipc(wi, c))),
                ),
            );
        }
        t.row(
            std::iter::once("hmean".to_string()).chain(
                CONFIG_ORDER
                    .iter()
                    .map(|&c| format!("{:.3}", data.hmean(c))),
            ),
        );
        let _ = writeln!(
            out,
            "Fig. 8 — baseline IPC (columns are the paper's legend)"
        );
        let _ = writeln!(out, "{t}");

        let pct = |a: Config, b: Config| speedup_pct(data.speedup(a, b), 1.0);
        let _ = writeln!(out, "derived (paper reference in parentheses):");
        let _ = writeln!(
            out,
            "  oracle over monopath:       {:+.1}%  (+94%)",
            pct(Config::Oracle, Config::Monopath)
        );
        let _ = writeln!(
            out,
            "  SEE/oracle over monopath:   {:+.1}%  (+48%)",
            pct(Config::SeeOracle, Config::Monopath)
        );
        let _ = writeln!(
            out,
            "  SEE/JRS over monopath:      {:+.1}%  (+14%)",
            pct(Config::SeeJrs, Config::Monopath)
        );
        let _ = writeln!(
            out,
            "  dual/JRS over monopath:     {:+.1}%",
            pct(Config::DualJrs, Config::Monopath)
        );
        let _ = writeln!(
            out,
            "  dual/oracle over monopath:  {:+.1}%",
            pct(Config::DualOracle, Config::Monopath)
        );
        let see = config_index(Config::SeeJrs);
        let mono = config_index(Config::Monopath);
        for (wi, w) in Workload::ALL.iter().enumerate() {
            let s = speedup_pct(data.cells[wi][see].ipc(), data.cells[wi][mono].ipc());
            let _ = writeln!(out, "  SEE/JRS on {:<9} {:+.1}%", format!("{w}:"), s);
        }

        let mut csv = Table::new(
            std::iter::once("benchmark".to_string())
                .chain(CONFIG_ORDER.iter().map(|c| c.label().to_string())),
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            csv.row(
                std::iter::once(w.name().to_string()).chain(
                    CONFIG_ORDER
                        .iter()
                        .map(|&c| format!("{:.4}", data.ipc(wi, c))),
                ),
            );
        }
        csv.row(
            std::iter::once("hmean".to_string()).chain(
                CONFIG_ORDER
                    .iter()
                    .map(|&c| format!("{:.4}", data.hmean(c))),
            ),
        );
        Rendered::text(out)
            .with_artifact("fig8.csv", csv.to_csv())
            .with_artifact("fig8.txt", csv.render())
    }
}

// ---------------------------------------------------------------------
// §5.1 / §5.2 (same grid as Fig. 8 — the cache makes reruns free)
// ---------------------------------------------------------------------

/// §5.1 — fetch ratios, useless instructions, PVN.
pub struct Sec51Exp;

impl Experiment for Sec51Exp {
    fn name(&self) -> &'static str {
        "sec51"
    }
    fn description(&self) -> &'static str {
        "§5.1 — fetch ratios, useless instructions, JRS PVN (shares the Fig. 8 grid)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        matrix_grid(&baseline_configs())
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let data = Fig8::from_results(results);
        let rows = experiments::sec51(&data);
        let mut out = String::new();

        let mut t = Table::new([
            "benchmark",
            "fetch/commit (mono)",
            "JRS PVN %",
            "useless Δ%",
            "SEE speedup %",
        ]);
        for r in &rows {
            t.row([
                r.workload.name().to_string(),
                format!("{:.2}", r.mono_fetch_ratio),
                format!("{:.1}", 100.0 * r.pvn),
                format!("{:+.1}", 100.0 * r.useless_delta),
                format!("{:+.1}", 100.0 * r.see_speedup),
            ]);
        }
        let mean_ratio: f64 =
            rows.iter().map(|r| r.mono_fetch_ratio).sum::<f64>() / rows.len() as f64;
        let _ = writeln!(
            out,
            "§5.1 analysis (paper: mean fetch/commit 1.86; PVN >40% except m88ksim ~16%)"
        );
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "mean monopath fetch/commit ratio: {mean_ratio:.2}  (paper: 1.86)"
        );

        let mut csv = Table::new([
            "benchmark",
            "fetch_ratio",
            "pvn",
            "useless_delta",
            "see_speedup",
        ]);
        for r in &rows {
            csv.row([
                r.workload.name().to_string(),
                format!("{:.4}", r.mono_fetch_ratio),
                format!("{:.4}", r.pvn),
                format!("{:.4}", r.useless_delta),
                format!("{:.4}", r.see_speedup),
            ]);
        }
        Rendered::text(out).with_artifact("sec51.csv", csv.to_csv())
    }
}

/// §5.2 — dual-path fractions and path utilization.
pub struct Sec52Exp;

impl Experiment for Sec52Exp {
    fn name(&self) -> &'static str {
        "sec52"
    }
    fn description(&self) -> &'static str {
        "§5.2 — dual-path fractions, path utilization (shares the Fig. 8 grid)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        matrix_grid(&baseline_configs())
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let data = Fig8::from_results(results);
        let s = experiments::sec52(&data);
        let mut out = String::new();

        let _ = writeln!(
            out,
            "§5.2 dual-path execution (paper references in parentheses)"
        );
        let _ = writeln!(
            out,
            "  oracle dual-path fraction of oracle SEE gain: {:5.1}%  (58%)",
            100.0 * s.oracle_dual_fraction
        );
        let _ = writeln!(
            out,
            "  JRS dual-path fraction of JRS SEE gain:       {:5.1}%  (66%)",
            100.0 * s.jrs_dual_fraction
        );
        let _ = writeln!(
            out,
            "  mean active paths under SEE/JRS:              {:5.2}   (2.9)",
            s.mean_paths_see
        );
        let _ = writeln!(
            out,
            "  cycles with <= 3 live paths under SEE/JRS:    {:5.1}%  (75%)",
            100.0 * s.paths_le3_see
        );
        let _ = writeln!(out);

        let see = config_index(Config::SeeJrs);
        let mut t = Table::new(["benchmark", "mean paths", "<=3 paths %", "max paths"]);
        for (wi, w) in Workload::ALL.iter().enumerate() {
            let st = &data.cells[wi][see];
            t.row([
                w.name().to_string(),
                format!("{:.2}", st.mean_active_paths()),
                format!("{:.1}", 100.0 * st.paths_at_most(3)),
                st.max_live_paths.to_string(),
            ]);
        }
        let _ = writeln!(out, "per-benchmark path utilization under SEE/JRS:");
        let _ = writeln!(out, "{t}");

        let mut csv = String::new();
        let _ = writeln!(csv, "oracle_dual_fraction,{:.4}", s.oracle_dual_fraction);
        let _ = writeln!(csv, "jrs_dual_fraction,{:.4}", s.jrs_dual_fraction);
        let _ = writeln!(csv, "mean_paths_see,{:.4}", s.mean_paths_see);
        let _ = writeln!(csv, "paths_le3_see,{:.4}", s.paths_le3_see);

        // Path histogram of the SEE runs — `sweep run all`'s bonus artifact.
        let mut hist = Table::new(["benchmark", "paths", "cycles"]);
        for (wi, w) in Workload::ALL.iter().enumerate() {
            for (k, c) in data.cells[wi][see].path_cycles.iter().enumerate() {
                if *c > 0 {
                    hist.row([w.name().to_string(), k.to_string(), c.to_string()]);
                }
            }
        }
        Rendered::text(out)
            .with_artifact("sec52.csv", csv)
            .with_artifact("path_histogram.csv", hist.to_csv())
    }
}

// ---------------------------------------------------------------------
// Figs. 9–12
// ---------------------------------------------------------------------

/// Fig. 9 — IPC vs. branch predictor size.
pub struct Fig9Exp;

impl Experiment for Fig9Exp {
    fn name(&self) -> &'static str {
        "fig9"
    }
    fn description(&self) -> &'static str {
        "Fig. 9 — IPC vs. predictor size (equal-area comparison)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let xs: Vec<u64> = FIG9_BITS.iter().map(|&b| b as u64).collect();
        sweep_grid(&xs, &|c, bits| named_config(c, bits as u32))
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let xs: Vec<u64> = FIG9_BITS.iter().map(|&b| b as u64).collect();
        let mut points = sweep_points(results, &xs);
        for p in &mut points {
            p.state_bytes = fig9_state_bytes(p.x as u32);
        }
        let mut out = String::new();

        let mut t = Table::new(
            ["hist bits", "state kB", "mono mispred %"]
                .into_iter()
                .map(String::from)
                .chain(SWEEP_SERIES.iter().map(|c| c.label().to_string())),
        );
        for p in &points {
            t.row(
                [
                    p.x.to_string(),
                    format!("{:.2}", p.state_bytes as f64 / 1024.0),
                    format!("{:.1}", 100.0 * p.mispredict_rate),
                ]
                .into_iter()
                .chain(p.hmean_ipc.iter().map(|v| format!("{v:.3}"))),
            );
        }
        let _ = writeln!(
            out,
            "Fig. 9 — IPC vs. predictor size (harmonic mean over all benchmarks)"
        );
        let _ = writeln!(out, "{t}");
        let _ = writeln!(out, "{}", sweep_chart(&points));
        let _ = writeln!(out, "SEE/JRS gain over monopath per point:");
        for p in &points {
            let _ = writeln!(
                out,
                "  {:>2} bits: {:+.3} IPC ({:+.1}%)",
                p.x,
                p.hmean_ipc[3] - p.hmean_ipc[1],
                100.0 * (p.hmean_ipc[3] / p.hmean_ipc[1] - 1.0)
            );
        }
        Rendered::text(out).with_artifact("fig9.csv", sweep_csv(&points, "history_bits"))
    }
}

/// Fig. 10 — IPC vs. instruction window size.
pub struct Fig10Exp;

impl Experiment for Fig10Exp {
    fn name(&self) -> &'static str {
        "fig10"
    }
    fn description(&self) -> &'static str {
        "Fig. 10 — IPC vs. instruction window size"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let xs: Vec<u64> = FIG10_WINDOWS.iter().map(|&w| w as u64).collect();
        let mut cells = sweep_grid(&xs, &|c, w| fig10_config(c, w as usize));
        // §5.3.2's saturation argument needs one extra matrix row: the
        // mean occupancy of a huge window under gshare/monopath.
        cells.extend(matrix_grid(std::slice::from_ref(&fig10_config(
            Config::Monopath,
            1024,
        ))));
        cells
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let xs: Vec<u64> = FIG10_WINDOWS.iter().map(|&w| w as u64).collect();
        let sweep_cells = xs.len() * SWEEP_SERIES.len() * W;
        let points = sweep_points(&results[..sweep_cells], &xs);
        let occupancy = &results[sweep_cells..];
        let mut out = String::new();

        let _ = writeln!(
            out,
            "Fig. 10 — IPC vs. instruction window size (harmonic mean)"
        );
        let _ = writeln!(out, "{}", sweep_stdout_table(&points, "window"));
        let _ = writeln!(out, "{}", sweep_chart(&points));
        let _ = writeln!(out, "SEE/JRS gain over monopath per point:");
        for p in &points {
            let _ = writeln!(
                out,
                "  {:>4} entries: {:+.1}%",
                p.x,
                100.0 * (p.hmean_ipc[3] / p.hmean_ipc[1] - 1.0)
            );
        }
        let occ: f64 = occupancy
            .iter()
            .map(|r| r.stats.mean_window_occupancy())
            .sum::<f64>()
            / occupancy.len() as f64;
        let _ = writeln!(
            out,
            "\nmean occupancy of a 1024-entry window under gshare/monopath: \
             {occ:.0} entries (paper: ≈145 — the window saturates long before 1024)"
        );
        Rendered::text(out).with_artifact("fig10.csv", sweep_csv(&points, "window"))
    }
}

/// Fig. 11 — IPC vs. functional unit configuration.
pub struct Fig11Exp;

impl Experiment for Fig11Exp {
    fn name(&self) -> &'static str {
        "fig11"
    }
    fn description(&self) -> &'static str {
        "Fig. 11 — IPC vs. functional units of each type"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let xs: Vec<u64> = FIG11_FUS.iter().map(|&n| n as u64).collect();
        sweep_grid(&xs, &|c, n| fig11_config(c, n as usize))
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let xs: Vec<u64> = FIG11_FUS.iter().map(|&n| n as u64).collect();
        let points = sweep_points(results, &xs);
        let mut out = String::new();

        let _ = writeln!(
            out,
            "Fig. 11 — IPC vs. functional units of each type (harmonic mean)"
        );
        let _ = writeln!(out, "{}", sweep_stdout_table(&points, "FUs/type"));
        let _ = writeln!(out, "{}", sweep_chart(&points));
        let _ = writeln!(out, "SEE/JRS gain over monopath per point:");
        for p in &points {
            let _ = writeln!(
                out,
                "  {} of each type: {:+.1}%",
                p.x,
                100.0 * (p.hmean_ipc[3] / p.hmean_ipc[1] - 1.0)
            );
        }
        Rendered::text(out).with_artifact("fig11.csv", sweep_csv(&points, "fus_per_type"))
    }
}

/// Fig. 12 — IPC vs. pipeline depth.
pub struct Fig12Exp;

impl Experiment for Fig12Exp {
    fn name(&self) -> &'static str {
        "fig12"
    }
    fn description(&self) -> &'static str {
        "Fig. 12 — IPC vs. pipeline depth"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let xs: Vec<u64> = FIG12_DEPTHS.iter().map(|&d| d as u64).collect();
        sweep_grid(&xs, &|c, d| fig12_config(c, d as usize))
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let xs: Vec<u64> = FIG12_DEPTHS.iter().map(|&d| d as u64).collect();
        let points = sweep_points(results, &xs);
        let mut out = String::new();

        let _ = writeln!(out, "Fig. 12 — IPC vs. pipeline depth (harmonic mean)");
        let _ = writeln!(out, "{}", sweep_stdout_table(&points, "stages"));
        let _ = writeln!(out, "{}", sweep_chart(&points));
        let _ = writeln!(out, "SEE/JRS gain over monopath per depth:");
        for p in &points {
            let _ = writeln!(
                out,
                "  {:>2} stages: {:+.3} IPC ({:+.1}%)",
                p.x,
                p.hmean_ipc[3] - p.hmean_ipc[1],
                100.0 * (p.hmean_ipc[3] / p.hmean_ipc[1] - 1.0)
            );
        }
        let mono8 = points.iter().find(|p| p.x == 8).map(|p| p.hmean_ipc[1]);
        if let Some(mono8) = mono8 {
            let _ = writeln!(
                out,
                "SEE at extended depths vs 8-stage monopath (paper: +14%/+11%/+7%):"
            );
            for d in [8, 9, 10] {
                if let Some(p) = points.iter().find(|p| p.x == d) {
                    let _ = writeln!(
                        out,
                        "  SEE {}-stage vs monopath 8-stage: {:+.1}%",
                        d,
                        100.0 * (p.hmean_ipc[3] / mono8 - 1.0)
                    );
                }
            }
        }
        Rendered::text(out).with_artifact("fig12.csv", sweep_csv(&points, "stages"))
    }
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

fn ablation_predictors() -> Vec<(&'static str, PredictorKind)> {
    vec![
        (
            "gshare-14 (paper)",
            PredictorKind::Gshare { history_bits: 14 },
        ),
        ("bimodal-14", PredictorKind::Bimodal { index_bits: 14 }),
        (
            "two-level local 12/12",
            PredictorKind::TwoLevelLocal {
                bht_bits: 12,
                history_bits: 12,
            },
        ),
        (
            "agree 13/13",
            PredictorKind::Agree {
                bias_bits: 13,
                history_bits: 13,
            },
        ),
    ]
}

/// The five ablation studies' configuration lists, in grid order.
fn ablation_studies() -> Vec<Vec<SimConfig>> {
    let see = named_config(Config::SeeJrs, 14);
    let mono = named_config(Config::Monopath, 14);
    vec![
        // 1. Fetch policy (on SEE/JRS).
        [
            FetchPolicy::ExponentialByAge,
            FetchPolicy::OldestFirst,
            FetchPolicy::RoundRobin,
        ]
        .into_iter()
        .map(|p| see.clone().with_fetch_policy(p))
        .collect(),
        // 2. Branch resolution timing.
        vec![
            mono.clone(),
            mono.clone().with_commit_time_resolution(),
            see.clone(),
            see.clone().with_commit_time_resolution(),
        ],
        // 3. Adaptive confidence.
        vec![
            mono.clone(),
            see.clone(),
            see.clone()
                .with_confidence(ConfidenceKind::AdaptiveJrs(AdaptiveConfig::paper_baseline())),
        ],
        // 4. Direction predictors (mono + SEE per predictor).
        ablation_predictors()
            .into_iter()
            .flat_map(|(_, pk)| {
                [
                    mono.clone().with_predictor(pk),
                    see.clone().with_predictor(pk),
                ]
            })
            .collect(),
        // 5. Cache realism.
        vec![
            mono.clone(),
            mono.clone().with_dcache(CacheConfig::l1_8k()),
            see.clone(),
            see.clone().with_dcache(CacheConfig::l1_8k()),
        ],
    ]
}

/// Five extension studies of design choices the paper leaves open.
pub struct AblationsExp;

impl Experiment for AblationsExp {
    fn name(&self) -> &'static str {
        "ablations"
    }
    fn description(&self) -> &'static str {
        "five extension studies (fetch policy, resolution timing, confidence, predictors, cache)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        ablation_studies()
            .iter()
            .flat_map(|configs| matrix_grid(configs))
            .collect()
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let studies = ablation_studies();
        let mut out = String::new();
        let mut off = 0;
        let mut next = |n: usize| {
            let s = &results[off..off + n * W];
            off += n * W;
            s
        };

        // --- 1. Fetch policy ---------------------------------------------
        let s1 = next(studies[0].len());
        let means = hmeans_of(s1, 3);
        let _ = writeln!(out, "Ablation 1 — fetch bandwidth arbitration (SEE/JRS):");
        let mut t = Table::new(["policy", "hmean IPC"]);
        for (p, m) in ["exponential-by-age (paper)", "oldest-first", "round-robin"]
            .iter()
            .zip(&means)
        {
            t.row([p.to_string(), format!("{m:.3}")]);
        }
        let _ = writeln!(out, "{t}");

        // --- 2. Resolution timing ----------------------------------------
        let s2 = next(studies[1].len());
        let means = hmeans_of(s2, 4);
        let _ = writeln!(out, "Ablation 2 — branch resolution timing:");
        let mut t = Table::new(["configuration", "hmean IPC"]);
        for (name, m) in [
            "monopath, resolve at execute",
            "monopath, resolve at commit",
            "SEE/JRS, resolve at execute (PolyPath)",
            "SEE/JRS, resolve at commit",
        ]
        .iter()
        .zip(&means)
        {
            t.row([name.to_string(), format!("{m:.3}")]);
        }
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "out-of-order resolution is worth {:+.1}% to monopath and {:+.1}% to SEE\n",
            100.0 * (means[0] / means[1] - 1.0),
            100.0 * (means[2] / means[3] - 1.0),
        );

        // --- 3. Adaptive confidence --------------------------------------
        let s3 = next(studies[2].len());
        let _ = writeln!(
            out,
            "Ablation 3 — self-monitoring confidence estimation (§5.1 lesson):"
        );
        let mut t = Table::new(["benchmark", "monopath", "SEE/JRS", "SEE/adaptive-JRS"]);
        for (wi, w) in Workload::ALL.iter().enumerate() {
            t.row([
                w.name().to_string(),
                format!("{:.3}", s3[wi * 3].stats.ipc()),
                format!("{:.3}", s3[wi * 3 + 1].stats.ipc()),
                format!("{:.3}", s3[wi * 3 + 2].stats.ipc()),
            ]);
        }
        let hm = hmeans_of(s3, 3);
        t.row([
            "hmean".to_string(),
            format!("{:.3}", hm[0]),
            format!("{:.3}", hm[1]),
            format!("{:.3}", hm[2]),
        ]);
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "adaptive gate vs plain JRS: {:+.1}% (it should recover the losses on\n\
             low-PVN benchmarks while keeping the gains elsewhere)\n",
            100.0 * (hm[2] / hm[1] - 1.0)
        );

        // --- 4. Direction predictors --------------------------------------
        let s4 = next(studies[3].len());
        let means = hmeans_of(s4, 8);
        let _ = writeln!(
            out,
            "Ablation 4 — base direction predictor (~equal state budgets):"
        );
        let mut t = Table::new(["predictor", "monopath IPC", "SEE/JRS IPC", "SEE gain %"]);
        for (pi, (name, _)) in ablation_predictors().iter().enumerate() {
            let (m0, m1) = (means[pi * 2], means[pi * 2 + 1]);
            t.row([
                name.to_string(),
                format!("{m0:.3}"),
                format!("{m1:.3}"),
                format!("{:+.1}", 100.0 * (m1 / m0 - 1.0)),
            ]);
        }
        let _ = writeln!(out, "{t}");

        // --- 5. Cache realism ---------------------------------------------
        let s5 = next(studies[4].len());
        let m = hmeans_of(s5, 4);
        let _ = writeln!(
            out,
            "Ablation 5 — always-hit D-cache (paper) vs modeled 8 KiB L1:"
        );
        let mut t = Table::new(["configuration", "hmean IPC"]);
        for (name, v) in [
            "monopath, always-hit",
            "monopath, 8 KiB L1",
            "SEE/JRS, always-hit",
            "SEE/JRS, 8 KiB L1",
        ]
        .iter()
        .zip(&m)
        {
            t.row([name.to_string(), format!("{v:.3}")]);
        }
        let _ = writeln!(out, "{t}");
        let _ = writeln!(
            out,
            "SEE gain: {:+.1}% always-hit vs {:+.1}% with a real L1",
            100.0 * (m[2] / m[0] - 1.0),
            100.0 * (m[3] / m[1] - 1.0),
        );
        Rendered::text(out)
    }
}

// ---------------------------------------------------------------------
// Input sensitivity
// ---------------------------------------------------------------------

/// The three input data seeds the sensitivity study compares.
pub const SENSITIVITY_SEEDS: [u64; 3] = [0, 0x5eed_0001, 0x5eed_0002];

/// Fig. 8 headline across three input data sets per workload.
pub struct InputSensitivityExp;

impl Experiment for InputSensitivityExp {
    fn name(&self) -> &'static str {
        "input_sensitivity"
    }
    fn description(&self) -> &'static str {
        "SEE/JRS vs. monopath across three input data sets per workload"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let mono = named_config(Config::Monopath, 14);
        let see = named_config(Config::SeeJrs, 14);
        let mut cells = Vec::new();
        for &w in &Workload::ALL {
            for &seed in &SENSITIVITY_SEEDS {
                cells.push(SweepCell::new(w, mono.clone()).with_seed(seed));
                cells.push(SweepCell::new(w, see.clone()).with_seed(seed));
            }
        }
        cells
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let n_seeds = SENSITIVITY_SEEDS.len();
        let cell = |wi: usize, si: usize, k: usize| &results[(wi * n_seeds + si) * 2 + k].stats;
        let mut out = String::new();

        let mut t = Table::new(
            std::iter::once("benchmark".to_string()).chain(
                SENSITIVITY_SEEDS
                    .iter()
                    .map(|s| format!("gain% seed {s:#x}")),
            ),
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            let mut cells = vec![w.name().to_string()];
            for si in 0..n_seeds {
                let gain = speedup_frac(cell(wi, si, 1).ipc(), cell(wi, si, 0).ipc());
                cells.push(format!("{:+.1}", 100.0 * gain));
            }
            t.row(cells);
        }
        let _ = writeln!(
            out,
            "SEE/JRS gain over monopath, three input sets per workload"
        );
        let _ = writeln!(out, "{t}");
        for (si, &seed) in SENSITIVITY_SEEDS.iter().enumerate() {
            let sees: Vec<f64> = (0..W).map(|wi| cell(wi, si, 1).ipc()).collect();
            let monos: Vec<f64> = (0..W).map(|wi| cell(wi, si, 0).ipc()).collect();
            let _ = writeln!(
                out,
                "seed {seed:#x}: hmean SEE {:.3} vs monopath {:.3} ({:+.1}%)",
                harmonic_mean(&sees),
                harmonic_mean(&monos),
                100.0 * (harmonic_mean(&sees) / harmonic_mean(&monos) - 1.0),
            );
        }
        Rendered::text(out)
    }
}

// ---------------------------------------------------------------------
// Calibration
// ---------------------------------------------------------------------

/// Workload calibration table (scale, density, misprediction, IPC).
pub struct CalibrateExp;

impl Experiment for CalibrateExp {
    fn name(&self) -> &'static str {
        "calibrate"
    }
    fn description(&self) -> &'static str {
        "workload calibration table (instructions/unit, branch density, IPC)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        matrix_grid(std::slice::from_ref(&named_config(Config::Monopath, 14)))
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let mut out = String::new();
        let mut t = Table::new([
            "workload",
            "scale",
            "dyn-instr",
            "instr/unit",
            "branch%",
            "mispredict%",
            "IPC",
        ]);
        for (w, r) in Workload::ALL.iter().zip(results) {
            let scale = scaled(*w);
            let func = w.characterize(scale);
            t.row([
                w.name().to_string(),
                scale.to_string(),
                func.instructions.to_string(),
                format!("{:.1}", func.instructions as f64 / scale as f64),
                format!(
                    "{:.1}",
                    100.0 * func.cond_branches as f64 / func.instructions as f64
                ),
                format!("{:.2}", 100.0 * r.stats.mispredict_rate()),
                format!("{:.3}", r.stats.ipc()),
            ]);
        }
        let _ = writeln!(out, "{t}");
        Rendered::text(out)
    }
}

// ---------------------------------------------------------------------
// FP validation (no sweep grid — drives a custom kernel directly)
// ---------------------------------------------------------------------

/// §5.1's floating-point remark on a predictable FP kernel.
pub struct FpValidationExp;

impl Experiment for FpValidationExp {
    fn name(&self) -> &'static str {
        "fp_validation"
    }
    fn description(&self) -> &'static str {
        "§5.1 FP remark — SEE on a perfectly predictable FP kernel (uncached)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        // The FP kernel is not a Workload, so this experiment cannot be
        // expressed as cacheable cells; it simulates inside render.
        Vec::new()
    }
    fn render(&self, _: &[CellResult]) -> Rendered {
        let scale = ((300.0 * scale_factor()) as u64).max(4);
        let program = pp_workloads::extra::fp_kernel(scale);
        let run = |cfg: SimConfig| Simulator::new(&program, cfg).run();
        let mono = run(named_config(Config::Monopath, 14));
        let see = run(named_config(Config::SeeJrs, 14));

        let mut out = String::new();
        let _ = writeln!(
            out,
            "§5.1 FP validation — predictable dot-product kernel (scale {scale})"
        );
        let _ = writeln!(
            out,
            "  monopath: IPC {:.3}  mispredict {:.2}%  FPAdd util {:.1}%  FPMult util {:.1}%",
            mono.ipc(),
            100.0 * mono.mispredict_rate(),
            100.0 * mono.fu_fp_add.utilization(),
            100.0 * mono.fu_fp_mul.utilization(),
        );
        let _ = writeln!(
            out,
            "  SEE/JRS:  IPC {:.3}  divergences {}  ({:+.2}% vs monopath)",
            see.ipc(),
            see.divergences,
            speedup_pct(see.ipc(), mono.ipc()),
        );
        let _ = writeln!(
            out,
            "\npaper expectation: a small non-negative effect on highly\n\
             predictable code (its vortex datapoint was +4%)."
        );
        Rendered::text(out)
    }
}

// ---------------------------------------------------------------------
// Workload profiles (no sweep grid — drives the functional emulator)
// ---------------------------------------------------------------------

/// Per-workload hot-loop profiles from the functional emulator.
pub struct WorkloadProfileExp {
    /// `Some(name)`: annotated listing for one workload; `None`:
    /// summary table of all of them.
    pub target: Option<Workload>,
}

impl Experiment for WorkloadProfileExp {
    fn name(&self) -> &'static str {
        "workload_profile"
    }
    fn description(&self) -> &'static str {
        "per-workload hot-loop profiles from the functional emulator (uncached)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        Vec::new()
    }
    fn render(&self, _: &[CellResult]) -> Rendered {
        let mut out = String::new();
        match self.target {
            Some(w) => {
                let scale = (w.default_scale() / 10).max(4);
                let program = w.build(scale);
                let mut emu = pp_func::Emulator::new(&program);
                let (summary, profile) = emu.run_profiled(1_000_000_000).expect("workload halts");
                let _ = writeln!(
                    out,
                    "{w} at scale {scale}: {} instructions, {} branches\n",
                    summary.instructions, summary.cond_branches
                );
                let _ = writeln!(out, "{}", profile.annotate(&program));
            }
            None => {
                let mut t = Table::new([
                    "workload",
                    "static instrs",
                    "dynamic instrs",
                    "hottest pc",
                    "share %",
                ]);
                for w in Workload::ALL {
                    let scale = (w.default_scale() / 10).max(4);
                    let program = w.build(scale);
                    let mut emu = pp_func::Emulator::new(&program);
                    let (_, profile) = emu.run_profiled(1_000_000_000).expect("halts");
                    let (hot_pc, hot_n) = profile.hottest(1)[0];
                    t.row([
                        w.name().to_string(),
                        program.len().to_string(),
                        profile.total().to_string(),
                        format!("{hot_pc} ({})", program.code[hot_pc]),
                        format!("{:.1}", 100.0 * hot_n as f64 / profile.total() as f64),
                    ]);
                }
                let _ = writeln!(
                    out,
                    "workload profiles (run with a name for the annotated listing)"
                );
                let _ = writeln!(out, "{t}");
            }
        }
        Rendered::text(out)
    }
}

// ---------------------------------------------------------------------
// CPI stall stacks (no sweep grid — needs the opt-in stall accountant)
// ---------------------------------------------------------------------

/// CPI stall stacks: every commit slot of every cycle charged to one
/// named cause, across the workload suite × three execution models.
pub struct StallStackExp;

/// Header for the CPI stall-stack CSV ([`stall_csv_row`]).
fn stall_csv_header() -> String {
    let mut out = String::from("workload,config,cycles,commit_width,committed,commit_slots");
    for c in STALL_CAUSES {
        out.push(',');
        out.push_str(c.name());
    }
    out.push_str(",total_slots,cpi\n");
    out
}

/// One CSV row of a run's stall stack next to its `SimStats` totals.
/// Columns match [`stall_csv_header`]; the conservation invariant is
/// `total_slots == cycles * commit_width`.
fn stall_csv_row(
    workload: &str,
    config: &str,
    commit_width: u64,
    stats: &SimStats,
    st: &StallStack,
) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{workload},{config},{},{commit_width},{},{}",
        stats.cycles, stats.committed_instructions, st.commit_slots,
    );
    for c in STALL_CAUSES {
        let _ = write!(out, ",{}", st.get(c));
    }
    let cpi = if stats.committed_instructions == 0 {
        0.0
    } else {
        stats.cycles as f64 / stats.committed_instructions as f64
    };
    let _ = writeln!(out, ",{},{cpi:.4}", st.total_slots());
    out
}

/// The three execution models the stall stacks compare (the fuzz
/// configurations, minus checking).
const STALL_CONFIGS: [(&str, Config); 3] = [
    ("monopath", Config::Monopath),
    ("see_jrs", Config::SeeJrs),
    ("dual_jrs", Config::DualJrs),
];

impl Experiment for StallStackExp {
    fn name(&self) -> &'static str {
        "stallstack"
    }
    fn description(&self) -> &'static str {
        "CPI stall stacks — per-cycle commit-slot cause accounting across workloads × modes (uncached)"
    }
    fn grid(&self) -> Vec<SweepCell> {
        // The stall counters live outside SimStats (byte-invisible to
        // the golden snapshots), so these runs cannot be cache-served as
        // cells; the sweep happens in render with the accountant on.
        Vec::new()
    }
    fn render(&self, _: &[CellResult]) -> Rendered {
        let mut csv = stall_csv_header();
        let mut t = Table::new([
            "workload",
            "config",
            "cpi",
            "commit%",
            "fetch%",
            "winfull%",
            "operand%",
            "fu%",
            "sbuf%",
            "wrongpath%",
            "squash%",
        ]);
        let (mut ok, mut total) = (0usize, 0usize);
        for &w in &Workload::ALL {
            for (cname, c) in STALL_CONFIGS {
                let cfg = named_config(c, BASELINE_HISTORY_BITS);
                let width = cfg.commit_width as u64;
                let program = w.build(scaled(w));
                let mut sim = Simulator::new(&program, cfg);
                sim.enable_stall_accounting();
                let stats = sim.run();
                let st = *sim.stall_stack().expect("accounting enabled");

                // The conservation law the CI trace job greps for:
                // commits + stall charges account for every slot of
                // every cycle, and commits match SimStats exactly.
                total += 1;
                if st.total_slots() == stats.cycles * width
                    && st.commit_slots == stats.committed_instructions
                {
                    ok += 1;
                } else {
                    eprintln!(
                        "stallstack: CONSERVATION VIOLATED for {}/{cname}: \
                         {} slots charged vs {} offered",
                        w.name(),
                        st.total_slots(),
                        stats.cycles * width
                    );
                }

                csv.push_str(&stall_csv_row(w.name(), cname, width, &stats, &st));
                let pct = |v: u64| format!("{:.1}", 100.0 * v as f64 / st.total_slots() as f64);
                t.row([
                    w.name().to_string(),
                    cname.to_string(),
                    format!(
                        "{:.3}",
                        stats.cycles as f64 / stats.committed_instructions as f64
                    ),
                    pct(st.commit_slots),
                    pct(st.fetch_starved),
                    pct(st.window_full),
                    pct(st.operand_wait),
                    pct(st.fu_structural),
                    pct(st.store_buffer),
                    pct(st.wrong_path),
                    pct(st.squash_recovery),
                ]);
            }
        }

        // One representative causal timeline rides along: compress under
        // SEE/JRS with a pipeview attached (reduced scale; the event cap
        // bounds the artifact anyway).
        let w = Workload::Compress;
        let program = w.build((scaled(w) / 10).max(4));
        let mut sim = Simulator::new(
            &program,
            named_config(Config::SeeJrs, BASELINE_HISTORY_BITS),
        );
        sim.set_observer(Box::new(PipeView::new()));
        sim.run();
        let view = PipeView::from_box(sim.take_observer().expect("attached")).expect("downcasts");
        let trace =
            pp_telemetry::ChromeTrace::from_pipeview(&view, pp_telemetry::DEFAULT_MAX_TRACE_EVENTS);
        let mut trace_json = Vec::new();
        pp_telemetry::write_chrome_trace(&mut trace_json, &trace)
            .expect("a simulated run always produces trace events");

        let mut out = String::new();
        let _ = writeln!(
            out,
            "CPI stall stacks — % of cycles×commit_width slots by cause"
        );
        let _ = writeln!(out, "{t}");
        let _ = writeln!(out, "stall-cause conservation: {ok}/{total} cells OK");
        Rendered::text(out)
            .with_artifact("stallstack.csv", csv)
            .with_artifact(
                "stallstack.trace.json",
                String::from_utf8(trace_json).expect("exporter emits UTF-8"),
            )
    }
}

// ---------------------------------------------------------------------
// Multipath frontier — reconvergence & the confidence frontier
// ---------------------------------------------------------------------

/// The `multipath_frontier` experiment: the 2×2×2 speculation-policy
/// cube — confidence estimator (JRS vs the hard-to-predict classifier)
/// × merge-point prediction (off/on) × fetch arbitration (exponential
/// by age vs depth-weighted variable rate) — on SEE, next to the
/// monopath comparator. Cell labels are built from the canonical
/// [`Policy`] tokens, so table headers, CSV columns, and CLI names can
/// never drift apart.
pub struct MultipathFrontierExp;

/// `(label, config)` for the monopath comparator followed by the eight
/// cube corners, confidence-major, then merge, then fetch policy.
fn frontier_configs() -> Vec<(String, SimConfig)> {
    let base = named_config(Config::SeeJrs, BASELINE_HISTORY_BITS);
    let mut out = vec![(
        Config::Monopath.label().to_string(),
        named_config(Config::Monopath, BASELINE_HISTORY_BITS),
    )];
    let confidences = [
        ConfidenceKind::Jrs(JrsConfig::paper_baseline().with_index_bits(BASELINE_HISTORY_BITS)),
        ConfidenceKind::H2p(H2pConfig::bullseye_default()),
    ];
    for conf in confidences {
        for merge in [None, Some(pp_core::MergeConfig::paper_default())] {
            for fetch in [FetchPolicy::ExponentialByAge, FetchPolicy::VariableRate] {
                let mut cfg = base.clone().with_confidence(conf).with_fetch_policy(fetch);
                if let Some(m) = merge {
                    cfg = cfg.with_merge(m);
                }
                let label = format!(
                    "see/{}/{}{}",
                    conf.name(),
                    fetch.name(),
                    if merge.is_some() { "+merge" } else { "" },
                );
                out.push((label, cfg));
            }
        }
    }
    out
}

/// Index of the SEE/JRS baseline corner in [`frontier_configs`]
/// (exponential fetch, no merge) — the reference every Δ compares to.
const FRONTIER_SEE: usize = 1;
/// Index of the headline merge corner (SEE/JRS + merge, exponential).
const FRONTIER_MERGE: usize = 3;

impl Experiment for MultipathFrontierExp {
    fn name(&self) -> &'static str {
        "multipath_frontier"
    }
    fn description(&self) -> &'static str {
        "reconvergence & the confidence frontier — monopath vs SEE vs SEE+merge over the 2×2×2 policy cube"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let configs: Vec<SimConfig> = frontier_configs().into_iter().map(|(_, c)| c).collect();
        matrix_grid(&configs)
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let labeled = frontier_configs();
        let n = labeled.len();
        let labels: Vec<&str> = labeled.iter().map(|(l, _)| l.as_str()).collect();
        let ipc = |wi: usize, ci: usize| results[wi * n + ci].stats.ipc();
        let hmeans = hmeans_of(results, n);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "multipath_frontier — reconvergence & the confidence frontier"
        );
        let _ = writeln!(
            out,
            "(+merge parks the second arm at the predicted reconvergence PC\n\
             so the shared suffix is fetched once, not twice)\n"
        );

        // Headline: the paper machine, with and without path merging.
        let mut t = Table::new([
            "benchmark".to_string(),
            labels[0].to_string(),
            labels[FRONTIER_SEE].to_string(),
            labels[FRONTIER_MERGE].to_string(),
            "merge Δ%".to_string(),
        ]);
        for (wi, w) in Workload::ALL.iter().enumerate() {
            let (see, merged) = (ipc(wi, FRONTIER_SEE), ipc(wi, FRONTIER_MERGE));
            t.row([
                w.name().to_string(),
                format!("{:.3}", ipc(wi, 0)),
                format!("{see:.3}"),
                format!("{merged:.3}"),
                format!("{:+.1}", 100.0 * (merged / see - 1.0)),
            ]);
        }
        t.row([
            "hmean".to_string(),
            format!("{:.3}", hmeans[0]),
            format!("{:.3}", hmeans[FRONTIER_SEE]),
            format!("{:.3}", hmeans[FRONTIER_MERGE]),
            format!(
                "{:+.1}",
                100.0 * (hmeans[FRONTIER_MERGE] / hmeans[FRONTIER_SEE] - 1.0)
            ),
        ]);
        let _ = writeln!(out, "{t}");

        // The full cube, hmean IPC per corner, Δ vs the SEE/JRS corner.
        let _ = writeln!(out, "policy cube (hmean IPC over all workloads):");
        let mut t = Table::new(["configuration", "hmean IPC", "Δ% vs see/jrs"]);
        for (ci, label) in labels.iter().enumerate() {
            t.row([
                (*label).to_string(),
                format!("{:.3}", hmeans[ci]),
                if ci == FRONTIER_SEE {
                    "—".to_string()
                } else {
                    format!("{:+.1}", 100.0 * (hmeans[ci] / hmeans[FRONTIER_SEE] - 1.0))
                },
            ]);
        }
        let _ = writeln!(out, "{t}");

        let mut csv = Table::new(
            std::iter::once("benchmark".to_string()).chain(labels.iter().map(|l| (*l).to_string())),
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            csv.row(
                std::iter::once(w.name().to_string())
                    .chain((0..n).map(|ci| format!("{:.4}", ipc(wi, ci)))),
            );
        }
        csv.row(
            std::iter::once("hmean".to_string()).chain(hmeans.iter().map(|v| format!("{v:.4}"))),
        );

        Rendered::text(out).with_artifact("multipath_frontier.csv", csv.to_csv())
    }
}

// ---------------------------------------------------------------------
// Merge oracle — exact static reconvergence vs the lexical heuristic
// ---------------------------------------------------------------------

/// The `merge_oracle` experiment: the paper machine (SEE/JRS) without
/// merging, with heuristic-hypothesis merging, and with the exact
/// static-ipdom oracle (`pp-analyze`'s post-dominator pass feeding the
/// merge predictor). Splits PR 9's open question — how much of the
/// merge-mode IPC loss is *mispredicted merge PCs* versus *parking
/// itself* — by construction: heuristic→oracle isolates merge-PC error;
/// oracle→no-merge isolates the cost of parking at the right place.
pub struct MergeOracleExp;

/// `(label, config)` for the no-merge reference and the two hypotheses.
fn oracle_configs() -> Vec<(String, SimConfig)> {
    let base = named_config(Config::SeeJrs, BASELINE_HISTORY_BITS);
    let mut out = vec![(Config::SeeJrs.label().to_string(), base.clone())];
    for h in [
        pp_core::MergeHypothesis::Heuristic,
        pp_core::MergeHypothesis::StaticIpdom,
    ] {
        let mc = pp_core::MergeConfig {
            hypothesis: h,
            ..pp_core::MergeConfig::paper_default()
        };
        out.push((format!("merge/{}", h.name()), base.clone().with_merge(mc)));
    }
    out
}

impl Experiment for MergeOracleExp {
    fn name(&self) -> &'static str {
        "merge_oracle"
    }
    fn description(&self) -> &'static str {
        "exact static-ipdom reconvergence oracle vs the lexical merge hypothesis — attributing the merge-mode IPC gap"
    }
    fn grid(&self) -> Vec<SweepCell> {
        let configs: Vec<SimConfig> = oracle_configs().into_iter().map(|(_, c)| c).collect();
        matrix_grid(&configs)
    }
    fn render(&self, results: &[CellResult]) -> Rendered {
        let labeled = oracle_configs();
        let n = labeled.len();
        let ipc = |wi: usize, ci: usize| results[wi * n + ci].stats.ipc();
        let hmeans = hmeans_of(results, n);

        let mut out = String::new();
        let _ = writeln!(
            out,
            "merge_oracle — exact static reconvergence vs the lexical hypothesis"
        );
        let _ = writeln!(
            out,
            "(merge/heuristic seeds forks with the forward-target/fall-through\n\
             guess refined by the trained table; merge/static_ipdom seeds the\n\
             exact immediate post-dominator from pp-analyze and abstains where\n\
             none exists)\n"
        );

        // Static ground truth: how often the lexical hypothesis equals
        // the immediate post-dominator, per workload CFG. Computed
        // directly (scale-invariant, so build(1) suffices).
        let _ = writeln!(
            out,
            "static hypothesis-vs-ipdom agreement (pp-analyze cfg):"
        );
        let mut t = Table::new([
            "benchmark",
            "branches",
            "fwd",
            "back",
            "multi",
            "noipd",
            "agree %",
            "nest",
        ]);
        let mut cfg_csv = String::from(
            "benchmark,blocks,edges,branches,fwd,back,multi,irreducible,no_ipdom,agree_pct,nest\n",
        );
        for &w in &Workload::ALL {
            let s = *pp_analyze::Reconvergence::analyze(&w.build(1)).stats();
            assert_eq!(s.irreducible, 0, "{w}: workloads are vetted reducible");
            t.row([
                w.name().to_string(),
                s.cond_branches.to_string(),
                s.forward_hammock.to_string(),
                s.backward_loop.to_string(),
                s.multi_exit.to_string(),
                s.no_ipdom.to_string(),
                format!("{:.1}", s.agreement_percent()),
                s.max_fork_nesting.to_string(),
            ]);
            let _ = writeln!(
                cfg_csv,
                "{},{},{},{},{},{},{},{},{},{:.1},{}",
                w.name(),
                s.blocks,
                s.edges,
                s.cond_branches,
                s.forward_hammock,
                s.backward_loop,
                s.multi_exit,
                s.irreducible,
                s.no_ipdom,
                s.agreement_percent(),
                s.max_fork_nesting
            );
        }
        let _ = writeln!(out, "{t}");

        // IPC attribution: heuristic→oracle is merge-PC error;
        // oracle→no-merge is the residual cost of parking itself.
        let _ = writeln!(out, "IPC attribution (Δ columns vs {}):", labeled[0].0);
        let mut t = Table::new([
            "benchmark".to_string(),
            labeled[0].0.clone(),
            labeled[1].0.clone(),
            labeled[2].0.clone(),
            "heur Δ%".to_string(),
            "ipdom Δ%".to_string(),
            "PC-error Δ%".to_string(),
        ]);
        let mut row = |name: String, see: f64, heur: f64, oracle: f64| {
            t.row([
                name,
                format!("{see:.3}"),
                format!("{heur:.3}"),
                format!("{oracle:.3}"),
                format!("{:+.1}", 100.0 * (heur / see - 1.0)),
                format!("{:+.1}", 100.0 * (oracle / see - 1.0)),
                format!("{:+.1}", 100.0 * (oracle / heur - 1.0)),
            ]);
        };
        for (wi, w) in Workload::ALL.iter().enumerate() {
            row(w.name().to_string(), ipc(wi, 0), ipc(wi, 1), ipc(wi, 2));
        }
        row("hmean".to_string(), hmeans[0], hmeans[1], hmeans[2]);
        let _ = writeln!(out, "{t}");

        // Park-confirmation telemetry for both hypotheses (uncached:
        // `Simulator::merge_stats` lives outside the golden bytes).
        let _ = writeln!(out, "merge telemetry (both hypotheses; uncached):");
        let mut t = Table::new([
            "benchmark",
            "hypothesis",
            "forks",
            "pred hits",
            "parks",
            "park %",
            "resumes",
            "unmerged",
            "seedless",
        ]);
        let mut telemetry_csv =
            String::from("benchmark,hypothesis,forks,pred_hits,parks,resumes,unmerged,seedless\n");
        for &w in &Workload::ALL {
            let program = w.build(scaled(w));
            for (label, cfg) in &labeled[1..] {
                let mut sim = Simulator::new(&program, cfg.clone());
                let stats = sim.run();
                assert!(!stats.hit_cycle_limit, "{w} hit the cycle limit");
                let ms = *sim.merge_stats();
                t.row([
                    w.name().to_string(),
                    label.clone(),
                    ms.forks_tracked.to_string(),
                    ms.predictor_hits.to_string(),
                    ms.parks.to_string(),
                    format!(
                        "{:.1}",
                        100.0 * ms.parks as f64 / ms.forks_tracked.max(1) as f64
                    ),
                    ms.resumes.to_string(),
                    ms.unmerged_resolutions.to_string(),
                    ms.seedless_forks.to_string(),
                ]);
                let _ = writeln!(
                    telemetry_csv,
                    "{},{},{},{},{},{},{},{}",
                    w.name(),
                    label,
                    ms.forks_tracked,
                    ms.predictor_hits,
                    ms.parks,
                    ms.resumes,
                    ms.unmerged_resolutions,
                    ms.seedless_forks
                );
            }
        }
        let _ = writeln!(out, "{t}");

        let mut csv = Table::new(
            std::iter::once("benchmark".to_string()).chain(labeled.iter().map(|(l, _)| l.clone())),
        );
        for (wi, w) in Workload::ALL.iter().enumerate() {
            csv.row(
                std::iter::once(w.name().to_string())
                    .chain((0..n).map(|ci| format!("{:.4}", ipc(wi, ci)))),
            );
        }
        csv.row(
            std::iter::once("hmean".to_string()).chain(hmeans.iter().map(|v| format!("{v:.4}"))),
        );

        Rendered::text(out)
            .with_artifact("merge_oracle.csv", csv.to_csv())
            .with_artifact("merge_oracle_telemetry.csv", telemetry_csv)
            .with_artifact("merge_oracle_cfg.csv", cfg_csv)
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// Every registered experiment, in `run all` order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(Table1Exp),
        Box::new(Fig8Exp),
        Box::new(Sec51Exp),
        Box::new(Sec52Exp),
        Box::new(Fig9Exp),
        Box::new(Fig10Exp),
        Box::new(Fig11Exp),
        Box::new(Fig12Exp),
        Box::new(AblationsExp),
        Box::new(InputSensitivityExp),
        Box::new(CalibrateExp),
        Box::new(FpValidationExp),
        Box::new(StallStackExp),
        Box::new(MultipathFrontierExp),
        Box::new(MergeOracleExp),
        Box::new(WorkloadProfileExp { target: None }),
    ]
}

/// Look up an experiment by registry name.
pub fn find(name: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.name() == name)
}

/// The registered names, for `sweep list` and error messages.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name()).collect()
}

/// The experiments the command-line names in `requested` select: the
/// whole registry for a lone `all`, else each name in order. Every name
/// is checked before anything runs; `Err` is a usage message.
pub fn select(requested: &[String]) -> Result<Vec<Box<dyn Experiment>>, String> {
    if requested.iter().any(|n| n == "all") {
        if requested.len() > 1 {
            return Err("`all` cannot be combined with other names".into());
        }
        return Ok(registry());
    }
    requested
        .iter()
        .map(|n| {
            find(n)
                .ok_or_else(|| format!("unknown experiment `{n}`; known: {}", names().join(", ")))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------

/// Build a [`SweepEngine`] from the unified CLI options.
pub fn engine_from(opts: &SweepOpts) -> SweepEngine {
    let mut engine = SweepEngine::new()
        .with_workers(opts.workers)
        .with_progress(!opts.quiet)
        .with_max_cells(opts.max_cells);
    if let Some(dir) = &opts.cache_dir {
        engine = engine.with_cache(dir);
    }
    engine
}

/// The instrumented SEE/JRS re-run that `--telemetry-out` adds to
/// `fig8`, its artifacts named `{prefix}_{workload}.*`.
fn telemetry_pass(prefix: &'static str, opts: &TelemetryOpts) -> Result<(), String> {
    println!("\ntelemetry pass (SEE/JRS, instrumented re-run):");
    let cfg = named_config(Config::SeeJrs, BASELINE_HISTORY_BITS);
    for w in Workload::ALL {
        run_workload_telemetered(w, &cfg, opts, prefix).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Run one experiment through the engine: print its report, write its
/// artifacts, export telemetry. `Err` carries a runtime-failure message
/// (cells failed, artifacts unwritable) for the caller to report.
pub fn run_one(exp: &dyn Experiment, opts: &SweepOpts) -> Result<(), String> {
    match run_experiment(exp, &engine_from(opts)) {
        ExperimentOutcome::Rendered(rendered, report) => {
            print!("{}", rendered.stdout);
            if let Some(dir) = &opts.out_dir {
                let written = rendered.write_artifacts(dir).map_err(|e| {
                    format!(
                        "writing artifacts for {} into {}: {e}",
                        exp.name(),
                        dir.display()
                    )
                })?;
                for p in written {
                    println!("wrote {}", p.display());
                }
            }
            if !opts.quiet {
                eprintln!("[sweep] {}: {}", exp.name(), report.summary());
            }
            if let Some(dir) = &opts.telemetry.out_dir {
                write_metrics(dir, &format!("sweep_{}", exp.name()), &report.registry)?;
                if exp.name() == "fig8" {
                    telemetry_pass("fig8_see_jrs", &opts.telemetry)?;
                }
            }
            Ok(())
        }
        ExperimentOutcome::Incomplete(errors, report) => {
            for e in &errors {
                eprintln!("error: {e}");
            }
            Err(format!(
                "{}: incomplete sweep — {}",
                exp.name(),
                report.summary()
            ))
        }
    }
}

/// Export `registry` as `{dir}/{stem}.metrics.jsonl`, the file `sweep
/// run --telemetry-out` and `sweep serve --telemetry-out` write.
pub fn write_metrics(dir: &Path, stem: &str, registry: &Registry) -> Result<(), String> {
    let path = dir.join(format!("{stem}.metrics.jsonl"));
    std::fs::create_dir_all(dir)
        .and_then(|()| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            pp_telemetry::write_registry_jsonl(&mut f, registry).map(|_| ())
        })
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Run every registered experiment, continuing past failures; `Err`
/// names the experiments that failed.
pub fn run_all(opts: &SweepOpts) -> Result<(), String> {
    let mut failed = Vec::new();
    for exp in registry() {
        println!("== {} — {}", exp.name(), exp.description());
        if let Err(msg) = run_one(exp.as_ref(), opts) {
            eprintln!("error: {msg}");
            failed.push(exp.name());
        }
        println!();
    }
    if failed.is_empty() {
        println!("done.");
        Ok(())
    } else {
        Err(format!(
            "{} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_csv_shape_matches_header() {
        let program = Workload::Compress.build(20);
        let mut sim = Simulator::new(&program, SimConfig::baseline());
        sim.enable_stall_accounting();
        let stats = sim.run();
        let st = *sim.stall_stack().expect("enabled");
        let header = stall_csv_header();
        let row = stall_csv_row("test", "see_jrs", 8, &stats, &st);
        assert_eq!(
            header.trim_end().split(',').count(),
            row.trim_end().split(',').count()
        );
        assert!(row.starts_with("test,see_jrs,"));
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names = names();
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len());
        for n in &names {
            assert_eq!(find(n).unwrap().name(), *n);
        }
        assert!(find("frobnicate").is_none());
    }

    #[test]
    fn crate_doc_lists_every_registered_experiment() {
        let doc = include_str!("lib.rs");
        for n in names() {
            assert!(
                doc.contains(&format!("| `{n}` |")),
                "experiment `{n}` is missing from the table in src/lib.rs"
            );
        }
    }

    #[test]
    fn grid_shapes() {
        assert_eq!(Table1Exp.grid().len(), W);
        assert_eq!(Fig8Exp.grid().len(), W * CONFIG_ORDER.len());
        // fig8/sec51/sec52 share their cells (same fingerprints → the
        // cache runs them once).
        let a = Fig8Exp.grid();
        let b = Sec51Exp.grid();
        assert_eq!(
            a.iter()
                .map(pp_sweep::SweepCell::fingerprint)
                .collect::<Vec<_>>(),
            b.iter()
                .map(pp_sweep::SweepCell::fingerprint)
                .collect::<Vec<_>>()
        );
        assert_eq!(
            Fig9Exp.grid().len(),
            FIG9_BITS.len() * SWEEP_SERIES.len() * W
        );
        // Fig. 10 carries the extra occupancy row.
        assert_eq!(
            Fig10Exp.grid().len(),
            FIG10_WINDOWS.len() * SWEEP_SERIES.len() * W + W
        );
        let per_study: usize = ablation_studies().iter().map(|s| s.len() * W).sum();
        assert_eq!(AblationsExp.grid().len(), per_study);
        assert_eq!(
            InputSensitivityExp.grid().len(),
            W * SENSITIVITY_SEEDS.len() * 2
        );
        assert!(FpValidationExp.grid().is_empty());
        assert!(StallStackExp.grid().is_empty());
        // Monopath + the 2×2×2 policy cube, workload-major.
        assert_eq!(MultipathFrontierExp.grid().len(), 9 * W);
        // No-merge reference + the two merge hypotheses.
        assert_eq!(MergeOracleExp.grid().len(), 3 * W);
    }

    #[test]
    fn oracle_labels_use_canonical_hypothesis_tokens() {
        let labeled = oracle_configs();
        assert_eq!(labeled.len(), 3);
        assert!(labeled[0].1.merge.is_none());
        for (label, cfg) in &labeled[1..] {
            let m = cfg.merge.expect("hypothesis rows carry a merge config");
            // The label embeds the Policy token, which must parse back.
            let token = label.strip_prefix("merge/").expect("merge/ prefix");
            assert_eq!(
                pp_core::MergeHypothesis::from_name(token),
                Some(m.hypothesis)
            );
        }
        // The two hypothesis rows differ only in the hypothesis axis, so
        // the canonical JSON (the cache fingerprint) must still differ.
        assert_ne!(
            labeled[1].1.to_canonical_json(),
            labeled[2].1.to_canonical_json()
        );
    }

    #[test]
    fn frontier_labels_use_canonical_policy_tokens() {
        let labeled = frontier_configs();
        assert_eq!(labeled.len(), 9);
        // Every cube label embeds tokens that parse back through the
        // Policy tables (the satellite round-trip, applied to the sweep
        // registry's own labels).
        for (label, cfg) in &labeled[1..] {
            let conf = ConfidenceKind::from_name(cfg.confidence.name()).expect("token parses");
            assert_eq!(conf.name(), cfg.confidence.name());
            assert!(label.contains(cfg.confidence.name()), "{label}");
            assert!(label.contains(cfg.fetch_policy.name()), "{label}");
            assert_eq!(label.ends_with("+merge"), cfg.merge.is_some(), "{label}");
        }
        assert!(labeled[FRONTIER_SEE].1.merge.is_none());
        assert!(labeled[FRONTIER_MERGE].1.merge.is_some());
        assert_eq!(
            labeled[FRONTIER_SEE].1.confidence.name(),
            labeled[FRONTIER_MERGE].1.confidence.name()
        );
        // The headline merge corner is merge_oracle's merge/heuristic
        // machine, whose render reports that machine's merge telemetry.
        let oracle = oracle_configs();
        assert_eq!(oracle[1].0, "merge/heuristic");
        assert_eq!(
            labeled[FRONTIER_MERGE].1.to_canonical_json(),
            oracle[1].1.to_canonical_json()
        );
    }

    #[test]
    fn input_sensitivity_cells_carry_seeds() {
        let grid = InputSensitivityExp.grid();
        assert_eq!(grid[0].seed, Some(0));
        assert_eq!(grid[2].seed, Some(0x5eed_0001));
        // mono/see pairs share the seed.
        assert_eq!(grid[0].seed, grid[1].seed);
    }
}
