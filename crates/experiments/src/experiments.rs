//! The paper's tables and figures as data: the machine configuration of
//! every figure point, the grids they form, and the reductions from
//! completed sweep cells to per-figure summaries.
//!
//! Nothing here simulates. The [`crate::suite`] experiments hand these
//! grids to [`pp_sweep::SweepEngine`] and reduce its [`CellResult`]s
//! with [`Fig8::from_results`] and [`sweep_points`]; the integration
//! tests assert the paper's qualitative claims on the same reductions.

use pp_core::{FuConfig, SimConfig, SimStats};
use pp_sweep::{CellResult, SweepCell};
use pp_workloads::Workload;

use crate::configs::{named_config, Config, CONFIG_ORDER};
use crate::harness::{geometric_mean, harmonic_mean, speedup_frac};

/// Baseline gshare history bits (16 k counters).
pub const BASELINE_HISTORY_BITS: u32 = 14;

// ---------------------------------------------------------------------
// Fig. 8 + §5.1 + §5.2
// ---------------------------------------------------------------------

/// The full baseline comparison: per-workload stats for all six named
/// configurations plus harmonic-mean IPCs.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// `cells[workload][config]` in `Workload::ALL` × [`CONFIG_ORDER`]
    /// order.
    pub cells: Vec<Vec<SimStats>>,
    /// Harmonic-mean IPC per configuration, in [`CONFIG_ORDER`] order.
    pub hmean_ipc: Vec<f64>,
}

impl Fig8 {
    /// IPC of one cell.
    pub fn ipc(&self, workload: usize, config: Config) -> f64 {
        self.cells[workload][config_index(config)].ipc()
    }

    /// Harmonic-mean IPC of one configuration.
    pub fn hmean(&self, config: Config) -> f64 {
        self.hmean_ipc[config_index(config)]
    }

    /// Mean relative improvement of `a` over `b`.
    pub fn speedup(&self, a: Config, b: Config) -> f64 {
        self.hmean(a) / self.hmean(b)
    }

    /// Reduce the completed baseline matrix (`Workload::ALL` ×
    /// [`CONFIG_ORDER`], workload-major) to the Fig. 8 analysis.
    pub fn from_results(results: &[CellResult]) -> Fig8 {
        let n = CONFIG_ORDER.len();
        let cells = results
            .chunks(n)
            .map(|row| row.iter().map(|r| r.stats.clone()).collect())
            .collect();
        Fig8 {
            cells,
            hmean_ipc: hmeans_of(results, n),
        }
    }
}

/// Index of a configuration within [`CONFIG_ORDER`].
pub fn config_index(config: Config) -> usize {
    CONFIG_ORDER
        .iter()
        .position(|c| *c == config)
        .expect("config in order")
}

/// `Workload::ALL × configs` as sweep cells, workload-major.
pub(crate) fn matrix_grid(configs: &[SimConfig]) -> Vec<SweepCell> {
    Workload::ALL
        .iter()
        .flat_map(|&w| configs.iter().map(move |c| SweepCell::new(w, c.clone())))
        .collect()
}

/// Per-configuration harmonic-mean IPC over a workload-major slice.
pub(crate) fn hmeans_of(results: &[CellResult], nconfigs: usize) -> Vec<f64> {
    (0..nconfigs)
        .map(|ci| {
            let ipcs: Vec<f64> = (0..results.len() / nconfigs)
                .map(|wi| results[wi * nconfigs + ci].stats.ipc())
                .collect();
            harmonic_mean(&ipcs)
        })
        .collect()
}

// ---------------------------------------------------------------------
// Scalability sweeps (Figs. 9–12)
// ---------------------------------------------------------------------

/// The four series plotted in every scalability figure.
pub const SWEEP_SERIES: [Config; 4] = [
    Config::Oracle,
    Config::Monopath,
    Config::SeeOracle,
    Config::SeeJrs,
];

/// The history-bit points Fig. 9 sweeps.
pub const FIG9_BITS: [u32; 7] = [10, 11, 12, 13, 14, 15, 16];
/// The window sizes Fig. 10 sweeps.
pub const FIG10_WINDOWS: [usize; 5] = [64, 128, 256, 512, 1024];
/// The per-type FU counts Fig. 11 sweeps.
pub const FIG11_FUS: [usize; 4] = [1, 2, 3, 4];
/// The pipeline depths Fig. 12 sweeps.
pub const FIG12_DEPTHS: [usize; 5] = [6, 7, 8, 9, 10];

/// Total predictor state (gshare PHT + JRS table) in bytes at one
/// Fig. 9 point — the paper's equal-area x-axis.
pub fn fig9_state_bytes(history_bits: u32) -> usize {
    // gshare: 2 bits per counter; JRS (the SEE configs): +1 bit per
    // counter. Report the SEE-system total, as the paper plots.
    let counters = 1usize << history_bits;
    counters * 2 / 8 + counters / 8
}

/// The machine configuration of one Fig. 10 point: `series` with a
/// `window`-entry instruction window.
pub fn fig10_config(series: Config, window: usize) -> SimConfig {
    let mut cfg = named_config(series, BASELINE_HISTORY_BITS).with_window_size(window);
    // Deep windows hold more in-flight branches.
    cfg.ctx_positions = pp_ctx::MAX_POSITIONS.min((window / 3).max(16));
    cfg
}

/// The machine configuration of one Fig. 11 point: `series` with `n`
/// functional units of each type.
pub fn fig11_config(series: Config, n: usize) -> SimConfig {
    named_config(series, BASELINE_HISTORY_BITS).with_fus(FuConfig::uniform(n))
}

/// The machine configuration of one Fig. 12 point: `series` at `depth`
/// pipeline stages.
pub fn fig12_config(series: Config, depth: usize) -> SimConfig {
    named_config(series, BASELINE_HISTORY_BITS).with_pipeline_depth(depth)
}

/// One point of a scalability sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The swept parameter's value (history bits, window entries, FU
    /// count, or pipeline stages).
    pub x: u64,
    /// Total predictor state in bytes (Fig. 9's equal-area x-axis);
    /// zero for the other sweeps.
    pub state_bytes: usize,
    /// Harmonic-mean IPC per series, in [`SWEEP_SERIES`] order.
    pub hmean_ipc: Vec<f64>,
    /// Geometric-mean misprediction rate of the monopath run.
    pub mispredict_rate: f64,
}

/// The grid of one scalability figure: for each x-point, the four
/// [`SWEEP_SERIES`] configurations across all workloads.
pub fn sweep_grid(xs: &[u64], make: &dyn Fn(Config, u64) -> SimConfig) -> Vec<SweepCell> {
    xs.iter()
        .flat_map(|&x| {
            let configs: Vec<SimConfig> = SWEEP_SERIES.iter().map(|&c| make(c, x)).collect();
            matrix_grid(&configs)
        })
        .collect()
}

/// Reduce a completed [`sweep_grid`] to one [`SweepPoint`] per x-point
/// (`state_bytes` left zero; Fig. 9 fills it in).
pub fn sweep_points(results: &[CellResult], xs: &[u64]) -> Vec<SweepPoint> {
    let n = SWEEP_SERIES.len();
    let per_point = Workload::ALL.len() * n;
    xs.iter()
        .zip(results.chunks(per_point))
        .map(|(&x, slice)| {
            let mono = 1; // index of Config::Monopath in SWEEP_SERIES
            let rates: Vec<f64> = slice
                .chunks(n)
                .map(|row| row[mono].stats.mispredict_rate().max(1e-6))
                .collect();
            SweepPoint {
                x,
                state_bytes: 0,
                hmean_ipc: hmeans_of(slice, n),
                mispredict_rate: geometric_mean(&rates),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §5.1 analysis
// ---------------------------------------------------------------------

/// Per-workload §5.1 analysis derived from the Fig. 8 data.
#[derive(Debug, Clone)]
pub struct Sec51Row {
    /// Which workload.
    pub workload: Workload,
    /// Monopath fetched/committed ratio (paper mean: 1.86).
    pub mono_fetch_ratio: f64,
    /// JRS PVN on the SEE run (paper: m88ksim ≈ 16%, others > 40%).
    pub pvn: f64,
    /// Relative change in useless instructions, SEE vs. monopath
    /// (paper: −15% mean, +29% for m88ksim).
    pub useless_delta: f64,
    /// IPC improvement of SEE/JRS over monopath.
    pub see_speedup: f64,
}

/// Compute the §5.1 analysis rows from Fig. 8 data.
pub fn sec51(fig8: &Fig8) -> Vec<Sec51Row> {
    let mono = config_index(Config::Monopath);
    let see = config_index(Config::SeeJrs);
    Workload::ALL
        .iter()
        .enumerate()
        .map(|(wi, &w)| {
            let m = &fig8.cells[wi][mono];
            let s = &fig8.cells[wi][see];
            Sec51Row {
                workload: w,
                mono_fetch_ratio: m.fetched_per_committed(),
                pvn: s.pvn(),
                useless_delta: s.useless_instructions() as f64
                    / m.useless_instructions().max(1) as f64
                    - 1.0,
                see_speedup: speedup_frac(s.ipc(), m.ipc()),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// §5.2 analysis
// ---------------------------------------------------------------------

/// The §5.2 dual-path comparison derived from Fig. 8 data.
#[derive(Debug, Clone)]
pub struct Sec52 {
    /// Fraction of oracle-SEE's improvement that oracle-dual-path
    /// achieves (paper: ≈58%).
    pub oracle_dual_fraction: f64,
    /// Fraction of JRS-SEE's improvement that JRS-dual-path achieves
    /// (paper: ≈66%).
    pub jrs_dual_fraction: f64,
    /// Mean live paths under SEE/JRS (paper: ≈2.9).
    pub mean_paths_see: f64,
    /// Fraction of cycles with ≤ 3 live paths under SEE/JRS (paper: ≈75%).
    pub paths_le3_see: f64,
}

/// Compute the §5.2 dual-path analysis from Fig. 8 data.
pub fn sec52(fig8: &Fig8) -> Sec52 {
    let gain = |c: Config| fig8.hmean(c) - fig8.hmean(Config::Monopath);
    let frac = |dual: Config, see: Config| {
        let g = gain(see);
        if g.abs() < 1e-9 {
            0.0
        } else {
            gain(dual) / g
        }
    };
    let see = config_index(Config::SeeJrs);
    let mean_paths: Vec<f64> = fig8
        .cells
        .iter()
        .map(|row| row[see].mean_active_paths())
        .collect();
    let le3: Vec<f64> = fig8
        .cells
        .iter()
        .map(|row| row[see].paths_at_most(3))
        .collect();
    Sec52 {
        oracle_dual_fraction: frac(Config::DualOracle, Config::SeeOracle),
        jrs_dual_fraction: frac(Config::DualJrs, Config::SeeJrs),
        mean_paths_see: mean_paths.iter().sum::<f64>() / mean_paths.len() as f64,
        paths_le3_see: le3.iter().sum::<f64>() / le3.len() as f64,
    }
}
