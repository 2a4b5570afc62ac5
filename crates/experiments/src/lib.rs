//! # pp-experiments — the paper's evaluation, regenerated
//!
//! One [`pp_sweep::Experiment`] per table/figure of the evaluation section
//! of *Selective Eager Execution on the PolyPath Architecture* (ISCA
//! 1998), plus the shared machinery: the six named machine
//! configurations of Fig. 8, the `pp-sweep`-backed experiment registry
//! (cached, parallel, typed per-cell failures — see DESIGN.md
//! §3e), harmonic means, and text-table formatting.
//!
//! The front door is the `sweep` binary: `sweep list`, `sweep run
//! fig9`, `sweep run all`, `sweep profile [WORKLOAD]`, and the
//! distributed `sweep serve` / `sweep work` pair. `run` and `profile`
//! take the sweep flags (`--workers`, `--out-dir`, `--cache-dir`,
//! `--no-cache`, `--max-cells`, `--quiet`, `--telemetry-out`,
//! `--telemetry-sample-every`); [`cli`] parses every command's flags.
//!
//! Experiments (`cargo run --release -p pp-experiments --bin sweep --
//! run <name>`):
//!
//! | name | regenerates |
//! |------|-------------|
//! | `table1` | Table 1 — benchmark characteristics |
//! | `fig8` | Fig. 8 — baseline IPC, all six configurations |
//! | `sec51` | §5.1 — fetch ratios, useless instructions, PVN |
//! | `sec52` | §5.2 — dual-path fractions, path utilization |
//! | `fig9` | Fig. 9 — IPC vs. predictor state |
//! | `fig10` | Fig. 10 — IPC vs. window size |
//! | `fig11` | Fig. 11 — IPC vs. functional unit count |
//! | `fig12` | Fig. 12 — IPC vs. pipeline depth |
//! | `ablations` | five extension studies (fetch policy, resolution timing, adaptive confidence, predictors, cache) |
//! | `input_sensitivity` | Fig. 8 headline across three input data sets |
//! | `calibrate` | workload calibration table |
//! | `fp_validation` | §5.1 FP remark — SEE on a perfectly predictable FP kernel |
//! | `stallstack` | CPI stall stacks — per-cycle commit-slot causes across workloads × modes |
//! | `multipath_frontier` | monopath vs. SEE vs. SEE+merge over the 2×2×2 policy cube |
//! | `merge_oracle` | static-ipdom reconvergence oracle vs. the lexical merge hypothesis |
//! | `workload_profile` | per-workload hot-loop profiles |
//! | `all` | every registered experiment, written as text + CSV |
//!
//! `sweep profile` additionally prints one workload's annotated listing
//! (`sweep profile go`).
//!
//! Every binary honours `PP_SCALE` (a float multiplier on workload scale,
//! default 1.0) so quick runs and full runs use the same code path.

mod configs;
mod harness;
mod plot;
mod table;

pub mod cli;
pub mod experiments;
pub mod suite;

pub use configs::{named_config, Config, CONFIG_ORDER};
pub use harness::{
    geometric_mean, harmonic_mean, run_workload_telemetered, speedup_frac, speedup_pct,
    TelemetryOpts, TelemetryWriteError,
};
pub use plot::Chart;
pub use table::Table;
