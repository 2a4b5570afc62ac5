//! The summary statistics every experiment reduces with (harmonic and
//! geometric means, speedups), plus the instrumented single-workload
//! run behind `--telemetry-out`.

use std::path::PathBuf;

use pp_core::{SimConfig, SimStats, Simulator};
use pp_sweep::scaled;
use pp_telemetry::{TelemetryArtifacts, TelemetryConfig, TelemetryObserver};
use pp_workloads::Workload;

/// Harmonic mean — the paper's summary statistic for IPC across
/// benchmarks.
///
/// # Panics
/// Panics if `values` is empty or contains a non-positive value.
pub fn harmonic_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "harmonic mean of nothing");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "harmonic mean requires positive values"
    );
    values.len() as f64 / values.iter().map(|v| 1.0 / v).sum::<f64>()
}

/// Geometric mean — the summary statistic for rates (misprediction,
/// miss rates) across benchmarks.
///
/// # Panics
/// Panics if `values` is empty or contains a non-positive value (clamp
/// zero rates before calling, e.g. with `.max(1e-6)`).
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Relative improvement of `new` over `old` as a fraction
/// (`0.14` = 14% faster; negative = slowdown).
pub fn speedup_frac(new: f64, old: f64) -> f64 {
    new / old - 1.0
}

/// Relative improvement of `new` over `old` in percent — the form the
/// paper quotes ("SEE/JRS ≈ +14%").
pub fn speedup_pct(new: f64, old: f64) -> f64 {
    100.0 * speedup_frac(new, old)
}

// ---------------------------------------------------------------------
// Telemetry plumbing
// ---------------------------------------------------------------------

/// Telemetry options, set by `--telemetry-out <dir>` and
/// `--telemetry-sample-every <n>` (see [`crate::cli::SweepOpts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryOpts {
    /// Artifact directory; telemetry is enabled iff this is set.
    pub out_dir: Option<PathBuf>,
    /// Machine-state sampling interval in cycles.
    pub sample_every: u64,
}

impl Default for TelemetryOpts {
    fn default() -> Self {
        TelemetryOpts {
            out_dir: None,
            sample_every: 64,
        }
    }
}

/// Failure to write a workload's telemetry artifacts: the workload, the
/// target directory, and the underlying I/O error. The experiment
/// binaries report this and exit nonzero — losing an artifact silently
/// (or as a bare panic backtrace) buries the actual filesystem problem.
#[derive(Debug)]
pub struct TelemetryWriteError {
    /// The workload whose artifacts were being written.
    pub workload: Workload,
    /// The output directory that rejected the write.
    pub dir: PathBuf,
    /// The underlying filesystem error.
    pub source: std::io::Error,
}

impl std::fmt::Display for TelemetryWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "writing telemetry artifacts for {} into {}: {}",
            self.workload,
            self.dir.display(),
            self.source
        )
    }
}

impl std::error::Error for TelemetryWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Simulate one workload with a [`TelemetryObserver`] and host
/// self-profiling attached, writing the three artifacts
/// (`{prefix}_{workload}.metrics.jsonl` / `.timeseries.csv` /
/// `.trace.json`) into `opts.out_dir`. A failed write is returned as
/// [`TelemetryWriteError`] naming the workload, not panicked on.
///
/// # Panics
/// Panics if telemetry is not enabled in `opts` or the run hits the
/// cycle limit (both are caller bugs, not environment failures).
pub fn run_workload_telemetered(
    workload: Workload,
    cfg: &SimConfig,
    opts: &TelemetryOpts,
    prefix: &str,
) -> Result<(SimStats, TelemetryArtifacts), TelemetryWriteError> {
    let dir = opts.out_dir.as_deref().expect("telemetry enabled");
    let program = workload.build(scaled(workload));
    let mut sim = Simulator::new(&program, cfg.clone());
    sim.set_observer(Box::new(TelemetryObserver::with_config(TelemetryConfig {
        sample_every: opts.sample_every,
        ..Default::default()
    })));
    sim.enable_self_profiling();
    let stats = sim.run();
    assert!(
        !stats.hit_cycle_limit,
        "{workload} hit the cycle limit under {cfg:?}"
    );
    let host = sim.host_profile().cloned();
    let mut tel = TelemetryObserver::from_box(sim.take_observer().expect("observer attached"))
        .expect("a TelemetryObserver was attached");
    let name = format!("{prefix}_{}", workload.name());
    let arts = tel
        .write_artifacts(dir, &name, &stats, host.as_ref())
        .map_err(|source| TelemetryWriteError {
            workload,
            dir: dir.to_path_buf(),
            source,
        })?;
    if let Some(h) = &host {
        println!(
            "  {workload}: {} host-side, {} divergence sites, artifacts in {}",
            match h.kips() {
                Some(k) => format!("{k:.1} KIPS"),
                None => "KIPS n/a (wall time below timer resolution)".to_string(),
            },
            tel.branches().len(),
            dir.display(),
        );
    }
    Ok((stats, arts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{named_config, Config};

    #[test]
    fn harmonic_mean_basics() {
        assert!((harmonic_mean(&[2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((harmonic_mean(&[1.0, 2.0]) - 4.0 / 3.0).abs() < 1e-12);
        // Harmonic ≤ arithmetic.
        assert!(harmonic_mean(&[1.0, 4.0]) < 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn harmonic_mean_rejects_zero() {
        harmonic_mean(&[1.0, 0.0]);
    }

    #[test]
    fn geometric_mean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
        // Geometric ≤ arithmetic.
        assert!(geometric_mean(&[1.0, 4.0]) < 2.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn speedup_helpers() {
        assert!((speedup_frac(1.14, 1.0) - 0.14).abs() < 1e-12);
        assert!((speedup_pct(1.14, 1.0) - 14.0).abs() < 1e-12);
        assert!(speedup_pct(0.9, 1.0) < 0.0);
    }

    #[test]
    fn telemetered_run_writes_artifacts() {
        std::env::set_var("PP_SCALE", "0.01");
        let dir = pp_testutil::scratch_dir("telemetry-test");
        let opts = TelemetryOpts {
            out_dir: Some(dir.clone()),
            sample_every: 8,
        };
        let cfg = named_config(Config::SeeJrs, 10);
        let (stats, arts) = run_workload_telemetered(Workload::Compress, &cfg, &opts, "test")
            .expect("writable out-dir");
        assert!(stats.committed_instructions > 0);
        for p in [&arts.metrics, &arts.timeseries, &arts.trace] {
            let meta = std::fs::metadata(p).unwrap_or_else(|e| panic!("{p:?}: {e}"));
            assert!(meta.len() > 0, "{p:?} is empty");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_out_dir_is_an_error_naming_the_workload() {
        std::env::set_var("PP_SCALE", "0.01");
        // An out-dir nested *under a regular file* cannot be created on
        // any platform (and regardless of privilege — root ignores
        // permission bits, so a read-only directory wouldn't do).
        let blocker = pp_testutil::scratch_dir("telemetry-blocker");
        std::fs::write(&blocker, b"not a directory").expect("create blocker file");
        let opts = TelemetryOpts {
            out_dir: Some(blocker.join("sub")),
            sample_every: 8,
        };
        let cfg = named_config(Config::SeeJrs, 10);
        let err = run_workload_telemetered(Workload::Compress, &cfg, &opts, "test")
            .expect_err("write into a file's child must fail");
        assert_eq!(err.workload, Workload::Compress);
        let msg = err.to_string();
        assert!(msg.contains("compress"), "{msg}");
        assert!(msg.contains("telemetry artifacts"), "{msg}");
        std::fs::remove_file(&blocker).ok();
    }
}
