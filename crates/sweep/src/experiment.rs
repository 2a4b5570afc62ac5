//! The `Experiment` trait: a named sweep grid plus a pure render step.
//!
//! Every table and figure in the evaluation is an `Experiment`: it
//! declares its grid of [`SweepCell`]s, the engine runs (or cache-serves)
//! them, and `render` turns completed results into stdout text and named
//! artifact files. Because `render` is pure — results in, strings out —
//! a fully-cached rerun reproduces its output byte for byte.

use std::io;
use std::path::Path;

use crate::cell::{CellResult, SweepCell};
use crate::engine::{SweepEngine, SweepReport};
use crate::error::CellError;

/// A named, renderable sweep.
pub trait Experiment: Sync {
    /// Registry key and CLI subcommand argument (e.g. `"fig9"`).
    fn name(&self) -> &'static str;

    /// One-line description for `sweep list`.
    fn description(&self) -> &'static str;

    /// The sweep grid. An experiment that does not map onto
    /// (workload, config) cells — e.g. one that drives the reference
    /// emulator directly — returns an empty grid and does its work in
    /// [`Self::render`]; such experiments are not cached.
    fn grid(&self) -> Vec<SweepCell>;

    /// Turn completed cells (grid order, one per grid entry) into
    /// output. Only called when **every** grid cell completed, so
    /// renderers can index `results` positionally without checking.
    fn render(&self, results: &[CellResult]) -> Rendered;
}

/// What an experiment produced.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Rendered {
    /// Human-readable report for stdout.
    pub stdout: String,
    /// Artifact files as `(relative file name, contents)` — CSVs for
    /// figures, JSON for calibration dumps.
    pub artifacts: Vec<(String, String)>,
}

impl Rendered {
    /// Just stdout text, no artifacts.
    pub fn text(stdout: impl Into<String>) -> Self {
        Rendered {
            stdout: stdout.into(),
            artifacts: Vec::new(),
        }
    }

    /// Add an artifact file.
    #[must_use]
    pub fn with_artifact(mut self, name: impl Into<String>, contents: impl Into<String>) -> Self {
        self.artifacts.push((name.into(), contents.into()));
        self
    }

    /// Write every artifact under `out_dir` (created if needed),
    /// returning the written paths.
    pub fn write_artifacts(&self, out_dir: &Path) -> io::Result<Vec<std::path::PathBuf>> {
        let mut written = Vec::with_capacity(self.artifacts.len());
        if !self.artifacts.is_empty() {
            std::fs::create_dir_all(out_dir)?;
        }
        for (name, contents) in &self.artifacts {
            let path = out_dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
        }
        Ok(written)
    }
}

/// Outcome of driving one experiment through the engine.
#[derive(Debug)]
pub enum ExperimentOutcome {
    /// Every cell completed; the rendered output plus the run report
    /// (for cache/telemetry accounting).
    Rendered(Rendered, SweepReport),
    /// One or more cells failed or were skipped; rendering was not
    /// attempted. The report still holds every completed cell.
    Incomplete(Vec<CellError>, SweepReport),
}

/// Run `experiment` through `engine`: sweep its grid, and render iff
/// every cell completed.
pub fn run_experiment(experiment: &dyn Experiment, engine: &SweepEngine) -> ExperimentOutcome {
    let grid = experiment.grid();
    let report = engine.run(&grid);
    if report.all_completed() {
        let results = report.completed_owned();
        ExperimentOutcome::Rendered(experiment.render(&results), report)
    } else {
        ExperimentOutcome::Incomplete(report.errors.clone(), report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::SimConfig;
    use pp_workloads::Workload;

    struct Doubler;

    impl Experiment for Doubler {
        fn name(&self) -> &'static str {
            "doubler"
        }
        fn description(&self) -> &'static str {
            "test experiment"
        }
        fn grid(&self) -> Vec<SweepCell> {
            vec![SweepCell {
                workload: Workload::Compress,
                seed: None,
                scale: 40,
                config: SimConfig::baseline(),
            }]
        }
        fn render(&self, results: &[CellResult]) -> Rendered {
            Rendered::text(format!("cycles={}", results[0].stats.cycles))
                .with_artifact("doubler.csv", "a,b\n1,2\n")
        }
    }

    #[test]
    fn run_experiment_renders_on_success() {
        match run_experiment(&Doubler, &SweepEngine::new().with_workers(1)) {
            ExperimentOutcome::Rendered(r, report) => {
                assert!(r.stdout.starts_with("cycles="));
                assert_eq!(r.artifacts.len(), 1);
                assert!(report.all_completed());
            }
            ExperimentOutcome::Incomplete(errors, _) => panic!("unexpected failure: {errors:?}"),
        }
    }

    #[test]
    fn run_experiment_reports_failures_instead_of_rendering() {
        struct Broken;
        impl Experiment for Broken {
            fn name(&self) -> &'static str {
                "broken"
            }
            fn description(&self) -> &'static str {
                "always hits the cycle limit"
            }
            fn grid(&self) -> Vec<SweepCell> {
                let mut config = SimConfig::baseline();
                config.max_cycles = 10;
                vec![SweepCell {
                    workload: Workload::Compress,
                    seed: None,
                    scale: 40,
                    config,
                }]
            }
            fn render(&self, _: &[CellResult]) -> Rendered {
                panic!("render must not be called for incomplete sweeps")
            }
        }
        match run_experiment(&Broken, &SweepEngine::new().with_workers(1)) {
            ExperimentOutcome::Rendered(..) => panic!("should not render"),
            ExperimentOutcome::Incomplete(errors, _) => {
                assert_eq!(errors.len(), 1);
                assert!(errors[0].to_string().contains("workload compress"));
            }
        }
    }

    #[test]
    fn artifacts_write_under_out_dir() {
        let dir = pp_testutil::scratch_dir("sweep-artifacts");
        std::fs::remove_dir_all(&dir).ok();
        let r = Rendered::text("hi").with_artifact("x.csv", "1,2\n");
        let written = r.write_artifacts(&dir).unwrap();
        assert_eq!(written.len(), 1);
        assert_eq!(std::fs::read_to_string(&written[0]).unwrap(), "1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
