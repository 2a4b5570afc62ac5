//! The telemetry sink: a [`PipelineObserver`] that feeds the metrics
//! registry, the attribution tables, the time series, and the Chrome
//! trace from one pass over the event stream, then writes the three
//! artifacts.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use pp_core::{
    CycleSample, HostProfile, InstSpan, KillStage, PipeEvent, PipelineObserver, SimStats,
};

use crate::attribution::{BranchTable, PathTable, TimeSeries};
use crate::export;
use crate::registry::{CounterId, HistId, Registry};
use crate::trace::{op_name, ChromeTrace, DEFAULT_MAX_TRACE_EVENTS};

/// Knobs for [`TelemetryObserver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Keep one machine-state sample every this many cycles.
    pub sample_every: u64,
    /// Cap on Chrome-trace events (excess is dropped and counted).
    pub max_trace_events: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            sample_every: 64,
            max_trace_events: DEFAULT_MAX_TRACE_EVENTS,
        }
    }
}

/// Artifact paths written by [`TelemetryObserver::write_artifacts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryArtifacts {
    /// JSON Lines metrics file.
    pub metrics: PathBuf,
    /// CSV machine-state time series.
    pub timeseries: PathBuf,
    /// Chrome trace-event JSON (load in `chrome://tracing` or Perfetto).
    pub trace: PathBuf,
}

/// One-pass telemetry sink over the pipeline event stream.
pub struct TelemetryObserver {
    registry: Registry,
    branches: BranchTable,
    paths: PathTable,
    series: TimeSeries,
    trace: ChromeTrace,
    /// Spans of the instructions in flight, pruned at commit or kill so
    /// the map stays bounded by the machine's capacity.
    inflight: HashMap<u64, InstSpan>,
    last_cycle: u64,

    c_events: CounterId,
    c_fetched: CounterId,
    c_killed: CounterId,
    c_committed: CounterId,
    c_diverged: CounterId,
    c_resolved: CounterId,
    c_mispredicted: CounterId,
    c_redirects: CounterId,
    c_killed_frontend: CounterId,
    h_commit_latency: HistId,
    h_exec_latency: HistId,
}

impl TelemetryObserver {
    /// Telemetry with default knobs.
    pub fn new() -> Self {
        Self::with_config(TelemetryConfig::default())
    }

    /// Telemetry with explicit knobs.
    pub fn with_config(cfg: TelemetryConfig) -> Self {
        let mut registry = Registry::new();
        let c_events = registry.counter("pipe_events");
        let c_fetched = registry.counter("fetched");
        let c_killed = registry.counter("killed");
        let c_committed = registry.counter("committed");
        let c_diverged = registry.counter("divergences");
        let c_resolved = registry.counter("branch_resolutions");
        let c_mispredicted = registry.counter("mispredict_resolutions");
        let c_redirects = registry.counter("recovery_redirects");
        let c_killed_frontend = registry.counter("killed_in_frontend");
        let h_commit_latency = registry.histogram("fetch_to_commit_cycles");
        let h_exec_latency = registry.histogram("issue_to_complete_cycles");
        TelemetryObserver {
            registry,
            branches: BranchTable::new(),
            paths: PathTable::new(),
            series: TimeSeries::new(cfg.sample_every),
            trace: ChromeTrace::with_capacity(cfg.max_trace_events),
            inflight: HashMap::new(),
            last_cycle: 0,
            c_events,
            c_fetched,
            c_killed,
            c_committed,
            c_diverged,
            c_resolved,
            c_mispredicted,
            c_redirects,
            c_killed_frontend,
            h_commit_latency,
            h_exec_latency,
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Per-branch-PC attribution.
    pub fn branches(&self) -> &BranchTable {
        &self.branches
    }

    /// Per-path attribution (close it via [`Self::seal`] first for
    /// complete histograms).
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// The downsampled machine-state series.
    pub fn series(&self) -> &TimeSeries {
        &self.series
    }

    /// The Chrome trace accumulated so far.
    pub fn trace(&self) -> &ChromeTrace {
        &self.trace
    }

    /// Close still-open path generations and trace the instructions
    /// still in flight (outcome `in-flight`, ending one cycle after the
    /// last event). Call once, after the run; a second call is a no-op.
    pub fn seal(&mut self) {
        self.paths.close_all();
        let mut open: Vec<InstSpan> = self.inflight.drain().map(|(_, s)| s).collect();
        open.sort_unstable_by_key(|s| s.fid);
        for s in &open {
            self.trace.lifecycle(s, self.last_cycle + 1);
        }
    }

    /// An instruction committed or was killed: fold its latencies into
    /// the histograms and its stages into the trace.
    fn retire(&mut self, fid: u64) {
        let Some(s) = self.inflight.remove(&fid) else {
            return;
        };
        if let (Some(i), Some(c)) = (s.issued, s.completed) {
            self.registry.observe(self.h_exec_latency, c - i);
        }
        if let Some(c) = s.committed {
            self.registry.observe(self.h_commit_latency, c - s.fetched);
        }
        self.trace.lifecycle(&s, self.last_cycle + 1);
    }

    /// Seal and write the three artifacts into `dir` as
    /// `{name}.metrics.jsonl`, `{name}.timeseries.csv`, `{name}.trace.json`.
    pub fn write_artifacts(
        &mut self,
        dir: &Path,
        name: &str,
        stats: &SimStats,
        host: Option<&HostProfile>,
    ) -> io::Result<TelemetryArtifacts> {
        self.seal();
        std::fs::create_dir_all(dir)?;
        let out = TelemetryArtifacts {
            metrics: dir.join(format!("{name}.metrics.jsonl")),
            timeseries: dir.join(format!("{name}.timeseries.csv")),
            trace: dir.join(format!("{name}.trace.json")),
        };

        let mut w = io::BufWriter::new(std::fs::File::create(&out.metrics)?);
        export::write_metrics_jsonl(
            &mut w,
            stats,
            host,
            &self.registry,
            &self.branches,
            &self.paths,
        )?;

        let mut w = io::BufWriter::new(std::fs::File::create(&out.timeseries)?);
        export::write_timeseries_csv(&mut w, &self.series)?;

        let mut w = io::BufWriter::new(std::fs::File::create(&out.trace)?);
        export::write_chrome_trace(&mut w, &self.trace)?;
        Ok(out)
    }

    /// Recover a `TelemetryObserver` from
    /// [`pp_core::Simulator::take_observer`]'s type-erased box.
    pub fn from_box(b: Box<dyn PipelineObserver>) -> Option<Box<TelemetryObserver>> {
        b.into_any().downcast().ok()
    }
}

impl Default for TelemetryObserver {
    fn default() -> Self {
        Self::new()
    }
}

impl PipelineObserver for TelemetryObserver {
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }

    fn event(&mut self, ev: &PipeEvent) {
        self.registry.inc(self.c_events, 1);
        self.last_cycle = self.last_cycle.max(ev.cycle());
        if let PipeEvent::Fetched { fid, .. } = *ev {
            self.inflight.insert(fid.0, InstSpan::new(fid));
        }
        if let Some(s) = self.inflight.get_mut(&ev.fid().0) {
            s.apply(ev);
        }
        match *ev {
            PipeEvent::Fetched { cycle, path, .. } => {
                self.registry.inc(self.c_fetched, 1);
                self.paths.record_fetch(path, cycle);
            }
            PipeEvent::Diverged {
                cycle,
                branch,
                taken_path,
                ..
            } => {
                self.registry.inc(self.c_diverged, 1);
                // The taken successor lands in a fresh (possibly reused)
                // slot: close the slot's previous generation, open a new
                // one. The not-taken successor continues its parent slot.
                self.paths.close(taken_path);
                self.paths.touch(taken_path, cycle);
                if let Some(b) = self.inflight.get(&branch.0) {
                    let (tid, pc, op) = (b.path, b.pc, op_name(b));
                    self.branches.record_divergence(pc);
                    self.trace
                        .instant(format!("diverge {op} @{pc}"), "diverge", tid, cycle);
                }
            }
            PipeEvent::Dispatched { .. }
            | PipeEvent::Issued { .. }
            | PipeEvent::Completed { .. } => {}
            PipeEvent::Resolved {
                cycle,
                fid,
                mispredicted,
                diverged,
                conf_low,
            } => {
                self.registry.inc(self.c_resolved, 1);
                if let Some(i) = self.inflight.get(&fid.0) {
                    let (pc, tid, op) = (i.pc, i.path, op_name(i));
                    self.branches
                        .record_resolution(pc, mispredicted, diverged, conf_low);
                    if mispredicted {
                        self.registry.inc(self.c_mispredicted, 1);
                        self.trace.instant(
                            format!("mispredict {op} @{pc}"),
                            "mispredict",
                            tid,
                            cycle,
                        );
                    }
                }
            }
            PipeEvent::Redirected { cycle, branch, pc } => {
                self.registry.inc(self.c_redirects, 1);
                let tid = self.inflight.get(&branch.0).map_or(0, |i| i.path);
                self.trace
                    .instant(format!("redirect → @{pc}"), "redirect", tid, cycle);
            }
            PipeEvent::Killed { cycle, fid, stage } => {
                self.registry.inc(self.c_killed, 1);
                if stage == KillStage::FrontEnd {
                    self.registry.inc(self.c_killed_frontend, 1);
                }
                if let Some(i) = self.inflight.get(&fid.0) {
                    // Attribute the killed work to the path it ran on.
                    self.paths.record_kill_slot(i.path, cycle);
                }
                self.retire(fid.0);
            }
            PipeEvent::Committed { fid, .. } => {
                self.registry.inc(self.c_committed, 1);
                self.retire(fid.0);
            }
        }
    }

    fn sample(&mut self, s: &CycleSample) {
        self.series.offer(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pp_core::FetchId;
    use pp_ctx::PathTable as CtxPathTable;
    use pp_isa::Op;

    fn pid() -> pp_ctx::PathId {
        let mut t: CtxPathTable<()> = CtxPathTable::new(1);
        t.allocate(()).unwrap()
    }

    fn fetched(cycle: u64, fid: u64, pc: usize) -> PipeEvent {
        PipeEvent::Fetched {
            cycle,
            fid: FetchId(fid),
            pc,
            path: pid(),
            op: Op::Nop,
        }
    }

    #[test]
    fn commit_lifecycle_produces_stage_spans() {
        let mut t = TelemetryObserver::new();
        t.event(&fetched(0, 0, 8));
        t.event(&PipeEvent::Dispatched {
            cycle: 3,
            fid: FetchId(0),
            seq: 0,
        });
        t.event(&PipeEvent::Issued {
            cycle: 4,
            fid: FetchId(0),
        });
        t.event(&PipeEvent::Completed {
            cycle: 6,
            fid: FetchId(0),
        });
        t.event(&PipeEvent::Committed {
            cycle: 9,
            fid: FetchId(0),
        });
        let cats: Vec<_> = t.trace().events().iter().map(|e| e.cat).collect();
        assert_eq!(cats, vec!["fetch", "window", "exec", "retire-wait"]);
        assert_eq!(t.registry().hist(t.h_commit_latency).max(), 9);
        assert_eq!(t.registry().hist(t.h_exec_latency).max(), 2);
        assert_eq!(t.registry().counter_value(t.c_committed), 1);
        // Pruned: the map does not grow with the run.
        assert!(t.inflight.is_empty());
    }

    #[test]
    fn kill_before_dispatch_emits_instant() {
        let mut t = TelemetryObserver::new();
        t.event(&fetched(0, 7, 16));
        t.event(&PipeEvent::Killed {
            cycle: 2,
            fid: FetchId(7),
            stage: KillStage::FrontEnd,
        });
        assert_eq!(t.registry().counter_value(t.c_killed_frontend), 1);
        assert!(t
            .trace()
            .events()
            .iter()
            .any(|e| e.ph == 'i' && e.cat == "kill"));
        assert!(t.inflight.is_empty());
    }

    #[test]
    fn resolution_feeds_branch_table() {
        let mut t = TelemetryObserver::new();
        t.event(&fetched(0, 1, 40));
        t.event(&PipeEvent::Resolved {
            cycle: 5,
            fid: FetchId(1),
            mispredicted: true,
            diverged: true,
            conf_low: true,
        });
        let s = t.branches().get(40).unwrap();
        assert_eq!(s.diverged, 1);
        assert_eq!(s.low_incorrect, 1);
        assert_eq!(t.registry().counter_value(t.c_mispredicted), 1);
    }

    #[test]
    fn downcast_roundtrip() {
        let b: Box<dyn PipelineObserver> = Box::new(TelemetryObserver::new());
        assert!(TelemetryObserver::from_box(b).is_some());
        let other: Box<dyn PipelineObserver> = Box::new(pp_core::TraceLog::new());
        assert!(TelemetryObserver::from_box(other).is_none());
    }
}
