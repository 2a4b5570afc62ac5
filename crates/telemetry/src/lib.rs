//! # pp-telemetry — observability for the PolyPath simulator
//!
//! The simulator's [`pp_core::SimStats`] answers *how much* (IPC,
//! misprediction rate, PVN); this crate answers *which*, *where*, and
//! *when*:
//!
//! * a typed **metrics registry** ([`Registry`]) — counters, gauges, and
//!   log-bucketed [`Histogram`]s behind static names;
//! * **attribution tables** — per-branch-PC divergence outcomes and
//!   confidence truth tables ([`BranchTable`]), per-path lifetime and
//!   kill-depth histograms ([`PathTable`]), and a cycle-sampled
//!   machine-state [`TimeSeries`];
//! * **exporters** — JSON Lines metrics, CSV time series, and a Chrome
//!   trace-event file (load it in `chrome://tracing` or Perfetto) built
//!   from the [`pp_core::PipeEvent`] stream. Every instruction reaches
//!   the trace through one mapping, [`ChromeTrace::lifecycle`], over
//!   its [`pp_core::InstSpan`]: [`TelemetryObserver`] applies it as each
//!   instruction retires (and, at [`TelemetryObserver::seal`], to the
//!   ones still in flight), and [`ChromeTrace::from_pipeview`] applies
//!   it to every span a [`pp_core::PipeView`] kept;
//! * glue for **host-side self-profiling** ([`pp_core::HostProfile`]):
//!   the simulator's own phase timings and simulated-KIPS rate ride
//!   along in the metrics artifact. The same KIPS figure is what the
//!   kernel throughput report (`bench_kernel` → `BENCH_kernel.json`)
//!   aggregates across the `sweep run all` matrix, so cycle-loop
//!   optimizations show up here with no extra wiring (see DESIGN.md
//!   §3c, "Performance methodology").
//!
//! ## Usage
//!
//! Attach a [`TelemetryObserver`], run, detach, write:
//!
//! ```
//! use pp_core::{SimConfig, Simulator};
//! use pp_isa::{reg, Asm};
//! use pp_telemetry::TelemetryObserver;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut a = Asm::new();
//! a.li(reg::T0, 5);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let mut sim = Simulator::new(&program, SimConfig::baseline());
//! sim.set_observer(Box::new(TelemetryObserver::new()));
//! sim.enable_self_profiling();
//! let stats = sim.run();
//!
//! let mut tel = TelemetryObserver::from_box(sim.take_observer().unwrap()).unwrap();
//! tel.seal();
//! assert_eq!(
//!     tel.registry().counters().find(|(n, _)| *n == "committed").unwrap().1,
//!     stats.committed_instructions,
//! );
//! # Ok(())
//! # }
//! ```
//!
//! `write_artifacts` then drops `{name}.metrics.jsonl`,
//! `{name}.timeseries.csv`, and `{name}.trace.json` into a directory —
//! the experiment harness does this under `results/telemetry/` when run
//! with `--telemetry-out`.

mod attribution;
mod export;
mod observer;
mod registry;
mod trace;

pub use attribution::{BranchTable, PathTable, PcStats, TimeSeries};
pub use export::{
    json_escape, json_f64, write_chrome_trace, write_metrics_jsonl, write_registry_jsonl,
    write_timeseries_csv, EmptyExportError,
};
pub use observer::{TelemetryArtifacts, TelemetryConfig, TelemetryObserver};
pub use registry::{CounterId, GaugeId, HistId, Histogram, Registry};
pub use trace::{ChromeTrace, TraceEvent, DEFAULT_MAX_TRACE_EVENTS};
