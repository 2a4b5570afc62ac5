//! # pp-sweep — resumable evaluation sweeps
//!
//! The paper's evaluation is one big grid: workloads × configurations,
//! swept along predictor size, window size, FU mix, and pipeline depth.
//! This crate turns "run the grid" into an engine with three properties
//! the bare thread fan-out never had:
//!
//! * **Resumability.** Every cell — `(workload, seed, scale, SimConfig)`
//!   — is fingerprinted ([`SweepCell::fingerprint`]) and its completed
//!   [`SimStats`] persisted to a content-addressed on-disk store
//!   ([`ResultStore`], default `results/cache/`). Re-runs and resumed runs skip finished cells and
//!   hand back *byte-identical* merged output, because
//!   [`pp_core::SimStats::from_json`] is the exact inverse of `to_json`.
//! * **Fault isolation.** Each cell catches its own panic
//!   ([`SweepCell::run`], through [`pp_core::run_with_flight_dump`]) and
//!   [`SweepEngine::run`] records it, once, as a typed [`CellError`]
//!   naming the (workload, config) pair and carrying the flight-recorder
//!   dump — the rest of the grid keeps running on an ordered parallel
//!   map instead of dying with the failing cell.
//! * **Observability.** Progress (cells done / cached / failed, ETA,
//!   per-cell KIPS) streams through a [`pp_telemetry::Registry`] and an
//!   optional stderr progress line ([`SweepEngine::with_progress`]).
//!
//! On top of the engine sits the [`Experiment`] trait: a named grid plus
//! a pure render step, which is how the `pp-experiments` binaries expose
//! every table and figure through one `sweep` CLI.
//!
//! [`SimStats`]: pp_core::SimStats
//! [`CellError`]: error::CellError
//! [`Experiment`]: experiment::Experiment

// Exempt from the determinism rule (L3): the driver reads `PP_SCALE`
// (part of every cell's fingerprint) and times cells with the host clock
// for progress and self-measurement; neither reaches `SimStats`.
#![allow(clippy::disallowed_methods, reason = "exempt: timing and PP_SCALE")]

mod cell;
mod engine;
mod error;
mod experiment;
mod fingerprint;
mod scheduler;
mod store;

pub use cell::{scale_factor, scaled, CellResult, SweepCell};
pub use engine::{SweepEngine, SweepReport, DEFAULT_CACHE_DIR};
pub use error::{CellError, CellErrorKind};
pub use experiment::{run_experiment, Experiment, ExperimentOutcome, Rendered};
pub use fingerprint::{fingerprint_hex, fnv1a64};
pub use store::ResultStore;
