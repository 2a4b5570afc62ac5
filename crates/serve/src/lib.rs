//! # pp-serve — the distributed sweep fabric
//!
//! Serves the experiment registry's sweep grids to remote worker
//! processes over a line-framed TCP/JSONL protocol, with the
//! content-addressed [`pp_sweep::ResultStore`] as the shared result
//! store. Zero dependencies beyond `std::net`.
//!
//! ```text
//!            hello/lease/result/progress/bye
//!  pp-work ───────────────────────────────────→ pp-serve
//!  (thin loop over          TCP/JSONL           (lease table,
//!   SweepCell::run)                              admission,
//!                                                ResultStore)
//! ```
//!
//! The design leans on a property the sweep layer already guarantees:
//! cells are **content-addressed and idempotent**. A cell's
//! fingerprint covers workload, seed, scale, behavior revision, and
//! the canonical config JSON, so the server never ships
//! configurations — both ends rebuild the grid from the registry and
//! prove agreement with one `grid_sig` equality in the handshake.
//! Losing a worker, double-executing a cell, or crashing the daemon
//! mid-run are all absorbed by the store: re-running converges on the
//! same bytes.
//!
//! Module boundaries (wire format / session / runtime kept strictly
//! apart, after Registir's `sailar_get`/`sailar_load` split):
//!
//! * [`wire`] — frame grammar only; pure data, unit-testable without a
//!   socket.
//! * [`runtime`] — lease table, admission/backpressure, completion
//!   accounting, telemetry; every deadline method takes an explicit
//!   `now`.
//! * `session` (private) — one connection's read→dispatch→reply loop
//!   and the handshake.
//! * [`daemon`] — bind/accept/reap lifecycle around the above.
//! * [`worker`] — the client side: grid reconstruction, verification,
//!   and the lease→run→result loop over [`pp_sweep::SweepCell::run`].
//!
//! Protocol specification: DESIGN.md §3h.

// Exempt from the determinism rule (L3): leases, reaping and timeouts
// run on host time; cells are content-addressed, so results never see it.
#![allow(clippy::disallowed_methods, reason = "exempt: leases run on host time")]

pub mod daemon;
pub mod runtime;
mod session;
pub mod wire;
pub mod worker;

pub use daemon::{ServeSummary, Server, ShutdownHandle};
pub use runtime::{
    grid_signature, AdmitOutcome, ClientId, LeaseOutcome, ResultError, Runtime, ServeConfig,
    Snapshot,
};
pub use wire::{Reply, Request, WireError, WorkStatus, MAX_LINE_BYTES, PROTO_VERSION};
pub use worker::{run_worker, WorkerConfig, WorkerError, WorkerReport};
