//! # pp-core — the PolyPath architecture simulator
//!
//! A cycle-level, execution-driven simulator of the PolyPath
//! micro-architecture from Klauser, Paithankar & Grunwald, *Selective
//! Eager Execution on the PolyPath Architecture* (ISCA 1998): an 8-way
//! superscalar, out-of-order, in-order-commit processor extended with
//!
//! * **context tags** on every in-flight instruction (via [`pp_ctx`]),
//! * a **multi-path front-end** whose fetch bandwidth is arbitrated across
//!   live paths with exponentially decaying priority,
//! * **per-path register maps** with checkpoint-based misprediction
//!   recovery,
//! * a **CTX-filtered store buffer**, and
//! * a **confidence estimator** (via [`pp_predictor`]) that decides, per
//!   branch, between normal speculation and eager execution of both
//!   successor paths.
//!
//! Three execution models are selectable ([`ExecMode`]): the paper's
//! `Monopath` baseline, full `See` (Selective Eager Execution), and
//! `DualPath` (at most one divergence, §5.2).
//!
//! ## How a cycle works
//!
//! Stages run in reverse pipeline order each cycle, so results move
//! forward exactly one stage per cycle:
//!
//! 1. **Commit** retires up to `commit_width` completed entries from the
//!    window head; branch commits broadcast their history-position
//!    invalidation to every CTX tag in the machine and free the position.
//! 2. **Writeback + resolution**: completed instructions write the
//!    physical register file; resolving branches compare outcome against
//!    prediction. A mispredicted (non-divergent) branch kills every
//!    descendant of its wrong-path tag — window entries, front-end
//!    latches, store-buffer entries, and whole paths — then restores its
//!    checkpoint (RegMap, RAS, GHR, oracle cursor) into a fresh recovery
//!    path. A divergent branch just kills the wrong subtree; the
//!    surviving path never stalls.
//! 3. **Issue** scans the window oldest-first for operand-ready entries,
//!    arbitrates functional units (21164 mapping: IntType0 owns
//!    multiply/divide, IntType1 owns branches), checks loads against the
//!    CTX-filtered store buffer, and *executes with real values* — wrong
//!    paths compute with whatever garbage their dataflow produced.
//! 4. **Rename/dispatch** pulls fetched instructions from the front-end
//!    FIFO after `frontend_latency` cycles, renames through the owning
//!    path's RegMap, checkpoints at branches, and copies the map to the
//!    taken successor at divergences (§3.2.5's two copies).
//! 5. **Fetch** arbitrates `fetch_width` slots over live paths
//!    (exponentially decaying by path age), follows jumps and predicted
//!    branches through multiple basic blocks per cycle, consults the
//!    confidence estimator, and on a diffident branch splits the path in
//!    two.
//!
//! Attach a [`PipeView`] observer to watch all of this happen per
//! instruction (`examples/pipeline_trace.rs`): it keeps one [`InstSpan`]
//! lifecycle record per fetched instruction. Every instrument that looks
//! at whole cycles — observers, the stall stack, the flight recorder —
//! reads the same end-of-cycle [`CycleSample`].
//!
//! ## Quickstart
//!
//! ```
//! use pp_core::{ExecMode, SimConfig, Simulator};
//! use pp_isa::{Asm, Cond, Operand, reg};
//!
//! # fn main() -> Result<(), pp_isa::AsmError> {
//! // A loop with a data-dependent exit.
//! let mut a = Asm::new();
//! a.li(reg::T0, 0);
//! let top = a.here();
//! a.addi(reg::T0, reg::T0, 1);
//! a.br(Cond::Lt, reg::T0, Operand::imm(100), top);
//! a.halt();
//! let program = a.assemble()?;
//!
//! let cfg = SimConfig::baseline().with_mode(ExecMode::See);
//! let stats = Simulator::new(&program, cfg).run();
//! assert_eq!(stats.committed_instructions, 202);
//! println!("IPC = {:.2}", stats.ipc());
//! # Ok(())
//! # }
//! ```

mod cache;
mod check;
mod config;
mod flight;
mod frontend;
mod fus;
pub mod json;
mod observer;
mod oracle;
pub mod policy;
mod ras;
mod regfile;
mod selfprof;
mod sim;
mod stall;
mod stats;
mod storebuf;
mod window;

pub use cache::{CacheConfig, DCache};
pub use check::{compare, CheckFailure, DiffOracle, Divergence, DivergenceKind};
pub use config::{
    ConfidenceKind, ConfigError, ExecMode, FetchPolicy, FuConfig, LatencyConfig, PredictorKind,
    SimConfig,
};
pub use policy::Policy;
pub use pp_predictor::{H2pConfig, MergeConfig, MergeHypothesis};

/// Revision number of the simulator's *observable behavior*: the mapping
/// from `(program, SimConfig)` to `SimStats`.
///
/// Cached sweep results (`pp-sweep`) embed this in their fingerprints,
/// so bumping it invalidates every cached cell at once. Bump it in the
/// same commit that regenerates the golden `SimStats` snapshots
/// (`PP_UPDATE_GOLDEN=1`, see `crates/testutil/golden/`) — the two move
/// together by definition: goldens pin the behavior, this names its
/// version. Pure-performance changes that leave goldens byte-identical
/// must NOT bump it (cache reuse across such commits is the point).
pub const BEHAVIOR_REV: u32 = 1;
pub use flight::{panic_message, run_with_flight_dump, FlightRecorder, DEFAULT_FLIGHT_DEPTH};
pub use frontend::{FetchedInst, FrontEnd, PathCtx};
pub use fus::{eligible_units, is_unpipelined, latency, FuClass, FuPool};
pub use observer::{
    CommitRecord, CycleSample, FetchId, HeadInfo, InstSpan, KillStage, PipeEvent, PipeView,
    PipelineObserver, TraceLog,
};
pub use oracle::Oracle;
pub use ras::{Ras, RAS_DEPTH};
pub use regfile::{PhysReg, PhysRegFile, RegMap};
pub use selfprof::HostProfile;
pub use sim::sanitize::Violation;
pub use sim::{MergeStats, Simulator};
pub use stall::{StallCause, StallStack, STALL_CAUSES};
pub use stats::{FuBusy, SimStats};
pub use storebuf::{LoadCheck, SbEntry, StoreBuffer};
pub use window::{DestInfo, EntryState, IssueOutcome, MemInfo, Seq, WinEntry, Window};
