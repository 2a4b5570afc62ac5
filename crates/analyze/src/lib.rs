//! # pp-analyze — static analysis for the PolyPath workspace
//!
//! Two halves, both wired into CI (see DESIGN.md §3f):
//!
//! 1. **Bounded exhaustive model checker** ([`model`], [`explore`]) for
//!    the CTX protocol of paper §3.2.1–§3.2.3 as optimized in PR 2:
//!    every state reachable within a small scope (positions, path
//!    slots, entries, trace depth) is enumerated by BFS, and in each
//!    state the real `pp-ctx` structures — `CtxTag`, `TagIndex`,
//!    `PositionAllocator`, `ResolutionKill`, free-epoch `scrub` — are
//!    compared against a reference semantics of explicit path-ancestry
//!    sets. Dynamic testing (golden traces, fuzzing, the sanitizer)
//!    samples interleavings; the checker proves the equivalences for
//!    *all* of them at small scope, including out-of-order resolution
//!    and wrap-around position reuse. Violations come with a 1-minimal
//!    action trace (ddmin via `pp_testutil::shrink`).
//!
//! 2. **Workspace lint pass** ([`lint`], [`rustsrc`]): the two
//!    repo-specific rules no compiler lint can express — `SimStats` and
//!    `StallStack` mutations stay visible to the observer hook (L2), and
//!    every policy enum on the canonical-JSON surface carries a `Policy`
//!    token table (L5). Each has a named diagnostic and no exceptions.
//!    Clippy and rustc enforce L1 (no panics in the hot loop), L3 (no
//!    host time or environment reads) and L4 (canonical JSON covers
//!    every config field); see DESIGN.md §3f.
//!
//! 3. **Static program analysis** ([`cfg`], [`dom`], [`reconv`], see
//!    DESIGN.md §3j): basic-block CFG recovery from a
//!    [`pp_isa::Program`] (direct branches/jumps, call/return
//!    summarized through a static call graph, fallthrough), dominator
//!    and post-dominator trees (Cooper–Harvey–Kennedy over reverse
//!    post-order with a synthetic exit node), and per-branch
//!    reconvergence facts: the exact immediate post-dominator — the
//!    ground-truth merge point `MergeHypothesis::StaticIpdom` feeds to
//!    the merge predictor — a branch taxonomy, and a static bound on
//!    fork-nesting depth. [`Reconvergence::vet_findings`] is the
//!    workload-vetting gate (`pp-analyze cfg --vet`): it flags
//!    irreducible control flow, under which reconvergence facts are
//!    unreliable.
//!
//! Run from the workspace root:
//!
//! ```text
//! cargo run --release -p pp-analyze -- check
//! cargo run -p pp-analyze -- lint
//! cargo run --release -p pp-analyze -- cfg --vet
//! ```

// Exempt from the determinism rule (L3): static analysis of programs
// and source, never part of a simulation.
#![allow(clippy::disallowed_methods, reason = "exempt: analysis tooling")]

pub mod cfg;
pub mod dom;
pub mod explore;
pub mod lint;
pub mod model;
pub mod reconv;
pub mod rustsrc;

pub use cfg::{Block, Cfg};
pub use explore::{check, replay, Report, Violation};
pub use model::{Action, Breakage, Model, Mutation, Scope};
pub use reconv::{BranchFacts, BranchKind, CfgStats, Reconvergence};
