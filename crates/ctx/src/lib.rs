//! # pp-ctx — context tags and context management
//!
//! The PolyPath architecture's key mechanism (paper §3.2.1–§3.2.3): every
//! in-flight instruction carries a **context (CTX) tag** encoding the branch
//! history that leads to its path. Tags use 2 bits per *history position* —
//! a valid bit and a direction bit — so each position is Taken (`T`),
//! Not-taken (`N`), or invalid/don't-care (`X`).
//!
//! The tree-structured encoding makes path relationships a combinational
//! check: ignoring `X` positions, *tag A is a descendant of tag B iff B's
//! valid positions are a subset of A's with equal directions* (the paper's
//! "prefix" test, which is independent of position order — this is what lets
//! positions wrap around and be reused without realigning tags, unlike the
//! 1-bit ABT scheme).
//!
//! This crate provides:
//!
//! * [`CtxTag`] — the tag and its hierarchy comparator (Fig. 5),
//! * [`PositionAllocator`] — left-to-right, wrap-around history position
//!   assignment with reuse on branch commit (§3.2.2),
//! * [`PathId`] / [`PathTable`] — a small slot table for live execution
//!   paths, generic over the per-path payload (the CTX table of Fig. 7
//!   stores fetch PC and status in it; `pp-core` supplies that payload),
//! * [`TagIndex`] — a reverse index from `(position, direction)` pairs to
//!   path slots, turning descendant sweeps and the wrong-path kill set into
//!   single-word mask operations,
//! * [`ResolutionKill`] — the kill selector broadcast when a branch
//!   resolves, with the free-epoch staleness filter that lets the
//!   instruction window keep its tags lazily (no per-commit rewrite).
//!
//! ```
//! use pp_ctx::CtxTag;
//!
//! // Paper §3.2.1 example: TNT(X) is a descendant of T(XXX); TT(XX) is not
//! // related to TNT(X).
//! let t = CtxTag::root().with_position(0, true);
//! let tnt = t.with_position(1, false).with_position(2, true);
//! let tt = t.with_position(1, true);
//! assert!(tnt.is_descendant_or_equal(&t));
//! assert!(!tnt.is_descendant_or_equal(&tt));
//! assert!(!tt.is_descendant_or_equal(&tnt));
//! ```

mod allocator;
mod index;
mod kill;
mod table;
mod tag;

pub use allocator::PositionAllocator;
pub use index::TagIndex;
pub use kill::ResolutionKill;
pub use table::{PathId, PathTable};
pub use tag::{CtxTag, MAX_POSITIONS};
