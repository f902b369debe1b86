//! Sparse dataflow analyses over the SafeTSA SSA IR.
//!
//! SafeTSA's type separation already encodes the *checked* safety
//! properties in the planes: a value on a safe-ref plane is non-null,
//! a value on a safe-index plane is in bounds. This crate recovers the
//! *provable* ones — facts that hold but are not (yet) witnessed by a
//! plane — with a small lattice-based sparse dataflow framework and
//! three analyses built on it:
//!
//! - [`nullness`]: which references are provably non-null (or provably
//!   null), seeded by safe-plane membership and propagated through
//!   casts, phis, and `x != null` branch guards.
//! - [`range`]: integer intervals with symbolic `arraylength`-relative
//!   bounds, so a loop guard `i < a.length` proves `indexcheck a, i`
//!   redundant.
//! - [`liveness`]: backward demand propagation; which values can
//!   influence observable behaviour.
//! - [`alias`]: allocation-site points-to sets over the reference
//!   planes — which local `new`/`newarray` results a reference may
//!   denote.
//! - [`escape`]: the `NoEscape < ArgEscape < GlobalEscape` lattice per
//!   allocation site, layered on the points-to facts — which heap
//!   facts can survive a call.
//!
//! Facts flow to two consumers: the optimization passes in
//! `crates/opt` (`checkelim` rewriting provably redundant checks,
//! `loadfwd`/`dse` forwarding loads and deleting dead stores from the
//! alias/escape facts) and the IR [`lint`]er (`safetsa analyze`),
//! which reports always-trapping sites, dead stores, unreachable
//! code, constant branches, unused values, and the heap diagnostics
//! the same points-to facts prove.
//!
//! The framework ([`framework`]) is *sparse*: facts live on SSA values
//! rather than program points, with per-block flow sensitivity
//! recovered from branch-condition [`guards`] collected in one CST
//! walk — the CST guarantees a branch entry dominates its subtree, so
//! no dominator queries are needed.

#![warn(missing_docs)]

pub mod alias;
pub mod escape;
pub mod framework;
pub mod guards;
pub mod lint;
pub mod liveness;
pub mod nullness;
pub mod range;

pub use alias::{AliasAnalysis, AllocSite, PointsTo};
pub use escape::{Escape, EscapeAnalysis};
pub use framework::{BackwardAnalysis, Facts, Fixpoint, ForwardAnalysis, JoinLattice};
pub use guards::{block_guards, BlockGuards, Guard};
pub use lint::{lint_function, lint_module, Diagnostic, Severity};
pub use liveness::Liveness;
pub use nullness::{Nullity, NullnessAnalysis};
pub use range::{Range, RangeAnalysis};
