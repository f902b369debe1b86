//! # safetsa-driver
//!
//! The driver layer of the SafeTSA reproduction: everything a program
//! that *uses* the pipeline needs, under one roof.
//!
//! * [`Pipeline`] — the unified facade over frontend → SSA → opt →
//!   codec → VM, configured once (passes, telemetry, resource limits)
//!   and reused; replaces the old per-stage `_with`/`_traced` function
//!   zoo.
//! * [`Error`] — one error enum wrapping every stage's failure type,
//!   with `Display` and `source()`.
//! * [`batch`] — the parallel batch-compilation driver: a
//!   `std::thread::scope` worker pool with per-worker telemetry,
//!   deterministic merging, and content-addressed module records in
//!   the [`store`].
//! * [`store`] — the typed, method-granular incremental store
//!   (`safetsa-cache/4`): per-unit encoded sections and optimizer
//!   stats, validated by structural dependency signatures instead of
//!   file identity, and by a header digest of every record's content.
//!
//! SSA's referential transparency is what makes the batch driver
//! trivially correct: each module's compilation is a pure function of
//! its own source, so modules parallelize without synchronization; the
//! per-method store sharpens that to "each *method* is a pure function
//! of its body and the layouts it references" (see DESIGN.md,
//! "Incremental compilation").

#![warn(missing_docs)]

pub mod batch;
mod error;
mod pipeline;
pub mod store;

pub use batch::{run_batch, BatchInput, BatchItem, BatchOptions, BatchReport};
pub use error::Error;
pub use pipeline::{Pipeline, RunOutcome, UnitOutcome};
pub use store::{passes_fingerprint, CacheKey, RecordKind, Store};
