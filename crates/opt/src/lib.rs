//! # safetsa-opt
//!
//! Producer-side optimization of SafeTSA programs (§8 of the paper):
//! the code *producer* runs constant propagation, common subexpression
//! elimination, and dead-code elimination, and ships the optimized
//! program — the format transports the result tamper-proof, which is
//! the paper's headline capability (null-check and bounds-check
//! elimination whose results survive transport).
//!
//! * [`constprop`] — constant folding over the SSA graph,
//! * [`cse`] — dominator-scoped available-expression CSE with the `Mem`
//!   pseudo-value for memory dependences (stores and calls define a new
//!   memory state; loads key on the current one),
//! * [`checkelim`] — dataflow-driven check elimination: nullness and
//!   range facts from `safetsa-analysis` prove checks redundant that
//!   CSE cannot reach (no dominating identical check required),
//! * [`loadfwd`] — redundant-load elimination and store-to-load
//!   forwarding over the allocation-site alias/escape facts; strictly
//!   stronger than CSE's `Mem` model (forwards stored values, keeps
//!   facts alive across calls for non-escaping receivers),
//! * [`dse`] — dead-store elimination: stores overwritten before any
//!   observer, and stores to non-escaping allocations never read,
//! * [`dce`] — liveness-based dead instruction and phi removal.
//!
//! Baseline check elimination falls out of CSE: a dominating
//! `nullcheck` (`indexcheck`) of the same value(s) makes later ones
//! redundant; the later check's uses are rewired to the dominating
//! safe value. [`checkelim`] goes beyond that, e.g. removing the very
//! *first* check of a freshly allocated object.
//!
//! # Examples
//!
//! ```
//! let prog = safetsa_frontend::compile(
//!     "class A { int f; static int g(A a) { return a.f + a.f; } }",
//! )?;
//! let mut lowered = safetsa_ssa::lower_program(&prog)?;
//! let stats = safetsa_opt::optimize_module(&mut lowered.module);
//! assert!(stats.null_checks_after <= stats.null_checks_before);
//! safetsa_core::verify::verify_module(&lowered.module)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod checkelim;
pub mod constprop;
pub mod cse;
pub mod dce;
pub mod dse;
mod facts;
mod fixup;
pub mod loadfwd;

use facts::{with_facts, Facts};
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::module::Module;
use safetsa_core::types::TypeTable;
use safetsa_telemetry::Telemetry;

/// How CSE models memory dependences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemModel {
    /// §8's single `Mem` pseudo-value: any store or call invalidates
    /// every load.
    #[default]
    Monolithic,
    /// §8's proposed improvement (field analysis, the paper's citation
    /// \[15\]): `Mem` partitioned by field name and by array element
    /// type; only calls invalidate everything. Sound because of type
    /// separation.
    FieldPartitioned,
}

/// Which passes to run (ablation knobs for the pass-contribution
/// breakdown the paper reports in §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Passes {
    /// Constant propagation and folding.
    pub constprop: bool,
    /// Common subexpression elimination (with `Mem`).
    pub cse: bool,
    /// Dataflow-driven check elimination (nullness + range analysis).
    pub checkelim: bool,
    /// Alias/escape-driven load forwarding.
    pub loadfwd: bool,
    /// Alias/escape-driven dead-store elimination.
    pub dse: bool,
    /// Dead code and phi elimination.
    pub dce: bool,
    /// Memory model used by CSE.
    pub mem: MemModel,
}

impl Passes {
    /// Everything on (the paper's "SafeTSA optimized" configuration).
    pub const ALL: Passes = Passes {
        constprop: true,
        cse: true,
        checkelim: true,
        loadfwd: true,
        dse: true,
        dce: true,
        mem: MemModel::Monolithic,
    };

    /// Everything on, with the field-partitioned memory extension.
    pub const ALL_FIELD_MEM: Passes = Passes {
        constprop: true,
        cse: true,
        checkelim: true,
        loadfwd: true,
        dse: true,
        dce: true,
        mem: MemModel::FieldPartitioned,
    };

    /// Nothing on.
    pub const NONE: Passes = Passes {
        constprop: false,
        cse: false,
        checkelim: false,
        loadfwd: false,
        dse: false,
        dce: false,
        mem: MemModel::Monolithic,
    };
}

/// Aggregate statistics for Figure 6.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Instructions before optimization.
    pub instrs_before: usize,
    /// Instructions after.
    pub instrs_after: usize,
    /// Phi nodes before.
    pub phis_before: usize,
    /// Phi nodes after.
    pub phis_after: usize,
    /// `nullcheck` instructions before.
    pub null_checks_before: usize,
    /// `nullcheck` instructions after.
    pub null_checks_after: usize,
    /// `indexcheck` instructions before.
    pub index_checks_before: usize,
    /// `indexcheck` instructions after.
    pub index_checks_after: usize,
    /// Instructions removed by constant propagation.
    pub removed_by_constprop: usize,
    /// Instructions removed by CSE.
    pub removed_by_cse: usize,
    /// Checks rewritten away or deleted by check elimination.
    pub removed_by_checkelim: usize,
    /// Loads removed by load forwarding.
    pub removed_by_loadfwd: usize,
    /// Stores removed by dead-store elimination.
    pub removed_by_dse: usize,
    /// Instructions (and phis) removed by DCE.
    pub removed_by_dce: usize,
    /// Per-analysis telemetry from check elimination.
    pub checkelim: checkelim::CheckElimStats,
    /// Per-analysis telemetry from load forwarding (includes the
    /// alias/escape analysis counters).
    pub loadfwd: loadfwd::LoadFwdStats,
    /// Telemetry from dead-store elimination.
    pub dse: dse::DseStats,
}

impl OptStats {
    /// Accumulates another function's statistics.
    pub fn add(&mut self, o: &OptStats) {
        self.instrs_before += o.instrs_before;
        self.instrs_after += o.instrs_after;
        self.phis_before += o.phis_before;
        self.phis_after += o.phis_after;
        self.null_checks_before += o.null_checks_before;
        self.null_checks_after += o.null_checks_after;
        self.index_checks_before += o.index_checks_before;
        self.index_checks_after += o.index_checks_after;
        self.removed_by_constprop += o.removed_by_constprop;
        self.removed_by_cse += o.removed_by_cse;
        self.removed_by_checkelim += o.removed_by_checkelim;
        self.removed_by_loadfwd += o.removed_by_loadfwd;
        self.removed_by_dse += o.removed_by_dse;
        self.removed_by_dce += o.removed_by_dce;
        self.checkelim.add(&o.checkelim);
        self.loadfwd.add(&o.loadfwd);
        self.dse.add(&o.dse);
    }

    /// Instructions and phis removed (or, for checks, rewritten away)
    /// by all passes together.
    fn removed(&self) -> usize {
        self.removed_by_constprop
            + self.removed_by_cse
            + self.removed_by_checkelim
            + self.removed_by_loadfwd
            + self.removed_by_dse
            + self.removed_by_dce
    }
}

/// The most rounds of the pass pipeline per function. DESIGN.md's
/// "Optimizer pipeline" section gives the corpus data behind it.
const MAX_ROUNDS: usize = 3;

/// One pass of the pipeline, as the round loop runs it.
#[derive(Debug, Clone, Copy)]
enum Pass {
    ConstProp,
    Cse(MemModel),
    CheckElim,
    LoadFwd,
    Dse,
    Dce,
}

impl Pass {
    /// Runs the pass on `f` in place, borrowing whatever facts it
    /// needs from `facts`; returns its share of the function's
    /// [`OptStats`].
    fn apply(self, types: &TypeTable, f: &mut Function, facts: &mut Facts) -> OptStats {
        let mut s = OptStats::default();
        match self {
            Pass::ConstProp => s.removed_by_constprop = constprop::apply(types, f),
            Pass::Cse(mem) => s.removed_by_cse = cse::apply(f, facts, mem),
            Pass::CheckElim => {
                s.checkelim = checkelim::apply(types, f, facts);
                s.removed_by_checkelim = s.checkelim.removed();
            }
            Pass::LoadFwd => {
                s.loadfwd = loadfwd::apply(types, f, facts);
                s.removed_by_loadfwd = s.loadfwd.removed();
            }
            Pass::Dse => {
                s.dse = dse::apply(types, f, facts);
                s.removed_by_dse = s.dse.removed();
            }
            Pass::Dce => s.removed_by_dce = dce::apply(f),
        }
        s
    }
}

impl Passes {
    /// The enabled passes, in pipeline order.
    fn pipeline(&self) -> Vec<Pass> {
        [
            (self.constprop, Pass::ConstProp),
            (self.cse, Pass::Cse(self.mem)),
            (self.checkelim, Pass::CheckElim),
            (self.loadfwd, Pass::LoadFwd),
            (self.dse, Pass::Dse),
            (self.dce, Pass::Dce),
        ]
        .into_iter()
        .filter_map(|(on, pass)| on.then_some(pass))
        .collect()
    }
}

fn count_checks(f: &Function) -> (usize, usize) {
    (
        f.count_instrs(|i| matches!(i, Instr::NullCheck { .. })),
        f.count_instrs(|i| matches!(i, Instr::IndexCheck { .. })),
    )
}

/// Optimizes one function in place with the selected passes and
/// returns its statistics.
///
/// The enabled passes run in the order constprop, CSE, checkelim,
/// loadfwd, dse, DCE, for at most three rounds, and stop after a round
/// in which no pass removed anything: constant propagation can expose
/// CSE, CSE exposes dead code, and DCE can expose more constants.
///
/// The passes of one function version share one fact context, which
/// the thread keeps between calls: its CFG, dominator tree,
/// exception-edge map and alias/escape results are built on first use,
/// and any pass that removes something drops them all (the graphs keep
/// their buffers and are rebuilt in place). A pass that already ran
/// clean on the current version is not run again; the statistics it
/// recorded then are added again instead. Both rest on the same
/// invariant, which debug builds assert: a pass that reports no
/// removals leaves the function unchanged. The replay is exact because
/// every pass is a deterministic function of the type table and the
/// function.
pub fn optimize_function(types: &TypeTable, f: &mut Function, passes: Passes) -> OptStats {
    with_facts(|facts| optimize_in(types, f, passes, facts))
}

/// [`optimize_function`] with the fact context `facts`, which may hold
/// facts of another function: they are dropped first, and only the
/// graph buffers carry over.
fn optimize_in(types: &TypeTable, f: &mut Function, passes: Passes, facts: &mut Facts) -> OptStats {
    facts.invalidate();
    let (null_checks_before, index_checks_before) = count_checks(f);
    let mut stats = OptStats {
        instrs_before: f.instr_count(),
        phis_before: f.phi_count(),
        null_checks_before,
        index_checks_before,
        ..OptStats::default()
    };
    let pipeline = passes.pipeline();
    // What each pass recorded when it last ran clean on the current
    // version of `f`.
    let mut clean: Vec<Option<OptStats>> = vec![None; pipeline.len()];
    for _ in 0..MAX_ROUNDS {
        let mut changed = false;
        for (i, &pass) in pipeline.iter().enumerate() {
            let ran = match clean[i] {
                Some(recorded) => recorded,
                None => {
                    let before = cfg!(debug_assertions).then(|| f.clone());
                    let ran = pass.apply(types, f, facts);
                    if let Some(before) = before {
                        assert!(
                            ran.removed() > 0 || f.bit_eq(&before),
                            "{pass:?} reported no removals but changed {}",
                            f.name
                        );
                    }
                    ran
                }
            };
            stats.add(&ran);
            if ran.removed() > 0 {
                changed = true;
                facts.invalidate();
                clean.fill(None);
            } else {
                clean[i] = Some(ran);
            }
        }
        if !changed {
            break;
        }
    }

    stats.instrs_after = f.instr_count();
    stats.phis_after = f.phi_count();
    (stats.null_checks_after, stats.index_checks_after) = count_checks(f);
    stats
}

/// Optimizes every function of a module in place with all passes.
pub fn optimize_module(m: &mut Module) -> OptStats {
    optimize(m, Passes::ALL, &Telemetry::disabled())
}

/// The canonical entry point: optimizes every function of a module in
/// place with the selected passes (what [`optimize_function`] does per
/// function, with no copy of the function and one fact context for the
/// whole module), and — when the registry
/// is enabled — records the optimization wall time
/// (`opt.optimize_ns`) and the exact quantities behind the paper's
/// Tables 1–3: instruction/phi counts before and after, per-pass
/// removal counters (`opt.constprop.removed` / `opt.cse.removed` /
/// `opt.dce.removed`), and the check-elimination plane
/// (`opt.null_checks.{before,after,eliminated}`, likewise
/// `opt.index_checks`); see [`record_stats`] for the full key set. A
/// disabled registry costs nothing beyond the [`OptStats`] bookkeeping
/// the passes already do.
///
/// In debug/test builds the optimized module is re-validated with
/// [`safetsa_core::verify::verify_module`]: every pass must preserve
/// the type-separation and safety invariants the format enforces on
/// the wire.
pub fn optimize(m: &mut Module, passes: Passes, tm: &Telemetry) -> OptStats {
    let stats = tm.time("opt.optimize_ns", || {
        let mut total = OptStats::default();
        with_facts(|facts| {
            for f in &mut m.functions {
                total.add(&optimize_in(&m.types, f, passes, facts));
            }
        });
        #[cfg(debug_assertions)]
        if let Err(e) = safetsa_core::verify::verify_module(m) {
            panic!("optimizer produced an unverifiable module: {e}");
        }
        total
    });
    record_stats(&stats, &passes, tm);
    stats
}

/// Records one [`OptStats`] into the `opt.*` counter plane.
///
/// Most keys are emitted under every configuration, with zeros for
/// passes that did not run: the instruction, phi and check counts,
/// `opt.{constprop,cse,checkelim,dce}.removed`, the rest of the
/// `opt.checkelim.*` plane, and `analysis.nullness.*` /
/// `analysis.range.*`. Only two planes depend on the configuration:
/// `opt.loadfwd.*` with `analysis.alias.*` / `analysis.escape.*` is
/// emitted only when load forwarding ran, and `opt.dse.*` only when
/// dead-store elimination ran. `tests/metrics_schema.rs` and its
/// goldens pin both rules, and cached metric replays of a
/// configuration carry the same keys.
pub fn record_stats(stats: &OptStats, passes: &Passes, tm: &Telemetry) {
    if !tm.is_enabled() {
        return;
    }
    tm.add("opt.instrs.before", stats.instrs_before as u64);
    tm.add("opt.instrs.after", stats.instrs_after as u64);
    tm.add("opt.phis.before", stats.phis_before as u64);
    tm.add("opt.phis.after", stats.phis_after as u64);
    tm.add("opt.null_checks.before", stats.null_checks_before as u64);
    tm.add("opt.null_checks.after", stats.null_checks_after as u64);
    tm.add(
        "opt.null_checks.eliminated",
        stats
            .null_checks_before
            .saturating_sub(stats.null_checks_after) as u64,
    );
    tm.add("opt.index_checks.before", stats.index_checks_before as u64);
    tm.add("opt.index_checks.after", stats.index_checks_after as u64);
    tm.add(
        "opt.index_checks.eliminated",
        stats
            .index_checks_before
            .saturating_sub(stats.index_checks_after) as u64,
    );
    tm.add("opt.constprop.removed", stats.removed_by_constprop as u64);
    tm.add("opt.cse.removed", stats.removed_by_cse as u64);
    tm.add("opt.checkelim.removed", stats.removed_by_checkelim as u64);
    tm.add("opt.dce.removed", stats.removed_by_dce as u64);
    let ce = &stats.checkelim;
    tm.add("opt.checkelim.null_converted", ce.null_converted as u64);
    tm.add("opt.checkelim.index_deleted", ce.index_deleted as u64);
    tm.add("analysis.nullness.facts", ce.nullness_facts);
    tm.add("analysis.nullness.checks_proven", ce.null_proven as u64);
    tm.add(
        "analysis.nullness.fixpoint_iterations",
        ce.nullness_iterations,
    );
    tm.add("analysis.range.facts", ce.range_facts);
    tm.add("analysis.range.checks_proven", ce.index_proven as u64);
    tm.add("analysis.range.fixpoint_iterations", ce.range_iterations);
    if passes.loadfwd {
        let lf = &stats.loadfwd;
        tm.add("opt.loadfwd.removed", stats.removed_by_loadfwd as u64);
        tm.add("opt.loadfwd.store_forwarded", lf.store_forwarded as u64);
        tm.add("opt.loadfwd.load_reused", lf.load_reused as u64);
        tm.add("opt.loadfwd.kept_across_calls", lf.kept_across_calls as u64);
        tm.add("analysis.alias.sites", lf.alias_sites);
        tm.add("analysis.alias.facts", lf.alias_facts);
        tm.add("analysis.alias.fixpoint_iterations", lf.alias_iterations);
        tm.add("analysis.escape.no_escape", lf.escape_no);
        tm.add("analysis.escape.arg_escape", lf.escape_arg);
        tm.add("analysis.escape.global_escape", lf.escape_global);
    }
    if passes.dse {
        tm.add("opt.dse.removed", stats.removed_by_dse as u64);
        tm.add("opt.dse.overwritten", stats.dse.overwritten as u64);
        tm.add("opt.dse.never_read", stats.dse.never_read as u64);
    }
}
