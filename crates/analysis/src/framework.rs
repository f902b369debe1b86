//! The generic sparse dataflow engine.
//!
//! SafeTSA's SSA form makes *sparse* analysis natural: every value is
//! defined exactly once, so a dataflow fact attaches to the value
//! itself rather than to `(program point, variable)` pairs. An
//! analysis supplies a join-semilattice of facts and a transfer
//! function per instruction; the engine iterates blocks in the
//! deterministic CST traversal order, joins at phis (one contribution
//! per incoming edge), and runs to a fixpoint.
//!
//! Two drivers are provided:
//!
//! * [`run_forward`] — facts flow from definitions to uses (nullness,
//!   ranges). Phi facts are the join of the per-edge argument facts;
//!   the [`ForwardAnalysis::phi_arg`] hook lets an analysis narrow an
//!   argument by the guards of the edge's source block, which is what
//!   makes loop-phi bounds (`i = phi(0, i+1)` under `i < a.length`)
//!   converge to something useful.
//! * [`run_backward`] — facts flow from uses to definitions
//!   (liveness). Roots are the function's observable uses (terminator
//!   operands, effectful instructions); the per-instruction transfer
//!   says what an instruction demands of its operands. Roots, transfer
//!   and phi push their demands into one buffer the engine owns and
//!   drains after each call, so a fixpoint run allocates no per-step
//!   vectors.
//!
//! ### Contract
//!
//! A forward analysis must be *total on the planes it models*: for
//! every value of a modeled plane the transfer must produce a fact
//! (top at worst). `None` means "plane outside the analysis domain",
//! never "don't know yet" — the engine relies on this to treat a
//! missing phi-argument fact as "not yet computed on this pass"
//! (optimistically skipped; sound because iteration continues until no
//! fact changes, and joins only move up the lattice).

use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::value::{BlockId, ValueId};

/// A join semilattice of dataflow facts.
pub trait JoinLattice: Clone + PartialEq {
    /// Least upper bound of two facts.
    fn join(&self, other: &Self) -> Self;
}

/// Per-value fact store; a missing entry is the analysis bottom
/// ("no fact computed", for planes outside the domain).
#[derive(Debug, Clone)]
pub struct Facts<L> {
    facts: Vec<Option<L>>,
}

impl<L: JoinLattice> Facts<L> {
    fn new(n: usize) -> Facts<L> {
        Facts {
            facts: vec![None; n],
        }
    }

    /// The fact attached to `v`, if the analysis modeled it.
    pub fn get(&self, v: ValueId) -> Option<&L> {
        self.facts.get(v.index()).and_then(Option::as_ref)
    }

    /// Stores `new` for `v`; returns whether the stored fact changed.
    fn update(&mut self, v: ValueId, new: L) -> bool {
        let slot = &mut self.facts[v.index()];
        match slot {
            Some(old) if *old == new => false,
            _ => {
                *slot = Some(new);
                true
            }
        }
    }

    /// Number of values with a computed fact.
    pub fn computed(&self) -> u64 {
        self.facts.iter().filter(|o| o.is_some()).count() as u64
    }
}

/// A forward (definition-to-use) sparse analysis.
pub trait ForwardAnalysis {
    /// The fact lattice.
    type Fact: JoinLattice;

    /// Fact for a pre-loaded value (parameter or constant-pool entry).
    fn preload(&mut self, f: &Function, v: ValueId) -> Option<Self::Fact>;

    /// Fact for the result of instruction `(b, k)`. Called only for
    /// instructions that produce a result.
    fn transfer(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        facts: &Facts<Self::Fact>,
    ) -> Option<Self::Fact>;

    /// Fact contributed to a phi by argument `arg` flowing in from
    /// `pred`. Override to narrow by the guards of the source block.
    fn phi_arg(
        &mut self,
        _f: &Function,
        _pred: BlockId,
        arg: ValueId,
        facts: &Facts<Self::Fact>,
    ) -> Option<Self::Fact> {
        facts.get(arg).cloned()
    }

    /// Widening applied to a changing fact once the pass count exceeds
    /// [`WIDEN_AFTER`]; ensures termination on lattices of great
    /// height (integer intervals). Default: no widening.
    fn widen(&mut self, _old: &Self::Fact, new: Self::Fact) -> Self::Fact {
        new
    }
}

/// Passes after which [`ForwardAnalysis::widen`] kicks in.
pub const WIDEN_AFTER: u64 = 3;

/// Hard cap on fixpoint passes (a backstop; widening converges long
/// before this).
pub const MAX_PASSES: u64 = 64;

/// Result of a fixpoint run: the facts plus the pass count (the
/// per-analysis `fixpoint_iterations` telemetry).
#[derive(Debug)]
pub struct Fixpoint<L> {
    /// Per-value facts at the fixpoint.
    pub facts: Facts<L>,
    /// Number of passes over the function until stabilization.
    pub iterations: u64,
}

/// Runs `a` forward over `f` to a fixpoint.
pub fn run_forward<A: ForwardAnalysis>(f: &Function, cfg: &Cfg, a: &mut A) -> Fixpoint<A::Fact> {
    let mut facts = Facts::new(f.values.len());
    for i in 0..f.values.len() {
        let v = ValueId(i as u32);
        if f.value(v).def.is_preload() {
            if let Some(fact) = a.preload(f, v) {
                facts.update(v, fact);
            }
        }
    }
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in &cfg.traversal {
            if !cfg.reachable[b.index()] {
                continue;
            }
            for k in 0..f.block(b).phis.len() {
                let result = f.phi_result(b, k);
                let mut acc: Option<A::Fact> = None;
                for &(pred, arg) in &f.block(b).phis[k].args {
                    // A missing contribution is a back edge not yet
                    // computed on this pass; skip it optimistically.
                    if let Some(c) = a.phi_arg(f, pred, arg, &facts) {
                        acc = Some(match acc {
                            None => c,
                            Some(x) => x.join(&c),
                        });
                    }
                }
                if let Some(mut new) = acc {
                    if iterations > WIDEN_AFTER {
                        if let Some(old) = facts.get(result) {
                            new = a.widen(old, new);
                        }
                    }
                    changed |= facts.update(result, new);
                }
            }
            for k in 0..f.block(b).instrs.len() {
                let Some(result) = f.instr_result(b, k) else {
                    continue;
                };
                if let Some(mut new) = a.transfer(f, b, k, &facts) {
                    if iterations > WIDEN_AFTER {
                        if let Some(old) = facts.get(result) {
                            new = a.widen(old, new);
                        }
                    }
                    changed |= facts.update(result, new);
                }
            }
        }
        if !changed || iterations >= MAX_PASSES {
            return Fixpoint { facts, iterations };
        }
    }
}

/// A backward (use-to-definition) sparse analysis.
///
/// Each hook pushes `(value, fact)` demands onto `out`, which the
/// engine hands over empty and drains after the call.
pub trait BackwardAnalysis {
    /// The fact lattice.
    type Fact: JoinLattice;

    /// Facts demanded unconditionally: terminator uses, provenance
    /// links, and anything else observable at function exit.
    fn roots(&mut self, f: &Function, cfg: &Cfg, out: &mut Vec<(ValueId, Self::Fact)>);

    /// What instruction `(b, k)` demands of its operands, given the
    /// fact (if any) on its own result.
    fn transfer(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        result: Option<&Self::Fact>,
        out: &mut Vec<(ValueId, Self::Fact)>,
    );

    /// What phi `(b, k)` demands of its arguments given the fact on
    /// its result. Default: the result fact propagates to every
    /// argument.
    fn phi(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        result: Option<&Self::Fact>,
        out: &mut Vec<(ValueId, Self::Fact)>,
    ) {
        if let Some(r) = result {
            out.extend(f.block(b).phis[k].args.iter().map(|(_, v)| (*v, r.clone())));
        }
    }
}

/// Joins every demand in `demands` into `facts`, leaving `demands`
/// empty; returns whether any stored fact changed.
fn absorb<L: JoinLattice>(facts: &mut Facts<L>, demands: &mut Vec<(ValueId, L)>) -> bool {
    let mut changed = false;
    for (v, fact) in demands.drain(..) {
        let joined = match facts.get(v) {
            Some(old) => old.join(&fact),
            None => fact,
        };
        changed |= facts.update(v, joined);
    }
    changed
}

/// Runs `a` backward over `f` to a fixpoint (reverse traversal order,
/// instructions visited last-to-first).
pub fn run_backward<A: BackwardAnalysis>(f: &Function, cfg: &Cfg, a: &mut A) -> Fixpoint<A::Fact> {
    let mut facts: Facts<A::Fact> = Facts::new(f.values.len());
    let mut demands = Vec::new();
    a.roots(f, cfg, &mut demands);
    absorb(&mut facts, &mut demands);
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for &b in cfg.traversal.iter().rev() {
            if !cfg.reachable[b.index()] {
                continue;
            }
            for k in (0..f.block(b).instrs.len()).rev() {
                let result = f.instr_result(b, k);
                let rf = result.and_then(|v| facts.get(v).cloned());
                a.transfer(f, b, k, rf.as_ref(), &mut demands);
                changed |= absorb(&mut facts, &mut demands);
            }
            for k in (0..f.block(b).phis.len()).rev() {
                let result = f.phi_result(b, k);
                let rf = facts.get(result).cloned();
                a.phi(f, b, k, rf.as_ref(), &mut demands);
                changed |= absorb(&mut facts, &mut demands);
            }
        }
        if !changed || iterations >= MAX_PASSES {
            return Fixpoint { facts, iterations };
        }
    }
}
