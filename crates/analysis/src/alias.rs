//! Allocation-site points-to analysis.
//!
//! The forward instance of the framework over the reference planes:
//! the abstract objects are *allocation sites* — the `(block, instr)`
//! positions of `new` and `newarray` — and the fact on a reference
//! value is the set of local sites it may denote plus an *external*
//! taint bit recording whether the reference can also come from
//! outside the function (parameters, heap loads, call results, caught
//! exceptions). Keeping the set alongside the taint matters: a phi
//! mixing a fresh allocation with a parameter still remembers the
//! site, so the [`crate::escape`] analysis layered on top never loses
//! track of a site flowing into a call or store.
//!
//! SafeTSA's type separation is what keeps the sets small: a value on
//! the `ref(T)`/`safe-ref(T)` plane can only ever denote sites whose
//! allocated type is assignable to `T`, and the planes themselves
//! partition the value space, so sites of unrelated types never meet
//! in one set. The analysis does not need to re-derive that — it falls
//! out of the IR being typed per plane — but it is why a per-function
//! points-to fixpoint is cheap enough to run inside the optimizer on
//! every function.
//!
//! Two consumers share the facts: the `loadfwd`/`dse` passes in
//! `crates/opt` (may-alias queries drive heap-fact invalidation) and
//! the escape analysis. The central query is
//! [`AliasAnalysis::may_alias`]: two references with disjoint known
//! site sets and at most one external taint can never address the same
//! object; everything else is conservatively assumed to alias.

use crate::framework::{run_forward, Facts, ForwardAnalysis, JoinLattice};
use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::types::{TypeId, TypeTable};
use safetsa_core::value::{BlockId, ValueId};
use std::collections::BTreeSet;

/// An allocation site: the position of a `new` or `newarray`
/// instruction within the analyzed function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocSite {
    /// Block of the allocation.
    pub block: BlockId,
    /// Instruction index within the block.
    pub instr: u32,
}

/// The points-to fact for one reference value: `null`, any of
/// `sites`, and — when `external` — any object reachable from outside
/// the function.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PointsTo {
    /// Local allocation sites the value may denote.
    pub sites: BTreeSet<AllocSite>,
    /// Whether the value may additionally denote an object that
    /// arrived through an external channel (parameter, heap load,
    /// call result, caught exception). External channels can only
    /// carry local sites that already escaped — never a
    /// [`crate::escape::Escape::No`] site (see `escape` module docs).
    pub external: bool,
}

impl PointsTo {
    fn site(s: AllocSite) -> PointsTo {
        PointsTo {
            sites: BTreeSet::from([s]),
            external: false,
        }
    }

    fn external() -> PointsTo {
        PointsTo {
            sites: BTreeSet::new(),
            external: true,
        }
    }

    /// Whether the fact enumerates every possible referent (no
    /// external component).
    pub fn is_complete(&self) -> bool {
        !self.external
    }
}

impl JoinLattice for PointsTo {
    fn join(&self, other: &PointsTo) -> PointsTo {
        PointsTo {
            sites: self.sites.union(&other.sites).copied().collect(),
            external: self.external || other.external,
        }
    }
}

struct Analysis<'a> {
    types: &'a TypeTable,
}

impl<'a> Analysis<'a> {
    fn models(&self, ty: TypeId) -> bool {
        self.types.is_ref(ty) || self.types.is_safe_ref(ty)
    }
}

impl<'a> ForwardAnalysis for Analysis<'a> {
    type Fact = PointsTo;

    fn preload(&mut self, f: &Function, v: ValueId) -> Option<PointsTo> {
        let ty = f.value_ty(v);
        if !self.models(ty) {
            return None;
        }
        // A `null` constant denotes no object at all; parameters and
        // non-null reference constants come from outside the function.
        use safetsa_core::value::{Def, Literal};
        if let Def::Const(i) = f.value(v).def {
            if matches!(f.consts[i as usize].lit, Literal::Null) {
                return Some(PointsTo::default());
            }
        }
        Some(PointsTo::external())
    }

    fn transfer(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        facts: &Facts<PointsTo>,
    ) -> Option<PointsTo> {
        let result = f.instr_result(b, k)?;
        if !self.models(f.value_ty(result)) {
            return None;
        }
        Some(match &f.block(b).instrs[k] {
            Instr::New { .. } | Instr::NewArray { .. } => PointsTo::site(AllocSite {
                block: b,
                instr: k as u32,
            }),
            // Reference-preserving coercions forward the operand's
            // fact. A not-yet-computed operand (first pass over a back
            // edge) is top for now; later passes tighten it.
            Instr::NullCheck { value, .. }
            | Instr::Downcast { value, .. }
            | Instr::Upcast { value, .. } => facts
                .get(*value)
                .cloned()
                .unwrap_or_else(PointsTo::external),
            // Heap loads, call results, and caught exceptions may hand
            // back any object the outside world can reach.
            _ => PointsTo::external(),
        })
    }
}

/// The points-to facts for one function.
#[derive(Debug)]
pub struct AliasAnalysis {
    facts: Facts<PointsTo>,
    /// Every allocation site of the function, in program order.
    pub sites: Vec<AllocSite>,
    /// Fixpoint passes until stabilization.
    pub iterations: u64,
}

impl AliasAnalysis {
    /// The complete site set for `v`: `Some` only when the analysis
    /// can enumerate every object `v` may denote (no external taint).
    pub fn sites_of(&self, v: ValueId) -> Option<&BTreeSet<AllocSite>> {
        match self.facts.get(v) {
            Some(p) if p.is_complete() => Some(&p.sites),
            _ => None,
        }
    }

    /// The local sites `v` may denote, complete or not (empty for
    /// values outside the reference planes).
    pub fn possible_sites(&self, v: ValueId) -> BTreeSet<AllocSite> {
        self.facts
            .get(v)
            .map(|p| p.sites.clone())
            .unwrap_or_default()
    }

    /// Whether `a` and `b` may denote the same object. Disjoint known
    /// site sets with at most one external taint prove they cannot;
    /// a provably-null value (empty complete set) aliases nothing.
    pub fn may_alias(&self, a: ValueId, b: ValueId) -> bool {
        if a == b {
            return true;
        }
        let (Some(pa), Some(pb)) = (self.facts.get(a), self.facts.get(b)) else {
            return true;
        };
        if pa.sites.iter().any(|s| pb.sites.contains(s)) {
            return true;
        }
        // Both external: the two references may denote the same
        // outside object. One external: it may denote the other's
        // sites only if those escaped — conservatively assumed unless
        // the other side is provably null.
        match (pa.external, pb.external) {
            (true, true) => true,
            (true, false) => !pb.sites.is_empty(),
            (false, true) => !pa.sites.is_empty(),
            (false, false) => false,
        }
    }

    /// Number of values with a computed points-to fact.
    pub fn facts_computed(&self) -> u64 {
        self.facts.computed()
    }
}

/// Runs the points-to analysis over `f`.
pub fn analyze(types: &TypeTable, f: &Function, cfg: &Cfg) -> AliasAnalysis {
    let mut a = Analysis { types };
    let fx = run_forward(f, cfg, &mut a);
    let mut sites = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        for (k, instr) in block.instrs.iter().enumerate() {
            if matches!(instr, Instr::New { .. } | Instr::NewArray { .. }) {
                sites.push(AllocSite {
                    block: BlockId(bi as u32),
                    instr: k as u32,
                });
            }
        }
    }
    AliasAnalysis {
        facts: fx.facts,
        sites,
        iterations: fx.iterations,
    }
}
