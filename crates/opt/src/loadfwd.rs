//! Redundant-load elimination and store-to-load forwarding, driven by
//! the allocation-site alias and escape analyses.
//!
//! Strictly stronger than what CSE's `Mem` pseudo-value can reach,
//! even in its field-partitioned form (§8's proposed improvement):
//!
//! * **store-to-load forwarding** — after `setfield o.f = v`, a later
//!   `getfield o.f` of the same object simply *is* `v`. CSE can never
//!   forward a stored value: a store defines a new `Mem` epoch, so the
//!   load after it never matches a dominating load key.
//! * **facts survive calls** — CSE invalidates every load fact at a
//!   call. Here a `(base, field)` fact survives when the base's
//!   points-to set is fully known and every site is
//!   [`safetsa_analysis::Escape::No`]: the callee cannot possibly hold
//!   a reference to the object (it never escaped), so it cannot write
//!   the field.
//! * **alias-precise invalidation** — a store to `p.f` only kills
//!   facts for bases that *may alias* `p` (same field, overlapping
//!   points-to sets); disjoint known site sets keep their facts.
//!
//! The walk mirrors CSE's dominator-tree discipline: available heap
//! facts flow from a block to the blocks it immediately dominates
//! (which, when they have a unique predecessor, is exactly the
//! fall-through state), and are conservatively dropped at merge
//! points. Blocks entered by an exception edge also start empty: the
//! trap happened *somewhere* inside the protected region, so
//! end-of-block facts of the thrower must not be trusted — this is
//! the exception-edge analogue of the `Mem`-phi.
//!
//! Deleted loads are pure and non-exceptional, so no exception edge
//! ever disappears and no handler-edge bookkeeping is needed; the
//! forwarded value always lives on the exact plane of the load result
//! (both are the field's/element's plane), which `debug_assertions`
//! re-verify.

use crate::facts::{with_facts, Facts};
use safetsa_analysis::range::origin;
use safetsa_analysis::{alias, escape};
use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::dom::DomTree;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::rewrite::{compact, Rewrite};
use safetsa_core::types::{FieldRef, TypeId, TypeTable};
use safetsa_core::value::{BlockId, ValueId};
use std::collections::HashMap;

/// Per-function statistics of one load-forwarding run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadFwdStats {
    /// Loads replaced by a dominating store's value.
    pub store_forwarded: usize,
    /// Loads replaced by a dominating load's result.
    pub load_reused: usize,
    /// Heap facts kept alive across a call because every base site is
    /// `NoEscape`.
    pub kept_across_calls: usize,
    /// Allocation sites seen by the alias analysis.
    pub alias_sites: u64,
    /// Values with a points-to fact.
    pub alias_facts: u64,
    /// Alias fixpoint passes.
    pub alias_iterations: u64,
    /// Sites classified `NoEscape`.
    pub escape_no: u64,
    /// Sites classified `ArgEscape`.
    pub escape_arg: u64,
    /// Sites classified `GlobalEscape`.
    pub escape_global: u64,
}

impl LoadFwdStats {
    /// Accumulates another run's statistics.
    pub fn add(&mut self, o: &LoadFwdStats) {
        self.store_forwarded += o.store_forwarded;
        self.load_reused += o.load_reused;
        self.kept_across_calls += o.kept_across_calls;
        self.alias_sites += o.alias_sites;
        self.alias_facts += o.alias_facts;
        self.alias_iterations += o.alias_iterations;
        self.escape_no += o.escape_no;
        self.escape_arg += o.escape_arg;
        self.escape_global += o.escape_global;
    }

    /// Total loads removed.
    pub fn removed(&self) -> usize {
        self.store_forwarded + self.load_reused
    }
}

/// A heap location, canonicalized by the base reference's origin
/// (chasing `nullcheck`/`downcast`/`upcast`): same key ⇒ same runtime
/// location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    Field(ValueId, FieldRef),
    Static(FieldRef),
    Elt(TypeId, ValueId, ValueId),
}

impl Loc {
    /// The base reference whose aliasing governs invalidation, if the
    /// location has one (statics are absolute).
    fn base(&self) -> Option<ValueId> {
        match self {
            Loc::Field(b, _) | Loc::Elt(_, b, _) => Some(*b),
            Loc::Static(_) => None,
        }
    }
}

/// How a fact entered the table (for the statistics split).
#[derive(Debug, Clone, Copy)]
enum Src {
    Store,
    Load,
}

/// Runs load forwarding over `f`; returns the new function and the
/// run's statistics.
pub fn run(types: &TypeTable, f: &Function) -> (Function, LoadFwdStats) {
    let mut g = f.clone();
    let stats = with_facts(|facts| apply(types, &mut g, facts));
    (g, stats)
}

/// Runs load forwarding on `f` in place, reading the CFG, dominator
/// tree and alias/escape results from `facts`; returns the run's
/// statistics.
pub(crate) fn apply(types: &TypeTable, f: &mut Function, facts: &Facts) -> LoadFwdStats {
    let mut stats = LoadFwdStats::default();
    let Some(cfg) = facts.cfg(f) else {
        return stats;
    };
    let dom = facts.dom(cfg);
    let (al, esc) = facts.heap(types, f, cfg);
    stats.alias_sites = al.sites.len() as u64;
    stats.alias_facts = al.facts_computed();
    stats.alias_iterations = al.iterations;
    let (no, arg, global) = esc.counts(&al.sites);
    stats.escape_no = no;
    stats.escape_arg = arg;
    stats.escape_global = global;

    struct Walker<'a> {
        f: &'a Function,
        cfg: &'a Cfg,
        dom: &'a DomTree,
        al: &'a alias::AliasAnalysis,
        esc: &'a escape::EscapeAnalysis,
        rw: Rewrite,
        stats: LoadFwdStats,
    }

    impl<'a> Walker<'a> {
        /// Whether the fact for a location based on `base` survives a
        /// call: every possible referent is a local allocation that
        /// never escaped, so the callee cannot write it.
        fn survives_call(&self, base: ValueId) -> bool {
            self.al
                .sites_of(base)
                .is_some_and(|s| self.esc.all_no_escape(s))
        }

        fn visit(&mut self, b: BlockId, facts_in: &HashMap<Loc, (ValueId, Src)>) {
            // Merge points drop everything (the conservative heap phi,
            // like CSE's fresh `Mem` epoch), and so do handler
            // entries: an exception edge leaves its source block
            // mid-flight, before the facts at its end held.
            let preds = self.cfg.preds_of(b);
            let mut facts = if preds.len() != 1
                || preds
                    .iter()
                    .any(|e| matches!(e.kind, EdgeKind::Exception { .. }))
            {
                HashMap::new()
            } else {
                facts_in.clone()
            };
            let n = self.f.block(b).instrs.len();
            for k in 0..n {
                // Resolve operands through earlier substitutions so
                // chained forwards collapse in one pass.
                let f = self.f;
                let instr = &f.block(b).instrs[k];
                let r = |v: ValueId| self.rw.resolve(v);
                match instr {
                    Instr::GetField { object, field, .. } => {
                        let key = Loc::Field(origin(f, r(*object)), *field);
                        self.load(b, k, key, &mut facts);
                    }
                    Instr::GetStatic { field } => {
                        self.load(b, k, Loc::Static(*field), &mut facts);
                    }
                    Instr::GetElt {
                        arr_ty,
                        array,
                        index,
                    } => {
                        let key = Loc::Elt(*arr_ty, origin(f, r(*array)), r(*index));
                        self.load(b, k, key, &mut facts);
                    }
                    Instr::SetField {
                        object,
                        field,
                        value,
                        ..
                    } => {
                        let obase = origin(f, r(*object));
                        let value = r(*value);
                        let fld = *field;
                        let al = self.al;
                        // A store to `o.f` kills same-field facts for
                        // may-aliasing bases; other fields and
                        // provably disjoint bases keep theirs (type
                        // and field separation make this sound).
                        facts.retain(|loc, _| match loc {
                            Loc::Field(b2, f2) if *f2 == fld => {
                                *b2 != obase && !al.may_alias(*b2, obase)
                            }
                            _ => true,
                        });
                        facts.insert(Loc::Field(obase, fld), (value, Src::Store));
                    }
                    Instr::SetStatic { field, value } => {
                        // Distinct static fields are distinct absolute
                        // locations; only the stored one changes.
                        facts.insert(Loc::Static(*field), (r(*value), Src::Store));
                    }
                    Instr::SetElt {
                        arr_ty,
                        array,
                        index,
                        value,
                    } => {
                        let abase = origin(f, r(*array));
                        let (index, value) = (r(*index), r(*value));
                        let ty = *arr_ty;
                        let al = self.al;
                        // Element stores kill facts for may-aliasing
                        // arrays of the same element type — including
                        // the same array under a different index value
                        // (two index values may coincide at runtime).
                        facts.retain(|loc, _| match loc {
                            Loc::Elt(t2, b2, _) if *t2 == ty => !al.may_alias(*b2, abase),
                            _ => true,
                        });
                        facts.insert(Loc::Elt(ty, abase, index), (value, Src::Store));
                    }
                    Instr::XCall { .. } | Instr::XDispatch { .. } => {
                        // The callee may write any static and any
                        // object it can reach. Facts whose base
                        // provably never escaped survive — the
                        // headline improvement over the `Mem` model.
                        let mut kept = 0usize;
                        let this = &*self;
                        facts.retain(|loc, _| match loc.base() {
                            Some(base) if this.survives_call(base) => {
                                kept += 1;
                                true
                            }
                            _ => false,
                        });
                        self.stats.kept_across_calls += kept;
                    }
                    _ => {}
                }
            }
            let dom = self.dom;
            for &c in dom.children_of(b) {
                self.visit(c, &facts);
            }
        }

        /// Processes one load: forward a known fact, or record the
        /// result for later loads.
        fn load(
            &mut self,
            b: BlockId,
            k: usize,
            key: Loc,
            facts: &mut HashMap<Loc, (ValueId, Src)>,
        ) {
            let Some(result) = self.f.instr_result(b, k) else {
                return;
            };
            match facts.get(&key) {
                Some(&(prior, src)) => {
                    // The forwarded value must live on the load
                    // result's exact plane — it always does (both are
                    // the field's/element's plane), but a mismatch
                    // would silently break type separation, so check.
                    if self.f.value_ty(prior) != self.f.value_ty(result) {
                        debug_assert!(
                            false,
                            "loadfwd: plane mismatch forwarding {prior} for {result}"
                        );
                        return;
                    }
                    self.rw.replace.insert(result, prior);
                    self.rw.delete_instrs.push((b, k));
                    match src {
                        Src::Store => self.stats.store_forwarded += 1,
                        Src::Load => self.stats.load_reused += 1,
                    }
                }
                None => {
                    facts.insert(key, (result, Src::Load));
                }
            }
        }
    }

    let mut w = Walker {
        f,
        cfg,
        dom,
        al,
        esc,
        rw: Rewrite::default(),
        stats,
    };
    if !dom.preorder.is_empty() {
        w.visit(dom.preorder[0], &HashMap::new());
    }
    let Walker { rw, stats, .. } = w;
    if !rw.is_empty() {
        compact(f, &rw);
    }
    stats
}
