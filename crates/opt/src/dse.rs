//! Dead-store elimination over the allocation-site alias and escape
//! facts.
//!
//! Two rules, both justified by the same observation: a store is dead
//! when no execution can observe the stored value.
//!
//! * **Overwritten** (flow-sensitive, per block): a store to a
//!   location that is stored again later in the same block, with no
//!   possible observer in between, is dead. Observers are loads that
//!   may alias the location, calls (unless every site of the base is
//!   `NoEscape` — the callee cannot reach the object), and exceptional
//!   instructions: one with a local handler may resume in-function
//!   code that reads anything, one without unwinds out of the function
//!   — where the caller can observe escaped bases and statics, but
//!   never a `NoEscape` object (no reference to it exists outside).
//! * **Never read** (flow-insensitive, whole function): a store whose
//!   base's points-to set is complete and all-`NoEscape` is dead when
//!   no load in the function can address any of those sites. Since a
//!   `NoEscape` site has no reference outside the function's SSA
//!   values, the only possible observers are in-function loads of the
//!   same field (or same-element-type array loads) whose base may
//!   denote one of the sites — and by the escape lemma an
//!   external-tainted load base can never denote a `NoEscape` site, so
//!   site-set intersection is the exact observer test. The rule is
//!   `safetsa_analysis::escape::never_read_stores`, which the linter's
//!   `never-read-store` reports too.
//!
//! Stores have no results and are not exceptional, so deleting them
//! removes no value and no exception edge: no phi pruning or
//! handler-edge fixup is needed, and `compact` alone rebuilds the
//! function. Deleting every store to an allocation typically makes the
//! `new` itself dead — DCE (which treats `new` as pure) then removes
//! the allocation, completing scalar-style removal of unobservable
//! objects.

use crate::facts::{with_facts, Facts};
use safetsa_analysis::escape;
use safetsa_analysis::range::origin;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::rewrite::{compact, Rewrite};
use safetsa_core::types::{FieldRef, TypeId, TypeTable};
use safetsa_core::value::{BlockId, ValueId};
use std::collections::{HashMap, HashSet};

/// Per-function statistics of one dead-store-elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DseStats {
    /// Stores overwritten before any possible observer.
    pub overwritten: usize,
    /// Stores to non-escaping sites never read in the function.
    pub never_read: usize,
}

impl DseStats {
    /// Accumulates another run's statistics.
    pub fn add(&mut self, o: &DseStats) {
        self.overwritten += o.overwritten;
        self.never_read += o.never_read;
    }

    /// Total stores removed.
    pub fn removed(&self) -> usize {
        self.overwritten + self.never_read
    }
}

/// A stored-to heap location, keyed by the base's canonical origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Loc {
    Field(ValueId, FieldRef),
    Static(FieldRef),
    Elt(TypeId, ValueId, ValueId),
}

/// Runs dead-store elimination over `f`; returns the new function and
/// the run's statistics.
pub fn run(types: &TypeTable, f: &Function) -> (Function, DseStats) {
    let mut g = f.clone();
    let stats = with_facts(|facts| apply(types, &mut g, facts));
    (g, stats)
}

/// Runs dead-store elimination on `f` in place, reading the CFG,
/// exception-edge map and alias/escape results from `facts`; returns
/// the run's statistics.
pub(crate) fn apply(types: &TypeTable, f: &mut Function, facts: &Facts) -> DseStats {
    let mut stats = DseStats::default();
    let Some(cfg) = facts.cfg(f) else {
        return stats;
    };
    let (al, esc) = facts.heap(types, f, cfg);
    let handlers = facts.exception_targets(f, cfg);

    // Whether a location based on `base` is invisible outside the
    // function: points-to set complete and every site `NoEscape`.
    let contained =
        |base: ValueId| -> bool { al.sites_of(base).is_some_and(|s| esc.all_no_escape(s)) };

    let mut dead: HashSet<(BlockId, usize)> = HashSet::new();

    // Rule 1: overwritten before any observer, within a block.
    for (bi, block) in f.blocks.iter().enumerate() {
        let b = BlockId(bi as u32);
        // location → index of the store whose value is still unread
        let mut pending: HashMap<Loc, usize> = HashMap::new();
        for (k, instr) in block.instrs.iter().enumerate() {
            // Exceptional instructions first: with a local handler,
            // control may resume in-function code that can read any
            // pending location; without one, the unwinding caller can
            // observe statics and escaped objects, but no `NoEscape`
            // site.
            if instr.is_exceptional() {
                if handlers.contains_key(&(b, k)) {
                    pending.clear();
                } else {
                    pending.retain(|loc, _| match loc {
                        Loc::Field(base, _) | Loc::Elt(_, base, _) => contained(*base),
                        Loc::Static(_) => false,
                    });
                }
            }
            match instr {
                Instr::GetField { object, field, .. } => {
                    let ob = origin(f, *object);
                    pending.retain(|loc, _| match loc {
                        Loc::Field(sb, sf) if sf == field => !al.may_alias(*sb, ob),
                        _ => true,
                    });
                }
                Instr::GetStatic { field } => {
                    pending.remove(&Loc::Static(*field));
                }
                Instr::GetElt { arr_ty, array, .. } => {
                    let ab = origin(f, *array);
                    pending.retain(|loc, _| match loc {
                        Loc::Elt(t, sb, _) if t == arr_ty => !al.may_alias(*sb, ab),
                        _ => true,
                    });
                }
                Instr::SetField { object, field, .. } => {
                    let loc = Loc::Field(origin(f, *object), *field);
                    if let Some(prev) = pending.insert(loc, k) {
                        dead.insert((b, prev));
                        stats.overwritten += 1;
                    }
                }
                Instr::SetStatic { field, .. } => {
                    if let Some(prev) = pending.insert(Loc::Static(*field), k) {
                        dead.insert((b, prev));
                        stats.overwritten += 1;
                    }
                }
                Instr::SetElt {
                    arr_ty,
                    array,
                    index,
                    ..
                } => {
                    // Guaranteed overwrite needs the same SSA index
                    // value; a different index value may or may not
                    // coincide at runtime, so it opens its own slot
                    // (another *write* is never an observer).
                    let loc = Loc::Elt(*arr_ty, origin(f, *array), *index);
                    if let Some(prev) = pending.insert(loc, k) {
                        dead.insert((b, prev));
                        stats.overwritten += 1;
                    }
                }
                Instr::XCall { .. } | Instr::XDispatch { .. } => {
                    // The callee may read any static and any object it
                    // can reach — which excludes contained bases.
                    pending.retain(|loc, _| match loc {
                        Loc::Field(base, _) | Loc::Elt(_, base, _) => contained(*base),
                        Loc::Static(_) => false,
                    });
                }
                _ => {}
            }
        }
        // Block ends: control continues elsewhere, later reads are
        // possible — pending stores stay live.
    }

    // Rule 2: stores to contained sites never read in the function.
    for store in escape::never_read_stores(f, al, esc) {
        if dead.insert(store) {
            stats.never_read += 1;
        }
    }

    if dead.is_empty() {
        return stats;
    }
    let rw = Rewrite {
        delete_instrs: dead.into_iter().collect(),
        ..Rewrite::default()
    };
    compact(f, &rw);
    stats
}
