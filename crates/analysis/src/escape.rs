//! Allocation-site escape analysis.
//!
//! Classifies every allocation site of a function on the three-point
//! lattice `NoEscape < ArgEscape < GlobalEscape` by scanning the
//! escape *events* a site's references can flow through:
//!
//! * stored into a field/element of another object — [`Escape::Arg`]
//!   when the container is itself a known local allocation,
//!   [`Escape::Global`] when the container is unknown;
//! * passed to a call (receiver or argument) or returned —
//!   [`Escape::Arg`]: the callee/caller can hold the reference;
//! * stored into a static or thrown — [`Escape::Global`].
//!
//! Escalation walks every value's *possible* site set (the points-to
//! sites, with or without external taint), so a site is never lost at
//! a phi that also merges an unknown reference. The soundness argument
//! for the single pass (no fixpoint) then rests on one lemma the
//! optimizer's "facts survive calls" rule also relies on: **the
//! external component of a points-to fact can never denote an
//! [`Escape::No`] site.** A `NoEscape` site was, by definition, never
//! stored anywhere, never passed, returned, or thrown — so no
//! reference to it exists in the heap, in any static, in a callee, or
//! in the caller. But external references only arise from parameters,
//! heap loads, call results, and caught exceptions — exactly the
//! channels a `NoEscape` site can never travel. Hence skipping the
//! external component during escalation only ever under-ranks sites
//! that already escaped through a syntactic event of their own — and
//! consumers treat `Arg` and `Global` identically anyway (both
//! invalidate heap facts at calls and both disqualify dead-store
//! elimination).
//!
//! Consumers: `opt::loadfwd` keeps `(site, field)` facts alive across
//! calls when every site of the base is `NoEscape` (the callee cannot
//! possibly obtain the reference, so it cannot write the field);
//! `opt::dse` deletes the stores [`never_read_stores`] finds, and the
//! [`crate::lint`]er reports the same stores and surfaces the other
//! facts as heap diagnostics.

use crate::alias::{AliasAnalysis, AllocSite};
use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::types::{FieldRef, TypeId};
use safetsa_core::value::{BlockId, ValueId};
use std::collections::BTreeSet;
use std::collections::HashMap;

/// How far a site's references can travel, ordered by reach.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Escape {
    /// Never leaves the function's SSA values: no store, call,
    /// return, or throw ever saw a reference to it.
    #[default]
    No,
    /// Reaches a callee or the caller (call argument/receiver, return
    /// value, or stored inside another local allocation that may do
    /// so).
    Arg,
    /// Reaches a static field or an exception path — any code may hold
    /// it afterwards.
    Global,
}

impl Escape {
    /// The lowercase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Escape::No => "no-escape",
            Escape::Arg => "arg-escape",
            Escape::Global => "global-escape",
        }
    }
}

/// Per-site escape classification for one function.
#[derive(Debug)]
pub struct EscapeAnalysis {
    states: HashMap<AllocSite, Escape>,
}

impl EscapeAnalysis {
    /// The classification of `site` ([`Escape::No`] when no event ever
    /// escalated it).
    pub fn of(&self, site: AllocSite) -> Escape {
        self.states.get(&site).copied().unwrap_or(Escape::No)
    }

    /// Whether every site of `sites` is [`Escape::No`] — the guard for
    /// keeping heap facts alive across a call and for dead-store
    /// elimination.
    pub fn all_no_escape(&self, sites: &BTreeSet<AllocSite>) -> bool {
        sites.iter().all(|s| self.of(*s) == Escape::No)
    }

    /// `(no, arg, global)` site counts over `sites`.
    pub fn counts(&self, sites: &[AllocSite]) -> (u64, u64, u64) {
        let mut c = (0, 0, 0);
        for s in sites {
            match self.of(*s) {
                Escape::No => c.0 += 1,
                Escape::Arg => c.1 += 1,
                Escape::Global => c.2 += 1,
            }
        }
        c
    }
}

/// Runs the escape analysis over `f`, on top of `alias`'s facts.
pub fn analyze(f: &Function, cfg: &Cfg, alias: &AliasAnalysis) -> EscapeAnalysis {
    let mut states: HashMap<AllocSite, Escape> = HashMap::new();
    let mut escalate = |v: ValueId, to: Escape| {
        // The external component of the fact cannot denote a NoEscape
        // site (see module docs), so the site set covers everything
        // that soundly needs escalation.
        for s in alias.possible_sites(v) {
            let e = states.entry(s).or_default();
            *e = (*e).max(to);
        }
    };

    for block in &f.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::SetField { object, value, .. } => {
                    let level = if alias.sites_of(*object).is_some() {
                        Escape::Arg
                    } else {
                        Escape::Global
                    };
                    escalate(*value, level);
                }
                Instr::SetElt { array, value, .. } => {
                    let level = if alias.sites_of(*array).is_some() {
                        Escape::Arg
                    } else {
                        Escape::Global
                    };
                    escalate(*value, level);
                }
                Instr::SetStatic { value, .. } => escalate(*value, Escape::Global),
                Instr::XCall { receiver, args, .. } => {
                    if let Some(r) = receiver {
                        escalate(*r, Escape::Arg);
                    }
                    for a in args {
                        escalate(*a, Escape::Arg);
                    }
                }
                Instr::XDispatch { receiver, args, .. } => {
                    escalate(*receiver, Escape::Arg);
                    for a in args {
                        escalate(*a, Escape::Arg);
                    }
                }
                _ => {}
            }
        }
    }
    for (_, v) in &cfg.return_uses {
        if let Some(v) = v {
            escalate(*v, Escape::Arg);
        }
    }
    for (_, v) in &cfg.throw_uses {
        escalate(*v, Escape::Global);
    }

    EscapeAnalysis { states }
}

/// The stores in `f` that nothing can read back, as (block, instruction
/// index) pairs in order: dead-store elimination's never-read rule
/// deletes exactly these, and the [`crate::lint`]er reports them as
/// `never-read-store`.
///
/// A `setfield` (`setelt`) qualifies when its base's points-to set is
/// complete and all `NoEscape`, and no `getfield` of the same field
/// (`getelt` of the same array type) in `f` may read through any of
/// those sites. A `NoEscape` site has no reference outside `f`'s SSA
/// values, and by the escape lemma an external-tainted load base never
/// denotes one, so intersecting site sets is the exact observer test.
pub fn never_read_stores(
    f: &Function,
    alias: &AliasAnalysis,
    esc: &EscapeAnalysis,
) -> Vec<(BlockId, usize)> {
    // Per field and per element type, the union of the sites any load's
    // base may denote.
    let mut field_reads: HashMap<FieldRef, BTreeSet<AllocSite>> = HashMap::new();
    let mut elt_reads: HashMap<TypeId, BTreeSet<AllocSite>> = HashMap::new();
    for block in &f.blocks {
        for instr in &block.instrs {
            match instr {
                Instr::GetField { object, field, .. } => {
                    field_reads
                        .entry(*field)
                        .or_default()
                        .extend(alias.possible_sites(*object));
                }
                Instr::GetElt { arr_ty, array, .. } => {
                    elt_reads
                        .entry(*arr_ty)
                        .or_default()
                        .extend(alias.possible_sites(*array));
                }
                _ => {}
            }
        }
    }
    let unread = |base: ValueId, reads: Option<&BTreeSet<AllocSite>>| {
        alias.sites_of(base).is_some_and(|sites| {
            esc.all_no_escape(sites) && reads.is_none_or(|r| sites.iter().all(|s| !r.contains(s)))
        })
    };
    let mut stores = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        for (k, instr) in block.instrs.iter().enumerate() {
            let never_read = match instr {
                Instr::SetField { object, field, .. } => unread(*object, field_reads.get(field)),
                Instr::SetElt { arr_ty, array, .. } => unread(*array, elt_reads.get(arr_ty)),
                _ => false,
            };
            if never_read {
                stores.push((BlockId(bi as u32), k));
            }
        }
    }
    stores
}
