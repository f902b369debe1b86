//! Common subexpression elimination with memory dependence tracking.
//!
//! Dominator-scoped available-expression CSE: walking the dominator
//! tree, an instruction whose key is already available in a dominating
//! position is removed and its uses rewired.
//!
//! Memory is modelled exactly as §8 describes: a pseudo-value `Mem`
//! stands for the state of the heap. Every store (`setfield`,
//! `setstatic`, `setelt`) and every call defines a new `Mem`; loads
//! carry the current `Mem` in their key, so two loads of `o.f` only
//! match while no intervening write can have changed the heap. Control
//! flow joins conservatively define a fresh `Mem` (the `Mem`-phi of the
//! paper), as do loop headers.
//!
//! Check elimination falls out of the same mechanism: `nullcheck v`
//! keys only on `v` (null-ness of a value never changes), so a
//! dominating check subsumes later ones — this is how the producer
//! eliminates 30–70% of null checks (Figure 6) and ships the result
//! tamper-proof. `indexcheck` keys on `(array value, index value)`
//! (Appendix A binds safe indices to array values, whose length is
//! immutable).

use crate::facts::{with_facts, Facts};
use crate::fixup;
use crate::MemModel;
use safetsa_core::cfg::Cfg;
use safetsa_core::dom::DomTree;
use safetsa_core::function::Function;
use safetsa_core::instr::{Instr, Operands};
use safetsa_core::rewrite::{compact, Rewrite};
use safetsa_core::types::{FieldRef, TypeId, TypeTable};
use safetsa_core::value::{BlockId, ValueId};
use std::collections::HashMap;

/// An available-expression key. `Mem(u64)` components make load keys
/// valid only within one memory epoch.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Prim(TypeId, u16, Operands<ValueId>),
    NullCheck(ValueId),
    IndexCheck(ValueId, ValueId),
    Downcast(TypeId, TypeId, ValueId),
    Upcast(TypeId, TypeId, ValueId),
    InstanceOf(TypeId, TypeId, ValueId),
    RefEq(ValueId, ValueId),
    ArrayLength(ValueId),
    GetField(u64, ValueId, FieldRef),
    GetStatic(u64, FieldRef),
    GetElt(u64, ValueId, ValueId),
}

/// Runs CSE with the monolithic `Mem` model of §8.
pub fn run(types: &TypeTable, f: &Function) -> (Function, usize) {
    run_with(types, f, MemModel::Monolithic)
}

/// Runs CSE; returns the new function and the number of instructions
/// removed. With [`MemModel::FieldPartitioned`], `Mem` is split by
/// field name / element type — the "simple form of field analysis"
/// the paper's §8 proposes as its first improvement: a store to field
/// `f` only invalidates loads of `f`; an element store to `T[]` only
/// invalidates `T[]` element loads; calls invalidate everything. Type
/// separation makes this sound (a `T[]` store cannot alias a `U[]`
/// load), exactly as the paper notes.
pub fn run_with(types: &TypeTable, f: &Function, model: MemModel) -> (Function, usize) {
    let _ = types;
    let mut g = f.clone();
    let removed = with_facts(|facts| apply(&mut g, facts, model));
    (g, removed)
}

/// Runs CSE on `f` in place, reading the CFG, dominator tree and
/// exception-edge map from `facts`; returns the number of
/// instructions removed.
pub(crate) fn apply(f: &mut Function, facts: &mut Facts, model: MemModel) -> usize {
    let Some(cfg) = facts.cfg(f) else {
        return 0;
    };
    let dom = facts.dom(cfg);
    // Protect handlers from losing their last exception edge.
    let exc_targets = facts.exception_targets(f, cfg);
    let mut edges_per_handler: HashMap<BlockId, usize> = HashMap::new();
    for h in exc_targets.values() {
        *edges_per_handler.entry(*h).or_insert(0) += 1;
    }

    // Recursive walk over the dominator tree with a scoped table.
    struct Walker<'a> {
        f: &'a Function,
        cfg: &'a Cfg,
        dom: &'a DomTree,
        avail: HashMap<Key, ValueId>,
        /// Keys added to `avail`, innermost dominator scope last.
        scoped: Vec<Key>,
        rw: Rewrite,
        removed: usize,
        mem_counter: u64,
        model: MemModel,
        exc_targets: &'a HashMap<(BlockId, usize), BlockId>,
        edges_per_handler: HashMap<BlockId, usize>,
    }

    /// The memory state: a global epoch plus (in the field-partitioned
    /// model) per-partition epochs. A partition's effective epoch is
    /// the larger of its own and the global one.
    #[derive(Clone, Default)]
    struct Mem {
        global: u64,
        parts: HashMap<Part, u64>,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Hash)]
    enum Part {
        Field(FieldRef),
        Static(FieldRef),
        Elements(TypeId),
    }

    impl Mem {
        fn epoch_of(&self, p: Part) -> u64 {
            self.parts.get(&p).copied().unwrap_or(0).max(self.global)
        }
    }

    impl<'a> Walker<'a> {
        fn bump_for_write(&mut self, mem: &mut Mem, instr: &Instr) {
            self.mem_counter += 1;
            let e = self.mem_counter;
            if self.model == MemModel::Monolithic {
                mem.global = e;
                return;
            }
            match instr {
                Instr::SetField { field, .. } => {
                    mem.parts.insert(Part::Field(*field), e);
                }
                Instr::SetStatic { field, .. } => {
                    mem.parts.insert(Part::Static(*field), e);
                }
                Instr::SetElt { arr_ty, .. } => {
                    mem.parts.insert(Part::Elements(*arr_ty), e);
                }
                // Calls may write anything.
                _ => mem.global = e,
            }
        }

        fn visit(&mut self, b: BlockId, mem_in: &Mem) {
            let mut mem = mem_in.clone();
            // Fresh memory epoch at merge points and handler entries
            // (the conservative `Mem`-phi of §8).
            if self.cfg.preds_of(b).len() != 1 {
                self.mem_counter += 1;
                mem.global = self.mem_counter;
            }
            let scope = self.scoped.len();
            let n = self.f.block(b).instrs.len();
            for k in 0..n {
                let instr = &self.f.block(b).instrs[k];
                if instr.writes_memory() {
                    self.bump_for_write(&mut mem, instr);
                }
                let epoch = match instr {
                    Instr::GetField { field, .. } => mem.epoch_of(Part::Field(*field)),
                    Instr::GetStatic { field } => mem.epoch_of(Part::Static(*field)),
                    Instr::GetElt { arr_ty, .. } => mem.epoch_of(Part::Elements(*arr_ty)),
                    _ => mem.global,
                };
                // Resolve operands through earlier substitutions so
                // chained redundancies collapse in one pass.
                let rw = &self.rw;
                let Some(key) = key_of(instr, epoch, |v| rw.resolve(v)) else {
                    continue;
                };
                let result = self.f.instr_result(b, k);
                match self.avail.get(&key) {
                    Some(&prior) => {
                        // Deleting the last exception edge of a handler
                        // would orphan it; skip such deletions.
                        if instr.is_exceptional() {
                            if let Some(h) = self.exc_targets.get(&(b, k)) {
                                let cnt = self.edges_per_handler.get_mut(h).expect("edge counted");
                                if *cnt <= 1 {
                                    continue;
                                }
                                *cnt -= 1;
                            }
                        }
                        if let Some(result) = result {
                            self.rw.replace.insert(result, prior);
                        }
                        self.rw.delete_instrs.push((b, k));
                        self.removed += 1;
                    }
                    None => {
                        if let Some(result) = result {
                            self.avail.insert(key.clone(), result);
                            self.scoped.push(key);
                        }
                    }
                }
            }
            let dom = self.dom;
            for &c in dom.children_of(b) {
                self.visit(c, &mem);
            }
            for key in self.scoped.drain(scope..) {
                self.avail.remove(&key);
            }
        }
    }

    let mut w = Walker {
        f,
        cfg,
        dom,
        avail: HashMap::with_capacity(f.instr_count()),
        scoped: Vec::new(),
        rw: Rewrite::default(),
        removed: 0,
        mem_counter: 0,
        model,
        exc_targets,
        edges_per_handler,
    };
    if !dom.preorder.is_empty() {
        w.visit(dom.preorder[0], &Mem::default());
    }
    let Walker { rw, removed, .. } = w;
    if rw.is_empty() {
        return 0;
    }
    compact(f, &rw);
    // Deleted exceptional instructions take their exception edges with
    // them: drop the now-dangling phi arguments.
    fixup::prune_phi_args(f, facts);
    removed
}

/// The key of `instr` in memory epoch `mem`, with every operand passed
/// through `r` (the substitutions made so far).
fn key_of(instr: &Instr, mem: u64, r: impl Fn(ValueId) -> ValueId) -> Option<Key> {
    Some(match instr {
        // Exceptional primitives (integer div/rem) are deterministic in
        // their operands: if a dominating occurrence didn't trap, the
        // later one wouldn't either.
        Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => {
            Key::Prim(*ty, op.0, args.iter().map(|&a| r(a)).collect())
        }
        Instr::NullCheck { value, .. } => Key::NullCheck(r(*value)),
        Instr::IndexCheck { array, index, .. } => Key::IndexCheck(r(*array), r(*index)),
        Instr::Downcast { from, to, value } => Key::Downcast(*from, *to, r(*value)),
        Instr::Upcast { from, to, value } => Key::Upcast(*from, *to, r(*value)),
        Instr::InstanceOf {
            from,
            target,
            value,
        } => Key::InstanceOf(*from, *target, r(*value)),
        Instr::RefEq { a, b, .. } => {
            // Commutative.
            let (a, b) = (r(*a), r(*b));
            let (x, y) = if a.0 <= b.0 { (a, b) } else { (b, a) };
            Key::RefEq(x, y)
        }
        Instr::ArrayLength { array, .. } => Key::ArrayLength(r(*array)),
        Instr::GetField { object, field, .. } => Key::GetField(mem, r(*object), *field),
        Instr::GetStatic { field } => Key::GetStatic(mem, *field),
        Instr::GetElt { array, index, .. } => Key::GetElt(mem, r(*array), r(*index)),
        _ => return None,
    })
}
