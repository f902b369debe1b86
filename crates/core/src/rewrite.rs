//! Function rewriting utilities: value substitution and compaction.
//!
//! Optimization passes (dead-code/phi elimination, CSE) first decide on
//! a substitution (`old value → replacement value`) and a set of
//! phis/instructions to delete, then call [`compact`] to rebuild the
//! function with dense value ids and consistent def sites.

use crate::function::{Block, BlockResults, Function};
#[cfg(test)]
use crate::instr::Instr;
use crate::instr::Phi;
use crate::value::{BlockId, Def, ValueId, ValueInfo};
use std::collections::HashMap;

/// A rewrite plan for one function.
#[derive(Debug, Clone, Default)]
pub struct Rewrite {
    /// Value substitutions applied to every operand (resolved
    /// transitively). Keys must not appear in `delete`d instructions'
    /// operand positions after substitution.
    pub replace: HashMap<ValueId, ValueId>,
    /// Phis to delete, as `(block, phi index)`.
    pub delete_phis: Vec<(BlockId, usize)>,
    /// Instructions to delete, as `(block, instr index)`. Their results
    /// (if any) must be unused after substitution.
    pub delete_instrs: Vec<(BlockId, usize)>,
}

impl Rewrite {
    /// Whether the plan changes anything.
    pub fn is_empty(&self) -> bool {
        self.replace.is_empty() && self.delete_phis.is_empty() && self.delete_instrs.is_empty()
    }

    /// Resolves a value through the substitution chain.
    pub fn resolve(&self, mut v: ValueId) -> ValueId {
        let mut steps = 0;
        while let Some(&n) = self.replace.get(&v) {
            v = n;
            steps += 1;
            assert!(steps <= self.replace.len(), "substitution cycle");
        }
        v
    }
}

/// Applies `rw` to `f`, producing a compacted function.
///
/// All surviving operands are substituted; deleted phis/instructions are
/// removed; value ids are renumbered densely; def sites, block results,
/// and safe-index provenance are rebuilt.
///
/// # Panics
///
/// Panics if a deleted value is still referenced by a surviving
/// instruction, phi, or terminator after substitution.
pub fn compact(f: &Function, rw: &Rewrite) -> Function {
    use std::collections::HashSet;
    let dead_phis: HashSet<(u32, usize)> = rw.delete_phis.iter().map(|(b, i)| (b.0, *i)).collect();
    let dead_instrs: HashSet<(u32, usize)> =
        rw.delete_instrs.iter().map(|(b, i)| (b.0, *i)).collect();

    // Pass 1: allocate new ids for surviving values, in the original
    // value-id order (preloads keep their positions).
    let mut new_id: Vec<Option<ValueId>> = vec![None; f.values.len()];
    let mut new_values: Vec<ValueInfo> = Vec::with_capacity(f.values.len());
    // Per-block new indices for phis/instrs.
    let mut phi_new_idx: HashMap<(u32, usize), u32> = HashMap::new();
    let mut instr_new_idx: HashMap<(u32, usize), u32> = HashMap::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        let mut k = 0;
        for i in 0..block.phis.len() {
            if !dead_phis.contains(&(bi as u32, i)) {
                phi_new_idx.insert((bi as u32, i), k);
                k += 1;
            }
        }
        let mut k = 0;
        for i in 0..block.instrs.len() {
            if !dead_instrs.contains(&(bi as u32, i)) {
                instr_new_idx.insert((bi as u32, i), k);
                k += 1;
            }
        }
    }
    for (vi, info) in f.values.iter().enumerate() {
        let keep = match info.def {
            Def::Param(_) | Def::Const(_) => true,
            Def::Phi(b, i) => !dead_phis.contains(&(b.0, i as usize)),
            Def::Instr(b, i) => !dead_instrs.contains(&(b.0, i as usize)),
        };
        if keep {
            let id = ValueId(new_values.len() as u32);
            new_id[vi] = Some(id);
            let def = match info.def {
                Def::Phi(b, i) => Def::Phi(b, phi_new_idx[&(b.0, i as usize)]),
                Def::Instr(b, i) => Def::Instr(b, instr_new_idx[&(b.0, i as usize)]),
                d => d,
            };
            new_values.push(ValueInfo { def, ..*info });
        }
    }
    let map = |v: ValueId| -> ValueId {
        let r = rw.resolve(v);
        new_id[r.index()].unwrap_or_else(|| panic!("rewrite: deleted value {r} still referenced"))
    };
    // Fix provenance references.
    for info in &mut new_values {
        if let Some(p) = info.provenance {
            let r = rw.resolve(p);
            info.provenance = Some(new_id[r.index()].expect("provenance deleted"));
        }
    }

    // Pass 2: rebuild blocks.
    let mut blocks = Vec::with_capacity(f.blocks.len());
    let mut results = Vec::with_capacity(f.blocks.len());
    for (bi, block) in f.blocks.iter().enumerate() {
        let mut nb = Block::default();
        let mut nr = BlockResults::default();
        for (i, phi) in block.phis.iter().enumerate() {
            if dead_phis.contains(&(bi as u32, i)) {
                continue;
            }
            let args = phi.args.iter().map(|(p, v)| (*p, map(*v))).collect();
            nb.phis.push(Phi { ty: phi.ty, args });
            nr.phi_results
                .push(map(f.phi_result(BlockId(bi as u32), i)));
        }
        for (i, instr) in block.instrs.iter().enumerate() {
            if dead_instrs.contains(&(bi as u32, i)) {
                continue;
            }
            let mut ni = instr.clone();
            ni.map_operands(&mut |v| map(v));
            nb.instrs.push(ni);
            nr.instr_results
                .push(f.instr_result(BlockId(bi as u32), i).map(&map));
        }
        blocks.push(nb);
        results.push(nr);
    }

    // Pass 3: rebuild the CST value references.
    let body = map_cst(&f.body, &map);

    let const_values = f.const_values.iter().map(|v| map(*v)).collect();
    Function {
        name: f.name.clone(),
        class: f.class,
        params: f.params.clone(),
        ret: f.ret,
        consts: f.consts.clone(),
        const_values,
        blocks,
        results,
        values: new_values,
        body,
    }
}

fn map_cst(cst: &crate::cst::Cst, map: &impl Fn(ValueId) -> ValueId) -> crate::cst::Cst {
    use crate::cst::Cst;
    match cst {
        Cst::Basic(b) => Cst::Basic(*b),
        Cst::Seq(items) => Cst::Seq(items.iter().map(|c| map_cst(c, map)).collect()),
        Cst::If {
            cond,
            then_br,
            else_br,
            join,
        } => Cst::If {
            cond: map(*cond),
            then_br: Box::new(map_cst(then_br, map)),
            else_br: Box::new(map_cst(else_br, map)),
            join: *join,
        },
        Cst::Loop { header, body } => Cst::Loop {
            header: *header,
            body: Box::new(map_cst(body, map)),
        },
        Cst::Labeled { body, join } => Cst::Labeled {
            body: Box::new(map_cst(body, map)),
            join: *join,
        },
        Cst::Break(n) => Cst::Break(*n),
        Cst::Continue(n) => Cst::Continue(*n),
        Cst::Return(v) => Cst::Return(v.map(map)),
        Cst::Throw(v) => Cst::Throw(map(*v)),
        Cst::Try {
            body,
            handler_entry,
            handler,
            join,
        } => Cst::Try {
            body: Box::new(map_cst(body, map)),
            handler_entry: *handler_entry,
            handler: Box::new(map_cst(handler, map)),
            join: *join,
        },
    }
}

/// Collects every value used by surviving instructions, phis, and
/// terminators (ignoring the deletions listed in `rw`).
pub fn used_values(f: &Function, rw: &Rewrite) -> std::collections::HashSet<ValueId> {
    use std::collections::HashSet;
    let dead_phis: HashSet<(u32, usize)> = rw.delete_phis.iter().map(|(b, i)| (b.0, *i)).collect();
    let dead_instrs: HashSet<(u32, usize)> =
        rw.delete_instrs.iter().map(|(b, i)| (b.0, *i)).collect();
    let mut used = HashSet::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        for (i, phi) in block.phis.iter().enumerate() {
            if dead_phis.contains(&(bi as u32, i)) {
                continue;
            }
            for (_, v) in &phi.args {
                used.insert(rw.resolve(*v));
            }
        }
        for (i, instr) in block.instrs.iter().enumerate() {
            if dead_instrs.contains(&(bi as u32, i)) {
                continue;
            }
            for &v in instr.operands().iter() {
                used.insert(rw.resolve(v));
            }
        }
    }
    collect_cst_uses(&f.body, rw, &mut used);
    used
}

fn collect_cst_uses(
    cst: &crate::cst::Cst,
    rw: &Rewrite,
    used: &mut std::collections::HashSet<ValueId>,
) {
    use crate::cst::Cst;
    cst.walk(&mut |c| match c {
        Cst::If { cond, .. } => {
            used.insert(rw.resolve(*cond));
        }
        Cst::Return(Some(v)) | Cst::Throw(v) => {
            used.insert(rw.resolve(*v));
        }
        _ => {}
    });
}

/// Removes trivial phis (all operands equal, or equal to the phi
/// itself) and dead phis (transitively unused) from `f` in place.
/// Returns the number of phis removed; when it is zero, `f` is
/// untouched.
///
/// The paper performs this cleanup as part of SSA construction (§7,
/// the Briggs-style pruning) and again during producer-side dead-code
/// elimination; both callers share this implementation.
pub fn prune_phis(f: &mut Function) -> usize {
    let mut removed_total = 0;
    loop {
        let removed = prune_once(f);
        if removed == 0 {
            return removed_total;
        }
        removed_total += removed;
    }
}

fn prune_once(f: &mut Function) -> usize {
    use std::collections::HashSet;
    let mut rw = Rewrite::default();
    // Trivial phis: operands all resolve to one value (ignoring self).
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, block) in f.blocks.iter().enumerate() {
            for (k, phi) in block.phis.iter().enumerate() {
                let me = f.phi_result(BlockId(bi as u32), k);
                if rw.replace.contains_key(&me) {
                    continue;
                }
                let mut unique: Option<ValueId> = None;
                let mut trivial = true;
                for (_, arg) in &phi.args {
                    let a = rw.resolve(*arg);
                    if a == rw.resolve(me) {
                        continue;
                    }
                    match unique {
                        None => unique = Some(a),
                        Some(u) if u == a => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if trivial {
                    if let Some(u) = unique {
                        rw.replace.insert(me, u);
                        rw.delete_phis.push((BlockId(bi as u32), k));
                        changed = true;
                    }
                }
            }
        }
    }
    // Dead phis: results never used outside the deleted set.
    let mut phi_of: HashMap<ValueId, (u32, usize)> = HashMap::new();
    let deleted: HashSet<(u32, usize)> = rw.delete_phis.iter().map(|(b, i)| (b.0, *i)).collect();
    for (bi, block) in f.blocks.iter().enumerate() {
        for k in 0..block.phis.len() {
            if deleted.contains(&(bi as u32, k)) {
                continue;
            }
            phi_of.insert(f.phi_result(BlockId(bi as u32), k), (bi as u32, k));
        }
    }
    let mut live: HashSet<(u32, usize)> = HashSet::new();
    let mut work: Vec<(u32, usize)> = Vec::new();
    {
        let mut seed = |v: ValueId| {
            if let Some(&site) = phi_of.get(&v) {
                if live.insert(site) {
                    work.push(site);
                }
            }
        };
        for block in &f.blocks {
            for instr in &block.instrs {
                for &v in instr.operands().iter() {
                    seed(rw.resolve(v));
                }
            }
        }
        f.body.walk(&mut |c| {
            use crate::cst::Cst;
            match c {
                Cst::If { cond, .. } => seed(rw.resolve(*cond)),
                Cst::Return(Some(v)) | Cst::Throw(v) => {
                    seed(rw.resolve(*v));
                }
                _ => {}
            }
        });
        for info in &f.values {
            if let Some(p) = info.provenance {
                seed(rw.resolve(p));
            }
        }
    }
    while let Some((b, k)) = work.pop() {
        let args = f.blocks[b as usize].phis[k].args.clone();
        for (_, v) in args {
            let v = rw.resolve(v);
            if let Some(&site) = phi_of.get(&v) {
                if live.insert(site) {
                    work.push(site);
                }
            }
        }
    }
    for &site in phi_of.values() {
        if !live.contains(&site) {
            rw.delete_phis.push((BlockId(site.0), site.1));
        }
    }
    if rw.is_empty() {
        return 0;
    }
    let removed = rw.delete_phis.len();
    *f = compact(f, &rw);
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::Cst;
    use crate::function::ENTRY;
    use crate::primops;
    use crate::types::{PrimKind, TypeTable};

    #[test]
    fn compact_removes_dead_instruction() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let dead = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), f.param_value(1)],
                },
            )
            .unwrap()
            .unwrap();
        let live = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), f.param_value(0)],
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(live))]);
        let mut rw = Rewrite::default();
        rw.delete_instrs.push((ENTRY, 0));
        let g = compact(&f, &rw);
        assert_eq!(g.instr_count(), 1);
        assert_eq!(g.values.len(), 3); // 2 params + 1 instr
                                       // The return value was renumbered.
        match &g.body {
            Cst::Seq(items) => match items[1] {
                Cst::Return(Some(v)) => {
                    assert_eq!(g.value(v).def, Def::Instr(ENTRY, 0));
                }
                _ => panic!("bad CST"),
            },
            _ => panic!("bad CST"),
        }
        let _ = dead;
    }

    #[test]
    fn compact_applies_substitution() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let a = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), f.param_value(1)],
                },
            )
            .unwrap()
            .unwrap();
        // duplicate of `a`
        let b = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), f.param_value(1)],
                },
            )
            .unwrap()
            .unwrap();
        let c = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![a, b],
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(c))]);
        let mut rw = Rewrite::default();
        rw.replace.insert(b, a);
        rw.delete_instrs.push((ENTRY, 1));
        let g = compact(&f, &rw);
        assert_eq!(g.instr_count(), 2);
        let last = &g.block(ENTRY).instrs[1];
        let ops = last.operands();
        assert_eq!(ops[0], ops[1], "both operands now the CSE'd value");
    }

    #[test]
    #[should_panic(expected = "still referenced")]
    fn compact_panics_on_dangling_use() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let a = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: vec![f.param_value(0), f.param_value(0)],
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(a))]);
        let mut rw = Rewrite::default();
        rw.delete_instrs.push((ENTRY, 0)); // but `a` is returned
        let _ = compact(&f, &rw);
    }

    #[test]
    fn used_values_sees_terminators() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int], Some(int));
        let _ = &mut types;
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(f.param_value(0)))]);
        let used = used_values(&f, &Rewrite::default());
        assert!(used.contains(&f.param_value(0)));
    }
}
