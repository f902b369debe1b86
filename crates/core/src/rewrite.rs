//! Function rewriting utilities: value substitution and compaction.
//!
//! Optimization passes (dead-code/phi elimination, CSE) first decide on
//! a substitution (`old value → replacement value`) and a set of
//! phis/instructions to delete, then call [`compact`] to rewrite the
//! function in place with dense value ids and consistent def sites.

use crate::function::Function;
#[cfg(test)]
use crate::instr::Instr;
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

/// Marks each `(block, index)` of `deleted` in a flat per-block array
/// (`start[b]` is block `b`'s first slot), then numbers each block's
/// surviving slots densely from 0; deleted slots hold [`DELETED`].
/// Pairs naming no slot are ignored.
fn survivors(start: &[u32], deleted: &[(BlockId, usize)], new_idx: &mut [u32]) {
    for &(b, i) in deleted {
        if let Some(range) = start.get(b.index()..b.index() + 2) {
            if i < (range[1] - range[0]) as usize {
                new_idx[range[0] as usize + i] = DELETED;
            }
        }
    }
    for range in start.windows(2) {
        let mut k = 0;
        for slot in &mut new_idx[range[0] as usize..range[1] as usize] {
            if *slot != DELETED {
                *slot = k;
                k += 1;
            }
        }
    }
}

/// A deleted slot in [`survivors`]' numbering.
const DELETED: u32 = u32::MAX;

/// Applies `rw` to `f` in place, compacting it.
///
/// All surviving operands are substituted; deleted phis/instructions are
/// removed; value ids are renumbered densely; def sites, block results,
/// and safe-index provenance are rebuilt. Survivors keep their order,
/// and the surviving phis and instructions of each block are numbered
/// through one flat index array per kind.
///
/// # Panics
///
/// Panics if a deleted value is still referenced by a surviving
/// instruction, phi, or terminator after substitution. `f` is then
/// partly rewritten.
pub fn compact(f: &mut Function, rw: &Rewrite) {
    // Per block, the new index of every phi and instruction.
    let mut phi_start = Vec::with_capacity(f.blocks.len() + 1);
    let mut instr_start = Vec::with_capacity(f.blocks.len() + 1);
    let (mut phis, mut instrs) = (0u32, 0u32);
    for block in &f.blocks {
        phi_start.push(phis);
        instr_start.push(instrs);
        phis += block.phis.len() as u32;
        instrs += block.instrs.len() as u32;
    }
    phi_start.push(phis);
    instr_start.push(instrs);
    let mut phi_new = vec![0; phis as usize];
    let mut instr_new = vec![0; instrs as usize];
    survivors(&phi_start, &rw.delete_phis, &mut phi_new);
    survivors(&instr_start, &rw.delete_instrs, &mut instr_new);

    // Pass 1: new ids for surviving values, in the original value-id
    // order (preloads keep their positions).
    let mut new_id: Vec<Option<ValueId>> = vec![None; f.values.len()];
    let mut kept = 0;
    for (vi, id) in new_id.iter_mut().enumerate() {
        let info = f.values[vi];
        let def = match info.def {
            Def::Phi(b, i) => match phi_new[(phi_start[b.index()] + i) as usize] {
                DELETED => continue,
                k => Def::Phi(b, k),
            },
            Def::Instr(b, i) => match instr_new[(instr_start[b.index()] + i) as usize] {
                DELETED => continue,
                k => Def::Instr(b, k),
            },
            d => d,
        };
        *id = Some(ValueId(kept as u32));
        f.values[kept] = ValueInfo { def, ..info };
        kept += 1;
    }
    f.values.truncate(kept);
    let map = |v: ValueId| -> ValueId {
        let r = rw.resolve(v);
        new_id[r.index()].unwrap_or_else(|| panic!("rewrite: deleted value {r} still referenced"))
    };
    // Fix provenance references.
    for info in &mut f.values {
        if let Some(p) = info.provenance {
            let r = rw.resolve(p);
            info.provenance = Some(new_id[r.index()].expect("provenance deleted"));
        }
    }

    // Pass 2: compact the blocks and their result caches.
    for (bi, (block, res)) in f.blocks.iter_mut().zip(&mut f.results).enumerate() {
        // Survivor `i` moves down to its new index `k <= i`; the deleted
        // ones end up past the last survivor and are cut off.
        let mut kept = 0;
        let new_idx = &phi_new[phi_start[bi] as usize..phi_start[bi + 1] as usize];
        for (i, &k) in new_idx.iter().enumerate().filter(|(_, &k)| k != DELETED) {
            let k = k as usize;
            block.phis.swap(k, i);
            for (_, v) in &mut block.phis[k].args {
                *v = map(*v);
            }
            res.phi_results[k] = map(res.phi_results[i]);
            kept = k + 1;
        }
        block.phis.truncate(kept);
        res.phi_results.truncate(kept);
        let mut kept = 0;
        let new_idx = &instr_new[instr_start[bi] as usize..instr_start[bi + 1] as usize];
        for (i, &k) in new_idx.iter().enumerate().filter(|(_, &k)| k != DELETED) {
            let k = k as usize;
            block.instrs.swap(k, i);
            block.instrs[k].map_operands(&mut |v| map(v));
            res.instr_results[k] = res.instr_results[i].map(&map);
            kept = k + 1;
        }
        block.instrs.truncate(kept);
        res.instr_results.truncate(kept);
    }

    // Pass 3: rewrite the CST value references.
    map_cst(&mut f.body, &map);

    for v in &mut f.const_values {
        *v = map(*v);
    }
}

fn map_cst(cst: &mut crate::cst::Cst, map: &impl Fn(ValueId) -> ValueId) {
    use crate::cst::Cst;
    match cst {
        Cst::Seq(items) => {
            for c in items {
                map_cst(c, map);
            }
        }
        Cst::If {
            cond,
            then_br,
            else_br,
            ..
        } => {
            *cond = map(*cond);
            map_cst(then_br, map);
            map_cst(else_br, map);
        }
        Cst::Loop { body, .. } | Cst::Labeled { body, .. } => map_cst(body, map),
        Cst::Return(v) => *v = v.map(map),
        Cst::Throw(v) => *v = map(*v),
        Cst::Try { body, handler, .. } => {
            map_cst(body, map);
            map_cst(handler, map);
        }
        Cst::Basic(_) | Cst::Break(_) | Cst::Continue(_) => {}
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
    // Dead phis: results never used outside the deleted set. A resolved
    // value is never a key of `rw.replace`, so a resolved value defined
    // by a phi names a phi that survives the trivial-phi sweep.
    let mut live = vec![false; f.values.len()];
    let mut work: Vec<ValueId> = Vec::new();
    {
        let mut seed = |v: ValueId| {
            if matches!(f.value(v).def, Def::Phi(..)) && !live[v.index()] {
                live[v.index()] = true;
                work.push(v);
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
    while let Some(phi) = work.pop() {
        let Def::Phi(b, k) = f.value(phi).def else {
            unreachable!("only phis are queued");
        };
        for &(_, v) in &f.block(b).phis[k as usize].args {
            let v = rw.resolve(v);
            if matches!(f.value(v).def, Def::Phi(..)) && !live[v.index()] {
                live[v.index()] = true;
                work.push(v);
            }
        }
    }
    for (bi, res) in f.results.iter().enumerate() {
        for (k, &me) in res.phi_results.iter().enumerate() {
            if !live[me.index()] && !rw.replace.contains_key(&me) {
                rw.delete_phis.push((BlockId(bi as u32), k));
            }
        }
    }
    if rw.is_empty() {
        return 0;
    }
    let removed = rw.delete_phis.len();
    compact(f, &rw);
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
                    args: [f.param_value(0), f.param_value(1)].into(),
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
                    args: [f.param_value(0), f.param_value(0)].into(),
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(live))]);
        let mut rw = Rewrite::default();
        rw.delete_instrs.push((ENTRY, 0));
        compact(&mut f, &rw);
        let g = f;
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
                    args: [f.param_value(0), f.param_value(1)].into(),
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
                    args: [f.param_value(0), f.param_value(1)].into(),
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
                    args: [a, b].into(),
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(c))]);
        let mut rw = Rewrite::default();
        rw.replace.insert(b, a);
        rw.delete_instrs.push((ENTRY, 1));
        compact(&mut f, &rw);
        let g = f;
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
                    args: [f.param_value(0), f.param_value(0)].into(),
                },
            )
            .unwrap()
            .unwrap();
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(a))]);
        let mut rw = Rewrite::default();
        rw.delete_instrs.push((ENTRY, 0)); // but `a` is returned
        compact(&mut f, &rw);
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
