//! Constant propagation and folding over the SSA graph.
//!
//! `primitive` instructions whose operands all resolve to constant-pool
//! pre-loads are evaluated through [`primops::apply1`] and
//! [`primops::apply2`], the same Java semantics the VM executes, and
//! replaced by (possibly new) constant-pool entries. No `xprimitive` is
//! folded, so every exceptional operation stays in place with its
//! runtime exception.

use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::rewrite::{compact, used_values, Rewrite};
use safetsa_core::types::{TypeKind, TypeTable};
use safetsa_core::value::{BlockId, Const, Literal, ValueId};
use std::collections::HashMap;

/// Runs constant propagation; returns the new function and the number
/// of instructions folded away.
pub fn run(types: &TypeTable, f: &Function) -> (Function, usize) {
    let mut g = f.clone();
    let removed = apply(types, &mut g);
    (g, removed)
}

/// Runs constant propagation on `f` in place; returns the number of
/// instructions folded away.
pub(crate) fn apply(types: &TypeTable, f: &mut Function) -> usize {
    // Constant environment: value → literal.
    let mut consts: HashMap<ValueId, Literal> = HashMap::new();
    for (i, c) in f.consts.iter().enumerate() {
        consts.insert(f.const_value(i), c.lit.clone());
    }
    // One forward sweep per block (operands always dominate uses, and
    // dominators appear earlier only along the tree — a block-order
    // sweep is still sound because we only ever *add* facts keyed by
    // value id, and ids are unique).
    let mut fold: Vec<(BlockId, usize, Literal, safetsa_core::types::TypeId)> = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        for (k, instr) in block.instrs.iter().enumerate() {
            let Some(result) = f.instr_result(BlockId(bi as u32), k) else {
                continue;
            };
            let Some(lit) = try_fold(types, &consts, instr) else {
                continue;
            };
            let ty = f.value_ty(result);
            consts.insert(result, lit.clone());
            fold.push((BlockId(bi as u32), k, lit, ty));
        }
    }
    if fold.is_empty() {
        return 0;
    }
    // Materialize pool entries, then rewrite uses.
    let mut rw = Rewrite::default();
    for (b, k, lit, ty) in &fold {
        let cv = f.add_const(Const {
            ty: *ty,
            lit: lit.clone(),
        });
        let result = f.instr_result(*b, *k).expect("folded instr has result");
        if cv != result {
            rw.replace.insert(result, cv);
        }
    }
    // Delete folded instructions that are no longer referenced (they
    // cannot be: every use was substituted; exceptional ones were never
    // folded).
    let used = used_values(f, &rw);
    let mut removed = 0;
    for (b, k, _, _) in &fold {
        let result = f.instr_result(*b, *k).expect("folded instr has result");
        if !used.contains(&rw.resolve(result)) || rw.replace.contains_key(&result) {
            rw.delete_instrs.push((*b, *k));
            removed += 1;
        }
    }
    if rw.is_empty() {
        return 0;
    }
    compact(f, &rw);
    removed
}

/// Folds one `primitive` instruction if all operands are known
/// constants on the op's parameter planes.
fn try_fold(
    types: &TypeTable,
    consts: &HashMap<ValueId, Literal>,
    instr: &Instr,
) -> Option<Literal> {
    let Instr::Primitive { ty, op, args } = instr else {
        return None;
    };
    let TypeKind::Prim(kind) = types.kind(*ty) else {
        return None;
    };
    let params = primops::resolve(kind, *op)?.params;
    let lits: Vec<&Literal> = args.iter().map(|a| consts.get(a)).collect::<Option<_>>()?;
    if lits.len() != params.len()
        || lits
            .iter()
            .zip(params)
            .any(|(l, &p)| l.prim_kind() != Some(p))
    {
        return None;
    }
    match *lits.as_slice() {
        [a] => primops::apply1::<Literal>(kind, *op, a).ok(),
        [a, b] => primops::apply2::<Literal>(kind, *op, a, b).ok(),
        _ => None,
    }
}
