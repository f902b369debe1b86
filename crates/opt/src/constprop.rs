//! Constant propagation and folding over the SSA graph.
//!
//! Instructions whose operands all resolve to constant-pool pre-loads
//! are evaluated with Java semantics and replaced by (possibly new)
//! constant-pool entries. Exceptional cases (division by a constant
//! zero) are left in place so the runtime exception survives.

use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::rewrite::{compact, used_values, Rewrite};
use safetsa_core::types::{PrimKind, TypeKind, TypeTable};
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
    *f = compact(f, &rw);
    removed
}

fn lit_of(consts: &HashMap<ValueId, Literal>, v: ValueId) -> Option<&Literal> {
    consts.get(&v)
}

/// Folds one instruction if all operands are known constants and the
/// operation cannot trap.
fn try_fold(
    types: &TypeTable,
    consts: &HashMap<ValueId, Literal>,
    instr: &Instr,
) -> Option<Literal> {
    let Instr::Primitive { ty, op, args } = instr else {
        return None;
    };
    let kind = match types.kind(*ty) {
        TypeKind::Prim(k) => k,
        _ => return None,
    };
    let name = primops::resolve(kind, *op)?.name;
    let lits: Vec<&Literal> = args
        .iter()
        .map(|a| lit_of(consts, *a))
        .collect::<Option<Vec<_>>>()?;
    fold_prim(kind, name, &lits)
}

#[allow(clippy::too_many_lines)]
fn fold_prim(kind: PrimKind, name: &str, a: &[&Literal]) -> Option<Literal> {
    use Literal::*;
    Some(match (kind, a) {
        (PrimKind::Bool, [Bool(x)]) => match name {
            "not" => Bool(!x),
            _ => return None,
        },
        (PrimKind::Bool, [Bool(x), Bool(y)]) => match name {
            "and" => Bool(x & y),
            "or" => Bool(x | y),
            "xor" => Bool(x ^ y),
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            _ => return None,
        },
        (PrimKind::Char, [Char(x)]) => match name {
            "to_int" => Int(*x as i32),
            _ => return None,
        },
        (PrimKind::Char, [Char(x), Char(y)]) => match name {
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            "lt" => Bool(x < y),
            "le" => Bool(x <= y),
            "gt" => Bool(x > y),
            "ge" => Bool(x >= y),
            _ => return None,
        },
        (PrimKind::Int, [Int(x)]) => match name {
            "neg" => Int(x.wrapping_neg()),
            "not" => Int(!x),
            "to_char" => Char(*x as u16),
            "to_long" => Long(*x as i64),
            "to_float" => Float(*x as f32),
            "to_double" => Double(*x as f64),
            _ => return None,
        },
        (PrimKind::Int, [Int(x), Int(y)]) => match name {
            "add" => Int(x.wrapping_add(*y)),
            "sub" => Int(x.wrapping_sub(*y)),
            "mul" => Int(x.wrapping_mul(*y)),
            "and" => Int(x & y),
            "or" => Int(x | y),
            "xor" => Int(x ^ y),
            "shl" => Int(x.wrapping_shl(*y as u32 & 31)),
            "shr" => Int(x.wrapping_shr(*y as u32 & 31)),
            "ushr" => Int(((*x as u32) >> (*y as u32 & 31)) as i32),
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            "lt" => Bool(x < y),
            "le" => Bool(x <= y),
            "gt" => Bool(x > y),
            "ge" => Bool(x >= y),
            _ => return None, // div/rem are xprimitives anyway
        },
        (PrimKind::Long, [Long(x)]) => match name {
            "neg" => Long(x.wrapping_neg()),
            "not" => Long(!x),
            "to_int" => Int(*x as i32),
            "to_float" => Float(*x as f32),
            "to_double" => Double(*x as f64),
            _ => return None,
        },
        (PrimKind::Long, [Long(x), Long(y)]) => match name {
            "add" => Long(x.wrapping_add(*y)),
            "sub" => Long(x.wrapping_sub(*y)),
            "mul" => Long(x.wrapping_mul(*y)),
            "and" => Long(x & y),
            "or" => Long(x | y),
            "xor" => Long(x ^ y),
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            "lt" => Bool(x < y),
            "le" => Bool(x <= y),
            "gt" => Bool(x > y),
            "ge" => Bool(x >= y),
            _ => return None,
        },
        (PrimKind::Long, [Long(x), Int(y)]) => match name {
            "shl" => Long(x.wrapping_shl(*y as u32 & 63)),
            "shr" => Long(x.wrapping_shr(*y as u32 & 63)),
            "ushr" => Long(((*x as u64) >> (*y as u32 & 63)) as i64),
            _ => return None,
        },
        // Floating point folding is bit-exact and safe.
        (PrimKind::Float, [Float(x)]) => match name {
            "neg" => Float(-x),
            "to_int" => Int(*x as i32),
            "to_long" => Long(*x as i64),
            "to_double" => Double(*x as f64),
            _ => return None,
        },
        (PrimKind::Float, [Float(x), Float(y)]) => match name {
            "add" => Float(x + y),
            "sub" => Float(x - y),
            "mul" => Float(x * y),
            "div" => Float(x / y),
            "rem" => Float(x % y),
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            "lt" => Bool(x < y),
            "le" => Bool(x <= y),
            "gt" => Bool(x > y),
            "ge" => Bool(x >= y),
            _ => return None,
        },
        (PrimKind::Double, [Double(x)]) => match name {
            "neg" => Double(-x),
            "to_int" => Int(*x as i32),
            "to_long" => Long(*x as i64),
            "to_float" => Float(*x as f32),
            _ => return None,
        },
        (PrimKind::Double, [Double(x), Double(y)]) => match name {
            "add" => Double(x + y),
            "sub" => Double(x - y),
            "mul" => Double(x * y),
            "div" => Double(x / y),
            "rem" => Double(x % y),
            "eq" => Bool(x == y),
            "ne" => Bool(x != y),
            "lt" => Bool(x < y),
            "le" => Bool(x <= y),
            "gt" => Bool(x > y),
            "ge" => Bool(x >= y),
            _ => return None,
        },
        _ => return None,
    })
}
