//! Branch-condition guards: path facts the CST hands out for free.
//!
//! SSA facts are per-value and hence path-insensitive, but a branch
//! condition establishes a *relation between values* that holds on
//! every block of the taken subtree: inside `if (i < n) { … }` the
//! relation `i < n` holds wherever that `then` subtree executes,
//! because SSA values are immutable and the CST guarantees the branch
//! entry dominates the whole subtree. Collecting these per block is a
//! single CST walk — no dominator queries needed.
//!
//! Guards power the flow-sensitive part of nullness (`x != null`
//! branches) and range analysis (loop guards `i < a.length`).

use safetsa_core::cst::Cst;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::primops;
use safetsa_core::types::{PrimKind, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, Def, Literal, ValueId};

/// One relation established by a dominating branch condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Guard {
    /// `a < b` over the `int` plane (signed).
    IntLt(ValueId, ValueId),
    /// `a <= b` over the `int` plane (signed).
    IntLe(ValueId, ValueId),
    /// `a == b` over the `int` plane.
    IntEq(ValueId, ValueId),
    /// The reference value is known non-null on this path.
    NonNull(ValueId),
    /// The reference value is known null on this path.
    IsNull(ValueId),
}

/// The guards active in each block (indexed by block id).
///
/// Every block's guards live back to back in one array; `spans[b]` is
/// the range of block `b`'s run.
#[derive(Debug, Clone, Default)]
pub struct BlockGuards {
    spans: Vec<(u32, u32)>,
    guards: Vec<Guard>,
}

impl BlockGuards {
    /// Guards that hold whenever `b` executes.
    pub fn at(&self, b: BlockId) -> &[Guard] {
        self.spans
            .get(b.index())
            .map_or(&[], |&(lo, hi)| &self.guards[lo as usize..hi as usize])
    }
}

/// Whether `v` is the pre-loaded `null` constant.
fn is_null_const(f: &Function, v: ValueId) -> bool {
    match f.value(v).def {
        Def::Const(i) => matches!(f.consts[i as usize].lit, Literal::Null),
        _ => false,
    }
}

/// The name of the primitive op computing `v`, with its operand plane
/// kind and arguments, if `v` is a primitive result.
fn prim_of<'f>(
    f: &'f Function,
    types: &TypeTable,
    v: ValueId,
) -> Option<(PrimKind, &'static str, &'f [ValueId])> {
    let Def::Instr(b, k) = f.value(v).def else {
        return None;
    };
    match &f.block(b).instrs[k as usize] {
        Instr::Primitive { ty, op, args } => {
            let TypeKind::Prim(kind) = types.kind(*ty) else {
                return None;
            };
            let name = primops::resolve(kind, *op)?.name;
            Some((kind, name, args))
        }
        _ => None,
    }
}

/// Relations implied by `cond` evaluating to `polarity`.
fn cond_guards(
    f: &Function,
    types: &TypeTable,
    cond: ValueId,
    polarity: bool,
    out: &mut Vec<Guard>,
) {
    let Def::Instr(b, k) = f.value(cond).def else {
        return;
    };
    if let Instr::RefEq { a, b: rhs, .. } = &f.block(b).instrs[k as usize] {
        let (a, rhs) = (*a, *rhs);
        let target = if is_null_const(f, a) {
            Some(rhs)
        } else if is_null_const(f, rhs) {
            Some(a)
        } else {
            None
        };
        if let Some(t) = target {
            out.push(if polarity {
                Guard::IsNull(t)
            } else {
                Guard::NonNull(t)
            });
        }
        return;
    }
    let Some((kind, name, args)) = prim_of(f, types, cond) else {
        return;
    };
    match (kind, name) {
        (PrimKind::Bool, "not") => cond_guards(f, types, args[0], !polarity, out),
        (PrimKind::Bool, "and") if polarity => {
            cond_guards(f, types, args[0], true, out);
            cond_guards(f, types, args[1], true, out);
        }
        (PrimKind::Bool, "or") if !polarity => {
            cond_guards(f, types, args[0], false, out);
            cond_guards(f, types, args[1], false, out);
        }
        (PrimKind::Int, cmp) => {
            let (a, b) = (args[0], args[1]);
            match (cmp, polarity) {
                ("lt", true) | ("ge", false) => out.push(Guard::IntLt(a, b)),
                ("le", true) | ("gt", false) => out.push(Guard::IntLe(a, b)),
                ("gt", true) | ("le", false) => out.push(Guard::IntLt(b, a)),
                ("ge", true) | ("lt", false) => out.push(Guard::IntLe(b, a)),
                ("eq", true) | ("ne", false) => out.push(Guard::IntEq(a, b)),
                _ => {}
            }
        }
        _ => {}
    }
}

/// Collects the active guard set for every block of `f` by walking the
/// CST with a stack of branch relations.
pub fn block_guards(f: &Function, types: &TypeTable) -> BlockGuards {
    let mut bg = BlockGuards {
        spans: vec![(0, 0); f.blocks.len()],
        guards: Vec::new(),
    };
    let mut active: Vec<Guard> = Vec::new();
    walk(f, types, &f.body, &mut active, &mut bg);
    bg
}

fn assign(bg: &mut BlockGuards, b: BlockId, active: &[Guard]) {
    let lo = bg.guards.len() as u32;
    bg.guards.extend_from_slice(active);
    bg.spans[b.index()] = (lo, bg.guards.len() as u32);
}

fn walk(f: &Function, types: &TypeTable, cst: &Cst, active: &mut Vec<Guard>, bg: &mut BlockGuards) {
    match cst {
        Cst::Basic(b) => assign(bg, *b, active),
        Cst::Seq(items) => {
            for c in items {
                walk(f, types, c, active, bg);
            }
        }
        Cst::If {
            cond,
            then_br,
            else_br,
            join,
        } => {
            let depth = active.len();
            cond_guards(f, types, *cond, true, active);
            walk(f, types, then_br, active, bg);
            active.truncate(depth);
            cond_guards(f, types, *cond, false, active);
            walk(f, types, else_br, active, bg);
            active.truncate(depth);
            assign(bg, *join, active);
        }
        Cst::Loop { header, body } => {
            assign(bg, *header, active);
            walk(f, types, body, active, bg);
        }
        Cst::Labeled { body, join } => {
            walk(f, types, body, active, bg);
            assign(bg, *join, active);
        }
        Cst::Try {
            body,
            handler_entry,
            handler,
            join,
        } => {
            walk(f, types, body, active, bg);
            // Guards established by scopes enclosing the whole `try`
            // still hold in the handler (the branch entry dominates the
            // try, hence the handler too); guards from inside the body
            // were popped with their subtrees.
            assign(bg, *handler_entry, active);
            walk(f, types, handler, active, bg);
            assign(bg, *join, active);
        }
        Cst::Break(_) | Cst::Continue(_) | Cst::Return(_) | Cst::Throw(_) => {}
    }
}
