//! The SafeTSA verifier.
//!
//! Because referential integrity and type separation are properties of
//! the encoding, verification reduces to local, linear checks — no
//! dataflow analysis is needed (contrast `safetsa-baseline`'s JVM-style
//! verifier). The checks performed here are:
//!
//! 1. the CST is structurally well formed and the CFG derives from it;
//! 2. unreachable blocks are empty;
//! 3. every instruction types under the rules of [`crate::typing`]
//!    (type separation, safe-operand discipline, downcast safety,
//!    safe-index provenance);
//! 4. every operand *dominates* its use — the invariant the `(l, r)`
//!    wire references make intrinsic;
//! 5. phi operands cover the join's incoming edges exactly, respect
//!    per-edge visibility (exception edges only expose the results
//!    produced before the throwing instruction), and safe-index phis
//!    keep their array provenance in scope;
//! 6. the recorded value table agrees with re-typing (defense in depth
//!    for hand-constructed or decoded functions);
//! 7. `catch` appears exactly at handler entries; functions with a
//!    result type cannot fall off the end.

use crate::cfg::{Cfg, CfgError, EdgeKind};
use crate::cst::Cst;
use crate::dom::DomTree;
use crate::function::{Function, ENTRY};
use crate::instr::Instr;
use crate::module::Module;
use crate::reuse::{vec_bytes, with_thread_buffers, Buffers};
use crate::types::{TypeKind, TypeTable};
use crate::typing::{self, TypeError};
use crate::value::{BlockId, Def, ValueId};
use std::cell::Cell;
use std::fmt;

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The CST was structurally malformed.
    Cfg(CfgError),
    /// An instruction violated the typing rules.
    Type {
        /// Function name.
        func: String,
        /// Block of the offending instruction.
        block: BlockId,
        /// The violation.
        err: TypeError,
    },
    /// An operand does not dominate its use.
    Dominance {
        /// Function name.
        func: String,
        /// Block of the use.
        block: BlockId,
        /// The offending operand.
        value: ValueId,
    },
    /// A value id out of range.
    BadValue(ValueId),
    /// A reachable phi's operands don't match the join's incoming edges.
    PhiArgs {
        /// Function name.
        func: String,
        /// The join block.
        block: BlockId,
        /// Explanation.
        why: &'static str,
    },
    /// Unreachable block contains phis or instructions.
    NonEmptyUnreachable(BlockId),
    /// A block never referenced by the CST.
    UnusedBlock(BlockId),
    /// Two CFG edges between the same pair of blocks (the encoding
    /// requires sub-block splitting to keep phi operands unambiguous).
    DuplicatePred {
        /// The join block.
        block: BlockId,
        /// The duplicated predecessor.
        pred: BlockId,
    },
    /// The recorded value table disagrees with re-typing.
    ValueTable {
        /// Function name.
        func: String,
        /// The inconsistent value.
        value: ValueId,
    },
    /// An instruction's result arity disagrees with the recorded
    /// results: typing says it produces a value but none is recorded,
    /// or vice versa.
    ResultArity {
        /// Function name.
        func: String,
        /// Block of the offending instruction.
        block: BlockId,
        /// Instruction index within the block.
        instr: usize,
    },
    /// `catch` not at a handler entry, or handler entry without `catch`.
    CatchPlacement(BlockId),
    /// An `If` condition is not on the boolean plane.
    CondNotBool(BlockId),
    /// A `Return` value's plane doesn't match the function result.
    ReturnType(BlockId),
    /// A `Throw` operand is not a throwable reference.
    ThrowType(BlockId),
    /// Control can fall off the end of a non-void function.
    MissingReturn(String),
    /// Class metadata inconsistency (bad body index, vtable slot…).
    ClassMeta(String),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Cfg(e) => write!(f, "control structure: {e}"),
            VerifyError::Type { func, block, err } => {
                write!(f, "{func} {block}: {err}")
            }
            VerifyError::Dominance { func, block, value } => {
                write!(
                    f,
                    "{func} {block}: operand {value} does not dominate its use"
                )
            }
            VerifyError::BadValue(v) => write!(f, "value {v} out of range"),
            VerifyError::PhiArgs { func, block, why } => {
                write!(f, "{func} {block}: phi operands invalid: {why}")
            }
            VerifyError::NonEmptyUnreachable(b) => {
                write!(f, "unreachable block {b} is not empty")
            }
            VerifyError::UnusedBlock(b) => write!(f, "block {b} not referenced by the CST"),
            VerifyError::DuplicatePred { block, pred } => {
                write!(f, "join {block} has duplicate predecessor {pred}")
            }
            VerifyError::ValueTable { func, value } => {
                write!(f, "{func}: value table inconsistent at {value}")
            }
            VerifyError::ResultArity { func, block, instr } => {
                write!(
                    f,
                    "{func} {block}: instruction {instr} result arity disagrees with the value table"
                )
            }
            VerifyError::CatchPlacement(b) => write!(f, "catch misplaced at {b}"),
            VerifyError::CondNotBool(b) => write!(f, "condition at {b} is not boolean"),
            VerifyError::ReturnType(b) => write!(f, "return at {b} has wrong plane"),
            VerifyError::ThrowType(b) => write!(f, "throw at {b} is not a throwable"),
            VerifyError::MissingReturn(n) => write!(f, "{n}: control falls off the end"),
            VerifyError::ClassMeta(s) => write!(f, "class metadata: {s}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<CfgError> for VerifyError {
    fn from(e: CfgError) -> Self {
        VerifyError::Cfg(e)
    }
}

/// Statistics from a successful verification (useful for benchmarks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VerifyStats {
    /// Instructions checked.
    pub instrs: usize,
    /// Phi nodes checked.
    pub phis: usize,
    /// Operand references checked for dominance.
    pub operands: usize,
}

/// Position of a definition within its block, for intra-block ordering.
fn def_pos(def: Def) -> (u8, u32) {
    match def {
        Def::Param(i) => (0, i),
        Def::Const(i) => (0, u32::MAX / 2 + i),
        Def::Phi(_, i) => (1, i),
        Def::Instr(_, i) => (2, i),
    }
}

/// The per-function structures verification derives. A module's
/// verification keeps one set and rebuilds it in place for each
/// function, and the thread keeps the set for its next verification
/// ([`crate::reuse`]).
#[derive(Default)]
struct Derived {
    cfg: Cfg,
    dom: DomTree,
    marks: Marks,
}

impl Buffers for Derived {
    fn heap_bytes(&mut self) -> usize {
        let m = &self.marks;
        self.cfg.heap_bytes()
            + self.dom.heap_bytes()
            + vec_bytes(&m.is_handler)
            + vec_bytes(&m.pred_seen)
            + vec_bytes(&m.mentioned)
    }
}

thread_local! {
    /// The calling thread's verification buffers between calls.
    static DERIVED: Cell<Option<Derived>> = const { Cell::new(None) };
}

/// Per-block marks of [`Checker::check_blocks`].
#[derive(Default)]
struct Marks {
    is_handler: Vec<bool>,
    /// `pred_seen[p] == b` once `p` has been seen as a predecessor of
    /// block `b`; stamping with the block index needs no reset between
    /// blocks.
    pred_seen: Vec<u32>,
    /// Whether the CST names each block.
    mentioned: Vec<bool>,
}

struct Checker<'a> {
    types: &'a TypeTable,
    f: &'a Function,
    cfg: &'a Cfg,
    dom: &'a DomTree,
    stats: VerifyStats,
}

impl<'a> Checker<'a> {
    fn value_in_range(&self, v: ValueId) -> Result<(), VerifyError> {
        if v.index() < self.f.values.len() {
            Ok(())
        } else {
            Err(VerifyError::BadValue(v))
        }
    }

    /// Checks that `v` is visible at instruction position `use_pos`
    /// (`(rank, idx)`) of block `b`.
    fn check_dominance(
        &mut self,
        b: BlockId,
        use_pos: (u8, u32),
        v: ValueId,
    ) -> Result<(), VerifyError> {
        self.value_in_range(v)?;
        self.stats.operands += 1;
        let info = self.f.value(v);
        let err = || VerifyError::Dominance {
            func: self.f.name.clone(),
            block: b,
            value: v,
        };
        if info.block == b {
            if def_pos(info.def) < use_pos {
                Ok(())
            } else {
                Err(err())
            }
        } else if self.cfg.reachable[info.block.index()] && self.dom.dominates(info.block, b) {
            Ok(())
        } else {
            Err(err())
        }
    }

    /// Checks that `v` is visible at the *end* of block `b` (used for
    /// branch conditions, returns, throws, and normal-edge phi args).
    fn check_visible_at_end(&mut self, b: BlockId, v: ValueId) -> Result<(), VerifyError> {
        self.check_dominance(b, (3, 0), v)
    }

    fn check_blocks(&mut self, marks: &mut Marks) -> Result<(), VerifyError> {
        let n = self.f.block_count();
        let Marks {
            is_handler,
            pred_seen,
            mentioned,
        } = marks;
        // Every block appears in the CST exactly once (duplicates are a
        // CfgError); here we catch blocks never mentioned.
        if self.cfg.traversal.len() != n {
            mentioned.clear();
            mentioned.resize(n, false);
            for &b in &self.cfg.traversal {
                mentioned[b.index()] = true;
            }
            if let Some(i) = mentioned.iter().position(|&m| !m) {
                return Err(VerifyError::UnusedBlock(BlockId(i as u32)));
            }
        }
        is_handler.clear();
        is_handler.resize(n, false);
        self.f.body.walk(&mut |c| {
            if let Cst::Try { handler_entry, .. } = c {
                is_handler[handler_entry.index()] = true;
            }
        });
        pred_seen.clear();
        pred_seen.resize(n, u32::MAX);
        for (bi, block) in self.f.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            if !self.cfg.reachable[bi] {
                if !block.phis.is_empty() || !block.instrs.is_empty() {
                    return Err(VerifyError::NonEmptyUnreachable(b));
                }
                continue;
            }
            // Duplicate predecessors make phi operands ambiguous.
            for e in self.cfg.preds_of(b) {
                let seen = &mut pred_seen[e.from.index()];
                if *seen == bi as u32 {
                    return Err(VerifyError::DuplicatePred {
                        block: b,
                        pred: e.from,
                    });
                }
                *seen = bi as u32;
            }
            self.check_phis(b)?;
            let is_handler = is_handler[bi];
            for (k, instr) in block.instrs.iter().enumerate() {
                self.stats.instrs += 1;
                // `catch` exactly at handler entries, position 0.
                match instr {
                    Instr::Catch { .. } => {
                        if !is_handler || k != 0 {
                            return Err(VerifyError::CatchPlacement(b));
                        }
                    }
                    _ => {
                        if is_handler && k == 0 {
                            return Err(VerifyError::CatchPlacement(b));
                        }
                    }
                }
                let operands = instr.operands();
                for &v in operands.iter() {
                    self.check_dominance(b, (2, k as u32), v)?;
                }
                let typed = typing::signature(self.types, instr)
                    .and_then(|sig| typing::type_operands(self.f, instr, &operands, &sig))
                    .map_err(|err| VerifyError::Type {
                        func: self.f.name.clone(),
                        block: b,
                        err,
                    })?;
                // Cross-check the recorded value table.
                let recorded = self.f.instr_result(b, k);
                match (typed.result, recorded) {
                    (None, None) => {}
                    (Some(ty), Some(v)) => {
                        let info = self.f.value(v);
                        if info.ty != ty
                            || info.block != b
                            || info.def != Def::Instr(b, k as u32)
                            || info.provenance != typed.provenance
                        {
                            return Err(VerifyError::ValueTable {
                                func: self.f.name.clone(),
                                value: v,
                            });
                        }
                    }
                    _ => {
                        return Err(VerifyError::ResultArity {
                            func: self.f.name.clone(),
                            block: b,
                            instr: k,
                        })
                    }
                }
            }
            // Handler entries must begin with `catch`.
            if is_handler
                && block
                    .instrs
                    .first()
                    .map(|i| !matches!(i, Instr::Catch { .. }))
                    .unwrap_or(true)
            {
                return Err(VerifyError::CatchPlacement(b));
            }
        }
        Ok(())
    }

    fn check_phis(&mut self, b: BlockId) -> Result<(), VerifyError> {
        let (f, cfg) = (self.f, self.cfg);
        let preds = cfg.preds_of(b);
        for (k, phi) in f.block(b).phis.iter().enumerate() {
            self.stats.phis += 1;
            let fail = |why: &'static str| VerifyError::PhiArgs {
                func: self.f.name.clone(),
                block: b,
                why,
            };
            if phi.args.len() != preds.len() {
                return Err(fail("operand count != incoming edge count"));
            }
            // Every pred covered exactly once (pred uniqueness already
            // established), in any stored order.
            for e in preds {
                let arg = phi
                    .arg_from(e.from)
                    .ok_or_else(|| fail("missing edge operand"))?;
                self.value_in_range(arg)?;
                let info = self.f.value(arg);
                if info.ty != phi.ty {
                    return Err(fail("operand on different plane"));
                }
                match e.kind {
                    EdgeKind::Normal => {
                        self.check_visible_at_end(e.from, arg)?;
                    }
                    EdgeKind::Exception { upto } => {
                        // Only the first `upto` instruction results of the
                        // pred block are visible along this edge.
                        self.check_dominance(e.from, (2, upto), arg)?;
                    }
                }
            }
            // Safe-index phis: provenance must be common and in scope.
            let result = self.f.phi_result(b, k);
            let rec = self.f.value(result);
            if rec.ty != phi.ty || rec.def != Def::Phi(b, k as u32) || rec.block != b {
                return Err(VerifyError::ValueTable {
                    func: self.f.name.clone(),
                    value: result,
                });
            }
            if self.types.is_safe_index(phi.ty) {
                let prov = rec
                    .provenance
                    .ok_or_else(|| fail("safe-index phi without provenance"))?;
                self.value_in_range(prov)?;
                for (_, arg) in &phi.args {
                    if self.f.value(*arg).provenance != Some(prov) {
                        return Err(fail("safe-index operands bound to different arrays"));
                    }
                }
                // The array value must dominate the phi (Appendix A).
                self.check_dominance(b, (1, 0), prov)
                    .map_err(|_| fail("safe-index provenance out of scope"))?;
            } else if rec.provenance.is_some() {
                return Err(fail("provenance on non-safe-index phi"));
            }
        }
        Ok(())
    }

    fn check_terminators(
        &mut self,
        throwable_root: crate::types::ClassId,
    ) -> Result<(), VerifyError> {
        for &(b, v) in &self.cfg.cond_uses {
            self.value_in_range(v)?;
            if self.f.value_ty(v) != self.types.bool_ty() {
                return Err(VerifyError::CondNotBool(b));
            }
            self.check_visible_at_end(b, v)?;
        }
        for &(b, v) in &self.cfg.return_uses {
            match (v, self.f.ret) {
                (None, None) => {}
                (Some(v), Some(ret)) => {
                    self.value_in_range(v)?;
                    if self.f.value_ty(v) != ret {
                        return Err(VerifyError::ReturnType(b));
                    }
                    self.check_visible_at_end(b, v)?;
                }
                _ => return Err(VerifyError::ReturnType(b)),
            }
        }
        for &(b, v) in &self.cfg.throw_uses {
            self.value_in_range(v)?;
            let ty = self.f.value_ty(v);
            let ok = match self.types.kind(ty) {
                TypeKind::Class(c) => self.types.is_subclass(c, throwable_root),
                TypeKind::SafeRef(of) => match self.types.kind(of) {
                    TypeKind::Class(c) => self.types.is_subclass(c, throwable_root),
                    _ => false,
                },
                _ => false,
            };
            if !ok {
                return Err(VerifyError::ThrowType(b));
            }
            self.check_visible_at_end(b, v)?;
        }
        if self.f.ret.is_some() && self.cfg.falls_through {
            return Err(VerifyError::MissingReturn(self.f.name.clone()));
        }
        Ok(())
    }
}

/// Verifies one function against `types`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_function(
    types: &TypeTable,
    throwable_root: crate::types::ClassId,
    f: &Function,
) -> Result<VerifyStats, VerifyError> {
    with_thread_buffers(&DERIVED, |derived| {
        verify_function_in(types, throwable_root, f, derived)
    })
}

/// [`verify_function`], deriving the function's structures in `derived`.
fn verify_function_in(
    types: &TypeTable,
    throwable_root: crate::types::ClassId,
    f: &Function,
    derived: &mut Derived,
) -> Result<VerifyStats, VerifyError> {
    // Parameters and constants must be on valid planes.
    for p in &f.params {
        if types.kind_checked(*p).is_none() {
            return Err(VerifyError::ClassMeta(format!(
                "{}: parameter plane out of range",
                f.name
            )));
        }
    }
    if f.const_values.len() != f.consts.len() {
        return Err(VerifyError::ClassMeta(format!(
            "{}: constant value list out of sync",
            f.name
        )));
    }
    for (i, c) in f.consts.iter().enumerate() {
        let cv = f.const_value(i);
        if cv.index() >= f.values.len() {
            return Err(VerifyError::BadValue(cv));
        }
        let vi = f.value(cv);
        if vi.ty != c.ty || vi.def != Def::Const(i as u32) || vi.block != ENTRY {
            return Err(VerifyError::ValueTable {
                func: f.name.clone(),
                value: cv,
            });
        }
    }
    let Derived { cfg, dom, marks } = derived;
    cfg.rebuild(f)?;
    dom.rebuild(cfg);
    let mut checker = Checker {
        types,
        f,
        cfg,
        dom,
        stats: VerifyStats::default(),
    };
    checker.check_blocks(marks)?;
    checker.check_terminators(throwable_root)?;
    Ok(checker.stats)
}

/// Verifies an entire module: class metadata plus every function body.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_module(m: &Module) -> Result<VerifyStats, VerifyError> {
    // Class metadata sanity.
    for (_, class) in m.types.classes() {
        for field in &class.fields {
            if m.types.kind_checked(field.ty).is_none() {
                return Err(VerifyError::ClassMeta(format!(
                    "{}.{}: field type out of range",
                    class.name, field.name
                )));
            }
        }
        for method in &class.methods {
            if let Some(body) = method.body {
                if body as usize >= m.functions.len() {
                    return Err(VerifyError::ClassMeta(format!(
                        "{}.{}: body index out of range",
                        class.name, method.name
                    )));
                }
            }
            for p in &method.params {
                if m.types.kind_checked(*p).is_none() {
                    return Err(VerifyError::ClassMeta(format!(
                        "{}.{}: parameter type out of range",
                        class.name, method.name
                    )));
                }
            }
        }
    }
    with_thread_buffers(&DERIVED, |derived| {
        let mut total = VerifyStats::default();
        for f in &m.functions {
            let s = verify_function_in(&m.types, m.well_known.throwable, f, derived)?;
            total.instrs += s.instrs;
            total.phis += s.phis;
            total.operands += s.operands;
        }
        Ok(total)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primops;
    use crate::types::{ClassId, ClassInfo, PrimKind};
    use crate::value::{Const, Literal};

    fn base_types() -> (TypeTable, ClassId) {
        let mut t = TypeTable::new();
        let (obj, _) = t.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        });
        let (thr, _) = t.declare_class(ClassInfo {
            name: "Throwable".into(),
            superclass: Some(obj),
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        });
        (t, thr)
    }

    #[test]
    fn straight_line_function_verifies() {
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let r = f
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
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(r))]);
        let stats = verify_function(&types, thr, &f).unwrap();
        assert_eq!(stats.instrs, 1);
        // two instruction operands + the return value reference
        assert_eq!(stats.operands, 3);
    }

    #[test]
    fn missing_return_is_rejected() {
        let (types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int], Some(int));
        f.body = Cst::Basic(ENTRY);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::MissingReturn(_))
        ));
    }

    #[test]
    fn use_before_def_in_same_block_rejected() {
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int], None);
        let add = primops::find(PrimKind::Int, "add").unwrap();
        // Manually craft an instruction referencing its own result.
        let v = f
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
        // Tamper: make the instruction reference its own result.
        f.blocks[0].instrs[0] = Instr::Primitive {
            ty: int,
            op: add,
            args: [v, f.param_value(0)].into(),
        };
        f.body = Cst::Basic(ENTRY);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::Dominance { .. })
        ));
    }

    #[test]
    fn cross_branch_reference_rejected() {
        // The attack from §2: referencing a value from the other branch
        // of an if/else (value (10) used while taking the (11) path).
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("f", None, vec![boolean, int], None);
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let then_b = f.add_block();
        let else_b = f.add_block();
        let join = f.add_block();
        let tv = f
            .add_instr(
                &mut types,
                then_b,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(1), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        // else branch illegally references the then-branch value `tv`.
        f.add_instr(
            &mut types,
            else_b,
            Instr::Primitive {
                ty: int,
                op: add,
                args: [tv, f.param_value(1)].into(),
            },
        )
        .unwrap();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::Basic(else_b)),
                join,
            },
        ]);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::Dominance { .. })
        ));
    }

    #[test]
    fn valid_phi_at_join_verifies() {
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("f", None, vec![boolean, int], Some(int));
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let then_b = f.add_block();
        let join = f.add_block();
        let tv = f
            .add_instr(
                &mut types,
                then_b,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(1), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        let phi = f.add_phi(join, int);
        f.set_phi_args(join, 0, vec![(then_b, tv), (ENTRY, f.param_value(1))]);
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(phi)),
        ]);
        verify_function(&types, thr, &f).expect("verifies");
    }

    #[test]
    fn phi_with_wrong_arity_rejected() {
        let (types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let boolean = types.bool_ty();
        let mut f = Function::new("f", None, vec![boolean, int], Some(int));
        let then_b = f.add_block();
        let join = f.add_block();
        let phi = f.add_phi(join, int);
        f.set_phi_args(join, 0, vec![(then_b, f.param_value(1))]);
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
            Cst::Return(Some(phi)),
        ]);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::PhiArgs { .. })
        ));
    }

    #[test]
    fn nonempty_unreachable_block_rejected() {
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int], None);
        let dead = f.add_block();
        let add = primops::find(PrimKind::Int, "add").unwrap();
        f.add_instr(
            &mut types,
            dead,
            Instr::Primitive {
                ty: int,
                op: add,
                args: [f.param_value(0), f.param_value(0)].into(),
            },
        )
        .unwrap();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Return(None),
            // `dead` never referenced → UnusedBlock; reference it behind a
            // return to make it unreachable instead:
        ]);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::UnusedBlock(_))
        ));
    }

    #[test]
    fn duplicate_predecessors_are_rejected() {
        let (types, thr) = base_types();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("f", None, vec![b], None);
        let join = f.add_block();
        // Both arms empty: the entry reaches the join twice, so a phi
        // there could not tell its operands apart.
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: f.param_value(0),
                then_br: Box::new(Cst::empty()),
                else_br: Box::new(Cst::empty()),
                join,
            },
        ]);
        assert_eq!(
            verify_function(&types, thr, &f),
            Err(VerifyError::DuplicatePred {
                block: join,
                pred: ENTRY
            })
        );
    }

    #[test]
    fn catch_belongs_at_handler_entries_only() {
        let (mut types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let thr_ty = types.class_ty(thr);
        let div = primops::find(PrimKind::Int, "div").unwrap();
        let build = |types: &mut TypeTable, catch_in_handler: bool| {
            let mut f = Function::new("f", None, vec![int, int], None);
            let body_b = f.add_block();
            let handler_entry = f.add_block();
            let join = f.add_block();
            let args = [f.param_value(0), f.param_value(1)].into();
            f.add_instr(
                types,
                body_b,
                Instr::XPrimitive {
                    ty: int,
                    op: div,
                    args,
                },
            )
            .unwrap();
            let at = if catch_in_handler {
                handler_entry
            } else {
                join
            };
            f.add_instr(types, at, Instr::Catch { ty: thr_ty }).unwrap();
            f.body = Cst::Seq(vec![
                Cst::Basic(ENTRY),
                Cst::Try {
                    body: Box::new(Cst::Basic(body_b)),
                    handler_entry,
                    handler: Box::new(Cst::empty()),
                    join,
                },
            ]);
            (f, handler_entry)
        };
        let (good, _) = build(&mut types, true);
        verify_function(&types, thr, &good).unwrap();
        let (bad, handler_entry) = build(&mut types, false);
        assert_eq!(
            verify_function(&types, thr, &bad),
            Err(VerifyError::CatchPlacement(handler_entry))
        );
    }

    #[test]
    fn return_type_mismatch_rejected() {
        let (types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let dbl = types.prim(PrimKind::Double);
        let mut f = Function::new("f", None, vec![dbl], Some(int));
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Return(Some(f.param_value(0)))]);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::ReturnType(_))
        ));
    }

    #[test]
    fn throw_requires_throwable() {
        let (types, thr) = base_types();
        let obj_ty = types.class_ty(ClassId(0));
        let thr_ty = types.class_ty(thr);
        // Throwing an Object is rejected…
        let mut f = Function::new("f", None, vec![obj_ty], None);
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Throw(f.param_value(0))]);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::ThrowType(_))
        ));
        // …throwing a Throwable is fine.
        let mut g = Function::new("g", None, vec![thr_ty], None);
        g.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Throw(g.param_value(0))]);
        verify_function(&types, thr, &g).expect("throwable throw verifies");
    }

    #[test]
    fn const_preload_table_checked() {
        let (types, thr) = base_types();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![], None);
        let _ = f.add_const(Const {
            ty: int,
            lit: Literal::Int(3),
        });
        // Tamper with the recorded plane of the constant.
        f.values[0].ty = types.prim(PrimKind::Double);
        f.body = Cst::Basic(ENTRY);
        assert!(matches!(
            verify_function(&types, thr, &f),
            Err(VerifyError::ValueTable { .. })
        ));
    }
}
