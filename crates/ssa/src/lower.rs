//! Single-pass SSA construction from the structured HIR, following the
//! method of Brandis & Mössenböck (the paper's §7): definitions are
//! tracked per local slot while walking the structured statements, phi
//! nodes are placed at the structural merge points (if-joins, loop
//! headers, break/continue targets, exception handler entries), and the
//! Control Structure Tree is produced alongside the instruction stream.
//!
//! Null checks and index checks are inserted at every use site, as the
//! format requires (`getfield`/`getelt`/… only accept `safe` operands);
//! producer-side optimization (`safetsa-opt`) later removes the
//! redundant ones and transports the result safely.
//!
//! Frontier discipline: `cur` is the block that control currently falls
//! through (`None` right after entering a branch, before any code was
//! emitted there), and `live` records whether the current point is
//! reachable. Inside a `try` region, every exceptional instruction ends
//! its block (the paper's sub-block splitting) and a fresh continuation
//! block is opened immediately, so `cur` always names the true frontier.

use crate::typemap::{prim, TypeMap};
use safetsa_core::cst::Cst;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Instr;
use safetsa_core::primops::{self, PrimOpId};
use safetsa_core::types::{FieldRef, MethodRef, PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::typing::TypeError;
use safetsa_core::value::{BlockId, Const, Literal, ValueId};
use safetsa_frontend::hir::{
    self, BinOp, Catch, Expr, ExprKind, Lit, LocalId, PrimTy, Program, Stmt, Ty, UnOp,
};
use std::collections::HashSet;
use std::fmt;

/// An SSA-construction failure (indicates a front-end bug; surfaced as
/// an error rather than a panic for robustness).
#[derive(Debug, Clone)]
pub struct LowerError(pub String);

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ssa lowering: {}", self.0)
    }
}

impl std::error::Error for LowerError {}

impl From<TypeError> for LowerError {
    fn from(e: TypeError) -> Self {
        LowerError(e.to_string())
    }
}

/// Construction statistics (feeds the Figure 6 "before" columns and the
/// §7 phi-pruning claim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnStats {
    /// Phis a naive constructor would place: one per live variable at
    /// every join. The single-pass construction avoids most of them
    /// (the paper's §7 improvement for return/continue/break paths and
    /// Briggs-style pruning, reported as ~31% together).
    pub phis_candidate: usize,
    /// Phis actually placed by the structural construction.
    pub phis_inserted: usize,
    /// `nullcheck` instructions emitted.
    pub null_checks: usize,
    /// `indexcheck` instructions emitted.
    pub index_checks: usize,
}

type Defs = Vec<Option<ValueId>>;

#[derive(Debug, Clone, Copy)]
enum ContinueKind {
    /// `continue` jumps straight to the loop header (while loops).
    Header,
    /// `continue` breaks to an inner label (for/do-while: the update or
    /// condition section), identified by its absolute label depth.
    InnerLabel(u32),
}

struct LoopCtx {
    /// `(slot, phi index)` of the header phis.
    phis: Vec<(LocalId, usize)>,
    /// Absolute label depth of the loop's break target.
    break_label_depth: u32,
    /// Absolute loop depth of this loop.
    loop_depth: u32,
    continue_kind: ContinueKind,
    breaks: Vec<(BlockId, Defs)>,
    /// Back-edge sources (while-style continues and body fall-through).
    back_edges: Vec<(BlockId, Defs)>,
    /// Continue edges routed to an inner label (for/do-while).
    inner_continues: Vec<(BlockId, Defs)>,
}

struct TryCtx {
    handler_entry: Option<BlockId>,
    snapshots: Vec<(BlockId, Defs)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoopShape {
    While,
    DoWhile,
    For,
}

pub(crate) struct Lower<'a> {
    prog: &'a Program,
    types: &'a mut TypeTable,
    map: &'a TypeMap,
    pub f: Function,
    cur: Option<BlockId>,
    live: bool,
    defs: Defs,
    local_planes: Vec<TypeId>,
    loops: Vec<LoopCtx>,
    tries: Vec<TryCtx>,
    label_depth: u32,
    loop_depth: u32,
    pub stats: FnStats,
}

impl<'a> Lower<'a> {
    pub fn new(
        prog: &'a Program,
        types: &'a mut TypeTable,
        map: &'a TypeMap,
        class: hir::ClassIdx,
        method: hir::MethodIdx,
    ) -> Result<Self, LowerError> {
        let meta = prog.method(class, method);
        let body = meta
            .body
            .as_ref()
            .ok_or_else(|| LowerError("method has no body".into()))?;
        let is_static = meta.kind == hir::MethodKind::Static;
        let mut params = Vec::new();
        let mut local_planes = Vec::new();
        let n_params = meta.params.len() + usize::from(!is_static);
        for (i, local) in body.locals.iter().enumerate() {
            let plane = if i == 0 && !is_static {
                // The receiver arrives null-checked by the dispatch.
                let c = map.class_ty[class];
                types.safe_ref_of(c)
            } else {
                map.ty(types, &local.ty)
            };
            local_planes.push(plane);
            if i < n_params {
                params.push(plane);
            }
        }
        let ret = map.ret_ty(types, &meta.ret);
        let name = format!("{}.{}", prog.class(class).name, meta.name);
        let f = Function::new(name, Some(map.class_id(class)), params, ret);
        let mut defs: Defs = vec![None; body.locals.len()];
        for (i, d) in defs.iter_mut().enumerate().take(n_params) {
            *d = Some(ValueId(i as u32));
        }
        Ok(Lower {
            prog,
            types,
            map,
            f,
            cur: Some(ENTRY),
            live: true,
            defs,
            local_planes,
            loops: Vec::new(),
            tries: Vec::new(),
            label_depth: 0,
            loop_depth: 0,
            stats: FnStats::default(),
        })
    }

    pub fn run(
        mut self,
        class: hir::ClassIdx,
        method: hir::MethodIdx,
    ) -> Result<(Function, FnStats), LowerError> {
        // Borrowed through the program reference, not through `self`.
        let prog = self.prog;
        let body = prog
            .method(class, method)
            .body
            .as_ref()
            .expect("checked in new");
        let mut out = vec![Cst::Basic(ENTRY)];
        self.stmts(&body.stmts, &mut out)?;
        if self.live && self.f.ret.is_none() {
            out.push(Cst::Return(None));
        }
        self.f.body = Cst::Seq(out);
        let stats = self.stats;
        Ok((self.f, stats))
    }

    // ------------------------------------------------------- plumbing

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, LowerError> {
        Err(LowerError(format!("{}: {}", self.f.name, msg.into())))
    }

    fn ensure_block(&mut self, out: &mut Vec<Cst>) -> BlockId {
        debug_assert!(self.live, "emitting into dead code");
        match self.cur {
            Some(b) => b,
            None => {
                let b = self.f.add_block();
                out.push(Cst::Basic(b));
                self.cur = Some(b);
                b
            }
        }
    }

    /// Emits an instruction. Inside a `try`, an exceptional instruction
    /// records a definition snapshot for the handler phis and splits the
    /// block (opening a fresh continuation block immediately).
    fn emit(&mut self, out: &mut Vec<Cst>, instr: Instr) -> Result<Option<ValueId>, LowerError> {
        let exceptional = instr.is_exceptional();
        let b = self.ensure_block(out);
        if exceptional && !self.tries.is_empty() {
            let snap = (b, self.defs.clone());
            self.try_handler()?;
            self.tries
                .last_mut()
                .expect("inside try")
                .snapshots
                .push(snap);
        }
        let r = self.f.add_instr(self.types, b, instr)?;
        if exceptional && !self.tries.is_empty() {
            let nb = self.f.add_block();
            out.push(Cst::Basic(nb));
            self.cur = Some(nb);
        }
        Ok(r)
    }

    /// Lazily allocates the innermost try's handler-entry block with its
    /// `catch` instruction.
    fn try_handler(&mut self) -> Result<BlockId, LowerError> {
        let throwable_ty = self.map.class_ty[self.prog.throwable];
        if let Some(h) = self.tries.last().expect("inside try").handler_entry {
            return Ok(h);
        }
        let h = self.f.add_block();
        self.f
            .add_instr(self.types, h, Instr::Catch { ty: throwable_ty })?;
        self.tries.last_mut().unwrap().handler_entry = Some(h);
        Ok(h)
    }

    fn const_val(&mut self, ty: TypeId, lit: Literal) -> ValueId {
        self.f.add_const(Const { ty, lit })
    }

    fn plane(&self, v: ValueId) -> TypeId {
        self.f.value_ty(v)
    }

    fn op(&self, kind: PrimKind, name: &str) -> PrimOpId {
        primops::find(kind, name).unwrap_or_else(|| panic!("primop {kind:?}.{name}"))
    }

    /// Statically safe plane change (downcast); no-op when already there.
    fn coerce(
        &mut self,
        out: &mut Vec<Cst>,
        v: ValueId,
        want: TypeId,
    ) -> Result<ValueId, LowerError> {
        let from = self.plane(v);
        if from == want {
            return Ok(v);
        }
        let r = self.emit(
            out,
            Instr::Downcast {
                from,
                to: want,
                value: v,
            },
        )?;
        Ok(r.expect("downcast has a result"))
    }

    /// Produces `v` on the safe-ref plane of reference type `target`,
    /// inserting a null check only when the value is not already known
    /// non-null (`this`, fresh allocations, previous checks).
    fn as_safe(
        &mut self,
        out: &mut Vec<Cst>,
        v: ValueId,
        target: TypeId,
    ) -> Result<ValueId, LowerError> {
        let want = self.types.safe_ref_of(target);
        let from = self.plane(v);
        if from == want {
            return Ok(v);
        }
        if self.types.is_safe_ref(from) {
            return self.coerce(out, v, want);
        }
        let at = self.coerce(out, v, target)?;
        self.stats.null_checks += 1;
        let r = self.emit(
            out,
            Instr::NullCheck {
                ty: target,
                value: at,
            },
        )?;
        Ok(r.expect("nullcheck has a result"))
    }

    fn checked_index(
        &mut self,
        out: &mut Vec<Cst>,
        arr_ty: TypeId,
        safe_arr: ValueId,
        idx: ValueId,
    ) -> Result<ValueId, LowerError> {
        self.stats.index_checks += 1;
        let r = self.emit(
            out,
            Instr::IndexCheck {
                arr_ty,
                array: safe_arr,
                index: idx,
            },
        )?;
        Ok(r.expect("indexcheck has a result"))
    }

    // ------------------------------------------------------ merging

    /// Merges definition maps at `join`. `entry` (the defs at the
    /// region entry, when the caller has them) feeds the phi-avoidance
    /// statistic: a construction without the paper's abrupt-path
    /// improvement and without Briggs pruning would place a phi for
    /// every slot assigned on *any* converging path.
    fn merge_defs(&mut self, join: BlockId, incoming: &[(BlockId, Defs)], entry: Option<&Defs>) {
        debug_assert!(!incoming.is_empty());
        if let Some(e) = entry {
            for slot in 0..self.defs.len() {
                let assigned_somewhere = incoming
                    .iter()
                    .any(|(_, d)| d[slot].is_some() && d[slot] != e[slot]);
                if assigned_somewhere {
                    self.stats.phis_candidate += 1;
                }
            }
        }
        if incoming.len() == 1 {
            self.defs.clone_from(&incoming[0].1);
            return;
        }
        let n = self.defs.len();
        let mut merged = std::mem::take(&mut self.defs);
        merged.clear();
        merged.resize(n, None);
        for (slot, m) in merged.iter_mut().enumerate() {
            let Some(first) = incoming[0].1[slot] else {
                continue;
            };
            if incoming.iter().any(|(_, d)| d[slot].is_none()) {
                continue;
            }
            let all_same = incoming.iter().all(|(_, d)| d[slot] == Some(first));
            if entry.is_none() && !all_same {
                // No entry snapshot: approximate the naive count by the
                // slots that actually differ.
                self.stats.phis_candidate += 1;
            }
            if all_same {
                *m = Some(first);
            } else {
                let ty = self.local_planes[slot];
                let phi = self.f.add_phi(join, ty);
                self.stats.phis_inserted += 1;
                let idx = self.f.block(join).phis.len() - 1;
                let args = incoming
                    .iter()
                    .map(|(b, d)| (*b, d[slot].unwrap()))
                    .collect();
                self.f.set_phi_args(join, idx, args);
                *m = Some(phi);
            }
        }
        self.defs = merged;
    }

    fn merge_value(&mut self, join: BlockId, incoming: &[(BlockId, ValueId)]) -> ValueId {
        debug_assert!(!incoming.is_empty());
        self.stats.phis_candidate += 1;
        let first = incoming[0].1;
        if incoming.iter().all(|(_, v)| *v == first) {
            return first;
        }
        let ty = self.plane(first);
        let phi = self.f.add_phi(join, ty);
        self.stats.phis_inserted += 1;
        let idx = self.f.block(join).phis.len() - 1;
        self.f.set_phi_args(join, idx, incoming.to_vec());
        phi
    }

    // ---------------------------------------------------- statements

    fn stmts(&mut self, list: &[Stmt], out: &mut Vec<Cst>) -> Result<(), LowerError> {
        for s in list {
            if !self.live {
                return self.err("statement after terminator (front-end bug)");
            }
            self.stmt(s, out)?;
        }
        Ok(())
    }

    fn kill(&mut self) {
        self.cur = None;
        self.live = false;
    }

    fn stmt(&mut self, s: &Stmt, out: &mut Vec<Cst>) -> Result<(), LowerError> {
        match s {
            Stmt::Expr(e) => {
                self.expr(e, out)?;
            }
            Stmt::Return(v) => {
                let val = match v {
                    None => None,
                    Some(e) => {
                        let raw = self.expr_value(e, out)?;
                        let want = self.f.ret.expect("non-void return");
                        Some(self.coerce(out, raw, want)?)
                    }
                };
                self.ensure_block(out);
                out.push(Cst::Return(val));
                self.kill();
            }
            Stmt::Throw(e) => {
                let raw = self.expr_value(e, out)?;
                let v = match self.types.kind(self.plane(raw)) {
                    TypeKind::SafeRef(of) => self.coerce(out, raw, of)?,
                    _ => raw,
                };
                let b = self.ensure_block(out);
                if !self.tries.is_empty() {
                    let snap = (b, self.defs.clone());
                    self.try_handler()?;
                    self.tries.last_mut().unwrap().snapshots.push(snap);
                }
                out.push(Cst::Throw(v));
                self.kill();
            }
            Stmt::Break { depth } => {
                let b = self.ensure_block(out);
                let idx = self
                    .loops
                    .len()
                    .checked_sub(1 + depth)
                    .expect("sema-checked loop depth");
                let cst_depth = {
                    let ctx = &self.loops[idx];
                    self.label_depth - ctx.break_label_depth
                };
                self.loops[idx].breaks.push((b, self.defs.clone()));
                out.push(Cst::Break(cst_depth));
                self.kill();
            }
            Stmt::Continue { depth } => {
                let b = self.ensure_block(out);
                let snap = (b, self.defs.clone());
                let idx = self
                    .loops
                    .len()
                    .checked_sub(1 + depth)
                    .expect("sema-checked loop depth");
                let (label_depth, loop_depth) = (self.label_depth, self.loop_depth);
                let ctx = &mut self.loops[idx];
                let node = match ctx.continue_kind {
                    ContinueKind::Header => {
                        ctx.back_edges.push(snap);
                        Cst::Continue(loop_depth - ctx.loop_depth)
                    }
                    ContinueKind::InnerLabel(target) => {
                        ctx.inner_continues.push(snap);
                        Cst::Break(label_depth - target)
                    }
                };
                out.push(node);
                self.kill();
            }
            Stmt::If { cond, then, els } => {
                let (cond_v, branch_block) = self.cond_value(cond, out)?;
                let saved = self.defs.clone();
                // Then branch.
                self.cur = None;
                self.live = true;
                let mut then_vec = Vec::new();
                self.stmts(then, &mut then_vec)?;
                let then_end = self.branch_end(branch_block);
                let then_defs = self.defs.clone();
                // Else branch.
                self.cur = None;
                self.live = true;
                self.defs = saved.clone();
                let mut else_vec = Vec::new();
                self.stmts(els, &mut else_vec)?;
                let else_end = self.branch_end(branch_block);
                let else_defs = self.defs.clone();
                // Degenerate: both branches empty, alive, and without
                // definition changes → drop the If entirely.
                if then_vec.is_empty()
                    && else_vec.is_empty()
                    && then_end.is_some()
                    && else_end.is_some()
                    && then_defs == saved
                    && else_defs == saved
                {
                    self.cur = Some(branch_block);
                    self.live = true;
                    self.defs = saved;
                    return Ok(());
                }
                let mut incoming = Vec::new();
                if let Some(b) = then_end {
                    incoming.push((b, then_defs));
                }
                if let Some(b) = else_end {
                    incoming.push((b, else_defs));
                }
                // Distinct-predecessor guarantee.
                if incoming.len() == 2 && incoming[0].0 == incoming[1].0 {
                    let b = self.f.add_block();
                    then_vec.push(Cst::Basic(b));
                    incoming[0].0 = b;
                }
                let join = self.f.add_block();
                out.push(Cst::If {
                    cond: cond_v,
                    then_br: Box::new(Cst::Seq(then_vec)),
                    else_br: Box::new(Cst::Seq(else_vec)),
                    join,
                });
                if incoming.is_empty() {
                    self.kill();
                } else {
                    self.merge_defs(join, &incoming, Some(&saved));
                    self.cur = Some(join);
                    self.live = true;
                }
            }
            Stmt::While { cond, body } => {
                self.lower_loop(out, Some(cond), body, &[], LoopShape::While)?;
            }
            Stmt::DoWhile { body, cond } => {
                self.lower_loop(out, Some(cond), body, &[], LoopShape::DoWhile)?;
            }
            Stmt::For { cond, update, body } => {
                self.lower_loop(out, cond.as_ref(), body, update, LoopShape::For)?;
            }
            Stmt::Try {
                body,
                catches,
                finally,
            } => {
                if finally.is_some() {
                    return self.err("finally must be desugared by the front-end");
                }
                self.lower_try(out, body, catches)?;
            }
        }
        Ok(())
    }

    /// Evaluates a branch condition, returning the value and the block
    /// the branch departs from.
    fn cond_value(
        &mut self,
        cond: &Expr,
        out: &mut Vec<Cst>,
    ) -> Result<(ValueId, BlockId), LowerError> {
        let v = self.expr_value(cond, out)?;
        let b = self.ensure_block(out);
        Ok((v, b))
    }

    /// End block of a branch: the last live block, or the branch block
    /// itself when the branch emitted nothing; `None` if terminated.
    fn branch_end(&self, branch_block: BlockId) -> Option<BlockId> {
        if !self.live {
            return None;
        }
        Some(self.cur.unwrap_or(branch_block))
    }

    // --------------------------------------------------------- loops

    fn lower_loop(
        &mut self,
        out: &mut Vec<Cst>,
        cond: Option<&Expr>,
        body: &[Stmt],
        update: &[Expr],
        shape: LoopShape,
    ) -> Result<(), LowerError> {
        let entry_block = self.ensure_block(out);
        let entry_defs = self.defs.clone();
        // Pre-scan: slots assigned anywhere in the loop get header phis.
        let mut assigned = HashSet::new();
        if let Some(c) = cond {
            collect_assigned_expr(c, &mut assigned);
        }
        for s in body {
            collect_assigned_stmt(s, &mut assigned);
        }
        for u in update {
            collect_assigned_expr(u, &mut assigned);
        }
        let header = self.f.add_block();
        let mut phis = Vec::new();
        for slot in 0..self.defs.len() {
            if !assigned.contains(&slot) || self.defs[slot].is_none() {
                continue;
            }
            self.stats.phis_candidate += 1;
            let ty = self.local_planes[slot];
            let phi = self.f.add_phi(header, ty);
            self.stats.phis_inserted += 1;
            let idx = self.f.block(header).phis.len() - 1;
            phis.push((slot, idx));
            self.defs[slot] = Some(phi);
        }
        self.label_depth += 1; // the wrapping Labeled (break target)
        self.loop_depth += 1;
        let break_label_depth = self.label_depth;
        let continue_kind = match shape {
            LoopShape::While => ContinueKind::Header,
            LoopShape::For | LoopShape::DoWhile => ContinueKind::InnerLabel(break_label_depth + 1),
        };
        self.loops.push(LoopCtx {
            phis,
            break_label_depth,
            loop_depth: self.loop_depth,
            continue_kind,
            breaks: Vec::new(),
            back_edges: Vec::new(),
            inner_continues: Vec::new(),
        });
        self.cur = Some(header);
        self.live = true;

        let mut loop_vec: Vec<Cst> = Vec::new();
        match shape {
            LoopShape::While if is_const_true(cond.expect("while has a condition")) => {
                // `while (true)`: sema admits a missing return after this
                // loop because it can only exit through `break`, so no
                // guard is lowered — a synthetic `If`/`Break` would make
                // the exit edge reachable again and the verifier would
                // (rightly) report control falling off the end.
                let mut body_vec = Vec::new();
                self.stmts(body, &mut body_vec)?;
                if let Some(b) = self.branch_end(header) {
                    let snap = (b, self.defs.clone());
                    self.loops.last_mut().unwrap().back_edges.push(snap);
                }
                loop_vec.extend(body_vec);
            }
            LoopShape::While => {
                let cond = cond.expect("while has a condition");
                let (cv, branch_block) = self.cond_value(cond, &mut loop_vec)?;
                let after_cond_defs = self.defs.clone();
                // then: body (falls through the if-join into the back edge)
                self.cur = None;
                self.live = true;
                let mut then_vec = Vec::new();
                self.stmts(body, &mut then_vec)?;
                let then_end = self.branch_end(branch_block);
                let then_defs = self.defs.clone();
                // else: leave the loop
                self.loops
                    .last_mut()
                    .unwrap()
                    .breaks
                    .push((branch_block, after_cond_defs));
                let join = self.f.add_block();
                loop_vec.push(Cst::If {
                    cond: cv,
                    then_br: Box::new(Cst::Seq(then_vec)),
                    else_br: Box::new(Cst::Seq(vec![Cst::Break(0)])),
                    join,
                });
                if let Some(b) = then_end {
                    self.merge_defs(join, &[(b, then_defs)], None);
                    let snap = (join, self.defs.clone());
                    self.loops.last_mut().unwrap().back_edges.push(snap);
                }
            }
            LoopShape::For => {
                let inner_join = self.f.add_block();
                // Condition (optional — `for(;;)` loops forever, and a
                // constant-true guard is the same loop spelled longer).
                let guard = match cond {
                    Some(c) if !is_const_true(c) => {
                        let (cv, bb) = self.cond_value(c, &mut loop_vec)?;
                        Some((cv, bb, self.defs.clone()))
                    }
                    _ => None,
                };
                // Body inside the inner Labeled (continue target).
                self.label_depth += 1;
                self.cur = None;
                self.live = true;
                let mut body_vec = Vec::new();
                self.stmts(body, &mut body_vec)?;
                let body_end = match (self.live, self.cur, &guard) {
                    (false, _, _) => None,
                    (true, Some(b), _) => Some(b),
                    (true, None, Some((_, bb, _))) => Some(*bb),
                    (true, None, None) => Some(header),
                };
                let body_defs = self.defs.clone();
                self.label_depth -= 1;
                // Merge at the inner label join: fall-through + continues.
                let mut inner_incoming: Vec<(BlockId, Defs)> = Vec::new();
                if let Some(b) = body_end {
                    inner_incoming.push((b, body_defs));
                }
                inner_incoming.extend(std::mem::take(
                    &mut self.loops.last_mut().unwrap().inner_continues,
                ));
                let labeled = Cst::Labeled {
                    body: Box::new(Cst::Seq(body_vec)),
                    join: inner_join,
                };
                let mut then_vec = vec![labeled];
                let then_end;
                let then_defs;
                if inner_incoming.is_empty() {
                    self.kill();
                    then_end = None;
                    then_defs = Vec::new();
                } else {
                    self.merge_defs(inner_join, &inner_incoming, None);
                    self.cur = Some(inner_join);
                    self.live = true;
                    for u in update {
                        self.expr(u, &mut then_vec)?;
                    }
                    then_end = Some(self.cur.unwrap_or(inner_join));
                    then_defs = self.defs.clone();
                }
                match guard {
                    Some((cv, bb, after_cond_defs)) => {
                        self.loops
                            .last_mut()
                            .unwrap()
                            .breaks
                            .push((bb, after_cond_defs));
                        let join = self.f.add_block();
                        loop_vec.push(Cst::If {
                            cond: cv,
                            then_br: Box::new(Cst::Seq(then_vec)),
                            else_br: Box::new(Cst::Seq(vec![Cst::Break(0)])),
                            join,
                        });
                        if let Some(b) = then_end {
                            self.merge_defs(join, &[(b, then_defs)], None);
                            let snap = (join, self.defs.clone());
                            self.loops.last_mut().unwrap().back_edges.push(snap);
                        }
                    }
                    None => {
                        // No guard: the body sequence itself is the loop
                        // body; fall-through is the back edge.
                        loop_vec.extend(then_vec);
                        if let Some(b) = then_end {
                            let snap = (b, then_defs);
                            self.loops.last_mut().unwrap().back_edges.push(snap);
                        }
                    }
                }
            }
            LoopShape::DoWhile => {
                let inner_join = self.f.add_block();
                // Body starts right in the header block.
                self.label_depth += 1;
                self.cur = Some(header);
                self.live = true;
                let mut body_vec = Vec::new();
                self.stmts(body, &mut body_vec)?;
                let body_end = self.branch_end(header);
                let body_defs = self.defs.clone();
                self.label_depth -= 1;
                let mut inner_incoming: Vec<(BlockId, Defs)> = Vec::new();
                if let Some(b) = body_end {
                    inner_incoming.push((b, body_defs));
                }
                inner_incoming.extend(std::mem::take(
                    &mut self.loops.last_mut().unwrap().inner_continues,
                ));
                loop_vec.push(Cst::Labeled {
                    body: Box::new(Cst::Seq(body_vec)),
                    join: inner_join,
                });
                if inner_incoming.is_empty() {
                    self.kill();
                } else {
                    self.merge_defs(inner_join, &inner_incoming, None);
                    self.cur = Some(inner_join);
                    self.live = true;
                    let cond = cond.expect("do-while has a condition");
                    if is_const_true(cond) {
                        // `do … while (true);` exits only through
                        // `break` (sema's reachability rule): the back
                        // edge is unconditional, no guarded exit.
                        let snap = (inner_join, self.defs.clone());
                        self.loops.last_mut().unwrap().back_edges.push(snap);
                        loop_vec.push(Cst::Continue(0));
                        self.kill();
                    } else {
                        let (cv, bb) = self.cond_value(cond, &mut loop_vec)?;
                        let after_cond_defs = self.defs.clone();
                        // then: continue (back edge); else: break.
                        {
                            let ctx = self.loops.last_mut().unwrap();
                            ctx.back_edges.push((bb, after_cond_defs.clone()));
                            ctx.breaks.push((bb, after_cond_defs));
                        }
                        let join = self.f.add_block();
                        loop_vec.push(Cst::If {
                            cond: cv,
                            then_br: Box::new(Cst::Seq(vec![Cst::Continue(0)])),
                            else_br: Box::new(Cst::Seq(vec![Cst::Break(0)])),
                            join,
                        });
                        self.kill();
                    }
                }
            }
        }

        // Close the loop: fill header phi args.
        let ctx = self.loops.pop().expect("loop ctx");
        self.label_depth -= 1;
        self.loop_depth -= 1;
        let mut header_incoming: Vec<(BlockId, Defs)> = vec![(entry_block, entry_defs.clone())];
        header_incoming.extend(ctx.back_edges);
        for &(slot, idx) in &ctx.phis {
            let args: Vec<(BlockId, ValueId)> = header_incoming
                .iter()
                .map(|(b, d)| (*b, d[slot].expect("slot live around loop")))
                .collect();
            self.f.set_phi_args(header, idx, args);
        }
        // Exit via the Labeled join.
        let exit = self.f.add_block();
        out.push(Cst::Labeled {
            body: Box::new(Cst::Loop {
                header,
                body: Box::new(Cst::Seq(loop_vec)),
            }),
            join: exit,
        });
        if ctx.breaks.is_empty() {
            self.kill();
        } else {
            self.merge_defs(exit, &ctx.breaks, Some(&entry_defs));
            self.cur = Some(exit);
            self.live = true;
        }
        Ok(())
    }

    // ----------------------------------------------------------- try

    fn lower_try(
        &mut self,
        out: &mut Vec<Cst>,
        body: &[Stmt],
        catches: &[Catch],
    ) -> Result<(), LowerError> {
        let outer = self.ensure_block(out);
        let entry_defs = self.defs.clone();
        self.tries.push(TryCtx {
            handler_entry: None,
            snapshots: Vec::new(),
        });
        // The protected region starts in its own block so that every
        // exception edge originates inside the Try subtree.
        self.cur = None;
        self.live = true;
        let mut body_vec = Vec::new();
        self.stmts(body, &mut body_vec)?;
        let body_end = if self.live {
            Some(self.cur.unwrap_or(outer))
        } else {
            None
        };
        let body_defs = self.defs.clone();
        let ctx = self.tries.pop().expect("pushed above");
        if ctx.snapshots.is_empty() {
            // Nothing can throw: splice the body, drop the try node.
            out.extend(body_vec);
            if body_end.is_some() {
                self.cur = body_end;
                self.live = true;
            }
            return Ok(());
        }
        // But wait: if body_end == outer (empty body) the snapshots are
        // non-empty only if something threw — contradiction; body_vec is
        // non-empty here.
        let handler_entry = ctx.handler_entry.expect("snapshots imply handler");
        self.merge_defs(handler_entry, &ctx.snapshots, Some(&entry_defs));
        let exc_value = self
            .f
            .instr_result(handler_entry, 0)
            .expect("catch instruction result");
        self.cur = Some(handler_entry);
        self.live = true;
        let mut handler_vec = Vec::new();
        let handler_ends = self.lower_catch_chain(&mut handler_vec, exc_value, catches, 0)?;
        let mut incoming = Vec::new();
        if let Some(b) = body_end {
            incoming.push((b, body_defs));
        }
        incoming.extend(handler_ends);
        let join = self.f.add_block();
        out.push(Cst::Try {
            body: Box::new(Cst::Seq(body_vec)),
            handler_entry,
            handler: Box::new(Cst::Seq(handler_vec)),
            join,
        });
        if incoming.is_empty() {
            self.defs = entry_defs;
            self.kill();
        } else {
            self.merge_defs(join, &incoming, Some(&entry_defs));
            self.cur = Some(join);
            self.live = true;
        }
        Ok(())
    }

    /// Lowers catch arms as nested `if (e instanceof C)` tests; the
    /// default arm rethrows. Returns the `(block, defs)` of every path
    /// that completes normally.
    fn lower_catch_chain(
        &mut self,
        out: &mut Vec<Cst>,
        exc: ValueId,
        catches: &[Catch],
        i: usize,
    ) -> Result<Vec<(BlockId, Defs)>, LowerError> {
        if i >= catches.len() {
            // Default arm: rethrow to the enclosing handler (if any).
            let b = self.ensure_block(out);
            if !self.tries.is_empty() {
                let snap = (b, self.defs.clone());
                self.try_handler()?;
                self.tries.last_mut().unwrap().snapshots.push(snap);
            }
            out.push(Cst::Throw(exc));
            self.kill();
            return Ok(vec![]);
        }
        let arm = &catches[i];
        let target_ty = self.map.class_ty[arm.class];
        let from = self.plane(exc);
        let test = self
            .emit(
                out,
                Instr::InstanceOf {
                    from,
                    target: target_ty,
                    value: exc,
                },
            )?
            .expect("instanceof result");
        let branch_block = self.ensure_block(out);
        let saved = self.defs.clone();
        // Then: bind the exception to the arm local and run its body.
        self.cur = None;
        self.live = true;
        let mut then_vec = Vec::new();
        let bound = self
            .emit(
                &mut then_vec,
                Instr::Upcast {
                    from,
                    to: target_ty,
                    value: exc,
                },
            )?
            .expect("upcast result");
        self.defs[arm.local] = Some(bound);
        self.stmts(&arm.body, &mut then_vec)?;
        let then_end = self.branch_end(branch_block);
        let then_defs = self.defs.clone();
        // Else: the next arm. Its normal completions are exactly the
        // `(block, defs)` pairs the recursion returns (its own join);
        // adding the frontier again would double-count it.
        self.cur = None;
        self.live = true;
        self.defs = saved.clone();
        let mut else_vec = Vec::new();
        let mut ends = self.lower_catch_chain(&mut else_vec, exc, catches, i + 1)?;
        if let Some(b) = then_end {
            ends.push((b, then_defs));
        }
        let join = self.f.add_block();
        out.push(Cst::If {
            cond: test,
            then_br: Box::new(Cst::Seq(then_vec)),
            else_br: Box::new(Cst::Seq(else_vec)),
            join,
        });
        if ends.is_empty() {
            self.kill();
            Ok(vec![])
        } else {
            self.merge_defs(join, &ends, Some(&saved));
            self.cur = Some(join);
            self.live = true;
            Ok(vec![(join, self.defs.clone())])
        }
    }

    // --------------------------------------------------- expressions

    fn expr_value(&mut self, e: &Expr, out: &mut Vec<Cst>) -> Result<ValueId, LowerError> {
        match self.expr(e, out)? {
            Some(v) => Ok(v),
            None => self.err("value expected from void expression"),
        }
    }

    fn expr(&mut self, e: &Expr, out: &mut Vec<Cst>) -> Result<Option<ValueId>, LowerError> {
        match &e.kind {
            ExprKind::Lit(lit) => Ok(Some(self.lower_lit(lit, &e.ty)?)),
            ExprKind::Local(l) => match self.defs[*l] {
                Some(v) => Ok(Some(v)),
                None => self.err(format!("read of unassigned local {l}")),
            },
            ExprKind::AssignLocal { local, value } => {
                let raw = self.expr_value(value, out)?;
                let v = self.coerce(out, raw, self.local_planes[*local])?;
                self.defs[*local] = Some(v);
                Ok(Some(v))
            }
            ExprKind::GetField { obj, class, field } => {
                let ov = self.expr_value(obj, out)?;
                let class_ty = self.map.class_ty[*class];
                let safe = self.as_safe(out, ov, class_ty)?;
                self.emit(
                    out,
                    Instr::GetField {
                        ty: class_ty,
                        object: safe,
                        field: FieldRef {
                            class: self.map.class_id(*class),
                            index: *field as u32,
                        },
                    },
                )
            }
            ExprKind::SetField {
                obj,
                class,
                field,
                value,
            } => {
                let ov = self.expr_value(obj, out)?;
                let class_ty = self.map.class_ty[*class];
                let safe = self.as_safe(out, ov, class_ty)?;
                let fr = FieldRef {
                    class: self.map.class_id(*class),
                    index: *field as u32,
                };
                let field_plane = self.types.field(fr).expect("field exists").ty;
                let vv = self.expr_value(value, out)?;
                let vv = self.coerce(out, vv, field_plane)?;
                self.emit(
                    out,
                    Instr::SetField {
                        ty: class_ty,
                        object: safe,
                        field: fr,
                        value: vv,
                    },
                )?;
                Ok(Some(vv))
            }
            ExprKind::GetStatic { class, field } => self.emit(
                out,
                Instr::GetStatic {
                    field: FieldRef {
                        class: self.map.class_id(*class),
                        index: *field as u32,
                    },
                },
            ),
            ExprKind::SetStatic {
                class,
                field,
                value,
            } => {
                let fr = FieldRef {
                    class: self.map.class_id(*class),
                    index: *field as u32,
                };
                let field_plane = self.types.field(fr).expect("field exists").ty;
                let vv = self.expr_value(value, out)?;
                let vv = self.coerce(out, vv, field_plane)?;
                self.emit(
                    out,
                    Instr::SetStatic {
                        field: fr,
                        value: vv,
                    },
                )?;
                Ok(Some(vv))
            }
            ExprKind::GetElem { arr, idx } => {
                let (arr_ty, safe, six) = self.element_access(arr, idx, out)?;
                self.emit(
                    out,
                    Instr::GetElt {
                        arr_ty,
                        array: safe,
                        index: six,
                    },
                )
            }
            ExprKind::SetElem { arr, idx, value } => {
                let (arr_ty, safe, six) = self.element_access(arr, idx, out)?;
                let elem = self.types.array_elem(arr_ty).expect("array type");
                let vv = self.expr_value(value, out)?;
                let vv = self.coerce(out, vv, elem)?;
                self.emit(
                    out,
                    Instr::SetElt {
                        arr_ty,
                        array: safe,
                        index: six,
                        value: vv,
                    },
                )?;
                Ok(Some(vv))
            }
            ExprKind::ArrayLen { arr } => {
                let av = self.expr_value(arr, out)?;
                let arr_ty = self.unsafe_ref_plane(av);
                let safe = self.as_safe(out, av, arr_ty)?;
                self.emit(
                    out,
                    Instr::ArrayLength {
                        arr_ty,
                        array: safe,
                    },
                )
            }
            ExprKind::Unary { op, prim: p, expr } => {
                let v = self.expr_value(expr, out)?;
                let kind = prim(*p);
                let name = match op {
                    UnOp::Neg => "neg",
                    UnOp::Not | UnOp::BitNot => "not",
                };
                self.emit(
                    out,
                    Instr::Primitive {
                        ty: self.types.prim(kind),
                        op: self.op(kind, name),
                        args: [v].into(),
                    },
                )
            }
            ExprKind::Binary { op, prim: p, l, r } => {
                let lv = self.expr_value(l, out)?;
                let rv = self.expr_value(r, out)?;
                let kind = prim(*p);
                let opid = self.op(kind, binop_name(*op));
                let desc = primops::resolve(kind, opid).expect("op resolved");
                let instr = if desc.exceptional {
                    Instr::XPrimitive {
                        ty: self.types.prim(kind),
                        op: opid,
                        args: [lv, rv].into(),
                    }
                } else {
                    Instr::Primitive {
                        ty: self.types.prim(kind),
                        op: opid,
                        args: [lv, rv].into(),
                    }
                };
                self.emit(out, instr)
            }
            ExprKind::RefCmp { l, r, eq } => {
                let lv = self.expr_value(l, out)?;
                let rv = self.expr_value(r, out)?;
                let (lv, rv) = self.common_ref_plane(out, lv, rv)?;
                let ty = self.plane(lv);
                let mut v = self
                    .emit(out, Instr::RefEq { ty, a: lv, b: rv })?
                    .expect("refeq result");
                if !eq {
                    v = self
                        .emit(
                            out,
                            Instr::Primitive {
                                ty: self.types.prim(PrimKind::Bool),
                                op: self.op(PrimKind::Bool, "not"),
                                args: [v].into(),
                            },
                        )?
                        .expect("not result");
                }
                Ok(Some(v))
            }
            ExprKind::And { l, r } => Ok(Some(self.short_circuit(out, l, r, true)?)),
            ExprKind::Or { l, r } => Ok(Some(self.short_circuit(out, l, r, false)?)),
            ExprKind::Cond { cond, then, els } => {
                Ok(Some(self.value_if(out, cond, then, els, &e.ty)?))
            }
            ExprKind::Conv { from, to, expr } => {
                let v = self.expr_value(expr, out)?;
                let kind = prim(*from);
                let name = format!("to_{}", prim_name(*to));
                self.emit(
                    out,
                    Instr::Primitive {
                        ty: self.types.prim(kind),
                        op: self.op(kind, &name),
                        args: [v].into(),
                    },
                )
            }
            ExprKind::CallStatic {
                class,
                method,
                args,
            } => {
                let argv = self.call_args(args, *class, *method, out)?;
                self.emit(
                    out,
                    Instr::XCall {
                        base_ty: self.map.class_ty[*class],
                        method: MethodRef {
                            class: self.map.class_id(*class),
                            index: *method as u32,
                        },
                        receiver: None,
                        args: argv,
                    },
                )
            }
            ExprKind::CallVirtual {
                class,
                method,
                recv,
                args,
            } => {
                let rv = self.expr_value(recv, out)?;
                let base_ty = self.map.class_ty[*class];
                let safe = self.as_safe(out, rv, base_ty)?;
                let argv = self.call_args(args, *class, *method, out)?;
                self.emit(
                    out,
                    Instr::XDispatch {
                        base_ty,
                        method: MethodRef {
                            class: self.map.class_id(*class),
                            index: *method as u32,
                        },
                        receiver: safe,
                        args: argv,
                    },
                )
            }
            ExprKind::CallSpecial {
                class,
                method,
                recv,
                args,
            } => {
                let rv = self.expr_value(recv, out)?;
                let base_ty = self.map.class_ty[*class];
                let safe = self.as_safe(out, rv, base_ty)?;
                let argv = self.call_args(args, *class, *method, out)?;
                self.emit(
                    out,
                    Instr::XCall {
                        base_ty,
                        method: MethodRef {
                            class: self.map.class_id(*class),
                            index: *method as u32,
                        },
                        receiver: Some(safe),
                        args: argv,
                    },
                )
            }
            ExprKind::New { class, ctor, args } => {
                let class_ty = self.map.class_ty[*class];
                let obj = self
                    .emit(out, Instr::New { class_ty })?
                    .expect("new result");
                let argv = self.call_args(args, *class, *ctor, out)?;
                self.emit(
                    out,
                    Instr::XCall {
                        base_ty: class_ty,
                        method: MethodRef {
                            class: self.map.class_id(*class),
                            index: *ctor as u32,
                        },
                        receiver: Some(obj),
                        args: argv,
                    },
                )?;
                Ok(Some(obj))
            }
            ExprKind::NewArray { elem, len } => {
                let elem_ty = self.map.ty(self.types, elem);
                let arr_ty = self.types.array_of(elem_ty);
                let lv = self.expr_value(len, out)?;
                self.emit(out, Instr::NewArray { arr_ty, length: lv })
            }
            ExprKind::ArrayLit { elem, elems } => {
                let elem_ty = self.map.ty(self.types, elem);
                let arr_ty = self.types.array_of(elem_ty);
                let int = self.types.prim(PrimKind::Int);
                let lenv = self.const_val(int, Literal::Int(elems.len() as i32));
                let arr = self
                    .emit(
                        out,
                        Instr::NewArray {
                            arr_ty,
                            length: lenv,
                        },
                    )?
                    .expect("newarray result");
                for (i, el) in elems.iter().enumerate() {
                    let iv = self.const_val(int, Literal::Int(i as i32));
                    let six = self.checked_index(out, arr_ty, arr, iv)?;
                    let ev = self.expr_value(el, out)?;
                    let ev = self.coerce(out, ev, elem_ty)?;
                    self.emit(
                        out,
                        Instr::SetElt {
                            arr_ty,
                            array: arr,
                            index: six,
                            value: ev,
                        },
                    )?;
                }
                Ok(Some(arr))
            }
            ExprKind::CastRef {
                target,
                expr,
                checked,
            } => {
                if let ExprKind::Lit(Lit::Null) = &expr.kind {
                    let plane = self.map.ty(self.types, target);
                    return Ok(Some(self.const_val(plane, Literal::Null)));
                }
                let v = self.expr_value(expr, out)?;
                let want = self.map.ty(self.types, target);
                if *checked {
                    let from = self.unsafe_ref_plane(v);
                    let v = self.coerce(out, v, from)?;
                    self.emit(
                        out,
                        Instr::Upcast {
                            from,
                            to: want,
                            value: v,
                        },
                    )
                } else {
                    Ok(Some(self.coerce(out, v, want)?))
                }
            }
            ExprKind::InstanceOf { expr, target } => {
                let v = self.expr_value(expr, out)?;
                let from = self.plane(v);
                let target_ty = self.map.ty(self.types, target);
                self.emit(
                    out,
                    Instr::InstanceOf {
                        from,
                        target: target_ty,
                        value: v,
                    },
                )
            }
            ExprKind::Seq { effects, result } => {
                for eff in effects {
                    self.expr(eff, out)?;
                }
                self.expr(result, out)
            }
        }
    }

    fn element_access(
        &mut self,
        arr: &Expr,
        idx: &Expr,
        out: &mut Vec<Cst>,
    ) -> Result<(TypeId, ValueId, ValueId), LowerError> {
        let av = self.expr_value(arr, out)?;
        let arr_ty = self.unsafe_ref_plane(av);
        debug_assert!(matches!(self.types.kind(arr_ty), TypeKind::Array(_)));
        let safe = self.as_safe(out, av, arr_ty)?;
        let iv = self.expr_value(idx, out)?;
        let six = self.checked_index(out, arr_ty, safe, iv)?;
        Ok((arr_ty, safe, six))
    }

    /// The unsafe reference plane underlying `v`'s plane.
    fn unsafe_ref_plane(&self, v: ValueId) -> TypeId {
        let p = self.plane(v);
        match self.types.kind(p) {
            TypeKind::SafeRef(of) => of,
            _ => p,
        }
    }

    fn call_args(
        &mut self,
        args: &[Expr],
        class: hir::ClassIdx,
        method: hir::MethodIdx,
        out: &mut Vec<Cst>,
    ) -> Result<Vec<ValueId>, LowerError> {
        let param_planes: Vec<TypeId> = {
            let mr = MethodRef {
                class: self.map.class_id(class),
                index: method as u32,
            };
            self.types.method(mr).expect("method exists").params.clone()
        };
        let mut out_args = Vec::with_capacity(args.len());
        for (a, want) in args.iter().zip(param_planes) {
            let v = self.expr_value(a, out)?;
            out_args.push(self.coerce(out, v, want)?);
        }
        Ok(out_args)
    }

    fn lower_lit(&mut self, lit: &Lit, ty: &Ty) -> Result<ValueId, LowerError> {
        let (plane, l) = match lit {
            Lit::Bool(b) => (self.types.prim(PrimKind::Bool), Literal::Bool(*b)),
            Lit::Char(c) => (self.types.prim(PrimKind::Char), Literal::Char(*c)),
            Lit::Int(v) => (self.types.prim(PrimKind::Int), Literal::Int(*v)),
            Lit::Long(v) => (self.types.prim(PrimKind::Long), Literal::Long(*v)),
            Lit::Float(v) => (self.types.prim(PrimKind::Float), Literal::Float(*v)),
            Lit::Double(v) => (self.types.prim(PrimKind::Double), Literal::Double(*v)),
            Lit::Str(s) => (self.map.class_ty[self.prog.string], Literal::Str(s.clone())),
            Lit::Null => match ty {
                Ty::Ref(_) | Ty::Array(_) => {
                    let plane = self.map.ty(self.types, ty);
                    return Ok(self.const_val(plane, Literal::Null));
                }
                _ => return self.err("null literal without a reference context"),
            },
        };
        Ok(self.const_val(plane, l))
    }

    /// Short-circuit `&&` / `||` via a conditional and a boolean phi.
    fn short_circuit(
        &mut self,
        out: &mut Vec<Cst>,
        l: &Expr,
        r: &Expr,
        is_and: bool,
    ) -> Result<ValueId, LowerError> {
        let (lv, branch_block) = self.cond_value(l, out)?;
        let saved = self.defs.clone();
        let bool_ty = self.types.prim(PrimKind::Bool);
        // Evaluated branch: compute r (forced into its own block so the
        // join's predecessors stay distinct).
        self.cur = None;
        self.live = true;
        let mut eval_vec = Vec::new();
        let rv = self.expr_value(r, &mut eval_vec)?;
        let eval_end = self.ensure_block(&mut eval_vec);
        let eval_defs = self.defs.clone();
        // Skipped branch: the constant outcome.
        let const_v = self.const_val(bool_ty, Literal::Bool(!is_and));
        self.defs = saved.clone();
        let join = self.f.add_block();
        let (then_br, else_br) = if is_and {
            (Cst::Seq(eval_vec), Cst::empty())
        } else {
            (Cst::empty(), Cst::Seq(eval_vec))
        };
        out.push(Cst::If {
            cond: lv,
            then_br: Box::new(then_br),
            else_br: Box::new(else_br),
            join,
        });
        let incoming_defs = [(eval_end, eval_defs), (branch_block, saved.clone())];
        self.merge_defs(join, &incoming_defs, Some(&saved));
        let v = self.merge_value(join, &[(eval_end, rv), (branch_block, const_v)]);
        self.cur = Some(join);
        self.live = true;
        Ok(v)
    }

    /// `cond ? then : els` with value merging; both branch values are
    /// coerced to the plane of the conditional's HIR type so the phi is
    /// plane-homogeneous.
    fn value_if(
        &mut self,
        out: &mut Vec<Cst>,
        cond: &Expr,
        then: &Expr,
        els: &Expr,
        result_ty: &Ty,
    ) -> Result<ValueId, LowerError> {
        let want = match result_ty {
            Ty::Null => None,
            t => Some(self.map.ty(self.types, t)),
        };
        let (cv, branch_block) = self.cond_value(cond, out)?;
        let saved = self.defs.clone();
        // Then.
        self.cur = None;
        self.live = true;
        let mut then_vec = Vec::new();
        let tv = self.expr_value(then, &mut then_vec)?;
        let tv = match want {
            Some(w) => self.coerce(&mut then_vec, tv, w)?,
            None => tv,
        };
        let then_end = self.cur.unwrap_or(branch_block);
        let then_defs = self.defs.clone();
        // Else.
        self.cur = None;
        self.live = true;
        self.defs = saved.clone();
        let mut else_vec = Vec::new();
        let ev = self.expr_value(els, &mut else_vec)?;
        let ev = match want {
            Some(w) => self.coerce(&mut else_vec, ev, w)?,
            None => ev,
        };
        let else_end = self.cur.unwrap_or(branch_block);
        let else_defs = self.defs.clone();
        // Distinct predecessors.
        let mut then_end = then_end;
        if then_end == else_end {
            let b = self.f.add_block();
            then_vec.push(Cst::Basic(b));
            then_end = b;
        }
        let join = self.f.add_block();
        out.push(Cst::If {
            cond: cv,
            then_br: Box::new(Cst::Seq(then_vec)),
            else_br: Box::new(Cst::Seq(else_vec)),
            join,
        });
        self.merge_defs(
            join,
            &[(then_end, then_defs), (else_end, else_defs)],
            Some(&saved),
        );
        let tp = self.plane(tv);
        let ep = self.plane(ev);
        if tp != ep {
            return self.err(format!(
                "conditional branches on different planes ({tp} vs {ep})"
            ));
        }
        let v = self.merge_value(join, &[(then_end, tv), (else_end, ev)]);
        self.cur = Some(join);
        self.live = true;
        Ok(v)
    }

    /// Brings two reference values onto a common plane for `refeq`.
    fn common_ref_plane(
        &mut self,
        out: &mut Vec<Cst>,
        a: ValueId,
        b: ValueId,
    ) -> Result<(ValueId, ValueId), LowerError> {
        let pa = self.plane(a);
        let pb = self.plane(b);
        if pa == pb {
            return Ok((a, b));
        }
        let ua = self.unsafe_ref_plane(a);
        let ub = self.unsafe_ref_plane(b);
        let a = self.coerce(out, a, ua)?;
        let b = self.coerce(out, b, ub)?;
        if ua == ub {
            return Ok((a, b));
        }
        self.err(format!(
            "refcmp operands on different planes ({ua} vs {ub})"
        ))
    }
}

/// Mirrors sema's reachability rule for endless loops: a loop whose
/// condition is the literal `true` exits only through `break`, so the
/// lowering must not synthesize a guarded exit for it.
fn is_const_true(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Lit(Lit::Bool(true)))
}

fn binop_name(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "add",
        BinOp::Sub => "sub",
        BinOp::Mul => "mul",
        BinOp::Div => "div",
        BinOp::Rem => "rem",
        BinOp::BitAnd => "and",
        BinOp::BitOr => "or",
        BinOp::BitXor => "xor",
        BinOp::Shl => "shl",
        BinOp::Shr => "shr",
        BinOp::Ushr => "ushr",
        BinOp::Eq => "eq",
        BinOp::Ne => "ne",
        BinOp::Lt => "lt",
        BinOp::Le => "le",
        BinOp::Gt => "gt",
        BinOp::Ge => "ge",
    }
}

fn prim_name(p: PrimTy) -> &'static str {
    match p {
        PrimTy::Bool => "boolean",
        PrimTy::Char => "char",
        PrimTy::Int => "int",
        PrimTy::Long => "long",
        PrimTy::Float => "float",
        PrimTy::Double => "double",
    }
}

fn collect_assigned_stmt(s: &Stmt, out: &mut HashSet<LocalId>) {
    match s {
        Stmt::Expr(e) => collect_assigned_expr(e, out),
        Stmt::If { cond, then, els } => {
            collect_assigned_expr(cond, out);
            for s in then {
                collect_assigned_stmt(s, out);
            }
            for s in els {
                collect_assigned_stmt(s, out);
            }
        }
        Stmt::While { cond, body } | Stmt::DoWhile { body, cond } => {
            collect_assigned_expr(cond, out);
            for s in body {
                collect_assigned_stmt(s, out);
            }
        }
        Stmt::For { cond, update, body } => {
            if let Some(c) = cond {
                collect_assigned_expr(c, out);
            }
            for u in update {
                collect_assigned_expr(u, out);
            }
            for s in body {
                collect_assigned_stmt(s, out);
            }
        }
        Stmt::Break { .. } | Stmt::Continue { .. } => {}
        Stmt::Return(e) => {
            if let Some(e) = e {
                collect_assigned_expr(e, out);
            }
        }
        Stmt::Throw(e) => collect_assigned_expr(e, out),
        Stmt::Try {
            body,
            catches,
            finally,
        } => {
            for s in body {
                collect_assigned_stmt(s, out);
            }
            for c in catches {
                out.insert(c.local);
                for s in &c.body {
                    collect_assigned_stmt(s, out);
                }
            }
            if let Some(f) = finally {
                for s in f {
                    collect_assigned_stmt(s, out);
                }
            }
        }
    }
}

fn collect_assigned_expr(e: &Expr, out: &mut HashSet<LocalId>) {
    match &e.kind {
        ExprKind::AssignLocal { local, value } => {
            out.insert(*local);
            collect_assigned_expr(value, out);
        }
        ExprKind::Lit(_) | ExprKind::Local(_) | ExprKind::GetStatic { .. } => {}
        ExprKind::GetField { obj, .. } | ExprKind::ArrayLen { arr: obj } => {
            collect_assigned_expr(obj, out)
        }
        ExprKind::SetField { obj, value, .. } => {
            collect_assigned_expr(obj, out);
            collect_assigned_expr(value, out);
        }
        ExprKind::SetStatic { value, .. } => collect_assigned_expr(value, out),
        ExprKind::GetElem { arr, idx } => {
            collect_assigned_expr(arr, out);
            collect_assigned_expr(idx, out);
        }
        ExprKind::SetElem { arr, idx, value } => {
            collect_assigned_expr(arr, out);
            collect_assigned_expr(idx, out);
            collect_assigned_expr(value, out);
        }
        ExprKind::Unary { expr, .. } | ExprKind::Conv { expr, .. } => {
            collect_assigned_expr(expr, out)
        }
        ExprKind::Binary { l, r, .. }
        | ExprKind::RefCmp { l, r, .. }
        | ExprKind::And { l, r }
        | ExprKind::Or { l, r } => {
            collect_assigned_expr(l, out);
            collect_assigned_expr(r, out);
        }
        ExprKind::Cond { cond, then, els } => {
            collect_assigned_expr(cond, out);
            collect_assigned_expr(then, out);
            collect_assigned_expr(els, out);
        }
        ExprKind::CallStatic { args, .. } => {
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        ExprKind::CallVirtual { recv, args, .. } | ExprKind::CallSpecial { recv, args, .. } => {
            collect_assigned_expr(recv, out);
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        ExprKind::New { args, .. } => {
            for a in args {
                collect_assigned_expr(a, out);
            }
        }
        ExprKind::NewArray { len, .. } => collect_assigned_expr(len, out),
        ExprKind::ArrayLit { elems, .. } => {
            for e in elems {
                collect_assigned_expr(e, out);
            }
        }
        ExprKind::CastRef { expr, .. } | ExprKind::InstanceOf { expr, .. } => {
            collect_assigned_expr(expr, out)
        }
        ExprKind::Seq { effects, result } => {
            for e in effects {
                collect_assigned_expr(e, out);
            }
            collect_assigned_expr(result, out);
        }
    }
}
