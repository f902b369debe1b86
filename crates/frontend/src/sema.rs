//! Semantic analysis: name resolution, type checking, overload
//! resolution, override checks, and lowering to the typed
//! [`crate::hir`].

use crate::ast;
use crate::ast::{CompilationUnit, ExprKind as AK, Member, Stmt as AStmt, TypeRef};
use crate::builtins;
use crate::hir::*;
use crate::span::{CompileError, Span};
use std::collections::HashMap;
use std::sync::Arc;

/// Analyzes a compilation unit into a resolved program.
///
/// # Errors
///
/// Returns the first semantic error (unknown names, type mismatches,
/// ambiguous overloads, unreachable code, missing returns, …).
pub fn analyze(cu: &CompilationUnit) -> Result<Program, CompileError> {
    // The builtin classes come laid out and shared with every other
    // program of the process; only user classes are built here.
    let mut prog = builtins::standard();
    let mut classes = std::mem::take(&mut prog.classes);
    let builtin_count = classes.len();

    // Pass 1: declare user classes.
    let mut names: Names = (0..builtin_count).map(|i| (builtins::name(i), i)).collect();
    for decl in &cu.classes {
        if names.contains_key(decl.name.as_str()) {
            return Err(CompileError::new(
                decl.span,
                format!("duplicate class `{}`", decl.name),
            ));
        }
        let idx = classes.len();
        names.insert(&decl.name, idx);
        classes.push(Arc::new(Class {
            name: decl.name.clone(),
            superclass: None, // resolved in pass 2
            fields: vec![],
            methods: vec![],
            is_builtin: false,
        }));
    }

    // Pass 2: resolve superclasses; reject cycles and sealed builtins.
    for decl in &cu.classes {
        let idx = names[decl.name.as_str()];
        let sup = match &decl.superclass {
            None => prog.object,
            Some(s) => *names
                .get(s.as_str())
                .ok_or_else(|| CompileError::new(decl.span, format!("unknown superclass `{s}`")))?,
        };
        let sup_name = classes[sup].name.as_str();
        if matches!(sup_name, "String" | "Math" | "Sys") {
            return Err(CompileError::new(
                decl.span,
                format!("cannot extend `{sup_name}`"),
            ));
        }
        building(&mut classes, idx).superclass = Some(sup);
    }
    // Cycle check. A class is marked once its chain is known to end at
    // a root, so each walk stops at the first marked ancestor and the
    // check is linear in the class count, however deep the chains.
    #[derive(Clone, Copy, PartialEq)]
    enum Chain {
        Unknown,
        OnWalk,
        Acyclic,
    }
    let mut chain = vec![Chain::Unknown; classes.len()];
    let mut walk = Vec::new();
    for decl in &cu.classes {
        let mut cur = Some(names[decl.name.as_str()]);
        while let Some(c) = cur {
            match chain[c] {
                Chain::Acyclic => break,
                Chain::OnWalk => {
                    return Err(CompileError::new(decl.span, "cyclic class hierarchy"))
                }
                Chain::Unknown => {
                    chain[c] = Chain::OnWalk;
                    walk.push(c);
                    cur = classes[c].superclass;
                }
            }
        }
        for c in walk.drain(..) {
            chain[c] = Chain::Acyclic;
        }
    }

    // Pass 3: declare members.
    let mut field_inits: Vec<(ClassIdx, FieldIdx, &ast::Expr)> = Vec::new();
    let mut bodies: Vec<PendingBody> = Vec::new();
    for decl in &cu.classes {
        let idx = names[decl.name.as_str()];
        let mut has_ctor = false;
        for member in &decl.members {
            match member {
                Member::Field(f) => {
                    let ty = resolve_type(&names, &f.ty, f.span)?;
                    if classes[idx].fields.iter().any(|x| x.name == f.name) {
                        return Err(CompileError::new(
                            f.span,
                            format!("duplicate field `{}`", f.name),
                        ));
                    }
                    let fidx = classes[idx].fields.len();
                    building(&mut classes, idx).fields.push(Field {
                        name: f.name.clone(),
                        ty,
                        is_static: f.is_static,
                    });
                    if let Some(init) = &f.init {
                        field_inits.push((idx, fidx, init));
                    }
                }
                Member::Method(md) => {
                    let params = md
                        .params
                        .iter()
                        .map(|(t, _)| resolve_type(&names, t, md.span))
                        .collect::<Result<Vec<_>, _>>()?;
                    let ret = match &md.ret {
                        None => Ty::Void,
                        Some(t) => resolve_type(&names, t, md.span)?,
                    };
                    check_no_duplicate_sig(&classes[idx], &md.name, &params, md.span)?;
                    let midx = classes[idx].methods.len();
                    building(&mut classes, idx).methods.push(Method {
                        name: md.name.clone(),
                        kind: if md.is_static {
                            MethodKind::Static
                        } else {
                            MethodKind::Virtual
                        },
                        params,
                        ret,
                        body: None,
                        intrinsic: None,
                    });
                    bodies.push(PendingBody {
                        class: idx,
                        method: midx,
                        params: &md.params,
                        stmts: &md.body,
                        is_ctor: false,
                        span: md.span,
                    });
                }
                Member::Ctor(cd) => {
                    has_ctor = true;
                    let params = cd
                        .params
                        .iter()
                        .map(|(t, _)| resolve_type(&names, t, cd.span))
                        .collect::<Result<Vec<_>, _>>()?;
                    check_no_duplicate_sig(&classes[idx], "<init>", &params, cd.span)?;
                    let midx = classes[idx].methods.len();
                    building(&mut classes, idx).methods.push(Method {
                        name: "<init>".into(),
                        kind: MethodKind::Special,
                        params,
                        ret: Ty::Void,
                        body: None,
                        intrinsic: None,
                    });
                    bodies.push(PendingBody {
                        class: idx,
                        method: midx,
                        params: &cd.params,
                        stmts: &cd.body,
                        is_ctor: true,
                        span: cd.span,
                    });
                }
            }
        }
        if !has_ctor {
            // Synthesize the default constructor.
            let midx = classes[idx].methods.len();
            building(&mut classes, idx).methods.push(Method {
                name: "<init>".into(),
                kind: MethodKind::Special,
                params: vec![],
                ret: Ty::Void,
                body: None,
                intrinsic: None,
            });
            bodies.push(PendingBody {
                class: idx,
                method: midx,
                params: &[],
                stmts: &[],
                is_ctor: true,
                span: decl.span,
            });
        }
    }

    // Pass 4: an override keeps the result type of the method it
    // overrides. The core type table assigns the dispatch slots.
    check_override_results(&classes, builtin_count)?;

    prog.classes = classes;

    // Pass 5: check bodies.
    let mut compiled: Vec<(ClassIdx, MethodIdx, Body)> = Vec::new();
    for pb in &bodies {
        let body = check_body(&prog, &names, pb, &field_inits)?;
        compiled.push((pb.class, pb.method, body));
    }
    // Pass 6: synthesize `<clinit>` for classes with static inits.
    let mut clinits: Vec<(ClassIdx, Body)> = Vec::new();
    for ci in 0..prog.classes.len() {
        let inits: Vec<&(ClassIdx, FieldIdx, &ast::Expr)> = field_inits
            .iter()
            .filter(|(c, f, _)| *c == ci && prog.field(ci, *f).is_static)
            .collect();
        if inits.is_empty() {
            continue;
        }
        let mut ctx = Ctx::new(&prog, &names, ci, true, Ty::Void);
        let mut stmts = Vec::new();
        for (c, f, init) in inits {
            let want = prog.field(*c, *f).ty.clone();
            let v = ctx.expr_expect(init, &want)?;
            stmts.push(Stmt::Expr(Expr {
                ty: want,
                kind: ExprKind::SetStatic {
                    class: *c,
                    field: *f,
                    value: Box::new(v),
                },
            }));
        }
        clinits.push((
            ci,
            Body {
                locals: ctx.locals,
                stmts,
            },
        ));
    }
    for (ci, mi, body) in compiled {
        building(&mut prog.classes, ci).methods[mi].body = Some(body);
    }
    for (ci, body) in clinits {
        building(&mut prog.classes, ci).methods.push(Method {
            name: "<clinit>".into(),
            kind: MethodKind::Static,
            params: vec![],
            ret: Ty::Void,
            body: Some(body),
            intrinsic: None,
        });
    }
    Ok(prog)
}

/// Class names in scope, borrowed from the builtins and the source.
type Names<'a> = HashMap<&'a str, ClassIdx>;

/// A class being built. No class is shared before its program is
/// complete (the builtins' once-per-process set-up included).
fn building(classes: &mut [Arc<Class>], idx: ClassIdx) -> &mut Class {
    Arc::get_mut(&mut classes[idx]).expect("a class is not shared while it is built")
}

/// A method body waiting for pass 5, borrowed from the source's AST.
struct PendingBody<'a> {
    class: ClassIdx,
    method: MethodIdx,
    params: &'a [(TypeRef, String)],
    stmts: &'a [AStmt],
    is_ctor: bool,
    span: Span,
}

fn check_no_duplicate_sig(
    class: &Class,
    name: &str,
    params: &[Ty],
    span: Span,
) -> Result<(), CompileError> {
    if class
        .methods
        .iter()
        .any(|m| m.name == name && m.params == params)
    {
        return Err(CompileError::new(
            span,
            format!("duplicate method `{name}` with identical signature"),
        ));
    }
    Ok(())
}

fn resolve_type(names: &Names, t: &TypeRef, span: Span) -> Result<Ty, CompileError> {
    Ok(match t {
        TypeRef::Bool => Ty::Prim(PrimTy::Bool),
        TypeRef::Char => Ty::Prim(PrimTy::Char),
        TypeRef::Int => Ty::Prim(PrimTy::Int),
        TypeRef::Long => Ty::Prim(PrimTy::Long),
        TypeRef::Float => Ty::Prim(PrimTy::Float),
        TypeRef::Double => Ty::Prim(PrimTy::Double),
        TypeRef::Named(n) => Ty::Ref(
            *names
                .get(n.as_str())
                .ok_or_else(|| CompileError::new(span, format!("unknown type `{n}`")))?,
        ),
        TypeRef::Array(e) => Ty::Array(Box::new(resolve_type(names, e, span)?)),
    })
}

/// Rejects a virtual method of a source class (index `first_source` on)
/// whose nearest ancestor declaration with its name and parameters has
/// another result type, reporting the first such method in class order,
/// then method order.
///
/// One walk visits the class tree depth first, parents before children,
/// without recursion. It keeps the result of the nearest declaration of
/// each name and parameter list declared on the path from the root to
/// the class it visits, so a class costs time linear in its own methods
/// however deep it sits. The hierarchy must be acyclic.
fn check_override_results(
    classes: &[Arc<Class>],
    first_source: ClassIdx,
) -> Result<(), CompileError> {
    const NONE: ClassIdx = ClassIdx::MAX;
    // The class tree: each class's first child and next sibling.
    let mut links = vec![(NONE, NONE); classes.len()];
    let mut roots = NONE;
    for (c, class) in classes.iter().enumerate() {
        let head = match class.superclass {
            Some(s) => &mut links[s].0,
            None => &mut roots,
        };
        links[c].1 = std::mem::replace(head, c);
    }
    let virtuals = classes
        .iter()
        .flat_map(|c| &c.methods)
        .filter(|m| m.kind == MethodKind::Virtual)
        .count();
    let mut nearest: HashMap<(&str, &[Ty]), &Ty> = HashMap::with_capacity(virtuals);
    // What each declaration on the path replaced in `nearest`, tagged
    // with its class.
    let mut replaced = Vec::with_capacity(virtuals);
    let mut first_bad: Option<(ClassIdx, MethodIdx)> = None;
    // Depth first; the superclass links lead back up.
    let mut next = roots;
    while next != NONE {
        let c = next;
        for (mi, m) in classes[c].methods.iter().enumerate() {
            if m.kind != MethodKind::Virtual {
                continue;
            }
            let key = (m.name.as_str(), m.params.as_slice());
            let before = nearest.insert(key, &m.ret);
            if c >= first_source && before.is_some_and(|ret| *ret != m.ret) {
                first_bad = Some(first_bad.map_or((c, mi), |bad| bad.min((c, mi))));
            }
            replaced.push((c, key, before));
        }
        next = links[c].0;
        // Leave each class whose subtree is done, restoring what its
        // declarations replaced, until one has a next sibling.
        let mut done = c;
        while next == NONE {
            while let Some(&(class, key, before)) = replaced.last() {
                if class != done {
                    break;
                }
                replaced.pop();
                match before {
                    Some(ret) => nearest.insert(key, ret),
                    None => nearest.remove(&key),
                };
            }
            next = links[done].1;
            match classes[done].superclass {
                Some(p) if next == NONE => done = p,
                _ => break,
            }
        }
    }
    match first_bad {
        None => Ok(()),
        Some((c, mi)) => Err(CompileError::new(
            Span::default(),
            format!(
                "{}.{}: override changes return type",
                classes[c].name, classes[c].methods[mi].name
            ),
        )),
    }
}

fn check_body(
    prog: &Program,
    names: &Names,
    pb: &PendingBody,
    field_inits: &[(ClassIdx, FieldIdx, &ast::Expr)],
) -> Result<Body, CompileError> {
    let meta = prog.method(pb.class, pb.method);
    let is_static = meta.kind == MethodKind::Static;
    let ret = meta.ret.clone();
    let mut ctx = Ctx::new(prog, names, pb.class, is_static, ret.clone());
    // Parameter slots.
    for (i, (_, pname)) in pb.params.iter().enumerate() {
        let ty = meta.params[i].clone();
        let slot = ctx.locals.len();
        ctx.locals.push(Local {
            name: pname.clone(),
            ty,
        });
        ctx.scope_insert(pname.clone(), slot, pb.span)?;
    }
    let mut stmts = Vec::new();
    let mut ast_stmts: &[AStmt] = pb.stmts;
    if pb.is_ctor {
        // Explicit or implicit super(...) first.
        let (super_args, rest): (&[ast::Expr], &[AStmt]) = match pb.stmts.first() {
            Some(AStmt::SuperCall(args, _)) => (args, &pb.stmts[1..]),
            _ => (&[], pb.stmts),
        };
        ast_stmts = rest;
        if let Some(sup) = prog.class(pb.class).superclass {
            let arg_exprs = super_args
                .iter()
                .map(|a| ctx.expr(a))
                .collect::<Result<Vec<_>, _>>()?;
            let (mc, mm, args) = ctx.resolve_overload(sup, "<init>", arg_exprs, pb.span, true)?;
            stmts.push(Stmt::Expr(Expr {
                ty: Ty::Void,
                kind: ExprKind::CallSpecial {
                    class: mc,
                    method: mm,
                    recv: Box::new(ctx.this_expr(pb.span)?),
                    args,
                },
            }));
        }
        // Instance field initializers.
        for (c, f, init) in field_inits {
            if *c != pb.class || prog.field(*c, *f).is_static {
                continue;
            }
            let want = prog.field(*c, *f).ty.clone();
            let v = ctx.expr_expect(init, &want)?;
            stmts.push(Stmt::Expr(Expr {
                ty: want,
                kind: ExprKind::SetField {
                    obj: Box::new(ctx.this_expr(pb.span)?),
                    class: *c,
                    field: *f,
                    value: Box::new(v),
                },
            }));
        }
    }
    ctx.push_scope();
    ctx.block(ast_stmts, &mut stmts)?;
    ctx.pop_scope();
    // Reachability / missing return.
    let completes = stmts_complete_normally(&stmts);
    if ret != Ty::Void && completes {
        return Err(CompileError::new(
            pb.span,
            format!(
                "{}.{}: missing return statement",
                prog.class(pb.class).name,
                prog.method(pb.class, pb.method).name
            ),
        ));
    }
    Ok(Body {
        locals: ctx.locals,
        stmts,
    })
}

// ---------------------------------------------------------------- Ctx

struct Ctx<'a> {
    prog: &'a Program,
    names: &'a Names<'a>,
    class: ClassIdx,
    is_static: bool,
    ret: Ty,
    locals: Vec<Local>,
    scopes: Vec<HashMap<String, LocalId>>,
    /// Enclosing loops, innermost last; `Some(name)` when labeled.
    loop_labels: Vec<Option<String>>,
    /// A pending label to attach to the next loop statement.
    pending_label: Option<String>,
}

impl<'a> Ctx<'a> {
    fn new(
        prog: &'a Program,
        names: &'a Names<'a>,
        class: ClassIdx,
        is_static: bool,
        ret: Ty,
    ) -> Self {
        let mut locals = Vec::new();
        if !is_static {
            locals.push(Local {
                name: "this".into(),
                ty: Ty::Ref(class),
            });
        }
        Ctx {
            prog,
            names,
            class,
            is_static,
            ret,
            locals,
            scopes: vec![HashMap::new()],
            loop_labels: Vec::new(),
            pending_label: None,
        }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn scope_insert(
        &mut self,
        name: String,
        slot: LocalId,
        span: Span,
    ) -> Result<(), CompileError> {
        let top = self.scopes.last_mut().expect("scope stack non-empty");
        if top.insert(name.clone(), slot).is_some() {
            return Err(CompileError::new(
                span,
                format!("variable `{name}` already declared in this scope"),
            ));
        }
        Ok(())
    }

    fn lookup_local(&self, name: &str) -> Option<LocalId> {
        for s in self.scopes.iter().rev() {
            if let Some(&l) = s.get(name) {
                return Some(l);
            }
        }
        None
    }

    fn new_local(&mut self, name: String, ty: Ty) -> LocalId {
        let slot = self.locals.len();
        self.locals.push(Local { name, ty });
        slot
    }

    fn new_temp(&mut self, ty: Ty) -> LocalId {
        self.new_local(format!("$t{}", self.locals.len()), ty)
    }

    fn enter_loop(&mut self) {
        let label = self.pending_label.take();
        self.loop_labels.push(label);
    }

    fn exit_loop(&mut self) {
        self.loop_labels.pop();
    }

    /// Resolves a `break`/`continue` target to an enclosing-loop index
    /// (0 = innermost).
    fn resolve_loop(
        &self,
        label: Option<&str>,
        what: &str,
        span: Span,
    ) -> Result<usize, CompileError> {
        if self.loop_labels.is_empty() {
            return Err(CompileError::new(span, format!("`{what}` outside a loop")));
        }
        match label {
            None => Ok(0),
            Some(l) => self
                .loop_labels
                .iter()
                .rev()
                .position(|x| x.as_deref() == Some(l))
                .ok_or_else(|| CompileError::new(span, format!("unknown label `{l}`"))),
        }
    }

    fn this_expr(&self, span: Span) -> Result<Expr, CompileError> {
        if self.is_static {
            return Err(CompileError::new(span, "`this` in static context"));
        }
        Ok(Expr {
            ty: Ty::Ref(self.class),
            kind: ExprKind::Local(0),
        })
    }

    // ------------------------------------------------------ statements

    fn block(&mut self, stmts: &[AStmt], out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        // Reject statements after an abruptly-terminating one (javac's
        // unreachable-code rule, which SafeTSA's empty-unreachable-block
        // verifier rule relies on).
        for (i, s) in stmts.iter().enumerate() {
            let before = out.len();
            self.stmt(s, out)?;
            let added = &out[before..];
            if !added.is_empty() && !stmts_complete_normally(added) && i + 1 != stmts.len() {
                // Find span of the next statement for the error message.
                return Err(CompileError::new(
                    stmt_span(&stmts[i + 1]),
                    "unreachable statement",
                ));
            }
        }
        Ok(())
    }

    fn stmt(&mut self, s: &AStmt, out: &mut Vec<Stmt>) -> Result<(), CompileError> {
        match s {
            AStmt::Empty => {}
            AStmt::Block(inner) => {
                self.push_scope();
                let r = self.block(inner, out);
                self.pop_scope();
                r?;
            }
            AStmt::Local {
                ty,
                name,
                init,
                span,
            } => {
                let ty = resolve_type(self.names, ty, *span)?;
                let value = match init {
                    Some(e) => self.expr_expect(e, &ty)?,
                    None => default_value(&ty),
                };
                let slot = self.new_local(name.clone(), ty.clone());
                self.scope_insert(name.clone(), slot, *span)?;
                out.push(Stmt::Expr(Expr {
                    ty,
                    kind: ExprKind::AssignLocal {
                        local: slot,
                        value: Box::new(value),
                    },
                }));
            }
            AStmt::Expr(e) => {
                let he = self.stmt_expr(e)?;
                out.push(Stmt::Expr(he));
            }
            AStmt::If { cond, then, els } => {
                let c = self.expr_expect(cond, &Ty::BOOL)?;
                let mut t = Vec::new();
                self.push_scope();
                self.stmt(then, &mut t)?;
                self.pop_scope();
                let mut e = Vec::new();
                if let Some(els) = els {
                    self.push_scope();
                    self.stmt(els, &mut e)?;
                    self.pop_scope();
                }
                out.push(Stmt::If {
                    cond: c,
                    then: t,
                    els: e,
                });
            }
            AStmt::While { cond, body } => {
                let c = self.expr_expect(cond, &Ty::BOOL)?;
                let mut b = Vec::new();
                self.push_scope();
                self.enter_loop();
                let r = self.stmt(body, &mut b);
                self.exit_loop();
                self.pop_scope();
                r?;
                out.push(Stmt::While { cond: c, body: b });
            }
            AStmt::Do { body, cond } => {
                let mut b = Vec::new();
                self.push_scope();
                self.enter_loop();
                let r = self.stmt(body, &mut b);
                self.exit_loop();
                self.pop_scope();
                r?;
                let c = self.expr_expect(cond, &Ty::BOOL)?;
                out.push(Stmt::DoWhile { body: b, cond: c });
            }
            AStmt::For {
                init,
                cond,
                update,
                body,
            } => {
                self.push_scope();
                for i in init {
                    self.stmt(i, out)?;
                }
                let c = match cond {
                    Some(e) => Some(self.expr_expect(e, &Ty::BOOL)?),
                    None => None,
                };
                self.enter_loop();
                let mut b = Vec::new();
                self.push_scope();
                let r = self.stmt(body, &mut b);
                self.pop_scope();
                let u = match r {
                    Ok(()) => update
                        .iter()
                        .map(|e| self.stmt_expr(e))
                        .collect::<Result<Vec<_>, _>>(),
                    Err(e) => Err(e),
                };
                self.exit_loop();
                let u = u?;
                self.pop_scope();
                out.push(Stmt::For {
                    cond: c,
                    update: u,
                    body: b,
                });
            }
            AStmt::Break(label, span) => {
                let depth = self.resolve_loop(label.as_deref(), "break", *span)?;
                out.push(Stmt::Break { depth });
            }
            AStmt::Continue(label, span) => {
                let depth = self.resolve_loop(label.as_deref(), "continue", *span)?;
                out.push(Stmt::Continue { depth });
            }
            AStmt::Return(v, span) => match (v, self.ret.clone()) {
                (None, Ty::Void) => out.push(Stmt::Return(None)),
                (Some(_), Ty::Void) => {
                    return Err(CompileError::new(*span, "void method returns a value"))
                }
                (None, _) => return Err(CompileError::new(*span, "missing return value")),
                (Some(e), want) => {
                    let he = self.expr_expect(e, &want)?;
                    out.push(Stmt::Return(Some(he)));
                }
            },
            AStmt::Throw(e) => {
                let he = self.expr(e)?;
                match &he.ty {
                    Ty::Ref(c) if self.prog.is_subclass(*c, self.prog.throwable) => {}
                    _ => {
                        return Err(CompileError::new(
                            e.span,
                            "throw operand must be a Throwable",
                        ))
                    }
                }
                out.push(Stmt::Throw(he));
            }
            AStmt::Try {
                body,
                catches,
                finally,
            } => {
                self.push_scope();
                let mut b = Vec::new();
                self.block(body, &mut b)?;
                self.pop_scope();
                let mut cs = Vec::new();
                for c in catches {
                    let class = *self.names.get(c.class.as_str()).ok_or_else(|| {
                        CompileError::new(c.span, format!("unknown class `{}`", c.class))
                    })?;
                    if !self.prog.is_subclass(class, self.prog.throwable) {
                        return Err(CompileError::new(
                            c.span,
                            format!("`{}` is not a Throwable", c.class),
                        ));
                    }
                    self.push_scope();
                    let slot = self.new_local(c.var.clone(), Ty::Ref(class));
                    self.scope_insert(c.var.clone(), slot, c.span)?;
                    let mut cb = Vec::new();
                    self.block(&c.body, &mut cb)?;
                    self.pop_scope();
                    cs.push(Catch {
                        class,
                        local: slot,
                        body: cb,
                    });
                }
                let fin = match finally {
                    Some(f) => {
                        self.push_scope();
                        let mut fb = Vec::new();
                        self.block(f, &mut fb)?;
                        self.pop_scope();
                        Some(fb)
                    }
                    None => None,
                };
                match fin {
                    None => out.push(Stmt::Try {
                        body: b,
                        catches: cs,
                        finally: None,
                    }),
                    Some(fin) => {
                        // Desugar try/finally by duplication:
                        //   try { try {B} catch(arms) }
                        //   catch (Throwable $t) { F; throw $t; }
                        //   F
                        // Abrupt exits (break/continue/return) out of the
                        // protected region would bypass F, so they are
                        // rejected (documented subset restriction).
                        let span = stmt_span(s);
                        if exits_region(&b) || cs.iter().any(|c| exits_region(&c.body)) {
                            return Err(CompileError::new(
                                span,
                                "unsupported: break/continue/return out of a try with finally",
                            ));
                        }
                        let inner = if cs.is_empty() {
                            b
                        } else {
                            vec![Stmt::Try {
                                body: b,
                                catches: cs,
                                finally: None,
                            }]
                        };
                        let thr = self.prog.throwable;
                        let slot = self.new_local("$fin".into(), Ty::Ref(thr));
                        let mut handler = fin.clone();
                        handler.push(Stmt::Throw(Expr {
                            ty: Ty::Ref(thr),
                            kind: ExprKind::Local(slot),
                        }));
                        out.push(Stmt::Try {
                            body: inner,
                            catches: vec![Catch {
                                class: thr,
                                local: slot,
                                body: handler,
                            }],
                            finally: None,
                        });
                        out.extend(fin);
                    }
                }
            }
            AStmt::Labeled { name, body, span } => {
                if self.loop_labels.iter().flatten().any(|l| l == name) {
                    return Err(CompileError::new(
                        *span,
                        format!("label `{name}` already in scope"),
                    ));
                }
                match body.as_ref() {
                    AStmt::While { .. } | AStmt::Do { .. } | AStmt::For { .. } => {}
                    _ => {
                        return Err(CompileError::new(
                            *span,
                            "labels are only supported on loops",
                        ))
                    }
                }
                self.pending_label = Some(name.clone());
                self.stmt(body, out)?;
                debug_assert!(self.pending_label.is_none(), "loop consumed the label");
            }
            AStmt::SuperCall(_, span) => {
                return Err(CompileError::new(
                    *span,
                    "super(...) only allowed as the first statement of a constructor",
                ))
            }
        }
        Ok(())
    }

    /// Checks an expression used as a statement; postfix `++`/`--` and
    /// plain assignments skip the value-preserving temporaries.
    fn stmt_expr(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        if let AK::IncDec { target, inc, .. } = &e.kind {
            // Statement context: value unused → treat as prefix.
            let pre = ast::Expr {
                kind: AK::IncDec {
                    target: target.clone(),
                    inc: *inc,
                    prefix: true,
                },
                span: e.span,
            };
            return self.expr(&pre);
        }
        self.expr(e)
    }

    // ----------------------------------------------------- expressions

    fn expr_expect(&mut self, e: &ast::Expr, want: &Ty) -> Result<Expr, CompileError> {
        let he = self.expr(e)?;
        self.convert(he, want, e.span)
    }

    /// Implicit (assignment) conversion of `e` to `want`.
    fn convert(&mut self, e: Expr, want: &Ty, span: Span) -> Result<Expr, CompileError> {
        if &e.ty == want {
            return Ok(e);
        }
        // Constant narrowing: int literal to char.
        if let (ExprKind::Lit(Lit::Int(v)), Ty::Prim(PrimTy::Char)) = (&e.kind, want) {
            if (0..=0xFFFF).contains(v) {
                return Ok(Expr {
                    ty: want.clone(),
                    kind: ExprKind::Lit(Lit::Char(*v as u16)),
                });
            }
        }
        match (e.ty.clone(), want) {
            (Ty::Prim(a), Ty::Prim(b)) if widens(a, *b) => Ok(self.emit_conv(e, a, *b)),
            _ if self.prog.ref_assignable(&e.ty, want) => {
                let checked = false;
                Ok(Expr {
                    ty: want.clone(),
                    kind: ExprKind::CastRef {
                        target: want.clone(),
                        expr: Box::new(e),
                        checked,
                    },
                })
            }
            _ => Err(CompileError::new(
                span,
                format!("cannot convert `{}` to `{}`", e.ty, want),
            )),
        }
    }

    /// Builds the (possibly multi-step) primitive conversion chain.
    fn emit_conv(&self, e: Expr, from: PrimTy, to: PrimTy) -> Expr {
        if from == to {
            return e;
        }
        let path = conv_path(from, to).expect("conversion path exists");
        let mut cur = e;
        let mut cur_ty = from;
        for step in path {
            cur = Expr {
                ty: Ty::Prim(step),
                kind: ExprKind::Conv {
                    from: cur_ty,
                    to: step,
                    expr: Box::new(cur),
                },
            };
            cur_ty = step;
        }
        cur
    }

    fn expr(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        let span = e.span;
        match &e.kind {
            AK::IntLit(v) => {
                if *v < i32::MIN as i64 || *v > i32::MAX as i64 {
                    return Err(CompileError::new(span, "int literal out of range"));
                }
                Ok(Expr {
                    ty: Ty::INT,
                    kind: ExprKind::Lit(Lit::Int(*v as i32)),
                })
            }
            AK::LongLit(v) => Ok(Expr {
                ty: Ty::Prim(PrimTy::Long),
                kind: ExprKind::Lit(Lit::Long(*v)),
            }),
            AK::FloatLit(v) => Ok(Expr {
                ty: Ty::Prim(PrimTy::Float),
                kind: ExprKind::Lit(Lit::Float(*v)),
            }),
            AK::DoubleLit(v) => Ok(Expr {
                ty: Ty::Prim(PrimTy::Double),
                kind: ExprKind::Lit(Lit::Double(*v)),
            }),
            AK::CharLit(v) => Ok(Expr {
                ty: Ty::Prim(PrimTy::Char),
                kind: ExprKind::Lit(Lit::Char(*v)),
            }),
            AK::StrLit(s) => Ok(Expr {
                ty: Ty::Ref(self.prog.string),
                kind: ExprKind::Lit(Lit::Str(s.clone())),
            }),
            AK::BoolLit(b) => Ok(Expr {
                ty: Ty::BOOL,
                kind: ExprKind::Lit(Lit::Bool(*b)),
            }),
            AK::Null => Ok(Expr {
                ty: Ty::Null,
                kind: ExprKind::Lit(Lit::Null),
            }),
            AK::This => self.this_expr(span),
            AK::Name(n) => self.name(n, span),
            AK::FieldAccess { obj, name } => self.field_access(obj, name, span),
            AK::Index { arr, idx } => {
                let a = self.expr(arr)?;
                let elem = match &a.ty {
                    Ty::Array(e) => (**e).clone(),
                    t => return Err(CompileError::new(span, format!("indexing non-array `{t}`"))),
                };
                let i = self.index_expr(idx)?;
                Ok(Expr {
                    ty: elem,
                    kind: ExprKind::GetElem {
                        arr: Box::new(a),
                        idx: Box::new(i),
                    },
                })
            }
            AK::CallUnqualified { name, args } => {
                let arg_exprs = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let (mc, mm, cargs) =
                    self.resolve_overload(self.class, name, arg_exprs, span, false)?;
                let meta = self.prog.method(mc, mm);
                match meta.kind {
                    MethodKind::Static => Ok(Expr {
                        ty: meta.ret.clone(),
                        kind: ExprKind::CallStatic {
                            class: mc,
                            method: mm,
                            args: cargs,
                        },
                    }),
                    MethodKind::Virtual => {
                        let recv = self.this_expr(span)?;
                        Ok(Expr {
                            ty: meta.ret.clone(),
                            kind: ExprKind::CallVirtual {
                                class: mc,
                                method: mm,
                                recv: Box::new(recv),
                                args: cargs,
                            },
                        })
                    }
                    MethodKind::Special => Err(CompileError::new(
                        span,
                        "cannot call a constructor directly",
                    )),
                }
            }
            AK::CallQualified { recv, name, args } => self.call_qualified(recv, name, args, span),
            AK::New { class, args } => {
                let c = *self
                    .names
                    .get(class.as_str())
                    .ok_or_else(|| CompileError::new(span, format!("unknown class `{class}`")))?;
                if matches!(
                    self.prog.class(c).name.as_str(),
                    "Math" | "Sys" | "String" | "Object"
                ) && self.prog.class(c).name != "Object"
                {
                    return Err(CompileError::new(
                        span,
                        format!("cannot instantiate `{class}`"),
                    ));
                }
                let arg_exprs = args
                    .iter()
                    .map(|a| self.expr(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let (mc, mm, cargs) = self.resolve_overload(c, "<init>", arg_exprs, span, true)?;
                if mc != c {
                    return Err(CompileError::new(
                        span,
                        format!("no matching constructor in `{class}`"),
                    ));
                }
                Ok(Expr {
                    ty: Ty::Ref(c),
                    kind: ExprKind::New {
                        class: c,
                        ctor: mm,
                        args: cargs,
                    },
                })
            }
            AK::NewArray {
                elem,
                len,
                extra_dims,
            } => {
                let mut ety = resolve_type(self.names, elem, span)?;
                for _ in 0..*extra_dims {
                    ety = Ty::Array(Box::new(ety));
                }
                let l = self.index_expr(len)?;
                Ok(Expr {
                    ty: Ty::Array(Box::new(ety.clone())),
                    kind: ExprKind::NewArray {
                        elem: ety,
                        len: Box::new(l),
                    },
                })
            }
            AK::ArrayLit { elem, elems } => {
                let ety = match elem {
                    Some(t) => resolve_type(self.names, t, span)?,
                    None => {
                        return Err(CompileError::new(
                            span,
                            "array initializer needs a declared array type",
                        ))
                    }
                };
                let mut hs = Vec::new();
                for el in elems {
                    // Nested `{...}` literals get the element type pushed in.
                    let he = match (&el.kind, &ety) {
                        (AK::ArrayLit { elem: None, elems }, Ty::Array(inner)) => {
                            let lit = ast::Expr {
                                kind: AK::ArrayLit {
                                    elem: Some(ty_to_typeref(inner)),
                                    elems: elems.clone(),
                                },
                                span: el.span,
                            };
                            self.expr(&lit)?
                        }
                        _ => self.expr(el)?,
                    };
                    hs.push(self.convert(he, &ety, el.span)?);
                }
                Ok(Expr {
                    ty: Ty::Array(Box::new(ety.clone())),
                    kind: ExprKind::ArrayLit {
                        elem: ety,
                        elems: hs,
                    },
                })
            }
            AK::Unary { op, expr } => self.unary(*op, expr, span),
            AK::Binary { op, l, r } => self.binary(*op, l, r, span),
            AK::Assign { target, op, value } => self.assign(target, *op, value, span),
            AK::IncDec {
                target,
                inc,
                prefix,
            } => self.inc_dec(target, *inc, *prefix, span),
            AK::Cast { ty, expr } => {
                let target = resolve_type(self.names, ty, span)?;
                let he = self.expr(expr)?;
                self.explicit_cast(he, target, span)
            }
            AK::InstanceOf { expr, ty } => {
                let he = self.expr(expr)?;
                if !he.ty.is_ref() {
                    return Err(CompileError::new(span, "instanceof on non-reference"));
                }
                let target = resolve_type(self.names, ty, span)?;
                if !target.is_ref() {
                    return Err(CompileError::new(span, "instanceof against non-reference"));
                }
                Ok(Expr {
                    ty: Ty::BOOL,
                    kind: ExprKind::InstanceOf {
                        expr: Box::new(he),
                        target,
                    },
                })
            }
            AK::Cond { cond, then, els } => {
                let c = self.expr_expect(cond, &Ty::BOOL)?;
                let t = self.expr(then)?;
                let e2 = self.expr(els)?;
                let (t, e2, ty) = self.unify_branches(t, e2, span)?;
                Ok(Expr {
                    ty,
                    kind: ExprKind::Cond {
                        cond: Box::new(c),
                        then: Box::new(t),
                        els: Box::new(e2),
                    },
                })
            }
        }
    }

    /// Converts an index/length expression to `int` (char widens).
    fn index_expr(&mut self, e: &ast::Expr) -> Result<Expr, CompileError> {
        let he = self.expr(e)?;
        match he.ty.prim() {
            Some(PrimTy::Int) => Ok(he),
            Some(PrimTy::Char) => Ok(self.emit_conv(he, PrimTy::Char, PrimTy::Int)),
            _ => Err(CompileError::new(
                e.span,
                format!("index/length must be int, found `{}`", he.ty),
            )),
        }
    }

    fn name(&mut self, n: &str, span: Span) -> Result<Expr, CompileError> {
        if let Some(slot) = self.lookup_local(n) {
            return Ok(Expr {
                ty: self.locals[slot].ty.clone(),
                kind: ExprKind::Local(slot),
            });
        }
        if let Some((c, f)) = self.prog.find_field(self.class, n) {
            let field = self.prog.field(c, f);
            if field.is_static {
                return Ok(Expr {
                    ty: field.ty.clone(),
                    kind: ExprKind::GetStatic { class: c, field: f },
                });
            }
            let this = self.this_expr(span)?;
            return Ok(Expr {
                ty: field.ty.clone(),
                kind: ExprKind::GetField {
                    obj: Box::new(this),
                    class: c,
                    field: f,
                },
            });
        }
        Err(CompileError::new(span, format!("unknown name `{n}`")))
    }

    fn field_access(
        &mut self,
        obj: &ast::Expr,
        name: &str,
        span: Span,
    ) -> Result<Expr, CompileError> {
        // `ClassName.field` — static access, unless a local shadows.
        if let AK::Name(qual) = &obj.kind {
            if self.lookup_local(qual).is_none() && self.prog.find_field(self.class, qual).is_none()
            {
                if let Some(&c) = self.names.get(qual.as_str()) {
                    let (dc, f) = self.prog.find_field(c, name).ok_or_else(|| {
                        CompileError::new(span, format!("unknown field `{qual}.{name}`"))
                    })?;
                    let field = self.prog.field(dc, f);
                    if !field.is_static {
                        return Err(CompileError::new(
                            span,
                            format!("`{qual}.{name}` is not static"),
                        ));
                    }
                    return Ok(Expr {
                        ty: field.ty.clone(),
                        kind: ExprKind::GetStatic {
                            class: dc,
                            field: f,
                        },
                    });
                }
            }
        }
        let o = self.expr(obj)?;
        match &o.ty {
            Ty::Array(_) if name == "length" => Ok(Expr {
                ty: Ty::INT,
                kind: ExprKind::ArrayLen { arr: Box::new(o) },
            }),
            Ty::Ref(c) => {
                let (dc, f) = self
                    .prog
                    .find_field(*c, name)
                    .ok_or_else(|| CompileError::new(span, format!("unknown field `{name}`")))?;
                let field = self.prog.field(dc, f);
                if field.is_static {
                    return Ok(Expr {
                        ty: field.ty.clone(),
                        kind: ExprKind::GetStatic {
                            class: dc,
                            field: f,
                        },
                    });
                }
                Ok(Expr {
                    ty: field.ty.clone(),
                    kind: ExprKind::GetField {
                        obj: Box::new(o),
                        class: dc,
                        field: f,
                    },
                })
            }
            t => Err(CompileError::new(
                span,
                format!("field access on non-object `{t}`"),
            )),
        }
    }

    fn call_qualified(
        &mut self,
        recv: &ast::Expr,
        name: &str,
        args: &[ast::Expr],
        span: Span,
    ) -> Result<Expr, CompileError> {
        let arg_exprs = args
            .iter()
            .map(|a| self.expr(a))
            .collect::<Result<Vec<_>, _>>()?;
        // `ClassName.m(...)` — static call, unless a local shadows.
        if let AK::Name(qual) = &recv.kind {
            if self.lookup_local(qual).is_none() && self.prog.find_field(self.class, qual).is_none()
            {
                if let Some(&c) = self.names.get(qual.as_str()) {
                    let (mc, mm, cargs) = self.resolve_overload(c, name, arg_exprs, span, false)?;
                    let meta = self.prog.method(mc, mm);
                    if meta.kind != MethodKind::Static {
                        return Err(CompileError::new(
                            span,
                            format!("`{qual}.{name}` is not static"),
                        ));
                    }
                    return Ok(Expr {
                        ty: meta.ret.clone(),
                        kind: ExprKind::CallStatic {
                            class: mc,
                            method: mm,
                            args: cargs,
                        },
                    });
                }
            }
        }
        let o = self.expr(recv)?;
        let c = match &o.ty {
            Ty::Ref(c) => *c,
            t => {
                return Err(CompileError::new(
                    span,
                    format!("method call on non-object `{t}`"),
                ))
            }
        };
        let (mc, mm, cargs) = self.resolve_overload(c, name, arg_exprs, span, false)?;
        let meta = self.prog.method(mc, mm);
        match meta.kind {
            MethodKind::Static => Err(CompileError::new(
                span,
                format!("`{name}` is static; call it on the class"),
            )),
            MethodKind::Virtual => Ok(Expr {
                ty: meta.ret.clone(),
                kind: ExprKind::CallVirtual {
                    class: mc,
                    method: mm,
                    recv: Box::new(o),
                    args: cargs,
                },
            }),
            MethodKind::Special => Err(CompileError::new(
                span,
                "cannot call a constructor directly",
            )),
        }
    }

    /// Overload resolution: filter applicable candidates, pick the most
    /// specific, and convert the arguments.
    fn resolve_overload(
        &mut self,
        class: ClassIdx,
        name: &str,
        args: Vec<Expr>,
        span: Span,
        ctors: bool,
    ) -> Result<(ClassIdx, MethodIdx, Vec<Expr>), CompileError> {
        let candidates: Vec<(ClassIdx, MethodIdx)> = if ctors {
            self.prog.classes[class]
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| m.name == "<init>")
                .map(|(i, _)| (class, i))
                .collect()
        } else {
            self.prog.find_methods(class, name)
        };
        if candidates.is_empty() {
            return Err(CompileError::new(
                span,
                format!(
                    "unknown method `{name}` in `{}`",
                    self.prog.class(class).name
                ),
            ));
        }
        let applicable: Vec<(ClassIdx, MethodIdx)> = candidates
            .iter()
            .copied()
            .filter(|&(c, m)| {
                let meta = self.prog.method(c, m);
                meta.params.len() == args.len()
                    && meta
                        .params
                        .iter()
                        .zip(&args)
                        .all(|(p, a)| self.invocation_convertible(&a.ty, p))
            })
            .collect();
        if applicable.is_empty() {
            return Err(CompileError::new(
                span,
                format!(
                    "no applicable overload of `{name}` for ({})",
                    args.iter()
                        .map(|a| a.ty.to_string())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ));
        }
        // Most specific: params of the winner convert to every other's.
        let mut best = applicable[0];
        for &cand in &applicable[1..] {
            if self.more_specific(cand, best) {
                best = cand;
            }
        }
        for &other in &applicable {
            if other != best && !self.more_specific(best, other) && self.more_specific(other, best)
            {
                return Err(CompileError::new(span, format!("ambiguous call `{name}`")));
            }
        }
        // Borrowed through the program reference, not through `self`.
        let prog = self.prog;
        let meta = prog.method(best.0, best.1);
        let mut converted = Vec::with_capacity(args.len());
        for (a, p) in args.into_iter().zip(&meta.params) {
            converted.push(self.convert(a, p, span)?);
        }
        Ok((best.0, best.1, converted))
    }

    fn invocation_convertible(&self, from: &Ty, to: &Ty) -> bool {
        if from == to {
            return true;
        }
        match (from, to) {
            (Ty::Prim(a), Ty::Prim(b)) => widens(*a, *b),
            _ => self.prog.ref_assignable(from, to),
        }
    }

    fn more_specific(&self, a: (ClassIdx, MethodIdx), b: (ClassIdx, MethodIdx)) -> bool {
        let ma = self.prog.method(a.0, a.1);
        let mb = self.prog.method(b.0, b.1);
        ma.params
            .iter()
            .zip(&mb.params)
            .all(|(x, y)| self.invocation_convertible(x, y))
    }

    fn unary(&mut self, op: ast::UnOp, expr: &ast::Expr, span: Span) -> Result<Expr, CompileError> {
        let he = self.expr(expr)?;
        match op {
            ast::UnOp::Not => {
                if he.ty != Ty::BOOL {
                    return Err(CompileError::new(span, "`!` needs a boolean"));
                }
                Ok(Expr {
                    ty: Ty::BOOL,
                    kind: ExprKind::Unary {
                        op: UnOp::Not,
                        prim: PrimTy::Bool,
                        expr: Box::new(he),
                    },
                })
            }
            ast::UnOp::Neg => {
                let p = self.unary_promote(he, span)?;
                let prim = p.ty.prim().expect("promoted to primitive");
                Ok(Expr {
                    ty: p.ty.clone(),
                    kind: ExprKind::Unary {
                        op: UnOp::Neg,
                        prim,
                        expr: Box::new(p),
                    },
                })
            }
            ast::UnOp::BitNot => {
                let p = self.unary_promote(he, span)?;
                let prim = p.ty.prim().expect("promoted to primitive");
                if !matches!(prim, PrimTy::Int | PrimTy::Long) {
                    return Err(CompileError::new(span, "`~` needs an integral operand"));
                }
                Ok(Expr {
                    ty: p.ty.clone(),
                    kind: ExprKind::Unary {
                        op: UnOp::BitNot,
                        prim,
                        expr: Box::new(p),
                    },
                })
            }
        }
    }

    /// Unary numeric promotion: char → int; others unchanged.
    fn unary_promote(&mut self, e: Expr, span: Span) -> Result<Expr, CompileError> {
        match e.ty.prim() {
            Some(PrimTy::Char) => Ok(self.emit_conv(e, PrimTy::Char, PrimTy::Int)),
            Some(PrimTy::Bool) | None => Err(CompileError::new(
                span,
                format!("numeric operation on `{}`", e.ty),
            )),
            Some(_) => Ok(e),
        }
    }

    fn binary(
        &mut self,
        op: ast::BinOp,
        l: &ast::Expr,
        r: &ast::Expr,
        span: Span,
    ) -> Result<Expr, CompileError> {
        use ast::BinOp as B;
        match op {
            B::AndAnd | B::OrOr => {
                let lh = self.expr_expect(l, &Ty::BOOL)?;
                let rh = self.expr_expect(r, &Ty::BOOL)?;
                let kind = if op == B::AndAnd {
                    ExprKind::And {
                        l: Box::new(lh),
                        r: Box::new(rh),
                    }
                } else {
                    ExprKind::Or {
                        l: Box::new(lh),
                        r: Box::new(rh),
                    }
                };
                return Ok(Expr { ty: Ty::BOOL, kind });
            }
            _ => {}
        }
        let lh = self.expr(l)?;
        let rh = self.expr(r)?;
        // String concatenation.
        if op == B::Add && (self.is_string(&lh.ty) || self.is_string(&rh.ty)) {
            let ls = self.stringify(lh, span)?;
            let rs = self.stringify(rh, span)?;
            return Ok(self.string_concat(ls, rs));
        }
        // Reference equality.
        if matches!(op, B::Eq | B::Ne) && lh.ty.is_ref() && rh.ty.is_ref() {
            let common = self.ref_lub(&lh.ty, &rh.ty, span)?;
            let lc = self.convert(lh, &common, span)?;
            let rc = self.convert(rh, &common, span)?;
            return Ok(Expr {
                ty: Ty::BOOL,
                kind: ExprKind::RefCmp {
                    l: Box::new(lc),
                    r: Box::new(rc),
                    eq: op == B::Eq,
                },
            });
        }
        // Boolean bit operations (&, |, ^, ==, !=).
        if lh.ty == Ty::BOOL && rh.ty == Ty::BOOL {
            let hop = match op {
                B::BitAnd => BinOp::BitAnd,
                B::BitOr => BinOp::BitOr,
                B::BitXor => BinOp::BitXor,
                B::Eq => BinOp::Eq,
                B::Ne => BinOp::Ne,
                _ => return Err(CompileError::new(span, "invalid boolean operation")),
            };
            return Ok(Expr {
                ty: Ty::BOOL,
                kind: ExprKind::Binary {
                    op: hop,
                    prim: PrimTy::Bool,
                    l: Box::new(lh),
                    r: Box::new(rh),
                },
            });
        }
        // Shifts promote each side independently.
        if matches!(op, B::Shl | B::Shr | B::Ushr) {
            let lp = self.unary_promote(lh, span)?;
            let prim = lp.ty.prim().unwrap();
            if !matches!(prim, PrimTy::Int | PrimTy::Long) {
                return Err(CompileError::new(span, "shift needs an integral operand"));
            }
            let rp = self.unary_promote(rh, span)?;
            let amount = match rp.ty.prim().unwrap() {
                PrimTy::Int => rp,
                PrimTy::Long => self.emit_conv(rp, PrimTy::Long, PrimTy::Int),
                _ => return Err(CompileError::new(span, "shift amount must be integral")),
            };
            let hop = match op {
                B::Shl => BinOp::Shl,
                B::Shr => BinOp::Shr,
                _ => BinOp::Ushr,
            };
            return Ok(Expr {
                ty: lp.ty.clone(),
                kind: ExprKind::Binary {
                    op: hop,
                    prim,
                    l: Box::new(lp),
                    r: Box::new(amount),
                },
            });
        }
        // Binary numeric promotion.
        let (lp, rp, prim) = self.binary_promote(lh, rh, span)?;
        let hop = match op {
            B::Add => BinOp::Add,
            B::Sub => BinOp::Sub,
            B::Mul => BinOp::Mul,
            B::Div => BinOp::Div,
            B::Rem => BinOp::Rem,
            B::BitAnd => BinOp::BitAnd,
            B::BitOr => BinOp::BitOr,
            B::BitXor => BinOp::BitXor,
            B::Eq => BinOp::Eq,
            B::Ne => BinOp::Ne,
            B::Lt => BinOp::Lt,
            B::Le => BinOp::Le,
            B::Gt => BinOp::Gt,
            B::Ge => BinOp::Ge,
            B::AndAnd | B::OrOr | B::Shl | B::Shr | B::Ushr => unreachable!(),
        };
        if matches!(hop, BinOp::BitAnd | BinOp::BitOr | BinOp::BitXor)
            && !matches!(prim, PrimTy::Int | PrimTy::Long)
        {
            return Err(CompileError::new(
                span,
                "bit operation needs integral operands",
            ));
        }
        let ty = if hop.is_comparison() {
            Ty::BOOL
        } else {
            Ty::Prim(prim)
        };
        Ok(Expr {
            ty,
            kind: ExprKind::Binary {
                op: hop,
                prim,
                l: Box::new(lp),
                r: Box::new(rp),
            },
        })
    }

    fn binary_promote(
        &mut self,
        l: Expr,
        r: Expr,
        span: Span,
    ) -> Result<(Expr, Expr, PrimTy), CompileError> {
        let lp = self.unary_promote(l, span)?;
        let rp = self.unary_promote(r, span)?;
        let a = lp.ty.prim().unwrap();
        let b = rp.ty.prim().unwrap();
        let target = promote2(a, b);
        let lc = self.emit_conv(lp, a, target);
        let rc = self.emit_conv(rp, b, target);
        Ok((lc, rc, target))
    }

    fn is_string(&self, t: &Ty) -> bool {
        matches!(t, Ty::Ref(c) if *c == self.prog.string)
    }

    /// Converts any supported operand to `String` for concatenation.
    fn stringify(&mut self, e: Expr, span: Span) -> Result<Expr, CompileError> {
        if self.is_string(&e.ty) {
            return Ok(e);
        }
        let string_class = self.prog.string;
        let pick = |name: &str, want: Ty| -> Option<MethodIdx> {
            self.prog.classes[string_class]
                .methods
                .iter()
                .position(|m| m.name == name && m.params == vec![want.clone()])
        };
        let (want, idx) = match e.ty.prim() {
            Some(PrimTy::Int) => (Ty::INT, pick("valueOf", Ty::INT)),
            Some(PrimTy::Char) => (
                Ty::Prim(PrimTy::Char),
                pick("valueOf", Ty::Prim(PrimTy::Char)),
            ),
            Some(PrimTy::Long) => (
                Ty::Prim(PrimTy::Long),
                pick("valueOf", Ty::Prim(PrimTy::Long)),
            ),
            Some(PrimTy::Float) => {
                let w = self.emit_conv(e, PrimTy::Float, PrimTy::Double);
                return self.stringify(w, span);
            }
            Some(PrimTy::Double) => (
                Ty::Prim(PrimTy::Double),
                pick("valueOf", Ty::Prim(PrimTy::Double)),
            ),
            Some(PrimTy::Bool) => (Ty::BOOL, pick("valueOf", Ty::BOOL)),
            None => {
                return Err(CompileError::new(
                    span,
                    format!("cannot concatenate `{}` with a String", e.ty),
                ))
            }
        };
        let idx = idx.expect("String.valueOf overloads exist");
        Ok(Expr {
            ty: Ty::Ref(string_class),
            kind: ExprKind::CallStatic {
                class: string_class,
                method: idx,
                args: vec![Expr { ty: want, ..e }],
            },
        })
    }

    fn string_concat(&mut self, l: Expr, r: Expr) -> Expr {
        let string_class = self.prog.string;
        let concat = self.prog.classes[string_class]
            .methods
            .iter()
            .position(|m| m.name == "concat")
            .expect("String.concat exists");
        Expr {
            ty: Ty::Ref(string_class),
            kind: ExprKind::CallVirtual {
                class: string_class,
                method: concat,
                recv: Box::new(l),
                args: vec![r],
            },
        }
    }

    /// Least upper bound of two reference types (for `?:` and `==`).
    fn ref_lub(&self, a: &Ty, b: &Ty, span: Span) -> Result<Ty, CompileError> {
        if a == b {
            return Ok(a.clone());
        }
        match (a, b) {
            (Ty::Null, t) | (t, Ty::Null) if t.is_ref() => Ok(t.clone()),
            (Ty::Ref(x), Ty::Ref(y)) => {
                // Walk x's chain until it is a superclass of y.
                let mut cur = Some(*x);
                while let Some(c) = cur {
                    if self.prog.is_subclass(*y, c) {
                        return Ok(Ty::Ref(c));
                    }
                    cur = self.prog.classes[c].superclass;
                }
                Ok(Ty::Ref(self.prog.object))
            }
            (Ty::Array(_), Ty::Ref(_))
            | (Ty::Ref(_), Ty::Array(_))
            | (Ty::Array(_), Ty::Array(_)) => Ok(Ty::Ref(self.prog.object)),
            _ => Err(CompileError::new(span, "incompatible reference types")),
        }
    }

    fn unify_branches(
        &mut self,
        t: Expr,
        e: Expr,
        span: Span,
    ) -> Result<(Expr, Expr, Ty), CompileError> {
        if t.ty == e.ty {
            let ty = t.ty.clone();
            return Ok((t, e, ty));
        }
        if t.ty.is_numeric() && e.ty.is_numeric() {
            let a = t.ty.prim().unwrap();
            let b = e.ty.prim().unwrap();
            let target = promote2(a, b);
            let tc = self.emit_conv(t, a, target);
            let ec = self.emit_conv(e, b, target);
            return Ok((tc, ec, Ty::Prim(target)));
        }
        if t.ty.is_ref() && e.ty.is_ref() {
            let lub = self.ref_lub(&t.ty, &e.ty, span)?;
            let tc = self.convert(t, &lub, span)?;
            let ec = self.convert(e, &lub, span)?;
            return Ok((tc, ec, lub));
        }
        Err(CompileError::new(
            span,
            format!("incompatible branches `{}` and `{}`", t.ty, e.ty),
        ))
    }

    fn explicit_cast(&mut self, e: Expr, target: Ty, span: Span) -> Result<Expr, CompileError> {
        if e.ty == target {
            return Ok(e);
        }
        match (e.ty.clone(), &target) {
            (Ty::Prim(a), Ty::Prim(b)) => {
                if a == PrimTy::Bool || *b == PrimTy::Bool {
                    return Err(CompileError::new(span, "cannot cast boolean"));
                }
                Ok(self.emit_conv(e, a, *b))
            }
            (f, t) if f.is_ref() && t.is_ref() => {
                if self.prog.ref_assignable(&f, t) {
                    // Widening — no runtime check.
                    Ok(Expr {
                        ty: target.clone(),
                        kind: ExprKind::CastRef {
                            target,
                            expr: Box::new(e),
                            checked: false,
                        },
                    })
                } else if self.cast_possible(&f, t) {
                    Ok(Expr {
                        ty: target.clone(),
                        kind: ExprKind::CastRef {
                            target,
                            expr: Box::new(e),
                            checked: true,
                        },
                    })
                } else {
                    Err(CompileError::new(
                        span,
                        format!("impossible cast from `{f}` to `{t}`"),
                    ))
                }
            }
            (f, t) => Err(CompileError::new(
                span,
                format!("cannot cast `{f}` to `{t}`"),
            )),
        }
    }

    /// Whether a checked cast could succeed at runtime.
    fn cast_possible(&self, from: &Ty, to: &Ty) -> bool {
        match (from, to) {
            (Ty::Null, _) => true,
            (Ty::Ref(a), Ty::Ref(b)) => {
                self.prog.is_subclass(*a, *b) || self.prog.is_subclass(*b, *a)
            }
            (Ty::Ref(a), Ty::Array(_)) => *a == self.prog.object,
            (Ty::Array(_), Ty::Ref(b)) => *b == self.prog.object,
            (Ty::Array(_), Ty::Array(_)) => from == to,
            _ => false,
        }
    }

    // --------------------------------------------- assignment desugar

    fn assign(
        &mut self,
        target: &ast::Expr,
        op: Option<ast::BinOp>,
        value: &ast::Expr,
        span: Span,
    ) -> Result<Expr, CompileError> {
        match &target.kind {
            AK::Name(_) | AK::This | AK::FieldAccess { .. } | AK::Index { .. } => {}
            _ => return Err(CompileError::new(span, "invalid assignment target")),
        }
        match op {
            None => {
                let place = self.place(target, span)?;
                let want = place.ty(self);
                let v = self.expr_expect(value, &want)?;
                Ok(place.store(self, v))
            }
            Some(op) => {
                // `t op= v`  ⇒  evaluate subparts once, then
                // `t = (T)(t op v)` with the implicit narrowing cast.
                let (place, mut effects) = self.place_once(target, span)?;
                let want = place.ty(self);
                let cur = place.load(self);
                let combined = self.binary_h(op, cur, value, span)?;
                let narrowed = self.assign_op_cast(combined, &want, span)?;
                let stored = place.store(self, narrowed);
                if effects.is_empty() {
                    Ok(stored)
                } else {
                    let ty = stored.ty.clone();
                    effects.push(stored);
                    let result = effects.pop().unwrap();
                    Ok(Expr {
                        ty,
                        kind: ExprKind::Seq {
                            effects,
                            result: Box::new(result),
                        },
                    })
                }
            }
        }
    }

    /// Binary where the left side is already checked.
    fn binary_h(
        &mut self,
        op: ast::BinOp,
        l: Expr,
        r: &ast::Expr,
        span: Span,
    ) -> Result<Expr, CompileError> {
        use ast::BinOp as B;
        let rh = self.expr(r)?;
        if op == B::Add && (self.is_string(&l.ty) || self.is_string(&rh.ty)) {
            let ls = self.stringify(l, span)?;
            let rs = self.stringify(rh, span)?;
            return Ok(self.string_concat(ls, rs));
        }
        if matches!(op, B::Shl | B::Shr | B::Ushr) {
            let lp = self.unary_promote(l, span)?;
            let prim = lp.ty.prim().unwrap();
            let rp = self.unary_promote(rh, span)?;
            let amount = match rp.ty.prim().unwrap() {
                PrimTy::Long => self.emit_conv(rp, PrimTy::Long, PrimTy::Int),
                _ => rp,
            };
            let hop = match op {
                B::Shl => BinOp::Shl,
                B::Shr => BinOp::Shr,
                _ => BinOp::Ushr,
            };
            return Ok(Expr {
                ty: lp.ty.clone(),
                kind: ExprKind::Binary {
                    op: hop,
                    prim,
                    l: Box::new(lp),
                    r: Box::new(amount),
                },
            });
        }
        if l.ty == Ty::BOOL && rh.ty == Ty::BOOL {
            let hop = match op {
                B::BitAnd => BinOp::BitAnd,
                B::BitOr => BinOp::BitOr,
                B::BitXor => BinOp::BitXor,
                _ => return Err(CompileError::new(span, "invalid boolean operation")),
            };
            return Ok(Expr {
                ty: Ty::BOOL,
                kind: ExprKind::Binary {
                    op: hop,
                    prim: PrimTy::Bool,
                    l: Box::new(l),
                    r: Box::new(rh),
                },
            });
        }
        let (lp, rp, prim) = self.binary_promote(l, rh, span)?;
        let hop = match op {
            B::Add => BinOp::Add,
            B::Sub => BinOp::Sub,
            B::Mul => BinOp::Mul,
            B::Div => BinOp::Div,
            B::Rem => BinOp::Rem,
            B::BitAnd => BinOp::BitAnd,
            B::BitOr => BinOp::BitOr,
            B::BitXor => BinOp::BitXor,
            _ => return Err(CompileError::new(span, "invalid compound operator")),
        };
        Ok(Expr {
            ty: Ty::Prim(prim),
            kind: ExprKind::Binary {
                op: hop,
                prim,
                l: Box::new(lp),
                r: Box::new(rp),
            },
        })
    }

    /// Implicit narrowing for compound assignment (`int += double`).
    fn assign_op_cast(&mut self, e: Expr, want: &Ty, span: Span) -> Result<Expr, CompileError> {
        if &e.ty == want {
            return Ok(e);
        }
        match (e.ty.prim(), want.prim()) {
            (Some(a), Some(b)) if a != PrimTy::Bool && b != PrimTy::Bool => {
                Ok(self.emit_conv(e, a, b))
            }
            _ => self.convert(e, want, span),
        }
    }

    fn inc_dec(
        &mut self,
        target: &ast::Expr,
        inc: bool,
        prefix: bool,
        span: Span,
    ) -> Result<Expr, CompileError> {
        let (place, mut effects) = self.place_once(target, span)?;
        let want = place.ty(self);
        let prim = want
            .prim()
            .ok_or_else(|| CompileError::new(span, "++/-- needs a numeric variable"))?;
        if prim == PrimTy::Bool {
            return Err(CompileError::new(span, "++/-- needs a numeric variable"));
        }
        let one = match prim {
            PrimTy::Long => Expr {
                ty: Ty::Prim(PrimTy::Long),
                kind: ExprKind::Lit(Lit::Long(1)),
            },
            PrimTy::Float => Expr {
                ty: Ty::Prim(PrimTy::Float),
                kind: ExprKind::Lit(Lit::Float(1.0)),
            },
            PrimTy::Double => Expr {
                ty: Ty::Prim(PrimTy::Double),
                kind: ExprKind::Lit(Lit::Double(1.0)),
            },
            _ => Expr {
                ty: Ty::INT,
                kind: ExprKind::Lit(Lit::Int(1)),
            },
        };
        let op = if inc { BinOp::Add } else { BinOp::Sub };
        let cur = place.load(self);
        if prefix {
            // ++x : value is the new value.
            let (cp, op_prim) = match prim {
                PrimTy::Char => (self.emit_conv(cur, PrimTy::Char, PrimTy::Int), PrimTy::Int),
                p => (cur, p),
            };
            let newv = Expr {
                ty: Ty::Prim(op_prim),
                kind: ExprKind::Binary {
                    op,
                    prim: op_prim,
                    l: Box::new(cp),
                    r: Box::new(one),
                },
            };
            let newv = self.assign_op_cast(newv, &want, span)?;
            let stored = place.store(self, newv);
            if effects.is_empty() {
                Ok(stored)
            } else {
                let ty = stored.ty.clone();
                effects.push(stored.clone());
                let n = effects.len();
                let result = effects.remove(n - 1);
                Ok(Expr {
                    ty,
                    kind: ExprKind::Seq {
                        effects,
                        result: Box::new(result),
                    },
                })
            }
        } else {
            // x++ : value is the old value; stash it in a temp.
            let tmp = self.new_temp(want.clone());
            let save = Expr {
                ty: want.clone(),
                kind: ExprKind::AssignLocal {
                    local: tmp,
                    value: Box::new(cur),
                },
            };
            let old = Expr {
                ty: want.clone(),
                kind: ExprKind::Local(tmp),
            };
            let (cp, op_prim) = match prim {
                PrimTy::Char => (
                    self.emit_conv(old.clone(), PrimTy::Char, PrimTy::Int),
                    PrimTy::Int,
                ),
                p => (old.clone(), p),
            };
            let newv = Expr {
                ty: Ty::Prim(op_prim),
                kind: ExprKind::Binary {
                    op,
                    prim: op_prim,
                    l: Box::new(cp),
                    r: Box::new(one),
                },
            };
            let newv = self.assign_op_cast(newv, &want, span)?;
            let stored = place.store(self, newv);
            effects.push(save);
            effects.push(stored);
            Ok(Expr {
                ty: want,
                kind: ExprKind::Seq {
                    effects,
                    result: Box::new(old),
                },
            })
        }
    }

    /// Resolves an assignable place, evaluating sub-expressions directly
    /// (suitable for simple `=` where each part is evaluated once).
    fn place(&mut self, target: &ast::Expr, span: Span) -> Result<Place, CompileError> {
        let (p, effects) = self.place_once(target, span)?;
        // For simple assignment the temporaries are still fine; fold the
        // effects into the place by prefixing them at store time.
        Ok(if effects.is_empty() {
            p
        } else {
            Place::WithEffects(effects, Box::new(p))
        })
    }

    /// Resolves an assignable place; sub-expressions with side effects
    /// are hoisted into temporaries returned as `effects`.
    fn place_once(
        &mut self,
        target: &ast::Expr,
        span: Span,
    ) -> Result<(Place, Vec<Expr>), CompileError> {
        match &target.kind {
            AK::Name(n) => {
                if let Some(slot) = self.lookup_local(n) {
                    return Ok((Place::Local(slot), vec![]));
                }
                if let Some((c, f)) = self.prog.find_field(self.class, n) {
                    if self.prog.field(c, f).is_static {
                        return Ok((Place::Static(c, f), vec![]));
                    }
                    let this = self.this_expr(span)?;
                    return Ok((Place::Field(Box::new(this), c, f), vec![]));
                }
                Err(CompileError::new(span, format!("unknown name `{n}`")))
            }
            AK::FieldAccess { obj, name } => {
                // Class-qualified static?
                if let AK::Name(qual) = &obj.kind {
                    if self.lookup_local(qual).is_none()
                        && self.prog.find_field(self.class, qual).is_none()
                    {
                        if let Some(&c) = self.names.get(qual.as_str()) {
                            let (dc, f) = self.prog.find_field(c, name).ok_or_else(|| {
                                CompileError::new(span, format!("unknown field `{qual}.{name}`"))
                            })?;
                            if !self.prog.field(dc, f).is_static {
                                return Err(CompileError::new(
                                    span,
                                    format!("`{qual}.{name}` is not static"),
                                ));
                            }
                            return Ok((Place::Static(dc, f), vec![]));
                        }
                    }
                }
                let o = self.expr(obj)?;
                let c = match &o.ty {
                    Ty::Ref(c) => *c,
                    t => {
                        return Err(CompileError::new(
                            span,
                            format!("field assignment on non-object `{t}`"),
                        ))
                    }
                };
                let (dc, f) = self
                    .prog
                    .find_field(c, name)
                    .ok_or_else(|| CompileError::new(span, format!("unknown field `{name}`")))?;
                if self.prog.field(dc, f).is_static {
                    return Ok((Place::Static(dc, f), vec![]));
                }
                // Hoist the receiver into a temp if it is not trivial.
                if matches!(o.kind, ExprKind::Local(_)) {
                    Ok((Place::Field(Box::new(o), dc, f), vec![]))
                } else {
                    let tmp = self.new_temp(o.ty.clone());
                    let save = Expr {
                        ty: o.ty.clone(),
                        kind: ExprKind::AssignLocal {
                            local: tmp,
                            value: Box::new(o.clone()),
                        },
                    };
                    let obj = Expr {
                        ty: o.ty,
                        kind: ExprKind::Local(tmp),
                    };
                    Ok((Place::Field(Box::new(obj), dc, f), vec![save]))
                }
            }
            AK::Index { arr, idx } => {
                let a = self.expr(arr)?;
                if !matches!(a.ty, Ty::Array(_)) {
                    return Err(CompileError::new(span, "indexing non-array"));
                }
                let i = self.index_expr(idx)?;
                let mut effects = Vec::new();
                let a = if matches!(a.kind, ExprKind::Local(_)) {
                    a
                } else {
                    let tmp = self.new_temp(a.ty.clone());
                    effects.push(Expr {
                        ty: a.ty.clone(),
                        kind: ExprKind::AssignLocal {
                            local: tmp,
                            value: Box::new(a.clone()),
                        },
                    });
                    Expr {
                        ty: a.ty,
                        kind: ExprKind::Local(tmp),
                    }
                };
                let i = if matches!(i.kind, ExprKind::Local(_) | ExprKind::Lit(_)) {
                    i
                } else {
                    let tmp = self.new_temp(Ty::INT);
                    effects.push(Expr {
                        ty: Ty::INT,
                        kind: ExprKind::AssignLocal {
                            local: tmp,
                            value: Box::new(i.clone()),
                        },
                    });
                    Expr {
                        ty: Ty::INT,
                        kind: ExprKind::Local(tmp),
                    }
                };
                Ok((Place::Elem(Box::new(a), Box::new(i)), effects))
            }
            _ => Err(CompileError::new(span, "invalid assignment target")),
        }
    }
}

/// An assignable location.
enum Place {
    Local(LocalId),
    Static(ClassIdx, FieldIdx),
    Field(Box<Expr>, ClassIdx, FieldIdx),
    Elem(Box<Expr>, Box<Expr>),
    WithEffects(Vec<Expr>, Box<Place>),
}

impl Place {
    fn ty(&self, ctx: &Ctx<'_>) -> Ty {
        match self {
            Place::Local(l) => ctx.locals[*l].ty.clone(),
            Place::Static(c, f) | Place::Field(_, c, f) => ctx.prog.field(*c, *f).ty.clone(),
            Place::Elem(a, _) => match &a.ty {
                Ty::Array(e) => (**e).clone(),
                _ => unreachable!("checked array"),
            },
            Place::WithEffects(_, p) => p.ty(ctx),
        }
    }

    fn load(&self, ctx: &Ctx<'_>) -> Expr {
        let ty = self.ty(ctx);
        match self {
            Place::Local(l) => Expr {
                ty,
                kind: ExprKind::Local(*l),
            },
            Place::Static(c, f) => Expr {
                ty,
                kind: ExprKind::GetStatic {
                    class: *c,
                    field: *f,
                },
            },
            Place::Field(o, c, f) => Expr {
                ty,
                kind: ExprKind::GetField {
                    obj: o.clone(),
                    class: *c,
                    field: *f,
                },
            },
            Place::Elem(a, i) => Expr {
                ty,
                kind: ExprKind::GetElem {
                    arr: a.clone(),
                    idx: i.clone(),
                },
            },
            Place::WithEffects(_, p) => p.load(ctx),
        }
    }

    fn store(&self, ctx: &mut Ctx<'_>, v: Expr) -> Expr {
        let ty = self.ty(ctx);
        match self {
            Place::Local(l) => Expr {
                ty,
                kind: ExprKind::AssignLocal {
                    local: *l,
                    value: Box::new(v),
                },
            },
            Place::Static(c, f) => Expr {
                ty,
                kind: ExprKind::SetStatic {
                    class: *c,
                    field: *f,
                    value: Box::new(v),
                },
            },
            Place::Field(o, c, f) => Expr {
                ty,
                kind: ExprKind::SetField {
                    obj: o.clone(),
                    class: *c,
                    field: *f,
                    value: Box::new(v),
                },
            },
            Place::Elem(a, i) => Expr {
                ty,
                kind: ExprKind::SetElem {
                    arr: a.clone(),
                    idx: i.clone(),
                    value: Box::new(v),
                },
            },
            Place::WithEffects(effects, p) => {
                let inner = p.store(ctx, v);
                let ty = inner.ty.clone();
                Expr {
                    ty,
                    kind: ExprKind::Seq {
                        effects: effects.clone(),
                        result: Box::new(inner),
                    },
                }
            }
        }
    }
}

// ------------------------------------------------------------ helpers

/// Whether `from` widens to `to` (Java widening primitive conversion).
pub fn widens(from: PrimTy, to: PrimTy) -> bool {
    use PrimTy::*;
    matches!(
        (from, to),
        (Char, Int)
            | (Char, Long)
            | (Char, Float)
            | (Char, Double)
            | (Int, Long)
            | (Int, Float)
            | (Int, Double)
            | (Long, Float)
            | (Long, Double)
            | (Float, Double)
    )
}

/// Binary numeric promotion target.
pub fn promote2(a: PrimTy, b: PrimTy) -> PrimTy {
    use PrimTy::*;
    if a == Double || b == Double {
        Double
    } else if a == Float || b == Float {
        Float
    } else if a == Long || b == Long {
        Long
    } else {
        Int
    }
}

/// Shortest conversion path using only the single-step conversions the
/// SafeTSA machine model provides.
pub fn conv_path(from: PrimTy, to: PrimTy) -> Option<Vec<PrimTy>> {
    use PrimTy::*;
    if from == to {
        return Some(vec![]);
    }
    let direct: &[(PrimTy, PrimTy)] = &[
        (Char, Int),
        (Int, Char),
        (Int, Long),
        (Int, Float),
        (Int, Double),
        (Long, Int),
        (Long, Float),
        (Long, Double),
        (Float, Int),
        (Float, Long),
        (Float, Double),
        (Double, Int),
        (Double, Long),
        (Double, Float),
    ];
    if direct.contains(&(from, to)) {
        return Some(vec![to]);
    }
    // Two-step paths always go through int.
    if direct.contains(&(from, Int)) && direct.contains(&(Int, to)) {
        return Some(vec![Int, to]);
    }
    None
}

fn default_value(ty: &Ty) -> Expr {
    let kind = match ty {
        Ty::Prim(PrimTy::Bool) => ExprKind::Lit(Lit::Bool(false)),
        Ty::Prim(PrimTy::Char) => ExprKind::Lit(Lit::Char(0)),
        Ty::Prim(PrimTy::Int) => ExprKind::Lit(Lit::Int(0)),
        Ty::Prim(PrimTy::Long) => ExprKind::Lit(Lit::Long(0)),
        Ty::Prim(PrimTy::Float) => ExprKind::Lit(Lit::Float(0.0)),
        Ty::Prim(PrimTy::Double) => ExprKind::Lit(Lit::Double(0.0)),
        _ => ExprKind::Lit(Lit::Null),
    };
    Expr {
        ty: ty.clone(),
        kind,
    }
}

fn ty_to_typeref(t: &Ty) -> TypeRef {
    match t {
        Ty::Prim(PrimTy::Bool) => TypeRef::Bool,
        Ty::Prim(PrimTy::Char) => TypeRef::Char,
        Ty::Prim(PrimTy::Int) => TypeRef::Int,
        Ty::Prim(PrimTy::Long) => TypeRef::Long,
        Ty::Prim(PrimTy::Float) => TypeRef::Float,
        Ty::Prim(PrimTy::Double) => TypeRef::Double,
        Ty::Array(e) => TypeRef::Array(Box::new(ty_to_typeref(e))),
        Ty::Ref(_) | Ty::Null | Ty::Void => {
            // Only used for nested array literals of primitives or named
            // classes; named classes are resolvable by index only, so we
            // fall back to a placeholder that sema re-resolves by type.
            TypeRef::Named("Object".into())
        }
    }
}

fn stmt_span(s: &AStmt) -> Span {
    match s {
        AStmt::Local { span, .. } => *span,
        AStmt::Break(_, s)
        | AStmt::Continue(_, s)
        | AStmt::Return(_, s)
        | AStmt::SuperCall(_, s)
        | AStmt::Labeled { span: s, .. } => *s,
        AStmt::Expr(e) | AStmt::Throw(e) => e.span,
        AStmt::If { cond, .. } | AStmt::While { cond, .. } | AStmt::Do { cond, .. } => cond.span,
        AStmt::For { .. } | AStmt::Block(_) | AStmt::Try { .. } | AStmt::Empty => Span::default(),
    }
}

/// Whether any statement exits the region abruptly (return, or a
/// break/continue not enclosed in a loop within the region).
fn exits_region(stmts: &[Stmt]) -> bool {
    fn walk(stmts: &[Stmt], loop_depth: usize) -> bool {
        stmts.iter().any(|s| match s {
            Stmt::Return(_) => true,
            Stmt::Break { depth } | Stmt::Continue { depth } => *depth >= loop_depth,
            Stmt::If { then, els, .. } => walk(then, loop_depth) || walk(els, loop_depth),
            Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => walk(body, loop_depth + 1),
            Stmt::For { body, .. } => walk(body, loop_depth + 1),
            Stmt::Try {
                body,
                catches,
                finally,
            } => {
                walk(body, loop_depth)
                    || catches.iter().any(|c| walk(&c.body, loop_depth))
                    || finally
                        .as_deref()
                        .map(|f| walk(f, loop_depth))
                        .unwrap_or(false)
            }
            Stmt::Expr(_) | Stmt::Throw(_) => false,
        })
    }
    walk(stmts, 0)
}

/// JLS-style "completes normally" over HIR statements.
pub fn stmts_complete_normally(stmts: &[Stmt]) -> bool {
    match stmts.last() {
        None => true,
        Some(last) => {
            // all earlier statements were checked reachable during sema
            stmt_completes_normally(last)
        }
    }
}

/// Whether `stmts` contain a break that targets the loop `level`
/// loops above them (level 0 = the loop directly containing `stmts`).
fn contains_break(stmts: &[Stmt]) -> bool {
    contains_break_at(stmts, 0)
}

fn contains_break_at(stmts: &[Stmt], level: usize) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Break { depth } => *depth == level,
        Stmt::If { then, els, .. } => {
            contains_break_at(then, level) || contains_break_at(els, level)
        }
        // Breaks inside a nested loop need one more level to reach us.
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } | Stmt::For { body, .. } => {
            contains_break_at(body, level + 1)
        }
        Stmt::Try {
            body,
            catches,
            finally,
        } => {
            contains_break_at(body, level)
                || catches.iter().any(|c| contains_break_at(&c.body, level))
                || finally
                    .as_deref()
                    .map(|f| contains_break_at(f, level))
                    .unwrap_or(false)
        }
        _ => false,
    })
}

fn is_const_true(e: &Expr) -> bool {
    matches!(e.kind, ExprKind::Lit(Lit::Bool(true)))
}

fn stmt_completes_normally(s: &Stmt) -> bool {
    match s {
        Stmt::Expr(_) => true,
        Stmt::If { then, els, .. } => stmts_complete_normally(then) || stmts_complete_normally(els),
        Stmt::While { cond, body } => !is_const_true(cond) || contains_break(body),
        Stmt::DoWhile { cond, body } => !is_const_true(cond) || contains_break(body),
        Stmt::For { cond, body, .. } => match cond {
            Some(c) => !is_const_true(c) || contains_break(body),
            None => contains_break(body),
        },
        Stmt::Break { .. } | Stmt::Continue { .. } | Stmt::Return(_) | Stmt::Throw(_) => false,
        Stmt::Try {
            body,
            catches,
            finally,
        } => {
            let inner = stmts_complete_normally(body)
                || catches.iter().any(|c| stmts_complete_normally(&c.body));
            let fin = finally
                .as_deref()
                .map(stmts_complete_normally)
                .unwrap_or(true);
            inner && fin
        }
    }
}
