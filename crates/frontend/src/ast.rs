//! The untyped abstract syntax tree produced by the parser.

use crate::span::Span;

/// One parsed compilation unit (one or more class declarations).
#[derive(Debug, Clone, PartialEq)]
pub struct CompilationUnit {
    /// Declared classes, in source order.
    pub classes: Vec<ClassDecl>,
}

impl CompilationUnit {
    /// Counts the AST nodes of the unit (declarations, statements, and
    /// expressions) — the front-end's size counter in the metrics
    /// report. Deterministic for a given source text.
    pub fn node_count(&self) -> u64 {
        let mut n = 0;
        for class in &self.classes {
            n += 1;
            for m in &class.members {
                n += 1;
                match m {
                    Member::Field(f) => {
                        if let Some(e) = &f.init {
                            n += expr_nodes(e);
                        }
                    }
                    Member::Method(m) => n += m.body.iter().map(stmt_nodes).sum::<u64>(),
                    Member::Ctor(c) => n += c.body.iter().map(stmt_nodes).sum::<u64>(),
                }
            }
        }
        n
    }
}

fn stmt_nodes(s: &Stmt) -> u64 {
    1 + match s {
        Stmt::Block(items) => items.iter().map(stmt_nodes).sum(),
        Stmt::Local { init, .. } => init.as_ref().map_or(0, expr_nodes),
        Stmt::Expr(e) | Stmt::Throw(e) => expr_nodes(e),
        Stmt::If { cond, then, els } => {
            expr_nodes(cond) + stmt_nodes(then) + els.as_deref().map_or(0, stmt_nodes)
        }
        Stmt::While { cond, body } | Stmt::Do { body, cond } => expr_nodes(cond) + stmt_nodes(body),
        Stmt::For {
            init,
            cond,
            update,
            body,
        } => {
            init.iter().map(stmt_nodes).sum::<u64>()
                + cond.as_ref().map_or(0, expr_nodes)
                + update.iter().map(expr_nodes).sum::<u64>()
                + stmt_nodes(body)
        }
        Stmt::Return(e, _) => e.as_ref().map_or(0, expr_nodes),
        Stmt::Try {
            body,
            catches,
            finally,
        } => {
            body.iter().map(stmt_nodes).sum::<u64>()
                + catches
                    .iter()
                    .map(|c| 1 + c.body.iter().map(stmt_nodes).sum::<u64>())
                    .sum::<u64>()
                + finally.iter().flatten().map(stmt_nodes).sum::<u64>()
        }
        Stmt::Labeled { body, .. } => stmt_nodes(body),
        Stmt::SuperCall(args, _) => args.iter().map(expr_nodes).sum(),
        Stmt::Break(..) | Stmt::Continue(..) | Stmt::Empty => 0,
    }
}

fn expr_nodes(e: &Expr) -> u64 {
    1 + match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::LongLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::DoubleLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Name(_) => 0,
        ExprKind::FieldAccess { obj, .. } => expr_nodes(obj),
        ExprKind::Index { arr, idx } => expr_nodes(arr) + expr_nodes(idx),
        ExprKind::CallUnqualified { args, .. } => args.iter().map(expr_nodes).sum(),
        ExprKind::CallQualified { recv, args, .. } => {
            expr_nodes(recv) + args.iter().map(expr_nodes).sum::<u64>()
        }
        ExprKind::New { args, .. } => args.iter().map(expr_nodes).sum(),
        ExprKind::NewArray { len, .. } => expr_nodes(len),
        ExprKind::ArrayLit { elems, .. } => elems.iter().map(expr_nodes).sum(),
        ExprKind::Unary { expr, .. }
        | ExprKind::Cast { expr, .. }
        | ExprKind::InstanceOf { expr, .. } => expr_nodes(expr),
        ExprKind::Binary { l, r, .. } => expr_nodes(l) + expr_nodes(r),
        ExprKind::Assign { target, value, .. } => expr_nodes(target) + expr_nodes(value),
        ExprKind::IncDec { target, .. } => expr_nodes(target),
        ExprKind::Cond { cond, then, els } => expr_nodes(cond) + expr_nodes(then) + expr_nodes(els),
    }
}

/// A class declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassDecl {
    /// Class name.
    pub name: String,
    /// Named superclass, if any (`Object` otherwise).
    pub superclass: Option<String>,
    /// Members in source order.
    pub members: Vec<Member>,
    /// Location of the declaration.
    pub span: Span,
}

/// A class member.
#[derive(Debug, Clone, PartialEq)]
pub enum Member {
    /// A field declaration (one per declarator).
    Field(FieldDecl),
    /// A method declaration.
    Method(MethodDecl),
    /// A constructor declaration.
    Ctor(CtorDecl),
}

/// A field declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDecl {
    /// Field name.
    pub name: String,
    /// Declared type.
    pub ty: TypeRef,
    /// Whether `static` was present.
    pub is_static: bool,
    /// Optional initializer expression.
    pub init: Option<Expr>,
    /// Location.
    pub span: Span,
}

/// A method declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodDecl {
    /// Method name.
    pub name: String,
    /// Whether `static` was present.
    pub is_static: bool,
    /// Return type; `None` for `void`.
    pub ret: Option<TypeRef>,
    /// `(type, name)` parameter list.
    pub params: Vec<(TypeRef, String)>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Location.
    pub span: Span,
}

/// A constructor declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct CtorDecl {
    /// `(type, name)` parameter list.
    pub params: Vec<(TypeRef, String)>,
    /// Body statements (may begin with an explicit `super(...)`).
    pub body: Vec<Stmt>,
    /// Location.
    pub span: Span,
}

/// A syntactic type reference.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeRef {
    /// `boolean`.
    Bool,
    /// `char`.
    Char,
    /// `int`.
    Int,
    /// `long`.
    Long,
    /// `float`.
    Float,
    /// `double`.
    Double,
    /// A named class type.
    Named(String),
    /// An array type.
    Array(Box<TypeRef>),
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `{ ... }`.
    Block(Vec<Stmt>),
    /// A local variable declarator.
    Local {
        /// Declared type.
        ty: TypeRef,
        /// Variable name.
        name: String,
        /// Optional initializer.
        init: Option<Expr>,
        /// Location.
        span: Span,
    },
    /// An expression statement.
    Expr(Expr),
    /// `if (c) s else s`.
    If {
        /// Condition.
        cond: Expr,
        /// Then branch.
        then: Box<Stmt>,
        /// Else branch.
        els: Option<Box<Stmt>>,
    },
    /// `while (c) s`.
    While {
        /// Condition.
        cond: Expr,
        /// Body.
        body: Box<Stmt>,
    },
    /// `do s while (c);`.
    Do {
        /// Body.
        body: Box<Stmt>,
        /// Condition.
        cond: Expr,
    },
    /// `for (init; cond; update) s`.
    For {
        /// Initializers (locals or expression statements).
        init: Vec<Stmt>,
        /// Optional condition.
        cond: Option<Expr>,
        /// Update expressions.
        update: Vec<Expr>,
        /// Body.
        body: Box<Stmt>,
    },
    /// `break;` / `break label;`.
    Break(Option<String>, Span),
    /// `continue;` / `continue label;`.
    Continue(Option<String>, Span),
    /// `return e?;`.
    Return(Option<Expr>, Span),
    /// `throw e;`.
    Throw(Expr),
    /// `try { } catch (T v) { } ... finally { }`.
    Try {
        /// Protected statements.
        body: Vec<Stmt>,
        /// Catch clauses in order.
        catches: Vec<CatchClause>,
        /// Optional finally block.
        finally: Option<Vec<Stmt>>,
    },
    /// A labeled loop: `name: while (...) ...`.
    Labeled {
        /// The label name.
        name: String,
        /// The labeled statement (must be a loop in this subset).
        body: Box<Stmt>,
        /// Location.
        span: Span,
    },
    /// Explicit `super(args);` (constructors only).
    SuperCall(Vec<Expr>, Span),
    /// `;`.
    Empty,
}

/// One catch clause.
#[derive(Debug, Clone, PartialEq)]
pub struct CatchClause {
    /// The caught class name.
    pub class: String,
    /// The exception variable name.
    pub var: String,
    /// Handler statements.
    pub body: Vec<Stmt>,
    /// Location.
    pub span: Span,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Ushr,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    AndAnd,
    OrOr,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    Neg,
    Not,
    BitNot,
}

/// An expression with location.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression's kind.
    pub kind: ExprKind,
    /// Location.
    pub span: Span,
}

/// Expression kinds.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal (pre-negation; may be `2^31`).
    IntLit(i64),
    /// `long` literal.
    LongLit(i64),
    /// `float` literal.
    FloatLit(f32),
    /// `double` literal.
    DoubleLit(f64),
    /// `char` literal.
    CharLit(u16),
    /// String literal.
    StrLit(String),
    /// `true`/`false`.
    BoolLit(bool),
    /// `null`.
    Null,
    /// `this`.
    This,
    /// A bare name (local, field, or class — resolved by sema).
    Name(String),
    /// `obj.name` (field access or class-qualified static).
    FieldAccess {
        /// Qualifier expression.
        obj: Box<Expr>,
        /// Member name.
        name: String,
    },
    /// `arr[idx]`.
    Index {
        /// The array.
        arr: Box<Expr>,
        /// The index.
        idx: Box<Expr>,
    },
    /// Unqualified call `f(args)` (instance or static of current class).
    CallUnqualified {
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Qualified call `recv.m(args)` (or `Class.m(args)`).
    CallQualified {
        /// Receiver (expression or class name).
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new C(args)`.
    New {
        /// Class name.
        class: String,
        /// Constructor arguments.
        args: Vec<Expr>,
    },
    /// `new T[len]` (possibly with additional empty dims `[]`).
    NewArray {
        /// Element type after removing one dimension per `len`.
        elem: TypeRef,
        /// Sized dimensions (we support one sized dimension; the rest
        /// must come from nested `new`).
        len: Box<Expr>,
        /// Extra unsized dimensions appended to the element type.
        extra_dims: usize,
    },
    /// `new T[] { ... }` or `{ ... }` initializer sugar.
    ArrayLit {
        /// Element type (filled by the parser from context when sugar).
        elem: Option<TypeRef>,
        /// Elements.
        elems: Vec<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation (including `&&`/`||`).
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Assignment `target = value` or compound `target op= value`.
    Assign {
        /// Assignable target (name, field access, or index).
        target: Box<Expr>,
        /// `Some(op)` for compound assignment.
        op: Option<BinOp>,
        /// Right-hand side.
        value: Box<Expr>,
    },
    /// `++`/`--`, prefix or postfix.
    IncDec {
        /// Assignable target.
        target: Box<Expr>,
        /// `true` for `++`.
        inc: bool,
        /// `true` for prefix form.
        prefix: bool,
    },
    /// `(T) e`.
    Cast {
        /// Target type.
        ty: TypeRef,
        /// Operand.
        expr: Box<Expr>,
    },
    /// `e instanceof T`.
    InstanceOf {
        /// Operand.
        expr: Box<Expr>,
        /// Tested type.
        ty: TypeRef,
    },
    /// `c ? t : e`.
    Cond {
        /// Condition.
        cond: Box<Expr>,
        /// Then value.
        then: Box<Expr>,
        /// Else value.
        els: Box<Expr>,
    },
}
