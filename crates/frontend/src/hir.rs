//! The typed, resolved high-level IR produced by semantic analysis.
//!
//! Both back-ends consume this form: `safetsa-ssa` lowers it to the
//! SafeTSA representation, and `safetsa-baseline` compiles it to the
//! JVM-style stack code used as the paper's comparison baseline.
//!
//! Design notes:
//!
//! * every local variable is definitely initialized (sema inserts
//!   default values), so SSA construction never sees an undefined use;
//! * overloads are resolved and numeric promotions / conversions are
//!   explicit [`ExprKind::Conv`] nodes;
//! * string concatenation is already lowered to `String.valueOf` /
//!   `String.concat` intrinsic calls;
//! * compound assignment and `++`/`--` are desugared.

use std::fmt;
use std::sync::Arc;

/// Index of a class in [`Program::classes`].
pub type ClassIdx = usize;
/// Index of a method in its class's method list.
pub type MethodIdx = usize;
/// Index of a field in its class's field list.
pub type FieldIdx = usize;
/// Index of a local slot in its body's `locals`.
pub type LocalId = usize;

/// Primitive types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum PrimTy {
    Bool,
    Char,
    Int,
    Long,
    Float,
    Double,
}

/// A semantic type.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ty {
    /// A primitive type.
    Prim(PrimTy),
    /// A class reference.
    Ref(ClassIdx),
    /// An array.
    Array(Box<Ty>),
    /// The type of `null` (assignable to any reference type).
    Null,
    /// `void` (method returns only).
    Void,
}

impl Ty {
    /// Shorthand for `Ty::Prim(PrimTy::Int)`.
    pub const INT: Ty = Ty::Prim(PrimTy::Int);
    /// Shorthand for `Ty::Prim(PrimTy::Bool)`.
    pub const BOOL: Ty = Ty::Prim(PrimTy::Bool);

    /// Whether the type is a reference type (class, array, or null).
    pub fn is_ref(&self) -> bool {
        matches!(self, Ty::Ref(_) | Ty::Array(_) | Ty::Null)
    }

    /// Whether the type is numeric (char counts, per Java promotion).
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            Ty::Prim(PrimTy::Char | PrimTy::Int | PrimTy::Long | PrimTy::Float | PrimTy::Double)
        )
    }

    /// The primitive kind, if primitive.
    pub fn prim(&self) -> Option<PrimTy> {
        match self {
            Ty::Prim(p) => Some(*p),
            _ => None,
        }
    }
}

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Prim(p) => write!(f, "{p:?}"),
            Ty::Ref(c) => write!(f, "class#{c}"),
            Ty::Array(e) => write!(f, "{e}[]"),
            Ty::Null => write!(f, "null"),
            Ty::Void => write!(f, "void"),
        }
    }
}

/// Host-provided methods implemented natively by the runtimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum Intrinsic {
    ObjectCtor,
    MathSqrt,
    MathAbsI,
    MathAbsL,
    MathAbsD,
    MathMinI,
    MathMaxI,
    MathMinD,
    MathMaxD,
    MathFloor,
    MathCeil,
    MathPow,
    SysPrintI,
    SysPrintL,
    SysPrintD,
    SysPrintC,
    SysPrintB,
    SysPrintS,
    SysPrintlnI,
    SysPrintlnL,
    SysPrintlnD,
    SysPrintlnC,
    SysPrintlnB,
    SysPrintlnS,
    SysPrintln,
    StrLength,
    StrCharAt,
    StrConcat,
    StrEquals,
    StrCompareTo,
    StrIndexOfChar,
    StrSubstring,
    StrValueOfI,
    StrValueOfL,
    StrValueOfD,
    StrValueOfC,
    StrValueOfB,
    ThrowableCtor,
    ThrowableCtorMsg,
    ThrowableGetMessage,
}

/// A class after resolution.
#[derive(Debug, Clone)]
pub struct Class {
    /// Class name.
    pub name: String,
    /// Resolved superclass (`None` only for `Object`).
    pub superclass: Option<ClassIdx>,
    /// Declared fields.
    pub fields: Vec<Field>,
    /// Declared methods (constructors included, named `<init>`; the
    /// synthesized static initializer is named `<clinit>`).
    pub methods: Vec<Method>,
    /// Whether this is a host (built-in) class.
    pub is_builtin: bool,
}

/// A field after resolution.
#[derive(Debug, Clone)]
pub struct Field {
    /// Field name.
    pub name: String,
    /// Field type.
    pub ty: Ty,
    /// Whether the field is static.
    pub is_static: bool,
}

/// Dispatch kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MethodKind {
    /// No receiver.
    Static,
    /// Dynamically dispatched.
    Virtual,
    /// Statically bound with receiver (constructors).
    Special,
}

/// A method after resolution.
#[derive(Debug, Clone)]
pub struct Method {
    /// Name (`<init>` for constructors, `<clinit>` for static init).
    pub name: String,
    /// Dispatch kind.
    pub kind: MethodKind,
    /// Parameter types (receiver excluded).
    pub params: Vec<Ty>,
    /// Result type (`Ty::Void` for none).
    pub ret: Ty,
    /// The body, if the method is user-defined.
    pub body: Option<Body>,
    /// Host implementation, if the method is built-in.
    pub intrinsic: Option<Intrinsic>,
}

/// A local slot.
#[derive(Debug, Clone)]
pub struct Local {
    /// Diagnostic name.
    pub name: String,
    /// Slot type.
    pub ty: Ty,
}

/// A method body.
#[derive(Debug, Clone)]
pub struct Body {
    /// All local slots. For instance methods slot 0 is `this`; the
    /// following slots are the parameters, then declared locals.
    pub locals: Vec<Local>,
    /// Statements.
    pub stmts: Vec<Stmt>,
}

/// A catch clause.
#[derive(Debug, Clone)]
pub struct Catch {
    /// The caught class.
    pub class: ClassIdx,
    /// Slot receiving the exception.
    pub local: LocalId,
    /// Handler body.
    pub body: Vec<Stmt>,
}

/// Statements.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Evaluate for effect.
    Expr(Expr),
    /// Two-way conditional.
    If {
        /// Boolean condition.
        cond: Expr,
        /// Then branch.
        then: Vec<Stmt>,
        /// Else branch.
        els: Vec<Stmt>,
    },
    /// `while (cond) body`.
    While {
        /// Boolean condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `do body while (cond)`.
    DoWhile {
        /// Loop body.
        body: Vec<Stmt>,
        /// Boolean condition.
        cond: Expr,
    },
    /// `for (init; cond; update) body` (init hoisted by sema).
    For {
        /// Optional condition (`None` = `true`).
        cond: Option<Expr>,
        /// Update expressions, run after the body and on `continue`.
        update: Vec<Expr>,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `break` out of the `depth`-th enclosing loop (0 = innermost).
    Break {
        /// Enclosing-loop index, innermost = 0.
        depth: usize,
    },
    /// `continue` the `depth`-th enclosing loop (0 = innermost).
    Continue {
        /// Enclosing-loop index, innermost = 0.
        depth: usize,
    },
    /// Return.
    Return(Option<Expr>),
    /// Throw.
    Throw(Expr),
    /// Exception region.
    Try {
        /// Protected statements.
        body: Vec<Stmt>,
        /// Catch clauses.
        catches: Vec<Catch>,
        /// Optional finally statements (duplicated by the back-ends on
        /// the normal path and appended to a catch-all rethrow arm).
        finally: Option<Vec<Stmt>>,
    },
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum Lit {
    Bool(bool),
    Char(u16),
    Int(i32),
    Long(i64),
    Float(f32),
    Double(f64),
    Str(String),
    Null,
}

/// Typed unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Boolean not.
    Not,
    /// Bitwise complement.
    BitNot,
}

/// Typed binary operators (operand type recorded separately).
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
}

impl BinOp {
    /// Whether the operator yields `boolean`.
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

/// A typed expression.
#[derive(Debug, Clone)]
pub struct Expr {
    /// The expression's kind.
    pub kind: ExprKind,
    /// The expression's type.
    pub ty: Ty,
}

/// Expression kinds.
#[derive(Debug, Clone)]
pub enum ExprKind {
    /// A literal.
    Lit(Lit),
    /// Read a local slot.
    Local(LocalId),
    /// Write a local slot; value of the expression is the stored value.
    AssignLocal {
        /// Target slot.
        local: LocalId,
        /// Stored value.
        value: Box<Expr>,
    },
    /// Read an instance field.
    GetField {
        /// Receiver.
        obj: Box<Expr>,
        /// Declaring class.
        class: ClassIdx,
        /// Field index within the declaring class.
        field: FieldIdx,
    },
    /// Write an instance field; value of the expression is the stored
    /// value.
    SetField {
        /// Receiver.
        obj: Box<Expr>,
        /// Declaring class.
        class: ClassIdx,
        /// Field index.
        field: FieldIdx,
        /// Stored value.
        value: Box<Expr>,
    },
    /// Read a static field.
    GetStatic {
        /// Declaring class.
        class: ClassIdx,
        /// Field index.
        field: FieldIdx,
    },
    /// Write a static field.
    SetStatic {
        /// Declaring class.
        class: ClassIdx,
        /// Field index.
        field: FieldIdx,
        /// Stored value.
        value: Box<Expr>,
    },
    /// Read `arr[idx]`.
    GetElem {
        /// The array.
        arr: Box<Expr>,
        /// The index (int).
        idx: Box<Expr>,
    },
    /// Write `arr[idx] = value`.
    SetElem {
        /// The array.
        arr: Box<Expr>,
        /// The index (int).
        idx: Box<Expr>,
        /// Stored value.
        value: Box<Expr>,
    },
    /// `arr.length`.
    ArrayLen {
        /// The array.
        arr: Box<Expr>,
    },
    /// Typed unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand primitive type.
        prim: PrimTy,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Typed binary operation on primitives.
    Binary {
        /// Operator.
        op: BinOp,
        /// Operand primitive type (after promotion).
        prim: PrimTy,
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Reference identity comparison.
    RefCmp {
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
        /// `true` for `==`, `false` for `!=`.
        eq: bool,
    },
    /// Short-circuit `&&`.
    And {
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// Short-circuit `||`.
    Or {
        /// Left operand.
        l: Box<Expr>,
        /// Right operand.
        r: Box<Expr>,
    },
    /// `cond ? then : els`.
    Cond {
        /// Boolean condition.
        cond: Box<Expr>,
        /// Then value.
        then: Box<Expr>,
        /// Else value.
        els: Box<Expr>,
    },
    /// Primitive conversion.
    Conv {
        /// Source primitive type.
        from: PrimTy,
        /// Target primitive type.
        to: PrimTy,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Static method call.
    CallStatic {
        /// Declaring class.
        class: ClassIdx,
        /// Method index.
        method: MethodIdx,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Virtual call (dynamic dispatch).
    CallVirtual {
        /// Declaring class of the resolved method.
        class: ClassIdx,
        /// Method index within the declaring class.
        method: MethodIdx,
        /// Receiver.
        recv: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Statically bound instance call (constructors, `super` calls).
    CallSpecial {
        /// Declaring class.
        class: ClassIdx,
        /// Method index.
        method: MethodIdx,
        /// Receiver.
        recv: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new C(args)`: allocation + constructor call.
    New {
        /// The instantiated class.
        class: ClassIdx,
        /// Constructor method index.
        ctor: MethodIdx,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// `new T[len]`.
    NewArray {
        /// Element type.
        elem: Ty,
        /// Length (int).
        len: Box<Expr>,
    },
    /// `new T[] { ... }`.
    ArrayLit {
        /// Element type.
        elem: Ty,
        /// Elements (already converted to the element type).
        elems: Vec<Expr>,
    },
    /// Reference cast.
    CastRef {
        /// Target type.
        target: Ty,
        /// Operand.
        expr: Box<Expr>,
        /// Whether a runtime check is required (narrowing).
        checked: bool,
    },
    /// Effect sequencing: evaluate `effects` for their side effects
    /// (discarding values), then `result`. Produced by desugaring of
    /// compound assignment and postfix `++`/`--`.
    Seq {
        /// Expressions evaluated for effect, in order.
        effects: Vec<Expr>,
        /// The resulting value.
        result: Box<Expr>,
    },
    /// `expr instanceof target`.
    InstanceOf {
        /// Operand.
        expr: Box<Expr>,
        /// Tested type.
        target: Ty,
    },
}

/// A fully resolved program.
#[derive(Debug, Clone)]
pub struct Program {
    /// All classes; built-ins first. The builtin classes are shared by
    /// every program of the process ([`crate::builtins::standard`]).
    pub classes: Vec<Arc<Class>>,
    /// `Object`.
    pub object: ClassIdx,
    /// `String`.
    pub string: ClassIdx,
    /// `Throwable`.
    pub throwable: ClassIdx,
    /// `Exception` (supertype of the implicit runtime exceptions).
    pub exception: ClassIdx,
    /// `ArithmeticException` (integer division by zero).
    pub arithmetic_exception: ClassIdx,
    /// `NullPointerException`.
    pub null_pointer_exception: ClassIdx,
    /// `IndexOutOfBoundsException`.
    pub index_exception: ClassIdx,
    /// `ClassCastException`.
    pub cast_exception: ClassIdx,
    /// `NegativeArraySizeException`.
    pub negative_size_exception: ClassIdx,
    /// `Error` (supertype of the resource-exhaustion errors).
    pub error: ClassIdx,
    /// `OutOfMemoryError` (heap byte budget exceeded).
    pub oom_error: ClassIdx,
    /// `StackOverflowError` (call depth budget exceeded).
    pub stack_overflow_error: ClassIdx,
}

impl Program {
    /// The class at `idx`.
    pub fn class(&self, idx: ClassIdx) -> &Class {
        &self.classes[idx]
    }

    /// The method `(class, method)`.
    pub fn method(&self, class: ClassIdx, method: MethodIdx) -> &Method {
        &self.classes[class].methods[method]
    }

    /// The field `(class, field)`.
    pub fn field(&self, class: ClassIdx, field: FieldIdx) -> &Field {
        &self.classes[class].fields[field]
    }

    /// Whether `sub` is `sup` or a transitive subclass.
    pub fn is_subclass(&self, sub: ClassIdx, sup: ClassIdx) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.classes[c].superclass;
        }
        false
    }

    /// Whether a value of type `from` is assignable to `to` without a
    /// runtime check (identity, widening reference conversion, or
    /// `null` to any reference).
    pub fn ref_assignable(&self, from: &Ty, to: &Ty) -> bool {
        match (from, to) {
            (Ty::Null, t) if t.is_ref() => true,
            (a, b) if a == b => true,
            (Ty::Ref(a), Ty::Ref(b)) => self.is_subclass(*a, *b),
            (Ty::Array(_), Ty::Ref(b)) => *b == self.object,
            _ => false,
        }
    }

    /// Finds a class by name.
    pub fn find_class(&self, name: &str) -> Option<ClassIdx> {
        self.classes.iter().position(|c| c.name == name)
    }

    /// Finds a field by name along the superclass chain; returns the
    /// declaring class and field index.
    pub fn find_field(&self, class: ClassIdx, name: &str) -> Option<(ClassIdx, FieldIdx)> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if let Some(i) = self.classes[c].fields.iter().position(|f| f.name == name) {
                return Some((c, i));
            }
            cur = self.classes[c].superclass;
        }
        None
    }

    /// Finds a method by name in `class` or its ancestors; returns all
    /// candidates as `(declaring class, method index)` (nearest first).
    pub fn find_methods(&self, class: ClassIdx, name: &str) -> Vec<(ClassIdx, MethodIdx)> {
        let mut out = Vec::new();
        let mut cur = Some(class);
        while let Some(c) = cur {
            for (i, m) in self.classes[c].methods.iter().enumerate() {
                if m.name == name {
                    // Skip overridden duplicates (same signature seen in a
                    // subclass already).
                    let dup = out.iter().any(|&(oc, om): &(ClassIdx, MethodIdx)| {
                        self.method(oc, om).params == m.params
                    });
                    if !dup {
                        out.push((c, i));
                    }
                }
            }
            cur = self.classes[c].superclass;
        }
        out
    }
}
