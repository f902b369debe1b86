//! The host environment's built-in classes.
//!
//! These correspond to the "types imported from the host environment's
//! libraries" of the paper's §4: both the producer and the consumer
//! generate them implicitly, so they never travel with a module and
//! cannot be tampered with.

use crate::hir::*;
use std::sync::{Arc, OnceLock};

fn m(name: &str, kind: MethodKind, params: Vec<Ty>, ret: Ty, intrinsic: Intrinsic) -> Method {
    Method {
        name: name.to_string(),
        kind,
        params,
        ret,
        body: None,
        intrinsic: Some(intrinsic),
    }
}

/// The builtin classes, built once per process.
static STANDARD: OnceLock<Program> = OnceLock::new();

fn standard_ref() -> &'static Program {
    STANDARD.get_or_init(|| {
        let mut classes = Vec::new();
        let mut prog = install(&mut classes);
        prog.classes = classes.into_iter().map(Arc::new).collect();
        prog
    })
}

/// A program that holds only the builtin classes.
/// The classes are built once per process; every call shares them
/// (each [`Class`] is reference-counted, not copied).
///
/// Class layout (indices are stable and relied on by tests):
/// `Object`, `String`, `Throwable`, `Exception`, `RuntimeException`,
/// `ArithmeticException`, `NullPointerException`,
/// `IndexOutOfBoundsException`, `ClassCastException`,
/// `NegativeArraySizeException`, `Math`, `Sys`, `Error`,
/// `OutOfMemoryError`, `StackOverflowError` (the error hierarchy is
/// appended after `Sys` so the pre-existing indices stay stable).
pub fn standard() -> Program {
    standard_ref().clone()
}

/// The name of builtin class `i`, borrowed for the life of the process.
pub(crate) fn name(i: ClassIdx) -> &'static str {
    &standard_ref().classes[i].name
}

/// Builds the builtin classes into `classes` and returns the program
/// skeleton indices.
fn install(classes: &mut Vec<Class>) -> Program {
    use Intrinsic::*;
    use MethodKind::*;
    use PrimTy::*;

    let object = classes.len();
    classes.push(Class {
        name: "Object".into(),
        superclass: None,
        fields: vec![],
        methods: vec![m("<init>", Special, vec![], Ty::Void, ObjectCtor)],
        is_builtin: true,
    });

    let string = classes.len();
    let str_ty = Ty::Ref(string);
    classes.push(Class {
        name: "String".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![
            m("length", Virtual, vec![], Ty::INT, StrLength),
            m("charAt", Virtual, vec![Ty::INT], Ty::Prim(Char), StrCharAt),
            m(
                "concat",
                Virtual,
                vec![str_ty.clone()],
                str_ty.clone(),
                StrConcat,
            ),
            m("equals", Virtual, vec![str_ty.clone()], Ty::BOOL, StrEquals),
            m(
                "compareTo",
                Virtual,
                vec![str_ty.clone()],
                Ty::INT,
                StrCompareTo,
            ),
            m(
                "indexOf",
                Virtual,
                vec![Ty::Prim(Char)],
                Ty::INT,
                StrIndexOfChar,
            ),
            m(
                "substring",
                Virtual,
                vec![Ty::INT, Ty::INT],
                str_ty.clone(),
                StrSubstring,
            ),
            m(
                "valueOf",
                Static,
                vec![Ty::INT],
                str_ty.clone(),
                StrValueOfI,
            ),
            m(
                "valueOf",
                Static,
                vec![Ty::Prim(Long)],
                str_ty.clone(),
                StrValueOfL,
            ),
            m(
                "valueOf",
                Static,
                vec![Ty::Prim(Double)],
                str_ty.clone(),
                StrValueOfD,
            ),
            m(
                "valueOf",
                Static,
                vec![Ty::Prim(Char)],
                str_ty.clone(),
                StrValueOfC,
            ),
            m(
                "valueOf",
                Static,
                vec![Ty::BOOL],
                str_ty.clone(),
                StrValueOfB,
            ),
        ],
        is_builtin: true,
    });

    let throwable = classes.len();
    classes.push(Class {
        name: "Throwable".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![
            m("<init>", Special, vec![], Ty::Void, ThrowableCtor),
            m(
                "<init>",
                Special,
                vec![str_ty.clone()],
                Ty::Void,
                ThrowableCtorMsg,
            ),
            m(
                "getMessage",
                Virtual,
                vec![],
                str_ty.clone(),
                ThrowableGetMessage,
            ),
        ],
        is_builtin: true,
    });

    // The exception hierarchy used by the implicit runtime checks.
    let exc_class = |classes: &mut Vec<Class>, name: &str, sup: ClassIdx| -> ClassIdx {
        let idx = classes.len();
        classes.push(Class {
            name: name.into(),
            superclass: Some(sup),
            fields: vec![],
            methods: vec![
                m("<init>", Special, vec![], Ty::Void, ThrowableCtor),
                m(
                    "<init>",
                    Special,
                    vec![str_ty.clone()],
                    Ty::Void,
                    ThrowableCtorMsg,
                ),
            ],
            is_builtin: true,
        });
        idx
    };
    let exception = exc_class(classes, "Exception", throwable);
    let runtime_exception = exc_class(classes, "RuntimeException", exception);
    let arithmetic_exception = exc_class(classes, "ArithmeticException", runtime_exception);
    let null_pointer_exception = exc_class(classes, "NullPointerException", runtime_exception);
    let index_exception = exc_class(classes, "IndexOutOfBoundsException", runtime_exception);
    let cast_exception = exc_class(classes, "ClassCastException", runtime_exception);
    let negative_size_exception =
        exc_class(classes, "NegativeArraySizeException", runtime_exception);

    classes.push(Class {
        name: "Math".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![
            m(
                "sqrt",
                Static,
                vec![Ty::Prim(Double)],
                Ty::Prim(Double),
                MathSqrt,
            ),
            m("abs", Static, vec![Ty::INT], Ty::INT, MathAbsI),
            m(
                "abs",
                Static,
                vec![Ty::Prim(Long)],
                Ty::Prim(Long),
                MathAbsL,
            ),
            m(
                "abs",
                Static,
                vec![Ty::Prim(Double)],
                Ty::Prim(Double),
                MathAbsD,
            ),
            m("min", Static, vec![Ty::INT, Ty::INT], Ty::INT, MathMinI),
            m("max", Static, vec![Ty::INT, Ty::INT], Ty::INT, MathMaxI),
            m(
                "min",
                Static,
                vec![Ty::Prim(Double), Ty::Prim(Double)],
                Ty::Prim(Double),
                MathMinD,
            ),
            m(
                "max",
                Static,
                vec![Ty::Prim(Double), Ty::Prim(Double)],
                Ty::Prim(Double),
                MathMaxD,
            ),
            m(
                "floor",
                Static,
                vec![Ty::Prim(Double)],
                Ty::Prim(Double),
                MathFloor,
            ),
            m(
                "ceil",
                Static,
                vec![Ty::Prim(Double)],
                Ty::Prim(Double),
                MathCeil,
            ),
            m(
                "pow",
                Static,
                vec![Ty::Prim(Double), Ty::Prim(Double)],
                Ty::Prim(Double),
                MathPow,
            ),
        ],
        is_builtin: true,
    });

    classes.push(Class {
        name: "Sys".into(),
        superclass: Some(object),
        fields: vec![],
        methods: vec![
            m("print", Static, vec![Ty::INT], Ty::Void, SysPrintI),
            m("print", Static, vec![Ty::Prim(Long)], Ty::Void, SysPrintL),
            m("print", Static, vec![Ty::Prim(Double)], Ty::Void, SysPrintD),
            m("print", Static, vec![Ty::Prim(Char)], Ty::Void, SysPrintC),
            m("print", Static, vec![Ty::BOOL], Ty::Void, SysPrintB),
            m("print", Static, vec![str_ty.clone()], Ty::Void, SysPrintS),
            m("println", Static, vec![Ty::INT], Ty::Void, SysPrintlnI),
            m(
                "println",
                Static,
                vec![Ty::Prim(Long)],
                Ty::Void,
                SysPrintlnL,
            ),
            m(
                "println",
                Static,
                vec![Ty::Prim(Double)],
                Ty::Void,
                SysPrintlnD,
            ),
            m(
                "println",
                Static,
                vec![Ty::Prim(Char)],
                Ty::Void,
                SysPrintlnC,
            ),
            m("println", Static, vec![Ty::BOOL], Ty::Void, SysPrintlnB),
            m(
                "println",
                Static,
                vec![str_ty.clone()],
                Ty::Void,
                SysPrintlnS,
            ),
            m("println", Static, vec![], Ty::Void, SysPrintln),
        ],
        is_builtin: true,
    });

    // The error hierarchy of the resource-exhaustion traps. Java keeps
    // these outside `Exception` so a `catch (Exception e)` cannot
    // swallow them; catching them explicitly is still allowed.
    let error = exc_class(classes, "Error", throwable);
    let oom_error = exc_class(classes, "OutOfMemoryError", error);
    let stack_overflow_error = exc_class(classes, "StackOverflowError", error);

    Program {
        classes: Vec::new(), // filled by the caller
        object,
        string,
        throwable,
        exception,
        arithmetic_exception,
        null_pointer_exception,
        index_exception,
        cast_exception,
        negative_size_exception,
        error,
        oom_error,
        stack_overflow_error,
    }
}
