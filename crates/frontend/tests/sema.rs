//! Integration tests for the front-end: parsing + semantic analysis.

use safetsa_frontend::hir::*;
use safetsa_frontend::{compile, compile_many};

#[test]
fn compile_minimal() {
    let p = compile("class A { }").unwrap();
    let a = p.find_class("A").unwrap();
    assert!(p.class(a).superclass == Some(p.object));
    assert!(p.class(a).methods.iter().any(|m| m.name == "<init>"));
}

#[test]
fn builtins_present() {
    let p = compile("class A { }").unwrap();
    for name in [
        "Object",
        "String",
        "Throwable",
        "Exception",
        "Math",
        "Sys",
        "NullPointerException",
    ] {
        assert!(p.find_class(name).is_some(), "missing builtin {name}");
    }
}

#[test]
fn field_and_method_resolution() {
    let p = compile(
        "class A { int x; int get() { return x; } }
         class B extends A { int get2() { return x + get(); } }",
    )
    .unwrap();
    let b = p.find_class("B").unwrap();
    let get2 = p
        .class(b)
        .methods
        .iter()
        .find(|m| m.name == "get2")
        .unwrap();
    assert!(get2.body.is_some());
}

#[test]
fn override_changing_return_type_is_rejected() {
    let err = compile(
        "class A { int f() { return 1; } }
         class B extends A { }
         class C extends B { long f() { return 2L; } }",
    )
    .unwrap_err();
    assert_eq!(err.message, "C.f: override changes return type");
    // The nearest declaration decides, and another parameter list is
    // another method.
    compile(
        "class A { int f() { return 1; } }
         class B extends A { int f() { return 2; } long f(int x) { return 3L; } }
         class C extends B { int f() { return 4; } }",
    )
    .unwrap();
    // Of several bad overrides, the first class declared reports, then
    // its first such method, whatever the order of the hierarchy; and
    // each class is checked against its own nearest ancestor, not a
    // sibling's override or the first declaration up its chain.
    for (src, bad) in [
        (
            "class C extends B { long f() { return 3L; } }
             class A { int f() { return 1; } }
             class B extends A { long f() { return 2L; } }",
            "B.f",
        ),
        (
            "class C extends A { int f() { return 3; } }
             class A { int f() { return 1; } int g() { return 1; } }
             class B extends A { long g() { return 2L; } long f() { return 2L; } }",
            "B.g",
        ),
        (
            "class D extends B { long g() { return 4L; } }
             class A { int f() { return 1; } int g() { return 1; } }
             class B extends A { long f() { return 2L; } }",
            "D.g",
        ),
    ] {
        let err = compile(src).unwrap_err();
        assert_eq!(err.message, format!("{bad}: override changes return type"));
    }
}

#[test]
fn overload_resolution_picks_most_specific() {
    let p = compile(
        "class A {
             static int f(int x) { return 1; }
             static int f(double x) { return 2; }
             static int g() { return f(3); }
         }",
    )
    .unwrap();
    let a = p.find_class("A").unwrap();
    let g = p.class(a).methods.iter().find(|m| m.name == "g").unwrap();
    let body = g.body.as_ref().unwrap();
    if let Stmt::Return(Some(e)) = &body.stmts[0] {
        if let ExprKind::CallStatic { method, .. } = &e.kind {
            assert_eq!(
                p.class(a).methods[*method].params,
                vec![Ty::INT],
                "int overload chosen"
            );
            return;
        }
    }
    panic!("unexpected body shape");
}

#[test]
fn numeric_promotion_inserts_conv() {
    let p = compile("class A { static double f(int x, double y) { return x + y; } }").unwrap();
    let a = p.find_class("A").unwrap();
    let f = p.class(a).methods.iter().find(|m| m.name == "f").unwrap();
    if let Stmt::Return(Some(e)) = &f.body.as_ref().unwrap().stmts[0] {
        if let ExprKind::Binary { prim, l, .. } = &e.kind {
            assert_eq!(*prim, PrimTy::Double);
            assert!(matches!(l.kind, ExprKind::Conv { .. }));
            return;
        }
    }
    panic!("unexpected shape");
}

#[test]
fn string_concat_lowered() {
    let p = compile(r#"class A { static String f(int x) { return "v=" + x; } }"#).unwrap();
    let a = p.find_class("A").unwrap();
    let f = p.class(a).methods.iter().find(|m| m.name == "f").unwrap();
    if let Stmt::Return(Some(e)) = &f.body.as_ref().unwrap().stmts[0] {
        assert!(matches!(e.kind, ExprKind::CallVirtual { .. })); // concat
        return;
    }
    panic!("unexpected shape");
}

#[test]
fn missing_return_rejected() {
    let err = compile("class A { static int f(boolean b) { if (b) return 1; } }").unwrap_err();
    assert!(err.message.contains("missing return"), "{err}");
}

#[test]
fn both_branches_return_ok() {
    compile("class A { static int f(boolean b) { if (b) return 1; else return 2; } }").unwrap();
}

#[test]
fn unreachable_statement_rejected() {
    let err = compile("class A { static int f() { return 1; int x = 2; return x; } }").unwrap_err();
    assert!(err.message.contains("unreachable"), "{err}");
}

#[test]
fn while_true_with_break_completes() {
    compile(
        "class A { static int f() { int i = 0; while (true) { i++; if (i > 3) break; } return i; } }",
    )
    .unwrap();
}

#[test]
fn static_context_rejects_this() {
    let err = compile("class A { int x; static int f() { return x; } }").unwrap_err();
    assert!(err.message.contains("static"), "{err}");
}

#[test]
fn ctor_gets_implicit_super_and_field_inits() {
    let p = compile("class A { int x = 41; A() { x = x + 1; } }").unwrap();
    let a = p.find_class("A").unwrap();
    let ctor = p
        .class(a)
        .methods
        .iter()
        .find(|m| m.name == "<init>")
        .unwrap();
    let body = ctor.body.as_ref().unwrap();
    assert!(body.stmts.len() >= 3);
    assert!(matches!(
        &body.stmts[0],
        Stmt::Expr(Expr {
            kind: ExprKind::CallSpecial { .. },
            ..
        })
    ));
    assert!(matches!(
        &body.stmts[1],
        Stmt::Expr(Expr {
            kind: ExprKind::SetField { .. },
            ..
        })
    ));
}

#[test]
fn clinit_synthesized_for_static_inits() {
    let p = compile("class A { static int X = 7; static int[] T = {1,2}; }").unwrap();
    let a = p.find_class("A").unwrap();
    let clinit = p
        .class(a)
        .methods
        .iter()
        .find(|m| m.name == "<clinit>")
        .expect("clinit exists");
    assert_eq!(clinit.body.as_ref().unwrap().stmts.len(), 2);
}

#[test]
fn throw_requires_throwable() {
    let err = compile("class A { static void f(String s) { throw s; } }").unwrap_err();
    assert!(err.message.contains("Throwable"), "{err}");
    compile("class A { static void f() { throw new Exception(\"boom\"); } }").unwrap();
}

#[test]
fn user_exception_subclass() {
    compile(
        "class MyError extends Exception {
             int code;
             MyError(int c) { super(); code = c; }
         }
         class A { static void f() { throw new MyError(3); } }",
    )
    .unwrap();
}

#[test]
fn compound_assignment_narrowing() {
    compile("class A { static int f(int x, double d) { x += d; return x; } }").unwrap();
}

#[test]
fn duplicate_class_rejected() {
    assert!(compile("class A { } class A { }").is_err());
    assert!(compile("class String { }").is_err());
}

#[test]
fn cyclic_hierarchy_rejected() {
    let err = compile("class A extends B { } class B extends A { }").unwrap_err();
    assert!(err.message.contains("cyclic"), "{err}");
}

#[test]
fn unknown_method_rejected() {
    assert!(compile("class A { void f() { g(); } }").is_err());
}

#[test]
fn break_outside_loop_rejected() {
    assert!(compile("class A { void f() { break; } }").is_err());
}

#[test]
fn array_ops_check() {
    compile(
        "class A {
             static int sum(int[] a) {
                 int s = 0;
                 for (int i = 0; i < a.length; i++) s += a[i];
                 return s;
             }
         }",
    )
    .unwrap();
    assert!(compile("class A { static int f(int x) { return x.length; } }").is_err());
    assert!(compile("class A { static int f(int[] a, double d) { return a[d]; } }").is_err());
}

#[test]
fn casts() {
    compile(
        "class A {
             static int f(double d) { return (int) d; }
             static char g(long l) { return (char) l; }
         }
         class B extends A { }
         class C { static A h(Object o) { return (A) o; } }",
    )
    .unwrap();
    assert!(compile("class A { static boolean f(int x) { return (boolean) x; } }").is_err());
    assert!(compile("class A { } class B { static A f(B b) { return (A) b; } }").is_err());
}

#[test]
fn instance_vs_static_calls() {
    compile(
        "class A {
             int v;
             int get() { return v; }
             static int use(A a) { return a.get(); }
         }",
    )
    .unwrap();
    assert!(compile("class A { int g() { return 1; } static int f() { return g(); } }").is_err());
}

#[test]
fn ternary_lub() {
    compile(
        "class A { }
         class B extends A { }
         class C extends A { }
         class D {
             static A pick(boolean c, B b, C x) { return c ? b : x; }
             static double num(boolean c, int i, double d) { return c ? i : d; }
         }",
    )
    .unwrap();
}

#[test]
fn try_catch_finally_compiles() {
    compile(
        "class A {
             static int f(int x) {
                 int r = 0;
                 try { r = 10 / x; }
                 catch (ArithmeticException e) { r = -1; }
                 finally { r = r + 100; }
                 return r;
             }
         }",
    )
    .unwrap();
}

#[test]
fn compile_many_shares_classes() {
    let p = compile_many(&[
        "class A { static int one() { return 1; } }",
        "class B { static int two() { return A.one() + 1; } }",
    ])
    .unwrap();
    assert!(p.find_class("A").is_some());
    assert!(p.find_class("B").is_some());
}

#[test]
fn null_comparisons() {
    compile("class A { static boolean f(A a) { return a == null || a != null; } }").unwrap();
}

#[test]
fn shifts_with_long() {
    compile(
        "class A { static long f(long x, int s) { return (x << s) | (x >>> 3) | (x >> 1L); } }",
    )
    .unwrap();
}

#[test]
fn char_arithmetic_promotes() {
    compile("class A { static int f(char c) { return c + 1; } static boolean g(char a, char b) { return a < b; } }").unwrap();
}

#[test]
fn labeled_loops_resolve() {
    compile(
        "class A { static int f() {
             int s = 0;
             outer: for (int i = 0; i < 3; i++) {
                 for (int j = 0; j < 3; j++) {
                     if (j == 2) continue outer;
                     if (i == 2) break outer;
                     s++;
                 }
             }
             return s;
         } }",
    )
    .unwrap();
}

#[test]
fn unknown_label_rejected() {
    let err = compile("class A { static void f() { while (true) { break nope; } } }").unwrap_err();
    assert!(err.message.contains("unknown label"), "{err}");
}

#[test]
fn label_on_non_loop_rejected() {
    let err = compile("class A { static void f() { lab: { int x = 1; } } }").unwrap_err();
    assert!(err.message.contains("loops"), "{err}");
}

#[test]
fn duplicate_label_rejected() {
    let err = compile(
        "class A { static void f() {
             x: while (true) { x: while (true) { break x; } break; }
         } }",
    )
    .unwrap_err();
    assert!(err.message.contains("already in scope"), "{err}");
}

#[test]
fn while_true_with_labeled_break_completes() {
    // The break targets the OUTER loop, so the outer completes but the
    // inner `while(true)` (no break targeting it) does not.
    compile(
        "class A { static int f() {
             out: while (true) {
                 while (true) { break out; }
             }
             return 1;
         } }",
    )
    .unwrap();
    // No break reaches the loop: code after is unreachable.
    let err = compile(
        "class A { static int f() {
             while (true) { int x = 1; }
             return 1;
         } }",
    )
    .unwrap_err();
    assert!(err.message.contains("unreachable"), "{err}");
}
