//! Generative differential testing: random (but well-formed) programs
//! in the Java subset are compiled through both the SafeTSA pipeline
//! (with and without optimization, through the codec) and the bytecode
//! baseline; all three executions must return the same result and
//! print the same output.
//!
//! Besides integer arithmetic, control flow and array traffic, the
//! generated statements reach the heap through a fixed class prelude
//! (`Cell` and two subclasses overriding `get`): field stores read back
//! through an alias, virtual calls whose receiver class depends on the
//! data, and null dereferences that throw inside the program's `try`.
//!
//! They also compute on a `long`, a `double`, a `char` and a `boolean`
//! local: `long` division, remainder and shifts by counts at and above
//! 64, `double` arithmetic whose literals (0.0, -0.0, 1e308, ...) reach
//! NaN, -0.0 and infinities, casts among the planes (saturating `(int)`
//! of huge doubles and of NaN included), boolean `&`, `|`, `^` and `!`,
//! and compares on every plane feeding an `if`. Operands that are all
//! literals fold in the optimized build, so constant folding meets
//! execution on generated inputs too. Each call prints the `long` and
//! `double` locals and folds every typed local into its result.

mod common;

use proptest::prelude::*;
use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_rt::Value;

/// A tiny expression/statement generator over locals a,b,c (ints) and
/// the typed locals x (long), y (double), ch (char) and f (boolean);
/// always produces a compilable program.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    C,
    Lit(i32),
    /// `(int)` of a `long`, `double` or `char` expression, as source.
    Cast(String),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    Div(Box<E>, Box<E>),
    Rem(Box<E>, Box<E>),
    Shl(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Neg(Box<E>),
}

impl E {
    fn render(&self) -> String {
        match self {
            E::A => "a".into(),
            E::B => "b".into(),
            E::C => "c".into(),
            E::Lit(v) => format!("({v})"),
            E::Cast(src) => src.clone(),
            E::Add(l, r) => format!("({} + {})", l.render(), r.render()),
            E::Sub(l, r) => format!("({} - {})", l.render(), r.render()),
            E::Mul(l, r) => format!("({} * {})", l.render(), r.render()),
            E::Div(l, r) => format!("({} / {})", l.render(), r.render()),
            E::Rem(l, r) => format!("({} % {})", l.render(), r.render()),
            E::Shl(l, r) => format!("({} << ({} & 31))", l.render(), r.render()),
            E::Xor(l, r) => format!("({} ^ {})", l.render(), r.render()),
            E::Neg(e) => format!("(-{})", e.render()),
        }
    }
}

/// One of `options`, as source text.
fn pick(options: &'static [&'static str]) -> impl Strategy<Value = String> {
    (0..options.len()).prop_map(move |i| options[i].to_string())
}

/// An `int` operand of a typed expression: a local or a small literal.
fn int_leaf() -> BoxedStrategy<String> {
    prop_oneof![
        pick(&["a", "b", "c"]),
        (-100i32..100).prop_map(|v| format!("({v})")),
    ]
}

/// A `long` shift count: a local, or a count around the `int` width
/// or at and above the `long` width, where the 6-bit mask matters.
fn shift_count() -> impl Strategy<Value = String> {
    pick(&[
        "a", "b", "c", "(-1)", "31", "32", "33", "63", "64", "65", "127",
    ])
}

/// A `double` leaf: the local, or a literal that leads to the specials.
fn double_leaf() -> BoxedStrategy<String> {
    pick(&[
        "y", "0.0", "(-0.0)", "1.5", "(-2.5)", "1e308", "(-1e308)", "3e9", "1e19",
    ])
    .boxed()
}

/// A `long` leaf: the local, a range edge, a widened `int` or a
/// truncated `double`.
fn long_leaf() -> BoxedStrategy<String> {
    prop_oneof![
        pick(&[
            "x",
            "0L",
            "1L",
            "(-1L)",
            "64L",
            "1099511627776L",
            "9223372036854775807L",
            "(-9223372036854775807L - 1L)",
        ]),
        int_leaf().prop_map(|e| format!("((long) {e})")),
        double_leaf().prop_map(|d| format!("((long) {d})")),
    ]
}

/// A `long` expression over `x`: arithmetic (division and remainder may
/// throw) and shifts by `int` counts.
fn long_expr() -> BoxedStrategy<String> {
    long_leaf().prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                pick(&["+", "-", "*", "/", "%", "&", "|", "^"]),
                inner.clone()
            )
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            (inner.clone(), pick(&["<<", ">>", ">>>"]), shift_count())
                .prop_map(|(l, op, n)| format!("({l} {op} {n})")),
            inner.prop_map(|e| format!("(-{e})")),
        ]
    })
}

/// A `double` expression over `y`: widened `int`s and `long`s and
/// arithmetic that reaches NaN, -0.0 and infinities.
fn double_expr() -> BoxedStrategy<String> {
    let leaf = prop_oneof![
        double_leaf(),
        int_leaf().prop_map(|e| format!("((double) {e})")),
        long_expr().prop_map(|l| format!("((double) {l})")),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                pick(&["+", "-", "*", "/", "%"]),
                inner.clone()
            )
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            inner.prop_map(|e| format!("(-{e})")),
        ]
    })
}

/// A `char` expression over `ch`, narrowed from `int` or `long`.
fn char_expr() -> BoxedStrategy<String> {
    prop_oneof![
        pick(&["ch", "'a'", "((char) 0)", "((char) 65535)"]),
        int_leaf().prop_map(|e| format!("((char) {e})")),
        long_expr().prop_map(|l| format!("((char) {l})")),
    ]
}

/// A compare on one plane: `int`, `long`, `float`, `double` or `char`.
/// Half of the `long` and `double` operands are leaves, so the two
/// sides are often equal, or 0.0 against -0.0.
fn compare() -> BoxedStrategy<String> {
    let op = || pick(&["<", "<=", ">", ">=", "==", "!="]);
    let long = || prop_oneof![long_leaf(), long_expr()];
    let double = || prop_oneof![double_leaf(), double_expr()];
    let cmp = |(l, op, r): (String, String, String)| format!("({l} {op} {r})");
    prop_oneof![
        (int_leaf(), op(), int_leaf()).prop_map(cmp),
        (long(), op(), long()).prop_map(cmp),
        (double(), op(), double()).prop_map(cmp),
        (double(), op(), double())
            .prop_map(|(l, op, r)| format!("(((float) {l}) {op} ((float) {r}))")),
        (char_expr(), op(), char_expr()).prop_map(cmp),
    ]
}

/// A `boolean` expression over `f`, with the non-short-circuit
/// operators.
fn bool_expr() -> BoxedStrategy<String> {
    let leaf = prop_oneof![pick(&["f", "true", "false"]), compare()];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (
                inner.clone(),
                pick(&["&", "|", "^", "==", "!="]),
                inner.clone()
            )
                .prop_map(|(l, op, r)| format!("({l} {op} {r})")),
            inner.prop_map(|z| format!("(!{z})")),
        ]
    })
}

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        Just(E::C),
        (-100i32..100).prop_map(E::Lit),
        prop_oneof![
            long_expr().prop_map(|l| E::Cast(format!("((int) {l})"))),
            double_expr().prop_map(|d| E::Cast(format!("((int) {d})"))),
            char_expr().prop_map(|c| E::Cast(format!("((int) {c})"))),
        ],
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Add(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Sub(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Mul(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Div(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Rem(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Shl(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| E::Xor(Box::new(l), Box::new(r))),
            inner.clone().prop_map(|e| E::Neg(Box::new(e))),
        ]
    })
}

#[derive(Debug, Clone)]
enum S {
    AssignA(E),
    AssignB(E),
    AssignC(E),
    /// One statement on the typed locals, as source.
    Line(String),
    /// `if (cond) { .. } else { .. }`, the condition as source.
    If(String, Vec<S>, Vec<S>),
    Loop(u8, Vec<S>),
    ArrayRoundTrip(E, E),
    /// Store through `p`, read back through its alias `q`.
    FieldAlias(E),
    /// Store into and call `get` on a `Twice` or a `Plus`, picked by
    /// `a`'s parity.
    VirtualCall(E),
    /// Null `n` when `l < r`, then read its field.
    NullDeref(E, E),
}

impl S {
    fn render(&self, out: &mut String, depth: usize) {
        let pad = "    ".repeat(depth + 2);
        match self {
            S::AssignA(e) => out.push_str(&format!("{pad}a = {};\n", e.render())),
            S::AssignB(e) => out.push_str(&format!("{pad}b = {};\n", e.render())),
            S::AssignC(e) => out.push_str(&format!("{pad}c = {};\n", e.render())),
            S::Line(src) => out.push_str(&format!("{pad}{src}\n")),
            S::If(cond, t, f) => {
                out.push_str(&format!("{pad}if ({cond}) {{\n"));
                for s in t {
                    s.render(out, depth + 1);
                }
                out.push_str(&format!("{pad}}} else {{\n"));
                for s in f {
                    s.render(out, depth + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            S::Loop(n, body) => {
                out.push_str(&format!(
                    "{pad}for (int i{depth} = 0; i{depth} < {n}; i{depth}++) {{\n"
                ));
                for s in body {
                    s.render(out, depth + 1);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
            S::ArrayRoundTrip(idx, val) => {
                out.push_str(&format!(
                    "{pad}buf[Math.abs({}) % buf.length] = {};\n",
                    idx.render(),
                    val.render()
                ));
                out.push_str(&format!(
                    "{pad}c = c ^ buf[Math.abs({}) % buf.length];\n",
                    idx.render()
                ));
            }
            S::FieldAlias(e) => {
                out.push_str(&format!("{pad}p.v = {};\n", e.render()));
                out.push_str(&format!("{pad}c = c + q.v;\n"));
            }
            S::VirtualCall(e) => {
                out.push_str(&format!(
                    "{pad}if ((a & 1) == 0) {{\n{pad}    d = tw;\n{pad}}} else {{\n{pad}    d = pl;\n{pad}}}\n"
                ));
                out.push_str(&format!("{pad}d.v = {};\n", e.render()));
                out.push_str(&format!("{pad}c = c ^ d.get();\n"));
            }
            S::NullDeref(l, r) => {
                out.push_str(&format!("{pad}n = q;\n"));
                out.push_str(&format!(
                    "{pad}if ({} < {}) {{\n{pad}    n = null;\n{pad}}}\n",
                    l.render(),
                    r.render()
                ));
                out.push_str(&format!("{pad}c = c - n.v;\n"));
            }
        }
    }
}

fn stmt_strategy() -> impl Strategy<Value = S> {
    let leaf = prop_oneof![
        expr_strategy().prop_map(S::AssignA),
        expr_strategy().prop_map(S::AssignB),
        expr_strategy().prop_map(S::AssignC),
        (expr_strategy(), expr_strategy()).prop_map(|(i, v)| S::ArrayRoundTrip(i, v)),
        expr_strategy().prop_map(S::FieldAlias),
        expr_strategy().prop_map(S::VirtualCall),
        (expr_strategy(), expr_strategy()).prop_map(|(l, r)| S::NullDeref(l, r)),
        long_expr().prop_map(|l| S::Line(format!("x = {l};"))),
        double_expr().prop_map(|d| S::Line(format!("y = {d};"))),
        char_expr().prop_map(|c| S::Line(format!("ch = {c};"))),
        bool_expr().prop_map(|z| S::Line(format!("f = {z};"))),
        pick(&["Sys.println(x);", "Sys.println(y);"]).prop_map(S::Line),
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            (
                prop_oneof![
                    (expr_strategy(), expr_strategy()).prop_map(|(l, r)| format!(
                        "{} < {}",
                        l.render(),
                        r.render()
                    )),
                    bool_expr(),
                ],
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(cond, t, f)| S::If(cond, t, f)),
            (1u8..4, proptest::collection::vec(inner.clone(), 1..3))
                .prop_map(|(n, b)| S::Loop(n, b)),
        ]
    })
}

/// The fixed class prelude every generated program starts with.
const PRELUDE: &str = "class Cell {\n    int v;\n    int get() { return v; }\n}\nclass Twice extends Cell {\n    int get() { return v * 2; }\n}\nclass Plus extends Cell {\n    int get() { return v + 7; }\n}\n";

fn program_for(stmts: &[S]) -> String {
    let mut body = String::new();
    for s in stmts {
        s.render(&mut body, 0);
    }
    format!(
        "{PRELUDE}class Gen {{\n    static int run(int a, int b) {{\n        int c = 1;\n        int[] buf = new int[7];\n        Cell p = new Cell();\n        Cell q = p;\n        Cell tw = new Twice();\n        Cell pl = new Plus();\n        Cell d = tw;\n        Cell n = q;\n        long x = a * 3000000000L;\n        double y = b / 4.0;\n        char ch = (char) (a + 97);\n        boolean f = a < b;\n        try {{\n{body}        }} catch (RuntimeException e) {{\n            c = c * 31 + 1;\n        }}\n        Sys.println(x);\n        Sys.println(y);\n        return a ^ (b * 7) ^ c ^ q.v ^ d.get() ^ (int) x ^ (int) (x >>> 32) ^ (int) (y * 1000.0) ^ ch ^ (f ? 1 : 0);\n    }}\n    static int main() {{\n        int acc = 0;\n        for (int a = -2; a <= 2; a++)\n            for (int b = -2; b <= 2; b++)\n                acc = acc * 33 + run(a * 17, b * 29);\n        return acc;\n    }}\n}}\n"
    )
}

fn norm(v: Option<Value>) -> Option<Value> {
    v.map(|v| match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(c as i32),
        other => other,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generated_programs_agree_across_engines(stmts in proptest::collection::vec(stmt_strategy(), 1..5)) {
        let src = program_for(&stmts);
        let prog = safetsa_frontend::compile(&src)
            .unwrap_or_else(|e| panic!("generator produced invalid source: {e}\n{src}"));
        // SafeTSA, unoptimized, through the codec.
        let lowered = safetsa_ssa::lower_program(&prog).expect("lowers");
        if let Err(e) = safetsa_core::verify::verify_module(&lowered.module) {
            // Keep the reproducer on disk for postmortems.
            let path = std::env::temp_dir().join("safetsa_gen_fail.java");
            std::fs::write(path, &src).ok();
            panic!("verifies: {e}\n{src}");
        }
        let host = HostEnv::standard();
        let decoded = decode_and_verify(&encode_module(&lowered.module).expect("encodes"), &host).expect("decodes");
        let run_vm = |m: &safetsa_core::Module| -> (Option<Value>, String) {
            let mut vm = safetsa_vm::Vm::load(m).expect("loads");
            vm.set_fuel(80_000_000);
            let r = vm.run_entry("Gen.main").expect("runs");
            (norm(r), vm.output.text().to_string())
        };
        let (r1, o1) = run_vm(&decoded);
        // SafeTSA optimized.
        let mut optimized = lowered.module.clone();
        safetsa_opt::optimize_module(&mut optimized);
        safetsa_core::verify::verify_module(&optimized).expect("optimized verifies");
        let (r2, o2) = run_vm(&optimized);
        // Baseline.
        let mut code = safetsa_baseline::compile::compile_program(&prog);
        safetsa_baseline::verify::verify_program(&prog, &mut code).expect("bytecode verifies");
        let mut bvm = safetsa_baseline::interp::Bvm::load(&prog, &code);
        bvm.set_fuel(80_000_000);
        let r3 = norm(bvm.run_entry("Gen.main").expect("baseline runs"));
        prop_assert_eq!(&o1, &o2, "optimized output diverged\n{}", src);
        prop_assert_eq!(o1.as_str(), bvm.output.text(), "baseline output diverged\n{}", src);
        prop_assert_eq!(&r1, &r2, "optimized diverged\n{}", src);
        prop_assert_eq!(&r1, &r3, "baseline diverged\n{}", src);
    }

    /// The in-place optimizer (shared fact context, clean-pass memo)
    /// matches the reference loop of public per-pass `run`s on every
    /// generated program, under every pass configuration.
    #[test]
    fn generated_programs_optimize_like_the_reference_loop(stmts in proptest::collection::vec(stmt_strategy(), 1..5)) {
        let src = program_for(&stmts);
        let prog = safetsa_frontend::compile(&src)
            .unwrap_or_else(|e| panic!("generator produced invalid source: {e}\n{src}"));
        let lowered = safetsa_ssa::lower_program(&prog).expect("lowers");
        for (cfg_name, passes) in common::pass_configs() {
            common::assert_matches_reference(&lowered.module, passes, &format!("[{cfg_name}]\n{src}"));
        }
    }
}
