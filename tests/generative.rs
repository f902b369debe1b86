//! Generative differential testing: random (but well-formed) programs
//! in the Java subset are compiled through both the SafeTSA pipeline
//! (with and without optimization, through the codec) and the bytecode
//! baseline; all four executions must agree.
//!
//! Besides integer arithmetic, control flow and array traffic, the
//! generated statements reach the heap through a fixed class prelude
//! (`Cell` and two subclasses overriding `get`): field stores read back
//! through an alias, virtual calls whose receiver class depends on the
//! data, and null dereferences that throw inside the program's `try`.

mod common;

use proptest::prelude::*;
use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_rt::Value;

/// A tiny expression/statement generator over locals a,b,c (ints) and
/// f (boolean); always produces a compilable program.
#[derive(Debug, Clone)]
enum E {
    A,
    B,
    C,
    Lit(i32),
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

fn expr_strategy() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        Just(E::A),
        Just(E::B),
        Just(E::C),
        (-100i32..100).prop_map(E::Lit),
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
    If(E, E, Vec<S>, Vec<S>),
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
            S::If(l, r, t, f) => {
                out.push_str(&format!("{pad}if ({} < {}) {{\n", l.render(), r.render()));
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
    ];
    leaf.prop_recursive(2, 16, 4, |inner| {
        prop_oneof![
            (
                expr_strategy(),
                expr_strategy(),
                proptest::collection::vec(inner.clone(), 0..3),
                proptest::collection::vec(inner.clone(), 0..3)
            )
                .prop_map(|(l, r, t, f)| S::If(l, r, t, f)),
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
        "{PRELUDE}class Gen {{\n    static int run(int a, int b) {{\n        int c = 1;\n        int[] buf = new int[7];\n        Cell p = new Cell();\n        Cell q = p;\n        Cell tw = new Twice();\n        Cell pl = new Plus();\n        Cell d = tw;\n        Cell n = q;\n        try {{\n{body}        }} catch (RuntimeException e) {{\n            c = c * 31 + 1;\n        }}\n        return a ^ (b * 7) ^ c ^ q.v ^ d.get();\n    }}\n    static int main() {{\n        int acc = 0;\n        for (int a = -2; a <= 2; a++)\n            for (int b = -2; b <= 2; b++)\n                acc = acc * 33 + run(a * 17, b * 29);\n        return acc;\n    }}\n}}\n"
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
        prop_assert_eq!(o1, o2);
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
