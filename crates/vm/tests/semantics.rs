//! Java-semantics contract tests for the primitive operations: exact
//! wrapping, masking, saturation, and NaN behaviour, pinned to the
//! Java-specified values.
//!
//! Every row runs three ways: on the VM unoptimized, on the VM after
//! the producer passes (where constprop folds the constant operands),
//! and on the bytecode baseline. Folding and the VM evaluate through
//! the same generated evaluators, `safetsa_core::primops::apply1` and
//! `apply2`, so the pinned value and the baseline's own copy are the
//! independent oracles.

use safetsa_baseline::{compile as bcompile, interp::Bvm, verify as bverify};
use safetsa_core::verify::verify_module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::Vm;

/// Evaluates `expr_src` on all three engines, asserts that they agree
/// bit for bit, and returns the unoptimized VM's value.
fn eval(expr_src: &str, ret_ty: &str) -> Value {
    let src = format!("class E {{ static {ret_ty} main() {{ return {expr_src}; }} }}");
    let prog = compile(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let module = lower_program(&prog).unwrap().module;
    let run = |m: &safetsa_core::Module| {
        verify_module(m).unwrap();
        Vm::load(m).unwrap().run_entry("E.main").unwrap().unwrap()
    };
    let plain = run(&module);
    let mut optimized = module;
    safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
    let folded = run(&optimized);
    let mut code = bcompile::compile_program(&prog);
    bverify::verify_program(&prog, &mut code).unwrap();
    let baseline = Bvm::load(&prog, &code)
        .run_entry("E.main")
        .unwrap()
        .unwrap();
    // The baseline returns boolean and char as int.
    let norm = |v: Value| match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(i32::from(c)),
        other => other,
    };
    for (engine, v) in [("optimized VM", folded), ("baseline", baseline)] {
        assert!(
            norm(v).bits_eq(norm(plain)),
            "{engine} gives {v:?}, unoptimized VM {plain:?}: {expr_src}"
        );
    }
    plain
}

#[test]
fn int_wrapping() {
    assert_eq!(eval("2147483647 + 1", "int"), Value::I(i32::MIN));
    assert_eq!(eval("-2147483648 - 1", "int"), Value::I(i32::MAX));
    assert_eq!(
        eval("65535 * 65537", "int"),
        Value::I(65535i64.wrapping_mul(65537) as i32)
    );
    assert_eq!(eval("(-2147483648) / (-1)", "int"), Value::I(i32::MIN));
    assert_eq!(eval("(-2147483648) % (-1)", "int"), Value::I(0));
}

#[test]
fn shift_masking() {
    assert_eq!(eval("1 << 33", "int"), Value::I(2)); // 33 & 31 == 1
    assert_eq!(eval("1 << -1", "int"), Value::I(i32::MIN)); // -1 & 31 == 31
    assert_eq!(eval("1L << 65", "long"), Value::J(2)); // 65 & 63 == 1
    assert_eq!(eval("-8 >> 1", "int"), Value::I(-4)); // arithmetic
    assert_eq!(eval("-8 >>> 1", "int"), Value::I(0x7FFF_FFFC)); // logical
    assert_eq!(
        eval("-8L >>> 1", "long"),
        Value::J(0x7FFF_FFFF_FFFF_FFFCu64 as i64)
    );
}

#[test]
fn float_to_int_saturation() {
    assert_eq!(eval("(int) 1e99", "int"), Value::I(i32::MAX));
    assert_eq!(eval("(int) -1e99", "int"), Value::I(i32::MIN));
    assert_eq!(eval("(int) (0.0 / 0.0)", "int"), Value::I(0)); // NaN -> 0
    assert_eq!(eval("(long) 1e99", "long"), Value::J(i64::MAX));
    assert_eq!(eval("(long) (0.0 / 0.0)", "long"), Value::J(0));
}

#[test]
fn char_conversions_wrap_mod_2_16() {
    assert_eq!(eval("(int) (char) 65536", "int"), Value::I(0));
    assert_eq!(eval("(int) (char) 65601", "int"), Value::I(65));
    assert_eq!(eval("(int) (char) -1", "int"), Value::I(65535));
}

#[test]
fn nan_comparison_semantics() {
    assert_eq!(
        eval("(0.0 / 0.0) == (0.0 / 0.0)", "boolean"),
        Value::Z(false)
    );
    assert_eq!(
        eval("(0.0 / 0.0) != (0.0 / 0.0)", "boolean"),
        Value::Z(true)
    );
    assert_eq!(eval("(0.0 / 0.0) < 1.0", "boolean"), Value::Z(false));
    assert_eq!(eval("(0.0 / 0.0) >= 1.0", "boolean"), Value::Z(false));
    assert_eq!(eval("1.0 / 0.0 > 1e308", "boolean"), Value::Z(true));
}

#[test]
fn integer_remainder_signs() {
    assert_eq!(eval("7 % 3", "int"), Value::I(1));
    assert_eq!(eval("-7 % 3", "int"), Value::I(-1)); // sign of dividend
    assert_eq!(eval("7 % -3", "int"), Value::I(1));
    assert_eq!(eval("-7 % -3", "int"), Value::I(-1));
}

#[test]
fn double_remainder_ieee() {
    assert_eq!(eval("5.5 % 2.0", "double"), Value::D(1.5));
    assert_eq!(eval("-5.5 % 2.0", "double"), Value::D(-1.5));
}

#[test]
fn widening_precision() {
    // long -> double may lose precision (Java allows it implicitly).
    assert_eq!(
        eval("(long) (double) 9007199254740993L", "long"),
        Value::J(9007199254740992)
    );
    // int -> float similar.
    assert_eq!(eval("(int) (float) 16777217", "int"), Value::I(16777216));
}

#[test]
fn division_by_negative_zero() {
    assert_eq!(
        eval("1.0 / (0.0 * -1.0)", "double"),
        Value::D(f64::NEG_INFINITY)
    );
    assert_eq!(
        eval("1.0f / (0.0f * -1.0f)", "float"),
        Value::F(f32::NEG_INFINITY)
    );
}

#[test]
fn infinities_and_float_nan_saturate() {
    assert_eq!(eval("(int) (1.0 / 0.0)", "int"), Value::I(i32::MAX));
    assert_eq!(eval("(int) (-1.0 / 0.0)", "int"), Value::I(i32::MIN));
    assert_eq!(eval("(long) (1.0 / 0.0)", "long"), Value::J(i64::MAX));
    assert_eq!(eval("(long) (-1.0 / 0.0)", "long"), Value::J(i64::MIN));
    assert_eq!(eval("(int) (1.0f / 0.0f)", "int"), Value::I(i32::MAX));
    assert_eq!(eval("(long) (-1.0f / 0.0f)", "long"), Value::J(i64::MIN));
    assert_eq!(eval("(int) (0.0f / 0.0f)", "int"), Value::I(0));
    assert_eq!(eval("(long) (0.0f / 0.0f)", "long"), Value::J(0));
}

#[test]
fn long_min_divided_by_minus_one() {
    assert_eq!(
        eval("-9223372036854775808L / -1L", "long"),
        Value::J(i64::MIN)
    );
    assert_eq!(eval("-9223372036854775808L % -1L", "long"), Value::J(0));
}

#[test]
fn long_shift_counts_mask_to_six_bits() {
    assert_eq!(eval("1L << 63", "long"), Value::J(i64::MIN));
    assert_eq!(eval("1L << 64", "long"), Value::J(1)); // 64 & 63 == 0
    assert_eq!(eval("1L << 65", "long"), Value::J(2));
    assert_eq!(eval("1L << -1", "long"), Value::J(i64::MIN)); // -1 & 63 == 63
    assert_eq!(eval("-1L >>> 63", "long"), Value::J(1));
    assert_eq!(eval("-1L >>> 64", "long"), Value::J(-1));
    assert_eq!(eval("-1L >>> -1", "long"), Value::J(1));
    assert_eq!(eval("-4L >> 65", "long"), Value::J(-2));
}

#[test]
fn floating_remainder_by_zero_is_nan() {
    assert!(eval("1.0 % 0.0", "double").as_d().is_nan());
    assert!(eval("1.0f % 0.0f", "float").as_f().is_nan());
}

#[test]
fn narrowing_to_float_rounds_and_overflows() {
    assert_eq!(eval("(float) 1e40", "float"), Value::F(f32::INFINITY));
    // 2^53 + 1 rounds to the nearest float, 2^53.
    assert_eq!(
        eval("(float) 9007199254740993L", "float"),
        Value::F(9_007_199_254_740_992.0)
    );
}

#[test]
fn char_ordering_is_unsigned() {
    assert_eq!(eval("'a' < 'b'", "boolean"), Value::Z(true));
    assert_eq!(eval("'b' <= 'a'", "boolean"), Value::Z(false));
    assert_eq!(eval("(char) -1 > 'a'", "boolean"), Value::Z(true)); // 65535
    assert_eq!(
        eval("(char) 40000 >= (char) 30000", "boolean"),
        Value::Z(true)
    );
}
