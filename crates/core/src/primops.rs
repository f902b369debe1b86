//! The primitive-operation tables of the SafeTSA machine model.
//!
//! Per §5 of the paper, primitive operations are *subordinate to types*:
//! the instruction set contains only the generic `primitive` and
//! `xprimitive` instructions, and each primitive type brings its own
//! table of named operations. Operations that can raise an exception
//! (e.g. integer division) are marked *exceptional* and may only be
//! referenced through `xprimitive`.
//!
//! These tables are part of the trusted machine model: they are never
//! transmitted and can therefore not be corrupted by a code producer.
//!
//! Each row also carries its Java semantics, written once against the
//! [`Scalar`] access trait. The table macro turns the rows into one
//! `match` per arity, [`apply1`] and [`apply2`]: generic over the
//! consumer and `#[inline(always)]`, so each consumer's instantiation
//! compiles every row inline at its call site. Constant folding (over
//! [`Literal`]s) and the VM (over runtime values) evaluate every
//! operation through these two functions.

use crate::types::PrimKind;
use crate::value::Literal;

/// Index of an operation inside the table of its base type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PrimOpId(pub u16);

impl PrimOpId {
    /// Raw index into the per-type operation table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Signature and exception behaviour of one primitive operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrimOp {
    /// Symbolic name, e.g. `"add"`, `"to_double"`.
    pub name: &'static str,
    /// Parameter planes.
    pub params: &'static [PrimKind],
    /// Result plane.
    pub result: PrimKind,
    /// Whether the operation may raise an exception; if so it must be
    /// invoked through `xprimitive` (§5).
    pub exceptional: bool,
}

/// How one consumer of the op semantics reads and makes values on the
/// six primitive planes, and what it raises for division by zero.
/// Readers are only ever applied to a value on their own plane. They
/// take the value by reference, so an inlined row loads only its own
/// plane's payload, after the row is picked, instead of every plane's
/// before.
pub trait Scalar {
    /// The consumer's value representation.
    type Value;
    /// The consumer's trap.
    type Trap;
    /// The trap of an exceptional row: integer division by zero.
    fn div_by_zero() -> Self::Trap;
    /// Reads a `boolean`.
    fn z(v: &Self::Value) -> bool;
    /// Reads a `char`.
    fn c(v: &Self::Value) -> u16;
    /// Reads an `int`.
    fn i(v: &Self::Value) -> i32;
    /// Reads a `long`.
    fn j(v: &Self::Value) -> i64;
    /// Reads a `float`.
    fn f(v: &Self::Value) -> f32;
    /// Reads a `double`.
    fn d(v: &Self::Value) -> f64;
    /// Makes a `boolean`.
    fn of_z(x: bool) -> Self::Value;
    /// Makes a `char`.
    fn of_c(x: u16) -> Self::Value;
    /// Makes an `int`.
    fn of_i(x: i32) -> Self::Value;
    /// Makes a `long`.
    fn of_j(x: i64) -> Self::Value;
    /// Makes a `float`.
    fn of_f(x: f32) -> Self::Value;
    /// Makes a `double`.
    fn of_d(x: f64) -> Self::Value;
}

/// An operation's result for consumer `S`: a value, or its trap.
pub type Outcome<S> = Result<<S as Scalar>::Value, <S as Scalar>::Trap>;

/// Implements one plane's reader and maker for [`Literal`].
macro_rules! literal_plane {
    ($($get:ident, $make:ident: $variant:ident($t:ty);)*) => {$(
        fn $get(v: &Literal) -> $t {
            match *v {
                Literal::$variant(x) => x,
                ref other => unreachable!("{other:?} read as {}", stringify!($t)),
            }
        }
        fn $make(x: $t) -> Literal {
            Literal::$variant(x)
        }
    )*};
}

/// Constant folding evaluates on pool literals. It checks every
/// operand's plane against [`PrimOp::params`] first, so no reader sees
/// a literal of another plane, and a trapping row simply does not fold.
impl Scalar for Literal {
    type Value = Literal;
    type Trap = ();
    fn div_by_zero() {}
    literal_plane! {
        z, of_z: Bool(bool);
        c, of_c: Char(u16);
        i, of_i: Int(i32);
        j, of_j: Long(i64);
        f, of_f: Float(f32);
        d, of_d: Double(f64);
    }
}

/// Declares one operation table and its evaluators. A row reads
/// `name (params) -> result [x] = |operands| body;`: the operands are
/// bound as the Rust scalars of their planes, and the body computes the
/// result's scalar. An exceptional row (`x`) returns `Option`, with
/// `None` for a division by zero. The rows' semantics go into module
/// `$rows` as `apply1` and `apply2`, each a `match` on the row index
/// whose arms are the bodies of the rows of its arity.
macro_rules! ops {
    ($(#[$doc:meta])* $table:ident, $rows:ident {
        $($name:ident ($($p:ident),*) -> $r:ident $($x:ident)? = |$($v:ident),*| $body:expr;)*
    }) => {
        $(#[$doc])*
        pub const $table: &[PrimOp] = &[$(PrimOp {
            name: stringify!($name),
            params: &[$(PrimKind::$p),*],
            result: PrimKind::$r,
            exceptional: ops!(@x $($x)?),
        }),*];

        #[allow(non_camel_case_types, non_upper_case_globals)]
        mod $rows {
            use super::*;

            // Numbers the rows in table order, for the `match` patterns.
            enum Row {
                $($name),*
            }
            $(const $name: u16 = Row::$name as u16;)*

            #[inline(always)]
            pub(super) fn apply1<S: Scalar>(op: PrimOpId, a: &S::Value) -> Outcome<S> {
                match op.0 {
                    $(self::$name => ops!(@apply1 ($($p),*) ($($v),*) $r [$($x)?] $body, a),)*
                    _ => unreachable!("{} has no row {}", stringify!($table), op.0),
                }
            }

            #[inline(always)]
            pub(super) fn apply2<S: Scalar>(op: PrimOpId, a: &S::Value, b: &S::Value) -> Outcome<S> {
                match op.0 {
                    $(self::$name => ops!(@apply2 ($($p),*) ($($v),*) $r [$($x)?] $body, a, b),)*
                    _ => unreachable!("{} has no row {}", stringify!($table), op.0),
                }
            }
        }
    };
    (@x) => { false };
    (@x x) => { true };
    (@apply1 ($a:ident) ($x:ident) $r:ident [] $body:expr, $va:ident) => {{
        let $x = ops!(@get $a $va);
        Ok(ops!(@put $r $body))
    }};
    (@apply1 ($a:ident, $b:ident) $($row:tt)*) => {
        unreachable!("a binary row applied to one operand")
    };
    (@apply2 ($a:ident, $b:ident) ($x:ident, $y:ident) $r:ident [] $body:expr, $va:ident, $vb:ident) => {{
        let ($x, $y) = (ops!(@get $a $va), ops!(@get $b $vb));
        Ok(ops!(@put $r $body))
    }};
    (@apply2 ($a:ident, $b:ident) ($x:ident, $y:ident) $r:ident [x] $body:expr, $va:ident, $vb:ident) => {{
        let ($x, $y) = (ops!(@get $a $va), ops!(@get $b $vb));
        $body.map(|v| ops!(@put $r v)).ok_or_else(S::div_by_zero)
    }};
    (@apply2 ($a:ident) $($row:tt)*) => {
        unreachable!("a unary row applied to two operands")
    };
    (@get Bool $v:ident) => { S::z($v) };
    (@get Char $v:ident) => { S::c($v) };
    (@get Int $v:ident) => { S::i($v) };
    (@get Long $v:ident) => { S::j($v) };
    (@get Float $v:ident) => { S::f($v) };
    (@get Double $v:ident) => { S::d($v) };
    (@put Bool $e:expr) => { S::of_z($e) };
    (@put Char $e:expr) => { S::of_c($e) };
    (@put Int $e:expr) => { S::of_i($e) };
    (@put Long $e:expr) => { S::of_j($e) };
    (@put Float $e:expr) => { S::of_f($e) };
    (@put Double $e:expr) => { S::of_d($e) };
}

ops! {
    /// Operations on `boolean`.
    BOOL_OPS, bool_rows {
        and (Bool, Bool) -> Bool = |x, y| x & y;
        or  (Bool, Bool) -> Bool = |x, y| x | y;
        xor (Bool, Bool) -> Bool = |x, y| x ^ y;
        not (Bool) -> Bool = |x| !x;
        eq  (Bool, Bool) -> Bool = |x, y| x == y;
        ne  (Bool, Bool) -> Bool = |x, y| x != y;
    }
}

ops! {
    /// Operations on `char`: unsigned 16-bit code units.
    CHAR_OPS, char_rows {
        eq (Char, Char) -> Bool = |x, y| x == y;
        ne (Char, Char) -> Bool = |x, y| x != y;
        lt (Char, Char) -> Bool = |x, y| x < y;
        le (Char, Char) -> Bool = |x, y| x <= y;
        gt (Char, Char) -> Bool = |x, y| x > y;
        ge (Char, Char) -> Bool = |x, y| x >= y;
        to_int (Char) -> Int = |x| x as i32;
    }
}

ops! {
    /// Operations on `int`. Division and remainder are exceptional
    /// (division by zero), exactly as the paper's example notes.
    /// Arithmetic wraps, `MIN / -1` is `MIN`, and shift counts are
    /// masked to 5 bits.
    INT_OPS, int_rows {
        add (Int, Int) -> Int = |x, y| x.wrapping_add(y);
        sub (Int, Int) -> Int = |x, y| x.wrapping_sub(y);
        mul (Int, Int) -> Int = |x, y| x.wrapping_mul(y);
        div (Int, Int) -> Int x = |x, y| (y != 0).then(|| x.wrapping_div(y));
        rem (Int, Int) -> Int x = |x, y| (y != 0).then(|| x.wrapping_rem(y));
        neg (Int) -> Int = |x| x.wrapping_neg();
        and (Int, Int) -> Int = |x, y| x & y;
        or  (Int, Int) -> Int = |x, y| x | y;
        xor (Int, Int) -> Int = |x, y| x ^ y;
        not (Int) -> Int = |x| !x;
        shl (Int, Int) -> Int = |x, y| x.wrapping_shl(y as u32 & 31);
        shr (Int, Int) -> Int = |x, y| x.wrapping_shr(y as u32 & 31);
        ushr (Int, Int) -> Int = |x, y| ((x as u32) >> (y as u32 & 31)) as i32;
        eq (Int, Int) -> Bool = |x, y| x == y;
        ne (Int, Int) -> Bool = |x, y| x != y;
        lt (Int, Int) -> Bool = |x, y| x < y;
        le (Int, Int) -> Bool = |x, y| x <= y;
        gt (Int, Int) -> Bool = |x, y| x > y;
        ge (Int, Int) -> Bool = |x, y| x >= y;
        to_char (Int) -> Char = |x| x as u16;
        to_long (Int) -> Long = |x| x as i64;
        to_float (Int) -> Float = |x| x as f32;
        to_double (Int) -> Double = |x| x as f64;
    }
}

ops! {
    /// Operations on `long`. As for `int`, except that shifts take an
    /// `int` count masked to 6 bits.
    LONG_OPS, long_rows {
        add (Long, Long) -> Long = |x, y| x.wrapping_add(y);
        sub (Long, Long) -> Long = |x, y| x.wrapping_sub(y);
        mul (Long, Long) -> Long = |x, y| x.wrapping_mul(y);
        div (Long, Long) -> Long x = |x, y| (y != 0).then(|| x.wrapping_div(y));
        rem (Long, Long) -> Long x = |x, y| (y != 0).then(|| x.wrapping_rem(y));
        neg (Long) -> Long = |x| x.wrapping_neg();
        and (Long, Long) -> Long = |x, y| x & y;
        or  (Long, Long) -> Long = |x, y| x | y;
        xor (Long, Long) -> Long = |x, y| x ^ y;
        not (Long) -> Long = |x| !x;
        shl (Long, Int) -> Long = |x, y| x.wrapping_shl(y as u32 & 63);
        shr (Long, Int) -> Long = |x, y| x.wrapping_shr(y as u32 & 63);
        ushr (Long, Int) -> Long = |x, y| ((x as u64) >> (y as u32 & 63)) as i64;
        eq (Long, Long) -> Bool = |x, y| x == y;
        ne (Long, Long) -> Bool = |x, y| x != y;
        lt (Long, Long) -> Bool = |x, y| x < y;
        le (Long, Long) -> Bool = |x, y| x <= y;
        gt (Long, Long) -> Bool = |x, y| x > y;
        ge (Long, Long) -> Bool = |x, y| x >= y;
        to_int (Long) -> Int = |x| x as i32;
        to_float (Long) -> Float = |x| x as f32;
        to_double (Long) -> Double = |x| x as f64;
    }
}

ops! {
    /// Operations on `float`. Floating-point division never traps in
    /// Java, so all operations are plain primitives. Rust's float-to-int
    /// `as` saturates and maps NaN to 0, which is Java's narrowing.
    FLOAT_OPS, float_rows {
        add (Float, Float) -> Float = |x, y| x + y;
        sub (Float, Float) -> Float = |x, y| x - y;
        mul (Float, Float) -> Float = |x, y| x * y;
        div (Float, Float) -> Float = |x, y| x / y;
        rem (Float, Float) -> Float = |x, y| x % y;
        neg (Float) -> Float = |x| -x;
        eq (Float, Float) -> Bool = |x, y| x == y;
        ne (Float, Float) -> Bool = |x, y| x != y;
        lt (Float, Float) -> Bool = |x, y| x < y;
        le (Float, Float) -> Bool = |x, y| x <= y;
        gt (Float, Float) -> Bool = |x, y| x > y;
        ge (Float, Float) -> Bool = |x, y| x >= y;
        to_int (Float) -> Int = |x| x as i32;
        to_long (Float) -> Long = |x| x as i64;
        to_double (Float) -> Double = |x| x as f64;
    }
}

ops! {
    /// Operations on `double`, with the same rules as `float`.
    DOUBLE_OPS, double_rows {
        add (Double, Double) -> Double = |x, y| x + y;
        sub (Double, Double) -> Double = |x, y| x - y;
        mul (Double, Double) -> Double = |x, y| x * y;
        div (Double, Double) -> Double = |x, y| x / y;
        rem (Double, Double) -> Double = |x, y| x % y;
        neg (Double) -> Double = |x| -x;
        eq (Double, Double) -> Bool = |x, y| x == y;
        ne (Double, Double) -> Bool = |x, y| x != y;
        lt (Double, Double) -> Bool = |x, y| x < y;
        le (Double, Double) -> Bool = |x, y| x <= y;
        gt (Double, Double) -> Bool = |x, y| x > y;
        ge (Double, Double) -> Bool = |x, y| x >= y;
        to_int (Double) -> Int = |x| x as i32;
        to_long (Double) -> Long = |x| x as i64;
        to_float (Double) -> Float = |x| x as f32;
    }
}

/// The operation table for `kind`.
pub fn ops_of(kind: PrimKind) -> &'static [PrimOp] {
    match kind {
        PrimKind::Bool => BOOL_OPS,
        PrimKind::Char => CHAR_OPS,
        PrimKind::Int => INT_OPS,
        PrimKind::Long => LONG_OPS,
        PrimKind::Float => FLOAT_OPS,
        PrimKind::Double => DOUBLE_OPS,
    }
}

/// Resolves `(kind, op)` to the operation descriptor, checking bounds.
pub fn resolve(kind: PrimKind, op: PrimOpId) -> Option<&'static PrimOp> {
    ops_of(kind).get(op.index())
}

/// Finds an operation of `kind` by name (used by front-ends and tests).
pub fn find(kind: PrimKind, name: &str) -> Option<PrimOpId> {
    ops_of(kind)
        .iter()
        .position(|o| o.name == name)
        .map(|i| PrimOpId(i as u16))
}

/// Row `op` of `kind`'s table applied to `a`, for consumer `S`.
///
/// The caller passes only a row that [`resolve`] accepted and that
/// takes one operand, on the row's parameter plane; any other row
/// panics.
#[inline(always)]
pub fn apply1<S: Scalar>(kind: PrimKind, op: PrimOpId, a: &S::Value) -> Outcome<S> {
    match kind {
        PrimKind::Bool => bool_rows::apply1::<S>(op, a),
        PrimKind::Char => char_rows::apply1::<S>(op, a),
        PrimKind::Int => int_rows::apply1::<S>(op, a),
        PrimKind::Long => long_rows::apply1::<S>(op, a),
        PrimKind::Float => float_rows::apply1::<S>(op, a),
        PrimKind::Double => double_rows::apply1::<S>(op, a),
    }
}

/// Row `op` of `kind`'s table applied to `a` and `b`, for consumer
/// `S`. An exceptional row returns [`Scalar::div_by_zero`] for a zero
/// divisor.
///
/// The caller passes only a row that [`resolve`] accepted and that
/// takes two operands, on the row's parameter planes; any other row
/// panics.
#[inline(always)]
pub fn apply2<S: Scalar>(kind: PrimKind, op: PrimOpId, a: &S::Value, b: &S::Value) -> Outcome<S> {
    match kind {
        PrimKind::Bool => bool_rows::apply2::<S>(op, a, b),
        PrimKind::Char => char_rows::apply2::<S>(op, a, b),
        PrimKind::Int => int_rows::apply2::<S>(op, a, b),
        PrimKind::Long => long_rows::apply2::<S>(op, a, b),
        PrimKind::Float => float_rows::apply2::<S>(op, a, b),
        PrimKind::Double => double_rows::apply2::<S>(op, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_div_is_exceptional() {
        let id = find(PrimKind::Int, "div").unwrap();
        assert!(resolve(PrimKind::Int, id).unwrap().exceptional);
        let add = find(PrimKind::Int, "add").unwrap();
        assert!(!resolve(PrimKind::Int, add).unwrap().exceptional);
    }

    #[test]
    fn float_div_is_not_exceptional() {
        for kind in [PrimKind::Float, PrimKind::Double] {
            let id = find(kind, "div").unwrap();
            assert!(!resolve(kind, id).unwrap().exceptional);
        }
    }

    #[test]
    fn comparisons_produce_bool() {
        for kind in [
            PrimKind::Int,
            PrimKind::Long,
            PrimKind::Float,
            PrimKind::Double,
            PrimKind::Char,
        ] {
            for name in ["eq", "ne", "lt", "le", "gt", "ge"] {
                let id = find(kind, name).unwrap();
                assert_eq!(resolve(kind, id).unwrap().result, PrimKind::Bool);
            }
        }
    }

    #[test]
    fn shifts_take_int_amounts() {
        let id = find(PrimKind::Long, "shl").unwrap();
        let op = resolve(PrimKind::Long, id).unwrap();
        assert_eq!(op.params, &[PrimKind::Long, PrimKind::Int]);
    }

    #[test]
    fn unknown_ops_are_none() {
        assert!(find(PrimKind::Bool, "add").is_none());
        assert!(resolve(PrimKind::Bool, PrimOpId(999)).is_none());
    }

    /// A non-zero sample literal on plane `k`.
    fn sample(k: PrimKind) -> Literal {
        match k {
            PrimKind::Bool => Literal::Bool(true),
            PrimKind::Char => Literal::Char(7),
            PrimKind::Int => Literal::Int(3),
            PrimKind::Long => Literal::Long(3),
            PrimKind::Float => Literal::Float(1.5),
            PrimKind::Double => Literal::Double(1.5),
        }
    }

    fn apply(kind: PrimKind, op: PrimOpId, args: &[Literal]) -> Result<Literal, ()> {
        match args {
            [a] => apply1::<Literal>(kind, op, a),
            [a, b] => apply2::<Literal>(kind, op, a, b),
            _ => panic!("{kind:?} op {op:?}: no row takes {} operands", args.len()),
        }
    }

    #[test]
    fn every_row_evaluates_onto_its_result_plane() {
        for &kind in &PrimKind::ALL {
            let ops = ops_of(kind);
            for (i, op) in ops.iter().enumerate() {
                let id = PrimOpId(i as u16);
                let args: Vec<Literal> = op.params.iter().map(|&p| sample(p)).collect();
                let out = apply(kind, id, &args).expect("no trap on non-zero operands");
                assert_eq!(out.prim_kind(), Some(op.result), "{kind:?}.{}", op.name);
                // Exactly the exceptional rows trap on a zero divisor.
                if let [x, PrimKind::Int | PrimKind::Long] = op.params {
                    let zero = match op.params[1] {
                        PrimKind::Int => Literal::Int(0),
                        _ => Literal::Long(0),
                    };
                    let trapped = apply(kind, id, &[sample(*x), zero]).is_err();
                    assert_eq!(trapped, op.exceptional, "{kind:?}.{}", op.name);
                }
            }
        }
    }

    #[test]
    fn names_unique_within_table() {
        for &kind in &PrimKind::ALL {
            let ops = ops_of(kind);
            for (i, a) in ops.iter().enumerate() {
                for b in &ops[i + 1..] {
                    assert_ne!(a.name, b.name, "duplicate op in {kind:?}");
                }
            }
        }
    }
}
