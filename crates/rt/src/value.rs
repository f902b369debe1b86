//! Runtime values.

use crate::heap::HeapRef;

/// A runtime value. References use `Ref(None)` for `null`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// `boolean`.
    Z(bool),
    /// `char`.
    C(u16),
    /// `int`.
    I(i32),
    /// `long`.
    J(i64),
    /// `float`.
    F(f32),
    /// `double`.
    D(f64),
    /// A reference (`None` = `null`).
    Ref(Option<HeapRef>),
}

impl Value {
    /// The canonical `null`.
    pub const NULL: Value = Value::Ref(None);

    /// Extracts an `int`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not an `int` (verified code never does).
    #[inline]
    pub fn as_i(self) -> i32 {
        match self {
            Value::I(v) => v,
            other => panic!("expected int, found {other:?}"),
        }
    }

    /// Extracts a `long`.
    ///
    /// # Panics
    ///
    /// Panics on a non-`long`.
    #[inline]
    pub fn as_j(self) -> i64 {
        match self {
            Value::J(v) => v,
            other => panic!("expected long, found {other:?}"),
        }
    }

    /// Extracts a `float`.
    ///
    /// # Panics
    ///
    /// Panics on a non-`float`.
    #[inline]
    pub fn as_f(self) -> f32 {
        match self {
            Value::F(v) => v,
            other => panic!("expected float, found {other:?}"),
        }
    }

    /// Extracts a `double`.
    ///
    /// # Panics
    ///
    /// Panics on a non-`double`.
    #[inline]
    pub fn as_d(self) -> f64 {
        match self {
            Value::D(v) => v,
            other => panic!("expected double, found {other:?}"),
        }
    }

    /// Extracts a `boolean`.
    ///
    /// # Panics
    ///
    /// Panics on a non-`boolean`.
    #[inline]
    pub fn as_z(self) -> bool {
        match self {
            Value::Z(v) => v,
            other => panic!("expected boolean, found {other:?}"),
        }
    }

    /// Extracts a `char`.
    ///
    /// # Panics
    ///
    /// Panics on a non-`char`.
    #[inline]
    pub fn as_c(self) -> u16 {
        match self {
            Value::C(v) => v,
            other => panic!("expected char, found {other:?}"),
        }
    }

    /// Extracts a reference (possibly null).
    ///
    /// # Panics
    ///
    /// Panics on a non-reference.
    #[inline]
    pub fn as_ref(self) -> Option<HeapRef> {
        match self {
            Value::Ref(r) => r,
            other => panic!("expected reference, found {other:?}"),
        }
    }

    /// Bit-level equality (used by differential tests so `NaN == NaN`).
    pub fn bits_eq(self, other: Value) -> bool {
        match (self, other) {
            (Value::F(a), Value::F(b)) => a.to_bits() == b.to_bits(),
            (Value::D(a), Value::D(b)) => a.to_bits() == b.to_bits(),
            (a, b) => a == b,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::I(3).as_i(), 3);
        assert_eq!(Value::J(-1).as_j(), -1);
        assert!(Value::Z(true).as_z());
        assert_eq!(Value::C(65).as_c(), 65);
        assert_eq!(Value::NULL.as_ref(), None);
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn wrong_kind_panics() {
        Value::Z(false).as_i();
    }

    #[test]
    fn nan_bits_eq() {
        assert!(Value::D(f64::NAN).bits_eq(Value::D(f64::NAN)));
        assert!(!Value::D(0.0).bits_eq(Value::D(-0.0)));
        assert!(Value::I(5).bits_eq(Value::I(5)));
    }
}
