//! SSA values, literals, and the per-function constant pool.
//!
//! Internally the IR names every value with an absolute [`ValueId`];
//! the dominator-relative `(l, r)` pairs of the wire format (§2) are
//! computed by the encoder and resolved back by the decoder, so that
//! referential integrity is a property of the *encoding*, while the
//! in-memory representation stays convenient for optimizers.

use crate::types::{PrimKind, TypeId};
use std::fmt;

/// Absolute name of an SSA value within one function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

impl ValueId {
    /// Raw index into the function's value table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Index of a basic block within one function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

impl BlockId {
    /// Raw index into the function's block list.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A literal constant carried in a function's constant pool.
///
/// Constants are *pre-loaded* into registers of the appropriate planes
/// in the initial basic block (§5) — there is no instruction for
/// materializing a constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    /// `boolean` literal.
    Bool(bool),
    /// `char` literal (UTF-16 code unit).
    Char(u16),
    /// `int` literal.
    Int(i32),
    /// `long` literal.
    Long(i64),
    /// `float` literal (bit-exact).
    Float(f32),
    /// `double` literal (bit-exact).
    Double(f64),
    /// String literal; lives on the plane of the imported `String` class.
    Str(String),
    /// The `null` reference, typed at a specific reference plane.
    Null,
}

impl Literal {
    /// The primitive plane of a scalar literal; `None` for strings and
    /// `null`, which live on reference planes.
    pub fn prim_kind(&self) -> Option<PrimKind> {
        Some(match self {
            Literal::Bool(_) => PrimKind::Bool,
            Literal::Char(_) => PrimKind::Char,
            Literal::Int(_) => PrimKind::Int,
            Literal::Long(_) => PrimKind::Long,
            Literal::Float(_) => PrimKind::Float,
            Literal::Double(_) => PrimKind::Double,
            Literal::Str(_) | Literal::Null => return None,
        })
    }

    /// Structural equality that, unlike `PartialEq` on floats, treats
    /// NaNs with identical bits as equal (needed for pool deduplication).
    pub fn bit_eq(&self, other: &Literal) -> bool {
        match (self, other) {
            (Literal::Float(a), Literal::Float(b)) => a.to_bits() == b.to_bits(),
            (Literal::Double(a), Literal::Double(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Bool(b) => write!(f, "{b}"),
            Literal::Char(c) => match char::from_u32(*c as u32) {
                Some(ch) if !ch.is_control() => write!(f, "'{ch}'"),
                _ => write!(f, "'\\u{c:04x}'"),
            },
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Long(v) => write!(f, "{v}L"),
            Literal::Float(v) => write!(f, "{v}f"),
            Literal::Double(v) => write!(f, "{v}d"),
            Literal::Str(s) => write!(f, "{s:?}"),
            Literal::Null => write!(f, "null"),
        }
    }
}

/// One constant-pool entry: a literal pre-loaded onto plane `ty`.
#[derive(Debug, Clone, PartialEq)]
pub struct Const {
    /// The plane the constant is pre-loaded onto.
    pub ty: TypeId,
    /// The literal value.
    pub lit: Literal,
}

/// Where a value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Def {
    /// The `i`-th parameter, pre-loaded in the entry block.
    Param(u32),
    /// The `i`-th constant-pool entry, pre-loaded in the entry block.
    Const(u32),
    /// Result of the `i`-th phi of a block (phis precede instructions).
    Phi(BlockId, u32),
    /// Result of the `i`-th instruction of a block.
    Instr(BlockId, u32),
}

impl Def {
    /// Whether this is an entry-block pre-load (parameter or constant).
    pub fn is_preload(self) -> bool {
        matches!(self, Def::Param(_) | Def::Const(_))
    }
}

/// Metadata for one SSA value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValueInfo {
    /// The plane the value lives on.
    pub ty: TypeId,
    /// The defining site.
    pub def: Def,
    /// The block the value is defined in (entry block for pre-loads).
    pub block: BlockId,
    /// For `safe-index` values: the array *value* this index was checked
    /// against (Appendix A binds safe-index types to array values).
    /// `None` for all other planes.
    pub provenance: Option<ValueId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_display() {
        assert_eq!(Literal::Int(-3).to_string(), "-3");
        assert_eq!(Literal::Long(7).to_string(), "7L");
        assert_eq!(Literal::Bool(true).to_string(), "true");
        assert_eq!(Literal::Char(b'a' as u16).to_string(), "'a'");
        assert_eq!(Literal::Null.to_string(), "null");
        assert_eq!(Literal::Str("hi".into()).to_string(), "\"hi\"");
    }

    #[test]
    fn nan_bit_equality() {
        let a = Literal::Double(f64::NAN);
        let b = Literal::Double(f64::NAN);
        assert!(a.bit_eq(&b));
        assert!(a != b, "PartialEq must still be IEEE");
        assert!(Literal::Float(0.0).bit_eq(&Literal::Float(0.0)));
        assert!(!Literal::Float(0.0).bit_eq(&Literal::Float(-0.0)));
    }

    #[test]
    fn preload_defs() {
        assert!(Def::Param(0).is_preload());
        assert!(Def::Const(1).is_preload());
        assert!(!Def::Phi(BlockId(0), 0).is_preload());
        assert!(!Def::Instr(BlockId(0), 0).is_preload());
    }
}
