//! The SafeTSA instruction set.
//!
//! Every instruction implicitly selects the register planes of its
//! operands and of its result from its opcode and type parameters (§3);
//! the operand fields only carry register *numbers* on those planes.
//! The result register is always the next free register on the result
//! plane of the current block, so results are never named explicitly.

use crate::primops::PrimOpId;
use crate::types::{FieldRef, MethodRef, TypeId};
use crate::value::ValueId;

/// One SafeTSA instruction.
///
/// Operands are absolute [`ValueId`]s in memory; the encoder turns them
/// into dominator-relative `(l, r)` pairs on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `primitive base-type operation operand…` (§5). Never traps.
    Primitive {
        /// Base primitive type (a `Prim` plane).
        ty: TypeId,
        /// Operation within that type's table.
        op: PrimOpId,
        /// Operands on the planes dictated by the operation signature
        /// (at most two, so they always fit in place).
        args: Operands<ValueId>,
    },
    /// `xprimitive base-type operation operand…` (§5). May trap; adds an
    /// incoming exception edge when inside a `try` region.
    XPrimitive {
        /// Base primitive type.
        ty: TypeId,
        /// Operation within that type's table (must be exceptional).
        op: PrimOpId,
        /// Operands, in place like [`Instr::Primitive`]'s.
        args: Operands<ValueId>,
    },
    /// Null check (§4): coerces a `ref` value onto the `safe-ref` plane,
    /// trapping if it is `null`.
    NullCheck {
        /// The unsafe reference type being checked.
        ty: TypeId,
        /// Operand on the `ty` plane.
        value: ValueId,
    },
    /// Index check (§4): coerces an `int` onto the `safe-index` plane of
    /// `array`'s type, trapping if out of bounds. The resulting value is
    /// bound to the particular `array` value (Appendix A).
    IndexCheck {
        /// The array type whose safe-index plane receives the result.
        arr_ty: TypeId,
        /// The array, on the `safe-ref(arr_ty)` plane.
        array: ValueId,
        /// The candidate index, on the `int` plane.
        index: ValueId,
    },
    /// Dynamically checked cast (§4 "upcast"): traps if the value's
    /// runtime type is not assignable to `to`.
    Upcast {
        /// Static plane of the operand.
        from: TypeId,
        /// Target reference plane.
        to: TypeId,
        /// Operand on the `from` plane.
        value: ValueId,
    },
    /// Statically safe cast (§4 "downcast"): e.g. `safe-ref → ref` or
    /// `ref → superclass ref`. Generates no target-machine code; the
    /// verifier insists the cast is provably safe.
    Downcast {
        /// Static plane of the operand.
        from: TypeId,
        /// Target plane, which `from` must be statically assignable to.
        to: TypeId,
        /// Operand on the `from` plane.
        value: ValueId,
    },
    /// `getfield ref-type object field` (§4).
    GetField {
        /// Declared reference type of the object.
        ty: TypeId,
        /// Object on the `safe-ref(ty)` plane.
        object: ValueId,
        /// Symbolic member reference.
        field: FieldRef,
    },
    /// `setfield ref-type object field value` (§4).
    SetField {
        /// Declared reference type of the object.
        ty: TypeId,
        /// Object on the `safe-ref(ty)` plane.
        object: ValueId,
        /// Symbolic member reference.
        field: FieldRef,
        /// Value on the field's plane.
        value: ValueId,
    },
    /// Static-field read; the storage designator is the class itself, so
    /// no null check is involved.
    GetStatic {
        /// Symbolic member reference (the class is `field.class`).
        field: FieldRef,
    },
    /// Static-field write.
    SetStatic {
        /// Symbolic member reference.
        field: FieldRef,
        /// Value on the field's plane.
        value: ValueId,
    },
    /// `getelt array-type object index` (§4).
    GetElt {
        /// The array type.
        arr_ty: TypeId,
        /// Array on the `safe-ref(arr_ty)` plane.
        array: ValueId,
        /// Index on the `safe-index(arr_ty)` plane, bound to `array`.
        index: ValueId,
    },
    /// `setelt array-type object index value` (§4).
    SetElt {
        /// The array type.
        arr_ty: TypeId,
        /// Array on the `safe-ref(arr_ty)` plane.
        array: ValueId,
        /// Index on the `safe-index(arr_ty)` plane, bound to `array`.
        index: ValueId,
        /// Value on the element plane.
        value: ValueId,
    },
    /// Reads an array's length onto the `int` plane.
    ArrayLength {
        /// The array type.
        arr_ty: TypeId,
        /// Array on the `safe-ref(arr_ty)` plane.
        array: ValueId,
    },
    /// Allocates an instance of a class; result on the class's
    /// `safe-ref` plane — a fresh allocation is never null (fields
    /// zero-initialized, constructor called separately).
    New {
        /// The class reference plane.
        class_ty: TypeId,
    },
    /// Allocates an array; traps on negative length. Result on the
    /// array type's `safe-ref` plane (never null).
    NewArray {
        /// The array type.
        arr_ty: TypeId,
        /// Length on the `int` plane.
        length: ValueId,
    },
    /// `xcall base-type receiver method operand…` (§6): statically bound
    /// invocation (static methods, constructors, `super` calls).
    XCall {
        /// Static type of the receiver (ignored for static methods).
        base_ty: TypeId,
        /// Symbolic method reference.
        method: MethodRef,
        /// Receiver on the `safe-ref(base_ty)` plane; `None` for statics.
        receiver: Option<ValueId>,
        /// Arguments on the parameter planes.
        args: Vec<ValueId>,
    },
    /// `xdispatch base-type receiver method operand…` (§6): dynamic
    /// dispatch through the vtable slot determined by the static type.
    XDispatch {
        /// Static type of the receiver.
        base_ty: TypeId,
        /// Symbolic method reference (must be virtual).
        method: MethodRef,
        /// Receiver on the `safe-ref(base_ty)` plane.
        receiver: ValueId,
        /// Arguments on the parameter planes.
        args: Vec<ValueId>,
    },
    /// Reference identity comparison (`==` on references, including
    /// `null` tests); both operands on the same plane, result on the
    /// `boolean` plane. Reference planes are type-separated, so this
    /// cannot be expressed as a primitive operation.
    RefEq {
        /// The common reference plane of both operands.
        ty: TypeId,
        /// Left operand.
        a: ValueId,
        /// Right operand.
        b: ValueId,
    },
    /// Runtime type test; result on the `boolean` plane.
    InstanceOf {
        /// Static plane of the operand (a `ref` or `safe-ref` plane).
        from: TypeId,
        /// The reference type tested against.
        target: TypeId,
        /// Operand.
        value: ValueId,
    },
    /// Materializes the in-flight exception at the entry of a handler
    /// block; result on the plane of the root throwable class.
    Catch {
        /// The throwable reference plane.
        ty: TypeId,
    },
}

impl Instr {
    /// Whether this instruction can raise an exception and therefore
    /// contributes an exception edge when it occurs inside a `try`
    /// region (§7: "at any point where an exception may occur").
    pub fn is_exceptional(&self) -> bool {
        matches!(
            self,
            Instr::XPrimitive { .. }
                | Instr::NullCheck { .. }
                | Instr::IndexCheck { .. }
                | Instr::Upcast { .. }
                | Instr::NewArray { .. }
                | Instr::XCall { .. }
                | Instr::XDispatch { .. }
        )
    }

    /// Whether the instruction's only observable effect is its result:
    /// it cannot raise an exception and writes no memory, so dead code
    /// elimination deletes it when the result is unused, and liveness
    /// demands its operands only when the result is demanded.
    pub fn is_pure(&self) -> bool {
        matches!(
            self,
            Instr::Primitive { .. }
                | Instr::Downcast { .. }
                | Instr::InstanceOf { .. }
                | Instr::RefEq { .. }
                | Instr::ArrayLength { .. }
                | Instr::GetField { .. }
                | Instr::GetStatic { .. }
                | Instr::GetElt { .. }
                | Instr::New { .. }
        )
    }

    /// Whether this instruction reads or writes the heap (used by the
    /// optimizer's `Mem` dependence machinery, §8).
    pub fn touches_memory(&self) -> bool {
        matches!(
            self,
            Instr::GetField { .. }
                | Instr::SetField { .. }
                | Instr::GetStatic { .. }
                | Instr::SetStatic { .. }
                | Instr::GetElt { .. }
                | Instr::SetElt { .. }
                | Instr::XCall { .. }
                | Instr::XDispatch { .. }
        )
    }

    /// Whether the instruction may *write* memory (defines a new `Mem`).
    pub fn writes_memory(&self) -> bool {
        matches!(
            self,
            Instr::SetField { .. }
                | Instr::SetStatic { .. }
                | Instr::SetElt { .. }
                | Instr::XCall { .. }
                | Instr::XDispatch { .. }
        )
    }

    /// The operand values, in signature order.
    pub fn operands(&self) -> Operands<ValueId> {
        match self {
            Instr::Primitive { args, .. } | Instr::XPrimitive { args, .. } => args.clone(),
            Instr::NullCheck { value, .. }
            | Instr::Upcast { value, .. }
            | Instr::Downcast { value, .. }
            | Instr::InstanceOf { value, .. }
            | Instr::SetStatic { value, .. } => [*value].into(),
            Instr::IndexCheck { array, index, .. } => [*array, *index].into(),
            Instr::RefEq { a, b, .. } => [*a, *b].into(),
            Instr::GetField { object, .. } => [*object].into(),
            Instr::SetField { object, value, .. } => [*object, *value].into(),
            Instr::GetStatic { .. } | Instr::New { .. } | Instr::Catch { .. } => Operands::new(),
            Instr::GetElt { array, index, .. } => [*array, *index].into(),
            Instr::SetElt {
                array,
                index,
                value,
                ..
            } => [*array, *index, *value].into(),
            Instr::ArrayLength { array, .. } => [*array].into(),
            Instr::NewArray { length, .. } => [*length].into(),
            Instr::XCall { receiver, args, .. } => receiver.iter().chain(args).copied().collect(),
            Instr::XDispatch { receiver, args, .. } => {
                std::iter::once(receiver).chain(args).copied().collect()
            }
        }
    }

    /// Rewrites every operand through `f` (used by optimization passes).
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Instr::Primitive { args, .. } | Instr::XPrimitive { args, .. } => {
                for a in args.iter_mut() {
                    *a = f(*a);
                }
            }
            Instr::NullCheck { value, .. }
            | Instr::Upcast { value, .. }
            | Instr::Downcast { value, .. }
            | Instr::InstanceOf { value, .. }
            | Instr::SetStatic { value, .. } => *value = f(*value),
            Instr::IndexCheck { array, index, .. } => {
                *array = f(*array);
                *index = f(*index);
            }
            Instr::RefEq { a, b, .. } => {
                *a = f(*a);
                *b = f(*b);
            }
            Instr::GetField { object, .. } => *object = f(*object),
            Instr::SetField { object, value, .. } => {
                *object = f(*object);
                *value = f(*value);
            }
            Instr::GetStatic { .. } | Instr::New { .. } | Instr::Catch { .. } => {}
            Instr::GetElt { array, index, .. } => {
                *array = f(*array);
                *index = f(*index);
            }
            Instr::SetElt {
                array,
                index,
                value,
                ..
            } => {
                *array = f(*array);
                *index = f(*index);
                *value = f(*value);
            }
            Instr::ArrayLength { array, .. } => *array = f(*array),
            Instr::NewArray { length, .. } => *length = f(*length),
            Instr::XCall { receiver, args, .. } => {
                if let Some(r) = receiver {
                    *r = f(*r);
                }
                for a in args {
                    *a = f(*a);
                }
            }
            Instr::XDispatch { receiver, args, .. } => {
                *receiver = f(*receiver);
                for a in args {
                    *a = f(*a);
                }
            }
        }
    }

    /// A short mnemonic for statistics and pretty printing.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            Instr::Primitive { .. } => "primitive",
            Instr::XPrimitive { .. } => "xprimitive",
            Instr::NullCheck { .. } => "nullcheck",
            Instr::IndexCheck { .. } => "indexcheck",
            Instr::Upcast { .. } => "upcast",
            Instr::Downcast { .. } => "downcast",
            Instr::GetField { .. } => "getfield",
            Instr::SetField { .. } => "setfield",
            Instr::GetStatic { .. } => "getstatic",
            Instr::SetStatic { .. } => "setstatic",
            Instr::GetElt { .. } => "getelt",
            Instr::SetElt { .. } => "setelt",
            Instr::ArrayLength { .. } => "arraylength",
            Instr::New { .. } => "new",
            Instr::NewArray { .. } => "newarray",
            Instr::XCall { .. } => "xcall",
            Instr::XDispatch { .. } => "xdispatch",
            Instr::RefEq { .. } => "refeq",
            Instr::InstanceOf { .. } => "instanceof",
            Instr::Catch { .. } => "catch",
        }
    }
}

/// How many items an [`Operands`] list holds in place: as many 4-byte
/// items as fit beside the length in the room a spilled list takes
/// anyway. Only a call with more than seven operands, its receiver
/// included, needs more.
const INLINE_OPERANDS: usize = 7;

/// A short list that holds up to seven items in place and spills to the
/// heap only beyond that; it derefs to a slice. It carries a primitive's
/// operands ([`Instr::Primitive`]), an instruction's operand values
/// ([`Instr::operands`]) or their planes, so listing them allocates
/// nothing for all but the longest calls.
#[derive(Clone)]
pub struct Operands<T>(Repr<T>);

#[derive(Clone)]
enum Repr<T> {
    Inline(u8, [T; INLINE_OPERANDS]),
    Spilled(Vec<T>),
}

impl<T: Copy + Default> Operands<T> {
    /// An empty list.
    pub fn new() -> Self {
        Operands(Repr::Inline(0, [T::default(); INLINE_OPERANDS]))
    }

    /// Appends `x`, moving the list to the heap once it outgrows its
    /// inline room.
    pub fn push(&mut self, x: T) {
        match &mut self.0 {
            Repr::Inline(len, items) => match items.get_mut(usize::from(*len)) {
                Some(slot) => {
                    *slot = x;
                    *len += 1;
                }
                None => {
                    let mut v = Vec::with_capacity(2 * INLINE_OPERANDS);
                    v.extend_from_slice(items);
                    v.push(x);
                    self.0 = Repr::Spilled(v);
                }
            },
            Repr::Spilled(v) => v.push(x),
        }
    }
}

impl<T: Copy + Default> Default for Operands<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::ops::Deref for Operands<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match &self.0 {
            Repr::Inline(len, items) => &items[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl<T> std::ops::DerefMut for Operands<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match &mut self.0 {
            Repr::Inline(len, items) => &mut items[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

/// Prints the items as a list, like a `Vec`.
impl<T: std::fmt::Debug> std::fmt::Debug for Operands<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq> PartialEq for Operands<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq> Eq for Operands<T> {}

impl<T: std::hash::Hash> std::hash::Hash for Operands<T> {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl<T: Copy + Default> Extend<T> for Operands<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl<T: Copy + Default> FromIterator<T> for Operands<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Operands::new();
        list.extend(iter);
        list
    }
}

impl<T: Copy + Default, const N: usize> From<[T; N]> for Operands<T> {
    fn from(items: [T; N]) -> Self {
        if N > INLINE_OPERANDS {
            return Operands(Repr::Spilled(items.to_vec()));
        }
        let mut inline = [T::default(); INLINE_OPERANDS];
        inline[..N].copy_from_slice(&items);
        Operands(Repr::Inline(N as u8, inline))
    }
}

/// A phi node. Phis are strictly type-separated: all operands and the
/// result live on the same plane (§4).
#[derive(Debug, Clone, PartialEq)]
pub struct Phi {
    /// The plane of the phi and all of its operands.
    pub ty: TypeId,
    /// One operand per incoming CFG edge, keyed by predecessor block.
    /// The encoder linearizes these into the canonical edge order of the
    /// join block.
    pub args: Vec<(crate::value::BlockId, ValueId)>,
}

impl Phi {
    /// The operand arriving from `pred`, if any.
    pub fn arg_from(&self, pred: crate::value::BlockId) -> Option<ValueId> {
        self.args.iter().find(|(b, _)| *b == pred).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::ClassId;

    #[test]
    fn exceptional_classification() {
        let nc = Instr::NullCheck {
            ty: TypeId(0),
            value: ValueId(0),
        };
        assert!(nc.is_exceptional());
        let prim = Instr::Primitive {
            ty: TypeId(2),
            op: PrimOpId(0),
            args: [ValueId(0), ValueId(1)].into(),
        };
        assert!(!prim.is_exceptional());
        let xprim = Instr::XPrimitive {
            ty: TypeId(2),
            op: PrimOpId(3),
            args: [ValueId(0), ValueId(1)].into(),
        };
        assert!(xprim.is_exceptional());
    }

    #[test]
    fn pure_instructions_are_written_out_for_every_opcode() {
        let (t, v, op) = (TypeId(0), ValueId(0), PrimOpId(0));
        let field = FieldRef {
            class: ClassId(0),
            index: 0,
        };
        let method = MethodRef {
            class: ClassId(0),
            index: 0,
        };
        let cases = [
            (
                Instr::Primitive {
                    ty: t,
                    op,
                    args: [v].into(),
                },
                true,
            ),
            (
                Instr::XPrimitive {
                    ty: t,
                    op,
                    args: [v].into(),
                },
                false,
            ),
            (Instr::NullCheck { ty: t, value: v }, false),
            (
                Instr::IndexCheck {
                    arr_ty: t,
                    array: v,
                    index: v,
                },
                false,
            ),
            (
                Instr::Upcast {
                    from: t,
                    to: t,
                    value: v,
                },
                false,
            ),
            (
                Instr::Downcast {
                    from: t,
                    to: t,
                    value: v,
                },
                true,
            ),
            (
                Instr::GetField {
                    ty: t,
                    object: v,
                    field,
                },
                true,
            ),
            (
                Instr::SetField {
                    ty: t,
                    object: v,
                    field,
                    value: v,
                },
                false,
            ),
            (Instr::GetStatic { field }, true),
            (Instr::SetStatic { field, value: v }, false),
            (
                Instr::GetElt {
                    arr_ty: t,
                    array: v,
                    index: v,
                },
                true,
            ),
            (
                Instr::SetElt {
                    arr_ty: t,
                    array: v,
                    index: v,
                    value: v,
                },
                false,
            ),
            (
                Instr::ArrayLength {
                    arr_ty: t,
                    array: v,
                },
                true,
            ),
            (Instr::New { class_ty: t }, true),
            (
                Instr::NewArray {
                    arr_ty: t,
                    length: v,
                },
                false,
            ),
            (
                Instr::XCall {
                    base_ty: t,
                    method,
                    receiver: None,
                    args: vec![],
                },
                false,
            ),
            (
                Instr::XDispatch {
                    base_ty: t,
                    method,
                    receiver: v,
                    args: vec![],
                },
                false,
            ),
            (Instr::RefEq { ty: t, a: v, b: v }, true),
            (
                Instr::InstanceOf {
                    from: t,
                    target: t,
                    value: v,
                },
                true,
            ),
            (Instr::Catch { ty: t }, false),
        ];
        let mut mnemonics: Vec<_> = cases.iter().map(|(i, _)| i.mnemonic()).collect();
        mnemonics.sort_unstable();
        mnemonics.dedup();
        assert_eq!(mnemonics.len(), 20, "one case per opcode");
        for (instr, pure) in &cases {
            assert_eq!(instr.is_pure(), *pure, "{}", instr.mnemonic());
            // A pure instruction neither traps nor writes memory.
            if *pure {
                assert!(!instr.is_exceptional() && !instr.writes_memory());
            }
        }
    }

    #[test]
    fn instructions_stay_48_bytes_with_primitive_operands_in_place() {
        assert_eq!(std::mem::size_of::<Instr>(), 48);
        assert_eq!(std::mem::size_of::<Operands<ValueId>>(), 32);
        let add = Instr::Primitive {
            ty: TypeId(2),
            op: PrimOpId(0),
            args: [ValueId(0), ValueId(1)].into(),
        };
        let Instr::Primitive { args, .. } = &add else {
            unreachable!()
        };
        assert!(matches!(args.0, Repr::Inline(2, _)));
        assert_eq!(format!("{args:?}"), "[ValueId(0), ValueId(1)]");
    }

    #[test]
    fn operand_listing_and_mapping() {
        let mut i = Instr::SetElt {
            arr_ty: TypeId(9),
            array: ValueId(1),
            index: ValueId(2),
            value: ValueId(3),
        };
        assert_eq!(*i.operands(), [ValueId(1), ValueId(2), ValueId(3)]);
        i.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(*i.operands(), [ValueId(11), ValueId(12), ValueId(13)]);
    }

    #[test]
    fn call_operands_include_receiver() {
        let call = Instr::XCall {
            base_ty: TypeId(7),
            method: MethodRef {
                class: ClassId(0),
                index: 0,
            },
            receiver: Some(ValueId(5)),
            args: vec![ValueId(6)],
        };
        assert_eq!(*call.operands(), [ValueId(5), ValueId(6)]);
        assert!(matches!(call.operands().0, Repr::Inline(..)));
        let stat = Instr::XCall {
            base_ty: TypeId(7),
            method: MethodRef {
                class: ClassId(0),
                index: 0,
            },
            receiver: None,
            args: vec![ValueId(6)],
        };
        assert_eq!(*stat.operands(), [ValueId(6)]);
    }

    #[test]
    fn long_calls_spill_their_operands_in_order() {
        let method = MethodRef {
            class: ClassId(0),
            index: 0,
        };
        // A receiver and as many arguments as fit inline: one too many.
        let args: Vec<ValueId> = (1..=INLINE_OPERANDS as u32).map(ValueId).collect();
        let call = Instr::XDispatch {
            base_ty: TypeId(7),
            method,
            receiver: ValueId(0),
            args: args.clone(),
        };
        let ops = call.operands();
        assert!(matches!(ops.0, Repr::Spilled(_)));
        let want: Vec<ValueId> = (0..=INLINE_OPERANDS as u32).map(ValueId).collect();
        assert_eq!(*ops, *want);
        // The same arguments without a receiver fit.
        let stat = Instr::XCall {
            base_ty: TypeId(7),
            method,
            receiver: None,
            args,
        };
        assert!(matches!(stat.operands().0, Repr::Inline(..)));
        assert_eq!(*stat.operands(), want[1..]);
    }

    #[test]
    fn memory_classification() {
        let gf = Instr::GetField {
            ty: TypeId(8),
            object: ValueId(0),
            field: FieldRef {
                class: ClassId(0),
                index: 0,
            },
        };
        assert!(gf.touches_memory());
        assert!(!gf.writes_memory());
        let sf = Instr::SetField {
            ty: TypeId(8),
            object: ValueId(0),
            field: FieldRef {
                class: ClassId(0),
                index: 0,
            },
            value: ValueId(1),
        };
        assert!(sf.writes_memory());
    }
}
