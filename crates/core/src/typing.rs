//! The typing rules of the SafeTSA instruction set.
//!
//! One rule, [`signature`], maps an instruction to the planes of its
//! operands and its result. The function builder, the verifier, the
//! encoder and the decoder all take their planes from it. It implements
//! the "type separation" discipline of §3–§4: every operand's plane is
//! dictated by the opcode and its type parameters, memory operations
//! only accept `safe` operands, and `downcast` is restricted to
//! statically safe coercions.

use crate::instr::{Instr, Operands};
use crate::primops;
use crate::types::{FieldRef, MethodKind, TypeId, TypeKind, TypeTable};
use crate::value::ValueId;
use std::fmt;

/// A typing violation.
#[derive(Debug, Clone, PartialEq)]
pub enum TypeError {
    /// An operand was on the wrong plane.
    PlaneMismatch {
        /// What the instruction is.
        what: &'static str,
        /// Plane required by the rule.
        expected: TypeId,
        /// Plane the operand actually lives on.
        found: TypeId,
    },
    /// A type parameter had the wrong kind (e.g. `nullcheck` on `int`).
    BadTypeKind {
        /// What the instruction is.
        what: &'static str,
        /// Offending type.
        ty: TypeId,
    },
    /// A symbolic member reference did not resolve.
    BadMember(&'static str),
    /// Wrong number of operands for the operation or method.
    ArityMismatch {
        /// What the instruction is.
        what: &'static str,
        /// Expected arity.
        expected: usize,
        /// Actual arity.
        found: usize,
    },
    /// `primitive` used with an exceptional operation, or `xprimitive`
    /// with a non-exceptional one.
    ExceptionalityMismatch {
        /// Name of the operation.
        op: &'static str,
        /// Whether the operation itself is exceptional.
        op_exceptional: bool,
    },
    /// A `downcast` that is not statically safe.
    UnsafeDowncast {
        /// Source plane.
        from: TypeId,
        /// Target plane.
        to: TypeId,
    },
    /// A required derived plane (a `SafeRef` or `SafeIndex` kind) was
    /// never interned in the type table.
    MissingPlane(&'static str, TypeKind),
    /// A `getelt`/`setelt` whose index is not bound to its array value.
    ProvenanceMismatch {
        /// The array operand.
        array: ValueId,
        /// The provenance recorded on the index value.
        index_provenance: Option<ValueId>,
    },
    /// A primitive operation id out of range for its base type.
    UnknownPrimOp,
    /// `xdispatch` on a non-virtual method, or receiver rules violated.
    DispatchKind(&'static str),
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::PlaneMismatch {
                what,
                expected,
                found,
            } => write!(
                f,
                "{what}: operand on plane {found} but rule requires {expected}"
            ),
            TypeError::BadTypeKind { what, ty } => {
                write!(f, "{what}: type parameter {ty} has the wrong kind")
            }
            TypeError::BadMember(what) => write!(f, "{what}: unresolved member reference"),
            TypeError::ArityMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected} operands, found {found}"),
            TypeError::ExceptionalityMismatch { op, op_exceptional } => {
                if *op_exceptional {
                    write!(f, "operation {op} is exceptional and requires xprimitive")
                } else {
                    write!(f, "operation {op} is not exceptional; use primitive")
                }
            }
            TypeError::UnsafeDowncast { from, to } => {
                write!(f, "downcast from {from} to {to} is not statically safe")
            }
            TypeError::MissingPlane(what, plane) => {
                write!(f, "{what}: derived plane {plane:?} not in type table")
            }
            TypeError::ProvenanceMismatch {
                array,
                index_provenance,
            } => write!(
                f,
                "element access on array {array} with index bound to {index_provenance:?}"
            ),
            TypeError::UnknownPrimOp => write!(f, "unknown primitive operation"),
            TypeError::DispatchKind(what) => write!(f, "invocation kind violation: {what}"),
        }
    }
}

impl std::error::Error for TypeError {}

/// The outcome of typing one instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Typed {
    /// Result plane, or `None` for result-less instructions.
    pub result: Option<TypeId>,
    /// For safe-index results: the array value the index is bound to.
    pub provenance: Option<ValueId>,
}

/// The planes one instruction reads and writes.
#[derive(Debug, Clone, PartialEq)]
pub struct Signature {
    /// Operand planes, in [`Instr::operands`] order.
    pub operands: Operands<TypeId>,
    /// Result plane, or `None` for result-less instructions.
    pub result: Option<TypeId>,
}

/// Access to operand metadata, abstracting over `Function` so the
/// decoder can type-check incrementally.
pub trait ValueCtx {
    /// Plane of `v`.
    fn value_ty(&self, v: ValueId) -> TypeId;
    /// Safe-index provenance of `v`, if any.
    fn value_provenance(&self, v: ValueId) -> Option<ValueId>;
}

/// Whether `downcast from → to` is statically safe (§4): forgetting a
/// null-check (`safe-ref T → T`), widening to a superclass on either
/// the `ref` or the `safe-ref` plane, or widening an array reference to
/// the root class.
pub fn downcast_is_safe(types: &TypeTable, from: TypeId, to: TypeId) -> bool {
    if from == to {
        return true;
    }
    let widens = |a: TypeId, b: TypeId| -> bool {
        match (types.kind(a), types.kind(b)) {
            (TypeKind::Class(x), TypeKind::Class(y)) => types.is_subclass(x, y),
            (TypeKind::Array(_), TypeKind::Class(y)) => {
                // arrays widen to the root class only
                types.class(y).superclass.is_none()
            }
            _ => false,
        }
    };
    match (types.kind(from), types.kind(to)) {
        // safe-ref T → T (forget the null check)
        (TypeKind::SafeRef(of), _) if of == to => true,
        // safe-ref A → safe-ref B where A widens to B
        (TypeKind::SafeRef(a), TypeKind::SafeRef(b)) => widens(a, b),
        // safe-ref A → B where A widens to B (forget + widen)
        (TypeKind::SafeRef(a), _) if widens(a, to) => true,
        // A → B where A widens to B
        _ => widens(from, to),
    }
}

/// The signature of `instr`: the plane of each operand and of its
/// result, which §3's implicit register-plane selection derives from
/// the opcode and its type and member fields alone. This is the one
/// typing rule of the instruction set. The builder, the verifier, the
/// encoder and the decoder all take their planes from it, and the
/// decoder reads each operand from the plane it names.
///
/// It checks everything the instruction decides by itself: type kinds,
/// member resolution and subclassing, primop exceptionality, dispatch
/// kind and downcast safety. [`type_instr`] adds the operands.
///
/// # Errors
///
/// Returns a [`TypeError`] for an ill-formed instruction, or
/// [`TypeError::MissingPlane`] when a derived plane it needs is not in
/// `types` yet ([`intern_signature`] interns it).
pub fn signature(types: &TypeTable, instr: &Instr) -> Result<Signature, TypeError> {
    let what = instr.mnemonic();
    let bad_kind = |ty| TypeError::BadTypeKind { what, ty };
    let class_of = |ty| match types.kind(ty) {
        TypeKind::Class(c) => Ok(c),
        _ => Err(bad_kind(ty)),
    };
    let elem_of = |arr| types.array_elem(arr).ok_or(bad_kind(arr));
    // A derived plane is looked up only once its base has the right
    // kind, so a missing one can always be interned.
    let safe_ref = |of| {
        if !types.is_ref(of) {
            return Err(bad_kind(of));
        }
        let missing = TypeError::MissingPlane(what, TypeKind::SafeRef(of));
        types.find_safe_ref(of).ok_or(missing)
    };
    let safe_index = |arr| {
        elem_of(arr)?;
        let missing = TypeError::MissingPlane(what, TypeKind::SafeIndex(arr));
        types.find_safe_index(arr).ok_or(missing)
    };
    let instance_field = |ty, field: FieldRef| {
        let class = class_of(ty)?;
        types
            .field(field)
            .filter(|f| !f.is_static && types.is_subclass(class, field.class))
            .map(|f| f.ty)
            .ok_or(TypeError::BadMember(what))
    };
    let static_field = |field| {
        types
            .field(field)
            .filter(|f| f.is_static)
            .map(|f| f.ty)
            .ok_or(TypeError::BadMember(what))
    };
    let int = types.int_ty();
    let (operands, result): (Operands<TypeId>, _) = match *instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let TypeKind::Prim(kind) = types.kind(ty) else {
                return Err(bad_kind(ty));
            };
            let desc = primops::resolve(kind, op).ok_or(TypeError::UnknownPrimOp)?;
            if desc.exceptional != matches!(instr, Instr::XPrimitive { .. }) {
                return Err(TypeError::ExceptionalityMismatch {
                    op: desc.name,
                    op_exceptional: desc.exceptional,
                });
            }
            let params = desc.params.iter().map(|&p| types.prim(p));
            (params.collect(), Some(types.prim(desc.result)))
        }
        Instr::NullCheck { ty, .. } => ([ty].into(), Some(safe_ref(ty)?)),
        Instr::IndexCheck { arr_ty, .. } => {
            ([safe_ref(arr_ty)?, int].into(), Some(safe_index(arr_ty)?))
        }
        Instr::Upcast { from, to, .. } => {
            if let Some(ty) = [from, to].into_iter().find(|&ty| !types.is_ref(ty)) {
                return Err(bad_kind(ty));
            }
            ([from].into(), Some(to))
        }
        Instr::Downcast { from, to, .. } => {
            if !downcast_is_safe(types, from, to) {
                return Err(TypeError::UnsafeDowncast { from, to });
            }
            ([from].into(), Some(to))
        }
        Instr::GetField { ty, field, .. } => {
            let fty = instance_field(ty, field)?;
            ([safe_ref(ty)?].into(), Some(fty))
        }
        Instr::SetField { ty, field, .. } => {
            let fty = instance_field(ty, field)?;
            ([safe_ref(ty)?, fty].into(), None)
        }
        Instr::GetStatic { field } => (Operands::new(), Some(static_field(field)?)),
        Instr::SetStatic { field, .. } => ([static_field(field)?].into(), None),
        Instr::GetElt { arr_ty, .. } => {
            let elem = elem_of(arr_ty)?;
            ([safe_ref(arr_ty)?, safe_index(arr_ty)?].into(), Some(elem))
        }
        Instr::SetElt { arr_ty, .. } => {
            let elem = elem_of(arr_ty)?;
            ([safe_ref(arr_ty)?, safe_index(arr_ty)?, elem].into(), None)
        }
        Instr::ArrayLength { arr_ty, .. } => {
            elem_of(arr_ty)?;
            ([safe_ref(arr_ty)?].into(), Some(int))
        }
        // Allocation never yields null, so the result lands directly on
        // the safe-ref plane (no spurious null check needed).
        Instr::New { class_ty } => {
            class_of(class_ty)?;
            (Operands::new(), Some(safe_ref(class_ty)?))
        }
        Instr::NewArray { arr_ty, .. } => {
            elem_of(arr_ty)?;
            ([int].into(), Some(safe_ref(arr_ty)?))
        }
        // The receiver's plane, if the call has one, then the method's
        // parameters.
        Instr::XCall {
            base_ty, method, ..
        }
        | Instr::XDispatch {
            base_ty, method, ..
        } => {
            let info = types.method(method).ok_or(TypeError::BadMember(what))?;
            let receiver = !matches!(instr, Instr::XCall { receiver: None, .. });
            if matches!(instr, Instr::XDispatch { .. }) && info.kind != MethodKind::Virtual {
                return Err(TypeError::DispatchKind("xdispatch on non-virtual method"));
            }
            if receiver != (info.kind != MethodKind::Static) {
                return Err(TypeError::DispatchKind(if receiver {
                    "static method with receiver"
                } else {
                    "instance method without receiver"
                }));
            }
            let mut operands = Operands::new();
            if receiver {
                if !types.is_subclass(class_of(base_ty)?, method.class) {
                    return Err(TypeError::BadMember(what));
                }
                operands.push(safe_ref(base_ty)?);
            }
            operands.extend(info.params.iter().copied());
            (operands, info.ret)
        }
        Instr::RefEq { ty, .. } => {
            if !types.is_ref(ty) && !types.is_safe_ref(ty) {
                return Err(bad_kind(ty));
            }
            ([ty, ty].into(), Some(types.bool_ty()))
        }
        Instr::InstanceOf { from, target, .. } => {
            if !types.is_ref(from) && !types.is_safe_ref(from) {
                return Err(bad_kind(from));
            }
            if !types.is_ref(target) {
                return Err(bad_kind(target));
            }
            ([from].into(), Some(types.bool_ty()))
        }
        Instr::Catch { ty } => {
            class_of(ty)?;
            (Operands::new(), Some(ty))
        }
    };
    Ok(Signature { operands, result })
}

/// [`signature`], first interning each derived plane (safe-ref or
/// safe-index) it names in `types`. The builder and the decoder, which
/// meet planes as instructions arrive, take their signatures from here.
///
/// # Errors
///
/// As [`signature`], except that no plane is ever missing.
pub fn intern_signature(types: &mut TypeTable, instr: &Instr) -> Result<Signature, TypeError> {
    loop {
        // `signature` names a missing plane only once its base has the
        // right kind, so interning it cannot panic.
        match signature(types, instr) {
            Err(TypeError::MissingPlane(_, TypeKind::SafeRef(of))) => types.safe_ref_of(of),
            Err(TypeError::MissingPlane(_, TypeKind::SafeIndex(arr))) => types.safe_index_of(arr),
            sig => return sig,
        };
    }
}

/// Types `instr`, returning its result plane (and provenance), or a
/// [`TypeError`] describing the violation: its [`signature`], checked
/// against the operands.
///
/// # Errors
///
/// Returns a [`TypeError`] if the signature does, if the operand count
/// or any operand's plane differs from it, or if element access
/// violates safe-index provenance.
pub fn type_instr(
    types: &TypeTable,
    ctx: &impl ValueCtx,
    instr: &Instr,
) -> Result<Typed, TypeError> {
    type_operands(ctx, instr, &instr.operands(), &signature(types, instr)?)
}

/// Checks `operands`, those of `instr`, against its signature `sig`:
/// [`type_instr`] for callers that already hold both, the builder and
/// the verifier.
pub(crate) fn type_operands(
    ctx: &impl ValueCtx,
    instr: &Instr,
    operands: &[ValueId],
    sig: &Signature,
) -> Result<Typed, TypeError> {
    if operands.len() != sig.operands.len() {
        return Err(TypeError::ArityMismatch {
            what: instr.mnemonic(),
            expected: sig.operands.len(),
            found: operands.len(),
        });
    }
    for (&v, &expected) in operands.iter().zip(sig.operands.iter()) {
        let found = ctx.value_ty(v);
        if found != expected {
            return Err(TypeError::PlaneMismatch {
                what: instr.mnemonic(),
                expected,
                found,
            });
        }
    }
    // Appendix A: safe-index values are bound to array values.
    let provenance = match *instr {
        Instr::IndexCheck { array, .. } => Some(array),
        Instr::GetElt { array, index, .. } | Instr::SetElt { array, index, .. } => {
            let bound = ctx.value_provenance(index);
            if bound != Some(array) {
                return Err(TypeError::ProvenanceMismatch {
                    array,
                    index_provenance: bound,
                });
            }
            None
        }
        _ => None,
    };
    Ok(Typed {
        result: sig.result,
        provenance,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{ClassInfo, FieldInfo, MethodInfo, MethodRef, PrimKind};

    fn hierarchy() -> (TypeTable, TypeId, TypeId, TypeId, TypeId) {
        let mut t = TypeTable::new();
        let (obj, obj_ty) = t.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        });
        let (a, a_ty) = t.declare_class(ClassInfo {
            name: "A".into(),
            superclass: Some(obj),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let (_b, b_ty) = t.declare_class(ClassInfo {
            name: "B".into(),
            superclass: Some(a),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let int = t.prim(PrimKind::Int);
        let arr = t.array_of(int);
        (t, obj_ty, a_ty, b_ty, arr)
    }

    #[test]
    fn downcast_safety_matrix() {
        let (mut t, obj_ty, a_ty, b_ty, arr) = hierarchy();
        let sa = t.safe_ref_of(a_ty);
        let sb = t.safe_ref_of(b_ty);
        let sobj = t.safe_ref_of(obj_ty);
        // Reflexive.
        assert!(downcast_is_safe(&t, a_ty, a_ty));
        // safe-ref T → T (forget the null check).
        assert!(downcast_is_safe(&t, sa, a_ty));
        // Widening on the ref plane.
        assert!(downcast_is_safe(&t, b_ty, a_ty));
        assert!(downcast_is_safe(&t, b_ty, obj_ty));
        // Widening on the safe-ref plane.
        assert!(downcast_is_safe(&t, sb, sa));
        assert!(downcast_is_safe(&t, sb, sobj));
        // Forget + widen in one step.
        assert!(downcast_is_safe(&t, sb, a_ty));
        // Arrays widen to the root class only.
        assert!(downcast_is_safe(&t, arr, obj_ty));
        assert!(!downcast_is_safe(&t, arr, a_ty));
        // NARROWING is never a safe downcast.
        assert!(!downcast_is_safe(&t, a_ty, b_ty));
        assert!(!downcast_is_safe(&t, obj_ty, a_ty));
        assert!(!downcast_is_safe(&t, sa, sb));
        // ref → safe-ref would forge a null check.
        assert!(!downcast_is_safe(&t, a_ty, sa));
        // primitive cross-plane is nonsense.
        let int = t.prim(PrimKind::Int);
        let long = t.prim(PrimKind::Long);
        assert!(!downcast_is_safe(&t, int, long));
        assert!(!downcast_is_safe(&t, int, a_ty));
    }

    struct Vals(Vec<(TypeId, Option<ValueId>)>);
    impl ValueCtx for Vals {
        fn value_ty(&self, v: ValueId) -> TypeId {
            self.0[v.index()].0
        }
        fn value_provenance(&self, v: ValueId) -> Option<ValueId> {
            self.0[v.index()].1
        }
    }

    #[test]
    fn forged_downcast_rejected() {
        let (t, obj_ty, a_ty, _, _) = hierarchy();
        let ctx = Vals(vec![(obj_ty, None)]);
        let err = type_instr(
            &t,
            &ctx,
            &Instr::Downcast {
                from: obj_ty,
                to: a_ty,
                value: ValueId(0),
            },
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::UnsafeDowncast { .. }));
    }

    /// [`hierarchy`] with members on `A`: fields `int x` (instance)
    /// and `double s` (static), methods `int m(int)` (virtual) and
    /// `void st(long)` (static).
    fn with_members() -> (TypeTable, TypeId, TypeId, TypeId, TypeId) {
        let (mut t, obj_ty, a_ty, b_ty, arr) = hierarchy();
        let TypeKind::Class(a) = t.kind(a_ty) else {
            unreachable!()
        };
        let [int, long, double] =
            [PrimKind::Int, PrimKind::Long, PrimKind::Double].map(|p| t.prim(p));
        let field = |name: &str, ty, is_static| FieldInfo {
            name: name.into(),
            ty,
            is_static,
            slot: None,
        };
        let method = |name: &str, params, ret, kind, vtable_slot| MethodInfo {
            name: name.into(),
            params,
            ret,
            kind,
            vtable_slot,
            body: None,
        };
        let class = t.class_mut(a);
        class.fields = vec![field("x", int, false), field("s", double, true)];
        class.methods = vec![
            method("m", vec![int], Some(int), MethodKind::Virtual, Some(0)),
            method("st", vec![long], None, MethodKind::Static, None),
        ];
        (t, obj_ty, a_ty, b_ty, arr)
    }

    /// The rule for each of the 20 opcodes, written out by hand: operand
    /// planes in [`Instr::operands`] order, then the result plane.
    #[test]
    fn every_opcode_has_the_signature_written_here() {
        let (mut t, obj_ty, a_ty, b_ty, arr) = with_members();
        let [int, long, double, boolean] = [
            PrimKind::Int,
            PrimKind::Long,
            PrimKind::Double,
            PrimKind::Bool,
        ]
        .map(|p| t.prim(p));
        let (sa, sb) = (t.safe_ref_of(a_ty), t.safe_ref_of(b_ty));
        let (sarr, si) = (t.safe_ref_of(arr), t.safe_index_of(arr));
        let TypeKind::Class(a) = t.kind(a_ty) else {
            unreachable!()
        };
        let (x, s) = (
            FieldRef { class: a, index: 0 },
            FieldRef { class: a, index: 1 },
        );
        let (m, st) = (
            MethodRef { class: a, index: 0 },
            MethodRef { class: a, index: 1 },
        );
        let op = |kind, name| primops::find(kind, name).unwrap();
        let v = ValueId(0);
        let cases = [
            (
                Instr::Primitive {
                    ty: long,
                    op: op(PrimKind::Long, "shl"),
                    args: [v, v].into(),
                },
                vec![long, int],
                Some(long),
            ),
            (
                Instr::Primitive {
                    ty: int,
                    op: op(PrimKind::Int, "lt"),
                    args: [v, v].into(),
                },
                vec![int, int],
                Some(boolean),
            ),
            (
                Instr::XPrimitive {
                    ty: int,
                    op: op(PrimKind::Int, "div"),
                    args: [v, v].into(),
                },
                vec![int, int],
                Some(int),
            ),
            (
                Instr::NullCheck { ty: a_ty, value: v },
                vec![a_ty],
                Some(sa),
            ),
            (
                Instr::IndexCheck {
                    arr_ty: arr,
                    array: v,
                    index: v,
                },
                vec![sarr, int],
                Some(si),
            ),
            (
                Instr::Upcast {
                    from: obj_ty,
                    to: a_ty,
                    value: v,
                },
                vec![obj_ty],
                Some(a_ty),
            ),
            (
                Instr::Downcast {
                    from: sb,
                    to: a_ty,
                    value: v,
                },
                vec![sb],
                Some(a_ty),
            ),
            (
                Instr::GetField {
                    ty: b_ty,
                    object: v,
                    field: x,
                },
                vec![sb],
                Some(int),
            ),
            (
                Instr::SetField {
                    ty: a_ty,
                    object: v,
                    field: x,
                    value: v,
                },
                vec![sa, int],
                None,
            ),
            (Instr::GetStatic { field: s }, vec![], Some(double)),
            (Instr::SetStatic { field: s, value: v }, vec![double], None),
            (
                Instr::GetElt {
                    arr_ty: arr,
                    array: v,
                    index: v,
                },
                vec![sarr, si],
                Some(int),
            ),
            (
                Instr::SetElt {
                    arr_ty: arr,
                    array: v,
                    index: v,
                    value: v,
                },
                vec![sarr, si, int],
                None,
            ),
            (
                Instr::ArrayLength {
                    arr_ty: arr,
                    array: v,
                },
                vec![sarr],
                Some(int),
            ),
            (Instr::New { class_ty: b_ty }, vec![], Some(sb)),
            (
                Instr::NewArray {
                    arr_ty: arr,
                    length: v,
                },
                vec![int],
                Some(sarr),
            ),
            (
                Instr::XCall {
                    base_ty: a_ty,
                    method: st,
                    receiver: None,
                    args: vec![v],
                },
                vec![long],
                None,
            ),
            (
                Instr::XCall {
                    base_ty: b_ty,
                    method: m,
                    receiver: Some(v),
                    args: vec![v],
                },
                vec![sb, int],
                Some(int),
            ),
            (
                Instr::XDispatch {
                    base_ty: b_ty,
                    method: m,
                    receiver: v,
                    args: vec![v],
                },
                vec![sb, int],
                Some(int),
            ),
            (
                Instr::RefEq { ty: sa, a: v, b: v },
                vec![sa, sa],
                Some(boolean),
            ),
            (
                Instr::InstanceOf {
                    from: obj_ty,
                    target: a_ty,
                    value: v,
                },
                vec![obj_ty],
                Some(boolean),
            ),
            (Instr::Catch { ty: a_ty }, vec![], Some(a_ty)),
        ];
        let mut opcodes = std::collections::BTreeSet::new();
        for (instr, operands, result) in &cases {
            let what = instr.mnemonic();
            let sig = signature(&t, instr).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(*sig.operands, operands[..], "{what} operands");
            assert_eq!(sig.operands.len(), instr.operands().len(), "{what} arity");
            assert_eq!(sig.result, *result, "{what} result");
            opcodes.insert(what);
        }
        assert_eq!(opcodes.len(), 20, "every opcode is pinned");
    }

    /// One rejection per check the rule makes.
    #[test]
    fn signature_rejects_each_ill_formed_instruction() {
        let (mut t, obj_ty, a_ty, _, arr) = with_members();
        let int = t.prim(PrimKind::Int);
        let sa = t.safe_ref_of(a_ty);
        let (sarr, si) = (t.safe_ref_of(arr), t.safe_index_of(arr));
        let TypeKind::Class(a) = t.kind(a_ty) else {
            unreachable!()
        };
        let (x, s) = (
            FieldRef { class: a, index: 0 },
            FieldRef { class: a, index: 1 },
        );
        let (m, st) = (
            MethodRef { class: a, index: 0 },
            MethodRef { class: a, index: 1 },
        );
        let op = |name| primops::find(PrimKind::Int, name).unwrap();
        let v = ValueId(0);
        let bad = |what, ty| TypeError::BadTypeKind { what, ty };
        let call = |base_ty, method, receiver| Instr::XCall {
            base_ty,
            method,
            receiver,
            args: vec![],
        };
        let dispatch = |base_ty, method| Instr::XDispatch {
            base_ty,
            method,
            receiver: v,
            args: vec![],
        };
        let cases = [
            (
                Instr::Primitive {
                    ty: a_ty,
                    op: op("add"),
                    args: [].into(),
                },
                bad("primitive", a_ty),
            ),
            (
                Instr::Primitive {
                    ty: int,
                    op: primops::PrimOpId(999),
                    args: [].into(),
                },
                TypeError::UnknownPrimOp,
            ),
            (
                Instr::Primitive {
                    ty: int,
                    op: op("div"),
                    args: [].into(),
                },
                TypeError::ExceptionalityMismatch {
                    op: "div",
                    op_exceptional: true,
                },
            ),
            (
                Instr::XPrimitive {
                    ty: int,
                    op: op("add"),
                    args: [].into(),
                },
                TypeError::ExceptionalityMismatch {
                    op: "add",
                    op_exceptional: false,
                },
            ),
            (
                Instr::NullCheck { ty: int, value: v },
                bad("nullcheck", int),
            ),
            (
                Instr::IndexCheck {
                    arr_ty: a_ty,
                    array: v,
                    index: v,
                },
                bad("indexcheck", a_ty),
            ),
            (
                Instr::Upcast {
                    from: int,
                    to: a_ty,
                    value: v,
                },
                bad("upcast", int),
            ),
            (
                Instr::Upcast {
                    from: a_ty,
                    to: sa,
                    value: v,
                },
                bad("upcast", sa),
            ),
            (
                Instr::Downcast {
                    from: obj_ty,
                    to: a_ty,
                    value: v,
                },
                TypeError::UnsafeDowncast {
                    from: obj_ty,
                    to: a_ty,
                },
            ),
            (
                Instr::GetField {
                    ty: arr,
                    object: v,
                    field: x,
                },
                bad("getfield", arr),
            ),
            (
                Instr::GetField {
                    ty: obj_ty,
                    object: v,
                    field: x,
                },
                TypeError::BadMember("getfield"),
            ),
            (
                Instr::SetField {
                    ty: a_ty,
                    object: v,
                    field: s,
                    value: v,
                },
                TypeError::BadMember("setfield"),
            ),
            (
                Instr::GetStatic {
                    field: FieldRef { class: a, index: 7 },
                },
                TypeError::BadMember("getstatic"),
            ),
            (
                Instr::SetStatic { field: x, value: v },
                TypeError::BadMember("setstatic"),
            ),
            (
                Instr::GetElt {
                    arr_ty: int,
                    array: v,
                    index: v,
                },
                bad("getelt", int),
            ),
            (
                Instr::SetElt {
                    arr_ty: sarr,
                    array: v,
                    index: v,
                    value: v,
                },
                bad("setelt", sarr),
            ),
            (
                Instr::ArrayLength {
                    arr_ty: a_ty,
                    array: v,
                },
                bad("arraylength", a_ty),
            ),
            (Instr::New { class_ty: arr }, bad("new", arr)),
            (
                Instr::NewArray {
                    arr_ty: a_ty,
                    length: v,
                },
                bad("newarray", a_ty),
            ),
            (
                call(a_ty, MethodRef { class: a, index: 9 }, None),
                TypeError::BadMember("xcall"),
            ),
            (
                call(a_ty, st, Some(v)),
                TypeError::DispatchKind("static method with receiver"),
            ),
            (
                call(a_ty, m, None),
                TypeError::DispatchKind("instance method without receiver"),
            ),
            (call(arr, m, Some(v)), bad("xcall", arr)),
            (
                dispatch(a_ty, st),
                TypeError::DispatchKind("xdispatch on non-virtual method"),
            ),
            (dispatch(obj_ty, m), TypeError::BadMember("xdispatch")),
            (Instr::RefEq { ty: si, a: v, b: v }, bad("refeq", si)),
            (
                Instr::InstanceOf {
                    from: int,
                    target: a_ty,
                    value: v,
                },
                bad("instanceof", int),
            ),
            (
                Instr::InstanceOf {
                    from: a_ty,
                    target: sa,
                    value: v,
                },
                bad("instanceof", sa),
            ),
            (Instr::Catch { ty: arr }, bad("catch", arr)),
        ];
        for (instr, err) in cases {
            assert_eq!(signature(&t, &instr), Err(err), "{instr:?}");
        }
    }

    #[test]
    fn interning_supplies_the_planes_a_signature_names() {
        let (mut t, _, _, _, arr) = with_members();
        let int = t.prim(PrimKind::Int);
        let v = ValueId(0);
        let getelt = Instr::GetElt {
            arr_ty: arr,
            array: v,
            index: v,
        };
        assert_eq!(
            signature(&t, &getelt),
            Err(TypeError::MissingPlane("getelt", TypeKind::SafeRef(arr)))
        );
        let sig = intern_signature(&mut t, &getelt).unwrap();
        let planes = [
            t.find_safe_ref(arr).unwrap(),
            t.find_safe_index(arr).unwrap(),
        ];
        assert_eq!(*sig.operands, planes);
        assert_eq!(signature(&t, &getelt), Ok(sig));
        // An ill-kinded base is reported and never interned (interning
        // the safe-ref of `int` would panic).
        let planes_before = t.len();
        let nullcheck = Instr::NullCheck { ty: int, value: v };
        assert!(matches!(
            intern_signature(&mut t, &nullcheck),
            Err(TypeError::BadTypeKind { .. })
        ));
        assert_eq!(t.len(), planes_before);
    }

    #[test]
    fn memory_ops_reject_unsafe_operands() {
        let (mut t, _, a_ty, _, arr) = hierarchy();
        let a = match t.kind(a_ty) {
            crate::types::TypeKind::Class(c) => c,
            _ => unreachable!(),
        };
        let int = t.prim(PrimKind::Int);
        t.class_mut(a).fields.push(FieldInfo {
            name: "x".into(),
            ty: int,
            is_static: false,
            slot: None,
        });
        t.safe_ref_of(a_ty);
        // getfield with an UNSAFE ref operand must be rejected.
        let ctx = Vals(vec![(a_ty, None)]);
        let err = type_instr(
            &t,
            &ctx,
            &Instr::GetField {
                ty: a_ty,
                object: ValueId(0),
                field: FieldRef { class: a, index: 0 },
            },
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::PlaneMismatch { .. }));
        // getelt with a plain int as index must be rejected.
        t.safe_ref_of(arr);
        t.safe_index_of(arr);
        let sarr = t.find_safe_ref(arr).unwrap();
        let ctx = Vals(vec![(sarr, None), (int, None)]);
        let err = type_instr(
            &t,
            &ctx,
            &Instr::GetElt {
                arr_ty: arr,
                array: ValueId(0),
                index: ValueId(1),
            },
        )
        .unwrap_err();
        assert!(matches!(err, TypeError::PlaneMismatch { .. }));
    }
}
