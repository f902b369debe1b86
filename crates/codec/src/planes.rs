//! Plane computation shared by encoder and decoder: given an
//! instruction's opcode and type/member fields (operands not needed),
//! the planes of its operands — in [`Instr::operands`] order — and of
//! its result are fully determined. This is the "implicit register
//! plane selection" of §3, factored out so both sides of the wire agree
//! byte-for-byte.

use crate::bits::DecodeError;
use safetsa_core::instr::{Instr, Operands};
use safetsa_core::primops;
use safetsa_core::types::{MethodRef, TypeId, TypeKind, TypeTable};

fn safe_ref(types: &mut TypeTable, ty: TypeId) -> Result<TypeId, DecodeError> {
    if !types.is_ref(ty) {
        return Err(DecodeError::Malformed("safe-ref of non-reference".into()));
    }
    Ok(types.safe_ref_of(ty))
}

/// Operand planes of a call: the receiver's, if it has one, then the
/// method's parameters.
fn call_planes(
    types: &mut TypeTable,
    base_ty: TypeId,
    method: MethodRef,
    receiver: bool,
) -> Result<Operands<TypeId>, DecodeError> {
    let bad_method = || DecodeError::Malformed("bad method".into());
    // A bad method is reported before a bad receiver plane.
    types.method(method).ok_or_else(bad_method)?;
    let mut planes = Operands::new();
    if receiver {
        planes.push(safe_ref(types, base_ty)?);
    }
    let params = &types.method(method).ok_or_else(bad_method)?.params;
    planes.extend(params.iter().copied());
    Ok(planes)
}

/// Operand planes of `instr`, in [`Instr::operands`] order.
///
/// # Errors
///
/// Rejects ill-kinded field combinations (bad member refs, primitives
/// where references are required, …).
pub fn operand_planes(
    types: &mut TypeTable,
    instr: &Instr,
) -> Result<Operands<TypeId>, DecodeError> {
    Ok(match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let kind = match types.kind(*ty) {
                TypeKind::Prim(p) => p,
                _ => return Err(DecodeError::Malformed("primitive on non-prim".into())),
            };
            let desc = primops::resolve(kind, *op)
                .ok_or_else(|| DecodeError::Malformed("bad op".into()))?;
            desc.params.iter().map(|p| types.prim(*p)).collect()
        }
        Instr::NullCheck { ty, .. } => [*ty].into(),
        Instr::IndexCheck { arr_ty, .. } => [safe_ref(types, *arr_ty)?, types.int_ty()].into(),
        Instr::Upcast { from, .. } | Instr::Downcast { from, .. } => [*from].into(),
        Instr::GetField { ty, .. } => [safe_ref(types, *ty)?].into(),
        Instr::SetField { ty, field, .. } => {
            let fty = types
                .field(*field)
                .ok_or_else(|| DecodeError::Malformed("bad field".into()))?
                .ty;
            [safe_ref(types, *ty)?, fty].into()
        }
        Instr::GetStatic { .. } | Instr::New { .. } | Instr::Catch { .. } => Operands::new(),
        Instr::SetStatic { field, .. } => {
            let fty = types
                .field(*field)
                .ok_or_else(|| DecodeError::Malformed("bad field".into()))?
                .ty;
            [fty].into()
        }
        Instr::GetElt { arr_ty, .. } => {
            if !matches!(types.kind(*arr_ty), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("getelt on non-array".into()));
            }
            [safe_ref(types, *arr_ty)?, types.safe_index_of(*arr_ty)].into()
        }
        Instr::SetElt { arr_ty, .. } => {
            let elem = match types.kind(*arr_ty) {
                TypeKind::Array(e) => e,
                _ => return Err(DecodeError::Malformed("setelt on non-array".into())),
            };
            [
                safe_ref(types, *arr_ty)?,
                types.safe_index_of(*arr_ty),
                elem,
            ]
            .into()
        }
        Instr::ArrayLength { arr_ty, .. } => [safe_ref(types, *arr_ty)?].into(),
        Instr::NewArray { .. } => [types.int_ty()].into(),
        Instr::XCall {
            base_ty,
            method,
            receiver,
            ..
        } => call_planes(types, *base_ty, *method, receiver.is_some())?,
        Instr::XDispatch {
            base_ty, method, ..
        } => call_planes(types, *base_ty, *method, true)?,
        Instr::RefEq { ty, .. } => [*ty, *ty].into(),
        Instr::InstanceOf { from, .. } => [*from].into(),
    })
}

/// Result plane of `instr`, independent of operands.
///
/// # Errors
///
/// Rejects ill-kinded field combinations.
pub fn result_plane(types: &mut TypeTable, instr: &Instr) -> Result<Option<TypeId>, DecodeError> {
    Ok(match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let kind = match types.kind(*ty) {
                TypeKind::Prim(p) => p,
                _ => return Err(DecodeError::Malformed("primitive on non-prim".into())),
            };
            let desc = primops::resolve(kind, *op)
                .ok_or_else(|| DecodeError::Malformed("bad op".into()))?;
            Some(types.prim(desc.result))
        }
        Instr::NullCheck { ty, .. } => Some(safe_ref(types, *ty)?),
        Instr::IndexCheck { arr_ty, .. } => {
            if !matches!(types.kind(*arr_ty), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("indexcheck on non-array".into()));
            }
            Some(types.safe_index_of(*arr_ty))
        }
        Instr::Upcast { to, .. } | Instr::Downcast { to, .. } => Some(*to),
        Instr::GetField { field, .. } | Instr::GetStatic { field } => Some(
            types
                .field(*field)
                .ok_or_else(|| DecodeError::Malformed("bad field".into()))?
                .ty,
        ),
        Instr::SetField { .. } | Instr::SetStatic { .. } | Instr::SetElt { .. } => None,
        Instr::GetElt { arr_ty, .. } => match types.kind(*arr_ty) {
            TypeKind::Array(e) => Some(e),
            _ => return Err(DecodeError::Malformed("getelt on non-array".into())),
        },
        Instr::ArrayLength { .. } => Some(types.int_ty()),
        Instr::New { class_ty } => Some(safe_ref(types, *class_ty)?),
        Instr::NewArray { arr_ty, .. } => Some(safe_ref(types, *arr_ty)?),
        Instr::XCall { method, .. } | Instr::XDispatch { method, .. } => {
            types
                .method(*method)
                .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                .ret
        }
        Instr::RefEq { .. } | Instr::InstanceOf { .. } => Some(types.bool_ty()),
        Instr::Catch { ty } => {
            if !matches!(types.kind(*ty), TypeKind::Class(_)) {
                return Err(DecodeError::Malformed("catch of non-class".into()));
            }
            Some(*ty)
        }
    })
}
