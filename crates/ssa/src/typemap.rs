//! Mapping from the front-end's semantic types to the SafeTSA type
//! table (register planes).
//!
//! HIR class indices map 1:1 onto core [`ClassId`]s, and field/method
//! indices are preserved, so symbolic member references can be built
//! without lookup tables.

use safetsa_core::types::{
    ClassId, ClassInfo, FieldInfo, MethodInfo, MethodKind as CoreMethodKind, TypeId, TypeTable,
};
use safetsa_frontend::builtins;
use safetsa_frontend::hir::{self, MethodKind, PrimTy, Program, Ty};
use std::sync::{Arc, OnceLock};

/// The realized mapping.
#[derive(Debug)]
pub struct TypeMap {
    /// `ref` plane per HIR class index.
    pub class_ty: Vec<TypeId>,
}

impl TypeMap {
    /// The core class id for a HIR class index.
    pub fn class_id(&self, idx: hir::ClassIdx) -> ClassId {
        ClassId(idx as u32)
    }

    /// Maps a semantic type to its plane. `Ty::Null` and `Ty::Void` have
    /// no plane and panic (the lowering handles them contextually).
    pub fn ty(&self, types: &mut TypeTable, t: &Ty) -> TypeId {
        match t {
            Ty::Prim(p) => types.prim(prim(*p)),
            Ty::Ref(c) => self.class_ty[*c],
            Ty::Array(e) => {
                let inner = self.ty(types, e);
                types.array_of(inner)
            }
            Ty::Null => panic!("null has no plane; coerce to a reference type first"),
            Ty::Void => panic!("void has no plane"),
        }
    }

    /// Optional mapping for return types (`Void` → `None`).
    pub fn ret_ty(&self, types: &mut TypeTable, t: &Ty) -> Option<TypeId> {
        match t {
            Ty::Void => None,
            other => Some(self.ty(types, other)),
        }
    }
}

/// Maps a HIR primitive to the machine-model primitive.
pub fn prim(p: PrimTy) -> safetsa_core::types::PrimKind {
    use safetsa_core::types::PrimKind as K;
    match p {
        PrimTy::Bool => K::Bool,
        PrimTy::Char => K::Char,
        PrimTy::Int => K::Int,
        PrimTy::Long => K::Long,
        PrimTy::Float => K::Float,
        PrimTy::Double => K::Double,
    }
}

/// The core metadata of the builtin classes, built once per process.
/// Builtins come first in every program and their members reference
/// only primitive planes and builtin classes, so their metadata is the
/// same in every type table and every table shares it.
struct Host {
    /// The builtin classes this metadata describes.
    classes: Vec<Arc<hir::Class>>,
    /// Their core metadata, in the same order.
    infos: Vec<Arc<ClassInfo>>,
}

fn host() -> &'static Host {
    static HOST: OnceLock<Host> = OnceLock::new();
    HOST.get_or_init(|| {
        let prog = builtins::standard();
        let mut types = TypeTable::new();
        let map = declare(&mut types, &prog, &[]);
        let planes = types.len();
        for (idx, c) in prog.classes.iter().enumerate() {
            let info = class_info(&mut types, &map, c);
            *types.class_mut(map.class_id(idx)) = info;
        }
        // A plane interned here would get another id in a table with
        // user classes, so shared metadata must not name one.
        assert_eq!(
            types.len(),
            planes,
            "builtin members reference only primitive and builtin planes"
        );
        types.lay_out().expect("the builtin hierarchy is acyclic");
        Host {
            infos: types.classes().map(|(_, c)| Arc::new(c.clone())).collect(),
            classes: prog.classes,
        }
    })
}

/// Declares every class of `prog`: a class whose metadata `shared`
/// holds gets that, every other class an empty record that
/// [`class_info`] replaces.
fn declare(types: &mut TypeTable, prog: &Program, shared: &[Arc<ClassInfo>]) -> TypeMap {
    let class_ty = (0..prog.classes.len())
        .map(|idx| match shared.get(idx) {
            Some(info) => types.declare_class(Arc::clone(info)).1,
            None => {
                types
                    .declare_class(ClassInfo {
                        name: String::new(),
                        superclass: None,
                        fields: vec![],
                        methods: vec![],
                        imported: false,
                        instance_size: 0,
                    })
                    .1
            }
        })
        .collect();
    TypeMap { class_ty }
}

/// The core metadata of class `c`.
fn class_info(types: &mut TypeTable, map: &TypeMap, c: &hir::Class) -> ClassInfo {
    let fields = c
        .fields
        .iter()
        .map(|f| FieldInfo {
            name: f.name.clone(),
            ty: map.ty(types, &f.ty),
            is_static: f.is_static,
            slot: None,
        })
        .collect();
    let methods = c
        .methods
        .iter()
        .map(|m| MethodInfo {
            name: m.name.clone(),
            params: m.params.iter().map(|p| map.ty(types, p)).collect(),
            ret: map.ret_ty(types, &m.ret),
            kind: match m.kind {
                MethodKind::Static => CoreMethodKind::Static,
                MethodKind::Virtual => CoreMethodKind::Virtual,
                MethodKind::Special => CoreMethodKind::Special,
            },
            vtable_slot: None,
            body: None,
        })
        .collect();
    ClassInfo {
        name: c.name.clone(),
        superclass: c.superclass.map(|s| map.class_id(s)),
        fields,
        methods,
        imported: c.is_builtin,
        instance_size: 0,
    }
}

/// Builds the type table for `prog` (classes only; function bodies are
/// attached by the lowering driver), every class laid out. The
/// builtin classes share their metadata with every other table of the
/// process.
pub fn build(prog: &Program) -> (TypeTable, TypeMap) {
    let mut types = TypeTable::new();
    // The leading classes that are the process's builtins.
    let host = host();
    let shared = host
        .classes
        .iter()
        .zip(&prog.classes)
        .take_while(|(h, c)| Arc::ptr_eq(h, c))
        .count();
    // Pre-declare every class so forward superclass references resolve.
    let map = declare(&mut types, prog, &host.infos[..shared]);
    // Fill superclasses and members.
    for (idx, c) in prog.classes.iter().enumerate().skip(shared) {
        let info = class_info(&mut types, &map, c);
        *types.class_mut(map.class_id(idx)) = info;
    }
    // The shared builtins are already laid out, so they stay shared.
    types
        .lay_out()
        .expect("the front end rejects superclass cycles");
    // Every class gets a safe-ref plane eagerly: receivers live there.
    for idx in 0..prog.classes.len() {
        let ty = map.class_ty[idx];
        types.safe_ref_of(ty);
    }
    (types, map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetsa_frontend::compile;

    #[test]
    fn classes_map_one_to_one() {
        let prog = compile("class A { int x; } class B extends A { }").unwrap();
        let (types, map) = build(&prog);
        let a = prog.find_class("A").unwrap();
        let b = prog.find_class("B").unwrap();
        assert_eq!(types.class(map.class_id(a)).name, "A");
        assert_eq!(types.class(map.class_id(b)).name, "B");
        assert_eq!(
            types.class(map.class_id(b)).superclass,
            Some(map.class_id(a))
        );
        assert_eq!(types.class(map.class_id(a)).fields[0].name, "x");
        assert!(types.is_subclass(map.class_id(b), map.class_id(prog.object)));
    }

    #[test]
    fn array_types_intern() {
        let prog = compile("class A { int[][] m; }").unwrap();
        let (mut types, map) = build(&prog);
        let t1 = map.ty(
            &mut types,
            &Ty::Array(Box::new(Ty::Array(Box::new(Ty::INT)))),
        );
        let a = prog.find_class("A").unwrap();
        let field_ty = types.class(map.class_id(a)).fields[0].ty;
        assert_eq!(t1, field_ty);
    }

    #[test]
    fn builtins_marked_imported() {
        let prog = compile("class A { }").unwrap();
        let (types, map) = build(&prog);
        assert!(types.class(map.class_id(prog.object)).imported);
        let a = prog.find_class("A").unwrap();
        assert!(!types.class(map.class_id(a)).imported);
    }
}
