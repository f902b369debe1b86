//! The SafeTSA type table and "register plane" universe.
//!
//! SafeTSA's *type separation* assigns every type its own register plane
//! (see §3 of the paper). The type table is the authoritative list of
//! planes for a module: primitive types, classes (local or imported),
//! array types, and the derived `safe-ref` / `safe-index` types that are
//! the cornerstone of the memory-safety construction (§4).
//!
//! Most entries in the table (primitives, imported host types) are
//! generated implicitly by the consumer and are therefore tamper-proof;
//! only locally declared classes travel with the mobile program.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Index of a type (= register plane) in a [`TypeTable`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeId(pub u32);

impl TypeId {
    /// Returns the raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a class declaration in a [`TypeTable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

impl ClassId {
    /// Returns the raw table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The built-in primitive types of the machine model.
///
/// Primitive *operations* are subordinate to these types (§5): the
/// instruction set has only the generic `primitive`/`xprimitive`
/// instructions, parameterized by a type and an operation defined on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PrimKind {
    /// `boolean`: result plane of comparisons, input of control flow.
    Bool,
    /// `char`: unsigned 16-bit code unit.
    Char,
    /// `int`: signed 32-bit integer.
    Int,
    /// `long`: signed 64-bit integer.
    Long,
    /// `float`: IEEE-754 binary32.
    Float,
    /// `double`: IEEE-754 binary64.
    Double,
}

impl PrimKind {
    /// All primitive kinds, in canonical (encoding) order.
    pub const ALL: [PrimKind; 6] = [
        PrimKind::Bool,
        PrimKind::Char,
        PrimKind::Int,
        PrimKind::Long,
        PrimKind::Float,
        PrimKind::Double,
    ];

    /// The Java-facing name of the type.
    pub fn name(self) -> &'static str {
        match self {
            PrimKind::Bool => "boolean",
            PrimKind::Char => "char",
            PrimKind::Int => "int",
            PrimKind::Long => "long",
            PrimKind::Float => "float",
            PrimKind::Double => "double",
        }
    }
}

impl fmt::Display for PrimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The structural kind of a type-table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TypeKind {
    /// A primitive type.
    Prim(PrimKind),
    /// A class reference type (the *unsafe* `ref` plane of §4).
    Class(ClassId),
    /// An array-of-`elem` reference type (unsafe plane).
    Array(TypeId),
    /// The null-checked companion plane of a class or array type (§4).
    SafeRef(TypeId),
    /// The bounds-checked index plane of an array type (§4, Appendix A).
    ///
    /// The payload is the *array type* whose plane this serves; the
    /// binding to a particular array *value* is carried per-value (see
    /// `safetsa_core::value`).
    SafeIndex(TypeId),
}

/// Dispatch kind of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodKind {
    /// Static method: invoked with `xcall`, no receiver.
    Static,
    /// Instance method subject to dynamic dispatch: `xdispatch`.
    Virtual,
    /// Constructor or other statically-bound instance method: `xcall`.
    Special,
}

/// A field declaration inside a class entry.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldInfo {
    /// Source-level name (symbolic linking information).
    pub name: String,
    /// Declared type of the field.
    pub ty: TypeId,
    /// Whether the field is static (accessed via `getstatic`/`setstatic`).
    pub is_static: bool,
    /// Slot of an instance field in a flattened instance, set by
    /// [`TypeTable::lay_out`]; static fields have none. Slots are never
    /// transmitted.
    pub slot: Option<u32>,
}

/// A method declaration inside a class entry.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodInfo {
    /// Source-level name (constructors use `<init>`).
    pub name: String,
    /// Parameter types, excluding the receiver.
    pub params: Vec<TypeId>,
    /// Result type; `None` for `void`.
    pub ret: Option<TypeId>,
    /// Dispatch kind.
    pub kind: MethodKind,
    /// Virtual-dispatch slot of a [`MethodKind::Virtual`] method, set by
    /// [`TypeTable::lay_out`]. Slots are never transmitted.
    pub vtable_slot: Option<u32>,
    /// Index of the function body in the module, if the method is local
    /// (imported/intrinsic methods have none).
    pub body: Option<u32>,
}

/// A class declaration (local or imported).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassInfo {
    /// Fully qualified source name.
    pub name: String,
    /// Superclass; `None` only for the root class `Object`.
    pub superclass: Option<ClassId>,
    /// Declared fields (not including inherited ones).
    pub fields: Vec<FieldInfo>,
    /// Declared methods (not including inherited ones).
    pub methods: Vec<MethodInfo>,
    /// `true` for host-environment classes that are generated implicitly
    /// by the consumer and never transmitted (tamper-proof by §4).
    pub imported: bool,
    /// Instance-field slots an instance needs, inherited ones included,
    /// set by [`TypeTable::lay_out`].
    pub instance_size: u32,
}

/// Symbolic reference to a field: `(declaring class, field index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// The class whose declaration list is indexed.
    pub class: ClassId,
    /// Index into that class's `fields`.
    pub index: u32,
}

/// Symbolic reference to a method: `(declaring class, method index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MethodRef {
    /// The class whose declaration list is indexed.
    pub class: ClassId,
    /// Index into that class's `methods`.
    pub index: u32,
}

/// The module-wide table of types (register planes) and classes.
///
/// Construction interns structurally: requesting the same array /
/// safe-ref / safe-index type twice yields the same [`TypeId`].
/// Interning goes through dense vectors indexed by [`PrimKind`],
/// [`ClassId`] and [`TypeId`], so a plane lookup is an array index.
///
/// Classes are shared: cloning a table bumps one reference count per
/// class, and [`TypeTable::class_mut`] copies a class only when another
/// table still shares it. A consumer therefore starts every module from
/// the host table without copying the host classes, and nothing it
/// writes reaches the host's copy.
///
/// # Examples
///
/// ```
/// use safetsa_core::types::{TypeTable, PrimKind};
///
/// let mut table = TypeTable::new();
/// let int = table.prim(PrimKind::Int);
/// let arr = table.array_of(int);
/// let safe = table.safe_ref_of(arr);
/// assert_eq!(table.array_of(int), arr);
/// assert!(table.is_safe_ref(safe));
/// ```
#[derive(Debug, Clone)]
pub struct TypeTable {
    kinds: Vec<TypeKind>,
    classes: Vec<Arc<ClassInfo>>,
    /// The plane of each primitive, by `PrimKind` discriminant.
    prim_ids: [TypeId; PrimKind::ALL.len()],
    /// The `ref` plane of each class, by `ClassId`.
    class_ids: Vec<TypeId>,
    /// The interned companions of each type, by `TypeId` (parallel to
    /// `kinds`).
    companions: Vec<Companions>,
}

/// The derived planes interned for one type.
#[derive(Debug, Clone, Copy, Default)]
struct Companions {
    array: Option<TypeId>,
    safe_ref: Option<TypeId>,
    safe_index: Option<TypeId>,
}

impl Default for TypeTable {
    fn default() -> Self {
        Self::new()
    }
}

impl TypeTable {
    /// Creates a table pre-populated with the six primitive planes.
    pub fn new() -> Self {
        let mut t = TypeTable {
            kinds: Vec::new(),
            classes: Vec::new(),
            prim_ids: [TypeId(0); PrimKind::ALL.len()],
            class_ids: Vec::new(),
            companions: Vec::new(),
        };
        for &p in &PrimKind::ALL {
            t.prim_ids[p as usize] = t.push(TypeKind::Prim(p));
        }
        t
    }

    fn push(&mut self, kind: TypeKind) -> TypeId {
        let id = TypeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.companions.push(Companions::default());
        id
    }

    /// Number of type entries (= number of register planes).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the table is empty (never true after [`TypeTable::new`]).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The kind of `ty`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` is not an entry of this table.
    pub fn kind(&self, ty: TypeId) -> TypeKind {
        self.kinds[ty.index()]
    }

    /// The kind of `ty`, or `None` if out of range (used by the decoder).
    pub fn kind_checked(&self, ty: TypeId) -> Option<TypeKind> {
        self.kinds.get(ty.index()).copied()
    }

    /// The plane of primitive `p`.
    pub fn prim(&self, p: PrimKind) -> TypeId {
        self.prim_ids[p as usize]
    }

    /// Shorthand for the `boolean` plane.
    pub fn bool_ty(&self) -> TypeId {
        self.prim(PrimKind::Bool)
    }

    /// Shorthand for the `int` plane.
    pub fn int_ty(&self) -> TypeId {
        self.prim(PrimKind::Int)
    }

    /// Declares a new class and returns `(class id, ref-type id)`.
    ///
    /// The unsafe `ref` plane is created eagerly; the `safe-ref` plane is
    /// interned on first use. `info` may be shared with other tables
    /// (an `Arc<ClassInfo>`); [`TypeTable::class_mut`] copies it on the
    /// first write.
    pub fn declare_class(&mut self, info: impl Into<Arc<ClassInfo>>) -> (ClassId, TypeId) {
        let cid = ClassId(self.classes.len() as u32);
        self.classes.push(info.into());
        let ty = self.push(TypeKind::Class(cid));
        self.class_ids.push(ty);
        (cid, ty)
    }

    /// The `ref` plane of class `c`.
    pub fn class_ty(&self, c: ClassId) -> TypeId {
        self.class_ids[c.index()]
    }

    /// The class metadata for `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not a class of this table.
    pub fn class(&self, c: ClassId) -> &ClassInfo {
        &self.classes[c.index()]
    }

    /// Mutable class metadata (used while the front-end is populating
    /// method bodies). Copies the class first if another table still
    /// shares it, so the write stays in this table.
    pub fn class_mut(&mut self, c: ClassId) -> &mut ClassInfo {
        Arc::make_mut(&mut self.classes[c.index()])
    }

    /// The class metadata for `c`, or `None` if out of range.
    pub fn class_checked(&self, c: ClassId) -> Option<&ClassInfo> {
        self.classes.get(c.index()).map(|c| &**c)
    }

    /// Number of declared classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Iterates over `(ClassId, &ClassInfo)` pairs.
    pub fn classes(&self) -> impl Iterator<Item = (ClassId, &ClassInfo)> {
        self.classes
            .iter()
            .enumerate()
            .map(|(i, c)| (ClassId(i as u32), &**c))
    }

    /// Interns the array type with element type `elem`.
    pub fn array_of(&mut self, elem: TypeId) -> TypeId {
        if let Some(id) = self.companions[elem.index()].array {
            return id;
        }
        let id = self.push(TypeKind::Array(elem));
        self.companions[elem.index()].array = Some(id);
        id
    }

    /// Interns the `safe-ref` companion of reference type `of`.
    ///
    /// # Panics
    ///
    /// Panics if `of` is not a class or array type.
    pub fn safe_ref_of(&mut self, of: TypeId) -> TypeId {
        assert!(
            matches!(self.kind(of), TypeKind::Class(_) | TypeKind::Array(_)),
            "safe-ref requires a reference type, got {:?}",
            self.kind(of)
        );
        if let Some(id) = self.companions[of.index()].safe_ref {
            return id;
        }
        let id = self.push(TypeKind::SafeRef(of));
        self.companions[of.index()].safe_ref = Some(id);
        id
    }

    /// Interns the `safe-index` companion plane of array type `arr`.
    ///
    /// # Panics
    ///
    /// Panics if `arr` is not an array type.
    pub fn safe_index_of(&mut self, arr: TypeId) -> TypeId {
        assert!(
            matches!(self.kind(arr), TypeKind::Array(_)),
            "safe-index requires an array type, got {:?}",
            self.kind(arr)
        );
        if let Some(id) = self.companions[arr.index()].safe_index {
            return id;
        }
        let id = self.push(TypeKind::SafeIndex(arr));
        self.companions[arr.index()].safe_index = Some(id);
        id
    }

    /// Looks up an already-interned safe-ref plane without creating it.
    pub fn find_safe_ref(&self, of: TypeId) -> Option<TypeId> {
        self.companions.get(of.index())?.safe_ref
    }

    /// Looks up an already-interned array plane without creating it.
    pub fn find_array(&self, elem: TypeId) -> Option<TypeId> {
        self.companions.get(elem.index())?.array
    }

    /// Looks up an already-interned safe-index plane without creating it.
    pub fn find_safe_index(&self, arr: TypeId) -> Option<TypeId> {
        self.companions.get(arr.index())?.safe_index
    }

    /// Whether `ty` is an (unsafe) reference plane — class or array.
    pub fn is_ref(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::Class(_) | TypeKind::Array(_))
    }

    /// Whether `ty` is a safe-ref plane.
    pub fn is_safe_ref(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::SafeRef(_))
    }

    /// Whether `ty` is a safe-index plane.
    pub fn is_safe_index(&self, ty: TypeId) -> bool {
        matches!(self.kind(ty), TypeKind::SafeIndex(_))
    }

    /// The unsafe reference type underlying a safe-ref plane.
    pub fn safe_ref_target(&self, ty: TypeId) -> Option<TypeId> {
        match self.kind(ty) {
            TypeKind::SafeRef(of) => Some(of),
            _ => None,
        }
    }

    /// The array type underlying a safe-index plane.
    pub fn safe_index_array(&self, ty: TypeId) -> Option<TypeId> {
        match self.kind(ty) {
            TypeKind::SafeIndex(arr) => Some(arr),
            _ => None,
        }
    }

    /// The element type of an array type.
    pub fn array_elem(&self, ty: TypeId) -> Option<TypeId> {
        match self.kind(ty) {
            TypeKind::Array(e) => Some(e),
            _ => None,
        }
    }

    /// Whether class `sub` equals `sup` or transitively extends it.
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }

    /// Whether reference type `sub` is assignable to reference type `sup`
    /// without a dynamic check (Java widening reference conversion over
    /// our subset: class subtyping; arrays are invariant but any array or
    /// class widens to the root class).
    pub fn is_ref_assignable(&self, sub: TypeId, sup: TypeId, root: ClassId) -> bool {
        if sub == sup {
            return true;
        }
        match (self.kind(sub), self.kind(sup)) {
            (TypeKind::Class(a), TypeKind::Class(b)) => self.is_subclass(a, b),
            (TypeKind::Array(_), TypeKind::Class(b)) => b == root,
            _ => false,
        }
    }

    /// Resolves a field reference, checking bounds.
    pub fn field(&self, r: FieldRef) -> Option<&FieldInfo> {
        self.class_checked(r.class)?.fields.get(r.index as usize)
    }

    /// Resolves a method reference, checking bounds.
    pub fn method(&self, r: MethodRef) -> Option<&MethodInfo> {
        self.class_checked(r.class)?.methods.get(r.index as usize)
    }

    /// Looks up a field by name along the superclass chain, returning the
    /// declaring-class reference.
    pub fn find_field(&self, class: ClassId, name: &str) -> Option<FieldRef> {
        let mut cur = Some(class);
        while let Some(c) = cur {
            let info = self.class(c);
            if let Some(i) = info.fields.iter().position(|f| f.name == name) {
                return Some(FieldRef {
                    class: c,
                    index: i as u32,
                });
            }
            cur = info.superclass;
        }
        None
    }

    /// Lays out every class. This is the one layout rule: the producer
    /// and the consumer both run it, so no slot travels and a tampered
    /// stream cannot set one. A virtual method shares the slot of the
    /// virtual declarations with its name, parameters and result before
    /// it, in its class or up the superclass chain, or else takes the
    /// next slot after its superclass's; other methods get none. A
    /// class's instance fields take the slots after its superclass's in
    /// declaration order, and its instance size counts them all; static
    /// fields get none.
    ///
    /// One depth-first walk over the class tree, without recursion,
    /// keeps the slot of each signature declared on the path from the
    /// root, so a class costs time linear in its own members however
    /// deep it sits. A value is written only when it changes, so a class
    /// shared with another table (a host class) that is already laid out
    /// is not copied.
    ///
    /// # Errors
    ///
    /// Returns a class whose superclass chain runs into a cycle, if any.
    ///
    /// # Panics
    ///
    /// Panics if a superclass is not a class of this table.
    pub fn lay_out(&mut self) -> Result<(), ClassId> {
        const NONE: u32 = u32::MAX;
        /// A class's place in the class tree.
        #[derive(Clone, Copy, Default)]
        struct Node {
            first_child: u32,
            next_sibling: u32,
            /// Where the class's methods start in `sigs`.
            sigs: u32,
            /// The class's dispatch-table size, once it is laid out.
            slots: u32,
            reached: bool,
            /// Whether the walk is inside the class's subtree.
            open: bool,
        }
        let n_methods = self.classes.iter().map(|c| c.methods.len()).sum();
        // Every method's signature number, class by class; `NONE` for a
        // method that is not virtual.
        let mut numbers = HashMap::with_capacity(n_methods);
        let mut sigs = Vec::with_capacity(n_methods);
        let leaf = Node {
            first_child: NONE,
            next_sibling: NONE,
            ..Node::default()
        };
        let mut nodes = vec![leaf; self.classes.len()];
        let mut roots = NONE;
        for (c, info) in self.classes.iter().enumerate() {
            nodes[c].sigs = sigs.len() as u32;
            for m in &info.methods {
                let fresh = numbers.len() as u32;
                sigs.push(match m.kind {
                    MethodKind::Virtual => *numbers
                        .entry((m.name.as_str(), m.params.as_slice(), m.ret))
                        .or_insert(fresh),
                    _ => NONE,
                });
            }
            let head = match info.superclass {
                Some(s) => &mut nodes[s.index()].first_child,
                None => &mut roots,
            };
            nodes[c].next_sibling = std::mem::replace(head, c as u32);
        }
        // Each signature's slot and the class that added it: the slot
        // holds while the walk is inside that class's subtree.
        let mut slot_of = vec![(0, NONE); numbers.len()];
        // Depth first; the superclass links lead back up.
        let mut next = roots;
        while next != NONE {
            let c = ClassId(next);
            nodes[c.index()].reached = true;
            nodes[c.index()].open = true;
            let parent = self.class(c).superclass;
            let mut slots = parent.map_or(0, |p| nodes[p.index()].slots);
            let mut size = parent.map_or(0, |p| self.class(p).instance_size);
            let first = nodes[c.index()].sigs as usize;
            for mi in 0..self.class(c).methods.len() {
                let sig = sigs[first + mi];
                let slot = (sig != NONE).then(|| {
                    let (slot, by) = &mut slot_of[sig as usize];
                    if !nodes.get(*by as usize).is_some_and(|n| n.open) {
                        (*slot, *by) = (slots, c.0);
                        slots += 1;
                    }
                    *slot
                });
                if self.class(c).methods[mi].vtable_slot != slot {
                    self.class_mut(c).methods[mi].vtable_slot = slot;
                }
            }
            for fi in 0..self.class(c).fields.len() {
                let slot = (!self.class(c).fields[fi].is_static).then(|| {
                    size += 1;
                    size - 1
                });
                if self.class(c).fields[fi].slot != slot {
                    self.class_mut(c).fields[fi].slot = slot;
                }
            }
            if self.class(c).instance_size != size {
                self.class_mut(c).instance_size = size;
            }
            nodes[c.index()].slots = slots;
            next = nodes[c.index()].first_child;
            // Leave each class whose subtree is done until one has a next
            // sibling.
            let mut done = c;
            while next == NONE {
                nodes[done.index()].open = false;
                next = nodes[done.index()].next_sibling;
                match self.class(done).superclass {
                    Some(p) if next == NONE => done = p,
                    _ => break,
                }
            }
        }
        // A class the walk did not reach never reaches a root.
        match nodes.iter().position(|n| !n.reached) {
            Some(c) => Err(ClassId(c as u32)),
            None => Ok(()),
        }
    }

    /// The method that virtual dispatch on an instance of `class` calls
    /// for `slot`: the last method declared in that slot by the nearest
    /// class up the chain from `class`, or `None` if none declares one.
    /// Classes must be laid out ([`TypeTable::lay_out`]).
    pub fn dispatch(&self, class: ClassId, slot: u32) -> Option<MethodRef> {
        let mut c = class;
        loop {
            let info = self.class_checked(c)?;
            if let Some(i) = info
                .methods
                .iter()
                .rposition(|m| m.vtable_slot == Some(slot))
            {
                return Some(MethodRef {
                    class: c,
                    index: i as u32,
                });
            }
            c = info.superclass?;
        }
    }

    /// A human-readable name for a type (used by the pretty printers).
    pub fn type_name(&self, ty: TypeId) -> String {
        match self.kind(ty) {
            TypeKind::Prim(p) => p.name().to_string(),
            TypeKind::Class(c) => self.class(c).name.clone(),
            TypeKind::Array(e) => format!("{}[]", self.type_name(e)),
            TypeKind::SafeRef(of) => format!("safe-{}", self.type_name(of)),
            TypeKind::SafeIndex(arr) => format!("safe-index-{}", self.type_name(arr)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn object_class(t: &mut TypeTable) -> (ClassId, TypeId) {
        t.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        })
    }

    #[test]
    fn primitives_preinterned() {
        let t = TypeTable::new();
        assert_eq!(t.len(), 6);
        for &p in &PrimKind::ALL {
            assert_eq!(t.kind(t.prim(p)), TypeKind::Prim(p));
        }
    }

    #[test]
    fn array_interning_is_idempotent() {
        let mut t = TypeTable::new();
        let int = t.prim(PrimKind::Int);
        let a1 = t.array_of(int);
        let a2 = t.array_of(int);
        assert_eq!(a1, a2);
        assert_eq!(t.array_elem(a1), Some(int));
    }

    #[test]
    fn nested_arrays_are_distinct() {
        let mut t = TypeTable::new();
        let int = t.prim(PrimKind::Int);
        let a = t.array_of(int);
        let aa = t.array_of(a);
        assert_ne!(a, aa);
        assert_eq!(t.array_elem(aa), Some(a));
    }

    #[test]
    fn safe_ref_round_trip() {
        let mut t = TypeTable::new();
        let (_, obj_ty) = object_class(&mut t);
        let s = t.safe_ref_of(obj_ty);
        assert!(t.is_safe_ref(s));
        assert_eq!(t.safe_ref_target(s), Some(obj_ty));
        assert_eq!(t.find_safe_ref(obj_ty), Some(s));
    }

    #[test]
    fn safe_index_round_trip() {
        let mut t = TypeTable::new();
        let int = t.prim(PrimKind::Int);
        let arr = t.array_of(int);
        let si = t.safe_index_of(arr);
        assert!(t.is_safe_index(si));
        assert_eq!(t.safe_index_array(si), Some(arr));
    }

    #[test]
    #[should_panic(expected = "safe-ref requires a reference type")]
    fn safe_ref_of_prim_panics() {
        let mut t = TypeTable::new();
        let int = t.prim(PrimKind::Int);
        t.safe_ref_of(int);
    }

    #[test]
    fn subclass_chain() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let (a, _) = t.declare_class(ClassInfo {
            name: "A".into(),
            superclass: Some(obj),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let (b, _) = t.declare_class(ClassInfo {
            name: "B".into(),
            superclass: Some(a),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        assert!(t.is_subclass(b, obj));
        assert!(t.is_subclass(b, a));
        assert!(t.is_subclass(a, obj));
        assert!(!t.is_subclass(a, b));
    }

    #[test]
    fn field_lookup_follows_superclass() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let int = t.prim(PrimKind::Int);
        let (a, _) = t.declare_class(ClassInfo {
            name: "A".into(),
            superclass: Some(obj),
            fields: vec![FieldInfo {
                name: "x".into(),
                ty: int,
                is_static: false,
                slot: None,
            }],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let (b, _) = t.declare_class(ClassInfo {
            name: "B".into(),
            superclass: Some(a),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let r = t.find_field(b, "x").expect("field found");
        assert_eq!(r.class, a);
        assert_eq!(t.field(r).unwrap().name, "x");
        assert!(t.find_field(b, "y").is_none());
    }

    #[test]
    fn ref_assignability() {
        let mut t = TypeTable::new();
        let (obj, obj_ty) = object_class(&mut t);
        let (a, a_ty) = t.declare_class(ClassInfo {
            name: "A".into(),
            superclass: Some(obj),
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let _ = a;
        let int = t.prim(PrimKind::Int);
        let arr = t.array_of(int);
        assert!(t.is_ref_assignable(a_ty, obj_ty, obj));
        assert!(!t.is_ref_assignable(obj_ty, a_ty, obj));
        assert!(t.is_ref_assignable(arr, obj_ty, obj));
        assert!(!t.is_ref_assignable(obj_ty, arr, obj));
    }

    #[test]
    fn class_mut_on_a_clone_leaves_the_original_unchanged() {
        let mut host = TypeTable::new();
        let (obj, _) = object_class(&mut host);
        let int = host.int_ty();
        host.class_mut(obj).methods.push(MethodInfo {
            name: "hashCode".into(),
            params: vec![],
            ret: Some(int),
            kind: MethodKind::Virtual,
            vtable_slot: Some(0),
            body: None,
        });
        let before = host.class(obj).clone();
        let mut module = host.clone();
        module.class_mut(obj).methods[0].vtable_slot = Some(7);
        module.class_mut(obj).name = "Changed".into();
        assert_eq!(host.class(obj), &before);
        assert_eq!(module.class(obj).methods[0].vtable_slot, Some(7));
        // Planes interned by the clone stay out of the original too.
        let arr = module.array_of(int);
        assert_eq!(host.find_array(int), None);
        assert_eq!(module.find_array(int), Some(arr));
    }

    fn virtual_method(name: &str, params: Vec<TypeId>, ret: Option<TypeId>) -> MethodInfo {
        MethodInfo {
            name: name.into(),
            params,
            ret,
            kind: MethodKind::Virtual,
            vtable_slot: None,
            body: None,
        }
    }

    fn subclass(
        t: &mut TypeTable,
        name: &str,
        superclass: ClassId,
        methods: Vec<MethodInfo>,
    ) -> ClassId {
        t.declare_class(ClassInfo {
            name: name.into(),
            superclass: Some(superclass),
            fields: vec![],
            methods,
            imported: false,
            instance_size: 0,
        })
        .0
    }

    fn slots(t: &TypeTable, c: ClassId) -> Vec<Option<u32>> {
        t.class(c).methods.iter().map(|m| m.vtable_slot).collect()
    }

    fn method(class: ClassId, index: u32) -> Option<MethodRef> {
        Some(MethodRef { class, index })
    }

    #[test]
    fn an_override_shares_its_superclass_slot_and_a_new_method_takes_the_next() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let (int, long) = (t.int_ty(), t.prim(PrimKind::Long));
        let f = || virtual_method("f", vec![], Some(int));
        let g = || virtual_method("g", vec![], Some(int));
        let a = subclass(&mut t, "A", obj, vec![f(), g()]);
        let mut helper = virtual_method("s", vec![], None);
        helper.kind = MethodKind::Static;
        helper.vtable_slot = Some(9);
        let b = subclass(
            &mut t,
            "B",
            a,
            vec![
                g(),
                virtual_method("h", vec![], None),
                helper,
                // Another parameter list or result is another method.
                virtual_method("g", vec![int], Some(int)),
                virtual_method("g", vec![], Some(long)),
            ],
        );
        t.lay_out().expect("the hierarchy is acyclic");
        assert_eq!(slots(&t, a), [Some(0), Some(1)]);
        assert_eq!(slots(&t, b), [Some(1), Some(2), None, Some(3), Some(4)]);
        assert_eq!(t.dispatch(b, 0), method(a, 0));
        assert_eq!(t.dispatch(b, 1), method(b, 0));
        assert_eq!(t.dispatch(a, 1), method(a, 1));
        assert_eq!(t.dispatch(a, 2), None);
        assert_eq!(t.dispatch(b, 5), None);
    }

    #[test]
    fn one_signature_declared_twice_in_a_class_shares_a_slot_and_the_later_wins() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let int = t.int_ty();
        let f = || virtual_method("f", vec![int], Some(int));
        let a = subclass(
            &mut t,
            "A",
            obj,
            vec![f(), virtual_method("g", vec![], None), f()],
        );
        let b = subclass(&mut t, "B", a, vec![]);
        t.lay_out().expect("the hierarchy is acyclic");
        assert_eq!(slots(&t, a), [Some(0), Some(1), Some(0)]);
        assert_eq!(t.dispatch(a, 0), method(a, 2));
        assert_eq!(t.dispatch(b, 0), method(a, 2));
    }

    #[test]
    fn the_nearest_override_along_a_chain_wins() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let f = || virtual_method("f", vec![], None);
        let g = || virtual_method("g", vec![], None);
        // Declared child first, so the walk must place parents first.
        let (d, _) = t.declare_class(ClassInfo {
            name: "D".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
        let a = subclass(&mut t, "A", obj, vec![f(), g()]);
        let b = subclass(&mut t, "B", a, vec![g()]);
        let c = subclass(&mut t, "C", b, vec![f()]);
        t.class_mut(d).superclass = Some(c);
        t.lay_out().expect("the hierarchy is acyclic");
        assert_eq!(slots(&t, c), [Some(0)]);
        assert_eq!(t.dispatch(d, 0), method(c, 0));
        assert_eq!(t.dispatch(d, 1), method(b, 0));
        assert_eq!(t.dispatch(b, 0), method(a, 0));
        assert_eq!(t.dispatch(a, 1), method(a, 1));
    }

    #[test]
    fn a_superclass_cycle_is_an_error() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let a = subclass(&mut t, "A", obj, vec![]);
        let b = subclass(&mut t, "B", a, vec![]);
        t.class_mut(a).superclass = Some(b);
        let on_cycle = t.lay_out().expect_err("A and B extend each other");
        assert!(on_cycle == a || on_cycle == b, "{on_cycle:?}");
        t.class_mut(a).superclass = Some(a);
        t.class_mut(b).superclass = Some(obj);
        assert_eq!(t.lay_out(), Err(a));
    }

    #[test]
    fn a_sibling_subtree_does_not_lend_its_slots() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let m = |name| virtual_method(name, vec![], None);
        let a = subclass(&mut t, "A", obj, vec![m("f")]);
        let b = subclass(&mut t, "B", a, vec![m("g"), m("h")]);
        let c = subclass(&mut t, "C", a, vec![m("h")]);
        let d = subclass(&mut t, "D", c, vec![m("g"), m("h")]);
        let e = subclass(&mut t, "E", b, vec![m("h"), m("f")]);
        t.lay_out().expect("the hierarchy is acyclic");
        assert_eq!(slots(&t, b), [Some(1), Some(2)]);
        assert_eq!(slots(&t, c), [Some(1)]);
        assert_eq!(slots(&t, d), [Some(2), Some(1)]);
        assert_eq!(slots(&t, e), [Some(2), Some(0)]);
        assert_eq!(t.dispatch(d, 2), method(d, 0));
        assert_eq!(t.dispatch(b, 2), method(b, 1));
    }

    fn field(name: &str, ty: TypeId, is_static: bool) -> FieldInfo {
        FieldInfo {
            name: name.into(),
            ty,
            is_static,
            slot: None,
        }
    }

    fn field_slots(t: &TypeTable, c: ClassId) -> (Vec<Option<u32>>, u32) {
        let info = t.class(c);
        let slots = info.fields.iter().map(|f| f.slot).collect();
        (slots, info.instance_size)
    }

    #[test]
    fn instance_fields_follow_the_superclass_s_and_statics_get_no_slot() {
        let mut t = TypeTable::new();
        let (obj, _) = object_class(&mut t);
        let int = t.int_ty();
        // Declared child first, so the walk must place parents first.
        let c = subclass(&mut t, "C", obj, vec![]);
        let a = subclass(&mut t, "A", obj, vec![]);
        let b = subclass(&mut t, "B", a, vec![]);
        let s = subclass(&mut t, "S", a, vec![]);
        t.class_mut(a).fields = vec![field("x", int, false), field("k", int, true)];
        t.class_mut(a).fields.push(field("y", int, false));
        t.class_mut(b).fields = vec![field("k", int, true), field("x", int, false)];
        t.class_mut(c).superclass = Some(b);
        t.class_mut(c).fields = vec![field("z", int, false)];
        t.class_mut(s).fields = vec![field("w", int, false)];
        t.lay_out().expect("the hierarchy is acyclic");
        assert_eq!(field_slots(&t, obj), (vec![], 0));
        assert_eq!(field_slots(&t, a), (vec![Some(0), None, Some(1)], 2));
        // A field that hides an inherited one of the same name gets a
        // slot of its own.
        assert_eq!(field_slots(&t, b), (vec![None, Some(2)], 3));
        assert_eq!(field_slots(&t, c), (vec![Some(3)], 4));
        // A sibling starts after the common superclass, not after B.
        assert_eq!(field_slots(&t, s), (vec![Some(2)], 3));
    }

    #[test]
    fn assigning_slots_does_not_copy_a_shared_host_class() {
        let mut host = TypeTable::new();
        let (obj, _) = object_class(&mut host);
        let int = host.int_ty();
        let f = || virtual_method("f", vec![], Some(int));
        let base = subclass(&mut host, "Base", obj, vec![f()]);
        host.class_mut(base).imported = true;
        host.class_mut(base).fields = vec![field("x", int, false)];
        host.lay_out().expect("the host is acyclic");
        let mut module = host.clone();
        let sub = subclass(&mut module, "Sub", base, vec![f()]);
        module.class_mut(sub).fields = vec![field("y", int, false)];
        module.lay_out().expect("the module is acyclic");
        assert_eq!(slots(&module, sub), [Some(0)]);
        assert_eq!(field_slots(&module, sub), (vec![Some(1)], 2));
        assert!(std::ptr::eq(module.class(base), host.class(base)));
        assert!(std::ptr::eq(module.class(obj), host.class(obj)));
    }

    #[test]
    fn type_names() {
        let mut t = TypeTable::new();
        let int = t.prim(PrimKind::Int);
        let arr = t.array_of(int);
        let sr = t.safe_ref_of(arr);
        let si = t.safe_index_of(arr);
        assert_eq!(t.type_name(arr), "int[]");
        assert_eq!(t.type_name(sr), "safe-int[]");
        assert_eq!(t.type_name(si), "safe-index-int[]");
    }
}
