//! The shared heap: class instances, typed arrays, and strings.

use crate::value::Value;
use crate::Trap;
use std::rc::Rc;

/// A heap handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HeapRef(pub u32);

/// Element storage of an array (typed, as a real VM would lay out).
#[derive(Debug, Clone, PartialEq)]
pub enum ArrData {
    /// `boolean[]`.
    Z(Vec<bool>),
    /// `char[]`.
    C(Vec<u16>),
    /// `int[]`.
    I(Vec<i32>),
    /// `long[]`.
    J(Vec<i64>),
    /// `float[]`.
    F(Vec<f32>),
    /// `double[]`.
    D(Vec<f64>),
    /// Reference arrays (classes, strings, nested arrays).
    R(Vec<Option<HeapRef>>),
}

impl ArrData {
    /// The per-element storage width in bytes of this array's kind.
    pub fn elem_width(&self) -> u64 {
        match self {
            ArrData::Z(_) => 1,
            ArrData::C(_) => 2,
            ArrData::I(_) | ArrData::F(_) => 4,
            ArrData::J(_) | ArrData::D(_) | ArrData::R(_) => 8,
        }
    }

    /// Number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ArrData::Z(v) => v.len(),
            ArrData::C(v) => v.len(),
            ArrData::I(v) => v.len(),
            ArrData::J(v) => v.len(),
            ArrData::F(v) => v.len(),
            ArrData::D(v) => v.len(),
            ArrData::R(v) => v.len(),
        }
    }

    /// Whether the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `i`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::IndexOutOfBounds`] when out of range.
    #[inline]
    pub fn get(&self, i: usize) -> Result<Value, Trap> {
        if i >= self.len() {
            return Err(Trap::IndexOutOfBounds);
        }
        Ok(match self {
            ArrData::Z(v) => Value::Z(v[i]),
            ArrData::C(v) => Value::C(v[i]),
            ArrData::I(v) => Value::I(v[i]),
            ArrData::J(v) => Value::J(v[i]),
            ArrData::F(v) => Value::F(v[i]),
            ArrData::D(v) => Value::D(v[i]),
            ArrData::R(v) => Value::Ref(v[i]),
        })
    }

    /// Writes element `i`.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::IndexOutOfBounds`] when out of range, or
    /// [`Trap::Internal`] on a kind mismatch (verified code never does).
    #[inline]
    pub fn set(&mut self, i: usize, v: Value) -> Result<(), Trap> {
        if i >= self.len() {
            return Err(Trap::IndexOutOfBounds);
        }
        match (self, v) {
            (ArrData::Z(a), Value::Z(x)) => a[i] = x,
            (ArrData::C(a), Value::C(x)) => a[i] = x,
            (ArrData::I(a), Value::I(x)) => a[i] = x,
            (ArrData::J(a), Value::J(x)) => a[i] = x,
            (ArrData::F(a), Value::F(x)) => a[i] = x,
            (ArrData::D(a), Value::D(x)) => a[i] = x,
            (ArrData::R(a), Value::Ref(x)) => a[i] = x,
            _ => return Err(Trap::Internal("array element kind mismatch".into())),
        }
        Ok(())
    }
}

/// One heap object.
#[derive(Debug, Clone, PartialEq)]
pub enum Obj {
    /// A class instance with flattened fields (superclass fields first).
    Instance {
        /// Class index (engine-specific class table).
        class: usize,
        /// Flattened instance fields.
        fields: Vec<Value>,
        /// Message slot of throwables (hidden host field).
        msg: Option<HeapRef>,
    },
    /// An array. `elem_class` distinguishes reference element types for
    /// `instanceof`/checked casts on arrays (unused for primitives).
    Array {
        /// A compact type tag assigned by the engine (opaque to rt).
        type_tag: u64,
        /// Elements.
        data: ArrData,
    },
    /// An immutable string.
    Str(Rc<str>),
}

/// Fixed per-object byte overhead of the size model (a stand-in for a
/// real VM's object header).
pub const OBJ_HEADER_BYTES: u64 = 16;

/// The modelled byte cost of an array of `len` elements each
/// `elem_width` bytes wide (saturating, so hostile lengths cannot
/// overflow the accounting itself).
pub fn array_size_bytes(elem_width: u64, len: u64) -> u64 {
    OBJ_HEADER_BYTES.saturating_add(elem_width.saturating_mul(len))
}

impl Obj {
    /// The modelled byte cost of this object: a fixed header plus the
    /// payload (8 bytes per instance field, the element width for
    /// arrays, the UTF-8 length for strings).
    pub fn size_bytes(&self) -> u64 {
        match self {
            Obj::Instance { fields, .. } => {
                OBJ_HEADER_BYTES.saturating_add(8u64.saturating_mul(fields.len() as u64))
            }
            Obj::Array { data, .. } => array_size_bytes(data.elem_width(), data.len() as u64),
            Obj::Str(s) => OBJ_HEADER_BYTES.saturating_add(s.len() as u64),
        }
    }
}

/// The heap: a growable object store (no GC — the workloads are
/// bounded; a real system would plug a collector in here). Every
/// allocation is accounted in bytes against an optional budget; the
/// budgeted entry points ([`Heap::try_alloc`], [`Heap::try_alloc_str`],
/// [`Heap::try_reserve`]) turn exhaustion into [`Trap::OutOfMemory`],
/// while the infallible ones ([`Heap::alloc`], [`Heap::alloc_str`]) are
/// reserved for host-side allocations (e.g. the trap exception objects
/// themselves) and still account their bytes.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<Obj>,
    bytes: u64,
    budget: Option<u64>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Total modelled bytes allocated so far (cumulative — there is no
    /// collector, so this is also the live size).
    pub fn bytes_allocated(&self) -> u64 {
        self.bytes
    }

    /// Sets (or clears) the allocation byte budget. Already-allocated
    /// bytes count against it.
    pub fn set_budget(&mut self, budget: Option<u64>) {
        self.budget = budget;
    }

    /// The configured byte budget, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Checks that `extra` more bytes would fit in the budget without
    /// committing anything. Callers use this to reject oversized
    /// allocations *before* constructing their payload.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] when the budget would be exceeded.
    pub fn try_reserve(&self, extra: u64) -> Result<(), Trap> {
        match self.budget {
            Some(b) if self.bytes.saturating_add(extra) > b => Err(Trap::OutOfMemory),
            _ => Ok(()),
        }
    }

    /// Allocates an object against the byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] when the budget would be exceeded
    /// (the object is dropped and the heap is unchanged).
    pub fn try_alloc(&mut self, obj: Obj) -> Result<HeapRef, Trap> {
        self.try_reserve(obj.size_bytes())?;
        Ok(self.alloc(obj))
    }

    /// Allocates a string against the byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::OutOfMemory`] when the budget would be exceeded.
    pub fn try_alloc_str(&mut self, s: impl Into<Rc<str>>) -> Result<HeapRef, Trap> {
        self.try_alloc(Obj::Str(s.into()))
    }

    /// Allocates an object unconditionally (host-reserved path: ignores
    /// the budget but still accounts the bytes).
    pub fn alloc(&mut self, obj: Obj) -> HeapRef {
        self.bytes = self.bytes.saturating_add(obj.size_bytes());
        let r = HeapRef(self.objects.len() as u32);
        self.objects.push(obj);
        r
    }

    /// Allocates a string unconditionally (host-reserved path).
    pub fn alloc_str(&mut self, s: impl Into<Rc<str>>) -> HeapRef {
        self.alloc(Obj::Str(s.into()))
    }

    /// Reads an object.
    ///
    /// # Panics
    ///
    /// Panics on a dangling handle (cannot happen without unsafe code).
    #[inline]
    pub fn get(&self, r: HeapRef) -> &Obj {
        &self.objects[r.0 as usize]
    }

    /// Mutable object access.
    ///
    /// # Panics
    ///
    /// Panics on a dangling handle.
    #[inline]
    pub fn get_mut(&mut self, r: HeapRef) -> &mut Obj {
        &mut self.objects[r.0 as usize]
    }

    /// Reads a string object's contents.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Internal`] if the object is not a string.
    pub fn str(&self, r: HeapRef) -> Result<&Rc<str>, Trap> {
        match self.get(r) {
            Obj::Str(s) => Ok(s),
            _ => Err(Trap::Internal("expected string object".into())),
        }
    }

    /// The class of an instance.
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Internal`] if the object is not an instance.
    pub fn instance_class(&self, r: HeapRef) -> Result<usize, Trap> {
        match self.get(r) {
            Obj::Instance { class, .. } => Ok(*class),
            _ => Err(Trap::Internal("expected instance".into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let s = h.alloc_str("hi");
        assert_eq!(&**h.str(s).unwrap(), "hi");
        let a = h.alloc(Obj::Array {
            type_tag: 0,
            data: ArrData::I(vec![0; 3]),
        });
        if let Obj::Array { data, .. } = h.get_mut(a) {
            data.set(1, Value::I(42)).unwrap();
            assert_eq!(data.get(1).unwrap(), Value::I(42));
            assert_eq!(data.get(3), Err(Trap::IndexOutOfBounds));
        } else {
            panic!("not an array");
        }
    }

    #[test]
    fn array_kind_mismatch_is_internal() {
        let mut d = ArrData::I(vec![0]);
        assert!(matches!(d.set(0, Value::Z(true)), Err(Trap::Internal(_))));
    }

    #[test]
    fn byte_accounting_and_budget() {
        let mut h = Heap::new();
        assert_eq!(h.bytes_allocated(), 0);
        h.alloc_str("hi"); // 16 + 2
        assert_eq!(h.bytes_allocated(), 18);
        h.alloc(Obj::Array {
            type_tag: 0,
            data: ArrData::I(vec![0; 4]), // 16 + 4*4
        });
        assert_eq!(h.bytes_allocated(), 50);

        h.set_budget(Some(66));
        // 16 + 8*1 = 24 would exceed 66.
        let r = h.try_alloc(Obj::Instance {
            class: 0,
            fields: vec![Value::I(0)],
            msg: None,
        });
        assert_eq!(r, Err(Trap::OutOfMemory));
        assert_eq!(h.bytes_allocated(), 50, "failed alloc must not account");
        // An empty instance (16 bytes) still fits.
        assert!(h
            .try_alloc(Obj::Instance {
                class: 0,
                fields: vec![],
                msg: None,
            })
            .is_ok());
        assert_eq!(h.bytes_allocated(), 66);
        // The unbudgeted path ignores the (now exhausted) budget.
        assert_eq!(h.try_reserve(1), Err(Trap::OutOfMemory));
        h.alloc_str("overflow is allowed on the host path");
        assert!(h.bytes_allocated() > 66);
    }

    #[test]
    fn array_size_projection_matches_obj_size() {
        let data = ArrData::D(vec![0.0; 7]);
        let projected = array_size_bytes(data.elem_width(), 7);
        let obj = Obj::Array { type_tag: 0, data };
        assert_eq!(obj.size_bytes(), projected);
        assert_eq!(projected, 16 + 8 * 7);
    }

    #[test]
    fn instance_fields() {
        let mut h = Heap::new();
        let o = h.alloc(Obj::Instance {
            class: 5,
            fields: vec![Value::I(0), Value::NULL],
            msg: None,
        });
        assert_eq!(h.instance_class(o).unwrap(), 5);
        if let Obj::Instance { fields, .. } = h.get_mut(o) {
            fields[0] = Value::I(9);
        }
        if let Obj::Instance { fields, .. } = h.get(o) {
            assert_eq!(fields[0], Value::I(9));
        }
    }
}
