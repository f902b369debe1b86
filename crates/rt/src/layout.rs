//! Object layout: flattened instance-field offsets and static storage.
//!
//! Both engines describe their class tables through [`ClassShape`] and
//! get identical layouts, so heap objects are interchangeable between
//! them in tests.

use crate::value::Value;

/// Minimal class description needed for layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassShape {
    /// Superclass index, if any.
    pub superclass: Option<usize>,
    /// Declared instance-field count.
    pub instance_fields: usize,
    /// Declared static-field count.
    pub static_fields: usize,
}

/// Computed layout for a class table.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Field offset base per class (inherited fields come first).
    base: Vec<usize>,
    /// Total instance slots per class.
    total: Vec<usize>,
}

/// The classes `0..n` ordered so that each comes after its superclass
/// (`superclass(i)`), found with an explicit stack: the walk's depth
/// does not grow with the depth of the hierarchy. Each class is visited
/// once. Superclass chains must be acyclic.
fn parent_first(n: usize, superclass: impl Fn(usize) -> Option<usize>) -> Vec<usize> {
    let mut placed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    // A class and its unplaced ancestors, nearest first.
    let mut chain = Vec::new();
    for i in 0..n {
        let mut cur = Some(i);
        while let Some(c) = cur.filter(|&c| !placed[c]) {
            placed[c] = true;
            chain.push(c);
            cur = superclass(c);
        }
        order.extend(chain.drain(..).rev());
    }
    order
}

impl Layout {
    /// Computes the layout for `shapes` (indices must be closed under
    /// `superclass`, and chains acyclic), each class from its
    /// superclass's finished layout.
    pub fn build(shapes: &[ClassShape]) -> Layout {
        let n = shapes.len();
        let mut base = vec![0; n];
        let mut total = vec![0; n];
        for i in parent_first(n, |i| shapes[i].superclass) {
            base[i] = shapes[i].superclass.map_or(0, |s| total[s]);
            total[i] = base[i] + shapes[i].instance_fields;
        }
        Layout { base, total }
    }

    /// The flattened slot of field `field_idx` declared by `class`.
    pub fn field_slot(&self, class: usize, field_idx: usize) -> usize {
        self.base[class] + field_idx
    }

    /// Number of instance slots an instance of `class` needs.
    pub fn instance_size(&self, class: usize) -> usize {
        self.total[class]
    }

    /// Fresh zero/null-initialized field storage for `class`, given a
    /// per-slot default supplier.
    pub fn fresh_fields(&self, class: usize, default: impl Fn(usize) -> Value) -> Vec<Value> {
        (0..self.instance_size(class)).map(default).collect()
    }
}

/// Static-field storage: one vector of values per class.
#[derive(Debug, Clone, Default)]
pub struct Statics {
    slots: Vec<Vec<Value>>,
}

impl Statics {
    /// Creates storage sized by `shapes` with `Value::NULL` defaults
    /// (engines overwrite with typed defaults before running clinit).
    pub fn build(shapes: &[ClassShape]) -> Statics {
        Statics {
            slots: shapes
                .iter()
                .map(|s| vec![Value::NULL; s.static_fields])
                .collect(),
        }
    }

    /// Reads a static field.
    pub fn get(&self, class: usize, field: usize) -> Value {
        self.slots[class][field]
    }

    /// Writes a static field.
    pub fn set(&mut self, class: usize, field: usize, v: Value) {
        self.slots[class][field] = v;
    }

    /// Overwrites the default value of one slot (typed zero).
    pub fn init_default(&mut self, class: usize, field: usize, v: Value) {
        self.slots[class][field] = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inherited_fields_come_first() {
        // 0: Object (0 fields), 1: A (2 fields), 2: B extends A (1 field)
        let shapes = vec![
            ClassShape {
                superclass: None,
                instance_fields: 0,
                static_fields: 0,
            },
            ClassShape {
                superclass: Some(0),
                instance_fields: 2,
                static_fields: 1,
            },
            ClassShape {
                superclass: Some(1),
                instance_fields: 1,
                static_fields: 0,
            },
        ];
        let l = Layout::build(&shapes);
        assert_eq!(l.instance_size(0), 0);
        assert_eq!(l.instance_size(1), 2);
        assert_eq!(l.instance_size(2), 3);
        assert_eq!(l.field_slot(1, 0), 0);
        assert_eq!(l.field_slot(1, 1), 1);
        assert_eq!(l.field_slot(2, 0), 2);
    }

    #[test]
    fn forward_superclass_reference() {
        // 0: B extends A(1), 1: A (declared after its subclass).
        let shapes = vec![
            ClassShape {
                superclass: Some(1),
                instance_fields: 1,
                static_fields: 0,
            },
            ClassShape {
                superclass: None,
                instance_fields: 2,
                static_fields: 0,
            },
        ];
        let l = Layout::build(&shapes);
        assert_eq!(l.instance_size(0), 3);
        assert_eq!(l.field_slot(0, 0), 2);
    }

    #[test]
    fn parent_first_places_every_class_after_its_superclass() {
        // 0 extends 2 extends 1; 3 extends 1.
        let sup = [Some(2), None, Some(1), Some(1)];
        let order = parent_first(4, |i| sup[i]);
        assert_eq!(order, vec![1, 2, 0, 3]);
        let pos = |c: usize| order.iter().position(|&o| o == c).unwrap();
        for (c, s) in sup.iter().enumerate() {
            if let Some(s) = s {
                assert!(pos(*s) < pos(c));
            }
        }
    }

    #[test]
    fn statics_storage() {
        let shapes = vec![ClassShape {
            superclass: None,
            instance_fields: 0,
            static_fields: 2,
        }];
        let mut s = Statics::build(&shapes);
        s.init_default(0, 0, Value::I(0));
        s.set(0, 1, Value::I(7));
        assert_eq!(s.get(0, 0), Value::I(0));
        assert_eq!(s.get(0, 1), Value::I(7));
    }
}
