//! Functions (method bodies) and the low-level construction API.
//!
//! A [`Function`] owns its basic blocks, its SSA value table, its
//! constant pool, and the [`Cst`] describing its structured control
//! flow. Parameters and constants are *pre-loaded* values of the entry
//! block (§5); they occupy the leading register numbers of their planes
//! and are never represented as instructions.

use crate::cst::Cst;
use crate::instr::{Instr, Phi};
use crate::types::{ClassId, TypeId, TypeTable};
use crate::typing::{self, TypeError, ValueCtx};
use crate::value::{BlockId, Const, Def, Literal, ValueId, ValueInfo};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// A basic block: phis first, then straight-line instructions.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The block's phi nodes (results precede all instruction results
    /// on their planes).
    pub phis: Vec<Phi>,
    /// The block's instructions in execution order.
    pub instrs: Vec<Instr>,
}

/// Results of phis/instructions, cached per block so register numbers
/// can be recomputed cheaply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockResults {
    /// Value produced by each phi (parallel to `Block::phis`).
    pub phi_results: Vec<ValueId>,
    /// Value produced by each instruction, `None` for result-less ones
    /// (parallel to `Block::instrs`).
    pub instr_results: Vec<Option<ValueId>>,
}

/// A SafeTSA function body.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Diagnostic name (`Class.method`).
    pub name: String,
    /// Owning class, if the function is a method body.
    pub class: Option<ClassId>,
    /// Parameter planes. For instance methods, parameter 0 is the
    /// receiver on the *safe-ref* plane of the class (the caller's
    /// dispatch already null-checked it).
    pub params: Vec<TypeId>,
    /// Result plane; `None` for `void`.
    pub ret: Option<TypeId>,
    /// The constant pool, pre-loaded after the parameters.
    pub consts: ConstPool,
    /// Value ids of the constant pre-loads (parallel to `consts`;
    /// constants are created lazily, so their ids need not be dense).
    pub const_values: Vec<ValueId>,
    /// Basic blocks; `BlockId(0)` is the entry block.
    pub blocks: Vec<Block>,
    /// Per-block result caches (parallel to `blocks`).
    pub results: Vec<BlockResults>,
    /// The SSA value table.
    pub values: Vec<ValueInfo>,
    /// The control structure tree.
    pub body: Cst,
}

/// The entry block id (`b0` by construction).
pub const ENTRY: BlockId = BlockId(0);

/// Pools up to this size are searched entry by entry; a larger one
/// keeps an index.
const SCAN: usize = 16;

/// A function's constant pool: its entries in pool order, which it
/// derefs to, and, once it holds 16 entries, an index by plane and
/// literal bits, so interning a constant costs about the same at any
/// pool size.
#[derive(Clone, Default)]
pub struct ConstPool {
    entries: Vec<Const>,
    /// [`ConstPool::digest`] of each entry to its position, empty while
    /// the pool is short. An entry whose digest another entry holds
    /// takes the next free digest value, so a lookup probes forward
    /// from its digest to the first value not in the index.
    index: HashMap<u64, u32>,
}

impl ConstPool {
    /// A digest of a constant's plane and literal bits, equal for
    /// constants [`ConstPool::find`] treats as the same. It is keyed
    /// like the index's own hashing, with a random key per pool, so
    /// input cannot be chosen to make digests collide.
    fn digest(&self, c: &Const) -> u64 {
        let mut h = self.index.hasher().build_hasher();
        c.ty.hash(&mut h);
        std::mem::discriminant(&c.lit).hash(&mut h);
        match &c.lit {
            Literal::Bool(b) => b.hash(&mut h),
            Literal::Char(x) => x.hash(&mut h),
            Literal::Int(x) => x.hash(&mut h),
            Literal::Long(x) => x.hash(&mut h),
            Literal::Float(x) => x.to_bits().hash(&mut h),
            Literal::Double(x) => x.to_bits().hash(&mut h),
            Literal::Str(s) => s.hash(&mut h),
            Literal::Null => {}
        }
        h.finish()
    }

    /// The position of the entry on `c`'s plane whose literal is
    /// bit-identical to `c`'s ([`Literal::bit_eq`]: a NaN matches only
    /// the same NaN, and `-0.0` does not match `0.0`).
    pub(crate) fn find(&self, c: &Const) -> Option<usize> {
        let same = |e: &Const| e.ty == c.ty && e.lit.bit_eq(&c.lit);
        if self.entries.len() < SCAN {
            return self.entries.iter().position(same);
        }
        let mut d = self.digest(c);
        while let Some(&i) = self.index.get(&d) {
            if same(&self.entries[i as usize]) {
                return Some(i as usize);
            }
            d = d.wrapping_add(1);
        }
        None
    }

    /// Room for `n` more entries.
    pub fn reserve(&mut self, n: usize) {
        self.entries.reserve(n);
    }

    /// Appends `c`, which must not be in the pool yet.
    fn push(&mut self, c: Const) {
        self.entries.push(c);
        let n = self.entries.len();
        // A pool that just reached `SCAN` entries indexes them all; a
        // longer one indexes the new entry.
        let first = match n.cmp(&SCAN) {
            std::cmp::Ordering::Less => return,
            std::cmp::Ordering::Equal => 0,
            std::cmp::Ordering::Greater => n - 1,
        };
        for i in first..n {
            let mut d = self.digest(&self.entries[i]);
            while self.index.contains_key(&d) {
                d = d.wrapping_add(1);
            }
            self.index.insert(d, i as u32);
        }
    }
}

impl std::ops::Deref for ConstPool {
    type Target = [Const];

    fn deref(&self) -> &[Const] {
        &self.entries
    }
}

impl<'a> IntoIterator for &'a ConstPool {
    type Item = &'a Const;
    type IntoIter = std::slice::Iter<'a, Const>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter()
    }
}

/// Pools are equal when their entries are; the index follows from them.
impl PartialEq for ConstPool {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

/// Prints the entries as a list, like a `Vec`.
impl std::fmt::Debug for ConstPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.entries).finish()
    }
}

impl Function {
    /// Creates a function with an empty entry block; parameters are
    /// pre-loaded immediately.
    pub fn new(
        name: impl Into<String>,
        class: Option<ClassId>,
        params: Vec<TypeId>,
        ret: Option<TypeId>,
    ) -> Self {
        let values = params
            .iter()
            .enumerate()
            .map(|(i, &ty)| ValueInfo {
                ty,
                def: Def::Param(i as u32),
                block: ENTRY,
                provenance: None,
            })
            .collect();
        Function {
            name: name.into(),
            class,
            params,
            ret,
            consts: ConstPool::default(),
            const_values: Vec::new(),
            blocks: vec![Block::default()],
            results: vec![BlockResults::default()],
            values,
            body: Cst::empty(),
        }
    }

    /// The value pre-loaded for parameter `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn param_value(&self, i: usize) -> ValueId {
        assert!(i < self.params.len(), "parameter index out of range");
        ValueId(i as u32)
    }

    /// Adds (or reuses) a constant-pool entry and returns its pre-loaded
    /// value.
    pub fn add_const(&mut self, c: Const) -> ValueId {
        if let Some(i) = self.consts.find(&c) {
            return self.const_values[i];
        }
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo {
            ty: c.ty,
            def: Def::Const(self.consts.len() as u32),
            block: ENTRY,
            provenance: None,
        });
        self.consts.push(c);
        self.const_values.push(id);
        id
    }

    /// The pre-loaded value of constant-pool entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn const_value(&self, i: usize) -> ValueId {
        self.const_values[i]
    }

    /// Number of pre-loaded values (parameters + constants).
    pub fn preload_count(&self) -> usize {
        self.params.len() + self.consts.len()
    }

    /// Appends a fresh, empty basic block.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block::default());
        self.results.push(BlockResults::default());
        id
    }

    /// Number of basic blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// The block data for `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// The value metadata for `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn value(&self, v: ValueId) -> &ValueInfo {
        &self.values[v.index()]
    }

    /// The plane of `v`.
    pub fn value_ty(&self, v: ValueId) -> TypeId {
        self.values[v.index()].ty
    }

    /// Appends `instr` to block `b`, typing it against `types` (interning
    /// any derived planes it needs) and creating its result value.
    ///
    /// Returns the result value, or `None` for result-less instructions.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] if the instruction violates the typing
    /// rules; the function is left unchanged in that case.
    pub fn add_instr(
        &mut self,
        types: &mut TypeTable,
        b: BlockId,
        instr: Instr,
    ) -> Result<Option<ValueId>, TypeError> {
        let sig = typing::intern_signature(types, &instr)?;
        let typed = typing::type_operands(self, &instr, &instr.operands(), &sig)?;
        let idx = self.blocks[b.index()].instrs.len() as u32;
        let result = typed.result.map(|ty| {
            let id = ValueId(self.values.len() as u32);
            self.values.push(ValueInfo {
                ty,
                def: Def::Instr(b, idx),
                block: b,
                provenance: typed.provenance,
            });
            id
        });
        self.blocks[b.index()].instrs.push(instr);
        self.results[b.index()].instr_results.push(result);
        Ok(result)
    }

    /// Appends `instr` to block `b` WITHOUT type-checking, creating a
    /// result value on `result_ty` (if given). Used by streaming
    /// decoders that learn operands in a later phase; the caller must
    /// run the verifier before trusting the function.
    pub fn add_instr_unchecked(
        &mut self,
        b: BlockId,
        instr: Instr,
        result_ty: Option<TypeId>,
    ) -> Option<ValueId> {
        let idx = self.blocks[b.index()].instrs.len() as u32;
        let result = result_ty.map(|ty| {
            let id = ValueId(self.values.len() as u32);
            self.values.push(ValueInfo {
                ty,
                def: Def::Instr(b, idx),
                block: b,
                provenance: None,
            });
            id
        });
        self.blocks[b.index()].instrs.push(instr);
        self.results[b.index()].instr_results.push(result);
        result
    }

    /// Appends a phi of plane `ty` to block `b` with empty operands
    /// (filled in later via [`Function::set_phi_args`]); returns its
    /// result value.
    pub fn add_phi(&mut self, b: BlockId, ty: TypeId) -> ValueId {
        let idx = self.blocks[b.index()].phis.len() as u32;
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueInfo {
            ty,
            def: Def::Phi(b, idx),
            block: b,
            provenance: None,
        });
        self.blocks[b.index()].phis.push(Phi {
            ty,
            args: Vec::new(),
        });
        self.results[b.index()].phi_results.push(id);
        id
    }

    /// Replaces the operand list of phi `idx` of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the phi does not exist.
    pub fn set_phi_args(&mut self, b: BlockId, idx: usize, args: Vec<(BlockId, ValueId)>) {
        self.blocks[b.index()].phis[idx].args = args;
    }

    /// Sets the safe-index provenance of a (phi) value; the SSA builder
    /// uses this when all operands of a safe-index phi share an array.
    pub fn set_provenance(&mut self, v: ValueId, prov: Option<ValueId>) {
        self.values[v.index()].provenance = prov;
    }

    /// The result value of instruction `idx` in block `b`, if any.
    pub fn instr_result(&self, b: BlockId, idx: usize) -> Option<ValueId> {
        self.results[b.index()]
            .instr_results
            .get(idx)
            .copied()
            .flatten()
    }

    /// The result value of phi `idx` in block `b`.
    ///
    /// # Panics
    ///
    /// Panics if the phi does not exist.
    pub fn phi_result(&self, b: BlockId, idx: usize) -> ValueId {
        self.results[b.index()].phi_results[idx]
    }

    /// All values defined in block `b`, phis first, then instruction
    /// results in order; for the entry block, pre-loads come first.
    pub fn block_values(&self, b: BlockId) -> Vec<ValueId> {
        let mut out = Vec::new();
        if b == ENTRY {
            out.extend((0..self.params.len()).map(|i| ValueId(i as u32)));
            out.extend(self.const_values.iter().copied());
        }
        out.extend(self.results[b.index()].phi_results.iter().copied());
        out.extend(
            self.results[b.index()]
                .instr_results
                .iter()
                .copied()
                .flatten(),
        );
        out
    }

    /// Total number of instructions (excluding phis).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Total number of phi nodes.
    pub fn phi_count(&self) -> usize {
        self.blocks.iter().map(|b| b.phis.len()).sum()
    }

    /// Counts instructions for which `pred` holds.
    pub fn count_instrs(&self, mut pred: impl FnMut(&Instr) -> bool) -> usize {
        self.blocks
            .iter()
            .flat_map(|b| b.instrs.iter())
            .filter(|i| pred(i))
            .count()
    }

    /// Structural equality that, unlike `PartialEq`, treats NaN pool
    /// constants with identical bits as equal
    /// ([`Literal::bit_eq`](crate::value::Literal::bit_eq)), so a
    /// function always equals its own clone.
    pub fn bit_eq(&self, other: &Function) -> bool {
        let Function {
            name,
            class,
            params,
            ret,
            consts,
            const_values,
            blocks,
            results,
            values,
            body,
        } = self;
        *name == other.name
            && *class == other.class
            && *params == other.params
            && *ret == other.ret
            && consts.len() == other.consts.len()
            && consts
                .iter()
                .zip(&other.consts)
                .all(|(a, b)| a.ty == b.ty && a.lit.bit_eq(&b.lit))
            && *const_values == other.const_values
            && *blocks == other.blocks
            && *results == other.results
            && *values == other.values
            && *body == other.body
    }
}

impl ValueCtx for Function {
    fn value_ty(&self, v: ValueId) -> TypeId {
        self.values[v.index()].ty
    }

    fn value_provenance(&self, v: ValueId) -> Option<ValueId> {
        self.values[v.index()].provenance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primops;
    use crate::types::PrimKind;
    use crate::value::Literal;

    fn int_add(types: &TypeTable) -> (TypeId, crate::primops::PrimOpId) {
        (
            types.prim(PrimKind::Int),
            primops::find(PrimKind::Int, "add").unwrap(),
        )
    }

    #[test]
    fn params_are_preloaded() {
        let types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let f = Function::new("f", None, vec![int, int], Some(int));
        assert_eq!(f.param_value(0), ValueId(0));
        assert_eq!(f.param_value(1), ValueId(1));
        assert_eq!(f.value_ty(ValueId(0)), int);
        assert_eq!(f.value(ValueId(1)).def, Def::Param(1));
        assert_eq!(f.preload_count(), 2);
    }

    #[test]
    fn consts_dedupe() {
        let types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![], None);
        let a = f.add_const(Const {
            ty: int,
            lit: Literal::Int(7),
        });
        let b = f.add_const(Const {
            ty: int,
            lit: Literal::Int(7),
        });
        let c = f.add_const(Const {
            ty: int,
            lit: Literal::Int(8),
        });
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(f.consts.len(), 2);
    }

    #[test]
    fn add_instr_assigns_result_plane() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int, int], Some(int));
        let (ty, op) = int_add(&types);
        let r = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty,
                    op,
                    args: [f.param_value(0), f.param_value(1)].into(),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.value_ty(r), int);
        assert_eq!(f.value(r).def, Def::Instr(ENTRY, 0));
        assert_eq!(f.instr_result(ENTRY, 0), Some(r));
    }

    #[test]
    fn add_instr_rejects_bad_planes() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let dbl = types.prim(PrimKind::Double);
        let mut f = Function::new("f", None, vec![int, dbl], None);
        let (ty, op) = int_add(&types);
        let err = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty,
                    op,
                    args: [f.param_value(0), f.param_value(1)].into(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, TypeError::PlaneMismatch { .. }));
        assert_eq!(f.instr_count(), 0, "function unchanged after error");
    }

    #[test]
    fn block_values_order() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int], None);
        let c = f.add_const(Const {
            ty: int,
            lit: Literal::Int(1),
        });
        let (ty, op) = int_add(&types);
        let r = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty,
                    op,
                    args: [f.param_value(0), c].into(),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.block_values(ENTRY), vec![f.param_value(0), c, r]);
    }

    #[test]
    fn phis_precede_instrs_in_block_values() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("f", None, vec![int], None);
        let b = f.add_block();
        let p = f.add_phi(b, int);
        let (ty, op) = int_add(&types);
        let r = f
            .add_instr(
                &mut types,
                b,
                Instr::Primitive {
                    ty,
                    op,
                    args: [p, p].into(),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.block_values(b), vec![p, r]);
        assert_eq!(f.phi_count(), 1);
    }

    #[test]
    fn indexcheck_sets_provenance() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let arr = types.array_of(int);
        let safe_arr = types.safe_ref_of(arr);
        let mut f = Function::new("f", None, vec![safe_arr, int], None);
        let r = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::IndexCheck {
                    arr_ty: arr,
                    array: f.param_value(0),
                    index: f.param_value(1),
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.value(r).provenance, Some(f.param_value(0)));
        let elem = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::GetElt {
                    arr_ty: arr,
                    array: f.param_value(0),
                    index: r,
                },
            )
            .unwrap()
            .unwrap();
        assert_eq!(f.value_ty(elem), int);
    }

    #[test]
    fn getelt_wrong_provenance_rejected() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let arr = types.array_of(int);
        let safe_arr = types.safe_ref_of(arr);
        let mut f = Function::new("f", None, vec![safe_arr, safe_arr, int], None);
        let idx = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::IndexCheck {
                    arr_ty: arr,
                    array: f.param_value(0),
                    index: f.param_value(2),
                },
            )
            .unwrap()
            .unwrap();
        // Using the index checked against array 0 with array 1 must fail.
        let err = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::GetElt {
                    arr_ty: arr,
                    array: f.param_value(1),
                    index: idx,
                },
            )
            .unwrap_err();
        assert!(matches!(err, TypeError::ProvenanceMismatch { .. }));
    }

    #[test]
    fn bit_eq_matches_a_nan_constant_with_itself() {
        let types = TypeTable::new();
        let double = types.prim(PrimKind::Double);
        let mut f = Function::new("f", None, vec![], Some(double));
        f.add_const(Const {
            ty: double,
            lit: Literal::Double(f64::NAN),
        });
        let g = f.clone();
        assert_ne!(f, g, "PartialEq: NaN != NaN");
        assert!(f.bit_eq(&g));
        let mut h = Function::new("f", None, vec![], Some(double));
        h.add_const(Const {
            ty: double,
            lit: Literal::Double(-f64::NAN),
        });
        assert!(
            !f.bit_eq(&h),
            "a NaN with other bits is a different constant"
        );
    }

    #[test]
    fn a_long_pool_interns_through_its_index_by_plane_and_bits() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let long = types.prim(PrimKind::Long);
        let double = types.prim(PrimKind::Double);
        let mut class = |name: &str| {
            types
                .declare_class(crate::types::ClassInfo {
                    name: name.into(),
                    superclass: None,
                    fields: vec![],
                    methods: vec![],
                    imported: true,
                    instance_size: 0,
                })
                .1
        };
        let (object, string) = (class("Object"), class("String"));
        // `null` on two planes is two constants, in a short pool too.
        let nulls = [object, string].map(|ty| Const {
            ty,
            lit: Literal::Null,
        });
        let mut short = Function::new("s", None, vec![], None);
        let ids = nulls.clone().map(|c| short.add_const(c));
        assert_ne!(ids[0], ids[1]);
        assert_eq!(short.consts.find(&nulls[1]), Some(1));
        let mut lits = Vec::new();
        for k in 0..200 {
            lits.push(Const {
                ty: int,
                lit: Literal::Int(k),
            });
            lits.push(Const {
                ty: long,
                lit: Literal::Long(i64::from(k)),
            });
            lits.push(Const {
                ty: string,
                lit: Literal::Str(format!("s{k}")),
            });
        }
        let tricky = [
            Literal::Double(0.0),
            Literal::Double(-0.0),
            Literal::Double(f64::NAN),
            Literal::Double(-f64::NAN),
        ];
        lits.extend(tricky.iter().map(|lit| Const {
            ty: double,
            lit: lit.clone(),
        }));
        lits.extend(nulls);
        let mut f = Function::new("f", None, vec![int], None);
        let ids: Vec<ValueId> = lits.iter().map(|c| f.add_const(c.clone())).collect();
        assert_eq!(f.consts.len(), lits.len(), "every constant is distinct");
        assert!(f.consts.index.len() == lits.len(), "past SCAN, all indexed");
        for (c, id) in lits.iter().zip(&ids) {
            assert_eq!(f.add_const(c.clone()), *id, "{c:?} interns to its entry");
            let i = f.consts.find(c).unwrap();
            assert_eq!(f.const_value(i), *id);
        }
        assert_eq!(f.consts.len(), lits.len(), "no duplicate was added");
        // Same bits on another plane is another constant.
        let other = Const {
            ty: long,
            lit: Literal::Int(7),
        };
        assert_eq!(f.consts.find(&other), None);
    }

    #[test]
    fn colliding_digests_probe_to_the_next_value() {
        let types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut pool = ConstPool::default();
        let consts: Vec<Const> = (0..SCAN as i32 + 4)
            .map(|k| Const {
                ty: int,
                lit: Literal::Int(k),
            })
            .collect();
        for c in &consts {
            pool.push(c.clone());
        }
        // Entry 1 finds its digest taken by entry 0, as on a collision,
        // and sits one value on.
        let (d0, d1) = (pool.digest(&consts[0]), pool.digest(&consts[1]));
        pool.index.remove(&d0);
        pool.index.insert(d1, 0);
        pool.index.insert(d1.wrapping_add(1), 1);
        assert_eq!(pool.find(&consts[1]), Some(1));
    }
}
