//! Shared reference-coding machinery: the `(l, r)` dominator-relative
//! register naming of §2, and structural type references.
//!
//! `l` is coded against the dominator depth of the referencing block
//! (cardinality `depth + 1`), `r` against the number of values visible
//! on the operand's plane in the target block — the bound whose trivial
//! check is the *entire* reference verification SafeTSA needs, and
//! which the prefix coder exploits for compactness (§2: "the latter
//! fact can actually be exploited when encoding the (l-r) pair
//! space-efficiently").

use crate::bits::{BitReader, BitWriter, DecodeError};
use crate::enc::EncodeError;
use safetsa_core::cfg::Cfg;
use safetsa_core::dom::DomTree;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Operands;
use safetsa_core::reuse::{vec_bytes, with_thread_buffers, Buffers};
use safetsa_core::types::{PrimKind, TypeId, TypeKind, TypeTable};
use safetsa_core::value::{BlockId, ValueId, ValueInfo};
use std::cell::Cell;

/// What a function's reference phases consult: its control-flow graph,
/// dominator tree and register files, and in the decoder each
/// instruction's operand planes and the value table while it grows. A
/// module encode or decode keeps one set and rebuilds it in place for
/// each function, and the thread keeps the set for its next encode or
/// decode ([`safetsa_core::reuse`]).
#[derive(Default)]
pub(crate) struct Derived {
    pub(crate) cfg: Cfg,
    pub(crate) dom: DomTree,
    pub(crate) regs: RegisterFiles,
    /// The operand planes of every instruction, in the order phase 2a
    /// reads the instructions and phase 2b their operands.
    pub(crate) operand_planes: Vec<Operands<TypeId>>,
    /// Room for the value table of the function being decoded.
    pub(crate) values: Vec<ValueInfo>,
}

impl Buffers for Derived {
    fn heap_bytes(&mut self) -> usize {
        self.cfg.heap_bytes()
            + self.dom.heap_bytes()
            + self.regs.heap_bytes()
            + vec_bytes(&self.operand_planes)
            + vec_bytes(&self.values)
    }
}

thread_local! {
    /// The calling thread's encode and decode buffers between calls.
    static DERIVED: Cell<Option<Derived>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's encode and decode buffers.
pub(crate) fn with_derived<R>(f: impl FnOnce(&mut Derived) -> R) -> R {
    with_thread_buffers(&DERIVED, f)
}

/// The register files of one function: for each (block, plane), the
/// values on that plane in register order — entry pre-loads first
/// (entry block only), then phis, then instruction results — each with
/// its position in the block (0 for pre-loads and phis, `k + 1` for the
/// result of instruction `k`). These are the paper's per-type, per-block
/// register counters (§2, §9), built once per function; a same-block
/// limit selects a prefix, so resolving a reference never rescans a
/// block. [`RegisterFiles::rebuild`] reuses the buffers of the function
/// before.
#[derive(Debug, Clone, Default)]
pub struct RegisterFiles {
    /// Per block, the range of `planes` holding its non-empty planes
    /// (`block_start[b]..block_start[b + 1]`), sorted by plane.
    block_start: Vec<u32>,
    /// `(plane, start, end)`: the plane's registers in `values`/`pos`.
    planes: Vec<(TypeId, u32, u32)>,
    /// Register contents, grouped by block, then plane, in register
    /// order.
    values: Vec<ValueId>,
    /// Position of each register's definition in its block (parallel to
    /// `values`).
    pos: Vec<u32>,
    /// One block's registers as (plane, position, value), in register
    /// order, while they are grouped by plane.
    scratch: Vec<(TypeId, u32, ValueId)>,
}

impl RegisterFiles {
    /// Builds the register files of `f` from its value table and block
    /// result caches. Operands are not consulted, so a decoder can build
    /// them as soon as every phi and instruction has its result plane.
    pub fn build(f: &Function) -> RegisterFiles {
        let mut rf = RegisterFiles::default();
        rf.rebuild(f);
        rf
    }

    /// Heap bytes the files' buffers hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.block_start)
            + vec_bytes(&self.planes)
            + vec_bytes(&self.values)
            + vec_bytes(&self.pos)
            + vec_bytes(&self.scratch)
    }

    /// Builds the register files of `f` in place, reusing these files'
    /// buffers.
    pub fn rebuild(&mut self, f: &Function) {
        self.block_start.clear();
        self.planes.clear();
        self.values.clear();
        self.pos.clear();
        self.block_start.reserve(f.block_count() + 1);
        self.values.reserve(f.values.len());
        self.pos.reserve(f.values.len());
        let regs = &mut self.scratch;
        for (bi, res) in f.results.iter().enumerate() {
            self.block_start.push(self.planes.len() as u32);
            regs.clear();
            if bi == ENTRY.index() {
                let params = (0..f.params.len()).map(|i| ValueId(i as u32));
                for v in params.chain(f.const_values.iter().copied()) {
                    regs.push((f.value_ty(v), 0, v));
                }
            }
            for &v in &res.phi_results {
                regs.push((f.value_ty(v), 0, v));
            }
            for (k, r) in res.instr_results.iter().enumerate() {
                if let Some(v) = *r {
                    regs.push((f.value_ty(v), k as u32 + 1, v));
                }
            }
            // A stable sort by plane groups them without reordering.
            regs.sort_by_key(|&(plane, _, _)| plane);
            let first = self.planes.len();
            for &(plane, pos, v) in regs.iter() {
                let at = self.values.len() as u32;
                match self.planes[first..].last_mut() {
                    Some(last) if last.0 == plane => last.2 = at + 1,
                    _ => self.planes.push((plane, at, at + 1)),
                }
                self.values.push(v);
                self.pos.push(pos);
            }
        }
        self.block_start.push(self.planes.len() as u32);
    }

    /// Values visible on `plane` in block `d`, in register order.
    /// `limit` restricts instruction results to indices `< k`
    /// (same-block uses and exception-edge visibility).
    pub fn visible(&self, d: BlockId, plane: TypeId, limit: Option<usize>) -> &[ValueId] {
        let planes = &self.planes
            [self.block_start[d.index()] as usize..self.block_start[d.index() + 1] as usize];
        let Ok(i) = planes.binary_search_by_key(&plane, |&(p, _, _)| p) else {
            return &[];
        };
        let (start, end) = (planes[i].1 as usize, planes[i].2 as usize);
        let end = match limit {
            None => end,
            Some(k) => {
                let k = u32::try_from(k).unwrap_or(u32::MAX);
                start + self.pos[start..end].partition_point(|&p| p <= k)
            }
        };
        &self.values[start..end]
    }
}

/// Encodes a reference to `v` (on `plane`) made from block `b` with the
/// given same-block instruction `limit`.
///
/// # Errors
///
/// Returns [`EncodeError`] if `v` does not dominate the use or is not
/// visible on `plane` — the properties the `(l, r)` coding cannot
/// express, so the encoder refuses rather than emitting garbage.
#[allow(clippy::too_many_arguments)]
pub fn write_ref(
    w: &mut BitWriter,
    f: &Function,
    regs: &RegisterFiles,
    dom: &DomTree,
    b: BlockId,
    limit: Option<usize>,
    plane: TypeId,
    v: ValueId,
) -> Result<(), EncodeError> {
    let d = f.value(v).block;
    let l = dom
        .level_distance(d, b)
        .ok_or(EncodeError::OperandNotDominating { value: v, block: b })?;
    let depth = dom.depth[b.index()];
    w.symbol(l, depth + 1);
    let lim = if l == 0 { limit } else { None };
    let vis = regs.visible(d, plane, lim);
    let r = vis
        .iter()
        .position(|&x| x == v)
        .ok_or(EncodeError::OperandNotVisible { value: v, block: b })?;
    w.symbol(r as u32, vis.len() as u32);
    Ok(())
}

/// Decodes a reference made from block `b` on `plane`.
///
/// # Errors
///
/// Propagates range violations — the intrinsic referential-integrity
/// check.
pub fn read_ref(
    r: &mut BitReader<'_>,
    regs: &RegisterFiles,
    dom: &DomTree,
    b: BlockId,
    limit: Option<usize>,
    plane: TypeId,
) -> Result<ValueId, DecodeError> {
    let depth = dom.depth[b.index()];
    let l = r.symbol(depth + 1)?;
    let d = dom
        .ancestor(b, l)
        .ok_or_else(|| DecodeError::Malformed("dominator walk fell off the tree".into()))?;
    let lim = if l == 0 { limit } else { None };
    let vis = regs.visible(d, plane, lim);
    let idx = r.symbol(vis.len() as u32)?;
    Ok(vis[idx as usize])
}

const TYPE_TAGS: u32 = 5;

/// Encodes a structural type reference.
pub fn write_type(w: &mut BitWriter, types: &TypeTable, ty: TypeId) {
    match types.kind(ty) {
        TypeKind::Prim(p) => {
            w.symbol(0, TYPE_TAGS);
            let idx = PrimKind::ALL.iter().position(|&k| k == p).expect("prim");
            w.symbol(idx as u32, PrimKind::ALL.len() as u32);
        }
        TypeKind::Class(c) => {
            w.symbol(1, TYPE_TAGS);
            w.symbol(c.0, types.class_count() as u32);
        }
        TypeKind::Array(e) => {
            w.symbol(2, TYPE_TAGS);
            write_type(w, types, e);
        }
        TypeKind::SafeRef(of) => {
            w.symbol(3, TYPE_TAGS);
            write_type(w, types, of);
        }
        TypeKind::SafeIndex(arr) => {
            w.symbol(4, TYPE_TAGS);
            write_type(w, types, arr);
        }
    }
}

/// Decodes a structural type reference, interning derived planes.
///
/// # Errors
///
/// Rejects ill-kinded compositions (e.g. `safe-ref` of a primitive).
pub fn read_type(
    r: &mut BitReader<'_>,
    types: &mut TypeTable,
    depth: u32,
) -> Result<TypeId, DecodeError> {
    if depth > 32 {
        return Err(DecodeError::Malformed("type nesting too deep".into()));
    }
    match r.symbol(TYPE_TAGS)? {
        0 => {
            let idx = r.symbol(PrimKind::ALL.len() as u32)?;
            Ok(types.prim(PrimKind::ALL[idx as usize]))
        }
        1 => {
            let c = r.symbol(types.class_count() as u32)?;
            Ok(types.class_ty(safetsa_core::types::ClassId(c)))
        }
        2 => {
            let e = read_type(r, types, depth + 1)?;
            Ok(types.array_of(e))
        }
        3 => {
            let of = read_type(r, types, depth + 1)?;
            if !types.is_ref(of) {
                return Err(DecodeError::Malformed("safe-ref of non-reference".into()));
            }
            Ok(types.safe_ref_of(of))
        }
        4 => {
            let arr = read_type(r, types, depth + 1)?;
            if !matches!(types.kind(arr), TypeKind::Array(_)) {
                return Err(DecodeError::Malformed("safe-index of non-array".into()));
            }
            Ok(types.safe_index_of(arr))
        }
        _ => unreachable!("symbol bounded by cardinality"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use safetsa_core::types::ClassInfo;

    #[test]
    fn type_refs_round_trip() {
        let mut types = TypeTable::new();
        let (_, obj_ty) = types.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        });
        let int = types.prim(PrimKind::Int);
        let arr = types.array_of(int);
        let sr = types.safe_ref_of(arr);
        let si = types.safe_index_of(arr);
        let sobj = types.safe_ref_of(obj_ty);
        let all = [int, obj_ty, arr, sr, si, sobj];
        let mut w = BitWriter::new();
        for &t in &all {
            write_type(&mut w, &types, t);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        // Decode against a table with the same classes but no derived
        // planes — they are interned on demand.
        let mut t2 = TypeTable::new();
        t2.declare_class(ClassInfo {
            name: "Object".into(),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: true,
            instance_size: 0,
        });
        let decoded: Vec<TypeId> = (0..all.len())
            .map(|_| read_type(&mut r, &mut t2, 0).unwrap())
            .collect();
        for (&orig, &dec) in all.iter().zip(&decoded) {
            assert_eq!(types.type_name(orig), t2.type_name(dec));
        }
    }
}

#[cfg(test)]
mod register_file_tests {
    use super::*;
    use safetsa_core::function::Function;
    use safetsa_core::instr::Instr;
    use safetsa_core::primops;
    use safetsa_core::value::{Const, Literal};

    #[test]
    fn visibility_order_and_limits() {
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let dbl = types.prim(PrimKind::Double);
        let mut f = Function::new("t", None, vec![int, dbl], Some(int));
        let c = f.add_const(Const {
            ty: int,
            lit: Literal::Int(9),
        });
        let add = primops::find(PrimKind::Int, "add").unwrap();
        let r0 = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [f.param_value(0), c].into(),
                },
            )
            .unwrap()
            .unwrap();
        let r1 = f
            .add_instr(
                &mut types,
                ENTRY,
                Instr::Primitive {
                    ty: int,
                    op: add,
                    args: [r0, c].into(),
                },
            )
            .unwrap()
            .unwrap();
        let regs = RegisterFiles::build(&f);
        // Int plane, whole block: param0, const, r0, r1 (double param
        // is filtered out — type separation).
        assert_eq!(
            regs.visible(ENTRY, int, None),
            [f.param_value(0), c, r0, r1]
        );
        // Limited to before instruction 1: r1 is not visible.
        assert_eq!(regs.visible(ENTRY, int, Some(1)), [f.param_value(0), c, r0]);
        // Limited to before instruction 0: only the pre-loads.
        assert_eq!(regs.visible(ENTRY, int, Some(0)), [f.param_value(0), c]);
        // Double plane: only the double parameter.
        assert_eq!(regs.visible(ENTRY, dbl, None), [f.param_value(1)]);
        // A plane with nothing on it.
        let bool_ty = types.bool_ty();
        assert!(regs.visible(ENTRY, bool_ty, None).is_empty());
    }
}
