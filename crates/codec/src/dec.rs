//! The SafeTSA decoder: the code consumer's loader.
//!
//! Decoding *is* (most of) verification: every reference symbol is
//! range-checked against the registers actually defined at that point
//! (§2's "trivial" check), every instruction is type-checked by the
//! shared typing rules as it is rebuilt, and structures the encoding
//! cannot even express (cross-branch references, wrong planes) are
//! simply unrepresentable. The caller is expected to run the full
//! [`safetsa_core::verify::verify_module`] afterwards as defense in
//! depth; `decode_and_verify` does both.

use crate::bits::{BitReader, DecodeError};
use crate::layout::{CstTag, Opc, CST_TAGS, MAGIC, OPCODES, VERSION};
use crate::refs::{read_ref, read_type, with_derived, Derived, RegisterFiles};
use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::cst::Cst;
use safetsa_core::dom::DomTree;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::{Instr, Operands};
use safetsa_core::module::{Module, WellKnown};
use safetsa_core::primops::{self, PrimOpId};
use safetsa_core::types::{
    ClassId, ClassInfo, FieldInfo, FieldRef, MethodInfo, MethodKind, MethodRef, PrimKind, TypeId,
    TypeKind, TypeTable,
};
use safetsa_core::typing;
use safetsa_core::value::{BlockId, Const, Literal, ValueId};

/// The host environment: the implicitly generated (and therefore
/// tamper-proof) part of the type table — primitives and imported
/// classes — plus the well-known class handles.
#[derive(Debug, Clone)]
pub struct HostEnv {
    /// Type table containing only imported classes.
    pub types: TypeTable,
    /// Well-known classes.
    pub well_known: WellKnown,
}

const MAX_COUNT: u64 = 1 << 22;

fn cap(v: u64, what: &str) -> Result<usize, DecodeError> {
    if v > MAX_COUNT {
        return Err(DecodeError::Malformed(format!("{what} count too large")));
    }
    Ok(v as usize)
}

/// Room for `n` wire items, but never more than the rest of the stream
/// can encode (every item takes at least one bit) nor more than 1024;
/// past that a vector grows only as items actually arrive. A forged
/// count therefore cannot make the decoder reserve memory the input
/// never fills.
fn room(n: usize, r: &BitReader<'_>) -> usize {
    n.min(r.remaining_bits()).min(1024)
}

/// A vector with [`room`] for `n` wire items.
fn reserve<T>(n: usize, r: &BitReader<'_>) -> Vec<T> {
    Vec::with_capacity(room(n, r))
}

/// Decodes a module against the host environment.
///
/// # Errors
///
/// Any structural, referential, or type violation aborts decoding.
pub fn decode_module(bytes: &[u8], host: &HostEnv) -> Result<Module, DecodeError> {
    let mut r = BitReader::new(bytes);
    if r.bits(32)? as u32 != MAGIC {
        return Err(DecodeError::Malformed("bad magic".into()));
    }
    if r.bits(8)? as u8 != VERSION {
        return Err(DecodeError::Malformed("unsupported version".into()));
    }
    let name = r.string()?;
    let n_classes = cap(r.gamma()?, "class")?;
    let n_builtin = cap(r.gamma()?, "builtin class")?;
    let mut types = host.types.clone();
    if n_builtin != types.class_count() {
        return Err(DecodeError::Malformed(format!(
            "module expects {n_builtin} host classes, environment provides {}",
            types.class_count()
        )));
    }
    if n_classes < n_builtin {
        return Err(DecodeError::Malformed("class counts inconsistent".into()));
    }
    // Each transmitted class costs at least three bits (name length,
    // field count, method count); refuse to pre-declare classes the
    // stream cannot hold.
    if (n_classes - n_builtin) * 3 > r.remaining_bits() {
        return Err(DecodeError::UnexpectedEof);
    }
    // Pre-declare local classes so forward references resolve.
    for i in n_builtin..n_classes {
        types.declare_class(ClassInfo {
            name: format!("<class {i}>"),
            superclass: None,
            fields: vec![],
            methods: vec![],
            imported: false,
            instance_size: 0,
        });
    }
    let mut has_body: Vec<(ClassId, usize)> = Vec::new();
    for i in n_builtin..n_classes {
        let cid = ClassId(i as u32);
        let cname = r.string()?;
        let sup = r.symbol(n_classes as u32)?;
        let n_fields = cap(r.gamma()?, "field")?;
        let mut fields = reserve(n_fields, &r);
        for _ in 0..n_fields {
            let fname = r.string()?;
            let ty = read_type(&mut r, &mut types, 0)?;
            let is_static = r.bits(1)? == 1;
            fields.push(FieldInfo {
                name: fname,
                ty,
                is_static,
                slot: None,
            });
        }
        let n_methods = cap(r.gamma()?, "method")?;
        let mut methods = reserve(n_methods, &r);
        for mi in 0..n_methods {
            let mname = r.string()?;
            let n_params = cap(r.gamma()?, "parameter")?;
            let mut params = reserve(n_params, &r);
            for _ in 0..n_params {
                params.push(read_type(&mut r, &mut types, 0)?);
            }
            let ret = if r.bits(1)? == 1 {
                Some(read_type(&mut r, &mut types, 0)?)
            } else {
                None
            };
            let kind = match r.symbol(crate::layout::METHOD_KINDS)? {
                0 => MethodKind::Static,
                1 => MethodKind::Virtual,
                _ => MethodKind::Special,
            };
            let body = r.bits(1)? == 1;
            if body {
                has_body.push((cid, mi));
            }
            methods.push(MethodInfo {
                name: mname,
                params,
                ret,
                kind,
                vtable_slot: None,
                body: None,
            });
        }
        let info = types.class_mut(cid);
        info.name = cname;
        info.superclass = Some(ClassId(sup));
        info.fields = fields;
        info.methods = methods;
    }
    // Dispatch and field slots are derived by the consumer, with the
    // producer's rule, and never transmitted, so they cannot be
    // corrupted. The walk rejects superclass cycles.
    types
        .lay_out()
        .map_err(|_| DecodeError::Malformed("superclass cycle".into()))?;

    // Function bodies, each deriving its graphs in the buffers of the
    // one before, which the thread keeps for its next module.
    let mut functions = Vec::with_capacity(has_body.len());
    with_derived(|derived| {
        for (cid, mi) in has_body {
            let fid = functions.len() as u32;
            let f = decode_function(&mut r, &mut types, cid, mi, derived).map_err(|e| {
                let class = types.class(cid);
                let method = &class.methods[mi].name;
                DecodeError::Malformed(format!("in {}.{method}: {e}", class.name))
            })?;
            types.class_mut(cid).methods[mi].body = Some(fid);
            functions.push(f);
        }
        Ok(())
    })?;
    Ok(Module {
        name,
        types,
        well_known: host.well_known,
        functions,
    })
}

/// Decodes and fully verifies a module.
///
/// # Errors
///
/// Decode errors, or verification failures mapped to
/// [`DecodeError::Malformed`].
pub fn decode_and_verify(bytes: &[u8], host: &HostEnv) -> Result<Module, DecodeError> {
    let m = decode_module(bytes, host)?;
    safetsa_core::verify::verify_module(&m)
        .map_err(|e| DecodeError::Malformed(format!("verification: {e}")))?;
    Ok(m)
}

/// Decodes one standalone function section (the counterpart of
/// [`crate::enc::encode_function_section`]) against a type table that
/// already declares `class` with the method record at `method_idx` —
/// the signature is derived from that record, exactly as in a full
/// module decode. The incremental store's reassembly path uses this to
/// splice a cached method body into a freshly lowered module.
///
/// # Errors
///
/// Any structural, referential, or type violation aborts decoding —
/// callers treat a failure as a cache miss.
pub fn decode_function_section(
    bytes: &[u8],
    types: &mut TypeTable,
    class: ClassId,
    method_idx: usize,
) -> Result<Function, DecodeError> {
    let ok = types
        .class_checked(class)
        .is_some_and(|c| method_idx < c.methods.len());
    if !ok {
        return Err(DecodeError::Malformed("method record out of range".into()));
    }
    let mut r = BitReader::new(bytes);
    with_derived(|derived| decode_function(&mut r, types, class, method_idx, derived))
}

const PLACEHOLDER: ValueId = ValueId(u32::MAX);

struct FnDecoder<'a, 'b> {
    r: &'a mut BitReader<'b>,
    types: &'a mut TypeTable,
    f: Function,
    /// Blocks the CST has named so far; the function gets them once
    /// the CST is complete.
    blocks: u32,
    label_depth: u32,
    loop_depth: u32,
    nodes: usize,
}

fn decode_function(
    r: &mut BitReader<'_>,
    types: &mut TypeTable,
    class: ClassId,
    method_idx: usize,
    derived: &mut Derived,
) -> Result<Function, DecodeError> {
    // Derive the signature from the (already decoded) method record.
    let receiver = match types.class(class).methods[method_idx].kind {
        MethodKind::Static => None,
        _ => Some(types.safe_ref_of(types.class_ty(class))),
    };
    let cinfo = types.class(class);
    let m = &cinfo.methods[method_idx];
    let mut params = Vec::with_capacity(usize::from(receiver.is_some()) + m.params.len());
    params.extend(receiver);
    params.extend_from_slice(&m.params);
    let mut name = String::with_capacity(cinfo.name.len() + 1 + m.name.len());
    name.push_str(&cinfo.name);
    name.push('.');
    name.push_str(&m.name);
    let mut f = Function::new(name, Some(class), params, m.ret);
    let Derived {
        cfg,
        dom,
        regs,
        operand_planes,
        values,
    } = derived;
    // The value table grows in the thread's buffer until phase 2a has
    // created every value; the function then gets a copy of its final
    // size, and the buffer goes back to the set.
    values.clear();
    values.append(&mut f.values);
    std::mem::swap(values, &mut f.values);
    let mut d = FnDecoder {
        r,
        types,
        f,
        blocks: 0,
        label_depth: 0,
        loop_depth: 0,
        nodes: 0,
    };
    // Constant pool.
    let n_consts = cap(d.r.gamma()?, "constant")?;
    let room = room(n_consts, d.r);
    d.f.consts.reserve(room);
    d.f.const_values.reserve(room);
    for _ in 0..n_consts {
        let ty = read_type(d.r, d.types, 0)?;
        let lit = d.read_literal(ty)?;
        d.f.add_const(Const { ty, lit });
    }
    if d.f.consts.len() != n_consts {
        return Err(DecodeError::Malformed("duplicate constant entries".into()));
    }
    // Phase 1: CST structure. Blocks are allocated in exactly the order
    // the CFG walk visits them, so block-id order is traversal order.
    let body = d.parse_cst()?;
    d.f.body = body;
    let named = d.blocks as usize;
    d.f.blocks.reserve_exact(named.saturating_sub(1));
    d.f.results.reserve_exact(named.saturating_sub(1));
    while d.f.block_count() < named {
        d.f.add_block();
    }
    let n_blocks = d.f.block_count();
    let blocks = || (0..n_blocks).map(|i| BlockId(i as u32));
    // Phase 2a: opcodes, types, and member references of every block in
    // traversal order. Operands arrive in phase 2b, by which point the
    // complete control-flow graph (exception edges included) and every
    // plane's register count are known — this is what makes decoding a
    // single forward pass with context-determined symbol alphabets.
    // Each instruction's signature is derived once, here: its result
    // plane now, its operand planes for phase 2b.
    operand_planes.clear();
    for b in blocks() {
        let n_phis = cap(d.r.gamma()?, "phi")?;
        d.f.blocks[b.index()].phis = reserve(n_phis, d.r);
        d.f.results[b.index()].phi_results = reserve(n_phis, d.r);
        for _ in 0..n_phis {
            let ty = read_type(d.r, d.types, 0)?;
            d.f.add_phi(b, ty);
        }
        let n_instrs = cap(d.r.gamma()?, "instruction")?;
        d.f.blocks[b.index()].instrs = reserve(n_instrs, d.r);
        d.f.results[b.index()].instr_results = reserve(n_instrs, d.r);
        for _ in 0..n_instrs {
            let instr = d.read_instr_fields()?;
            let sig = typing::intern_signature(d.types, &instr)
                .map_err(|e| DecodeError::Malformed(e.to_string()))?;
            d.f.add_instr_unchecked(b, instr, sig.result);
            operand_planes.push(sig.operands);
        }
    }
    values.reserve_exact(d.f.values.len());
    values.extend_from_slice(&d.f.values);
    std::mem::swap(values, &mut d.f.values);
    values.clear();
    // The function's one CFG, dominator tree and register files serve
    // every reference phase. Its walk must visit blocks 0, 1, 2, … in
    // order; given how phase 1 allocates, only a CST that names no block
    // at all (leaving the entry block out) fails that. Unreachable
    // blocks must be empty (verified again later, but needed now so
    // reference decoding never consults an unreachable block).
    cfg.rebuild(&d.f)
        .map_err(|e| DecodeError::Malformed(format!("control structure: {e}")))?;
    if !cfg.traversal.iter().copied().eq(blocks()) {
        return Err(DecodeError::Malformed("blocks not covered by CST".into()));
    }
    for b in blocks() {
        if !cfg.reachable[b.index()] && b != ENTRY {
            let blk = d.f.block(b);
            if !blk.phis.is_empty() || !blk.instrs.is_empty() {
                return Err(DecodeError::Malformed(
                    "code in an unreachable block".into(),
                ));
            }
        }
    }
    dom.rebuild(cfg);
    regs.rebuild(&d.f);
    // Phase 2b: operand references.
    let mut planes = operand_planes.iter();
    for b in blocks() {
        let n_instrs = d.f.block(b).instrs.len();
        for k in 0..n_instrs {
            let planes = planes.next().expect("a signature per instruction");
            let mut vals = Operands::new();
            for &plane in planes.iter() {
                let v = read_ref(d.r, regs, dom, b, Some(k), plane).map_err(|e| {
                    DecodeError::Malformed(format!("operand in {b} instr {k}: {e}"))
                })?;
                vals.push(v);
            }
            let mut it = vals.iter().copied();
            let instr = &mut d.f.blocks[b.index()].instrs[k];
            instr.map_operands(|_| it.next().expect("plane per operand"));
            if it.next().is_some() {
                return Err(DecodeError::Malformed("operand arity mismatch".into()));
            }
            // Safe-index results are bound to the array they were
            // checked against (Appendix A).
            if let Instr::IndexCheck { array, .. } = *instr {
                if let Some(res) = d.f.instr_result(b, k) {
                    d.f.set_provenance(res, Some(array));
                }
            }
        }
    }
    // Phase 2c: CST value references.
    let mut body = std::mem::replace(&mut d.f.body, Cst::Seq(vec![]));
    {
        let mut w = PatchWalk {
            r: d.r,
            types: d.types,
            f: &d.f,
            cfg,
            dom,
            regs,
        };
        w.walk(&mut body, Fr::Start)?;
    }
    d.f.body = body;
    // Phase 3: phi operands.
    for b in blocks() {
        let preds = cfg.preds_of(b);
        let n_phis = d.f.block(b).phis.len();
        for k in 0..n_phis {
            let ty = d.f.block(b).phis[k].ty;
            let mut args = Vec::with_capacity(preds.len());
            for e in preds {
                let limit = match e.kind {
                    EdgeKind::Normal => None,
                    EdgeKind::Exception { upto } => Some(upto as usize),
                };
                let v = read_ref(d.r, regs, dom, e.from, limit, ty)?;
                args.push((e.from, v));
            }
            let result = d.f.phi_result(b, k);
            // Safe-index phis inherit their provenance from the
            // operands (Appendix A); the verifier re-checks agreement.
            if d.types.is_safe_index(ty) {
                let prov = args.first().and_then(|(_, v)| d.f.value(*v).provenance);
                d.f.set_provenance(result, prov);
            }
            d.f.set_phi_args(b, k, args);
        }
    }
    Ok(d.f)
}

impl<'a, 'b> FnDecoder<'a, 'b> {
    fn read_literal(&mut self, ty: TypeId) -> Result<Literal, DecodeError> {
        Ok(match self.types.kind(ty) {
            TypeKind::Prim(PrimKind::Bool) => Literal::Bool(self.r.bits(1)? == 1),
            TypeKind::Prim(PrimKind::Char) => Literal::Char(self.r.bits(16)? as u16),
            TypeKind::Prim(PrimKind::Int) => Literal::Int(self.r.bits(32)? as u32 as i32),
            TypeKind::Prim(PrimKind::Long) => Literal::Long(self.r.bits(64)? as i64),
            TypeKind::Prim(PrimKind::Float) => {
                Literal::Float(f32::from_bits(self.r.bits(32)? as u32))
            }
            TypeKind::Prim(PrimKind::Double) => Literal::Double(f64::from_bits(self.r.bits(64)?)),
            TypeKind::Class(_) | TypeKind::Array(_) => {
                if self.r.bits(1)? == 1 {
                    // Strings live on the imported string plane only;
                    // the module verifier re-checks the class.
                    Literal::Str(self.r.string()?)
                } else {
                    Literal::Null
                }
            }
            _ => return Err(DecodeError::Malformed("constant on a derived plane".into())),
        })
    }

    /// The next block id: the entry block first.
    fn alloc_block(&mut self) -> BlockId {
        self.blocks += 1;
        BlockId(self.blocks - 1)
    }

    fn parse_cst(&mut self) -> Result<Cst, DecodeError> {
        self.nodes += 1;
        if self.nodes as u64 > MAX_COUNT {
            return Err(DecodeError::Malformed("CST too large".into()));
        }
        let tag = CstTag::from_u32(self.r.symbol(CST_TAGS)?)
            .ok_or_else(|| DecodeError::Malformed("bad CST tag".into()))?;
        Ok(match tag {
            CstTag::Basic => Cst::Basic(self.alloc_block()),
            CstTag::Seq => {
                let n = cap(self.r.gamma()?, "sequence")?;
                let mut items = reserve(n, self.r);
                for _ in 0..n {
                    items.push(self.parse_cst()?);
                }
                Cst::Seq(items)
            }
            CstTag::If => {
                let join = self.alloc_block();
                let then_br = Box::new(self.parse_cst()?);
                let else_br = Box::new(self.parse_cst()?);
                Cst::If {
                    cond: PLACEHOLDER,
                    then_br,
                    else_br,
                    join,
                }
            }
            CstTag::Loop => {
                let header = self.alloc_block();
                self.loop_depth += 1;
                let body = Box::new(self.parse_cst()?);
                self.loop_depth -= 1;
                Cst::Loop { header, body }
            }
            CstTag::Labeled => {
                let join = self.alloc_block();
                self.label_depth += 1;
                let body = Box::new(self.parse_cst()?);
                self.label_depth -= 1;
                Cst::Labeled { body, join }
            }
            CstTag::Break => Cst::Break(self.r.symbol(self.label_depth)?),
            CstTag::Continue => Cst::Continue(self.r.symbol(self.loop_depth)?),
            CstTag::Return => Cst::Return(self.f.ret.map(|_| PLACEHOLDER)),
            CstTag::Throw => Cst::Throw(PLACEHOLDER),
            CstTag::Try => {
                let body = Box::new(self.parse_cst()?);
                let handler_entry = self.alloc_block();
                let handler = Box::new(self.parse_cst()?);
                let join = self.alloc_block();
                Cst::Try {
                    body,
                    handler_entry,
                    handler,
                    join,
                }
            }
        })
    }

    fn read_field_ref(&mut self) -> Result<FieldRef, DecodeError> {
        let class = ClassId(self.r.symbol(self.types.class_count() as u32)?);
        let n = self.types.class(class).fields.len() as u32;
        let index = self.r.symbol(n)?;
        Ok(FieldRef { class, index })
    }

    fn read_method_ref(&mut self) -> Result<MethodRef, DecodeError> {
        let class = ClassId(self.r.symbol(self.types.class_count() as u32)?);
        let n = self.types.class(class).methods.len() as u32;
        let index = self.r.symbol(n)?;
        Ok(MethodRef { class, index })
    }

    #[allow(clippy::too_many_lines)]
    fn read_instr_fields(&mut self) -> Result<Instr, DecodeError> {
        const P: ValueId = PLACEHOLDER;
        let opc = Opc::from_u32(self.r.symbol(OPCODES)?)
            .ok_or_else(|| DecodeError::Malformed("bad opcode".into()))?;
        Ok(match opc {
            Opc::Primitive | Opc::XPrimitive => {
                let ty = read_type(self.r, self.types, 0)?;
                let kind = match self.types.kind(ty) {
                    TypeKind::Prim(p) => p,
                    _ => {
                        return Err(DecodeError::Malformed(
                            "primitive on non-primitive plane".into(),
                        ))
                    }
                };
                let table = primops::ops_of(kind);
                let op = PrimOpId(self.r.symbol(table.len() as u32)? as u16);
                let args = table[op.index()].params.iter().map(|_| P).collect();
                if opc == Opc::XPrimitive {
                    Instr::XPrimitive { ty, op, args }
                } else {
                    Instr::Primitive { ty, op, args }
                }
            }
            Opc::NullCheck => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::NullCheck { ty, value: P }
            }
            Opc::IndexCheck => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::IndexCheck {
                    arr_ty,
                    array: P,
                    index: P,
                }
            }
            Opc::Upcast => {
                let from = read_type(self.r, self.types, 0)?;
                let to = read_type(self.r, self.types, 0)?;
                Instr::Upcast { from, to, value: P }
            }
            Opc::Downcast => {
                let from = read_type(self.r, self.types, 0)?;
                let to = read_type(self.r, self.types, 0)?;
                Instr::Downcast { from, to, value: P }
            }
            Opc::GetField => {
                let ty = read_type(self.r, self.types, 0)?;
                let field = self.read_field_ref()?;
                Instr::GetField {
                    ty,
                    object: P,
                    field,
                }
            }
            Opc::SetField => {
                let ty = read_type(self.r, self.types, 0)?;
                let field = self.read_field_ref()?;
                Instr::SetField {
                    ty,
                    object: P,
                    field,
                    value: P,
                }
            }
            Opc::GetStatic => Instr::GetStatic {
                field: self.read_field_ref()?,
            },
            Opc::SetStatic => Instr::SetStatic {
                field: self.read_field_ref()?,
                value: P,
            },
            Opc::GetElt => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::GetElt {
                    arr_ty,
                    array: P,
                    index: P,
                }
            }
            Opc::SetElt => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::SetElt {
                    arr_ty,
                    array: P,
                    index: P,
                    value: P,
                }
            }
            Opc::ArrayLength => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::ArrayLength { arr_ty, array: P }
            }
            Opc::New => {
                let class_ty = read_type(self.r, self.types, 0)?;
                Instr::New { class_ty }
            }
            Opc::NewArray => {
                let arr_ty = read_type(self.r, self.types, 0)?;
                Instr::NewArray { arr_ty, length: P }
            }
            Opc::XCall => {
                let base_ty = read_type(self.r, self.types, 0)?;
                let method = self.read_method_ref()?;
                let has_recv = self.r.bits(1)? == 1;
                let n = self
                    .types
                    .method(method)
                    .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                    .params
                    .len();
                Instr::XCall {
                    base_ty,
                    method,
                    receiver: has_recv.then_some(P),
                    args: vec![P; n],
                }
            }
            Opc::XDispatch => {
                let base_ty = read_type(self.r, self.types, 0)?;
                let method = self.read_method_ref()?;
                let n = self
                    .types
                    .method(method)
                    .ok_or_else(|| DecodeError::Malformed("bad method".into()))?
                    .params
                    .len();
                Instr::XDispatch {
                    base_ty,
                    method,
                    receiver: P,
                    args: vec![P; n],
                }
            }
            Opc::RefEq => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::RefEq { ty, a: P, b: P }
            }
            Opc::InstanceOf => {
                let from = read_type(self.r, self.types, 0)?;
                let target = read_type(self.r, self.types, 0)?;
                Instr::InstanceOf {
                    from,
                    target,
                    value: P,
                }
            }
            Opc::Catch => {
                let ty = read_type(self.r, self.types, 0)?;
                Instr::Catch { ty }
            }
        })
    }
}

// --------------------------------------------------------------------
// Phase 2c: patch the CST value references in frontier-walk order.

#[derive(Clone, Copy, PartialEq)]
enum Fr {
    Start,
    At(BlockId),
    Dead,
}

struct PatchWalk<'a, 'b> {
    r: &'a mut BitReader<'b>,
    types: &'a mut TypeTable,
    f: &'a Function,
    cfg: &'a Cfg,
    dom: &'a DomTree,
    regs: &'a RegisterFiles,
}

impl<'a, 'b> PatchWalk<'a, 'b> {
    fn live_join(&self, join: BlockId) -> Fr {
        if self.cfg.preds_of(join).is_empty() {
            Fr::Dead
        } else {
            Fr::At(join)
        }
    }

    fn walk(&mut self, cst: &mut Cst, fr: Fr) -> Result<Fr, DecodeError> {
        Ok(match cst {
            Cst::Basic(b) => match fr {
                Fr::Dead => Fr::Dead,
                _ => Fr::At(*b),
            },
            Cst::Seq(items) => {
                let mut cur = fr;
                for c in items {
                    cur = self.walk(c, cur)?;
                }
                cur
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                if let Fr::At(b) = fr {
                    let bool_ty = self.types.bool_ty();
                    *cond = read_ref(self.r, self.regs, self.dom, b, None, bool_ty)?;
                }
                let join = *join;
                self.walk(then_br, fr)?;
                self.walk(else_br, fr)?;
                self.live_join(join)
            }
            Cst::Loop { header, body } => {
                let inner = match fr {
                    Fr::Dead => Fr::Dead,
                    _ => Fr::At(*header),
                };
                self.walk(body, inner)?;
                Fr::Dead
            }
            Cst::Labeled { body, join } => {
                let join = *join;
                self.walk(body, fr)?;
                self.live_join(join)
            }
            Cst::Break(_) | Cst::Continue(_) => Fr::Dead,
            Cst::Return(v) => {
                if let (Fr::At(b), Some(slot)) = (fr, v.as_mut()) {
                    let plane = self
                        .f
                        .ret
                        .ok_or_else(|| DecodeError::Malformed("value return in void".into()))?;
                    *slot = read_ref(self.r, self.regs, self.dom, b, None, plane)?;
                }
                Fr::Dead
            }
            Cst::Throw(v) => {
                if let Fr::At(b) = fr {
                    let plane = read_type(self.r, self.types, 0)?;
                    *v = read_ref(self.r, self.regs, self.dom, b, None, plane)?;
                }
                Fr::Dead
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                let (he, join) = (*handler_entry, *join);
                self.walk(body, fr)?;
                let h = if self.cfg.preds_of(he).is_empty() {
                    Fr::Dead
                } else {
                    Fr::At(he)
                };
                self.walk(handler, h)?;
                self.live_join(join)
            }
        })
    }
}
