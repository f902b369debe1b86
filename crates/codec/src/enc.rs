//! The SafeTSA encoder: externalizes a module in the three phases of
//! §7 — (1) the Control Structure Tree as a sequence of grammar
//! productions, (2) the instruction stream of each block in the fixed
//! CST-derived order, (3) the phi operands, which may reference
//! forward and are therefore postponed.

use crate::bits::BitWriter;
use crate::layout::{CstTag, Opc, CST_TAGS, MAGIC, OPCODES, VERSION};
use crate::refs::{with_derived, write_ref, write_type, Derived, RegisterFiles};
use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::cst::Cst;
use safetsa_core::dom::DomTree;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::module::Module;
use safetsa_core::primops;
use safetsa_core::types::{FieldRef, MethodKind, MethodRef, TypeKind, TypeTable};
use safetsa_core::typing;
use safetsa_core::value::{BlockId, Literal, ValueId};

/// A module handed to [`encode_module`] was not in the verified shape
/// the encoder requires. Producers that verify before encoding never
/// see these; they exist so a buggy or hostile producer pipeline gets a
/// structured error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A function body is not a well-formed CFG.
    UnverifiedFunction(String),
    /// Imported (consumer-generated) classes must precede every
    /// transmitted class.
    ImportedNotPrefix,
    /// A transmitted class has no superclass (only the imported root
    /// `Object` may omit one).
    RootClassTransmitted(String),
    /// An instruction's operand planes could not be derived.
    MalformedInstruction(String),
    /// An operand does not dominate the block that uses it — exactly
    /// the property the `(l, r)` reference coding cannot express.
    OperandNotDominating {
        /// The operand value.
        value: ValueId,
        /// The block containing the use.
        block: BlockId,
    },
    /// An operand is not visible on its type plane at the use site.
    OperandNotVisible {
        /// The operand value.
        value: ValueId,
        /// The block containing the use.
        block: BlockId,
    },
    /// A phi lacks an argument for one of its incoming edges.
    PhiMissingEdge {
        /// The block whose phi is incomplete.
        block: BlockId,
    },
    /// `return v` inside a function declared without a return type.
    MissingReturnType,
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::UnverifiedFunction(s) => write!(f, "unverified function: {s}"),
            EncodeError::ImportedNotPrefix => {
                write!(f, "imported classes must form a prefix")
            }
            EncodeError::RootClassTransmitted(name) => {
                write!(f, "transmitted class {name} has no superclass")
            }
            EncodeError::MalformedInstruction(s) => write!(f, "malformed instruction: {s}"),
            EncodeError::OperandNotDominating { value, block } => {
                write!(f, "operand {value} does not dominate {block}")
            }
            EncodeError::OperandNotVisible { value, block } => {
                write!(f, "operand {value} not visible on its plane in {block}")
            }
            EncodeError::PhiMissingEdge { block } => {
                write!(f, "phi in {block} does not cover all incoming edges")
            }
            EncodeError::MissingReturnType => {
                write!(f, "return value in a void function")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Bit-exact breakdown of one encoded module by wire-format section,
/// the substrate for the paper's encoding-size comparison (Figure 5):
/// where the bytes go, not just how many there are.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sections {
    /// Magic, version, module name, and class counts.
    pub header_bits: u64,
    /// Transmitted class declarations (names, supers, fields, method
    /// signatures) — the type table.
    pub type_table_bits: u64,
    /// Per-function constant pools.
    pub const_pool_bits: u64,
    /// Phase 1: the Control Structure Tree as grammar productions.
    pub cst_bits: u64,
    /// Phase 2a: opcodes, operand types, and member references.
    pub instr_bits: u64,
    /// Phase 2b: dominator-relative `(l, r)` operand references — the
    /// per-type register planes.
    pub operand_ref_bits: u64,
    /// Phase 2c: CST-held value references (conditions, returns,
    /// throws).
    pub cst_ref_bits: u64,
    /// Phase 3: phi operand references.
    pub phi_ref_bits: u64,
    /// Function bodies encoded.
    pub functions: u64,
    /// Final stream length in bytes (including the zero padding of the
    /// last partial byte, which is why this can exceed
    /// `total_bits() / 8`).
    pub total_bytes: u64,
}

impl Sections {
    /// Sum of all section bit counts.
    pub fn total_bits(&self) -> u64 {
        self.header_bits
            + self.type_table_bits
            + self.const_pool_bits
            + self.cst_bits
            + self.instr_bits
            + self.operand_ref_bits
            + self.cst_ref_bits
            + self.phi_ref_bits
    }
}

/// Encodes a module into its wire form.
///
/// The module must verify (`safetsa_core::verify::verify_module`).
///
/// # Errors
///
/// Returns [`EncodeError`] when the module is not in verified shape —
/// the encoder refuses to emit garbage.
pub fn encode_module(m: &Module) -> Result<Vec<u8>, EncodeError> {
    encode_sections(m).map(|(bytes, _)| bytes)
}

/// [`encode_module`] returning the per-section bit breakdown alongside
/// the stream. The accounting is a handful of position reads per
/// function, so it is always on.
///
/// # Errors
///
/// Returns [`EncodeError`] when the module is not in verified shape.
pub fn encode_sections(m: &Module) -> Result<(Vec<u8>, Sections), EncodeError> {
    let mut w = BitWriter::new();
    let mut sec = Sections::default();
    w.bits(MAGIC as u64, 32);
    w.bits(VERSION as u64, 8);
    w.string(&m.name);
    let n_classes = m.types.class_count();
    let n_builtin = m.types.classes().take_while(|(_, c)| c.imported).count();
    // Imported classes must form a prefix (they are generated by the
    // consumer and never transmitted).
    if !m.types.classes().skip(n_builtin).all(|(_, c)| !c.imported) {
        return Err(EncodeError::ImportedNotPrefix);
    }
    w.gamma(n_classes as u64);
    w.gamma(n_builtin as u64);
    sec.header_bits = w.bit_len() as u64;
    for (_, class) in m.types.classes().skip(n_builtin) {
        w.string(&class.name);
        let sup = class
            .superclass
            .ok_or_else(|| EncodeError::RootClassTransmitted(class.name.clone()))?
            .0;
        w.symbol(sup, n_classes as u32);
        w.gamma(class.fields.len() as u64);
        for f in &class.fields {
            w.string(&f.name);
            write_type(&mut w, &m.types, f.ty);
            w.bits(u64::from(f.is_static), 1);
        }
        w.gamma(class.methods.len() as u64);
        for method in &class.methods {
            w.string(&method.name);
            w.gamma(method.params.len() as u64);
            for p in &method.params {
                write_type(&mut w, &m.types, *p);
            }
            match method.ret {
                None => w.bits(0, 1),
                Some(r) => {
                    w.bits(1, 1);
                    write_type(&mut w, &m.types, r);
                }
            }
            let kind = match method.kind {
                MethodKind::Static => 0,
                MethodKind::Virtual => 1,
                MethodKind::Special => 2,
            };
            w.symbol(kind, crate::layout::METHOD_KINDS);
            w.bits(u64::from(method.body.is_some()), 1);
        }
    }
    sec.type_table_bits = w.bit_len() as u64 - sec.header_bits;
    // Function bodies in (class, method) order, with the thread's one
    // set of derived graphs and register files rebuilt for each.
    with_derived(|derived| {
        for (_, class) in m.types.classes() {
            for method in &class.methods {
                if let Some(body) = method.body {
                    let f = &m.functions[body as usize];
                    encode_function(&mut w, &m.types, f, &mut sec, derived)?;
                    sec.functions += 1;
                }
            }
        }
        Ok(())
    })?;
    let bytes = w.into_bytes();
    sec.total_bytes = bytes.len() as u64;
    Ok((bytes, sec))
}

/// Encodes one function body as a standalone section: exactly the bits
/// [`encode_sections`] emits for the same function inside a module
/// stream, padded to a byte boundary.
///
/// The per-function encoding is *structural*: it consults the type
/// table only through class identities, class layouts (field/method
/// counts, signatures), and the total class count — never through
/// interning order — so a section encoded against one table re-encodes
/// bit-identically against any table with the same classes. This is
/// what lets the incremental store keep per-method sections and the
/// driver splice reused methods into freshly built modules (see
/// DESIGN.md, "Incremental compilation").
///
/// # Errors
///
/// Returns [`EncodeError`] when the function is not in verified shape.
pub fn encode_function_section(
    types: &TypeTable,
    f: &Function,
) -> Result<(Vec<u8>, Sections), EncodeError> {
    let mut w = BitWriter::new();
    let mut sec = Sections::default();
    with_derived(|derived| encode_function(&mut w, types, f, &mut sec, derived))?;
    sec.functions = 1;
    let bytes = w.into_bytes();
    sec.total_bytes = bytes.len() as u64;
    Ok((bytes, sec))
}

fn encode_function(
    w: &mut BitWriter,
    types: &TypeTable,
    f: &Function,
    sec: &mut Sections,
    derived: &mut Derived,
) -> Result<(), EncodeError> {
    let Derived { cfg, dom, regs, .. } = derived;
    cfg.rebuild(f)
        .map_err(|e| EncodeError::UnverifiedFunction(e.to_string()))?;
    dom.rebuild(cfg);
    regs.rebuild(f);
    let (cfg, dom, regs): (&Cfg, &DomTree, &RegisterFiles) = (cfg, dom, regs);
    let mut mark = w.bit_len() as u64;
    let mut section = |w: &BitWriter, slot: &mut u64| {
        let here = w.bit_len() as u64;
        *slot += here - mark;
        mark = here;
    };
    // Constant pool.
    w.gamma(f.consts.len() as u64);
    for c in &f.consts {
        write_type(w, types, c.ty);
        encode_literal(w, &c.lit);
    }
    section(w, &mut sec.const_pool_bits);
    // Phase 1: the CST as grammar productions.
    let mut depths = (0u32, 0u32);
    encode_cst(w, &f.body, &mut depths);
    section(w, &mut sec.cst_bits);
    // Phase 2a: opcodes, types, and member references of every block in
    // the CST-derived traversal order. Operands are postponed so a
    // streaming consumer knows every plane's register count (and the
    // complete control-flow graph, exception edges included) before the
    // first reference arrives.
    for &b in &cfg.traversal {
        let block = f.block(b);
        w.gamma(block.phis.len() as u64);
        for phi in &block.phis {
            write_type(w, types, phi.ty);
        }
        w.gamma(block.instrs.len() as u64);
        for instr in &block.instrs {
            encode_instr_fields(w, types, instr);
        }
    }
    section(w, &mut sec.instr_bits);
    // Phase 2b: the operand references.
    for &b in &cfg.traversal {
        let block = f.block(b);
        for (k, instr) in block.instrs.iter().enumerate() {
            let sig = typing::signature(types, instr)
                .map_err(|e| EncodeError::MalformedInstruction(e.to_string()))?;
            for (&v, &plane) in instr.operands().iter().zip(sig.operands.iter()) {
                write_ref(w, f, regs, dom, b, Some(k), plane, v)?;
            }
        }
    }
    section(w, &mut sec.operand_ref_bits);
    // Phase 2c: CST value references (conditions, returns, throws) in
    // the frontier-walk order.
    let mut rw = RefWalk {
        w,
        types,
        f,
        cfg,
        dom,
        regs,
    };
    rw.walk(&f.body, Fr::Start)?;
    section(w, &mut sec.cst_ref_bits);
    // Phase 3: phi operands.
    for &b in &cfg.traversal {
        let preds = cfg.preds_of(b);
        for phi in &f.block(b).phis {
            for e in preds {
                let v = phi
                    .arg_from(e.from)
                    .ok_or(EncodeError::PhiMissingEdge { block: b })?;
                let limit = match e.kind {
                    EdgeKind::Normal => None,
                    EdgeKind::Exception { upto } => Some(upto as usize),
                };
                write_ref(w, f, regs, dom, e.from, limit, phi.ty, v)?;
            }
        }
    }
    section(w, &mut sec.phi_ref_bits);
    Ok(())
}

fn encode_literal(w: &mut BitWriter, lit: &Literal) {
    match lit {
        Literal::Bool(b) => w.bits(u64::from(*b), 1),
        Literal::Char(c) => w.bits(*c as u64, 16),
        Literal::Int(v) => w.bits(*v as u32 as u64, 32),
        Literal::Long(v) => w.bits(*v as u64, 64),
        Literal::Float(v) => w.bits(v.to_bits() as u64, 32),
        Literal::Double(v) => w.bits(v.to_bits(), 64),
        Literal::Null => w.bits(0, 1),
        Literal::Str(s) => {
            w.bits(1, 1);
            w.string(s);
        }
    }
}

fn encode_cst(w: &mut BitWriter, cst: &Cst, depths: &mut (u32, u32)) {
    match cst {
        Cst::Basic(_) => w.symbol(CstTag::Basic as u32, CST_TAGS),
        Cst::Seq(items) => {
            w.symbol(CstTag::Seq as u32, CST_TAGS);
            w.gamma(items.len() as u64);
            for c in items {
                encode_cst(w, c, depths);
            }
        }
        Cst::If {
            then_br, else_br, ..
        } => {
            w.symbol(CstTag::If as u32, CST_TAGS);
            encode_cst(w, then_br, depths);
            encode_cst(w, else_br, depths);
        }
        Cst::Loop { body, .. } => {
            w.symbol(CstTag::Loop as u32, CST_TAGS);
            depths.1 += 1;
            encode_cst(w, body, depths);
            depths.1 -= 1;
        }
        Cst::Labeled { body, .. } => {
            w.symbol(CstTag::Labeled as u32, CST_TAGS);
            depths.0 += 1;
            encode_cst(w, body, depths);
            depths.0 -= 1;
        }
        Cst::Break(n) => {
            w.symbol(CstTag::Break as u32, CST_TAGS);
            w.symbol(*n, depths.0);
        }
        Cst::Continue(n) => {
            w.symbol(CstTag::Continue as u32, CST_TAGS);
            w.symbol(*n, depths.1);
        }
        Cst::Return(_) => w.symbol(CstTag::Return as u32, CST_TAGS),
        Cst::Throw(_) => w.symbol(CstTag::Throw as u32, CST_TAGS),
        Cst::Try { body, handler, .. } => {
            w.symbol(CstTag::Try as u32, CST_TAGS);
            encode_cst(w, body, depths);
            encode_cst(w, handler, depths);
        }
    }
}

fn write_field_ref(w: &mut BitWriter, types: &TypeTable, fr: FieldRef) {
    w.symbol(fr.class.0, types.class_count() as u32);
    let n = types.class(fr.class).fields.len() as u32;
    w.symbol(fr.index, n);
}

fn write_method_ref(w: &mut BitWriter, types: &TypeTable, mr: MethodRef) {
    w.symbol(mr.class.0, types.class_count() as u32);
    let n = types.class(mr.class).methods.len() as u32;
    w.symbol(mr.index, n);
}

fn encode_instr_fields(w: &mut BitWriter, types: &TypeTable, instr: &Instr) {
    match instr {
        Instr::Primitive { ty, op, .. } | Instr::XPrimitive { ty, op, .. } => {
            let x = matches!(instr, Instr::XPrimitive { .. });
            w.symbol(
                if x { Opc::XPrimitive } else { Opc::Primitive } as u32,
                OPCODES,
            );
            write_type(w, types, *ty);
            let kind = match types.kind(*ty) {
                TypeKind::Prim(p) => p,
                _ => unreachable!("verified primitive type"),
            };
            let table = primops::ops_of(kind);
            w.symbol(op.0 as u32, table.len() as u32);
        }
        Instr::NullCheck { ty, .. } => {
            w.symbol(Opc::NullCheck as u32, OPCODES);
            write_type(w, types, *ty);
        }
        Instr::IndexCheck { arr_ty, .. } => {
            w.symbol(Opc::IndexCheck as u32, OPCODES);
            write_type(w, types, *arr_ty);
        }
        Instr::Upcast { from, to, .. } => {
            w.symbol(Opc::Upcast as u32, OPCODES);
            write_type(w, types, *from);
            write_type(w, types, *to);
        }
        Instr::Downcast { from, to, .. } => {
            w.symbol(Opc::Downcast as u32, OPCODES);
            write_type(w, types, *from);
            write_type(w, types, *to);
        }
        Instr::GetField { ty, field, .. } => {
            w.symbol(Opc::GetField as u32, OPCODES);
            write_type(w, types, *ty);
            write_field_ref(w, types, *field);
        }
        Instr::SetField { ty, field, .. } => {
            w.symbol(Opc::SetField as u32, OPCODES);
            write_type(w, types, *ty);
            write_field_ref(w, types, *field);
        }
        Instr::GetStatic { field } => {
            w.symbol(Opc::GetStatic as u32, OPCODES);
            write_field_ref(w, types, *field);
        }
        Instr::SetStatic { field, .. } => {
            w.symbol(Opc::SetStatic as u32, OPCODES);
            write_field_ref(w, types, *field);
        }
        Instr::GetElt { arr_ty, .. } => {
            w.symbol(Opc::GetElt as u32, OPCODES);
            write_type(w, types, *arr_ty);
        }
        Instr::SetElt { arr_ty, .. } => {
            w.symbol(Opc::SetElt as u32, OPCODES);
            write_type(w, types, *arr_ty);
        }
        Instr::ArrayLength { arr_ty, .. } => {
            w.symbol(Opc::ArrayLength as u32, OPCODES);
            write_type(w, types, *arr_ty);
        }
        Instr::New { class_ty } => {
            w.symbol(Opc::New as u32, OPCODES);
            write_type(w, types, *class_ty);
        }
        Instr::NewArray { arr_ty, .. } => {
            w.symbol(Opc::NewArray as u32, OPCODES);
            write_type(w, types, *arr_ty);
        }
        Instr::XCall {
            base_ty,
            method,
            receiver,
            ..
        } => {
            w.symbol(Opc::XCall as u32, OPCODES);
            write_type(w, types, *base_ty);
            write_method_ref(w, types, *method);
            w.bits(u64::from(receiver.is_some()), 1);
        }
        Instr::XDispatch {
            base_ty, method, ..
        } => {
            w.symbol(Opc::XDispatch as u32, OPCODES);
            write_type(w, types, *base_ty);
            write_method_ref(w, types, *method);
        }
        Instr::RefEq { ty, .. } => {
            w.symbol(Opc::RefEq as u32, OPCODES);
            write_type(w, types, *ty);
        }
        Instr::InstanceOf { from, target, .. } => {
            w.symbol(Opc::InstanceOf as u32, OPCODES);
            write_type(w, types, *from);
            write_type(w, types, *target);
        }
        Instr::Catch { ty } => {
            w.symbol(Opc::Catch as u32, OPCODES);
            write_type(w, types, *ty);
        }
    }
}

// --------------------------------------------------------------------
// Phase 2c: value references held by CST nodes, emitted in the same
// frontier-walk order the decoder replays.

#[derive(Clone, Copy, PartialEq)]
enum Fr {
    Start,
    At(BlockId),
    Dead,
}

struct RefWalk<'a> {
    w: &'a mut BitWriter,
    types: &'a TypeTable,
    f: &'a Function,
    cfg: &'a Cfg,
    dom: &'a DomTree,
    regs: &'a RegisterFiles,
}

impl<'a> RefWalk<'a> {
    /// A join is live exactly when it has incoming edges (the CFG was
    /// built once, from the real structure).
    fn live_join(&self, join: BlockId) -> Fr {
        if self.cfg.preds_of(join).is_empty() {
            Fr::Dead
        } else {
            Fr::At(join)
        }
    }

    fn walk(&mut self, cst: &Cst, fr: Fr) -> Result<Fr, EncodeError> {
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
                    write_ref(
                        self.w,
                        self.f,
                        self.regs,
                        self.dom,
                        b,
                        None,
                        self.types.bool_ty(),
                        *cond,
                    )?;
                }
                let _ = self.walk(then_br, fr)?;
                let _ = self.walk(else_br, fr)?;
                self.live_join(*join)
            }
            Cst::Loop { header, body } => {
                let inner = match fr {
                    Fr::Dead => Fr::Dead,
                    _ => Fr::At(*header),
                };
                let _ = self.walk(body, inner)?;
                Fr::Dead
            }
            Cst::Labeled { body, join } => {
                let _ = self.walk(body, fr)?;
                self.live_join(*join)
            }
            Cst::Break(_) | Cst::Continue(_) => Fr::Dead,
            Cst::Return(v) => {
                if let (Fr::At(b), Some(v)) = (fr, v) {
                    let plane = self.f.ret.ok_or(EncodeError::MissingReturnType)?;
                    write_ref(self.w, self.f, self.regs, self.dom, b, None, plane, *v)?;
                }
                Fr::Dead
            }
            Cst::Throw(v) => {
                if let Fr::At(b) = fr {
                    let plane = self.f.value_ty(*v);
                    write_type(self.w, self.types, plane);
                    write_ref(self.w, self.f, self.regs, self.dom, b, None, plane, *v)?;
                }
                Fr::Dead
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                let _ = self.walk(body, fr)?;
                let h = if self.cfg.preds_of(*handler_entry).is_empty() {
                    Fr::Dead
                } else {
                    Fr::At(*handler_entry)
                };
                let _ = self.walk(handler, h)?;
                self.live_join(*join)
            }
        })
    }
}
