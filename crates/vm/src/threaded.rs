//! The direct-threaded execution core.
//!
//! At first call, each function's verified SSA stream is *decoded*:
//! the Control Structure Tree is flattened into a linear array of
//! [`Op`]s with branch targets as array indices, operands resolved to
//! dense frame slots, phi parallel copies resolved per static edge into
//! sequential [`Op::Moves`], and field/method references resolved to
//! layout slots and call targets. Primitive ops carry their row of the
//! trusted `core::primops` tables, which the loop evaluates in place
//! through the inlined [`primops::apply1`]/[`primops::apply2`], the
//! semantics constant folding uses. The dispatch loop is a single match
//! over a dense op enum (a jump table).
//!
//! Five optimizations ride on the decoded form (see DESIGN.md
//! "Interpreter architecture"):
//!
//! * **Superinstruction fusion** — the top opcode pairs from the corpus
//!   profiler histogram (nullcheck+getfield, indexcheck+getelt, cmp+
//!   branch, …) are fused at decode time into single ops that do both
//!   steps with one dispatch and, for the check fusions, one heap
//!   lookup instead of two. A fused op still writes the check's SSA
//!   result (later instructions may use it) and still counts both
//!   constituents in the opcode histogram.
//! * **Monomorphic inline caches** — each decoded `xdispatch` site
//!   caches (runtime class → resolved target). The guard compares the
//!   receiver's runtime class id; the type table's dispatch slots and
//!   intrinsic bindings are immutable after load, so the cache never
//!   needs invalidation and a hit is always sound. Misses fall back to
//!   [`safetsa_core::types::TypeTable::dispatch`] and re-fill the cache
//!   (always-replace, so megamorphic sites degrade to the old path plus
//!   one compare).
//! * **Block-granularity fuel** — fuel is charged once per basic block
//!   (its charged-op count) at block entry instead of per instruction.
//!   A run completes iff fuel ≥ total charged steps; a budget that runs
//!   out does so at the entry of the block that would overrun it, at
//!   most one block before the overrunning instruction, so fuel remains
//!   a hard ceiling.
//! * **Prologues folded into edges** — a block's entry work (fuel,
//!   steps, slice countdown, stats) is carried by each jump, branch arm
//!   or phi-move op that enters it, so a control transfer is one
//!   dispatch. The `Block` op stays in place for entries that fall
//!   into it, so op indices, block starts and handler entries do not
//!   move.
//! * **Frame templates** — a call starts from a copy of the callee's
//!   template (value table plus one scratch slot, non-string constants
//!   in place) in a pooled buffer, and arguments go slot to slot from
//!   the caller's frame.

use crate::interp::{Vm, DEADLINE_SLICE, PROFILE_WINDOW};
use safetsa_core::cst::Cst;
use safetsa_core::function::{Function, ENTRY};
use safetsa_core::instr::Instr;
use safetsa_core::module::FuncId;
use safetsa_core::primops::{self, PrimOp, PrimOpId};
use safetsa_core::types::{ClassId, MethodKind, MethodRef, PrimKind, TypeId, TypeKind};
use safetsa_core::value::{BlockId, Literal};
use safetsa_rt::heap::Obj;
use safetsa_rt::{intrinsics, HeapRef, Trap, Value};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// A dense frame-slot index (the raw `ValueId`).
type Slot = u32;

/// Sentinel slot for "no receiver" / "no result".
const NO_SLOT: Slot = u32::MAX;

/// `int` comparison predicate (the cmp half of the fused cmp+branch).
#[derive(Debug, Clone, Copy)]
pub(crate) enum CmpPred {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// The predicate of binary row `op` of `kind` when it is an `int`
/// comparison, read off the row's truth table so that the fused compare
/// computes what the row does; `None` for every other row.
fn cmp_pred(kind: PrimKind, op: PrimOpId, row: &PrimOp) -> Option<CmpPred> {
    if row.params != [PrimKind::Int, PrimKind::Int] {
        return None;
    }
    let holds = |x, y| {
        matches!(
            primops::apply2::<Vals>(kind, op, &Value::I(x), &Value::I(y)),
            Ok(Value::Z(true))
        )
    };
    Some(match (holds(0, 1), holds(1, 0), holds(0, 0)) {
        (false, false, true) => CmpPred::Eq,
        (true, true, false) => CmpPred::Ne,
        (true, false, false) => CmpPred::Lt,
        (true, false, true) => CmpPred::Le,
        (false, true, false) => CmpPred::Gt,
        (false, true, true) => CmpPred::Ge,
        _ => return None,
    })
}

#[inline]
fn cmp_eval(pred: CmpPred, x: i32, y: i32) -> bool {
    match pred {
        CmpPred::Eq => x == y,
        CmpPred::Ne => x != y,
        CmpPred::Lt => x < y,
        CmpPred::Le => x <= y,
        CmpPred::Gt => x > y,
        CmpPred::Ge => x >= y,
    }
}

/// The VM's access to primitive values for [`primops::apply1`] and
/// [`primops::apply2`], whose instantiation over it the dispatch loop
/// inlines: each primitive op evaluates its row in place, with no call.
struct Vals;

impl primops::Scalar for Vals {
    type Value = Value;
    type Trap = Trap;
    fn div_by_zero() -> Trap {
        Trap::DivByZero
    }
    fn z(v: &Value) -> bool {
        v.as_z()
    }
    fn c(v: &Value) -> u16 {
        v.as_c()
    }
    fn i(v: &Value) -> i32 {
        v.as_i()
    }
    fn j(v: &Value) -> i64 {
        v.as_j()
    }
    fn f(v: &Value) -> f32 {
        v.as_f()
    }
    fn d(v: &Value) -> f64 {
        v.as_d()
    }
    fn of_z(x: bool) -> Value {
        Value::Z(x)
    }
    fn of_c(x: u16) -> Value {
        Value::C(x)
    }
    fn of_i(x: i32) -> Value {
        Value::I(x)
    }
    fn of_j(x: i64) -> Value {
        Value::J(x)
    }
    fn of_f(x: f32) -> Value {
        Value::F(x)
    }
    fn of_d(x: f64) -> Value {
        Value::D(x)
    }
}

/// A resolved call target: a guest function body or a host intrinsic.
#[derive(Debug, Clone, Copy)]
pub(crate) enum CallTarget {
    /// Guest function body.
    Func(FuncId),
    /// Host intrinsic; `is_static` drops the receiver before invoke.
    Intrinsic {
        /// The resolved intrinsic.
        id: intrinsics::Intrinsic,
        /// Whether the target method is static.
        is_static: bool,
    },
}

/// Array element representation, pre-resolved from the element type.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ElemKind {
    Z,
    C,
    I,
    J,
    F,
    D,
    R,
}

/// Per-block metadata: the *original* (pre-fusion) instruction
/// mnemonics in execution order, both as a list (the profiler's window
/// reads it, so pair histograms count the unfused instruction stream)
/// and aggregated (for the stats opcode histogram).
pub(crate) struct BlockMeta {
    /// Original mnemonics in order.
    pub(crate) mnems: Box<[&'static str]>,
    /// Aggregated mnemonic counts.
    pub(crate) counts: Box<[(&'static str, u32)]>,
    /// Entries since the last stats fold (bumped only while stats are
    /// on); [`Vm::fold_stats`] multiplies it into `counts`.
    pub(crate) hits: Cell<u64>,
}

/// The superinstruction pairs, as `VmStats::fused` keys. While stats are
/// on, each fused op bumps its slot in `Vm::fused_hits`; the
/// `FUSE_*` constants index both arrays.
pub(crate) const FUSED_PAIRS: [&str; 6] = [
    "primitive>branch",
    "primitive>primitive",
    "nullcheck>getfield",
    "nullcheck>setfield",
    "indexcheck>getelt",
    "indexcheck>setelt",
];
const FUSE_CMP_BRANCH: usize = 0;
const FUSE_PRIM_PAIR: usize = 1;
const FUSE_NULL_GETFIELD: usize = 2;
const FUSE_NULL_SETFIELD: usize = 3;
const FUSE_IDX_GETELT: usize = 4;
const FUSE_IDX_SETELT: usize = 5;

/// One slot of [`BlockRing`]: the first `n` mnemonics of block `bi` of
/// function `func` ran; `n == 0` marks a slot never filled.
#[derive(Clone, Copy, Default)]
struct RingSlot {
    func: u32,
    bi: u32,
    n: u32,
}

/// The profiler's opcode window, recorded per block: the last
/// [`PROFILE_WINDOW`] non-empty blocks entered, newest last. Empty
/// blocks are never pushed, so every filled slot holds at least one
/// mnemonic and the slots together cover the window; the window's
/// mnemonics are read back only when a sample is taken.
#[derive(Default)]
pub(crate) struct BlockRing {
    slots: [RingSlot; PROFILE_WINDOW],
    next: usize,
}

impl BlockRing {
    /// Records that the `n > 0` mnemonics of block `bi` of `func` ran.
    #[inline(always)]
    fn push(&mut self, func: FuncId, bi: u32, n: u32) {
        // `next` is always in range; the mask lets the compiler see it.
        let at = self.next % PROFILE_WINDOW;
        self.next = (at + 1) % PROFILE_WINDOW;
        self.slots[at] = RingSlot {
            func: func.0,
            bi,
            n,
        };
    }

    /// Cuts the newest block to its first `n > 0` mnemonics.
    fn cut_newest(&mut self, n: u32) {
        self.slots[(self.next + PROFILE_WINDOW - 1) % PROFILE_WINDOW].n = n;
    }

    /// The last (up to) [`PROFILE_WINDOW`] mnemonics that ran, oldest
    /// first, read from the blocks' decoded functions in `tcode` and
    /// written to the tail of `buf`.
    fn window<'b>(
        &self,
        tcode: &[Option<Rc<TFunc>>],
        buf: &'b mut [&'static str; PROFILE_WINDOW],
    ) -> &'b [&'static str] {
        let mut start = PROFILE_WINDOW;
        for back in 1..=PROFILE_WINDOW {
            let slot = self.slots[(self.next + PROFILE_WINDOW - back) % PROFILE_WINDOW];
            if slot.n == 0 {
                break;
            }
            let tf = tcode[slot.func as usize]
                .as_ref()
                .expect("a block in the ring belongs to a decoded function");
            for &m in tf.blocks[slot.bi as usize].mnems[..slot.n as usize]
                .iter()
                .rev()
            {
                start -= 1;
                buf[start] = m;
                if start == 0 {
                    return &buf[..];
                }
            }
        }
        &buf[start..]
    }
}

/// The sequential `(dst, src)` phi copies for one static predecessor
/// block.
type PredMoves = (u32, Box<[(Slot, Slot)]>);

/// Where a control transfer lands: the op to continue at and, when the
/// decoder folded it in, the `(cost, bi)` prologue of the entered block,
/// whose [`Op::Block`] at `pc - 1` is then skipped.
#[derive(Clone, Copy)]
pub(crate) struct Edge {
    pc: u32,
    enter: Option<(u32, u32)>,
}

impl Edge {
    /// A transfer to `pc` with no folded prologue.
    fn to(pc: u32) -> Edge {
        Edge { pc, enter: None }
    }
}

/// One exception-handler region: where to resume, and the handler-entry
/// phi moves keyed by static predecessor block.
#[derive(Default)]
pub(crate) struct HandlerInfo {
    /// Op index of the handler-entry block.
    pub(crate) entry_pc: u32,
    /// Whether the handler entry has phis at all (a faulting block with
    /// no move entry is then an internal error: a missing phi argument).
    pub(crate) has_phis: bool,
    /// Per-predecessor sequential `(dst, src)` copies.
    pub(crate) moves: Vec<PredMoves>,
}

/// One decoded direct-threaded op.
pub(crate) enum Op {
    /// Basic-block prologue: charges `cost` fuel (the block's charged-op
    /// count), runs the slice/profiler countdown, bumps the block's
    /// stats entry counter. Runs only for entries that fall into the
    /// block; edges carry it themselves.
    Block { cost: u32, bi: u32 },
    /// Unconditional jump.
    Jump { to: Edge },
    /// Take `then` when the slot holds `true`, `els` otherwise.
    BranchFalse { cond: Slot, then: Edge, els: Edge },
    /// Fused int-compare + branch: writes the compare result (it is an
    /// SSA value later ops may read), then branches on it.
    CmpBranchFalse {
        pred: CmpPred,
        a: Slot,
        b: Slot,
        dst: Slot,
        then: Edge,
        els: Edge,
    },
    /// The phi copies of one static CFG edge, in an order that needs no
    /// staging, then the transfer along it.
    Moves {
        pairs: Box<[(Slot, Slot)]>,
        to: Edge,
    },
    /// Return (`NO_SLOT` = void).
    Ret { src: Slot },
    /// `throw`: null receiver traps NullPointer, else a user trap.
    Throw { src: Slot },
    /// Enter a `try` region.
    PushHandler { h: u32 },
    /// Leave a `try` region on the normal path.
    PopHandler,
    /// Statically safe cast (downcast): a slot copy.
    Copy { src: Slot, dst: Slot },
    /// Unary primitive: row `op` of `kind`'s table.
    Prim1 {
        kind: PrimKind,
        op: PrimOpId,
        a: Slot,
        dst: Slot,
    },
    /// Binary primitive: row `op` of `kind`'s table.
    Prim2 {
        kind: PrimKind,
        op: PrimOpId,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    /// Fused pair of binary primitives (sequential: the first result is
    /// written before the second op's operands are read).
    Prim2Pair {
        k1: PrimKind,
        op1: PrimOpId,
        a1: Slot,
        b1: Slot,
        d1: Slot,
        k2: PrimKind,
        op2: PrimOpId,
        a2: Slot,
        b2: Slot,
        d2: Slot,
    },
    /// `int` comparison (kept separate so the If flattener can fuse it
    /// into [`Op::CmpBranchFalse`]).
    IntCmp {
        pred: CmpPred,
        a: Slot,
        b: Slot,
        dst: Slot,
    },
    /// Null check.
    NullCheck { v: Slot, dst: Slot },
    /// Field read through a pre-resolved layout slot.
    GetField { obj: Slot, slot: u32, dst: Slot },
    /// Fused nullcheck + getfield: one null test, one heap lookup.
    NullGetField {
        obj: Slot,
        slot: u32,
        chk: Slot,
        dst: Slot,
    },
    /// Field write.
    SetField { obj: Slot, slot: u32, val: Slot },
    /// Fused nullcheck + setfield.
    NullSetField {
        obj: Slot,
        slot: u32,
        val: Slot,
        chk: Slot,
    },
    /// Static-field read.
    GetStatic { class: u32, idx: u32, dst: Slot },
    /// Static-field write.
    SetStatic { class: u32, idx: u32, val: Slot },
    /// Bounds check.
    IndexCheck { arr: Slot, idx: Slot, dst: Slot },
    /// Array element read.
    GetElt { arr: Slot, idx: Slot, dst: Slot },
    /// Fused indexcheck + getelt: one heap lookup serves both the
    /// bounds test and the element read.
    IdxGetElt {
        arr: Slot,
        idx: Slot,
        chk: Slot,
        dst: Slot,
    },
    /// Array element write.
    SetElt { arr: Slot, idx: Slot, val: Slot },
    /// Fused indexcheck + setelt.
    IdxSetElt {
        arr: Slot,
        idx: Slot,
        val: Slot,
        chk: Slot,
    },
    /// Array length read.
    ArrayLength { arr: Slot, dst: Slot },
    /// Class-instance allocation.
    New { class: ClassId, dst: Slot },
    /// Array allocation with pre-resolved element width and kind.
    NewArray {
        elem: ElemKind,
        width: u64,
        type_tag: u64,
        len: Slot,
        dst: Slot,
    },
    /// Dynamically checked cast.
    Upcast { to: TypeId, v: Slot, dst: Slot },
    /// Runtime type test.
    InstanceOf { target: TypeId, v: Slot, dst: Slot },
    /// Reference identity.
    RefEq { a: Slot, b: Slot, dst: Slot },
    /// Materialize the in-flight exception.
    Catch { dst: Slot },
    /// Statically bound call (`xcall`), target resolved at decode time.
    Call {
        target: CallTarget,
        recv: Slot,
        args: Box<[Slot]>,
        dst: Slot,
    },
    /// Dynamic dispatch (`xdispatch`) with a monomorphic inline cache
    /// keyed by the receiver's runtime class id.
    Dispatch {
        vslot: u32,
        ic: Cell<Option<(u32, CallTarget)>>,
        recv: Slot,
        args: Box<[Slot]>,
        dst: Slot,
    },
    /// Decode-time-unresolvable instruction: traps Internal when (if
    /// ever) executed, so a bad reference fails only the path using it.
    Fail { msg: Box<str> },
}

// The dispatch loop indexes the op array in strides of `size_of::<Op>()`;
// 48 bytes is the widest op today, and a wider field grows every op.
const _: () = assert!(std::mem::size_of::<Op>() <= 48);

/// A fully decoded function.
pub(crate) struct TFunc {
    /// The function this was decoded from.
    pub(crate) id: FuncId,
    /// Diagnostic name (for the profiler's hot-function table).
    pub(crate) name: String,
    /// The frame a call starts from: the SSA value table plus one
    /// scratch slot for breaking phi-copy cycles, zero-filled, with
    /// every non-string constant in place.
    pub(crate) template: Box<[Value]>,
    /// String constants `(slot, text)`, interned on every entry in
    /// constant-pool order.
    pub(crate) strs: Box<[(Slot, String)]>,
    /// The decoded op array.
    pub(crate) code: Vec<Op>,
    /// Per-block metadata, indexed by the `bi` field of [`Op::Block`].
    pub(crate) blocks: Vec<BlockMeta>,
    /// `(op index, BlockId.0)` of every emitted block, sorted by op
    /// index — binary-searched during unwinding to find the faulting
    /// block (the dynamic predecessor of the handler entry).
    pub(crate) block_starts: Vec<(u32, u32)>,
    /// Exception-handler regions, indexed by [`Op::PushHandler`].
    pub(crate) handlers: Vec<HandlerInfo>,
}

// ---------------------------------------------------------------------
// Decoding: CST flattening + instruction decode + peephole fusion.
// ---------------------------------------------------------------------

enum Ctx {
    Labeled { join: BlockId, patches: Vec<usize> },
    Loop { header_pc: u32, header: BlockId },
    Try,
}

struct Flattener<'a, 'm> {
    vm: &'a Vm<'m>,
    f: &'m Function,
    code: Vec<Op>,
    blocks: Vec<BlockMeta>,
    block_starts: Vec<(u32, u32)>,
    handlers: Vec<HandlerInfo>,
    ctx: Vec<Ctx>,
    cur: BlockId,
    copies: CopySequencer,
}

/// Orders phi parallel copies into sequential ones, in time linear in
/// the copies: its per-slot tables are sized to the frame once per
/// function and left clean after each edge.
struct CopySequencer {
    /// The frame's scratch slot, one past the value table.
    scratch: Slot,
    /// Pending copies reading each slot.
    readers: Vec<u32>,
    /// Each pending destination's current source (`NO_SLOT`: none).
    source: Vec<Slot>,
}

impl CopySequencer {
    fn new(nvals: usize) -> Self {
        CopySequencer {
            scratch: nvals as Slot,
            readers: vec![0; nvals + 1],
            source: vec![NO_SLOT; nvals + 1],
        }
    }

    /// Sequential copies with the effect of the parallel copy `pairs`
    /// (`(dst, src)`, destinations distinct). A copy is emitted once no
    /// pending copy still reads its destination; what is left after
    /// that are cycles, and each is broken by saving one destination in
    /// the scratch slot.
    fn order(&mut self, pairs: &[(Slot, Slot)]) -> Box<[(Slot, Slot)]> {
        let moved = || pairs.iter().filter(|&&(d, s)| d != s);
        for &(d, s) in moved() {
            self.source[d as usize] = s;
            self.readers[s as usize] += 1;
        }
        let mut ready: Vec<Slot> = moved()
            .filter(|&&(d, _)| self.readers[d as usize] == 0)
            .map(|&(d, _)| d)
            .collect();
        let mut out = Vec::with_capacity(pairs.len() + 1);
        let mut rest = moved();
        loop {
            while let Some(d) = ready.pop() {
                let s = std::mem::replace(&mut self.source[d as usize], NO_SLOT);
                out.push((d, s));
                self.readers[s as usize] -= 1;
                if self.readers[s as usize] == 0 && self.source[s as usize] != NO_SLOT {
                    ready.push(s);
                }
            }
            // Every pending destination is now read by exactly one
            // pending copy, so following sources from `d` comes back
            // to it.
            let Some(&(d, _)) = rest.find(|&&(d, _)| self.source[d as usize] != NO_SLOT) else {
                break;
            };
            out.push((self.scratch, d));
            let mut reader = d;
            while self.source[reader as usize] != d {
                reader = self.source[reader as usize];
            }
            self.source[reader as usize] = self.scratch;
            self.readers[d as usize] = 0;
            self.readers[self.scratch as usize] += 1;
            ready.push(d);
        }
        out.into_boxed_slice()
    }
}

impl<'m> Vm<'m> {
    /// The decoded form of `fid`, decoding (and caching) on first use.
    pub(crate) fn tfunc(&mut self, fid: FuncId) -> Rc<TFunc> {
        if let Some(tf) = &self.tcode[fid.index()] {
            return tf.clone();
        }
        let tf = Rc::new(decode_function(self, fid));
        self.tcode[fid.index()] = Some(tf.clone());
        tf
    }
}

fn decode_function(vm: &Vm<'_>, fid: FuncId) -> TFunc {
    let f = vm.module.function(fid);
    let nvals = f.values.len();
    let mut fl = Flattener {
        vm,
        f,
        code: Vec::new(),
        blocks: Vec::new(),
        block_starts: Vec::new(),
        handlers: Vec::new(),
        ctx: Vec::new(),
        cur: ENTRY,
        copies: CopySequencer::new(nvals),
    };
    if fl.emit(&f.body) {
        fl.code.push(Op::Ret { src: NO_SLOT });
    }
    fold_prologues(&mut fl.code);
    let mut template = vec![Value::I(0); nvals + 1];
    let mut strs = Vec::new();
    for (i, c) in f.consts.iter().enumerate() {
        let slot = f.const_value(i).0;
        template[slot as usize] = match &c.lit {
            Literal::Str(text) => {
                strs.push((slot, text.clone()));
                continue;
            }
            Literal::Bool(b) => Value::Z(*b),
            Literal::Char(c) => Value::C(*c),
            Literal::Int(v) => Value::I(*v),
            Literal::Long(v) => Value::J(*v),
            Literal::Float(v) => Value::F(*v),
            Literal::Double(v) => Value::D(*v),
            Literal::Null => Value::NULL,
        };
    }
    TFunc {
        id: fid,
        name: f.name.clone(),
        template: template.into_boxed_slice(),
        strs: strs.into_boxed_slice(),
        code: fl.code,
        blocks: fl.blocks,
        block_starts: fl.block_starts,
        handlers: fl.handlers,
    }
}

/// The landing of a transfer to `pc`: past the [`Op::Block`] there,
/// carrying its prologue, or at `pc` itself when no block starts there.
fn land(code: &[Op], pc: u32) -> Edge {
    match code.get(pc as usize) {
        Some(&Op::Block { cost, bi }) => Edge {
            pc: pc + 1,
            enter: Some((cost, bi)),
        },
        _ => Edge::to(pc),
    }
}

/// Folds each block's prologue into the control transfers that enter
/// it: a jump, both arms of a branch, and phi moves, which take over
/// the jump that follows them or fall into the block after them. Runs
/// after jump patching and rewrites ops in place, so no index moves;
/// `Block` ops are never rewritten, and walking backwards folds a jump
/// before the moves that adopt its edge.
fn fold_prologues(code: &mut [Op]) {
    for at in (0..code.len()).rev() {
        match code[at] {
            Op::Jump { to } => {
                code[at] = Op::Jump {
                    to: land(code, to.pc),
                };
            }
            Op::BranchFalse { cond, then, els } => {
                code[at] = Op::BranchFalse {
                    cond,
                    then: land(code, then.pc),
                    els: land(code, els.pc),
                };
            }
            Op::CmpBranchFalse {
                pred,
                a,
                b,
                dst,
                then,
                els,
            } => {
                code[at] = Op::CmpBranchFalse {
                    pred,
                    a,
                    b,
                    dst,
                    then: land(code, then.pc),
                    els: land(code, els.pc),
                };
            }
            Op::Moves { to: next, .. } => {
                let edge = match code.get(next.pc as usize) {
                    Some(&Op::Jump { to }) => to,
                    _ => land(code, next.pc),
                };
                if let Op::Moves { to, .. } = &mut code[at] {
                    *to = edge;
                }
            }
            _ => {}
        }
    }
}

impl<'a, 'm> Flattener<'a, 'm> {
    fn push_branch(&mut self, cond: Slot) {
        let then = Edge::to(self.code.len() as u32 + 1);
        self.code.push(Op::BranchFalse {
            cond,
            then,
            els: Edge::to(0),
        });
    }

    fn push_jump(&mut self) -> usize {
        self.code.push(Op::Jump { to: Edge::to(0) });
        self.code.len() - 1
    }

    fn patch(&mut self, at: usize, target: u32) {
        match &mut self.code[at] {
            Op::Jump { to: e }
            | Op::BranchFalse { els: e, .. }
            | Op::CmpBranchFalse { els: e, .. } => {
                e.pc = target;
            }
            _ => unreachable!("patch target is not a branch"),
        }
    }

    /// Emits the phi copies for the static edge `from → to`, sequenced.
    fn emit_moves(&mut self, from: BlockId, to: BlockId) {
        let block = self.f.block(to);
        if block.phis.is_empty() {
            return;
        }
        let mut pairs = Vec::with_capacity(block.phis.len());
        for (k, phi) in block.phis.iter().enumerate() {
            match phi.arg_from(from) {
                Some(a) => pairs.push((self.f.phi_result(to, k).0, a.0)),
                None => {
                    self.code.push(Op::Fail {
                        msg: format!("phi in {to} has no arg from {from}").into(),
                    });
                    return;
                }
            }
        }
        let next = self.code.len() as u32 + 1;
        self.code.push(Op::Moves {
            pairs: self.copies.order(&pairs),
            to: Edge::to(next),
        });
    }

    /// Emits a block: the [`Op::Block`] prologue, then the decoded
    /// instructions with peephole superinstruction fusion. The block's
    /// fuel cost is its *charged* op count — each fusion folds two
    /// charges into one, which is exactly the vm_steps reduction the
    /// bench gate tracks.
    fn emit_block_body(&mut self, b: BlockId) {
        self.block_starts.push((self.code.len() as u32, b.0));
        let bi = self.blocks.len() as u32;
        let block_op_at = self.code.len();
        self.code.push(Op::Block { cost: 0, bi });
        let block = self.f.block(b);
        let mut charged: u32 = 0;
        for (k, instr) in block.instrs.iter().enumerate() {
            let dst = self.f.instr_result(b, k).map(|v| v.0).unwrap_or(NO_SLOT);
            let op = self.decode(instr, dst);
            charged += 1;
            if charged >= 2 {
                if let Some(fused) = try_fuse(self.code.last().expect("nonempty"), &op) {
                    self.code.pop();
                    self.code.push(fused);
                    charged -= 1;
                    continue;
                }
            }
            self.code.push(op);
        }
        let mnems: Box<[&'static str]> = block.instrs.iter().map(|i| i.mnemonic()).collect();
        let mut counts: Vec<(&'static str, u32)> = Vec::new();
        for &m in mnems.iter() {
            match counts.iter_mut().find(|(n, _)| *n == m) {
                Some((_, c)) => *c += 1,
                None => counts.push((m, 1)),
            }
        }
        self.blocks.push(BlockMeta {
            mnems,
            counts: counts.into_boxed_slice(),
            hits: Cell::new(0),
        });
        if let Op::Block { cost, .. } = &mut self.code[block_op_at] {
            *cost = charged;
        }
        self.cur = b;
    }

    /// Emits a CST node; returns whether control falls through it.
    fn emit(&mut self, cst: &'m Cst) -> bool {
        match cst {
            Cst::Basic(b) => {
                self.emit_moves(self.cur, *b);
                self.emit_block_body(*b);
                true
            }
            Cst::Seq(items) => {
                for c in items {
                    if !self.emit(c) {
                        return false;
                    }
                }
                true
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                // cmp+branch fusion: if the preceding op is the int
                // compare producing this condition, merge them. The
                // compare stays charged in its block's cost and still
                // writes its SSA result.
                if let Some(Op::IntCmp { dst, .. }) = self.code.last() {
                    if *dst == cond.0 {
                        let Some(Op::IntCmp { pred, a, b, dst }) = self.code.pop() else {
                            unreachable!()
                        };
                        let then = Edge::to(self.code.len() as u32 + 1);
                        self.code.push(Op::CmpBranchFalse {
                            pred,
                            a,
                            b,
                            dst,
                            then,
                            els: Edge::to(0),
                        });
                    } else {
                        self.push_branch(cond.0);
                    }
                } else {
                    self.push_branch(cond.0);
                }
                let branch_at = self.code.len() - 1;
                let saved = self.cur;
                let ft_then = self.emit(then_br);
                let mut then_jump = None;
                if ft_then {
                    self.emit_moves(self.cur, *join);
                    then_jump = Some(self.push_jump());
                }
                let else_start = self.code.len() as u32;
                self.patch(branch_at, else_start);
                self.cur = saved;
                let ft_else = self.emit(else_br);
                if ft_else {
                    self.emit_moves(self.cur, *join);
                }
                if ft_then || ft_else {
                    if let Some(j) = then_jump {
                        let here = self.code.len() as u32;
                        self.patch(j, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
            Cst::Loop { header, body } => {
                self.emit_moves(self.cur, *header);
                let header_pc = self.code.len() as u32;
                self.emit_block_body(*header);
                self.ctx.push(Ctx::Loop {
                    header_pc,
                    header: *header,
                });
                if self.emit(body) {
                    self.emit_moves(self.cur, *header);
                    self.code.push(Op::Jump {
                        to: Edge::to(header_pc),
                    });
                }
                self.ctx.pop();
                false
            }
            Cst::Labeled { body, join } => {
                self.ctx.push(Ctx::Labeled {
                    join: *join,
                    patches: Vec::new(),
                });
                let ft = self.emit(body);
                if ft {
                    self.emit_moves(self.cur, *join);
                }
                let Some(Ctx::Labeled { patches, .. }) = self.ctx.pop() else {
                    unreachable!()
                };
                if ft || !patches.is_empty() {
                    let here = self.code.len() as u32;
                    for p in patches {
                        self.patch(p, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
            Cst::Break(n) => {
                let mut seen = 0u32;
                let mut target = None;
                for (i, c) in self.ctx.iter().enumerate().rev() {
                    if matches!(c, Ctx::Labeled { .. }) {
                        if seen == *n {
                            target = Some(i);
                            break;
                        }
                        seen += 1;
                    }
                }
                let Some(ti) = target else {
                    self.code.push(Op::Fail {
                        msg: "break without target".into(),
                    });
                    return false;
                };
                // Leaving any try region between here and the target
                // deactivates its handler.
                let pops = self.ctx[ti + 1..]
                    .iter()
                    .filter(|c| matches!(c, Ctx::Try))
                    .count();
                for _ in 0..pops {
                    self.code.push(Op::PopHandler);
                }
                let Ctx::Labeled { join, .. } = self.ctx[ti] else {
                    unreachable!()
                };
                self.emit_moves(self.cur, join);
                let j = self.push_jump();
                let Ctx::Labeled { patches, .. } = &mut self.ctx[ti] else {
                    unreachable!()
                };
                patches.push(j);
                false
            }
            Cst::Continue(n) => {
                let mut seen = 0u32;
                let mut target = None;
                for (i, c) in self.ctx.iter().enumerate().rev() {
                    if matches!(c, Ctx::Loop { .. }) {
                        if seen == *n {
                            target = Some(i);
                            break;
                        }
                        seen += 1;
                    }
                }
                let Some(ti) = target else {
                    self.code.push(Op::Fail {
                        msg: "continue without target".into(),
                    });
                    return false;
                };
                let pops = self.ctx[ti + 1..]
                    .iter()
                    .filter(|c| matches!(c, Ctx::Try))
                    .count();
                for _ in 0..pops {
                    self.code.push(Op::PopHandler);
                }
                let Ctx::Loop { header_pc, header } = self.ctx[ti] else {
                    unreachable!()
                };
                self.emit_moves(self.cur, header);
                self.code.push(Op::Jump {
                    to: Edge::to(header_pc),
                });
                false
            }
            Cst::Return(v) => {
                self.code.push(Op::Ret {
                    src: v.map(|v| v.0).unwrap_or(NO_SLOT),
                });
                false
            }
            Cst::Throw(v) => {
                self.code.push(Op::Throw { src: v.0 });
                false
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                let h = self.handlers.len() as u32;
                self.handlers.push(HandlerInfo::default());
                self.code.push(Op::PushHandler { h });
                self.ctx.push(Ctx::Try);
                let ft_body = self.emit(body);
                self.ctx.pop();
                let mut body_jump = None;
                if ft_body {
                    self.code.push(Op::PopHandler);
                    self.emit_moves(self.cur, *join);
                    body_jump = Some(self.push_jump());
                }
                // Handler entry: control arrives only via unwinding,
                // which applies the phi moves for the faulting block
                // before jumping here.
                let entry_pc = self.code.len() as u32;
                let hb = self.f.block(*handler_entry);
                let mut preds: Vec<BlockId> = Vec::new();
                for phi in &hb.phis {
                    for (p, _) in &phi.args {
                        if !preds.contains(p) {
                            preds.push(*p);
                        }
                    }
                }
                let mut moves = Vec::new();
                for p in preds {
                    let mut pairs = Vec::with_capacity(hb.phis.len());
                    let mut complete = true;
                    for (k, phi) in hb.phis.iter().enumerate() {
                        match phi.arg_from(p) {
                            Some(a) => {
                                pairs.push((self.f.phi_result(*handler_entry, k).0, a.0));
                            }
                            None => {
                                complete = false;
                                break;
                            }
                        }
                    }
                    if complete {
                        moves.push((p.0, self.copies.order(&pairs)));
                    }
                }
                self.handlers[h as usize] = HandlerInfo {
                    entry_pc,
                    has_phis: !hb.phis.is_empty(),
                    moves,
                };
                self.emit_block_body(*handler_entry);
                let ft_h = self.emit(handler);
                if ft_h {
                    self.emit_moves(self.cur, *join);
                }
                if ft_body || ft_h {
                    if let Some(j) = body_jump {
                        let here = self.code.len() as u32;
                        self.patch(j, here);
                    }
                    self.emit_block_body(*join);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Decodes one SSA instruction into a threaded op.
    fn decode(&self, instr: &Instr, dst: Slot) -> Op {
        let types = &self.vm.module.types;
        let fail = |msg: &str| Op::Fail { msg: msg.into() };
        match instr {
            Instr::Primitive { ty, op, args } | Instr::XPrimitive { ty, op, args } => {
                let TypeKind::Prim(kind) = types.kind(*ty) else {
                    return fail("primitive on non-prim");
                };
                // Only a row the table holds, at its own arity, reaches
                // the evaluators.
                let op = *op;
                match (primops::resolve(kind, op), &args[..]) {
                    (Some(row), &[a]) if row.params.len() == 1 => Op::Prim1 {
                        kind,
                        op,
                        a: a.0,
                        dst,
                    },
                    (Some(row), &[a, b]) if row.params.len() == 2 => {
                        let (a, b) = (a.0, b.0);
                        match cmp_pred(kind, op, row) {
                            Some(pred) => Op::IntCmp { pred, a, b, dst },
                            None => Op::Prim2 {
                                kind,
                                op,
                                a,
                                b,
                                dst,
                            },
                        }
                    }
                    _ => fail("unknown primop"),
                }
            }
            Instr::NullCheck { value, .. } => Op::NullCheck { v: value.0, dst },
            Instr::IndexCheck { array, index, .. } => Op::IndexCheck {
                arr: array.0,
                idx: index.0,
                dst,
            },
            Instr::Upcast { to, value, .. } => Op::Upcast {
                to: *to,
                v: value.0,
                dst,
            },
            Instr::Downcast { value, .. } => Op::Copy { src: value.0, dst },
            Instr::GetField { object, field, .. } => match types.field(*field).and_then(|f| f.slot)
            {
                Some(slot) => Op::GetField {
                    obj: object.0,
                    slot,
                    dst,
                },
                None => fail("bad field ref"),
            },
            Instr::SetField {
                object,
                field,
                value,
                ..
            } => match types.field(*field).and_then(|f| f.slot) {
                Some(slot) => Op::SetField {
                    obj: object.0,
                    slot,
                    val: value.0,
                },
                None => fail("bad field ref"),
            },
            Instr::GetStatic { field } => Op::GetStatic {
                class: field.class.0,
                idx: field.index,
                dst,
            },
            Instr::SetStatic { field, value } => Op::SetStatic {
                class: field.class.0,
                idx: field.index,
                val: value.0,
            },
            Instr::GetElt { array, index, .. } => Op::GetElt {
                arr: array.0,
                idx: index.0,
                dst,
            },
            Instr::SetElt {
                array,
                index,
                value,
                ..
            } => Op::SetElt {
                arr: array.0,
                idx: index.0,
                val: value.0,
            },
            Instr::ArrayLength { array, .. } => Op::ArrayLength { arr: array.0, dst },
            Instr::New { class_ty } => match types.kind(*class_ty) {
                TypeKind::Class(c) => Op::New { class: c, dst },
                _ => fail("new on non-class"),
            },
            Instr::NewArray { arr_ty, length } => {
                let Ok(width) = self.vm.array_elem_width(*arr_ty) else {
                    return fail("newarray on non-array type");
                };
                let elem = types.array_elem(*arr_ty).expect("checked above");
                let elem = match types.kind(elem) {
                    TypeKind::Prim(PrimKind::Bool) => ElemKind::Z,
                    TypeKind::Prim(PrimKind::Char) => ElemKind::C,
                    TypeKind::Prim(PrimKind::Int) => ElemKind::I,
                    TypeKind::Prim(PrimKind::Long) => ElemKind::J,
                    TypeKind::Prim(PrimKind::Float) => ElemKind::F,
                    TypeKind::Prim(PrimKind::Double) => ElemKind::D,
                    _ => ElemKind::R,
                };
                Op::NewArray {
                    elem,
                    width,
                    type_tag: arr_ty.0 as u64,
                    len: length.0,
                    dst,
                }
            }
            Instr::XCall {
                method,
                receiver,
                args,
                ..
            } => {
                let target = match self.vm.call_target(*method) {
                    Ok(t) => t,
                    Err(msg) => return Op::Fail { msg: msg.into() },
                };
                Op::Call {
                    target,
                    recv: receiver.map(|r| r.0).unwrap_or(NO_SLOT),
                    args: args.iter().map(|a| a.0).collect(),
                    dst,
                }
            }
            Instr::XDispatch {
                method,
                receiver,
                args,
                ..
            } => {
                let Some(info) = types.method(*method) else {
                    return fail("bad method ref");
                };
                let Some(vslot) = info.vtable_slot else {
                    return fail("xdispatch without slot");
                };
                Op::Dispatch {
                    vslot,
                    ic: Cell::new(None),
                    recv: receiver.0,
                    args: args.iter().map(|a| a.0).collect(),
                    dst,
                }
            }
            Instr::RefEq { a, b, .. } => Op::RefEq {
                a: a.0,
                b: b.0,
                dst,
            },
            Instr::InstanceOf { target, value, .. } => Op::InstanceOf {
                target: *target,
                v: value.0,
                dst,
            },
            Instr::Catch { .. } => Op::Catch { dst },
        }
    }
}

/// Peephole superinstruction fusion over adjacent decoded ops within a
/// block. The pair set was chosen from the corpus opcode-pair histogram
/// (`bench_report --pairs`; see DESIGN.md for the measured table):
/// check+access pairs and primitive chains dominate dynamic dispatch
/// adjacency corpus-wide.
fn try_fuse(prev: &Op, cur: &Op) -> Option<Op> {
    match (prev, cur) {
        // nullcheck → getfield on the checked ref.
        (&Op::NullCheck { v, dst: chk }, &Op::GetField { obj, slot, dst }) if obj == chk => {
            Some(Op::NullGetField {
                obj: v,
                slot,
                chk,
                dst,
            })
        }
        // nullcheck → setfield on the checked ref.
        (&Op::NullCheck { v, dst: chk }, &Op::SetField { obj, slot, val })
            if obj == chk && val != chk =>
        {
            Some(Op::NullSetField {
                obj: v,
                slot,
                val,
                chk,
            })
        }
        // indexcheck → getelt with the checked index on the same array.
        (
            &Op::IndexCheck { arr, idx, dst: chk },
            &Op::GetElt {
                arr: a2,
                idx: i2,
                dst,
            },
        ) if a2 == arr && i2 == chk => Some(Op::IdxGetElt { arr, idx, chk, dst }),
        // indexcheck → setelt.
        (
            &Op::IndexCheck { arr, idx, dst: chk },
            &Op::SetElt {
                arr: a2,
                idx: i2,
                val,
            },
        ) if a2 == arr && i2 == chk && val != chk => Some(Op::IdxSetElt { arr, idx, val, chk }),
        // primitive → primitive chains (sequential evaluation keeps
        // dataflow and trap order identical to the unfused pair).
        (
            &Op::Prim2 {
                kind: k1,
                op: op1,
                a: a1,
                b: b1,
                dst: d1,
            },
            &Op::Prim2 {
                kind: k2,
                op: op2,
                a: a2,
                b: b2,
                dst: d2,
            },
        ) => Some(Op::Prim2Pair {
            k1,
            op1,
            a1,
            b1,
            d1,
            k2,
            op2,
            a2,
            b2,
            d2,
        }),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

/// Copies a call's receiver (if any) and argument slots from the
/// caller's frame into the head of the callee's, which is never empty:
/// it ends in the scratch slot.
fn pass_args(frame: &mut [Value], recv: Option<Value>, args: &[Slot], caller: &[Value]) {
    let mut first = 0;
    if let Some(r) = recv {
        frame[0] = r;
        first = 1;
    }
    for (d, &s) in frame[first..].iter_mut().zip(args) {
        *d = caller[s as usize];
    }
}

impl<'m> Vm<'m> {
    /// Runs one decoded function on its frame (`tf.template` with the
    /// arguments in place): interns the string constants, then runs the
    /// dispatch loop, with traps unwinding to the innermost active
    /// handler. The verifier guarantees def-before-use, so slots can be
    /// plain values rather than options.
    pub(crate) fn execute(
        &mut self,
        tf: &TFunc,
        vals: &mut [Value],
    ) -> Result<Option<Value>, Trap> {
        for (slot, text) in tf.strs.iter() {
            vals[*slot as usize] = self.intern(text)?;
        }
        let mut pc: usize = 0;
        let mut handlers: Vec<u32> = Vec::new();
        let mut pending: Option<HeapRef> = None;
        'l: loop {
            let trap: Trap = 'op: {
                match &tf.code[pc] {
                    Op::Block { cost, bi } => match self.enter_block(tf, *cost, *bi) {
                        Ok(()) => {
                            pc += 1;
                            continue 'l;
                        }
                        Err(t) => break 'op t,
                    },
                    Op::Jump { to } => match self.take_edge(tf, *to) {
                        Ok(next) => {
                            pc = next;
                            continue 'l;
                        }
                        Err(t) => break 'op t,
                    },
                    Op::BranchFalse { cond, then, els } => {
                        let e = if vals[*cond as usize].as_z() {
                            then
                        } else {
                            els
                        };
                        match self.take_edge(tf, *e) {
                            Ok(next) => {
                                pc = next;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::CmpBranchFalse {
                        pred,
                        a,
                        b,
                        dst,
                        then,
                        els,
                    } => {
                        let r = cmp_eval(*pred, vals[*a as usize].as_i(), vals[*b as usize].as_i());
                        vals[*dst as usize] = Value::Z(r);
                        if self.collect_stats {
                            self.fused_hits[FUSE_CMP_BRANCH] += 1;
                        }
                        match self.take_edge(tf, if r { *then } else { *els }) {
                            Ok(next) => {
                                pc = next;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::Moves { pairs, to } => {
                        for &(dst, src) in pairs.iter() {
                            vals[dst as usize] = vals[src as usize];
                        }
                        match self.take_edge(tf, *to) {
                            Ok(next) => {
                                pc = next;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::Ret { src } => {
                        return Ok(if *src == NO_SLOT {
                            None
                        } else {
                            Some(vals[*src as usize])
                        });
                    }
                    Op::Throw { src } => match vals[*src as usize].as_ref() {
                        None => break 'op Trap::NullPointer,
                        Some(r) => break 'op Trap::User(r),
                    },
                    Op::PushHandler { h } => {
                        handlers.push(*h);
                        pc += 1;
                        continue 'l;
                    }
                    Op::PopHandler => {
                        handlers.pop();
                        pc += 1;
                        continue 'l;
                    }
                    Op::Copy { src, dst } => {
                        vals[*dst as usize] = vals[*src as usize];
                        pc += 1;
                        continue 'l;
                    }
                    Op::Prim1 { kind, op, a, dst } => {
                        match primops::apply1::<Vals>(*kind, *op, &vals[*a as usize]) {
                            Ok(v) => {
                                vals[*dst as usize] = v;
                                pc += 1;
                                continue 'l;
                            }
                            Err(t) => break 'op t,
                        }
                    }
                    Op::Prim2 {
                        kind,
                        op,
                        a,
                        b,
                        dst,
                    } => match primops::apply2::<Vals>(
                        *kind,
                        *op,
                        &vals[*a as usize],
                        &vals[*b as usize],
                    ) {
                        Ok(v) => {
                            vals[*dst as usize] = v;
                            pc += 1;
                            continue 'l;
                        }
                        Err(t) => break 'op t,
                    },
                    Op::Prim2Pair {
                        k1,
                        op1,
                        a1,
                        b1,
                        d1,
                        k2,
                        op2,
                        a2,
                        b2,
                        d2,
                    } => {
                        match primops::apply2::<Vals>(
                            *k1,
                            *op1,
                            &vals[*a1 as usize],
                            &vals[*b1 as usize],
                        ) {
                            Ok(v) => vals[*d1 as usize] = v,
                            Err(t) => break 'op t,
                        }
                        match primops::apply2::<Vals>(
                            *k2,
                            *op2,
                            &vals[*a2 as usize],
                            &vals[*b2 as usize],
                        ) {
                            Ok(v) => vals[*d2 as usize] = v,
                            Err(t) => break 'op t,
                        }
                        if self.collect_stats {
                            self.fused_hits[FUSE_PRIM_PAIR] += 1;
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::IntCmp { pred, a, b, dst } => {
                        vals[*dst as usize] = Value::Z(cmp_eval(
                            *pred,
                            vals[*a as usize].as_i(),
                            vals[*b as usize].as_i(),
                        ));
                        pc += 1;
                        continue 'l;
                    }
                    Op::NullCheck { v, dst } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                        }
                        let val = vals[*v as usize];
                        if val.as_ref().is_none() {
                            break 'op Trap::NullPointer;
                        }
                        vals[*dst as usize] = val;
                        pc += 1;
                        continue 'l;
                    }
                    Op::GetField { obj, slot, dst } => {
                        let Some(r) = vals[*obj as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        match self.heap.get(r) {
                            Obj::Instance { fields, .. } => {
                                vals[*dst as usize] = fields[*slot as usize];
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("getfield on non-instance".into()),
                        }
                    }
                    Op::NullGetField {
                        obj,
                        slot,
                        chk,
                        dst,
                    } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                            self.fused_hits[FUSE_NULL_GETFIELD] += 1;
                        }
                        let val = vals[*obj as usize];
                        let Some(r) = val.as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        vals[*chk as usize] = val;
                        match self.heap.get(r) {
                            Obj::Instance { fields, .. } => {
                                vals[*dst as usize] = fields[*slot as usize];
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("getfield on non-instance".into()),
                        }
                    }
                    Op::SetField { obj, slot, val } => {
                        let Some(r) = vals[*obj as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Instance { fields, .. } => {
                                fields[*slot as usize] = v;
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("setfield on non-instance".into()),
                        }
                    }
                    Op::NullSetField {
                        obj,
                        slot,
                        val,
                        chk,
                    } => {
                        if self.collect_stats {
                            self.stats.null_checks += 1;
                            self.fused_hits[FUSE_NULL_SETFIELD] += 1;
                        }
                        let ov = vals[*obj as usize];
                        let Some(r) = ov.as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        vals[*chk as usize] = ov;
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Instance { fields, .. } => {
                                fields[*slot as usize] = v;
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("setfield on non-instance".into()),
                        }
                    }
                    Op::GetStatic { class, idx, dst } => {
                        vals[*dst as usize] = self.statics[*class as usize][*idx as usize];
                        pc += 1;
                        continue 'l;
                    }
                    Op::SetStatic { class, idx, val } => {
                        self.statics[*class as usize][*idx as usize] = vals[*val as usize];
                        pc += 1;
                        continue 'l;
                    }
                    Op::IndexCheck { arr, idx, dst } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                        }
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let i = vals[*idx as usize].as_i();
                        let len = match self.heap.get(r) {
                            Obj::Array { data, .. } => data.len(),
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        };
                        if i < 0 || i as usize >= len {
                            break 'op Trap::IndexOutOfBounds;
                        }
                        vals[*dst as usize] = Value::I(i);
                        pc += 1;
                        continue 'l;
                    }
                    Op::GetElt { arr, idx, dst } => {
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let i = vals[*idx as usize].as_i() as usize;
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => match data.get(i) {
                                Ok(v) => {
                                    vals[*dst as usize] = v;
                                    pc += 1;
                                    continue 'l;
                                }
                                Err(t) => break 'op t,
                            },
                            _ => break 'op Trap::Internal("getelt on non-array".into()),
                        }
                    }
                    Op::IdxGetElt { arr, idx, chk, dst } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                            self.fused_hits[FUSE_IDX_GETELT] += 1;
                        }
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let i = vals[*idx as usize].as_i();
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => {
                                if i < 0 || i as usize >= data.len() {
                                    break 'op Trap::IndexOutOfBounds;
                                }
                                vals[*chk as usize] = Value::I(i);
                                match data.get(i as usize) {
                                    Ok(v) => {
                                        vals[*dst as usize] = v;
                                        pc += 1;
                                        continue 'l;
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        }
                    }
                    Op::SetElt { arr, idx, val } => {
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let i = vals[*idx as usize].as_i() as usize;
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Array { data, .. } => match data.set(i, v) {
                                Ok(()) => {
                                    pc += 1;
                                    continue 'l;
                                }
                                Err(t) => break 'op t,
                            },
                            _ => break 'op Trap::Internal("setelt on non-array".into()),
                        }
                    }
                    Op::IdxSetElt { arr, idx, val, chk } => {
                        if self.collect_stats {
                            self.stats.index_checks += 1;
                            self.fused_hits[FUSE_IDX_SETELT] += 1;
                        }
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let i = vals[*idx as usize].as_i();
                        let v = vals[*val as usize];
                        match self.heap.get_mut(r) {
                            Obj::Array { data, .. } => {
                                if i < 0 || i as usize >= data.len() {
                                    break 'op Trap::IndexOutOfBounds;
                                }
                                match data.set(i as usize, v) {
                                    Ok(()) => {
                                        vals[*chk as usize] = Value::I(i);
                                        pc += 1;
                                        continue 'l;
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                            _ => {
                                break 'op Trap::Internal("indexcheck on non-array".into());
                            }
                        }
                    }
                    Op::ArrayLength { arr, dst } => {
                        let Some(r) = vals[*arr as usize].as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        match self.heap.get(r) {
                            Obj::Array { data, .. } => {
                                vals[*dst as usize] = Value::I(data.len() as i32);
                                pc += 1;
                                continue 'l;
                            }
                            _ => break 'op Trap::Internal("arraylength on non-array".into()),
                        }
                    }
                    Op::New { class, dst } => match self.alloc_instance(*class) {
                        Ok(r) => {
                            vals[*dst as usize] = Value::Ref(Some(r));
                            pc += 1;
                            continue 'l;
                        }
                        Err(t) => break 'op t,
                    },
                    Op::NewArray {
                        elem,
                        width,
                        type_tag,
                        len,
                        dst,
                    } => {
                        let n = vals[*len as usize].as_i();
                        if n < 0 {
                            break 'op Trap::NegativeArraySize;
                        }
                        // Reserve the projected size BEFORE building the
                        // elements, so a hostile `new int[1 << 30]` is
                        // rejected without the host ever committing
                        // gigabytes.
                        if let Err(t) = self
                            .heap
                            .try_reserve(safetsa_rt::heap::array_size_bytes(*width, n as u64))
                        {
                            break 'op t;
                        }
                        if self.collect_stats {
                            self.stats.arrays_allocated += 1;
                        }
                        let n = n as usize;
                        let data = match elem {
                            ElemKind::Z => safetsa_rt::heap::ArrData::Z(vec![false; n]),
                            ElemKind::C => safetsa_rt::heap::ArrData::C(vec![0; n]),
                            ElemKind::I => safetsa_rt::heap::ArrData::I(vec![0; n]),
                            ElemKind::J => safetsa_rt::heap::ArrData::J(vec![0; n]),
                            ElemKind::F => safetsa_rt::heap::ArrData::F(vec![0.0; n]),
                            ElemKind::D => safetsa_rt::heap::ArrData::D(vec![0.0; n]),
                            ElemKind::R => safetsa_rt::heap::ArrData::R(vec![None; n]),
                        };
                        let r = self.heap.alloc(Obj::Array {
                            type_tag: *type_tag,
                            data,
                        });
                        vals[*dst as usize] = Value::Ref(Some(r));
                        pc += 1;
                        continue 'l;
                    }
                    Op::Upcast { to, v, dst } => {
                        let val = vals[*v as usize];
                        match val.as_ref() {
                            None => {
                                vals[*dst as usize] = val;
                                pc += 1;
                                continue 'l;
                            }
                            Some(r) => {
                                if self.ref_is_instance_of(r, *to) {
                                    vals[*dst as usize] = val;
                                    pc += 1;
                                    continue 'l;
                                }
                                break 'op Trap::ClassCast;
                            }
                        }
                    }
                    Op::InstanceOf { target, v, dst } => {
                        let res = match vals[*v as usize].as_ref() {
                            None => false,
                            Some(r) => self.ref_is_instance_of(r, *target),
                        };
                        vals[*dst as usize] = Value::Z(res);
                        pc += 1;
                        continue 'l;
                    }
                    Op::RefEq { a, b, dst } => {
                        vals[*dst as usize] =
                            Value::Z(vals[*a as usize].as_ref() == vals[*b as usize].as_ref());
                        pc += 1;
                        continue 'l;
                    }
                    Op::Catch { dst } => match pending.take() {
                        Some(exc) => {
                            vals[*dst as usize] = Value::Ref(Some(exc));
                            pc += 1;
                            continue 'l;
                        }
                        None => {
                            break 'op Trap::Internal("catch without pending exception".into());
                        }
                    },
                    Op::Call {
                        target,
                        recv,
                        args,
                        dst,
                    } => {
                        let rv = (*recv != NO_SLOT).then(|| vals[*recv as usize]);
                        let res = match *target {
                            CallTarget::Func(f2) => {
                                let caller = &*vals;
                                self.invoke(f2, |frame| pass_args(frame, rv, args, caller))
                            }
                            CallTarget::Intrinsic { id, is_static } => {
                                let rv = if is_static { None } else { rv };
                                self.intrinsic(id, rv, args, vals)
                            }
                        };
                        match res {
                            Ok(Some(v)) => {
                                if *dst == NO_SLOT {
                                    break 'op Trap::Internal(
                                        "result for result-less instr".into(),
                                    );
                                }
                                vals[*dst as usize] = v;
                            }
                            Ok(None) => {}
                            Err(t) => break 'op t,
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::Dispatch {
                        vslot,
                        ic,
                        recv,
                        args,
                        dst,
                    } => {
                        let rv = vals[*recv as usize];
                        let Some(r) = rv.as_ref() else {
                            break 'op Trap::NullPointer;
                        };
                        let rc = match self.heap.get(r) {
                            Obj::Instance { class, .. } => *class as u32,
                            Obj::Str(_) => self.string_class.0,
                            Obj::Array { .. } => self.module.well_known.object.0,
                        };
                        let target = match ic.get() {
                            Some((c, t)) if c == rc => {
                                self.icache_hits += 1;
                                t
                            }
                            _ => {
                                self.icache_misses += 1;
                                match self.dispatch_miss(rc, *vslot) {
                                    Ok(t) => {
                                        ic.set(Some((rc, t)));
                                        t
                                    }
                                    Err(t) => break 'op t,
                                }
                            }
                        };
                        let res = match target {
                            CallTarget::Func(f2) => {
                                let caller = &*vals;
                                self.invoke(f2, |frame| pass_args(frame, Some(rv), args, caller))
                            }
                            CallTarget::Intrinsic { id, is_static } => {
                                let rv = if is_static { None } else { Some(rv) };
                                self.intrinsic(id, rv, args, vals)
                            }
                        };
                        match res {
                            Ok(Some(v)) => {
                                if *dst == NO_SLOT {
                                    break 'op Trap::Internal(
                                        "result for result-less instr".into(),
                                    );
                                }
                                vals[*dst as usize] = v;
                            }
                            Ok(None) => {}
                            Err(t) => break 'op t,
                        }
                        pc += 1;
                        continue 'l;
                    }
                    Op::Fail { msg } => break 'op Trap::Internal(msg.to_string()),
                }
            };
            match self.unwind_threaded(tf, &mut handlers, trap, pc, vals, &mut pending) {
                Ok(npc) => pc = npc,
                Err(t) => return Err(t),
            }
        }
    }

    /// A block's prologue: charges its `cost` in fuel and steps, runs
    /// the slice countdown and counts the entry for stats. Raises only
    /// `OutOfFuel` and `DeadlineExceeded`, which no handler catches, so
    /// running it from the edge instead of the block's own op moves no
    /// handler entry.
    #[inline(always)]
    fn enter_block(&mut self, tf: &TFunc, cost: u32, bi: u32) -> Result<(), Trap> {
        if self.fuel < u64::from(cost) {
            return Err(Trap::OutOfFuel);
        }
        self.fuel -= u64::from(cost);
        self.steps += u64::from(cost);
        if self.slice_active {
            self.slice_tick(tf, bi, cost)?;
        }
        if self.collect_stats {
            let hits = &tf.blocks[bi as usize].hits;
            hits.set(hits.get() + 1);
        }
        Ok(())
    }

    /// Takes a control edge: runs the entered block's prologue if the
    /// edge carries it, and returns the op index to continue at.
    #[inline(always)]
    fn take_edge(&mut self, tf: &TFunc, e: Edge) -> Result<usize, Trap> {
        if let Some((cost, bi)) = e.enter {
            self.enter_block(tf, cost, bi)?;
        }
        Ok(e.pc as usize)
    }

    /// Calls a host intrinsic with the argument slots of `caller`,
    /// staged in the VM's one reusable argument buffer.
    fn intrinsic(
        &mut self,
        id: intrinsics::Intrinsic,
        recv: Option<Value>,
        args: &[Slot],
        caller: &[Value],
    ) -> Result<Option<Value>, Trap> {
        self.call_args.clear();
        self.call_args
            .extend(args.iter().map(|&s| caller[s as usize]));
        intrinsics::invoke(id, &mut self.heap, &mut self.output, recv, &self.call_args)
    }

    /// Slice countdown for one block: debits its tick count, which is
    /// its original (pre-fusion) instruction count while profiling and
    /// its charged cost otherwise. While profiling, a non-empty block
    /// also joins the profiler's ring whole. Only a block that a slice
    /// boundary falls inside leaves this path.
    #[inline(always)]
    fn slice_tick(&mut self, tf: &TFunc, bi: u32, cost: u32) -> Result<(), Trap> {
        let n = if self.profile_every != 0 {
            let n = tf.blocks[bi as usize].mnems.len() as u32;
            if n != 0 {
                self.profile_ring.push(tf.id, bi, n);
            }
            n
        } else {
            cost
        };
        if n < self.slice_left {
            self.slice_left -= n;
            return Ok(());
        }
        self.slice_boundaries(tf, n)
    }

    /// The slice boundaries inside a block of `n` ticks: at its
    /// `slice_left`-th tick and every [`DEADLINE_SLICE`] after. While
    /// profiling, the block (the ring's newest) is cut at each boundary,
    /// so a sample's window ends on the boundary's instruction and a
    /// trap there leaves the ring as if the rest of the block never ran.
    #[cold]
    #[inline(never)]
    fn slice_boundaries(&mut self, tf: &TFunc, n: u32) -> Result<(), Trap> {
        let profiling = self.profile_every != 0;
        let mut k = self.slice_left;
        while k <= n {
            if profiling {
                self.profile_ring.cut_newest(k);
            }
            self.slice_left = DEADLINE_SLICE;
            self.slice_boundary(&tf.name)?;
            k += DEADLINE_SLICE;
        }
        if profiling {
            self.profile_ring.cut_newest(n);
        }
        self.slice_left = k - n;
        Ok(())
    }

    /// One slice boundary: profiler sample first (so a deadline kill at
    /// this boundary still carries its at-kill-time sample), then the
    /// deadline clock read.
    fn slice_boundary(&mut self, name: &str) -> Result<(), Trap> {
        if self.profile_every != 0 {
            self.profile_countdown -= 1;
            if self.profile_countdown == 0 {
                self.profile_countdown = self.profile_every;
                let mut buf = [""; PROFILE_WINDOW];
                let window = self.profile_ring.window(&self.tcode, &mut buf);
                self.profile.sample(name, window);
            }
        }
        if let Some(deadline) = self.deadline {
            self.deadline_checks += 1;
            if Instant::now() >= deadline {
                return Err(Trap::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Unwinds a trap to the innermost active handler: materializes the
    /// exception object, applies the handler-entry phi moves for the
    /// faulting block, and returns the handler-entry pc. Uncatchable
    /// traps (fuel, deadline, internal) propagate out.
    fn unwind_threaded(
        &mut self,
        tf: &TFunc,
        handlers: &mut Vec<u32>,
        trap: Trap,
        pc: usize,
        vals: &mut [Value],
        pending: &mut Option<HeapRef>,
    ) -> Result<usize, Trap> {
        let Some(h) = handlers.pop() else {
            return Err(trap);
        };
        let exc = self.trap_to_object(trap)?;
        let hi = &tf.handlers[h as usize];
        if hi.has_phis {
            // The dynamic predecessor is the block containing the
            // faulting op: the greatest block start at or before pc.
            let bid = match tf
                .block_starts
                .binary_search_by(|&(p, _)| p.cmp(&(pc as u32)))
            {
                Ok(i) => tf.block_starts[i].1,
                Err(0) => {
                    return Err(Trap::Internal("trap outside any block".into()));
                }
                Err(i) => tf.block_starts[i - 1].1,
            };
            match hi.moves.iter().find(|(p, _)| *p == bid) {
                Some((_, pairs)) => {
                    for &(dst, src) in pairs.iter() {
                        vals[dst as usize] = vals[src as usize];
                    }
                }
                None => {
                    return Err(Trap::Internal(format!(
                        "phi in handler has no arg from b{bid}"
                    )));
                }
            }
        }
        *pending = Some(exc);
        Ok(hi.entry_pc as usize)
    }

    /// The call target of `method`: its body, or for a method without
    /// one the host intrinsic that its class, name and parameters name.
    pub(crate) fn call_target(&self, method: MethodRef) -> Result<CallTarget, String> {
        let types = &self.module.types;
        let Some(info) = types.method(method) else {
            return Err("bad method ref".into());
        };
        if let Some(body) = info.body {
            return Ok(CallTarget::Func(FuncId(body)));
        }
        let cinfo = types.class(method.class);
        let sig: String = info
            .params
            .iter()
            .map(|p| crate::interp::sig_letter(types, *p))
            .collect();
        let id = intrinsics::resolve(&cinfo.name, &info.name, &sig)
            .ok_or_else(|| format!("no intrinsic for {}.{}({sig})", cinfo.name, info.name))?;
        Ok(CallTarget::Intrinsic {
            id,
            is_static: info.kind == MethodKind::Static,
        })
    }

    /// An inline-cache miss: the target that virtual dispatch on runtime
    /// class `rc` calls for `vslot`. A pure function of its arguments
    /// over the immutable type table, so caching the result is sound:
    /// the first miss on a pair walks the superclass chain
    /// ([`safetsa_core::types::TypeTable::dispatch`]) and every later
    /// one reads the VM's memo.
    #[cold]
    #[inline(never)]
    fn dispatch_miss(&mut self, rc: u32, vslot: u32) -> Result<CallTarget, Trap> {
        if let Some(&t) = self.dispatch_memo.get(&(rc, vslot)) {
            return Ok(t);
        }
        let method = self
            .module
            .types
            .dispatch(ClassId(rc), vslot)
            .ok_or_else(|| Trap::Internal(format!("no method in dispatch slot {vslot}")))?;
        let t = self.call_target(method).map_err(Trap::Internal)?;
        self.dispatch_memo.insert((rc, vslot), t);
        Ok(t)
    }

    /// Folds the threaded engine's stats counters (block entries and
    /// fused-op executions) into [`crate::VmStats`] and resets them.
    /// Each block entry counts every original instruction of the block,
    /// exactly as if the block's `counts` were added at entry.
    pub(crate) fn fold_stats(&mut self) {
        for tf in self.tcode.iter().flatten() {
            for meta in &tf.blocks {
                let hits = meta.hits.replace(0);
                if hits == 0 {
                    continue;
                }
                for &(m, n) in meta.counts.iter() {
                    *self.stats.opcodes.entry(m).or_insert(0) += hits * u64::from(n);
                }
            }
        }
        for (pair, hits) in FUSED_PAIRS.iter().zip(&mut self.fused_hits) {
            if *hits != 0 {
                *self.stats.fused.entry(pair).or_insert(0) += std::mem::take(hits);
            }
        }
    }

    /// Decoded-code statistics for `safetsa stats`: per function, the
    /// fused-op count and total charged ops (static, not dynamic).
    pub fn fused_static_counts(&mut self) -> (u64, u64) {
        let mut fused = 0u64;
        let mut total = 0u64;
        for i in 0..self.module.functions.len() {
            let tf = self.tfunc(FuncId(i as u32));
            for op in &tf.code {
                match op {
                    Op::Block { cost, .. } => total += u64::from(*cost),
                    Op::NullGetField { .. }
                    | Op::NullSetField { .. }
                    | Op::IdxGetElt { .. }
                    | Op::IdxSetElt { .. }
                    | Op::Prim2Pair { .. }
                    | Op::CmpBranchFalse { .. } => fused += 1,
                    _ => {}
                }
            }
        }
        (fused, total)
    }
}

#[cfg(test)]
mod tests {
    use super::{BlockMeta, CopySequencer, Slot, TFunc, Vals, NO_SLOT};
    use crate::interp::{Vm, VmProfile, DEADLINE_SLICE, PROFILE_WINDOW};
    use safetsa_core::module::FuncId;
    use safetsa_core::primops::{self, PrimOpId};
    use safetsa_core::types::PrimKind;
    use safetsa_core::value::Literal;
    use safetsa_rt::{Trap, Value};
    use std::cell::Cell;
    use std::rc::Rc;
    use std::time::{Duration, Instant};

    const MNEMS: [&str; 7] = ["a", "b", "c", "d", "e", "f", "g"];

    /// A decoded function with no code, only blocks of the given
    /// mnemonic counts.
    fn blocks_only(id: u32, lens: &[usize]) -> TFunc {
        let blocks = lens
            .iter()
            .enumerate()
            .map(|(bi, &len)| BlockMeta {
                mnems: (0..len)
                    .map(|i| MNEMS[(id as usize * 5 + bi * 3 + i) % MNEMS.len()])
                    .collect(),
                counts: Box::new([]),
                hits: Cell::new(0),
            })
            .collect();
        TFunc {
            id: FuncId(id),
            name: format!("F{id}"),
            template: Box::new([]),
            strs: Box::new([]),
            code: Vec::new(),
            blocks,
            block_starts: Vec::new(),
            handlers: Vec::new(),
        }
    }

    /// The slice countdown one tick at a time, as the reference: while
    /// profiling (`every != 0`), every mnemonic enters an 8-entry ring
    /// and ticks the slice counter, and each boundary samples (every
    /// `every` slices) and then checks the deadline; otherwise each unit
    /// of block cost ticks. Ring entries carry their function, to check
    /// coverage.
    struct MnemonicLoop {
        ring: Vec<(&'static str, u32)>,
        slice_left: u32,
        every: u32,
        countdown: u32,
        expired: bool,
        checks: u64,
        profile: VmProfile,
    }

    /// How often the test reached each edge case it must cover.
    #[derive(Default, Debug)]
    struct Seen {
        empty_blocks: u32,
        boundary_on_first: u32,
        boundary_on_last: u32,
        two_in_one_block: u32,
        window_returns: u32,
    }

    impl MnemonicLoop {
        fn enter(&mut self, tf: &TFunc, bi: u32, cost: u32, seen: &mut Seen) -> Result<(), Trap> {
            let mnems = &tf.blocks[bi as usize].mnems;
            let ticks = if self.every == 0 {
                cost as usize
            } else {
                mnems.len()
            };
            seen.empty_blocks += u32::from(ticks == 0);
            let mut boundaries = 0;
            for k in 0..ticks {
                if self.every != 0 {
                    if self.ring.len() == PROFILE_WINDOW {
                        self.ring.remove(0);
                    }
                    self.ring.push((mnems[k], tf.id.0));
                }
                self.slice_left -= 1;
                if self.slice_left != 0 {
                    continue;
                }
                self.slice_left = DEADLINE_SLICE;
                boundaries += 1;
                seen.boundary_on_first += u32::from(k == 0);
                seen.boundary_on_last += u32::from(k > 0 && k + 1 == ticks);
                seen.two_in_one_block += u32::from(boundaries == 2);
                if self.every != 0 {
                    self.countdown -= 1;
                    if self.countdown == 0 {
                        self.countdown = self.every;
                        self.sample(&tf.name, seen);
                    }
                }
                self.checks += 1;
                if self.expired {
                    return Err(Trap::DeadlineExceeded);
                }
            }
            Ok(())
        }

        fn sample(&mut self, name: &str, seen: &mut Seen) {
            // Some function's mnemonics, another's, then the first one's
            // again: a call and its return.
            let funcs: Vec<u32> = self.ring.iter().map(|e| e.1).collect();
            seen.window_returns += u32::from((0..funcs.len()).any(|j| {
                funcs[..j]
                    .iter()
                    .any(|&f| f != funcs[j] && funcs[j + 1..].contains(&f))
            }));
            self.profile.sample(name, &self.window());
        }

        fn window(&self) -> Vec<&'static str> {
            self.ring.iter().map(|e| e.0).collect()
        }
    }

    #[test]
    fn block_ring_matches_the_per_mnemonic_loop() {
        // Entries into blocks of 0 to 2,100 mnemonics in three
        // functions, in a pseudo-random order, against the reference
        // loop, with the profiler off, sampling every slice and every
        // third: the ring's window, the slice countdown, every sample and
        // every deadline check must agree after each entry. Then a
        // deadline kill inside a block, and more entries after it, whose
        // windows must start from the cut block.
        let prog = safetsa_frontend::compile(
            "class A { static int f() { return 1; } static int g() { return 2; }
               static int main() { return f() + g(); } }",
        )
        .expect("compiles");
        let m = safetsa_ssa::lower_program(&prog).expect("lowers").module;
        let lens: [&[usize]; 3] = [
            &[0, 1, 2, 7, 8, 9, 300],
            &[0, 3, 1023, 1024, 1025],
            &[1, 5, 2048, 2049, 2100],
        ];
        for every in [0, 1, 3] {
            let mut vm = Vm::load(&m).expect("loads");
            let funcs: Vec<Rc<TFunc>> = (0..3)
                .map(|id| Rc::new(blocks_only(id, lens[id as usize])))
                .collect();
            for tf in &funcs {
                vm.tcode[tf.id.index()] = Some(tf.clone());
            }
            vm.set_deadline(Instant::now() + Duration::from_secs(3600));
            vm.enable_profiler(every);
            let mut reference = MnemonicLoop {
                ring: Vec::new(),
                slice_left: DEADLINE_SLICE,
                every,
                countdown: every,
                expired: false,
                checks: 0,
                profile: vm.profile.clone(),
            };
            let mut seen = Seen::default();
            let mut rng: u64 = 0x9e37_79b9_7f4a_7c15;
            let mut pick = |k: usize| {
                rng = rng
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (rng >> 33) as usize % k
            };
            let mut kill_at = None;
            for step in 0..6000 {
                if step == 4000 {
                    vm.deadline = Some(Instant::now());
                    reference.expired = true;
                }
                // First a window of one-mnemonic blocks, one per ring slot.
                let (tf, bi) = if step <= PROFILE_WINDOW {
                    [(&funcs[0], 1), (&funcs[2], 0)][step % 2]
                } else {
                    let tf = &funcs[pick(funcs.len())];
                    (tf, pick(tf.blocks.len()) as u32)
                };
                let cost = tf.blocks[bi as usize].mnems.len() as u32 * 3 / 4;
                let got = vm.slice_tick(tf, bi, cost);
                let want = reference.enter(tf, bi, cost, &mut seen);
                assert_eq!(got, want, "step {step}");
                if got.is_err() {
                    kill_at.get_or_insert(step);
                    vm.deadline = Some(Instant::now() + Duration::from_secs(3600));
                    reference.expired = false;
                }
                let mut buf = [""; PROFILE_WINDOW];
                let window = vm.profile_ring.window(&vm.tcode, &mut buf);
                assert_eq!(window, reference.window(), "step {step}");
                assert_eq!(vm.slice_left, reference.slice_left, "step {step}");
                assert_eq!(vm.deadline_checks, reference.checks, "step {step}");
                assert_eq!(vm.profile, reference.profile, "step {step}");
            }
            assert!(kill_at.is_some_and(|s| s < 5000), "no deadline kill");
            assert!(
                seen.empty_blocks > 0
                    && seen.boundary_on_first > 0
                    && seen.boundary_on_last > 0
                    && seen.two_in_one_block > 0
                    && (every == 0 || seen.window_returns > 0),
                "every {every}: edge cases not reached: {seen:?}"
            );
        }
    }

    #[test]
    fn sequenced_copies_have_the_parallel_effect() {
        // Every parallel copy with up to 4 distinct destinations drawn
        // from 5 slots, each destination reading any slot: swaps,
        // 3- and 4-cycles, self-moves, one source fanned out to several
        // destinations, and mixes of them.
        const SLOTS: u32 = 5;
        let mut seq = CopySequencer::new(SLOTS as usize);
        let digit = |code: u32, i: usize| code / SLOTS.pow(i as u32) % SLOTS;
        let mut cases = 0u32;
        for k in 0..=4 {
            for dst_code in 0..SLOTS.pow(k as u32) {
                let dsts: Vec<Slot> = (0..k).map(|i| digit(dst_code, i)).collect();
                if (1..k).any(|i| dsts[..i].contains(&dsts[i])) {
                    continue;
                }
                for src_code in 0..SLOTS.pow(k as u32) {
                    let pairs: Vec<(Slot, Slot)> =
                        (0..k).map(|i| (dsts[i], digit(src_code, i))).collect();
                    // Slot i holds 100 + i; the scratch slot is the last.
                    let before: Vec<u32> = (100..=100 + SLOTS).collect();
                    let mut want = before.clone();
                    for &(d, s) in &pairs {
                        want[d as usize] = before[s as usize];
                    }
                    let mut got = before.clone();
                    for &(d, s) in seq.order(&pairs).iter() {
                        assert!(
                            d == SLOTS || dsts.contains(&d),
                            "{pairs:?}: writes slot {d}"
                        );
                        got[d as usize] = got[s as usize];
                    }
                    assert_eq!(got[..SLOTS as usize], want[..SLOTS as usize], "{pairs:?}");
                    assert!(
                        seq.readers.iter().all(|&n| n == 0)
                            && seq.source.iter().all(|&s| s == NO_SLOT),
                        "{pairs:?}: tables left dirty"
                    );
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 1 + 5 * 5 + 20 * 25 + 60 * 125 + 120 * 625);
    }

    /// The operand grid of `tests/engines.rs`'s primitive-row golden.
    fn operand_grid(kind: PrimKind) -> Vec<Literal> {
        match kind {
            PrimKind::Bool => vec![Literal::Bool(false), Literal::Bool(true)],
            PrimKind::Char => [0, 1, 97, 65535].map(Literal::Char).to_vec(),
            PrimKind::Int => [0, 1, -1, 31, 32, 33, i32::MIN, i32::MAX]
                .map(Literal::Int)
                .to_vec(),
            PrimKind::Long => [0, 1, -1, 63, 64, i64::MIN, i64::MAX]
                .map(Literal::Long)
                .to_vec(),
            PrimKind::Float => [
                0.0,
                -0.0,
                1.5,
                -2.5,
                f32::NAN,
                f32::INFINITY,
                f32::NEG_INFINITY,
                3e9,
            ]
            .map(Literal::Float)
            .to_vec(),
            PrimKind::Double => [
                0.0,
                -0.0,
                1.5,
                -2.5,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                3e9,
                1e19,
            ]
            .map(Literal::Double)
            .to_vec(),
        }
    }

    fn value(l: &Literal) -> Value {
        match *l {
            Literal::Bool(x) => Value::Z(x),
            Literal::Char(x) => Value::C(x),
            Literal::Int(x) => Value::I(x),
            Literal::Long(x) => Value::J(x),
            Literal::Float(x) => Value::F(x),
            Literal::Double(x) => Value::D(x),
            Literal::Str(_) | Literal::Null => unreachable!("not a primitive"),
        }
    }

    #[test]
    fn vm_rows_equal_folding_rows_on_the_operand_grid() {
        let mut tuples = 0;
        for kind in PrimKind::ALL {
            for (i, row) in primops::ops_of(kind).iter().enumerate() {
                let op = PrimOpId(i as u16);
                let grids: Vec<Vec<Literal>> =
                    row.params.iter().map(|&p| operand_grid(p)).collect();
                let mut check = |args: &[&Literal]| {
                    let (vm, folded) = match *args {
                        [a] => (
                            primops::apply1::<Vals>(kind, op, &value(a)),
                            primops::apply1::<Literal>(kind, op, a),
                        ),
                        [a, b] => (
                            primops::apply2::<Vals>(kind, op, &value(a), &value(b)),
                            primops::apply2::<Literal>(kind, op, a, b),
                        ),
                        _ => unreachable!("rows take one or two operands"),
                    };
                    match (vm, folded) {
                        (Ok(v), Ok(l)) => assert!(
                            v.bits_eq(value(&l)),
                            "{kind:?}.{} {args:?}: VM {v:?}, folding {l:?}",
                            row.name
                        ),
                        (Err(Trap::DivByZero), Err(())) => {}
                        (vm, folded) => panic!(
                            "{kind:?}.{} {args:?}: VM {vm:?}, folding {folded:?}",
                            row.name
                        ),
                    }
                    tuples += 1;
                };
                match grids.as_slice() {
                    [xs] => xs.iter().for_each(|a| check(&[a])),
                    [xs, ys] => xs
                        .iter()
                        .for_each(|a| ys.iter().for_each(|b| check(&[a, b]))),
                    _ => unreachable!("rows take one or two operands"),
                }
            }
        }
        assert_eq!(tuples, 3810, "every row saw its whole grid");
    }
}
