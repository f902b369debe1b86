//! The baseline bytecode verifier: the iterative dataflow analysis that
//! every JVM-style consumer must run before trusting code — inferring
//! the operand-stack shape and local-variable types at every program
//! point, merging states at control-flow joins until a fixpoint.
//!
//! This is exactly the cost the paper's §9 attributes to the JVM
//! ("checking that all operand accesses to the stack are valid — which
//! requires a data flow analysis"), and the cost SafeTSA avoids by
//! construction. The `verify_cost` binary in `safetsa-bench` compares
//! the two.

use crate::opcode::{Code, Op};
use safetsa_frontend::hir::{MethodKind, PrimTy, Program, Ty};
use std::collections::VecDeque;
use std::fmt;

/// Abstract value types of the dataflow lattice (wide values occupy two
/// stack words, mirrored here with the `*2` second-word markers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VType {
    /// int/boolean/char/byte/short word.
    Int,
    /// float word.
    Float,
    /// First word of a long.
    Long,
    /// Second word of a long.
    Long2,
    /// First word of a double.
    Double,
    /// Second word of a double.
    Double2,
    /// Any reference (classes are not tracked — stack/locals shape is
    /// the expensive part being measured).
    Ref,
}

impl VType {
    fn width(self) -> usize {
        match self {
            VType::Long | VType::Double => 2,
            _ => 1,
        }
    }
}

/// A verification failure.
#[derive(Debug, Clone, PartialEq)]
pub struct BVerifyError(pub String);

impl fmt::Display for BVerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bytecode verification: {}", self.0)
    }
}

impl std::error::Error for BVerifyError {}

/// Statistics of one verification run (for the cost comparison).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BVerifyStats {
    /// Dataflow iterations (worklist pops).
    pub iterations: usize,
    /// State merges performed.
    pub merges: usize,
    /// Maximum operand stack depth observed (in words).
    pub max_stack: u16,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct State {
    stack: Vec<VType>,
    locals: Vec<Option<VType>>,
}

fn vtype_of(ty: &Ty) -> VType {
    match ty {
        Ty::Prim(PrimTy::Long) => VType::Long,
        Ty::Prim(PrimTy::Float) => VType::Float,
        Ty::Prim(PrimTy::Double) => VType::Double,
        Ty::Prim(_) => VType::Int,
        _ => VType::Ref,
    }
}

/// Verifies one compiled method body by abstract interpretation.
///
/// # Errors
///
/// Returns a [`BVerifyError`] on stack underflow/overflow, type
/// mismatches, undefined local reads, or inconsistent merge states.
pub fn verify_method(
    prog: &Program,
    class: usize,
    method: usize,
    code: &Code,
) -> Result<BVerifyStats, BVerifyError> {
    let meta = prog.method(class, method);
    let n = code.ops.len();
    if n == 0 {
        return Err(BVerifyError("empty code".into()));
    }
    // Entry state.
    let mut locals: Vec<Option<VType>> = vec![None; code.max_locals as usize];
    {
        let mut slot = 0usize;
        let mut tys: Vec<Ty> = Vec::new();
        if meta.kind != MethodKind::Static {
            tys.push(Ty::Ref(class));
        }
        tys.extend(meta.params.iter().cloned());
        for t in &tys {
            let v = vtype_of(t);
            if slot >= locals.len() {
                return Err(BVerifyError("parameters exceed max_locals".into()));
            }
            locals[slot] = Some(v);
            slot += v.width();
            if v.width() == 2 {
                if slot > locals.len() {
                    return Err(BVerifyError("wide parameter exceeds max_locals".into()));
                }
                locals[slot - 1] = Some(match v {
                    VType::Long => VType::Long2,
                    _ => VType::Double2,
                });
            }
        }
    }
    let mut states: Vec<Option<State>> = vec![None; n];
    states[0] = Some(State {
        stack: Vec::new(),
        locals,
    });
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(0);
    let mut stats = BVerifyStats::default();

    // Pre-compute handler entries: any pc in [start,end) can transfer to
    // handler with stack [Ref] and the locals observed at that pc.
    while let Some(pc) = work.pop_front() {
        stats.iterations += 1;
        if stats.iterations > 200 * n + 1000 {
            return Err(BVerifyError("verification does not converge".into()));
        }
        let state = states[pc].clone().expect("queued pc has state");
        stats.max_stack = stats.max_stack.max(state.stack.len() as u16);
        let op = &code.ops[pc];
        let mut s = state.clone();
        transfer(prog, code, op, &mut s)
            .map_err(|e| BVerifyError(format!("at {pc} ({op:?}): {e}")))?;
        stats.max_stack = stats.max_stack.max(s.stack.len() as u16);
        // Exception edges from this pc.
        for e in &code.ex_table {
            if (pc as u32) >= e.start && (pc as u32) < e.end {
                let h = State {
                    stack: vec![VType::Ref],
                    locals: state.locals.clone(),
                };
                merge_into(&mut states, e.handler as usize, h, &mut work, &mut stats)?;
            }
        }
        // Normal successors.
        if let Some(t) = op.branch_target() {
            merge_into(&mut states, t as usize, s.clone(), &mut work, &mut stats)?;
        }
        let falls_through = !op.is_terminator();
        if falls_through {
            let next = pc + 1;
            if next >= n {
                return Err(BVerifyError("control falls off the end".into()));
            }
            merge_into(&mut states, next, s, &mut work, &mut stats)?;
        }
    }
    Ok(stats)
}

fn merge_into(
    states: &mut [Option<State>],
    target: usize,
    incoming: State,
    work: &mut VecDeque<usize>,
    stats: &mut BVerifyStats,
) -> Result<(), BVerifyError> {
    if target >= states.len() {
        return Err(BVerifyError(format!("branch target {target} out of range")));
    }
    match &mut states[target] {
        slot @ None => {
            *slot = Some(incoming);
            work.push_back(target);
        }
        Some(existing) => {
            stats.merges += 1;
            if existing.stack.len() != incoming.stack.len() {
                return Err(BVerifyError(format!(
                    "stack depth mismatch at {target}: {} vs {}",
                    existing.stack.len(),
                    incoming.stack.len()
                )));
            }
            let mut changed = false;
            for (a, b) in existing.stack.iter().zip(&incoming.stack) {
                if a != b {
                    return Err(BVerifyError(format!(
                        "stack type mismatch at {target}: {a:?} vs {b:?}"
                    )));
                }
            }
            for (a, b) in existing.locals.iter_mut().zip(&incoming.locals) {
                if *a != *b && a.is_some() {
                    // conflicting local becomes undefined
                    *a = None;
                    changed = true;
                }
            }
            if changed {
                work.push_back(target);
            }
        }
    }
    Ok(())
}

fn pop(s: &mut State, want: VType) -> Result<(), String> {
    match s.stack.pop() {
        None => Err("stack underflow".into()),
        Some(got) if got == want => Ok(()),
        Some(got) => Err(format!("expected {want:?}, found {got:?}")),
    }
}

fn push(s: &mut State, v: VType) {
    s.stack.push(v);
}

fn load(s: &mut State, slot: u16, want: VType) -> Result<(), String> {
    match s.locals.get(slot as usize) {
        Some(Some(t)) if *t == want => {
            push(s, want);
            Ok(())
        }
        Some(Some(t)) => Err(format!("local {slot} holds {t:?}, expected {want:?}")),
        _ => Err(format!("read of undefined local {slot}")),
    }
}

fn store(s: &mut State, slot: u16, v: VType) -> Result<(), String> {
    pop(s, v)?;
    let idx = slot as usize;
    if idx + v.width() > s.locals.len() {
        return Err(format!("store to local {slot} out of range"));
    }
    s.locals[idx] = Some(v);
    if v.width() == 2 {
        s.locals[idx + 1] = Some(match v {
            VType::Long => VType::Long2,
            _ => VType::Double2,
        });
    }
    Ok(())
}

#[allow(clippy::too_many_lines)]
fn transfer(prog: &Program, code: &Code, op: &Op, s: &mut State) -> Result<(), String> {
    use Op::*;
    use VType::*;
    match op {
        IConst(_) => push(s, Int),
        LConst(_) => push(s, Long),
        FConst(_) => push(s, Float),
        DConst(_) => push(s, Double),
        SConst(_) | AConstNull => push(s, Ref),
        ILoad(x) => return load(s, *x, Int),
        LLoad(x) => return load(s, *x, Long),
        FLoad(x) => return load(s, *x, Float),
        DLoad(x) => return load(s, *x, Double),
        ALoad(x) => return load(s, *x, Ref),
        IStore(x) => return store(s, *x, Int),
        LStore(x) => return store(s, *x, Long),
        FStore(x) => return store(s, *x, Float),
        DStore(x) => return store(s, *x, Double),
        AStore(x) => return store(s, *x, Ref),
        IInc(x, _) => match s.locals.get(*x as usize) {
            Some(Some(Int)) => {}
            _ => return Err(format!("iinc on non-int local {x}")),
        },
        Pop => {
            let v = s.stack.pop().ok_or("stack underflow")?;
            if v.width() != 1 {
                return Err("pop of wide value".into());
            }
        }
        Pop2 => {
            let v = s.stack.pop().ok_or("stack underflow")?;
            if v.width() == 1 {
                let w = s.stack.pop().ok_or("stack underflow")?;
                if w.width() != 1 {
                    return Err("pop2 splitting a wide value".into());
                }
            }
        }
        Dup => {
            let v = *s.stack.last().ok_or("stack underflow")?;
            if v.width() != 1 {
                return Err("dup of wide value".into());
            }
            push(s, v);
        }
        Dup2 => {
            let v = *s.stack.last().ok_or("stack underflow")?;
            if v.width() == 2 {
                push(s, v);
            } else {
                let n = s.stack.len();
                if n < 2 {
                    return Err("stack underflow".into());
                }
                let a = s.stack[n - 2];
                let b = s.stack[n - 1];
                push(s, a);
                push(s, b);
            }
        }
        DupX1 => {
            let a = s.stack.pop().ok_or("underflow")?;
            let b = s.stack.pop().ok_or("underflow")?;
            if a.width() != 1 || b.width() != 1 {
                return Err("dup_x1 on wide values".into());
            }
            push(s, a);
            push(s, b);
            push(s, a);
        }
        Dup2X1 => {
            // our compiler only uses this for wide a over 1-slot b
            let a = s.stack.pop().ok_or("underflow")?;
            let b = s.stack.pop().ok_or("underflow")?;
            push(s, a);
            push(s, b);
            push(s, a);
        }
        DupX2 => {
            let a = s.stack.pop().ok_or("underflow")?;
            let b = s.stack.pop().ok_or("underflow")?;
            let c = s.stack.pop().ok_or("underflow")?;
            push(s, a);
            push(s, c);
            push(s, b);
            push(s, a);
        }
        Dup2X2 => {
            let a = s.stack.pop().ok_or("underflow")?;
            let b = s.stack.pop().ok_or("underflow")?;
            let c = s.stack.pop().ok_or("underflow")?;
            push(s, a);
            push(s, c);
            push(s, b);
            push(s, a);
        }
        Swap => {
            let a = s.stack.pop().ok_or("underflow")?;
            let b = s.stack.pop().ok_or("underflow")?;
            push(s, a);
            push(s, b);
        }
        IAdd | ISub | IMul | IDiv | IRem | IShl | IShr | IUshr | IAnd | IOr | IXor => {
            pop(s, Int)?;
            pop(s, Int)?;
            push(s, Int);
        }
        INeg => {
            pop(s, Int)?;
            push(s, Int);
        }
        LAdd | LSub | LMul | LDiv | LRem | LAnd | LOr | LXor => {
            pop(s, Long)?;
            pop(s, Long)?;
            push(s, Long);
        }
        LShl | LShr | LUshr => {
            pop(s, Int)?;
            pop(s, Long)?;
            push(s, Long);
        }
        LNeg => {
            pop(s, Long)?;
            push(s, Long);
        }
        FAdd | FSub | FMul | FDiv | FRem => {
            pop(s, Float)?;
            pop(s, Float)?;
            push(s, Float);
        }
        FNeg => {
            pop(s, Float)?;
            push(s, Float);
        }
        DAdd | DSub | DMul | DDiv | DRem => {
            pop(s, Double)?;
            pop(s, Double)?;
            push(s, Double);
        }
        DNeg => {
            pop(s, Double)?;
            push(s, Double);
        }
        I2L => {
            pop(s, Int)?;
            push(s, Long);
        }
        I2F => {
            pop(s, Int)?;
            push(s, Float);
        }
        I2D => {
            pop(s, Int)?;
            push(s, Double);
        }
        I2C => {
            pop(s, Int)?;
            push(s, Int);
        }
        L2I => {
            pop(s, Long)?;
            push(s, Int);
        }
        L2F => {
            pop(s, Long)?;
            push(s, Float);
        }
        L2D => {
            pop(s, Long)?;
            push(s, Double);
        }
        F2I => {
            pop(s, Float)?;
            push(s, Int);
        }
        F2L => {
            pop(s, Float)?;
            push(s, Long);
        }
        F2D => {
            pop(s, Float)?;
            push(s, Double);
        }
        D2I => {
            pop(s, Double)?;
            push(s, Int);
        }
        D2L => {
            pop(s, Double)?;
            push(s, Long);
        }
        D2F => {
            pop(s, Double)?;
            push(s, Float);
        }
        LCmp => {
            pop(s, Long)?;
            pop(s, Long)?;
            push(s, Int);
        }
        FCmpL | FCmpG => {
            pop(s, Float)?;
            pop(s, Float)?;
            push(s, Int);
        }
        DCmpL | DCmpG => {
            pop(s, Double)?;
            pop(s, Double)?;
            push(s, Int);
        }
        IfEq(_) | IfNe(_) | IfLt(_) | IfLe(_) | IfGt(_) | IfGe(_) => pop(s, Int)?,
        IfICmpEq(_) | IfICmpNe(_) | IfICmpLt(_) | IfICmpLe(_) | IfICmpGt(_) | IfICmpGe(_) => {
            pop(s, Int)?;
            pop(s, Int)?;
        }
        IfACmpEq(_) | IfACmpNe(_) => {
            pop(s, Ref)?;
            pop(s, Ref)?;
        }
        IfNull(_) | IfNonNull(_) => pop(s, Ref)?,
        Goto(_) => {}
        NewArray(_, _) => {
            pop(s, Int)?;
            push(s, Ref);
        }
        ArrayLength => {
            pop(s, Ref)?;
            push(s, Int);
        }
        IALoad | BALoad | CALoad => {
            pop(s, Int)?;
            pop(s, Ref)?;
            push(s, Int);
        }
        LALoad => {
            pop(s, Int)?;
            pop(s, Ref)?;
            push(s, Long);
        }
        FALoad => {
            pop(s, Int)?;
            pop(s, Ref)?;
            push(s, Float);
        }
        DALoad => {
            pop(s, Int)?;
            pop(s, Ref)?;
            push(s, Double);
        }
        AALoad => {
            pop(s, Int)?;
            pop(s, Ref)?;
            push(s, Ref);
        }
        IAStore | BAStore | CAStore => {
            pop(s, Int)?;
            pop(s, Int)?;
            pop(s, Ref)?;
        }
        LAStore => {
            pop(s, Long)?;
            pop(s, Int)?;
            pop(s, Ref)?;
        }
        FAStore => {
            pop(s, Float)?;
            pop(s, Int)?;
            pop(s, Ref)?;
        }
        DAStore => {
            pop(s, Double)?;
            pop(s, Int)?;
            pop(s, Ref)?;
        }
        AAStore => {
            pop(s, Ref)?;
            pop(s, Int)?;
            pop(s, Ref)?;
        }
        New(_) => push(s, Ref),
        GetField(c, f) => {
            pop(s, Ref)?;
            push(s, vtype_of(&prog.field(*c, *f).ty));
        }
        PutField(c, f) => {
            pop(s, vtype_of(&prog.field(*c, *f).ty))?;
            pop(s, Ref)?;
        }
        GetStatic(c, f) => push(s, vtype_of(&prog.field(*c, *f).ty)),
        PutStatic(c, f) => pop(s, vtype_of(&prog.field(*c, *f).ty))?,
        InvokeStatic(c, m) | InvokeSpecial(c, m) | InvokeVirtual(c, m) => {
            let meta = prog.method(*c, *m);
            for p in meta.params.iter().rev() {
                pop(s, vtype_of(p))?;
            }
            if !matches!(op, InvokeStatic(_, _)) {
                pop(s, Ref)?;
            }
            if meta.ret != Ty::Void {
                push(s, vtype_of(&meta.ret));
            }
        }
        CheckCast(t) => {
            pop(s, Ref)?;
            let _ = code.types.get(*t as usize).ok_or("bad type index")?;
            push(s, Ref);
        }
        InstanceOf(t) => {
            pop(s, Ref)?;
            let _ = code.types.get(*t as usize).ok_or("bad type index")?;
            push(s, Int);
        }
        AThrow => pop(s, Ref)?,
        IReturn => pop(s, Int)?,
        LReturn => pop(s, Long)?,
        FReturn => pop(s, Float)?,
        DReturn => pop(s, Double)?,
        AReturn => pop(s, Ref)?,
        Return => {}
    }
    Ok(())
}

/// Verifies every compiled method and fills in `max_stack`.
///
/// # Errors
///
/// Returns the first method that fails verification.
pub fn verify_program(
    prog: &Program,
    compiled: &mut crate::compile::CompiledProgram,
) -> Result<BVerifyStats, BVerifyError> {
    let mut total = BVerifyStats::default();
    let keys: Vec<(usize, usize)> = compiled.methods.keys().copied().collect();
    for (c, m) in keys {
        let code = compiled.methods.get(&(c, m)).expect("key exists").clone();
        let stats = verify_method(prog, c, m, &code)?;
        let entry = compiled.methods.get_mut(&(c, m)).expect("key exists");
        entry.max_stack = stats.max_stack;
        total.iterations += stats.iterations;
        total.merges += stats.merges;
        total.max_stack = total.max_stack.max(stats.max_stack);
    }
    Ok(total)
}
