//! The baseline stack-machine interpreter (a miniature JVM).
//!
//! Booleans and chars live as ints on the operand stack (JVM
//! convention); conversions to typed heap/intrinsic values happen at
//! field, array, and call boundaries.

use crate::compile::CompiledProgram;
use crate::opcode::{ArrayKind, Code, Op};
use safetsa_frontend::hir::{
    ClassIdx, Field, FieldIdx, Intrinsic as HIntr, Method, MethodIdx, MethodKind, PrimTy, Program,
    Ty,
};
use safetsa_rt::heap::{ArrData, Obj};
use safetsa_rt::intrinsics::{self, Intrinsic};
use safetsa_rt::{Heap, HeapRef, Output, Trap, Value};
use std::collections::HashMap;
use std::fmt;

/// A baseline-VM failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BvmError {
    /// Missing entry point or malformed code.
    Load(String),
    /// Uncaught exception.
    Uncaught(Trap),
}

impl fmt::Display for BvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BvmError::Load(s) => write!(f, "load error: {s}"),
            BvmError::Uncaught(t) => write!(f, "uncaught exception: {t}"),
        }
    }
}

impl std::error::Error for BvmError {}

/// The baseline virtual machine.
pub struct Bvm<'p> {
    prog: &'p Program,
    code: &'p CompiledProgram,
    /// This engine's own instance layout, by class.
    shapes: Vec<Shape>,
    /// Static-field values, by class and then by field index.
    statics: Vec<Vec<Value>>,
    str_pool: HashMap<String, HeapRef>,
    /// Array type tags: interned HIR types (per VM).
    array_tags: Vec<Ty>,
    /// The heap.
    pub heap: Heap,
    /// Captured output.
    pub output: Output,
    /// Remaining instruction budget.
    pub fuel: u64,
    /// Instructions executed.
    pub steps: u64,
}

impl<'p> Bvm<'p> {
    /// Creates a VM over a compiled program.
    pub fn load(prog: &'p Program, code: &'p CompiledProgram) -> Self {
        let statics = prog
            .classes
            .iter()
            .map(|c| {
                let default = |f: &Field| {
                    if f.is_static {
                        default_value(&f.ty)
                    } else {
                        Value::NULL
                    }
                };
                c.fields.iter().map(default).collect()
            })
            .collect();
        Bvm {
            prog,
            code,
            shapes: lay_out(prog),
            statics,
            str_pool: HashMap::new(),
            array_tags: Vec::new(),
            heap: Heap::new(),
            output: Output::new(),
            fuel: u64::MAX,
            steps: 0,
        }
    }

    /// Sets the instruction budget.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Runs every `<clinit>` in class order.
    ///
    /// # Errors
    ///
    /// Propagates uncaught traps.
    pub fn run_clinits(&mut self) -> Result<(), BvmError> {
        for (ci, c) in self.prog.classes.iter().enumerate() {
            for (mi, m) in c.methods.iter().enumerate() {
                if m.name == "<clinit>" && m.body.is_some() {
                    self.invoke(ci, mi, vec![]).map_err(BvmError::Uncaught)?;
                }
            }
        }
        Ok(())
    }

    /// Runs static initializers, then `"Class.method"`.
    ///
    /// # Errors
    ///
    /// Returns load errors for unknown entries and for entries that take
    /// parameters (an entry runs with no arguments), and uncaught traps.
    pub fn run_entry(&mut self, name: &str) -> Result<Option<Value>, BvmError> {
        self.run_clinits()?;
        let (cname, mname) = name
            .split_once('.')
            .ok_or_else(|| BvmError::Load(format!("bad entry name {name}")))?;
        let ci = self
            .prog
            .find_class(cname)
            .ok_or_else(|| BvmError::Load(format!("no class {cname}")))?;
        let mi = self.prog.classes[ci]
            .methods
            .iter()
            .position(|m| m.name == mname)
            .ok_or_else(|| BvmError::Load(format!("no method {name}")))?;
        let m = &self.prog.classes[ci].methods[mi];
        let n = m.params.len() + usize::from(m.kind != MethodKind::Static);
        if n != 0 {
            let s = if n == 1 { "" } else { "s" };
            return Err(BvmError::Load(format!(
                "entry {name} takes {n} parameter{s}"
            )));
        }
        self.invoke(ci, mi, vec![]).map_err(BvmError::Uncaught)
    }

    fn tag_of(&mut self, t: &Ty) -> u64 {
        if let Some(i) = self.array_tags.iter().position(|x| x == t) {
            return i as u64;
        }
        self.array_tags.push(t.clone());
        (self.array_tags.len() - 1) as u64
    }

    fn intern_str(&mut self, s: &str) -> HeapRef {
        if let Some(&r) = self.str_pool.get(s) {
            return r;
        }
        let r = self.heap.alloc_str(s.to_string());
        self.str_pool.insert(s.to_string(), r);
        r
    }

    /// Invokes a method with typed argument values (receiver first for
    /// instance methods).
    ///
    /// # Errors
    ///
    /// Returns traps (caught by enclosing exception tables as control
    /// returns through `exec`).
    pub fn invoke(
        &mut self,
        class: ClassIdx,
        method: MethodIdx,
        args: Vec<Value>,
    ) -> Result<Option<Value>, Trap> {
        let m = &self.prog.classes[class].methods[method];
        if m.body.is_none() {
            // Intrinsic.
            let intr = m
                .intrinsic
                .map(map_intrinsic)
                .ok_or_else(|| Trap::Internal("method without body or intrinsic".into()))?;
            let (recv, rest) = if m.kind == MethodKind::Static {
                (None, &args[..])
            } else {
                (Some(args[0]), &args[1..])
            };
            return intrinsics::invoke(intr, &mut self.heap, &mut self.output, recv, rest);
        }
        let code = self
            .code
            .code(class, method)
            .ok_or_else(|| Trap::Internal("body not compiled".into()))?;
        self.exec(class, method, code, args)
    }

    fn exec(
        &mut self,
        class: ClassIdx,
        method: MethodIdx,
        code: &Code,
        args: Vec<Value>,
    ) -> Result<Option<Value>, Trap> {
        let m = &self.prog.classes[class].methods[method];
        let mut locals: Vec<Value> = vec![Value::NULL; code.max_locals as usize];
        // Place arguments in slots (wide types burn two).
        {
            let mut slot = 0usize;
            let mut tys: Vec<Ty> = Vec::new();
            if m.kind != MethodKind::Static {
                tys.push(Ty::Ref(class));
            }
            tys.extend(m.params.iter().cloned());
            for (a, t) in args.into_iter().zip(&tys) {
                locals[slot] = to_stack(a);
                slot += match t {
                    Ty::Prim(PrimTy::Long | PrimTy::Double) => 2,
                    _ => 1,
                };
            }
        }
        let mut stack: Vec<Value> = Vec::with_capacity(code.max_stack as usize + 4);
        let mut pc: usize = 0;
        loop {
            if self.fuel == 0 {
                return Err(Trap::OutOfFuel);
            }
            self.fuel -= 1;
            self.steps += 1;
            let op = &code.ops[pc];
            match self.step(code, op, &mut stack, &mut locals, &mut pc)? {
                StepResult::Next => {}
                StepResult::Return(v) => return Ok(v),
                StepResult::Throw(trap) => {
                    // Exception dispatch through the table. An implicit
                    // exception object is allocated only by the frame
                    // whose handler catches it; an unhandled trap
                    // propagates unchanged, so an uncaught one reports
                    // its kind.
                    let runtime_class = match &trap {
                        Trap::User(r) => self.heap.instance_class(*r)?,
                        _ => match self.trap_class(&trap) {
                            Some(c) => c,
                            None => return Err(trap),
                        },
                    };
                    let Some(handler) = code.ex_table.iter().find(|e| {
                        (pc as u32) >= e.start
                            && (pc as u32) < e.end
                            && self.prog.is_subclass(runtime_class, e.class)
                    }) else {
                        return Err(trap);
                    };
                    let exc_obj = match trap {
                        Trap::User(r) => r,
                        _ => self.alloc_instance(runtime_class),
                    };
                    stack.clear();
                    stack.push(Value::Ref(Some(exc_obj)));
                    pc = handler.handler as usize;
                    continue;
                }
            }
        }
    }

    fn trap_class(&self, t: &Trap) -> Option<ClassIdx> {
        Some(match t {
            Trap::DivByZero => self.prog.arithmetic_exception,
            Trap::NullPointer => self.prog.null_pointer_exception,
            Trap::IndexOutOfBounds => self.prog.index_exception,
            Trap::ClassCast => self.prog.cast_exception,
            Trap::NegativeArraySize => self.prog.negative_size_exception,
            Trap::OutOfMemory => self.prog.oom_error,
            Trap::StackOverflow => self.prog.stack_overflow_error,
            Trap::User(_) => return None, // class read from the object
            Trap::Internal(_) | Trap::OutOfFuel | Trap::DeadlineExceeded => return None,
        })
    }

    fn alloc_instance(&mut self, class: ClassIdx) -> HeapRef {
        let mut fields = vec![Value::NULL; self.shapes[class].size];
        // Typed defaults along the chain.
        let mut cur = Some(class);
        while let Some(c) = cur {
            let decl = &self.prog.classes[c];
            for (f, slot) in decl.fields.iter().zip(&self.shapes[c].slots) {
                if let Some(slot) = *slot {
                    fields[slot] = default_value(&f.ty);
                }
            }
            cur = decl.superclass;
        }
        self.heap.alloc(Obj::Instance {
            class,
            fields,
            msg: None,
        })
    }

    fn field_slot(&self, class: ClassIdx, field: FieldIdx) -> Result<usize, Trap> {
        self.shapes[class].slots[field]
            .ok_or_else(|| Trap::Internal("instance access to a static field".into()))
    }

    fn is_instance_of(&self, r: HeapRef, target: &Ty) -> bool {
        match (self.heap.get(r), target) {
            (Obj::Instance { class, .. }, Ty::Ref(t)) => self.prog.is_subclass(*class, *t),
            (Obj::Str(_), Ty::Ref(t)) => self.prog.is_subclass(self.prog.string, *t),
            (Obj::Array { .. }, Ty::Ref(t)) => *t == self.prog.object,
            (Obj::Array { type_tag, .. }, t @ Ty::Array(_)) => {
                self.array_tags.get(*type_tag as usize) == Some(t)
            }
            _ => false,
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step(
        &mut self,
        code: &Code,
        op: &Op,
        stack: &mut Vec<Value>,
        locals: &mut [Value],
        pc: &mut usize,
    ) -> Result<StepResult, Trap> {
        use Op::*;
        macro_rules! pop {
            () => {
                stack
                    .pop()
                    .ok_or_else(|| Trap::Internal("stack underflow".into()))?
            };
        }
        macro_rules! binop_i {
            ($f:expr) => {{
                let b = pop!().as_i();
                let a = pop!().as_i();
                stack.push(Value::I($f(a, b)));
            }};
        }
        macro_rules! binop_j {
            ($f:expr) => {{
                let b = pop!().as_j();
                let a = pop!().as_j();
                stack.push(Value::J($f(a, b)));
            }};
        }
        macro_rules! branch_if {
            ($cond:expr, $t:expr) => {{
                if $cond {
                    *pc = $t as usize;
                } else {
                    *pc += 1;
                }
                return Ok(StepResult::Next);
            }};
        }
        match op {
            IConst(v) => stack.push(Value::I(*v)),
            LConst(v) => stack.push(Value::J(*v)),
            FConst(v) => stack.push(Value::F(*v)),
            DConst(v) => stack.push(Value::D(*v)),
            SConst(i) => {
                let s = code.strings[*i as usize].clone();
                let r = self.intern_str(&s);
                stack.push(Value::Ref(Some(r)));
            }
            AConstNull => stack.push(Value::NULL),
            ILoad(s) | LLoad(s) | FLoad(s) | DLoad(s) | ALoad(s) => {
                stack.push(locals[*s as usize]);
            }
            IStore(s) | LStore(s) | FStore(s) | DStore(s) | AStore(s) => {
                locals[*s as usize] = pop!();
            }
            IInc(s, c) => {
                let v = locals[*s as usize].as_i();
                locals[*s as usize] = Value::I(v.wrapping_add(*c as i32));
            }
            Pop => {
                pop!();
            }
            Pop2 => {
                // wide values are a single entry in this model
                pop!();
            }
            Dup | Dup2 => {
                let v = *stack
                    .last()
                    .ok_or_else(|| Trap::Internal("underflow".into()))?;
                stack.push(v);
            }
            DupX1 | Dup2X1 => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
                stack.push(a);
            }
            DupX2 | Dup2X2 => {
                let a = pop!();
                let b = pop!();
                let c = pop!();
                stack.push(a);
                stack.push(c);
                stack.push(b);
                stack.push(a);
            }
            Swap => {
                let a = pop!();
                let b = pop!();
                stack.push(a);
                stack.push(b);
            }
            IAdd => binop_i!(i32::wrapping_add),
            ISub => binop_i!(i32::wrapping_sub),
            IMul => binop_i!(i32::wrapping_mul),
            IDiv => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                if b == 0 {
                    return Ok(StepResult::Throw(Trap::DivByZero));
                }
                stack.push(Value::I(a.wrapping_div(b)));
            }
            IRem => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                if b == 0 {
                    return Ok(StepResult::Throw(Trap::DivByZero));
                }
                stack.push(Value::I(a.wrapping_rem(b)));
            }
            INeg => {
                let a = pop!().as_i();
                stack.push(Value::I(a.wrapping_neg()));
            }
            IShl => binop_i!(|a: i32, b: i32| a.wrapping_shl(b as u32 & 31)),
            IShr => binop_i!(|a: i32, b: i32| a.wrapping_shr(b as u32 & 31)),
            IUshr => binop_i!(|a: i32, b: i32| ((a as u32) >> (b as u32 & 31)) as i32),
            IAnd => binop_i!(|a, b| a & b),
            IOr => binop_i!(|a, b| a | b),
            IXor => binop_i!(|a, b| a ^ b),
            LAdd => binop_j!(i64::wrapping_add),
            LSub => binop_j!(i64::wrapping_sub),
            LMul => binop_j!(i64::wrapping_mul),
            LDiv => {
                let b = pop!().as_j();
                let a = pop!().as_j();
                if b == 0 {
                    return Ok(StepResult::Throw(Trap::DivByZero));
                }
                stack.push(Value::J(a.wrapping_div(b)));
            }
            LRem => {
                let b = pop!().as_j();
                let a = pop!().as_j();
                if b == 0 {
                    return Ok(StepResult::Throw(Trap::DivByZero));
                }
                stack.push(Value::J(a.wrapping_rem(b)));
            }
            LNeg => {
                let a = pop!().as_j();
                stack.push(Value::J(a.wrapping_neg()));
            }
            LShl => {
                let b = pop!().as_i();
                let a = pop!().as_j();
                stack.push(Value::J(a.wrapping_shl(b as u32 & 63)));
            }
            LShr => {
                let b = pop!().as_i();
                let a = pop!().as_j();
                stack.push(Value::J(a.wrapping_shr(b as u32 & 63)));
            }
            LUshr => {
                let b = pop!().as_i();
                let a = pop!().as_j();
                stack.push(Value::J(((a as u64) >> (b as u32 & 63)) as i64));
            }
            LAnd => binop_j!(|a, b| a & b),
            LOr => binop_j!(|a, b| a | b),
            LXor => binop_j!(|a, b| a ^ b),
            FAdd | FSub | FMul | FDiv | FRem => {
                let b = pop!().as_f();
                let a = pop!().as_f();
                stack.push(Value::F(match op {
                    FAdd => a + b,
                    FSub => a - b,
                    FMul => a * b,
                    FDiv => a / b,
                    _ => a % b,
                }));
            }
            FNeg => {
                let a = pop!().as_f();
                stack.push(Value::F(-a));
            }
            DAdd | DSub | DMul | DDiv | DRem => {
                let b = pop!().as_d();
                let a = pop!().as_d();
                stack.push(Value::D(match op {
                    DAdd => a + b,
                    DSub => a - b,
                    DMul => a * b,
                    DDiv => a / b,
                    _ => a % b,
                }));
            }
            DNeg => {
                let a = pop!().as_d();
                stack.push(Value::D(-a));
            }
            I2L => {
                let a = pop!().as_i();
                stack.push(Value::J(a as i64));
            }
            I2F => {
                let a = pop!().as_i();
                stack.push(Value::F(a as f32));
            }
            I2D => {
                let a = pop!().as_i();
                stack.push(Value::D(a as f64));
            }
            I2C => {
                let a = pop!().as_i();
                stack.push(Value::I(a as u16 as i32));
            }
            L2I => {
                let a = pop!().as_j();
                stack.push(Value::I(a as i32));
            }
            L2F => {
                let a = pop!().as_j();
                stack.push(Value::F(a as f32));
            }
            L2D => {
                let a = pop!().as_j();
                stack.push(Value::D(a as f64));
            }
            F2I => {
                let a = pop!().as_f();
                stack.push(Value::I(a as i32));
            }
            F2L => {
                let a = pop!().as_f();
                stack.push(Value::J(a as i64));
            }
            F2D => {
                let a = pop!().as_f();
                stack.push(Value::D(a as f64));
            }
            D2I => {
                let a = pop!().as_d();
                stack.push(Value::I(a as i32));
            }
            D2L => {
                let a = pop!().as_d();
                stack.push(Value::J(a as i64));
            }
            D2F => {
                let a = pop!().as_d();
                stack.push(Value::F(a as f32));
            }
            LCmp => {
                let b = pop!().as_j();
                let a = pop!().as_j();
                stack.push(Value::I(match a.cmp(&b) {
                    std::cmp::Ordering::Less => -1,
                    std::cmp::Ordering::Equal => 0,
                    std::cmp::Ordering::Greater => 1,
                }));
            }
            FCmpL | FCmpG => {
                let b = pop!().as_f();
                let a = pop!().as_f();
                let v = if a.is_nan() || b.is_nan() {
                    if matches!(op, FCmpG) {
                        1
                    } else {
                        -1
                    }
                } else if a < b {
                    -1
                } else if a > b {
                    1
                } else {
                    0
                };
                stack.push(Value::I(v));
            }
            DCmpL | DCmpG => {
                let b = pop!().as_d();
                let a = pop!().as_d();
                let v = if a.is_nan() || b.is_nan() {
                    if matches!(op, DCmpG) {
                        1
                    } else {
                        -1
                    }
                } else if a < b {
                    -1
                } else if a > b {
                    1
                } else {
                    0
                };
                stack.push(Value::I(v));
            }
            IfEq(t) => branch_if!(pop!().as_i() == 0, *t),
            IfNe(t) => branch_if!(pop!().as_i() != 0, *t),
            IfLt(t) => branch_if!(pop!().as_i() < 0, *t),
            IfLe(t) => branch_if!(pop!().as_i() <= 0, *t),
            IfGt(t) => branch_if!(pop!().as_i() > 0, *t),
            IfGe(t) => branch_if!(pop!().as_i() >= 0, *t),
            IfICmpEq(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a == b, *t)
            }
            IfICmpNe(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a != b, *t)
            }
            IfICmpLt(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a < b, *t)
            }
            IfICmpLe(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a <= b, *t)
            }
            IfICmpGt(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a > b, *t)
            }
            IfICmpGe(t) => {
                let b = pop!().as_i();
                let a = pop!().as_i();
                branch_if!(a >= b, *t)
            }
            IfACmpEq(t) => {
                let b = pop!().as_ref();
                let a = pop!().as_ref();
                branch_if!(a == b, *t)
            }
            IfACmpNe(t) => {
                let b = pop!().as_ref();
                let a = pop!().as_ref();
                branch_if!(a != b, *t)
            }
            IfNull(t) => branch_if!(pop!().as_ref().is_none(), *t),
            IfNonNull(t) => branch_if!(pop!().as_ref().is_some(), *t),
            Goto(t) => {
                *pc = *t as usize;
                return Ok(StepResult::Next);
            }
            NewArray(kind, tid) => {
                let len = pop!().as_i();
                if len < 0 {
                    return Ok(StepResult::Throw(Trap::NegativeArraySize));
                }
                let n = len as usize;
                let data = match kind {
                    ArrayKind::Bool => ArrData::Z(vec![false; n]),
                    ArrayKind::Char => ArrData::C(vec![0; n]),
                    ArrayKind::Int => ArrData::I(vec![0; n]),
                    ArrayKind::Long => ArrData::J(vec![0; n]),
                    ArrayKind::Float => ArrData::F(vec![0.0; n]),
                    ArrayKind::Double => ArrData::D(vec![0.0; n]),
                    ArrayKind::Ref => ArrData::R(vec![None; n]),
                };
                let ty = code.types[*tid as usize].clone();
                let tag = self.tag_of(&ty);
                let r = self.heap.alloc(Obj::Array {
                    type_tag: tag,
                    data,
                });
                stack.push(Value::Ref(Some(r)));
            }
            ArrayLength => {
                let r = pop!().as_ref().ok_or(Trap::NullPointer);
                let r = match r {
                    Ok(r) => r,
                    Err(t) => return Ok(StepResult::Throw(t)),
                };
                match self.heap.get(r) {
                    Obj::Array { data, .. } => stack.push(Value::I(data.len() as i32)),
                    _ => return Err(Trap::Internal("arraylength on non-array".into())),
                }
            }
            IALoad | LALoad | FALoad | DALoad | AALoad | BALoad | CALoad => {
                let i = pop!().as_i();
                let Some(r) = pop!().as_ref() else {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                };
                let v = match self.heap.get(r) {
                    Obj::Array { data, .. } => {
                        if i < 0 {
                            return Ok(StepResult::Throw(Trap::IndexOutOfBounds));
                        }
                        match data.get(i as usize) {
                            Ok(v) => v,
                            Err(t) => return Ok(StepResult::Throw(t)),
                        }
                    }
                    _ => return Err(Trap::Internal("aload on non-array".into())),
                };
                stack.push(to_stack(v));
            }
            IAStore | LAStore | FAStore | DAStore | AAStore | BAStore | CAStore => {
                let v = pop!();
                let i = pop!().as_i();
                let Some(r) = pop!().as_ref() else {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                };
                let typed = match op {
                    BAStore => Value::Z(v.as_i() != 0),
                    CAStore => Value::C(v.as_i() as u16),
                    _ => v,
                };
                match self.heap.get_mut(r) {
                    Obj::Array { data, .. } => {
                        if i < 0 {
                            return Ok(StepResult::Throw(Trap::IndexOutOfBounds));
                        }
                        if let Err(t) = data.set(i as usize, typed) {
                            return Ok(StepResult::Throw(t));
                        }
                    }
                    _ => return Err(Trap::Internal("astore on non-array".into())),
                }
            }
            New(c) => {
                let r = self.alloc_instance(*c);
                stack.push(Value::Ref(Some(r)));
            }
            GetField(c, f) => {
                let Some(r) = pop!().as_ref() else {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                };
                let slot = self.field_slot(*c, *f)?;
                match self.heap.get(r) {
                    Obj::Instance { fields, .. } => stack.push(to_stack(fields[slot])),
                    _ => return Err(Trap::Internal("getfield on non-instance".into())),
                }
            }
            PutField(c, f) => {
                let v = pop!();
                let Some(r) = pop!().as_ref() else {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                };
                let slot = self.field_slot(*c, *f)?;
                let typed = from_stack(v, &self.prog.field(*c, *f).ty);
                match self.heap.get_mut(r) {
                    Obj::Instance { fields, .. } => fields[slot] = typed,
                    _ => return Err(Trap::Internal("putfield on non-instance".into())),
                }
            }
            GetStatic(c, f) => {
                stack.push(to_stack(self.statics[*c][*f]));
            }
            PutStatic(c, f) => {
                let v = pop!();
                let typed = from_stack(v, &self.prog.field(*c, *f).ty);
                self.statics[*c][*f] = typed;
            }
            InvokeStatic(c, m) => {
                let meta = self.prog.method(*c, *m);
                let (args, _) = self.collect_args(stack, &meta.params.clone(), false)?;
                let ret = meta.ret.clone();
                let r = self.invoke(*c, *m, args);
                return self.finish_call(stack, r, &ret, pc);
            }
            InvokeSpecial(c, m) => {
                let meta = self.prog.method(*c, *m);
                let (args, recv_null) = self.collect_args(stack, &meta.params.clone(), true)?;
                if recv_null {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                }
                let ret = meta.ret.clone();
                let r = self.invoke(*c, *m, args);
                return self.finish_call(stack, r, &ret, pc);
            }
            InvokeVirtual(c, m) => {
                let meta = self.prog.method(*c, *m);
                let (args, recv_null) = self.collect_args(stack, &meta.params.clone(), true)?;
                if recv_null {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                }
                let ret = meta.ret.clone();
                let recv = args[0].as_ref().expect("checked above");
                let runtime_class = match self.heap.get(recv) {
                    Obj::Instance { class, .. } => *class,
                    Obj::Str(_) => self.prog.string,
                    Obj::Array { .. } => self.prog.object,
                };
                let (ic, im) = select_virtual(self.prog, runtime_class, meta)?;
                let r = self.invoke(ic, im, args);
                return self.finish_call(stack, r, &ret, pc);
            }
            CheckCast(tid) => {
                let v = *stack
                    .last()
                    .ok_or_else(|| Trap::Internal("underflow".into()))?;
                if let Some(r) = v.as_ref() {
                    let target = code.types[*tid as usize].clone();
                    if !self.is_instance_of(r, &target) {
                        return Ok(StepResult::Throw(Trap::ClassCast));
                    }
                }
            }
            InstanceOf(tid) => {
                let v = pop!();
                let res = match v.as_ref() {
                    None => false,
                    Some(r) => {
                        let target = code.types[*tid as usize].clone();
                        self.is_instance_of(r, &target)
                    }
                };
                stack.push(Value::I(i32::from(res)));
            }
            AThrow => {
                let Some(r) = pop!().as_ref() else {
                    return Ok(StepResult::Throw(Trap::NullPointer));
                };
                return Ok(StepResult::Throw(Trap::User(r)));
            }
            IReturn | LReturn | FReturn | DReturn | AReturn => {
                let v = pop!();
                return Ok(StepResult::Return(Some(v)));
            }
            Return => return Ok(StepResult::Return(None)),
        }
        *pc += 1;
        Ok(StepResult::Next)
    }

    /// Pops call arguments (converting to the callee's typed values) and
    /// the receiver; returns `(args_with_receiver_first, receiver_null)`.
    fn collect_args(
        &mut self,
        stack: &mut Vec<Value>,
        params: &[Ty],
        has_receiver: bool,
    ) -> Result<(Vec<Value>, bool), Trap> {
        let mut args = Vec::with_capacity(params.len() + 1);
        for p in params.iter().rev() {
            let v = stack
                .pop()
                .ok_or_else(|| Trap::Internal("stack underflow in call".into()))?;
            args.push(from_stack(v, p));
        }
        let mut recv_null = false;
        if has_receiver {
            let r = stack
                .pop()
                .ok_or_else(|| Trap::Internal("stack underflow (receiver)".into()))?;
            recv_null = r.as_ref().is_none();
            args.push(r);
        }
        args.reverse();
        Ok((args, recv_null))
    }

    /// Completes a call: pushes the result and advances `pc` on
    /// success; on a throw, `pc` stays at the call site so the
    /// exception-table range check sees the faulting instruction.
    fn finish_call(
        &mut self,
        stack: &mut Vec<Value>,
        r: Result<Option<Value>, Trap>,
        ret: &Ty,
        pc: &mut usize,
    ) -> Result<StepResult, Trap> {
        match r {
            Ok(Some(v)) => {
                let _ = ret;
                stack.push(to_stack(v));
                *pc += 1;
                Ok(StepResult::Next)
            }
            Ok(None) => {
                *pc += 1;
                Ok(StepResult::Next)
            }
            Err(t @ (Trap::Internal(_) | Trap::OutOfFuel | Trap::DeadlineExceeded)) => Err(t),
            Err(t) => Ok(StepResult::Throw(t)),
        }
    }
}

enum StepResult {
    Next,
    Return(Option<Value>),
    Throw(Trap),
}

/// `invokevirtual`'s selection, as the JVM makes it: the nearest class,
/// from the receiver's runtime class up, that declares a virtual method
/// with the name and parameters of the resolved method. It reads no
/// dispatch slot, so it checks SafeTSA's slots independently.
fn select_virtual(
    prog: &Program,
    runtime_class: ClassIdx,
    resolved: &Method,
) -> Result<(ClassIdx, MethodIdx), Trap> {
    let mut cur = Some(runtime_class);
    while let Some(c) = cur {
        let class = prog.class(c);
        let declared = class.methods.iter().position(|m| {
            m.kind == MethodKind::Virtual && m.name == resolved.name && m.params == resolved.params
        });
        if let Some(mi) = declared {
            return Ok((c, mi));
        }
        cur = class.superclass;
    }
    Err(Trap::Internal(format!(
        "no class declares {} for the receiver",
        resolved.name
    )))
}

/// Converts a typed value to its stack representation (bool/char → int).
fn to_stack(v: Value) -> Value {
    match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(c as i32),
        other => other,
    }
}

/// Converts a stack value to the typed representation demanded by `ty`.
fn from_stack(v: Value, ty: &Ty) -> Value {
    match (ty, v) {
        (Ty::Prim(PrimTy::Bool), Value::I(x)) => Value::Z(x != 0),
        (Ty::Prim(PrimTy::Char), Value::I(x)) => Value::C(x as u16),
        _ => v,
    }
}

/// One class's instance layout in this engine.
#[derive(Clone)]
struct Shape {
    /// Each declared field's slot in an instance; `None` for a static
    /// field.
    slots: Vec<Option<usize>>,
    /// Instance slots, inherited ones included.
    size: usize,
}

/// Lays out `prog`'s instances from the HIR alone, so the layout the
/// SafeTSA VM reads from its type table has an independent check: a
/// class's instance fields take the slots after its superclass's, in
/// declaration order. Classes are laid out parent-first, each from its
/// superclass's finished shape, with an explicit stack rather than
/// recursion. The front end rejects superclass cycles.
fn lay_out(prog: &Program) -> Vec<Shape> {
    const TODO: usize = usize::MAX;
    let todo = Shape {
        slots: Vec::new(),
        size: TODO,
    };
    let mut shapes = vec![todo; prog.classes.len()];
    // A class and its ancestors not yet laid out, nearest first.
    let mut chain = Vec::new();
    for i in 0..shapes.len() {
        let mut cur = Some(i);
        while let Some(c) = cur.filter(|&c| shapes[c].size == TODO) {
            chain.push(c);
            cur = prog.classes[c].superclass;
        }
        while let Some(c) = chain.pop() {
            let class = &prog.classes[c];
            let mut size = class.superclass.map_or(0, |s| shapes[s].size);
            let mut slot = |f: &Field| {
                (!f.is_static).then(|| {
                    size += 1;
                    size - 1
                })
            };
            let slots = class.fields.iter().map(&mut slot).collect();
            shapes[c] = Shape { slots, size };
        }
    }
    shapes
}

fn default_value(ty: &Ty) -> Value {
    match ty {
        Ty::Prim(PrimTy::Bool) => Value::Z(false),
        Ty::Prim(PrimTy::Char) => Value::C(0),
        Ty::Prim(PrimTy::Int) => Value::I(0),
        Ty::Prim(PrimTy::Long) => Value::J(0),
        Ty::Prim(PrimTy::Float) => Value::F(0.0),
        Ty::Prim(PrimTy::Double) => Value::D(0.0),
        _ => Value::NULL,
    }
}

/// Maps the front-end intrinsic tags onto the runtime's.
fn map_intrinsic(i: HIntr) -> Intrinsic {
    use Intrinsic as R;
    match i {
        HIntr::ObjectCtor => R::ObjectCtor,
        HIntr::MathSqrt => R::MathSqrt,
        HIntr::MathAbsI => R::MathAbsI,
        HIntr::MathAbsL => R::MathAbsL,
        HIntr::MathAbsD => R::MathAbsD,
        HIntr::MathMinI => R::MathMinI,
        HIntr::MathMaxI => R::MathMaxI,
        HIntr::MathMinD => R::MathMinD,
        HIntr::MathMaxD => R::MathMaxD,
        HIntr::MathFloor => R::MathFloor,
        HIntr::MathCeil => R::MathCeil,
        HIntr::MathPow => R::MathPow,
        HIntr::SysPrintI => R::SysPrintI,
        HIntr::SysPrintL => R::SysPrintL,
        HIntr::SysPrintD => R::SysPrintD,
        HIntr::SysPrintC => R::SysPrintC,
        HIntr::SysPrintB => R::SysPrintB,
        HIntr::SysPrintS => R::SysPrintS,
        HIntr::SysPrintlnI => R::SysPrintlnI,
        HIntr::SysPrintlnL => R::SysPrintlnL,
        HIntr::SysPrintlnD => R::SysPrintlnD,
        HIntr::SysPrintlnC => R::SysPrintlnC,
        HIntr::SysPrintlnB => R::SysPrintlnB,
        HIntr::SysPrintlnS => R::SysPrintlnS,
        HIntr::SysPrintln => R::SysPrintln,
        HIntr::StrLength => R::StrLength,
        HIntr::StrCharAt => R::StrCharAt,
        HIntr::StrConcat => R::StrConcat,
        HIntr::StrEquals => R::StrEquals,
        HIntr::StrCompareTo => R::StrCompareTo,
        HIntr::StrIndexOfChar => R::StrIndexOfChar,
        HIntr::StrSubstring => R::StrSubstring,
        HIntr::StrValueOfI => R::StrValueOfI,
        HIntr::StrValueOfL => R::StrValueOfL,
        HIntr::StrValueOfD => R::StrValueOfD,
        HIntr::StrValueOfC => R::StrValueOfC,
        HIntr::StrValueOfB => R::StrValueOfB,
        HIntr::ThrowableCtor => R::ThrowableCtor,
        HIntr::ThrowableCtorMsg => R::ThrowableCtorMsg,
        HIntr::ThrowableGetMessage => R::ThrowableGetMessage,
    }
}
