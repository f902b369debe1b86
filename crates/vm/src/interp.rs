//! The SafeTSA virtual machine's state: loading, resource budgets,
//! statistics and profiling, and the runtime helpers (literals, traps,
//! allocation, type tests) the threaded engine in `threaded.rs` calls.

use safetsa_core::module::{FuncId, Module};
use safetsa_core::types::{ClassId, FieldInfo, PrimKind, TypeId, TypeKind};
use safetsa_rt::heap::Obj;
use safetsa_rt::{Heap, HeapRef, Output, Trap, Value};
use safetsa_telemetry::{Json, Telemetry};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::time::Instant;

/// A VM-level failure: loading problems, uncaught traps, or an
/// exhausted non-catchable budget.
#[derive(Debug, Clone, PartialEq)]
pub enum VmError {
    /// The module referenced a host class/method the VM does not know.
    Load(String),
    /// Execution trapped and no handler caught it.
    Uncaught(Trap),
    /// The instruction budget ran out. Unlike the heap and depth
    /// budgets, fuel exhaustion is not catchable by governed code (a
    /// handler would itself need fuel), so it surfaces as its own
    /// variant rather than an exception object.
    FuelExhausted,
    /// Execution ran past the wall-clock deadline set with
    /// [`Vm::set_deadline`]. Like fuel exhaustion this is an engine
    /// abort, never a catchable guest exception.
    DeadlineExceeded,
    /// The VM detected an internal inconsistency — never expected for
    /// verified modules; reported instead of panicking so embedders
    /// stay in control.
    Internal(String),
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::Load(s) => write!(f, "load error: {s}"),
            VmError::Uncaught(t) => write!(f, "uncaught exception: {t}"),
            VmError::FuelExhausted => write!(f, "fuel exhausted"),
            VmError::DeadlineExceeded => write!(f, "deadline exceeded"),
            VmError::Internal(s) => write!(f, "internal error: {s}"),
        }
    }
}

impl std::error::Error for VmError {}

fn vm_err(t: Trap) -> VmError {
    match t {
        Trap::OutOfFuel => VmError::FuelExhausted,
        Trap::DeadlineExceeded => VmError::DeadlineExceeded,
        Trap::Internal(s) => VmError::Internal(s),
        t => VmError::Uncaught(t),
    }
}

/// Resource budgets governing one VM. `None`/`Default` means
/// unlimited. Heap and depth exhaustion become catchable
/// `OutOfMemoryError`/`StackOverflowError` exceptions inside governed
/// code; fuel exhaustion aborts the entry point with
/// [`VmError::FuelExhausted`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Instruction budget, charged per basic block on entry: one unit
    /// per decoded op, so a fused superinstruction costs one unit for
    /// its two instructions. A run completes iff the budget covers its
    /// [`Vm::steps`] total; a smaller budget exhausts at most one block
    /// before the instruction that overran it.
    pub fuel: Option<u64>,
    /// Heap budget in modelled bytes (see `safetsa_rt::heap`'s size
    /// model: 16-byte headers, 8 bytes per field/reference).
    pub max_heap_bytes: Option<u64>,
    /// Maximum guest call depth (each active `call` counts one).
    pub max_call_depth: Option<u32>,
}

impl ResourceLimits {
    /// Unlimited budgets.
    pub fn unlimited() -> Self {
        Self::default()
    }
}

/// Instructions executed between wall-clock deadline checks (the fuel
/// slice). Small enough that a 50ms deadline is enforced within a few
/// hundred microseconds of interpreter work, large enough that the
/// clock read never shows in profiles.
pub const DEADLINE_SLICE: u32 = 1024;

/// Dynamic execution statistics, collected only after
/// [`Vm::enable_stats`] — the interpreter's dispatch loop pays one
/// predictable branch otherwise. These are the *dynamic* counterparts
/// of the producer's static counters: how many checks actually
/// executed, which opcodes dominated, where allocation went.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Executed-instruction histogram keyed by opcode mnemonic. A
    /// `BTreeMap` so exports are deterministically ordered.
    pub opcodes: BTreeMap<&'static str, u64>,
    /// `nullcheck` instructions executed (the paper's dynamic
    /// check-elimination quantity).
    pub null_checks: u64,
    /// `indexcheck` instructions executed.
    pub index_checks: u64,
    /// Guest calls performed (static, virtual, and intrinsic targets).
    pub calls: u64,
    /// Class instances allocated by guest `new`.
    pub objects_allocated: u64,
    /// Arrays allocated by guest `newarray`.
    pub arrays_allocated: u64,
    /// Traps materialized into exception objects (throws included).
    pub exceptions: u64,
    /// Superinstruction executions keyed by fused pair (`"a>b"`). Each
    /// fused execution also counts both constituents in `opcodes`, so
    /// the opcode histogram stays the unfused instruction count.
    pub fused: BTreeMap<&'static str, u64>,
}

/// How many instructions around the sample point feed the opcode-pair
/// histogram (the "opcode window").
pub(crate) const PROFILE_WINDOW: usize = 8;

/// A statistical execution profile collected by sampling at fuel-slice
/// boundaries (see [`Vm::enable_profiler`]). Every `every_slices`
/// slices — i.e. every `every_slices × DEADLINE_SLICE` executed
/// instructions — the profiler records the currently executing function
/// into the hot-function table and the window of instructions ending at
/// the sample point into the opcode-pair histogram. Sampling soundness:
/// the sample sites are a deterministic function of the instruction
/// stream (not of wall-clock timers), so a function's share of samples
/// converges on its share of executed instructions, and profiles from
/// repeated runs of deterministic programs are identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmProfile {
    /// Fuel slices between samples (0 when the profiler is off).
    pub every_slices: u32,
    /// Samples taken.
    pub samples: u64,
    /// Samples per function name (the hot-function table). A `BTreeMap`
    /// so exports are deterministically ordered.
    pub hot: BTreeMap<String, u64>,
    /// Consecutive opcode pairs (`"a>b"`) seen in sample windows — the
    /// superinstruction-selection signal.
    pub pairs: BTreeMap<String, u64>,
}

impl VmProfile {
    /// Whether any samples were taken.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }

    /// The most-sampled function, with its sample count.
    pub fn top_function(&self) -> Option<(&str, u64)> {
        self.hot
            .iter()
            .max_by_key(|(name, n)| (*n, std::cmp::Reverse(name.as_str())))
            .map(|(name, n)| (name.as_str(), *n))
    }

    /// Merges another profile into this one (sample counts add). Used
    /// for the serve daemon's per-tenant accumulation.
    pub fn merge(&mut self, other: &VmProfile) {
        if other.every_slices != 0 {
            self.every_slices = other.every_slices;
        }
        self.samples += other.samples;
        for (name, n) in &other.hot {
            *self.hot.entry(name.clone()).or_insert(0) += n;
        }
        for (pair, n) in &other.pairs {
            *self.pairs.entry(pair.clone()).or_insert(0) += n;
        }
    }

    /// Exports the profile as JSON:
    /// `{every_slices, samples, hot: {fn: n}, pairs: {"a>b": n}}`.
    pub fn to_json(&self) -> Json {
        let mut o = Json::obj();
        o.set("every_slices", Json::U64(u64::from(self.every_slices)));
        o.set("samples", Json::U64(self.samples));
        let mut hot = Json::obj();
        for (name, n) in &self.hot {
            hot.set(name, Json::U64(*n));
        }
        o.set("hot", hot);
        let mut pairs = Json::obj();
        for (pair, n) in &self.pairs {
            pairs.set(pair, Json::U64(*n));
        }
        o.set("pairs", pairs);
        o
    }

    /// Records one sample: the executing function plus the opcode pairs
    /// in `window` — the dynamically executed opcode sequence ending at
    /// the sample point (it crosses block and call boundaries, unlike a
    /// static window, so the pairs reflect real dispatch adjacency).
    pub(crate) fn sample(&mut self, name: &str, window: &[&'static str]) {
        self.samples += 1;
        match self.hot.get_mut(name) {
            Some(n) => *n += 1,
            None => {
                self.hot.insert(name.to_string(), 1);
            }
        }
        // One key buffer per sample: a pair seen before costs no
        // allocation.
        let mut key = String::with_capacity(32);
        for w in window.windows(2) {
            key.clear();
            key.push_str(w[0]);
            key.push('>');
            key.push_str(w[1]);
            match self.pairs.get_mut(key.as_str()) {
                Some(n) => *n += 1,
                None => {
                    self.pairs.insert(key.clone(), 1);
                }
            }
        }
    }
}

/// Built-in exception classes resolved at load time.
#[derive(Debug, Clone, Copy)]
struct ExcClasses {
    arithmetic: ClassId,
    null_pointer: ClassId,
    index: ClassId,
    cast: ClassId,
    negative: ClassId,
    oom: ClassId,
    stack_overflow: ClassId,
}

/// The SafeTSA virtual machine.
pub struct Vm<'m> {
    pub(crate) module: &'m Module,
    /// Static-field values, by class and then by field index.
    pub(crate) statics: Vec<Vec<Value>>,
    /// Per-class flattened instance-field default values, built when
    /// the class is first instantiated.
    field_defaults: Vec<Option<Vec<Value>>>,
    exc: ExcClasses,
    pub(crate) string_class: ClassId,
    /// Interned string literals.
    str_pool: HashMap<String, HeapRef>,
    /// The heap.
    pub heap: Heap,
    /// Captured program output.
    pub output: Output,
    /// Remaining execution budget (charged steps).
    pub fuel: u64,
    /// Charged steps: decoded ops of every entered block, a fused
    /// superinstruction counting once. For a completed run this equals
    /// the unfused instruction count (the sum of [`VmStats::opcodes`])
    /// minus the fused executions, except that `primitive>branch`
    /// fusions save nothing (the branch is a control-structure node, not
    /// an instruction).
    pub steps: u64,
    /// Current guest call depth.
    pub(crate) depth: u32,
    /// Deepest guest call depth observed (for the resource report).
    pub(crate) peak_depth: u32,
    /// Call-depth budget, if any.
    pub(crate) max_depth: Option<u32>,
    /// Wall-clock deadline, checked every [`DEADLINE_SLICE`] executed
    /// instructions (the "fuel slice"): the dispatch loop stays free of
    /// clock reads except at slice boundaries, so an unset deadline
    /// costs one predictable branch per instruction.
    pub(crate) deadline: Option<Instant>,
    /// Whether the dispatch loop counts down fuel slices at all — true
    /// when a deadline is set or the profiler is on. Both piggyback on
    /// the same slice countdown, so their combined per-instruction cost
    /// is still one predictable branch.
    pub(crate) slice_active: bool,
    /// Instructions remaining in the current deadline slice.
    pub(crate) slice_left: u32,
    /// Slice-boundary clock reads performed (resource-report quantity).
    pub(crate) deadline_checks: u64,
    /// Fuel slices between profiler samples (0 = profiler off).
    pub(crate) profile_every: u32,
    /// Slices remaining until the next profiler sample.
    pub(crate) profile_countdown: u32,
    /// The most recently entered blocks, from which a sample reads the
    /// profiler's opcode window; maintained only while profiling.
    pub(crate) profile_ring: crate::threaded::BlockRing,
    /// The sampling profile (empty until [`Vm::enable_profiler`]).
    pub(crate) profile: VmProfile,
    /// Whether the dispatch loop updates [`VmStats`].
    pub(crate) collect_stats: bool,
    /// Dynamic counters (empty until [`Vm::enable_stats`]).
    pub(crate) stats: VmStats,
    /// Fused-op executions since the last stats fold,
    /// indexed like [`crate::threaded::FUSED_PAIRS`].
    pub(crate) fused_hits: [u64; crate::threaded::FUSED_PAIRS.len()],
    /// Lazily decoded direct-threaded code, one slot per function
    /// (`Rc` so the executing loop can hold the code while ops mutate
    /// the VM).
    pub(crate) tcode: Vec<Option<std::rc::Rc<crate::threaded::TFunc>>>,
    /// `xdispatch` inline-cache guard hits.
    pub(crate) icache_hits: u64,
    /// `xdispatch` inline-cache guard misses.
    pub(crate) icache_misses: u64,
    /// The target of every dispatch a miss has resolved, by (runtime
    /// class, dispatch slot). A target is a pure function of the
    /// immutable type table, so a later miss on the same pair looks it
    /// up here instead of walking the superclass chain again.
    pub(crate) dispatch_memo: HashMap<(u32, u32), crate::threaded::CallTarget>,
    /// Free list of frame buffers: a call takes one, fills it from the
    /// callee's frame template and gives it back, cleared, on return.
    frames: Vec<Vec<Value>>,
    /// Reusable argument buffer for intrinsic calls.
    pub(crate) call_args: Vec<Value>,
}

impl<'m> Vm<'m> {
    /// Loads a module: sets each static field to its type's default and
    /// resolves the built-in exception classes. Field slots, instance
    /// sizes and dispatch slots come from the type table
    /// ([`safetsa_core::types::TypeTable::lay_out`]), so no layout and no
    /// dispatch table is built; virtual calls resolve through
    /// [`safetsa_core::types::TypeTable::dispatch`]. Call
    /// [`safetsa_core::verify::verify_module`] first; the VM assumes a
    /// verified module.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] if a required host class is missing.
    pub fn load(module: &'m Module) -> Result<Self, VmError> {
        let types = &module.types;
        let n = types.class_count();
        let find = |name: &str| -> Result<ClassId, VmError> {
            types
                .classes()
                .find(|(_, c)| c.name == name)
                .map(|(id, _)| id)
                .ok_or_else(|| VmError::Load(format!("missing host class {name}")))
        };
        let exc = ExcClasses {
            arithmetic: find("ArithmeticException")?,
            null_pointer: find("NullPointerException")?,
            index: find("IndexOutOfBoundsException")?,
            cast: find("ClassCastException")?,
            negative: find("NegativeArraySizeException")?,
            oom: find("OutOfMemoryError")?,
            stack_overflow: find("StackOverflowError")?,
        };
        let statics = types
            .classes()
            .map(|(_, c)| {
                let default = |f: &FieldInfo| {
                    if f.is_static {
                        default_value(types, f.ty)
                    } else {
                        Value::NULL
                    }
                };
                c.fields.iter().map(default).collect()
            })
            .collect();
        Ok(Vm {
            module,
            statics,
            field_defaults: vec![None; n],
            exc,
            string_class: module.well_known.string,
            str_pool: HashMap::new(),
            heap: Heap::new(),
            output: Output::new(),
            fuel: u64::MAX,
            steps: 0,
            depth: 0,
            peak_depth: 0,
            max_depth: None,
            deadline: None,
            slice_active: false,
            slice_left: 0,
            deadline_checks: 0,
            profile_every: 0,
            profile_countdown: 0,
            profile_ring: Default::default(),
            profile: VmProfile::default(),
            collect_stats: false,
            stats: VmStats::default(),
            fused_hits: [0; crate::threaded::FUSED_PAIRS.len()],
            tcode: vec![None; module.functions.len()],
            icache_hits: 0,
            icache_misses: 0,
            dispatch_memo: HashMap::new(),
            frames: Vec::new(),
            call_args: Vec::new(),
        })
    }

    /// Runs every `<clinit>` in class declaration order (done lazily so
    /// callers can set a fuel budget first).
    ///
    /// # Errors
    ///
    /// Propagates uncaught traps from initializers, and returns
    /// [`VmError::Load`] for an initializer that takes parameters.
    pub fn run_clinits(&mut self) -> Result<(), VmError> {
        for (_, class) in self.module.types.classes() {
            for m in &class.methods {
                if m.name == "<clinit>" {
                    if let Some(body) = m.body {
                        let f = FuncId(body);
                        self.no_params(f, "static initializer")?;
                        self.call(f, vec![]).map_err(vm_err)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// A load error unless `f`, run as `what` with no arguments, takes
    /// no parameters.
    fn no_params(&self, f: FuncId, what: &str) -> Result<(), VmError> {
        let f = self.module.function(f);
        match f.params.len() {
            0 => Ok(()),
            n => Err(VmError::Load(format!(
                "{what} {} takes {n} parameter{}",
                f.name,
                if n == 1 { "" } else { "s" }
            ))),
        }
    }

    /// Sets the execution budget in instructions.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Sets a wall-clock deadline. The dispatch loop checks the clock
    /// once per [`DEADLINE_SLICE`] executed instructions; when the
    /// deadline has passed, execution aborts with
    /// [`VmError::DeadlineExceeded`] — uncatchable by governed code,
    /// exactly like fuel exhaustion. Bounded staleness: the abort
    /// happens at most one slice of instructions past the deadline.
    pub fn set_deadline(&mut self, deadline: Instant) {
        self.deadline = Some(deadline);
        self.slice_active = true;
        self.slice_left = DEADLINE_SLICE;
    }

    /// Turns on the sampling profiler: every `every_slices` fuel slices
    /// (of [`DEADLINE_SLICE`] instructions each) the dispatch loop
    /// records the current function and opcode window into a
    /// [`VmProfile`]. `every_slices` of 0 disables sampling.
    pub fn enable_profiler(&mut self, every_slices: u32) {
        self.profile_every = every_slices;
        self.profile_countdown = every_slices;
        self.profile.every_slices = every_slices;
        if every_slices != 0 {
            self.slice_active = true;
            if self.slice_left == 0 {
                self.slice_left = DEADLINE_SLICE;
            }
        } else {
            self.slice_active = self.deadline.is_some();
        }
    }

    /// The sampling profile collected so far.
    pub fn profile(&self) -> &VmProfile {
        &self.profile
    }

    /// Takes the sampling profile, leaving an empty one behind.
    pub fn take_profile(&mut self) -> VmProfile {
        std::mem::take(&mut self.profile)
    }

    /// Applies a full set of resource budgets (fuel, heap bytes, call
    /// depth). Unset budgets are unlimited.
    pub fn set_limits(&mut self, limits: ResourceLimits) {
        self.fuel = limits.fuel.unwrap_or(u64::MAX);
        self.heap.set_budget(limits.max_heap_bytes);
        self.max_depth = limits.max_call_depth;
    }

    /// The deepest guest call depth observed so far.
    pub fn peak_depth(&self) -> u32 {
        self.peak_depth
    }

    /// `xdispatch` inline-cache guard hits so far.
    pub fn icache_hits(&self) -> u64 {
        self.icache_hits
    }

    /// `xdispatch` inline-cache guard misses (dispatch walks) so far.
    pub fn icache_misses(&self) -> u64 {
        self.icache_misses
    }

    /// Turns on dynamic statistics collection (opcode histogram, check
    /// and allocation counters). Off by default so uninstrumented runs
    /// pay only one branch per instruction. With stats on, the threaded
    /// engine bumps one counter per block entry and one array slot per
    /// fused-op execution; the opcode and fused-pair maps are built from
    /// those counters when the outermost [`Vm::call`] returns, whether
    /// it returns `Ok` or a trap.
    pub fn enable_stats(&mut self) {
        self.collect_stats = true;
    }

    /// The dynamic counters collected so far (all zero unless
    /// [`Vm::enable_stats`] was called before running). The opcode and
    /// fused-pair histograms are complete once the outermost
    /// [`Vm::call`] (or [`Vm::run_entry`]) has returned; read from
    /// inside a running call they lag behind by the threaded engine's
    /// unfolded block-entry counters.
    pub fn stats(&self) -> &VmStats {
        &self.stats
    }

    /// Exports the VM plane into a telemetry registry: resource-report
    /// quantities (`vm.steps`, `vm.fuel_remaining`, `vm.peak_depth`,
    /// `vm.heap.bytes_allocated`, `vm.heap.objects`) plus — when stats
    /// collection was enabled — the opcode execution histogram
    /// (`vm.opcodes.*`) and the dynamic check/allocation/call counters.
    pub fn export_metrics(&self, tm: &Telemetry) {
        if !tm.is_enabled() {
            return;
        }
        tm.set("vm.steps", self.steps);
        tm.set("vm.fuel_remaining", self.fuel);
        tm.set("vm.peak_depth", u64::from(self.peak_depth));
        if self.deadline.is_some() {
            tm.set("vm.deadline.slice_checks", self.deadline_checks);
        }
        if self.profile_every != 0 {
            tm.set("vm.profile.samples", self.profile.samples);
        }
        tm.set("vm.heap.bytes_allocated", self.heap.bytes_allocated());
        tm.set("vm.heap.objects", self.heap.len() as u64);
        tm.set("vm.icache.hits", self.icache_hits);
        tm.set("vm.icache.misses", self.icache_misses);
        if self.collect_stats {
            tm.set("vm.calls", self.stats.calls);
            tm.set("vm.dynamic_checks.null", self.stats.null_checks);
            tm.set("vm.dynamic_checks.index", self.stats.index_checks);
            tm.set("vm.alloc.objects", self.stats.objects_allocated);
            tm.set("vm.alloc.arrays", self.stats.arrays_allocated);
            tm.set("vm.exceptions", self.stats.exceptions);
            for (op, n) in &self.stats.opcodes {
                tm.set(&format!("vm.opcodes.{op}"), *n);
            }
            for (pair, n) in &self.stats.fused {
                tm.set(&format!("vm.dispatch.fused.{pair}"), *n);
            }
        }
    }

    /// Runs static initializers and then the named function
    /// (`"Class.method"`), returning its result.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::Load`] for unknown entry points and for entry
    /// points that take parameters (an entry runs with no arguments),
    /// and [`VmError::Uncaught`] for escaping exceptions.
    pub fn run_entry(&mut self, name: &str) -> Result<Option<Value>, VmError> {
        self.run_clinits()?;
        let f = self
            .module
            .find_function(name)
            .ok_or_else(|| VmError::Load(format!("no function named {name}")))?;
        self.no_params(f, "entry")?;
        self.call(f, vec![]).map_err(vm_err)
    }

    /// Calls a function with already-evaluated arguments, one per
    /// parameter (the receiver first for instance methods). Counts one
    /// unit of guest call depth against the stack budget; the depth is
    /// restored on every exit path, so a trapped VM stays consistent
    /// and can run another entry point.
    ///
    /// # Errors
    ///
    /// Returns the trap if execution traps (caught by enclosing
    /// handlers when called from inside a running function), and
    /// [`Trap::Internal`] if `args` does not match the parameter count.
    pub fn call(&mut self, fid: FuncId, args: Vec<Value>) -> Result<Option<Value>, Trap> {
        let f = self.module.function(fid);
        if args.len() != f.params.len() {
            return Err(Trap::Internal(format!(
                "{} takes {} arguments, not {}",
                f.name,
                f.params.len(),
                args.len()
            )));
        }
        self.invoke(fid, |frame| frame[..args.len()].copy_from_slice(&args))
    }

    /// The one call path: depth budget and accounting, then a pooled
    /// frame built from the callee's template, with `pass` writing the
    /// arguments into its head.
    pub(crate) fn invoke(
        &mut self,
        fid: FuncId,
        pass: impl FnOnce(&mut [Value]),
    ) -> Result<Option<Value>, Trap> {
        if let Some(max) = self.max_depth {
            if self.depth >= max {
                return Err(Trap::StackOverflow);
            }
        }
        if self.collect_stats {
            self.stats.calls += 1;
        }
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
        let tf = self.tfunc(fid);
        let mut frame = self.frames.pop().unwrap_or_default();
        frame.extend_from_slice(&tf.template);
        pass(&mut frame);
        let r = self.execute(&tf, &mut frame);
        frame.clear();
        self.frames.push(frame);
        self.depth -= 1;
        if self.depth == 0 && self.collect_stats {
            self.fold_stats();
        }
        r
    }

    /// A string constant's value: its interned heap string, allocated
    /// under the heap budget on first use.
    pub(crate) fn intern(&mut self, s: &str) -> Result<Value, Trap> {
        if let Some(&r) = self.str_pool.get(s) {
            return Ok(Value::Ref(Some(r)));
        }
        let r = self.heap.try_alloc_str(s.to_string())?;
        self.str_pool.insert(s.to_string(), r);
        Ok(Value::Ref(Some(r)))
    }

    /// Turns a trap into an exception object (allocating the implicit
    /// runtime exception instances); internal/fuel traps propagate.
    /// The exception instance itself is allocated on the host-reserved
    /// path — in particular, materialising an `OutOfMemoryError` must
    /// not itself run out of memory.
    pub(crate) fn trap_to_object(&mut self, trap: Trap) -> Result<HeapRef, Trap> {
        if self.collect_stats {
            self.stats.exceptions += 1;
        }
        let class = match trap {
            Trap::User(r) => return Ok(r),
            Trap::DivByZero => self.exc.arithmetic,
            Trap::NullPointer => self.exc.null_pointer,
            Trap::IndexOutOfBounds => self.exc.index,
            Trap::ClassCast => self.exc.cast,
            Trap::NegativeArraySize => self.exc.negative,
            Trap::OutOfMemory => self.exc.oom,
            Trap::StackOverflow => self.exc.stack_overflow,
            t @ (Trap::Internal(_) | Trap::OutOfFuel | Trap::DeadlineExceeded) => return Err(t),
        };
        Ok(self.alloc_trap_instance(class))
    }

    /// Budget-governed instance allocation (`new` in guest code).
    pub(crate) fn alloc_instance(&mut self, class: ClassId) -> Result<HeapRef, Trap> {
        if self.collect_stats {
            self.stats.objects_allocated += 1;
        }
        let fields = self.fresh_fields(class);
        self.heap.try_alloc(Obj::Instance {
            class: class.index(),
            fields,
            msg: None,
        })
    }

    /// Host-reserved instance allocation for trap exception objects:
    /// bypasses the budget (bytes are still accounted).
    fn alloc_trap_instance(&mut self, class: ClassId) -> HeapRef {
        let fields = self.fresh_fields(class);
        self.heap.alloc(Obj::Instance {
            class: class.index(),
            fields,
            msg: None,
        })
    }

    /// A copy of `class`'s flattened instance-field defaults. They are
    /// built on the class's first instantiation, each field written to
    /// its slot along the superclass chain, so `Vm::load` keeps only an
    /// empty slot per class.
    fn fresh_fields(&mut self, class: ClassId) -> Vec<Value> {
        if let Some(fields) = &self.field_defaults[class.index()] {
            return fields.clone();
        }
        let types = &self.module.types;
        let mut fields = vec![Value::NULL; types.class(class).instance_size as usize];
        let mut cur = Some(class);
        while let Some(c) = cur {
            let info = types.class(c);
            for f in &info.fields {
                if let Some(slot) = f.slot {
                    fields[slot as usize] = default_value(types, f.ty);
                }
            }
            cur = info.superclass;
        }
        self.field_defaults[class.index()] = Some(fields.clone());
        fields
    }

    /// The element storage width in bytes of an array type, used to
    /// project allocation size before the elements exist.
    pub(crate) fn array_elem_width(&self, arr_ty: TypeId) -> Result<u64, Trap> {
        let elem = self
            .module
            .types
            .array_elem(arr_ty)
            .ok_or_else(|| Trap::Internal("newarray on non-array type".into()))?;
        Ok(match self.module.types.kind(elem) {
            TypeKind::Prim(PrimKind::Bool) => 1,
            TypeKind::Prim(PrimKind::Char) => 2,
            TypeKind::Prim(PrimKind::Int) | TypeKind::Prim(PrimKind::Float) => 4,
            _ => 8,
        })
    }

    /// `instanceof`/cast test for a heap reference against a reference
    /// type (class or array).
    pub(crate) fn ref_is_instance_of(&self, r: HeapRef, target: TypeId) -> bool {
        let types = &self.module.types;
        match (self.heap.get(r), types.kind(target)) {
            (Obj::Instance { class, .. }, TypeKind::Class(t)) => {
                types.is_subclass(ClassId(*class as u32), t)
            }
            (Obj::Str(_), TypeKind::Class(t)) => types.is_subclass(self.string_class, t),
            (Obj::Array { .. }, TypeKind::Class(t)) => types.class(t).superclass.is_none(),
            (Obj::Array { type_tag, .. }, TypeKind::Array(_)) => *type_tag == target.0 as u64,
            _ => false,
        }
    }
}

pub(crate) fn sig_letter(types: &safetsa_core::TypeTable, ty: TypeId) -> char {
    match types.kind(ty) {
        TypeKind::Prim(PrimKind::Bool) => 'Z',
        TypeKind::Prim(PrimKind::Char) => 'C',
        TypeKind::Prim(PrimKind::Int) => 'I',
        TypeKind::Prim(PrimKind::Long) => 'J',
        TypeKind::Prim(PrimKind::Float) => 'F',
        TypeKind::Prim(PrimKind::Double) => 'D',
        _ => 'L',
    }
}

fn default_value(types: &safetsa_core::TypeTable, ty: TypeId) -> Value {
    match types.kind(ty) {
        TypeKind::Prim(PrimKind::Bool) => Value::Z(false),
        TypeKind::Prim(PrimKind::Char) => Value::C(0),
        TypeKind::Prim(PrimKind::Int) => Value::I(0),
        TypeKind::Prim(PrimKind::Long) => Value::J(0),
        TypeKind::Prim(PrimKind::Float) => Value::F(0.0),
        TypeKind::Prim(PrimKind::Double) => Value::D(0.0),
        _ => Value::NULL,
    }
}
