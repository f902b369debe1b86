//! The producer path stays allocation-lean. Over the 21 corpus
//! programs, compiled exactly as tsabench's `compile` workload compiles
//! them (`Pipeline::compile_source` + `encode` with every pass on),
//! this counts the heap allocations of the front end, SSA
//! construction, the optimizer, verification and encoding, prints the
//! count per stage, and fails above a checked-in budget.
//!
//! Before method bodies were borrowed instead of deep-cloned, dataflow
//! wrote into reused buffers and the optimizer kept one fact context
//! per module, one corpus pass made 124,101 allocations: front end
//! 43,067, lower 22,407, optimize 51,816, verify 1,254 and encode
//! 5,557. After that change it makes 43,066 (18,993, 12,000, 9,068,
//! 1,254 and 1,751). The budget is that count plus 5%; it moves only
//! with a deliberate change to the producer path, stated where it
//! lands. Since the encoder reads the module's own type table instead
//! of a copy per module, and every instruction's planes come from one
//! typing rule, a pass made 43,015 (19,015, 12,006, 9,070, 1,257 and
//! 1,667), and 43,093 once the front end and SSA construction walked
//! the class tree once each (19,009, 12,090, 9,070, 1,257, 1,667).
//! Since a thread keeps its graph buffers between calls of the
//! optimizer, the verifier and the encoder, and primitive operands sit
//! in the instruction, a pass makes 38,233 (19,009, 11,174, 7,886, 0
//! and 164), and the budget is that count plus 5%.
//!
//! The pass that counts is the second one in the process: the first
//! builds what the producer builds once per process (the builtin
//! classes), as tsabench's set-up does before it times anything.
//!
//! A counting global allocator records the allocations of the thread
//! that counts, so this file holds one test: tests running in parallel
//! would share the allocator.

use safetsa_driver::Pipeline;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting allocation requests per thread.
struct Counting;

thread_local! {
    /// Allocations (fresh blocks and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s. The counter is a const-initialised thread-local
// `Cell` without a destructor, so bumping it never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// The most allocations one pass over the corpus may make. Debug
/// builds also check the optimizer's invariants (a copy of the function
/// before every pass run, a verification of the optimized module),
/// which allocate: 82,306 measured plus 5%.
const BUDGET: u64 = if cfg!(debug_assertions) {
    86_421
} else {
    40_144
};

/// Allocations per producer stage over one corpus pass.
#[derive(Default)]
struct Split {
    frontend: u64,
    lower: u64,
    optimize: u64,
    verify: u64,
    encode: u64,
}

impl Split {
    fn total(&self) -> u64 {
        self.frontend + self.lower + self.optimize + self.verify + self.encode
    }
}

/// Compiles every corpus program through the stages
/// `Pipeline::compile_source` + `encode` are made of, counting each.
fn count_pass() -> Split {
    let mut split = Split::default();
    for p in safetsa_bench::corpus() {
        let pipeline = Pipeline::new();
        let t0 = allocs();
        let prog = pipeline
            .frontend(&[p.source])
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let t1 = allocs();
        let mut module = pipeline
            .lower(&prog)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name))
            .module;
        let t2 = allocs();
        pipeline.optimize(&mut module);
        let t3 = allocs();
        pipeline
            .verify(&module)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let t4 = allocs();
        let tsa = pipeline
            .encode(&module)
            .unwrap_or_else(|e| panic!("{}: {e}", p.name));
        let t5 = allocs();
        drop((prog, module, tsa));
        split.frontend += t1 - t0;
        split.lower += t2 - t1;
        split.optimize += t3 - t2;
        split.verify += t4 - t3;
        split.encode += t5 - t4;
    }
    split
}

#[test]
fn corpus_producer_path_stays_within_its_allocation_budget() {
    assert_eq!(safetsa_bench::corpus().len(), 21, "the corpus changed size");
    count_pass();
    let s = count_pass();
    let total = s.total();
    println!(
        "producer-path allocations over the corpus: frontend {}, lower {}, optimize {}, \
         verify {}, encode {}, total {total}",
        s.frontend, s.lower, s.optimize, s.verify, s.encode
    );
    assert!(
        total <= BUDGET,
        "the producer path made {total} allocations over the corpus (frontend {}, lower {}, \
         optimize {}, verify {}, encode {}); the budget is {BUDGET}",
        s.frontend,
        s.lower,
        s.optimize,
        s.verify,
        s.encode
    );
}
