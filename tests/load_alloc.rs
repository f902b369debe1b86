//! The consumer's load path stays allocation-lean. Over the 21 corpus
//! programs, optimized exactly as tsabench's `load` workload ships them,
//! this counts the heap allocations of `decode_module`, `verify_module`
//! and `Vm::load`, prints the count per stage, and fails above a
//! checked-in budget.
//!
//! Before the control-flow graph and dominator tree moved into flat,
//! reused buffers and operand lists stopped allocating, one corpus pass
//! made 31,269 allocations: decode 21,445, verify 8,586 and load 1,238.
//! After that change it made 11,879 (decode 9,397, verify 1,244, load
//! 1,238). `Vm::load` then stopped cloning each superclass's dispatch
//! table twice per class and walking every class's chain for its field
//! defaults: 11,308 (decode 9,439, verify 1,244, load 625). The budget
//! is that count plus 5%; it moves only with a deliberate change to the
//! load path, stated where it lands.
//!
//! A counting global allocator records the allocations of the thread
//! that counts, so this file holds one test: tests running in parallel
//! would share the allocator.

use safetsa_codec::{decode_module, HostEnv};
use safetsa_core::verify::verify_module;
use safetsa_driver::Pipeline;
use safetsa_vm::Vm;
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

/// The most allocations one pass over the corpus may make.
const BUDGET: u64 = 11_874;

#[test]
fn corpus_load_path_stays_within_its_allocation_budget() {
    let pipeline = Pipeline::new();
    let corpus: Vec<(&str, Vec<u8>)> = safetsa_bench::corpus()
        .iter()
        .map(|p| {
            let tsa = pipeline
                .compile_source(p.source)
                .and_then(|m| pipeline.encode(&m))
                .unwrap_or_else(|e| panic!("{}: {e}", p.name));
            (p.name, tsa)
        })
        .collect();
    assert_eq!(corpus.len(), 21, "the corpus changed size");
    let host = HostEnv::standard();

    let (mut decode, mut verify, mut load) = (0, 0, 0);
    for (name, tsa) in &corpus {
        let t0 = allocs();
        let module = decode_module(tsa, &host).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t1 = allocs();
        verify_module(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t2 = allocs();
        let vm = Vm::load(&module).unwrap_or_else(|e| panic!("{name}: {e}"));
        let t3 = allocs();
        drop(vm);
        decode += t1 - t0;
        verify += t2 - t1;
        load += t3 - t2;
    }
    let total = decode + verify + load;
    println!("load-path allocations over the corpus: decode {decode}, verify {verify}, load {load}, total {total}");
    assert!(
        total <= BUDGET,
        "the load path made {total} allocations over the corpus \
         (decode {decode}, verify {verify}, load {load}); the budget is {BUDGET}"
    );
}
