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
//! load path, stated where it lands. Since the decoder keeps each
//! instruction's operand planes from phase 2a for phase 2b and field
//! defaults are built on first instantiation, a pass made 11,381
//! (decode 9,537, verify 1,247, load 597). Since no layer builds
//! dispatch tables (the decoder assigns slots in place and `Vm::load`
//! builds none), a pass makes 10,871 (decode 9,411, verify 1,247,
//! load 213), and the budget is that count plus 5%. Since the type
//! table lays out fields too and `Vm::load` builds no layout, a pass
//! made 10,787 (decode 9,453, verify 1,247, load 87). Since a thread
//! keeps its graph buffers between decodes, verifications and encodes,
//! primitive operands sit in the instruction and the decoder sizes each
//! function from the wire, a pass makes 6,247 (decode 6,160, verify 0,
//! load 87), and the budget is that count plus 5%. The pass follows the
//! corpus's compilation on the same thread, so it starts with warm
//! buffers, as a serve worker does after its first request.
//!
//! A second pass over the corpus on the same thread must not allocate
//! in `verify_module` at all, and decoding and verifying a stream far
//! larger than any corpus program must not leave its buffers behind on
//! the thread.
//!
//! Two more tests bound the bytes asked for on deep hierarchies:
//! `Vm::load` must hold O(classes + fields), not a copy of every
//! ancestor's fields per class, and compiling, decoding and loading
//! must each cost bytes linear in the depth, not a copy of every
//! ancestor's dispatch table per class.
//!
//! A counting global allocator records the allocations of the thread
//! that counts, so tests running in parallel do not see each other's.

use safetsa_codec::{decode_module, HostEnv};
use safetsa_core::reuse::CEILING;
use safetsa_core::verify::verify_module;
use safetsa_driver::Pipeline;
use safetsa_vm::Vm;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

/// The system allocator, counting allocation requests, requested bytes
/// and live bytes per thread.
struct Counting;

thread_local! {
    /// Allocations (fresh blocks and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated minus the bytes it has freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(bytes: usize) {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

fn live_add(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// each call meets `System`'s contract exactly when the caller meets
// `GlobalAlloc`'s. The counters are const-initialised thread-local
// `Cell`s without a destructor, so bumping them never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live_add(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        live_add(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        live_add(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live_add(-(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes the calling thread has asked for so far.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes the calling thread holds: what it allocated minus what it
/// freed.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

/// The most allocations one pass over the corpus may make.
const BUDGET: u64 = 6_559;

/// Every corpus program, optimized and encoded as tsabench's `load`
/// workload ships it, on the calling thread.
fn corpus_streams() -> Vec<(&'static str, Vec<u8>)> {
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
    corpus
}

#[test]
fn corpus_load_path_stays_within_its_allocation_budget() {
    let corpus = corpus_streams();
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

#[test]
fn a_second_corpus_pass_verifies_without_allocating() {
    let host = HostEnv::standard();
    let modules: Vec<_> = corpus_streams()
        .iter()
        .map(|(name, tsa)| decode_module(tsa, &host).unwrap_or_else(|e| panic!("{name}: {e}")))
        .collect();
    let mut made = [0; 2];
    for pass in &mut made {
        for m in &modules {
            let t0 = allocs();
            verify_module(m).unwrap_or_else(|e| panic!("{}: {e}", m.name));
            *pass += allocs() - t0;
        }
    }
    println!(
        "verify_module allocations over the corpus: first pass {}, second {}",
        made[0], made[1]
    );
    assert_eq!(
        made[1], 0,
        "a second pass on the thread allocated in verify_module"
    );
}

/// Statements in the method of
/// [`a_huge_stream_leaves_no_buffers_on_the_thread`].
const XOR_STATEMENTS: u32 = 64_000;

/// A method of 64,000 statements `x = x ^ K` with distinct odd `K`
/// optimizes to a stream of 96,002 constants (456 KB), whose one
/// function needs several megabytes of decoder buffers. The thread may
/// keep buffers up to `CEILING` bytes for its next decode, but not
/// these: once the module is dropped, what the thread holds must be
/// back within the ceiling of what it held before.
#[test]
fn a_huge_stream_leaves_no_buffers_on_the_thread() {
    let mut src = String::from("class P { static int main() { int x = 0;\n");
    for k in 1..=XOR_STATEMENTS {
        writeln!(src, "x = x ^ {};", 2 * k + 1).unwrap();
    }
    src.push_str("return x; } }\n");
    let pipeline = Pipeline::new();
    let tsa = pipeline
        .compile_source(&src)
        .and_then(|m| pipeline.encode(&m))
        .expect("the method compiles");
    let host = HostEnv::standard();
    let before = live();
    let asked = bytes();
    let module = decode_module(&tsa, &host).expect("the stream decodes");
    verify_module(&module).expect("the stream verifies");
    let pool = module
        .functions
        .iter()
        .map(|f| f.consts.len())
        .sum::<usize>();
    drop(module);
    let asked = bytes() - asked;
    let kept = live() - before;
    println!(
        "decoding and verifying {pool} constants asked for {asked} bytes and left {kept} on the thread"
    );
    assert_eq!(pool, 96_002, "the pool changed size");
    assert!(
        asked > 4 * CEILING as u64,
        "the stream no longer needs buffers well past the ceiling"
    );
    assert!(
        kept <= CEILING as i64,
        "the thread kept {kept} bytes after the module was dropped; the ceiling is {CEILING}"
    );
}

/// Classes in the chain of [`loading_a_deep_chain_holds_no_copy_per_ancestor`].
const CHAIN: u32 = 5_000;

/// The most bytes `Vm::load` may allocate for that chain.
const CHAIN_BYTES: u64 = 2 << 20;

/// A chain of 5,000 classes, each declaring one `int` field and
/// extending the next one declared. Before `Vm::load` built a class's
/// flattened field defaults on its first instantiation, it built them
/// for every class at load, each a copy of its superclass's plus one
/// field, and asked for 601 MB here (the finished copies hold 200 MB).
/// Now it asks for about 0.36 MB, under a bound of 2 MiB.
#[test]
fn loading_a_deep_chain_holds_no_copy_per_ancestor() {
    let mut src = String::new();
    for k in 0..CHAIN {
        let sup = if k + 1 < CHAIN {
            format!(" extends K{}", k + 1)
        } else {
            String::new()
        };
        writeln!(src, "class K{k}{sup} {{ int f{k}; }}").unwrap();
    }
    let module = Pipeline::new()
        .compile_source(&src)
        .expect("the chain compiles");
    let before = bytes();
    let vm = Vm::load(&module).expect("the chain loads");
    let loaded = bytes() - before;
    drop(vm);
    println!("Vm::load of a {CHAIN}-deep one-field chain allocated {loaded} bytes");
    assert!(
        loaded <= CHAIN_BYTES,
        "Vm::load of a {CHAIN}-deep one-field chain allocated {loaded} bytes; \
         the bound is {CHAIN_BYTES}"
    );
}

/// The most bytes per class of the chain that compiling it may ask for.
const COMPILE_BYTES_PER_CLASS: u64 = 32 << 10;
/// The same for decoding it.
const DECODE_BYTES_PER_CLASS: u64 = 4 << 10;
/// The same for `Vm::load`.
const LOAD_BYTES_PER_CLASS: u64 = 512;

/// A chain of 5,000 classes, each adding one virtual `int m{k}()` and
/// extending the next one declared. The front end, the decoder and
/// `Vm::load` each used to build every class's dispatch table as a copy
/// of its superclass's, so the bytes they asked for grew with the
/// square of the depth: 682 MB to compile, 279 MB to decode and 301 MB
/// to load here. Now `TypeTable` assigns each method's slot in place
/// and dispatch walks up the chain: a release build asks for 83.1 MB,
/// 10.8 MB and 0.32 MB (16.6 KB, 2.2 KB and 64 bytes per class), and
/// each stage must stay within a bound linear in the chain. A debug
/// build's optimizer also checks its invariants, and compiling asks
/// for more.
#[test]
fn a_deep_dispatch_chain_costs_bytes_linear_in_its_depth() {
    let mut src = String::new();
    for k in 0..CHAIN {
        let sup = if k + 1 < CHAIN {
            format!(" extends K{}", k + 1)
        } else {
            String::new()
        };
        writeln!(src, "class K{k}{sup} {{ int m{k}() {{ return {k}; }} }}").unwrap();
    }
    let pipeline = Pipeline::new();
    let host = HostEnv::standard();
    let t0 = bytes();
    let module = pipeline.compile_source(&src).expect("the chain compiles");
    let compiled = bytes() - t0;
    let tsa = pipeline.encode(&module).expect("the chain encodes");
    drop(module);
    let t1 = bytes();
    let module = decode_module(&tsa, &host).expect("the chain decodes");
    let decoded = bytes() - t1;
    let t2 = bytes();
    let vm = Vm::load(&module).expect("the chain loads");
    let loaded = bytes() - t2;
    drop(vm);
    println!(
        "a {CHAIN}-deep dispatch chain ({} bytes of stream) asked for {compiled} bytes to \
         compile, {decoded} to decode and {loaded} to load",
        tsa.len()
    );
    let n = u64::from(CHAIN);
    for (stage, got, per_class) in [
        ("compile", compiled, COMPILE_BYTES_PER_CLASS),
        ("decode", decoded, DECODE_BYTES_PER_CLASS),
        ("load", loaded, LOAD_BYTES_PER_CLASS),
    ] {
        let bound = n * per_class;
        assert!(
            got <= bound,
            "{stage} of a {CHAIN}-deep dispatch chain asked for {got} bytes; the bound is {bound}"
        );
    }
}
