//! A deep class hierarchy costs linear time and a bounded stack, in the
//! consumer and in the producer. Each of the first three tests below
//! declares a chain of 20,000 classes, each extending the next one
//! declared, the last one `Object`, and must finish well inside a time
//! bound on a thread with a 256 KiB stack. The fourth bounds the time
//! virtual calls take on a deep chain.
//!
//! The first hands the consumer a chain of empty classes as a 45 KB
//! module stream, small enough for one serve request, to decode, verify
//! and load. The decoder's superclass-cycle check, the walk of
//! `TypeTable::lay_out`, visits each class once, and `Vm::load` builds
//! no layout and no dispatch tables. Before, the check walked every
//! class's whole chain (1.49 s in a release build) and the loader
//! walked it again and recursed once per ancestor (2.15 s more, and a
//! stack overflow on a small stack).
//!
//! The second compiles that chain from 620 KB of source to a `.tsa`
//! stream, then decodes, verifies and loads that. The front end's cycle
//! check marks each class once, and neither its override check nor the
//! layout walk recurses. Before, the check compared every class against
//! every ancestor already seen on its chain (3.46 s for 4,000 classes,
//! growing with the cube of the depth), and sema's vtable layout
//! recursed once per ancestor, which overflowed a 256 KiB stack already
//! at 2,000 classes.
//!
//! The third does the same with a chain in which each class adds
//! `int m{k}()`, timing compile plus encode apart from decode, verify
//! and load. Sema's override check and the type table's layout walk
//! each keep only the signatures declared on the path from the root, so
//! no method looks for an overridden declaration up its whole chain.
//! When both did, a release build took 8.2 s to compile and encode the
//! chain and 3.3 s to decode, verify and load it; it now takes about
//! 0.5 s and 0.13 s.
//!
//! The fourth runs a program over a 2,000-deep chain whose root
//! declares `int m()`: one call site alternates between a `K0` and a
//! `K1999` receiver, so its inline cache misses on every call. Each miss
//! used to walk from the receiver's class up to the declaring one, and
//! 100,000 calls took 0.6 s in a release build. The VM now keeps the
//! target of every (class, slot) pair a miss resolved, so only the
//! first miss per pair walks, and the calls take about 0.02 s.

use safetsa_codec::bits::BitWriter;
use safetsa_codec::layout::{MAGIC, VERSION};
use safetsa_codec::{decode_and_verify, HostEnv};
use safetsa_driver::Pipeline;
use safetsa_vm::Vm;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Classes in the chain.
const DEPTH: u32 = 20_000;

/// Release-build bound, in milliseconds, on compiling and encoding the
/// dispatch chain; a debug build gets ten times as long.
const COMPILE_MS: u64 = 2_000;

/// The same for decoding, verifying and loading it.
const LOAD_MS: u64 = 1_000;

/// The chain as a module stream: class `h + k` extends class
/// `h + k + 1`, so every child is declared before its parent.
fn chain_stream(host: &HostEnv) -> Vec<u8> {
    let h = host.types.class_count() as u32;
    let n = h + DEPTH;
    let mut w = BitWriter::new();
    w.bits(u64::from(MAGIC), 32);
    w.bits(u64::from(VERSION), 8);
    w.string("deep");
    w.gamma(u64::from(n));
    w.gamma(u64::from(h));
    for k in 0..DEPTH {
        w.string("");
        let sup = if k + 1 < DEPTH {
            h + k + 1
        } else {
            host.well_known.object.0
        };
        w.symbol(sup, n);
        w.gamma(0); // fields
        w.gamma(0); // methods
    }
    w.into_bytes()
}

#[test]
fn deep_superclass_chain_loads_in_linear_time_on_a_small_stack() {
    let host = HostEnv::standard();
    let stream = chain_stream(&host);
    // A debug build runs the same walks about ten times slower.
    let bound = Duration::from_millis(if cfg!(debug_assertions) { 3_000 } else { 300 });
    let took = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let t0 = Instant::now();
            let module = decode_and_verify(&stream, &host).expect("the chain decodes and verifies");
            assert_eq!(
                module.types.class_count(),
                host.types.class_count() + DEPTH as usize
            );
            let vm = Vm::load(&module).expect("the chain loads");
            drop(vm);
            t0.elapsed()
        })
        .expect("spawn the small-stack thread")
        .join()
        .expect("decode, verify and load finish without panicking");
    assert!(
        took < bound,
        "decode, verify and load of a {DEPTH}-deep chain took {took:?}; the bound is {bound:?}"
    );
}

/// A chain of `depth` classes as source: class `K{k}` extends
/// `K{k + 1}`, the last one extends `Object` implicitly, and each
/// declares `members(k)`.
fn chain_source(depth: u32, members: impl Fn(u32) -> String) -> String {
    let mut src = String::new();
    for k in 0..depth {
        let members = members(k);
        if k + 1 < depth {
            writeln!(src, "class K{k} extends K{} {{{members}}}", k + 1).unwrap();
        } else {
            writeln!(src, "class K{k} {{{members}}}").unwrap();
        }
    }
    src
}

#[test]
fn deep_source_chain_compiles_and_loads_in_linear_time_on_a_small_stack() {
    let host = HostEnv::standard();
    let src = chain_source(DEPTH, |_| String::new());
    // A debug build runs the same walks about ten times slower.
    let bound = Duration::from_millis(if cfg!(debug_assertions) {
        10_000
    } else {
        1_000
    });
    let took = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let t0 = Instant::now();
            let pipeline = Pipeline::new();
            let module = pipeline.compile_source(&src).expect("the chain compiles");
            let stream = pipeline.encode(&module).expect("the chain encodes");
            let module = decode_and_verify(&stream, &host).expect("the chain decodes and verifies");
            assert_eq!(
                module.types.class_count(),
                host.types.class_count() + DEPTH as usize
            );
            let vm = Vm::load(&module).expect("the chain loads");
            drop(vm);
            t0.elapsed()
        })
        .expect("spawn the small-stack thread")
        .join()
        .expect("compile, decode, verify and load finish without panicking");
    assert!(
        took < bound,
        "compile, decode, verify and load of a {DEPTH}-deep source chain took {took:?}; \
         the bound is {bound:?}"
    );
}

#[test]
fn deep_dispatch_chain_compiles_and_loads_in_linear_time_on_a_small_stack() {
    let host = HostEnv::standard();
    let src = chain_source(DEPTH, |k| format!(" int m{k}() {{ return {k}; }} "));
    // A debug build runs the same walks about ten times slower.
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    let compile_bound = Duration::from_millis(COMPILE_MS * scale);
    let load_bound = Duration::from_millis(LOAD_MS * scale);
    let (compiled, loaded) = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            let t0 = Instant::now();
            let pipeline = Pipeline::new();
            let module = pipeline.compile_source(&src).expect("the chain compiles");
            let stream = pipeline.encode(&module).expect("the chain encodes");
            let compiled = t0.elapsed();
            drop(module);
            let t1 = Instant::now();
            let module = decode_and_verify(&stream, &host).expect("the chain decodes and verifies");
            let vm = Vm::load(&module).expect("the chain loads");
            let loaded = t1.elapsed();
            drop(vm);
            (compiled, loaded)
        })
        .expect("spawn the small-stack thread")
        .join()
        .expect("compile, decode, verify and load finish without panicking");
    assert!(
        compiled < compile_bound,
        "compile and encode of a {DEPTH}-deep dispatch chain took {compiled:?}; \
         the bound is {compile_bound:?}"
    );
    assert!(
        loaded < load_bound,
        "decode, verify and load of a {DEPTH}-deep dispatch chain took {loaded:?}; \
         the bound is {load_bound:?}"
    );
}

/// Classes in the chain of
/// [`alternating_receivers_dispatch_in_time_independent_of_the_depth`].
const DISPATCH_DEPTH: u32 = 2_000;

/// Calls that program makes through its one call site.
const CALLS: u32 = 100_000;

/// Release-build bound, in milliseconds, on running them; a debug build
/// gets ten times as long.
const DISPATCH_MS: u64 = 150;

#[test]
fn alternating_receivers_dispatch_in_time_independent_of_the_depth() {
    let root = DISPATCH_DEPTH - 1;
    let mut src = chain_source(DISPATCH_DEPTH, |k| {
        if k == root {
            " int m() { return 1; } ".to_string()
        } else {
            String::new()
        }
    });
    writeln!(
        src,
        "class Main {{ static int main() {{
            K{root} a = new K0();
            K{root} b = new K{root}();
            int s = 0;
            for (int i = 0; i < {CALLS}; i = i + 1) {{
                K{root} r = b;
                if (i % 2 == 0) {{ r = a; }}
                s = s + r.m();
            }}
            return s;
        }} }}"
    )
    .unwrap();
    let module = Pipeline::new()
        .compile_source(&src)
        .expect("the program compiles");
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    let bound = Duration::from_millis(DISPATCH_MS * scale);
    // Constructing a `K0` runs 2,000 nested constructors.
    let (result, misses, took) = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let mut vm = Vm::load(&module).expect("the program loads");
            let t0 = Instant::now();
            let result = vm.run_entry("Main.main").expect("the program runs");
            (result, vm.icache_misses(), t0.elapsed())
        })
        .expect("spawn the large-stack thread")
        .join()
        .expect("the program finishes without panicking");
    println!("{CALLS} alternating calls over a {DISPATCH_DEPTH}-deep chain took {took:?}");
    assert_eq!(result, Some(safetsa_rt::Value::I(CALLS as i32)));
    assert_eq!(
        misses,
        u64::from(CALLS),
        "every call misses the inline cache"
    );
    assert!(
        took < bound,
        "{CALLS} calls alternating between two receivers of a {DISPATCH_DEPTH}-deep chain \
         took {took:?}; the bound is {bound:?}"
    );
}
