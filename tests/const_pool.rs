//! A constant pool interns in time independent of its size. The
//! decoder, SSA construction and constant folding all add constants one
//! at a time through `Function::add_const`, which used to compare each
//! new constant with every entry already in the pool.
//!
//! The method below makes 64,000 statements `x = x ^ K` with distinct
//! odd `K`; constant folding adds every intermediate value, so the
//! optimized stream carries 96,002 constants in 456 KB. As hex that is
//! 912 KB, inside the 1 MiB payload a serve request may carry by
//! default. A release build took 21.0 s to compile that source and
//! 18.8 s to decode and verify the stream, and the daemon's `verify` op
//! checks its deadline only before decoding. With the pool indexed by
//! plane and literal bits they take about 0.3 s and 0.04 s, and must
//! stay within 3 s and 1 s (ten times that in a debug build).

use safetsa_codec::{decode_and_verify, HostEnv};
use safetsa_driver::Pipeline;
use std::fmt::Write;
use std::time::{Duration, Instant};

/// Statements in the method.
const STATEMENTS: u32 = 64_000;

/// Release-build bound, in milliseconds, on compiling and encoding it.
const COMPILE_MS: u64 = 3_000;

/// The same for decoding and verifying the stream.
const LOAD_MS: u64 = 1_000;

#[test]
fn a_pool_of_96k_constants_compiles_decodes_and_verifies_in_linear_time() {
    let mut src = String::from("class P { static int main() { int x = 0;\n");
    for k in 1..=STATEMENTS {
        writeln!(src, "x = x ^ {};", 2 * k + 1).unwrap();
    }
    src.push_str("return x; } }\n");
    let scale = if cfg!(debug_assertions) { 10 } else { 1 };
    let compile_bound = Duration::from_millis(COMPILE_MS * scale);
    let load_bound = Duration::from_millis(LOAD_MS * scale);

    let t0 = Instant::now();
    let pipeline = Pipeline::new();
    let module = pipeline.compile_source(&src).expect("the method compiles");
    let tsa = pipeline.encode(&module).expect("the method encodes");
    let compiled = t0.elapsed();
    let t1 = Instant::now();
    let decoded = decode_and_verify(&tsa, &HostEnv::standard()).expect("the stream loads");
    let loaded = t1.elapsed();

    let main = decoded.find_function("P.main").expect("P.main");
    let pool = decoded.function(main).consts.len();
    println!(
        "{STATEMENTS} statements: {pool} constants, {} bytes of stream; compile {compiled:?}, \
         decode and verify {loaded:?}",
        tsa.len()
    );
    assert_eq!(pool, 96_002, "the pool changed size");
    assert!(
        compiled < compile_bound,
        "compiling {STATEMENTS} statements took {compiled:?}; the bound is {compile_bound:?}"
    );
    assert!(
        loaded < load_bound,
        "decoding and verifying {pool} constants took {loaded:?}; the bound is {load_bound:?}"
    );
}
