//! Property-based tamper resistance: arbitrary byte streams and
//! arbitrary mutations of valid streams must never panic the decoder
//! and must never yield a module that fails the full verifier (i.e.
//! `decode_and_verify` is total and its successes are always safe).
//! A fixed-seed sweep over the corpus also pins every verdict to a
//! checked-in golden, so a decoder change that accepts or rejects a
//! different set of streams fails here. Accepted means safe to run:
//! every accepted mutant of the sweep is loaded and run, and must
//! neither panic nor reach an internal VM error.

use proptest::prelude::*;
use safetsa_codec::{decode_and_verify, encode_module, HostEnv};
use safetsa_core::Module;
use safetsa_opt::Passes;
use safetsa_rt::Trap;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{ResourceLimits, Vm, VmError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn wire_for(src: &str) -> Vec<u8> {
    let prog = safetsa_frontend::compile(src).unwrap();
    let lowered = safetsa_ssa::lower_program(&prog).unwrap();
    encode_module(&lowered.module).expect("encodes")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        let host = HostEnv::standard();
        // Either error or a verified module — never a panic, never an
        // accepted-but-unsafe module (verification runs inside).
        let _ = decode_and_verify(&bytes, &host);
    }

    #[test]
    fn mutations_of_valid_streams_never_panic(
        flips in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..6)
    ) {
        let base = wire_for(
            "class Acc { int t; void add(int x) { t += x; } }
             class M { static int main() {
                 Acc a = new Acc();
                 int[] v = new int[5];
                 for (int i = 0; i < v.length; i++) { v[i] = i * i; a.add(v[i]); }
                 return a.t;
             } }",
        );
        let host = HostEnv::standard();
        let mut evil = base.clone();
        for (pos, val) in flips {
            let i = pos as usize % evil.len();
            evil[i] ^= val;
        }
        if let Ok(module) = decode_and_verify(&evil, &host) {
            // Accepted mutants are verified type-safe programs; loading
            // AND running them must never panic. Execution happens
            // under tight resource budgets so a mutant that decodes to
            // a hungry-but-valid program (e.g. a huge allocation or a
            // deep recursion) is confined rather than taking down the
            // test process.
            if let Ok(mut vm) = safetsa_vm::Vm::load(&module) {
                vm.set_limits(safetsa_vm::ResourceLimits {
                    fuel: Some(200_000),
                    max_heap_bytes: Some(1 << 20),
                    max_call_depth: Some(64),
                });
                let _ = vm.run_entry("M.main");
                // Whatever happened, the VM must stay reusable.
                let _ = vm.run_entry("M.main");
            }
        }
    }

    #[test]
    fn truncations_never_panic(cut in 0usize..1000) {
        let base = wire_for("class M { static int main() { return 41 + 1; } }");
        let host = HostEnv::standard();
        let cut = cut % (base.len() + 1);
        let _ = decode_and_verify(&base[..cut], &host);
    }
}

/// Mutants per corpus program in the verdict sweep.
const MUTANTS: u64 = 128;

/// A corpus program's stream after every producer pass.
fn optimized_stream(src: &str) -> Vec<u8> {
    let prog = safetsa_frontend::compile(src).unwrap();
    let mut m = safetsa_ssa::lower_program(&prog).unwrap().module;
    safetsa_opt::optimize(&mut m, Passes::ALL, &Telemetry::disabled());
    encode_module(&m).expect("encodes")
}

/// How the run of an accepted mutant ended.
enum RunEnd {
    /// A flipped bit renamed the entry method, or gave it or a static
    /// initializer a parameter (a load error, since both run with no
    /// arguments), so there is nothing to run.
    NoEntry,
    /// The entry method returned.
    Returned,
    /// A guest trap went uncaught.
    Uncaught,
    /// The fuel budget ran out.
    OutOfFuel,
}

/// Loads and runs an accepted mutant under fuel 200k, a 1 MiB heap and
/// call depth 64. A panic or an internal error, on load or on run,
/// fails the test.
fn run_accepted(module: &Module, entry: &str, what: &str) -> RunEnd {
    let Some(f) = module.find_function(entry) else {
        return RunEnd::NoEntry;
    };
    let unrunnable = !module.function(f).params.is_empty()
        || module
            .functions
            .iter()
            .any(|f| f.name.ends_with(".<clinit>") && !f.params.is_empty());
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut vm = Vm::load(module)?;
        vm.set_limits(ResourceLimits {
            fuel: Some(200_000),
            max_heap_bytes: Some(1 << 20),
            max_call_depth: Some(64),
        });
        vm.run_entry(entry)
    }));
    match outcome {
        Err(_) => panic!("{what}: accepted mutant panicked"),
        Ok(Err(VmError::Load(_))) if unrunnable => RunEnd::NoEntry,
        Ok(Ok(_)) => RunEnd::Returned,
        Ok(Err(VmError::FuelExhausted)) => RunEnd::OutOfFuel,
        Ok(Err(VmError::Uncaught(t))) if !matches!(t, Trap::Internal(_)) => RunEnd::Uncaught,
        Ok(Err(e)) => panic!("{what}: accepted mutant ended in {e:?}"),
    }
}

/// SplitMix64: a fixed, dependency-free source of mutation choices.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mutant `i` of `base`: every eighth is a truncation, the rest flip
/// one to three bits.
fn mutant(base: &[u8], rng: &mut u64, i: u64) -> Vec<u8> {
    if i % 8 == 7 {
        let cut = (splitmix(rng) % base.len() as u64) as usize;
        return base[..cut].to_vec();
    }
    let mut evil = base.to_vec();
    for _ in 0..1 + splitmix(rng) % 3 {
        let bit = (splitmix(rng) % (evil.len() as u64 * 8)) as usize;
        evil[bit / 8] ^= 0x80 >> (bit % 8);
    }
    evil
}

/// `decode_and_verify` on 128 fixed-seed mutants of every corpus
/// program's optimized stream. The verdicts ("rejected", or "accepted
/// with N functions") are hashed and compared with
/// `tests/golden/decode_verdicts.txt`, so the set of accepted streams
/// cannot drift silently. Regenerate only for an intentional wire-format
/// change, with `UPDATE_GOLDEN=1 cargo test --test tamper`. Every
/// accepted mutant is also run (see [`run_accepted`]).
#[test]
fn decoder_verdicts_match_the_golden() {
    let host = HostEnv::standard();
    let mut verdicts = String::new();
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for (p, entry) in safetsa_bench::corpus().iter().enumerate() {
        let base = optimized_stream(entry.source);
        let mut rng = 0x5afe_75a0_0000_0000 ^ p as u64;
        for i in 0..MUTANTS {
            let evil = mutant(&base, &mut rng, i);
            let verdict = match decode_and_verify(&evil, &host) {
                Ok(d) => {
                    accepted += 1;
                    run_accepted(&d, entry.entry, &format!("{} mutant {i}", entry.name));
                    format!("accepted with {} functions", d.functions.len())
                }
                Err(_) => {
                    rejected += 1;
                    "rejected".to_string()
                }
            };
            verdicts.push_str(&format!("{} {i}: {verdict}\n", entry.name));
        }
    }
    let actual = format!(
        "fnv1a64:{:016x} accepted={accepted} rejected={rejected}\n",
        safetsa_driver::store::fnv1a(verdicts.as_bytes())
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/decode_verdicts.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        expected,
        actual,
        "decoder verdicts drifted from {}",
        path.display()
    );
}

/// Every single-bit flip of every optimized corpus stream, about 118k
/// mutants: each accepted one must load and run like [`run_accepted`]
/// demands. Takes about a minute in a release build; run it with
/// `cargo test --release --test tamper -- --ignored`.
#[test]
#[ignore = "about a minute in release; run with --ignored"]
fn every_single_bit_flip_of_the_corpus_runs_safely() {
    let host = HostEnv::standard();
    let (mut mutants, mut ends) = (0u64, [0u64; 4]);
    for entry in safetsa_bench::corpus() {
        let base = optimized_stream(entry.source);
        for bit in 0..base.len() * 8 {
            let mut evil = base.clone();
            evil[bit / 8] ^= 0x80 >> (bit % 8);
            mutants += 1;
            if let Ok(m) = decode_and_verify(&evil, &host) {
                let what = format!("{} bit {bit}", entry.name);
                ends[run_accepted(&m, entry.entry, &what) as usize] += 1;
            }
        }
    }
    let [no_entry, returned, uncaught, out_of_fuel] = ends;
    eprintln!(
        "{mutants} mutants, {} accepted: {no_entry} without a runnable entry, \
         {returned} returned, {uncaught} uncaught traps, {out_of_fuel} out of fuel",
        ends.iter().sum::<u64>()
    );
}
