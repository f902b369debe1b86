//! Dual-engine differential suite: every corpus program (and a set of
//! targeted trap/exhaustion/deadline programs) runs under both the
//! switch interpreter and the direct-threaded engine, and the two must
//! agree — byte-identical output, bit-identical result, the same
//! structured error on every failure path. This is the oracle that
//! keeps the threaded engine honest: the 1400-line match interpreter
//! is the executable specification, the pre-decoded engine is the
//! implementation under test.
//!
//! Step accounting is compared too: superinstruction fusion means the
//! threaded engine executes *at most* as many charged steps as the
//! switch engine, never more, and fuel exhaustion must fire under both
//! engines at any budget below the threaded engine's own total (block-
//! granularity charging can only make the threaded engine trap
//! earlier, within one basic block of the switch engine's point).
//!
//! The dynamic opcode histogram is compared as well. The threaded engine
//! counts a whole block at entry (and folds the counts when the outermost
//! call returns), so it matches the switch engine's per-instruction
//! counts exactly unless a trap leaves a block early; then it may only
//! count more, never less.

use safetsa_bench::{build_pipeline, corpus};
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{Engine, Vm, VmError, VmStats};
use std::time::Instant;

fn results_agree(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(x), Some(y)) => x.bits_eq(*y),
        (None, None) => true,
        _ => false,
    }
}

/// Compiles and fully optimizes one inline source.
fn module_for(src: &str) -> Module {
    let prog = compile(src).expect("front-end accepts");
    let lowered = lower_program(&prog).expect("ssa lowering");
    let mut m = lowered.module;
    safetsa_opt::optimize(&mut m, Passes::ALL, &Telemetry::disabled());
    verify_module(&m).expect("optimized module verifies");
    m
}

/// One run under `engine`: outcome, captured output, charged steps.
fn run_engine(
    m: &Module,
    entry: &str,
    engine: Engine,
) -> (Result<Option<Value>, VmError>, String, u64) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_engine(engine);
    vm.set_fuel(500_000_000);
    let r = vm.run_entry(entry);
    (r, vm.output.text().to_string(), vm.steps)
}

/// Asserts both engines agree on `m`'s entry and returns the
/// per-engine charged step counts `(threaded, switch)`.
fn assert_engines_agree(m: &Module, entry: &str, label: &str) -> (u64, u64) {
    let (tr, to, ts) = run_engine(m, entry, Engine::Threaded);
    let (sr, so, ss) = run_engine(m, entry, Engine::Switch);
    assert_eq!(to, so, "{label}: engine outputs diverge");
    match (&tr, &sr) {
        (Ok(a), Ok(b)) => assert!(
            results_agree(a, b),
            "{label}: threaded {a:?} vs switch {b:?}"
        ),
        (Err(a), Err(b)) => assert_eq!(
            a.to_string(),
            b.to_string(),
            "{label}: engine errors diverge"
        ),
        (a, b) => panic!("{label}: outcome kind diverges: {a:?} vs {b:?}"),
    }
    (ts, ss)
}

#[test]
fn corpus_agrees_across_engines() {
    // Both the unoptimized and the optimized module of every corpus
    // program — the threaded decoder must handle the raw producer
    // output as well as the post-pass form it is tuned for.
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        assert_engines_agree(&pl.module, entry.entry, entry.name);
        let (ts, ss) = assert_engines_agree(&pl.optimized, entry.entry, entry.name);
        assert!(
            ts <= ss,
            "{}: threaded charged {ts} steps, more than switch's {ss}",
            entry.name
        );
    }
}

#[test]
fn trap_paths_agree_across_engines() {
    // Uncaught traps: both engines must surface the same structured
    // error with the same partial output.
    let cases: &[(&str, &str, &str)] = &[
        (
            "div_by_zero",
            "class T { static int main() { int d = 0; Sys.println(1); return 7 / d; } }",
            "T.main",
        ),
        (
            "index_oob",
            "class T { static int main() { int[] a = new int[3]; Sys.println(2); return a[5]; } }",
            "T.main",
        ),
        (
            "null_deref",
            "class P { int x; }
             class T {
                 static P get() { return null; }
                 static int main() { Sys.println(3); return get().x; }
             }",
            "T.main",
        ),
    ];
    for (label, src, entry) in cases {
        let m = module_for(src);
        let (tr, _, _) = run_engine(&m, entry, Engine::Threaded);
        assert!(tr.is_err(), "{label}: expected an uncaught trap");
        assert_engines_agree(&m, entry, label);
    }
}

#[test]
fn fuel_exhaustion_agrees_across_engines() {
    // Block-granularity charging may only move the exhaustion point
    // *earlier* (the whole block is charged at entry), never later: at
    // any budget below the threaded engine's own total both engines
    // must exhaust, and at the threaded total the threaded engine must
    // complete exactly (the block costs sum to the charged steps).
    for entry in corpus().into_iter().take(6) {
        let pl = build_pipeline(&entry);
        let (r, _, threaded_steps) = run_engine(&pl.optimized, entry.entry, Engine::Threaded);
        r.unwrap_or_else(|e| panic!("{}: reference run: {e}", entry.name));

        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(threaded_steps);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: exact threaded budget trapped: {e}", entry.name));

        for budget in [threaded_steps / 2, threaded_steps.saturating_sub(1)] {
            for engine in [Engine::Threaded, Engine::Switch] {
                let mut vm = Vm::load(&pl.optimized).expect("loads");
                vm.set_engine(engine);
                vm.set_fuel(budget);
                let err = vm.run_entry(entry.entry).expect_err("must exhaust");
                assert!(
                    matches!(err, VmError::FuelExhausted),
                    "{}: {engine} at fuel {budget}: {err}",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn expired_deadline_kills_both_engines() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    for engine in [Engine::Threaded, Engine::Switch] {
        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_engine(engine);
        vm.set_fuel(500_000_000);
        vm.set_deadline(Instant::now());
        let err = vm.run_entry(entry.entry).expect_err("expired deadline");
        assert!(
            matches!(err, VmError::DeadlineExceeded),
            "{engine}: {err}"
        );
    }
}

#[test]
fn inline_cache_stays_monomorphic_on_single_receiver() {
    // One receiver class through a base-typed reference: the first
    // dispatch at the site misses (cold cache), every later one hits.
    let m = module_for(
        "class Base { int f() { return 1; } }
         class D1 extends Base { int f() { return 2; } }
         class T {
             static int main() {
                 Base b = new D1();
                 int s = 0;
                 for (int i = 0; i < 1000; i++) s += b.f();
                 return s;
             }
         }",
    );
    let mut vm = Vm::load(&m).expect("loads");
    vm.set_fuel(10_000_000);
    let r = vm.run_entry("T.main").expect("runs");
    assert!(results_agree(&r, &Some(Value::I(2000))), "{r:?}");
    let (hits, misses) = (vm.icache_hits(), vm.icache_misses());
    assert!(
        hits + misses >= 1000,
        "dispatch not exercised: {hits} hits + {misses} misses"
    );
    assert!(misses <= 2, "monomorphic site missed {misses} times");
}

#[test]
fn inline_cache_thrashes_on_alternating_receivers() {
    // Two receiver classes alternating at one site: the monomorphic
    // always-replace cache must keep falling back to the vtable walk
    // (and keep producing correct answers while doing so).
    let m = module_for(
        "class Base { int f() { return 1; } }
         class D1 extends Base { int f() { return 2; } }
         class D2 extends Base { int f() { return 3; } }
         class T {
             static int main() {
                 Base[] arr = new Base[2];
                 arr[0] = new D1();
                 arr[1] = new D2();
                 int s = 0;
                 for (int i = 0; i < 1000; i++) s += arr[i % 2].f();
                 return s;
             }
         }",
    );
    let mut vm = Vm::load(&m).expect("loads");
    vm.set_fuel(10_000_000);
    let r = vm.run_entry("T.main").expect("runs");
    assert!(results_agree(&r, &Some(Value::I(2500))), "{r:?}");
    let misses = vm.icache_misses();
    assert!(misses >= 900, "megamorphic site should thrash, saw {misses} misses");
    // The switch engine agrees on the answer, cache or no cache.
    assert_engines_agree(&m, "T.main", "megamorphic");
}

/// One stats-enabled run under `engine` with a fuel budget; returns the
/// outcome and the collected statistics.
fn stats_run(
    m: &Module,
    entry: &str,
    engine: Engine,
    fuel: u64,
) -> (Result<Option<Value>, VmError>, VmStats) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_engine(engine);
    vm.enable_stats();
    vm.set_fuel(fuel);
    let r = vm.run_entry(entry);
    (r, vm.stats().clone())
}

/// Every fused pair `a>b` executed at most as often as each of its two
/// constituents (a fused execution counts both in the histogram). The
/// `branch` of `primitive>branch` is a control-structure node, not an
/// instruction, so it has no histogram entry and only its compare is
/// checked.
fn assert_fused_within_opcodes(s: &VmStats, label: &str) {
    for (pair, n) in &s.fused {
        let (a, b) = pair.split_once('>').expect("pair key is `a>b`");
        for m in [a, b].into_iter().filter(|m| *m != "branch") {
            let count = s.opcodes.get(m).copied().unwrap_or(0);
            assert!(
                *n <= count,
                "{label}: fused {pair} ran {n} times, but `{m}` only {count}"
            );
        }
    }
}

#[test]
fn opcode_histograms_agree_across_engines() {
    // `Exceptions` traps in the middle of blocks on purpose; everywhere
    // else the block-granular count must equal the per-instruction one.
    let mut saw_exceptions = false;
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let (tr, ts) = stats_run(&pl.optimized, entry.entry, Engine::Threaded, 500_000_000);
        let (sr, ss) = stats_run(&pl.optimized, entry.entry, Engine::Switch, 500_000_000);
        tr.unwrap_or_else(|e| panic!("{}: threaded: {e}", entry.name));
        sr.unwrap_or_else(|e| panic!("{}: switch: {e}", entry.name));
        assert!(!ts.opcodes.is_empty(), "{}: empty histogram", entry.name);
        assert!(
            ss.fused.is_empty(),
            "{}: switch engine fused ops",
            entry.name
        );
        assert_fused_within_opcodes(&ts, entry.name);
        if entry.name == "Exceptions" {
            saw_exceptions = true;
            for (m, n) in &ss.opcodes {
                let t = ts.opcodes.get(m).copied().unwrap_or(0);
                assert!(t >= *n, "Exceptions: threaded `{m}` {t} < switch {n}");
            }
        } else {
            assert_eq!(
                ts.opcodes, ss.opcodes,
                "{}: opcode histograms diverge",
                entry.name
            );
        }
    }
    assert!(saw_exceptions, "Exceptions is part of the corpus");
}

#[test]
fn stats_fold_on_error_returns() {
    // A run killed by fuel or by its deadline still reports the blocks
    // it entered: the threaded engine folds its counters on `Err`
    // returns too. Each entered block counts every instruction in it and
    // charges at most that many steps, so the histogram total bounds the
    // charged steps from above (the static initializers' histogram
    // alone would fall short).
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    for engine in [Engine::Threaded, Engine::Switch] {
        for kill in ["fuel", "deadline"] {
            let mut vm = Vm::load(&pl.optimized).expect("loads");
            vm.set_engine(engine);
            vm.enable_stats();
            if kill == "fuel" {
                vm.set_fuel(20_000);
            } else {
                vm.set_fuel(500_000_000);
                vm.set_deadline(Instant::now());
            }
            let err = vm.run_entry(entry.entry).expect_err("run is killed");
            assert!(
                matches!(
                    (kill, &err),
                    ("fuel", VmError::FuelExhausted) | ("deadline", VmError::DeadlineExceeded)
                ),
                "{engine} {kill}: {err}"
            );
            let s = vm.stats();
            let total: u64 = s.opcodes.values().sum();
            assert!(total > 0, "{engine} {kill}: kill lost the histogram");
            if engine == Engine::Threaded {
                assert!(
                    total >= vm.steps,
                    "{kill}: histogram total {total} < {} charged steps",
                    vm.steps
                );
            }
            assert_fused_within_opcodes(s, kill);
        }
    }
}
