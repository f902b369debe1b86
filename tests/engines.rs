//! The SafeTSA engine against oracles that do not share its code: the
//! bytecode baseline interpreter (`safetsa_baseline::interp::Bvm`, an
//! independent implementation from HIR down — its own compiler, stack
//! machine and dispatch) and the engine's own accounting identities.
//!
//! * Corpus programs, unoptimized and optimized, and targeted trap and
//!   megamorphic-dispatch programs must match the baseline exactly:
//!   byte-identical output, bit-identical result, the same error text
//!   on every uncaught trap. (`crates/bench/tests/corpus.rs` runs the
//!   same corpus sweep in the bench crate.)
//! * Fuel is the block-granular envelope DESIGN.md specifies: a budget
//!   equal to a run's charged steps completes, any smaller budget
//!   exhausts without overrunning itself, and an expired deadline kills.
//! * The step identity: for a completed run with no trap leaving a
//!   block early, the charged steps equal the unfused opcode histogram
//!   total minus the fused executions, plus the `primitive>branch`
//!   fusions (their branch is a control-structure node, not a charged
//!   instruction).
//! * Goldens pin what the VM observably does: every counter of every
//!   corpus run, where in the program each fuel budget runs out, and
//!   every sample the serve daemon's profiler takes. One more pins what
//!   every primitive row computes on a fixed operand grid.
//!   Regenerate them only for an intentional change of behaviour, with
//!   `UPDATE_GOLDEN=1 cargo test --test engines`.

use safetsa_baseline::{compile as bcompile, interp::Bvm, verify as bverify};
use safetsa_bench::{build_pipeline, corpus, run_differential};
use safetsa_core::primops::{self, PrimOpId};
use safetsa_core::types::PrimKind;
use safetsa_core::value::Literal;
use safetsa_core::verify::verify_module;
use safetsa_core::Module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::{Vm, VmError, VmStats};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The baseline returns `boolean`/`char` as ints (JVM convention).
fn norm(v: Option<Value>) -> Option<Value> {
    v.map(|v| match v {
        Value::Z(b) => Value::I(i32::from(b)),
        Value::C(c) => Value::I(c as i32),
        other => other,
    })
}

fn results_agree(a: Option<Value>, b: Option<Value>) -> bool {
    match (norm(a), norm(b)) {
        (Some(x), Some(y)) => x.bits_eq(y),
        (None, None) => true,
        _ => false,
    }
}

/// One run of `m`: outcome, captured output, charged steps.
fn run_vm(m: &Module, entry: &str) -> (Result<Option<Value>, VmError>, String, u64) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_fuel(500_000_000);
    let r = vm.run_entry(entry);
    (r, vm.output.text().to_string(), vm.steps)
}

/// Compiles `src` through SafeTSA, unoptimized and fully optimized, and
/// through the bytecode baseline; asserts both SafeTSA modules match
/// the baseline's outcome (result or error text) and output. Returns
/// the optimized module's outcome.
fn assert_matches_baseline(src: &str, entry: &str, label: &str) -> Result<Option<Value>, VmError> {
    let prog = compile(src).expect("front-end accepts");
    let mut code = bcompile::compile_program(&prog);
    bverify::verify_program(&prog, &mut code).expect("bytecode verifies");
    let mut bvm = Bvm::load(&prog, &code);
    bvm.set_fuel(500_000_000);
    let expected = bvm.run_entry(entry);
    let expected_out = bvm.output.text().to_string();

    let module = lower_program(&prog).expect("ssa lowering").module;
    verify_module(&module).expect("module verifies");
    let mut optimized = module.clone();
    safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
    verify_module(&optimized).expect("optimized module verifies");

    let mut outcome = None;
    for (m, which) in [(&module, "unoptimized"), (&optimized, "optimized")] {
        let (r, out, _) = run_vm(m, entry);
        assert_eq!(
            out, expected_out,
            "{label} ({which}): output diverges from baseline"
        );
        match (&r, &expected) {
            (Ok(a), Ok(b)) => assert!(
                results_agree(*a, *b),
                "{label} ({which}): {a:?} vs baseline {b:?}"
            ),
            (Err(a), Err(b)) => assert_eq!(
                a.to_string(),
                b.to_string(),
                "{label} ({which}): error diverges from baseline"
            ),
            (a, b) => panic!("{label} ({which}): outcome kind diverges: {a:?} vs baseline {b:?}"),
        }
        outcome = Some(r);
    }
    outcome.expect("ran the optimized module")
}

#[test]
fn corpus_agrees_across_engines() {
    // Every corpus program, unoptimized and optimized, against the
    // bytecode baseline — kept in the root suite so `cargo test` at the
    // workspace root covers it.
    for entry in corpus() {
        run_differential(&entry);
    }
}

#[test]
fn trap_paths_agree_across_engines() {
    // Uncaught traps: the same error text and the same partial output
    // as the baseline.
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
        let r = assert_matches_baseline(src, entry, label);
        assert!(
            matches!(r, Err(VmError::Uncaught(_))),
            "{label}: expected an uncaught trap, got {r:?}"
        );
    }
}

#[test]
fn phi_copy_cycles_agree_across_engines() {
    // Loop-carried rotations and swaps make the back edge's phi copies
    // cycles, which the decoder sequences through the frame's scratch
    // slot; swapped values also reach a handler entry with phis from
    // two faulting blocks.
    let rotate = "class R {
        static int main() {
            int a = 1; int b = 2; int c = 3;
            for (int i = 0; i < 10; i++) {
                int t = a; a = b; b = c; c = t;
                Sys.println(a * 100 + b * 10 + c);
            }
            return a * 100 + b * 10 + c;
        }
    }";
    assert_eq!(
        assert_matches_baseline(rotate, "R.main", "rotate three").expect("runs"),
        Some(Value::I(231))
    );
    let swap = "class S {
        static int main() {
            int a = 1; int b = 2; int r = 0;
            for (int i = 0; i < 6; i++) {
                try {
                    int t = a; a = b; b = t;
                    if (i % 3 == 1) r = r + 100 / (i - i);
                    t = a; a = b + 1; b = t;
                    if (i % 3 == 2) r = r + 100 / (i - i);
                } catch (ArithmeticException e) {
                    r = r + a * 10 + b;
                    int t = a; a = b; b = t;
                }
                Sys.println(r * 100 + a * 10 + b);
            }
            return r * 100 + a * 10 + b;
        }
    }";
    assert_matches_baseline(swap, "S.main", "swap into handler").expect("runs");
}

#[test]
fn entries_with_parameters_are_rejected_by_both_engines() {
    // An entry point runs with no arguments, so one that declares
    // parameters (a static one, or an instance method's receiver) is a
    // load error on both engines, not a run on zero-filled slots.
    let src = "class Q {
        int k;
        static int h(int x) { return x + 41; }
        static int s(Q q) { return q.k; }
        int m() { return k + 1; }
        static int main() { return 0; }
    }";
    for entry in ["Q.h", "Q.s", "Q.m"] {
        let err = assert_matches_baseline(src, entry, entry).expect_err("rejected");
        let want = format!("load error: entry {entry} takes 1 parameter");
        assert_eq!(err.to_string(), want);
    }
    let m = module_for(src);
    let mut vm = Vm::load(&m).expect("loads");
    let h = m.find_function("Q.h").expect("Q.h");
    let err = vm.call(h, vec![]).expect_err("arity checked");
    assert!(matches!(err, safetsa_rt::Trap::Internal(_)), "{err:?}");
    assert_eq!(vm.call(h, vec![Value::I(1)]), Ok(Some(Value::I(42))));
}

#[test]
fn fuel_budget_is_exact_at_the_step_total() {
    // Block-granular charging: the whole block is charged at entry, so
    // a budget equal to the run's charged steps completes exactly, and
    // any smaller budget exhausts — at the entry of the block that
    // would overrun it, never charging past the budget.
    for entry in corpus().into_iter().take(6) {
        let pl = build_pipeline(&entry);
        let (r, _, steps) = run_vm(&pl.optimized, entry.entry);
        r.unwrap_or_else(|e| panic!("{}: reference run: {e}", entry.name));

        let mut vm = Vm::load(&pl.optimized).expect("loads");
        vm.set_fuel(steps);
        vm.run_entry(entry.entry)
            .unwrap_or_else(|e| panic!("{}: exact budget trapped: {e}", entry.name));
        assert_eq!(vm.steps, steps, "{}: steps are deterministic", entry.name);

        for budget in [steps / 2, steps.saturating_sub(1)] {
            let mut vm = Vm::load(&pl.optimized).expect("loads");
            vm.set_fuel(budget);
            let err = vm.run_entry(entry.entry).expect_err("must exhaust");
            assert!(
                matches!(err, VmError::FuelExhausted),
                "{} at fuel {budget}: {err}",
                entry.name
            );
            assert!(
                vm.steps <= budget,
                "{} at fuel {budget}: charged {} steps",
                entry.name,
                vm.steps
            );
        }
    }
}

#[test]
fn expired_deadline_kills_run() {
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    let mut vm = Vm::load(&pl.optimized).expect("loads");
    vm.set_fuel(500_000_000);
    vm.set_deadline(Instant::now());
    let err = vm.run_entry(entry.entry).expect_err("expired deadline");
    assert!(matches!(err, VmError::DeadlineExceeded), "{err}");
}

/// Compiles and fully optimizes one inline source.
fn module_for(src: &str) -> Module {
    let prog = compile(src).expect("front-end accepts");
    let mut m = lower_program(&prog).expect("ssa lowering").module;
    safetsa_opt::optimize(&mut m, Passes::ALL, &Telemetry::disabled());
    verify_module(&m).expect("optimized module verifies");
    m
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
    assert!(results_agree(r, Some(Value::I(2000))), "{r:?}");
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
    let src = "class Base { int f() { return 1; } }
         class D1 extends Base { int f() { return 2; } }
         class D2 extends Base { int f() { return 3; } }
         class T {
             static int main() {
                 Base[] arr = new Base[2];
                 arr[0] = new D1();
                 arr[1] = new D2();
                 int s = 0;
                 for (int i = 0; i < 1000; i++) s += arr[i % 2].f();
                 Sys.println(s);
                 return s;
             }
         }";
    let m = module_for(src);
    let mut vm = Vm::load(&m).expect("loads");
    vm.set_fuel(10_000_000);
    let r = vm.run_entry("T.main").expect("runs");
    assert!(results_agree(r, Some(Value::I(2500))), "{r:?}");
    let misses = vm.icache_misses();
    assert!(
        misses >= 900,
        "megamorphic site should thrash, saw {misses} misses"
    );
    // The baseline agrees on the answer and the output, cache or no
    // cache.
    assert_matches_baseline(src, "T.main", "megamorphic").expect("runs");
}

/// One stats-enabled run with a fuel budget; returns the outcome, the
/// collected statistics, and the charged steps.
fn stats_run(m: &Module, entry: &str, fuel: u64) -> (Result<Option<Value>, VmError>, VmStats, u64) {
    let mut vm = Vm::load(m).expect("loads");
    vm.enable_stats();
    vm.set_fuel(fuel);
    let r = vm.run_entry(entry);
    (r, vm.stats().clone(), vm.steps)
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

/// Unfused instructions minus the charges fusion saved: the steps the
/// histogram accounts for.
fn steps_from_histogram(s: &VmStats) -> u64 {
    let unfused: u64 = s.opcodes.values().sum();
    let fused: u64 = s.fused.values().sum();
    let cmp_branch = s.fused.get("primitive>branch").copied().unwrap_or(0);
    unfused - fused + cmp_branch
}

#[test]
fn step_identity_holds_on_the_corpus() {
    // `Exceptions` traps in the middle of blocks on purpose: a block's
    // instructions are counted at entry, but fused ops after the trap
    // never run, so the histogram can only over-account there.
    let mut saw_exceptions = false;
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        let (r, s, steps) = stats_run(&pl.optimized, entry.entry, 500_000_000);
        r.unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        assert!(!s.opcodes.is_empty(), "{}: empty histogram", entry.name);
        assert_fused_within_opcodes(&s, entry.name);
        let accounted = steps_from_histogram(&s);
        if entry.name == "Exceptions" {
            saw_exceptions = true;
            assert!(
                accounted >= steps,
                "Exceptions: histogram accounts {accounted} < {steps} charged steps"
            );
        } else {
            assert_eq!(
                accounted, steps,
                "{}: step identity broken (histogram vs charged steps)",
                entry.name
            );
        }
    }
    assert!(saw_exceptions, "Exceptions is part of the corpus");
}

#[test]
fn stats_fold_on_error_returns() {
    // A run killed by fuel or by its deadline still reports the blocks
    // it entered: the counters are folded on `Err` returns too. Each
    // entered block counts every instruction in it and charges at most
    // that many steps, so the histogram total bounds the charged steps
    // from above (the static initializers' histogram alone would fall
    // short).
    let entry = corpus()
        .into_iter()
        .find(|e| e.name == "BitSieve")
        .expect("BitSieve in corpus");
    let pl = build_pipeline(&entry);
    for kill in ["fuel", "deadline"] {
        let mut vm = Vm::load(&pl.optimized).expect("loads");
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
            "{kill}: {err}"
        );
        let s = vm.stats();
        let total: u64 = s.opcodes.values().sum();
        assert!(total > 0, "{kill}: kill lost the histogram");
        assert!(
            total >= vm.steps,
            "{kill}: histogram total {total} < {} charged steps",
            vm.steps
        );
        assert_fused_within_opcodes(s, kill);
    }
}

/// FNV-1a of `text`, as the goldens print it.
fn digest(text: &str) -> String {
    format!(
        "fnv1a64:{:016x}",
        safetsa_driver::store::fnv1a(text.as_bytes())
    )
}

/// Compares `actual` with `tests/golden/<file>`, or rewrites the file
/// under `UPDATE_GOLDEN=1`.
fn check_golden(file: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    if let Some((n, (want, got))) = expected
        .lines()
        .zip(actual.lines())
        .enumerate()
        .find(|(_, (a, b))| a != b)
    {
        panic!(
            "{} line {}:\n  golden: {want}\n  actual: {got}",
            path.display(),
            n + 1
        );
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "{}: line count drifted",
        path.display()
    );
}

#[test]
fn vm_counters_match_the_golden() {
    // Every corpus program, unoptimized and optimized, with stats on:
    // outcome, output, every exported `vm.*` counter (steps, calls,
    // depth, opcode histogram, fused executions, dynamic checks, inline
    // cache, heap) and the decoded code's static fusion counts.
    let mut doc = String::new();
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        for (m, which) in [(&pl.module, "unoptimized"), (&pl.optimized, "optimized")] {
            let mut vm = Vm::load(m).expect("loads");
            vm.enable_stats();
            vm.set_fuel(500_000_000);
            let r = vm.run_entry(entry.entry);
            let tm = Telemetry::enabled();
            vm.export_metrics(&tm);
            let (fused, charged) = vm.fused_static_counts();
            let out = digest(vm.output.text());
            writeln!(doc, "{} {which}: {r:?} output={out}", entry.name).unwrap();
            for line in tm.export_flat().lines() {
                writeln!(doc, "  {line}").unwrap();
            }
            writeln!(doc, "  static fused={fused} charged={charged}").unwrap();
        }
    }
    check_golden("vm_counters.txt", &doc);
}

#[test]
fn fuel_exhaustion_matches_the_golden() {
    // For budgets of k/16 of each corpus run's steps (k = 1..15) and one
    // step short of it, unoptimized and optimized: the steps charged when
    // fuel ran out and the output printed so far, as
    // `budget:steps:output hash`. `fuel_budget_is_exact_at_the_step_total`
    // bounds the charge; this pins where in the program each trap lands.
    // Then one run with a far deadline (the slice countdown runs, no
    // clock fires) and one with the sampling profiler on.
    let mut doc = String::new();
    let mut bitsieve = None;
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        for (m, which) in [(&pl.module, "unoptimized"), (&pl.optimized, "optimized")] {
            let (r, _, steps) = run_vm(m, entry.entry);
            r.unwrap_or_else(|e| panic!("{} ({which}): reference run: {e}", entry.name));
            write!(doc, "{} {which} steps={steps}:", entry.name).unwrap();
            for budget in (1..16).map(|k| steps * k / 16).chain([steps - 1]) {
                let mut vm = Vm::load(m).expect("loads");
                vm.set_fuel(budget);
                let err = vm.run_entry(entry.entry).expect_err("must exhaust");
                assert!(
                    matches!(err, VmError::FuelExhausted),
                    "{} ({which}) at fuel {budget}: {err}",
                    entry.name
                );
                let out = safetsa_driver::store::fnv1a(vm.output.text().as_bytes());
                write!(doc, " {budget}:{}:{:08x}", vm.steps, out as u32).unwrap();
            }
            doc.push('\n');
        }
        if entry.name == "BitSieve" {
            bitsieve = Some((entry, pl));
        }
    }
    let (entry, pl) = bitsieve.expect("BitSieve in corpus");

    let mut vm = Vm::load(&pl.optimized).expect("loads");
    vm.set_fuel(500_000_000);
    vm.set_deadline(Instant::now() + Duration::from_secs(3600));
    let r = vm.run_entry(entry.entry);
    let tm = Telemetry::enabled();
    vm.export_metrics(&tm);
    let checks = tm
        .counter("vm.deadline.slice_checks")
        .expect("deadline set");
    let out = digest(vm.output.text());
    writeln!(
        doc,
        "{} deadline: {r:?} steps={} slice_checks={checks} output={out}",
        entry.name, vm.steps
    )
    .unwrap();

    let mut vm = Vm::load(&pl.optimized).expect("loads");
    vm.set_fuel(500_000_000);
    vm.enable_profiler(1);
    let r = vm.run_entry(entry.entry);
    let (top, n) = vm.profile().top_function().expect("samples taken");
    let out = digest(vm.output.text());
    writeln!(
        doc,
        "{} profiler: {r:?} steps={} top={top}:{n} output={out}",
        entry.name, vm.steps
    )
    .unwrap();
    writeln!(doc, "  {}", vm.profile().to_json().render()).unwrap();
    check_golden("vm_fuel_exhaustion.txt", &doc);
}

#[test]
fn daemon_profiles_match_the_golden() {
    // Every corpus program, unoptimized and optimized, in the serve
    // daemon's VM configuration (stats on, a deadline that never fires,
    // a sample every 4 slices): outcome, steps, slice checks, output and
    // the full profile. Each sample's window and function pin where the
    // slice countdown crosses a boundary.
    let mut doc = String::new();
    for entry in corpus() {
        let pl = build_pipeline(&entry);
        for (m, which) in [(&pl.module, "unoptimized"), (&pl.optimized, "optimized")] {
            let mut vm = Vm::load(m).expect("loads");
            vm.enable_stats();
            vm.set_fuel(500_000_000);
            vm.set_deadline(Instant::now() + Duration::from_secs(3600));
            vm.enable_profiler(4);
            let r = vm.run_entry(entry.entry);
            let tm = Telemetry::enabled();
            vm.export_metrics(&tm);
            let checks = tm
                .counter("vm.deadline.slice_checks")
                .expect("deadline set");
            let out = digest(vm.output.text());
            writeln!(
                doc,
                "{} {which}: {r:?} steps={} slice_checks={checks} output={out}",
                entry.name, vm.steps
            )
            .unwrap();
            writeln!(doc, "  {}", vm.profile().to_json().render()).unwrap();
        }
    }
    check_golden("vm_profiles.txt", &doc);
}

/// The operands every primitive row is evaluated on, per plane: the
/// identities, the edges of each range, shift counts at and around the
/// width, and the float specials (±0.0, NaN, ±∞, values outside the
/// `int` and `long` ranges).
fn operand_grid(kind: PrimKind) -> Vec<Literal> {
    match kind {
        PrimKind::Bool => vec![Literal::Bool(false), Literal::Bool(true)],
        PrimKind::Char => [0, 1, 97, 65535].map(Literal::Char).to_vec(),
        PrimKind::Int => [0, 1, -1, 31, 32, 33, i32::MIN, i32::MAX]
            .map(Literal::Int)
            .to_vec(),
        PrimKind::Long => [0, 1, -1, 63, 64, i64::MIN, i64::MAX]
            .map(Literal::Long)
            .to_vec(),
        PrimKind::Float => [
            0.0,
            -0.0,
            1.5,
            -2.5,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            3e9,
        ]
        .map(Literal::Float)
        .to_vec(),
        PrimKind::Double => [
            0.0,
            -0.0,
            1.5,
            -2.5,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            3e9,
            1e19,
        ]
        .map(Literal::Double)
        .to_vec(),
    }
}

/// Row `op` of `kind` on `args`, as constant folding evaluates it.
fn eval_row(kind: PrimKind, op: PrimOpId, args: &[Literal]) -> Result<Literal, ()> {
    match args {
        [a] => primops::apply1::<Literal>(kind, op, a),
        [a, b] => primops::apply2::<Literal>(kind, op, a, b),
        _ => panic!("{kind:?} row {op:?}: no row takes {} operands", args.len()),
    }
}

#[test]
fn primop_rows_match_the_golden() {
    // Every row of the six tables over the cross product of its
    // parameters' grids: the tuple count, FNV-1a over each outcome in
    // grid order (the result's plane and bit pattern with one canonical
    // NaN, or a trap marker) and the number of trapping tuples.
    let mut doc = String::new();
    for kind in PrimKind::ALL {
        for (i, row) in primops::ops_of(kind).iter().enumerate() {
            let mut tuples: Vec<Vec<Literal>> = vec![Vec::new()];
            for &p in row.params {
                tuples = tuples
                    .iter()
                    .flat_map(|t| {
                        operand_grid(p).into_iter().map(move |v| {
                            let mut t = t.clone();
                            t.push(v);
                            t
                        })
                    })
                    .collect();
            }
            let mut bytes = Vec::new();
            let mut traps = 0;
            for args in &tuples {
                let (tag, bits) = match eval_row(kind, PrimOpId(i as u16), args) {
                    Err(()) => {
                        traps += 1;
                        (u8::MAX, 0)
                    }
                    Ok(v) => (
                        v.prim_kind().expect("a row yields a primitive") as u8,
                        match v {
                            Literal::Bool(x) => u64::from(x),
                            Literal::Char(x) => u64::from(x),
                            Literal::Int(x) => u64::from(x as u32),
                            Literal::Long(x) => x as u64,
                            Literal::Float(x) if x.is_nan() => u64::from(f32::NAN.to_bits()),
                            Literal::Float(x) => u64::from(x.to_bits()),
                            Literal::Double(x) if x.is_nan() => f64::NAN.to_bits(),
                            Literal::Double(x) => x.to_bits(),
                            Literal::Str(_) | Literal::Null => unreachable!(),
                        },
                    ),
                };
                bytes.push(tag);
                bytes.extend(bits.to_le_bytes());
            }
            writeln!(
                doc,
                "{} {} tuples={} results=fnv1a64:{:016x} traps={traps}",
                kind.name(),
                row.name,
                tuples.len(),
                safetsa_driver::store::fnv1a(&bytes)
            )
            .unwrap();
        }
    }
    check_golden("primop_rows.txt", &doc);
}
