//! Optimizer tests: semantics preservation (differential before/after),
//! check-elimination effectiveness, and pass behavior.

use safetsa_core::verify::verify_module;
use safetsa_frontend::compile;
use safetsa_opt::{optimize_module, OptStats, Passes};
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::Vm;

fn run_module(m: &safetsa_core::Module, entry: &str) -> (Option<Value>, String) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_fuel(100_000_000);
    let r = vm.run_entry(entry).expect("runs");
    (r, vm.output.text().to_string())
}

/// Optimizes and checks: still verifies, and runs identically.
fn opt_differential(src: &str, entry: &str) -> OptStats {
    let prog = compile(src).expect("front-end");
    let lowered = lower_program(&prog).expect("lowering");
    verify_module(&lowered.module).expect("verifies before");
    let before = run_module(&lowered.module, entry);
    let mut module = lowered.module;
    let stats = optimize_module(&mut module);
    verify_module(&module).expect("verifies after optimization");
    let after = run_module(&module, entry);
    match (&before.0, &after.0) {
        (Some(x), Some(y)) => assert!(x.bits_eq(*y), "{x:?} vs {y:?}"),
        (None, None) => {}
        other => panic!("result mismatch {other:?}"),
    }
    assert_eq!(before.1, after.1, "output changed");
    stats
}

#[test]
fn cse_removes_duplicate_arithmetic() {
    let stats = opt_differential(
        "class A {
             static int f(int a, int b) { return (a * b) + (a * b) + (a * b); }
             static int main() { return f(6, 7); }
         }",
        "A.main",
    );
    assert!(stats.removed_by_cse >= 1, "{stats:?}");
}

#[test]
fn null_checks_eliminated_for_repeated_field_access() {
    let stats = opt_differential(
        "class P { int x; int y; int z; }
         class A {
             static int sum(P p) { return p.x + p.y + p.z; }
             static int main() { P p = new P(); p.x = 1; p.y = 2; p.z = 3; return sum(p); }
         }",
        "A.main",
    );
    // sum() checks p three times before optimization; one survives.
    assert!(
        stats.null_checks_after < stats.null_checks_before,
        "{stats:?}"
    );
}

#[test]
fn loads_not_merged_across_stores() {
    // a.v is loaded, stored to, loaded again — the second load must
    // survive (Mem dependence).
    let stats = opt_differential(
        "class Box { int v; }
         class A { static int main() {
             Box b = new Box();
             b.v = 5;
             int x = b.v;
             b.v = 9;
             int y = b.v;     // must NOT be CSE'd with x
             return x * 100 + y;
         } }",
        "A.main",
    );
    let _ = stats;
}

#[test]
fn loads_not_merged_across_calls() {
    opt_differential(
        "class Box { int v; }
         class A {
             static Box shared;
             static void mutate() { shared.v = 42; }
             static int main() {
                 shared = new Box();
                 shared.v = 1;
                 Box b = shared;
                 int x = b.v;
                 mutate();
                 int y = b.v;   // call invalidates memory
                 return x * 100 + y;
             }
         }",
        "A.main",
    );
}

#[test]
fn constprop_folds_constants() {
    let stats = opt_differential(
        "class A { static int main() {
             int x = 3 * 4 + 5;
             int y = x * 2;
             long z = 100L * 100L;
             boolean b = 3 < 4;
             return b ? y + (int) (z / 100L) : 0;
         } }",
        "A.main",
    );
    assert!(stats.removed_by_constprop >= 2, "{stats:?}");
}

#[test]
fn dce_removes_unused_code() {
    let stats = opt_differential(
        "class A { static int main() {
             int unused1 = 3 + 4;
             int used = 10;
             int unused2 = used * used;
             return used;
         } }",
        "A.main",
    );
    assert!(
        stats.removed_by_dce + stats.removed_by_constprop >= 2,
        "{stats:?}"
    );
    assert!(stats.instrs_after < stats.instrs_before, "{stats:?}");
}

#[test]
fn index_checks_deduped_in_unrolled_access() {
    let stats = opt_differential(
        "class A { static int main() {
             int[] a = new int[4];
             int i = 2;
             a[i] = 7;
             int x = a[i] + a[i];   // same array value, same index value
             return x;
         } }",
        "A.main",
    );
    assert!(
        stats.index_checks_after < stats.index_checks_before,
        "{stats:?}"
    );
}

#[test]
fn exceptional_semantics_preserved() {
    // Redundant division: CSE may merge them, but behaviour (catching
    // the exception) must not change.
    opt_differential(
        "class A { static int main() {
             int q = 0; int caught = 0;
             for (int d = -2; d <= 2; d++) {
                 try { q += 100 / d + 100 / d; }
                 catch (ArithmeticException e) { caught++; }
             }
             return q * 10 + caught;
         } }",
        "A.main",
    );
}

#[test]
fn optimization_inside_loops() {
    let stats = opt_differential(
        "class A { static int main() {
             int[] data = new int[50];
             for (int i = 0; i < data.length; i++) data[i] = i;
             int s = 0;
             for (int i = 0; i < data.length; i++) {
                 s += data[i] * 2 + data[i] * 2;   // CSE within iteration
             }
             return s;
         } }",
        "A.main",
    );
    assert!(stats.removed_by_cse >= 1, "{stats:?}");
}

#[test]
fn pass_selection_ablation() {
    let src = "class A { static int main() {
         int a = 2 + 3;
         int b = a * a + a * a;
         int dead = b * 17;
         return b;
     } }";
    let prog = compile(src).unwrap();
    let base = lower_program(&prog).unwrap();
    // No passes: nothing changes.
    let mut m0 = base.module.clone();
    let s0 = safetsa_opt::optimize(&mut m0, Passes::NONE, &Telemetry::disabled());
    assert_eq!(s0.instrs_before, s0.instrs_after);
    // CSE only.
    let mut m1 = base.module.clone();
    let s1 = safetsa_opt::optimize(
        &mut m1,
        Passes {
            cse: true,
            ..Passes::NONE
        },
        &Telemetry::disabled(),
    );
    assert!(s1.removed_by_cse >= 1);
    assert_eq!(s1.removed_by_constprop, 0);
    verify_module(&m1).unwrap();
    // All passes shrink at least as much as CSE alone.
    let mut m2 = base.module.clone();
    let s2 = safetsa_opt::optimize(&mut m2, Passes::ALL, &Telemetry::disabled());
    assert!(s2.instrs_after <= s1.instrs_after);
    verify_module(&m2).unwrap();
}

#[test]
fn field_partitioned_mem_keeps_unrelated_loads_available() {
    // x.a is loaded, x.b is stored, x.a is loaded again. The monolithic
    // Mem model must keep both loads; field-partitioned Mem (§8's
    // proposed improvement) merges them — and execution must agree.
    let src = "class P { int a; int b;
                 static int f(P p) {
                     int x = p.a;
                     p.b = 99;
                     int y = p.a;   // unaffected by the p.b store
                     return x + y;
                 }
                 static int main() { P p = new P(); p.a = 21; return f(p); }
             }";
    let prog = compile(src).unwrap();
    let base = lower_program(&prog).unwrap();
    let loads = |m: &safetsa_core::Module| {
        m.functions
            .iter()
            .map(|f| f.count_instrs(|i| matches!(i, safetsa_core::instr::Instr::GetField { .. })))
            .sum::<usize>()
    };
    // Load forwarding is off on both sides: it is alias-aware and
    // merges across the unrelated store under *either* memory model,
    // which would erase the contrast this test pins.
    let mut mono = base.module.clone();
    let mono_passes = Passes {
        loadfwd: false,
        ..Passes::ALL
    };
    safetsa_opt::optimize(&mut mono, mono_passes, &Telemetry::disabled());
    let mut field = base.module.clone();
    let field_passes = Passes {
        loadfwd: false,
        ..Passes::ALL_FIELD_MEM
    };
    safetsa_opt::optimize(&mut field, field_passes, &Telemetry::disabled());
    verify_module(&field).unwrap();
    assert!(
        loads(&field) < loads(&mono),
        "field-partitioned Mem merges across the unrelated store: {} vs {}",
        loads(&field),
        loads(&mono)
    );
    // With loadfwd back on, even the monolithic model reaches the
    // merged count: alias-aware forwarding subsumes the partitioning.
    let mut fwd = base.module.clone();
    safetsa_opt::optimize(&mut fwd, Passes::ALL, &Telemetry::disabled());
    verify_module(&fwd).unwrap();
    assert!(
        loads(&fwd) <= loads(&field),
        "loadfwd should subsume field-partitioned merging: {} vs {}",
        loads(&fwd),
        loads(&field)
    );
    // Semantics preserved.
    let run = |m: &safetsa_core::Module| run_module(m, "P.main").0;
    assert_eq!(run(&mono), run(&field));
    assert_eq!(run(&mono), Some(Value::I(42)));
}

#[test]
fn field_partitioned_mem_respects_same_field_stores() {
    // Same field stored between loads: even field-partitioned Mem must
    // keep the second load.
    let src = "class P { int a;
             static int main() {
                 P p = new P();
                 p.a = 1;
                 int x = p.a;
                 p.a = 2;
                 int y = p.a;
                 return x * 10 + y;
             }
         }";
    let prog = compile(src).unwrap();
    let base = lower_program(&prog).unwrap();
    let mut m = base.module.clone();
    safetsa_opt::optimize(&mut m, Passes::ALL_FIELD_MEM, &Telemetry::disabled());
    verify_module(&m).unwrap();
    assert_eq!(run_module(&m, "P.main").0, Some(Value::I(12)));
}

#[test]
fn objects_and_dispatch_still_work() {
    opt_differential(
        "class Shape { int area() { return 0; } }
         class Sq extends Shape { int s; Sq(int s) { this.s = s; } int area() { return s * s; } }
         class Main { static int main() {
             Shape[] shapes = new Shape[3];
             for (int i = 0; i < 3; i++) shapes[i] = new Sq(i + 1);
             int total = 0;
             for (int i = 0; i < 3; i++) total += shapes[i].area();
             Sys.println(total);
             return total;
         } }",
        "Main.main",
    );
}

#[test]
fn strings_still_work() {
    opt_differential(
        r#"class A { static int main() {
            String s = "ab" + "cd";
            String t = s + s;
            Sys.println(t);
            return t.length();
        } }"#,
        "A.main",
    );
}

#[test]
fn try_heavy_code_optimizes_safely() {
    opt_differential(
        "class A {
             static int risky(int[] a, int i, int d) {
                 try {
                     return a[i] / d + a[i] / d;  // duplicate xprims in try
                 } catch (ArithmeticException e) {
                     return -1;
                 } catch (IndexOutOfBoundsException e) {
                     return -2;
                 }
             }
             static int main() {
                 int[] a = {10, 20, 30};
                 int s = 0;
                 s += risky(a, 1, 2);
                 s += risky(a, 1, 0);
                 s += risky(a, 9, 2);
                 Sys.println(s);
                 return s;
             }
         }",
        "A.main",
    );
}
