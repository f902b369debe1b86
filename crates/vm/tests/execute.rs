//! End-to-end execution tests: Java source → SafeTSA → verify → run.

use safetsa_core::verify::verify_module;
use safetsa_frontend::compile;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_vm::Vm;

fn run(src: &str, entry: &str) -> (Option<Value>, String) {
    let prog = compile(src).expect("compiles");
    let lowered = lower_program(&prog).expect("lowers");
    verify_module(&lowered.module).expect("verifies");
    let mut vm = Vm::load(&lowered.module).expect("loads");
    vm.set_fuel(50_000_000);
    let r = vm.run_entry(entry).expect("runs");
    (r, vm.output.text().to_string())
}

fn run_int(src: &str, entry: &str) -> i32 {
    match run(src, entry).0 {
        Some(Value::I(v)) => v,
        other => panic!("expected int result, got {other:?}"),
    }
}

#[test]
fn arithmetic() {
    assert_eq!(
        run_int(
            "class A { static int main() { return 2 + 3 * 4 - 5 / 2; } }",
            "A.main"
        ),
        12
    );
}

#[test]
fn branches_and_loops() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int s = 0;
                 for (int i = 1; i <= 10; i++) if (i % 2 == 0) s += i;
                 return s;
             } }",
            "A.main"
        ),
        30
    );
}

#[test]
fn while_and_do_while() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int i = 0; int s = 0;
                 while (i < 5) { s += i; i++; }
                 do { s *= 2; } while (s < 50);
                 return s;
             } }",
            "A.main"
        ),
        80
    );
}

#[test]
fn nested_break_continue() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int s = 0;
                 for (int i = 0; i < 5; i++) {
                     for (int j = 0; j < 5; j++) {
                         if (j == 3) break;
                         if (j == 1) continue;
                         s += 10 * i + j;
                     }
                 }
                 return s;
             } }",
            "A.main"
        ),
        // j in {0, 2}: sum over i of (10i+0 + 10i+2) = sum(20i+2) = 20*10+10 = 210
        210
    );
}

#[test]
fn fibonacci_recursion() {
    assert_eq!(
        run_int(
            "class A { static int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
                      static int main() { return fib(15); } }",
            "A.main"
        ),
        610
    );
}

#[test]
fn objects_fields_dispatch() {
    assert_eq!(
        run_int(
            "class Shape { int area() { return 0; } }
             class Sq extends Shape { int s; Sq(int s) { this.s = s; } int area() { return s * s; } }
             class Rect extends Shape { int w; int h; Rect(int w, int h) { this.w = w; this.h = h; }
                 int area() { return w * h; } }
             class Main { static int main() {
                 Shape a = new Sq(3);
                 Shape b = new Rect(4, 5);
                 return a.area() + b.area();
             } }",
            "Main.main"
        ),
        29
    );
}

#[test]
fn arrays() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int[] a = new int[10];
                 for (int i = 0; i < a.length; i++) a[i] = i * i;
                 int s = 0;
                 for (int i = 0; i < a.length; i++) s += a[i];
                 return s;
             } }",
            "A.main"
        ),
        285
    );
}

#[test]
fn array_literals_and_2d() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int[][] m = new int[2][];
                 m[0] = new int[] {1, 2, 3};
                 m[1] = new int[] {4, 5};
                 return m[0][2] + m[1][1];
             } }",
            "A.main"
        ),
        8
    );
}

#[test]
fn statics_and_clinit() {
    assert_eq!(
        run_int(
            "class C { static int X = 6; static int[] T = {10, 20, 30};
                      static int main() { return X + T[2]; } }",
            "C.main"
        ),
        36
    );
}

#[test]
fn exception_div_by_zero_caught() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int r;
                 try { r = 10 / 0; } catch (ArithmeticException e) { r = -1; }
                 return r;
             } }",
            "A.main"
        ),
        -1
    );
}

#[test]
fn exception_bounds_caught() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int[] a = new int[3];
                 try { return a[5]; }
                 catch (IndexOutOfBoundsException e) { return -2; }
             } }",
            "A.main"
        ),
        -2
    );
}

#[test]
fn exception_null_caught() {
    assert_eq!(
        run_int(
            "class Box { int v; }
             class A { static int main() {
                 Box b = null;
                 try { return b.v; } catch (NullPointerException e) { return -3; }
             } }",
            "A.main"
        ),
        -3
    );
}

#[test]
fn user_exceptions_and_getmessage() {
    let (r, out) = run(
        r#"class MyErr extends Exception { int code; MyErr(int c) { super("custom"); code = c; } }
           class A { static int main() {
               try { throw new MyErr(7); }
               catch (MyErr e) { Sys.println(e.getMessage()); return e.code; }
           } }"#,
        "A.main",
    );
    assert_eq!(r, Some(Value::I(7)));
    assert_eq!(out, "custom\n");
}

#[test]
fn catch_ordering_and_rethrow() {
    assert_eq!(
        run_int(
            "class A { static int f(int x) {
                 try {
                     try { return 10 / x; }
                     catch (NullPointerException e) { return -99; }
                 } catch (ArithmeticException e) { return -1; }
             }
             static int main() { return f(0); } }",
            "A.main"
        ),
        -1
    );
}

#[test]
fn finally_runs_on_both_paths() {
    let (_, out) = run(
        r#"class A {
             static int f(int x) {
                 int r = 0;
                 try { r = 10 / x; } catch (ArithmeticException e) { r = -1; } finally { Sys.println("fin"); }
                 return r;
             }
             static int main() {
                 Sys.println(f(2));
                 Sys.println(f(0));
                 return 0;
             }
           }"#,
        "A.main",
    );
    assert_eq!(out, "fin\n5\nfin\n-1\n");
}

#[test]
fn cast_success_and_failure() {
    assert_eq!(
        run_int(
            "class Animal { }
             class Dog extends Animal { int bark() { return 5; } }
             class Cat extends Animal { }
             class Main {
                 static int main() {
                     Animal a = new Dog();
                     Animal c = new Cat();
                     int s = ((Dog) a).bark();
                     try { Dog d = (Dog) c; s += d.bark(); }
                     catch (ClassCastException e) { s += 100; }
                     return s;
                 }
             }",
            "Main.main"
        ),
        105
    );
}

#[test]
fn instanceof_checks() {
    assert_eq!(
        run_int(
            "class X { }
             class Y extends X { }
             class Main { static int main() {
                 X x = new Y();
                 X p = new X();
                 int s = 0;
                 if (x instanceof Y) s += 1;
                 if (x instanceof X) s += 2;
                 if (p instanceof Y) s += 4;
                 X q = null;
                 if (q instanceof X) s += 8;
                 return s;
             } }",
            "Main.main"
        ),
        3
    );
}

#[test]
fn strings_and_output() {
    let (_, out) = run(
        r#"class A { static int main() {
               String h = "hello";
               String w = "world";
               String m = h + " " + w + "!";
               Sys.println(m);
               Sys.println(m.length());
               Sys.println(m.charAt(4));
               Sys.println(m.substring(6, 11));
               Sys.println("abc".equals("abc"));
               Sys.println("count: " + 3 + ", pi-ish " + 3.5);
               return 0;
           } }"#,
        "A.main",
    );
    assert_eq!(
        out,
        "hello world!\n12\no\nworld\ntrue\ncount: 3, pi-ish 3.5\n"
    );
}

#[test]
fn long_double_math() {
    let (_, out) = run(
        r#"class A { static int main() {
               long big = 1L << 40;
               Sys.println(big);
               double d = Math.sqrt(2.0);
               Sys.println(d * d > 1.999 && d * d < 2.001);
               Sys.println(Math.max(3, 9) + Math.min(2, 5));
               Sys.println((int) 3.99);
               Sys.println((char) 66);
               Sys.println(-7 % 3);
               Sys.println(-7 / 2);
               Sys.println(7 >>> 1);
               Sys.println(-8 >> 1);
               return 0;
           } }"#,
        "A.main",
    );
    assert_eq!(out, "1099511627776\ntrue\n11\n3\nB\n-1\n-3\n3\n-4\n");
}

#[test]
fn integer_overflow_wraps() {
    assert_eq!(
        run_int(
            "class A { static int main() { int x = 2147483647; return x + 1; } }",
            "A.main"
        ),
        i32::MIN
    );
    assert_eq!(
        run_int(
            "class A { static int main() { return (-2147483648) / (-1); } }",
            "A.main"
        ),
        i32::MIN
    );
}

#[test]
fn short_circuit_side_effects() {
    let (_, out) = run(
        r#"class A {
               static int calls = 0;
               static boolean t() { calls++; return true; }
               static boolean f() { calls++; return false; }
               static int main() {
                   boolean a = f() && t(); // t not called
                   boolean b = t() || f(); // f not called
                   Sys.println(calls);
                   Sys.println(a);
                   Sys.println(b);
                   return 0;
               }
           }"#,
        "A.main",
    );
    assert_eq!(out, "2\nfalse\ntrue\n");
}

#[test]
fn ternary_and_postfix() {
    assert_eq!(
        run_int(
            "class A { static int main() {
                 int x = 5;
                 int y = x++;          // y=5, x=6
                 int z = ++x;          // z=7, x=7
                 int m = x > y ? x - y : y - x; // 2
                 return y * 100 + z * 10 + m;
             } }",
            "A.main"
        ),
        572
    );
}

#[test]
fn linked_list_null_termination() {
    assert_eq!(
        run_int(
            "class Node { int v; Node next; Node(int v, Node next) { this.v = v; this.next = next; } }
             class Main { static int main() {
                 Node head = new Node(1, new Node(2, new Node(3, null)));
                 int s = 0;
                 Node cur = head;
                 while (cur != null) { s += cur.v; cur = cur.next; }
                 return s;
             } }",
            "Main.main"
        ),
        6
    );
}

#[test]
fn exceptions_propagate_across_calls() {
    assert_eq!(
        run_int(
            "class A {
                 static int boom(int x) { return 100 / x; }
                 static int mid(int x) { return boom(x) + 1; }
                 static int main() {
                     try { return mid(0); } catch (ArithmeticException e) { return -5; }
                 }
             }",
            "A.main"
        ),
        -5
    );
}

#[test]
fn uncaught_exception_reported() {
    let prog = compile("class A { static int main() { return 1 / 0; } }").unwrap();
    let lowered = lower_program(&prog).unwrap();
    verify_module(&lowered.module).unwrap();
    let mut vm = Vm::load(&lowered.module).unwrap();
    let err = vm.run_entry("A.main").unwrap_err();
    assert!(matches!(err, safetsa_vm::VmError::Uncaught(_)));
}

#[test]
fn fuel_limit_stops_infinite_loop() {
    let prog = compile("class A { static int main() { int x = 0; while (true) { x++; } } }");
    // `while(true)` with no break: function cannot fall through, but it
    // also never returns — sema accepts since no missing return…
    let prog = match prog {
        Ok(p) => p,
        Err(_) => return, // if sema rejects, nothing to test
    };
    let lowered = lower_program(&prog).unwrap();
    let mut vm = Vm::load(&lowered.module).unwrap();
    vm.set_fuel(10_000);
    let err = vm.run_entry("A.main").unwrap_err();
    assert!(matches!(err, safetsa_vm::VmError::FuelExhausted));
}

// ------------------------------------------------------------------
// Resource governance: heap budgets, call-depth caps, and the
// reusable-after-trap invariant.

fn load_governed(src: &str, limits: safetsa_vm::ResourceLimits) -> Vm<'static> {
    let prog = compile(src).expect("compiles");
    let lowered = lower_program(&prog).expect("lowers");
    verify_module(&lowered.module).expect("verifies");
    // Tests keep one module per VM alive for the test's duration.
    let module = Box::leak(Box::new(lowered.module));
    let mut vm = Vm::load(module).expect("loads");
    vm.set_limits(limits);
    vm
}

#[test]
fn oom_is_catchable_like_java() {
    let mut vm = load_governed(
        "class A { static int main() {
             try {
                 int[] big = new int[1000000];
                 return big.length;
             } catch (OutOfMemoryError e) {
                 return -1;
             }
         } }",
        safetsa_vm::ResourceLimits {
            fuel: Some(1_000_000),
            max_heap_bytes: Some(4096),
            max_call_depth: None,
        },
    );
    assert_eq!(vm.run_entry("A.main").unwrap(), Some(Value::I(-1)));
}

#[test]
fn oom_rejects_huge_array_before_host_allocation() {
    // 1 << 28 ints would be a gigabyte of host memory: the projected
    // size must be rejected against the budget before the elements are
    // ever materialised.
    let mut vm = load_governed(
        "class A { static int main() {
             try {
                 int[] big = new int[268435456];
                 return big.length;
             } catch (OutOfMemoryError e) {
                 return -1;
             }
         } }",
        safetsa_vm::ResourceLimits {
            fuel: Some(1_000_000),
            max_heap_bytes: Some(1 << 16),
            max_call_depth: None,
        },
    );
    assert_eq!(vm.run_entry("A.main").unwrap(), Some(Value::I(-1)));
    assert!(vm.heap.bytes_allocated() < (1 << 16));
}

#[test]
fn uncaught_oom_is_structured_not_a_panic() {
    let mut vm = load_governed(
        "class A { static int main() { int[] b = new int[100000]; return b.length; } }",
        safetsa_vm::ResourceLimits {
            fuel: Some(1_000_000),
            max_heap_bytes: Some(1024),
            max_call_depth: None,
        },
    );
    let err = vm.run_entry("A.main").unwrap_err();
    assert!(matches!(
        err,
        safetsa_vm::VmError::Uncaught(safetsa_rt::Trap::OutOfMemory)
    ));
    // The VM survives the trap: raising the budget and re-running the
    // same entry point succeeds.
    vm.set_limits(safetsa_vm::ResourceLimits {
        fuel: Some(1_000_000),
        max_heap_bytes: None,
        max_call_depth: None,
    });
    assert_eq!(vm.run_entry("A.main").unwrap(), Some(Value::I(100000)));
}

#[test]
fn stack_overflow_is_catchable_like_java() {
    let mut vm = load_governed(
        "class A {
             static int rec(int n) { return rec(n + 1); }
             static int main() {
                 try { return rec(0); } catch (StackOverflowError e) { return -2; }
             }
         }",
        safetsa_vm::ResourceLimits {
            fuel: Some(10_000_000),
            max_heap_bytes: None,
            max_call_depth: Some(64),
        },
    );
    assert_eq!(vm.run_entry("A.main").unwrap(), Some(Value::I(-2)));
}

#[test]
fn depth_is_restored_after_stack_overflow() {
    let mut vm = load_governed(
        "class A {
             static int rec(int n) { if (n == 0) return 0; return 1 + rec(n - 1); }
             static int deep() { return rec(1000); }
             static int shallow() { return rec(3); }
         }",
        safetsa_vm::ResourceLimits {
            fuel: Some(10_000_000),
            max_heap_bytes: None,
            max_call_depth: Some(16),
        },
    );
    let err = vm.run_entry("A.deep").unwrap_err();
    assert!(matches!(
        err,
        safetsa_vm::VmError::Uncaught(safetsa_rt::Trap::StackOverflow)
    ));
    // Depth bookkeeping unwound correctly: a shallow entry still fits.
    assert_eq!(vm.run_entry("A.shallow").unwrap(), Some(Value::I(3)));
    assert!(vm.peak_depth() >= 16);
}

#[test]
fn error_is_outside_the_exception_hierarchy() {
    // `catch (Exception e)` must NOT swallow resource-exhaustion
    // errors, exactly like Java.
    let mut vm = load_governed(
        "class A { static int main() {
             try {
                 int[] big = new int[1000000];
                 return big.length;
             } catch (Exception e) {
                 return -3;
             }
         } }",
        safetsa_vm::ResourceLimits {
            fuel: Some(1_000_000),
            max_heap_bytes: Some(4096),
            max_call_depth: None,
        },
    );
    let err = vm.run_entry("A.main").unwrap_err();
    // The handler re-throws the non-matching OutOfMemoryError object.
    assert!(matches!(
        err,
        safetsa_vm::VmError::Uncaught(safetsa_rt::Trap::User(_))
            | safetsa_vm::VmError::Uncaught(safetsa_rt::Trap::OutOfMemory)
    ));
}

#[test]
fn profiler_samples_hot_functions_deterministically() {
    let src = "class A {
         static int hot() { int s = 0; for (int i = 0; i < 20000; i++) s += i; return s; }
         static int main() { return hot(); }
     }";
    let profile_of = || {
        let prog = compile(src).expect("compiles");
        let lowered = lower_program(&prog).expect("lowers");
        verify_module(&lowered.module).expect("verifies");
        let mut vm = Vm::load(&lowered.module).expect("loads");
        vm.enable_profiler(1);
        vm.run_entry("A.main").expect("runs");
        let p = vm.take_profile();
        assert!(vm.profile().is_empty(), "take_profile leaves an empty one");
        p
    };
    let p = profile_of();
    assert!(p.samples > 10, "loop body must cross many slices: {p:?}");
    assert_eq!(p.top_function().unwrap().0, "A.hot");
    assert!(!p.pairs.is_empty(), "opcode window must yield pairs");
    // Samples land at instruction-count boundaries, not timer ticks, so
    // a deterministic program profiles identically on every run.
    assert_eq!(p, profile_of());
}

#[test]
fn profiler_off_means_no_samples_and_no_slice_cost() {
    let (_, _) = run(
        "class A { static int main() {
             int s = 0; for (int i = 0; i < 5000; i++) s += i; return s;
         } }",
        "A.main",
    );
    let prog = compile("class A { static int main() { return 1; } }").unwrap();
    let lowered = lower_program(&prog).unwrap();
    verify_module(&lowered.module).unwrap();
    let mut vm = Vm::load(&lowered.module).unwrap();
    vm.run_entry("A.main").unwrap();
    assert!(vm.profile().is_empty());
}

#[test]
fn profiler_survives_a_deadline_kill() {
    // The at-kill-time sample: a spin killed by the deadline must still
    // carry hot-function evidence, because sampling happens at the
    // slice boundary *before* the deadline check.
    let prog = compile("class A { static int main() { int i = 0; while (true) { i = i + 1; } } }")
        .expect("compiles");
    let lowered = lower_program(&prog).expect("lowers");
    verify_module(&lowered.module).expect("verifies");
    let mut vm = Vm::load(&lowered.module).expect("loads");
    vm.enable_profiler(1);
    vm.set_deadline(std::time::Instant::now() + std::time::Duration::from_millis(20));
    let err = vm.run_entry("A.main").unwrap_err();
    assert!(matches!(err, safetsa_vm::VmError::DeadlineExceeded));
    let p = vm.profile();
    assert!(p.samples > 0, "kill-time sample missing: {p:?}");
    assert_eq!(p.top_function().unwrap().0, "A.main");
}

#[test]
fn profiles_merge_additively() {
    let mut a = safetsa_vm::VmProfile {
        every_slices: 4,
        samples: 3,
        ..Default::default()
    };
    a.hot.insert("A.f".into(), 3);
    a.pairs.insert("add>mul".into(), 2);
    let mut b = safetsa_vm::VmProfile {
        every_slices: 4,
        samples: 5,
        ..Default::default()
    };
    b.hot.insert("A.f".into(), 1);
    b.hot.insert("B.g".into(), 5);
    a.merge(&b);
    assert_eq!(a.samples, 8);
    assert_eq!(a.hot["A.f"], 4);
    assert_eq!(a.top_function().unwrap(), ("B.g", 5));
}

#[test]
fn rows_outside_their_table_or_arity_fail_where_they_run() {
    // The decoder hands the inlined row evaluators only a row its table
    // holds, at the row's own arity. Any other primitive, which the
    // verifier rejects (skipped here), decodes to an op that reports an
    // internal error when reached instead of panicking.
    use safetsa_core::instr::{Instr, Operands};
    use safetsa_core::primops::PrimOpId;
    use safetsa_core::value::ValueId;
    type Edit = fn(&mut PrimOpId, &mut Operands<ValueId>);
    let src = "class A { static int main() { int a = 3; int b = 4; return -a + b; } }";
    let module = lower_program(&compile(src).expect("compiles"))
        .expect("lowers")
        .module;
    verify_module(&module).expect("verifies");
    let edits: [(&str, Edit); 3] = [
        ("a row past the table", |op, _| op.0 = 999),
        ("a unary row given two operands", |_, args| {
            if args.len() == 1 {
                args.push(args[0]);
            }
        }),
        ("a binary row given one operand", |_, args| {
            if args.len() == 2 {
                *args = [args[0]].into();
            }
        }),
    ];
    for (what, edit) in edits {
        let mut m = module.clone();
        let mut edited = 0;
        for f in &mut m.functions {
            for block in &mut f.blocks {
                for instr in &mut block.instrs {
                    if let Instr::Primitive { op, args, .. } = instr {
                        let before = (*op, args.len());
                        edit(op, args);
                        edited += usize::from(before != (*op, args.len()));
                    }
                }
            }
        }
        assert!(edited > 0, "{what}: no primitive edited");
        let err = Vm::load(&m)
            .expect("loads")
            .run_entry("A.main")
            .expect_err(what);
        assert!(err.to_string().contains("unknown primop"), "{what}: {err}");
    }
}
