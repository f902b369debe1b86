//! Differential execution: every program is compiled once, then run
//! through the SafeTSA pipeline (lower → verify → interpret), through
//! the *optimized* SafeTSA pipeline (all producer passes, checkelim
//! included), and through the Java-bytecode baseline (compile →
//! dataflow-verify → interpret). Results and captured output must agree
//! exactly across all three.
//!
//! This pins the reproduction's central soundness claim: SafeTSA
//! preserves the program's semantics while changing its representation
//! — and the producer-side optimizer preserves them again.

use safetsa_baseline::{compile as bcompile, interp::Bvm, verify as bverify};
use safetsa_core::verify::verify_module;
use safetsa_frontend::compile;
use safetsa_opt::Passes;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;
use safetsa_vm::Vm;

/// Runs `entry` under all three engines and asserts identical outcomes.
fn differential(src: &str, entry: &str) -> (Option<Value>, String) {
    let prog = compile(src).expect("front-end accepts");
    // SafeTSA side.
    let lowered = lower_program(&prog).expect("ssa lowering");
    verify_module(&lowered.module).expect("SafeTSA verifies");
    let mut vm = Vm::load(&lowered.module).expect("vm loads");
    vm.set_fuel(100_000_000);
    let tsa_result = vm.run_entry(entry).expect("SafeTSA run");
    let tsa_out = vm.output.text().to_string();
    // Optimized SafeTSA side: every producer pass, checkelim included.
    let mut optimized = lowered.module.clone();
    safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
    verify_module(&optimized).expect("optimized SafeTSA verifies");
    let mut ovm = Vm::load(&optimized).expect("optimized vm loads");
    ovm.set_fuel(100_000_000);
    let opt_result = ovm.run_entry(entry).expect("optimized SafeTSA run");
    let opt_out = ovm.output.text().to_string();
    // Baseline side.
    let mut code = bcompile::compile_program(&prog);
    bverify::verify_program(&prog, &mut code).expect("bytecode verifies");
    let mut bvm = Bvm::load(&prog, &code);
    bvm.set_fuel(100_000_000);
    let b_result = bvm.run_entry(entry).expect("baseline run");
    let b_out = bvm.output.text().to_string();
    // Optimization must be invisible: bit-identical result and output.
    match (&tsa_result, &opt_result) {
        (Some(x), Some(y)) => assert!(
            x.bits_eq(*y),
            "optimizer changed result: {x:?} vs {y:?}\n{src}"
        ),
        (None, None) => {}
        (x, y) => panic!("optimizer changed result arity: {x:?} vs {y:?}"),
    }
    assert_eq!(tsa_out, opt_out, "optimizer changed output for {src}");
    // Compare against the baseline. It returns bool/char as ints;
    // normalize.
    let norm = |v: Option<Value>| -> Option<Value> {
        v.map(|v| match v {
            Value::Z(b) => Value::I(i32::from(b)),
            Value::C(c) => Value::I(c as i32),
            other => other,
        })
    };
    let (a, b) = (norm(tsa_result), norm(b_result));
    match (a, b) {
        (Some(x), Some(y)) => assert!(
            x.bits_eq(y),
            "result mismatch: SafeTSA {x:?} vs baseline {y:?}\n{src}"
        ),
        (None, None) => {}
        (x, y) => panic!("result arity mismatch: {x:?} vs {y:?}"),
    }
    assert_eq!(tsa_out, b_out, "output mismatch for {src}");
    (norm(Some(Value::I(0))).and(None), tsa_out)
}

/// Corpus-wide: every corpus program still verifies after the full pass
/// pipeline (checkelim included) and runs bit-identically — output,
/// result, and exception behaviour — to its unoptimized module.
#[test]
fn corpus_optimized_matches_unoptimized() {
    for entry in safetsa_bench::corpus() {
        let prog = compile(entry.source).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let lowered = lower_program(&prog).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let mut optimized = lowered.module.clone();
        safetsa_opt::optimize(&mut optimized, Passes::ALL, &Telemetry::disabled());
        verify_module(&optimized)
            .unwrap_or_else(|e| panic!("{}: optimized module rejected: {e}", entry.name));
        let run = |m: &safetsa_core::Module| {
            let mut vm = Vm::load(m).expect("loads");
            vm.set_fuel(500_000_000);
            // Keep VM errors (uncaught exceptions, exhaustion) in the
            // comparison: the optimizer must not change them either.
            let r = vm.run_entry(entry.entry).map_err(|e| e.to_string());
            (r, vm.output.text().to_string())
        };
        let (r1, o1) = run(&lowered.module);
        let (r2, o2) = run(&optimized);
        assert_eq!(o1, o2, "{}: output diverged", entry.name);
        match (r1, r2) {
            (Ok(Some(x)), Ok(Some(y))) => {
                assert!(x.bits_eq(y), "{}: {x:?} vs {y:?}", entry.name);
            }
            (Ok(None), Ok(None)) => {}
            (Err(a), Err(b)) => assert_eq!(a, b, "{}: error diverged", entry.name),
            (a, b) => panic!("{}: outcome diverged: {a:?} vs {b:?}", entry.name),
        }
    }
}

/// Corpus-wide: the memory passes toggled individually — load
/// forwarding alone, dead-store elimination alone, and the full
/// pipeline with each disabled — must keep every program bit-identical
/// to its unoptimized module, trap paths (Exceptions) included.
#[test]
fn corpus_memory_pass_toggles_preserve_semantics() {
    let configs = [
        (
            "loadfwd-only",
            Passes {
                loadfwd: true,
                ..Passes::NONE
            },
        ),
        (
            "dse-only",
            Passes {
                dse: true,
                ..Passes::NONE
            },
        ),
        (
            "all-minus-loadfwd",
            Passes {
                loadfwd: false,
                ..Passes::ALL
            },
        ),
        (
            "all-minus-dse",
            Passes {
                dse: false,
                ..Passes::ALL
            },
        ),
    ];
    for entry in safetsa_bench::corpus() {
        let prog = compile(entry.source).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let lowered = lower_program(&prog).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let run = |m: &safetsa_core::Module| {
            let mut vm = Vm::load(m).expect("loads");
            vm.set_fuel(500_000_000);
            let r = vm.run_entry(entry.entry).map_err(|e| e.to_string());
            (r, vm.output.text().to_string())
        };
        let (r1, o1) = run(&lowered.module);
        for (cfg_name, passes) in configs {
            let mut m = lowered.module.clone();
            safetsa_opt::optimize(&mut m, passes, &Telemetry::disabled());
            verify_module(&m).unwrap_or_else(|e| {
                panic!(
                    "{} [{cfg_name}]: optimized module rejected: {e}",
                    entry.name
                )
            });
            let (r2, o2) = run(&m);
            assert_eq!(o1, o2, "{} [{cfg_name}]: output diverged", entry.name);
            match (&r1, &r2) {
                (Ok(Some(x)), Ok(Some(y))) => {
                    assert!(x.bits_eq(*y), "{} [{cfg_name}]: {x:?} vs {y:?}", entry.name);
                }
                (Ok(None), Ok(None)) => {}
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{} [{cfg_name}]: error diverged", entry.name);
                }
                (a, b) => panic!(
                    "{} [{cfg_name}]: outcome diverged: {a:?} vs {b:?}",
                    entry.name
                ),
            }
        }
    }
}

#[test]
fn arithmetic_expressions() {
    differential(
        r#"class A { static int main() {
            int a = 17; int b = -5;
            Sys.println(a + b); Sys.println(a - b); Sys.println(a * b);
            Sys.println(a / b); Sys.println(a % b);
            Sys.println(a & b); Sys.println(a | b); Sys.println(a ^ b);
            Sys.println(a << 2); Sys.println(b >> 1); Sys.println(b >>> 1);
            Sys.println(~a); Sys.println(-b);
            return a * b + 3;
        } }"#,
        "A.main",
    );
}

#[test]
fn long_arithmetic() {
    differential(
        r#"class A { static long main() {
            long a = 123456789012345L; long b = -987654321L;
            Sys.println(a + b); Sys.println(a * b); Sys.println(a / b);
            Sys.println(a % b); Sys.println(a << 7); Sys.println(a >>> 3);
            Sys.println(a & b); Sys.println((int) a);
            return a ^ b;
        } }"#,
        "A.main",
    );
}

#[test]
fn double_arithmetic_and_nan() {
    differential(
        r#"class A { static double main() {
            double x = 1.5; double y = -0.25;
            Sys.println(x + y); Sys.println(x / y); Sys.println(x % y);
            double nan = 0.0 / 0.0;
            Sys.println(nan == nan);
            Sys.println(nan != nan);
            Sys.println(nan < 1.0);
            Sys.println(nan >= 1.0);
            Sys.println(1.0 / 0.0);
            Sys.println(-1.0 / 0.0);
            Sys.println(Math.sqrt(-1.0) != Math.sqrt(-1.0));
            return x * y;
        } }"#,
        "A.main",
    );
}

#[test]
fn conversions() {
    differential(
        r#"class A { static int main() {
            double d = 1e10;
            Sys.println((int) d);          // saturates
            Sys.println((long) d);
            Sys.println((int) -1e10);
            Sys.println((char) 65601);     // wraps mod 2^16
            Sys.println((int) 'Z');
            long big = 0x1234567890L;
            Sys.println((int) big);
            float f = 3.75f;
            Sys.println((int) f);
            Sys.println((double) f);
            return 0;
        } }"#,
        "A.main",
    );
}

#[test]
fn control_flow_matrix() {
    differential(
        r#"class A { static int main() {
            int total = 0;
            for (int i = 0; i < 20; i++) {
                if (i % 3 == 0) continue;
                int j = i;
                while (j > 0) { total += j & 1; j >>= 1; }
                if (total > 40) break;
            }
            do { total++; } while (total < 10);
            return total;
        } }"#,
        "A.main",
    );
}

#[test]
fn objects_inheritance_dispatch() {
    differential(
        r#"class Animal { int legs() { return 4; } int id() { return 0; } }
           class Bird extends Animal { int legs() { return 2; } }
           class Snake extends Animal { int legs() { return 0; } int id() { return 9; } }
           class Main { static int main() {
               Animal[] zoo = new Animal[3];
               zoo[0] = new Animal(); zoo[1] = new Bird(); zoo[2] = new Snake();
               int s = 0;
               for (int i = 0; i < zoo.length; i++) { s += zoo[i].legs() * 10 + zoo[i].id(); }
               Sys.println(s);
               return s;
           } }"#,
        "Main.main",
    );
}

/// Instance layout: the VM reads each field's slot from its type table,
/// the baseline lays its classes out itself, so a wrong slot shows as a
/// value read back through another class than the one that wrote it.
#[test]
fn field_layout_across_a_hierarchy() {
    differential(
        r#"class A {
               int x; static int sa = 1; long y; static long sb;
               A(int v) { x = v; y = v * 1000000007L; sa = sa + v; sb = sb + y; }
               int readA() { return x; }
               long sumA() { return x * 100 + y; }
           }
           class B extends A {
               static int sc = 7; int x; double w; static double sd = 0.5;
               B(int v) { super(v); x = v + 10; w = v * 0.25; sc = sc + x; sd = sd + w; }
               int readB() { return x * 7 + readA(); }
           }
           class C extends B {
               char k; static char sk = 'c'; int z; long y; static int se;
               C(int v) { super(v); k = 'k'; z = v * 3; y = -v; se = se + z; }
               long sumC() { return z + y + sumA() + readB(); }
           }
           class D extends A {
               static boolean sf; boolean q; int x;
               D(int v) { super(v); q = v > 2; x = -v; sf = q; }
           }
           class Main {
               static void show(A a) { Sys.print(a.x); Sys.print(' '); Sys.println(a.y); }
               static int main() {
                   A a = new A(1); B b = new B(2); C c = new C(3); D d = new D(4);
                   show(a); show(b); show(c); show(d);
                   // Written through the subclass, read through a supertype.
                   c.x = 31; c.y = 32; c.z = 33; c.w = 3.5; c.k = 'q';
                   B cb = c; A ca = c;
                   Sys.println(cb.x); Sys.println(ca.x); Sys.println(ca.y);
                   Sys.println(cb.w); Sys.println(cb.readB()); Sys.println(c.sumC());
                   // Written through a supertype, read through the subclass.
                   ca.x = 41; ca.y = 42; cb.x = 43; cb.w = 4.25;
                   Sys.println(c.x); Sys.println(c.y); Sys.println(c.z); Sys.println(c.k);
                   Sys.println(c.w); Sys.println(c.readA()); Sys.println(c.sumA());
                   A da = d; da.x = 51; d.q = false;
                   Sys.println(d.x); Sys.println(da.x); Sys.println(d.q); Sys.println(d.sumA());
                   A ba = b; ba.x = 61; b.x = 62;
                   Sys.println(ba.x); Sys.println(b.readB());
                   Sys.println(A.sa); Sys.println(A.sb); Sys.println(B.sc); Sys.println(B.sd);
                   Sys.println(C.sk); Sys.println(C.se); Sys.println(D.sf);
                   return c.z * 1000 + c.x * 10 + d.x + ca.x + cb.x;
               }
           }"#,
        "Main.main",
    );
}

#[test]
fn exceptions_all_kinds() {
    differential(
        r#"class MyE extends Exception { int tag; MyE(int t) { super("mine"); tag = t; } }
           class A {
               static int probe(int kind) {
                   int[] arr = new int[2];
                   Object o = "str";
                   try {
                       if (kind == 0) return 10 / 0;
                       if (kind == 1) return arr[7];
                       if (kind == 2) { A a = null; return a.hash(); }
                       if (kind == 3) { MyE m = (MyE) o; return m.tag; }
                       if (kind == 4) throw new MyE(77);
                       if (kind == 5) return new int[-3].length;
                       return 42;
                   }
                   catch (ArithmeticException e) { return -1; }
                   catch (IndexOutOfBoundsException e) { return -2; }
                   catch (NullPointerException e) { return -3; }
                   catch (ClassCastException e) { return -4; }
                   catch (MyE e) { Sys.println(e.getMessage()); return -e.tag; }
                   catch (NegativeArraySizeException e) { return -6; }
               }
               int hash() { return 1; }
               static int main() {
                   int s = 0;
                   for (int k = 0; k <= 6; k++) { int r = probe(k); Sys.println(r); s += r; }
                   return s;
               }
           }"#,
        "A.main",
    );
}

#[test]
fn string_workout() {
    differential(
        r#"class A { static int main() {
            String s = "The quick brown fox";
            Sys.println(s.length());
            Sys.println(s.charAt(4));
            Sys.println(s.indexOf('q'));
            Sys.println(s.substring(4, 9));
            Sys.println(s.equals("The quick brown fox"));
            Sys.println(s.equals("nope"));
            Sys.println(s.compareTo("The quick brown fox"));
            Sys.println(s.compareTo("Aardvark"));
            String t = s + " jumps " + 3 + ' ' + 2.5 + " " + true + " times";
            Sys.println(t);
            return t.length();
        } }"#,
        "A.main",
    );
}

#[test]
fn sieve_of_eratosthenes() {
    differential(
        r#"class Sieve { static int main() {
            int n = 2000;
            boolean[] composite = new boolean[n + 1];
            int count = 0;
            for (int i = 2; i <= n; i++) {
                if (!composite[i]) {
                    count++;
                    for (int j = i + i; j <= n; j += i) composite[j] = true;
                }
            }
            Sys.println(count);
            return count;
        } }"#,
        "Sieve.main",
    );
}

#[test]
fn quicksort() {
    differential(
        r#"class QSort {
            static void sort(int[] a, int lo, int hi) {
                if (lo >= hi) return;
                int p = a[(lo + hi) >>> 1];
                int i = lo; int j = hi;
                while (i <= j) {
                    while (a[i] < p) i++;
                    while (a[j] > p) j--;
                    if (i <= j) { int t = a[i]; a[i] = a[j]; a[j] = t; i++; j--; }
                }
                sort(a, lo, j);
                sort(a, i, hi);
            }
            static int main() {
                int seed = 12345;
                int[] a = new int[200];
                for (int i = 0; i < a.length; i++) {
                    seed = seed * 1103515245 + 12345;
                    a[i] = (seed >>> 8) % 1000;
                }
                sort(a, 0, a.length - 1);
                int checksum = 0;
                for (int i = 1; i < a.length; i++) {
                    if (a[i - 1] > a[i]) return -1;
                    checksum = checksum * 31 + a[i];
                }
                Sys.println(checksum);
                return checksum;
            }
        }"#,
        "QSort.main",
    );
}

#[test]
fn linked_structures() {
    differential(
        r#"class Node { int v; Node next; Node(int v) { this.v = v; } }
           class List {
               Node head; int size;
               void push(int v) { Node n = new Node(v); n.next = head; head = n; size++; }
               int sum() { int s = 0; Node c = head; while (c != null) { s += c.v; c = c.next; } return s; }
           }
           class Main { static int main() {
               List l = new List();
               for (int i = 1; i <= 50; i++) l.push(i * i);
               Sys.println(l.size);
               Sys.println(l.sum());
               return l.sum();
           } }"#,
        "Main.main",
    );
}

#[test]
fn statics_shared_state() {
    differential(
        r#"class Counter {
               static int count = 100;
               static int[] hist = new int[5];
               static void bump(int k) { count++; hist[k % 5]++; }
           }
           class Main { static int main() {
               for (int i = 0; i < 13; i++) Counter.bump(i);
               Sys.println(Counter.count);
               int s = 0;
               for (int i = 0; i < 5; i++) { Sys.print(Counter.hist[i]); Sys.print(' '); s += (i + 1) * Counter.hist[i]; }
               Sys.println();
               return s;
           } }"#,
        "Main.main",
    );
}

#[test]
fn shadowing_and_scopes() {
    differential(
        r#"class A {
               static int x = 5;
               static int main() {
                   int s = x;
                   { int x2 = 10; s += x2; }
                   for (int i = 0; i < 3; i++) { int x2 = i; s += x2; }
                   return s + x;
               }
           }"#,
        "A.main",
    );
}

#[test]
fn ternary_chains_and_short_circuit() {
    differential(
        r#"class A {
               static int calls = 0;
               static boolean side(boolean b) { calls++; return b; }
               static int main() {
                   int a = 3; int b = 7;
                   int m = a > b ? a : a == b ? 0 : -b;
                   boolean x = side(false) && side(true);
                   boolean y = side(true) || side(false);
                   boolean z = !x & y | (a < b ^ x);
                   Sys.println(m); Sys.println(calls);
                   Sys.println(x); Sys.println(y); Sys.println(z);
                   return m + calls;
               }
           }"#,
        "A.main",
    );
}

#[test]
fn char_tokenizer() {
    differential(
        r#"class Tok {
               static boolean isDigit(char c) { return c >= '0' && c <= '9'; }
               static boolean isAlpha(char c) { return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'; }
               static int main() {
                   String src = "x1 = alpha42 + 7 * beta9;";
                   int idents = 0; int numbers = 0; int others = 0;
                   int i = 0;
                   while (i < src.length()) {
                       char c = src.charAt(i);
                       if (isAlpha(c)) {
                           idents++;
                           while (i < src.length() && (isAlpha(src.charAt(i)) || isDigit(src.charAt(i)))) i++;
                       } else if (isDigit(c)) {
                           numbers++;
                           while (i < src.length() && isDigit(src.charAt(i))) i++;
                       } else { others++; i++; }
                   }
                   Sys.println(idents); Sys.println(numbers); Sys.println(others);
                   return idents * 100 + numbers * 10 + others;
               }
           }"#,
        "Tok.main",
    );
}

#[test]
fn deep_recursion_and_wide_values() {
    // Both engines recurse natively per Java frame; give the test a
    // generous stack (debug-build frames are large).
    std::thread::Builder::new()
        .stack_size(256 * 1024 * 1024)
        .spawn(run_deep)
        .unwrap()
        .join()
        .unwrap();
}

fn run_deep() {
    differential(
        r#"class A {
               static long ack_ish(int depth, long acc) {
                   if (depth == 0) return acc;
                   return ack_ish(depth - 1, acc * 3 + depth);
               }
               static int main() {
                   long r = ack_ish(400, 1L);
                   Sys.println(r);
                   return (int) (r & 0xFFFF);
               }
           }"#,
        "A.main",
    );
}

#[test]
fn matrix_multiply_doubles() {
    differential(
        r#"class Mat { static int main() {
            int n = 12;
            double[][] a = new double[n][]; double[][] b = new double[n][]; double[][] c = new double[n][];
            for (int i = 0; i < n; i++) {
                a[i] = new double[n]; b[i] = new double[n]; c[i] = new double[n];
                for (int j = 0; j < n; j++) { a[i][j] = i * 0.5 + j; b[i][j] = i - j * 0.25; }
            }
            for (int i = 0; i < n; i++)
                for (int k = 0; k < n; k++) {
                    double aik = a[i][k];
                    for (int j = 0; j < n; j++) c[i][j] += aik * b[k][j];
                }
            double trace = 0.0;
            for (int i = 0; i < n; i++) trace += c[i][i];
            Sys.println(trace);
            return (int) trace;
        } }"#,
        "Mat.main",
    );
}

#[test]
fn try_in_loop_with_state() {
    differential(
        r#"class A { static int main() {
            int caught = 0; int sum = 0;
            for (int i = -3; i <= 3; i++) {
                try { sum += 100 / i; }
                catch (ArithmeticException e) { caught++; }
                finally { sum++; }
            }
            Sys.println(sum); Sys.println(caught);
            return sum * 10 + caught;
        } }"#,
        "A.main",
    );
}

#[test]
fn instanceof_ladder() {
    differential(
        r#"class X { }
           class Y extends X { }
           class Z extends Y { }
           class Main {
               static int classify(Object o) {
                   if (o instanceof Z) return 3;
                   if (o instanceof Y) return 2;
                   if (o instanceof X) return 1;
                   if (o instanceof String) return 4;
                   return 0;
               }
               static int main() {
                   int s = classify(new Z()) * 1000
                         + classify(new Y()) * 100
                         + classify(new X()) * 10
                         + classify("s");
                   Sys.println(s);
                   return s;
               }
           }"#,
        "Main.main",
    );
}

#[test]
fn compound_assignment_on_everything() {
    differential(
        r#"class Box { int v; static int sv; }
           class A { static int main() {
               Box b = new Box();
               int[] a = new int[4];
               int x = 10;
               x += 5; x -= 2; x *= 3; x /= 4; x %= 7; x <<= 2; x >>= 1; x |= 8; x &= 12; x ^= 5;
               b.v += 3; b.v *= 7;
               Box.sv += 11;
               a[1] += 4; a[1] <<= 2;
               int i = 0;
               a[i++] = i; // a[0] = 1
               Sys.println(x); Sys.println(b.v); Sys.println(Box.sv);
               Sys.println(a[0]); Sys.println(a[1]); Sys.println(i);
               return x + b.v + Box.sv + a[0] + a[1];
           } }"#,
        "A.main",
    );
}

#[test]
fn bank_simulation_composite() {
    differential(
        r#"class Account {
               int id; long balance;
               Account(int id, long opening) { this.id = id; balance = opening; }
               boolean withdraw(long amt) {
                   if (amt > balance) return false;
                   balance -= amt;
                   return true;
               }
               void deposit(long amt) { balance += amt; }
           }
           class Bank {
               Account[] accounts; int n;
               Bank(int cap) { accounts = new Account[cap]; }
               Account open(long amount) { Account a = new Account(n, amount); accounts[n] = a; n++; return a; }
               long total() { long t = 0; for (int i = 0; i < n; i++) t += accounts[i].balance; return t; }
           }
           class Main { static int main() {
               Bank bank = new Bank(16);
               for (int i = 0; i < 10; i++) bank.open(1000 * (i + 1));
               int denied = 0;
               for (int i = 0; i < 10; i++) {
                   Account a = bank.accounts[i];
                   if (!a.withdraw(2500)) { denied++; a.deposit(17); }
               }
               Sys.println(bank.total());
               Sys.println(denied);
               return (int) (bank.total() % 100000) + denied;
           } }"#,
        "Main.main",
    );
}

#[test]
fn labeled_break_and_continue() {
    differential(
        r#"class A { static int main() {
            int s = 0;
            outer:
            for (int i = 0; i < 6; i++) {
                for (int j = 0; j < 6; j++) {
                    if (i * j > 12) break outer;
                    if ((i + j) % 3 == 0) continue outer;
                    s += i * 10 + j;
                }
                s += 1000;   // only when the inner loop completes
            }
            Sys.println(s);
            return s;
        } }"#,
        "A.main",
    );
}

#[test]
fn labeled_break_three_deep() {
    differential(
        r#"class A { static int main() {
            int hits = 0;
            search:
            for (int i = 0; i < 4; i++) {
                middle:
                for (int j = 0; j < 4; j++) {
                    for (int k = 0; k < 4; k++) {
                        if (k == 3) continue middle;
                        if (i + j + k == 7) break search;
                        hits++;
                    }
                    hits += 100; // unreachable: inner always continues middle
                }
                hits += 1000;
            }
            Sys.println(hits);
            return hits;
        } }"#,
        "A.main",
    );
}

#[test]
fn labeled_while_loops() {
    differential(
        r#"class A { static int main() {
            int n = 0; int guard = 0;
            spin:
            while (true) {
                guard++;
                if (guard > 50) break;
                int inner = 0;
                while (inner < 10) {
                    inner++;
                    n++;
                    if (n % 17 == 0) continue spin;
                    if (n > 120) break spin;
                }
            }
            Sys.println(n);
            Sys.println(guard);
            return n * 100 + guard;
        } }"#,
        "A.main",
    );
}
