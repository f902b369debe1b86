//! Codec round-trip and tamper-resistance tests.

use safetsa_codec::{decode_and_verify, decode_module, encode_module, HostEnv};
use safetsa_core::verify::verify_module;
use safetsa_frontend::compile;
use safetsa_rt::Value;
use safetsa_ssa::lower_program;
use safetsa_vm::Vm;

fn encode(src: &str) -> (safetsa_core::Module, Vec<u8>) {
    let prog = compile(src).expect("front-end");
    let lowered = lower_program(&prog).expect("lowering");
    verify_module(&lowered.module).expect("verifies");
    let bytes = encode_module(&lowered.module).expect("encodes");
    (lowered.module, bytes)
}

fn run(m: &safetsa_core::Module, entry: &str) -> (Option<Value>, String) {
    let mut vm = Vm::load(m).expect("loads");
    vm.set_fuel(50_000_000);
    let r = vm.run_entry(entry).expect("runs");
    (r, vm.output.text().to_string())
}

/// Round-trips and checks the decoded module runs identically.
fn round_trip(src: &str, entry: &str) {
    let (original, bytes) = encode(src);
    let host = HostEnv::standard();
    let decoded = decode_and_verify(&bytes, &host)
        .unwrap_or_else(|e| panic!("decode failed: {e}\nsource: {src}"));
    let a = run(&original, entry);
    let b = run(&decoded, entry);
    assert_eq!(a.1, b.1, "output differs after round trip");
    match (a.0, b.0) {
        (Some(x), Some(y)) => assert!(x.bits_eq(y), "{x:?} vs {y:?}"),
        (None, None) => {}
        other => panic!("result mismatch {other:?}"),
    }
    // Re-encoding the decoded module reproduces the byte stream
    // (canonical form).
    let bytes2 = encode_module(&decoded).expect("encodes");
    assert_eq!(bytes, bytes2, "re-encoding is not canonical");
}

#[test]
fn straight_line() {
    round_trip(
        "class A { static int main() { int a = 3; int b = 4; return a * a + b * b; } }",
        "A.main",
    );
}

#[test]
fn control_flow() {
    round_trip(
        "class A { static int main() {
             int s = 0;
             for (int i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
             while (s < 100) s *= 2;
             do { s--; } while (s % 10 != 0);
             return s;
         } }",
        "A.main",
    );
}

#[test]
fn objects_arrays_strings() {
    round_trip(
        r#"class Point {
               int x; int y;
               Point(int x, int y) { this.x = x; this.y = y; }
               int norm1() { return Math.abs(x) + Math.abs(y); }
           }
           class Main { static int main() {
               Point[] ps = new Point[4];
               for (int i = 0; i < ps.length; i++) ps[i] = new Point(i, -i * 2);
               int s = 0;
               for (int i = 0; i < ps.length; i++) s += ps[i].norm1();
               Sys.println("sum=" + s);
               return s;
           } }"#,
        "Main.main",
    );
}

#[test]
fn exceptions_and_dispatch() {
    round_trip(
        r#"class Base { int f() { return 1; } }
           class Derived extends Base { int f() { return 2; } }
           class Main {
               static int main() {
                   Base b = new Derived();
                   int r = b.f() * 100;
                   try { r += 10 / (b.f() - 2); }
                   catch (ArithmeticException e) { r += 7; }
                   return r;
               }
           }"#,
        "Main.main",
    );
}

#[test]
fn statics_and_clinit() {
    round_trip(
        "class C { static int X = 5; static int[] T = {1, 2, 3};
                   static int main() { return X * T[2]; } }",
        "C.main",
    );
}

#[test]
fn long_double_consts() {
    round_trip(
        r#"class A { static double main() {
            long big = 0x0123456789ABCDEFL;
            double d = 2.718281828459045;
            float f = 1.5f;
            char c = '€';
            Sys.println(big); Sys.println(d); Sys.println((int) c);
            return d * f;
        } }"#,
        "A.main",
    );
}

#[test]
fn optimized_module_round_trips() {
    let src = "class P { int a; int b;
                 static int f(P p) { return p.a + p.b + p.a + p.b; }
                 static int main() { P p = new P(); p.a = 3; p.b = 9; return f(p); } }";
    let prog = compile(src).unwrap();
    let lowered = lower_program(&prog).unwrap();
    let mut module = lowered.module;
    safetsa_opt::optimize_module(&mut module);
    verify_module(&module).unwrap();
    let bytes = encode_module(&module).expect("encodes");
    let host = HostEnv::standard();
    let decoded = decode_and_verify(&bytes, &host).expect("optimized module decodes");
    // The transported program retains the optimization: check counts
    // survive the round trip exactly.
    let count = |m: &safetsa_core::Module| {
        m.functions
            .iter()
            .map(|f| f.count_instrs(|i| matches!(i, safetsa_core::instr::Instr::NullCheck { .. })))
            .sum::<usize>()
    };
    assert_eq!(count(&module), count(&decoded));
    let a = run(&module, "P.main");
    let b = run(&decoded, "P.main");
    assert_eq!(a, b);
}

#[test]
fn compactness_vs_baseline() {
    // §8/Figure 5: SafeTSA is no more voluminous than class files.
    let src = r#"
        class Linpackish {
            static double[] make(int n) {
                double[] v = new double[n];
                for (int i = 0; i < n; i++) v[i] = i * 0.25 - 3.0;
                return v;
            }
            static double daxpy(int n, double a, double[] x, double[] y) {
                double s = 0.0;
                for (int i = 0; i < n; i++) { y[i] += a * x[i]; s += y[i]; }
                return s;
            }
            static int main() {
                double[] x = make(64);
                double[] y = make(64);
                double r = daxpy(64, 1.5, x, y);
                return (int) r;
            }
        }
    "#;
    let (module, bytes) = encode(src);
    let prog = compile(src).unwrap();
    let mut code = safetsa_baseline::compile::compile_program(&prog);
    safetsa_baseline::verify::verify_program(&prog, &mut code).unwrap();
    let class_bytes = safetsa_baseline::classfile::total_size(&prog, &code);
    // The shape claim, not an exact ratio: same order of magnitude and
    // typically smaller.
    assert!(
        bytes.len() < class_bytes * 2,
        "SafeTSA {} vs classfile {}",
        bytes.len(),
        class_bytes
    );
    let _ = module;
}

// ------------------------------------------------------ tamper tests

#[test]
fn truncation_rejected() {
    let (_, bytes) = encode("class A { static int main() { return 1 + 2; } }");
    let host = HostEnv::standard();
    for cut in [1, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            decode_and_verify(&bytes[..cut], &host).is_err(),
            "truncation at {cut} accepted"
        );
    }
}

#[test]
fn bad_magic_rejected() {
    let (_, mut bytes) = encode("class A { static int main() { return 1; } }");
    bytes[0] ^= 0xFF;
    let host = HostEnv::standard();
    assert!(decode_module(&bytes, &host).is_err());
}

#[test]
fn bit_flips_never_yield_unsafe_modules() {
    // The central tamper-resistance property: every single-bit mutation
    // either fails to decode, or decodes to a module that still passes
    // the full verifier (i.e. is a *different but type-safe* program).
    // A mutation can NEVER produce an accepted unsafe program.
    let (_, bytes) = encode(
        "class Acc { int total;
             void add(int x) { total += x; }
         }
         class A { static int main() {
             Acc a = new Acc();
             for (int i = 0; i < 5; i++) a.add(i * i);
             int[] buf = new int[4];
             buf[2] = a.total;
             return buf[2];
         } }",
    );
    let host = HostEnv::standard();
    let total_bits = bytes.len() * 8;
    // Flip a spread of bits (every 7th) to keep the test fast while
    // covering all stream regions.
    let mut decoded_ok = 0;
    let mut rejected = 0;
    for bit in (0..total_bits).step_by(7) {
        let mut mutated = bytes.clone();
        mutated[bit / 8] ^= 1 << (7 - bit % 8);
        match decode_and_verify(&mutated, &host) {
            Ok(_) => decoded_ok += 1,
            Err(_) => rejected += 1,
        }
    }
    // Most flips must be rejected; any accepted one passed the full
    // verifier (checked inside decode_and_verify).
    assert!(rejected > 0, "no mutation was rejected?");
    // Document the ratio for the curious.
    println!("tamper: {rejected} rejected, {decoded_ok} accepted-but-verified");
}

#[test]
fn byte_corruption_never_panics() {
    let (_, bytes) = encode(
        "class A { static int main() { int s = 0; for (int i = 0; i < 3; i++) s += i; return s; } }",
    );
    let host = HostEnv::standard();
    // Zero out / max out whole bytes.
    for i in 0..bytes.len() {
        for val in [0x00u8, 0xFF, 0xA5] {
            let mut m = bytes.clone();
            m[i] = val;
            let _ = decode_and_verify(&m, &host); // must not panic
        }
    }
}

#[test]
fn wrong_host_class_count_rejected() {
    let (_, bytes) = encode("class A { static int main() { return 0; } }");
    let mut host = HostEnv::standard();
    // Add a phantom host class: the module no longer matches.
    host.types.declare_class(safetsa_core::types::ClassInfo {
        name: "Phantom".into(),
        superclass: None,
        fields: vec![],
        methods: vec![],
        imported: true,
        instance_size: 0,
    });
    assert!(decode_module(&bytes, &host).is_err());
}

#[test]
fn size_report_sanity() {
    // Encoded size grows with program size but stays lean.
    let small = encode("class A { static int main() { return 1; } }").1;
    let large = encode(
        "class A { static int main() {
             int s = 0;
             for (int i = 0; i < 10; i++)
                 for (int j = 0; j < 10; j++)
                     if ((i ^ j) % 3 == 0) s += i * j; else s -= j;
             return s;
         } }",
    )
    .1;
    assert!(large.len() > small.len());
    assert!(
        small.len() < 400,
        "tiny program stays tiny: {}",
        small.len()
    );
}

/// A function section encoded standalone, decoded against a *fresh*
/// lowering's type table, spliced in, and re-encoded as part of the
/// whole module is byte-identical to encoding the original module —
/// the invariant the driver's incremental store reassembly relies on.
#[test]
fn function_section_splice_is_byte_identical() {
    use safetsa_codec::{decode_function_section, encode_function_section};
    let src = "class Shape {
        int w; int h;
        int area() { return w * h; }
        int perimeter() { return 2 * (w + h); }
        static int main() {
            Shape s = new Shape();
            s.w = 3; s.h = 4;
            int[] xs = new int[5];
            int acc = 0;
            for (int i = 0; i < 5; i++) { xs[i] = s.area() + i; }
            for (int i = 0; i < 5; i++) { if (xs[i] % 2 == 0) acc += xs[i]; }
            try { acc += 100 / (acc - acc); } catch (Throwable t) { acc += s.perimeter(); }
            return acc;
        }
    }";
    let prog = compile(src).expect("front-end");
    let fresh = lower_program(&prog).expect("lowering").module;
    let mut cold = fresh.clone();
    safetsa_opt::optimize_module(&mut cold);
    let cold_bytes = encode_module(&cold).expect("encodes");

    let mut warm = fresh;
    let sites: Vec<_> = warm
        .types
        .classes()
        .flat_map(|(cid, c)| {
            c.methods
                .iter()
                .enumerate()
                .filter_map(move |(mi, m)| m.body.map(|fid| (cid, mi, fid as usize)))
        })
        .collect();
    assert!(sites.len() >= 3, "multi-method fixture");
    for (cid, mi, fid) in sites {
        let (bytes, sec) =
            encode_function_section(&cold.types, &cold.functions[fid]).expect("section encodes");
        assert_eq!(sec.functions, 1);
        let f = decode_function_section(&bytes, &mut warm.types, cid, mi)
            .unwrap_or_else(|e| panic!("section decode failed: {e}"));
        warm.functions[fid] = f;
    }
    verify_module(&warm).expect("spliced module verifies");
    assert_eq!(
        encode_module(&warm).expect("encodes"),
        cold_bytes,
        "spliced re-encode differs from cold build"
    );
}
