//! End-to-end tests for the `safetsa` CLI binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_safetsa"))
}

#[test]
fn compile_and_run_round_trip() {
    let dir = std::env::temp_dir().join("safetsa-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Prog.java");
    let out = dir.join("prog.tsa");
    std::fs::write(
        &src,
        r#"class Prog {
               static int main() {
                   int s = 0;
                   for (int i = 1; i <= 4; i++) s += i * i;
                   Sys.println("s=" + s);
                   return s;
               }
           }"#,
    )
    .unwrap();
    let st = cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    assert!(out.exists());

    let run = cli()
        .args(["run", out.to_str().unwrap(), "--entry", "Prog.main"])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(stdout.contains("s=30"), "{stdout}");
    assert!(stdout.contains("=> I(30)"), "{stdout}");
}

#[test]
fn run_directly_from_source() {
    let dir = std::env::temp_dir().join("safetsa-cli-test2");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Direct.java");
    std::fs::write(&src, "class Direct { static int go() { return 6 * 7; } }").unwrap();
    let run = cli()
        .args(["run", src.to_str().unwrap(), "--entry", "Direct.go"])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(String::from_utf8_lossy(&run.stdout).contains("=> I(42)"));
}

#[test]
fn entry_with_parameters_is_a_load_error() {
    // An entry point runs with no arguments: one that takes a parameter
    // (or an instance method's receiver) exits 1 with an error line
    // instead of running on zero-filled slots or panicking.
    let dir = std::env::temp_dir().join("safetsa-cli-test-params");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Q.java");
    std::fs::write(
        &src,
        "class Q { int k; static int h(int x) { return x + 41; } int m() { return k + 1; } }",
    )
    .unwrap();
    for entry in ["Q.h", "Q.m"] {
        let run = cli()
            .args(["run", src.to_str().unwrap(), "--entry", entry])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "{entry}: {stderr}");
        assert!(
            stderr.contains(&format!("entry {entry} takes 1 parameter")),
            "{entry}: {stderr}"
        );
        assert!(!String::from_utf8_lossy(&run.stdout).contains("=>"));
    }
}

#[test]
fn stats_and_dump() {
    let dir = std::env::temp_dir().join("safetsa-cli-test3");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("S.java");
    std::fs::write(
        &src,
        "class S { int v; static int f(S s) { return s.v + s.v; } }",
    )
    .unwrap();
    let stats = cli()
        .args(["stats", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("SafeTSA"), "{text}");
    assert!(text.contains("checks"), "{text}");

    let dump = cli()
        .args(["dump", src.to_str().unwrap(), "--function", "S.f"])
        .output()
        .unwrap();
    assert!(dump.status.success());
    let text = String::from_utf8_lossy(&dump.stdout);
    assert!(text.contains("nullcheck"), "{text}");
    assert!(text.contains("getfield"), "{text}");
}

#[test]
fn compile_error_reported_cleanly() {
    let dir = std::env::temp_dir().join("safetsa-cli-test4");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Bad.java");
    std::fs::write(&src, "class Bad { int f() { return x; } }").unwrap();
    let out = dir.join("bad.tsa");
    let st = cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!st.status.success());
    let err = String::from_utf8_lossy(&st.stderr);
    assert!(err.contains("unknown name"), "{err}");
}

#[test]
fn usage_on_no_args() {
    let st = cli().output().unwrap();
    assert!(!st.status.success());
    assert!(String::from_utf8_lossy(&st.stderr).contains("usage"));
}

#[test]
fn analyze_clean_program_exits_zero() {
    let dir = std::env::temp_dir().join("safetsa-cli-test5");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Clean.java");
    std::fs::write(
        &src,
        "class Clean { static int main() {
             int[] a = new int[4];
             int s = 0;
             for (int i = 0; i < a.length; i++) { a[i] = i; s += a[i]; }
             return s;
         } }",
    )
    .unwrap();
    let st = cli()
        .args(["analyze", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    let text = String::from_utf8_lossy(&st.stdout);
    assert!(text.contains("0 errors"), "{text}");
}

#[test]
fn analyze_reports_always_null_deref_as_error() {
    let dir = std::env::temp_dir().join("safetsa-cli-test6");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Npe.java");
    // The dereference is outside any try, so it is an error and the
    // exit code is 1 (distinct from exit 2 for unbuildable input).
    std::fs::write(
        &src,
        "class Npe { static int main() { int[] x = null; return x[0]; } }",
    )
    .unwrap();
    let st = cli()
        .args(["analyze", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(st.status.code(), Some(1));
    let text = String::from_utf8_lossy(&st.stdout);
    assert!(text.contains("always-null-deref"), "{text}");
    assert!(text.contains("Npe.main"), "{text}");

    // JSON mode carries the same verdict, machine-readably.
    let js = cli()
        .args(["analyze", src.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert_eq!(js.status.code(), Some(1));
    let text = String::from_utf8_lossy(&js.stdout);
    assert!(text.contains("\"schema\": \"safetsa-analyze/1\""), "{text}");
    assert!(text.contains("\"kind\": \"always-null-deref\""), "{text}");
    assert!(text.contains("\"severity\": \"error\""), "{text}");
}

#[test]
fn analyze_reports_heap_lints_without_failing() {
    let dir = std::env::temp_dir().join("safetsa-cli-test-heap");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("Heap.java");
    // A never-read store to a non-escaping array, a load of a
    // never-written one, and a loop mutating one parameter while
    // reading another (may alias). All warnings/notes: exit 0.
    std::fs::write(
        &src,
        "class Cell { int v; }
         class Heap {
             static int churn(Cell a, Cell b, int n) {
                 int s = 0;
                 for (int i = 0; i < n; i++) { a.v = i; s = s + b.v; }
                 return s;
             }
             static int main() {
                 int[] dead = new int[4];
                 dead[0] = 7;
                 int[] zero = new int[4];
                 return zero[0];
             }
         }",
    )
    .unwrap();
    let st = cli()
        .args(["analyze", src.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        st.status.success(),
        "{}",
        String::from_utf8_lossy(&st.stderr)
    );
    let text = String::from_utf8_lossy(&st.stdout);
    assert!(text.contains("never-read-store"), "{text}");
    assert!(text.contains("never-written-load"), "{text}");
    assert!(text.contains("aliased-mutation-in-loop"), "{text}");
    assert!(text.contains("0 errors"), "{text}");

    let js = cli()
        .args(["analyze", src.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(js.status.success());
    let text = String::from_utf8_lossy(&js.stdout);
    assert!(text.contains("\"severity\": \"note\""), "{text}");
    assert!(text.contains("\"notes\": "), "{text}");
}

#[test]
fn verify_accepts_good_module_and_rejects_garbage() {
    let dir = std::env::temp_dir().join("safetsa-cli-test7");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join("V.java");
    let out = dir.join("v.tsa");
    std::fs::write(&src, "class V { static int main() { return 6 * 7; } }").unwrap();
    let st = cli()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            out.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(st.status.success());

    let ok = cli()
        .args(["verify", out.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );
    let text = String::from_utf8_lossy(&ok.stdout);
    assert!(text.contains("OK"), "{text}");
    assert!(text.contains("verified"), "{text}");

    let bad_path = dir.join("bad.tsa");
    std::fs::write(&bad_path, b"not a module").unwrap();
    let bad = cli()
        .args(["verify", bad_path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("safetsa:"));
}
