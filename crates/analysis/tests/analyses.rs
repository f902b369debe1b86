//! Behavioural tests for the sparse dataflow analyses and the linter,
//! driven through the real frontend + SSA construction pipeline.

use safetsa_analysis::{lint_function, lint_module, Liveness, Nullity, Severity};
use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::value::BlockId;
use safetsa_core::Module;

fn build(src: &str) -> Module {
    let prog = safetsa_frontend::compile(src).expect("front-end");
    safetsa_ssa::lower_program(&prog).expect("lowering").module
}

fn func<'m>(m: &'m Module, name: &str) -> &'m Function {
    m.functions
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no function {name}"))
}

/// Every `(block, index, instr)` site matching `pred`.
fn find_sites(f: &Function, pred: impl Fn(&Instr) -> bool) -> Vec<(BlockId, usize, &Instr)> {
    let mut out = Vec::new();
    for (bi, block) in f.blocks.iter().enumerate() {
        for (k, i) in block.instrs.iter().enumerate() {
            if pred(i) {
                out.push((BlockId(bi as u32), k, i));
            }
        }
    }
    out
}

#[test]
fn nullness_proves_fresh_allocation_nonnull() {
    let m = build(
        "class P { int x;
             static int g() { P q = new P(); return q.x; }
         }",
    );
    let f = func(&m, "P.g");
    let cfg = Cfg::build(f).unwrap();
    let nn = safetsa_analysis::nullness::analyze(&m.types, f, &cfg);
    let checks = find_sites(f, |i| matches!(i, Instr::NullCheck { .. }));
    assert!(!checks.is_empty(), "expected a nullcheck in P.g");
    for (b, _, i) in checks {
        let Instr::NullCheck { value, .. } = i else {
            unreachable!()
        };
        assert_eq!(
            nn.at(*value, b),
            Nullity::NonNull,
            "fresh allocation should be provably non-null"
        );
    }
    assert!(nn.facts_computed() > 0);
    assert!(nn.iterations >= 1);
}

#[test]
fn nullness_proves_null_literal_null() {
    let m = build("class A { static int g() { int[] x = null; return x[0]; } }");
    let f = func(&m, "A.g");
    let cfg = Cfg::build(f).unwrap();
    let nn = safetsa_analysis::nullness::analyze(&m.types, f, &cfg);
    let checks = find_sites(f, |i| matches!(i, Instr::NullCheck { .. }));
    assert_eq!(checks.len(), 1);
    let (b, _, Instr::NullCheck { value, .. }) = checks[0] else {
        unreachable!()
    };
    assert_eq!(nn.at(*value, b), Nullity::Null);
}

#[test]
fn range_proves_loop_index_in_bounds() {
    let m = build(
        "class A { static int sum(int[] a) {
             int s = 0;
             for (int i = 0; i < a.length; i++) s += a[i];
             return s;
         } }",
    );
    let f = func(&m, "A.sum");
    let cfg = Cfg::build(f).unwrap();
    let rg = safetsa_analysis::range::analyze(&m.types, f, &cfg);
    let checks = find_sites(f, |i| matches!(i, Instr::IndexCheck { .. }));
    assert_eq!(checks.len(), 1, "one bounds check in the loop body");
    let (b, _, Instr::IndexCheck { array, index, .. }) = checks[0] else {
        unreachable!()
    };
    assert!(
        rg.proves_index(&m.types, f, b, *array, *index),
        "i in [0, a.length) should be provably in bounds"
    );
    assert!(rg.facts_computed() > 0);
}

#[test]
fn range_flags_constant_out_of_bounds() {
    let m = build("class A { static int g() { int[] a = new int[2]; return a[5]; } }");
    let f = func(&m, "A.g");
    let cfg = Cfg::build(f).unwrap();
    let rg = safetsa_analysis::range::analyze(&m.types, f, &cfg);
    let checks = find_sites(f, |i| matches!(i, Instr::IndexCheck { .. }));
    assert_eq!(checks.len(), 1);
    let (b, _, Instr::IndexCheck { array, index, .. }) = checks[0] else {
        unreachable!()
    };
    assert!(rg.always_out_of_bounds(&m.types, f, b, *array, *index));
    assert!(!rg.proves_index(&m.types, f, b, *array, *index));
}

#[test]
fn liveness_kills_unused_pure_values() {
    let m = build(
        "class A { static int g(int x) {
             int unused = x * x;
             return x + 1;
         } }",
    );
    let f = func(&m, "A.g");
    let cfg = Cfg::build(f).unwrap();
    let lv: Liveness = safetsa_analysis::liveness::analyze(f, &cfg);
    // The multiply feeding only `unused` is dead; the add is live.
    let mut saw_dead_mul = false;
    for (b, k, i) in find_sites(f, |i| matches!(i, Instr::Primitive { .. })) {
        let r = f.instr_result(b, k).unwrap();
        let name = i.mnemonic();
        let _ = name;
        if !lv.is_live(r) {
            saw_dead_mul = true;
        }
    }
    assert!(saw_dead_mul, "the unused multiply should be dead");
    assert!(lv.live_count() > 0);
}

#[test]
fn lint_reports_always_null_deref_as_error() {
    let m = build("class A { static int g() { int[] x = null; return x[0]; } }");
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "always-null-deref")
        .expect("always-null-deref diagnostic");
    assert_eq!(hit.severity, Severity::Error);
    assert_eq!(hit.function, "A.g");
    assert!(hit.instr.is_some());
}

#[test]
fn lint_downgrades_trap_inside_try_to_warning() {
    let m = build(
        "class A { static int g() {
             int[] x = null;
             try { return x[0]; }
             catch (NullPointerException e) { return -1; }
         } }",
    );
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "always-null-deref")
        .expect("always-null-deref diagnostic");
    assert_eq!(
        hit.severity,
        Severity::Warning,
        "provable trap inside try is intentional-looking; warn only"
    );
}

#[test]
fn lint_reports_out_of_bounds_index() {
    let m = build("class A { static int g() { int[] a = new int[3]; return a[7]; } }");
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "out-of-bounds-index")
        .expect("out-of-bounds-index diagnostic");
    assert_eq!(hit.severity, Severity::Error);
}

#[test]
fn lint_reports_dead_store() {
    let m = build(
        "class Box { int v;
             static int g() {
                 Box b = new Box();
                 b.v = 1;
                 b.v = 2;
                 return b.v;
             }
         }",
    );
    let diags = lint_module(&m);
    assert!(
        diags.iter().any(|d| d.kind == "dead-store"),
        "overwritten b.v = 1 should be a dead store: {diags:?}"
    );
}

#[test]
fn lint_reports_constant_branch_and_unreachable_code() {
    let m = build(
        "class A { static int g(int x) {
             if (2 < 1) { return x * 100; }
             return x;
         } }",
    );
    let f = func(&m, "A.g");
    let diags = lint_function(&m.types, f);
    assert!(
        diags.iter().any(|d| d.kind == "constant-branch"),
        "{diags:?}"
    );
    assert!(
        diags.iter().any(|d| d.kind == "unreachable-code"),
        "{diags:?}"
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Warning));
}

#[test]
fn lint_reports_unused_value() {
    let m = build(
        "class A { static int g(int x) {
             int unused = x * x;
             return x;
         } }",
    );
    let diags = lint_module(&m);
    assert!(diags.iter().any(|d| d.kind == "unused-value"), "{diags:?}");
}

#[test]
fn lint_reports_never_read_store_on_non_escaping_array() {
    let m = build(
        "class A { static int g() {
             int[] scratch = new int[4];
             scratch[0] = 7;
             return 1;
         } }",
    );
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "never-read-store")
        .expect("never-read-store diagnostic");
    assert_eq!(hit.severity, Severity::Warning);
    assert_eq!(hit.function, "A.g");
}

#[test]
fn lint_reports_never_written_load() {
    let m = build(
        "class A { static int g() {
             int[] zero = new int[4];
             return zero[0];
         } }",
    );
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "never-written-load")
        .expect("never-written-load diagnostic");
    assert_eq!(hit.severity, Severity::Warning);
}

#[test]
fn lint_notes_aliased_mutation_in_loop() {
    let m = build(
        "class Cell { int v; }
         class A { static int g(Cell a, Cell b, int n) {
             int s = 0;
             for (int i = 0; i < n; i++) { a.v = i; s = s + b.v; }
             return s;
         } }",
    );
    let diags = lint_module(&m);
    let hit = diags
        .iter()
        .find(|d| d.kind == "aliased-mutation-in-loop")
        .expect("aliased-mutation-in-loop diagnostic");
    assert_eq!(hit.severity, Severity::Note);
    assert_eq!(hit.function, "A.g");
}

#[test]
fn lint_loop_note_respects_escape_lemma() {
    // The store goes through a non-escaping scratch array; the load
    // goes through the external parameter. By the escape lemma they
    // cannot alias, so no note must be emitted.
    let m = build(
        "class A { static int g(int[] img) {
             int[] tmp = new int[img.length];
             int s = 0;
             for (int i = 0; i < img.length; i++) { tmp[i] = img[i]; s = s + tmp[i]; }
             return s;
         } }",
    );
    let diags = lint_module(&m);
    assert!(
        diags.iter().all(|d| d.kind != "aliased-mutation-in-loop"),
        "non-escaping scratch cannot alias the parameter: {diags:?}"
    );
}

#[test]
fn lint_is_quiet_on_clean_code() {
    let m = build(
        "class A { static int sum(int[] a) {
             int s = 0;
             for (int i = 0; i < a.length; i++) s += a[i];
             return s;
         }
         static int main() {
             int[] a = new int[10];
             for (int i = 0; i < a.length; i++) a[i] = i;
             return sum(a);
         } }",
    );
    let diags = lint_module(&m);
    assert!(
        diags.iter().all(|d| d.severity != Severity::Error),
        "clean code must produce no error diagnostics: {diags:?}"
    );
}
