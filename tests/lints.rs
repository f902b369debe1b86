//! The linter's corpus output is pinned: every diagnostic `lint_module`
//! reports on the 21 corpus programs, unoptimized, exactly the module
//! `safetsa analyze` lints. A change to an analysis, to the linter, or
//! to a rule the linter shares with the optimizer (dead-store
//! elimination's never-read rule) cannot move a diagnostic silently.
//! Regenerate only for an intentional change of lint output, with
//! `UPDATE_GOLDEN=1 cargo test --test lints`.

use safetsa_driver::Pipeline;
use std::fmt::Write;
use std::path::PathBuf;

#[test]
fn corpus_lints_match_the_golden() {
    let pipeline = Pipeline::new().no_optimize();
    let mut actual = String::new();
    for entry in safetsa_bench::corpus() {
        let module = pipeline
            .compile_source(entry.source)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        for d in safetsa_analysis::lint_module(&module) {
            let site = match d.instr {
                Some(i) => format!("{} instr {i}", d.block),
                None => format!("{}", d.block),
            };
            writeln!(
                actual,
                "{}: {}: {} {site}: [{}] {}",
                entry.name,
                d.severity.name(),
                d.function,
                d.kind,
                d.message
            )
            .unwrap();
        }
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corpus_lints.txt");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        expected,
        actual,
        "corpus lints drifted from {}",
        path.display()
    );
}
