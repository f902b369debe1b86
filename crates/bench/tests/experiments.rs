//! EXPERIMENTS.md quotes the table binaries' output; this keeps the
//! quotes true. Each of `fig5`, `fig6` and `ablation` is deterministic
//! (counts only), and its whole stdout must appear verbatim as one
//! fenced block of EXPERIMENTS.md. `verify_cost` prints wall-clock
//! times, so it stays out.

use std::process::Command;

/// The contents of every fenced code block, each line newline-terminated.
fn fenced_blocks(markdown: &str) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut open: Option<String> = None;
    for line in markdown.lines() {
        if line.starts_with("```") {
            match open.take() {
                Some(block) => blocks.push(block),
                None => open = Some(String::new()),
            }
        } else if let Some(block) = &mut open {
            block.push_str(line);
            block.push('\n');
        }
    }
    blocks
}

fn assert_quoted(bin: &str, exe: &str) {
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("table output is UTF-8");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
    let markdown = std::fs::read_to_string(path).expect("EXPERIMENTS.md readable");
    assert!(
        fenced_blocks(&markdown).contains(&stdout),
        "EXPERIMENTS.md has no fenced block equal to `{bin}`'s output; \
         regenerate it with `cargo run --release -p safetsa-bench --bin {bin}`:\n{stdout}"
    );
}

#[test]
fn fig5_output_is_quoted_verbatim() {
    assert_quoted("fig5", env!("CARGO_BIN_EXE_fig5"));
}

#[test]
fn fig6_output_is_quoted_verbatim() {
    assert_quoted("fig6", env!("CARGO_BIN_EXE_fig6"));
}

#[test]
fn ablation_output_is_quoted_verbatim() {
    assert_quoted("ablation", env!("CARGO_BIN_EXE_ablation"));
}
