//! The in-place optimizer against a reference loop over the public
//! per-pass `run` functions, on every corpus program under every pass
//! configuration of [`common::pass_configs`]. The in-place loop shares
//! one fact context per function version and skips passes that
//! already ran clean; both must be invisible in the output and in the
//! statistics. The generated programs of `tests/generative.rs` get the
//! same check.

mod common;

#[test]
fn corpus_optimizes_like_the_reference_loop() {
    let configs = common::pass_configs();
    assert_eq!(configs.len(), 15);
    for entry in safetsa_bench::corpus() {
        let prog = safetsa_frontend::compile(entry.source)
            .unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        let lowered =
            safetsa_ssa::lower_program(&prog).unwrap_or_else(|e| panic!("{}: {e}", entry.name));
        for (cfg_name, passes) in &configs {
            common::assert_matches_reference(
                &lowered.module,
                *passes,
                &format!("{} [{cfg_name}]", entry.name),
            );
        }
    }
}
