//! Test support shared by `tests/optimizer_equivalence.rs` and
//! `tests/generative.rs`: a reference optimizer built only from the
//! public per-pass `run` functions, and the check that
//! `safetsa_opt::optimize_function` agrees with it.

use safetsa_core::instr::Instr;
use safetsa_core::{Function, Module, TypeTable};
use safetsa_opt::{checkelim, constprop, cse, dce, dse, loadfwd, OptStats, Passes};

/// The pass configurations the equivalence checks cover: everything
/// on (with either memory model), nothing on, each pass alone, and
/// each pass left out.
pub fn pass_configs() -> Vec<(String, Passes)> {
    type Toggle = fn(&mut Passes) -> &mut bool;
    let toggles: [(&str, Toggle); 6] = [
        ("constprop", |p| &mut p.constprop),
        ("cse", |p| &mut p.cse),
        ("checkelim", |p| &mut p.checkelim),
        ("loadfwd", |p| &mut p.loadfwd),
        ("dse", |p| &mut p.dse),
        ("dce", |p| &mut p.dce),
    ];
    let mut configs = vec![
        ("all".to_string(), Passes::ALL),
        ("all-field-mem".to_string(), Passes::ALL_FIELD_MEM),
        ("none".to_string(), Passes::NONE),
    ];
    for (name, toggle) in toggles {
        let mut only = Passes::NONE;
        *toggle(&mut only) = true;
        configs.push((format!("only-{name}"), only));
        let mut without = Passes::ALL;
        *toggle(&mut without) = false;
        configs.push((format!("all-minus-{name}"), without));
    }
    configs
}

fn count_checks(f: &Function) -> (usize, usize) {
    (
        f.count_instrs(|i| matches!(i, Instr::NullCheck { .. })),
        f.count_instrs(|i| matches!(i, Instr::IndexCheck { .. })),
    )
}

/// The optimizer as a plain loop: every enabled pass through its public
/// `run` (a fresh copy of the function and fresh analyses each time),
/// in pipeline order, for at most three rounds, stopping after a round
/// that removed nothing — the rule tsabench's traced replay mirrors.
pub fn reference_optimize(types: &TypeTable, f: &Function, passes: Passes) -> (Function, OptStats) {
    let (null_checks_before, index_checks_before) = count_checks(f);
    let mut s = OptStats {
        instrs_before: f.instr_count(),
        phis_before: f.phi_count(),
        null_checks_before,
        index_checks_before,
        ..OptStats::default()
    };
    let mut cur = f.clone();
    for _ in 0..3 {
        let mut removed = 0;
        if passes.constprop {
            let (g, n) = constprop::run(types, &cur);
            s.removed_by_constprop += n;
            removed += n;
            cur = g;
        }
        if passes.cse {
            let (g, n) = cse::run_with(types, &cur, passes.mem);
            s.removed_by_cse += n;
            removed += n;
            cur = g;
        }
        if passes.checkelim {
            let (g, ce) = checkelim::run(types, &cur);
            s.removed_by_checkelim += ce.removed();
            s.checkelim.add(&ce);
            removed += ce.removed();
            cur = g;
        }
        if passes.loadfwd {
            let (g, lf) = loadfwd::run(types, &cur);
            s.removed_by_loadfwd += lf.removed();
            s.loadfwd.add(&lf);
            removed += lf.removed();
            cur = g;
        }
        if passes.dse {
            let (g, ds) = dse::run(types, &cur);
            s.removed_by_dse += ds.removed();
            s.dse.add(&ds);
            removed += ds.removed();
            cur = g;
        }
        if passes.dce {
            let (g, n) = dce::run(&cur);
            s.removed_by_dce += n;
            removed += n;
            cur = g;
        }
        if removed == 0 {
            break;
        }
    }
    s.instrs_after = cur.instr_count();
    s.phis_after = cur.phi_count();
    (s.null_checks_after, s.index_checks_after) = count_checks(&cur);
    (cur, s)
}

/// Asserts that the in-place `optimize_function` (shared fact context,
/// clean-pass memo) returns, for every function of `m`, the same
/// function and the same [`OptStats`] as [`reference_optimize`].
/// Functions compare with [`Function::bit_eq`]: `PartialEq`, except
/// that a NaN constant equals itself.
pub fn assert_matches_reference(m: &Module, passes: Passes, what: &str) {
    for f in &m.functions {
        let (want, want_stats) = reference_optimize(&m.types, f, passes);
        let mut got = f.clone();
        let got_stats = safetsa_opt::optimize_function(&m.types, &mut got, passes);
        assert!(
            got.bit_eq(&want),
            "{what}: {} optimizes differently from the reference loop",
            f.name
        );
        assert_eq!(
            got_stats, want_stats,
            "{what}: {} has different OptStats from the reference loop",
            f.name
        );
    }
}
