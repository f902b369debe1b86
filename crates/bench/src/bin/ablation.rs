//! §8's pass-contribution breakdown: the paper attributes 1–2% of the
//! size improvement to constant propagation, 3–7% to dead-code
//! elimination (mostly phis), and 5–14% to CSE. This harness runs each
//! pass configuration over the corpus and reports the instruction-count
//! reduction each pass is responsible for.

use safetsa_core::verify::verify_module;
use safetsa_opt::Passes;
use safetsa_ssa::lower_program;
use safetsa_telemetry::Telemetry;

fn count(m: &safetsa_core::Module) -> usize {
    m.instr_count() + m.phi_count()
}

/// A configuration with exactly one pass enabled.
fn only(set: impl Fn(&mut Passes)) -> Passes {
    let mut p = Passes::NONE;
    set(&mut p);
    p
}

fn main() {
    let configs: &[(&str, Passes)] = &[
        ("constprop", only(|p| p.constprop = true)),
        ("cse", only(|p| p.cse = true)),
        ("checkelim", only(|p| p.checkelim = true)),
        ("loadfwd", only(|p| p.loadfwd = true)),
        ("dse", only(|p| p.dse = true)),
        ("dce", only(|p| p.dce = true)),
        ("all", Passes::ALL),
        ("all+fieldmem", Passes::ALL_FIELD_MEM),
    ];
    println!("Pass ablation over the corpus (instruction+phi counts)");
    println!();
    let width = |name: &str| name.len().max(8);
    print!("{:<14} {:>8}", "Program", "base");
    for (name, _) in configs {
        print!(" {name:>w$}", w = width(name));
    }
    println!();
    let mut totals = vec![0usize; configs.len() + 1];
    for entry in safetsa_bench::corpus() {
        let prog = safetsa_frontend::compile(entry.source).expect("front-end");
        let lowered = lower_program(&prog).expect("lowering");
        let base = count(&lowered.module);
        let mut row = vec![base];
        for (_, passes) in configs {
            let mut m = lowered.module.clone();
            safetsa_opt::optimize(&mut m, *passes, &Telemetry::disabled());
            verify_module(&m).expect("verifies");
            row.push(count(&m));
        }
        print!("{:<14} {:>8}", entry.name, row[0]);
        for ((name, _), v) in configs.iter().zip(&row[1..]) {
            print!(" {v:>w$}", w = width(name));
        }
        println!();
        for (t, v) in totals.iter_mut().zip(&row) {
            *t += v;
        }
    }
    println!();
    let base = totals[0] as f64;
    println!("reduction vs baseline (paper: constprop 1-2%, dce 3-7%, cse 5-14%):");
    for (i, (name, _)) in configs.iter().enumerate() {
        println!(
            "  {:<12} -{:.1}%",
            name,
            100.0 * (totals[0] - totals[i + 1]) as f64 / base
        );
    }
}
