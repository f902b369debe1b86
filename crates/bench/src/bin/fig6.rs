//! Regenerates Figure 6: phi-, null-check, and array-check
//! instructions before and after producer-side optimization, plus the
//! §7 construction-time phi-pruning statistic (~31% in the paper).

use safetsa_bench::{corpus, delta_pct, measure};

fn pct(d: Option<i64>) -> String {
    match d {
        Some(v) => format!("{v}"),
        None => "N/A".to_string(),
    }
}

fn main() {
    println!("Figure 6: Phi-, Null-Check and Array-Check instructions");
    println!("         before and after producer-side optimization");
    println!();
    let groups = format!(
        "{:<14} | {:^19} | {:^19} | {:^19}",
        "", "Phi Instr", "Null-Checks", "Array-Checks"
    );
    println!("{}", groups.trim_end());
    println!(
        "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
        "Class Name", "Before", "After", "d%", "Before", "After", "d%", "Before", "After", "d%"
    );
    let rule = "-".repeat(14 + 3 * (3 + 19));
    println!("{rule}");
    let mut tot = [0usize; 6];
    let mut pruning = (0usize, 0usize);
    for entry in corpus() {
        let m = measure(&entry);
        let o = &m.opt;
        println!(
            "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
            m.name,
            o.phis_before,
            o.phis_after,
            pct(delta_pct(o.phis_before, o.phis_after)),
            o.null_checks_before,
            o.null_checks_after,
            pct(delta_pct(o.null_checks_before, o.null_checks_after)),
            o.index_checks_before,
            o.index_checks_after,
            pct(delta_pct(o.index_checks_before, o.index_checks_after)),
        );
        tot[0] += o.phis_before;
        tot[1] += o.phis_after;
        tot[2] += o.null_checks_before;
        tot[3] += o.null_checks_after;
        tot[4] += o.index_checks_before;
        tot[5] += o.index_checks_after;
        pruning.0 += m.construction.phis_candidate;
        pruning.1 += m.construction.phis_inserted;
    }
    println!("{rule}");
    println!(
        "{:<14} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5} | {:>6} {:>6} {:>5}",
        "TOTAL",
        tot[0],
        tot[1],
        pct(delta_pct(tot[0], tot[1])),
        tot[2],
        tot[3],
        pct(delta_pct(tot[2], tot[3])),
        tot[4],
        tot[5],
        pct(delta_pct(tot[4], tot[5])),
    );
    println!();
    println!(
        "construction-time phi avoidance (the paper's ~31%): naive {} -> placed {} ({}%)",
        pruning.0,
        pruning.1,
        pct(delta_pct(pruning.0, pruning.1))
    );
}
