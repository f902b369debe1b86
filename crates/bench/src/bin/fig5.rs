//! Regenerates Figure 5: per-program file sizes and instruction counts
//! for Java bytecode, SafeTSA, and optimized SafeTSA.
//!
//! The paper's absolute numbers come from the Sun JDK sources; this
//! corpus substitutes open workloads from the same categories (see
//! DESIGN.md), so the claim being reproduced is the *shape*: SafeTSA
//! carries fewer instructions than bytecode, optimization shaves >10%
//! off the instruction count, and encoded SafeTSA is no more
//! voluminous than class files. The paper's "less than 40% of the
//! bytecode count in most rows" is not expected to hold exactly here:
//! these SafeTSA counts include every explicit null and index check.

use safetsa_bench::{corpus, measure};

fn main() {
    println!("Figure 5: SafeTSA class files compared to Java class files");
    println!();
    let groups = format!(
        "{:<14} | {:^29} | {:^29}",
        "", "-- file size (bytes) --", "-- instructions --"
    );
    println!("{}", groups.trim_end());
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Class Name", "Bytecode", "SafeTSA", "TSA-opt", "Bytecode", "SafeTSA", "TSA-opt"
    );
    let rule = "-".repeat(14 + 2 * (3 + 29));
    println!("{rule}");
    let mut tot = [0usize; 6];
    for entry in corpus() {
        let m = measure(&entry);
        println!(
            "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            m.name,
            m.bytecode_size,
            m.safetsa_size,
            m.safetsa_opt_size,
            m.bytecode_instrs,
            m.safetsa_instrs,
            m.safetsa_opt_instrs
        );
        tot[0] += m.bytecode_size;
        tot[1] += m.safetsa_size;
        tot[2] += m.safetsa_opt_size;
        tot[3] += m.bytecode_instrs;
        tot[4] += m.safetsa_instrs;
        tot[5] += m.safetsa_opt_instrs;
    }
    println!("{rule}");
    println!(
        "{:<14} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "TOTAL", tot[0], tot[1], tot[2], tot[3], tot[4], tot[5]
    );
    println!();
    println!(
        "SafeTSA instructions vs bytecode: {:.1}% (optimized: {:.1}%)",
        100.0 * tot[4] as f64 / tot[3] as f64,
        100.0 * tot[5] as f64 / tot[3] as f64
    );
    println!(
        "SafeTSA size vs class files:      {:.1}% (optimized: {:.1}%)",
        100.0 * tot[1] as f64 / tot[0] as f64,
        100.0 * tot[2] as f64 / tot[0] as f64
    );
    println!(
        "optimization instruction shave:   {:.1}%",
        100.0 * (tot[4] - tot[5]) as f64 / tot[4] as f64
    );
}
