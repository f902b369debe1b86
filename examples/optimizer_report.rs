//! Producer-side optimization close-up: shows a function before and
//! after constprop + CSE(Mem) + DCE, with the eliminated null checks
//! the format then transports tamper-proof (§8's headline capability).
//!
//! ```sh
//! cargo run --example optimizer_report
//! ```

use safetsa_core::pretty;
use safetsa_opt::{optimize_function, Passes};

const SOURCE: &str = r#"
class Point {
    int x; int y;
}
class Geometry {
    static int manhattan(Point p, Point q) {
        // p and q are each dereferenced multiple times: the naive
        // SafeTSA form null-checks every access; CSE keeps one check
        // per object and reuses the safe-ref value.
        int dx = p.x - q.x;
        int dy = p.y - q.y;
        int c = 2 + 3;
        return (dx < 0 ? -dx : dx) + (dy < 0 ? -dy : dy) + c - 5;
    }
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prog = safetsa_frontend::compile(SOURCE)?;
    let lowered = safetsa_ssa::lower_program(&prog)?;
    let module = lowered.module;
    let fid = module
        .find_function("Geometry.manhattan")
        .expect("function exists");
    let f = module.function(fid);

    println!("=== before optimization ===");
    print!("{}", pretty::safetsa(&module.types, f));
    println!();

    let mut g = f.clone();
    let stats = optimize_function(&module.types, &mut g, Passes::ALL);
    println!("=== after constprop + CSE(Mem) + DCE ===");
    print!("{}", pretty::safetsa(&module.types, &g));
    println!();

    println!("=== statistics ===");
    println!(
        "instructions: {} -> {}",
        stats.instrs_before, stats.instrs_after
    );
    println!(
        "null checks:  {} -> {}   (transported tamper-proof!)",
        stats.null_checks_before, stats.null_checks_after
    );
    println!(
        "removed by:   constprop {}, cse {}, dce {}",
        stats.removed_by_constprop, stats.removed_by_cse, stats.removed_by_dce
    );
    Ok(())
}
