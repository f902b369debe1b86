//! Dead code elimination: removes effect-free instructions whose
//! results are never used, and dead phis (transitively).
//!
//! Exceptional instructions (`nullcheck`, `indexcheck`, `upcast`,
//! `xprimitive`, calls) are never removed even when their results are
//! dead — their potential exception is an observable effect. Stores
//! and calls are effects and always stay.

use safetsa_core::function::Function;
use safetsa_core::rewrite::{compact, prune_phis, Rewrite};
use safetsa_core::value::{BlockId, ValueId};

/// Runs DCE to a fixpoint; returns the new function and the number of
/// instructions + phis removed.
pub fn run(f: &Function) -> (Function, usize) {
    let mut g = f.clone();
    let removed = apply(&mut g);
    (g, removed)
}

/// Runs DCE on `f` in place to a fixpoint; returns the number of
/// instructions + phis removed.
pub(crate) fn apply(f: &mut Function) -> usize {
    let mut total = 0;
    loop {
        // Dead instructions, then trivial- and dead-phi pruning
        // (Briggs et al.; the phi-count reductions of Figure 6 come
        // from here).
        let removed = run_once(f) + prune_phis(f);
        if removed == 0 {
            return total;
        }
        total += removed;
    }
}

fn run_once(f: &mut Function) -> usize {
    // Mark: roots are terminator uses, effects' operands, provenance.
    // Use counts and the dead marks are indexed by value id.
    let mut uses = vec![0u32; f.values.len()];
    let mut bump = |v: ValueId| uses[v.index()] += 1;
    for block in &f.blocks {
        for phi in &block.phis {
            for (_, v) in &phi.args {
                bump(*v);
            }
        }
        for instr in &block.instrs {
            for &v in instr.operands().iter() {
                bump(v);
            }
        }
    }
    f.body.walk(&mut |c| {
        use safetsa_core::cst::Cst;
        match c {
            Cst::If { cond, .. } => bump(*cond),
            Cst::Return(Some(v)) | Cst::Throw(v) => bump(*v),
            _ => {}
        }
    });
    for info in &f.values {
        if let Some(p) = info.provenance {
            bump(p);
        }
    }

    // Sweep: iteratively find dead values (count 0, or only used by
    // other dead values).
    let mut dead = vec![false; f.values.len()];
    let mut rw = Rewrite::default();
    let mut changed = true;
    while changed {
        changed = false;
        for (bi, block) in f.blocks.iter().enumerate() {
            let b = BlockId(bi as u32);
            for (k, instr) in block.instrs.iter().enumerate() {
                let Some(result) = f.instr_result(b, k) else {
                    continue;
                };
                if dead[result.index()] || !instr.is_pure() {
                    continue;
                }
                if uses[result.index()] == 0 {
                    dead[result.index()] = true;
                    rw.delete_instrs.push((b, k));
                    changed = true;
                    for &v in instr.operands().iter() {
                        uses[v.index()] -= 1;
                    }
                }
            }
            for (k, phi) in block.phis.iter().enumerate() {
                let result = f.phi_result(b, k);
                if dead[result.index()] {
                    continue;
                }
                // A phi used only by itself (self-loop) with no other
                // uses is dead too.
                let self_uses = phi.args.iter().filter(|(_, v)| *v == result).count();
                if uses[result.index()] as usize == self_uses {
                    dead[result.index()] = true;
                    rw.delete_phis.push((b, k));
                    changed = true;
                    for (_, v) in &phi.args {
                        uses[v.index()] -= 1;
                    }
                }
            }
        }
    }
    let removed = rw.delete_instrs.len() + rw.delete_phis.len();
    if removed > 0 {
        compact(f, &rw);
    }
    removed
}
