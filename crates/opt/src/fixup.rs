//! Post-pass CFG/phi fix-up: after deleting exceptional instructions,
//! some exception edges disappear and handler phis must drop the
//! corresponding arguments.

use crate::facts::Facts;
use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::function::Function;
use safetsa_core::value::BlockId;
use std::collections::HashMap;

/// Retains only phi arguments whose predecessor edge still exists.
/// Call after a rewrite that deleted exceptional instructions; `facts`
/// is invalidated first, and afterwards holds the rewritten function's
/// CFG (pruning phi arguments leaves the CFG as it is).
pub(crate) fn prune_phi_args(f: &mut Function, facts: &mut Facts) {
    facts.invalidate();
    let Some(cfg) = facts.cfg(f) else {
        return; // verification will report it
    };
    for (bi, block) in f.blocks.iter_mut().enumerate() {
        let preds = cfg.preds_of(BlockId(bi as u32));
        for phi in &mut block.phis {
            phi.args.retain(|(p, _)| preds.iter().any(|e| e.from == *p));
        }
    }
}

/// Maps each `(block, instr index)` of an exceptional instruction to
/// its handler-entry block, if the instruction sits in a `try` region.
pub fn exception_targets(f: &Function, cfg: &Cfg) -> HashMap<(BlockId, usize), BlockId> {
    let mut out = HashMap::new();
    for bi in 0..f.blocks.len() {
        let h = BlockId(bi as u32);
        for e in cfg.preds_of(h) {
            if let EdgeKind::Exception { upto } = e.kind {
                // The edge's source instruction is the exceptional
                // instruction at index `upto` (or a throw terminator
                // when upto equals the instruction count).
                let idx = upto as usize;
                if idx < f.block(e.from).instrs.len() {
                    out.insert((e.from, idx), h);
                }
            }
        }
    }
    out
}
