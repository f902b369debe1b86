//! Post-pass CFG/phi fix-up: after deleting exceptional instructions,
//! some exception edges disappear and handler phis must drop the
//! corresponding arguments.

use safetsa_core::cfg::{Cfg, EdgeKind};
use safetsa_core::function::Function;
use safetsa_core::value::BlockId;
use std::collections::{HashMap, HashSet};

/// Retains only phi arguments whose predecessor edge still exists.
/// Call after a rewrite that deleted exceptional instructions.
pub fn prune_phi_args(f: &mut Function) {
    let cfg = match Cfg::build(f) {
        Ok(c) => c,
        Err(_) => return, // verification will report it
    };
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        if f.blocks[bi].phis.is_empty() {
            continue;
        }
        let preds: HashSet<BlockId> = cfg.preds_of(b).iter().map(|e| e.from).collect();
        for phi in &mut f.blocks[bi].phis {
            phi.args.retain(|(p, _)| preds.contains(p));
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
