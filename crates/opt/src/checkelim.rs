//! Analysis-driven check elimination — beyond what CSE can reach.
//!
//! CSE removes a `nullcheck`/`indexcheck` only when an *identical
//! dominating check* exists. This pass consumes the sparse dataflow
//! facts from `safetsa-analysis` to go further:
//!
//! * **`nullcheck` → `downcast`**: when the checked reference provably
//!   carries a *safe-plane witness* — chasing its definition through
//!   the reference-preserving casts reaches a value `w` on a
//!   `safe-ref` plane whose downcast to the check's result plane is
//!   statically safe — the check is rewritten **in place** into
//!   `downcast safe-ref(A) → safe-ref(B) w`. The result keeps its
//!   value id, plane, and def site, so no renumbering is needed, and
//!   the downcast generates no target-machine code. This removes the
//!   *first* check of a freshly allocated object (`X a = new X();
//!   a.f…`), which CSE never can — there is no dominating check to
//!   reuse.
//! * **dead proven `indexcheck` deletion**: DCE refuses to delete
//!   exceptional instructions — their potential trap is observable.
//!   When range analysis proves the check *cannot* trap
//!   (`0 ≤ index < length(array)`) and liveness proves its result
//!   cannot influence behaviour, the trap is no longer observable and
//!   the instruction is deleted outright.
//!
//! `indexcheck`s with *live* results are never rewritten even when
//! proven in bounds: the format deliberately has no `int → safe-index`
//! coercion (a producer-asserted bounds fact the consumer cannot
//! recheck cheaply must not ride the wire), so a live safe-index value
//! can only be produced by a real check. Proven-but-kept checks are
//! still counted (`index_proven`) for the paper's telemetry.
//!
//! Exception-edge bookkeeping mirrors CSE's: removing a check removes
//! its exception edge, so a handler's *last* incoming edge is never
//! removed (the rewrite is skipped), and dangling phi arguments are
//! pruned afterwards.

use crate::facts::{with_facts, Facts};
use crate::fixup;
use safetsa_analysis::{liveness, nullness, range, Nullity};
use safetsa_core::function::Function;
use safetsa_core::instr::Instr;
use safetsa_core::rewrite::{compact, Rewrite};
use safetsa_core::types::{TypeId, TypeTable};
use safetsa_core::typing;
use safetsa_core::value::{BlockId, Def, ValueId};
use std::collections::HashMap;

/// Per-function statistics of one check-elimination run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckElimStats {
    /// `nullcheck`s rewritten into safe downcasts.
    pub null_converted: usize,
    /// Proven-in-bounds `indexcheck`s with dead results, deleted.
    pub index_deleted: usize,
    /// `nullcheck`s whose operand is proven non-null at the check site.
    pub null_proven: usize,
    /// `indexcheck`s proven in bounds at the check site.
    pub index_proven: usize,
    /// Nullness facts computed (values with a fact).
    pub nullness_facts: u64,
    /// Range facts computed.
    pub range_facts: u64,
    /// Nullness fixpoint passes.
    pub nullness_iterations: u64,
    /// Range fixpoint passes.
    pub range_iterations: u64,
}

impl CheckElimStats {
    /// Accumulates another run's statistics.
    pub fn add(&mut self, o: &CheckElimStats) {
        self.null_converted += o.null_converted;
        self.index_deleted += o.index_deleted;
        self.null_proven += o.null_proven;
        self.index_proven += o.index_proven;
        self.nullness_facts += o.nullness_facts;
        self.range_facts += o.range_facts;
        self.nullness_iterations += o.nullness_iterations;
        self.range_iterations += o.range_iterations;
    }

    /// Total instructions removed or rewritten away.
    pub fn removed(&self) -> usize {
        self.null_converted + self.index_deleted
    }
}

/// Chases `value` through the reference-preserving casts to a value on
/// a `safe-ref` plane that can be safely downcast to `target` — the
/// non-null witness justifying a `nullcheck` rewrite.
fn safe_witness(
    types: &TypeTable,
    f: &Function,
    value: ValueId,
    target: TypeId,
) -> Option<ValueId> {
    let mut w = value;
    loop {
        let ty = f.value_ty(w);
        if types.is_safe_ref(ty) && typing::downcast_is_safe(types, ty, target) {
            return Some(w);
        }
        let Def::Instr(b, k) = f.value(w).def else {
            return None;
        };
        match &f.block(b).instrs[k as usize] {
            // Casts forward the same reference; `upcast` may trap, but
            // it stays in the program, so its trap is preserved — only
            // the reference identity matters here.
            Instr::Downcast { value, .. } | Instr::Upcast { value, .. } => w = *value,
            _ => return None,
        }
    }
}

/// Runs check elimination over `f`; returns the new function and the
/// run's statistics.
pub fn run(types: &TypeTable, f: &Function) -> (Function, CheckElimStats) {
    let mut g = f.clone();
    let stats = with_facts(|facts| apply(types, &mut g, facts));
    (g, stats)
}

/// Runs check elimination on `f` in place, reading the CFG and the
/// exception-edge map from `facts`; returns the run's statistics.
pub(crate) fn apply(types: &TypeTable, f: &mut Function, facts: &mut Facts) -> CheckElimStats {
    let mut stats = CheckElimStats::default();
    let Some(cfg) = facts.cfg(f) else {
        return stats;
    };
    let nn = nullness::analyze(types, f, cfg);
    let rg = range::analyze(types, f, cfg);
    // Liveness only decides phase 2's indexcheck deletions. Like the
    // other facts it describes the function before phase 1 rewrites it.
    let lv = (f.count_instrs(|i| matches!(i, Instr::IndexCheck { .. })) > 0)
        .then(|| liveness::analyze(f, cfg));
    stats.nullness_facts = nn.facts_computed();
    stats.range_facts = rg.facts_computed();
    stats.nullness_iterations = nn.iterations;
    stats.range_iterations = rg.iterations;

    // Protect handlers from losing their last exception edge (shared
    // bookkeeping with CSE): each removed check takes its edge along.
    let exc_targets = facts.exception_targets(f, cfg);
    let mut edges_per_handler: HashMap<BlockId, usize> = HashMap::new();
    for h in exc_targets.values() {
        *edges_per_handler.entry(*h).or_insert(0) += 1;
    }
    let mut take_edge = |b: BlockId, k: usize| -> bool {
        match exc_targets.get(&(b, k)) {
            Some(h) => {
                let cnt = edges_per_handler.get_mut(h).expect("edge counted");
                if *cnt <= 1 {
                    return false;
                }
                *cnt -= 1;
                true
            }
            None => true,
        }
    };

    let mut edges_removed = false;

    // Phase 1: nullcheck → downcast, in place (value ids unchanged).
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        for k in 0..f.block(b).instrs.len() {
            let Instr::NullCheck { value, .. } = f.block(b).instrs[k] else {
                continue;
            };
            if nn.at(value, b) == Nullity::NonNull {
                stats.null_proven += 1;
            }
            let Some(result) = f.instr_result(b, k) else {
                continue;
            };
            let target = f.value_ty(result);
            let Some(w) = safe_witness(types, f, value, target) else {
                continue;
            };
            if !take_edge(b, k) {
                continue;
            }
            let from = f.value_ty(w);
            f.blocks[bi].instrs[k] = Instr::Downcast {
                from,
                to: target,
                value: w,
            };
            stats.null_converted += 1;
            edges_removed = true;
        }
    }

    // Phase 2: delete proven-in-bounds indexchecks with dead results.
    // Deletion needs *zero remaining references* (compact's contract);
    // liveness tells us the result is semantically dead, and the DCE
    // iterations of the pass pipeline strip any dead pure users so a
    // later round can finish the job. The use counts are taken after
    // phase 1, on first need.
    let mut uses: Option<Vec<u32>> = None;
    let mut rw = Rewrite::default();
    for bi in 0..f.blocks.len() {
        let b = BlockId(bi as u32);
        for k in 0..f.block(b).instrs.len() {
            let Instr::IndexCheck { array, index, .. } = f.block(b).instrs[k] else {
                continue;
            };
            if !rg.proves_index(types, f, b, array, index) {
                continue;
            }
            stats.index_proven += 1;
            let dead = match f.instr_result(b, k) {
                Some(r) => {
                    lv.as_ref().is_some_and(|lv| !lv.is_live(r))
                        && uses.get_or_insert_with(|| count_uses(f))[r.index()] == 0
                }
                None => true,
            };
            if !dead || !take_edge(b, k) {
                continue;
            }
            rw.delete_instrs.push((b, k));
            stats.index_deleted += 1;
            edges_removed = true;
        }
    }
    if !rw.is_empty() {
        compact(f, &rw);
    }
    if edges_removed {
        // Removed checks took their exception edges with them: drop
        // the now-dangling handler phi arguments.
        fixup::prune_phi_args(f, facts);
    }
    stats
}

/// Syntactic use counts per value id: operands, phi arguments, CST
/// terminator uses, and provenance links (same roots as DCE's mark
/// phase).
fn count_uses(f: &Function) -> Vec<u32> {
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
    uses
}
