//! Liveness: which SSA values can influence observable behaviour.
//!
//! The backward instance of the framework: roots are the function's
//! observable uses (branch conditions, return/throw operands), and
//! each instruction propagates demand to its operands — effectful
//! instructions (stores, calls, exceptional checks) demand their
//! operands unconditionally, pure ones only when their own result is
//! demanded. A live safe-index value also keeps its provenance array
//! alive, mirroring the verifier's provenance discipline.
//!
//! `crates/opt`'s DCE consumes the complement (dead pure values); the
//! `checkelim` pass sharpens it further by deleting *exceptional*
//! checks whose results are dead once the analyses prove they cannot
//! trap — something liveness alone can never justify.

use crate::framework::{run_backward, BackwardAnalysis, Fixpoint, JoinLattice};
use safetsa_core::cfg::Cfg;
use safetsa_core::function::Function;
use safetsa_core::value::{BlockId, ValueId};

/// The single-point liveness lattice ("demanded").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Live;

impl JoinLattice for Live {
    fn join(&self, _other: &Live) -> Live {
        Live
    }
}

struct Analysis;

impl BackwardAnalysis for Analysis {
    type Fact = Live;

    fn roots(&mut self, _f: &Function, cfg: &Cfg, out: &mut Vec<(ValueId, Live)>) {
        out.extend(cfg.cond_uses.iter().map(|&(_, v)| (v, Live)));
        out.extend(
            cfg.return_uses
                .iter()
                .filter_map(|&(_, v)| Some((v?, Live))),
        );
        out.extend(cfg.throw_uses.iter().map(|&(_, v)| (v, Live)));
    }

    fn transfer(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        result: Option<&Live>,
        out: &mut Vec<(ValueId, Live)>,
    ) {
        let instr = &f.block(b).instrs[k];
        if result.is_none() && instr.is_pure() {
            return;
        }
        out.extend(instr.operands().iter().map(|&v| (v, Live)));
        if result.is_some() {
            if let Some(p) = f.instr_result(b, k).and_then(|r| f.value(r).provenance) {
                out.push((p, Live));
            }
        }
    }

    fn phi(
        &mut self,
        f: &Function,
        b: BlockId,
        k: usize,
        result: Option<&Live>,
        out: &mut Vec<(ValueId, Live)>,
    ) {
        if result.is_none() {
            return;
        }
        out.extend(f.block(b).phis[k].args.iter().map(|&(_, v)| (v, Live)));
        if let Some(p) = f.value(f.phi_result(b, k)).provenance {
            out.push((p, Live));
        }
    }
}

/// The liveness facts for one function.
#[derive(Debug)]
pub struct Liveness {
    facts: crate::framework::Facts<Live>,
    /// Fixpoint passes until stabilization.
    pub iterations: u64,
}

impl Liveness {
    /// Whether `v` can influence observable behaviour.
    pub fn is_live(&self, v: ValueId) -> bool {
        self.facts.get(v).is_some()
    }

    /// Number of live values (telemetry).
    pub fn live_count(&self) -> u64 {
        self.facts.computed()
    }
}

/// Runs liveness over `f`.
pub fn analyze(f: &Function, cfg: &Cfg) -> Liveness {
    let Fixpoint { facts, iterations } = run_backward(f, cfg, &mut Analysis);
    Liveness { facts, iterations }
}
