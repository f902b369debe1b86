//! The fact context the passes share.
//!
//! Every fact here is a pure function of one version of one function:
//! its CFG, dominator tree, exception-edge map, and alias + escape
//! results. Each is computed on first use and then borrowed by every
//! later pass that needs it. A pass that changes the function makes
//! the whole context stale, so the round loop calls
//! [`Facts::invalidate`] whenever a pass reports a removal; a pass that
//! reports none leaves the function untouched, and the facts stay
//! valid for the next pass.
//!
//! One context serves a whole module: [`crate::optimize`] invalidates
//! it before each function. Invalidation keeps the CFG's and the
//! dominator tree's buffers, and the next use rebuilds them in place
//! ([`Cfg::rebuild`], [`DomTree::rebuild`]), so the graphs of every
//! function version allocate only when a function outgrows the
//! largest one before it. Between calls the thread keeps the context,
//! invalidated, for its next module ([`with_facts`]).

use crate::fixup;
use safetsa_analysis::{alias, escape, AliasAnalysis, EscapeAnalysis};
use safetsa_core::cfg::Cfg;
use safetsa_core::dom::DomTree;
use safetsa_core::function::Function;
use safetsa_core::reuse::{with_thread_buffers, Buffers};
use safetsa_core::types::TypeTable;
use safetsa_core::value::BlockId;
use std::cell::{Cell, OnceCell};
use std::collections::HashMap;

thread_local! {
    /// The calling thread's fact context between calls.
    static FACTS: Cell<Option<Facts>> = const { Cell::new(None) };
}

/// Runs `f` with the calling thread's fact context, which holds no
/// facts, only graph buffers, when `f` starts and again once it returns.
pub(crate) fn with_facts<R>(f: impl FnOnce(&mut Facts) -> R) -> R {
    with_thread_buffers(&FACTS, |facts| {
        let out = f(facts);
        facts.invalidate();
        out
    })
}

/// Lazily computed facts about one version of a function. Every
/// accessor must be called with that same function, and with the CFG
/// this context returned for it.
#[derive(Default)]
pub(crate) struct Facts {
    cfg: OnceCell<Option<Cfg>>,
    dom: OnceCell<DomTree>,
    exc_targets: OnceCell<HashMap<(BlockId, usize), BlockId>>,
    heap: OnceCell<(AliasAnalysis, EscapeAnalysis)>,
    /// The graphs of an earlier version, kept for their buffers.
    spare_cfg: Cell<Cfg>,
    spare_dom: Cell<DomTree>,
}

/// Only the spare graphs hold buffers: [`with_facts`] invalidates the
/// context before the thread keeps it.
impl Buffers for Facts {
    fn heap_bytes(&mut self) -> usize {
        self.spare_cfg.get_mut().heap_bytes() + self.spare_dom.get_mut().heap_bytes()
    }
}

impl Facts {
    /// Forgets every fact, keeping the graph buffers: the function
    /// changed, or the context moves on to another function.
    pub(crate) fn invalidate(&mut self) {
        if let Some(Some(cfg)) = self.cfg.take() {
            self.spare_cfg.set(cfg);
        }
        if let Some(dom) = self.dom.take() {
            self.spare_dom.set(dom);
        }
        self.exc_targets.take();
        self.heap.take();
    }

    /// The CFG, or `None` when the CST is malformed (the passes then
    /// leave the function alone and the verifier reports it).
    pub(crate) fn cfg(&self, f: &Function) -> Option<&Cfg> {
        self.cfg
            .get_or_init(|| {
                let mut cfg = self.spare_cfg.take();
                cfg.rebuild(f).ok().map(|()| cfg)
            })
            .as_ref()
    }

    /// The dominator tree.
    pub(crate) fn dom(&self, cfg: &Cfg) -> &DomTree {
        self.dom.get_or_init(|| {
            let mut dom = self.spare_dom.take();
            dom.rebuild(cfg);
            dom
        })
    }

    /// Each exceptional instruction in a `try` region, mapped to its
    /// handler-entry block.
    pub(crate) fn exception_targets(
        &self,
        f: &Function,
        cfg: &Cfg,
    ) -> &HashMap<(BlockId, usize), BlockId> {
        self.exc_targets
            .get_or_init(|| fixup::exception_targets(f, cfg))
    }

    /// The allocation-site alias analysis and the escape analysis
    /// built on it.
    pub(crate) fn heap(
        &self,
        types: &TypeTable,
        f: &Function,
        cfg: &Cfg,
    ) -> (&AliasAnalysis, &EscapeAnalysis) {
        let (al, esc) = self.heap.get_or_init(|| {
            let al = alias::analyze(types, f, cfg);
            let esc = escape::analyze(f, cfg, &al);
            (al, esc)
        });
        (al, esc)
    }
}
