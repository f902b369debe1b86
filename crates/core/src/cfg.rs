//! Control-flow graph derivation from the Control Structure Tree.
//!
//! The CFG is never transmitted: both producer and consumer derive it
//! deterministically from the CST (§7), including the canonical
//! ordering of each join block's incoming edges — which is what gives
//! phi operands their positional meaning ("the n-th argument of the phi
//! function corresponds to the n-th incoming branch", §2).
//!
//! Exception edges: every exceptional instruction inside a `try` region
//! adds an edge from its block to the innermost handler entry; the edge
//! records how many instruction results of the source block are visible
//! along it (§7's sub-block splitting expressed as an edge attribute).

use crate::cst::Cst;
use crate::function::{Function, ENTRY};
use crate::reuse::vec_bytes;
use crate::value::BlockId;
use std::fmt;

/// How control reaches a block along one edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Ordinary control transfer (fall-through, branch, back edge,
    /// break, continue).
    Normal,
    /// Exceptional transfer raised by instruction `upto` of the source
    /// block (or by a `throw` terminator when `upto` equals the
    /// instruction count). Exactly the first `upto` instruction results
    /// of the source block are visible along this edge.
    Exception {
        /// Number of leading instruction results visible on this edge.
        upto: u32,
    },
}

/// One incoming CFG edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source block.
    pub from: BlockId,
    /// Kind of transfer.
    pub kind: EdgeKind,
}

/// A structural error found while deriving the CFG.
#[derive(Debug, Clone, PartialEq)]
pub enum CfgError {
    /// `Break(n)` with fewer than `n + 1` enclosing labeled regions.
    BadBreakDepth(u32),
    /// `Continue(n)` with fewer than `n + 1` enclosing loops.
    BadContinueDepth(u32),
    /// A block id out of range for the function.
    BadBlock(BlockId),
    /// The first executed block must be the entry block (pre-loads live
    /// there).
    EntryNotFirst,
    /// The same block appears at two different CST positions.
    DuplicateBlock(BlockId),
}

impl fmt::Display for CfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CfgError::BadBreakDepth(n) => write!(f, "break depth {n} exceeds labeled nesting"),
            CfgError::BadContinueDepth(n) => {
                write!(f, "continue depth {n} exceeds loop nesting")
            }
            CfgError::BadBlock(b) => write!(f, "block {b} out of range"),
            CfgError::EntryNotFirst => write!(f, "entry block is not the first executed block"),
            CfgError::DuplicateBlock(b) => write!(f, "block {b} used twice in the CST"),
        }
    }
}

impl std::error::Error for CfgError {}

/// The control-flow graph derived from a function's CST.
///
/// Edges live in flat offset arrays (CSR layout): one array holds every
/// block's items back to back, and a second holds the offset where each
/// block's items start. [`Cfg::rebuild`] reuses every buffer, so a
/// consumer that derives the graphs of many functions in turn allocates
/// only when a function outgrows the largest one before it.
#[derive(Debug, Clone, Default)]
pub struct Cfg {
    /// Block `b`'s incoming edges are
    /// `pred_edges[pred_start[b]..pred_start[b + 1]]`, in canonical order.
    pred_start: Vec<u32>,
    pred_edges: Vec<Edge>,
    /// Block `b`'s successors are
    /// `succ_blocks[succ_start[b]..succ_start[b + 1]]`, ordered by id.
    succ_start: Vec<u32>,
    succ_blocks: Vec<BlockId>,
    /// Whether each block is reachable from the entry.
    pub reachable: Vec<bool>,
    /// Blocks in the deterministic traversal order the CST visits them.
    pub traversal: Vec<BlockId>,
    /// `(branching block, condition value)` for every reachable `If`.
    pub cond_uses: Vec<(BlockId, crate::value::ValueId)>,
    /// `(returning block, value)` for every reachable `Return`.
    pub return_uses: Vec<(BlockId, Option<crate::value::ValueId>)>,
    /// `(throwing block, value)` for every reachable `Throw`.
    pub throw_uses: Vec<(BlockId, crate::value::ValueId)>,
    /// Whether control can fall off the end of the function body.
    pub falls_through: bool,
    scratch: Scratch,
}

/// Working storage of a derivation, kept between rebuilds.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Edges in the order the walk adds them, each with its target.
    edges: Vec<(BlockId, Edge)>,
    labels: Vec<BlockId>,
    loops: Vec<BlockId>,
    handlers: Vec<BlockId>,
    seen: Vec<bool>,
    /// Per-block fill position while edges are grouped by block.
    cursor: Vec<u32>,
    stack: Vec<BlockId>,
}

/// The items of block `b` in a CSR pair.
pub(crate) fn items<'a, T>(start: &[u32], items: &'a [T], b: BlockId) -> &'a [T] {
    &items[start[b.index()] as usize..start[b.index() + 1] as usize]
}

/// Turns per-block counts stored at `start[b + 1]` into start offsets.
pub(crate) fn prefix_sum(start: &mut [u32]) {
    for i in 1..start.len() {
        start[i] += start[i - 1];
    }
}

impl Cfg {
    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.reachable.len()
    }

    /// Whether the CFG has no blocks (never true for a built CFG).
    pub fn is_empty(&self) -> bool {
        self.reachable.is_empty()
    }

    /// The canonical incoming edges of `b`.
    pub fn preds_of(&self, b: BlockId) -> &[Edge] {
        items(&self.pred_start, &self.pred_edges, b)
    }

    /// The successors of `b`, ordered by block id; a block reached by
    /// several edges from `b` appears once per edge.
    pub fn succs_of(&self, b: BlockId) -> &[BlockId] {
        items(&self.succ_start, &self.succ_blocks, b)
    }

    /// Heap bytes the graph's buffers hold, scratch included.
    pub fn heap_bytes(&self) -> usize {
        let s = &self.scratch;
        vec_bytes(&self.pred_start)
            + vec_bytes(&self.pred_edges)
            + vec_bytes(&self.succ_start)
            + vec_bytes(&self.succ_blocks)
            + vec_bytes(&self.reachable)
            + vec_bytes(&self.traversal)
            + vec_bytes(&self.cond_uses)
            + vec_bytes(&self.return_uses)
            + vec_bytes(&self.throw_uses)
            + vec_bytes(&s.edges)
            + vec_bytes(&s.labels)
            + vec_bytes(&s.loops)
            + vec_bytes(&s.handlers)
            + vec_bytes(&s.seen)
            + vec_bytes(&s.cursor)
            + vec_bytes(&s.stack)
    }

    /// Derives the CFG of `f`.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] if the CST is structurally malformed.
    pub fn build(f: &Function) -> Result<Cfg, CfgError> {
        let mut cfg = Cfg::default();
        cfg.rebuild(f)?;
        Ok(cfg)
    }

    /// Derives the CFG of `f` in place, reusing this graph's buffers.
    /// After an error the graph holds no meaningful contents until the
    /// next successful rebuild.
    ///
    /// # Errors
    ///
    /// Returns a [`CfgError`] if the CST is structurally malformed.
    pub fn rebuild(&mut self, f: &Function) -> Result<(), CfgError> {
        let n = f.block_count();
        self.reset(n);
        let final_frontier = self.walk(f, &f.body, Frontier::Start)?;
        self.falls_through = !matches!(final_frontier, Frontier::Dead);
        self.index(n);
        Ok(())
    }

    /// A graph of `n` blocks rooted at the entry block, with the given
    /// incoming edges: each `(to, edge)` enters block `to`, and a block's
    /// edges keep their order in `edges`. The traversal order is block-id
    /// order, and the graph has no condition, return or throw uses.
    ///
    /// # Panics
    ///
    /// Panics if an edge names a block outside `0..n`.
    pub fn from_edges(n: usize, edges: &[(BlockId, Edge)]) -> Cfg {
        let mut cfg = Cfg::default();
        cfg.reset(n);
        for &(to, e) in edges {
            assert!(e.from.index() < n, "edge source {} out of range", e.from);
            cfg.edge(e.from, to, e.kind);
        }
        cfg.traversal.extend((0..n).map(|i| BlockId(i as u32)));
        cfg.index(n);
        cfg
    }

    fn reset(&mut self, n: usize) {
        self.pred_start.clear();
        self.pred_start.resize(n + 1, 0);
        let s = &mut self.scratch;
        s.edges.clear();
        s.labels.clear();
        s.loops.clear();
        s.handlers.clear();
        s.seen.clear();
        s.seen.resize(n, false);
        self.traversal.clear();
        self.cond_uses.clear();
        self.return_uses.clear();
        self.throw_uses.clear();
        self.falls_through = false;
    }

    /// Lays out the collected edges (counted per block in
    /// `pred_start[b + 1]`) as predecessor and successor arrays, then
    /// marks the blocks reachable from the entry.
    fn index(&mut self, n: usize) {
        let s = &mut self.scratch;
        prefix_sum(&mut self.pred_start);
        s.cursor.clear();
        s.cursor.extend_from_slice(&self.pred_start[..n]);
        let placeholder = Edge {
            from: ENTRY,
            kind: EdgeKind::Normal,
        };
        self.pred_edges.clear();
        self.pred_edges.resize(s.edges.len(), placeholder);
        for &(to, e) in &s.edges {
            let at = &mut s.cursor[to.index()];
            self.pred_edges[*at as usize] = e;
            *at += 1;
        }
        // Successors: visiting targets in id order leaves each block's
        // successors sorted.
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for e in &self.pred_edges {
            self.succ_start[e.from.index() + 1] += 1;
        }
        prefix_sum(&mut self.succ_start);
        s.cursor.clear();
        s.cursor.extend_from_slice(&self.succ_start[..n]);
        self.succ_blocks.clear();
        self.succ_blocks.resize(self.pred_edges.len(), ENTRY);
        for to in 0..n {
            for e in items(&self.pred_start, &self.pred_edges, BlockId(to as u32)) {
                let at = &mut s.cursor[e.from.index()];
                self.succ_blocks[*at as usize] = BlockId(to as u32);
                *at += 1;
            }
        }
        // Reachability from the entry block.
        self.reachable.clear();
        self.reachable.resize(n, false);
        if n > 0 {
            s.stack.clear();
            s.stack.push(ENTRY);
            self.reachable[ENTRY.index()] = true;
            while let Some(x) = s.stack.pop() {
                for &b in items(&self.succ_start, &self.succ_blocks, x) {
                    if !self.reachable[b.index()] {
                        self.reachable[b.index()] = true;
                        s.stack.push(b);
                    }
                }
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Frontier {
    /// Function entry: the next executed block must be `ENTRY`.
    Start,
    /// Control falls through from this block.
    At(BlockId),
    /// Control cannot reach this point.
    Dead,
}

/// The CST walk that collects the edges.
impl Cfg {
    fn check_block(&mut self, b: BlockId) -> Result<(), CfgError> {
        let seen = &mut self.scratch.seen;
        if b.index() >= seen.len() {
            return Err(CfgError::BadBlock(b));
        }
        if seen[b.index()] {
            return Err(CfgError::DuplicateBlock(b));
        }
        seen[b.index()] = true;
        self.traversal.push(b);
        Ok(())
    }

    fn edge(&mut self, from: BlockId, to: BlockId, kind: EdgeKind) {
        self.pred_start[to.index() + 1] += 1;
        self.scratch.edges.push((to, Edge { from, kind }));
    }

    /// Whether the walk has added no edge into `b` yet.
    fn no_preds_yet(&self, b: BlockId) -> bool {
        self.pred_start[b.index() + 1] == 0
    }

    /// Connects `frontier` to `to`; returns whether `to` is live.
    fn connect(&mut self, frontier: Frontier, to: BlockId) -> Result<bool, CfgError> {
        match frontier {
            Frontier::Start => {
                if to != ENTRY {
                    return Err(CfgError::EntryNotFirst);
                }
                Ok(true)
            }
            Frontier::At(from) => {
                self.edge(from, to, EdgeKind::Normal);
                Ok(true)
            }
            Frontier::Dead => Ok(false),
        }
    }

    /// Adds the exception edges of block `b` to the innermost handler.
    fn exception_edges(&mut self, f: &Function, b: BlockId) {
        if let Some(&h) = self.scratch.handlers.last() {
            let instrs = &f.block(b).instrs;
            for (k, i) in instrs.iter().enumerate() {
                if i.is_exceptional() {
                    self.edge(b, h, EdgeKind::Exception { upto: k as u32 });
                }
            }
        }
    }

    fn walk(&mut self, f: &Function, cst: &Cst, frontier: Frontier) -> Result<Frontier, CfgError> {
        match cst {
            Cst::Basic(b) => {
                self.check_block(*b)?;
                let live = self.connect(frontier, *b)?;
                if live {
                    self.exception_edges(f, *b);
                    Ok(Frontier::At(*b))
                } else {
                    Ok(Frontier::Dead)
                }
            }
            Cst::Seq(items) => {
                let mut fr = frontier;
                for c in items {
                    fr = self.walk(f, c, fr)?;
                }
                Ok(fr)
            }
            Cst::If {
                cond,
                then_br,
                else_br,
                join,
            } => {
                self.check_block(*join)?;
                if let Frontier::At(b) = frontier {
                    self.cond_uses.push((b, *cond));
                }
                let t = self.walk(f, then_br, frontier)?;
                if let Frontier::At(b) = t {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let e = self.walk(f, else_br, frontier)?;
                if let Frontier::At(b) = e {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let join_dead = self.no_preds_yet(*join) && !matches!(frontier, Frontier::Start);
                if join_dead || matches!(frontier, Frontier::Dead) {
                    Ok(Frontier::Dead)
                } else {
                    // Control continues in the join block; code placed
                    // there can raise too.
                    self.exception_edges(f, *join);
                    Ok(Frontier::At(*join))
                }
            }
            Cst::Loop { header, body } => {
                self.check_block(*header)?;
                let live = self.connect(frontier, *header)?;
                if live {
                    self.exception_edges(f, *header);
                }
                self.scratch.loops.push(*header);
                let body_fr = self.walk(
                    f,
                    body,
                    if live {
                        Frontier::At(*header)
                    } else {
                        Frontier::Dead
                    },
                )?;
                self.scratch.loops.pop();
                if let Frontier::At(b) = body_fr {
                    self.edge(b, *header, EdgeKind::Normal);
                }
                // A loop only exits through break/return/throw.
                Ok(Frontier::Dead)
            }
            Cst::Labeled { body, join } => {
                self.check_block(*join)?;
                self.scratch.labels.push(*join);
                let fr = self.walk(f, body, frontier)?;
                self.scratch.labels.pop();
                if let Frontier::At(b) = fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                if self.no_preds_yet(*join) {
                    Ok(Frontier::Dead)
                } else {
                    self.exception_edges(f, *join);
                    Ok(Frontier::At(*join))
                }
            }
            Cst::Break(n) => {
                if let Frontier::At(b) = frontier {
                    let labels = &self.scratch.labels;
                    let target = labels
                        .len()
                        .checked_sub(1 + *n as usize)
                        .map(|i| labels[i])
                        .ok_or(CfgError::BadBreakDepth(*n))?;
                    self.edge(b, target, EdgeKind::Normal);
                }
                Ok(Frontier::Dead)
            }
            Cst::Continue(n) => {
                if let Frontier::At(b) = frontier {
                    let loops = &self.scratch.loops;
                    let target = loops
                        .len()
                        .checked_sub(1 + *n as usize)
                        .map(|i| loops[i])
                        .ok_or(CfgError::BadContinueDepth(*n))?;
                    self.edge(b, target, EdgeKind::Normal);
                }
                Ok(Frontier::Dead)
            }
            Cst::Return(v) => {
                if let Frontier::At(b) = frontier {
                    self.return_uses.push((b, *v));
                }
                Ok(Frontier::Dead)
            }
            Cst::Throw(v) => {
                // A throw inside a try region is caught by the innermost
                // handler; all instruction results of the block are
                // visible along the edge.
                if let Frontier::At(b) = frontier {
                    self.throw_uses.push((b, *v));
                    if let Some(&h) = self.scratch.handlers.last() {
                        let upto = f.block(b).instrs.len() as u32;
                        self.edge(b, h, EdgeKind::Exception { upto });
                    }
                }
                Ok(Frontier::Dead)
            }
            Cst::Try {
                body,
                handler_entry,
                handler,
                join,
            } => {
                // The handler and join are traversed *after* the body, so
                // a streaming decoder knows every exception edge into the
                // handler before the handler's own blocks arrive.
                self.scratch.handlers.push(*handler_entry);
                let body_fr = self.walk(f, body, frontier)?;
                self.scratch.handlers.pop();
                self.check_block(*handler_entry)?;
                if let Frontier::At(b) = body_fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                let handler_live = !self.no_preds_yet(*handler_entry);
                if handler_live {
                    self.exception_edges(f, *handler_entry);
                }
                let h_fr = self.walk(
                    f,
                    handler,
                    if handler_live {
                        Frontier::At(*handler_entry)
                    } else {
                        Frontier::Dead
                    },
                )?;
                self.check_block(*join)?;
                if let Frontier::At(b) = h_fr {
                    self.edge(b, *join, EdgeKind::Normal);
                }
                if self.no_preds_yet(*join) {
                    Ok(Frontier::Dead)
                } else {
                    self.exception_edges(f, *join);
                    Ok(Frontier::At(*join))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{PrimKind, TypeTable};
    use crate::value::ValueId;

    fn two_block_if() -> (Function, TypeTable) {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let then_b = f.add_block();
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: ValueId(0),
                then_br: Box::new(Cst::Basic(then_b)),
                else_br: Box::new(Cst::empty()),
                join,
            },
        ]);
        (f, types)
    }

    #[test]
    fn if_join_pred_order_is_then_else() {
        let (f, _) = two_block_if();
        let cfg = Cfg::build(&f).unwrap();
        let join = BlockId(2);
        let preds = cfg.preds_of(join);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].from, BlockId(1), "then edge first");
        assert_eq!(preds[1].from, ENTRY, "empty else edge second");
        assert!(cfg.reachable.iter().all(|&r| r));
        // Successors are ordered by target id.
        assert_eq!(cfg.succs_of(ENTRY), [BlockId(1), join]);
        assert_eq!(cfg.succs_of(BlockId(1)), [join]);
        assert!(cfg.succs_of(join).is_empty());
    }

    #[test]
    fn loop_header_preds_entry_then_back() {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let header = f.add_block();
        let body_b = f.add_block();
        let exit = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Labeled {
                body: Box::new(Cst::Loop {
                    header,
                    body: Box::new(Cst::Seq(vec![Cst::If {
                        cond: ValueId(0),
                        then_br: Box::new(Cst::Basic(body_b)),
                        else_br: Box::new(Cst::Break(0)),
                        join: f.add_block(),
                    }])),
                }),
                join: exit,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(header);
        assert_eq!(hp.len(), 2);
        assert_eq!(hp[0].from, ENTRY);
        // back edge comes from the if-join block
        assert_eq!(hp[1].from, BlockId(4));
        let ep = cfg.preds_of(exit);
        assert_eq!(ep.len(), 1);
        assert_eq!(ep[0].from, header, "break edge from header block");
    }

    #[test]
    fn unreachable_join_when_both_branches_return() {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("t", None, vec![b], None);
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::If {
                cond: ValueId(0),
                then_br: Box::new(Cst::Return(None)),
                else_br: Box::new(Cst::Return(None)),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        assert!(!cfg.reachable[join.index()]);
        assert!(cfg.preds_of(join).is_empty());
    }

    #[test]
    fn bad_break_depth_is_error() {
        let types = TypeTable::new();
        let _ = types;
        let mut f = Function::new("t", None, vec![], None);
        let _ = &mut f;
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Break(0)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::BadBreakDepth(0));
    }

    #[test]
    fn duplicate_block_is_error() {
        let mut f = Function::new("t", None, vec![], None);
        f.body = Cst::Seq(vec![Cst::Basic(ENTRY), Cst::Basic(ENTRY)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::DuplicateBlock(ENTRY));
    }

    #[test]
    fn entry_must_be_first() {
        let mut f = Function::new("t", None, vec![], None);
        let b1 = f.add_block();
        f.body = Cst::Seq(vec![Cst::Basic(b1), Cst::Basic(ENTRY)]);
        assert_eq!(Cfg::build(&f).unwrap_err(), CfgError::EntryNotFirst);
    }

    #[test]
    fn exception_edges_reach_handler() {
        use crate::instr::Instr;
        use crate::primops;
        let mut types = TypeTable::new();
        let int = types.prim(PrimKind::Int);
        let mut f = Function::new("t", None, vec![int, int], None);
        let body_b = f.add_block();
        let handler_entry = f.add_block();
        let join = f.add_block();
        let div = primops::find(PrimKind::Int, "div").unwrap();
        f.add_instr(
            &mut types,
            body_b,
            Instr::XPrimitive {
                ty: int,
                op: div,
                args: [f.param_value(0), f.param_value(1)].into(),
            },
        )
        .unwrap();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Try {
                body: Box::new(Cst::Basic(body_b)),
                handler_entry,
                handler: Box::new(Cst::empty()),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(handler_entry);
        assert_eq!(hp.len(), 1);
        assert_eq!(hp[0].from, body_b);
        assert_eq!(hp[0].kind, EdgeKind::Exception { upto: 0 });
        // join has two preds: body fall-through and handler fall-through
        assert_eq!(cfg.preds_of(join).len(), 2);
    }

    #[test]
    fn throw_inside_try_goes_to_handler() {
        let mut types = TypeTable::new();
        let _ = &mut types;
        let mut f = Function::new("t", None, vec![], None);
        let body_b = f.add_block();
        let handler_entry = f.add_block();
        let join = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Try {
                body: Box::new(Cst::Seq(vec![Cst::Basic(body_b), Cst::Throw(ValueId(0))])),
                handler_entry,
                handler: Box::new(Cst::empty()),
                join,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let hp = cfg.preds_of(handler_entry);
        assert_eq!(hp.len(), 1);
        assert!(matches!(hp[0].kind, EdgeKind::Exception { .. }));
        // join reachable only through the handler
        assert_eq!(cfg.preds_of(join).len(), 1);
        assert_eq!(cfg.preds_of(join)[0].from, handler_entry);
    }
}
