//! Dominator trees.
//!
//! SafeTSA's `(l, r)` value references are interpreted against the
//! dominator tree (§2): `l` counts levels up the dominator hierarchy.
//! Both producer and consumer derive the tree from the CFG (itself
//! derived from the CST), so the tree is never transmitted.
//!
//! Two classic algorithms are implemented and cross-checked by the test
//! suite (`tests/proptests.rs`, `chk_and_lengauer_tarjan_agree`): the
//! iterative algorithm of Cooper–Harvey–Kennedy (the default) and
//! Lengauer–Tarjan (the paper's citation \[21\]).

use crate::cfg::{items, prefix_sum, Cfg};
use crate::function::ENTRY;
use crate::reuse::vec_bytes;
use crate::value::BlockId;

/// A computed dominator tree.
///
/// Children live in flat offset arrays (CSR layout), like the
/// [`Cfg`]'s edges, and [`DomTree::rebuild`] reuses every buffer.
#[derive(Debug, Clone, Default)]
pub struct DomTree {
    /// Immediate dominator per block; `None` for the entry block and
    /// for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Depth in the dominator tree (entry = 0; unreachable blocks = 0).
    pub depth: Vec<u32>,
    /// Block `b`'s children are
    /// `children[child_start[b]..child_start[b + 1]]`, ordered by id.
    child_start: Vec<u32>,
    children: Vec<BlockId>,
    /// Reachable blocks in dominator-tree pre-order (children visited
    /// in block-id order); this is the canonical transmission order of
    /// SafeTSA blocks (§7).
    pub preorder: Vec<BlockId>,
    scratch: Scratch,
}

/// Working storage of a computation, kept between rebuilds.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Reachable blocks in reverse postorder.
    rpo: Vec<BlockId>,
    /// Position of each block in `rpo` (`usize::MAX` if unreachable).
    rpo_num: Vec<usize>,
    visited: Vec<bool>,
    /// Depth-first stack of (block, next successor index).
    dfs: Vec<(BlockId, usize)>,
    /// Per-block fill position while children are grouped by parent.
    cursor: Vec<u32>,
}

impl DomTree {
    /// The children of `b` in the dominator tree, ordered by block id.
    pub fn children_of(&self, b: BlockId) -> &[BlockId] {
        items(&self.child_start, &self.children, b)
    }

    /// Heap bytes the tree's buffers hold, scratch included.
    pub fn heap_bytes(&self) -> usize {
        let s = &self.scratch;
        vec_bytes(&self.idom)
            + vec_bytes(&self.depth)
            + vec_bytes(&self.child_start)
            + vec_bytes(&self.children)
            + vec_bytes(&self.preorder)
            + vec_bytes(&s.rpo)
            + vec_bytes(&s.rpo_num)
            + vec_bytes(&s.visited)
            + vec_bytes(&s.dfs)
            + vec_bytes(&s.cursor)
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = self.idom[c.index()];
        }
        false
    }

    /// The ancestor of `b` that is `l` levels up the dominator tree
    /// (`l = 0` is `b` itself).
    pub fn ancestor(&self, b: BlockId, l: u32) -> Option<BlockId> {
        let mut cur = b;
        for _ in 0..l {
            cur = self.idom[cur.index()]?;
        }
        Some(cur)
    }

    /// The number of dominator-tree levels from `b` up to (and
    /// including) `a`, if `a` dominates `b`.
    pub fn level_distance(&self, a: BlockId, b: BlockId) -> Option<u32> {
        let mut cur = b;
        let mut l = 0;
        loop {
            if cur == a {
                return Some(l);
            }
            cur = self.idom[cur.index()]?;
            l += 1;
        }
    }

    /// Computes the dominator tree of `cfg` with the iterative
    /// Cooper–Harvey–Kennedy algorithm.
    pub fn build(cfg: &Cfg) -> DomTree {
        let mut dom = DomTree::default();
        dom.rebuild(cfg);
        dom
    }

    /// Computes the dominator tree of `cfg` in place with the iterative
    /// Cooper–Harvey–Kennedy algorithm, reusing this tree's buffers.
    pub fn rebuild(&mut self, cfg: &Cfg) {
        let n = cfg.len();
        self.idom.clear();
        self.idom.resize(n, None);
        if n > 0 {
            self.reverse_postorder(cfg);
            let Scratch { rpo, rpo_num, .. } = &mut self.scratch;
            rpo_num.clear();
            rpo_num.resize(n, usize::MAX);
            for (i, &b) in rpo.iter().enumerate() {
                rpo_num[b.index()] = i;
            }
            let idom = &mut self.idom;
            idom[ENTRY.index()] = Some(ENTRY); // sentinel self-loop during iteration
            let mut changed = true;
            while changed {
                changed = false;
                for &b in rpo.iter().skip(1) {
                    let mut new_idom: Option<BlockId> = None;
                    for e in cfg.preds_of(b) {
                        let p = e.from;
                        if !cfg.reachable[p.index()] || idom[p.index()].is_none() {
                            continue;
                        }
                        new_idom = Some(match new_idom {
                            None => p,
                            Some(cur) => intersect(idom, rpo_num, p, cur),
                        });
                    }
                    if let Some(ni) = new_idom {
                        if idom[b.index()] != Some(ni) {
                            idom[b.index()] = Some(ni);
                            changed = true;
                        }
                    }
                }
            }
            idom[ENTRY.index()] = None;
        }
        self.finish(cfg);
    }

    /// Computes the dominator tree with the Lengauer–Tarjan algorithm
    /// (simple eval/link with path compression).
    pub fn build_lengauer_tarjan(cfg: &Cfg) -> DomTree {
        let n = cfg.len();
        if n == 0 {
            return DomTree::build(cfg);
        }
        let mut lt = Lt {
            cfg,
            dfnum: vec![usize::MAX; n],
            vertex: Vec::with_capacity(n),
            parent: vec![None; n],
            semi: vec![usize::MAX; n],
            ancestor: vec![None; n],
            label: (0..n).collect(),
            idom: vec![None; n],
            samedom: vec![None; n],
            bucket: vec![Vec::new(); n],
        };
        lt.dfs(ENTRY.index());
        for i in (1..lt.vertex.len()).rev() {
            let w = lt.vertex[i];
            let p = lt.parent[w].expect("non-root has dfs parent");
            let mut s = p;
            for e in cfg.preds_of(BlockId(w as u32)) {
                let v = e.from.index();
                if lt.dfnum[v] == usize::MAX {
                    continue; // unreachable pred
                }
                let s2 = if lt.dfnum[v] <= lt.dfnum[w] {
                    v
                } else {
                    let u = lt.eval(v);
                    lt.semi_of(u)
                };
                if lt.dfnum[s2] < lt.dfnum[s] {
                    s = s2;
                }
            }
            lt.semi[w] = lt.dfnum[s];
            lt.bucket[s].push(w);
            lt.ancestor[w] = Some(p);
            let drained: Vec<usize> = std::mem::take(&mut lt.bucket[p]);
            for v in drained {
                let y = lt.eval(v);
                if lt.semi[y] == lt.semi[v] {
                    lt.idom[v] = Some(p);
                } else {
                    lt.samedom[v] = Some(y);
                }
            }
        }
        for i in 1..lt.vertex.len() {
            let w = lt.vertex[i];
            if let Some(y) = lt.samedom[w] {
                lt.idom[w] = lt.idom[y];
            }
        }
        let mut dom = DomTree {
            idom: lt
                .idom
                .iter()
                .map(|o| o.map(|i| BlockId(i as u32)))
                .collect(),
            ..DomTree::default()
        };
        dom.finish(cfg);
        dom
    }

    /// Fills `scratch.rpo` with the reachable blocks in reverse
    /// postorder.
    fn reverse_postorder(&mut self, cfg: &Cfg) {
        let Scratch {
            rpo, visited, dfs, ..
        } = &mut self.scratch;
        visited.clear();
        visited.resize(cfg.len(), false);
        rpo.clear();
        dfs.clear();
        dfs.push((ENTRY, 0));
        visited[ENTRY.index()] = true;
        while let Some(&mut (b, ref mut i)) = dfs.last_mut() {
            let succs = cfg.succs_of(b);
            if *i < succs.len() {
                let s = succs[*i];
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    dfs.push((s, 0));
                }
            } else {
                rpo.push(b);
                dfs.pop();
            }
        }
        rpo.reverse();
    }

    /// Derives children, depths and the pre-order from `idom`.
    fn finish(&mut self, cfg: &Cfg) {
        let n = self.idom.len();
        self.child_start.clear();
        self.child_start.resize(n + 1, 0);
        for d in self.idom.iter().flatten() {
            self.child_start[d.index() + 1] += 1;
        }
        prefix_sum(&mut self.child_start);
        let cursor = &mut self.scratch.cursor;
        cursor.clear();
        cursor.extend_from_slice(&self.child_start[..n]);
        self.children.clear();
        self.children.resize(self.child_start[n] as usize, ENTRY);
        for (b, d) in self.idom.iter().enumerate() {
            if let Some(d) = d {
                let at = &mut cursor[d.index()];
                self.children[*at as usize] = BlockId(b as u32);
                *at += 1;
            }
        }
        // Depth by walking from the entry. The walk's stack reuses the
        // `rpo` buffer, which the immediate dominators no longer need.
        self.depth.clear();
        self.depth.resize(n, 0);
        self.preorder.clear();
        if n > 0 && cfg.reachable[ENTRY.index()] {
            let stack = &mut self.scratch.rpo;
            stack.clear();
            stack.push(ENTRY);
            while let Some(b) = stack.pop() {
                self.preorder.push(b);
                for &c in items(&self.child_start, &self.children, b).iter().rev() {
                    self.depth[c.index()] = self.depth[b.index()] + 1;
                    stack.push(c);
                }
            }
        }
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_num: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

struct Lt<'a> {
    cfg: &'a Cfg,
    dfnum: Vec<usize>,
    vertex: Vec<usize>,
    parent: Vec<Option<usize>>,
    semi: Vec<usize>,
    ancestor: Vec<Option<usize>>,
    label: Vec<usize>,
    idom: Vec<Option<usize>>,
    samedom: Vec<Option<usize>>,
    bucket: Vec<Vec<usize>>,
}

impl<'a> Lt<'a> {
    fn dfs(&mut self, root: usize) {
        let mut stack = vec![(root, None::<usize>)];
        while let Some((w, p)) = stack.pop() {
            if self.dfnum[w] != usize::MAX {
                continue;
            }
            self.dfnum[w] = self.vertex.len();
            self.vertex.push(w);
            self.parent[w] = p;
            for &s in self.cfg.succs_of(BlockId(w as u32)).iter().rev() {
                if self.dfnum[s.index()] == usize::MAX {
                    stack.push((s.index(), Some(w)));
                }
            }
        }
    }

    fn semi_of(&self, v: usize) -> usize {
        // semi[] stores dfnums; map back to the vertex carrying it.
        self.vertex[self.semi[v]]
    }

    fn eval(&mut self, v: usize) -> usize {
        self.compress(v);
        self.label[v]
    }

    fn compress(&mut self, v: usize) {
        // Iterative path compression.
        let mut path = Vec::new();
        let mut cur = v;
        while let Some(a) = self.ancestor[cur] {
            if self.ancestor[a].is_some() {
                path.push(cur);
                cur = a;
            } else {
                break;
            }
        }
        for &u in path.iter().rev() {
            let a = self.ancestor[u].unwrap();
            if self.semi[self.label[a]] < self.semi[self.label[u]] {
                self.label[u] = self.label[a];
            }
            self.ancestor[u] = self.ancestor[a];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cst::Cst;
    use crate::function::Function;
    use crate::types::{PrimKind, TypeTable};
    use crate::value::ValueId;

    /// Builds a diamond: entry → (then | dead-empty-else) → join.
    fn diamond() -> Function {
        let types = TypeTable::new();
        let b = types.prim(PrimKind::Bool);
        let mut f = Function::new("d", None, vec![b], None);
        let t = f.add_block();
        let e = f.add_block();
        let j = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(crate::function::ENTRY),
            Cst::If {
                cond: ValueId(0),
                then_br: Box::new(Cst::Basic(t)),
                else_br: Box::new(Cst::Basic(e)),
                join: j,
            },
        ]);
        f
    }

    #[test]
    fn diamond_idoms() {
        let f = diamond();
        let cfg = Cfg::build(&f).unwrap();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[0], None);
        assert_eq!(dom.idom[1], Some(ENTRY));
        assert_eq!(dom.idom[2], Some(ENTRY));
        assert_eq!(
            dom.idom[3],
            Some(ENTRY),
            "join dominated by entry, not a branch"
        );
        assert_eq!(dom.depth, vec![0, 1, 1, 1]);
        assert_eq!(dom.children_of(ENTRY), [BlockId(1), BlockId(2), BlockId(3)]);
        assert!(dom.children_of(BlockId(1)).is_empty());
        assert!(dom.dominates(ENTRY, BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
    }

    #[test]
    fn lt_matches_chk_on_diamond() {
        let f = diamond();
        let cfg = Cfg::build(&f).unwrap();
        assert_eq!(
            DomTree::build(&cfg).idom,
            DomTree::build_lengauer_tarjan(&cfg).idom
        );
    }

    #[test]
    fn loop_dominators() {
        let types = TypeTable::new();
        let bty = types.prim(PrimKind::Bool);
        let mut f = Function::new("l", None, vec![bty], None);
        let header = f.add_block();
        let body_b = f.add_block();
        let ifj = f.add_block();
        let exit = f.add_block();
        f.body = Cst::Seq(vec![
            Cst::Basic(ENTRY),
            Cst::Labeled {
                body: Box::new(Cst::Loop {
                    header,
                    body: Box::new(Cst::If {
                        cond: ValueId(0),
                        then_br: Box::new(Cst::Basic(body_b)),
                        else_br: Box::new(Cst::Break(0)),
                        join: ifj,
                    }),
                }),
                join: exit,
            },
        ]);
        let cfg = Cfg::build(&f).unwrap();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[header.index()], Some(ENTRY));
        assert_eq!(dom.idom[body_b.index()], Some(header));
        assert_eq!(dom.idom[ifj.index()], Some(body_b));
        assert_eq!(dom.idom[exit.index()], Some(header));
        assert_eq!(
            dom.idom,
            DomTree::build_lengauer_tarjan(&cfg).idom,
            "CHK and LT agree"
        );
        assert_eq!(dom.level_distance(ENTRY, ifj), Some(3));
        assert_eq!(dom.ancestor(ifj, 2), Some(header));
        assert_eq!(dom.level_distance(body_b, header), None);
    }

    #[test]
    fn preorder_starts_at_entry_and_covers_reachable() {
        let f = diamond();
        let cfg = Cfg::build(&f).unwrap();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.preorder[0], ENTRY);
        assert_eq!(dom.preorder.len(), 4);
    }

    /// Entry → (return | return), leaving the join block unreachable.
    fn both_arms_return() -> Function {
        let types = TypeTable::new();
        let bty = types.prim(PrimKind::Bool);
        let mut f = Function::new("u", None, vec![bty], None);
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
        f
    }

    #[test]
    fn unreachable_blocks_have_no_idom() {
        let cfg = Cfg::build(&both_arms_return()).unwrap();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[1], None);
        assert_eq!(dom.preorder, vec![ENTRY]);
    }

    #[test]
    fn rebuilding_over_a_larger_function_leaves_nothing_behind() {
        let small = both_arms_return();
        let mut cfg = Cfg::build(&diamond()).unwrap();
        let mut dom = DomTree::build(&cfg);
        cfg.rebuild(&small).unwrap();
        dom.rebuild(&cfg);
        let fresh_cfg = Cfg::build(&small).unwrap();
        let fresh_dom = DomTree::build(&fresh_cfg);
        assert_eq!(cfg.len(), 2);
        assert_eq!(cfg.reachable, fresh_cfg.reachable);
        assert_eq!(cfg.traversal, fresh_cfg.traversal);
        assert_eq!(cfg.cond_uses, fresh_cfg.cond_uses);
        assert_eq!(cfg.return_uses, fresh_cfg.return_uses);
        assert_eq!(cfg.falls_through, fresh_cfg.falls_through);
        for b in [ENTRY, BlockId(1)] {
            assert_eq!(cfg.preds_of(b), fresh_cfg.preds_of(b));
            assert_eq!(cfg.succs_of(b), fresh_cfg.succs_of(b));
            assert_eq!(dom.children_of(b), fresh_dom.children_of(b));
        }
        assert_eq!(dom.idom, fresh_dom.idom);
        assert_eq!(dom.depth, fresh_dom.depth);
        assert_eq!(dom.preorder, fresh_dom.preorder);
    }
}
