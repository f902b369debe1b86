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

use crate::cfg::Cfg;
use crate::function::ENTRY;
use crate::value::BlockId;

/// A computed dominator tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DomTree {
    /// Immediate dominator per block; `None` for the entry block and
    /// for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Depth in the dominator tree (entry = 0; unreachable blocks = 0).
    pub depth: Vec<u32>,
    /// Children lists (ordered by block id).
    pub children: Vec<Vec<BlockId>>,
    /// Reachable blocks in dominator-tree pre-order (children visited
    /// in block-id order); this is the canonical transmission order of
    /// SafeTSA blocks (§7).
    pub preorder: Vec<BlockId>,
}

impl DomTree {
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
        let n = cfg.len();
        if n == 0 {
            return DomTree {
                idom: vec![],
                depth: vec![],
                children: vec![],
                preorder: vec![],
            };
        }
        // Reverse postorder over reachable blocks.
        let rpo = reverse_postorder(cfg);
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
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
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
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
        finish(cfg, idom)
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
        let idom = lt
            .idom
            .iter()
            .map(|o| o.map(|i| BlockId(i as u32)))
            .collect();
        finish(cfg, idom)
    }
}

fn reverse_postorder(cfg: &Cfg) -> Vec<BlockId> {
    let n = cfg.len();
    let mut visited = vec![false; n];
    let mut post = Vec::with_capacity(n);
    // Iterative DFS with explicit stack of (block, next-succ-index).
    let mut stack = vec![(ENTRY, 0usize)];
    visited[ENTRY.index()] = true;
    while let Some(&mut (b, ref mut i)) = stack.last_mut() {
        let succs = &cfg.succs[b.index()];
        if *i < succs.len() {
            let s = succs[*i];
            *i += 1;
            if !visited[s.index()] {
                visited[s.index()] = true;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
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

fn finish(cfg: &Cfg, idom: Vec<Option<BlockId>>) -> DomTree {
    let n = idom.len();
    let mut children = vec![Vec::new(); n];
    for (b, d) in idom.iter().enumerate() {
        if let Some(d) = d {
            children[d.index()].push(BlockId(b as u32));
        }
    }
    // Depth by walking from the entry.
    let mut depth = vec![0u32; n];
    let mut preorder = Vec::with_capacity(n);
    if n > 0 && cfg.reachable[ENTRY.index()] {
        let mut stack = vec![ENTRY];
        while let Some(b) = stack.pop() {
            preorder.push(b);
            for &c in children[b.index()].iter().rev() {
                depth[c.index()] = depth[b.index()] + 1;
                stack.push(c);
            }
        }
    }
    DomTree {
        idom,
        depth,
        children,
        preorder,
    }
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
            for &s in self.cfg.succs[w].iter().rev() {
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

    #[test]
    fn unreachable_blocks_have_no_idom() {
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
        let cfg = Cfg::build(&f).unwrap();
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom[join.index()], None);
        assert_eq!(dom.preorder, vec![ENTRY]);
    }
}
