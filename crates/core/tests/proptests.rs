//! Property-based tests for the core IR machinery: the two dominator
//! algorithms agree on arbitrary (reachable-rooted) flow graphs, and
//! dominator-tree invariants hold.

use proptest::prelude::*;
use safetsa_core::cfg::{Cfg, Edge, EdgeKind};
use safetsa_core::dom::DomTree;
use safetsa_core::value::BlockId;

/// Builds a synthetic CFG from an edge list over `n` nodes rooted at 0.
fn synth_cfg(n: usize, raw_edges: &[(usize, usize)]) -> Cfg {
    let mut edges: Vec<(BlockId, Edge)> = Vec::new();
    for &(from, to) in raw_edges {
        let (from, to) = (BlockId((from % n) as u32), BlockId((to % n) as u32));
        // Skip duplicate edges (the verifier forbids them anyway).
        if edges.iter().any(|&(t, e)| t == to && e.from == from) {
            continue;
        }
        let kind = EdgeKind::Normal;
        edges.push((to, Edge { from, kind }));
    }
    // Drop edges from unreachable nodes (the real builder never emits
    // them, and the iterative algorithm assumes processed preds).
    let reachable = Cfg::from_edges(n, &edges).reachable;
    edges.retain(|(_, e)| reachable[e.from.index()]);
    Cfg::from_edges(n, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn chk_and_lengauer_tarjan_agree(
        n in 1usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24), 0..64)
    ) {
        let cfg = synth_cfg(n, &edges);
        let a = DomTree::build(&cfg);
        let b = DomTree::build_lengauer_tarjan(&cfg);
        prop_assert_eq!(&a.idom, &b.idom, "algorithms disagree");
    }

    #[test]
    fn dominator_tree_invariants(
        n in 1usize..24,
        edges in proptest::collection::vec((0usize..24, 0usize..24), 0..64)
    ) {
        let cfg = synth_cfg(n, &edges);
        let dom = DomTree::build(&cfg);
        // Entry has no idom; reachable non-entry nodes have one;
        // unreachable nodes have none.
        prop_assert_eq!(dom.idom[0], None);
        for i in 1..n {
            if cfg.reachable[i] {
                let id = dom.idom[i].expect("reachable nodes have an idom");
                prop_assert!(dom.dominates(id, BlockId(i as u32)));
                prop_assert_eq!(dom.depth[i], dom.depth[id.index()] + 1);
            } else {
                prop_assert_eq!(dom.idom[i], None);
            }
        }
        // ancestor() is consistent with depth and level_distance.
        for i in 0..n {
            if !cfg.reachable[i] {
                continue;
            }
            let b = BlockId(i as u32);
            let d = dom.depth[i];
            prop_assert_eq!(dom.ancestor(b, 0), Some(b));
            prop_assert_eq!(dom.ancestor(b, d), Some(BlockId(0)));
            prop_assert_eq!(dom.level_distance(BlockId(0), b), Some(d));
        }
        // preorder covers exactly the reachable set, parents first.
        let mut seen = vec![false; n];
        for &b in &dom.preorder {
            if let Some(p) = dom.idom[b.index()] {
                prop_assert!(seen[p.index()], "parent before child");
            }
            seen[b.index()] = true;
        }
        for (s, r) in seen.iter().zip(&cfg.reachable) {
            prop_assert_eq!(s, r);
        }
    }
}
