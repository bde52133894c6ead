//! Property test for depth-1 branch splitting: on random DAGs and random
//! span limits, splitting any root's enumeration across its depth-1
//! branches yields the exact multiset of (antichain, span) pairs produced
//! by the unsplit DFS, for capacities {1, 2, 4, 8}.

use mps_dfg::{AnalyzedDfg, Antichain};
use mps_patterns::{for_each_depth1_branch, AntichainEnumerator, EnumerateConfig};
use proptest::prelude::*;

mod common;

const MAX_NODES: usize = 20;

fn build_dag(n: usize, colors: &[u8], edges: &[bool]) -> AnalyzedDfg {
    common::build_dag(n, colors, edges, MAX_NODES)
}

fn keyed(a: &Antichain, s: u32) -> (Vec<u32>, u32) {
    (a.iter().map(|n| n.0).collect(), s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The splitting identity, per root: `enumerate_singleton` + one
    /// `enumerate_branch` per depth-1 branch visits the exact multiset of
    /// (antichain, span) pairs `enumerate_root` visits.
    #[test]
    fn branch_split_is_exact_per_root(
        n in 1usize..=MAX_NODES,
        colors in proptest::collection::vec(0u8..6, MAX_NODES..(MAX_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
        span_limit in proptest::option::of(0u32..6),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        for capacity in [1usize, 2, 4, 8] {
            let cfg = EnumerateConfig { capacity, span_limit, parallel: false };
            let mut en = AntichainEnumerator::new(&adfg, cfg);
            for root in adfg.dfg().node_ids() {
                let mut whole = Vec::new();
                en.enumerate_root(root, |a, s| whole.push(keyed(a, s)));
                let mut split = Vec::new();
                en.enumerate_singleton(root, |a, s| split.push(keyed(a, s)));
                for_each_depth1_branch(&adfg, root, |b| {
                    en.enumerate_branch(root, b, |a, s| split.push(keyed(a, s)));
                });
                whole.sort();
                split.sort();
                prop_assert_eq!(
                    split,
                    whole,
                    "root {:?} capacity {} span {:?}",
                    root,
                    capacity,
                    span_limit
                );
            }
        }
    }
}
