//! Decision-identity property suite for the cover-engine selectors: on
//! random DAGs, every rewritten strategy must produce **exactly** the
//! outcome of its retained `*_reference` oracle — same selected
//! `PatternSet`, same tie-break order, same per-round priorities
//! bit-for-bit — across the paper's span limits, in sequential and
//! parallel execution, and under the config toggles.

use mps_dfg::{AnalyzedDfg, Color, DfgBuilder};
use mps_patterns::{EnumerateConfig, PatternTable};
use mps_select::{
    coverage_greedy_from_table, coverage_greedy_from_table_reference, exhaustive_best,
    exhaustive_best_reference, node_cover_from_table, node_cover_from_table_reference,
    select_from_table, select_from_table_reference, SelectConfig,
};
use proptest::prelude::*;

const MAX_NODES: usize = 20;

/// Same random-DAG recipe as the patterns property suites: node `i` gets
/// `colors[i]`, forward edges only (acyclic by construction).
fn build_dag(n: usize, colors: &[u8], edges: &[bool]) -> AnalyzedDfg {
    let mut b = DfgBuilder::new();
    let ids: Vec<_> = (0..n)
        .map(|i| b.add_node(format!("n{i}"), Color(colors[i])))
        .collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if edges[i * MAX_NODES + j] {
                b.add_edge(ids[i], ids[j]).unwrap();
            }
        }
    }
    AnalyzedDfg::new(b.build().unwrap())
}

fn check_strategies(adfg: &AnalyzedDfg, span_limit: Option<u32>, pdef: usize) {
    let table = PatternTable::build(
        adfg,
        EnumerateConfig {
            capacity: 5,
            span_limit,
            parallel: false,
        },
    );
    for color_condition in [true, false] {
        let cfg = SelectConfig {
            pdef,
            span_limit,
            color_condition,
            ..Default::default()
        };
        let what = format!("span={span_limit:?} pdef={pdef} cond={color_condition}");
        assert_eq!(
            select_from_table(adfg, &table, &cfg),
            select_from_table_reference(adfg, &table, &cfg),
            "eq8 {what}"
        );
        assert_eq!(
            node_cover_from_table(adfg, &table, &cfg),
            node_cover_from_table_reference(adfg, &table, &cfg),
            "node_cover {what}"
        );
        assert_eq!(
            coverage_greedy_from_table(adfg, &table, &cfg),
            coverage_greedy_from_table_reference(adfg, &table, &cfg),
            "coverage {what}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The acceptance property of the cover-engine rewrite: fast and
    /// reference selection are indistinguishable on random DAGs for every
    /// span limit the paper exercises.
    #[test]
    fn selection_matches_reference_on_random_dags(
        n in 1usize..=MAX_NODES,
        pdef in 1usize..=5,
        colors in proptest::collection::vec(0u8..5, MAX_NODES..(MAX_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        for span_limit in [None, Some(0), Some(1), Some(3)] {
            check_strategies(&adfg, span_limit, pdef);
        }
    }

    /// The exhaustive searcher's parallel fan-out must return the same
    /// optimum (same set, first-in-generation-order on cycle ties) as the
    /// sequential oracle. Small graphs only — every subset is scheduled.
    #[test]
    fn exhaustive_matches_reference_on_random_dags(
        n in 1usize..=7,
        pdef in 1usize..=2,
        colors in proptest::collection::vec(0u8..3, MAX_NODES..(MAX_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        let slow = exhaustive_best_reference(
            &adfg,
            &SelectConfig { pdef, parallel: false, ..Default::default() },
            Default::default(),
            64,
        );
        for parallel in [false, true] {
            let cfg = SelectConfig { pdef, parallel, ..Default::default() };
            let fast = exhaustive_best(&adfg, &cfg, Default::default(), 64);
            prop_assert_eq!(&fast, &slow, "pdef={} parallel={}", pdef, parallel);
        }
    }
}
