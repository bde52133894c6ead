//! Property tests for the table builders: on random DAGs,
//! [`PatternTable::build`], the state DAG alone
//! ([`PatternTable::build_state_dag`]) and the DFS fold
//! ([`PatternTable::build_dfs`]) must all agree exactly — pattern order,
//! counts, per-node frequencies and cover matrix — with the retained seed
//! path [`PatternTable::build_reference`], and the first two also with a
//! naive reference built from [`enumerate_antichains`] into a `BTreeMap`.

use mps_dfg::AnalyzedDfg;
use mps_patterns::{enumerate_antichains, EnumerateConfig, Pattern, PatternTable};
use proptest::prelude::*;
use std::collections::BTreeMap;

mod common;

const MAX_NODES: usize = 24;

/// Smaller graphs for the capacity sweep, where the reference enumerates
/// every antichain up to C = 8.
const SWEEP_NODES: usize = 16;

fn build_dag(n: usize, colors: &[u8], edges: &[bool]) -> AnalyzedDfg {
    common::build_dag(n, colors, edges, MAX_NODES)
}

/// Third, independent implementation of §5.1 classification: collect every
/// antichain, bag its colors, aggregate in a `BTreeMap`.
fn naive_table(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> BTreeMap<Pattern, (u64, Vec<u64>)> {
    let mut map: BTreeMap<Pattern, (u64, Vec<u64>)> = BTreeMap::new();
    for a in enumerate_antichains(adfg, cfg) {
        let pat = Pattern::from_colors(a.iter().map(|&nd| adfg.dfg().color(nd)));
        let entry = map
            .entry(pat)
            .or_insert_with(|| (0, vec![0u64; adfg.len()]));
        entry.0 += 1;
        for &nd in a.iter() {
            entry.1[nd.index()] += 1;
        }
    }
    map
}

fn assert_table_matches_naive(adfg: &AnalyzedDfg, cfg: EnumerateConfig, what: &str) {
    let naive = naive_table(adfg, cfg);
    let mut tables = vec![
        ("build", PatternTable::build(adfg, cfg)),
        ("build_reference", PatternTable::build_reference(adfg, cfg)),
    ];
    if let Some((dag, _)) = PatternTable::build_state_dag(adfg, cfg) {
        tables.push(("build_state_dag", dag));
    }
    for (label, table) in tables {
        assert_eq!(table.len(), naive.len(), "{what}/{label}: pattern count");
        // BTreeMap iterates in Pattern order — the table's canonical order.
        for (s, (pat, (count, freq))) in table.iter().zip(naive.iter()) {
            assert_eq!(&s.pattern, pat, "{what}/{label}: pattern order");
            assert_eq!(&s.antichain_count, count, "{what}/{label}: count of {pat}");
            assert_eq!(&s.node_freq, freq, "{what}/{label}: freqs of {pat}");
        }
        // The cover matrix rows must mirror the nonzero frequency entries.
        let cover = table.cover();
        for (i, s) in table.iter().enumerate() {
            let row = cover.row(mps_patterns::PatternId(i as u32));
            for (n, &h) in s.node_freq.iter().enumerate() {
                let bit = row[n / 64] >> (n % 64) & 1 == 1;
                assert_eq!(bit, h > 0, "{what}/{label}: cover bit {n} of {}", s.pattern);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every build path equals the naive reference on random DAGs for the
    /// paper's span limits, sequentially and with `parallel` set.
    #[test]
    fn table_matches_naive_reference(
        n in 1usize..=MAX_NODES,
        colors in proptest::collection::vec(0u8..6, MAX_NODES..(MAX_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        for span_limit in [None, Some(0), Some(1), Some(3)] {
            for parallel in [false, true] {
                let cfg = EnumerateConfig { capacity: 5, span_limit, parallel };
                assert_table_matches_naive(
                    &adfg,
                    cfg,
                    &format!("n={n} span={span_limit:?} parallel={parallel}"),
                );
            }
        }
    }

    /// The acceptance property of the state DAG: across spans
    /// {None, 0, 1, 3} and C 1–8, the DAG alone, the DFS fold and the
    /// shipping build all equal the reference — stats, row order and
    /// cover matrix (`PatternTable` equality covers all three).
    #[test]
    fn every_path_matches_reference_across_capacities(
        n in 1usize..=SWEEP_NODES,
        colors in proptest::collection::vec(0u8..4, SWEEP_NODES..(SWEEP_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        for span_limit in [None, Some(0), Some(1), Some(3)] {
            for capacity in 1..=8 {
                let cfg = EnumerateConfig { capacity, span_limit, parallel: false };
                let what = format!("n={n} C{capacity} span={span_limit:?}");
                let reference = PatternTable::build_reference(&adfg, cfg);
                let (dag, _) = PatternTable::build_state_dag(&adfg, cfg).expect("fits the budget");
                prop_assert_eq!(&dag, &reference, "{}: state DAG", what);
                prop_assert_eq!(&PatternTable::build_dfs(&adfg, cfg), &reference, "{}: DFS fold", what);
                prop_assert_eq!(&PatternTable::build(&adfg, cfg), &reference, "{}: build", what);
            }
        }
    }

    /// Colors at and above the packable-alphabet boundary (index ≥ 26)
    /// route through the reference fallback — results must be identical to
    /// the naive oracle there too.
    #[test]
    fn table_matches_naive_reference_with_exotic_colors(
        n in 1usize..=12,
        colors in proptest::collection::vec(24u8..30, MAX_NODES..(MAX_NODES + 1)),
        edges in proptest::collection::vec(any::<bool>(), (MAX_NODES * MAX_NODES)..(MAX_NODES * MAX_NODES + 1)),
    ) {
        let adfg = build_dag(n, &colors, &edges);
        let cfg = EnumerateConfig { capacity: 5, span_limit: Some(2), parallel: false };
        assert_table_matches_naive(&adfg, cfg, &format!("exotic n={n}"));
    }
}
