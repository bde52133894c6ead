//! Alternative selection priority functions — the paper's stated future
//! work ("we will go on working on the priority function to improve the
//! performance").
//!
//! The published Eq. 8 weighs every node equally, so on
//! multiplication-rich graphs the flood of multiplication antichains
//! drowns the (scarcer but schedule-critical) adder slots — the 5DFT
//! `Pdef = 1` miss documented in EXPERIMENTS.md. [`scarcity_priority`]
//! normalizes each node's contribution by how many antichains cover its
//! *color* overall, so a slot for a rare color is worth as much as a slot
//! for a ubiquitous one. [`select_with_priority`] reruns the Fig. 7 loop
//! with any [`PriorityFn`].

use crate::config::SelectConfig;
use mps_dfg::{AnalyzedDfg, ColorSet};
use mps_patterns::{Pattern, PatternSet, PatternStats, PatternTable};

/// A pluggable selection priority: `(stats, selected_freq, cfg) → score`.
/// Candidates scoring `<= 0` are skipped (like Eq. 9 violations).
pub type PriorityFn = fn(&PatternStats, &[u64], &SelectConfig, &ScarcityWeights) -> f64;

/// Per-color scarcity weights, precomputed once per table.
#[derive(Clone, Debug, Default)]
pub struct ScarcityWeights {
    /// `weight[color_index]` = `1 / (total antichain slots of this color)`,
    /// normalized so the most common color has weight 1.
    pub weight: Vec<f64>,
    /// The same weight expanded per node (index-aligned with `node_freq`).
    pub node_weight: Vec<f64>,
}

impl ScarcityWeights {
    /// Compute from a pattern table and the graph's node colors.
    pub fn compute(adfg: &AnalyzedDfg, table: &PatternTable) -> ScarcityWeights {
        let num_colors = adfg
            .dfg()
            .node_ids()
            .map(|v| adfg.dfg().color(v).index() + 1)
            .max()
            .unwrap_or(0);
        let mut mass = vec![0f64; num_colors];
        for stats in table.iter() {
            for (n, &h) in stats.node_freq.iter().enumerate() {
                if h > 0 {
                    let ci = adfg.dfg().color(mps_dfg::NodeId(n as u32)).index();
                    mass[ci] += h as f64;
                }
            }
        }
        let max = mass.iter().copied().fold(0.0f64, f64::max).max(1.0);
        let weight: Vec<f64> = mass
            .iter()
            .map(|&m| if m > 0.0 { max / m } else { 1.0 })
            .collect();
        let node_weight = adfg
            .dfg()
            .node_ids()
            .map(|v| {
                weight
                    .get(adfg.dfg().color(v).index())
                    .copied()
                    .unwrap_or(1.0)
            })
            .collect();
        ScarcityWeights {
            weight,
            node_weight,
        }
    }
}

/// Scarcity-weighted Eq. 8: each node's `h/(Σh + ε)` term is multiplied
/// by its color's scarcity weight. Uses the node→color map embedded in
/// the weights (index-aligned with `node_freq`), which requires the
/// caller to pass the weights computed from the same graph.
pub fn scarcity_priority(
    stats: &PatternStats,
    selected_freq: &[u64],
    cfg: &SelectConfig,
    w: &ScarcityWeights,
) -> f64 {
    let mut sum = 0.0;
    for (n, &h) in stats.node_freq.iter().enumerate() {
        if h == 0 {
            continue;
        }
        let denom = if cfg.balancing {
            selected_freq[n] as f64 + cfg.epsilon
        } else {
            cfg.epsilon
        };
        sum += w.node_weight[n] * h as f64 / denom;
    }
    if cfg.size_bonus {
        let size = stats.pattern.size() as f64;
        sum += cfg.alpha * size * size;
    }
    sum
}

/// Run the Fig. 7 loop with an arbitrary priority function.
pub fn select_with_priority(
    adfg: &AnalyzedDfg,
    cfg: &SelectConfig,
    priority: PriorityFn,
) -> PatternSet {
    let table = PatternTable::build(adfg, cfg.enumerate_config());
    let weights = ScarcityWeights::compute(adfg, &table);
    let complete = adfg.dfg().color_set();
    let stats: Vec<&PatternStats> = table.iter().collect();
    let mut alive = vec![true; stats.len()];
    let mut selected = PatternSet::new();
    let mut selected_colors = ColorSet::new();
    let mut selected_freq = vec![0u64; adfg.len()];

    for _round in 0..cfg.pdef {
        let remaining_after = cfg.pdef - selected.len() - 1;
        let mut best: Option<(f64, usize)> = None;
        for (i, s) in stats.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            if cfg.color_condition {
                let new_colors = s.pattern.color_set().difference(&selected_colors).len() as i64;
                let uncovered =
                    (complete.len() - complete.intersection(&selected_colors).len()) as i64;
                if new_colors < uncovered - (cfg.capacity as i64) * (remaining_after as i64) {
                    continue;
                }
            }
            let f = priority(s, &selected_freq, cfg, &weights);
            if f <= 0.0 {
                continue;
            }
            if best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, i));
            }
        }
        match best {
            Some((_, idx)) => {
                let chosen = stats[idx].pattern;
                for (dst, &h) in selected_freq.iter_mut().zip(stats[idx].node_freq.iter()) {
                    *dst += h;
                }
                selected_colors = selected_colors.union(&chosen.color_set());
                selected.insert(chosen);
                for (i, s) in stats.iter().enumerate() {
                    if alive[i] && s.pattern.is_subpattern_of(&chosen) {
                        alive[i] = false;
                    }
                }
            }
            None => {
                let uncovered: Vec<mps_dfg::Color> = complete
                    .difference(&selected_colors)
                    .iter()
                    .take(cfg.capacity)
                    .collect();
                if uncovered.is_empty() {
                    break;
                }
                let fab = Pattern::from_colors(uncovered);
                selected_colors = selected_colors.union(&fab.color_set());
                selected.insert(fab);
            }
        }
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_scheduler::schedule_multi_pattern;

    fn cfg(pdef: usize) -> SelectConfig {
        SelectConfig {
            pdef,
            span_limit: Some(1),
            parallel: false,
            ..Default::default()
        }
    }

    /// The published Eq. 8, adapted to the pluggable signature.
    fn eq8_variant(
        stats: &PatternStats,
        selected_freq: &[u64],
        cfg: &SelectConfig,
        _w: &ScarcityWeights,
    ) -> f64 {
        crate::priority::eq8_priority(stats, selected_freq, cfg)
    }

    #[test]
    fn eq8_variant_matches_plain_selection() {
        let adfg = AnalyzedDfg::new(mps_workloads::fig2());
        let plain = crate::select::select_patterns(&adfg, &cfg(3)).patterns;
        let via_variant = select_with_priority(&adfg, &cfg(3), eq8_variant);
        assert_eq!(plain, via_variant);
    }

    #[test]
    fn scarcity_still_covers_and_schedules() {
        for name in ["fig2", "dft5", "dct8"] {
            let adfg = AnalyzedDfg::new(mps_workloads::by_name(name).unwrap());
            for pdef in [1usize, 3] {
                let set = select_with_priority(&adfg, &cfg(pdef), scarcity_priority);
                assert!(set.covers(&adfg.dfg().color_set()), "{name}/{pdef}");
                schedule_multi_pattern(&adfg, &set, Default::default())
                    .unwrap_or_else(|e| panic!("{name}/{pdef}: {e}"));
            }
        }
    }

    #[test]
    fn scarcity_helps_the_dft5_pdef1_case() {
        // The documented Eq. 8 miss: 5DFT, span ≤ 1, Pdef = 1 picks a
        // mult-heavy pattern (20 cycles). Scarcity weighting must not do
        // worse.
        let adfg = AnalyzedDfg::new(mps_workloads::dft5());
        let plain = crate::select::select_patterns(&adfg, &cfg(1)).patterns;
        let scarce = select_with_priority(&adfg, &cfg(1), scarcity_priority);
        let cycles = |ps: &PatternSet| {
            schedule_multi_pattern(&adfg, ps, Default::default())
                .unwrap()
                .schedule
                .len()
        };
        assert!(cycles(&scarce) <= cycles(&plain));
    }

    #[test]
    fn weights_are_normalized() {
        let adfg = AnalyzedDfg::new(mps_workloads::fig2());
        let table = PatternTable::build(&adfg, cfg(3).enumerate_config());
        let w = ScarcityWeights::compute(&adfg, &table);
        assert!(w.weight.iter().all(|&x| x >= 1.0));
        assert!(w.weight.iter().any(|&x| (x - 1.0).abs() < 1e-9));
    }
}
