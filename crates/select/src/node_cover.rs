//! Node-coverage greedy selection, a set-cover-flavoured baseline.
//!
//! Eq. 8 maximizes *antichain mass* with a balancing denominator; a simpler
//! instinct is classic greedy set cover over **nodes**: each round, pick the
//! pattern whose antichains touch the most nodes that no selected pattern
//! touches yet. Once every node is touched the tie-breaks take over (total
//! antichain count, then canonical order). The paper's color number
//! condition (Eq. 9) and the Fig. 7 fabrication fallback are kept, so the
//! result is always schedulable.
//!
//! This baseline separates two effects that Eq. 8 mixes: *where* patterns
//! apply (node coverage) and *how often* they apply (antichain counts). The
//! cross-selector bench (`mps-bench --bin selectors`) quantifies what the
//! mixing buys.
//!
//! [`node_cover_from_table`] is the cover-engine implementation: the
//! covered-node set is a packed bitset and a candidate's gain is one
//! ANDNOT+popcount over its [`mps_patterns::CoverMatrix`] row. Gains are
//! monotone non-increasing (the covered set only grows), so — like the
//! Eq. 8 cover engine — the per-round argmax runs lazily over a max-heap
//! of cached gains, recomputing a candidate only when a previous winner's
//! row intersected its own. [`node_cover_from_table_reference`] keeps the
//! original per-node scan as the decision oracle.

use crate::config::SelectConfig;
use crate::select::{color_condition_holds, deleted_by, packed_keys, RoundInfo, SelectionOutcome};
use mps_dfg::AnalyzedDfg;
use mps_patterns::{Pattern, PatternId, PatternSet, PatternTable};

/// Max-heap entry: highest `(gain, count)` first, ties toward the
/// smallest id — the reference scan's strict-`>` tie-break.
#[derive(Clone, Copy, PartialEq, Eq)]
struct GainEntry {
    gain: u64,
    count: u64,
    id: u32,
}

impl PartialOrd for GainEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for GainEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.gain, self.count)
            .cmp(&(other.gain, other.count))
            .then(other.id.cmp(&self.id))
    }
}

/// Greedy node-coverage selection against a prebuilt pattern table — the
/// cover engine (decision-identical to
/// [`node_cover_from_table_reference`]).
pub fn node_cover_from_table(
    adfg: &AnalyzedDfg,
    table: &PatternTable,
    cfg: &SelectConfig,
) -> SelectionOutcome {
    let complete_colors = adfg.dfg().color_set();
    let stats = table.stats();
    let cover = table.cover();
    let mut selected_colors = mps_dfg::ColorSet::new();
    let mut selected = PatternSet::new();
    let mut covered = cover.blank_cover(); // nodes touched by Ps, packed
    let mut rounds = Vec::with_capacity(cfg.pdef);

    // Gains only fall (the covered set only grows; fabrication covers
    // nothing), so cached gains are upper bounds and the lazy-greedy heap
    // argmax of the Eq. 8 engine applies verbatim — with the round-
    // invariant antichain count as the secondary key.
    let gain_one = |i: u32, covered: &[u64]| cover.count_uncovered(PatternId(i), covered) as u64;
    let mut gains: Vec<u64> = (0..stats.len() as u32)
        .map(|i| gain_one(i, &covered))
        .collect();
    let mut heap = std::collections::BinaryHeap::with_capacity(stats.len());
    for (i, &g) in gains.iter().enumerate() {
        heap.push(GainEntry {
            gain: g,
            count: stats[i].antichain_count,
            id: i as u32,
        });
    }
    let packed = packed_keys(stats);
    let mut dirty = vec![false; stats.len()];
    let mut dead = vec![false; stats.len()];
    let mut alive: Vec<u32> = (0..stats.len() as u32).collect();
    let mut winner_row: Vec<u64> = Vec::new();
    let mut aside: Vec<GainEntry> = Vec::new();

    for _round in 0..cfg.pdef {
        let remaining_after_this = cfg.pdef - selected.len() - 1;
        let alive_count = alive.len();

        let mut best: Option<(u64, PatternId)> = None;
        while let Some(entry) = heap.pop() {
            let i = entry.id as usize;
            if dead[i] || entry.gain != gains[i] {
                continue; // deleted, or superseded by a fresher entry
            }
            if dirty[i] {
                let g = gain_one(entry.id, &covered);
                dirty[i] = false;
                gains[i] = g;
                heap.push(GainEntry { gain: g, ..entry });
                continue;
            }
            if cfg.color_condition
                && !color_condition_holds(
                    &stats[i].pattern,
                    &complete_colors,
                    &selected_colors,
                    cfg.capacity,
                    remaining_after_this,
                )
            {
                aside.push(entry); // Eq. 9 violated this round only
                continue;
            }
            best = Some((entry.gain, PatternId(entry.id)));
            break;
        }
        heap.extend(aside.drain(..));

        match best {
            Some((new_nodes, id)) => {
                let chosen = stats[id.index()].pattern;
                cover.cover_with(id, &mut covered);
                selected_colors = selected_colors.union(&chosen.color_set());
                selected.insert(chosen);
                let chosen_key = packed[id.index()];
                alive.retain(|&i| {
                    let gone = deleted_by(
                        &stats[i as usize].pattern,
                        packed[i as usize],
                        &chosen,
                        chosen_key,
                    );
                    if gone {
                        dead[i as usize] = true;
                    }
                    !gone
                });
                cover.copy_row_into(id, &mut winner_row);
                for &i in &alive {
                    if cover.intersects(PatternId(i), &winner_row) {
                        dirty[i as usize] = true;
                    }
                }
                rounds.push(RoundInfo {
                    chosen,
                    priority: new_nodes as f64,
                    fabricated: false,
                    candidates_alive: alive_count,
                });
            }
            None => {
                let slots: Vec<mps_dfg::Color> = complete_colors
                    .difference(&selected_colors)
                    .iter()
                    .take(cfg.capacity)
                    .collect();
                if slots.is_empty() {
                    break;
                }
                let fab = Pattern::from_colors(slots);
                selected_colors = selected_colors.union(&fab.color_set());
                selected.insert(fab);
                let fab_key = fab.packed();
                alive.retain(|&i| {
                    let gone = deleted_by(
                        &stats[i as usize].pattern,
                        packed[i as usize],
                        &fab,
                        fab_key,
                    );
                    if gone {
                        dead[i as usize] = true;
                    }
                    !gone
                });
                // Fabrication covers no antichains: `covered` is unchanged
                // and every cached gain stays valid.
                rounds.push(RoundInfo {
                    chosen: fab,
                    priority: 0.0,
                    fabricated: true,
                    candidates_alive: alive_count,
                });
            }
        }
    }

    SelectionOutcome {
        patterns: selected,
        rounds,
    }
}

/// The pre-cover-engine implementation: every round rescans every alive
/// candidate's dense frequency row against a `Vec<bool>` covered map.
/// Kept as the decision oracle for [`node_cover_from_table`] and the
/// baseline of the `throughput` bench's selection rows.
pub fn node_cover_from_table_reference(
    adfg: &AnalyzedDfg,
    table: &PatternTable,
    cfg: &SelectConfig,
) -> SelectionOutcome {
    let num_nodes = adfg.len();
    let complete_colors = adfg.dfg().color_set();
    let mut selected_colors = mps_dfg::ColorSet::new();
    let mut selected = PatternSet::new();
    let mut covered = vec![false; num_nodes]; // nodes touched by Ps
    let mut alive: Vec<bool> = vec![true; table.len()];
    let stats: Vec<&mps_patterns::PatternStats> = table.iter().collect();
    let mut rounds = Vec::with_capacity(cfg.pdef);

    for _round in 0..cfg.pdef {
        let remaining_after_this = cfg.pdef - selected.len() - 1;
        let alive_count = alive.iter().filter(|&&a| a).count();

        let mut best: Option<((u64, u64), usize)> = None;
        for (i, s) in stats.iter().enumerate() {
            if !alive[i] {
                continue;
            }
            if cfg.color_condition
                && !color_condition_holds(
                    &s.pattern,
                    &complete_colors,
                    &selected_colors,
                    cfg.capacity,
                    remaining_after_this,
                )
            {
                continue;
            }
            let new_nodes = s
                .node_freq
                .iter()
                .zip(covered.iter())
                .filter(|(&h, &c)| h > 0 && !c)
                .count() as u64;
            let key = (new_nodes, s.antichain_count);
            if best.is_none_or(|(bk, _)| key > bk) {
                best = Some((key, i));
            }
        }

        match best {
            Some(((new_nodes, _), idx)) => {
                let chosen = stats[idx].pattern;
                for (c, &h) in covered.iter_mut().zip(stats[idx].node_freq.iter()) {
                    *c |= h > 0;
                }
                selected_colors = selected_colors.union(&chosen.color_set());
                selected.insert(chosen);
                for (i, s) in stats.iter().enumerate() {
                    if alive[i] && s.pattern.is_subpattern_of(&chosen) {
                        alive[i] = false;
                    }
                }
                rounds.push(RoundInfo {
                    chosen,
                    priority: new_nodes as f64,
                    fabricated: false,
                    candidates_alive: alive_count,
                });
            }
            None => {
                let slots: Vec<mps_dfg::Color> = complete_colors
                    .difference(&selected_colors)
                    .iter()
                    .take(cfg.capacity)
                    .collect();
                if slots.is_empty() {
                    break;
                }
                let fab = Pattern::from_colors(slots);
                selected_colors = selected_colors.union(&fab.color_set());
                selected.insert(fab);
                for (i, s) in stats.iter().enumerate() {
                    if alive[i] && s.pattern.is_subpattern_of(&fab) {
                        alive[i] = false;
                    }
                }
                rounds.push(RoundInfo {
                    chosen: fab,
                    priority: 0.0,
                    fabricated: true,
                    candidates_alive: alive_count,
                });
            }
        }
    }

    SelectionOutcome {
        patterns: selected,
        rounds,
    }
}

/// Enumerate, classify, and select by greedy node coverage.
pub fn node_cover_greedy(adfg: &AnalyzedDfg, cfg: &SelectConfig) -> SelectionOutcome {
    let table = PatternTable::build(adfg, cfg.enumerate_config());
    node_cover_from_table(adfg, &table, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_workloads::{fig2, fig4};

    fn cfg(pdef: usize) -> SelectConfig {
        SelectConfig {
            pdef,
            parallel: false,
            ..Default::default()
        }
    }

    #[test]
    fn covers_all_colors() {
        let adfg = AnalyzedDfg::new(fig2());
        for pdef in 1..=5 {
            let out = node_cover_greedy(&adfg, &cfg(pdef));
            assert!(out.patterns.covers(&adfg.dfg().color_set()), "pdef {pdef}");
            assert!(out.patterns.len() <= pdef);
        }
    }

    #[test]
    fn fig4_first_pick_touches_most_nodes() {
        // {aa} touches a1,a2,a3 (3 nodes); {bb} touches 2; singletons tie
        // with their superpatterns on nodes but lose on antichain count...
        // {a} also touches 3 nodes with 3 antichains vs {aa}'s 2. Node
        // cover prefers {a} by count tie then antichain count 3 > 2.
        let adfg = AnalyzedDfg::new(fig4());
        let out = node_cover_greedy(&adfg, &cfg(2));
        assert_eq!(out.rounds[0].chosen.to_string(), "a");
        assert!(out.patterns.covers(&adfg.dfg().color_set()));
    }

    #[test]
    fn pdef1_fabricates_like_the_paper() {
        let adfg = AnalyzedDfg::new(fig4());
        let out = node_cover_greedy(&adfg, &cfg(1));
        assert_eq!(out.patterns.patterns()[0].to_string(), "ab");
        assert!(out.rounds[0].fabricated);
    }

    #[test]
    fn schedulable_end_to_end() {
        let adfg = AnalyzedDfg::new(fig2());
        let out = node_cover_greedy(&adfg, &cfg(3));
        let r = mps_scheduler::schedule_multi_pattern(
            &adfg,
            &out.patterns,
            mps_scheduler::MultiPatternConfig::default(),
        )
        .unwrap();
        r.schedule.validate(&adfg, Some(&out.patterns)).unwrap();
    }

    #[test]
    fn deterministic() {
        let adfg = AnalyzedDfg::new(fig2());
        assert_eq!(
            node_cover_greedy(&adfg, &cfg(3)).patterns,
            node_cover_greedy(&adfg, &cfg(3)).patterns
        );
    }

    /// Cover engine vs dense oracle on the worked examples, with and
    /// without the color condition.
    #[test]
    fn engine_matches_reference() {
        for dfg in [fig2(), fig4()] {
            let adfg = AnalyzedDfg::new(dfg);
            let table = mps_patterns::PatternTable::build(
                &adfg,
                mps_patterns::EnumerateConfig {
                    parallel: false,
                    ..Default::default()
                },
            );
            for pdef in [1usize, 2, 3, 5] {
                for color_condition in [true, false] {
                    let scfg = SelectConfig {
                        pdef,
                        color_condition,
                        ..Default::default()
                    };
                    assert_eq!(
                        node_cover_from_table(&adfg, &table, &scfg),
                        node_cover_from_table_reference(&adfg, &table, &scfg),
                        "pdef={pdef} cond={color_condition}"
                    );
                }
            }
        }
    }
}
