//! The pattern selection loop (paper Fig. 7).
//!
//! Two implementations live here:
//!
//! * [`select_from_table`] — the **cover engine**. Eq. 8 priorities only
//!   fall as selection proceeds (the balancing denominators only grow),
//!   so cached scores are upper bounds — exact until a winner's
//!   [`mps_patterns::CoverMatrix`] row intersects the candidate's own
//!   (`dirty`, one word-wise AND). Each round seeds the scan with the
//!   highest cached bound and then sweeps the survivors: a candidate
//!   whose bound cannot beat the running best is settled by one float
//!   compare, and only genuine contenders are rescored. Fabricated
//!   rounds invalidate nothing.
//! * [`select_from_table_reference`] — the full-rescore, dense-walk loop
//!   this crate shipped first, kept as the decision oracle (the property
//!   suite asserts outcome equality, priorities included bit-for-bit) and
//!   as the baseline the `throughput` bench's `select_rows` measure.

use crate::config::SelectConfig;
use crate::priority::eq8_priority;
use mps_dfg::AnalyzedDfg;
use mps_patterns::{PackedBag, Pattern, PatternId, PatternSet, PatternStats, PatternTable};
use serde::{Deserialize, Serialize};

/// What happened in one selection round.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RoundInfo {
    /// The pattern chosen this round.
    pub chosen: Pattern,
    /// Its Eq. 8 priority at selection time (0.0 for fabricated patterns).
    pub priority: f64,
    /// `true` if the pattern was fabricated from uncovered colors because
    /// no candidate had nonzero priority (Fig. 7, line 3).
    pub fabricated: bool,
    /// Candidates still alive when the round started.
    pub candidates_alive: usize,
}

/// Result of pattern selection.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SelectionOutcome {
    /// The selected patterns, in selection order (≤ `Pdef`; fewer only if
    /// the candidate pool ran dry *and* every color was already covered).
    pub patterns: PatternSet,
    /// Per-round details, for inspection and the worked-example tests.
    pub rounds: Vec<RoundInfo>,
}

impl SelectionOutcome {
    /// Number of fabricated patterns.
    pub fn fabricated_count(&self) -> usize {
        self.rounds.iter().filter(|r| r.fabricated).count()
    }
}

/// Packed keys of every candidate pattern, computed once per selection
/// run for the deletion scans of the fast engines.
pub(crate) fn packed_keys(stats: &[PatternStats]) -> Vec<Option<PackedBag>> {
    stats.iter().map(|s| s.pattern.packed()).collect()
}

/// The candidate-deletion test `candidate ⊑ chosen` of the fast engines:
/// SWAR packed-nibble inclusion ([`PackedBag::is_subbag_of`], two `u128`
/// operations) when both bags pack, the sorted-slice merge otherwise. The
/// `*_reference` loops keep the merge unconditionally, so the
/// decision-identity suites double as the SWAR differential oracle (the
/// direct one is `mps-patterns`' `prop_subbag`).
#[inline]
pub(crate) fn deleted_by(
    candidate: &Pattern,
    candidate_key: Option<PackedBag>,
    chosen: &Pattern,
    chosen_key: Option<PackedBag>,
) -> bool {
    match (candidate_key, chosen_key) {
        (Some(a), Some(b)) => a.is_subbag_of(b),
        _ => candidate.is_subpattern_of(chosen),
    }
}

/// Run the §5.2 selection algorithm against a prebuilt pattern table —
/// the cover engine (see the module docs; decision-identical to
/// [`select_from_table_reference`]).
///
/// Exposed separately from [`select_patterns`] so callers can reuse one
/// (expensive) enumeration across many `Pdef` values, as Table 7 does.
pub fn select_from_table(
    adfg: &AnalyzedDfg,
    table: &PatternTable,
    cfg: &SelectConfig,
) -> SelectionOutcome {
    let num_nodes = adfg.len();
    let stats: &[PatternStats] = table.stats();
    let cover = table.cover();
    let complete_colors = adfg.dfg().color_set(); // the paper's L
    let mut selected_colors = mps_dfg::ColorSet::new(); // Ls
    let mut selected = PatternSet::new(); // Ps
    let mut selected_freq = vec![0u64; num_nodes]; // Σ_{Ps} h(p̄_i, ·)

    // `pdef` comes off the wire, so it only caps the capacity hint:
    // rounds past the candidate count are rare, and the vector grows.
    let mut rounds = Vec::with_capacity(cfg.pdef.min(stats.len()));

    // Eq. 8 priorities are monotone non-increasing over a run: selection
    // only ever *grows* the balancing denominators (fabrication changes
    // nothing), so a score cached in an earlier round is an **upper
    // bound** on the candidate's current value — exact unless a later
    // winner touched one of its nodes (`dirty`, detected in words over
    // the cover rows). The per-round argmax therefore scans cached
    // scores and recomputes a candidate only when its bound still beats
    // the best exact value found so far: the true maximum can never be
    // skipped (its bound dominates every exact value), most candidates
    // fall to one float compare, and rescoring uses the reference's own
    // [`eq8_priority`], so the winning priorities are bit-identical by
    // construction.
    let mut scores: Vec<f64> = stats
        .iter()
        .map(|s| eq8_priority(s, &selected_freq, cfg))
        .collect();
    let mut dirty = vec![false; stats.len()];
    let packed = packed_keys(stats);
    // Alive candidates, ascending (kept sorted by `retain`): scan order
    // matches the reference's, so "strict `>` keeps the earliest" applies
    // verbatim.
    let mut alive: Vec<u32> = (0..stats.len() as u32).collect();
    let mut winner_row: Vec<u64> = Vec::new();
    // The next round's seed: a candidate holding the maximum cached bound
    // among the alive, maintained by the post-selection bookkeeping pass
    // (cached bounds only change inside sweeps, so it stays valid).
    let mut next_seed: Option<u32> = alive
        .iter()
        .copied()
        .max_by(|&a, &b| scores[a as usize].total_cmp(&scores[b as usize]));

    for _round in 0..cfg.pdef {
        let remaining_after_this = cfg.pdef - selected.len() - 1;
        let alive_count = alive.len();

        // One candidate at a time: `settle` resolves a candidate exactly —
        // rescore if dirty, then replace the running best under the
        // reference's rule (strictly greater, or equal with a smaller id:
        // the "earliest on ties" order), gated by the Eq. 9 filter.
        struct Scan<'a> {
            scores: &'a mut [f64],
            dirty: &'a mut [bool],
            best: Option<(f64, PatternId)>,
        }
        let mut scan = Scan {
            scores: &mut scores,
            dirty: &mut dirty,
            best: None,
        };
        let settle = |scan: &mut Scan, iu: u32| {
            let i = iu as usize;
            if scan.dirty[i] {
                scan.scores[i] = eq8_priority(&stats[i], &selected_freq, cfg);
                scan.dirty[i] = false;
            }
            let f = scan.scores[i];
            // Cheap filters first, the Eq. 9 condition only for a
            // candidate that would actually take the lead — same outcome
            // as the reference's condition-first order, since a filtered
            // candidate never becomes the best either way.
            if f <= 0.0
                || !scan
                    .best
                    .is_none_or(|(bf, bid)| f > bf || (f == bf && PatternId(iu) < bid))
            {
                return;
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
                return; // priority forced to zero this round (Eq. 9)
            }
            scan.best = Some((f, PatternId(iu)));
        };
        // Seed: settle the highest cached bound first. It is the likeliest
        // true maximum, and with the running best already near the top the
        // sweep below skips nearly everyone on the one-compare bound test.
        if let Some(seed) = next_seed {
            if scan.scores[seed as usize] > 0.0 {
                settle(&mut scan, seed);
            }
        }
        // Sweep: a candidate whose cached bound does not beat the running
        // best cannot win (exact ≤ cached); `<` plus the id comparison on
        // equality mirrors the reference's tie-break exactly.
        for &iu in &alive {
            let i = iu as usize;
            let skip = scan.scores[i] <= 0.0
                || scan.best.is_some_and(|(bf, bid)| {
                    scan.scores[i] < bf || (scan.scores[i] == bf && PatternId(iu) >= bid)
                });
            if skip {
                continue;
            }
            settle(&mut scan, iu);
        }
        let best = scan.best;

        match best {
            Some((f, id)) => {
                let winner = &stats[id.index()];
                let chosen = winner.pattern;
                for n in mps_patterns::BitIter::new(cover.row(id)) {
                    selected_freq[n] += winner.node_freq[n];
                }
                selected_colors = selected_colors.union(&chosen.color_set());
                selected.insert(chosen);
                // One bookkeeping pass: delete the chosen pattern and all
                // its subpatterns, mark dirty whatever shares a node with
                // the winner (the only candidates whose balancing
                // denominators moved; a bound ≤ 0 can never recover, so
                // it needs no invalidation), and track the surviving
                // maximum cached bound as the next round's seed.
                cover.copy_row_into(id, &mut winner_row);
                let chosen_key = packed[id.index()];
                next_seed = None;
                alive.retain(|&iu| {
                    let i = iu as usize;
                    if deleted_by(&stats[i].pattern, packed[i], &chosen, chosen_key) {
                        return false;
                    }
                    if scores[i] > 0.0 && cover.intersects(PatternId(iu), &winner_row) {
                        dirty[i] = true;
                    }
                    if next_seed.is_none_or(|s| scores[i] > scores[s as usize]) {
                        next_seed = Some(iu);
                    }
                    true
                });
                rounds.push(RoundInfo {
                    chosen,
                    priority: f,
                    fabricated: false,
                    candidates_alive: alive_count,
                });
            }
            None => {
                // Fabricate from uncovered colors (Fig. 7 line 3).
                let mut slots: Vec<mps_dfg::Color> = complete_colors
                    .difference(&selected_colors)
                    .iter()
                    .take(cfg.capacity)
                    .collect();
                if slots.is_empty() {
                    // Everything is covered and no candidate adds value:
                    // selecting more patterns cannot help. Stop early.
                    break;
                }
                if cfg.pad_fabricated {
                    pad_to_capacity(&mut slots, cfg.capacity, adfg);
                }
                let fab = Pattern::from_colors(slots);
                selected_colors = selected_colors.union(&fab.color_set());
                selected.insert(fab);
                let fab_key = fab.packed();
                next_seed = None;
                alive.retain(|&iu| {
                    let i = iu as usize;
                    if deleted_by(&stats[i].pattern, packed[i], &fab, fab_key) {
                        return false;
                    }
                    if next_seed.is_none_or(|s| scores[i] > scores[s as usize]) {
                        next_seed = Some(iu);
                    }
                    true
                });
                // A fabricated pattern has no antichains: `selected_freq`
                // is unchanged and every cached score stays valid.
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

/// The pre-cover-engine §5.2 loop: every round recomputes every alive
/// candidate's priority with the dense per-node walk. Kept as the
/// decision oracle for [`select_from_table`] and the selection-stage
/// baseline of the `throughput` bench.
pub fn select_from_table_reference(
    adfg: &AnalyzedDfg,
    table: &PatternTable,
    cfg: &SelectConfig,
) -> SelectionOutcome {
    let num_nodes = adfg.len();
    let complete_colors = adfg.dfg().color_set(); // the paper's L
    let mut selected_colors = mps_dfg::ColorSet::new(); // Ls
    let mut selected = PatternSet::new(); // Ps
    let mut selected_freq = vec![0u64; num_nodes]; // Σ_{Ps} h(p̄_i, ·)
                                                   // Candidate liveness and statistics, both indexed by `PatternId` — the
                                                   // round loop below never touches a hash map.
    let mut alive: Vec<bool> = vec![true; table.len()];
    let stats: &[PatternStats] = table.stats();
    let mut rounds = Vec::with_capacity(cfg.pdef.min(stats.len()));

    for _round in 0..cfg.pdef {
        let remaining_after_this = cfg.pdef - selected.len() - 1;
        let alive_count = alive.iter().filter(|&&a| a).count();

        // Find the best candidate with nonzero priority.
        let mut best: Option<(f64, PatternId)> = None;
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
                continue; // priority forced to zero (Eq. 9 violated)
            }
            let f = eq8_priority(s, &selected_freq, cfg);
            if f <= 0.0 {
                continue;
            }
            // Strict `>` keeps the earliest (canonical-order) pattern on
            // exact ties, making selection deterministic.
            if best.is_none_or(|(bf, _)| f > bf) {
                best = Some((f, PatternId(i as u32)));
            }
        }

        match best {
            Some((f, id)) => {
                let winner = &stats[id.index()];
                let chosen = winner.pattern;
                for (dst, &h) in selected_freq.iter_mut().zip(winner.node_freq.iter()) {
                    *dst += h;
                }
                selected_colors = selected_colors.union(&chosen.color_set());
                selected.insert(chosen);
                // Delete the chosen pattern and all its subpatterns.
                for (i, s) in stats.iter().enumerate() {
                    if alive[i] && s.pattern.is_subpattern_of(&chosen) {
                        alive[i] = false;
                    }
                }
                rounds.push(RoundInfo {
                    chosen,
                    priority: f,
                    fabricated: false,
                    candidates_alive: alive_count,
                });
            }
            None => {
                // Fabricate from uncovered colors (Fig. 7 line 3).
                let mut slots: Vec<mps_dfg::Color> = complete_colors
                    .difference(&selected_colors)
                    .iter()
                    .take(cfg.capacity)
                    .collect();
                if slots.is_empty() {
                    // Everything is covered and no candidate adds value:
                    // selecting more patterns cannot help. Stop early.
                    break;
                }
                if cfg.pad_fabricated {
                    pad_to_capacity(&mut slots, cfg.capacity, adfg);
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

/// Fill `slots` up to `capacity` by repeatedly granting the next slot to
/// the color with the highest remaining demand per slot (the per-color
/// lower-bound heuristic): color `c` with `N_c` nodes and `k_c` slots so
/// far needs at least `⌈N_c / k_c⌉` cycles, so the padder always grows the
/// current bottleneck.
fn pad_to_capacity(slots: &mut Vec<mps_dfg::Color>, capacity: usize, adfg: &AnalyzedDfg) {
    let hist = adfg.dfg().color_histogram();
    while slots.len() < capacity {
        let best = slots
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .max_by_key(|&&c| {
                let count = hist.get(c.index()).copied().unwrap_or(0);
                let k = slots.iter().filter(|&&x| x == c).count();
                // ceil(count / k) scaled to avoid float; k ≥ 1 here.
                count.div_ceil(k)
            })
            .copied();
        match best {
            Some(c) => slots.push(c),
            None => break,
        }
    }
}

/// Eq. 9: `|Ln(p̄)| ≥ |L| − |Ls| − C·(Pdef − |Ps| − 1)`.
pub(crate) fn color_condition_holds(
    pattern: &Pattern,
    complete: &mps_dfg::ColorSet,
    selected: &mps_dfg::ColorSet,
    capacity: usize,
    remaining_after_this: usize,
) -> bool {
    let new_colors = pattern.color_set().difference(selected).len() as i64;
    let uncovered = (complete.len() - complete.intersection(selected).len()) as i64;
    let rhs = uncovered - (capacity as i64) * (remaining_after_this as i64);
    new_colors >= rhs
}

/// Enumerate antichains, classify them, and select `Pdef` patterns — the
/// complete §5 algorithm (classification via the fast interned table
/// build, selection via the cover engine).
pub fn select_patterns(adfg: &AnalyzedDfg, cfg: &SelectConfig) -> SelectionOutcome {
    let table = PatternTable::build(adfg, cfg.enumerate_config());
    select_from_table(adfg, &table, cfg)
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

    /// The paper's §5.2 worked example, both rounds: select {aa} (f=88),
    /// delete its subpattern {a}, then select {bb} (f=84).
    #[test]
    fn fig4_pdef2_selects_aa_then_bb() {
        let adfg = AnalyzedDfg::new(fig4());
        let out = select_patterns(&adfg, &cfg(2));
        let strs: Vec<String> = out.patterns.iter().map(|p| p.to_string()).collect();
        assert_eq!(strs, vec!["aa", "bb"]);
        assert_eq!(out.rounds[0].priority, 88.0);
        assert_eq!(out.rounds[1].priority, 84.0);
        assert_eq!(out.fabricated_count(), 0);
    }

    /// The paper's Pdef = 1 example: no single-color candidate satisfies
    /// the color number condition, so {ab} is fabricated.
    #[test]
    fn fig4_pdef1_fabricates_ab() {
        let adfg = AnalyzedDfg::new(fig4());
        let out = select_patterns(&adfg, &cfg(1));
        assert_eq!(out.patterns.len(), 1);
        assert_eq!(out.patterns.patterns()[0].to_string(), "ab");
        assert!(out.rounds[0].fabricated);
    }

    #[test]
    fn without_color_condition_pdef1_picks_aa_and_strands_b() {
        let adfg = AnalyzedDfg::new(fig4());
        let out = select_patterns(
            &adfg,
            &SelectConfig {
                color_condition: false,
                ..cfg(1)
            },
        );
        assert_eq!(out.patterns.patterns()[0].to_string(), "aa");
        // …which would make scheduling fail: the ablation benches measure
        // exactly this failure mode.
        assert!(!out.patterns.covers(&adfg.dfg().color_set()));
    }

    #[test]
    fn selected_patterns_always_cover_all_colors() {
        for pdef in 1..=5 {
            let adfg = AnalyzedDfg::new(fig2());
            let out = select_patterns(&adfg, &cfg(pdef));
            assert!(
                out.patterns.covers(&adfg.dfg().color_set()),
                "Pdef={pdef}: colors must be covered"
            );
            assert!(out.patterns.len() <= pdef);
        }
    }

    #[test]
    fn subpatterns_are_deleted() {
        let adfg = AnalyzedDfg::new(fig4());
        let out = select_patterns(&adfg, &cfg(4));
        // {a} ⊑ {aa} and {b} ⊑ {bb} can never be selected after their
        // superpatterns.
        let strs: Vec<String> = out.patterns.iter().map(|p| p.to_string()).collect();
        assert!(!strs.contains(&"a".to_string()));
        assert!(!strs.contains(&"b".to_string()));
    }

    #[test]
    fn early_stop_when_pool_dry_and_covered() {
        // Fig. 4 has only 4 candidate patterns, 2 survive subpattern
        // deletion; with Pdef = 4 selection stops after exhausting them.
        let adfg = AnalyzedDfg::new(fig4());
        let out = select_patterns(&adfg, &cfg(4));
        assert_eq!(out.patterns.len(), 2);
        assert!(out.patterns.covers(&adfg.dfg().color_set()));
    }

    #[test]
    fn deterministic() {
        let adfg = AnalyzedDfg::new(fig2());
        let a = select_patterns(&adfg, &cfg(3));
        let b = select_patterns(&adfg, &cfg(3));
        assert_eq!(a, b);
    }

    #[test]
    fn span_limit_changes_candidates_not_coverage() {
        let adfg = AnalyzedDfg::new(fig2());
        for limit in [0u32, 1, 2] {
            let out = select_patterns(
                &adfg,
                &SelectConfig {
                    span_limit: Some(limit),
                    ..cfg(4)
                },
            );
            assert!(
                out.patterns.covers(&adfg.dfg().color_set()),
                "limit={limit}"
            );
        }
    }

    /// Cover engine vs reference, every toggle combination —
    /// outcomes must match exactly, priorities bit-for-bit. (Random-DAG
    /// coverage lives in the `prop_select_cover` suite.)
    #[test]
    fn engine_matches_reference_across_toggles() {
        for dfg in [fig2(), fig4()] {
            let adfg = AnalyzedDfg::new(dfg);
            let table = PatternTable::build(
                &adfg,
                mps_patterns::EnumerateConfig {
                    parallel: false,
                    ..Default::default()
                },
            );
            for pdef in [1usize, 2, 4, 6] {
                for (size_bonus, balancing, color_condition, pad) in [
                    (true, true, true, false),
                    (false, true, true, false),
                    (true, false, true, true),
                    (true, true, false, false),
                    (false, false, false, true),
                ] {
                    let scfg = SelectConfig {
                        pdef,
                        size_bonus,
                        balancing,
                        color_condition,
                        pad_fabricated: pad,
                        ..Default::default()
                    };
                    let fast = select_from_table(&adfg, &table, &scfg);
                    let slow = select_from_table_reference(&adfg, &table, &scfg);
                    assert_eq!(
                        fast, slow,
                        "pdef={pdef} bonus={size_bonus} bal={balancing} \
                         cond={color_condition} pad={pad}"
                    );
                }
            }
        }
    }

    /// A `pdef` far past the candidate count selects what `pdef` equal to
    /// the candidate count does, without sizing anything by it.
    #[test]
    fn a_huge_pdef_selects_as_the_candidate_count_does() {
        let adfg = AnalyzedDfg::new(fig2());
        let table = PatternTable::build(&adfg, cfg(1).enumerate_config());
        for select in [select_from_table, select_from_table_reference] {
            let bounded = select(&adfg, &table, &cfg(table.len()));
            let huge = select(&adfg, &table, &cfg(1_000_000_000));
            assert_eq!(huge, bounded);
        }
    }
}
