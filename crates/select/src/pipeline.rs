//! End-to-end select + schedule pipeline and the Monte-Carlo random
//! baseline (Table 7's two columns).

use crate::config::SelectConfig;
use crate::random::random_patterns;
use crate::select::{select_patterns, SelectionOutcome};
use mps_dfg::AnalyzedDfg;
use mps_patterns::PatternSet;
use mps_scheduler::{schedule_multi_pattern, MultiPatternConfig, Schedule, ScheduleError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of the full pipeline.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PipelineConfig {
    /// Pattern selection parameters.
    pub select: SelectConfig,
    /// Scheduler parameters.
    pub sched: MultiPatternConfig,
}

/// Output of the full pipeline.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The selection outcome (patterns + per-round details).
    pub selection: SelectionOutcome,
    /// The schedule produced with the selected patterns.
    pub schedule: Schedule,
    /// Schedule length in cycles (the paper's metric).
    pub cycles: usize,
}

/// Select `Pdef` patterns with the §5.2 algorithm and schedule the graph
/// with them.
pub fn select_and_schedule(
    adfg: &AnalyzedDfg,
    cfg: &PipelineConfig,
) -> Result<PipelineResult, ScheduleError> {
    let selection = select_patterns(adfg, &cfg.select);
    let r = schedule_multi_pattern(adfg, &selection.patterns, cfg.sched)?;
    let cycles = r.schedule.len();
    Ok(PipelineResult {
        selection,
        schedule: r.schedule,
        cycles,
    })
}

/// Result of the random-pattern Monte-Carlo baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct RandomBaseline {
    /// Schedule length of each trial.
    pub cycles: Vec<usize>,
    /// The pattern set of the best trial.
    pub best_patterns: PatternSet,
}

impl RandomBaseline {
    /// Mean cycles over the trials (the number the paper tabulates).
    pub fn mean(&self) -> f64 {
        if self.cycles.is_empty() {
            return 0.0;
        }
        self.cycles.iter().sum::<usize>() as f64 / self.cycles.len() as f64
    }

    /// Best (minimum) cycles over the trials.
    pub fn best(&self) -> usize {
        self.cycles.iter().copied().min().unwrap_or(0)
    }

    /// Worst (maximum) cycles over the trials.
    pub fn worst(&self) -> usize {
        self.cycles.iter().copied().max().unwrap_or(0)
    }
}

/// Run the paper's random baseline: `trials` independent draws of `pdef`
/// random covering patterns, each scheduled; the paper reports the mean of
/// 10 trials. Trials run in order on the calling thread, each from its
/// own RNG derived from `seed`.
pub fn random_baseline(
    adfg: &AnalyzedDfg,
    pdef: usize,
    capacity: usize,
    trials: usize,
    seed: u64,
    sched: MultiPatternConfig,
) -> RandomBaseline {
    let colors = adfg.dfg().color_set();
    let runs: Vec<(usize, PatternSet)> = (0..trials as u64)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(seed ^ (t.wrapping_mul(0x9E3779B97F4A7C15)));
            let patterns = random_patterns(&colors, pdef, capacity, &mut rng);
            let cycles = schedule_multi_pattern(adfg, &patterns, sched)
                .map(|r| r.schedule.len())
                .expect("random covering patterns are always schedulable");
            (cycles, patterns)
        })
        .collect();
    let best_patterns = runs
        .iter()
        .min_by_key(|(c, _)| *c)
        .map(|(_, p)| p.clone())
        .unwrap_or_default();
    RandomBaseline {
        cycles: runs.into_iter().map(|(c, _)| c).collect(),
        best_patterns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_workloads::{fig2, fig4};

    fn pipe(pdef: usize) -> PipelineConfig {
        PipelineConfig {
            select: SelectConfig {
                pdef,
                parallel: false,
                ..Default::default()
            },
            sched: MultiPatternConfig::default(),
        }
    }

    #[test]
    fn pipeline_schedules_fig4() {
        let adfg = AnalyzedDfg::new(fig4());
        let r = select_and_schedule(&adfg, &pipe(2)).unwrap();
        r.schedule
            .validate(&adfg, Some(&r.selection.patterns))
            .unwrap();
        // {aa}, {bb}: a1 → {a2,a3} → wait, a1 ∥ a3: cycle1 {a1,a3}? a1,a3
        // parallel ✓ → cycle2 {a2} → cycle3 {b4,b5}. 3 cycles.
        assert_eq!(r.cycles, 3);
    }

    #[test]
    fn pipeline_fig4_pdef1_uses_fabricated_ab() {
        let adfg = AnalyzedDfg::new(fig4());
        let r = select_and_schedule(&adfg, &pipe(1)).unwrap();
        assert_eq!(r.selection.patterns.patterns()[0].to_string(), "ab");
        // One a and one b per cycle: a1,a3,a2 serialize (3 cycles; b slots
        // idle), then b4, b5 (2 cycles).
        assert_eq!(r.cycles, 5);
    }

    #[test]
    fn random_baseline_is_reproducible_and_schedulable() {
        let adfg = AnalyzedDfg::new(fig2());
        let a = random_baseline(&adfg, 2, 5, 10, 42, Default::default());
        let b = random_baseline(&adfg, 2, 5, 10, 42, Default::default());
        assert_eq!(a, b);
        assert_eq!(a.cycles.len(), 10);
        assert!(a.best() >= 5, "3DFT critical path is 5 cycles");
        assert!(a.mean() >= a.best() as f64);
        assert!(a.worst() >= a.mean() as usize);
    }

    #[test]
    fn selected_beats_or_matches_random_mean_on_fig2() {
        // The paper's headline claim (Table 7), on the paper's own graph.
        let adfg = AnalyzedDfg::new(fig2());
        for pdef in [2usize, 4] {
            let selected = select_and_schedule(&adfg, &pipe(pdef)).unwrap();
            let random = random_baseline(&adfg, pdef, 5, 10, 7, Default::default());
            assert!(
                (selected.cycles as f64) <= random.mean(),
                "Pdef={pdef}: selected {} vs random mean {}",
                selected.cycles,
                random.mean()
            );
        }
    }
}
