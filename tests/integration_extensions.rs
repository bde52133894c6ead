//! Cross-crate integration tests for the post-paper extensions: the text
//! parser, beam scheduler, switch-aware scheduler, annealing selector,
//! node-cover selector, modulo scheduling and throughput selection — each
//! exercised through the public `mps` API on the full workload suite.

use mps::prelude::*;
use mps::scheduler::{
    count_switches, schedule_beam, schedule_switch_aware, BeamConfig, SwitchAwareConfig,
};
use mps::select::{node_cover_greedy, select_and_anneal, AnnealConfig};
use proptest::prelude::*;

/// Workloads that exercise every generator family, kept small enough that
/// the whole file runs in seconds.
const SUITE: &[&str] = &[
    "fig2",
    "fig4",
    "dft3",
    "dft5",
    "fir8",
    "fir8-chain",
    "iir3",
    "dct8",
    "matmul3",
    "fft8",
    "conv3",
    "horner5",
    "lattice5",
    "cordic6",
    "cholesky4",
    "sobel3",
];

fn load(name: &str) -> AnalyzedDfg {
    AnalyzedDfg::new(mps::workloads::by_name(name).expect(name))
}

fn base_select(pdef: usize) -> SelectConfig {
    SelectConfig {
        pdef,
        span_limit: Some(1),
        parallel: false,
        ..Default::default()
    }
}

// ---------------------------------------------------------------- parser

#[test]
fn text_format_round_trips_every_workload() {
    for name in SUITE {
        let g = mps::workloads::by_name(name).unwrap();
        let text = mps::dfg::to_text(&g);
        let back = mps::dfg::parse_text(&text).expect(name);
        assert_eq!(g, back, "{name} must round-trip through the text format");
    }
}

#[test]
fn parsed_graph_runs_the_full_pipeline() {
    let g = mps::workloads::by_name("dft3").unwrap();
    let reparsed = mps::dfg::parse_text(&mps::dfg::to_text(&g)).unwrap();
    let adfg = AnalyzedDfg::new(reparsed);
    let r = select_and_schedule(
        &adfg,
        &PipelineConfig {
            select: base_select(3),
            sched: MultiPatternConfig::default(),
        },
    )
    .unwrap();
    r.schedule
        .validate(&adfg, Some(&r.selection.patterns))
        .unwrap();
}

// ------------------------------------------------------------------ beam

#[test]
fn beam_never_loses_to_greedy_on_suite() {
    for name in SUITE {
        let adfg = load(name);
        let patterns = mps::select::select_patterns(&adfg, &base_select(4)).patterns;
        let greedy = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .expect("selection covers all colors")
            .schedule;
        let beam = schedule_beam(
            &adfg,
            &patterns,
            BeamConfig {
                width: 8,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            beam.schedule.len() <= greedy.len(),
            "{name}: beam {} > greedy {}",
            beam.schedule.len(),
            greedy.len()
        );
        beam.schedule.validate(&adfg, Some(&patterns)).unwrap();
        // The improvement flag must be consistent with the outcome.
        assert_eq!(
            beam.improved_on_greedy,
            beam.schedule.len() < greedy.len(),
            "{name}"
        );
    }
}

#[test]
fn beam_respects_theorem1_floor() {
    // No beam width can beat the pattern-free lower bound.
    for name in ["fig2", "dct8", "cordic6"] {
        let adfg = load(name);
        let patterns = mps::select::select_patterns(&adfg, &base_select(4)).patterns;
        let beam = schedule_beam(&adfg, &patterns, BeamConfig::default()).unwrap();
        let floor = (adfg.levels().critical_path_len() as usize).max(adfg.len().div_ceil(5));
        assert!(beam.schedule.len() >= floor, "{name}");
    }
}

// --------------------------------------------------------------- switches

#[test]
fn switch_aware_pareto_on_suite() {
    for name in SUITE {
        let adfg = load(name);
        let patterns = mps::select::select_patterns(&adfg, &base_select(4)).patterns;
        let greedy = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule;
        let aware = schedule_switch_aware(
            &adfg,
            &patterns,
            SwitchAwareConfig {
                keep_factor: 0.6,
                ..Default::default()
            },
        )
        .unwrap();
        aware.schedule.validate(&adfg, Some(&patterns)).unwrap();
        assert!(
            aware.switches <= count_switches(&greedy),
            "{name}: aware {} switches > greedy {}",
            aware.switches,
            count_switches(&greedy)
        );
        assert_eq!(aware.switches, count_switches(&aware.schedule), "{name}");
    }
}

// --------------------------------------------------------------- anneal

#[test]
fn annealing_never_worse_than_eq8_on_suite() {
    for name in SUITE {
        let adfg = load(name);
        let eq8 = mps::select::select_patterns(&adfg, &base_select(3)).patterns;
        let eq8_cycles = schedule_multi_pattern(&adfg, &eq8, MultiPatternConfig::default())
            .unwrap()
            .schedule
            .len();
        let annealed = select_and_anneal(
            &adfg,
            &base_select(3),
            AnnealConfig {
                iterations: 80,
                seed: 5,
                ..Default::default()
            },
        );
        assert!(
            annealed.cycles <= eq8_cycles,
            "{name}: annealed {} > eq8 {}",
            annealed.cycles,
            eq8_cycles
        );
        assert!(annealed.patterns.covers(&adfg.dfg().color_set()), "{name}");
    }
}

// ------------------------------------------------------------ node cover

#[test]
fn node_cover_is_always_schedulable() {
    for name in SUITE {
        let adfg = load(name);
        for pdef in [1usize, 3] {
            let out = node_cover_greedy(&adfg, &base_select(pdef));
            assert!(
                out.patterns.covers(&adfg.dfg().color_set()),
                "{name} pdef {pdef}"
            );
            let r = schedule_multi_pattern(&adfg, &out.patterns, MultiPatternConfig::default())
                .unwrap();
            r.schedule.validate(&adfg, Some(&out.patterns)).unwrap();
        }
    }
}

// ------------------------------------------------------ modulo schedule

#[test]
fn modulo_schedules_validate_on_suite() {
    for name in SUITE {
        let adfg = load(name);
        if adfg.is_empty() {
            continue;
        }
        let patterns = mps::select::select_patterns(&adfg, &base_select(4)).patterns;
        let r = mps::scheduler::schedule_modulo(&adfg, &patterns, Default::default()).expect(name);
        mps::scheduler::validate_modulo(&adfg, &r).expect(name);
        assert!(r.ii >= r.mii, "{name}: II below the resource bound");
        // A flat schedule is a modulo schedule with II = latency, so the
        // search can never end up worse than flat.
        let flat = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule;
        assert!(
            r.ii <= flat.len(),
            "{name}: II {} > latency {}",
            r.ii,
            flat.len()
        );
    }
}

#[test]
fn throughput_selection_covers_and_pipelines_on_suite() {
    for name in SUITE {
        let adfg = load(name);
        let tp = mps::select::select_for_throughput(&adfg, 5);
        assert!(tp.covers(&adfg.dfg().color_set()), "{name}");
        let r = mps::scheduler::schedule_modulo(&adfg, &tp, Default::default()).expect(name);
        mps::scheduler::validate_modulo(&adfg, &r).expect(name);
        // With a single apportioned pattern the II bound is exact-able;
        // the scheduler must land within 2 slots of it (greedy slack).
        if tp.len() == 1 {
            let bound = mps::select::pattern_ii_bound(&adfg, &tp.patterns()[0]);
            assert!(
                r.ii <= bound + 2,
                "{name}: II {} far above bound {bound}",
                r.ii
            );
        }
    }
}

// ------------------------------------------------------- property tests

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Round-trip through the text format is the identity on random DAGs.
    #[test]
    fn prop_parse_round_trip(seed in 0u64..500) {
        let g = mps::workloads::random_layered_dag(&mps::workloads::RandomDagConfig {
            seed,
            ..Default::default()
        });
        let back = mps::dfg::parse_text(&mps::dfg::to_text(&g)).unwrap();
        prop_assert_eq!(g, back);
    }

    /// Beam search never loses to greedy on random DAGs either.
    #[test]
    fn prop_beam_never_loses(seed in 0u64..200) {
        let g = mps::workloads::random_layered_dag(&mps::workloads::RandomDagConfig {
            seed,
            layers: 6,
            width: (2, 5),
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(g);
        let patterns = mps::select::select_patterns(&adfg, &base_select(3)).patterns;
        let greedy = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule
            .len();
        let beam = schedule_beam(&adfg, &patterns, BeamConfig::default()).unwrap();
        prop_assert!(beam.schedule.len() <= greedy);
    }

    /// The scheduler hierarchy on small series-parallel graphs:
    /// exact ≤ beam ≤ greedy, and every schedule validates.
    #[test]
    fn prop_scheduler_hierarchy(seed in 0u64..150) {
        let g = mps::workloads::random_series_parallel(&mps::workloads::SpConfig {
            seed,
            leaves: 12,
            colors: 3,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(g);
        let patterns = mps::select::select_patterns(&adfg, &base_select(3)).patterns;
        let greedy = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule;
        greedy.validate(&adfg, Some(&patterns)).unwrap();
        let beam = schedule_beam(&adfg, &patterns, BeamConfig::default()).unwrap();
        beam.schedule.validate(&adfg, Some(&patterns)).unwrap();
        prop_assert!(beam.schedule.len() <= greedy.len());
        if let Some(exact) = mps::scheduler::exact::schedule_exact(
            &adfg,
            &patterns,
            Default::default(),
        )
        .unwrap()
        {
            exact.schedule.validate(&adfg, Some(&patterns)).unwrap();
            prop_assert!(exact.schedule.len() <= beam.schedule.len());
        }
    }

    /// Modulo schedules on random series-parallel graphs always validate
    /// and respect both bounds (MII ≤ II ≤ flat latency).
    #[test]
    fn prop_modulo_bounds(seed in 0u64..150) {
        let g = mps::workloads::random_series_parallel(&mps::workloads::SpConfig {
            seed,
            leaves: 14,
            colors: 3,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(g);
        let patterns = mps::select::select_patterns(&adfg, &base_select(3)).patterns;
        let flat = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule;
        let r = mps::scheduler::schedule_modulo(&adfg, &patterns, Default::default()).unwrap();
        mps::scheduler::validate_modulo(&adfg, &r).unwrap();
        prop_assert!(r.ii >= r.mii);
        prop_assert!(r.ii <= flat.len());
    }

    /// Switch-aware schedules stay valid at every keep factor and never
    /// switch more often than they have cycle boundaries.
    #[test]
    fn prop_switch_aware_valid(seed in 0u64..100, kf in 1u32..=10) {
        let g = mps::workloads::random_series_parallel(&mps::workloads::SpConfig {
            seed,
            leaves: 12,
            colors: 3,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(g);
        let patterns = mps::select::select_patterns(&adfg, &base_select(3)).patterns;
        let r = schedule_switch_aware(
            &adfg,
            &patterns,
            SwitchAwareConfig {
                keep_factor: kf as f64 / 10.0,
                ..Default::default()
            },
        )
        .unwrap();
        r.schedule.validate(&adfg, Some(&patterns)).unwrap();
        prop_assert!(r.switches < r.schedule.len().max(1));
        prop_assert_eq!(r.switches, count_switches(&r.schedule));
    }

    /// Evolutionary refinement (elitism) never loses to its seed.
    #[test]
    fn prop_genetic_never_worse(seed in 0u64..40) {
        let g = mps::workloads::random_series_parallel(&mps::workloads::SpConfig {
            seed,
            leaves: 12,
            colors: 3,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(g);
        let eq8 = mps::select::select_patterns(&adfg, &base_select(2)).patterns;
        let r = mps::select::evolve_patterns(
            &adfg,
            &[eq8],
            &[],
            mps::select::GeneticConfig {
                population: 6,
                generations: 4,
                seed,
                ..Default::default()
            },
            MultiPatternConfig::default(),
        );
        prop_assert!(r.cycles <= r.initial_cycles);
        prop_assert!(r.patterns.covers(&adfg.dfg().color_set()));
    }
}
