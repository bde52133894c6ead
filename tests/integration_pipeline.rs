//! End-to-end integration: every workload goes through enumeration →
//! selection → scheduling → validation → Montium replay, and the heuristic
//! is cross-checked against lower bounds, the exhaustive optimum (tiny
//! graphs), and the baseline schedulers.

use mps::montium::{execute, TileParams};
use mps::prelude::*;
use mps::scheduler::bounds;

fn pipeline_cfg(pdef: usize) -> PipelineConfig {
    PipelineConfig {
        select: SelectConfig {
            pdef,
            span_limit: Some(2),
            parallel: false,
            ..Default::default()
        },
        sched: MultiPatternConfig::default(),
    }
}

#[test]
fn every_workload_schedules_validates_and_replays() {
    let workloads = [
        "fig2",
        "fig4",
        "dft3",
        "dft4",
        "dft5",
        "fir8",
        "fir8-chain",
        "dct8",
        "matmul3",
        "iir3",
        "random42",
    ];
    for name in workloads {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        for pdef in [2usize, 4] {
            let r = select_and_schedule(&adfg, &pipeline_cfg(pdef))
                .unwrap_or_else(|e| panic!("{name}/pdef{pdef}: {e}"));
            // The schedule is internally valid and uses only selected patterns.
            r.schedule
                .validate(&adfg, Some(&r.selection.patterns))
                .unwrap_or_else(|e| panic!("{name}/pdef{pdef}: {e}"));
            // Replays cycle-accurately on the tile.
            let report = execute(
                &adfg,
                &r.schedule,
                &r.selection.patterns,
                TileParams::default(),
            )
            .unwrap_or_else(|e| panic!("{name}/pdef{pdef}: {e}"));
            assert_eq!(
                report.bindings.len(),
                adfg.len(),
                "{name}: every node executes"
            );
            // Never beats the lower bound.
            assert!(
                r.cycles >= bounds::lower_bound(&adfg, &r.selection.patterns),
                "{name}/pdef{pdef}: {} cycles below bound",
                r.cycles
            );
            // Utilization is a sane fraction.
            let u = r.schedule.utilization(5);
            assert!(u > 0.0 && u <= 1.0, "{name}: utilization {u}");
        }
    }
}

#[test]
fn more_patterns_never_hurt_much() {
    // Monotonicity is not guaranteed by the heuristic, but a larger budget
    // should never cost more than one extra cycle on the eval workloads.
    for name in ["fig2", "dft5", "dct8"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let mut prev = usize::MAX;
        for pdef in 1..=6 {
            let r = select_and_schedule(&adfg, &pipeline_cfg(pdef)).unwrap();
            assert!(
                r.cycles <= prev.saturating_add(1),
                "{name}: pdef {pdef} jumped from {prev} to {}",
                r.cycles
            );
            prev = r.cycles;
        }
    }
}

#[test]
fn heuristic_close_to_exhaustive_on_small_graphs() {
    for name in ["fig4", "dft2"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let cfg = SelectConfig {
            pdef: 2,
            parallel: false,
            ..Default::default()
        };
        let best = mps::select::exhaustive_best(&adfg, &cfg, MultiPatternConfig::default(), 64)
            .expect("small candidate pools");
        let heur = select_patterns(&adfg, &cfg);
        let heur_cycles = schedule_multi_pattern(&adfg, &heur.patterns, Default::default())
            .unwrap()
            .schedule
            .len();
        assert!(
            heur_cycles <= best.cycles + 1,
            "{name}: heuristic {heur_cycles} vs optimum {}",
            best.cycles
        );
    }
}

#[test]
fn multi_pattern_never_beats_unconstrained_list_scheduling() {
    // The pattern restriction can only cost cycles relative to 5 fully
    // flexible ALUs.
    for name in ["fig2", "dft5", "fir16", "dct8"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let uniform = mps::scheduler::classic::list_schedule_uniform(&adfg, 5).len();
        let r = select_and_schedule(&adfg, &pipeline_cfg(4)).unwrap();
        assert!(
            r.cycles >= uniform,
            "{name}: pattern-constrained {} beat unconstrained {uniform}",
            r.cycles
        );
    }
}

#[test]
fn selection_respects_montium_config_store() {
    // Even with a generous Pdef the selected set must fit the 32-entry
    // store — by construction Pdef <= 32 does.
    let adfg = AnalyzedDfg::new(mps::workloads::dct8());
    let out = select_patterns(
        &adfg,
        &SelectConfig {
            pdef: 32,
            span_limit: Some(1),
            parallel: false,
            ..Default::default()
        },
    );
    assert!(out.patterns.len() <= 32);
    mps::montium::ConfigStore::allocate(TileParams::default(), &out.patterns).unwrap();
}

#[test]
fn coverage_greedy_is_schedulable_everywhere() {
    for name in ["fig2", "dft5", "dct8", "iir3"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let cfg = SelectConfig {
            pdef: 4,
            span_limit: Some(2),
            parallel: false,
            ..Default::default()
        };
        let greedy = mps::select::coverage_greedy(&adfg, &cfg);
        let r = schedule_multi_pattern(&adfg, &greedy, Default::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        r.schedule.validate(&adfg, Some(&greedy)).unwrap();
    }
}

#[test]
fn pad_fabricated_improves_or_matches_on_fabrication_heavy_cases() {
    // Force fabrication by requesting a single pattern with a tight span.
    for name in ["dft5", "dct8", "iir3"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let base = SelectConfig {
            pdef: 1,
            span_limit: Some(0),
            parallel: false,
            ..Default::default()
        };
        let plain = select_patterns(&adfg, &base);
        let padded = select_patterns(
            &adfg,
            &SelectConfig {
                pad_fabricated: true,
                ..base
            },
        );
        let cycles = |ps: &PatternSet| {
            schedule_multi_pattern(&adfg, ps, Default::default())
                .unwrap()
                .schedule
                .len()
        };
        if plain.fabricated_count() > 0 {
            assert!(
                cycles(&padded.patterns) <= cycles(&plain.patterns),
                "{name}: padding must not hurt"
            );
        }
    }
}

#[test]
fn exact_solver_confirms_heuristic_on_small_workloads() {
    use mps::scheduler::exact::{schedule_exact, ExactConfig};
    for name in ["fig4", "dft3", "dft4"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let sel = select_patterns(
            &adfg,
            &SelectConfig {
                pdef: 2,
                span_limit: Some(1),
                parallel: false,
                ..Default::default()
            },
        );
        let heur = schedule_multi_pattern(&adfg, &sel.patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule
            .len();
        let exact = schedule_exact(&adfg, &sel.patterns, ExactConfig::default())
            .unwrap()
            .expect("small graphs fit the state budget");
        assert!(exact.schedule.len() <= heur, "{name}");
        exact.schedule.validate(&adfg, Some(&sel.patterns)).unwrap();
        // On these workloads the heuristic is in fact optimal.
        assert_eq!(exact.schedule.len(), heur, "{name}");
    }
}

#[test]
fn merge_pass_and_scarcity_never_regress() {
    use mps::select::{merge_pass, scarcity_priority, select_with_priority};
    for name in ["fig2", "dct8", "fft8"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let cfg = SelectConfig {
            pdef: 2,
            span_limit: Some(1),
            parallel: false,
            ..Default::default()
        };
        let plain = select_patterns(&adfg, &cfg).patterns;
        let plain_cycles = schedule_multi_pattern(&adfg, &plain, MultiPatternConfig::default())
            .unwrap()
            .schedule
            .len();
        let merged = merge_pass(&adfg, &plain, &cfg, MultiPatternConfig::default());
        assert!(merged.cycles <= plain_cycles, "{name}: merge regressed");

        let scarce = select_with_priority(&adfg, &cfg, scarcity_priority);
        let r = schedule_multi_pattern(&adfg, &scarce, MultiPatternConfig::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        r.schedule.validate(&adfg, Some(&scarce)).unwrap();
    }
}

#[test]
fn width_bounds_every_cycle_occupancy() {
    for name in ["fig2", "dft5", "horner5"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let w = mps::patterns::width(&adfg);
        let mac = mps::patterns::maximum_antichain(&adfg);
        assert_eq!(mac.len(), w, "{name}");
        assert!(adfg.reach().is_antichain(&mac), "{name}");
        let r = select_and_schedule(
            &adfg,
            &PipelineConfig {
                select: SelectConfig {
                    pdef: 4,
                    span_limit: Some(1),
                    parallel: false,
                    ..Default::default()
                },
                sched: MultiPatternConfig::default(),
            },
        )
        .unwrap();
        for cyc in r.schedule.cycles() {
            assert!(
                cyc.nodes.len() <= w,
                "{name}: a cycle wider than the DAG width"
            );
        }
    }
}

#[test]
fn register_pressure_is_consistent() {
    for name in ["fig2", "dft5"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        let r = select_and_schedule(
            &adfg,
            &PipelineConfig {
                select: SelectConfig {
                    pdef: 4,
                    span_limit: Some(1),
                    parallel: false,
                    ..Default::default()
                },
                sched: MultiPatternConfig::default(),
            },
        )
        .unwrap();
        let lt = mps::montium::lifetimes(&adfg, &r.schedule);
        assert_eq!(lt.live.len(), r.cycles, "{name}");
        assert!(lt.peak <= adfg.len(), "{name}");
        // Outputs are all live in the final cycle.
        assert!(
            *lt.live.last().unwrap() >= adfg.dfg().sinks().len(),
            "{name}"
        );
    }
}

#[test]
fn transforms_compose_with_the_pipeline() {
    // Schedule two independent kernels fused onto one tile.
    let a = mps::workloads::by_name("dft3").unwrap();
    let b = mps::workloads::by_name("fir8").unwrap();
    let fused = mps::dfg::disjoint_union(&a, &b);
    let adfg = AnalyzedDfg::new(fused);
    let r = select_and_schedule(
        &adfg,
        &PipelineConfig {
            select: SelectConfig {
                pdef: 4,
                span_limit: Some(2),
                parallel: false,
                ..Default::default()
            },
            sched: MultiPatternConfig::default(),
        },
    )
    .unwrap();
    r.schedule
        .validate(&adfg, Some(&r.selection.patterns))
        .unwrap();
    // Fusing cannot be slower than running the kernels back to back.
    let solo = |name: &str| {
        let g = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
        select_and_schedule(
            &g,
            &PipelineConfig {
                select: SelectConfig {
                    pdef: 4,
                    span_limit: Some(2),
                    parallel: false,
                    ..Default::default()
                },
                sched: MultiPatternConfig::default(),
            },
        )
        .unwrap()
        .cycles
    };
    assert!(r.cycles <= solo("dft3") + solo("fir8"));
}
