//! Golden end-to-end suite for the staged [`Session`] API: a
//! session-driven compile must be **decision-identical** — same
//! `PatternSet`, same schedule, same cycle count — to the one-shot
//! [`select_and_schedule`] wrapper it subsumes, across the workloads
//! registry and every span limit the paper exercises; a re-select over
//! the session's cached pattern table must match a cold one bit-for-bit
//! (with the cache hit observable in the metrics); and batch compiles
//! must equal their sequential counterparts at every worker count.

use mps::montium::TileParams;
use mps::prelude::*;
use mps::workloads::{random_layered_dag, RandomDagConfig};
use mps::CompileConfig;
use proptest::prelude::*;

/// The registry slice the golden tests sweep: the paper's graphs, one of
/// each generator family at a modest size, and the skew stress shapes.
const WORKLOADS: [&str; 12] = [
    "fig2", "fig4", "dft3", "dft5", "fir8", "iir2", "dct8", "matmul2", "fft4", "horner4", "star16",
    "broom64",
];

const SPANS: [Option<u32>; 4] = [None, Some(0), Some(1), Some(3)];

fn graph(name: &str) -> Dfg {
    mps::workloads::by_name(name).expect("registry workload exists")
}

fn config(span: Option<u32>) -> CompileConfig {
    CompileConfig {
        select: SelectConfig {
            span_limit: span,
            parallel: false,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The tentpole contract: `Session::compile` ≡ `select_and_schedule` on
/// every registry workload × span limit — patterns, rounds, schedule and
/// cycles all equal.
#[test]
fn session_is_decision_identical_to_select_and_schedule() {
    for name in WORKLOADS {
        for span in SPANS {
            let cfg = config(span);
            let session_result = Session::with_config(graph(name), cfg.clone())
                .compile()
                .expect("registry workloads schedule");
            let reference = select_and_schedule(
                &AnalyzedDfg::new(graph(name)),
                &PipelineConfig {
                    select: cfg.select,
                    sched: MultiPatternConfig::default(),
                },
            )
            .expect("registry workloads schedule");
            assert_eq!(
                session_result.selection, reference.selection,
                "{name} span={span:?}: selection"
            );
            assert_eq!(
                session_result.schedule, reference.schedule,
                "{name} span={span:?}: schedule"
            );
            assert_eq!(
                session_result.cycles, reference.cycles,
                "{name} span={span:?}: cycles"
            );
        }
    }
}

/// A warm re-select must reuse the cached table (metrics counter) and
/// reproduce the cold decisions bit-for-bit — for every engine family.
#[test]
fn cached_reselect_matches_cold_bit_for_bit() {
    let engines: Vec<SelectEngine> = vec![
        SelectEngine::Eq8,
        SelectEngine::Eq8Reference,
        SelectEngine::NodeCover,
        SelectEngine::CoverageGreedy,
        SelectEngine::Exhaustive { max_candidates: 16 },
        SelectEngine::Random { trials: 4, seed: 3 },
    ];
    for name in ["fig2", "dft3", "fir8"] {
        for engine in &engines {
            let mut session = Session::with_config(graph(name), config(Some(1)));
            let cold = {
                let selected = session.analyze().enumerate(Some(1)).select(engine);
                selected.selection().clone()
            };
            assert_eq!(
                session.metrics().table_builds,
                1,
                "{name}/{}",
                engine.name()
            );
            let warm = {
                let selected = session.analyze().enumerate(Some(1)).select(engine);
                selected.selection().clone()
            };
            assert_eq!(
                session.metrics().table_cache_hits,
                1,
                "{name}/{}: second enumerate must hit the cache",
                engine.name()
            );
            assert_eq!(
                session.metrics().table_builds,
                1,
                "{name}/{}: second enumerate must not rebuild",
                engine.name()
            );
            assert_eq!(
                cold,
                warm,
                "{name}/{}: cached re-select must be bit-identical",
                engine.name()
            );
        }
    }
}

/// Every engine × a few workloads: the staged chain completes, covers the
/// graph's colors, and schedules (the engine contract `mps::Session`
/// serves on).
#[test]
fn all_engine_combinations_compile() {
    let select_engines: Vec<SelectEngine> = vec![
        SelectEngine::Eq8,
        SelectEngine::NodeCover,
        SelectEngine::CoverageGreedy,
        SelectEngine::parse("anneal").unwrap(),
        SelectEngine::parse("genetic").unwrap(),
    ];
    let schedule_engines: Vec<ScheduleEngine> = vec![
        ScheduleEngine::default(),
        ScheduleEngine::Modulo(mps::scheduler::ModuloConfig::default()),
    ];
    for name in ["fig4", "dft3"] {
        for se in &select_engines {
            for sched in &schedule_engines {
                let mut session = Session::with_config(
                    graph(name),
                    CompileConfig {
                        select: SelectConfig {
                            span_limit: Some(1),
                            parallel: false,
                            ..Default::default()
                        },
                        engine: se.clone(),
                        schedule: *sched,
                        tile: None,
                        fabric: None,
                    },
                );
                let result = session
                    .compile()
                    .unwrap_or_else(|e| panic!("{name}/{}/{}: {e}", se.name(), sched.name()));
                let adfg = session.analyzed_dfg().unwrap();
                assert!(
                    result.selection.patterns.covers(&adfg.dfg().color_set()),
                    "{name}/{}/{}: colors covered",
                    se.name(),
                    sched.name()
                );
                assert_eq!(
                    result.schedule.scheduled_nodes(),
                    adfg.len(),
                    "{name}/{}/{}: all nodes scheduled",
                    se.name(),
                    sched.name()
                );
            }
        }
    }
}

/// `compile_batch` ≡ a sequential loop of single compiles, at the
/// heuristic worker count and at pinned counts 1/2/4.
#[test]
fn batch_compiles_equal_sequential_loop() {
    let dfgs: Vec<Dfg> = ["fig2", "fig4", "dft3", "fir8", "iir2", "star16"]
        .iter()
        .map(|n| graph(n))
        .collect();
    let cfg = config(Some(1));
    let sequential: Vec<CompileResult> = dfgs
        .iter()
        .map(|d| {
            Session::with_config(d.clone(), cfg.clone())
                .compile()
                .unwrap()
        })
        .collect();
    for workers in [0usize, 1, 2, 4] {
        let batch = Session::compile_batch_in(workers, &dfgs, &cfg);
        assert_eq!(batch.len(), sequential.len());
        for (i, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            let b = b.as_ref().expect("batch item compiles");
            assert_eq!(b.selection, s.selection, "item {i} workers={workers}");
            assert_eq!(b.schedule, s.schedule, "item {i} workers={workers}");
            assert_eq!(b.cycles, s.cycles, "item {i} workers={workers}");
        }
    }
    let heuristic = Session::compile_batch(&dfgs, &cfg);
    for (b, s) in heuristic.iter().zip(&sequential) {
        assert_eq!(b.as_ref().unwrap().schedule, s.schedule);
    }
}

/// Errors keep their stage provenance through the session and through
/// batches; a failed item does not poison its neighbours.
#[test]
fn errors_carry_stage_provenance_through_batches() {
    // A 1-ALU tile cannot host fig2's multi-slot patterns: map-tile fails.
    let cfg = CompileConfig {
        select: SelectConfig {
            parallel: false,
            ..Default::default()
        },
        tile: Some(TileParams::with_alus(1)),
        ..Default::default()
    };
    let err = Session::with_config(graph("fig2"), cfg.clone())
        .compile()
        .unwrap_err();
    assert_eq!(err.stage(), MpsStage::MapTile);
    assert!(err.to_string().starts_with("map-tile stage:"), "{err}");
    assert!(
        std::error::Error::source(&err).is_some(),
        "source chains to the montium error"
    );

    // In a batch, the single-node graph maps fine on 1 ALU while fig2
    // fails — independently.
    let single = {
        let mut b = DfgBuilder::new();
        b.add_node("only", Color::from_char('a').unwrap());
        b.build().unwrap()
    };
    let results = Session::compile_batch(&[single, graph("fig2")], &cfg);
    assert!(results[0].is_ok(), "singleton maps on a 1-ALU tile");
    assert_eq!(results[1].as_ref().unwrap_err().stage(), MpsStage::MapTile);
}

/// The tile stage of the session equals a direct `montium::execute` call.
#[test]
fn map_tile_stage_equals_direct_execute() {
    let mut session = Session::with_config(
        graph("fig2"),
        CompileConfig {
            select: SelectConfig {
                parallel: false,
                ..Default::default()
            },
            tile: Some(TileParams::default()),
            ..Default::default()
        },
    );
    let result = session.compile().unwrap();
    let exec = result.exec.as_ref().expect("tile stage ran");
    let direct = mps::montium::execute(
        session.analyzed_dfg().unwrap(),
        &result.schedule,
        &result.selection.patterns,
        TileParams::default(),
    )
    .unwrap();
    assert_eq!(exec, &direct);
    assert!(result.metrics.map_tile_sec >= 0.0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random layered DAGs: session ≡ one-shot wrapper, and a second
    /// session compile hits the cache with identical decisions.
    #[test]
    fn session_matches_one_shot_on_random_dags(
        seed in any::<u64>(),
        layers in 2usize..5,
        colors in 2u8..5,
        span_idx in 0usize..SPANS.len(),
    ) {
        let dfg = random_layered_dag(&RandomDagConfig {
            layers,
            width: (2, 5),
            colors,
            seed,
            ..Default::default()
        });
        let span = SPANS[span_idx];
        let cfg = config(span);
        let mut session = Session::with_config(dfg.clone(), cfg.clone());
        let a = session.compile().expect("random DAGs schedule");
        let b = session.compile().expect("cache path schedules");
        prop_assert_eq!(&a.selection, &b.selection);
        prop_assert_eq!(&a.schedule, &b.schedule);
        prop_assert_eq!(session.metrics().table_cache_hits, 1);
        let reference = select_and_schedule(
            &AnalyzedDfg::new(dfg),
            &PipelineConfig { select: cfg.select, sched: MultiPatternConfig::default() },
        )
        .expect("random DAGs schedule");
        prop_assert_eq!(&a.selection, &reference.selection);
        prop_assert_eq!(&a.schedule, &reference.schedule);
        prop_assert_eq!(a.cycles, reference.cycles);
    }
}
