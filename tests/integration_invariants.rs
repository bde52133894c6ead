//! Property-based invariants over randomly generated DAGs: the paper's
//! Theorem 1, schedule validity, enumeration correctness against brute
//! force, and selection coverage.

use mps::prelude::*;
use mps::workloads::{random_layered_dag, RandomDagConfig};
use proptest::prelude::*;

/// Strategy: small random layered DAGs (≤ ~25 nodes, ≤ 3 colors).
fn small_dag() -> impl Strategy<Value = AnalyzedDfg> {
    (1usize..5, 1usize..5, 1u8..4, any::<u64>()).prop_map(|(layers, width, colors, seed)| {
        AnalyzedDfg::new(random_layered_dag(&RandomDagConfig {
            layers,
            width: (1, width),
            colors,
            seed,
            edge_prob: 0.4,
            long_edge_prob: 0.1,
        }))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// ASAP ≤ ALAP; edges strictly increase ASAP/ALAP and strictly
    /// decrease height.
    #[test]
    fn level_invariants(adfg in small_dag()) {
        let l = adfg.levels();
        for v in adfg.dfg().node_ids() {
            prop_assert!(l.asap(v) <= l.alap(v));
            prop_assert!(l.height(v) >= 1);
        }
        for (u, v) in adfg.dfg().edges() {
            prop_assert!(l.asap(u) < l.asap(v));
            prop_assert!(l.alap(u) < l.alap(v));
            prop_assert!(l.height(u) > l.height(v));
        }
    }

    /// The enumerator agrees with a brute-force subset scan: same number
    /// of antichains of size ≤ 3, and everything it emits is an antichain.
    #[test]
    fn enumeration_matches_brute_force(adfg in small_dag()) {
        let cfg = EnumerateConfig { capacity: 3, span_limit: None, parallel: false };
        let fast = enumerate_antichains(&adfg, cfg);
        for a in &fast {
            prop_assert!(adfg.reach().is_antichain(a.as_slice()));
        }
        // Brute force over all subsets of size 1..=3.
        let ids: Vec<_> = adfg.dfg().node_ids().collect();
        let mut brute = 0usize;
        for i in 0..ids.len() {
            brute += 1;
            for j in i + 1..ids.len() {
                if adfg.reach().parallelizable(ids[i], ids[j]) {
                    brute += 1;
                    for k in j + 1..ids.len() {
                        if adfg.reach().parallelizable(ids[i], ids[k])
                            && adfg.reach().parallelizable(ids[j], ids[k])
                        {
                            brute += 1;
                        }
                    }
                }
            }
        }
        prop_assert_eq!(fast.len(), brute);
    }

    /// Span is monotone under insertion and the enumerator's span limit is
    /// respected exactly.
    #[test]
    fn span_limit_is_respected(adfg in small_dag(), limit in 0u32..3) {
        let cfg = EnumerateConfig { capacity: 4, span_limit: Some(limit), parallel: false };
        mps::patterns::for_each_antichain(&adfg, cfg, |a, span| {
            assert!(span <= limit, "span {span} exceeds limit {limit}");
            assert_eq!(span, adfg.span(a.as_slice()));
        });
    }

    /// The full pipeline always yields a schedule that (a) validates,
    /// (b) replays on the tile, (c) respects every lower bound, and
    /// (d) satisfies Theorem 1 for EVERY cycle's node set: a valid
    /// schedule co-schedules each cycle's antichain A, so its length must
    /// be at least ASAPmax + Span(A) + 1... bounded by the schedule's own
    /// feasibility (Theorem 1's contrapositive: the scheduler never
    /// co-schedules sets whose span would force a longer schedule than it
    /// produced).
    #[test]
    fn pipeline_and_theorem1(adfg in small_dag(), pdef in 1usize..4) {
        let cfg = PipelineConfig {
            select: SelectConfig { pdef, span_limit: None, parallel: false, ..Default::default() },
            sched: MultiPatternConfig::default(),
        };
        let r = select_and_schedule(&adfg, &cfg).unwrap();
        r.schedule.validate(&adfg, Some(&r.selection.patterns)).unwrap();
        mps::montium::execute(
            &adfg,
            &r.schedule,
            &r.selection.patterns,
            mps::montium::TileParams::default(),
        )
        .unwrap();
        prop_assert!(r.cycles >= mps::scheduler::bounds::lower_bound(&adfg, &r.selection.patterns));

        // Theorem 1 applied to the produced schedule itself.
        for cyc in r.schedule.cycles() {
            let bound = mps::dfg::theorem1_lower_bound(adfg.levels(), &cyc.nodes);
            prop_assert!(
                r.cycles as u32 >= bound,
                "cycle with span {} forces >= {bound} but schedule is {}",
                adfg.span(&cyc.nodes),
                r.cycles
            );
        }
    }

    /// Selection always covers every color, with or without span limits,
    /// for any Pdef >= 1.
    #[test]
    fn selection_always_covers(adfg in small_dag(), pdef in 1usize..6, limit in proptest::option::of(0u32..3)) {
        let out = select_patterns(&adfg, &SelectConfig {
            pdef,
            span_limit: limit,
            parallel: false,
            ..Default::default()
        });
        prop_assert!(out.patterns.covers(&adfg.dfg().color_set()));
        prop_assert!(out.patterns.len() <= pdef);
    }

    /// Random baseline patterns always cover and schedule.
    #[test]
    fn random_patterns_always_work(adfg in small_dag(), seed in any::<u64>()) {
        let rb = random_baseline(&adfg, 3, 5, 3, seed, MultiPatternConfig::default());
        prop_assert_eq!(rb.cycles.len(), 3);
        for &c in &rb.cycles {
            prop_assert!(c >= adfg.levels().critical_path_len() as usize);
        }
    }

    /// The classic baselines are valid and ordered: ASAP <= uniform-5 <=
    /// uniform-1, and multi-pattern >= uniform with the same capacity.
    #[test]
    fn baseline_ordering(adfg in small_dag()) {
        let asap = mps::scheduler::classic::asap_schedule(&adfg);
        let u5 = mps::scheduler::classic::list_schedule_uniform(&adfg, 5);
        let u1 = mps::scheduler::classic::list_schedule_uniform(&adfg, 1);
        asap.validate(&adfg, None).unwrap();
        u5.validate(&adfg, None).unwrap();
        u1.validate(&adfg, None).unwrap();
        prop_assert!(asap.len() <= u5.len());
        prop_assert!(u5.len() <= u1.len());
    }

    /// Pattern algebra: subpattern is a partial order compatible with
    /// size; union via with_color keeps canonical form.
    #[test]
    fn pattern_algebra(colors in proptest::collection::vec(0u8..4, 1..6)) {
        let p = Pattern::from_colors(colors.iter().map(|&c| mps::dfg::Color(c)));
        prop_assert!(p.is_subpattern_of(&p));
        for &c in &colors {
            let bigger = p.with_color(mps::dfg::Color(c));
            prop_assert!(p.is_subpattern_of(&bigger));
            prop_assert!(!bigger.is_subpattern_of(&p));
            prop_assert_eq!(bigger.size(), p.size() + 1);
        }
        // Canonical: colors sorted ascending.
        let cs = p.colors();
        prop_assert!(cs.windows(2).all(|w| w[0] <= w[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DAG width (Dilworth via matching) agrees with exhaustive antichain
    /// enumeration on small graphs, and bounds every level's population.
    #[test]
    fn width_matches_enumeration(adfg in small_dag()) {
        let w = mps::patterns::width(&adfg);
        let cfg = EnumerateConfig {
            capacity: adfg.len().clamp(1, 16),
            span_limit: None,
            parallel: false,
        };
        let mut max_size = 0usize;
        mps::patterns::for_each_antichain(&adfg, cfg, |a, _| max_size = max_size.max(a.len()));
        prop_assert_eq!(w, max_size);
        let mac = mps::patterns::maximum_antichain(&adfg);
        prop_assert_eq!(mac.len(), w);
        prop_assert!(adfg.reach().is_antichain(&mac));
    }

    /// The exact solver is never worse than the heuristic and respects
    /// the lower bound.
    #[test]
    fn exact_is_a_true_lower_envelope(adfg in small_dag()) {
        use mps::scheduler::exact::{schedule_exact, ExactConfig};
        prop_assume!(adfg.len() <= 14);
        let sel = select_patterns(&adfg, &SelectConfig {
            pdef: 2,
            span_limit: None,
            parallel: false,
            ..Default::default()
        });
        let heur = schedule_multi_pattern(&adfg, &sel.patterns, MultiPatternConfig::default())
            .unwrap()
            .schedule;
        if let Some(exact) = schedule_exact(&adfg, &sel.patterns, ExactConfig::default()).unwrap() {
            prop_assert!(exact.schedule.len() <= heur.len());
            prop_assert!(exact.schedule.len() >= mps::scheduler::bounds::lower_bound(&adfg, &sel.patterns));
            exact.schedule.validate(&adfg, Some(&sel.patterns)).unwrap();
        }
    }

    /// Lifetime analysis: live counts are internally consistent with the
    /// schedule (bounded by nodes; final cycle holds at least the sinks).
    #[test]
    fn lifetimes_are_consistent(adfg in small_dag()) {
        let r = select_and_schedule(&adfg, &PipelineConfig {
            select: SelectConfig { pdef: 2, span_limit: None, parallel: false, ..Default::default() },
            sched: MultiPatternConfig::default(),
        }).unwrap();
        let lt = mps::montium::lifetimes(&adfg, &r.schedule);
        prop_assert_eq!(lt.live.len(), r.cycles);
        prop_assert!(lt.peak <= adfg.len());
        // Sinks produced before the last cycle stay live through it;
        // sinks born in the last cycle are live only "after" the schedule.
        if r.cycles > 0 {
            let at = r.schedule.node_cycles(adfg.len());
            let early_sinks = adfg
                .dfg()
                .sinks()
                .into_iter()
                .filter(|s| at[s.index()].unwrap() + 1 < r.cycles)
                .count();
            prop_assert!(*lt.live.last().unwrap() >= early_sinks);
        }
        // Every sink contributes at least one value-cycle (its write-out).
        prop_assert!(lt.total_value_cycles >= adfg.dfg().sinks().len() as u64);
    }

    /// Transpose duality: ASAP of the transpose equals
    /// `ASAPmax − ALAP` of the original (and vice versa); width is
    /// invariant under transposition.
    #[test]
    fn transpose_duality(adfg in small_dag()) {
        let t = mps::dfg::transpose(adfg.dfg());
        let t_adfg = AnalyzedDfg::new(t);
        prop_assert_eq!(mps::patterns::width(&adfg), mps::patterns::width(&t_adfg));
        let l = adfg.levels();
        let lt = t_adfg.levels();
        prop_assert_eq!(l.asap_max(), lt.asap_max());
        for v in adfg.dfg().node_ids() {
            prop_assert_eq!(lt.asap(v), l.asap_max() - l.alap(v), "node {}", v);
            prop_assert_eq!(lt.alap(v), l.asap_max() - l.asap(v), "node {}", v);
        }
    }

    /// Montium replay reports consistent accounting for any pipeline
    /// output: bindings = nodes, ops-per-color = histogram, loads ≤ cycles.
    #[test]
    fn replay_accounting(adfg in small_dag()) {
        let r = select_and_schedule(&adfg, &PipelineConfig {
            select: SelectConfig { pdef: 3, span_limit: None, parallel: false, ..Default::default() },
            sched: MultiPatternConfig::default(),
        }).unwrap();
        let report = mps::montium::execute(
            &adfg,
            &r.schedule,
            &r.selection.patterns,
            mps::montium::TileParams { alus: 16, max_configs: 32 },
        ).unwrap();
        prop_assert_eq!(report.bindings.len(), adfg.len());
        let hist = adfg.dfg().color_histogram();
        for (ci, &count) in hist.iter().enumerate() {
            prop_assert_eq!(report.ops_per_color.get(ci).copied().unwrap_or(0), count as u64);
        }
        prop_assert!(report.config_loads >= usize::from(r.cycles > 0));
        prop_assert!(report.config_loads <= r.cycles);
    }
}

/// A 5 ms deadline stops a table build that would run for seconds
/// (fft8 at C 8) well within 50 ms: the state DAG polls its token every
/// 64 states, not only between enumeration roots.
#[test]
fn table_build_deadline_stops_fft8_within_50ms() {
    use mps::par::{CancelKind, CancelToken};
    use std::time::{Duration, Instant};
    let adfg = AnalyzedDfg::new(mps::workloads::by_name("fft8").unwrap());
    let cfg = EnumerateConfig {
        capacity: 8,
        span_limit: None,
        parallel: false,
    };
    let t0 = Instant::now();
    let token = CancelToken::with_deadline(Duration::from_millis(5));
    assert_eq!(
        PatternTable::build_with_cancel(&adfg, cfg, &token).unwrap_err(),
        CancelKind::DeadlineExceeded
    );
    let elapsed = t0.elapsed();
    assert!(elapsed < Duration::from_millis(50), "took {elapsed:?}");
}
