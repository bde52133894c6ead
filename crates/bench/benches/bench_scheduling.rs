//! Performance of the multi-pattern list scheduler: scaling with graph
//! size, pattern count, and comparison against the classic baselines.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps::prelude::*;
use mps::workloads::{random_layered_dag, RandomDagConfig};

fn patterns_for(adfg: &AnalyzedDfg, pdef: usize) -> PatternSet {
    mps::select::select_patterns(
        adfg,
        &mps::select::SelectConfig {
            pdef,
            span_limit: Some(1),
            parallel: false,
            ..Default::default()
        },
    )
    .patterns
}

fn bench_graph_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduling/graph_size");
    for layers in [5usize, 10, 20, 40] {
        let dfg = random_layered_dag(&RandomDagConfig {
            layers,
            width: (4, 8),
            seed: 3,
            ..Default::default()
        });
        let adfg = AnalyzedDfg::new(dfg);
        let patterns = patterns_for(&adfg, 4);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}nodes", adfg.len())),
            &(adfg, patterns),
            |b, (adfg, patterns)| {
                b.iter(|| {
                    schedule_multi_pattern(adfg, patterns, MultiPatternConfig::default())
                        .unwrap()
                        .schedule
                        .len()
                });
            },
        );
    }
    group.finish();
}

fn bench_pattern_count(c: &mut Criterion) {
    let dfg = random_layered_dag(&RandomDagConfig {
        layers: 10,
        width: (4, 8),
        seed: 5,
        ..Default::default()
    });
    let adfg = AnalyzedDfg::new(dfg);
    let mut group = c.benchmark_group("scheduling/pattern_count");
    for pdef in [1usize, 2, 4, 8, 16] {
        let patterns = patterns_for(&adfg, pdef);
        group.bench_with_input(
            BenchmarkId::from_parameter(patterns.len()),
            &patterns,
            |b, patterns| {
                b.iter(|| {
                    schedule_multi_pattern(&adfg, patterns, MultiPatternConfig::default())
                        .unwrap()
                        .schedule
                        .len()
                });
            },
        );
    }
    group.finish();
}

fn bench_vs_baselines(c: &mut Criterion) {
    let adfg = AnalyzedDfg::new(mps::workloads::dft5());
    let patterns = patterns_for(&adfg, 4);
    let mut group = c.benchmark_group("scheduling/vs_baselines");
    group.bench_function("multi_pattern", |b| {
        b.iter(|| {
            schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
                .unwrap()
                .schedule
                .len()
        });
    });
    group.bench_function("uniform_list", |b| {
        b.iter(|| mps::scheduler::classic::list_schedule_uniform(&adfg, 5).len());
    });
    group.bench_function("asap", |b| {
        b.iter(|| mps::scheduler::classic::asap_schedule(&adfg).len());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_graph_size,
    bench_pattern_count,
    bench_vs_baselines
);
criterion_main!(benches);
