//! Performance of the extension machinery: beam search vs greedy
//! scheduling, switch-aware scheduling, annealing refinement, tile replay
//! and modulo scheduling — the costs a compiler pays for each post-paper
//! improvement.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps::prelude::*;
use mps::scheduler::{schedule_beam, schedule_switch_aware, BeamConfig, SwitchAwareConfig};
use mps::select::{anneal_patterns, AnnealConfig};

fn setup(name: &str) -> (AnalyzedDfg, PatternSet) {
    let adfg = AnalyzedDfg::new(mps::workloads::by_name(name).unwrap());
    let patterns = mps::select::select_patterns(
        &adfg,
        &mps::select::SelectConfig {
            pdef: 4,
            span_limit: Some(1),
            parallel: false,
            ..Default::default()
        },
    )
    .patterns;
    (adfg, patterns)
}

fn bench_beam_width(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/beam_width");
    let (adfg, patterns) = setup("dct8");
    for width in [1usize, 2, 4, 8, 16] {
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, &width| {
            b.iter(|| {
                schedule_beam(
                    &adfg,
                    &patterns,
                    BeamConfig {
                        width,
                        ..Default::default()
                    },
                )
                .unwrap()
                .schedule
                .len()
            })
        });
    }
    group.finish();
}

fn bench_switch_aware(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/switch_aware");
    let (adfg, patterns) = setup("dft5");
    group.bench_function("greedy", |b| {
        b.iter(|| {
            schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
                .unwrap()
                .schedule
                .len()
        })
    });
    group.bench_function("keep0.6", |b| {
        b.iter(|| {
            schedule_switch_aware(
                &adfg,
                &patterns,
                SwitchAwareConfig {
                    keep_factor: 0.6,
                    ..Default::default()
                },
            )
            .unwrap()
            .schedule
            .len()
        })
    });
    group.finish();
}

fn bench_anneal(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/anneal_iters");
    group.sample_size(10);
    let (adfg, patterns) = setup("fig2");
    for iters in [50usize, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(iters), &iters, |b, &iters| {
            b.iter(|| {
                anneal_patterns(
                    &adfg,
                    &patterns,
                    &[],
                    AnnealConfig {
                        iterations: iters,
                        seed: 1,
                        ..Default::default()
                    },
                )
                .cycles
            })
        });
    }
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/backend");
    let (adfg, patterns) = setup("dct8");
    let schedule = schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default())
        .unwrap()
        .schedule;
    group.bench_function("replay", |b| {
        b.iter(|| {
            mps::montium::execute(
                &adfg,
                &schedule,
                &patterns,
                mps::montium::TileParams::default(),
            )
            .unwrap()
            .config_loads
        })
    });
    group.finish();
}

fn bench_modulo(c: &mut Criterion) {
    let mut group = c.benchmark_group("extensions/modulo");
    for name in ["fir8-chain", "lattice6", "dct8"] {
        let (adfg, eq8) = setup(name);
        group.bench_function(format!("{name}/eq8"), |b| {
            b.iter(|| {
                mps::scheduler::schedule_modulo(&adfg, &eq8, Default::default())
                    .unwrap()
                    .ii
            })
        });
        let tp = mps::select::select_for_throughput(&adfg, 5);
        group.bench_function(format!("{name}/tp"), |b| {
            b.iter(|| {
                mps::scheduler::schedule_modulo(&adfg, &tp, Default::default())
                    .unwrap()
                    .ii
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_beam_width,
    bench_switch_aware,
    bench_anneal,
    bench_replay,
    bench_modulo
);
criterion_main!(benches);
