//! Enumeration + classification throughput (allocation-free enumerator +
//! interned patterns).
//!
//! Measures, on the paper's DFT workload and a complexsig-built FFT:
//!
//! * `enumeration/*` — raw antichains/second of [`for_each_antichain`]
//!   across the Table 5 span limits (0, 1, 2, ∞);
//! * `classify/*` — [`PatternTable::build`] end to end (enumerate +
//!   interned classification), sequential so the comparison is per-core;
//! * `classify_reference/*` — the retained seed path
//!   [`PatternTable::build_reference`], same configs. The ratio
//!   `classify_reference / classify` is the speedup the PR claims
//!   (`scripts/bench_snapshot.sh` records it in `BENCH_2.json`).
//!
//! and how the span limit controls the combinatorial cost and enumeration
//! scales with graph size:
//!
//! * `enumerate/fig2_span_limit` — the paper's Fig. 2 graph at span
//!   limits 0–4;
//! * `enumerate/random_dag_size` — random layered DAGs of 4, 6 and 8
//!   layers at span 1.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mps::prelude::*;
use mps::workloads::{random_layered_dag, RandomDagConfig};

fn graphs() -> Vec<(&'static str, AnalyzedDfg)> {
    vec![
        ("dft5", AnalyzedDfg::new(mps::workloads::dft5())),
        ("fft8", AnalyzedDfg::new(mps::workloads::fft_radix2(8))),
    ]
}

const SPAN_LIMITS: [Option<u32>; 4] = [Some(0), Some(1), Some(2), None];

fn span_label(limit: Option<u32>) -> String {
    match limit {
        Some(l) => format!("span{l}"),
        None => "span_unlimited".to_string(),
    }
}

fn cfg(limit: Option<u32>) -> EnumerateConfig {
    EnumerateConfig {
        capacity: 5,
        span_limit: limit,
        parallel: false,
    }
}

fn count_antichains(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> u64 {
    let mut count = 0u64;
    mps::patterns::for_each_antichain(adfg, cfg, |_, _| count += 1);
    count
}

fn bench_enumeration(c: &mut Criterion) {
    for (name, adfg) in graphs() {
        let mut group = c.benchmark_group(format!("enumeration/{name}"));
        for limit in SPAN_LIMITS {
            group.bench_with_input(
                BenchmarkId::from_parameter(span_label(limit)),
                &limit,
                |b, &limit| b.iter(|| count_antichains(&adfg, cfg(limit))),
            );
        }
        group.finish();
    }
}

fn bench_classification(c: &mut Criterion) {
    for (name, adfg) in graphs() {
        let mut group = c.benchmark_group(format!("classify/{name}"));
        for limit in SPAN_LIMITS {
            group.bench_with_input(
                BenchmarkId::from_parameter(span_label(limit)),
                &limit,
                |b, &limit| {
                    b.iter(|| PatternTable::build(&adfg, cfg(limit)).len());
                },
            );
        }
        group.finish();
    }
}

fn bench_classification_reference(c: &mut Criterion) {
    for (name, adfg) in graphs() {
        let mut group = c.benchmark_group(format!("classify_reference/{name}"));
        for limit in SPAN_LIMITS {
            group.bench_with_input(
                BenchmarkId::from_parameter(span_label(limit)),
                &limit,
                |b, &limit| {
                    b.iter(|| PatternTable::build_reference(&adfg, cfg(limit)).len());
                },
            );
        }
        group.finish();
    }
}

fn bench_span_limits(c: &mut Criterion) {
    let adfg = AnalyzedDfg::new(mps::workloads::fig2());
    let mut group = c.benchmark_group("enumerate/fig2_span_limit");
    for limit in [0u32, 1, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::from_parameter(limit), &limit, |b, &limit| {
            b.iter(|| count_antichains(&adfg, cfg(Some(limit))))
        });
    }
    group.finish();
}

fn bench_graph_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("enumerate/random_dag_size");
    group.sample_size(10);
    for layers in [4usize, 6, 8] {
        let adfg = AnalyzedDfg::new(random_layered_dag(&RandomDagConfig {
            layers,
            width: (4, 6),
            seed: 7,
            ..Default::default()
        }));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}nodes", adfg.len())),
            &adfg,
            |b, adfg| b.iter(|| count_antichains(adfg, cfg(Some(1)))),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_enumeration,
    bench_classification,
    bench_classification_reference,
    bench_span_limits,
    bench_graph_size
);
criterion_main!(benches);
