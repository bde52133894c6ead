//! Enumeration/classification throughput snapshots — the numbers behind
//! the repo's `BENCH_*.json` perf trajectory — plus a pinned-count smoke
//! check for CI.
//!
//! ```text
//! throughput                    human-readable table on stdout
//! throughput --json             machine-readable snapshot (scripts/bench_snapshot.sh)
//! throughput --only <section>   measure one section (classify, select, batch,
//!                               partition)
//! throughput --smoke            fast semantic check: antichain counts must
//!                               equal pinned values (exit 1 otherwise)
//! ```
//!
//! The classify section is the table-build comparison: the 12 registry
//! kernels at C ∈ {3, 4, 5} and span ∈ {1, 2, none}, the shipping
//! [`PatternTable::build`] against the sequential DFS fold
//! [`PatternTable::build_dfs`], median and IQR over interleaved rounds,
//! with the state DAG's size per row.
//!
//! Every section runs in process. The serve path (daemons, cache hits,
//! warm starts, the fleet ring) is timed by the repository benchmark under
//! `mpsbench/`, which reports spreads and checks replies against the
//! oracles.

use mps::prelude::*;
use serde::Serialize;
use std::time::{Duration, Instant};

/// The registry kernels of the table-build comparison (the `cold-sweep`
/// benchmark mix).
const KERNELS: [&str; 12] = [
    "fig2",
    "dft5",
    "dct8",
    "fir16",
    "matmul3",
    "fft8",
    "horner8",
    "cordic8",
    "iir4",
    "cholesky4",
    "star32",
    "conv3",
];

const CAPACITIES: [usize; 3] = [3, 4, 5];

const SPAN_LIMITS: [Option<u32>; 3] = [Some(1), Some(2), None];

/// Interleaved rounds per classify row: each round times the shipping
/// build and the DFS fold once each, alternating which goes first.
const ROUNDS: usize = 11;

/// Pinned antichain counts guarding the enumerator's semantics: if a perf
/// refactor changes any of these, the smoke check (run by CI and
/// scripts/smoke.sh) fails loudly. Each pin is checked twice: by the
/// `for_each_antichain` visitor count and by the shipping
/// [`PatternTable::build`], which takes the state DAG on every pin but
/// `fig4` (`star16` = C(16,1..5) leaf sets + hub(+leaf) sets + sink pair =
/// 9403; `broom64` = 2·64 + 1).
const SMOKE_PINS: [(&str, usize, Option<u32>, u64); 9] = [
    ("fig2", 5, None, 9374),
    ("fig4", 5, None, 8),
    ("dft5", 5, Some(1), 32054),
    ("star16", 5, None, 9403),
    ("star32", 5, None, 284275),
    ("broom64", 5, None, 129),
    ("conv3", 5, None, 4859135),
    ("fft8", 5, None, 1589939),
    ("matmul3", 5, Some(2), 790314),
];

fn cfg(capacity: usize, limit: Option<u32>) -> EnumerateConfig {
    EnumerateConfig {
        capacity,
        span_limit: limit,
        parallel: false,
    }
}

/// [`time_per_iter`] repeated `n` times, keeping the fastest run — the
/// estimator of the selection rows, whose engine and reference sides run
/// back to back on one prebuilt table.
fn time_best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let (mut best, mut result) = time_per_iter(&mut f);
    for _ in 1..n {
        let (sec, r) = time_per_iter(&mut f);
        if sec < best {
            best = sec;
        }
        result = r;
    }
    (best, result)
}

/// Time `f`, calibrating the iteration count to fill ~`target`, and
/// return (seconds per iteration, the last result).
fn time_for<R>(target: Duration, mut f: impl FnMut() -> R) -> (f64, R) {
    let start = Instant::now();
    let mut result = f();
    let once = start.elapsed();
    let iters = if once >= target {
        1
    } else {
        ((target.as_secs_f64() / once.as_secs_f64().max(1e-9)).ceil() as u64).clamp(1, 100_000)
    };
    let start = Instant::now();
    for _ in 0..iters {
        result = f();
    }
    (start.elapsed().as_secs_f64() / iters as f64, result)
}

/// [`time_for`] over ~200 ms.
fn time_per_iter<R>(f: impl FnMut() -> R) -> (f64, R) {
    time_for(Duration::from_millis(200), f)
}

/// Median and interquartile range of a sample.
fn median_iqr(mut xs: Vec<f64>) -> (f64, f64) {
    xs.sort_by(f64::total_cmp);
    let at = |q: f64| xs[((xs.len() - 1) as f64 * q).round() as usize];
    (at(0.5), at(0.75) - at(0.25))
}

/// A span limit as the snapshot keys rows by it: `"1"`, `"2"`, …, or
/// `"unlimited"`.
fn span_str(limit: Option<u32>) -> String {
    match limit {
        Some(l) => l.to_string(),
        None => "unlimited".to_string(),
    }
}

/// One table-build comparison: [`PatternTable::build`] (state DAG, or the
/// DFS fold below its cutover) against [`PatternTable::build_dfs`] (the
/// sequential DFS fold the build replaced), median and IQR over
/// [`ROUNDS`] interleaved rounds, with the size of the state DAG (`None`
/// when it is over its memory budget).
#[derive(Serialize)]
struct ClassifyRow {
    workload: &'static str,
    nodes: usize,
    capacity: usize,
    span_limit: String,
    antichains: u64,
    distinct_patterns: usize,
    states: Option<usize>,
    edges: Option<usize>,
    working_set_bytes: Option<usize>,
    build_sec: f64,
    build_iqr_sec: f64,
    dfs_sec: f64,
    dfs_iqr_sec: f64,
    speedup_vs_dfs: f64,
}

fn measure_classify() -> Vec<ClassifyRow> {
    let mut rows = Vec::new();
    for workload in KERNELS {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(workload).expect("registry kernel"));
        for capacity in CAPACITIES {
            for span_limit in SPAN_LIMITS {
                let c = cfg(capacity, span_limit);
                let table = PatternTable::build(&adfg, c);
                assert_eq!(
                    table,
                    PatternTable::build_dfs(&adfg, c),
                    "{workload} C{capacity} span {span_limit:?}: build must equal the DFS fold"
                );
                let target = Duration::from_millis(20);
                let (mut build, mut dfs) = (Vec::new(), Vec::new());
                for round in 0..ROUNDS {
                    let mut shipping =
                        || build.push(time_for(target, || PatternTable::build(&adfg, c)).0);
                    if round % 2 == 0 {
                        shipping();
                        dfs.push(time_for(target, || PatternTable::build_dfs(&adfg, c)).0);
                    } else {
                        dfs.push(time_for(target, || PatternTable::build_dfs(&adfg, c)).0);
                        shipping();
                    }
                }
                let (build_sec, build_iqr_sec) = median_iqr(build);
                let (dfs_sec, dfs_iqr_sec) = median_iqr(dfs);
                let dag = PatternTable::build_state_dag(&adfg, c).map(|(_, stats)| stats);
                rows.push(ClassifyRow {
                    workload,
                    nodes: adfg.len(),
                    capacity,
                    span_limit: span_str(span_limit),
                    antichains: table.total_antichains(),
                    distinct_patterns: table.len(),
                    states: dag.map(|d| d.states),
                    edges: dag.map(|d| d.edges),
                    working_set_bytes: dag.map(|d| d.working_set_bytes),
                    build_sec,
                    build_iqr_sec,
                    dfs_sec,
                    dfs_iqr_sec,
                    speedup_vs_dfs: dfs_sec / build_sec,
                });
            }
        }
    }
    rows
}

/// One row of the selection-stage comparison: a cover-engine strategy vs
/// its in-tree `*_reference` oracle on the same prebuilt table, plus the
/// end-to-end enumerate→classify→select time through the fast engine.
#[derive(Serialize)]
struct SelectRow {
    workload: &'static str,
    strategy: &'static str,
    config: &'static str,
    capacity: usize,
    pdef: usize,
    patterns: usize,
    select_sec: f64,
    select_reference_sec: f64,
    select_speedup_vs_reference: f64,
    end_to_end_sec: f64,
}

/// The two selection-stage configurations measured per workload (both are
/// Table 7-style `Pdef` sweeps over one prebuilt table, the documented
/// reuse pattern):
///
/// * `montium` — the paper's 5-ALU tile. Its candidate tables are small
///   (dozens of patterns) and dense, which bounds what lazy rescoring can
///   skip: the engine's win here comes mostly from settling most
///   candidates with one cached-bound compare instead of a dense rescan.
/// * `wide8` — an 8-slot tile (the `MAX_PATTERN_SLOTS` headroom exists
///   exactly for wider simulated tiles), tripling the candidate pool.
///   This is where selection cost actually hurts — and where the cover
///   engine's asymptotics show.
const SELECT_CONFIGS: [(&str, usize, usize); 2] = [("montium", 5, 8), ("wide8", 8, 16)];

type SelectFn = fn(&AnalyzedDfg, &PatternTable, &SelectConfig) -> mps::select::SelectionOutcome;

fn measure_select() -> Vec<SelectRow> {
    use mps::select::{
        node_cover_from_table, node_cover_from_table_reference, select_from_table,
        select_from_table_reference,
    };
    let strategies: [(&'static str, SelectFn, SelectFn); 2] = [
        ("eq8", select_from_table, select_from_table_reference),
        (
            "node_cover",
            node_cover_from_table,
            node_cover_from_table_reference,
        ),
    ];
    let mut rows = Vec::new();
    for workload in ["dft5", "fft8"] {
        let adfg = AnalyzedDfg::new(mps::workloads::by_name(workload).expect("registry kernel"));
        for (config, capacity, pdef) in SELECT_CONFIGS {
            let ecfg = EnumerateConfig {
                capacity,
                span_limit: None,
                parallel: false,
            };
            let table = PatternTable::build(&adfg, ecfg);
            let scfg = SelectConfig {
                pdef,
                capacity,
                span_limit: None,
                parallel: false,
                ..Default::default()
            };
            for (strategy, fast, reference) in strategies {
                let (select_sec, out) = time_best_of(3, || fast(&adfg, &table, &scfg));
                let (select_reference_sec, out_ref) =
                    time_best_of(3, || reference(&adfg, &table, &scfg));
                assert_eq!(
                    out, out_ref,
                    "{workload}/{config}/{strategy}: engine must match its reference"
                );
                let (end_to_end_sec, _) = time_best_of(2, || {
                    let t = PatternTable::build(&adfg, ecfg);
                    fast(&adfg, &t, &scfg)
                });
                rows.push(SelectRow {
                    workload,
                    strategy,
                    config,
                    capacity,
                    pdef,
                    patterns: table.len(),
                    select_sec,
                    select_reference_sec,
                    select_speedup_vs_reference: select_reference_sec / select_sec,
                    end_to_end_sec,
                });
            }
        }
    }
    rows
}

/// One row of the batch-compile scaling measure: the same fixed queue of
/// kernels served through [`mps::Session::compile_batch_in`] at a pinned
/// worker count, against the 1-worker sequential loop (identical code at
/// `workers == 1`, so that row documents parity, not a speedup).
#[derive(Serialize)]
struct BatchRow {
    workload: &'static str,
    workers: usize,
    graphs: usize,
    batch_sec: f64,
    sequential_sec: f64,
    graphs_per_sec: f64,
    batch_speedup_vs_sequential: f64,
}

/// The batch queue: two copies each of eight mid-sized kernels — the
/// serving shape (many independent graphs) with enough per-item weight
/// (dct8 and dft5 classify hundreds of thousands of antichains at span 1)
/// that the fan-out has real work to amortize its thread spawn against,
/// and enough per-item variance that dynamic claiming matters.
fn batch_queue() -> Vec<mps::prelude::Dfg> {
    [
        "dft5", "dct8", "fir16", "matmul3", "fft8", "horner8", "cordic8", "fig2",
    ]
    .iter()
    .flat_map(|n| {
        let d = mps::workloads::by_name(n).expect("known workload");
        [d.clone(), d]
    })
    .collect()
}

fn measure_batch() -> Vec<BatchRow> {
    use mps::{CompileConfig, Session};
    let dfgs = batch_queue();
    let cfg = CompileConfig {
        select: SelectConfig {
            span_limit: Some(1),
            ..Default::default()
        },
        ..Default::default()
    };
    let (sequential_sec, baseline) = time_best_of(3, || Session::compile_batch_in(1, &dfgs, &cfg));
    let mut rows = Vec::new();
    for workers in [1usize, 2, 4] {
        let (batch_sec, results) =
            time_best_of(3, || Session::compile_batch_in(workers, &dfgs, &cfg));
        for (a, b) in results.iter().zip(&baseline) {
            let (a, b) = (a.as_ref().expect("compiles"), b.as_ref().expect("compiles"));
            assert_eq!(
                (&a.selection, a.cycles),
                (&b.selection, b.cycles),
                "batch decisions must not depend on the worker count"
            );
        }
        rows.push(BatchRow {
            workload: "queue16",
            workers,
            graphs: dfgs.len(),
            batch_sec,
            sequential_sec,
            graphs_per_sec: dfgs.len() as f64 / batch_sec,
            batch_speedup_vs_sequential: sequential_sec / batch_sec,
        });
    }
    rows
}

/// One row of the fabric-partition section: a full fabric compile
/// (analyze → enumerate → select → partition → schedule → map_tile) of
/// one workload on one fabric spec, timed end to end. The 1-tile row is
/// the subsystem's equivalence oracle — its decisions are pinned against
/// the plain single-tile pipeline by the `integration_fabric` suite, so
/// here it serves as the baseline the multi-tile rows are compared to.
#[derive(Serialize)]
struct PartitionRow {
    workload: &'static str,
    fabric: &'static str,
    tiles: usize,
    transfers: usize,
    total_cycles: u64,
    critical_path: u32,
    compile_sec: f64,
    partition_sec: f64,
}

/// Fabric compiles across 1-, 2- and 4-tile fabrics, sequential, one
/// fresh session per timing iteration (the pattern table is rebuilt each
/// time, so rows are comparable across fabric specs).
fn measure_partition() -> Vec<PartitionRow> {
    let mut rows = Vec::new();
    for (workload, dfg) in [
        ("fig2", mps::workloads::fig2()),
        ("fft8", mps::workloads::fft_radix2(8)),
    ] {
        for fabric in ["1", "2@1", "4:3,16@2"] {
            let params = FabricParams::parse(fabric).expect("bench fabric spec parses");
            let capacity = params.min_alus();
            let make_cfg = || {
                let mut cfg = CompileConfig::default();
                cfg.select.parallel = false;
                cfg.select.span_limit = Some(1);
                cfg.select.capacity = capacity;
                cfg.fabric = Some(params.clone());
                cfg
            };
            let (compile_sec, (result, metrics)) = time_per_iter(|| {
                let mut session = Session::with_config(dfg.clone(), make_cfg());
                let result = session.compile().expect("fabric compile");
                (result, session.metrics().clone())
            });
            let mapping = result.fabric.expect("fabric compile carries a mapping");
            rows.push(PartitionRow {
                workload,
                fabric,
                tiles: mapping.tile_count(),
                transfers: mapping.transfer_count(),
                total_cycles: mapping.total_cycles,
                critical_path: mapping.critical_path,
                compile_sec,
                partition_sec: metrics.partition_sec,
            });
        }
    }
    rows
}

/// One `throughput` run: every measured section (empty when `--only`
/// skipped it), each with a note on what its rows time. `--json` prints
/// it through [`mps::json::write`]; its field names are the snapshot's
/// keys, which `scripts/bench_trend.sh` diffs across runs.
#[derive(Serialize)]
struct Snapshot {
    pr: u32,
    bench: &'static str,
    binary: &'static str,
    threads_available: usize,
    classify_note: String,
    classify_rows: Vec<ClassifyRow>,
    select_note: &'static str,
    select_rows: Vec<SelectRow>,
    batch_note: &'static str,
    batch_rows: Vec<BatchRow>,
    partition_note: &'static str,
    partition_rows: Vec<PartitionRow>,
}

fn print_table(s: &Snapshot) {
    println!(
        "{:<10} {:>2} {:>5} {:>10} {:>7} {:>7} {:>8} {:>11} {:>9} {:>11} {:>9} {:>8}",
        "classify",
        "C",
        "span",
        "antichains",
        "states",
        "edges",
        "ws_KiB",
        "build_ms",
        "iqr_ms",
        "dfs_ms",
        "iqr_ms",
        "speedup"
    );
    let or_dash = |x: Option<usize>| x.map_or("-".to_string(), |x| x.to_string());
    for r in &s.classify_rows {
        println!(
            "{:<10} {:>2} {:>5} {:>10} {:>7} {:>7} {:>8} {:>11.3} {:>9.3} {:>11.3} {:>9.3} {:>7.2}x",
            r.workload,
            r.capacity,
            r.span_limit,
            r.antichains,
            or_dash(r.states),
            or_dash(r.edges),
            or_dash(r.working_set_bytes.map(|b| b / 1024)),
            r.build_sec * 1e3,
            r.build_iqr_sec * 1e3,
            r.dfs_sec * 1e3,
            r.dfs_iqr_sec * 1e3,
            r.speedup_vs_dfs,
        );
    }
    println!();
    println!(
        "{:<9} {:<11} {:<9} {:>5} {:>9} {:>12} {:>12} {:>9} {:>12}",
        "select",
        "strategy",
        "config",
        "pdef",
        "patterns",
        "select_sec",
        "ref_sec",
        "speedup",
        "e2e_sec"
    );
    for r in &s.select_rows {
        println!(
            "{:<9} {:<11} {:<9} {:>5} {:>9} {:>12.9} {:>12.9} {:>8.1}x {:>12.6}",
            r.workload,
            r.strategy,
            r.config,
            r.pdef,
            r.patterns,
            r.select_sec,
            r.select_reference_sec,
            r.select_speedup_vs_reference,
            r.end_to_end_sec,
        );
    }
    println!();
    println!(
        "{:<10} {:>8} {:>7} {:>12} {:>16} {:>10} {:>9}",
        "batch", "workers", "graphs", "batch_sec", "sequential_sec", "graphs/s", "speedup"
    );
    for r in &s.batch_rows {
        println!(
            "{:<10} {:>8} {:>7} {:>12.6} {:>16.6} {:>10.1} {:>8.2}x",
            r.workload,
            r.workers,
            r.graphs,
            r.batch_sec,
            r.sequential_sec,
            r.graphs_per_sec,
            r.batch_speedup_vs_sequential,
        );
    }
    println!();
    println!(
        "{:<10} {:<10} {:>6} {:>10} {:>8} {:>9} {:>12} {:>14}",
        "workload",
        "fabric",
        "tiles",
        "transfers",
        "cycles",
        "critpath",
        "compile_sec",
        "partition_sec"
    );
    for r in &s.partition_rows {
        println!(
            "{:<10} {:<10} {:>6} {:>10} {:>8} {:>9} {:>12.6} {:>14.9}",
            r.workload,
            r.fabric,
            r.tiles,
            r.transfers,
            r.total_cycles,
            r.critical_path,
            r.compile_sec,
            r.partition_sec,
        );
    }
}

fn smoke() -> i32 {
    let mut failures = 0;
    for (name, capacity, span_limit, expected) in SMOKE_PINS {
        let dfg = mps::workloads::by_name(name).expect("smoke workload exists");
        let adfg = AnalyzedDfg::new(dfg);
        let c = cfg(capacity, span_limit);
        // The visitor count is the independent cross-check: it never
        // touches a table builder.
        let mut count = 0u64;
        mps::patterns::for_each_antichain(&adfg, c, |_, _| count += 1);
        let table = PatternTable::build(&adfg, c);
        let status = if count == expected && table.total_antichains() == expected {
            "ok"
        } else {
            failures += 1;
            "MISMATCH"
        };
        println!(
            "smoke {name} C{capacity} span={}: antichains={count} classified={} \
             expected={expected} … {status}",
            span_str(span_limit),
            table.total_antichains(),
        );
    }
    if failures > 0 {
        eprintln!("throughput --smoke: {failures} pinned count(s) changed — enumeration semantics drifted");
        1
    } else {
        println!("throughput --smoke: all pinned counts match");
        0
    }
}

/// The sections `--only` can pick.
const SECTIONS: [&str; 4] = ["classify", "select", "batch", "partition"];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    let json = args.iter().any(|a| a == "--json");
    // `--pr N`: which BENCH_<N>.json snapshot this run is labeled as
    // (bench_snapshot.sh passes its PR argument through).
    let pr = args
        .iter()
        .position(|a| a == "--pr")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(2);
    // `--only <section>`: measure one section, leave the others empty.
    let only = args
        .iter()
        .position(|a| a == "--only")
        .map(|i| args.get(i + 1).map(String::as_str).unwrap_or(""));
    if let Some(section) = only {
        if !SECTIONS.contains(&section) {
            eprintln!("throughput: --only takes one of {}", SECTIONS.join(", "));
            std::process::exit(2);
        }
    }
    fn run<T>(only: Option<&str>, section: &str, measure: fn() -> Vec<T>) -> Vec<T> {
        if only.is_none_or(|s| s == section) {
            measure()
        } else {
            Vec::new()
        }
    }
    let snapshot = Snapshot {
        pr,
        bench: "enumeration+classification throughput",
        binary: "throughput",
        threads_available: mps::par::parallelism(),
        classify_note: format!(
            "PatternTable::build (state DAG; DFS fold below its cutover) vs \
             PatternTable::build_dfs (the sequential DFS fold), sequential, median and IQR of \
             {ROUNDS} interleaved rounds; states/edges/working_set_bytes size the state DAG \
             (null: over its memory budget)"
        ),
        classify_rows: run(only, "classify", measure_classify),
        select_note: "selection stage (Pdef-round greedy sweep over one prebuilt table, \
             sequential) through the CoverMatrix engines vs the in-tree *_reference oracles \
             (full-rescore dense scans); montium = 5-slot tile / Pdef 8, wide8 = 8-slot tile / \
             Pdef 16 (3x the candidates — where selection cost bites); end_to_end_sec = \
             sequential enumerate→classify→select through the fast path",
        select_rows: run(only, "select", measure_select),
        batch_note: "Session::compile_batch_in over a fixed 16-kernel queue (full compiles: \
             analyze→enumerate span 1→Eq. 8 select→list schedule) at pinned worker counts vs \
             the 1-worker sequential loop; workers == 1 runs identical code, so that row \
             documents parity; speedups require real cores — compare workers to \
             threads_available above",
        batch_rows: run(only, "batch", measure_batch),
        partition_note: "one fabric compile (full pipeline incl. the partition stage and \
             per-tile replay) per row, sequential, span 1, fresh session every iteration; \
             fabric=1 is the single-tile equivalence baseline, the multi-tile rows add graph \
             cutting, release-aware per-tile scheduling and transfer accounting",
        partition_rows: run(only, "partition", measure_partition),
    };
    if json {
        println!("{}", mps::json::write(&serde::to_value(&snapshot)));
    } else {
        print_table(&snapshot);
    }
}
