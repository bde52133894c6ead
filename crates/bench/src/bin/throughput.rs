//! Enumeration/classification throughput snapshots — the numbers behind
//! the repo's `BENCH_*.json` perf trajectory — plus a pinned-count smoke
//! check for CI.
//!
//! ```text
//! throughput                    human-readable table on stdout
//! throughput --json             machine-readable snapshot (scripts/bench_snapshot.sh)
//! throughput --only <section>   measure one section (classify, select, batch,
//!                               serve, shed, warm_start, fleet, partition)
//! throughput --smoke            fast semantic check: antichain counts must
//!                               equal pinned values (exit 1 otherwise)
//! ```
//!
//! The classify section is the table-build comparison: the 12 registry
//! kernels at C ∈ {3, 4, 5} and span ∈ {1, 2, none}, the shipping
//! [`PatternTable::build`] against the sequential DFS fold
//! [`PatternTable::build_dfs`], median and IQR over interleaved rounds,
//! with the state DAG's size per row.

use mps::patterns::DagStats;
use mps::prelude::*;
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

/// One table-build comparison: [`PatternTable::build`] (state DAG, or the
/// DFS fold below its cutover) against [`PatternTable::build_dfs`] (the
/// sequential DFS fold the build replaced), median and IQR over
/// [`ROUNDS`] interleaved rounds, with the size of the state DAG.
struct ClassifyRow {
    workload: &'static str,
    nodes: usize,
    capacity: usize,
    span_limit: Option<u32>,
    antichains: u64,
    patterns: usize,
    dag: Option<DagStats>,
    build_sec: f64,
    build_iqr_sec: f64,
    dfs_sec: f64,
    dfs_iqr_sec: f64,
}

impl ClassifyRow {
    fn speedup_vs_dfs(&self) -> f64 {
        self.dfs_sec / self.build_sec
    }
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
                rows.push(ClassifyRow {
                    workload,
                    nodes: adfg.len(),
                    capacity,
                    span_limit,
                    antichains: table.total_antichains(),
                    patterns: table.len(),
                    dag: PatternTable::build_state_dag(&adfg, c).map(|(_, stats)| stats),
                    build_sec,
                    build_iqr_sec,
                    dfs_sec,
                    dfs_iqr_sec,
                });
            }
        }
    }
    rows
}

/// One row of the selection-stage comparison: a cover-engine strategy vs
/// its in-tree `*_reference` oracle on the same prebuilt table, plus the
/// end-to-end enumerate→classify→select time through the fast engine.
struct SelectRow {
    workload: &'static str,
    strategy: &'static str,
    config: &'static str,
    capacity: usize,
    pdef: usize,
    patterns: usize,
    select_sec: f64,
    select_reference_sec: f64,
    end_to_end_sec: f64,
}

impl SelectRow {
    fn speedup_vs_reference(&self) -> f64 {
        self.select_reference_sec / self.select_sec
    }
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
struct BatchRow {
    workers: usize,
    graphs: usize,
    batch_sec: f64,
    sequential_sec: f64,
}

impl BatchRow {
    fn graphs_per_sec(&self) -> f64 {
        self.graphs as f64 / self.batch_sec
    }

    fn speedup_vs_sequential(&self) -> f64 {
        self.sequential_sec / self.batch_sec
    }
}

/// One row of the serving cold/warm comparison: a compile request driven
/// through a real `mps-serve` loopback server, first against an empty
/// artifact cache (`cold_sec`: full pipeline) and then repeated
/// (`warm_sec`: a cache hit answered from the sharded artifact map). The
/// ratio is the cache effect `BENCH_*.json` exists to record.
struct ServeRow {
    workload: &'static str,
    config: &'static str,
    capacity: usize,
    pdef: usize,
    cold_sec: f64,
    warm_sec: f64,
}

impl ServeRow {
    fn warm_speedup(&self) -> f64 {
        self.cold_sec / self.warm_sec
    }
}

/// Cold vs warm compile latency through the server, measured client-side
/// over a real loopback socket (wire + parse + cache/pipeline + reply —
/// the full serving path). One fresh server per row keeps cold honest;
/// the cold shot is single-sample by nature (the second identical
/// request is already warm), the warm side is best-of over repeats.
fn measure_serve() -> Vec<ServeRow> {
    use mps_serve::protocol::{Reply, Request};
    use mps_serve::{spawn_loopback, Client, ServeOptions};

    let mut rows = Vec::new();
    for workload in ["fig2", "dft5"] {
        for (config, capacity, pdef) in SELECT_CONFIGS {
            let (addr, server) =
                spawn_loopback(ServeOptions::default()).expect("bind loopback server");
            let mut client = Client::connect(addr, 100, Duration::from_millis(20))
                .expect("connect to loopback server");
            let req = Request {
                op: "compile".to_string(),
                workload: Some(workload.to_string()),
                pdef: Some(pdef),
                capacity: Some(capacity),
                ..Request::default()
            };
            let mut roundtrip = |expect_cached: bool| {
                let t0 = Instant::now();
                let reply = client.request(&req).expect("serve round trip");
                let sec = t0.elapsed().as_secs_f64();
                match reply {
                    Reply::Compile(r) => assert_eq!(
                        r.cached, expect_cached,
                        "{workload}/{config}: unexpected cache state"
                    ),
                    other => panic!("{workload}/{config}: unexpected reply {other:?}"),
                }
                sec
            };
            let cold_sec = roundtrip(false);
            let mut warm_sec = f64::INFINITY;
            for _ in 0..50 {
                warm_sec = warm_sec.min(roundtrip(true));
            }
            client.shutdown().expect("shutdown loopback server");
            server.join().expect("server thread exits");
            rows.push(ServeRow {
                workload,
                config,
                capacity,
                pdef,
                cold_sec,
                warm_sec,
            });
        }
    }
    rows
}

/// One row of the load-shedding comparison: eight clients storm a
/// deliberately tiny server (1 worker, queue of 2, an injected stage
/// delay standing in for heavy compiles). A shed is answered in
/// microseconds while an accepted compile pays the full queue+pipeline
/// latency — `shed_reply_sec` vs `accepted_sec` is the fast-fail margin
/// the admission queue buys, and `warm_unloaded_sec` anchors what the
/// same request costs once the storm has drained into the cache.
struct ShedRow {
    workload: &'static str,
    clients: usize,
    requests: u64,
    sheds: u64,
    shed_reply_sec: f64,
    accepted_sec: f64,
    warm_unloaded_sec: f64,
}

impl ShedRow {
    fn accepted_to_shed_ratio(&self) -> f64 {
        if self.shed_reply_sec > 0.0 {
            self.accepted_sec / self.shed_reply_sec
        } else {
            0.0
        }
    }
}

/// Storm a small loopback server until every client lands one accepted
/// compile, recording the best-observed shed and accepted latencies
/// client-side (wire included), then the warm unloaded repeat.
fn measure_shed() -> Vec<ShedRow> {
    use mps::Stage;
    use mps_serve::protocol::{Reply, Request};
    use mps_serve::{spawn_loopback, Client, FaultPlan, ServeOptions};

    const CLIENTS: usize = 8;
    const DELAY_MS: u64 = 20;
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        queue: 2,
        faults: FaultPlan {
            delay_stage: Some((Stage::Select, DELAY_MS)),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback server");

    // Distinct workloads so the artifact cache cannot single-flight the
    // storm away: all eight must really compile through the one worker.
    let workloads = [
        "fig2", "fig4", "dft3", "fir8", "iir2", "dct8", "horner4", "matmul2",
    ];
    let barrier = std::sync::Barrier::new(CLIENTS);
    let samples: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workloads
            .iter()
            .map(|w| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(addr, 100, Duration::from_millis(20))
                        .expect("connect to loopback server");
                    let req = Request {
                        op: "compile".to_string(),
                        workload: Some(w.to_string()),
                        span: Some(Some(1)),
                        ..Request::default()
                    };
                    barrier.wait();
                    let mut shed_best = f64::INFINITY;
                    loop {
                        let t0 = Instant::now();
                        let reply = client.request(&req).expect("serve round trip");
                        let sec = t0.elapsed().as_secs_f64();
                        match reply {
                            Reply::Compile(_) => return (shed_best, sec),
                            Reply::Error(e) if e.code.as_deref() == Some("overloaded") => {
                                shed_best = shed_best.min(sec);
                                let hint = e.retry_after_ms.unwrap_or(5).clamp(1, 50);
                                std::thread::sleep(Duration::from_millis(hint));
                            }
                            other => panic!("{w}: unexpected reply under load: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shed client thread"))
            .collect()
    });

    let mut client =
        Client::connect(addr, 100, Duration::from_millis(20)).expect("connect to loopback server");
    let warm_req = Request {
        op: "compile".to_string(),
        workload: Some("fig2".to_string()),
        span: Some(Some(1)),
        ..Request::default()
    };
    let mut warm_unloaded_sec = f64::INFINITY;
    for _ in 0..20 {
        let t0 = Instant::now();
        match client.request(&warm_req).expect("warm round trip") {
            Reply::Compile(r) => assert!(r.cached, "storm left fig2 cached"),
            other => panic!("unexpected warm reply {other:?}"),
        }
        warm_unloaded_sec = warm_unloaded_sec.min(t0.elapsed().as_secs_f64());
    }
    let stats = client.stats().expect("stats");
    client.shutdown().expect("shutdown loopback server");
    server.join().expect("server thread exits");

    let shed_reply_sec = samples
        .iter()
        .map(|(s, _)| *s)
        .filter(|s| s.is_finite())
        .fold(f64::INFINITY, f64::min);
    let accepted_sec = samples
        .iter()
        .map(|(_, a)| *a)
        .fold(f64::INFINITY, f64::min);
    vec![ShedRow {
        workload: "mixed8",
        clients: CLIENTS,
        requests: stats.requests,
        sheds: stats.sheds,
        // A storm that somehow never shed (huge machine) reports 0.0
        // rather than poisoning the JSON with inf.
        shed_reply_sec: if shed_reply_sec.is_finite() {
            shed_reply_sec
        } else {
            0.0
        },
        accepted_sec,
        warm_unloaded_sec,
    }]
}

/// One row of the warm-start comparison: the same compile request
/// driven through a `--cache-dir` server twice — once against an empty
/// cache directory (`cold_sec`: full pipeline + persist), then again as
/// the *first* request of a freshly restarted server on the same
/// directory (`restart_warm_sec`: answered from the artifact loaded at
/// boot, zero table builds). The ratio is what persistence buys across
/// process restarts — the cross-restart analogue of `serve_rows`'
/// in-process cache effect.
struct WarmStartRow {
    workload: &'static str,
    cold_sec: f64,
    restart_warm_sec: f64,
    artifacts_loaded: u64,
}

impl WarmStartRow {
    fn restart_speedup(&self) -> f64 {
        self.cold_sec / self.restart_warm_sec
    }
}

/// Cold vs restarted-warm compile latency through a persistent-cache
/// server, measured client-side over loopback. Each row boots a server
/// on a fresh cache directory, compiles once (cold, persists), shuts it
/// down, boots a second server on the same directory and measures the
/// identical request (best-of over repeats — every one must be a cache
/// hit with zero table builds, or the warm start did not happen).
fn measure_warm_start() -> Vec<WarmStartRow> {
    use mps_serve::protocol::{Reply, Request};
    use mps_serve::{spawn_loopback, Client, ServeOptions};

    let mut rows = Vec::new();
    for workload in ["fig2", "star16"] {
        let dir = std::env::temp_dir().join(format!(
            "mps-bench-warm-start-{}-{workload}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..ServeOptions::default()
        };
        let req = Request {
            op: "compile".to_string(),
            workload: Some(workload.to_string()),
            ..Request::default()
        };

        // Cold boot: empty directory, full pipeline, artifact persisted.
        let (addr, server) = spawn_loopback(opts.clone()).expect("bind loopback server");
        let mut client = Client::connect(addr, 100, Duration::from_millis(20))
            .expect("connect to loopback server");
        let t0 = Instant::now();
        match client.request(&req).expect("cold round trip") {
            Reply::Compile(r) => assert!(!r.cached, "{workload}: cold boot must compile"),
            other => panic!("{workload}: unexpected cold reply {other:?}"),
        }
        let cold_sec = t0.elapsed().as_secs_f64();
        client.shutdown().expect("shutdown cold server");
        server.join().expect("cold server thread exits");

        // Restart on the same directory: every request is a disk-warmed hit.
        let (addr, server) = spawn_loopback(opts).expect("bind restarted server");
        let mut client = Client::connect(addr, 100, Duration::from_millis(20))
            .expect("connect to restarted server");
        let mut restart_warm_sec = f64::INFINITY;
        for _ in 0..20 {
            let t0 = Instant::now();
            match client.request(&req).expect("warm round trip") {
                Reply::Compile(r) => {
                    assert!(r.cached, "{workload}: restart must answer from disk")
                }
                other => panic!("{workload}: unexpected warm reply {other:?}"),
            }
            restart_warm_sec = restart_warm_sec.min(t0.elapsed().as_secs_f64());
        }
        let stats = client.stats().expect("stats");
        assert_eq!(
            stats.table_builds, 0,
            "{workload}: a warm-started server must not rebuild tables"
        );
        assert!(
            stats.artifacts_loaded >= 1,
            "{workload}: restart loaded no artifacts"
        );
        client.shutdown().expect("shutdown restarted server");
        server.join().expect("restarted server thread exits");
        let _ = std::fs::remove_dir_all(&dir);

        rows.push(WarmStartRow {
            workload,
            cold_sec,
            restart_warm_sec,
            artifacts_loaded: stats.artifacts_loaded,
        });
    }
    rows
}

/// One row of the fleet routing comparison: the same request measured
/// through a real 2-daemon rendezvous ring, from the member that does
/// *not* own the key. `forwarded_hit_sec` pays one extra loopback hop
/// (non-owner → owner cache hit); `local_hit_sec` is the owner answering
/// directly (the hop's baseline); `failover_recompute_sec` is the
/// non-owner surviving a dead owner — dial failure plus a full local
/// compile, the price of the fault-tolerance path.
struct FleetRow {
    workload: &'static str,
    forwarded_hit_sec: f64,
    local_hit_sec: f64,
    failover_recompute_sec: f64,
}

impl FleetRow {
    fn forward_overhead(&self) -> f64 {
        self.forwarded_hit_sec / self.local_hit_sec
    }
}

/// Forwarded-hit vs local-hit vs failover-recompute latency through a
/// 2-member fleet on loopback, measured client-side. One fresh fleet per
/// row; the failover shot is single-sample by nature (the recompute
/// leaves a replica, so every repeat would be a warm local hit).
fn measure_fleet() -> Vec<FleetRow> {
    use mps_serve::protocol::{Reply, Request};
    use mps_serve::{spawn_on, Client, ServeOptions};
    use std::net::TcpListener;

    let mut rows = Vec::new();
    for workload in ["fig2", "dft5"] {
        let bound: Vec<(std::net::SocketAddr, TcpListener)> = (0..2)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
                (l.local_addr().expect("local addr"), l)
            })
            .collect();
        let members: Vec<std::net::SocketAddr> = bound.iter().map(|(a, _)| *a).collect();
        let handles: Vec<_> = bound
            .into_iter()
            .map(|(addr, listener)| {
                let opts = ServeOptions {
                    advertise: addr.to_string(),
                    peers: members
                        .iter()
                        .filter(|m| **m != addr)
                        .map(|m| m.to_string())
                        .collect(),
                    probe_interval_ms: 200,
                    forward_timeout_ms: 1_000,
                    ..ServeOptions::default()
                };
                spawn_on(listener, opts)
            })
            .collect();

        let req = Request {
            op: "compile".to_string(),
            workload: Some(workload.to_string()),
            span: Some(Some(1)),
            ..Request::default()
        };
        let connect = |addr: std::net::SocketAddr| {
            Client::connect(addr, 100, Duration::from_millis(20)).expect("connect to member")
        };

        // Which member owns this key? Measure from the other one.
        let owner: std::net::SocketAddr = {
            let mut ask = req.clone();
            ask.op = "peers".to_string();
            match connect(members[0]).request(&ask).expect("peers reply") {
                Reply::Peers(p) => p
                    .owner
                    .expect("compile-shaped peers request names an owner")
                    .parse()
                    .expect("owner is a socket address"),
                other => panic!("{workload}: unexpected peers reply {other:?}"),
            }
        };
        let non_owner = *members.iter().find(|m| **m != owner).expect("2 members");

        let roundtrip = |addr: std::net::SocketAddr, expect_cached: bool| {
            let mut client = connect(addr);
            let t0 = Instant::now();
            let reply = client.request(&req).expect("fleet round trip");
            let sec = t0.elapsed().as_secs_f64();
            match reply {
                Reply::Compile(r) => assert_eq!(
                    r.cached, expect_cached,
                    "{workload}: unexpected cache state"
                ),
                other => panic!("{workload}: unexpected reply {other:?}"),
            }
            sec
        };

        // Warm the owner through the ring, then measure the two hit paths.
        roundtrip(non_owner, false);
        let mut forwarded_hit_sec = f64::INFINITY;
        let mut local_hit_sec = f64::INFINITY;
        for _ in 0..50 {
            forwarded_hit_sec = forwarded_hit_sec.min(roundtrip(non_owner, true));
            local_hit_sec = local_hit_sec.min(roundtrip(owner, true));
        }

        // Kill the owner: the next request through the non-owner pays a
        // refused dial plus a full local compile.
        connect(owner).shutdown().expect("owner shutdown ack");
        let failover_recompute_sec = roundtrip(non_owner, false);
        let stats = connect(non_owner).stats().expect("stats");
        assert!(
            stats.peer_failovers >= 1,
            "{workload}: the dead owner must be survived by failover"
        );

        connect(non_owner)
            .shutdown()
            .expect("survivor shutdown ack");
        for handle in handles {
            handle.join().expect("member thread exits");
        }
        rows.push(FleetRow {
            workload,
            forwarded_hit_sec,
            local_hit_sec,
            failover_recompute_sec,
        });
    }
    rows
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
            workers,
            graphs: dfgs.len(),
            batch_sec,
            sequential_sec,
        });
    }
    rows
}

fn span_str(limit: Option<u32>) -> String {
    match limit {
        Some(l) => l.to_string(),
        None => "unlimited".to_string(),
    }
}

/// Every measured section, bundled so the printers take one argument
/// instead of a parameter per table.
/// One row of the fabric-partition section: a full fabric compile
/// (analyze → enumerate → select → partition → schedule → map_tile) of
/// one workload on one fabric spec, timed end to end. The 1-tile row is
/// the subsystem's equivalence oracle — its decisions are pinned against
/// the plain single-tile pipeline by the `integration_fabric` suite, so
/// here it serves as the baseline the multi-tile rows are compared to.
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

struct Sections {
    classify: Vec<ClassifyRow>,
    select: Vec<SelectRow>,
    batch: Vec<BatchRow>,
    serve: Vec<ServeRow>,
    shed: Vec<ShedRow>,
    warm_start: Vec<WarmStartRow>,
    fleet: Vec<FleetRow>,
    partition: Vec<PartitionRow>,
}

fn print_json(s: &Sections, pr: u32) {
    let Sections {
        classify,
        select,
        batch,
        serve,
        shed,
        warm_start,
        fleet,
        partition,
    } = s;
    println!("{{");
    println!("  \"pr\": {pr},");
    println!("  \"bench\": \"enumeration+classification throughput\",");
    println!("  \"binary\": \"throughput\",");
    println!("  \"threads_available\": {},", mps::par::parallelism());
    println!(
        "  \"classify_note\": \"PatternTable::build (state DAG; DFS fold below its cutover) \
         vs PatternTable::build_dfs (the sequential DFS fold), sequential, median and IQR of \
         {ROUNDS} interleaved rounds; states/edges/working_set_bytes size the state DAG \
         (null: over its memory budget)\","
    );
    println!("  \"classify_rows\": [");
    for (i, r) in classify.iter().enumerate() {
        let comma = if i + 1 == classify.len() { "" } else { "," };
        let dag = r.dag.map_or(
            "\"states\": null, \"edges\": null, \"working_set_bytes\": null".to_string(),
            |d| {
                format!(
                    "\"states\": {}, \"edges\": {}, \"working_set_bytes\": {}",
                    d.states, d.edges, d.working_set_bytes
                )
            },
        );
        println!(
            "    {{\"workload\": \"{}\", \"nodes\": {}, \"capacity\": {}, \"span_limit\": \"{}\", \
             \"antichains\": {}, \"distinct_patterns\": {}, {dag}, \
             \"build_sec\": {:.7}, \"build_iqr_sec\": {:.7}, \"dfs_sec\": {:.7}, \
             \"dfs_iqr_sec\": {:.7}, \"speedup_vs_dfs\": {:.2}}}{}",
            r.workload,
            r.nodes,
            r.capacity,
            span_str(r.span_limit),
            r.antichains,
            r.patterns,
            r.build_sec,
            r.build_iqr_sec,
            r.dfs_sec,
            r.dfs_iqr_sec,
            r.speedup_vs_dfs(),
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"select_note\": \"selection stage (Pdef-round greedy sweep over one prebuilt \
         table, sequential) through the CoverMatrix engines vs the in-tree *_reference \
         oracles (full-rescore dense scans); montium = 5-slot tile / Pdef 8, wide8 = \
         8-slot tile / Pdef 16 (3x the candidates — where selection cost bites); \
         end_to_end_sec = sequential enumerate→classify→select through the fast path\","
    );
    println!("  \"select_rows\": [");
    for (i, r) in select.iter().enumerate() {
        let comma = if i + 1 == select.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"strategy\": \"{}\", \"config\": \"{}\", \
             \"capacity\": {}, \"pdef\": {}, \"patterns\": {}, \"select_sec\": {:.9}, \
             \"select_reference_sec\": {:.9}, \"select_speedup_vs_reference\": {:.2}, \
             \"end_to_end_sec\": {:.6}}}{}",
            r.workload,
            r.strategy,
            r.config,
            r.capacity,
            r.pdef,
            r.patterns,
            r.select_sec,
            r.select_reference_sec,
            r.speedup_vs_reference(),
            r.end_to_end_sec,
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"batch_note\": \"Session::compile_batch_in over a fixed 16-kernel queue (full \
         compiles: analyze→enumerate span 1→Eq. 8 select→list schedule) at pinned worker \
         counts vs the 1-worker sequential loop; workers == 1 runs identical code, so that \
         row documents parity; speedups require real cores — compare workers to \
         threads_available above\","
    );
    println!("  \"batch_rows\": [");
    for (i, r) in batch.iter().enumerate() {
        let comma = if i + 1 == batch.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"queue16\", \"workers\": {}, \"graphs\": {}, \
             \"batch_sec\": {:.6}, \"sequential_sec\": {:.6}, \"graphs_per_sec\": {:.1}, \
             \"batch_speedup_vs_sequential\": {:.2}}}{}",
            r.workers,
            r.graphs,
            r.batch_sec,
            r.sequential_sec,
            r.graphs_per_sec(),
            r.speedup_vs_sequential(),
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"serve_note\": \"one compile request driven through an mps-serve loopback TCP \
         server, measured client-side: cold_sec = first request (empty caches, full \
         pipeline, single shot by nature), warm_sec = best-of-50 repeat of the identical \
         request (artifact-cache hit); warm_speedup_vs_cold is the cache effect\","
    );
    println!("  \"serve_rows\": [");
    for (i, r) in serve.iter().enumerate() {
        let comma = if i + 1 == serve.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"config\": \"{}\", \"capacity\": {}, \"pdef\": {}, \
             \"cold_sec\": {:.6}, \"warm_sec\": {:.9}, \"warm_speedup_vs_cold\": {:.1}}}{}",
            r.workload,
            r.config,
            r.capacity,
            r.pdef,
            r.cold_sec,
            r.warm_sec,
            r.warm_speedup(),
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"shed_note\": \"8 clients storm a 1-worker/queue-2 loopback server with a 20ms \
         injected stage delay until each lands one accepted compile: shed_reply_sec = \
         best-observed latency of a structured overloaded reply (the fast-fail the \
         admission queue buys), accepted_sec = best accepted compile under the storm, \
         warm_unloaded_sec = best-of-20 cache-hit repeat after the storm drains; sheds \
         and requests come from the server's own counters\","
    );
    println!("  \"shed_rows\": [");
    for (i, r) in shed.iter().enumerate() {
        let comma = if i + 1 == shed.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"clients\": {}, \"requests\": {}, \"sheds\": {}, \
             \"shed_reply_sec\": {:.9}, \"accepted_sec\": {:.6}, \
             \"warm_unloaded_sec\": {:.9}, \"accepted_to_shed_ratio\": {:.1}}}{}",
            r.workload,
            r.clients,
            r.requests,
            r.sheds,
            r.shed_reply_sec,
            r.accepted_sec,
            r.warm_unloaded_sec,
            r.accepted_to_shed_ratio(),
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"warm_start_note\": \"one compile through a --cache-dir loopback server, then \
         the identical request as the first answer of a *restarted* server on the same \
         directory (best-of-20, every repeat must be a cache hit with table_builds == 0): \
         cold_sec = fresh-directory compile + persist, restart_warm_sec = disk-warmed \
         reply after a full process restart; restart_speedup_vs_cold is what the \
         persistent artifact tier buys across restarts\","
    );
    println!("  \"warm_start_rows\": [");
    for (i, r) in warm_start.iter().enumerate() {
        let comma = if i + 1 == warm_start.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"cold_sec\": {:.6}, \"restart_warm_sec\": {:.9}, \
             \"artifacts_loaded\": {}, \"restart_speedup_vs_cold\": {:.1}}}{}",
            r.workload,
            r.cold_sec,
            r.restart_warm_sec,
            r.artifacts_loaded,
            r.restart_speedup(),
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"fleet_note\": \"one request through a 2-daemon rendezvous ring on loopback, \
         measured client-side from the key's *non-owner*: forwarded_hit_sec = best-of-50 \
         hop to the owner's artifact cache, local_hit_sec = best-of-50 asking the owner \
         directly (the hop's baseline; their ratio is the forward overhead), \
         failover_recompute_sec = single-shot survival of a killed owner (refused dial + \
         full local compile — the price of the fault-tolerance path)\","
    );
    println!("  \"fleet_rows\": [");
    for (i, r) in fleet.iter().enumerate() {
        let comma = if i + 1 == fleet.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"forwarded_hit_sec\": {:.9}, \
             \"local_hit_sec\": {:.9}, \"forward_overhead_vs_local\": {:.2}, \
             \"failover_recompute_sec\": {:.6}}}{}",
            r.workload,
            r.forwarded_hit_sec,
            r.local_hit_sec,
            r.forward_overhead(),
            r.failover_recompute_sec,
            comma
        );
    }
    println!("  ],");
    println!(
        "  \"partition_note\": \"one fabric compile (full pipeline incl. the partition \
         stage and per-tile replay) per row, sequential, span 1, fresh session every \
         iteration; fabric=1 is the single-tile equivalence baseline, the multi-tile rows \
         add graph cutting, release-aware per-tile scheduling and transfer accounting\","
    );
    println!("  \"partition_rows\": [");
    for (i, r) in partition.iter().enumerate() {
        let comma = if i + 1 == partition.len() { "" } else { "," };
        println!(
            "    {{\"workload\": \"{}\", \"fabric\": \"{}\", \"tiles\": {}, \
             \"transfers\": {}, \"total_cycles\": {}, \"critical_path\": {}, \
             \"compile_sec\": {:.6}, \"partition_sec\": {:.9}}}{}",
            r.workload,
            r.fabric,
            r.tiles,
            r.transfers,
            r.total_cycles,
            r.critical_path,
            r.compile_sec,
            r.partition_sec,
            comma
        );
    }
    println!("  ]");
    println!("}}");
}

fn print_table(s: &Sections) {
    let Sections {
        classify,
        select,
        batch,
        serve,
        shed,
        warm_start,
        fleet,
        partition,
    } = s;
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
    for r in classify {
        let (states, edges, ws) = r.dag.map_or(("-".into(), "-".into(), "-".into()), |d| {
            (
                d.states.to_string(),
                d.edges.to_string(),
                (d.working_set_bytes / 1024).to_string(),
            )
        });
        println!(
            "{:<10} {:>2} {:>5} {:>10} {:>7} {:>7} {:>8} {:>11.3} {:>9.3} {:>11.3} {:>9.3} {:>7.2}x",
            r.workload,
            r.capacity,
            span_str(r.span_limit),
            r.antichains,
            states,
            edges,
            ws,
            r.build_sec * 1e3,
            r.build_iqr_sec * 1e3,
            r.dfs_sec * 1e3,
            r.dfs_iqr_sec * 1e3,
            r.speedup_vs_dfs(),
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
    for r in select {
        println!(
            "{:<9} {:<11} {:<9} {:>5} {:>9} {:>12.9} {:>12.9} {:>8.1}x {:>12.6}",
            r.workload,
            r.strategy,
            r.config,
            r.pdef,
            r.patterns,
            r.select_sec,
            r.select_reference_sec,
            r.speedup_vs_reference(),
            r.end_to_end_sec,
        );
    }
    println!();
    println!(
        "{:<10} {:>8} {:>7} {:>12} {:>16} {:>10} {:>9}",
        "batch", "workers", "graphs", "batch_sec", "sequential_sec", "graphs/s", "speedup"
    );
    for r in batch {
        println!(
            "{:<10} {:>8} {:>7} {:>12.6} {:>16.6} {:>10.1} {:>8.2}x",
            "queue16",
            r.workers,
            r.graphs,
            r.batch_sec,
            r.sequential_sec,
            r.graphs_per_sec(),
            r.speedup_vs_sequential(),
        );
    }
    println!();
    println!(
        "{:<10} {:<9} {:>9} {:>6} {:>12} {:>12} {:>9}",
        "serve", "config", "capacity", "pdef", "cold_sec", "warm_sec", "speedup"
    );
    for r in serve {
        println!(
            "{:<10} {:<9} {:>9} {:>6} {:>12.6} {:>12.9} {:>8.1}x",
            r.workload,
            r.config,
            r.capacity,
            r.pdef,
            r.cold_sec,
            r.warm_sec,
            r.warm_speedup(),
        );
    }
    println!();
    println!(
        "{:<10} {:>7} {:>8} {:>6} {:>14} {:>12} {:>14} {:>7}",
        "shed",
        "clients",
        "requests",
        "sheds",
        "shed_reply_sec",
        "accepted_sec",
        "warm_sec",
        "ratio"
    );
    for r in shed {
        println!(
            "{:<10} {:>7} {:>8} {:>6} {:>14.9} {:>12.6} {:>14.9} {:>6.1}x",
            r.workload,
            r.clients,
            r.requests,
            r.sheds,
            r.shed_reply_sec,
            r.accepted_sec,
            r.warm_unloaded_sec,
            r.accepted_to_shed_ratio(),
        );
    }
    println!();
    println!(
        "{:<10} {:>12} {:>18} {:>10} {:>9}",
        "warmstart", "cold_sec", "restart_warm_sec", "artifacts", "speedup"
    );
    for r in warm_start {
        println!(
            "{:<10} {:>12.6} {:>18.9} {:>10} {:>8.1}x",
            r.workload,
            r.cold_sec,
            r.restart_warm_sec,
            r.artifacts_loaded,
            r.restart_speedup(),
        );
    }
    println!();
    println!(
        "{:<10} {:>16} {:>14} {:>10} {:>16}",
        "fleet", "forwarded_hit", "local_hit", "overhead", "failover_sec"
    );
    for r in fleet {
        println!(
            "{:<10} {:>16.9} {:>14.9} {:>9.2}x {:>16.6}",
            r.workload,
            r.forwarded_hit_sec,
            r.local_hit_sec,
            r.forward_overhead(),
            r.failover_recompute_sec,
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
    for r in partition {
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
const SECTIONS: [&str; 8] = [
    "classify",
    "select",
    "batch",
    "serve",
    "shed",
    "warm_start",
    "fleet",
    "partition",
];

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
    let run = |section: &str| only.is_none_or(|s| s == section);
    let sections = Sections {
        classify: if run("classify") {
            measure_classify()
        } else {
            Vec::new()
        },
        select: if run("select") {
            measure_select()
        } else {
            Vec::new()
        },
        batch: if run("batch") {
            measure_batch()
        } else {
            Vec::new()
        },
        serve: if run("serve") {
            measure_serve()
        } else {
            Vec::new()
        },
        shed: if run("shed") {
            measure_shed()
        } else {
            Vec::new()
        },
        warm_start: if run("warm_start") {
            measure_warm_start()
        } else {
            Vec::new()
        },
        fleet: if run("fleet") {
            measure_fleet()
        } else {
            Vec::new()
        },
        partition: if run("partition") {
            measure_partition()
        } else {
            Vec::new()
        },
    };
    if json {
        print_json(&sections, pr);
    } else {
        print_table(&sections);
    }
}
