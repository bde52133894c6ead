//! `mps` — command-line driver for the multi-pattern scheduling pipeline.
//!
//! ```text
//! mps list                                  # available workloads
//! mps info <workload>                       # graph statistics and levels
//! mps dot <workload>                        # Graphviz DOT on stdout
//! mps schedule <workload> <patterns...>     # schedule with given patterns
//! mps select <workload> [--pdef N] [--span S] [--trace] [--engine E]
//!                                           # run the paper's full pipeline
//! mps pipeline <workload> [--pdef N] [--span S] [--engine E] [--tp] [--json]
//!                                           # software-pipeline a kernel
//! mps patterns <workload> [--span S] [--dot]
//! mps partition <workload> [--fabric SPEC] [--pdef N] [--span S] [--engine E]
//!                                           # map onto a multi-tile fabric
//! mps artifact dump <workload> [--pdef N] [--span S] [--engine E] [--out F]
//! mps artifact diff <a.json> <b.json>
//! mps serve [--port P|--stdio] [--workers N] [--queue N] [--json]
//!           [--cache-dir DIR] [--peer ADDR]... [--advertise ADDR]
//! mps client [--port P] <compile <workload>|stats|ping|peers|shutdown|raw '<json>'>
//! ```
//!
//! The table-driven subcommands (`select`, `pipeline`, `patterns`) run on
//! [`mps::Session`] — one staged compile each, sharing the flag parser
//! below — and `--engine` accepts every [`SelectEngine`] name. `serve`
//! and `client` are the `mps_serve` compile daemon and its driver (see
//! `serve_cmd`).

use mps::prelude::*;
use mps::scheduler::ModuloConfig;
use mps::{CompileConfig, MpsError};

mod artifact_cmd;
mod serve_cmd;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("info") => with_workload(&args, 2, cmd_info),
        Some("stats") => with_workload(&args, 2, cmd_stats),
        Some("dot") => with_workload(&args, 2, cmd_dot),
        Some("schedule") => cmd_schedule(&args),
        Some("select") => cmd_select(&args),
        Some("pipeline") => cmd_pipeline(&args),
        Some("patterns") => cmd_patterns(&args),
        Some("partition") => cmd_partition(&args),
        Some("artifact") => artifact_cmd::cmd_artifact(&args),
        Some("serve") => serve_cmd::cmd_serve(&args),
        Some("client") => serve_cmd::cmd_client(&args),
        _ => {
            eprintln!(
                "usage: mps <list|info|dot|schedule|select|pipeline|patterns|partition|artifact|serve|client> [args]"
            );
            eprintln!("  (every <workload> argument also accepts a path to a");
            eprintln!("   graph file in the `node <name> <color>` text format)");
            eprintln!("  mps list");
            eprintln!("  mps info <workload>");
            eprintln!("  mps stats <workload>");
            eprintln!("  mps dot <workload>");
            eprintln!("  mps schedule <workload> <pattern> [pattern...]");
            eprintln!("  mps select <workload> [--pdef N] [--span S] [--trace] [--engine E]");
            eprintln!(
                "  mps pipeline <workload> [--pdef N] [--span S] [--engine E] [--tp] [--json]"
            );
            eprintln!("  mps patterns <workload> [--span S] [--dot]");
            eprintln!(
                "  mps partition <workload> [--fabric SPEC] [--pdef N] [--span S] [--engine E]"
            );
            eprintln!("            (SPEC: N, N:alus,configs or alus,configs+... with @latency)");
            eprintln!(
                "  mps artifact dump <workload> [--pdef N] [--span S] [--engine E] [--out F]"
            );
            eprintln!("  mps artifact diff <a.json> <b.json>");
            eprintln!("  mps serve [--port P|--stdio] [--workers N] [--queue N] [--json]");
            eprintln!("            # --workers: compiles at once; --queue: misses waiting for one");
            eprintln!("            [--cache-dir DIR]   # persistent artifacts, warm-start on boot");
            eprintln!("            [--peer ADDR]... [--advertise ADDR]   # fleet of daemons");
            eprintln!("            [--probe-interval-ms N] [--forward-timeout-ms N]");
            eprintln!("  mps client [--port P] [--retries N] compile <workload> [--pdef N]");
            eprintln!("             [--span S|none] [--capacity N] [--engine E] [--alus N] [--fabric SPEC]");
            eprintln!("  mps client [--port P] <stats|ping|shutdown|raw '<json>'>");
            eprintln!(
                "  mps client [--port P] peers [<workload> [compile flags]]  # fleet health/owner"
            );
            eprintln!("  engines (E): eq8 (alias cover), eq8-reference (alias reference),");
            eprintln!("               node-cover, node-cover-reference, coverage,");
            eprintln!("               coverage-reference, exhaustive, genetic, anneal, random");
            2
        }
    };
    std::process::exit(code);
}

/// Resolve a graph argument: first as a built-in workload name, then — if a
/// file of that name exists — as a graph in the `mps_dfg::parse_text` text
/// format (`node <name> <color>` / `edge <from> <to>` lines).
fn load(name: &str) -> Option<Dfg> {
    if let Some(d) = mps::workloads::by_name(name) {
        return Some(d);
    }
    if std::path::Path::new(name).exists() {
        let src = match std::fs::read_to_string(name) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("could not read {name}: {e}");
                return None;
            }
        };
        return match mps::dfg::parse_text(&src) {
            Ok(g) => Some(g),
            Err(e) => {
                eprintln!("{name}: {}", MpsError::from(e));
                None
            }
        };
    }
    eprintln!(
        "unknown workload '{name}' (and no such file); known workloads: {}",
        mps::workloads::workload_names().join(", ")
    );
    None
}

fn with_workload(args: &[String], min_len: usize, f: fn(&AnalyzedDfg) -> i32) -> i32 {
    if args.len() < min_len {
        eprintln!("missing workload name");
        return 2;
    }
    match load(&args[1]) {
        Some(dfg) => f(&AnalyzedDfg::new(dfg)),
        None => 2,
    }
}

/// Flags shared by the table-driven subcommands. One parser replaces the
/// three per-command `while i < args.len()` blocks this binary used to
/// carry; each command states which flags it accepts and its defaults.
struct Flags {
    pdef: usize,
    span: Option<u32>,
    trace: bool,
    tp: bool,
    json: bool,
    dot: bool,
    engine: SelectEngine,
    fabric: Option<String>,
}

impl Flags {
    fn defaults(span: Option<u32>) -> Flags {
        Flags {
            pdef: 4,
            span,
            trace: false,
            tp: false,
            json: false,
            dot: false,
            engine: SelectEngine::Eq8,
            fabric: None,
        }
    }
}

/// Parse `args[start..]` against the accepted flag list. Prints a
/// diagnostic and returns `Err(2)` (the usage exit code) on an unknown or
/// malformed flag.
fn parse_flags(
    args: &[String],
    start: usize,
    accepted: &[&str],
    mut flags: Flags,
) -> Result<Flags, i32> {
    let mut i = start;
    while i < args.len() {
        let flag = args[i].as_str();
        if !accepted.contains(&flag) {
            eprintln!("unknown flag {flag} (accepted: {})", accepted.join(", "));
            return Err(2);
        }
        match flag {
            "--pdef" => {
                i += 1;
                flags.pdef = match args.get(i).and_then(|s| s.parse().ok()) {
                    Some(n) => n,
                    None => {
                        eprintln!("--pdef takes a number, got {:?}", args.get(i));
                        return Err(2);
                    }
                };
            }
            "--span" => {
                i += 1;
                flags.span = match args.get(i).map(String::as_str) {
                    Some("none") => None,
                    Some(s) => match s.parse().ok() {
                        Some(n) => Some(n),
                        None => {
                            eprintln!("--span takes a number or 'none', got {s:?}");
                            return Err(2);
                        }
                    },
                    None => {
                        eprintln!("--span takes a number or 'none'");
                        return Err(2);
                    }
                };
            }
            "--engine" => {
                i += 1;
                match args.get(i).and_then(|s| SelectEngine::parse(s)) {
                    Some(e) => flags.engine = e,
                    None => {
                        eprintln!(
                            "--engine takes eq8|cover, eq8-reference|reference, node-cover, \
                             node-cover-reference, coverage, coverage-reference, exhaustive, \
                             genetic, anneal or random; got {:?}",
                            args.get(i)
                        );
                        return Err(2);
                    }
                }
            }
            "--fabric" => {
                i += 1;
                match args.get(i) {
                    Some(s) => flags.fabric = Some(s.clone()),
                    None => {
                        eprintln!("--fabric takes a spec like 2, 4:3,16 or 2,8+3,16@2");
                        return Err(2);
                    }
                }
            }
            "--trace" => flags.trace = true,
            "--tp" => flags.tp = true,
            "--json" => flags.json = true,
            "--dot" => flags.dot = true,
            _ => unreachable!("accepted list covers every match arm"),
        }
        i += 1;
    }
    Ok(flags)
}

fn cmd_list() -> i32 {
    println!("workloads (parameterized names take a number, e.g. dft5, fir16, matmul4):");
    for name in mps::workloads::workload_names() {
        println!("  {name}");
    }
    0
}

fn cmd_info(adfg: &AnalyzedDfg) -> i32 {
    let g = adfg.dfg();
    let l = adfg.levels();
    println!("nodes: {}", g.len());
    println!("edges: {}", g.edge_count());
    println!("colors: {:?}", g.color_set());
    let hist = g.color_histogram();
    for (i, &count) in hist.iter().enumerate() {
        if count > 0 {
            println!("  color {}: {count} nodes", Color(i as u8));
        }
    }
    println!("critical path: {} cycles", l.critical_path_len());
    println!("sources: {}, sinks: {}", g.sources().len(), g.sinks().len());
    0
}

fn cmd_stats(adfg: &AnalyzedDfg) -> i32 {
    print!("{}", mps::dfg::DfgStats::compute(adfg.dfg()));
    println!(
        "DAG width (maximum antichain): {}",
        mps::patterns::width(adfg)
    );
    let mac = mps::patterns::maximum_antichain(adfg);
    let names: Vec<&str> = mac.iter().map(|&n| adfg.dfg().name(n)).collect();
    println!("one maximum antichain: {{{}}}", names.join(","));
    0
}

fn cmd_dot(adfg: &AnalyzedDfg) -> i32 {
    print!("{}", mps::dfg::dot_string(adfg.dfg(), "mps workload"));
    0
}

fn cmd_schedule(args: &[String]) -> i32 {
    if args.len() < 3 {
        eprintln!("usage: mps schedule <workload> <pattern> [pattern...]");
        return 2;
    }
    let Some(dfg) = load(&args[1]) else { return 2 };
    let adfg = AnalyzedDfg::new(dfg);
    let Some(patterns) = PatternSet::parse(&args[2..].join(" ")) else {
        eprintln!("could not parse patterns (use lowercase letters, e.g. aabcc)");
        return 2;
    };
    match schedule_multi_pattern(&adfg, &patterns, MultiPatternConfig::default()) {
        Ok(r) => {
            print!("{}", r.schedule);
            println!();
            print!("{}", mps::scheduler::render_gantt(&adfg, &r.schedule, 5));
            0
        }
        Err(e) => {
            eprintln!("scheduling failed: {}", MpsError::from(e));
            1
        }
    }
}

fn cmd_select(args: &[String]) -> i32 {
    if args.len() < 2 {
        eprintln!("usage: mps select <workload> [--pdef N] [--span S] [--trace] [--engine E]");
        return 2;
    }
    let Some(dfg) = load(&args[1]) else { return 2 };
    let flags = match parse_flags(
        args,
        2,
        &["--pdef", "--span", "--trace", "--engine"],
        Flags::defaults(Some(1)),
    ) {
        Ok(f) => f,
        Err(code) => return code,
    };

    let sched = ScheduleEngine::List(MultiPatternConfig {
        record_trace: flags.trace,
        ..Default::default()
    });
    let mut session = Session::with_config(
        dfg,
        CompileConfig {
            select: SelectConfig {
                pdef: flags.pdef,
                span_limit: flags.span,
                ..Default::default()
            },
            engine: flags.engine,
            schedule: sched,
            tile: None,
            fabric: None,
        },
    );
    let result = match session.compile() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let adfg = session.analyzed_dfg().expect("compile analyzed the graph");

    println!("selected patterns: {}", result.selection.patterns);
    for (i, r) in result.selection.rounds.iter().enumerate() {
        println!(
            "  round {}: {{{}}} f={:.2}{}",
            i + 1,
            r.chosen,
            r.priority,
            if r.fabricated { " (fabricated)" } else { "" }
        );
    }
    if let Some(t) = &result.trace {
        print!("{}", t.render(adfg, &result.selection.patterns));
    }
    print!("{}", result.schedule);
    let bound = mps::scheduler::bounds::lower_bound(adfg, &result.selection.patterns);
    println!(
        "{} cycles (lower bound {bound}), utilization {:.0}%",
        result.cycles,
        result
            .schedule
            .utilization(session.config().select.capacity)
            * 100.0
    );
    0
}

/// Map a workload onto a multi-tile fabric: run the partition pipeline
/// (`analyze → enumerate → select → partition → schedule → map_tile`)
/// and print the per-tile plans, the inter-tile transfers and the
/// fabric-level accounting.
fn cmd_partition(args: &[String]) -> i32 {
    if args.len() < 2 {
        eprintln!(
            "usage: mps partition <workload> [--fabric SPEC] [--pdef N] [--span S] [--engine E]"
        );
        return 2;
    }
    let Some(dfg) = load(&args[1]) else { return 2 };
    let flags = match parse_flags(
        args,
        2,
        &["--fabric", "--pdef", "--span", "--engine"],
        Flags::defaults(Some(1)),
    ) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let spec = flags.fabric.as_deref().unwrap_or("2");
    let Some(params) = FabricParams::parse(spec) else {
        eprintln!("invalid fabric spec {spec:?} (try 2, 4:3,16 or 2,8+3,16@2)");
        return 2;
    };
    // Selected patterns run on every tile, so they must fit the
    // narrowest one.
    let capacity = params.min_alus();
    let mut session = Session::with_config(
        dfg,
        CompileConfig {
            select: SelectConfig {
                pdef: flags.pdef,
                span_limit: flags.span,
                capacity,
                ..Default::default()
            },
            engine: flags.engine,
            schedule: ScheduleEngine::default(),
            tile: None,
            fabric: Some(params),
        },
    );
    let result = match session.compile() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let mapping = result.fabric.expect("fabric compile carries a mapping");
    let adfg = session.analyzed_dfg().expect("compile analyzed the graph");
    let g = adfg.dfg();

    println!("fabric: {}", mapping.params);
    println!("selected patterns: {}", result.selection.patterns);
    for (t, plan) in mapping.tiles.iter().enumerate() {
        let members = mapping.tile_of.iter().filter(|&&x| x == t).count();
        println!(
            "tile {t} ({} ALUs, {} configs): {members} nodes, {} issue cycles, {} config loads",
            plan.params.alus,
            plan.params.max_configs,
            plan.schedule.len(),
            plan.exec.config_loads
        );
        for (c, gcycle) in plan.schedule.cycles().iter().zip(&plan.global_cycles) {
            let names: Vec<&str> = c.nodes.iter().map(|&n| g.name(n)).collect();
            println!("  cycle {gcycle}: [{}] {{{}}}", c.pattern, names.join(","));
        }
    }
    for tr in &mapping.transfers {
        println!(
            "transfer {} -> {} (tile {} -> {}): departs {}, arrives {}",
            g.name(tr.from),
            g.name(tr.to),
            tr.from_tile,
            tr.to_tile,
            tr.depart,
            tr.arrive
        );
    }
    println!(
        "total {} cycles (critical path {}), {} inter-tile transfers",
        mapping.total_cycles,
        mapping.critical_path,
        mapping.transfers.len()
    );
    0
}

/// Software-pipeline a kernel: select patterns (any `--engine`, or the
/// throughput-apportioned variant with `--tp`), schedule flat for latency
/// and modulo for throughput, and print the steady-state reservation
/// table — or, with `--json`, a machine-readable report including the
/// session's per-stage [`StageMetrics`].
fn cmd_pipeline(args: &[String]) -> i32 {
    if args.len() < 2 {
        eprintln!(
            "usage: mps pipeline <workload> [--pdef N] [--span S] [--engine E] [--tp] [--json]"
        );
        return 2;
    }
    let Some(dfg) = load(&args[1]) else { return 2 };
    let flags = match parse_flags(
        args,
        2,
        &["--pdef", "--span", "--engine", "--tp", "--json"],
        Flags::defaults(Some(2)),
    ) {
        Ok(f) => f,
        Err(code) => return code,
    };

    // `--tp` bypasses the session's selection stage: the throughput
    // selector is a single-pattern design-space heuristic, not a
    // candidate-table engine — which also means there are no session
    // stage metrics to report, so `--json` (whose contract includes
    // them) is rejected rather than silently degraded to text.
    if flags.tp {
        if flags.json {
            eprintln!("--tp and --json cannot be combined: the throughput selector bypasses the session, so there are no stage metrics to report");
            return 2;
        }
        return pipeline_tp(dfg);
    }

    let mut session = Session::with_config(
        dfg,
        CompileConfig {
            select: SelectConfig {
                pdef: flags.pdef,
                span_limit: flags.span,
                ..Default::default()
            },
            engine: flags.engine,
            ..Default::default()
        },
    );
    // Two staged chains over one session: the flat (latency) schedule,
    // then the modulo (throughput) schedule. The second chain re-selects
    // over the *cached* pattern table — visible in the metrics as a
    // table_cache_hits bump instead of a second build.
    let flat = match session.compile() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flat scheduling failed: {e}");
            return 1;
        }
    };
    let cfg = session.config().clone();
    let piped = match session
        .analyze()
        .enumerate(cfg.select.span_limit)
        .select(&cfg.engine)
        .schedule(&ScheduleEngine::Modulo(ModuloConfig::default()))
    {
        Ok(s) => s.finish(),
        Err(e) => {
            eprintln!("modulo scheduling failed: {e}");
            return 1;
        }
    };
    let (ii, mii) = (
        piped.ii.expect("modulo engine reports ii"),
        piped.mii.expect("modulo engine reports mii"),
    );

    if flags.json {
        print_pipeline_json(
            &args[1],
            cfg.engine.name(),
            &flat.selection.patterns,
            flat.cycles,
            ii,
            mii,
            session.metrics(),
        );
        return 0;
    }

    println!("patterns: {}", flat.selection.patterns);
    println!(
        "latency {} cycles; II = {ii} (resource bound {mii}); steady-state speedup {:.2}x",
        flat.cycles,
        flat.cycles as f64 / ii as f64
    );
    let adfg = session.analyzed_dfg().expect("compile analyzed the graph");
    let slots = piped.slot_patterns.as_deref().unwrap_or_default();
    for (r, slot) in slots.iter().enumerate() {
        println!(
            "  slot {r}: [{slot}] union bag {{{}}}",
            mps::scheduler::modulo_slot_bag(adfg, &piped.schedule, ii, r)
        );
    }
    0
}

/// The `--tp` variant of `mps pipeline`: one throughput-apportioned
/// pattern, flat + modulo schedules directly through the engines.
fn pipeline_tp(dfg: Dfg) -> i32 {
    let adfg = AnalyzedDfg::new(dfg);
    let patterns = mps::select::select_for_throughput(&adfg, 5);
    println!("patterns: {patterns}");
    let flat = match ScheduleEngine::default().run(&adfg, &patterns) {
        Ok(r) => r.schedule,
        Err(e) => {
            eprintln!("flat scheduling failed: {}", MpsError::from(e));
            return 1;
        }
    };
    let piped = match ScheduleEngine::Modulo(ModuloConfig::default()).run(&adfg, &patterns) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("modulo scheduling failed: {}", MpsError::from(e));
            return 1;
        }
    };
    let (ii, mii) = (piped.ii.unwrap(), piped.mii.unwrap());
    println!(
        "latency {} cycles; II = {ii} (resource bound {mii}); steady-state speedup {:.2}x",
        flat.len(),
        flat.len() as f64 / ii as f64
    );
    let slots = piped.slot_patterns.as_deref().unwrap_or_default();
    for (r, slot) in slots.iter().enumerate() {
        println!(
            "  slot {r}: [{slot}] union bag {{{}}}",
            mps::scheduler::modulo_slot_bag(&adfg, &piped.schedule, ii, r)
        );
    }
    0
}

/// Machine-readable `mps pipeline --json` report: the compile decisions
/// plus the session's cumulative per-stage metrics.
fn print_pipeline_json(
    workload: &str,
    engine: &str,
    patterns: &PatternSet,
    latency: usize,
    ii: usize,
    mii: usize,
    m: &StageMetrics,
) {
    let pats: Vec<String> = patterns.iter().map(|p| format!("\"{p}\"")).collect();
    // The workload argument may be an arbitrary file path: escape it.
    // Pattern and engine names come from fixed safe alphabets.
    let workload: String = workload
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    println!("{{");
    println!("  \"workload\": \"{workload}\",");
    println!("  \"engine\": \"{engine}\",");
    println!("  \"patterns\": [{}],", pats.join(", "));
    println!("  \"latency_cycles\": {latency},");
    println!("  \"ii\": {ii},");
    println!("  \"mii\": {mii},");
    println!(
        "  \"steady_state_speedup\": {:.4},",
        latency as f64 / ii as f64
    );
    println!("  \"stage_metrics\": {{");
    println!("    \"analyze_sec\": {:.6},", m.analyze_sec);
    println!("    \"enumerate_sec\": {:.6},", m.enumerate_sec);
    println!("    \"select_sec\": {:.6},", m.select_sec);
    println!("    \"partition_sec\": {:.6},", m.partition_sec);
    println!("    \"schedule_sec\": {:.6},", m.schedule_sec);
    println!("    \"map_tile_sec\": {:.6},", m.map_tile_sec);
    println!("    \"total_sec\": {:.6},", m.total_sec());
    println!("    \"antichains\": {},", m.antichains);
    println!("    \"table_patterns\": {},", m.table_patterns);
    println!("    \"select_rounds\": {},", m.select_rounds);
    println!("    \"cycles\": {},", m.cycles);
    println!("    \"table_builds\": {},", m.table_builds);
    println!("    \"table_cache_hits\": {}", m.table_cache_hits);
    println!("  }}");
    println!("}}");
}

/// Print a workload's candidate patterns (§5.1) with antichain counts,
/// plus the subpattern lattice summary; `--dot` emits the Hasse diagram.
/// Runs on the session's enumerate stage.
fn cmd_patterns(args: &[String]) -> i32 {
    if args.len() < 2 {
        eprintln!("usage: mps patterns <workload> [--span S] [--dot]");
        return 2;
    }
    let Some(dfg) = load(&args[1]) else { return 2 };
    let flags = match parse_flags(args, 2, &["--span", "--dot"], Flags::defaults(Some(1))) {
        Ok(f) => f,
        Err(code) => return code,
    };

    let mut session = Session::new(dfg);
    let enumerated = session.analyze().enumerate(flags.span);
    let table = enumerated.table();
    let lattice = mps::patterns::SubpatternLattice::build(table.iter().map(|s| s.pattern));
    if flags.dot {
        print!("{}", lattice.to_dot("candidate subpattern lattice"));
        return 0;
    }

    println!(
        "{} candidate patterns ({} antichains total, span limit {:?}):",
        table.len(),
        table.total_antichains(),
        flags.span
    );
    let maximal = lattice.maximal();
    let mut stats: Vec<_> = table.iter().collect();
    stats.sort_by_key(|s| std::cmp::Reverse(s.antichain_count));
    for s in stats.iter().take(20) {
        let idx = lattice.index_of(&s.pattern).expect("pattern is in lattice");
        println!(
            "  {:<8} {:>6} antichains, {} strict subpatterns{}",
            s.pattern.to_string(),
            s.antichain_count,
            lattice.strict_subpatterns(idx).len(),
            if maximal.contains(&idx) {
                "  [maximal]"
            } else {
                ""
            }
        );
    }
    if stats.len() > 20 {
        println!("  … {} more", stats.len() - 20);
    }
    println!(
        "lattice: {} maximal, {} minimal, height {} (longest deletion cascade)",
        maximal.len(),
        lattice.minimal().len(),
        lattice.height()
    );
    0
}
