//! Serving many graphs: compile a mixed batch of kernels through
//! [`Session::compile_batch`], the fan-out shape a production deployment
//! uses — many independent DFGs in, one `CompileResult` (decisions +
//! per-stage metrics) per kernel out, whole compiles distributed over the
//! `mps-par` worker substrate.
//!
//! ```text
//! cargo run --example serving_batch
//! ```

use mps::prelude::*;
use mps::CompileConfig;
use std::time::Instant;

fn main() {
    // A "request queue": one instance of each generator family, as a
    // service would see them arrive from different clients.
    let names = [
        "fig2", "dft3", "dft5", "fir8", "iir2", "dct8", "matmul2", "fft4", "horner4", "cordic4",
    ];
    let dfgs: Vec<Dfg> = names
        .iter()
        .map(|n| mps::workloads::by_name(n).expect("known workload"))
        .collect();

    // The paper's flow for every kernel: Eq. 8 selection over span-1
    // antichains, list scheduling. Each compile runs on one worker: the
    // batch fan-out is the only parallelism.
    let cfg = CompileConfig {
        select: SelectConfig {
            span_limit: Some(1),
            ..Default::default()
        },
        ..Default::default()
    };

    let t0 = Instant::now();
    let results = Session::compile_batch(&dfgs, &cfg);
    let wall = t0.elapsed().as_secs_f64();

    println!(
        "{:<10} {:>6} {:>10} {:>9} {:>7} {:>12}",
        "kernel", "nodes", "antichains", "patterns", "cycles", "compile_ms"
    );
    for (name, result) in names.iter().zip(&results) {
        match result {
            Ok(r) => println!(
                "{:<10} {:>6} {:>10} {:>9} {:>7} {:>12.2}",
                name,
                r.schedule.scheduled_nodes(),
                r.metrics.antichains,
                r.selection.patterns.len(),
                r.cycles,
                r.metrics.total_sec() * 1e3,
            ),
            Err(e) => println!("{name:<10} FAILED: {e}"),
        }
    }

    let ok = results.iter().filter(|r| r.is_ok()).count();
    println!(
        "\n{ok}/{} kernels compiled in {:.1} ms wall ({:.0} graphs/s) on {} worker(s)",
        results.len(),
        wall * 1e3,
        results.len() as f64 / wall,
        mps::par::parallelism()
    );

    // The same queue served sequentially, for the speedup headline.
    let t0 = Instant::now();
    let _ = Session::compile_batch_in(1, &dfgs, &cfg);
    let seq = t0.elapsed().as_secs_f64();
    println!(
        "sequential loop: {:.1} ms ({:.2}x batch speedup)",
        seq * 1e3,
        seq / wall
    );
}
