//! The `mps serve` and `mps client` subcommands: the compile-server
//! daemon and its line-oriented driver.
//!
//! ```text
//! mps serve [--port P | --stdio] [--workers N] [--queue N] [--json]
//!           [--max-artifacts N] [--max-artifact-bytes N] [--max-tables N]
//!           [--max-table-bytes N] [--max-line-bytes N] [--max-conns N]
//!           [--read-timeout-ms N] [--cache-dir DIR]
//!           [--peer ADDR]... [--advertise ADDR]
//!           [--probe-interval-ms N] [--forward-timeout-ms N]
//! mps client [--port P] [--retries N] [--timeout-ms N] [--backoff-ms N]
//!            compile <workload|file> [--pdef N] [--span S|none]
//!            [--capacity N] [--engine E] [--alus N] [--fabric SPEC]
//!            [--id N] [--deadline-ms N]
//! mps client [--port P] (stats | ping | shutdown)
//! mps client [--port P] peers [<workload|file> [compile flags]]
//! mps client [--port P] raw '<json line>'
//! ```
//!
//! `serve` listens on `127.0.0.1:<port>` (thread per connection) or, with
//! `--stdio`, answers requests from stdin on stdout — handy behind
//! `socat` or an init system. Each miss compiles on the thread that read
//! it: `--workers N` is the number of compiles that run at once, and
//! `--queue N` the number of misses that may wait for one; a miss past
//! both is shed with an `overloaded` reply. Cache hits never wait. `--json` streams boot/compile/shutdown
//! events as JSON lines on stdout (stderr in `--stdio` mode, where
//! stdout carries replies). The cache budgets, line bound, connection
//! cap and read deadline map straight onto [`ServeOptions`];
//! `--cache-dir DIR` persists compile artifacts across restarts (see
//! [`mps::artifact`]) and warm-starts the cache on boot; fault
//! injection is armed from `MPS_FAULT_*` environment variables (see
//! [`mps_serve::FaultPlan::from_env`]).
//!
//! Repeating `--peer ADDR` forms a fleet: compiles are routed to their
//! rendezvous-hash owner, with health-checked failover and artifact
//! handoff (see the crate docs' *Fleet* section). `--advertise ADDR` is
//! mandatory with peers — it is this daemon's name in the ring and must
//! match how the peers list it. `--probe-interval-ms` paces the health
//! prober; `--forward-timeout-ms` bounds one forward hop.
//!
//! `client` prints the server's raw
//! JSON reply line on stdout — pipe it to `jq` — and exits 0 on
//! `ok:true`, 1 on an error reply. `--timeout-ms` bounds each reply
//! read; `--backoff-ms` retries `overloaded` sheds (honoring the
//! server's `retry_after_ms` hint) instead of failing on the first one.
//! `peers` dumps fleet membership and health; given a workload argument
//! (plus any `compile` flags) the reply also names the member that owns
//! that key — how a script finds the daemon to drain or kill.

use mps_serve::protocol::{Reply, Request};
use mps_serve::{Client, FaultPlan, ServeOptions, Server};
use std::io;
use std::net::TcpListener;
use std::time::Duration;

const DEFAULT_PORT: u16 = 7171;

pub fn cmd_serve(args: &[String]) -> i32 {
    let mut opts = ServeOptions::default();
    let mut port = DEFAULT_PORT;
    let mut stdio = false;
    let mut json = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--stdio" => stdio = true,
            "--json" => json = true,
            "--cache-dir" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--cache-dir needs a directory path");
                    return 2;
                };
                opts.cache_dir = Some(dir.into());
            }
            "--peer" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("--peer needs a host:port address");
                    return 2;
                };
                opts.peers.push(addr.clone());
            }
            "--advertise" => {
                i += 1;
                let Some(addr) = args.get(i) else {
                    eprintln!("--advertise needs a host:port address");
                    return 2;
                };
                opts.advertise = addr.clone();
            }
            "--probe-interval-ms" | "--forward-timeout-ms" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i).and_then(|v| v.parse::<u64>().ok()) else {
                    eprintln!("{flag} needs an unsigned integer value");
                    return 2;
                };
                if flag == "--probe-interval-ms" {
                    opts.probe_interval_ms = value.max(1);
                } else {
                    opts.forward_timeout_ms = value.max(1);
                }
            }
            "--port"
            | "--workers"
            | "--queue"
            | "--max-artifacts"
            | "--max-artifact-bytes"
            | "--max-tables"
            | "--max-table-bytes"
            | "--max-line-bytes"
            | "--max-conns"
            | "--read-timeout-ms" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i).and_then(|v| v.parse::<usize>().ok()) else {
                    eprintln!("{flag} needs an unsigned integer value");
                    return 2;
                };
                match flag.as_str() {
                    "--port" => match u16::try_from(value) {
                        Ok(p) => port = p,
                        Err(_) => {
                            eprintln!("--port must fit in 16 bits");
                            return 2;
                        }
                    },
                    "--workers" => opts.workers = value.max(1),
                    "--queue" => opts.queue = value.max(1),
                    "--max-artifacts" => opts.max_artifacts = Some(value),
                    "--max-artifact-bytes" => opts.max_artifact_bytes = Some(value),
                    "--max-tables" => opts.max_tables = Some(value),
                    "--max-table-bytes" => opts.max_table_bytes = Some(value),
                    "--max-line-bytes" => opts.max_line_bytes = value.max(64),
                    "--max-conns" => opts.max_conns = value.max(1),
                    _ => opts.read_timeout_ms = value as u64,
                }
            }
            other => {
                eprintln!(
                    "unknown flag {other} (serve takes --port/--stdio/--workers/--queue/--json/\
                     --max-artifacts/--max-artifact-bytes/--max-tables/--max-table-bytes/\
                     --max-line-bytes/--max-conns/--read-timeout-ms/--cache-dir/--peer/\
                     --advertise/--probe-interval-ms/--forward-timeout-ms)"
                );
                return 2;
            }
        }
        i += 1;
    }

    if !opts.peers.is_empty() && opts.advertise.is_empty() {
        eprintln!(
            "--peer needs --advertise HOST:PORT: the ring hashes member \
             addresses, so this daemon must know its own name in its \
             peers' --peer lists"
        );
        return 2;
    }
    if opts.peers.is_empty() && !opts.advertise.is_empty() {
        eprintln!("--advertise only makes sense with at least one --peer");
        return 2;
    }

    opts.faults = FaultPlan::from_env();
    if opts.faults.is_active() {
        eprintln!("mps serve: fault injection armed from MPS_FAULT_* environment");
    }

    let workers = opts.workers;
    let server = Server::new(opts);
    if stdio {
        if json {
            // stdout carries replies in stdio mode; log to stderr.
            server.set_log(Box::new(std::io::stderr()));
        }
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) = server.run_stdio(&mut stdin.lock(), &mut stdout.lock()) {
            eprintln!("serve: {e}");
            return 1;
        }
    } else {
        if json {
            server.set_log(Box::new(std::io::stdout()));
        }
        let addr = format!("127.0.0.1:{port}");
        let listener = match TcpListener::bind(&addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("serve: could not bind {addr}: {e}");
                return 1;
            }
        };
        eprintln!("mps serve: listening on {addr} ({workers} compile permits)");
        if let Err(e) = server.run_tcp(listener) {
            eprintln!("serve: {e}");
            return 1;
        }
    }
    server.finish();
    0
}

pub fn cmd_client(args: &[String]) -> i32 {
    let mut port = DEFAULT_PORT;
    let mut retries = 50u32;
    let mut timeout_ms: Option<u64> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--port" | "--retries" | "--timeout-ms" | "--backoff-ms" => {
                let flag = args[i].clone();
                i += 1;
                let Some(value) = args.get(i).and_then(|v| v.parse::<u32>().ok()) else {
                    eprintln!("{flag} needs an unsigned integer value");
                    return 2;
                };
                match flag.as_str() {
                    "--port" => match u16::try_from(value) {
                        Ok(p) => port = p,
                        Err(_) => {
                            eprintln!("--port must fit in 16 bits");
                            return 2;
                        }
                    },
                    "--retries" => retries = value,
                    "--timeout-ms" => timeout_ms = Some(u64::from(value.max(1))),
                    _ => backoff_ms = Some(u64::from(value.max(1))),
                }
                i += 1;
            }
            _ => break,
        }
    }
    let Some(verb) = args.get(i) else {
        eprintln!("client needs a verb: compile | stats | ping | peers | shutdown | raw");
        return 2;
    };
    let line = match verb.as_str() {
        "stats" | "ping" | "shutdown" => Request::op(verb).to_line(),
        // Bare `peers` dumps membership and health; with a workload (and
        // any compile flags) the server also names the key's owner.
        "peers" if args.len() <= i + 1 => Request::op("peers").to_line(),
        "peers" => match compile_request(&args[i + 1..]) {
            Ok(mut req) => {
                req.op = "peers".to_string();
                req.to_line()
            }
            Err(code) => return code,
        },
        "raw" => match args.get(i + 1) {
            Some(raw) => raw.clone(),
            None => {
                eprintln!("raw needs one JSON line argument");
                return 2;
            }
        },
        "compile" => match compile_request(&args[i + 1..]) {
            Ok(req) => req.to_line(),
            Err(code) => return code,
        },
        other => {
            eprintln!(
                "unknown client verb '{other}' (compile | stats | ping | peers | shutdown | raw)"
            );
            return 2;
        }
    };

    let addr = ("127.0.0.1", port);
    let mut client = match Client::connect(addr, retries, Duration::from_millis(100)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("client: could not connect to 127.0.0.1:{port}: {e}");
            return 1;
        }
    };
    if let Some(ms) = timeout_ms {
        if let Err(e) = client.set_timeout(Some(Duration::from_millis(ms))) {
            eprintln!("client: could not set timeout: {e}");
            return 1;
        }
    }
    let sent = match backoff_ms {
        Some(ms) => send_with_backoff(&mut client, &line, 10, Duration::from_millis(ms)),
        None => client.send_line(&line),
    };
    let reply = match sent {
        Ok(reply) => reply,
        Err(e) => {
            eprintln!("client: {e}");
            return 1;
        }
    };
    println!("{reply}");
    match Reply::from_line(&reply) {
        Ok(Reply::Error(_)) => 1,
        Ok(_) => 0,
        Err(e) => {
            eprintln!("client: undecodable reply: {e}");
            1
        }
    }
}

/// Retry `overloaded` sheds and cut connections with doubling backoff,
/// honoring the server's `retry_after_ms` hint. Any other reply —
/// success or error — is returned on the first delivery.
fn send_with_backoff(
    client: &mut Client,
    line: &str,
    attempts: u32,
    backoff: Duration,
) -> io::Result<String> {
    let mut wait = backoff;
    let mut last_err: Option<io::Error> = None;
    for attempt in 0..attempts.max(1) {
        if attempt > 0 {
            std::thread::sleep(wait);
            wait = wait.saturating_mul(2);
        }
        match client.send_line(line) {
            Ok(reply) => {
                if let Ok(Reply::Error(e)) = Reply::from_line(&reply) {
                    if e.code.as_deref() == Some("overloaded") {
                        if let Some(hint) = e.retry_after_ms {
                            wait = Duration::from_millis(hint.max(1));
                        }
                        eprintln!("client: overloaded, retrying in {wait:?}");
                        last_err = Some(io::Error::other("server overloaded"));
                        continue;
                    }
                }
                return Ok(reply);
            }
            Err(e) => {
                last_err = Some(e);
                let _ = client.reconnect();
            }
        }
    }
    Err(last_err.unwrap_or_else(|| io::Error::other("no request attempt made")))
}

/// Build a compile request from `compile <workload|file> [flags]`.
///
/// A graph argument naming an existing file is read and sent inline as
/// `graph` text; anything else is sent as a registry `workload` name for
/// the server to resolve.
fn compile_request(args: &[String]) -> Result<Request, i32> {
    let Some(target) = args.first() else {
        eprintln!("compile needs a workload name or graph file");
        return Err(2);
    };
    let mut req = Request::op("compile");
    if std::path::Path::new(target).exists() {
        match std::fs::read_to_string(target) {
            Ok(text) => req.graph = Some(text),
            Err(e) => {
                eprintln!("could not read {target}: {e}");
                return Err(2);
            }
        }
    } else {
        req.workload = Some(target.clone());
    }
    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        i += 1;
        let Some(value) = args.get(i) else {
            eprintln!("{flag} needs a value");
            return Err(2);
        };
        match flag {
            "--span" if value == "none" => req.span = Some(None),
            "--span" => match value.parse::<u32>() {
                Ok(n) => req.span = Some(Some(n)),
                Err(_) => {
                    eprintln!("--span needs an unsigned integer or 'none'");
                    return Err(2);
                }
            },
            "--engine" => req.engine = Some(value.clone()),
            "--fabric" => req.fabric = Some(value.clone()),
            "--pdef" | "--capacity" | "--alus" | "--id" | "--deadline-ms" => {
                match value.parse::<u64>() {
                    Ok(n) => match flag {
                        "--pdef" => req.pdef = Some(n as usize),
                        "--capacity" => req.capacity = Some(n as usize),
                        "--alus" => req.alus = Some(n as usize),
                        "--deadline-ms" => req.deadline_ms = Some(n),
                        _ => req.id = Some(n),
                    },
                    Err(_) => {
                        eprintln!("{flag} needs an unsigned integer value");
                        return Err(2);
                    }
                }
            }
            other => {
                eprintln!("unknown compile flag {other}");
                return Err(2);
            }
        }
        i += 1;
    }
    Ok(req)
}
