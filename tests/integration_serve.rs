//! Golden suite for the serving layer: a compile answered over the wire
//! must be identical to one run directly on [`mps::Session`], the
//! artifact and table caches must deduplicate concurrent identical
//! requests down to one compile, malformed requests must answer with
//! [`mps::MpsError`] stage provenance, and `shutdown` must drain.

use mps::{SelectEngine, Session};
use mps_serve::protocol::{Reply, Request};
use mps_serve::{spawn_loopback, Client, FaultPlan, ServeOptions, Server};
use std::time::{Duration, Instant};

/// The same registry slice the session golden suite sweeps.
const WORKLOADS: [&str; 12] = [
    "fig2", "fig4", "dft3", "dft5", "fir8", "iir2", "dct8", "matmul2", "fft4", "horner4", "star16",
    "broom64",
];

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, 100, Duration::from_millis(20)).expect("loopback connect")
}

fn compile_reply(client: &mut Client, req: &Request) -> mps_serve::protocol::CompileReply {
    match client.request(req).expect("request round trip") {
        Reply::Compile(reply) => reply,
        other => panic!("expected compile reply for {req:?}, got {other:?}"),
    }
}

/// The tentpole equivalence: for every registry workload, the reply that
/// comes back over a real socket renders exactly the patterns, cycle
/// count and schedule of a direct `Session::compile` under the config
/// the request maps to ([`Request::compile_config`] is shared, so this
/// also pins that mapping).
#[test]
fn wire_replies_equal_direct_session_compiles() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 2,
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    for name in WORKLOADS {
        let req = Request {
            op: "compile".to_string(),
            workload: Some(name.to_string()),
            span: Some(Some(1)),
            ..Request::default()
        };
        let reply = compile_reply(&mut client, &req);

        let cfg = req.compile_config().expect("valid request config");
        let dfg = mps::workloads::by_name(name).expect("registry workload");
        let direct = Session::with_config(dfg, cfg)
            .compile()
            .expect("direct compile");

        let direct_patterns: Vec<String> = direct
            .selection
            .patterns
            .iter()
            .map(|p| p.to_string())
            .collect();
        assert_eq!(reply.patterns, direct_patterns, "{name}: patterns differ");
        assert_eq!(
            reply.cycles as usize, direct.cycles,
            "{name}: cycles differ"
        );
        assert_eq!(
            reply.schedule,
            direct.schedule.to_string(),
            "{name}: schedule differs"
        );
        assert!(!reply.cached, "{name}: first request cannot be cached");
    }

    // The whole sweep again: every reply now comes from the artifact
    // cache and is still identical.
    for name in WORKLOADS {
        let req = Request {
            op: "compile".to_string(),
            workload: Some(name.to_string()),
            span: Some(Some(1)),
            ..Request::default()
        };
        let reply = compile_reply(&mut client, &req);
        assert!(reply.cached, "{name}: repeat request must hit the cache");
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, 24);
    assert_eq!(stats.artifact_cache_misses, 12);
    assert_eq!(stats.artifact_cache_hits, 12);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.latency.total.count, 24);

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread exits after shutdown");
}

/// The persistence contract, end to end over a real socket: a server
/// killed and restarted on the same `cache_dir` answers previously
/// compiled requests **byte-identically** — the reply line is compared
/// as a string after normalizing the two fields that legitimately
/// change (`cached`, which flips to true, and `latency_sec`, a fresh
/// measurement) — with zero table builds; and a corrupted cache file
/// degrades that one key to a recompile, never a crash — a recompile
/// that still skips its table build, because the pattern-table tier
/// (`pt-` artifacts) persists independently of the result tier.
#[test]
fn restarted_server_answers_byte_identically_from_disk() {
    let dir = std::env::temp_dir().join(format!("mps-serve-it-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let sweep: Vec<Request> = ["fig2", "star16", "dft3"]
        .iter()
        .map(|name| Request {
            op: "compile".to_string(),
            workload: Some(name.to_string()),
            span: Some(Some(1)),
            id: Some(7),
            ..Request::default()
        })
        .collect();

    // `latency_sec` is a fresh measurement each run and `cached` flips
    // on the warm side: normalize both, keep every other byte.
    fn normalize(line: &str) -> String {
        let value = mps_serve::json::parse(line).expect("reply parses");
        let mps::serde::Value::Map(fields) = value else {
            panic!("reply is an object: {line}");
        };
        let fields = fields
            .into_iter()
            .map(|(k, v)| match k.as_str() {
                "latency_sec" => (k, mps::serde::Value::F64(0.0)),
                "cached" => (k, mps::serde::Value::Bool(false)),
                _ => (k, v),
            })
            .collect();
        mps_serve::json::write(&mps::serde::Value::Map(fields))
    }

    let mut cold_lines = Vec::new();
    {
        let (addr, server) = spawn_loopback(opts.clone()).expect("bind cold server");
        let mut client = connect(addr);
        for req in &sweep {
            let line = client
                .send_line(&req.to_line())
                .expect("cold request round trip");
            assert!(
                matches!(Reply::from_line(&line), Ok(Reply::Compile(r)) if !r.cached),
                "cold compile: {line}"
            );
            cold_lines.push(line);
        }
        let stats = client.stats().expect("stats");
        assert_eq!(stats.artifacts_persisted, sweep.len() as u64);
        client.shutdown().expect("shutdown cold server");
        server.join().expect("cold server exits");
    }

    // Corrupt one artifact in place: that key recompiles, the rest warm.
    let victim = {
        let files: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir listable")
            .flatten()
            .map(|e| e.path())
            .collect();
        let tier = |prefix: &str| {
            let mut tier: Vec<_> = files
                .iter()
                .filter(|p| {
                    p.file_name()
                        .is_some_and(|n| n.to_string_lossy().starts_with(prefix))
                })
                .cloned()
                .collect();
            tier.sort();
            tier
        };
        let results = tier("cr-");
        assert_eq!(
            results.len(),
            sweep.len(),
            "one result artifact per compile"
        );
        assert_eq!(
            tier("pt-").len(),
            sweep.len(),
            "one table artifact per distinct graph"
        );
        results.into_iter().next().expect("a result artifact")
    };
    std::fs::write(&victim, b"{\"magic\":\"mps-artifact\",\"forma").expect("corrupt artifact");

    let (addr, server) = spawn_loopback(opts).expect("bind restarted server");
    let mut client = connect(addr);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.artifacts_loaded, sweep.len() as u64 - 1);
    assert_eq!(stats.load_rejected, 1);

    let mut warm_hits = 0;
    for (req, cold_line) in sweep.iter().zip(&cold_lines) {
        let line = client
            .send_line(&req.to_line())
            .expect("warm request round trip");
        let Ok(Reply::Compile(reply)) = Reply::from_line(&line) else {
            panic!("warm compile: {line}");
        };
        warm_hits += reply.cached as u32;
        assert_eq!(
            normalize(&line),
            normalize(cold_line),
            "restart must answer byte-identically (modulo latency/cached)"
        );
    }
    assert_eq!(
        warm_hits, 2,
        "surviving artifacts hit, the corrupted one recompiled"
    );
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.table_builds, 0,
        "even the corrupted key's recompile reuses its persisted pattern table"
    );
    assert_eq!(
        stats.tables_loaded,
        sweep.len() as u64,
        "the pt- tier reloads every persisted table"
    );
    client.shutdown().expect("shutdown restarted server");
    server.join().expect("restarted server exits");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine and parameter fields travel the wire: a non-default request
/// matches the equivalent direct compile too.
#[test]
fn non_default_configs_travel_the_wire() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    let req = Request {
        op: "compile".to_string(),
        workload: Some("dft3".to_string()),
        pdef: Some(3),
        capacity: Some(4),
        span: Some(Some(2)),
        engine: Some("node-cover".to_string()),
        alus: Some(4),
        ..Request::default()
    };
    let reply = compile_reply(&mut client, &req);
    assert_eq!(reply.engine, SelectEngine::NodeCover.name());

    let cfg = req.compile_config().expect("valid config");
    assert_eq!(cfg.tile.map(|t| t.alus), Some(4));
    let dfg = mps::workloads::by_name("dft3").unwrap();
    let direct = Session::with_config(dfg, req.compile_config().unwrap())
        .compile()
        .expect("direct compile");
    assert_eq!(reply.cycles as usize, direct.cycles);
    assert_eq!(reply.schedule, direct.schedule.to_string());
    assert_eq!(
        reply.exec_cycles.map(|c| c as usize),
        direct.exec.as_ref().map(|e| e.cycles),
        "tile replay travels the wire"
    );

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// Concurrent identical requests from many connections compile once:
/// one artifact-cache miss, one `table_builds`, N−1 hits — the
/// single-flight contract end to end over real sockets.
#[test]
fn concurrent_identical_requests_compile_once() {
    const CLIENTS: usize = 8;
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 4,
        ..Default::default()
    })
    .expect("bind loopback");

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = connect(addr);
                    let req = Request {
                        op: "compile".to_string(),
                        workload: Some("star16".to_string()),
                        span: Some(Some(1)),
                        ..Request::default()
                    };
                    compile_reply(&mut client, &req)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    assert!(replies.iter().all(|r| r.cycles == replies[0].cycles));
    assert!(replies.iter().all(|r| r.schedule == replies[0].schedule));

    let mut client = connect(addr);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.compiles, CLIENTS as u64);
    assert_eq!(stats.artifact_cache_misses, 1, "exactly one compile ran");
    assert_eq!(stats.artifact_cache_hits, (CLIENTS - 1) as u64);
    assert_eq!(stats.table_builds, 1, "exactly one table was enumerated");
    assert_eq!(stats.cached_artifacts, 1);
    assert_eq!(stats.cached_tables, 1);

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// Error replies carry stage provenance exactly as `MpsError` assigns
/// it, and protocol-level junk is rejected without one.
#[test]
fn malformed_requests_answer_with_stage_provenance() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    let expect_error = |client: &mut Client, line: &str| -> mps_serve::protocol::ErrorReply {
        let reply = client.send_line(line).expect("round trip");
        match Reply::from_line(&reply).expect("decodable reply") {
            Reply::Error(e) => e,
            other => panic!("expected error for {line}, got {other:?}"),
        }
    };

    // Unparseable inline graph → analyze stage, message matches the
    // direct MpsError rendering.
    let bad_graph = Request {
        op: "compile".to_string(),
        graph: Some("definitely not a dfg".to_string()),
        ..Request::default()
    };
    let e = expect_error(&mut client, &bad_graph.to_line());
    assert_eq!(e.stage.as_deref(), Some("analyze"));
    let direct = mps::MpsError::from(mps::dfg::parse_text("definitely not a dfg").unwrap_err());
    assert_eq!(e.error, direct.to_string());

    // pdef 0 → empty selection → schedule stage.
    let e = expect_error(
        &mut client,
        r#"{"op":"compile","workload":"fig4","pdef":0}"#,
    );
    assert_eq!(e.stage.as_deref(), Some("schedule"));

    // A 1-ALU tile cannot host fig4's patterns → map-tile stage.
    let e = expect_error(
        &mut client,
        r#"{"op":"compile","workload":"fig4","alus":1}"#,
    );
    assert_eq!(e.stage.as_deref(), Some("map-tile"));

    // Protocol-level failures: no stage, still one line, still ok:false.
    for line in [
        "not json at all",
        r#"{"op":"compile"}"#,
        r#"{"op":"compile","workload":"zzz"}"#,
        r#"{"op":"teleport"}"#,
        r#"{"op":"compile","workload":"fig2","engine":"quantum"}"#,
    ] {
        let e = expect_error(&mut client, line);
        assert_eq!(e.stage, None, "no stage for protocol error on {line}");
        assert!(!e.error.is_empty());
    }

    let stats = client.stats().expect("stats");
    assert_eq!(stats.errors, 8);

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// A request line near the 1 MiB line cap decodes in linear time: a
/// ~900 KiB inline graph whose last line names an unknown node gets its
/// analyze-stage error reply in well under the seconds a per-char JSON
/// string scan that re-validates the rest of the line would take.
#[test]
fn near_cap_inline_graph_is_answered_promptly() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    let mut graph = String::new();
    let mut i = 0;
    while graph.len() < 900 * 1024 {
        graph.push_str(&format!("node n{i} a\n"));
        if i > 0 {
            graph.push_str(&format!("edge n{} n{i}\n", i - 1));
        }
        i += 1;
    }
    graph.push_str("edge n0 ghost\n");
    let line = Request {
        op: "compile".to_string(),
        graph: Some(graph.clone()),
        ..Request::default()
    }
    .to_line();
    assert!(line.len() < ServeOptions::default().max_line_bytes);

    let start = Instant::now();
    let reply = client.send_line(&line).expect("round trip");
    let took = start.elapsed();
    match Reply::from_line(&reply).expect("decodable reply") {
        Reply::Error(e) => {
            assert_eq!(e.stage.as_deref(), Some("analyze"), "{}", e.error);
            let direct = mps::MpsError::from(mps::dfg::parse_text(&graph).unwrap_err());
            assert_eq!(e.error, direct.to_string());
        }
        other => panic!("expected a pipeline error, got {other:?}"),
    }
    assert!(took < Duration::from_secs(2), "reply took {took:?}");

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// Shutdown drains: requests admitted before the shutdown verb still get
/// real replies, new compiles after it are refused, and the server
/// thread (and its workers) exits.
#[test]
fn shutdown_drains_and_refuses_new_work() {
    let server = Server::new(ServeOptions {
        workers: 2,
        queue: 16,
        ..Default::default()
    });
    // Seed work through the queue, then shut down: the in-flight compile
    // completed before the shutdown reply by construction of
    // handle_line (admission waits for the reply), so the observable
    // contract is: everything admitted answers, everything after is
    // refused.
    let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","span":1}"#);
    assert!(matches!(
        Reply::from_line(&reply).unwrap(),
        Reply::Compile(_)
    ));
    let (reply, quit) = server.handle_line(r#"{"op":"shutdown"}"#);
    assert!(quit);
    assert!(matches!(
        Reply::from_line(&reply).unwrap(),
        Reply::Shutdown(_)
    ));
    let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","span":1}"#);
    match Reply::from_line(&reply).unwrap() {
        Reply::Error(e) => assert!(e.error.contains("shutting down"), "{}", e.error),
        other => panic!("expected refusal, got {other:?}"),
    }
    // finish() joins the workers; hanging here would fail the test by
    // timeout.
    server.finish();
}

/// A cache hit never waits for a cold compile admitted before it: with
/// two workers, one is free to answer the hit while the other spends
/// ~300 ms in an injected select-stage delay.
#[test]
fn cached_hit_answers_while_a_cold_compile_runs() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 2,
        faults: FaultPlan {
            delay_stage: Some((mps::Stage::Select, 300)),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let compile = |name: &str| Request {
        op: "compile".to_string(),
        workload: Some(name.to_string()),
        ..Request::default()
    };
    let mut client = connect(addr);
    assert!(!compile_reply(&mut client, &compile("fig4")).cached);

    std::thread::scope(|scope| {
        let cold = scope.spawn(|| compile_reply(&mut connect(addr), &compile("fig2")));
        // Wait until the cold compile has started (its miss is counted
        // when it claims the single-flight slot).
        let started = Instant::now();
        while client.stats().expect("stats").artifact_cache_misses < 2 {
            assert!(
                started.elapsed() < Duration::from_secs(10),
                "cold compile never began"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        let t0 = Instant::now();
        let hit = compile_reply(&mut client, &compile("fig4"));
        let waited = t0.elapsed();
        assert!(hit.cached);
        assert!(
            waited < Duration::from_millis(100),
            "the hit waited {waited:?} behind the cold compile"
        );
        let cold = cold.join().expect("cold client");
        assert!(!cold.cached);
    });
    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// `stats` is a persistence barrier: read right after each compile
/// reply, it counts that compile's result and table as persisted, even
/// though the saves happen after the reply. A restarted server loads
/// every one of them.
#[test]
fn stats_after_a_reply_counts_its_saves_exactly() {
    let dir = std::env::temp_dir().join(format!("mps-serve-it-barrier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    let names = ["fig2", "fig4", "dft3", "fir8", "iir2"];
    let compile = |name: &str| Request {
        op: "compile".to_string(),
        workload: Some(name.to_string()),
        span: Some(Some(1)),
        ..Request::default()
    };
    {
        let (addr, server) = spawn_loopback(opts.clone()).expect("bind cold server");
        let mut client = connect(addr);
        for (i, name) in names.iter().enumerate() {
            assert!(!compile_reply(&mut client, &compile(name)).cached);
            let stats = client.stats().expect("stats");
            let n = i as u64 + 1;
            assert_eq!(
                (stats.artifacts_persisted, stats.tables_persisted),
                (n, n),
                "after {name}"
            );
            assert_eq!(stats.latency.persist.count, 2 * n);
            assert_eq!(stats.latency.queue_wait.count, n);
        }
        client.shutdown().expect("shutdown cold server");
        server.join().expect("cold server exits");
    }
    let (addr, server) = spawn_loopback(opts).expect("bind restarted server");
    let mut client = connect(addr);
    let stats = client.stats().expect("stats");
    let n = names.len() as u64;
    assert_eq!((stats.artifacts_loaded, stats.tables_loaded), (n, n));
    assert_eq!(stats.load_rejected, 0);
    for name in names {
        assert!(compile_reply(&mut client, &compile(name)).cached);
    }
    assert_eq!(client.stats().expect("stats").artifacts_persisted, 0);
    client.shutdown().expect("shutdown restarted server");
    server.join().expect("restarted server exits");
    let _ = std::fs::remove_dir_all(&dir);
}
