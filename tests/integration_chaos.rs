//! Chaos suite for the serving layer: under fault injection, tight
//! cache budgets and concurrent clients with mixed deadlines, the
//! daemon must answer or shed every request (never hang), keep its
//! caches inside budget, route every failure as a structured reply,
//! and still drain cleanly on shutdown.

use mps::Stage;
use mps_serve::protocol::{Reply, Request};
use mps_serve::{spawn_loopback, Client, FaultPlan, ServeOptions};
use std::time::{Duration, Instant};

fn connect(addr: std::net::SocketAddr) -> Client {
    Client::connect(addr, 100, Duration::from_millis(20)).expect("loopback connect")
}

fn compile_req(workload: &str, deadline_ms: Option<u64>) -> Request {
    Request {
        op: "compile".to_string(),
        workload: Some(workload.to_string()),
        span: Some(Some(1)),
        deadline_ms,
        ..Request::default()
    }
}

/// The acceptance storm: stage delays + entry budgets of 2 + a queue of
/// 2 + 8 concurrent clients at mixed deadlines. Every request resolves
/// to a compile reply or a structured error — `deadline`/`cancelled`
/// from the server, or the last `overloaded` shed when the client's
/// deadline budget ran out before the queue had room — the stats
/// counters prove sheds/evictions/deadline-expiries all fired, both
/// cache budgets hold, and the server drains on shutdown.
#[test]
fn overload_storm_sheds_answers_and_drains() {
    const CLIENTS: usize = 8;
    const DELAY_MS: u64 = 30;
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        queue: 2,
        max_artifacts: Some(2),
        max_tables: Some(2),
        faults: FaultPlan {
            delay_stage: Some((Stage::Select, DELAY_MS)),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");

    // Distinct workloads so nothing single-flights away: 8 computes
    // against budgets of 2 force evictions.
    let workloads = [
        "fig2", "fig4", "dft3", "fir8", "iir2", "dct8", "horner4", "matmul2",
    ];
    let barrier = std::sync::Barrier::new(CLIENTS);
    std::thread::scope(|scope| {
        for (i, workload) in workloads.iter().enumerate() {
            let barrier = &barrier;
            scope.spawn(move || {
                let mut client = connect(addr);
                // Odd clients run under a deadline shorter than the
                // injected stage delay — they must fail structurally.
                let tight = i % 2 == 1;
                let req = compile_req(workload, tight.then_some(DELAY_MS / 2));
                barrier.wait();
                let reply = client
                    .request_with_backoff(&req, 20, Duration::from_millis(10))
                    .expect("every request is eventually answered, not hung");
                match reply {
                    Reply::Compile(r) => {
                        assert!(!tight, "{workload}: cannot finish under the deadline");
                        assert!(r.cycles > 0);
                    }
                    Reply::Error(e) => {
                        assert!(tight, "{workload}: generous compile failed: {}", e.error);
                        // `overloaded` is the budget-expired outcome: the
                        // retry loop stops at the deadline and surfaces
                        // the server's last shed verdict.
                        assert!(
                            matches!(
                                e.code.as_deref(),
                                Some("deadline") | Some("cancelled") | Some("overloaded")
                            ),
                            "failures must be structured, got {e:?}"
                        );
                    }
                    other => panic!("{workload}: unexpected reply {other:?}"),
                }
            });
        }
    });

    // Deterministic latency bound: an idle server answers a
    // sub-delay deadline within deadline + grace, not eventually.
    let mut client = connect(addr);
    let t0 = Instant::now();
    let reply = client
        .request(&compile_req("fft4", Some(DELAY_MS / 2)))
        .expect("answered");
    assert!(
        matches!(&reply, Reply::Error(e) if e.code.as_deref() == Some("deadline")),
        "expected a deadline error, got {reply:?}"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(DELAY_MS / 2) + Duration::from_secs(1),
        "deadline failures must be prompt, took {:?}",
        t0.elapsed()
    );

    let stats = client.stats().expect("stats");
    assert!(stats.sheds > 0, "the full queue must have shed: {stats:?}");
    assert!(
        stats.deadline_exceeded > 0,
        "tight deadlines must have expired: {stats:?}"
    );
    assert!(
        stats.artifact_evictions > 0,
        "4 cached artifacts over a budget of 2: {stats:?}"
    );
    assert!(
        stats.table_evictions > 0,
        "distinct tables over a budget of 2: {stats:?}"
    );
    assert!(
        stats.cached_artifacts <= 2,
        "artifact budget violated: {stats:?}"
    );
    assert!(stats.cached_tables <= 2, "table budget violated: {stats:?}");
    assert!(stats.errors > 0);

    // Ping surfaces liveness gauges even after the storm.
    match client.request(&Request::op("ping")).expect("ping") {
        Reply::Pong(p) => {
            assert!(p.uptime_sec > 0.0);
            assert_eq!(p.queue_depth, 0, "storm drained");
        }
        other => panic!("expected pong, got {other:?}"),
    }

    client.shutdown().expect("shutdown ack");
    server.join().expect("server drains and exits");
}

/// A compile cancelled by its deadline must clear its single-flight
/// slot: the same key with a fresh budget recomputes (the transient
/// outcome was not cached) instead of inheriting the failure or
/// deadlocking on an abandoned slot.
#[test]
fn cancelled_compile_clears_single_flight_slot() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 2,
        queue: 8,
        faults: FaultPlan {
            delay_stage: Some((Stage::Select, 60)),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    let reply = client
        .request(&compile_req("fig4", Some(20)))
        .expect("answered");
    assert!(
        matches!(&reply, Reply::Error(e) if e.code.as_deref() == Some("deadline")),
        "expected deadline error, got {reply:?}"
    );

    // Same key, no deadline: must compute for real, not replay the
    // transient failure or hang on the abandoned slot.
    let reply = client
        .request(&compile_req("fig4", None))
        .expect("answered");
    match reply {
        Reply::Compile(r) => assert!(!r.cached, "the transient outcome must not be cached"),
        other => panic!("expected a real compile, got {other:?}"),
    }

    let stats = client.stats().expect("stats");
    assert!(stats.deadline_exceeded >= 1);
    assert_eq!(stats.cached_artifacts, 1, "only the success is cached");

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// The drop-reply fault cuts connections mid-reply; the client's
/// backoff path reconnects and retries until it gets a whole answer.
#[test]
fn dropped_replies_reconnect_and_retry() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        queue: 8,
        faults: FaultPlan {
            drop_reply_every: Some(2),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);
    let req = compile_req("fig2", None);

    // Reply 1 is delivered, reply 2 is cut mid-line.
    let reply = client.request(&req).expect("first reply delivered");
    assert!(matches!(reply, Reply::Compile(_)));
    assert!(
        client.request(&req).is_err(),
        "second reply is cut mid-line"
    );

    // The backoff path absorbs further drops transparently: reply 3 is
    // delivered after a reconnect, reply 4 is dropped and retried as 5.
    client.reconnect().expect("redial");
    for _ in 0..2 {
        let reply = client
            .request_with_backoff(&req, 5, Duration::from_millis(5))
            .expect("backoff path survives dropped replies");
        assert!(
            matches!(&reply, Reply::Compile(r) if r.cached),
            "got {reply:?}"
        );
    }

    // The shutdown ack may itself be dropped; the server still drains
    // because the flag is set before the reply is written.
    let _ = client.shutdown();
    server.join().expect("server drains despite chaos");
}

/// Request lines over the configured byte bound get a protocol error
/// and the connection is closed — one hostile client cannot balloon
/// server memory.
#[test]
fn overlong_request_lines_are_refused() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        queue: 4,
        max_line_bytes: 256,
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);

    let huge = format!(r#"{{"op":"compile","graph":"{}"}}"#, "x".repeat(1024));
    let reply = client.send_line(&huge).expect("refusal line");
    match Reply::from_line(&reply).expect("decodable refusal") {
        Reply::Error(e) => assert!(e.error.contains("256 bytes"), "{}", e.error),
        other => panic!("expected refusal, got {other:?}"),
    }
    assert!(
        client.send_line(r#"{"op":"ping"}"#).is_err(),
        "the connection is closed after the refusal"
    );

    // Sane lines on a fresh connection still serve.
    let mut fresh = connect(addr);
    let reply = fresh
        .request(&compile_req("fig4", None))
        .expect("fresh connection works");
    assert!(matches!(reply, Reply::Compile(_)));
    fresh.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}

/// With the slow-read fault stalling the server, a client read timeout
/// bounds the wait instead of hanging the caller forever.
#[test]
fn client_timeout_bounds_slow_server() {
    let (addr, server) = spawn_loopback(ServeOptions {
        workers: 1,
        queue: 4,
        faults: FaultPlan {
            slow_read_ms: Some(400),
            ..FaultPlan::default()
        },
        ..Default::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);
    client
        .set_timeout(Some(Duration::from_millis(50)))
        .expect("set timeout");

    let t0 = Instant::now();
    assert!(
        client.request(&Request::op("ping")).is_err(),
        "the read must time out, not hang"
    );
    assert!(
        t0.elapsed() < Duration::from_millis(350),
        "timed out late: {:?}",
        t0.elapsed()
    );

    // The server is slow, not dead: without the timeout it answers.
    client.reconnect().expect("redial");
    client.set_timeout(None).expect("clear timeout");
    let reply = client.request(&Request::op("ping")).expect("slow pong");
    assert!(matches!(reply, Reply::Pong(_)));

    client.shutdown().expect("shutdown ack");
    server.join().expect("server thread");
}
