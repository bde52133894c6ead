//! Fleet suite: a real 3-daemon rendezvous ring over loopback sockets.
//!
//! Proves the fault-tolerance story end to end: every member routes
//! compiles to the key's rendezvous owner; replies stay byte-identical
//! to a direct [`mps::Session`] compile no matter which member answers
//! or whether the owner is alive; killing the owner mid-traffic fails
//! over to local compute; restarting it on the same port gets it
//! revived by the probers *and* re-warmed by hinted handoff, so it
//! serves a key it never computed with zero table builds.

use mps_serve::protocol::{Reply, Request, StatsReply};
use mps_serve::{spawn_on, Client, ServeOptions};
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Bind `n` ephemeral loopback ports *first*, so every daemon can be
/// booted knowing the full membership list.
fn bind_members(n: usize) -> Vec<(SocketAddr, TcpListener)> {
    (0..n)
        .map(|_| {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            (listener.local_addr().expect("local addr"), listener)
        })
        .collect()
}

/// Options for the member advertised as `advertise` in a fleet of
/// `members`; probes run fast so revival is test-speed.
fn member_opts(advertise: SocketAddr, members: &[SocketAddr]) -> ServeOptions {
    ServeOptions {
        workers: 2,
        queue: 16,
        advertise: advertise.to_string(),
        peers: members
            .iter()
            .filter(|a| **a != advertise)
            .map(|a| a.to_string())
            .collect(),
        probe_interval_ms: 100,
        forward_timeout_ms: 1_000,
        ..ServeOptions::default()
    }
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr, 100, Duration::from_millis(20)).expect("loopback connect")
}

fn compile_req(workload: &str) -> Request {
    Request {
        op: "compile".to_string(),
        workload: Some(workload.to_string()),
        span: Some(Some(1)),
        ..Request::default()
    }
}

fn compile_via(addr: SocketAddr, req: &Request) -> mps_serve::protocol::CompileReply {
    let mut client = connect(addr);
    match client
        .request_with_backoff(req, 20, Duration::from_millis(10))
        .expect("request answered")
    {
        Reply::Compile(r) => r,
        other => panic!("expected compile reply, got {other:?}"),
    }
}

fn stats_of(addr: SocketAddr) -> StatsReply {
    connect(addr).stats().expect("stats reply")
}

fn shutdown(addr: SocketAddr) {
    connect(addr).shutdown().expect("shutdown ack");
}

/// The stable parts of a compile reply — everything that must be
/// byte-identical no matter which daemon answered or how (forward,
/// failover, cache, handoff). Latency and cache provenance legitimately
/// differ.
fn essence(r: &mps_serve::protocol::CompileReply) -> (Vec<String>, u64, String, String, String) {
    (
        r.patterns.clone(),
        r.cycles,
        r.schedule.clone(),
        r.graph_hash.clone(),
        r.config_hash.clone(),
    )
}

/// Ask `addr` which member owns `req`'s key.
fn owner_of(addr: SocketAddr, req: &Request) -> SocketAddr {
    let mut ask = req.clone();
    ask.op = "peers".to_string();
    let mut client = connect(addr);
    match client.request(&ask).expect("peers reply") {
        Reply::Peers(p) => p
            .owner
            .expect("compile-shaped peers request names an owner")
            .parse()
            .expect("owner is a socket address"),
        other => panic!("expected peers reply, got {other:?}"),
    }
}

/// Poll `probe` every 25 ms until it returns true or ~8 s elapse.
fn wait_for(what: &str, mut probe: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(8);
    while Instant::now() < deadline {
        if probe() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// The acceptance chaos run. One test (not several) because the phases
/// build on each other: forward → kill → failover → restart → handoff
/// → warm serve, with a storm riding over the kill/restart window.
#[test]
fn ring_survives_owner_kill_restart_and_storm() {
    let mut bound = bind_members(3);
    let members: Vec<SocketAddr> = bound.iter().map(|(a, _)| *a).collect();
    let mut handles: Vec<Option<JoinHandle<()>>> = bound
        .drain(..)
        .map(|(addr, listener)| Some(spawn_on(listener, member_opts(addr, &members))))
        .collect();

    // Ground truth: a direct Session compile of the probe workload.
    let req = compile_req("fig2");
    let truth = {
        let cfg = req.compile_config().expect("valid request");
        let result = mps::Session::with_config(mps::workloads::fig2(), cfg)
            .compile()
            .expect("direct compile");
        (
            result
                .selection
                .patterns
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>(),
            result.cycles as u64,
            result.schedule.to_string(),
        )
    };
    let check_truth = |r: &mps_serve::protocol::CompileReply, when: &str| {
        assert_eq!(r.patterns, truth.0, "{when}: patterns differ from Session");
        assert_eq!(r.cycles, truth.1, "{when}: cycles differ from Session");
        assert_eq!(r.schedule, truth.2, "{when}: schedule differs from Session");
    };

    // Every member agrees who owns the probe key.
    let owner = owner_of(members[0], &req);
    for m in &members {
        assert_eq!(owner_of(*m, &req), owner, "ring disagreement at {m}");
    }
    let non_owners: Vec<SocketAddr> = members.iter().filter(|m| **m != owner).copied().collect();

    // Phase 1 — forward: asking a non-owner routes the compile to the
    // owner; the reply matches the direct Session compile.
    let via_peer = compile_via(non_owners[0], &req);
    check_truth(&via_peer, "forwarded");
    wait_for("forward counted", || {
        stats_of(non_owners[0]).peer_forwards >= 1
    });
    assert_eq!(
        stats_of(owner).table_builds,
        1,
        "exactly the owner built the table"
    );

    // Phase 2 — kill the owner (drains cleanly), then ask a non-owner
    // again: the forward fails, the daemon fails over to local compute,
    // and the client still gets the same bytes.
    let owner_slot = members.iter().position(|m| *m == owner).unwrap();
    shutdown(owner);
    handles[owner_slot]
        .take()
        .unwrap()
        .join()
        .expect("owner drained");
    let failover = compile_via(non_owners[0], &req);
    check_truth(&failover, "failover");
    assert_eq!(essence(&failover), essence(&via_peer));
    assert!(
        stats_of(non_owners[0]).peer_failovers >= 1,
        "dead owner must be survived by failover"
    );
    // Served locally now: the failover left a replica on the non-owner.
    assert!(compile_via(non_owners[0], &req).cached);
    // Pull the other survivor through failover too, so *both* hold a
    // replica (and owe the owner a handoff) before the storm starts —
    // otherwise its storm traffic would re-forward the key to the owner
    // the instant it restarts, and the owner would compute rather than
    // be re-warmed by handoff.
    let failover2 = compile_via(non_owners[1], &req);
    check_truth(&failover2, "failover at the second survivor");
    assert_eq!(essence(&failover2), essence(&via_peer));

    // Phase 3 — a storm across the surviving members while the owner is
    // down and then restarting: every request must be answered with the
    // right bytes (request_with_backoff absorbs any shed).
    let storm_members = non_owners.clone();
    let storm: Vec<std::thread::JoinHandle<()>> = (0..6)
        .map(|i| {
            let target = storm_members[i % storm_members.len()];
            let req = req.clone();
            std::thread::spawn(move || {
                for _ in 0..10 {
                    let r = compile_via(target, &req);
                    assert!(r.cycles > 0);
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        })
        .collect();

    // Phase 4 — restart the owner on the *same* port, cold. The probers
    // revive it and flush the hinted handoff, so it ends up holding the
    // artifact for a key it never computed.
    let listener = TcpListener::bind(owner).expect("rebind the owner's port");
    handles[owner_slot] = Some(spawn_on(listener, member_opts(owner, &members)));
    wait_for("handoff to reach the restarted owner", || {
        stats_of(owner).peer_handoffs_received >= 1
    });
    for h in storm {
        h.join().expect("storm client survived");
    }

    // The restarted owner serves the handed-off key from cache — it has
    // built nothing since boot.
    let warm = compile_via(owner, &req);
    check_truth(&warm, "handed-off");
    assert!(warm.cached, "handoff must have seeded the restarted owner");
    let owner_stats = stats_of(owner);
    assert_eq!(
        owner_stats.table_builds, 0,
        "the restarted owner must not rebuild the table for a handed-off key"
    );
    assert!(
        owner_stats.peers.iter().all(|p| p.state != "ejected"),
        "a healthy fleet has no ejected peers: {:?}",
        owner_stats.peers
    );

    // Handoff bookkeeping fired somewhere in the surviving majority.
    let handed: u64 = non_owners.iter().map(|m| stats_of(*m).peer_handoffs).sum();
    assert!(handed >= 1, "some survivor pushed the artifact");

    // Drain the whole fleet.
    for m in &members {
        shutdown(*m);
    }
    for h in handles.into_iter().flatten() {
        h.join().expect("member drained");
    }
}

/// Distinct workloads spread over the ring still all answer correctly
/// through any single member (forwards included), and ownership is
/// consistent: each key's table is built exactly once fleet-wide.
#[test]
fn ring_spreads_keys_and_each_table_builds_once() {
    let mut bound = bind_members(3);
    let members: Vec<SocketAddr> = bound.iter().map(|(a, _)| *a).collect();
    let handles: Vec<JoinHandle<()>> = bound
        .drain(..)
        .map(|(addr, listener)| spawn_on(listener, member_opts(addr, &members)))
        .collect();

    let workloads = ["fig2", "fig4", "dft3", "fir8", "iir2", "dct8"];
    for name in workloads {
        let req = compile_req(name);
        // All through member 0; owners vary by key.
        let reply = compile_via(members[0], &req);
        let cfg = req.compile_config().expect("valid request");
        let direct = mps::Session::with_config(
            mps::workloads::by_name(name).expect("registry workload"),
            cfg,
        )
        .compile()
        .expect("direct compile");
        assert_eq!(
            reply.schedule,
            direct.schedule.to_string(),
            "{name}: schedule must match a direct Session compile"
        );
        assert_eq!(reply.cycles as usize, direct.cycles, "{name}");
    }

    // Each workload's table was built exactly once *somewhere*, never
    // twice: forwarding means ownership, ownership means one build.
    let builds: u64 = members.iter().map(|m| stats_of(*m).table_builds).sum();
    assert_eq!(
        builds,
        workloads.len() as u64,
        "each key's table builds exactly once fleet-wide"
    );
    let forwards: u64 = members.iter().map(|m| stats_of(*m).peer_forwards).sum();
    assert!(
        forwards >= 1,
        "six keys over a 3-ring entered at one member must forward at least once"
    );

    for m in &members {
        shutdown(*m);
    }
    for h in handles {
        h.join().expect("member drained");
    }
}

/// Regression (client bugfix): `request_with_backoff` must not out-sleep
/// the request's own deadline. Against a dead server, a deadline-carrying
/// request with many attempts and a fat backoff fails within the
/// deadline's order of magnitude, instead of grinding through the full
/// exponential schedule.
#[test]
fn retry_backoff_respects_the_request_deadline_budget() {
    let (addr, server) = mps_serve::spawn_loopback(ServeOptions {
        workers: 1,
        ..ServeOptions::default()
    })
    .expect("bind loopback");
    let mut client = connect(addr);
    shutdown(addr);
    server.join().expect("server drained");

    let mut req = compile_req("fig4");
    req.deadline_ms = Some(300);
    let t0 = Instant::now();
    let out = client.request_with_backoff(&req, 50, Duration::from_millis(100));
    let elapsed = t0.elapsed();
    assert!(out.is_err(), "dead server cannot answer");
    assert!(
        elapsed < Duration::from_secs(3),
        "retry loop must stop near the 300 ms budget, took {elapsed:?}"
    );

    // Without a deadline the attempts cap still bounds the loop.
    req.deadline_ms = None;
    let t0 = Instant::now();
    let out = client.request_with_backoff(&req, 3, Duration::from_millis(10));
    assert!(out.is_err());
    assert!(t0.elapsed() < Duration::from_secs(2));
}
