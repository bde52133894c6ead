//! `--trace 1`: the per-layer breakdown.
//!
//! The workload's seeded stream is replayed in process twice on fresh
//! servers with the daemons' options: once untraced, once with a span
//! around every call into a crate (same requests), so the difference is
//! the tracing overhead. Each missed key is then compiled a second time
//! through the staged `Session` calls, and a few probes time what the
//! replay cannot see from outside (`par_map_in` fan-out, the wire, a fresh
//! dial, a fleet forward). Spans are kept in memory and written to
//! `.bench_out/` at the end; the per-layer metrics are their self times
//! plus the servers' own `stats` counters.

use crate::load::{drive, Class, Endpoint, PhaseLog, Stop, Tcp};
use crate::stats::{median, percentile, Metrics};
use crate::stream::KeySpec;
use crate::{budgets, ensure, reread, summarize, Abort, Measured, Outcome, Plan, Round, Workload};
use mps::artifact::{encode_result, ArtifactStore};
use mps::serde::Value;
use mps::{Session, TableCache};
use mps_serve::protocol::{Reply, Request, StatsReply};
use mps_serve::{Client, Owner, PeerRing, ServeOptions, Server};
use std::collections::HashMap;
use std::hint::black_box;
use std::io;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One timed call.
#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    /// Request id shared by every span of one request.
    req: u64,
    id: u32,
    /// `0` for a root span.
    parent: u32,
    start: f64,
    end: f64,
}

/// An open span.
#[derive(Clone, Copy)]
struct Open {
    id: u32,
    req: u64,
    parent: u32,
    start: Instant,
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    next_req: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            next_req: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn request(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    fn open(&self, req: u64, parent: u32) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            req,
            parent,
            start: Instant::now(),
        }
    }

    /// Close `span` under `name`; returns its duration in seconds.
    fn close(&self, span: Open, name: &'static str) -> f64 {
        self.close_at(span, name, Instant::now())
    }

    /// Close `span` under `name` as of `end`, for spans named only once
    /// their outcome is known.
    fn close_at(&self, span: Open, name: &'static str, end: Instant) -> f64 {
        let at = |t: Instant| t.duration_since(self.epoch).as_secs_f64();
        let s = Span {
            name,
            req: span.req,
            id: span.id,
            parent: span.parent,
            start: at(span.start),
            end: at(end),
        };
        let dur = s.end - s.start;
        self.spans.lock().expect("span buffer poisoned").push(s);
        dur
    }

    /// Time `f` as a child of `parent`.
    fn time<T>(&self, name: &'static str, req: u64, parent: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(req, parent);
        let out = f();
        self.close(span, name);
        out
    }

    fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span buffer poisoned"))
    }
}

/// A missed request, for the recompile pass.
struct Missed {
    req: u64,
    spec: KeySpec,
    /// The `handle_line` span of the miss, seconds.
    handle: f64,
    /// Resolve + hash spans of the same request, seconds.
    key_cost: f64,
}

/// Per-request byte counts.
#[derive(Default)]
struct Bytes {
    request: Vec<f64>,
    reply: Vec<f64>,
}

/// The endpoint of both replays: plain `handle_line`, or `handle_line`
/// wrapped in spans around every crate the request crosses.
struct Ep<'a> {
    server: &'a Server,
    traced: Option<Traced<'a>>,
}

/// Where a traced endpoint records: spans, missed keys, byte counts.
type Traced<'a> = (&'a Tracer, &'a Mutex<Vec<Missed>>, &'a Mutex<Bytes>);

fn resolve(req: &Request) -> Result<mps::dfg::Dfg, String> {
    match (&req.workload, &req.graph) {
        (Some(name), None) => {
            mps::workloads::by_name(name).ok_or_else(|| format!("unknown workload {name}"))
        }
        (None, Some(text)) => mps::dfg::parse_text(text).map_err(|e| e.to_string()),
        _ => Err("a compile names exactly one graph source".to_string()),
    }
}

impl Endpoint for Ep<'_> {
    fn call(&mut self, spec: &KeySpec, line: &str) -> io::Result<String> {
        let Some((tracer, missed, bytes)) = self.traced else {
            return Ok(self.server.handle_line(line).0);
        };
        let req = tracer.request();
        let root = tracer.open(req, 0);
        let decoded = tracer.time("serve.decode", req, root.id, || Request::from_line(line));
        let decoded = decoded.map_err(io::Error::other)?;
        let t = tracer.open(req, root.id);
        let dfg = resolve(&decoded).map_err(io::Error::other)?;
        let mut key_cost = tracer.close(t, "dfg.resolve");
        let t = tracer.open(req, root.id);
        let cfg = decoded.compile_config().map_err(io::Error::other)?;
        black_box((dfg.content_hash(), cfg.content_hash()));
        key_cost += tracer.close(t, "dfg.hash");
        let handle_span = tracer.open(req, root.id);
        let reply = self.server.handle_line(line).0;
        let handle_end = Instant::now();
        let decoded_reply = tracer.time("serve.reply_decode", req, root.id, || {
            Reply::from_line(&reply)
        });
        let cached = matches!(&decoded_reply, Ok(Reply::Compile(r)) if r.cached);
        let name = if cached {
            "serve.handle_hit"
        } else {
            "serve.handle_miss"
        };
        let handle = tracer.close_at(handle_span, name, handle_end);
        tracer.close(root, "bench.request");
        if matches!(decoded_reply, Ok(Reply::Compile(_))) && !cached {
            missed.lock().expect("miss list poisoned").push(Missed {
                req,
                spec: spec.clone(),
                handle,
                key_cost,
            });
        }
        let mut b = bytes.lock().expect("byte counts poisoned");
        b.request.push(line.len() as f64);
        b.reply.push(reply.len() as f64);
        Ok(reply)
    }
}

/// Counters of the recompile pass.
#[derive(Default)]
struct Recompiled {
    antichains: f64,
    builds: f64,
    table_hits: f64,
    rounds: Vec<f64>,
    cycles: Vec<f64>,
    transfers: Vec<f64>,
    artifact_bytes: Vec<f64>,
    /// Per request: summed stage spans, seconds.
    stage_cost: HashMap<u64, f64>,
}

/// Compile one missed key again through the staged `Session` calls.
fn recompile(
    tracer: &Tracer,
    tables: &Arc<TableCache>,
    store: &ArtifactStore,
    persist_counts: bool,
    m: &Missed,
    out: &Mutex<Recompiled>,
) -> Result<(), String> {
    let dfg = m.spec.graph();
    let cfg = m.spec.request().compile_config()?;
    let key = (dfg.content_hash(), cfg.content_hash());
    let req = m.req;
    let root = tracer.open(req, 0);
    let p = root.id;
    let mut stages = 0.0;
    let mut session = tracer.time("core.session", req, p, || {
        Session::with_shared_tables(dfg, cfg.clone(), Arc::clone(tables))
    });
    let builds_before = session.metrics().table_builds;
    let t = tracer.open(req, p);
    let analysis = session.analyze();
    stages += tracer.close(t, "dfg.analyze");
    let enumerate_span = tracer.open(req, p);
    let enumerated = analysis.enumerate(cfg.select.span_limit);
    let enumerate_end = Instant::now();
    let antichains = enumerated.table().total_antichains() as f64;
    let t2 = tracer.open(req, p);
    let selected = enumerated.select(&cfg.engine);
    stages += tracer.close(t2, "select.select");
    let rounds = selected.selection().rounds.len() as f64;
    let (result, cycles, transfers) = match &cfg.fabric {
        Some(params) => {
            let t = tracer.open(req, p);
            let part = selected.partition(params).map_err(|e| e.to_string())?;
            stages += tracer.close(t, "fabric.partition");
            let t = tracer.open(req, p);
            let fs = part
                .schedule_fabric(&cfg.schedule)
                .map_err(|e| e.to_string())?;
            stages += tracer.close(t, "fabric.schedule");
            let t = tracer.open(req, p);
            let mapped = fs.map_fabric().map_err(|e| e.to_string())?;
            stages += tracer.close(t, "fabric.map");
            let transfers = mapped.mapping().transfer_count() as f64;
            let t = tracer.open(req, p);
            let r = mapped.finish();
            stages += tracer.close(t, "core.finish");
            let c = r.fabric.as_ref().map_or(0, |f| f.total_cycles) as f64;
            (r, c, Some(transfers))
        }
        None => {
            let t = tracer.open(req, p);
            let scheduled = selected
                .schedule(&cfg.schedule)
                .map_err(|e| e.to_string())?;
            stages += tracer.close(t, "scheduler.schedule");
            let r = match cfg.tile {
                Some(tile) => {
                    let t = tracer.open(req, p);
                    let mapped = scheduled.map_tile(tile).map_err(|e| e.to_string())?;
                    stages += tracer.close(t, "montium.map_tile");
                    let t = tracer.open(req, p);
                    let r = mapped.finish();
                    stages += tracer.close(t, "core.finish");
                    r
                }
                None => {
                    let t = tracer.open(req, p);
                    let r = scheduled.finish();
                    stages += tracer.close(t, "core.finish");
                    r
                }
            };
            let c = r.cycles as f64;
            (r, c, None)
        }
    };
    // The enumerate span is recorded late so a table served from the
    // cache is named for what it was.
    let table_built = session.metrics().table_builds > builds_before;
    let name = if table_built {
        "patterns.enumerate"
    } else {
        "patterns.table_lookup"
    };
    stages += tracer.close_at(enumerate_span, name, enumerate_end);
    let encoded = tracer.time("core.artifact_encode", req, p, || {
        encode_result(key, &result)
    });
    let t = tracer.open(req, p);
    store.save_result(key, &result).map_err(|e| e.to_string())?;
    let persist = tracer.close(t, "core.persist");
    if persist_counts {
        stages += persist;
    }
    tracer.close(root, "core.recompile");

    let mut o = out.lock().expect("recompile counters poisoned");
    if table_built {
        o.builds += 1.0;
        o.antichains += antichains;
    } else {
        o.table_hits += 1.0;
    }
    o.rounds.push(rounds);
    o.cycles.push(cycles);
    if let Some(t) = transfers {
        o.transfers.push(t);
    }
    o.artifact_bytes.push(encoded.len() as f64);
    o.stage_cost.insert(req, stages + m.key_cost);
    Ok(())
}

/// The daemons' options (`mps serve --workers 2` plus the workload's
/// budgets).
fn server_opts(w: Workload) -> ServeOptions {
    let (max_artifacts, max_tables) = budgets(w).unzip();
    ServeOptions {
        workers: 2,
        max_artifacts,
        max_tables,
        ..ServeOptions::default()
    }
}

fn listener() -> io::Result<(TcpListener, String)> {
    let l = TcpListener::bind("127.0.0.1:0")?;
    let addr = l.local_addr()?.to_string();
    Ok((l, addr))
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// What one in-process replay produced.
struct Replay {
    setup_s: f64,
    setup: PhaseLog,
    window: PhaseLog,
    complement: Option<PhaseLog>,
    /// Entry server's stats before and after the window, then every
    /// server's stats at the end.
    before: StatsReply,
    after: StatsReply,
    end: Vec<StatsReply>,
    /// Fleet-zipf's expected forwarded share.
    forward_share: f64,
    probes: Probes,
}

/// Probe timings, seconds.
#[derive(Default)]
struct Probes {
    wire_tcp: Vec<f64>,
    wire_inproc: Vec<f64>,
    connect: Vec<f64>,
    via_entry: Vec<f64>,
    at_owner: Vec<f64>,
}

/// How long a replay's window runs.
#[derive(Clone, Copy)]
enum Window {
    /// For this long (the untraced baseline).
    For(Duration),
    /// For this many requests (the traced replay of the same requests).
    Requests(u64),
}

/// Which replay: the untraced baseline or the traced one.
struct Mode<'a> {
    label: &'static str,
    window: Window,
    traced: Option<Traced<'a>>,
}

/// Stand up the workload's servers in process, replay set-up, window and
/// (traced only) the complement phase and probes, then shut down.
fn replay(
    plan: &mut Plan,
    run_dir: &Path,
    fill: Option<&Path>,
    mode: Mode,
) -> Result<Replay, Abort> {
    let fleet = plan.workload == Workload::FleetZipf;
    let (entry_l, entry_addr) = listener()?;
    let (peer_l, peer_addr) = listener()?;
    let t0 = Instant::now();
    let mut entry_opts = server_opts(plan.workload);
    let mut peer_opts = server_opts(plan.workload);
    if let Some(fill) = fill {
        let dir = run_dir.join(mode.label);
        copy_dir(fill, &dir)?;
        entry_opts.cache_dir = Some(dir);
    }
    if fleet {
        entry_opts.advertise = entry_addr.clone();
        entry_opts.peers = vec![peer_addr.clone()];
        peer_opts.advertise = peer_addr.clone();
        peer_opts.peers = vec![entry_addr.clone()];
    }
    let entry = Server::new(entry_opts);
    let peer = Server::new(peer_opts);
    let forward_share = if fleet {
        plan.assign_owners(&entry_addr, &peer_addr)
    } else {
        0.0
    };
    let plan: &Plan = plan;
    let ep = |server| Ep {
        server,
        traced: mode.traced,
    };
    let out = std::thread::scope(|s| -> Result<Replay, Abort> {
        s.spawn(|| entry.run_tcp(entry_l));
        s.spawn(|| peer.run_tcp(peer_l));
        let result = (|| -> Result<Replay, Abort> {
            let setup = if fleet {
                let hot = &plan.hot;
                let (log, _) = drive(
                    vec![ep(&entry), ep(&entry)],
                    Stop::After(hot.len() as u64),
                    &|i| hot.get(i as usize).cloned(),
                );
                ensure(log.count(|c| !c.is_ok()) == 0, || {
                    format!("fleet set-up compiles failed: {:?}", log.errors)
                })?;
                log
            } else {
                PhaseLog::default()
            };
            let setup_s = t0.elapsed().as_secs_f64();
            let before = entry.stats();
            let stop = match mode.window {
                Window::For(d) => Stop::At(Instant::now() + d),
                Window::Requests(n) => Stop::After(n),
            };
            let (window, eps) = drive(vec![ep(&entry), ep(&entry)], stop, &|i| {
                Some(plan.window_key(i))
            });
            let after = entry.stats();
            let mut complement = None;
            let mut probes = Probes::default();
            if mode.traced.is_some() {
                complement = match plan.workload {
                    Workload::ColdSweep => Some(reread(eps, plan, &window).0),
                    Workload::FleetZipf => {
                        let fresh = &plan.fleet_fresh;
                        let (log, _) = drive(eps, Stop::After(fresh.len() as u64), &|j| {
                            fresh.get(j as usize).cloned()
                        });
                        Some(log)
                    }
                    Workload::HotZipf => None,
                };
                probes = probe(
                    plan,
                    &entry,
                    &entry_addr,
                    fleet.then_some(&peer_addr),
                    &window,
                )?;
            }
            Ok(Replay {
                setup_s,
                setup,
                window,
                complement,
                before,
                after,
                end: vec![entry.stats(), peer.stats()],
                forward_share,
                probes,
            })
        })();
        entry.handle_line(r#"{"op":"shutdown"}"#);
        peer.handle_line(r#"{"op":"shutdown"}"#);
        result
    })?;
    entry.finish();
    peer.finish();
    Ok(out)
}

/// Time what the replay cannot see: the wire, a fresh dial, and a fleet
/// forward (on fleet-zipf's own ring, else on a two-member probe ring).
fn probe(
    plan: &Plan,
    entry: &Server,
    entry_addr: &str,
    peer_addr: Option<&String>,
    window: &PhaseLog,
) -> Result<Probes, Abort> {
    let mut p = Probes::default();
    // The most recent key the entry server compiled and owns, so it is
    // still cached there and answered without a forward.
    let ring = peer_addr.map(|peer| PeerRing::new(entry_addr, &[peer]));
    let mut done: Vec<u64> = window
        .samples
        .iter()
        .filter(|s| s.class.is_ok())
        .map(|s| s.id)
        .collect();
    done.sort_unstable();
    let warm = done
        .iter()
        .rev()
        .map(|&id| plan.spec_of(id))
        .find(|k| {
            ring.as_ref()
                .is_none_or(|r| r.owner_of(k.cache_key()) == Owner::Local)
        })
        .ok_or_else(|| Abort("the replay window compiled no key its entry owns".to_string()))?;
    let line = warm.line();
    let mut tcp = Tcp::connect(entry_addr)?;
    for _ in 0..WIRE_SAMPLES {
        let t = Instant::now();
        tcp.send(&line)?;
        p.wire_tcp.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        black_box(entry.handle_line(&line));
        p.wire_inproc.push(t.elapsed().as_secs_f64());
    }
    let ping = Request::op("ping").to_line();
    for _ in 0..CONNECT_SAMPLES {
        let t = Instant::now();
        let mut c = Client::connect(entry_addr, 0, Duration::ZERO)?;
        c.send_line(&ping)?;
        p.connect.push(t.elapsed().as_secs_f64());
    }
    match peer_addr {
        Some(peer) => forward_probe(&plan.hot, entry_addr, peer, &mut p)?,
        None => {
            // A probe ring over the first keys this workload sends.
            let (al, a) = listener()?;
            let (bl, b) = listener()?;
            let member = |me: &str, other: &str| ServeOptions {
                advertise: me.to_string(),
                peers: vec![other.to_string()],
                ..server_opts(Workload::FleetZipf)
            };
            let (sa, sb) = (Server::new(member(&a, &b)), Server::new(member(&b, &a)));
            let keys: Vec<KeySpec> = (0..PROBE_KEYS).map(|i| plan.window_key(i)).collect();
            let r = std::thread::scope(|s| {
                s.spawn(|| sa.run_tcp(al));
                s.spawn(|| sb.run_tcp(bl));
                let r = forward_probe(&keys, &a, &b, &mut p);
                sa.handle_line(r#"{"op":"shutdown"}"#);
                sb.handle_line(r#"{"op":"shutdown"}"#);
                r
            });
            sa.finish();
            sb.finish();
            r?;
        }
    }
    Ok(p)
}

const WIRE_SAMPLES: usize = 400;
const CONNECT_SAMPLES: usize = 200;
const FORWARD_SAMPLES: usize = 200;
const PROBE_KEYS: u64 = 32;

/// Hits on keys owned by `owner`: through `entry` (one forward hop) and
/// at the owner directly, alternating, on persistent connections.
fn forward_probe(keys: &[KeySpec], entry: &str, owner: &str, p: &mut Probes) -> Result<(), Abort> {
    let ring = PeerRing::new(entry, &[owner]);
    let mut via = Tcp::connect(entry)?;
    let mut at = Tcp::connect(owner)?;
    let mut owned = Vec::new();
    for k in keys {
        if let Owner::Peer(_) = ring.owner_of(k.cache_key()) {
            let line = k.line();
            // Warm it at its owner (a no-op when the workload already did).
            via.send(&line)?;
            owned.push(line);
        }
    }
    ensure(!owned.is_empty(), || {
        "no probe key is owned by the peer".to_string()
    })?;
    for i in 0..FORWARD_SAMPLES {
        let line = &owned[i % owned.len()];
        let t = Instant::now();
        via.send(line)?;
        p.via_entry.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        at.send(line)?;
        p.at_owner.push(t.elapsed().as_secs_f64());
    }
    Ok(())
}

/// hot-zipf's first daemon life, in process: untimed, but traced, since
/// its compiles are the ones that cover the fabric and tile-replay keys.
fn fill_inproc(plan: &Plan, dir: &Path, traced: Traced) -> Result<PhaseLog, Abort> {
    let server = Server::new(ServeOptions {
        cache_dir: Some(dir.to_path_buf()),
        ..server_opts(plan.workload)
    });
    let hot = &plan.hot;
    let ep = || Ep {
        server: &server,
        traced: Some(traced),
    };
    let (log, _) = drive(vec![ep(), ep()], Stop::After(hot.len() as u64), &|i| {
        hot.get(i as usize).cloned()
    });
    server.finish();
    ensure(log.count(|c| !c.is_ok()) == 0, || {
        format!("cache fill failed: {:?}", log.errors)
    })?;
    Ok(log)
}

/// `--trace 1`.
pub fn run(plan: &mut Plan, seconds: u64, run_dir: &Path) -> Result<Outcome, Abort> {
    let tracer = Tracer::new();
    let missed = Mutex::new(Vec::new());
    let bytes = Mutex::new(Bytes::default());
    let mut all = PhaseLog::default();
    let fill_dir = run_dir.join("fill");
    let fill = if plan.workload == Workload::HotZipf {
        all.absorb(fill_inproc(plan, &fill_dir, (&tracer, &missed, &bytes))?);
        Some(fill_dir.as_path())
    } else {
        None
    };

    let untraced = replay(
        plan,
        run_dir,
        fill,
        Mode {
            label: "untraced",
            // Half the run length each, so both replays fit in one run.
            window: Window::For(Duration::from_secs_f64((seconds as f64 / 2.0).max(1.0))),
            traced: None,
        },
    )?;
    let n = untraced.window.samples.len() as u64;

    let mut warm_load = None;
    if let Some(fill) = fill {
        // What the daemon's warm start does, on the same directory.
        let t = tracer.open(0, 0);
        let store = ArtifactStore::open(fill)?;
        let results = store.load_results();
        let tables = store.load_tables();
        warm_load = Some((tracer.close(t, "core.warm_load"), results.loaded.len()));
        black_box((results, tables));
    }
    let traced = replay(
        plan,
        run_dir,
        fill,
        Mode {
            label: "traced",
            window: Window::Requests(n),
            traced: Some((&tracer, &missed, &bytes)),
        },
    )?;
    let replay_spans = tracer.take();

    // Every missed key again through the staged Session calls.
    let store_dir = run_dir.join("recompile");
    let store = ArtifactStore::open(&store_dir)?;
    let tables = Arc::new(TableCache::new());
    let missed = missed.into_inner().expect("miss list poisoned");
    let counters = Mutex::new(Recompiled::default());
    let next = AtomicU64::new(0);
    let persists = plan.workload == Workload::HotZipf;
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut errs = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some(m) = missed.get(i) else { break };
                        if let Err(e) = recompile(&tracer, &tables, &store, persists, m, &counters)
                        {
                            errs.push(format!("{}: {e}", m.spec.oracle_id()));
                        }
                    }
                    errs
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("recompile worker panicked"))
            .collect()
    });
    ensure(failures.is_empty(), || {
        format!("staged recompiles failed: {failures:?}")
    })?;
    if warm_load.is_none() {
        let t = tracer.open(0, 0);
        let results = store.load_results();
        let loaded = results.loaded.len();
        black_box((results, store.load_tables()));
        warm_load = Some((tracer.close(t, "core.warm_load"), loaded));
    }
    // The dispatcher's fan-out on a two-job batch.
    let items = [1u64, 2];
    for _ in 0..PAR_SAMPLES {
        tracer.time("par.map2", 0, 0, || {
            black_box(mps::par::par_map_in(2, &items, |x| x + 1))
        });
    }
    let other_spans = tracer.take();

    // Sanity, as on the daemons.
    let hits = traced.window.count(|c| c == Class::Hit);
    if plan.workload == Workload::ColdSweep {
        ensure(hits == 0, || {
            format!("cold-sweep replay served {hits} artifact hits")
        })?;
    }
    let forward_share = (traced.after.peer_forwards - traced.before.peer_forwards) as f64
        / traced.window.samples.len().max(1) as f64;
    let failovers: u64 = traced.end.iter().map(|s| s.peer_failovers).sum();
    if plan.workload == Workload::FleetZipf {
        ensure(failovers == 0, || {
            format!("fleet failed over {failovers} times")
        })?;
        ensure((forward_share - traced.forward_share).abs() < 0.05, || {
            format!(
                "forwarded share {forward_share:.3} is not the ring's {:.3}",
                traced.forward_share
            )
        })?;
    }

    // Verification and the traced run's end-to-end numbers.
    all.absorb(traced.setup);
    let untraced_rps =
        untraced.window.count(|c| c.is_ok()) as f64 / untraced.window.elapsed.max(1e-9);
    let untraced_p50 = median(&untraced.window.latencies(|_| true)).unwrap_or(f64::NAN) * 1e3;
    let round = Round {
        ok: traced.window.count(Class::is_ok),
        elapsed: traced.window.elapsed,
        cpu: None,
    };
    let run = Measured {
        setups: vec![traced.setup_s],
        window: traced.window,
        rounds: vec![round],
        complement: traced.complement,
        rss: None,
    };
    let mut outcome = summarize(plan, run, all, Vec::new());

    // Per-layer table.
    let mut spans = replay_spans;
    spans.extend(other_spans);
    let selfs = self_times(&spans);
    let by = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .collect()
    };
    let p = |name: &str, q: f64, scale: f64| percentile(&by(name), q).map_or(0.0, |x| x * scale);
    let sum = |name: &str| by(name).iter().sum::<f64>();
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let rc = counters.into_inner().expect("recompile counters poisoned");
    let overhead: Vec<f64> = missed
        .iter()
        .filter_map(|m| rc.stage_cost.get(&m.req).map(|c| m.handle - c))
        .collect();
    let probes = &traced.probes;
    let b = bytes.into_inner().expect("byte counts poisoned");
    let end_hits: u64 = traced.end[0].artifact_cache_hits;
    let end_misses: u64 = traced.end[0].artifact_cache_misses;
    let (warm_s, loaded) = warm_load.unwrap_or((0.0, 0));

    let mut m = Metrics::default();
    m.put("dfg.resolve_us", p("dfg.resolve", 50.0, 1e6), "us");
    m.put("dfg.hash_us", p("dfg.hash", 50.0, 1e6), "us");
    m.put("dfg.analyze_ms", p("dfg.analyze", 50.0, 1e3), "ms");
    m.put(
        "patterns.enumerate_ms",
        p("patterns.enumerate", 50.0, 1e3),
        "ms",
    );
    m.put("patterns.enumerate_s", sum("patterns.enumerate"), "s");
    m.put("patterns.antichains", rc.antichains, "count");
    m.put(
        "patterns.antichains_per_s",
        rc.antichains / sum("patterns.enumerate").max(1e-9),
        "1/s",
    );
    m.put("patterns.table_builds", rc.builds, "count");
    m.put(
        "patterns.table_hit_ratio",
        rc.table_hits / (rc.table_hits + rc.builds).max(1.0),
        "ratio",
    );
    m.put("select.select_ms", p("select.select", 50.0, 1e3), "ms");
    m.put("select.rounds", mean(&rc.rounds), "count");
    m.put(
        "scheduler.schedule_ms",
        p("scheduler.schedule", 50.0, 1e3),
        "ms",
    );
    m.put("scheduler.cycles", mean(&rc.cycles), "cycles");
    m.put(
        "montium.map_tile_ms",
        p("montium.map_tile", 50.0, 1e3),
        "ms",
    );
    m.put(
        "fabric.partition_ms",
        p("fabric.partition", 50.0, 1e3),
        "ms",
    );
    m.put("fabric.schedule_ms", p("fabric.schedule", 50.0, 1e3), "ms");
    m.put("fabric.map_ms", p("fabric.map", 50.0, 1e3), "ms");
    m.put("fabric.transfers", mean(&rc.transfers), "count");
    m.put("core.finish_us", p("core.finish", 50.0, 1e6), "us");
    m.put(
        "core.artifact_encode_us",
        p("core.artifact_encode", 50.0, 1e6),
        "us",
    );
    m.put("core.artifact_bytes", mean(&rc.artifact_bytes), "bytes");
    m.put("core.persist_ms", p("core.persist", 50.0, 1e3), "ms");
    m.put("core.warm_load_s", warm_s, "s");
    m.put("core.artifacts_loaded", loaded as f64, "count");
    m.put("par.map2_us", p("par.map2", 50.0, 1e6), "us");
    m.put("serve.decode_us", p("serve.decode", 50.0, 1e6), "us");
    m.put(
        "serve.reply_decode_us",
        p("serve.reply_decode", 50.0, 1e6),
        "us",
    );
    m.put("serve.request_bytes", mean(&b.request), "bytes");
    m.put("serve.reply_bytes", mean(&b.reply), "bytes");
    m.put(
        "serve.handle_hit_p50_us",
        p("serve.handle_hit", 50.0, 1e6),
        "us",
    );
    m.put(
        "serve.handle_hit_p99_us",
        p("serve.handle_hit", 99.0, 1e6),
        "us",
    );
    m.put(
        "serve.handle_miss_ms",
        p("serve.handle_miss", 50.0, 1e3),
        "ms",
    );
    m.put(
        "serve.pipeline_overhead_ms",
        median(&overhead).map_or(0.0, |x| x * 1e3),
        "ms",
    );
    m.put(
        "serve.wire_us",
        (median(&probes.wire_tcp).unwrap_or(0.0) - median(&probes.wire_inproc).unwrap_or(0.0))
            * 1e6,
        "us",
    );
    m.put(
        "serve.connect_p50_ms",
        percentile(&probes.connect, 50.0).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.put(
        "serve.connect_p99_ms",
        percentile(&probes.connect, 99.0).unwrap_or(0.0) * 1e3,
        "ms",
    );
    m.put(
        "serve.artifact_hit_ratio",
        end_hits as f64 / (end_hits + end_misses).max(1) as f64,
        "ratio",
    );
    m.put(
        "serve.sheds",
        traced.end.iter().map(|s| s.sheds).sum::<u64>() as f64,
        "count",
    );
    m.put(
        "serve.errors",
        traced.end.iter().map(|s| s.errors).sum::<u64>() as f64,
        "count",
    );
    let fwd = |q: f64| {
        (percentile(&probes.via_entry, q).unwrap_or(0.0)
            - percentile(&probes.at_owner, q).unwrap_or(0.0))
            * 1e6
    };
    m.put("fleet.forward_p50_us", fwd(50.0), "us");
    m.put("fleet.forward_p99_us", fwd(99.0), "us");
    m.put("fleet.forward_share", forward_share, "ratio");
    m.put("fleet.failovers", failovers as f64, "count");

    // Self-time shares of the layers on the request path.
    let total: f64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.req != 0 && !s.name.starts_with("bench."))
        .map(|(_, t)| t)
        .sum();
    for layer in [
        "dfg",
        "patterns",
        "select",
        "scheduler",
        "montium",
        "fabric",
        "core",
        "serve",
    ] {
        let own: f64 = spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.req != 0 && s.name.split('.').next() == Some(layer))
            .map(|(_, t)| t)
            .sum();
        let share = if own > 0.0 { own / total } else { 0.0 };
        m.put(&format!("{layer}.self_share"), share, "ratio");
    }

    // The traced run's end-to-end numbers next to the untraced replay's.
    let traced_rps = outcome.metrics.get("req_per_s").unwrap_or(f64::NAN);
    m.put("trace.req_per_s", traced_rps, "1/s");
    m.put(
        "trace.lat_p50_ms",
        outcome.metrics.get("lat_p50_ms").unwrap_or(f64::NAN),
        "ms",
    );
    m.put("trace.untraced_req_per_s", untraced_rps, "1/s");
    m.put("trace.untraced_lat_p50_ms", untraced_p50, "ms");
    m.put(
        "trace.overhead_pct",
        (untraced_rps / traced_rps.max(1e-9) - 1.0) * 100.0,
        "%",
    );
    m.put("trace.spans", spans.len() as f64, "count");

    let path = write_spans(plan, &spans)?;
    outcome.info.push((
        "spans_file".to_string(),
        Value::Str(path.display().to_string()),
    ));
    outcome
        .info
        .push(("replayed_requests".to_string(), Value::U64(n)));
    outcome.info.push((
        "recompiled_keys".to_string(),
        Value::U64(missed.len() as u64),
    ));
    outcome.metrics = m;
    Ok(outcome)
}

const PAR_SAMPLES: usize = 2000;

/// Each span's duration minus the part its children cover.
fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child: HashMap<u32, f64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child.entry(s.parent).or_default() += s.end - s.start;
        }
    }
    spans
        .iter()
        .map(|s| (s.end - s.start - child.get(&s.id).copied().unwrap_or(0.0)).max(0.0))
        .collect()
}

/// Write the spans as JSON lines under `.bench_out/`.
fn write_spans(plan: &Plan, spans: &[Span]) -> Result<PathBuf, Abort> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        plan.workload.name(),
        plan.seed
    ));
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        text.push_str(&mps::json::write(&Value::Map(vec![
            ("name".to_string(), Value::Str(s.name.to_string())),
            ("req".to_string(), Value::U64(s.req)),
            ("id".to_string(), Value::U64(u64::from(s.id))),
            ("parent".to_string(), Value::U64(u64::from(s.parent))),
            ("start_s".to_string(), Value::F64(s.start)),
            ("end_s".to_string(), Value::F64(s.end)),
        ])));
        text.push('\n');
    }
    std::fs::write(&path, text)?;
    Ok(path)
}
