//! The repository benchmark.
//!
//! ```text
//! mpsbench --mps PATH --workload cold-sweep|hot-zipf|fleet-zipf
//!          --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it launches real `mps serve` daemons (child processes
//! of the release binary at `--mps`) and drives them over loopback with a
//! closed-loop generator: two threads, two persistent connections. With
//! `--trace 1` it replays the same seeded stream in process through
//! `Server::handle_line` and the staged `Session` calls, timing every call
//! into a crate. Either way it checks every distinct reply against the
//! in-tree oracles, prints one diagnostics line and, last, the result line.
//! `BENCHMARK.json` at the repository root lists the workloads and metrics.

mod daemon;
mod load;
mod stats;
mod stream;
mod trace;
mod verify;

use daemon::{free_ports, Daemon, DaemonOpts};
use load::{drive, Class, PhaseLog, Stop, Tcp};
use mps::serde::Value;
use mps_serve::protocol::StatsReply;
use mps_serve::{Owner, PeerRing};
use stats::{beyond, median, percentile, result_line, Metrics};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use stream::{
    cold_key, fresh_key, hot_keys, KeySpec, Zipf, FLEET_MISSES, FRESH_EVERY, HOT_KEYS,
    QUALITY_PREFIX, REREAD_KEYS,
};

/// The three workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Every request a distinct key: no artifact-cache hit.
    ColdSweep,
    /// Warm-started daemon, Zipf hits plus 1 fresh miss in 50.
    HotZipf,
    /// Two-daemon ring, Zipf hits sent to one member only.
    FleetZipf,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "cold-sweep" => Workload::ColdSweep,
            "hot-zipf" => Workload::HotZipf,
            "fleet-zipf" => Workload::FleetZipf,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdSweep => "cold-sweep",
            Workload::HotZipf => "hot-zipf",
            Workload::FleetZipf => "fleet-zipf",
        }
    }
}

/// One workload instantiated for a seed: which key each request sends.
pub struct Plan {
    pub workload: Workload,
    pub seed: u64,
    /// The Zipf workloads' hot set (empty on cold-sweep).
    pub hot: Vec<KeySpec>,
    /// Zipf rank → index into `hot`.
    pub ranks: Vec<usize>,
    /// Fleet-zipf's fresh keys, all owned by the peer: its misses are
    /// forwarded compiles.
    pub fleet_fresh: Vec<KeySpec>,
    zipf: Zipf,
}

/// Salts separating the seeded draws of different key families.
const HOT_SALT: u64 = 1;
const FLEET_SALT: u64 = 2;
const FRESH_SALT: u64 = 3;
const ZIPF_STREAM: u64 = 7;
/// Ids of fleet-zipf's fresh keys start here, past any window id.
const FLEET_FRESH_BASE: u64 = 1 << 40;

impl Plan {
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let hot = match workload {
            Workload::ColdSweep => Vec::new(),
            Workload::HotZipf => hot_keys(seed, HOT_SALT),
            Workload::FleetZipf => hot_keys(seed, FLEET_SALT),
        };
        Plan {
            workload,
            seed,
            ranks: (0..hot.len()).collect(),
            hot,
            fleet_fresh: Vec::new(),
            zipf: Zipf::new(HOT_KEYS),
        }
    }

    /// Fleet-zipf: lay the Zipf ranks over the hot set alternating
    /// non-owned and owned keys (as seen from `entry`), most popular
    /// first, so the forwarded share is the same for every seed and
    /// every port pair. Returns that expected forwarded share.
    pub fn assign_owners(&mut self, entry: &str, peer: &str) -> f64 {
        let ring = PeerRing::new(entry, &[peer]);
        let remote_owned =
            |spec: &KeySpec| matches!(ring.owner_of(spec.cache_key()), Owner::Peer(_));
        let (remote, local): (Vec<usize>, Vec<usize>) =
            (0..self.hot.len()).partition(|&i| remote_owned(&self.hot[i]));
        self.fleet_fresh.clear();
        for n in 0.. {
            if self.fleet_fresh.len() == FLEET_MISSES {
                break;
            }
            let spec = fresh_key(self.seed, FRESH_SALT, FLEET_FRESH_BASE + n, n);
            if remote_owned(&spec) {
                self.fleet_fresh.push(spec);
            }
        }
        let (mut r, mut l) = (remote.into_iter(), local.into_iter());
        self.ranks.clear();
        let mut share = 0.0;
        while self.ranks.len() < self.hot.len() {
            let take_remote = self.ranks.len().is_multiple_of(2);
            let next = if take_remote {
                r.next().map(|i| (i, true))
            } else {
                None
            }
            .or_else(|| l.next().map(|i| (i, false)))
            .or_else(|| r.next().map(|i| (i, true)))
            .expect("ranks cover the hot set");
            if next.1 {
                share += self.zipf.weight(self.ranks.len());
            }
            self.ranks.push(next.0);
        }
        share
    }

    /// Request `i` of the timed window.
    pub fn window_key(&self, i: u64) -> KeySpec {
        match self.workload {
            Workload::ColdSweep => cold_key(self.seed, i),
            Workload::HotZipf if i % FRESH_EVERY == FRESH_EVERY / 2 => {
                fresh_key(self.seed, FRESH_SALT, HOT_KEYS as u64 + i, i / FRESH_EVERY)
            }
            _ => {
                let rank = self.zipf.rank(stream::draw(self.seed, ZIPF_STREAM, i));
                self.hot[self.ranks[rank]].clone()
            }
        }
    }

    /// The key behind an id, for the verifier.
    pub fn spec_of(&self, id: u64) -> KeySpec {
        match self.workload {
            Workload::ColdSweep => cold_key(self.seed, id),
            _ if (id as usize) < self.hot.len() => self.hot[id as usize].clone(),
            _ if id >= FLEET_FRESH_BASE => {
                fresh_key(self.seed, FRESH_SALT, id, id - FLEET_FRESH_BASE)
            }
            _ => fresh_key(
                self.seed,
                FRESH_SALT,
                id,
                (id - HOT_KEYS as u64) / FRESH_EVERY,
            ),
        }
    }

    /// Ids whose replies define `mean_cycles`.
    pub fn quality_ids(&self) -> Vec<u64> {
        match self.workload {
            Workload::ColdSweep => (0..QUALITY_PREFIX).collect(),
            _ => (0..self.hot.len() as u64).collect(),
        }
    }
}

struct Args {
    mps: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |s: String, flag: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("{flag} must be a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        mps: PathBuf::from(get("--mps")?),
        workload: Workload::parse(&workload).ok_or_else(|| {
            format!("unknown workload {workload} (cold-sweep, hot-zipf, fleet-zipf)")
        })?,
        seed: num(get("--seed")?, "--seed")?,
        seconds: num(get("--seconds")?, "--seconds")?.max(1),
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    })
}

/// A benchmark run that must not report numbers.
#[derive(Debug)]
pub struct Abort(pub String);

impl<E: std::fmt::Display> From<E> for Abort {
    fn from(e: E) -> Abort {
        Abort(e.to_string())
    }
}

pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), Abort> {
    if cond {
        Ok(())
    } else {
        Err(Abort(what()))
    }
}

/// What a run hands to the reporting step.
pub struct Outcome {
    pub metrics: Metrics,
    /// Requests sent (every phase the metrics draw on).
    pub attempted: u64,
    /// Non-`ok` requests plus verification mismatches.
    pub failed: u64,
    pub mismatches: Vec<String>,
    /// Extra fields for the diagnostics line.
    pub info: Vec<(String, Value)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mpsbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_dir = PathBuf::from(".bench_run").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("mpsbench: cannot create {}: {e}", run_dir.display());
        return ExitCode::from(2);
    }
    let mut plan = Plan::new(args.workload, args.seed);
    let outcome = if args.trace {
        trace::run(&mut plan, args.seconds, &run_dir)
    } else {
        run_daemons(&mut plan, &args.mps, args.seconds, &run_dir)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = match outcome {
        Ok(o) => o,
        Err(Abort(why)) => {
            eprintln!(
                "mpsbench: {} seed {}: {why}",
                args.workload.name(),
                args.seed
            );
            return ExitCode::from(3);
        }
    };
    for m in &outcome.mismatches {
        eprintln!("mpsbench: mismatch: {m}");
    }
    let mut info = vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().to_string()),
        ),
        ("seed".to_string(), Value::U64(args.seed)),
        ("seconds".to_string(), Value::U64(args.seconds)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "nproc".to_string(),
            Value::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("revision".to_string(), Value::Str(revision())),
    ];
    info.extend(outcome.info);
    println!("{}", mps::json::write(&Value::Map(info)));
    let correct = outcome.mismatches.is_empty();
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// The source revision: `MPS_REVISION`, else the git HEAD when the
/// working directory is a repository root, else `unknown` (benchmark
/// checkouts need not be repositories).
fn revision() -> String {
    if let Ok(r) = std::env::var("MPS_REVISION") {
        return r;
    }
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The standalone daemons' cache budgets `(artifacts, tables)`: a service
/// keeps recent results only, so memory and the cache directory plateau
/// instead of growing with the number of requests a run completes. The
/// fleet's hit stream never grows its caches.
pub fn budgets(w: Workload) -> Option<(usize, usize)> {
    (w != Workload::FleetZipf).then_some((1024, 64))
}

/// How many times set-up is repeated per run (its median is `setup_s`).
fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::ColdSweep => 5,
        Workload::HotZipf => 7,
        Workload::FleetZipf => 3,
    }
}

const BOOT_LIMIT: Duration = Duration::from_secs(60);

/// One running deployment: the daemons, the entry address, and how long
/// it took to get warm.
struct Deployment {
    daemons: Vec<Daemon>,
    setup_s: f64,
    /// Replies of the set-up requests (fleet-zipf's owner compiles).
    log: PhaseLog,
    /// Fleet-zipf's expected forwarded share.
    forward_share: f64,
}

impl Deployment {
    fn entry(&self) -> &str {
        &self.daemons[0].addr
    }

    fn shutdown(self) -> Result<(), Abort> {
        for d in self.daemons {
            d.shutdown()?;
        }
        Ok(())
    }

    fn cpu_seconds(&self) -> Result<f64, Abort> {
        let mut total = 0.0;
        for d in &self.daemons {
            total += d.cpu_seconds()?;
        }
        Ok(total)
    }

    fn stats(&self) -> Result<Vec<StatsReply>, Abort> {
        self.daemons.iter().map(|d| Ok(d.stats()?)).collect()
    }
}

fn load_endpoints(addr: &str) -> Result<Vec<Tcp>, Abort> {
    Ok(vec![Tcp::connect(addr)?, Tcp::connect(addr)?])
}

/// Launch the workload's daemons and bring them to the state timing
/// starts from. `plan` may be re-laid for fleet ownership.
fn deploy(plan: &mut Plan, mps: &Path, cache_dir: Option<&Path>) -> Result<Deployment, Abort> {
    let t0 = Instant::now();
    match plan.workload {
        Workload::ColdSweep | Workload::HotZipf => {
            let port = free_ports(1)?[0];
            let opts = DaemonOpts {
                cache_dir: cache_dir.map(Path::to_path_buf),
                budgets: budgets(plan.workload),
                ..DaemonOpts::default()
            };
            let mut d = Daemon::spawn(mps, port, &opts)?;
            d.wait_ready(BOOT_LIMIT)?;
            Ok(Deployment {
                daemons: vec![d],
                setup_s: t0.elapsed().as_secs_f64(),
                log: PhaseLog::default(),
                forward_share: 0.0,
            })
        }
        Workload::FleetZipf => {
            let ports = free_ports(2)?;
            let (a, b) = (
                format!("127.0.0.1:{}", ports[0]),
                format!("127.0.0.1:{}", ports[1]),
            );
            let member = |me: &str, peer: &str| DaemonOpts {
                fleet: Some((me.to_string(), vec![peer.to_string()])),
                ..DaemonOpts::default()
            };
            let mut da = Daemon::spawn(mps, ports[0], &member(&a, &b))?;
            let mut db = Daemon::spawn(mps, ports[1], &member(&b, &a))?;
            da.wait_ready(BOOT_LIMIT)?;
            db.wait_ready(BOOT_LIMIT)?;
            let forward_share = plan.assign_owners(&a, &b);
            let hot = &plan.hot;
            let (log, _) = drive(load_endpoints(&a)?, Stop::After(hot.len() as u64), &|i| {
                hot.get(i as usize).cloned()
            });
            ensure(log.count(|c| !c.is_ok()) == 0, || {
                format!("fleet set-up compiles failed: {:?}", log.errors)
            })?;
            Ok(Deployment {
                daemons: vec![da, db],
                setup_s: t0.elapsed().as_secs_f64(),
                log,
                forward_share,
            })
        }
    }
}

/// Fill hot-zipf's cache directory in an untimed daemon life.
fn fill_cache(plan: &Plan, mps: &Path, dir: &Path) -> Result<PhaseLog, Abort> {
    let port = free_ports(1)?[0];
    let opts = DaemonOpts {
        cache_dir: Some(dir.to_path_buf()),
        budgets: budgets(plan.workload),
        ..DaemonOpts::default()
    };
    let mut d = Daemon::spawn(mps, port, &opts)?;
    d.wait_ready(BOOT_LIMIT)?;
    let hot = &plan.hot;
    let (log, _) = drive(
        load_endpoints(&d.addr)?,
        Stop::After(hot.len() as u64),
        &|i| hot.get(i as usize).cloned(),
    );
    let stats = d.stats()?;
    d.shutdown()?;
    ensure(log.count(|c| !c.is_ok()) == 0, || {
        format!("cache fill compiles failed: {:?}", log.errors)
    })?;
    ensure(stats.artifacts_persisted == hot.len() as u64, || {
        format!(
            "cache fill persisted {} of {} keys",
            stats.artifacts_persisted,
            hot.len()
        )
    })?;
    Ok(log)
}

fn sum_stats(all: &[StatsReply], f: impl Fn(&StatsReply) -> u64) -> u64 {
    all.iter().map(f).sum()
}

/// `--trace 0`: the untraced run against real daemons.
fn run_daemons(
    plan: &mut Plan,
    mps: &Path,
    seconds: u64,
    run_dir: &Path,
) -> Result<Outcome, Abort> {
    let mut all = PhaseLog::default();
    let cache_dir = run_dir.join("cache");
    if plan.workload == Workload::HotZipf {
        all.absorb(fill_cache(plan, mps, &cache_dir)?);
    }
    let cache = (plan.workload == Workload::HotZipf).then_some(cache_dir.as_path());

    // Set-up, several times; the last deployment serves the window.
    let mut setups = Vec::new();
    let mut deployment = None;
    for _ in 0..setup_repeats(plan.workload) {
        if let Some(prev) = deployment.take() {
            Deployment::shutdown(prev)?;
        }
        let d = deploy(plan, mps, cache)?;
        setups.push(d.setup_s);
        deployment = Some(d);
    }
    let mut dep = deployment.expect("at least one set-up");
    all.absorb(std::mem::take(&mut dep.log));
    let before = dep.stats()?;
    if plan.workload == Workload::HotZipf {
        ensure(before[0].artifacts_loaded == HOT_KEYS as u64, || {
            format!(
                "warm start loaded {} of {HOT_KEYS} artifacts",
                before[0].artifacts_loaded
            )
        })?;
    }

    // The timed window, in rounds: each round runs a slice of the
    // workload's stream, then (cold-sweep, fleet-zipf) a slice of the
    // class the stream lacks, so both classes sample the whole run.
    let slice = Duration::from_secs_f64(seconds as f64 / ROUNDS as f64);
    let mut endpoints = load_endpoints(dep.entry())?;
    let mut window = PhaseLog::default();
    let mut complement = PhaseLog::default();
    let mut rounds = Vec::new();
    let mut rss = 0.0;
    let (mut hits, mut builds, mut forwards, mut offset) = (0, 0, 0, 0);
    for r in 0..ROUNDS {
        let before = dep.stats()?;
        let cpu0 = dep.cpu_seconds()?;
        let stop = Stop::At(Instant::now() + slice);
        let (log, eps) = drive(endpoints, stop, &|i| Some(plan.window_key(offset + i)));
        let log = log.in_round(r);
        let cpu = dep.cpu_seconds()? - cpu0;
        let after = dep.stats()?;
        let delta = |f: &dyn Fn(&StatsReply) -> u64| sum_stats(&after, f) - sum_stats(&before, f);
        hits += delta(&|s| s.artifact_cache_hits);
        builds += delta(&|s| s.table_builds);
        forwards += after[0].peer_forwards - before[0].peer_forwards;
        offset += log.issued;
        rounds.push(Round {
            ok: log.count(Class::is_ok),
            elapsed: log.elapsed,
            cpu: Some(cpu),
        });
        // Peak memory of the window itself: fleet-zipf's later miss
        // slices build tables its hit stream never needs.
        let sample_rss = match plan.workload {
            Workload::FleetZipf => r == 0,
            _ => r + 1 == ROUNDS,
        };
        if sample_rss {
            rss = dep
                .daemons
                .iter()
                .map(|d| d.peak_rss_mb())
                .sum::<Result<f64, _>>()?;
        }
        window.absorb(log);
        // The class the stream lacks, on the same two connections.
        let (log, eps) = match plan.workload {
            Workload::ColdSweep => reread(eps, plan, &window),
            Workload::FleetZipf => {
                let per = plan.fleet_fresh.len() / ROUNDS;
                let fresh = &plan.fleet_fresh[r * per..(r + 1) * per];
                drive(eps, Stop::After(fresh.len() as u64), &|j| {
                    fresh.get(j as usize).cloned()
                })
            }
            Workload::HotZipf => (PhaseLog::default(), eps),
        };
        complement.absorb(log.in_round(r));
        endpoints = eps;
    }
    let after = dep.stats()?;
    let misses = window.count(|c| c == Class::Miss) as u64;
    let mut info = vec![(
        "round_req_per_s".to_string(),
        Value::Seq(
            rounds
                .iter()
                .map(|r| Value::F64(r.ok as f64 / r.elapsed))
                .collect(),
        ),
    )];
    match plan.workload {
        Workload::ColdSweep => {
            ensure(hits == 0 && window.count(|c| c == Class::Hit) == 0, || {
                format!("cold-sweep served {hits} artifact hits")
            })?;
        }
        Workload::HotZipf => {
            let fresh = window
                .samples
                .iter()
                .filter(|s| s.id >= HOT_KEYS as u64)
                .count() as u64;
            ensure(builds == fresh && misses == fresh, || {
                format!("hot-zipf built {builds} tables and missed {misses} times for {fresh} fresh keys")
            })?;
        }
        Workload::FleetZipf => {
            let failovers = sum_stats(&after, |s| s.peer_failovers);
            ensure(failovers == 0, || {
                format!("fleet failed over {failovers} times")
            })?;
            let share = forwards as f64 / window.samples.len().max(1) as f64;
            ensure((share - dep.forward_share).abs() < 0.05, || {
                format!(
                    "forwarded share {share:.3} is not the ring's {:.3}",
                    dep.forward_share
                )
            })?;
            info.push(("forward_share".to_string(), Value::F64(share)));
            info.push((
                "expected_forward_share".to_string(),
                Value::F64(dep.forward_share),
            ));
        }
    }
    dep.shutdown()?;

    let run = Measured {
        setups,
        window,
        rounds,
        complement: (plan.workload != Workload::HotZipf).then_some(complement),
        rss: Some(rss),
    };
    Ok(summarize(plan, run, all, info))
}

/// What one run measured, before verification.
pub struct Measured {
    /// Each set-up's duration, seconds.
    pub setups: Vec<f64>,
    /// Every window slice's requests.
    pub window: PhaseLog,
    pub rounds: Vec<Round>,
    /// The class the window lacks (cold-sweep's hits, fleet-zipf's misses).
    pub complement: Option<PhaseLog>,
    /// Peak daemon RSS, MiB (daemon runs only).
    pub rss: Option<f64>,
}

/// Rounds each run's window is split into.
const ROUNDS: usize = 5;

/// One round's window slice.
pub struct Round {
    pub ok: usize,
    pub elapsed: f64,
    /// Daemon CPU seconds over the slice (daemon runs only).
    pub cpu: Option<f64>,
}

/// One of cold-sweep's hit slices: the last `REREAD_KEYS` keys the window
/// compiled (well inside the cache budget), read back twice.
pub fn reread<E: load::Endpoint>(
    endpoints: Vec<E>,
    plan: &Plan,
    window: &PhaseLog,
) -> (PhaseLog, Vec<E>) {
    let mut ids: Vec<u64> = window
        .samples
        .iter()
        .filter(|s| s.class.is_ok())
        .map(|s| s.id)
        .collect();
    ids.sort_unstable();
    let ids = &ids[ids.len().saturating_sub(REREAD_KEYS)..];
    drive(endpoints, Stop::After(2 * ids.len() as u64), &|j| {
        Some(cold_key(plan.seed, ids[j as usize % ids.len()]))
    })
}

/// Verify every reply (`run`'s and the untimed ones in `all`) and turn the
/// logs into the end-to-end metrics.
pub fn summarize(
    plan: &Plan,
    run: Measured,
    mut all: PhaseLog,
    mut info: Vec<(String, Value)>,
) -> Outcome {
    let Measured {
        setups,
        window,
        rounds,
        complement,
        rss,
    } = run;
    let window = &window;
    // Percentile `p` in ms of `log`'s samples matching `pred`: the median
    // over rounds of each round's percentile when every round has ten
    // samples beyond it (so one stalled round cannot own a tail), else
    // the percentile of the pooled samples.
    let pct = |log: &PhaseLog, pred: &dyn Fn(Class) -> bool, p: f64| {
        let by_round: Vec<Vec<f64>> = (0..rounds.len())
            .map(|r| {
                log.samples
                    .iter()
                    .filter(|s| s.round == r && pred(s.class))
                    .map(|s| s.lat)
                    .collect()
            })
            .collect();
        let value = if by_round.len() > 1 && by_round.iter().all(|xs| beyond(xs.len(), p) >= 10) {
            median(
                &by_round
                    .iter()
                    .filter_map(|xs| percentile(xs, p))
                    .collect::<Vec<_>>(),
            )
        } else {
            percentile(&log.latencies(pred), p)
        };
        value.map_or(f64::NAN, |s| s * 1e3)
    };
    let (hit_src, miss_src) = match (plan.workload, &complement) {
        (Workload::ColdSweep, Some(c)) => (c, window),
        (Workload::FleetZipf, Some(c)) => (window, c),
        _ => (window, window),
    };
    let is_hit = |c: Class| c == Class::Hit;
    let is_miss = |c: Class| c == Class::Miss;
    let (hits, misses) = (hit_src.count(is_hit), miss_src.count(is_miss));
    let medians = [
        ("lat_p50_ms", pct(window, &|_| true, 50.0)),
        ("hit_p50_ms", pct(hit_src, &is_hit, 50.0)),
        ("miss_p50_ms", pct(miss_src, &is_miss, 50.0)),
    ];
    // Tails go to the diagnostics line, not the result: on a shared 2-vCPU
    // host their run-to-run spread exceeds any bound a result may carry.
    let tails = [
        ("lat_p99_ms", pct(window, &|_| true, 99.0)),
        ("hit_p99_ms", pct(hit_src, &is_hit, 99.0)),
        ("miss_p99_ms", pct(miss_src, &is_miss, 99.0)),
    ];

    let mut phases = PhaseLog::default();
    phases.samples.extend(window.samples.iter().copied());
    phases
        .first_replies
        .extend(window.first_replies.iter().cloned());
    phases.digests.extend(window.digests.iter().copied());
    if let Some(c) = complement {
        phases.absorb(c);
    }
    let attempted = phases.samples.len() as u64;
    let not_ok = phases.count(|c| !c.is_ok()) as u64;
    all.absorb(phases);
    let verdict = verify::verify(&all.first_replies, &all.digests, &|id| plan.spec_of(id));
    let failed = not_ok + verdict.mismatches.len() as u64;

    let quality: Vec<f64> = plan
        .quality_ids()
        .iter()
        .filter_map(|id| verdict.cycles.get(id).map(|&c| c as f64))
        .collect();

    let mut m = Metrics::default();
    m.put("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    let round_median = |f: &dyn Fn(&Round) -> Option<f64>| {
        median(&rounds.iter().filter_map(f).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    m.put(
        "req_per_s",
        round_median(&|r| Some(r.ok as f64 / r.elapsed)),
        "1/s",
    );
    for (name, value) in medians {
        m.put(name, value, "ms");
    }
    m.put(
        "ok_frac",
        1.0 - failed as f64 / attempted.max(1) as f64,
        "ratio",
    );
    m.put(
        "mean_cycles",
        quality.iter().sum::<f64>() / quality.len().max(1) as f64,
        "cycles",
    );
    if let Some(rss) = rss {
        m.put("peak_rss_mb", rss, "MiB");
        m.put(
            "cpu_ms_per_req",
            round_median(&|r| r.cpu.map(|c| c * 1e3 / r.ok.max(1) as f64)),
            "ms",
        );
    }

    let count = |c: Class| Value::U64(all.samples.iter().filter(|s| s.class == c).count() as u64);
    info.extend(tails.map(|(name, v)| (name.to_string(), Value::F64(v))));
    info.extend([
        ("window_s".to_string(), Value::F64(window.elapsed)),
        (
            "window_requests".to_string(),
            Value::U64(window.samples.len() as u64),
        ),
        ("hit_samples".to_string(), Value::U64(hits as u64)),
        ("miss_samples".to_string(), Value::U64(misses as u64)),
        (
            "p99_hit_beyond".to_string(),
            Value::U64(beyond(hits, 99.0) as u64),
        ),
        (
            "p99_miss_beyond".to_string(),
            Value::U64(beyond(misses, 99.0) as u64),
        ),
        ("keys_verified".to_string(), Value::U64(verdict.keys as u64)),
        ("quality_keys".to_string(), Value::U64(quality.len() as u64)),
        ("sheds".to_string(), count(Class::Shed)),
        ("deadline_errors".to_string(), count(Class::Deadline)),
        ("internal_errors".to_string(), count(Class::Internal)),
        ("other_errors".to_string(), count(Class::Error)),
        ("timeouts".to_string(), count(Class::Timeout)),
        ("dropped".to_string(), count(Class::Dropped)),
        (
            "mismatches".to_string(),
            Value::U64(verdict.mismatches.len() as u64),
        ),
        (
            "error_samples".to_string(),
            Value::Seq(all.errors.iter().map(|e| Value::Str(e.clone())).collect()),
        ),
    ]);
    Outcome {
        metrics: m,
        attempted,
        failed,
        mismatches: verdict.mismatches,
        info,
    }
}
