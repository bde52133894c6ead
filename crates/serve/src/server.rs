//! The compile server: admission by compile permits, write-behind
//! persistence, two cache tiers, and the TCP / stdio front-ends.
//!
//! One [`Server`] owns all serving state behind an `Arc`:
//!
//! * three instances of the one [`mps::SingleFlightCache`] type
//!   (sharded, single-flight, optionally budgeted with LRU eviction): the
//!   artifact cache of whole compiles, underneath it the process-wide
//!   [`mps::TableCache`] of pattern tables shared across *different*
//!   configs of one graph, and a fixed-size memo of registry graphs,
//! * **every compile runs on the thread that read its request** (a TCP
//!   connection thread, the stdio loop, or the caller of
//!   [`Server::handle_line`]); a cache hit is answered there at once,
//!   never admitted, so a hit cannot wait or be shed behind a cold
//!   compile,
//! * a `Gate` admitting the misses: at most `workers` compiles hold a
//!   permit at once, at most `queue` more wait in line for one (granted
//!   in arrival order), and a miss past that **sheds** (structured
//!   `overloaded` reply with a retry hint) instead of blocking, so
//!   overload degrades into fast refusals, not pile-ups; a compile that
//!   panics is contained and answered as an `internal` error, and its
//!   permit is returned by a drop guard,
//! * with a `cache_dir`, one persister thread that writes the `cr-`
//!   results and `pt-` tables to disk *after* the reply, fed through a
//!   small bounded channel whose sends block when it is full (a save is
//!   never dropped), and that keeps the directory inside its budget from
//!   the store's in-memory index ([`ArtifactStore::enforce_budget_indexed`]),
//! * [`StageHistograms`] + [`mps::SharedStageMetrics`] feeding the
//!   `stats` reply, including the wait for a permit and the persistence
//!   lag.
//!
//! `stats` is a persistence barrier: it waits until every save handed
//! off before it was received is on disk, so `artifacts_persisted` and
//! `tables_persisted` are exact for every reply a client has already
//! read. `ping` never waits.
//!
//! Requests may carry a `deadline_ms`; the server refuses them at
//! admission once expired, answers a miss whose deadline passes while
//! it waits for a permit at that deadline, bounds waits on identical
//! in-flight compiles,
//! and cancels the pipeline itself at stage boundaries via
//! [`mps::CancelToken`]. Connection hygiene is enforced per connection:
//! request lines over `max_line_bytes` are refused, a client stalled
//! mid-line or mid-reply is disconnected after `read_timeout_ms`, and at
//! most `max_conns` connections are served at once (excess connections
//! get one `overloaded` line and are closed). A [`FaultPlan`] can inject
//! stage delays/failures, reply drops and slow reads for chaos tests.
//!
//! Control verbs (`stats`, `ping`, `peers`, `shutdown`) never take a
//! permit, so they stay responsive while every permit is held.
//! `shutdown` closes the gate: misses already in line still compile,
//! new compiles are refused with an error reply. Joining the server
//! waits until every permit is back, then stops the persister after it
//! has written every save handed to it, so a restart warm-loads
//! everything that was answered. The accept loop blocks in `accept`, so
//! `shutdown` also wakes it by connecting to the listener's own address;
//! idle connection threads notice the flag on their next read-timeout
//! tick and wind down.
//!
//! With `peers` configured the server is one member of a **fleet**: a
//! [`PeerRing`] routes each compile to its rendezvous owner (see
//! [`crate::ring`]), a [`PeerTable`] tracks per-peer health fed by
//! forwards and a background prober, and `artifact_put`/`artifact_get`
//! replicate finished artifacts — including hinted handoff of results a
//! non-owner computed while the owner was down. Owner unusable ⇒ the
//! receiving daemon computes locally (`peer_failovers`) so the client
//! is answered either way; a key held locally is answered inline, owner
//! or not. Forwards, probes and handoffs all travel pooled persistent
//! connections (`Fleet::round_trip`), so a hit
//! forwarded to its owner costs one round trip, not a TCP dial. The
//! prober sleeps on a condition variable until its next round, and
//! `shutdown` wakes it.

use crate::client::Client;
use crate::fault::FaultPlan;
use crate::histogram::StageHistograms;
use crate::peer::{PeerState, PeerTable};
use crate::protocol::{
    compile_reply_line, compile_reply_tail, encode, ArtifactGetReply, ArtifactPutReply,
    CompileHead, ErrorReply, LatencyStats, MetricsTotals, PeerInfo, PeersReply, PongReply, Reply,
    Request, ShutdownReply, StatsReply,
};
use crate::ring::{Owner, PeerRing};
use mps::artifact::ArtifactStore;
use mps::patterns::PatternTable;
use mps::{
    CacheBudget, CancelToken, CompileConfig, CompileResult, Session, SharedStageMetrics,
    SingleFlightCache, StageProbe, TableCache, TableKey,
};
use serde::Value;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hasher};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::ControlFlow;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock, RwLockReadGuard,
};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Serving knobs. The defaults fit the CI smoke test and the integration
/// suite; a deployment mostly tunes `workers` and the cache budgets.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Most compiles that run at once, each on the thread that read its
    /// request (default: the [`mps::par::parallelism`] policy, i.e.
    /// `MPS_THREADS` or the machine).
    pub workers: usize,
    /// Most misses that wait for a compile permit; a miss beyond them
    /// sheds (default 64).
    pub queue: usize,
    /// Artifact-cache entry budget (default unbounded).
    pub max_artifacts: Option<usize>,
    /// Artifact-cache byte budget, in [`mps::approx_result_bytes`]
    /// units plus an estimate of each entry's stored reply tail (default
    /// unbounded).
    pub max_artifact_bytes: Option<usize>,
    /// Pattern-table cache entry budget (default unbounded).
    pub max_tables: Option<usize>,
    /// Pattern-table cache byte budget, in [`mps::approx_table_bytes`]
    /// units (default unbounded).
    pub max_table_bytes: Option<usize>,
    /// Longest accepted request line in bytes (default 1 MiB); longer
    /// lines get a protocol error and the connection is closed.
    pub max_line_bytes: usize,
    /// Most simultaneous TCP connections served (default 256); excess
    /// connections get one `overloaded` line and are closed.
    pub max_conns: usize,
    /// How long a connection may stall mid-line, or leave a reply
    /// unread, before it is dropped, in milliseconds (default 10 000).
    pub read_timeout_ms: u64,
    /// Directory for persistent artifacts (default: none). When set,
    /// successful compiles and fresh pattern tables are persisted
    /// (write-temp-then-rename) by a persister thread after the reply,
    /// and surviving artifacts are loaded back at boot, so a restarted
    /// server answers previously compiled requests without building a
    /// single table. The disk tier reuses `max_artifacts` /
    /// `max_artifact_bytes` as its entry/byte budgets (file sizes,
    /// least-recently-written evicted first).
    pub cache_dir: Option<PathBuf>,
    /// Fleet peers, as `host:port` addresses (default: none). With at
    /// least one peer, compiles are routed by rendezvous hash: each key
    /// is owned by exactly one member and non-owners forward to it,
    /// failing over to local compute (plus a hinted artifact handoff)
    /// when the owner is unusable.
    pub peers: Vec<String>,
    /// The address *this* daemon is known by in its peers' `--peer`
    /// lists. Must be set (and spelled identically everywhere) when
    /// `peers` is non-empty — the ring hashes member addresses, so all
    /// members must score this daemon under the same name.
    pub advertise: String,
    /// Milliseconds between peer health-probe rounds (default 1000).
    pub probe_interval_ms: u64,
    /// Budget for one forward hop — the round trip on a pooled peer
    /// connection, including the dial when no idle connection exists —
    /// in milliseconds (default 2000). Tighter of this and the request's
    /// own deadline; a forward past it fails over to local compute, and
    /// is never retried.
    pub forward_timeout_ms: u64,
    /// Chaos faults to inject (default: none).
    pub faults: FaultPlan,
}

impl ServeOptions {
    /// How many daemons share the keyspace: this one plus its peers
    /// (1 when standalone).
    pub fn ring_size(&self) -> usize {
        self.peers.len() + 1
    }

    /// A budget's fleet-fair share: the rendezvous ring hands each
    /// member ~1/ring of the keys, so a cache budget sized for the whole
    /// corpus is split by the ring size (ceiling division, never below
    /// 1). Standalone servers keep the budget verbatim.
    pub fn effective_budget(&self, budget: Option<usize>) -> Option<usize> {
        budget.map(|n| n.div_ceil(self.ring_size()).max(1))
    }
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: mps::par::parallelism(),
            queue: 64,
            max_artifacts: None,
            max_artifact_bytes: None,
            max_tables: None,
            max_table_bytes: None,
            max_line_bytes: 1 << 20,
            max_conns: 256,
            read_timeout_ms: 10_000,
            cache_dir: None,
            peers: Vec::new(),
            advertise: String::new(),
            probe_interval_ms: 1_000,
            forward_timeout_ms: 2_000,
            faults: FaultPlan::default(),
        }
    }
}

/// Capacity of the channel from the compiles and the table hook to the
/// persister. A full channel blocks the sender, so no save is dropped and
/// the disk lags the replies by at most this many saves. The table hook
/// sends from inside a compile, so the slots must absorb bursts of misses
/// (two saves each) and slow fsyncs, or a miss waits on the disk.
const PERSIST_CHANNEL: usize = 64;

/// Most artifact pushes parked for an unreachable owner; beyond this
/// the oldest is dropped (the owner recompiles on demand — handoff is
/// an optimization, not a durability promise).
const PENDING_HANDOFFS_MAX: usize = 64;

/// Fleet state, present only when the server was started with peers:
/// the rendezvous ring, the per-peer health table, the hinted handoffs
/// waiting for their owner to come back, and the peer connection pool.
struct Fleet {
    ring: PeerRing,
    table: PeerTable,
    /// `(owner address, artifact line)` pushes that failed because the
    /// owner was unreachable; the prober flushes them when it next sees
    /// the owner healthy, so a restarted peer re-warms from the fleet.
    pending: Mutex<Vec<(String, String)>>,
    /// Idle connections per peer address, shared by forwards, probes and
    /// handoffs. A caller takes one for its round trip and puts it back
    /// afterwards, so a peer never has more pooled connections than it
    /// ever had concurrent callers.
    idle: Mutex<HashMap<String, Vec<Client>>>,
    /// Fresh TCP connections opened to peers (`peer_dials` in stats).
    dials: AtomicU64,
}

impl Fleet {
    /// One request/reply exchange with peer `addr`: take an idle pooled
    /// connection (or dial one), send `line`, read one reply line, all
    /// within `timeout`, and return it. A line that opens with
    /// [`SUCCESS_PREFIX`] is not decoded here: a forwarded compile hands
    /// it to its client verbatim, and a caller that wants the typed reply
    /// decodes it itself. Any other line is decoded, to classify it.
    ///
    /// The connection goes back to the pool only after a reply the
    /// callers can use (a success, a compile error or `overloaded`);
    /// `shutting_down`, an unintelligible reply, a reply cut short, a
    /// timeout or any I/O error drops it. A *reused* connection that fails
    /// with EOF, reset or broken pipe before any reply byte was closed by
    /// the peer while it sat idle (a restarted peer, say) and is retried
    /// once on a fresh dial. A timeout is never retried: it is the peer's
    /// verdict, and a retry would double the caller's budget.
    fn round_trip(&self, addr: &str, line: &str, timeout: Duration) -> io::Result<String> {
        let until = Instant::now() + timeout;
        let pooled = self
            .idle
            .lock()
            .expect("peer pool poisoned")
            .get_mut(addr)
            .and_then(Vec::pop);
        let reused = pooled.is_some();
        let mut client = match pooled {
            Some(client) => client,
            None => self.dial(addr, timeout)?,
        };
        let mut sent = exchange(&mut client, line, timeout);
        if reused && sent.as_ref().is_err_and(is_stale) {
            let left = until.saturating_duration_since(Instant::now());
            if !left.is_zero() {
                client = self.dial(addr, left)?;
                sent = exchange(&mut client, line, left);
            }
        }
        let text = sent?;
        let draining = !text.starts_with(SUCCESS_PREFIX)
            && error_code(&decode_peer_reply(&text)?) == Some("shutting_down");
        if !draining {
            self.idle
                .lock()
                .expect("peer pool poisoned")
                .entry(addr.to_string())
                .or_default()
                .push(client);
        }
        Ok(text)
    }

    /// Open a fresh connection to peer `addr`, with `timeout` bounding
    /// the connect, and count it. Only [`Fleet::round_trip`] dials: when
    /// the pool holds no idle connection to `addr`, or a reused one was
    /// stale. Every round trip re-arms the read and write timeouts, so a
    /// dead peer never holds a thread past the caller's budget.
    fn dial(&self, addr: &str, timeout: Duration) -> io::Result<Client> {
        let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("peer address {addr} resolves to nothing"),
            )
        })?;
        let client = Client::connect_timeout(&sockaddr, timeout)?;
        self.dials.fetch_add(1, Ordering::Relaxed);
        Ok(client)
    }
}

/// How every success reply line opens (`ok` is each reply's first
/// field), so a relayed success is recognised without decoding it.
const SUCCESS_PREFIX: &str = "{\"ok\":true,";

/// Decode one peer reply line; a line that is not protocol is
/// `InvalidData`.
fn decode_peer_reply(text: &str) -> io::Result<Reply> {
    Reply::from_line(text).map_err(|e| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("unintelligible peer reply: {e}"),
        )
    })
}

/// The error code of an error reply.
fn error_code(reply: &Reply) -> Option<&str> {
    match reply {
        Reply::Error(e) => e.code.as_deref(),
        _ => None,
    }
}

/// Send one line on `client` and read its reply, both bounded by
/// `timeout`.
fn exchange(client: &mut Client, line: &str, timeout: Duration) -> io::Result<String> {
    client.set_timeout(Some(timeout))?;
    client.send_line(line)
}

/// Did a reused connection fail because the peer had already closed it?
/// [`Client::send_line`] reports EOF only when no reply byte arrived, and
/// a failure after a partial reply as `InvalidData`, so these kinds mean
/// the request was never answered.
fn is_stale(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof | io::ErrorKind::ConnectionReset | io::ErrorKind::BrokenPipe
    )
}

/// Most registry graphs the memo holds at once: a workload names few
/// kernels, and a name past the cap only costs its rebuild.
const REGISTRY_MEMO: usize = 64;

/// Largest registry graph (in nodes) the memo keeps. Registry names are
/// parametric, so this and [`REGISTRY_MEMO`] bound the memo's footprint;
/// a larger graph is rebuilt per request, which its compile dwarfs.
const REGISTRY_MEMO_NODES: usize = 4096;

/// One artifact-cache entry: a compile result and the tail of its reply
/// ([`compile_reply_tail`]), rendered by the first reply that needs it
/// and spliced into every later one. A miss renders it as it answers; a
/// warm-started or handed-off entry renders it on its first hit, so
/// loading an entry renders nothing.
struct Artifact {
    result: CompileResult,
    reply_tail: OnceLock<Box<str>>,
}

impl Artifact {
    fn new(result: CompileResult) -> Artifact {
        Artifact {
            result,
            reply_tail: OnceLock::new(),
        }
    }

    /// The reply tail, rendered on first use.
    fn reply_tail(&self) -> &str {
        self.reply_tail
            .get_or_init(|| compile_reply_tail(&self.result))
    }

    /// Charged bytes: the result's [`mps::approx_result_bytes`] plus
    /// [`reply_tail_bound`], charged whether or not the tail is rendered
    /// yet, so a loaded entry costs what a computed one does and
    /// `max_artifact_bytes` still bounds what the entries grow to.
    fn cost(&self) -> usize {
        std::mem::size_of::<Artifact>() - std::mem::size_of::<CompileResult>()
            + mps::approx_result_bytes(&self.result)
            + reply_tail_bound(&self.result)
    }
}

/// An upper bound on the bytes of `result`'s [`compile_reply_tail`],
/// counted from the result without rendering it: each pattern quoted, each
/// schedule line with its cycle number, pattern and node ids, and the
/// escaped newline that ends it.
fn reply_tail_bound(result: &CompileResult) -> usize {
    let cycles = result.schedule.cycles();
    let number = decimal_digits(cycles.len()).max(3);
    let patterns: usize = result
        .selection
        .patterns
        .iter()
        .map(|p| pattern_bytes(p) + 3)
        .sum();
    let lines: usize = cycles
        .iter()
        .map(|cycle| {
            let nodes: usize = cycle
                .nodes
                .iter()
                .map(|n| 2 + decimal_digits(n.0 as usize))
                .sum();
            LINE_BYTES + number + pattern_bytes(&cycle.pattern) + nodes
        })
        .sum();
    TAIL_FIXED_BYTES + patterns + lines
}

/// The tail's bytes outside its patterns and schedule lines: the field
/// names, the schedule's header and quotes, and six optional fields of at
/// most 20 digits each.
const TAIL_FIXED_BYTES: usize = 320;

/// A schedule line's bytes besides its cycle number, pattern and nodes:
/// `  cycle `, ` [`, `]:` and the escaped `\n`.
const LINE_BYTES: usize = 14;

/// Bytes `pattern` renders to: a letter per colour, `#<index>` for a
/// colour past `z`, and `∅` (3 bytes) when empty.
fn pattern_bytes(pattern: &mps::patterns::Pattern) -> usize {
    if pattern.is_empty() {
        return '∅'.len_utf8();
    }
    let colour = |c: &mps::dfg::Color| match c.as_char() {
        Some(_) => 1,
        None => 1 + decimal_digits(c.index()),
    };
    pattern.colors().iter().map(colour).sum()
}

/// Decimal digits of `n`.
fn decimal_digits(n: usize) -> usize {
    n.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// A compile request resolved to its graph, config and artifact key, once,
/// on the thread that read it; a miss compiles from it, so the graph is
/// not resolved and hashed twice.
struct Resolved {
    workload: String,
    dfg: Arc<mps::dfg::Dfg>,
    cfg: CompileConfig,
    key: (u64, u64),
}

/// Byte budget of the inline-graph memo, charged by [`MemoGraph::cost`].
const GRAPH_MEMO_BYTES: usize = 640 << 10;

/// Largest charge one inline-graph memo entry may carry: a larger graph
/// is parsed per request, which its compile dwarfs, and never crowds the
/// memo out.
const GRAPH_MEMO_ENTRY_BYTES: usize = GRAPH_MEMO_BYTES / 8;

/// Slots of the table of recently seen inline texts (by hash). The memo
/// stores a text only when this table shows it was seen before, so texts
/// sent once never churn the memo.
const GRAPH_SIGHTINGS: usize = 1024;

/// A memoised graph with its content hash, under a hash of its source: a
/// registry name or the raw text of an inline graph. The source confirms a
/// lookup, so a hash collision rebuilds instead of serving another graph.
struct MemoGraph {
    source: String,
    dfg: Arc<mps::dfg::Dfg>,
    hash: u64,
}

impl MemoGraph {
    /// Charged bytes: the entry, its source and its graph.
    fn cost(&self) -> usize {
        std::mem::size_of::<MemoGraph>() + self.source.len() + mps::approx_dfg_bytes(&self.dfg)
    }
}

/// The graph `source` stands for: from `memo` when the entry under `key`
/// (the source's hash) holds exactly this source, otherwise built and
/// hashed, then stored under `key` when `keep` accepts the new entry.
fn memoised<E>(
    memo: &SingleFlightCache<u64, MemoGraph>,
    key: u64,
    source: &str,
    build: impl FnOnce() -> Result<mps::dfg::Dfg, E>,
    keep: impl FnOnce(&MemoGraph) -> bool,
) -> Result<Arc<MemoGraph>, E> {
    let hit = memo.get(key).and_then(Result::ok);
    if let Some(graph) = hit.filter(|graph| graph.source == source) {
        return Ok(graph);
    }
    let dfg = build()?;
    let graph = Arc::new(MemoGraph {
        source: source.to_string(),
        hash: dfg.content_hash(),
        dfg: Arc::new(dfg),
    });
    if keep(&graph) {
        memo.seed(key, Ok(Arc::clone(&graph)));
    }
    Ok(graph)
}

/// The inline-graph memo key of `text`: SipHash over its bytes, several
/// times faster than byte-wise FNV on kilobyte texts. The memo lives in
/// one process, so the key need not be stable across builds.
fn text_key(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    hasher.write(text.as_bytes());
    hasher.finish()
}

/// One forward attempt's outcome, as the failover policy needs it
/// split: a usable reply line, a shed (peer alive, just saturated), or
/// a dead/unintelligible peer.
enum Forwarded {
    /// The owner answered — success or an ordinary compile error, both
    /// returned to the client verbatim.
    Line(String),
    /// The owner shed the request and suggested this retry delay.
    Shed(u64),
    /// Dial/read failed, timed out, or the reply was not protocol.
    Down(String),
}

/// Admission for misses: `permits` compile permits and a line of at most
/// `capacity` misses waiting for one. Each waiter takes a ticket under
/// the mutex, and only the oldest ticket may take a free permit, so
/// permits go out in arrival order.
struct Gate {
    permits: usize,
    capacity: usize,
    line: Mutex<Line>,
    /// Notified when a permit comes back while misses wait or the gate
    /// drains, and when a waiter leaves the line.
    changed: Condvar,
}

#[derive(Default)]
struct Line {
    /// Permits held.
    running: usize,
    /// Tickets of the misses waiting for a permit, oldest first.
    waiting: VecDeque<u64>,
    next_ticket: u64,
    /// Set at shutdown: no new miss enters.
    closed: bool,
}

/// Why a miss got no permit.
enum Refusal {
    /// Every permit is held and the line is full.
    Full,
    /// The server is shutting down.
    Closed,
    /// The deadline passed in line.
    Expired,
}

impl Gate {
    fn new(permits: usize, capacity: usize) -> Gate {
        Gate {
            permits: permits.max(1),
            capacity: capacity.max(1),
            line: Mutex::new(Line::default()),
            changed: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Line> {
        self.line.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take a permit, waiting in line for one until `deadline`, if any.
    fn enter(&self, deadline: Option<Instant>) -> Result<Permit<'_>, Refusal> {
        let mut line = self.lock();
        if line.closed {
            return Err(Refusal::Closed);
        }
        if line.waiting.len() >= self.capacity {
            return Err(Refusal::Full);
        }
        let ticket = line.next_ticket;
        line.next_ticket += 1;
        line.waiting.push_back(ticket);
        loop {
            if line.running < self.permits && line.waiting.front() == Some(&ticket) {
                line.waiting.pop_front();
                line.running += 1;
                if line.running < self.permits && !line.waiting.is_empty() {
                    self.changed.notify_all(); // the next ticket may take one too
                }
                return Ok(Permit(self));
            }
            let left = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            line = match left {
                None => self
                    .changed
                    .wait(line)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(left) if !left.is_zero() => {
                    let waited = self.changed.wait_timeout(line, left);
                    waited.unwrap_or_else(PoisonError::into_inner).0
                }
                Some(_) => {
                    line.waiting.retain(|&t| t != ticket);
                    self.changed.notify_all(); // the next ticket may be the oldest now
                    return Err(Refusal::Expired);
                }
            };
        }
    }

    /// Wait until every permit is back and nobody waits.
    fn drain(&self) {
        let mut line = self.lock();
        while line.running > 0 || !line.waiting.is_empty() {
            line = self
                .changed
                .wait(line)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// A held compile permit, returned on drop, so a compile that panics
/// returns it as it unwinds.
struct Permit<'a>(&'a Gate);

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut line = self.0.lock();
        line.running -= 1;
        if !line.waiting.is_empty() || (line.closed && line.running == 0) {
            self.0.changed.notify_all();
        }
    }
}

/// A save a fresh compile result owes the disk tier, holding the `stats`
/// barrier (a shared [`State::handoff`] guard) from before its reply is
/// written until it is handed off.
type Owed<'a> = (Save, RwLockReadGuard<'a, ()>);

/// A reply line, whether its request shut the server down, and the save
/// the reply owes.
struct Answer<'a> {
    line: String,
    quit: bool,
    owed: Option<Owed<'a>>,
}

impl From<String> for Answer<'_> {
    fn from(line: String) -> Self {
        Answer {
            line,
            quit: false,
            owed: None,
        }
    }
}

/// A write owed to the disk tier.
enum Save {
    /// A fresh compile result under its artifact key.
    Result((u64, u64), Arc<Artifact>),
    /// A fresh pattern table under its graph hash and table key.
    Table(u64, TableKey, Arc<PatternTable>),
}

/// A message to the persister thread.
enum Persist {
    /// Write this, stamped with when it was handed off.
    Save(Save, Instant),
    /// Acknowledge once every earlier message is done (the `stats`
    /// barrier).
    Flush(mpsc::SyncSender<()>),
    /// Exit: every permit is back, nothing more is owed.
    Stop,
}

/// All serving state, shared between the front-ends, the persister and
/// the prober.
struct State {
    opts: ServeOptions,
    started: Instant,
    tables: Arc<TableCache>,
    /// Whole compiles keyed by `(graph hash, config hash)`, each with
    /// its rendered reply tail.
    artifacts: SingleFlightCache<(u64, u64), Artifact>,
    /// Registry graphs by name hash, at most [`REGISTRY_MEMO`] of them.
    registry: SingleFlightCache<u64, MemoGraph>,
    /// Inline graphs by text hash, within [`GRAPH_MEMO_BYTES`].
    graph_memo: SingleFlightCache<u64, MemoGraph>,
    /// The last inline-text hash seen in each slot (see
    /// [`GRAPH_SIGHTINGS`]), boxed so `State` itself stays 8 KiB smaller.
    sightings: Box<[AtomicU64; GRAPH_SIGHTINGS]>,
    probe: Option<StageProbe>,
    metrics: SharedStageMetrics,
    hist: StageHistograms,
    gate: Gate,
    /// The persistent artifact tier, present when `cache_dir` is set.
    store: Option<ArtifactStore>,
    /// Hand-offs to the persister thread, present with `store`.
    persist: Option<mpsc::SyncSender<Persist>>,
    /// Held shared by an [`Owed`] save from before its reply is written
    /// until the save is handed off, and taken exclusively by `stats`
    /// before it flushes, so the barrier also covers saves whose reply is
    /// already out.
    handoff: RwLock<()>,
    /// The fleet, present when `peers` is non-empty.
    fleet: Option<Fleet>,
    requests: AtomicU64,
    compiles: AtomicU64,
    errors: AtomicU64,
    sheds: AtomicU64,
    deadline_hits: AtomicU64,
    replies: AtomicU64,
    artifacts_loaded: AtomicU64,
    artifacts_persisted: AtomicU64,
    load_rejected: AtomicU64,
    tables_loaded: AtomicU64,
    tables_persisted: AtomicU64,
    peer_forwards: AtomicU64,
    peer_failovers: AtomicU64,
    peer_handoffs: AtomicU64,
    peer_handoffs_received: AtomicU64,
    /// Forward attempts counted only to drive the `peer_flap_every`
    /// fault; not surfaced in stats.
    forward_attempts: AtomicU64,
    shutdown: AtomicBool,
    /// What the prober sleeps on between rounds; `shutdown` notifies it.
    prober_sleep: (Mutex<()>, Condvar),
    /// Where `run_tcp` is listening (an unspecified IP mapped to
    /// loopback), so `shutdown` can wake its blocking `accept`.
    listen_addr: Mutex<Option<SocketAddr>>,
    log: OnceLock<Mutex<Box<dyn Write + Send>>>,
}

impl State {
    /// Emit one JSON event line to the log sink, if one is installed.
    /// `fields` runs only then, so an unlogged server builds nothing.
    fn log_event(&self, event: &str, fields: impl FnOnce() -> Vec<(&'static str, Value)>) {
        let Some(sink) = self.log.get() else { return };
        let mut map = vec![("event".to_string(), Value::Str(event.to_string()))];
        map.extend(fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        let mut w = sink.lock().expect("log sink poisoned");
        let _ = writeln!(w, "{}", crate::json::write(&Value::Map(map)));
        let _ = w.flush();
    }

    /// Handle one request line end to end, compiling a miss on this
    /// thread. Returns the [`Answer`] for the caller to deliver.
    fn handle_line(&self, line: &str) -> Answer<'_> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let req = match Request::from_line(line) {
            Ok(req) => req,
            Err(error) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return encode(&ErrorReply::protocol("?", None, error)).into();
            }
        };
        match req.op.as_str() {
            "ping" => encode(&PongReply {
                ok: true,
                op: "ping".to_string(),
                id: req.id,
                uptime_sec: self.started.elapsed().as_secs_f64(),
                queue_depth: self.gate.lock().waiting.len() as u64,
            })
            .into(),
            "stats" => encode(&self.stats_reply(req.id)).into(),
            "shutdown" => {
                self.begin_shutdown();
                self.log_event("shutdown", Vec::new);
                Answer {
                    quit: true,
                    ..Answer::from(encode(&ShutdownReply {
                        ok: true,
                        op: "shutdown".to_string(),
                        id: req.id,
                    }))
                }
            }
            "compile" => self.fleet_compile(req),
            "peers" => self.peers_reply(&req).into(),
            "artifact_put" => self.artifact_put(&req).into(),
            "artifact_get" => self.artifact_get(&req).into(),
            other => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let error = format!(
                    "unknown op \"{other}\" (expected compile, stats, ping, peers, \
                     artifact_put, artifact_get or shutdown)"
                );
                encode(&ErrorReply::protocol(other, req.id, error)).into()
            }
        }
    }

    /// Raise the shutdown flag, close the gate (misses already in line
    /// still compile), and wake every thread that sleeps until shutdown:
    /// the prober, and a `run_tcp` blocked in `accept` — by connecting to
    /// the listener's own address, a no-op when no TCP front-end runs.
    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.gate.lock().closed = true;
        // Pass through the lock before notifying, so a prober between
        // its flag check and its wait cannot miss the wake-up.
        let (lock, cvar) = &self.prober_sleep;
        drop(lock.lock().unwrap_or_else(PoisonError::into_inner));
        cvar.notify_all();
        let addr = *self.listen_addr.lock().expect("listen address poisoned");
        if let Some(addr) = addr {
            let _ = TcpStream::connect_timeout(&addr, Duration::from_secs(1));
        }
    }

    /// How long a shed client should wait before retrying: the current
    /// backlog's estimated drain time at the observed median **accepted**
    /// compile latency (with a coarse floor before any compile has been
    /// accepted). The total histogram would be wrong here: it includes
    /// cache hits, so under warm-hit-heavy traffic its p50 collapses to
    /// microseconds and shed clients would be told to retry immediately,
    /// defeating the backoff.
    fn retry_after_hint(&self) -> u64 {
        let p50 = self.hist.accepted.snapshot().p50_sec;
        let per_compile = if p50 > 0.0 { p50 } else { 0.05 };
        let backlog = self.gate.lock().waiting.len().max(1) as f64;
        let workers = self.opts.workers.max(1) as f64;
        ((backlog / workers) * per_compile * 1000.0)
            .ceil()
            .max(10.0) as u64
    }

    /// Admit a resolved miss through the gate and compile it on this
    /// thread under its permit. Every permit held and the line full ⇒ an
    /// `overloaded` shed; a deadline that passes in line ⇒ a `deadline`
    /// reply at that deadline. A panicking compile is answered as an
    /// `internal` error. A fresh result's save is owed, and takes the
    /// `stats` barrier before the permit goes back, so joining the server
    /// after [`Gate::drain`] also waits for its hand-off.
    fn admit_compile(&self, req: &Request, resolved: &Resolved) -> Answer<'_> {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let admitted = Instant::now();
        let deadline = req
            .deadline_ms
            .map(|ms| admitted + Duration::from_millis(ms));
        let entered = self.gate.enter(deadline);
        // A miss that got a permit or gave up waiting for one is timed; a
        // refused one never waited.
        if matches!(entered, Ok(_) | Err(Refusal::Expired)) {
            self.hist
                .queue_wait
                .record(admitted.elapsed().as_secs_f64());
        }
        let permit = match entered {
            Ok(permit) => permit,
            Err(refusal) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                let reply = match refusal {
                    Refusal::Full => {
                        self.sheds.fetch_add(1, Ordering::Relaxed);
                        let hint = self.retry_after_hint();
                        self.log_event("shed", || vec![("retry_after_ms", Value::U64(hint))]);
                        ErrorReply::overloaded("compile", req.id, hint)
                    }
                    Refusal::Closed => ErrorReply::shutting_down("compile", req.id),
                    Refusal::Expired => {
                        self.deadline_hits.fetch_add(1, Ordering::Relaxed);
                        let error = "deadline expired in the admission queue".to_string();
                        ErrorReply::deadline("compile", req.id, error)
                    }
                };
                return encode(&reply).into();
            }
        };
        let run = std::panic::AssertUnwindSafe(|| self.compile_line(req, resolved, deadline));
        let (line, save) = std::panic::catch_unwind(run).unwrap_or_else(|_| {
            self.errors.fetch_add(1, Ordering::Relaxed);
            let error = "compile panicked".to_string();
            (
                encode(&ErrorReply::internal("compile", req.id, error)),
                None,
            )
        });
        let owed = save.map(|save| {
            let barrier = self.handoff.read();
            (save, barrier.unwrap_or_else(PoisonError::into_inner))
        });
        drop(permit);
        Answer {
            line,
            quit: false,
            owed,
        }
    }

    /// The single compile entry, on the thread that read the request. In
    /// order: refuse an expired deadline or a draining server; resolve
    /// once (errors answer here); answer a published key inline, owner or
    /// not. Only a miss is routed: forwarded to its owner, or admitted
    /// locally (no fleet, local ownership, a forwarded hop, or failover).
    ///
    /// Failover policy, in order: an **ejected** owner is not dialed at
    /// all; a **down** owner (dial/read failure, forward deadline,
    /// draining for shutdown) is
    /// recorded against its health and failed over; a **shedding** owner
    /// gets one courtesy retry after its `retry_after_ms` hint, then
    /// fails over (it is alive — its health is *not* dinged). Every
    /// failover computes locally, answers the client, and owes the owner
    /// a copy of the artifact ([`State::handoff`]).
    fn fleet_compile(&self, req: Request) -> Answer<'_> {
        let t0 = Instant::now();
        let deadline = req.deadline_ms.map(|ms| t0 + Duration::from_millis(ms));
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.deadline_hits.fetch_add(1, Ordering::Relaxed);
            let error = "deadline expired before admission".to_string();
            return self
                .refuse(ErrorReply::deadline("compile", req.id, error))
                .into();
        }
        if self.shutdown.load(Ordering::SeqCst) {
            return self
                .refuse(ErrorReply::shutting_down("compile", req.id))
                .into();
        }
        // A panic is contained here, as a compile's is, not left to end
        // the connection (or, under `run_stdio`, the process).
        let run = std::panic::AssertUnwindSafe(|| self.resolve_or_answer(&req, t0));
        let resolved = match std::panic::catch_unwind(run) {
            Ok(ControlFlow::Continue(resolved)) => resolved,
            Ok(ControlFlow::Break(reply)) => return reply.into(),
            Err(_) => {
                let error = "compile panicked before admission".to_string();
                return self
                    .refuse(ErrorReply::internal("compile", req.id, error))
                    .into();
            }
        };
        let key = resolved.key;
        let fleet = match &self.fleet {
            Some(fleet) if !req.forwarded => fleet,
            // One hop max: a forwarded compile is computed here, always.
            _ => return self.admit_compile(&req, &resolved),
        };
        let Owner::Peer(owner) = fleet.ring.owner_of(key) else {
            return self.admit_compile(&req, &resolved);
        };
        if fleet.table.is_forwardable(&owner) {
            let mut fwd = req.clone();
            fwd.forwarded = true;
            let line = fwd.to_line();
            let mut outcome = self.forward_once(fleet, &owner, &line, deadline);
            if let Forwarded::Shed(hint) = outcome {
                // The owner is alive but saturated: honor its hint once,
                // clipped to the deadline, then stop camping on it.
                fleet.table.record_success(&owner);
                let mut wait = Duration::from_millis(hint.clamp(1, 1_000));
                if let Some(d) = deadline {
                    wait = wait.min(d.saturating_duration_since(Instant::now()));
                }
                std::thread::sleep(wait);
                outcome = self.forward_once(fleet, &owner, &line, deadline);
            }
            match outcome {
                Forwarded::Line(reply) => {
                    fleet.table.record_success(&owner);
                    self.peer_forwards.fetch_add(1, Ordering::Relaxed);
                    return reply.into();
                }
                Forwarded::Shed(_) => {
                    // Still shedding after the courtesy wait; the peer is
                    // healthy, we just stop waiting for it.
                    fleet.table.record_success(&owner);
                }
                Forwarded::Down(error) => {
                    fleet.table.record_failure(&owner);
                    self.log_event("peer_down", || {
                        vec![
                            ("peer", Value::Str(owner.clone())),
                            ("error", Value::Str(error)),
                        ]
                    });
                }
            }
        }
        self.peer_failovers.fetch_add(1, Ordering::Relaxed);
        let Answer { line, owed, .. } = self.admit_compile(&req, &resolved);
        // The peer handoff below waits on the network, so the save is
        // handed off first, without holding the `stats` barrier across it.
        if let Some((save, _barrier)) = owed {
            self.hand_off(save);
        }
        self.handoff(key, &owner);
        line.into()
    }

    /// Resolve a compile and answer it here when it needs no permit: a
    /// malformed request gets its error reply, a published key its cached
    /// reply. `Continue` carries a miss on to be routed.
    fn resolve_or_answer(&self, req: &Request, t0: Instant) -> ControlFlow<String, Resolved> {
        let resolved = match self.resolve(req) {
            Ok(resolved) => resolved,
            Err(reply) => {
                self.log_compile(req, t0, false, Some(&reply.error));
                return ControlFlow::Break(self.refuse(*reply));
            }
        };
        let Some(outcome) = self.artifacts.get(resolved.key) else {
            return ControlFlow::Continue(resolved);
        };
        // Timed from here, as a miss is timed from its permit.
        let (reply, _) = self.compile_reply(req, &resolved, Instant::now(), outcome, true);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Break(reply)
    }

    /// Count and render a compile refused before admission.
    fn refuse(&self, reply: ErrorReply) -> String {
        self.compiles.fetch_add(1, Ordering::Relaxed);
        self.errors.fetch_add(1, Ordering::Relaxed);
        encode(&reply)
    }

    /// One forward attempt against `addr` on a pooled connection: send,
    /// classify the reply. Injected peer faults fire before any real I/O.
    fn forward_once(
        &self,
        fleet: &Fleet,
        addr: &str,
        line: &str,
        deadline: Option<Instant>,
    ) -> Forwarded {
        if let Some(ms) = self.opts.faults.peer_slow_ms {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if let Some(every) = self.opts.faults.peer_flap_every {
            let nth = self.forward_attempts.fetch_add(1, Ordering::Relaxed) + 1;
            if nth.is_multiple_of(every) {
                return Forwarded::Down(format!("injected fault: peer link flapped ({nth})"));
            }
        }
        if let Some(error) = self.injected_peer_fault(addr) {
            return Forwarded::Down(error);
        }
        let mut timeout = Duration::from_millis(self.opts.forward_timeout_ms.max(1));
        if let Some(d) = deadline {
            let left = d.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Forwarded::Down("forward window exhausted by the deadline".to_string());
            }
            timeout = timeout.min(left);
        }
        let text = match fleet.round_trip(addr, line, timeout) {
            Ok(text) if text.starts_with(SUCCESS_PREFIX) => return Forwarded::Line(text),
            Ok(text) => text,
            Err(e) => return Forwarded::Down(e.to_string()),
        };
        // An error reply: `round_trip` already decoded it once, so it is
        // protocol; error lines are short, so decoding again costs little.
        match decode_peer_reply(&text) {
            Err(e) => Forwarded::Down(e.to_string()),
            Ok(Reply::Error(e)) if e.code.as_deref() == Some("overloaded") => {
                Forwarded::Shed(e.retry_after_ms.unwrap_or(25))
            }
            // A draining peer still answers the wire but admits
            // nothing; treat it as down so the compile fails over
            // instead of bouncing the drain error to the client.
            Ok(reply) if error_code(&reply) == Some("shutting_down") => {
                Forwarded::Down("peer is draining for shutdown".to_string())
            }
            Ok(_) => Forwarded::Line(text),
        }
    }

    /// The `MPS_FAULT_PEER_DOWN` substring fault, applied to forwards,
    /// probes and handoff pushes alike (it simulates a partition, and a
    /// partition does not care why you dialed).
    fn injected_peer_fault(&self, addr: &str) -> Option<String> {
        let sub = self.opts.faults.peer_down.as_deref()?;
        addr.contains(sub)
            .then(|| format!("injected fault: peer {addr} is down"))
    }

    /// Hinted handoff: after locally computing a key owned by `owner`,
    /// push the finished artifact to it — immediately if it looks
    /// usable, else parked until the prober sees it healthy. Failed
    /// compiles are never replicated.
    fn handoff(&self, key: (u64, u64), owner: &str) {
        let Some(fleet) = &self.fleet else { return };
        let Some(entry) = self.artifacts.peek(key) else {
            return;
        };
        let artifact = mps::artifact::encode_result(key, &entry.result);
        if fleet.table.is_forwardable(owner) && self.push_artifact(fleet, owner, &artifact) {
            self.peer_handoffs.fetch_add(1, Ordering::Relaxed);
        } else {
            self.park_handoff(owner, artifact);
        }
    }

    /// One `artifact_put` push to `addr`; `true` on an acknowledged put.
    fn push_artifact(&self, fleet: &Fleet, addr: &str, artifact: &str) -> bool {
        if self.injected_peer_fault(addr).is_some() {
            return false;
        }
        let timeout = Duration::from_millis(self.opts.forward_timeout_ms.max(1));
        let req = Request {
            op: "artifact_put".to_string(),
            artifact: Some(artifact.to_string()),
            ..Request::default()
        };
        let reply = fleet.round_trip(addr, &req.to_line(), timeout);
        matches!(
            reply.and_then(|text| decode_peer_reply(&text)),
            Ok(Reply::ArtifactPut(_))
        )
    }

    /// Park an artifact push for later (bounded; oldest dropped first —
    /// handoff is an optimization, the owner can always recompute).
    fn park_handoff(&self, owner: &str, artifact: String) {
        let Some(fleet) = &self.fleet else { return };
        let mut pending = fleet.pending.lock().expect("handoff buffer poisoned");
        if pending.len() >= PENDING_HANDOFFS_MAX {
            pending.remove(0);
            self.log_event("handoff_dropped", || {
                vec![("peer", Value::Str(owner.to_string()))]
            });
        }
        pending.push((owner.to_string(), artifact));
    }

    /// Push every parked handoff owed to `addr` (called by the prober
    /// right after a successful probe); failures re-park.
    fn flush_handoffs(&self, addr: &str) {
        let Some(fleet) = &self.fleet else { return };
        let owed: Vec<String> = {
            let mut pending = fleet.pending.lock().expect("handoff buffer poisoned");
            let mut owed = Vec::new();
            pending.retain(|(owner, artifact)| {
                if owner == addr {
                    owed.push(artifact.clone());
                    false
                } else {
                    true
                }
            });
            owed
        };
        for artifact in owed {
            if self.push_artifact(fleet, addr, &artifact) {
                self.peer_handoffs.fetch_add(1, Ordering::Relaxed);
            } else {
                self.park_handoff(addr, artifact);
            }
        }
    }

    /// One probe round: ping every peer the health table says is due,
    /// feed the results back, and flush parked handoffs to peers seen
    /// alive.
    fn probe_peers(&self) {
        let Some(fleet) = &self.fleet else { return };
        for addr in fleet.table.due_for_probe(Instant::now()) {
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            match self.ping_peer(fleet, &addr) {
                Ok(()) => {
                    let revived = fleet.table.state_of(&addr) == Some(PeerState::Ejected);
                    fleet.table.record_success(&addr);
                    if revived {
                        self.log_event("peer_revived", || vec![("peer", Value::Str(addr.clone()))]);
                    }
                    self.flush_handoffs(&addr);
                }
                Err(error) => {
                    let was_ejected = fleet.table.state_of(&addr) == Some(PeerState::Ejected);
                    fleet.table.record_failure(&addr);
                    let now_ejected = fleet.table.state_of(&addr) == Some(PeerState::Ejected);
                    if now_ejected && !was_ejected {
                        self.log_event("peer_ejected", || {
                            vec![
                                ("peer", Value::Str(addr.clone())),
                                ("error", Value::Str(error)),
                            ]
                        });
                    }
                }
            }
        }
    }

    /// One health probe: `ping` on a pooled connection, bounded well
    /// under the probe interval so a dead peer cannot stall the round.
    fn ping_peer(&self, fleet: &Fleet, addr: &str) -> Result<(), String> {
        if let Some(error) = self.injected_peer_fault(addr) {
            return Err(error);
        }
        let timeout = Duration::from_millis(self.opts.forward_timeout_ms.max(1))
            .min(Duration::from_millis(500));
        let text = fleet
            .round_trip(addr, &Request::op("ping").to_line(), timeout)
            .map_err(|e| e.to_string())?;
        match decode_peer_reply(&text) {
            Ok(Reply::Pong(_)) => Ok(()),
            Ok(_) => Err(format!("unexpected probe reply: {text}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// The `peers` verb: fleet membership and health, plus — when the
    /// request carries compile-shaped fields — which member owns that
    /// key (how the CI smoke test finds the daemon to kill).
    fn peers_reply(&self, req: &Request) -> String {
        let (advertise, peers) = match &self.fleet {
            Some(fleet) => (fleet.ring.advertise().to_string(), peer_infos(&fleet.table)),
            None => (String::new(), Vec::new()),
        };
        let mut owner = None;
        let mut graph_hash = None;
        let mut config_hash = None;
        if req.workload.is_some() || req.graph.is_some() {
            // Resolve panics are contained here too: no owner is reported.
            let run = std::panic::AssertUnwindSafe(|| self.resolve(req));
            if let Ok(Ok(Resolved { key, .. })) = std::panic::catch_unwind(run) {
                graph_hash = Some(format!("{:016x}", key.0));
                config_hash = Some(format!("{:016x}", key.1));
                owner = Some(match &self.fleet {
                    Some(fleet) => match fleet.ring.owner_of(key) {
                        Owner::Local => fleet.ring.advertise().to_string(),
                        Owner::Peer(addr) => addr,
                    },
                    None => "local".to_string(),
                });
            }
        }
        encode(&PeersReply {
            ok: true,
            op: "peers".to_string(),
            id: req.id,
            advertise,
            peers,
            owner,
            graph_hash,
            config_hash,
        })
    }

    /// The `artifact_put` verb: verify the pushed envelope and seed it
    /// into the caches — the receiving half of hinted handoff.
    fn artifact_put(&self, req: &Request) -> String {
        let Some(text) = &req.artifact else {
            self.errors.fetch_add(1, Ordering::Relaxed);
            return encode(&ErrorReply::protocol(
                "artifact_put",
                req.id,
                "artifact_put needs an \"artifact\" envelope line".to_string(),
            ));
        };
        match mps::artifact::decode_result(text, None) {
            Ok((key, result)) => {
                let entry = Arc::new(Artifact::new(result));
                let stored = self.artifacts.seed(key, Ok(Arc::clone(&entry)));
                if stored {
                    self.peer_handoffs_received.fetch_add(1, Ordering::Relaxed);
                    // A handed-off artifact is as durable as a local one.
                    self.hand_off(Save::Result(key, entry));
                }
                encode(&ArtifactPutReply {
                    ok: true,
                    op: "artifact_put".to_string(),
                    id: req.id,
                    stored,
                })
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                encode(&ErrorReply::protocol(
                    "artifact_put",
                    req.id,
                    format!("rejected artifact: {e}"),
                ))
            }
        }
    }

    /// The `artifact_get` verb: return the artifact envelope for a key
    /// if this daemon holds a successful result for it.
    fn artifact_get(&self, req: &Request) -> String {
        let key = match (
            req.graph_hash
                .as_deref()
                .map(|h| u64::from_str_radix(h, 16)),
            req.config_hash
                .as_deref()
                .map(|h| u64::from_str_radix(h, 16)),
        ) {
            (Some(Ok(g)), Some(Ok(c))) => (g, c),
            _ => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return encode(&ErrorReply::protocol(
                    "artifact_get",
                    req.id,
                    "artifact_get needs hex \"graph_hash\" and \"config_hash\"".to_string(),
                ));
            }
        };
        let artifact = self
            .artifacts
            .peek(key)
            .map(|entry| mps::artifact::encode_result(key, &entry.result));
        encode(&ArtifactGetReply {
            ok: true,
            op: "artifact_get".to_string(),
            id: req.id,
            found: artifact.is_some(),
            artifact,
        })
    }

    /// Run one admitted compile under its permit and render its reply,
    /// plus the save a fresh result owes the disk tier.
    fn compile_line(
        &self,
        req: &Request,
        resolved: &Resolved,
        deadline: Option<Instant>,
    ) -> (String, Option<Save>) {
        let t0 = Instant::now();
        let key = resolved.key;
        let cancel = deadline.map(CancelToken::deadline_at);
        let fetched = self.artifacts.get_or_compute(key, cancel.as_ref(), || {
            // Only a miss needs the graph by value; a hit clones nothing.
            let mut session = Session::with_shared_tables(
                mps::dfg::Dfg::clone(&resolved.dfg),
                resolved.cfg.clone(),
                Arc::clone(&self.tables),
            );
            if let Some(token) = &cancel {
                session.set_cancel_token(token.clone());
            }
            if let Some(probe) = &self.probe {
                session.set_stage_probe(probe.clone());
            }
            let result = session.compile();
            self.metrics.record(session.metrics());
            if let Ok(result) = &result {
                self.hist.record_stages(&result.metrics);
            }
            result.map(|result| Arc::new(Artifact::new(result)))
        });
        let (outcome, cached) = match fetched {
            Ok(pair) => pair,
            Err(_) => {
                self.deadline_hits.fetch_add(1, Ordering::Relaxed);
                self.errors.fetch_add(1, Ordering::Relaxed);
                let error = "deadline exceeded waiting on an identical in-flight compile";
                self.log_compile(req, t0, false, Some(error));
                let reply = encode(&ErrorReply::deadline("compile", req.id, error.to_string()));
                return (reply, None);
            }
        };
        self.compile_reply(req, resolved, t0, outcome, cached)
    }

    /// Render a compile's reply from its outcome and record its latency
    /// since `t0` (a miss's permit, or an inline hit's lookup; resolve
    /// and the wait for a permit are not part of it), plus the save a fresh result
    /// owes the disk. A success is this request's head spliced onto the
    /// artifact's reply tail, which only the first reply renders.
    fn compile_reply(
        &self,
        req: &Request,
        resolved: &Resolved,
        t0: Instant,
        outcome: Result<Arc<Artifact>, mps::MpsError>,
        cached: bool,
    ) -> (String, Option<Save>) {
        let latency_sec = t0.elapsed().as_secs_f64();
        self.hist.total.record(latency_sec);
        if !cached {
            self.hist.accepted.record(latency_sec);
        }
        match outcome {
            Ok(entry) => {
                self.log_compile(req, t0, cached, None);
                let head = CompileHead {
                    id: req.id,
                    workload: &resolved.workload,
                    key: resolved.key,
                    engine: resolved.cfg.engine.name(),
                    cached,
                    latency_sec,
                };
                let reply = compile_reply_line(&head, entry.reply_tail());
                (
                    reply,
                    (!cached).then_some(Save::Result(resolved.key, entry)),
                )
            }
            Err(error) => {
                if matches!(error, mps::MpsError::DeadlineExceeded { .. }) {
                    self.deadline_hits.fetch_add(1, Ordering::Relaxed);
                }
                self.errors.fetch_add(1, Ordering::Relaxed);
                self.log_compile(req, t0, cached, Some(&error.to_string()));
                (
                    encode(&ErrorReply::pipeline("compile", req.id, &error)),
                    None,
                )
            }
        }
    }

    /// Resolve a compile request to its graph (registry name or inline
    /// text), config and artifact key, or the error reply a malformed
    /// request gets.
    ///
    /// Both graph sources resolve through a memo, so a repeated request
    /// pays neither the graph build nor its content hash: registry names
    /// through [`registry_graph`](Self::registry_graph), inline texts
    /// through [`inline_graph`](Self::inline_graph). A memo entry is only
    /// served for a byte-identical name or text.
    fn resolve(&self, req: &Request) -> Result<Resolved, Box<ErrorReply>> {
        #[cfg(test)]
        if req.id.is_some() && req.id == self.opts.faults.panic_resolve_id {
            panic!("injected fault: resolve panicked");
        }
        let protocol =
            |error: &str| Box::new(ErrorReply::protocol("compile", req.id, error.into()));
        let (workload, graph) = match (&req.workload, &req.graph) {
            (Some(name), None) => {
                let graph = self
                    .registry_graph(name)
                    .ok_or_else(|| protocol(&format!("unknown workload \"{name}\"")))?;
                (name.clone(), graph)
            }
            (None, Some(text)) => {
                // Parse failures are pipeline errors: they carry the
                // analyze-stage provenance the wire promises.
                let graph = self
                    .inline_graph(text)
                    .map_err(|e| Box::new(ErrorReply::pipeline("compile", req.id, &e.into())))?;
                ("inline".to_string(), graph)
            }
            (Some(_), Some(_)) => Err(protocol(
                "\"workload\" and \"graph\" are mutually exclusive",
            ))?,
            (None, None) => Err(protocol(
                "compile needs a \"workload\" name or \"graph\" text",
            ))?,
        };
        let cfg = req.compile_config().map_err(|e| protocol(&e))?;
        Ok(Resolved {
            workload,
            dfg: Arc::clone(&graph.dfg),
            key: (graph.hash, cfg.content_hash()),
            cfg,
        })
    }

    /// The registry graph `name` names with its content hash, memoised on
    /// first use unless it has more than [`REGISTRY_MEMO_NODES`] nodes;
    /// `None` for an unknown name, which is never memoised.
    fn registry_graph(&self, name: &str) -> Option<Arc<MemoGraph>> {
        let key = crate::ring::fnv1a(name.as_bytes());
        let build = || mps::workloads::by_name(name).ok_or(());
        memoised(&self.registry, key, name, build, |graph| {
            graph.dfg.len() <= REGISTRY_MEMO_NODES
        })
        .ok()
    }

    /// The graph an inline `text` parses to, with its content hash. Only
    /// a successful parse is memoised, and only on the text's second
    /// sighting and within [`GRAPH_MEMO_ENTRY_BYTES`], so a one-off text
    /// or a near-cap graph never evicts the texts a client repeats.
    fn inline_graph(&self, text: &str) -> Result<Arc<MemoGraph>, mps::dfg::ParseError> {
        let key = text_key(text);
        memoised(
            &self.graph_memo,
            key,
            text,
            || mps::dfg::parse_text(text),
            |graph| graph.cost() <= GRAPH_MEMO_ENTRY_BYTES && self.seen_before(key),
        )
    }

    /// Record a sighting of the inline text hashed to `key`, and say
    /// whether its slot already held that hash (the text was seen before,
    /// and no other text has taken the slot since).
    fn seen_before(&self, key: u64) -> bool {
        let slot = &self.sightings[(key % GRAPH_SIGHTINGS as u64) as usize];
        slot.swap(key, Ordering::Relaxed) == key
    }

    fn log_compile(&self, req: &Request, t0: Instant, cached: bool, error: Option<&str>) {
        self.log_event("compile", || {
            let workload = req.workload.clone().unwrap_or_else(|| "inline".to_string());
            vec![
                ("workload", Value::Str(workload)),
                ("cached", Value::Bool(cached)),
                ("ok", Value::Bool(error.is_none())),
                (
                    "error",
                    error.map_or(Value::Unit, |e| Value::Str(e.to_string())),
                ),
                ("latency_sec", Value::F64(t0.elapsed().as_secs_f64())),
            ]
        });
    }

    fn stats_reply(&self, id: Option<u64>) -> StatsReply {
        self.flush_persister();
        let m = self.metrics.snapshot();
        StatsReply {
            ok: true,
            op: "stats".to_string(),
            id,
            uptime_sec: self.started.elapsed().as_secs_f64(),
            requests: self.requests.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            artifact_cache_hits: self.artifacts.hits(),
            artifact_cache_misses: self.artifacts.misses(),
            graph_memo_hits: self.graph_memo.hits(),
            cached_artifacts: self.artifacts.len() as u64,
            cached_tables: self.tables.len() as u64,
            table_builds: m.table_builds as u64,
            table_cache_hits: m.table_cache_hits as u64,
            sheds: self.sheds.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_hits.load(Ordering::Relaxed),
            artifact_evictions: self.artifacts.evictions(),
            table_evictions: self.tables.evictions(),
            queue_depth: self.gate.lock().waiting.len() as u64,
            workers: self.opts.workers as u64,
            queue_capacity: self.gate.capacity as u64,
            totals: MetricsTotals {
                analyze_sec: m.analyze_sec,
                enumerate_sec: m.enumerate_sec,
                select_sec: m.select_sec,
                partition_sec: m.partition_sec,
                schedule_sec: m.schedule_sec,
                map_tile_sec: m.map_tile_sec,
                antichains: m.antichains,
            },
            ring_size: self.opts.ring_size() as u64,
            effective_max_artifacts: self
                .opts
                .effective_budget(self.opts.max_artifacts)
                .map(|n| n as u64),
            effective_artifact_bytes: self
                .opts
                .effective_budget(self.opts.max_artifact_bytes)
                .map(|n| n as u64),
            effective_max_tables: self
                .opts
                .effective_budget(self.opts.max_tables)
                .map(|n| n as u64),
            effective_table_bytes: self
                .opts
                .effective_budget(self.opts.max_table_bytes)
                .map(|n| n as u64),
            artifacts_loaded: self.artifacts_loaded.load(Ordering::Relaxed),
            artifacts_persisted: self.artifacts_persisted.load(Ordering::Relaxed),
            load_rejected: self.load_rejected.load(Ordering::Relaxed),
            tables_persisted: self.tables_persisted.load(Ordering::Relaxed),
            tables_loaded: self.tables_loaded.load(Ordering::Relaxed),
            peer_forwards: self.peer_forwards.load(Ordering::Relaxed),
            peer_dials: self
                .fleet
                .as_ref()
                .map_or(0, |fleet| fleet.dials.load(Ordering::Relaxed)),
            peer_failovers: self.peer_failovers.load(Ordering::Relaxed),
            peer_handoffs: self.peer_handoffs.load(Ordering::Relaxed),
            peer_handoffs_received: self.peer_handoffs_received.load(Ordering::Relaxed),
            peers: self
                .fleet
                .as_ref()
                .map_or_else(Vec::new, |fleet| peer_infos(&fleet.table)),
            latency: LatencyStats {
                total: self.hist.total.snapshot(),
                accepted: self.hist.accepted.snapshot(),
                queue_wait: self.hist.queue_wait.snapshot(),
                persist: self.hist.persist.snapshot(),
                enumerate: self.hist.enumerate.snapshot(),
                select: self.hist.select.snapshot(),
                schedule: self.hist.schedule.snapshot(),
            },
        }
    }

    /// Write `answer`'s line with `write`, then hand its save to the
    /// persister, so the client never waits for the hand-off.
    fn deliver<T>(&self, answer: Answer<'_>, write: impl FnOnce(String) -> T) -> T {
        let written = write(answer.line);
        if let Some((save, _barrier)) = answer.owed {
            self.hand_off(save);
        }
        written
    }

    /// Hand one save to the persister, if a disk tier is configured.
    /// Blocks while the channel is full; never drops the save.
    fn hand_off(&self, save: Save) {
        if let Some(persist) = &self.persist {
            // Gone only once the server is joined; nothing is owed then.
            let _ = persist.send(Persist::Save(save, Instant::now()));
        }
    }

    /// The `stats` barrier: wait for every owed save between its reply
    /// and its hand-off, then until the persister has finished everything
    /// handed to it so far.
    fn flush_persister(&self) {
        let Some(persist) = &self.persist else { return };
        drop(self.handoff.write().unwrap_or_else(PoisonError::into_inner));
        let (done, flushed) = mpsc::sync_channel(1);
        if persist.send(Persist::Flush(done)).is_ok() {
            let _ = flushed.recv();
        }
    }

    /// The persister thread's loop: write each save (temp, fsync,
    /// rename), count it, keep the directory inside its budget from the
    /// store's index, and answer flushes in order, until `Stop`.
    /// Persistence failures are logged and otherwise ignored: serving
    /// must not degrade because the disk is full or read-only.
    fn persist_loop(&self, store: &ArtifactStore, inbox: mpsc::Receiver<Persist>) {
        let max_entries = self.opts.effective_budget(self.opts.max_artifacts);
        let max_bytes = self.opts.effective_budget(self.opts.max_artifact_bytes);
        for message in inbox {
            let (save, handed_off) = match message {
                Persist::Save(save, handed_off) => (save, handed_off),
                Persist::Flush(done) => {
                    let _ = done.send(());
                    continue;
                }
                Persist::Stop => break,
            };
            let (saved, counter) = match &save {
                Save::Result(key, entry) => (
                    store.save_result(*key, &entry.result),
                    &self.artifacts_persisted,
                ),
                Save::Table(graph, key, table) => {
                    (store.save_table(*graph, key, table), &self.tables_persisted)
                }
            };
            match saved {
                Ok(_) => {
                    counter.fetch_add(1, Ordering::Relaxed);
                    self.hist.persist.record(handed_off.elapsed().as_secs_f64());
                    store.enforce_budget_indexed(max_entries, max_bytes);
                }
                Err(e) => {
                    self.log_event("persist_error", || {
                        vec![("error", Value::Str(e.to_string()))]
                    });
                }
            }
        }
    }
}

/// Render the health table for the wire.
fn peer_infos(table: &PeerTable) -> Vec<PeerInfo> {
    table
        .snapshot()
        .into_iter()
        .map(|s| PeerInfo {
            addr: s.addr,
            state: s.state.as_str().to_string(),
            consecutive_failures: u64::from(s.consecutive_failures),
            total_failures: s.total_failures,
            total_successes: s.total_successes,
        })
        .collect()
}

/// A running compile server (caches loaded, front-ends ready).
///
/// Drive it with [`Server::run_tcp`] / [`Server::run_stdio`], or call
/// [`Server::handle_line`] directly for in-process use (tests, benches);
/// each compiles its misses on the calling thread. Dropping the server
/// closes the gate, waits until every permit is back, then stops and
/// joins the persister once every save handed to it is on disk.
pub struct Server {
    state: Arc<State>,
    persister: Option<std::thread::JoinHandle<()>>,
    prober: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Boot a server: allocates the (optionally budgeted) caches and
    /// starts the persister (with a `cache_dir`) and the prober (with
    /// peers). No thread compiles: misses run on the threads that read
    /// them.
    pub fn new(opts: ServeOptions) -> Server {
        // Fleet-aware budgets: the configured budgets describe the whole
        // corpus, but a ring member only owns ~1/ring of the keys — so
        // every cache tier enforces the ring-scaled share.
        let artifacts = SingleFlightCache::new(
            CacheBudget {
                max_entries: opts.effective_budget(opts.max_artifacts),
                max_bytes: opts.effective_budget(opts.max_artifact_bytes),
            },
            Artifact::cost,
        );
        let tables = Arc::new(TableCache::with_budget(
            opts.effective_budget(opts.max_tables),
            opts.effective_budget(opts.max_table_bytes),
        ));
        // Warm-start: open the persistent tier (if configured) and seed
        // every artifact and pattern table that survives verification
        // into the memory caches. An unopenable directory degrades to
        // serving without persistence rather than refusing to boot.
        let mut store = None;
        let mut loaded = 0u64;
        let mut rejected = 0u64;
        let mut tables_seeded = 0u64;
        if let Some(dir) = &opts.cache_dir {
            match ArtifactStore::open(dir) {
                Ok(s) => {
                    let report = s.load_results();
                    rejected = report.rejected as u64;
                    for (key, result) in report.loaded {
                        if artifacts.seed(key, Ok(Arc::new(Artifact::new(result)))) {
                            loaded += 1;
                        }
                    }
                    let report = s.load_tables();
                    rejected += report.rejected as u64;
                    for (graph, key, table) in report.loaded {
                        if tables.seed(graph, key, Arc::new(table)) {
                            tables_seeded += 1;
                        }
                    }
                    store = Some(s);
                }
                Err(e) => {
                    eprintln!(
                        "mps-serve: cache dir {} unusable ({e}); persistence disabled",
                        dir.display()
                    );
                }
            }
        }
        // Every save goes through one persister thread. The table tier
        // persists as it grows: every fresh table build is handed off
        // too, so the *next* boot skips it even for configs whose
        // whole-compile artifact was never cached.
        let (persist, inbox) = match &store {
            Some(_) => {
                let (persist, inbox) = mpsc::sync_channel(PERSIST_CHANNEL);
                let hook_persist = persist.clone();
                tables.set_build_hook(Arc::new(move |graph, key, table| {
                    let save = Save::Table(graph, key, Arc::clone(table));
                    let _ = hook_persist.send(Persist::Save(save, Instant::now()));
                }));
                (Some(persist), Some(inbox))
            }
            None => (None, None),
        };
        let fleet = (!opts.peers.is_empty()).then(|| {
            let jitter = SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map_or(0x9e37_79b9, |d| u64::from(d.subsec_nanos()) ^ d.as_secs());
            Fleet {
                ring: PeerRing::new(&opts.advertise, &opts.peers),
                table: PeerTable::new(&opts.peers, jitter),
                pending: Mutex::new(Vec::new()),
                idle: Mutex::new(HashMap::new()),
                dials: AtomicU64::new(0),
            }
        });
        let state = Arc::new(State {
            started: Instant::now(),
            tables,
            artifacts,
            registry: SingleFlightCache::new(
                CacheBudget {
                    max_entries: Some(REGISTRY_MEMO),
                    max_bytes: None,
                },
                MemoGraph::cost,
            ),
            graph_memo: SingleFlightCache::new(
                CacheBudget {
                    max_entries: None,
                    max_bytes: Some(GRAPH_MEMO_BYTES),
                },
                MemoGraph::cost,
            ),
            sightings: Box::new(std::array::from_fn(|_| AtomicU64::new(0))),
            fleet,
            probe: opts.faults.stage_probe(),
            metrics: SharedStageMetrics::new(),
            hist: StageHistograms::default(),
            gate: Gate::new(opts.workers, opts.queue),
            store,
            persist,
            handoff: RwLock::new(()),
            requests: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            sheds: AtomicU64::new(0),
            deadline_hits: AtomicU64::new(0),
            replies: AtomicU64::new(0),
            artifacts_loaded: AtomicU64::new(loaded),
            artifacts_persisted: AtomicU64::new(0),
            load_rejected: AtomicU64::new(rejected),
            tables_loaded: AtomicU64::new(tables_seeded),
            tables_persisted: AtomicU64::new(0),
            peer_forwards: AtomicU64::new(0),
            peer_failovers: AtomicU64::new(0),
            peer_handoffs: AtomicU64::new(0),
            peer_handoffs_received: AtomicU64::new(0),
            forward_attempts: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            prober_sleep: (Mutex::new(()), Condvar::new()),
            listen_addr: Mutex::new(None),
            log: OnceLock::new(),
            opts,
        });
        let persister = inbox.map(|inbox| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let store = state.store.as_ref().expect("a persister implies a store");
                state.persist_loop(store, inbox);
            })
        });
        // The prober keeps peer health honest while traffic is idle and
        // flushes parked handoffs the moment a dead peer comes back.
        let prober = state.fleet.is_some().then(|| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || {
                let interval = Duration::from_millis(state.opts.probe_interval_ms.max(20));
                let (lock, cvar) = &state.prober_sleep;
                let running = || !state.shutdown.load(Ordering::SeqCst);
                while running() {
                    state.probe_peers();
                    let asleep = lock.lock().unwrap_or_else(PoisonError::into_inner);
                    let _ = cvar.wait_timeout_while(asleep, interval, |_| running());
                }
            })
        });
        Server {
            state,
            persister,
            prober,
        }
    }

    /// Install a JSON-lines event log sink (`boot`, `compile`, `shed`,
    /// `shutdown` events; one object per line). Logs the `boot` event
    /// immediately.
    pub fn set_log(&self, sink: Box<dyn Write + Send>) {
        let log = self
            .state
            .log
            .get_or_init(|| Mutex::new(Box::new(io::sink())));
        *log.lock().expect("log sink poisoned") = sink;
        let workers = self.state.opts.workers as u64;
        self.state
            .log_event("boot", || vec![("workers", Value::U64(workers))]);
    }

    /// Handle one request line on this thread, returning the reply line
    /// (no trailing newline) and whether the request initiated shutdown.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        let answer = self.state.handle_line(line);
        let quit = answer.quit;
        (self.state.deliver(answer, |line| line), quit)
    }

    /// `true` once a `shutdown` request has been accepted.
    pub fn is_shut_down(&self) -> bool {
        self.state.shutdown.load(Ordering::SeqCst)
    }

    /// A current stats snapshot (same data as the `stats` verb).
    pub fn stats(&self) -> StatsReply {
        self.state.stats_reply(None)
    }

    /// Serve newline-delimited requests from `input` to `output` until
    /// EOF or a `shutdown` request.
    pub fn run_stdio(&self, input: &mut dyn BufRead, output: &mut dyn Write) -> io::Result<()> {
        for line in input.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let answer = self.state.handle_line(&line);
            let quit = answer.quit;
            let write = |reply| writeln!(output, "{reply}").and_then(|()| output.flush());
            self.state.deliver(answer, write)?;
            if quit {
                break;
            }
        }
        Ok(())
    }

    /// Serve TCP connections on `listener` (thread per connection, at
    /// most `max_conns` at once) until a `shutdown` request arrives on
    /// any of them, or in process through [`Server::handle_line`].
    ///
    /// The loop blocks in `accept`; `shutdown` wakes it by connecting to
    /// the listener's own address, recorded here before the first accept.
    pub fn run_tcp(&self, listener: TcpListener) -> io::Result<()> {
        let mut addr = listener.local_addr()?;
        match addr.ip() {
            IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
            IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
            _ => {}
        }
        let listening = &self.state.listen_addr;
        *listening.lock().expect("listen address poisoned") = Some(addr);
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // The flag is checked after the address is recorded, so a
        // shutdown either sees the address and wakes `accept`, or lands
        // before this check and is seen here.
        let result = loop {
            if self.state.shutdown.load(Ordering::SeqCst) {
                break Ok(());
            }
            let stream = match listener.accept() {
                Ok((stream, _addr)) => stream,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => break Err(e),
            };
            if self.state.shutdown.load(Ordering::SeqCst) {
                break Ok(()); // the shutdown wake-up, or a client too late
            }
            // Reap finished connection threads so long-lived servers
            // don't accumulate handles, and so the connection gate counts
            // only live connections.
            conns.retain(|h| !h.is_finished());
            // Reply lines are small; avoid the Nagle/delayed-ACK stall on
            // the server side of each round trip too.
            let _ = stream.set_nodelay(true);
            if conns.len() >= self.state.opts.max_conns {
                self.state.sheds.fetch_add(1, Ordering::Relaxed);
                let hint = self.state.retry_after_hint();
                let mut stream = stream;
                let _ = writeln!(
                    stream,
                    "{}",
                    encode(&ErrorReply::overloaded("?", None, hint))
                );
                continue; // dropped: over the connection cap
            }
            let state = Arc::clone(&self.state);
            conns.push(std::thread::spawn(move || serve_conn(&state, stream)));
        };
        *listening.lock().expect("listen address poisoned") = None;
        result?;
        for conn in conns {
            let _ = conn.join();
        }
        Ok(())
    }

    /// Shut down: close the gate, wait until every admitted compile has
    /// returned its permit and handed off its save, then let the
    /// persister finish every save and join it. Implied by drop; explicit
    /// for error visibility.
    pub fn finish(mut self) {
        self.shutdown_and_join();
    }

    fn shutdown_and_join(&mut self) {
        self.state.begin_shutdown();
        self.state.gate.drain();
        // A compile takes the barrier before it returns its permit, so
        // this waits for every save still between its reply and its
        // hand-off.
        drop(
            self.state
                .handoff
                .write()
                .unwrap_or_else(PoisonError::into_inner),
        );
        // The table hook keeps a sender alive, so the persister stops on
        // a message, not on a closed channel.
        if let Some(handle) = self.persister.take() {
            if let Some(persist) = &self.state.persist {
                let _ = persist.send(Persist::Stop);
            }
            let _ = handle.join();
        }
        if let Some(handle) = self.prober.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// Line-buffer capacity a connection keeps between requests.
const LINE_BUF_KEEP: usize = 64 * 1024;

/// Empty a connection's line buffer for the next request, dropping its
/// allocation instead when a large line grew it past [`LINE_BUF_KEEP`],
/// so an idle connection never pins a near-cap buffer.
fn reset_line(buf: &mut String) {
    if buf.capacity() > LINE_BUF_KEEP {
        *buf = String::new();
    } else {
        buf.clear();
    }
}

/// One TCP connection: read request lines (with a poll timeout so the
/// thread notices server shutdown while idle), answer each on the same
/// stream. Hygiene: lines over `max_line_bytes` and clients stalled
/// mid-line for longer than `read_timeout_ms` get the connection
/// closed (the former with a protocol error first).
fn serve_conn(state: &State, stream: TcpStream) {
    let stall = Duration::from_millis(state.opts.read_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    // A reply that owes a save holds the `stats` barrier while it is
    // written, so a client that stops reading cannot hold it for longer.
    let _ = stream.set_write_timeout(Some(stall));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut writer = io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = String::new();
    let max_line = state.opts.max_line_bytes.max(1);
    let mut line_started: Option<Instant> = None;
    let overlong = |writer: &mut io::BufWriter<TcpStream>| {
        state.errors.fetch_add(1, Ordering::Relaxed);
        let reply = encode(&ErrorReply::protocol(
            "?",
            None,
            format!("request line exceeds {max_line} bytes"),
        ));
        let _ = writeln!(writer, "{reply}");
        let _ = writer.flush();
    };
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => break, // client hung up
            Ok(_) => {
                line_started = None;
                if buf.len() > max_line {
                    overlong(&mut writer);
                    break;
                }
                let line = buf.trim_end();
                if line.is_empty() {
                    reset_line(&mut buf);
                    continue;
                }
                if let Some(ms) = state.opts.faults.slow_read_ms {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                let answer = state.handle_line(line);
                let quit = answer.quit;
                reset_line(&mut buf);
                let written = state.deliver(answer, |reply| {
                    if let Some(every) = state.opts.faults.drop_reply_every {
                        let nth = state.replies.fetch_add(1, Ordering::Relaxed) + 1;
                        if nth.is_multiple_of(every) {
                            // Chaos: cut the connection mid-reply.
                            let _ = writer.write_all(&reply.as_bytes()[..reply.len() / 2]);
                            let _ = writer.flush();
                            return false;
                        }
                    }
                    writeln!(writer, "{reply}")
                        .and_then(|()| writer.flush())
                        .is_ok()
                });
                if !written || quit {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // Idle poll tick: partial data (if any) stays in `buf`.
                if state.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if buf.is_empty() {
                    line_started = None;
                } else {
                    if buf.len() > max_line {
                        overlong(&mut writer);
                        break;
                    }
                    let started = *line_started.get_or_insert_with(Instant::now);
                    if started.elapsed() > stall {
                        break; // client stalled mid-line
                    }
                }
            }
            Err(_) => break,
        }
    }
}

/// Boot a server on an ephemeral loopback port in a background thread —
/// the in-process harness the integration tests and serving benches use.
///
/// Returns the bound address and the server thread's handle; the thread
/// exits (and the handle resolves) after a `shutdown` request.
pub fn spawn_loopback(opts: ServeOptions) -> io::Result<(SocketAddr, std::thread::JoinHandle<()>)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    Ok((addr, spawn_on(listener, opts)))
}

/// Boot a server on an already-bound listener in a background thread.
///
/// The fleet tests bind every member's port *first*, then boot each
/// daemon with the full membership list — which needs the bind and the
/// boot split apart like this.
pub fn spawn_on(listener: TcpListener, opts: ServeOptions) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let server = Server::new(opts);
        let _ = server.run_tcp(listener);
        server.finish();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{CompileReply, Reply};

    fn one_worker() -> ServeOptions {
        ServeOptions {
            workers: 1,
            queue: 4,
            ..ServeOptions::default()
        }
    }

    #[test]
    fn handle_line_compiles_and_caches() {
        let server = Server::new(one_worker());
        let (reply, quit) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        assert!(!quit);
        let Reply::Compile(first) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(!first.cached);
        assert_eq!(first.cycles, 3, "fig4 schedules in 3 cycles");

        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let Reply::Compile(second) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(second.cached, "identical request must hit the cache");
        assert_eq!(second.patterns, first.patterns);
        assert_eq!(second.schedule, first.schedule);
        assert_eq!(second.graph_hash, first.graph_hash);

        let stats = server.stats();
        assert_eq!(stats.compiles, 2);
        assert_eq!(stats.artifact_cache_hits, 1);
        assert_eq!(stats.artifact_cache_misses, 1);
        assert_eq!(stats.table_builds, 1);
        assert_eq!(stats.latency.total.count, 2);
        assert_eq!((stats.sheds, stats.deadline_exceeded), (0, 0));
    }

    #[test]
    fn inline_hits_count_as_compiles_but_never_queue() {
        let server = Server::new(one_worker());
        for _ in 0..5 {
            server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        }
        // A malformed compile gets its error reply without queueing.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"no-such"}"#);
        assert!(matches!(Reply::from_line(&reply).unwrap(), Reply::Error(_)));
        let stats = server.stats();
        assert_eq!((stats.compiles, stats.errors), (6, 1));
        assert_eq!(stats.artifact_cache_hits, 4);
        assert_eq!(stats.latency.total.count, 5, "hits are timed too");
        assert_eq!(stats.latency.accepted.count, 1);
        assert_eq!(stats.latency.queue_wait.count, 1, "only the miss queued");
    }

    #[test]
    fn cached_keys_still_get_admission_refusals() {
        let server = Server::new(one_worker());
        let compile = r#"{"op":"compile","workload":"fig4"}"#;
        server.handle_line(compile);
        // An expired deadline is refused before the cache is consulted,
        // with the counters an uncached key gets.
        let (reply, _) =
            server.handle_line(r#"{"op":"compile","workload":"fig4","deadline_ms":0,"id":4}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.code.as_deref() == Some("deadline") && e.id == Some(4)
        ));
        let stats = server.stats();
        assert_eq!(
            (stats.compiles, stats.errors, stats.deadline_exceeded),
            (2, 1, 1)
        );
        assert_eq!(
            (stats.artifact_cache_hits, stats.latency.total.count),
            (0, 1)
        );
        // A draining server refuses a cached key as well.
        server.handle_line(r#"{"op":"shutdown"}"#);
        let (reply, _) = server.handle_line(compile);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.error.contains("shutting down")
                && e.code.as_deref() == Some("shutting_down")
        ));
        let stats = server.stats();
        assert_eq!((stats.compiles, stats.errors), (3, 2));
        assert_eq!(stats.artifact_cache_hits, 0);
    }

    fn by_name(name: &str) -> Request {
        Request {
            op: "compile".to_string(),
            workload: Some(name.to_string()),
            ..Request::default()
        }
    }

    #[test]
    fn registry_memo_holds_known_names_within_its_cap() {
        let server = Server::new(one_worker());
        let state = &server.state;
        // Two names resolve to two entries; a repeat shares its graph.
        let fig4 = state.resolve(&by_name("fig4")).expect("fig4");
        state.resolve(&by_name("fig2")).expect("fig2");
        let again = state.resolve(&by_name("fig4")).expect("fig4");
        assert!(Arc::ptr_eq(&fig4.dfg, &again.dfg));
        assert_eq!(fig4.key.0, mps::workloads::fig4().content_hash());
        assert_eq!(state.registry.len(), 2);
        // Unknown names store nothing.
        assert!(state.resolve(&by_name("no-such")).is_err());
        assert_eq!(state.registry.len(), 2);
        // The cap holds: older names are evicted, least recently used first.
        for taps in 1..=REGISTRY_MEMO + 8 {
            state
                .resolve(&by_name(&format!("fir{taps}")))
                .expect("fir kernel");
            assert!(state.registry.len() <= REGISTRY_MEMO);
        }
        assert_eq!(state.registry.len(), REGISTRY_MEMO);
        assert_eq!(state.registry.evictions(), 10);
        // A graph over the node limit is served but never stored.
        let big = state.resolve(&by_name("fir4096")).expect("fir4096");
        assert!(big.dfg.len() > REGISTRY_MEMO_NODES);
        let rebuilt = state.resolve(&by_name("fir4096")).expect("fir4096");
        assert!(!Arc::ptr_eq(&big.dfg, &rebuilt.dfg));
        assert_eq!(big.key, rebuilt.key);
        assert_eq!(state.registry.len(), REGISTRY_MEMO);
        assert_eq!(state.registry.evictions(), 10);
    }

    #[test]
    fn a_panicking_resolve_is_answered_and_the_server_keeps_serving() {
        let server = Server::new(ServeOptions {
            faults: FaultPlan {
                panic_resolve_id: Some(3),
                ..FaultPlan::default()
            },
            ..one_worker()
        });
        // Resolving a request with id 3 panics.
        let (reply, quit) = server.handle_line(r#"{"op":"compile","workload":"fig4","id":3}"#);
        assert!(!quit);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.code.as_deref() == Some("internal") && e.id == Some(3)
        ));
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
        let stats = server.stats();
        assert_eq!((stats.compiles, stats.errors), (2, 1));
        // `peers` resolves on the connection thread as well.
        let (reply, _) = server.handle_line(r#"{"op":"peers","workload":"fig4","id":3}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Peers(p) if p.ok && p.owner.is_none()
        ));
    }

    #[test]
    fn oversized_fabric_specs_are_refused_and_the_server_keeps_serving() {
        let server = Server::new(one_worker());
        // 10^8 default tiles, and two tiles of 10^8 ALUs each: both once
        // asked for hundreds of megabytes.
        for fabric in ["100000000", "2:100000000,4"] {
            let line = format!(r#"{{"op":"compile","workload":"fig4","fabric":"{fabric}"}}"#);
            let (reply, _) = server.handle_line(&line);
            match Reply::from_line(&reply).unwrap() {
                Reply::Error(e) => {
                    assert_ne!(e.code.as_deref(), Some("internal"), "{fabric}");
                    assert!(
                        e.error.contains("invalid fabric spec"),
                        "{fabric}: {}",
                        e.error
                    );
                }
                other => panic!("{fabric}: expected an error, got {other:?}"),
            }
        }
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
    }

    #[test]
    fn a_panicking_compile_is_answered_and_its_permit_comes_back() {
        let (addr, server) = spawn_loopback(ServeOptions {
            faults: FaultPlan {
                panic_stage: Some(mps::Stage::Select),
                ..FaultPlan::default()
            },
            ..one_worker()
        })
        .expect("spawn");
        let mut client = Client::connect(addr, 50, Duration::from_millis(10)).expect("connect");
        let mut compile = by_name("fig4");
        compile.id = Some(5);
        match client.request(&compile).expect("answered") {
            Reply::Error(e) => {
                assert_eq!((e.code.as_deref(), e.id), (Some("internal"), Some(5)));
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        // The connection thread survived the panic…
        assert!(matches!(
            client.request(&Request::op("ping")).expect("pong"),
            Reply::Pong(_)
        ));
        // …and the one permit came back: a leaked one would leave this
        // miss waiting in line until its deadline.
        compile.deadline_ms = Some(10_000);
        match client.request(&compile).expect("answered") {
            Reply::Compile(r) => assert!(!r.cached),
            other => panic!("expected a compile, got {other:?}"),
        }
        let stats = client.stats().expect("stats");
        assert_eq!((stats.compiles, stats.errors, stats.queue_depth), (2, 1, 0));
        client.shutdown().expect("shutdown ack");
        server.join().expect("server thread");
    }

    /// A server whose compiles spend `delay_ms` at select, with one
    /// permit and a line of `queue`.
    fn slow_one_permit(delay_ms: u64, queue: usize) -> Server {
        Server::new(ServeOptions {
            workers: 1,
            queue,
            faults: FaultPlan {
                delay_stage: Some((mps::Stage::Select, delay_ms)),
                ..FaultPlan::default()
            },
            ..ServeOptions::default()
        })
    }

    fn compile_line_of(name: &str) -> String {
        by_name(name).to_line()
    }

    /// Poll `server`'s stats until `done` holds, for at most ten seconds.
    fn wait_for(server: &Server, what: &str, done: impl Fn(&StatsReply) -> bool) {
        let t0 = Instant::now();
        while !done(&server.stats()) {
            assert!(t0.elapsed() < Duration::from_secs(10), "never saw {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn a_miss_past_a_full_line_is_shed_while_one_waits() {
        let server = slow_one_permit(300, 1);
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.handle_line(&compile_line_of("fig2")));
            wait_for(&server, "a running compile", |s| {
                s.artifact_cache_misses == 1
            });
            let waiting = scope.spawn(|| server.handle_line(&compile_line_of("dft3")));
            wait_for(&server, "a waiter", |s| s.queue_depth == 1);
            let (reply, _) = server.handle_line(&compile_line_of("fir8"));
            assert!(matches!(
                Reply::from_line(&reply).unwrap(),
                Reply::Error(e) if e.code.as_deref() == Some("overloaded")
                    && e.retry_after_ms.is_some()
            ));
            let stats = server.stats();
            assert_eq!((stats.queue_depth, stats.sheds), (1, 1));
            for compile in [running, waiting] {
                let (reply, _) = compile.join().expect("compile thread");
                assert!(matches!(
                    Reply::from_line(&reply).unwrap(),
                    Reply::Compile(_)
                ));
            }
        });
        let stats = server.stats();
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(
            stats.latency.queue_wait.count, 2,
            "the shed miss never waited"
        );
    }

    #[test]
    fn a_waiter_is_answered_at_its_deadline() {
        let server = slow_one_permit(300, 4);
        std::thread::scope(|scope| {
            let running = scope.spawn(|| server.handle_line(&compile_line_of("fig2")));
            wait_for(&server, "a running compile", |s| {
                s.artifact_cache_misses == 1
            });
            let t0 = Instant::now();
            let (reply, _) =
                server.handle_line(r#"{"op":"compile","workload":"dft3","deadline_ms":50}"#);
            let waited = t0.elapsed();
            assert!(matches!(
                Reply::from_line(&reply).unwrap(),
                Reply::Error(e) if e.code.as_deref() == Some("deadline")
                    && e.error == "deadline expired in the admission queue"
            ));
            assert!(
                waited < Duration::from_millis(200),
                "answered after {waited:?}, not at its 50 ms deadline"
            );
            let stats = server.stats();
            assert_eq!((stats.queue_depth, stats.deadline_exceeded), (0, 1));
            running.join().expect("compile thread");
        });
    }

    #[test]
    fn permits_go_to_waiters_in_arrival_order() {
        let server = slow_one_permit(100, 4);
        let finished = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            let compile = |name: &'static str| {
                let (server, finished) = (&server, &finished);
                scope.spawn(move || {
                    let (reply, _) = server.handle_line(&compile_line_of(name));
                    assert!(matches!(
                        Reply::from_line(&reply).unwrap(),
                        Reply::Compile(_)
                    ));
                    finished.lock().unwrap().push(name);
                })
            };
            compile("fig2");
            wait_for(&server, "a running compile", |s| {
                s.artifact_cache_misses == 1
            });
            for (i, name) in ["dft3", "fir8", "iir2"].into_iter().enumerate() {
                compile(name);
                wait_for(&server, "a waiter", |s| s.queue_depth == i as u64 + 1);
            }
        });
        // One permit: each compile finishes before the next one starts.
        assert_eq!(
            finished.into_inner().unwrap(),
            ["fig2", "dft3", "fir8", "iir2"]
        );
    }

    #[test]
    fn finish_returns_only_after_an_in_flight_compile_is_persisted() {
        let dir = scratch_dir("finish");
        let server = Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            faults: FaultPlan {
                delay_stage: Some((mps::Stage::Schedule, 200)),
                ..FaultPlan::default()
            },
            ..one_worker()
        });
        let state = Arc::clone(&server.state);
        let compile = std::thread::spawn(move || {
            let answer = state.handle_line(&compile_line_of("fig2"));
            state.deliver(answer, |line| line)
        });
        wait_for(&server, "a running compile", |s| {
            s.artifact_cache_misses == 1
        });
        server.finish();
        let reply = compile.join().expect("compile thread");
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
        let store = ArtifactStore::open(&dir).expect("cache dir");
        assert_eq!(
            store.load_results().loaded.len(),
            1,
            "the result is on disk"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_out_of_range_capacity_is_refused_before_any_worker() {
        let server = Server::new(one_worker());
        for capacity in ["0", "17", "18446744073709551615"] {
            let (reply, quit) = server.handle_line(&format!(
                r#"{{"op":"compile","workload":"fig4","capacity":{capacity}}}"#
            ));
            assert!(!quit);
            match Reply::from_line(&reply).unwrap() {
                Reply::Error(e) => {
                    assert_ne!(e.code.as_deref(), Some("internal"), "{capacity}");
                    assert!(e.error.contains("capacity"), "{}", e.error);
                }
                other => panic!("capacity {capacity}: expected an error, got {other:?}"),
            }
        }
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4","capacity":16}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
        let stats = server.stats();
        assert_eq!((stats.compiles, stats.errors), (4, 3));
        assert_eq!(
            stats.latency.queue_wait.count, 1,
            "only the valid compile queued"
        );
    }

    #[test]
    fn registry_memo_confirms_the_name_behind_a_hash() {
        let server = Server::new(one_worker());
        let state = &server.state;
        // Plant fig2 under fig4's key, as a hash collision would.
        let fig2 = mps::workloads::fig2();
        let planted = MemoGraph {
            source: "fig2".to_string(),
            hash: fig2.content_hash(),
            dfg: Arc::new(fig2),
        };
        let key = crate::ring::fnv1a(b"fig4");
        assert!(state.registry.seed(key, Ok(Arc::new(planted))));
        let resolved = state.resolve(&by_name("fig4")).expect("fig4");
        assert_eq!(resolved.key.0, mps::workloads::fig4().content_hash());
    }

    fn inline(text: &str) -> Request {
        Request {
            op: "compile".to_string(),
            graph: Some(text.to_string()),
            ..Request::default()
        }
    }

    /// A chain of `len` nodes as inline text, its node names prefixed
    /// with `tag` so distinct tags give distinct texts.
    fn chain(tag: &str, len: usize) -> String {
        let mut text = String::new();
        for i in 0..len {
            text.push_str(&format!("node {tag}{i} a\n"));
            if i > 0 {
                text.push_str(&format!("edge {tag}{} {tag}{i}\n", i - 1));
            }
        }
        text
    }

    #[test]
    fn graph_memo_stores_a_text_on_its_second_sighting() {
        let server = Server::new(one_worker());
        let state = &server.state;
        let text = chain("n", 6);
        let first = state.resolve(&inline(&text)).expect("parses");
        assert_eq!(state.graph_memo.len(), 0, "a first sighting stores nothing");
        let second = state.resolve(&inline(&text)).expect("parses");
        assert_eq!(state.graph_memo.len(), 1, "the second sighting stores");
        assert!(!Arc::ptr_eq(&first.dfg, &second.dfg), "both were parsed");
        let third = state.resolve(&inline(&text)).expect("memo hit");
        assert!(Arc::ptr_eq(&second.dfg, &third.dfg));
        assert_eq!(third.key, first.key);
        assert_eq!(
            first.key.0,
            mps::dfg::parse_text(&text).unwrap().content_hash()
        );
        assert_eq!(server.stats().graph_memo_hits, 1);
    }

    #[test]
    fn graph_memo_never_shares_an_entry_between_texts_that_differ_in_one_byte() {
        let server = Server::new(one_worker());
        let state = &server.state;
        let base = "node x a\nnode y b\nedge x y\n";
        // One color byte changes the graph; one trailing byte does not.
        let texts = [
            base,
            "node x a\nnode y c\nedge x y\n",
            "node x a\nnode y b\nedge x y\n ",
        ];
        let mut resolved = Vec::new();
        for text in texts {
            state.resolve(&inline(text)).expect("parses");
            resolved.push(state.resolve(&inline(text)).expect("parses"));
        }
        assert_eq!(state.graph_memo.len(), 3, "one entry per distinct text");
        for (text, stored) in texts.iter().zip(&resolved) {
            let again = state.resolve(&inline(text)).expect("memo hit");
            assert!(Arc::ptr_eq(&again.dfg, &stored.dfg), "{text:?}");
            assert_eq!(
                again.key.0,
                mps::dfg::parse_text(text).unwrap().content_hash()
            );
        }
        assert_ne!(resolved[0].key, resolved[1].key);
        assert_eq!(
            resolved[0].key, resolved[2].key,
            "the same graph, two entries"
        );
        assert!(!Arc::ptr_eq(&resolved[0].dfg, &resolved[2].dfg));
        assert_eq!(state.graph_memo.hits(), 3);
    }

    #[test]
    fn graph_memo_confirms_the_text_behind_a_hash() {
        let server = Server::new(one_worker());
        let state = &server.state;
        // Plant fig2 under this text's key, as a hash collision would.
        let text = chain("n", 4);
        let fig2 = mps::workloads::fig2();
        let planted = MemoGraph {
            source: mps::dfg::to_text(&fig2),
            hash: fig2.content_hash(),
            dfg: Arc::new(fig2),
        };
        let key = text_key(&text);
        assert!(state.graph_memo.seed(key, Ok(Arc::new(planted))));
        let resolved = state.resolve(&inline(&text)).expect("parses");
        assert_eq!(
            resolved.key.0,
            mps::dfg::parse_text(&text).unwrap().content_hash()
        );
        assert_eq!(resolved.dfg.len(), 4);
    }

    #[test]
    fn graph_memo_never_stores_a_failing_parse() {
        let server = Server::new(one_worker());
        let line = inline("node x a\nedge x ghost\n").to_line();
        let replies: Vec<String> = (0..3).map(|_| server.handle_line(&line).0).collect();
        let Reply::Error(error) = Reply::from_line(&replies[0]).unwrap() else {
            panic!("expected an error reply: {}", replies[0]);
        };
        assert_eq!(error.stage.as_deref(), Some("analyze"));
        assert!(
            replies.iter().all(|reply| *reply == replies[0]),
            "{replies:?}"
        );
        let state = &server.state;
        assert_eq!(
            (state.graph_memo.len(), state.graph_memo.resident_bytes()),
            (0, 0)
        );
    }

    #[test]
    fn graph_memo_answers_but_does_not_store_a_text_over_the_entry_cap() {
        let server = Server::new(one_worker());
        let state = &server.state;
        let text = chain("n", 3000);
        let first = state.resolve(&inline(&text)).expect("parses");
        let graph = MemoGraph {
            source: text.clone(),
            hash: first.key.0,
            dfg: Arc::clone(&first.dfg),
        };
        assert!(graph.cost() > GRAPH_MEMO_ENTRY_BYTES);
        for _ in 0..2 {
            let again = state.resolve(&inline(&text)).expect("parses");
            assert_eq!(again.key, first.key);
            assert!(!Arc::ptr_eq(&again.dfg, &first.dfg), "parsed every time");
        }
        assert_eq!(state.graph_memo.len(), 0);
    }

    #[test]
    fn graph_memo_stays_within_its_byte_budget() {
        let server = Server::new(one_worker());
        let state = &server.state;
        for i in 0..100 {
            let text = chain(&format!("g{i}_"), 200);
            state.resolve(&inline(&text)).expect("parses");
            state.resolve(&inline(&text)).expect("parses");
            assert!(state.graph_memo.resident_bytes() <= GRAPH_MEMO_BYTES);
        }
        assert!(
            state.graph_memo.evictions() > 0,
            "the stream outgrew the budget"
        );
        assert!(state.graph_memo.len() > 1);
    }

    /// A reply line with its measured `latency_sec` value zeroed.
    fn without_latency(line: &str) -> String {
        let (head, tail) = line
            .split_once("\"latency_sec\":")
            .expect("a latency field");
        let rest = &tail[tail.find([',', '}']).expect("a field after latency")..];
        format!("{head}\"latency_sec\":0{rest}")
    }

    /// Cache-hit replies as the server rendered them before hits were
    /// answered on the connection thread (by name) and before inline
    /// graphs were memoised (the last), `latency_sec` zeroed.
    const HIT_GOLDENS: [(&str, &str); 4] = [
        (
            r#"{"op":"compile","workload":"fig4","id":7}"#,
            r#"{"ok":true,"op":"compile","id":7,"workload":"fig4","graph_hash":"8f02f411c94ad84f","config_hash":"34573ca9477bab70","engine":"eq8","cached":true,"latency_sec":0,"patterns":["aa","bb"],"cycles":3,"schedule":"schedule (3 cycles):\n  cycle   1 [aa]: n0 n2\n  cycle   2 [aa]: n1\n  cycle   3 [bb]: n4 n3\n","ii":null,"switches":null,"exec_cycles":null,"fabric_tiles":null,"fabric_transfers":null,"fabric_cycles":null}"#,
        ),
        (
            r#"{"op":"compile","workload":"fig2","span":1,"fabric":"4@2","id":8}"#,
            r#"{"ok":true,"op":"compile","id":8,"workload":"fig2","graph_hash":"06c6bf64851e66f3","config_hash":"f12e8a615ab4d770","engine":"eq8","cached":true,"latency_sec":0,"patterns":["aaacc","aabcc","aaaaa","aaccc"],"cycles":14,"schedule":"schedule (14 cycles):\n  cycle   1 [aabcc]: n16 n1 n0\n  cycle   2 [aabcc]: n15\n  cycle   3 [aabcc]: n14\n  cycle   4 [aabcc]: n17\n  cycle   5 [aaacc]: n20 n19 n13 n5\n  cycle   6 [aaacc]: n18\n  cycle   7 [aaacc]: n22 n2\n  cycle   8 [aaacc]: n3 n21 n7\n  cycle   9 [aaacc]: n23\n  cycle  10 [aaacc]: n4\n  cycle  11 [aaacc]: n8\n  cycle  12 [aaacc]: n6 n11\n  cycle  13 [aaacc]: n9 n10\n  cycle  14 [aaacc]: n12\n","ii":null,"switches":null,"exec_cycles":null,"fabric_tiles":4,"fabric_transfers":14,"fabric_cycles":10}"#,
        ),
        (
            r#"{"op":"compile","workload":"dft5","pdef":4,"alus":5,"id":9}"#,
            r#"{"ok":true,"op":"compile","id":9,"workload":"dft5","graph_hash":"bb63592fcc4ca801","config_hash":"be9ed3da5d80f4ac","engine":"eq8","cached":true,"latency_sec":0,"patterns":["abbcc","aabbc","aabcc","abbbc"],"cycles":11,"schedule":"schedule (11 cycles):\n  cycle   1 [aabbc]: n3 n2 n7 n6\n  cycle   2 [aabbc]: n1 n0 n5 n4 n23\n  cycle   3 [aabbc]: n9 n8 n15 n14 n25\n  cycle   4 [aabcc]: n19 n18 n13 n12\n  cycle   5 [aabcc]: n11 n10 n21 n20\n  cycle   6 [abbcc]: n17 n16 n27 n26\n  cycle   7 [abbcc]: n24 n22 n34 n30 n29\n  cycle   8 [abbbc]: n35 n31 n33 n28\n  cycle   9 [aabbc]: n32 n43 n39 n37\n  cycle  10 [aabbc]: n42 n41 n38 n36\n  cycle  11 [abbcc]: n40\n","ii":null,"switches":null,"exec_cycles":11,"fabric_tiles":null,"fabric_transfers":null,"fabric_cycles":null}"#,
        ),
        (
            r##"{"op":"compile","graph":"# two adders feed a multiply\nnode a0 a\nnode a1 a\nnode b0 b\nnode a2 a\nnode c0 c\nedge a0 b0\nedge a1 b0\nedge b0 c0\nedge a2 c0\n","pdef":3,"id":10}"##,
            r#"{"ok":true,"op":"compile","id":10,"workload":"inline","graph_hash":"101d0779d98d9d88","config_hash":"5bdfe6333d588819","engine":"eq8","cached":true,"latency_sec":0,"patterns":["aaa","ab","c"],"cycles":3,"schedule":"schedule (3 cycles):\n  cycle   1 [aaa]: n1 n0 n3\n  cycle   2 [ab]: n2\n  cycle   3 [c]: n4\n","ii":null,"switches":null,"exec_cycles":null,"fabric_tiles":null,"fabric_transfers":null,"fabric_cycles":null}"#,
        ),
    ];

    #[test]
    fn inline_hit_replies_keep_their_wire_bytes() {
        let server = Server::new(one_worker());
        for (line, golden) in HIT_GOLDENS {
            server.handle_line(line);
            // The inline graph's third send resolves from the graph memo.
            for _ in 0..2 {
                let (hit, _) = server.handle_line(line);
                assert_eq!(without_latency(&hit), golden, "{line}");
            }
        }
        assert_eq!(server.stats().graph_memo_hits, 1);
    }

    /// The registry kernels the benchmark's request streams draw from.
    const BENCH_KERNELS: [&str; 12] = [
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

    /// A compile request for `source` (a registry name, or an inline
    /// text when it holds a newline) under config `tail`: plain, tile
    /// replay, one of the benchmark's two fabrics, or the widest capacity.
    fn keyed(source: &str, tail: usize) -> Request {
        let mut req = if source.contains('\n') {
            inline(source)
        } else {
            by_name(source)
        };
        match tail {
            0 => {}
            1 => req.alus = Some(5),
            2 => req.fabric = Some("2@1".to_string()),
            3 => {
                req.capacity = Some(3);
                req.fabric = Some("4:3,16@2".to_string());
            }
            _ => req.capacity = Some(16),
        }
        req
    }

    #[test]
    fn spliced_hit_and_miss_replies_match_the_whole_reply_encoder() {
        let server = Server::new(one_worker());
        let text =
            "node x0 a\nnode x1 a\nnode y0 b\nnode z0 c\nedge x0 y0\nedge x1 y0\nedge y0 z0\n";
        // Twenty independent nodes, half of them in colours past `z`: at
        // capacity 16 its patterns are as wide as patterns get.
        let wide: String = (0..20)
            .map(|i| format!("node w{i} {}\n", ["a", "#30", "#200"][i % 3]))
            .collect();
        let sources = BENCH_KERNELS.iter().copied().chain([text]);
        let grid = sources.flat_map(|source| (0..4).map(move |tail| (source, tail)));
        // The widest capacity, on the kernels that compile quickly at it.
        let widest = ["fig2", "fir16", "star32", "horner8", &wide].map(|source| (source, 4));
        for (n, (source, tail)) in grid.chain(widest).enumerate() {
            let req = keyed(source, tail);
            let cfg = req.compile_config().expect("a valid config");
            let dfg = match &req.graph {
                Some(text) => mps::dfg::parse_text(text).expect("a valid graph"),
                None => mps::workloads::by_name(source).expect("a registry kernel"),
            };
            let key = (dfg.content_hash(), cfg.content_hash());
            let expected = Session::with_config(dfg, cfg.clone())
                .compile()
                .expect("every benchmark key compiles");
            // A miss, then hits with and without an id.
            for (cached, id) in [
                (false, (n % 2 == 1).then_some(n as u64)),
                (true, Some(u64::MAX)),
                (true, None),
            ] {
                let (reply, _) = server.handle_line(&Request { id, ..req.clone() }.to_line());
                let Reply::Compile(decoded) = Reply::from_line(&reply).expect("protocol") else {
                    panic!("expected compile reply: {reply}");
                };
                let head = CompileHead {
                    id,
                    workload: req.workload.as_deref().unwrap_or("inline"),
                    key,
                    engine: cfg.engine.name(),
                    cached,
                    latency_sec: decoded.latency_sec,
                };
                assert_eq!(
                    reply,
                    encode(&CompileReply::of(&head, &expected)),
                    "{source} / {tail}"
                );
            }
            // The entry's charge covers the tail it now holds.
            let entry = server.state.artifacts.peek(key).expect("a resident entry");
            let tail_bytes = entry.reply_tail.get().expect("rendered by the miss").len();
            let bound = reply_tail_bound(&entry.result);
            assert!(
                bound >= tail_bytes,
                "{source} / {tail}: {bound} < {tail_bytes}"
            );
        }
    }

    #[test]
    fn loaded_entries_render_their_reply_tail_on_first_hit() {
        let donor = Server::new(one_worker());
        let line = r#"{"op":"compile","workload":"dft5","alus":5}"#;
        let (miss, _) = donor.handle_line(line);
        let key = donor
            .state
            .resolve(&Request::from_line(line).unwrap())
            .unwrap()
            .key;
        let computed = donor.state.artifacts.peek(key).expect("computed");
        let mut put = Request::op("artifact_put");
        put.artifact = Some(mps::artifact::encode_result(key, &computed.result));

        // A handed-off entry is stored unrendered, charged as a computed one.
        let receiver = Server::new(one_worker());
        receiver.handle_line(&put.to_line());
        let entry = receiver.state.artifacts.peek(key).expect("seeded");
        assert!(entry.reply_tail.get().is_none());
        assert_eq!(entry.cost(), computed.cost());
        let (hit, _) = receiver.handle_line(line);
        assert!(entry.reply_tail.get().is_some(), "the first hit renders it");
        let flip =
            |reply: &str| without_latency(reply).replace("\"cached\":true", "\"cached\":false");
        assert_eq!(flip(&hit), without_latency(&miss));

        // So is a warm-started one.
        let dir = scratch_dir("lazy-tail");
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..one_worker()
        };
        Server::new(opts.clone()).handle_line(&put.to_line());
        let warm = Server::new(opts);
        assert_eq!(warm.stats().artifacts_loaded, 1);
        let entry = warm.state.artifacts.peek(key).expect("loaded");
        assert!(
            entry.reply_tail.get().is_none(),
            "warm start renders nothing"
        );
        let (hit, _) = warm.handle_line(line);
        assert_eq!(flip(&hit), without_latency(&miss));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fabric_compiles_flow_over_the_wire() {
        let server = Server::new(one_worker());
        // A 4-tile fabric compile reports the mapping shape on the wire.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","fabric":"4@2"}"#);
        let Reply::Compile(multi) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert_eq!(multi.fabric_tiles, Some(4));
        assert!(
            multi.fabric_transfers.unwrap() >= 1,
            "4 tiles must cut the 3DFT somewhere"
        );
        assert!(multi.fabric_cycles.unwrap() >= 1, "makespan is non-trivial");

        // A 1-tile fabric decides exactly like the plain tile path.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","fabric":"1"}"#);
        let Reply::Compile(single) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","alus":5}"#);
        let Reply::Compile(plain) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert_eq!(single.patterns, plain.patterns);
        assert_eq!(single.schedule, plain.schedule);
        assert_eq!(single.cycles, plain.cycles);
        assert_eq!(single.exec_cycles, plain.exec_cycles);
        assert_eq!(single.fabric_tiles, Some(1));
        assert_eq!(single.fabric_transfers, Some(0));
        assert_ne!(
            single.config_hash, plain.config_hash,
            "fabric configs cache under their own key"
        );

        // Distinct fabrics are distinct cache keys; a repeat hits.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","fabric":"4@2"}"#);
        let Reply::Compile(again) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(again.cached);
        assert_eq!(again.fabric_transfers, multi.fabric_transfers);

        // A bad spec is a protocol-level error, not a panic.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig2","fabric":"0"}"#);
        let Reply::Error(err) = Reply::from_line(&reply).unwrap() else {
            panic!("expected error reply: {reply}");
        };
        assert!(err.error.contains("fabric"));
    }

    #[test]
    fn cache_budgets_scale_by_ring_size() {
        // Standalone: budgets pass through verbatim.
        let opts = ServeOptions {
            max_artifacts: Some(10),
            max_table_bytes: Some(1 << 20),
            ..one_worker()
        };
        assert_eq!(opts.ring_size(), 1);
        let server = Server::new(opts);
        let stats = server.stats();
        assert_eq!(stats.ring_size, 1);
        assert_eq!(stats.effective_max_artifacts, Some(10));
        assert_eq!(stats.effective_table_bytes, Some(1 << 20));
        assert_eq!(
            stats.effective_max_tables, None,
            "unbounded stays unbounded"
        );

        // A 4-member ring owns ~1/4 of the keyspace each: every tier's
        // enforced share is the ceiling quarter.
        let opts = ServeOptions {
            max_artifacts: Some(10),
            max_artifact_bytes: Some(1 << 20),
            max_tables: Some(2),
            max_table_bytes: Some(3),
            peers: vec![
                "127.0.0.1:19001".to_string(),
                "127.0.0.1:19002".to_string(),
                "127.0.0.1:19003".to_string(),
            ],
            advertise: "127.0.0.1:19000".to_string(),
            // Keep the health prober from dialing the fake peers.
            probe_interval_ms: 3_600_000,
            ..one_worker()
        };
        assert_eq!(opts.ring_size(), 4);
        assert_eq!(opts.effective_budget(Some(10)), Some(3));
        assert_eq!(opts.effective_budget(Some(2)), Some(1));
        assert_eq!(opts.effective_budget(Some(3)), Some(1), "never below 1");
        assert_eq!(opts.effective_budget(None), None);
        let server = Server::new(opts);
        let stats = server.stats();
        assert_eq!(stats.ring_size, 4);
        assert_eq!(stats.effective_max_artifacts, Some(3));
        assert_eq!(stats.effective_artifact_bytes, Some(1 << 18));
        assert_eq!(stats.effective_max_tables, Some(1));
        assert_eq!(stats.effective_table_bytes, Some(1));
    }

    /// Fresh scratch directory for persistence tests.
    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mps-serve-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn retry_hint_tracks_accepted_latency_not_cache_hits() {
        // Regression: the shed retry hint used to be derived from the
        // *total* latency histogram. Under warm-hit-heavy traffic the
        // total p50 collapses to microseconds (hits dominate), so shed
        // clients were told to retry almost immediately. The hint must
        // track the accepted (non-cached) compile latency instead.
        let opts = ServeOptions {
            faults: FaultPlan {
                // Make the one real compile measurably slow (~40 ms).
                delay_stage: Some((mps::Stage::Select, 40)),
                ..FaultPlan::default()
            },
            ..one_worker()
        };
        let server = Server::new(opts);
        server.handle_line(r#"{"op":"compile","workload":"fig4"}"#); // cold
        for _ in 0..50 {
            server.handle_line(r#"{"op":"compile","workload":"fig4"}"#); // warm
        }
        let stats = server.stats();
        assert_eq!(stats.latency.total.count, 51);
        assert_eq!(stats.latency.accepted.count, 1);
        let accepted_p50_ms = stats.latency.accepted.p50_sec * 1000.0;
        assert!(
            accepted_p50_ms >= 40.0,
            "injected delay must dominate accepted p50: {accepted_p50_ms} ms"
        );
        assert!(
            stats.latency.total.p50_sec < stats.latency.accepted.p50_sec,
            "cache hits must pull the total median below the accepted one"
        );
        let hint = server.state.retry_after_hint();
        assert!(
            hint as f64 >= accepted_p50_ms,
            "hint {hint} ms must cover the accepted p50 {accepted_p50_ms} ms"
        );
    }

    #[test]
    fn warm_start_answers_from_disk_without_table_builds() {
        let dir = scratch_dir("warm");
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..one_worker()
        };
        let first_reply;
        {
            let server = Server::new(opts.clone());
            let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
            first_reply = reply;
            let stats = server.stats();
            assert_eq!(stats.artifacts_persisted, 1);
            assert_eq!(stats.artifacts_loaded, 0);
        } // drop = kill
        let server = Server::new(opts);
        let stats = server.stats();
        assert_eq!(stats.artifacts_loaded, 1, "persisted artifact reloads");
        assert_eq!(stats.load_rejected, 0);
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let Reply::Compile(warm) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(warm.cached, "warm-start request must be a cache hit");
        let Reply::Compile(cold) = Reply::from_line(&first_reply).unwrap() else {
            panic!("expected compile reply: {first_reply}");
        };
        // Byte-identical up to the measured latency (and the cached flag).
        assert_eq!(warm.patterns, cold.patterns);
        assert_eq!(warm.schedule, cold.schedule);
        assert_eq!(warm.cycles, cold.cycles);
        assert_eq!(warm.graph_hash, cold.graph_hash);
        assert_eq!(warm.config_hash, cold.config_hash);
        let stats = server.stats();
        assert_eq!(stats.table_builds, 0, "no table rebuilt after restart");
        assert_eq!(stats.artifacts_persisted, 0, "hits are not re-persisted");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_files_degrade_to_recompile() {
        let dir = scratch_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        // A well-named file full of junk must be skipped, not fatal.
        std::fs::write(
            dir.join(format!("cr-{:016x}-{:016x}.json", 1u64, 2u64)),
            b"{\"magic\":\"mps-artifact\",\"format_ver",
        )
        .unwrap();
        let server = Server::new(ServeOptions {
            cache_dir: Some(dir.clone()),
            ..one_worker()
        });
        let stats = server.stats();
        assert_eq!(stats.artifacts_loaded, 0);
        assert_eq!(stats.load_rejected, 1);
        // Serving proceeds: a real request compiles fresh.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(r) if !r.cached
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn control_verbs_answer_inline() {
        let server = Server::new(one_worker());
        let (reply, quit) = server.handle_line(r#"{"op":"ping","id":3}"#);
        assert!(!quit);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Pong(p) if p.id == Some(3) && p.uptime_sec >= 0.0 && p.queue_depth == 0
        ));
        let (reply, quit) = server.handle_line(r#"{"op":"shutdown"}"#);
        assert!(quit && server.is_shut_down());
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Shutdown(_)
        ));
        // Compiles after shutdown are refused, not queued — with the
        // structured code a forwarding fleet member keys failover on.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.error.contains("shutting down")
                && e.code.as_deref() == Some("shutting_down")
        ));
    }

    /// A draining peer answers forwards with `shutting_down` errors; the
    /// forwarding side must fail over to local compute rather than bounce
    /// the drain error to its client.
    #[test]
    fn draining_owner_fails_over_to_local_compute() {
        // A stub "draining owner": answers every line (pings included)
        // with a canned `shutting_down` error, like a real server whose
        // admission queue has closed but whose listener is still up.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub owner");
        let owner_addr = listener.local_addr().expect("stub addr");
        let stop = Arc::new(AtomicBool::new(false));
        let stub = {
            let stop = Arc::clone(&stop);
            listener.set_nonblocking(true).expect("nonblocking stub");
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                            let mut stream = stream;
                            let mut line = String::new();
                            while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                                let _ = writeln!(
                                    stream,
                                    "{}",
                                    encode(&ErrorReply::shutting_down("compile", None))
                                );
                                line.clear();
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
            })
        };

        let non_owner = Server::new(ServeOptions {
            peers: vec![owner_addr.to_string()],
            advertise: "127.0.0.1:7071".to_string(),
            probe_interval_ms: 3_600_000,
            forward_timeout_ms: 500,
            ..one_worker()
        });
        // Find a request the draining stub owns from the ring's view.
        let fleet = non_owner.state.fleet.as_ref().expect("fleet configured");
        let req = (1..=16)
            .map(|pdef| Request {
                op: "compile".to_string(),
                workload: Some("fig4".to_string()),
                pdef: Some(pdef),
                ..Request::default()
            })
            .find(|req| {
                let key = non_owner.state.resolve(req).expect("valid request").key;
                matches!(fleet.ring.owner_of(key), Owner::Peer(_))
            })
            .expect("some pdef hashes to the peer");
        let (reply, _) = non_owner.handle_line(&req.to_line());
        assert!(
            matches!(
                Reply::from_line(&reply).unwrap(),
                Reply::Compile(r) if !r.cached
            ),
            "drain error must not bounce to the client: {reply}"
        );
        assert_eq!(non_owner.stats().peer_failovers, 1);

        stop.store(true, Ordering::SeqCst);
        stub.join().expect("stub owner exits");
        non_owner.handle_line(r#"{"op":"shutdown"}"#);
        non_owner.finish();
    }

    /// A stub fleet owner on loopback that counts the connections it
    /// accepts. Each connection gets its own thread, which answers every
    /// request line by writing `answer` verbatim (`None` stalls: no reply,
    /// keep reading) and, with `hang_up`, closes the connection after each
    /// reply. A whole reply ends in a newline; an answer without one is a
    /// reply cut short, and the stub hangs up after it. Drop
    /// the server under test first: its pool holds the connections that
    /// the stub's threads are reading.
    struct StubOwner {
        addr: SocketAddr,
        accepted: Arc<AtomicU64>,
        stop: Arc<AtomicBool>,
        acceptor: Option<std::thread::JoinHandle<Vec<std::thread::JoinHandle<()>>>>,
    }

    impl StubOwner {
        fn spawn(
            hang_up: bool,
            answer: impl Fn(&Request) -> Option<String> + Send + Sync + 'static,
        ) -> StubOwner {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind stub owner");
            let addr = listener.local_addr().expect("stub addr");
            listener.set_nonblocking(true).expect("nonblocking stub");
            let accepted = Arc::new(AtomicU64::new(0));
            let stop = Arc::new(AtomicBool::new(false));
            let answer = Arc::new(answer);
            let acceptor = {
                let (accepted, stop) = (Arc::clone(&accepted), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut conns = Vec::new();
                    while !stop.load(Ordering::SeqCst) {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                accepted.fetch_add(1, Ordering::SeqCst);
                                let answer = Arc::clone(&answer);
                                conns.push(std::thread::spawn(move || {
                                    stream.set_nonblocking(false).expect("blocking conn");
                                    let mut reader =
                                        BufReader::new(stream.try_clone().expect("clone"));
                                    let mut stream = stream;
                                    let mut line = String::new();
                                    while reader.read_line(&mut line).is_ok_and(|n| n > 0) {
                                        let req = Request::from_line(line.trim_end())
                                            .expect("the server sends protocol");
                                        line.clear();
                                        let Some(reply) = answer(&req) else {
                                            continue;
                                        };
                                        let _ = stream.write_all(reply.as_bytes());
                                        if hang_up || !reply.ends_with('\n') {
                                            break;
                                        }
                                    }
                                }));
                            }
                            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            Err(_) => break,
                        }
                    }
                    conns
                })
            };
            StubOwner {
                addr,
                accepted,
                stop,
                acceptor: Some(acceptor),
            }
        }

        /// Canned answer lines by verb: a pong, a real fig4 compile
        /// reply, an acknowledged artifact put.
        fn answers() -> impl Fn(&Request) -> Option<String> + Send + Sync + 'static {
            let (compiled, _) =
                Server::new(one_worker()).handle_line(r#"{"op":"compile","workload":"fig4"}"#);
            move |req: &Request| {
                let reply = match req.op.as_str() {
                    "ping" => encode(&PongReply {
                        ok: true,
                        op: "ping".to_string(),
                        id: req.id,
                        uptime_sec: 0.0,
                        queue_depth: 0,
                    }),
                    "artifact_put" => encode(&ArtifactPutReply {
                        ok: true,
                        op: "artifact_put".to_string(),
                        id: req.id,
                        stored: true,
                    }),
                    _ => compiled.clone(),
                };
                Some(reply + "\n")
            }
        }

        fn accepted(&self) -> u64 {
            self.accepted.load(Ordering::SeqCst)
        }

        /// A one-peer non-owner pointed at this stub, returned once its
        /// boot probe has been answered (so the probe's connection sits
        /// in the pool), plus a compile request the stub owns.
        fn non_owner(&self, forward_timeout_ms: u64) -> (Server, Request) {
            let server = Server::new(ServeOptions {
                peers: vec![self.addr.to_string()],
                advertise: "127.0.0.1:7072".to_string(),
                probe_interval_ms: 3_600_000,
                forward_timeout_ms,
                ..one_worker()
            });
            let booted = Instant::now() + Duration::from_secs(10);
            while server.stats().peers[0].total_successes == 0 {
                assert!(Instant::now() < booted, "boot probe never answered");
                std::thread::sleep(Duration::from_millis(2));
            }
            let fleet = server.state.fleet.as_ref().expect("fleet configured");
            let req = (1..=16)
                .map(|pdef| Request {
                    op: "compile".to_string(),
                    workload: Some("fig4".to_string()),
                    pdef: Some(pdef),
                    ..Request::default()
                })
                .find(|req| {
                    let key = server.state.resolve(req).expect("valid request").key;
                    matches!(fleet.ring.owner_of(key), Owner::Peer(_))
                })
                .expect("some pdef hashes to the peer");
            (server, req)
        }
    }

    impl Drop for StubOwner {
        fn drop(&mut self) {
            self.stop.store(true, Ordering::SeqCst);
            if let Some(acceptor) = self.acceptor.take() {
                for conn in acceptor.join().unwrap_or_default() {
                    let _ = conn.join();
                }
            }
        }
    }

    #[test]
    fn forwards_reuse_one_pooled_connection() {
        let stub = StubOwner::spawn(false, StubOwner::answers());
        let (non_owner, req) = stub.non_owner(2_000);
        for _ in 0..20 {
            let (reply, _) = non_owner.handle_line(&req.to_line());
            assert!(
                matches!(Reply::from_line(&reply).unwrap(), Reply::Compile(_)),
                "{reply}"
            );
        }
        let stats = non_owner.stats();
        assert_eq!(stats.peer_forwards, 20);
        assert_eq!(stats.peer_failovers, 0);
        assert_eq!(stats.peer_dials, 1, "the boot probe's dial serves them all");
        assert_eq!(stub.accepted(), 1);
    }

    #[test]
    fn forwarded_hits_reach_the_client_as_the_owner_sent_them() {
        let (owned, _) =
            Server::new(one_worker()).handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let stub = StubOwner::spawn(false, StubOwner::answers());
        let (non_owner, req) = stub.non_owner(2_000);
        let (reply, _) = non_owner.handle_line(&req.to_line());
        assert_eq!(without_latency(&reply), without_latency(&owned));
        // The stub's canned reply is itself a fresh compile line; the
        // relay must not have re-encoded anything, latency included.
        let (again, _) = non_owner.handle_line(&req.to_line());
        assert_eq!(again, reply);
        assert_eq!(non_owner.stats().peer_forwards, 2);
    }

    #[test]
    fn a_non_json_peer_reply_fails_over_to_local_compute() {
        let answers = StubOwner::answers();
        let stub = StubOwner::spawn(false, move |req| match req.op.as_str() {
            "compile" => Some("mps says hello\n".to_string()),
            _ => answers(req),
        });
        let (non_owner, req) = stub.non_owner(2_000);
        let (reply, _) = non_owner.handle_line(&req.to_line());
        let Reply::Compile(local) = Reply::from_line(&reply).unwrap() else {
            panic!("failover must still answer: {reply}");
        };
        assert!(!local.cached);
        let stats = non_owner.stats();
        assert_eq!((stats.peer_forwards, stats.peer_failovers), (0, 1));
    }

    #[test]
    fn a_success_reply_cut_short_fails_over_to_local_compute() {
        // The stub writes the first half of its compile reply and hangs
        // up, as `MPS_FAULT_DROP_REPLY_EVERY` does: the fragment opens
        // like a success but is not one.
        let answers = StubOwner::answers();
        let stub = StubOwner::spawn(false, move |req| {
            let reply = answers(req)?;
            Some(match req.op.as_str() {
                "compile" => reply[..reply.len() / 2].to_string(),
                _ => reply,
            })
        });
        let (non_owner, req) = stub.non_owner(2_000);
        let (reply, _) = non_owner.handle_line(&req.to_line());
        let Reply::Compile(local) = Reply::from_line(&reply).unwrap() else {
            panic!("failover must still answer: {reply}");
        };
        assert!(!local.cached);
        let stats = non_owner.stats();
        assert_eq!((stats.peer_forwards, stats.peer_failovers), (0, 1));
    }

    #[test]
    fn stale_pooled_connections_are_redialed() {
        // The stub hangs up after every reply, like a peer restarting
        // between requests: each pooled connection is dead on reuse.
        let stub = StubOwner::spawn(true, StubOwner::answers());
        let (non_owner, req) = stub.non_owner(2_000);
        for _ in 0..10 {
            let (reply, _) = non_owner.handle_line(&req.to_line());
            assert!(
                matches!(Reply::from_line(&reply).unwrap(), Reply::Compile(_)),
                "{reply}"
            );
        }
        let stats = non_owner.stats();
        assert_eq!(stats.peer_forwards, 10);
        assert_eq!(
            stats.peer_failovers, 0,
            "a stale connection is not a down peer"
        );
        assert_eq!(stats.peers[0].state, "healthy");
        assert_eq!(stats.peer_dials, 11, "one redial per forward");
        assert_eq!(stub.accepted(), 11);
    }

    #[test]
    fn stalled_pooled_connection_fails_over_after_one_timeout() {
        // The stub answers the first compile and stalls on the second,
        // on the same pooled connection.
        let compiles = AtomicU64::new(0);
        let answers = StubOwner::answers();
        let stub = StubOwner::spawn(false, move |req| {
            let stall = req.op == "compile" && compiles.fetch_add(1, Ordering::SeqCst) == 1;
            if stall {
                None
            } else {
                answers(req)
            }
        });
        let timeout_ms = 500;
        let (non_owner, req) = stub.non_owner(timeout_ms);
        let (reply, _) = non_owner.handle_line(&req.to_line());
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
        let t0 = Instant::now();
        let (reply, _) = non_owner.handle_line(&req.to_line());
        let waited = t0.elapsed();
        assert!(
            matches!(Reply::from_line(&reply).unwrap(), Reply::Compile(r) if !r.cached),
            "the stall fails over to local compute: {reply}"
        );
        assert!(
            waited >= Duration::from_millis(timeout_ms),
            "failed over before the timeout: {waited:?}"
        );
        assert!(
            waited < Duration::from_millis(2 * timeout_ms),
            "a timed-out forward must not be retried: {waited:?}"
        );
        let stats = non_owner.stats();
        assert_eq!((stats.peer_forwards, stats.peer_failovers), (1, 1));
        assert_eq!(stats.peer_handoffs, 1);
        assert_eq!(
            stats.peer_dials, 2,
            "the boot probe's dial, then only the handoff's: no redial"
        );
    }

    /// Run `shutdown` over TCP against a server thread and wait for the
    /// thread to finish, failing if it takes a second or more.
    fn shutdown_joins_within_a_second(addr: SocketAddr, server: std::thread::JoinHandle<()>) {
        let mut idle = Client::connect(addr, 0, Duration::ZERO).expect("idle connection");
        idle.request(&Request::op("ping")).expect("ping");
        let mut client = Client::connect(addr, 0, Duration::ZERO).expect("connect");
        let t0 = Instant::now();
        client.shutdown().expect("shutdown ack");
        while !server.is_finished() {
            assert!(
                t0.elapsed() < Duration::from_secs(1),
                "server thread still running a second after shutdown"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        server.join().expect("server thread exits cleanly");
    }

    #[test]
    fn fresh_dials_are_accepted_without_a_poll_delay() {
        let (addr, server) = spawn_loopback(one_worker()).expect("spawn");
        let ping = Request::op("ping").to_line();
        // Warm up: the first dial may race the server thread's start.
        Client::connect(addr, 50, Duration::from_millis(10))
            .and_then(|mut c| c.send_line(&ping))
            .expect("server up");
        let t0 = Instant::now();
        for _ in 0..50 {
            let mut client = Client::connect(addr, 0, Duration::ZERO).expect("connect");
            client.send_line(&ping).expect("pong");
        }
        let took = t0.elapsed();
        assert!(
            took < Duration::from_millis(250),
            "50 fresh-dial pings took {took:?}"
        );
        shutdown_joins_within_a_second(addr, server);
    }

    #[test]
    fn idle_server_joins_promptly_after_shutdown() {
        let (addr, server) = spawn_loopback(one_worker()).expect("spawn");
        shutdown_joins_within_a_second(addr, server);

        // A wildcard listener is woken through loopback.
        let listener = TcpListener::bind("0.0.0.0:0").expect("bind wildcard");
        let port = listener.local_addr().expect("addr").port();
        let server = spawn_on(listener, one_worker());
        shutdown_joins_within_a_second(SocketAddr::from((Ipv4Addr::LOCALHOST, port)), server);
    }

    #[test]
    fn errors_carry_stage_provenance() {
        let server = Server::new(one_worker());
        // Inline graph that fails to parse → analyze stage.
        let (reply, _) = server.handle_line(
            &Request {
                op: "compile".to_string(),
                graph: Some("this is not a dfg".to_string()),
                ..Request::default()
            }
            .to_line(),
        );
        let Reply::Error(e) = Reply::from_line(&reply).unwrap() else {
            panic!("expected error: {reply}");
        };
        assert_eq!(e.stage.as_deref(), Some("analyze"));

        // pdef 0 selects nothing → schedule stage.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4","pdef":0}"#);
        let Reply::Error(e) = Reply::from_line(&reply).unwrap() else {
            panic!("expected error: {reply}");
        };
        assert_eq!(e.stage.as_deref(), Some("schedule"));

        // Protocol-level failures have no stage.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"no-such"}"#);
        let Reply::Error(e) = Reply::from_line(&reply).unwrap() else {
            panic!("expected error: {reply}");
        };
        assert_eq!(e.stage, None);
        assert_eq!(server.stats().errors, 3);
    }

    #[test]
    fn expired_deadline_is_refused_at_admission() {
        let server = Server::new(one_worker());
        let (reply, _) =
            server.handle_line(r#"{"op":"compile","workload":"fig4","deadline_ms":0,"id":11}"#);
        let Reply::Error(e) = Reply::from_line(&reply).unwrap() else {
            panic!("expected deadline refusal: {reply}");
        };
        assert_eq!(e.code.as_deref(), Some("deadline"));
        assert_eq!(e.id, Some(11));
        let stats = server.stats();
        assert_eq!(stats.deadline_exceeded, 1);
        assert_eq!(stats.errors, 1);
        // A generous deadline compiles normally.
        let (reply, _) =
            server.handle_line(r#"{"op":"compile","workload":"fig4","deadline_ms":60000}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(_)
        ));
    }

    #[test]
    fn injected_stage_failure_answers_and_does_not_poison() {
        let opts = ServeOptions {
            faults: FaultPlan {
                fail_stage: Some(mps::Stage::Select),
                ..FaultPlan::default()
            },
            ..one_worker()
        };
        let server = Server::new(opts);
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let Reply::Error(e) = Reply::from_line(&reply).unwrap() else {
            panic!("expected injected failure: {reply}");
        };
        assert_eq!(e.code.as_deref(), Some("cancelled"));
        assert_eq!(e.stage.as_deref(), Some("select"));
        // Transient: not cached, so the cache holds nothing.
        assert_eq!(server.stats().cached_artifacts, 0);
    }

    #[test]
    fn stdio_front_end_round_trips() {
        let server = Server::new(one_worker());
        let input = concat!(
            r#"{"op":"ping"}"#,
            "\n\n",
            r#"{"op":"compile","workload":"fig2","span":1}"#,
            "\n",
            r#"{"op":"shutdown"}"#,
            "\n",
            r#"{"op":"ping"}"#, // after shutdown: never read
            "\n",
        );
        let mut out = Vec::new();
        server.run_stdio(&mut input.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "blank skipped, post-shutdown unread");
        assert!(matches!(
            Reply::from_line(lines[0]).unwrap(),
            Reply::Pong(_)
        ));
        assert!(matches!(
            Reply::from_line(lines[1]).unwrap(),
            Reply::Compile(_)
        ));
        assert!(matches!(
            Reply::from_line(lines[2]).unwrap(),
            Reply::Shutdown(_)
        ));
    }

    /// A one-peer fleet whose peer is unroutable and faulted down, so no
    /// test ever really dials it. Returns the options and a compile
    /// request whose key the *peer* owns (found by walking `pdef` values
    /// through the same ring the server builds — deterministic, since
    /// content hashes are).
    fn downed_peer_fleet() -> (ServeOptions, Request) {
        let peer = "10.255.255.1:9".to_string();
        let advertise = "127.0.0.1:7070".to_string();
        let opts = ServeOptions {
            peers: vec![peer.clone()],
            advertise: advertise.clone(),
            // One probe round at boot, then quiet for the test's life.
            probe_interval_ms: 3_600_000,
            faults: FaultPlan {
                peer_down: Some(peer.clone()),
                ..FaultPlan::default()
            },
            ..one_worker()
        };
        let ring = crate::ring::PeerRing::new(&advertise, &[peer]);
        let graph = mps::workloads::fig4().content_hash();
        let req = (1..=16)
            .map(|pdef| {
                let mut r = Request::op("compile");
                r.workload = Some("fig4".to_string());
                r.pdef = Some(pdef);
                r
            })
            .find(|r| {
                let key = (graph, r.compile_config().unwrap().content_hash());
                matches!(ring.owner_of(key), crate::ring::Owner::Peer(_))
            })
            .expect("some pdef between 1 and 16 must be peer-owned");
        (opts, req)
    }

    #[test]
    fn owner_down_fails_over_to_local_compute() {
        let (opts, req) = downed_peer_fleet();
        let server = Server::new(opts);
        let (reply, _) = server.handle_line(&req.to_line());
        let Reply::Compile(first) = Reply::from_line(&reply).unwrap() else {
            panic!("failover must still answer: {reply}");
        };
        assert!(!first.cached);
        let stats = server.stats();
        assert_eq!(stats.peer_failovers, 1, "down owner forces a failover");
        assert_eq!(stats.peer_forwards, 0, "nothing was actually forwarded");
        assert_eq!(stats.peers.len(), 1);

        // The failover left a local replica: the same request again is a
        // plain cache hit, not another failover.
        let (reply, _) = server.handle_line(&req.to_line());
        let Reply::Compile(second) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(second.cached);
        assert_eq!(second.schedule, first.schedule);
        assert_eq!(server.stats().peer_failovers, 1);
    }

    #[test]
    fn forwarded_requests_always_compute_locally() {
        // The one-hop guarantee: a request carrying `forwarded: true`
        // never consults the ring, even when a peer owns its key.
        let (opts, mut req) = downed_peer_fleet();
        req.forwarded = true;
        let server = Server::new(opts);
        let (reply, _) = server.handle_line(&req.to_line());
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Compile(r) if !r.cached
        ));
        let stats = server.stats();
        assert_eq!((stats.peer_failovers, stats.peer_forwards), (0, 0));
    }

    #[test]
    fn peers_verb_reports_health_and_ownership() {
        let (opts, req) = downed_peer_fleet();
        let peer_addr = opts.peers[0].clone();
        let advertise = opts.advertise.clone();
        let server = Server::new(opts);
        let mut ask = req.clone();
        ask.op = "peers".to_string();
        ask.id = Some(5);
        let (reply, _) = server.handle_line(&ask.to_line());
        let Reply::Peers(p) = Reply::from_line(&reply).unwrap() else {
            panic!("expected peers reply: {reply}");
        };
        assert_eq!(p.id, Some(5));
        assert_eq!(p.advertise, advertise);
        assert_eq!(p.peers.len(), 1);
        assert_eq!(p.peers[0].addr, peer_addr);
        assert_eq!(
            p.owner.as_deref(),
            Some(peer_addr.as_str()),
            "the request was chosen to be peer-owned"
        );
        assert!(p.graph_hash.is_some() && p.config_hash.is_some());

        // Fleetless daemons still answer: they own everything.
        let server = Server::new(one_worker());
        let (reply, _) = server.handle_line(r#"{"op":"peers","workload":"fig4"}"#);
        let Reply::Peers(p) = Reply::from_line(&reply).unwrap() else {
            panic!("expected peers reply: {reply}");
        };
        assert_eq!(p.advertise, "");
        assert!(p.peers.is_empty());
        assert_eq!(p.owner.as_deref(), Some("local"));
    }

    #[test]
    fn artifact_put_and_get_replicate_between_servers() {
        let donor = Server::new(one_worker());
        let (reply, _) = donor.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let Reply::Compile(compiled) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        let (reply, _) = donor.handle_line(&format!(
            r#"{{"op":"artifact_get","graph_hash":"{}","config_hash":"{}"}}"#,
            compiled.graph_hash, compiled.config_hash
        ));
        let Reply::ArtifactGet(got) = Reply::from_line(&reply).unwrap() else {
            panic!("expected artifact_get reply: {reply}");
        };
        assert!(got.found);
        let artifact = got.artifact.expect("found implies an artifact line");

        // Push it into a cold server: first put seeds, second is a no-op,
        // and the compile that follows is a pure cache hit.
        let receiver = Server::new(one_worker());
        let mut put = Request::op("artifact_put");
        put.artifact = Some(artifact.clone());
        let (reply, _) = receiver.handle_line(&put.to_line());
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::ArtifactPut(p) if p.stored
        ));
        let (reply, _) = receiver.handle_line(&put.to_line());
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::ArtifactPut(p) if !p.stored
        ));
        let stats = receiver.stats();
        assert_eq!(stats.peer_handoffs_received, 1, "second put seeds nothing");
        let (reply, _) = receiver.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        let Reply::Compile(warm) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(warm.cached, "handed-off artifact must serve the compile");
        assert_eq!(warm.schedule, compiled.schedule);
        assert_eq!(receiver.stats().table_builds, 0);

        // A missing key is found:false, not an error.
        let (reply, _) = receiver.handle_line(
            r#"{"op":"artifact_get","graph_hash":"00000000000000aa","config_hash":"00000000000000bb"}"#,
        );
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::ArtifactGet(g) if !g.found && g.artifact.is_none()
        ));

        // Garbage envelopes and missing fields are structured errors.
        let (reply, _) =
            receiver.handle_line(r#"{"op":"artifact_put","artifact":"{\"magic\":\"nope\"}"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.error.contains("rejected artifact")
        ));
        let (reply, _) = receiver.handle_line(r#"{"op":"artifact_get"}"#);
        assert!(matches!(
            Reply::from_line(&reply).unwrap(),
            Reply::Error(e) if e.error.contains("graph_hash")
        ));
    }

    #[test]
    fn table_tier_persists_and_warm_starts_new_configs() {
        // The pattern table is shared across configs of one graph, so
        // persisting it lets a *restarted* server skip the expensive
        // enumeration even for configs it has never answered before.
        let dir = scratch_dir("tables");
        let opts = ServeOptions {
            cache_dir: Some(dir.clone()),
            ..one_worker()
        };
        {
            let server = Server::new(opts.clone());
            let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4","pdef":3}"#);
            assert!(matches!(
                Reply::from_line(&reply).unwrap(),
                Reply::Compile(_)
            ));
            let stats = server.stats();
            assert_eq!(stats.table_builds, 1);
            assert_eq!(stats.tables_persisted, 1, "built table lands on disk");
        } // drop = kill
        let server = Server::new(opts);
        let stats = server.stats();
        assert_eq!(stats.tables_loaded, 1, "persisted table reloads");
        // pdef 2 is a *different* artifact key over the *same* table key.
        let (reply, _) = server.handle_line(r#"{"op":"compile","workload":"fig4","pdef":2}"#);
        let Reply::Compile(fresh) = Reply::from_line(&reply).unwrap() else {
            panic!("expected compile reply: {reply}");
        };
        assert!(!fresh.cached, "new config misses the artifact cache");
        let stats = server.stats();
        assert_eq!(
            stats.table_builds, 0,
            "the compile must reuse the reloaded table"
        );
        assert_eq!(stats.table_cache_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_log_records_compiles() {
        let server = Server::new(one_worker());
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        struct SharedSink(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedSink {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        server.set_log(Box::new(SharedSink(Arc::clone(&log))));
        server.handle_line(r#"{"op":"compile","workload":"fig4"}"#);
        server.handle_line(r#"{"op":"shutdown"}"#);
        let text = String::from_utf8(log.lock().unwrap().clone()).unwrap();
        let events: Vec<_> = text.lines().collect();
        assert!(
            events.iter().any(|l| l.contains("\"event\":\"compile\"")),
            "{text}"
        );
        assert!(
            events.last().unwrap().contains("\"event\":\"shutdown\""),
            "{text}"
        );
        for line in events {
            crate::json::parse(line).expect("every log line is valid JSON");
        }
    }
}
