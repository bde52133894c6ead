//! The NDJSON wire protocol: request/reply types and their line codecs.
//!
//! Every message is one JSON object on one line. Requests carry an `op`
//! (`compile`, `stats`, `ping`, `shutdown`) plus op-specific fields; the
//! decoder is deliberately tolerant — unknown fields are ignored, every
//! field but `op` is optional — so clients can grow without breaking the
//! server. Replies always carry `ok` and echo `op` (and the request `id`,
//! when one was given), so a client multiplexing requests over one
//! connection can correlate them; failures are [`ErrorReply`] rows whose
//! `stage` field carries the [`mps::MpsError`] stage provenance when the
//! failure came from the compile pipeline.
//!
//! A compile request names its graph either by registry `workload` name
//! or inline as `graph` text in the [`mps::dfg::parse_text`] format
//! (newlines and all — the JSON string escaping keeps the line framing
//! intact). [`Request::compile_config`] is the **one** place a request
//! becomes a [`CompileConfig`], shared by the server and by tests that
//! pin server answers against direct [`mps::Session`] compiles.

use crate::json;
use mps::{CompileConfig, ScheduleEngine, SelectEngine};
use serde::{Deserialize, Serialize, Value};

use crate::histogram::Quantiles;

/// A decoded request line.
///
/// Only `op` is required on the wire. `span` distinguishes "absent"
/// (`None`: use the default, unlimited) from an explicit limit
/// (`Some(Some(n))`) and an explicit "unlimited" (`Some(None)`, spelled
/// `null` or `"none"` on the wire).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Request {
    /// The operation: `compile`, `stats`, `ping` or `shutdown`.
    pub op: String,
    /// Optional client-chosen correlation id, echoed in the reply.
    pub id: Option<u64>,
    /// Registry workload name (`compile` only; exclusive with `graph`).
    pub workload: Option<String>,
    /// Inline graph in the `mps_dfg::parse_text` format (`compile` only).
    pub graph: Option<String>,
    /// Number of patterns to select (`Pdef`; default 4).
    pub pdef: Option<usize>,
    /// ALUs per tile (`C`; default 5).
    pub capacity: Option<usize>,
    /// Enumeration span limit; see the struct docs for the encoding.
    pub span: Option<Option<u32>>,
    /// Selection engine name, as [`SelectEngine::parse`] spells them.
    pub engine: Option<String>,
    /// Finish with cycle-accurate tile replay on a tile with this many
    /// ALUs (`"alus": n` on the wire).
    pub alus: Option<usize>,
    /// Multi-tile fabric spec, as [`mps::FabricParams::parse`] spells
    /// them (`N[:alus,configs][@latency]` or per-tile `a,c+a,c[@latency]`).
    /// When set the compile runs the partition pipeline and `alus` is
    /// ignored (a fabric compile replays every tile).
    pub fabric: Option<String>,
    /// Compile deadline in milliseconds from receipt (`compile` only).
    /// The server refuses the request at admission if it would expire
    /// in the queue, and cancels the pipeline at the first stage
    /// boundary past the deadline.
    pub deadline_ms: Option<u64>,
    /// `true` when this compile was forwarded by a fleet peer. A
    /// forwarded request is always computed by its receiver — never
    /// re-forwarded — so a ring of daemons can never loop a request.
    pub forwarded: bool,
    /// The artifact envelope line being pushed (`artifact_put` only).
    pub artifact: Option<String>,
    /// Graph content hash, 16 hex digits (`artifact_get` only).
    pub graph_hash: Option<String>,
    /// Config content hash, 16 hex digits (`artifact_get` only).
    pub config_hash: Option<String>,
}

impl Request {
    /// A bare request with just an op, for the control verbs.
    pub fn op(op: &str) -> Request {
        Request {
            op: op.to_string(),
            ..Request::default()
        }
    }

    /// Decode one request line. Errors are human-readable strings (sent
    /// back verbatim in an [`ErrorReply`]).
    pub fn from_line(line: &str) -> Result<Request, String> {
        let mut value = json::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        let Value::Map(_) = &value else {
            return Err("request must be a JSON object".to_string());
        };
        let mut req = Request::default();
        match json::field(&value, "op") {
            Some(Value::Str(op)) => req.op = op.clone(),
            Some(_) => return Err("\"op\" must be a string".to_string()),
            None => return Err("missing \"op\" field".to_string()),
        }
        req.id = match json::field(&value, "id") {
            Some(Value::U64(n)) => Some(*n),
            None | Some(Value::Unit) => None,
            Some(_) => return Err("\"id\" must be an unsigned integer".to_string()),
        };
        req.forwarded = match json::field(&value, "forwarded") {
            Some(Value::Bool(b)) => *b,
            None | Some(Value::Unit) => false,
            Some(_) => return Err("\"forwarded\" must be a boolean".to_string()),
        };
        for (name, slot) in [
            ("workload", &mut req.workload),
            ("graph", &mut req.graph),
            ("fabric", &mut req.fabric),
            ("artifact", &mut req.artifact),
            ("graph_hash", &mut req.graph_hash),
            ("config_hash", &mut req.config_hash),
        ] {
            // Moved, not cloned: `graph` carries a whole inline graph.
            *slot = match json::take_field(&mut value, name) {
                Some(Value::Str(s)) => Some(s),
                None | Some(Value::Unit) => None,
                Some(_) => return Err(format!("\"{name}\" must be a string")),
            };
        }
        for (name, slot) in [
            ("pdef", &mut req.pdef),
            ("capacity", &mut req.capacity),
            ("alus", &mut req.alus),
        ] {
            *slot = match json::field(&value, name) {
                Some(Value::U64(n)) => Some(*n as usize),
                None | Some(Value::Unit) => None,
                Some(_) => return Err(format!("\"{name}\" must be an unsigned integer")),
            };
        }
        req.deadline_ms = match json::field(&value, "deadline_ms") {
            Some(Value::U64(n)) => Some(*n),
            None | Some(Value::Unit) => None,
            Some(_) => return Err("\"deadline_ms\" must be an unsigned integer".to_string()),
        };
        req.span = match json::field(&value, "span") {
            None => None,
            Some(Value::Unit) => Some(None),
            Some(Value::Str(s)) if s == "none" => Some(None),
            Some(Value::U64(n)) => Some(Some(*n as u32)),
            Some(_) => {
                return Err("\"span\" must be an unsigned integer, null or \"none\"".to_string())
            }
        };
        req.engine = match json::field(&value, "engine") {
            Some(Value::Str(s)) => Some(s.clone()),
            None | Some(Value::Unit) => None,
            Some(_) => return Err("\"engine\" must be a string".to_string()),
        };
        Ok(req)
    }

    /// Encode as one request line (set fields only, so lines stay short).
    pub fn to_line(&self) -> String {
        let mut fields = vec![("op".to_string(), Value::Str(self.op.clone()))];
        if let Some(id) = self.id {
            fields.push(("id".to_string(), Value::U64(id)));
        }
        if let Some(w) = &self.workload {
            fields.push(("workload".to_string(), Value::Str(w.clone())));
        }
        if let Some(g) = &self.graph {
            fields.push(("graph".to_string(), Value::Str(g.clone())));
        }
        if self.forwarded {
            fields.push(("forwarded".to_string(), Value::Bool(true)));
        }
        for (name, v) in [
            ("fabric", &self.fabric),
            ("artifact", &self.artifact),
            ("graph_hash", &self.graph_hash),
            ("config_hash", &self.config_hash),
        ] {
            if let Some(s) = v {
                fields.push((name.to_string(), Value::Str(s.clone())));
            }
        }
        for (name, v) in [
            ("pdef", self.pdef),
            ("capacity", self.capacity),
            ("alus", self.alus),
        ] {
            if let Some(n) = v {
                fields.push((name.to_string(), Value::U64(n as u64)));
            }
        }
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Value::U64(ms)));
        }
        match self.span {
            None => {}
            Some(None) => fields.push(("span".to_string(), Value::Str("none".to_string()))),
            Some(Some(n)) => fields.push(("span".to_string(), Value::U64(u64::from(n)))),
        }
        if let Some(e) = &self.engine {
            fields.push(("engine".to_string(), Value::Str(e.clone())));
        }
        json::write(&Value::Map(fields))
    }

    /// The [`CompileConfig`] this request describes — the single source
    /// of truth for request → config, shared with the equivalence tests.
    ///
    /// Per-request enumeration runs **sequential** (`parallel = false`):
    /// the server already fans out *across* requests, and nested
    /// parallelism would oversubscribe the worker pool.
    pub fn compile_config(&self) -> Result<CompileConfig, String> {
        let engine = match &self.engine {
            None => SelectEngine::default(),
            Some(name) => {
                SelectEngine::parse(name).ok_or_else(|| format!("unknown engine \"{name}\""))?
            }
        };
        let mut cfg = CompileConfig {
            engine,
            schedule: ScheduleEngine::default(),
            ..CompileConfig::default()
        };
        cfg.select.parallel = false;
        if let Some(pdef) = self.pdef {
            cfg.select.pdef = pdef;
        }
        if let Some(capacity) = self.capacity {
            cfg.select.capacity = capacity;
        }
        if let Some(span) = self.span {
            cfg.select.span_limit = span;
        }
        if let Some(alus) = self.alus {
            cfg.tile = Some(mps::montium::TileParams::with_alus(alus));
        }
        if let Some(spec) = &self.fabric {
            cfg.fabric = Some(
                mps::FabricParams::parse(spec)
                    .ok_or_else(|| format!("invalid fabric spec \"{spec}\""))?,
            );
        }
        Ok(cfg)
    }
}

/// Successful `compile` reply: the result rendered in the same stable
/// textual forms the CLI prints (patterns and schedule as strings), plus
/// the cache identity and whether this request hit the artifact cache.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CompileReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `"compile"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Workload name, or `"inline"` for `graph`-payload requests.
    pub workload: String,
    /// Graph content hash (hex), half of the artifact-cache key.
    pub graph_hash: String,
    /// Config content hash (hex), the other half.
    pub config_hash: String,
    /// Selection engine that ran.
    pub engine: String,
    /// `true` when the result came from the artifact cache.
    pub cached: bool,
    /// End-to-end server-side latency of this request, seconds.
    pub latency_sec: f64,
    /// Selected patterns, one rendered pattern per entry.
    pub patterns: Vec<String>,
    /// Schedule length in cycles.
    pub cycles: u64,
    /// The schedule, rendered one cycle per line.
    pub schedule: String,
    /// Achieved initiation interval (modulo scheduling only).
    pub ii: Option<u64>,
    /// Pattern reconfigurations (switch-aware scheduling only).
    pub switches: Option<u64>,
    /// Tile-replay cycle count, when the request asked for `alus`.
    pub exec_cycles: Option<u64>,
    /// Tiles in the fabric mapping (fabric compiles only).
    #[serde(default)]
    pub fabric_tiles: Option<u64>,
    /// Inter-tile transfers in the fabric mapping (fabric compiles only).
    #[serde(default)]
    pub fabric_transfers: Option<u64>,
    /// Fabric makespan on the shared global clock (fabric compiles only).
    #[serde(default)]
    pub fabric_cycles: Option<u64>,
}

/// `stats` reply: request/cache counters, aggregated compile metrics and
/// per-stage latency quantiles since boot.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StatsReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `"stats"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Seconds since the server booted.
    pub uptime_sec: f64,
    /// Total requests handled (control verbs included).
    pub requests: u64,
    /// Compile requests handled.
    pub compiles: u64,
    /// Requests answered with an error reply.
    pub errors: u64,
    /// Compile requests answered from the artifact cache.
    pub artifact_cache_hits: u64,
    /// Compile requests that ran the pipeline (including failures).
    pub artifact_cache_misses: u64,
    /// Distinct artifacts currently cached.
    pub cached_artifacts: u64,
    /// Distinct pattern tables in the shared table cache.
    pub cached_tables: u64,
    /// Pattern tables actually built (from aggregated [`mps::StageMetrics`]).
    pub table_builds: u64,
    /// Enumerate stages served from a table cache.
    pub table_cache_hits: u64,
    /// Compile requests shed because the admission queue was full.
    pub sheds: u64,
    /// Requests that ran out of deadline (at admission, waiting on an
    /// in-flight identical compile, or inside the pipeline).
    pub deadline_exceeded: u64,
    /// Artifacts loaded from the `--cache-dir` store at boot (0 without
    /// a cache directory).
    pub artifacts_loaded: u64,
    /// Artifacts persisted to the `--cache-dir` store since boot.
    pub artifacts_persisted: u64,
    /// Cache-dir files rejected at boot (corrupt, truncated, version or
    /// key mismatch) and skipped.
    pub load_rejected: u64,
    /// Artifact-cache entries evicted by the budget since boot.
    pub artifact_evictions: u64,
    /// Pattern-table cache entries evicted by the budget since boot.
    pub table_evictions: u64,
    /// Compile requests sitting in the admission queue right now.
    pub queue_depth: u64,
    /// Worker threads compiling.
    pub workers: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Pattern tables persisted to the `--cache-dir` store since boot.
    pub tables_persisted: u64,
    /// Pattern tables loaded from the `--cache-dir` store at boot.
    pub tables_loaded: u64,
    /// Compiles forwarded to their fleet owner and answered by it.
    pub peer_forwards: u64,
    /// Fresh TCP connections opened to fleet peers. Forwards, probes and
    /// handoffs reuse pooled connections, so this stays near one per
    /// peer per concurrent caller; a climbing count means peers keep
    /// closing or failing connections.
    #[serde(default)]
    pub peer_dials: u64,
    /// Compiles computed locally because their owner was down, past the
    /// forward deadline, or still shedding after its retry hint.
    pub peer_failovers: u64,
    /// Completed non-owned compiles pushed to their owner post-reply.
    pub peer_handoffs: u64,
    /// Artifacts accepted from fleet peers via `artifact_put`.
    pub peer_handoffs_received: u64,
    /// Fleet ring size this daemon budgets for (1 when standalone) —
    /// the divisor behind the `effective_*` fields.
    #[serde(default)]
    pub ring_size: u64,
    /// Fleet-scaled artifact-cache entry budget actually enforced
    /// (`--max-artifacts` ÷ ring, ceiling; `None` = unbounded).
    #[serde(default)]
    pub effective_max_artifacts: Option<u64>,
    /// Fleet-scaled artifact-cache byte budget actually enforced.
    #[serde(default)]
    pub effective_artifact_bytes: Option<u64>,
    /// Fleet-scaled pattern-table entry budget actually enforced.
    #[serde(default)]
    pub effective_max_tables: Option<u64>,
    /// Fleet-scaled pattern-table byte budget actually enforced.
    #[serde(default)]
    pub effective_table_bytes: Option<u64>,
    /// Per-peer health, address-sorted (empty without `--peer`).
    pub peers: Vec<PeerInfo>,
    /// Summed per-stage wall times across all actual compiles.
    pub totals: MetricsTotals,
    /// Per-stage latency quantiles.
    pub latency: LatencyStats,
}

/// Wall-time sums over every actual (non-cached) compile, from the
/// server's [`mps::SharedStageMetrics`] aggregate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsTotals {
    /// Analysis, seconds.
    pub analyze_sec: f64,
    /// Enumeration, seconds.
    pub enumerate_sec: f64,
    /// Selection, seconds.
    pub select_sec: f64,
    /// Fabric partitioning, seconds.
    #[serde(default)]
    pub partition_sec: f64,
    /// Scheduling, seconds.
    pub schedule_sec: f64,
    /// Tile replay, seconds.
    pub map_tile_sec: f64,
    /// Antichains classified.
    pub antichains: u64,
}

/// The serving histograms, summarized.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// End-to-end compile-request latency (cache hits included).
    pub total: Quantiles,
    /// End-to-end latency of accepted (non-cached) compiles only — the
    /// population the shed `retry_after_ms` hint is derived from.
    pub accepted: Quantiles,
    /// Admission-queue wait of compile requests: admitted → dequeued by
    /// a worker.
    #[serde(default)]
    pub queue_wait: Quantiles,
    /// Write-behind persistence lag per saved artifact or table: handed
    /// to the persister → renamed into place.
    #[serde(default)]
    pub persist: Quantiles,
    /// Enumeration stage of actual compiles.
    pub enumerate: Quantiles,
    /// Selection stage of actual compiles.
    pub select: Quantiles,
    /// Scheduling stage of actual compiles.
    pub schedule: Quantiles,
}

/// `ping` reply: liveness plus a cheap health gauge.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PongReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `"ping"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Seconds since the server booted.
    pub uptime_sec: f64,
    /// Compile requests sitting in the admission queue right now.
    pub queue_depth: u64,
}

/// One fleet peer's health, as `stats` and `peers` report it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeerInfo {
    /// Peer address as configured via `--peer`.
    pub addr: String,
    /// Health state: `"healthy"`, `"probation"` or `"ejected"`.
    pub state: String,
    /// Consecutive failures since the peer's last success.
    pub consecutive_failures: u64,
    /// Lifetime failed dials/requests/probes.
    pub total_failures: u64,
    /// Lifetime successful dials/requests/probes.
    pub total_successes: u64,
}

/// `peers` reply: the fleet as this daemon sees it. When the request
/// carries compile-shaped fields (`workload`/`graph` and config knobs),
/// the reply also names the rendezvous **owner** of that key — how a
/// script finds which daemon to warm, kill, or blame.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PeersReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `"peers"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// The address this daemon advertises to its peers (empty when the
    /// daemon runs fleetless).
    pub advertise: String,
    /// Per-peer health, address-sorted.
    pub peers: Vec<PeerInfo>,
    /// Rendezvous owner of the requested key, when one was asked about.
    pub owner: Option<String>,
    /// Graph content hash of the requested key (hex), when asked.
    pub graph_hash: Option<String>,
    /// Config content hash of the requested key (hex), when asked.
    pub config_hash: Option<String>,
}

/// `artifact_put` acknowledgement: whether the pushed artifact was
/// seeded (false = the receiver already held that key).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArtifactPutReply {
    /// Always `true` (a rejected envelope is an [`ErrorReply`]).
    pub ok: bool,
    /// Always `"artifact_put"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// `true` when the artifact was admitted into the receiver's cache.
    pub stored: bool,
}

/// `artifact_get` reply: the artifact envelope line for a key, if the
/// server holds it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArtifactGetReply {
    /// Always `true` (missing keys are `found: false`, not errors).
    pub ok: bool,
    /// Always `"artifact_get"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Whether the server holds a successful result for the key.
    pub found: bool,
    /// The full artifact envelope line, when found.
    pub artifact: Option<String>,
}

/// `shutdown` acknowledgement — sent before the server drains and exits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShutdownReply {
    /// Always `true`.
    pub ok: bool,
    /// Always `"shutdown"`.
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
}

/// Any failure, from JSON syntax up through the compile pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Always `false`.
    pub ok: bool,
    /// Echo of the request op (`"?"` when the line didn't decode).
    pub op: String,
    /// Echo of the request id.
    pub id: Option<u64>,
    /// Human-readable failure description.
    pub error: String,
    /// Pipeline stage provenance (`"analyze"`, `"enumerate"`, `"select"`,
    /// `"schedule"`, `"map-tile"`) when the failure was an
    /// [`mps::MpsError`]; `null` for protocol-level failures.
    pub stage: Option<String>,
    /// Machine-readable failure class, when one applies:
    /// `"overloaded"` (shed at admission — retry after
    /// `retry_after_ms`), `"deadline"` (the request's `deadline_ms`
    /// ran out), `"cancelled"` (the compile was cancelled mid-flight),
    /// `"internal"` (a worker panicked). `null` for ordinary protocol
    /// and pipeline errors.
    pub code: Option<String>,
    /// For `"overloaded"` sheds: a hint in milliseconds after which a
    /// retry has a decent chance of being admitted.
    pub retry_after_ms: Option<u64>,
}

impl ErrorReply {
    /// A protocol-level error (no pipeline stage).
    pub fn protocol(op: &str, id: Option<u64>, error: String) -> ErrorReply {
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error,
            stage: None,
            code: None,
            retry_after_ms: None,
        }
    }

    /// A pipeline error, carrying the [`mps::MpsError`] stage (and the
    /// `"deadline"` / `"cancelled"` code for the transient variants).
    pub fn pipeline(op: &str, id: Option<u64>, error: &mps::MpsError) -> ErrorReply {
        let code = match error {
            mps::MpsError::DeadlineExceeded { .. } => Some("deadline".to_string()),
            mps::MpsError::Cancelled { .. } => Some("cancelled".to_string()),
            _ => None,
        };
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error: error.to_string(),
            stage: Some(error.stage().to_string()),
            code,
            retry_after_ms: None,
        }
    }

    /// A load shed: the admission queue is full. Carries the retry
    /// hint; the client backoff honors it.
    pub fn overloaded(op: &str, id: Option<u64>, retry_after_ms: u64) -> ErrorReply {
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error: "server overloaded; retry later".to_string(),
            stage: None,
            code: Some("overloaded".to_string()),
            retry_after_ms: Some(retry_after_ms),
        }
    }

    /// A deadline failure outside the pipeline (expired in the queue,
    /// or while waiting on an identical in-flight compile).
    pub fn deadline(op: &str, id: Option<u64>, error: String) -> ErrorReply {
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error,
            stage: None,
            code: Some("deadline".to_string()),
            retry_after_ms: None,
        }
    }

    /// The server is draining after a `shutdown` and no longer admits
    /// compiles. Carries a machine-readable code so a forwarding fleet
    /// member can distinguish "this peer is going away" (fail over)
    /// from an ordinary compile error (return verbatim).
    pub fn shutting_down(op: &str, id: Option<u64>) -> ErrorReply {
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error: "server is shutting down".to_string(),
            stage: None,
            code: Some("shutting_down".to_string()),
            retry_after_ms: None,
        }
    }

    /// An internal server failure (a worker panicked); the request is
    /// answered rather than left hanging.
    pub fn internal(op: &str, id: Option<u64>, error: String) -> ErrorReply {
        ErrorReply {
            ok: false,
            op: op.to_string(),
            id,
            error,
            stage: None,
            code: Some("internal".to_string()),
            retry_after_ms: None,
        }
    }
}

/// A decoded reply line.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// A successful compile.
    Compile(CompileReply),
    /// A stats snapshot.
    Stats(Box<StatsReply>),
    /// A ping acknowledgement.
    Pong(PongReply),
    /// A fleet membership / key-ownership snapshot.
    Peers(PeersReply),
    /// An artifact push acknowledgement.
    ArtifactPut(ArtifactPutReply),
    /// An artifact fetch result.
    ArtifactGet(ArtifactGetReply),
    /// A shutdown acknowledgement.
    Shutdown(ShutdownReply),
    /// Any failure.
    Error(ErrorReply),
}

impl Reply {
    /// Decode one reply line into the matching typed reply.
    pub fn from_line(line: &str) -> Result<Reply, String> {
        let value = json::parse(line).map_err(|e| format!("invalid JSON reply: {e}"))?;
        let ok = matches!(json::field(&value, "ok"), Some(Value::Bool(true)));
        let op = match json::field(&value, "op") {
            Some(Value::Str(op)) => op.clone(),
            _ => return Err("reply missing \"op\"".to_string()),
        };
        let decode_err = |e: serde::ValueError| format!("malformed {op} reply: {e}");
        if !ok {
            return Ok(Reply::Error(serde::from_value(value).map_err(decode_err)?));
        }
        match op.as_str() {
            "compile" => Ok(Reply::Compile(
                serde::from_value(value).map_err(decode_err)?,
            )),
            "stats" => Ok(Reply::Stats(Box::new(
                serde::from_value(value).map_err(decode_err)?,
            ))),
            "ping" => Ok(Reply::Pong(serde::from_value(value).map_err(decode_err)?)),
            "peers" => Ok(Reply::Peers(serde::from_value(value).map_err(decode_err)?)),
            "artifact_put" => Ok(Reply::ArtifactPut(
                serde::from_value(value).map_err(decode_err)?,
            )),
            "artifact_get" => Ok(Reply::ArtifactGet(
                serde::from_value(value).map_err(decode_err)?,
            )),
            "shutdown" => Ok(Reply::Shutdown(
                serde::from_value(value).map_err(decode_err)?,
            )),
            other => Err(format!("unknown reply op \"{other}\"")),
        }
    }
}

/// Encode any serializable reply as one line.
pub fn encode<T: Serialize>(reply: &T) -> String {
    json::write(&serde::to_value(reply))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_lines() {
        let req = Request {
            op: "compile".to_string(),
            id: Some(7),
            workload: Some("fig2".to_string()),
            graph: None,
            pdef: Some(3),
            capacity: Some(5),
            span: Some(Some(1)),
            engine: Some("eq8".to_string()),
            alus: None,
            fabric: Some("2:5,32@1".to_string()),
            deadline_ms: Some(250),
            forwarded: false,
            artifact: None,
            graph_hash: None,
            config_hash: None,
        };
        let line = req.to_line();
        assert!(!line.contains('\n'));
        assert_eq!(Request::from_line(&line).unwrap(), req);

        // The forwarded flag survives the wire, and an unset flag is
        // omitted so old daemons keep parsing new clients.
        let fwd = Request {
            forwarded: true,
            ..req.clone()
        };
        let line = fwd.to_line();
        assert!(line.contains("\"forwarded\":true"));
        assert_eq!(Request::from_line(&line).unwrap(), fwd);
        assert!(!req.to_line().contains("forwarded"));
        let r = Request::from_line(r#"{"op":"compile","forwarded":null}"#).unwrap();
        assert!(!r.forwarded);
        assert!(Request::from_line(r#"{"op":"compile","forwarded":3}"#)
            .unwrap_err()
            .contains("forwarded"));

        // span: "none" and span: null both decode as explicit-unlimited.
        let r = Request::from_line(r#"{"op":"compile","span":"none"}"#).unwrap();
        assert_eq!(r.span, Some(None));
        let r = Request::from_line(r#"{"op":"compile","span":null}"#).unwrap();
        assert_eq!(r.span, Some(None));
        // Absent span stays absent.
        let r = Request::from_line(r#"{"op":"compile"}"#).unwrap();
        assert_eq!(r.span, None);
    }

    #[test]
    fn decoder_is_tolerant_and_typed() {
        // Unknown fields ignored.
        let r = Request::from_line(r#"{"op":"ping","future_field":[1,2]}"#).unwrap();
        assert_eq!(r.op, "ping");
        // Missing op / wrong types rejected with useful messages.
        assert!(Request::from_line(r#"{}"#).unwrap_err().contains("op"));
        assert!(Request::from_line(r#"{"op":"compile","pdef":"three"}"#)
            .unwrap_err()
            .contains("pdef"));
        assert!(
            Request::from_line(r#"{"op":"compile","deadline_ms":"soon"}"#)
                .unwrap_err()
                .contains("deadline_ms")
        );
        assert!(Request::from_line("not json").unwrap_err().contains("JSON"));
        assert!(Request::from_line("[1]").unwrap_err().contains("object"));
    }

    #[test]
    fn graph_payload_with_newlines_stays_one_line() {
        let req = Request {
            op: "compile".to_string(),
            graph: Some("node a red\nnode b red\nedge a b\n".to_string()),
            ..Request::default()
        };
        let line = req.to_line();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Request::from_line(&line).unwrap().graph, req.graph);
    }

    #[test]
    fn compile_config_reflects_request_fields() {
        let req = Request::from_line(
            r#"{"op":"compile","workload":"fig2","pdef":3,"capacity":4,"span":2,"engine":"node-cover","alus":6}"#,
        )
        .unwrap();
        let cfg = req.compile_config().unwrap();
        assert_eq!(cfg.select.pdef, 3);
        assert_eq!(cfg.select.capacity, 4);
        assert_eq!(cfg.select.span_limit, Some(2));
        assert!(
            !cfg.select.parallel,
            "per-request enumeration is sequential"
        );
        assert_eq!(cfg.engine, SelectEngine::NodeCover);
        assert!(cfg.tile.is_some());
        assert_eq!(cfg.fabric, None);

        // A fabric spec flows into the config; a bad one is an error.
        let req =
            Request::from_line(r#"{"op":"compile","workload":"fig2","fabric":"3@2"}"#).unwrap();
        let cfg = req.compile_config().unwrap();
        let fabric = cfg.fabric.expect("fabric parsed");
        assert_eq!(fabric.tile_count(), 3);
        assert_eq!(fabric.interconnect.transfer_latency, 2);
        let mut bad = Request::op("compile");
        bad.fabric = Some("0".to_string());
        assert!(bad.compile_config().unwrap_err().contains("fabric"));

        // Defaults when nothing is set.
        let cfg = Request::op("compile").compile_config().unwrap();
        assert_eq!(cfg.select.pdef, 4);
        assert_eq!(cfg.select.span_limit, None);
        assert_eq!(cfg.tile, None);

        // Unknown engines are a decode-time error message.
        let mut bad = Request::op("compile");
        bad.engine = Some("quantum".to_string());
        assert!(bad.compile_config().unwrap_err().contains("quantum"));
    }

    #[test]
    fn replies_round_trip_and_decode_by_op() {
        let reply = CompileReply {
            ok: true,
            op: "compile".to_string(),
            id: Some(9),
            workload: "fig2".to_string(),
            graph_hash: "00ff".to_string(),
            config_hash: "a0b1".to_string(),
            engine: "eq8".to_string(),
            cached: true,
            latency_sec: 0.25,
            patterns: vec!["{bb}".to_string(), "{a}".to_string()],
            cycles: 5,
            schedule: "cycle 0: ...".to_string(),
            ii: None,
            switches: None,
            exec_cycles: Some(7),
            fabric_tiles: Some(2),
            fabric_transfers: Some(3),
            fabric_cycles: Some(11),
        };
        let line = encode(&reply);
        assert_eq!(Reply::from_line(&line).unwrap(), Reply::Compile(reply));

        let err = ErrorReply::pipeline(
            "compile",
            None,
            &mps::MpsError::from(mps::dfg::parse_text("garbage").unwrap_err()),
        );
        let line = encode(&err);
        match Reply::from_line(&line).unwrap() {
            Reply::Error(e) => {
                assert_eq!(e.stage.as_deref(), Some("analyze"));
                assert!(e.error.contains("analyze stage"));
                assert_eq!(e.code, None, "ordinary pipeline errors have no code");
            }
            other => panic!("expected error reply, got {other:?}"),
        }
    }

    #[test]
    fn fleet_replies_round_trip_and_decode_by_op() {
        let peers = PeersReply {
            ok: true,
            op: "peers".to_string(),
            id: Some(3),
            advertise: "127.0.0.1:9001".to_string(),
            peers: vec![PeerInfo {
                addr: "127.0.0.1:9002".to_string(),
                state: "probation".to_string(),
                consecutive_failures: 1,
                total_failures: 4,
                total_successes: 120,
            }],
            owner: Some("127.0.0.1:9002".to_string()),
            graph_hash: Some("00ff00ff00ff00ff".to_string()),
            config_hash: Some("a0b1a0b1a0b1a0b1".to_string()),
        };
        let line = encode(&peers);
        assert_eq!(Reply::from_line(&line).unwrap(), Reply::Peers(peers));

        let put = ArtifactPutReply {
            ok: true,
            op: "artifact_put".to_string(),
            id: None,
            stored: true,
        };
        let line = encode(&put);
        assert_eq!(Reply::from_line(&line).unwrap(), Reply::ArtifactPut(put));

        let get = ArtifactGetReply {
            ok: true,
            op: "artifact_get".to_string(),
            id: Some(8),
            found: false,
            artifact: None,
        };
        let line = encode(&get);
        assert_eq!(Reply::from_line(&line).unwrap(), Reply::ArtifactGet(get));
    }

    #[test]
    fn structured_failure_codes_round_trip() {
        let shed = ErrorReply::overloaded("compile", Some(4), 120);
        let line = encode(&shed);
        match Reply::from_line(&line).unwrap() {
            Reply::Error(e) => {
                assert_eq!(e.code.as_deref(), Some("overloaded"));
                assert_eq!(e.retry_after_ms, Some(120));
                assert_eq!(e.id, Some(4));
            }
            other => panic!("expected shed reply, got {other:?}"),
        }

        // Transient pipeline failures carry both a stage and a code.
        let err = ErrorReply::pipeline(
            "compile",
            None,
            &mps::MpsError::DeadlineExceeded {
                stage: mps::Stage::Enumerate,
            },
        );
        assert_eq!(err.code.as_deref(), Some("deadline"));
        assert_eq!(err.stage.as_deref(), Some("enumerate"));
        let err = ErrorReply::pipeline(
            "compile",
            None,
            &mps::MpsError::Cancelled {
                stage: mps::Stage::Select,
            },
        );
        assert_eq!(err.code.as_deref(), Some("cancelled"));

        let err = ErrorReply::deadline("compile", None, "expired in queue".to_string());
        assert_eq!((err.code.as_deref(), err.stage), (Some("deadline"), None));
        let err = ErrorReply::internal("compile", Some(1), "worker panicked".to_string());
        assert_eq!(err.code.as_deref(), Some("internal"));
    }
}
