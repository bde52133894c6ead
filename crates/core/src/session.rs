//! The staged compiler session: one graph, typed stage artifacts, cached
//! pattern tables, pluggable engines, batch fan-out.
//!
//! [`Session`] is the top-level API of the reproduction-turned-compiler.
//! Where [`mps_select::select_and_schedule`] runs the paper's pipeline
//! once, front to back, a session exposes the pipeline as **stages** —
//!
//! ```text
//! Session::new(dfg) → .analyze() → .enumerate(span) → .select(engine)
//!                   → .schedule(engine) → .map_tile(params) → .finish()
//! ```
//!
//! — each returning a typed artifact ([`Analysis`], [`Enumerated`],
//! [`Selected`], [`Scheduled`], [`Mapped`]) that borrows the session, so
//! stages can only run in order and intermediate results are inspectable
//! at every step. The session caches each [`PatternTable`] it builds,
//! keyed by capacity + span limit: the dominant cost of a compile is the
//! §5.1 enumeration, and repeated selects over the same graph (`Pdef`
//! sweeps, engine comparisons, re-serving a hot kernel) skip it entirely
//! — [`StageMetrics::table_cache_hits`] counts exactly when.
//!
//! One cache type, [`SingleFlightCache`](crate::cache::SingleFlightCache),
//! backs both expensive products, in two instances: the [`TableCache`]
//! every session holds (private, or process-wide via
//! [`Session::with_shared_tables`]), and the serving layer's cache of
//! whole [`CompileResult`]s.
//!
//! [`Session::compile`] runs all stages per the session's
//! [`CompileConfig`]; [`Session::compile_batch`] fans whole compiles over
//! the [`mps_par`] substrate, one [`CompileResult`] (with per-stage wall
//! times and counters) per input graph. Every failure anywhere in a
//! session is one error type, [`MpsError`], tagged with its stage.

use crate::cache::{CacheBudget, SingleFlightCache};
use crate::error::{MpsError, Stage};
pub use crate::metrics::StageMetrics;
use mps_dfg::{AnalyzedDfg, Dfg};
use mps_fabric::{FabricError, FabricMapping, FabricParams};
use mps_montium::{execute, ExecReport, TileParams};
use mps_par::CancelToken;
use mps_patterns::{EnumerateConfig, PatternSet, PatternTable};
use mps_scheduler::{EngineSchedule, Schedule, ScheduleEngine, ScheduleTrace};
use mps_select::{GeneticConfig, SelectConfig, SelectEngine, SelectionOutcome};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of a whole staged compile: selection parameters, the two
/// engine choices, and the optional tile-replay stage.
///
/// The default is the paper's flow — Eq. 8 selection (cover engine), the
/// Fig. 3 list scheduler, paper constants, no tile replay.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct CompileConfig {
    /// Selection parameters (`Pdef`, capacity, span limit, Eq. 8
    /// constants, parallelism policy). The span limit doubles as the
    /// enumeration span of [`Session::compile`].
    pub select: SelectConfig,
    /// The pattern-selection strategy.
    pub engine: SelectEngine,
    /// The scheduling strategy.
    pub schedule: ScheduleEngine,
    /// When set, [`Session::compile`] finishes with a cycle-accurate
    /// replay on this tile ([`CompileResult::exec`]). Ignored when
    /// `fabric` is set — a fabric compile replays every tile.
    pub tile: Option<TileParams>,
    /// When set, [`Session::compile`] runs the multi-tile pipeline:
    /// `… select → partition → schedule → map-tile`, cutting the graph
    /// across the fabric's tiles, scheduling each slice on its own tile
    /// (transfer-aware), and replaying all of them into
    /// [`CompileResult::fabric`]. Requires the list scheduling engine.
    pub fabric: Option<FabricParams>,
}

impl CompileConfig {
    /// A stable 64-bit content hash of the whole configuration — every
    /// selection parameter, both engine choices (including their nested
    /// configs), and the tile stage.
    ///
    /// Together with [`mps_dfg::Dfg::content_hash`] this is the artifact
    /// identity the serving layer caches compiles under: equal hashes ⇔
    /// equal configs (modulo 64-bit collision). Implemented as FNV-1a
    /// over the derived `Debug` rendering, which faithfully spells out
    /// every field of every nested config — including `f64`s, which
    /// `Debug` prints with shortest-round-trip precision, so distinct
    /// values never collapse to one rendering.
    ///
    /// The `fabric` field only enters the rendering when it is `Some`:
    /// a `fabric: None` config hashes exactly as it did before the field
    /// existed, so every pre-fabric artifact on disk (keyed by this
    /// hash) stays addressable. Pinned by the `pre_fabric_*` fixtures.
    ///
    /// A genetic engine renders the retired `parallel: true` field its
    /// config always carried by default, so genetic keys minted before
    /// the field was removed stay addressable too.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let CompileConfig {
            select,
            engine,
            schedule,
            tile,
            fabric,
        } = self;
        let engine = match engine {
            // No `..`: a field added later must decide its rendering here.
            SelectEngine::Genetic(GeneticConfig {
                population,
                generations,
                tournament,
                mutation_pct,
                seed,
            }) => format!(
                "Genetic(GeneticConfig {{ population: {population:?}, \
                 generations: {generations:?}, tournament: {tournament:?}, \
                 mutation_pct: {mutation_pct:?}, seed: {seed:?}, parallel: true }})"
            ),
            other => format!("{other:?}"),
        };
        let fabric = match fabric {
            None => String::new(),
            Some(_) => format!(", fabric: {fabric:?}"),
        };
        let rendered = format!(
            "CompileConfig {{ select: {select:?}, engine: {engine}, \
             schedule: {schedule:?}, tile: {tile:?}{fabric} }}"
        );
        let mut h = OFFSET;
        for b in rendered.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
}

/// Cache key of one pattern table: everything
/// [`PatternTable::build`]'s output depends on besides the graph.
/// Parallel and sequential builds are bit-identical (the `prop_table`
/// suite pins that), so both kinds of request share one table.
///
/// Public because the persistent table tier ([`crate::artifact`]) names
/// each `pt-*.json` file by the graph hash plus
/// [`TableKey::content_hash`], and seeding a [`TableCache`] from disk
/// needs to reconstruct the exact key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TableKey {
    /// ALUs per tile (`C`), bounding pattern size during enumeration.
    pub capacity: usize,
    /// Enumeration span limit (`None` = unlimited).
    pub span: Option<u32>,
}

impl TableKey {
    /// A stable 64-bit content hash of the key — FNV-1a over the derived
    /// `Debug` rendering, the same recipe as
    /// [`CompileConfig::content_hash`]. This is the second half of a
    /// persistent table artifact's identity (the first is the graph's
    /// [`content_hash`](mps_dfg::Dfg::content_hash)).
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        for b in format!("{self:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(PRIME);
        }
        h
    }
}

/// The single-flight pattern-table cache: a [`SingleFlightCache`] keyed
/// by `(graph content hash, TableKey)` and charged
/// [`crate::size::approx_table_bytes`] per table, plus a post-build
/// persistence hook.
///
/// Every [`Session`] reads and populates one. [`Session::new`] and
/// [`Session::with_config`] give the session a private, unbounded
/// instance; [`Session::with_shared_tables`] hands it a **process-wide**
/// one, so short-lived sessions over recurring graphs (the serving shape)
/// skip the dominant cost. Population is single-flight: when N sessions
/// race on one key, one builds and N−1 block until the table is
/// published, so a burst of identical requests costs one enumeration
/// ([`Session::metrics`] shows one `table_builds` total across them). A
/// build that is cancelled or panics abandons its slot, so a failed
/// first flight never poisons the key.
///
/// Create with [`TableCache::new`] (unbounded) or
/// [`TableCache::with_budget`]. Budgets apply to published tables, evicted
/// least-recently-used first; in-flight builds are never evicted, and
/// sessions already holding an `Arc` keep their table.
pub struct TableCache {
    tables: SingleFlightCache<(u64, TableKey), PatternTable>,
    /// Post-publish hook for freshly built tables (persistence).
    hook: Mutex<Option<TableBuildHook>>,
}

/// Hook run after a freshly *built* table is published — not on cache
/// hits, and not on seeds (those came from persistence in the first
/// place). Receives the graph content hash, the table's [`TableKey`] and
/// the published table. Must not call back into the cache.
pub type TableBuildHook = Arc<dyn Fn(u64, TableKey, &Arc<PatternTable>) + Send + Sync>;

impl fmt::Debug for TableCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TableCache")
            .field("tables", &self.tables)
            .finish_non_exhaustive()
    }
}

impl Default for TableCache {
    fn default() -> TableCache {
        TableCache::new()
    }
}

impl TableCache {
    /// An empty, unbounded cache.
    pub fn new() -> TableCache {
        TableCache::with_budget(None, None)
    }

    /// An empty cache with eviction budgets: at most `max_entries` ready
    /// tables and/or `max_bytes` total approximate bytes (`None` =
    /// unbounded in that dimension).
    pub fn with_budget(max_entries: Option<usize>, max_bytes: Option<usize>) -> TableCache {
        let budget = CacheBudget {
            max_entries,
            max_bytes,
        };
        TableCache {
            tables: SingleFlightCache::new(budget, crate::size::approx_table_bytes),
            hook: Mutex::new(None),
        }
    }

    /// Number of tables (and in-flight builds) currently cached.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// `true` if nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Ready tables evicted to stay within budget since construction.
    pub fn evictions(&self) -> u64 {
        self.tables.evictions()
    }

    /// Install (or replace) the post-build hook. The serving layer uses
    /// this to persist freshly built tables; hits and seeds don't fire
    /// it, so a table loaded from disk is never re-persisted.
    pub fn set_build_hook(&self, hook: TableBuildHook) {
        *self.hook.lock().expect("table hook poisoned") = Some(hook);
    }

    /// Insert an already-built table — the warm-start path, fed from
    /// [`crate::artifact::ArtifactStore::load_tables`]. An existing
    /// entry (ready *or* in-flight) wins and the seed is dropped; an
    /// inserted seed is budget-admitted like a built table. Returns
    /// `true` if the table was inserted.
    pub fn seed(&self, graph: u64, key: TableKey, table: Arc<PatternTable>) -> bool {
        self.tables.seed((graph, key), Ok(table))
    }

    /// Fetch the table for `(graph, key)`, building it with `build` if
    /// this is the first request for the key. Returns the table and
    /// whether **this call** built it (`false` = served from cache or
    /// from another session's in-flight build).
    ///
    /// `cancel` is the *caller's* budget: it bounds both waiting on
    /// another session's in-flight build and (via `build` itself) the
    /// caller's own build.
    fn get_or_build(
        &self,
        graph: u64,
        key: TableKey,
        cancel: Option<&CancelToken>,
        build: impl FnOnce() -> Result<PatternTable, MpsError>,
    ) -> Result<(Arc<PatternTable>, bool), MpsError> {
        let (outcome, hit) = self
            .tables
            .get_or_compute((graph, key), cancel, || build().map(Arc::new))
            .map_err(|kind| MpsError::from_cancel(kind, Stage::Enumerate))?;
        let table = outcome?;
        if !hit {
            let hook = self.hook.lock().expect("table hook poisoned").clone();
            if let Some(hook) = hook {
                hook(graph, key, &table);
            }
        }
        Ok((table, !hit))
    }
}

/// A staged, batch-capable compiler session over one data-flow graph.
///
/// See the crate-root quickstart for the stage flow. A session is cheap to
/// create; everything expensive (analysis, each distinct pattern table)
/// is computed once on first use and reused for the session's lifetime.
///
/// ```
/// use mps::prelude::*;
///
/// let mut session = Session::new(mps::workloads::fig4());
/// let result = session.compile().unwrap();
/// assert_eq!(result.cycles, 3);
/// // A second compile reuses the cached pattern table.
/// let again = session.compile().unwrap();
/// assert_eq!(again.cycles, 3);
/// assert_eq!(session.metrics().table_builds, 1);
/// assert_eq!(session.metrics().table_cache_hits, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    /// The graph, pre-analysis (`None` once analyzed).
    dfg: Option<Dfg>,
    /// The analyzed graph (`None` until [`Session::analyze`]).
    adfg: Option<AnalyzedDfg>,
    cfg: CompileConfig,
    /// The graph's half of every table key: its content hash in a shared
    /// cache, `0` in a private one (which only ever sees this graph).
    graph: u64,
    /// The table cache this session reads and populates — private, or
    /// shared via [`Session::with_shared_tables`]. Clones share it.
    tables: Arc<TableCache>,
    /// Deadline/cancellation budget honored by [`Session::compile`] at
    /// every stage boundary and inside the enumeration claim loops.
    cancel: Option<CancelToken>,
    /// Stage-boundary hook for fault injection (see [`StageProbe`]).
    probe: Option<StageProbe>,
    metrics: StageMetrics,
}

/// A hook [`Session::compile`] runs at every stage boundary, before the
/// stage executes. Built for fault injection — the serving layer's chaos
/// harness uses it to delay or fail compiles at a chosen stage — but any
/// cross-cutting per-stage policy fits. Returning `Err` aborts the
/// compile with that error.
#[derive(Clone)]
pub struct StageProbe(Arc<dyn Fn(Stage) -> Result<(), MpsError> + Send + Sync>);

impl StageProbe {
    /// Wrap a callable run with each stage about to execute.
    pub fn new(f: impl Fn(Stage) -> Result<(), MpsError> + Send + Sync + 'static) -> StageProbe {
        StageProbe(Arc::new(f))
    }

    /// Run the probe for one stage boundary.
    pub fn check(&self, stage: Stage) -> Result<(), MpsError> {
        (self.0)(stage)
    }
}

impl fmt::Debug for StageProbe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StageProbe(..)")
    }
}

impl Session {
    /// A session over `dfg` with the default [`CompileConfig`] (the
    /// paper's flow and constants).
    pub fn new(dfg: Dfg) -> Session {
        Session::with_config(dfg, CompileConfig::default())
    }

    /// A session over `dfg` with an explicit configuration.
    pub fn with_config(dfg: Dfg, cfg: CompileConfig) -> Session {
        Session {
            dfg: Some(dfg),
            adfg: None,
            cfg,
            graph: 0,
            tables: Arc::new(TableCache::new()),
            cancel: None,
            probe: None,
            metrics: StageMetrics::default(),
        }
    }

    /// A session over `dfg` that reads and populates a **process-wide**
    /// [`TableCache`] instead of a private one, keyed by the graph's
    /// [`content_hash`](Dfg::content_hash) (computed here, once), so
    /// short-lived sessions over recurring graphs (the serving shape) skip
    /// the dominant cost. Metrics keep their meaning: a table served from
    /// the cache counts as a [`StageMetrics::table_cache_hits`], an actual
    /// build as a [`StageMetrics::table_builds`] — so N racing sessions
    /// over one new key record exactly one build among them.
    pub fn with_shared_tables(dfg: Dfg, cfg: CompileConfig, cache: Arc<TableCache>) -> Session {
        Session {
            graph: dfg.content_hash(),
            tables: cache,
            ..Session::with_config(dfg, cfg)
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &CompileConfig {
        &self.cfg
    }

    /// Replace the session's configuration. The analysis and every cached
    /// table survive — they depend only on the graph (and, per table, on
    /// the key parameters), so e.g. sweeping `Pdef` or switching engines
    /// keeps the expensive artifacts.
    pub fn set_config(&mut self, cfg: CompileConfig) {
        self.cfg = cfg;
    }

    /// Give the session a cancellation/deadline budget.
    /// [`Session::compile`] checks it before every stage and threads it
    /// into the enumeration claim loops (the pipeline's dominant cost),
    /// failing with [`MpsError::Cancelled`] or
    /// [`MpsError::DeadlineExceeded`] — stamped with the stage that
    /// observed the signal — once it fires. The fluent per-stage methods
    /// ([`Session::analyze`], [`Analysis::enumerate`], …) deliberately
    /// ignore it: the caller driving stages by hand is its own budget
    /// authority.
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }

    /// The session's cancellation budget, if one was set.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Install a stage-boundary hook run by [`Session::compile`] before
    /// each stage — and before the cancellation check at the same
    /// boundary, so a probe-injected delay that blows the deadline is
    /// observed immediately at that very stage.
    pub fn set_stage_probe(&mut self, probe: StageProbe) {
        self.probe = Some(probe);
    }

    /// Cumulative metrics across every stage chain this session ran.
    pub fn metrics(&self) -> &StageMetrics {
        &self.metrics
    }

    /// Number of distinct pattern tables in the session's cache (the
    /// shared one's total, for [`Session::with_shared_tables`]).
    pub fn cached_tables(&self) -> usize {
        self.tables.len()
    }

    /// The analyzed graph, once [`Session::analyze`] has run.
    pub fn analyzed_dfg(&self) -> Option<&AnalyzedDfg> {
        self.adfg.as_ref()
    }

    /// Run (or re-enter) the analysis stage: ASAP/ALAP/height levels and
    /// reachability. Idempotent — the analysis is computed once and
    /// reused by every later chain.
    pub fn analyze(&mut self) -> Analysis<'_> {
        let mut metrics = StageMetrics::default();
        if self.adfg.is_none() {
            let t0 = Instant::now();
            let dfg = self.dfg.take().expect("unanalyzed session holds its graph");
            self.adfg = Some(AnalyzedDfg::new(dfg));
            let dt = t0.elapsed().as_secs_f64();
            metrics.analyze_sec += dt;
            self.metrics.analyze_sec += dt;
        }
        Analysis {
            session: self,
            metrics,
        }
    }

    /// Run the full staged pipeline per [`Session::config`]: analyze →
    /// enumerate (at the config's span limit) → select → schedule →
    /// optionally map onto the configured tile. With a
    /// [`CompileConfig::fabric`] the back half becomes the multi-tile
    /// flow instead: select → **partition** → schedule (each tile's
    /// slice, transfer-aware) → map-tile (replay every tile), producing
    /// [`CompileResult::fabric`].
    ///
    /// When the session carries a [`CancelToken`]
    /// ([`Session::set_cancel_token`]), every stage boundary checks it —
    /// and the enumeration stage additionally polls it inside its claim
    /// loops — so a cancelled or deadline-expired compile stops within
    /// one in-flight work unit and fails with [`MpsError::Cancelled`] /
    /// [`MpsError::DeadlineExceeded`] carrying the observing stage. A
    /// [`StageProbe`], when installed, runs before each boundary check.
    pub fn compile(&mut self) -> Result<CompileResult, MpsError> {
        let cfg = self.cfg.clone();
        let cancel = self.cancel.clone();
        let probe = self.probe.clone();
        // The gate captures only clones, so it stays callable while the
        // stage artifacts hold the session borrow.
        let gate = |stage: Stage| -> Result<(), MpsError> {
            if let Some(p) = &probe {
                p.check(stage)?;
            }
            if let Some(t) = &cancel {
                if let Some(kind) = t.cancel_kind() {
                    return Err(MpsError::from_cancel(kind, stage));
                }
            }
            Ok(())
        };
        gate(Stage::Analyze)?;
        let analysis = self.analyze();
        gate(Stage::Enumerate)?;
        let enumerated = analysis.enumerate_impl(cfg.select.span_limit, cancel.as_ref())?;
        gate(Stage::Select)?;
        let selected = enumerated.select(&cfg.engine);
        if let Some(fabric) = &cfg.fabric {
            gate(Stage::Partition)?;
            let partitioned = selected.partition(fabric)?;
            gate(Stage::Schedule)?;
            let scheduled = partitioned.schedule_fabric(&cfg.schedule)?;
            gate(Stage::MapTile)?;
            return Ok(scheduled.map_fabric()?.finish());
        }
        gate(Stage::Schedule)?;
        let scheduled = selected.schedule(&cfg.schedule)?;
        match cfg.tile {
            Some(tile) => {
                gate(Stage::MapTile)?;
                Ok(scheduled.map_tile(tile)?.finish())
            }
            None => Ok(scheduled.finish()),
        }
    }

    /// Compile every graph of a batch, fanning whole compiles out over
    /// [`mps_par::par_map`] — the serving shape: many independent kernels,
    /// one result (with per-item [`StageMetrics`]) each.
    ///
    /// Each item's config sets `select.parallel = false`, so the fan-out
    /// across graphs is the only level of parallelism: an exhaustive
    /// item schedules its subsets on its own worker. Decisions are
    /// unaffected — exhaustive's parallel and sequential searches pick
    /// the same set (property-tested).
    pub fn compile_batch(
        dfgs: &[Dfg],
        cfg: &CompileConfig,
    ) -> Vec<Result<CompileResult, MpsError>> {
        Self::compile_batch_in(mps_par::parallelism(), dfgs, cfg)
    }

    /// [`Session::compile_batch`] with an explicit worker count (`0` and
    /// `1` both mean a sequential loop), for deterministic scaling
    /// measurements.
    pub fn compile_batch_in(
        workers: usize,
        dfgs: &[Dfg],
        cfg: &CompileConfig,
    ) -> Vec<Result<CompileResult, MpsError>> {
        let item_cfg = CompileConfig {
            select: SelectConfig {
                parallel: false,
                ..cfg.select
            },
            ..cfg.clone()
        };
        mps_par::par_map_in(workers, dfgs, |dfg| {
            Session::with_config(dfg.clone(), item_cfg.clone()).compile()
        })
    }

    /// The analyzed graph, if [`Session::analyze`] has run.
    fn analyzed(&self) -> &AnalyzedDfg {
        self.adfg.as_ref().expect("stage artifacts imply analysis")
    }
}

/// Stage artifact: the analyzed graph (levels, reachability, spans).
/// Produced by [`Session::analyze`].
#[derive(Debug)]
pub struct Analysis<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
}

impl<'s> Analysis<'s> {
    /// The analyzed graph.
    pub fn adfg(&self) -> &AnalyzedDfg {
        self.session.analyzed()
    }

    /// Run the enumeration stage: build the span-limited §5.1 pattern
    /// table (antichain classification with `h(p̄, n)` frequencies) — or
    /// reuse the cached table for this `(capacity, span)` key, which
    /// skips the pipeline's dominant cost.
    ///
    /// This fluent entry ignores any session [`CancelToken`] — the
    /// caller driving stages by hand budgets itself. [`Session::compile`]
    /// takes the cancellable path instead.
    pub fn enumerate(self, span: Option<u32>) -> Enumerated<'s> {
        self.enumerate_impl(span, None)
            .expect("enumeration without a cancel token cannot fail")
    }

    /// [`Analysis::enumerate`] with an optional cancellation budget: the
    /// token bounds both the build's claim loops (via
    /// [`PatternTable::build_with_cancel`]) and the wait on another
    /// session's in-flight build of the same key. With `cancel = None`
    /// this cannot fail.
    fn enumerate_impl(
        self,
        span: Option<u32>,
        cancel: Option<&CancelToken>,
    ) -> Result<Enumerated<'s>, MpsError> {
        let Analysis {
            session,
            mut metrics,
        } = self;
        let key = TableKey {
            capacity: session.cfg.select.capacity,
            span,
        };
        let ecfg = EnumerateConfig {
            capacity: key.capacity,
            span_limit: span,
            parallel: session.cfg.select.parallel,
        };
        let adfg = session.analyzed();
        let t0 = Instant::now();
        let (table, built) = session
            .tables
            .get_or_build(session.graph, key, cancel, || match cancel {
                Some(token) => PatternTable::build_with_cancel(adfg, ecfg, token)
                    .map_err(|kind| MpsError::from_cancel(kind, Stage::Enumerate)),
                None => Ok(PatternTable::build(adfg, ecfg)),
            })?;
        let dt = t0.elapsed().as_secs_f64();
        metrics.enumerate_sec += dt;
        session.metrics.enumerate_sec += dt;
        if built {
            metrics.table_builds += 1;
            session.metrics.table_builds += 1;
        } else {
            metrics.table_cache_hits += 1;
            session.metrics.table_cache_hits += 1;
        }
        metrics.antichains = table.total_antichains();
        metrics.table_patterns = table.len();
        session.metrics.antichains = metrics.antichains;
        session.metrics.table_patterns = metrics.table_patterns;
        Ok(Enumerated {
            session,
            metrics,
            span,
            table,
        })
    }
}

/// Stage artifact: the pattern table of one `(capacity, span)` key.
/// Produced by [`Analysis::enumerate`].
#[derive(Debug)]
pub struct Enumerated<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
    span: Option<u32>,
    table: Arc<PatternTable>,
}

impl<'s> Enumerated<'s> {
    /// The pattern table this stage produced (or fetched from cache).
    pub fn table(&self) -> &PatternTable {
        &self.table
    }

    /// Run the selection stage with the given engine (Eq. 8 by default;
    /// see [`SelectEngine`] for the full roster).
    pub fn select(self, engine: &SelectEngine) -> Selected<'s> {
        let Enumerated {
            session,
            mut metrics,
            span,
            table,
        } = self;
        let scfg = SelectConfig {
            span_limit: span,
            ..session.cfg.select
        };
        let sched = session.cfg.schedule.eval_config();
        let t0 = Instant::now();
        let selection = engine.run(session.analyzed(), &table, &scfg, sched);
        let dt = t0.elapsed().as_secs_f64();
        metrics.select_sec += dt;
        metrics.select_rounds = selection.rounds.len();
        session.metrics.select_sec += dt;
        session.metrics.select_rounds = selection.rounds.len();
        Selected {
            session,
            metrics,
            selection,
        }
    }
}

/// Stage artifact: the selected pattern set (with per-round details for
/// the engines that record them). Produced by [`Enumerated::select`].
#[derive(Debug)]
pub struct Selected<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
}

impl<'s> Selected<'s> {
    /// The selection outcome (patterns + rounds).
    pub fn selection(&self) -> &SelectionOutcome {
        &self.selection
    }

    /// The selected patterns.
    pub fn patterns(&self) -> &PatternSet {
        &self.selection.patterns
    }

    /// Run the scheduling stage with the given engine (the Fig. 3 list
    /// scheduler by default; see [`ScheduleEngine`] for the roster).
    pub fn schedule(self, engine: &ScheduleEngine) -> Result<Scheduled<'s>, MpsError> {
        let Selected {
            session,
            mut metrics,
            selection,
        } = self;
        let t0 = Instant::now();
        let result = engine.run(session.analyzed(), &selection.patterns);
        let dt = t0.elapsed().as_secs_f64();
        metrics.schedule_sec += dt;
        session.metrics.schedule_sec += dt;
        let scheduled = result?;
        metrics.cycles = scheduled.schedule.len();
        session.metrics.cycles = metrics.cycles;
        Ok(Scheduled {
            session,
            metrics,
            selection,
            scheduled,
        })
    }

    /// Run the fabric partition stage: validate the architecture
    /// description and cut the graph into per-tile node sets
    /// ([`mps_fabric::partition`]). The multi-tile counterpart of going
    /// straight to [`Selected::schedule`].
    pub fn partition(self, params: &FabricParams) -> Result<Partitioned<'s>, MpsError> {
        let Selected {
            session,
            mut metrics,
            selection,
        } = self;
        let t0 = Instant::now();
        let result = params
            .validate()
            .map(|()| mps_fabric::partition(session.analyzed().dfg(), params));
        let dt = t0.elapsed().as_secs_f64();
        metrics.partition_sec += dt;
        session.metrics.partition_sec += dt;
        let partition = result?;
        Ok(Partitioned {
            session,
            metrics,
            selection,
            params: params.clone(),
            partition,
        })
    }
}

/// Stage artifact: the per-tile partition of the graph. Produced by
/// [`Selected::partition`].
#[derive(Debug)]
pub struct Partitioned<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
    params: FabricParams,
    partition: mps_fabric::Partition,
}

impl<'s> Partitioned<'s> {
    /// The partition (tile assignment per node, cut edges).
    pub fn partition(&self) -> &mps_fabric::Partition {
        &self.partition
    }

    /// The selection that feeds every tile's scheduler.
    pub fn selection(&self) -> &SelectionOutcome {
        &self.selection
    }

    /// Run the fabric scheduling stage: every tile's slice against its
    /// own parameters on a shared global clock, consumers of cut edges
    /// released only once their transfer arrives. Only the list engine
    /// has a release-aware variant — any other engine fails with
    /// [`mps_fabric::FabricError::UnsupportedEngine`].
    pub fn schedule_fabric(self, engine: &ScheduleEngine) -> Result<FabricScheduled<'s>, MpsError> {
        let Partitioned {
            session,
            mut metrics,
            selection,
            params,
            partition,
        } = self;
        let config = match engine {
            ScheduleEngine::List(config) => *config,
            other => {
                return Err(FabricError::UnsupportedEngine {
                    engine: other.name().to_string(),
                }
                .into())
            }
        };
        let t0 = Instant::now();
        let result = mps_fabric::schedule_partitioned(
            session.analyzed(),
            &selection.patterns,
            config,
            &params,
            partition,
        );
        let dt = t0.elapsed().as_secs_f64();
        metrics.schedule_sec += dt;
        session.metrics.schedule_sec += dt;
        let fabric = result?;
        metrics.cycles = fabric.tiles.iter().map(|t| t.schedule.len()).sum();
        session.metrics.cycles = metrics.cycles;
        Ok(FabricScheduled {
            session,
            metrics,
            selection,
            fabric,
        })
    }
}

/// Stage artifact: every tile scheduled on the shared global clock.
/// Produced by [`Partitioned::schedule_fabric`].
#[derive(Debug)]
pub struct FabricScheduled<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
    fabric: mps_fabric::FabricSchedule,
}

impl<'s> FabricScheduled<'s> {
    /// The per-tile schedules (local ids, global cycles).
    pub fn fabric_schedule(&self) -> &mps_fabric::FabricSchedule {
        &self.fabric
    }

    /// Run the fabric map-tile stage: replay every tile cycle-accurately
    /// and merge the plans, transfers, and makespan into a validated
    /// [`FabricMapping`].
    pub fn map_fabric(self) -> Result<FabricMapped<'s>, MpsError> {
        let FabricScheduled {
            session,
            mut metrics,
            selection,
            fabric,
        } = self;
        let t0 = Instant::now();
        let result = mps_fabric::replay_fabric(&fabric, &selection.patterns).and_then(|mapping| {
            mapping.validate(session.analyzed().dfg())?;
            Ok(mapping)
        });
        let dt = t0.elapsed().as_secs_f64();
        metrics.map_tile_sec += dt;
        session.metrics.map_tile_sec += dt;
        let mapping = result?;
        Ok(FabricMapped {
            _session: session,
            metrics,
            selection,
            mapping,
        })
    }
}

/// Stage artifact: the replayed, validated fabric mapping. Produced by
/// [`FabricScheduled::map_fabric`].
#[derive(Debug)]
pub struct FabricMapped<'s> {
    _session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
    mapping: FabricMapping,
}

impl FabricMapped<'_> {
    /// The fabric mapping (per-tile plans, transfers, makespan).
    pub fn mapping(&self) -> &FabricMapping {
        &self.mapping
    }

    /// Finish the chain. [`CompileResult::schedule`] is the per-tile
    /// schedules concatenated in fabric order (global node ids) and
    /// [`CompileResult::cycles`] its length; [`CompileResult::exec`] is
    /// set only for one-tile fabrics, where it equals the plain
    /// pipeline's replay bit for bit.
    pub fn finish(self) -> CompileResult {
        let schedule = Schedule::from_cycles(
            self.mapping
                .tiles
                .iter()
                .flat_map(|t| t.schedule.cycles().iter().cloned())
                .collect(),
        );
        let exec = match &self.mapping.tiles[..] {
            [only] => Some(only.exec.clone()),
            _ => None,
        };
        CompileResult {
            selection: self.selection,
            cycles: schedule.len(),
            schedule,
            trace: None,
            ii: None,
            mii: None,
            slot_patterns: None,
            switches: None,
            exec,
            fabric: Some(self.mapping),
            metrics: self.metrics,
        }
    }
}

/// Stage artifact: the schedule (plus engine extras — initiation
/// interval, reconfiguration count). Produced by [`Selected::schedule`].
#[derive(Debug)]
pub struct Scheduled<'s> {
    session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
    scheduled: EngineSchedule,
}

impl<'s> Scheduled<'s> {
    /// The schedule.
    pub fn schedule(&self) -> &Schedule {
        &self.scheduled.schedule
    }

    /// The selection that produced this schedule.
    pub fn selection(&self) -> &SelectionOutcome {
        &self.selection
    }

    /// Schedule length in cycles (the paper's metric).
    pub fn cycles(&self) -> usize {
        self.scheduled.schedule.len()
    }

    /// Run the tile-mapping stage: cycle-accurate replay of the schedule
    /// on a Montium tile with the given parameters.
    pub fn map_tile(self, params: TileParams) -> Result<Mapped<'s>, MpsError> {
        let Scheduled {
            session,
            mut metrics,
            selection,
            scheduled,
        } = self;
        let t0 = Instant::now();
        let result = execute(
            session.analyzed(),
            &scheduled.schedule,
            &selection.patterns,
            params,
        );
        let dt = t0.elapsed().as_secs_f64();
        metrics.map_tile_sec += dt;
        session.metrics.map_tile_sec += dt;
        let report = result?;
        Ok(Mapped {
            _session: session,
            metrics,
            selection,
            scheduled,
            report,
        })
    }

    /// Finish the chain without a tile stage.
    pub fn finish(self) -> CompileResult {
        CompileResult {
            selection: self.selection,
            cycles: self.scheduled.schedule.len(),
            schedule: self.scheduled.schedule,
            trace: self.scheduled.trace,
            ii: self.scheduled.ii,
            mii: self.scheduled.mii,
            slot_patterns: self.scheduled.slot_patterns,
            switches: None,
            exec: None,
            fabric: None,
            metrics: self.metrics,
        }
    }
}

/// Stage artifact: the tile replay report. Produced by
/// [`Scheduled::map_tile`].
#[derive(Debug)]
pub struct Mapped<'s> {
    _session: &'s mut Session,
    metrics: StageMetrics,
    selection: SelectionOutcome,
    scheduled: EngineSchedule,
    report: ExecReport,
}

impl Mapped<'_> {
    /// The replay report (utilization, per-ALU busy counts,
    /// configuration loads, bindings).
    pub fn report(&self) -> &ExecReport {
        &self.report
    }

    /// Finish the chain.
    pub fn finish(self) -> CompileResult {
        CompileResult {
            selection: self.selection,
            cycles: self.scheduled.schedule.len(),
            schedule: self.scheduled.schedule,
            trace: self.scheduled.trace,
            ii: self.scheduled.ii,
            mii: self.scheduled.mii,
            slot_patterns: self.scheduled.slot_patterns,
            switches: None,
            exec: Some(self.report),
            fabric: None,
            metrics: self.metrics,
        }
    }
}

/// Everything one staged compile produced.
///
/// `Serialize`/`Deserialize` route through the vendored `serde` value
/// tree — this is the payload of the persistent artifact format (see
/// [`crate::artifact`]); `PartialEq` is what lets the round-trip tests
/// pin `load(save(r)) == r` field-for-field.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CompileResult {
    /// The selection outcome (patterns + per-round details).
    pub selection: SelectionOutcome,
    /// The schedule.
    pub schedule: Schedule,
    /// Schedule length in cycles.
    pub cycles: usize,
    /// Per-cycle trace, when the list scheduler recorded one.
    pub trace: Option<ScheduleTrace>,
    /// Achieved initiation interval (modulo scheduling only).
    pub ii: Option<usize>,
    /// The pre-search lower bound on the interval (modulo only).
    pub mii: Option<usize>,
    /// Steady-state slot patterns (modulo only).
    pub slot_patterns: Option<Vec<mps_patterns::Pattern>>,
    /// Always `None`: no session engine counts pattern reconfigurations.
    /// Kept so the artifact encoding and the wire reply's `"switches"`
    /// key stay byte-identical.
    pub switches: Option<usize>,
    /// Tile replay report, when the compile mapped onto a tile (for
    /// fabric compiles: set only on one-tile fabrics, where it equals
    /// the plain pipeline's replay bit for bit).
    pub exec: Option<ExecReport>,
    /// The multi-tile mapping, when the compile targeted a fabric. Late
    /// addition: `default` keeps pre-fabric artifacts decodable.
    #[serde(default)]
    pub fabric: Option<FabricMapping>,
    /// Per-stage wall times and counters of this compile.
    pub metrics: StageMetrics,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_select::{select_and_schedule, PipelineConfig};
    use mps_workloads::{fig2, fig4};
    use std::time::Duration;

    #[test]
    fn staged_chain_matches_one_shot_pipeline() {
        let mut session = Session::new(fig2());
        let result = session.compile().unwrap();
        let reference =
            select_and_schedule(&AnalyzedDfg::new(fig2()), &PipelineConfig::default()).unwrap();
        assert_eq!(result.selection, reference.selection);
        assert_eq!(result.schedule, reference.schedule);
        assert_eq!(result.cycles, reference.cycles);
    }

    #[test]
    fn cache_hits_are_observable_and_bit_identical() {
        let mut session = Session::new(fig2());
        let cold = session.compile().unwrap();
        assert_eq!(cold.metrics.table_builds, 1);
        assert_eq!(cold.metrics.table_cache_hits, 0);
        assert!(cold.metrics.enumerate_sec > 0.0);
        let warm = session.compile().unwrap();
        assert_eq!(warm.metrics.table_builds, 0);
        assert_eq!(warm.metrics.table_cache_hits, 1);
        assert_eq!(warm.selection, cold.selection);
        assert_eq!(warm.schedule, cold.schedule);
        assert_eq!(session.metrics().table_builds, 1);
        assert_eq!(session.metrics().table_cache_hits, 1);
        assert_eq!(session.cached_tables(), 1);
        // A different span is a different key: a new build, not a hit.
        let other = session.analyze().enumerate(Some(1));
        assert!(other.table().len() <= session_table_len(&mut Session::new(fig2())));
        assert_eq!(session.cached_tables(), 2);
    }

    fn session_table_len(session: &mut Session) -> usize {
        session.analyze().enumerate(None).table().len()
    }

    #[test]
    fn stage_artifacts_expose_intermediates() {
        let mut session = Session::new(fig4());
        let analysis = session.analyze();
        assert_eq!(analysis.adfg().len(), 5);
        let enumerated = analysis.enumerate(None);
        assert_eq!(
            enumerated.table().len(),
            4,
            "Fig. 4: {{a}},{{b}},{{aa}},{{bb}}"
        );
        assert_eq!(enumerated.table().total_antichains(), 8);
        let selected = enumerated.select(&SelectEngine::Eq8);
        assert_eq!(selected.patterns().len(), 2, "{{aa}}, {{bb}}");
        let scheduled = selected.schedule(&ScheduleEngine::default()).unwrap();
        assert_eq!(scheduled.cycles(), 3);
        let mapped = scheduled.map_tile(TileParams::default()).unwrap();
        assert_eq!(mapped.report().cycles, 3);
        let result = mapped.finish();
        assert!(result.exec.is_some());
        assert!(result.metrics.total_sec() > 0.0);
    }

    #[test]
    fn tile_errors_carry_map_tile_stage() {
        let mut session = Session::with_config(
            fig4(),
            CompileConfig {
                tile: Some(TileParams::with_alus(1)),
                ..Default::default()
            },
        );
        let err = session.compile().unwrap_err();
        assert_eq!(err.stage(), crate::error::Stage::MapTile);
    }

    #[test]
    fn shared_table_cache_spans_sessions() {
        let cache = Arc::new(TableCache::new());
        let cfg = CompileConfig::default();
        let mut first = Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache));
        let cold = first.compile().unwrap();
        assert_eq!(first.metrics().table_builds, 1);
        assert_eq!(cache.len(), 1);

        // A *new* session over the same graph+config: no local cache to
        // hit, but the shared table serves it — zero builds, one hit.
        let mut second = Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache));
        let warm = second.compile().unwrap();
        assert_eq!(second.metrics().table_builds, 0);
        assert_eq!(second.metrics().table_cache_hits, 1);
        assert_eq!(warm.selection, cold.selection);
        assert_eq!(warm.schedule, cold.schedule);
        assert_eq!(cache.len(), 1);

        // A different graph is a different key.
        let mut other = Session::with_shared_tables(fig4(), cfg, Arc::clone(&cache));
        other.compile().unwrap();
        assert_eq!(other.metrics().table_builds, 1);
        assert_eq!(cache.len(), 2);
        assert!(!cache.is_empty());
    }

    #[test]
    fn racing_sessions_build_each_table_once() {
        // Single-flight: N threads × a cold shared cache on one graph key
        // must record exactly one build among them, and every session's
        // result must be bit-identical.
        let cache = Arc::new(TableCache::new());
        let cfg = CompileConfig::default();
        let results: Vec<(CompileResult, StageMetrics)> = mps_par::par_map_in(4, &[(); 8], |_| {
            let mut s = Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache));
            let r = s.compile().unwrap();
            (r, s.metrics().clone())
        });
        let builds: usize = results.iter().map(|(_, m)| m.table_builds).sum();
        let hits: usize = results.iter().map(|(_, m)| m.table_cache_hits).sum();
        assert_eq!(builds, 1, "one enumeration for the whole burst");
        assert_eq!(hits, results.len() - 1);
        for (r, _) in &results[1..] {
            assert_eq!(r.selection, results[0].0.selection);
            assert_eq!(r.schedule, results[0].0.schedule);
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn compile_honors_cancel_and_deadline() {
        use crate::error::Stage;
        // A generous deadline changes nothing.
        let mut ok = Session::new(fig4());
        ok.set_cancel_token(CancelToken::with_deadline(Duration::from_secs(3600)));
        let budgeted = ok.compile().unwrap();
        let plain = Session::new(fig4()).compile().unwrap();
        assert_eq!(budgeted.selection, plain.selection);
        assert_eq!(budgeted.schedule, plain.schedule);

        // A pre-cancelled token fails at the first gate, stage-stamped.
        let mut cancelled = Session::new(fig4());
        let token = CancelToken::new();
        token.cancel();
        cancelled.set_cancel_token(token);
        assert_eq!(
            cancelled.compile().unwrap_err(),
            MpsError::Cancelled {
                stage: Stage::Analyze
            }
        );

        // An expired deadline reports DeadlineExceeded instead.
        let mut expired = Session::new(fig4());
        expired.set_cancel_token(CancelToken::with_deadline(Duration::from_millis(0)));
        assert_eq!(
            expired.compile().unwrap_err(),
            MpsError::DeadlineExceeded {
                stage: Stage::Analyze
            }
        );
    }

    #[test]
    fn stage_probe_runs_in_order_and_can_fail() {
        use crate::error::Stage;
        use std::sync::Mutex as StdMutex;
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let mut session = Session::with_config(
            fig4(),
            CompileConfig {
                tile: Some(TileParams::default()),
                ..Default::default()
            },
        );
        session.set_stage_probe(StageProbe::new(move |stage| {
            log.lock().unwrap().push(stage);
            Ok(())
        }));
        session.compile().unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                Stage::Analyze,
                Stage::Enumerate,
                Stage::Select,
                Stage::Schedule,
                Stage::MapTile
            ]
        );

        // A probe that fails a chosen stage aborts the compile with its
        // error — the fault-injection contract.
        let mut faulty = Session::new(fig4());
        faulty.set_stage_probe(StageProbe::new(|stage| {
            if stage == Stage::Select {
                return Err(MpsError::Cancelled { stage });
            }
            Ok(())
        }));
        assert_eq!(
            faulty.compile().unwrap_err(),
            MpsError::Cancelled {
                stage: Stage::Select
            }
        );
    }

    #[test]
    fn cancelled_shared_build_abandons_its_slot() {
        // A cancelled compile must not leave a pending slot behind: the
        // next session over the same key re-claims and builds, rather
        // than waiting forever on a build that will never publish.
        let cache = Arc::new(TableCache::new());
        let cfg = CompileConfig::default();
        let mut doomed = Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache));
        let token = CancelToken::new();
        token.cancel();
        doomed.set_cancel_token(token);
        assert!(doomed.compile().unwrap_err().is_transient());
        assert_eq!(cache.len(), 0, "abandoned entry must be removed");

        let mut fresh = Session::with_shared_tables(fig2(), cfg, Arc::clone(&cache));
        fresh.compile().unwrap();
        assert_eq!(fresh.metrics().table_builds, 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn panicked_build_clears_slot_and_wakes_waiters() {
        let cache = Arc::new(TableCache::new());
        let key = TableKey {
            capacity: 5,
            span: None,
        };
        // First flight panics mid-build; the drop guard must remove the
        // pending entry and wake waiters.
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_build(7, key, None, || panic!("injected build failure"))
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.len(), 0, "panicked entry must be removed");

        // A concurrent waiter + a failing builder: the waiter must end up
        // recomputing, not deadlocking. The builder claims first, fails;
        // the waiter re-claims and builds for real.
        let adfg = AnalyzedDfg::new(fig4());
        let barrier = std::sync::Barrier::new(2);
        let built = std::thread::scope(|scope| {
            let claimer = scope.spawn(|| {
                let r = cache.get_or_build(7, key, None, || {
                    barrier.wait(); // waiter is about to look up the key
                    std::thread::sleep(Duration::from_millis(30));
                    Err(MpsError::Cancelled {
                        stage: Stage::Enumerate,
                    })
                });
                assert!(r.is_err());
            });
            barrier.wait();
            let (table, built) = cache
                .get_or_build(7, key, None, || {
                    Ok(PatternTable::build(&adfg, EnumerateConfig::default()))
                })
                .expect("waiter recomputes after abandonment");
            assert!(!table.is_empty());
            claimer.join().unwrap();
            built
        });
        assert!(built, "the waiter's own build must have run");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn table_cache_entry_budget_evicts_lru() {
        let cache = Arc::new(TableCache::with_budget(Some(1), None));
        let cfg = CompileConfig::default();
        Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache))
            .compile()
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (1, 0));
        // A second graph pushes the first out.
        Session::with_shared_tables(fig4(), cfg.clone(), Arc::clone(&cache))
            .compile()
            .unwrap();
        assert_eq!((cache.len(), cache.evictions()), (1, 1));
        // The evicted graph rebuilds — and is correct — on return.
        let mut back = Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache));
        let again = back.compile().unwrap();
        assert_eq!(back.metrics().table_builds, 1);
        let direct = Session::with_config(fig2(), cfg).compile().unwrap();
        assert_eq!(again.schedule, direct.schedule);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn table_cache_byte_budget_evicts() {
        // A byte budget smaller than any real table: every admission
        // immediately evicts, so the cache never retains more than the
        // in-flight entry and the counter climbs.
        let cache = Arc::new(TableCache::with_budget(None, Some(1)));
        let cfg = CompileConfig::default();
        Session::with_shared_tables(fig2(), cfg.clone(), Arc::clone(&cache))
            .compile()
            .unwrap();
        assert_eq!(cache.len(), 0, "over-budget admission evicts itself");
        assert_eq!(cache.evictions(), 1);
        // Correctness is unaffected: the compile still succeeded above,
        // and the next one rebuilds.
        let mut s = Session::with_shared_tables(fig2(), cfg, Arc::clone(&cache));
        s.compile().unwrap();
        assert_eq!(s.metrics().table_builds, 1);
    }

    #[test]
    fn compile_config_content_hash_separates_configs() {
        let base = CompileConfig::default();
        assert_eq!(base.content_hash(), CompileConfig::default().content_hash());
        let pdef = CompileConfig {
            select: SelectConfig {
                pdef: 5,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_ne!(base.content_hash(), pdef.content_hash());
        let engine = CompileConfig {
            engine: SelectEngine::NodeCover,
            ..Default::default()
        };
        assert_ne!(base.content_hash(), engine.content_hash());
        let eps = CompileConfig {
            select: SelectConfig {
                epsilon: 0.5000000001,
                ..Default::default()
            },
            ..Default::default()
        };
        assert_ne!(base.content_hash(), eps.content_hash(), "f64 fields count");
        let tiled = CompileConfig {
            tile: Some(TileParams::default()),
            ..Default::default()
        };
        assert_ne!(base.content_hash(), tiled.content_hash());
        let fabric = CompileConfig {
            fabric: Some(FabricParams::uniform(2, TileParams::default())),
            ..Default::default()
        };
        assert_ne!(base.content_hash(), fabric.content_hash());
        let one_tile_fabric = CompileConfig {
            fabric: Some(FabricParams::default()),
            ..Default::default()
        };
        assert_ne!(
            base.content_hash(),
            one_tile_fabric.content_hash(),
            "an explicit fabric is a distinct artifact identity even with one tile"
        );
        assert_ne!(fabric.content_hash(), one_tile_fabric.content_hash());
    }

    #[test]
    fn fabric_compile_single_tile_is_bit_identical_to_plain() {
        let plain = Session::with_config(
            fig2(),
            CompileConfig {
                tile: Some(TileParams::default()),
                ..Default::default()
            },
        )
        .compile()
        .unwrap();
        let fabric = Session::with_config(
            fig2(),
            CompileConfig {
                fabric: Some(FabricParams::default()),
                ..Default::default()
            },
        )
        .compile()
        .unwrap();
        assert_eq!(fabric.selection, plain.selection);
        assert_eq!(fabric.schedule, plain.schedule);
        assert_eq!(fabric.cycles, plain.cycles);
        assert_eq!(fabric.exec, plain.exec);
        let mapping = fabric.fabric.expect("fabric compile carries its mapping");
        assert_eq!(mapping.tile_count(), 1);
        assert_eq!(mapping.transfer_count(), 0);
        assert_eq!(mapping.total_cycles, plain.cycles as u64);
    }

    #[test]
    fn fabric_compile_runs_the_partition_stage() {
        use crate::error::Stage;
        use std::sync::Mutex as StdMutex;
        let seen = Arc::new(StdMutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        let mut session = Session::with_config(
            fig2(),
            CompileConfig {
                fabric: Some(FabricParams::uniform(2, TileParams::default())),
                ..Default::default()
            },
        );
        session.set_stage_probe(StageProbe::new(move |stage| {
            log.lock().unwrap().push(stage);
            Ok(())
        }));
        let result = session.compile().unwrap();
        assert_eq!(
            *seen.lock().unwrap(),
            vec![
                Stage::Analyze,
                Stage::Enumerate,
                Stage::Select,
                Stage::Partition,
                Stage::Schedule,
                Stage::MapTile
            ]
        );
        let mapping = result.fabric.unwrap();
        assert_eq!(mapping.tile_count(), 2);
        assert!(result.metrics.partition_sec > 0.0);
    }

    #[test]
    fn fabric_compile_rejects_non_list_engines() {
        let mut session = Session::with_config(
            fig2(),
            CompileConfig {
                fabric: Some(FabricParams::default()),
                schedule: ScheduleEngine::Modulo(mps_scheduler::ModuloConfig::default()),
                ..Default::default()
            },
        );
        let err = session.compile().unwrap_err();
        assert!(
            matches!(
                err,
                MpsError::Fabric(mps_fabric::FabricError::UnsupportedEngine { .. })
            ),
            "{err}"
        );
        assert_eq!(err.stage(), crate::error::Stage::Partition);
    }

    #[test]
    fn batch_matches_sequential_compiles() {
        let dfgs = vec![fig2(), fig4(), fig2()];
        let cfg = CompileConfig::default();
        let batch = Session::compile_batch(&dfgs, &cfg);
        assert_eq!(batch.len(), 3);
        for (dfg, item) in dfgs.iter().zip(&batch) {
            let solo = Session::with_config(dfg.clone(), cfg.clone())
                .compile()
                .unwrap();
            let item = item.as_ref().unwrap();
            assert_eq!(item.selection, solo.selection);
            assert_eq!(item.schedule, solo.schedule);
        }
        // Fixed worker counts agree with the heuristic fan-out.
        for workers in [1usize, 2, 4] {
            let pinned = Session::compile_batch_in(workers, &dfgs, &cfg);
            for (a, b) in pinned.iter().zip(&batch) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.selection, b.selection);
                assert_eq!(a.cycles, b.cycles);
            }
        }
    }
}
