//! Classification of antichains by pattern (§5.1) and the Table 5 span
//! histogram.

use crate::bits::BitIter;
use crate::cover::CoverMatrix;
use crate::dag::{Abort, DagStats};
use crate::enumerate::{
    for_each_antichain, for_each_antichain_from_root, AntichainEnumerator, EnumerateConfig,
};
use crate::key::{KeyInterner, PatternKey};
use crate::pattern::Pattern;
use mps_dfg::{AnalyzedDfg, Antichain, NodeId};
use mps_par::{CancelKind, CancelToken};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Statistics of one candidate pattern: how many antichains realize it and
/// how often each node participates.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternStats {
    /// The pattern (color bag of its antichains).
    pub pattern: Pattern,
    /// Total number of antichains with this color bag.
    pub antichain_count: u64,
    /// `node_freq[n]` = the paper's `h(p̄, n)`: the number of antichains of
    /// this pattern that contain node `n`.
    pub node_freq: Vec<u64>,
}

impl PatternStats {
    /// The paper's `h(p̄, n)`.
    #[inline]
    pub fn freq(&self, n: NodeId) -> u64 {
        self.node_freq[n.index()]
    }
}

/// Dense index of a pattern inside a [`PatternTable`]: its position in the
/// canonical (sorted) pattern order, usable to index
/// [`PatternTable::stats`] directly — the allocation- and hash-free way to
/// refer to a pattern in hot loops like §5.2 selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PatternId(pub u32);

impl PatternId {
    /// The id as a `usize` index into [`PatternTable::stats`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// All candidate patterns of a DFG with their antichain statistics —
/// the §5.1 "classified antichains", in aggregate form.
///
/// Only aggregates are stored (counts and per-node frequencies), because
/// §5.2's priority function needs nothing else; the raw antichain lists are
/// exponential and available via [`crate::enumerate_antichains`] when truly
/// needed (e.g. to print the paper's Table 4).
#[derive(Clone, Debug, PartialEq)]
pub struct PatternTable {
    stats: Vec<PatternStats>,
    index: HashMap<Pattern, usize>,
    num_nodes: usize,
    cover: CoverMatrix,
}

/// Serialized as `{num_nodes, stats}` only: the index and cover matrix
/// are derived data, rebuilt on load by [`PatternTable::from_stats`] so a
/// file can never smuggle in an inconsistent triple.
impl Serialize for PatternTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(serde::Value::Map(vec![
            ("num_nodes".to_string(), serde::to_value(&self.num_nodes)),
            ("stats".to_string(), serde::to_value(&self.stats)),
        ]))
    }
}

/// The inverse of the [`Serialize`] impl, routed through
/// [`PatternTable::from_stats`] so every invariant is re-validated.
impl<'de> Deserialize<'de> for PatternTable {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::de::Error as _;
        let serde::Value::Map(mut fields) = deserializer.take_value()? else {
            return Err(D::Error::custom("expected map for PatternTable"));
        };
        let mut take = |name: &str| {
            let pos = fields.iter().position(|(k, _)| k == name).ok_or_else(|| {
                D::Error::custom(format!("missing field `{name}` in PatternTable"))
            })?;
            Ok(fields.swap_remove(pos).1)
        };
        let num_nodes: usize = serde::from_value(take("num_nodes")?).map_err(D::Error::custom)?;
        let stats: Vec<PatternStats> =
            serde::from_value(take("stats")?).map_err(D::Error::custom)?;
        PatternTable::from_stats(num_nodes, stats).map_err(D::Error::custom)
    }
}

/// "No child interned yet" sentinel in the transition cache.
const NO_ID: u32 = u32::MAX;

/// Classification state of the DFS fold: a key interner plus dense,
/// id-indexed aggregates. `freqs` is one flat row-major buffer (stride =
/// node count), so recording an antichain touches only its own row.
///
/// The id of a visited antichain's pattern is almost never resolved by
/// hashing: the enumerator visits every antichain immediately after its
/// length − 1 prefix, so the prefix's id sits in `id_stack` and the full
/// id is one lookup in the dense `(parent pattern, added color)` →
/// `child pattern` transition cache. The interner (one `u128` probe) is
/// only consulted the first time a transition is taken.
struct LocalTable {
    interner: KeyInterner,
    counts: Vec<u64>,
    freqs: Vec<u64>,
    num_nodes: usize,
    /// Packed color index of every node (all < [`crate::key`]'s alphabet).
    colors: Vec<u8>,
    /// Per-node key deltas (see [`PatternKey::delta`]).
    deltas: Vec<u128>,
    /// `transitions[slot][c]` = id of (pattern of `slot`) + color `c`, or
    /// [`NO_ID`]. Slot 0 is the empty pattern; slot `id + 1` is pattern
    /// `id`, so a row is appended whenever an id is interned.
    transitions: Vec<[u32; 26]>,
    /// `id_stack[len]` = interned id of the current DFS antichain's prefix
    /// of length `len` (valid because prefixes are visited first).
    id_stack: [u32; 17],
    /// `key_stack[len]` = packed key of that prefix (`key_stack[0]` is the
    /// empty bag), maintained so the transition-miss path needs no re-fold.
    key_stack: [PatternKey; 17],
}

impl LocalTable {
    fn new(num_nodes: usize, colors: &[u8], deltas: &[u128]) -> LocalTable {
        LocalTable {
            interner: KeyInterner::new(),
            counts: Vec::new(),
            freqs: Vec::new(),
            num_nodes,
            colors: colors.to_vec(),
            deltas: deltas.to_vec(),
            transitions: vec![[NO_ID; 26]],
            id_stack: [NO_ID; 17],
            key_stack: [PatternKey::EMPTY; 17],
        }
    }

    /// Allocate aggregate storage (and a transition row) for a fresh id.
    fn grow_to(&mut self, id: u32) {
        if id as usize == self.counts.len() {
            self.counts.push(0);
            self.freqs.resize(self.freqs.len() + self.num_nodes, 0);
            self.transitions.push([NO_ID; 26]);
        }
    }

    /// First traversal of a transition: intern the key, memoize the edge.
    #[cold]
    fn intern_miss(&mut self, slot: usize, color: usize, key: PatternKey) -> u32 {
        let id = self.interner.intern(key);
        self.grow_to(id);
        self.transitions[slot][color] = id;
        id
    }

    /// Count one antichain (visited by the enumerator in prefix order).
    /// Sparse update: only the antichain's own ≤ C nodes of the pattern's
    /// frequency row are touched.
    #[inline]
    fn record(&mut self, a: &Antichain) {
        let len = a.len();
        let node = a.as_slice()[len - 1].index();
        let color = self.colors[node] as usize;
        let key = self.key_stack[len - 1].plus(self.deltas[node]);
        self.key_stack[len] = key;
        let slot = if len == 1 {
            0
        } else {
            self.id_stack[len - 1] as usize + 1
        };
        let mut id = self.transitions[slot][color];
        if id == NO_ID {
            id = self.intern_miss(slot, color, key);
        }
        self.id_stack[len] = id;
        let id = id as usize;
        self.counts[id] += 1;
        let row = &mut self.freqs[id * self.num_nodes..(id + 1) * self.num_nodes];
        for &n in a.iter() {
            row[n.index()] += 1;
        }
    }

    fn finish(self) -> PatternTable {
        table_from_rows(
            self.num_nodes,
            self.interner.keys(),
            &self.counts,
            &self.freqs,
        )
    }
}

/// Unpack dense id-indexed aggregates into the final sorted,
/// `Pattern`-indexed table. The cover matrix is derived here, in one pass
/// over the frequency rows — O(patterns × nodes), noise next to the build
/// itself.
pub(crate) fn table_from_rows(
    n: usize,
    keys: &[u128],
    counts: &[u64],
    freqs: &[u64],
) -> PatternTable {
    let mut stats: Vec<PatternStats> = keys
        .iter()
        .enumerate()
        .map(|(id, &key)| PatternStats {
            pattern: PatternKey(key).to_pattern(),
            antichain_count: counts[id],
            node_freq: freqs[id * n..(id + 1) * n].to_vec(),
        })
        .collect();
    stats.sort_by_key(|s| s.pattern);
    let cover = CoverMatrix::from_stats(n, &stats);
    let index = stats
        .iter()
        .enumerate()
        .map(|(i, s)| (s.pattern, i))
        .collect();
    PatternTable {
        stats,
        index,
        num_nodes: n,
        cover,
    }
}

/// Packed per-node classification inputs (colors + key deltas), or `None`
/// when some color falls outside the packable alphabet.
fn packed_inputs(adfg: &AnalyzedDfg) -> Option<(Vec<u8>, Vec<u128>)> {
    let deltas: Option<Vec<u128>> = adfg
        .dfg()
        .node_ids()
        .map(|nd| PatternKey::delta(adfg.dfg().color(nd)))
        .collect();
    let colors = adfg
        .dfg()
        .node_ids()
        .map(|nd| adfg.dfg().color(nd).index() as u8)
        .collect();
    Some((colors, deltas?))
}

/// Builds whose DFS visits at most this many antichains (by
/// [`dfs_visit_bound`]) run the DFS fold instead of the state DAG. Fitted
/// on the per-kernel table (`throughput --only classify`): below it the
/// fold takes at most ~0.2 ms and the state DAG lost on about half the
/// registry rows (`fig2`, `horner8` and `cordic8` at C 3–4); above it the
/// DAG won all rows but two, which it lost by under 0.03 ms.
const DFS_CUTOVER: u64 = 1 << 13;

/// Upper bound on the antichains the DFS fold visits, computed from the
/// graph before any build: every antichain is its smallest node `v` plus
/// at most `C − 1` of the later nodes that are parallel to `v` and within
/// the span limit of it. Stops counting once past [`DFS_CUTOVER`].
fn dfs_visit_bound(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> u64 {
    let levels = adfg.levels();
    let mut bound = 0u64;
    for v in adfg.dfg().node_ids() {
        let mut d = 0u64;
        for u in BitIter::new(adfg.reach().par_row(v)) {
            let u = NodeId(u as u32);
            let span = levels
                .asap(v)
                .max(levels.asap(u))
                .saturating_sub(levels.alap(v).min(levels.alap(u)));
            if u.index() > v.index() && cfg.span_limit.is_none_or(|limit| span <= limit) {
                d += 1;
            }
        }
        // Σ_{j < C} binomial(d, j).
        let mut term = 1u64;
        bound += 1;
        for j in 1..cfg.capacity as u64 {
            term = term.saturating_mul(d.saturating_sub(j - 1)) / j;
            bound = bound.saturating_add(term);
        }
        if bound > DFS_CUTOVER {
            break;
        }
    }
    bound
}

impl PatternTable {
    /// Rebuild a table from its aggregate rows — the deserialization path
    /// of the persistent artifact format (`mps::artifact`).
    ///
    /// The builders guarantee by construction what this has to check on
    /// input that crossed a disk boundary: every frequency row spans
    /// exactly `num_nodes` nodes and no pattern appears twice. Rows are
    /// re-sorted into canonical pattern order and the cover matrix and
    /// index are derived exactly as the enumeration builders derive
    /// them, so a round-tripped table is `PartialEq`-identical to its
    /// source.
    pub fn from_stats(
        num_nodes: usize,
        mut stats: Vec<PatternStats>,
    ) -> Result<PatternTable, String> {
        for s in &stats {
            if s.node_freq.len() != num_nodes {
                return Err(format!(
                    "pattern {:?} carries {} node frequencies, table spans {num_nodes} nodes",
                    s.pattern,
                    s.node_freq.len()
                ));
            }
        }
        stats.sort_by_key(|s| s.pattern);
        if let Some(dup) = stats.windows(2).find(|w| w[0].pattern == w[1].pattern) {
            return Err(format!("duplicate pattern row {:?}", dup[0].pattern));
        }
        let cover = CoverMatrix::from_stats(num_nodes, &stats);
        let index = stats
            .iter()
            .enumerate()
            .map(|(i, s)| (s.pattern, i))
            .collect();
        Ok(PatternTable {
            stats,
            index,
            num_nodes,
            cover,
        })
    }

    /// Classify every antichain of `adfg` under `cfg` by pattern, without
    /// visiting the antichains one by one.
    ///
    /// # The state DAG
    ///
    /// Below any frame of the §5.1 DFS, the subtree depends only on the
    /// frame's state `(candidates, remaining capacity, span window)`. The
    /// build interns those states — each in one key arena, hashed once —
    /// so the DFS tree folds into a DAG, then sums over it: `B[t]`, the
    /// colour bags of the paths below `t`, in post-order as states are
    /// interned, and `F[s]`, the colour bags of the paths above `s`, in
    /// reverse order. An edge `s →v→ t` ends `F[s]` antichains with `v`
    /// and puts `v` in `F[s] ⊗ B[t]` of them:
    ///
    /// ```text
    /// count[X + c(v)]      += F[s][X]
    /// h(X + c(v) + Y, v)   += F[s][X] · B[t][Y]
    /// ```
    ///
    /// States are normalised before interning, so frames with equal
    /// subtrees share one state: candidates the window already forbids
    /// are dropped, the window is clamped to the candidates' ASAP/ALAP
    /// range (and dropped once it can prune nothing), the capacity is
    /// clamped to the candidate count, and empty or zero-capacity frames
    /// are the one terminal state. States with one slot left take a
    /// closed form (the empty bag plus one singleton per candidate) and
    /// store no edges. The forward pass sums `F` per (label, target) pair
    /// before convolving with `B`, and the nodes are visited in whichever
    /// of two orders (the graph's own, or by mobility) a cheap depth-2
    /// score predicts gives the smaller DAG. See the `dag` module for the
    /// layout.
    ///
    /// # Memory
    ///
    /// The DAG's arenas live in pooled workspaces that builds clear and
    /// reuse, and no arena allocates per state. A workspace that grew
    /// past 128 KiB is freed after its build instead of pooled, so a
    /// concurrent builder keeps at most that much between builds. A build
    /// that would hold more than 512 KiB stops and runs the DFS fold
    /// instead. The largest registry-kernel build at C ≤ 5 (`fft8`, C 5)
    /// holds about 226 KiB.
    ///
    /// # Cutover
    ///
    /// Builds whose DFS visits at most 2¹³ antichains — bounded from the
    /// graph before the build by counting, per node, the later nodes that
    /// are parallel to it within the span limit — run the DFS fold
    /// ([`PatternTable::build_dfs`]) directly: below that bound the fold
    /// takes well under a millisecond and the DAG's fixed costs often
    /// lose. So do graphs with a colour outside the packable alphabet
    /// ([`PatternTable::build_reference`]) or a colour-bag space too large
    /// to index densely.
    ///
    /// The result is identical on every path, and `cfg.parallel` changes
    /// nothing: both the DAG and the fold run on the calling thread.
    ///
    /// # Panics
    ///
    /// If an antichain count or node frequency passes `u64::MAX` — for
    /// example 128 isolated nodes at `C = 16`, which have C(128, 16) ≈
    /// 9.3·10¹⁹ antichains. The message names the node count and the
    /// capacity. A wrapped table is never returned.
    pub fn build(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> PatternTable {
        Self::build_impl(adfg, cfg, None)
    }

    /// [`PatternTable::build`] with cooperative cancellation: the state
    /// DAG polls `cancel` every 64 states it interns or folds, so a
    /// cancelled or deadline-expired build stops within a few
    /// microseconds and returns `Err` with the [`mps_par::CancelKind`]
    /// that fired instead of a partial table. The DFS fold polls between
    /// enumeration roots. A token that never fires changes nothing: the
    /// result is bit-identical to [`PatternTable::build`].
    ///
    /// # Panics
    ///
    /// As [`PatternTable::build`].
    pub fn build_with_cancel(
        adfg: &AnalyzedDfg,
        cfg: EnumerateConfig,
        cancel: &CancelToken,
    ) -> Result<PatternTable, CancelKind> {
        let table = Self::build_impl(adfg, cfg, Some(cancel));
        // Sticky token: if it fired at any point during the build the
        // table may be partial, so one final check decides the result.
        match cancel.cancel_kind() {
            Some(kind) => Err(kind),
            None => Ok(table),
        }
    }

    fn build_impl(
        adfg: &AnalyzedDfg,
        cfg: EnumerateConfig,
        cancel: Option<&CancelToken>,
    ) -> PatternTable {
        let Some((colors, deltas)) = packed_inputs(adfg) else {
            return Self::build_reference(adfg, cfg);
        };
        if dfs_visit_bound(adfg, cfg) > DFS_CUTOVER {
            match crate::dag::build(adfg, cfg.capacity, cfg.span_limit, &deltas, cancel) {
                Ok((table, _)) => return table,
                // The caller discards whatever is returned.
                Err(Abort::Cancelled(_)) => return table_from_rows(adfg.len(), &[], &[], &[]),
                Err(Abort::OverBudget) => {}
            }
        }
        dfs_fold(adfg, cfg, &colors, &deltas, cancel)
    }

    /// The DFS fold: visit every antichain with one reusable
    /// [`AntichainEnumerator`] and classify it into a dense id-indexed
    /// table — via a transition cache in the common case, via one
    /// packed-key interner probe on the first sight of a pattern
    /// extension. [`PatternTable::build`] runs it below its cutover and
    /// when the state DAG passes its memory budget; public as the baseline
    /// the table-build benches time the state DAG against. Graphs whose
    /// colors fall outside the packable alphabet take
    /// [`PatternTable::build_reference`].
    pub fn build_dfs(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> PatternTable {
        match packed_inputs(adfg) {
            Some((colors, deltas)) => dfs_fold(adfg, cfg, &colors, &deltas, None),
            None => Self::build_reference(adfg, cfg),
        }
    }

    /// The state-DAG build alone, whatever the cutover would choose, with
    /// the DAG's size (states, stored edges, working-set bytes); `None`
    /// when the graph has a colour outside the packable alphabet or the
    /// DAG does not fit its memory budget. For benches and the
    /// equivalence tests.
    ///
    /// # Panics
    ///
    /// As [`PatternTable::build`].
    pub fn build_state_dag(
        adfg: &AnalyzedDfg,
        cfg: EnumerateConfig,
    ) -> Option<(PatternTable, DagStats)> {
        let (_, deltas) = packed_inputs(adfg)?;
        crate::dag::build(adfg, cfg.capacity, cfg.span_limit, &deltas, None).ok()
    }

    /// The pre-interner (seed) build path: classify through full
    /// [`Pattern`] values into per-root hash maps merged at the end.
    ///
    /// Kept for three reasons: it is the fallback for graphs with colors
    /// outside the packable alphabet, the oracle the equivalence tests
    /// compare [`PatternTable::build`] against, and the baseline the
    /// `bench_enumeration` bench measures speedups over.
    pub fn build_reference(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> PatternTable {
        let n = adfg.len();
        let roots: Vec<NodeId> = adfg.dfg().node_ids().collect();

        let accumulate = |root: &NodeId| -> HashMap<Pattern, (u64, Vec<u64>)> {
            let mut local: HashMap<Pattern, (u64, Vec<u64>)> = HashMap::new();
            for_each_antichain_from_root(adfg, cfg, *root, |a, _span| {
                let pat = pattern_of(adfg, a);
                let entry = local.entry(pat).or_insert_with(|| (0, vec![0u64; n]));
                entry.0 += 1;
                for &node in a.iter() {
                    entry.1[node.index()] += 1;
                }
            });
            local
        };

        let locals: Vec<HashMap<Pattern, (u64, Vec<u64>)>> = if cfg.parallel {
            mps_par::par_map(&roots, accumulate)
        } else {
            roots.iter().map(accumulate).collect()
        };

        let mut merged: HashMap<Pattern, (u64, Vec<u64>)> = HashMap::new();
        for local in locals {
            for (pat, (count, freq)) in local {
                let entry = merged.entry(pat).or_insert_with(|| (0, vec![0u64; n]));
                entry.0 += count;
                for (dst, src) in entry.1.iter_mut().zip(freq.iter()) {
                    *dst += src;
                }
            }
        }

        let mut stats: Vec<PatternStats> = merged
            .into_iter()
            .map(|(pattern, (antichain_count, node_freq))| PatternStats {
                pattern,
                antichain_count,
                node_freq,
            })
            .collect();
        stats.sort_by_key(|a| a.pattern);
        let index = stats
            .iter()
            .enumerate()
            .map(|(i, s)| (s.pattern, i))
            .collect();
        let cover = CoverMatrix::from_stats(n, &stats);

        PatternTable {
            stats,
            index,
            num_nodes: n,
            cover,
        }
    }

    /// Statistics for a pattern, if any antichain realizes it.
    ///
    /// A thin shim over [`PatternTable::id_of`]; hot loops should resolve
    /// the id once and index [`PatternTable::stats`] instead.
    pub fn get(&self, p: &Pattern) -> Option<&PatternStats> {
        self.id_of(p).map(|id| &self.stats[id.index()])
    }

    /// The dense id of a pattern, if any antichain realizes it.
    pub fn id_of(&self, p: &Pattern) -> Option<PatternId> {
        self.index.get(p).map(|&i| PatternId(i as u32))
    }

    /// All statistics in canonical pattern order, indexable by
    /// [`PatternId`].
    pub fn stats(&self) -> &[PatternStats] {
        &self.stats
    }

    /// The pattern→node incidence bitsets of this table, rows indexed by
    /// [`PatternId`] — the backing store of the `mps-select` cover
    /// engines. Derived once as the build finishes (a single arena, one
    /// pass over the frequency rows): bit `n` of row `p` is set exactly
    /// when `stats()[p].node_freq[n] > 0`.
    pub fn cover(&self) -> &CoverMatrix {
        &self.cover
    }

    /// Statistics of the pattern with the given id.
    ///
    /// Panics if the id is out of range for this table.
    pub fn stats_of(&self, id: PatternId) -> &PatternStats {
        &self.stats[id.index()]
    }

    /// All patterns with statistics, in canonical pattern order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &PatternStats> {
        self.stats.iter()
    }

    /// Number of distinct candidate patterns.
    pub fn len(&self) -> usize {
        self.stats.len()
    }

    /// `true` if the graph had no antichains (i.e. no nodes).
    pub fn is_empty(&self) -> bool {
        self.stats.is_empty()
    }

    /// Number of nodes of the underlying graph.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// Total antichains across all patterns.
    pub fn total_antichains(&self) -> u64 {
        self.stats.iter().map(|s| s.antichain_count).sum()
    }
}

/// The DFS fold behind [`PatternTable::build_dfs`], polling `cancel`
/// between enumeration roots.
fn dfs_fold(
    adfg: &AnalyzedDfg,
    cfg: EnumerateConfig,
    colors: &[u8],
    deltas: &[u128],
    cancel: Option<&CancelToken>,
) -> PatternTable {
    let mut en = AntichainEnumerator::new(adfg, cfg);
    let mut local = LocalTable::new(adfg.len(), colors, deltas);
    for root in adfg.dfg().node_ids() {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        en.enumerate_root(root, |a, _| local.record(a));
    }
    local.finish()
}

/// The color bag of an antichain.
pub(crate) fn pattern_of(adfg: &AnalyzedDfg, a: &Antichain) -> Pattern {
    Pattern::from_colors(a.iter().map(|&n| adfg.dfg().color(n)))
}

/// Antichain counts bucketed by size and exact span — the data behind the
/// paper's Table 5 (which reports cumulative counts per span *limit*).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanHistogram {
    /// `exact[span][size-1]` = number of antichains of that size with that
    /// exact span.
    exact: Vec<Vec<u64>>,
    max_size: usize,
    max_span: u32,
}

impl SpanHistogram {
    /// Count with `Span(A) = span` exactly.
    pub fn exact(&self, span: u32, size: usize) -> u64 {
        if size == 0 || size > self.max_size || span > self.max_span {
            return 0;
        }
        self.exact[span as usize][size - 1]
    }

    /// Count with `Span(A) ≤ span_limit` — a Table 5 cell.
    pub fn cumulative(&self, span_limit: u32, size: usize) -> u64 {
        (0..=span_limit.min(self.max_span))
            .map(|s| self.exact(s, size))
            .sum()
    }

    /// Largest antichain size tracked.
    pub fn max_size(&self) -> usize {
        self.max_size
    }

    /// Largest span tracked.
    pub fn max_span(&self) -> u32 {
        self.max_span
    }
}

impl fmt::Display for SpanHistogram {
    /// Renders in the paper's Table 5 layout: one row per span limit
    /// (descending), one column per antichain size.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:<14}", "size")?;
        for size in 1..=self.max_size {
            write!(f, "{size:>8}")?;
        }
        writeln!(f)?;
        for span in (0..=self.max_span).rev() {
            write!(f, "Span(A)<={span:<5}")?;
            for size in 1..=self.max_size {
                write!(f, "{:>8}", self.cumulative(span, size))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Enumerate antichains up to `max_size` with span ≤ `max_span` and bucket
/// them by (exact span, size). Reproduces Table 5 via
/// [`SpanHistogram::cumulative`].
///
/// One enumerator walk fills one flat histogram.
pub fn span_histogram(adfg: &AnalyzedDfg, max_size: usize, max_span: u32) -> SpanHistogram {
    let cfg = EnumerateConfig {
        capacity: max_size,
        span_limit: Some(max_span),
        parallel: false,
    };
    let mut flat = vec![0u64; (max_span as usize + 1) * max_size];
    for_each_antichain(adfg, cfg, |a, span| {
        flat[span as usize * max_size + (a.len() - 1)] += 1;
    });
    let exact = flat.chunks(max_size).map(|r| r.to_vec()).collect();
    SpanHistogram {
        exact,
        max_size,
        max_span,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dfg::{Color, DfgBuilder};

    fn c(ch: char) -> Color {
        Color::from_char(ch).unwrap()
    }

    fn fig4() -> AnalyzedDfg {
        let mut b = DfgBuilder::new();
        let a1 = b.add_node("a1", c('a'));
        let a2 = b.add_node("a2", c('a'));
        let a3 = b.add_node("a3", c('a'));
        let b4 = b.add_node("b4", c('b'));
        let b5 = b.add_node("b5", c('b'));
        b.add_edge(a1, a2).unwrap();
        b.add_edge(a2, b4).unwrap();
        b.add_edge(a3, b5).unwrap();
        AnalyzedDfg::new(b.build().unwrap())
    }

    fn cfg_seq() -> EnumerateConfig {
        EnumerateConfig {
            capacity: 5,
            span_limit: None,
            parallel: false,
        }
    }

    fn assert_tables_equal(a: &PatternTable, b: &PatternTable, what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: pattern count");
        assert_eq!(a.num_nodes(), b.num_nodes(), "{what}: node count");
        for (sa, sb) in a.iter().zip(b.iter()) {
            assert_eq!(sa.pattern, sb.pattern, "{what}: pattern order");
            assert_eq!(
                sa.antichain_count, sb.antichain_count,
                "{what}: count of {}",
                sa.pattern
            );
            assert_eq!(
                sa.node_freq, sb.node_freq,
                "{what}: freqs of {}",
                sa.pattern
            );
        }
        assert_eq!(a.cover(), b.cover(), "{what}: cover matrices");
        assert_cover_invariant(a, what);
    }

    /// The [`CoverMatrix`] contract: bit `n` of row `p` ⇔ `h(p̄, n) > 0`.
    fn assert_cover_invariant(t: &PatternTable, what: &str) {
        let m = t.cover();
        assert_eq!(m.num_rows(), t.len(), "{what}: cover rows");
        assert_eq!(m.num_nodes(), t.num_nodes(), "{what}: cover node bits");
        for (i, s) in t.iter().enumerate() {
            let row = m.row(PatternId(i as u32));
            for (n, &h) in s.node_freq.iter().enumerate() {
                let bit = row[n / 64] >> (n % 64) & 1 == 1;
                assert_eq!(bit, h > 0, "{what}: cover bit {n} of {}", s.pattern);
            }
        }
    }

    /// Table 4 & Table 6 of the paper restrict attention to the four
    /// patterns {a}, {b}, {aa}, {bb} (the DFG's antichains also include
    /// mixed pairs like {a3, b4}; the paper's tables list colors-equal
    /// classes only as an illustration — we check the listed classes
    /// exactly and tolerate the extra mixed classes).
    #[test]
    fn fig4_table4_antichain_classes() {
        let adfg = fig4();
        let table = PatternTable::build(&adfg, cfg_seq());

        let pa = table.get(&Pattern::parse("a").unwrap()).unwrap();
        assert_eq!(pa.antichain_count, 3, "{{a1}},{{a2}},{{a3}}");

        let pb = table.get(&Pattern::parse("b").unwrap()).unwrap();
        assert_eq!(pb.antichain_count, 2, "{{b4}},{{b5}}");

        let paa = table.get(&Pattern::parse("aa").unwrap()).unwrap();
        assert_eq!(paa.antichain_count, 2, "{{a1,a3}},{{a2,a3}}");

        let pbb = table.get(&Pattern::parse("bb").unwrap()).unwrap();
        assert_eq!(pbb.antichain_count, 1, "{{b4,b5}}");
    }

    /// Table 6: node frequencies h(p̄, n).
    #[test]
    fn fig4_table6_node_frequencies() {
        let adfg = fig4();
        let table = PatternTable::build(&adfg, cfg_seq());
        let g = adfg.dfg();
        let ids = ["a1", "a2", "a3", "b4", "b5"].map(|n| g.find(n).unwrap());

        let freq = |pat: &str| -> Vec<u64> {
            let s = table.get(&Pattern::parse(pat).unwrap()).unwrap();
            ids.iter().map(|&n| s.freq(n)).collect()
        };

        assert_eq!(freq("a"), vec![1, 1, 1, 0, 0]);
        assert_eq!(freq("b"), vec![0, 0, 0, 1, 1]);
        assert_eq!(
            freq("aa"),
            vec![1, 1, 2, 0, 0],
            "a3 pairs with both a1 and a2"
        );
        assert_eq!(freq("bb"), vec![0, 0, 0, 1, 1]);
    }

    #[test]
    fn counts_are_consistent() {
        let adfg = fig4();
        let table = PatternTable::build(&adfg, cfg_seq());
        // Sum of node frequencies of a pattern = count × size.
        for s in table.iter() {
            let total: u64 = s.node_freq.iter().sum();
            assert_eq!(total, s.antichain_count * s.pattern.size() as u64);
        }
        // Total antichains equals direct enumeration.
        let direct = crate::enumerate::enumerate_antichains(&adfg, cfg_seq()).len() as u64;
        assert_eq!(table.total_antichains(), direct);
    }

    #[test]
    fn parallel_equals_sequential() {
        let adfg = fig4();
        let seq = PatternTable::build(&adfg, cfg_seq());
        let par = PatternTable::build(
            &adfg,
            EnumerateConfig {
                parallel: true,
                ..cfg_seq()
            },
        );
        assert_tables_equal(&seq, &par, "parallel vs sequential");
    }

    /// Acceptance gate of the interner rewrite: the fast path must be
    /// byte-identical to the seed path on the paper's Fig. 4 graph, in
    /// both execution modes and across span limits.
    #[test]
    fn build_matches_reference_on_fig4() {
        let adfg = fig4();
        for parallel in [false, true] {
            for span_limit in [None, Some(0), Some(1), Some(3)] {
                let cfg = EnumerateConfig {
                    capacity: 5,
                    span_limit,
                    parallel,
                };
                let fast = PatternTable::build(&adfg, cfg);
                let slow = PatternTable::build_reference(&adfg, cfg);
                assert_tables_equal(
                    &fast,
                    &slow,
                    &format!("parallel={parallel} span={span_limit:?}"),
                );
            }
        }
    }

    /// Colors outside the packable alphabet (index ≥ 26) must transparently
    /// fall back to the reference path and still classify correctly.
    #[test]
    fn unpackable_colors_fall_back_to_reference() {
        let mut b = DfgBuilder::new();
        let n1 = b.add_node("n1", Color(30));
        let n2 = b.add_node("n2", Color(30));
        let n3 = b.add_node("n3", Color(99));
        b.add_edge(n1, n3).unwrap();
        let _ = n2;
        let adfg = AnalyzedDfg::new(b.build().unwrap());
        let table = PatternTable::build(&adfg, cfg_seq());
        let reference = PatternTable::build_reference(&adfg, cfg_seq());
        assert_tables_equal(&table, &reference, "exotic colors");
        let pair = Pattern::from_colors([Color(30), Color(30)]);
        assert_eq!(table.get(&pair).unwrap().antichain_count, 1, "{{n1,n2}}");
    }

    /// A live token leaves `build_with_cancel` bit-identical to `build`;
    /// a pre-fired token (expired deadline or explicit cancel) yields
    /// `Err` with the right kind instead of a partial table.
    #[test]
    fn cancellable_build_matches_and_aborts() {
        use mps_par::{CancelKind, CancelToken};
        use std::time::Duration;
        let adfg = fig4();
        let cfg = cfg_seq();

        let live = CancelToken::with_deadline(Duration::from_secs(3600));
        let table = PatternTable::build_with_cancel(&adfg, cfg, &live).expect("live token");
        assert_tables_equal(&table, &PatternTable::build(&adfg, cfg), "live token");

        let expired = CancelToken::with_deadline(Duration::from_millis(0));
        assert_eq!(
            PatternTable::build_with_cancel(&adfg, cfg, &expired).unwrap_err(),
            CancelKind::DeadlineExceeded
        );

        let cancelled = CancelToken::new();
        cancelled.cancel();
        assert_eq!(
            PatternTable::build_with_cancel(&adfg, cfg, &cancelled).unwrap_err(),
            CancelKind::Cancelled
        );
    }

    #[test]
    fn pattern_ids_index_stats() {
        let adfg = fig4();
        let table = PatternTable::build(&adfg, cfg_seq());
        for (i, s) in table.stats().iter().enumerate() {
            let id = table.id_of(&s.pattern).unwrap();
            assert_eq!(id, PatternId(i as u32));
            assert_eq!(table.stats_of(id), s);
            assert_eq!(table.get(&s.pattern), Some(s));
        }
        assert!(table.id_of(&Pattern::parse("zz").unwrap()).is_none());
    }

    /// A skewed graph: a hub (node 0, parallel to everything) over two
    /// mutually-sequential chains, so the hub owns most of the DFS tree.
    fn skewed() -> AnalyzedDfg {
        let mut b = DfgBuilder::new();
        let _hub = b.add_node("hub", c('c'));
        let xs: Vec<_> = (0..8)
            .map(|i| b.add_node(format!("x{i}"), c('a')))
            .collect();
        for w in xs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let ys: Vec<_> = (0..8)
            .map(|i| b.add_node(format!("y{i}"), c('b')))
            .collect();
        for w in ys.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        AnalyzedDfg::new(b.build().unwrap())
    }

    #[test]
    fn build_matches_reference_on_skewed_graph() {
        for adfg in [fig4(), skewed()] {
            for span_limit in [None, Some(0), Some(1)] {
                for parallel in [false, true] {
                    let cfg = EnumerateConfig {
                        span_limit,
                        parallel,
                        ..cfg_seq()
                    };
                    assert_all_paths_match(
                        &adfg,
                        cfg,
                        &format!("span={span_limit:?} parallel={parallel}"),
                    );
                }
            }
        }
    }

    /// `n` isolated nodes of one color.
    fn isolated(n: usize, color: char) -> AnalyzedDfg {
        let mut b = DfgBuilder::new();
        for i in 0..n {
            b.add_node(format!("n{i}"), c(color));
        }
        AnalyzedDfg::new(b.build().unwrap())
    }

    fn cfg_cap(capacity: usize) -> EnumerateConfig {
        EnumerateConfig {
            capacity,
            ..cfg_seq()
        }
    }

    /// Every build path against the reference oracle.
    fn assert_all_paths_match(adfg: &AnalyzedDfg, cfg: EnumerateConfig, what: &str) {
        let reference = PatternTable::build_reference(adfg, cfg);
        let (dag, _) = PatternTable::build_state_dag(adfg, cfg).expect("fits the budget");
        assert_tables_equal(&dag, &reference, &format!("{what}: state DAG"));
        assert_tables_equal(&PatternTable::build(adfg, cfg), &reference, what);
        assert_tables_equal(
            &PatternTable::build_dfs(adfg, cfg),
            &reference,
            &format!("{what}: DFS fold"),
        );
    }

    /// 16 slots of one color overflow its key nibble: the carry into the
    /// next color (`a`) or into the size field (`z`) must come out of the
    /// state DAG's bag arithmetic exactly as out of the DFS's key adds.
    #[test]
    fn packed_key_carries_match_reference() {
        for color in ['a', 'z'] {
            let adfg = isolated(16, color);
            assert_all_paths_match(&adfg, cfg_cap(16), &format!("16 x {color}"));
            let table = PatternTable::build(&adfg, cfg_cap(16));
            let full = Pattern::from_colors(std::iter::repeat_n(c(color), 16));
            assert_eq!(table.get(&full).unwrap().antichain_count, 1);
        }
    }

    /// A capacity above the graph's width changes nothing past the width.
    #[test]
    fn capacity_above_width_matches_reference() {
        let adfg = fig4();
        for capacity in [3usize, 8, 16] {
            for span_limit in [None, Some(0), Some(2)] {
                let cfg = EnumerateConfig {
                    span_limit,
                    ..cfg_cap(capacity)
                };
                assert_all_paths_match(&adfg, cfg, &format!("C{capacity} span {span_limit:?}"));
            }
        }
        assert_tables_equal(
            &PatternTable::build(&adfg, cfg_cap(16)),
            &PatternTable::build(&adfg, cfg_cap(3)),
            "width 2: C16 = C3",
        );
    }

    /// The state DAG reaches counts no DFS could visit: C(128, 16) ≈
    /// 9.3·10¹⁹ antichains pass `u64::MAX`, and the build must say so
    /// instead of returning a wrapped table.
    #[test]
    #[should_panic(
        expected = "pattern table overflow: a count passed 2^64 - 1 (128 nodes, capacity 16)"
    )]
    fn overflowing_counts_panic() {
        PatternTable::build(&isolated(128, 'a'), cfg_cap(16));
    }

    /// A pre-fired token stops the build before it starts, however large.
    #[test]
    fn prefired_token_returns_before_building() {
        use mps_par::{CancelKind, CancelToken};
        let adfg = isolated(64, 'a');
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let t0 = std::time::Instant::now();
        assert_eq!(
            PatternTable::build_with_cancel(&adfg, cfg_cap(6), &cancelled).unwrap_err(),
            CancelKind::Cancelled
        );
        assert!(t0.elapsed() < std::time::Duration::from_millis(50));
    }

    #[test]
    fn span_histogram_cumulative_rows_are_monotone() {
        // Two parallel chains give positive-span antichains.
        let mut b = DfgBuilder::new();
        let xs: Vec<_> = (0..4)
            .map(|i| b.add_node(format!("x{i}"), c('a')))
            .collect();
        for w in xs.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let ys: Vec<_> = (0..4)
            .map(|i| b.add_node(format!("y{i}"), c('b')))
            .collect();
        for w in ys.windows(2) {
            b.add_edge(w[0], w[1]).unwrap();
        }
        let adfg = AnalyzedDfg::new(b.build().unwrap());
        let h = span_histogram(&adfg, 2, 3);
        for size in 1..=2 {
            for span in 1..=3 {
                assert!(
                    h.cumulative(span, size) >= h.cumulative(span - 1, size),
                    "cumulative counts must grow with the span limit"
                );
            }
        }
        // Singletons always have span 0.
        assert_eq!(h.exact(0, 1), 8);
        assert_eq!(h.exact(1, 1), 0);
        assert_eq!(h.cumulative(3, 1), 8);
        // Size-2 with span 0: the level-aligned cross pairs {x_i, y_i}.
        assert_eq!(h.cumulative(0, 2), 4);
        // All 16 cross pairs are antichains; span = |i - j|.
        assert_eq!(h.cumulative(3, 2), 16);
        assert_eq!(h.exact(3, 2), 2, "{{x0,y3}} and {{x3,y0}}");
        // Display renders without panicking and mentions every span row.
        let txt = h.to_string();
        assert!(txt.contains("Span(A)<=3"));
        assert!(txt.contains("Span(A)<=0"));
    }

    #[test]
    fn get_missing_pattern_is_none() {
        let adfg = fig4();
        let table = PatternTable::build(&adfg, cfg_seq());
        assert!(table.get(&Pattern::parse("zz").unwrap()).is_none());
        assert!(!table.is_empty());
        assert_eq!(table.num_nodes(), 5);
    }
}
