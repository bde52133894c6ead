//! Pattern counting over the enumeration state DAG — the engine behind
//! [`crate::PatternTable::build`].
//!
//! The §5.1 DFS extends an antichain one node at a time. Below any DFS
//! frame, the subtree depends only on the frame's *state*: its candidate
//! bitset, its remaining capacity and (under a span limit) its running
//! level window — not on the antichain chosen so far. Interning frames by
//! that key turns the DFS tree into a DAG that is usually orders of
//! magnitude smaller, and the per-pattern aggregates follow from one
//! forward–backward pass over it (Baum et al., 1970); the DAG is a
//! zero-suppressed decision diagram of the antichain family (Minato, 1993).
//!
//! For an edge `s →v→ t` (state `s` takes candidate `v`, leaving `t`):
//!
//! * `B[t]` maps a colour bag `Y` to the number of paths from `t` to the
//!   end whose nodes have colours `Y` (the empty bag counts once);
//! * `F[s]` maps a colour bag `X` to the number of paths from the root to
//!   `s` with colours `X`;
//! * every antichain is exactly one root path, ending at one edge, so
//!   `count[X + c(v)] += F[s][X]`; it contains `v` at exactly one edge, so
//!   `h(X + c(v) + Y, v) += F[s][X] · B[t][Y]`.
//!
//! `B` is computed as each state is interned, in post-order, so state ids
//! are topological (children first) and `F` runs in reverse id order,
//! summed per `(v, t)` pair before the convolution with `B[t]`.
//! States with one slot of capacity left store neither edges nor `B`:
//! their children are all terminal, so `B` is the empty bag plus one
//! singleton per candidate, read off per-colour popcounts.
//!
//! Colour bags are dense mixed-radix indices (one digit per colour of the
//! graph, digit `k` running to `min(C, |colour k|)`), so adding two bags
//! is an integer addition and no bag is ever hashed.

use crate::bits::{and_above, BitIter};
use crate::table::{table_from_rows, PatternTable};
use mps_dfg::{AnalyzedDfg, NodeId};
use mps_par::{CancelKind, CancelToken};
use std::sync::Mutex;

/// Id of the one terminal state: no candidates or no capacity left.
const TERMINAL: u32 = 0;

/// "No entry" in the index-valued arrays.
const NONE: u32 = u32::MAX;

/// Interned (or forward-processed) states between two polls of the
/// cancel token and the byte budget.
const POLL_EVERY: u32 = 64;

/// Cap on the bytes one build holds in its arenas: state keys, the state
/// index, stored edges, `B` runs, live messages and the bag-indexed
/// scratch. A build that would pass it stops, and the caller falls back
/// to the DFS fold, so a build's working set never grows past this
/// however large the graph.
const BUDGET_BYTES: usize = 512 * 1024;

/// Largest dense bag space the builder indexes (bags are `u16`).
const MAX_BAGS: usize = 1 << 12;

/// Edges hold child ids, and messages their node label, as `u16`.
const MAX_STATES: usize = u16::MAX as usize;
const MAX_NODES: usize = u16::MAX as usize;

/// `B` entries pack the bag index above a 48-bit count; counts from
/// [`BIG`] up live in `Workspace::b_big`, indexed by the low bits.
const COUNT_BITS: u32 = 48;
const BIG: u64 = 1 << (COUNT_BITS - 1);

/// Largest level the meta word holds.
const MAX_LEVEL: u32 = (1 << 28) - 1;

/// Why a state-DAG build stopped without a table.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Abort {
    /// The cancel token fired.
    Cancelled(CancelKind),
    /// The build does not fit [`BUDGET_BYTES`] or one of the index
    /// widths (bags, states, node labels, levels).
    OverBudget,
}

/// Size of one state-DAG build: what the table-build benches report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DagStats {
    /// Interned states, the terminal included.
    pub states: usize,
    /// Stored edges (states with one slot of capacity left store none).
    pub edges: usize,
    /// High-water of the bytes the build held in its arenas.
    pub working_set_bytes: usize,
}

/// Reusable arenas of the state-DAG builder. Builds clear them rather
/// than free them, and nothing is allocated per state: every per-state
/// record lives in a flat arena indexed by state id.
#[derive(Default)]
struct Workspace {
    /// State keys by id: the candidate words, then the meta word (see
    /// [`meta`]).
    keys: Vec<u64>,
    /// Open-addressing index over `keys`: state id + 1, or 0 when empty.
    index: Vec<u32>,
    /// Child per candidate, per state with capacity ≥ 2, in id order.
    edges: Vec<u16>,
    /// Per state: start of its run in `b`.
    b_first: Vec<u32>,
    /// `B` runs without the empty bag: bag index << 48 | count.
    b: Vec<u64>,
    /// Counts too large for an entry of `b`.
    b_big: Vec<u64>,
    /// Key of the DFS frame at each depth.
    frames: Vec<u64>,
    /// Children of the open frames, stacked.
    children: Vec<u16>,
    /// Bag-indexed accumulator, with the bags it holds.
    acc: Vec<u64>,
    touched: Vec<u16>,
    /// Bag → entry of the message being extended, or [`NONE`].
    pos: Vec<u32>,
    /// Per state: its first pending message, or [`NONE`].
    m_head: Vec<u32>,
    /// Messages: edge label, entry list, next message of the same state.
    msg_label: Vec<u16>,
    msg_list: Vec<u32>,
    msg_next: Vec<u32>,
    msg_free: u32,
    /// Message entries: bag, paths, next entry.
    e_bag: Vec<u16>,
    e_cnt: Vec<u64>,
    e_next: Vec<u32>,
    entry_free: u32,
    /// `F` of the state being processed.
    fx_bag: Vec<u16>,
    fx_cnt: Vec<u64>,
    /// `B` of one state, without the empty bag (see `load_suffixes`).
    sfx_bag: Vec<u16>,
    sfx_cnt: Vec<u64>,
    /// Span masks by level: nodes with ASAP ≤ k, nodes with ALAP ≥ k.
    asap_le: Vec<u64>,
    alap_ge: Vec<u64>,
    /// Candidate mask per graph colour.
    color_masks: Vec<u64>,
    /// Bag → dense pattern id + 1 (0: not seen yet).
    slot: Vec<u16>,
    /// Per pattern id: packed key, antichain count, node frequencies.
    pattern_keys: Vec<u128>,
    counts: Vec<u64>,
    freqs: Vec<u64>,
}

impl Workspace {
    /// Bytes the working-set arenas hold: their lengths, or with
    /// `allocated` their capacities plus the per-pattern output rows.
    fn bytes(&self, allocated: bool) -> usize {
        fn size<T>(v: &Vec<T>, allocated: bool) -> usize {
            std::mem::size_of::<T>() * if allocated { v.capacity() } else { v.len() }
        }
        let a = allocated;
        let working = size(&self.keys, a)
            + size(&self.index, a)
            + size(&self.edges, a)
            + size(&self.b_first, a)
            + size(&self.b, a)
            + size(&self.b_big, a)
            + size(&self.frames, a)
            + size(&self.children, a)
            + size(&self.acc, a)
            + size(&self.touched, a)
            + size(&self.pos, a)
            + size(&self.m_head, a)
            + size(&self.msg_label, a)
            + size(&self.msg_list, a)
            + size(&self.msg_next, a)
            + size(&self.e_bag, a)
            + size(&self.e_cnt, a)
            + size(&self.e_next, a)
            + size(&self.fx_bag, a)
            + size(&self.fx_cnt, a)
            + size(&self.sfx_bag, a)
            + size(&self.sfx_cnt, a)
            + size(&self.asap_le, a)
            + size(&self.alap_ge, a)
            + size(&self.color_masks, a)
            + size(&self.slot, a);
        if allocated {
            working + size(&self.pattern_keys, a) + size(&self.counts, a) + size(&self.freqs, a)
        } else {
            working
        }
    }
}

/// Workspaces of finished builds, reused by the next ones: the pool holds
/// at most one workspace per build that ever ran concurrently.
static POOL: Mutex<Vec<Workspace>> = Mutex::new(Vec::new());

/// A workspace that has grown past this many allocated bytes is freed
/// after its build instead of pooled, so the pool keeps the common builds
/// allocation-free without pinning a rare large build's high-water in
/// every worker. Every registry kernel at C ≤ 4, and all but `fft8` and
/// `dct8` at C 5, stay below it.
const RETAIN_BYTES: usize = 128 * 1024;

/// Meta word of a state key: capacity in bits 0..7, a "windowed" flag in
/// bit 7, and the span window's `hi` and `lo` levels above it.
#[inline]
fn meta(cap: usize, window: Option<(u32, u32)>) -> u64 {
    match window {
        None => cap as u64,
        Some((hi, lo)) => cap as u64 | 1 << 7 | u64::from(hi) << 8 | u64::from(lo) << 36,
    }
}

#[inline]
fn meta_cap(m: u64) -> usize {
    (m & 0x7F) as usize
}

#[inline]
fn meta_window(m: u64) -> Option<(u32, u32)> {
    (m >> 7 & 1 == 1).then_some(((m >> 8) as u32 & MAX_LEVEL, (m >> 36) as u32))
}

/// One build's read-only inputs.
struct Graph {
    /// Parallel rows, rows and columns in build order.
    par: Vec<u64>,
    /// The node at each build-order position.
    orig: Vec<u32>,
    n: usize,
    words: usize,
    capacity: usize,
    span_limit: Option<u32>,
    asap: Vec<u32>,
    alap: Vec<u32>,
    max_level: u32,
    /// Per node: the dense bag index of its colour's singleton.
    unit: Vec<u16>,
    /// Per graph colour: singleton bag index and packed key delta.
    color_units: Vec<u16>,
    color_deltas: Vec<u128>,
    /// Radix of each colour digit of a dense bag index.
    radix: Vec<usize>,
}

impl Graph {
    /// Packed key of a dense bag index.
    fn key_of(&self, bag: usize) -> u128 {
        let mut rest = bag;
        let mut key = 0u128;
        for (k, &r) in self.radix.iter().enumerate() {
            key += (rest % r) as u128 * self.color_deltas[k];
            rest /= r;
        }
        key
    }
}

/// Build the table of `adfg` over the state DAG. `deltas` are the nodes'
/// packed key deltas.
pub(crate) fn build(
    adfg: &AnalyzedDfg,
    capacity: usize,
    span_limit: Option<u32>,
    deltas: &[u128],
    cancel: Option<&CancelToken>,
) -> Result<(PatternTable, DagStats), Abort> {
    assert!(
        (1..=16).contains(&capacity),
        "capacity must be in 1..=16, got {capacity}"
    );
    let n = adfg.len();
    let levels = adfg.levels();
    let mut color_deltas: Vec<u128> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    let color_of: Vec<usize> = deltas
        .iter()
        .map(|d| {
            let k = color_deltas.iter().position(|p| p == d).unwrap_or_else(|| {
                color_deltas.push(*d);
                sizes.push(0);
                color_deltas.len() - 1
            });
            sizes[k] += 1;
            k
        })
        .collect();
    let radix: Vec<usize> = sizes.iter().map(|&s| s.min(capacity) + 1).collect();
    let mut weight = 1usize;
    let mut color_units = Vec::with_capacity(radix.len());
    for &r in &radix {
        color_units.push(weight as u16);
        weight = weight.saturating_mul(r);
        if weight > MAX_BAGS {
            return Err(Abort::OverBudget);
        }
    }
    let max_level = levels.asap_max();
    if max_level > MAX_LEVEL || n > MAX_NODES {
        return Err(Abort::OverBudget);
    }
    let words = adfg.reach().words();
    let mut ws = POOL
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .pop()
        .unwrap_or_default();
    let (orig, par) = choose_order(adfg, &mut ws);
    let color_of: Vec<usize> = orig.iter().map(|&i| color_of[i]).collect();
    let id = |i: &usize| NodeId(*i as u32);
    let g = Graph {
        par,
        orig: orig.iter().map(|&i| i as u32).collect(),
        n,
        words,
        capacity,
        span_limit,
        asap: orig.iter().map(|i| levels.asap(id(i))).collect(),
        alap: orig.iter().map(|i| levels.alap(id(i))).collect(),
        max_level,
        unit: color_of.iter().map(|&k| color_units[k]).collect(),
        color_units,
        color_deltas,
        radix,
    };
    let result = Builder::new(&g, &mut ws, &color_of, weight, cancel).run();
    if ws.bytes(true) <= RETAIN_BYTES {
        POOL.lock().unwrap_or_else(|e| e.into_inner()).push(ws);
    }
    result
}

/// Node pairs beyond which the build order is not scored.
const MAX_SCORED_PAIRS: usize = 1 << 13;

/// The order the build visits nodes in (position → node) and the
/// parallel rows permuted into it.
///
/// The DAG's size depends on the node order as a decision diagram's does
/// on its variable order. Two candidates are scored: the graph's own
/// order and ascending mobility (ALAP − ASAP, then ASAP), which lists the
/// critical path first. The score is the number of distinct depth-2
/// candidate sets `par(v) ∩ par(w) ∩ {> w}`, a cheap proxy (`O(pairs)`)
/// that picked the order with fewer states on every registry kernel.
fn choose_order(adfg: &AnalyzedDfg, ws: &mut Workspace) -> (Vec<usize>, Vec<u64>) {
    let n = adfg.len();
    let levels = adfg.levels();
    let graph_order: Vec<usize> = (0..n).collect();
    let graph_rows = permuted_rows(adfg, &graph_order);
    let mut by_mobility = graph_order.clone();
    by_mobility.sort_by_key(|&i| {
        let v = NodeId(i as u32);
        (levels.alap(v) - levels.asap(v), levels.asap(v), i)
    });
    if by_mobility == graph_order {
        return (graph_order, graph_rows);
    }
    let mobility_rows = permuted_rows(adfg, &by_mobility);
    let words = adfg.reach().words();
    match (
        depth2_sets(&graph_rows, n, words, ws),
        depth2_sets(&mobility_rows, n, words, ws),
    ) {
        (Some(a), Some(b)) if b < a => (by_mobility, mobility_rows),
        _ => (graph_order, graph_rows),
    }
}

/// The graph's parallel rows, rows and columns permuted into `order`.
fn permuted_rows(adfg: &AnalyzedDfg, order: &[usize]) -> Vec<u64> {
    let words = adfg.reach().words();
    let mut rank = vec![0usize; order.len()];
    for (pos, &node) in order.iter().enumerate() {
        rank[node] = pos;
    }
    let mut rows = vec![0u64; order.len() * words];
    for (pos, &node) in order.iter().enumerate() {
        for u in BitIter::new(adfg.reach().par_row(NodeId(node as u32))) {
            rows[pos * words + rank[u] / 64] |= 1 << (rank[u] % 64);
        }
    }
    rows
}

/// Distinct sets `par(v) ∩ par(w) ∩ {> w}` over parallel pairs `v < w`
/// (by hash), or `None` past [`MAX_SCORED_PAIRS`] pairs. Uses the
/// workspace's state index as the hash set.
fn depth2_sets(rows: &[u64], n: usize, words: usize, ws: &mut Workspace) -> Option<usize> {
    let above = |v: usize, i: usize| match i.cmp(&(v / 64)) {
        std::cmp::Ordering::Less => 0,
        std::cmp::Ordering::Equal => (u64::MAX << (v % 64)) << 1,
        std::cmp::Ordering::Greater => u64::MAX,
    };
    let mut pairs = 0usize;
    for v in 0..n {
        for i in v / 64..words {
            pairs += (rows[v * words + i] & above(v, i)).count_ones() as usize;
        }
    }
    if pairs > MAX_SCORED_PAIRS {
        return None;
    }
    let len = (2 * pairs).next_power_of_two().max(16);
    ws.index.clear();
    ws.index.resize(len, 0);
    let mut distinct = 0;
    for v in 0..n {
        let rv = &rows[v * words..(v + 1) * words];
        for i in v / 64..words {
            let mut bits = rv[i] & above(v, i);
            while bits != 0 {
                let w = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let rw = &rows[w * words..(w + 1) * words];
                let mut h = 0u64;
                for j in w / 64..words {
                    h = (h.rotate_left(5) ^ (rv[j] & rw[j] & above(w, j)))
                        .wrapping_mul(0x517C_C1B7_2722_0A95);
                }
                let h = (h >> 32) as u32 | 1;
                let mut k = h as usize & (len - 1);
                while ws.index[k] != 0 && ws.index[k] != h {
                    k = (k + 1) & (len - 1);
                }
                if ws.index[k] == 0 {
                    ws.index[k] = h;
                    distinct += 1;
                }
            }
        }
    }
    Some(distinct)
}

struct Builder<'g, 'w> {
    g: &'g Graph,
    ws: &'w mut Workspace,
    cancel: Option<&'g CancelToken>,
    stride: usize,
    polls: u32,
    peak_bytes: usize,
}

impl<'g, 'w> Builder<'g, 'w> {
    fn new(
        g: &'g Graph,
        ws: &'w mut Workspace,
        color_of: &[usize],
        bags: usize,
        cancel: Option<&'g CancelToken>,
    ) -> Self {
        let (w, stride) = (g.words, g.words + 1);
        let fill = |v: &mut Vec<u64>, len: usize| {
            v.clear();
            v.resize(len, 0);
        };
        // State 0 is the terminal: an all-zero key no live frame has.
        fill(&mut ws.keys, stride);
        ws.index.clear();
        ws.index.resize(64, 0);
        ws.edges.clear();
        ws.b_first.clear();
        ws.b_first.push(0);
        ws.b.clear();
        ws.b_big.clear();
        fill(&mut ws.frames, (g.capacity + 1) * stride);
        ws.children.clear();
        fill(&mut ws.acc, bags);
        ws.touched.clear();
        ws.pos.clear();
        ws.pos.resize(bags, NONE);
        ws.m_head.clear();
        ws.msg_label.clear();
        ws.msg_list.clear();
        ws.msg_next.clear();
        ws.e_bag.clear();
        ws.e_cnt.clear();
        ws.e_next.clear();
        ws.slot.clear();
        ws.slot.resize(bags, 0);
        ws.pattern_keys.clear();
        ws.counts.clear();
        ws.freqs.clear();
        fill(&mut ws.color_masks, g.radix.len() * w);
        for (v, &k) in color_of.iter().enumerate() {
            ws.color_masks[k * w + v / 64] |= 1 << (v % 64);
        }
        ws.asap_le.clear();
        ws.alap_ge.clear();
        if g.span_limit.is_some() {
            let levels = g.max_level as usize + 1;
            fill(&mut ws.asap_le, levels * w);
            fill(&mut ws.alap_ge, levels * w);
            for v in 0..g.n {
                let bit = 1u64 << (v % 64);
                for k in g.asap[v] as usize..levels {
                    ws.asap_le[k * w + v / 64] |= bit;
                }
                for k in 0..=g.alap[v] as usize {
                    ws.alap_ge[k * w + v / 64] |= bit;
                }
            }
        }
        Builder {
            g,
            ws,
            cancel,
            stride,
            polls: 0,
            peak_bytes: 0,
        }
    }

    fn run(mut self) -> Result<(PatternTable, DagStats), Abort> {
        if let Some(kind) = self.cancel.and_then(CancelToken::cancel_kind) {
            return Err(Abort::Cancelled(kind));
        }
        let g = self.g;
        // The root frame: every node a candidate, a window open both ways.
        for v in 0..g.n {
            self.ws.frames[v / 64] |= 1 << (v % 64);
        }
        let root = if self.normalize(0, g.capacity, g.span_limit.map(|_| (0, u32::MAX))) {
            self.visit(0)?
        } else {
            TERMINAL
        };
        let states = self.ws.keys.len() / self.stride;
        let edges = self.ws.edges.len();
        if root != TERMINAL {
            self.forward(root)?;
        }
        self.check_budget()?;
        let ws = &*self.ws;
        let table = table_from_rows(g.n, &ws.pattern_keys, &ws.counts, &ws.freqs);
        let stats = DagStats {
            states,
            edges,
            working_set_bytes: self.peak_bytes,
        };
        Ok((table, stats))
    }

    fn check_budget(&mut self) -> Result<(), Abort> {
        let bytes = self.ws.bytes(false);
        self.peak_bytes = self.peak_bytes.max(bytes);
        if bytes > BUDGET_BYTES {
            return Err(Abort::OverBudget);
        }
        Ok(())
    }

    /// Count one unit of work; every [`POLL_EVERY`] units, stop if the
    /// token fired or the arenas passed the budget.
    fn poll(&mut self) -> Result<(), Abort> {
        self.polls += 1;
        if self.polls.is_multiple_of(POLL_EVERY) {
            if let Some(kind) = self.cancel.and_then(CancelToken::cancel_kind) {
                return Err(Abort::Cancelled(kind));
            }
            self.check_budget()?;
        }
        Ok(())
    }

    /// Normalise the frame at `depth`, whose candidate words are written,
    /// and write its meta word; `false` means the frame is terminal.
    ///
    /// * Candidates the window already forbids are dropped: adding `u`
    ///   keeps the span within the limit iff `ASAP(u) ≤ lo + limit` and
    ///   `ALAP(u) ≥ hi − limit`, and the window only ever widens.
    /// * `hi` is raised to the candidates' minimum ASAP and `lo` lowered
    ///   to their maximum ALAP: beyond those bounds they constrain
    ///   nothing. If even all candidates together fit the limit, the
    ///   window is dropped altogether.
    /// * The capacity is clamped to the number of candidates.
    fn normalize(&mut self, depth: usize, cap: usize, window: Option<(u32, u32)>) -> bool {
        let g = self.g;
        let w = g.words;
        let base = depth * self.stride;
        let ws = &mut *self.ws;
        let frame = &mut ws.frames[base..base + w];
        let mut size = 0usize;
        let window = match (window, g.span_limit) {
            (Some((hi, lo)), Some(limit)) => {
                let a = lo.saturating_add(limit).min(g.max_level) as usize * w;
                let b = hi.saturating_sub(limit) as usize * w;
                let (mut min_asap, mut max_asap) = (u32::MAX, 0);
                let (mut min_alap, mut max_alap) = (u32::MAX, 0);
                for (i, word) in frame.iter_mut().enumerate() {
                    *word &= ws.asap_le[a + i] & ws.alap_ge[b + i];
                    let mut bits = *word;
                    size += bits.count_ones() as usize;
                    while bits != 0 {
                        let v = i * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        min_asap = min_asap.min(g.asap[v]);
                        max_asap = max_asap.max(g.asap[v]);
                        min_alap = min_alap.min(g.alap[v]);
                        max_alap = max_alap.max(g.alap[v]);
                    }
                }
                let (hi, lo) = (hi.max(min_asap), lo.min(max_alap));
                (hi.max(max_asap) > lo.min(min_alap).saturating_add(limit)).then_some((hi, lo))
            }
            _ => {
                size = frame.iter().map(|word| word.count_ones() as usize).sum();
                None
            }
        };
        if size == 0 || cap == 0 {
            return false;
        }
        ws.frames[base + w] = meta(cap.min(size), window);
        true
    }

    fn hash(key: &[u64]) -> usize {
        let mut h = 0u64;
        for &word in key {
            h = (h.rotate_left(5) ^ word).wrapping_mul(0x517C_C1B7_2722_0A95);
        }
        (h ^ h >> 31) as usize
    }

    /// Id of the interned state equal to the frame at `depth`, or the
    /// empty index slot it would take.
    fn lookup(&self, depth: usize) -> Result<u32, usize> {
        let ws = &*self.ws;
        let key = &ws.frames[depth * self.stride..(depth + 1) * self.stride];
        let mask = ws.index.len() - 1;
        let mut i = Self::hash(key) & mask;
        loop {
            match ws.index[i] {
                0 => return Err(i),
                id => {
                    let at = (id - 1) as usize * self.stride;
                    if &ws.keys[at..at + self.stride] == key {
                        return Ok(id - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Append the frame at `depth` as a new state (index slot `slot`).
    fn insert(&mut self, depth: usize, slot: usize) -> Result<u32, Abort> {
        let stride = self.stride;
        let ws = &mut *self.ws;
        let id = ws.keys.len() / stride;
        if id >= MAX_STATES {
            return Err(Abort::OverBudget);
        }
        ws.keys
            .extend_from_slice(&ws.frames[depth * stride..(depth + 1) * stride]);
        ws.index[slot] = id as u32 + 1;
        // Grow past a load of 3/4, re-indexing every state.
        if (id + 1) * 4 > ws.index.len() * 3 {
            let len = ws.index.len() * 2;
            ws.index.clear();
            ws.index.resize(len, 0);
            for s in 1..=id {
                let at = s * stride;
                let mut i = Self::hash(&ws.keys[at..at + stride]) & (len - 1);
                while ws.index[i] != 0 {
                    i = (i + 1) & (len - 1);
                }
                ws.index[i] = s as u32 + 1;
            }
        }
        Ok(id as u32)
    }

    /// Intern the non-terminal frame at `depth` and, first, every state
    /// below it; computes the state's `B` run.
    fn visit(&mut self, depth: usize) -> Result<u32, Abort> {
        let slot = match self.lookup(depth) {
            Ok(id) => return Ok(id),
            Err(slot) => slot,
        };
        self.poll()?;
        let g = self.g;
        let (w, stride) = (g.words, self.stride);
        let base = depth * stride;
        let m = self.ws.frames[base + w];
        let cap = meta_cap(m);
        if cap == 1 {
            let id = self.insert(depth, slot)?;
            self.ws.b_first.push(self.ws.b.len() as u32);
            return Ok(id);
        }
        let window = meta_window(m);
        let mark = self.ws.children.len();
        for i in 0..w {
            let mut bits = self.ws.frames[base + i];
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (parent, child) = self.ws.frames.split_at_mut(base + stride);
                let par = &g.par[v * w..(v + 1) * w];
                and_above(&mut child[..w], &parent[base..base + w], par, v);
                let child_window = window.map(|(hi, lo)| (hi.max(g.asap[v]), lo.min(g.alap[v])));
                let child = if self.normalize(depth + 1, cap - 1, child_window) {
                    self.visit(depth + 1)?
                } else {
                    TERMINAL
                };
                self.ws.children.push(child as u16);
            }
        }
        // B[s] = ∅ + Σ_v c(v) ⊕ B[child_v], once no recursion can reuse
        // the accumulator.
        let mut k = mark;
        for i in 0..w {
            let mut bits = self.ws.frames[base + i];
            while bits != 0 {
                let v = i * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let child = u32::from(self.ws.children[k]);
                k += 1;
                let unit = g.unit[v] as usize;
                self.add_acc(unit, 1);
                self.load_suffixes(child);
                for j in 0..self.ws.sfx_bag.len() {
                    let (y, b) = (self.ws.sfx_bag[j] as usize, self.ws.sfx_cnt[j]);
                    self.add_acc(unit + y, b);
                }
            }
        }
        // The slot found above is stale once the index has grown.
        let slot = match self.lookup(depth) {
            Err(slot) => slot,
            Ok(_) => unreachable!("state interned twice"),
        };
        let id = self.insert(depth, slot)?;
        let ws = &mut *self.ws;
        ws.edges.extend_from_slice(&ws.children[mark..]);
        ws.children.truncate(mark);
        ws.b_first.push(ws.b.len() as u32);
        for &bag in &ws.touched {
            let cnt = std::mem::take(&mut ws.acc[bag as usize]);
            let field = if cnt < BIG {
                cnt
            } else {
                ws.b_big.push(cnt);
                BIG | (ws.b_big.len() - 1) as u64
            };
            ws.b.push(u64::from(bag) << COUNT_BITS | field);
        }
        ws.touched.clear();
        Ok(id)
    }

    #[inline]
    fn add_acc(&mut self, bag: usize, cnt: u64) {
        let ws = &mut *self.ws;
        if ws.acc[bag] == 0 {
            ws.touched.push(bag as u16);
        }
        ws.acc[bag] = checked_add(ws.acc[bag], cnt, self.g);
    }

    /// Candidates of colour `k` in the state key at `at`.
    #[inline]
    fn color_count(&self, at: usize, k: usize) -> u64 {
        let w = self.g.words;
        (0..w)
            .map(|i| {
                u64::from((self.ws.keys[at + i] & self.ws.color_masks[k * w + i]).count_ones())
            })
            .sum()
    }

    /// Load `B[state]` without the empty bag into `sfx_*`: the closed
    /// form for a capacity-1 state (one singleton per candidate colour),
    /// its stored run otherwise, nothing for the terminal.
    fn load_suffixes(&mut self, state: u32) {
        self.ws.sfx_bag.clear();
        self.ws.sfx_cnt.clear();
        if state == TERMINAL {
            return;
        }
        let at = state as usize * self.stride;
        if meta_cap(self.ws.keys[at + self.g.words]) == 1 {
            for (k, &unit) in self.g.color_units.iter().enumerate() {
                let c = self.color_count(at, k);
                if c > 0 {
                    self.ws.sfx_bag.push(unit);
                    self.ws.sfx_cnt.push(c);
                }
            }
            return;
        }
        let first = self.ws.b_first[state as usize] as usize;
        let last = self
            .ws
            .b_first
            .get(state as usize + 1)
            .map_or(self.ws.b.len(), |&e| e as usize);
        for e in first..last {
            let (bag, cnt) = self.b_entry(e);
            self.ws.sfx_bag.push(bag as u16);
            self.ws.sfx_cnt.push(cnt);
        }
    }

    #[inline]
    fn b_entry(&self, e: usize) -> (usize, u64) {
        let entry = self.ws.b[e];
        let field = entry & ((1 << COUNT_BITS) - 1);
        let cnt = if field < BIG {
            field
        } else {
            self.ws.b_big[(field & !BIG) as usize]
        };
        ((entry >> COUNT_BITS) as usize, cnt)
    }

    /// Dense pattern id of a non-empty bag, allocating its row on first
    /// sight.
    #[inline]
    fn pattern(&mut self, bag: usize) -> usize {
        let s = self.ws.slot[bag];
        if s != 0 {
            return s as usize - 1;
        }
        self.new_pattern(bag)
    }

    #[cold]
    fn new_pattern(&mut self, bag: usize) -> usize {
        let ws = &mut *self.ws;
        let id = ws.counts.len();
        ws.slot[bag] = id as u16 + 1;
        ws.pattern_keys.push(self.g.key_of(bag));
        ws.counts.push(0);
        ws.freqs.resize(ws.freqs.len() + self.g.n, 0);
        id
    }

    /// The forward pass, in reverse id order. `F[t]` is never stored:
    /// each edge `s →v→ t` adds `c(v) ⊕ F[s]` to the *message* of the pair
    /// `(v, t)`, and when `t`'s turn comes every message is folded once —
    /// into the counts, into `h(·, v)` convolved with `B[t]`, and into
    /// `F[t]`. Many edges share a pair, so the convolution runs per pair,
    /// not per edge.
    fn forward(&mut self, root: u32) -> Result<(), Abort> {
        let g = self.g;
        let w = g.words;
        let states = root as usize + 1;
        let ws = &mut *self.ws;
        ws.m_head.clear();
        ws.m_head.resize(states, NONE);
        ws.msg_free = NONE;
        ws.entry_free = NONE;
        // Edge runs are stored in id order: walk them back from the end.
        let mut end = ws.edges.len();
        for s in (1..states).rev() {
            self.poll()?;
            let at = s * self.stride;
            let cap = meta_cap(self.ws.keys[at + w]);
            if s == root as usize {
                self.ws.fx_bag.clear();
                self.ws.fx_cnt.clear();
                self.ws.fx_bag.push(0);
                self.ws.fx_cnt.push(1);
            } else {
                self.fold_messages(s as u32);
            }
            if cap == 1 {
                self.end_all(at);
                continue;
            }
            let mut deg = 0usize;
            for i in 0..w {
                deg += self.ws.keys[at + i].count_ones() as usize;
            }
            end -= deg;
            let mut k = end;
            for i in 0..w {
                let mut bits = self.ws.keys[at + i];
                while bits != 0 {
                    let v = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let child = u32::from(self.ws.edges[k]);
                    k += 1;
                    if child == TERMINAL {
                        self.end_at(v);
                    } else {
                        self.send(v, child);
                    }
                }
            }
        }
        Ok(())
    }

    /// `F` of the state in `fx_*` times one more node `v`: count the
    /// antichains that end with `v` and their `h(·, v)`.
    fn end_at(&mut self, v: usize) {
        let g = self.g;
        let unit = g.unit[v] as usize;
        for j in 0..self.ws.fx_bag.len() {
            let (x, f) = (self.ws.fx_bag[j] as usize, self.ws.fx_cnt[j]);
            let p = self.pattern(x + unit);
            self.bump(p, v, f, 1);
        }
    }

    /// The closed form of a capacity-1 state (its `F` in `fx_*`): every
    /// candidate ends an antichain.
    fn end_all(&mut self, at: usize) {
        let g = self.g;
        let (n, w) = (g.n, g.words);
        for k in 0..g.color_units.len() {
            let unit = g.color_units[k] as usize;
            let m = self.color_count(at, k);
            if m == 0 {
                continue;
            }
            for j in 0..self.ws.fx_bag.len() {
                let (x, f) = (self.ws.fx_bag[j] as usize, self.ws.fx_cnt[j]);
                let p = self.pattern(x + unit);
                let ws = &mut *self.ws;
                ws.counts[p] = checked_add(ws.counts[p], checked_mul(f, m, g), g);
                for i in 0..w {
                    let mut bits = ws.keys[at + i] & ws.color_masks[k * w + i];
                    while bits != 0 {
                        let v = i * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let cell = &mut ws.freqs[p * n + g.orig[v] as usize];
                        *cell = checked_add(*cell, f, g);
                    }
                }
            }
        }
    }

    /// `count[p] += f · m` and `h(p, v) += f · m`.
    #[inline]
    fn bump(&mut self, p: usize, v: usize, f: u64, m: u64) {
        let g = self.g;
        let fm = checked_mul(f, m, g);
        let ws = &mut *self.ws;
        ws.counts[p] = checked_add(ws.counts[p], fm, g);
        let cell = &mut ws.freqs[p * g.n + g.orig[v] as usize];
        *cell = checked_add(*cell, fm, g);
    }

    /// `h(p, v) += f · m`.
    #[inline]
    fn bump_freq(&mut self, p: usize, v: usize, f: u64, m: u64) {
        let g = self.g;
        let cell = &mut self.ws.freqs[p * g.n + g.orig[v] as usize];
        *cell = checked_add(*cell, checked_mul(f, m, g), g);
    }

    /// Add `c(v) ⊕ F` (`F` in `fx_*`) to the message of the pair
    /// `(v, child)`.
    fn send(&mut self, v: usize, child: u32) {
        let g = self.g;
        let unit = g.unit[v] as usize;
        let ws = &mut *self.ws;
        let mut m = ws.m_head[child as usize];
        while m != NONE && usize::from(ws.msg_label[m as usize]) != v {
            m = ws.msg_next[m as usize];
        }
        if m == NONE {
            m = if ws.msg_free != NONE {
                let m = ws.msg_free;
                ws.msg_free = ws.msg_next[m as usize];
                ws.msg_label[m as usize] = v as u16;
                ws.msg_list[m as usize] = NONE;
                m
            } else {
                ws.msg_label.push(v as u16);
                ws.msg_list.push(NONE);
                ws.msg_next.push(NONE);
                (ws.msg_label.len() - 1) as u32
            };
            ws.msg_next[m as usize] = ws.m_head[child as usize];
            ws.m_head[child as usize] = m;
        }
        // Index the message's entries by bag, add, unindex.
        let mut e = ws.msg_list[m as usize];
        while e != NONE {
            ws.pos[ws.e_bag[e as usize] as usize] = e;
            e = ws.e_next[e as usize];
        }
        for j in 0..ws.fx_bag.len() {
            let (bag, f) = (ws.fx_bag[j] as usize + unit, ws.fx_cnt[j]);
            let e = ws.pos[bag];
            if e != NONE {
                ws.e_cnt[e as usize] = checked_add(ws.e_cnt[e as usize], f, g);
                continue;
            }
            let e = if ws.entry_free != NONE {
                let e = ws.entry_free;
                ws.entry_free = ws.e_next[e as usize];
                ws.e_bag[e as usize] = bag as u16;
                ws.e_cnt[e as usize] = f;
                e
            } else {
                ws.e_bag.push(bag as u16);
                ws.e_cnt.push(f);
                ws.e_next.push(NONE);
                (ws.e_bag.len() - 1) as u32
            };
            ws.e_next[e as usize] = ws.msg_list[m as usize];
            ws.msg_list[m as usize] = e;
            ws.pos[bag] = e;
        }
        let mut e = ws.msg_list[m as usize];
        while e != NONE {
            ws.pos[ws.e_bag[e as usize] as usize] = NONE;
            e = ws.e_next[e as usize];
        }
    }

    /// Fold every message into state `t`: the antichains ending on the
    /// message's edges, `h(·, v)` against `B[t]`, and `F[t]` into `fx_*`.
    /// Frees the messages.
    fn fold_messages(&mut self, t: u32) {
        self.load_suffixes(t);
        let mut m = std::mem::replace(&mut self.ws.m_head[t as usize], NONE);
        while m != NONE {
            let v = usize::from(self.ws.msg_label[m as usize]);
            let mut e = self.ws.msg_list[m as usize];
            while e != NONE {
                let (xc, f) = (
                    self.ws.e_bag[e as usize] as usize,
                    self.ws.e_cnt[e as usize],
                );
                let p = self.pattern(xc);
                self.bump(p, v, f, 1);
                self.add_acc(xc, f);
                for j in 0..self.ws.sfx_bag.len() {
                    let (y, b) = (self.ws.sfx_bag[j] as usize, self.ws.sfx_cnt[j]);
                    let p = self.pattern(xc + y);
                    self.bump_freq(p, v, f, b);
                }
                let next = self.ws.e_next[e as usize];
                self.ws.e_next[e as usize] = self.ws.entry_free;
                self.ws.entry_free = e;
                e = next;
            }
            let next = self.ws.msg_next[m as usize];
            self.ws.msg_next[m as usize] = self.ws.msg_free;
            self.ws.msg_free = m;
            m = next;
        }
        let ws = &mut *self.ws;
        ws.fx_bag.clear();
        ws.fx_cnt.clear();
        for &bag in &ws.touched {
            ws.fx_bag.push(bag);
            ws.fx_cnt.push(std::mem::take(&mut ws.acc[bag as usize]));
        }
        ws.touched.clear();
    }
}

#[inline]
fn checked_add(a: u64, b: u64, g: &Graph) -> u64 {
    a.checked_add(b).unwrap_or_else(|| overflow(g))
}

#[inline]
fn checked_mul(a: u64, b: u64, g: &Graph) -> u64 {
    a.checked_mul(b).unwrap_or_else(|| overflow(g))
}

#[cold]
fn overflow(g: &Graph) -> ! {
    panic!(
        "pattern table overflow: a count passed 2^64 - 1 ({} nodes, capacity {})",
        g.n, g.capacity
    )
}
