//! Span-limited antichain enumeration (paper §5.1).

use crate::bits::{and_above, BitIter};
use mps_dfg::{AnalyzedDfg, Antichain, NodeId};

/// Parameters of the antichain enumeration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EnumerateConfig {
    /// Maximum antichain size `C` (number of reconfigurable ALUs; 5 on the
    /// Montium). Must be ≥ 1 and ≤ 16.
    pub capacity: usize,
    /// Maximum allowed span. Antichains whose span exceeds this are pruned
    /// together with their entire superset subtree (span is monotone under
    /// insertion), which is the paper's complexity-control lever (Table 5).
    /// `None` disables the limit.
    pub span_limit: Option<u32>,
    /// Process enumeration roots on multiple threads. Only
    /// [`crate::PatternTable::build_reference`] acts on it;
    /// [`crate::PatternTable::build`] and the visitors run on the calling
    /// thread whatever its value.
    pub parallel: bool,
}

impl Default for EnumerateConfig {
    fn default() -> Self {
        EnumerateConfig {
            capacity: 5,
            span_limit: None,
            parallel: true,
        }
    }
}

impl EnumerateConfig {
    /// Montium defaults with an explicit span limit.
    pub fn with_span_limit(limit: u32) -> Self {
        EnumerateConfig {
            span_limit: Some(limit),
            ..Self::default()
        }
    }
}

/// Reusable DFS state for span-limited antichain enumeration.
///
/// All working storage is allocated once in [`AntichainEnumerator::new`]:
/// the per-depth candidate bitsets `cand[d]` and the per-depth index
/// scratch stacks `scratch[d]`, each sized for the whole graph up front.
/// [`AntichainEnumerator::enumerate_root`] therefore performs **no heap
/// allocation**, no matter how many antichains it visits — the property
/// the DFS fold of [`crate::PatternTable::build_dfs`] relies on when it
/// reuses one enumerator for every root.
///
/// # Scratch-stack invariants
///
/// * `scratch[d]` holds a snapshot of the set bits of `cand[d]`, taken at
///   the top of the depth-`d` loop frame. The frame iterates the snapshot
///   while `cand[d + 1]` (and deeper) are overwritten per candidate;
///   recursion into depth `d + 1` never touches `cand[d]` or
///   `scratch[≤ d]`, so the snapshot stays valid for the whole frame.
/// * Each `scratch[d]` is `mem::take`n for the duration of its frame and
///   restored on exit, so its buffer (and capacity) survives into the next
///   visit of depth `d`. Capacity is pre-reserved for every node, so even
///   the first frame never reallocates.
pub struct AntichainEnumerator<'a> {
    adfg: &'a AnalyzedDfg,
    cfg: EnumerateConfig,
    /// `cand[d]` = candidate bitset at depth `d` (nodes that are greater
    /// than every chosen node and parallelizable with all of them).
    cand: Vec<Vec<u64>>,
    /// `scratch[d]` = the indices of `cand[d]`, snapshotted per frame.
    scratch: Vec<Vec<u32>>,
    current: Antichain,
    max_asap: Vec<u32>,
    min_alap: Vec<u32>,
}

impl<'a> AntichainEnumerator<'a> {
    /// Allocate enumeration state for `adfg` under `cfg`.
    ///
    /// Panics unless `cfg.capacity` is in `1..=16`.
    pub fn new(adfg: &'a AnalyzedDfg, cfg: EnumerateConfig) -> Self {
        assert!(
            (1..=16).contains(&cfg.capacity),
            "capacity must be in 1..=16, got {}",
            cfg.capacity
        );
        let words = adfg.reach().words();
        let nodes = adfg.len();
        AntichainEnumerator {
            adfg,
            cfg,
            cand: vec![vec![0u64; words]; cfg.capacity + 1],
            scratch: (0..=cfg.capacity)
                .map(|_| Vec::with_capacity(nodes))
                .collect(),
            current: Antichain::new(),
            max_asap: vec![0; cfg.capacity + 1],
            min_alap: vec![0; cfg.capacity + 1],
        }
    }

    /// Enumerate every antichain whose smallest element is `root`, calling
    /// `visit(antichain, span)` for each (including the singleton).
    pub fn enumerate_root<F: FnMut(&Antichain, u32)>(&mut self, root: NodeId, mut visit: F) {
        self.run(root, &mut visit);
    }

    fn run<F: FnMut(&Antichain, u32)>(&mut self, root: NodeId, visit: &mut F) {
        let levels = self.adfg.levels();
        self.current = Antichain::new();
        self.current.push(root);
        self.max_asap[1] = levels.asap(root);
        self.min_alap[1] = levels.alap(root);
        visit(&self.current, 0); // singleton span is always 0 (ASAP ≤ ALAP)

        if self.cfg.capacity == 1 {
            return;
        }

        // Depth-1 candidates: parallel with root, index greater than root.
        let par = self.adfg.reach().par_row(root);
        and_above(&mut self.cand[1], par, par, root.index());
        self.extend(1, visit);
    }

    /// Try to extend the current antichain (of size `depth`) with every
    /// candidate at `cand[depth]`.
    fn extend<F: FnMut(&Antichain, u32)>(&mut self, depth: usize, visit: &mut F) {
        let levels = self.adfg.levels();
        // Candidates are iterated out of the depth's scratch snapshot
        // because `self.cand` is re-borrowed mutably for the child depth.
        // `mem::take` detaches the preallocated buffer from `self` for the
        // duration of the frame (no allocation: the empty `Vec` that takes
        // its place is never grown) and the restore at the bottom keeps
        // its capacity for the next frame at this depth.
        let mut cands = std::mem::take(&mut self.scratch[depth]);
        cands.clear();
        cands.extend(BitIter::new(&self.cand[depth]).map(|i| i as u32));
        for &cand in &cands {
            let vi = cand as usize;
            let v = NodeId(cand);
            let new_max = self.max_asap[depth].max(levels.asap(v));
            let new_min = self.min_alap[depth].min(levels.alap(v));
            let span = new_max.saturating_sub(new_min);
            if let Some(limit) = self.cfg.span_limit {
                // Span is monotone under insertion: the entire superset
                // subtree rooted at `current ∪ {v}` is pruned.
                if span > limit {
                    continue;
                }
            }

            self.current.push(v);
            visit(&self.current, span);

            if self.current.len() < self.cfg.capacity {
                self.max_asap[depth + 1] = new_max;
                self.min_alap[depth + 1] = new_min;
                let par = self.adfg.reach().par_row(v);
                // Next depth's candidates: current ∩ par(v), indices > v.
                let (lo, hi) = self.cand.split_at_mut(depth + 1);
                and_above(&mut hi[0], &lo[depth], par, vi);
                self.extend(depth + 1, visit);
            }
            self.current.pop();
        }
        self.scratch[depth] = cands;
    }
}

/// Visit every antichain of size `1..=cfg.capacity` and span within
/// `cfg.span_limit`, in a deterministic (lexicographic by node id) order.
/// The visitor also receives the exact span of each antichain.
pub fn for_each_antichain<F: FnMut(&Antichain, u32)>(
    adfg: &AnalyzedDfg,
    cfg: EnumerateConfig,
    mut visit: F,
) {
    let mut dfs = AntichainEnumerator::new(adfg, cfg);
    for root in adfg.dfg().node_ids() {
        dfs.run(root, &mut visit);
    }
}

/// Visit every antichain whose minimum node id is `root` (the unit of
/// parallelism of [`crate::PatternTable::build_reference`]).
///
/// Convenience wrapper that builds a fresh [`AntichainEnumerator`] for the
/// one root; callers visiting many roots should construct the enumerator
/// once and call [`AntichainEnumerator::enumerate_root`] per root instead.
pub fn for_each_antichain_from_root<F: FnMut(&Antichain, u32)>(
    adfg: &AnalyzedDfg,
    cfg: EnumerateConfig,
    root: NodeId,
    mut visit: F,
) {
    let mut dfs = AntichainEnumerator::new(adfg, cfg);
    dfs.run(root, &mut visit);
}

/// Collect every antichain into a vector (small graphs / tests / Table 4).
pub fn enumerate_antichains(adfg: &AnalyzedDfg, cfg: EnumerateConfig) -> Vec<Antichain> {
    let mut out = Vec::new();
    for_each_antichain(adfg, cfg, |a, _| out.push(*a));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mps_dfg::{Color, DfgBuilder};

    fn c(ch: char) -> Color {
        Color::from_char(ch).unwrap()
    }

    /// The paper's Fig. 4 graph: a1 → a2, a2 → b4, a3 → b5.
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

    fn names(adfg: &AnalyzedDfg, a: &Antichain) -> Vec<String> {
        a.iter().map(|&n| adfg.dfg().name(n).to_string()).collect()
    }

    #[test]
    fn fig4_all_antichains_without_span_limit() {
        let adfg = fig4();
        let cfg = EnumerateConfig {
            capacity: 5,
            span_limit: None,
            parallel: false,
        };
        let all = enumerate_antichains(&adfg, cfg);
        let sets: Vec<Vec<String>> = all.iter().map(|a| names(&adfg, a)).collect();
        // 5 singletons.
        assert_eq!(sets.iter().filter(|s| s.len() == 1).count(), 5);
        // Pairs: {a1,a3},{a1,b5},{a2,a3},{a2,b5},{a3,b4},{b4,b5}.
        let pairs: Vec<&Vec<String>> = sets.iter().filter(|s| s.len() == 2).collect();
        assert_eq!(pairs.len(), 6);
        // Triples: {a1,a3,b5}? a1∥a3, a1∥b5, a3—b5 dependent → no.
        // {a2,a3,b5}? a3→b5 dependent → no. {a3,b4,?}.. {a1,a3} can extend
        // with nothing (b5 follows a3). {a2,a3}: same. {a3,b4}: b4∥a3? yes;
        // extend with b5? b5 follows a3 → no. So no triples.
        assert_eq!(sets.iter().filter(|s| s.len() >= 3).count(), 0);
    }

    #[test]
    fn fig4_every_result_is_an_antichain() {
        let adfg = fig4();
        let all = enumerate_antichains(&adfg, EnumerateConfig::default());
        for a in &all {
            assert!(
                adfg.reach().is_antichain(a.as_slice()),
                "{:?}",
                names(&adfg, a)
            );
        }
    }

    #[test]
    fn no_duplicates_and_sorted_members() {
        let adfg = fig4();
        let all = enumerate_antichains(&adfg, EnumerateConfig::default());
        let mut seen = std::collections::HashSet::new();
        for a in &all {
            let key: Vec<u32> = a.iter().map(|n| n.0).collect();
            let mut sorted = key.clone();
            sorted.sort_unstable();
            assert_eq!(key, sorted, "members must be ascending");
            assert!(seen.insert(key), "duplicate antichain");
        }
    }

    #[test]
    fn span_limit_prunes() {
        // Two parallel chains of three: {x0, y2} has span 2, {x0, y0} has
        // span 0, so unlimited vs limit-0 counts must differ.
        let mut b = DfgBuilder::new();
        let x0 = b.add_node("x0", c('a'));
        let x1 = b.add_node("x1", c('a'));
        let x2 = b.add_node("x2", c('a'));
        b.add_edge(x0, x1).unwrap();
        b.add_edge(x1, x2).unwrap();
        let y0 = b.add_node("y0", c('a'));
        let y1 = b.add_node("y1", c('a'));
        let y2 = b.add_node("y2", c('a'));
        b.add_edge(y0, y1).unwrap();
        b.add_edge(y1, y2).unwrap();
        let adfg = AnalyzedDfg::new(b.build().unwrap());
        // {x0, y2} has span U(2-0) = 2; {x0,y0} span 0.
        let unlimited = enumerate_antichains(
            &adfg,
            EnumerateConfig {
                capacity: 2,
                span_limit: None,
                parallel: false,
            },
        );
        let tight = enumerate_antichains(
            &adfg,
            EnumerateConfig {
                capacity: 2,
                span_limit: Some(0),
                parallel: false,
            },
        );
        assert!(tight.len() < unlimited.len());
        // With span ≤ 0: pairs {x_i, y_i} only (levels must align).
        let pairs0 = tight.iter().filter(|a| a.len() == 2).count();
        assert_eq!(pairs0, 3, "exactly the level-aligned cross pairs");
        let pairs_all = unlimited.iter().filter(|a| a.len() == 2).count();
        assert_eq!(pairs_all, 9, "all cross pairs are antichains");
    }

    #[test]
    fn capacity_bounds_size() {
        let adfg = fig4();
        for cap in 1..=3 {
            let all = enumerate_antichains(
                &adfg,
                EnumerateConfig {
                    capacity: cap,
                    span_limit: None,
                    parallel: false,
                },
            );
            assert!(all.iter().all(|a| a.len() <= cap));
        }
    }

    #[test]
    fn reported_span_is_exact() {
        let adfg = fig4();
        for_each_antichain(&adfg, EnumerateConfig::default(), |a, s| {
            assert_eq!(s, adfg.span(a.as_slice()), "span mismatch for {a:?}");
        });
    }

    #[test]
    fn root_partition_is_complete() {
        // Union over roots must equal the full enumeration.
        let adfg = fig4();
        let cfg = EnumerateConfig::default();
        let full = enumerate_antichains(&adfg, cfg).len();
        let mut by_roots = 0usize;
        for root in adfg.dfg().node_ids() {
            for_each_antichain_from_root(&adfg, cfg, root, |_, _| by_roots += 1);
        }
        assert_eq!(full, by_roots);
    }

    #[test]
    fn enumerator_is_reusable_across_roots() {
        // One enumerator driven over every root visits exactly the full
        // enumeration (state fully resets between roots).
        let adfg = fig4();
        let cfg = EnumerateConfig::default();
        let full = enumerate_antichains(&adfg, cfg).len();
        let mut en = AntichainEnumerator::new(&adfg, cfg);
        let mut count = 0usize;
        for root in adfg.dfg().node_ids() {
            en.enumerate_root(root, |_, _| count += 1);
        }
        assert_eq!(count, full);
    }

    #[test]
    fn empty_graph_yields_nothing() {
        let adfg = AnalyzedDfg::new(DfgBuilder::new().build().unwrap());
        assert!(enumerate_antichains(&adfg, EnumerateConfig::default()).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let adfg = fig4();
        enumerate_antichains(
            &adfg,
            EnumerateConfig {
                capacity: 0,
                span_limit: None,
                parallel: false,
            },
        );
    }
}
