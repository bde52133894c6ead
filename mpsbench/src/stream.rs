//! Seeded request streams: every compile key the three workloads send.
//!
//! A key is a compact [`KeySpec`]; its request line is rendered on demand.
//! Every draw is a pure function of `(seed, index)`, so any thread can
//! produce request `i` and a traced replay sends exactly the stream the
//! daemons saw.

use mps::dfg::{Dfg, DfgBuilder};
use mps::workloads::{random_layered_dag, RandomDagConfig};
use mps_serve::protocol::Request;

/// The registry kernels the sweeps draw from.
pub const KERNELS: [&str; 12] = [
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

/// Medium kernels (about 0.5–4 ms to compile) and the capacity each is
/// compiled at: the fresh misses of the Zipf workloads.
pub const MEDIUM: [(&str, usize); 7] = [
    ("dft5", 5),
    ("fir16", 5),
    ("iir4", 5),
    ("dct8", 4),
    ("matmul3", 4),
    ("fft8", 4),
    ("star32", 4),
];

/// Pdef values of one design-space sweep (the Table 7 axis).
pub const PDEFS: std::ops::RangeInclusive<usize> = 2..=8;
const SWEEP_LEN: u64 = 7;
/// Keys in the Zipf workloads' hot set.
pub const HOT_KEYS: usize = 256;
/// One request in this many is a fresh key on hot-zipf.
pub const FRESH_EVERY: u64 = 50;
/// Fresh keys fleet-zipf compiles after its window slices (its misses).
pub const FLEET_MISSES: usize = 1000;
/// Keys cold-sweep reads back twice after each window slice (its hits).
pub const REREAD_KEYS: usize = 600;
/// Keys whose replies define `mean_cycles` on cold-sweep: 12 blocks, one
/// full walk of every kernel's configurations.
pub const QUALITY_PREFIX: u64 = 12 * 16 * SWEEP_LEN;

/// splitmix64 finalizer: the stateless mixer behind every draw.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A draw for `(seed, stream, index)`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    mix(mix(mix(seed) ^ stream.wrapping_mul(0xa24b_aed4_963e_e407)) ^ index)
}

fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Where a key's graph comes from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Base {
    /// A registry kernel.
    Registry(&'static str),
    /// A seeded `random_layered_dag`.
    Random { seed: u64, layers: usize },
}

impl Base {
    /// The untagged graph.
    pub fn build(&self) -> Dfg {
        match self {
            Base::Registry(name) => {
                mps::workloads::by_name(name).expect("registry kernel resolves")
            }
            Base::Random { seed, layers } => random_layered_dag(&RandomDagConfig {
                seed: *seed,
                layers: *layers,
                ..RandomDagConfig::default()
            }),
        }
    }

    fn label(&self) -> String {
        match self {
            Base::Registry(name) => (*name).to_string(),
            Base::Random { seed, layers } => format!("random{seed:x}L{layers}"),
        }
    }
}

/// The compile stage after selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tail {
    Plain,
    /// Tile replay on a 5-ALU tile (`"alus": 5`).
    Alus5,
    /// Fabric `2@1`.
    Fabric2,
    /// Fabric `4:3,16@2` (3-ALU tiles, so capacity 3).
    Fabric4,
}

impl Tail {
    pub fn fabric(self) -> Option<&'static str> {
        match self {
            Tail::Fabric2 => Some("2@1"),
            Tail::Fabric4 => Some("4:3,16@2"),
            _ => None,
        }
    }
}

/// One compile key.
#[derive(Clone, Debug)]
pub struct KeySpec {
    /// Unique within a run's plan.
    pub id: u64,
    pub base: Base,
    /// Renames every node with this tag, making the key distinct while
    /// keeping the compile work of the untagged graph. `None` sends a
    /// registry kernel by name.
    pub tag: Option<u64>,
    pub capacity: usize,
    pub span: Option<u32>,
    pub pdef: usize,
    pub tail: Tail,
}

impl KeySpec {
    fn new(
        id: u64,
        base: Base,
        tag: Option<u64>,
        capacity: usize,
        span: Option<u32>,
        pdef: usize,
        tail: Tail,
    ) -> KeySpec {
        let capacity = if tail == Tail::Fabric4 { 3 } else { capacity };
        KeySpec {
            id,
            base,
            tag,
            capacity,
            span,
            pdef,
            tail,
        }
    }

    /// The graph the request carries.
    pub fn graph(&self) -> Dfg {
        let g = self.base.build();
        match self.tag {
            None => g,
            Some(tag) => renamed(&g, tag),
        }
    }

    /// The compile request.
    pub fn request(&self) -> Request {
        let mut req = Request::op("compile");
        match (&self.base, self.tag) {
            (Base::Registry(name), None) => req.workload = Some((*name).to_string()),
            _ => req.graph = Some(mps::dfg::to_text(&self.graph())),
        }
        req.pdef = Some(self.pdef);
        req.capacity = Some(self.capacity);
        req.span = Some(self.span);
        if self.tail == Tail::Alus5 {
            req.alus = Some(5);
        }
        req.fabric = self.tail.fabric().map(str::to_string);
        req
    }

    pub fn line(&self) -> String {
        self.request().to_line()
    }

    /// The daemons' cache key: graph and config content hashes.
    pub fn cache_key(&self) -> (u64, u64) {
        let cfg = self
            .request()
            .compile_config()
            .expect("workload keys are valid");
        (self.graph().content_hash(), cfg.content_hash())
    }

    /// Identity of the oracle answer: everything but the rename tag, which
    /// changes node names only and so no decision.
    pub fn oracle_id(&self) -> String {
        format!(
            "{}|c{}|s{:?}|p{}|{:?}",
            self.base.label(),
            self.capacity,
            self.span,
            self.pdef,
            self.tail
        )
    }
}

/// `g` with every node name suffixed by `tag`: same structure, colors and
/// node order, different content hash.
pub fn renamed(g: &Dfg, tag: u64) -> Dfg {
    let mut b = DfgBuilder::with_capacity(g.len(), g.edge_count());
    for id in g.node_ids() {
        b.add_node(format!("{}_t{tag:x}", g.name(id)), g.color(id));
    }
    for (u, v) in g.edges() {
        b.add_edge(u, v)
            .expect("renaming keeps the edge set acyclic");
    }
    b.build().expect("renaming keeps the graph valid")
}

const SPANS: [Option<u32>; 3] = [Some(1), Some(2), None];

/// `(capacity, span)` of one table key, in walking order: every span at
/// capacity 5 three times and once at capacity 4 (the capacity-4 slice is
/// a quarter), ordered so any three consecutive entries hold each span
/// once — a partial walk stays balanced.
const COMBOS: [(usize, Option<u32>); 12] = [
    (5, Some(1)),
    (5, Some(2)),
    (5, None),
    (4, Some(1)),
    (5, Some(2)),
    (5, None),
    (5, Some(1)),
    (4, Some(2)),
    (5, None),
    (5, Some(1)),
    (5, Some(2)),
    (4, None),
];

/// Tails over 16 consecutive keys: 1/8 tile replay, 1/16 each fabric.
const TAILS: [Tail; 16] = [
    Tail::Plain,
    Tail::Alus5,
    Tail::Plain,
    Tail::Plain,
    Tail::Fabric2,
    Tail::Plain,
    Tail::Plain,
    Tail::Plain,
    Tail::Plain,
    Tail::Alus5,
    Tail::Plain,
    Tail::Plain,
    Tail::Fabric4,
    Tail::Plain,
    Tail::Plain,
    Tail::Plain,
];

/// A seeded permutation of `0..n` for `(seed, stream, index)`.
fn permutation(n: usize, seed: u64, stream: u64, index: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        let j = (draw(seed, stream, index * n as u64 + k as u64) % (k as u64 + 1)) as usize;
        order.swap(k, j);
    }
    order
}

/// The `occurrence`-th table key of a registry kernel: each kernel walks
/// [`COMBOS`] from its own seeded starting point, so every 12 occurrences
/// cover the same configurations whatever the seed.
fn combo(seed: u64, kernel: usize, occurrence: u64) -> (usize, Option<u32>) {
    let n = COMBOS.len() as u64;
    COMBOS[((occurrence + draw(seed, 8, kernel as u64)) % n) as usize]
}

/// cold-sweep request `i`: group `i / 7` is one graph swept over Pdef 2–8
/// (its siblings share a pattern table). Groups come in blocks of 16 — the
/// 12 registry kernels and 4 random DAGs in a seeded order — and each
/// kernel's configuration walks [`COMBOS`], so every 12 blocks send the
/// same kernels and configurations whatever the seed. Each group's graph
/// is renamed with its group number, so no key repeats.
pub fn cold_key(seed: u64, i: u64) -> KeySpec {
    let g = i / SWEEP_LEN;
    let (block, slot) = (g / 16, g % 16);
    let pick = permutation(16, seed, 1, block)[slot as usize];
    let (base, (capacity, span)) = if pick < KERNELS.len() {
        (Base::Registry(KERNELS[pick]), combo(seed, pick, block))
    } else {
        let occurrence = block * 4 + (pick - KERNELS.len()) as u64;
        let base = Base::Random {
            seed: draw(seed, 2, g),
            layers: 4 + (occurrence % 5) as usize,
        };
        (base, COMBOS[(occurrence % COMBOS.len() as u64) as usize])
    };
    let j = i % SWEEP_LEN;
    let pdef = *PDEFS.start() + j as usize;
    let tail = TAILS[((block * SWEEP_LEN + j + pick as u64) % 16) as usize];
    KeySpec::new(i, base, Some(g), capacity, span, pdef, tail)
}

/// The Zipf workloads' hot set: `HOT_KEYS` distinct registry keys sent by
/// name. Key `r` is kernel `r % 12`, so the kernel behind each popularity
/// rank is the same for every seed; configurations walk [`COMBOS`] and
/// [`TAILS`], Pdef is seeded.
pub fn hot_keys(seed: u64, salt: u64) -> Vec<KeySpec> {
    let mut seen = std::collections::HashSet::new();
    let tail_offset = draw(seed, salt * 16, u64::MAX);
    (0..HOT_KEYS as u64)
        .map(|r| {
            let kernel = (r % KERNELS.len() as u64) as usize;
            let (capacity, span) = combo(seed ^ salt, kernel, r / KERNELS.len() as u64);
            let tail = TAILS[((r + tail_offset) % 16) as usize];
            let first = draw(seed, salt * 16 + 1, r) % SWEEP_LEN;
            // Bump Pdef past any key an earlier rank already took.
            (0..SWEEP_LEN)
                .map(|k| {
                    let pdef = *PDEFS.start() + ((first + k) % SWEEP_LEN) as usize;
                    KeySpec::new(
                        r,
                        Base::Registry(KERNELS[kernel]),
                        None,
                        capacity,
                        span,
                        pdef,
                        tail,
                    )
                })
                .find(|spec| seen.insert(spec.oracle_id()))
                .expect("seven Pdef values leave a free key")
        })
        .collect()
}

/// Fresh medium-kernel key number `n` of a stream (renamed with `id`, so
/// it misses). Kernels, spans and Pdef values cycle from a seeded offset,
/// so any run of fresh keys has the same mix whatever the seed.
pub fn fresh_key(seed: u64, salt: u64, id: u64, n: u64) -> KeySpec {
    let m = MEDIUM.len() as u64;
    let g = n + draw(seed, salt * 16, u64::MAX) % (m * 3 * SWEEP_LEN * 8);
    let (name, capacity) = MEDIUM[(g % m) as usize];
    let span = SPANS[((g / m) % 3) as usize];
    let pdef = *PDEFS.start() + ((g / (m * 3)) % SWEEP_LEN) as usize;
    let tail = if (g / (m * 3 * SWEEP_LEN)).is_multiple_of(8) {
        Tail::Alus5
    } else {
        Tail::Plain
    };
    KeySpec::new(
        id,
        Base::Registry(name),
        Some(id),
        capacity,
        span,
        pdef,
        tail,
    )
}

/// Zipf(s = 1) rank sampler over `n` ranks.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank (0-based) for a uniform draw `x`.
    pub fn rank(&self, x: u64) -> usize {
        let u = unit(x);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }

    /// The probability of rank `r`.
    pub fn weight(&self, r: usize) -> f64 {
        self.cdf[r] - if r == 0 { 0.0 } else { self.cdf[r - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_keys_are_distinct_and_blocks_balanced() {
        let mut lines = std::collections::HashSet::new();
        let mut registry = 0;
        for i in 0..16 * 7 {
            let k = cold_key(7, i);
            assert!(lines.insert(k.line()));
            registry += matches!(k.base, Base::Registry(_)) as usize;
        }
        assert_eq!(registry, 12 * 7);
    }

    #[test]
    fn renaming_changes_the_hash_not_the_shape() {
        let g = mps::workloads::by_name("fig2").unwrap();
        let r = renamed(&g, 3);
        assert_ne!(g.content_hash(), r.content_hash());
        assert_eq!(g.edges().collect::<Vec<_>>(), r.edges().collect::<Vec<_>>());
    }

    #[test]
    fn zipf_ranks_follow_their_weights() {
        let z = Zipf::new(HOT_KEYS);
        let hits = (0..20_000).filter(|&i| z.rank(mix(i)) == 0).count();
        let share = hits as f64 / 20_000.0;
        assert!((share - z.weight(0)).abs() < 0.02, "{share}");
    }
}
