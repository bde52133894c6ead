//! Pattern algebra and span-limited antichain enumeration.
//!
//! Implements §3 and §5.1 of Guo, Hoede & Smit (IPPS 2006):
//!
//! * [`Pattern`] — a *bag* (multiset) of operation colors with at most `C`
//!   elements, the unit of ALU reconfiguration on the Montium;
//! * [`PatternSet`] — an ordered, deduplicated collection of patterns (the
//!   `Pdef` patterns handed to the scheduler);
//! * [`enumerate_antichains`] / [`for_each_antichain`] — depth-first
//!   enumeration of every antichain of size ≤ `C` whose span does not
//!   exceed a limit (Theorem 1 justifies discarding high-span antichains);
//! * [`PatternTable`] — the §5.1 classification of antichains by their
//!   color bag, including the per-node frequencies `h(p̄, n)` that drive
//!   the §5.2 selection priority;
//! * [`span_histogram`] — the size × span-limit antichain counts of the
//!   paper's Table 5.
//!
//! The enumerator maintains candidate sets as `u64` bitsets intersected
//! with precomputed per-node parallel masks, so extending an antichain by
//! one node costs O(V/64) words and no allocation ([`AntichainEnumerator`]
//! preallocates every per-depth buffer and is reusable across roots). The
//! intersection runs through the widened [`and_above`] kernel (4-lane
//! unrolled u64, runtime-gated AVX2 on `x86_64`, with [`and_above_scalar`]
//! as the oracle).
//!
//! [`PatternTable::build`] does not visit the antichains one by one: it
//! interns the enumeration's DFS frames by state (candidates, remaining
//! capacity, span window) into a DAG and gets every pattern's count and
//! `h(p̄, n)` from one forward–backward pass over it. Builds small enough
//! that this does not pay run the DFS fold
//! ([`PatternTable::build_dfs`]), which packs each antichain's color bag
//! into a `u128` key and interns it into a dense [`PatternId`].

// `deny`, not `forbid`: the one sanctioned exception is the AVX2 variant
// of the enumerator's word kernel in [`bits`], which scopes an
// `#[allow(unsafe_code)]` around the runtime-gated intrinsics.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod bits;
mod cover;
mod dag;
mod enumerate;
mod hasse;
mod key;
mod pattern;
mod pattern_set;
mod table;
mod width;

pub use bits::{and_above, and_above_count, and_above_scalar, count_above, BitIter};
pub use cover::CoverMatrix;
pub use dag::DagStats;
pub use enumerate::{
    depth1_branch_count, enumerate_antichains, for_each_antichain, for_each_antichain_from_root,
    for_each_depth1_branch, AntichainEnumerator, EnumerateConfig,
};
pub use hasse::SubpatternLattice;
pub use key::PackedBag;
pub use pattern::{Pattern, MAX_PATTERN_SLOTS};
pub use pattern_set::PatternSet;
pub use table::{span_histogram, PatternId, PatternStats, PatternTable, SpanHistogram};
pub use width::{maximum_antichain, width};
