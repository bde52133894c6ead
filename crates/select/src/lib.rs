//! Pattern selection — the paper's core contribution (§5.2).
//!
//! Given the antichain statistics of a DFG ([`mps_patterns::PatternTable`]),
//! [`select_patterns`] greedily picks `Pdef` patterns by the priority
//! function of Eq. 8:
//!
//! ```text
//! f(p̄_j) = Σ_n  h(p̄_j, n) / (Σ_{p̄_i ∈ Ps} h(p̄_i, n) + ε)  +  α·|p̄_j|²
//! ```
//!
//! subject to the *color number condition* of Eq. 9, which forces every
//! color of the DFG into some selected pattern; when no candidate satisfies
//! it, a pattern is fabricated from uncovered colors (the paper's Fig. 7
//! modification). After each pick, all subpatterns of the chosen pattern
//! are deleted.
//!
//! Baselines for the evaluation:
//! * [`random_patterns`] — the paper's "Random" column: uniform random
//!   patterns, re-drawn until they jointly cover every color,
//! * [`coverage_greedy`] — picks by raw antichain count (no balancing, no
//!   size bonus),
//! * [`exhaustive_best`] — exact search over candidate subsets for tiny
//!   instances, to measure the heuristic's optimality gap.
//!
//! [`select_and_schedule`] wires selection to the multi-pattern scheduler
//! and [`random_baseline`] runs the Monte-Carlo comparison (Table 7).
//!
//! [`SelectEngine`] dispatches every selector a compile can ask for. The
//! post-paper extensions — [`select_with_priority`] with
//! [`scarcity_priority`], [`merge_pass`] and [`select_for_throughput`] —
//! are free functions that the comparison binaries and tests call.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anneal;
mod config;
mod coverage;
mod engine;
mod exhaustive;
mod genetic;
mod merge;
mod node_cover;
mod pipeline;
mod priority;
mod random;
mod select;
mod throughput;
mod variants;

pub use anneal::{anneal_patterns, select_and_anneal, AnnealConfig, AnnealResult};
pub use config::SelectConfig;
pub use coverage::{
    coverage_greedy, coverage_greedy_from_table, coverage_greedy_from_table_reference,
};
pub use engine::SelectEngine;
pub use exhaustive::{
    exhaustive_best, exhaustive_best_from_table, exhaustive_best_reference, ExhaustiveResult,
};
pub use genetic::{evolve_patterns, GeneticConfig, GeneticResult};
pub use merge::{merge_pass, MergeOutcome};
pub use node_cover::{node_cover_from_table, node_cover_from_table_reference, node_cover_greedy};
pub use pipeline::{
    random_baseline, select_and_schedule, PipelineConfig, PipelineResult, RandomBaseline,
};
pub use priority::eq8_priority;
pub use random::random_patterns;
pub use select::{
    select_from_table, select_from_table_reference, select_patterns, RoundInfo, SelectionOutcome,
};
pub use throughput::{pattern_ii_bound, select_for_throughput, throughput_pattern};
pub use variants::{scarcity_priority, select_with_priority, PriorityFn, ScarcityWeights};
