//! Multi-pattern list scheduling (paper §4) and classic baselines.
//!
//! Given a DFG and a fixed set of patterns, the multi-pattern list
//! scheduler assigns every node to a clock cycle so that
//!
//! 1. dependencies are satisfied (a node runs strictly after all of its
//!    predecessors),
//! 2. the nodes of each cycle fit inside **one** of the given patterns
//!    (bag inclusion of their colors), and
//! 3. the number of clock cycles is as small as the heuristic manages.
//!
//! The algorithm is the candidate-list loop of the paper's Fig. 3 with the
//! node priority of Eq. 4/5 (lexicographic in height, direct-successor
//! count, total-successor count) and a configurable pattern priority: `F1`
//! counts covered nodes (Eq. 6), `F2` sums their node priorities (Eq. 7).
//! All tie-breaks are deterministic; with [`TieBreak::HigherId`] and `F2`
//! the scheduler reproduces the paper's Table 2 trace on the 3DFT graph
//! exactly, cycle by cycle.
//!
//! Baselines:
//! * [`classic::asap_schedule`] / [`classic::alap_schedule`] — unlimited
//!   resources (one cycle per level),
//! * [`classic::list_schedule_uniform`] — classic resource-constrained
//!   list scheduling with `C` color-agnostic ALUs.
//!
//! [`ScheduleEngine`] dispatches the two schedulers a compile can ask
//! for: the Fig. 3 list scheduler and [`schedule_modulo`]. The other
//! schedulers — [`schedule_beam`], [`schedule_switch_aware`] and
//! [`exact::schedule_exact`] — are free functions that the comparison
//! binaries and tests call directly.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod beam;
pub mod bounds;
pub mod classic;
pub mod exact;

mod engine;
mod error;
mod gantt;
mod modulo;
mod multi_pattern;
mod priority;
mod schedule;
mod switch_aware;
mod trace;

pub use beam::{schedule_beam, BeamConfig, BeamResult};
pub use engine::{EngineSchedule, ScheduleEngine};
pub use error::ScheduleError;
pub use gantt::render_gantt;
pub use modulo::{
    modulo_mii, modulo_slot_bag, schedule_modulo, validate_modulo, ModuloConfig, ModuloResult,
};
pub use multi_pattern::{
    schedule_multi_pattern, schedule_multi_pattern_released, selected_set, MultiPatternConfig,
    MultiPatternResult, PatternPriority, ReleasedScheduleResult, TieBreak,
};
pub use priority::{NodePriorities, PriorityWeights};
pub use schedule::{Schedule, ScheduledCycle};
pub use switch_aware::{
    count_switches, schedule_switch_aware, SwitchAwareConfig, SwitchAwareResult,
};
pub use trace::{ScheduleTrace, TraceRow};
