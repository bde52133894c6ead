//! # mps — multi-pattern scheduling for coarse-grained reconfigurable arrays
//!
//! A from-scratch Rust reproduction of Guo, Hoede & Smit, *"A Pattern
//! Selection Algorithm for Multi-Pattern Scheduling"* (IPPS 2006), built as
//! a set of focused crates and re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dfg`] | `mps-dfg` | colored data-flow graphs, ASAP/ALAP/height, reachability, spans |
//! | [`patterns`] | `mps-patterns` | pattern bags, span-limited antichain enumeration, `h(p̄,n)` tables |
//! | [`scheduler`] | `mps-scheduler` | multi-pattern list scheduling (Fig. 3 list + modulo engines), classic baselines |
//! | [`select`] | `mps-select` | the Eq. 8 pattern selection algorithm and its baselines |
//! | [`montium`] | `mps-montium` | 5-ALU / 32-config tile model with cycle-accurate replay |
//! | [`fabric`] | `mps-fabric` | multi-tile fabric descriptions, DFG partitioning, transfer-aware mapping |
//! | [`workloads`] | `mps-workloads` | the paper's Fig. 2/Fig. 4 graphs, DFT/FIR/IIR/DCT/matmul generators |
//! | [`par`] | `mps-par` | crossbeam-based parallel-map substrate |
//!
//! The top-level API is [`Session`]: a staged compiler over one graph,
//! with typed stage artifacts, a cached pattern table per capacity/span,
//! pluggable [`SelectEngine`]/[`ScheduleEngine`] strategies, one
//! [`MpsError`] for every failure, and batch fan-out via
//! [`Session::compile_batch`].
//!
//! # Quickstart
//!
//! ```
//! use mps::prelude::*;
//!
//! // A staged compile of the paper's 3DFT graph (Fig. 2): enumerate
//! // span-limited antichains, select 4 patterns with the paper's Eq. 8
//! // algorithm (ε = 0.5, α = 20), list-schedule, replay on a tile.
//! let mut session = Session::new(mps::workloads::fig2());
//! let result = session
//!     .analyze()
//!     .enumerate(None)
//!     .select(&SelectEngine::Eq8)
//!     .schedule(&ScheduleEngine::default())
//!     .unwrap()
//!     .map_tile(mps::montium::TileParams::default())
//!     .unwrap()
//!     .finish();
//! assert_eq!(result.exec.as_ref().unwrap().bindings.len(), 24);
//! assert!(result.cycles >= 5, "critical path of the 3DFT is 5 cycles");
//!
//! // Re-selecting over the same graph reuses the cached pattern table —
//! // the expensive stage — which the metrics make observable.
//! let again = session.compile().unwrap();
//! assert_eq!(again.cycles, result.cycles);
//! assert_eq!(session.metrics().table_builds, 1);
//! assert_eq!(session.metrics().table_cache_hits, 1);
//! ```
//!
//! The one-shot [`mps_select::select_and_schedule`] free function remains
//! as a thin wrapper over the same pipeline for callers that need exactly
//! one compile; [`Session`]-driven compiles are decision-identical to it
//! (pinned by the `integration_session` suite).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mps_dfg as dfg;
pub use mps_fabric as fabric;
pub use mps_montium as montium;
pub use mps_par as par;
pub use mps_patterns as patterns;
pub use mps_scheduler as scheduler;
pub use mps_select as select;
pub use mps_workloads as workloads;
// The vendored serde shim, re-exported so dependents can name the
// `Value` tree that [`json`] and [`artifact`] traffic in without
// depending on the vendor path themselves.
pub use serde;

pub mod artifact;
pub mod cache;
mod error;
pub mod json;
mod metrics;
mod session;
mod size;

pub use artifact::{ArtifactError, ArtifactStore, LoadReport};
pub use cache::{CacheBudget, SingleFlightCache};
pub use error::{MpsError, Stage};
pub use metrics::{SharedStageMetrics, StageMetrics};
pub use mps_fabric::{FabricError, FabricMapping, FabricParams, Interconnect};
pub use mps_par::{CancelKind, CancelToken};
pub use mps_scheduler::ScheduleEngine;
pub use mps_select::SelectEngine;
pub use session::{
    Analysis, CompileConfig, CompileResult, Enumerated, FabricMapped, FabricScheduled, Mapped,
    Partitioned, Scheduled, Selected, Session, StageProbe, TableBuildHook, TableCache, TableKey,
};
pub use size::{approx_dfg_bytes, approx_result_bytes, approx_table_bytes};

/// The most common imports in one place.
pub mod prelude {
    pub use crate::{
        CompileConfig, CompileResult, FabricMapping, FabricParams, MpsError, Session,
        Stage as MpsStage, StageMetrics,
    };
    pub use mps_dfg::{
        AnalyzedDfg, Color, ColorSet, Dfg, DfgBuilder, Levels, NodeId, Reachability,
    };
    pub use mps_patterns::{
        enumerate_antichains, span_histogram, AntichainEnumerator, EnumerateConfig, Pattern,
        PatternId, PatternSet, PatternTable,
    };
    pub use mps_scheduler::{
        schedule_multi_pattern, MultiPatternConfig, PatternPriority, Schedule, ScheduleEngine,
        TieBreak,
    };
    pub use mps_select::{
        random_baseline, select_and_schedule, select_patterns, PipelineConfig, SelectConfig,
        SelectEngine,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_is_usable() {
        use crate::prelude::*;
        let adfg = AnalyzedDfg::new(mps_workloads::fig4());
        let out = select_patterns(
            &adfg,
            &SelectConfig {
                pdef: 2,
                parallel: false,
                ..Default::default()
            },
        );
        assert_eq!(out.patterns.len(), 2);
    }
}
