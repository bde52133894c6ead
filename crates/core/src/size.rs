//! Approximate heap footprints of the cacheable compile artifacts and of
//! a parsed graph, for byte-budgeted cache eviction.
//!
//! The serving layer bounds its caches in bytes as well as entries; that
//! needs a size for each [`PatternTable`] and [`CompileResult`] it
//! admits, and for each [`Dfg`] its inline-graph memo holds. Walking every
//! allocation of the two artifacts would couple this module to private
//! representation details, so their estimators charge a fixed tariff per
//! *countable unit* of the public surface instead — per pattern row, per
//! schedule cycle, per replay binding. The estimates are intentionally
//! conservative-ish rather than exact: eviction only needs sizes that
//! scale with the artifact (a `broom64` table must dwarf a `fig4` one),
//! not an allocator-faithful census.

use crate::session::CompileResult;
use mps_dfg::{Dfg, Node, NodeId};
use mps_patterns::PatternTable;
use std::mem;

/// Per-pattern-row tariff: the `Pattern` value, map/interner slots, and
/// cover-matrix row header that each table row implies.
const TABLE_ROW_BYTES: usize = 96;

/// Per-cycle tariff of a schedule (slot list + pattern reference).
const SCHEDULE_CYCLE_BYTES: usize = 64;

/// Per-cycle tariff of a recorded schedule trace (richer than the
/// schedule row itself: ready lists, per-slot provenance).
const TRACE_CYCLE_BYTES: usize = 96;

/// Per-binding tariff of a tile replay report.
const EXEC_BINDING_BYTES: usize = 32;

/// Approximate resident bytes of a pattern table: a fixed tariff per
/// pattern row plus the per-row node-frequency vector and cover-matrix
/// bits, both of which scale with the graph's node count.
pub fn approx_table_bytes(table: &PatternTable) -> usize {
    let rows = table.len();
    let nodes = table.num_nodes();
    // node_freq is one u64 per node per row; the cover matrix one bit
    // per (row, node), rounded up per row.
    let per_row = TABLE_ROW_BYTES + nodes * mem::size_of::<u64>() + nodes.div_ceil(8);
    mem::size_of::<PatternTable>() + rows * per_row
}

/// Approximate resident bytes of a compile result: selection rows,
/// schedule cycles, optional trace and replay report.
pub fn approx_result_bytes(result: &CompileResult) -> usize {
    let selection = result.selection.patterns.len() * TABLE_ROW_BYTES
        + result.selection.rounds.len() * TABLE_ROW_BYTES;
    let schedule = result.cycles * SCHEDULE_CYCLE_BYTES;
    let trace = match &result.trace {
        Some(_) => result.cycles * TRACE_CYCLE_BYTES,
        None => 0,
    };
    let slots = result
        .slot_patterns
        .as_ref()
        .map_or(0, |s| s.len() * TABLE_ROW_BYTES);
    let exec = result.exec.as_ref().map_or(0, |e| {
        128 + e.bindings.len() * EXEC_BINDING_BYTES
            + (e.alu_busy.len() + e.ops_per_color.len()) * mem::size_of::<u64>()
    });
    mem::size_of::<CompileResult>() + selection + schedule + trace + slots + exec
}

/// Allocator header and rounding charged per heap block.
const HEAP_BLOCK_BYTES: usize = 16;

/// Heap blocks of a graph besides its node names: the node payloads, two
/// CSR directions of two arrays each, and the topological order.
const DFG_ARRAYS: usize = 6;

/// Approximate resident bytes of a graph: its node payloads and their
/// names, the successor and predecessor CSR arrays, and the topological
/// order. Unlike the tariffs above, this counts the graph's actual
/// allocations, each heap block charged 16 bytes of allocator overhead.
pub fn approx_dfg_bytes(dfg: &Dfg) -> usize {
    let (nodes, edges) = (dfg.len(), dfg.edge_count());
    let names: usize = dfg.node_ids().map(|id| dfg.name(id).len()).sum();
    // Two CSR directions, each `nodes + 1` offsets and `edges` targets,
    // plus one topological order.
    let csr =
        2 * (nodes + 1) * mem::size_of::<u32>() + (2 * edges + nodes) * mem::size_of::<NodeId>();
    let blocks = (nodes + DFG_ARRAYS) * HEAP_BLOCK_BYTES;
    mem::size_of::<Dfg>() + nodes * mem::size_of::<Node>() + names + csr + blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use mps_patterns::EnumerateConfig;

    #[test]
    fn table_estimate_scales_with_the_table() {
        let cfg = EnumerateConfig::default();
        let small = PatternTable::build(&mps_dfg::AnalyzedDfg::new(mps_workloads::fig4()), cfg);
        let big = PatternTable::build(
            &mps_dfg::AnalyzedDfg::new(mps_workloads::by_name("star16").unwrap()),
            cfg,
        );
        let (s, b) = (approx_table_bytes(&small), approx_table_bytes(&big));
        assert!(s > 0);
        assert!(b > s, "star16 ({b} B) must dwarf fig4 ({s} B)");
    }

    #[test]
    fn dfg_estimate_counts_every_array_and_name() {
        let g = mps_dfg::parse_text("node x a\nnode yy b\nedge x yy\n").unwrap();
        let csr = 2 * 3 * mem::size_of::<u32>() + (2 + 2) * mem::size_of::<NodeId>();
        let blocks = (2 + DFG_ARRAYS) * HEAP_BLOCK_BYTES;
        assert_eq!(
            approx_dfg_bytes(&g),
            mem::size_of::<Dfg>() + 2 * mem::size_of::<Node>() + 3 + csr + blocks
        );
        let big = mps_workloads::by_name("star16").unwrap();
        assert!(approx_dfg_bytes(&big) > approx_dfg_bytes(&g));
    }

    #[test]
    fn result_estimate_counts_optional_stages() {
        let bare = Session::new(mps_workloads::fig4()).compile().unwrap();
        let tiled = Session::with_config(
            mps_workloads::fig4(),
            crate::session::CompileConfig {
                tile: Some(mps_montium::TileParams::default()),
                ..Default::default()
            },
        )
        .compile()
        .unwrap();
        let (plain, with_exec) = (approx_result_bytes(&bare), approx_result_bytes(&tiled));
        assert!(plain > 0);
        assert!(with_exec > plain, "the replay report must cost bytes");
    }
}
