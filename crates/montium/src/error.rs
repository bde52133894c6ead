//! Replay errors.

use mps_dfg::NodeId;
use std::fmt;

/// Errors detected while mapping or replaying a schedule on the tile.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MontiumError {
    /// The application needs more distinct patterns than the configuration
    /// store holds.
    TooManyConfigs {
        /// Patterns requested.
        requested: usize,
        /// Store capacity.
        capacity: usize,
    },
    /// A pattern is wider than the ALU array.
    PatternTooWide {
        /// Slots in the offending pattern.
        width: usize,
        /// Available ALUs.
        alus: usize,
    },
    /// A cycle issues more nodes of a color than its pattern has slots.
    SlotOverflow {
        /// Offending cycle (0-based).
        cycle: usize,
    },
    /// A cycle uses a pattern the store does not hold.
    UnknownConfig {
        /// Offending cycle (0-based).
        cycle: usize,
    },
    /// A node is issued before (or in the same cycle as) one of its
    /// operands is produced.
    OperandNotReady {
        /// The consuming node.
        node: NodeId,
        /// The cycle it was issued in (0-based).
        cycle: usize,
    },
    /// The schedule does not cover every node of the graph.
    IncompleteSchedule {
        /// A node that never executes.
        missing: NodeId,
    },
}

impl fmt::Display for MontiumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MontiumError::TooManyConfigs {
                requested,
                capacity,
            } => write!(
                f,
                "{requested} patterns requested but the configuration store holds {capacity}"
            ),
            MontiumError::PatternTooWide { width, alus } => {
                write!(f, "pattern with {width} slots on a {alus}-ALU tile")
            }
            MontiumError::SlotOverflow { cycle } => {
                write!(f, "cycle {cycle} overflows its pattern's color slots")
            }
            MontiumError::UnknownConfig { cycle } => {
                write!(f, "cycle {cycle} uses a pattern missing from the store")
            }
            MontiumError::OperandNotReady { node, cycle } => {
                write!(f, "node {node} issued in cycle {cycle} before its operand")
            }
            MontiumError::IncompleteSchedule { missing } => {
                write!(f, "node {missing} never executes")
            }
        }
    }
}

impl std::error::Error for MontiumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        assert!(MontiumError::TooManyConfigs {
            requested: 40,
            capacity: 32
        }
        .to_string()
        .contains("40"));
        assert!(MontiumError::OperandNotReady {
            node: NodeId(3),
            cycle: 1
        }
        .to_string()
        .contains("n3"));
    }
}
