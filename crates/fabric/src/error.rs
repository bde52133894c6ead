//! The fabric subsystem's error type.

use mps_montium::MontiumError;
use mps_scheduler::ScheduleError;
use std::fmt;

/// Any failure of fabric validation, partitioning, or mapping.
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FabricError {
    /// The fabric has no tiles.
    EmptyFabric,
    /// More tiles than [`crate::FabricParams::MAX_TILES`].
    TooManyTiles {
        /// The fabric's tile count.
        tiles: usize,
    },
    /// A tile is degenerate (zero ALUs or a zero-entry config store) or
    /// beyond [`crate::FabricParams::MAX_TILE_ALUS`] /
    /// [`crate::FabricParams::MAX_TILE_CONFIGS`].
    BadTile {
        /// Index of the offending tile.
        tile: usize,
        /// Its ALU count.
        alus: usize,
        /// Its configuration-store capacity.
        max_configs: usize,
    },
    /// Fabric compiles require the multi-pattern list scheduler; the
    /// other engines have no release-aware variant.
    UnsupportedEngine {
        /// Name of the engine that was configured.
        engine: String,
    },
    /// Scheduling one tile's partition failed.
    Schedule {
        /// Index of the tile whose partition failed to schedule.
        tile: usize,
        /// The underlying scheduler error.
        source: ScheduleError,
    },
    /// Cycle-accurate replay of one tile's schedule failed.
    Montium {
        /// Index of the tile whose replay failed.
        tile: usize,
        /// The underlying tile-model error.
        source: MontiumError,
    },
    /// A [`crate::FabricMapping`] failed validation (always a bug in the
    /// producer, never in the input).
    InvalidMapping(String),
}

impl fmt::Display for FabricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FabricError::EmptyFabric => f.write_str("fabric has no tiles"),
            FabricError::TooManyTiles { tiles } => write!(
                f,
                "fabric has {tiles} tiles, more than {}",
                crate::FabricParams::MAX_TILES
            ),
            FabricError::BadTile {
                tile,
                alus,
                max_configs,
            } => write!(
                f,
                "tile {tile} is degenerate or oversized ({alus} ALUs, {max_configs} config entries)"
            ),
            FabricError::UnsupportedEngine { engine } => write!(
                f,
                "fabric compiles require the list scheduler, not \"{engine}\""
            ),
            FabricError::Schedule { tile, source } => {
                write!(f, "scheduling tile {tile}: {source}")
            }
            FabricError::Montium { tile, source } => {
                write!(f, "replaying tile {tile}: {source}")
            }
            FabricError::InvalidMapping(msg) => write!(f, "invalid fabric mapping: {msg}"),
        }
    }
}

impl std::error::Error for FabricError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FabricError::Schedule { source, .. } => Some(source),
            FabricError::Montium { source, .. } => Some(source),
            _ => None,
        }
    }
}
