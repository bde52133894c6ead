//! The fabric architecture description.

use crate::error::FabricError;
use mps_montium::TileParams;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The inter-tile communication model: a full crossbar (any tile can
/// reach any other) with a uniform per-value transfer cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Interconnect {
    /// Extra cycles a value spends in flight between tiles: a consumer
    /// on another tile is released no earlier than global cycle
    /// `producer + 1 + transfer_latency`.
    pub transfer_latency: u64,
}

impl Default for Interconnect {
    fn default() -> Interconnect {
        Interconnect {
            transfer_latency: 1,
        }
    }
}

/// A parameterized fabric: N tiles (each with its own ALU count and
/// configuration-store size) behind an [`Interconnect`].
///
/// The textual spec accepted by [`FabricParams::parse`] (and the CLI's
/// `--fabric` flag) is `N[:alus[,configs]][@latency]` for a homogeneous
/// fabric, or heterogeneous per-tile specs joined with `+`:
/// `alus[,configs]+alus[,configs]+…[@latency]`. Examples:
///
/// | spec | meaning |
/// |---|---|
/// | `2` | two default (5-ALU, 32-config) tiles |
/// | `4:3` | four 3-ALU tiles |
/// | `2:5,16@3` | two 5-ALU, 16-config tiles, 3-cycle transfers |
/// | `5,32+3,16` | one default tile plus one 3-ALU, 16-config tile |
///
/// A fabric has at most [`FabricParams::MAX_TILES`] tiles, each with at
/// most [`FabricParams::MAX_TILE_ALUS`] ALUs and
/// [`FabricParams::MAX_TILE_CONFIGS`] config entries, far above the
/// largest fabrics in use (`4:3,16@2`, `6,32+2,32`). [`FabricParams::parse`]
/// refuses a spec beyond them before it allocates a tile list;
/// [`FabricParams::validate`] refuses a description built in code.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FabricParams {
    /// The tiles, in fabric order. Tile 0 hosts the topologically
    /// earliest partition.
    pub tiles: Vec<TileParams>,
    /// The inter-tile communication model.
    pub interconnect: Interconnect,
}

impl Default for FabricParams {
    /// A single default Montium tile — the paper's machine.
    fn default() -> FabricParams {
        FabricParams::single(TileParams::default())
    }
}

impl FabricParams {
    /// Most tiles a fabric may have (16× the largest fabric in use).
    pub const MAX_TILES: usize = 64;
    /// Most ALUs one tile may have (the Montium has 5; the wire caps
    /// pattern capacity at 16).
    pub const MAX_TILE_ALUS: usize = 64;
    /// Most configuration entries one tile may store (the Montium has
    /// 32).
    pub const MAX_TILE_CONFIGS: usize = 1024;

    /// A one-tile fabric (the bit-identity oracle configuration).
    pub fn single(tile: TileParams) -> FabricParams {
        FabricParams {
            tiles: vec![tile],
            interconnect: Interconnect::default(),
        }
    }

    /// `n` identical tiles behind the default interconnect.
    pub fn uniform(n: usize, tile: TileParams) -> FabricParams {
        FabricParams {
            tiles: vec![tile; n],
            interconnect: Interconnect::default(),
        }
    }

    /// Number of tiles.
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// Total ALUs across all tiles (the partitioner's balance weight).
    pub fn total_alus(&self) -> usize {
        self.tiles.iter().map(|t| t.alus).sum()
    }

    /// The narrowest tile's ALU count (0 for an empty description) —
    /// selected patterns run on every tile, so this bounds the pattern
    /// capacity a caller should select with.
    pub fn min_alus(&self) -> usize {
        self.tiles.iter().map(|t| t.alus).min().unwrap_or(0)
    }

    /// Check the description is usable: one to [`Self::MAX_TILES`]
    /// tiles, and no tile degenerate (zero ALUs or zero config entries)
    /// or beyond the per-tile bounds.
    pub fn validate(&self) -> Result<(), FabricError> {
        if self.tiles.is_empty() {
            return Err(FabricError::EmptyFabric);
        }
        if self.tiles.len() > Self::MAX_TILES {
            return Err(FabricError::TooManyTiles {
                tiles: self.tiles.len(),
            });
        }
        for (i, t) in self.tiles.iter().enumerate() {
            if t.alus == 0 || t.max_configs == 0 || !Self::within_bounds(t) {
                return Err(FabricError::BadTile {
                    tile: i,
                    alus: t.alus,
                    max_configs: t.max_configs,
                });
            }
        }
        Ok(())
    }

    /// Parse the `N[:alus[,configs]][@latency]` /
    /// `alus[,configs]+…[@latency]` spec (see the type docs). `None` on
    /// any syntax error, a zero tile count, or a tile count, ALU count or
    /// config-store size beyond the type's bounds.
    pub fn parse(spec: &str) -> Option<FabricParams> {
        let (body, latency) = match spec.split_once('@') {
            Some((body, lat)) => (body, lat.parse::<u64>().ok()?),
            None => (spec, Interconnect::default().transfer_latency),
        };
        let tiles = if body.contains('+') {
            if body.matches('+').count() >= Self::MAX_TILES {
                return None;
            }
            body.split('+')
                .map(Self::parse_tile)
                .collect::<Option<Vec<_>>>()?
        } else {
            let (count, tile) = match body.split_once(':') {
                Some((n, tile)) => (n.parse::<usize>().ok()?, Self::parse_tile(tile)?),
                None => (body.parse::<usize>().ok()?, TileParams::default()),
            };
            if count > Self::MAX_TILES {
                return None;
            }
            vec![tile; count]
        };
        if tiles.is_empty() {
            return None;
        }
        Some(FabricParams {
            tiles,
            interconnect: Interconnect {
                transfer_latency: latency,
            },
        })
    }

    /// One tile's `alus[,configs]` fragment.
    fn parse_tile(s: &str) -> Option<TileParams> {
        let (alus, configs) = match s.split_once(',') {
            Some((a, c)) => (a.parse().ok()?, c.parse().ok()?),
            None => (s.parse().ok()?, TileParams::default().max_configs),
        };
        let tile = TileParams {
            alus,
            max_configs: configs,
        };
        Self::within_bounds(&tile).then_some(tile)
    }

    /// A tile within [`Self::MAX_TILE_ALUS`] and [`Self::MAX_TILE_CONFIGS`].
    fn within_bounds(tile: &TileParams) -> bool {
        tile.alus <= Self::MAX_TILE_ALUS && tile.max_configs <= Self::MAX_TILE_CONFIGS
    }
}

impl fmt::Display for FabricParams {
    /// The canonical spec: uniform fabrics render as
    /// `N:alus,configs@latency`, heterogeneous ones tile-by-tile.
    /// `parse(format!("{p}")) == Some(p)` for every valid description.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let uniform = self.tiles.windows(2).all(|w| w[0] == w[1]);
        if uniform && !self.tiles.is_empty() {
            let t = self.tiles[0];
            write!(f, "{}:{},{}", self.tiles.len(), t.alus, t.max_configs)?;
        } else {
            for (i, t) in self.tiles.iter().enumerate() {
                if i > 0 {
                    f.write_str("+")?;
                }
                write!(f, "{},{}", t.alus, t.max_configs)?;
            }
        }
        write!(f, "@{}", self.interconnect.transfer_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_covers_the_spec_grammar() {
        let p = FabricParams::parse("2").unwrap();
        assert_eq!(p.tiles, vec![TileParams::default(); 2]);
        assert_eq!(p.interconnect.transfer_latency, 1);

        let p = FabricParams::parse("4:3").unwrap();
        assert_eq!(p.tiles.len(), 4);
        assert_eq!(p.tiles[0].alus, 3);
        assert_eq!(p.tiles[0].max_configs, TileParams::default().max_configs);

        let p = FabricParams::parse("2:5,16@3").unwrap();
        assert_eq!(
            p.tiles,
            vec![
                TileParams {
                    alus: 5,
                    max_configs: 16
                };
                2
            ]
        );
        assert_eq!(p.interconnect.transfer_latency, 3);

        let p = FabricParams::parse("5,32+3,16").unwrap();
        assert_eq!(p.tiles.len(), 2);
        assert_eq!((p.tiles[1].alus, p.tiles[1].max_configs), (3, 16));

        for bad in ["", "0", "x", "2:", "2:a", "3@", "1+"] {
            assert!(FabricParams::parse(bad).is_none(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn parse_refuses_fabrics_beyond_the_bounds() {
        let (tiles, alus, configs) = (
            FabricParams::MAX_TILES,
            FabricParams::MAX_TILE_ALUS,
            FabricParams::MAX_TILE_CONFIGS,
        );
        let at = FabricParams::parse(&format!("{tiles}:{alus},{configs}")).unwrap();
        assert_eq!(at.tile_count(), tiles);
        assert_eq!(at.validate(), Ok(()));
        let joined = vec![format!("{alus},{configs}"); tiles].join("+");
        assert_eq!(FabricParams::parse(&joined), Some(at));
        for over in [
            format!("{}", tiles + 1),
            format!("{}:5", tiles + 1),
            vec!["5"; tiles + 1].join("+"),
            format!("2:{}", alus + 1),
            format!("2:5,{}", configs + 1),
            format!("5+{},32", alus + 1),
            format!("5+5,{}", configs + 1),
            // Probes that once asked for gigabytes.
            "100000000".to_string(),
            "2:100000000,4".to_string(),
            "18446744073709551615".to_string(),
        ] {
            assert!(
                FabricParams::parse(&over).is_none(),
                "{over:?} must not parse"
            );
        }
    }

    #[test]
    fn validate_refuses_fabrics_beyond_the_bounds() {
        let tile = |alus, max_configs| TileParams { alus, max_configs };
        let max = tile(FabricParams::MAX_TILE_ALUS, FabricParams::MAX_TILE_CONFIGS);
        assert_eq!(
            FabricParams::uniform(FabricParams::MAX_TILES, max).validate(),
            Ok(())
        );
        assert_eq!(
            FabricParams::uniform(FabricParams::MAX_TILES + 1, max).validate(),
            Err(FabricError::TooManyTiles {
                tiles: FabricParams::MAX_TILES + 1
            })
        );
        for bad in [
            tile(FabricParams::MAX_TILE_ALUS + 1, 32),
            tile(5, FabricParams::MAX_TILE_CONFIGS + 1),
        ] {
            assert!(matches!(
                FabricParams::single(bad).validate(),
                Err(FabricError::BadTile { tile: 0, .. })
            ));
        }
    }

    #[test]
    fn display_round_trips() {
        for spec in ["1", "2", "4:3", "2:5,16@3", "5,32+3,16", "4,8+5,32+2,4@2"] {
            let p = FabricParams::parse(spec).unwrap();
            assert_eq!(
                FabricParams::parse(&p.to_string()),
                Some(p.clone()),
                "{spec}"
            );
        }
    }

    #[test]
    fn validate_rejects_degenerate_fabrics() {
        assert_eq!(
            FabricParams {
                tiles: vec![],
                interconnect: Interconnect::default()
            }
            .validate(),
            Err(FabricError::EmptyFabric)
        );
        let bad = FabricParams::single(TileParams {
            alus: 0,
            max_configs: 32,
        });
        assert!(matches!(
            bad.validate(),
            Err(FabricError::BadTile { tile: 0, .. })
        ));
        assert!(FabricParams::default().validate().is_ok());
        assert_eq!(FabricParams::default().tile_count(), 1);
        assert_eq!(
            FabricParams::uniform(3, TileParams::default()).total_alus(),
            15
        );
    }
}
