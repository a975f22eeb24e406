//! Experiment scale presets. The paper's full scale (66 scenes of 2048²,
//! 4224 tiles of 256², 50-epoch depth-5 U-Net) is out of reach for a
//! single-core CPU session; each experiment runs at a chosen scale and
//! prints the factor relative to the paper.

/// How big to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Seconds per experiment; CI-sized.
    Small,
    /// Tens of seconds; the default for `reproduce`.
    Medium,
    /// Minutes; closest shapes to the paper.
    Large,
}

impl Scale {
    /// Parses `small` / `medium` / `large` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "small" | "s" => Some(Scale::Small),
            "medium" | "m" => Some(Scale::Medium),
            "large" | "l" => Some(Scale::Large),
            _ => None,
        }
    }

    /// Number of tiles for the auto-labeling speed experiments (paper:
    /// 4224). The simulated speedups do not depend on it; it sets how
    /// many tiles the worker-pool result check and the printed per-tile
    /// cost cover.
    pub fn label_tiles(self) -> usize {
        match self {
            Scale::Small => 64,
            Scale::Medium => 256,
            Scale::Large => 1056,
        }
    }

    /// Tile side for the auto-labeling speed experiments (paper: 256).
    pub fn label_tile_size(self) -> usize {
        match self {
            Scale::Small => 64,
            Scale::Medium => 128,
            Scale::Large => 256,
        }
    }

    /// (scenes, scene side, tile side, epochs) for the accuracy
    /// experiments (paper: 66, 2048, 256, 50).
    pub fn accuracy_dataset(self) -> (usize, usize, usize, usize) {
        match self {
            Scale::Small => (4, 256, 32, 10),
            Scale::Medium => (8, 256, 32, 14),
            Scale::Large => (16, 512, 64, 20),
        }
    }

    /// Ranks for the real distributed-training semantics run.
    pub fn distrib_ranks(self) -> usize {
        match self {
            Scale::Small => 2,
            Scale::Medium => 4,
            Scale::Large => 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("M"), Some(Scale::Medium));
        assert_eq!(Scale::parse("l"), Some(Scale::Large));
        assert_eq!(Scale::parse("huge"), None);
    }

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::Small.label_tiles() < Scale::Medium.label_tiles());
        assert!(Scale::Medium.label_tiles() < Scale::Large.label_tiles());
        let (s, ..) = Scale::Small.accuracy_dataset();
        let (l, ..) = Scale::Large.accuracy_dataset();
        assert!(s < l);
    }
}
