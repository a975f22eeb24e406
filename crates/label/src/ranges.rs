//! Calibrated HSV class thresholds.
//!
//! §III-B of the paper: "the HSV lower and upper values for thick ice
//! range from (0, 0, 205) to (185, 255, 255). Similarly, for thin ice, the
//! HSV lower and upper values span from (0, 0, 31) to (185, 255, 204).
//! Lastly, the HSV lower and upper values for open water are defined as
//! (0, 0, 0) to (185, 255, 30)." The ranges partition the value axis, so
//! every pixel gets exactly one class.

/// The three sea-ice surface classes, with discriminants matching the
/// class-mask indices used across the workspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum IceClass {
    /// Thick / snow-covered ice (label color: red).
    Thick = 0,
    /// Thin / young ice (label color: blue).
    Thin = 1,
    /// Open water / leads (label color: green).
    Water = 2,
}

impl IceClass {
    /// All classes, in index order.
    pub const ALL: [IceClass; 3] = [IceClass::Thick, IceClass::Thin, IceClass::Water];

    /// Label color used in the paper's figures (Fig. 4): red for thick
    /// ice, blue for thin ice, green for open water.
    pub const fn color(self) -> [u8; 3] {
        match self {
            IceClass::Thick => [255, 0, 0],
            IceClass::Thin => [0, 0, 255],
            IceClass::Water => [0, 255, 0],
        }
    }

    /// Inverse of [`IceClass::color`]; `None` for any other pixel value.
    pub fn from_color(px: &[u8]) -> Option<IceClass> {
        match [px[0], px[1], px[2]] {
            [255, 0, 0] => Some(IceClass::Thick),
            [0, 0, 255] => Some(IceClass::Thin),
            [0, 255, 0] => Some(IceClass::Water),
            _ => None,
        }
    }

    /// Class from a mask index.
    pub fn from_index(i: u8) -> Option<IceClass> {
        match i {
            0 => Some(IceClass::Thick),
            1 => Some(IceClass::Thin),
            2 => Some(IceClass::Water),
            _ => None,
        }
    }
}

/// An inclusive HSV box `[lo, hi]` (OpenCV conventions; the paper's upper
/// hue bound of 185 simply covers the whole `[0, 180)` hue circle).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HsvRange {
    /// Lower inclusive HSV corner.
    pub lo: [u8; 3],
    /// Upper inclusive HSV corner.
    pub hi: [u8; 3],
}

impl HsvRange {
    /// True when the HSV pixel lies inside the box.
    #[inline]
    pub fn contains(&self, hsv: &[u8]) -> bool {
        hsv.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .all(|(&v, (&l, &h))| v >= l && v <= h)
    }
}

/// The per-class HSV ranges driving segmentation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClassRanges {
    /// Thick / snow-covered ice range.
    pub thick: HsvRange,
    /// Thin / young ice range.
    pub thin: HsvRange,
    /// Open-water range.
    pub water: HsvRange,
}

impl Default for ClassRanges {
    fn default() -> Self {
        Self::paper()
    }
}

impl ClassRanges {
    /// The paper's calibrated ranges for Antarctic Ross Sea summer imagery.
    pub const fn paper() -> Self {
        Self {
            thick: HsvRange {
                lo: [0, 0, 205],
                hi: [185, 255, 255],
            },
            thin: HsvRange {
                lo: [0, 0, 31],
                hi: [185, 255, 204],
            },
            water: HsvRange {
                lo: [0, 0, 0],
                hi: [185, 255, 30],
            },
        }
    }

    /// Range for a class.
    pub fn range(&self, class: IceClass) -> &HsvRange {
        match class {
            IceClass::Thick => &self.thick,
            IceClass::Thin => &self.thin,
            IceClass::Water => &self.water,
        }
    }

    /// Classifies one HSV pixel. The paper's ranges partition the V axis,
    /// so exactly one class matches; if custom ranges leave a gap, the
    /// nearest class by V distance is chosen.
    pub fn classify(&self, hsv: &[u8]) -> IceClass {
        for class in IceClass::ALL {
            if self.range(class).contains(hsv) {
                return class;
            }
        }
        // Gap fallback: nearest V interval.
        let v = hsv[2] as i32;
        IceClass::ALL
            .into_iter()
            .min_by_key(|c| {
                let r = self.range(*c);
                let lo = r.lo[2] as i32;
                let hi = r.hi[2] as i32;
                if v < lo {
                    lo - v
                } else if v > hi {
                    v - hi
                } else {
                    0
                }
            })
            // seaice-lint: allow(panic-in-library) reason="min_by_key runs over IceClass::ALL, a non-empty const array, so it is always Some"
            .expect("nonempty class list")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_ranges_partition_value_axis() {
        let r = ClassRanges::paper();
        // Every V in 0..=255 belongs to exactly one class (any H, S).
        for v in 0..=255u8 {
            let hsv = [90u8, 128, v];
            let hits = IceClass::ALL
                .into_iter()
                .filter(|c| r.range(*c).contains(&hsv))
                .count();
            assert_eq!(hits, 1, "V={v} matched {hits} classes");
        }
    }

    #[test]
    fn classify_boundaries() {
        let r = ClassRanges::paper();
        assert_eq!(r.classify(&[0, 0, 30]), IceClass::Water);
        assert_eq!(r.classify(&[0, 0, 31]), IceClass::Thin);
        assert_eq!(r.classify(&[0, 0, 204]), IceClass::Thin);
        assert_eq!(r.classify(&[0, 0, 205]), IceClass::Thick);
        assert_eq!(r.classify(&[0, 0, 255]), IceClass::Thick);
        assert_eq!(r.classify(&[0, 0, 0]), IceClass::Water);
    }

    #[test]
    fn classify_fills_gaps_with_nearest() {
        // A custom range set with a hole between 100 and 150.
        let r = ClassRanges {
            water: HsvRange {
                lo: [0, 0, 0],
                hi: [185, 255, 99],
            },
            thin: HsvRange {
                lo: [0, 0, 150],
                hi: [185, 255, 200],
            },
            thick: HsvRange {
                lo: [0, 0, 201],
                hi: [185, 255, 255],
            },
        };
        assert_eq!(r.classify(&[0, 0, 105]), IceClass::Water);
        assert_eq!(r.classify(&[0, 0, 145]), IceClass::Thin);
    }

    #[test]
    fn colors_roundtrip() {
        for c in IceClass::ALL {
            assert_eq!(IceClass::from_color(&c.color()), Some(c));
        }
        assert_eq!(IceClass::from_color(&[1, 2, 3]), None);
    }

    #[test]
    fn indices_roundtrip() {
        for c in IceClass::ALL {
            assert_eq!(IceClass::from_index(c as u8), Some(c));
        }
        assert_eq!(IceClass::from_index(3), None);
    }

    #[test]
    fn discriminants_match_s2_classes() {
        assert_eq!(IceClass::Thick as u8, 0);
        assert_eq!(IceClass::Thin as u8, 1);
        assert_eq!(IceClass::Water as u8, 2);
    }
}
