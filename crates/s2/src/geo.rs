//! Spatial and temporal extents plus scene metadata — the slice of the
//! Sentinel-2 / Google Earth Engine data model the workflow relies on.
//!
//! The paper's study area is the Ross Sea, Antarctica: latitude −70° to
//! −78° (south), longitude −140° to −180° (west), November 2019 (austral
//! summer).

/// A latitude/longitude bounding box in decimal degrees.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GeoExtent {
    /// Southernmost latitude (≤ `lat_max`).
    pub lat_min: f64,
    /// Northernmost latitude.
    pub lat_max: f64,
    /// Westernmost longitude (≤ `lon_max`).
    pub lon_min: f64,
    /// Easternmost longitude.
    pub lon_max: f64,
}

impl GeoExtent {
    /// Creates an extent, normalizing swapped bounds.
    pub fn new(lat_a: f64, lat_b: f64, lon_a: f64, lon_b: f64) -> Self {
        Self {
            lat_min: lat_a.min(lat_b),
            lat_max: lat_a.max(lat_b),
            lon_min: lon_a.min(lon_b),
            lon_max: lon_a.max(lon_b),
        }
    }

    /// The paper's Ross Sea study region.
    pub fn ross_sea() -> Self {
        Self::new(-78.0, -70.0, -180.0, -140.0)
    }

    /// True when the two extents overlap (inclusive).
    pub fn intersects(&self, other: &GeoExtent) -> bool {
        self.lat_min <= other.lat_max
            && other.lat_min <= self.lat_max
            && self.lon_min <= other.lon_max
            && other.lon_min <= self.lon_max
    }

    /// Extent size as (Δlat, Δlon) in degrees.
    pub fn span(&self) -> (f64, f64) {
        (self.lat_max - self.lat_min, self.lon_max - self.lon_min)
    }
}

/// A half-open day range `[start_day, end_day)` counted from an arbitrary
/// epoch (the synthetic catalog uses day-of-mission numbering; the paper's
/// November 2019 window is days 0..30 of the default catalog).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TimeRange {
    /// First day (inclusive).
    pub start_day: u32,
    /// Last day (exclusive).
    pub end_day: u32,
}

impl TimeRange {
    /// Creates a range; `end_day` is clamped to at least `start_day`.
    pub fn new(start_day: u32, end_day: u32) -> Self {
        Self {
            start_day,
            end_day: end_day.max(start_day),
        }
    }

    /// The paper's November-2019 summer acquisition window (30 days).
    pub fn november_2019() -> Self {
        Self::new(0, 30)
    }
}

/// Unique scene identifier within a catalog.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SceneId(pub u64);

/// Metadata describing one large Sentinel-2 scene before pixel data is
/// generated — the equivalent of a GEE image-collection entry.
#[derive(Clone, Debug, PartialEq)]
pub struct SceneMeta {
    /// Catalog-unique identifier.
    pub id: SceneId,
    /// Footprint of the scene.
    pub extent: GeoExtent,
    /// Acquisition day (catalog epoch).
    pub day: u32,
    /// Scene raster width in pixels (10 m ground sampling distance).
    pub width: usize,
    /// Scene raster height in pixels.
    pub height: usize,
    /// Seed that fully determines the scene's pixels.
    pub seed: u64,
    /// Target thin-cloud/shadow coverage fraction in `[0, 1]` used when the
    /// scene was synthesized (0 means a cloud-free acquisition).
    pub cloud_cover: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_normalizes_bounds() {
        let e = GeoExtent::new(-70.0, -78.0, -140.0, -180.0);
        assert_eq!(e.lat_min, -78.0);
        assert_eq!(e.lat_max, -70.0);
        assert_eq!(e.lon_min, -180.0);
        assert_eq!(e.lon_max, -140.0);
    }

    #[test]
    fn intersects_is_symmetric_and_correct() {
        let a = GeoExtent::new(-78.0, -70.0, -180.0, -140.0);
        let b = GeoExtent::new(-72.0, -68.0, -150.0, -130.0);
        let c = GeoExtent::new(-60.0, -50.0, -150.0, -130.0);
        assert!(a.intersects(&b) && b.intersects(&a));
        assert!(!a.intersects(&c) && !c.intersects(&a));
    }

    #[test]
    fn time_range_clamps_inverted_bounds() {
        let t = TimeRange::new(10, 3);
        assert_eq!((t.start_day, t.end_day), (10, 10));
    }
}
