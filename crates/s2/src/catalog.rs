//! A Google-Earth-Engine-like scene catalog.
//!
//! The paper queries GEE for Sentinel-2 acquisitions over a spatial extent
//! (the Ross Sea) and a temporal extent (November 2019) and downloads 66
//! large scenes. [`Catalog`] reproduces that interface: a query returns
//! deterministic [`SceneMeta`] records, and [`Catalog::generate`] turns a
//! record into pixels (scene + cloud layer) on demand, so callers can
//! stream scenes without holding the whole collection in memory.

use crate::clouds::{self, CloudConfig, CloudLayer};
use crate::geo::{GeoExtent, SceneId, SceneMeta, TimeRange};
use crate::synth::{self, Scene, SceneConfig};
use std::collections::BTreeMap;

/// A spatial + temporal catalog query (the GEE `filterBounds` /
/// `filterDate` pair).
#[derive(Clone, Debug)]
pub struct CatalogQuery {
    /// Spatial filter.
    pub extent: GeoExtent,
    /// Temporal filter.
    pub time: TimeRange,
    /// Maximum number of scenes to return; always the cap, so 0 returns
    /// none. A query walks its days only until the cap is reached, which
    /// keeps a wide [`TimeRange`] cheap.
    pub limit: usize,
}

impl CatalogQuery {
    /// The paper's acquisition: Ross Sea, November 2019, 66 scenes.
    pub fn paper() -> Self {
        Self {
            extent: GeoExtent::ross_sea(),
            time: TimeRange::november_2019(),
            limit: 66,
        }
    }
}

/// Deterministic synthetic scene catalog.
#[derive(Clone, Debug)]
pub struct Catalog {
    /// Master seed; every scene seed derives from it.
    seed: u64,
    /// Raster shape used for generated scenes.
    scene_config: SceneConfig,
    /// Cloud overlay applied to cloudy acquisitions.
    cloud_config: CloudConfig,
    /// Scenes the catalog "acquires" per day over the region.
    scenes_per_day: usize,
    /// Fraction of acquisitions degraded by cloud/shadow.
    cloudy_fraction: f64,
}

impl Catalog {
    /// Creates a catalog over the default (paper-shaped) scene geometry.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            scene_config: SceneConfig::default(),
            cloud_config: CloudConfig::default(),
            scenes_per_day: 3,
            cloudy_fraction: 0.5,
        }
    }

    /// Overrides the raster configuration (use [`SceneConfig::tiny`] in
    /// tests).
    pub fn with_scene_config(mut self, cfg: SceneConfig) -> Self {
        self.scene_config = cfg;
        self
    }

    /// Overrides the cloud overlay configuration.
    pub fn with_cloud_config(mut self, cfg: CloudConfig) -> Self {
        self.cloud_config = cfg;
        self
    }

    /// Overrides the fraction of cloudy acquisitions.
    pub fn with_cloudy_fraction(mut self, f: f64) -> Self {
        self.cloudy_fraction = f.clamp(0.0, 1.0);
        self
    }

    #[inline]
    fn hash(&self, a: u64, b: u64) -> u64 {
        let mut z = self
            .seed
            .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.rotate_left(17));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Runs a query and returns matching scene metadata, ordered by day
    /// then per-day index. Deterministic in the catalog seed and query.
    pub fn query(&self, q: &CatalogQuery) -> Vec<SceneMeta> {
        let mut out = Vec::new();
        let (dlat, dlon) = q.extent.span();
        'days: for day in q.time.start_day..q.time.end_day {
            for k in 0..self.scenes_per_day {
                if out.len() >= q.limit {
                    break 'days;
                }
                let h = self.hash(day as u64, k as u64);
                // Footprint: a sub-box of the queried extent (scenes are
                // ~20 km across, far smaller than the region).
                let fx = (h & 0xFFFF) as f64 / 65535.0;
                let fy = ((h >> 16) & 0xFFFF) as f64 / 65535.0;
                let foot_lat = (dlat * 0.05).max(1e-6);
                let foot_lon = (dlon * 0.05).max(1e-6);
                let lat0 = q.extent.lat_min + fy * (dlat - foot_lat).max(0.0);
                let lon0 = q.extent.lon_min + fx * (dlon - foot_lon).max(0.0);

                let cloud_roll = ((h >> 32) & 0xFFFF) as f64 / 65535.0;
                let cloud_cover = if cloud_roll < self.cloudy_fraction {
                    // Cloudy acquisition: coverage between 10% and 50%.
                    0.1 + 0.4 * (((h >> 48) & 0xFFFF) as f64 / 65535.0)
                } else {
                    // "Clear" acquisition: trace contamination below 8%.
                    0.08 * (((h >> 48) & 0xFFFF) as f64 / 65535.0)
                };

                out.push(SceneMeta {
                    id: SceneId(h),
                    extent: GeoExtent::new(lat0, lat0 + foot_lat, lon0, lon0 + foot_lon),
                    day,
                    width: self.scene_config.width,
                    height: self.scene_config.height,
                    seed: h ^ 0x5EED_5EED_5EED_5EED,
                    cloud_cover,
                });
            }
        }
        out
    }

    /// Seed for one named revisit region, stable in the catalog seed and
    /// the region name alone.
    fn region_seed(&self, region: &str) -> u64 {
        self.hash(fnv1a(region.as_bytes()), 0xD21F)
    }

    /// Emits the revisit scene stream for `plan`, ordered by `(day,
    /// region name)`. Regions live in a `BTreeMap`, so iteration — and
    /// therefore the stream — is byte-stable across runs and platforms
    /// (no `HashMap` iteration anywhere on this path); a replay with the
    /// same catalog seed and plan is identical.
    pub fn revisit_stream(&self, plan: &RevisitPlan) -> Vec<RevisitSceneMeta> {
        let mut out = Vec::new();
        for revisit in 0..plan.revisits {
            let day = plan.start_day + revisit * plan.cadence_days;
            for (region, extent) in &plan.regions {
                let rseed = self.region_seed(region);
                let h = self.hash(rseed, u64::from(revisit));
                let cloud_roll = ((h >> 32) & 0xFFFF) as f64 / 65535.0;
                let cloud_cover = if cloud_roll < self.cloudy_fraction {
                    0.1 + 0.4 * (((h >> 48) & 0xFFFF) as f64 / 65535.0)
                } else {
                    0.08 * (((h >> 48) & 0xFFFF) as f64 / 65535.0)
                };
                out.push(RevisitSceneMeta {
                    region: region.clone(),
                    revisit,
                    offset_px: plan.drift_px * revisit as usize,
                    meta: SceneMeta {
                        id: SceneId(h),
                        extent: *extent,
                        day,
                        width: self.scene_config.width,
                        height: self.scene_config.height,
                        seed: h ^ 0x5EED_5EED_5EED_5EED,
                        cloud_cover,
                    },
                });
            }
        }
        out
    }

    /// Generates the wide "window" scene a region's revisits crop from:
    /// one ice field `drift_px · (revisits − 1)` pixels wider than a
    /// scene, so consecutive revisits observe the *same* ice translated
    /// by the plan's drift rate — the signal the change detector is
    /// built to recover.
    pub fn region_window(&self, plan: &RevisitPlan, region: &str) -> Scene {
        let extra = plan.drift_px * plan.revisits.saturating_sub(1) as usize;
        let cfg = SceneConfig {
            width: self.scene_config.width + extra,
            ..self.scene_config
        };
        synth::generate(&cfg, self.region_seed(region))
    }

    /// Materializes one revisit by cropping its region window at the
    /// revisit's drift offset and rolling that day's cloud layer.
    /// Regenerates the window; batch consumers should cache
    /// [`region_window`](Catalog::region_window) and use
    /// [`crop_revisit`] instead.
    pub fn generate_revisit(
        &self,
        plan: &RevisitPlan,
        m: &RevisitSceneMeta,
    ) -> (Scene, CloudLayer) {
        let window = self.region_window(plan, &m.region);
        (crop_revisit(&window, m), self.revisit_cloud_layer(m))
    }

    /// Rolls one revisit's cloud layer without touching scene pixels —
    /// the cheap half of [`generate_revisit`](Catalog::generate_revisit)
    /// for consumers that cache region windows.
    pub fn revisit_cloud_layer(&self, m: &RevisitSceneMeta) -> CloudLayer {
        let cloud_cfg = CloudConfig {
            coverage: m.meta.cloud_cover,
            ..self.cloud_config
        };
        clouds::generate(
            &cloud_cfg,
            m.meta.seed ^ 0xC10D,
            m.meta.width,
            m.meta.height,
        )
    }

    /// Materializes a scene: pristine pixels + ground truth + the cloud
    /// layer matching the metadata's coverage.
    pub fn generate(&self, meta: &SceneMeta) -> (Scene, CloudLayer) {
        let scene = synth::generate(&self.scene_config, meta.seed);
        let cloud_cfg = CloudConfig {
            coverage: meta.cloud_cover,
            ..self.cloud_config
        };
        let layer = clouds::generate(&cloud_cfg, meta.seed ^ 0xC10D, meta.width, meta.height);
        (scene, layer)
    }
}

/// A seeded revisit-cadence plan: which regions to monitor, how often,
/// and how fast the ice translates between revisits.
///
/// Regions are held in a [`BTreeMap`] keyed by name so every iteration
/// over them — metadata emission, window generation, drift-series
/// assembly — happens in one byte-stable order.
#[derive(Clone, Debug)]
pub struct RevisitPlan {
    /// Monitored regions by name.
    pub regions: BTreeMap<String, GeoExtent>,
    /// Day of the first revisit.
    pub start_day: u32,
    /// Days between consecutive revisits (Sentinel-2's polar revisit is
    /// a few days).
    pub cadence_days: u32,
    /// Number of revisits per region.
    pub revisits: u32,
    /// Horizontal ice translation per revisit, in pixels.
    pub drift_px: usize,
}

impl RevisitPlan {
    /// A plan over `n` synthetic sub-regions of the Ross Sea, named
    /// `ross-00` … so their `BTreeMap` order matches their index order.
    pub fn synthetic(n: usize, revisits: u32, cadence_days: u32, drift_px: usize) -> Self {
        let sea = GeoExtent::ross_sea();
        let (dlat, dlon) = sea.span();
        let mut regions = BTreeMap::new();
        let cols = n.max(1);
        for i in 0..n.max(1) {
            let f = i as f64 / cols as f64;
            let lat0 = sea.lat_min + f * dlat * 0.8;
            let lon0 = sea.lon_min + f * dlon * 0.8;
            regions.insert(
                format!("ross-{i:02}"),
                GeoExtent::new(lat0, lat0 + dlat * 0.1, lon0, lon0 + dlon * 0.1),
            );
        }
        Self {
            regions,
            start_day: 0,
            cadence_days: cadence_days.max(1),
            revisits: revisits.max(1),
            drift_px,
        }
    }
}

/// Metadata for one revisit of one region: a [`SceneMeta`] plus the
/// revisit bookkeeping the change detector keys on.
#[derive(Clone, Debug, PartialEq)]
pub struct RevisitSceneMeta {
    /// Region name (the plan's `BTreeMap` key).
    pub region: String,
    /// Zero-based revisit index.
    pub revisit: u32,
    /// Crop offset into the region window, in pixels.
    pub offset_px: usize,
    /// The scene-level metadata (day, seed, cloud cover, …).
    pub meta: SceneMeta,
}

/// Crops one revisit's scene out of its region window (both pixels and
/// ground truth), preserving the revisit's seed.
///
/// # Panics
/// When the window is narrower than `offset_px + width` — i.e. the
/// window was generated from a different plan.
pub fn crop_revisit(window: &Scene, m: &RevisitSceneMeta) -> Scene {
    Scene {
        rgb: window.rgb.crop(m.offset_px, 0, m.meta.width, m.meta.height),
        truth: window
            .truth
            .crop(m.offset_px, 0, m.meta.width, m.meta.height),
        seed: m.meta.seed,
    }
}

/// FNV-1a over bytes; turns region names into stable seeds.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_catalog() -> Catalog {
        Catalog::new(42).with_scene_config(SceneConfig::tiny(64))
    }

    #[test]
    fn paper_query_returns_66_scenes() {
        let cat = tiny_catalog();
        let metas = cat.query(&CatalogQuery::paper());
        assert_eq!(metas.len(), 66);
    }

    #[test]
    fn query_is_deterministic() {
        let cat = tiny_catalog();
        let a = cat.query(&CatalogQuery::paper());
        let b = cat.query(&CatalogQuery::paper());
        assert_eq!(a, b);
    }

    #[test]
    fn scene_ids_are_unique() {
        let cat = tiny_catalog();
        let metas = cat.query(&CatalogQuery::paper());
        let mut ids: Vec<_> = metas.iter().map(|m| m.id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), metas.len());
    }

    #[test]
    fn footprints_fall_inside_query_extent() {
        let cat = tiny_catalog();
        let q = CatalogQuery::paper();
        for m in cat.query(&q) {
            assert!(q.extent.intersects(&m.extent));
            assert!(m.extent.lat_min >= q.extent.lat_min - 1e-9);
            assert!(m.extent.lon_max <= q.extent.lon_max + 1e-9);
        }
    }

    #[test]
    fn days_respect_time_filter() {
        let cat = tiny_catalog();
        // A cap above the 3 days x 3 acquisitions the range holds.
        let q = CatalogQuery {
            time: TimeRange::new(5, 8),
            limit: 100,
            ..CatalogQuery::paper()
        };
        let metas = cat.query(&q);
        assert_eq!(metas.len(), 9);
        assert!(metas.iter().all(|m| (5..8).contains(&m.day)));
    }

    #[test]
    fn limit_is_always_the_cap_so_zero_returns_no_scenes() {
        let cat = tiny_catalog();
        let q = CatalogQuery {
            time: TimeRange::new(5, 8),
            limit: 0,
            ..CatalogQuery::paper()
        };
        assert!(cat.query(&q).is_empty());
        // A wide range stops at the cap instead of walking every day.
        let wide = CatalogQuery {
            time: TimeRange::new(0, u32::MAX / 2),
            limit: 4,
            ..CatalogQuery::paper()
        };
        assert_eq!(cat.query(&wide).len(), 4);
    }

    #[test]
    fn cloudy_fraction_controls_contamination_mix() {
        let all_clear = tiny_catalog().with_cloudy_fraction(0.0);
        let metas = all_clear.query(&CatalogQuery::paper());
        assert!(metas.iter().all(|m| m.cloud_cover < 0.1));
        let all_cloudy = tiny_catalog().with_cloudy_fraction(1.0);
        let metas = all_cloudy.query(&CatalogQuery::paper());
        assert!(metas.iter().all(|m| m.cloud_cover >= 0.1));
    }

    #[test]
    fn generate_matches_metadata() {
        let cat = tiny_catalog();
        let metas = cat.query(&CatalogQuery {
            limit: 1,
            ..CatalogQuery::paper()
        });
        let (scene, layer) = cat.generate(&metas[0]);
        assert_eq!(scene.rgb.dimensions(), (64, 64));
        assert_eq!(layer.cloud_alpha.dimensions(), (64, 64));
        // Regenerating yields identical pixels.
        let (scene2, _) = cat.generate(&metas[0]);
        assert_eq!(scene.rgb, scene2.rgb);
    }

    fn tiny_plan() -> RevisitPlan {
        RevisitPlan::synthetic(2, 3, 2, 4)
    }

    #[test]
    fn revisit_stream_is_deterministic_and_day_region_ordered() {
        let cat = tiny_catalog();
        let plan = tiny_plan();
        let a = cat.revisit_stream(&plan);
        let b = cat.revisit_stream(&plan);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // Ordered by (day, region name): both regions on day 0, then
        // both on day 2, then day 4.
        let order: Vec<(u32, &str)> = a.iter().map(|m| (m.meta.day, m.region.as_str())).collect();
        assert_eq!(
            order,
            vec![
                (0, "ross-00"),
                (0, "ross-01"),
                (2, "ross-00"),
                (2, "ross-01"),
                (4, "ross-00"),
                (4, "ross-01"),
            ]
        );
        // Offsets march by the drift rate.
        assert!(a
            .iter()
            .all(|m| m.offset_px == plan.drift_px * m.revisit as usize));
    }

    #[test]
    fn revisit_windows_translate_the_same_ice() {
        let cat = tiny_catalog();
        let plan = tiny_plan();
        let stream = cat.revisit_stream(&plan);
        let window = cat.region_window(&plan, "ross-00");
        // Window is scene-width plus drift headroom.
        assert_eq!(window.rgb.width(), 64 + plan.drift_px * 2);
        let r0: Vec<_> = stream.iter().filter(|m| m.region == "ross-00").collect();
        let s0 = crop_revisit(&window, r0[0]);
        let s1 = crop_revisit(&window, r0[1]);
        // Revisit 1 shifted left by drift_px equals revisit 0's right
        // part: the ice genuinely translates instead of being resampled.
        let overlap = 64 - plan.drift_px;
        assert_eq!(
            s0.rgb.crop(plan.drift_px, 0, overlap, 64),
            s1.rgb.crop(0, 0, overlap, 64)
        );
        assert_ne!(s0.rgb, s1.rgb, "drift must actually move the scene");
    }

    #[test]
    fn generate_revisit_matches_cached_window_crop() {
        let cat = tiny_catalog();
        let plan = tiny_plan();
        let stream = cat.revisit_stream(&plan);
        let m = stream
            .iter()
            .find(|m| m.region == "ross-01" && m.revisit == 2)
            .expect("revisit present");
        let (scene, layer) = cat.generate_revisit(&plan, m);
        let window = cat.region_window(&plan, "ross-01");
        assert_eq!(scene.rgb, crop_revisit(&window, m).rgb);
        assert_eq!(layer.cloud_alpha.dimensions(), (64, 64));
        // Different revisits of the same region roll different clouds.
        let m0 = stream
            .iter()
            .find(|m| m.region == "ross-01" && m.revisit == 0)
            .expect("revisit present");
        assert_ne!(m0.meta.seed, m.meta.seed);
    }
}
