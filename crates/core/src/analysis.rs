//! Geophysical analysis of classified sea-ice maps: sea-ice
//! concentration and lead (crack) statistics.
//!
//! The paper's related work (Muchow et al. 2021, its ref. [11]) derives a
//! *lead-width distribution* for Antarctic sea ice from Sentinel-2
//! classifications; this module computes the same family of products from
//! our classified scenes: open-water components are extracted, linear
//! elongated ones are identified as leads, and their widths and
//! orientations are summarized.

use seaice_imgproc::buffer::Image;
use seaice_imgproc::components::{connected_components, Component, Connectivity};
use seaice_label::ranges::IceClass;

/// Sea-ice concentration summary of a classified scene.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IceConcentration {
    /// Fraction of pixels that are ice of any kind (thick + thin).
    pub total_ice: f64,
    /// Fraction of thick / snow-covered ice.
    pub thick_ice: f64,
    /// Fraction of thin / young ice.
    pub thin_ice: f64,
    /// Fraction of open water.
    pub open_water: f64,
}

/// Computes per-class concentrations from a class mask.
///
/// # Panics
/// Panics if the mask is empty or contains invalid classes.
pub fn ice_concentration(mask: &Image<u8>) -> IceConcentration {
    let n = mask.as_slice().len();
    assert!(n > 0, "empty mask");
    let mut counts = [0usize; 3];
    for &c in mask.as_slice() {
        assert!(c < 3, "invalid class {c}");
        counts[c as usize] += 1;
    }
    let f = |k: usize| counts[k] as f64 / n as f64;
    IceConcentration {
        total_ice: f(IceClass::Thick as usize) + f(IceClass::Thin as usize),
        thick_ice: f(IceClass::Thick as usize),
        thin_ice: f(IceClass::Thin as usize),
        open_water: f(IceClass::Water as usize),
    }
}

/// One detected lead.
#[derive(Clone, Debug)]
pub struct Lead {
    /// Pixel area of the lead.
    pub area: usize,
    /// Approximate length in pixels (bounding-box diagonal, which tracks
    /// the true length for any orientation of a thin feature).
    pub length: usize,
    /// Mean width in pixels (area / length).
    pub mean_width: f64,
    /// Orientation-independent linearity `length² / area`: large for
    /// thin lines (≈ length/width), ≈2 for compact blobs regardless of
    /// how they sit in the bounding box.
    pub elongation: f64,
    /// Centroid `(x, y)`.
    pub centroid: (f64, f64),
}

/// Lead-detection tuning. `min_elongation` uses the
/// orientation-independent linearity `length²/area` (thin lines score
/// ≈ length/width; compact blobs score ≈ 2).
#[derive(Clone, Copy, Debug)]
pub struct LeadConfig {
    /// Minimum pixel area for a water component to be considered.
    pub min_area: usize,
    /// Minimum elongation for a component to count as a *lead* rather
    /// than a pond/polynya.
    pub min_elongation: f64,
    /// Maximum mean width in pixels (leads are narrow; wide water is open
    /// ocean).
    pub max_mean_width: f64,
}

impl Default for LeadConfig {
    fn default() -> Self {
        Self {
            min_area: 16,
            min_elongation: 3.0,
            max_mean_width: 24.0,
        }
    }
}

/// Lead statistics over one classified scene.
#[derive(Clone, Debug)]
pub struct LeadAnalysis {
    /// Detected leads, largest first.
    pub leads: Vec<Lead>,
    /// Water components rejected as non-linear (ponds, polynyas, ocean).
    pub non_lead_water_components: usize,
    /// Histogram of mean widths with 1-px bins (`widths[k]` counts leads
    /// with width in `[k, k+1)`), the lead-width distribution.
    pub width_histogram: Vec<usize>,
}

impl LeadAnalysis {
    /// Total lead pixel area.
    pub fn total_lead_area(&self) -> usize {
        self.leads.iter().map(|l| l.area).sum()
    }

    /// Mean lead width weighted by area (NaN-free; 0 when no leads).
    pub fn mean_width(&self) -> f64 {
        let area: f64 = self.leads.iter().map(|l| l.area as f64).sum();
        if area == 0.0 {
            return 0.0;
        }
        self.leads
            .iter()
            .map(|l| l.mean_width * l.area as f64)
            .sum::<f64>()
            / area
    }
}

fn to_lead(c: &Component) -> Lead {
    let (w, h) = (c.width() as f64, c.height() as f64);
    let diag = (w * w + h * h).sqrt();
    Lead {
        area: c.area,
        length: diag.round() as usize,
        mean_width: c.area as f64 / diag,
        elongation: diag * diag / c.area as f64,
        centroid: c.centroid,
    }
}

/// Detects leads in a class mask: connected open-water components that
/// are long, narrow, and large enough per `cfg`.
pub fn detect_leads(mask: &Image<u8>, cfg: &LeadConfig) -> LeadAnalysis {
    // Binary water mask.
    let water = mask.map(|c| if c == IceClass::Water as u8 { 255u8 } else { 0 });
    let (_, comps) = connected_components(&water, Connectivity::Eight);

    let mut leads = Vec::new();
    let mut rejected = 0usize;
    for c in comps.iter().filter(|c| c.area >= cfg.min_area) {
        let lead = to_lead(c);
        if lead.elongation >= cfg.min_elongation && lead.mean_width <= cfg.max_mean_width {
            leads.push(lead);
        } else {
            rejected += 1;
        }
    }

    // 1-px bins centered on integers (a 1.98-px-wide lead bins at 2).
    let max_w = leads
        .iter()
        .map(|l| l.mean_width.round() as usize)
        .max()
        .unwrap_or(0);
    let mut width_histogram = vec![0usize; max_w + 1];
    for l in &leads {
        width_histogram[l.mean_width.round() as usize] += 1;
    }

    LeadAnalysis {
        leads,
        non_lead_water_components: rejected,
        width_histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_s2::synth::{generate, SceneConfig};

    fn mask_from(rows: &[&str]) -> Image<u8> {
        // '#' = water (class 2), '.' = thick ice (class 0).
        let h = rows.len();
        let w = rows[0].len();
        let mut m = Image::<u8>::new(w, h, 1);
        for (y, row) in rows.iter().enumerate() {
            for (x, ch) in row.bytes().enumerate() {
                m.set(x, y, if ch == b'#' { 2 } else { 0 });
            }
        }
        m
    }

    #[test]
    fn concentration_sums_to_one() {
        let m = Image::from_vec(4, 1, 1, vec![0u8, 1, 2, 0]);
        let c = ice_concentration(&m);
        assert!((c.total_ice + c.open_water - 1.0).abs() < 1e-12);
        assert!((c.thick_ice - 0.5).abs() < 1e-12);
        assert!((c.thin_ice - 0.25).abs() < 1e-12);
        assert!((c.open_water - 0.25).abs() < 1e-12);
    }

    #[test]
    fn straight_crack_is_detected_as_lead() {
        let rows: Vec<String> = (0..24)
            .map(|y| {
                if y == 12 {
                    "#".repeat(48)
                } else {
                    ".".repeat(48)
                }
            })
            .collect();
        let rows_ref: Vec<&str> = rows.iter().map(String::as_str).collect();
        let m = mask_from(&rows_ref);
        let analysis = detect_leads(&m, &LeadConfig::default());
        assert_eq!(analysis.leads.len(), 1);
        let lead = &analysis.leads[0];
        assert_eq!(lead.length, 48);
        assert!((lead.mean_width - 1.0).abs() < 0.01);
        assert!(lead.elongation >= 40.0);
    }

    #[test]
    fn round_pond_is_rejected() {
        // A 10x10 water square: elongation 1, not a lead.
        let rows: Vec<String> = (0..20)
            .map(|y| {
                if (5..15).contains(&y) {
                    format!("{}{}{}", ".".repeat(5), "#".repeat(10), ".".repeat(5))
                } else {
                    ".".repeat(20)
                }
            })
            .collect();
        let rows_ref: Vec<&str> = rows.iter().map(String::as_str).collect();
        let analysis = detect_leads(&mask_from(&rows_ref), &LeadConfig::default());
        assert!(analysis.leads.is_empty());
        assert_eq!(analysis.non_lead_water_components, 1);
    }

    #[test]
    fn tiny_specks_are_ignored_entirely() {
        let m = mask_from(&["#....", ".....", "....#"]);
        let analysis = detect_leads(&m, &LeadConfig::default());
        assert!(analysis.leads.is_empty());
        assert_eq!(analysis.non_lead_water_components, 0); // below min_area
    }

    #[test]
    fn width_histogram_bins_by_floor() {
        let rows: Vec<String> = (0..30)
            .map(|y| {
                if (10..12).contains(&y) {
                    "#".repeat(40) // width-2 lead
                } else {
                    ".".repeat(40)
                }
            })
            .collect();
        let rows_ref: Vec<&str> = rows.iter().map(String::as_str).collect();
        let analysis = detect_leads(&mask_from(&rows_ref), &LeadConfig::default());
        assert_eq!(analysis.leads.len(), 1);
        assert_eq!(analysis.width_histogram[2], 1);
        assert!((analysis.mean_width() - 2.0).abs() < 0.05);
    }

    #[test]
    fn synthetic_scene_leads_are_found() {
        // The scene generator cuts meandering leads through the ice; the
        // detector should recover elongated water features from the truth
        // mask when the base ice field is mostly solid.
        let scene = generate(
            &SceneConfig {
                water_level: 0.05, // almost all ice except the cut leads
                lead_count: 2,
                ..SceneConfig::tiny(128)
            },
            31,
        );
        let analysis = detect_leads(
            &scene.truth,
            &LeadConfig {
                min_elongation: 2.0,
                max_mean_width: 64.0,
                ..LeadConfig::default()
            },
        );
        assert!(
            !analysis.leads.is_empty(),
            "synthetic leads must be detected"
        );
        assert!(analysis.total_lead_area() > 100);
    }
}
