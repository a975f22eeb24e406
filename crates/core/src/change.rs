//! Revisit-series change detection: the sink stage of the streaming DAG.
//!
//! The landfast-ice / polynya tracking literature (SNIPPETS.md snippet 2)
//! monitors a region by classifying each acquisition into ice vs water
//! and tracking the ice edge across a time series. [`ChangeDetector`]
//! is that workflow over the streaming pipeline's per-tile class masks:
//!
//! * **per-revisit state** — ice / thick-ice / open-water pixel
//!   fractions, an ice–water *edge length* proxy (4-neighbor class
//!   boundaries, the discrete perimeter of the ice edge), and the
//!   auto-label vs model agreement;
//! * **revisit-over-revisit change** — for every tile present in two
//!   consecutive revisits, the fraction of pixels that changed class,
//!   split into *opened* (ice → water: melt, lead or polynya opening)
//!   and *closed* (water → ice: freeze-up) — the drift signal.
//!
//! Determinism is the whole design: observations arrive in whatever
//! order the scheduler's workers emit them, so nothing here depends on
//! arrival order. Masks pair up by `(region, tile, revisit)` key, all
//! accumulation is commutative integer addition, and the final series
//! assembles in `BTreeMap` key order — the same bytes at any worker
//! count, with or without retries.

use seaice_obs::json::{self, Obj};
use std::collections::BTreeMap;
use std::fmt::Write as _;

use seaice_s2::classes::OPEN_WATER;

/// One classified tile observation flowing out of the inference stage.
#[derive(Clone, Debug)]
pub struct TileObs {
    /// Region name (the revisit plan's key).
    pub region: String,
    /// Zero-based revisit index.
    pub revisit: u32,
    /// Acquisition day.
    pub day: u32,
    /// Row-major tile index within the scene grid.
    pub tile_index: u32,
    /// Model class mask (`tile side²` class ids).
    pub pred: Vec<u8>,
    /// Auto-label class mask for the same pixels.
    pub label: Vec<u8>,
}

/// Integer accumulators for one `(region, revisit)` cell.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct RevisitAcc {
    day: u32,
    tiles: u64,
    total_px: u64,
    ice_px: u64,
    thick_px: u64,
    water_px: u64,
    edge_px: u64,
    agree_px: u64,
    /// Pixels compared against the previous revisit.
    diffed_px: u64,
    changed_px: u64,
    opened_px: u64,
    closed_px: u64,
}

/// One point of the drift series: a region at a revisit.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftPoint {
    /// Region name.
    pub region: String,
    /// Zero-based revisit index.
    pub revisit: u32,
    /// Acquisition day.
    pub day: u32,
    /// Tiles observed.
    pub tiles: u64,
    /// Fraction of pixels classified as ice (thick + thin).
    pub ice_frac: f64,
    /// Fraction classified as thick ice.
    pub thick_frac: f64,
    /// Fraction classified as open water.
    pub water_frac: f64,
    /// Ice–water 4-neighbor boundary pairs per pixel (edge-length
    /// proxy; rises when leads/polynyas fragment the pack).
    pub edge_density: f64,
    /// Model vs auto-label pixel agreement.
    pub label_agreement: f64,
    /// Fraction of diffed pixels whose class changed since the previous
    /// revisit (0 at revisit 0).
    pub changed_frac: f64,
    /// Ice → water transitions per diffed pixel (opening).
    pub opened_frac: f64,
    /// Water → ice transitions per diffed pixel (freeze-up).
    pub closed_frac: f64,
}

/// The per-region drift series, ordered by `(region, revisit)`.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftSeries {
    /// Tile side length the masks were observed at.
    pub tile: usize,
    /// Series points in `(region, revisit)` order.
    pub points: Vec<DriftPoint>,
}

impl DriftSeries {
    /// Fixed-format table; the byte-identity artifact every differential
    /// test compares.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>3} {:>4} {:>5} {:>8} {:>8} {:>8} {:>8} {:>7} {:>8} {:>8} {:>8}\n",
            "region",
            "rev",
            "day",
            "tiles",
            "ice",
            "thick",
            "water",
            "edge",
            "agree",
            "changed",
            "opened",
            "closed",
        ));
        for p in &self.points {
            out.push_str(&format!(
                "{:<10} {:>3} {:>4} {:>5} {:>8.4} {:>8.4} {:>8.4} {:>8.4} {:>7.4} {:>8.4} {:>8.4} {:>8.4}\n",
                p.region,
                p.revisit,
                p.day,
                p.tiles,
                p.ice_frac,
                p.thick_frac,
                p.water_frac,
                p.edge_density,
                p.label_agreement,
                p.changed_frac,
                p.opened_frac,
                p.closed_frac,
            ));
        }
        out
    }

    /// The rendered table as bytes (what chaos tests byte-compare).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.render().into_bytes()
    }
}

/// A mask waiting in [`ChangeDetector::pending`] for one or both of its
/// consecutive-revisit partners.
///
/// A mask at revisit `r` participates in up to two diffs — as the
/// *successor* of `r-1` and as the *predecessor* of `r+1` — and the
/// partner for either side may arrive in any order. It can only be
/// evicted once both sides are settled; dropping it after serving one
/// direction would silently lose the other diff under adversarial
/// arrival orders.
#[derive(Clone, Debug, PartialEq, Eq)]
struct PendingMask {
    mask: Vec<u8>,
    /// The `(r-1) → r` diff has been booked (vacuously true at revisit
    /// 0, which has no predecessor).
    diffed_prev: bool,
    /// The `r → (r+1)` diff has been booked.
    diffed_next: bool,
}

impl PendingMask {
    fn settled(&self) -> bool {
        self.diffed_prev && self.diffed_next
    }
}

/// Accumulates [`TileObs`] in any order and folds them into a
/// [`DriftSeries`].
#[derive(Debug, Default)]
pub struct ChangeDetector {
    tile: usize,
    acc: BTreeMap<(String, u32), RevisitAcc>,
    /// Masks waiting for a consecutive-revisit partner, keyed by
    /// `(region, tile_index)` then revisit. Each entry tracks which of
    /// its two neighbor diffs have been booked and is evicted only once
    /// both are (masks at the ends of the series stay until
    /// [`finalize`](ChangeDetector::finalize) consumes them), so any
    /// arrival order books the same set of diffs.
    pending: BTreeMap<(String, u32), BTreeMap<u32, PendingMask>>,
}

impl ChangeDetector {
    /// A detector for `tile`-pixel square masks.
    pub fn new(tile: usize) -> Self {
        Self {
            tile,
            ..Self::default()
        }
    }

    /// Folds one observation in. Commutative: any permutation of the
    /// same observations yields the same [`DriftSeries`].
    pub fn observe(&mut self, obs: TileObs) {
        let side = self.tile;
        debug_assert_eq!(obs.pred.len(), side * side);
        let acc = self
            .acc
            .entry((obs.region.clone(), obs.revisit))
            .or_default();
        acc.day = obs.day;
        acc.tiles += 1;
        acc.total_px += (side * side) as u64;
        for (&p, &l) in obs.pred.iter().zip(&obs.label) {
            if p != OPEN_WATER {
                acc.ice_px += 1;
                if p == seaice_s2::classes::THICK_ICE {
                    acc.thick_px += 1;
                }
            } else {
                acc.water_px += 1;
            }
            if p == l {
                acc.agree_px += 1;
            }
        }
        acc.edge_px += edge_pairs(&obs.pred, side);

        // Pair the mask with its consecutive revisits (either side). A
        // neighbor is evicted only once *both* of its own diffs are
        // booked: serving as our predecessor says nothing about whether
        // its other side (revisit - 2, say) has arrived yet.
        let px = (side * side) as u64;
        let key = (obs.region.clone(), obs.tile_index);
        let slot = self.pending.entry(key).or_default();
        let mut diffed_prev = obs.revisit == 0;
        if let Some(r_prev) = obs.revisit.checked_sub(1) {
            if let Some(prev) = slot.get_mut(&r_prev) {
                let d = diff_masks(&prev.mask, &obs.pred);
                book_diff(&mut self.acc, &obs.region, obs.revisit, px, d);
                prev.diffed_next = true;
                diffed_prev = true;
                if prev.settled() {
                    slot.remove(&r_prev);
                }
            }
        }
        let mut diffed_next = false;
        if let Some(next) = slot.get_mut(&(obs.revisit + 1)) {
            let d = diff_masks(&obs.pred, &next.mask);
            book_diff(&mut self.acc, &obs.region, obs.revisit + 1, px, d);
            next.diffed_prev = true;
            diffed_next = true;
            if next.settled() {
                slot.remove(&(obs.revisit + 1));
            }
        }
        let entry = PendingMask {
            mask: obs.pred,
            diffed_prev,
            diffed_next,
        };
        if !entry.settled() {
            slot.insert(obs.revisit, entry);
        }
    }

    /// Serializes the detector's complete state — accumulators *and*
    /// masks still waiting for a revisit partner — into the durable
    /// [`ChangeSnapshot`] form. [`restore`](ChangeDetector::restore) of
    /// the snapshot is an exact continuation: feeding it the remaining
    /// observations yields the same [`DriftSeries`], byte for byte, as
    /// an uninterrupted detector (BTreeMap iteration makes the encoding
    /// order deterministic too).
    pub fn snapshot(&self) -> ChangeSnapshot {
        ChangeSnapshot {
            tile: self.tile,
            acc: self.acc.clone(),
            pending: self.pending.clone(),
        }
    }

    /// Rebuilds a detector from a [`ChangeSnapshot`] — the inverse of
    /// [`snapshot`](ChangeDetector::snapshot).
    pub fn restore(snap: &ChangeSnapshot) -> Self {
        Self {
            tile: snap.tile,
            acc: snap.acc.clone(),
            pending: snap.pending.clone(),
        }
    }

    /// Assembles the series in `(region, revisit)` key order.
    pub fn finalize(self) -> DriftSeries {
        let points = self
            .acc
            .into_iter()
            .map(|((region, revisit), a)| {
                let px = a.total_px.max(1) as f64;
                let diffed = a.diffed_px.max(1) as f64;
                DriftPoint {
                    region,
                    revisit,
                    day: a.day,
                    tiles: a.tiles,
                    ice_frac: a.ice_px as f64 / px,
                    thick_frac: a.thick_px as f64 / px,
                    water_frac: a.water_px as f64 / px,
                    edge_density: a.edge_px as f64 / px,
                    label_agreement: a.agree_px as f64 / px,
                    changed_frac: a.changed_px as f64 / diffed,
                    opened_frac: a.opened_px as f64 / diffed,
                    closed_frac: a.closed_px as f64 / diffed,
                }
            })
            .collect();
        DriftSeries {
            tile: self.tile,
            points,
        }
    }
}

/// Serializable image of a [`ChangeDetector`]'s complete state.
///
/// Tuple-keyed `BTreeMap`s do not map onto JSON objects, so the codec
/// flattens the maps into entry arrays (in key order — the encoding is
/// deterministic). Written durably by the stream-stage checkpoint in
/// [`crate::stream_workflow`].
#[derive(Clone, Debug, PartialEq)]
pub struct ChangeSnapshot {
    /// Tile side length the masks were observed at.
    pub tile: usize,
    /// Accumulators by `(region, revisit)`.
    acc: BTreeMap<(String, u32), RevisitAcc>,
    /// Pending masks by `(region, tile)`, then revisit.
    pending: BTreeMap<(String, u32), BTreeMap<u32, PendingMask>>,
}

impl ChangeSnapshot {
    /// The snapshot as compact JSON: `{"tile", "acc": [{"region",
    /// "revisit", "acc": {…12 counters…}}], "pending": [{"region",
    /// "tile_index", "revisit", "mask": {"mask": […], "diffed_prev",
    /// "diffed_next"}}]}` — the `detector` member of a stream checkpoint.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"tile\":{},\"acc\":", self.tile);
        json::push_array(&mut out, &self.acc, |out, ((region, revisit), a)| {
            let region = json::escape(region);
            let _ = write!(
                out,
                "{{\"region\":\"{region}\",\"revisit\":{revisit},\"acc\":{{\"day\":{},\"tiles\":{},\
                 \"total_px\":{},\"ice_px\":{},\"thick_px\":{},\"water_px\":{},",
                a.day, a.tiles, a.total_px, a.ice_px, a.thick_px, a.water_px
            );
            let _ = write!(
                out,
                "\"edge_px\":{},\"agree_px\":{},\"diffed_px\":{},\"changed_px\":{},\
                 \"opened_px\":{},\"closed_px\":{}}}}}",
                a.edge_px, a.agree_px, a.diffed_px, a.changed_px, a.opened_px, a.closed_px
            );
        });
        out.push_str(",\"pending\":");
        let slots = self.pending.iter();
        let pending = slots.flat_map(|(at, slot)| slot.iter().map(move |e| (at, e)));
        json::push_array(&mut out, pending, |out, (at, (revisit, m))| {
            let (region, tile_index) = at;
            let _ = write!(
                out,
                "{{\"region\":\"{}\",\"tile_index\":{tile_index},\"revisit\":{revisit},\
                 \"mask\":{{\"mask\":",
                json::escape(region)
            );
            json::push_array(out, &m.mask, |out, class| {
                let _ = write!(out, "{class}");
            });
            let _ = write!(
                out,
                ",\"diffed_prev\":{},\"diffed_next\":{}}}}}",
                m.diffed_prev, m.diffed_next
            );
        });
        out.push('}');
        out
    }

    /// Decodes what [`to_json`](Self::to_json) wrote.
    ///
    /// # Errors
    /// The first missing, mistyped or out-of-range field, or a pending
    /// mask that is not `tile²` long, named by its path under `o`.
    pub fn from_json(o: &Obj) -> Result<ChangeSnapshot, String> {
        let mut snap = ChangeSnapshot {
            tile: o.uint("tile")?,
            acc: BTreeMap::new(),
            pending: BTreeMap::new(),
        };
        for e in o.objs("acc")? {
            let a = e.obj("acc")?;
            let acc = RevisitAcc {
                day: a.uint("day")?,
                tiles: a.uint("tiles")?,
                total_px: a.uint("total_px")?,
                ice_px: a.uint("ice_px")?,
                thick_px: a.uint("thick_px")?,
                water_px: a.uint("water_px")?,
                edge_px: a.uint("edge_px")?,
                agree_px: a.uint("agree_px")?,
                diffed_px: a.uint("diffed_px")?,
                changed_px: a.uint("changed_px")?,
                opened_px: a.uint("opened_px")?,
                closed_px: a.uint("closed_px")?,
            };
            let key = (e.str("region")?.to_string(), e.uint("revisit")?);
            snap.acc.insert(key, acc);
        }
        for e in o.objs("pending")? {
            let m = e.obj("mask")?;
            let mask: Vec<u8> = m.uints("mask")?;
            if snap.tile.checked_mul(snap.tile) != Some(mask.len()) {
                let (path, tile) = (m.path_of("mask"), snap.tile);
                return Err(format!(
                    "{path}: {} pixels are not a {tile}x{tile} tile",
                    mask.len()
                ));
            }
            let mask = PendingMask {
                mask,
                diffed_prev: m.bool("diffed_prev")?,
                diffed_next: m.bool("diffed_next")?,
            };
            let key = (e.str("region")?.to_string(), e.uint("tile_index")?);
            snap.pending
                .entry(key)
                .or_default()
                .insert(e.uint("revisit")?, mask);
        }
        Ok(snap)
    }
}

/// Books one consecutive-revisit diff into the accumulator of the
/// *later* revisit of the pair.
fn book_diff(
    acc: &mut BTreeMap<(String, u32), RevisitAcc>,
    region: &str,
    revisit: u32,
    px: u64,
    (changed, opened, closed): (u64, u64, u64),
) {
    let a = acc.entry((region.to_string(), revisit)).or_default();
    a.diffed_px += px;
    a.changed_px += changed;
    a.opened_px += opened;
    a.closed_px += closed;
}

/// Counts 4-neighbor pixel pairs with ice on one side and open water on
/// the other — a discrete ice-edge length.
fn edge_pairs(mask: &[u8], side: usize) -> u64 {
    let mut edges = 0u64;
    let water = |c: u8| c == OPEN_WATER;
    for y in 0..side {
        for x in 0..side {
            let c = mask[y * side + x];
            if x + 1 < side && water(c) != water(mask[y * side + x + 1]) {
                edges += 1;
            }
            if y + 1 < side && water(c) != water(mask[(y + 1) * side + x]) {
                edges += 1;
            }
        }
    }
    edges
}

/// `(changed, ice→water, water→ice)` pixel counts between two masks of
/// the same tile at consecutive revisits.
fn diff_masks(prev: &[u8], cur: &[u8]) -> (u64, u64, u64) {
    let mut changed = 0u64;
    let mut opened = 0u64;
    let mut closed = 0u64;
    for (&a, &b) in prev.iter().zip(cur) {
        if a != b {
            changed += 1;
            if a != OPEN_WATER && b == OPEN_WATER {
                opened += 1;
            } else if a == OPEN_WATER && b != OPEN_WATER {
                closed += 1;
            }
        }
    }
    (changed, opened, closed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream_workflow::StreamCheckpoint;
    use proptest::prelude::*;
    use seaice_s2::classes::{OPEN_WATER as W, THICK_ICE as K, THIN_ICE as N};

    fn reparse(json: &str) -> ChangeSnapshot {
        let doc = json::parse(json).unwrap();
        ChangeSnapshot::from_json(&Obj::root(&doc).unwrap()).unwrap()
    }

    fn obs(region: &str, revisit: u32, tile_index: u32, pred: Vec<u8>) -> TileObs {
        TileObs {
            region: region.to_string(),
            revisit,
            day: revisit * 3,
            tile_index,
            label: pred.clone(),
            pred,
        }
    }

    #[test]
    fn fractions_and_edges_from_a_handmade_mask() {
        // 2×2 tile: thick | water
        //           thin  | water
        let mut det = ChangeDetector::new(2);
        det.observe(obs("a", 0, 0, vec![K, W, N, W]));
        let s = det.finalize();
        assert_eq!(s.points.len(), 1);
        let p = &s.points[0];
        assert_eq!(p.tiles, 1);
        assert_eq!(p.ice_frac, 0.5);
        assert_eq!(p.thick_frac, 0.25);
        assert_eq!(p.water_frac, 0.5);
        // Horizontal ice|water pairs: rows (K,W) and (N,W); vertical
        // pairs are same-kind → 2 edges over 4 px.
        assert_eq!(p.edge_density, 0.5);
        assert_eq!(p.label_agreement, 1.0);
        assert_eq!(p.changed_frac, 0.0);
    }

    #[test]
    fn consecutive_revisits_diff_into_opened_and_closed() {
        let mut det = ChangeDetector::new(2);
        det.observe(obs("a", 0, 0, vec![K, K, W, W]));
        // One ice px melts (opened), one water px freezes (closed),
        // plus a thick→thin transition (changed but neither).
        det.observe(obs("a", 1, 0, vec![N, W, K, W]));
        let s = det.finalize();
        let p1 = &s.points[1];
        assert_eq!(p1.revisit, 1);
        assert_eq!(p1.changed_frac, 0.75);
        assert_eq!(p1.opened_frac, 0.25);
        assert_eq!(p1.closed_frac, 0.25);
    }

    #[test]
    fn observation_order_is_irrelevant() {
        let observations = vec![
            obs("a", 0, 0, vec![K, K, W, W]),
            obs("a", 1, 0, vec![K, W, W, W]),
            obs("a", 2, 0, vec![W, W, W, K]),
            obs("b", 0, 0, vec![N, N, N, N]),
            obs("b", 1, 0, vec![N, N, W, N]),
            obs("a", 0, 1, vec![K, K, K, K]),
            obs("a", 1, 1, vec![K, K, K, W]),
        ];
        let mut fwd = ChangeDetector::new(2);
        for o in observations.clone() {
            fwd.observe(o);
        }
        let fwd = fwd.finalize();
        // Feed several permutations, including fully reversed.
        for rot in [1usize, 3, 5] {
            let mut det = ChangeDetector::new(2);
            let mut perm = observations.clone();
            perm.rotate_left(rot);
            perm.reverse();
            for o in perm {
                det.observe(o);
            }
            assert_eq!(det.finalize().to_bytes(), fwd.to_bytes());
        }
        // Sanity: the series holds every (region, revisit) cell.
        assert_eq!(fwd.points.len(), 5);
    }

    fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
        if items.len() <= 1 {
            return vec![items.to_vec()];
        }
        let mut out = Vec::new();
        for i in 0..items.len() {
            let mut rest = items.to_vec();
            let first = rest.remove(i);
            for mut p in permutations(&rest) {
                p.insert(0, first.clone());
                out.push(p);
            }
        }
        out
    }

    #[test]
    fn every_arrival_order_books_every_consecutive_diff() {
        // Four revisits of one tile, every diff nonzero — a dropped
        // diff leaves a 0.0 in the series and changes the bytes, so no
        // permutation can pass by coincidence. (The regression behind
        // this test: a mask that had served as predecessor of r+1 was
        // evicted before r-1 arrived, losing the (r-1)→r diff under
        // arrival orders like (r1, r2, r0).)
        let series = vec![
            obs("a", 0, 0, vec![K, K, K, K]),
            obs("a", 1, 0, vec![W, K, K, K]),
            obs("a", 2, 0, vec![W, W, K, K]),
            obs("a", 3, 0, vec![W, W, W, N]),
        ];
        let mut fwd = ChangeDetector::new(2);
        for o in series.clone() {
            fwd.observe(o);
        }
        let fwd = fwd.finalize();
        assert_eq!(fwd.points[1].changed_frac, 0.25);
        assert_eq!(fwd.points[2].changed_frac, 0.25);
        assert_eq!(fwd.points[3].changed_frac, 0.5);
        for perm in permutations(&series) {
            let mut det = ChangeDetector::new(2);
            for o in perm {
                det.observe(o);
            }
            assert_eq!(det.finalize().to_bytes(), fwd.to_bytes());
        }
    }

    #[test]
    fn successor_then_mask_then_predecessor_keeps_both_diffs() {
        // (r2, r1, r0): r1 serves as r2's predecessor the moment it
        // arrives; it must still be pending when r0 lands so the r0→r1
        // diff is booked too.
        let mut det = ChangeDetector::new(1);
        det.observe(obs("a", 2, 0, vec![K]));
        det.observe(obs("a", 1, 0, vec![W]));
        det.observe(obs("a", 0, 0, vec![K]));
        let s = det.finalize();
        assert_eq!(s.points[1].changed_frac, 1.0);
        assert_eq!(s.points[1].opened_frac, 1.0);
        assert_eq!(s.points[2].changed_frac, 1.0);
        assert_eq!(s.points[2].closed_frac, 1.0);
    }

    #[test]
    fn snapshot_restore_continues_byte_identically_at_any_cut() {
        // Observations with unsettled pending masks at every prefix:
        // out-of-order revisits so a cut point always leaves masks
        // waiting for partners.
        let observations = vec![
            obs("a", 2, 0, vec![W, W, K, K]),
            obs("a", 0, 0, vec![K, K, K, K]),
            obs("b", 1, 0, vec![N, N, W, N]),
            obs("a", 1, 0, vec![W, K, K, K]),
            obs("b", 0, 0, vec![N, N, N, N]),
            obs("a", 3, 0, vec![W, W, W, N]),
        ];
        let mut straight = ChangeDetector::new(2);
        for o in observations.clone() {
            straight.observe(o);
        }
        let want = straight.finalize().to_bytes();

        for cut in 0..=observations.len() {
            let mut first = ChangeDetector::new(2);
            for o in &observations[..cut] {
                first.observe(o.clone());
            }
            // Roundtrip the snapshot through JSON — the same encoding
            // the durable stream checkpoint uses.
            let snap = reparse(&first.snapshot().to_json());
            let mut resumed = ChangeDetector::restore(&snap);
            for o in &observations[cut..] {
                resumed.observe(o.clone());
            }
            assert_eq!(resumed.finalize().to_bytes(), want, "cut at {cut} diverged");
        }
    }

    #[test]
    fn snapshot_encoding_is_deterministic() {
        let mut det = ChangeDetector::new(2);
        det.observe(obs("a", 1, 0, vec![K, W, K, W]));
        det.observe(obs("b", 0, 3, vec![N, N, W, W]));
        let a = det.snapshot().to_json();
        let b = det.snapshot().to_json();
        assert_eq!(a, b);
        // And the roundtrip is lossless.
        let snap = reparse(&a);
        assert_eq!(ChangeDetector::restore(&snap).snapshot(), det.snapshot());
    }

    #[test]
    fn malformed_stream_checkpoints_name_the_offending_field() {
        let mut det = ChangeDetector::new(2);
        det.observe(obs("a", 1, 7, vec![K, W, K, W]));
        let good = StreamCheckpoint {
            scenes_done: 3,
            detector: det.snapshot(),
        }
        .to_json();
        assert!(StreamCheckpoint::from_json(&good).is_ok());
        // needle => replacement => what the error must say, path first
        let cases = r#"
"scenes_done":3,    =>                      => scenes_done: missing field
"scenes_done":3     => "scenes_done":-3     => scenes_done: expected an unsigned integer, got -3
"detector":{        => "detector":7,"was":{ => detector: expected an object, got 7
"tile":2            => "tile":2.5           => detector.tile: expected an unsigned integer, got 2.5
"tile":2            => "tile":3             => detector.pending[0].mask.mask: 4 pixels are not a 3x3 tile
"mask":[0,          => "mask":[             => detector.pending[0].mask.mask: 3 pixels are not a 2x2 tile
"mask":[0,          => "mask":[256,         => detector.pending[0].mask.mask[0]: 256 is out of range for u8
"mask":[0,          => "mask":[-1,          => detector.pending[0].mask.mask[0]: expected an unsigned integer, got -1
"revisit":1         => "revisit":4294967296 => detector.acc[0].revisit: 4294967296 is out of range for u32
"tile_index":7      => "tile_index":"7"     => detector.pending[0].tile_index: expected an unsigned integer, got a string
"region":"a"        => "region":null        => detector.acc[0].region: expected a string, got null
"ice_px":2,         =>                      => detector.acc[0].acc.ice_px: missing field
"diffed_prev":false => "diffed_prev":0      => detector.pending[0].mask.diffed_prev: expected a boolean, got 0
"acc":[             => "acc":[[],           => detector.acc[0]: expected an object, got an array
"#;
        for case in cases.lines().filter(|l| !l.is_empty()) {
            let cols: Vec<&str> = case.split("=>").map(str::trim).collect();
            let (from, to, path) = (cols[0], cols[1], cols[2]);
            assert!(good.contains(from), "`{from}` matches nothing in {good}");
            let e = StreamCheckpoint::from_json(&good.replacen(from, to, 1)).err();
            let e = e.unwrap_or_else(|| panic!("`{from}` -> `{to}` must not decode"));
            assert!(e.to_string().contains(path), "`{from}` -> `{to}`: {e}");
        }
        assert!(StreamCheckpoint::from_json(&"[".repeat(200_000)).is_err());
    }

    proptest::proptest! {
        #[test]
        fn stream_checkpoint_round_trips_over_the_whole_value_range(
            region in proptest::collection::vec(0u32..0x2800, 0..8),
            raw in proptest::collection::vec(any::<u64>(), 12),
            cells in 0u32..3,
            masks in 0u32..3,
            tile in 0usize..4,
        ) {
            // Control characters, quotes, backslashes and non-ASCII all
            // occur below 0x2800.
            let region: String = region.into_iter().filter_map(char::from_u32).collect();
            let acc = RevisitAcc {
                day: raw[0] as u32,
                tiles: u64::MAX,
                total_px: 0,
                ice_px: raw[1],
                thick_px: raw[2],
                water_px: raw[3],
                edge_px: raw[4],
                agree_px: raw[5],
                diffed_px: raw[6],
                changed_px: raw[7],
                opened_px: raw[8],
                closed_px: raw[9],
            };
            let mask = PendingMask {
                mask: (0..tile * tile).map(|i| (raw[10] >> (i % 8)) as u8).collect(),
                diffed_prev: raw[11] & 1 == 1,
                diffed_next: raw[11] & 2 == 2,
            };
            let ckpt = StreamCheckpoint {
                scenes_done: raw[11] as usize,
                detector: ChangeSnapshot {
                    tile,
                    acc: (0..cells)
                        .map(|i| ((region.clone(), u32::MAX - i), acc.clone()))
                        .collect(),
                    pending: (0..masks)
                        .map(|i| (region.clone(), i))
                        .map(|at| (at, BTreeMap::from([(raw[0] as u32, mask.clone())])))
                        .collect(),
                },
            };
            prop_assert_eq!(StreamCheckpoint::from_json(&ckpt.to_json())?, ckpt);
        }
    }

    #[test]
    fn skipped_revisit_does_not_diff_across_the_gap() {
        let mut det = ChangeDetector::new(1);
        det.observe(obs("a", 0, 0, vec![K]));
        det.observe(obs("a", 2, 0, vec![W]));
        let s = det.finalize();
        // Revisit 2 has no revisit-1 partner → no change signal.
        assert_eq!(s.points[1].changed_frac, 0.0);
    }
}
