//! Connected-component labeling of binary masks (4- or 8-connectivity),
//! with per-component statistics — the substrate for lead (crack)
//! analysis on open-water masks.

use crate::buffer::Image;

/// Pixel connectivity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Connectivity {
    /// Edge-adjacent neighbours only.
    Four,
    /// Edge- and corner-adjacent neighbours.
    Eight,
}

/// Statistics of one connected component.
#[derive(Clone, Debug, PartialEq)]
pub struct Component {
    /// Component label (≥ 1; 0 is background).
    pub label: u32,
    /// Pixel count.
    pub area: usize,
    /// Bounding box `(x0, y0, x1, y1)`, inclusive.
    pub bbox: (usize, usize, usize, usize),
    /// Centroid `(x, y)`.
    pub centroid: (f64, f64),
}

impl Component {
    /// Bounding-box width in pixels.
    pub fn width(&self) -> usize {
        self.bbox.2 - self.bbox.0 + 1
    }

    /// Bounding-box height in pixels.
    pub fn height(&self) -> usize {
        self.bbox.3 - self.bbox.1 + 1
    }
}

/// Labels connected components of the nonzero pixels of a single-channel
/// mask. Returns the label image (`u32`, 0 = background) and per-component
/// statistics sorted by descending area.
///
/// Uses a two-pass union-find, O(pixels · α).
///
/// # Panics
/// Panics if `mask` is not single-channel.
pub fn connected_components(
    mask: &Image<u8>,
    connectivity: Connectivity,
) -> (Image<u32>, Vec<Component>) {
    assert_eq!(mask.channels(), 1, "expected a single-channel mask");
    let (w, h) = mask.dimensions();
    let mut labels = Image::<u32>::new(w, h, 1);
    if w == 0 || h == 0 {
        return (labels, Vec::new());
    }

    // Union-find over provisional labels.
    let mut parent: Vec<u32> = vec![0]; // parent[0] = background sentinel
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let gp = parent[parent[x as usize] as usize];
            parent[x as usize] = gp;
            x = gp;
        }
        x
    }
    fn union(parent: &mut [u32], a: u32, b: u32) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
        }
    }

    // First pass: provisional labels from already-visited neighbours.
    for y in 0..h {
        for x in 0..w {
            if mask.get(x, y) == 0 {
                continue;
            }
            let mut neighbours: [Option<u32>; 4] = [None; 4];
            let mut k = 0;
            if x > 0 && mask.get(x - 1, y) != 0 {
                neighbours[k] = Some(labels.get(x - 1, y));
                k += 1;
            }
            if y > 0 && mask.get(x, y - 1) != 0 {
                neighbours[k] = Some(labels.get(x, y - 1));
                k += 1;
            }
            if connectivity == Connectivity::Eight && y > 0 {
                if x > 0 && mask.get(x - 1, y - 1) != 0 {
                    neighbours[k] = Some(labels.get(x - 1, y - 1));
                    k += 1;
                }
                if x + 1 < w && mask.get(x + 1, y - 1) != 0 {
                    neighbours[k] = Some(labels.get(x + 1, y - 1));
                    k += 1;
                }
            }
            let assigned = match neighbours[..k].iter().flatten().copied().min() {
                Some(mn) => {
                    for n in neighbours[..k].iter().flatten() {
                        union(&mut parent, mn, *n);
                    }
                    mn
                }
                None => {
                    let fresh = parent.len() as u32;
                    parent.push(fresh);
                    fresh
                }
            };
            labels.set(x, y, assigned);
        }
    }

    // Second pass: resolve to root labels, compact to 1..=n, accumulate
    // statistics.
    let mut compact: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    let mut stats: Vec<Component> = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let l = labels.get(x, y);
            if l == 0 {
                continue;
            }
            let root = find(&mut parent, l);
            let next_id = compact.len() as u32 + 1;
            let id = *compact.entry(root).or_insert(next_id);
            labels.set(x, y, id);
            if id as usize > stats.len() {
                stats.push(Component {
                    label: id,
                    area: 0,
                    bbox: (x, y, x, y),
                    centroid: (0.0, 0.0),
                });
            }
            let c = &mut stats[id as usize - 1];
            c.area += 1;
            c.bbox.0 = c.bbox.0.min(x);
            c.bbox.1 = c.bbox.1.min(y);
            c.bbox.2 = c.bbox.2.max(x);
            c.bbox.3 = c.bbox.3.max(y);
            c.centroid.0 += x as f64;
            c.centroid.1 += y as f64;
        }
    }
    for c in &mut stats {
        c.centroid.0 /= c.area as f64;
        c.centroid.1 /= c.area as f64;
    }
    stats.sort_by(|a, b| b.area.cmp(&a.area).then(a.label.cmp(&b.label)));
    (labels, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mask_from(rows: &[&str]) -> Image<u8> {
        let h = rows.len();
        let w = rows[0].len();
        let mut m = Image::<u8>::new(w, h, 1);
        for (y, row) in rows.iter().enumerate() {
            for (x, ch) in row.bytes().enumerate() {
                if ch == b'#' {
                    m.set(x, y, 255);
                }
            }
        }
        m
    }

    #[test]
    fn two_separate_blobs() {
        let m = mask_from(&["##..", "##..", "...#", "...#"]);
        let (_, comps) = connected_components(&m, Connectivity::Four);
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].area, 4);
        assert_eq!(comps[1].area, 2);
        assert_eq!(comps[0].bbox, (0, 0, 1, 1));
    }

    #[test]
    fn diagonal_touch_depends_on_connectivity() {
        let m = mask_from(&["#.", ".#"]);
        let (_, four) = connected_components(&m, Connectivity::Four);
        assert_eq!(four.len(), 2);
        let (_, eight) = connected_components(&m, Connectivity::Eight);
        assert_eq!(eight.len(), 1);
    }

    #[test]
    fn u_shape_merges_via_union_find() {
        // The two arms meet at the bottom only — first pass gives them
        // different provisional labels that union-find must merge.
        let m = mask_from(&["#.#", "#.#", "###"]);
        let (labels, comps) = connected_components(&m, Connectivity::Four);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 7);
        assert_eq!(labels.get(0, 0), labels.get(2, 0));
    }

    #[test]
    fn empty_mask_yields_nothing() {
        let m = Image::<u8>::new(4, 4, 1);
        let (_, comps) = connected_components(&m, Connectivity::Eight);
        assert!(comps.is_empty());
    }

    #[test]
    fn full_mask_is_one_component() {
        let mut m = Image::<u8>::new(5, 3, 1);
        m.fill(&[1]);
        let (_, comps) = connected_components(&m, Connectivity::Four);
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].area, 15);
        assert_eq!(comps[0].bbox, (0, 0, 4, 2));
        let (cx, cy) = comps[0].centroid;
        assert!((cx - 2.0).abs() < 1e-9 && (cy - 1.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_dense_from_one() {
        let m = mask_from(&["#.#.#"]);
        let (labels, comps) = connected_components(&m, Connectivity::Four);
        assert_eq!(comps.len(), 3);
        let mut seen: Vec<u32> = labels
            .as_slice()
            .iter()
            .copied()
            .filter(|&l| l > 0)
            .collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
