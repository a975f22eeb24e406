//! Spatial noise filters: median filtering and the `f32` box blur — the
//! "noise filtering" stage of the paper's thin-cloud and shadow removal
//! pipeline — plus the Gaussian kernel SSIM weights its windows with.
//!
//! Borders are handled by clamping coordinates (OpenCV's
//! `BORDER_REPLICATE`). Scene-sized inputs run row-parallel through
//! `seaice_exec::par`.

use crate::buffer::{Image, Scratch};
use seaice_exec::par;

/// Builds a normalized 1-D Gaussian kernel of half-width `radius`.
///
/// `sigma <= 0` picks OpenCV's automatic sigma:
/// `0.3 * ((ksize - 1) * 0.5 - 1) + 0.8`.
pub fn gaussian_kernel(radius: usize, sigma: f32) -> Vec<f32> {
    let ksize = 2 * radius + 1;
    let sigma = if sigma > 0.0 {
        sigma
    } else {
        0.3 * ((ksize as f32 - 1.0) * 0.5 - 1.0) + 0.8
    };
    let denom = 2.0 * sigma * sigma;
    let mut k: Vec<f32> = (0..ksize)
        .map(|i| {
            let d = i as f32 - radius as f32;
            (-d * d / denom).exp()
        })
        .collect();
    let sum: f32 = k.iter().sum();
    for v in &mut k {
        *v /= sum;
    }
    k
}

/// Pixel count from which the median network's and the box blur's rows go
/// through [`par`] — the one exception to its fork rule (256 rows), which
/// suits every other row loop here. These two cost about a nanosecond a
/// sample: on two cores the row-parallel form measured no faster at 256²
/// and 512² (median 0.14 vs 0.13 ms, 0.42 vs 0.39 ms), 1.2–1.5× faster at
/// 1024² and 1.4–1.9× at 4096².
const CHEAP_ROWS_PAR_THRESHOLD: usize = 1024 * 1024;

/// Median of nine samples by the classic 19-exchange min/max network
/// (Paeth / Smith). A comparator network is exact on every input when it
/// is exact on all 2⁹ zero/one inputs; the unit tests check those.
#[inline(always)]
fn median9(mut p: [u8; 9]) -> u8 {
    macro_rules! sort2 {
        ($($a:literal $b:literal)*) => {$(
            (p[$a], p[$b]) = (p[$a].min(p[$b]), p[$a].max(p[$b]));
        )*};
    }
    sort2!(1 2  4 5  7 8  0 1  3 4  6 7  1 2  4 5  7 8  0 3);
    sort2!(5 8  4 7  3 6  1 4  2 5  4 7  4 2  6 4  4 2);
    p[4]
}

/// One output row of the radius-1 median over flat interleaved rows of
/// `c` channels: the horizontal neighbours of sample `i` are `i - c` and
/// `i + c`, so the interior is one branch-free loop over three shifted
/// views of each source row (it auto-vectorises to byte min/max), and the
/// two border columns run the same network on replicated samples.
fn median3x3_row(up: &[u8], mid: &[u8], down: &[u8], dst: &mut [u8], c: usize) {
    let n = dst.len();
    let at = |l: usize, i: usize, r: usize| {
        median9([
            up[l], up[i], up[r], mid[l], mid[i], mid[r], down[l], down[i], down[r],
        ])
    };
    for ch in 0..c {
        dst[ch] = at(ch, ch, ch + c);
        let i = n - c + ch;
        dst[i] = at(i - c, i, i);
    }
    let inner = n - 2 * c;
    let [(ul, um, ur), (ml, mm, mr), (dl, dm, dr)] =
        [up, mid, down].map(|r| (&r[..inner], &r[c..n - c], &r[2 * c..]));
    for (i, d) in dst[c..n - c].iter_mut().enumerate() {
        *d = median9([
            ul[i], um[i], ur[i], ml[i], mm[i], mr[i], dl[i], dm[i], dr[i],
        ]);
    }
}

/// One output row of the median by selection over the clamped window: the
/// path for radius ≥ 2 and for images too narrow for [`median3x3_row`].
fn median_select_row(src: &Image<u8>, radius: usize, y: usize, dst_row: &mut [u8]) {
    let (w, h) = src.dimensions();
    let c = src.channels();
    // One histogram-free window buffer reused per row (small kernels).
    let mut window = Vec::with_capacity((2 * radius + 1) * (2 * radius + 1));
    for x in 0..w {
        for ch in 0..c {
            window.clear();
            for dy in 0..=2 * radius {
                let sy = (y + dy).saturating_sub(radius).min(h - 1);
                for dx in 0..=2 * radius {
                    let sx = (x + dx).saturating_sub(radius).min(w - 1);
                    window.push(src.pixel(sx, sy)[ch]);
                }
            }
            let mid = window.len() / 2;
            let (_, med, _) = window.select_nth_unstable(mid);
            dst_row[x * c + ch] = *med;
        }
    }
}

/// Median filter over a `(2 * radius + 1)²` neighbourhood, per channel,
/// with replicated borders — OpenCV's `medianBlur`.
///
/// Radius 1 on images at least 3 pixels wide runs a 9-element min/max
/// exchange network (an exact order statistic, so bit-identical to the
/// selection); narrower images and radius ≥ 2 take the selection loop.
pub fn median_filter(src: &Image<u8>, radius: usize) -> Image<u8> {
    let mut out = Image::<u8>::new(src.width(), src.height(), src.channels());
    median_filter_into(src, radius, &mut out);
    out
}

/// [`median_filter`] into a caller-provided image of the same shape
/// (batch callers hand in a pooled buffer).
///
/// # Panics
/// Panics if `out`'s shape differs from `src`'s.
pub fn median_filter_into(src: &Image<u8>, radius: usize, out: &mut Image<u8>) {
    let (w, h) = src.dimensions();
    let c = src.channels();
    assert_eq!((out.dimensions(), out.channels()), ((w, h), c));
    if radius == 0 || w == 0 || h == 0 {
        out.as_mut_slice().copy_from_slice(src.as_slice());
        return;
    }
    let network = radius == 1 && w >= 3;
    let run_row = |y: usize, dst_row: &mut [u8]| {
        if network {
            let (up, down) = (src.row(y.saturating_sub(1)), src.row((y + 1).min(h - 1)));
            median3x3_row(up, src.row(y), down, dst_row, c);
        } else {
            median_select_row(src, radius, y, dst_row);
        }
    };
    if network && w * h < CHEAP_ROWS_PAR_THRESHOLD {
        for (y, dst_row) in out.as_mut_slice().chunks_exact_mut(w * c).enumerate() {
            run_row(y, dst_row);
        }
    } else {
        par::chunks_mut(out.as_mut_slice(), w * c, run_row);
    }
}

/// `-radius..=radius` clamped into `0..len`, in order.
fn clamped_window(len: usize, radius: usize) -> impl Iterator<Item = usize> {
    (0..=2 * radius).map(move |i| i.saturating_sub(radius).min(len - 1))
}

/// Rows the horizontal blur pass advances side by side.
const BLOCK: usize = 8;

/// Horizontal box-blur pass over a block of up to `BLOCK` rows of width
/// `w` (`dst` as long as `src`). The rows are transposed into `cols`,
/// `[x][row]`, so that their running `f64` sums advance as the lanes of one
/// vector while each row still adds and subtracts its own samples in index
/// order and emits `sum / win` — a row's bits do not depend on the block
/// it sits in. A short block repeats its last row in the spare lanes and
/// drops them.
fn box_blur_rows(src: &[f32], dst: &mut [f32], w: usize, radius: usize, cols: &mut Vec<Column>) {
    // Every block of a call is `w` wide, so this grows `cols` once.
    cols.resize(w, ([0.0; BLOCK], [0.0; BLOCK]));
    let last = src.len() / w - 1;
    let rows: [&[f32]; BLOCK] = std::array::from_fn(|k| &src[k.min(last) * w..][..w]);
    for (x, (samples, _)) in cols.iter_mut().enumerate() {
        for k in 0..BLOCK {
            samples[k] = rows[k][x];
        }
    }
    let win = (2 * radius + 1) as f64;
    let mut sum = [0f64; BLOCK];
    for i in clamped_window(w, radius) {
        for (s, &v) in sum.iter_mut().zip(&cols[i].0) {
            *s += v as f64;
        }
    }
    for x in 0..w {
        let (add, sub) = (
            cols[(x + radius + 1).min(w - 1)].0,
            cols[x.saturating_sub(radius)].0,
        );
        let mean = &mut cols[x].1;
        for k in 0..BLOCK {
            mean[k] = (sum[k] / win) as f32;
            sum[k] += add[k] as f64;
            sum[k] -= sub[k] as f64;
        }
    }
    for (k, row) in dst.chunks_exact_mut(w).enumerate() {
        for (d, (_, mean)) in row.iter_mut().zip(cols.iter()) {
            *d = mean[k];
        }
    }
}

/// One column of a [`box_blur_rows`] block: the rows' samples and their
/// means. The samples stay `f32` until they are added: an `f64` copy
/// doubles what the transposition writes, and measured slower.
type Column = ([f32; BLOCK], [f32; BLOCK]);

/// Sliding-window box blur of one plane into `out`, through `tmp`.
///
/// Both passes keep a running `f64` sum over clamped coordinates and emit
/// `sum / win`: the horizontal pass over blocks of `BLOCK` rows (through
/// [`par`] for scene-sized images), the vertical pass streaming rows over
/// one sum per column. Per row and per column the adds and subtracts
/// happen in index order, so the bits do not depend on how the rows are
/// blocked.
fn box_blur_plane(
    src: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    (w, h): (usize, usize),
    radius: usize,
) {
    let block = BLOCK * w;
    let mut cols = Vec::new();
    let rows = |b: usize, dst: &mut [f32], cols: &mut Vec<_>| {
        box_blur_rows(&src[b * block..][..dst.len()], dst, w, radius, cols)
    };
    if w * h >= CHEAP_ROWS_PAR_THRESHOLD {
        par::chunks_mut(tmp, block, |b, dst| rows(b, dst, &mut Vec::new()));
        // `chunks_mut` leaves a last, short block to the caller.
        let done = h / BLOCK;
        if done * BLOCK < h {
            rows(done, &mut tmp[done * block..], &mut cols);
        }
    } else {
        for (b, dst) in tmp.chunks_mut(block).enumerate() {
            rows(b, dst, &mut cols);
        }
    }

    let win = (2 * radius + 1) as f64;
    let mut sum = vec![0f64; w];
    for y in clamped_window(h, radius) {
        for (s, &v) in sum.iter_mut().zip(&tmp[y * w..(y + 1) * w]) {
            *s += v as f64;
        }
    }
    for (y, dst) in out.chunks_exact_mut(w).enumerate() {
        let (add, sub) = ((y + radius + 1).min(h - 1), y.saturating_sub(radius));
        let (add, sub) = (&tmp[add * w..][..w], &tmp[sub * w..][..w]);
        for (((d, s), &a), &b) in dst.iter_mut().zip(sum.iter_mut()).zip(add).zip(sub) {
            *d = (*s / win) as f32;
            *s += a as f64;
            *s -= b as f64;
        }
    }
}

/// Box (mean) blur over an `f32` plane with replicated borders, using a
/// sliding-window running sum so the cost is O(pixels) regardless of
/// radius. Large radii are common when smoothing estimated illumination /
/// haze fields. The horizontal pass runs blocks of rows and the vertical
/// pass streams the rows over one running sum per column.
///
/// # Panics
/// Panics if `src` is not single-channel.
pub fn box_blur_f32(src: &Image<f32>, radius: usize) -> Image<f32> {
    assert_eq!(
        src.channels(),
        1,
        "box_blur_f32 expects a single-channel image"
    );
    let (w, h) = src.dimensions();
    if radius == 0 || w == 0 || h == 0 {
        return src.clone();
    }
    let mut out = Image::<f32>::new(w, h, 1);
    let mut tmp = vec![0f32; w * h];
    box_blur_plane(src.as_slice(), &mut tmp, out.as_mut_slice(), (w, h), radius);
    out
}

/// [`box_blur_f32`] of two same-shape planes (a weighted field and its
/// weights) through one intermediate. The results and the intermediate
/// are drawn from `scratch`.
///
/// # Panics
/// Panics if the planes are not single-channel or differ in shape.
pub fn box_blur_f32_pair(
    a: &Image<f32>,
    b: &Image<f32>,
    radius: usize,
    scratch: &mut Scratch,
) -> (Image<f32>, Image<f32>) {
    assert_eq!((a.channels(), b.channels()), (1, 1), "expected planes");
    assert_eq!(a.dimensions(), b.dimensions(), "image size mismatch");
    let (w, h) = a.dimensions();
    let mut out = (
        scratch.take_image_f32(w, h, 1),
        scratch.take_image_f32(w, h, 1),
    );
    if radius == 0 || w == 0 || h == 0 {
        out.0.as_mut_slice().copy_from_slice(a.as_slice());
        out.1.as_mut_slice().copy_from_slice(b.as_slice());
        return out;
    }
    let mut tmp = scratch.take_f32(w * h);
    box_blur_plane(a.as_slice(), &mut tmp, out.0.as_mut_slice(), (w, h), radius);
    box_blur_plane(b.as_slice(), &mut tmp, out.1.as_mut_slice(), (w, h), radius);
    scratch.recycle_f32(tmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The column-wise `box_blur_f32` this module shipped before the
    /// row-streamed one, kept as the bit-identity reference.
    fn box_blur_f32_columns(src: &Image<f32>, radius: usize) -> Image<f32> {
        let (w, h) = src.dimensions();
        let win = 2 * radius + 1;
        let r = radius as isize;
        let mut tmp = vec![0f32; w * h];
        for (y, dst) in tmp.chunks_exact_mut(w).enumerate() {
            let row = src.row(y);
            let at = |x: isize| row[x.clamp(0, w as isize - 1) as usize];
            let mut sum: f64 = 0.0;
            for i in -r..=r {
                sum += at(i) as f64;
            }
            for (x, d) in dst.iter_mut().enumerate() {
                *d = (sum / win as f64) as f32;
                sum += at(x as isize + r + 1) as f64;
                sum -= at(x as isize - r) as f64;
            }
        }
        let mut out = Image::<f32>::new(w, h, 1);
        let col = |x: usize, y: isize| tmp[(y.clamp(0, h as isize - 1) as usize) * w + x];
        for x in 0..w {
            let mut sum: f64 = 0.0;
            for i in -r..=r {
                sum += col(x, i) as f64;
            }
            for y in 0..h {
                out.set(x, y, (sum / win as f64) as f32);
                sum += col(x, y as isize + r + 1) as f64;
                sum -= col(x, y as isize - r) as f64;
            }
        }
        out
    }

    fn bits(img: &Image<f32>) -> Vec<u32> {
        img.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn median9_is_exact_on_every_zero_one_input() {
        // The 0-1 principle: a comparator network that selects the median
        // of all 2^9 binary inputs selects it for every input.
        for m in 0u32..512 {
            let p: [u8; 9] = std::array::from_fn(|i| (m >> i & 1) as u8);
            assert_eq!(median9(p), (m.count_ones() >= 5) as u8, "input {m:09b}");
        }
    }

    #[test]
    fn median3x3_matches_the_selection_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(12);
        for w in [1usize, 2, 3, 4, 5, 8, 17, 64] {
            for h in [1usize, 2, 3, 9] {
                for c in [1usize, 3] {
                    for kind in 0..3 {
                        let img = Image::from_fn(w, h, c, |x, y| {
                            (0..c)
                                .map(|ch| match kind {
                                    0 => 77,
                                    1 => (x * 5 + y * 3 + ch) as u8,
                                    _ => rng.random::<u8>(),
                                })
                                .collect()
                        });
                        let mut selected = Image::<u8>::new(w, h, c);
                        for y in 0..h {
                            median_select_row(&img, 1, y, selected.row_mut(y));
                        }
                        // `w < 3` must take the selection path itself: the
                        // network's row kernel cannot index such rows.
                        assert_eq!(median_filter(&img, 1), selected, "{w}x{h}x{c} kind {kind}");
                    }
                }
            }
        }
    }

    #[test]
    fn row_streamed_box_blur_is_bit_identical_to_the_column_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut scratch = Scratch::new();
        // Heights around the 8-row block of the horizontal pass, and one
        // image past `CHEAP_ROWS_PAR_THRESHOLD` with enough blocks (256) for
        // `par` to fork them, plus a short last block.
        let sizes = [(1usize, 1usize), (1, 7), (7, 1), (8, 8), (13, 5), (40, 33)];
        let blocked = [(5, 9), (3, 17), (6, 257), (512, 2049)];
        const { assert!(512 * 2049 >= CHEAP_ROWS_PAR_THRESHOLD) };
        for (w, h) in sizes.into_iter().chain(blocked) {
            let a = Image::from_fn(w, h, 1, |_, _| vec![rng.random_range(-3.0f32..900.0)]);
            let b = Image::from_fn(w, h, 1, |x, _| vec![(x % 3) as f32 * rng.random::<f32>()]);
            for radius in [0usize, 1, 2, 7, 100, w.max(h)] {
                let expected = if radius == 0 {
                    (a.clone(), b.clone())
                } else {
                    (
                        box_blur_f32_columns(&a, radius),
                        box_blur_f32_columns(&b, radius),
                    )
                };
                assert_eq!(
                    bits(&box_blur_f32(&a, radius)),
                    bits(&expected.0),
                    "{w}x{h} r{radius}"
                );
                // Paired, out of a pool whose buffers hold the last round.
                let (pa, pb) = box_blur_f32_pair(&a, &b, radius, &mut scratch);
                assert_eq!(bits(&pa), bits(&expected.0), "pair.0 {w}x{h} r{radius}");
                assert_eq!(bits(&pb), bits(&expected.1), "pair.1 {w}x{h} r{radius}");
                scratch.recycle_image_f32(pa);
                scratch.recycle_image_f32(pb);
            }
        }
    }

    #[test]
    fn scene_sized_inputs_take_the_row_parallel_branch_bit_identically() {
        let side = 1024;
        assert!(side * side >= CHEAP_ROWS_PAR_THRESHOLD);
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let img = Image::from_fn(side, side, 1, |_, _| vec![rng.random::<u8>()]);
        let mut selected = Image::<u8>::new(side, side, 1);
        for y in 0..side {
            median_select_row(&img, 1, y, selected.row_mut(y));
        }
        assert_eq!(median_filter(&img, 1), selected);

        let a = img.map(|v| v as f32 * 1.7 - 3.0);
        let b = Image::from_fn(side, side, 1, |_, _| vec![rng.random::<f32>()]);
        let (pa, pb) = box_blur_f32_pair(&a, &b, 9, &mut Scratch::new());
        assert_eq!(bits(&pa), bits(&box_blur_f32_columns(&a, 9)));
        assert_eq!(bits(&pb), bits(&box_blur_f32_columns(&b, 9)));
        assert_eq!(bits(&box_blur_f32(&a, 9)), bits(&pa));
    }

    #[test]
    fn gaussian_kernel_is_normalized_and_symmetric() {
        let k = gaussian_kernel(3, 1.2);
        assert_eq!(k.len(), 7);
        let sum: f32 = k.iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
        for i in 0..3 {
            assert!((k[i] - k[6 - i]).abs() < 1e-6);
        }
        assert!(k[3] >= k[2] && k[2] >= k[1] && k[1] >= k[0]);
    }

    #[test]
    fn median_removes_salt_noise() {
        let mut img = Image::<u8>::new(7, 7, 1);
        for y in 0..7 {
            for x in 0..7 {
                img.set(x, y, 100);
            }
        }
        img.set(3, 3, 255); // isolated impulse
        let out = median_filter(&img, 1);
        assert_eq!(out.get(3, 3), 100);
    }

    #[test]
    fn median_preserves_step_edge() {
        let mut img = Image::<u8>::new(8, 8, 1);
        for y in 0..8 {
            for x in 4..8 {
                img.set(x, y, 200);
            }
        }
        let out = median_filter(&img, 1);
        assert_eq!(out.get(1, 4), 0);
        assert_eq!(out.get(6, 4), 200);
    }

    #[test]
    fn radius_zero_is_identity() {
        let img = Image::from_vec(3, 1, 1, vec![1u8, 2, 3]);
        assert_eq!(median_filter(&img, 0), img);
    }

    #[test]
    fn box_blur_f32_matches_naive_mean() {
        let img = Image::from_fn(10, 6, 1, |x, y| {
            vec![(x as f32 * 1.5 + y as f32 * 0.25).sin()]
        });
        let r = 2usize;
        let out = box_blur_f32(&img.map(|v| v), r);
        // Naive reference at an interior pixel.
        let (cx, cy) = (5usize, 3usize);
        let mut acc = 0f64;
        for dy in -(r as isize)..=(r as isize) {
            for dx in -(r as isize)..=(r as isize) {
                let sx = (cx as isize + dx).clamp(0, 9) as usize;
                let sy = (cy as isize + dy).clamp(0, 5) as usize;
                acc += img.get(sx, sy) as f64;
            }
        }
        let expected = (acc / 25.0) as f32;
        assert!((out.get(cx, cy) - expected).abs() < 1e-4);
    }

    #[test]
    fn box_blur_f32_constant_is_fixed_point() {
        let mut img = Image::<f32>::new(20, 20, 1);
        img.fill(&[3.25]);
        let out = box_blur_f32(&img, 7);
        assert!(out.as_slice().iter().all(|&v| (v - 3.25).abs() < 1e-5));
    }

    #[test]
    fn box_blur_f32_large_radius_converges_to_mean() {
        let img = Image::from_fn(8, 8, 1, |x, _| vec![x as f32]);
        let out = box_blur_f32(&img, 100);
        // With replication the exact value differs from the plain mean, but
        // every output must be strictly inside the input range and flat-ish.
        let spread = out
            .as_slice()
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(mn, mx), &v| {
                (mn.min(v), mx.max(v))
            });
        assert!(spread.1 - spread.0 < 3.0);
    }
}
