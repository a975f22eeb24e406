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

/// Interior samples per run of [`median3x3_row`]'s network loop.
const RUN: usize = 64;

/// The network on the 3×3 window of `rows` whose columns are `l`, `i`, `r`.
#[inline(always)]
fn median3x3_at([u, m, d]: [&[u8]; 3], l: usize, i: usize, r: usize) -> u8 {
    median9([u[l], u[i], u[r], m[l], m[i], m[r], d[l], d[i], d[r]])
}

/// The network over `dst.len()` interior samples of `rows`, from sample
/// `l` on (`c` samples to a pixel).
#[inline(always)]
fn median3x3_run([u, m, d]: [&[u8]; 3], l: usize, c: usize, dst: &mut [u8]) {
    let (n, i, r) = (dst.len(), l + c, l + 2 * c);
    let (ul, um, ur) = (&u[l..][..n], &u[i..][..n], &u[r..][..n]);
    let (ml, mm, mr) = (&m[l..][..n], &m[i..][..n], &m[r..][..n]);
    let (dl, dm, dr) = (&d[l..][..n], &d[i..][..n], &d[r..][..n]);
    for (i, d) in dst.iter_mut().enumerate() {
        *d = median9([
            ul[i], um[i], ur[i], ml[i], mm[i], mr[i], dl[i], dm[i], dr[i],
        ]);
    }
}

/// Output row `y` of the radius-1 median over flat interleaved rows of
/// `c` channels: the horizontal neighbours of sample `i` are `i - c` and
/// `i + c`, so the interior is branch-free runs over three shifted views
/// of each source row (they vectorise to byte min/max), and the two border
/// columns run the same network on replicated samples. The runs are `RUN`
/// long, so no scalar tail is left: the last one overlaps the one before.
#[inline(always)]
fn median3x3_row(src: &Image<u8>, y: usize, dst: &mut [u8]) {
    let (n, c) = (dst.len(), src.channels());
    let (up, down) = (y.saturating_sub(1), (y + 1).min(src.height() - 1));
    let rows = [src.row(up), src.row(y), src.row(down)];
    for ch in 0..c {
        dst[ch] = median3x3_at(rows, ch, ch, ch + c);
        let i = n - c + ch;
        dst[i] = median3x3_at(rows, i - c, i, i);
    }
    let inner = &mut dst[c..n - c];
    if inner.len() < RUN {
        return median3x3_run(rows, 0, c, inner);
    }
    let last = inner.len() - RUN;
    for l in (0..last).step_by(RUN).chain([last]) {
        median3x3_run(rows, l, c, &mut inner[l..][..RUN]);
    }
}

/// [`median_filter_into`]'s tile path: the radius-1 network over the rows
/// of `src` (at least 3 pixels wide), one after the other. A body to
/// compile again at a wider ISA, so every loop it runs is inlined into it.
#[inline(always)]
pub fn median3x3_tile(src: &Image<u8>, out: &mut [u8]) {
    let row = src.width() * src.channels();
    for (y, dst) in out.chunks_exact_mut(row).enumerate() {
        median3x3_row(src, y, dst);
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
    median_filter_into(src, radius, &mut out, median3x3_tile);
    out
}

/// [`median3x3_tile`], or the same body compiled for a wider ISA.
pub type MedianTile = fn(&Image<u8>, &mut [u8]);

/// [`median_filter`] into a caller-provided image of the same shape
/// (batch callers hand in a pooled buffer), running `tile` for tile-sized
/// images at radius 1.
///
/// # Panics
/// Panics if `out`'s shape differs from `src`'s.
pub fn median_filter_into(src: &Image<u8>, radius: usize, out: &mut Image<u8>, tile: MedianTile) {
    let (w, h) = src.dimensions();
    let c = src.channels();
    assert_eq!((out.dimensions(), out.channels()), ((w, h), c));
    if radius == 0 || w == 0 || h == 0 {
        out.as_mut_slice().copy_from_slice(src.as_slice());
        return;
    }
    let network = radius == 1 && w >= 3;
    if network && w * h < CHEAP_ROWS_PAR_THRESHOLD {
        return tile(src, out.as_mut_slice());
    }
    par::chunks_mut(out.as_mut_slice(), w * c, |y, dst_row| {
        if network {
            median3x3_row(src, y, dst_row);
        } else {
            median_select_row(src, radius, y, dst_row);
        }
    });
}

/// `-radius..=radius` clamped into `0..len`, in order.
#[inline(always)]
fn clamped_window(len: usize, radius: usize) -> impl Iterator<Item = usize> {
    (0..=2 * radius).map(move |i| i.saturating_sub(radius).min(len - 1))
}

/// Rows the horizontal blur pass advances side by side.
pub const BLUR_BLOCK: usize = 16;

/// A block of rows at one `x`: a sample or a mean of each row.
pub type BlurColumn = [f32; BLUR_BLOCK];

/// The means of a block of rows at `BLUR_BLOCK` consecutive `x`, `[x][row]`.
pub type BlurMeans = [BlurColumn; BLUR_BLOCK];

/// Fills `cols[from..]` from the block's `rows`, one sample at a time.
#[inline(always)]
pub fn blur_columns_in(rows: &[&[f32]; BLUR_BLOCK], cols: &mut [BlurColumn], from: usize) {
    for (x, samples) in (from..).zip(&mut cols[from..]) {
        for k in 0..BLUR_BLOCK {
            samples[k] = rows[k][x];
        }
    }
}

/// Writes `means[from..n]`, the means at `x0 + from..x0 + n`, into the
/// block's rows of `dst` (rows of `w`), one sample at a time.
#[inline(always)]
pub fn blur_means_out(
    means: &BlurMeans,
    (from, n): (usize, usize),
    x0: usize,
    w: usize,
    dst: &mut [f32],
) {
    for (k, row) in dst.chunks_exact_mut(w).enumerate() {
        for (d, mean) in row[x0 + from..x0 + n].iter_mut().zip(&means[from..n]) {
            *d = mean[k];
        }
    }
}

/// Horizontal box-blur pass over rows of width `w` (`dst` as long as
/// `src`), in blocks of `BLUR_BLOCK` rows transposed into `[x][row]`
/// columns: `way_in` fills the columns from the block's rows (a short block
/// repeats its last row), their running `f64` sums advance as the lanes of
/// one vector while each row adds and subtracts its own samples in index
/// order and emits `sum / win`, and `way_out(means, x0, n, dst)` writes the
/// means at `x0..x0 + n` back into the block's rows of `dst`, `BLUR_BLOCK`
/// of them at a time (fewer at the end of a row). So a row's bits depend
/// neither on its block nor on how it is transposed.
#[inline(always)]
pub fn box_blur_rows_by(
    src: &[f32],
    dst: &mut [f32],
    w: usize,
    radius: usize,
    mut way_in: impl FnMut(&[&[f32]; BLUR_BLOCK], &mut [BlurColumn]),
    mut way_out: impl FnMut(&BlurMeans, usize, usize, &mut [f32]),
) {
    // The samples stay `f32` until they are added: an `f64` copy doubles
    // what the transposition writes, and measured slower.
    let mut cols = vec![[0f32; BLUR_BLOCK]; w];
    let mut means = [[0f32; BLUR_BLOCK]; BLUR_BLOCK];
    let win = (2 * radius + 1) as f64;
    for (src, dst) in src
        .chunks(BLUR_BLOCK * w)
        .zip(dst.chunks_mut(BLUR_BLOCK * w))
    {
        let last = src.len() / w - 1;
        let mut rows = [src; BLUR_BLOCK];
        for (k, row) in rows.iter_mut().enumerate() {
            *row = &src[k.min(last) * w..][..w];
        }
        way_in(&rows, &mut cols);
        let mut sum = [0f64; BLUR_BLOCK];
        for i in clamped_window(w, radius) {
            for (s, &v) in sum.iter_mut().zip(&cols[i]) {
                *s += v as f64;
            }
        }
        for x0 in (0..w).step_by(BLUR_BLOCK) {
            let n = BLUR_BLOCK.min(w - x0);
            for (x, mean) in (x0..x0 + n).zip(&mut means) {
                let add = cols[(x + radius + 1).min(w - 1)];
                let sub = cols[x.saturating_sub(radius)];
                for k in 0..BLUR_BLOCK {
                    mean[k] = (sum[k] / win) as f32;
                    sum[k] += add[k] as f64;
                    sum[k] -= sub[k] as f64;
                }
            }
            way_out(&means, x0, n, dst);
        }
    }
}

/// [`box_blur_rows_by`] with the scalar transpositions.
#[inline(always)]
fn box_blur_rows(src: &[f32], dst: &mut [f32], w: usize, radius: usize) {
    box_blur_rows_by(
        src,
        dst,
        w,
        radius,
        |rows, cols| blur_columns_in(rows, cols, 0),
        |means, x0, n, dst| blur_means_out(means, (0, n), x0, w, dst),
    );
}

/// Vertical box-blur pass of `tmp` into `out`: the rows stream over one
/// running `f64` sum per column, which emits `sum / win`.
#[inline(always)]
pub fn box_blur_columns(tmp: &[f32], out: &mut [f32], (w, h): (usize, usize), radius: usize) {
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

/// The tile path of a plane's box blur, to compile again at a wider ISA
/// (every loop it runs is inlined into it).
#[inline(always)]
pub fn box_blur_tile(
    src: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    (w, h): (usize, usize),
    radius: usize,
) {
    box_blur_rows(src, tmp, w, radius);
    box_blur_columns(tmp, out, (w, h), radius);
}

/// Box blur of one plane into `out` through `tmp`: by `tile` for tile-sized
/// planes, else with the horizontal pass's blocks forked through [`par`].
fn box_blur_plane(
    src: &[f32],
    tmp: &mut [f32],
    out: &mut [f32],
    (w, h): (usize, usize),
    radius: usize,
    tile: BlurTile,
) {
    if w * h < CHEAP_ROWS_PAR_THRESHOLD {
        return tile(src, tmp, out, (w, h), radius);
    }
    let block = BLUR_BLOCK * w;
    par::chunks_mut(tmp, block, |b, dst| {
        box_blur_rows(&src[b * block..][..block], dst, w, radius);
    });
    // `chunks_mut` leaves a last, short block to the caller.
    let done = h / BLUR_BLOCK * block;
    box_blur_rows(&src[done..], &mut tmp[done..], w, radius);
    box_blur_columns(tmp, out, (w, h), radius);
}

/// [`box_blur_tile`], or the same body compiled for a wider ISA.
pub type BlurTile = fn(&[f32], &mut [f32], &mut [f32], (usize, usize), usize);

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
    let (src, dst) = (src.as_slice(), out.as_mut_slice());
    box_blur_plane(src, &mut tmp, dst, (w, h), radius, box_blur_tile);
    out
}

/// [`box_blur_f32`] of two same-shape planes (a weighted field and its
/// weights) through one intermediate, running `tile` for tile-sized ones.
/// The results and the intermediate are drawn from `scratch`.
///
/// # Panics
/// Panics if the planes are not single-channel or differ in shape.
pub fn box_blur_f32_pair(
    a: &Image<f32>,
    b: &Image<f32>,
    radius: usize,
    scratch: &mut Scratch,
    tile: BlurTile,
) -> (Image<f32>, Image<f32>) {
    assert_eq!((a.channels(), b.channels()), (1, 1), "expected planes");
    assert_eq!(a.dimensions(), b.dimensions(), "image size mismatch");
    let (w, h) = a.dimensions();
    let mut out = (
        scratch.take_image_f32_for_overwrite(w, h, 1),
        scratch.take_image_f32_for_overwrite(w, h, 1),
    );
    if radius == 0 || w == 0 || h == 0 {
        out.0.as_mut_slice().copy_from_slice(a.as_slice());
        out.1.as_mut_slice().copy_from_slice(b.as_slice());
        return out;
    }
    let mut tmp = scratch.take_image_f32_for_overwrite(w, h, 1);
    for (src, dst) in [(a, &mut out.0), (b, &mut out.1)] {
        let (src, dst) = (src.as_slice(), dst.as_mut_slice());
        box_blur_plane(src, tmp.as_mut_slice(), dst, (w, h), radius, tile);
    }
    scratch.recycle_image_f32(tmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use seaice_faults::rng::ChaCha8;

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
        let mut rng = ChaCha8::seed(12);
        // Widths whose interiors (`(w − 2)·c` samples) are 63, 64, 65, 127,
        // 128 or 129 samples long, around the network's 64-sample runs.
        for w in [
            1usize, 2, 3, 4, 5, 8, 17, 23, 45, 64, 65, 66, 67, 129, 130, 131,
        ] {
            for h in [1usize, 2, 3, 9] {
                for c in [1usize, 3] {
                    for kind in 0..3 {
                        let img = Image::from_fn(w, h, c, |x, y| {
                            (0..c)
                                .map(|ch| match kind {
                                    0 => 77,
                                    1 => (x * 5 + y * 3 + ch) as u8,
                                    _ => rng.next_u32() as u8,
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
        let mut rng = ChaCha8::seed(5);
        let mut scratch = Scratch::new();
        // Heights around the 16-row block of the horizontal pass, and one
        // image past `CHEAP_ROWS_PAR_THRESHOLD` with enough blocks (256) for
        // `par` to fork them, plus a short last block.
        let sizes = [(1usize, 1usize), (1, 7), (7, 1), (8, 8), (13, 5), (40, 33)];
        let blocked = [
            (5, 9),
            (3, 15),
            (4, 16),
            (3, 17),
            (2, 31),
            (9, 32),
            (6, 257),
        ];
        const { assert!(256 * 4097 >= CHEAP_ROWS_PAR_THRESHOLD) };
        for (w, h) in sizes.into_iter().chain(blocked).chain([(256, 4097)]) {
            let a = Image::from_fn(w, h, 1, |_, _| vec![rng.uniform(-3.0, 900.0)]);
            let b = Image::from_fn(w, h, 1, |x, _| vec![(x % 3) as f32 * rng.unit_f32()]);
            // The filter's shadow flags (0 or 1) and a mostly-zero field.
            let flags = Image::from_fn(w, h, 1, |_, _| vec![rng.chance(0.2) as u8 as f32]);
            let sparse = Image::from_fn(w, h, 1, |_, _| {
                vec![rng.chance(0.05) as u8 as f32 * rng.unit_f32()]
            });
            for (a, b) in [(&a, &b), (&flags, &sparse)] {
                for radius in [0usize, 1, 2, 7, 100, w.max(h)] {
                    let expected = if radius == 0 {
                        (a.clone(), b.clone())
                    } else {
                        (
                            box_blur_f32_columns(a, radius),
                            box_blur_f32_columns(b, radius),
                        )
                    };
                    let case = format!("{w}x{h} r{radius}");
                    assert_eq!(bits(&box_blur_f32(a, radius)), bits(&expected.0), "{case}");
                    // Paired, out of a pool whose buffers hold the last round.
                    let (pa, pb) = box_blur_f32_pair(a, b, radius, &mut scratch, box_blur_tile);
                    assert_eq!(bits(&pa), bits(&expected.0), "pair.0 {case}");
                    assert_eq!(bits(&pb), bits(&expected.1), "pair.1 {case}");
                    scratch.recycle_image_f32(pa);
                    scratch.recycle_image_f32(pb);
                }
            }
        }
    }

    #[test]
    fn scene_sized_inputs_take_the_row_parallel_branch_bit_identically() {
        let side = 1024;
        assert!(side * side >= CHEAP_ROWS_PAR_THRESHOLD);
        let mut rng = ChaCha8::seed(31);
        let img = Image::from_fn(side, side, 1, |_, _| vec![rng.next_u32() as u8]);
        let mut selected = Image::<u8>::new(side, side, 1);
        for y in 0..side {
            median_select_row(&img, 1, y, selected.row_mut(y));
        }
        assert_eq!(median_filter(&img, 1), selected);

        let a = img.map(|v| v as f32 * 1.7 - 3.0);
        let b = Image::from_fn(side, side, 1, |_, _| vec![rng.unit_f32()]);
        let (pa, pb) = box_blur_f32_pair(&a, &b, 9, &mut Scratch::new(), box_blur_tile);
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
