//! im2col / col2im: the reference lowering of convolution — the test
//! oracle for the direct kernels in [`conv2d`](mod@crate::ops::conv2d) and a
//! line of the benchmark's per-layer walk. The library itself calls these
//! only for the geometries `Conv2dShape::is_direct` excludes.
//!
//! `im2col` unrolls every receptive field of one image (CHW) into a
//! column of a `[C·KH·KW, OH·OW]` matrix so convolution becomes a single
//! matmul; `col2im` scatters gradients back (the exact adjoint).

use crate::ops::conv2d::Conv2dShape;
use crate::tensor::Tensor;

/// Unrolls `input` (3-D CHW) into the `[c·kh·kw, oh·ow]` patch matrix for
/// a `kh×kw` kernel with the given stride and symmetric zero padding.
///
/// # Panics
/// Panics unless `input` is 3-D and the geometry yields at least one
/// output position.
pub fn im2col(input: &Tensor, kh: usize, kw: usize, stride: usize, pad: usize) -> Tensor {
    let s = input.shape();
    assert_eq!(s.len(), 3, "im2col expects a CHW tensor");
    let (c, h, w) = (s[0], s[1], s[2]);
    let oh = Conv2dShape::extent(h, kh, stride, pad);
    let ow = Conv2dShape::extent(w, kw, stride, pad);

    let mut out = Tensor::zeros(&[c * kh * kw, oh * ow]);
    let data = input.as_slice();
    let out_data = out.as_mut_slice();
    let cols = oh * ow;
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                let out_row = &mut out_data[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= h + pad {
                        continue; // zero padding
                    }
                    let iy = iy - pad;
                    for ox in 0..ow {
                        let ix = ox * stride + kx;
                        if ix < pad || ix >= w + pad {
                            continue;
                        }
                        let ix = ix - pad;
                        out_row[oy * ow + ox] = data[(ch * h + iy) * w + ix];
                    }
                }
            }
        }
    }
    out
}

/// Adjoint of [`im2col`]: scatters a `[c·kh·kw, oh·ow]` gradient matrix
/// back onto a CHW gradient image (overlapping patches accumulate).
///
/// # Panics
/// Panics if the geometry yields no output position or the column shape
/// does not match it.
#[allow(clippy::too_many_arguments)] // mirrors the standard col2im geometry signature
pub fn col2im(
    cols: &Tensor,
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    stride: usize,
    pad: usize,
) -> Tensor {
    let oh = Conv2dShape::extent(h, kh, stride, pad);
    let ow = Conv2dShape::extent(w, kw, stride, pad);
    assert_eq!(
        cols.shape(),
        &[c * kh * kw, oh * ow],
        "column matrix shape mismatch"
    );
    let mut out = Tensor::zeros(&[c, h, w]);
    let out_data = out.as_mut_slice();
    let col_data = cols.as_slice();
    let n_cols = oh * ow;
    for ch in 0..c {
        for ky in 0..kh {
            for kx in 0..kw {
                let row = (ch * kh + ky) * kw + kx;
                let col_row = &col_data[row * n_cols..(row + 1) * n_cols];
                for oy in 0..oh {
                    let iy = oy * stride + ky;
                    if iy < pad || iy >= h + pad {
                        continue;
                    }
                    let iy = iy - pad;
                    for ox in 0..ow {
                        let ix = ox * stride + kx;
                        if ix < pad || ix >= w + pad {
                            continue;
                        }
                        let ix = ix - pad;
                        out_data[(ch * h + iy) * w + ix] += col_row[oy * ow + ox];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn im2col_identity_kernel() {
        // 1x1 kernel, stride 1, no pad: columns are just the pixels.
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let cols = im2col(&input, 1, 1, 1, 0);
        assert_eq!(cols.shape(), &[1, 4]);
        assert_eq!(cols.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn im2col_3x3_same_padding_center() {
        let input = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let cols = im2col(&input, 3, 3, 1, 1);
        assert_eq!(cols.shape(), &[9, 9]);
        // Center output (oy=1, ox=1) sees the full image in kernel order.
        let col_idx = 4;
        let center: Vec<f32> = (0..9).map(|r| cols.as_slice()[r * 9 + col_idx]).collect();
        assert_eq!(center, (1..=9).map(|v| v as f32).collect::<Vec<_>>());
        // Corner output (0,0): top-left kernel taps fall in padding (zero).
        let corner: Vec<f32> = (0..9).map(|r| cols.as_slice()[r * 9]).collect();
        assert_eq!(corner[0], 0.0); // ky=0, kx=0 → padding
        assert_eq!(corner[4], 1.0); // ky=1, kx=1 → pixel (0,0)
    }

    #[test]
    fn im2col_stride_two_downsamples() {
        let input = Tensor::from_vec(&[1, 4, 4], (0..16).map(|v| v as f32).collect());
        let cols = im2col(&input, 2, 2, 2, 0);
        assert_eq!(cols.shape(), &[4, 4]);
        // First column = top-left 2x2 block in kernel order.
        let first: Vec<f32> = (0..4).map(|r| cols.as_slice()[r * 4]).collect();
        assert_eq!(first, vec![0.0, 1.0, 4.0, 5.0]);
    }

    #[test]
    fn multi_channel_rows_are_stacked() {
        let input = Tensor::from_vec(&[2, 2, 2], (0..8).map(|v| v as f32).collect());
        let cols = im2col(&input, 1, 1, 1, 0);
        assert_eq!(cols.shape(), &[2, 4]);
        assert_eq!(&cols.as_slice()[0..4], &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(&cols.as_slice()[4..8], &[4.0, 5.0, 6.0, 7.0]);
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining
        // property of the adjoint, and exactly what backprop requires.
        let x = crate::init::uniform(&[2, 5, 5], -1.0, 1.0, 11);
        let cols = im2col(&x, 3, 3, 1, 1);
        let y = crate::init::uniform(cols.shape(), -1.0, 1.0, 12);
        let lhs: f64 = cols
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let back = col2im(&y, 2, 5, 5, 3, 3, 1, 1);
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }

    #[test]
    fn col2im_accumulates_overlaps() {
        // All-ones columns with a 2x2 stride-1 kernel: interior pixels are
        // covered by 4 patches, corners by 1.
        let cols = Tensor::full(&[4, 4], 1.0); // c=1, kh=kw=2, oh=ow=2 on 3x3
        let img = col2im(&cols, 1, 3, 3, 2, 2, 1, 0);
        assert_eq!(img.at4_alias(0, 0), 1.0);
        assert_eq!(img.at4_alias(1, 1), 4.0);
    }

    trait At2 {
        fn at4_alias(&self, y: usize, x: usize) -> f32;
    }
    impl At2 for Tensor {
        fn at4_alias(&self, y: usize, x: usize) -> f32 {
            self.as_slice()[y * self.shape()[2] + x]
        }
    }
}
