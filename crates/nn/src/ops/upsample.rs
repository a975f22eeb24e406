//! 2× nearest-neighbour upsampling (the paper's expansion-path
//! "up-sampling of the feature map" step).

use crate::ops::planes::{Planes, Sink};
use crate::tensor::Tensor;

/// Forward 2× nearest-neighbour upsample: each input pixel becomes a 2×2
/// block.
///
/// # Panics
/// Panics unless the input is 4-D.
pub fn upsample2x(input: &Tensor) -> Tensor {
    let (n, c, h, w) = input.nchw();
    let mut out = Tensor::zeros(&[n, c, h * 2, w * 2]);
    let src = input.as_slice();
    let (oh, ow) = (h * 2, w * 2);
    let dst = out.as_mut_slice();
    for b in 0..n {
        for ch in 0..c {
            let sbase = (b * c + ch) * h * w;
            let dbase = (b * c + ch) * oh * ow;
            for y in 0..oh {
                let sy = y / 2;
                for x in 0..ow {
                    dst[dbase + y * ow + x] = src[sbase + sy * w + x / 2];
                }
            }
        }
    }
    out
}

/// [`upsample2x`] of `src`'s interior into `dst`: the inference walk's
/// upsample, straight into the next convolution's haloed input.
///
/// # Panics
/// Panics unless `dst` takes `src`'s channels at twice its side.
pub fn upsample2x_into(src: &Planes, mut dst: Sink<'_>) {
    let (c, h, w) = src.dims();
    assert_eq!(dst.dims(), (c, 2 * h, 2 * w), "upsample output mismatch");
    for ch in 0..c {
        for y in 0..2 * h {
            let row = src.row(ch, y / 2);
            for (d, &v) in dst.cells(ch, y, 0, 2 * w).chunks_exact_mut(2).zip(row) {
                d.fill(v);
            }
        }
    }
}

/// The backward pass of [`upsample2x_into`]: each cell takes the sum of its
/// 2×2 block of `g` from `+0.0`, top row then bottom row, stored through
/// `dst`. Panics unless `dst` takes `g`'s channels at half its even side.
pub fn upsample2x_backward_into(g: &Planes, mut dst: Sink<'_>) {
    let (c, oh, ow) = g.dims();
    assert!(
        oh % 2 == 0 && ow % 2 == 0,
        "upsample grad must be even-sized"
    );
    assert_eq!(
        dst.dims(),
        (c, oh / 2, ow / 2),
        "upsample gradient mismatch"
    );
    let mut row = vec![0.0; ow / 2];
    for ch in 0..c {
        for y in 0..oh / 2 {
            let (top, bottom) = (g.row(ch, 2 * y), g.row(ch, 2 * y + 1));
            let blocks = top.chunks_exact(2).zip(bottom.chunks_exact(2));
            for (r, (t, b)) in row.iter_mut().zip(blocks) {
                *r = 0.0 + t[0] + t[1] + b[0] + b[1];
            }
            dst.put_row(ch, y, &row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backward 2× upsample: each input position accumulates the gradients of
    /// its 2×2 output block (the adjoint of replication). The oracle of
    /// [`upsample2x_backward_into`].
    ///
    /// # Panics
    /// Panics unless `grad_out` is 4-D with even spatial dimensions.
    fn upsample2x_backward(grad_out: &Tensor) -> Tensor {
        let (n, c, oh, ow) = grad_out.nchw();
        assert!(
            oh % 2 == 0 && ow % 2 == 0,
            "upsample grad must be even-sized"
        );
        let (h, w) = (oh / 2, ow / 2);
        let mut grad_in = Tensor::zeros(&[n, c, h, w]);
        let src = grad_out.as_slice();
        let dst = grad_in.as_mut_slice();
        for b in 0..n {
            for ch in 0..c {
                let dbase = (b * c + ch) * h * w;
                let sbase = (b * c + ch) * oh * ow;
                for y in 0..oh {
                    for x in 0..ow {
                        dst[dbase + (y / 2) * w + x / 2] += src[sbase + y * ow + x];
                    }
                }
            }
        }
        grad_in
    }

    #[test]
    fn upsample_replicates_blocks() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let out = upsample2x(&input);
        assert_eq!(out.shape(), &[1, 1, 4, 4]);
        assert_eq!(
            out.as_slice(),
            &[
                1.0, 1.0, 2.0, 2.0, //
                1.0, 1.0, 2.0, 2.0, //
                3.0, 3.0, 4.0, 4.0, //
                3.0, 3.0, 4.0, 4.0,
            ]
        );
    }

    #[test]
    fn backward_sums_blocks() {
        let grad = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let gi = upsample2x_backward(&grad);
        assert_eq!(gi.shape(), &[1, 1, 1, 1]);
        assert_eq!(gi.as_slice(), &[10.0]);
    }

    /// The planes backward equals the tensor backward, bit for bit, and a
    /// masked sink stores it through the mask.
    #[test]
    fn backward_into_equals_the_tensor_backward() {
        let (c, h, w) = (3, 5, 7);
        let g = crate::init::uniform(&[1, c, 2 * h, 2 * w], -1.0, 1.0, 31);
        let want = upsample2x_backward(&g);
        let gp = Planes::haloed(g.as_slice(), (c, 2 * h, 2 * w), 1);
        let mut got = vec![0.0; c * h * w];
        upsample2x_backward_into(&gp, Sink::plain(&mut got, (c, h, w)));
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(want.as_slice()));

        let by = crate::init::uniform(&[c, h, w], -1.0, 1.0, 32);
        let by = Planes::haloed(by.as_slice(), (c, h, w), 0);
        let mut masked = Planes::new((c, h, w), 1);
        upsample2x_backward_into(&gp, Sink::planes(&mut masked, 0, c).through_mask(&by, 1.0));
        let masked = masked.interior();
        for ((m, v), keep) in masked.iter().zip(&got).zip(by.interior()) {
            assert_eq!(m.to_bits(), if keep > 0.0 { *v } else { 0.0 }.to_bits());
        }
    }

    #[test]
    fn up_then_down_is_times_four() {
        let input = Tensor::from_vec(&[1, 2, 2, 2], (1..=8).map(|v| v as f32).collect());
        let down = upsample2x_backward(&upsample2x(&input));
        for (a, b) in down.as_slice().iter().zip(input.as_slice()) {
            assert!((a - 4.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn adjoint_property() {
        let x = crate::init::uniform(&[1, 2, 3, 3], -1.0, 1.0, 1);
        let up = upsample2x(&x);
        let y = crate::init::uniform(up.shape(), -1.0, 1.0, 2);
        let lhs: f64 = up
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let back = upsample2x_backward(&y);
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(back.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3);
    }
}
