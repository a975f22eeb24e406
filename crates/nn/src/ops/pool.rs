//! 2×2 max pooling with stride 2 (the paper's U-Net downsampling unit).

use crate::ops::planes::{Planes, Sink};
use crate::tensor::Tensor;

/// Forward 2×2/stride-2 max pool. Returns the pooled tensor and the flat
/// argmax index (into the input) for each output element, which the
/// backward pass routes gradients through.
///
/// # Panics
/// Panics unless the input is 4-D with even height and width.
pub fn maxpool2x2(input: &Tensor) -> (Tensor, Vec<usize>) {
    let (n, c, h, w) = input.nchw();
    assert!(h % 2 == 0 && w % 2 == 0, "maxpool2x2 needs even H and W");
    let (oh, ow) = (h / 2, w / 2);
    let mut out = Tensor::zeros(&[n, c, oh, ow]);
    let mut argmax = vec![0usize; n * c * oh * ow];
    let data = input.as_slice();
    let out_data = out.as_mut_slice();
    let mut oi = 0usize;
    for b in 0..n {
        for ch in 0..c {
            let base = (b * c + ch) * h * w;
            for oy in 0..oh {
                for ox in 0..ow {
                    let (y0, x0) = (oy * 2, ox * 2);
                    let mut best_idx = base + y0 * w + x0;
                    let mut best = data[best_idx];
                    for (dy, dx) in [(0usize, 1usize), (1, 0), (1, 1)] {
                        let idx = base + (y0 + dy) * w + (x0 + dx);
                        if data[idx] > best {
                            best = data[idx];
                            best_idx = idx;
                        }
                    }
                    out_data[oi] = best;
                    argmax[oi] = best_idx;
                    oi += 1;
                }
            }
        }
    }
    (out, argmax)
}

/// [`maxpool2x2`] of the first `c` channels of `src`'s interior into `dst`
/// (`c` planes of half the side), without the argmax only the backward pass
/// needs: the inference walk's pool. Same comparisons, same values.
///
/// # Panics
/// Panics unless `dst` takes `c ≤ src`'s channels at half `src`'s even side.
pub fn maxpool2x2_into(src: &Planes, mut dst: Sink<'_>) {
    let (sc, h, w) = src.dims();
    let (c, oh, ow) = dst.dims();
    assert!(h % 2 == 0 && w % 2 == 0, "maxpool2x2 needs even H and W");
    assert!(
        c <= sc && (oh, ow) == (h / 2, w / 2),
        "pool output mismatch"
    );
    for ch in 0..c {
        for oy in 0..oh {
            let (r0, r1) = (src.row(ch, 2 * oy), src.row(ch, 2 * oy + 1));
            for (ox, d) in dst.cells(ch, oy, 0, ow).iter_mut().enumerate() {
                let mut best = r0[2 * ox];
                for v in [r0[2 * ox + 1], r1[2 * ox], r1[2 * ox + 1]] {
                    if v > best {
                        best = v;
                    }
                }
                *d = best;
            }
        }
    }
}

/// Backward max pool: routes each output gradient to its argmax input
/// position.
///
/// # Panics
/// Panics if `grad_out` length differs from `argmax` length.
pub fn maxpool2x2_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(grad_out.len(), argmax.len(), "grad/argmax length mismatch");
    let mut grad_in = Tensor::zeros(input_shape);
    let gi = grad_in.as_mut_slice();
    for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
        gi[idx] += g;
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_picks_maxima() {
        let input = Tensor::from_vec(
            &[1, 1, 4, 4],
            vec![
                1.0, 2.0, 5.0, 6.0, //
                3.0, 4.0, 7.0, 8.0, //
                -1.0, -2.0, 0.0, 0.0, //
                -3.0, -4.0, 0.5, 0.0,
            ],
        );
        let (out, _) = maxpool2x2(&input);
        assert_eq!(out.shape(), &[1, 1, 2, 2]);
        assert_eq!(out.as_slice(), &[4.0, 8.0, -1.0, 0.5]);
    }

    #[test]
    fn argmax_points_at_the_winner() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]);
        let (_, argmax) = maxpool2x2(&input);
        assert_eq!(argmax, vec![1]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 9.0, 2.0, 3.0]);
        let (out, argmax) = maxpool2x2(&input);
        let grad = Tensor::full(out.shape(), 2.5);
        let gi = maxpool2x2_backward(&grad, &argmax, input.shape());
        assert_eq!(gi.as_slice(), &[0.0, 2.5, 0.0, 0.0]);
    }

    #[test]
    fn multichannel_batches_pool_independently() {
        let input = Tensor::from_vec(&[2, 2, 2, 2], (0..16).map(|v| v as f32).collect());
        let (out, _) = maxpool2x2(&input);
        assert_eq!(out.shape(), &[2, 2, 1, 1]);
        assert_eq!(out.as_slice(), &[3.0, 7.0, 11.0, 15.0]);
    }

    #[test]
    #[should_panic(expected = "even H and W")]
    fn odd_input_panics() {
        let _ = maxpool2x2(&Tensor::zeros(&[1, 1, 3, 4]));
    }

    #[test]
    fn ties_prefer_first_position() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![5.0, 5.0, 5.0, 5.0]);
        let (_, argmax) = maxpool2x2(&input);
        assert_eq!(argmax, vec![0]);
    }
}
