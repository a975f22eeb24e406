//! 2×2 max pooling with stride 2 (the paper's U-Net downsampling unit).

use crate::ops::planes::{keep_if, Planes, Sink};
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

/// The backward pass of [`maxpool2x2_into`] fused with the ReLU that stored
/// `x`: `dst`, the gradient of `x`'s first `c` channels (`g`'s) from `x`'s
/// other consumer, becomes `pool + dst` where `x > 0` and `+0.0` elsewhere;
/// `pool` is `0.0 + g` at its window's argmax (the forward's comparisons,
/// made again) and `0.0` at the others — routing from zero, the sum, then
/// `relu_backward`, on the same values. Panics unless `g` has at most `x`'s
/// channels at half its even side and `dst` takes `g`'s at `x`'s side.
pub fn maxpool2x2_backward_into(x: &Planes, g: &Planes, mut dst: Sink<'_>) {
    let (xc, h, w) = x.dims();
    let (c, oh, ow) = g.dims();
    assert!(h % 2 == 0 && w % 2 == 0, "maxpool2x2 needs even H and W");
    assert!(
        c <= xc && (oh, ow) == (h / 2, w / 2) && dst.dims() == (c, h, w),
        "pool gradient mismatch"
    );
    // Per window, its gradient at the argmax cell and `0.0` at the others:
    // the window's top row, then its bottom row.
    let mut pool = [vec![0.0; w], vec![0.0; w]];
    for ch in 0..c {
        for oy in 0..oh {
            let rows = [x.row(ch, 2 * oy), x.row(ch, 2 * oy + 1)];
            let [top, bottom] = &mut pool;
            let windows = rows[0].chunks_exact(2).zip(rows[1].chunks_exact(2));
            let cells = top.chunks_exact_mut(2).zip(bottom.chunks_exact_mut(2));
            for ((t, b), ((x0, x1), &g)) in cells.zip(windows.zip(g.row(ch, oy))) {
                // The forward's comparisons, as selects: `m_i` is "cell `i`
                // beat the best before it".
                let m1 = x0[1] > x0[0];
                let best = if m1 { x0[1] } else { x0[0] };
                let m2 = x1[0] > best;
                let m3 = x1[1] > if m2 { x1[0] } else { best };
                let hit = [!(m1 | m2 | m3), m1 & !(m2 | m3), m2 & !m3, m3];
                let g = 0.0 + g;
                [t[0], t[1], b[0], b[1]] = hit.map(|h| keep_if(h, g));
            }
            for (dy, (xs, pool)) in rows.into_iter().zip(&pool).enumerate() {
                let cells = dst.cells(ch, 2 * oy + dy, 0, w).iter_mut().zip(xs);
                for ((d, &v), &p) in cells.zip(pool) {
                    *d = keep_if(v > 0.0, p + *d);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Backward max pool: routes each output gradient to its argmax input
    /// position. The oracle of [`maxpool2x2_backward_into`].
    ///
    /// # Panics
    /// Panics if `grad_out` length differs from `argmax` length.
    fn maxpool2x2_backward(grad_out: &Tensor, argmax: &[usize], input_shape: &[usize]) -> Tensor {
        assert_eq!(grad_out.len(), argmax.len(), "grad/argmax length mismatch");
        let mut grad_in = Tensor::zeros(input_shape);
        let gi = grad_in.as_mut_slice();
        for (&g, &idx) in grad_out.as_slice().iter().zip(argmax) {
            gi[idx] += g;
        }
        grad_in
    }

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

    /// The fused backward equals routing, the skip's sum and ReLU's
    /// backward as separate ops, bit for bit, with ties among zeros and
    /// among positive values, negative skip gradients and `+0.0` pool
    /// gradients.
    #[test]
    fn backward_into_equals_route_then_sum_then_relu_backward() {
        use crate::ops::activation::{relu, tests::relu_backward};
        let (c, h, w) = (3, 6, 8);
        let mut z = crate::init::uniform(&[1, c, h, w], -1.0, 1.0, 21);
        for (at, v) in [
            (0, 0.5),
            (1, 0.5),
            (8, 0.5),
            (2, -0.3),
            (3, -0.4),
            (10, -0.1),
        ] {
            z.as_mut_slice()[at] = v;
        }
        let x = relu(&z);
        let mut g = crate::init::uniform(&[1, c, h / 2, w / 2], -1.0, 1.0, 22);
        g.as_mut_slice()[5] = 0.0;
        let skip = crate::init::uniform(&[1, c, h, w], -1.0, 1.0, 23);

        let (_, argmax) = maxpool2x2(&x);
        let mut want = maxpool2x2_backward(&g, &argmax, x.shape());
        want.add_assign(&skip);
        let want = relu_backward(&z, &want);

        let xp = Planes::haloed(x.as_slice(), (c, h, w), 1);
        let gp = Planes::haloed(g.as_slice(), (c, h / 2, w / 2), 0);
        let mut dst = Planes::haloed(skip.as_slice(), (c, h, w), 1);
        maxpool2x2_backward_into(&xp, &gp, Sink::planes(&mut dst, 0, c));
        let bits = |v: &[f32]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dst.interior()), bits(want.as_slice()));
    }

    #[test]
    fn ties_prefer_first_position() {
        let input = Tensor::from_vec(&[1, 1, 2, 2], vec![5.0, 5.0, 5.0, 5.0]);
        let (_, argmax) = maxpool2x2(&input);
        assert_eq!(argmax, vec![0]);
    }
}
