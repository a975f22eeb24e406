//! 2-D transposed convolution ("up-convolution"). The original U-Net —
//! and the paper's description of its expansion path ("a 2x2 convolution
//! (up-convolution) that halves the number of feature channels") — uses a
//! 2×2 stride-2 transposed convolution to double spatial resolution;
//! this op implements the general kernel/stride case with full backward.
//!
//! Forward transposed convolution is exactly the *backward-data* pass of
//! an ordinary convolution (and vice versa), which is how both directions
//! are implemented here: scatter each input pixel's contribution through
//! the kernel onto the upsampled output.

use crate::tensor::Tensor;

/// Static geometry of a transposed convolution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConvTranspose2dShape {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels.
    pub out_channels: usize,
    /// Kernel height/width (square).
    pub kernel: usize,
    /// Stride (output grows by this factor).
    pub stride: usize,
}

impl ConvTranspose2dShape {
    /// The U-Net up-convolution: 2×2 kernel, stride 2.
    pub fn unet_upconv(in_channels: usize, out_channels: usize) -> Self {
        Self {
            in_channels,
            out_channels,
            kernel: 2,
            stride: 2,
        }
    }

    /// Output spatial size for an `h × w` input (no padding, no output
    /// padding): `(h − 1)·stride + kernel`.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (
            (h - 1) * self.stride + self.kernel,
            (w - 1) * self.stride + self.kernel,
        )
    }
}

/// Forward transposed convolution.
///
/// * `input` — `[n, in_c, h, w]`
/// * `weight` — `[in_c, out_c · k · k]` (note the transposed layout
///   relative to `conv2d`: rows are *input* channels)
/// * `bias` — `[out_c]`
///
/// Returns `[n, out_c, oh, ow]`.
///
/// # Panics
/// Panics on shape inconsistencies.
pub fn conv_transpose2d(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    shape: &ConvTranspose2dShape,
) -> Tensor {
    let (n, c, h, w) = input.nchw();
    assert_eq!(c, shape.in_channels, "input channel mismatch");
    let k = shape.kernel;
    assert_eq!(
        weight.shape(),
        &[shape.in_channels, shape.out_channels * k * k],
        "weight shape mismatch"
    );
    assert_eq!(bias.shape(), &[shape.out_channels], "bias shape mismatch");
    let (oh, ow) = shape.output_hw(h, w);
    let mut out = Tensor::zeros(&[n, shape.out_channels, oh, ow]);
    let item_len = shape.out_channels * oh * ow;
    let in_item = c * h * w;
    let in_data = input.as_slice();
    let w_data = weight.as_slice();
    let b_data = bias.as_slice();

    for (b, out_item) in out.as_mut_slice().chunks_exact_mut(item_len).enumerate() {
        // Initialize with bias.
        for oc in 0..shape.out_channels {
            out_item[oc * oh * ow..(oc + 1) * oh * ow].fill(b_data[oc]);
        }
        let x = &in_data[b * in_item..(b + 1) * in_item];
        for ic in 0..c {
            let w_row =
                &w_data[ic * shape.out_channels * k * k..(ic + 1) * shape.out_channels * k * k];
            for y in 0..h {
                for xpos in 0..w {
                    let v = x[(ic * h + y) * w + xpos];
                    if v == 0.0 {
                        continue;
                    }
                    let oy0 = y * shape.stride;
                    let ox0 = xpos * shape.stride;
                    for oc in 0..shape.out_channels {
                        let w_oc = &w_row[oc * k * k..(oc + 1) * k * k];
                        let dst = &mut out_item[oc * oh * ow..(oc + 1) * oh * ow];
                        for ky in 0..k {
                            let row = (oy0 + ky) * ow + ox0;
                            for kx in 0..k {
                                dst[row + kx] += v * w_oc[ky * k + kx];
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Backward transposed convolution: gradients w.r.t. input, weight, bias.
///
/// # Panics
/// Panics on shape inconsistencies.
pub fn conv_transpose2d_backward(
    input: &Tensor,
    weight: &Tensor,
    grad_out: &Tensor,
    shape: &ConvTranspose2dShape,
) -> (Tensor, Tensor, Tensor) {
    let (n, c, h, w) = input.nchw();
    let k = shape.kernel;
    let (gn, goc, oh, ow) = grad_out.nchw();
    assert_eq!(n, gn, "batch mismatch");
    assert_eq!(goc, shape.out_channels, "grad channel mismatch");
    assert_eq!((oh, ow), shape.output_hw(h, w), "grad spatial mismatch");

    let partials: Vec<(Tensor, Tensor, Tensor)> = (0..n)
        .map(|b| {
            let x = input.batch_item(b);
            let gy = grad_out.batch_item(b);
            let w_data = weight.as_slice();
            let mut dx = Tensor::zeros(&[c, h, w]);
            let mut dw = Tensor::zeros(weight.shape());
            let mut db = Tensor::zeros(&[shape.out_channels]);
            // dB: sum of output gradients per channel.
            for oc in 0..shape.out_channels {
                db.as_mut_slice()[oc] = gy[oc * oh * ow..(oc + 1) * oh * ow].iter().sum();
            }
            // dX[ic,y,x] = Σ_{oc,ky,kx} gy[oc, y·s+ky, x·s+kx] · W[ic][oc,ky,kx]
            // dW[ic][oc,ky,kx] = Σ_{y,x} x[ic,y,x] · gy[oc, y·s+ky, x·s+kx]
            for ic in 0..c {
                let w_row =
                    &w_data[ic * shape.out_channels * k * k..(ic + 1) * shape.out_channels * k * k];
                let dw_row = &mut dw.as_mut_slice()
                    [ic * shape.out_channels * k * k..(ic + 1) * shape.out_channels * k * k];
                for y in 0..h {
                    for xpos in 0..w {
                        let xi = (ic * h + y) * w + xpos;
                        let xv = x[xi];
                        let (oy0, ox0) = (y * shape.stride, xpos * shape.stride);
                        let mut acc = 0f32;
                        for oc in 0..shape.out_channels {
                            let g_oc = &gy[oc * oh * ow..(oc + 1) * oh * ow];
                            let w_oc = &w_row[oc * k * k..(oc + 1) * k * k];
                            let dw_oc = &mut dw_row[oc * k * k..(oc + 1) * k * k];
                            for ky in 0..k {
                                let row = (oy0 + ky) * ow + ox0;
                                for kx in 0..k {
                                    let g = g_oc[row + kx];
                                    acc += g * w_oc[ky * k + kx];
                                    dw_oc[ky * k + kx] += xv * g;
                                }
                            }
                        }
                        dx.as_mut_slice()[xi] = acc;
                    }
                }
            }
            (dx, dw, db)
        })
        .collect();

    let mut grad_input = Tensor::zeros(&[n, c, h, w]);
    let mut grad_weight = Tensor::zeros(weight.shape());
    let mut grad_bias = Tensor::zeros(&[shape.out_channels]);
    let item = c * h * w;
    for (b, (dx, dw, db)) in partials.into_iter().enumerate() {
        grad_input.as_mut_slice()[b * item..(b + 1) * item].copy_from_slice(dx.as_slice());
        grad_weight.add_assign(&dw);
        grad_bias.add_assign(&db);
    }
    (grad_input, grad_weight, grad_bias)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;

    #[test]
    fn output_doubles_spatially_for_unet_upconv() {
        let shape = ConvTranspose2dShape::unet_upconv(4, 2);
        assert_eq!(shape.output_hw(8, 8), (16, 16));
        let x = uniform(&[1, 4, 8, 8], -1.0, 1.0, 1);
        let w = uniform(&[4, 2 * 4], -0.5, 0.5, 2);
        let b = Tensor::zeros(&[2]);
        let y = conv_transpose2d(&x, &w, &b, &shape);
        assert_eq!(y.shape(), &[1, 2, 16, 16]);
    }

    #[test]
    fn unit_weight_single_pixel_paints_a_kernel_patch() {
        let shape = ConvTranspose2dShape {
            in_channels: 1,
            out_channels: 1,
            kernel: 2,
            stride: 2,
        };
        let mut x = Tensor::zeros(&[1, 1, 2, 2]);
        *x.at4_mut(0, 0, 1, 0) = 3.0;
        let w = Tensor::from_vec(&[1, 4], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::zeros(&[1]);
        let y = conv_transpose2d(&x, &w, &b, &shape);
        // Pixel (1,0) scatters into the 2x2 block at (2..4, 0..2).
        assert_eq!(y.at4(0, 0, 2, 0), 3.0);
        assert_eq!(y.at4(0, 0, 2, 1), 6.0);
        assert_eq!(y.at4(0, 0, 3, 0), 9.0);
        assert_eq!(y.at4(0, 0, 3, 1), 12.0);
        assert_eq!(y.at4(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn bias_fills_the_whole_output() {
        let shape = ConvTranspose2dShape::unet_upconv(1, 2);
        let x = Tensor::zeros(&[1, 1, 3, 3]);
        let w = Tensor::zeros(&[1, 2 * 4]);
        let b = Tensor::from_vec(&[2], vec![1.5, -0.5]);
        let y = conv_transpose2d(&x, &w, &b, &shape);
        assert!(y.batch_item(0)[..36].iter().all(|&v| v == 1.5));
        assert!(y.batch_item(0)[36..].iter().all(|&v| v == -0.5));
    }

    #[test]
    fn stride2_blocks_do_not_overlap() {
        // With k == stride, each output pixel receives exactly one
        // contribution, so an all-ones weight and input gives all-ones out.
        let shape = ConvTranspose2dShape::unet_upconv(1, 1);
        let x = Tensor::full(&[1, 1, 4, 4], 1.0);
        let w = Tensor::full(&[1, 4], 1.0);
        let b = Tensor::zeros(&[1]);
        let y = conv_transpose2d(&x, &w, &b, &shape);
        assert!(y.as_slice().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn backward_shapes_match() {
        let shape = ConvTranspose2dShape::unet_upconv(3, 2);
        let x = uniform(&[2, 3, 4, 4], -1.0, 1.0, 5);
        let w = uniform(&[3, 2 * 4], -0.5, 0.5, 6);
        let g = uniform(&[2, 2, 8, 8], -1.0, 1.0, 7);
        let (dx, dw, db) = conv_transpose2d_backward(&x, &w, &g, &shape);
        assert_eq!(dx.shape(), x.shape());
        assert_eq!(dw.shape(), w.shape());
        assert_eq!(db.shape(), &[2]);
    }

    #[test]
    fn forward_is_adjoint_of_backward_data() {
        // <T(x), y> == <x, T*(y)> where T* is the backward-data map.
        let shape = ConvTranspose2dShape::unet_upconv(2, 3);
        let x = uniform(&[1, 2, 3, 3], -1.0, 1.0, 8);
        let w = uniform(&[2, 3 * 4], -0.5, 0.5, 9);
        let b = Tensor::zeros(&[3]);
        let tx = conv_transpose2d(&x, &w, &b, &shape);
        let y = uniform(tx.shape(), -1.0, 1.0, 10);
        let lhs: f64 = tx
            .as_slice()
            .iter()
            .zip(y.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        let (tstar_y, _, _) = conv_transpose2d_backward(&x, &w, &y, &shape);
        let rhs: f64 = x
            .as_slice()
            .iter()
            .zip(tstar_y.as_slice())
            .map(|(&a, &b)| (a * b) as f64)
            .sum();
        assert!((lhs - rhs).abs() < 1e-3, "adjoint mismatch: {lhs} vs {rhs}");
    }
}
