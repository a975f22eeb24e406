//! Trainable parameters and the layers that hold them: a convolution's and
//! a transposed convolution's He-initialised weights and bias. What runs
//! them, forward and backward, is `seaice-unet`'s walk over [`crate::ops`].

use crate::init::he_uniform;
use crate::ops::conv2d::Conv2dShape;
use crate::ops::convtranspose::ConvTranspose2dShape;
use crate::tensor::Tensor;

/// A trainable parameter: value plus gradient accumulator.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Tensor,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Tensor,
}

impl Param {
    /// Wraps a value tensor with a zero gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.shape());
        Self { value, grad }
    }
}

/// A convolution's parameters: its geometry `S`, He-initialised weights
/// and a zero bias. [`Conv2d`] and [`ConvTranspose2d`] are the two kinds.
pub struct Weighted<S> {
    shape: S,
    weight: Param,
    bias: Param,
}

/// A 2-D convolution's parameters ("same" 3×3 in the U-Net blocks).
pub type Conv2d = Weighted<Conv2dShape>;
/// A 2-D transposed convolution's parameters (U-Net's "up-convolution").
pub type ConvTranspose2d = Weighted<ConvTranspose2dShape>;

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(shape: Conv2dShape, seed: u64) -> Self {
        let fan_in = shape.in_channels * shape.kernel * shape.kernel;
        let weight = he_uniform(&[shape.out_channels, fan_in], fan_in, seed);
        Self::init(shape, weight, shape.out_channels)
    }
}

impl ConvTranspose2d {
    /// He-initialized transposed convolution.
    pub fn new(shape: ConvTranspose2dShape, seed: u64) -> Self {
        let fan_in = shape.in_channels * shape.kernel * shape.kernel;
        let dims = [
            shape.in_channels,
            shape.out_channels * shape.kernel * shape.kernel,
        ];
        Self::init(shape, he_uniform(&dims, fan_in, seed), shape.out_channels)
    }
}

impl<S> Weighted<S> {
    fn init(shape: S, weight: Tensor, out_channels: usize) -> Self {
        let bias = Param::new(Tensor::zeros(&[out_channels]));
        let weight = Param::new(weight);
        Self {
            shape,
            weight,
            bias,
        }
    }

    /// The geometry.
    pub fn shape(&self) -> &S {
        &self.shape
    }

    /// Immutable access to the weight parameter (for checkpointing and
    /// quantized-model construction).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// The weight, then the bias.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameters_are_shaped_for_their_geometry_with_zero_gradients() {
        let shape = Conv2dShape {
            in_channels: 3,
            out_channels: 8,
            kernel: 3,
            stride: 1,
            pad: 1,
        };
        let mut conv = Conv2d::new(shape, 1);
        let mut up = ConvTranspose2d::new(ConvTranspose2dShape::unet_upconv(8, 4), 2);
        let shapes = |ps: Vec<&mut Param>| {
            assert!(ps.iter().all(|p| p.grad.max_abs() == 0.0));
            assert!(ps.iter().all(|p| p.grad.shape() == p.value.shape()));
            ps.iter()
                .map(|p| p.value.shape().to_vec())
                .collect::<Vec<_>>()
        };
        assert_eq!(shapes(conv.params_mut()), [vec![8, 27], vec![8]]);
        assert_eq!(shapes(up.params_mut()), [vec![8, 16], vec![4]]);
        assert!(conv.weight().value.max_abs() > 0.0, "He-initialised");
    }
}
