//! A minimal object-safe layer abstraction with trainable parameters.
//!
//! Layers cache whatever the backward pass needs during `forward`; U-Net's
//! branching topology (skip connections) is assembled in `seaice-unet`
//! from these primitives plus the raw ops.

use crate::init::he_uniform;
use crate::ops;
use crate::ops::conv2d::Conv2dShape;
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

/// A differentiable network layer.
pub trait Layer {
    /// Forward pass. `train` toggles training-only behaviour (dropout).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Backward pass: consumes the output gradient, accumulates parameter
    /// gradients, and returns the input gradient. Must be called after
    /// `forward` (layers cache activations).
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;

    /// Trainable parameters (empty for stateless layers).
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// Zeroes all parameter gradients.
    fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.grad.zero();
        }
    }
}

/// 2-D convolution layer ("same" 3×3 by default in the U-Net blocks).
pub struct Conv2d {
    shape: Conv2dShape,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new(shape: Conv2dShape, seed: u64) -> Self {
        let fan_in = shape.in_channels * shape.kernel * shape.kernel;
        let weight = Param::new(he_uniform(&[shape.out_channels, fan_in], fan_in, seed));
        let bias = Param::new(Tensor::zeros(&[shape.out_channels]));
        Self {
            shape,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// The convolution geometry.
    pub fn shape(&self) -> &Conv2dShape {
        &self.shape
    }

    /// Immutable access to the weight parameter (for checkpointing).
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    /// Immutable access to the bias parameter.
    pub fn bias(&self) -> &Param {
        &self.bias
    }

    /// Overwrites weights and bias (checkpoint restore).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn load(&mut self, weight: Tensor, bias: Tensor) {
        assert_eq!(
            weight.shape(),
            self.weight.value.shape(),
            "weight shape mismatch"
        );
        assert_eq!(bias.shape(), self.bias.value.shape(), "bias shape mismatch");
        self.weight.value = weight;
        self.bias.value = bias;
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let y = ops::conv2d(x, &self.weight.value, &self.bias.value, &self.shape);
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // seaice-lint: allow(panic-in-library) reason="the Layer trait contract requires forward before backward (training loop enforces it); calling order violation is a programming error worth crashing on"
        let x = self.cached_input.as_ref().expect("backward before forward");
        let (dx, dw, db) = ops::conv2d_backward(x, &self.weight.value, grad_out, &self.shape);
        self.weight.grad.add_assign(&dw);
        self.bias.grad.add_assign(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// 2-D transposed-convolution layer (U-Net's "up-convolution").
pub struct ConvTranspose2d {
    shape: crate::ops::convtranspose::ConvTranspose2dShape,
    weight: Param,
    bias: Param,
    cached_input: Option<Tensor>,
}

impl ConvTranspose2d {
    /// He-initialized transposed convolution.
    pub fn new(shape: crate::ops::convtranspose::ConvTranspose2dShape, seed: u64) -> Self {
        let fan_in = shape.in_channels * shape.kernel * shape.kernel;
        let weight = Param::new(he_uniform(
            &[
                shape.in_channels,
                shape.out_channels * shape.kernel * shape.kernel,
            ],
            fan_in,
            seed,
        ));
        let bias = Param::new(Tensor::zeros(&[shape.out_channels]));
        Self {
            shape,
            weight,
            bias,
            cached_input: None,
        }
    }

    /// The layer geometry.
    pub fn shape(&self) -> &crate::ops::convtranspose::ConvTranspose2dShape {
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
}

impl Layer for ConvTranspose2d {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        let y = crate::ops::convtranspose::conv_transpose2d(
            x,
            &self.weight.value,
            &self.bias.value,
            &self.shape,
        );
        self.cached_input = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // seaice-lint: allow(panic-in-library) reason="the Layer trait contract requires forward before backward (training loop enforces it); calling order violation is a programming error worth crashing on"
        let x = self.cached_input.as_ref().expect("backward before forward");
        let (dx, dw, db) = crate::ops::convtranspose::conv_transpose2d_backward(
            x,
            &self.weight.value,
            grad_out,
            &self.shape,
        );
        self.weight.grad.add_assign(&dw);
        self.bias.grad.add_assign(&db);
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// ReLU activation layer.
#[derive(Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.cached_input = Some(x.clone());
        ops::relu(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        // seaice-lint: allow(panic-in-library) reason="the Layer trait contract requires forward before backward (training loop enforces it); calling order violation is a programming error worth crashing on"
        let x = self.cached_input.as_ref().expect("backward before forward");
        ops::relu_backward(x, grad_out)
    }
}

/// 2×2 stride-2 max-pooling layer.
#[derive(Default)]
pub struct MaxPool2x2 {
    argmax: Vec<usize>,
    input_shape: Vec<usize>,
}

impl Layer for MaxPool2x2 {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        self.input_shape = x.shape().to_vec();
        let (y, argmax) = ops::maxpool2x2(x);
        self.argmax = argmax;
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert!(!self.argmax.is_empty(), "backward before forward");
        ops::maxpool2x2_backward(grad_out, &self.argmax, &self.input_shape)
    }
}

/// 2× nearest-neighbour upsampling layer.
#[derive(Default)]
pub struct Upsample2x;

impl Layer for Upsample2x {
    fn forward(&mut self, x: &Tensor, _train: bool) -> Tensor {
        ops::upsample2x(x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        ops::upsample2x_backward(grad_out)
    }
}

/// Inverted-dropout layer. Inactive (identity) at inference time. Each
/// training forward uses a fresh, deterministic seed derived from the
/// base seed and an internal counter.
pub struct Dropout {
    /// Drop probability.
    p: f32,
    seed: u64,
    counter: u64,
    mask: Option<Vec<bool>>,
}

impl Dropout {
    /// Creates a dropout layer with drop probability `p`.
    pub fn new(p: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&p), "dropout rate must be in [0, 1)");
        Self {
            p,
            seed,
            counter: 0,
            mask: None,
        }
    }
}

impl Layer for Dropout {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if !train || self.p == 0.0 {
            self.mask = None;
            return x.clone();
        }
        self.counter += 1;
        let (y, mask) = ops::dropout(x, self.p, self.seed.wrapping_add(self.counter));
        self.mask = Some(mask);
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match &self.mask {
            Some(mask) => ops::dropout_backward(grad_out, mask, self.p),
            None => grad_out.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::uniform;

    #[test]
    fn conv_layer_forward_backward_shapes() {
        let mut conv = Conv2d::new(
            Conv2dShape {
                in_channels: 3,
                out_channels: 8,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            1,
        );
        let x = uniform(&[2, 3, 8, 8], -1.0, 1.0, 2);
        let y = conv.forward(&x, true);
        assert_eq!(y.shape(), &[2, 8, 8, 8]);
        let dx = conv.backward(&Tensor::full(y.shape(), 1.0));
        assert_eq!(dx.shape(), x.shape());
        assert!(conv.params_mut()[0].grad.max_abs() > 0.0);
    }

    #[test]
    fn conv_gradients_accumulate_until_zeroed() {
        let mut conv = Conv2d::new(
            Conv2dShape {
                in_channels: 1,
                out_channels: 1,
                kernel: 1,
                stride: 1,
                pad: 0,
            },
            3,
        );
        let x = Tensor::full(&[1, 1, 2, 2], 1.0);
        let g = Tensor::full(&[1, 1, 2, 2], 1.0);
        conv.forward(&x, true);
        conv.backward(&g);
        let g1 = conv.params_mut()[0].grad.as_slice()[0];
        conv.forward(&x, true);
        conv.backward(&g);
        let g2 = conv.params_mut()[0].grad.as_slice()[0];
        assert!((g2 - 2.0 * g1).abs() < 1e-5, "gradients must accumulate");
        conv.zero_grads();
        assert_eq!(conv.params_mut()[0].grad.max_abs(), 0.0);
    }

    #[test]
    fn relu_layer_roundtrip() {
        let mut relu = Relu::default();
        let x = Tensor::from_vec(&[1, 1, 1, 4], vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = relu.backward(&Tensor::full(&[1, 1, 1, 4], 1.0));
        assert_eq!(dx.as_slice(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn pool_layer_roundtrip() {
        let mut pool = MaxPool2x2::default();
        let x = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 5.0, 2.0, 3.0]);
        let y = pool.forward(&x, true);
        assert_eq!(y.as_slice(), &[5.0]);
        let dx = pool.backward(&Tensor::full(&[1, 1, 1, 1], 3.0));
        assert_eq!(dx.as_slice(), &[0.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn dropout_layer_is_identity_in_eval() {
        let mut d = Dropout::new(0.5, 7);
        let x = uniform(&[1, 1, 4, 4], -1.0, 1.0, 8);
        let y = d.forward(&x, false);
        assert_eq!(y, x);
        let g = uniform(&[1, 1, 4, 4], -1.0, 1.0, 9);
        assert_eq!(d.backward(&g), g);
    }

    #[test]
    fn dropout_layer_varies_across_steps_but_is_seeded() {
        let x = Tensor::full(&[64], 1.0);
        let mut d1 = Dropout::new(0.5, 7);
        let a = d1.forward(&x, true);
        let b = d1.forward(&x, true);
        assert_ne!(a, b, "each step uses a fresh mask");
        let mut d2 = Dropout::new(0.5, 7);
        let a2 = d2.forward(&x, true);
        assert_eq!(a, a2, "same seed, same step → same mask");
    }
}
