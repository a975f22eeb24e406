//! Differentiable tensor operations: forward passes over tensors and, for a
//! network's walk, forward and backward passes from and into haloed
//! [`Planes`] through a [`Sink`] — every backward verified against finite
//! differences in the crate's `tests/gradcheck.rs`.

pub mod activation;
pub mod concat;
pub mod conv2d;
pub mod convtranspose;
// The one audited exception to `deny(unsafe_code)` (see the module docs).
#[allow(unsafe_code)]
mod dispatch;
pub mod dropout;
pub mod im2col;
pub mod matmul;
pub mod planes;
pub mod pool;
pub mod quant;
pub mod upsample;

pub use activation::relu;
pub use concat::concat_channels;
pub use conv2d::{
    conv2d, conv2d_backward, conv2d_backward_into, conv2d_into, Conv2dShape, ConvBuffers,
    GradBuffers,
};
pub use convtranspose::{conv_transpose2d, conv_transpose2d_backward, ConvTranspose2dShape};
pub use dropout::DropoutStream;
pub use im2col::{col2im, im2col};
pub use matmul::{matmul, matmul_a_bt, matmul_at_b};
pub use planes::{Planes, Sink};
pub use pool::{maxpool2x2, maxpool2x2_backward_into, maxpool2x2_into};
pub use quant::{
    gemm_i8_i32, im2col_i8, qconv2d, qconv2d_into, qconv2d_packed, quantize_into, quantize_weights,
    PackedQWeights, QuantParams, QuantizedWeights,
};
pub use upsample::{upsample2x, upsample2x_backward_into, upsample2x_into};
