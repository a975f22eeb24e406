//! Channel-axis concatenation (U-Net skip connections). Its gradient is the
//! channel ranges of the concatenated gradient, which a walk reads in
//! place.

use crate::tensor::Tensor;

/// Concatenates two NCHW tensors along the channel axis:
/// `[n, c1, h, w] ⊕ [n, c2, h, w] → [n, c1+c2, h, w]` with `a`'s channels
/// first.
///
/// # Panics
/// Panics on batch or spatial mismatch.
pub fn concat_channels(a: &Tensor, b: &Tensor) -> Tensor {
    let (n, c1, h, w) = a.nchw();
    let (n2, c2, h2, w2) = b.nchw();
    assert_eq!((n, h, w), (n2, h2, w2), "concat spatial/batch mismatch");
    let mut out = Tensor::zeros(&[n, c1 + c2, h, w]);
    let plane = h * w;
    let dst = out.as_mut_slice();
    for bi in 0..n {
        let dst_base = bi * (c1 + c2) * plane;
        dst[dst_base..dst_base + c1 * plane].copy_from_slice(a.batch_item(bi));
        dst[dst_base + c1 * plane..dst_base + (c1 + c2) * plane].copy_from_slice(b.batch_item(bi));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concat_orders_channels() {
        let a = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[1, 2, 2, 2], (5..=12).map(|v| v as f32).collect());
        let out = concat_channels(&a, &b);
        assert_eq!(out.shape(), &[1, 3, 2, 2]);
        assert_eq!(&out.as_slice()[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(
            &out.as_slice()[4..],
            (5..=12).map(|v| v as f32).collect::<Vec<_>>().as_slice()
        );
    }

    #[test]
    fn concat_respects_batches() {
        let a = Tensor::from_vec(&[2, 1, 1, 1], vec![1.0, 2.0]);
        let b = Tensor::from_vec(&[2, 1, 1, 1], vec![10.0, 20.0]);
        let out = concat_channels(&a, &b);
        assert_eq!(out.as_slice(), &[1.0, 10.0, 2.0, 20.0]);
    }

    #[test]
    #[should_panic(expected = "spatial/batch mismatch")]
    fn mismatched_shapes_panic() {
        let _ = concat_channels(&Tensor::zeros(&[1, 1, 2, 2]), &Tensor::zeros(&[1, 1, 3, 3]));
    }
}
